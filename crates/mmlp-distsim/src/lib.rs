//! A synchronous LOCAL-model simulator for distributed max-min LP algorithms.
//!
//! The paper's model (Sections 1.4–1.5): each agent `v` controls the variable
//! `x_v`; two agents can communicate directly iff they are adjacent in the
//! communication hypergraph `H`; a *local algorithm* with horizon `r` must
//! choose `x_v` based solely on the information initially available within
//! `B_H(v, r)`.
//!
//! This crate simulates that model on a single machine:
//!
//! * [`Network`] — the communication topology derived from `H`;
//! * [`NodeProgram`] / [`Action`] — synchronous message-passing programs
//!   (send, receive, compute, possibly halt with an output);
//! * [`Simulator`] — deterministic round-by-round execution with message
//!   accounting and optional multi-threaded rounds;
//! * [`gather`] — the generic *neighbourhood-gathering* protocol: after `r`
//!   rounds every agent holds exactly the information available in
//!   `B_H(v, r)`, packaged as a [`LocalView`];
//! * [`view`] — the [`LocalView`] type that local algorithms consume;
//! * [`sim_epoch`] — the typed-message wire tier: a [`WireProgram`]
//!   declares exact-bit codecs for its state, messages and outputs, and a
//!   simulator round becomes the `mmlp/sim-epoch@1` wire stage, executable
//!   by every [`SolveBackend`](mmlp_parallel::SolveBackend).  Workers own
//!   their node range's state across rounds, jobs ship only inter-shard
//!   message batches, and worker death is handled by the checkpoint/restore
//!   protocol driven by a [`CheckpointPolicy`].
//!
//! The simulator is exact rather than approximate: a deterministic local
//! algorithm executed through it produces precisely the same outputs it would
//! produce on a real network, while letting the experiments *measure* rounds,
//! messages and information radius.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gather;
pub mod network;
pub mod program;
pub mod sim_epoch;
pub mod simulator;
pub mod view;

pub use gather::{
    gather_views, GatherMessage, GatherProgram, GatherState, LocalKnowledge, GATHER_PROGRAM_ID,
};
pub use network::{put_network, read_network, Network};
pub use program::{Action, MessageSize, NodeProgram, WireProgram};
pub use sim_epoch::{
    distsim_registry, handle_sim_epoch, peek_program_id, CheckpointPolicy, STAGE_SIM_EPOCH,
};
pub use simulator::{EpochTicket, SimError, SimulationResult, Simulator, SimulatorConfig};
pub use view::LocalView;

/// Test topologies shared by the simulator-tier suites, so a topology fix
/// cannot silently drift between tiers.
#[cfg(test)]
pub(crate) mod test_topology {
    use crate::network::Network;
    use mmlp_core::{InstanceBuilder, MaxMinInstance};

    /// The n-node path `0 – 1 – … – n-1`.
    pub(crate) fn path_network(n: usize) -> Network {
        let mut adj = vec![Vec::new(); n];
        for v in 0..n.saturating_sub(1) {
            adj[v].push(v + 1);
            adj[v + 1].push(v);
        }
        Network::from_adjacency(adj)
    }

    /// A path of `n` agents connected by shared resources, one party per
    /// agent (its communication network is `path_network(n)`).
    pub(crate) fn path_instance(n: usize) -> MaxMinInstance {
        let mut b = InstanceBuilder::new();
        let v = b.add_agents(n);
        for w in v.windows(2) {
            let i = b.add_resource();
            b.set_consumption(i, w[0], 1.0);
            b.set_consumption(i, w[1], 1.0);
        }
        if n == 1 {
            let i = b.add_resource();
            b.set_consumption(i, v[0], 1.0);
        }
        for &vv in &v {
            let k = b.add_party();
            b.set_benefit(k, vv, 1.0);
        }
        b.build().unwrap()
    }
}
