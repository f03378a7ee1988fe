//! The node-program abstractions executed by the simulator.
//!
//! Two tiers:
//!
//! * [`NodeProgram`] — the closure tier: state, messages and outputs are
//!   arbitrary Rust values, so the program can only run in-process (the
//!   simulator's shared-memory reference path).
//! * [`WireProgram`] — the typed-message tier: the program additionally
//!   declares exact-bit codecs for its state, message and output types plus
//!   a versioned program identifier, which is what lets a simulator round
//!   ship across the transport boundary as the `mmlp/sim-epoch@1` wire
//!   stage (see [`crate::sim_epoch`]) and run on worker processes.

use crate::network::Network;
use mmlp_parallel::wire::{ByteReader, WireError};

/// Size accounting for messages, in abstract "units" (the experiments report
/// communication volume in these units; for the gathering protocol one unit
/// is one agent record).
pub trait MessageSize {
    /// The size of this message in abstract units.
    fn size_units(&self) -> u64 {
        1
    }
}

impl MessageSize for () {}
impl MessageSize for u64 {}
impl MessageSize for f64 {}
impl MessageSize for String {
    fn size_units(&self) -> u64 {
        self.len() as u64
    }
}
impl<T> MessageSize for Vec<T> {
    fn size_units(&self) -> u64 {
        self.len() as u64
    }
}

/// What a node does at the end of a round.
#[derive(Debug, Clone, PartialEq)]
pub enum Action<M, O> {
    /// Send the same message to every neighbour and keep running.
    Broadcast(M),
    /// Send individually addressed messages (to neighbours only) and keep
    /// running.
    Send(Vec<(usize, M)>),
    /// Send nothing this round and keep running.
    Idle,
    /// Stop participating and produce the node's final output.  A halted node
    /// neither sends nor receives in later rounds.
    Halt(O),
}

/// A deterministic synchronous message-passing program, executed identically
/// by every node.
///
/// Execution proceeds in synchronous rounds.  In round `t` every running node
/// is handed the messages sent to it in round `t − 1` (round 0 receives an
/// empty inbox), updates its state, and returns an [`Action`].  The
/// simulator stops when every node has halted or the round limit is reached.
///
/// The paper's *local horizon* corresponds directly to the number of rounds a
/// program runs before halting: after `r` rounds a node can have received
/// information from distance at most `r`.
pub trait NodeProgram: Sync {
    /// Per-node mutable state.
    type State: Send;
    /// Message type exchanged between neighbours.
    type Message: Clone + Send + Sync + MessageSize;
    /// Final per-node output.
    type Output: Send;

    /// Called once when a run starts, before its first round, on every copy
    /// of the program that steps nodes (the host's, and each worker's
    /// decoded copy when the worker meets a new run).  A program that keeps
    /// per-run scratch behind `&self` — such as a memo of pure work — resets
    /// it here, so nothing it holds outlives one run.  The default does
    /// nothing.
    fn begin_run(&self) {}

    /// Creates the initial state of `node` (its "knowledge at system
    /// startup").
    fn init(&self, node: usize, network: &Network) -> Self::State;

    /// Executes one round at `node`.
    ///
    /// `inbox` contains `(sender, message)` pairs sorted by sender, and
    /// `round` counts from 0.
    fn step(
        &self,
        node: usize,
        state: &mut Self::State,
        inbox: &[(usize, Self::Message)],
        round: usize,
        network: &Network,
    ) -> Action<Self::Message, Self::Output>;
}

/// A [`NodeProgram`] whose state, messages and outputs can cross a byte
/// boundary — the LOCAL model made literal: a node computes from the bytes
/// it received, never from shared memory.
///
/// A wire program declares
///
/// * a **versioned program identifier** (`mmlp/prog/<name>@<n>`): the
///   worker-side dispatcher refuses programs it does not know, and a payload
///   layout change bumps the `@<n>` suffix so an old worker reports an
///   unknown program instead of misreading bytes (the same versioning rule
///   as the engine's stage ids — see [`mmlp_parallel::wire`]);
/// * **exact-bit codecs** for its configuration (the program value itself),
///   per-node state, messages and final outputs.  Floats must travel as
///   IEEE-754 bit patterns; every decoder must return a typed
///   [`WireError`] on malformed input rather than panicking.
///
/// With those in hand a simulator round is executable by every
/// [`SolveBackend`](mmlp_parallel::SolveBackend) through the
/// worker-resident `mmlp/sim-epoch@1` wire stage: the in-process backends
/// step host-side shard mirrors directly, the transport backends ship the
/// encoded inter-shard messages to the workers holding the states and
/// decode the actions that return (states travel only in checkpoint
/// snapshots).  Because the codecs are exact, both paths are bit-identical.
///
/// The `Self::State: Clone + Sync` bound is what lets the in-process
/// reference path ([`mmlp_parallel::driver::WireStage::run_local`]) step
/// the shard mirrors from worker threads.
///
/// The gathering protocol is this crate's built-in wire program; "exact-bit
/// codec" means a state survives the byte boundary unchanged:
///
/// ```
/// use mmlp_core::InstanceBuilder;
/// use mmlp_distsim::{GatherProgram, Network, NodeProgram, WireProgram};
/// use mmlp_hypergraph::communication_hypergraph;
/// use mmlp_parallel::wire::ByteReader;
///
/// // A 3-agent path: v0 - v1 - v2, one benefit party per agent.
/// let mut b = InstanceBuilder::new();
/// let v = b.add_agents(3);
/// for w in v.windows(2) {
///     let i = b.add_resource();
///     b.set_consumption(i, w[0], 1.0);
///     b.set_consumption(i, w[1], 1.0);
/// }
/// for &agent in &v {
///     let k = b.add_party();
///     b.set_benefit(k, agent, 1.0);
/// }
/// let inst = b.build().unwrap();
///
/// let program = GatherProgram::new(&inst, 1);
/// // The versioned identifier worker-side dispatchers key on.
/// assert_eq!(program.program_id(), "mmlp/prog/gather@2");
///
/// // A node state round-trips through bytes bit-identically.
/// let (h, _) = communication_hypergraph(&inst);
/// let network = Network::from_hypergraph(&h);
/// let state = program.init(0, &network);
/// let mut bytes = Vec::new();
/// program.encode_state(&state, &mut bytes);
/// let decoded = program.decode_state(&mut ByteReader::new(&bytes)).unwrap();
/// let mut again = Vec::new();
/// program.encode_state(&decoded, &mut again);
/// assert_eq!(bytes, again);
/// ```
pub trait WireProgram: NodeProgram
where
    Self::State: Clone + Sync,
{
    /// Stable program identifier with a payload-version suffix (e.g.
    /// `mmlp/prog/gather@2`), dispatched by the worker-side sim-epoch
    /// handler.
    fn program_id(&self) -> &'static str;

    /// Encodes the program's configuration (everything [`decode_config`]
    /// needs to reconstruct an equivalent program on the worker).
    ///
    /// [`decode_config`]: WireProgram::decode_config
    fn encode_config(&self, out: &mut Vec<u8>);

    /// Decodes a program from its configuration bytes.
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] when the payload is malformed.
    fn decode_config(r: &mut ByteReader<'_>) -> Result<Self, WireError>
    where
        Self: Sized;

    /// Encodes one node's state.
    fn encode_state(&self, state: &Self::State, out: &mut Vec<u8>);

    /// Decodes one node's state.
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] when the payload is malformed.
    fn decode_state(&self, r: &mut ByteReader<'_>) -> Result<Self::State, WireError>;

    /// Encodes one message.
    fn encode_message(&self, message: &Self::Message, out: &mut Vec<u8>);

    /// Decodes one message.
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] when the payload is malformed.
    fn decode_message(&self, r: &mut ByteReader<'_>) -> Result<Self::Message, WireError>;

    /// Encodes one node's final output.
    fn encode_output(&self, output: &Self::Output, out: &mut Vec<u8>);

    /// Decodes one node's final output.
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] when the payload is malformed.
    fn decode_output(&self, r: &mut ByteReader<'_>) -> Result<Self::Output, WireError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_message_sizes() {
        assert_eq!(().size_units(), 1);
        assert_eq!(42u64.size_units(), 1);
        assert_eq!(1.5f64.size_units(), 1);
        assert_eq!("abcd".to_string().size_units(), 4);
        assert_eq!(vec![1, 2, 3].size_units(), 3);
    }

    #[test]
    fn action_variants_are_distinguishable() {
        let a: Action<u64, u64> = Action::Broadcast(1);
        let b: Action<u64, u64> = Action::Halt(1);
        assert_ne!(a, b);
        assert_eq!(Action::<u64, u64>::Idle, Action::Idle);
    }
}
