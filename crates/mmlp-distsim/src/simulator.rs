//! Deterministic synchronous execution of node programs.
//!
//! The per-node steps of every round are submitted through the same
//! [`SolveBackend`] execution layer the batched
//! local-LP engine uses, so the simulator and the engine share one executor
//! and one [`ParallelConfig`]: a simulated message round is a pipeline stage
//! over node-range shards, exactly like a batch of local-LP solves.
//!
//! Two execution tiers mirror the two program tiers:
//!
//! * [`Simulator::run`] / [`Simulator::run_on`] execute closure-shaped
//!   [`NodeProgram`]s in-process (shared-memory state) — the reference path;
//! * [`Simulator::run_typed`] / [`Simulator::run_wire_on`] execute
//!   [`WireProgram`]s through the worker-resident `mmlp/sim-epoch@1` wire
//!   stage: workers keep their node range's states between rounds, jobs
//!   ship only inter-shard message batches, and worker death is recovered
//!   by checkpoint/restore (see [`crate::sim_epoch`]).  The conformance
//!   suite asserts both tiers are bit-identical, message count for message
//!   count.

use crate::network::Network;
use crate::program::{Action, MessageSize, NodeProgram, WireProgram};
use crate::sim_epoch::{
    next_run_token, CheckpointPolicy, EpochAction, ResidentSlot, SimEpochStage,
};
use mmlp_parallel::wire::WireError;
use mmlp_parallel::{
    backend_map, pooled_subprocess_backend, BackendKind, LoopbackBackend, ParallelConfig,
    RecoveryLog, ServiceError, SolveBackend, SolveService, StageRegistry, TenantId, Ticket,
    TransportError,
};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// Configuration of the [`Simulator`].
#[derive(Debug, Clone, Copy)]
pub struct SimulatorConfig {
    /// Maximum number of synchronous rounds before the run is aborted.
    pub max_rounds: usize,
    /// Thread configuration for executing the per-node steps of one round.
    pub parallel: ParallelConfig,
    /// Which execution backend runs the per-round node steps.
    pub backend: BackendKind,
    /// How often the wire tier ([`Simulator::run_wire_on`]) asks workers to
    /// checkpoint their resident state back to the host, which bounds the
    /// replay after a worker death.
    pub checkpoint: CheckpointPolicy,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        Self {
            max_rounds: 10_000,
            parallel: ParallelConfig::default(),
            backend: BackendKind::default(),
            checkpoint: CheckpointPolicy::default(),
        }
    }
}

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Some nodes were still running when the round limit was reached.
    RoundLimitExceeded {
        /// The configured limit.
        limit: usize,
        /// How many nodes had not halted.
        still_running: usize,
    },
    /// The execution backend's transport failed while shipping a round
    /// (typed: frame corruption, worker death past the retry budget, …).
    /// Only the [`WireProgram`] paths can produce this.
    Transport(TransportError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RoundLimitExceeded { limit, still_running } => {
                write!(f, "{still_running} nodes still running after the round limit of {limit}")
            }
            SimError::Transport(e) => write!(f, "simulator round transport failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<TransportError> for SimError {
    fn from(e: TransportError) -> Self {
        SimError::Transport(e)
    }
}

/// The result of a completed simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult<O> {
    /// Final output of each node, indexed by node id.
    pub outputs: Vec<O>,
    /// Number of rounds executed (the maximum halting round plus one, i.e.
    /// the local horizon actually used).
    pub rounds: usize,
    /// The round (0-based) in which each node halted.
    pub halting_round: Vec<usize>,
    /// Total number of point-to-point messages delivered.
    pub messages: u64,
    /// Total communication volume in abstract [`MessageSize`] units.
    pub message_units: u64,
    /// Messages delivered per round.
    pub messages_per_round: Vec<u64>,
}

/// The [`Ticket`] a simulator epoch admitted onto a multi-tenant
/// [`SolveService`] resolves to ([`Simulator::submit_typed`]).
pub type EpochTicket<O> = Ticket<Result<SimulationResult<O>, SimError>>;

impl<O> SimulationResult<O> {
    /// Average number of messages sent per node over the whole run.
    pub fn messages_per_node(&self) -> f64 {
        if self.outputs.is_empty() {
            0.0
        } else {
            self.messages as f64 / self.outputs.len() as f64
        }
    }
}

/// Executes [`NodeProgram`]s in synchronous rounds over a [`Network`].
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    config: SimulatorConfig,
}

impl Simulator {
    /// Simulator with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulator with an explicit configuration.
    pub fn with_config(config: SimulatorConfig) -> Self {
        Self { config }
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &SimulatorConfig {
        &self.config
    }

    /// Simulator that executes each round sequentially (fully deterministic
    /// timing, useful in tests and when the caller is already parallel).
    pub fn sequential() -> Self {
        Self::with_config(SimulatorConfig {
            parallel: ParallelConfig::sequential(),
            backend: BackendKind::Sequential,
            ..SimulatorConfig::default()
        })
    }

    /// Runs `program` on every node of `network` until all nodes halt, on
    /// the backend selected in the configuration.
    pub fn run<P: NodeProgram>(
        &self,
        network: &Network,
        program: &P,
    ) -> Result<SimulationResult<P::Output>, SimError> {
        let shards = match self.config.backend {
            BackendKind::Sequential => {
                return self.run_on(network, program, &mmlp_parallel::Sequential)
            }
            BackendKind::ScopedThreads => {
                let backend = mmlp_parallel::ScopedThreads::new(self.config.parallel);
                return self.run_on(network, program, &backend);
            }
            // Closure-shaped node programs carry arbitrary state and cannot
            // be serialised, so for *this* entry point the transport kinds
            // run their rounds in-process on the plan-equivalent fixed-shard
            // backend (results are bit-identical by the backend contract).
            // Typed-message programs go through [`Simulator::run_typed`] /
            // [`Simulator::run_wire_on`] instead, where rounds genuinely
            // cross the byte and process boundary.
            BackendKind::Sharded { shards } | BackendKind::Loopback { shards } => shards,
            BackendKind::Subprocess { workers, .. } => {
                workers * mmlp_parallel::SUBPROCESS_SHARDS_PER_WORKER
            }
        };
        self.run_on(network, program, &mmlp_parallel::Sharded::new(shards, self.config.parallel))
    }

    /// Runs `program` on an explicit [`SolveBackend`] — the same extension
    /// seam the batched local-LP engine exposes, so a custom execution
    /// substrate serves simulated message rounds and batch solves alike.
    pub fn run_on<P: NodeProgram, B: SolveBackend>(
        &self,
        network: &Network,
        program: &P,
        backend: &B,
    ) -> Result<SimulationResult<P::Output>, SimError> {
        let n = network.num_nodes();
        program.begin_run();
        let states: Vec<Mutex<Option<P::State>>> =
            (0..n).map(|v| Mutex::new(Some(program.init(v, network)))).collect();
        let mut tally = Tally::new(n);
        // inboxes[v] = messages to be delivered to v at the start of the
        // current round, sorted by sender.
        let mut inboxes: Vec<Vec<(usize, P::Message)>> = (0..n).map(|_| Vec::new()).collect();
        let mut running: Vec<usize> = (0..n).collect();
        let mut round = 0usize;

        while !running.is_empty() {
            self.check_round_limit(round, &running)?;

            // Step every running node (sharded over the backend); the
            // per-node state is protected by its own uncontended mutex.
            let (actions, _round_stats): (Vec<Action<P::Message, P::Output>>, _) =
                backend_map(backend, "round", &running, |&node| {
                    let mut guard = states[node].lock();
                    let state = guard.as_mut().expect("running node has state");
                    let inbox = &inboxes[node];
                    program.step(node, state, inbox, round, network)
                });

            // Clear the inboxes we just consumed.
            for &node in &running {
                inboxes[node].clear();
            }

            let mut outgoing = Vec::new();
            let mut still_running = Vec::with_capacity(running.len());
            for (&node, action) in running.iter().zip(actions) {
                match action {
                    Action::Broadcast(message) => {
                        let units = message.size_units();
                        for &to in network.neighbors(node) {
                            outgoing.push((node, to, units, Some(message.clone())));
                        }
                        still_running.push(node);
                    }
                    Action::Send(list) => {
                        for (to, message) in list {
                            assert_neighbor(network, node, to);
                            outgoing.push((node, to, message.size_units(), Some(message)));
                        }
                        still_running.push(node);
                    }
                    Action::Idle => still_running.push(node),
                    Action::Halt(output) => {
                        tally.halt(node, round, output);
                        // Halted nodes drop their state.
                        *states[node].lock() = None;
                    }
                }
            }
            tally.deliver(outgoing, &mut inboxes);
            running = still_running;
            round += 1;
        }

        Ok(tally.finish(round))
    }

    /// Runs a [`WireProgram`] on the backend selected in the configuration,
    /// resolving the transport kinds against `registry` (which must serve
    /// [`STAGE_SIM_EPOCH`](crate::sim_epoch::STAGE_SIM_EPOCH) for this
    /// program — e.g. [`distsim_registry`](crate::sim_epoch::distsim_registry)
    /// for the programs this crate defines, or the engine registry of
    /// `mmlp-algorithms` for its algorithm programs).
    ///
    /// Unlike [`Simulator::run`], the transport kinds here genuinely cross
    /// the boundary (in memory under fault injection for `Loopback`, over
    /// real worker stdio for `Subprocess`); see [`Simulator::run_wire_on`].
    ///
    /// # Errors
    ///
    /// As for [`Simulator::run_wire_on`].
    pub fn run_typed<P: WireProgram>(
        &self,
        network: &Network,
        program: &P,
        registry: &Arc<StageRegistry>,
    ) -> Result<SimulationResult<P::Output>, SimError>
    where
        P::State: Clone + Sync,
    {
        match self.config.backend {
            BackendKind::Sequential => {
                self.run_wire_on(network, program, &mmlp_parallel::Sequential)
            }
            BackendKind::ScopedThreads => self.run_wire_on(
                network,
                program,
                &mmlp_parallel::ScopedThreads::new(self.config.parallel),
            ),
            BackendKind::Sharded { shards } => self.run_wire_on(
                network,
                program,
                &mmlp_parallel::Sharded::new(shards, self.config.parallel),
            ),
            BackendKind::Loopback { shards } => {
                self.run_wire_on(network, program, &LoopbackBackend::new(registry.clone(), shards))
            }
            BackendKind::Subprocess { workers, overlapped } => {
                let backend = pooled_subprocess_backend(workers, overlapped, registry);
                self.run_wire_on(network, program, &*backend)
            }
        }
    }

    /// Admits a [`run_typed`](Simulator::run_typed) run onto a multi-tenant
    /// [`SolveService`] for `tenant`, returning the [`Ticket`] its
    /// [`SimulationResult`] will arrive on.
    ///
    /// The admitted run dispatches through the ordinary backend machinery,
    /// so simulator rounds and engine solves queue onto the same fairness
    /// lanes and — under [`BackendKind::Subprocess`] — the same process-wide
    /// worker pool.
    ///
    /// # Errors
    ///
    /// [`ServiceError::QueueFull`] (the service's typed backpressure) or
    /// [`ServiceError::Draining`]; simulation failures arrive inside the
    /// [`Ticket`].
    pub fn submit_typed<P>(
        &self,
        service: &SolveService,
        tenant: TenantId,
        network: &Network,
        program: P,
        registry: &Arc<StageRegistry>,
    ) -> Result<EpochTicket<P::Output>, ServiceError>
    where
        P: WireProgram + Send + 'static,
        P::State: Clone + Sync,
        P::Output: Send + 'static,
    {
        let simulator = self.clone();
        let network = network.clone();
        let registry = registry.clone();
        service.submit(tenant, move || simulator.run_typed(&network, &program, &registry))
    }

    /// Runs a [`WireProgram`] on an explicit [`SolveBackend`] with
    /// **worker-resident state**: every round is submitted as the
    /// `mmlp/sim-epoch@1` stage, whose jobs carry only the round number and
    /// the shard's inter-shard message batches — per-node state lives on the
    /// workers between rounds, so the steady-state wire volume is
    /// `O(messages)` per round.
    ///
    /// The plan covers all nodes every round with fixed shard boundaries, so
    /// each worker's resident states keep describing the same node range.
    /// Correctness under worker death comes from the checkpoint/restore
    /// protocol: per the configured [`CheckpointPolicy`], jobs ask workers
    /// to stream state snapshots back, and the [`RecoveryLog`] handed to
    /// [`SolveBackend::execute_stage_recoverable`] replays
    /// `snapshot + buffered jobs` into respawned workers.  A backend that
    /// does not override that method runs each round through its plain
    /// [`execute_stage`](SolveBackend::execute_stage).  The in-process
    /// backends run the identical resident-state protocol against host-side
    /// shard mirrors, so every backend is bit-identical to
    /// [`Simulator::run_on`] — the conformance and fault suites assert
    /// this, including under scripted worker deaths.
    ///
    /// A full checkpoint-and-recover round trip — snapshots every 2 rounds,
    /// a worker killed mid-run, results asserted identical to the
    /// sequential simulator:
    ///
    /// ```
    /// use mmlp_core::InstanceBuilder;
    /// use mmlp_distsim::{
    ///     distsim_registry, CheckpointPolicy, GatherProgram, Network, Simulator,
    ///     SimulatorConfig,
    /// };
    /// use mmlp_hypergraph::communication_hypergraph;
    /// use mmlp_parallel::{FaultPlan, LoopbackBackend};
    ///
    /// // A 4-agent path instance and its radius-2 gathering protocol.
    /// let mut b = InstanceBuilder::new();
    /// let v = b.add_agents(4);
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
    /// let program = GatherProgram::new(&inst, 2);
    /// let (h, _) = communication_hypergraph(&inst);
    /// let network = Network::from_hypergraph(&h);
    ///
    /// let reference = Simulator::sequential().run(&network, &program).unwrap();
    ///
    /// // Two loopback workers; the fault plan kills each worker's first
    /// // link after one reply, forcing a restore + replay mid-run.
    /// let backend = LoopbackBackend::new(distsim_registry(), 2)
    ///     .with_faults(FaultPlan { die_after_replies: Some(1), ..FaultPlan::none() });
    /// let sim = Simulator::with_config(SimulatorConfig {
    ///     checkpoint: CheckpointPolicy::every(2),
    ///     ..SimulatorConfig::default()
    /// });
    /// let run = sim.run_wire_on(&network, &program, &backend).unwrap();
    /// assert_eq!(run.outputs, reference.outputs);
    /// assert_eq!(run.messages, reference.messages);
    /// assert_eq!(run.rounds, reference.rounds);
    /// ```
    ///
    /// # Errors
    ///
    /// [`SimError::RoundLimitExceeded`] as for [`Simulator::run`], plus
    /// [`SimError::Transport`] when the backend's transport fails (for
    /// example when worker deaths exhaust the retry budget).
    pub fn run_wire_on<P: WireProgram, B: SolveBackend>(
        &self,
        network: &Network,
        program: &P,
        backend: &B,
    ) -> Result<SimulationResult<P::Output>, SimError>
    where
        P::State: Clone + Sync,
    {
        backend.reserve_workers(|| self.run_epochs(network, program, backend))
    }

    /// The body of [`Simulator::run_wire_on`], run while `backend`'s
    /// workers are reserved for this simulation's resident state.
    fn run_epochs<P: WireProgram, B: SolveBackend>(
        &self,
        network: &Network,
        program: &P,
        backend: &B,
    ) -> Result<SimulationResult<P::Output>, SimError>
    where
        P::State: Clone + Sync,
    {
        let n = network.num_nodes();
        let token = next_run_token();
        program.begin_run();
        let mut tally = Tally::new(n);
        let mut inboxes: Vec<Vec<(usize, P::Message)>> = (0..n).map(|_| Vec::new()).collect();
        let mut running: Vec<usize> = (0..n).collect();
        let mut running_flags: Vec<bool> = vec![true; n];
        // Host-side resident mirrors for the in-process backends (a plan
        // never has more shards than items, so `n` slots suffice).
        let resident: Vec<ResidentSlot<P>> = (0..n).map(|_| Mutex::new(None)).collect();
        let mut recovery = RecoveryLog::new();
        let mut round = 0usize;

        while !running.is_empty() {
            self.check_round_limit(round, &running)?;

            let stage = SimEpochStage {
                program,
                network,
                round,
                snapshot: self.config.checkpoint.requests_snapshot(round),
                token,
                running: &running_flags,
                inboxes: &inboxes,
                resident: &resident,
            };
            let run = backend.execute_stage_recoverable(n, &stage, &mut recovery)?;

            // Shards are contiguous ascending node ranges and each reply
            // lists its running nodes in ascending order, so the
            // concatenation is exactly `running` order.  Each action keeps
            // its shard's boundary for the delivery rule below.
            let mut actions = Vec::with_capacity(running.len());
            let mut stepped = Vec::with_capacity(running.len());
            for (start, end, shard_steps) in run.outputs {
                for (node, action) in shard_steps {
                    stepped.push(node);
                    actions.push((start, end, action));
                }
            }
            if stepped != running {
                return Err(SimError::Transport(TransportError::Wire(WireError::Decode {
                    context: "sim-epoch merged replies",
                })));
            }

            // Clear the inter-shard inboxes we just consumed.
            for &node in &running {
                inboxes[node].clear();
            }

            // Delivery works from the reply summaries: a copy's payload is
            // present only where it crosses its sender's shard boundary.
            // Intra-shard copies were already delivered by the worker from
            // its retained outbox; the host just counts them from the
            // shipped size units.
            let mut outgoing = Vec::new();
            let mut still_running = Vec::with_capacity(running.len());
            for (&node, (start, end, action)) in running.iter().zip(actions) {
                match action {
                    EpochAction::Broadcast { units, message } => {
                        for &to in network.neighbors(node) {
                            let payload =
                                (to < start || to >= end).then(|| message.clone()).flatten();
                            outgoing.push((node, to, units, payload));
                        }
                        still_running.push(node);
                    }
                    EpochAction::Send { list } => {
                        for (to, units, message) in list {
                            assert_neighbor(network, node, to);
                            outgoing.push((node, to, units, message));
                        }
                        still_running.push(node);
                    }
                    EpochAction::Idle => still_running.push(node),
                    EpochAction::Halt(output) => {
                        tally.halt(node, round, output);
                        running_flags[node] = false;
                    }
                }
            }
            tally.deliver(outgoing, &mut inboxes);
            running = still_running;
            round += 1;
        }

        Ok(tally.finish(round))
    }

    fn check_round_limit(&self, round: usize, running: &[usize]) -> Result<(), SimError> {
        if round >= self.config.max_rounds {
            return Err(SimError::RoundLimitExceeded {
                limit: self.config.max_rounds,
                still_running: running.len(),
            });
        }
        Ok(())
    }
}

/// A node program may only message its neighbours (remote replies are
/// validated when decoded, so this fires only for in-process programs).
fn assert_neighbor(network: &Network, node: usize, to: usize) {
    assert!(
        network.neighbors(node).contains(&to),
        "node {node} attempted to message non-neighbour {to}"
    );
}

/// The host's per-run bookkeeping, shared by both tiers so they are
/// message-for-message identical: outputs, halting rounds and the message
/// accounting.
struct Tally<O> {
    outputs: Vec<Option<O>>,
    halting_round: Vec<usize>,
    messages: u64,
    message_units: u64,
    messages_per_round: Vec<u64>,
}

impl<O> Tally<O> {
    fn new(n: usize) -> Self {
        Self {
            outputs: (0..n).map(|_| None).collect(),
            halting_round: vec![0; n],
            messages: 0,
            message_units: 0,
            messages_per_round: Vec::new(),
        }
    }

    fn halt(&mut self, node: usize, round: usize, output: O) {
        self.outputs[node] = Some(output);
        self.halting_round[node] = round;
    }

    /// Delivers one round's queued copies `(from, to, units, payload)`,
    /// queued in `running` order, after the round's halts were recorded:
    /// copies to halted nodes are dropped, the rest are counted and their
    /// payloads (absent for copies a worker delivered itself) appended to
    /// the recipient's inbox, which stays sorted by sender.
    fn deliver<M>(
        &mut self,
        outgoing: Vec<(usize, usize, u64, Option<M>)>,
        inboxes: &mut [Vec<(usize, M)>],
    ) {
        let mut round_messages = 0u64;
        for (from, to, units, payload) in outgoing {
            if self.outputs[to].is_none() {
                round_messages += 1;
                self.message_units += units;
                if let Some(message) = payload {
                    inboxes[to].push((from, message));
                }
            }
        }
        for inbox in inboxes.iter_mut() {
            inbox.sort_by_key(|(from, _)| *from);
        }
        self.messages += round_messages;
        self.messages_per_round.push(round_messages);
    }

    fn finish(self, rounds: usize) -> SimulationResult<O> {
        SimulationResult {
            outputs: self
                .outputs
                .into_iter()
                .map(|o| o.expect("every node halted with an output"))
                .collect(),
            rounds,
            halting_round: self.halting_round,
            messages: self.messages,
            message_units: self.message_units,
            messages_per_round: self.messages_per_round,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_topology::path_network;

    /// Every node immediately halts with its own id.
    struct IdentityProgram;
    impl NodeProgram for IdentityProgram {
        type State = ();
        type Message = ();
        type Output = usize;
        fn init(&self, _node: usize, _network: &Network) -> Self::State {}
        fn step(
            &self,
            node: usize,
            _state: &mut Self::State,
            _inbox: &[(usize, ())],
            _round: usize,
            _network: &Network,
        ) -> Action<(), usize> {
            Action::Halt(node)
        }
    }

    /// Each node floods a counter for `rounds` rounds, then outputs the sum of
    /// everything it received (used to check message accounting).
    struct FloodSum {
        rounds: usize,
    }
    impl NodeProgram for FloodSum {
        type State = u64;
        type Message = u64;
        type Output = u64;
        fn init(&self, node: usize, _network: &Network) -> Self::State {
            node as u64
        }
        fn step(
            &self,
            _node: usize,
            state: &mut Self::State,
            inbox: &[(usize, u64)],
            round: usize,
            _network: &Network,
        ) -> Action<u64, u64> {
            for (_, m) in inbox {
                *state += m;
            }
            if round >= self.rounds {
                Action::Halt(*state)
            } else {
                Action::Broadcast(*state)
            }
        }
    }

    /// Computes the maximum node id within the node's connected component by
    /// flooding; halts when the value is stable for two consecutive rounds.
    struct MaxFlood;
    impl NodeProgram for MaxFlood {
        type State = (u64, usize); // (current max, rounds since change)
        type Message = u64;
        type Output = u64;
        fn init(&self, node: usize, _network: &Network) -> Self::State {
            (node as u64, 0)
        }
        fn step(
            &self,
            _node: usize,
            state: &mut Self::State,
            inbox: &[(usize, u64)],
            _round: usize,
            network: &Network,
        ) -> Action<u64, u64> {
            let before = state.0;
            for (_, m) in inbox {
                state.0 = state.0.max(*m);
            }
            if state.0 == before {
                state.1 += 1;
            } else {
                state.1 = 0;
            }
            // Everyone waits diameter-many stable rounds; n is a safe bound.
            if state.1 > network.num_nodes() {
                Action::Halt(state.0)
            } else {
                Action::Broadcast(state.0)
            }
        }
    }

    #[test]
    fn identity_program_halts_in_one_round() {
        let net = path_network(5);
        let result = Simulator::new().run(&net, &IdentityProgram).unwrap();
        assert_eq!(result.outputs, vec![0, 1, 2, 3, 4]);
        assert_eq!(result.rounds, 1);
        assert_eq!(result.messages, 0);
        assert_eq!(result.halting_round, vec![0; 5]);
    }

    #[test]
    fn flooding_respects_the_horizon() {
        // On a path, after r rounds of flooding a node can only have been
        // influenced by nodes within distance r.
        let net = path_network(7);
        let one_round = Simulator::sequential().run(&net, &FloodSum { rounds: 1 }).unwrap();
        // Node 0 hears only node 1's initial value.
        assert_eq!(one_round.outputs[0], 1);
        // Node 3 hears nodes 2 and 4.
        assert_eq!(one_round.outputs[3], 3 + 2 + 4);
        assert_eq!(one_round.rounds, 2);
    }

    #[test]
    fn message_accounting_matches_topology() {
        let net = path_network(4); // 3 links
        let result = Simulator::sequential().run(&net, &FloodSum { rounds: 2 }).unwrap();
        // Rounds 0 and 1 broadcast on every link in both directions; round 2
        // halts without sending.
        assert_eq!(result.messages, 2 * 2 * 3);
        assert_eq!(result.messages_per_round, vec![6, 6, 0]);
        assert_eq!(result.message_units, result.messages);
        assert!(result.messages_per_node() > 0.0);
    }

    #[test]
    fn max_flood_finds_global_maximum() {
        let net = path_network(9);
        let result = Simulator::new().run(&net, &MaxFlood).unwrap();
        assert!(result.outputs.iter().all(|&m| m == 8));
    }

    #[test]
    fn parallel_and_sequential_runs_agree() {
        let net = path_network(20);
        let seq = Simulator::sequential().run(&net, &FloodSum { rounds: 5 }).unwrap();
        let par = Simulator::with_config(SimulatorConfig {
            parallel: ParallelConfig::with_threads(8),
            ..Default::default()
        })
        .run(&net, &FloodSum { rounds: 5 })
        .unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.messages, par.messages);
        assert_eq!(seq.rounds, par.rounds);
    }

    #[test]
    fn round_limit_is_enforced() {
        struct Forever;
        impl NodeProgram for Forever {
            type State = ();
            type Message = ();
            type Output = ();
            fn init(&self, _: usize, _: &Network) {}
            fn step(
                &self,
                _: usize,
                _: &mut (),
                _: &[(usize, ())],
                _: usize,
                _: &Network,
            ) -> Action<(), ()> {
                Action::Idle
            }
        }
        let net = path_network(3);
        let sim = Simulator::with_config(SimulatorConfig {
            max_rounds: 10,
            parallel: ParallelConfig::sequential(),
            backend: BackendKind::Sequential,
            ..SimulatorConfig::default()
        });
        assert_eq!(
            sim.run(&net, &Forever),
            Err(SimError::RoundLimitExceeded { limit: 10, still_running: 3 })
        );
    }

    #[test]
    fn empty_network_produces_empty_result() {
        let net = Network::from_adjacency(vec![]);
        let result = Simulator::new().run(&net, &IdentityProgram).unwrap();
        assert!(result.outputs.is_empty());
        assert_eq!(result.rounds, 0);
        assert_eq!(result.messages_per_node(), 0.0);
    }

    #[test]
    fn messages_per_node_is_guarded_against_empty_networks() {
        // Even a hand-built result with messages recorded but zero nodes
        // must not divide by zero: the average is defined as 0.0.
        let empty: SimulationResult<usize> = SimulationResult {
            outputs: vec![],
            rounds: 0,
            halting_round: vec![],
            messages: 7,
            message_units: 7,
            messages_per_round: vec![7],
        };
        assert_eq!(empty.messages_per_node(), 0.0);
        assert!(empty.messages_per_node().is_finite());
        let nonempty: SimulationResult<usize> = SimulationResult {
            outputs: vec![1, 2],
            rounds: 1,
            halting_round: vec![0, 0],
            messages: 7,
            message_units: 7,
            messages_per_round: vec![7],
        };
        assert_eq!(nonempty.messages_per_node(), 3.5);
    }

    #[test]
    fn all_backends_simulate_identically() {
        let net = path_network(15);
        let reference = Simulator::sequential().run(&net, &FloodSum { rounds: 4 }).unwrap();
        for backend in [
            BackendKind::ScopedThreads,
            BackendKind::Sharded { shards: 2 },
            BackendKind::Sharded { shards: 7 },
            // Node programs cannot be serialised, so the transport kinds
            // run rounds in-process on the plan-equivalent split — they
            // must still be selectable and bit-identical.
            BackendKind::Loopback { shards: 3 },
            BackendKind::Subprocess { workers: 2, overlapped: true },
            BackendKind::Subprocess { workers: 2, overlapped: false },
        ] {
            let run =
                Simulator::with_config(SimulatorConfig { backend, ..SimulatorConfig::default() })
                    .run(&net, &FloodSum { rounds: 4 })
                    .unwrap();
            assert_eq!(run.outputs, reference.outputs, "{backend:?}");
            assert_eq!(run.messages, reference.messages, "{backend:?}");
            assert_eq!(run.rounds, reference.rounds, "{backend:?}");
        }
        // The generic entry point accepts any backend implementation —
        // including a transport backend, whose closure path serves the
        // simulated rounds in-process.
        let via_trait = Simulator::new()
            .run_on(
                &net,
                &FloodSum { rounds: 4 },
                &mmlp_parallel::Sharded::new(3, ParallelConfig::default()),
            )
            .unwrap();
        assert_eq!(via_trait.outputs, reference.outputs);
        let loopback = mmlp_parallel::LoopbackBackend::new(
            std::sync::Arc::new(mmlp_parallel::StageRegistry::new()),
            3,
        );
        let via_transport =
            Simulator::new().run_on(&net, &FloodSum { rounds: 4 }, &loopback).unwrap();
        assert_eq!(via_transport.outputs, reference.outputs);
        assert_eq!(via_transport.messages, reference.messages);
    }

    #[test]
    fn directed_send_reaches_only_target() {
        /// Node 0 sends its id to its smallest neighbour only; everyone halts
        /// in round 1 with the count of messages received.
        struct SendOne;
        impl NodeProgram for SendOne {
            type State = usize;
            type Message = u64;
            type Output = usize;
            fn init(&self, _: usize, _: &Network) -> usize {
                0
            }
            fn step(
                &self,
                node: usize,
                state: &mut usize,
                inbox: &[(usize, u64)],
                round: usize,
                network: &Network,
            ) -> Action<u64, usize> {
                *state += inbox.len();
                if round == 0 {
                    if node == 0 {
                        let target = network.neighbors(0)[0];
                        Action::Send(vec![(target, 7)])
                    } else {
                        Action::Idle
                    }
                } else {
                    Action::Halt(*state)
                }
            }
        }
        let net = path_network(3);
        let result = Simulator::sequential().run(&net, &SendOne).unwrap();
        assert_eq!(result.outputs, vec![0, 1, 0]);
        assert_eq!(result.messages, 1);
    }
}
