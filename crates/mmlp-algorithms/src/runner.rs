//! Executing view-based local rules, either through the distributed
//! simulator or directly.
//!
//! A *local rule* is any function from a [`LocalView`] to the centre agent's
//! activity.  Both algorithms of the paper are local rules (with horizons 1
//! and `2R + 1` respectively), so this module is the single place where
//! "being a local algorithm" is made operational:
//!
//! * [`run_local_rule`] gathers the views by running the flooding protocol in
//!   the synchronous simulator and reports the true communication cost;
//! * [`views_direct`] constructs the same views centrally (provably identical
//!   — see the `mmlp-distsim` tests), which is faster for large experiments;
//! * [`LocalRuleProgram`] is the typed-message form: the same
//!   gather-then-decide protocol as a
//!   [`WireProgram`], so [`run_wire_rule`] executes
//!   the paper's algorithms with every simulator round crossing the
//!   transport boundary — on worker processes when the simulator selects
//!   the subprocess backend.

use crate::local_averaging::{activity_from_view, RuleMemo, RuleStats};
use crate::safe::{safe_activity_from_view, SAFE_HORIZON};
use crate::transport::engine_registry;
use mmlp_core::{AgentId, MaxMinInstance, Solution};
use mmlp_distsim::{
    gather_views, Action, GatherMessage, GatherProgram, GatherState, LocalView, Network,
    NodeProgram, SimError, Simulator, WireProgram,
};
use mmlp_hypergraph::communication_hypergraph;
use mmlp_lp::SimplexOptions;
use mmlp_parallel::wire::{put_f64, put_u8, put_usize, ByteReader, WireError};
use mmlp_parallel::{par_map_with, ParallelConfig};

/// The outcome of executing a local rule through the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalRun {
    /// The assembled global solution (one activity per agent).
    pub solution: Solution,
    /// Information radius used by the gathering protocol.
    pub radius: usize,
    /// Number of synchronous rounds executed.
    pub rounds: usize,
    /// Total number of point-to-point messages.
    pub messages: u64,
    /// Total communication volume (agent records transferred).
    pub message_units: u64,
}

impl LocalRun {
    /// Average number of messages per agent — the paper's "constant per
    /// node" scalability claim is about this quantity staying flat as the
    /// network grows.
    pub fn messages_per_agent(&self) -> f64 {
        if self.solution.is_empty() {
            0.0
        } else {
            self.messages as f64 / self.solution.len() as f64
        }
    }
}

/// Runs a view-based local rule through the synchronous simulator.
///
/// Every agent first gathers its radius-`radius` view using the flooding
/// protocol and then applies `rule` to it; the result collects the per-agent
/// outputs together with the exact communication statistics of the gathering
/// phase.
pub fn run_local_rule<F>(
    instance: &MaxMinInstance,
    radius: usize,
    simulator: &Simulator,
    parallel: &ParallelConfig,
    rule: F,
) -> Result<LocalRun, SimError>
where
    F: Fn(&LocalView) -> f64 + Sync,
{
    let gathered = gather_views(instance, radius, simulator)?;
    let activities = par_map_with(parallel, &gathered.outputs, |view| rule(view));
    Ok(LocalRun {
        solution: Solution::new(activities),
        radius,
        rounds: gathered.rounds,
        messages: gathered.messages,
        message_units: gathered.message_units,
    })
}

/// Builds every agent's radius-`radius` view directly from the instance
/// (without simulating message passing).  The views are identical to the ones
/// the simulator produces.
pub fn views_direct(
    instance: &MaxMinInstance,
    radius: usize,
    parallel: &ParallelConfig,
) -> Vec<LocalView> {
    let (h, _) = communication_hypergraph(instance);
    let agents: Vec<AgentId> = instance.agent_ids().collect();
    par_map_with(parallel, &agents, |&v| LocalView::from_instance(instance, &h, v, radius))
}

/// Program identifier of the gather-then-decide rule program on the wire
/// (`@2` is the payload version of its config codec and of the gathering
/// protocol's state and message codecs it rides on; `@1` is retired).
pub const LOCAL_RULE_PROGRAM_ID: &str = "mmlp/prog/local-rule@2";

/// Which of the paper's view-based rules a [`LocalRuleProgram`] applies once
/// its local horizon is gathered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireRule {
    /// The safe algorithm (horizon 1).
    Safe,
    /// The local averaging rule of Theorem 3 at ball radius `R ≥ 1`
    /// (horizon `2R + 1`).
    LocalAveraging {
        /// The ball radius `R`.
        radius: usize,
    },
}

impl WireRule {
    /// The local horizon the rule needs — the number of gathering rounds a
    /// node runs before deciding.
    pub fn horizon(&self) -> usize {
        match self {
            WireRule::Safe => SAFE_HORIZON,
            WireRule::LocalAveraging { radius } => 2 * radius + 1,
        }
    }
}

/// The paper's algorithms as one typed-message node program: gather the
/// rule's local horizon with the flooding protocol, then halt with the
/// centre agent's activity.
///
/// This is the honest distributed form of [`run_local_rule`] made
/// serialisable: state and messages are the gathering protocol's (with its
/// exact-bit codecs), the configuration adds the rule selector and simplex
/// options, so the whole algorithm runs through the worker-resident
/// `mmlp/sim-epoch@1` stage on any backend — including real worker
/// processes, which keep each node's gathered view between rounds.
///
/// Each copy of the program (the host's, and each worker's decoded copy)
/// owns one averaging-rule memo that the nodes it steps share: a ball LP
/// that many views contain is solved once per copy and run.  The memo is
/// reset when a run starts ([`NodeProgram::begin_run`]) and never outlives
/// one, so the work a run does never depends on earlier runs — a worker's
/// decoded program survives across runs in its stage cache.
#[derive(Debug)]
pub struct LocalRuleProgram {
    rule: WireRule,
    simplex: SimplexOptions,
    gather: GatherProgram,
    memo: RuleMemo,
}

impl LocalRuleProgram {
    /// Creates the program for an instance, rule and simplex options.
    ///
    /// # Panics
    ///
    /// Panics if the rule is [`WireRule::LocalAveraging`] with radius 0.
    pub fn new(instance: &MaxMinInstance, rule: WireRule, simplex: SimplexOptions) -> Self {
        if let WireRule::LocalAveraging { radius } = rule {
            assert!(radius >= 1, "local averaging requires R ≥ 1");
        }
        let gather = GatherProgram::new(instance, rule.horizon());
        Self { rule, simplex, gather, memo: RuleMemo::default() }
    }

    /// The rule this program applies.
    pub fn rule(&self) -> WireRule {
        self.rule
    }

    /// What the averaging rule computed through this copy's memo since the
    /// current run started (all zero for the safe rule).  Only the copy that
    /// stepped the nodes has counted them: the host's program after an
    /// in-process run, a worker's copy after a transport run.
    pub fn rule_stats(&self) -> RuleStats {
        self.memo.stats()
    }

    fn apply(&self, view: &LocalView) -> f64 {
        match self.rule {
            WireRule::Safe => safe_activity_from_view(view),
            WireRule::LocalAveraging { radius } => {
                activity_from_view(view, radius, &self.simplex, &self.memo)
            }
        }
    }
}

impl NodeProgram for LocalRuleProgram {
    type State = GatherState;
    type Message = GatherMessage;
    type Output = f64;

    fn begin_run(&self) {
        self.memo.clear();
    }

    fn init(&self, node: usize, network: &Network) -> GatherState {
        self.gather.init(node, network)
    }

    fn step(
        &self,
        node: usize,
        state: &mut GatherState,
        inbox: &[(usize, GatherMessage)],
        round: usize,
        network: &Network,
    ) -> Action<GatherMessage, f64> {
        match self.gather.step(node, state, inbox, round, network) {
            Action::Halt(view) => Action::Halt(self.apply(&view)),
            Action::Broadcast(message) => Action::Broadcast(message),
            Action::Send(list) => Action::Send(list),
            Action::Idle => Action::Idle,
        }
    }
}

const RULE_TAG_SAFE: u8 = 0;
const RULE_TAG_AVERAGING: u8 = 1;

impl WireProgram for LocalRuleProgram {
    fn program_id(&self) -> &'static str {
        LOCAL_RULE_PROGRAM_ID
    }

    fn encode_config(&self, out: &mut Vec<u8>) {
        match self.rule {
            WireRule::Safe => put_u8(out, RULE_TAG_SAFE),
            WireRule::LocalAveraging { radius } => {
                put_u8(out, RULE_TAG_AVERAGING);
                put_usize(out, radius);
            }
        }
        put_f64(out, self.simplex.tolerance);
        put_usize(out, self.simplex.max_pivots);
        put_usize(out, self.simplex.bland_after);
        self.gather.encode_config(out);
    }

    fn decode_config(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        const CTX: &str = "local-rule config";
        let rule = match r.u8(CTX)? {
            RULE_TAG_SAFE => WireRule::Safe,
            RULE_TAG_AVERAGING => {
                let radius = r.usize(CTX)?;
                if radius == 0 {
                    return Err(WireError::Decode { context: CTX });
                }
                WireRule::LocalAveraging { radius }
            }
            _ => return Err(WireError::Decode { context: CTX }),
        };
        let simplex = SimplexOptions {
            tolerance: r.f64(CTX)?,
            max_pivots: r.usize(CTX)?,
            bland_after: r.usize(CTX)?,
        };
        let gather = GatherProgram::decode_config(r)?;
        if gather.radius() != rule.horizon() {
            return Err(WireError::Decode { context: CTX });
        }
        Ok(Self { rule, simplex, gather, memo: RuleMemo::default() })
    }

    fn encode_state(&self, state: &GatherState, out: &mut Vec<u8>) {
        self.gather.encode_state(state, out);
    }

    fn decode_state(&self, r: &mut ByteReader<'_>) -> Result<GatherState, WireError> {
        self.gather.decode_state(r)
    }

    fn encode_message(&self, message: &GatherMessage, out: &mut Vec<u8>) {
        self.gather.encode_message(message, out);
    }

    fn decode_message(&self, r: &mut ByteReader<'_>) -> Result<GatherMessage, WireError> {
        self.gather.decode_message(r)
    }

    fn encode_output(&self, output: &f64, out: &mut Vec<u8>) {
        put_f64(out, *output);
    }

    fn decode_output(&self, r: &mut ByteReader<'_>) -> Result<f64, WireError> {
        r.f64("local-rule output")
    }
}

/// Runs one of the paper's view-based rules fully distributed through the
/// typed-message tier: every simulator round is shipped through the
/// simulator's configured backend as a `mmlp/sim-epoch@1` wire stage
/// (resolved against the engine registry, which serves this program).
/// Workers keep the nodes' growing views resident, so a round ships only
/// the inter-shard gather messages, and the per-agent activities come back
/// as the nodes' final outputs.
///
/// Bit-identical to [`run_local_rule`] with the matching rule closure — the
/// conformance suite asserts it across every backend, shard count and
/// driver mode.
///
/// # Errors
///
/// [`SimError`] when the round limit is exceeded or the backend's transport
/// fails.
pub fn run_wire_rule(
    instance: &MaxMinInstance,
    rule: WireRule,
    simplex: &SimplexOptions,
    simulator: &Simulator,
) -> Result<LocalRun, SimError> {
    let (h, _) = communication_hypergraph(instance);
    let network = Network::from_hypergraph(&h);
    let program = LocalRuleProgram::new(instance, rule, *simplex);
    let run = simulator.run_typed(&network, &program, &engine_registry())?;
    Ok(LocalRun {
        solution: Solution::new(run.outputs),
        radius: rule.horizon(),
        rounds: run.rounds,
        messages: run.messages,
        message_units: run.message_units,
    })
}

/// Applies a local rule to directly-constructed views — the fast centralised
/// execution path for experiments.
pub fn apply_rule_direct<F>(
    instance: &MaxMinInstance,
    radius: usize,
    parallel: &ParallelConfig,
    rule: F,
) -> Solution
where
    F: Fn(&LocalView) -> f64 + Sync,
{
    let views = views_direct(instance, radius, parallel);
    Solution::new(par_map_with(parallel, &views, |view| rule(view)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safe::{safe_activity_from_view, safe_algorithm, SAFE_HORIZON};
    use mmlp_instances::{grid_instance, GridConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid(side: usize) -> MaxMinInstance {
        grid_instance(&GridConfig::square(side), &mut StdRng::seed_from_u64(3))
    }

    #[test]
    fn simulated_safe_algorithm_matches_central() {
        let inst = grid(5);
        let run = run_local_rule(
            &inst,
            SAFE_HORIZON,
            &Simulator::sequential(),
            &ParallelConfig::sequential(),
            safe_activity_from_view,
        )
        .unwrap();
        assert_eq!(run.solution, safe_algorithm(&inst));
        // Gathering a radius-1 view takes 2 rounds (broadcast + collect).
        assert_eq!(run.rounds, 2);
        assert!(run.messages > 0);
        assert!(run.messages_per_agent() > 0.0);
    }

    #[test]
    fn direct_views_match_simulated_views() {
        let inst = grid(4);
        let direct = views_direct(&inst, 2, &ParallelConfig::sequential());
        let simulated = gather_views(&inst, 2, &Simulator::sequential()).unwrap();
        assert_eq!(direct, simulated.outputs);
    }

    #[test]
    fn apply_rule_direct_matches_simulated_run() {
        let inst = grid(4);
        let rule = |view: &LocalView| view.len() as f64 * 0.001;
        let direct = apply_rule_direct(&inst, 2, &ParallelConfig::sequential(), rule);
        let simulated =
            run_local_rule(&inst, 2, &Simulator::sequential(), &ParallelConfig::sequential(), rule)
                .unwrap();
        assert_eq!(direct, simulated.solution);
    }

    #[test]
    fn per_agent_message_cost_is_independent_of_network_size() {
        // The scalability property of local algorithms: per-agent
        // communication depends on the radius and the local structure, not on
        // the total number of agents.
        let small = run_local_rule(
            &grid(6),
            1,
            &Simulator::sequential(),
            &ParallelConfig::sequential(),
            safe_activity_from_view,
        )
        .unwrap();
        let large = run_local_rule(
            &grid(12),
            1,
            &Simulator::sequential(),
            &ParallelConfig::sequential(),
            safe_activity_from_view,
        )
        .unwrap();
        // Per-agent cost may differ slightly because of boundary effects, but
        // must not grow with the instance (4× more agents here).
        assert!(large.messages_per_agent() <= small.messages_per_agent() * 1.5);
    }

    #[test]
    fn wire_rule_crosses_the_loopback_boundary_bit_identically() {
        use mmlp_distsim::SimulatorConfig;
        use mmlp_lp::SimplexOptions;
        use mmlp_parallel::BackendKind;
        let inst = grid(5);
        let central = safe_algorithm(&inst);
        let sim = Simulator::with_config(SimulatorConfig {
            backend: BackendKind::Loopback { shards: 3 },
            ..SimulatorConfig::default()
        });
        let run = run_wire_rule(&inst, WireRule::Safe, &SimplexOptions::default(), &sim).unwrap();
        assert_eq!(run.solution, central);
        // Message accounting matches the closure-tier reference run.
        let reference = run_local_rule(
            &inst,
            SAFE_HORIZON,
            &Simulator::sequential(),
            &ParallelConfig::sequential(),
            safe_activity_from_view,
        )
        .unwrap();
        assert_eq!(run.messages, reference.messages);
        assert_eq!(run.rounds, reference.rounds);
        assert_eq!(run.message_units, reference.message_units);
    }

    #[test]
    fn wire_rule_local_averaging_matches_the_central_algorithm() {
        use crate::local_averaging::{local_averaging, LocalAveragingOptions};
        use mmlp_distsim::SimulatorConfig;
        use mmlp_lp::SimplexOptions;
        use mmlp_parallel::BackendKind;
        let inst = grid(4);
        let central = local_averaging(&inst, &LocalAveragingOptions::sequential(1)).unwrap();
        let sim = Simulator::with_config(SimulatorConfig {
            backend: BackendKind::Loopback { shards: 2 },
            ..SimulatorConfig::default()
        });
        let run = run_wire_rule(
            &inst,
            WireRule::LocalAveraging { radius: 1 },
            &SimplexOptions::default(),
            &sim,
        )
        .unwrap();
        assert_eq!(run.solution, central.solution);
        assert_eq!(run.radius, 3);
    }

    #[test]
    fn empty_rule_run_on_single_agent() {
        let inst = grid(1);
        let run = run_local_rule(
            &inst,
            3,
            &Simulator::sequential(),
            &ParallelConfig::sequential(),
            |_| 1.0,
        )
        .unwrap();
        assert_eq!(run.solution.len(), 1);
        assert_eq!(run.messages, 0);
    }
}
