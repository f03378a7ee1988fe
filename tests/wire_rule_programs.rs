//! The per-node averaging rule's per-run ball-LP memo and the gathering
//! protocol's id-based wire programs (`mmlp/prog/gather@2`,
//! `mmlp/prog/local-rule@2`).
//!
//! * On instances whose balls repeat across centres, `run_wire_rule` with
//!   the memo is bit-identical to the central algorithm on every backend
//!   kind, including the pooled subprocess workers.
//! * The memo lives for exactly one run: two runs of one program or one
//!   worker pool produce identical outputs and identical in-process
//!   `RuleStats`.
//! * `RuleStats::lps` counts the ball LPs the nodes compute, independently
//!   of the memo, and the memo solves fewer of them where balls repeat.
//! * Workers refuse the retired `@1` program ids with a typed
//!   unknown-program error.

use maxmin_local_lp::parallel::wire::put_str;
use maxmin_local_lp::parallel::{StageRun, WireStage};
use maxmin_local_lp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Instances whose balls repeat across centres (unit weights), so most of
/// the averaging rule's ball LPs are answered by its per-run memo.
fn repeating_instances() -> Vec<(&'static str, MaxMinInstance)> {
    let grid = grid_instance(
        &GridConfig { side_lengths: vec![8, 8], torus: false, random_weights: false },
        &mut StdRng::seed_from_u64(0),
    );
    let skewed = skewed_bipartite_instance(
        &SkewedBipartiteConfig {
            num_agents: 40,
            num_resources: 30,
            num_parties: 28,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(7),
    );
    vec![("unit 8x8 grid", grid), ("skewed bipartite", skewed)]
}

#[test]
fn memoised_rule_matches_the_central_algorithm_where_balls_repeat() {
    let simplex = SimplexOptions::default();
    let rule = WireRule::LocalAveraging { radius: 1 };
    for (label, inst) in repeating_instances() {
        let central = local_averaging(&inst, &LocalAveragingOptions::sequential(1)).unwrap();
        for backend in [
            BackendKind::Sequential,
            BackendKind::Sharded { shards: 5 },
            BackendKind::Loopback { shards: 3 },
            BackendKind::Subprocess { workers: 2, overlapped: true },
        ] {
            let simulator =
                Simulator::with_config(SimulatorConfig { backend, ..SimulatorConfig::default() });
            let run = run_wire_rule(&inst, rule, &simplex, &simulator).unwrap();
            let bits =
                |x: &Solution| x.activities().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&run.solution), bits(&central.solution), "{label}, {backend:?}");
        }
    }
}

#[test]
fn the_rule_memo_lives_for_exactly_one_run() {
    // Two consecutive runs of one program (in-process) and of one worker
    // pool: identical outputs, and the in-process run solves exactly as many
    // ball LPs the second time — nothing the first run memoised survives.
    let simplex = SimplexOptions::default();
    let rule = WireRule::LocalAveraging { radius: 1 };
    for (label, inst) in repeating_instances() {
        let (h, _) = communication_hypergraph(&inst);
        let network = Network::from_hypergraph(&h);
        let program = LocalRuleProgram::new(&inst, rule, simplex);
        let sequential = Simulator::sequential();
        let first = sequential.run_typed(&network, &program, &engine_registry()).unwrap();
        let first_stats = program.rule_stats();
        let second = sequential.run_typed(&network, &program, &engine_registry()).unwrap();
        assert_eq!(first, second, "{label}");
        assert_eq!(program.rule_stats(), first_stats, "{label}");
        assert!(first_stats.solves > 0, "{label}: {first_stats:?}");

        let pooled = Simulator::with_config(SimulatorConfig {
            backend: BackendKind::Subprocess { workers: 2, overlapped: true },
            ..SimulatorConfig::default()
        });
        for run in 0..2 {
            let wired = pooled.run_typed(&network, &program, &engine_registry()).unwrap();
            assert_eq!(wired.outputs, first.outputs, "{label}: pooled run {run}");
        }
    }
}

#[test]
fn rule_lps_count_every_party_keeping_ball_of_every_view() {
    // rule_lps = Σ_j |{u ∈ V^j : B(u, R) keeps a party}|, with the balls
    // taken from the central enumeration; the memo solves fewer of them.
    let radius = 1;
    let rule = WireRule::LocalAveraging { radius };
    for (label, inst) in repeating_instances() {
        let (h, _) = communication_hypergraph(&inst);
        let balls = h.all_balls(radius);
        let keeps_party: Vec<bool> = balls
            .iter()
            .map(|ball| {
                inst.party_ids().any(|k| {
                    inst.party(k)
                        .members()
                        .iter()
                        .all(|(v, _)| ball.binary_search(&v.index()).is_ok())
                })
            })
            .collect();
        let expected: usize = balls
            .iter()
            .map(|v_j| v_j.iter().filter(|&&u| keeps_party[u]).count())
            .sum();

        let network = Network::from_hypergraph(&h);
        let program = LocalRuleProgram::new(&inst, rule, SimplexOptions::default());
        Simulator::sequential()
            .run_typed(&network, &program, &engine_registry())
            .unwrap();
        let stats = program.rule_stats();
        assert_eq!(stats.lps, expected as u64, "{label}");
        assert!(stats.solves < stats.lps, "{label}: {stats:?}");
    }
}

/// A sim-epoch stage whose context names a given (retired) program id.
struct RetiredProgram(&'static str);

impl WireStage for RetiredProgram {
    type Output = ();

    fn stage_id(&self) -> &'static str {
        STAGE_SIM_EPOCH
    }

    fn encode_context(&self, out: &mut Vec<u8>) {
        put_str(out, self.0);
    }

    fn encode_job(&self, _shard: &Shard, _out: &mut Vec<u8>) {}

    fn decode_reply(&self, _shard: &Shard, _payload: &[u8]) -> Result<(), TransportError> {
        Ok(())
    }

    fn run_local(&self, _shard: &Shard) {}
}

#[test]
fn workers_refuse_the_retired_program_ids() {
    // `@1` states and messages carried whole knowledge records; a worker
    // must answer a typed unknown-program error rather than misread them.
    for id in ["mmlp/prog/gather@1", "mmlp/prog/local-rule@1"] {
        let stage = RetiredProgram(id);
        let expect_unknown =
            |label: &str, result: Result<StageRun<()>, TransportError>| match result {
                Err(TransportError::Worker { message, .. }) => {
                    let expected = format!("unknown simulator program `{id}`");
                    assert!(message.contains(&expected), "{label}: {message}");
                }
                other => panic!("{label}: expected an unknown-program error, got {other:?}"),
            };
        for (label, registry) in [("engine", engine_registry()), ("distsim", distsim_registry())] {
            let backend = LoopbackBackend::new(registry, 2);
            expect_unknown(label, backend.execute_stage(4, &stage));
        }
        // The real worker binary (loopback where the sandbox cannot spawn).
        let backend = SubprocessBackend::new(2, engine_registry());
        expect_unknown("subprocess", backend.execute_stage(4, &stage));
    }
}
