//! Conformance matrix for the distributed simulator's typed-message tier.
//!
//! The acceptance criterion of the message-typed program refactor: for
//! simulator runs of every wire program, **every backend × shard count ×
//! driver mode** produces per-node outputs bit-identical to the sequential
//! (closure-tier, shared-memory) simulator, with identical message counts,
//! message units, per-round message histograms, round counts and halting
//! rounds.  No tolerances anywhere in this file.
//!
//! Covered matrix:
//!
//! * backends — `Sequential`, `ScopedThreads`, `Sharded`, `LoopbackBackend`
//!   (full wire format in memory), `SubprocessBackend` (real worker
//!   processes, falling back to loopback with a logged skip where the
//!   sandbox cannot fork/exec);
//! * shard counts — {1, 2, 5} wherever the backend has a shard knob;
//! * driver modes — lockstep and overlapped dispatch for the transport
//!   backends;
//! * checkpoint cadences — never, every round and every few rounds, so
//!   snapshot rounds and snapshot-free rounds both cross the boundary.
//!
//! Programs: the gathering protocol (`mmlp/prog/gather@2`) and the
//! gather-then-decide rule program (`mmlp/prog/local-rule@2`) for both of
//! the paper's algorithms, whose solutions are additionally asserted equal
//! to the centralised computations.
//!
//! Every wire run rides the worker-resident `mmlp/sim-epoch@1` stage — a
//! regression test below asserts no path ships the retired
//! `mmlp/sim-round@1` stage, which no registry serves.  The recovery fault
//! cases live in `transport_faults.rs`.

use maxmin_local_lp::parallel::{StageRun, WireStage};
use maxmin_local_lp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

fn workload() -> MaxMinInstance {
    grid_instance(
        &GridConfig { side_lengths: vec![4, 6], torus: false, random_weights: true },
        &mut StdRng::seed_from_u64(23),
    )
}

fn gather_setup(inst: &MaxMinInstance, radius: usize) -> (Network, GatherProgram) {
    let (h, _) = communication_hypergraph(inst);
    (Network::from_hypergraph(&h), GatherProgram::new(inst, radius))
}

/// Asserts a wire-tier run is indistinguishable from the sequential
/// closure-tier reference, down to every per-round counter.
fn assert_run_identical<O: PartialEq + std::fmt::Debug>(
    label: &str,
    run: &SimulationResult<O>,
    reference: &SimulationResult<O>,
) {
    assert_eq!(run.outputs, reference.outputs, "{label}: outputs diverged");
    assert_eq!(run.messages, reference.messages, "{label}: message count diverged");
    assert_eq!(run.message_units, reference.message_units, "{label}: message units diverged");
    assert_eq!(run.rounds, reference.rounds, "{label}: round count diverged");
    assert_eq!(run.messages_per_round, reference.messages_per_round, "{label}");
    assert_eq!(run.halting_round, reference.halting_round, "{label}");
}

#[test]
fn gather_matrix_backends_shards_and_driver_modes_are_bit_identical() {
    let inst = workload();
    let simulator = Simulator::sequential();
    for radius in [1usize, 2] {
        let (network, program) = gather_setup(&inst, radius);
        // The reference is the original shared-memory simulator.
        let reference = simulator.run(&network, &program).unwrap();

        let run = simulator.run_wire_on(&network, &program, &Sequential).unwrap();
        assert_run_identical("sequential", &run, &reference);

        let scoped = ScopedThreads::new(ParallelConfig::with_threads(4));
        let run = simulator.run_wire_on(&network, &program, &scoped).unwrap();
        assert_run_identical("scoped-threads", &run, &reference);

        for shards in [1usize, 2, 5] {
            let backend = Sharded::new(shards, ParallelConfig::with_threads(3));
            let run = simulator.run_wire_on(&network, &program, &backend).unwrap();
            assert_run_identical(&format!("sharded-{shards}"), &run, &reference);
        }

        for shards in [1usize, 2, 5] {
            for mode in [DriverMode::Lockstep, DriverMode::Overlapped] {
                let backend = LoopbackBackend::new(engine_registry(), shards)
                    .with_workers(2)
                    .with_mode(mode);
                let run = simulator.run_wire_on(&network, &program, &backend).unwrap();
                assert_run_identical(&format!("loopback-{shards}-{mode:?}"), &run, &reference);
            }
        }
    }
}

#[test]
fn gather_matrix_subprocess_backends_are_bit_identical() {
    // One pooled subprocess backend per dispatch mode (workers persist
    // across shard counts and radii); where the sandbox cannot spawn
    // processes the capability probe falls back to the loopback transport
    // with a logged skip — the assertions hold either way.
    let inst = workload();
    let simulator = Simulator::sequential();
    for overlapped in [false, true] {
        for shards in [1usize, 2, 5] {
            let backend = SubprocessBackend::new(2, engine_registry()).with_shards(shards);
            let backend = if overlapped { backend } else { backend.lockstep() };
            for radius in [1usize, 2] {
                let (network, program) = gather_setup(&inst, radius);
                let reference = simulator.run(&network, &program).unwrap();
                let run = simulator.run_wire_on(&network, &program, &backend).unwrap();
                assert_run_identical(
                    &format!("subprocess overlapped={overlapped} shards={shards} r={radius}"),
                    &run,
                    &reference,
                );
            }
        }
    }
}

#[test]
fn backend_kind_dispatch_runs_typed_programs_across_the_boundary() {
    // The `SimulatorConfig::backend` path: every selector — including the
    // transport kinds, which used to silently fall back to an in-process
    // split for simulator rounds — produces identical gather results with
    // the rounds genuinely crossing the boundary.
    let inst = workload();
    let (network, program) = gather_setup(&inst, 2);
    let reference = Simulator::sequential().run(&network, &program).unwrap();
    for backend in [
        BackendKind::Sequential,
        BackendKind::ScopedThreads,
        BackendKind::Sharded { shards: 2 },
        BackendKind::Sharded { shards: 5 },
        BackendKind::Loopback { shards: 2 },
        BackendKind::Loopback { shards: 5 },
        BackendKind::Subprocess { workers: 2, overlapped: false },
        BackendKind::Subprocess { workers: 2, overlapped: true },
    ] {
        let simulator =
            Simulator::with_config(SimulatorConfig { backend, ..SimulatorConfig::default() });
        let run = simulator.run_typed(&network, &program, &engine_registry()).unwrap();
        assert_run_identical(&format!("{backend:?}"), &run, &reference);
        // `gather_views` routes the transport kinds through the same path.
        let views = gather_views(&inst, 2, &simulator).unwrap();
        assert_eq!(views.outputs, reference.outputs, "{backend:?} via gather_views");
        assert_eq!(views.messages, reference.messages, "{backend:?} via gather_views");
    }
}

#[test]
fn rule_programs_match_the_central_algorithms_across_every_transport() {
    let inst = workload();
    let simplex = SimplexOptions::default();
    let safe_central = safe_algorithm(&inst);
    let averaging_central = local_averaging(&inst, &LocalAveragingOptions::sequential(1)).unwrap();
    // The closure-tier reference runs carry the message accounting the wire
    // tier must reproduce.
    let safe_reference = run_local_rule(
        &inst,
        SAFE_HORIZON,
        &Simulator::sequential(),
        &ParallelConfig::sequential(),
        safe_activity_from_view,
    )
    .unwrap();
    for backend in [
        BackendKind::Sequential,
        BackendKind::Sharded { shards: 5 },
        BackendKind::Loopback { shards: 2 },
        BackendKind::Loopback { shards: 5 },
        BackendKind::Subprocess { workers: 2, overlapped: true },
        BackendKind::Subprocess { workers: 2, overlapped: false },
    ] {
        let simulator =
            Simulator::with_config(SimulatorConfig { backend, ..SimulatorConfig::default() });
        let safe_run = run_wire_rule(&inst, WireRule::Safe, &simplex, &simulator).unwrap();
        assert_eq!(safe_run.solution, safe_central, "{backend:?}: safe rule diverged");
        assert_eq!(safe_run.messages, safe_reference.messages, "{backend:?}");
        assert_eq!(safe_run.rounds, safe_reference.rounds, "{backend:?}");
        assert_eq!(safe_run.message_units, safe_reference.message_units, "{backend:?}");

        let avg_run =
            run_wire_rule(&inst, WireRule::LocalAveraging { radius: 1 }, &simplex, &simulator)
                .unwrap();
        assert_eq!(
            avg_run.solution, averaging_central.solution,
            "{backend:?}: averaging rule diverged"
        );
        assert_eq!(avg_run.radius, 3);
    }
}

#[test]
fn wire_tier_respects_the_round_limit() {
    let inst = workload();
    let (network, program) = gather_setup(&inst, 3);
    let simulator = Simulator::with_config(SimulatorConfig {
        max_rounds: 2, // the radius-3 gather needs 4 rounds
        parallel: ParallelConfig::sequential(),
        backend: BackendKind::Sequential,
        ..SimulatorConfig::default()
    });
    let expect_limit =
        |label: &str, result: Result<SimulationResult<LocalView>, SimError>| match result {
            Err(SimError::RoundLimitExceeded { limit: 2, still_running }) => {
                assert_eq!(still_running, inst.num_agents(), "{label}");
            }
            other => panic!("{label}: expected the round limit, got {other:?}"),
        };
    expect_limit("sequential", simulator.run_wire_on(&network, &program, &Sequential));
    for mode in [DriverMode::Lockstep, DriverMode::Overlapped] {
        let backend = LoopbackBackend::new(engine_registry(), 3).with_workers(2).with_mode(mode);
        expect_limit(&format!("{mode:?}"), simulator.run_wire_on(&network, &program, &backend));
    }
}

#[test]
fn epoch_tier_matrix_is_bit_identical_to_the_sequential_simulator() {
    // The checkpoint-cadence dimension of the matrix: snapshots every
    // round, every few rounds and never, on loopback workers in both
    // driver modes (the in-process backends keep their mirrors on the
    // host and never snapshot, so the cadence cannot change their runs).
    let inst = workload();
    for radius in [1usize, 2] {
        let (network, program) = gather_setup(&inst, radius);
        let reference = Simulator::sequential().run(&network, &program).unwrap();
        for every in [0usize, 1, 4] {
            let epoch_sim = Simulator::with_config(SimulatorConfig {
                parallel: ParallelConfig::sequential(),
                checkpoint: CheckpointPolicy::every(every),
                ..SimulatorConfig::default()
            });
            for mode in [DriverMode::Lockstep, DriverMode::Overlapped] {
                let backend =
                    LoopbackBackend::new(engine_registry(), 5).with_workers(2).with_mode(mode);
                let run = epoch_sim.run_wire_on(&network, &program, &backend).unwrap();
                let label = format!("loopback-{mode:?} r={radius} k={every}");
                assert_run_identical(&label, &run, &reference);
            }
        }
    }
}

#[test]
fn epoch_tier_runs_on_subprocess_workers_and_backend_kind_dispatch() {
    // A short checkpoint cadence through every `BackendKind`: on the
    // transport kinds the workers stream snapshots back every other round
    // while their resident state keeps serving the run.
    let inst = workload();
    let (network, program) = gather_setup(&inst, 2);
    let reference = Simulator::sequential().run(&network, &program).unwrap();
    for backend in [
        BackendKind::Sequential,
        BackendKind::ScopedThreads,
        BackendKind::Sharded { shards: 5 },
        BackendKind::Loopback { shards: 5 },
        BackendKind::Subprocess { workers: 2, overlapped: false },
        BackendKind::Subprocess { workers: 2, overlapped: true },
    ] {
        let simulator = Simulator::with_config(SimulatorConfig {
            backend,
            checkpoint: CheckpointPolicy::every(2),
            ..SimulatorConfig::default()
        });
        let run = simulator.run_typed(&network, &program, &engine_registry()).unwrap();
        assert_run_identical(&format!("epoch {backend:?}"), &run, &reference);
    }
}

#[test]
fn concurrent_simulations_on_one_shared_backend_keep_their_resident_state() {
    // Workers hold one sim-epoch context each, so simulations sharing a
    // backend must not interleave their rounds: a second program's context
    // would evict the first one's resident states mid-run.  Threads race
    // different programs through one shared loopback backend and through
    // the process-wide subprocess pool that `BackendKind` resolves to.
    let inst = workload();
    let setups: Vec<_> = [1usize, 2, 3].iter().map(|&r| gather_setup(&inst, r)).collect();
    let references: Vec<_> = setups
        .iter()
        .map(|(net, prog)| Simulator::sequential().run(net, prog).unwrap())
        .collect();
    let shared = LoopbackBackend::new(engine_registry(), 4).with_workers(2);
    let pooled = Simulator::with_config(SimulatorConfig {
        backend: BackendKind::Subprocess { workers: 2, overlapped: true },
        ..SimulatorConfig::default()
    });
    std::thread::scope(|scope| {
        for ((network, program), reference) in setups.iter().zip(&references) {
            let shared = &shared;
            let pooled = &pooled;
            scope.spawn(move || {
                for _ in 0..3 {
                    let run =
                        Simulator::sequential().run_wire_on(network, program, shared).unwrap();
                    assert_run_identical("shared loopback", &run, reference);
                    let run = pooled.run_typed(network, program, &engine_registry()).unwrap();
                    assert_run_identical("pooled subprocess", &run, reference);
                }
            });
        }
    });
}

/// A backend that forwards to another and records the stage id of every
/// stage it runs.  Like perfbench's tracing wrapper it forwards only
/// `execute_stage`, so the simulator's recoverable calls reach the inner
/// backend through the trait's default.
struct Recorded<'a, B> {
    inner: &'a B,
    stages: Mutex<Vec<&'static str>>,
}

impl<'a, B: SolveBackend> Recorded<'a, B> {
    fn new(inner: &'a B) -> Self {
        Self { inner, stages: Mutex::new(Vec::new()) }
    }

    fn record<R>(&self, run: StageRun<R>) -> StageRun<R> {
        self.stages.lock().unwrap().push(run.stats.stage);
        run
    }

    fn stages(&self) -> Vec<&'static str> {
        self.stages.lock().unwrap().clone()
    }
}

impl<B: SolveBackend> SolveBackend for Recorded<'_, B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&self, items: usize) -> Vec<Shard> {
        self.inner.plan(items)
    }

    fn execute<R, F>(&self, stage: &'static str, items: usize, f: F) -> StageRun<R>
    where
        R: Send,
        F: Fn(&Shard) -> R + Sync,
    {
        self.record(self.inner.execute(stage, items, f))
    }

    fn execute_stage<S: WireStage>(
        &self,
        items: usize,
        stage: &S,
    ) -> Result<StageRun<S::Output>, TransportError> {
        Ok(self.record(self.inner.execute_stage(items, stage)?))
    }
}

/// Runs `program` through `backend` behind the recording wrapper and
/// returns the outputs plus every stage id that was shipped.
fn recorded_run<B: SolveBackend>(
    network: &Network,
    program: &LocalRuleProgram,
    backend: &B,
) -> (Vec<f64>, Vec<&'static str>) {
    let recorded = Recorded::new(backend);
    let run = Simulator::sequential().run_wire_on(network, program, &recorded).unwrap();
    (run.outputs, recorded.stages())
}

#[test]
fn run_wire_rule_ships_only_the_resident_stage() {
    let inst = workload();
    let simplex = SimplexOptions::default();
    let rule = WireRule::LocalAveraging { radius: 1 };
    let central = local_averaging(&inst, &LocalAveragingOptions::sequential(1)).unwrap();
    // `run_wire_rule` spelled out, with the recording backend between the
    // simulator and each transport.
    let (h, _) = communication_hypergraph(&inst);
    let network = Network::from_hypergraph(&h);
    let program = LocalRuleProgram::new(&inst, rule, simplex);
    let loopback = LoopbackBackend::new(engine_registry(), 4).with_workers(2);
    let subprocess = SubprocessBackend::new(2, engine_registry());
    for (label, (outputs, stages)) in [
        ("loopback", recorded_run(&network, &program, &loopback)),
        ("subprocess", recorded_run(&network, &program, &subprocess)),
    ] {
        assert!(!stages.is_empty(), "{label}: no stage recorded");
        assert!(stages.iter().all(|&s| s == STAGE_SIM_EPOCH), "{label}: shipped {stages:?}");
        assert_eq!(outputs, central.solution.activities(), "{label}");
    }
    // The entry point itself, on both transport kinds: it resolves against
    // the engine registry, which serves no other simulator stage, so a
    // successful run never shipped the retired one.
    for backend in [
        BackendKind::Loopback { shards: 4 },
        BackendKind::Subprocess { workers: 2, overlapped: true },
    ] {
        let simulator =
            Simulator::with_config(SimulatorConfig { backend, ..SimulatorConfig::default() });
        let run = run_wire_rule(&inst, rule, &simplex, &simulator).unwrap();
        assert_eq!(run.solution, central.solution, "{backend:?}");
    }
}

/// A stage that claims the retired state-in-job simulator id.
struct RetiredSimRound;

impl WireStage for RetiredSimRound {
    type Output = ();

    fn stage_id(&self) -> &'static str {
        "mmlp/sim-round@1"
    }

    fn encode_context(&self, _out: &mut Vec<u8>) {}

    fn encode_job(&self, _shard: &Shard, _out: &mut Vec<u8>) {}

    fn decode_reply(&self, _shard: &Shard, _payload: &[u8]) -> Result<(), TransportError> {
        Ok(())
    }

    fn run_local(&self, _shard: &Shard) {}
}

#[test]
fn a_worker_asked_for_the_retired_sim_round_stage_answers_unknown_stage() {
    let expect_unknown = |label: &str, result: Result<StageRun<()>, TransportError>| match result {
        Err(TransportError::Worker { message, .. }) => {
            assert!(
                message.contains("does not know stage `mmlp/sim-round@1`"),
                "{label}: {message}"
            );
        }
        other => panic!("{label}: expected an unknown-stage worker error, got {other:?}"),
    };
    for (label, registry) in [("engine", engine_registry()), ("distsim", distsim_registry())] {
        let backend = LoopbackBackend::new(registry, 2);
        expect_unknown(label, backend.execute_stage(4, &RetiredSimRound));
    }
    // The real worker binary (loopback where the sandbox cannot spawn).
    let backend = SubprocessBackend::new(2, engine_registry());
    expect_unknown("subprocess", backend.execute_stage(4, &RetiredSimRound));
}
