//! Fault-injection suite for the transport backends.
//!
//! Every fault is *scripted* into a deterministic [`FaultPlan`] — no sleeps,
//! no timing assertions, no flakiness — and each must resolve one of two
//! ways, never a hang, panic or silently changed solution:
//!
//! * **absorbed** (reordered replies, duplicate delivery, a killed worker
//!   within the retry budget): the engine returns a solution bit-identical
//!   to the sequential reference;
//! * **typed error** (truncated frames, corrupted frames, deaths past the
//!   retry budget, worker-side handler failures): the engine returns the
//!   matching [`TransportError`] variant wrapped in
//!   [`EngineError::Transport`].
//!
//! The subprocess tests at the bottom exercise the real process boundary
//! (spawn failures, handshake failures with a non-protocol binary, and
//! end-to-end bit-identity); they skip with a log line where the sandbox
//! cannot fork/exec.

use maxmin_local_lp::parallel::{StageRun, WireStage};
use maxmin_local_lp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload() -> MaxMinInstance {
    grid_instance(
        &GridConfig { side_lengths: vec![5, 6], torus: false, random_weights: true },
        &mut StdRng::seed_from_u64(17),
    )
}

fn reference(inst: &MaxMinInstance) -> LocalLpBatch {
    solve_local_lps(inst, &LocalLpOptions::new(1).with_backend(BackendKind::Sequential)).unwrap()
}

/// The class solutions of a batch as bit patterns, for exact comparison.
fn solution_bits(batch: &LocalLpBatch) -> Vec<Vec<u64>> {
    batch
        .class_solutions
        .iter()
        .map(|x| x.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn loopback(faults: FaultPlan) -> LoopbackBackend {
    // 6 shards over 2 workers: enough pipelining depth that reordering and
    // duplication have something to scramble.
    LoopbackBackend::new(engine_registry(), 6)
        .with_workers(2)
        .with_faults(faults)
}

#[test]
fn faultless_loopback_is_bit_identical() {
    let inst = workload();
    let reference = reference(&inst);
    for mode in [DriverMode::Lockstep, DriverMode::Overlapped] {
        let backend = loopback(FaultPlan::none()).with_mode(mode);
        let batch = solve_local_lps_on(&inst, &LocalLpOptions::new(1), &backend).unwrap();
        assert_eq!(batch.local_x, reference.local_x, "{mode:?}");
        assert_eq!(batch.class_of_ball, reference.class_of_ball, "{mode:?}");
        assert_eq!(batch.class_keys, reference.class_keys, "{mode:?}");
        assert_eq!(solution_bits(&batch), solution_bits(&reference), "{mode:?}");
    }
}

#[test]
fn reordered_replies_never_change_the_solution() {
    let inst = workload();
    let reference = reference(&inst);
    for seed in [1u64, 42, 2008] {
        let backend = loopback(FaultPlan { reorder_seed: Some(seed), ..FaultPlan::none() });
        let batch = solve_local_lps_on(&inst, &LocalLpOptions::new(1), &backend).unwrap();
        assert_eq!(batch.local_x, reference.local_x, "seed {seed}");
        assert_eq!(batch.class_of_ball, reference.class_of_ball, "seed {seed}");
        assert_eq!(solution_bits(&batch), solution_bits(&reference), "seed {seed}");
        assert_eq!(batch.stats.unique_classes, reference.stats.unique_classes, "seed {seed}");
    }
}

#[test]
fn duplicated_replies_never_change_the_solution() {
    let inst = workload();
    let reference = reference(&inst);
    // Job sequence numbers are global across the pipeline's stage runs, so
    // this plan duplicates replies in several different stages.
    let backend = loopback(FaultPlan {
        duplicate_replies: (0..24).collect(),
        reorder_seed: Some(5),
        ..FaultPlan::none()
    });
    let batch = solve_local_lps_on(&inst, &LocalLpOptions::new(1), &backend).unwrap();
    assert_eq!(batch.local_x, reference.local_x);
    assert_eq!(batch.class_of_ball, reference.class_of_ball);
    assert_eq!(solution_bits(&batch), solution_bits(&reference));
}

#[test]
fn killed_worker_is_retried_to_an_identical_result() {
    let inst = workload();
    let reference = reference(&inst);
    let backend =
        loopback(FaultPlan { die_after_replies: Some(2), ..FaultPlan::none() }).with_max_retries(1);
    let batch = solve_local_lps_on(&inst, &LocalLpOptions::new(1), &backend).unwrap();
    assert_eq!(batch.local_x, reference.local_x);
    assert_eq!(batch.class_keys, reference.class_keys);
    assert_eq!(solution_bits(&batch), solution_bits(&reference));
}

#[test]
fn death_past_the_retry_budget_is_a_typed_error() {
    let inst = workload();
    let backend =
        loopback(FaultPlan { die_after_replies: Some(1), ..FaultPlan::none() }).with_max_retries(0);
    match solve_local_lps_on(&inst, &LocalLpOptions::new(1), &backend) {
        Err(EngineError::Transport(TransportError::RetriesExhausted { .. })) => {}
        other => panic!("expected exhausted retries, got {other:?}"),
    }
}

/// A small deterministic delta over the workload: one consumption and one
/// benefit weight rescaled, topology untouched.
fn small_delta(inst: &MaxMinInstance, version: u64) -> InstanceDelta {
    let (i, a) = inst.agent(AgentId::new(7)).resources[0];
    let (k, c) = inst.agent(AgentId::new(19)).parties[0];
    InstanceDelta {
        base_version: version,
        edits: vec![
            WeightEdit { kind: WeightKind::Consumption, row: i.index(), agent: 7, weight: a * 1.5 },
            WeightEdit { kind: WeightKind::Benefit, row: k.index(), agent: 19, weight: c * 0.75 },
        ],
    }
}

#[test]
fn killed_worker_mid_delta_is_retried_to_an_identical_result() {
    // A worker dies *after* its delta-stage context was installed; the
    // respawned replacement starts with a clean link, so the retry must
    // re-ship the registered base + delta context before re-running the job.
    let inst = workload();
    let options = LocalLpOptions::new(1);
    let base = register_base(&inst, &options, 4).unwrap();
    let delta = small_delta(&inst, 4);
    let reference = solve_local_lps(&delta.apply(&inst).unwrap(), &options).unwrap();
    let backend =
        loopback(FaultPlan { die_after_replies: Some(2), ..FaultPlan::none() }).with_max_retries(1);
    let run = solve_local_lps_incremental_on(&base, &delta, &backend).unwrap();
    assert_eq!(run.batch.local_x, reference.local_x);
    assert_eq!(run.batch.balls, reference.balls);
    assert_eq!(run.batch.class_of_ball, reference.class_of_ball);
    assert_eq!(run.batch.class_keys, reference.class_keys);
    assert_eq!(solution_bits(&run.batch), solution_bits(&reference));
}

#[test]
fn delta_death_past_the_retry_budget_is_a_typed_error() {
    let inst = workload();
    let base = register_base(&inst, &LocalLpOptions::new(1), 4).unwrap();
    let delta = small_delta(&inst, 4);
    let backend =
        loopback(FaultPlan { die_after_replies: Some(1), ..FaultPlan::none() }).with_max_retries(0);
    match solve_local_lps_incremental_on(&base, &delta, &backend) {
        Err(EngineError::Transport(TransportError::RetriesExhausted { .. })) => {}
        other => panic!("expected exhausted retries, got {other:?}"),
    }
}

#[test]
fn truncated_reply_is_a_typed_error() {
    let inst = workload();
    let backend = loopback(FaultPlan { truncate_replies: vec![1], ..FaultPlan::none() });
    match solve_local_lps_on(&inst, &LocalLpOptions::new(1), &backend) {
        Err(EngineError::Transport(TransportError::Wire(WireError::Truncated { .. }))) => {}
        other => panic!("expected a truncation error, got {other:?}"),
    }
}

#[test]
fn corrupted_reply_is_a_typed_checksum_error() {
    let inst = workload();
    let backend = loopback(FaultPlan { corrupt_replies: vec![2], ..FaultPlan::none() });
    match solve_local_lps_on(&inst, &LocalLpOptions::new(1), &backend) {
        Err(EngineError::Transport(TransportError::Wire(WireError::ChecksumMismatch {
            ..
        }))) => {}
        other => panic!("expected a checksum error, got {other:?}"),
    }
}

#[test]
fn unknown_stage_is_a_typed_worker_error() {
    // A worker whose registry lacks the engine stages reports every job as
    // failed; the driver surfaces it as a typed error instead of hanging.
    use maxmin_local_lp::prelude::StageRegistry;
    let inst = workload();
    let empty = std::sync::Arc::new(StageRegistry::new());
    let backend = LoopbackBackend::new(empty, 2);
    match solve_local_lps_on(&inst, &LocalLpOptions::new(1), &backend) {
        Err(EngineError::Transport(TransportError::Worker { message, .. })) => {
            assert!(message.contains("mmlp/present@2"), "unexpected message: {message}");
        }
        other => panic!("expected a worker error, got {other:?}"),
    }
}

/// A stage that claims a retired engine stage id.
struct RetiredStage(&'static str);

impl WireStage for RetiredStage {
    type Output = ();

    fn stage_id(&self) -> &'static str {
        self.0
    }

    fn encode_context(&self, _out: &mut Vec<u8>) {}

    fn encode_job(&self, _shard: &Shard, _out: &mut Vec<u8>) {}

    fn decode_reply(&self, _shard: &Shard, _payload: &[u8]) -> Result<(), TransportError> {
        Ok(())
    }

    fn run_local(&self, _shard: &Shard) {}
}

#[test]
fn a_worker_asked_for_a_retired_engine_stage_answers_unknown_stage() {
    // The lifted canonicalise stage (quantisation moved into the present
    // stage), the present payloads it superseded, the two-round-trip delta
    // stage the fused present-and-canonicalise one replaced, and the two
    // stages whose reply forms still carried the canonical LP beside its
    // key.
    for id in [
        "mmlp/present-lifted@1",
        "mmlp/present@1",
        "mmlp/present-delta@1",
        "mmlp/present-delta@2",
        "mmlp/present-delta@3",
        "mmlp/canonicalise@1",
    ] {
        let expect_unknown =
            |label: &str, result: Result<StageRun<()>, TransportError>| match result {
                Err(TransportError::Worker { message, .. }) => assert!(
                    message.contains(&format!("does not know stage `{id}`")),
                    "{label}: {message}"
                ),
                other => panic!("{label}: expected an unknown-stage worker error, got {other:?}"),
            };
        let loopback = LoopbackBackend::new(engine_registry(), 2);
        expect_unknown("loopback", loopback.execute_stage(4, &RetiredStage(id)));
        // The real worker binary (loopback where the sandbox cannot spawn).
        let subprocess = SubprocessBackend::new(2, engine_registry());
        expect_unknown("subprocess", subprocess.execute_stage(4, &RetiredStage(id)));
    }
}

#[test]
fn an_aborted_run_leaves_the_same_pooled_backend_usable() {
    // A fault aborts one run mid-stage, leaving unconsumed (and duplicated)
    // replies queued on the pooled links.  The *same* backend must serve
    // the next run correctly: job sequence numbers are globally unique per
    // pool, so the stale frames are recognised and dropped instead of
    // being mistaken for the new stage's replies.
    let inst = workload();
    let reference = reference(&inst);
    let backend = loopback(FaultPlan {
        truncate_replies: vec![1],
        duplicate_replies: vec![0, 2, 3],
        ..FaultPlan::none()
    });
    match solve_local_lps_on(&inst, &LocalLpOptions::new(1), &backend) {
        Err(EngineError::Transport(TransportError::Wire(WireError::Truncated { .. }))) => {}
        other => panic!("expected the truncation abort, got {other:?}"),
    }
    let batch = solve_local_lps_on(&inst, &LocalLpOptions::new(1), &backend).unwrap();
    assert_eq!(batch.local_x, reference.local_x);
    assert_eq!(batch.class_of_ball, reference.class_of_ball);
    assert_eq!(solution_bits(&batch), solution_bits(&reference));
}

// ---------------------------------------------------------------------------
// The distributed simulator under injected faults.  Its wire tier
// (`mmlp/sim-epoch@1`) keeps node state on the workers between rounds and
// ships inter-round message batches as shard replies, so duplicated or
// reordered batches must be dropped by the driver's ordered merge, and a
// killed worker loses state: recovery comes from the checkpoint/restore
// protocol — the driver restores the newest snapshot into the respawned
// worker and replays the buffered job frames since that epoch.  Every case
// runs in both driver modes.
// ---------------------------------------------------------------------------

const MODES: [DriverMode; 2] = [DriverMode::Lockstep, DriverMode::Overlapped];

fn gather_setup(inst: &MaxMinInstance, radius: usize) -> (Network, GatherProgram) {
    let (h, _) = communication_hypergraph(inst);
    (Network::from_hypergraph(&h), GatherProgram::new(inst, radius))
}

#[test]
fn duplicated_inter_round_message_batch_is_dropped_by_the_ordered_merge() {
    // Every reply of a simulator round carries one shard's inter-round
    // message batch.  Duplicating (and reordering) those batches must be
    // absorbed by the by-sequence merge: each batch is applied exactly
    // once, so views, message counts and round counts all stay identical.
    let inst = workload();
    let (network, program) = gather_setup(&inst, 2);
    let simulator = Simulator::sequential();
    let reference = simulator.run(&network, &program).unwrap();
    let backend = loopback(FaultPlan {
        duplicate_replies: (0..60).collect(),
        reorder_seed: Some(13),
        ..FaultPlan::none()
    });
    let wired = simulator.run_wire_on(&network, &program, &backend).unwrap();
    assert_eq!(wired.outputs, reference.outputs);
    assert_eq!(wired.messages, reference.messages);
    assert_eq!(wired.rounds, reference.rounds);
    assert_eq!(wired.messages_per_round, reference.messages_per_round);
}

#[test]
fn killed_worker_mid_simulation_is_respawned_to_an_identical_result() {
    // The default simulator's cadence: the kill lands before the first
    // checkpoint, so the respawned worker is rebuilt by replaying the
    // buffered jobs from round 0.
    let inst = workload();
    let (network, program) = gather_setup(&inst, 2);
    let simulator = Simulator::sequential();
    let reference = simulator.run(&network, &program).unwrap();
    let backend =
        loopback(FaultPlan { die_after_replies: Some(2), ..FaultPlan::none() }).with_max_retries(1);
    let wired = simulator.run_wire_on(&network, &program, &backend).unwrap();
    assert_eq!(wired.outputs, reference.outputs);
    assert_eq!(wired.messages, reference.messages);
}

#[test]
fn truncated_round_batch_aborts_the_simulation_with_a_typed_error() {
    let inst = workload();
    let (network, program) = gather_setup(&inst, 2);
    let backend = loopback(FaultPlan { truncate_replies: vec![1], ..FaultPlan::none() });
    match Simulator::sequential().run_wire_on(&network, &program, &backend) {
        Err(SimError::Transport(TransportError::Wire(WireError::Truncated { .. }))) => {}
        other => panic!("expected a truncation error, got {other:?}"),
    }
}

#[test]
fn simulation_death_past_the_retry_budget_is_a_typed_error() {
    let inst = workload();
    let (network, program) = gather_setup(&inst, 2);
    let backend =
        loopback(FaultPlan { die_after_replies: Some(1), ..FaultPlan::none() }).with_max_retries(0);
    match Simulator::sequential().run_wire_on(&network, &program, &backend) {
        Err(SimError::Transport(TransportError::RetriesExhausted { .. })) => {}
        other => panic!("expected exhausted retries, got {other:?}"),
    }
}

fn epoch_simulator(checkpoint_every: usize) -> Simulator {
    Simulator::with_config(SimulatorConfig {
        parallel: ParallelConfig::sequential(),
        checkpoint: CheckpointPolicy::every(checkpoint_every),
        ..SimulatorConfig::default()
    })
}

#[test]
fn epoch_kill_at_round_k_recovers_bit_identically_at_every_checkpoint_phase() {
    // Sweeping the scripted death over every produced frame × checkpoint
    // cadence covers all three recovery phases on a real workload:
    //
    // * **pre-first-checkpoint** (death before any snapshot): the replay
    //   buffer reaches back to round 0, whose job re-initialises the shard;
    // * **mid-interval** (death between snapshots): restore the newest
    //   snapshot, replay the rounds since;
    // * **mid-snapshot** (death lands on the `Checkpoint` frame itself): the
    //   snapshot is lost with the queue, so the driver restores the
    //   *previous* epoch and the replayed job re-emits the snapshot.
    let inst = workload();
    let (network, program) = gather_setup(&inst, 2);
    let reference = Simulator::sequential().run(&network, &program).unwrap();
    for mode in MODES {
        for every in [0usize, 1, 2] {
            for die in 1..=8usize {
                let label = format!("{mode:?} every={every} die={die}");
                let backend =
                    loopback(FaultPlan { die_after_replies: Some(die), ..FaultPlan::none() })
                        .with_mode(mode)
                        .with_max_retries(1);
                let run = epoch_simulator(every).run_wire_on(&network, &program, &backend).unwrap();
                assert_eq!(run.outputs, reference.outputs, "{label}");
                assert_eq!(run.messages, reference.messages, "{label}");
                assert_eq!(run.rounds, reference.rounds, "{label}");
                assert_eq!(run.messages_per_round, reference.messages_per_round, "{label}");
                assert_eq!(run.halting_round, reference.halting_round, "{label}");
            }
        }
    }
}

#[test]
fn epoch_duplicated_and_reordered_frames_are_absorbed() {
    // Duplicated reply *and* checkpoint frames (they share the job's
    // sequence number) plus scripted reordering must be dropped by the
    // driver's merge and the recovery log's idempotent snapshot recording.
    let inst = workload();
    let (network, program) = gather_setup(&inst, 2);
    let reference = Simulator::sequential().run(&network, &program).unwrap();
    for mode in MODES {
        let backend = loopback(FaultPlan {
            duplicate_replies: (0..60).collect(),
            reorder_seed: Some(29),
            ..FaultPlan::none()
        })
        .with_mode(mode);
        let run = epoch_simulator(2).run_wire_on(&network, &program, &backend).unwrap();
        assert_eq!(run.outputs, reference.outputs, "{mode:?}");
        assert_eq!(run.messages, reference.messages, "{mode:?}");
        assert_eq!(run.rounds, reference.rounds, "{mode:?}");
        assert_eq!(run.messages_per_round, reference.messages_per_round, "{mode:?}");
    }
}

#[test]
fn epoch_death_past_the_retry_budget_is_a_typed_error() {
    // With a zero respawn budget the restore protocol never gets to run:
    // the death must surface as a typed error, not a hang or a wrong
    // answer.
    let inst = workload();
    let (network, program) = gather_setup(&inst, 2);
    for mode in MODES {
        let backend = loopback(FaultPlan { die_after_replies: Some(1), ..FaultPlan::none() })
            .with_mode(mode)
            .with_max_retries(0);
        match epoch_simulator(2).run_wire_on(&network, &program, &backend) {
            Err(SimError::Transport(TransportError::RetriesExhausted { .. })) => {}
            other => panic!("{mode:?}: expected exhausted retries, got {other:?}"),
        }
    }
}

#[test]
fn epoch_truncated_frame_is_a_typed_error() {
    let inst = workload();
    let (network, program) = gather_setup(&inst, 2);
    for mode in MODES {
        let backend =
            loopback(FaultPlan { truncate_replies: vec![1], ..FaultPlan::none() }).with_mode(mode);
        match epoch_simulator(2).run_wire_on(&network, &program, &backend) {
            Err(SimError::Transport(TransportError::Wire(WireError::Truncated { .. }))) => {}
            other => panic!("{mode:?}: expected a truncation error, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// The real process boundary.
// ---------------------------------------------------------------------------

/// Whether this environment can spawn the worker binary at all; tests that
/// need the real boundary skip (with a log line) where it cannot.
fn subprocess_available() -> bool {
    match probe_worker(&WorkerCommand::auto()) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("skipping subprocess assertions: {e}");
            false
        }
    }
}

#[test]
fn subprocess_backend_is_bit_identical_end_to_end() {
    if !subprocess_available() {
        return;
    }
    let inst = workload();
    let reference = reference(&inst);
    for overlapped in [false, true] {
        let batch = solve_local_lps(
            &inst,
            &LocalLpOptions::new(1)
                .with_backend(BackendKind::Subprocess { workers: 2, overlapped }),
        )
        .unwrap();
        assert_eq!(batch.local_x, reference.local_x, "overlapped={overlapped}");
        assert_eq!(batch.class_of_ball, reference.class_of_ball);
        assert_eq!(batch.class_keys, reference.class_keys);
        assert_eq!(solution_bits(&batch), solution_bits(&reference), "overlapped={overlapped}");
    }
}

#[test]
fn spawning_a_missing_worker_binary_is_a_typed_error() {
    match probe_worker(&WorkerCommand::Path("/nonexistent/mmlp-worker-binary".into())) {
        Err(TransportError::SpawnFailed { .. }) => {}
        other => panic!("expected spawn failure, got {other:?}"),
    }
}

#[test]
fn a_non_protocol_binary_fails_the_handshake() {
    if !subprocess_available() {
        return;
    }
    // (`/bin/cat` would echo the Hello frame back verbatim and pass, which
    // is fair — it *does* speak the protocol's handshake.  `true` exits
    // immediately instead: the handshake must observe the death, not hang.)
    for candidate in ["/bin/true", "/usr/bin/true"] {
        if !std::path::Path::new(candidate).is_file() {
            continue;
        }
        match probe_worker(&WorkerCommand::Path(candidate.into())) {
            Err(TransportError::HandshakeFailed { .. }) => return,
            other => panic!("expected handshake failure from {candidate}, got {other:?}"),
        }
    }
    eprintln!("skipping: no `true` binary found");
}

#[test]
fn unavailable_subprocess_falls_back_to_loopback_with_identical_results() {
    // A backend whose worker command cannot spawn must log a skip and serve
    // through the loopback transport — correct results, no error.
    let inst = workload();
    let reference = reference(&inst);
    let backend = SubprocessBackend::new(2, engine_registry())
        .with_command(WorkerCommand::Path("/nonexistent/mmlp-worker-binary".into()));
    assert!(!backend.subprocess_available());
    let batch = solve_local_lps_on(&inst, &LocalLpOptions::new(1), &backend).unwrap();
    assert_eq!(batch.local_x, reference.local_x);
    assert_eq!(batch.class_of_ball, reference.class_of_ball);
    assert_eq!(solution_bits(&batch), solution_bits(&reference));
}
