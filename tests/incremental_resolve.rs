//! Conformance suite for the incremental re-solve path.
//!
//! The contract under test: re-solving a registered base under a weight
//! delta returns solutions, balls, class numbering, class keys and class
//! solutions **bit-identical** to a cold solve of the patched instance —
//! across every backend, shard count and churn rate — while touching only
//! the balls the delta can affect.

use maxmin_local_lp::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn workload() -> MaxMinInstance {
    grid_instance(
        &GridConfig { side_lengths: vec![6, 7], torus: false, random_weights: true },
        &mut StdRng::seed_from_u64(23),
    )
}

/// A churn delta over existing entries only: `count` distinct agents, one
/// incident weight each rescaled by a factor in `[0.8, 1.25]`.
fn churn_delta(inst: &MaxMinInstance, count: usize, version: u64, seed: u64) -> InstanceDelta {
    let n = inst.num_agents();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < count.min(n) {
        chosen.insert(rng.gen_range(0..n));
    }
    let edits = chosen
        .into_iter()
        .map(|v| {
            let agent = inst.agent(AgentId::new(v));
            let factor = rng.gen_range(0.8..1.25);
            if (rng.gen::<bool>() || agent.parties.is_empty()) && !agent.resources.is_empty() {
                let (i, a) = agent.resources[rng.gen_range(0..agent.resources.len())];
                WeightEdit {
                    kind: WeightKind::Consumption,
                    row: i.index(),
                    agent: v,
                    weight: a * factor,
                }
            } else {
                let (k, c) = agent.parties[rng.gen_range(0..agent.parties.len())];
                WeightEdit {
                    kind: WeightKind::Benefit,
                    row: k.index(),
                    agent: v,
                    weight: c * factor,
                }
            }
        })
        .collect();
    InstanceDelta { base_version: version, edits }
}

fn assert_matches_cold(run: &IncrementalRun, cold: &LocalLpBatch, label: &str) {
    assert_eq!(run.batch.local_x, cold.local_x, "{label}: solutions diverged");
    assert_eq!(run.batch.balls, cold.balls, "{label}: balls diverged");
    assert_eq!(run.batch.class_of_ball, cold.class_of_ball, "{label}: classes diverged");
    assert_eq!(run.batch.class_keys, cold.class_keys, "{label}: class keys diverged");
    let bits = |b: &LocalLpBatch| -> Vec<Vec<u64>> {
        b.class_solutions
            .iter()
            .map(|x| x.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(&run.batch), bits(cold), "{label}: class solutions diverged");
}

#[test]
fn incremental_matches_cold_across_churn_rates() {
    let inst = workload();
    let options = LocalLpOptions::new(1);
    let base = register_base(&inst, &options, 1).unwrap();
    for (step, count) in [0usize, 1, 4, 12, inst.num_agents()].into_iter().enumerate() {
        let delta = churn_delta(&inst, count, 1, 100 + step as u64);
        let run = solve_local_lps_incremental(&base, &delta).unwrap();
        let cold = solve_local_lps(&delta.apply(&inst).unwrap(), &options).unwrap();
        assert_matches_cold(&run, &cold, &format!("churn {count}"));
        assert!(run.affected_agents <= inst.num_agents());
        // The re-presented set never exceeds the union of balls around the
        // changed agents, and the wire bytes vanish with the churn.
        if count == 0 {
            assert_eq!(run.resolve_wire_bytes, 0);
        } else {
            assert!(run.resolve_wire_bytes > 0);
        }
    }
}

#[test]
fn churned_re_solve_hit_rate_stays_within_the_unit_interval() {
    // Hits are counted over the re-presented balls only, like the cold path
    // counts them over all balls: never more hits than balls.
    let inst = workload();
    let options = LocalLpOptions::new(1);
    let base = register_base(&inst, &options, 1).unwrap();
    for (step, count) in [1usize, 4, 12].into_iter().enumerate() {
        let delta = churn_delta(&inst, count, 1, 600 + step as u64);
        let run = solve_local_lps_incremental(&base, &delta).unwrap();
        let s = &run.batch.stats;
        assert_eq!(s.balls_enumerated, run.affected_agents, "churn {count}");
        assert!(s.cache_hits <= s.balls_enumerated, "churn {count}: {s:?}");
        let rate = s.cache_hit_rate();
        assert!((0.0..=1.0).contains(&rate), "churn {count}: hit rate {rate}");
        assert!(s.memo_hits + s.lp_solves <= s.unique_classes, "churn {count}");
    }
}

#[test]
fn incremental_matches_cold_at_radius_two() {
    let inst = workload();
    let options = LocalLpOptions::new(2);
    let base = register_base(&inst, &options, 1).unwrap();
    let delta = churn_delta(&inst, 3, 1, 7);
    let run = solve_local_lps_incremental(&base, &delta).unwrap();
    let cold = solve_local_lps(&delta.apply(&inst).unwrap(), &options).unwrap();
    assert_matches_cold(&run, &cold, "radius 2");
    // Radius 2 balls are wider, so more agents are affected than at radius 1.
    assert!(run.affected_agents > run.changed_agents);
}

#[test]
fn incremental_is_backend_independent() {
    let inst = workload();
    let delta = churn_delta(&inst, 5, 1, 31);
    let sequential = {
        let base = register_base(&inst, &LocalLpOptions::new(1), 1).unwrap();
        solve_local_lps_incremental(&base, &delta).unwrap()
    };
    let cold = solve_local_lps(&delta.apply(&inst).unwrap(), &LocalLpOptions::new(1)).unwrap();
    assert_matches_cold(&sequential, &cold, "sequential");
    for backend in [
        BackendKind::ScopedThreads,
        BackendKind::Sharded { shards: 3 },
        BackendKind::Loopback { shards: 4 },
    ] {
        let options = LocalLpOptions::new(1).with_backend(backend);
        let base = register_base(&inst, &options, 1).unwrap();
        let run = solve_local_lps_incremental(&base, &delta).unwrap();
        assert_matches_cold(&run, &cold, &format!("{backend:?}"));
        assert_eq!(
            run.resolve_wire_bytes, sequential.resolve_wire_bytes,
            "{backend:?}: wire accounting must not depend on the backend"
        );
    }
}

#[test]
fn incremental_through_the_subprocess_boundary() {
    if let Err(e) = probe_worker(&WorkerCommand::auto()) {
        eprintln!("skipping subprocess assertions: {e}");
        return;
    }
    let inst = workload();
    let delta = churn_delta(&inst, 5, 1, 47);
    let cold = solve_local_lps(&delta.apply(&inst).unwrap(), &LocalLpOptions::new(1)).unwrap();
    for overlapped in [false, true] {
        let options =
            LocalLpOptions::new(1).with_backend(BackendKind::Subprocess { workers: 2, overlapped });
        let base = register_base(&inst, &options, 1).unwrap();
        let run = solve_local_lps_incremental(&base, &delta).unwrap();
        assert_matches_cold(&run, &cold, &format!("subprocess overlapped={overlapped}"));
    }
}

#[test]
fn repeated_deltas_against_one_registration() {
    // Many re-solves against one registered base: each is independent (the
    // base is immutable), and each must match its own cold solve.
    let inst = workload();
    let options = LocalLpOptions::new(1);
    let base = register_base(&inst, &options, 3).unwrap();
    for seed in 0..4u64 {
        let delta = churn_delta(&inst, 3, 3, 900 + seed);
        let run = solve_local_lps_incremental(&base, &delta).unwrap();
        let cold = solve_local_lps(&delta.apply(&inst).unwrap(), &options).unwrap();
        assert_matches_cold(&run, &cold, &format!("delta {seed}"));
    }
}

#[test]
fn version_mismatch_and_bad_edits_are_typed_errors() {
    let inst = workload();
    let base = register_base(&inst, &LocalLpOptions::new(1), 5).unwrap();
    let mut delta = churn_delta(&inst, 2, 5, 1);
    delta.base_version = 6;
    match solve_local_lps_incremental(&base, &delta) {
        Err(EngineError::Delta(DeltaError::VersionMismatch { expected: 5, found: 6 })) => {}
        other => panic!("expected the typed version mismatch, got {other:?}"),
    }
    let out_of_topology = InstanceDelta {
        base_version: 5,
        edits: vec![WeightEdit {
            kind: WeightKind::Benefit,
            row: inst.num_parties(),
            agent: 0,
            weight: 1.0,
        }],
    };
    match solve_local_lps_incremental(&base, &out_of_topology) {
        Err(EngineError::Delta(DeltaError::UnknownEntry { .. })) => {}
        other => panic!("expected the typed unknown-entry error, got {other:?}"),
    }
    let bad_weight = InstanceDelta {
        base_version: 5,
        edits: vec![WeightEdit {
            kind: WeightKind::Consumption,
            row: 0,
            agent: inst.resource(ResourceId::new(0)).agents[0].0.index(),
            weight: f64::NAN,
        }],
    };
    match solve_local_lps_incremental(&base, &bad_weight) {
        Err(EngineError::Delta(DeltaError::BadWeight { .. })) => {}
        other => panic!("expected the typed bad-weight error, got {other:?}"),
    }
}

#[test]
fn incremental_requests_ride_the_solve_service() {
    // submit_incremental shares one Arc'd registration across requests on
    // the service's executors; every ticket's batch must match its cold
    // solve.
    use std::sync::Arc;
    let inst = workload();
    let options = LocalLpOptions::new(1);
    let base = Arc::new(register_base(&inst, &options, 1).unwrap());
    let service = EngineService::new(ServiceConfig { workers: 2, queue_capacity: 8 });
    let deltas: Vec<InstanceDelta> = (0..4).map(|s| churn_delta(&inst, 2, 1, 500 + s)).collect();
    let tickets: Vec<_> = deltas
        .iter()
        .enumerate()
        .map(|(t, delta)| {
            service
                .submit_incremental(t as u64 + 1, Arc::clone(&base), delta.clone())
                .expect("admission")
        })
        .collect();
    for (ticket, delta) in tickets.into_iter().zip(&deltas) {
        let run = ticket.wait().expect("completed").expect("re-solve succeeded");
        let cold = solve_local_lps(&delta.apply(&inst).unwrap(), &options).unwrap();
        assert_matches_cold(&run, &cold, "service ticket");
    }
}

/// The agents a delta re-presents: those whose ball holds a changed agent.
fn affected_agents(base: &RegisteredBase, delta: &InstanceDelta) -> Vec<bool> {
    let changed = delta.changed_agents();
    base.batch()
        .balls
        .iter()
        .map(|ball| ball.iter().any(|v| changed.contains(v)))
        .collect()
}

/// What the first-occurrence rule predicts from a cold solve of the patched
/// instance: `(memo hits, cold class solves)`.  A class is re-solved only
/// when its first ball is affected — from the base's stored solution when
/// the base has its key, cold otherwise.
fn expected_class_work(
    base: &RegisteredBase,
    cold: &LocalLpBatch,
    affected: &[bool],
) -> (usize, usize) {
    let mut first_ball = vec![usize::MAX; cold.class_keys.len()];
    for (u, &c) in cold.class_of_ball.iter().enumerate().rev() {
        first_ball[c] = u;
    }
    let fresh = first_ball.iter().enumerate().filter(|&(_, &u)| affected[u]);
    let (hits, solves): (Vec<_>, Vec<_>) =
        fresh.partition(|&(c, _)| base.batch().class_keys.contains(&cold.class_keys[c]));
    (hits.len(), solves.len())
}

#[test]
fn a_no_op_edit_re_solves_to_the_base_from_its_stored_solutions() {
    // Weights set to their current values: every affected ball presents as
    // before, so the batch is the base's and no class reaches the simplex.
    let inst = workload();
    let base = register_base(&inst, &LocalLpOptions::new(1), 1).unwrap();
    let (i, a) = inst.agent(AgentId::new(9)).resources[0];
    let (k, c) = inst.agent(AgentId::new(30)).parties[0];
    let delta = InstanceDelta {
        base_version: 1,
        edits: vec![
            WeightEdit { kind: WeightKind::Consumption, row: i.index(), agent: 9, weight: a },
            WeightEdit { kind: WeightKind::Benefit, row: k.index(), agent: 30, weight: c },
        ],
    };
    let run = solve_local_lps_incremental(&base, &delta).unwrap();
    assert!(run.affected_agents > 0);
    let expected = base.batch();
    assert_matches_cold(&run, expected, "no-op edit");
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&run.batch.ball_objectives), bits(&expected.ball_objectives));
    assert_eq!(run.batch.intervals, expected.intervals);
    let s = &run.batch.stats;
    assert_eq!((s.lp_solves, s.total_pivots), (0, 0));
    // Every fresh class — one whose first ball was re-presented — was a
    // memo hit, so no ball's job reached the solve.
    assert_eq!(s.cache_hits, s.balls_enumerated);
    let affected = affected_agents(&base, &delta);
    assert_eq!(expected_class_work(&base, expected, &affected), (s.memo_hits, 0));
    assert!(s.memo_hits > 0);
}

#[test]
fn fresh_keys_equal_to_unaffected_classes_number_like_a_cold_solve() {
    // A unit-weight grid has few classes, each shared by many balls.  The
    // no-op edit at corner agent 0 re-presents the first corner ball, whose
    // class recurs at unaffected corners with *higher* ids; the no-op edit
    // at interior agent 55 re-presents balls whose class first occurs at an
    // unaffected ball with a *lower* id; the real edit at agent 77 creates
    // classes the base lacks.
    let inst = grid_instance(
        &GridConfig { side_lengths: vec![10, 10], torus: false, random_weights: false },
        &mut StdRng::seed_from_u64(1),
    );
    let options = LocalLpOptions::new(1);
    let base = register_base(&inst, &options, 1).unwrap();
    let edit = |v: usize, weight: f64| {
        let (i, _) = inst.agent(AgentId::new(v)).resources[0];
        WeightEdit { kind: WeightKind::Consumption, row: i.index(), agent: v, weight }
    };
    let delta =
        InstanceDelta { base_version: 1, edits: vec![edit(0, 1.0), edit(55, 1.0), edit(77, 2.0)] };
    let run = solve_local_lps_incremental(&base, &delta).unwrap();
    let cold = solve_local_lps(&delta.apply(&inst).unwrap(), &options).unwrap();
    assert_matches_cold(&run, &cold, "unit grid");

    // Both orders occur: an affected ball joining a class an unaffected
    // ball opened earlier, and an affected ball opening a class that an
    // unaffected ball joins later.
    let affected = affected_agents(&base, &delta);
    let unaffected_in = |c: usize, ids: std::ops::Range<usize>| {
        ids.into_iter().any(|w| !affected[w] && cold.class_of_ball[w] == c)
    };
    let n = inst.num_agents();
    let lower = (0..n).any(|u| affected[u] && unaffected_in(cold.class_of_ball[u], 0..u));
    let higher = (0..n).any(|u| {
        let c = cold.class_of_ball[u];
        affected[u] && cold.class_of_ball[..u].iter().all(|&d| d != c) && unaffected_in(c, u + 1..n)
    });
    assert!(lower && higher, "lower {lower}, higher {higher}");

    let s = &run.batch.stats;
    let (hits, solves) = expected_class_work(&base, &cold, &affected);
    assert_eq!(s.memo_hits, hits);
    assert_eq!(s.balls_enumerated - s.cache_hits, solves);
    assert!(hits > 0 && solves > 0, "hits {hits}, solves {solves}");
}

#[test]
fn one_delta_does_the_same_work_in_one_round_trip_on_every_backend() {
    let inst = workload();
    let delta = churn_delta(&inst, 5, 1, 77);
    let mut backends = vec![BackendKind::Sequential, BackendKind::Loopback { shards: 4 }];
    match probe_worker(&WorkerCommand::auto()) {
        Ok(()) => backends.push(BackendKind::Subprocess { workers: 2, overlapped: true }),
        Err(e) => eprintln!("skipping the subprocess backend: {e}"),
    }
    let mut work = Vec::new();
    for backend in backends {
        let base = register_base(&inst, &LocalLpOptions::new(1).with_backend(backend), 1).unwrap();
        let run = solve_local_lps_incremental(&base, &delta).unwrap();
        let s = &run.batch.stats;
        // Present and canonicalise share one stage; solve and scatter run
        // host-side.
        assert_eq!(s.stage_shards.len(), 1, "{backend:?}: {:?}", s.stage_shards);
        assert_eq!(s.stage_shards[0].stage, "mmlp/present-delta@4");
        assert_eq!(s.timings.canonicalise, std::time::Duration::ZERO);
        work.push((s.memo_hits, s.lp_solves, s.total_pivots, run.resolve_wire_bytes));
    }
    assert!(work[0].1 > 0, "the delta must reach the simplex: {work:?}");
    assert!(work.iter().all(|w| *w == work[0]), "{work:?}");
}
