//! Conformance suite for the batched local-LP engine.
//!
//! For every instance generator in `mmlp-instances` (grid, hypertree,
//! bipartite, random, sensor, isp) and seeds 0..4, the three execution paths
//! of each algorithm must produce **bit-identical** `Solution`s:
//!
//! * the batched engine (dedup + scatter),
//! * the naive centralised reference path (one independent solve per agent),
//! * the view-based per-agent rules (the honest distributed form).
//!
//! Local averaging is checked at `R ∈ {1, 2}`; the safe algorithm at its
//! horizon 1.  "Bit-identical" is `assert_eq!` on the solution vectors — no
//! tolerances anywhere in this file.

use maxmin_local_lp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One small instance per generator for the given seed.  Sizes are kept
/// small because the view-based path solves `O(n · |ball|)` local LPs.
fn generator_instances(seed: u64) -> Vec<(&'static str, MaxMinInstance)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let grid = grid_instance(
        &GridConfig {
            side_lengths: vec![3, 3 + usize::try_from(seed).unwrap() % 2],
            torus: seed % 2 == 0,
            random_weights: seed % 3 == 0,
        },
        &mut rng,
    );
    let hypertree = hypertree_instance(2, 2, 2 + usize::try_from(seed).unwrap() % 2);
    let bipartite =
        graph_instance(&circulant_bipartite(3 + usize::try_from(seed).unwrap() % 2, &[0, 1, 2]));
    let random = random_instance(
        &RandomInstanceConfig {
            num_agents: 10,
            num_resources: 12,
            num_parties: 7,
            max_resource_support: 3,
            max_party_support: 3,
            zero_one_coefficients: seed % 2 == 1,
        },
        &mut rng,
    );
    let sensor = sensor_network_instance(
        &SensorNetworkConfig {
            num_sensors: 10,
            num_relays: 4,
            num_areas: 4,
            radio_range: 0.4,
            ..Default::default()
        },
        &mut rng,
    )
    .instance;
    let isp = isp_instance(
        &IspConfig {
            num_customers: 5,
            num_routers: 3,
            routers_per_customer: 2,
            heterogeneous: true,
            ..Default::default()
        },
        &mut rng,
    );
    vec![
        ("grid", grid),
        ("hypertree", hypertree),
        ("bipartite", bipartite),
        ("random", random),
        ("sensor", sensor),
        ("isp", isp),
    ]
}

#[test]
fn safe_algorithm_paths_are_bit_identical() {
    for seed in 0..5u64 {
        for (name, inst) in generator_instances(seed) {
            assert!(inst.num_agents() > 0, "{name}/{seed} generated an empty instance");
            let central = safe_algorithm(&inst);
            let view_based = apply_rule_direct(
                &inst,
                SAFE_HORIZON,
                &ParallelConfig::default(),
                safe_activity_from_view,
            );
            assert_eq!(central, view_based, "safe algorithm on {name}, seed {seed}");
        }
    }
}

#[test]
fn local_averaging_paths_are_bit_identical() {
    for seed in 0..5u64 {
        for (name, inst) in generator_instances(seed) {
            for radius in [1usize, 2] {
                let batched = local_averaging(&inst, &LocalAveragingOptions::new(radius)).unwrap();
                let naive = local_averaging(&inst, &LocalAveragingOptions::naive(radius)).unwrap();
                assert_eq!(
                    batched.solution, naive.solution,
                    "batched vs naive on {name}, seed {seed}, R={radius}"
                );
                assert_eq!(batched.beta, naive.beta);
                assert_eq!(batched.guaranteed_ratio, naive.guaranteed_ratio);
                // The dedup bookkeeping must be consistent with what ran.
                assert!(batched.stats.unique_classes <= batched.stats.balls_enumerated);
                assert!(batched.stats.lp_solves <= naive.stats.lp_solves);
                assert_eq!(naive.stats.cache_hits, 0);

                let simplex = SimplexOptions::default();
                let view_based =
                    apply_rule_direct(&inst, 2 * radius + 1, &ParallelConfig::default(), |view| {
                        local_averaging_activity_from_view(view, radius, &simplex)
                    });
                assert_eq!(
                    batched.solution, view_based,
                    "batched vs view-based on {name}, seed {seed}, R={radius}"
                );
            }
        }
    }
}

/// The present stage builds every distinct presentation at least once and
/// at most once per shard that meets it.
fn assert_lps_built_bounds(label: &str, stats: &SolveStats) {
    let present_shards = stats.stage_shards[0].shards.len();
    assert!(
        stats.lps_built >= stats.distinct_presentations
            && stats.lps_built <= stats.distinct_presentations * present_shards,
        "{label}: {} LPs built for {} presentations over {present_shards} shards",
        stats.lps_built,
        stats.distinct_presentations
    );
}

/// The class solutions of a batch as bit patterns, for exact comparison.
fn solution_bits(batch: &LocalLpBatch) -> Vec<Vec<u64>> {
    batch
        .class_solutions
        .iter()
        .map(|x| x.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// The full execution matrix of the engine: batched (the reference), naive
/// per-agent, every backend at ≥2 shard counts — including the loopback
/// transport (full wire format in memory), the subprocess backend (real
/// worker processes) and the overlapped driver — and re-solves from a full
/// and a partial solution memo: all bit-identical (solutions, classes,
/// class keys and class solutions), with identical class and dedup counts,
/// on every generator, seed and radius.
#[test]
fn backends_shard_counts_and_memo_re_solves_are_bit_identical() {
    // One pooled subprocess backend per dispatch mode for the whole matrix
    // (workers persist across runs).  Where the sandbox cannot spawn
    // processes, the capability probe falls back to the loopback transport
    // with a logged skip — the bit-identity assertions hold either way.
    let subprocess_lockstep = SubprocessBackend::new(2, engine_registry()).lockstep();
    let subprocess_overlapped = SubprocessBackend::new(2, engine_registry());
    for seed in 0..5u64 {
        for (name, inst) in generator_instances(seed) {
            for radius in [1usize, 2] {
                let reference = solve_local_lps(&inst, &LocalLpOptions::new(radius)).unwrap();

                let naive = solve_local_lps(
                    &inst,
                    &LocalLpOptions {
                        mode: SolveMode::NaivePerAgent,
                        ..LocalLpOptions::new(radius)
                    },
                )
                .unwrap();
                assert_eq!(
                    reference.local_x, naive.local_x,
                    "batched vs naive on {name}, seed {seed}, R={radius}"
                );
                assert_eq!(solution_bits(&reference), solution_bits(&naive));

                for backend in [
                    BackendKind::Sequential,
                    BackendKind::ScopedThreads,
                    BackendKind::Sharded { shards: 2 },
                    BackendKind::Sharded { shards: 5 },
                    BackendKind::Loopback { shards: 2 },
                    BackendKind::Loopback { shards: 5 },
                ] {
                    let sharded =
                        solve_local_lps(&inst, &LocalLpOptions::new(radius).with_backend(backend))
                            .unwrap();
                    assert_eq!(
                        reference.local_x, sharded.local_x,
                        "{backend:?} on {name}, seed {seed}, R={radius}"
                    );
                    assert_eq!(reference.balls, sharded.balls);
                    assert_eq!(reference.class_of_ball, sharded.class_of_ball);
                    assert_eq!(reference.class_keys, sharded.class_keys);
                    assert_eq!(solution_bits(&reference), solution_bits(&sharded));
                    assert_eq!(
                        reference.stats.distinct_presentations,
                        sharded.stats.distinct_presentations
                    );
                    assert_eq!(reference.stats.unique_classes, sharded.stats.unique_classes);
                    assert_eq!(reference.stats.cache_hits, sharded.stats.cache_hits);
                    assert_lps_built_bounds(&format!("{backend:?} on {name}"), &sharded.stats);
                    if backend == BackendKind::Sequential {
                        assert_eq!(
                            sharded.stats.lps_built, sharded.stats.distinct_presentations,
                            "one shard builds each presentation once on {name}"
                        );
                    }
                }

                for (label, backend) in [
                    ("subprocess-lockstep", &subprocess_lockstep),
                    ("subprocess-overlapped", &subprocess_overlapped),
                ] {
                    let remote =
                        solve_local_lps_on(&inst, &LocalLpOptions::new(radius), backend).unwrap();
                    assert_eq!(
                        reference.local_x, remote.local_x,
                        "{label} on {name}, seed {seed}, R={radius}"
                    );
                    assert_eq!(reference.balls, remote.balls);
                    assert_eq!(reference.class_of_ball, remote.class_of_ball);
                    assert_eq!(reference.class_keys, remote.class_keys);
                    assert_eq!(
                        solution_bits(&reference),
                        solution_bits(&remote),
                        "{label} class solutions on {name}, seed {seed}, R={radius}"
                    );
                    assert_eq!(
                        reference.stats.distinct_presentations,
                        remote.stats.distinct_presentations
                    );
                    assert_eq!(reference.stats.unique_classes, remote.stats.unique_classes);
                    assert_eq!(reference.stats.cache_hits, remote.stats.cache_hits);
                    assert_lps_built_bounds(&format!("{label} on {name}"), &remote.stats);
                }

                // A full memo answers every class host-side; a partial one
                // (every other class) ships only the misses, here through
                // the wire format.
                let simplex = SimplexOptions::default();
                let full = reference.solution_memo(&simplex);
                let mut partial = ClassSolutionMemo::new();
                for (key, x) in
                    reference.class_keys.iter().zip(&reference.class_solutions).step_by(2)
                {
                    partial.install(key.clone(), &simplex, x.clone());
                }
                for (label, memo, backend) in [
                    ("full memo", &full, BackendKind::Sharded { shards: 2 }),
                    ("partial memo", &partial, BackendKind::Loopback { shards: 2 }),
                ] {
                    let reused = solve_local_lps_reusing(
                        &inst,
                        &LocalLpOptions::new(radius).with_backend(backend),
                        memo,
                    )
                    .unwrap();
                    assert_eq!(
                        reference.local_x, reused.local_x,
                        "{label} on {name}, seed {seed}, R={radius}"
                    );
                    assert_eq!(reference.class_of_ball, reused.class_of_ball);
                    assert_eq!(reference.class_keys, reused.class_keys);
                    assert_eq!(solution_bits(&reference), solution_bits(&reused));
                    assert_eq!(reused.stats.memo_hits, memo.len(), "{label} on {name}");
                    assert!(
                        reused.stats.lp_solves
                            <= reused.stats.unique_classes - reused.stats.memo_hits,
                        "{label} on {name}: only misses reach the simplex"
                    );
                }
            }
        }
    }
}

/// The acceptance criterion for the solution memo: on the 50×50 workload a
/// re-solve from the cold batch's memo does no simplex work at all — no
/// solve, no pivot, no installation — and returns the cold batch bit for
/// bit.
#[test]
fn grid_50x50_memo_re_solve_does_zero_simplex_work() {
    let inst = grid_instance(
        &GridConfig { side_lengths: vec![50, 50], torus: false, random_weights: false },
        &mut StdRng::seed_from_u64(0),
    );
    let options = LocalLpOptions::new(2);
    let cold = solve_local_lps(&inst, &options).unwrap();
    let reused =
        solve_local_lps_reusing(&inst, &options, &cold.solution_memo(&options.simplex)).unwrap();

    assert_eq!(cold.local_x, reused.local_x);
    assert_eq!(cold.class_of_ball, reused.class_of_ball);
    assert_eq!(cold.class_keys, reused.class_keys);
    assert_eq!(solution_bits(&cold), solution_bits(&reused));
    assert!(cold.stats.total_pivots > 0);
    assert_eq!(reused.stats.lp_solves, 0);
    assert_eq!(reused.stats.total_pivots, 0, "an unchanged instance re-solves pivot-free");
    assert_eq!(reused.stats.total_installs, 0);
    assert_eq!(reused.stats.memo_hits, reused.stats.unique_classes);
}

/// The acceptance target of the batched engine: on a 50×50 grid at `R = 2`
/// the dedup stage must cut the number of simplex solves by at least 10×
/// relative to the number of agents (it actually achieves ~100×: every
/// interior agent shares one ball class).
#[test]
fn grid_50x50_radius_2_dedups_simplex_solves_by_10x() {
    let inst = grid_instance(
        &GridConfig { side_lengths: vec![50, 50], torus: false, random_weights: false },
        &mut StdRng::seed_from_u64(0),
    );
    let result = local_averaging(&inst, &LocalAveragingOptions::new(2)).unwrap();
    let stats = &result.stats;
    assert_eq!(stats.balls_enumerated, 2500);
    assert!(
        stats.lp_solves * 10 <= stats.balls_enumerated,
        "expected ≥10× fewer solves than agents, got {} solves for {} agents",
        stats.lp_solves,
        stats.balls_enumerated
    );
    assert!(stats.unique_classes * 10 <= stats.balls_enumerated);
    assert!(stats.cache_hit_rate() >= 0.9);
    assert!(inst.is_feasible(&result.solution, 1e-7));
}
