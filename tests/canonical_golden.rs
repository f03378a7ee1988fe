//! Golden canonical fingerprints.
//!
//! The conformance suites assert that every backend, shard count and mode
//! agrees with every other — but a change to colour refinement or the
//! individualisation search that altered canonical keys, labellings or the
//! canonical LPs *the same way everywhere* would pass all of them, and
//! would silently change which LP the simplex sees (and so, on degenerate
//! balls, which optimum is scattered).  This suite pins one 64-bit FNV-1a
//! fingerprint per input over
//!
//! * the engine's class keys (in class order) and each ball's class, and
//! * for every ball `B_H(u, R)`, built independently with
//!   [`MaxMinInstance::restrict_to_agents`]: the canonical key, the
//!   canonical labelling and every coefficient bit of the canonical LP.
//!
//! A changed constant means canonical forms changed; that is never a
//! refactoring detail.
//!
//! A second set of constants pins what the simplex makes of those canonical
//! LPs: every ball's canonical LP solved with [`solve_maxmin_with`] under
//! default options, folding the bits of `x` and the pivot count.  The
//! solver's pricing and pivoting may be restructured, but only with the same
//! float operations in the same order, so these constants never move either.
//!
//! A third set pins what the lifted mode hands its callers on weight-jittered
//! instances: every ball's scattered activity vector, certified interval and
//! class objective, the class map and the largest measured slack.  Where in
//! the pipeline the coefficients are quantised is an implementation detail;
//! these outputs are not.
//!
//! Last, the transport ships a canonical form as its key words and
//! labelling only; a final test checks that the key-only codec rebuilds
//! every class's canonical LP of these inputs exactly.

use maxmin_local_lp::algorithms::transport::{put_canonical_form, read_canonical_form};
use maxmin_local_lp::parallel::wire::ByteReader;
use maxmin_local_lp::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }
}

/// Folds one canonical LP's coefficient bits, resource by resource then
/// party by party, each member as `(canonical agent, coefficient bits)`.
fn fold_lp(h: &mut Fnv, lp: &MaxMinInstance) {
    h.words([lp.num_agents() as u64, lp.num_resources() as u64, lp.num_parties() as u64]);
    for i in lp.resource_ids() {
        for &(v, a) in lp.resource(i).members() {
            h.words([v.index() as u64, a.to_bits()]);
        }
    }
    for k in lp.party_ids() {
        for &(v, c) in lp.party(k).members() {
            h.words([v.index() as u64, c.to_bits()]);
        }
    }
}

/// The fingerprint of one input: the engine's class table at `(radius, ε)`
/// plus the (quasi-)canonical form of every reference ball LP.
fn fingerprint(instance: &MaxMinInstance, radius: usize, epsilon: f64) -> u64 {
    let mut h = Fnv::new();
    let options = LocalLpOptions {
        mode: SolveMode::Lifted { epsilon },
        ..LocalLpOptions::new(radius).with_backend(BackendKind::Sequential)
    };
    let batch = solve_local_lps(instance, &options).unwrap();
    for key in &batch.class_keys {
        h.word(key.as_words().len() as u64);
        h.words(key.as_words().iter().copied());
    }
    h.words(batch.class_of_ball.iter().map(|&c| c as u64));

    let (graph, _) = communication_hypergraph(instance);
    for u in 0..instance.num_agents() {
        let ball: Vec<AgentId> = graph.ball(u, radius).into_iter().map(AgentId::new).collect();
        let (lp, _) = instance.restrict_to_agents(&ball);
        let quasi = quasi_canonical_form(&lp, epsilon);
        h.words(quasi.form.key.as_words().iter().copied());
        h.words(quasi.form.labelling.iter().map(|&c| c as u64));
        fold_lp(&mut h, &quasi.form.instance);
        h.word(quasi.slack.to_bits());
    }
    h.0
}

/// The fingerprint of what the simplex returns on every ball's canonical
/// LP: the bits of `x` and the pivot count, ball by ball.  Party-less balls
/// are skipped; the engine never hands them to the solver.
fn solution_fingerprint(instance: &MaxMinInstance, radius: usize) -> u64 {
    let mut h = Fnv::new();
    let (graph, _) = communication_hypergraph(instance);
    for u in 0..instance.num_agents() {
        let ball: Vec<AgentId> = graph.ball(u, radius).into_iter().map(AgentId::new).collect();
        let (lp, _) = instance.restrict_to_agents(&ball);
        let form = canonical_form(&lp);
        if form.instance.num_parties() == 0 {
            continue;
        }
        let opt = solve_maxmin_with(&form.instance, &SimplexOptions::default()).unwrap();
        h.word(opt.pivots as u64);
        h.words(opt.solution.activities().iter().map(|x| x.to_bits()));
    }
    h.0
}

/// The fingerprint of a lifted batch's outputs at `(radius, ε)`: the bits of
/// every ball's `local_x`, interval bounds and objective, the class of
/// every ball, and the bits of `max_class_slack`.
fn lifted_output_fingerprint(instance: &MaxMinInstance, radius: usize, epsilon: f64) -> u64 {
    let mut h = Fnv::new();
    let options = LocalLpOptions {
        mode: SolveMode::Lifted { epsilon },
        ..LocalLpOptions::new(radius).with_backend(BackendKind::Sequential)
    };
    let batch = solve_local_lps(instance, &options).unwrap();
    for x in &batch.local_x {
        h.word(x.len() as u64);
        h.words(x.iter().map(|v| v.to_bits()));
    }
    for interval in &batch.intervals {
        h.words([interval.lower.to_bits(), interval.upper.to_bits()]);
    }
    h.words(batch.ball_objectives.iter().map(|w| w.to_bits()));
    h.words(batch.class_of_ball.iter().map(|&c| c as u64));
    h.word(batch.stats.max_class_slack.to_bits());
    h.0
}

fn grid(side: usize, torus: bool) -> MaxMinInstance {
    grid_instance(
        &GridConfig { side_lengths: vec![side, side], torus, random_weights: false },
        &mut StdRng::seed_from_u64(0),
    )
}

/// The degree-skewed, weight-jittered instance of the lifted conformance
/// suite's dedup-separation test.
fn skewed_jittered() -> MaxMinInstance {
    skewed_bipartite_instance(
        &SkewedBipartiteConfig {
            num_agents: 300,
            num_resources: 100,
            num_parties: 300,
            skew: 3.5,
            weight_jitter: 0.04,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(42),
    )
}

/// The weight-jittered 20×20 torus of the lifted-mode experiment (E14).
fn jittered_torus() -> MaxMinInstance {
    let torus = grid_instance(
        &GridConfig { side_lengths: vec![20, 20], torus: true, random_weights: false },
        &mut StdRng::seed_from_u64(14),
    );
    jitter_weights(&torus, 0.04, &mut StdRng::seed_from_u64(14))
}

#[test]
fn grid_20x20_radius_2_fingerprint_is_pinned() {
    assert_eq!(fingerprint(&grid(20, false), 2, 0.0), 10207240144303296900);
}

#[test]
fn torus_radius_2_fingerprint_is_pinned() {
    assert_eq!(fingerprint(&grid(8, true), 2, 0.0), 4151132188389433057);
}

#[test]
fn skewed_jittered_fingerprints_are_pinned() {
    let inst = skewed_jittered();
    assert_eq!(fingerprint(&inst, 1, 0.0), 4563631478822894038, "ε = 0");
    assert_eq!(fingerprint(&inst, 1, 0.05), 8625398206267539032, "ε = 0.05");
}

#[test]
fn ball_lp_solution_fingerprints_are_pinned() {
    assert_eq!(
        solution_fingerprint(&grid(20, false), 2),
        10902313637019449405,
        "20×20 grid, R = 2"
    );
    assert_eq!(solution_fingerprint(&grid(8, true), 2), 3112805423732748837, "8×8 torus, R = 2");
    assert_eq!(
        solution_fingerprint(&skewed_jittered(), 1),
        13959473287104516923,
        "skewed jittered, R = 1"
    );
}

#[test]
fn lifted_output_fingerprints_are_pinned() {
    assert_eq!(
        lifted_output_fingerprint(&skewed_jittered(), 1, 0.05),
        1482788823989547568,
        "skewed jittered, R = 1, ε = 0.05"
    );
    // `jitter_weights` only raises weights, so both grids snap every torus
    // coefficient down to the grid point 1.0 and the two runs agree.
    let torus = jittered_torus();
    assert_eq!(
        lifted_output_fingerprint(&torus, 1, 0.05),
        1432043210412934461,
        "jittered torus, R = 1, ε = 0.05"
    );
    assert_eq!(
        lifted_output_fingerprint(&torus, 1, 0.2),
        1432043210412934461,
        "jittered torus, R = 1, ε = 0.2"
    );
}

#[test]
fn the_key_only_codec_rebuilds_every_golden_canonical_lp() {
    let mut rng = StdRng::seed_from_u64(23);
    let inputs = [
        ("20×20 grid, R = 2", grid(20, false), 2, 0.0),
        ("8×8 torus, R = 2", grid(8, true), 2, 0.0),
        ("skewed jittered, R = 1", skewed_jittered(), 1, 0.0),
        ("skewed jittered, R = 1, ε = 0.05", skewed_jittered(), 1, 0.05),
        ("jittered torus, R = 1, ε = 0.05", jittered_torus(), 1, 0.05),
    ];
    for (label, instance, radius, epsilon) in inputs {
        let (graph, _) = communication_hypergraph(&instance);
        let mut classes = HashSet::new();
        for u in 0..instance.num_agents() {
            let ball: Vec<AgentId> = graph.ball(u, radius).into_iter().map(AgentId::new).collect();
            let (lp, _) = instance.restrict_to_agents(&ball);
            // The form the canonicalise stage computes on the worker.
            let form = quasi_canonical_form(&lp, epsilon).form;
            if !classes.insert(form.key.clone()) {
                continue;
            }
            let mut bytes = Vec::new();
            put_canonical_form(&mut bytes, &form);
            let mut r = ByteReader::new(&bytes);
            let decoded = read_canonical_form(&mut r).unwrap();
            assert!(r.is_empty(), "{label}, ball {u}");
            assert_eq!(decoded.instance, form.instance, "{label}, ball {u}");
            assert_eq!(decoded, form, "{label}, ball {u}");
            // The first classes also face every truncation and byte noise:
            // a typed error or a valid form, never a panic.
            if classes.len() > 4 {
                continue;
            }
            for cut in 0..bytes.len() {
                assert!(read_canonical_form(&mut ByteReader::new(&bytes[..cut])).is_err());
            }
            for _ in 0..200 {
                let mut noisy = bytes.clone();
                for _ in 0..rng.gen_range(1..4) {
                    let at = rng.gen_range(0..noisy.len());
                    noisy[at] = rng.gen_range(0u64..256) as u8;
                }
                if let Ok(form) = read_canonical_form(&mut ByteReader::new(&noisy)) {
                    assert_eq!(form.labelling.len(), form.instance.num_agents());
                }
            }
        }
        assert!(!classes.is_empty(), "{label}");
    }
}
