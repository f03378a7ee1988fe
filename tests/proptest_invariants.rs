//! Property-based tests over randomly generated instances and LPs.
//!
//! These check the invariants the paper's proofs rely on, on arbitrary
//! (bounded) random inputs rather than hand-picked examples:
//!
//! * the simplex solver returns feasible, optimal-or-better-than-reference
//!   solutions;
//! * the safe algorithm is always feasible and meets its `Δ_I^V` guarantee;
//! * the local averaging algorithm is always feasible and meets both its
//!   a-posteriori guarantee and the `γ(R−1)·γ(R)` bound;
//! * hypergraph balls are monotone and growth is at least 1;
//! * solution scaling preserves feasibility;
//! * the batched local-LP engine's canonical keys are invariant under
//!   agent-ID permutation, dedup never changes the solution (let alone the
//!   objective), and its statistics are internally consistent;
//! * the transport wire format: encode→decode is the identity for arbitrary
//!   frames and engine payloads, single-byte corruption of a frame is
//!   always detected (CRC-32), and decoding arbitrary byte noise returns a
//!   typed error — no panic, no hang, no silently wrong frame.

use maxmin_local_lp::algorithms::transport::{
    put_canonical_form, put_instance, put_instance_delta, read_canonical_form, read_instance,
    read_instance_delta,
};
use maxmin_local_lp::parallel::wire::{decode_frame, encode_frame, ByteReader, Frame, FrameKind};
use maxmin_local_lp::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A strategy producing small random-instance configurations.
fn instance_config() -> impl Strategy<Value = (RandomInstanceConfig, u64)> {
    (4usize..20, 4usize..24, 1usize..12, 1usize..5, 1usize..5, any::<bool>(), any::<u64>())
        .prop_map(|(agents, resources, parties, max_ri, max_pi, zero_one, seed)| {
            (
                RandomInstanceConfig {
                    num_agents: agents,
                    num_resources: resources,
                    num_parties: parties,
                    max_resource_support: max_ri,
                    max_party_support: max_pi,
                    zero_one_coefficients: zero_one,
                },
                seed,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimum_is_feasible_and_dominates_safe((cfg, seed) in instance_config()) {
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let opt = solve_maxmin(&inst).unwrap();
        prop_assert!(inst.is_feasible(&opt.solution, 1e-6));
        let safe = safe_algorithm(&inst);
        let safe_obj = inst.objective(&safe).unwrap();
        prop_assert!(opt.objective >= safe_obj - 1e-6);
    }

    #[test]
    fn safe_algorithm_is_feasible_and_meets_its_guarantee((cfg, seed) in instance_config()) {
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let safe = safe_algorithm(&inst);
        prop_assert!(inst.is_feasible(&safe, 1e-9));
        let opt = solve_maxmin(&inst).unwrap().objective;
        let guarantee = inst.degree_bounds().safe_algorithm_ratio();
        prop_assert!(opt <= guarantee * inst.objective(&safe).unwrap() + 1e-6);
    }

    #[test]
    fn scaling_down_preserves_feasibility((cfg, seed) in instance_config(), factor in 0.0f64..1.0) {
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let opt = solve_maxmin(&inst).unwrap();
        let scaled = opt.solution.scaled(factor);
        prop_assert!(inst.is_feasible(&scaled, 1e-6));
        // The objective scales linearly.
        let obj = inst.objective(&scaled).unwrap();
        prop_assert!((obj - factor * opt.objective).abs() < 1e-6);
    }

    #[test]
    fn local_averaging_is_feasible_and_within_its_bounds((cfg, seed) in instance_config()) {
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let result = local_averaging(&inst, &LocalAveragingOptions::sequential(1)).unwrap();
        prop_assert!(inst.is_feasible(&result.solution, 1e-6));
        let opt = solve_maxmin(&inst).unwrap().objective;
        let achieved = inst.objective(&result.solution).unwrap();
        if achieved > 1e-12 {
            prop_assert!(opt / achieved <= result.guaranteed_ratio + 1e-5);
        }
        // The a-posteriori guarantee never beats the γ bound of Theorem 3.
        let (h, _) = communication_hypergraph(&inst);
        let profile = growth_profile(&h, 1);
        prop_assert!(result.guaranteed_ratio <= profile.gamma[0] * profile.gamma[1] + 1e-9);
    }

    #[test]
    fn hypergraph_balls_are_monotone_and_growth_at_least_one((cfg, seed) in instance_config()) {
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let (h, _) = communication_hypergraph(&inst);
        for v in 0..h.num_nodes() {
            let sizes = h.ball_sizes(v, 4);
            for w in sizes.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            prop_assert_eq!(sizes[0], 1);
        }
        let profile = growth_profile(&h, 3);
        for g in &profile.gamma {
            prop_assert!(*g >= 1.0);
        }
    }

    #[test]
    fn gathered_views_equal_direct_views((cfg, seed) in instance_config(), radius in 0usize..3) {
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let direct = views_direct(&inst, radius, &ParallelConfig::sequential());
        let gathered = gather_views(&inst, radius, &Simulator::sequential()).unwrap();
        prop_assert_eq!(direct, gathered.outputs);
    }

    #[test]
    fn uniform_baseline_is_always_feasible((cfg, seed) in instance_config()) {
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let x = uniform_baseline(&inst);
        prop_assert!(inst.is_feasible(&x, 1e-9));
    }

    #[test]
    fn canonical_keys_are_invariant_under_agent_permutation((cfg, seed) in instance_config()) {
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let base = canonical_form(&inst);
        let mut perm: Vec<usize> = (0..inst.num_agents()).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5eed));
        let permuted = inst.permute_agents(&perm);
        let form = canonical_form(&permuted);
        prop_assert_eq!(&base.key, &form.key);
        // The canonical *instances* are bit-identical too — this is what
        // makes dedup pure memoisation in the batched engine.
        prop_assert_eq!(&base.instance, &form.instance);
    }

    #[test]
    fn dedup_never_changes_the_solution_or_objective((cfg, seed) in instance_config()) {
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let batched = local_averaging(&inst, &LocalAveragingOptions::new(1)).unwrap();
        let naive = local_averaging(&inst, &LocalAveragingOptions::naive(1)).unwrap();
        prop_assert_eq!(&batched.solution, &naive.solution);
        let batched_objective = inst.objective(&batched.solution).unwrap();
        let naive_objective = inst.objective(&naive.solution).unwrap();
        prop_assert_eq!(batched_objective, naive_objective);
    }

    #[test]
    fn solve_stats_are_internally_consistent((cfg, seed) in instance_config(), radius in 1usize..3) {
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let batch = solve_local_lps(&inst, &LocalLpOptions::new(radius)).unwrap();
        let stats = &batch.stats;
        prop_assert_eq!(stats.balls_enumerated, inst.num_agents());
        prop_assert!(stats.unique_classes <= stats.balls_enumerated);
        prop_assert!(stats.unique_classes <= stats.distinct_presentations);
        prop_assert!(stats.distinct_presentations <= stats.balls_enumerated);
        prop_assert!(stats.lp_solves <= stats.unique_classes);
        prop_assert_eq!(stats.cache_hits, stats.balls_enumerated - stats.unique_classes);
        prop_assert!(stats.unique_classes >= 1);
        prop_assert_eq!(batch.class_solutions.len(), stats.unique_classes);
        prop_assert_eq!(stats.memo_hits, 0);
        prop_assert_eq!(stats.quasi_classes, stats.unique_classes);
        prop_assert_eq!(stats.max_class_slack.to_bits(), 0.0f64.to_bits());
        prop_assert!(stats.dedup_ratio() >= 1.0);
        for (u, ball) in batch.balls.iter().enumerate() {
            prop_assert!(batch.class_of_ball[u] < stats.unique_classes);
            prop_assert_eq!(batch.local_x[u].len(), ball.len());
        }
    }

    #[test]
    fn lifted_at_epsilon_zero_is_the_batched_engine((cfg, seed) in instance_config(), radius in 1usize..3) {
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let batched = solve_local_lps(&inst, &LocalLpOptions::new(radius)).unwrap();
        let lifted = solve_local_lps(
            &inst,
            &LocalLpOptions {
                mode: SolveMode::Lifted { epsilon: 0.0 },
                ..LocalLpOptions::new(radius)
            },
        )
        .unwrap();
        // Bit-identical across the board — `assert_eq!`, no tolerances.
        prop_assert_eq!(&lifted.local_x, &batched.local_x);
        prop_assert_eq!(&lifted.class_of_ball, &batched.class_of_ball);
        prop_assert_eq!(&lifted.class_keys, &batched.class_keys);
        prop_assert_eq!(&lifted.ball_objectives, &batched.ball_objectives);
        prop_assert_eq!(&lifted.intervals, &batched.intervals);
        prop_assert_eq!(lifted.stats.unique_classes, batched.stats.unique_classes);
        prop_assert_eq!(lifted.stats.quasi_classes, batched.stats.quasi_classes);
    }

    #[test]
    fn lifted_certificates_bracket_the_exact_ball_optima(
        (cfg, seed) in instance_config(),
        epsilon in 0.0f64..0.6,
    ) {
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let exact = solve_local_lps(&inst, &LocalLpOptions::new(1)).unwrap();
        let lifted = solve_local_lps(
            &inst,
            &LocalLpOptions { mode: SolveMode::Lifted { epsilon }, ..LocalLpOptions::new(1) },
        )
        .unwrap();
        let stats = &lifted.stats;
        // Quantisation can only merge classes, never split them, and the
        // measured slack never exceeds the grid coarseness it came from.
        prop_assert!(stats.quasi_classes <= exact.stats.unique_classes);
        prop_assert!(stats.max_class_slack >= 0.0);
        prop_assert!(stats.max_class_slack <= epsilon + 1e-12);
        for u in 0..inst.num_agents() {
            prop_assert!(
                lifted.intervals[u].contains(exact.ball_objectives[u], 1e-7),
                "agent {}: exact {} outside {:?}",
                u,
                exact.ball_objectives[u],
                lifted.intervals[u]
            );
            prop_assert!(lifted.intervals[u].contains(lifted.ball_objectives[u], 0.0));
        }
    }
}

/// An arbitrary (wire-valid) instance delta derived from a seed: finite
/// positive weights, arbitrary rows/agents — structural validation against a
/// base instance is the engine's job, not the codec's.
fn arbitrary_delta(seed: u64, len: usize) -> InstanceDelta {
    let mut rng = StdRng::seed_from_u64(seed);
    let edits = (0..len)
        .map(|_| WeightEdit {
            kind: if rng.gen() { WeightKind::Consumption } else { WeightKind::Benefit },
            row: rng.gen_range(0usize..10_000),
            agent: rng.gen_range(0usize..10_000),
            weight: rng.gen_range(1e-9f64..1e9),
        })
        .collect();
    InstanceDelta { base_version: rng.gen(), edits }
}

/// An arbitrary frame derived from a seed (kind, sequence number, payload).
fn arbitrary_frame(seed: u64, payload_len: usize) -> Frame {
    let mut rng = StdRng::seed_from_u64(seed);
    let kind = match rng.gen_range(0usize..6) {
        0 => FrameKind::Hello,
        1 => FrameKind::Context,
        2 => FrameKind::Job,
        3 => FrameKind::Reply,
        4 => FrameKind::WorkerError,
        _ => FrameKind::Shutdown,
    };
    let payload: Vec<u8> = (0..payload_len).map(|_| rng.gen_range(0u64..256) as u8).collect();
    Frame { kind, seq: rng.gen(), payload }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn frame_encode_decode_is_identity(seed in any::<u64>(), len in 0usize..300) {
        let frame = arbitrary_frame(seed, len);
        let bytes = encode_frame(&frame).expect("within-cap payloads encode");
        let (decoded, consumed) = decode_frame(&bytes).expect("own encoding must decode");
        prop_assert_eq!(decoded, frame);
        prop_assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn decoding_byte_noise_errors_without_panicking(seed in any::<u64>(), len in 0usize..300) {
        // Arbitrary bytes are rejected with a typed error: the magic,
        // version, bounded length and CRC-32 all have to hold at once.
        // (If noise ever *did* pass every check, it would have to be a real
        // frame — asserted by re-encoding.)
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6e015e);
        let noise: Vec<u8> = (0..len).map(|_| rng.gen_range(0u64..256) as u8).collect();
        match decode_frame(&noise) {
            Err(_) => {}
            Ok((frame, consumed)) => {
                let reencoded = encode_frame(&frame).expect("a decoded frame re-encodes");
                prop_assert_eq!(reencoded.as_slice(), &noise[..consumed]);
            }
        }
    }

    #[test]
    fn single_byte_corruption_is_always_detected(
        seed in any::<u64>(),
        len in 0usize..200,
        flip in any::<u64>(),
        xor in 1u64..256,
    ) {
        let frame = arbitrary_frame(seed, len);
        let mut bytes = encode_frame(&frame).expect("within-cap payloads encode");
        let idx = (flip % bytes.len() as u64) as usize;
        bytes[idx] ^= xor as u8;
        // CRC-32 detects every burst error of at most 32 bits, so a single
        // corrupted byte can never yield Ok with the original content.
        match decode_frame(&bytes) {
            Err(_) => {}
            Ok((decoded, _)) => prop_assert!(
                false,
                "flip at byte {} went undetected (decoded {:?})",
                idx,
                decoded.kind
            ),
        }
    }

    #[test]
    fn instance_wire_codec_is_identity((cfg, seed) in instance_config()) {
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let mut bytes = Vec::new();
        put_instance(&mut bytes, &inst);
        let mut reader = ByteReader::new(&bytes);
        let decoded = read_instance(&mut reader).expect("own encoding must decode");
        prop_assert!(reader.is_empty());
        // Bit-identical reconstruction — the property the cross-process
        // conformance guarantee rests on.
        prop_assert_eq!(decoded, inst);
    }

    #[test]
    fn canonical_form_wire_codec_is_identity((cfg, seed) in instance_config()) {
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let form = canonical_form(&inst);
        let mut bytes = Vec::new();
        put_canonical_form(&mut bytes, &form);
        let decoded = read_canonical_form(&mut ByteReader::new(&bytes))
            .expect("own encoding must decode");
        prop_assert_eq!(&decoded.key, &form.key);
        prop_assert_eq!(&decoded.labelling, &form.labelling);
        prop_assert_eq!(&decoded.instance, &form.instance);
    }

    #[test]
    fn instance_delta_wire_codec_is_identity(seed in any::<u64>(), len in 0usize..40) {
        let delta = arbitrary_delta(seed, len);
        let mut bytes = Vec::new();
        put_instance_delta(&mut bytes, &delta);
        let mut r = ByteReader::new(&bytes);
        let decoded = read_instance_delta(&mut r, None).expect("own encoding must decode");
        prop_assert!(r.is_empty());
        // Bit-identical reconstruction, weights included — the property the
        // incremental conformance guarantee rests on.
        prop_assert_eq!(decoded, delta);
    }

    #[test]
    fn instance_delta_version_gate_is_typed(
        seed in any::<u64>(),
        len in 0usize..10,
        skew in 1u64..1000,
    ) {
        let delta = arbitrary_delta(seed, len);
        let mut bytes = Vec::new();
        put_instance_delta(&mut bytes, &delta);
        // Pinning the right version accepts; any other version is the typed
        // mismatch (re-register, don't re-send), never a generic decode error.
        let pinned = read_instance_delta(&mut ByteReader::new(&bytes), Some(delta.base_version));
        prop_assert_eq!(pinned.expect("matching version must decode"), delta.clone());
        let expected = delta.base_version.wrapping_add(skew);
        match read_instance_delta(&mut ByteReader::new(&bytes), Some(expected)) {
            Err(WireError::BaseVersionMismatch { expected: e, found }) => {
                prop_assert_eq!(e, expected);
                prop_assert_eq!(found, delta.base_version);
            }
            other => prop_assert!(false, "expected the typed mismatch, got {:?}", other),
        }
    }

    #[test]
    fn instance_delta_decoder_survives_truncation_and_noise(
        seed in any::<u64>(),
        len in 0usize..20,
        noise_len in 0usize..400,
    ) {
        let delta = arbitrary_delta(seed, len);
        let mut bytes = Vec::new();
        put_instance_delta(&mut bytes, &delta);
        // Every strict prefix is rejected with a typed error, no panic.
        for cut in 0..bytes.len() {
            prop_assert!(read_instance_delta(&mut ByteReader::new(&bytes[..cut]), None).is_err());
        }
        // Arbitrary byte noise: any outcome but a panic; a successful decode
        // must re-encode to a prefix of the noise.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xde17a);
        let noise: Vec<u8> = (0..noise_len).map(|_| rng.gen_range(0u64..256) as u8).collect();
        if let Ok(decoded) = read_instance_delta(&mut ByteReader::new(&noise), None) {
            let mut reencoded = Vec::new();
            put_instance_delta(&mut reencoded, &decoded);
            prop_assert_eq!(reencoded.as_slice(), &noise[..reencoded.len()]);
        }
    }

    #[test]
    fn payload_decoders_never_panic_on_noise(seed in any::<u64>(), len in 0usize..400) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdec0de);
        let noise: Vec<u8> = (0..len).map(|_| rng.gen_range(0u64..256) as u8).collect();
        // Any outcome but a panic is acceptable; a (vanishingly unlikely)
        // successful decode must at least be internally consistent.
        if let Ok(inst) = read_instance(&mut ByteReader::new(&noise)) {
            let mut reencoded = Vec::new();
            put_instance(&mut reencoded, &inst);
            prop_assert!(reencoded.len() <= noise.len());
        }
        let _ = read_canonical_form(&mut ByteReader::new(&noise));
        let _ = read_instance_delta(&mut ByteReader::new(&noise), None);
        let _ = read_instance_delta(&mut ByteReader::new(&noise), Some(seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---- The simulator's message/state codecs (the `mmlp/sim-round@1`
    // payloads): identity round-trips, frame-level byte-flip detection and
    // noise rejection, mirroring the engine payload properties above. ----

    #[test]
    fn gather_knowledge_and_message_codecs_are_identity((cfg, seed) in instance_config()) {
        use maxmin_local_lp::distsim::gather::{put_knowledge, read_knowledge};
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let program = GatherProgram::new(&inst, 1);
        let records: Vec<_> = inst
            .agent_ids()
            .map(|v| maxmin_local_lp::distsim::LocalKnowledge::of_agent(&inst, v))
            .collect();
        for record in &records {
            let mut bytes = Vec::new();
            put_knowledge(&mut bytes, record);
            let mut r = ByteReader::new(&bytes);
            let decoded = read_knowledge(&mut r).expect("own encoding must decode");
            prop_assert!(r.is_empty());
            prop_assert_eq!(&decoded, record);
        }
        let message = GatherMessage { records };
        let mut bytes = Vec::new();
        WireProgram::encode_message(&program, &message, &mut bytes);
        let decoded = WireProgram::decode_message(&program, &mut ByteReader::new(&bytes))
            .expect("own encoding must decode");
        prop_assert_eq!(decoded, message);
    }

    #[test]
    fn gather_state_and_view_codecs_are_identity(
        (cfg, seed) in instance_config(),
        radius in 0usize..3,
    ) {
        use maxmin_local_lp::distsim::gather::{put_local_view, read_local_view};
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let (h, _) = communication_hypergraph(&inst);
        let network = Network::from_hypergraph(&h);
        let program = GatherProgram::new(&inst, radius);
        for node in 0..inst.num_agents().min(4) {
            let state = program.init(node, &network);
            let mut bytes = Vec::new();
            program.encode_state(&state, &mut bytes);
            let mut r = ByteReader::new(&bytes);
            let decoded = program.decode_state(&mut r).expect("own encoding must decode");
            prop_assert!(r.is_empty());
            // GatherState has no PartialEq; compare through the encoding.
            let mut reencoded = Vec::new();
            program.encode_state(&decoded, &mut reencoded);
            prop_assert_eq!(reencoded, bytes);

            let view = LocalView::from_instance(&inst, &h, AgentId::new(node), radius);
            let mut bytes = Vec::new();
            put_local_view(&mut bytes, &view);
            let decoded = read_local_view(&mut ByteReader::new(&bytes))
                .expect("own encoding must decode");
            prop_assert_eq!(decoded, view);
        }
    }

    #[test]
    fn network_codec_is_identity_and_rejects_noise((cfg, seed) in instance_config()) {
        use maxmin_local_lp::distsim::{put_network, read_network};
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let (h, _) = communication_hypergraph(&inst);
        let network = Network::from_hypergraph(&h);
        let mut bytes = Vec::new();
        put_network(&mut bytes, &network);
        let mut r = ByteReader::new(&bytes);
        let decoded = read_network(&mut r).expect("own encoding must decode");
        prop_assert!(r.is_empty());
        prop_assert_eq!(decoded, network);
        // Truncations at every prefix: typed error, no panic.
        for cut in 0..bytes.len().min(64) {
            prop_assert!(read_network(&mut ByteReader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn sim_round_payload_flips_inside_a_frame_are_always_detected(
        (cfg, seed) in instance_config(),
        flip in any::<u64>(),
        xor in 1u64..256,
    ) {
        // Inter-round message batches travel as frame payloads; the frame
        // CRC is what guarantees a corrupted batch is rejected rather than
        // silently mis-delivered (payload codecs alone cannot detect a flip
        // inside a coefficient's bit pattern).
        let inst = random_instance(&cfg, &mut StdRng::seed_from_u64(seed));
        let program = GatherProgram::new(&inst, 1);
        let records: Vec<_> = inst
            .agent_ids()
            .map(|v| maxmin_local_lp::distsim::LocalKnowledge::of_agent(&inst, v))
            .collect();
        let mut payload = Vec::new();
        WireProgram::encode_message(&program, &GatherMessage { records }, &mut payload);
        let frame = Frame { kind: FrameKind::Reply, seq: seed, payload };
        let mut bytes = encode_frame(&frame).expect("within-cap payloads encode");
        let idx = (flip % bytes.len() as u64) as usize;
        bytes[idx] ^= xor as u8;
        prop_assert!(decode_frame(&bytes).is_err(), "flip at byte {} went undetected", idx);
    }

    #[test]
    fn sim_round_decoders_never_panic_on_noise(seed in any::<u64>(), len in 0usize..400) {
        use maxmin_local_lp::distsim::gather::{read_knowledge, read_local_view};
        use maxmin_local_lp::distsim::read_network;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51b407);
        let noise: Vec<u8> = (0..len).map(|_| rng.gen_range(0u64..256) as u8).collect();
        // Any outcome but a panic is acceptable.
        let _ = read_network(&mut ByteReader::new(&noise));
        let _ = read_knowledge(&mut ByteReader::new(&noise));
        let _ = read_local_view(&mut ByteReader::new(&noise));
        let _ = GatherProgram::decode_config(&mut ByteReader::new(&noise));
        if let Ok(program) = GatherProgram::decode_config(&mut ByteReader::new(&noise)) {
            let _ = program.decode_state(&mut ByteReader::new(&noise));
            let _ = WireProgram::decode_message(&program, &mut ByteReader::new(&noise));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The simplex solver against a reference point: on packing LPs
    /// (max Σ x subject to random row constraints) the optimum dominates the
    /// uniform feasible point and is itself feasible.
    #[test]
    fn simplex_on_random_packing_lps(
        num_vars in 1usize..8,
        num_constraints in 1usize..8,
        seed in any::<u64>(),
    ) {
        use maxmin_local_lp::lp::{solve, LpConstraint, LpProblem, LpStatus, ObjectiveSense};
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = LpProblem::new(num_vars, ObjectiveSense::Maximize);
        for j in 0..num_vars {
            p.set_objective(j, rng.gen_range(0.1..2.0));
        }
        let mut row_sums = vec![0.0f64; num_constraints];
        for (row, sum) in row_sums.iter_mut().enumerate() {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            for j in 0..num_vars {
                if rng.gen_bool(0.6) {
                    coeffs.push((j, rng.gen_range(0.1..1.5)));
                }
            }
            *sum = coeffs.iter().map(|(_, a)| a).sum();
            p.add_constraint(LpConstraint::le(coeffs, 1.0));
            let _ = row;
        }
        let sol = solve(&p).unwrap();
        match sol.status {
            LpStatus::Optimal => {
                prop_assert!(p.is_feasible(&sol.x, 1e-6));
                // Reference point: x_j = t with t = min_i 1/Σ_j a_ij (or 1 if no
                // constraint binds), always feasible.
                let t = row_sums
                    .iter()
                    .filter(|s| **s > 0.0)
                    .map(|s| 1.0 / s)
                    .fold(1.0f64, f64::min);
                let reference = vec![t; num_vars];
                prop_assert!(p.is_feasible(&reference, 1e-9));
                prop_assert!(sol.objective >= p.objective_value(&reference) - 1e-6);
            }
            LpStatus::Unbounded => {
                // Possible when some variable appears in no constraint.
                let some_unconstrained_variable = (0..num_vars).any(|j| {
                    p.constraints.iter().all(|c| c.coeffs.iter().all(|(v, _)| *v != j))
                });
                prop_assert!(some_unconstrained_variable);
            }
            LpStatus::Infeasible => prop_assert!(false, "packing LPs are always feasible"),
        }
    }
}
