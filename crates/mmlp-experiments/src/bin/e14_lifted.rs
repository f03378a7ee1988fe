//! Experiment E14 — the lifted (quasi-class) solve mode on irregular
//! instances.
//!
//! The batched engine's exact dedup collapses regular workloads (E7) but is
//! defeated by any weight irregularity: bit-equal canonical keys require
//! bit-equal coefficients.  The lifted mode quantises every ball-LP
//! coefficient onto the geometric grid `(1+ε)^b`, solves one representative
//! LP per *quasi*-class, and ships each agent a [`CertifiedInterval`]
//! bracketing its exact ball optimum from the measured quantisation slack.
//!
//! Three sweeps:
//!
//! 1. **ε × irregularity.**  A regular torus, a weight-jittered torus and a
//!    degree-skewed random bipartite instance, each solved exactly and at a
//!    grid of ε values: presentations, ball LPs built, simplex solves, dedup
//!    ratio, measured slack and the worst certified relative width, with the
//!    certificates audited against the exact per-ball optima on every row.
//!    The present stage quantises before its dedup, so a row never has more
//!    presentations than the exact run (asserted, also in smoke).
//! 2. **The acceptance separation.**  On the skewed + jittered instance —
//!    where exact dedup achieves ≤1.5× — the lifted mode at ε just above
//!    the jitter must cut simplex solves by ≥5× (asserted, also in smoke).
//! 3. **Backends.**  Lifted mode runs the exact pipeline's wire stages, with
//!    ε in the `mmlp/present@2` context and per-ball slacks in its reply:
//!    sequential vs loopback shards vs real subprocess workers,
//!    bit-identical intervals asserted.
//!
//! Writes `BENCH_e14_lifted.json`.  Set `MMLP_E14_SMOKE=1` for a
//! seconds-scale CI run of the same code.

use maxmin_local_lp::parallel::WORKER_BIN_ENV;
use maxmin_local_lp::prelude::*;
use mmlp_experiments::report::BenchReport;
use mmlp_experiments::{banner, fmt, print_row};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const COLS: [usize; 11] = [26, 8, 8, 8, 8, 9, 9, 10, 11, 12, 10];

fn lifted(radius: usize, epsilon: f64) -> LocalLpOptions {
    LocalLpOptions { mode: SolveMode::Lifted { epsilon }, ..LocalLpOptions::new(radius) }
}

/// The worst certified relative width `upper/lower` over the party-ful
/// balls of a batch (party-less balls certify the exact point `[0, 0]`).
fn worst_relative_width(batch: &LocalLpBatch) -> f64 {
    batch
        .intervals
        .iter()
        .map(CertifiedInterval::relative_width)
        .filter(|w| w.is_finite())
        .fold(1.0, f64::max)
}

/// Audits a lifted batch against the exact per-ball optima: every exact
/// ball optimum must lie inside its certificate.
fn audit_certificates(label: &str, run: &LocalLpBatch, exact: &LocalLpBatch) {
    for (u, interval) in run.intervals.iter().enumerate() {
        assert!(
            interval.contains(exact.ball_objectives[u], 1e-7),
            "{label}, agent {u}: exact ω* = {} outside [{}, {}]",
            exact.ball_objectives[u],
            interval.lower,
            interval.upper
        );
    }
}

fn main() {
    // Worker mode: when the subprocess backend re-executes this binary with
    // `--mmlp-worker`, serve the engine stages over stdio and exit.
    if serve_engine_worker_if_requested() {
        return;
    }
    if std::env::var_os(WORKER_BIN_ENV).is_none() {
        if let Ok(exe) = std::env::current_exe() {
            std::env::set_var(WORKER_BIN_ENV, exe);
        }
    }

    let smoke = std::env::var_os("MMLP_E14_SMOKE").is_some();
    let radius = 1usize;
    // The skewed instance is cheap (tens of milliseconds) and its ≥5×
    // separation needs the motif count, so only the torus shrinks in smoke.
    let side = if smoke { 10usize } else { 20 };
    let (agents, resources, parties) = (300usize, 100usize, 300usize);
    let jitter = 0.04f64;
    let epsilons: &[f64] = &[0.0, 0.01, 0.05, 0.2, 0.5];

    let mut report = BenchReport::new("e14_lifted", "e14_lifted");
    report.push_env(&[
        ("smoke", f64::from(u8::from(smoke))),
        ("side", side as f64),
        ("skewed_agents", agents as f64),
        ("radius", radius as f64),
        ("jitter", jitter),
    ]);

    let torus = grid_instance(
        &GridConfig { side_lengths: vec![side, side], torus: true, random_weights: false },
        &mut StdRng::seed_from_u64(14),
    );
    let jittered = jitter_weights(&torus, jitter, &mut StdRng::seed_from_u64(14));
    let skewed = skewed_bipartite_instance(
        &SkewedBipartiteConfig {
            num_agents: agents,
            num_resources: resources,
            num_parties: parties,
            skew: 3.5,
            weight_jitter: jitter,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(42),
    );

    banner(&format!("E14a: lifted dedup vs ε and irregularity (radius {radius})"));
    println!("Exact dedup needs bit-equal weights; the lifted grid buys dedup back on");
    println!("irregular instances and certifies what the quantisation may have cost.\n");
    print_row(
        &[
            "instance / ε".into(),
            "balls".into(),
            "pres".into(),
            "built".into(),
            "classes".into(),
            "solves".into(),
            "dedup".into(),
            "slack".into(),
            "width".into(),
            "wall ms".into(),
            "solve ms".into(),
        ],
        &COLS,
    );

    for (name, inst) in
        [("torus (regular)", &torus), ("torus + jitter", &jittered), ("skewed + jitter", &skewed)]
    {
        let exact = solve_local_lps(inst, &LocalLpOptions::new(radius)).unwrap();
        for &epsilon in epsilons {
            let clock = Instant::now();
            let run = solve_local_lps(inst, &lifted(radius, epsilon)).unwrap();
            let wall_ms = clock.elapsed().as_secs_f64() * 1e3;
            audit_certificates(&format!("{name}, ε={epsilon}"), &run, &exact);
            let s = &run.stats;
            // The quantised presentation key is a function of the exact one.
            assert!(
                s.distinct_presentations <= exact.stats.distinct_presentations,
                "{name}, ε={epsilon}: {} lifted presentations > {} exact",
                s.distinct_presentations,
                exact.stats.distinct_presentations
            );
            let width = worst_relative_width(&run);
            print_row(
                &[
                    format!("{name} ε={epsilon}"),
                    s.balls_enumerated.to_string(),
                    s.distinct_presentations.to_string(),
                    s.lps_built.to_string(),
                    s.quasi_classes.to_string(),
                    s.lp_solves.to_string(),
                    fmt(s.dedup_ratio(), 1),
                    fmt(s.max_class_slack, 4),
                    fmt(width, 4),
                    fmt(wall_ms, 1),
                    fmt(s.timings.solve.as_secs_f64() * 1e3, 1),
                ],
                &COLS,
            );
            report.push(
                &format!("{name}/eps_{}", (epsilon * 100.0).round() as usize),
                &[
                    ("epsilon", epsilon),
                    ("balls", s.balls_enumerated as f64),
                    ("presentations", s.distinct_presentations as f64),
                    ("lps_built", s.lps_built as f64),
                    ("quasi_classes", s.quasi_classes as f64),
                    ("solves", s.lp_solves as f64),
                    ("exact_solves", exact.stats.lp_solves as f64),
                    ("dedup_ratio", s.dedup_ratio()),
                    ("exact_dedup_ratio", exact.stats.dedup_ratio()),
                    ("max_class_slack", s.max_class_slack),
                    ("worst_relative_width", width),
                    ("wall_ms", wall_ms),
                    ("solve_ms", s.timings.solve.as_secs_f64() * 1e3),
                    ("canonicalise_ms", s.timings.canonicalise.as_secs_f64() * 1e3),
                ],
            );
            if epsilon == 0.0 {
                // ε = 0 *is* the exact engine — free cross-check on every row.
                assert_eq!(run.local_x, exact.local_x, "{name}: ε=0 must be bit-identical");
                assert_eq!(run.ball_objectives, exact.ball_objectives, "{name}");
            }
        }
    }

    banner("E14b: the acceptance separation (skewed + jitter, exact dedup <= 1.5x)");
    let exact = solve_local_lps(&skewed, &LocalLpOptions::new(radius)).unwrap();
    let run = solve_local_lps(&skewed, &lifted(radius, 0.05)).unwrap();
    audit_certificates("acceptance", &run, &exact);
    println!(
        "exact: dedup {:.2}x, {} simplex solves;  lifted ε=0.05: {} solves ({:.1}x fewer),",
        exact.stats.dedup_ratio(),
        exact.stats.lp_solves,
        run.stats.lp_solves,
        exact.stats.lp_solves as f64 / run.stats.lp_solves.max(1) as f64
    );
    println!(
        "measured slack {:.4} (< ε), worst certified width {:.4} — every exact ball",
        run.stats.max_class_slack,
        worst_relative_width(&run)
    );
    println!("optimum audited against its interval.");
    report.push(
        "acceptance/skewed_jitter",
        &[
            ("exact_dedup_ratio", exact.stats.dedup_ratio()),
            ("exact_solves", exact.stats.lp_solves as f64),
            ("lifted_solves", run.stats.lp_solves as f64),
            ("solve_reduction", exact.stats.lp_solves as f64 / run.stats.lp_solves.max(1) as f64),
            ("max_class_slack", run.stats.max_class_slack),
            ("worst_relative_width", worst_relative_width(&run)),
        ],
    );
    assert!(
        exact.stats.dedup_ratio() <= 1.5,
        "acceptance: jitter must defeat exact dedup (got {:.2}x)",
        exact.stats.dedup_ratio()
    );
    assert!(
        run.stats.lp_solves * 5 <= exact.stats.lp_solves,
        "acceptance: expected >=5x fewer simplex solves, got {} lifted vs {} exact",
        run.stats.lp_solves,
        exact.stats.lp_solves
    );

    banner("E14c: lifted mode over the wire (mmlp/present@2 carries ε and the slacks)");
    let subprocess_available = probe_worker(&WorkerCommand::CurrentExe)
        .map(|()| true)
        .unwrap_or_else(|e| {
            eprintln!("note: subprocess transport unavailable here ({e}); skipping its rows");
            false
        });
    let reference = solve_local_lps(&skewed, &lifted(radius, 0.05)).unwrap();
    let mut backends: Vec<(&str, BackendKind)> = vec![
        ("sequential", BackendKind::Sequential),
        ("loopback x4", BackendKind::Loopback { shards: 4 }),
    ];
    if subprocess_available {
        backends.push(("subprocess x2", BackendKind::Subprocess { workers: 2, overlapped: true }));
    }
    let widths = [16usize, 12, 12, 12];
    print_row(&["backend".into(), "wall ms".into(), "solves".into(), "identical".into()], &widths);
    for (name, backend) in backends {
        let clock = Instant::now();
        let run = solve_local_lps(&skewed, &lifted(radius, 0.05).with_backend(backend)).unwrap();
        let wall_ms = clock.elapsed().as_secs_f64() * 1e3;
        assert_eq!(run.local_x, reference.local_x, "{name}: scatter diverged");
        assert_eq!(run.intervals, reference.intervals, "{name}: certificates diverged");
        assert_eq!(run.ball_objectives, reference.ball_objectives, "{name}");
        print_row(
            &[name.into(), fmt(wall_ms, 1), run.stats.lp_solves.to_string(), "yes".into()],
            &widths,
        );
        report.push(
            &format!("wire/{}", name.replace(' ', "_")),
            &[("wall_ms", wall_ms), ("solves", run.stats.lp_solves as f64)],
        );
    }
    println!("\nEvery backend ships the quantised presentations and measured slacks over the");
    println!("same payloads and lands on bit-identical certificates (asserted above).");

    match report.write() {
        Ok(path) => println!("\nWrote machine-readable summary: {}", path.display()),
        Err(e) => eprintln!("\nFailed to write BENCH summary: {e}"),
    }
}
