//! Experiment E7 — the batched local-LP engine at work.
//!
//! Two demonstrations:
//!
//! 1. **Dedup on the acceptance workload.**  On a 50×50 grid every interior
//!    agent sees the same radius-`R` ball up to relabelling, so the
//!    canonicalisation layer collapses 2500 per-agent local LPs into a few
//!    dozen unique classes; the `SolveStats` table shows the ≥10× (in fact
//!    ~100×) reduction in simplex solves together with the per-stage
//!    wall-clock.
//! 2. **Batched vs naive wall-clock.**  The same computation with dedup
//!    disabled (the bit-identical reference mode) on a smaller grid.
//!
//! Writes `BENCH_e7_batched_engine.json` with every number in the tables.

use maxmin_local_lp::prelude::*;
use mmlp_experiments::report::BenchReport;
use mmlp_experiments::{banner, fmt, print_row};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn uniform_grid(side: usize) -> MaxMinInstance {
    let cfg = GridConfig { side_lengths: vec![side, side], torus: false, random_weights: false };
    grid_instance(&cfg, &mut StdRng::seed_from_u64(4))
}

fn main() {
    let mut report = BenchReport::new("e7_batched_engine", "e7_batched_engine");
    banner("E7a: dedup statistics on the 50x50 grid (2500 agents)");
    let widths = [3usize, 8, 8, 8, 8, 8, 8, 8, 10, 10, 10];
    print_row(
        &[
            "R".into(),
            "balls".into(),
            "present".into(),
            "built".into(),
            "classes".into(),
            "solves".into(),
            "hit %".into(),
            "pivots".into(),
            "enum ms".into(),
            "canon ms".into(),
            "solve ms".into(),
        ],
        &widths,
    );
    let inst = uniform_grid(50);
    for radius in [1usize, 2, 3] {
        let batch = solve_local_lps(&inst, &LocalLpOptions::new(radius)).unwrap();
        let s = &batch.stats;
        print_row(
            &[
                radius.to_string(),
                s.balls_enumerated.to_string(),
                s.distinct_presentations.to_string(),
                s.lps_built.to_string(),
                s.unique_classes.to_string(),
                s.lp_solves.to_string(),
                fmt(100.0 * s.cache_hit_rate(), 1),
                s.total_pivots.to_string(),
                fmt(s.timings.enumerate.as_secs_f64() * 1e3, 1),
                fmt(s.timings.canonicalise.as_secs_f64() * 1e3, 1),
                fmt(s.timings.solve.as_secs_f64() * 1e3, 1),
            ],
            &widths,
        );
        report.push(
            &format!("grid-50x50-r{radius}"),
            &[
                ("balls", s.balls_enumerated as f64),
                ("presentations", s.distinct_presentations as f64),
                ("lps_built", s.lps_built as f64),
                ("classes", s.unique_classes as f64),
                ("solves", s.lp_solves as f64),
                ("dedup_ratio", s.dedup_ratio()),
                ("cache_hit_rate", s.cache_hit_rate()),
                ("pivots", s.total_pivots as f64),
                ("enumerate_ms", s.timings.enumerate.as_secs_f64() * 1e3),
                ("canonicalise_ms", s.timings.canonicalise.as_secs_f64() * 1e3),
                ("solve_ms", s.timings.solve.as_secs_f64() * 1e3),
            ],
        );
        assert!(
            s.lp_solves * 10 <= s.balls_enumerated,
            "acceptance: expected >=10x fewer simplex solves than agents"
        );
    }
    println!("\nReading: the number of simplex solves is the number of unique ball classes, not");
    println!("the number of agents — on regular instances the dedup factor grows with the grid.");
    println!("`built` counts the ball LPs the present stage constructed: each shard builds only");
    println!("its first occurrences, so it lies between `present` and `present` x shards.");

    banner("E7b: batched vs naive wall-clock (12x12 grid, R = 2, identical output)");
    let small = uniform_grid(12);
    let start = Instant::now();
    let batched = local_averaging(&small, &LocalAveragingOptions::new(2)).unwrap();
    let batched_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let naive = local_averaging(&small, &LocalAveragingOptions::naive(2)).unwrap();
    let naive_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(batched.solution, naive.solution, "modes must be bit-identical");
    let widths = [10usize, 12, 12, 12];
    print_row(&["mode".into(), "time (ms)".into(), "lp solves".into(), "pivots".into()], &widths);
    print_row(
        &[
            "batched".into(),
            fmt(batched_ms, 1),
            batched.stats.lp_solves.to_string(),
            batched.stats.total_pivots.to_string(),
        ],
        &widths,
    );
    print_row(
        &[
            "naive".into(),
            fmt(naive_ms, 1),
            naive.stats.lp_solves.to_string(),
            naive.stats.total_pivots.to_string(),
        ],
        &widths,
    );
    for (mode, ms, stats) in
        [("batched", batched_ms, &batched.stats), ("naive", naive_ms, &naive.stats)]
    {
        report.push(
            &format!("grid-12x12-r2-{mode}"),
            &[
                ("wall_ms", ms),
                ("solves", stats.lp_solves as f64),
                ("pivots", stats.total_pivots as f64),
            ],
        );
    }
    println!("\nThe two modes return bit-identical solutions (asserted above).");

    match report.write() {
        Ok(path) => println!("\nWrote machine-readable summary: {}", path.display()),
        Err(e) => eprintln!("\nFailed to write BENCH summary: {e}"),
    }
}
