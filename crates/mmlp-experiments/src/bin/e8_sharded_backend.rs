//! Experiment E8 — the pluggable sharded solve backend at work.
//!
//! Three demonstrations:
//!
//! 1. **Backend comparison.**  The batched engine runs the acceptance
//!    workload (50×50 grid, `R = 2`) on every built-in backend and several
//!    shard counts; the solutions are asserted bit-identical and the table
//!    shows balls/classes/pivots/wall-clock per configuration.
//! 2. **Per-shard statistics.**  The fixed-shard backend's per-shard item
//!    counts and wall-clock for each pipeline stage — the load-balance view
//!    a multi-machine split would need.
//! 3. **Memo re-solve.**  Re-solving the acceptance workload from the first
//!    run's solution memo (`LocalLpBatch::solution_memo`): every class is a
//!    memo hit, so the re-solve performs no simplex solve, no pivot and no
//!    basis installation, and its output is bit-identical (asserted).
//!
//! Writes `BENCH_e8_sharded_backend.json` with every number in the tables.

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
    let mut report = BenchReport::new("e8_sharded_backend", "e8_sharded_backend");

    banner("E8a: backends on the 50x50 grid (2500 agents, R = 2), identical output");
    let inst = uniform_grid(50);
    let configs: Vec<(&str, BackendKind)> = vec![
        ("sequential", BackendKind::Sequential),
        ("scoped", BackendKind::ScopedThreads),
        ("sharded-1", BackendKind::Sharded { shards: 1 }),
        ("sharded-2", BackendKind::Sharded { shards: 2 }),
        ("sharded-4", BackendKind::Sharded { shards: 4 }),
        ("sharded-8", BackendKind::Sharded { shards: 8 }),
    ];
    let widths = [12usize, 8, 8, 8, 8, 10];
    print_row(
        &[
            "backend".into(),
            "balls".into(),
            "classes".into(),
            "solves".into(),
            "pivots".into(),
            "wall ms".into(),
        ],
        &widths,
    );
    let mut reference: Option<LocalLpBatch> = None;
    for (name, backend) in &configs {
        let options = LocalLpOptions::new(2).with_backend(*backend);
        let start = Instant::now();
        let batch = solve_local_lps(&inst, &options).unwrap();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let s = &batch.stats;
        print_row(
            &[
                (*name).into(),
                s.balls_enumerated.to_string(),
                s.unique_classes.to_string(),
                s.lp_solves.to_string(),
                s.total_pivots.to_string(),
                fmt(wall_ms, 1),
            ],
            &widths,
        );
        report.push(
            name,
            &[
                ("balls", s.balls_enumerated as f64),
                ("classes", s.unique_classes as f64),
                ("solves", s.lp_solves as f64),
                ("pivots", s.total_pivots as f64),
                ("wall_ms", wall_ms),
            ],
        );
        match &reference {
            None => reference = Some(batch),
            Some(reference) => {
                assert_eq!(batch.local_x, reference.local_x, "{name} diverged");
                assert_eq!(batch.class_of_ball, reference.class_of_ball, "{name} diverged");
            }
        }
    }
    println!("\nEvery backend and shard count returns bit-identical local optima (asserted).");

    banner("E8b: per-shard statistics of sharded-4 (items / wall ms per stage)");
    let batch = solve_local_lps(
        &inst,
        &LocalLpOptions::new(2).with_backend(BackendKind::Sharded { shards: 4 }),
    )
    .unwrap();
    let widths = [14usize, 24, 24];
    print_row(&["stage".into(), "items/shard".into(), "wall ms/shard".into()], &widths);
    for stage in &batch.stats.stage_shards {
        let items: Vec<String> = stage.shards.iter().map(|s| s.items.to_string()).collect();
        let walls: Vec<String> =
            stage.shards.iter().map(|s| fmt(s.wall.as_secs_f64() * 1e3, 1)).collect();
        print_row(&[stage.stage.to_string(), items.join(" "), walls.join(" ")], &widths);
        report.push(
            &format!("sharded-4/{}", stage.stage),
            &[
                ("shards", stage.shards.len() as f64),
                ("items", stage.items() as f64),
                ("critical_path_ms", stage.critical_path().as_secs_f64() * 1e3),
            ],
        );
    }
    println!("\nA shard communicates only through its returned table, so these four stages");
    println!("are exactly what a multi-machine agent-range split would execute per machine.");

    banner("E8c: memo re-solve (identical output, no simplex work)");
    let widths = [30usize, 8, 8, 8, 8, 8];
    print_row(
        &[
            "workload / run".into(),
            "classes".into(),
            "solves".into(),
            "pivots".into(),
            "installs".into(),
            "memo".into(),
        ],
        &widths,
    );
    let show = |run: &str, report: &mut BenchReport, s: &SolveStats| {
        print_row(
            &[
                format!("grid-50x50-r2 re-solve / {run}"),
                s.unique_classes.to_string(),
                s.lp_solves.to_string(),
                s.total_pivots.to_string(),
                s.total_installs.to_string(),
                s.memo_hits.to_string(),
            ],
            &widths,
        );
        report.push(
            &format!("grid-50x50-r2 re-solve/{run}"),
            &[
                ("classes", s.unique_classes as f64),
                ("solves", s.lp_solves as f64),
                ("pivots", s.total_pivots as f64),
                ("installs", s.total_installs as f64),
                ("memo_hits", s.memo_hits as f64),
            ],
        );
    };

    // The production re-solve path.  The E8a reference run already recorded
    // every class's canonical solution (`LocalLpBatch::solution_memo`); the
    // re-solve answers each class from the memo host-side.
    let options = LocalLpOptions::new(2);
    let cold = reference.expect("E8a produced the reference batch");
    let memo =
        solve_local_lps_reusing(&inst, &options, &cold.solution_memo(&options.simplex)).unwrap();
    assert_eq!(cold.local_x, memo.local_x, "the memo must not change the solution");
    assert_eq!(cold.class_solutions, memo.class_solutions, "class solutions diverged");
    show("cold", &mut report, &cold.stats);
    show("memo", &mut report, &memo.stats);
    let s = &memo.stats;
    assert_eq!(
        (s.lp_solves, s.total_pivots, s.total_installs),
        (0, 0, 0),
        "the memo re-solve of the 50x50 grid must do no simplex work"
    );
    assert_eq!(s.memo_hits, s.unique_classes, "every class must be a memo hit");
    println!("\nA memo hit is the stored solution of a bit-identical canonical LP solved under");
    println!("the same simplex options, so the output cannot change — only the work.");

    match report.write() {
        Ok(path) => println!("\nWrote machine-readable summary: {}", path.display()),
        Err(e) => eprintln!("\nFailed to write BENCH summary: {e}"),
    }
}
