//! Experiment E13 — incremental re-solve: instance deltas over the wire.
//!
//! A deployed allocator rarely sees a *new* instance: sensors recalibrate,
//! link capacities drift, a few coefficients move while the topology stays
//! put.  The incremental path registers a versioned base once per worker
//! (the full instance crosses each link a single time, then the per-stage
//! context dedup keeps it resident) and every re-solve ships only the weight
//! edits plus the affected-ball lists — `O(churn)`, not `O(instance)`.
//! Solving reuses the registered batch: unaffected balls verbatim, classes
//! whose canonical key the base already has from its stored solutions (memo
//! hits), and only perturbed classes are solved cold.
//!
//! This experiment sweeps the weight-churn rate on a fixed grid across the
//! sequential, loopback and subprocess backends, and reports for each step:
//! re-solve latency vs a cold solve of the same patched instance, the wire
//! bytes the delta job occupies vs the one-time registered context, and how
//! many affected classes were memo hits vs cold solves.  Every step asserts
//! the incremental batch bit-identical to the cold one (solutions, balls,
//! class numbering, class keys and class solutions).
//!
//! Writes `BENCH_e13_incremental.json` with every number in the tables.
//! Set `MMLP_E13_SMOKE=1` for a seconds-scale CI run of the same code.

use maxmin_local_lp::parallel::WORKER_BIN_ENV;
use maxmin_local_lp::prelude::*;
use mmlp_experiments::report::BenchReport;
use mmlp_experiments::{banner, fmt, print_row};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const COLS: [usize; 8] = [22, 8, 10, 10, 10, 10, 12, 14];

/// Builds a churn delta: `churn * num_agents` distinct agents (chosen by the
/// seeded RNG), each with one incident weight rescaled by a factor in
/// `[0.8, 1.25]`.  Only existing entries move, so the topology — and with it
/// the registered context — is untouched.
fn churn_delta(inst: &MaxMinInstance, churn: f64, version: u64, seed: u64) -> InstanceDelta {
    let n = inst.num_agents();
    let target = ((churn * n as f64).round() as usize).min(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < target {
        chosen.insert(rng.gen_range(0..n));
    }
    let mut edits = Vec::with_capacity(target);
    for v in chosen {
        let agent = inst.agent(AgentId::new(v));
        let factor = rng.gen_range(0.8..1.25);
        // Alternate between consumption and benefit edits so both coefficient
        // families churn.
        let edit = if (rng.gen::<bool>() || agent.parties.is_empty()) && !agent.resources.is_empty()
        {
            let (i, a) = agent.resources[rng.gen_range(0..agent.resources.len())];
            WeightEdit {
                kind: WeightKind::Consumption,
                row: i.index(),
                agent: v,
                weight: a * factor,
            }
        } else {
            let (k, c) = agent.parties[rng.gen_range(0..agent.parties.len())];
            WeightEdit { kind: WeightKind::Benefit, row: k.index(), agent: v, weight: c * factor }
        };
        edits.push(edit);
    }
    InstanceDelta { base_version: version, edits }
}

fn assert_bit_identical(run: &IncrementalRun, cold: &LocalLpBatch, label: &str) {
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

    let smoke = std::env::var_os("MMLP_E13_SMOKE").is_some();
    let side = if smoke { 12 } else { 50 };
    let radius = 1usize;
    let inst = grid_instance(
        &GridConfig { side_lengths: vec![side, side], torus: false, random_weights: true },
        &mut StdRng::seed_from_u64(13),
    );
    let churns: &[f64] = &[0.0, 0.01, 0.1, 0.5];

    let mut report = BenchReport::new("e13_incremental", "e13_incremental");
    report.push_env(&[
        ("smoke", f64::from(u8::from(smoke))),
        ("side", side as f64),
        ("radius", radius as f64),
        ("agents", inst.num_agents() as f64),
    ]);

    let subprocess_available = probe_worker(&WorkerCommand::CurrentExe)
        .map(|()| true)
        .unwrap_or_else(|e| {
            eprintln!("note: subprocess transport unavailable here ({e}); skipping its rows");
            false
        });

    banner(&format!(
        "E13: incremental re-solve vs weight churn ({side}x{side} weighted grid, radius {radius})"
    ));
    println!("Each step re-solves a registered base under a weight delta and asserts the");
    println!("result bit-identical to a cold solve of the patched instance.\n");
    print_row(
        &[
            "backend / churn".into(),
            "changed".into(),
            "affected".into(),
            "resolve ms".into(),
            "cold ms".into(),
            "speedup".into(),
            "wire bytes".into(),
            "memo/cold".into(),
        ],
        &COLS,
    );

    let mut backends: Vec<(&str, BackendKind)> = vec![
        ("sequential", BackendKind::Sequential),
        ("loopback", BackendKind::Loopback { shards: 4 }),
    ];
    if subprocess_available {
        backends.push(("subprocess", BackendKind::Subprocess { workers: 2, overlapped: true }));
    }

    for (name, backend) in backends {
        let options = LocalLpOptions { backend, ..LocalLpOptions::new(radius) };
        let clock = Instant::now();
        let base = register_base(&inst, &options, 1).expect("base registration");
        let register_ms = clock.elapsed().as_secs_f64() * 1e3;
        let register_bytes = base.context_wire_bytes();
        let cold_pivots = base.batch().stats.total_pivots;
        report.push(
            &format!("{name}/register"),
            &[
                ("register_ms", register_ms),
                ("register_bytes", register_bytes as f64),
                ("cold_pivots", cold_pivots as f64),
            ],
        );

        for (step, &churn) in churns.iter().enumerate() {
            let delta = churn_delta(&inst, churn, 1, 1300 + step as u64);
            let clock = Instant::now();
            let run = solve_local_lps_incremental(&base, &delta).expect("incremental re-solve");
            let resolve_ms = clock.elapsed().as_secs_f64() * 1e3;

            let patched = delta.apply(base.instance()).expect("delta applies");
            let clock = Instant::now();
            let cold = solve_local_lps(&patched, &options).expect("cold re-solve");
            let cold_ms = clock.elapsed().as_secs_f64() * 1e3;
            let label = format!("{name}/churn_{}", (churn * 100.0).round() as usize);
            assert_bit_identical(&run, &cold, &label);

            let s = &run.batch.stats;
            print_row(
                &[
                    format!("{name} / {churn}"),
                    run.changed_agents.to_string(),
                    run.affected_agents.to_string(),
                    fmt(resolve_ms, 2),
                    fmt(cold_ms, 2),
                    fmt(cold_ms / resolve_ms.max(1e-9), 1),
                    run.resolve_wire_bytes.to_string(),
                    format!("{}/{}", s.memo_hits, s.lp_solves),
                ],
                &COLS,
            );
            report.push(
                &label,
                &[
                    ("churn", churn),
                    ("changed_agents", run.changed_agents as f64),
                    ("affected_agents", run.affected_agents as f64),
                    ("resolve_ms", resolve_ms),
                    ("cold_ms", cold_ms),
                    ("wire_bytes", run.resolve_wire_bytes as f64),
                    ("register_bytes", register_bytes as f64),
                    ("pivots", s.total_pivots as f64),
                    ("cold_pivots", cold.stats.total_pivots as f64),
                    ("memo_hits", s.memo_hits as f64),
                    ("cold_solves", s.lp_solves as f64),
                ],
            );
        }
    }

    println!("\nThe registered context crosses each worker link once; after that a re-solve");
    println!("ships only the delta and the affected-ball lists — wire bytes and latency");
    println!("scale with the churn, never with the instance size.");

    match report.write() {
        Ok(path) => println!("\nWrote machine-readable summary: {}", path.display()),
        Err(e) => eprintln!("\nFailed to write BENCH summary: {e}"),
    }
}
