//! Experiment E10 — LOCAL-model simulator rounds across the transport
//! boundary.
//!
//! Three demonstrations:
//!
//! 1. **Round throughput by backend × shards.**  The radius-2 gathering
//!    protocol runs on a 30×30 weighted grid through the worker-resident
//!    wire tier (`mmlp/sim-epoch@1`) on every backend — in-process, the in-memory
//!    loopback transport and real worker processes (this very binary,
//!    re-executed with `--mmlp-worker`) in lockstep and overlapped dispatch
//!    — at shard counts {1, 2, 5}.  Every run is asserted bit-identical
//!    (views, message counts, rounds) to the sequential closure-tier
//!    simulator; the table reports rounds/sec, i.e. what the byte and
//!    process boundary costs per synchronous round.
//! 2. **A full algorithm over the wire.**  The safe algorithm as a
//!    gather-then-decide wire program, asserted equal to the centralised
//!    computation across the same transports.
//! 3. **Fault injection mid-simulation.**  Duplicated and reordered
//!    inter-round message batches plus a killed worker, absorbed by the
//!    driver's ordered merge and its checkpoint-restore-and-replay recovery
//!    — identical results, asserted.
//! 4. **The per-node averaging rule over the wire.**  `run_wire_rule` with
//!    local averaging at R = 1 on a 16×16 weighted grid (the `sim-rule`
//!    benchmark's instance) on the sequential, loopback and subprocess
//!    backends: median wall of 5 runs, asserted bit-identical to the
//!    central algorithm, plus the ball LPs the nodes compute (`rule_lps`)
//!    and how many the per-run rule memo actually solved (`rule_solves`) in
//!    the in-process run.
//!
//! Writes `BENCH_e10_distsim.json` with every number in the tables.

use maxmin_local_lp::parallel::WORKER_BIN_ENV;
use maxmin_local_lp::prelude::*;
use mmlp_experiments::report::BenchReport;
use mmlp_experiments::{banner, fmt, print_row};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    // Worker mode: when the subprocess backend re-executes this binary with
    // `--mmlp-worker`, serve the engine stages (including `mmlp/sim-epoch@1`)
    // over stdio and exit.
    if serve_engine_worker_if_requested() {
        return;
    }
    // Workers must speak `mmlp/sim-epoch@1`, which this binary does and a
    // stale sibling `mmlp-worker` build might not (it would answer
    // "unknown stage" — the versioning rule working as intended, but not
    // what this experiment is measuring).  Pin the worker binary to the
    // current executable unless the caller chose one explicitly.
    if std::env::var_os(WORKER_BIN_ENV).is_none() {
        if let Ok(exe) = std::env::current_exe() {
            std::env::set_var(WORKER_BIN_ENV, exe);
        }
    }

    let mut report = BenchReport::new("e10_distsim", "e10_distsim_transport");
    let inst = grid_instance(
        &GridConfig { side_lengths: vec![30, 30], torus: false, random_weights: true },
        &mut StdRng::seed_from_u64(10),
    );
    let radius = 2;
    let (h, _) = communication_hypergraph(&inst);
    let network = Network::from_hypergraph(&h);
    let program = GatherProgram::new(&inst, radius);
    let simulator = Simulator::sequential();

    banner("E10a: gather rounds (30x30 weighted grid, R = 2), every transport x shards");
    let subprocess_available = probe_worker(&WorkerCommand::CurrentExe)
        .map(|()| true)
        .unwrap_or_else(|e| {
            eprintln!("note: subprocess transport unavailable here ({e}); its rows run loopback");
            false
        });

    let clock = Instant::now();
    let reference = simulator.run(&network, &program).expect("closure-tier gather");
    let closure_ms = clock.elapsed().as_secs_f64() * 1e3;
    println!(
        "closure-tier reference: {} rounds, {} messages, {} ms\n",
        reference.rounds,
        reference.messages,
        fmt(closure_ms, 1)
    );

    let registry = engine_registry();
    let (sim, net, prog) = (&simulator, &network, &program);
    type RunBackend<'a> = Box<dyn Fn() -> SimulationResult<LocalView> + 'a>;
    let mut configs: Vec<(String, usize, RunBackend)> = vec![(
        "sequential".into(),
        1,
        Box::new(|| sim.run_wire_on(net, prog, &Sequential).unwrap()),
    )];
    for shards in [1usize, 2, 5] {
        configs.push((
            format!("sharded-{shards}"),
            shards,
            Box::new(move || {
                let backend = Sharded::new(shards, ParallelConfig::default());
                sim.run_wire_on(net, prog, &backend).unwrap()
            }),
        ));
        // Transport backends are constructed once per row (pools and
        // worker-side caches persist across the warm-up and timed runs, so
        // the timed numbers measure the protocol, not process start-up).
        let loopback = LoopbackBackend::new(registry.clone(), shards).with_workers(2);
        configs.push((
            format!("loopback-{shards}"),
            shards,
            Box::new(move || sim.run_wire_on(net, prog, &loopback).unwrap()),
        ));
        for (mode, overlapped) in [("lockstep", false), ("overlapped", true)] {
            let backend = SubprocessBackend::new(2, registry.clone())
                .with_command(WorkerCommand::CurrentExe)
                .with_shards(shards);
            let backend = if overlapped { backend } else { backend.lockstep() };
            configs.push((
                format!("subprocess-{mode}-2w-{shards}s"),
                shards,
                Box::new(move || sim.run_wire_on(net, prog, &backend).unwrap()),
            ));
        }
    }

    let widths = [26usize, 8, 8, 10, 12, 12];
    print_row(
        &[
            "backend".into(),
            "shards".into(),
            "rounds".into(),
            "messages".into(),
            "wall ms".into(),
            "rounds/sec".into(),
        ],
        &widths,
    );
    for (name, shards, run) in &configs {
        // Warm-up: spawns worker pools and fills the worker-side context
        // caches, so the timed run below measures per-round protocol cost.
        let warmup = run();
        assert_eq!(warmup.outputs, reference.outputs, "{name} diverged (warm-up)");
        let clock = Instant::now();
        let result = run();
        let wall_ms = clock.elapsed().as_secs_f64() * 1e3;
        assert_eq!(result.outputs, reference.outputs, "{name} diverged");
        assert_eq!(result.messages, reference.messages, "{name} diverged");
        assert_eq!(result.rounds, reference.rounds, "{name} diverged");
        let rounds_per_sec = result.rounds as f64 / (wall_ms / 1e3);
        print_row(
            &[
                name.clone(),
                shards.to_string(),
                result.rounds.to_string(),
                result.messages.to_string(),
                fmt(wall_ms, 1),
                fmt(rounds_per_sec, 1),
            ],
            &widths,
        );
        report.push(
            name,
            &[
                ("shards", *shards as f64),
                ("rounds", result.rounds as f64),
                ("messages", result.messages as f64),
                ("wall_ms", wall_ms),
                ("rounds_per_sec", rounds_per_sec),
                ("subprocess_available", f64::from(u8::from(subprocess_available))),
            ],
        );
    }
    println!("\nEvery transport delivers bit-identical views with identical message and");
    println!("round counts (asserted above) — the LOCAL model, executed literally.");

    banner("E10b: the safe algorithm as a wire program");
    let central = safe_algorithm(&inst);
    let widths = [26usize, 12, 12];
    print_row(&["backend".into(), "result".into(), "wall ms".into()], &widths);
    for backend in [
        BackendKind::Sequential,
        BackendKind::Loopback { shards: 4 },
        BackendKind::Subprocess { workers: 2, overlapped: true },
    ] {
        let sim = Simulator::with_config(SimulatorConfig { backend, ..SimulatorConfig::default() });
        let clock = Instant::now();
        let run = run_wire_rule(&inst, WireRule::Safe, &SimplexOptions::default(), &sim).unwrap();
        let wall_ms = clock.elapsed().as_secs_f64() * 1e3;
        assert_eq!(run.solution, central, "{backend:?} diverged");
        let label = format!("safe/{backend:?}");
        print_row(&[label.clone(), "identical".into(), fmt(wall_ms, 1)], &widths);
        report.push(&label, &[("identical", 1.0), ("wall_ms", wall_ms)]);
    }

    banner("E10c: deterministic fault injection mid-simulation");
    let widths = [34usize, 10, 12];
    print_row(&["fault plan".into(), "result".into(), "wall ms".into()], &widths);
    for (label, faults) in [
        (
            "duplicate + reorder round batches",
            FaultPlan {
                duplicate_replies: (0..40).collect(),
                reorder_seed: Some(7),
                ..FaultPlan::none()
            },
        ),
        (
            "kill worker after 3 batches",
            FaultPlan { die_after_replies: Some(3), ..FaultPlan::none() },
        ),
    ] {
        let backend = LoopbackBackend::new(registry.clone(), 6)
            .with_workers(2)
            .with_faults(faults);
        let clock = Instant::now();
        let result = simulator.run_wire_on(&network, &program, &backend).unwrap();
        let wall_ms = clock.elapsed().as_secs_f64() * 1e3;
        assert_eq!(result.outputs, reference.outputs, "{label} changed the views");
        assert_eq!(result.messages, reference.messages, "{label} changed the message count");
        print_row(&[label.into(), "identical".into(), fmt(wall_ms, 1)], &widths);
        report.push(&format!("fault/{label}"), &[("identical", 1.0), ("wall_ms", wall_ms)]);
    }
    println!("\nDuplicated inter-round message batches are dropped by the ordered merge;");
    println!("a killed worker is respawned and its resident state restored by replay —");
    println!("views never change.");

    banner("E10d: local averaging (R = 1) as a wire program, 16x16 weighted grid");
    let grid = grid_instance(
        &GridConfig { side_lengths: vec![16, 16], torus: false, random_weights: true },
        &mut StdRng::seed_from_u64(16),
    );
    let rule = WireRule::LocalAveraging { radius: 1 };
    let simplex = SimplexOptions::default();
    let central = local_averaging(&grid, &LocalAveragingOptions::sequential(1))
        .expect("central local averaging")
        .solution;
    let bits = |x: &Solution| x.activities().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    // The in-process run's rule counters: the host's program stepped every node.
    let (grid_h, _) = communication_hypergraph(&grid);
    let grid_network = Network::from_hypergraph(&grid_h);
    let program = LocalRuleProgram::new(&grid, rule, simplex);
    let counted = Simulator::sequential()
        .run_typed(&grid_network, &program, &registry)
        .expect("in-process rule run");
    assert_eq!(bits(&Solution::new(counted.outputs)), bits(&central), "in-process rule diverged");
    let stats = program.rule_stats();
    println!(
        "in-process run: {} ball LPs computed by the nodes, {} solved (memo per run)\n",
        stats.lps, stats.solves
    );
    let widths = [24usize, 12, 14, 10, 12];
    print_row(
        &[
            "backend".into(),
            "result".into(),
            "median ms (5)".into(),
            "rule_lps".into(),
            "rule_solves".into(),
        ],
        &widths,
    );
    for (name, backend) in [
        ("sequential", BackendKind::Sequential),
        ("loopback-4", BackendKind::Loopback { shards: 4 }),
        ("subprocess-2w", BackendKind::Subprocess { workers: 2, overlapped: true }),
    ] {
        let sim = Simulator::with_config(SimulatorConfig { backend, ..SimulatorConfig::default() });
        // Warm-up: spawns the pooled workers and fills their context caches.
        let warmup = run_wire_rule(&grid, rule, &simplex, &sim).expect("warm-up rule run");
        assert_eq!(bits(&warmup.solution), bits(&central), "{backend:?} diverged (warm-up)");
        let mut walls: Vec<f64> = (0..5)
            .map(|_| {
                let clock = Instant::now();
                let run = run_wire_rule(&grid, rule, &simplex, &sim).expect("rule run");
                let wall_ms = clock.elapsed().as_secs_f64() * 1e3;
                assert_eq!(bits(&run.solution), bits(&central), "{backend:?} diverged");
                wall_ms
            })
            .collect();
        walls.sort_by(f64::total_cmp);
        let median_ms = walls[2];
        let label = format!("averaging/{name}");
        // Worker copies keep their own counters, so only the in-process row
        // reports them.
        let in_process = backend == BackendKind::Sequential;
        let count = |n: u64| if in_process { n.to_string() } else { "-".into() };
        print_row(
            &[
                label.clone(),
                "identical".into(),
                fmt(median_ms, 1),
                count(stats.lps),
                count(stats.solves),
            ],
            &widths,
        );
        let mut row = vec![("identical", 1.0), ("wall_ms_median", median_ms)];
        if in_process {
            row.extend([("rule_lps", stats.lps as f64), ("rule_solves", stats.solves as f64)]);
        }
        report.push(&label, &row);
    }
    println!("\nEvery node computes each of its ball LPs (rule_lps); the simulator solves a");
    println!("ball that many views contain once per program copy and run (rule_solves).");

    match report.write() {
        Ok(path) => println!("\nWrote machine-readable summary: {}", path.display()),
        Err(e) => eprintln!("\nFailed to write BENCH summary: {e}"),
    }
}
