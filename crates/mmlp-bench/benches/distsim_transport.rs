//! Benchmark for the distributed simulator's typed-message tier: the
//! radius-2 gathering protocol through the worker-resident
//! `mmlp/sim-epoch@1` stage on the
//! in-process backends, the in-memory loopback transport and the subprocess
//! backend in lockstep vs overlapped dispatch — what a synchronous round
//! costs per boundary crossed.
//!
//! A third group times the local averaging rule on its own: every node of
//! the 16×16 random-weight grid deciding from its radius-3 view at R = 1,
//! which is the per-node work of the last round of
//! `run_wire_rule(LocalAveraging { radius: 1 })`.
//!
//! The subprocess rows need a worker binary (`mmlp-worker` next to the
//! target directory, or `MMLP_WORKER_BIN`); where the environment cannot
//! spawn processes the backend's capability probe falls back to the
//! loopback transport with a logged skip, so the bench — and the CI smoke
//! run — never fails for platform reasons.

use criterion::{criterion_group, criterion_main, Criterion};
use maxmin_local_lp::prelude::*;
use mmlp_bench::bench_rng;

fn gather_setup(side: usize, radius: usize) -> (Network, GatherProgram) {
    let cfg = GridConfig { side_lengths: vec![side, side], torus: false, random_weights: true };
    let inst = grid_instance(&cfg, &mut bench_rng(10));
    let (h, _) = communication_hypergraph(&inst);
    (Network::from_hypergraph(&h), GatherProgram::new(&inst, radius))
}

fn bench_gather_rounds_on_grid15(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_distsim_rounds_grid15_r2");
    group.sample_size(10);
    let (network, program) = gather_setup(15, 2);
    let simulator = Simulator::sequential();

    group.bench_function("closure-tier", |b| {
        b.iter(|| {
            let run = simulator.run(&network, &program).unwrap();
            std::hint::black_box(run.messages)
        })
    });
    group.bench_function("wire-sequential", |b| {
        b.iter(|| {
            let run = simulator.run_wire_on(&network, &program, &Sequential).unwrap();
            std::hint::black_box(run.messages)
        })
    });
    group.bench_function("wire-sharded-4", |b| {
        let backend = Sharded::new(4, ParallelConfig::default());
        b.iter(|| {
            let run = simulator.run_wire_on(&network, &program, &backend).unwrap();
            std::hint::black_box(run.messages)
        })
    });
    group.bench_function("wire-loopback-4", |b| {
        let backend = LoopbackBackend::new(engine_registry(), 4).with_workers(2);
        b.iter(|| {
            let run = simulator.run_wire_on(&network, &program, &backend).unwrap();
            std::hint::black_box(run.messages)
        })
    });
    // One pooled backend per dispatch mode: workers persist across
    // iterations, so the numbers measure the protocol, not process spawns.
    group.bench_function("wire-subprocess-lockstep-2", |b| {
        let backend = SubprocessBackend::new(2, engine_registry()).lockstep();
        b.iter(|| {
            let run = simulator.run_wire_on(&network, &program, &backend).unwrap();
            std::hint::black_box(run.messages)
        })
    });
    group.bench_function("wire-subprocess-overlapped-2", |b| {
        let backend = SubprocessBackend::new(2, engine_registry());
        b.iter(|| {
            let run = simulator.run_wire_on(&network, &program, &backend).unwrap();
            std::hint::black_box(run.messages)
        })
    });
    group.finish();
}

fn bench_sim_view_codecs(c: &mut Criterion) {
    use maxmin_local_lp::distsim::gather::{put_local_view, read_local_view};
    use maxmin_local_lp::parallel::wire::ByteReader;
    let mut group = c.benchmark_group("e10_sim_view_codecs");
    let (network, program) = gather_setup(15, 2);
    // The heaviest payload of a run: a halting node's full radius-2 view.
    let views = Simulator::sequential().run(&network, &program).unwrap().outputs;
    let view = &views[views.len() / 2];
    let mut bytes = Vec::new();
    put_local_view(&mut bytes, view);
    group.bench_function("encode_radius2_view", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            put_local_view(&mut out, view);
            std::hint::black_box(out.len())
        })
    });
    group.bench_function("decode_radius2_view", |b| {
        b.iter(|| {
            let decoded = read_local_view(&mut ByteReader::new(&bytes)).unwrap();
            std::hint::black_box(decoded.len())
        })
    });
    group.finish();
}

fn bench_local_averaging_rule_on_grid16(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_local_averaging_rule_grid16_r1");
    group.sample_size(10);
    let radius = 1;
    let cfg = GridConfig { side_lengths: vec![16, 16], torus: false, random_weights: true };
    let inst = grid_instance(&cfg, &mut bench_rng(16));
    let views = views_direct(&inst, 2 * radius + 1, &ParallelConfig::sequential());
    let simplex = SimplexOptions::default();
    group.bench_function("all_views_sequential", |b| {
        b.iter(|| {
            let total: f64 = views
                .iter()
                .map(|view| local_averaging_activity_from_view(view, radius, &simplex))
                .sum();
            std::hint::black_box(total)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gather_rounds_on_grid15,
    bench_sim_view_codecs,
    bench_local_averaging_rule_on_grid16
);
criterion_main!(benches);
