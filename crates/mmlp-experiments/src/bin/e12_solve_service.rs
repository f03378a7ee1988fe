//! Experiment E12 — the multi-tenant solve service under Poisson load.
//!
//! E1–E11 all measure *one caller at a time*.  A deployed allocator is the
//! opposite: many tenants (sensor fields, ISP slices) submit small
//! overlapping solves continuously, and the questions become queueing
//! questions — latency percentiles, throughput, fairness, and what the
//! shared class-solution memo buys across tenants.  This experiment drives
//! the [`SolveService`] front-end with Poisson arrivals and measures
//! exactly that:
//!
//! 1. **Latency and throughput vs tenants × executors.**  Each tenant
//!    submits a stream of batched solves with exponential inter-arrival
//!    times; the table reports p50/p99 request latency (admission to
//!    result) and completed requests/sec for every tenants × executors
//!    cell, plus how often typed backpressure ([`ServiceError::QueueFull`])
//!    fired.
//! 2. **Cross-tenant memo sharing.**  The same tenant mix, solving
//!    structurally identical instances, once with isolated tenants and once
//!    sharing one bounded [`ClassSolutionMemo`]: the table reports the
//!    latency drop and the per-tenant memo-hit counters.  Results stay
//!    bit-identical either way (asserted here; the conformance suite
//!    `tests/solve_service.rs` proves it exhaustively).
//!
//! Writes `BENCH_e12_service.json` with every number in the tables.
//! Set `MMLP_E12_SMOKE=1` for a seconds-scale CI run of the same code.

use maxmin_local_lp::prelude::*;
use mmlp_experiments::report::BenchReport;
use mmlp_experiments::{banner, fmt, print_row};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const COLS: [usize; 6] = [18, 10, 10, 10, 12, 10];

/// One tenant's workload: structurally identical small grids (distinct
/// weights per tenant), the shape under which cross-tenant cache sharing
/// has something to share.
fn tenant_instance(tenant: u64) -> MaxMinInstance {
    grid_instance(
        &GridConfig { side_lengths: vec![4, 5], torus: false, random_weights: true },
        &mut StdRng::seed_from_u64(900 + tenant),
    )
}

/// Latency percentile (by nearest-rank) of an already-sorted sample, in ms.
///
/// Callers sort once ([`sort_samples`]) and take every rank from the sorted
/// slice — the old signature re-sorted the full sample on *every* call (p50,
/// then p99 again), and its `partial_cmp(..).expect(..)` comparator panicked
/// on any non-finite latency instead of ordering it deterministically.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// Sorts a latency sample under the IEEE-754 total order (never panics).
fn sort_samples(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

struct LoadResult {
    p50_ms: f64,
    p99_ms: f64,
    throughput_rps: f64,
    rejected: u64,
    completed: u64,
}

/// Drives `requests_per_tenant` solves per tenant through `service` with
/// Poisson arrivals of the given mean inter-arrival time, retrying typed
/// backpressure after a short pause.  Latency is measured admission to
/// result, inside the request itself.
fn drive_poisson(
    service: &EngineService,
    tenants: u64,
    requests_per_tenant: usize,
    mean_interarrival: Duration,
    options: LocalLpOptions,
) -> LoadResult {
    let latencies: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut rng = StdRng::seed_from_u64(4242 + tenants);
    let mut rejected = 0u64;
    let clock = Instant::now();
    let mut tickets = Vec::new();
    for round in 0..requests_per_tenant {
        for tenant in 1..=tenants {
            // Exponential inter-arrival: -ln(U) scaled by the mean.
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let gap = mean_interarrival.as_secs_f64() * -u.ln();
            std::thread::sleep(Duration::from_secs_f64(gap));
            let inst = tenant_instance(tenant);
            let latencies = latencies.clone();
            let submitted = Instant::now();
            // Admission with retry-on-backpressure: QueueFull is a typed
            // signal, so the open-loop driver becomes closed-loop exactly
            // when the service is saturated.
            loop {
                let inst = inst.clone();
                let latencies = latencies.clone();
                match service.submit_solve(tenant, inst, options) {
                    Ok(ticket) => {
                        tickets.push((tenant, round, ticket, submitted, latencies));
                        break;
                    }
                    Err(ServiceError::QueueFull { .. }) => {
                        rejected += 1;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("unexpected admission failure: {e}"),
                }
            }
        }
    }
    for (tenant, round, ticket, submitted, latencies) in tickets {
        let batch = ticket
            .wait()
            .expect("request completed")
            .unwrap_or_else(|e| panic!("tenant {tenant} round {round} failed: {e}"));
        assert!(batch.local_x.iter().flatten().all(|x| x.is_finite()));
        latencies.lock().unwrap().push(submitted.elapsed().as_secs_f64() * 1e3);
    }
    let completed = service.drain();
    let wall_s = clock.elapsed().as_secs_f64();
    let mut samples = Arc::try_unwrap(latencies)
        .expect("all requests resolved")
        .into_inner()
        .unwrap();
    sort_samples(&mut samples);
    LoadResult {
        p50_ms: percentile(&samples, 50.0),
        p99_ms: percentile(&samples, 99.0),
        throughput_rps: samples.len() as f64 / wall_s,
        rejected,
        completed,
    }
}

fn main() {
    // Worker mode: when the subprocess backend re-executes this binary with
    // `--mmlp-worker`, serve the engine stages over stdio and exit.
    if serve_engine_worker_if_requested() {
        return;
    }
    let smoke = std::env::var_os("MMLP_E12_SMOKE").is_some();
    let requests_per_tenant = if smoke { 4 } else { 24 };
    let mean_interarrival = Duration::from_millis(if smoke { 1 } else { 2 });
    let options = LocalLpOptions::new(1);

    let mut report = BenchReport::new("e12_service", "e12_solve_service");
    report.push_env(&[("smoke", f64::from(u8::from(smoke)))]);

    banner("E12a: request latency and throughput vs tenants x executors");
    println!(
        "Poisson arrivals, mean inter-arrival {} ms, {} requests/tenant;",
        mean_interarrival.as_millis(),
        requests_per_tenant
    );
    println!("latency measured admission -> result; QueueFull admissions retried.\n");
    print_row(
        &[
            "tenants x execs".into(),
            "p50 ms".into(),
            "p99 ms".into(),
            "req/s".into(),
            "backpressure".into(),
            "completed".into(),
        ],
        &COLS,
    );
    let tenant_counts: &[u64] = if smoke { &[2] } else { &[1, 2, 4] };
    let executor_counts: &[usize] = if smoke { &[2] } else { &[1, 2, 4] };
    for &tenants in tenant_counts {
        for &executors in executor_counts {
            let service = EngineService::new(ServiceConfig {
                workers: executors,
                queue_capacity: 8 * tenants as usize,
            });
            let load =
                drive_poisson(&service, tenants, requests_per_tenant, mean_interarrival, options);
            let label = format!("t{tenants} x w{executors}");
            print_row(
                &[
                    label.clone(),
                    fmt(load.p50_ms, 2),
                    fmt(load.p99_ms, 2),
                    fmt(load.throughput_rps, 1),
                    load.rejected.to_string(),
                    load.completed.to_string(),
                ],
                &COLS,
            );
            report.push(
                &label,
                &[
                    ("tenants", tenants as f64),
                    ("executors", executors as f64),
                    ("p50_ms", load.p50_ms),
                    ("p99_ms", load.p99_ms),
                    ("throughput_rps", load.throughput_rps),
                    ("rejected", load.rejected as f64),
                    ("completed", load.completed as f64),
                ],
            );
        }
    }

    banner("E12b: cross-tenant class-solution memo sharing");
    println!("Same tenant mix; tenants' instances are structurally identical, so a class");
    println!("one tenant solves cold is a memo hit for every tenant whose class key matches.\n");
    let tenants = if smoke { 2u64 } else { 4 };
    let widths = [22usize, 10, 10, 12, 12];
    print_row(
        &["mode".into(), "p50 ms".into(), "p99 ms".into(), "req/s".into(), "cache hits".into()],
        &widths,
    );
    for shared in [false, true] {
        let service = if shared {
            EngineService::with_shared_cache(
                ServiceConfig { workers: 2, queue_capacity: 8 * tenants as usize },
                4096,
            )
        } else {
            EngineService::new(ServiceConfig { workers: 2, queue_capacity: 8 * tenants as usize })
        };
        let load =
            drive_poisson(&service, tenants, requests_per_tenant, mean_interarrival, options);
        let hits: u64 = (1..=tenants).map(|t| service.counters(t).cache_hits).sum();
        let label = if shared { "shared memo" } else { "isolated" };
        print_row(
            &[
                label.into(),
                fmt(load.p50_ms, 2),
                fmt(load.p99_ms, 2),
                fmt(load.throughput_rps, 1),
                hits.to_string(),
            ],
            &widths,
        );
        report.push(
            &format!("sharing/{label}"),
            &[
                ("p50_ms", load.p50_ms),
                ("p99_ms", load.p99_ms),
                ("throughput_rps", load.throughput_rps),
                ("cache_hits", hits as f64),
            ],
        );
        if shared {
            assert!(hits > 0, "structurally identical tenants must hit the shared memo");
        }
    }
    println!("\nA memo hit is the solution of a bit-identical canonical LP, so the results");
    println!("are bit-identical to isolated cold solves (tests/solve_service.rs).");

    match report.write() {
        Ok(path) => println!("\nWrote machine-readable summary: {}", path.display()),
        Err(e) => eprintln!("\nFailed to write BENCH summary: {e}"),
    }
}
