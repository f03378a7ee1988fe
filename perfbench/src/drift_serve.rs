//! `drift-serve`: an open loop of 1%-churn weight deltas against one base
//! registered on the 50×50 random-weight grid at R = 1.  Two tenants send
//! from one generator thread on a seeded Poisson schedule; requests run on a
//! two-executor `SolveService` whose engine backend is two subprocess
//! workers with overlapped dispatch.  Service queueing, the incremental
//! path, the simplex and the engine's transport do the work; cold
//! presentation does little.

use crate::measure::{self, median, same_bits, EndToEnd, THREADS};
use crate::trace::{self, ms, Trace};
use crate::{Args, Outcome};
use maxmin_local_lp::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const SIDE: usize = 50;
const RADIUS: usize = 1;
const CHURN: f64 = 0.01;
const TENANTS: u64 = 2;
/// Offered load: about 10% of the ≈10 requests/s the service sustains on
/// the reference two-core box.  At 20% and above, overlapping requests
/// amplified the box's run-to-run noise in the tail past the largest bound
/// the benchmark can set.
const RATE_PER_S: f64 = 1.0;
/// The latency limit a request must meet, counted from when it was due.
const LIMIT_MS: f64 = 500.0;
const QUEUE_CAPACITY: usize = 16;
/// Requests per window whose results are re-checked against a cold solve
/// after the window, and re-solved to confirm their counters repeat.
const CHECKED: usize = 3;
/// The grid's weights are fixed, so the seed varies what is sent and when,
/// not the base every request re-solves.
const INSTANCE_SEED: u64 = 13;

/// A weight delta touching `CHURN · n` distinct agents, each with one
/// incident coefficient rescaled by a factor in `[0.8, 1.25]`; the topology
/// never changes.
fn churn_delta(inst: &MaxMinInstance, rng: &mut StdRng) -> InstanceDelta {
    let n = inst.num_agents();
    let target = ((CHURN * n as f64).round() as usize).clamp(1, n);
    let mut chosen = BTreeSet::new();
    while chosen.len() < target {
        chosen.insert(rng.gen_range(0..n));
    }
    let edits = chosen
        .into_iter()
        .map(|v| {
            let agent = inst.agent(AgentId::new(v));
            let factor = rng.gen_range(0.8..1.25);
            if (rng.gen::<bool>() || agent.parties.is_empty()) && !agent.resources.is_empty() {
                let (i, a) = agent.resources[rng.gen_range(0..agent.resources.len())];
                WeightEdit {
                    kind: WeightKind::Consumption,
                    row: i.index(),
                    agent: v,
                    weight: a * factor,
                }
            } else {
                let (k, c) = agent.parties[rng.gen_range(0..agent.parties.len())];
                WeightEdit {
                    kind: WeightKind::Benefit,
                    row: k.index(),
                    agent: v,
                    weight: c * factor,
                }
            }
        })
        .collect();
    InstanceDelta { base_version: 1, edits }
}

/// One scheduled request.
struct Planned {
    due: Duration,
    tenant: TenantId,
    delta: InstanceDelta,
}

/// A Poisson schedule conditioned on its count: `count` arrival times drawn
/// uniformly over `seconds` and sorted, so every seed offers the same load.
fn plan(inst: &MaxMinInstance, rng: &mut StdRng, seconds: f64) -> (Vec<Planned>, BTreeSet<usize>) {
    let count = ((RATE_PER_S * seconds).round() as usize).max(CHECKED);
    let mut dues: Vec<f64> = (0..count).map(|_| rng.gen::<f64>() * seconds).collect();
    dues.sort_by(f64::total_cmp);
    let planned = dues
        .into_iter()
        .map(|due| Planned {
            due: Duration::from_secs_f64(due),
            tenant: rng.gen_range(1..=TENANTS),
            delta: churn_delta(inst, rng),
        })
        .collect();
    let mut checked = BTreeSet::new();
    while checked.len() < CHECKED {
        checked.insert(rng.gen_range(0..count));
    }
    (planned, checked)
}

type Reply = (Instant, Result<IncrementalRun, EngineError>, Instant);

/// What the collector keeps of one request (the batch itself is dropped as
/// soon as it has been checked).
struct Done {
    index: usize,
    due: Instant,
    lag: Duration,
    run_start: Instant,
    end: Instant,
    outcome: Result<Summary, String>,
}

struct Summary {
    finite: bool,
    on_workers: bool,
    affected: usize,
    job_bytes: usize,
    stats: SolveStats,
    mean_ball_objective: f64,
    /// Kept only for the checked sample.
    local_x: Option<Vec<Vec<f64>>>,
}

/// One open-loop window: every planned request is sent when due (or
/// refused), and its run start and completion are stamped inside it.
struct Window {
    done: Vec<Done>,
    refused: u64,
    admission_errors: Vec<String>,
    backlog_max: usize,
    start: Instant,
}

fn drive(
    service: &EngineService,
    base: &Arc<RegisteredBase>,
    planned: &[Planned],
    checked: &BTreeSet<usize>,
) -> Window {
    let (tx, rx) = mpsc::channel::<(usize, Instant, Duration, Ticket<Reply>)>();
    let keep = checked.clone();
    // The collector waits on tickets in send order; completion times are
    // stamped inside each request, so its waiting changes no latency.
    let collector = std::thread::spawn(move || {
        let mut done = Vec::new();
        for (index, due, lag, ticket) in rx {
            let (run_start, result, end) = match ticket.wait() {
                Ok(reply) => reply,
                Err(e) => {
                    let now = Instant::now();
                    let outcome = Err(e.to_string());
                    done.push(Done { index, due, lag, run_start: now, end: now, outcome });
                    continue;
                }
            };
            let outcome = result.map_err(|e| e.to_string()).map(|run| Summary {
                finite: run.batch.local_x.iter().flatten().all(|x| x.is_finite()),
                on_workers: run.batch.stats.stage_shards.iter().all(|s| s.backend == "subprocess"),
                affected: run.affected_agents,
                job_bytes: run.resolve_wire_bytes,
                mean_ball_objective: run.batch.ball_objectives.iter().sum::<f64>()
                    / run.batch.ball_objectives.len().max(1) as f64,
                stats: run.batch.stats.clone(),
                local_x: keep.contains(&index).then_some(run.batch.local_x),
            });
            done.push(Done { index, due, lag, run_start, end, outcome });
        }
        done
    });

    let mut window = Window {
        done: Vec::new(),
        refused: 0,
        admission_errors: Vec::new(),
        backlog_max: 0,
        start: Instant::now(),
    };
    for (index, p) in planned.iter().enumerate() {
        let due = window.start + p.due;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let lag = Instant::now().saturating_duration_since(due);
        let (base, delta) = (Arc::clone(base), p.delta.clone());
        // Exactly the call `EngineService::submit_incremental` admits, with
        // the run start and completion stamped inside the request.
        let submitted = service.inner().submit(p.tenant, move || {
            let run_start = Instant::now();
            let result = solve_local_lps_incremental(&base, &delta);
            (run_start, result, Instant::now())
        });
        match submitted {
            Ok(ticket) => {
                window.backlog_max = window.backlog_max.max(service.inner().waiting());
                tx.send((index, due, lag, ticket)).expect("collector thread alive");
            }
            // Typed backpressure: counted, never retried.
            Err(ServiceError::QueueFull { .. }) => window.refused += 1,
            Err(e) => window.admission_errors.push(format!("request {index}: {e}")),
        }
    }
    drop(tx);
    window.done = collector.join().expect("collector thread panicked");
    window
}

/// The end-to-end figures of one window.
struct Tally {
    latencies_ms: Vec<f64>,
    missed: u64,
    completed: u64,
    wall_s: f64,
}

/// Counts every request of a window as attempted, checks each result and
/// collects its latency from when it was due.
fn tally(out: &mut Outcome, w: &Window) -> Tally {
    let errors = w.admission_errors.len() as u64;
    out.attempted += w.done.len() as u64 + w.refused + errors;
    for e in &w.admission_errors {
        out.check(false, &format!("admission failed: {e}"));
    }
    let mut t =
        Tally { latencies_ms: Vec::new(), missed: w.refused + errors, completed: 0, wall_s: 0.0 };
    let mut last_end = w.start;
    for d in &w.done {
        let summary = match &d.outcome {
            Ok(s) => s,
            Err(e) => {
                out.check(false, &format!("request {}: {e}", d.index));
                t.missed += 1;
                continue;
            }
        };
        out.check(summary.finite, &format!("request {}: non-finite activity", d.index));
        out.check(
            summary.on_workers,
            &format!("request {}: a stage ran on another backend than the workers", d.index),
        );
        let latency = ms(d.end.saturating_duration_since(d.due));
        t.missed += u64::from(latency > LIMIT_MS || !summary.finite);
        t.latencies_ms.push(latency);
        t.completed += 1;
        last_end = last_end.max(d.end);
    }
    t.wall_s = last_end.saturating_duration_since(w.start).as_secs_f64();
    t
}

/// Re-checks the window's sample after the fact: each result must equal a
/// cold solve of its patched instance bit for bit, and re-solving it must
/// repeat its counters exactly.  Returns the sample's mean ball optima.
fn check_sample(
    out: &mut Outcome,
    base: &RegisteredBase,
    planned: &[Planned],
    w: &Window,
) -> Result<Vec<f64>, String> {
    let cold_options = LocalLpOptions {
        parallel: ParallelConfig::with_threads(THREADS),
        backend: BackendKind::ScopedThreads,
        ..LocalLpOptions::new(RADIUS)
    };
    let mut objectives = Vec::new();
    let mut counters = Vec::new();
    for d in &w.done {
        let Ok(Summary { local_x: Some(local_x), stats, job_bytes, mean_ball_objective, .. }) =
            &d.outcome
        else {
            continue;
        };
        let delta = &planned[d.index].delta;
        let patched = delta.apply(base.instance()).map_err(|e| e.to_string())?;
        let cold = solve_local_lps(&patched, &cold_options).map_err(|e| e.to_string())?;
        let identical = cold.local_x.len() == local_x.len()
            && cold.local_x.iter().zip(local_x).all(|(a, b)| same_bits(a, b));
        out.check(identical, &format!("request {}: differs from a cold solve", d.index));
        let again = solve_local_lps_incremental(base, delta).map_err(|e| e.to_string())?;
        let first = (stats.total_pivots, stats.unique_classes, *job_bytes);
        let second = (
            again.batch.stats.total_pivots,
            again.batch.stats.unique_classes,
            again.resolve_wire_bytes,
        );
        out.check(
            first == second,
            &format!("request {}: counters changed on re-solve: {first:?} vs {second:?}", d.index),
        );
        counters.push(format!(
            "#{}: lp.pivots={} engine.classes={} incremental.job_bytes={}",
            d.index, first.0, first.1, first.2
        ));
        objectives.push(*mean_ball_objective);
    }
    out.note(format!("determinism (re-solved, repeated exactly): {}", counters.join("; ")));
    Ok(objectives)
}

/// Records a traced window's requests as spans.
fn trace_window(trace: &mut Trace, w: &Window, t: &Tally) {
    let mut last_end = w.start;
    for d in &w.done {
        let Ok(s) = &d.outcome else { continue };
        let request = d.index as u64;
        let root = trace.measured(
            None,
            request,
            "service.request",
            d.due,
            d.end,
            vec![("generator_lag_ms", ms(d.lag))],
        );
        trace.measured(Some(root), request, "service.queue_wait", d.due, d.run_start, Vec::new());
        let run =
            trace.measured(Some(root), request, "service.run", d.run_start, d.end, Vec::new());
        let resolve = trace.measured(
            Some(run),
            request,
            "incremental.resolve",
            d.run_start,
            d.end,
            vec![("affected_agents", s.affected as f64), ("job_bytes", s.job_bytes as f64)],
        );
        trace.engine_stats(resolve, &s.stats, false);
        last_end = last_end.max(d.end);
    }
    trace.measured(
        None,
        u64::MAX,
        "service.window",
        w.start,
        last_end,
        vec![
            (
                "requests",
                (w.done.len() as u64 + w.refused + w.admission_errors.len() as u64) as f64,
            ),
            ("refused", w.refused as f64),
            ("backlog_max", w.backlog_max as f64),
            ("slo_missed", t.missed as f64),
        ],
    );
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let options = LocalLpOptions {
        parallel: ParallelConfig::with_threads(THREADS),
        backend: BackendKind::Subprocess { workers: THREADS, overlapped: true },
        ..LocalLpOptions::new(RADIUS)
    };
    let mut trace = Trace::new();
    // Set-up: the instance, the worker check, registration of the base
    // (the cold solve on the workers) and one warm-up re-solve, which ships
    // the base context to each worker once.
    let mut register = None;
    let ((inst, base), setup_walls) = measure::repeat_setup(|| {
        let inst = grid_instance(
            &GridConfig { side_lengths: vec![SIDE, SIDE], torus: false, random_weights: true },
            &mut StdRng::seed_from_u64(INSTANCE_SEED),
        );
        measure::require_subprocess_workers()?;
        let start = Instant::now();
        let base = register_base(&inst, &options, 1).map_err(|e| format!("register_base: {e}"))?;
        register = Some((start, Instant::now()));
        let warm_delta = churn_delta(&inst, &mut StdRng::seed_from_u64(args.seed));
        let warm = solve_local_lps_incremental(&base, &warm_delta)
            .map_err(|e| format!("warm-up re-solve: {e}"))?;
        if !warm.batch.stats.stage_shards.iter().all(|s| s.backend == "subprocess") {
            return Err("the warm-up re-solve did not run on the subprocess workers".into());
        }
        Ok((inst, Arc::new(base)))
    })?;
    let (start, end) = register.expect("set-up ran");
    trace.measured(
        None,
        0,
        "incremental.register",
        start,
        end,
        vec![("context_bytes", base.context_wire_bytes() as f64)],
    );

    // Every schedule and delta exists before timing starts.  A traced run
    // measures an untraced and a traced window of half the length each.
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5eed_5eed);
    let window_s = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let plans: Vec<_> = (0..if args.trace { 2 } else { 1 })
        .map(|_| plan(&inst, &mut rng, window_s))
        .collect();
    let service =
        EngineService::new(ServiceConfig { workers: THREADS, queue_capacity: QUEUE_CAPACITY });
    let windows: Vec<Window> = plans
        .iter()
        .map(|(planned, checked)| drive(&service, &base, planned, checked))
        .collect();
    service.drain();

    let mut tallies = Vec::new();
    let mut objectives = Vec::new();
    for (w, (planned, _)) in windows.iter().zip(&plans) {
        tallies.push(tally(&mut out, w));
        objectives.extend(check_sample(&mut out, &base, planned, w)?);
    }
    for w in &windows {
        let lags: Vec<f64> = w.done.iter().map(|d| ms(d.lag)).collect();
        out.note(format!(
            "window: {} sent, {} refused, backlog max {}, generator lag max {:.3} ms",
            w.done.len() as u64 + w.refused,
            w.refused,
            w.backlog_max,
            lags.iter().copied().fold(0.0, f64::max)
        ));
    }

    if args.trace {
        trace_window(&mut trace, &windows[1], &tallies[1]);
        for _ in 0..5 {
            trace.time(u64::MAX, "hypergraph.balls", || {
                let (h, _) = communication_hypergraph(&inst);
                black_box(h.all_balls(RADIUS))
            });
        }
        let path = trace::trace_path(&args.workload, args.seed);
        trace
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        out.note(format!("trace written to {}", path.display()));
        let overhead = median(&tallies[1].latencies_ms) / median(&tallies[0].latencies_ms) - 1.0;
        trace::per_layer(&trace, overhead, &mut out);
    } else {
        let t = tallies.pop().expect("one window");
        measure::end_to_end(
            &mut out,
            EndToEnd {
                agents_per_s: inst.num_agents() as f64 * t.completed as f64 / t.wall_s,
                latencies_ms: t.latencies_ms,
                objective: median(&objectives),
                setup_walls_s: setup_walls,
                slo_missed: Some(t.missed),
            },
        );
    }
    Ok(out)
}
