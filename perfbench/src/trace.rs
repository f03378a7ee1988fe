//! The traced run's span recorder and the per-layer metrics derived from it.
//!
//! Spans live in memory and are written out as JSON lines when the run ends.
//! A span is *measured* when the benchmark timed the call itself, and
//! *derived* when its duration is a counter the call returned (the engine's
//! `StageTimings`, the worker-reported `ShardStats::wall`): derived children
//! are laid out back to back from their parent's start, since the library
//! reports their lengths but not their start times.

use crate::measure::median;
use crate::Outcome;
use maxmin_local_lp::prelude::*;
use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Spans of one call or request share this identifier.
    pub request: u64,
    pub name: &'static str,
    pub start: Instant,
    pub duration: Duration,
    pub derived: bool,
    pub counters: Vec<(&'static str, f64)>,
}

/// An engine stage as reported: its span name, wall and counters.
type StageRow = (&'static str, Duration, Vec<(&'static str, f64)>);

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    /// Records a measured span and returns its id.
    pub fn measured(
        &mut self,
        parent: Option<usize>,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        counters: Vec<(&'static str, f64)>,
    ) -> usize {
        self.push(
            parent,
            request,
            name,
            start,
            end.saturating_duration_since(start),
            false,
            counters,
        )
    }

    /// Times `f` as a measured top-level span.
    pub fn time<R>(&mut self, request: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.measured(None, request, name, start, Instant::now(), Vec::new());
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        parent: Option<usize>,
        request: u64,
        name: &'static str,
        start: Instant,
        duration: Duration,
        derived: bool,
        counters: Vec<(&'static str, f64)>,
    ) -> usize {
        let id = self.spans.len();
        self.spans
            .push(Span { id, parent, request, name, start, duration, derived, counters });
        id
    }

    /// Records what one engine call reported about itself as derived
    /// children of `parent` (the span timing the call): one span per engine
    /// stage with its counters, one `transport.stages` span covering the
    /// stages that went through the backend (its counter is the sum of each
    /// stage's critical-path shard wall), and the parent's self time as
    /// `averaging.assemble` when `assemble` is set.
    pub fn engine_stats(&mut self, parent: usize, stats: &SolveStats, assemble: bool) {
        let (request, mut at) = (self.spans[parent].request, self.spans[parent].start);
        let t = &stats.timings;
        let stages: [StageRow; 4] = [
            (
                "engine.present",
                t.enumerate,
                vec![
                    ("balls", stats.balls_enumerated as f64),
                    ("presentations", stats.distinct_presentations as f64),
                ],
            ),
            ("engine.canonicalise", t.canonicalise, vec![("classes", stats.unique_classes as f64)]),
            (
                "engine.solve",
                t.solve,
                vec![
                    ("lp_solves", stats.lp_solves as f64),
                    ("pivots", stats.total_pivots as f64),
                    ("installs", stats.total_installs as f64),
                    ("warm_attempts", stats.warm_attempts as f64),
                    ("warm_accepted", stats.warm_accepted as f64),
                    ("dual_attempts", stats.dual_attempts as f64),
                    ("dual_accepted", stats.dual_accepted as f64),
                ],
            ),
            ("engine.scatter", t.scatter, Vec::new()),
        ];
        let mut covered = Duration::ZERO;
        for (name, duration, counters) in stages {
            self.push(Some(parent), request, name, at, duration, true, counters);
            at += duration;
            covered += duration;
        }
        // Only stages a transport backend ran count: on the in-process
        // backends there is no transport to attribute.  Stage labels name
        // their engine stage; a stage may appear more than once in
        // `stage_shards` but its wall is counted once.
        let mut staged = HashSet::new();
        let mut staged_wall = Duration::ZERO;
        let mut compute = Duration::ZERO;
        let transported = stats
            .stage_shards
            .iter()
            .filter(|s| s.backend.starts_with("subprocess") || s.backend.starts_with("loopback"));
        for s in transported {
            compute += s.critical_path();
            let wall = [
                ("present", t.enumerate),
                ("canonicalise", t.canonicalise),
                ("solve", t.solve),
                ("scatter", t.scatter),
            ]
            .into_iter()
            .find(|(label, _)| s.stage.contains(label));
            if let Some((label, wall)) = wall {
                if staged.insert(label) {
                    staged_wall += wall;
                }
            }
        }
        let start = self.spans[parent].start;
        self.push(
            Some(parent),
            request,
            "transport.stages",
            start,
            staged_wall,
            true,
            vec![("worker_compute_ms", ms(compute))],
        );
        if assemble {
            let own = self.spans[parent].duration.saturating_sub(covered);
            self.push(Some(parent), request, "averaging.assemble", at, own, true, Vec::new());
        }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median duration of the spans called `name`, in ms (0 when none).
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.named(name).map(|s| ms(s.duration)).collect::<Vec<_>>())
    }

    /// Median of one counter over the spans called `name` (0 when none).
    pub fn median_counter(&self, name: &str, key: &str) -> f64 {
        median(&self.counters(name, key))
    }

    /// Sum of one counter over the spans called `name`.
    pub fn sum_counter(&self, name: &str, key: &str) -> f64 {
        self.counters(name, key).iter().fold(0.0, |a, b| a + b)
    }

    fn counters(&self, name: &str, key: &str) -> Vec<f64> {
        self.named(name)
            .filter_map(|s| s.counters.iter().find(|(k, _)| *k == key).map(|&(_, v)| v))
            .collect()
    }

    /// Median over the spans called `name` of their duration minus one of
    /// their counters (a span's wall less the part a counter attributes).
    fn median_ms_less(&self, name: &str, key: &str) -> f64 {
        let v: Vec<f64> = self
            .named(name)
            .filter_map(|s| {
                let c = s.counters.iter().find(|(k, _)| *k == key)?.1;
                Some(ms(s.duration) - c)
            })
            .collect();
        median(&v)
    }

    /// Median over the spans called `name` of `counter / duration`, per s.
    fn median_rate(&self, name: &str, key: &str) -> f64 {
        let v: Vec<f64> = self
            .named(name)
            .filter_map(|s| {
                let c = s.counters.iter().find(|(k, _)| *k == key)?.1;
                Some(c / s.duration.as_secs_f64())
            })
            .collect();
        median(&v)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\": {}", finite(*v)))
                .collect();
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ms\": {}, \"duration_ms\": {}, \"derived\": {}, \"counters\": {{{}}}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.name,
                finite(ms(s.start.saturating_duration_since(self.origin))),
                finite(ms(s.duration)),
                s.derived,
                counters.join(", ")
            )?;
        }
        out.flush()
    }
}

fn finite(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Where a traced run writes its spans: under the build directory, which
/// the repository ignores.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    dir.join("perfbench-traces").join(format!("{workload}-seed{seed}.jsonl"))
}

/// Derives every per-layer metric from the spans, in `BENCHMARK.json`
/// order.  A layer the workload never enters reads 0.
pub fn per_layer(trace: &Trace, overhead_ratio: f64, out: &mut Outcome) {
    let t = trace;
    out.metric("hypergraph.balls_ms", t.median_ms("hypergraph.balls"), "ms");
    out.metric("engine.present_ms", t.median_ms("engine.present"), "ms");
    out.metric("engine.canonicalise_ms", t.median_ms("engine.canonicalise"), "ms");
    out.metric("engine.solve_ms", t.median_ms("engine.solve"), "ms");
    out.metric("engine.scatter_ms", t.median_ms("engine.scatter"), "ms");
    out.metric("engine.balls", t.median_counter("engine.present", "balls"), "count");
    out.metric(
        "engine.presentations",
        t.median_counter("engine.present", "presentations"),
        "count",
    );
    out.metric("engine.classes", t.median_counter("engine.canonicalise", "classes"), "count");
    let balls = t.sum_counter("engine.present", "balls");
    out.metric(
        "engine.presentations_kept_ratio",
        ratio(t.sum_counter("engine.present", "presentations"), balls),
        "ratio",
    );
    out.metric(
        "engine.dedup_ratio",
        ratio(balls, t.sum_counter("engine.solve", "lp_solves")),
        "ratio",
    );
    out.metric("lp.solves", t.median_counter("engine.solve", "lp_solves"), "count");
    out.metric("lp.pivots", t.median_counter("engine.solve", "pivots"), "count");
    out.metric("lp.installs", t.median_counter("engine.solve", "installs"), "count");
    out.metric("lp.warm_attempts", t.median_counter("engine.solve", "warm_attempts"), "count");
    out.metric(
        "lp.warm_accept_ratio",
        ratio(
            t.sum_counter("engine.solve", "warm_accepted"),
            t.sum_counter("engine.solve", "warm_attempts"),
        ),
        "ratio",
    );
    out.metric("lp.dual_attempts", t.median_counter("engine.solve", "dual_attempts"), "count");
    out.metric(
        "lp.dual_accept_ratio",
        ratio(
            t.sum_counter("engine.solve", "dual_accepted"),
            t.sum_counter("engine.solve", "dual_attempts"),
        ),
        "ratio",
    );
    out.metric("averaging.assemble_ms", t.median_ms("averaging.assemble"), "ms");
    out.metric("incremental.resolve_ms", t.median_ms("incremental.resolve"), "ms");
    out.metric(
        "incremental.affected_agents",
        t.median_counter("incremental.resolve", "affected_agents"),
        "count",
    );
    out.metric(
        "incremental.job_bytes",
        t.median_counter("incremental.resolve", "job_bytes"),
        "bytes",
    );
    out.metric(
        "incremental.context_bytes",
        t.median_counter("incremental.register", "context_bytes"),
        "bytes",
    );
    out.metric("service.requests", t.sum_counter("service.window", "requests"), "count");
    out.metric("service.queue_wait_ms", t.median_ms("service.queue_wait"), "ms");
    out.metric("service.run_ms", t.median_ms("service.run"), "ms");
    out.metric("service.refused", t.sum_counter("service.window", "refused"), "count");
    out.metric("service.backlog_max", t.median_counter("service.window", "backlog_max"), "count");
    out.metric(
        "service.generator_lag_ms",
        t.median_counter("service.request", "generator_lag_ms"),
        "ms",
    );
    out.metric(
        "service.slo_miss_ratio",
        ratio(
            t.sum_counter("service.window", "slo_missed"),
            t.sum_counter("service.window", "requests"),
        ),
        "ratio",
    );
    out.metric(
        "transport.worker_compute_ms",
        t.median_counter("transport.stages", "worker_compute_ms"),
        "ms",
    );
    out.metric(
        "transport.overhead_ms",
        t.median_ms_less("transport.stages", "worker_compute_ms"),
        "ms",
    );
    out.metric("distsim.rounds", t.median_counter("distsim.run", "rounds"), "count");
    out.metric("distsim.messages", t.median_counter("distsim.run", "messages"), "count");
    out.metric("distsim.message_units", t.median_counter("distsim.run", "message_units"), "count");
    out.metric("distsim.rounds_per_s", t.median_rate("distsim.run", "rounds"), "1/s");
    out.metric("distsim.gather_ms", t.median_ms("distsim.gather_views"), "ms");
    out.metric("distsim.rule_ms", t.median_ms("distsim.apply_rule_direct"), "ms");
    out.metric("trace.overhead_ratio", overhead_ratio, "ratio");
}
