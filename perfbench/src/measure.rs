//! Shared measurement helpers: order statistics, the end-to-end metric set,
//! set-up repetition, the worker check, peak memory and bit comparison.

use crate::Outcome;
use maxmin_local_lp::parallel::pooled_subprocess_backend;
use maxmin_local_lp::prelude::*;
use std::time::Instant;

/// Set-up runs this many times per invocation; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Busy threads or worker links every workload uses (the reference box has
/// two cores).
pub const THREADS: usize = 2;

/// Median of a sample (0 for an empty one).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile with at least ten
/// samples beyond it, i.e. the eleventh-largest sample, and that percentile.
/// A sample of ten or fewer has no such percentile; its maximum stands in.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= 10 {
        return (s.last().copied().unwrap_or(0.0), 100.0);
    }
    (s[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Peak resident set of this (host) process in MB; worker processes are
/// not included.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` [`SETUP_REPEATS`] times and keeps the last result, with the
/// wall of every repetition in seconds.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut walls = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        last = Some(setup()?);
        walls.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPEATS > 0"), walls))
}

/// Fails unless this binary can serve as its own worker: the explicit probe
/// and the pooled engine backend's own capability verdict must both hold,
/// or the pooled backend would quietly serve through the in-memory loopback
/// and the numbers would describe another transport.
pub fn require_subprocess_workers() -> Result<(), String> {
    probe_worker(&WorkerCommand::auto()).map_err(|e| format!("worker probe failed: {e}"))?;
    let pooled = pooled_subprocess_backend(THREADS, true, &engine_registry());
    match pooled.probe_failure() {
        None => Ok(()),
        Some(reason) => Err(format!("pooled subprocess backend unavailable: {reason}")),
    }
}

/// Whether two float vectors are equal bit for bit.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The end-to-end figures of one untraced run.
pub struct EndToEnd {
    pub latencies_ms: Vec<f64>,
    pub agents_per_s: f64,
    pub objective: f64,
    pub setup_walls_s: Vec<f64>,
    /// Requests sent that missed the latency limit (open loop only).
    pub slo_missed: Option<u64>,
}

/// Reports every end-to-end metric, in `BENCHMARK.json` order, plus the
/// failure and latency-limit ratios, which can read 0 and so are printed
/// as notes rather than bounded metrics.
pub fn end_to_end(out: &mut Outcome, e: EndToEnd) {
    let (tail_ms, pct) = tail(&e.latencies_ms);
    out.note(format!(
        "latency sample {} ; tail_ms is p{pct:.1} (the 11th-largest sample)",
        e.latencies_ms.len()
    ));
    out.note(format!(
        "failed_ratio {} ratio ({} of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    if let Some(missed) = e.slo_missed {
        out.note(format!(
            "slo_miss_ratio {} ratio ({missed} of {} sent)",
            missed as f64 / out.attempted.max(1) as f64,
            out.attempted
        ));
    }
    out.note(format!("setup walls (s): {:?}", e.setup_walls_s));
    out.metric("p50_ms", median(&e.latencies_ms), "ms");
    out.metric("tail_ms", tail_ms, "ms");
    out.metric("agents_per_s", e.agents_per_s, "1/s");
    out.metric("objective", e.objective, "omega");
    out.metric("setup_s", median(&e.setup_walls_s), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Counters that must repeat exactly for identical inputs within a run.
pub struct Repeats {
    first: Option<Vec<(&'static str, f64)>>,
    checked: u64,
}

impl Repeats {
    pub fn new() -> Self {
        Self { first: None, checked: 0 }
    }

    /// Compares `counters` with the first set seen; a mismatch fails the
    /// check.
    pub fn observe(&mut self, out: &mut Outcome, counters: Vec<(&'static str, f64)>) {
        self.checked += 1;
        match &self.first {
            None => self.first = Some(counters),
            Some(first) => out.check(
                *first == counters,
                &format!("counters changed between identical calls: {first:?} vs {counters:?}"),
            ),
        }
    }

    /// Prints the counters and how often they repeated.
    pub fn report(&self, out: &mut Outcome) {
        if let Some(first) = &self.first {
            let shown: Vec<String> = first.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.note(format!(
                "determinism: {} (compared over {} identical calls)",
                shown.join(" "),
                self.checked
            ));
        }
    }
}
