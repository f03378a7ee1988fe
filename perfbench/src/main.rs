//! The repository's benchmark: three workloads over the local-averaging
//! stack, each checked for correct output, printing every end-to-end metric
//! (untraced run) or every per-layer metric (traced run) by name and unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is non-zero
//! when an output check failed.  See `README.md` for the workloads, the
//! metric definitions and the settings.

mod drift_serve;
mod grid_cold;
mod measure;
mod sim_rule;
mod trace;

use maxmin_local_lp::parallel::WORKER_BIN_ENV;
use maxmin_local_lp::prelude::*;
use std::os::unix::process::CommandExt;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Set in the child that runs the workload; absent in the supervisor.
const ROLE_ENV: &str = "PERFBENCH_ROLE";
/// The supervisor stops a run that takes longer than this.
const RUN_LIMIT: Duration = Duration::from_secs(170);
/// How long the supervisor waits for the run's worker processes to end.
const WORKERS_LIMIT: Duration = Duration::from_secs(10);

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (calls, runs or requests sent).
    pub attempted: u64,
    /// Operations that errored or whose output check failed.
    pub failed: u64,
    /// Every end-to-end metric (untraced run) or per-layer metric (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records one output check; a failed check counts as a failed operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A JSON number; non-finite values have no JSON form and are refused.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// Whether a process of group `pgid` is still running (zombies have ended).
fn group_running(pgid: u32) -> bool {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return false;
    };
    entries.flatten().any(|entry| {
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            return false;
        };
        // `pid (comm) state ppid pgrp ...`; comm may hold spaces or parens.
        let Some(fields) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
            return false;
        };
        let mut fields = fields.split_whitespace();
        let state = fields.next();
        let pgrp = fields.nth(1).and_then(|f| f.parse::<u32>().ok());
        pgrp == Some(pgid) && state != Some("Z")
    })
}

/// Runs the workload in a child process leading its own process group,
/// then waits until every process of that group — the subprocess workers
/// the pooled backends spawned, which live until the child exits — has
/// ended.  The child's exit code is passed on.
fn supervise() -> ExitCode {
    let spawned = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env(ROLE_ENV, "run")
            .process_group(0)
            .spawn()
    });
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: cannot start the run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if start.elapsed() > RUN_LIMIT => {
                eprintln!("perfbench: run exceeded {RUN_LIMIT:?}; stopping it");
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                eprintln!("perfbench: waiting for the run failed: {e}");
                break None;
            }
        }
    };
    let group = child.id();
    let waiting = Instant::now();
    while group_running(group) {
        if waiting.elapsed() > WORKERS_LIMIT {
            eprintln!("perfbench: worker processes of group {group} did not end");
            return ExitCode::FAILURE;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    match status.and_then(|s| s.code()) {
        Some(0) => ExitCode::SUCCESS,
        Some(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
        None => ExitCode::FAILURE,
    }
}

fn main() -> ExitCode {
    // Worker mode: the subprocess backend re-executes this binary with
    // `--mmlp-worker`, so the benchmark is its own engine worker.
    if serve_engine_worker_if_requested() {
        return ExitCode::SUCCESS;
    }
    if std::env::var_os(ROLE_ENV).is_none() {
        return supervise();
    }
    // Pin the worker binary to this executable, so the subprocess backends
    // never pick up a sibling `mmlp-worker` from another build.
    match std::env::current_exe() {
        Ok(exe) => std::env::set_var(WORKER_BIN_ENV, exe),
        Err(e) => {
            eprintln!("perfbench: cannot resolve the current executable: {e}");
            return ExitCode::from(2);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <grid-cold|drift-serve|sim-rule> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "grid-cold" => grid_cold::run,
        "drift-serve" => drift_serve::run,
        "sim-rule" => sim_rule::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: workload {} could not run: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &outcome.notes {
        println!("  {line}");
    }
    for m in &outcome.metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
