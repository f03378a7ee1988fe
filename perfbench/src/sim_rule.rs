//! `sim-rule`: one caller runs `run_wire_rule(LocalAveraging { radius: 1 })`
//! back to back on a 16×16 random-weight grid, with the simulator on two
//! subprocess workers — the paper's algorithm in its honest distributed
//! form.  Simulator rounds, their transport and the per-node LP solves (no
//! dedup) do the work; the engine, incremental path and service do none.

use crate::measure::{self, median, same_bits, EndToEnd, Repeats, THREADS};
use crate::trace::{self, ms, Trace};
use crate::{Args, Outcome};
use maxmin_local_lp::parallel::{pooled_subprocess_backend, StageRun, TransportError, WireStage};
use maxmin_local_lp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SIDE: usize = 16;
const RADIUS: usize = 1;
const BACKEND: BackendKind = BackendKind::Subprocess { workers: THREADS, overlapped: true };
/// The grid's weights are fixed: the objective is then one exact number, and
/// the spread over seeds is run-to-run noise alone.
const INSTANCE_SEED: u64 = 16;

/// A backend that forwards to another and records, per wire stage, its
/// wall as seen from the host, the worker-reported critical path and the
/// name of the backend that really ran it.
struct Recorded<'a, B> {
    inner: &'a B,
    stages: Mutex<Vec<(Duration, Duration, &'static str)>>,
}

impl<B: SolveBackend> SolveBackend for Recorded<'_, B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&self, items: usize) -> Vec<Shard> {
        self.inner.plan(items)
    }

    fn execute<R, F>(&self, stage: &'static str, items: usize, f: F) -> StageRun<R>
    where
        R: Send,
        F: Fn(&Shard) -> R + Sync,
    {
        self.inner.execute(stage, items, f)
    }

    fn execute_stage<S: WireStage>(
        &self,
        items: usize,
        stage: &S,
    ) -> Result<StageRun<S::Output>, TransportError> {
        let start = Instant::now();
        let run = self.inner.execute_stage(items, stage)?;
        let wall = start.elapsed();
        self.stages.lock().expect("stage log lock poisoned").push((
            wall,
            run.stats.critical_path(),
            run.stats.backend,
        ));
        Ok(run)
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let rule = WireRule::LocalAveraging { radius: RADIUS };
    let simplex = SimplexOptions::default();
    let parallel = ParallelConfig::with_threads(THREADS);
    let simulator = Simulator::with_config(SimulatorConfig {
        backend: BACKEND,
        parallel,
        ..Default::default()
    });
    // Set-up: the instance, the central reference solution, the worker
    // check and one warm-up run (spawns the pooled workers).  A closed loop
    // on a fixed instance: the seed changes nothing.
    let ((inst, reference), setup_walls) = measure::repeat_setup(|| {
        let inst = grid_instance(
            &GridConfig { side_lengths: vec![SIDE, SIDE], torus: false, random_weights: true },
            &mut StdRng::seed_from_u64(INSTANCE_SEED),
        );
        let reference = local_averaging(&inst, &LocalAveragingOptions::sequential(RADIUS))
            .map_err(|e| format!("central reference: {e}"))?
            .solution;
        measure::require_subprocess_workers()?;
        let warm = run_wire_rule(&inst, rule, &simplex, &simulator)
            .map_err(|e| format!("warm-up: {e}"))?;
        if !same_bits(warm.solution.activities(), reference.activities()) {
            return Err("warm-up run differs from the central result".into());
        }
        Ok((inst, reference))
    })?;
    let agents = inst.num_agents();
    let omega = inst.objective(&reference).map_err(|e| e.to_string())?;
    let pooled = pooled_subprocess_backend(THREADS, true, &engine_registry());

    let mut repeats = Repeats::new();
    let mut trace = Trace::new();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let window = Instant::now();
    let mut request = 0u64;
    while window.elapsed().as_secs_f64() < args.seconds {
        request += 1;
        let traced = args.trace && request.is_multiple_of(2);
        out.attempted += 1;
        let recorded = Recorded { inner: &*pooled, stages: Mutex::new(Vec::new()) };
        let start = Instant::now();
        // The traced call is `run_wire_rule` spelled out, so the recording
        // backend sits between the simulator and the pooled workers.
        let result = if traced {
            let (h, _) = communication_hypergraph(&inst);
            let network = Network::from_hypergraph(&h);
            let program = LocalRuleProgram::new(&inst, rule, simplex);
            simulator
                .run_wire_on(&network, &program, &recorded)
                .map(|r| (r.outputs, r.rounds, r.messages, r.message_units))
        } else {
            run_wire_rule(&inst, rule, &simplex, &simulator)
                .map(|r| (r.solution.into_vec(), r.rounds, r.messages, r.message_units))
        };
        let end = Instant::now();
        let (activities, rounds, messages, units) = match result {
            Ok(r) => r,
            Err(e) => {
                out.check(false, &format!("run {request}: {e}"));
                continue;
            }
        };
        if traced {
            traced_ms.push(ms(end - start));
            let root = trace.measured(
                None,
                request,
                "distsim.run",
                start,
                end,
                vec![
                    ("rounds", rounds as f64),
                    ("messages", messages as f64),
                    ("message_units", units as f64),
                ],
            );
            let stages = recorded.stages.into_inner().expect("stage log lock poisoned");
            let wall: Duration = stages.iter().map(|s| s.0).sum();
            let compute: Duration = stages.iter().map(|s| s.1).sum();
            trace.measured(
                Some(root),
                request,
                "transport.stages",
                start,
                start + wall,
                vec![("worker_compute_ms", ms(compute))],
            );
            out.check(
                stages.iter().all(|s| s.2 == "subprocess"),
                "a simulator round ran on another backend than the subprocess workers",
            );
            let gathered = trace.time(request, "distsim.gather_views", || {
                gather_views(&inst, rule.horizon(), &simulator)
            });
            let gathered = gathered.map_err(|e| format!("gather_views: {e}"))?;
            out.check(gathered.messages == messages, "gather_views sent another message count");
            let direct = trace.time(request, "distsim.apply_rule_direct", || {
                apply_rule_direct(&inst, rule.horizon(), &parallel, |view| {
                    local_averaging_activity_from_view(view, RADIUS, &simplex)
                })
            });
            out.check(
                same_bits(direct.activities(), reference.activities()),
                "apply_rule_direct differs from the central result",
            );
            trace.time(request, "hypergraph.balls", || {
                let (h, _) = communication_hypergraph(&inst);
                black_box(h.all_balls(RADIUS))
            });
        } else {
            untraced_ms.push(ms(end - start));
        }
        out.check(
            same_bits(&activities, reference.activities()),
            "distributed solution differs from the central local_averaging result",
        );
        repeats.observe(&mut out, vec![("distsim.messages", messages as f64)]);
    }
    let window_s = window.elapsed().as_secs_f64();
    repeats.report(&mut out);

    if args.trace {
        let path = trace::trace_path(&args.workload, args.seed);
        trace
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        out.note(format!("trace written to {}", path.display()));
        let overhead = median(&traced_ms) / median(&untraced_ms) - 1.0;
        trace::per_layer(&trace, overhead, &mut out);
    } else {
        measure::end_to_end(
            &mut out,
            EndToEnd {
                agents_per_s: agents as f64 * untraced_ms.len() as f64 / window_s,
                latencies_ms: untraced_ms,
                objective: omega,
                setup_walls_s: setup_walls,
                slo_missed: None,
            },
        );
    }
    Ok(out)
}
