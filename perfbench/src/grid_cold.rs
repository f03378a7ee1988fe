//! `grid-cold`: one caller runs `local_averaging` back to back on the 50×50
//! unit-weight grid at R = 2 with two scoped threads — the paper's algorithm
//! used as a batch computation.  Ball enumeration, presentation and
//! canonicalisation plus the averaging assembly do most of the work; the
//! simplex does little, and no transport or service is involved.

use crate::measure::{self, median, EndToEnd, Repeats, THREADS};
use crate::trace::{self, ms, Trace};
use crate::{Args, Outcome};
use maxmin_local_lp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

const SIDE: usize = 50;
const RADIUS: usize = 2;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let options = LocalAveragingOptions {
        parallel: ParallelConfig::with_threads(THREADS),
        backend: BackendKind::ScopedThreads,
        ..LocalAveragingOptions::new(RADIUS)
    };
    // Set-up: the instance (unit weights, so the seed changes nothing), the
    // reference objective on the sequential backend, and one warm-up call.
    let ((inst, omega), setup_walls) = measure::repeat_setup(|| {
        let inst = grid_instance(
            &GridConfig { side_lengths: vec![SIDE, SIDE], torus: false, random_weights: false },
            &mut StdRng::seed_from_u64(args.seed),
        );
        let reference = local_averaging(&inst, &LocalAveragingOptions::sequential(RADIUS))
            .map_err(|e| format!("sequential reference: {e}"))?;
        let omega = inst.objective(&reference.solution).map_err(|e| e.to_string())?;
        black_box(local_averaging(&inst, &options).map_err(|e| format!("warm-up: {e}"))?);
        Ok((inst, omega))
    })?;
    let agents = inst.num_agents();

    let mut repeats = Repeats::new();
    let mut trace = Trace::new();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let window = Instant::now();
    let mut request = 0u64;
    while window.elapsed().as_secs_f64() < args.seconds {
        request += 1;
        // The traced run alternates traced and untraced calls, so the two
        // halves see the same conditions and their ratio is the overhead.
        let traced = args.trace && request.is_multiple_of(2);
        out.attempted += 1;
        let start = Instant::now();
        let result = local_averaging(&inst, &options);
        let end = Instant::now();
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                out.check(false, &format!("call {request}: {e}"));
                continue;
            }
        };
        if traced {
            traced_ms.push(ms(end - start));
            let root = trace.measured(
                None,
                request,
                "averaging.local_averaging",
                start,
                end,
                vec![("agents", agents as f64)],
            );
            trace.engine_stats(root, &result.stats, true);
            trace.time(request, "hypergraph.balls", || {
                let (h, _) = communication_hypergraph(&inst);
                black_box(h.all_balls(RADIUS))
            });
        } else {
            untraced_ms.push(ms(end - start));
        }
        out.check(inst.is_feasible(&result.solution, 1e-7), "solution infeasible at tol 1e-7");
        let got = inst.objective(&result.solution).map_err(|e| e.to_string())?;
        out.check(
            got.to_bits() == omega.to_bits(),
            &format!("objective {got} differs from the sequential reference {omega}"),
        );
        repeats.observe(
            &mut out,
            vec![
                ("lp.pivots", result.stats.total_pivots as f64),
                ("engine.classes", result.stats.unique_classes as f64),
            ],
        );
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
