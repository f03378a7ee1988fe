//! The local approximation algorithm of Theorem 3 (Section 5 of the paper).
//!
//! Fix a radius `R ≥ 1`.  For every agent `u` let `V^u = B_H(u, R)` and let
//! `x^u` be an optimal solution of the local LP (9): the max-min LP restricted
//! to the agents of `V^u`, with every resource clipped to `V^u_i = V_i ∩ V^u`
//! and only the parties entirely inside the ball (`K^u`) kept in the
//! objective.  Every agent `j` then outputs
//!
//! ```text
//! β_j = min_{i ∈ I_j} n_i / N_i ,        x̃_j = (β_j / |V^j|) Σ_{u ∈ V^j} x^u_j
//! ```
//!
//! where `n_i = min_{j ∈ V_i} |V^j|` and `N_i = |⋃_{j ∈ V_i} V^j|`.  The
//! scaling by `β_j / |V^j|` turns the averaged local optima into a globally
//! feasible solution (Section 5.2), and the benefit analysis (Section 5.3)
//! shows the objective is within `max_k M_k/m_k · max_i N_i/n_i ≤
//! γ(R−1)·γ(R)` of the optimum.
//!
//! The module provides the fast centralised computation
//! ([`local_averaging`]) and the honest per-agent rule
//! ([`local_averaging_activity_from_view`]) that only looks at the agent's
//! radius-`2R+1` view; the two produce identical solutions.
//!
//! The central computation dispatches the per-agent local LPs through the
//! batched local-LP engine ([`crate::engine`]): structurally identical ball
//! LPs are detected by canonicalisation and solved once.  The view rule
//! builds every ball LP of its own view with the engine's ball enumeration
//! and presentation sweep — one ball-LP builder for both.  Because every
//! path solves the *canonical* form of each ball LP, the batched default,
//! the [`SolveMode::NaivePerAgent`] reference mode and the view-based rule
//! all produce bit-identical solutions; the engine's [`SolveStats`] are
//! surfaced in [`LocalAveragingResult::stats`].
//!
//! The rule's one body takes a memo keyed on the presentation key words
//! (exact coefficient bits and ball-local indices), whose value is the
//! ball's local optimum in presentation order.  A simulator evaluating many
//! nodes' rules in one process hands them one memo per run
//! ([`crate::runner::LocalRuleProgram`]), so a ball that lies in many views
//! is built, canonicalised and solved once there; the public
//! [`local_averaging_activity_from_view`] passes a fresh memo and shares
//! nothing.  Every node still *computes* each of its ball LPs — the memo
//! only lets the simulator skip repeating identical pure work, which
//! [`RuleStats`] counts.

use crate::engine::{
    solve_local_lps, unpermute_values, EngineError, LocalLpOptions, PresentSweep, SolveMode,
    SolveStats,
};
use mmlp_core::canonical::canonical_form;
use mmlp_core::{AgentId, InstanceBuilder, MaxMinInstance, PartyId, ResourceId, Solution};
use mmlp_distsim::LocalView;
use mmlp_hypergraph::{communication_hypergraph, BallEnumerator};
use mmlp_lp::{solve_maxmin_with, SimplexOptions};
use mmlp_parallel::{BackendKind, ParallelConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Options of the local averaging algorithm.
#[derive(Debug, Clone, Copy)]
pub struct LocalAveragingOptions {
    /// The ball radius `R ≥ 1`.  The local horizon of the algorithm is
    /// `2R + 1`.
    pub radius: usize,
    /// Thread configuration for solving the per-agent local LPs.
    pub parallel: ParallelConfig,
    /// Options for the simplex solver used on the local LPs.
    pub simplex: SimplexOptions,
    /// How the local LPs are dispatched: batched (dedup, the default) or
    /// naive per-agent (the reference mode).  Both produce bit-identical
    /// solutions.
    pub mode: SolveMode,
    /// Which execution backend runs the engine's pipeline stages.
    pub backend: BackendKind,
}

impl LocalAveragingOptions {
    /// Default options for a given radius.
    pub fn new(radius: usize) -> Self {
        Self {
            radius,
            parallel: ParallelConfig::default(),
            simplex: SimplexOptions::default(),
            mode: SolveMode::Batched,
            backend: BackendKind::default(),
        }
    }

    /// Sequential execution (deterministic timing; results are identical
    /// either way).
    pub fn sequential(radius: usize) -> Self {
        Self {
            parallel: ParallelConfig::sequential(),
            backend: BackendKind::Sequential,
            ..Self::new(radius)
        }
    }

    /// The naive per-agent reference mode (no dedup).
    pub fn naive(radius: usize) -> Self {
        Self { mode: SolveMode::NaivePerAgent, ..Self::new(radius) }
    }

    /// The same options on a different backend.
    pub fn with_backend(self, backend: BackendKind) -> Self {
        Self { backend, ..self }
    }
}

/// The result of the local averaging algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalAveragingResult {
    /// The assembled feasible solution `x̃`.
    pub solution: Solution,
    /// The radius `R` used.
    pub radius: usize,
    /// The scaling factor `β_j` of every agent.
    pub beta: Vec<f64>,
    /// `|V^j| = |B_H(j, R)|` for every agent.
    pub ball_sizes: Vec<usize>,
    /// The instance-specific a-posteriori guarantee
    /// `max_k M_k/m_k · max_i N_i/n_i` from the proof of Theorem 3 (always at
    /// most `γ(R−1)·γ(R)`).
    pub guaranteed_ratio: f64,
    /// Total simplex pivots spent on local LPs (a work measure; equal to
    /// `stats.total_pivots`).
    pub local_lp_pivots: u64,
    /// What the batched local-LP engine did: balls enumerated, unique LP
    /// classes, cache hits, solves, pivots and per-stage wall-clock.
    pub stats: SolveStats,
}

/// Runs the local averaging algorithm centrally.
///
/// # Errors
///
/// Propagates simplex failures from the local LPs (which do not occur for
/// validated instances under default options) and transport failures when
/// the configured backend crosses a process boundary.
pub fn local_averaging(
    instance: &MaxMinInstance,
    options: &LocalAveragingOptions,
) -> Result<LocalAveragingResult, EngineError> {
    assert!(options.radius >= 1, "local averaging requires R ≥ 1");
    let n = instance.num_agents();
    if n == 0 {
        return Ok(LocalAveragingResult {
            solution: Solution::zeros(0),
            radius: options.radius,
            beta: vec![],
            ball_sizes: vec![],
            guaranteed_ratio: 1.0,
            local_lp_pivots: 0,
            stats: SolveStats::default(),
        });
    }

    // Balls B_H(u, R) and the local optima x^u of the LP (9), through the
    // batched engine (enumerate → canonicalise → dedup + solve → scatter).
    let batch = solve_local_lps(
        instance,
        &LocalLpOptions {
            radius: options.radius,
            parallel: options.parallel,
            simplex: options.simplex,
            mode: options.mode,
            backend: options.backend,
        },
    )?;
    let balls = &batch.balls;
    let local_x = &batch.local_x;
    let local_lp_pivots = batch.stats.total_pivots;

    // Resource statistics n_i, N_i and party statistics m_k, M_k.  The
    // union and intersection sizes are counted over the member balls with
    // one marker array each: `stamp[v] == i` marks `v` as counted for
    // resource `i`, and `hits[v]` counts the member balls of the current
    // party containing `v` (reset after each party).
    let mut resource_ratio: Vec<f64> = Vec::with_capacity(instance.num_resources());
    let mut n_over: Vec<(usize, usize)> = Vec::with_capacity(instance.num_resources()); // (n_i, N_i)
    let mut stamp = vec![usize::MAX; n];
    for i in instance.resource_ids() {
        let n_i = instance
            .resource_support(i)
            .map(|j| balls[j.index()].len())
            .min()
            .expect("V_i is non-empty");
        let mut cap_n_i = 0usize;
        for j in instance.resource_support(i) {
            for &v in &balls[j.index()] {
                if stamp[v] != i.index() {
                    stamp[v] = i.index();
                    cap_n_i += 1;
                }
            }
        }
        n_over.push((n_i, cap_n_i));
        resource_ratio.push(cap_n_i as f64 / n_i as f64);
    }
    let mut party_ratio: Vec<f64> = Vec::with_capacity(instance.num_parties());
    let mut hits = vec![0usize; n];
    for k in instance.party_ids() {
        let members = instance.party(k).members();
        let mut m_k = 0usize;
        for (j, _) in members {
            for &v in &balls[j.index()] {
                hits[v] += 1;
                if hits[v] == members.len() {
                    m_k += 1;
                }
            }
        }
        for (j, _) in members {
            for &v in &balls[j.index()] {
                hits[v] = 0;
            }
        }
        let m_k = m_k.max(1);
        let cap_m_k = members
            .iter()
            .map(|(j, _)| balls[j.index()].len())
            .max()
            .expect("V_k is non-empty");
        party_ratio.push(cap_m_k as f64 / m_k as f64);
    }
    let guaranteed_ratio = resource_ratio.iter().copied().fold(1.0f64, f64::max)
        * party_ratio.iter().copied().fold(1.0f64, f64::max);

    // β_j and the averaged, scaled output.
    let mut beta = vec![0.0f64; n];
    let mut values = vec![0.0f64; n];
    for j in 0..n {
        let b_j = instance
            .agent_resources(AgentId::new(j))
            .map(|i| {
                let (n_i, cap_n_i) = n_over[i.index()];
                n_i as f64 / cap_n_i as f64
            })
            .fold(f64::INFINITY, f64::min);
        let b_j = if b_j.is_finite() { b_j } else { 0.0 };
        beta[j] = b_j;
        let mut sum = 0.0;
        for &u in &balls[j] {
            // x^u_j: position of j within balls[u] (balls are sorted).
            let pos = balls[u].binary_search(&j).expect("j ∈ V^u iff u ∈ V^j");
            sum += local_x[u][pos];
        }
        values[j] = b_j / balls[j].len() as f64 * sum;
    }

    Ok(LocalAveragingResult {
        solution: Solution::new(values),
        radius: options.radius,
        beta,
        ball_sizes: balls.iter().map(|b| b.len()).collect(),
        guaranteed_ratio,
        local_lp_pivots,
        stats: batch.stats,
    })
}

/// What the per-node rule computed through one ball-LP memo: the ball LPs
/// its nodes evaluated and how many of them were built, canonicalised and
/// solved rather than answered by the memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Ball LPs `B(u, R)`, `u ∈ V^j`, that keep a party, summed over the
    /// evaluated views `j` — the LPs the nodes compute.
    pub lps: u64,
    /// Of those, the ones solved (memo misses).  Concurrent views may both
    /// miss on one key, so with parallel shards this can exceed the number
    /// of distinct keys.
    pub solves: u64,
}

/// Ball-LP optima of the per-node averaging rule, keyed on the presentation
/// key words (exact coefficient bits plus ball-local indices), each value
/// the ball's local optimum in presentation order.  Because keys are exact,
/// a hit returns the bits a solve would: correctness never depends on which
/// views share a memo, only the work done does.
///
/// The lock is held for lookups and inserts only, never while a ball LP is
/// built, canonicalised or solved.
#[derive(Debug, Default)]
pub(crate) struct RuleMemo {
    table: Mutex<HashMap<Vec<u64>, Vec<f64>>>,
    lps: AtomicU64,
    solves: AtomicU64,
}

impl RuleMemo {
    /// Forgets every entry and zeroes the counters.
    pub(crate) fn clear(&self) {
        self.table.lock().unwrap_or_else(PoisonError::into_inner).clear();
        self.lps.store(0, Ordering::Relaxed);
        self.solves.store(0, Ordering::Relaxed);
    }

    /// The counters since the last [`clear`](RuleMemo::clear).
    pub(crate) fn stats(&self) -> RuleStats {
        RuleStats {
            lps: self.lps.load(Ordering::Relaxed),
            solves: self.solves.load(Ordering::Relaxed),
        }
    }

    /// Entry `pos` of the optimum stored under `key`, computing it with
    /// `solve` (outside the lock) on a miss.
    fn activity(&self, key: &[u64], pos: usize, solve: impl FnOnce() -> Vec<f64>) -> f64 {
        self.lps.fetch_add(1, Ordering::Relaxed);
        if let Some(x) = self.table.lock().unwrap_or_else(PoisonError::into_inner).get(key) {
            return x[pos];
        }
        let x = solve();
        self.solves.fetch_add(1, Ordering::Relaxed);
        let value = x[pos];
        self.table
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key.to_vec())
            .or_insert(x);
        value
    }
}

/// The local averaging algorithm as a per-agent rule operating on a
/// radius-`2R+1` local view (the honest distributed form referenced in
/// Section 5.1: "the agent j makes the following choice, which depends only
/// on its radius 2R+1 neighbourhood").
///
/// The rule rebuilds the fragment of the instance its view shows, then
/// computes `V^j`, `β_j` and every ball LP (9) of `V^u ∋ j` with the
/// engine's own ball enumeration and presentation sweep, each ball once.
/// It shares nothing with other calls (a fresh memo each time).
///
/// # Panics
///
/// Panics if the view's radius is smaller than `2·radius + 1`.
pub fn local_averaging_activity_from_view(
    view: &LocalView,
    radius: usize,
    simplex: &SimplexOptions,
) -> f64 {
    activity_from_view(view, radius, simplex, &RuleMemo::default())
}

/// The body of [`local_averaging_activity_from_view`], answering ball LPs
/// from `memo` where it can.
pub(crate) fn activity_from_view(
    view: &LocalView,
    radius: usize,
    simplex: &SimplexOptions,
    memo: &RuleMemo,
) -> f64 {
    assert!(radius >= 1, "local averaging requires R ≥ 1");
    assert!(
        view.radius > 2 * radius,
        "the rule needs a radius-{} view, got {}",
        2 * radius + 1,
        view.radius
    );
    let (fragment, agents) = view_fragment(view);
    let j = agents.binary_search(&view.center).expect("the centre knows itself");
    let (graph, _) = communication_hypergraph(&fragment);
    let cache = graph.neighbor_cache();
    let mut enumerator = BallEnumerator::new(&cache);

    // V^j and the ball B(u, R) of every u ∈ V^j.  These balls lie within
    // distance 2R of the centre, where the fragment is exact (see
    // `view_fragment`), so each matches the ball in the full instance.
    let v_j = enumerator.ball(j, radius);
    let balls: Vec<Vec<usize>> = v_j.iter().map(|&u| enumerator.ball(u, radius)).collect();

    // β_j = min_{i ∈ I_j} n_i / N_i.  The members of V_i are adjacent to j,
    // hence in V^j (R ≥ 1).  `stamp[v] == i` marks `v` as counted in N_i.
    let mut beta = f64::INFINITY;
    let mut stamp = vec![usize::MAX; agents.len()];
    for i in fragment.agent_resources(AgentId::new(j)) {
        let mut n_i = usize::MAX;
        let mut cap_n_i = 0usize;
        for m in fragment.resource_support(i) {
            let ball = &balls[v_j.binary_search(&m.index()).expect("V_i ⊆ V^j")];
            n_i = n_i.min(ball.len());
            for &v in ball {
                if stamp[v] != i.index() {
                    stamp[v] = i.index();
                    cap_n_i += 1;
                }
            }
        }
        beta = beta.min(n_i as f64 / cap_n_i as f64);
    }
    if !beta.is_finite() {
        // No resource constraint (only possible in relaxed instances): the
        // conservative output is 0.
        return 0.0;
    }

    // Σ_{u ∈ V^j} x^u_j over the local LPs of every ball containing j.  Each
    // ball LP is solved on its *canonical* presentation — exactly what the
    // batched engine does centrally — so the per-agent rule reproduces the
    // central computation bit for bit.  The fragment presents a ball with
    // the same key as the full instance, so views share memo entries.
    let mut sweep = PresentSweep::new(&fragment, 0.0);
    let mut sum = 0.0;
    for ball in &balls {
        sweep.present(ball);
        if sweep.num_parties() == 0 {
            continue;
        }
        let pos = ball.binary_search(&j).expect("j ∈ V^u because u ∈ V^j");
        sum += memo.activity(sweep.key(), pos, || {
            let form = canonical_form(&sweep.build(ball.len()));
            let opt = solve_maxmin_with(&form.instance, simplex)
                .expect("local LPs of validated instances are solvable");
            unpermute_values(&form.labelling, opt.solution.activities())
        });
    }
    beta / v_j.len() as f64 * sum
}

/// The fragment of the instance a view shows, as an instance of its own:
/// the view's agents in ascending global id order (returned alongside, so
/// local index `l` is agent `agents[l]`), then every visible resource and
/// party in ascending global id order, each with its visible members.
///
/// Because local indices and hyperedge order follow the global order, a ball
/// presented from the fragment is bit-identical to the same ball presented
/// from the full instance.  A hyperedge with a member beyond the view is
/// clipped to its visible members, but no ball LP ever keeps one: a
/// hyperedge with a member at distance `d < view.radius` has all its
/// members within `d + 1 ≤ view.radius`, so a clipped one has its visible
/// members all at distance exactly `view.radius ≥ 2R + 1`, outside every
/// `B(u, R)` with `u ∈ V^j` (distance at most `2R`).
fn view_fragment(view: &LocalView) -> (MaxMinInstance, Vec<AgentId>) {
    let agents: Vec<AgentId> = view.known_agents().collect();
    let mut resources: Vec<(ResourceId, usize, f64)> = Vec::new();
    let mut parties: Vec<(PartyId, usize, f64)> = Vec::new();
    for (local, &v) in agents.iter().enumerate() {
        let knowledge = view.knowledge(v).expect("every known agent has a record");
        resources.extend(knowledge.resources.iter().map(|&(i, a)| (i, local, a)));
        parties.extend(knowledge.parties.iter().map(|&(k, c)| (k, local, c)));
    }
    resources.sort_unstable_by_key(|&(i, local, _)| (i, local));
    parties.sort_unstable_by_key(|&(k, local, _)| (k, local));

    let mut b = InstanceBuilder::with_capacity(agents.len(), resources.len(), parties.len());
    let locals = b.add_agents(agents.len());
    let mut previous = None;
    let mut resource = ResourceId::new(0);
    for &(i, local, a) in &resources {
        if previous != Some(i) {
            resource = b.add_resource();
            previous = Some(i);
        }
        b.set_consumption(resource, locals[local], a);
    }
    let mut previous = None;
    let mut party = PartyId::new(0);
    for &(k, local, c) in &parties {
        if previous != Some(k) {
            party = b.add_party();
            previous = Some(k);
        }
        b.set_benefit(party, locals[local], c);
    }
    (b.build().expect("a view of a valid instance shows a valid fragment"), agents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::views_direct;
    use crate::safe::safe_algorithm;
    use mmlp_core::bounds::theorem3_ratio;
    use mmlp_hypergraph::growth_profile;
    use mmlp_instances::{
        grid_instance, random_instance, sensor_network_instance, GridConfig, RandomInstanceConfig,
        SensorNetworkConfig,
    };
    use mmlp_lp::solve_maxmin;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid(side: usize, torus: bool) -> MaxMinInstance {
        let cfg = GridConfig { side_lengths: vec![side, side], torus, random_weights: false };
        grid_instance(&cfg, &mut StdRng::seed_from_u64(5))
    }

    #[test]
    fn produces_feasible_solutions() {
        let inst = grid(5, false);
        for radius in 1..=3 {
            let result = local_averaging(&inst, &LocalAveragingOptions::new(radius)).unwrap();
            assert!(
                inst.is_feasible(&result.solution, 1e-7),
                "radius {radius} produced an infeasible solution"
            );
            assert_eq!(result.ball_sizes.len(), inst.num_agents());
            assert!(result.beta.iter().all(|&b| (0.0..=1.0 + 1e-12).contains(&b)));
        }
    }

    #[test]
    fn respects_the_theorem3_guarantee() {
        let inst = grid(6, true);
        let (h, _) = communication_hypergraph(&inst);
        let opt = solve_maxmin(&inst).unwrap();
        for radius in 1..=2 {
            let result = local_averaging(&inst, &LocalAveragingOptions::new(radius)).unwrap();
            let achieved = inst.objective(&result.solution).unwrap();
            assert!(achieved > 0.0);
            let measured_ratio = opt.objective / achieved;
            // The a-posteriori guarantee from the proof must hold…
            assert!(
                measured_ratio <= result.guaranteed_ratio + 1e-6,
                "radius {radius}: measured {measured_ratio} > guaranteed {}",
                result.guaranteed_ratio
            );
            // …and must itself be at most γ(R−1)·γ(R) (Theorem 3).
            let profile = growth_profile(&h, radius);
            let gamma_bound = theorem3_ratio(profile.gamma[radius - 1], profile.gamma[radius]);
            assert!(
                result.guaranteed_ratio <= gamma_bound + 1e-9,
                "radius {radius}: guarantee {} exceeds γ bound {gamma_bound}",
                result.guaranteed_ratio
            );
        }
    }

    #[test]
    fn approximation_improves_with_radius_on_grids() {
        // The local approximation scheme property: larger R should not make
        // the guarantee worse on bounded-growth instances, and the measured
        // objective should approach the optimum.
        let inst = grid(6, true);
        let opt = solve_maxmin(&inst).unwrap();
        let mut previous_guarantee = f64::INFINITY;
        for radius in 1..=3 {
            let result = local_averaging(&inst, &LocalAveragingOptions::new(radius)).unwrap();
            assert!(result.guaranteed_ratio <= previous_guarantee + 1e-9);
            previous_guarantee = result.guaranteed_ratio;
            let achieved = inst.objective(&result.solution).unwrap();
            let ratio = opt.objective / achieved;
            assert!(ratio >= 1.0 - 1e-9);
            if radius == 3 {
                // On a 6×6 torus a radius-3 ball covers most of the graph, so
                // the result must be close to optimal.
                assert!(ratio < 1.6, "radius 3 ratio too large: {ratio}");
            }
        }
    }

    #[test]
    fn beats_or_matches_safe_algorithm_on_grids() {
        let inst = grid(5, true);
        let safe = safe_algorithm(&inst);
        let safe_objective = inst.objective(&safe).unwrap();
        let result = local_averaging(&inst, &LocalAveragingOptions::new(2)).unwrap();
        let averaged_objective = inst.objective(&result.solution).unwrap();
        assert!(
            averaged_objective >= safe_objective * 0.99,
            "local averaging ({averaged_objective}) should not be much worse than safe ({safe_objective})"
        );
    }

    #[test]
    fn feasible_on_irregular_instances() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..3 {
            let inst = random_instance(
                &RandomInstanceConfig {
                    num_agents: 25,
                    num_resources: 30,
                    num_parties: 15,
                    ..Default::default()
                },
                &mut rng,
            );
            let result = local_averaging(&inst, &LocalAveragingOptions::new(1)).unwrap();
            assert!(inst.is_feasible(&result.solution, 1e-7));
        }
        let sensor = sensor_network_instance(
            &SensorNetworkConfig { num_sensors: 25, num_relays: 10, ..Default::default() },
            &mut rng,
        );
        let result = local_averaging(&sensor.instance, &LocalAveragingOptions::new(1)).unwrap();
        assert!(sensor.instance.is_feasible(&result.solution, 1e-7));
    }

    #[test]
    fn view_based_rule_matches_central_computation() {
        let inst = grid(4, false);
        let radius = 1;
        let central = local_averaging(&inst, &LocalAveragingOptions::sequential(radius)).unwrap();
        let views = views_direct(&inst, 2 * radius + 1, &ParallelConfig::sequential());
        for (idx, view) in views.iter().enumerate() {
            let local =
                local_averaging_activity_from_view(view, radius, &SimplexOptions::default());
            let expected = central.solution.activities()[idx];
            assert_eq!(
                local.to_bits(),
                expected.to_bits(),
                "agent {idx}: view-based {local} vs central {expected}"
            );
        }
    }

    #[test]
    fn parallel_and_sequential_execution_agree() {
        let inst = grid(5, false);
        let seq = local_averaging(&inst, &LocalAveragingOptions::sequential(2)).unwrap();
        let par = local_averaging(
            &inst,
            &LocalAveragingOptions {
                parallel: ParallelConfig::with_threads(8),
                ..LocalAveragingOptions::new(2)
            },
        )
        .unwrap();
        assert_eq!(seq.solution, par.solution);
        assert_eq!(seq.guaranteed_ratio, par.guaranteed_ratio);
    }

    #[test]
    #[should_panic]
    fn radius_zero_is_rejected() {
        let inst = grid(3, false);
        let _ = local_averaging(&inst, &LocalAveragingOptions::new(0));
    }

    #[test]
    #[should_panic]
    fn view_radius_must_cover_the_horizon() {
        let inst = grid(3, false);
        let views = views_direct(&inst, 1, &ParallelConfig::sequential());
        let _ = local_averaging_activity_from_view(&views[0], 1, &SimplexOptions::default());
    }
}
