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
//! The per-agent local LPs are dispatched through the batched local-LP
//! engine ([`crate::engine`]): structurally identical ball LPs are detected
//! by canonicalisation and solved once.  Because every mode of the engine
//! solves the *canonical* presentation of each ball LP, the batched default,
//! the [`SolveMode::NaivePerAgent`] reference mode and the view-based rule
//! all produce bit-identical solutions; the engine's [`SolveStats`] are
//! surfaced in [`LocalAveragingResult::stats`].

use crate::engine::{solve_local_lps, EngineError, LocalLpOptions, SolveMode, SolveStats};
use mmlp_core::canonical::canonical_form;
use mmlp_core::{AgentId, InstanceBuilder, MaxMinInstance, PartyId, ResourceId, Solution};
use mmlp_distsim::LocalView;
use mmlp_lp::{solve_maxmin_with, SimplexOptions};
use mmlp_parallel::{BackendKind, ParallelConfig};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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

/// The local averaging algorithm as a per-agent rule operating on a
/// radius-`2R+1` local view (the honest distributed form referenced in
/// Section 5.1: "the agent j makes the following choice, which depends only
/// on its radius 2R+1 neighbourhood").
///
/// # Panics
///
/// Panics if the view's radius is smaller than `2·radius + 1`.
pub fn local_averaging_activity_from_view(
    view: &LocalView,
    radius: usize,
    simplex: &SimplexOptions,
) -> f64 {
    assert!(radius >= 1, "local averaging requires R ≥ 1");
    assert!(
        view.radius > 2 * radius,
        "the rule needs a radius-{} view, got {}",
        2 * radius + 1,
        view.radius
    );
    let reconstruction = ViewReconstruction::new(view);
    let j_local = reconstruction.index_of(view.center);

    // V^j and the β_j statistics.
    let v_j = reconstruction.ball(j_local, radius);
    let own = view.knowledge(view.center).expect("the centre knows itself");
    let mut beta = f64::INFINITY;
    for (i, _) in &own.resources {
        let members = reconstruction.resource_members(*i);
        let n_i = members
            .iter()
            .map(|&m| reconstruction.ball(m, radius).len())
            .min()
            .expect("V_i contains the centre");
        let mut union: Vec<usize> =
            members.iter().flat_map(|&m| reconstruction.ball(m, radius)).collect();
        union.sort_unstable();
        union.dedup();
        beta = beta.min(n_i as f64 / union.len() as f64);
    }
    if !beta.is_finite() {
        // No resource constraint (only possible in relaxed instances): the
        // conservative output is 0.
        return 0.0;
    }

    // Σ_{u ∈ V^j} x^u_j over the local LPs of every ball containing j.  Each
    // ball LP is solved on its *canonical* presentation — exactly what the
    // batched engine does centrally — so the per-agent rule reproduces the
    // central computation bit for bit.
    let mut sum = 0.0;
    for &u in &v_j {
        let ball_u = reconstruction.ball(u, radius);
        let (sub, members) = reconstruction.restricted_instance(&ball_u, u);
        if sub.num_parties() == 0 {
            continue;
        }
        let form = canonical_form(&sub);
        let opt = solve_maxmin_with(&form.instance, simplex)
            .expect("local LPs of validated instances are solvable");
        let pos = members.binary_search(&view.center).expect("j ∈ V^u because u ∈ V^j");
        sum += opt.solution.activity(AgentId::new(form.labelling[pos]));
    }
    beta / v_j.len() as f64 * sum
}

/// The structure of the instance fragment visible in a view: agents
/// re-indexed locally, adjacency reconstructed from shared resource/party
/// identifiers, and the visible supports.
struct ViewReconstruction<'a> {
    view: &'a LocalView,
    agents: Vec<AgentId>,
    adjacency: Vec<Vec<usize>>,
    resources: BTreeMap<ResourceId, Vec<(AgentId, f64)>>,
    parties: BTreeMap<PartyId, Vec<(AgentId, f64)>>,
}

impl<'a> ViewReconstruction<'a> {
    fn new(view: &'a LocalView) -> Self {
        let agents: Vec<AgentId> = view.known_agents().collect();
        let index: BTreeMap<AgentId, usize> =
            agents.iter().enumerate().map(|(idx, &v)| (v, idx)).collect();
        let resources = view.visible_resources();
        let parties = view.visible_parties();
        let mut adjacency: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); agents.len()];
        for members in resources.values().chain(parties.values()) {
            for (a, _) in members {
                for (b, _) in members {
                    if a != b {
                        adjacency[index[a]].insert(index[b]);
                    }
                }
            }
        }
        Self {
            view,
            agents,
            adjacency: adjacency.into_iter().map(|s| s.into_iter().collect()).collect(),
            resources,
            parties,
        }
    }

    fn index_of(&self, v: AgentId) -> usize {
        self.agents.binary_search(&v).expect("agent is in the view")
    }

    /// Ball of radius `r` around a local index, as sorted local indices.
    /// Exact for balls that the view fully contains (radius of the centre
    /// plus `r` at most the view radius).
    fn ball(&self, center: usize, r: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.agents.len()];
        dist[center] = 0;
        let mut queue = VecDeque::from([center]);
        while let Some(u) = queue.pop_front() {
            if dist[u] >= r {
                continue;
            }
            for &w in &self.adjacency[u] {
                if dist[w] == usize::MAX {
                    dist[w] = dist[u] + 1;
                    queue.push_back(w);
                }
            }
        }
        (0..self.agents.len()).filter(|&v| dist[v] <= r).collect()
    }

    /// Visible members of a resource, as local indices.
    fn resource_members(&self, i: ResourceId) -> Vec<usize> {
        self.resources
            .get(&i)
            .map(|members| members.iter().map(|(v, _)| self.index_of(*v)).collect())
            .unwrap_or_default()
    }

    /// Builds the local LP sub-instance for the ball `ball_u` (local
    /// indices): resources clipped to the ball, parties kept only when their
    /// support lies entirely inside the ball and is certainly fully visible.
    ///
    /// Returns the sub-instance together with the original agent ids of its
    /// agents (sorted ascending, matching the sub-instance's agent indices).
    fn restricted_instance(&self, ball_u: &[usize], u: usize) -> (MaxMinInstance, Vec<AgentId>) {
        let member_ids: Vec<AgentId> = ball_u.iter().map(|&l| self.agents[l]).collect();
        let in_ball: BTreeSet<AgentId> = member_ids.iter().copied().collect();
        let mut b = InstanceBuilder::with_capacity(
            member_ids.len(),
            self.resources.len(),
            self.parties.len(),
        );
        let new_agents = b.add_agents(member_ids.len());
        let local_index = |v: AgentId| member_ids.binary_search(&v).expect("agent in ball");

        for members in self.resources.values() {
            let kept: Vec<(AgentId, f64)> = members
                .iter()
                .filter(|(v, _)| in_ball.contains(v))
                .map(|(v, a)| (*v, *a))
                .collect();
            if kept.is_empty() {
                continue;
            }
            let i = b.add_resource();
            for (v, a) in kept {
                b.set_consumption(i, new_agents[local_index(v)], a);
            }
        }
        for members in self.parties.values() {
            // The support is certainly fully visible iff one member is within
            // view.radius − 1 of the view's centre; because every member we
            // would keep is within `radius` of `u` and `u` is within
            // `radius` of the centre, this always holds when the view radius
            // is 2·radius + 1 — asserted here for safety.
            let all_in_ball = members.iter().all(|(v, _)| in_ball.contains(v));
            if !all_in_ball {
                continue;
            }
            debug_assert!(
                members
                    .iter()
                    .any(|(v, _)| self.view.distance(*v).unwrap_or(usize::MAX) < self.view.radius),
                "party support visibility cannot be certified (dist from centre {})",
                self.view.distance(self.agents[u]).unwrap_or(usize::MAX)
            );
            let k = b.add_party();
            for (v, c) in members {
                b.set_benefit(k, new_agents[local_index(*v)], *c);
            }
        }
        let instance = b.build().expect("ball restriction preserves validity");
        (instance, member_ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::views_direct;
    use crate::safe::safe_algorithm;
    use mmlp_core::bounds::theorem3_ratio;
    use mmlp_hypergraph::{communication_hypergraph, growth_profile};
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
            assert!(
                (local - expected).abs() < 1e-9,
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
