//! # maxmin-local-lp
//!
//! A complete, self-contained implementation of
//! **“Approximating max-min linear programs with local algorithms”**
//! (Patrik Floréen, Petteri Kaski, Topi Musto, Jukka Suomela; IPDPS 2008,
//! arXiv:0710.1499).
//!
//! A *max-min LP* asks to maximise the minimum benefit over a set of
//! beneficiary parties, subject to packing constraints over shared
//! resources:
//!
//! ```text
//! maximise   ω = min_k Σ_v c_kv x_v
//! subject to Σ_v a_iv x_v ≤ 1    for every resource i,    x ≥ 0.
//! ```
//!
//! A *local algorithm* must pick each `x_v` after looking only at a
//! constant-radius neighbourhood of agent `v` in the communication
//! hypergraph.  The paper (and this crate) provides:
//!
//! * the **safe algorithm** — a horizon-1 local `Δ_I^V`-approximation
//!   ([`safe_algorithm`]),
//! * the **local averaging algorithm** of Theorem 3 — approximation ratio
//!   `γ(R−1)·γ(R)` in terms of the relative growth of balls, i.e. a local
//!   approximation scheme on bounded-growth networks such as grids
//!   ([`local_averaging()`]),
//! * the **lower-bound construction** of Theorem 1 / Corollary 2 showing no
//!   local algorithm beats `Δ_I^V/2 + 1/2 − 1/(2Δ_K^V − 2)`
//!   ([`LowerBoundInstance`](instances::LowerBoundInstance)),
//! * everything those results need to exist as running code: an LP solver,
//!   a hypergraph library, a synchronous LOCAL-model simulator, instance
//!   generators (sensor networks, ISP topologies, grids, random
//!   bounded-degree instances) and experiment harnesses.
//!
//! ## Quick start
//!
//! ```
//! use maxmin_local_lp::prelude::*;
//! use rand::SeedableRng;
//!
//! // A two-tier sensor network (Section 2 of the paper).
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let network = sensor_network_instance(&SensorNetworkConfig::default(), &mut rng);
//! let instance = &network.instance;
//!
//! // Exact optimum (centralised baseline).
//! let optimum = solve_maxmin(instance).unwrap();
//!
//! // The safe algorithm: local, horizon 1.
//! let safe = safe_algorithm(instance);
//! assert!(instance.is_feasible(&safe, 1e-9));
//!
//! // The local averaging algorithm of Theorem 3 with radius R = 2.
//! let averaged = local_averaging(instance, &LocalAveragingOptions::new(2)).unwrap();
//! assert!(instance.is_feasible(&averaged.solution, 1e-7));
//!
//! // Both are within their proven factors of the optimum.
//! let safe_ratio = optimum.objective / instance.objective(&safe).unwrap();
//! assert!(safe_ratio <= instance.degree_bounds().safe_algorithm_ratio() + 1e-6);
//! let avg_ratio = optimum.objective / instance.objective(&averaged.solution).unwrap();
//! assert!(avg_ratio <= averaged.guaranteed_ratio + 1e-6);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | problem representation, solutions, degree bounds, closed-form bounds |
//! | [`hypergraph`] | communication hypergraph, balls, growth `γ(r)`, the template graph machinery |
//! | [`lp`] | dense two-phase simplex and the max-min reformulation |
//! | [`distsim`] | synchronous LOCAL-model simulator and the gathering protocol |
//! | [`algorithms`] | safe algorithm, local averaging, baselines, comparisons |
//! | [`instances`] | generators: sensor / ISP / grid / random / lower-bound construction |
//! | [`parallel`] | the pluggable sharded solve backend and the scoped-thread parallel-map executor |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Re-export of `mmlp-core`: the problem model.
pub mod core {
    pub use mmlp_core::*;
}

/// Re-export of `mmlp-hypergraph`: communication structure and growth.
pub mod hypergraph {
    pub use mmlp_hypergraph::*;
}

/// Re-export of `mmlp-lp`: the LP substrate.
pub mod lp {
    pub use mmlp_lp::*;
}

/// Re-export of `mmlp-distsim`: the synchronous LOCAL-model simulator.
pub mod distsim {
    pub use mmlp_distsim::*;
}

/// Re-export of `mmlp-algorithms`: the paper's algorithms and baselines.
pub mod algorithms {
    pub use mmlp_algorithms::*;
}

/// Re-export of `mmlp-instances`: workload generators.
pub mod instances {
    pub use mmlp_instances::*;
}

/// Re-export of `mmlp-parallel`: the parallel-map executor.
pub mod parallel {
    pub use mmlp_parallel::*;
}

pub use mmlp_algorithms::{
    compare_algorithms, local_averaging, safe_algorithm, uniform_baseline, LocalAveragingOptions,
};
pub use mmlp_core::{
    AgentId, DegreeBounds, InstanceBuilder, MaxMinInstance, PartyId, ResourceId, Solution,
};
pub use mmlp_lp::solve_maxmin;

/// Everything most programs need, in one import.
pub mod prelude {
    pub use crate::algorithms::{
        apply_rule_direct, compare_algorithms, engine_registry, local_averaging,
        local_averaging_activity_from_view, register_base, run_local_rule, run_wire_rule,
        safe_activity_from_view, safe_algorithm, serve_engine_worker_if_requested, solve_local_lps,
        solve_local_lps_incremental, solve_local_lps_incremental_on, solve_local_lps_on,
        solve_local_lps_reusing, uniform_baseline, views_direct, AlgorithmComparison,
        ClassSolutionMemo, DeltaError, EngineError, EngineService, IncrementalRun, InstanceDelta,
        LocalAveragingOptions, LocalAveragingResult, LocalLpBatch, LocalLpOptions,
        LocalRuleProgram, LocalRun, RegisteredBase, RuleStats, SolveMode, SolveStats, WeightEdit,
        WeightKind, WireRule, SAFE_HORIZON,
    };
    pub use crate::core::{
        bounds, canonical_form, canonical_key, quantise_weight, quasi_canonical_form, AgentId,
        CanonicalForm, CanonicalKey, DegreeBounds, InstanceBuilder, MaxMinInstance, PartyId,
        QuasiCanonicalForm, ResourceId, Solution,
    };
    pub use crate::distsim::{
        distsim_registry, gather_views, Action, CheckpointPolicy, EpochTicket, GatherMessage,
        GatherProgram, LocalView, Network, NodeProgram, SimError, SimulationResult, Simulator,
        SimulatorConfig, WireProgram, GATHER_PROGRAM_ID, STAGE_SIM_EPOCH,
    };
    pub use crate::hypergraph::{
        communication_hypergraph, growth_profile, Graph, GrowthProfile, Hypergraph,
    };
    pub use crate::instances::{
        alternating_solution, circulant_bipartite, graph_instance, grid_instance,
        hypertree_instance, isp_instance, jitter_weights, random_instance,
        regular_bipartite_with_girth, sensor_network_instance, skewed_bipartite_instance,
        GridConfig, IspConfig, LowerBoundConfig, LowerBoundInstance, RandomInstanceConfig,
        SensorNetworkConfig, SensorNetworkInstance, SkewedBipartiteConfig,
    };
    pub use crate::lp::{
        solve_maxmin, solve_maxmin_with, CertifiedInterval, LpProblem, LpStatus, SimplexOptions,
    };
    pub use crate::parallel::{
        backend_map, par_map, par_map_with, probe_worker, BackendKind, DriverMode, FaultPlan,
        LoopbackBackend, ParallelConfig, RecoveryLog, ScopedThreads, Sequential, ServiceConfig,
        ServiceError, ServiceMetrics, Shard, ShardStats, Sharded, SolveBackend, SolveService,
        StageRegistry, StageStats, SubprocessBackend, TenantCounters, TenantId, Ticket,
        TransportError, WireError, WorkerCommand,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn facade_exposes_a_working_pipeline() {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = grid_instance(&GridConfig::square(4), &mut rng);
        let safe = safe_algorithm(&inst);
        let opt = solve_maxmin(&inst).unwrap();
        assert!(inst.is_feasible(&safe, 1e-9));
        assert!(opt.objective >= inst.objective(&safe).unwrap() - 1e-9);
    }
}
