//! The paper's algorithms for max-min LPs, plus baselines and analysis.
//!
//! * [`safe`] — the *safe algorithm* of Papadimitriou–Yannakakis
//!   (`x_v = min_{i∈I_v} 1/(a_iv |V_i|)`), a local `Δ_I^V`-approximation with
//!   horizon 1 (Section 4);
//! * [`mod@local_averaging`] — the local approximation algorithm of Theorem 3:
//!   every agent solves the local LP (9) in its radius-`R` ball and the
//!   results are scaled and averaged, achieving ratio `γ(R−1)·γ(R)`
//!   (Section 5);
//! * [`engine`] — the batched local-LP engine, staged on the pluggable
//!   [`SolveBackend`](mmlp_parallel::SolveBackend): enumerates all balls in
//!   one sweep, canonicalises each ball's local LP through a two-phase
//!   (per-shard, then global) dedup, solves each *unique* LP class once —
//!   or answers it from a solution memo of earlier runs — and scatters the
//!   results (with a naive per-agent reference mode that provably produces
//!   bit-identical solutions);
//! * [`transport`] — the engine's wire bindings: payload codecs, the
//!   worker-side stage registry and the worker entry points that let the
//!   pipeline stages run in out-of-process workers
//!   ([`SubprocessBackend`](mmlp_parallel::SubprocessBackend)) or through
//!   the fault-injectable in-memory loopback, with results proven
//!   bit-identical by the conformance suite;
//! * [`service`] — the multi-tenant binding of the
//!   [`SolveService`](mmlp_parallel::SolveService): many tenants admit
//!   batched solves onto the shared worker pool with typed backpressure and
//!   per-tenant fairness, optionally sharing one bounded `ClassSolutionMemo`
//!   (bit-identical results, since a memo hit is the solution of a
//!   bit-identical canonical LP);
//! * [`runner`] — the bridge to `mmlp-distsim`: run any view-based local rule
//!   through the synchronous simulator and account for rounds and messages;
//! * [`analysis`] — the centralised optimum baseline, the trivial uniform
//!   baseline, and approximation-ratio reporting used by the experiments.
//!
//! Every algorithm is available in two equivalent forms: a fast centralised
//! computation (used by benchmarks and large experiments) and a per-view rule
//! that can be executed by the distributed simulator; the test-suite checks
//! that the two forms produce identical solutions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod engine;
pub mod local_averaging;
pub mod runner;
pub mod safe;
pub mod service;
pub mod transport;

pub use analysis::{compare_algorithms, uniform_baseline, AlgorithmComparison, ComparisonEntry};
pub use engine::{
    register_base, solve_local_lps, solve_local_lps_incremental, solve_local_lps_incremental_on,
    solve_local_lps_on, solve_local_lps_reusing, ClassSolutionMemo, DeltaError, EngineError,
    IncrementalRun, InstanceDelta, LocalLpBatch, LocalLpOptions, RegisteredBase, SolveMode,
    SolveStats, StageTimings, WeightEdit, WeightKind, DEFAULT_CLASS_MEMO_CAPACITY,
};
pub use local_averaging::{
    local_averaging, local_averaging_activity_from_view, LocalAveragingOptions,
    LocalAveragingResult,
};
pub use runner::{
    apply_rule_direct, run_local_rule, run_wire_rule, views_direct, LocalRuleProgram, LocalRun,
    WireRule, LOCAL_RULE_PROGRAM_ID,
};
pub use safe::{safe_activity_from_view, safe_algorithm, SAFE_HORIZON};
pub use service::EngineService;
pub use transport::{engine_registry, serve_engine_worker_if_requested, serve_engine_worker_stdio};
