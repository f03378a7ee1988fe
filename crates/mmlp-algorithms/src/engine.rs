//! The batched local-LP engine, staged on the pluggable solve backend.
//!
//! The local averaging algorithm (Theorem 3) solves one radius-`R` local LP
//! per agent, but on the regular instances the paper cares about — grids,
//! hypertrees, sensor-network workloads — most agents see *structurally
//! identical* balls, so solving every local LP independently wastes almost
//! all of the work.  This engine expresses the computation as four explicit
//! pipeline stages, each executed through a
//! [`SolveBackend`] over contiguous
//! *agent-range shards*:
//!
//! 1. **Present** — each shard enumerates the radius-`R` balls of its agent
//!    range in one sweep over a shared
//!    [`NeighborCache`], computes each ball's exact *presentation key* from
//!    reusable sorted scratch, and deduplicates the balls by key into a
//!    shard-local table; only a shard-local first occurrence builds its
//!    local LP (9).  A sequential merge then combines the per-shard tables
//!    into the global presentation table (first-occurrence order, so the
//!    numbering is independent of the backend).
//! 2. **Canonicalise** — the unique presentations are sharded again; each
//!    shard computes the exact canonical form ([`mmlp_core::canonical`]) of
//!    its presentations and a shard-local *canonical-class table*.  The
//!    second phase of the two-phase dedup merges the per-shard class tables
//!    into the global class list.
//! 3. **Solve** — each *unique* canonical LP is solved once, sharded over
//!    the class list.  With [`WarmStartPolicy::NearestClass`] the classes
//!    are ordered by a cheap structural similarity key and every solve is
//!    seeded from the most recently solved dimension-compatible class of its
//!    shard ([`mmlp_lp::solve_maxmin_seeded`]); a seeded result is kept only
//!    when a uniqueness certificate (or, for the cross-run class cache, a
//!    zero-pivot exactness check) proves it bit-identical to the cold solve,
//!    so warm starts can change the pivot count but never the output.
//! 4. **Scatter** — the canonical solutions are mapped back through each
//!    ball's canonical labelling to all agents sharing the ball class.
//!
//! Because every stage communicates with the next only through its returned
//! shard outputs (and the cheap sequential merges), the same pipeline runs
//! unchanged on the inline, scoped-thread and fixed-shard backends — and a
//! future multi-machine backend is a drop-in replacement
//! ([`solve_local_lps_on`] is generic over the backend).
//!
//! # Why neither dedup nor warm starts can change the answer
//!
//! Both engine modes — [`SolveMode::Batched`] and the
//! [`SolveMode::NaivePerAgent`] reference mode — hand the **canonically
//! relabelled** LP to the (deterministic) simplex solver.  Two balls in the
//! same class have *bit-identical* canonical LPs, so solving the class once
//! and reusing the result is pure memoisation.  Warm starts additionally
//! rely on one of two gates.  Similarity seeds go through the certificate
//! of [`resolve_from_basis`](mmlp_lp::resolve_from_basis): accepted only
//! when the LP provably has a *unique optimal activity vector*, in which
//! case both the seeded and the cold path re-derive that vector through the
//! same canonical vertex basis.  Cross-run cache seeds are keyed by exact
//! canonical encodings, so the recorded basis is this very LP's
//! deterministic cold basis and [`mmlp_lp::solve_maxmin_resumed`] accepts
//! exactly when phase 2 confirms it with zero pivots.  The conformance suite
//! (`tests/conformance_batched.rs`) asserts bit-identity across modes,
//! backends, shard counts and warm-start policies on every instance
//! generator.
//!
//! [`SolveStats`] reports what the engine did: balls enumerated, distinct
//! presentations, ball LPs built, unique LP classes, cache hits, simplex
//! solves and pivots, warm-start attempts and acceptances, wall-clock per
//! stage and per-shard execution statistics.

use crate::transport::{
    engine_registry, CanonWireStage, DeltaPresentWireStage, LiftedCanonWireStage, PresentWireStage,
    ScatterWireStage, SolveWireStage,
};
use mmlp_core::canonical::{
    canonical_form, quasi_canonical_form, CanonicalForm, CanonicalKey, SEP_PARTY, SEP_RESOURCE,
};
use mmlp_core::{AgentId, InstanceBuilder, MaxMinInstance, PartyId, ResourceId};
use mmlp_hypergraph::{communication_hypergraph, BallEnumerator, NeighborCache};
use mmlp_lp::{
    solve_maxmin_dual_resumed, solve_maxmin_resumed, solve_maxmin_seeded, CertifiedInterval,
    LpError, SimplexOptions, WarmStart,
};
use mmlp_parallel::{
    pooled_subprocess_backend, BackendKind, LoopbackBackend, ParallelConfig, ScopedThreads,
    Sequential, Shard, Sharded, SolveBackend, StageStats, SubprocessBackend, TransportError,
    WireStage,
};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors of the batched engine: a simplex failure on some local LP, a
/// transport failure when the pipeline ran on an out-of-process backend, or
/// a rejected instance delta on the incremental path.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A local LP solve failed.
    Lp(LpError),
    /// The execution backend's transport failed (typed: frame corruption,
    /// worker death past the retry budget, worker-side handler errors, …).
    Transport(TransportError),
    /// An [`InstanceDelta`] could not be applied to its registered base.
    Delta(DeltaError),
    /// The engine options are invalid for the requested operation (a
    /// non-finite or negative lifted `epsilon`, or a lifted base registered
    /// for incremental re-solves).
    InvalidOptions(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Lp(e) => write!(f, "local LP solve failed: {e}"),
            EngineError::Transport(e) => write!(f, "solve backend transport failed: {e}"),
            EngineError::Delta(e) => write!(f, "instance delta rejected: {e}"),
            EngineError::InvalidOptions(reason) => write!(f, "invalid engine options: {reason}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<LpError> for EngineError {
    fn from(e: LpError) -> Self {
        EngineError::Lp(e)
    }
}

impl From<TransportError> for EngineError {
    fn from(e: TransportError) -> Self {
        EngineError::Transport(e)
    }
}

impl From<DeltaError> for EngineError {
    fn from(e: DeltaError) -> Self {
        EngineError::Delta(e)
    }
}

/// Why an [`InstanceDelta`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// The delta was built against a different base version than the one it
    /// is being applied to.
    VersionMismatch {
        /// The registered base's version.
        expected: u64,
        /// The version the delta declares.
        found: u64,
    },
    /// An edit names a `(row, agent)` pair that is not an entry of the base
    /// instance.  Deltas move *existing* weights only — the topology (and
    /// with it every ball, neighbour cache and registered context) never
    /// changes under a delta.
    UnknownEntry {
        /// Which coefficient family the edit targeted.
        kind: WeightKind,
        /// Resource index (consumption) or party index (benefit).
        row: usize,
        /// Agent index.
        agent: usize,
    },
    /// An edit carries a weight that is not finite and strictly positive —
    /// the same validation the [`InstanceBuilder`] enforces.
    BadWeight {
        /// The offending weight.
        weight: f64,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::VersionMismatch { expected, found } => {
                write!(f, "delta targets base version {found}, registered base is {expected}")
            }
            DeltaError::UnknownEntry { kind, row, agent } => {
                let family = match kind {
                    WeightKind::Consumption => "resource",
                    WeightKind::Benefit => "party",
                };
                write!(f, "edit targets {family} {row}, agent {agent}: no such entry in the base")
            }
            DeltaError::BadWeight { weight } => {
                write!(f, "edit weight {weight} is not finite and positive")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Which coefficient family a [`WeightEdit`] targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightKind {
    /// A consumption coefficient `a_{iv}` of a resource constraint.
    Consumption,
    /// A benefit coefficient `c_{kv}` of a party.
    Benefit,
}

/// One weight change of an [`InstanceDelta`]: the `(row, agent)` entry must
/// already exist in the base instance; only its coefficient moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightEdit {
    /// Consumption or benefit.
    pub kind: WeightKind,
    /// Resource index ([`WeightKind::Consumption`]) or party index
    /// ([`WeightKind::Benefit`]).
    pub row: usize,
    /// Agent index.
    pub agent: usize,
    /// The new coefficient (finite and `> 0`).
    pub weight: f64,
}

/// A versioned weight patch against a [`RegisteredBase`] — what an
/// incremental re-solve ships over the wire instead of the full instance.
///
/// A delta can only move weights of existing entries, so the communication
/// topology, every radius-`R` ball and the registered base context are all
/// invariant under it; the wire cost of a re-solve is `O(edits)` plus the
/// affected-ball lists, independent of the instance size.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceDelta {
    /// Version of the registered base the edits were made against.  Applied
    /// (locally or by a worker) only when it matches the base's version —
    /// a mismatch is a typed error, never a silent wrong patch.
    pub base_version: u64,
    /// The weight edits.  A later edit of the same entry wins.
    pub edits: Vec<WeightEdit>,
}

impl InstanceDelta {
    /// Applies the edits to `base`, rebuilding through the validating
    /// [`InstanceBuilder`] (the decoded-wire path does the same, so both
    /// sides of the transport compute on bit-identical patched instances).
    ///
    /// # Errors
    ///
    /// [`DeltaError::UnknownEntry`] for an edit outside the base topology,
    /// [`DeltaError::BadWeight`] for a non-finite or non-positive weight.
    /// The declared `base_version` is *not* checked here — the caller
    /// compares it against the registered version it holds.
    pub fn apply(&self, base: &MaxMinInstance) -> Result<MaxMinInstance, DeltaError> {
        let mut cons: HashMap<(usize, usize), f64> = HashMap::new();
        let mut bens: HashMap<(usize, usize), f64> = HashMap::new();
        for e in &self.edits {
            if !e.weight.is_finite() || e.weight <= 0.0 {
                return Err(DeltaError::BadWeight { weight: e.weight });
            }
            let exists = e.agent < base.num_agents()
                && match e.kind {
                    WeightKind::Consumption => {
                        e.row < base.num_resources()
                            && base
                                .resource(ResourceId::new(e.row))
                                .members()
                                .iter()
                                .any(|(v, _)| v.index() == e.agent)
                    }
                    WeightKind::Benefit => {
                        e.row < base.num_parties()
                            && base
                                .party(PartyId::new(e.row))
                                .members()
                                .iter()
                                .any(|(v, _)| v.index() == e.agent)
                    }
                };
            if !exists {
                return Err(DeltaError::UnknownEntry { kind: e.kind, row: e.row, agent: e.agent });
            }
            match e.kind {
                WeightKind::Consumption => cons.insert((e.row, e.agent), e.weight),
                WeightKind::Benefit => bens.insert((e.row, e.agent), e.weight),
            };
        }
        let mut b = InstanceBuilder::with_capacity(
            base.num_agents(),
            base.num_resources(),
            base.num_parties(),
        );
        b.allow_unconstrained_agents();
        let agents = b.add_agents(base.num_agents());
        for i in base.resource_ids() {
            let ri = b.add_resource();
            for (v, a) in base.resource(i).members() {
                let w = cons.get(&(i.index(), v.index())).copied().unwrap_or(*a);
                b.set_consumption(ri, agents[v.index()], w);
            }
        }
        for k in base.party_ids() {
            let pk = b.add_party();
            for (v, c) in base.party(k).members() {
                let w = bens.get(&(k.index(), v.index())).copied().unwrap_or(*c);
                b.set_benefit(pk, agents[v.index()], w);
            }
        }
        Ok(b.build().expect("weight edits preserve instance validity"))
    }

    /// The distinct agents named by the edits, sorted ascending — the seeds
    /// of the affected-ball computation.
    pub fn changed_agents(&self) -> Vec<usize> {
        let set: BTreeSet<usize> = self.edits.iter().map(|e| e.agent).collect();
        set.into_iter().collect()
    }
}

/// How the engine distributes the per-ball LP solves.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SolveMode {
    /// Deduplicate: solve each unique canonical LP once and scatter the
    /// result to every agent whose ball is in that class.
    #[default]
    Batched,
    /// The naive reference mode: solve every agent's ball LP independently
    /// (still canonically presented, so the results are bit-identical to
    /// [`SolveMode::Batched`]).  Warm starts are never used in this mode —
    /// it is the reference the other configurations are compared against.
    NaivePerAgent,
    /// Lifted (quasi-class) dedup for irregular instances: every ball LP's
    /// coefficients are snapped down onto the geometric grid `(1+ε)^b`
    /// before canonicalisation, so `ε`-close weights stop splitting classes
    /// and one representative LP is solved per *quasi*-class.  The scattered
    /// activity vectors are scaled by `1/(1+s)` (with `s` the class's
    /// *measured* quantisation slack) so they stay feasible for every actual
    /// ball, and each agent additionally receives a
    /// [`CertifiedInterval`] bracketing its exact ball optimum
    /// ([`LocalLpBatch::intervals`]).  At `epsilon = 0.0` the quasi
    /// partition *is* the exact partition and the batch is bit-identical to
    /// [`SolveMode::Batched`].
    Lifted {
        /// Grid coarseness `ε ≥ 0` (finite).  Larger values merge more
        /// classes at the price of wider certified intervals.
        epsilon: f64,
    },
}

/// Whether (and how) class solves are seeded from previously solved classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmStartPolicy {
    /// Every class LP is solved cold.
    #[default]
    Off,
    /// Classes are ordered by a cheap structural similarity key (ball size,
    /// constraint counts, support-size signature) and each solve is seeded
    /// from the most recently solved dimension-compatible class of its
    /// shard.  Results are guaranteed bit-identical to [`Off`]
    /// (see the module docs); only the pivot counts change.
    ///
    /// [`Off`]: WarmStartPolicy::Off
    NearestClass,
}

/// Options of the batched local-LP engine.
#[derive(Debug, Clone, Copy)]
pub struct LocalLpOptions {
    /// The ball radius `R ≥ 0`.
    pub radius: usize,
    /// Thread configuration used by the backend to execute shards.
    pub parallel: ParallelConfig,
    /// Simplex options for the per-class LP solves.
    pub simplex: SimplexOptions,
    /// Batched (dedup) or naive (reference) execution.
    pub mode: SolveMode,
    /// Which backend executes the pipeline stages.
    pub backend: BackendKind,
    /// Whether class solves are seeded from similar solved classes.
    pub warm_start: WarmStartPolicy,
}

impl LocalLpOptions {
    /// Default (batched, scoped-thread, cold-solve) options for a radius.
    pub fn new(radius: usize) -> Self {
        Self {
            radius,
            parallel: ParallelConfig::default(),
            simplex: SimplexOptions::default(),
            mode: SolveMode::Batched,
            backend: BackendKind::default(),
            warm_start: WarmStartPolicy::Off,
        }
    }

    /// The same options on a different backend.
    pub fn with_backend(self, backend: BackendKind) -> Self {
        Self { backend, ..self }
    }

    /// The same options with warm-start reuse across classes enabled.
    pub fn with_warm_start(self) -> Self {
        Self { warm_start: WarmStartPolicy::NearestClass, ..self }
    }
}

/// Wall-clock spent in each stage of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimings {
    /// Ball enumeration, local-LP construction and the presentation dedup
    /// (the *present* stage plus its merge).
    pub enumerate: Duration,
    /// Canonicalisation of the unique presentations and the class-table
    /// merge.
    pub canonicalise: Duration,
    /// Simplex solves of the unique (or, in naive mode, all) local LPs.
    pub solve: Duration,
    /// Mapping canonical solutions back onto the balls.
    pub scatter: Duration,
}

/// What the engine did, in numbers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolveStats {
    /// Number of balls enumerated (= number of agents).
    pub balls_enumerated: usize,
    /// Number of distinct LP *presentations* (cheap first-level grouping).
    pub distinct_presentations: usize,
    /// Number of ball LPs the present stage actually built: the sum of every
    /// shard's first occurrences.  Equal to
    /// [`distinct_presentations`](SolveStats::distinct_presentations) on a
    /// single shard and at most that times the shard count otherwise (a
    /// presentation is built once per shard that meets it).
    pub lps_built: usize,
    /// Number of unique canonical LP classes among the balls.
    pub unique_classes: usize,
    /// Number of LP solve jobs that were answered from the class cache
    /// instead of running the simplex (0 in naive mode).
    pub cache_hits: usize,
    /// Number of simplex solves actually performed (party-less ball LPs are
    /// answered with the zero solution and never reach the solver).
    pub lp_solves: usize,
    /// Total simplex *iterations* across all LP solves, including the
    /// iterations of rejected warm attempts — the honest measure of pivoting
    /// work that warm-start reuse is meant to reduce.  Basis-installation
    /// eliminations are counted separately in
    /// [`total_installs`](SolveStats::total_installs).
    pub total_pivots: u64,
    /// Total Gauss–Jordan basis-installation eliminations across all LP
    /// solves (warm-start seeding and canonical basis resolution).
    pub total_installs: u64,
    /// Number of class solves that were seeded from a similar class's basis.
    pub warm_attempts: usize,
    /// Number of seeded solves whose acceptance gate (uniqueness
    /// certificate, or the zero-pivot exactness check for cache seeds) held,
    /// skipping the cold solve entirely.
    pub warm_accepted: usize,
    /// Number of class solves seeded through the dual-simplex phase — the
    /// incremental path's repair of weight-perturbed classes, whose recorded
    /// basis is primal-infeasible but typically still dual-feasible
    /// ([`mmlp_lp::solve_maxmin_dual_resumed`]).  0 outside incremental
    /// re-solves.
    pub dual_attempts: usize,
    /// Number of dual-seeded solves whose uniqueness certificate held; the
    /// rest fell back to the cold path (bit-identical either way).
    pub dual_accepted: usize,
    /// Number of quasi-classes the solve grouped the balls into.  Under
    /// [`SolveMode::Lifted`] this is the quantised class count; in the exact
    /// modes it equals [`unique_classes`](SolveStats::unique_classes) (the
    /// exact partition *is* the `ε = 0` quasi partition).
    pub quasi_classes: usize,
    /// The largest measured quantisation slack `s = max(w/q − 1)` over all
    /// presentations — `0.0` in the exact modes, and the honest worst-case
    /// factor behind every [`CertifiedInterval`] of the batch.
    pub max_class_slack: f64,
    /// Wall-clock per stage.
    pub timings: StageTimings,
    /// Per-shard execution statistics of every stage, in stage order.
    pub stage_shards: Vec<StageStats>,
}

impl SolveStats {
    /// Fraction of per-ball solve jobs answered from the class cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.balls_enumerated == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.balls_enumerated as f64
        }
    }

    /// `balls_enumerated / unique_classes` — how many agents share each
    /// unique local LP on average.
    pub fn dedup_factor(&self) -> f64 {
        if self.unique_classes == 0 {
            1.0
        } else {
            self.balls_enumerated as f64 / self.unique_classes as f64
        }
    }

    /// `balls_enumerated / quasi_classes` — how many agents share each
    /// solved (quasi-)class on average; the lifted analogue of
    /// [`dedup_factor`](SolveStats::dedup_factor).  Defined as `1.0` for an
    /// empty batch (no balls, no classes) rather than `NaN` or `∞`.
    pub fn dedup_ratio(&self) -> f64 {
        if self.balls_enumerated == 0 || self.quasi_classes == 0 {
            1.0
        } else {
            self.balls_enumerated as f64 / self.quasi_classes as f64
        }
    }
}

/// The output of the engine: every agent's ball and local-LP optimum.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalLpBatch {
    /// `balls[u]` is `B_H(u, R)`, sorted.
    pub balls: Vec<Vec<usize>>,
    /// `local_x[u][j]` is the local optimum `x^u` evaluated at the agent
    /// `balls[u][j]` — aligned with `balls[u]`.
    pub local_x: Vec<Vec<f64>>,
    /// Canonical class index of each agent's ball.
    pub class_of_ball: Vec<usize>,
    /// For each canonical class, the optimal simplex basis of its LP — the
    /// seed the warm-start policy feeds into similar classes.  Empty for
    /// party-less classes.
    pub class_bases: Vec<Vec<usize>>,
    /// The canonical key of each class, aligned with
    /// [`class_bases`](LocalLpBatch::class_bases) — what
    /// [`basis_cache`](LocalLpBatch::basis_cache) indexes the recorded bases
    /// by.  Interned behind `Arc` so cache installs, base registration and
    /// the incremental class table share one allocation per class instead of
    /// deep-copying the key per ball.
    pub class_keys: Vec<Arc<CanonicalKey>>,
    /// `ball_objectives[u]` is the optimum of the canonical LP solved for
    /// agent `u`'s class: the exact ball optimum `ω*` in the exact modes,
    /// and the *quantised* class optimum `ω̃` under [`SolveMode::Lifted`].
    /// Computed host-side with a deterministic fold, so it is bit-identical
    /// across modes (at `ε = 0`) and backends.
    pub ball_objectives: Vec<f64>,
    /// `intervals[u]` certifies agent `u`'s exact ball optimum:
    /// `ω* ∈ [lower, upper]`.  A degenerate point `[ω*, ω*]` in the exact
    /// modes; under [`SolveMode::Lifted`] the bracket
    /// `[ω̃/(1+s), ω̃·(1+s)]` from the class's measured slack `s`.
    pub intervals: Vec<CertifiedInterval>,
    /// Stage statistics.
    pub stats: SolveStats,
}

impl LocalLpBatch {
    /// Packages this batch's per-class optimal bases as a donor cache for a
    /// later solve ([`solve_local_lps_reusing`]).
    ///
    /// The production re-solve pattern: serving workloads solve the same (or
    /// an incrementally updated) instance over and over, and every class
    /// whose canonical LP is unchanged since the donor batch re-solves from
    /// its own recorded optimal basis — zero simplex iterations, one
    /// installation elimination per row.
    pub fn basis_cache(&self) -> ClassBasisCache {
        let mut cache = ClassBasisCache::default();
        cache.absorb(self);
        cache
    }
}

/// Default capacity of a [`ClassBasisCache`], in recorded class bases.
///
/// Generous for every workload in the repository (the 50×50 grid at `R = 2`
/// records ~21 classes) while bounding what a long-lived serving process
/// can accumulate across instances: a basis is a `Vec<usize>` per class, so
/// 4096 entries cap the cache at a few megabytes.
pub const DEFAULT_CLASS_BASIS_CAPACITY: usize = 4096;

/// A donor table of previously optimal class bases, keyed by canonical key —
/// the warm-start carrier between engine runs.
///
/// Looked up before the intra-run [`WarmStartPolicy`] donor table: a class
/// whose exact canonical LP was solved before is seeded from its own optimal
/// basis, which installs in one elimination per row and pivots zero times.
/// Entries are keyed by the class's *exact* canonical encoding and a basis
/// can only be recorded from a real batch, so a hit always seeds an LP with
/// its own deterministic cold basis; the zero-pivot exactness gate of
/// [`solve_maxmin_resumed`] verifies that at solve time, and anything else
/// (a stale or truncated basis) falls back to the cold path — a wrong cache
/// can cost work but never change a result.
///
/// **Bounded.**  A long-lived serving process re-solves many instances, and
/// every new class used to stay resident forever.  The cache now holds at
/// most `capacity` bases and evicts the **least recently installed** entry
/// — a deterministic FIFO over installations, where re-absorbing a class
/// that is already resident refreshes its position.  Eviction can only cost
/// pivots on a future re-solve, never correctness, so a small capacity is
/// always safe.
#[derive(Debug, Clone)]
pub struct ClassBasisCache {
    /// Key → (recorded basis, stamp of its most recent installation).  Keys
    /// are the interned `Arc`s of [`LocalLpBatch::class_keys`], so absorbing
    /// a batch shares the batch's allocations instead of deep-copying every
    /// key.
    bases: HashMap<Arc<CanonicalKey>, (WarmStart, u64)>,
    /// Installation log `(stamp, key)`, oldest first.  A refresh appends a
    /// new entry instead of rescanning the log, leaving the old one
    /// *stale* (its stamp no longer matches the map's); eviction skips
    /// stale entries lazily, and the log is compacted when stale entries
    /// outnumber live ones — so a refresh is O(1) amortised instead of
    /// O(capacity).
    installed: VecDeque<(u64, Arc<CanonicalKey>)>,
    next_stamp: u64,
    capacity: usize,
}

impl Default for ClassBasisCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CLASS_BASIS_CAPACITY)
    }
}

impl ClassBasisCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `capacity` class bases (clamped to
    /// ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self { bases: HashMap::new(), installed: VecDeque::new(), next_stamp: 0, capacity }
    }

    /// The maximum number of class bases the cache retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of class bases in the cache.
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// Whether the cache holds no bases.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// The recorded basis for a canonical key, if any.
    pub fn get(&self, key: &CanonicalKey) -> Option<&WarmStart> {
        self.bases.get(key).map(|(seed, _)| seed)
    }

    /// Installs (or refreshes) one class basis, evicting the least recently
    /// installed entry when the capacity is exceeded.  Empty bases
    /// (party-less classes) are ignored — they could never seed a solve.
    pub fn install(&mut self, key: Arc<CanonicalKey>, seed: WarmStart) {
        if seed.basis.is_empty() {
            return;
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.bases.insert(Arc::clone(&key), (seed, stamp));
        self.installed.push_back((stamp, key));
        while self.bases.len() > self.capacity {
            let (stamp, key) =
                self.installed.pop_front().expect("every resident key has a log entry");
            // Only evict through the key's *current* log entry; older ones
            // are leftovers of refreshes.
            if self.bases.get(&key).is_some_and(|(_, s)| *s == stamp) {
                self.bases.remove(&key);
            }
        }
        // Compact once stale log entries outnumber live ones, keeping the
        // log O(capacity) without rescanning it on every refresh.
        if self.installed.len() > self.bases.len().saturating_mul(2).max(16) {
            let bases = &self.bases;
            self.installed
                .retain(|(stamp, key)| bases.get(key).is_some_and(|(_, s)| s == stamp));
        }
    }

    /// Absorbs every recorded class basis of a batch, in class order — the
    /// cross-run accumulation path for serving workloads that re-solve a
    /// stream of instances through one cache.
    pub fn absorb(&mut self, batch: &LocalLpBatch) {
        for (key, basis) in batch.class_keys.iter().zip(&batch.class_bases) {
            if !basis.is_empty() {
                self.install(Arc::clone(key), WarmStart { basis: basis.clone() });
            }
        }
    }
}

/// Runs the engine on the backend selected in `options.backend`.
///
/// # Errors
///
/// Propagates simplex failures from the local LPs (which do not occur for
/// validated instances under default options).
pub fn solve_local_lps(
    instance: &MaxMinInstance,
    options: &LocalLpOptions,
) -> Result<LocalLpBatch, EngineError> {
    dispatch_backend(instance, options, None)
}

/// Runs the engine seeding every class solve from `reuse` — the donor cache
/// of a previous batch ([`LocalLpBatch::basis_cache`]).
///
/// This is the production re-solve path: on a repeat solve of the same (or a
/// mostly unchanged) instance, every class already in the cache installs its
/// own optimal basis and performs **zero simplex iterations**, and the
/// zero-pivot exactness gate guarantees the results stay bit-identical to a
/// cold solve.
///
/// # Errors
///
/// Propagates simplex failures from the local LPs.
pub fn solve_local_lps_reusing(
    instance: &MaxMinInstance,
    options: &LocalLpOptions,
    reuse: &ClassBasisCache,
) -> Result<LocalLpBatch, EngineError> {
    dispatch_backend(instance, options, Some(reuse))
}

fn dispatch_backend(
    instance: &MaxMinInstance,
    options: &LocalLpOptions,
    reuse: Option<&ClassBasisCache>,
) -> Result<LocalLpBatch, EngineError> {
    match options.backend {
        BackendKind::Sequential => run_pipeline(instance, options, &Sequential, reuse),
        BackendKind::ScopedThreads => {
            run_pipeline(instance, options, &ScopedThreads::new(options.parallel), reuse)
        }
        BackendKind::Sharded { shards } => {
            run_pipeline(instance, options, &Sharded::new(shards, options.parallel), reuse)
        }
        BackendKind::Loopback { shards } => {
            run_pipeline(instance, options, &LoopbackBackend::new(engine_registry(), shards), reuse)
        }
        BackendKind::Subprocess { workers, overlapped } => {
            run_pipeline(instance, options, &*subprocess_backend(workers, overlapped), reuse)
        }
    }
}

/// The engine's subprocess backends come from the process-wide pool shared
/// with the distributed simulator
/// ([`mmlp_parallel::pooled_subprocess_backend`], keyed by worker count,
/// dispatch mode and registry fingerprint): one set of resident workers
/// serves batched solves and simulator rounds alike, keeping worker-side
/// context caches warm across both.  Callers that want explicit lifecycle
/// control construct a [`SubprocessBackend`] themselves and use
/// [`solve_local_lps_on`].
fn subprocess_backend(workers: usize, overlapped: bool) -> Arc<SubprocessBackend> {
    pooled_subprocess_backend(workers, overlapped, &engine_registry())
}

/// Runs the engine pipeline — present, canonicalise, solve, scatter — on an
/// explicit [`SolveBackend`].
///
/// This is the extension seam for execution substrates the crate does not
/// know about: any backend honouring the trait contract produces
/// bit-identical results, because shards communicate only through their
/// returned tables and every merge is deterministic.
///
/// # Errors
///
/// Propagates simplex failures from the local LPs.
pub fn solve_local_lps_on<B: SolveBackend>(
    instance: &MaxMinInstance,
    options: &LocalLpOptions,
    backend: &B,
) -> Result<LocalLpBatch, EngineError> {
    run_pipeline(instance, options, backend, None)
}

/// The engine pipeline proper, with an optional cross-run donor cache.
///
/// Every stage is submitted as a [`WireStage`](mmlp_parallel::WireStage):
/// local backends execute the stage function in-process (through the
/// default [`SolveBackend::execute_stage`]), transport backends serialise
/// the same inputs, ship them to workers that run the very same stage
/// functions on decoded copies, and deserialise the outputs — which is why
/// the conformance matrix can assert bit-identity across the process
/// boundary.
fn run_pipeline<B: SolveBackend>(
    instance: &MaxMinInstance,
    options: &LocalLpOptions,
    backend: &B,
    reuse: Option<&ClassBasisCache>,
) -> Result<LocalLpBatch, EngineError> {
    // Lifted mode's grid coarseness, validated up front: `None` in the
    // exact modes, `Some(ε)` under `SolveMode::Lifted`.
    let lifted_epsilon = match options.mode {
        SolveMode::Lifted { epsilon } => {
            if !epsilon.is_finite() || epsilon < 0.0 {
                return Err(EngineError::InvalidOptions(format!(
                    "lifted epsilon must be finite and non-negative, got {epsilon}"
                )));
            }
            Some(epsilon)
        }
        SolveMode::Batched | SolveMode::NaivePerAgent => None,
    };
    let n = instance.num_agents();
    if n == 0 {
        return Ok(LocalLpBatch {
            balls: vec![],
            local_x: vec![],
            class_of_ball: vec![],
            class_bases: vec![],
            class_keys: vec![],
            ball_objectives: vec![],
            intervals: vec![],
            stats: SolveStats::default(),
        });
    }
    let mut timings = StageTimings::default();
    let mut stage_shards: Vec<StageStats> = Vec::new();

    // ---- Stage 1: present — enumerate balls, build ball LPs, dedup by
    // presentation key (phase 1 per shard, phase 2 in the merge below). ----
    let stage = Instant::now();
    let (h, _) = communication_hypergraph(instance);
    let cache = h.neighbor_cache();
    let run = backend
        .execute_stage(n, &PresentWireStage { instance, cache: &cache, radius: options.radius })?;
    let lps_built = run.outputs.iter().map(|shard| shard.reps.len()).sum();
    // Merge phase 2: per-shard presentation tables → global table, in shard
    // order (= agent order), so the numbering matches a sequential sweep.
    let mut balls: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut pres_of_ball: Vec<usize> = Vec::with_capacity(n);
    let (reps, shard_maps) = merge_presentations(run.outputs);
    for (shard_out, map) in shard_maps {
        balls.extend(shard_out.balls);
        pres_of_ball.extend(shard_out.pres_of_ball.into_iter().map(|p| map[p]));
    }
    stage_shards.push(run.stats);
    timings.enumerate = stage.elapsed();

    // ---- Stage 2: canonicalise the unique presentations; each shard also
    // returns its local canonical-class table (phase 1 of the class dedup).
    // Lifted mode runs the quantising variant of the stage instead, which
    // additionally reports each presentation's measured slack.
    let stage = Instant::now();
    // Flatten the forms (shard order = presentation order), then merge the
    // per-shard class tables (phase 2).  `slack_of_pres[p]` is presentation
    // `p`'s measured quantisation slack (all zeros in the exact modes).
    let mut forms: Vec<CanonicalForm> = Vec::with_capacity(reps.len());
    let mut slack_of_pres: Vec<f64> = Vec::with_capacity(reps.len());
    let mut shard_tables: Vec<(usize, Vec<usize>, Vec<usize>)> = Vec::new(); // (offset, class_reps, class_of)
    let canon_stats = match lifted_epsilon {
        None => {
            let run = backend.execute_stage(
                reps.len(),
                &CanonWireStage { instances: reps.iter().map(|r| &r.instance).collect() },
            )?;
            for sc in run.outputs {
                shard_tables.push((forms.len(), sc.class_reps, sc.class_of));
                forms.extend(sc.forms);
                slack_of_pres.resize(forms.len(), 0.0);
            }
            run.stats
        }
        Some(epsilon) => {
            let run = backend.execute_stage(
                reps.len(),
                &LiftedCanonWireStage {
                    instances: reps.iter().map(|r| &r.instance).collect(),
                    epsilon,
                },
            )?;
            for sq in run.outputs {
                shard_tables.push((forms.len(), sq.classes.class_reps, sq.classes.class_of));
                slack_of_pres.extend(sq.slacks);
                forms.extend(sq.classes.forms);
            }
            run.stats
        }
    };
    let mut class_of_pres: Vec<usize> = vec![0; forms.len()];
    let mut class_reps: Vec<usize> = Vec::new(); // global presentation index
    {
        let mut global_ids: HashMap<&CanonicalKey, usize> = HashMap::new();
        for (offset, local_reps, class_of) in &shard_tables {
            let mut local_to_global = Vec::with_capacity(local_reps.len());
            for &r in local_reps {
                let key = &forms[offset + r].key;
                let id = match global_ids.get(key) {
                    Some(&id) => id,
                    None => {
                        let id = class_reps.len();
                        global_ids.insert(key, id);
                        class_reps.push(offset + r);
                        id
                    }
                };
                local_to_global.push(id);
            }
            for (i, &c) in class_of.iter().enumerate() {
                class_of_pres[offset + i] = local_to_global[c];
            }
        }
    }
    let class_of_ball: Vec<usize> = pres_of_ball.iter().map(|&p| class_of_pres[p]).collect();
    stage_shards.push(canon_stats);
    timings.canonicalise = stage.elapsed();

    // ---- Stage 3: solve one job per class (batched) or per ball (naive),
    // on the canonical presentation, optionally warm-started. ----
    let stage = Instant::now();
    let num_classes = class_reps.len();
    let mut lp_solves = 0usize;
    let mut total_pivots = 0u64;
    let mut total_installs = 0u64;
    let mut warm_attempts = 0usize;
    let mut warm_accepted = 0usize;
    let (jobs, class_bases) = match options.mode {
        // Lifted mode reuses the batched solve stage unchanged: the class
        // table above already reflects the quasi partition, and every class
        // representative is the canonical *quantised* LP.
        SolveMode::Batched | SolveMode::Lifted { .. } => {
            // Solve order: similarity-sorted under the warm-start policy so
            // that neighbouring jobs have structurally similar LPs.
            let order: Vec<usize> = match options.warm_start {
                WarmStartPolicy::Off => (0..num_classes).collect(),
                WarmStartPolicy::NearestClass => {
                    let keys: Vec<Vec<u64>> =
                        class_reps.iter().map(|&p| similarity_key(&forms[p].instance)).collect();
                    let mut order: Vec<usize> = (0..num_classes).collect();
                    order.sort_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
                    order
                }
            };
            let solve_jobs: Vec<(&MaxMinInstance, Option<&WarmStart>)> = order
                .iter()
                .map(|&class| {
                    let form = &forms[class_reps[class]];
                    (&form.instance, reuse.and_then(|cache| cache.get(&form.key)))
                })
                .collect();
            let run = backend.execute_stage(
                num_classes,
                &SolveWireStage {
                    jobs: solve_jobs,
                    simplex: options.simplex,
                    policy: options.warm_start,
                },
            )?;
            let mut jobs: Vec<Option<SolvedLp>> = (0..num_classes).map(|_| None).collect();
            let mut k = 0usize;
            stage_shards.push(run.stats);
            for shard_out in run.outputs {
                for job in shard_out {
                    let job = job?;
                    lp_solves += usize::from(job.solved);
                    total_pivots += job.pivots;
                    total_installs += job.installs;
                    warm_attempts += usize::from(job.warm_attempted);
                    warm_accepted += usize::from(job.warm_accepted);
                    jobs[order[k]] = Some(job);
                    k += 1;
                }
            }
            let jobs: Vec<SolvedLp> = jobs
                .into_iter()
                .map(|j| j.expect("every class solved exactly once"))
                .collect();
            let bases: Vec<Vec<usize>> = jobs.iter().map(|j| j.basis.clone()).collect();
            (jobs, bases)
        }
        SolveMode::NaivePerAgent => {
            let solve_jobs: Vec<(&MaxMinInstance, Option<&WarmStart>)> =
                (0..n).map(|u| (&forms[pres_of_ball[u]].instance, None)).collect();
            let run = backend.execute_stage(
                n,
                &SolveWireStage {
                    jobs: solve_jobs,
                    simplex: options.simplex,
                    policy: WarmStartPolicy::Off,
                },
            )?;
            let mut jobs = Vec::with_capacity(n);
            stage_shards.push(run.stats);
            for shard_out in run.outputs {
                for job in shard_out {
                    let job = job?;
                    lp_solves += usize::from(job.solved);
                    total_pivots += job.pivots;
                    total_installs += job.installs;
                    jobs.push(job);
                }
            }
            // One basis per class, taken from the first ball of the class.
            let mut bases = vec![Vec::new(); num_classes];
            let mut filled = vec![false; num_classes];
            for u in 0..n {
                let c = class_of_ball[u];
                if !filled[c] {
                    bases[c] = jobs[u].basis.clone();
                    filled[c] = true;
                }
            }
            (jobs, bases)
        }
    };
    timings.solve = stage.elapsed();

    // ---- Stage 4: scatter canonical solutions back onto the balls.  The
    // deduplicated solutions travel once (in the stage context); each ball
    // carries only its labelling and a solution index, so the payload does
    // not grow with the dedup ratio. ----
    let stage = Instant::now();
    let solutions: Vec<&[f64]> = jobs.iter().map(|j| j.x.as_slice()).collect();
    let scatter_items: Vec<(&[usize], usize)> = (0..n)
        .map(|u| {
            let form = &forms[pres_of_ball[u]];
            let solution = match options.mode {
                SolveMode::NaivePerAgent => u,
                SolveMode::Batched | SolveMode::Lifted { .. } => class_of_ball[u],
            };
            (form.labelling.as_slice(), solution)
        })
        .collect();
    let run = backend.execute_stage(n, &ScatterWireStage { items: scatter_items, solutions })?;
    let mut local_x: Vec<Vec<f64>> = Vec::with_capacity(n);
    for shard_out in run.outputs {
        local_x.extend(shard_out);
    }

    // The per-ball objectives (of the canonical LP each ball's class
    // solved) and the certified intervals they induce.  Computed host-side
    // with deterministic fold orders, so they are bit-identical across
    // backends and — at slack 0 — across modes.
    let ball_objectives: Vec<f64> = match options.mode {
        SolveMode::NaivePerAgent => (0..n)
            .map(|u| lp_objective(&forms[pres_of_ball[u]].instance, &jobs[u].x))
            .collect(),
        SolveMode::Batched | SolveMode::Lifted { .. } => {
            let class_objectives: Vec<f64> = (0..num_classes)
                .map(|c| lp_objective(&forms[class_reps[c]].instance, &jobs[c].x))
                .collect();
            class_of_ball.iter().map(|&c| class_objectives[c]).collect()
        }
    };
    let intervals: Vec<CertifiedInterval> = (0..n)
        .map(|u| {
            CertifiedInterval::from_objective_and_slack(
                ball_objectives[u],
                slack_of_pres[pres_of_ball[u]],
            )
        })
        .collect();
    // Lifted mode scatters the *quantised* class optimiser; scaled by
    // `1/(1+s)` it is feasible for the actual ball LP and achieves at least
    // the interval's lower bound (see `mmlp_lp::interval`).  At slack 0 the
    // factor is exactly 1.0, preserving bit-identity with the exact modes.
    if lifted_epsilon.is_some() {
        for u in 0..n {
            let factor = 1.0 / (1.0 + slack_of_pres[pres_of_ball[u]]);
            if factor != 1.0 {
                for x in &mut local_x[u] {
                    *x *= factor;
                }
            }
        }
    }
    stage_shards.push(run.stats);
    timings.scatter = stage.elapsed();

    let jobs_submitted = match options.mode {
        SolveMode::NaivePerAgent => n,
        SolveMode::Batched | SolveMode::Lifted { .. } => num_classes,
    };
    let stats = SolveStats {
        balls_enumerated: n,
        distinct_presentations: reps.len(),
        lps_built,
        unique_classes: num_classes,
        cache_hits: n - jobs_submitted,
        lp_solves,
        total_pivots,
        total_installs,
        warm_attempts,
        warm_accepted,
        dual_attempts: 0,
        dual_accepted: 0,
        quasi_classes: num_classes,
        max_class_slack: slack_of_pres.iter().fold(0.0, |a: f64, &s| a.max(s)),
        timings,
        stage_shards,
    };
    // Intern each class key once: take it out of its form (the forms are
    // consumed here) instead of deep-copying the encoding per class.
    let class_keys: Vec<Arc<CanonicalKey>> = class_reps
        .iter()
        .map(|&p| {
            Arc::new(std::mem::replace(&mut forms[p].key, CanonicalKey::from_words(Vec::new())))
        })
        .collect();
    Ok(LocalLpBatch {
        balls,
        local_x,
        class_of_ball,
        class_bases,
        class_keys,
        ball_objectives,
        intervals,
        stats,
    })
}

/// Phase 2 of the presentation dedup, shared by the cold and incremental
/// pipelines: merges the per-shard presentation tables into the global
/// table (first-occurrence order over the shard scan) **without copying any
/// presentation key** — pass 1 hashes borrowed key slices to assign global
/// ids, pass 2 moves exactly the first-occurrence representatives out of
/// the shard outputs.  Returns the global representatives plus each shard's
/// output (its `reps` drained) and local→global id map.
fn merge_presentations(
    mut shard_outs: Vec<ShardPresentation>,
) -> (Vec<PresentedLp>, Vec<(ShardPresentation, Vec<usize>)>) {
    let mut rep_count = 0usize;
    let mut maps: Vec<Vec<usize>> = Vec::with_capacity(shard_outs.len());
    let mut fresh_flags: Vec<Vec<bool>> = Vec::with_capacity(shard_outs.len());
    {
        let mut global_ids: HashMap<&[u64], usize> = HashMap::new();
        for shard_out in &shard_outs {
            let mut local_to_global = Vec::with_capacity(shard_out.reps.len());
            let mut flags = Vec::with_capacity(shard_out.reps.len());
            for lp in &shard_out.reps {
                let (id, fresh) = match global_ids.get(lp.key.as_slice()) {
                    Some(&id) => (id, false),
                    None => {
                        let id = rep_count;
                        global_ids.insert(lp.key.as_slice(), id);
                        rep_count += 1;
                        (id, true)
                    }
                };
                local_to_global.push(id);
                flags.push(fresh);
            }
            maps.push(local_to_global);
            fresh_flags.push(flags);
        }
    }
    // First occurrences appear in scan order, so moving them out in the
    // same order lands each representative at its assigned global id.
    let mut reps: Vec<PresentedLp> = Vec::with_capacity(rep_count);
    let mut outs = Vec::with_capacity(shard_outs.len());
    for (shard_out, (map, flags)) in shard_outs.iter_mut().zip(maps.into_iter().zip(fresh_flags)) {
        for (lp, fresh) in shard_out.reps.drain(..).zip(flags) {
            if fresh {
                reps.push(lp);
            }
        }
        outs.push(map);
    }
    (reps, shard_outs.into_iter().zip(outs).collect())
}

/// The max-min objective `min_k Σ_v c_kv x_v` of a solution to one
/// (canonical) ball LP — `0.0` for a party-less LP, whose optimum is the
/// zero vector.  Party order and member order are both deterministic, so
/// the fold is bit-identical wherever it runs.
pub(crate) fn lp_objective(lp: &MaxMinInstance, x: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), lp.num_agents());
    let mut objective = f64::INFINITY;
    for k in lp.party_ids() {
        let mut total = 0.0;
        for (v, c) in lp.party(k).members() {
            total += c * x[v.index()];
        }
        objective = objective.min(total);
    }
    if objective == f64::INFINITY {
        0.0
    } else {
        objective
    }
}

// ---------------------------------------------------------------------------
// The incremental re-solve path: registered base + instance deltas.
// ---------------------------------------------------------------------------

/// A base instance registered for incremental re-solves.
///
/// Registration is the expensive step: one full cold solve of the base plus
/// — lazily, on the first delta solve per worker — the shipping of the delta
/// stage's context (radius, version, full base instance).  That context
/// rides the transport's per-stage context dedup, so it crosses each worker
/// link exactly once per registration; every subsequent re-solve of the same
/// version ships only the weight edits and the affected-ball lists.
///
/// The batch recorded here is what deltas re-solve *against*: unaffected
/// balls reuse its activity vectors verbatim, unchanged classes re-solve
/// from their recorded bases under the zero-pivot exactness gate, and
/// perturbed classes seed the dual-simplex phase from their predecessor's
/// basis.
#[derive(Debug, Clone)]
pub struct RegisteredBase {
    instance: MaxMinInstance,
    version: u64,
    options: LocalLpOptions,
    batch: LocalLpBatch,
    neighbors: NeighborCache,
    /// Canonical key → base class index, for the unchanged-class fast path.
    /// Shares the batch's interned key `Arc`s.
    key_to_class: HashMap<Arc<CanonicalKey>, usize>,
}

impl RegisteredBase {
    /// The version every delta must target.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The base instance.
    pub fn instance(&self) -> &MaxMinInstance {
        &self.instance
    }

    /// The options incremental re-solves run under.
    pub fn options(&self) -> &LocalLpOptions {
        &self.options
    }

    /// The base batch (the cold solve performed at registration).
    pub fn batch(&self) -> &LocalLpBatch {
        &self.batch
    }

    /// Size in bytes of the delta stage's context payload — what crosses
    /// each worker link once per registration (and is then deduped for
    /// every re-solve of this version).
    pub fn context_wire_bytes(&self) -> usize {
        let empty = InstanceDelta { base_version: self.version, edits: vec![] };
        let stage = DeltaPresentWireStage {
            base: &self.instance,
            patched: &self.instance,
            cache: &self.neighbors,
            radius: self.options.radius,
            base_version: self.version,
            delta: &empty,
            affected: &[],
        };
        let mut out = Vec::new();
        stage.encode_context(&mut out);
        out.len()
    }
}

/// Registers `instance` as version `version` for incremental re-solves:
/// runs the full cold pipeline once (on the backend selected in `options`)
/// and records everything a delta solve reuses — the batch, the neighbour
/// cache (topology is delta-invariant) and the canonical-key index.
///
/// # Errors
///
/// Propagates simplex and transport failures of the cold solve.
pub fn register_base(
    instance: &MaxMinInstance,
    options: &LocalLpOptions,
    version: u64,
) -> Result<RegisteredBase, EngineError> {
    if let SolveMode::Lifted { .. } = options.mode {
        // The incremental gates (zero-pivot exactness, dual repair) certify
        // bit-identity to an *exact* cold solve; a lifted base would make
        // the certified intervals of later re-solves unsound.
        return Err(EngineError::InvalidOptions(
            "incremental re-solves require an exact mode; register the base with \
             SolveMode::Batched"
                .to_string(),
        ));
    }
    let batch = dispatch_backend(instance, options, None)?;
    let (h, _) = communication_hypergraph(instance);
    let neighbors = h.neighbor_cache();
    let key_to_class = batch
        .class_keys
        .iter()
        .enumerate()
        .map(|(c, k)| (Arc::clone(k), c))
        .collect();
    Ok(RegisteredBase {
        instance: instance.clone(),
        version,
        options: *options,
        batch,
        neighbors,
        key_to_class,
    })
}

/// The result of one incremental re-solve ([`solve_local_lps_incremental`]).
#[derive(Debug, Clone)]
pub struct IncrementalRun {
    /// The re-solved batch.  Solutions, balls, class numbering and class
    /// keys are bit-identical to a cold solve of the patched instance
    /// (`tests/incremental_resolve.rs` asserts this across backends and
    /// churn rates).  Recorded bases carry the same contract as the
    /// warm-reuse path: one optimal basis per class, usable as a seed —
    /// at a degenerate vertex the dual phase may record a different
    /// representative basis of the same (certified unique) optimum than
    /// the cold pivot history would.
    pub batch: LocalLpBatch,
    /// Distinct agents named by the delta's edits.
    pub changed_agents: usize,
    /// Balls re-presented: agents whose radius-`R` ball contains a changed
    /// agent (ball membership is symmetric, so this is the union of the
    /// balls around the changed agents).
    pub affected_agents: usize,
    /// Bytes of this re-solve's wire job payloads (the delta job plus the
    /// canonicalise jobs of the affected presentations), computed with the
    /// transport's own encoders — `O(edits + affected balls)`, independent
    /// of the instance size.  The base context is *not* included: it ships
    /// once per worker at first use and is deduped afterwards
    /// ([`RegisteredBase::context_wire_bytes`]).
    pub resolve_wire_bytes: usize,
}

/// Re-solves a registered base under a weight delta, touching only what the
/// delta can affect.
///
/// The pipeline: (1') re-present the affected balls through the
/// `mmlp/present-delta@1` stage — across the backend, shipping only the
/// edits and the affected-agent lists against the deduped base context;
/// (2') canonicalise the affected presentations (the ordinary canonicalise
/// stage); (3') solve only the classes an affected ball belongs to,
/// driver-side — a class whose canonical key already existed re-solves from
/// its own recorded basis under the zero-pivot exactness gate, a genuinely
/// perturbed class seeds the dual-simplex phase from its predecessor's
/// basis under the uniqueness certificate, and anything the gates refuse
/// falls back cold; (4') scatter the fresh solutions onto the affected
/// balls, keeping every unaffected ball's activity vector verbatim.
///
/// Every gate in (3') accepts only what is provably bit-identical to a
/// cold solve of the patched instance, so the returned solutions, balls,
/// class numbering and class keys equal the cold batch bit for bit — only
/// the work (and the wire bytes) scale with the churn.  (Recorded bases
/// follow the warm-reuse contract — see [`IncrementalRun::batch`].)
///
/// # Errors
///
/// [`EngineError::Delta`] for a version mismatch or an out-of-topology
/// edit; otherwise propagates simplex and transport failures.
pub fn solve_local_lps_incremental(
    base: &RegisteredBase,
    delta: &InstanceDelta,
) -> Result<IncrementalRun, EngineError> {
    match base.options.backend {
        BackendKind::Sequential => solve_local_lps_incremental_on(base, delta, &Sequential),
        BackendKind::ScopedThreads => {
            solve_local_lps_incremental_on(base, delta, &ScopedThreads::new(base.options.parallel))
        }
        BackendKind::Sharded { shards } => solve_local_lps_incremental_on(
            base,
            delta,
            &Sharded::new(shards, base.options.parallel),
        ),
        BackendKind::Loopback { shards } => solve_local_lps_incremental_on(
            base,
            delta,
            &LoopbackBackend::new(engine_registry(), shards),
        ),
        BackendKind::Subprocess { workers, overlapped } => {
            solve_local_lps_incremental_on(base, delta, &*subprocess_backend(workers, overlapped))
        }
    }
}

/// [`solve_local_lps_incremental`] on an explicitly constructed backend —
/// the incremental analogue of [`solve_local_lps_on`], used by the
/// fault-injection and conformance suites to re-solve through backends with
/// scripted faults or pinned worker counts.
///
/// # Errors
///
/// As [`solve_local_lps_incremental`].
pub fn solve_local_lps_incremental_on<B: SolveBackend>(
    base: &RegisteredBase,
    delta: &InstanceDelta,
    backend: &B,
) -> Result<IncrementalRun, EngineError> {
    if delta.base_version != base.version {
        return Err(DeltaError::VersionMismatch {
            expected: base.version,
            found: delta.base_version,
        }
        .into());
    }
    let patched = delta.apply(&base.instance)?;
    let changed = delta.changed_agents();
    let affected: Vec<usize> = {
        let mut enumerator = BallEnumerator::new(&base.neighbors);
        let mut set: BTreeSet<usize> = BTreeSet::new();
        for &v in &changed {
            set.extend(enumerator.ball(v, base.options.radius));
        }
        set.into_iter().collect()
    };
    if affected.is_empty() {
        // An empty delta: the base batch *is* the cold solve of `patched`.
        return Ok(IncrementalRun {
            batch: base.batch.clone(),
            changed_agents: changed.len(),
            affected_agents: 0,
            resolve_wire_bytes: 0,
        });
    }
    let (batch, resolve_wire_bytes) = run_incremental(base, delta, &patched, &affected, backend)?;
    Ok(IncrementalRun {
        batch,
        changed_agents: changed.len(),
        affected_agents: affected.len(),
        resolve_wire_bytes,
    })
}

/// The incremental pipeline body (see [`solve_local_lps_incremental`]).
fn run_incremental<B: SolveBackend>(
    base: &RegisteredBase,
    delta: &InstanceDelta,
    patched: &MaxMinInstance,
    affected: &[usize],
    backend: &B,
) -> Result<(LocalLpBatch, usize), EngineError> {
    let n = base.instance.num_agents();
    let options = &base.options;
    let mut timings = StageTimings::default();
    let mut stage_shards: Vec<StageStats> = Vec::new();

    // ---- Stage 1': re-present the affected balls across the backend.  The
    // stage's context (radius + version + full base instance) is deduped per
    // link; only the jobs below actually travel on a re-solve. ----
    let stage = Instant::now();
    let delta_stage = DeltaPresentWireStage {
        base: &base.instance,
        patched,
        cache: &base.neighbors,
        radius: options.radius,
        base_version: base.version,
        delta,
        affected,
    };
    // The marginal wire bytes of this re-solve, measured with the very
    // encoders the transport uses (single-shard equivalent; sharding
    // replicates only the small delta header).
    let mut resolve_wire_bytes = {
        let mut job = Vec::new();
        delta_stage.encode_job(&Shard { index: 0, start: 0, end: affected.len() }, &mut job);
        job.len()
    };
    let run = backend.execute_stage(affected.len(), &delta_stage)?;
    let lps_built = run.outputs.iter().map(|shard| shard.reps.len()).sum();
    // Presentation merge, exactly as the cold pipeline (shard order = order
    // of the affected list, so the numbering is backend-independent).
    let mut balls_aff: Vec<Vec<usize>> = Vec::with_capacity(affected.len());
    let mut pres_of_ball_aff: Vec<usize> = Vec::with_capacity(affected.len());
    let (reps, shard_maps) = merge_presentations(run.outputs);
    for (shard_out, map) in shard_maps {
        balls_aff.extend(shard_out.balls);
        pres_of_ball_aff.extend(shard_out.pres_of_ball.into_iter().map(|p| map[p]));
    }
    stage_shards.push(run.stats);
    timings.enumerate = stage.elapsed();

    // ---- Stage 2': canonicalise the affected presentations (the ordinary
    // canonicalise wire stage; its jobs are counted as re-solve bytes). ----
    let stage = Instant::now();
    let canon_stage = CanonWireStage { instances: reps.iter().map(|r| &r.instance).collect() };
    resolve_wire_bytes += {
        let mut job = Vec::new();
        canon_stage.encode_job(&Shard { index: 0, start: 0, end: reps.len() }, &mut job);
        job.len()
    };
    let run = backend.execute_stage(reps.len(), &canon_stage)?;
    let mut forms: Vec<CanonicalForm> = Vec::with_capacity(reps.len());
    let mut shard_tables: Vec<(usize, Vec<usize>, Vec<usize>)> = Vec::new();
    for sc in run.outputs {
        shard_tables.push((forms.len(), sc.class_reps, sc.class_of));
        forms.extend(sc.forms);
    }
    let mut class_of_pres: Vec<usize> = vec![0; forms.len()];
    let mut aff_class_reps: Vec<usize> = Vec::new();
    {
        let mut global_ids: HashMap<&CanonicalKey, usize> = HashMap::new();
        for (offset, local_reps, class_of) in &shard_tables {
            let mut local_to_global = Vec::with_capacity(local_reps.len());
            for &r in local_reps {
                let key = &forms[offset + r].key;
                let id = match global_ids.get(key) {
                    Some(&id) => id,
                    None => {
                        let id = aff_class_reps.len();
                        global_ids.insert(key, id);
                        aff_class_reps.push(offset + r);
                        id
                    }
                };
                local_to_global.push(id);
            }
            for (i, &c) in class_of.iter().enumerate() {
                class_of_pres[offset + i] = local_to_global[c];
            }
        }
    }
    stage_shards.push(run.stats);
    timings.canonicalise = stage.elapsed();

    // ---- Global class table: first-occurrence numbering over an agent
    // scan.  Unaffected balls contribute their base class keys, affected
    // balls their fresh canonical keys; since unaffected balls present
    // bit-identically to the base, this is the same numbering a cold solve
    // of the patched instance produces. ----
    enum ClassSource {
        /// Every ball of the class is unaffected: the base solution stands.
        Base(usize),
        /// Some affected ball belongs to the class: re-solve it.
        Fresh {
            /// Index into `forms` of the class representative.
            rep_form: usize,
            /// Base class of the first affected ball that hit the class —
            /// the dual-simplex seed donor for perturbed classes.
            old_class: usize,
        },
    }
    let aff_index: HashMap<usize, usize> =
        affected.iter().enumerate().map(|(i, &u)| (u, i)).collect();
    let mut key_to_new: HashMap<Arc<CanonicalKey>, usize> = HashMap::new();
    let mut class_keys: Vec<Arc<CanonicalKey>> = Vec::new();
    let mut sources: Vec<ClassSource> = Vec::new();
    let mut class_of_ball: Vec<usize> = Vec::with_capacity(n);
    // Per ball this is a borrowed hash lookup only; a key is copied (into a
    // shared `Arc`) or its `Arc` cloned once per *new class*, never per
    // ball.
    for u in 0..n {
        let id = match aff_index.get(&u) {
            Some(&i) => {
                let rep_form = aff_class_reps[class_of_pres[pres_of_ball_aff[i]]];
                match key_to_new.get(&forms[rep_form].key) {
                    Some(&id) => id,
                    None => {
                        let id = class_keys.len();
                        let key = Arc::new(forms[rep_form].key.clone());
                        key_to_new.insert(Arc::clone(&key), id);
                        class_keys.push(key);
                        sources.push(ClassSource::Fresh {
                            rep_form,
                            old_class: base.batch.class_of_ball[u],
                        });
                        id
                    }
                }
            }
            None => {
                let c = base.batch.class_of_ball[u];
                let key = &base.batch.class_keys[c];
                match key_to_new.get(key) {
                    Some(&id) => id,
                    None => {
                        let id = class_keys.len();
                        key_to_new.insert(Arc::clone(key), id);
                        class_keys.push(Arc::clone(key));
                        sources.push(ClassSource::Base(c));
                        id
                    }
                }
            }
        };
        class_of_ball.push(id);
    }

    // ---- Stage 3': solve only the classes an affected ball belongs to,
    // driver-side, seeded from the registered base. ----
    let stage = Instant::now();
    let mut lp_solves = 0usize;
    let mut total_pivots = 0u64;
    let mut total_installs = 0u64;
    let mut warm_attempts = 0usize;
    let mut warm_accepted = 0usize;
    let mut dual_attempts = 0usize;
    let mut dual_accepted = 0usize;
    let mut class_bases: Vec<Vec<usize>> = Vec::with_capacity(class_keys.len());
    let mut solutions: Vec<Option<Vec<f64>>> = Vec::with_capacity(class_keys.len());
    for (id, source) in sources.iter().enumerate() {
        match source {
            ClassSource::Base(c) => {
                class_bases.push(base.batch.class_bases[*c].clone());
                solutions.push(None);
            }
            ClassSource::Fresh { rep_form, old_class } => {
                let lp = &forms[*rep_form].instance;
                if lp.num_parties() == 0 {
                    class_bases.push(vec![]);
                    solutions.push(Some(vec![0.0; lp.num_agents()]));
                    continue;
                }
                let (opt, _) = match base.key_to_class.get(&class_keys[id]) {
                    // The canonical LP is unchanged (the edits never reached
                    // this class, or cancelled out): its own recorded basis
                    // re-solves under the zero-pivot exactness gate.
                    Some(&bc) if !base.batch.class_bases[bc].is_empty() => {
                        warm_attempts += 1;
                        let seed = WarmStart { basis: base.batch.class_bases[bc].clone() };
                        let r = solve_maxmin_resumed(lp, &options.simplex, &seed)?;
                        warm_accepted += usize::from(r.1.warm_accepted);
                        r
                    }
                    Some(_) => solve_maxmin_seeded(lp, &options.simplex, None)?,
                    // A genuinely perturbed class: its predecessor's optimal
                    // basis is primal-infeasible under the new weights but
                    // typically still dual-feasible — the dual-simplex phase
                    // repairs it, the uniqueness certificate decides
                    // acceptance, and everything else falls back cold
                    // inside (bit-identical by construction either way).
                    None => {
                        let old = &base.batch.class_bases[*old_class];
                        if old.is_empty() {
                            solve_maxmin_seeded(lp, &options.simplex, None)?
                        } else {
                            dual_attempts += 1;
                            let seed = WarmStart { basis: old.clone() };
                            let r = solve_maxmin_dual_resumed(lp, &options.simplex, &seed)?;
                            dual_accepted += usize::from(r.1.warm_accepted);
                            r
                        }
                    }
                };
                lp_solves += 1;
                total_pivots += opt.pivots as u64;
                total_installs += opt.installs as u64;
                class_bases.push(opt.basis.clone());
                solutions.push(Some(opt.solution.into_vec()));
            }
        }
    }
    timings.solve = stage.elapsed();

    // ---- Stage 4': scatter the fresh solutions onto the affected balls;
    // every unaffected ball keeps its base activity vector verbatim (its
    // presented LP is bit-identical to the base's, so a cold solve would
    // reproduce it). ----
    let stage = Instant::now();
    let balls = base.batch.balls.clone();
    let mut local_x = base.batch.local_x.clone();
    let mut ball_objectives = base.batch.ball_objectives.clone();
    for (i, &u) in affected.iter().enumerate() {
        debug_assert_eq!(balls_aff[i], balls[u], "deltas never change a ball's membership");
        let form = &forms[pres_of_ball_aff[i]];
        let x = solutions[class_of_ball[u]].as_ref().expect("affected classes are solved");
        local_x[u] = unpermute_values(&form.labelling, x);
        ball_objectives[u] = lp_objective(&form.instance, x);
    }
    // The base is always an exact mode (`register_base` rejects lifted), so
    // every interval is the degenerate exact point.
    let intervals: Vec<CertifiedInterval> = ball_objectives
        .iter()
        .map(|&objective| CertifiedInterval::point(objective))
        .collect();
    timings.scatter = stage.elapsed();

    let stats = SolveStats {
        // For an incremental run, "enumerated" counts the balls actually
        // re-presented — the work, not the instance size.
        balls_enumerated: affected.len(),
        distinct_presentations: reps.len(),
        lps_built,
        unique_classes: class_keys.len(),
        cache_hits: n - lp_solves,
        lp_solves,
        total_pivots,
        total_installs,
        warm_attempts,
        warm_accepted,
        dual_attempts,
        dual_accepted,
        quasi_classes: class_keys.len(),
        max_class_slack: 0.0,
        timings,
        stage_shards,
    };
    Ok((
        LocalLpBatch {
            balls,
            local_x,
            class_of_ball,
            class_bases,
            class_keys,
            ball_objectives,
            intervals,
            stats,
        },
        resolve_wire_bytes,
    ))
}

/// The output of one *present* shard: its agents' balls, their shard-local
/// presentation ids, and the shard's presentation table.
pub(crate) struct ShardPresentation {
    pub(crate) balls: Vec<Vec<usize>>,
    pub(crate) pres_of_ball: Vec<usize>,
    pub(crate) reps: Vec<PresentedLp>,
}

/// The output of one *canonicalise* shard: the canonical forms of its
/// presentation range and the shard-local class table.
pub(crate) struct ShardClasses {
    pub(crate) forms: Vec<CanonicalForm>,
    /// Indices into `forms` of the shard's class representatives.
    pub(crate) class_reps: Vec<usize>,
    /// Shard-local class id of each form.
    pub(crate) class_of: Vec<usize>,
}

/// The output of one *lifted* canonicalise shard: the class table of the
/// quantised presentations plus each presentation's measured quantisation
/// slack (aligned with `classes.forms`).
pub(crate) struct ShardQuasiClasses {
    pub(crate) classes: ShardClasses,
    pub(crate) slacks: Vec<f64>,
}

/// One solved LP job.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SolvedLp {
    pub(crate) x: Vec<f64>,
    pub(crate) pivots: u64,
    pub(crate) installs: u64,
    pub(crate) basis: Vec<usize>,
    /// Whether the simplex actually ran (false for party-less shortcuts).
    pub(crate) solved: bool,
    pub(crate) warm_attempted: bool,
    pub(crate) warm_accepted: bool,
}

// ---------------------------------------------------------------------------
// The per-shard stage functions.
//
// These are the single implementations of the four pipeline stages: the
// in-process path calls them on borrowed data (through the `WireStage`
// `run_local` hooks in `crate::transport`), and the worker handlers call the
// very same functions on decoded copies — which is what makes results across
// the byte boundary bit-identical by construction.
// ---------------------------------------------------------------------------

/// Stage 1 body: enumerate the balls of an agent range, deduplicate them by
/// presentation key into a shard-local table and build the local LP of each
/// first occurrence.
pub(crate) fn present_shard(
    instance: &MaxMinInstance,
    cache: &NeighborCache,
    radius: usize,
    range: Range<usize>,
) -> ShardPresentation {
    present_agent_list(instance, cache, radius, range)
}

/// Stage 1' body (the delta path): the same presentation sweep over an
/// explicit agent list — incremental re-solves present only the affected
/// balls, which are rarely a contiguous range.
pub(crate) fn present_agents(
    instance: &MaxMinInstance,
    cache: &NeighborCache,
    radius: usize,
    agents: &[usize],
) -> ShardPresentation {
    present_agent_list(instance, cache, radius, agents.iter().copied())
}

fn present_agent_list(
    instance: &MaxMinInstance,
    cache: &NeighborCache,
    radius: usize,
    agents: impl Iterator<Item = usize>,
) -> ShardPresentation {
    let mut enumerator = BallEnumerator::new(cache);
    let mut sweep = PresentSweep::new(instance);
    // Shard-local presentation table, in first-occurrence order.  Only a
    // first occurrence builds its LP; every repeat costs its key words and
    // one lookup.
    let mut by_key: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut balls = Vec::new();
    let mut pres_of_ball = Vec::new();
    let mut reps: Vec<PresentedLp> = Vec::new();
    for u in agents {
        let ball = enumerator.ball(u, radius);
        sweep.present(&ball);
        let id = match by_key.get(sweep.key.as_slice()) {
            Some(&id) => id,
            None => {
                let id = reps.len();
                by_key.insert(sweep.key.clone(), id);
                reps.push(PresentedLp {
                    instance: sweep.build(ball.len()),
                    key: sweep.key.clone(),
                });
                id
            }
        };
        pres_of_ball.push(id);
        balls.push(ball);
    }
    ShardPresentation { balls, pres_of_ball, reps }
}

/// The reusable scratch of one shard's presentation sweep.  Presenting a
/// ball fills sorted flat buffers with the ball's clipped resources and its
/// fully contained parties and emits the presentation key from them, in
/// `O(|ball| · Δ)` — without scanning the full instance the way
/// `MaxMinInstance::restrict_to_agents` does, and without allocating per
/// ball.  [`build`](PresentSweep::build) turns the buffers into the LP (9),
/// which the sweep's caller does only for first occurrences.
struct PresentSweep<'a> {
    instance: &'a MaxMinInstance,
    /// `local_of[v]` is `v`'s index in the current ball, `usize::MAX` for
    /// agents outside it.
    local_of: Vec<usize>,
    /// `(resource, local agent, a)` for every member of the ball, sorted by
    /// resource then local agent.
    resources: Vec<(usize, usize, f64)>,
    /// Parties with a member in the ball, sorted and deduplicated.
    party_candidates: Vec<usize>,
    /// `(local agent, c)` of the parties lying entirely inside the ball,
    /// party after party, each sorted by local agent.
    parties: Vec<(usize, f64)>,
    /// End offset in `parties` of each kept party.
    party_ends: Vec<usize>,
    /// The current ball's presentation key: the LP's dimensions, then
    /// every resource (`SEP_RESOURCE`, then `local, a` pairs) and every
    /// kept party (`SEP_PARTY`, then `local, c` pairs) in id order.
    key: Vec<u64>,
}

impl<'a> PresentSweep<'a> {
    fn new(instance: &'a MaxMinInstance) -> Self {
        Self {
            instance,
            local_of: vec![usize::MAX; instance.num_agents()],
            resources: Vec::new(),
            party_candidates: Vec::new(),
            parties: Vec::new(),
            party_ends: Vec::new(),
            key: Vec::new(),
        }
    }

    /// Fills the buffers and the key for one (sorted) ball.
    fn present(&mut self, ball: &[usize]) {
        let instance = self.instance;
        self.resources.clear();
        self.party_candidates.clear();
        // Members in ball order: each resource's entries arrive sorted by
        // local index, so the sort below only groups them by resource.
        for (local, &v) in ball.iter().enumerate() {
            self.local_of[v] = local;
            let agent = instance.agent(AgentId::new(v));
            self.resources
                .extend(agent.resources.iter().map(|&(i, a)| (i.index(), local, a)));
            self.party_candidates.extend(agent.parties.iter().map(|&(k, _)| k.index()));
        }
        self.resources.sort_unstable_by_key(|&(i, local, _)| (i, local));
        self.party_candidates.sort_unstable();
        self.party_candidates.dedup();
        // Parties whose support lies entirely inside the ball.
        self.parties.clear();
        self.party_ends.clear();
        'parties: for &k in &self.party_candidates {
            let start = self.parties.len();
            for &(v, c) in instance.party(PartyId::new(k)).members() {
                let local = self.local_of[v.index()];
                if local == usize::MAX {
                    self.parties.truncate(start);
                    continue 'parties;
                }
                self.parties.push((local, c));
            }
            self.parties[start..].sort_unstable_by_key(|&(local, _)| local);
            self.party_ends.push(self.parties.len());
        }
        for &v in ball {
            self.local_of[v] = usize::MAX;
        }

        let key = &mut self.key;
        key.clear();
        key.extend([ball.len() as u64, 0, self.party_ends.len() as u64]);
        let mut num_resources = 0u64;
        let mut previous = usize::MAX;
        for &(i, local, a) in &self.resources {
            if i != previous {
                key.push(SEP_RESOURCE);
                num_resources += 1;
                previous = i;
            }
            key.extend([local as u64, a.to_bits()]);
        }
        key[1] = num_resources;
        let mut start = 0;
        for &end in &self.party_ends {
            key.push(SEP_PARTY);
            for &(local, c) in &self.parties[start..end] {
                key.extend([local as u64, c.to_bits()]);
            }
            start = end;
        }
    }

    /// The LP (9) of the ball last presented: resources clipped to the
    /// ball, parties kept only when their support lies entirely inside,
    /// agents the ball members in sorted order.
    fn build(&self, ball_len: usize) -> MaxMinInstance {
        let mut b =
            InstanceBuilder::with_capacity(ball_len, self.key[1] as usize, self.party_ends.len());
        let agents = b.add_agents(ball_len);
        let mut previous = usize::MAX;
        let mut resource = ResourceId::new(0);
        for &(i, local, a) in &self.resources {
            if i != previous {
                resource = b.add_resource();
                previous = i;
            }
            b.set_consumption(resource, agents[local], a);
        }
        let mut start = 0;
        for &end in &self.party_ends {
            let k = b.add_party();
            for &(local, c) in &self.parties[start..end] {
                b.set_benefit(k, agents[local], c);
            }
            start = end;
        }
        b.build().expect("ball restriction preserves validity")
    }
}

/// Stage 2 body: canonicalise a shard's presentations and build the
/// shard-local class table (first-occurrence order).
pub(crate) fn canonicalise_shard(instances: &[&MaxMinInstance]) -> ShardClasses {
    let forms: Vec<CanonicalForm> = instances.iter().map(|lp| canonical_form(lp)).collect();
    let (class_reps, class_of) = class_table(&forms);
    ShardClasses { forms, class_reps, class_of }
}

/// Stage 2 body, lifted variant: quantise every presentation onto the
/// `(1+ε)^b` grid, canonicalise the quantised LPs and build the shard-local
/// *quasi*-class table, recording each presentation's measured slack.  At
/// `ε = 0` this is exactly [`canonicalise_shard`] with all-zero slacks.
pub(crate) fn lift_shard(instances: &[&MaxMinInstance], epsilon: f64) -> ShardQuasiClasses {
    let mut slacks = Vec::with_capacity(instances.len());
    let forms: Vec<CanonicalForm> = instances
        .iter()
        .map(|lp| {
            let quasi = quasi_canonical_form(lp, epsilon);
            slacks.push(quasi.slack);
            quasi.form
        })
        .collect();
    let (class_reps, class_of) = class_table(&forms);
    ShardQuasiClasses { classes: ShardClasses { forms, class_reps, class_of }, slacks }
}

/// The shard-local class dedup shared by [`canonicalise_shard`] and
/// [`lift_shard`]: first-occurrence class numbering by canonical key.
fn class_table(forms: &[CanonicalForm]) -> (Vec<usize>, Vec<usize>) {
    let mut by_key: HashMap<&CanonicalKey, usize> = HashMap::new();
    let mut class_reps: Vec<usize> = Vec::new();
    let mut class_of: Vec<usize> = Vec::with_capacity(forms.len());
    for (idx, form) in forms.iter().enumerate() {
        let id = match by_key.get(&form.key) {
            Some(&id) => id,
            None => {
                let id = class_reps.len();
                by_key.insert(&form.key, id);
                class_reps.push(idx);
                id
            }
        };
        class_of.push(id);
    }
    (class_reps, class_of)
}

/// Stage 3 body: solve a shard's job sequence in order, chaining warm-start
/// donors within the shard (the donor table starts empty per shard, exactly
/// like the sharded in-process path).
pub(crate) fn solve_shard(
    jobs: &[(&MaxMinInstance, Option<&WarmStart>)],
    simplex: &SimplexOptions,
    policy: WarmStartPolicy,
) -> Vec<Result<SolvedLp, LpError>> {
    let mut donors: HashMap<(usize, usize, usize), WarmStart> = HashMap::new();
    jobs.iter()
        .map(|(lp, cached)| solve_class_job(lp, *cached, simplex, policy, &mut donors))
        .collect()
}

/// Stage 4 body: map one canonical solution back through a ball's canonical
/// labelling (the loop form of [`CanonicalForm::unpermute`]).
pub(crate) fn unpermute_values(labelling: &[usize], canonical_values: &[f64]) -> Vec<f64> {
    debug_assert_eq!(labelling.len(), canonical_values.len());
    labelling.iter().map(|&c| canonical_values[c]).collect()
}

/// Solves one class LP, seeding from the cross-run cache entry when one is
/// given and otherwise consulting (and updating) the shard's donor table
/// under the warm-start policy.
fn solve_class_job(
    lp: &MaxMinInstance,
    cached: Option<&WarmStart>,
    simplex: &SimplexOptions,
    policy: WarmStartPolicy,
    donors: &mut HashMap<(usize, usize, usize), WarmStart>,
) -> Result<SolvedLp, LpError> {
    if lp.num_parties() == 0 {
        // A ball with no complete party support has objective 0 and the zero
        // vector as its (unique sensible) local optimum.
        return Ok(SolvedLp {
            x: vec![0.0; lp.num_agents()],
            pivots: 0,
            installs: 0,
            basis: vec![],
            solved: false,
            warm_attempted: false,
            warm_accepted: false,
        });
    }
    let dims = (lp.num_agents(), lp.num_resources(), lp.num_parties());
    let (opt, report) = match cached {
        // A cache hit is keyed by this class's exact canonical encoding, so
        // the recorded basis is this very LP's deterministic cold basis and
        // the zero-pivot exactness gate applies — no uniqueness certificate
        // needed.
        Some(seed) => solve_maxmin_resumed(lp, simplex, seed)?,
        None => {
            let seed = match policy {
                WarmStartPolicy::Off => None,
                WarmStartPolicy::NearestClass => donors.get(&dims),
            };
            solve_maxmin_seeded(lp, simplex, seed)?
        }
    };
    if policy == WarmStartPolicy::NearestClass {
        donors.insert(dims, opt.warm_start());
    }
    Ok(SolvedLp {
        x: opt.solution.into_vec(),
        pivots: opt.pivots as u64,
        installs: opt.installs as u64,
        basis: opt.basis,
        solved: true,
        warm_attempted: report.warm_attempted,
        warm_accepted: report.warm_accepted,
    })
}

/// The cheap structural similarity key that orders class solves under
/// [`WarmStartPolicy::NearestClass`]: problem dimensions first (so
/// dimension-compatible classes are adjacent — only those can share a
/// basis), then the sorted support-size signatures.
fn similarity_key(lp: &MaxMinInstance) -> Vec<u64> {
    let mut key = Vec::with_capacity(3 + lp.num_resources() + lp.num_parties());
    key.push(lp.num_agents() as u64);
    key.push(lp.num_resources() as u64);
    key.push(lp.num_parties() as u64);
    let mut sizes: Vec<u64> =
        lp.resource_ids().map(|i| lp.resource(i).agents.len() as u64).collect();
    sizes.sort_unstable();
    key.extend(sizes);
    let mut sizes: Vec<u64> = lp.party_ids().map(|k| lp.party(k).agents.len() as u64).collect();
    sizes.sort_unstable();
    key.extend(sizes);
    key
}

/// A ball's local LP together with its presentation key.
pub(crate) struct PresentedLp {
    /// The LP (9) of the ball: resources clipped to the ball, parties kept
    /// only when their support lies entirely inside; agents are the ball
    /// members in sorted order.
    pub(crate) instance: MaxMinInstance,
    /// Exact flat encoding of the LP as presented.  Equal keys mean the two
    /// ball LPs are bit-identical as labelled objects, hence share their
    /// canonical form *and* canonical labelling.
    pub(crate) key: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlp_instances::{
        grid_instance, random_instance, skewed_bipartite_instance, GridConfig,
        RandomInstanceConfig, SkewedBipartiteConfig,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid(side: usize, torus: bool) -> MaxMinInstance {
        let cfg = GridConfig { side_lengths: vec![side, side], torus, random_weights: false };
        grid_instance(&cfg, &mut StdRng::seed_from_u64(9))
    }

    /// The presentation key of an LP from its stored coefficients, each
    /// support list read in local-index order.
    fn reference_key(lp: &MaxMinInstance) -> Vec<u64> {
        let mut key =
            vec![lp.num_agents() as u64, lp.num_resources() as u64, lp.num_parties() as u64];
        let supports = lp
            .resource_ids()
            .map(|i| (SEP_RESOURCE, lp.resource(i).members()))
            .chain(lp.party_ids().map(|k| (SEP_PARTY, lp.party(k).members())));
        for (sep, members) in supports {
            let mut entries: Vec<(usize, u64)> =
                members.iter().map(|(v, c)| (v.index(), c.to_bits())).collect();
            entries.sort_unstable();
            key.push(sep);
            for (local, bits) in entries {
                key.extend([local as u64, bits]);
            }
        }
        key
    }

    /// The shard presentation of `agents`, built the slow way: each ball LP
    /// from `MaxMinInstance::restrict_to_agents`, deduplicated by key in
    /// first-occurrence order.  Returns the balls, `pres_of_ball` and the
    /// representatives' keys.
    fn reference_presentation(
        instance: &MaxMinInstance,
        radius: usize,
        agents: &[usize],
    ) -> (Vec<Vec<usize>>, Vec<usize>, Vec<Vec<u64>>) {
        let (h, _) = communication_hypergraph(instance);
        let mut balls = Vec::new();
        let mut pres_of_ball = Vec::new();
        let mut keys: Vec<Vec<u64>> = Vec::new();
        for &u in agents {
            let ball = h.ball(u, radius);
            let keep: Vec<AgentId> = ball.iter().map(|&v| AgentId::new(v)).collect();
            let key = reference_key(&instance.restrict_to_agents(&keep).0);
            let id = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                keys.push(key);
                keys.len() - 1
            });
            pres_of_ball.push(id);
            balls.push(ball);
        }
        (balls, pres_of_ball, keys)
    }

    fn assert_matches_reference(
        label: &str,
        got: &ShardPresentation,
        instance: &MaxMinInstance,
        radius: usize,
        agents: &[usize],
    ) {
        let (balls, pres_of_ball, keys) = reference_presentation(instance, radius, agents);
        assert_eq!(got.balls, balls, "{label}: balls");
        assert_eq!(got.pres_of_ball, pres_of_ball, "{label}: pres_of_ball");
        let got_keys: Vec<&Vec<u64>> = got.reps.iter().map(|r| &r.key).collect();
        assert_eq!(got_keys, keys.iter().collect::<Vec<_>>(), "{label}: representative keys");
        for (r, rep) in got.reps.iter().enumerate() {
            // The built LP carries exactly the coefficients its key encodes.
            assert_eq!(reference_key(&rep.instance), keys[r], "{label}: representative {r}");
        }
    }

    #[test]
    fn key_first_sweep_matches_the_restrict_to_agents_reference() {
        // Random and degree-skewed instances over many seeds, at radii 1
        // and 2, for the cold sweep over agent ranges and the delta sweep
        // over scattered agent lists of a patched instance.
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let random = random_instance(
                &RandomInstanceConfig {
                    num_agents: 14 + seed as usize % 7,
                    zero_one_coefficients: seed % 3 == 0,
                    ..Default::default()
                },
                &mut rng,
            );
            let skewed = skewed_bipartite_instance(
                &SkewedBipartiteConfig {
                    num_agents: 30,
                    num_resources: 14,
                    num_parties: 20,
                    weight_jitter: if seed % 2 == 0 { 0.0 } else { 0.05 },
                    ..Default::default()
                },
                &mut rng,
            );
            for (name, inst) in [("random", &random), ("skewed", &skewed)] {
                let n = inst.num_agents();
                let (h, _) = communication_hypergraph(inst);
                let cache = h.neighbor_cache();
                for radius in [1usize, 2] {
                    let label = format!("{name} seed {seed} R={radius}");
                    let cut = n / 3;
                    for range in [0..n, cut..n - cut] {
                        let agents: Vec<usize> = range.clone().collect();
                        let got = present_shard(inst, &cache, radius, range);
                        assert_matches_reference(
                            &format!("{label} cold"),
                            &got,
                            inst,
                            radius,
                            &agents,
                        );
                    }
                    // The delta sweep: patch every third agent's first
                    // resource weight and re-present a scattered agent list.
                    let edits: Vec<WeightEdit> = (0..n)
                        .step_by(3)
                        .map(|v| {
                            let (i, a) = inst.agent(AgentId::new(v)).resources[0];
                            WeightEdit {
                                kind: WeightKind::Consumption,
                                row: i.index(),
                                agent: v,
                                weight: a * 1.5,
                            }
                        })
                        .collect();
                    let delta = InstanceDelta { base_version: 0, edits };
                    let patched = delta.apply(inst).unwrap();
                    let agents: Vec<usize> = (0..n).rev().step_by(2).collect();
                    let got = present_agents(&patched, &cache, radius, &agents);
                    assert_matches_reference(
                        &format!("{label} delta"),
                        &got,
                        &patched,
                        radius,
                        &agents,
                    );
                }
            }
        }
    }

    #[test]
    fn batched_and_naive_modes_agree_bitwise() {
        let inst = grid(6, true);
        for radius in [1usize, 2] {
            let batched = solve_local_lps(&inst, &LocalLpOptions::new(radius)).unwrap();
            let naive = solve_local_lps(
                &inst,
                &LocalLpOptions { mode: SolveMode::NaivePerAgent, ..LocalLpOptions::new(radius) },
            )
            .unwrap();
            assert_eq!(batched.local_x, naive.local_x);
            assert_eq!(batched.balls, naive.balls);
            assert_eq!(batched.class_of_ball, naive.class_of_ball);
            assert_eq!(batched.stats.unique_classes, naive.stats.unique_classes);
            assert!(batched.stats.lp_solves <= naive.stats.lp_solves);
            assert_eq!(naive.stats.cache_hits, 0);
        }
    }

    #[test]
    fn all_backends_and_shard_counts_agree_bitwise() {
        let inst = grid(6, false);
        let reference =
            solve_local_lps(&inst, &LocalLpOptions::new(2).with_backend(BackendKind::Sequential))
                .unwrap();
        for backend in [
            BackendKind::ScopedThreads,
            BackendKind::Sharded { shards: 1 },
            BackendKind::Sharded { shards: 2 },
            BackendKind::Sharded { shards: 5 },
            BackendKind::Sharded { shards: 64 },
        ] {
            let batch =
                solve_local_lps(&inst, &LocalLpOptions::new(2).with_backend(backend)).unwrap();
            assert_eq!(batch.local_x, reference.local_x, "{backend:?}");
            assert_eq!(batch.balls, reference.balls, "{backend:?}");
            assert_eq!(batch.class_of_ball, reference.class_of_ball, "{backend:?}");
            assert_eq!(batch.class_bases, reference.class_bases, "{backend:?}");
            assert_eq!(batch.stats.unique_classes, reference.stats.unique_classes);
            assert_eq!(batch.stats.distinct_presentations, reference.stats.distinct_presentations);
        }
    }

    #[test]
    fn custom_backends_plug_in_through_the_trait() {
        // The generic entry point accepts any SolveBackend implementation.
        let inst = grid(4, false);
        let via_trait = solve_local_lps_on(
            &inst,
            &LocalLpOptions::new(1),
            &Sharded::new(3, ParallelConfig::sequential()),
        )
        .unwrap();
        let via_kind = solve_local_lps(
            &inst,
            &LocalLpOptions {
                parallel: ParallelConfig::sequential(),
                ..LocalLpOptions::new(1).with_backend(BackendKind::Sharded { shards: 3 })
            },
        )
        .unwrap();
        assert_eq!(via_trait.local_x, via_kind.local_x);
        assert_eq!(via_trait.stats.unique_classes, via_kind.stats.unique_classes);
        assert_eq!(via_trait.stats.total_pivots, via_kind.stats.total_pivots);
    }

    #[test]
    fn warm_start_changes_pivots_but_never_results() {
        let cfg = GridConfig { side_lengths: vec![8, 8], torus: true, random_weights: true };
        let inst = grid_instance(&cfg, &mut StdRng::seed_from_u64(11));
        let cold = solve_local_lps(&inst, &LocalLpOptions::new(1)).unwrap();
        let warm = solve_local_lps(&inst, &LocalLpOptions::new(1).with_warm_start()).unwrap();
        assert_eq!(cold.local_x, warm.local_x);
        assert_eq!(cold.class_of_ball, warm.class_of_ball);
        assert_eq!(cold.stats.unique_classes, warm.stats.unique_classes);
        assert_eq!(cold.stats.warm_attempts, 0);
        assert!(warm.stats.warm_attempts > 0, "similar classes must be chained");
        assert!(warm.stats.warm_accepted <= warm.stats.warm_attempts);
    }

    #[test]
    fn resolving_from_a_basis_cache_skips_pivots_and_keeps_results_identical() {
        let inst = grid(8, false);
        let cold = solve_local_lps(&inst, &LocalLpOptions::new(1)).unwrap();
        let cache = cold.basis_cache();
        assert!(!cache.is_empty());
        let warm = solve_local_lps_reusing(&inst, &LocalLpOptions::new(1), &cache).unwrap();
        assert_eq!(cold.local_x, warm.local_x);
        assert_eq!(cold.class_of_ball, warm.class_of_ball);
        assert_eq!(cold.class_keys, warm.class_keys);
        assert!(warm.stats.warm_attempts > 0, "every cached class must be seeded");
        assert_eq!(warm.stats.warm_accepted, warm.stats.warm_attempts);
        assert_eq!(
            warm.stats.total_pivots, 0,
            "an unchanged instance must re-solve without a single simplex iteration"
        );
        assert!(warm.stats.total_pivots < cold.stats.total_pivots);
    }

    #[test]
    fn a_foreign_basis_cache_never_changes_results() {
        // A cache recorded from a *different* instance: lookups mostly miss
        // (different canonical keys) and any hit is a genuinely identical
        // canonical LP, so the results must be bit-identical to the cold
        // solve.
        let inst = grid(6, false);
        let other = grid(7, true);
        let foreign = solve_local_lps(&other, &LocalLpOptions::new(1)).unwrap().basis_cache();
        let cold = solve_local_lps(&inst, &LocalLpOptions::new(1)).unwrap();
        let warm = solve_local_lps_reusing(&inst, &LocalLpOptions::new(1), &foreign).unwrap();
        assert_eq!(cold.local_x, warm.local_x);
        assert_eq!(cold.class_of_ball, warm.class_of_ball);
    }

    #[test]
    fn basis_cache_capacity_evicts_least_recently_installed() {
        use mmlp_core::canonical::canonical_key;
        // Three structurally different instances give three distinct keys.
        let keys: Vec<Arc<CanonicalKey>> = [grid(2, false), grid(3, false), grid(4, false)]
            .iter()
            .map(|inst| Arc::new(canonical_key(inst)))
            .collect();
        let seed = |i: usize| WarmStart { basis: vec![i] };

        let mut cache = ClassBasisCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        cache.install(keys[0].clone(), seed(0));
        cache.install(keys[1].clone(), seed(1));
        cache.install(keys[2].clone(), seed(2));
        // Deterministic least-recently-installed eviction: keys[0] is gone.
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&keys[0]).is_none());
        assert_eq!(cache.get(&keys[1]), Some(&seed(1)));
        assert_eq!(cache.get(&keys[2]), Some(&seed(2)));

        // Re-installing refreshes the position: keys[1] survives the next
        // eviction, keys[2] does not.
        cache.install(keys[1].clone(), seed(9));
        cache.install(keys[0].clone(), seed(0));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&keys[2]).is_none());
        assert_eq!(cache.get(&keys[1]), Some(&seed(9)));
        assert_eq!(cache.get(&keys[0]), Some(&seed(0)));

        // Empty bases are never installed and never evict anything.
        cache.install(keys[2].clone(), WarmStart { basis: vec![] });
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&keys[2]).is_none());

        // Capacity 0 clamps to 1 instead of becoming a cache that can never
        // hold the entry it just evicted everything for.
        assert_eq!(ClassBasisCache::with_capacity(0).capacity(), 1);
    }

    #[test]
    fn basis_cache_stays_bounded_across_re_solves() {
        // The regression this satellite fixes: absorbing a stream of
        // different instances into one long-lived cache must not grow it
        // without bound.
        let mut cache = ClassBasisCache::with_capacity(3);
        for side in 2..8usize {
            let batch = solve_local_lps(&grid(side, false), &LocalLpOptions::new(1)).unwrap();
            cache.absorb(&batch);
            assert!(cache.len() <= 3, "cache grew to {} entries", cache.len());
        }
        // A bounded (even cold) cache still never changes results.
        let inst = grid(6, false);
        let cold = solve_local_lps(&inst, &LocalLpOptions::new(1)).unwrap();
        let reused = solve_local_lps_reusing(&inst, &LocalLpOptions::new(1), &cache).unwrap();
        assert_eq!(cold.local_x, reused.local_x);
        assert_eq!(cold.class_of_ball, reused.class_of_ball);
    }

    #[test]
    fn basis_cache_skips_party_less_classes() {
        // A single unconstrained-party instance: balls with no full party
        // support record an empty basis, which must not enter the cache.
        let inst = grid(4, false);
        let batch = solve_local_lps(&inst, &LocalLpOptions::new(1)).unwrap();
        let cache = batch.basis_cache();
        assert!(cache.len() <= batch.class_bases.len());
        assert_eq!(cache.len(), batch.class_bases.iter().filter(|b| !b.is_empty()).count());
    }

    #[test]
    fn stage_shard_stats_cover_all_four_stages() {
        let inst = grid(5, false);
        let batch = solve_local_lps(
            &inst,
            &LocalLpOptions::new(1).with_backend(BackendKind::Sharded { shards: 3 }),
        )
        .unwrap();
        let stages: Vec<&str> = batch.stats.stage_shards.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec!["mmlp/present@1", "mmlp/canonicalise@1", "mmlp/solve@1", "mmlp/scatter@1"]
        );
        assert_eq!(batch.stats.stage_shards[0].items(), inst.num_agents());
        assert_eq!(batch.stats.stage_shards[3].items(), inst.num_agents());
        assert_eq!(batch.stats.stage_shards[1].items(), batch.stats.distinct_presentations);
        assert_eq!(batch.stats.stage_shards[2].items(), batch.stats.unique_classes);
        for stage in &batch.stats.stage_shards {
            assert_eq!(stage.backend, "sharded");
            assert!(stage.shards.len() <= 3);
        }
    }

    #[test]
    fn dedup_statistics_are_consistent() {
        let inst = grid(8, false);
        let batch = solve_local_lps(&inst, &LocalLpOptions::new(2)).unwrap();
        let s = &batch.stats;
        assert_eq!(s.balls_enumerated, inst.num_agents());
        assert!(s.unique_classes <= s.distinct_presentations);
        assert!(s.distinct_presentations <= s.balls_enumerated);
        assert!(s.lp_solves <= s.unique_classes);
        assert_eq!(s.cache_hits, s.balls_enumerated - s.unique_classes);
        assert!(s.cache_hit_rate() > 0.0);
        assert!(s.dedup_factor() > 1.0);
        assert_eq!(batch.class_bases.len(), s.unique_classes);
    }

    #[test]
    fn torus_collapses_to_a_single_class() {
        // On an unweighted torus every agent sees the same ball LP.
        let inst = grid(6, true);
        let batch = solve_local_lps(&inst, &LocalLpOptions::new(1)).unwrap();
        assert_eq!(batch.stats.unique_classes, 1);
        assert_eq!(batch.stats.lp_solves, 1);
        assert!(batch.class_of_ball.iter().all(|&c| c == 0));
    }

    #[test]
    fn twenty_grid_dedups_at_least_10x_at_radius_2() {
        let inst = grid(20, false);
        let batch = solve_local_lps(&inst, &LocalLpOptions::new(2)).unwrap();
        let s = &batch.stats;
        assert!(
            s.lp_solves * 10 <= s.balls_enumerated,
            "only {}/{} LP solves saved",
            s.lp_solves,
            s.balls_enumerated
        );
    }

    #[test]
    fn sequential_and_parallel_execution_agree() {
        let inst = grid(5, false);
        let seq = solve_local_lps(
            &inst,
            &LocalLpOptions { parallel: ParallelConfig::sequential(), ..LocalLpOptions::new(2) },
        )
        .unwrap();
        let par = solve_local_lps(
            &inst,
            &LocalLpOptions { parallel: ParallelConfig::with_threads(8), ..LocalLpOptions::new(2) },
        )
        .unwrap();
        assert_eq!(seq.local_x, par.local_x);
        assert_eq!(seq.stats.unique_classes, par.stats.unique_classes);
    }

    #[test]
    fn empty_instance_short_circuits() {
        let mut b = InstanceBuilder::new();
        b.allow_unconstrained_agents();
        let inst = b.build().unwrap();
        let batch = solve_local_lps(&inst, &LocalLpOptions::new(1)).unwrap();
        assert!(batch.balls.is_empty());
        assert_eq!(batch.stats, SolveStats::default());
    }

    /// A weighted grid plus a small delta that perturbs a few existing
    /// weights (one consumption, one benefit).
    fn weighted_grid_and_delta(version: u64) -> (MaxMinInstance, InstanceDelta) {
        let inst = grid_instance(
            &GridConfig { side_lengths: vec![6, 6], torus: false, random_weights: true },
            &mut StdRng::seed_from_u64(21),
        );
        let (rv, ra) = {
            let (v, a) = inst.resource(ResourceId::new(2)).members()[0];
            (v.index(), a)
        };
        let (pv, pc) = {
            let (v, c) = inst.party(PartyId::new(3)).members()[0];
            (v.index(), c)
        };
        let delta = InstanceDelta {
            base_version: version,
            edits: vec![
                WeightEdit { kind: WeightKind::Consumption, row: 2, agent: rv, weight: ra * 1.5 },
                WeightEdit { kind: WeightKind::Benefit, row: 3, agent: pv, weight: pc * 0.75 },
            ],
        };
        (inst, delta)
    }

    #[test]
    fn incremental_resolve_matches_cold_bitwise() {
        let (inst, delta) = weighted_grid_and_delta(1);
        let options = LocalLpOptions::new(1);
        let base = register_base(&inst, &options, 1).unwrap();
        let run = solve_local_lps_incremental(&base, &delta).unwrap();
        let cold = solve_local_lps(&delta.apply(&inst).unwrap(), &options).unwrap();
        assert_eq!(run.batch.local_x, cold.local_x);
        assert_eq!(run.batch.balls, cold.balls);
        assert_eq!(run.batch.class_of_ball, cold.class_of_ball);
        assert_eq!(run.batch.class_keys, cold.class_keys);
        // Same contract as the warm-reuse path (`tests/conformance_batched.rs`):
        // one basis per class, each an optimal basis of its class — the dual
        // path may record a different representative basis of the same
        // optimal vertex than the cold pivot history.
        assert_eq!(run.batch.class_bases.len(), cold.class_bases.len());
        // The work scaled with the churn, not the instance.
        assert_eq!(run.changed_agents, 2);
        assert!(run.affected_agents < inst.num_agents());
        assert!(run.batch.stats.lp_solves < cold.stats.lp_solves);
        assert!(run.resolve_wire_bytes > 0);
        // Perturbed classes went through the dual-simplex phase.
        assert!(run.batch.stats.dual_attempts > 0);
    }

    #[test]
    fn incremental_empty_delta_reuses_the_base_verbatim() {
        let (inst, _) = weighted_grid_and_delta(1);
        let options = LocalLpOptions::new(1);
        let base = register_base(&inst, &options, 4).unwrap();
        let run =
            solve_local_lps_incremental(&base, &InstanceDelta { base_version: 4, edits: vec![] })
                .unwrap();
        assert_eq!(run.batch.local_x, base.batch().local_x);
        assert_eq!(run.affected_agents, 0);
        assert_eq!(run.resolve_wire_bytes, 0);
    }

    #[test]
    fn incremental_version_mismatch_is_typed() {
        let (inst, mut delta) = weighted_grid_and_delta(9);
        let options = LocalLpOptions::new(1);
        let base = register_base(&inst, &options, 2).unwrap();
        delta.base_version = 9;
        match solve_local_lps_incremental(&base, &delta) {
            Err(EngineError::Delta(DeltaError::VersionMismatch { expected: 2, found: 9 })) => {}
            other => panic!("expected the typed version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn incremental_rejects_out_of_topology_edits() {
        let (inst, _) = weighted_grid_and_delta(1);
        let options = LocalLpOptions::new(1);
        let base = register_base(&inst, &options, 1).unwrap();
        let delta = InstanceDelta {
            base_version: 1,
            edits: vec![WeightEdit {
                kind: WeightKind::Consumption,
                row: inst.num_resources(),
                agent: 0,
                weight: 1.0,
            }],
        };
        match solve_local_lps_incremental(&base, &delta) {
            Err(EngineError::Delta(DeltaError::UnknownEntry { .. })) => {}
            other => panic!("expected the typed unknown-entry error, got {other:?}"),
        }
    }
}
