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
//!    numbering is independent of the backend).  Under
//!    [`SolveMode::Lifted`] the sweep first quantises each ball's
//!    coefficients, so balls with coinciding quantised LPs share one
//!    presentation, and records each ball's measured slack.
//! 2. **Canonicalise** — the unique presentations are sharded again; each
//!    shard computes the exact canonical form ([`mmlp_core::canonical`]) of
//!    its presentations and a shard-local *canonical-class table*.  The
//!    second phase of the two-phase dedup merges the per-shard class tables
//!    into the global class list.
//! 3. **Solve** — each *unique* canonical LP is solved once, sharded over
//!    the class list.  Classes already in a [`ClassSolutionMemo`] (a
//!    previous batch's solutions, keyed by canonical key and simplex
//!    options) are answered host-side; only the misses are shipped.
//! 4. **Scatter** — the canonical solutions are mapped back through each
//!    ball's canonical labelling to all agents sharing the ball class.
//!
//! Because every stage communicates with the next only through its returned
//! shard outputs (and the cheap sequential merges), the same pipeline runs
//! unchanged on the inline, scoped-thread and fixed-shard backends — and a
//! future multi-machine backend is a drop-in replacement
//! ([`solve_local_lps_on`] is generic over the backend).
//!
//! # Why neither dedup nor the memo can change the answer
//!
//! Both engine modes — [`SolveMode::Batched`] and the
//! [`SolveMode::NaivePerAgent`] reference mode — hand the **canonically
//! relabelled** LP to the (deterministic, cold two-phase) simplex solver.
//! Two balls in the same class have *bit-identical* canonical LPs, so
//! solving the class once and reusing the result is pure memoisation — and
//! so is answering a class from a [`ClassSolutionMemo`] filled by an earlier
//! run under the same simplex options.  The conformance suite
//! (`tests/conformance_batched.rs`) asserts bit-identity across modes,
//! backends, shard counts and memo re-solves on every instance generator.
//!
//! [`SolveStats`] reports what the engine did: balls enumerated, distinct
//! presentations, ball LPs built, unique LP classes, cache and memo hits,
//! simplex solves and pivots, wall-clock per stage and per-shard execution
//! statistics.

use crate::transport::{
    engine_registry, CanonWireStage, DeltaPresentWireStage, PresentWireStage, ScatterWireStage,
    SolveWireStage,
};
use mmlp_core::canonical::{
    canonical_form, quantise_weight, CanonicalForm, CanonicalKey, SEP_PARTY, SEP_RESOURCE,
};
use mmlp_core::{AgentId, InstanceBuilder, MaxMinInstance, PartyId, ResourceId};
use mmlp_hypergraph::{communication_hypergraph, BallEnumerator, NeighborCache};
use mmlp_lp::{solve_maxmin_with, CertifiedInterval, LpError, SimplexOptions};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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
    /// Applies the edits to `base`, rebuilding the whole instance through
    /// the validating [`InstanceBuilder`].  The incremental re-solve never
    /// calls this: it presents the affected balls through the delta's
    /// overlay over the base instead, which yields the same ball LPs bit for
    /// bit.  It is the reference that cold comparison solves start from.
    ///
    /// # Errors
    ///
    /// [`DeltaError::UnknownEntry`] for an edit outside the base topology,
    /// [`DeltaError::BadWeight`] for a non-finite or non-positive weight.
    /// The declared `base_version` is *not* checked here — the caller
    /// compares it against the registered version it holds.
    pub fn apply(&self, base: &MaxMinInstance) -> Result<MaxMinInstance, DeltaError> {
        let overlay = self.overlay(base)?;
        let mut b = InstanceBuilder::with_capacity(
            base.num_agents(),
            base.num_resources(),
            base.num_parties(),
        );
        b.allow_unconstrained_agents();
        let agents = b.add_agents(base.num_agents());
        for i in base.resource_ids() {
            let ri = b.add_resource();
            for &(v, a) in base.resource(i).members() {
                let w = overlay.weight(v.index(), WeightKind::Consumption, i.index()).unwrap_or(a);
                b.set_consumption(ri, agents[v.index()], w);
            }
        }
        for k in base.party_ids() {
            let pk = b.add_party();
            for &(v, c) in base.party(k).members() {
                let w = overlay.weight(v.index(), WeightKind::Benefit, k.index()).unwrap_or(c);
                b.set_benefit(pk, agents[v.index()], w);
            }
        }
        Ok(b.build().expect("weight edits preserve instance validity"))
    }

    /// Validates the edits against `base` into a [`WeightOverlay`]: the
    /// edited entries sorted by `(agent, kind, row)`, the last edit of an
    /// entry winning.  The edits are checked in order, so the error is the
    /// first bad edit's.
    ///
    /// # Errors
    ///
    /// As [`apply`](InstanceDelta::apply).
    pub(crate) fn overlay(&self, base: &MaxMinInstance) -> Result<WeightOverlay, DeltaError> {
        let mut edits = Vec::with_capacity(self.edits.len());
        for e in &self.edits {
            if !e.weight.is_finite() || e.weight <= 0.0 {
                return Err(DeltaError::BadWeight { weight: e.weight });
            }
            let members = match e.kind {
                WeightKind::Consumption if e.row < base.num_resources() => {
                    base.resource(ResourceId::new(e.row)).members()
                }
                WeightKind::Benefit if e.row < base.num_parties() => {
                    base.party(PartyId::new(e.row)).members()
                }
                _ => &[],
            };
            if !members.iter().any(|(v, _)| v.index() == e.agent) {
                return Err(DeltaError::UnknownEntry { kind: e.kind, row: e.row, agent: e.agent });
            }
            edits.push((e.agent, e.kind, e.row, e.weight));
        }
        // A stable sort keeps each entry's edits in delta order, so the last
        // of a run is the edit that wins.
        edits.sort_by_key(|&(agent, kind, row, _)| (agent, kind, row));
        let mut overlay: Vec<(usize, WeightKind, usize, f64)> = Vec::with_capacity(edits.len());
        for edit in edits {
            match overlay.last_mut() {
                Some(last) if (last.0, last.1, last.2) == (edit.0, edit.1, edit.2) => *last = edit,
                _ => overlay.push(edit),
            }
        }
        Ok(WeightOverlay { edits: overlay })
    }

    /// The distinct agents named by the edits, sorted ascending — the seeds
    /// of the affected-ball computation.
    pub fn changed_agents(&self) -> Vec<usize> {
        let set: BTreeSet<usize> = self.edits.iter().map(|e| e.agent).collect();
        set.into_iter().collect()
    }
}

/// A validated [`InstanceDelta`] as an overlay over its base instance: the
/// ball presentation reads every coefficient from the base and the edited
/// ones from here, so a re-solve never builds the patched instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct WeightOverlay {
    /// `(agent, kind, row, weight)`, one per edited entry, sorted by
    /// `(agent, kind, row)`.
    edits: Vec<(usize, WeightKind, usize, f64)>,
}

/// The overlay of no delta: a sweep without one presents the instance as is.
static NO_EDITS: WeightOverlay = WeightOverlay { edits: Vec::new() };

impl WeightOverlay {
    /// The edits of agent `v`, sorted by `(kind, row)`.
    fn of_agent(&self, v: usize) -> &[(usize, WeightKind, usize, f64)] {
        let start = self.edits.partition_point(|e| e.0 < v);
        let len = self.edits[start..].partition_point(|e| e.0 == v);
        &self.edits[start..start + len]
    }

    /// The edited weight of one entry, if the delta moved it.
    fn weight(&self, agent: usize, kind: WeightKind, row: usize) -> Option<f64> {
        let at = self.edits.binary_search_by_key(&(agent, kind, row), |e| (e.0, e.1, e.2));
        at.ok().map(|i| self.edits[i].3)
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
    /// [`SolveMode::Batched`]).  The solution memo is never consulted in
    /// this mode — it is the reference the other configurations are
    /// compared against.
    NaivePerAgent,
    /// Lifted (quasi-class) dedup for irregular instances: the present
    /// stage snaps every ball LP's coefficients down onto the geometric grid
    /// `(1+ε)^b` while it keys the ball, so balls whose quantised LPs
    /// coincide share one presentation, `ε`-close weights stop splitting
    /// classes, and the exact pipeline solves one representative LP per
    /// *quasi*-class.  The scattered activity vectors are scaled by
    /// `1/(1+s)` (with `s` the ball's *measured* quantisation slack) so they
    /// stay feasible for every actual ball, and each agent additionally
    /// receives a [`CertifiedInterval`] bracketing its exact ball optimum
    /// ([`LocalLpBatch::intervals`]).  At `epsilon = 0.0` the quasi
    /// partition *is* the exact partition and the batch is bit-identical to
    /// [`SolveMode::Batched`].
    Lifted {
        /// Grid coarseness `ε ≥ 0` (finite).  Larger values merge more
        /// classes at the price of wider certified intervals.
        epsilon: f64,
    },
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
}

impl LocalLpOptions {
    /// Default (batched, scoped-thread) options for a radius.
    pub fn new(radius: usize) -> Self {
        Self {
            radius,
            parallel: ParallelConfig::default(),
            simplex: SimplexOptions::default(),
            mode: SolveMode::Batched,
            backend: BackendKind::default(),
        }
    }

    /// The same options on a different backend.
    pub fn with_backend(self, backend: BackendKind) -> Self {
        Self { backend, ..self }
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
///
/// An incremental re-solve ([`solve_local_lps_incremental`]) reports on
/// its own work: the ball counts cover the re-presented balls only, its
/// single `present-delta` stage presents *and* canonicalises, so
/// `timings.enumerate` spans both and `timings.canonicalise` is zero, and
/// presentations are deduplicated per shard, so
/// [`distinct_presentations`](SolveStats::distinct_presentations) (equal to
/// [`lps_built`](SolveStats::lps_built)) is the per-shard sum.
/// [`stage_shards`](SolveStats::stage_shards) holds that one stage: the
/// solve and scatter run host-side.  An empty delta does no work, so its
/// stats count no balls, presentations, solves, pivots or stages; only the
/// class counts describe the (base) batch.
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
    /// Number of per-ball solve jobs that never reached the solve stage:
    /// the balls minus the jobs submitted.  A ball is a hit when an earlier
    /// ball of the run shares its class or its class was answered from the
    /// solution memo (0 in naive mode).  On an incremental re-solve both
    /// sides count the re-presented balls only.
    pub cache_hits: usize,
    /// Number of classes answered from a [`ClassSolutionMemo`] (or, on an
    /// incremental re-solve, from the registered base's stored solutions)
    /// without running the simplex.
    pub memo_hits: usize,
    /// Number of simplex solves actually performed (party-less ball LPs are
    /// answered with the zero solution and never reach the solver).
    pub lp_solves: usize,
    /// Total simplex *iterations* across all LP solves.
    pub total_pivots: u64,
    /// Always 0: warm starts were removed and every solve is cold.  Kept
    /// only so the benchmark harness that reads it keeps compiling.
    pub total_installs: u64,
    /// Always 0 (warm starts were removed); kept only for the benchmark
    /// harness.
    pub warm_attempts: usize,
    /// Always 0 (warm starts were removed); kept only for the benchmark
    /// harness.
    pub warm_accepted: usize,
    /// Always 0 (warm starts were removed); kept only for the benchmark
    /// harness.
    pub dual_attempts: usize,
    /// Always 0 (warm starts were removed); kept only for the benchmark
    /// harness.
    pub dual_accepted: usize,
    /// Number of quasi-classes the solve grouped the balls into.  Under
    /// [`SolveMode::Lifted`] this is the quantised class count; in the exact
    /// modes it equals [`unique_classes`](SolveStats::unique_classes) (the
    /// exact partition *is* the `ε = 0` quasi partition).
    pub quasi_classes: usize,
    /// The largest measured quantisation slack `s = max(w/q − 1)` over all
    /// balls — `0.0` in the exact modes, and the honest worst-case factor
    /// behind every [`CertifiedInterval`] of the batch.
    pub max_class_slack: f64,
    /// Wall-clock per stage.
    pub timings: StageTimings,
    /// Per-shard execution statistics of every stage, in stage order.
    pub stage_shards: Vec<StageStats>,
}

impl SolveStats {
    /// Fraction of per-ball solve jobs that never reached the solve stage
    /// ([`cache_hits`](SolveStats::cache_hits) over the balls enumerated),
    /// in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.balls_enumerated == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.balls_enumerated as f64
        }
    }

    /// `balls_enumerated / quasi_classes` — how many agents share each
    /// solved (quasi-)class on average.  Defined as `1.0` for an empty batch
    /// (no balls, no classes) rather than `NaN` or `∞`.
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
    /// For each canonical class, the optimal activity vector of its
    /// canonical LP (the zero vector for party-less classes) — what
    /// [`solution_memo`](LocalLpBatch::solution_memo) records.  Shared by
    /// `Arc` like [`class_keys`](LocalLpBatch::class_keys), so a memo or a
    /// registered base holds the batch's allocations instead of copies.
    pub class_solutions: Vec<Arc<[f64]>>,
    /// The canonical key of each class, aligned with
    /// [`class_solutions`](LocalLpBatch::class_solutions).  Interned behind
    /// `Arc` so memo installs, base registration and the incremental class
    /// table share one allocation per class instead of deep-copying the key
    /// per ball.
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
    /// `[ω̃/(1+s), ω̃·(1+s)]` from the ball's measured slack `s`.
    pub intervals: Vec<CertifiedInterval>,
    /// Stage statistics.
    pub stats: SolveStats,
}

impl LocalLpBatch {
    /// Packages this batch's class solutions as a memo for a later solve
    /// under the same simplex options ([`solve_local_lps_reusing`]).
    ///
    /// The production re-solve pattern: serving workloads solve the same (or
    /// an incrementally updated) instance over and over, and every class
    /// whose canonical LP is unchanged since this batch is answered from the
    /// memo without running the simplex.
    pub fn solution_memo(&self, simplex: &SimplexOptions) -> ClassSolutionMemo {
        let mut memo = ClassSolutionMemo::default();
        memo.absorb(self, simplex);
        memo
    }
}

/// Default capacity of a [`ClassSolutionMemo`], in class solutions.
///
/// Generous for every workload in the repository (the 50×50 grid at `R = 2`
/// has 21 classes) while bounding what a long-lived serving process can
/// accumulate across instances: a solution is one `f64` per ball agent, so
/// 4096 entries cap the memo at a few megabytes.
pub const DEFAULT_CLASS_MEMO_CAPACITY: usize = 4096;

/// A memo entry's key: the class's canonical key and the bit patterns of
/// the simplex options it was solved under.
type MemoKey = (Arc<CanonicalKey>, [u64; 3]);

fn memo_key(key: Arc<CanonicalKey>, simplex: &SimplexOptions) -> MemoKey {
    (key, [simplex.tolerance.to_bits(), simplex.max_pivots as u64, simplex.bland_after as u64])
}

/// Canonical class solutions of earlier engine runs, keyed by canonical key
/// and simplex options — the reuse carrier between runs.
///
/// Two classes with the same canonical key have bit-identical canonical
/// LPs, and the cold simplex is deterministic per LP and options, so a hit
/// *is* the answer a solve would compute: it is returned as stored, with no
/// simplex run and no acceptance check.  A memo filled under different
/// [`SimplexOptions`] misses.
///
/// **Bounded.**  The memo holds at most `capacity` solutions and evicts the
/// **least recently installed** entry — a deterministic FIFO over
/// installations, where re-installing an entry that is already resident
/// refreshes its position.  Eviction can only cost a future solve, never
/// change a result, so a small capacity is always safe.
#[derive(Debug, Clone)]
pub struct ClassSolutionMemo {
    /// (key, option bits) → (solution, stamp of its most recent
    /// installation).  Keys are the interned `Arc`s of
    /// [`LocalLpBatch::class_keys`], so absorbing a batch shares its
    /// allocations instead of deep-copying every key.
    solutions: HashMap<MemoKey, (Arc<[f64]>, u64)>,
    /// Installation log `(stamp, entry)`, oldest first.  A refresh appends a
    /// new entry instead of rescanning the log, leaving the old one *stale*
    /// (its stamp no longer matches the map's); eviction skips stale entries
    /// lazily, and the log is compacted when stale entries outnumber live
    /// ones — so a refresh is O(1) amortised instead of O(capacity).
    installed: VecDeque<(u64, MemoKey)>,
    next_stamp: u64,
    capacity: usize,
}

impl Default for ClassSolutionMemo {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CLASS_MEMO_CAPACITY)
    }
}

impl ClassSolutionMemo {
    /// An empty memo with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty memo holding at most `capacity` solutions (clamped to ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self { solutions: HashMap::new(), installed: VecDeque::new(), next_stamp: 0, capacity }
    }

    /// The maximum number of solutions the memo retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of solutions in the memo.
    pub fn len(&self) -> usize {
        self.solutions.len()
    }

    /// Whether the memo holds no solutions.
    pub fn is_empty(&self) -> bool {
        self.solutions.is_empty()
    }

    /// The stored canonical solution of a class solved under `simplex`, if
    /// any.
    pub fn get(&self, key: &Arc<CanonicalKey>, simplex: &SimplexOptions) -> Option<&Arc<[f64]>> {
        self.solutions.get(&memo_key(Arc::clone(key), simplex)).map(|(x, _)| x)
    }

    /// Installs (or refreshes) one class solution, evicting the least
    /// recently installed entry when the capacity is exceeded.
    pub fn install(&mut self, key: Arc<CanonicalKey>, simplex: &SimplexOptions, x: Arc<[f64]>) {
        let entry = memo_key(key, simplex);
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.solutions.insert(entry.clone(), (x, stamp));
        self.installed.push_back((stamp, entry));
        while self.solutions.len() > self.capacity {
            let (stamp, entry) =
                self.installed.pop_front().expect("every resident entry has a log entry");
            // Only evict through the entry's *current* log entry; older ones
            // are leftovers of refreshes.
            if self.solutions.get(&entry).is_some_and(|(_, s)| *s == stamp) {
                self.solutions.remove(&entry);
            }
        }
        // Compact once stale log entries outnumber live ones, keeping the
        // log O(capacity) without rescanning it on every refresh.
        if self.installed.len() > self.solutions.len().saturating_mul(2).max(16) {
            let solutions = &self.solutions;
            self.installed
                .retain(|(stamp, entry)| solutions.get(entry).is_some_and(|(_, s)| s == stamp));
        }
    }

    /// Absorbs every class solution of a batch solved under `simplex`, in
    /// class order — the cross-run accumulation path for serving workloads
    /// that re-solve a stream of instances through one memo.
    pub fn absorb(&mut self, batch: &LocalLpBatch, simplex: &SimplexOptions) {
        for (key, x) in batch.class_keys.iter().zip(&batch.class_solutions) {
            self.install(Arc::clone(key), simplex, Arc::clone(x));
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

/// Runs the engine answering every class found in `memo` from the memo —
/// typically a previous batch's solutions ([`LocalLpBatch::solution_memo`]).
///
/// This is the production re-solve path: on a repeat solve of the same (or a
/// mostly unchanged) instance, every class already in the memo is answered
/// host-side with **no simplex run**; only the misses reach the solve stage.
/// A hit is the stored solution of a bit-identical canonical LP solved
/// under the same options, so the results equal a cold solve bit for bit.
///
/// # Errors
///
/// Propagates simplex failures from the local LPs.
pub fn solve_local_lps_reusing(
    instance: &MaxMinInstance,
    options: &LocalLpOptions,
    memo: &ClassSolutionMemo,
) -> Result<LocalLpBatch, EngineError> {
    dispatch_backend(instance, options, Some(memo))
}

fn dispatch_backend(
    instance: &MaxMinInstance,
    options: &LocalLpOptions,
    memo: Option<&ClassSolutionMemo>,
) -> Result<LocalLpBatch, EngineError> {
    match options.backend {
        BackendKind::Sequential => run_pipeline(instance, options, &Sequential, memo),
        BackendKind::ScopedThreads => {
            run_pipeline(instance, options, &ScopedThreads::new(options.parallel), memo)
        }
        BackendKind::Sharded { shards } => {
            run_pipeline(instance, options, &Sharded::new(shards, options.parallel), memo)
        }
        BackendKind::Loopback { shards } => {
            run_pipeline(instance, options, &LoopbackBackend::new(engine_registry(), shards), memo)
        }
        BackendKind::Subprocess { workers, overlapped } => {
            run_pipeline(instance, options, &*subprocess_backend(workers, overlapped), memo)
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

/// The engine pipeline proper, with an optional cross-run solution memo.
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
    memo: Option<&ClassSolutionMemo>,
) -> Result<LocalLpBatch, EngineError> {
    // The present stage's grid coarseness, validated up front: `0.0` (no
    // quantisation) in the exact modes, `ε` under `SolveMode::Lifted`.
    let epsilon = match options.mode {
        SolveMode::Lifted { epsilon } => {
            if !epsilon.is_finite() || epsilon < 0.0 {
                return Err(EngineError::InvalidOptions(format!(
                    "lifted epsilon must be finite and non-negative, got {epsilon}"
                )));
            }
            epsilon
        }
        SolveMode::Batched | SolveMode::NaivePerAgent => 0.0,
    };
    let n = instance.num_agents();
    if n == 0 {
        return Ok(LocalLpBatch {
            balls: vec![],
            local_x: vec![],
            class_of_ball: vec![],
            class_solutions: vec![],
            class_keys: vec![],
            ball_objectives: vec![],
            intervals: vec![],
            stats: SolveStats::default(),
        });
    }
    let mut timings = StageTimings::default();
    let mut stage_shards: Vec<StageStats> = Vec::new();

    // ---- Stage 1: present — enumerate balls, build ball LPs (quantised
    // onto the `(1+ε)^b` grid under lifted mode), dedup by presentation key
    // (phase 1 per shard, phase 2 in the merge below). ----
    let stage = Instant::now();
    let (h, _) = communication_hypergraph(instance);
    let cache = h.neighbor_cache();
    let run = backend.execute_stage(
        n,
        &PresentWireStage { instance, cache: &cache, radius: options.radius, epsilon },
    )?;
    let lps_built = run.outputs.iter().map(|shard| shard.reps.len()).sum();
    // Merge phase 2: per-shard presentation tables → global table, in shard
    // order (= agent order), so the numbering matches a sequential sweep.
    // `slack_of_ball[u]` is ball `u`'s measured quantisation slack; a shard
    // that did not quantise reports no slacks, meaning all zeros.
    let mut balls: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut pres_of_ball: Vec<usize> = Vec::with_capacity(n);
    let mut slack_of_ball: Vec<f64> = Vec::with_capacity(n);
    let (reps, shard_maps) = merge_presentations(run.outputs);
    for (shard_out, map) in shard_maps {
        balls.extend(shard_out.balls);
        pres_of_ball.extend(shard_out.pres_of_ball.into_iter().map(|p| map[p]));
        slack_of_ball.extend(shard_out.slack_of_ball);
        slack_of_ball.resize(balls.len(), 0.0);
    }
    stage_shards.push(run.stats);
    timings.enumerate = stage.elapsed();

    // ---- Stage 2: canonicalise the unique presentations; each shard also
    // returns its local canonical-class table (phase 1 of the class dedup).
    let stage = Instant::now();
    let run = backend.execute_stage(
        reps.len(),
        &CanonWireStage { instances: reps.iter().map(|r| &r.instance).collect() },
    )?;
    // Flatten the forms (shard order = presentation order), then merge the
    // per-shard class tables (phase 2).
    let mut forms: Vec<CanonicalForm> = Vec::with_capacity(reps.len());
    let mut shard_tables: Vec<(usize, Vec<usize>, Vec<usize>)> = Vec::new(); // (offset, class_reps, class_of)
    for sc in run.outputs {
        shard_tables.push((forms.len(), sc.class_reps, sc.class_of));
        forms.extend(sc.forms);
    }
    let (class_reps, class_of_pres) = merge_class_tables(&forms, &shard_tables);
    let class_of_ball: Vec<usize> = pres_of_ball.iter().map(|&p| class_of_pres[p]).collect();
    // Intern each class key once: take it out of its form (the forms' keys
    // are not read past this point) instead of deep-copying the encoding.
    let class_keys: Vec<Arc<CanonicalKey>> = class_reps
        .iter()
        .map(|&p| {
            Arc::new(std::mem::replace(&mut forms[p].key, CanonicalKey::from_words(Vec::new())))
        })
        .collect();
    stage_shards.push(run.stats);
    timings.canonicalise = stage.elapsed();

    // ---- Stage 3: solve one job per class (batched) or per ball (naive),
    // on the canonical presentation.  In batched mode, classes found in the
    // memo are answered host-side and only the misses are shipped. ----
    let stage = Instant::now();
    let num_classes = class_reps.len();
    let (jobs, class_solutions, memo_hits) = match options.mode {
        // Lifted mode reuses the batched solve stage unchanged: the class
        // table above already reflects the quasi partition, and every class
        // representative is the canonical *quantised* LP.
        SolveMode::Batched | SolveMode::Lifted { .. } => {
            let mut solutions: Vec<Option<Arc<[f64]>>> = class_keys
                .iter()
                .map(|key| memo.and_then(|m| m.get(key, &options.simplex)).cloned())
                .collect();
            let misses: Vec<usize> = (0..num_classes).filter(|&c| solutions[c].is_none()).collect();
            let run = backend.execute_stage(
                misses.len(),
                &SolveWireStage {
                    jobs: misses.iter().map(|&c| &forms[class_reps[c]].instance).collect(),
                    simplex: options.simplex,
                },
            )?;
            stage_shards.push(run.stats);
            let jobs: Vec<SolvedLp> =
                run.outputs.into_iter().flatten().collect::<Result<_, _>>()?;
            for (&c, job) in misses.iter().zip(&jobs) {
                solutions[c] = Some(Arc::from(job.x.as_slice()));
            }
            let solutions: Vec<Arc<[f64]>> = solutions
                .into_iter()
                .map(|x| x.expect("every class is a memo hit or solved"))
                .collect();
            (jobs, solutions, num_classes - misses.len())
        }
        SolveMode::NaivePerAgent => {
            let run = backend.execute_stage(
                n,
                &SolveWireStage {
                    jobs: (0..n).map(|u| &forms[pres_of_ball[u]].instance).collect(),
                    simplex: options.simplex,
                },
            )?;
            stage_shards.push(run.stats);
            let jobs: Vec<SolvedLp> =
                run.outputs.into_iter().flatten().collect::<Result<_, _>>()?;
            // One solution per class, taken from the first ball of the class
            // (every ball of a class solves the same canonical LP).
            let mut solutions: Vec<Option<Arc<[f64]>>> = vec![None; num_classes];
            for u in 0..n {
                solutions[class_of_ball[u]].get_or_insert_with(|| Arc::from(jobs[u].x.as_slice()));
            }
            let solutions =
                solutions.into_iter().map(|x| x.expect("every class has a ball")).collect();
            (jobs, solutions, 0)
        }
    };
    let lp_solves = jobs.iter().filter(|j| j.solved).count();
    let total_pivots = jobs.iter().map(|j| j.pivots).sum();
    timings.solve = stage.elapsed();

    // ---- Stage 4: scatter canonical solutions back onto the balls.  The
    // deduplicated solutions travel once (in the stage context); each ball
    // carries only its labelling and a solution index, so the payload does
    // not grow with the dedup ratio. ----
    let stage = Instant::now();
    let solutions: Vec<&[f64]> = match options.mode {
        SolveMode::NaivePerAgent => jobs.iter().map(|j| j.x.as_slice()).collect(),
        SolveMode::Batched | SolveMode::Lifted { .. } => {
            class_solutions.iter().map(|x| &**x).collect()
        }
    };
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
                .map(|c| lp_objective(&forms[class_reps[c]].instance, &class_solutions[c]))
                .collect();
            class_of_ball.iter().map(|&c| class_objectives[c]).collect()
        }
    };
    let intervals: Vec<CertifiedInterval> = (0..n)
        .map(|u| CertifiedInterval::from_objective_and_slack(ball_objectives[u], slack_of_ball[u]))
        .collect();
    // Lifted mode scatters the *quantised* class optimiser; scaled by
    // `1/(1+s)` it is feasible for the actual ball LP and achieves at least
    // the interval's lower bound (see `mmlp_lp::interval`).  At slack 0 the
    // factor is exactly 1.0, preserving bit-identity with the exact modes.
    for (x, &slack) in local_x.iter_mut().zip(&slack_of_ball) {
        let factor = 1.0 / (1.0 + slack);
        if factor != 1.0 {
            for v in x {
                *v *= factor;
            }
        }
    }
    stage_shards.push(run.stats);
    timings.scatter = stage.elapsed();

    let stats = SolveStats {
        balls_enumerated: n,
        distinct_presentations: reps.len(),
        lps_built,
        unique_classes: num_classes,
        cache_hits: n - jobs.len(),
        memo_hits,
        lp_solves,
        total_pivots,
        quasi_classes: num_classes,
        max_class_slack: slack_of_ball.iter().fold(0.0, |a: f64, &s| a.max(s)),
        timings,
        stage_shards,
        ..SolveStats::default()
    };
    Ok(LocalLpBatch {
        balls,
        local_x,
        class_of_ball,
        class_solutions,
        class_keys,
        ball_objectives,
        intervals,
        stats,
    })
}

/// Phase 2 of the canonical-class dedup, shared by the cold and incremental
/// pipelines: merges the per-shard class tables `(offset into forms, shard
/// class representatives, shard class of each form)` into global class ids
/// in first-occurrence order over the shard scan.  Returns the global class
/// representatives (indices into `forms`) and the class of every form.
fn merge_class_tables(
    forms: &[CanonicalForm],
    shard_tables: &[(usize, Vec<usize>, Vec<usize>)],
) -> (Vec<usize>, Vec<usize>) {
    let mut class_of_form: Vec<usize> = vec![0; forms.len()];
    let mut class_reps: Vec<usize> = Vec::new();
    let mut global_ids: HashMap<&CanonicalKey, usize> = HashMap::new();
    for (offset, local_reps, class_of) in shard_tables {
        let mut local_to_global = Vec::with_capacity(local_reps.len());
        for &r in local_reps {
            let id = *global_ids.entry(&forms[offset + r].key).or_insert_with(|| {
                class_reps.push(offset + r);
                class_reps.len() - 1
            });
            local_to_global.push(id);
        }
        for (i, &c) in class_of.iter().enumerate() {
            class_of_form[offset + i] = local_to_global[c];
        }
    }
    (class_reps, class_of_form)
}

/// Phase 2 of the presentation dedup in the cold pipeline: merges the
/// per-shard presentation tables into the global table (first-occurrence
/// order over the shard scan) **without copying any presentation key** —
/// pass 1 hashes borrowed key slices to assign global ids, pass 2 moves
/// exactly the first-occurrence representatives out of the shard outputs.
/// Returns the global representatives plus each shard's output (its `reps`
/// drained) and local→global id map.
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
/// balls reuse its activity vectors verbatim, classes whose canonical key
/// the base already has reuse its stored class solution, and only
/// perturbed classes are solved (cold).
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
            overlay: &NO_EDITS,
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
        // Deltas are defined against exact class keys: a re-solve reuses a
        // base class solution only for a bit-identical canonical LP, and
        // scatters exact point intervals.  A lifted base's quasi-classes
        // would make both unsound.
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
    /// churn rates), and so are the class solutions.
    pub batch: LocalLpBatch,
    /// Distinct agents named by the delta's edits.
    pub changed_agents: usize,
    /// Balls re-presented: agents whose radius-`R` ball contains a changed
    /// agent (ball membership is symmetric, so this is the union of the
    /// balls around the changed agents).
    pub affected_agents: usize,
    /// Bytes of this re-solve's wire job payload (the `present-delta` job:
    /// the edits and the affected-agent list), computed with the
    /// transport's own encoders as one shard would ship it —
    /// `O(edits + affected agents)`, independent of the instance size and
    /// of the backend.  The base context is *not* included: it ships once
    /// per worker at first use and is deduped afterwards
    /// ([`RegisteredBase::context_wire_bytes`]).  Neither are the replies,
    /// which carry each shard's canonical forms as key words plus
    /// labelling; on a transport backend the driver counts them per shard
    /// in the batch's `stage_shards`
    /// ([`StageStats::reply_bytes`]).
    pub resolve_wire_bytes: usize,
}

/// Re-solves a registered base under a weight delta, touching only what the
/// delta can affect.
///
/// The pipeline: (1') re-present the affected balls through the
/// `mmlp/present-delta@4` stage — across the backend, shipping only the
/// edits and the affected-agent lists against the deduped base context,
/// each side reading the base's coefficients through the delta's edit
/// overlay, so no side rebuilds the patched instance;
/// (2') in the same worker round trip, canonicalise each shard's distinct
/// presentations, so a reply carries each ball's presentation id and the
/// shard's class table, and the host merges the shard tables; (3') number
/// the classes by first occurrence over an agent scan and resolve only the
/// classes whose first ball is affected, driver-side — a class whose
/// canonical key the base already has reuses the base's stored solution (a
/// memo hit), a genuinely perturbed class is solved cold; (4') scatter the
/// class solutions onto the affected balls, keeping every unaffected ball's
/// activity vector verbatim.
///
/// A memo hit is the solution of a bit-identical canonical LP, so the
/// returned solutions, balls, class numbering, class keys and class
/// solutions equal a cold solve of the patched instance bit for bit — only
/// the work (and the wire bytes) scale with the churn.  An empty delta
/// returns the base batch with zeroed work counters: no balls, solves,
/// pivots or stage runs.
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
    let overlay = delta.overlay(&base.instance)?;
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
        // An empty delta: the base batch *is* the cold solve of the patched
        // instance, and the re-solve did no work.
        let mut batch = base.batch.clone();
        let classes = batch.class_keys.len();
        batch.stats =
            SolveStats { unique_classes: classes, quasi_classes: classes, ..SolveStats::default() };
        return Ok(IncrementalRun {
            batch,
            changed_agents: changed.len(),
            affected_agents: 0,
            resolve_wire_bytes: 0,
        });
    }
    let (batch, resolve_wire_bytes) = run_incremental(base, delta, &overlay, &affected, backend)?;
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
    overlay: &WeightOverlay,
    affected: &[usize],
    backend: &B,
) -> Result<(LocalLpBatch, usize), EngineError> {
    let n = base.instance.num_agents();
    let options = &base.options;
    let mut timings = StageTimings::default();

    // ---- Stage 1': re-present the affected balls and canonicalise each
    // shard's distinct presentations, in one round trip.  The stage's
    // context (radius + version + full base instance) is deduped per link;
    // only the jobs below actually travel on a re-solve, and the replies
    // carry no balls or ball LPs — the host already has the balls. ----
    let stage = Instant::now();
    let delta_stage = DeltaPresentWireStage {
        base: &base.instance,
        overlay,
        cache: &base.neighbors,
        radius: options.radius,
        base_version: base.version,
        delta,
        affected,
    };
    // The marginal wire bytes of this re-solve, measured with the very
    // encoders the transport uses (single-shard equivalent; sharding
    // replicates only the small delta header).
    let resolve_wire_bytes = {
        let mut job = Vec::new();
        delta_stage.encode_job(&Shard { index: 0, start: 0, end: affected.len() }, &mut job);
        job.len()
    };
    let run = backend.execute_stage(affected.len(), &delta_stage)?;
    // Flatten the forms (shard order = order of the affected list, so the
    // numbering is backend-independent), point each affected ball at its
    // shard's form, and merge the per-shard class tables.
    let mut forms: Vec<CanonicalForm> = Vec::new();
    let mut form_of_affected: Vec<usize> = Vec::with_capacity(affected.len());
    let mut shard_tables: Vec<(usize, Vec<usize>, Vec<usize>)> = Vec::new();
    for out in run.outputs {
        let offset = forms.len();
        form_of_affected.extend(out.pres_of_ball.iter().map(|&p| offset + p));
        shard_tables.push((offset, out.classes.class_reps, out.classes.class_of));
        forms.extend(out.classes.forms);
    }
    let (fresh_reps, class_of_form) = merge_class_tables(&forms, &shard_tables);
    let stage_shards = vec![run.stats];
    timings.enumerate = stage.elapsed();

    // ---- Global class table: first-occurrence numbering over an agent
    // scan.  Unaffected balls contribute their base classes, affected balls
    // their fresh classes; since unaffected balls present bit-identically
    // to the base, this is the same numbering a cold solve of the patched
    // instance produces.  Each fresh key is looked up in the base once, so
    // a fresh class equal to a base class shares its slot, and the scan
    // itself hashes nothing. ----
    enum ClassSource {
        /// The class's first ball is unaffected: the base solution stands.
        Base(usize),
        /// The class's first ball is affected; the fresh class index (into
        /// `fresh_reps`).
        Fresh(usize),
    }
    let base_of_fresh: Vec<Option<usize>> = fresh_reps
        .iter()
        .map(|&f| base.key_to_class.get(&forms[f].key).copied())
        .collect();
    const UNNUMBERED: usize = usize::MAX;
    let mut id_of_base = vec![UNNUMBERED; base.batch.class_keys.len()];
    let mut id_of_fresh = vec![UNNUMBERED; fresh_reps.len()];
    let mut sources: Vec<ClassSource> = Vec::new();
    let mut class_of_ball: Vec<usize> = Vec::with_capacity(n);
    let mut next_affected = affected.iter().enumerate().peekable();
    for u in 0..n {
        let (slot, source) = match next_affected.next_if(|&(_, &v)| v == u) {
            Some((i, _)) => {
                let a = class_of_form[form_of_affected[i]];
                let slot = match base_of_fresh[a] {
                    Some(c) => &mut id_of_base[c],
                    None => &mut id_of_fresh[a],
                };
                (slot, ClassSource::Fresh(a))
            }
            None => {
                let c = base.batch.class_of_ball[u];
                (&mut id_of_base[c], ClassSource::Base(c))
            }
        };
        if *slot == UNNUMBERED {
            *slot = sources.len();
            sources.push(source);
        }
        class_of_ball.push(*slot);
    }

    // ---- Stage 3': resolve only the classes whose first ball is affected,
    // driver-side: a key the base already has is a memo hit, anything else
    // is solved cold. ----
    let stage = Instant::now();
    let mut memo_hits = 0usize;
    let mut jobs_submitted = 0usize;
    let mut lp_solves = 0usize;
    let mut total_pivots = 0u64;
    let mut class_keys: Vec<Arc<CanonicalKey>> = Vec::with_capacity(sources.len());
    let mut class_solutions: Vec<Arc<[f64]>> = Vec::with_capacity(sources.len());
    let base_class = |c: usize| {
        (Arc::clone(&base.batch.class_keys[c]), Arc::clone(&base.batch.class_solutions[c]))
    };
    for source in &sources {
        let (key, x) = match *source {
            ClassSource::Base(c) => base_class(c),
            ClassSource::Fresh(a) => match base_of_fresh[a] {
                // The canonical LP is unchanged (the edits never reached
                // this class, or cancelled out): the base's solution is the
                // answer.
                Some(c) => {
                    memo_hits += 1;
                    base_class(c)
                }
                None => {
                    jobs_submitted += 1;
                    let rep = &mut forms[fresh_reps[a]];
                    let job = solve_class_lp(&rep.instance, &options.simplex)?;
                    lp_solves += usize::from(job.solved);
                    total_pivots += job.pivots;
                    // Move the key out: the forms' keys are not read past
                    // this point.
                    let key = std::mem::replace(&mut rep.key, CanonicalKey::from_words(Vec::new()));
                    (Arc::new(key), Arc::from(job.x))
                }
            },
        };
        class_keys.push(key);
        class_solutions.push(x);
    }
    timings.solve = stage.elapsed();

    // ---- Stage 4': scatter the class solutions onto the affected balls;
    // every unaffected ball keeps its base activity vector verbatim (its
    // presented LP is bit-identical to the base's, so a cold solve would
    // reproduce it). ----
    let stage = Instant::now();
    let balls = base.batch.balls.clone();
    let mut local_x = base.batch.local_x.clone();
    let mut ball_objectives = base.batch.ball_objectives.clone();
    for (&u, &f) in affected.iter().zip(&form_of_affected) {
        let form = &forms[f];
        let x = &class_solutions[class_of_ball[u]];
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
        // re-presented — the work, not the instance size — and the hits are
        // counted over the same balls.  Presentations are deduplicated per
        // shard only, so both counts are per-shard sums.
        balls_enumerated: affected.len(),
        distinct_presentations: forms.len(),
        lps_built: forms.len(),
        unique_classes: class_keys.len(),
        cache_hits: affected.len() - jobs_submitted,
        memo_hits,
        lp_solves,
        total_pivots,
        quasi_classes: class_keys.len(),
        timings,
        stage_shards,
        ..SolveStats::default()
    };
    Ok((
        LocalLpBatch {
            balls,
            local_x,
            class_of_ball,
            class_solutions,
            class_keys,
            ball_objectives,
            intervals,
            stats,
        },
        resolve_wire_bytes,
    ))
}

/// The output of one *present* shard: its agents' balls, their shard-local
/// presentation ids and measured quantisation slacks, and the shard's
/// presentation table.
pub(crate) struct ShardPresentation {
    pub(crate) balls: Vec<Vec<usize>>,
    pub(crate) pres_of_ball: Vec<usize>,
    /// Each ball's measured slack `max w/q − 1` over its LP's coefficients,
    /// aligned with `balls`.  Empty when the sweep did not quantise
    /// (`ε = 0`), which means every slack is zero.
    pub(crate) slack_of_ball: Vec<f64>,
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

/// The output of one fused *present-delta* shard: each affected ball's
/// shard-local presentation id and the canonical forms and class table of
/// the shard's distinct presentations (one form per presentation).
pub(crate) struct ShardDeltaClasses {
    pub(crate) pres_of_ball: Vec<usize>,
    pub(crate) classes: ShardClasses,
}

/// One solved LP job.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SolvedLp {
    pub(crate) x: Vec<f64>,
    pub(crate) pivots: u64,
    /// Whether the simplex actually ran (false for party-less shortcuts).
    pub(crate) solved: bool,
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

/// Stage 1 body: enumerate the balls of an agent range, quantise their
/// coefficients onto the `(1+ε)^b` grid (`ε = 0`: not at all), deduplicate
/// them by presentation key into a shard-local table and build the local LP
/// of each first occurrence.
pub(crate) fn present_shard(
    instance: &MaxMinInstance,
    cache: &NeighborCache,
    radius: usize,
    epsilon: f64,
    range: Range<usize>,
) -> ShardPresentation {
    present_agent_list(PresentSweep::new(instance, epsilon), cache, radius, range)
}

/// Stage 1' body (the delta path): the same presentation sweep over an
/// explicit agent list — incremental re-solves present only the affected
/// balls, which are rarely a contiguous range — reading the base's
/// coefficients through the delta's overlay, followed by the stage 2 body
/// on the shard's distinct presentations, so a re-solve needs one round
/// trip and builds no patched instance.  Deltas are exact-mode only, so the
/// sweep never quantises.
pub(crate) fn present_and_canonicalise_agents(
    base: &MaxMinInstance,
    overlay: &WeightOverlay,
    cache: &NeighborCache,
    radius: usize,
    agents: &[usize],
) -> ShardDeltaClasses {
    let sweep = PresentSweep::with_overlay(base, overlay);
    let presented = present_agent_list(sweep, cache, radius, agents.iter().copied());
    let lps: Vec<&MaxMinInstance> = presented.reps.iter().map(|r| &r.instance).collect();
    ShardDeltaClasses { pres_of_ball: presented.pres_of_ball, classes: canonicalise_shard(&lps) }
}

fn present_agent_list(
    mut sweep: PresentSweep<'_>,
    cache: &NeighborCache,
    radius: usize,
    agents: impl Iterator<Item = usize>,
) -> ShardPresentation {
    let mut enumerator = BallEnumerator::new(cache);
    // Shard-local presentation table, in first-occurrence order.  Only a
    // first occurrence builds its LP; every repeat costs its key words and
    // one lookup.
    let mut by_key: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut balls = Vec::new();
    let mut pres_of_ball = Vec::new();
    let mut slack_of_ball = Vec::new();
    let mut reps: Vec<PresentedLp> = Vec::new();
    for u in agents {
        let ball = enumerator.ball(u, radius);
        sweep.present(&ball);
        if sweep.epsilon > 0.0 {
            slack_of_ball.push(sweep.slack);
        }
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
    ShardPresentation { balls, pres_of_ball, slack_of_ball, reps }
}

/// The reusable scratch of one shard's presentation sweep.  Presenting a
/// ball fills sorted flat buffers with the ball's clipped resources and its
/// fully contained parties and emits the presentation key from them, in
/// `O(|ball| · Δ)` — without scanning the full instance the way
/// `MaxMinInstance::restrict_to_agents` does, and without allocating per
/// ball.  [`build`](PresentSweep::build) turns the buffers into the LP (9),
/// which the sweep's caller does only for first occurrences.
///
/// With `ε > 0` every kept coefficient is snapped down onto the grid
/// `(1+ε)^b` ([`quantise_weight`]) before the key is written, so the key and
/// the built LP are those of the quantised ball LP, and
/// [`slack`](PresentSweep::slack) records what the snap cost this ball.
///
/// With a [`WeightOverlay`] ([`with_overlay`](PresentSweep::with_overlay))
/// the sweep presents the instance the overlay's delta would patch the base
/// into: the edited coefficients replace the base's in the sorted buffers,
/// before the key is written, so the key and the LP equal those of the
/// patched instance bit for bit.
///
/// The one ball-LP builder: the engine's present stage and the per-agent
/// view rule ([`crate::local_averaging::local_averaging_activity_from_view`])
/// both build their LPs here, so the two present bit-identical LPs.
pub(crate) struct PresentSweep<'a> {
    instance: &'a MaxMinInstance,
    /// Edited coefficients that replace the instance's; empty off the delta
    /// path.
    overlay: &'a WeightOverlay,
    /// Grid coarseness; `0.0` presents the exact coefficients.
    epsilon: f64,
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
    /// `(party, end offset in parties)` of each kept party, sorted by party.
    party_ends: Vec<(usize, usize)>,
    /// The current ball's presentation key: the LP's dimensions, then
    /// every resource (`SEP_RESOURCE`, then `local, a` pairs) and every
    /// kept party (`SEP_PARTY`, then `local, c` pairs) in id order.
    key: Vec<u64>,
    /// The measured slack `max w/q − 1` over the coefficients of the ball
    /// last presented; `0.0` when `ε = 0`.
    pub(crate) slack: f64,
}

impl<'a> PresentSweep<'a> {
    pub(crate) fn new(instance: &'a MaxMinInstance, epsilon: f64) -> Self {
        Self {
            instance,
            overlay: &NO_EDITS,
            epsilon,
            local_of: vec![usize::MAX; instance.num_agents()],
            resources: Vec::new(),
            party_candidates: Vec::new(),
            parties: Vec::new(),
            party_ends: Vec::new(),
            key: Vec::new(),
            slack: 0.0,
        }
    }

    /// Presents the base instance patched by `overlay` (exact coefficients:
    /// deltas apply to exact-mode bases only).
    pub(crate) fn with_overlay(instance: &'a MaxMinInstance, overlay: &'a WeightOverlay) -> Self {
        Self { overlay, ..Self::new(instance, 0.0) }
    }

    /// Fills the buffers and the key for one (sorted) ball.
    pub(crate) fn present(&mut self, ball: &[usize]) {
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
            self.party_ends.push((k, self.parties.len()));
        }
        for &v in ball {
            self.local_of[v] = usize::MAX;
        }
        if !self.overlay.edits.is_empty() {
            self.patch(ball);
        }
        if self.epsilon > 0.0 {
            self.quantise();
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
        for &(_, end) in &self.party_ends {
            key.push(SEP_PARTY);
            for &(local, c) in &self.parties[start..end] {
                key.extend([local as u64, c.to_bits()]);
            }
            start = end;
        }
    }

    /// Overwrites the ball's edited coefficients with the overlay's weights.
    /// Every resource of a ball agent is in the buffers, so a consumption
    /// edit always lands; a benefit edit lands when its party is kept.
    fn patch(&mut self, ball: &[usize]) {
        let overlay = self.overlay;
        for (local, &v) in ball.iter().enumerate() {
            for &(_, kind, row, w) in overlay.of_agent(v) {
                let entry = match kind {
                    WeightKind::Consumption => self
                        .resources
                        .binary_search_by_key(&(row, local), |&(i, l, _)| (i, l))
                        .ok()
                        .map(|at| &mut self.resources[at].2),
                    WeightKind::Benefit => {
                        let Ok(p) = self.party_ends.binary_search_by_key(&row, |&(k, _)| k) else {
                            continue;
                        };
                        let begin = p.checked_sub(1).map_or(0, |q| self.party_ends[q].1);
                        let members = &mut self.parties[begin..self.party_ends[p].1];
                        members
                            .binary_search_by_key(&local, |&(l, _)| l)
                            .ok()
                            .map(|at| &mut members[at].1)
                    }
                };
                *entry.expect("a validated edit names an entry of its agent") = w;
            }
        }
    }

    /// Snaps every kept coefficient onto the `(1+ε)^b` grid in place and
    /// measures the slack the snap incurred.
    fn quantise(&mut self) {
        let epsilon = self.epsilon;
        let mut slack = 0.0f64;
        let mut snap = |w: &mut f64| {
            let q = quantise_weight(*w, epsilon);
            slack = slack.max(*w / q - 1.0);
            *w = q;
        };
        self.resources.iter_mut().for_each(|(_, _, a)| snap(a));
        self.parties.iter_mut().for_each(|(_, c)| snap(c));
        self.slack = slack;
    }

    /// The presentation key of the ball last presented: exact coefficient
    /// bits and ball-local indices, so equal keys mean identical LPs.
    pub(crate) fn key(&self) -> &[u64] {
        &self.key
    }

    /// The number of parties lying entirely inside the ball last presented.
    pub(crate) fn num_parties(&self) -> usize {
        self.party_ends.len()
    }

    /// The LP (9) of the ball last presented: resources clipped to the
    /// ball, parties kept only when their support lies entirely inside,
    /// agents the ball members in sorted order.
    pub(crate) fn build(&self, ball_len: usize) -> MaxMinInstance {
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
        for &(_, end) in &self.party_ends {
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
/// shard-local class table (first-occurrence order by canonical key).
pub(crate) fn canonicalise_shard(instances: &[&MaxMinInstance]) -> ShardClasses {
    let forms: Vec<CanonicalForm> = instances.iter().map(|lp| canonical_form(lp)).collect();
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
    ShardClasses { forms, class_reps, class_of }
}

/// Stage 3 body: solve a shard's canonical LPs, each cold and in order.
pub(crate) fn solve_shard(
    jobs: &[&MaxMinInstance],
    simplex: &SimplexOptions,
) -> Vec<Result<SolvedLp, LpError>> {
    jobs.iter().map(|lp| solve_class_lp(lp, simplex)).collect()
}

/// Stage 4 body: map one canonical solution back through a ball's canonical
/// labelling (the loop form of [`CanonicalForm::unpermute`]).
pub(crate) fn unpermute_values(labelling: &[usize], canonical_values: &[f64]) -> Vec<f64> {
    debug_assert_eq!(labelling.len(), canonical_values.len());
    labelling.iter().map(|&c| canonical_values[c]).collect()
}

/// Solves one class LP with the cold simplex.
fn solve_class_lp(lp: &MaxMinInstance, simplex: &SimplexOptions) -> Result<SolvedLp, LpError> {
    if lp.num_parties() == 0 {
        // A ball with no complete party support has objective 0 and the zero
        // vector as its (unique sensible) local optimum.
        return Ok(SolvedLp { x: vec![0.0; lp.num_agents()], pivots: 0, solved: false });
    }
    let opt = solve_maxmin_with(lp, simplex)?;
    Ok(SolvedLp { x: opt.solution.into_vec(), pivots: opt.pivots as u64, solved: true })
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
    use rand::{Rng, SeedableRng};

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
                        let got = present_shard(inst, &cache, radius, 0.0, range);
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
                    let overlay = delta.overlay(inst).unwrap();
                    let agents: Vec<usize> = (0..n).rev().step_by(2).collect();
                    let sweep = PresentSweep::with_overlay(inst, &overlay);
                    let got = present_agent_list(sweep, &cache, radius, agents.iter().copied());
                    assert_matches_reference(
                        &format!("{label} delta"),
                        &got,
                        &patched,
                        radius,
                        &agents,
                    );
                    // The fused delta stage keeps the sweep's ids and
                    // canonicalises each presentation.
                    let fused =
                        present_and_canonicalise_agents(inst, &overlay, &cache, radius, &agents);
                    assert_eq!(fused.pres_of_ball, got.pres_of_ball, "{label} fused");
                    assert_eq!(fused.classes.forms.len(), got.reps.len(), "{label} fused");
                    for (form, rep) in fused.classes.forms.iter().zip(&got.reps) {
                        assert_eq!(form.key, canonical_form(&rep.instance).key, "{label} fused");
                    }
                }
            }
        }
    }

    /// A seeded delta over `inst`: edits of random existing entries of both
    /// kinds, among them entries edited twice (the second edit wins), edits
    /// that restore the base weight (no-ops) and an entry edited away and
    /// back.
    fn seeded_delta(inst: &MaxMinInstance, seed: u64) -> InstanceDelta {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = inst.num_agents();
        let mut edits = Vec::new();
        for _ in 0..1 + n / 6 {
            let v = rng.gen_range(0..n);
            let agent = inst.agent(AgentId::new(v));
            let (kind, row, w) = if rng.gen::<bool>() || agent.parties.is_empty() {
                let (i, a) = agent.resources[rng.gen_range(0..agent.resources.len())];
                (WeightKind::Consumption, i.index(), a)
            } else {
                let (k, c) = agent.parties[rng.gen_range(0..agent.parties.len())];
                (WeightKind::Benefit, k.index(), c)
            };
            let edit = |weight| WeightEdit { kind, row, agent: v, weight };
            match rng.gen_range(0..4u32) {
                0 => edits.push(edit(w)),
                1 => edits.extend([edit(w * 3.0), edit(w * 0.5)]),
                2 => edits.extend([edit(w * 2.0), edit(w)]),
                _ => edits.push(edit(w * rng.gen_range(0.5..2.0))),
            }
        }
        InstanceDelta { base_version: 0, edits }
    }

    #[test]
    fn overlay_presentation_equals_presenting_the_applied_delta() {
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = if seed % 2 == 0 {
                random_instance(
                    &RandomInstanceConfig { num_agents: 18 + seed as usize, ..Default::default() },
                    &mut rng,
                )
            } else {
                let cfg =
                    GridConfig { side_lengths: vec![5, 6], torus: false, random_weights: true };
                grid_instance(&cfg, &mut rng)
            };
            let (h, _) = communication_hypergraph(&inst);
            let cache = h.neighbor_cache();
            let delta = seeded_delta(&inst, 100 + seed);
            let patched = delta.apply(&inst).unwrap();
            let overlay = delta.overlay(&inst).unwrap();
            // One overlay entry per edited entry, whatever the repeats.
            let mut entries: Vec<_> =
                delta.edits.iter().map(|e| (e.agent, e.kind, e.row)).collect();
            entries.sort();
            entries.dedup();
            assert_eq!(overlay.edits.len(), entries.len(), "seed {seed}");
            let all: Vec<usize> = (0..inst.num_agents()).collect();
            for radius in [1usize, 2] {
                let label = format!("seed {seed} R={radius}");
                let via_overlay = present_agent_list(
                    PresentSweep::with_overlay(&inst, &overlay),
                    &cache,
                    radius,
                    all.iter().copied(),
                );
                let via_apply = present_shard(&patched, &cache, radius, 0.0, 0..all.len());
                assert_eq!(via_overlay.balls, via_apply.balls, "{label}");
                assert_eq!(via_overlay.pres_of_ball, via_apply.pres_of_ball, "{label}");
                assert_eq!(via_overlay.reps.len(), via_apply.reps.len(), "{label}");
                for (a, b) in via_overlay.reps.iter().zip(&via_apply.reps) {
                    assert_eq!(a.key, b.key, "{label}");
                    assert_eq!(a.instance, b.instance, "{label}");
                }
                let fused = present_and_canonicalise_agents(&inst, &overlay, &cache, radius, &all);
                let lps: Vec<&MaxMinInstance> =
                    via_apply.reps.iter().map(|r| &r.instance).collect();
                let reference = canonicalise_shard(&lps);
                assert_eq!(fused.pres_of_ball, via_apply.pres_of_ball, "{label}");
                assert_eq!(fused.classes.forms, reference.forms, "{label}");
                assert_eq!(fused.classes.class_of, reference.class_of, "{label}");
            }
        }
    }

    #[test]
    fn apply_keeps_the_typed_delta_errors() {
        let (inst, _) = weighted_grid_and_delta(0);
        let (v, a) = inst.resource(ResourceId::new(0)).members()[0];
        let good =
            WeightEdit { kind: WeightKind::Consumption, row: 0, agent: v.index(), weight: a };
        let outside = WeightEdit { row: inst.num_resources(), ..good };
        let non_member = WeightEdit { agent: inst.num_agents(), ..good };
        for weight in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let delta =
                InstanceDelta { base_version: 0, edits: vec![good, WeightEdit { weight, ..good }] };
            assert!(matches!(delta.apply(&inst), Err(DeltaError::BadWeight { .. })), "{weight}");
        }
        for bad in [outside, non_member, WeightEdit { kind: WeightKind::Benefit, ..outside }] {
            let delta = InstanceDelta { base_version: 0, edits: vec![good, bad] };
            assert_eq!(
                delta.apply(&inst),
                Err(DeltaError::UnknownEntry { kind: bad.kind, row: bad.row, agent: bad.agent })
            );
        }
        // The first bad edit decides the error.
        let delta = InstanceDelta {
            base_version: 0,
            edits: vec![outside, WeightEdit { weight: -1.0, ..good }],
        };
        assert!(matches!(delta.apply(&inst), Err(DeltaError::UnknownEntry { .. })));
    }

    #[test]
    fn quantised_presentations_match_the_quasi_canonical_reference() {
        // Quantising in the sweep gives each ball the canonical form and
        // slack that `quasi_canonical_form` gives its exact ball LP, and can
        // only merge presentations.
        use mmlp_core::canonical::quasi_canonical_form;
        let mut rng = StdRng::seed_from_u64(5);
        let skewed = skewed_bipartite_instance(
            &SkewedBipartiteConfig { weight_jitter: 0.04, ..Default::default() },
            &mut rng,
        );
        let random = random_instance(&RandomInstanceConfig::default(), &mut rng);
        for inst in [&skewed, &random] {
            let n = inst.num_agents();
            let (h, _) = communication_hypergraph(inst);
            let cache = h.neighbor_cache();
            let exact = present_shard(inst, &cache, 1, 0.0, 0..n);
            for epsilon in [0.01, 0.05, 0.5] {
                let lifted = present_shard(inst, &cache, 1, epsilon, 0..n);
                assert_eq!(lifted.balls, exact.balls);
                assert!(lifted.reps.len() <= exact.reps.len());
                for u in 0..n {
                    let exact_lp = &exact.reps[exact.pres_of_ball[u]].instance;
                    let quasi = quasi_canonical_form(exact_lp, epsilon);
                    let form = canonical_form(&lifted.reps[lifted.pres_of_ball[u]].instance);
                    assert_eq!(form, quasi.form, "ε={epsilon}, ball {u}");
                    assert_eq!(lifted.slack_of_ball[u].to_bits(), quasi.slack.to_bits());
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
            assert_eq!(batch.class_solutions, reference.class_solutions, "{backend:?}");
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
    fn re_solving_from_a_batch_memo_does_no_simplex_work() {
        let inst = grid(8, false);
        let options = LocalLpOptions::new(1);
        let cold = solve_local_lps(&inst, &options).unwrap();
        let memo = cold.solution_memo(&options.simplex);
        assert_eq!(memo.len(), cold.stats.unique_classes);
        let again = solve_local_lps_reusing(&inst, &options, &memo).unwrap();
        assert_eq!(cold.local_x, again.local_x);
        assert_eq!(cold.class_of_ball, again.class_of_ball);
        assert_eq!(cold.class_keys, again.class_keys);
        assert_eq!(cold.class_solutions, again.class_solutions);
        assert_eq!(cold.ball_objectives, again.ball_objectives);
        assert!(cold.stats.total_pivots > 0);
        assert_eq!(again.stats.lp_solves, 0);
        assert_eq!(again.stats.total_pivots, 0);
        assert_eq!(again.stats.memo_hits, again.stats.unique_classes);
        // Every class was answered host-side: the solve stage shipped no job.
        assert_eq!(again.stats.stage_shards[2].items(), 0);
        assert_eq!(again.stats.cache_hits, inst.num_agents());
    }

    #[test]
    fn a_foreign_memo_never_changes_results() {
        // A memo recorded from a *different* instance: lookups mostly miss
        // (different canonical keys) and any hit is a genuinely identical
        // canonical LP, so the results must be bit-identical to the cold
        // solve.
        let inst = grid(6, false);
        let other = grid(7, true);
        let options = LocalLpOptions::new(1);
        let foreign = solve_local_lps(&other, &options).unwrap().solution_memo(&options.simplex);
        let cold = solve_local_lps(&inst, &options).unwrap();
        let reused = solve_local_lps_reusing(&inst, &options, &foreign).unwrap();
        assert_eq!(cold.local_x, reused.local_x);
        assert_eq!(cold.class_of_ball, reused.class_of_ball);
        assert_eq!(cold.class_solutions, reused.class_solutions);
    }

    #[test]
    fn a_memo_built_under_different_simplex_options_misses() {
        let inst = grid(6, false);
        let options = LocalLpOptions::new(1);
        let cold = solve_local_lps(&inst, &options).unwrap();
        let other = SimplexOptions { tolerance: 1e-10, ..options.simplex };
        let memo = cold.solution_memo(&other);
        assert_eq!(memo.len(), cold.stats.unique_classes);
        let reused = solve_local_lps_reusing(&inst, &options, &memo).unwrap();
        assert_eq!(reused.stats.memo_hits, 0);
        assert_eq!(reused.stats.lp_solves, cold.stats.lp_solves);
        assert_eq!(reused.stats.total_pivots, cold.stats.total_pivots);
        assert_eq!(reused.local_x, cold.local_x);
        assert!(memo.get(&cold.class_keys[0], &options.simplex).is_none());
        assert!(memo.get(&cold.class_keys[0], &other).is_some());
    }

    #[test]
    fn memo_capacity_evicts_least_recently_installed() {
        use mmlp_core::canonical::canonical_key;
        // Three structurally different instances give three distinct keys.
        let keys: Vec<Arc<CanonicalKey>> = [grid(2, false), grid(3, false), grid(4, false)]
            .iter()
            .map(|inst| Arc::new(canonical_key(inst)))
            .collect();
        let x = |i: usize| -> Arc<[f64]> { Arc::from(vec![i as f64]) };
        let simplex = SimplexOptions::default();
        let get = |memo: &ClassSolutionMemo, k: usize| memo.get(&keys[k], &simplex).cloned();

        let mut memo = ClassSolutionMemo::with_capacity(2);
        assert_eq!(memo.capacity(), 2);
        memo.install(keys[0].clone(), &simplex, x(0));
        memo.install(keys[1].clone(), &simplex, x(1));
        memo.install(keys[2].clone(), &simplex, x(2));
        // Deterministic least-recently-installed eviction: keys[0] is gone.
        assert_eq!(memo.len(), 2);
        assert!(get(&memo, 0).is_none());
        assert_eq!(get(&memo, 1), Some(x(1)));
        assert_eq!(get(&memo, 2), Some(x(2)));

        // Re-installing refreshes the position: keys[1] survives the next
        // eviction, keys[2] does not.
        memo.install(keys[1].clone(), &simplex, x(9));
        memo.install(keys[0].clone(), &simplex, x(0));
        assert_eq!(memo.len(), 2);
        assert!(get(&memo, 2).is_none());
        assert_eq!(get(&memo, 1), Some(x(9)));
        assert_eq!(get(&memo, 0), Some(x(0)));

        // Capacity 0 clamps to 1 instead of becoming a memo that can never
        // hold the entry it just evicted everything for.
        assert_eq!(ClassSolutionMemo::with_capacity(0).capacity(), 1);
    }

    #[test]
    fn memo_stays_bounded_across_re_solves() {
        // Absorbing a stream of different instances into one long-lived
        // memo must not grow it without bound.
        let options = LocalLpOptions::new(1);
        let mut memo = ClassSolutionMemo::with_capacity(3);
        for side in 2..8usize {
            let batch = solve_local_lps(&grid(side, false), &options).unwrap();
            memo.absorb(&batch, &options.simplex);
            assert!(memo.len() <= 3, "memo grew to {} entries", memo.len());
        }
        // A bounded memo still never changes results.
        let inst = grid(6, false);
        let cold = solve_local_lps(&inst, &options).unwrap();
        let reused = solve_local_lps_reusing(&inst, &options, &memo).unwrap();
        assert_eq!(cold.local_x, reused.local_x);
        assert_eq!(cold.class_of_ball, reused.class_of_ball);
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
            vec!["mmlp/present@2", "mmlp/canonicalise@2", "mmlp/solve@2", "mmlp/scatter@1"]
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
        assert!(s.dedup_ratio() > 1.0);
        assert_eq!(batch.class_solutions.len(), s.unique_classes);
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
        assert_eq!(run.batch.class_solutions, cold.class_solutions);
        // The work scaled with the churn, not the instance.
        assert_eq!(run.changed_agents, 2);
        assert!(run.affected_agents < inst.num_agents());
        assert!(run.batch.stats.lp_solves < cold.stats.lp_solves);
        assert!(run.resolve_wire_bytes > 0);
        // Perturbed classes were solved cold; the hits count over the
        // re-presented balls only.
        assert!(run.batch.stats.lp_solves > 0);
        assert!((0.0..=1.0).contains(&run.batch.stats.cache_hit_rate()));
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
        assert_eq!(run.batch.class_keys, base.batch().class_keys);
        assert_eq!(run.affected_agents, 0);
        assert_eq!(run.resolve_wire_bytes, 0);
        // It did no work, and its stats say so.
        let s = &run.batch.stats;
        assert_eq!(
            (s.balls_enumerated, s.distinct_presentations, s.lps_built, s.cache_hits),
            (0, 0, 0, 0)
        );
        assert_eq!((s.memo_hits, s.lp_solves, s.total_pivots), (0, 0, 0));
        assert!(s.stage_shards.is_empty(), "{:?}", s.stage_shards);
        assert_eq!(s.timings, StageTimings::default());
        assert_eq!(s.unique_classes, base.batch().class_keys.len());
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
