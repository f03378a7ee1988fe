//! The shared execution layer under the engine, the simulator and the
//! experiment harnesses.
//!
//! The local algorithms of the paper are embarrassingly parallel: every agent
//! computes its output from its own radius-`r` ball, independently of all
//! other agents.  Both follow-up papers on max-min LPs stress that this
//! parallelism decomposes along *agent ranges* — which is exactly the axis
//! this crate makes first-class:
//!
//! * [`SolveBackend`] — the pluggable executor trait: a pipeline stage is a
//!   function of a [`Shard`] (a contiguous range of work items), and a
//!   backend decides how items are sharded and where shards run, reporting
//!   per-shard statistics ([`ShardStats`]).
//! * [`Sequential`], [`ScopedThreads`], [`Sharded`] — the three built-in
//!   backends: inline execution, the scoped-thread pool with a deterministic
//!   per-shard work split, and an explicit fixed shard count that models a
//!   multi-machine split (each shard sees only its own range, so a remote
//!   backend is a drop-in replacement later).
//! * [`LoopbackBackend`], [`SubprocessBackend`] — the transport-backed
//!   backends: stages whose inputs and outputs can be serialised (the
//!   [`WireStage`] seam) cross a real byte boundary — in memory with
//!   deterministic fault injection, or into worker processes speaking the
//!   [`wire`] protocol over stdio — dispatched by the lockstep/overlapped
//!   [`ShardDriver`].
//! * [`BackendKind`] — a `Copy` selector carried inside option structs,
//!   resolved to one of the built-in backends at the call site.
//! * [`par_map`] / [`par_map_with`] — parallel map over a slice with dynamic
//!   (atomic-counter) load balancing,
//! * [`par_chunks_map`] — chunked variant for very cheap per-item work,
//! * [`ParallelConfig`] — thread-count control (including a sequential mode
//!   for deterministic debugging).
//!
//! The implementation uses scoped threads, so closures may borrow from the
//! caller's stack; results are collected per worker and stitched back into
//! input order, which keeps the crate free of `unsafe` code.  Every backend
//! returns shard outputs in shard order, so results never depend on thread
//! scheduling: a pure stage function produces bit-identical output on every
//! backend and every shard count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod service;
pub mod transport;
pub mod wire;

pub use driver::{DriverMode, LinkPool, RecoveryLog, ShardDriver, WireStage};
pub use service::{
    ServiceConfig, ServiceError, ServiceMetrics, SolveService, TenantCounters, TenantId, Ticket,
    SERVICE_QUEUE_CAP_ENV, SERVICE_WORKERS_ENV,
};
pub use transport::{
    probe_worker, run_worker_if_requested, serve, serve_stdio, spawn_worker, worker_mode_requested,
    FaultPlan, LoopbackLink, StageCache, StageHandler, StageRegistry, SubprocessLink,
    TransportError, WorkerCommand, WorkerLink, WORKER_BIN_ENV, WORKER_FLAG,
};
pub use wire::{Frame, FrameKind, WireError, WIRE_VERSION};

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Thread-count configuration for the parallel helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelConfig {
    /// Number of worker threads to use.  `None` means "one per available
    /// core".  A value of 1 runs sequentially on the calling thread.
    pub num_threads: Option<NonZeroUsize>,
}

impl ParallelConfig {
    /// Configuration that always runs sequentially on the calling thread.
    pub fn sequential() -> Self {
        Self { num_threads: NonZeroUsize::new(1) }
    }

    /// Configuration with an explicit number of worker threads.
    pub fn with_threads(n: usize) -> Self {
        Self { num_threads: NonZeroUsize::new(n.max(1)) }
    }

    /// The number of worker threads this configuration resolves to for a
    /// workload of `items` items.
    pub fn resolve(&self, items: usize) -> usize {
        let hw = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
        let requested = self.num_threads.map(NonZeroUsize::get).unwrap_or(hw);
        requested.min(items.max(1))
    }
}

/// Parallel map with default configuration (one thread per core).
///
/// Results are returned in input order.  `f` may borrow from the caller.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(&ParallelConfig::default(), items, f)
}

/// Parallel map with explicit configuration.
///
/// Work is distributed dynamically: workers repeatedly claim the next
/// unprocessed index from a shared atomic counter, so uneven per-item costs
/// (e.g. local LPs of different sizes) balance automatically.
pub fn par_map_with<T, R, F>(config: &ParallelConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = config.resolve(n);
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, R)>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let next = &next;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    local.push((idx, f(&items[idx])));
                }
                local
            }));
        }
        per_worker = handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect();
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for chunk in per_worker {
        for (idx, value) in chunk {
            slots[idx] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index processed exactly once"))
        .collect()
}

/// Parallel map over chunks of the input.
///
/// For very cheap per-item work the per-index atomic traffic of [`par_map`]
/// dominates; mapping whole chunks amortises it.  `f` receives the chunk's
/// starting index and the chunk itself, and must return one result per item.
pub fn par_chunks_map<T, R, F>(
    config: &ParallelConfig,
    items: &[T],
    chunk_size: usize,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let chunk_size = chunk_size.max(1);
    let chunks: Vec<(usize, &[T])> = items
        .chunks(chunk_size)
        .enumerate()
        .map(|(c, chunk)| (c * chunk_size, chunk))
        .collect();
    let mapped = par_map_with(config, &chunks, |(start, chunk)| {
        let out = f(*start, chunk);
        assert_eq!(
            out.len(),
            chunk.len(),
            "par_chunks_map callback must return one result per item"
        );
        out
    });
    mapped.into_iter().flatten().collect()
}

/// Runs `f` for every index in `0..count` in parallel, ignoring results.
pub fn par_for_each_index<F>(config: &ParallelConfig, count: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let indices: Vec<usize> = (0..count).collect();
    par_map_with(config, &indices, |&i| f(i));
}

// ---------------------------------------------------------------------------
// The pluggable sharded solve backend.
// ---------------------------------------------------------------------------

/// A contiguous range of work items (`start..end`) assigned to one shard of a
/// pipeline stage.
///
/// Work items are whatever the stage iterates over — agents, presentation
/// representatives, unique LP classes.  Shards are always contiguous, ordered
/// and covering, so a stage that keeps per-shard tables (e.g. a local dedup
/// table) can merge them deterministically by iterating shards in index
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    /// Position of this shard in the stage's plan.
    pub index: usize,
    /// First work item of the shard (inclusive).
    pub start: usize,
    /// One past the last work item of the shard.
    pub end: usize,
}

impl Shard {
    /// Number of work items in the shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the shard holds no work items.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The shard's item range, for indexing into stage inputs.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// What one shard of a stage did: how many items it processed, how long it
/// took and how many reply bytes it sent back.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Shard index within the stage.
    pub shard: usize,
    /// Number of work items the shard processed.
    pub items: usize,
    /// Wall-clock the shard's stage function ran for.
    pub wall: Duration,
    /// Bytes of the stage reply the shard's worker sent back (the payload
    /// [`WireStage::decode_reply`] decoded); 0 for a shard run in-process.
    pub reply_bytes: usize,
}

/// Per-shard statistics of one executed pipeline stage.
///
/// The stage and backend labels are `&'static str` by design: stages are
/// named by code, not data, and hot callers (the simulator executes one
/// stage per message round) should not pay a heap allocation per round for
/// bookkeeping they may discard.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageStats {
    /// The stage label passed to [`SolveBackend::execute`].
    pub stage: &'static str,
    /// Name of the backend that executed the stage.
    pub backend: &'static str,
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
}

impl StageStats {
    /// Total number of work items across all shards.
    pub fn items(&self) -> usize {
        self.shards.iter().map(|s| s.items).sum()
    }

    /// Total reply bytes across all shards: what the stage's workers sent
    /// back, 0 when every shard ran in-process.
    pub fn reply_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.reply_bytes).sum()
    }

    /// The wall-clock of the slowest *shard*.
    ///
    /// This is the stage's critical path only when every shard runs on a
    /// worker of its own.  A worker that runs several shards runs them one
    /// after another, so its busy time is the sum of its shards' walls: on
    /// the subprocess backend each worker gets
    /// [`SUBPROCESS_SHARDS_PER_WORKER`] shards, and the slowest worker can
    /// take about that many times the slowest shard.  Host wall minus this
    /// value therefore counts the other shards of the slowest worker along
    /// with the transport.
    pub fn critical_path(&self) -> Duration {
        self.shards.iter().map(|s| s.wall).max().unwrap_or_default()
    }
}

/// The outputs of one executed stage: one result per shard, in shard order,
/// plus the per-shard statistics.
#[derive(Debug, Clone)]
pub struct StageRun<R> {
    /// One stage-function result per shard, in shard order.
    pub outputs: Vec<R>,
    /// Per-shard execution statistics.
    pub stats: StageStats,
}

/// A pluggable executor for shard-decomposed pipeline stages.
///
/// A backend owns two decisions: how `items` work items are partitioned into
/// [`Shard`]s ([`plan`](SolveBackend::plan)) and where the per-shard stage
/// function runs ([`execute`](SolveBackend::execute)).  The engine, the
/// distributed simulator and the experiment harnesses all submit their
/// stages through this trait, so a new execution substrate (a process pool,
/// a remote fleet) only has to implement these two methods to slot in under
/// every caller at once.
///
/// Contract: the plan is contiguous, ordered and covering (`plan(n)` shards
/// concatenate to `0..n`), `execute` calls the stage function exactly once
/// per shard, and outputs are returned in shard order.  A pure stage
/// function therefore produces the same results on every backend.
///
/// ```
/// use mmlp_parallel::{ParallelConfig, Sequential, Sharded, SolveBackend};
///
/// // The same pure stage on two backends: the plans differ, the
/// // concatenated outputs agree.
/// let one = Sequential.execute("doc/sum", 100, |shard| shard.range().sum::<usize>());
/// let four = Sharded::new(4, ParallelConfig::default())
///     .execute("doc/sum", 100, |shard| shard.range().sum::<usize>());
/// assert_eq!(one.outputs, vec![4950]);
/// assert_eq!(four.outputs.len(), 4);
/// assert_eq!(four.outputs.iter().sum::<usize>(), 4950);
/// assert_eq!(four.stats.items(), 100);
/// ```
pub trait SolveBackend: Sync {
    /// Human-readable backend name, used in statistics and reports.
    fn name(&self) -> &'static str;

    /// Partitions `items` work items into shards (empty when `items == 0`).
    fn plan(&self, items: usize) -> Vec<Shard>;

    /// Runs `stage` once per shard of `items` work items and collects the
    /// per-shard outputs (in shard order) and statistics.
    fn execute<R, F>(&self, stage: &'static str, items: usize, f: F) -> StageRun<R>
    where
        R: Send,
        F: Fn(&Shard) -> R + Sync;

    /// Runs a *serialisable* stage ([`WireStage`]): inputs and outputs can
    /// cross a byte boundary, so transport backends override this to ship
    /// shards to worker processes.  The default executes the stage's
    /// in-process reference path ([`WireStage::run_local`]) through
    /// [`execute`](SolveBackend::execute) — for the local backends the seam
    /// costs nothing and changes nothing.
    ///
    /// # Errors
    ///
    /// Transport backends return typed [`TransportError`]s for every
    /// failure of the boundary (frame corruption, worker death past the
    /// retry budget, handler failures); the local default never fails.
    fn execute_stage<S: WireStage>(
        &self,
        items: usize,
        stage: &S,
    ) -> Result<StageRun<S::Output>, TransportError> {
        Ok(self.execute(stage.stage_id(), items, |shard| stage.run_local(shard)))
    }

    /// Runs a serialisable stage with **worker-resident state** under the
    /// checkpoint/restore protocol: sent jobs are buffered in `recovery`,
    /// worker snapshots are recorded there, and a respawned worker is
    /// restored and replayed before receiving new work (see
    /// [`ShardDriver::run_recoverable`]).
    ///
    /// The caller owns one [`RecoveryLog`] per logical sequence of runs
    /// that share resident state (for the simulator's epoch tier: one
    /// simulation) and must submit the same item count every run.
    ///
    /// The default ignores the log and delegates to
    /// [`execute_stage`](SolveBackend::execute_stage): for the in-process
    /// backends the stage's own `run_local` state is never lost, so there
    /// is nothing to checkpoint.  Transport backends override this to run
    /// the recoverable driver path.
    ///
    /// # Errors
    ///
    /// As [`execute_stage`](SolveBackend::execute_stage).
    fn execute_stage_recoverable<S: WireStage>(
        &self,
        items: usize,
        stage: &S,
        recovery: &mut RecoveryLog,
    ) -> Result<StageRun<S::Output>, TransportError> {
        let _ = recovery;
        self.execute_stage(items, stage)
    }

    /// Runs `body` — one sequence of
    /// [`execute_stage_recoverable`](SolveBackend::execute_stage_recoverable)
    /// calls sharing worker-resident state, such as one simulation — with
    /// this backend's workers reserved for it.
    ///
    /// A worker holds one context per stage id, so two such sequences
    /// interleaving on one shared backend would evict each other's resident
    /// state mid-run.  The transport backends therefore admit one reserved
    /// sequence at a time; stages outside a reservation still interleave
    /// freely.  The default just runs `body`: the in-process backends keep
    /// resident state in the caller's stage, not in the backend.
    fn reserve_workers<T>(&self, body: impl FnOnce() -> T) -> T {
        body()
    }
}

/// Splits `items` into (at most) `shards` contiguous ranges of near-equal
/// size.  Earlier shards take the remainder, so sizes differ by at most one.
pub fn balanced_plan(items: usize, shards: usize) -> Vec<Shard> {
    if items == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, items);
    let base = items / shards;
    let remainder = items % shards;
    let mut plan = Vec::with_capacity(shards);
    let mut start = 0;
    for index in 0..shards {
        let len = base + usize::from(index < remainder);
        plan.push(Shard { index, start, end: start + len });
        start += len;
    }
    plan
}

fn timed_stage<R, F>(shard: &Shard, f: &F) -> (R, ShardStats)
where
    F: Fn(&Shard) -> R,
{
    let clock = Instant::now();
    let out = f(shard);
    let wall = clock.elapsed();
    (out, ShardStats { shard: shard.index, items: shard.len(), wall, reply_bytes: 0 })
}

fn run_plan<R, F>(
    name: &'static str,
    stage: &'static str,
    config: &ParallelConfig,
    plan: Vec<Shard>,
    f: F,
) -> StageRun<R>
where
    R: Send,
    F: Fn(&Shard) -> R + Sync,
{
    let pairs = par_map_with(config, &plan, |shard| timed_stage(shard, &f));
    let mut outputs = Vec::with_capacity(pairs.len());
    let mut shards = Vec::with_capacity(pairs.len());
    for (out, stats) in pairs {
        outputs.push(out);
        shards.push(stats);
    }
    StageRun { outputs, stats: StageStats { stage, backend: name, shards } }
}

/// The inline backend: one shard, executed on the calling thread.
///
/// Useful for deterministic debugging and as the baseline in backend
/// comparisons; it is also what every other backend must agree with
/// bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sequential;

impl SolveBackend for Sequential {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn plan(&self, items: usize) -> Vec<Shard> {
        balanced_plan(items, 1)
    }

    fn execute<R, F>(&self, stage: &'static str, items: usize, f: F) -> StageRun<R>
    where
        R: Send,
        F: Fn(&Shard) -> R + Sync,
    {
        // par_map_with runs inline for a single-shard plan, so this shares
        // run_plan's collection logic without spawning any thread.
        run_plan(self.name(), stage, &ParallelConfig::sequential(), self.plan(items), f)
    }
}

/// How many shards each worker thread gets under [`ScopedThreads`]: a few
/// shards per worker keep the dynamic scheduler busy when per-shard costs
/// are uneven, while the static split keeps shard contents deterministic.
const SHARDS_PER_WORKER: usize = 4;

/// The scoped-thread backend: the successor of the crate's original
/// `par_map`-everywhere style, now with a *deterministic per-shard* work
/// split.
///
/// Items are statically partitioned into `workers × 4` contiguous shards;
/// only the shard→thread assignment is dynamic (threads claim the next
/// unprocessed shard from an atomic counter).  Shard contents — and hence
/// any per-shard tables a stage builds — no longer depend on thread timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScopedThreads {
    /// Thread-count configuration for executing the shards.
    pub config: ParallelConfig,
}

impl ScopedThreads {
    /// A scoped-thread backend with the given thread configuration.
    pub fn new(config: ParallelConfig) -> Self {
        Self { config }
    }
}

impl SolveBackend for ScopedThreads {
    fn name(&self) -> &'static str {
        "scoped-threads"
    }

    fn plan(&self, items: usize) -> Vec<Shard> {
        balanced_plan(items, self.config.resolve(items) * SHARDS_PER_WORKER)
    }

    fn execute<R, F>(&self, stage: &'static str, items: usize, f: F) -> StageRun<R>
    where
        R: Send,
        F: Fn(&Shard) -> R + Sync,
    {
        run_plan(self.name(), stage, &self.config, self.plan(items), f)
    }
}

/// The fixed-shard backend: exactly `shards` contiguous ranges, regardless
/// of how many threads execute them.
///
/// This models an agent-range split across machines: each shard sees only
/// its own range and communicates with the rest of the pipeline exclusively
/// through its returned output (e.g. a per-shard canonical-class table), so
/// replacing the thread pool with a remote transport changes the backend,
/// not the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sharded {
    /// Number of shards to split every stage into (clamped to ≥ 1).
    pub shards: usize,
    /// Thread-count configuration for executing the shards locally.
    pub config: ParallelConfig,
}

impl Sharded {
    /// A fixed-shard backend with the given shard count and threads.
    pub fn new(shards: usize, config: ParallelConfig) -> Self {
        Self { shards: shards.max(1), config }
    }
}

impl SolveBackend for Sharded {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn plan(&self, items: usize) -> Vec<Shard> {
        balanced_plan(items, self.shards.max(1))
    }

    fn execute<R, F>(&self, stage: &'static str, items: usize, f: F) -> StageRun<R>
    where
        R: Send,
        F: Fn(&Shard) -> R + Sync,
    {
        run_plan(self.name(), stage, &self.config, self.plan(items), f)
    }
}

// ---------------------------------------------------------------------------
// The transport-backed backends.
// ---------------------------------------------------------------------------

/// The in-memory transport backend: serialisable stages cross the full wire
/// format (encode → decode on both directions) without a process boundary.
///
/// This is the deterministic test double of [`SubprocessBackend`] — same
/// driver, same frames, same worker dispatch — plus seedable fault
/// injection: the configured [`FaultPlan`] is applied to each worker's
/// *first* link, and every link a retry respawns is faultless, so recovery
/// paths terminate deterministically.
///
/// Closure stages (plain [`SolveBackend::execute`]) cannot be serialised
/// and run in-process on the same plan; only [`execute_stage`] crosses the
/// byte boundary.
///
/// [`execute_stage`]: SolveBackend::execute_stage
pub struct LoopbackBackend {
    registry: Arc<StageRegistry>,
    shards: usize,
    driver: ShardDriver,
    faults: FaultPlan,
    pool: Mutex<(LinkPool, Vec<usize>)>,
    /// Held for the length of a [`SolveBackend::reserve_workers`] body.
    reserved: Mutex<()>,
}

impl std::fmt::Debug for LoopbackBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackBackend")
            .field("shards", &self.shards)
            .field("driver", &self.driver)
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

impl LoopbackBackend {
    /// A faultless loopback backend with `shards` shards, one loopback
    /// worker per shard, overlapped dispatch.
    pub fn new(registry: Arc<StageRegistry>, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            registry,
            shards,
            driver: ShardDriver { workers: shards, mode: DriverMode::Overlapped, max_retries: 1 },
            faults: FaultPlan::none(),
            pool: Mutex::new((LinkPool::new(), Vec::new())),
            reserved: Mutex::new(()),
        }
    }

    /// The same backend with an explicit worker count (fewer workers than
    /// shards pipelines several shards per worker).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.driver.workers = workers.max(1);
        self
    }

    /// The same backend with a different dispatch discipline.
    pub fn with_mode(mut self, mode: DriverMode) -> Self {
        self.driver.mode = mode;
        self
    }

    /// The same backend with a fault plan injected into each worker's first
    /// link (respawned links are faultless).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The same backend with an explicit respawn budget per worker.
    pub fn with_max_retries(mut self, max_retries: usize) -> Self {
        self.driver.max_retries = max_retries;
        self
    }

    /// The shared driver invocation behind both stage entry points.
    fn run_driver<S: WireStage>(
        &self,
        items: usize,
        stage: &S,
        recovery: Option<&mut RecoveryLog>,
    ) -> Result<StageRun<S::Output>, TransportError> {
        let plan = self.plan(items);
        let mut guard = self.pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (pool, spawn_counts) = &mut *guard;
        if spawn_counts.len() < self.driver.workers {
            spawn_counts.resize(self.driver.workers, 0);
        }
        let registry = self.registry.clone();
        let faults = self.faults.clone();
        let mut spawn = |w: usize| -> Result<Box<dyn WorkerLink>, TransportError> {
            spawn_counts[w] += 1;
            let plan = if spawn_counts[w] == 1 { faults.clone() } else { FaultPlan::none() };
            Ok(Box::new(LoopbackLink::with_faults(registry.clone(), w, plan)))
        };
        match recovery {
            Some(log) => {
                self.driver
                    .run_recoverable(self.name(), stage, &plan, pool, &mut spawn, log)
            }
            None => self.driver.run(self.name(), stage, &plan, pool, &mut spawn),
        }
    }
}

impl SolveBackend for LoopbackBackend {
    fn name(&self) -> &'static str {
        "loopback"
    }

    fn plan(&self, items: usize) -> Vec<Shard> {
        balanced_plan(items, self.shards)
    }

    fn execute<R, F>(&self, stage: &'static str, items: usize, f: F) -> StageRun<R>
    where
        R: Send,
        F: Fn(&Shard) -> R + Sync,
    {
        // Closures cannot cross a byte boundary; run them in-process on the
        // same shard plan (sequentially — loopback models one machine).
        run_plan(self.name(), stage, &ParallelConfig::sequential(), self.plan(items), f)
    }

    fn execute_stage<S: WireStage>(
        &self,
        items: usize,
        stage: &S,
    ) -> Result<StageRun<S::Output>, TransportError> {
        self.run_driver(items, stage, None)
    }

    fn execute_stage_recoverable<S: WireStage>(
        &self,
        items: usize,
        stage: &S,
        recovery: &mut RecoveryLog,
    ) -> Result<StageRun<S::Output>, TransportError> {
        self.run_driver(items, stage, Some(recovery))
    }

    fn reserve_workers<T>(&self, body: impl FnOnce() -> T) -> T {
        let _reserved = self.reserved.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        body()
    }
}

/// How many shards each subprocess worker gets by default: a little
/// pipelining depth so the overlapped driver has out-of-order replies to
/// buffer, without fragmenting the dedup tables.  Public so every
/// plan-equivalent fallback (closure stages, simulator rounds) shards the
/// same way the real backend does.
pub const SUBPROCESS_SHARDS_PER_WORKER: usize = 2;

/// The out-of-process backend: serialisable stages run in worker processes
/// that speak the [`wire`] protocol over stdio.
///
/// Workers are spawned from [`WorkerCommand`] (an explicit binary or a
/// re-exec of the current one in `--mmlp-worker` mode), pooled across
/// stages, respawned on death with their unacknowledged jobs resent, and
/// shut down when the backend is dropped.
///
/// **Capability probe.**  The first [`execute_stage`] call probes whether
/// this environment can spawn a protocol-speaking worker at all.  Sandboxes
/// without fork/exec (or missing worker binaries) log a one-line skip and
/// fall back to the in-memory [`LoopbackBackend`] transport — same wire
/// format, same driver, no process — so callers never have to care.
///
/// Closure stages (plain [`SolveBackend::execute`]) cannot be serialised
/// and run in-process on the same plan.
///
/// [`execute_stage`]: SolveBackend::execute_stage
pub struct SubprocessBackend {
    command: WorkerCommand,
    workers: usize,
    shards: usize,
    driver: ShardDriver,
    registry: Arc<StageRegistry>,
    /// `None` = workers spawn here; `Some(reason)` = the capability probe
    /// failed for that reason and every stage serves through the fallback.
    availability: OnceLock<Option<String>>,
    pool: Mutex<LinkPool>,
    fallback: Mutex<Option<LoopbackBackend>>,
    /// Held for the length of a [`SolveBackend::reserve_workers`] body.
    reserved: Mutex<()>,
}

impl std::fmt::Debug for SubprocessBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubprocessBackend")
            .field("command", &self.command)
            .field("workers", &self.workers)
            .field("shards", &self.shards)
            .field("driver", &self.driver)
            .finish_non_exhaustive()
    }
}

impl SubprocessBackend {
    /// A subprocess backend with `workers` worker processes (spawned via
    /// [`WorkerCommand::auto`]), two shards per worker, overlapped dispatch
    /// and one respawn retry per worker.  `registry` is only used by the
    /// loopback fallback when the capability probe fails.
    pub fn new(workers: usize, registry: Arc<StageRegistry>) -> Self {
        let workers = workers.max(1);
        Self {
            command: WorkerCommand::auto(),
            workers,
            shards: workers * SUBPROCESS_SHARDS_PER_WORKER,
            driver: ShardDriver { workers, mode: DriverMode::Overlapped, max_retries: 1 },
            registry,
            availability: OnceLock::new(),
            pool: Mutex::new(LinkPool::new()),
            fallback: Mutex::new(None),
            reserved: Mutex::new(()),
        }
    }

    /// The same backend spawning workers with an explicit command.
    pub fn with_command(mut self, command: WorkerCommand) -> Self {
        self.command = command;
        self
    }

    /// The same backend with an explicit shard count per stage.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// The same backend with a different dispatch discipline.
    pub fn with_mode(mut self, mode: DriverMode) -> Self {
        self.driver.mode = mode;
        self
    }

    /// The same backend with lockstep dispatch (the no-pipelining baseline).
    pub fn lockstep(self) -> Self {
        self.with_mode(DriverMode::Lockstep)
    }

    /// Whether this environment can actually spawn worker processes
    /// (`false` means [`execute_stage`](SolveBackend::execute_stage) serves
    /// through the loopback fallback).
    ///
    /// The probe spawns a throwaway worker, so its verdict is cached
    /// **process-wide per worker command** — constructing a fresh backend
    /// per solve (as `BackendKind::Subprocess` dispatch does) costs one
    /// probe per process, not one per call, and the fallback notice is
    /// logged once.  A worker binary that appears later in the process's
    /// lifetime is not re-probed.
    pub fn subprocess_available(&self) -> bool {
        self.probe_failure().is_none()
    }

    /// Why the capability probe rejected this environment, if it did —
    /// classified as a *spawn* failure (the OS refused fork/exec or the
    /// binary is missing) vs a *handshake* failure (the process started but
    /// never spoke the protocol, e.g. a watchdog-killed silent binary).
    ///
    /// The reason is cached process-wide alongside the verdict, so every
    /// backend probing the same worker command reports the identical
    /// string — what the skip log printed is what this returns.
    pub fn probe_failure(&self) -> Option<String> {
        self.availability
            .get_or_init(|| {
                static VERDICTS: OnceLock<
                    Mutex<std::collections::HashMap<String, Option<String>>>,
                > = OnceLock::new();
                let verdicts =
                    VERDICTS.get_or_init(|| Mutex::new(std::collections::HashMap::new()));
                let mut verdicts =
                    verdicts.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                let key = self.command.describe();
                if let Some(known) = verdicts.get(&key) {
                    return known.clone();
                }
                let failure = match probe_worker(&self.command) {
                    Ok(()) => None,
                    Err(e) => {
                        let reason = match &e {
                            TransportError::SpawnFailed { .. } => format!("spawn failed: {e}"),
                            TransportError::HandshakeFailed { .. } => {
                                format!("handshake failed: {e}")
                            }
                            other => format!("probe failed: {other}"),
                        };
                        eprintln!(
                            "mmlp: subprocess transport unavailable ({reason}); \
                             falling back to the in-memory loopback transport"
                        );
                        Some(reason)
                    }
                };
                verdicts.insert(key, failure.clone());
                failure
            })
            .clone()
    }

    /// The shared driver invocation behind both stage entry points, routing
    /// through the loopback fallback (which keeps its own recoverable path)
    /// when the capability probe rejected this environment.
    fn run_driver<S: WireStage>(
        &self,
        items: usize,
        stage: &S,
        recovery: Option<&mut RecoveryLog>,
    ) -> Result<StageRun<S::Output>, TransportError> {
        if !self.subprocess_available() {
            let mut guard = self.fallback.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let fallback = guard.get_or_insert_with(|| {
                LoopbackBackend::new(self.registry.clone(), self.shards)
                    .with_workers(self.driver.workers)
                    .with_mode(self.driver.mode)
            });
            return match recovery {
                Some(log) => fallback.execute_stage_recoverable(items, stage, log),
                None => fallback.execute_stage(items, stage),
            };
        }
        let plan = self.plan(items);
        let mut pool = self.pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let command = &self.command;
        let mut spawn = |w: usize| -> Result<Box<dyn WorkerLink>, TransportError> {
            Ok(Box::new(spawn_worker(command, w)?))
        };
        match recovery {
            Some(log) => {
                self.driver
                    .run_recoverable(self.name(), stage, &plan, &mut pool, &mut spawn, log)
            }
            None => self.driver.run(self.name(), stage, &plan, &mut pool, &mut spawn),
        }
    }
}

impl SolveBackend for SubprocessBackend {
    fn name(&self) -> &'static str {
        match self.driver.mode {
            DriverMode::Lockstep => "subprocess-lockstep",
            DriverMode::Overlapped => "subprocess",
        }
    }

    fn plan(&self, items: usize) -> Vec<Shard> {
        balanced_plan(items, self.shards)
    }

    fn execute<R, F>(&self, stage: &'static str, items: usize, f: F) -> StageRun<R>
    where
        R: Send,
        F: Fn(&Shard) -> R + Sync,
    {
        // Closures cannot cross the process boundary; run them in-process on
        // the same shard plan so simulators and ad-hoc maps keep working.
        run_plan(self.name(), stage, &ParallelConfig::default(), self.plan(items), f)
    }

    fn execute_stage<S: WireStage>(
        &self,
        items: usize,
        stage: &S,
    ) -> Result<StageRun<S::Output>, TransportError> {
        self.run_driver(items, stage, None)
    }

    fn execute_stage_recoverable<S: WireStage>(
        &self,
        items: usize,
        stage: &S,
        recovery: &mut RecoveryLog,
    ) -> Result<StageRun<S::Output>, TransportError> {
        self.run_driver(items, stage, Some(recovery))
    }

    fn reserve_workers<T>(&self, body: impl FnOnce() -> T) -> T {
        let _reserved = self.reserved.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        body()
    }
}

impl Drop for SubprocessBackend {
    fn drop(&mut self) {
        // Ask pooled workers to exit cleanly; dropping the links closes the
        // pipes (and reaps) regardless.
        let mut pool = self.pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for link in pool.links.iter_mut().flatten() {
            let _ = link.send(&Frame::control(FrameKind::Shutdown));
        }
        pool.links.clear();
    }
}

/// The process-wide pool of subprocess backends, keyed by worker count,
/// dispatch mode, registry *content* fingerprint
/// ([`StageRegistry::fingerprint`]) and the **resolved worker command**
/// ([`WorkerCommand::auto`], rendered by `describe()` — the same identity
/// the capability-probe verdict cache uses).
///
/// `BackendKind` is a `Copy` selector, so callers going through option
/// structs (engine options, simulator config) cannot hold a backend
/// themselves — without pooling, every call would spawn (and on drop kill)
/// its whole worker pool and lose all worker-side context caching.  Pooled
/// backends spawn workers via [`WorkerCommand::auto`] and persist for the
/// life of the process; each backend's internal lock serialises concurrent
/// stages.  Keying by content fingerprint means content-identical
/// registries — including a fresh `Arc` built per call from the same
/// registrations — share one pool, so the pool's size is bounded by the
/// number of distinct *configurations*, not call sites.  The resolved
/// command is part of the key because `MMLP_WORKER_BIN` can change
/// mid-process (test harnesses and experiment binaries pin it): without it,
/// a stale pool of workers spawned from the *old* binary would keep serving
/// requests addressed to the new one.  Callers that want explicit lifecycle
/// control construct a [`SubprocessBackend`] directly.
pub fn pooled_subprocess_backend(
    workers: usize,
    overlapped: bool,
    registry: &Arc<StageRegistry>,
) -> Arc<SubprocessBackend> {
    type PoolKey = (usize, bool, u64, String);
    type BackendPool = Mutex<std::collections::HashMap<PoolKey, Arc<SubprocessBackend>>>;
    static POOL: OnceLock<BackendPool> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(std::collections::HashMap::new()));
    let mut pool = pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let command = WorkerCommand::auto().describe();
    let key = (workers.max(1), overlapped, registry.fingerprint(), command);
    pool.entry(key)
        .or_insert_with(|| {
            let backend = SubprocessBackend::new(workers, registry.clone());
            Arc::new(if overlapped { backend } else { backend.lockstep() })
        })
        .clone()
}

/// A `Copy` selector for the built-in backends, carried inside option
/// structs (engine options, simulator config) and resolved at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Everything on the calling thread, one shard per stage.
    Sequential,
    /// The scoped-thread pool with a deterministic per-shard split.
    #[default]
    ScopedThreads,
    /// A fixed number of agent-range shards (a multi-machine split executed
    /// locally).
    Sharded {
        /// Number of shards per stage (clamped to ≥ 1).
        shards: usize,
    },
    /// The in-memory transport: serialisable stages cross the full wire
    /// format without a process boundary ([`LoopbackBackend`]).
    Loopback {
        /// Number of shards per stage (clamped to ≥ 1).
        shards: usize,
    },
    /// The out-of-process transport: serialisable stages run in worker
    /// processes over stdio ([`SubprocessBackend`]), falling back to the
    /// loopback when the environment cannot spawn processes.
    Subprocess {
        /// Number of worker processes (clamped to ≥ 1).
        workers: usize,
        /// Overlapped (pipelined) or lockstep dispatch.
        overlapped: bool,
    },
}

impl BackendKind {
    /// Maps `f` over `items` through the selected backend, flattening the
    /// per-shard outputs back into item order.
    pub fn map<T, R, F>(
        &self,
        parallel: &ParallelConfig,
        stage: &'static str,
        items: &[T],
        f: F,
    ) -> (Vec<R>, StageStats)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        match self {
            BackendKind::Sequential => backend_map(&Sequential, stage, items, f),
            BackendKind::ScopedThreads => {
                backend_map(&ScopedThreads::new(*parallel), stage, items, f)
            }
            BackendKind::Sharded { shards } => {
                backend_map(&Sharded::new(*shards, *parallel), stage, items, f)
            }
            // Closures cannot be serialised, so the transport kinds map them
            // on the plan-equivalent local backend (exactly what the
            // transport backends' own closure path does).
            BackendKind::Loopback { shards } => {
                backend_map(&Sharded::new(*shards, *parallel), stage, items, f)
            }
            BackendKind::Subprocess { workers, .. } => backend_map(
                &Sharded::new(workers * SUBPROCESS_SHARDS_PER_WORKER, *parallel),
                stage,
                items,
                f,
            ),
        }
    }
}

/// Per-item map on top of a [`SolveBackend`]: runs `f` for every item,
/// sharded by the backend's plan, and returns the results in item order.
pub fn backend_map<B, T, R, F>(
    backend: &B,
    stage: &'static str,
    items: &[T],
    f: F,
) -> (Vec<R>, StageStats)
where
    B: SolveBackend,
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let run = backend.execute(stage, items.len(), |shard| {
        items[shard.range()].iter().map(&f).collect::<Vec<R>>()
    });
    let mut flat = Vec::with_capacity(items.len());
    for chunk in run.outputs {
        flat.extend(chunk);
    }
    (flat, run.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_empty_input() {
        let items: Vec<u32> = vec![];
        let out: Vec<u32> = par_map(&items, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn sequential_config_matches_parallel_result() {
        let items: Vec<i64> = (0..257).collect();
        let seq = par_map_with(&ParallelConfig::sequential(), &items, |&x| x * x - 3);
        let par = par_map_with(&ParallelConfig::with_threads(7), &items, |&x| x * x - 3);
        assert_eq!(seq, par);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..500).collect();
        let out = par_map_with(&ParallelConfig::with_threads(4), &items, |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items near the start are much more expensive; dynamic scheduling
        // must still produce correct, ordered results.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map_with(&ParallelConfig::with_threads(8), &items, |&x| {
            let spins = if x < 8 { 20_000 } else { 10 };
            let mut acc = 0u64;
            for i in 0..spins {
                acc = acc.wrapping_add(i ^ x);
            }
            let _ = acc;
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn chunked_map_matches_plain_map() {
        let items: Vec<u32> = (0..103).collect();
        let plain = par_map(&items, |&x| x + 1);
        let chunked = par_chunks_map(&ParallelConfig::with_threads(3), &items, 10, |_, chunk| {
            chunk.iter().map(|&x| x + 1).collect()
        });
        assert_eq!(plain, chunked);
    }

    #[test]
    fn chunked_map_start_indices_are_correct() {
        let items: Vec<usize> = (0..25).collect();
        let out = par_chunks_map(&ParallelConfig::sequential(), &items, 7, |start, chunk| {
            chunk.iter().enumerate().map(|(off, _)| start + off).collect()
        });
        assert_eq!(out, items);
    }

    #[test]
    fn for_each_index_visits_every_index() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        par_for_each_index(&ParallelConfig::with_threads(5), 100, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn config_resolution() {
        assert_eq!(ParallelConfig::sequential().resolve(100), 1);
        assert_eq!(ParallelConfig::with_threads(4).resolve(2), 2);
        assert_eq!(ParallelConfig::with_threads(4).resolve(100), 4);
        assert!(ParallelConfig::default().resolve(1_000_000) >= 1);
        // Zero threads is clamped to one.
        assert_eq!(ParallelConfig::with_threads(0).resolve(10), 1);
    }

    #[test]
    fn results_may_borrow_inputs() {
        let items: Vec<String> = (0..50).map(|i| format!("item-{i}")).collect();
        let lens = par_map(&items, |s| s.len());
        assert_eq!(lens[0], "item-0".len());
        assert_eq!(lens[49], "item-49".len());
    }

    // ---- Edge cases of the low-level helpers. ----

    #[test]
    fn single_item_inputs() {
        let one = [41u64];
        assert_eq!(par_map(&one, |&x| x + 1), vec![42]);
        assert_eq!(par_map_with(&ParallelConfig::with_threads(16), &one, |&x| x + 1), vec![42]);
        let chunked = par_chunks_map(&ParallelConfig::with_threads(16), &one, 8, |_, chunk| {
            chunk.iter().map(|&x| x + 1).collect()
        });
        assert_eq!(chunked, vec![42]);
    }

    #[test]
    fn more_threads_than_items() {
        let items: Vec<u32> = (0..3).collect();
        let out = par_map_with(&ParallelConfig::with_threads(64), &items, |&x| x * 10);
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    fn chunked_map_empty_slice_and_oversized_chunks() {
        let empty: Vec<u8> = vec![];
        let out: Vec<u8> =
            par_chunks_map(&ParallelConfig::with_threads(4), &empty, 16, |_, c| c.to_vec());
        assert!(out.is_empty());
        // A chunk size larger than the input yields exactly one chunk.
        let items: Vec<u8> = (0..5).collect();
        let out = par_chunks_map(&ParallelConfig::with_threads(4), &items, 100, |start, c| {
            assert_eq!(start, 0);
            c.to_vec()
        });
        assert_eq!(out, items);
        // Chunk size 0 is clamped to 1.
        let out = par_chunks_map(&ParallelConfig::sequential(), &items, 0, |_, c| c.to_vec());
        assert_eq!(out, items);
    }

    #[test]
    fn config_resolution_saturates() {
        // A huge requested thread count saturates at the workload size…
        assert_eq!(ParallelConfig::with_threads(usize::MAX).resolve(5), 5);
        // …and a zero-item workload still resolves to one worker.
        assert_eq!(ParallelConfig::with_threads(usize::MAX).resolve(0), 1);
        assert_eq!(ParallelConfig::sequential().resolve(0), 1);
        assert!(ParallelConfig::default().resolve(0) >= 1);
        // One item never gets more than one worker.
        assert_eq!(ParallelConfig::default().resolve(1), 1);
    }

    // ---- The backend layer. ----

    fn backends() -> Vec<(&'static str, BackendKind)> {
        vec![
            ("sequential", BackendKind::Sequential),
            ("scoped", BackendKind::ScopedThreads),
            ("sharded-1", BackendKind::Sharded { shards: 1 }),
            ("sharded-3", BackendKind::Sharded { shards: 3 }),
            ("sharded-64", BackendKind::Sharded { shards: 64 }),
        ]
    }

    fn assert_plan_is_contiguous_and_covering(plan: &[Shard], items: usize) {
        let mut next = 0;
        for (i, shard) in plan.iter().enumerate() {
            assert_eq!(shard.index, i);
            assert_eq!(shard.start, next);
            assert!(shard.end >= shard.start);
            next = shard.end;
        }
        assert_eq!(next, items);
    }

    #[test]
    fn balanced_plans_cover_the_items() {
        for items in [0usize, 1, 2, 7, 64, 1000] {
            for shards in [1usize, 2, 3, 7, 64, 1000] {
                let plan = balanced_plan(items, shards);
                assert_plan_is_contiguous_and_covering(&plan, items);
                if items > 0 {
                    assert_eq!(plan.len(), shards.min(items));
                    let min = plan.iter().map(Shard::len).min().unwrap();
                    let max = plan.iter().map(Shard::len).max().unwrap();
                    assert!(max - min <= 1, "unbalanced plan: {min}..{max}");
                } else {
                    assert!(plan.is_empty());
                }
            }
        }
    }

    #[test]
    fn backend_plans_are_contiguous_and_covering() {
        let seq = Sequential;
        let scoped = ScopedThreads::new(ParallelConfig::with_threads(3));
        let sharded = Sharded::new(5, ParallelConfig::sequential());
        for items in [0usize, 1, 4, 100] {
            assert_plan_is_contiguous_and_covering(&seq.plan(items), items);
            assert_plan_is_contiguous_and_covering(&scoped.plan(items), items);
            assert_plan_is_contiguous_and_covering(&sharded.plan(items), items);
        }
        assert_eq!(seq.plan(100).len(), 1);
        assert_eq!(sharded.plan(100).len(), 5);
        // Sharded never creates more shards than items, and never zero.
        assert_eq!(sharded.plan(3).len(), 3);
        assert_eq!(Sharded::new(0, ParallelConfig::sequential()).shards, 1);
    }

    #[test]
    fn all_backends_agree_with_sequential() {
        let items: Vec<i64> = (0..257).collect();
        let reference: Vec<i64> = items.iter().map(|&x| x * x - 7).collect();
        for (name, kind) in backends() {
            let (out, stats) =
                kind.map(&ParallelConfig::with_threads(4), "square", &items, |&x| x * x - 7);
            assert_eq!(out, reference, "backend {name}");
            assert_eq!(stats.items(), items.len(), "backend {name}");
            assert_eq!(stats.stage, "square");
        }
    }

    #[test]
    fn backend_map_on_empty_input() {
        let empty: Vec<u32> = vec![];
        for (name, kind) in backends() {
            let (out, stats) = kind.map(&ParallelConfig::default(), "noop", &empty, |&x| x);
            assert!(out.is_empty(), "backend {name}");
            assert!(stats.shards.is_empty(), "backend {name}");
            assert_eq!(stats.critical_path(), Duration::ZERO);
        }
    }

    #[test]
    fn execute_passes_each_shard_exactly_once() {
        let backend = Sharded::new(4, ParallelConfig::with_threads(2));
        let run = backend.execute("count", 10, |shard| shard.len());
        assert_eq!(run.outputs.iter().sum::<usize>(), 10);
        assert_eq!(run.outputs.len(), 4);
        assert_eq!(run.stats.backend, "sharded");
        for (i, s) in run.stats.shards.iter().enumerate() {
            assert_eq!(s.shard, i);
            assert_eq!(s.items, run.outputs[i]);
        }
    }

    /// Serialises tests that read the pool while `MMLP_WORKER_BIN` may be
    /// mutated (the pool key resolves the worker command per call).
    static WORKER_BIN_ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn registry_fingerprints_key_the_backend_pool_by_content() {
        let _env = WORKER_BIN_ENV_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        fn handler_a(_: &[u8], _: &[u8], _: &mut StageCache) -> Result<Vec<u8>, String> {
            Ok(vec![1])
        }
        fn handler_b(_: &[u8], _: &[u8], _: &mut StageCache) -> Result<Vec<u8>, String> {
            Ok(vec![2])
        }
        let build = |with_b: bool| {
            let mut r = StageRegistry::new();
            r.register("test/a@1", handler_a);
            if with_b {
                r.register("test/b@1", handler_b);
            }
            Arc::new(r)
        };
        // Content-identical registries (distinct Arcs) fingerprint equally…
        assert_eq!(build(false).fingerprint(), build(false).fingerprint());
        assert_eq!(build(true).fingerprint(), build(true).fingerprint());
        // …different content differs.
        assert_ne!(build(false).fingerprint(), build(true).fingerprint());
        let mut swapped = StageRegistry::new();
        swapped.register("test/a@1", handler_b);
        assert_ne!(build(false).fingerprint(), swapped.fingerprint());
        // So a fresh-but-identical registry per call reuses one pooled
        // backend instead of leaking a worker pool per call.
        let first = pooled_subprocess_backend(2, true, &build(false));
        let second = pooled_subprocess_backend(2, true, &build(false));
        assert!(Arc::ptr_eq(&first, &second));
        let lockstep = pooled_subprocess_backend(2, false, &build(false));
        assert!(!Arc::ptr_eq(&first, &lockstep));
    }

    #[test]
    fn changing_the_worker_binary_rekeys_the_backend_pool() {
        // Regression: the pool used to key only by (workers, mode,
        // fingerprint), so flipping `MMLP_WORKER_BIN` mid-process kept
        // handing out a stale pool of workers spawned from the old binary.
        // Construction is lazy (workers spawn on first stage), so the
        // nonexistent paths below never spawn anything.
        fn handler(_: &[u8], _: &[u8], _: &mut StageCache) -> Result<Vec<u8>, String> {
            Ok(vec![3])
        }
        let registry = {
            let mut r = StageRegistry::new();
            r.register("test/rekey@1", handler);
            Arc::new(r)
        };
        let _env = WORKER_BIN_ENV_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let previous = std::env::var_os(WORKER_BIN_ENV);
        std::env::set_var(WORKER_BIN_ENV, "/nonexistent/mmlp-pool-rekey-a");
        let a1 = pooled_subprocess_backend(2, true, &registry);
        let a2 = pooled_subprocess_backend(2, true, &registry);
        assert!(Arc::ptr_eq(&a1, &a2), "a stable worker binary reuses its pool");
        std::env::set_var(WORKER_BIN_ENV, "/nonexistent/mmlp-pool-rekey-b");
        let b = pooled_subprocess_backend(2, true, &registry);
        assert!(!Arc::ptr_eq(&a1, &b), "a changed MMLP_WORKER_BIN must not reuse the stale pool");
        // Switching back resolves to the original pool again.
        std::env::set_var(WORKER_BIN_ENV, "/nonexistent/mmlp-pool-rekey-a");
        let a3 = pooled_subprocess_backend(2, true, &registry);
        assert!(Arc::ptr_eq(&a1, &a3));
        match previous {
            Some(v) => std::env::set_var(WORKER_BIN_ENV, v),
            None => std::env::remove_var(WORKER_BIN_ENV),
        }
    }

    #[test]
    fn probe_failure_reason_is_classified_and_cached() {
        // A worker command that cannot spawn: the verdict cache must hand
        // every backend probing the same command the identical, classified
        // reason — the probe runs once per process, not once per backend.
        let registry = Arc::new(StageRegistry::new());
        let command = WorkerCommand::Path(std::path::PathBuf::from(
            "/nonexistent/mmlp-probe-reason-test-worker",
        ));
        let first = SubprocessBackend::new(2, registry.clone()).with_command(command.clone());
        let second = SubprocessBackend::new(1, registry).with_command(command);
        let reason = first.probe_failure().expect("a missing binary cannot probe as available");
        assert!(reason.starts_with("spawn failed:"), "unclassified reason: {reason}");
        assert!(!first.subprocess_available());
        // The cached verdict returns the same reason, verbatim.
        assert_eq!(second.probe_failure(), Some(reason.clone()));
        assert_eq!(first.probe_failure(), Some(reason));
    }

    #[test]
    fn probe_failure_classifies_handshake_failures() {
        // A binary that spawns but never speaks the protocol (`true` exits
        // immediately) is a *handshake* failure, not a spawn failure.  Where
        // the sandbox cannot fork/exec at all, the spawn classification is
        // asserted instead — the probe must never report "available".
        let candidate = ["/bin/true", "/usr/bin/true"]
            .iter()
            .find(|p| std::path::Path::new(p).is_file())
            .copied();
        let Some(candidate) = candidate else {
            eprintln!("skipping: no `true` binary found");
            return;
        };
        let registry = Arc::new(StageRegistry::new());
        let backend = SubprocessBackend::new(1, registry)
            .with_command(WorkerCommand::Path(std::path::PathBuf::from(candidate)));
        let reason = backend.probe_failure().expect("`true` is not a worker");
        assert!(
            reason.starts_with("handshake failed:") || reason.starts_with("spawn failed:"),
            "unclassified reason: {reason}"
        );
    }

    #[test]
    fn per_shard_tables_merge_deterministically() {
        // The pattern the engine relies on: each shard returns a local table
        // built from its own contiguous range; merging in shard order must
        // reproduce the sequential first-occurrence order on every backend.
        let items: Vec<u32> = (0..100).map(|i| i % 7).collect();
        let merge = |kind: BackendKind| -> Vec<u32> {
            let run = match kind {
                BackendKind::Sequential => {
                    Sequential.execute("dedup", items.len(), |shard: &Shard| {
                        let mut seen = Vec::new();
                        for &v in &items[shard.range()] {
                            if !seen.contains(&v) {
                                seen.push(v);
                            }
                        }
                        seen
                    })
                }
                _ => {
                    let b = Sharded::new(6, ParallelConfig::with_threads(3));
                    b.execute("dedup", items.len(), |shard: &Shard| {
                        let mut seen = Vec::new();
                        for &v in &items[shard.range()] {
                            if !seen.contains(&v) {
                                seen.push(v);
                            }
                        }
                        seen
                    })
                }
            };
            let mut global = Vec::new();
            for table in run.outputs {
                for v in table {
                    if !global.contains(&v) {
                        global.push(v);
                    }
                }
            }
            global
        };
        let sequential = merge(BackendKind::Sequential);
        let sharded = merge(BackendKind::Sharded { shards: 6 });
        assert_eq!(sequential, sharded);
        assert_eq!(sequential, vec![0, 1, 2, 3, 4, 5, 6]);
    }
}
