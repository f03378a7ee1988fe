//! The shard driver: dispatches encoded stage jobs to worker links and
//! merges replies back into deterministic shard order.
//!
//! Two dispatch disciplines:
//!
//! * [`DriverMode::Lockstep`] — one job in flight globally; the next shard
//!   is sent only after the previous reply was merged.  The no-pipelining
//!   baseline the benchmarks compare against.
//! * [`DriverMode::Overlapped`] — every worker's whole job queue is
//!   dispatched eagerly, so all workers compute concurrently and later
//!   shards execute while earlier replies are still being merged.  Replies
//!   arriving out of shard order (the protocol permits reordering and
//!   duplicate delivery) are **buffered by sequence number** and merged in
//!   shard order, so pipelining can never change a result: the conformance
//!   suite asserts bit-identity against the sequential backend.
//!
//! Fault handling is uniform across transports: a dead worker
//! ([`TransportError::WorkerDied`]) is respawned up to
//! [`ShardDriver::max_retries`] times per worker, with the stage context and
//! every unacknowledged job of that worker resent (jobs are idempotent pure
//! functions, and the by-sequence merge drops any duplicate that still
//! arrives).  Anything else — truncated or corrupted frames, worker-side
//! handler failures, protocol violations — aborts the stage with a typed
//! [`TransportError`]; no failure path hangs or panics.
//!
//! The distributed simulator's inter-round message exchange rides this
//! merge unchanged: every round is one stage run (`mmlp/sim-epoch@1`),
//! which claims a fresh contiguous sequence range in shard order, so a
//! round's message batches are merged deterministically by
//! `(round, shard, seq)` — a duplicated or reordered batch is recognised
//! and dropped exactly like any other shard reply.  Its workers keep state
//! between rounds, though, so a lost worker is recovered by the
//! checkpoint-and-replay path below rather than by a plain resend.
//!
//! # Recoverable stages: checkpoints and replay
//!
//! Respawn-and-resend is only correct while jobs are pure functions of
//! their own bytes.  Stages with **worker-resident state** (the
//! `mmlp/sim-epoch@1` simulator tier keeps every node's state on the
//! worker across rounds) instead run through
//! [`ShardDriver::run_recoverable`] with a caller-owned [`RecoveryLog`]:
//!
//! * every sent job frame is buffered per shard;
//! * a `Checkpoint` frame from a worker (a state snapshot the stage handler
//!   deposited, carrying the sequence number of the job that requested it)
//!   is recorded and trims the buffered jobs at or below that sequence;
//! * the [`LinkPool`] numbers link *generations* — every spawn for a worker
//!   index bumps its generation, so the log can tell the link it last
//!   observed from a fresh one (even one revived by an interleaved
//!   non-recoverable stage on the same pool);
//! * when a recoverable run touches a worker whose generation moved, the
//!   driver sends the stage context, a `Restore` frame per checkpointed
//!   shard of that worker, and then the buffered job frames verbatim.
//!   Replayed rounds recompute deterministically; their replies carry old
//!   sequence numbers and are dropped by the ordered merge, so replay is
//!   invisible to the caller.

use crate::transport::{TransportError, WorkerLink};
use crate::wire::{put_str, ByteReader, Frame, FrameKind};
use crate::{Shard, ShardStats, StageRun, StageStats};
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// Dispatch discipline of the [`ShardDriver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriverMode {
    /// One job in flight at a time (the no-pipelining baseline).
    Lockstep,
    /// Dispatch eagerly, merge replies as they arrive (buffered to preserve
    /// the deterministic shard order).
    #[default]
    Overlapped,
}

/// A pipeline stage whose per-shard inputs and outputs can cross a byte
/// boundary.
///
/// This is the serialisation seam between a [`SolveBackend`] caller and the
/// transport: `encode_context`/`encode_job` produce what ships,
/// `decode_reply` parses what returns, and `run_local` is the same
/// computation executed in-process — the reference every remote execution
/// must reproduce bit for bit (the worker-side handler registered for
/// [`stage_id`](WireStage::stage_id) decodes the payloads and calls the very
/// same function).
///
/// [`SolveBackend`]: crate::SolveBackend
pub trait WireStage: Sync {
    /// The per-shard output type.
    type Output: Send;

    /// Stable stage identifier with a payload-version suffix (e.g.
    /// `mmlp/present@2`), dispatched by the worker's registry.
    fn stage_id(&self) -> &'static str;

    /// Encodes the stage-shared context (sent once per worker per stage).
    fn encode_context(&self, out: &mut Vec<u8>);

    /// Encodes one shard's job payload.
    fn encode_job(&self, shard: &Shard, out: &mut Vec<u8>);

    /// Decodes one shard's reply payload.
    ///
    /// # Errors
    ///
    /// A typed [`TransportError`] when the payload is malformed.
    fn decode_reply(&self, shard: &Shard, payload: &[u8]) -> Result<Self::Output, TransportError>;

    /// Runs the stage in-process (the loopback-free reference path used by
    /// the local backends).
    fn run_local(&self, shard: &Shard) -> Self::Output;
}

/// Dispatches the shards of one stage across a pool of worker links.
///
/// Callers normally reach the driver through a transport backend's
/// [`execute_stage`](crate::SolveBackend::execute_stage); the loopback
/// backend is the smallest end-to-end setup — every context, job and reply
/// below crosses a real encoded-frame boundary:
///
/// ```
/// use mmlp_parallel::wire::{put_usize, ByteReader};
/// use mmlp_parallel::{
///     LoopbackBackend, Shard, SolveBackend, StageCache, StageRegistry, TransportError,
///     WireStage,
/// };
/// use std::sync::Arc;
///
/// // A stage that ships each shard's range out and sums it worker-side.
/// struct SumStage;
///
/// impl WireStage for SumStage {
///     type Output = usize;
///     fn stage_id(&self) -> &'static str {
///         "doc/sum@1"
///     }
///     fn encode_context(&self, _out: &mut Vec<u8>) {}
///     fn encode_job(&self, shard: &Shard, out: &mut Vec<u8>) {
///         put_usize(out, shard.start);
///         put_usize(out, shard.end);
///     }
///     fn decode_reply(&self, _shard: &Shard, payload: &[u8]) -> Result<usize, TransportError> {
///         Ok(ByteReader::new(payload).usize("doc sum reply")?)
///     }
///     fn run_local(&self, shard: &Shard) -> usize {
///         shard.range().sum()
///     }
/// }
///
/// // The worker-side handler: the same computation, decoded from bytes.
/// fn handle(_ctx: &[u8], job: &[u8], _cache: &mut StageCache) -> Result<Vec<u8>, String> {
///     let mut r = ByteReader::new(job);
///     let start = r.usize("doc sum start").map_err(|e| e.to_string())?;
///     let end = r.usize("doc sum end").map_err(|e| e.to_string())?;
///     let mut out = Vec::new();
///     put_usize(&mut out, (start..end).sum());
///     Ok(out)
/// }
///
/// let mut registry = StageRegistry::new();
/// registry.register("doc/sum@1", handle);
/// // 4 shards pipelined over 2 workers by the overlapped driver.
/// let backend = LoopbackBackend::new(Arc::new(registry), 4).with_workers(2);
/// let run = backend.execute_stage(100, &SumStage).unwrap();
/// assert_eq!(run.outputs.iter().sum::<usize>(), 4950);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ShardDriver {
    /// Number of concurrent workers (clamped to the number of shards).
    pub workers: usize,
    /// Dispatch discipline.
    pub mode: DriverMode,
    /// How many times a dead worker is respawned before the stage fails
    /// with [`TransportError::RetriesExhausted`].
    pub max_retries: usize,
}

/// Pool of reusable worker links, indexed by driver-side worker number.
///
/// Links persist across stages (a worker process serves a whole pipeline),
/// so the pool lives with the backend and is lent to the driver per stage.
/// The pool also allocates the globally unique job sequence numbers: every
/// stage run claims a fresh contiguous range, so a stale reply from an
/// earlier stage (possible under duplicate-delivery faults) can never be
/// mistaken for a current one — the driver recognises and drops it.
#[derive(Default)]
pub struct LinkPool {
    pub(crate) links: Vec<Option<Box<dyn WorkerLink>>>,
    /// The last context payload each live link received, **per stage id**.
    /// A worker keeps every stage's stored context until different bytes
    /// replace that stage's entry, so the driver skips re-sending identical
    /// context bytes — per-round stages with a large constant context (the
    /// simulator tiers ship the whole network there; the incremental engine
    /// registers a whole base instance) pay for it once per link instead of
    /// once per run.  Keying by stage id mirrors the worker's own per-stage
    /// context store: without it, two stages alternating on one pool would
    /// evict each other's dedup entry on every run and re-ship both
    /// contexts every time.  Cleared whenever a fresh link is installed.
    sent_context: Vec<HashMap<&'static str, Vec<u8>>>,
    /// Spawn counters per worker index: bumped on every installed link, so
    /// a [`RecoveryLog`] can recognise a link it has never synchronised
    /// (generation 0 = never spawned).
    generations: Vec<u64>,
    next_seq: u64,
}

impl std::fmt::Debug for LinkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkPool")
            .field("links", &self.links.iter().map(Option::is_some).collect::<Vec<_>>())
            .field("generations", &self.generations)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl LinkPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Claims a contiguous range of `count` job sequence numbers.
    fn claim_seq_range(&mut self, count: u64) -> u64 {
        let base = self.next_seq;
        self.next_seq += count;
        base
    }

    /// Installs a freshly spawned link for worker `w`, bumping its
    /// generation and forgetting what contexts the dead link had received.
    fn install(&mut self, w: usize, link: Box<dyn WorkerLink>) {
        if self.generations.len() <= w {
            self.generations.resize(w + 1, 0);
        }
        if self.sent_context.len() <= w {
            self.sent_context.resize_with(w + 1, HashMap::new);
        }
        self.generations[w] += 1;
        self.sent_context[w].clear();
        self.links[w] = Some(link);
    }

    /// The spawn generation of worker `w` (0 before the first spawn).
    pub fn generation(&self, w: usize) -> u64 {
        self.generations.get(w).copied().unwrap_or(0)
    }

    /// Whether worker `w`'s current link already holds exactly this context
    /// payload for this stage (see [`LinkPool::sent_context`]).
    fn context_is_current(&self, w: usize, stage_id: &'static str, payload: &[u8]) -> bool {
        self.sent_context.get(w).and_then(|m| m.get(stage_id)).map(Vec::as_slice) == Some(payload)
    }

    /// Records the context payload worker `w`'s link just received for the
    /// given stage.
    fn note_context(&mut self, w: usize, stage_id: &'static str, payload: &[u8]) {
        if self.sent_context.len() <= w {
            self.sent_context.resize_with(w + 1, HashMap::new);
        }
        self.sent_context[w].insert(stage_id, payload.to_vec());
    }
}

/// Spawner callback: produces a fresh link for a worker index, both at
/// start-up and when the driver replaces a dead worker.
pub type LinkSpawner<'a> = dyn FnMut(usize) -> Result<Box<dyn WorkerLink>, TransportError> + 'a;

/// The driver-side half of the checkpoint/restore protocol: per-shard
/// snapshot frames plus the job frames sent since each snapshot, and the
/// link generation last synchronised per worker.
///
/// One log serves one logical sequence of [`ShardDriver::run_recoverable`]
/// calls over a **fixed plan** (shard `i` of every run must be the same
/// logical shard — the simulator's epoch tier partitions all nodes
/// identically every round).  The caller owns the log for the lifetime of
/// that sequence; dropping it forgets the snapshots, after which a dead
/// worker's resident state is unrecoverable.
///
/// With no checkpoints recorded yet, recovery degrades gracefully: the
/// buffered jobs reach back to the first round, so a respawned worker
/// replays the whole history (correct, just slower) — exactly the
/// "pre-first-checkpoint" kill phase of the fault suite.
///
/// # Memory bound
///
/// The replay tail is trimmed **only** by recorded checkpoints: with a
/// finite checkpoint cadence `k` the log holds at most `k` job frames per
/// shard at any time (asserted by
/// `recovery_log_stays_bounded_by_the_checkpoint_cadence`), but a stage
/// that never requests snapshots (`CheckpointPolicy::never()` in the
/// simulator's epoch tier) buffers **every job since round 0** — memory
/// grows linearly with the run length, by design, because replay-from-zero
/// is then the only recovery story.  Long-lived runs should checkpoint.
#[derive(Debug, Default)]
pub struct RecoveryLog {
    shards: Vec<ShardRecovery>,
    /// Link generation last synchronised per worker index; a pool
    /// generation ahead of this means the worker's resident state is gone.
    seen_generation: Vec<u64>,
}

#[derive(Debug, Default)]
struct ShardRecovery {
    /// The latest snapshot frame (kind `Checkpoint`, original sequence).
    checkpoint: Option<Frame>,
    /// Sent job frames with sequence numbers above the checkpoint's,
    /// ascending — the replay tail.
    jobs: Vec<Frame>,
}

impl RecoveryLog {
    /// An empty log: no snapshots, no buffered jobs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the per-shard and per-worker tables.
    fn ensure(&mut self, shards: usize, workers: usize) {
        debug_assert!(
            self.shards.is_empty() || self.shards.len() == shards,
            "a RecoveryLog must be reused with a fixed plan \
             ({} shards recorded, {shards} now)",
            self.shards.len(),
        );
        if self.shards.len() < shards {
            self.shards.resize_with(shards, ShardRecovery::default);
        }
        if self.seen_generation.len() < workers {
            self.seen_generation.resize(workers, 0);
        }
    }

    /// Buffers one sent job frame for shard `idx` (idempotent per sequence
    /// number, so a resend after an in-run revival records nothing new).
    fn record_job(&mut self, idx: usize, frame: &Frame) {
        let jobs = &mut self.shards[idx].jobs;
        if jobs.last().is_some_and(|last| last.seq >= frame.seq) {
            return;
        }
        jobs.push(frame.clone());
    }

    /// Records a snapshot for shard `idx` and trims the replay tail: jobs
    /// at or below the snapshot's sequence can never need replaying again.
    fn record_checkpoint(&mut self, idx: usize, frame: Frame) {
        let rec = &mut self.shards[idx];
        rec.jobs.retain(|job| job.seq > frame.seq);
        rec.checkpoint = Some(frame);
    }

    /// Total buffered replay frames across all shards (test observability).
    pub fn buffered_jobs(&self) -> usize {
        self.shards.iter().map(|s| s.jobs.len()).sum()
    }

    /// Number of shards holding a snapshot (test observability).
    pub fn checkpointed_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.checkpoint.is_some()).count()
    }
}

struct WorkerState {
    /// Jobs assigned but not yet sent (lockstep keeps them here).
    unsent: VecDeque<u64>,
    /// Jobs sent and not yet merged — resent verbatim after a respawn.
    inflight: VecDeque<u64>,
    /// Spawn attempts consumed (the first spawn is free).
    respawns: usize,
    /// Whether the current link received this stage's context frame.
    ctx_sent: bool,
}

impl ShardDriver {
    /// Runs `stage` over `plan`, returning outputs in shard order.
    ///
    /// `pool` holds the persistent links (grown on demand); `spawn` makes a
    /// new link for a worker index.
    ///
    /// # Errors
    ///
    /// Typed [`TransportError`]s for every transport failure; results are
    /// only returned when every shard's reply was received and decoded.
    pub fn run<S: WireStage>(
        &self,
        backend_name: &'static str,
        stage: &S,
        plan: &[Shard],
        pool: &mut LinkPool,
        spawn: &mut LinkSpawner<'_>,
    ) -> Result<StageRun<S::Output>, TransportError> {
        self.run_inner(backend_name, stage, plan, pool, spawn, None)
    }

    /// [`run`](Self::run) for stages with worker-resident state: sent jobs
    /// are buffered in `recovery`, worker `Checkpoint` frames are recorded
    /// there, and a worker whose link generation moved since the log last
    /// saw it is re-synchronised (context, `Restore` per checkpointed
    /// shard, buffered jobs replayed) before receiving new work.
    ///
    /// The caller keeps one log across the whole sequence of runs that
    /// share resident state (one simulation), always with the same plan
    /// shape.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run); additionally, `Checkpoint` frames for the
    /// current run would be [`TransportError::UnexpectedFrame`] under
    /// [`run`](Self::run), which has nowhere to record them.
    pub fn run_recoverable<S: WireStage>(
        &self,
        backend_name: &'static str,
        stage: &S,
        plan: &[Shard],
        pool: &mut LinkPool,
        spawn: &mut LinkSpawner<'_>,
        recovery: &mut RecoveryLog,
    ) -> Result<StageRun<S::Output>, TransportError> {
        self.run_inner(backend_name, stage, plan, pool, spawn, Some(recovery))
    }

    fn run_inner<S: WireStage>(
        &self,
        backend_name: &'static str,
        stage: &S,
        plan: &[Shard],
        pool: &mut LinkPool,
        spawn: &mut LinkSpawner<'_>,
        mut recovery: Option<&mut RecoveryLog>,
    ) -> Result<StageRun<S::Output>, TransportError> {
        let n = plan.len();
        if n == 0 {
            return Ok(StageRun {
                outputs: Vec::new(),
                stats: StageStats {
                    stage: stage.stage_id(),
                    backend: backend_name,
                    shards: vec![],
                },
            });
        }
        let workers = self.workers.clamp(1, n);
        if pool.links.len() < workers {
            pool.links.resize_with(workers, || None);
        }
        if let Some(log) = recovery.as_deref_mut() {
            log.ensure(n, workers);
        }
        let base = pool.claim_seq_range(n as u64);

        let mut context = Vec::new();
        put_str(&mut context, stage.stage_id());
        stage.encode_context(&mut context);
        let context = Frame { kind: FrameKind::Context, seq: 0, payload: context };

        let mut states: Vec<WorkerState> = (0..workers)
            .map(|_| WorkerState {
                unsent: VecDeque::new(),
                inflight: VecDeque::new(),
                respawns: 0,
                ctx_sent: false,
            })
            .collect();
        for shard in plan {
            states[shard.index % workers].unsent.push_back(base + shard.index as u64);
        }

        let mut results: Vec<Option<(S::Output, ShardStats)>> = (0..n).map(|_| None).collect();

        // In overlapped mode the whole queue of every worker ships up front;
        // workers compute concurrently while the driver merges in order.
        if self.mode == DriverMode::Overlapped {
            for w in 0..workers {
                self.flush_unsent(
                    w,
                    workers,
                    base,
                    stage,
                    plan,
                    pool,
                    spawn,
                    &mut states,
                    &context,
                    recovery.as_deref_mut(),
                )?;
            }
        }

        for next in 0..n {
            if results[next].is_some() {
                continue;
            }
            let w = next % workers;
            if self.mode == DriverMode::Lockstep {
                // Shards are assigned round-robin and merged in order, so
                // the worker's next unsent job is exactly `next` (unless a
                // revival already re-dispatched it, making this a no-op).
                self.flush_one(
                    w,
                    workers,
                    base,
                    stage,
                    plan,
                    pool,
                    spawn,
                    &mut states,
                    &context,
                    recovery.as_deref_mut(),
                )?;
            }
            // Collect until shard `next` is merged; out-of-order replies are
            // buffered into `results`, duplicates of merged shards ignored.
            loop {
                let frame = match pool.links[w].as_mut().expect("link ensured").recv() {
                    Ok(frame) => frame,
                    Err(TransportError::WorkerDied { message, .. }) => {
                        self.revive(
                            w,
                            workers,
                            base,
                            message,
                            stage,
                            plan,
                            pool,
                            spawn,
                            &mut states,
                            &context,
                            recovery.as_deref_mut(),
                        )?;
                        continue;
                    }
                    Err(e) => return Err(e),
                };
                match frame.kind {
                    FrameKind::Reply => {
                        let seq = frame.seq;
                        if seq < base {
                            // Stale duplicate from an earlier stage run on
                            // this pooled link: drop it.
                            continue;
                        }
                        let idx = usize::try_from(seq - base)
                            .ok()
                            .filter(|&i| i < n)
                            .ok_or(TransportError::UnexpectedReply { seq })?;
                        if results[idx].is_some() {
                            // Duplicate delivery of a merged shard: the
                            // by-sequence merge makes redelivery idempotent.
                            continue;
                        }
                        if !states[w].inflight.contains(&seq) {
                            return Err(TransportError::UnexpectedReply { seq });
                        }
                        states[w].inflight.retain(|&s| s != seq);
                        let mut reader = ByteReader::new(&frame.payload);
                        let wall = Duration::from_nanos(reader.u64("reply wall-clock")?);
                        let reply = reader.rest();
                        let output = stage.decode_reply(&plan[idx], reply)?;
                        let stats = ShardStats {
                            shard: idx,
                            items: plan[idx].len(),
                            wall,
                            reply_bytes: reply.len(),
                        };
                        results[idx] = Some((output, stats));
                        if idx == next {
                            break;
                        }
                    }
                    FrameKind::WorkerError => {
                        if frame.seq < base {
                            // Stale failure report from a stage run that
                            // already aborted: drop it like a stale reply,
                            // it must not poison this healthy stage.
                            continue;
                        }
                        return Err(TransportError::Worker {
                            seq: frame.seq,
                            message: String::from_utf8_lossy(&frame.payload).into_owned(),
                        });
                    }
                    FrameKind::Checkpoint => {
                        let seq = frame.seq;
                        if seq < base {
                            // Snapshot from an earlier run: a later (or
                            // already recorded) snapshot supersedes it, and
                            // replaying a longer tail stays correct.
                            continue;
                        }
                        let idx = usize::try_from(seq - base)
                            .ok()
                            .filter(|&i| i < n)
                            .ok_or(TransportError::UnexpectedReply { seq })?;
                        match recovery.as_deref_mut() {
                            Some(log) => log.record_checkpoint(idx, frame),
                            None => {
                                return Err(TransportError::UnexpectedFrame { kind: "checkpoint" })
                            }
                        }
                    }
                    FrameKind::Hello => continue, // stray handshake echo
                    FrameKind::Context
                    | FrameKind::Job
                    | FrameKind::Shutdown
                    | FrameKind::Restore => {
                        return Err(TransportError::UnexpectedFrame { kind: "control" });
                    }
                }
            }
        }

        let mut outputs = Vec::with_capacity(n);
        let mut shards = Vec::with_capacity(n);
        for slot in results {
            let (output, stats) = slot.expect("loop above merged every shard");
            outputs.push(output);
            shards.push(stats);
        }
        Ok(StageRun {
            outputs,
            stats: StageStats { stage: stage.stage_id(), backend: backend_name, shards },
        })
    }

    /// Makes sure worker `w` has a live link that received this stage's
    /// context — and, for recoverable stages, that a link the log has not
    /// yet synchronised is brought back to its resident state: one
    /// `Restore` frame per checkpointed shard of this worker, then the
    /// buffered job frames replayed verbatim (their stale replies are
    /// dropped by the ordered merge).
    #[allow(clippy::too_many_arguments)]
    fn ensure_link<S: WireStage>(
        &self,
        w: usize,
        workers: usize,
        stage: &S,
        pool: &mut LinkPool,
        spawn: &mut LinkSpawner<'_>,
        states: &mut [WorkerState],
        context: &Frame,
        recovery: Option<&mut RecoveryLog>,
    ) -> Result<(), TransportError> {
        if pool.links[w].is_none() {
            let link = spawn(w)?;
            pool.install(w, link);
            states[w].ctx_sent = false;
        }
        if !states[w].ctx_sent {
            if !pool.context_is_current(w, stage.stage_id(), &context.payload) {
                pool.links[w].as_mut().expect("just ensured").send(context)?;
                pool.note_context(w, stage.stage_id(), &context.payload);
            }
            states[w].ctx_sent = true;
        }
        if let Some(log) = recovery {
            let generation = pool.generation(w);
            if log.seen_generation[w] != generation {
                let link = pool.links[w].as_mut().expect("link ensured");
                // Shard-to-worker assignment is `index % workers`, stable
                // across runs because recoverable plans keep their shape.
                for idx in (w..log.shards.len()).step_by(workers) {
                    let rec = &log.shards[idx];
                    if let Some(checkpoint) = &rec.checkpoint {
                        let mut payload = Vec::new();
                        put_str(&mut payload, stage.stage_id());
                        payload.extend_from_slice(&checkpoint.payload);
                        link.send(&Frame {
                            kind: FrameKind::Restore,
                            seq: checkpoint.seq,
                            payload,
                        })?;
                    }
                    for job in &rec.jobs {
                        link.send(job)?;
                    }
                }
                log.seen_generation[w] = generation;
            }
        }
        Ok(())
    }

    /// Sends every queued job of worker `w` (overlapped dispatch).
    #[allow(clippy::too_many_arguments)]
    fn flush_unsent<S: WireStage>(
        &self,
        w: usize,
        workers: usize,
        base: u64,
        stage: &S,
        plan: &[Shard],
        pool: &mut LinkPool,
        spawn: &mut LinkSpawner<'_>,
        states: &mut [WorkerState],
        context: &Frame,
        mut recovery: Option<&mut RecoveryLog>,
    ) -> Result<(), TransportError> {
        self.ensure_link(w, workers, stage, pool, spawn, states, context, recovery.as_deref_mut())?;
        while !states[w].unsent.is_empty() {
            self.flush_one(
                w,
                workers,
                base,
                stage,
                plan,
                pool,
                spawn,
                states,
                context,
                recovery.as_deref_mut(),
            )?;
        }
        Ok(())
    }

    /// Sends the next queued job of worker `w`, reviving it on a dead pipe.
    #[allow(clippy::too_many_arguments)]
    fn flush_one<S: WireStage>(
        &self,
        w: usize,
        workers: usize,
        base: u64,
        stage: &S,
        plan: &[Shard],
        pool: &mut LinkPool,
        spawn: &mut LinkSpawner<'_>,
        states: &mut [WorkerState],
        context: &Frame,
        mut recovery: Option<&mut RecoveryLog>,
    ) -> Result<(), TransportError> {
        loop {
            self.ensure_link(
                w,
                workers,
                stage,
                pool,
                spawn,
                states,
                context,
                recovery.as_deref_mut(),
            )?;
            let Some(&seq) = states[w].unsent.front() else { return Ok(()) };
            let idx = usize::try_from(seq - base).expect("shard index fits usize");
            let shard = &plan[idx];
            let mut payload = Vec::new();
            put_str(&mut payload, stage.stage_id());
            stage.encode_job(shard, &mut payload);
            let frame = Frame { kind: FrameKind::Job, seq, payload };
            match pool.links[w].as_mut().expect("link ensured").send(&frame) {
                Ok(()) => {
                    states[w].unsent.pop_front();
                    states[w].inflight.push_back(seq);
                    if let Some(log) = recovery.as_deref_mut() {
                        log.record_job(idx, &frame);
                    }
                    return Ok(());
                }
                Err(TransportError::WorkerDied { message, .. }) => {
                    self.revive(
                        w,
                        workers,
                        base,
                        message,
                        stage,
                        plan,
                        pool,
                        spawn,
                        states,
                        context,
                        recovery.as_deref_mut(),
                    )?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Replaces a dead worker: respawn (within the retry budget), resend the
    /// context, and re-dispatch every job the dead link had in flight.
    #[allow(clippy::too_many_arguments)]
    fn revive<S: WireStage>(
        &self,
        w: usize,
        workers: usize,
        base: u64,
        cause: String,
        stage: &S,
        plan: &[Shard],
        pool: &mut LinkPool,
        spawn: &mut LinkSpawner<'_>,
        states: &mut [WorkerState],
        context: &Frame,
        recovery: Option<&mut RecoveryLog>,
    ) -> Result<(), TransportError> {
        states[w].respawns += 1;
        if states[w].respawns > self.max_retries {
            return Err(TransportError::RetriesExhausted {
                worker: w,
                attempts: states[w].respawns,
                last: cause,
            });
        }
        pool.links[w] = None;
        states[w].ctx_sent = false;
        if recovery.is_none() {
            // Everything the dead link had in flight is lost; queue it
            // again in front of the untouched jobs (order within a worker
            // is free — the merge is by sequence number) and re-dispatch
            // the whole queue.  Re-dispatching also in lockstep mode keeps
            // the recovery path uniform; jobs are idempotent and the
            // ordered merge ignores any duplicate, so early dispatch can
            // never change a result.
            let inflight: Vec<u64> = states[w].inflight.drain(..).collect();
            for seq in inflight.into_iter().rev() {
                states[w].unsent.push_front(seq);
            }
        }
        // With a recovery log the in-flight jobs stay in flight: they are
        // part of the buffered replay tail that `ensure_link` ships to the
        // respawned worker, and their recomputed replies merge normally.
        self.flush_unsent(w, workers, base, stage, plan, pool, spawn, states, context, recovery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balanced_plan;
    use crate::transport::{FaultPlan, LoopbackLink, StageCache, StageRegistry};
    use crate::wire::{put_u64, put_usize};
    use std::sync::Arc;

    /// The test stage: output[i] = input_base + item index, per shard.
    struct OffsetStage {
        base: u64,
    }

    fn offset_handler(ctx: &[u8], job: &[u8], _cache: &mut StageCache) -> Result<Vec<u8>, String> {
        let mut r = ByteReader::new(ctx);
        let base = r.u64("base").map_err(|e| e.to_string())?;
        let mut r = ByteReader::new(job);
        let start = r.u64("start").map_err(|e| e.to_string())?;
        let end = r.u64("end").map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        put_usize(&mut out, (end - start) as usize);
        for i in start..end {
            put_u64(&mut out, base + i);
        }
        Ok(out)
    }

    impl WireStage for OffsetStage {
        type Output = Vec<u64>;

        fn stage_id(&self) -> &'static str {
            "test/offset@1"
        }

        fn encode_context(&self, out: &mut Vec<u8>) {
            put_u64(out, self.base);
        }

        fn encode_job(&self, shard: &Shard, out: &mut Vec<u8>) {
            put_u64(out, shard.start as u64);
            put_u64(out, shard.end as u64);
        }

        fn decode_reply(&self, _shard: &Shard, payload: &[u8]) -> Result<Vec<u64>, TransportError> {
            let mut r = ByteReader::new(payload);
            Ok(r.u64s("offsets")?)
        }

        fn run_local(&self, shard: &Shard) -> Vec<u64> {
            shard.range().map(|i| self.base + i as u64).collect()
        }
    }

    fn registry() -> Arc<StageRegistry> {
        let mut reg = StageRegistry::new();
        reg.register("test/offset@1", offset_handler);
        Arc::new(reg)
    }

    fn run_with_faults(
        driver: &ShardDriver,
        items: usize,
        shards: usize,
        faults_first_spawn: FaultPlan,
    ) -> Result<Vec<Vec<u64>>, TransportError> {
        let reg = registry();
        let stage = OffsetStage { base: 1000 };
        let plan = balanced_plan(items, shards);
        let mut pool = LinkPool::new();
        let mut spawned = vec![0usize; driver.workers.max(1)];
        let mut spawn = |w: usize| -> Result<Box<dyn WorkerLink>, TransportError> {
            spawned[w] += 1;
            let faults =
                if spawned[w] == 1 { faults_first_spawn.clone() } else { FaultPlan::none() };
            Ok(Box::new(LoopbackLink::with_faults(reg.clone(), w, faults)) as Box<dyn WorkerLink>)
        };
        driver
            .run("test", &stage, &plan, &mut pool, &mut spawn)
            .map(|run| run.outputs)
    }

    fn reference(items: usize, shards: usize) -> Vec<Vec<u64>> {
        let stage = OffsetStage { base: 1000 };
        balanced_plan(items, shards).iter().map(|s| stage.run_local(s)).collect()
    }

    #[test]
    fn lockstep_and_overlapped_match_the_local_reference() {
        for mode in [DriverMode::Lockstep, DriverMode::Overlapped] {
            for (items, shards, workers) in [(1, 1, 1), (10, 4, 2), (100, 16, 3), (7, 7, 7)] {
                let driver = ShardDriver { workers, mode, max_retries: 0 };
                let outputs = run_with_faults(&driver, items, shards, FaultPlan::none()).unwrap();
                assert_eq!(outputs, reference(items, shards), "{mode:?} {items}/{shards}");
            }
        }
    }

    #[test]
    fn shard_stats_count_each_reply_payload_once() {
        let reg = registry();
        let stage = OffsetStage { base: 7 };
        let plan = balanced_plan(10, 4);
        for mode in [DriverMode::Lockstep, DriverMode::Overlapped] {
            let driver = ShardDriver { workers: 2, mode, max_retries: 0 };
            let mut pool = LinkPool::new();
            // Duplicated replies are dropped by the merge, so they count
            // once too.
            let faults = FaultPlan { duplicate_replies: vec![0, 1], ..FaultPlan::none() };
            let mut spawn = |w: usize| -> Result<Box<dyn WorkerLink>, TransportError> {
                Ok(Box::new(LoopbackLink::with_faults(reg.clone(), w, faults.clone()))
                    as Box<dyn WorkerLink>)
            };
            let run = driver.run("test", &stage, &plan, &mut pool, &mut spawn).unwrap();
            for (shard, stats) in plan.iter().zip(&run.stats.shards) {
                // A length word, then one u64 per item.
                assert_eq!(stats.reply_bytes, 8 + 8 * shard.len(), "{mode:?}");
            }
            assert_eq!(run.stats.reply_bytes(), 8 * (plan.len() + 10), "{mode:?}");
        }
        // In-process shards send no replies.
        let local = crate::SolveBackend::execute_stage(&crate::Sequential, 10, &stage).unwrap();
        assert_eq!(local.stats.reply_bytes(), 0);
    }

    #[test]
    fn stale_frames_from_an_aborted_stage_do_not_poison_the_next_one() {
        // A failing stage aborts on its first WorkerError, leaving the rest
        // of the in-flight jobs' WorkerError frames queued on the pooled
        // links.  A later healthy stage on the same pool must drop those
        // stale frames (they carry pre-claim sequence numbers) and succeed.
        fn always_fail(
            _ctx: &[u8],
            _job: &[u8],
            _cache: &mut StageCache,
        ) -> Result<Vec<u8>, String> {
            Err("scripted failure".to_string())
        }
        struct FailingStage;
        impl WireStage for FailingStage {
            type Output = ();
            fn stage_id(&self) -> &'static str {
                "test/fail@1"
            }
            fn encode_context(&self, _out: &mut Vec<u8>) {}
            fn encode_job(&self, _shard: &Shard, _out: &mut Vec<u8>) {}
            fn decode_reply(&self, _shard: &Shard, _p: &[u8]) -> Result<(), TransportError> {
                Ok(())
            }
            fn run_local(&self, _shard: &Shard) {}
        }

        let mut reg = StageRegistry::new();
        reg.register("test/offset@1", offset_handler);
        reg.register("test/fail@1", always_fail);
        let reg = Arc::new(reg);
        let driver = ShardDriver { workers: 2, mode: DriverMode::Overlapped, max_retries: 0 };
        let mut pool = LinkPool::new();
        let mut spawn = |w: usize| -> Result<Box<dyn WorkerLink>, TransportError> {
            Ok(Box::new(LoopbackLink::new(reg.clone(), w)) as Box<dyn WorkerLink>)
        };

        let plan = balanced_plan(12, 6);
        match driver.run("test", &FailingStage, &plan, &mut pool, &mut spawn) {
            Err(TransportError::Worker { .. }) => {}
            other => panic!("expected the scripted worker failure, got {other:?}"),
        }

        let stage = OffsetStage { base: 1000 };
        let outputs = driver.run("test", &stage, &plan, &mut pool, &mut spawn).unwrap().outputs;
        assert_eq!(outputs, reference(12, 6));
    }

    #[test]
    fn interleaved_stages_ship_each_context_once_per_link() {
        // Regression: the pool used to remember only the *last* context
        // payload per worker, so a driver alternating between two stages
        // (the engine pipeline does exactly this) re-shipped both contexts
        // on every run — each stage's payload evicted the other's.  The
        // per-stage map must keep both resident at once.
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct AltStage {
            id: &'static str,
            base: u64,
        }
        impl WireStage for AltStage {
            type Output = Vec<u64>;
            fn stage_id(&self) -> &'static str {
                self.id
            }
            fn encode_context(&self, out: &mut Vec<u8>) {
                put_u64(out, self.base);
            }
            fn encode_job(&self, shard: &Shard, out: &mut Vec<u8>) {
                put_u64(out, shard.start as u64);
                put_u64(out, shard.end as u64);
            }
            fn decode_reply(
                &self,
                _shard: &Shard,
                payload: &[u8],
            ) -> Result<Vec<u64>, TransportError> {
                let mut r = ByteReader::new(payload);
                Ok(r.u64s("offsets")?)
            }
            fn run_local(&self, shard: &Shard) -> Vec<u64> {
                shard.range().map(|i| self.base + i as u64).collect()
            }
        }

        struct CountingLink {
            inner: LoopbackLink,
            contexts: Arc<AtomicUsize>,
        }
        impl WorkerLink for CountingLink {
            fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
                if frame.kind == FrameKind::Context {
                    self.contexts.fetch_add(1, Ordering::SeqCst);
                }
                self.inner.send(frame)
            }
            fn recv(&mut self) -> Result<Frame, TransportError> {
                self.inner.recv()
            }
        }

        let mut reg = StageRegistry::new();
        reg.register("test/alt-a@1", offset_handler);
        reg.register("test/alt-b@1", offset_handler);
        let reg = Arc::new(reg);
        let contexts = Arc::new(AtomicUsize::new(0));
        let driver = ShardDriver { workers: 2, mode: DriverMode::Overlapped, max_retries: 0 };
        let mut pool = LinkPool::new();
        let counter = contexts.clone();
        let mut spawn = move |w: usize| -> Result<Box<dyn WorkerLink>, TransportError> {
            Ok(Box::new(CountingLink {
                inner: LoopbackLink::new(reg.clone(), w),
                contexts: counter.clone(),
            }) as Box<dyn WorkerLink>)
        };

        let plan = balanced_plan(8, 4);
        let a = AltStage { id: "test/alt-a@1", base: 100 };
        let b = AltStage { id: "test/alt-b@1", base: 5000 };
        for round in 0..3 {
            let got_a = driver.run("test", &a, &plan, &mut pool, &mut spawn).unwrap().outputs;
            let got_b = driver.run("test", &b, &plan, &mut pool, &mut spawn).unwrap().outputs;
            let want_a: Vec<Vec<u64>> = plan.iter().map(|s| a.run_local(s)).collect();
            let want_b: Vec<Vec<u64>> = plan.iter().map(|s| b.run_local(s)).collect();
            assert_eq!(got_a, want_a, "round {round}");
            assert_eq!(got_b, want_b, "round {round}");
        }
        // Two workers x two stages: each link hears each context exactly
        // once, however many alternating runs reuse the pool.
        assert_eq!(contexts.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn empty_plan_is_a_noop() {
        let driver = ShardDriver { workers: 4, mode: DriverMode::Overlapped, max_retries: 0 };
        let outputs = run_with_faults(&driver, 0, 4, FaultPlan::none()).unwrap();
        assert!(outputs.is_empty());
    }

    #[test]
    fn reordered_replies_are_buffered_back_into_shard_order() {
        for seed in [1u64, 7, 2024] {
            let driver = ShardDriver { workers: 2, mode: DriverMode::Overlapped, max_retries: 0 };
            let faults = FaultPlan { reorder_seed: Some(seed), ..FaultPlan::none() };
            let outputs = run_with_faults(&driver, 60, 12, faults).unwrap();
            assert_eq!(outputs, reference(60, 12), "seed {seed}");
        }
    }

    #[test]
    fn duplicated_replies_are_merged_idempotently() {
        let driver = ShardDriver { workers: 2, mode: DriverMode::Overlapped, max_retries: 0 };
        let faults = FaultPlan { duplicate_replies: vec![0, 3, 5], ..FaultPlan::none() };
        let outputs = run_with_faults(&driver, 30, 6, faults).unwrap();
        assert_eq!(outputs, reference(30, 6));
    }

    #[test]
    fn truncated_reply_aborts_with_a_typed_error() {
        let driver = ShardDriver { workers: 2, mode: DriverMode::Overlapped, max_retries: 3 };
        let faults = FaultPlan { truncate_replies: vec![2], ..FaultPlan::none() };
        match run_with_faults(&driver, 30, 6, faults) {
            Err(TransportError::Wire(crate::wire::WireError::Truncated { .. })) => {}
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn dead_worker_is_respawned_and_the_result_is_identical() {
        for mode in [DriverMode::Lockstep, DriverMode::Overlapped] {
            let driver = ShardDriver { workers: 2, mode, max_retries: 1 };
            let faults = FaultPlan { die_after_replies: Some(2), ..FaultPlan::none() };
            let outputs = run_with_faults(&driver, 40, 8, faults).unwrap();
            assert_eq!(outputs, reference(40, 8), "{mode:?}");
        }
    }

    /// The resident-state test stage: each run is one "round"; the handler
    /// deposits a snapshot when the job's flag byte asks for one.
    struct ResidentStage {
        round: u64,
        snapshot: bool,
    }

    fn resident_handler(
        _ctx: &[u8],
        job: &[u8],
        cache: &mut StageCache,
    ) -> Result<Vec<u8>, String> {
        let mut r = ByteReader::new(job);
        let round = r.u64("round").map_err(|e| e.to_string())?;
        if r.u64("snapshot flag").map_err(|e| e.to_string())? == 1 {
            let mut snap = Vec::new();
            put_u64(&mut snap, round);
            cache.deposit_checkpoint(snap);
        }
        let mut out = Vec::new();
        put_u64(&mut out, round);
        Ok(out)
    }

    impl WireStage for ResidentStage {
        type Output = u64;

        fn stage_id(&self) -> &'static str {
            "test/resident@1"
        }

        fn encode_context(&self, _out: &mut Vec<u8>) {}

        fn encode_job(&self, _shard: &Shard, out: &mut Vec<u8>) {
            put_u64(out, self.round);
            put_u64(out, u64::from(self.snapshot));
        }

        fn decode_reply(&self, _shard: &Shard, payload: &[u8]) -> Result<u64, TransportError> {
            Ok(ByteReader::new(payload).u64("round echo")?)
        }

        fn run_local(&self, _shard: &Shard) -> u64 {
            self.round
        }
    }

    #[test]
    fn recovery_log_stays_bounded_by_the_checkpoint_cadence() {
        // The replay tail is trimmed by checkpoints, so with a finite
        // cadence k the log may never hold more than k job frames per
        // shard — the memory bound a long-lived serving process relies on.
        let mut reg = StageRegistry::new();
        reg.register("test/resident@1", resident_handler);
        let reg = Arc::new(reg);
        let driver = ShardDriver { workers: 2, mode: DriverMode::Overlapped, max_retries: 0 };
        let shards = 4usize;
        let plan = balanced_plan(8, shards);
        for cadence in [1usize, 4] {
            let mut pool = LinkPool::new();
            let mut recovery = RecoveryLog::new();
            let mut spawn = |w: usize| -> Result<Box<dyn WorkerLink>, TransportError> {
                Ok(Box::new(LoopbackLink::new(reg.clone(), w)) as Box<dyn WorkerLink>)
            };
            for round in 0..32u64 {
                let snapshot = (round as usize) % cadence == cadence - 1;
                let stage = ResidentStage { round, snapshot };
                let run = driver
                    .run_recoverable("test", &stage, &plan, &mut pool, &mut spawn, &mut recovery)
                    .unwrap();
                assert_eq!(run.outputs, vec![round; shards]);
                assert!(
                    recovery.buffered_jobs() <= shards * cadence,
                    "cadence {cadence}, round {round}: {} buffered jobs exceed the bound {}",
                    recovery.buffered_jobs(),
                    shards * cadence,
                );
            }
            assert_eq!(recovery.checkpointed_shards(), shards);
        }
        // Without checkpoints nothing ever trims: the tail reaches back to
        // round 0 and grows linearly — the documented cost of
        // `CheckpointPolicy::never()`.
        let mut pool = LinkPool::new();
        let mut recovery = RecoveryLog::new();
        let mut spawn = |w: usize| -> Result<Box<dyn WorkerLink>, TransportError> {
            Ok(Box::new(LoopbackLink::new(reg.clone(), w)) as Box<dyn WorkerLink>)
        };
        let rounds = 10u64;
        for round in 0..rounds {
            let stage = ResidentStage { round, snapshot: false };
            driver
                .run_recoverable("test", &stage, &plan, &mut pool, &mut spawn, &mut recovery)
                .unwrap();
        }
        assert_eq!(recovery.buffered_jobs(), shards * rounds as usize);
        assert_eq!(recovery.checkpointed_shards(), 0);
    }

    #[test]
    fn exhausted_retries_surface_as_a_typed_error() {
        let driver = ShardDriver { workers: 1, mode: DriverMode::Overlapped, max_retries: 0 };
        let faults = FaultPlan { die_after_replies: Some(1), ..FaultPlan::none() };
        match run_with_faults(&driver, 20, 4, faults) {
            Err(TransportError::RetriesExhausted { worker: 0, .. }) => {}
            other => panic!("expected exhausted retries, got {other:?}"),
        }
    }
}
