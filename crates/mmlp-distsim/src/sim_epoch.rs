//! Simulator rounds as wire stages: the `mmlp/sim-epoch@1` seam.
//!
//! One synchronous round of a [`WireProgram`] is submitted as a
//! [`WireStage`] over fixed node-range shards, so it runs on every
//! [`SolveBackend`](mmlp_parallel::SolveBackend) — including the transport
//! backends, where rounds genuinely cross the byte and process boundary.
//! Each worker keeps its node-range's states **resident between rounds**:
//! a round's job carries only the round number and the shard's non-empty
//! inter-shard message batches, and the reply carries only each node's
//! outbox action — state never travels in the steady path.
//!
//! * **Context** (cached across rounds *and* runs): the program identifier,
//!   its configuration and the network topology.  The bytes depend only on
//!   the workload, so the driver's link pool sends them once per worker
//!   process and skips the re-send on every later round and run.
//! * **Job** (one per node-range shard, per round): the round number, a
//!   flags byte (bit 0 requests a checkpoint), a process-wide **run
//!   token**, the shard's node range and the `(sender, message)` batches
//!   for the shard's nodes with non-empty **inter-shard** inboxes.  The
//!   token stamps each run: a pooled worker that still holds a previous
//!   run's resident states sees a round-0 job with a fresh token and
//!   re-initialises instead of serving stale rounds.  Messages between
//!   nodes of the same shard
//!   never reach the host: the worker retains its own outbox and delivers
//!   them locally at the next round (the host never even materialises
//!   them — its inbox buffers only ever hold boundary-crossing messages).
//! * **Reply**: for every node that was still running at the start of the
//!   round, in ascending node order, the node id and its action — with the
//!   message **payloads elided** unless they cross a shard boundary.  Every
//!   entry still carries the message's size units and (for `Send`) its
//!   target list, so the host reproduces the sequential simulator's message
//!   and unit accounting exactly; new state stays on the worker.
//!
//! Losing a worker loses state, so correctness under worker death comes
//! from **checkpoint/restore**: every `k` rounds (a [`CheckpointPolicy`])
//! the job's flags request a snapshot, which the worker streams back as a
//! `Checkpoint` frame immediately before the round's reply.  The driver's
//! [`RecoveryLog`](mmlp_parallel::RecoveryLog) retains the newest snapshot
//! per shard plus every job frame sent since; on worker death it respawns
//! the worker, sends a `Restore` frame with the snapshot and replays the
//! buffered jobs, which rebuilds the resident state bit-for-bit.  Before
//! the first checkpoint the buffered jobs reach back to round 0, whose job
//! initialises the shard from the program's `init` — so every phase of a
//! run is recoverable.
//!
//! The conformance suites assert this tier is bit-identical to the
//! sequential closure-tier simulator, including under scripted worker
//! deaths at every checkpoint phase.
//!
//! The retired `mmlp/sim-round@1` stage (state shipped with every job) is
//! served by no registry; its id is never reused.

use crate::network::{put_network, read_network, Network};
use crate::program::{Action, MessageSize, NodeProgram, WireProgram};
use mmlp_parallel::wire::{put_str, put_u64, put_u8, put_usize, ByteReader, WireError};
use mmlp_parallel::{Shard, StageCache, StageRegistry, TransportError, WireStage};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Stage identifier of a worker-resident simulator round (`@1` is the
/// payload version — see the versioning rule in [`mmlp_parallel::wire`]).
pub const STAGE_SIM_EPOCH: &str = "mmlp/sim-epoch@1";

/// Job flags bit 0: the worker must stream a state snapshot (a `Checkpoint`
/// frame) immediately before this round's reply.
const FLAG_CHECKPOINT: u8 = 1;

/// Action tags of a reply entry.
const TAG_BROADCAST: u8 = 0;
const TAG_SEND: u8 = 1;
const TAG_IDLE: u8 = 2;
const TAG_HALT: u8 = 3;

/// How often the epoch tier asks workers to stream state snapshots back to
/// the host, measured in rounds.
///
/// Snapshots bound the recovery replay: after a worker death the driver
/// restores the newest snapshot and replays only the rounds since it, so a
/// smaller interval means cheaper recovery but more steady-state snapshot
/// traffic.  `every_rounds == 0` disables checkpointing entirely — recovery
/// then replays from round 0, which is always correct because round 0's job
/// initialises the shard.
///
/// ```
/// use mmlp_distsim::CheckpointPolicy;
///
/// let policy = CheckpointPolicy::every(4);
/// // Snapshots land on the last round of each interval: 3, 7, 11, …
/// assert!(!policy.requests_snapshot(0));
/// assert!(policy.requests_snapshot(3));
/// assert!(policy.requests_snapshot(7));
/// assert!(!CheckpointPolicy::never().requests_snapshot(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Request a snapshot every this many rounds (`0` = never).
    pub every_rounds: usize,
}

impl Default for CheckpointPolicy {
    /// Checkpoint every 16 rounds.
    fn default() -> Self {
        Self { every_rounds: 16 }
    }
}

impl CheckpointPolicy {
    /// Never snapshot: recovery replays the whole run from round 0.
    ///
    /// **Memory caveat.**  Without snapshots nothing ever trims the
    /// host-side [`RecoveryLog`](mmlp_parallel::RecoveryLog): it buffers
    /// every round's job frames since round 0, so host memory grows
    /// linearly with the run length.  A finite cadence bounds the log at
    /// `every_rounds` job frames per shard — long or open-ended runs
    /// should checkpoint (the default is every 16 rounds).
    pub fn never() -> Self {
        Self { every_rounds: 0 }
    }

    /// Snapshot every `rounds` rounds (`0` = never).
    pub fn every(rounds: usize) -> Self {
        Self { every_rounds: rounds }
    }

    /// Whether the job for `round` requests a snapshot (the last round of
    /// each interval, so the first snapshot already covers a full interval).
    pub fn requests_snapshot(&self, round: usize) -> bool {
        self.every_rounds > 0 && round % self.every_rounds == self.every_rounds - 1
    }
}

/// A fresh process-wide run token, stamped into each epoch run's job
/// frames so pooled workers can tell runs apart (see the module docs).
pub(crate) fn next_run_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One shard's resident state between rounds: the next round it expects,
/// the surviving nodes' states, the intra-shard messages the shard sent to
/// itself last round (`pending`, delivered locally at the next step instead
/// of round-tripping through the host) and the last reply it produced
/// (served again verbatim if a recovery replay re-delivers the round it
/// just answered).
#[derive(Debug, Clone)]
pub(crate) struct EpochResident<S, M> {
    token: u64,
    next_round: usize,
    states: BTreeMap<usize, S>,
    pending: BTreeMap<usize, Vec<(usize, M)>>,
    last: Option<(usize, Vec<u8>)>,
}

/// One node's action as it travels back to the host: the [`Action`] shape
/// with every message payload replaced by its size units plus the payload
/// itself **only when it crosses the shard boundary** (the host needs it to
/// build the recipient shard's next job; intra-shard copies are delivered
/// by the worker from its [`EpochResident::pending`] outbox).
#[derive(Debug)]
pub(crate) enum EpochAction<M, O> {
    /// The node broadcast to all neighbours; the payload is present iff any
    /// neighbour lies outside the shard.
    Broadcast {
        /// Size units of one delivered copy.
        units: u64,
        /// The payload, present iff some neighbour is outside the shard.
        message: Option<M>,
    },
    /// The node sent targeted messages; payloads only for out-of-shard
    /// targets.
    Send {
        /// Per target: its node id, one copy's size units and the payload
        /// iff the target is outside the shard.
        list: Vec<(usize, u64, Option<M>)>,
    },
    /// The node stayed silent.
    Idle,
    /// The node halted with this output.
    Halt(O),
}

/// One reply entry: a node id and its action in the payload-elided form.
pub(crate) type EpochStep<P> =
    (usize, EpochAction<<P as NodeProgram>::Message, <P as NodeProgram>::Output>);

/// A host-side resident mirror slot (one per shard index): the in-process
/// backends run the identical resident-state protocol against these.
pub(crate) type ResidentSlot<P> =
    Mutex<Option<EpochResident<<P as NodeProgram>::State, <P as NodeProgram>::Message>>>;

fn init_resident<P: WireProgram>(
    program: &P,
    network: &Network,
    token: u64,
    start: usize,
    end: usize,
) -> EpochResident<P::State, P::Message>
where
    P::State: Clone + Sync,
{
    EpochResident {
        token,
        next_round: 0,
        states: (start..end).map(|v| (v, program.init(v, network))).collect(),
        pending: BTreeMap::new(),
        last: None,
    }
}

/// Steps every resident node of one shard `[start, end)` through `round`
/// and returns the reply entries in ascending node order.
///
/// Inboxes merge the shard's retained intra-shard deliveries with the
/// job's inter-shard batches, stably sorted by sender — the order the
/// closure tier delivers in, because a sender is either inside or outside
/// the shard (never both) and each source preserves per-sender emission
/// order.  Nodes that halt leave the shard before anything is delivered,
/// mirroring the closure tier's rule that a node halting in round `r`
/// receives no round-`r` messages.  Every intra-shard copy to a node still
/// resident is then retained in `resident.pending` for the next round, and
/// a payload stays in the reply only where a copy crosses the boundary.
fn advance_resident<P: WireProgram>(
    program: &P,
    network: &Network,
    resident: &mut EpochResident<P::State, P::Message>,
    round: usize,
    (start, end): (usize, usize),
    external: impl IntoIterator<Item = (usize, Vec<(usize, P::Message)>)>,
) -> Vec<EpochStep<P>>
where
    P::State: Clone + Sync,
{
    let mut inboxes = std::mem::take(&mut resident.pending);
    for (node, batch) in external {
        inboxes.entry(node).or_default().extend(batch);
    }
    for inbox in inboxes.values_mut() {
        inbox.sort_by_key(|(from, _)| *from);
    }
    let mut steps = Vec::with_capacity(resident.states.len());
    for (&node, state) in resident.states.iter_mut() {
        let inbox = inboxes.get(&node).map_or(&[][..], Vec::as_slice);
        steps.push((node, program.step(node, state, inbox, round, network)));
    }
    for (node, action) in &steps {
        if matches!(action, Action::Halt(_)) {
            resident.states.remove(node);
        }
    }
    resident.next_round = round + 1;

    let in_shard = |v: usize| v >= start && v < end;
    let mut pending: BTreeMap<usize, Vec<(usize, P::Message)>> = BTreeMap::new();
    let mut out = Vec::with_capacity(steps.len());
    for (node, action) in steps {
        let action = match action {
            Action::Broadcast(message) => {
                let units = message.size_units();
                for &to in network.neighbors(node) {
                    if resident.states.contains_key(&to) {
                        pending.entry(to).or_default().push((node, message.clone()));
                    }
                }
                let crosses = network.neighbors(node).iter().any(|&to| !in_shard(to));
                EpochAction::Broadcast { units, message: crosses.then_some(message) }
            }
            Action::Send(list) => EpochAction::Send {
                list: list
                    .into_iter()
                    .map(|(to, message)| {
                        let units = message.size_units();
                        if in_shard(to) {
                            if resident.states.contains_key(&to) {
                                pending.entry(to).or_default().push((node, message));
                            }
                            (to, units, None)
                        } else {
                            (to, units, Some(message))
                        }
                    })
                    .collect(),
            },
            Action::Idle => EpochAction::Idle,
            Action::Halt(output) => EpochAction::Halt(output),
        };
        out.push((node, action));
    }
    resident.pending = pending;
    out
}

/// One worker-resident simulator round as a [`WireStage`] over node-range
/// shards of the **whole** network.
///
/// The stage plans over all `n` nodes every round, halted ones included:
/// shard boundaries must stay fixed so each worker's resident states keep
/// describing the same node range, and so the driver's recovery log
/// accumulates per-shard history that stays valid across rounds.
pub(crate) struct SimEpochStage<'a, P: WireProgram>
where
    P::State: Clone + Sync,
{
    pub(crate) program: &'a P,
    pub(crate) network: &'a Network,
    pub(crate) round: usize,
    /// Whether this round's jobs request a checkpoint snapshot.
    pub(crate) snapshot: bool,
    /// The run token baked into the context bytes.
    pub(crate) token: u64,
    /// `running[v]` iff node `v` had not halted before this round.
    pub(crate) running: &'a [bool],
    /// Per-node **inter-shard** inbox for this round, indexed by node id
    /// (intra-shard messages never reach the host).
    pub(crate) inboxes: &'a [Vec<(usize, P::Message)>],
    /// Host-side resident mirrors (one slot per shard index) so the
    /// in-process backends execute the identical resident-state protocol.
    pub(crate) resident: &'a [ResidentSlot<P>],
}

impl<P: WireProgram> WireStage for SimEpochStage<'_, P>
where
    P::State: Clone + Sync,
{
    /// `(shard start, shard end, stepped actions)` — the range rides along
    /// because the host applies the same boundary rule when delivering: a
    /// payload-elided copy is one the worker already delivered locally.
    type Output = (usize, usize, Vec<EpochStep<P>>);

    fn stage_id(&self) -> &'static str {
        STAGE_SIM_EPOCH
    }

    fn encode_context(&self, out: &mut Vec<u8>) {
        put_str(out, self.program.program_id());
        self.program.encode_config(out);
        put_network(out, self.network);
    }

    fn encode_job(&self, shard: &Shard, out: &mut Vec<u8>) {
        put_usize(out, self.round);
        put_u8(out, if self.snapshot { FLAG_CHECKPOINT } else { 0 });
        put_u64(out, self.token);
        put_usize(out, shard.start);
        put_usize(out, shard.end);
        let loaded: Vec<usize> = shard
            .range()
            .filter(|&v| self.running[v] && !self.inboxes[v].is_empty())
            .collect();
        put_usize(out, loaded.len());
        for node in loaded {
            put_usize(out, node);
            let inbox = &self.inboxes[node];
            put_usize(out, inbox.len());
            for (sender, message) in inbox {
                put_usize(out, *sender);
                self.program.encode_message(message, out);
            }
        }
    }

    fn decode_reply(&self, shard: &Shard, payload: &[u8]) -> Result<Self::Output, TransportError> {
        const CTX: &str = "sim-epoch reply";
        let mut r = ByteReader::new(payload);
        // Every entry occupies at least its 8-byte node id and 1-byte tag.
        let count = r.seq_len(9, CTX)?;
        let expected = shard.range().filter(|&v| self.running[v]).count();
        if count != expected {
            return Err(WireError::Decode { context: CTX }.into());
        }
        let in_shard = |v: usize| v >= shard.start && v < shard.end;
        let mut steps = Vec::with_capacity(count);
        let mut previous: Option<usize> = None;
        for _ in 0..count {
            let node = r.usize(CTX)?;
            let in_order = previous.map_or(true, |p| p < node);
            if !in_shard(node) || !self.running[node] || !in_order {
                return Err(WireError::Decode { context: CTX }.into());
            }
            previous = Some(node);
            let action = read_epoch_action(self.program, &mut r)?;
            // The payload-elision rule is deterministic topology, so its
            // violation is a malformed reply: a broadcast payload must be
            // present iff some neighbour is outside the shard, a send
            // payload iff its target is.
            match &action {
                EpochAction::Broadcast { message, .. } => {
                    let crosses = self.network.neighbors(node).iter().any(|&to| !in_shard(to));
                    if crosses != message.is_some() {
                        return Err(WireError::Decode { context: CTX }.into());
                    }
                }
                EpochAction::Send { list } => {
                    // A target must be a neighbour of the sender (which
                    // also bounds it by `n`): the host delivers by index.
                    let neighbors = self.network.neighbors(node);
                    for (to, _, message) in list {
                        if !neighbors.contains(to) || in_shard(*to) == message.is_some() {
                            return Err(WireError::Decode { context: CTX }.into());
                        }
                    }
                }
                EpochAction::Idle | EpochAction::Halt(_) => {}
            }
            steps.push((node, action));
        }
        Ok((shard.start, shard.end, steps))
    }

    fn run_local(&self, shard: &Shard) -> Self::Output {
        let mut guard = self.resident[shard.index].lock();
        if guard.is_none() {
            assert_eq!(self.round, 0, "epoch shard mirrors initialise in round 0");
            *guard =
                Some(init_resident(self.program, self.network, self.token, shard.start, shard.end));
        }
        let resident = guard.as_mut().expect("mirror was just initialised");
        debug_assert_eq!(resident.next_round, self.round, "epoch rounds are sequential");
        debug_assert_eq!(resident.token, self.token, "mirrors live for exactly one run");
        let external = shard
            .range()
            .filter(|&v| self.running[v] && !self.inboxes[v].is_empty())
            .map(|v| (v, self.inboxes[v].clone()));
        let range = (shard.start, shard.end);
        let steps =
            advance_resident(self.program, self.network, resident, self.round, range, external);
        (shard.start, shard.end, steps)
    }
}

// ---------------------------------------------------------------------------
// Action codec (reply entries) and snapshot codec (checkpoint payloads).
// ---------------------------------------------------------------------------

/// Encodes an elided message slot: a presence byte, then the payload.
fn put_elided<P: WireProgram>(program: &P, message: &Option<P::Message>, out: &mut Vec<u8>)
where
    P::State: Clone + Sync,
{
    match message {
        Some(message) => {
            put_u8(out, 1);
            program.encode_message(message, out);
        }
        None => put_u8(out, 0),
    }
}

fn read_elided<P: WireProgram>(
    program: &P,
    r: &mut ByteReader<'_>,
) -> Result<Option<P::Message>, WireError>
where
    P::State: Clone + Sync,
{
    match r.u8("sim-epoch elided message")? {
        0 => Ok(None),
        1 => Ok(Some(program.decode_message(r)?)),
        _ => Err(WireError::Decode { context: "sim-epoch elided message" }),
    }
}

fn encode_actions<P: WireProgram>(program: &P, steps: &[EpochStep<P>], out: &mut Vec<u8>)
where
    P::State: Clone + Sync,
{
    put_usize(out, steps.len());
    for (node, action) in steps {
        put_usize(out, *node);
        match action {
            EpochAction::Broadcast { units, message } => {
                put_u8(out, TAG_BROADCAST);
                put_u64(out, *units);
                put_elided(program, message, out);
            }
            EpochAction::Send { list } => {
                put_u8(out, TAG_SEND);
                put_usize(out, list.len());
                for (to, units, message) in list {
                    put_usize(out, *to);
                    put_u64(out, *units);
                    put_elided(program, message, out);
                }
            }
            EpochAction::Idle => put_u8(out, TAG_IDLE),
            EpochAction::Halt(output) => {
                put_u8(out, TAG_HALT);
                program.encode_output(output, out);
            }
        }
    }
}

fn read_epoch_action<P: WireProgram>(
    program: &P,
    r: &mut ByteReader<'_>,
) -> Result<EpochAction<P::Message, P::Output>, WireError>
where
    P::State: Clone + Sync,
{
    const CTX: &str = "sim-epoch action";
    Ok(match r.u8(CTX)? {
        TAG_BROADCAST => {
            let units = r.u64(CTX)?;
            EpochAction::Broadcast { units, message: read_elided(program, r)? }
        }
        TAG_SEND => {
            // Every list entry occupies at least its 8-byte target id,
            // 8-byte unit count and presence byte.
            let len = r.seq_len(17, CTX)?;
            let list = (0..len)
                .map(|_| Ok((r.usize(CTX)?, r.u64(CTX)?, read_elided(program, r)?)))
                .collect::<Result<Vec<_>, WireError>>()?;
            EpochAction::Send { list }
        }
        TAG_IDLE => EpochAction::Idle,
        TAG_HALT => EpochAction::Halt(program.decode_output(r)?),
        _ => return Err(WireError::Decode { context: CTX }),
    })
}

fn encode_snapshot<P: WireProgram>(
    program: &P,
    round: usize,
    start: usize,
    end: usize,
    resident: &EpochResident<P::State, P::Message>,
) -> Vec<u8>
where
    P::State: Clone + Sync,
{
    let mut out = Vec::new();
    put_usize(&mut out, round);
    put_u64(&mut out, resident.token);
    put_usize(&mut out, start);
    put_usize(&mut out, end);
    put_usize(&mut out, resident.states.len());
    for (&node, state) in &resident.states {
        put_usize(&mut out, node);
        program.encode_state(state, &mut out);
    }
    // The retained intra-shard deliveries are part of the shard's round
    // state: a restore without them could not serve the next round.
    put_usize(&mut out, resident.pending.len());
    for (&node, inbox) in &resident.pending {
        put_usize(&mut out, node);
        put_usize(&mut out, inbox.len());
        for (from, message) in inbox {
            put_usize(&mut out, *from);
            program.encode_message(message, &mut out);
        }
    }
    out
}

#[allow(clippy::type_complexity)]
fn read_snapshot<P: WireProgram>(
    program: &P,
    bytes: &[u8],
) -> Result<(usize, usize, usize, EpochResident<P::State, P::Message>), WireError>
where
    P::State: Clone + Sync,
{
    const CTX: &str = "sim-epoch snapshot";
    let mut r = ByteReader::new(bytes);
    let round = r.usize(CTX)?;
    let token = r.u64(CTX)?;
    let start = r.usize(CTX)?;
    let end = r.usize(CTX)?;
    // Every entry occupies at least its 8-byte node id.
    let count = r.seq_len(8, CTX)?;
    let mut states = BTreeMap::new();
    for _ in 0..count {
        let node = r.usize(CTX)?;
        if node < start || node >= end {
            return Err(WireError::Decode { context: CTX });
        }
        states.insert(node, program.decode_state(&mut r)?);
    }
    // Every pending entry occupies at least its node id and inbox length.
    let batches = r.seq_len(16, CTX)?;
    let mut pending = BTreeMap::new();
    for _ in 0..batches {
        let node = r.usize(CTX)?;
        if node < start || node >= end {
            return Err(WireError::Decode { context: CTX });
        }
        let len = r.seq_len(8, CTX)?;
        let inbox = (0..len)
            .map(|_| Ok((r.usize(CTX)?, program.decode_message(&mut r)?)))
            .collect::<Result<Vec<_>, WireError>>()?;
        pending.insert(node, inbox);
    }
    Ok((
        round,
        start,
        end,
        EpochResident { token, next_round: round + 1, states, pending, last: None },
    ))
}

// ---------------------------------------------------------------------------
// The worker side.
// ---------------------------------------------------------------------------

/// The worker-side resident state of an epoch run: the decoded program and
/// network (cached once per context, like every stage), the resident shard
/// states, keyed by shard start, and the token of the run the program last
/// served (a job with another token starts a run: [`NodeProgram::begin_run`]).
struct SimEpochWorker<P: WireProgram>
where
    P::State: Clone + Sync,
{
    program: P,
    network: Network,
    shards: HashMap<usize, EpochResident<P::State, P::Message>>,
    run_token: Option<u64>,
}

/// The worker-side body of one sim-epoch job for a concrete program type.
///
/// On each call it first installs any queued `Restore` snapshots (see
/// [`StageCache::take_restores`]), then steps the shard's resident states
/// through the job's round.  A round-0 job initialises an absent shard from
/// the program's `init`; any other round reaching a worker without resident
/// state for its shard is a protocol violation reported as a typed worker
/// error.  When the job's flags request a checkpoint, the post-round
/// snapshot is deposited for the worker loop to ship as a `Checkpoint`
/// frame before the reply.
///
/// Registries register a plain dispatcher `fn` for [`STAGE_SIM_EPOCH`] that
/// peeks the program id ([`peek_program_id`]) and calls this generic body
/// with the matching program type — the worker refuses program ids it does
/// not know, exactly like unknown stage ids.
///
/// # Errors
///
/// A rendered [`WireError`] for malformed payloads, or a protocol-violation
/// message for out-of-sequence rounds (the worker loop ships either back as
/// a `WorkerError` frame).
pub fn handle_sim_epoch<P>(
    ctx: &[u8],
    job: &[u8],
    cache: &mut StageCache,
) -> Result<Vec<u8>, String>
where
    P: WireProgram + Send + 'static,
    P::State: Clone + Sync,
{
    const CTX: &str = "sim-epoch job";
    let wire_err = |e: WireError| e.to_string();
    // Take queued restore snapshots before borrowing the resident state.
    let restores = cache.take_restores();
    let (reply, snapshot) = {
        let worker: &mut SimEpochWorker<P> = cache.get_or_try_insert_with(|| {
            let mut r = ByteReader::new(ctx);
            let id = r.str("sim-epoch program id").map_err(wire_err)?;
            let program = P::decode_config(&mut r).map_err(wire_err)?;
            if id != program.program_id() {
                return Err(format!(
                    "sim-epoch context names program `{id}` but decoded `{}`",
                    program.program_id()
                ));
            }
            let network = read_network(&mut r).map_err(wire_err)?;
            Ok(SimEpochWorker { program, network, shards: HashMap::new(), run_token: None })
        })?;
        let SimEpochWorker { program, network, shards, run_token } = worker;
        for blob in restores {
            let (_round, start, _end, resident) =
                read_snapshot(program, &blob).map_err(wire_err)?;
            shards.insert(start, resident);
        }

        let mut r = ByteReader::new(job);
        let round = r.usize(CTX).map_err(wire_err)?;
        let flags = r.u8(CTX).map_err(wire_err)?;
        let token = r.u64(CTX).map_err(wire_err)?;
        let start = r.usize(CTX).map_err(wire_err)?;
        let end = r.usize(CTX).map_err(wire_err)?;
        if start > end || end > network.num_nodes() {
            return Err(format!("sim-epoch job names an invalid node range {start}..{end}"));
        }
        // Every batch occupies at least its node id and inbox length (8 + 8).
        let batches = r.seq_len(16, CTX).map_err(wire_err)?;
        let mut external = Vec::with_capacity(batches);
        for _ in 0..batches {
            let node = r.usize(CTX).map_err(wire_err)?;
            if node < start || node >= end {
                return Err(format!("sim-epoch batch for node {node} outside {start}..{end}"));
            }
            let len = r.seq_len(8, CTX).map_err(wire_err)?;
            let inbox = (0..len)
                .map(|_| Ok((r.usize(CTX)?, program.decode_message(&mut r)?)))
                .collect::<Result<Vec<_>, WireError>>()
                .map_err(wire_err)?;
            external.push((node, inbox));
        }
        let want_snapshot = flags & FLAG_CHECKPOINT != 0;

        let resident = match shards.entry(start) {
            std::collections::hash_map::Entry::Occupied(entry) if entry.get().token == token => {
                entry.into_mut()
            }
            // A round-0 job with an unseen token opens a new run: replace
            // (or create) this shard's resident state.  A pooled worker may
            // still hold the previous run's states here.
            std::collections::hash_map::Entry::Occupied(entry) if round == 0 => {
                let slot = entry.into_mut();
                *slot = init_resident(program, network, token, start, end);
                slot
            }
            std::collections::hash_map::Entry::Vacant(slot) if round == 0 => {
                slot.insert(init_resident(program, network, token, start, end))
            }
            std::collections::hash_map::Entry::Occupied(_) => {
                return Err(format!(
                    "sim-epoch job for round {round} carries run token {token} but the \
                     resident state for nodes {start}..{end} belongs to another run"
                ));
            }
            std::collections::hash_map::Entry::Vacant(_) => {
                return Err(format!(
                    "sim-epoch job for round {round} reached a worker with no resident \
                     state for nodes {start}..{end} (restore required)"
                ));
            }
        };

        // The decoded program outlives runs in the stage cache, so its
        // per-run scratch is reset whenever a job belongs to another run
        // than the last one this worker served.
        if *run_token != Some(token) {
            program.begin_run();
            *run_token = Some(token);
        }

        if round + 1 == resident.next_round {
            // A recovery replay re-delivered the round we just answered:
            // serve the cached reply verbatim instead of double-stepping
            // (the retained `pending` deliveries stay untouched, still
            // queued for the round that genuinely comes next).
            match &resident.last {
                Some((last_round, bytes)) if *last_round == round => {
                    let reply = bytes.clone();
                    let snapshot = want_snapshot
                        .then(|| encode_snapshot(program, round, start, end, resident));
                    (reply, snapshot)
                }
                _ => {
                    return Err(format!(
                        "sim-epoch duplicate job for round {round} but no cached reply"
                    ));
                }
            }
        } else if round != resident.next_round {
            return Err(format!(
                "sim-epoch job for round {round} but resident state expects round {}",
                resident.next_round
            ));
        } else {
            let steps = advance_resident(program, network, resident, round, (start, end), external);
            let mut reply = Vec::new();
            encode_actions(program, &steps, &mut reply);
            resident.last = Some((round, reply.clone()));
            let snapshot =
                want_snapshot.then(|| encode_snapshot(program, round, start, end, resident));
            (reply, snapshot)
        }
    };
    if let Some(snapshot) = snapshot {
        cache.deposit_checkpoint(snapshot);
    }
    Ok(reply)
}

/// Reads the program identifier a sim-epoch context frame opens with, so a
/// registry's dispatcher can route to the right [`handle_sim_epoch`]
/// instantiation.
///
/// # Errors
///
/// A typed [`WireError`] when the context is malformed.
pub fn peek_program_id(ctx: &[u8]) -> Result<&str, WireError> {
    ByteReader::new(ctx).str("sim-epoch program id")
}

/// The distributed simulator's own stage registry: serves
/// [`STAGE_SIM_EPOCH`] for the programs this crate defines (currently the
/// gathering protocol).
///
/// Crates that define further wire programs compose their own dispatcher on
/// top of [`peek_program_id`] + [`handle_sim_epoch`] — the engine's
/// `engine_registry` in `mmlp-algorithms` serves both its pipeline stages
/// and every simulator program it knows.
pub fn distsim_registry() -> Arc<StageRegistry> {
    static REGISTRY: OnceLock<Arc<StageRegistry>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| {
            let mut registry = StageRegistry::new();
            registry.register(STAGE_SIM_EPOCH, handle_distsim_epoch);
            Arc::new(registry)
        })
        .clone()
}

fn handle_distsim_epoch(ctx: &[u8], job: &[u8], cache: &mut StageCache) -> Result<Vec<u8>, String> {
    match peek_program_id(ctx).map_err(|e| e.to_string())? {
        crate::gather::GATHER_PROGRAM_ID => {
            handle_sim_epoch::<crate::gather::GatherProgram>(ctx, job, cache)
        }
        other => Err(format!("unknown simulator program `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::NodeProgram;
    use crate::simulator::{SimError, Simulator, SimulatorConfig};
    use crate::test_topology::path_network;
    use mmlp_parallel::{
        DriverMode, FaultPlan, LoopbackBackend, ParallelConfig, Sequential, Sharded,
    };

    const MODES: [DriverMode; 2] = [DriverMode::Lockstep, DriverMode::Overlapped];

    /// Exercises every [`Action`] variant over a configurable horizon: in
    /// round 0 even nodes `Send` their value to their smallest neighbour and
    /// odd nodes stay `Idle`; afterwards everyone `Broadcast`s its
    /// accumulated sum until it `Halt`s at a per-node staggered round (so
    /// the running set shrinks unevenly).  State accumulates received
    /// values.
    #[derive(Debug, Clone, PartialEq)]
    struct PulseProgram {
        rounds: usize,
    }

    impl NodeProgram for PulseProgram {
        type State = u64;
        type Message = u64;
        type Output = u64;

        fn init(&self, node: usize, _network: &Network) -> u64 {
            node as u64 + 1
        }

        fn step(
            &self,
            node: usize,
            state: &mut u64,
            inbox: &[(usize, u64)],
            round: usize,
            network: &Network,
        ) -> Action<u64, u64> {
            for (_, m) in inbox {
                *state += m;
            }
            match round {
                0 if node % 2 == 0 && !network.neighbors(node).is_empty() => {
                    Action::Send(vec![(network.neighbors(node)[0], *state)])
                }
                0 => Action::Idle,
                r if r >= self.rounds + node % 3 => Action::Halt(*state),
                _ => Action::Broadcast(*state),
            }
        }
    }

    /// Every [`Action`] variant in three lockstep rounds: in round 0 even
    /// nodes `Send` their id (plus a configurable boost) to their smallest
    /// neighbour and odd nodes stay `Idle`; in round 1 everyone
    /// `Broadcast`s its accumulated sum; in round 2 everyone `Halt`s with
    /// it.
    #[derive(Debug, Clone, PartialEq)]
    struct RelayProgram {
        boost: usize,
    }

    impl NodeProgram for RelayProgram {
        type State = u64;
        type Message = u64;
        type Output = u64;

        fn init(&self, node: usize, _network: &Network) -> u64 {
            (node + self.boost) as u64
        }

        fn step(
            &self,
            node: usize,
            state: &mut u64,
            inbox: &[(usize, u64)],
            round: usize,
            network: &Network,
        ) -> Action<u64, u64> {
            for (_, m) in inbox {
                *state += m;
            }
            match round {
                0 if node % 2 == 0 && !network.neighbors(node).is_empty() => {
                    Action::Send(vec![(network.neighbors(node)[0], *state)])
                }
                0 => Action::Idle,
                1 => Action::Broadcast(*state),
                _ => Action::Halt(*state),
            }
        }
    }

    const PULSE_PROGRAM_ID: &str = "test/prog/pulse@1";
    const RELAY_PROGRAM_ID: &str = "test/prog/relay@1";

    /// Both test programs carry one `usize` of configuration and use `u64`
    /// for state, messages and outputs.
    macro_rules! u64_wire_program {
        ($program:ident, $field:ident, $id:expr) => {
            impl WireProgram for $program {
                fn program_id(&self) -> &'static str {
                    $id
                }
                fn encode_config(&self, out: &mut Vec<u8>) {
                    put_usize(out, self.$field);
                }
                fn decode_config(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
                    Ok(Self { $field: r.usize("test config")? })
                }
                fn encode_state(&self, state: &u64, out: &mut Vec<u8>) {
                    put_u64(out, *state);
                }
                fn decode_state(&self, r: &mut ByteReader<'_>) -> Result<u64, WireError> {
                    r.u64("test state")
                }
                fn encode_message(&self, message: &u64, out: &mut Vec<u8>) {
                    put_u64(out, *message);
                }
                fn decode_message(&self, r: &mut ByteReader<'_>) -> Result<u64, WireError> {
                    r.u64("test message")
                }
                fn encode_output(&self, output: &u64, out: &mut Vec<u8>) {
                    put_u64(out, *output);
                }
                fn decode_output(&self, r: &mut ByteReader<'_>) -> Result<u64, WireError> {
                    r.u64("test output")
                }
            }
        };
    }

    u64_wire_program!(PulseProgram, rounds, PULSE_PROGRAM_ID);
    u64_wire_program!(RelayProgram, boost, RELAY_PROGRAM_ID);

    /// Serves both test programs.
    fn test_registry() -> Arc<StageRegistry> {
        fn dispatch(ctx: &[u8], job: &[u8], cache: &mut StageCache) -> Result<Vec<u8>, String> {
            match peek_program_id(ctx).map_err(|e| e.to_string())? {
                PULSE_PROGRAM_ID => handle_sim_epoch::<PulseProgram>(ctx, job, cache),
                RELAY_PROGRAM_ID => handle_sim_epoch::<RelayProgram>(ctx, job, cache),
                other => Err(format!("unknown simulator program `{other}`")),
            }
        }
        let mut registry = StageRegistry::new();
        registry.register(STAGE_SIM_EPOCH, dispatch);
        Arc::new(registry)
    }

    fn sim(checkpoint_every: usize) -> Simulator {
        Simulator::with_config(SimulatorConfig {
            parallel: ParallelConfig::sequential(),
            checkpoint: CheckpointPolicy::every(checkpoint_every),
            ..SimulatorConfig::default()
        })
    }

    /// Runs `program` on the sequential backend, the sharded backend at
    /// several shard counts and loopback workers in both driver modes,
    /// asserting every run equals the closure-tier reference.
    fn assert_wire_matches_closure<P>(net: &Network, program: &P, simulator: &Simulator)
    where
        P: WireProgram,
        P::State: Clone + Sync,
        P::Output: PartialEq + std::fmt::Debug,
    {
        let reference = Simulator::sequential().run(net, program).unwrap();
        let id = program.program_id();
        let via_sequential = simulator.run_wire_on(net, program, &Sequential).unwrap();
        assert_eq!(via_sequential, reference, "{id} sequential");
        for shards in [1usize, 2, 5] {
            let backend = Sharded::new(shards, ParallelConfig::sequential());
            let run = simulator.run_wire_on(net, program, &backend).unwrap();
            assert_eq!(run, reference, "{id} {shards} shards");
        }
        for mode in MODES {
            let loopback = LoopbackBackend::new(test_registry(), 4).with_workers(2).with_mode(mode);
            let run = simulator.run_wire_on(net, program, &loopback).unwrap();
            assert_eq!(run, reference, "{id} loopback {mode:?}");
        }
    }

    #[test]
    fn wire_tier_matches_the_closure_tier_on_every_action_variant() {
        assert_wire_matches_closure(&path_network(13), &PulseProgram { rounds: 7 }, &sim(2));
        assert_wire_matches_closure(&path_network(11), &RelayProgram { boost: 7 }, &sim(2));
        // The default cadence never checkpoints a three-round run.
        assert_wire_matches_closure(&path_network(11), &RelayProgram { boost: 7 }, &sim(16));
    }

    #[test]
    fn a_pooled_backend_serves_consecutive_epoch_runs() {
        // The second run reuses the first run's pooled workers; the run
        // token in the context bytes must reset their resident state.
        let net = path_network(9);
        let program = PulseProgram { rounds: 5 };
        let reference = Simulator::sequential().run(&net, &program).unwrap();
        let backend = LoopbackBackend::new(test_registry(), 3).with_workers(2);
        let simulator = sim(2);
        let first = simulator.run_wire_on(&net, &program, &backend).unwrap();
        let second = simulator.run_wire_on(&net, &program, &backend).unwrap();
        assert_eq!(first, reference);
        assert_eq!(second, reference);
    }

    #[test]
    fn worker_death_recovers_bit_identically_at_every_checkpoint_phase() {
        // Sweeping the scripted death over every produced frame covers all
        // three recovery phases: before the first checkpoint, between
        // checkpoints, and on the snapshot frame itself (the death lands on
        // the `Checkpoint` push, so the driver restores an older epoch).
        let net = path_network(8);
        let program = PulseProgram { rounds: 6 };
        let reference = Simulator::sequential().run(&net, &program).unwrap();
        for every in [0usize, 1, 2, 5] {
            for die in 1..=14usize {
                let faults = FaultPlan { die_after_replies: Some(die), ..FaultPlan::none() };
                let backend = LoopbackBackend::new(test_registry(), 2)
                    .with_workers(2)
                    .with_faults(faults);
                let run = sim(every).run_wire_on(&net, &program, &backend).unwrap();
                assert_eq!(run, reference, "checkpoint every {every}, die after {die}");
            }
        }
    }

    #[test]
    fn duplicated_and_reordered_epoch_batches_are_absorbed() {
        let net = path_network(9);
        let program = PulseProgram { rounds: 5 };
        let reference = Simulator::sequential().run(&net, &program).unwrap();
        for mode in MODES {
            let faults = FaultPlan {
                duplicate_replies: (0..40).collect(),
                reorder_seed: Some(11),
                ..FaultPlan::none()
            };
            let backend = LoopbackBackend::new(test_registry(), 4)
                .with_workers(2)
                .with_mode(mode)
                .with_faults(faults);
            let run = sim(2).run_wire_on(&net, &program, &backend).unwrap();
            assert_eq!(run, reference, "{mode:?}");
        }
    }

    #[test]
    fn an_unknown_program_id_is_refused_by_the_worker() {
        // The distsim registry serves gather only; the relay program must be
        // refused with a typed worker error naming the program.
        let net = path_network(4);
        let program = RelayProgram { boost: 0 };
        for mode in MODES {
            let backend = LoopbackBackend::new(distsim_registry(), 2).with_mode(mode);
            match Simulator::sequential().run_wire_on(&net, &program, &backend) {
                Err(SimError::Transport(TransportError::Worker { message, .. })) => {
                    assert!(message.contains(RELAY_PROGRAM_ID), "unexpected message: {message}");
                }
                other => panic!("{mode:?}: expected an unknown-program error, got {other:?}"),
            }
        }
    }

    #[test]
    fn reply_codec_rejects_wrong_counts_bad_tags_and_bad_send_targets() {
        let net = path_network(4);
        let program = RelayProgram { boost: 0 };
        let running = [true; 4];
        let inboxes: Vec<Vec<(usize, u64)>> = vec![Vec::new(); 4];
        let resident: Vec<ResidentSlot<RelayProgram>> = (0..4).map(|_| Mutex::new(None)).collect();
        let stage = SimEpochStage {
            program: &program,
            network: &net,
            round: 0,
            snapshot: false,
            token: 1,
            running: &running,
            inboxes: &inboxes,
            resident: &resident,
        };
        let shard = Shard { index: 0, start: 0, end: 2 };
        let reply = |steps: Vec<EpochStep<RelayProgram>>| {
            let mut out = Vec::new();
            encode_actions(&program, &steps, &mut out);
            out
        };
        let send =
            |to: usize, message: Option<u64>| EpochAction::Send { list: vec![(to, 1, message)] };

        // Node 0 sends to its in-shard neighbour 1 (payload elided), node 1
        // to its out-of-shard neighbour 2 (payload shipped): well formed.
        let good = reply(vec![(0, send(1, None)), (1, send(2, Some(5)))]);
        assert!(stage.decode_reply(&shard, &good).is_ok());
        // Every truncation of it is a typed error.
        for cut in 0..good.len() {
            assert!(stage.decode_reply(&shard, &good[..cut]).is_err(), "cut at {cut}");
        }
        // A reply for one node where two were running.
        let short = reply(vec![(0, EpochAction::Idle)]);
        assert!(stage.decode_reply(&shard, &short).is_err());
        // An unknown action tag.
        let mut bad_tag = Vec::new();
        put_usize(&mut bad_tag, 2);
        put_usize(&mut bad_tag, 0);
        put_u8(&mut bad_tag, 99);
        assert!(stage.decode_reply(&shard, &bad_tag).is_err());
        // A `Send` to a node that is not the sender's neighbour, and to one
        // past the end of the network: typed decode errors, never a host
        // panic during delivery.
        for target in [3usize, 99] {
            let bad = reply(vec![(0, send(target, Some(5))), (1, EpochAction::Idle)]);
            match stage.decode_reply(&shard, &bad) {
                Err(TransportError::Wire(WireError::Decode { .. })) => {}
                other => panic!("target {target}: expected a decode error, got {other:?}"),
            }
        }
    }

    #[test]
    fn gather_ids_past_the_network_are_decode_errors_in_replies_and_snapshots() {
        use crate::gather::{GatherMessage, GatherProgram};
        use crate::test_topology::path_instance;
        use mmlp_core::AgentId;
        let net = path_network(4);
        let program = GatherProgram::new(&path_instance(4), 2);
        let is_decode_error =
            |result: Result<(), WireError>| matches!(result, Err(WireError::Decode { .. }));

        // A reply whose boundary-crossing broadcast names agent 9 of 4: the
        // host rejects it while decoding, before any node could halt on it.
        let running = [true; 4];
        let inboxes: Vec<Vec<(usize, GatherMessage)>> = vec![Vec::new(); 4];
        let resident: Vec<ResidentSlot<GatherProgram>> = (0..4).map(|_| Mutex::new(None)).collect();
        let stage = SimEpochStage {
            program: &program,
            network: &net,
            round: 1,
            snapshot: false,
            token: 1,
            running: &running,
            inboxes: &inboxes,
            resident: &resident,
        };
        let shard = Shard { index: 0, start: 0, end: 2 };
        let reply = |agent: usize| {
            let message = GatherMessage { agents: vec![AgentId::new(agent)] };
            let units = 1;
            let steps: Vec<EpochStep<GatherProgram>> = vec![
                (0, EpochAction::Idle),
                (1, EpochAction::Broadcast { units, message: Some(message) }),
            ];
            let mut out = Vec::new();
            encode_actions(&program, &steps, &mut out);
            stage.decode_reply(&shard, &out).map(drop).map_err(|e| match e {
                TransportError::Wire(e) => e,
                other => panic!("expected a wire error, got {other:?}"),
            })
        };
        assert!(reply(3).is_ok());
        assert!(is_decode_error(reply(9)));

        // Snapshots: a resident state and a retained intra-shard message
        // naming agent 9.
        let snapshot = |state_agent: usize, pending_agent: usize| {
            let mut bytes = Vec::new();
            put_usize(&mut bytes, 1); // round
            put_u64(&mut bytes, 7); // token
            put_usize(&mut bytes, 0); // start
            put_usize(&mut bytes, 2); // end
            put_usize(&mut bytes, 1); // one state: node 0 knows one agent
            put_usize(&mut bytes, 0);
            put_usize(&mut bytes, 1);
            put_usize(&mut bytes, state_agent);
            put_usize(&mut bytes, 0);
            put_usize(&mut bytes, 1); // one pending inbox: node 0 ← node 1
            put_usize(&mut bytes, 0);
            put_usize(&mut bytes, 1);
            put_usize(&mut bytes, 1);
            program.encode_message(
                &GatherMessage { agents: vec![AgentId::new(pending_agent)] },
                &mut bytes,
            );
            read_snapshot(&program, &bytes).map(drop)
        };
        assert!(snapshot(0, 1).is_ok());
        assert!(is_decode_error(snapshot(9, 1)));
        assert!(is_decode_error(snapshot(0, 9)));
    }

    #[test]
    fn snapshot_codec_round_trips_and_rejects_malformed_bytes() {
        let program = PulseProgram { rounds: 3 };
        let states: BTreeMap<usize, u64> = (3..7).map(|v| (v, v as u64 * 10)).collect();
        let pending: BTreeMap<usize, Vec<(usize, u64)>> =
            [(4usize, vec![(3usize, 30u64), (5, 50)]), (6, vec![(5, 51)])]
                .into_iter()
                .collect();
        let resident = EpochResident {
            token: 42,
            next_round: 6,
            states: states.clone(),
            pending: pending.clone(),
            last: Some((5, vec![1, 2, 3])),
        };
        let bytes = encode_snapshot(&program, 5, 3, 7, &resident);
        let (round, start, end, decoded) = read_snapshot(&program, &bytes).unwrap();
        assert_eq!((round, start, end), (5, 3, 7));
        assert_eq!(decoded.token, 42);
        assert_eq!(decoded.next_round, 6);
        assert_eq!(decoded.states, states);
        assert_eq!(decoded.pending, pending);
        // The cached reply is deliberately not part of the snapshot: a
        // restored shard never serves a duplicate of a pre-death round.
        assert!(decoded.last.is_none());
        for cut in 0..bytes.len() {
            assert!(read_snapshot(&program, &bytes[..cut]).is_err(), "cut at {cut}");
        }
        // A node outside the snapshot's own range is malformed.
        let mut bad = Vec::new();
        put_usize(&mut bad, 5); // round
        put_u64(&mut bad, 42); // token
        put_usize(&mut bad, 3); // start
        put_usize(&mut bad, 7); // end
        put_usize(&mut bad, 1); // one state entry …
        put_usize(&mut bad, 9); // … for a node outside 3..7
        put_u64(&mut bad, 1);
        assert!(read_snapshot(&program, &bad).is_err());
    }
}
