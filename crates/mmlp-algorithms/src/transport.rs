//! The engine's transport bindings: payload codecs, the worker-side stage
//! registry, and the [`WireStage`] adapters that let the batched local-LP
//! pipeline run on out-of-process backends.
//!
//! Each of the four engine stages is one registered wire stage:
//!
//! | stage id             | context                    | job (per shard)                  | reply                      |
//! |----------------------|----------------------------|----------------------------------|----------------------------|
//! | `mmlp/present@1`     | radius + full instance     | agent range                      | `ShardPresentation`        |
//! | `mmlp/present-delta@1`| radius + version + base instance | weight edits + affected agents | `ShardPresentation`   |
//! | `mmlp/canonicalise@1`| —                          | the shard's presented LPs        | `ShardClasses`             |
//! | `mmlp/present-lifted@1`| grid coarseness `ε`      | the shard's presented LPs        | `ShardQuasiClasses` (classes + per-form slacks) |
//! | `mmlp/solve@2`       | simplex options            | canonical LP list                | solved LPs / typed errors  |
//! | `mmlp/scatter@1`     | deduplicated solutions     | (labelling, solution idx) list   | per-ball activity vectors  |
//!
//! Host and worker share the *same per-shard stage functions*
//! ([`present_shard`](crate::engine), [`canonicalise_shard`](crate::engine),
//! [`solve_shard`](crate::engine)); the only difference is whether the
//! inputs arrive by reference or through encode→decode.  Every coefficient
//! travels as its exact IEEE-754 bit pattern and instances are rebuilt
//! through the validating [`InstanceBuilder`], so a worker computes on a
//! bit-identical copy of the host's data — the conformance matrix asserts
//! the resulting solutions are equal to the sequential backend's, bit for
//! bit.
//!
//! The `@N` suffixes are the payload versions (see the versioning rule in
//! [`mmlp_parallel::wire`]): a layout change bumps the suffix so an old
//! worker reports an unknown stage instead of misreading bytes.

use crate::engine::{
    canonicalise_shard, lift_shard, present_agents, present_shard, solve_shard, unpermute_values,
    InstanceDelta, PresentedLp, ShardClasses, ShardPresentation, ShardQuasiClasses, SolvedLp,
    WeightEdit, WeightKind,
};
use crate::runner::{LocalRuleProgram, LOCAL_RULE_PROGRAM_ID};
use mmlp_core::canonical::{CanonicalForm, CanonicalKey};
use mmlp_core::{InstanceBuilder, MaxMinInstance};
use mmlp_distsim::{
    handle_sim_epoch, handle_sim_round, peek_program_id, GatherProgram, GATHER_PROGRAM_ID,
    STAGE_SIM_EPOCH, STAGE_SIM_ROUND,
};
use mmlp_hypergraph::{communication_hypergraph, NeighborCache};
use mmlp_lp::{LpError, SimplexOptions};
use mmlp_parallel::wire::{
    put_f64, put_f64s, put_str, put_u64, put_u64s, put_u8, put_usize, put_usizes, ByteReader,
    WireError,
};
use mmlp_parallel::{
    run_worker_if_requested, serve_stdio, Shard, StageCache, StageRegistry, TransportError,
    WireStage,
};
use std::sync::{Arc, OnceLock};

/// Stage identifier of the *present* stage.
pub const STAGE_PRESENT: &str = "mmlp/present@1";
/// Stage identifier of the incremental *present-delta* stage: the context
/// registers a versioned base instance (shipped once per link, then deduped
/// by the transport's per-stage context cache), each job carries only a
/// weight delta against that version and the affected-agent list.
pub const STAGE_PRESENT_DELTA: &str = "mmlp/present-delta@1";
/// Stage identifier of the *canonicalise* stage.
pub const STAGE_CANONICALISE: &str = "mmlp/canonicalise@1";
/// Stage identifier of the lifted canonicalise stage: the context carries
/// the grid coarseness `ε`, each job the shard's presented LPs, and the
/// reply a quasi-class table plus each presentation's measured slack.
pub const STAGE_PRESENT_LIFTED: &str = "mmlp/present-lifted@1";
/// Stage identifier of the *solve* stage.
pub const STAGE_SOLVE: &str = "mmlp/solve@2";
/// Stage identifier of the *scatter* stage.
pub const STAGE_SCATTER: &str = "mmlp/scatter@1";

// ---------------------------------------------------------------------------
// Domain codecs.
// ---------------------------------------------------------------------------

/// Encodes an instance: counts, then each resource's and each party's
/// support list as `(agent index, coefficient bits)` pairs.
///
/// Both the presented ball LPs and the canonical instances are constructed
/// resource-major, so rebuilding through the builder in the same order
/// reproduces the instance exactly (all four orientation lists included).
pub fn put_instance(out: &mut Vec<u8>, instance: &MaxMinInstance) {
    put_usize(out, instance.num_agents());
    put_usize(out, instance.num_resources());
    put_usize(out, instance.num_parties());
    for i in instance.resource_ids() {
        let members = instance.resource(i).members();
        put_usize(out, members.len());
        for (v, a) in members {
            put_usize(out, v.index());
            put_f64(out, *a);
        }
    }
    for k in instance.party_ids() {
        let members = instance.party(k).members();
        put_usize(out, members.len());
        for (v, c) in members {
            put_usize(out, v.index());
            put_f64(out, *c);
        }
    }
}

/// Decodes an instance, validating through [`InstanceBuilder`].
///
/// # Errors
///
/// Typed [`WireError`]s for truncated input, out-of-range agent indices,
/// non-positive or non-finite coefficients, and anything the builder's
/// validation rejects — arbitrary byte noise errors out, it never panics.
pub fn read_instance(r: &mut ByteReader<'_>) -> Result<MaxMinInstance, WireError> {
    const CTX: &str = "max-min instance";
    /// Hard cap on the decoded agent count.  Unlike resources and parties
    /// (whose decode loops self-limit by reading coefficient bytes
    /// incrementally), agents are allocated in bulk from the count alone —
    /// valid instances may contain *unconstrained* agents that occupy no
    /// payload bytes at all, so the count cannot be bounded by the payload
    /// size.  The cap only bounds the transient allocation a corrupted
    /// count could trigger; it comfortably exceeds anything that fits a
    /// frame (a constrained agent costs ≥ 16 payload bytes, and frames cap
    /// at 256 MiB).
    const MAX_DECODED_AGENTS: usize = 1 << 24;
    let num_agents = r.usize(CTX)?;
    if num_agents > MAX_DECODED_AGENTS {
        return Err(WireError::Decode { context: CTX });
    }
    // Every resource/party section occupies at least its 8-byte length
    // prefix, so `seq_len` bounds both counts by the remaining payload —
    // a corrupted count errors out before `with_capacity` can overflow.
    let num_resources = r.seq_len(8, CTX)?;
    let num_parties = r.seq_len(8, CTX)?;
    let mut b = InstanceBuilder::with_capacity(num_agents, num_resources, num_parties);
    b.allow_unconstrained_agents();
    let agents = b.add_agents(num_agents);
    for _ in 0..num_resources {
        let i = b.add_resource();
        let len = r.seq_len(16, CTX)?;
        for _ in 0..len {
            let v = r.usize(CTX)?;
            let a = r.f64(CTX)?;
            if v >= num_agents || !a.is_finite() || a <= 0.0 {
                return Err(WireError::Decode { context: CTX });
            }
            b.set_consumption(i, agents[v], a);
        }
    }
    for _ in 0..num_parties {
        let k = b.add_party();
        let len = r.seq_len(16, CTX)?;
        for _ in 0..len {
            let v = r.usize(CTX)?;
            let c = r.f64(CTX)?;
            if v >= num_agents || !c.is_finite() || c <= 0.0 {
                return Err(WireError::Decode { context: CTX });
            }
            b.set_benefit(k, agents[v], c);
        }
    }
    b.build().map_err(|_| WireError::Decode { context: CTX })
}

/// Encodes an instance delta: the base version it targets, then each weight
/// edit as `(kind byte, row, agent, weight bits)`.
pub fn put_instance_delta(out: &mut Vec<u8>, delta: &InstanceDelta) {
    put_u64(out, delta.base_version);
    put_usize(out, delta.edits.len());
    for e in &delta.edits {
        put_u8(
            out,
            match e.kind {
                WeightKind::Consumption => 0,
                WeightKind::Benefit => 1,
            },
        );
        put_usize(out, e.row);
        put_usize(out, e.agent);
        put_f64(out, e.weight);
    }
}

/// Decodes an instance delta.
///
/// When `expected_base_version` is given, a delta targeting any other
/// version is rejected with the typed
/// [`WireError::BaseVersionMismatch`] — the patch-to-wrong-base error a
/// receiver needs to distinguish from byte corruption (the sender should
/// re-register, not re-send).
///
/// # Errors
///
/// [`WireError::BaseVersionMismatch`] on a version mismatch; otherwise
/// typed decode errors for truncated input, unknown kind bytes, and
/// non-positive or non-finite weights — arbitrary byte noise errors out,
/// it never panics.
pub fn read_instance_delta(
    r: &mut ByteReader<'_>,
    expected_base_version: Option<u64>,
) -> Result<InstanceDelta, WireError> {
    const CTX: &str = "instance delta";
    let base_version = r.u64(CTX)?;
    if let Some(expected) = expected_base_version {
        if base_version != expected {
            return Err(WireError::BaseVersionMismatch { expected, found: base_version });
        }
    }
    // Each edit occupies at least kind (1) + row (8) + agent (8) + weight
    // (8) bytes, so `seq_len` bounds the count by the remaining payload.
    let len = r.seq_len(25, CTX)?;
    let mut edits = Vec::with_capacity(len);
    for _ in 0..len {
        let kind = match r.u8(CTX)? {
            0 => WeightKind::Consumption,
            1 => WeightKind::Benefit,
            _ => return Err(WireError::Decode { context: CTX }),
        };
        let row = r.usize(CTX)?;
        let agent = r.usize(CTX)?;
        let weight = r.f64(CTX)?;
        if !weight.is_finite() || weight <= 0.0 {
            return Err(WireError::Decode { context: CTX });
        }
        edits.push(WeightEdit { kind, row, agent, weight });
    }
    Ok(InstanceDelta { base_version, edits })
}

/// Encodes a canonical form (key words, labelling, canonical instance).
pub fn put_canonical_form(out: &mut Vec<u8>, form: &CanonicalForm) {
    put_u64s(out, form.key.as_words());
    put_usizes(out, &form.labelling);
    put_instance(out, &form.instance);
}

/// Decodes a canonical form.
///
/// # Errors
///
/// Typed [`WireError`]s on malformed input.
pub fn read_canonical_form(r: &mut ByteReader<'_>) -> Result<CanonicalForm, WireError> {
    const CTX: &str = "canonical form";
    let key = CanonicalKey::from_words(r.u64s(CTX)?);
    let labelling = r.usizes(CTX)?;
    let instance = read_instance(r)?;
    if labelling.len() != instance.num_agents() {
        return Err(WireError::Decode { context: CTX });
    }
    Ok(CanonicalForm { key, labelling, instance })
}

fn put_solved_lp(out: &mut Vec<u8>, lp: &SolvedLp) {
    put_f64s(out, &lp.x);
    put_u64(out, lp.pivots);
    put_u8(out, u8::from(lp.solved));
}

fn read_solved_lp(r: &mut ByteReader<'_>) -> Result<SolvedLp, WireError> {
    const CTX: &str = "solved lp";
    let x = r.f64s(CTX)?;
    let pivots = r.u64(CTX)?;
    let solved = match r.u8(CTX)? {
        0 => false,
        1 => true,
        _ => return Err(WireError::Decode { context: CTX }),
    };
    Ok(SolvedLp { x, pivots, solved })
}

fn put_lp_result(out: &mut Vec<u8>, result: &Result<SolvedLp, LpError>) {
    match result {
        Ok(lp) => {
            put_u8(out, 0);
            put_solved_lp(out, lp);
        }
        Err(LpError::Malformed(msg)) => {
            put_u8(out, 1);
            put_str(out, msg);
        }
        Err(LpError::IterationLimit { iterations }) => {
            put_u8(out, 2);
            put_usize(out, *iterations);
        }
    }
}

fn read_lp_result(r: &mut ByteReader<'_>) -> Result<Result<SolvedLp, LpError>, WireError> {
    const CTX: &str = "lp result";
    match r.u8(CTX)? {
        0 => Ok(Ok(read_solved_lp(r)?)),
        1 => Ok(Err(LpError::Malformed(r.str(CTX)?.to_string()))),
        2 => Ok(Err(LpError::IterationLimit { iterations: r.usize(CTX)? })),
        _ => Err(WireError::Decode { context: CTX }),
    }
}

fn put_presented_lp(out: &mut Vec<u8>, lp: &PresentedLp) {
    put_instance(out, &lp.instance);
    put_u64s(out, &lp.key);
}

fn read_presented_lp(r: &mut ByteReader<'_>) -> Result<PresentedLp, WireError> {
    let instance = read_instance(r)?;
    let key = r.u64s("presented lp key")?;
    Ok(PresentedLp { instance, key })
}

fn put_shard_presentation(out: &mut Vec<u8>, sp: &ShardPresentation) {
    put_usize(out, sp.balls.len());
    for ball in &sp.balls {
        put_usizes(out, ball);
    }
    put_usizes(out, &sp.pres_of_ball);
    put_usize(out, sp.reps.len());
    for rep in &sp.reps {
        put_presented_lp(out, rep);
    }
}

fn read_shard_presentation(r: &mut ByteReader<'_>) -> Result<ShardPresentation, WireError> {
    const CTX: &str = "shard presentation";
    let num_balls = r.seq_len(8, CTX)?;
    let balls = (0..num_balls).map(|_| r.usizes(CTX)).collect::<Result<Vec<_>, _>>()?;
    let pres_of_ball = r.usizes(CTX)?;
    let num_reps = r.seq_len(8, CTX)?;
    let reps = (0..num_reps)
        .map(|_| read_presented_lp(r))
        .collect::<Result<Vec<_>, _>>()?;
    if pres_of_ball.len() != balls.len() || pres_of_ball.iter().any(|&p| p >= reps.len()) {
        return Err(WireError::Decode { context: CTX });
    }
    Ok(ShardPresentation { balls, pres_of_ball, reps })
}

fn put_shard_classes(out: &mut Vec<u8>, sc: &ShardClasses) {
    put_usize(out, sc.forms.len());
    for form in &sc.forms {
        put_canonical_form(out, form);
    }
    put_usizes(out, &sc.class_reps);
    put_usizes(out, &sc.class_of);
}

fn read_shard_classes(r: &mut ByteReader<'_>) -> Result<ShardClasses, WireError> {
    const CTX: &str = "shard classes";
    let num_forms = r.seq_len(8, CTX)?;
    let forms = (0..num_forms)
        .map(|_| read_canonical_form(r))
        .collect::<Result<Vec<_>, _>>()?;
    let class_reps = r.usizes(CTX)?;
    let class_of = r.usizes(CTX)?;
    if class_of.len() != forms.len()
        || class_reps.iter().any(|&p| p >= forms.len())
        || class_of.iter().any(|&c| c >= class_reps.len())
    {
        return Err(WireError::Decode { context: CTX });
    }
    Ok(ShardClasses { forms, class_reps, class_of })
}

fn put_shard_quasi_classes(out: &mut Vec<u8>, sq: &ShardQuasiClasses) {
    put_shard_classes(out, &sq.classes);
    put_f64s(out, &sq.slacks);
}

fn read_shard_quasi_classes(r: &mut ByteReader<'_>) -> Result<ShardQuasiClasses, WireError> {
    const CTX: &str = "shard quasi classes";
    let classes = read_shard_classes(r)?;
    let slacks = r.f64s(CTX)?;
    // One measured slack per form, each finite and ≥ 0 — anything else
    // would poison the certified intervals downstream.
    if slacks.len() != classes.forms.len() || slacks.iter().any(|s| !s.is_finite() || *s < 0.0) {
        return Err(WireError::Decode { context: CTX });
    }
    Ok(ShardQuasiClasses { classes, slacks })
}

fn put_simplex_options(out: &mut Vec<u8>, options: &SimplexOptions) {
    put_f64(out, options.tolerance);
    put_usize(out, options.max_pivots);
    put_usize(out, options.bland_after);
}

fn read_simplex_options(r: &mut ByteReader<'_>) -> Result<SimplexOptions, WireError> {
    const CTX: &str = "simplex options";
    Ok(SimplexOptions {
        tolerance: r.f64(CTX)?,
        max_pivots: r.usize(CTX)?,
        bland_after: r.usize(CTX)?,
    })
}

// ---------------------------------------------------------------------------
// The WireStage adapters (host side).
// ---------------------------------------------------------------------------

/// Stage 1 as a wire stage: context carries the radius and the full
/// instance; a job is just the shard's agent range (already in the shard).
pub(crate) struct PresentWireStage<'a> {
    pub(crate) instance: &'a MaxMinInstance,
    pub(crate) cache: &'a NeighborCache,
    pub(crate) radius: usize,
}

impl WireStage for PresentWireStage<'_> {
    type Output = ShardPresentation;

    fn stage_id(&self) -> &'static str {
        STAGE_PRESENT
    }

    fn encode_context(&self, out: &mut Vec<u8>) {
        put_usize(out, self.radius);
        put_instance(out, self.instance);
    }

    fn encode_job(&self, shard: &Shard, out: &mut Vec<u8>) {
        put_usize(out, shard.start);
        put_usize(out, shard.end);
    }

    fn decode_reply(&self, shard: &Shard, payload: &[u8]) -> Result<Self::Output, TransportError> {
        let result = read_shard_presentation(&mut ByteReader::new(payload))?;
        if result.balls.len() != shard.len() {
            return Err(WireError::Decode { context: "present reply" }.into());
        }
        Ok(result)
    }

    fn run_local(&self, shard: &Shard) -> Self::Output {
        present_shard(self.instance, self.cache, self.radius, shard.range())
    }
}

/// The present-delta stage: the context *registers* a versioned base
/// instance (radius + version + full instance, shipped once per link thanks
/// to the transport's per-stage context dedup); each job ships only the
/// weight edits and the shard's slice of the affected-agent list — the
/// per-re-solve wire bytes scale with the churn, not the instance.
pub(crate) struct DeltaPresentWireStage<'a> {
    /// The registered base instance (travels in the context, once).
    pub(crate) base: &'a MaxMinInstance,
    /// The patched instance (host-side only; `run_local` presents from it).
    pub(crate) patched: &'a MaxMinInstance,
    /// Neighbour cache of the base (deltas never change the topology).
    pub(crate) cache: &'a NeighborCache,
    pub(crate) radius: usize,
    pub(crate) base_version: u64,
    pub(crate) delta: &'a InstanceDelta,
    /// Agents whose balls intersect the delta's support, sorted.
    pub(crate) affected: &'a [usize],
}

impl WireStage for DeltaPresentWireStage<'_> {
    type Output = ShardPresentation;

    fn stage_id(&self) -> &'static str {
        STAGE_PRESENT_DELTA
    }

    fn encode_context(&self, out: &mut Vec<u8>) {
        put_usize(out, self.radius);
        put_u64(out, self.base_version);
        put_instance(out, self.base);
    }

    fn encode_job(&self, shard: &Shard, out: &mut Vec<u8>) {
        put_instance_delta(out, self.delta);
        put_usizes(out, &self.affected[shard.range()]);
    }

    fn decode_reply(&self, shard: &Shard, payload: &[u8]) -> Result<Self::Output, TransportError> {
        let result = read_shard_presentation(&mut ByteReader::new(payload))?;
        if result.balls.len() != shard.len() {
            return Err(WireError::Decode { context: "present-delta reply" }.into());
        }
        Ok(result)
    }

    fn run_local(&self, shard: &Shard) -> Self::Output {
        present_agents(self.patched, self.cache, self.radius, &self.affected[shard.range()])
    }
}

/// Stage 2 as a wire stage: no context; a job carries the shard's presented
/// LPs by value.
pub(crate) struct CanonWireStage<'a> {
    pub(crate) instances: Vec<&'a MaxMinInstance>,
}

impl WireStage for CanonWireStage<'_> {
    type Output = ShardClasses;

    fn stage_id(&self) -> &'static str {
        STAGE_CANONICALISE
    }

    fn encode_context(&self, _out: &mut Vec<u8>) {}

    fn encode_job(&self, shard: &Shard, out: &mut Vec<u8>) {
        put_usize(out, shard.len());
        for lp in &self.instances[shard.range()] {
            put_instance(out, lp);
        }
    }

    fn decode_reply(&self, shard: &Shard, payload: &[u8]) -> Result<Self::Output, TransportError> {
        let result = read_shard_classes(&mut ByteReader::new(payload))?;
        if result.forms.len() != shard.len() {
            return Err(WireError::Decode { context: "canonicalise reply" }.into());
        }
        Ok(result)
    }

    fn run_local(&self, shard: &Shard) -> Self::Output {
        canonicalise_shard(&self.instances[shard.range()])
    }
}

/// The lifted canonicalise stage: the grid coarseness `ε` travels in the
/// context (deduped per link, like every stage context), each job carries
/// the shard's presented LPs, and the reply is the quasi-class table plus
/// one measured slack per presentation.
pub(crate) struct LiftedCanonWireStage<'a> {
    pub(crate) instances: Vec<&'a MaxMinInstance>,
    pub(crate) epsilon: f64,
}

impl WireStage for LiftedCanonWireStage<'_> {
    type Output = ShardQuasiClasses;

    fn stage_id(&self) -> &'static str {
        STAGE_PRESENT_LIFTED
    }

    fn encode_context(&self, out: &mut Vec<u8>) {
        put_f64(out, self.epsilon);
    }

    fn encode_job(&self, shard: &Shard, out: &mut Vec<u8>) {
        put_usize(out, shard.len());
        for lp in &self.instances[shard.range()] {
            put_instance(out, lp);
        }
    }

    fn decode_reply(&self, shard: &Shard, payload: &[u8]) -> Result<Self::Output, TransportError> {
        let result = read_shard_quasi_classes(&mut ByteReader::new(payload))?;
        if result.classes.forms.len() != shard.len() {
            return Err(WireError::Decode { context: "present-lifted reply" }.into());
        }
        Ok(result)
    }

    fn run_local(&self, shard: &Shard) -> Self::Output {
        lift_shard(&self.instances[shard.range()], self.epsilon)
    }
}

/// Stage 3 as a wire stage: the context carries the simplex options, a job
/// the shard's canonical LPs (the memo misses, in class order).
pub(crate) struct SolveWireStage<'a> {
    pub(crate) jobs: Vec<&'a MaxMinInstance>,
    pub(crate) simplex: SimplexOptions,
}

impl WireStage for SolveWireStage<'_> {
    type Output = Vec<Result<SolvedLp, LpError>>;

    fn stage_id(&self) -> &'static str {
        STAGE_SOLVE
    }

    fn encode_context(&self, out: &mut Vec<u8>) {
        put_simplex_options(out, &self.simplex);
    }

    fn encode_job(&self, shard: &Shard, out: &mut Vec<u8>) {
        put_usize(out, shard.len());
        for lp in &self.jobs[shard.range()] {
            put_instance(out, lp);
        }
    }

    fn decode_reply(&self, shard: &Shard, payload: &[u8]) -> Result<Self::Output, TransportError> {
        let mut r = ByteReader::new(payload);
        let len = r.seq_len(1, "solve reply")?;
        if len != shard.len() {
            return Err(WireError::Decode { context: "solve reply" }.into());
        }
        Ok((0..len).map(|_| read_lp_result(&mut r)).collect::<Result<Vec<_>, _>>()?)
    }

    fn run_local(&self, shard: &Shard) -> Self::Output {
        solve_shard(&self.jobs[shard.range()], &self.simplex)
    }
}

/// Stage 4 as a wire stage: the context carries the *deduplicated* canonical
/// solutions once; each ball's job entry is just its canonical labelling and
/// a solution index, so the shipped bytes do not grow with the dedup ratio.
pub(crate) struct ScatterWireStage<'a> {
    /// Per ball: its canonical labelling and the index of its solution in
    /// [`solutions`](Self::solutions).
    pub(crate) items: Vec<(&'a [usize], usize)>,
    /// The deduplicated canonical solutions (one per class in batched mode,
    /// one per ball in the naive reference mode).
    pub(crate) solutions: Vec<&'a [f64]>,
}

impl WireStage for ScatterWireStage<'_> {
    type Output = Vec<Vec<f64>>;

    fn stage_id(&self) -> &'static str {
        STAGE_SCATTER
    }

    fn encode_context(&self, out: &mut Vec<u8>) {
        put_usize(out, self.solutions.len());
        for x in &self.solutions {
            put_f64s(out, x);
        }
    }

    fn encode_job(&self, shard: &Shard, out: &mut Vec<u8>) {
        put_usize(out, shard.len());
        for (labelling, solution) in &self.items[shard.range()] {
            put_usizes(out, labelling);
            put_usize(out, *solution);
        }
    }

    fn decode_reply(&self, shard: &Shard, payload: &[u8]) -> Result<Self::Output, TransportError> {
        const CTX: &str = "scatter reply";
        let mut r = ByteReader::new(payload);
        let len = r.seq_len(1, CTX)?;
        if len != shard.len() {
            return Err(WireError::Decode { context: CTX }.into());
        }
        Ok((0..len).map(|_| r.f64s(CTX)).collect::<Result<Vec<_>, _>>()?)
    }

    fn run_local(&self, shard: &Shard) -> Self::Output {
        self.items[shard.range()]
            .iter()
            .map(|(labelling, solution)| unpermute_values(labelling, self.solutions[*solution]))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Worker-side handlers.
// ---------------------------------------------------------------------------

fn wire_err(e: WireError) -> String {
    e.to_string()
}

/// The present stage's context-derived worker state: the decoded instance
/// plus the neighbour cache built from it — cached per context so the
/// hypergraph is constructed once, not once per job.
struct PresentState {
    radius: usize,
    instance: MaxMinInstance,
    neighbors: NeighborCache,
}

fn handle_present(ctx: &[u8], job: &[u8], cache: &mut StageCache) -> Result<Vec<u8>, String> {
    let state = cache.get_or_try_insert_with(|| {
        let mut r = ByteReader::new(ctx);
        let radius = r.usize("present context").map_err(wire_err)?;
        let instance = read_instance(&mut r).map_err(wire_err)?;
        let (h, _) = communication_hypergraph(&instance);
        let neighbors = h.neighbor_cache();
        Ok(PresentState { radius, instance, neighbors })
    })?;
    let mut r = ByteReader::new(job);
    let start = r.usize("present job").map_err(wire_err)?;
    let end = r.usize("present job").map_err(wire_err)?;
    if start > end || end > state.instance.num_agents() {
        return Err("present job range out of bounds".to_string());
    }
    let result = present_shard(&state.instance, &state.neighbors, state.radius, start..end);
    let mut out = Vec::new();
    put_shard_presentation(&mut out, &result);
    Ok(out)
}

/// The present-delta stage's context-derived worker state: the registered
/// base (version, instance, neighbour cache), built once per context —
/// i.e. once per registered base version — and reused by every delta job
/// against it.
struct DeltaState {
    radius: usize,
    base_version: u64,
    instance: MaxMinInstance,
    neighbors: NeighborCache,
}

fn handle_present_delta(ctx: &[u8], job: &[u8], cache: &mut StageCache) -> Result<Vec<u8>, String> {
    let state = cache.get_or_try_insert_with(|| {
        let mut r = ByteReader::new(ctx);
        let radius = r.usize("present-delta context").map_err(wire_err)?;
        let base_version = r.u64("present-delta context").map_err(wire_err)?;
        let instance = read_instance(&mut r).map_err(wire_err)?;
        let (h, _) = communication_hypergraph(&instance);
        let neighbors = h.neighbor_cache();
        Ok(DeltaState { radius, base_version, instance, neighbors })
    })?;
    let mut r = ByteReader::new(job);
    // A patch against the wrong base version is a typed protocol error —
    // the host must re-register, not retry.
    let delta = read_instance_delta(&mut r, Some(state.base_version)).map_err(wire_err)?;
    let agents = r.usizes("present-delta job").map_err(wire_err)?;
    if agents.iter().any(|&u| u >= state.instance.num_agents()) {
        return Err("present-delta agent out of bounds".to_string());
    }
    let patched = delta.apply(&state.instance).map_err(|e| e.to_string())?;
    let result = present_agents(&patched, &state.neighbors, state.radius, &agents);
    let mut out = Vec::new();
    put_shard_presentation(&mut out, &result);
    Ok(out)
}

fn handle_canonicalise(
    _ctx: &[u8],
    job: &[u8],
    _cache: &mut StageCache,
) -> Result<Vec<u8>, String> {
    let mut r = ByteReader::new(job);
    let len = r.seq_len(1, "canonicalise job").map_err(wire_err)?;
    let instances = (0..len)
        .map(|_| read_instance(&mut r))
        .collect::<Result<Vec<_>, _>>()
        .map_err(wire_err)?;
    let refs: Vec<&MaxMinInstance> = instances.iter().collect();
    let result = canonicalise_shard(&refs);
    let mut out = Vec::new();
    put_shard_classes(&mut out, &result);
    Ok(out)
}

fn handle_present_lifted(
    ctx: &[u8],
    job: &[u8],
    cache: &mut StageCache,
) -> Result<Vec<u8>, String> {
    let epsilon = *cache.get_or_try_insert_with(|| {
        let mut r = ByteReader::new(ctx);
        let epsilon = r.f64("present-lifted context").map_err(wire_err)?;
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err("present-lifted epsilon must be finite and non-negative".to_string());
        }
        Ok(epsilon)
    })?;
    let mut r = ByteReader::new(job);
    let len = r.seq_len(1, "present-lifted job").map_err(wire_err)?;
    let instances = (0..len)
        .map(|_| read_instance(&mut r))
        .collect::<Result<Vec<_>, _>>()
        .map_err(wire_err)?;
    let refs: Vec<&MaxMinInstance> = instances.iter().collect();
    let result = lift_shard(&refs, epsilon);
    let mut out = Vec::new();
    put_shard_quasi_classes(&mut out, &result);
    Ok(out)
}

fn handle_solve(ctx: &[u8], job: &[u8], cache: &mut StageCache) -> Result<Vec<u8>, String> {
    let simplex = *cache.get_or_try_insert_with(|| {
        read_simplex_options(&mut ByteReader::new(ctx)).map_err(wire_err)
    })?;
    let mut r = ByteReader::new(job);
    let len = r.seq_len(1, "solve job").map_err(wire_err)?;
    let decoded: Vec<MaxMinInstance> = (0..len)
        .map(|_| read_instance(&mut r))
        .collect::<Result<Vec<_>, WireError>>()
        .map_err(wire_err)?;
    let jobs: Vec<&MaxMinInstance> = decoded.iter().collect();
    let results = solve_shard(&jobs, &simplex);
    let mut out = Vec::new();
    put_usize(&mut out, results.len());
    for result in &results {
        put_lp_result(&mut out, result);
    }
    Ok(out)
}

fn handle_scatter(ctx: &[u8], job: &[u8], cache: &mut StageCache) -> Result<Vec<u8>, String> {
    const CTX: &str = "scatter job";
    let solutions: &Vec<Vec<f64>> = cache.get_or_try_insert_with(|| {
        let mut r = ByteReader::new(ctx);
        let num_solutions = r.seq_len(1, "scatter context").map_err(wire_err)?;
        (0..num_solutions)
            .map(|_| r.f64s("scatter context"))
            .collect::<Result<Vec<Vec<f64>>, _>>()
            .map_err(wire_err)
    })?;
    let mut r = ByteReader::new(job);
    let len = r.seq_len(1, CTX).map_err(wire_err)?;
    let mut out = Vec::new();
    put_usize(&mut out, len);
    for _ in 0..len {
        let labelling = r.usizes(CTX).map_err(wire_err)?;
        let solution = r.usize(CTX).map_err(wire_err)?;
        let Some(x) = solutions.get(solution) else {
            return Err(format!("scatter solution index {solution} out of range"));
        };
        if labelling.len() != x.len() || labelling.iter().any(|&c| c >= x.len()) {
            return Err("scatter labelling does not match its solution".to_string());
        }
        put_f64s(&mut out, &unpermute_values(&labelling, x));
    }
    Ok(out)
}

/// The worker-side dispatcher for simulator rounds (`mmlp/sim-round@1`):
/// routes a round job to the generic round body for every [`WireProgram`]
/// the engine's workers know — the gathering protocol and the
/// gather-then-decide rule program.  Unknown program ids are refused, the
/// same contract as unknown stage ids.
///
/// [`WireProgram`]: mmlp_distsim::WireProgram
fn handle_engine_sim_round(
    ctx: &[u8],
    job: &[u8],
    cache: &mut StageCache,
) -> Result<Vec<u8>, String> {
    match peek_program_id(ctx).map_err(|e| e.to_string())? {
        GATHER_PROGRAM_ID => handle_sim_round::<GatherProgram>(ctx, job, cache),
        LOCAL_RULE_PROGRAM_ID => handle_sim_round::<LocalRuleProgram>(ctx, job, cache),
        other => Err(format!("unknown simulator program `{other}`")),
    }
}

/// The worker-side dispatcher for worker-resident simulator rounds
/// (`mmlp/sim-epoch@1`): the same program dispatch as
/// [`handle_engine_sim_round`], routed to the resident-state round body.
///
/// [`WireProgram`]: mmlp_distsim::WireProgram
fn handle_engine_sim_epoch(
    ctx: &[u8],
    job: &[u8],
    cache: &mut StageCache,
) -> Result<Vec<u8>, String> {
    match peek_program_id(ctx).map_err(|e| e.to_string())? {
        GATHER_PROGRAM_ID => handle_sim_epoch::<GatherProgram>(ctx, job, cache),
        LOCAL_RULE_PROGRAM_ID => handle_sim_epoch::<LocalRuleProgram>(ctx, job, cache),
        other => Err(format!("unknown simulator program `{other}`")),
    }
}

// ---------------------------------------------------------------------------
// Registry and worker entry points.
// ---------------------------------------------------------------------------

/// The engine's stage registry: what an `mmlp` worker process can compute —
/// the four batched-pipeline stages plus the distributed simulator's
/// `mmlp/sim-round@1` stage for the programs the engine knows.
///
/// Shared (it is what both the worker binary and the loopback/subprocess
/// fallbacks dispatch through); built once per process.
pub fn engine_registry() -> Arc<StageRegistry> {
    static REGISTRY: OnceLock<Arc<StageRegistry>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| {
            let mut registry = StageRegistry::new();
            registry.register(STAGE_PRESENT, handle_present);
            registry.register(STAGE_PRESENT_DELTA, handle_present_delta);
            registry.register(STAGE_CANONICALISE, handle_canonicalise);
            registry.register(STAGE_PRESENT_LIFTED, handle_present_lifted);
            registry.register(STAGE_SOLVE, handle_solve);
            registry.register(STAGE_SCATTER, handle_scatter);
            registry.register(STAGE_SIM_ROUND, handle_engine_sim_round);
            registry.register(STAGE_SIM_EPOCH, handle_engine_sim_epoch);
            Arc::new(registry)
        })
        .clone()
}

/// Serves the engine worker protocol over this process's stdio (the body of
/// the `mmlp-worker` binary).
///
/// # Errors
///
/// Returns the first framing error of the incoming stream.
pub fn serve_engine_worker_stdio() -> Result<(), mmlp_parallel::WireError> {
    serve_stdio(&engine_registry())
}

/// If this process was re-executed with `--mmlp-worker`, serves the engine
/// worker protocol over stdio and returns `true` (the caller should exit).
///
/// Host binaries that use [`BackendKind::Subprocess`] with
/// [`WorkerCommand::CurrentExe`] call this first thing in `main`.
///
/// [`BackendKind::Subprocess`]: mmlp_parallel::BackendKind::Subprocess
/// [`WorkerCommand::CurrentExe`]: mmlp_parallel::WorkerCommand::CurrentExe
pub fn serve_engine_worker_if_requested() -> bool {
    run_worker_if_requested(&engine_registry())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{solve_local_lps, solve_local_lps_on, LocalLpOptions};
    use mmlp_core::canonical::canonical_form;
    use mmlp_instances::{grid_instance, random_instance, GridConfig, RandomInstanceConfig};
    use mmlp_parallel::{FaultPlan, LoopbackBackend};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_instances() -> Vec<MaxMinInstance> {
        let mut rng = StdRng::seed_from_u64(7);
        vec![
            grid_instance(
                &GridConfig { side_lengths: vec![3, 4], torus: false, random_weights: true },
                &mut rng,
            ),
            grid_instance(
                &GridConfig { side_lengths: vec![4, 4], torus: true, random_weights: false },
                &mut rng,
            ),
            random_instance(
                &RandomInstanceConfig { num_agents: 13, ..Default::default() },
                &mut rng,
            ),
        ]
    }

    #[test]
    fn instance_codec_roundtrips_exactly() {
        for inst in sample_instances() {
            let mut bytes = Vec::new();
            put_instance(&mut bytes, &inst);
            let mut r = ByteReader::new(&bytes);
            let decoded = read_instance(&mut r).unwrap();
            assert!(r.is_empty());
            assert_eq!(decoded, inst, "decoded instance must be bit-identical");
        }
    }

    #[test]
    fn instance_codec_roundtrips_unconstrained_agents() {
        // Valid instances may contain agents that appear in no support list
        // (lower-bound constructions use them); they occupy zero payload
        // bytes, so the decoder must not infer the agent count from the
        // payload size.
        let mut b = mmlp_core::InstanceBuilder::new();
        b.allow_unconstrained_agents();
        let agents = b.add_agents(60);
        let i = b.add_resource();
        let k = b.add_party();
        b.set_consumption(i, agents[0], 1.0);
        b.set_benefit(k, agents[0], 1.0);
        let inst = b.build().unwrap();
        let mut bytes = Vec::new();
        put_instance(&mut bytes, &inst);
        let decoded = read_instance(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(decoded, inst);
    }

    #[test]
    fn instance_delta_codec_roundtrips_exactly() {
        let delta = InstanceDelta {
            base_version: 7,
            edits: vec![
                WeightEdit { kind: WeightKind::Consumption, row: 3, agent: 1, weight: 2.5 },
                WeightEdit { kind: WeightKind::Benefit, row: 0, agent: 4, weight: 0.125 },
            ],
        };
        let mut bytes = Vec::new();
        put_instance_delta(&mut bytes, &delta);
        let mut r = ByteReader::new(&bytes);
        let decoded = read_instance_delta(&mut r, Some(7)).unwrap();
        assert!(r.is_empty());
        assert_eq!(decoded, delta);
        // Without an expected version, any version decodes.
        assert_eq!(read_instance_delta(&mut ByteReader::new(&bytes), None).unwrap(), delta);
    }

    #[test]
    fn instance_delta_version_mismatch_is_typed() {
        let delta = InstanceDelta { base_version: 3, edits: vec![] };
        let mut bytes = Vec::new();
        put_instance_delta(&mut bytes, &delta);
        let err = read_instance_delta(&mut ByteReader::new(&bytes), Some(8)).unwrap_err();
        assert!(
            matches!(err, WireError::BaseVersionMismatch { expected: 8, found: 3 }),
            "expected the typed mismatch, got {err}"
        );
    }

    #[test]
    fn instance_delta_decoder_rejects_malformed_payloads() {
        let delta = InstanceDelta {
            base_version: 1,
            edits: vec![WeightEdit { kind: WeightKind::Benefit, row: 2, agent: 0, weight: 1.0 }],
        };
        let mut bytes = Vec::new();
        put_instance_delta(&mut bytes, &delta);
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(read_instance_delta(&mut r, None).is_err(), "cut at {cut}");
        }
        // An unknown kind byte and a non-positive weight are both rejected.
        let mut bad_kind = bytes.clone();
        bad_kind[16] = 9;
        assert!(read_instance_delta(&mut ByteReader::new(&bad_kind), None).is_err());
        let zero_weight = InstanceDelta {
            base_version: 1,
            edits: vec![WeightEdit { kind: WeightKind::Benefit, row: 2, agent: 0, weight: 1.0 }],
        };
        let mut bytes = Vec::new();
        put_instance_delta(&mut bytes, &zero_weight);
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&0.0_f64.to_le_bytes());
        assert!(read_instance_delta(&mut ByteReader::new(&bytes), None).is_err());
    }

    #[test]
    fn canonical_form_codec_roundtrips_exactly() {
        for inst in sample_instances() {
            let form = canonical_form(&inst);
            let mut bytes = Vec::new();
            put_canonical_form(&mut bytes, &form);
            let decoded = read_canonical_form(&mut ByteReader::new(&bytes)).unwrap();
            assert_eq!(decoded.key, form.key);
            assert_eq!(decoded.labelling, form.labelling);
            assert_eq!(decoded.instance, form.instance);
        }
    }

    #[test]
    fn shard_quasi_classes_codec_roundtrips_and_rejects_bad_slacks() {
        let instances = sample_instances();
        let refs: Vec<&MaxMinInstance> = instances.iter().collect();
        for epsilon in [0.0, 0.05, 0.5] {
            let sq = lift_shard(&refs, epsilon);
            let mut bytes = Vec::new();
            put_shard_quasi_classes(&mut bytes, &sq);
            let mut r = ByteReader::new(&bytes);
            let decoded = read_shard_quasi_classes(&mut r).unwrap();
            assert!(r.is_empty());
            assert_eq!(decoded.slacks, sq.slacks);
            assert_eq!(decoded.classes.class_reps, sq.classes.class_reps);
            assert_eq!(decoded.classes.class_of, sq.classes.class_of);
            for (a, b) in decoded.classes.forms.iter().zip(&sq.classes.forms) {
                assert_eq!(a.key, b.key);
                assert_eq!(a.labelling, b.labelling);
                assert_eq!(a.instance, b.instance);
            }
            // Truncations at every prefix: typed error, no panic.
            for cut in 0..bytes.len() {
                assert!(
                    read_shard_quasi_classes(&mut ByteReader::new(&bytes[..cut])).is_err(),
                    "cut at {cut}"
                );
            }
            // A negative or non-finite slack is rejected — it would poison
            // the certified intervals.
            for bad in [-0.25_f64, f64::NAN, f64::INFINITY] {
                let mut corrupted = bytes.clone();
                let n = corrupted.len();
                corrupted[n - 8..].copy_from_slice(&bad.to_le_bytes());
                assert!(read_shard_quasi_classes(&mut ByteReader::new(&corrupted)).is_err());
            }
        }
        // ε = 0 must reproduce the exact stage's class table with all-zero
        // slacks.
        let exact = canonicalise_shard(&refs);
        let lifted = lift_shard(&refs, 0.0);
        assert!(lifted.slacks.iter().all(|&s| s == 0.0));
        assert_eq!(lifted.classes.class_reps, exact.class_reps);
        assert_eq!(lifted.classes.class_of, exact.class_of);
        for (a, b) in lifted.classes.forms.iter().zip(&exact.forms) {
            assert_eq!(a.key, b.key);
        }
    }

    #[test]
    fn lifted_stage_over_loopback_matches_the_in_process_reference() {
        use crate::engine::{SolveMode, SolveStats};
        let inst = random_instance(
            &RandomInstanceConfig { num_agents: 24, ..Default::default() },
            &mut StdRng::seed_from_u64(17),
        );
        let mut options = LocalLpOptions::new(1);
        options.mode = SolveMode::Lifted { epsilon: 0.2 };
        let reference = solve_local_lps(&inst, &options).unwrap();
        let loopback = LoopbackBackend::new(engine_registry(), 3);
        let via_wire = solve_local_lps_on(&inst, &options, &loopback).unwrap();
        assert_eq!(via_wire.local_x, reference.local_x);
        assert_eq!(via_wire.intervals, reference.intervals);
        assert_eq!(via_wire.ball_objectives, reference.ball_objectives);
        assert_eq!(via_wire.class_of_ball, reference.class_of_ball);
        let stats = |s: &SolveStats| (s.quasi_classes, s.max_class_slack.to_bits());
        assert_eq!(stats(&via_wire.stats), stats(&reference.stats));
    }

    #[test]
    fn lp_result_codec_roundtrips() {
        let results: Vec<Result<SolvedLp, LpError>> = vec![
            Ok(SolvedLp { x: vec![0.5, -0.0, 1.25], pivots: 9, solved: true }),
            Ok(SolvedLp { x: vec![0.0; 2], pivots: 0, solved: false }),
            Err(LpError::Malformed("nope".to_string())),
            Err(LpError::IterationLimit { iterations: 123 }),
        ];
        for result in &results {
            let mut bytes = Vec::new();
            put_lp_result(&mut bytes, result);
            let decoded = read_lp_result(&mut ByteReader::new(&bytes)).unwrap();
            assert_eq!(&decoded, result);
        }
    }

    #[test]
    fn instance_decoder_rejects_malformed_payloads() {
        let inst = &sample_instances()[0];
        let mut bytes = Vec::new();
        put_instance(&mut bytes, inst);
        // Truncations at every prefix: typed error, no panic.
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(read_instance(&mut r).is_err(), "cut at {cut}");
        }
        // A coefficient of zero (silently dropped by the builder) must be
        // rejected rather than silently changing the structure.
        let mut zeroed = Vec::new();
        put_usize(&mut zeroed, 1);
        put_usize(&mut zeroed, 1);
        put_usize(&mut zeroed, 0);
        put_usize(&mut zeroed, 1); // one entry
        put_usize(&mut zeroed, 0); // agent 0
        put_f64(&mut zeroed, 0.0); // zero coefficient
        assert!(read_instance(&mut ByteReader::new(&zeroed)).is_err());
        // Absurd counts are rejected before any allocation: a huge agent
        // count, and huge resource/party counts (which previously reached
        // `Vec::with_capacity` and panicked with a capacity overflow).
        let mut absurd = Vec::new();
        put_usize(&mut absurd, u64::MAX as usize / 2);
        put_usize(&mut absurd, 0);
        put_usize(&mut absurd, 0);
        assert!(read_instance(&mut ByteReader::new(&absurd)).is_err());
        let mut absurd = Vec::new();
        put_usize(&mut absurd, 1);
        put_usize(&mut absurd, u64::MAX as usize / 2);
        put_usize(&mut absurd, 0);
        assert!(read_instance(&mut ByteReader::new(&absurd)).is_err());
        let mut absurd = Vec::new();
        put_usize(&mut absurd, 1);
        put_usize(&mut absurd, 0);
        put_usize(&mut absurd, u64::MAX as usize / 2);
        assert!(read_instance(&mut ByteReader::new(&absurd)).is_err());
    }

    #[test]
    fn loopback_engine_run_matches_the_in_process_reference() {
        // The full pipeline through the registry and the byte boundary.
        let inst = grid_instance(
            &GridConfig { side_lengths: vec![5, 5], torus: false, random_weights: true },
            &mut StdRng::seed_from_u64(3),
        );
        let reference = solve_local_lps(&inst, &LocalLpOptions::new(2)).unwrap();
        let loopback = LoopbackBackend::new(engine_registry(), 3);
        let via_wire = solve_local_lps_on(&inst, &LocalLpOptions::new(2), &loopback).unwrap();
        assert_eq!(via_wire.local_x, reference.local_x);
        assert_eq!(via_wire.balls, reference.balls);
        assert_eq!(via_wire.class_of_ball, reference.class_of_ball);
        assert_eq!(via_wire.class_keys, reference.class_keys);
        assert_eq!(via_wire.class_solutions, reference.class_solutions);
        assert_eq!(via_wire.stats.unique_classes, reference.stats.unique_classes);
        assert_eq!(via_wire.stats.distinct_presentations, reference.stats.distinct_presentations);
        // The stage statistics must now carry the transport backend's name.
        assert!(via_wire.stats.stage_shards.iter().all(|s| s.backend == "loopback"));
    }

    #[test]
    fn loopback_with_reordering_and_duplicates_stays_bit_identical() {
        let inst = grid_instance(
            &GridConfig { side_lengths: vec![4, 5], torus: false, random_weights: true },
            &mut StdRng::seed_from_u64(9),
        );
        let reference = solve_local_lps(&inst, &LocalLpOptions::new(1)).unwrap();
        let faults = FaultPlan {
            reorder_seed: Some(11),
            duplicate_replies: vec![0, 2],
            ..FaultPlan::none()
        };
        let backend = LoopbackBackend::new(engine_registry(), 4)
            .with_workers(2)
            .with_faults(faults);
        let batch = solve_local_lps_on(&inst, &LocalLpOptions::new(1), &backend).unwrap();
        assert_eq!(batch.local_x, reference.local_x);
        assert_eq!(batch.class_of_ball, reference.class_of_ball);
    }
}
