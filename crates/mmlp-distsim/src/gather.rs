//! The neighbourhood-gathering protocol.
//!
//! Every local algorithm in the paper has the same communication pattern:
//! collect everything that is known within radius `r`, then decide.  This
//! module implements that pattern once, as a [`NodeProgram`]:
//!
//! * round 0: every agent broadcasts its own native knowledge;
//! * round `t`: every agent broadcasts the records it first learned in round
//!   `t − 1` (delta flooding), and records arriving in round `t` are at
//!   hypergraph distance exactly `t`;
//! * after processing the round-`r` inbox the agent halts and outputs its
//!   [`LocalView`].
//!
//! The number of rounds used is therefore exactly the local horizon `r`, and
//! the message volume reported by the simulator measures the true
//! communication cost of the algorithm.
//!
//! A record is named on the wire by its agent id: every copy of the program
//! holds all native records in its configuration (the knowledge table), so
//! messages and states carry ids and distances only, and the view is built
//! from the table when the node halts.  A message still *counts* the records
//! it forwards ([`MessageSize`]), so the communication accounting is that of
//! the protocol shipping records.

use crate::network::Network;
use crate::program::{Action, MessageSize, NodeProgram, WireProgram};
use crate::sim_epoch::distsim_registry;
use crate::simulator::{SimError, SimulationResult, Simulator};
use crate::view::LocalView;
use mmlp_core::{AgentId, MaxMinInstance, PartyId, ResourceId};
use mmlp_hypergraph::communication_hypergraph;
use mmlp_parallel::wire::{put_f64, put_usize, ByteReader, WireError};
use mmlp_parallel::BackendKind;
use serde::{Deserialize, Serialize};

/// The information an agent holds at system startup (Section 1.4): its own
/// coefficients towards the resources it consumes and the parties it serves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalKnowledge {
    /// The agent this record belongs to.
    pub agent: AgentId,
    /// Pairs `(i, a_iv)` for `i ∈ I_v`.
    pub resources: Vec<(ResourceId, f64)>,
    /// Pairs `(k, c_kv)` for `k ∈ K_v`.
    pub parties: Vec<(PartyId, f64)>,
}

impl LocalKnowledge {
    /// Extracts the native knowledge of `agent` from the instance.
    pub fn of_agent(instance: &MaxMinInstance, agent: AgentId) -> Self {
        let record = instance.agent(agent);
        Self { agent, resources: record.resources.clone(), parties: record.parties.clone() }
    }
}

/// A gathering message: the agents whose knowledge records the sender first
/// learned in the previous round, in ascending id order.  The records
/// themselves are looked up in the program's knowledge table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatherMessage {
    /// The agents whose records are forwarded.
    pub agents: Vec<AgentId>,
}

impl MessageSize for GatherMessage {
    /// One unit per forwarded record.
    fn size_units(&self) -> u64 {
        self.agents.len() as u64
    }
}

/// Per-node state of the gathering protocol: every agent known so far with
/// its distance from the node, in ascending id order.
#[derive(Debug, Clone, PartialEq)]
pub struct GatherState {
    known: Vec<(AgentId, usize)>,
}

/// The gathering protocol as a [`NodeProgram`].
#[derive(Debug, Clone)]
pub struct GatherProgram {
    radius: usize,
    knowledge: Vec<LocalKnowledge>,
}

impl GatherProgram {
    /// Creates the protocol for the given instance and information radius.
    pub fn new(instance: &MaxMinInstance, radius: usize) -> Self {
        let knowledge = instance
            .agent_ids()
            .map(|v| LocalKnowledge::of_agent(instance, v))
            .collect();
        Self { radius, knowledge }
    }

    /// The information radius the protocol gathers.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Reads an agent id that must name a row of the knowledge table.
    fn read_agent(
        &self,
        r: &mut ByteReader<'_>,
        context: &'static str,
    ) -> Result<AgentId, WireError> {
        let id = r.usize(context)?;
        if id >= self.knowledge.len() {
            return Err(WireError::Decode { context });
        }
        Ok(AgentId::new(id))
    }
}

impl NodeProgram for GatherProgram {
    type State = GatherState;
    type Message = GatherMessage;
    type Output = LocalView;

    fn init(&self, node: usize, _network: &Network) -> GatherState {
        GatherState { known: vec![(AgentId::new(node), 0)] }
    }

    fn step(
        &self,
        node: usize,
        state: &mut GatherState,
        inbox: &[(usize, GatherMessage)],
        round: usize,
        _network: &Network,
    ) -> Action<GatherMessage, LocalView> {
        let fresh = if round == 0 {
            // The node's own record, known since `init`; nothing arrives in
            // round 0.
            vec![AgentId::new(node)]
        } else {
            // Records arriving in round `t` travelled over `t` hops, so their
            // distance from this node is exactly `t` (if not already known
            // at a smaller distance).
            let mut fresh: Vec<AgentId> = inbox
                .iter()
                .flat_map(|(_, message)| message.agents.iter().copied())
                .collect();
            fresh.sort_unstable();
            fresh.dedup();
            let known = &state.known;
            fresh.retain(|v| known.binary_search_by_key(v, |&(id, _)| id).is_err());
            state.known.extend(fresh.iter().map(|&v| (v, round)));
            state.known.sort_unstable_by_key(|&(id, _)| id);
            fresh
        };

        if round >= self.radius {
            let view = LocalView::from_records(
                AgentId::new(node),
                self.radius,
                state.known.iter().map(|&(v, d)| (v, d, self.knowledge[v.index()].clone())),
            );
            return Action::Halt(view);
        }
        if fresh.is_empty() {
            // Nothing new to forward; stay silent but keep listening until the
            // horizon is reached (neighbours may still send us records).
            return Action::Idle;
        }
        Action::Broadcast(GatherMessage { agents: fresh })
    }
}

// ---------------------------------------------------------------------------
// The typed-message tier: exact-bit codecs for the protocol's knowledge
// records, state, messages and views, making the gathering protocol a
// `WireProgram` the simulator can run across the transport boundary.
// ---------------------------------------------------------------------------

/// Program identifier of the gathering protocol on the wire (`@2` is the
/// payload version of its config/state/message/output codecs; `@1`, whose
/// states and messages carried whole knowledge records, is retired).
pub const GATHER_PROGRAM_ID: &str = "mmlp/prog/gather@2";

fn put_id_f64_pairs<I: Into<usize> + Copy>(out: &mut Vec<u8>, pairs: &[(I, f64)]) {
    put_usize(out, pairs.len());
    for (id, x) in pairs {
        put_usize(out, (*id).into());
        put_f64(out, *x);
    }
}

fn read_id_f64_pairs<I: From<usize>>(
    r: &mut ByteReader<'_>,
    context: &'static str,
) -> Result<Vec<(I, f64)>, WireError> {
    let len = r.seq_len(16, context)?;
    (0..len)
        .map(|_| {
            let id = read_u32_index(r, context)?;
            Ok((I::from(id), r.f64(context)?))
        })
        .collect()
}

/// Reads a dense index that must fit the `u32` id space.
fn read_u32_index(r: &mut ByteReader<'_>, context: &'static str) -> Result<usize, WireError> {
    let id = r.usize(context)?;
    if id > u32::MAX as usize {
        return Err(WireError::Decode { context });
    }
    Ok(id)
}

/// Encodes one agent's native knowledge record.
pub fn put_knowledge(out: &mut Vec<u8>, k: &LocalKnowledge) {
    put_usize(out, k.agent.index());
    put_id_f64_pairs(out, &k.resources);
    put_id_f64_pairs(out, &k.parties);
}

/// Decodes one agent's native knowledge record.
///
/// # Errors
///
/// Typed [`WireError`]s on malformed input (truncation, ids outside the
/// `u32` id space) — byte noise errors out, it never panics.
pub fn read_knowledge(r: &mut ByteReader<'_>) -> Result<LocalKnowledge, WireError> {
    const CTX: &str = "local knowledge";
    let agent = AgentId::new(read_u32_index(r, CTX)?);
    let resources = read_id_f64_pairs::<ResourceId>(r, CTX)?;
    let parties = read_id_f64_pairs::<PartyId>(r, CTX)?;
    Ok(LocalKnowledge { agent, resources, parties })
}

/// Encodes a [`LocalView`] (the gathering protocol's output type).
pub fn put_local_view(out: &mut Vec<u8>, view: &LocalView) {
    put_usize(out, view.center.index());
    put_usize(out, view.radius);
    put_usize(out, view.len());
    for agent in view.known_agents() {
        put_usize(out, view.distance(agent).expect("known agent has a distance"));
        put_knowledge(out, view.knowledge(agent).expect("known agent has knowledge"));
    }
}

/// Decodes a [`LocalView`].
///
/// # Errors
///
/// Typed [`WireError`]s on malformed input.
pub fn read_local_view(r: &mut ByteReader<'_>) -> Result<LocalView, WireError> {
    const CTX: &str = "local view";
    let center = AgentId::new(read_u32_index(r, CTX)?);
    let radius = r.usize(CTX)?;
    // Every record occupies at least its distance and the knowledge record's
    // agent id and two list lengths (4 × 8 bytes).
    let len = r.seq_len(32, CTX)?;
    let records = (0..len)
        .map(|_| {
            let distance = r.usize(CTX)?;
            let knowledge = read_knowledge(r)?;
            Ok((knowledge.agent, distance, knowledge))
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(LocalView::from_records(center, radius, records))
}

fn put_records(out: &mut Vec<u8>, records: &[LocalKnowledge]) {
    put_usize(out, records.len());
    for record in records {
        put_knowledge(out, record);
    }
}

fn read_records(
    r: &mut ByteReader<'_>,
    context: &'static str,
) -> Result<Vec<LocalKnowledge>, WireError> {
    // Every record occupies at least its agent id and two list lengths.
    let len = r.seq_len(24, context)?;
    (0..len).map(|_| read_knowledge(r)).collect()
}

impl WireProgram for GatherProgram {
    fn program_id(&self) -> &'static str {
        GATHER_PROGRAM_ID
    }

    fn encode_config(&self, out: &mut Vec<u8>) {
        put_usize(out, self.radius);
        put_records(out, &self.knowledge);
    }

    fn decode_config(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        const CTX: &str = "gather config";
        let radius = r.usize(CTX)?;
        let knowledge = read_records(r, CTX)?;
        // States and messages name records by agent id, which indexes this
        // table: record `i` must be agent `i`'s.
        if knowledge.iter().enumerate().any(|(i, k)| k.agent.index() != i) {
            return Err(WireError::Decode { context: CTX });
        }
        Ok(Self { radius, knowledge })
    }

    fn encode_state(&self, state: &GatherState, out: &mut Vec<u8>) {
        put_usize(out, state.known.len());
        for &(agent, distance) in &state.known {
            put_usize(out, agent.index());
            put_usize(out, distance);
        }
    }

    fn decode_state(&self, r: &mut ByteReader<'_>) -> Result<GatherState, WireError> {
        const CTX: &str = "gather state";
        let len = r.seq_len(16, CTX)?;
        let mut known: Vec<(AgentId, usize)> = Vec::with_capacity(len);
        for _ in 0..len {
            let agent = self.read_agent(r, CTX)?;
            // Strictly ascending ids: the canonical encoding, and what
            // `step`'s binary search relies on.
            if known.last().is_some_and(|&(previous, _)| previous >= agent) {
                return Err(WireError::Decode { context: CTX });
            }
            known.push((agent, r.usize(CTX)?));
        }
        Ok(GatherState { known })
    }

    fn encode_message(&self, message: &GatherMessage, out: &mut Vec<u8>) {
        put_usize(out, message.agents.len());
        for agent in &message.agents {
            put_usize(out, agent.index());
        }
    }

    fn decode_message(&self, r: &mut ByteReader<'_>) -> Result<GatherMessage, WireError> {
        const CTX: &str = "gather message";
        let len = r.seq_len(8, CTX)?;
        let agents = (0..len).map(|_| self.read_agent(r, CTX)).collect::<Result<_, _>>()?;
        Ok(GatherMessage { agents })
    }

    fn encode_output(&self, output: &LocalView, out: &mut Vec<u8>) {
        put_local_view(out, output);
    }

    fn decode_output(&self, r: &mut ByteReader<'_>) -> Result<LocalView, WireError> {
        read_local_view(r)
    }
}

/// Runs the gathering protocol for `instance` with information radius
/// `radius` and returns every agent's [`LocalView`] (plus the simulation
/// statistics).
///
/// The communication topology is the full communication hypergraph of the
/// instance (resource and party hyperedges).
///
/// The transport backend kinds run the protocol through the worker-resident
/// wire tier ([`Simulator::run_typed`] with the [`distsim_registry`]) —
/// every round's inter-shard messages genuinely cross the byte (or process)
/// boundary; the in-process kinds use the closure tier.  Both tiers are
/// bit-identical.
pub fn gather_views(
    instance: &MaxMinInstance,
    radius: usize,
    simulator: &Simulator,
) -> Result<SimulationResult<LocalView>, SimError> {
    let (h, _) = communication_hypergraph(instance);
    let network = Network::from_hypergraph(&h);
    let program = GatherProgram::new(instance, radius);
    match simulator.config().backend {
        BackendKind::Loopback { .. } | BackendKind::Subprocess { .. } => {
            simulator.run_typed(&network, &program, &distsim_registry())
        }
        _ => simulator.run(&network, &program),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_topology::path_instance;
    use mmlp_core::InstanceBuilder;

    #[test]
    fn gathered_views_match_direct_construction() {
        let inst = path_instance(7);
        let (h, _) = communication_hypergraph(&inst);
        for radius in 0..4 {
            let result = gather_views(&inst, radius, &Simulator::sequential()).unwrap();
            assert_eq!(result.outputs.len(), 7);
            for v in inst.agent_ids() {
                let direct = LocalView::from_instance(&inst, &h, v, radius);
                assert_eq!(result.outputs[v.index()], direct, "radius {radius}, agent {v}");
            }
        }
    }

    #[test]
    fn horizon_equals_radius() {
        let inst = path_instance(6);
        for radius in 0..4 {
            let result = gather_views(&inst, radius, &Simulator::sequential()).unwrap();
            // The protocol halts after processing the round-`radius` inbox,
            // i.e. it runs exactly radius + 1 steps.
            assert_eq!(result.rounds, radius + 1);
            assert!(result.halting_round.iter().all(|&r| r == radius));
        }
    }

    #[test]
    fn radius_zero_views_know_only_themselves() {
        let inst = path_instance(4);
        let result = gather_views(&inst, 0, &Simulator::sequential()).unwrap();
        assert_eq!(result.messages, 0);
        for (idx, view) in result.outputs.iter().enumerate() {
            assert_eq!(view.len(), 1);
            assert!(view.contains(AgentId::new(idx)));
        }
    }

    #[test]
    fn message_volume_grows_with_radius() {
        let inst = path_instance(10);
        let r1 = gather_views(&inst, 1, &Simulator::sequential()).unwrap();
        let r3 = gather_views(&inst, 3, &Simulator::sequential()).unwrap();
        assert!(r3.message_units > r1.message_units);
        assert!(r3.messages > r1.messages);
    }

    #[test]
    fn parallel_and_sequential_gathering_agree() {
        let inst = path_instance(12);
        let seq = gather_views(&inst, 2, &Simulator::sequential()).unwrap();
        let par = gather_views(&inst, 2, &Simulator::new()).unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.message_units, par.message_units);
    }

    #[test]
    fn single_agent_instance_gathers_itself() {
        let inst = path_instance(1);
        let result = gather_views(&inst, 3, &Simulator::sequential()).unwrap();
        assert_eq!(result.outputs.len(), 1);
        assert_eq!(result.outputs[0].len(), 1);
    }

    /// A path of `n` connected agents plus `isolated` agents that share no
    /// hyperedge with anyone (no resources, no parties — permitted with
    /// `allow_unconstrained_agents`): their network nodes have no
    /// neighbours, so their inbox is empty in every round.
    fn path_with_isolated(n: usize, isolated: usize) -> MaxMinInstance {
        let mut b = InstanceBuilder::new();
        b.allow_unconstrained_agents();
        let v = b.add_agents(n + isolated);
        for w in v[..n].windows(2) {
            let i = b.add_resource();
            b.set_consumption(i, w[0], 1.0);
            b.set_consumption(i, w[1], 1.0);
        }
        for &vv in &v[..n] {
            let k = b.add_party();
            b.set_benefit(k, vv, 1.0);
        }
        b.build().unwrap()
    }

    /// Runs one gather across the closure tier, the wire tier on every
    /// local shard count and the loopback transport, asserting all are
    /// bit-identical to the sequential closure reference.
    fn assert_gather_identical_everywhere(inst: &MaxMinInstance, radius: usize) {
        use crate::sim_epoch::distsim_registry;
        use mmlp_parallel::{LoopbackBackend, ParallelConfig, Sharded};
        let (h, _) = communication_hypergraph(inst);
        let network = Network::from_hypergraph(&h);
        let program = GatherProgram::new(inst, radius);
        let simulator = Simulator::sequential();
        let reference = simulator.run(&network, &program).unwrap();
        for shards in [1usize, 2, 5] {
            let backend = Sharded::new(shards, ParallelConfig::sequential());
            let wired = simulator.run_wire_on(&network, &program, &backend).unwrap();
            assert_eq!(wired, reference, "sharded-{shards}, radius {radius}");
        }
        let loopback = LoopbackBackend::new(distsim_registry(), 3).with_workers(2);
        let wired = simulator.run_wire_on(&network, &program, &loopback).unwrap();
        assert_eq!(wired, reference, "loopback, radius {radius}");
    }

    #[test]
    fn isolated_nodes_gather_only_themselves_on_every_tier() {
        // Isolated nodes receive an empty inbox every round; they must halt
        // at the horizon knowing exactly themselves, identically across the
        // closure tier, every shard count and the byte boundary.
        let inst = path_with_isolated(5, 3);
        for radius in 0..3 {
            assert_gather_identical_everywhere(&inst, radius);
        }
        let result = gather_views(&inst, 2, &Simulator::sequential()).unwrap();
        for idx in 5..8 {
            assert_eq!(result.outputs[idx].len(), 1, "isolated agent {idx}");
            assert!(result.outputs[idx].contains(AgentId::new(idx)));
            assert_eq!(result.halting_round[idx], 2);
        }
        // Isolated nodes contribute no messages in any round.
        let connected_only =
            gather_views(&path_with_isolated(5, 0), 2, &Simulator::sequential()).unwrap();
        assert_eq!(result.messages, connected_only.messages);
    }

    #[test]
    fn radius_zero_views_are_identical_on_every_tier() {
        // Radius 0 halts in round 0 without a single message — the wire
        // tier must reproduce that shape exactly (one round, zero messages).
        let inst = path_instance(6);
        assert_gather_identical_everywhere(&inst, 0);
        let result = gather_views(&inst, 0, &Simulator::sequential()).unwrap();
        assert_eq!(result.messages, 0);
        assert_eq!(result.rounds, 1);
        assert!(result.outputs.iter().all(|v| v.len() == 1));
    }

    #[test]
    fn ball_in_one_shard_vs_split_across_shards_is_bit_identical() {
        use mmlp_parallel::{ParallelConfig, Sharded};
        // Radius-2 balls on a 9-path span up to 5 consecutive nodes.  With
        // one shard every ball is computed inside a single shard; with 5
        // shards every ball straddles shard boundaries, so its records
        // arrive exclusively through the driver's inter-shard message
        // exchange.  Both must produce the same views, messages and rounds.
        let inst = path_instance(9);
        let (h, _) = communication_hypergraph(&inst);
        let network = Network::from_hypergraph(&h);
        let program = GatherProgram::new(&inst, 2);
        let simulator = Simulator::sequential();
        let one_shard = simulator
            .run_wire_on(&network, &program, &Sharded::new(1, ParallelConfig::sequential()))
            .unwrap();
        let split = simulator
            .run_wire_on(&network, &program, &Sharded::new(5, ParallelConfig::sequential()))
            .unwrap();
        assert_eq!(one_shard, split);
        // And both match the direct view construction, per agent.
        for v in inst.agent_ids() {
            let direct = LocalView::from_instance(&inst, &h, v, 2);
            assert_eq!(one_shard.outputs[v.index()], direct, "agent {v}");
        }
    }

    #[test]
    fn gathering_through_the_loopback_transport_is_bit_identical() {
        use crate::simulator::SimulatorConfig;
        let inst = path_instance(9);
        let reference = gather_views(&inst, 2, &Simulator::sequential()).unwrap();
        for shards in [1usize, 2, 5] {
            let sim = Simulator::with_config(SimulatorConfig {
                backend: BackendKind::Loopback { shards },
                ..SimulatorConfig::default()
            });
            let wired = gather_views(&inst, 2, &sim).unwrap();
            assert_eq!(wired.outputs, reference.outputs, "{shards} shards");
            assert_eq!(wired.messages, reference.messages, "{shards} shards");
            assert_eq!(wired.rounds, reference.rounds, "{shards} shards");
            assert_eq!(wired.message_units, reference.message_units, "{shards} shards");
            assert_eq!(wired.messages_per_round, reference.messages_per_round);
            assert_eq!(wired.halting_round, reference.halting_round);
        }
    }

    #[test]
    fn gather_codecs_roundtrip_config_state_message_and_view() {
        use mmlp_parallel::wire::ByteReader;
        let inst = path_instance(5);
        let program = GatherProgram::new(&inst, 2);

        let mut bytes = Vec::new();
        program.encode_config(&mut bytes);
        let mut r = ByteReader::new(&bytes);
        let decoded = GatherProgram::decode_config(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(decoded.radius(), 2);
        assert_eq!(decoded.knowledge, program.knowledge);

        let (h, _) = communication_hypergraph(&inst);
        let network = Network::from_hypergraph(&h);
        let state = program.init(3, &network);
        let mut bytes = Vec::new();
        program.encode_state(&state, &mut bytes);
        let mut r = ByteReader::new(&bytes);
        let decoded = program.decode_state(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(decoded, state);

        let message = GatherMessage { agents: inst.agent_ids().collect() };
        let mut bytes = Vec::new();
        program.encode_message(&message, &mut bytes);
        let decoded = program.decode_message(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(decoded, message);

        let view = LocalView::from_instance(&inst, &h, AgentId::new(2), 2);
        let mut bytes = Vec::new();
        program.encode_output(&view, &mut bytes);
        let decoded = program.decode_output(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(decoded, view);
    }

    #[test]
    fn ids_outside_the_knowledge_table_are_decode_errors() {
        use mmlp_parallel::wire::ByteReader;
        let inst = path_instance(5);
        let program = GatherProgram::new(&inst, 2);
        let is_decode_error =
            |result: Result<(), WireError>| matches!(result, Err(WireError::Decode { .. }));

        // A message naming agent 5 of a 5-agent instance.
        let mut bytes = Vec::new();
        put_usize(&mut bytes, 2);
        put_usize(&mut bytes, 1);
        put_usize(&mut bytes, 5);
        let decoded = program.decode_message(&mut ByteReader::new(&bytes)).map(drop);
        assert!(is_decode_error(decoded));

        // States: an id past the table, and ids out of order or repeated.
        let state = |entries: &[(usize, usize)]| {
            let mut bytes = Vec::new();
            put_usize(&mut bytes, entries.len());
            for &(agent, distance) in entries {
                put_usize(&mut bytes, agent);
                put_usize(&mut bytes, distance);
            }
            program.decode_state(&mut ByteReader::new(&bytes)).map(drop)
        };
        assert!(state(&[(0, 1), (2, 0), (4, 2)]).is_ok());
        assert!(is_decode_error(state(&[(0, 1), (7, 0)])));
        assert!(is_decode_error(state(&[(2, 0), (1, 1)])));
        assert!(is_decode_error(state(&[(2, 0), (2, 1)])));
    }

    #[test]
    fn a_config_whose_records_are_out_of_agent_order_is_rejected() {
        use mmlp_parallel::wire::ByteReader;
        let inst = path_instance(4);
        let mut program = GatherProgram::new(&inst, 1);
        program.knowledge.swap(1, 2);
        let mut bytes = Vec::new();
        program.encode_config(&mut bytes);
        match GatherProgram::decode_config(&mut ByteReader::new(&bytes)) {
            Err(WireError::Decode { context }) => assert_eq!(context, "gather config"),
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    #[test]
    fn delta_flooding_does_not_resend_old_records() {
        // On a path with radius large enough to cover everything, total
        // message units are bounded: each record crosses each link at most
        // once in each direction.
        let n = 8;
        let inst = path_instance(n);
        let result = gather_views(&inst, n, &Simulator::sequential()).unwrap();
        let links = n - 1;
        // Upper bound: every one of the n records crosses every link at most
        // twice (once per direction).
        assert!(result.message_units <= (2 * links * n) as u64);
        // Lower bound sanity: at least each agent's record reaches both ends.
        assert!(result.message_units >= (2 * links) as u64);
    }
}
