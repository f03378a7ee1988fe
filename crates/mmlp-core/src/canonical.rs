//! Canonical forms of max-min LP instances.
//!
//! The batched local-LP engine (in `mmlp-algorithms`) solves one local LP per
//! agent, and on regular instances most of those LPs are *structurally
//! identical*: they differ only in how their agents, resources and parties
//! happen to be numbered.  This module computes a **canonical form** — a
//! relabelling of the instance that is invariant under any permutation of
//! agent identifiers (and of the resource/party listing order) — so that
//! structurally identical LPs map to the same [`CanonicalKey`] and are
//! detected by a hash lookup.
//!
//! The algorithm is the classic individualisation–refinement scheme used for
//! graph canonisation, specialised to the bipartite agent/constraint
//! structure of a max-min LP:
//!
//! 1. **Colour refinement.**  Agents start with one shared colour and are
//!    repeatedly split by the signature "(own colour, multiset of incident
//!    resource shapes, multiset of incident party shapes)", where a
//!    resource/party shape lists the member colours together with the exact
//!    coefficient bits.  This is the Weisfeiler–Leman refinement on the
//!    coefficient-weighted incidence structure.
//! 2. **Individualisation.**  If refinement stabilises with a non-singleton
//!    colour class, each member of the first such class is tentatively given
//!    a fresh colour, refinement is re-run, and the recursion keeps the
//!    lexicographically smallest complete encoding.  This makes the result a
//!    true canonical form (isomorphic instances produce identical keys), not
//!    just an invariant.
//!
//! Local LPs have constant-bounded size in the paper's setting, so the
//! worst-case exponential branching of step 2 is never a concern in
//! practice; highly symmetric balls simply explore one branch per
//! automorphism-equivalent choice.

use crate::builder::InstanceBuilder;
use crate::ids::{AgentId, PartyId, ResourceId};
use crate::instance::{Agent, MaxMinInstance, Party, Resource};
use std::cell::OnceCell;

/// Sentinel opening each resource section inside flat LP encodings (both
/// the canonical encoding here and the engine's presentation keys).
/// Coefficient bit patterns can collide with small integers, so the
/// sentinels are fixed bit patterns that valid (positive, finite)
/// coefficients and indices never produce.
pub const SEP_RESOURCE: u64 = u64::MAX;
/// Sentinel opening each party section inside flat LP encodings.
pub const SEP_PARTY: u64 = u64::MAX - 1;
/// Sentinel opening each `(agent, coefficient)` entry inside an encoding.
pub const SEP_ENTRY: u64 = u64::MAX - 2;

/// A hashable, order-independent fingerprint of a max-min LP instance.
///
/// Two instances have equal keys **iff** they are isomorphic: there is a
/// bijection of agents (and an induced matching of resources and parties)
/// that maps every coefficient onto an exactly equal coefficient.  The key
/// is the flat encoding of the canonically relabelled instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalKey(Vec<u64>);

impl CanonicalKey {
    /// The raw encoding words (exposed for diagnostics and hashing).
    pub fn as_words(&self) -> &[u64] {
        &self.0
    }

    /// Rebuilds a key from raw encoding words, as produced by
    /// [`as_words`](CanonicalKey::as_words).
    ///
    /// This exists for transport layers that ship canonical forms across a
    /// byte boundary and must reconstruct the exact key.  Words that did not
    /// come from a real canonical form make a key that matches no instance —
    /// harmless for lookups, but do not fabricate keys expecting the
    /// "equal iff isomorphic" guarantee to hold for them.
    pub fn from_words(words: Vec<u64>) -> Self {
        CanonicalKey(words)
    }
}

/// The canonical form of an instance: its key, the relabelling that produced
/// it, and the relabelled instance itself (ready to hand to a solver).
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalForm {
    /// The canonical fingerprint.
    pub key: CanonicalKey,
    /// `labelling[v]` is the canonical index of original agent `v`.
    pub labelling: Vec<usize>,
    /// The instance with agents renumbered by `labelling` and the resource /
    /// party lists sorted into canonical order.
    ///
    /// Isomorphic inputs produce **bit-identical** canonical instances, so a
    /// deterministic solver run on this instance returns bit-identical
    /// results for every member of an isomorphism class.
    pub instance: MaxMinInstance,
}

impl CanonicalForm {
    /// Rebuilds a canonical form from its key and labelling, which is all a
    /// transport needs to ship: the key *is* the flat encoding of the
    /// canonical instance, so the instance is decoded from it.
    ///
    /// Returns `None` unless `labelling` is a permutation of `0..n`, where
    /// `n` is the key's agent count, and the key words are a well-formed
    /// encoding of a valid instance: the declared resource and party counts
    /// match the sections, resources precede parties, every entry names an
    /// agent below `n` with a finite positive coefficient, and the
    /// [`InstanceBuilder`] accepts the result.  Any words and labelling
    /// either decode or return `None`; nothing panics.  A form that came
    /// from [`canonical_form`] always round-trips.
    pub fn from_parts(key: CanonicalKey, labelling: Vec<usize>) -> Option<CanonicalForm> {
        let n = labelling.len();
        let mut seen = vec![false; n];
        for &c in &labelling {
            if c >= n || std::mem::replace(&mut seen[c], true) {
                return None;
            }
        }
        let instance = decode_encoding(n, key.as_words())?;
        Some(CanonicalForm { key, labelling, instance })
    }

    /// Translates a solution of the canonical instance back to the original
    /// agent order: entry `v` of the result is the canonical solution's value
    /// for original agent `v`.
    pub fn unpermute(&self, canonical_values: &[f64]) -> Vec<f64> {
        assert_eq!(canonical_values.len(), self.labelling.len());
        self.labelling.iter().map(|&c| canonical_values[c]).collect()
    }
}

/// Computes the canonical form of an instance.
///
/// See the module docs for the algorithm.  The instance may have any shape
/// accepted by [`MaxMinInstance`] (including zero parties, as happens for
/// ball LPs whose ball contains no complete party support).
pub fn canonical_form(instance: &MaxMinInstance) -> CanonicalForm {
    let n = instance.num_agents();
    if n == 0 {
        return CanonicalForm {
            key: CanonicalKey(vec![0, 0, 0]),
            labelling: Vec::new(),
            instance: instance.clone(),
        };
    }
    canonicalise(instance).0
}

/// [`canonical_form`] together with the number of leaves (discrete
/// colourings) the individualisation search encoded.
fn canonicalise(instance: &MaxMinInstance) -> (CanonicalForm, usize) {
    let ctx = Context::new(instance);
    let mut scratch = RefineScratch::default();
    let mut colors = vec![0u32; instance.num_agents()];
    ctx.refine(&mut colors, &mut scratch);
    let mut best: Option<(Vec<u64>, Vec<usize>)> = None;
    let leaves = ctx.search(colors, &mut best, &mut scratch);
    let (encoding, labelling) = best.expect("search always yields at least one labelling");
    // The winning encoding lists the canonically relabelled, sorted edges;
    // the canonical instance is read straight off it, by the same decoder
    // that rebuilds a shipped form.
    let form = CanonicalForm::from_parts(CanonicalKey(encoding), labelling)
        .expect("the winning leaf encodes a relabelling of a valid instance");
    (form, leaves)
}

/// Convenience wrapper returning only the key.
pub fn canonical_key(instance: &MaxMinInstance) -> CanonicalKey {
    canonical_form(instance).key
}

/// The quasi-stable (lifted) canonical form of an instance: the exact
/// canonical form of the **weight-quantised** instance together with the
/// relative slack the quantisation actually incurred.
///
/// Two instances fall into the same quasi-class iff their quantised
/// instances are isomorphic — the quantisation snaps every coefficient onto
/// a shared geometric grid, so coefficients that differ by a relative factor
/// below the grid step merge, while the incidence structure is preserved
/// exactly.  This is the colour-lifting of quasi-stable partition schemes,
/// realised as a preprocessing step so the exact
/// individualisation–refinement machinery (and everything keyed by
/// [`CanonicalKey`]) is reused unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct QuasiCanonicalForm {
    /// The exact canonical form of the quantised instance.  Its
    /// [`instance`](CanonicalForm::instance) is the quantised LP that a
    /// solver should run; its [`key`](CanonicalForm::key) identifies the
    /// quasi-class; its [`labelling`](CanonicalForm::labelling) is a valid
    /// agent bijection for the *original* instance too (quantisation never
    /// changes the incidence structure).
    pub form: CanonicalForm,
    /// The largest relative rounding applied to any coefficient:
    /// `max_w (w / q(w)) − 1` over all coefficients `w` of the input, where
    /// `q(w) ≤ w` is the quantised value.  Exactly `0.0` when `epsilon = 0`
    /// (the identity quantisation); at most `epsilon` up to floating-point
    /// rounding of the grid itself otherwise.  The slack is *measured*, not
    /// assumed — certification downstream uses this value, so grid-edge
    /// float effects can never make a certificate unsound.
    pub slack: f64,
}

/// Snaps a coefficient onto the geometric grid `(1+ε)^b`, returning the
/// largest grid point `q` with `q ≤ w` (so `w/q − 1 ∈ [0, ε]` up to
/// floating-point rounding of the grid itself).
///
/// `epsilon ≤ 0` is the identity.  `w` must be positive and finite (as every
/// validated instance coefficient is).  The result depends only on the
/// bucket index, so coefficients in the same bucket share the exact same
/// representative bit pattern — which is what lets the exact canonicaliser
/// merge them.
pub fn quantise_weight(w: f64, epsilon: f64) -> f64 {
    if epsilon <= 0.0 {
        return w;
    }
    debug_assert!(w.is_finite() && w > 0.0, "coefficients are positive and finite");
    let base = 1.0 + epsilon;
    let mut b = (w.ln() / base.ln()).floor() as i32;
    // The floating-point floor above can land one bucket off near grid
    // edges; the guards restore the defining property q ≤ w < q·base.
    // Only q ≤ w (and q > 0) is load-bearing for certification — the
    // incurred slack is measured by the caller, never assumed.
    while base.powi(b) > w {
        b -= 1;
    }
    while base.powi(b + 1) <= w {
        b += 1;
    }
    base.powi(b)
}

/// Computes the quasi-stable canonical form with slack tolerance `epsilon`.
///
/// With `epsilon = 0.0` this **is** [`canonical_form`] — same key, same
/// labelling, bit-identical canonical instance, slack exactly `0.0`.  With
/// `epsilon > 0`, every coefficient is first snapped down onto the geometric
/// grid `(1+ε)^b` and the exact canonical form of the quantised instance is
/// returned together with the measured slack (see [`QuasiCanonicalForm`]).
pub fn quasi_canonical_form(instance: &MaxMinInstance, epsilon: f64) -> QuasiCanonicalForm {
    if epsilon <= 0.0 {
        return QuasiCanonicalForm { form: canonical_form(instance), slack: 0.0 };
    }
    let (quantised, slack) = quantise_instance(instance, epsilon);
    QuasiCanonicalForm { form: canonical_form(&quantised), slack }
}

/// Quantises every coefficient of `instance` onto the geometric grid and
/// returns the quantised instance plus the largest relative rounding
/// incurred.  Incidence structure (which agent sits in which resource/party,
/// and in what stored order) is preserved exactly.
fn quantise_instance(instance: &MaxMinInstance, epsilon: f64) -> (MaxMinInstance, f64) {
    let mut slack = 0.0f64;
    let mut q = |w: f64| -> f64 {
        let snapped = quantise_weight(w, epsilon);
        slack = slack.max(w / snapped - 1.0);
        snapped
    };
    let agents = instance
        .agents
        .iter()
        .map(|a| Agent {
            resources: a.resources.iter().map(|&(i, w)| (i, q(w))).collect(),
            parties: a.parties.iter().map(|&(k, w)| (k, q(w))).collect(),
        })
        .collect();
    // The same coefficient is stored in both orientations; `quantise_weight`
    // is a pure function of the bits, so the mirrored copies stay equal.
    let resources = instance
        .resources
        .iter()
        .map(|r| Resource { agents: r.agents.iter().map(|&(v, w)| (v, q(w))).collect() })
        .collect();
    let parties = instance
        .parties
        .iter()
        .map(|p| Party { agents: p.agents.iter().map(|&(v, w)| (v, q(w))).collect() })
        .collect();
    (MaxMinInstance { agents, resources, parties }, slack)
}

/// Immutable view of the instance used throughout refinement and search.
struct Context<'a> {
    instance: &'a MaxMinInstance,
    num_agents: usize,
    /// Twin-equivalence class of each agent: two agents are *twins* when
    /// swapping them (and touching nothing else) is an automorphism of the
    /// instance.  The individualisation search only needs to branch on one
    /// member per twin class — the branches of the other members are images
    /// of that one under the transposition, so they reach the same minimal
    /// encoding.  This keeps instances with many interchangeable agents
    /// (e.g. identical agents on private resources) linear instead of
    /// factorial.
    ///
    /// Computed on first use: an instance that refinement alone makes
    /// discrete (most ball LPs) never branches, so never needs it.
    twin_class: OnceCell<Vec<usize>>,
}

impl<'a> Context<'a> {
    fn new(instance: &'a MaxMinInstance) -> Self {
        Self { instance, num_agents: instance.num_agents(), twin_class: OnceCell::new() }
    }

    fn twin_classes(&self) -> &[usize] {
        self.twin_class.get_or_init(|| twin_classes(self.instance))
    }

    /// Runs colour refinement to a fixed point.  Colours are canonical ranks
    /// (0-based, ordered by signature), so the result is invariant under any
    /// permutation of the input agent ids.
    ///
    /// An agent's signature is a flat word list: own colour, then the
    /// sorted multiset of incident resource shapes, then the sorted multiset
    /// of incident party shapes.  A shape records the agent's own
    /// coefficient and the full `(colour, coefficient)` membership of the
    /// hyperedge.  Each round writes all signatures back to back into
    /// `scratch` and ranks the agents by comparing the slices, so colours
    /// follow the exact lexicographic signature order.
    fn refine(&self, colors: &mut [u32], scratch: &mut RefineScratch) {
        let n = self.num_agents;
        let mut num_colors = {
            let distinct = &mut scratch.distinct;
            distinct.clear();
            distinct.extend_from_slice(colors);
            distinct.sort_unstable();
            distinct.dedup();
            distinct.len()
        };
        loop {
            scratch.sigs.clear();
            scratch.sig_bounds.clear();
            scratch.sig_bounds.push(0);
            for v in 0..n {
                scratch.push_signature(self.instance, v, colors);
            }
            let RefineScratch { sigs, sig_bounds, order, .. } = &mut *scratch;
            let sig = |v: usize| &sigs[sig_bounds[v]..sig_bounds[v + 1]];
            order.clear();
            order.extend(0..n);
            order.sort_unstable_by(|&a, &b| sig(a).cmp(sig(b)));
            let mut next = 0u32;
            let mut previous: Option<&[u64]> = None;
            for &v in order.iter() {
                if let Some(p) = previous {
                    if p != sig(v) {
                        next += 1;
                    }
                }
                colors[v] = next;
                previous = Some(sig(v));
            }
            let new_num = next as usize + 1;
            // A discrete colouring is stable: the next round's signatures
            // would be ordered by their leading own colour alone, re-ranking
            // every agent to the colour it has.
            if new_num == num_colors || new_num == n {
                return;
            }
            num_colors = new_num;
        }
    }

    /// Individualisation search: explores every member of the first
    /// non-singleton colour class and keeps the lexicographically smallest
    /// complete encoding.  Returns the number of leaves encoded.
    fn search(
        &self,
        colors: Vec<u32>,
        best: &mut Option<(Vec<u64>, Vec<usize>)>,
        scratch: &mut RefineScratch,
    ) -> usize {
        let n = self.num_agents;
        // Count class sizes to find the first non-singleton class.
        let mut class_size = vec![0usize; n];
        for &c in &colors {
            class_size[c as usize] += 1;
        }
        let target = class_size.iter().position(|&s| s > 1);
        let Some(target) = target else {
            // Discrete colouring: colours are exactly the canonical indices.
            self.encode(&colors, scratch);
            let improves = match best {
                None => true,
                Some((incumbent, _)) => scratch.encoding < *incumbent,
            };
            if improves {
                let labelling = colors.iter().map(|&c| c as usize).collect();
                *best = Some((std::mem::take(&mut scratch.encoding), labelling));
            }
            return 1;
        };
        let twin_class = self.twin_classes();
        let mut branched_twin_classes = std::collections::BTreeSet::new();
        let mut leaves = 0;
        for v in 0..n {
            if colors[v] as usize != target {
                continue;
            }
            // Twins reach the same minimal encoding; branch once per class.
            if !branched_twin_classes.insert(twin_class[v]) {
                continue;
            }
            let mut branch = colors.clone();
            // Give `v` a fresh colour; refinement re-ranks everything.
            branch[v] = n as u32;
            self.refine(&mut branch, scratch);
            leaves += self.search(branch, best, scratch);
        }
        leaves
    }

    /// Writes the flat encoding of the instance under a discrete colouring
    /// (colour = canonical index) into `scratch.encoding`: the dimensions,
    /// then every resource and every party, each relabelled with its members
    /// sorted, in sorted order.
    fn encode(&self, labelling: &[u32], scratch: &mut RefineScratch) {
        let inst = self.instance;
        scratch.encoding.clear();
        scratch.encoding.extend([
            inst.num_agents() as u64,
            inst.num_resources() as u64,
            inst.num_parties() as u64,
        ]);
        scratch.push_edges(SEP_RESOURCE, inst.resources.iter().map(Resource::members), labelling);
        scratch.push_edges(SEP_PARTY, inst.parties.iter().map(Party::members), labelling);
    }
}

/// The reusable buffers of colour refinement and leaf encoding, shared by
/// every round, branch and leaf of one canonicalisation.
#[derive(Default)]
struct RefineScratch {
    /// Every agent's signature, back to back.
    sigs: Vec<u64>,
    /// Agent `v`'s signature is `sigs[sig_bounds[v]..sig_bounds[v + 1]]`.
    sig_bounds: Vec<usize>,
    /// One agent's incident shapes of one kind, back to back.
    shapes: Vec<u64>,
    /// The `(start, end)` range of each shape in `shapes`.
    shape_ranges: Vec<(usize, usize)>,
    /// One hyperedge's `(colour, coefficient bits)` members.
    members: Vec<(u64, u64)>,
    /// Agents in signature order.
    order: Vec<usize>,
    /// The distinct input colours.
    distinct: Vec<u32>,
    /// The encoding of the leaf last visited.
    encoding: Vec<u64>,
    /// One kind's relabelled hyperedges, back to back.
    edge_entries: Vec<(u64, u64)>,
    /// The `(start, end)` range of each hyperedge in `edge_entries`.
    edge_ranges: Vec<(usize, usize)>,
}

impl RefineScratch {
    /// Appends agent `v`'s signature under `colors` to `sigs`.
    fn push_signature(&mut self, instance: &MaxMinInstance, v: usize, colors: &[u32]) {
        let agent = &instance.agents[v];
        self.sigs.push(u64::from(colors[v]));
        let resources = agent
            .resources
            .iter()
            .map(|(i, a)| (*a, instance.resources[i.index()].members()));
        self.push_shapes(SEP_RESOURCE, resources, colors);
        let parties = agent
            .parties
            .iter()
            .map(|(k, c)| (*c, instance.parties[k.index()].members()));
        self.push_shapes(SEP_PARTY, parties, colors);
        self.sig_bounds.push(self.sigs.len());
    }

    /// Appends hyperedges of one kind to `encoding`, relabelled by a
    /// discrete colouring: each opened by `sep`, its `(index, coefficient
    /// bits)` members sorted and each entered by `SEP_ENTRY`, the hyperedges
    /// in sorted order.
    fn push_edges<'e>(
        &mut self,
        sep: u64,
        edges: impl Iterator<Item = &'e [(AgentId, f64)]>,
        labelling: &[u32],
    ) {
        self.edge_entries.clear();
        self.edge_ranges.clear();
        for members in edges {
            let start = self.edge_entries.len();
            self.edge_entries.extend(
                members.iter().map(|(v, c)| (u64::from(labelling[v.index()]), c.to_bits())),
            );
            self.edge_entries[start..].sort_unstable();
            self.edge_ranges.push((start, self.edge_entries.len()));
        }
        let entries = &self.edge_entries;
        self.edge_ranges
            .sort_unstable_by(|&(s1, e1), &(s2, e2)| entries[s1..e1].cmp(&entries[s2..e2]));
        for &(start, end) in &self.edge_ranges {
            self.encoding.push(sep);
            for &(v, bits) in &entries[start..end] {
                self.encoding.extend([SEP_ENTRY, v, bits]);
            }
        }
    }

    /// Appends the sorted multiset of shapes of the given hyperedges (each
    /// with the agent's own coefficient), every shape opened by `sep`.
    fn push_shapes<'e>(
        &mut self,
        sep: u64,
        edges: impl Iterator<Item = (f64, &'e [(AgentId, f64)])>,
        colors: &[u32],
    ) {
        self.shapes.clear();
        self.shape_ranges.clear();
        for (own, members) in edges {
            let start = self.shapes.len();
            self.shapes.push(own.to_bits());
            self.members.clear();
            self.members
                .extend(members.iter().map(|(u, b)| (u64::from(colors[u.index()]), b.to_bits())));
            self.members.sort_unstable();
            for &(c, b) in &self.members {
                self.shapes.extend([c, b]);
            }
            self.shape_ranges.push((start, self.shapes.len()));
        }
        let shapes = &self.shapes;
        self.shape_ranges
            .sort_unstable_by(|&(s1, e1), &(s2, e2)| shapes[s1..e1].cmp(&shapes[s2..e2]));
        for &(start, end) in &self.shape_ranges {
            self.sigs.push(sep);
            self.sigs.extend_from_slice(&shapes[start..end]);
        }
    }
}

/// Computes the twin-equivalence classes of the agents: `u` and `v` are
/// twins iff the transposition `(u v)` is an automorphism of the instance,
/// i.e. it maps the resource shape multiset and the party shape multiset
/// each onto themselves.
fn twin_classes(instance: &MaxMinInstance) -> Vec<usize> {
    use std::collections::HashMap;
    let n = instance.num_agents();
    type Shape = Vec<(usize, u64)>;
    let shape_of = |entries: &[(AgentId, f64)]| -> Shape {
        let mut s: Shape = entries.iter().map(|(v, c)| (v.index(), c.to_bits())).collect();
        s.sort_unstable();
        s
    };
    let resource_shapes: Vec<Shape> =
        instance.resources.iter().map(|r| shape_of(&r.agents)).collect();
    let party_shapes: Vec<Shape> = instance.parties.iter().map(|p| shape_of(&p.agents)).collect();
    let count_shapes = |shapes: &[Shape]| -> HashMap<Shape, usize> {
        let mut counts = HashMap::new();
        for s in shapes {
            *counts.entry(s.clone()).or_insert(0) += 1;
        }
        counts
    };
    let resource_counts = count_shapes(&resource_shapes);
    let party_counts = count_shapes(&party_shapes);

    let swap = |shape: &Shape, u: usize, v: usize| -> Shape {
        let mut out: Shape = shape
            .iter()
            .map(|&(w, c)| {
                (
                    if w == u {
                        v
                    } else if w == v {
                        u
                    } else {
                        w
                    },
                    c,
                )
            })
            .collect();
        out.sort_unstable();
        out
    };
    // A cheap pre-filter: twins must have identical coefficient profiles.
    let profile = |v: usize| -> (Vec<u64>, Vec<u64>) {
        let agent = &instance.agents[v];
        let mut r: Vec<u64> = agent.resources.iter().map(|(_, a)| a.to_bits()).collect();
        r.sort_unstable();
        let mut p: Vec<u64> = agent.parties.iter().map(|(_, c)| c.to_bits()).collect();
        p.sort_unstable();
        (r, p)
    };
    let profiles: Vec<(Vec<u64>, Vec<u64>)> = (0..n).map(profile).collect();

    let are_twins = |u: usize, v: usize| -> bool {
        let check = |shapes: &[Shape],
                     counts: &HashMap<Shape, usize>,
                     edges_u: &[usize],
                     edges_v: &[usize]| {
            let mut touched: Vec<usize> = edges_u.iter().chain(edges_v).copied().collect();
            touched.sort_unstable();
            touched.dedup();
            touched.iter().all(|&e| {
                let swapped = swap(&shapes[e], u, v);
                counts.get(&swapped) == counts.get(&shapes[e])
            })
        };
        let eu: Vec<usize> = instance.agents[u].resources.iter().map(|(i, _)| i.index()).collect();
        let ev: Vec<usize> = instance.agents[v].resources.iter().map(|(i, _)| i.index()).collect();
        if !check(&resource_shapes, &resource_counts, &eu, &ev) {
            return false;
        }
        let eu: Vec<usize> = instance.agents[u].parties.iter().map(|(k, _)| k.index()).collect();
        let ev: Vec<usize> = instance.agents[v].parties.iter().map(|(k, _)| k.index()).collect();
        check(&party_shapes, &party_counts, &eu, &ev)
    };

    // Union-find over agents; twinness is transitive enough for our use
    // (each union is justified by an explicit transposition automorphism,
    // and products of automorphisms are automorphisms).
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for u in 0..n {
        for v in u + 1..n {
            if profiles[u] != profiles[v] {
                continue;
            }
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv && are_twins(u, v) {
                parent[rv] = ru;
            }
        }
    }
    let mut dense = vec![usize::MAX; n];
    let mut next = 0;
    (0..n)
        .map(|v| {
            let root = find(&mut parent, v);
            if dense[root] == usize::MAX {
                dense[root] = next;
                next += 1;
            }
            dense[root]
        })
        .collect()
}

/// Decodes a flat canonical encoding of an instance with `num_agents`
/// agents: the three dimension words, then every `SEP_RESOURCE` /
/// `SEP_PARTY` word opens the next hyperedge of that kind, and every
/// `SEP_ENTRY` is followed by one member's canonical index and coefficient
/// bits.  `None` for anything that is not such an encoding of a valid
/// instance (see [`CanonicalForm::from_parts`]).
fn decode_encoding(num_agents: usize, encoding: &[u64]) -> Option<MaxMinInstance> {
    let (dims, words) = (encoding.get(..3)?, &encoding[3..]);
    if dims[0] != num_agents as u64 {
        return None;
    }
    // Every hyperedge occupies at least its separator word, which bounds
    // both counts (and the capacities below) by the encoding's length.
    let num_resources = usize::try_from(dims[1]).ok().filter(|&m| m <= words.len())?;
    let num_parties = usize::try_from(dims[2]).ok().filter(|&p| p <= words.len())?;
    let mut b = InstanceBuilder::with_capacity(num_agents, num_resources, num_parties);
    b.allow_unconstrained_agents();
    let agents = b.add_agents(num_agents);
    let mut words = words.iter().copied();
    let mut open: Option<Edge> = None;
    while let Some(word) = words.next() {
        match word {
            SEP_RESOURCE if b.num_parties() == 0 && b.num_resources() < num_resources => {
                open = Some(Edge::Resource(b.add_resource()));
            }
            SEP_PARTY if b.num_parties() < num_parties => {
                open = Some(Edge::Party(b.add_party()));
            }
            SEP_ENTRY => {
                let v = usize::try_from(words.next()?).ok().filter(|&v| v < num_agents)?;
                let w = f64::from_bits(words.next()?);
                if !w.is_finite() || w <= 0.0 {
                    return None;
                }
                match open? {
                    Edge::Resource(i) => b.set_consumption(i, agents[v], w),
                    Edge::Party(k) => b.set_benefit(k, agents[v], w),
                };
            }
            _ => return None,
        }
    }
    if b.num_resources() != num_resources || b.num_parties() != num_parties {
        return None;
    }
    b.build().ok()
}

/// The hyperedge an encoding's entries are currently filling.
#[derive(Clone, Copy)]
enum Edge {
    Resource(ResourceId),
    Party(PartyId),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-cycle: agents 0-1-2-3-0, one resource per edge, one party per
    /// agent over its closed neighbourhood.
    fn cycle4() -> MaxMinInstance {
        let mut b = InstanceBuilder::new();
        let v = b.add_agents(4);
        for e in 0..4 {
            let i = b.add_resource();
            b.set_consumption(i, v[e], 1.0);
            b.set_consumption(i, v[(e + 1) % 4], 1.0);
        }
        for a in 0..4 {
            let k = b.add_party();
            b.set_benefit(k, v[a], 1.0);
            b.set_benefit(k, v[(a + 1) % 4], 1.0);
            b.set_benefit(k, v[(a + 3) % 4], 1.0);
        }
        b.build().unwrap()
    }

    #[test]
    fn key_is_invariant_under_agent_permutation() {
        let inst = cycle4();
        let base = canonical_form(&inst);
        for rotation in 1..4 {
            let perm: Vec<usize> = (0..4).map(|v| (v + rotation) % 4).collect();
            let permuted = inst.permute_agents(&perm);
            let form = canonical_form(&permuted);
            assert_eq!(base.key, form.key, "rotation {rotation}");
            assert_eq!(base.instance, form.instance, "rotation {rotation}");
        }
    }

    #[test]
    fn key_distinguishes_different_coefficients() {
        let mut b = InstanceBuilder::new();
        let v = b.add_agents(2);
        let i = b.add_resource();
        b.set_consumption(i, v[0], 1.0);
        b.set_consumption(i, v[1], 1.0);
        let k = b.add_party();
        b.set_benefit(k, v[0], 1.0);
        let symmetric = b.build().unwrap();

        let mut b = InstanceBuilder::new();
        let v = b.add_agents(2);
        let i = b.add_resource();
        b.set_consumption(i, v[0], 1.0);
        b.set_consumption(i, v[1], 2.0);
        let k = b.add_party();
        b.set_benefit(k, v[0], 1.0);
        let skewed = b.build().unwrap();

        assert_ne!(canonical_key(&symmetric), canonical_key(&skewed));
    }

    #[test]
    fn mirror_images_share_a_key() {
        // A path 0-1-2 with benefits 1, 2 on the endpoint parties, and its
        // mirror with the benefits swapped: isomorphic via reversal.
        let build = |left: f64, right: f64| {
            let mut b = InstanceBuilder::new();
            let v = b.add_agents(3);
            for e in 0..2 {
                let i = b.add_resource();
                b.set_consumption(i, v[e], 1.0);
                b.set_consumption(i, v[e + 1], 1.0);
            }
            let k = b.add_party();
            b.set_benefit(k, v[0], left);
            let k = b.add_party();
            b.set_benefit(k, v[2], right);
            b.build().unwrap()
        };
        assert_eq!(canonical_key(&build(1.0, 2.0)), canonical_key(&build(2.0, 1.0)));
        assert_ne!(canonical_key(&build(1.0, 2.0)), canonical_key(&build(1.0, 3.0)));
    }

    #[test]
    fn canonical_instance_is_isomorphic_to_the_input() {
        let inst = cycle4();
        let form = canonical_form(&inst);
        // The canonical instance of the canonical instance is itself
        // (idempotence), and its labelling is the identity ordering.
        let again = canonical_form(&form.instance);
        assert_eq!(form.key, again.key);
        assert_eq!(form.instance, again.instance);
        // The labelling is a bijection.
        let mut seen = vec![false; inst.num_agents()];
        for &c in &form.labelling {
            assert!(!seen[c]);
            seen[c] = true;
        }
    }

    #[test]
    fn unpermute_round_trips() {
        let inst = cycle4();
        let form = canonical_form(&inst);
        // Value of canonical agent c is 10 + c; original agent v must read
        // back 10 + labelling[v].
        let canonical_values: Vec<f64> = (0..4).map(|c| 10.0 + c as f64).collect();
        let original = form.unpermute(&canonical_values);
        for (v, value) in original.iter().enumerate() {
            assert_eq!(*value, 10.0 + form.labelling[v] as f64);
        }
    }

    #[test]
    fn quasi_form_at_zero_epsilon_is_the_exact_form() {
        let inst = cycle4();
        let exact = canonical_form(&inst);
        let quasi = quasi_canonical_form(&inst, 0.0);
        assert_eq!(quasi.form, exact);
        assert_eq!(quasi.slack, 0.0);
        // Negative ε is clamped to the identity as well.
        assert_eq!(quasi_canonical_form(&inst, -1.0).form, exact);
    }

    #[test]
    fn quasi_form_merges_epsilon_close_weights() {
        // Two copies of the 2-agent instance whose coefficients differ by a
        // small relative jitter: exact keys differ, quasi keys coincide.
        let build = |a: f64, c: f64| {
            let mut b = InstanceBuilder::new();
            let v = b.add_agents(2);
            let i = b.add_resource();
            b.set_consumption(i, v[0], 1.0);
            b.set_consumption(i, v[1], a);
            let k = b.add_party();
            b.set_benefit(k, v[0], c);
            b.build().unwrap()
        };
        let lhs = build(1.0, 1.0);
        let rhs = build(1.04, 1.02);
        assert_ne!(canonical_key(&lhs), canonical_key(&rhs));
        let ql = quasi_canonical_form(&lhs, 0.1);
        let qr = quasi_canonical_form(&rhs, 0.1);
        assert_eq!(ql.form.key, qr.form.key);
        assert_eq!(ql.form.instance, qr.form.instance);
        assert_eq!(ql.slack, 0.0, "weights already on the grid incur no slack");
        assert!(qr.slack > 0.0 && qr.slack <= 0.1, "slack {}", qr.slack);
        // Weights a full bucket apart stay distinct.
        assert_ne!(ql.form.key, quasi_canonical_form(&build(1.2, 1.0), 0.1).form.key);
    }

    #[test]
    fn quantise_weight_respects_the_grid_invariants() {
        // q ≤ w < q·(1+ε) over a wide sweep of magnitudes and tolerances,
        // including values adjacent to bucket edges.
        for &epsilon in &[1e-6f64, 1e-3, 0.05, 0.5, 3.0] {
            let base = 1.0 + epsilon;
            for exp in [-200i32, -8, -1, 0, 1, 7, 150] {
                let edge = base.powi(exp);
                for w in [
                    edge,
                    edge * (1.0 + f64::EPSILON),
                    edge * (1.0 - f64::EPSILON),
                    edge * (1.0 + epsilon / 2.0),
                    1e-12,
                    0.3,
                    1.0,
                    7.25,
                    1e15,
                ] {
                    let q = quantise_weight(w, epsilon);
                    assert!(q > 0.0 && q <= w, "q={q} w={w} ε={epsilon}");
                    assert!(w / q <= base * (1.0 + 1e-12), "q={q} w={w} ε={epsilon}");
                    // Deterministic: a pure function of the bits.
                    assert_eq!(q.to_bits(), quantise_weight(w, epsilon).to_bits());
                }
            }
        }
    }

    #[test]
    fn quasi_slack_is_measured_not_assumed() {
        // The slack reported is exactly max(w/q − 1) over the coefficients.
        let mut b = InstanceBuilder::new();
        let v = b.add_agents(2);
        let i = b.add_resource();
        b.set_consumption(i, v[0], 1.0);
        b.set_consumption(i, v[1], 1.07);
        let k = b.add_party();
        b.set_benefit(k, v[0], 2.3);
        let inst = b.build().unwrap();
        let epsilon = 0.1;
        let quasi = quasi_canonical_form(&inst, epsilon);
        // black_box keeps the recomputation on the runtime code path: with
        // constant arguments the optimiser const-folds `quantise_weight`
        // (its `ln`/`powi` fold through a different evaluation than libm),
        // which is an ulp off the library's runtime result in release.
        let expected = [1.0f64, 1.07, 2.3]
            .iter()
            .map(|&w| w / quantise_weight(std::hint::black_box(w), epsilon) - 1.0)
            .fold(0.0f64, f64::max);
        assert_eq!(quasi.slack, expected);
        assert!(quasi.slack <= epsilon + 1e-12);
        // And the quantised canonical instance really carries grid weights.
        for i in quasi.form.instance.resource_ids() {
            for &(_, w) in quasi.form.instance.resource(i).members() {
                assert_eq!(w.to_bits(), quantise_weight(w, epsilon).to_bits());
            }
        }
    }

    #[test]
    fn search_branches_once_per_twin_class() {
        // The 4-cycle's twin classes are its two diagonals {0, 2} and
        // {1, 3}: one branch per class at the root, and individualising one
        // agent leaves a single twin pair to branch on once more (2 leaves,
        // against 8 without pruning).
        let (_, leaves) = canonicalise(&cycle4());
        assert_eq!(leaves, 2);

        // Twelve interchangeable agents, each on a private resource, all
        // serving one shared party: refinement cannot split them, and every
        // pair is a twin pair.  Without twin pruning the search would
        // encode 12! leaves; with it, one branch per level reaches the one
        // leaf.
        let mut b = InstanceBuilder::new();
        let v = b.add_agents(12);
        let k = b.add_party();
        for &agent in &v {
            let i = b.add_resource();
            b.set_consumption(i, agent, 1.0);
            b.set_benefit(k, agent, 1.0);
        }
        let star = b.build().unwrap();
        let (form, leaves) = canonicalise(&star);
        assert_eq!(leaves, 1);
        let reversed: Vec<usize> = (0..12).rev().collect();
        assert_eq!(form.key, canonical_key(&star.permute_agents(&reversed)));
    }

    #[test]
    fn empty_and_tiny_instances() {
        let mut b = InstanceBuilder::new();
        let v = b.add_agent();
        let i = b.add_resource();
        b.set_consumption(i, v, 1.0);
        let k = b.add_party();
        b.set_benefit(k, v, 1.0);
        let single = b.build().unwrap();
        let form = canonical_form(&single);
        assert_eq!(form.labelling, vec![0]);
        assert_eq!(form.instance, single);
    }

    #[test]
    fn a_form_rebuilds_from_its_key_and_labelling() {
        for inst in [cycle4(), cycle4().permute_agents(&[2, 0, 3, 1])] {
            let form = canonical_form(&inst);
            let rebuilt = CanonicalForm::from_parts(form.key.clone(), form.labelling.clone());
            assert_eq!(rebuilt, Some(form));
        }
        let empty = canonical_form(&InstanceBuilder::new().build().unwrap());
        assert_eq!(CanonicalForm::from_parts(empty.key.clone(), Vec::new()), Some(empty));
    }

    #[test]
    fn from_parts_rejects_bad_labellings_and_malformed_keys() {
        let form = canonical_form(&cycle4());
        let words = form.key.as_words().to_vec();
        let parts = |words: &[u64], labelling: &[usize]| {
            CanonicalForm::from_parts(CanonicalKey::from_words(words.to_vec()), labelling.to_vec())
        };
        // Not a permutation of 0..4: a repeat, an entry out of range, and a
        // labelling whose length is not the key's agent count.
        for labelling in [&[0, 1, 1, 3][..], &[0, 1, 2, 4], &[0, 1, 2], &[0, 1, 2, 3, 4]] {
            assert_eq!(parts(&words, labelling), None, "{labelling:?}");
        }
        // Every truncation of the key, and every single-word corruption to
        // a sentinel, an out-of-range index or a bad coefficient, is either
        // rejected or still a valid instance — never a panic.  A cut inside
        // the dimensions, inside an entry or before the last hyperedge is
        // always rejected.
        let last_edge = words.iter().rposition(|&w| w == SEP_PARTY).unwrap();
        for cut in 0..words.len() {
            let rebuilt = parts(&words[..cut], &form.labelling);
            if cut < 3 || cut <= last_edge || (cut - last_edge) % 3 != 1 {
                assert_eq!(rebuilt, None, "cut at {cut}");
            }
        }
        let bad_words =
            [SEP_RESOURCE, SEP_PARTY, SEP_ENTRY, 4, u64::MAX - 3, 0, (-1.0f64).to_bits()];
        for at in 0..words.len() {
            for bad in bad_words.into_iter().chain([f64::NAN.to_bits(), f64::INFINITY.to_bits()]) {
                let mut corrupted = words.clone();
                corrupted[at] = bad;
                if let Some(rebuilt) = parts(&corrupted, &form.labelling) {
                    assert_eq!(rebuilt.instance.num_agents(), 4);
                }
            }
        }
        // Dimension words that disagree with the sections.
        let mut more_resources = words.clone();
        more_resources[1] += 1;
        assert_eq!(parts(&more_resources, &form.labelling), None);
        let mut huge = words;
        huge[2] = u64::MAX / 2;
        assert_eq!(parts(&huge, &form.labelling), None);
    }
}
