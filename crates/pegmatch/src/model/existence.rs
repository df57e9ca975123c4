//! Identity uncertainty: node existence factors, components, and marginals.
//!
//! Every reference `r` induces a factor forcing *exactly one* entity set
//! containing `r` to exist (Equation 1). Entities sharing references are
//! therefore dependent; the Markov network over existence variables
//! decomposes into connected components (Equation 7), each small in practice.
//!
//! Per component we enumerate the *valid configurations* — exact covers of
//! the component's references by its entity sets — with weight
//! `∏_{s chosen} p_s(s.x=T)^{|s|}` (one factor contribution per member
//! reference), and precompute superset-sum tables so that any marginal
//! `Pr(VM.n = T)` is a constant-time lookup (the paper's "component
//! probabilities" offline step).

use crate::error::PegError;
use graphstore::hash::FxHashMap;
use graphstore::{EntityId, RefGraph, RefId};
use std::sync::Arc;

/// What to do when a component's valid configurations exceed the budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ComponentFallback {
    /// Fail construction with [`PegError::ComponentTooLarge`].
    Error,
    /// Approximate the component by self-normalized importance sampling
    /// over exact covers — the paper's "employ an approximate inference
    /// technique" escape hatch. Marginals become consistent estimates
    /// rather than exact values.
    Sample {
        /// Number of sampled configurations.
        samples: usize,
        /// RNG seed (deterministic results).
        seed: u64,
    },
}

/// Budget limits for exact component enumeration.
///
/// Components exceeding `max_configs_per_component` either fail with
/// [`PegError::ComponentTooLarge`] or fall back to sampling, per
/// [`ComponentFallback`]. `max_sets_per_component` is a hard structural
/// limit (bitmask width) that sampling does not lift.
#[derive(Clone, Copy, Debug)]
pub struct ExistenceOptions {
    /// Maximum entity sets per component (bitmask width; hard cap 63).
    pub max_sets_per_component: usize,
    /// Maximum valid configurations enumerated per component.
    pub max_configs_per_component: usize,
    /// Behaviour when the configuration budget is exceeded.
    pub fallback: ComponentFallback,
}

impl Default for ExistenceOptions {
    fn default() -> Self {
        Self {
            max_sets_per_component: 24,
            max_configs_per_component: 1 << 16,
            fallback: ComponentFallback::Error,
        }
    }
}

/// One non-trivial component of the existence Markov network.
#[derive(Clone, Debug)]
struct Component {
    /// Entity nodes in this component (positions index the bitmasks).
    sets: Vec<EntityId>,
    /// Valid configurations: (chosen-set bitmask, unnormalized weight).
    configs: Vec<(u64, f64)>,
    /// Partition function: total weight of all valid configurations.
    z: f64,
    /// Dense superset sums (`table[mask] = Σ_{config ⊇ mask} w`), present
    /// when `sets.len()` is small enough for a dense table.
    dense: Option<Vec<f64>>,
    /// True when `configs` are sampled estimates (importance sampling
    /// fallback) rather than the exact enumeration.
    sampled: bool,
}

const DENSE_LIMIT: usize = 16;

impl Component {
    /// Marginal probability that all sets in `mask` exist simultaneously.
    fn marginal(&self, mask: u64) -> f64 {
        if let Some(dense) = &self.dense {
            return dense[mask as usize] / self.z;
        }
        let sum: f64 = self.configs.iter().filter(|(c, _)| c & mask == mask).map(|(_, w)| w).sum();
        sum / self.z
    }

    /// Enumerates the component of `members` (ascending entity ids; bit
    /// `i` of a configuration is `members[i]`), reading each member's
    /// sorted references and raw weight through `refs_of` / `weight_of`.
    fn enumerate<'a>(
        members: &[u32],
        refs_of: impl Fn(u32) -> &'a [RefId],
        weight_of: impl Fn(u32) -> f64,
        opts: &ExistenceOptions,
    ) -> Result<Component, PegError> {
        if members.len() > opts.max_sets_per_component || members.len() > 63 {
            return Err(PegError::ComponentTooLarge {
                sets: members.len(),
                limit: opts.max_sets_per_component.min(63),
            });
        }
        // Local reference universe for the component.
        let mut local_refs: Vec<RefId> =
            members.iter().flat_map(|&m| refs_of(m).iter().copied()).collect();
        local_refs.sort_unstable();
        local_refs.dedup();
        if local_refs.len() > 63 {
            return Err(PegError::ComponentTooLarge {
                sets: members.len(),
                limit: opts.max_sets_per_component.min(63),
            });
        }
        let ref_pos: FxHashMap<RefId, u8> =
            local_refs.iter().enumerate().map(|(i, &r)| (r, i as u8)).collect();
        let full: u64 =
            if local_refs.len() == 64 { u64::MAX } else { (1u64 << local_refs.len()) - 1 };
        // Per member: reference mask and per-reference weight factor.
        let masks: Vec<u64> = members
            .iter()
            .map(|&m| refs_of(m).iter().fold(0u64, |acc, r| acc | 1u64 << ref_pos[r]))
            .collect();
        let weights: Vec<f64> =
            members.iter().map(|&m| weight_of(m).powi(refs_of(m).len() as i32)).collect();
        // Sets containing each local reference.
        let mut by_ref: Vec<Vec<usize>> = vec![Vec::new(); local_refs.len()];
        for (si, mask) in masks.iter().enumerate() {
            let mut m = *mask;
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                by_ref[bit].push(si);
                m &= m - 1;
            }
        }
        // Backtracking exact cover, with sampling fallback on blowup.
        let enumerated =
            enumerate_configs(&masks, &weights, &by_ref, full, opts.max_configs_per_component);
        let (configs, sampled) = match enumerated {
            Some(configs) => (configs, false),
            None => match opts.fallback {
                ComponentFallback::Error => {
                    return Err(PegError::ComponentTooLarge {
                        sets: members.len(),
                        limit: opts.max_configs_per_component,
                    })
                }
                ComponentFallback::Sample { samples, seed } => {
                    (sample_configs(&masks, &weights, &by_ref, full, samples, seed)?, true)
                }
            },
        };
        let z: f64 = configs.iter().map(|(_, w)| w).sum();
        if z <= 0.0 {
            return Err(PegError::Invalid(
                "existence component has zero total weight (all configurations impossible)".into(),
            ));
        }
        let dense = if members.len() <= DENSE_LIMIT {
            let size = 1usize << members.len();
            let mut table = vec![0.0f64; size];
            for &(c, w) in &configs {
                table[c as usize] += w;
            }
            // Superset-sum (zeta transform over supersets).
            for bit in 0..members.len() {
                for mask in 0..size {
                    if mask & (1 << bit) == 0 {
                        table[mask] += table[mask | (1 << bit)];
                    }
                }
            }
            Some(table)
        } else {
            None
        };
        Ok(Component {
            sets: members.iter().map(|&m| EntityId(m)).collect(),
            configs,
            z,
            dense,
            sampled,
        })
    }
}

/// Exact identity-uncertainty semantics for a PEG.
///
/// `Prn(M) = Pr(VM.n = T)` factorizes over components; nodes outside any
/// non-trivial component exist in every possible world (probability 1).
#[derive(Clone, Debug)]
pub struct ExistenceModel {
    /// Component index per entity node; `u32::MAX` marks trivial nodes.
    node_component: Vec<u32>,
    /// Bit position of each node within its component (garbage if trivial).
    node_pos: Vec<u8>,
    /// Components behind `Arc`: immutable once built, so projections
    /// ([`ExistenceModel::project`]) share them instead of copying their
    /// configuration and superset-sum tables per shard.
    components: Vec<Arc<Component>>,
    /// True when at least one component uses sampled marginals.
    approximate: bool,
}

/// Marker for nodes outside any non-trivial component.
const TRIVIAL: u32 = u32::MAX;

/// Marker for dead (tombstoned) nodes: they exist in *no* possible world.
const DEAD: u32 = u32::MAX - 1;

/// Distinct components [`ExistenceModel::prn`] groups without touching the
/// heap. A joined pair of maximal index paths has at most 8 nodes.
const PRN_INLINE: usize = 8;

/// Result of [`ExistenceModel::rebuild_incremental`]: the new model plus
/// which nodes' existence semantics differ from the previous model's.
pub struct ExistenceDelta {
    /// The rebuilt model.
    pub model: ExistenceModel,
    /// Per node of the *new* model: true when its marginals may differ
    /// from the previous model's (component re-enumerated, membership or
    /// liveness changed, or the node is new). Only a regrouped node can be
    /// set.
    pub changed: Vec<bool>,
    /// Components carried over by `Arc` instead of re-enumerated.
    pub reused_components: usize,
}

impl ExistenceModel {
    /// Builds the model from per-entity reference memberships and raw factor
    /// weights.
    ///
    /// * `node_refs[i]` — sorted references of entity node `i`,
    /// * `node_weights[i]` — raw factor value `p_s(s.x = T)` of node `i`.
    pub fn build(
        node_refs: &[impl AsRef<[RefId]>],
        node_weights: &[f64],
        opts: &ExistenceOptions,
    ) -> Result<Self, PegError> {
        Self::build_ext(node_refs, node_weights, None, opts)
    }

    /// [`ExistenceModel::build`] over a graph with tombstoned entities:
    /// `dead[i]` excludes node `i` from the exact-cover factorization
    /// entirely — it exists in *no* possible world (`prn` including it is
    /// 0) and its references impose no cover constraint.
    pub fn build_with_dead(
        node_refs: &[impl AsRef<[RefId]>],
        node_weights: &[f64],
        dead: &[bool],
        opts: &ExistenceOptions,
    ) -> Result<Self, PegError> {
        Self::build_ext(node_refs, node_weights, Some(dead), opts)
    }

    /// Rebuilds after a mutation, by component: Equation 7 normalizes
    /// per connected component, so a batch can change only the components
    /// its touched entities reach. `refs` is the mutated network (entity
    /// ids are its creation-log positions) and `touched` the sorted entity
    /// ids an op batch reported ([`RefGraph::apply_all`]).
    ///
    /// The seeds are the touched entities, the entities appended since
    /// `prev`, and every member of a previous component holding a touched
    /// entity — which is what regroups a component a deleted set or
    /// reference splits. From them, groups grow over live entities through
    /// shared references ([`RefGraph::singleton_entity`],
    /// [`RefGraph::sets_containing`]), and a previous component a group
    /// reaches is regrouped whole. Every other component keeps its slot
    /// and its `Arc`; `node_component` and `node_pos` are copied, then
    /// patched at the regrouped entities. A regrouped component whose
    /// member list equals a previous component's, with no member touched,
    /// also carries over by `Arc`; the rest re-run the deterministic
    /// enumeration [`ExistenceModel::build_with_dead`] runs.
    ///
    /// Component slots may differ from a fresh build's; the partition and
    /// every answer of `prn`, `prn_single` and `always_exists` are
    /// bit-identical to it, and the build errs exactly when a fresh one
    /// does. `changed` is set only among the regrouped entities.
    pub fn rebuild_incremental(
        refs: &RefGraph,
        opts: &ExistenceOptions,
        prev: &ExistenceModel,
        touched: &[u32],
    ) -> Result<ExistenceDelta, PegError> {
        debug_assert!(touched.is_sorted(), "touched ids come sorted");
        let n = refs.n_entities();
        let prev_n = prev.node_component.len();
        let live = |v: u32| !refs.entity_is_dead(v as usize);
        let is_touched = |v: u32| touched.binary_search(&v).is_ok();

        // The regrouped entities: the seeds, closed over shared references
        // of live entities and over the previous components they fall in.
        let mut region: Vec<u32> = touched.iter().copied().filter(|&t| (t as usize) < n).collect();
        region.extend(prev_n as u32..n as u32);
        let mut pending = vec![false; n];
        region.retain(|&v| !std::mem::replace(&mut pending[v as usize], true));
        let mut dropped = vec![false; prev.components.len()];
        let mut reached: Vec<u32> = Vec::new();
        let mut at = 0;
        while at < region.len() {
            let v = region[at];
            at += 1;
            reached.clear();
            if let Some((c, comp)) = prev.component_at(v) {
                if !std::mem::replace(&mut dropped[c as usize], true) {
                    reached.extend(comp.sets.iter().map(|m| m.0));
                }
            }
            if live(v) {
                reached.extend(sharers(refs, v));
            }
            for &u in &reached {
                if !std::mem::replace(&mut pending[u as usize], true) {
                    region.push(u);
                }
            }
        }

        let mut node_component = prev.node_component.clone();
        node_component.resize(n, TRIVIAL);
        let mut node_pos = prev.node_pos.clone();
        node_pos.resize(n, 0);
        let mut slots: Vec<Option<Arc<Component>>> = prev
            .components
            .iter()
            .zip(&dropped)
            .map(|(c, &d)| (!d).then(|| Arc::clone(c)))
            .collect();
        let mut reused_components = slots.iter().flatten().count();
        // Freed slots, smallest last: new components fill them first.
        let mut free: Vec<u32> =
            (0..dropped.len() as u32).filter(|&c| dropped[c as usize]).rev().collect();
        let mut changed = vec![false; n];
        let mut members: Vec<u32> = Vec::new();
        for &v in &region {
            // `pending` clears as entities are grouped.
            if !std::mem::replace(&mut pending[v as usize], false) {
                continue;
            }
            if !live(v) {
                node_component[v as usize] = DEAD;
                changed[v as usize] = prev.node_component.get(v as usize) != Some(&DEAD);
                continue;
            }
            members.clear();
            members.push(v);
            let mut next = 0;
            while next < members.len() {
                let x = members[next];
                next += 1;
                for u in sharers(refs, x) {
                    if std::mem::replace(&mut pending[u as usize], false) {
                        members.push(u);
                    }
                }
            }
            if members.len() == 1 {
                node_component[v as usize] = TRIVIAL;
                changed[v as usize] = prev.node_component.get(v as usize) != Some(&TRIVIAL);
                continue;
            }
            members.sort_unstable();
            let carried = prev.component_at(members[0]).map(|(_, c)| c).filter(|c| {
                c.sets.iter().map(|m| m.0).eq(members.iter().copied())
                    && !members.iter().any(|&m| is_touched(m))
            });
            let comp = match carried {
                Some(c) => Arc::clone(c),
                None => Arc::new(Component::enumerate(
                    &members,
                    |m| refs.entity_refs(m as usize),
                    |m| refs.entity_weight(m as usize),
                    opts,
                )?),
            };
            reused_components += carried.is_some() as usize;
            let slot = free.pop().unwrap_or_else(|| {
                slots.push(None);
                slots.len() as u32 - 1
            });
            for (pos, &m) in members.iter().enumerate() {
                node_component[m as usize] = slot;
                node_pos[m as usize] = pos as u8;
                changed[m as usize] = carried.is_none();
            }
            slots[slot as usize] = Some(comp);
        }
        // Slots stay dense: the last components move into the slots left
        // free.
        for &hole in free.iter().rev() {
            while slots.last().is_some_and(Option::is_none) {
                slots.pop();
            }
            if hole as usize >= slots.len() {
                break;
            }
            let moved = slots.pop().flatten().expect("the last slot is filled");
            for m in &moved.sets {
                node_component[m.idx()] = hole;
            }
            slots[hole as usize] = Some(moved);
        }
        while slots.last().is_some_and(Option::is_none) {
            slots.pop();
        }
        debug_assert!(slots.iter().all(Option::is_some), "component slots stay dense");
        let components: Vec<Arc<Component>> = slots.into_iter().flatten().collect();
        let approximate = components.iter().any(|c| c.sampled);
        let model = ExistenceModel { node_component, node_pos, components, approximate };
        Ok(ExistenceDelta { model, changed, reused_components })
    }

    /// The component holding node `v`, with its slot, when `v` is one of
    /// this model's nodes and neither trivial nor dead.
    fn component_at(&self, v: u32) -> Option<(u32, &Arc<Component>)> {
        let c = *self.node_component.get(v as usize)?;
        (c != TRIVIAL && c != DEAD).then(|| (c, &self.components[c as usize]))
    }

    /// Shared core of the whole-graph build paths: union-find over every
    /// live entity, then one enumeration per group.
    fn build_ext(
        node_refs: &[impl AsRef<[RefId]>],
        node_weights: &[f64],
        dead: Option<&[bool]>,
        opts: &ExistenceOptions,
    ) -> Result<Self, PegError> {
        assert_eq!(node_refs.len(), node_weights.len());
        let n = node_refs.len();
        let is_dead = |i: usize| dead.is_some_and(|d| d[i]);

        // Union-find over *live* entity nodes through shared references.
        let mut ref_owner: FxHashMap<RefId, u32> = FxHashMap::default();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for (i, refs) in node_refs.iter().enumerate() {
            if is_dead(i) {
                continue;
            }
            for &r in refs.as_ref() {
                match ref_owner.get(&r) {
                    None => {
                        ref_owner.insert(r, i as u32);
                    }
                    Some(&j) => {
                        let (a, b) = (find(&mut parent, i as u32), find(&mut parent, j));
                        if a != b {
                            parent[a as usize] = b;
                        }
                    }
                }
            }
        }

        // Group live nodes per root.
        let mut groups: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        for i in 0..n as u32 {
            if is_dead(i as usize) {
                continue;
            }
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(i);
        }

        let mut node_component = vec![TRIVIAL; n];
        for (i, c) in node_component.iter_mut().enumerate() {
            if is_dead(i) {
                *c = DEAD;
            }
        }
        let mut node_pos = vec![0u8; n];
        let mut components = Vec::new();

        for (_, members) in groups {
            if members.len() == 1 {
                continue; // Trivial: exists in every world.
            }
            let comp = Component::enumerate(
                &members,
                |m| node_refs[m as usize].as_ref(),
                |m| node_weights[m as usize],
                opts,
            )?;
            let comp_idx = components.len() as u32;
            for (pos, &m) in members.iter().enumerate() {
                node_component[m as usize] = comp_idx;
                node_pos[m as usize] = pos as u8;
            }
            components.push(Arc::new(comp));
        }

        let approximate = components.iter().any(|c| c.sampled);
        Ok(Self { node_component, node_pos, components, approximate })
    }

    /// True when any component's marginals are sampled estimates rather
    /// than exact values.
    pub fn is_approximate(&self) -> bool {
        self.approximate
    }

    /// Number of non-trivial components.
    pub fn n_components(&self) -> usize {
        self.components.len()
    }

    /// True when `v` exists in every possible world.
    #[inline]
    pub fn always_exists(&self, v: EntityId) -> bool {
        self.node_component[v.idx()] == TRIVIAL
    }

    /// True when `v` is tombstoned: it exists in *no* possible world.
    #[inline]
    pub fn is_dead(&self, v: EntityId) -> bool {
        self.node_component[v.idx()] == DEAD
    }

    /// The component index of `v`, if any (trivial and dead nodes have
    /// none).
    #[inline]
    pub fn component_of(&self, v: EntityId) -> Option<u32> {
        let c = self.node_component[v.idx()];
        (c != TRIVIAL && c != DEAD).then_some(c)
    }

    /// Marginal existence probability of a single node.
    pub fn prn_single(&self, v: EntityId) -> f64 {
        let c = self.node_component[v.idx()];
        if c == TRIVIAL {
            return 1.0;
        }
        if c == DEAD {
            return 0.0;
        }
        let comp = &self.components[c as usize];
        comp.marginal(1u64 << self.node_pos[v.idx()])
    }

    /// `Prn(M) = Pr(VM.n = T)`: the probability that all `nodes` exist
    /// simultaneously. Returns 0 when two nodes of the same component cannot
    /// co-occur (e.g. they share a reference).
    pub fn prn(&self, nodes: &[EntityId]) -> f64 {
        // Group required nodes into per-component masks, in order of first
        // appearance (the product below is taken in that order, so it is
        // part of the f64-bit-exact contract). Matches are small: the
        // masks live in a fixed inline buffer scanned linearly, and only a
        // node list touching more than `PRN_INLINE` distinct components
        // spills to the heap (`Vec::new` itself does not allocate).
        let mut inline = [(0u32, 0u64); PRN_INLINE];
        let mut len = 0usize;
        let mut spill: Vec<(u32, u64)> = Vec::new();
        for &v in nodes {
            let c = self.node_component[v.idx()];
            if c == TRIVIAL {
                continue;
            }
            if c == DEAD {
                return 0.0;
            }
            let bit = 1u64 << self.node_pos[v.idx()];
            let seen = inline[..len].iter_mut().chain(spill.iter_mut()).find(|(ci, _)| *ci == c);
            match seen {
                Some((_, m)) => *m |= bit,
                None if len < PRN_INLINE => {
                    inline[len] = (c, bit);
                    len += 1;
                }
                None => spill.push((c, bit)),
            }
        }
        let mut p = 1.0;
        for &(c, mask) in inline[..len].iter().chain(&spill) {
            p *= self.components[c as usize].marginal(mask);
            if p == 0.0 {
                break;
            }
        }
        p
    }

    /// Projects the model onto a node subset: `to_source[i]` is the source
    /// model's node id of local node `i` (callers pass a strictly
    /// increasing list, as a sharded store's monotone renumbering does).
    ///
    /// Components touched by the subset are carried over *whole* and
    /// shared by reference (`Arc`) — their configuration tables and
    /// partition functions are literally the source model's, not copies —
    /// so every marginal a projected node can ask for
    /// ([`ExistenceModel::prn`], [`ExistenceModel::prn_single`]) is
    /// bit-identical to the source model's answer for the corresponding
    /// source nodes, and N projections cost N index maps, not N copies of
    /// the component tables. This is what makes per-shard path probabilities
    /// (`Prn`) exact even when a component straddles a shard boundary:
    /// the component travels with every shard that sees any of it.
    ///
    /// Caveat: the projected components' `sets` keep *source* ids, so
    /// [`ExistenceModel::component_configs`] on a projection describes the
    /// source numbering. `prn`/`prn_single`/`always_exists` never consult
    /// `sets` and speak the local numbering.
    pub fn project(&self, to_source: &[u32]) -> ExistenceModel {
        let mut comp_map: FxHashMap<u32, u32> = FxHashMap::default();
        let mut components: Vec<Arc<Component>> = Vec::new();
        let mut node_component = vec![TRIVIAL; to_source.len()];
        let mut node_pos = vec![0u8; to_source.len()];
        for (i, &src) in to_source.iter().enumerate() {
            let c = self.node_component[src as usize];
            if c == TRIVIAL {
                continue;
            }
            if c == DEAD {
                node_component[i] = DEAD;
                continue;
            }
            let local_c = *comp_map.entry(c).or_insert_with(|| {
                components.push(self.components[c as usize].clone());
                (components.len() - 1) as u32
            });
            node_component[i] = local_c;
            node_pos[i] = self.node_pos[src as usize];
        }
        ExistenceModel { node_component, node_pos, components, approximate: self.approximate }
    }

    /// Enumerates, per non-trivial component, its entity sets and valid
    /// configurations `(chosen mask, normalized probability)` — used by the
    /// possible-world enumerator.
    #[allow(clippy::type_complexity)]
    pub fn component_configs(&self) -> Vec<(Vec<EntityId>, Vec<(u64, f64)>)> {
        self.components
            .iter()
            .map(|c| {
                let configs = c.configs.iter().map(|&(m, w)| (m, w / c.z)).collect();
                (c.sets.clone(), configs)
            })
            .collect()
    }

    /// All trivially-existing nodes among `0..n`.
    pub fn trivial_nodes(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.node_component
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == TRIVIAL)
            .map(|(i, _)| EntityId(i as u32))
    }
}

/// The live entities holding one of entity `v`'s references, `v` itself
/// included when live: its neighbours in the existence Markov network.
fn sharers(refs: &RefGraph, v: u32) -> impl Iterator<Item = u32> + '_ {
    refs.entity_refs(v as usize)
        .iter()
        .flat_map(move |&r| {
            std::iter::once(refs.singleton_entity(r)).chain(refs.sets_containing(r).iter().copied())
        })
        .filter(move |&s| !refs.entity_is_dead(s as usize))
}

/// Exhaustive exact-cover enumeration; `None` when the budget is exceeded.
fn enumerate_configs(
    masks: &[u64],
    weights: &[f64],
    by_ref: &[Vec<usize>],
    full: u64,
    budget: usize,
) -> Option<Vec<(u64, f64)>> {
    let mut configs: Vec<(u64, f64)> = Vec::new();
    let mut stack: Vec<(u64, u64, f64)> = vec![(0, 0, 1.0)];
    while let Some((covered, chosen, weight)) = stack.pop() {
        if covered == full {
            if weight > 0.0 {
                configs.push((chosen, weight));
                if configs.len() > budget {
                    return None;
                }
            }
            continue;
        }
        let next_ref = (!covered & full).trailing_zeros() as usize;
        for &si in &by_ref[next_ref] {
            if masks[si] & covered == 0 {
                stack.push((covered | masks[si], chosen | 1u64 << si, weight * weights[si]));
            }
        }
    }
    Some(configs)
}

/// Self-normalized importance sampling over exact covers.
///
/// Each sample walks the cover tree, always choosing a set for the lowest
/// uncovered reference with probability proportional to its factor weight.
/// The resulting importance weight simplifies to the product of the
/// candidate-weight sums along the walk, so storing `(mask, weight)` pairs
/// makes [`Component::marginal`]'s superset sum a consistent estimator of
/// the exact marginal.
fn sample_configs(
    masks: &[u64],
    weights: &[f64],
    by_ref: &[Vec<usize>],
    full: u64,
    n_samples: usize,
    seed: u64,
) -> Result<Vec<(u64, f64)>, PegError> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n_samples);
    let mut dead_ends = 0usize;
    while out.len() < n_samples {
        let mut covered = 0u64;
        let mut chosen = 0u64;
        let mut importance = 1.0f64;
        let ok = loop {
            if covered == full {
                break true;
            }
            let next_ref = (!covered & full).trailing_zeros() as usize;
            let candidates: Vec<usize> = by_ref[next_ref]
                .iter()
                .copied()
                .filter(|&si| masks[si] & covered == 0 && weights[si] > 0.0)
                .collect();
            let total: f64 = candidates.iter().map(|&si| weights[si]).sum();
            if candidates.is_empty() || total <= 0.0 {
                break false; // Dead end: restart this sample.
            }
            let mut x = rng.gen_range(0.0..total);
            let mut pick = candidates[candidates.len() - 1];
            for &si in &candidates {
                if x < weights[si] {
                    pick = si;
                    break;
                }
                x -= weights[si];
            }
            covered |= masks[pick];
            chosen |= 1u64 << pick;
            importance *= total;
        };
        if ok {
            out.push((chosen, importance));
        } else {
            dead_ends += 1;
            if dead_ends > 50 * n_samples {
                return Err(PegError::Invalid(
                    "existence sampling stuck: no valid configurations reachable".into(),
                ));
            }
        }
    }
    let z: f64 = out.iter().map(|(_, w)| w).sum();
    if z <= 0.0 {
        return Err(PegError::Invalid(
            "existence component has zero total weight (all configurations impossible)".into(),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 1: refs r3, r4 with singletons {r3}, {r4} and pair {r3,r4}
    /// with posterior 0.8. Entity ids: 0..3 singletons r1..r4, 4 = {r3,r4}.
    fn figure1_model() -> ExistenceModel {
        let node_refs = vec![
            vec![RefId(0)],
            vec![RefId(1)],
            vec![RefId(2)],
            vec![RefId(3)],
            vec![RefId(2), RefId(3)],
        ];
        let q: f64 = 0.8;
        let node_weights = vec![1.0, 1.0, (1.0 - q).sqrt(), (1.0 - q).sqrt(), q.sqrt()];
        ExistenceModel::build(&node_refs, &node_weights, &ExistenceOptions::default()).unwrap()
    }

    #[test]
    fn figure1_posteriors() {
        let m = figure1_model();
        assert_eq!(m.n_components(), 1);
        assert!(m.always_exists(EntityId(0)));
        assert!(m.always_exists(EntityId(1)));
        assert!(!m.always_exists(EntityId(2)));
        // Merged node s34 exists with probability 0.8.
        assert!((m.prn_single(EntityId(4)) - 0.8).abs() < 1e-12);
        // Unmerged r3 (and r4) exist with probability 0.2.
        assert!((m.prn_single(EntityId(2)) - 0.2).abs() < 1e-12);
        assert!((m.prn_single(EntityId(3)) - 0.2).abs() < 1e-12);
        // r3 and r4 co-exist exactly when unmerged.
        assert!((m.prn(&[EntityId(2), EntityId(3)]) - 0.2).abs() < 1e-12);
        // r3 and s34 share a reference: never co-exist.
        assert_eq!(m.prn(&[EntityId(2), EntityId(4)]), 0.0);
        // Trivial nodes contribute factor 1.
        assert!((m.prn(&[EntityId(0), EntityId(4)]) - 0.8).abs() < 1e-12);
        assert_eq!(m.prn(&[]), 1.0);
    }

    #[test]
    fn three_way_overlap() {
        // refs a,b with sets {a}, {b}, {a,b}: configs {a}{b} and {ab}.
        let node_refs = vec![vec![RefId(0)], vec![RefId(1)], vec![RefId(0), RefId(1)]];
        let node_weights = vec![0.5, 0.5, 0.5];
        let m =
            ExistenceModel::build(&node_refs, &node_weights, &ExistenceOptions::default()).unwrap();
        // Weights: unmerged 0.25, merged 0.25 -> each 0.5 after normalizing.
        assert!((m.prn_single(EntityId(2)) - 0.5).abs() < 1e-12);
        assert!((m.prn(&[EntityId(0), EntityId(1)]) - 0.5).abs() < 1e-12);
        assert_eq!(m.prn(&[EntityId(0), EntityId(2)]), 0.0);
    }

    #[test]
    fn chain_of_overlapping_pairs() {
        // refs 0,1,2; sets: {0},{1},{2},{0,1},{1,2}.
        // Exact covers: {0}{1}{2}; {0,1}{2}; {0}{1,2}.
        let node_refs = vec![
            vec![RefId(0)],
            vec![RefId(1)],
            vec![RefId(2)],
            vec![RefId(0), RefId(1)],
            vec![RefId(1), RefId(2)],
        ];
        let w = vec![1.0, 1.0, 1.0, 1.0, 1.0];
        let m = ExistenceModel::build(&node_refs, &w, &ExistenceOptions::default()).unwrap();
        // Three equally weighted covers.
        assert!((m.prn_single(EntityId(3)) - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.prn_single(EntityId(1)) - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.prn_single(EntityId(0)) - 2.0 / 3.0).abs() < 1e-12);
        // {0,1} and {1,2} overlap on ref 1.
        assert_eq!(m.prn(&[EntityId(3), EntityId(4)]), 0.0);
        // {0} with {1,2}: one cover.
        assert!((m.prn(&[EntityId(0), EntityId(4)]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn component_limit_enforced() {
        // A star of pair sets around ref 0 grows one component.
        let mut node_refs = vec![vec![RefId(0)]];
        for i in 1..10u32 {
            node_refs.push(vec![RefId(i)]);
            node_refs.push(vec![RefId(0), RefId(i)]);
        }
        let w = vec![0.5; node_refs.len()];
        let opts = ExistenceOptions { max_sets_per_component: 8, ..Default::default() };
        let err = ExistenceModel::build(&node_refs, &w, &opts).unwrap_err();
        assert!(matches!(err, PegError::ComponentTooLarge { .. }));
        // Default limits accept it.
        assert!(ExistenceModel::build(&node_refs, &w, &ExistenceOptions::default()).is_ok());
    }

    #[test]
    fn dense_and_sparse_marginals_agree() {
        // Force the sparse path by lowering DENSE_LIMIT indirectly: use a
        // component slightly above the dense limit? DENSE_LIMIT is private;
        // instead compare dense results against direct config summation.
        let m = figure1_model();
        let comp = &m.components[0];
        for mask in 0..(1u64 << comp.sets.len()) {
            let direct: f64 =
                comp.configs.iter().filter(|(c, _)| c & mask == mask).map(|(_, w)| w).sum::<f64>()
                    / comp.z;
            assert!((comp.marginal(mask) - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn projection_marginals_are_bit_identical() {
        let m = figure1_model();
        // Keep nodes {1, 3, 4} (→ local ids 0, 1, 2): one trivial node and
        // two members of the r3/r4 component — the component must travel
        // whole even though member 2 stays behind.
        let p = m.project(&[1, 3, 4]);
        assert!(p.always_exists(EntityId(0)));
        assert!(!p.always_exists(EntityId(1)));
        assert_eq!(p.n_components(), 1);
        assert_eq!(p.prn_single(EntityId(1)).to_bits(), m.prn_single(EntityId(3)).to_bits());
        assert_eq!(p.prn_single(EntityId(2)).to_bits(), m.prn_single(EntityId(4)).to_bits());
        // r4 and s34 share a reference: still never co-exist.
        assert_eq!(p.prn(&[EntityId(1), EntityId(2)]), 0.0);
        assert_eq!(
            p.prn(&[EntityId(0), EntityId(2)]).to_bits(),
            m.prn(&[EntityId(1), EntityId(4)]).to_bits()
        );
        // Empty projection is valid and trivially exact.
        let none = m.project(&[]);
        assert_eq!(none.n_components(), 0);
    }

    /// The heap-grouping `prn` this module shipped before the inline
    /// buffer: the oracle for component order and product bits.
    fn prn_reference(m: &ExistenceModel, nodes: &[EntityId]) -> f64 {
        let mut masks: Vec<(u32, u64)> = Vec::new();
        for &v in nodes {
            let c = m.node_component[v.idx()];
            if c == TRIVIAL {
                continue;
            }
            if c == DEAD {
                return 0.0;
            }
            let bit = 1u64 << m.node_pos[v.idx()];
            match masks.iter_mut().find(|(ci, _)| *ci == c) {
                Some((_, mask)) => *mask |= bit,
                None => masks.push((c, bit)),
            }
        }
        let mut p = 1.0;
        for (c, mask) in masks {
            p *= m.components[c as usize].marginal(mask);
            if p == 0.0 {
                break;
            }
        }
        p
    }

    #[test]
    fn inline_prn_equals_heap_prn_bitwise() {
        // 12 two-reference components (sets {a}, {b}, {a,b}, distinct
        // posteriors), 4 trivial nodes and one tombstone: lists longer
        // than PRN_INLINE distinct components exercise the spill.
        let (mut node_refs, mut weights) = (Vec::new(), Vec::new());
        for c in 0..12u32 {
            let q = 0.15 + 0.06 * c as f64;
            node_refs.extend([
                vec![RefId(2 * c)],
                vec![RefId(2 * c + 1)],
                vec![RefId(2 * c), RefId(2 * c + 1)],
            ]);
            weights.extend([(1.0 - q).sqrt(), (1.0 - q).sqrt(), q.sqrt()]);
        }
        for t in 0..5u32 {
            node_refs.push(vec![RefId(100 + t)]);
            weights.push(1.0);
        }
        let n = node_refs.len();
        let mut dead = vec![false; n];
        dead[n - 1] = true;
        let m = ExistenceModel::build_with_dead(
            &node_refs,
            &weights,
            &dead,
            &ExistenceOptions::default(),
        )
        .unwrap();
        assert_eq!(m.n_components(), 12);

        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (mut spilled, mut nonzero) = (0usize, 0usize);
        for _ in 0..20_000 {
            let len = (next() % 15) as usize;
            // Mostly live nodes; the tombstone shows up now and then.
            let nodes: Vec<EntityId> =
                (0..len).map(|_| EntityId((next() % n as u64) as u32)).collect();
            let (got, want) = (m.prn(&nodes), prn_reference(&m, &nodes));
            assert_eq!(got.to_bits(), want.to_bits(), "{nodes:?}");
            let mut comps: Vec<u32> = nodes.iter().filter_map(|&v| m.component_of(v)).collect();
            comps.sort_unstable();
            comps.dedup();
            spilled += (comps.len() > PRN_INLINE && got > 0.0) as usize;
            nonzero += (got > 0.0) as usize;
        }
        // Both the inline-only and the spilled product order were compared
        // on non-degenerate values.
        assert!(spilled > 0 && nonzero > spilled, "spilled={spilled} nonzero={nonzero}");
    }

    #[test]
    fn zero_weight_component_rejected() {
        let node_refs = vec![vec![RefId(0)], vec![RefId(1)], vec![RefId(0), RefId(1)]];
        // Both covers impossible: singletons have weight 0 and pair has 0.
        let w = vec![0.0, 0.0, 0.0];
        let err = ExistenceModel::build(&node_refs, &w, &ExistenceOptions::default()).unwrap_err();
        assert!(matches!(err, PegError::Invalid(_)));
    }

    #[test]
    fn trivial_pair_set_without_singletons_conflict() {
        // A pair set plus its two singletons where the pair weight is 1 and
        // singletons are 0: merged world certain.
        let node_refs = vec![vec![RefId(0)], vec![RefId(1)], vec![RefId(0), RefId(1)]];
        let w = vec![0.0, 0.0, 1.0];
        let m = ExistenceModel::build(&node_refs, &w, &ExistenceOptions::default()).unwrap();
        assert_eq!(m.prn_single(EntityId(2)), 1.0);
        assert_eq!(m.prn_single(EntityId(0)), 0.0);
    }
}

#[cfg(test)]
mod sampling_tests {
    use super::*;

    /// A star component: ref 0 shared by pair sets with refs 1..=k.
    /// Exact config count is k + 1 (merge with one partner, or none).
    fn star(k: usize) -> (Vec<Vec<RefId>>, Vec<f64>) {
        let mut node_refs = vec![vec![RefId(0)]];
        let mut weights = vec![0.5];
        for i in 1..=k as u32 {
            node_refs.push(vec![RefId(i)]);
            weights.push(0.7);
            node_refs.push(vec![RefId(0), RefId(i)]);
            weights.push(0.4);
        }
        (node_refs, weights)
    }

    #[test]
    fn sampled_marginals_approach_exact() {
        let (node_refs, weights) = star(8);
        let exact =
            ExistenceModel::build(&node_refs, &weights, &ExistenceOptions::default()).unwrap();
        assert!(!exact.is_approximate());
        // Force sampling by shrinking the config budget.
        let opts = ExistenceOptions {
            max_configs_per_component: 2,
            fallback: ComponentFallback::Sample { samples: 60_000, seed: 9 },
            ..Default::default()
        };
        let approx = ExistenceModel::build(&node_refs, &weights, &opts).unwrap();
        assert!(approx.is_approximate());
        for i in 0..node_refs.len() as u32 {
            let e = exact.prn_single(EntityId(i));
            let a = approx.prn_single(EntityId(i));
            assert!((e - a).abs() < 0.02, "node {i}: exact {e} vs approx {a}");
        }
        // Joint marginals too.
        let e = exact.prn(&[EntityId(0), EntityId(1)]);
        let a = approx.prn(&[EntityId(0), EntityId(1)]);
        assert!((e - a).abs() < 0.02, "joint: exact {e} vs approx {a}");
        // Structural zeros survive sampling: conflicting sets never co-occur.
        assert_eq!(approx.prn(&[EntityId(0), EntityId(2)]), 0.0);
    }

    #[test]
    fn error_fallback_still_default() {
        let (node_refs, weights) = star(6);
        let opts = ExistenceOptions { max_configs_per_component: 2, ..Default::default() };
        let err = ExistenceModel::build(&node_refs, &weights, &opts).unwrap_err();
        assert!(matches!(err, PegError::ComponentTooLarge { .. }));
    }

    #[test]
    fn sampling_deterministic_by_seed() {
        let (node_refs, weights) = star(5);
        let opts = |seed| ExistenceOptions {
            max_configs_per_component: 2,
            fallback: ComponentFallback::Sample { samples: 2_000, seed },
            ..Default::default()
        };
        let a = ExistenceModel::build(&node_refs, &weights, &opts(1)).unwrap();
        let b = ExistenceModel::build(&node_refs, &weights, &opts(1)).unwrap();
        let c = ExistenceModel::build(&node_refs, &weights, &opts(2)).unwrap();
        assert_eq!(a.prn_single(EntityId(0)), b.prn_single(EntityId(0)));
        // Different seeds give (almost surely) different estimates.
        assert_ne!(a.prn_single(EntityId(0)), c.prn_single(EntityId(0)));
    }
}

#[cfg(test)]
mod rebuild_tests {
    use super::*;
    use graphstore::{GraphOp, LabelDist, LabelTable, RefSetId};

    impl ExistenceModel {
        /// The whole-graph rebuild [`ExistenceModel::rebuild_incremental`]
        /// replaced: union-find over every entity, then a component
        /// carried over by `Arc` when its member list matches a previous
        /// one's and no member is in `touched`. The oracle for `changed`
        /// and `reused_components`.
        fn rebuild_whole(
            node_refs: &[impl AsRef<[RefId]>],
            node_weights: &[f64],
            dead: &[bool],
            opts: &ExistenceOptions,
            prev: &ExistenceModel,
            touched: &[bool],
        ) -> Result<ExistenceDelta, PegError> {
            let mut model = Self::build_ext(node_refs, node_weights, Some(dead), opts)?;
            let mut reused = vec![false; model.components.len()];
            for (c, comp) in model.components.iter_mut().enumerate() {
                let carried = prev.components.iter().find(|p| p.sets == comp.sets);
                if let Some(p) = carried.filter(|_| !comp.sets.iter().any(|m| touched[m.idx()])) {
                    *comp = Arc::clone(p);
                    reused[c] = true;
                }
            }
            // A node changed unless its old and new states agree:
            // same-trivial, same-dead, or a component reused by Arc.
            let changed = (0..node_refs.len())
                .map(|i| match prev.node_component.get(i) {
                    None => true,
                    Some(&before) => match model.node_component[i] {
                        TRIVIAL => before != TRIVIAL,
                        DEAD => before != DEAD,
                        c => !reused[c as usize],
                    },
                })
                .collect();
            let reused_components = reused.iter().filter(|r| **r).count();
            Ok(ExistenceDelta { model, changed, reused_components })
        }
    }

    /// SplitMix64, so a failing case reproduces from its seed alone.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn prob(&mut self) -> f64 {
            0.05 + 0.9 * self.below(1000) as f64 / 1000.0
        }
    }

    /// 8–13 references, a few edges, and 3–6 pair and triple sets drawn
    /// from the first references so that they overlap into shared
    /// components.
    fn network(rng: &mut Mix) -> RefGraph {
        let mut g = RefGraph::new(LabelTable::from_names(["x"]));
        let n = 8 + rng.below(6);
        for _ in 0..n {
            g.add_ref(LabelDist::delta(graphstore::Label(0), 1));
        }
        for _ in 0..n {
            let (a, b) = (rng.below(n), rng.below(n));
            if a != b {
                let p = graphstore::EdgeProbability::Independent(rng.prob());
                g.add_edge(RefId(a as u32), RefId(b as u32), p);
            }
        }
        for _ in 0..3 + rng.below(4) {
            let members: Vec<RefId> =
                (0..2 + rng.below(2)).map(|_| RefId(rng.below(n.min(7)) as u32)).collect();
            let mut distinct = members.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() >= 2 {
                g.add_ref_set(members, rng.prob());
            }
        }
        g
    }

    /// An op of any of the eight kinds against `g`'s live references, one
    /// pick in three among the two newest, so that a batch can group
    /// references it added. One weight in four is zero, so that a
    /// component can be left without a possible configuration.
    fn op(g: &RefGraph, rng: &mut Mix) -> GraphOp {
        let alive: Vec<RefId> = g.ref_ids().filter(|&r| g.ref_is_alive(r)).collect();
        let mut pick = || match rng.below(3) {
            0 => alive[alive.len() - 1 - rng.below(alive.len().min(2))],
            _ => alive[rng.below(alive.len())],
        };
        let (a, b, c) = (pick(), pick(), pick());
        let weight = |rng: &mut Mix| if rng.below(4) == 0 { 0.0 } else { rng.prob() };
        match rng.below(8) {
            0 => GraphOp::UpsertRef { r: None, labels: vec![(0, 1.0)] },
            1 => GraphOp::UpsertRef { r: Some(a), labels: vec![(0, 1.0)] },
            2 => GraphOp::DeleteRef { r: a },
            3 => GraphOp::UpsertEdge { a, b, p: rng.prob() },
            4 => match g.edges().get(rng.below(g.n_edges().max(1))) {
                Some(e) => GraphOp::DeleteEdge { a: e.a, b: e.b },
                None => GraphOp::DeleteEdge { a, b },
            },
            5 => {
                let members = if rng.below(2) == 0 { vec![a, b] } else { vec![a, b, c] };
                GraphOp::UpsertSet { members, weight: weight(rng) }
            }
            6 => {
                let live: Vec<&[RefId]> = (0..g.ref_sets().len() as u32)
                    .filter(|&s| g.set_is_alive(RefSetId(s)))
                    .map(|s| g.ref_set(RefSetId(s)).members.as_slice())
                    .collect();
                match live.get(rng.below(live.len().max(1))) {
                    Some(members) => GraphOp::DeleteSet { members: members.to_vec() },
                    None => GraphOp::SetSingletonWeight { r: a, weight: weight(rng) },
                }
            }
            _ => GraphOp::PairPosterior { a, b, q: rng.prob() },
        }
    }

    /// Every entity's refs, weight and liveness, as the whole-graph
    /// builds take them.
    fn inputs(g: &RefGraph) -> (Vec<&[RefId]>, Vec<f64>, Vec<bool>) {
        let n = g.n_entities();
        let refs = (0..n).map(|i| g.entity_refs(i)).collect();
        let weights = (0..n).map(|i| g.entity_weight(i)).collect();
        let dead = (0..n).map(|i| g.entity_is_dead(i)).collect();
        (refs, weights, dead)
    }

    /// Per node: dead, trivial, or the member list of its component.
    fn partition(m: &ExistenceModel) -> Vec<Result<&[EntityId], bool>> {
        (0..m.node_component.len())
            .map(|v| match m.node_component[v] {
                DEAD => Err(true),
                TRIVIAL => Err(false),
                c => Ok(m.components[c as usize].sets.as_slice()),
            })
            .collect()
    }

    /// The model a by-component rebuild produced against a fresh build:
    /// the same partition, and the same bits from every query.
    fn assert_same_model(got: &ExistenceModel, want: &ExistenceModel, rng: &mut Mix) {
        assert_eq!(partition(got), partition(want));
        assert_eq!(got.is_approximate(), want.is_approximate());
        assert_eq!(got.n_components(), want.n_components());
        let n = want.node_component.len();
        for v in (0..n as u32).map(EntityId) {
            assert_eq!(got.prn_single(v).to_bits(), want.prn_single(v).to_bits(), "{v:?}");
            assert_eq!(got.always_exists(v), want.always_exists(v));
        }
        for _ in 0..64 {
            let tuple: Vec<EntityId> =
                (0..1 + rng.below(4)).map(|_| EntityId(rng.below(n) as u32)).collect();
            assert_eq!(got.prn(&tuple).to_bits(), want.prn(&tuple).to_bits(), "{tuple:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 96,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Chained batches of all eight op kinds over overlapping sets, so
        /// that components merge and split: after each, the by-component
        /// rebuild equals a fresh whole-graph build of the mutated network
        /// (or errs exactly where it errs), and its `changed` and
        /// `reused_components` equal the whole-graph rebuild's.
        #[test]
        fn by_component_rebuild_equals_a_fresh_build(seed in proptest::prelude::any::<u64>()) {
            let mut rng = Mix(seed);
            let opts = match rng.below(3) {
                0 => ExistenceOptions::default(),
                1 => ExistenceOptions {
                    max_sets_per_component: 6 + rng.below(4),
                    ..Default::default()
                },
                _ => ExistenceOptions {
                    max_configs_per_component: 3,
                    fallback: ComponentFallback::Sample { samples: 48, seed },
                    ..Default::default()
                },
            };
            let mut refs = network(&mut rng);
            let (r, w, d) = inputs(&refs);
            let Ok(mut model) = ExistenceModel::build_with_dead(&r, &w, &d, &opts) else {
                return Ok(());
            };
            for _ in 0..8 {
                // Each op is drawn against the ops before it, so a batch
                // can declare a set over the references it adds.
                let mut next = refs.clone();
                let (mut ops, mut touched) = (Vec::new(), Vec::new());
                for _ in 0..1 + rng.below(4) {
                    let op = op(&next, &mut rng);
                    if next.apply(&op, &mut touched).is_ok() {
                        ops.push(op);
                    }
                }
                touched.sort_unstable();
                touched.dedup();
                let got = ExistenceModel::rebuild_incremental(&next, &opts, &model, &touched);
                let (r, w, d) = inputs(&next);
                let fresh = ExistenceModel::build_with_dead(&r, &w, &d, &opts);
                let mut flags = vec![false; next.n_entities()];
                for &t in &touched {
                    flags[t as usize] = true;
                }
                let whole = ExistenceModel::rebuild_whole(&r, &w, &d, &opts, &model, &flags);
                let (got, fresh, whole) = match (got, fresh, whole) {
                    (Ok(g), Ok(f), Ok(o)) => (g, f, o),
                    (Err(_), Err(_), Err(_)) => continue,
                    (g, f, o) => panic!(
                        "{ops:?}: by component ok {} / fresh ok {} / whole ok {}",
                        g.is_ok(), f.is_ok(), o.is_ok()
                    ),
                };
                assert_same_model(&got.model, &fresh, &mut rng);
                proptest::prop_assert_eq!(&got.changed, &whole.changed, "{:?}", ops);
                proptest::prop_assert_eq!(got.reused_components, whole.reused_components);
                (refs, model) = (next, got.model);
            }
        }
    }

    #[test]
    fn a_component_of_appended_entities_only_is_enumerated() {
        let mut g = RefGraph::new(LabelTable::from_names(["x"]));
        for _ in 0..3 {
            g.add_ref(LabelDist::delta(graphstore::Label(0), 1));
        }
        g.add_pair_set_with_posterior(RefId(0), RefId(1), 0.4);
        let opts = ExistenceOptions::default();
        let (r, w, d) = inputs(&g);
        let prev = ExistenceModel::build_with_dead(&r, &w, &d, &opts).unwrap();
        let mut next = g.clone();
        let add = GraphOp::UpsertRef { r: None, labels: vec![(0, 1.0)] };
        let touched = next
            .apply_all(&[
                add.clone(),
                add,
                GraphOp::PairPosterior { a: RefId(3), b: RefId(4), q: 0.9 },
            ])
            .unwrap();
        let delta = ExistenceModel::rebuild_incremental(&next, &opts, &prev, &touched).unwrap();
        let (r, w, d) = inputs(&next);
        assert_same_model(
            &delta.model,
            &ExistenceModel::build_with_dead(&r, &w, &d, &opts).unwrap(),
            &mut Mix(3),
        );
        assert_eq!(delta.model.n_components(), 2);
        assert_eq!(delta.reused_components, 1);
    }

    #[test]
    fn a_deleted_set_splits_its_component_and_leaves_the_rest_shared() {
        let mut g = RefGraph::new(LabelTable::from_names(["x"]));
        for _ in 0..6 {
            g.add_ref(LabelDist::delta(graphstore::Label(0), 1));
        }
        // {0,1,2} joined by two pair sets; {3,4} by one; 5 alone.
        g.add_pair_set_with_posterior(RefId(0), RefId(1), 0.6);
        g.add_pair_set_with_posterior(RefId(1), RefId(2), 0.3);
        g.add_pair_set_with_posterior(RefId(3), RefId(4), 0.7);
        let opts = ExistenceOptions::default();
        let (r, w, d) = inputs(&g);
        let prev = ExistenceModel::build_with_dead(&r, &w, &d, &opts).unwrap();
        assert_eq!(prev.n_components(), 2);
        let other = prev.component_of(EntityId(3)).unwrap();

        let mut next = g.clone();
        let touched =
            next.apply_all(&[GraphOp::DeleteSet { members: vec![RefId(1), RefId(2)] }]).unwrap();
        let delta = ExistenceModel::rebuild_incremental(&next, &opts, &prev, &touched).unwrap();
        let (r, w, d) = inputs(&next);
        let fresh = ExistenceModel::build_with_dead(&r, &w, &d, &opts).unwrap();
        assert_same_model(&delta.model, &fresh, &mut Mix(7));
        // The untouched component keeps its slot and its tables.
        let kept = delta.model.component_of(EntityId(3)).unwrap();
        assert_eq!(kept, other);
        assert!(Arc::ptr_eq(
            &delta.model.components[kept as usize],
            &prev.components[other as usize]
        ));
        assert_eq!(delta.reused_components, 1);
        // Reference 2 left its component: trivial now, and changed.
        assert!(delta.model.always_exists(EntityId(2)));
        assert!(delta.changed[2] && !delta.changed[3] && !delta.changed[5]);
    }
}
