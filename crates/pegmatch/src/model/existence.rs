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
use graphstore::{EntityId, RefId};
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
    /// liveness changed, or the node is new).
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
        Self::build_ext(node_refs, node_weights, None, opts, None).map(|(m, _)| m)
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
        Self::build_ext(node_refs, node_weights, Some(dead), opts, None).map(|(m, _)| m)
    }

    /// Rebuilds after a mutation, reusing the previous model's component
    /// tables wherever possible: a component whose member list matches a
    /// previous component's exactly, with no member in `touched`, carries
    /// over by `Arc` — its configurations, partition function, and
    /// superset sums are literally the previous model's memory, so every
    /// marginal is trivially bit-identical. Everything else re-runs the
    /// same deterministic enumeration a from-scratch
    /// [`ExistenceModel::build_with_dead`] would, so the whole model is
    /// bit-identical to a full rebuild of the mutated graph.
    ///
    /// `touched[i]` marks nodes whose refs, weight, or liveness an op
    /// changed directly (new nodes count as touched).
    pub fn rebuild_incremental(
        node_refs: &[impl AsRef<[RefId]>],
        node_weights: &[f64],
        dead: &[bool],
        opts: &ExistenceOptions,
        prev: &ExistenceModel,
        touched: &[bool],
    ) -> Result<ExistenceDelta, PegError> {
        Self::build_ext(node_refs, node_weights, Some(dead), opts, Some((prev, touched))).map(
            |(model, reused)| {
                let n = node_refs.len();
                let mut changed = vec![false; n];
                let mut reused_components = 0usize;
                // A node changed unless its old and new states agree:
                // same-trivial, same-dead, or a component reused by Arc.
                for (i, ch) in changed.iter_mut().enumerate() {
                    let now = model.node_component[i];
                    *ch = match prev.node_component.get(i) {
                        None => true, // New node.
                        Some(&before) => match now {
                            TRIVIAL => before != TRIVIAL,
                            DEAD => before != DEAD,
                            c => !reused[c as usize],
                        },
                    };
                }
                for r in &reused {
                    reused_components += *r as usize;
                }
                ExistenceDelta { model, changed, reused_components }
            },
        )
    }

    /// Shared core of all build paths. Returns the model plus, per
    /// component, whether it was reused from `reuse`'s previous model.
    fn build_ext(
        node_refs: &[impl AsRef<[RefId]>],
        node_weights: &[f64],
        dead: Option<&[bool]>,
        opts: &ExistenceOptions,
        reuse: Option<(&ExistenceModel, &[bool])>,
    ) -> Result<(Self, Vec<bool>), PegError> {
        assert_eq!(node_refs.len(), node_weights.len());
        let n = node_refs.len();
        let is_dead = |i: usize| dead.is_some_and(|d| d[i]);

        // Previous components by member list, for Arc reuse.
        let prev_by_members: FxHashMap<&[EntityId], &Arc<Component>> = match reuse {
            Some((prev, _)) => prev.components.iter().map(|c| (c.sets.as_slice(), c)).collect(),
            None => FxHashMap::default(),
        };

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
        let mut component_reused = Vec::new();
        let mut approximate = false;

        for (_, members) in groups {
            if members.len() == 1 {
                continue; // Trivial: exists in every world.
            }
            // Arc reuse: identical member list, none touched by the
            // mutation — the component's inputs (refs, weights, liveness)
            // are unchanged, so its tables are exactly what re-enumeration
            // would produce.
            if let Some((_, touched)) = reuse {
                if members.iter().all(|&m| !touched.get(m as usize).copied().unwrap_or(true)) {
                    let ids: Vec<EntityId> = members.iter().map(|&m| EntityId(m)).collect();
                    if let Some(&prev_comp) = prev_by_members.get(ids.as_slice()) {
                        let comp_idx = components.len() as u32;
                        for (pos, &m) in members.iter().enumerate() {
                            node_component[m as usize] = comp_idx;
                            node_pos[m as usize] = pos as u8;
                        }
                        components.push(Arc::clone(prev_comp));
                        component_reused.push(true);
                        continue;
                    }
                }
            }
            if members.len() > opts.max_sets_per_component || members.len() > 63 {
                return Err(PegError::ComponentTooLarge {
                    sets: members.len(),
                    limit: opts.max_sets_per_component.min(63),
                });
            }
            // Local reference universe for the component.
            let mut local_refs: Vec<RefId> = members
                .iter()
                .flat_map(|&m| node_refs[m as usize].as_ref().iter().copied())
                .collect();
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
                .map(|&m| {
                    node_refs[m as usize]
                        .as_ref()
                        .iter()
                        .fold(0u64, |acc, r| acc | 1u64 << ref_pos[r])
                })
                .collect();
            let weights: Vec<f64> = members
                .iter()
                .map(|&m| {
                    node_weights[m as usize].powi(node_refs[m as usize].as_ref().len() as i32)
                })
                .collect();
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
            approximate |= sampled;
            let z: f64 = configs.iter().map(|(_, w)| w).sum();
            if z <= 0.0 {
                return Err(PegError::Invalid(
                    "existence component has zero total weight (all configurations impossible)"
                        .into(),
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
            let comp_idx = components.len() as u32;
            for (pos, &m) in members.iter().enumerate() {
                node_component[m as usize] = comp_idx;
                node_pos[m as usize] = pos as u8;
            }
            components.push(Arc::new(Component {
                sets: members.iter().map(|&m| EntityId(m)).collect(),
                configs,
                z,
                dense,
                sampled,
            }));
            component_reused.push(false);
        }

        // Exact across reuse: a carried-over sampled component keeps the
        // model approximate; a re-enumerated one re-decides for itself.
        approximate |= components.iter().any(|c| c.sampled);
        Ok((Self { node_component, node_pos, components, approximate }, component_reused))
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
