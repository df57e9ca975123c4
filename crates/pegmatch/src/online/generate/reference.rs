//! The recursion the planned walk replaced, kept verbatim as the test
//! oracle: per tree node it collects the placed joined partitions, their
//! link lists and the intersected candidates into fresh `Vec`s, tracks
//! injectivity in a hash map it inserts into and removes from, rebuilds the
//! union of mapped entities and recomputes `Prn` over it — and only learns
//! that the next partition has no linked vertex one recursion later.
//! `planned_walk_equals_the_reference` in the parent module's tests holds
//! the walk to this one bit for bit; `calls` (one per `extend`, the only
//! addition) is what the walk's `seeds + visited` is measured against.

use super::EPS;
use crate::matcher::{sort_matches, Match};
use crate::online::decompose::Decomposition;
use crate::online::kpartite::KPartiteGraph;
use crate::query::{QNode, QueryGraph};
use crate::Peg;
use graphstore::hash::FxHashMap;
use graphstore::EntityId;

/// Read-only inputs shared by every extension step.
struct GenShared<'a> {
    peg: &'a Peg,
    decomp: &'a Decomposition,
    kp: &'a KPartiteGraph,
    order: &'a [usize],
    alpha: f64,
}

/// Backtracking scratch, reused across every seed vertex.
struct GenScratch {
    chosen: Vec<Option<u32>>,
    mapping: Vec<Option<EntityId>>,
    entity_of: FxHashMap<u32, QNode>,
    out: Vec<Match>,
    calls: usize,
}

/// What the one-lane recursion returns.
pub struct Generated {
    /// Matches in canonical order.
    pub matches: Vec<Match>,
    /// Whether `limit` cut the run short.
    pub truncated: bool,
    /// `extend` calls: one per seed, one per partial match placed.
    pub calls: usize,
}

/// The `threads = 1` run: one recursion over all seeds with the cap
/// applied globally.
pub fn generate(
    peg: &Peg,
    query: &QueryGraph,
    decomp: &Decomposition,
    kp: &KPartiteGraph,
    order: &[usize],
    alpha: f64,
    limit: Option<usize>,
) -> Generated {
    if order.is_empty() || limit == Some(0) {
        return Generated { matches: Vec::new(), truncated: limit == Some(0), calls: 0 };
    }
    let sh = GenShared { peg, decomp, kp, order, alpha };
    let first = kp.part(order[0]);
    let mut st = GenScratch {
        chosen: vec![None; kp.n_partitions()],
        mapping: vec![None; query.n_nodes()],
        entity_of: FxHashMap::default(),
        out: Vec::new(),
        calls: 0,
    };
    let mut completed = true;
    for seed in (0..first.n_verts() as u32).filter(|&v| first.vert(v as usize).alive()) {
        if !extend(&sh, 0, 1.0, Some(seed), limit, &mut st) {
            completed = false;
            break;
        }
    }
    sort_matches(&mut st.out);
    Generated { matches: st.out, truncated: !completed, calls: st.calls }
}

/// Recursive partition placement; returns `false` when `cap` was hit and
/// generation must stop. At depth 0 `seed` pins the candidate choice.
fn extend(
    sh: &GenShared<'_>,
    depth: usize,
    w1_product: f64,
    seed: Option<u32>,
    cap: Option<usize>,
    st: &mut GenScratch,
) -> bool {
    st.calls += 1;
    if depth == sh.order.len() {
        let nodes: Vec<EntityId> = st.mapping.iter().map(|m| m.expect("full mapping")).collect();
        let prn = sh.peg.prn(&nodes);
        if w1_product * prn + EPS >= sh.alpha && prn > 0.0 {
            st.out.push(Match { nodes, prle: w1_product, prn });
            if cap.is_some_and(|k| st.out.len() >= k) {
                return false;
            }
        }
        return true;
    }
    let pi = sh.order[depth];
    let partition = sh.kp.part(pi);

    // Candidate vertices: the pinned seed at depth 0, otherwise the
    // intersection of link lists from placed joined partitions.
    let candidates: Vec<u32> = if depth == 0 {
        vec![seed.expect("seed pinned at depth 0")]
    } else {
        let placed_joined: Vec<(usize, u32)> =
            partition.joined().iter().filter_map(|&j| st.chosen[j].map(|v| (j, v))).collect();
        if placed_joined.is_empty() {
            (0..partition.n_verts() as u32)
                .filter(|&v| partition.vert(v as usize).alive())
                .collect()
        } else {
            // Start from the smallest link list.
            let lists: Vec<&[u32]> = placed_joined
                .iter()
                .map(|&(j, vj)| {
                    let pj = sh.kp.part(j);
                    let slot = pj.slot_of(pi).expect("symmetric join");
                    pj.vert(vj as usize).links(slot)
                })
                .collect();
            let smallest = lists.iter().enumerate().min_by_key(|(_, l)| l.len()).unwrap().0;
            lists[smallest]
                .iter()
                .copied()
                .filter(|&v| {
                    partition.vert(v as usize).alive()
                        && lists
                            .iter()
                            .enumerate()
                            .all(|(li, l)| li == smallest || l.binary_search(&v).is_ok())
                })
                .collect()
        }
    };

    'cand: for vid in candidates {
        let vert = partition.vert(vid as usize);
        // Merge the vertex's images into the global mapping.
        let mut added: Vec<QNode> = Vec::new();
        for (pos, &n) in sh.decomp.paths[pi].nodes.iter().enumerate() {
            let e = vert.nodes()[pos];
            match st.mapping[n as usize] {
                Some(prev) => {
                    if prev != e {
                        undo(&mut st.mapping, &mut st.entity_of, &added);
                        continue 'cand;
                    }
                }
                None => {
                    // Injectivity across query nodes.
                    if let Some(&other) = st.entity_of.get(&e.0) {
                        if other != n {
                            undo(&mut st.mapping, &mut st.entity_of, &added);
                            continue 'cand;
                        }
                    }
                    // Reference compatibility with everything placed.
                    for m in st.mapping.iter().flatten() {
                        if *m != e && !sh.peg.graph.refs_disjoint(*m, e) {
                            undo(&mut st.mapping, &mut st.entity_of, &added);
                            continue 'cand;
                        }
                    }
                    st.mapping[n as usize] = Some(e);
                    st.entity_of.insert(e.0, n);
                    added.push(n);
                }
            }
        }
        let new_w1 = w1_product * vert.w1();
        let union: Vec<EntityId> = st.mapping.iter().flatten().copied().collect();
        let prn = sh.peg.prn(&union);
        if new_w1 * prn + EPS >= sh.alpha && prn > 0.0 {
            st.chosen[pi] = Some(vid);
            let keep_going = extend(sh, depth + 1, new_w1, None, cap, st);
            st.chosen[pi] = None;
            if !keep_going {
                undo(&mut st.mapping, &mut st.entity_of, &added);
                return false;
            }
        }
        undo(&mut st.mapping, &mut st.entity_of, &added);
    }
    true
}

fn undo(mapping: &mut [Option<EntityId>], entity_of: &mut FxHashMap<u32, QNode>, added: &[QNode]) {
    for &n in added {
        if let Some(e) = mapping[n as usize].take() {
            entity_of.remove(&e.0);
        }
    }
}
