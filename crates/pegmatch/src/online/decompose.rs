//! Query path decomposition (Section 5.2.1).
//!
//! Splits the query into overlapping paths of length ≤ `L` that cover every
//! query edge, minimizing the estimated initial search space. Cost of a path
//! `P` is `|PIndex(lQ(VP), α)| / (degree(P) · density(P))`; the cover is
//! chosen by the standard greedy SET-COVER approximation over query edges
//! with efficiency = newly-covered-edges / cost.

use crate::error::PegError;
use crate::query::{QNode, QueryGraph};
use graphstore::hash::FxHashMap;
use graphstore::Label;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How to pick the decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DecompStrategy {
    /// Greedy SET-COVER over the cost model (the paper's optimized method).
    CostBased,
    /// Random cover — the paper's "Random decomposition" baseline.
    Random {
        /// RNG seed (baseline runs are reproducible).
        seed: u64,
    },
}

/// One path of the decomposition: a node sequence in the query.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryPath {
    /// Query nodes along the path (length = edges + 1).
    pub nodes: Vec<QNode>,
}

impl QueryPath {
    /// Labels along the path.
    pub fn labels(&self, query: &QueryGraph) -> Vec<Label> {
        self.nodes.iter().map(|&n| query.label(n)).collect()
    }

    /// Path edges as canonical query-node pairs.
    pub fn edges(&self) -> impl Iterator<Item = (QNode, QNode)> + '_ {
        self.nodes.windows(2).map(|w| (w[0].min(w[1]), w[0].max(w[1])))
    }

    /// Position of `n` on the path, if present.
    pub fn position(&self, n: QNode) -> Option<usize> {
        self.nodes.iter().position(|&x| x == n)
    }
}

/// A complete decomposition with join structure.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// The chosen paths.
    pub paths: Vec<QueryPath>,
    /// `joins[i]` — indices of paths sharing ≥ 1 node with path `i`.
    pub joins: Vec<Vec<usize>>,
    /// Shared query nodes per joined pair `(i, j)` with `i < j`, ascending.
    pub shared: FxHashMap<(usize, usize), Vec<QNode>>,
}

impl Decomposition {
    /// Shared nodes between paths `i` and `j` (either order).
    pub fn shared_nodes(&self, i: usize, j: usize) -> &[QNode] {
        let key = (i.min(j), i.max(j));
        self.shared.get(&key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The same decomposition with every query node renumbered through
    /// `map` (`map[old] = new`). Used by the plan cache to move a plan
    /// between a query's numbering and its canonical numbering: a
    /// label-preserving renumbering maps covering paths to covering paths,
    /// so the result is a valid decomposition of the renumbered query.
    pub fn renumbered(&self, map: &[QNode]) -> Decomposition {
        let paths = self
            .paths
            .iter()
            .map(|p| QueryPath { nodes: p.nodes.iter().map(|&n| map[n as usize]).collect() })
            .collect();
        let shared = self
            .shared
            .iter()
            .map(|(&k, v)| {
                let mut nodes: Vec<QNode> = v.iter().map(|&n| map[n as usize]).collect();
                nodes.sort_unstable();
                (k, nodes)
            })
            .collect();
        Decomposition { paths, joins: self.joins.clone(), shared }
    }

    /// The decomposition made of `paths`, with its join structure derived.
    pub(crate) fn from_paths(paths: Vec<QueryPath>) -> Self {
        let k = paths.len();
        let mut joins = vec![Vec::new(); k];
        let mut shared = FxHashMap::default();
        for i in 0..k {
            for j in i + 1..k {
                let mut common: Vec<QNode> =
                    paths[i].nodes.iter().copied().filter(|n| paths[j].nodes.contains(n)).collect();
                if common.is_empty() {
                    continue;
                }
                common.sort_unstable();
                common.dedup();
                joins[i].push(j);
                joins[j].push(i);
                shared.insert((i, j), common);
            }
        }
        Self { paths, joins, shared }
    }
}

/// Path degree: sum of on-path node degrees minus twice the length
/// (Section 5.2.1, Figure 4 example).
pub fn path_degree(query: &QueryGraph, nodes: &[QNode]) -> usize {
    let total: usize = nodes.iter().map(|&n| query.degree(n)).sum();
    total - 2 * (nodes.len() - 1)
}

/// Path density: `2K / (M(M−1))` where `K` is the number of query edges
/// among the path's nodes.
pub fn path_density(query: &QueryGraph, nodes: &[QNode]) -> f64 {
    let m = nodes.len();
    if m < 2 {
        return 1.0;
    }
    let mut k = 0usize;
    for (a, &u) in nodes.iter().enumerate() {
        for &v in &nodes[a + 1..] {
            if query.has_edge(u, v) {
                k += 1;
            }
        }
    }
    2.0 * k as f64 / (m as f64 * (m as f64 - 1.0))
}

/// Estimated cost `C(P, α)` of a candidate path.
fn path_cost(query: &QueryGraph, nodes: &[QNode], est_count: f64) -> f64 {
    let degree = path_degree(query, nodes).max(1) as f64;
    let density = path_density(query, nodes);
    // est_count can legitimately be 0 (no matching paths): the cheapest
    // possible path — it proves the query has no answers.
    (est_count / (degree * density)).max(1e-9)
}

/// Decomposes `query` into covering paths of at most `max_len` edges.
///
/// `estimate` returns the estimated `|PIndex(labels, α)|` for a label
/// sequence (histogram-backed in the real pipeline).
pub fn decompose(
    query: &QueryGraph,
    max_len: usize,
    estimate: &dyn Fn(&[Label]) -> f64,
    strategy: DecompStrategy,
) -> Result<Decomposition, PegError> {
    if query.n_edges() == 0 {
        // Single-node query: one trivial path.
        return Ok(Decomposition::from_paths(vec![QueryPath { nodes: vec![0] }]));
    }
    let max_len = max_len.max(1);
    let candidates: Vec<Vec<QNode>> = query.enumerate_paths(max_len, false);
    if candidates.is_empty() {
        return Err(PegError::Invalid("query has no candidate paths".into()));
    }

    let chosen = match strategy {
        DecompStrategy::CostBased => greedy_cover(query, &candidates, estimate)?,
        DecompStrategy::Random { seed } => random_cover(query, &candidates, seed)?,
    };
    Ok(Decomposition::from_paths(chosen))
}

fn all_edges_mask(query: &QueryGraph) -> FxHashMap<(QNode, QNode), bool> {
    query.edges().iter().map(|&e| (e, false)).collect()
}

fn greedy_cover(
    query: &QueryGraph,
    candidates: &[Vec<QNode>],
    estimate: &dyn Fn(&[Label]) -> f64,
) -> Result<Vec<QueryPath>, PegError> {
    let costs: Vec<f64> = candidates
        .iter()
        .map(|nodes| {
            let labels: Vec<Label> = nodes.iter().map(|&n| query.label(n)).collect();
            path_cost(query, nodes, estimate(&labels))
        })
        .collect();

    let mut covered = all_edges_mask(query);
    let mut remaining = covered.len();
    let mut chosen = Vec::new();
    let mut used = vec![false; candidates.len()];
    while remaining > 0 {
        let mut best: Option<(usize, f64)> = None;
        for (i, nodes) in candidates.iter().enumerate() {
            if used[i] {
                continue;
            }
            let new_edges = nodes
                .windows(2)
                .filter(|w| {
                    let key = (w[0].min(w[1]), w[0].max(w[1]));
                    !covered[&key]
                })
                .count();
            if new_edges == 0 {
                continue;
            }
            let eff = new_edges as f64 / costs[i];
            if best.is_none_or(|(_, b)| eff > b) {
                best = Some((i, eff));
            }
        }
        let (i, _) = best.ok_or_else(|| {
            PegError::Invalid("greedy cover stalled: query edges not coverable".into())
        })?;
        used[i] = true;
        for w in candidates[i].windows(2) {
            let key = (w[0].min(w[1]), w[0].max(w[1]));
            if let Some(c) = covered.get_mut(&key) {
                if !*c {
                    *c = true;
                    remaining -= 1;
                }
            }
        }
        chosen.push(QueryPath { nodes: candidates[i].clone() });
    }
    Ok(chosen)
}

fn random_cover(
    query: &QueryGraph,
    candidates: &[Vec<QNode>],
    seed: u64,
) -> Result<Vec<QueryPath>, PegError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.shuffle(&mut rng);
    let mut covered = all_edges_mask(query);
    let mut remaining = covered.len();
    let mut chosen = Vec::new();
    for i in order {
        if remaining == 0 {
            break;
        }
        let nodes = &candidates[i];
        let new_edges =
            nodes.windows(2).filter(|w| !covered[&(w[0].min(w[1]), w[0].max(w[1]))]).count();
        if new_edges == 0 {
            continue;
        }
        for w in nodes.windows(2) {
            let key = (w[0].min(w[1]), w[0].max(w[1]));
            if let Some(c) = covered.get_mut(&key) {
                if !*c {
                    *c = true;
                    remaining -= 1;
                }
            }
        }
        chosen.push(QueryPath { nodes: nodes.clone() });
    }
    if remaining > 0 {
        return Err(PegError::Invalid("random cover failed to cover all edges".into()));
    }
    Ok(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u16) -> Label {
        Label(i)
    }

    #[test]
    fn figure4_degree_and_density() {
        // Figure 4: path (1,2,3,4) in a graph where node 1 also connects to
        // node 3, node 3 connects to 5, node 4 connects to 5 and 6.
        // Degrees: 1:2, 2:2, 3:4, 4:3 → sum 11 − 2·3 = 5. Density: K=4
        // edges among {1,2,3,4} → 2·4/(4·3) = 2/3.
        let q = QueryGraph::new(
            vec![l(0); 6],
            vec![(0, 1), (1, 2), (2, 3), (0, 2), (2, 4), (3, 4), (3, 5)],
        )
        .unwrap();
        let path = [0 as QNode, 1, 2, 3];
        assert_eq!(path_degree(&q, &path), 5);
        assert!((path_density(&q, &path) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn single_node_query_decomposition() {
        let q = QueryGraph::new(vec![l(3)], vec![]).unwrap();
        let d = decompose(&q, 3, &|_| 1.0, DecompStrategy::CostBased).unwrap();
        assert_eq!(d.paths.len(), 1);
        assert_eq!(d.paths[0].nodes, vec![0]);
        assert!(d.joins[0].is_empty());
    }

    #[test]
    fn cover_includes_every_edge() {
        let q = QueryGraph::cycle(&[l(0), l(1), l(2), l(3), l(4)]).unwrap();
        for strategy in [DecompStrategy::CostBased, DecompStrategy::Random { seed: 7 }] {
            let d = decompose(&q, 2, &|_| 10.0, strategy).unwrap();
            let mut covered: Vec<(QNode, QNode)> =
                d.paths.iter().flat_map(|p| p.edges().collect::<Vec<_>>()).collect();
            covered.sort_unstable();
            covered.dedup();
            assert_eq!(covered.len(), q.n_edges(), "{strategy:?}");
        }
    }

    #[test]
    fn greedy_prefers_cheap_selective_paths() {
        // Path query a-b-c where (a,b) sequences are rare and (b,c) common.
        let q = QueryGraph::path(&[l(0), l(1), l(2)]).unwrap();
        let est = |labels: &[Label]| -> f64 {
            // Make the full 2-edge path expensive, the (0,1) edge cheap.
            match labels.len() {
                3 => 1000.0,
                2 if labels[0] == l(0) || labels[1] == l(0) => 1.0,
                _ => 500.0,
            }
        };
        let d = decompose(&q, 2, &est, DecompStrategy::CostBased).unwrap();
        // The cheap (0,1) path must be part of the cover.
        assert!(d.paths.iter().any(|p| p.nodes == vec![0, 1] || p.nodes == vec![1, 0]));
    }

    #[test]
    fn join_structure_records_shared_nodes() {
        let q = QueryGraph::cycle(&[l(0), l(1), l(2)]).unwrap();
        let d = decompose(&q, 1, &|_| 1.0, DecompStrategy::CostBased).unwrap();
        // Single-edge paths: 3 of them; each pair shares one node.
        assert_eq!(d.paths.len(), 3);
        for i in 0..3 {
            assert_eq!(d.joins[i].len(), 2);
        }
        let total_shared: usize = d.shared.values().map(|v| v.len()).sum();
        assert_eq!(total_shared, 3);
    }

    #[test]
    fn renumbering_round_trips_and_preserves_cover() {
        let q = QueryGraph::cycle(&[l(0), l(1), l(2), l(3)]).unwrap();
        let d = decompose(&q, 2, &|_| 1.0, DecompStrategy::CostBased).unwrap();
        // An arbitrary permutation and its inverse.
        let map: Vec<QNode> = vec![2, 0, 3, 1];
        let mut inv = vec![0 as QNode; 4];
        for (old, &new) in map.iter().enumerate() {
            inv[new as usize] = old as QNode;
        }
        let r = d.renumbered(&map);
        assert_eq!(r.joins, d.joins);
        // Edge cover maps edge-for-edge.
        let mut edges: Vec<(QNode, QNode)> =
            r.paths.iter().flat_map(|p| p.edges().collect::<Vec<_>>()).collect();
        edges.sort_unstable();
        edges.dedup();
        assert_eq!(edges.len(), q.n_edges());
        // Round trip restores the original paths and shared sets.
        let back = r.renumbered(&inv);
        for (a, b) in back.paths.iter().zip(&d.paths) {
            assert_eq!(a.nodes, b.nodes);
        }
        assert_eq!(back.shared, d.shared);
    }

    #[test]
    fn max_len_respected() {
        let q = QueryGraph::path(&[l(0), l(1), l(2), l(3), l(4)]).unwrap();
        let d = decompose(&q, 2, &|_| 1.0, DecompStrategy::CostBased).unwrap();
        assert!(d.paths.iter().all(|p| p.nodes.len() <= 3));
    }
}
