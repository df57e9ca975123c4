//! Match generation stays off the heap: the walk visits tens of tree nodes
//! per match it emits, and a node must cost no allocation. What a call may
//! allocate is its plan, one lane's scratch, the seed list, the result
//! vector's growth, the sort's buffer — a few dozen, whatever the tree's
//! size — and the node vector of each match it returns.

use datagen::{synthetic_refgraph, SyntheticConfig};
use graphstore::Label;
use pegmatch::model::PegBuilder;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::{
    build_kpartite, generate_matches_limited, generate_matches_traced, CandidateSource,
    LocalSource, QueryOptions, QueryPipeline, ReduceOptions,
};
use pegmatch::query::QueryGraph;
use pegtrace::{TagValue, Tracer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (the harness's other threads do not
    /// count: one lane runs the whole walk on the caller's).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor has a
// destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_walk_of_ten_thousand_nodes_allocates_only_its_matches() {
    let refs = synthetic_refgraph(&SyntheticConfig::paper_with_uncertainty(2000, 0.2));
    let peg = PegBuilder::new().build(&refs).unwrap();
    let offline = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(2, 0.3)).unwrap();
    let cycle = QueryGraph::cycle(&[Label(0), Label(1), Label(0), Label(1), Label(2)]).unwrap();
    let alpha = 0.3;

    let opts = QueryOptions::with_threads(1);
    let pool = pegpool::pool_with(1);
    let prepared = QueryPipeline::new(&peg, &offline).prepare(&cycle, alpha, &opts).unwrap();
    let (query, decomp) = (prepared.query(), prepared.decomposition());
    let source = LocalSource { peg: &peg, offline: &offline };
    let sets = source
        .retrieve(query, decomp, prepared.path_stats(), alpha, &pegtrace::Span::disabled(), &pool)
        .unwrap();
    let mut kp = build_kpartite(&peg, query, decomp, &sets, alpha, &pool);
    kp.reduce(alpha, &ReduceOptions::default());
    let order = prepared.join_order();

    // How large the tree is, from a traced run (not the one counted: a
    // recording span allocates).
    let tracer = Tracer::enabled(1);
    let span = tracer.span("generate");
    let traced =
        generate_matches_traced(&peg, query, decomp, &kp, order, alpha, None, &pool, &span);
    drop(span);
    let tree = tracer.take();
    let walk = tree[0].find("walk").expect("generate has a walk child");
    let count = |key: &str| match walk.tag(key) {
        Some(TagValue::U64(n)) => *n as usize,
        other => panic!("walk tag {key}: {other:?}"),
    };
    let nodes = count("seeds") + count("visited") + count("lookahead_cut");
    assert!(nodes >= 10_000, "the walk must be worth counting: {nodes} nodes");
    assert_eq!(count("leaves"), traced.0.len());

    let before = ALLOCATIONS.with(Cell::get);
    let (matches, truncated) =
        generate_matches_limited(&peg, query, decomp, &kp, order, alpha, None, &pool);
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert!(!truncated);
    assert_eq!(matches.len(), traced.0.len());
    assert!(
        allocated <= 2 * matches.len() + 64,
        "{allocated} allocations for {} matches over {nodes} tree nodes",
        matches.len()
    );
}
