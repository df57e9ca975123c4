//! An execution-cache hit generates from its cached base in place, at any
//! threshold at or above the entry's floor: the same listing as a cold
//! cache-off run, bit for bit and down to the prefix a `limit` keeps, with
//! no reduction round run and no copy of the entry made.
//!
//! The thresholds sit at the floor, just above it, mid-bucket and just
//! below the next power-of-two bucket, so a hit answers thresholds up to
//! almost twice its floor. A copy of the entry shows up in the bytes this
//! thread allocates during the hit, counted as in
//! `tests/generate_allocations.rs`.

use datagen::{synthetic_refgraph, SyntheticConfig};
use graphstore::Label;
use pegmatch::matcher::Match;
use pegmatch::model::PegBuilder;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::{floor_alpha, ExecCache, QueryOptions, QueryPipeline};
use pegmatch::query::QueryGraph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    /// Bytes allocated by this thread (with one lane, the whole query runs
    /// on the caller's).
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor has a
// destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn assert_bit_identical(got: &[Match], want: &[Match], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: match counts differ");
    for (x, y) in got.iter().zip(want) {
        assert_eq!(x.nodes, y.nodes, "{ctx}");
        assert_eq!(x.prle.to_bits(), y.prle.to_bits(), "{ctx}: prle bits");
        assert_eq!(x.prn.to_bits(), y.prn.to_bits(), "{ctx}: prn bits");
    }
}

#[test]
fn hits_far_above_the_floor_are_exact_and_copy_nothing() {
    let refs = synthetic_refgraph(&SyntheticConfig::paper_with_uncertainty(1500, 0.2));
    let peg = PegBuilder::new().build(&refs).unwrap();
    // β below both floors, so each floor is the threshold's own
    // power-of-two bucket.
    let beta = 0.2;
    let offline = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(2, beta)).unwrap();
    let cold = QueryPipeline::new(&peg, &offline);
    let l = Label;
    let shapes = [
        QueryGraph::path(&[l(0), l(1), l(2)]).unwrap(),
        QueryGraph::cycle(&[l(0), l(1), l(2)]).unwrap(),
        QueryGraph::cycle(&[l(0), l(1), l(0), l(1)]).unwrap(),
    ];

    let (mut hits, mut truncated, mut matched) = (0, 0, 0);
    for query in &shapes {
        for floor in [0.25, 0.5] {
            // One entry in a fresh cache: its bytes are the entry's.
            let exec = Arc::new(ExecCache::new(64 << 20));
            let warm = QueryPipeline::new(&peg, &offline).with_exec_cache(exec.clone(), 1);
            let opts = QueryOptions::with_threads(1);
            for _ in 0..2 {
                warm.run(query, floor, &opts).unwrap(); // first sight, then admission
            }
            let entry = exec.stats();
            assert_eq!((entry.entries, entry.hits), (1, 0), "{query:?} at {floor}");

            let next = 2.0 * floor;
            for alpha in [floor, floor + 1e-9, (floor + next) / 2.0, 0.99 * next] {
                assert_eq!(floor_alpha(alpha, beta), floor, "{alpha} shares the entry");
                for limit in [Some(1), Some(3), None] {
                    for threads in [1, 0] {
                        let ctx = format!("{query:?} alpha={alpha} limit={limit:?} t={threads}");
                        let opts = QueryOptions::with_threads(threads);
                        let before = ALLOCATED.with(Cell::get);
                        let w = warm.run_limited(query, alpha, limit, &opts).unwrap();
                        let allocated = ALLOCATED.with(Cell::get) - before;
                        let c = cold.run_limited(query, alpha, limit, &opts).unwrap();
                        assert_bit_identical(&w.matches, &c.matches, &ctx);
                        assert_eq!(w.truncated, c.truncated, "{ctx}");

                        let s = &w.stats;
                        assert!(s.exec_cache_hit && s.base_reused, "{ctx}");
                        assert_eq!(s.base_alpha, floor, "{ctx}");
                        assert_eq!(s.message_rounds, 0, "{ctx}");
                        assert_eq!(s.reduction_time, Duration::ZERO, "{ctx}");
                        assert_eq!(s.join_time, Duration::ZERO, "{ctx}");
                        // One lane allocates on this thread only; a cap
                        // keeps the matches returned few.
                        if threads == 1 && limit.is_some() && alpha > floor {
                            assert!(
                                allocated * 4 < entry.bytes,
                                "{ctx}: a hit allocated {allocated} bytes over a {} byte entry",
                                entry.bytes
                            );
                        }
                        hits += 1;
                        truncated += usize::from(w.truncated);
                        matched += w.matches.len();
                    }
                }
            }
            assert_eq!(exec.stats().hits, 24, "{query:?} at {floor}: every run hit");
        }
    }
    // The ladder is worth running: caps bite and answers are not empty.
    assert_eq!(hits, 3 * 2 * 24);
    assert!(truncated > 0 && matched > 0, "truncated {truncated}, matched {matched}");
}
