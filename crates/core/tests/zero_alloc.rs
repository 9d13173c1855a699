//! Regression tests: the inner loops of the streaming algorithms must not
//! touch the heap.
//!
//! * A one-off block ([`Engine::load_block`]): the steady-state PageRank
//!   inner loop — CAM search plus selective MAC gather on an
//!   already-loaded block — allocates nothing once the engine's reusable
//!   buffers and the CAM's index are warm (two passes), so the third pass
//!   is measured.
//! * A planned block ([`Engine::load_planned`]): loading it, then a
//!   search/gather pass over its destinations and a search/propagate pass
//!   over its sources, allocates nothing even on the engine's *first*
//!   visit — the plan carries the block's metadata and hit index, and the
//!   engine's buffers are sized at construction.
//!
//! The tests install a counting global allocator that counts per thread,
//! so the two tests can run concurrently in this binary without
//! disturbing each other's counts.

#![allow(clippy::unwrap_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gaasx_core::engine::{partition_for_streaming, CellLayout, Engine};
use gaasx_core::{GaasXConfig, SearchMode, StreamPlan};
use gaasx_graph::{generators, Edge};
use gaasx_xbar::HitVector;

/// Counts every allocation and reallocation the calling thread makes
/// through the global allocator; deallocations are free.
struct CountingAlloc;

thread_local! {
    // Const-initialized and drop-free: touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn count_one() {
    ALLOCS.with(|a| a.set(a.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_search_and_gather_allocate_nothing() {
    let graph = generators::rmat(&generators::RmatConfig::new(1 << 6, 400).with_seed(11)).unwrap();
    let mut engine = Engine::new(GaasXConfig::small()).unwrap();
    let capacity = engine.block_capacity();
    let chunk: Vec<Edge> = graph.edges().iter().take(capacity).copied().collect();

    let cells = |_e: &Edge, c: &mut Vec<u32>| c.push(1u32);
    let block = engine
        .load_block(&chunk, CellLayout::PerEdge(&cells))
        .unwrap();
    let mut hits = HitVector::new(0);

    // Two warm passes: the first builds the CAM's index and sizes the
    // engine's scratch buffers; the second settles every buffer at its
    // steady-state capacity.
    let mut warm_total = 0u64;
    for _ in 0..2 {
        for &dst in block.distinct_dsts() {
            engine.search_dst_into(dst, &mut hits);
            warm_total += engine.gather_rows(&hits, &mut |_| 1, 0).unwrap();
        }
    }
    assert!(warm_total > 0, "warm passes must do real work");

    // Measured pass: bit-for-bit the same work, zero heap traffic.
    let before = allocs();
    let mut total = 0u64;
    for &dst in block.distinct_dsts() {
        engine.search_dst_into(dst, &mut hits);
        total += engine.gather_rows(&hits, &mut |_| 1, 0).unwrap();
    }
    let allocs = allocs() - before;

    assert_eq!(
        total * 2,
        warm_total,
        "steady-state pass must match warm work"
    );
    assert_eq!(
        allocs, 0,
        "steady-state search+gather pass performed {allocs} heap allocations"
    );
}

#[test]
fn a_planned_block_allocates_nothing_on_its_first_visit() {
    let graph = generators::rmat(&generators::RmatConfig::new(1 << 6, 400).with_seed(11)).unwrap();
    let mut engine = Engine::new(GaasXConfig::small()).unwrap();
    let plan = StreamPlan::for_engine(partition_for_streaming(&graph).unwrap(), &engine);
    let shard = plan.grid().shards().max_by_key(|s| s.num_edges()).unwrap();
    let block = plan.blocks_of(shard).next().unwrap();
    // Caller-owned buffers, sized once for the bank as a streaming loop
    // sizes them on its first block.
    let rows = engine.config().cam_geometry.rows;
    let mut hits = HitVector::new(rows);
    let mut results: Vec<(usize, u64)> = Vec::with_capacity(rows);
    let cells = |_e: &Edge, c: &mut Vec<u32>| c.push(1u32);

    let before = allocs();
    engine
        .load_planned(&block, CellLayout::PerEdge(&cells))
        .unwrap();
    let mut gathered = 0u64;
    for &dst in block.distinct_dsts() {
        engine.search_dst_into(dst, &mut hits);
        gathered += engine.gather_rows(&hits, &mut |_| 1, 0).unwrap();
    }
    let mut propagated = 0usize;
    for &src in block.distinct_srcs() {
        engine.search_src_into(src, &mut hits);
        engine
            .propagate_rows_into(&hits, &[0], &[1], &mut results)
            .unwrap();
        propagated += results.len();
    }
    let allocs = allocs() - before;

    assert_eq!(engine.resolved_search_mode(), SearchMode::Indexed);
    assert_eq!(gathered, block.len() as u64, "every row gathered once");
    assert_eq!(propagated, block.len(), "every row propagated once");
    assert_eq!(
        allocs, 0,
        "first planned load + search/gather + search/propagate performed {allocs} heap allocations"
    );
}
