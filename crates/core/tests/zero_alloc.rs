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
//! * A device-searched block under match-line upsets: the triple-voted
//!   search (two re-searches plus the majority vote) and the physical →
//!   logical hit translation of remapped rows allocate nothing once the
//!   CAM's index and the MAC's fallback buffer are warm.
//!
//! The tests install a counting global allocator that counts per thread,
//! so the two tests can run concurrently in this binary without
//! disturbing each other's counts.

#![allow(clippy::unwrap_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gaasx_core::engine::{partition_for_streaming, CellLayout, Engine};
use gaasx_core::{GaasXConfig, RecoveryPolicy, SearchMode, StreamPlan};
use gaasx_graph::{generators, Edge};
use gaasx_xbar::{FaultModel, HitVector};

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

#[test]
fn voted_device_searches_allocate_nothing_in_steady_state() {
    let graph = generators::rmat(&generators::RmatConfig::new(1 << 6, 400).with_seed(11)).unwrap();
    let mut engine = Engine::new(GaasXConfig {
        fault: FaultModel {
            seed: 7,
            cam_stuck_ber: 1e-3,
            mac_stuck_ber: 1e-3,
            cam_upset_rate: 0.05,
            adc_flip_rate: 1e-3,
            ..FaultModel::none()
        },
        recovery: RecoveryPolicy::standard(),
        ..GaasXConfig::small()
    })
    .unwrap();
    // Upsets make the device search: no hit index, no replay.
    assert!(!engine.replays_plans());
    let plan = StreamPlan::for_engine(partition_for_streaming(&graph).unwrap(), &engine);
    let shard = plan.grid().shards().max_by_key(|s| s.num_edges()).unwrap();
    let block = plan.blocks_of(shard).next().unwrap();
    let cells = |_e: &Edge, c: &mut Vec<u32>| c.push(1u32);
    engine
        .load_planned(&block, CellLayout::PerEdge(&cells))
        .unwrap();
    let rows = engine.config().cam_geometry.rows;
    let mut hits = HitVector::new(rows);
    let mut results: Vec<(usize, u64)> = Vec::with_capacity(rows);
    let mut pass = |engine: &mut Engine| {
        let mut work = 0u64;
        for &dst in block.distinct_dsts() {
            engine.search_dst_into(dst, &mut hits);
            work += engine.gather_rows(&hits, &mut |_| 1, 0).unwrap();
        }
        for &src in block.distinct_srcs() {
            engine.search_src_into(src, &mut hits);
            engine
                .propagate_rows_into(&hits, &[0], &[1], &mut results)
                .unwrap();
            work += results.len() as u64;
        }
        work
    };
    // Two warm passes build the CAM's field indexes and size the MAC's
    // full-evaluation buffer (ADC flips force full read-outs).
    let warm = pass(&mut engine) + pass(&mut engine);
    assert!(warm > 0, "warm passes must do real work");

    let before = allocs();
    let work = pass(&mut engine);
    let allocs = allocs() - before;

    assert!(work > 0);
    let r = engine.finish("t", "t", "t", 1, 0);
    assert!(r.faults.cam_double_checks > 0, "{:?}", r.faults);
    assert!(r.faults.row_remaps > 0, "{:?}", r.faults);
    assert_eq!(
        allocs, 0,
        "steady-state voted search + gather/propagate pass performed {allocs} heap allocations"
    );
}
