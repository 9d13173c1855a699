//! Property-based tests of the graph substrate.

#![allow(clippy::unwrap_used)]
use proptest::prelude::*;

use gaasx_graph::generators::{self, RmatConfig};
use gaasx_graph::io;
use gaasx_graph::partition::GridPartition;
use gaasx_graph::{reorder, CooGraph, Csc, Csr, Edge, VertexId};

fn arb_graph() -> impl Strategy<Value = CooGraph> {
    (2u32..80, 0usize..300, any::<u64>()).prop_map(|(n, m, seed)| {
        generators::rmat(&RmatConfig::new(n, m.max(1)).with_seed(seed)).unwrap()
    })
}

/// Few vertices, many edges: nearly every `(src, dst)` pair repeats, with
/// RMAT's integral weights `1..=16`, so parallel-edge order is exercised.
fn arb_multigraph() -> impl Strategy<Value = CooGraph> {
    (2u32..8, 1usize..300, any::<u64>()).prop_map(|(n, m, seed)| {
        generators::rmat(&RmatConfig::new(n, m).with_max_weight(16).with_seed(seed)).unwrap()
    })
}

/// The comparator sort `GridPartition::new` used before it packed its key
/// into one integer: `sort_unstable_by_key` on `(row, col, dst, src)`.
/// Returns every non-empty shard's `(row, col)` and edges, row-major.
fn reference_shards(g: &CooGraph, interval_size: u32) -> Vec<((u32, u32), Vec<Edge>)> {
    let block = |v: VertexId| v.raw() / interval_size;
    let mut edges = g.edges().to_vec();
    edges.sort_unstable_by_key(|e| (block(e.src), block(e.dst), e.dst.raw(), e.src.raw()));
    let mut shards: Vec<((u32, u32), Vec<Edge>)> = Vec::new();
    for e in edges {
        let key = (block(e.src), block(e.dst));
        match shards.last_mut() {
            Some((k, shard)) if *k == key => shard.push(e),
            _ => shards.push((key, vec![e])),
        }
    }
    shards
}

/// Exact equality with [`reference_shards`], parallel-edge order and
/// weights included.
fn assert_matches_reference(g: &CooGraph, grid: &GridPartition) {
    let got: Vec<((u32, u32), Vec<Edge>)> = grid
        .shards_with_coords()
        .map(|(k, s)| (k, s.edges().to_vec()))
        .collect();
    assert_eq!(got, reference_shards(g, grid.interval_size()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn binary_io_roundtrips(g in arb_graph()) {
        prop_assert_eq!(io::from_binary(io::to_binary(&g)).unwrap(), g);
    }

    #[test]
    fn text_io_preserves_edges(g in arb_graph()) {
        let mut buf = Vec::new();
        io::write_edge_list(&mut buf, &g).unwrap();
        let back = io::read_edge_list(buf.as_slice()).unwrap();
        prop_assert_eq!(back.num_edges(), g.num_edges());
        // Text reader infers the vertex count from max id; edges match.
        prop_assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn degree_sums_equal_edge_count(g in arb_graph()) {
        let out: u64 = g.out_degrees().iter().map(|&d| u64::from(d)).sum();
        let inn: u64 = g.in_degrees().iter().map(|&d| u64::from(d)).sum();
        prop_assert_eq!(out, g.num_edges() as u64);
        prop_assert_eq!(inn, g.num_edges() as u64);
    }

    #[test]
    fn csr_csc_agree_on_edge_multiset(g in arb_graph()) {
        let csr = Csr::from_coo(&g);
        let csc = Csc::from_coo(&g);
        let mut fwd: Vec<(u32, u32)> = Vec::new();
        let mut bwd: Vec<(u32, u32)> = Vec::new();
        for v in VertexId::all(g.num_vertices()) {
            for (u, _) in csr.neighbors(v) {
                fwd.push((v.raw(), u.raw()));
            }
            for (u, _) in csc.in_neighbors(v) {
                bwd.push((u.raw(), v.raw()));
            }
        }
        fwd.sort_unstable();
        bwd.sort_unstable();
        prop_assert_eq!(fwd, bwd);
    }

    #[test]
    fn partition_tiles_cover_all_edges(g in arb_graph(), interval in 1u32..40) {
        let grid = GridPartition::new(&g, interval).unwrap();
        prop_assert_eq!(grid.total_edges(), g.num_edges());
        prop_assert!(grid.num_nonempty_shards() <= g.num_edges().max(1));
    }

    #[test]
    fn partition_matches_tuple_key_reference(g in arb_graph(), interval in 1u32..40) {
        assert_matches_reference(&g, &GridPartition::new(&g, interval).unwrap());
        assert_matches_reference(&g, &GridPartition::with_num_intervals(&g, 16).unwrap());
    }

    #[test]
    fn partition_keeps_reference_order_of_parallel_edges(
        g in arb_multigraph(),
        interval in 1u32..9,
    ) {
        assert_matches_reference(&g, &GridPartition::new(&g, interval).unwrap());
    }

    #[test]
    fn symmetrize_is_idempotent(g in arb_graph()) {
        let s = g.symmetrized();
        prop_assert_eq!(s.symmetrized(), s.clone());
        // Symmetric graphs have equal in/out degrees.
        prop_assert_eq!(s.out_degrees(), s.in_degrees());
    }

    #[test]
    fn random_reorder_preserves_degree_multiset(g in arb_graph(), seed in any::<u64>()) {
        let r = reorder::random(&g, seed);
        let mut a = g.out_degrees();
        let mut b = r.out_degrees();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn dedup_never_grows(g in arb_graph()) {
        let d = g.deduplicated();
        prop_assert!(d.num_edges() <= g.num_edges());
        prop_assert_eq!(d.deduplicated().num_edges(), d.num_edges());
    }
}
