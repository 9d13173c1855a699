//! Block plans: a streaming grid's bank-sized blocks, planned once.
//!
//! The controller keeps each loaded block's vertex ranges as graph
//! metadata (paper §III-A), and the grid those blocks come from is
//! one-time preprocessing (§II-B). A [`StreamPlan`] holds both: the
//! [`GridPartition`] plus, for every block of at most `capacity` edges
//! (each shard chunked exactly as `shard.edges().chunks(capacity)`), its
//! ascending distinct sources and destinations and — optionally — an
//! exact-match *hit index*: the block-local rows that hold each distinct
//! source and each distinct destination. Shard edges are sorted by
//! `(dst, src)`, so a destination's rows are a contiguous run and only
//! the source rows are stored.
//!
//! An engine programs a planned block with no per-load sort, dedup or
//! copy. An engine that [replays plans](Engine::replays_plans) also serves
//! the block's `Indexed`-resolved searches from the hit index instead of
//! searching the CAM. The searches are still billed as device operations
//! (majority votes included), so reports are unchanged. Replay needs every
//! stored key to equal its planned key and every search to return exactly
//! the stored matches: true without a fault model, and true under one with
//! write-verify on and no match-line upsets, where a successful load has
//! verified every slot. Upset models or verify-off engines can diverge
//! from the plan, so [`StreamPlan::for_engine`] skips the index for them.
//!
//! One plan is built per run, or once per registered graph by a serving
//! layer, and is shared by reference with every worker engine. It holds
//! no copy of the edges: a block is an edge range of its shard.

use std::borrow::Cow;
use std::sync::Arc;

use gaasx_graph::partition::{GridPartition, Shard};
use gaasx_graph::{Edge, VertexId};
use gaasx_xbar::HitVector;

use crate::engine::{Block, Engine};

/// The CAM key field a search matches (sources sit in the high 32 bits of
/// the key, destinations in the low 32).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyField {
    Src,
    Dst,
}

/// One planned block: an edge range of its shard plus where its keys and
/// hit rows sit in the table's flat arenas.
#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    /// First edge of the block within its shard.
    first_edge: u32,
    len: u32,
    /// Start of the block's rows in the hit index's row arenas.
    rows_at: u32,
    /// Start of the block's keys in `keys`: its distinct sources, then its
    /// distinct destinations.
    keys_at: u32,
    num_srcs: u32,
    num_dsts: u32,
}

/// Block-local rows per distinct key, as a CSR over the table's keys.
///
/// A shard's edges are sorted by `(dst, src)`, so a block's rows grouped
/// by ascending destination are the rows in order: each destination's
/// rows are the contiguous run between its group's start and end, and
/// only the source field needs a row list.
#[derive(Debug)]
struct HitIndex {
    /// Parallel to `BlockTable::keys`: the end of each key's rows in its
    /// block's row list for that field (the start is the previous key's
    /// end, or 0 for a field's first key). For a destination these are
    /// block-local rows themselves.
    ends: Vec<u16>,
    /// Per block, its rows grouped by ascending source (`rows_at..+len`).
    src_rows: Vec<u16>,
}

/// The per-block metadata of a plan, shared by every engine that loads
/// one of its blocks (engines keep a handle to replay searches from it).
#[derive(Debug)]
pub(crate) struct BlockTable {
    /// Grid `(row, col)` of each non-empty shard, ascending — the order
    /// [`GridPartition::shards_with_coords`] yields them in.
    shard_coords: Vec<(u32, u32)>,
    /// Shard `i`'s blocks are `shard_first[i]..shard_first[i + 1]`.
    shard_first: Vec<u32>,
    blocks: Vec<BlockMeta>,
    keys: Vec<VertexId>,
    hits: Option<HitIndex>,
}

impl BlockTable {
    /// Whether the table carries a hit index.
    pub(crate) fn has_hits(&self) -> bool {
        self.hits.is_some()
    }

    /// Sets in `out` — which the caller has reset to the device row
    /// count — the hits of searching `block` for `v` in `field`: exactly
    /// the rows an exact-match CAM search over the block's programmed
    /// keys returns. Without a hit index nothing is set; engines only
    /// replay from tables that have one.
    pub(crate) fn mark_hits(
        &self,
        block: usize,
        field: KeyField,
        v: VertexId,
        out: &mut HitVector,
    ) {
        let (Some(b), Some(hits)) = (self.blocks.get(block), self.hits.as_ref()) else {
            return;
        };
        let (keys_at, num_keys) = match field {
            KeyField::Src => (b.keys_at, b.num_srcs),
            KeyField::Dst => (b.keys_at + b.num_srcs, b.num_dsts),
        };
        let keys = keys_at as usize..(keys_at + num_keys) as usize;
        let Ok(i) = self.keys[keys.clone()].binary_search(&v) else {
            return;
        };
        let start = if i == 0 {
            0
        } else {
            usize::from(hits.ends[keys.start + i - 1])
        };
        let end = usize::from(hits.ends[keys.start + i]);
        match field {
            KeyField::Src => {
                let block_rows = b.rows_at as usize..(b.rows_at + b.len) as usize;
                for &row in &hits.src_rows[block_rows][start..end] {
                    out.set(usize::from(row));
                }
            }
            KeyField::Dst => {
                for row in start..end {
                    out.set(row);
                }
            }
        }
    }

    /// Heap bytes held by the table.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let hits = self.hits.as_ref().map_or(0, |h| {
            size_of::<u16>() * (h.ends.capacity() + h.src_rows.capacity())
        });
        size_of::<(u32, u32)>() * self.shard_coords.capacity()
            + size_of::<u32>() * self.shard_first.capacity()
            + size_of::<BlockMeta>() * self.blocks.capacity()
            + size_of::<VertexId>() * self.keys.capacity()
            + hits
    }
}

/// A grid plus its per-block plan (see the module docs).
#[derive(Debug)]
pub struct StreamPlan {
    grid: GridPartition,
    capacity: usize,
    table: Arc<BlockTable>,
}

impl StreamPlan {
    /// Plans `grid` in blocks of at most `capacity` edges (clamped to at
    /// least 1), with a hit index whenever block-local rows fit in `u16`
    /// (`capacity <= 65535`).
    pub fn new(grid: GridPartition, capacity: usize) -> Self {
        Self::build(grid, capacity, true)
    }

    /// Plans `grid` for `engine`: blocks of its
    /// [`block_capacity`](Engine::block_capacity), with a hit index only
    /// when the engine can replay searches from it
    /// ([`Engine::replays_plans`]: no fault model, or write-verify with no
    /// match-line upsets; and a CAM wide enough to hold both 32-bit key
    /// fields).
    pub fn for_engine(grid: GridPartition, engine: &Engine) -> Self {
        Self::build(grid, engine.block_capacity(), engine.replays_plans())
    }

    fn build(grid: GridPartition, capacity: usize, hit_index: bool) -> Self {
        let capacity = capacity.max(1);
        let mut hits = (hit_index && capacity <= usize::from(u16::MAX)).then(|| HitIndex {
            ends: Vec::new(),
            src_rows: Vec::with_capacity(grid.total_edges()),
        });
        let mut shard_coords = Vec::with_capacity(grid.num_nonempty_shards());
        let mut shard_first = Vec::with_capacity(grid.num_nonempty_shards() + 1);
        let mut blocks = Vec::new();
        let mut keys = Vec::new();
        let mut scratch: Vec<u64> = Vec::with_capacity(capacity.min(grid.total_edges()));
        let mut rows_at = 0u32;
        for (coords, shard) in grid.shards_with_coords() {
            shard_coords.push(coords);
            shard_first.push(blocks.len() as u32);
            for (i, chunk) in shard.edges().chunks(capacity).enumerate() {
                let keys_at = keys.len() as u32;
                let (ends, src_rows) = match hits.as_mut() {
                    Some(h) => (Some(&mut h.ends), Some(&mut h.src_rows)),
                    None => (None, None),
                };
                let num_srcs =
                    plan_field(chunk, |e| e.src, &mut scratch, &mut keys, ends, src_rows);
                debug_assert!(
                    chunk.windows(2).all(|w| w[0].dst <= w[1].dst),
                    "shard edges must be sorted by destination"
                );
                let num_dsts = plan_field(
                    chunk,
                    |e| e.dst,
                    &mut scratch,
                    &mut keys,
                    hits.as_mut().map(|h| &mut h.ends),
                    None,
                );
                blocks.push(BlockMeta {
                    first_edge: (i * capacity) as u32,
                    len: chunk.len() as u32,
                    rows_at,
                    keys_at,
                    num_srcs,
                    num_dsts,
                });
                if hits.is_some() {
                    rows_at += chunk.len() as u32;
                }
            }
        }
        shard_first.push(blocks.len() as u32);
        blocks.shrink_to_fit();
        keys.shrink_to_fit();
        if let Some(h) = hits.as_mut() {
            h.ends.shrink_to_fit();
        }
        StreamPlan {
            grid,
            capacity,
            table: Arc::new(BlockTable {
                shard_coords,
                shard_first,
                blocks,
                keys,
                hits,
            }),
        }
    }

    /// The planned grid.
    pub fn grid(&self) -> &GridPartition {
        &self.grid
    }

    /// Maximum edges per planned block.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the plan carries a hit index.
    #[cfg(test)]
    pub(crate) fn has_hit_index(&self) -> bool {
        self.table.has_hits()
    }

    /// The blocks of `shard` in stream order, ready for
    /// [`Engine::load_planned`]. The shard is found by its `(row, col)`
    /// grid coordinates, as [`GridPartition::shard`] finds it; a shard
    /// this plan's grid does not hold yields no blocks.
    pub fn blocks_of<'p>(&'p self, shard: &Shard) -> impl Iterator<Item = Block<'p>> + 'p {
        let size = self.grid.interval_size();
        let coords = (
            shard.src_interval().start() / size,
            shard.dst_interval().start() / size,
        );
        let (edges, range) = match self.table.shard_coords.binary_search(&coords) {
            Ok(i) => {
                let own = self
                    .grid
                    .shard(coords.0, coords.1)
                    .map_or(&[][..], Shard::edges);
                let first = self.table.shard_first[i] as usize;
                let end = self.table.shard_first[i + 1] as usize;
                (own, first..end)
            }
            Err(_) => (&[][..], 0..0),
        };
        range.map(move |id| self.block(edges, id))
    }

    fn block<'p>(&'p self, shard_edges: &'p [Edge], id: usize) -> Block<'p> {
        let b = self.table.blocks[id];
        let first = b.first_edge as usize;
        let srcs = b.keys_at as usize;
        let dsts = srcs + b.num_srcs as usize;
        Block::planned(
            Cow::Borrowed(&shard_edges[first..first + b.len as usize]),
            Cow::Borrowed(&self.table.keys[srcs..dsts]),
            Cow::Borrowed(&self.table.keys[dsts..dsts + b.num_dsts as usize]),
            &self.table,
            id,
        )
    }
}

/// Appends the ascending distinct values of `key` over `edges` to `keys`,
/// each value's group end to `ends` when given, and each value's
/// block-local rows (grouped by value, ascending within a group) to `rows`
/// when given. Returns the distinct count.
pub(crate) fn plan_field(
    edges: &[Edge],
    key: impl Fn(&Edge) -> VertexId,
    scratch: &mut Vec<u64>,
    keys: &mut Vec<VertexId>,
    mut ends: Option<&mut Vec<u16>>,
    mut rows: Option<&mut Vec<u16>>,
) -> u32 {
    scratch.clear();
    scratch.extend(
        edges
            .iter()
            .enumerate()
            .map(|(row, e)| (u64::from(key(e).raw()) << 32) | row as u64),
    );
    scratch.sort_unstable();
    let mut distinct = 0u32;
    for (i, &packed) in scratch.iter().enumerate() {
        let v = (packed >> 32) as u32;
        let group_ends = scratch
            .get(i + 1)
            .map_or(true, |&next| (next >> 32) as u32 != v);
        if let Some(rows) = rows.as_mut() {
            rows.push(packed as u16);
        }
        if group_ends {
            if let Some(ends) = ends.as_mut() {
                ends.push((i + 1) as u16);
            }
            keys.push(VertexId::new(v));
            distinct += 1;
        }
    }
    distinct
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GaasXConfig;
    use crate::engine::partition_for_streaming;
    use gaasx_graph::generators;
    use gaasx_graph::partition::TraversalOrder;

    fn rmat(vertices: u32, edges: usize, seed: u64) -> gaasx_graph::CooGraph {
        generators::rmat(&generators::RmatConfig::new(vertices, edges).with_seed(seed)).unwrap()
    }

    #[test]
    fn blocks_chunk_each_shard_like_chunks() {
        let g = rmat(1 << 7, 3000, 5);
        let plan = StreamPlan::new(partition_for_streaming(&g).unwrap(), 128);
        let mut planned = 0;
        for shard in plan.grid().stream(TraversalOrder::ColumnMajor) {
            let blocks: Vec<Block<'_>> = plan.blocks_of(shard).collect();
            let chunks: Vec<&[Edge]> = shard.edges().chunks(128).collect();
            assert_eq!(blocks.len(), chunks.len());
            for (block, chunk) in blocks.iter().zip(chunks) {
                assert_eq!(block.len(), chunk.len());
                for (row, e) in chunk.iter().enumerate() {
                    assert_eq!(block.edge(row), *e);
                }
                let mut srcs: Vec<VertexId> = chunk.iter().map(|e| e.src).collect();
                srcs.sort_unstable();
                srcs.dedup();
                let mut dsts: Vec<VertexId> = chunk.iter().map(|e| e.dst).collect();
                dsts.sort_unstable();
                dsts.dedup();
                assert_eq!(block.distinct_srcs(), &srcs[..]);
                assert_eq!(block.distinct_dsts(), &dsts[..]);
            }
            planned += blocks.len();
        }
        assert_eq!(planned, plan.table.blocks.len());
    }

    #[test]
    fn a_foreign_shard_has_no_blocks() {
        let g = rmat(1 << 7, 600, 2);
        let plan = StreamPlan::new(partition_for_streaming(&g).unwrap(), 16);
        let empty = StreamPlan::new(gaasx_graph::partition::GridPartition::empty(), 16);
        for shard in plan.grid().shards() {
            assert_eq!(empty.blocks_of(shard).count(), 0);
        }
    }

    #[test]
    fn replayed_hits_match_the_block_rows() {
        let g = rmat(1 << 6, 900, 9);
        let plan = StreamPlan::new(partition_for_streaming(&g).unwrap(), 32);
        let mut hits = HitVector::new(0);
        for shard in plan.grid().shards() {
            for block in plan.blocks_of(shard) {
                let (table, id) = block.plan_ref().unwrap();
                for v in 0..g.num_vertices() {
                    let v = VertexId::new(v);
                    for field in [KeyField::Src, KeyField::Dst] {
                        hits.reset(40);
                        table.mark_hits(id, field, v, &mut hits);
                        let want: Vec<usize> = (0..block.len())
                            .filter(|&r| {
                                let e = block.edge(r);
                                v == if field == KeyField::Src { e.src } else { e.dst }
                            })
                            .collect();
                        assert_eq!(hits.len(), 40);
                        assert_eq!(hits.iter_ones().collect::<Vec<_>>(), want);
                    }
                }
            }
        }
    }

    #[test]
    fn the_plan_stays_within_seven_and_a_half_bytes_per_edge() {
        // The serve and pagerank benchmark shapes: RMAT graphs on the
        // paper's 128-row banks. Measured: 6.40 and 7.32 bytes per edge
        // (one u16 source row per edge; destination rows are implicit).
        for (vertices, edges) in [(1 << 11, 30_000), (1 << 13, 100_000)] {
            let g = rmat(vertices, edges, 1);
            let plan = StreamPlan::new(partition_for_streaming(&g).unwrap(), 128);
            assert!(plan.has_hit_index());
            let per_edge = plan.table.heap_bytes() as f64 / edges as f64;
            assert!(per_edge <= 7.5, "{per_edge:.2} bytes per edge");
        }
    }

    #[test]
    fn destination_rows_are_contiguous_runs() {
        // The hit index stores no destination row list: a block's rows
        // for each destination must be the run between its group bounds.
        let g = rmat(1 << 7, 3000, 4);
        let plan = StreamPlan::new(partition_for_streaming(&g).unwrap(), 128);
        for shard in plan.grid().shards() {
            for block in plan.blocks_of(shard) {
                let mut start = 0;
                for &dst in block.distinct_dsts() {
                    let rows: Vec<usize> = (0..block.len())
                        .filter(|&r| block.edge(r).dst == dst)
                        .collect();
                    assert_eq!(rows, (start..start + rows.len()).collect::<Vec<_>>());
                    start += rows.len();
                }
                assert_eq!(start, block.len());
            }
        }
    }

    #[test]
    fn verified_upset_free_fault_models_get_a_hit_index() {
        let g = rmat(1 << 6, 300, 3);
        let grid = partition_for_streaming(&g).unwrap();
        let engine = |fault: gaasx_xbar::FaultModel, recovery: crate::RecoveryPolicy| {
            Engine::new(GaasXConfig {
                fault,
                recovery,
                ..GaasXConfig::small()
            })
            .unwrap()
        };
        let stuck = gaasx_xbar::FaultModel {
            seed: 1,
            cam_stuck_ber: 1e-4,
            mac_stuck_ber: 1e-4,
            write_fail_rate: 1e-3,
            ..gaasx_xbar::FaultModel::none()
        };
        let upsets = gaasx_xbar::FaultModel {
            cam_upset_rate: 1e-3,
            ..stuck
        };
        let verify_off = crate::RecoveryPolicy {
            write_verify: false,
            ..crate::RecoveryPolicy::standard()
        };
        let standard = crate::RecoveryPolicy::standard();
        let clean = Engine::new(GaasXConfig::small()).unwrap();
        assert!(StreamPlan::for_engine(grid.clone(), &clean).has_hit_index());
        // Write-verify and no match-line upsets: every stored key is its
        // planned key, so searches replay.
        for verified in [
            engine(stuck, standard),
            engine(stuck, crate::RecoveryPolicy::detect_only()),
        ] {
            assert!(verified.replays_plans());
            assert!(StreamPlan::for_engine(grid.clone(), &verified).has_hit_index());
        }
        for device in [engine(upsets, standard), engine(stuck, verify_off)] {
            assert!(!device.replays_plans());
            assert!(!StreamPlan::for_engine(grid.clone(), &device).has_hit_index());
        }
        assert!(!StreamPlan::new(grid, 1 << 16).has_hit_index());
    }
}
