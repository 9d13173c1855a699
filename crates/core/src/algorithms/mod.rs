//! Algorithm mappings onto the GaaS-X engine (paper §IV).
//!
//! Each algorithm decomposes into the paper's two SpMV primitives:
//!
//! * **SpMV-multiply** — parallel aggregation of attributes at a vertex
//!   (PageRank ranks, CF feature products) via CAM-search +
//!   [`Engine::gather_rows`];
//! * **SpMV-add** — parallel updates of neighbor attributes from an active
//!   vertex (SSSP, BFS) via CAM-search + [`Engine::propagate_rows`].
//!
//! [`Engine`]: crate::engine::Engine

mod bfs;
mod cf;
mod components;
mod gcn;
mod pagerank;
pub mod signed;
mod spmv;
mod sssp;

pub use bfs::Bfs;
pub use cf::{CfModel, CollaborativeFiltering};
pub use components::ConnectedComponents;
pub use gcn::{GcnInput, GcnLayer};
pub use pagerank::PageRank;
pub use spmv::SpMV;
pub use sssp::Sssp;

use crate::engine::{partition_for_streaming, Engine};
use crate::error::CoreError;
use crate::plan::StreamPlan;
use crate::sharded::ShardRunner;

use gaasx_graph::partition::GridPartition;
use gaasx_graph::CooGraph;
use gaasx_xbar::SearchProfile;

/// Result of executing an algorithm: its output plus the iteration count
/// the engine ran (supersteps / epochs).
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoRun<T> {
    /// Algorithm output (ranks, distances, model, ...).
    pub output: T,
    /// Iterations executed until convergence or the configured cap.
    pub iterations: u32,
}

/// A graph algorithm mappable onto the GaaS-X execution model.
pub trait Algorithm {
    /// Input workload type (directed graph, bipartite ratings, ...).
    type Input: ?Sized;
    /// Output type.
    type Output;

    /// Short lowercase name used in reports ("pagerank", "sssp", ...).
    fn name(&self) -> &'static str;

    /// Number of edges in the input, for throughput reporting.
    fn input_edges(input: &Self::Input) -> u64;

    /// How the algorithm queries the blocks it loads — the workload input
    /// of the [`SearchMode::Auto`](gaasx_xbar::SearchMode) cost model.
    /// Dense sweeps (the default) search every distinct key per visit;
    /// frontier traversals override this to declare their sparse access.
    fn search_profile(&self) -> SearchProfile {
        SearchProfile::OnePerKey
    }

    /// Executes the algorithm on the engine.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on invalid inputs (e.g. an out-of-range source
    /// vertex) or internal device failures.
    fn execute(
        &self,
        engine: &mut Engine,
        input: &Self::Input,
    ) -> Result<AlgoRun<Self::Output>, CoreError>;
}

/// An algorithm whose supersteps decompose into pure per-shard passes
/// (snapshot state in, candidate updates out) plus a sequential reduce —
/// executable serially on an [`Engine`] or in parallel on a
/// [`crate::sharded::ShardedEngine`], with identical results and cost
/// accounting either way.
///
/// Partitioning and block planning are host-side preprocessing (paper
/// §II-B), so a caller that runs many queries on one graph builds its
/// [`StreamPlan`] once and calls
/// [`execute_on_plan`](ShardableAlgorithm::execute_on_plan); a one-shot
/// caller uses [`execute_on`](ShardableAlgorithm::execute_on). Both give
/// the same output and the same [`gaasx_sim::RunReport`].
pub trait ShardableAlgorithm: Algorithm<Input = CooGraph> {
    /// Executes the algorithm on any [`ShardRunner`], streaming `graph`
    /// through `plan`, which must plan `partition_for_streaming(graph)` in
    /// blocks of the runner's [`Engine::block_capacity`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if `plan` does not match
    /// `graph` or the engine (see [`check_plan`]), and [`CoreError`] on
    /// other invalid inputs or device failures.
    fn execute_on_plan<R: ShardRunner>(
        &self,
        runner: &mut R,
        graph: &CooGraph,
        plan: &StreamPlan,
    ) -> Result<AlgoRun<Self::Output>, CoreError>;

    /// Partitions and plans `graph` for the runner's engine, then executes
    /// the algorithm on any [`ShardRunner`].
    ///
    /// # Errors
    ///
    /// As [`execute_on_plan`](ShardableAlgorithm::execute_on_plan).
    fn execute_on<R: ShardRunner>(
        &self,
        runner: &mut R,
        graph: &CooGraph,
    ) -> Result<AlgoRun<Self::Output>, CoreError> {
        let plan = StreamPlan::for_engine(partition_for_streaming(graph)?, runner.engine());
        self.execute_on_plan(runner, graph, &plan)
    }
}

/// Checks that `grid` was built from a graph shaped like `graph`: same
/// vertex count, same edge count. Streaming a grid of another graph
/// would silently compute on the wrong edges.
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] on a mismatch.
pub fn check_grid(graph: &CooGraph, grid: &GridPartition) -> Result<(), CoreError> {
    if grid.num_vertices() != graph.num_vertices() || grid.total_edges() != graph.num_edges() {
        return Err(CoreError::InvalidInput(format!(
            "grid of {} vertices and {} edges does not partition a graph of {} vertices and {} edges",
            grid.num_vertices(),
            grid.total_edges(),
            graph.num_vertices(),
            graph.num_edges()
        )));
    }
    Ok(())
}

/// Checks that `plan` can stream `graph` on `engine`: its grid partitions
/// a graph shaped like `graph` ([`check_grid`]) and its blocks are sized
/// to the engine's [`block_capacity`](Engine::block_capacity).
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] on a mismatch.
pub fn check_plan(graph: &CooGraph, plan: &StreamPlan, engine: &Engine) -> Result<(), CoreError> {
    check_grid(graph, plan.grid())?;
    if plan.capacity() != engine.block_capacity() {
        return Err(CoreError::InvalidInput(format!(
            "plan of {}-edge blocks does not fit an engine of {}-edge blocks",
            plan.capacity(),
            engine.block_capacity()
        )));
    }
    Ok(())
}
