//! Streaming a prebuilt plan is bit-identical to planning per call: for
//! every [`ShardableAlgorithm`], `execute_on_plan` with a [`StreamPlan`]
//! of `partition_for_streaming(g)` returns the same output and the same
//! [`gaasx_sim::RunReport`] as `execute_on`, on the serial engine and on
//! a two-worker sharded engine. A plan of another graph, or of another
//! block capacity, is rejected as invalid input.

#![allow(clippy::unwrap_used)]
use gaasx_core::algorithms::{Bfs, ConnectedComponents, PageRank, Sssp};
use gaasx_core::engine::{partition_for_streaming, Engine};
use gaasx_core::{
    CoreError, GaasXConfig, ShardRunner, ShardableAlgorithm, ShardedEngine, StreamPlan,
};
use gaasx_graph::generators::{self, rmat, RmatConfig};
use gaasx_graph::partition::GridPartition;
use gaasx_graph::{CooGraph, VertexId};
use gaasx_sim::RunReport;
use proptest::prelude::*;

/// The runners under test: the serial engine and `ShardedEngine` with
/// two workers, each finished into a report.
trait Finish: ShardRunner {
    fn fresh() -> Self;
    fn report(&mut self, algorithm: &str, iterations: u32, edges: usize) -> RunReport;
}

impl Finish for Engine {
    fn fresh() -> Self {
        Engine::new(GaasXConfig::small()).unwrap()
    }
    fn report(&mut self, algorithm: &str, iterations: u32, edges: usize) -> RunReport {
        self.finish("gaasx", algorithm, "g", iterations, edges as u64)
    }
}

impl Finish for ShardedEngine {
    fn fresh() -> Self {
        ShardedEngine::new(GaasXConfig::small(), 2).unwrap()
    }
    fn report(&mut self, algorithm: &str, iterations: u32, edges: usize) -> RunReport {
        self.finish("gaasx", algorithm, "g", iterations, edges as u64)
    }
}

fn assert_grid_path_identical<A, R>(algorithm: &A, graph: &CooGraph, grid: &GridPartition)
where
    A: ShardableAlgorithm,
    A::Output: PartialEq + std::fmt::Debug,
    R: Finish,
{
    let mut one_shot = R::fresh();
    let a = algorithm.execute_on(&mut one_shot, graph).unwrap();
    let a_report = one_shot.report(algorithm.name(), a.iterations, graph.num_edges());

    let plan = StreamPlan::for_engine(grid.clone(), R::fresh().engine());
    // Twice through one plan, as a resident graph streams it per query.
    for _ in 0..2 {
        let mut prebuilt = R::fresh();
        let b = algorithm
            .execute_on_plan(&mut prebuilt, graph, &plan)
            .unwrap();
        let b_report = prebuilt.report(algorithm.name(), b.iterations, graph.num_edges());
        assert_eq!(a, b, "{} output diverged", algorithm.name());
        assert_eq!(a_report, b_report, "{} report diverged", algorithm.name());
    }
}

fn assert_all_identical<R: Finish>(graph: &CooGraph) {
    let grid = partition_for_streaming(graph).unwrap();
    let source = VertexId::new(0);
    assert_grid_path_identical::<_, R>(&PageRank::fixed_iterations(3), graph, &grid);
    assert_grid_path_identical::<_, R>(&Sssp::from_source(source), graph, &grid);
    assert_grid_path_identical::<_, R>(&Bfs::from_source(source), graph, &grid);
    let sym = graph.symmetrized();
    let sym_grid = partition_for_streaming(&sym).unwrap();
    assert_grid_path_identical::<_, R>(&ConnectedComponents::new(), &sym, &sym_grid);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn execute_on_plan_matches_execute_on(
        vertex_exp in 4u32..8,
        edges in 20usize..400,
        seed in 0u64..1_000,
    ) {
        let graph = rmat(&RmatConfig::new(1 << vertex_exp, edges).with_seed(seed)).unwrap();
        assert_all_identical::<Engine>(&graph);
        assert_all_identical::<ShardedEngine>(&graph);
    }
}

#[test]
fn foreign_plan_is_invalid_input() {
    let graph = rmat(&RmatConfig::new(1 << 5, 120).with_seed(3)).unwrap();
    let capacity = Engine::fresh().block_capacity();
    // Another vertex count, the same vertex count with other edges, and
    // the right grid in blocks of another capacity.
    let foreign = [
        StreamPlan::new(
            partition_for_streaming(&generators::path_graph(10)).unwrap(),
            capacity,
        ),
        StreamPlan::new(
            partition_for_streaming(&CooGraph::empty(graph.num_vertices())).unwrap(),
            capacity,
        ),
        StreamPlan::new(partition_for_streaming(&graph).unwrap(), capacity / 2),
    ];
    let source = VertexId::new(0);
    for plan in &foreign {
        let mut engine = Engine::fresh();
        let errs = [
            PageRank::default()
                .execute_on_plan(&mut engine, &graph, plan)
                .map(|_| ()),
            Sssp::from_source(source)
                .execute_on_plan(&mut engine, &graph, plan)
                .map(|_| ()),
            Bfs::from_source(source)
                .execute_on_plan(&mut engine, &graph, plan)
                .map(|_| ()),
            ConnectedComponents::new()
                .execute_on_plan(&mut engine, &graph, plan)
                .map(|_| ()),
        ];
        for err in errs {
            assert!(matches!(err, Err(CoreError::InvalidInput(_))), "{err:?}");
        }
    }
}

#[test]
fn vertexless_graph_streams_the_empty_grid() {
    let graph = CooGraph::empty(0);
    let mut engine = Engine::fresh();
    let run = PageRank::default().execute_on(&mut engine, &graph).unwrap();
    assert!(run.output.is_empty());
    assert!(matches!(
        Bfs::from_source(VertexId::new(0)).execute_on(&mut engine, &graph),
        Err(CoreError::InvalidInput(_))
    ));
}
