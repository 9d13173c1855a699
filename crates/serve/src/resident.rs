//! Graphs resident on crossbar banks across queries.
//!
//! A [`ResidentGraph`] keeps a programmed [`ShardedEngine`] alive between
//! queries so consecutive queries skip engine construction.
//!
//! Each registered graph is partitioned and planned once, on its first
//! query: the [`StreamPlan`] of its [`partition_for_streaming`] grid is
//! cached, and every query streams it through
//! [`ShardableAlgorithm::execute_on_plan`] or [`run_batch`]. The plan is
//! host-side preprocessing of the registered graph (paper §II-B), not
//! bank state, so it survives eviction and panic replacement.
//! Registration does no partitioning or planning and cannot fail.
//!
//! Per-query accounting is wiped with
//! [`ShardedEngine::reset_accounting`] while device state — endurance
//! wear, fault RNG streams, spare-row remaps — persists, exactly as it
//! would on real hardware. Eviction drops the engines (freeing the
//! modeled banks); the next query *reprograms* the graph onto fresh
//! banks, which resets wear but changes nothing functionally.
//!
//! A panic-replacement rebuild is different: the replacement engines run
//! on the *same* modeled banks, so the wear ledger is carried over via
//! [`WearSnapshot`].

use gaasx_graph::partition::TraversalOrder;
use gaasx_graph::{CooGraph, VertexId};
use gaasx_sim::Nanos;

use gaasx_core::algorithms::{Bfs, ShardableAlgorithm, Sssp};
use gaasx_core::engine::partition_for_streaming;
use gaasx_core::{CoreError, GaasXConfig, ShardRunner, ShardedEngine, StreamPlan, WearSnapshot};

use crate::batch::run_batch;
use crate::server::{QueryKind, QueryOutput};

/// A registered graph and (when resident) its programmed engines.
#[derive(Debug)]
pub struct ResidentGraph {
    name: String,
    graph: CooGraph,
    config: GaasXConfig,
    jobs: usize,
    exec: Option<ShardedEngine>,
    /// The graph's streaming plan, built on the first query and kept for
    /// the graph's lifetime (across evictions and panic replacements).
    plan: Option<StreamPlan>,
    /// Dispatch sequence number of the most recent query — the LRU key.
    last_used: u64,
    queries_served: u64,
    programs: u64,
}

impl ResidentGraph {
    /// Registers a graph (not yet resident — banks are programmed on
    /// first use).
    pub fn new(name: String, graph: CooGraph, config: GaasXConfig, jobs: usize) -> Self {
        ResidentGraph {
            name,
            graph,
            config,
            jobs,
            exec: None,
            plan: None,
            last_used: 0,
            queries_served: 0,
            programs: 0,
        }
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The registered graph.
    pub fn graph(&self) -> &CooGraph {
        &self.graph
    }

    /// Edges the graph occupies when resident.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// `true` while the graph holds programmed banks.
    pub fn is_resident(&self) -> bool {
        self.exec.is_some()
    }

    /// Queries served since registration.
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// Times the graph was programmed onto banks (first use plus every
    /// post-eviction reprogram and panic replacement).
    pub fn programs(&self) -> u64 {
        self.programs
    }

    /// The LRU key: dispatch sequence number of the last query.
    pub fn last_used(&self) -> u64 {
        self.last_used
    }

    /// Marks the graph as just used.
    pub fn touch(&mut self, seq: u64) {
        self.last_used = seq;
    }

    /// Ensures the graph is resident, programming fresh engines if it was
    /// evicted (or never used). Returns `true` when banks were (re)programmed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an inconsistent device
    /// configuration.
    pub fn ensure_resident(&mut self) -> Result<bool, CoreError> {
        if self.exec.is_some() {
            return Ok(false);
        }
        self.exec = Some(ShardedEngine::new(self.config.clone(), self.jobs)?);
        self.programs = self.programs.saturating_add(1);
        Ok(true)
    }

    /// Drops the programmed engines, freeing the modeled banks. The next
    /// query reprograms from scratch (fresh wear) but streams the cached
    /// plan: eviction does not re-partition or re-plan the graph.
    pub fn evict(&mut self) {
        self.exec = None;
    }

    /// Total device writes across the resident engines' wear ledgers —
    /// zero when not resident or when no fault model tracks endurance.
    pub fn wear_total(&self) -> u64 {
        self.exec.as_ref().map_or(0, |exec| {
            exec.wear_snapshots()
                .iter()
                .map(WearSnapshot::total_writes)
                .fold(0u64, u64::saturating_add)
        })
    }

    /// Replaces the engines after a caught worker panic. Unlike eviction
    /// the replacement runs on the *same* modeled banks, so endurance
    /// wear carries over.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an inconsistent device
    /// configuration.
    pub fn replace_after_panic(&mut self) -> Result<(), CoreError> {
        let wear = self
            .exec
            .as_ref()
            .map(ShardedEngine::wear_snapshots)
            .unwrap_or_default();
        let mut fresh = ShardedEngine::new(self.config.clone(), self.jobs)?;
        fresh.restore_wear(&wear);
        self.exec = Some(fresh);
        self.programs = self.programs.saturating_add(1);
        Ok(())
    }

    /// Runs one query against the resident engines, returning the output
    /// plus its full [`gaasx_sim::RunReport`]; accounting is reset
    /// afterwards so the next query starts from a clean bill.
    ///
    /// Mirrors `GaasX::run_labeled_sharded` exactly — same search
    /// profile, same `finish` labeling, same partial-report attachment on
    /// device faults and cancellations — so a resident query is
    /// bit-comparable to a one-shot run of the same request.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] with the partial report attached for device
    /// faults and deadline cancellations; other errors pass through.
    pub fn run_query(
        &mut self,
        kind: &QueryKind,
        deadline: Option<Nanos>,
    ) -> Result<QueryOutput, CoreError> {
        let num_edges = self.graph.num_edges() as u64;
        let exec = self.exec.as_mut().ok_or_else(|| {
            CoreError::InvalidInput(format!("graph {:?} is not resident", self.name))
        })?;
        let plan = match &mut self.plan {
            Some(plan) => plan,
            empty => empty.insert(StreamPlan::for_engine(
                partition_for_streaming(&self.graph)?,
                exec.engine(),
            )),
        };
        exec.set_search_profile(gaasx_xbar::SearchProfile::Frontier);
        exec.set_deadline(deadline);
        // The report's algorithm label, for full and partial reports alike.
        let algorithm = match kind {
            QueryKind::Bfs { .. } => "bfs",
            QueryKind::Sssp { .. } => "sssp",
            QueryKind::BatchBfs { .. } => "bfs_batch",
            QueryKind::BatchSssp { .. } => "sssp_batch",
            QueryKind::DebugPanic => "debug_panic",
        };
        // (per-query values, per-query iterations).
        type QueryRun = (Vec<Vec<f64>>, Vec<u32>);
        let run: Result<QueryRun, CoreError> = match kind {
            QueryKind::Bfs { source } => Bfs::from_source(VertexId::new(*source))
                .execute_on_plan(exec, &self.graph, plan)
                .map(|r| (vec![r.output], vec![r.iterations])),
            QueryKind::Sssp { source } => Sssp::from_source(VertexId::new(*source))
                .execute_on_plan(exec, &self.graph, plan)
                .map(|r| (vec![r.output], vec![r.iterations])),
            QueryKind::BatchBfs { sources } => {
                let sources: Vec<VertexId> = sources.iter().map(|&s| VertexId::new(s)).collect();
                run_batch(exec, &self.graph, plan, false, &sources)
                    .map(|b| (b.values, b.iterations))
            }
            QueryKind::BatchSssp { sources } => {
                let sources: Vec<VertexId> = sources.iter().map(|&s| VertexId::new(s)).collect();
                run_batch(exec, &self.graph, plan, true, &sources).map(|b| (b.values, b.iterations))
            }
            QueryKind::DebugPanic => {
                fn boom() -> ! {
                    // gaasx-lint: allow(panic-in-lib) -- deliberate fault-injection probe for the serve boundary's catch_unwind guard
                    panic!("deliberate debug panic injected into worker")
                }
                // The probe panics inside the shard pass, where a real
                // worker fault would: worker 0's shards run on this
                // thread, the rest on scoped worker threads. A graph with
                // no shards panics here directly.
                let _ = exec.for_each_shard(
                    plan.grid(),
                    TraversalOrder::RowMajor,
                    |_, _| -> Result<(), CoreError> { boom() },
                );
                boom()
            }
        };
        let run = run.map(|(values, iterations)| {
            let supersteps = iterations.iter().copied().max().unwrap_or(0);
            let report = exec.finish("gaasx", algorithm, &self.name, supersteps, num_edges);
            QueryOutput {
                values,
                iterations,
                report,
            }
        });
        let run = run.map_err(|e| {
            e.with_partial_report(|| exec.finish("gaasx", algorithm, &self.name, 0, num_edges))
        });
        exec.reset_accounting();
        if run.is_ok() {
            self.queries_served = self.queries_served.saturating_add(1);
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaasx_graph::generators;

    fn resident(jobs: usize) -> ResidentGraph {
        let g = generators::rmat(&generators::RmatConfig::new(1 << 6, 400).with_seed(4)).unwrap();
        ResidentGraph::new("rmat".into(), g, GaasXConfig::small(), jobs)
    }

    #[test]
    fn consecutive_queries_on_a_resident_graph_bill_identically() {
        let mut r = resident(2);
        r.ensure_resident().unwrap();
        let kind = QueryKind::Bfs { source: 0 };
        let a = r.run_query(&kind, None).unwrap();
        let b = r.run_query(&kind, None).unwrap();
        assert_eq!(a.values, b.values);
        assert_eq!(a.report.ops, b.report.ops);
        assert_eq!(a.report.elapsed_ns, b.report.elapsed_ns);
        assert_eq!(r.queries_served(), 2);
        assert_eq!(r.programs(), 1);
    }

    #[test]
    fn eviction_forces_a_reprogram() {
        let mut r = resident(1);
        assert!(r.ensure_resident().unwrap());
        assert!(!r.ensure_resident().unwrap());
        r.evict();
        assert!(!r.is_resident());
        assert!(r.ensure_resident().unwrap());
        assert_eq!(r.programs(), 2);
    }

    /// Data pointer of the cached plan grid's first shard: unchanged
    /// exactly when the plan was not rebuilt.
    fn plan_id(r: &ResidentGraph) -> *const gaasx_graph::Edge {
        let plan = r.plan.as_ref().expect("plan built by the first query");
        plan.grid()
            .shards()
            .next()
            .expect("non-empty graph")
            .edges()
            .as_ptr()
    }

    #[test]
    fn queries_after_eviction_match_queries_before_it() {
        let mut r = resident(2);
        let kinds = [
            QueryKind::Bfs { source: 0 },
            QueryKind::Sssp { source: 0 },
            QueryKind::BatchBfs {
                sources: vec![0, 3, 7],
            },
        ];
        assert!(r.plan.is_none());
        r.ensure_resident().unwrap();
        assert!(r.plan.is_none(), "programming banks does not partition");
        let before: Vec<QueryOutput> = kinds
            .iter()
            .map(|k| r.run_query(k, None).unwrap())
            .collect();
        let plan = plan_id(&r);

        r.evict();
        assert!(r.ensure_resident().unwrap());
        let after: Vec<QueryOutput> = kinds
            .iter()
            .map(|k| r.run_query(k, None).unwrap())
            .collect();
        assert_eq!(before, after);
        assert_eq!(plan_id(&r), plan, "eviction must keep the plan");

        r.replace_after_panic().unwrap();
        assert_eq!(r.run_query(&kinds[1], None).unwrap(), before[1]);
        assert_eq!(plan_id(&r), plan, "panic replacement must keep the plan");
    }

    #[test]
    fn a_panic_on_worker_zero_is_isolated_by_replacement() {
        // The probe panics inside the shard pass; worker 0's shards run
        // on the calling thread, so with `jobs = 1` the panic unwinds
        // straight through `run_query`, and with `jobs = 2` it does too
        // while worker 1 panics on its own thread.
        for jobs in [1, 2] {
            let mut r = resident(jobs);
            r.ensure_resident().unwrap();
            let kind = QueryKind::Sssp { source: 0 };
            let before = r.run_query(&kind, None).unwrap();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                r.run_query(&QueryKind::DebugPanic, None)
            }));
            let payload = caught.expect_err("the probe must panic");
            let detail = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or_default();
            assert!(
                detail.contains("deliberate debug panic"),
                "jobs={jobs}: {detail}"
            );
            r.replace_after_panic().unwrap();
            assert_eq!(r.run_query(&kind, None).unwrap(), before, "jobs={jobs}");
            assert_eq!(r.programs(), 2, "jobs={jobs}");
        }
    }

    #[test]
    fn unresident_query_is_an_input_error() {
        let mut r = resident(1);
        let e = r
            .run_query(&QueryKind::Bfs { source: 0 }, None)
            .unwrap_err();
        assert!(matches!(e, CoreError::InvalidInput(_)));
    }

    #[test]
    fn deadline_miss_attaches_a_partial_report() {
        let mut r = resident(1);
        r.ensure_resident().unwrap();
        let kinds = [
            (QueryKind::Bfs { source: 0 }, "bfs"),
            (QueryKind::Sssp { source: 0 }, "sssp"),
            (
                QueryKind::BatchBfs {
                    sources: vec![0, 3],
                },
                "bfs_batch",
            ),
            (
                QueryKind::BatchSssp {
                    sources: vec![0, 3],
                },
                "sssp_batch",
            ),
        ];
        for (kind, algorithm) in &kinds {
            let e = r.run_query(kind, Some(Nanos::ZERO)).unwrap_err();
            match e {
                CoreError::Cancelled {
                    report: Some(report),
                    ..
                } => {
                    // Labeled like the full report of the same query.
                    assert_eq!(report.algorithm, *algorithm);
                    assert!(report.elapsed_ns > Nanos::ZERO, "{algorithm}");
                }
                other => panic!("{algorithm}: want Cancelled with report, got {other}"),
            }
            // The resident engine is reusable after the miss.
            let full = r.run_query(kind, None).unwrap();
            assert_eq!(full.report.algorithm, *algorithm);
        }
    }
}
