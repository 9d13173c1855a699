//! The workloads' inputs and their untraced measurement loops.
//!
//! Every workload runs the default configuration (`GaasXConfig::paper()`:
//! Auto search, Packed kernel, memo on); `traverse` adds the mild fault
//! model that `bench_snapshot` uses. Inputs are RMAT graphs and query
//! schedules derived from the seed argument alone.

use std::collections::BTreeMap;
use std::time::Instant;

use gaasx_baselines::reference;
use gaasx_core::algorithms::{Bfs, PageRank, Sssp};
use gaasx_core::{CoreError, GaasX, GaasXConfig, RecoveryPolicy, RunOutcome, ShardableAlgorithm};
use gaasx_graph::generators::{rmat, RmatConfig};
use gaasx_graph::{CooGraph, GraphError, VertexId};
use gaasx_serve::{QueryKind, QueryRequest, QueryResponse, Server, ServerConfig};
use gaasx_sim::{Nanos, RunReport};
use gaasx_xbar::FaultModel;

use crate::host::HostSpeed;
use crate::report::Report;
use crate::stats::{iqr_frac, median};

/// PageRank iterations per `pagerank` run.
const PR_ITERS: u32 = 10;
/// Set-ups per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Fewest timed samples a measurement loop takes, however short
/// `--seconds` is.
pub const MIN_SAMPLES: usize = 3;
/// RMAT graphs per closed-loop run. Samples cycle through them, so a
/// run's median mixes several graphs and depends less on one graph's
/// diameter, which sets a traversal's superstep count.
const GRAPHS_PER_RUN: usize = 3;
/// Worker threads of the `traverse` workload (the host has at least
/// two cores; one fewer would leave the sharded merge unmeasured).
const TRAVERSE_JOBS: usize = 2;
/// Sources per `BatchBfs` query in the serve schedule.
const BATCH_K: usize = 4;
/// Modeled time between serve arrivals: close enough that the two lanes
/// queue work, far enough that the 16-deep queue never sheds it.
const ARRIVAL_GAP_NS: f64 = 9_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PageRank,
    Traverse,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PageRank, Workload::Traverse, Workload::Serve];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PageRank => "pagerank",
            Workload::Traverse => "traverse",
            Workload::Serve => "serve",
        }
    }
}

/// Input sizes: the benchmark's, or a smoke size for tests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Edges of the `pagerank` and `traverse` graph.
    pub edges: usize,
    /// Edges of each `serve` graph.
    pub serve_edges: usize,
    /// Queries per serve pass.
    pub serve_queries: usize,
}

pub const FULL: Size = Size {
    edges: 100_000,
    serve_edges: 30_000,
    serve_queries: 96,
};

/// One invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub size: Size,
    pub seed: u64,
    /// Host seconds each measurement loop runs for.
    pub seconds: f64,
    /// Test hook: perturbs the first checked output, which must then
    /// count as a failure.
    pub corrupt: bool,
}

/// SplitMix64: derives independent streams from the one seed argument.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An RMAT graph with the Graph500 skew and 16 edges per vertex.
fn rmat_graph(edges: usize, seed: u64) -> Result<CooGraph, GraphError> {
    let vertices = (edges / 16).clamp(64, 1 << 17).next_power_of_two();
    rmat(&RmatConfig::new(vertices as u32, edges).with_seed(seed))
}

/// `traverse`'s device: paper banks under `bench_snapshot`'s mild fault
/// model with standard recovery. Deep banks would exhaust their spare
/// rows on the first block and measure the `DeviceFault` path instead.
fn traverse_config() -> GaasXConfig {
    GaasXConfig {
        fault: FaultModel {
            seed: 0xBE05,
            cam_stuck_ber: 1e-4,
            mac_stuck_ber: 1e-4,
            write_fail_rate: 1e-3,
            ..FaultModel::none()
        },
        recovery: RecoveryPolicy::standard(),
        ..GaasXConfig::paper()
    }
}

/// One algorithm of a sample, with its reference oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algo {
    PageRank(u32),
    Bfs(VertexId),
    Sssp(VertexId),
}

impl Algo {
    /// Runs on a fresh accelerator the way users do: `GaasX::run` for one
    /// job, `run_sharded` for more.
    pub fn run(
        self,
        graph: &CooGraph,
        config: &GaasXConfig,
        jobs: usize,
    ) -> Result<RunOutcome<Vec<f64>>, CoreError> {
        fn go<A: ShardableAlgorithm<Input = CooGraph, Output = Vec<f64>>>(
            a: &A,
            graph: &CooGraph,
            config: &GaasXConfig,
            jobs: usize,
        ) -> Result<RunOutcome<Vec<f64>>, CoreError> {
            let mut accel = GaasX::new(config.clone());
            if jobs <= 1 {
                accel.run(a, graph)
            } else {
                accel.run_sharded(a, graph, jobs)
            }
        }
        match self {
            Algo::PageRank(iters) => go(&PageRank::fixed_iterations(iters), graph, config, jobs),
            Algo::Bfs(s) => go(&Bfs::from_source(s), graph, config, jobs),
            Algo::Sssp(s) => go(&Sssp::from_source(s), graph, config, jobs),
        }
    }

    pub fn reference(self, graph: &CooGraph) -> Vec<f64> {
        match self {
            Algo::PageRank(iters) => reference::pagerank(graph, 0.85, iters),
            Algo::Bfs(s) => reference::bfs(graph, s),
            Algo::Sssp(s) => reference::dijkstra(graph, s),
        }
    }

    /// PageRank within the tolerance `tests/properties.rs` uses for the
    /// quantized device; traversals exactly.
    pub fn matches(self, got: &[f64], want: &[f64]) -> bool {
        match self {
            Algo::PageRank(_) => {
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(a, b)| (a - b).abs() < 0.05 * b.max(1.0))
            }
            Algo::Bfs(_) | Algo::Sssp(_) => got == want,
        }
    }
}

/// A closed-loop sample: these algorithms, back to back, on one graph.
#[derive(Debug, Clone)]
pub struct Runs {
    pub graph: CooGraph,
    pub config: GaasXConfig,
    pub jobs: usize,
    pub algos: Vec<Algo>,
}

/// What one closed-loop sample produced.
#[derive(Debug, Default)]
pub struct Sample {
    pub outputs: Vec<Vec<f64>>,
    pub reports: Vec<RunReport>,
    /// Host seconds of the whole sample.
    pub secs: f64,
}

impl Runs {
    /// Runs every algorithm once, the way users do.
    pub fn sample(&self, config: &GaasXConfig, jobs: usize) -> Result<Sample, CoreError> {
        let mut sample = Sample::default();
        let start = Instant::now();
        for algo in &self.algos {
            let out = algo.run(&self.graph, config, jobs)?;
            sample.outputs.push(out.result);
            sample.reports.push(out.report);
        }
        sample.secs = start.elapsed().as_secs_f64();
        Ok(sample)
    }

    /// Simulated edge-iterations in one sample's reports.
    pub fn edge_iters(reports: &[RunReport]) -> f64 {
        reports
            .iter()
            .map(|r| r.num_edges as f64 * f64::from(r.iterations))
            .sum()
    }
}

/// Builds the `index`-th closed-loop input of `pagerank`, or of
/// `traverse` for any other workload; also returns the seconds spent
/// generating its graph.
pub fn closed_loop_runs(
    workload: Workload,
    size: Size,
    seed: u64,
    index: u64,
) -> Result<(Runs, f64), GraphError> {
    let start = Instant::now();
    let graph = rmat_graph(size.edges, mix(mix(seed, 1), index))?;
    let gen_s = start.elapsed().as_secs_f64();
    // Nothing else to build: `GaasX` only holds a configuration, and each
    // run programs fresh banks.
    let runs = match workload {
        Workload::PageRank => Runs {
            graph,
            config: GaasXConfig::paper(),
            jobs: 1,
            algos: vec![Algo::PageRank(PR_ITERS)],
        },
        _ => {
            let src = gaasx_bench::traversal_source(&graph);
            Runs {
                graph,
                config: traverse_config(),
                jobs: TRAVERSE_JOBS,
                algos: vec![Algo::Bfs(src), Algo::Sssp(src)],
            }
        }
    };
    Ok((runs, gen_s))
}

/// The serve workload's input: a server with its graphs registered and
/// the query schedule for one pass.
#[derive(Debug)]
pub struct ServeSetup {
    pub server: Server,
    pub config: ServerConfig,
    pub requests: Vec<QueryRequest>,
}

/// The graph names a serve pass registers, hot first.
pub const SERVE_GRAPHS: [&str; 2] = ["hot", "cold"];

/// Builds the `serve` server: paper banks, one job, two lanes, a
/// 16-deep queue, and room for one resident graph at a time. Also
/// returns the seconds spent generating the graphs.
pub fn serve_setup(size: Size, seed: u64) -> Result<(ServeSetup, f64), GraphError> {
    let start = Instant::now();
    let hot = rmat_graph(size.serve_edges, mix(seed, 2))?;
    let cold = rmat_graph(size.serve_edges, mix(seed, 3))?;
    let gen_s = start.elapsed().as_secs_f64();
    let config = ServerConfig {
        jobs: 1,
        queue_capacity: 16,
        lanes: 2,
        capacity_edges: hot.num_edges().max(cold.num_edges()),
        ..ServerConfig::new(GaasXConfig::paper())
    };
    let requests = schedule(mix(seed, 4), &[&hot, &cold], size.serve_queries);
    let mut server = Server::new(config.clone());
    for (name, graph) in SERVE_GRAPHS.into_iter().zip([hot, cold]) {
        // Cannot fail: the capacity holds the larger graph.
        let _ = server.register_graph(name, graph);
    }
    Ok((
        ServeSetup {
            server,
            config,
            requests,
        },
        gen_s,
    ))
}

/// A server over one closed-loop input, with a short schedule on it:
/// how the traced run measures the serve layer on `pagerank` and
/// `traverse` graphs.
pub fn serve_setup_for(runs: &Runs, seed: u64) -> Result<ServeSetup, String> {
    let config = ServerConfig {
        jobs: runs.jobs,
        queue_capacity: 16,
        lanes: 2,
        ..ServerConfig::new(runs.config.clone())
    };
    let requests = schedule(mix(seed, 5), &[&runs.graph], 6);
    let mut server = Server::new(config.clone());
    server
        .register_graph(SERVE_GRAPHS[0], runs.graph.clone())
        .map_err(|e| e.to_string())?;
    Ok(ServeSetup {
        server,
        config,
        requests,
    })
}

/// `n` queries from three tenants, arriving every `ARRIVAL_GAP_NS` of
/// modeled time: BFS, SSSP and `BatchBfs` in turn, and every fourth
/// query on the second graph when there is one. Sources are drawn from
/// the strongly connected component of the graph's hub, so every query
/// traverses the same reachable set and a pass's work varies little
/// from seed to seed.
fn schedule(seed: u64, graphs: &[&CooGraph], n: usize) -> Vec<QueryRequest> {
    let sources: Vec<Vec<u32>> = graphs.iter().map(|g| hub_component(g)).collect();
    let mut state = seed;
    (0..n)
        .map(|i| {
            let g = if graphs.len() > 1 && i % 4 == 3 { 1 } else { 0 };
            let pool = &sources[g];
            let mut pick = || {
                state = mix(state, 0);
                pool[(state % pool.len() as u64) as usize]
            };
            let kind = match i % 3 {
                0 => QueryKind::Bfs { source: pick() },
                1 => QueryKind::Sssp { source: pick() },
                _ => QueryKind::BatchBfs {
                    sources: (0..BATCH_K).map(|_| pick()).collect(),
                },
            };
            QueryRequest {
                tenant: format!("t{}", i % 3),
                graph: SERVE_GRAPHS[g].to_string(),
                kind,
                arrival_ns: Nanos::from_ns(i as f64 * ARRIVAL_GAP_NS),
                deadline_ns: None,
            }
        })
        .collect()
}

/// The vertices that reach, and are reached from, the highest
/// out-degree vertex.
fn hub_component(graph: &CooGraph) -> Vec<u32> {
    let hub = gaasx_bench::traversal_source(graph);
    let from_hub = reference::bfs(graph, hub);
    let to_hub = reference::bfs(&graph.transposed(), hub);
    (0..graph.num_vertices())
        .filter(|&v| from_hub[v as usize].is_finite() && to_hub[v as usize].is_finite())
        .collect()
}

/// One-shot answers to serve requests, computed once per distinct
/// `(graph, algorithm, source)` and reused across passes.
#[derive(Debug, Default)]
pub struct OneShots {
    cache: BTreeMap<(String, bool, u32), RunOutcome<Vec<f64>>>,
}

impl OneShots {
    fn get(
        &mut self,
        server: &Server,
        graph: &str,
        weighted: bool,
        source: u32,
        config: &ServerConfig,
    ) -> Result<&RunOutcome<Vec<f64>>, String> {
        let key = (graph.to_string(), weighted, source);
        if !self.cache.contains_key(&key) {
            let g = server
                .graph(graph)
                .ok_or_else(|| format!("graph {graph} not registered"))?
                .graph();
            let mut accel = GaasX::new(config.accel.clone());
            let s = VertexId::new(source);
            let out = if weighted {
                accel.run_labeled_sharded(&Sssp::from_source(s), g, graph, config.jobs)
            } else {
                accel.run_labeled_sharded(&Bfs::from_source(s), g, graph, config.jobs)
            }
            .map_err(|e| e.to_string())?;
            self.cache.insert(key.clone(), out);
        }
        Ok(&self.cache[&key])
    }

    /// Checks a response against the one-shot run of its request: the
    /// values always, and the whole report for single-source queries,
    /// which resident serving must reproduce bit for bit.
    pub fn check(
        &mut self,
        server: &Server,
        config: &ServerConfig,
        request: &QueryRequest,
        response: &QueryResponse,
        corrupt: bool,
    ) -> Result<(), String> {
        let output = response.outcome.as_ref().map_err(|e| e.to_string())?;
        let mut values = output.values.clone();
        if corrupt {
            values[0][0] += 1.0;
        }
        let single = |weighted, source| (weighted, vec![source]);
        let (weighted, sources) = match &request.kind {
            QueryKind::Bfs { source } => single(false, *source),
            QueryKind::Sssp { source } => single(true, *source),
            QueryKind::BatchBfs { sources } => (false, sources.clone()),
            QueryKind::BatchSssp { sources } => (true, sources.clone()),
            QueryKind::DebugPanic => return Err("debug query in the schedule".into()),
        };
        if values.len() != sources.len() {
            return Err(format!(
                "{} values for {} sources",
                values.len(),
                sources.len()
            ));
        }
        for (got, &source) in values.iter().zip(&sources) {
            let want = self.get(server, &request.graph, weighted, source, config)?;
            if *got != want.result {
                return Err(format!("values differ from the one-shot run from {source}"));
            }
            // Under transient faults a resident engine's fault RNG has
            // advanced past earlier queries, so only fault-free reports
            // must match.
            let exact = sources.len() == 1 && config.accel.fault.is_none();
            if exact && output.report != want.report {
                return Err(format!(
                    "report differs from the one-shot run from {source}"
                ));
            }
        }
        Ok(())
    }
}

/// One end-to-end metric's samples, as measured and normalized to host
/// speed (see [`HostSpeed`]).
#[derive(Debug, Default)]
pub struct Series {
    pub raw: Vec<f64>,
    pub normalized: Vec<f64>,
}

impl Series {
    /// A duration measured while the host ran at `scale`.
    pub fn push_time(&mut self, secs: f64, scale: f64) {
        self.raw.push(secs);
        self.normalized.push(secs * scale);
    }

    /// A rate measured while the host ran at `scale`.
    pub fn push_rate(&mut self, rate: f64, scale: f64) {
        self.raw.push(rate);
        self.normalized.push(rate / scale);
    }
}

/// Builds `SETUP_REPS` times; returns the last build, every build's
/// set-up seconds, and every build's graph-generation seconds.
pub fn timed_setups<T, E: ToString>(
    speed: &mut HostSpeed,
    mut build: impl FnMut() -> Result<(T, f64), E>,
) -> Result<(T, Series, Vec<f64>), String> {
    let mut setups = Series::default();
    let mut gens = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    speed.mark();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let (built, gen_s) = build().map_err(|e| e.to_string())?;
        setups.push_time(start.elapsed().as_secs_f64(), speed.scale());
        gens.push(gen_s);
        last = Some(built);
    }
    let built = last.ok_or("no set-up ran")?;
    Ok((built, setups, gens))
}

/// Reports the normalized end-to-end medians, and the raw ones with the
/// host speed as context lines.
fn report_e2e(
    report: &mut Report,
    speed: &HostSpeed,
    setup: &Series,
    edge_iters: &Series,
    queries: &Series,
) {
    report.host_median("setup_s", "s", &setup.normalized);
    report.host_median("edge_iters_per_s", "1/s", &edge_iters.normalized);
    report.host_median("queries_per_s", "1/s", &queries.normalized);
    report.info.push(speed.summary());
    report.info.push(format!(
        "not normalized: setup_s {:.6} edge_iters_per_s {:.1} queries_per_s {:.4} (medians, iqr/med {:.4} {:.4} {:.4})",
        median(&setup.raw),
        median(&edge_iters.raw),
        median(&queries.raw),
        iqr_frac(&setup.raw),
        iqr_frac(&edge_iters.raw),
        iqr_frac(&queries.raw)
    ));
}

/// `pagerank` or `traverse` with tracing off: closed-loop samples for
/// `opts.seconds`, each output checked against the reference.
pub fn closed_loop(workload: Workload, opts: &Opts, report: &mut Report) -> Result<(), String> {
    let mut speed = HostSpeed::new();
    let (inputs, setups, _) = timed_setups(&mut speed, || {
        let mut inputs = Vec::with_capacity(GRAPHS_PER_RUN);
        let mut gen_s = 0.0;
        for index in 0..GRAPHS_PER_RUN as u64 {
            let (runs, secs) = closed_loop_runs(workload, opts.size, opts.seed, index)?;
            inputs.push(runs);
            gen_s += secs;
        }
        Ok::<_, GraphError>((inputs, gen_s))
    })?;
    let expected: Vec<Vec<Vec<f64>>> = inputs
        .iter()
        .map(|runs| {
            runs.algos
                .iter()
                .map(|a| a.reference(&runs.graph))
                .collect()
        })
        .collect();
    let mut rates = Series::default();
    let mut query_rates = Series::default();
    let mut firsts: Vec<Option<Vec<RunReport>>> = vec![None; inputs.len()];
    let mut attempts = 0;
    speed.mark();
    let deadline = Instant::now();
    while rates.raw.len() < MIN_SAMPLES || deadline.elapsed().as_secs_f64() < opts.seconds {
        let k = attempts % inputs.len();
        attempts += 1;
        let runs = &inputs[k];
        let sample = runs.sample(&runs.config, runs.jobs);
        let scale = speed.scale();
        match sample {
            Ok(Sample {
                mut outputs,
                reports,
                secs,
            }) => {
                if opts.corrupt && attempts == 1 {
                    outputs[0][0] += 1.0;
                }
                for ((algo, got), want) in runs.algos.iter().zip(&outputs).zip(&expected[k]) {
                    report.check(algo.matches(got, want), || {
                        format!("{algo:?} output differs from the reference")
                    });
                }
                let first = firsts[k].get_or_insert_with(|| reports.clone());
                report.check(*first == reports, || {
                    "modeled report changed between runs".into()
                });
                rates.push_rate(Runs::edge_iters(&reports) / secs, scale);
                query_rates.push_rate(runs.algos.len() as f64 / secs, scale);
            }
            Err(e) => {
                report.check(false, || format!("run failed: {e}"));
                if rates.raw.is_empty() && deadline.elapsed().as_secs_f64() >= opts.seconds {
                    break;
                }
            }
        }
    }
    report_e2e(report, &speed, &setups, &rates, &query_rates);
    Ok(())
}

/// `serve` with tracing off: passes of the query schedule on a freshly
/// built server for `opts.seconds`, each response checked against a
/// one-shot run of its request.
pub fn serve_loop(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let mut speed = HostSpeed::new();
    let (_, mut setups, _) = timed_setups(&mut speed, || serve_setup(opts.size, opts.seed))?;
    let mut rates = Series::default();
    let mut query_rates = Series::default();
    let mut oneshots = OneShots::default();
    let deadline = Instant::now();
    while rates.raw.len() < MIN_SAMPLES || deadline.elapsed().as_secs_f64() < opts.seconds {
        speed.mark();
        let start = Instant::now();
        let (setup, _) = serve_setup(opts.size, opts.seed).map_err(|e| e.to_string())?;
        setups.push_time(start.elapsed().as_secs_f64(), speed.scale());
        let ServeSetup {
            mut server,
            config,
            requests,
        } = setup;
        let batches = serve_pass(&mut server, &requests, &mut speed);
        let mut responded = 0;
        for batch in &batches {
            let mut answered = 0usize;
            let mut edge_iters = 0.0;
            for response in &batch.responses {
                let request = &requests[response.id as usize];
                let corrupt = opts.corrupt && rates.raw.is_empty() && response.id == 0;
                let checked = oneshots.check(&server, &config, request, response, corrupt);
                if let Ok(out) = &response.outcome {
                    answered += 1;
                    edge_iters += Runs::edge_iters(std::slice::from_ref(&out.report));
                }
                report.check(checked.is_ok(), || {
                    let e = checked.unwrap_err();
                    format!("query {} ({:?}): {e}", response.id, request.kind)
                });
            }
            responded += batch.responses.len();
            rates.push_rate(edge_iters / batch.secs, batch.scale);
            query_rates.push_rate(answered as f64 / batch.secs, batch.scale);
        }
        report.check(responded == requests.len(), || {
            format!("{responded} responses to {} queries", requests.len())
        });
    }
    report_e2e(report, &speed, &setups, &rates, &query_rates);
    Ok(())
}

/// Queries per `Server::run` call. The schedule repeats every 12 queries
/// (three kinds, one in four cold), so every batch does the same mix;
/// batches of a fraction of a second let the host-speed readings around
/// each call track the host.
const BATCH_QUERIES: usize = 12;

/// One `Server::run` call of a pass.
#[derive(Debug)]
pub struct Batch {
    pub responses: Vec<QueryResponse>,
    /// Host seconds of the call.
    pub secs: f64,
    /// Host-speed scale measured around the call.
    pub scale: f64,
}

/// Serves the schedule in `BATCH_QUERIES`-query `Server::run` calls on
/// one server, timing each call. Residency, wear and billing carry over
/// between calls; each call drains its queue before returning.
pub fn serve_pass(
    server: &mut Server,
    requests: &[QueryRequest],
    speed: &mut HostSpeed,
) -> Vec<Batch> {
    speed.mark();
    requests
        .chunks(BATCH_QUERIES)
        .map(|chunk| {
            for request in chunk {
                server.submit(request.clone());
            }
            let start = Instant::now();
            let responses = server.run();
            let secs = start.elapsed().as_secs_f64();
            Batch {
                responses,
                secs,
                scale: speed.scale(),
            }
        })
        .collect()
}
