//! The traced run: per-layer host times, measured from outside the
//! library by timing calls into each layer's public functions.
//!
//! Every probe is validated against the real run before its times are
//! reported: a probe whose modeled report or output differs from the
//! program's own would describe a different program, so it counts as a
//! failure.

use std::collections::BTreeMap;
use std::time::Instant;

use gaasx_core::algorithms::{Bfs, PageRank, Sssp};
use gaasx_core::engine::{partition_for_streaming, CellLayout, Engine};
use gaasx_core::{
    CoreError, GaasXConfig, RunOutcome, SearchMode, ShardRunner, ShardableAlgorithm, ShardedEngine,
};
use gaasx_graph::partition::{GridPartition, Shard, TraversalOrder};
use gaasx_graph::{CooGraph, Edge, VertexId};
use gaasx_serve::{QueryResponse, ResidentGraph, ServeError, ServerStats};
use gaasx_sim::{RunReport, Tracer};
use gaasx_xbar::fixed::Quantizer;
use gaasx_xbar::{HitVector, Kernel};

use crate::host::HostSpeed;
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::workloads::{
    serve_pass, Algo, OneShots, Runs, Sample, ServeSetup, MIN_SAMPLES, SERVE_GRAPHS,
};

/// Host seconds inside one engine-driven run.
#[derive(Debug, Clone, Copy, Default)]
struct EngineTimes {
    /// `execute_on`, which includes partitioning and the shard passes.
    exec_s: f64,
    /// Inside `ShardRunner::for_each_shard`.
    shard_s: f64,
    /// Inside `finish`.
    finish_s: f64,
}

/// A `ShardRunner` that times every shard pass of the runner it wraps.
struct TimedRunner<R> {
    inner: R,
    shard_s: f64,
}

impl<R: ShardRunner> ShardRunner for TimedRunner<R> {
    fn engine(&mut self) -> &mut Engine {
        self.inner.engine()
    }

    fn preset_mac(&mut self, code: u32) -> Result<(), CoreError> {
        self.inner.preset_mac(code)
    }

    fn for_each_shard<T, F>(
        &mut self,
        grid: &GridPartition,
        order: TraversalOrder,
        f: F,
    ) -> Result<Vec<T>, CoreError>
    where
        T: Send,
        F: Fn(&mut Engine, &Shard) -> Result<T, CoreError> + Sync,
    {
        let start = Instant::now();
        let out = self.inner.for_each_shard(grid, order, f);
        self.shard_s += start.elapsed().as_secs_f64();
        out
    }
}

/// The two runners' `finish`, which share a signature but no trait.
trait Finish {
    fn finish_run(
        &mut self,
        algorithm: &str,
        workload: &str,
        iterations: u32,
        edges: u64,
    ) -> RunReport;
}

impl Finish for Engine {
    fn finish_run(
        &mut self,
        algorithm: &str,
        workload: &str,
        iterations: u32,
        edges: u64,
    ) -> RunReport {
        self.finish("gaasx", algorithm, workload, iterations, edges)
    }
}

impl Finish for ShardedEngine {
    fn finish_run(
        &mut self,
        algorithm: &str,
        workload: &str,
        iterations: u32,
        edges: u64,
    ) -> RunReport {
        self.finish("gaasx", algorithm, workload, iterations, edges)
    }
}

/// Runs `algo` the way `GaasX::run` (one job) or `GaasX::run_sharded`
/// does, on an unmodified engine behind a `TimedRunner`.
fn timed_run(
    algo: Algo,
    graph: &CooGraph,
    config: &GaasXConfig,
    jobs: usize,
) -> Result<(RunOutcome<Vec<f64>>, EngineTimes), CoreError> {
    fn go<A, R>(
        a: &A,
        graph: &CooGraph,
        runner: R,
    ) -> Result<(RunOutcome<Vec<f64>>, EngineTimes), CoreError>
    where
        A: ShardableAlgorithm<Input = CooGraph, Output = Vec<f64>>,
        R: ShardRunner + Finish,
    {
        let mut runner = TimedRunner {
            inner: runner,
            shard_s: 0.0,
        };
        let start = Instant::now();
        let run = a.execute_on(&mut runner, graph)?;
        let exec_s = start.elapsed().as_secs_f64();
        let edges = A::input_edges(graph);
        let start = Instant::now();
        let report = runner
            .inner
            .finish_run(a.name(), &format!("E{edges}"), run.iterations, edges);
        let finish_s = start.elapsed().as_secs_f64();
        let times = EngineTimes {
            exec_s,
            shard_s: runner.shard_s,
            finish_s,
        };
        Ok((
            RunOutcome {
                result: run.output,
                report,
            },
            times,
        ))
    }
    fn on<A>(
        a: &A,
        graph: &CooGraph,
        config: &GaasXConfig,
        jobs: usize,
    ) -> Result<(RunOutcome<Vec<f64>>, EngineTimes), CoreError>
    where
        A: ShardableAlgorithm<Input = CooGraph, Output = Vec<f64>>,
    {
        if jobs <= 1 {
            let mut engine = Engine::new(config.clone())?;
            engine.set_tracer(Tracer::null());
            engine.set_search_profile(a.search_profile());
            go(a, graph, engine)
        } else {
            let mut sharded = ShardedEngine::new(config.clone(), jobs)?;
            sharded.set_tracer(Tracer::null());
            sharded.set_search_profile(a.search_profile());
            go(a, graph, sharded)
        }
    }
    match algo {
        Algo::PageRank(iters) => on(&PageRank::fixed_iterations(iters), graph, config, jobs),
        Algo::Bfs(s) => on(&Bfs::from_source(s), graph, config, jobs),
        Algo::Sssp(s) => on(&Sssp::from_source(s), graph, config, jobs),
    }
}

/// Host seconds a block-stream probe spent in each crossbar primitive.
#[derive(Debug, Clone, Copy, Default)]
struct XbarTimes {
    program_s: f64,
    rows: u64,
    search_s: f64,
    searches: u64,
    mac_s: f64,
}

fn lap(start: Instant, total: &mut f64) {
    *total += start.elapsed().as_secs_f64();
}

/// One PageRank iteration replayed primitive by primitive, exactly as
/// `PageRank::execute_on` issues it on a serial engine.
fn pagerank_probe(
    graph: &CooGraph,
    config: &GaasXConfig,
) -> Result<(Vec<f64>, RunReport, XbarTimes), CoreError> {
    let damping = 0.85;
    let mut engine = Engine::new(config.clone())?;
    engine.set_tracer(Tracer::null());
    engine.set_search_profile(gaasx_xbar::SearchProfile::OnePerKey);
    let mut t = XbarTimes::default();
    let n = graph.num_vertices() as usize;
    let w_quant = Quantizer::for_max_value(1.0, engine.weight_bits())?;
    let inv_deg_code: Vec<u32> = graph
        .out_degrees()
        .iter()
        .map(|&d| {
            if d == 0 {
                0
            } else {
                w_quant.encode(1.0 / d as f32)
            }
        })
        .collect();
    let grid = partition_for_streaming(graph)?;
    let capacity = engine.block_capacity();
    // All ranks start at 1, so the first iteration's quantizer spans 1.05.
    let ranks = vec![1.0f64; n];
    let r_quant = Quantizer::for_max_value(1.05, 16)?;
    let rank_code: Vec<u32> = ranks.iter().map(|&r| r_quant.encode(r as f32)).collect();
    let cells = |e: &Edge, c: &mut Vec<u32>| c.push(inv_deg_code[e.src.index()]);
    let mut hits = HitVector::new(0);
    let mut contributions = Vec::new();
    for (_, shard) in grid.stream_indexed(TraversalOrder::ColumnMajor) {
        for chunk in shard.edges().chunks(capacity) {
            let start = Instant::now();
            let block = engine.load_block(chunk, CellLayout::PerEdge(&cells))?;
            lap(start, &mut t.program_s);
            t.rows += chunk.len() as u64;
            for &dst in block.distinct_dsts() {
                let start = Instant::now();
                engine.search_dst_into(dst, &mut hits);
                lap(start, &mut t.search_s);
                t.searches += 1;
                let start = Instant::now();
                let code = engine.gather_rows(
                    &hits,
                    &mut |row| rank_code[block.edge(row).src.index()],
                    0,
                )?;
                lap(start, &mut t.mac_s);
                contributions.push((
                    dst.index(),
                    f64::from(r_quant.decode_product_sum(&w_quant, code)),
                ));
            }
        }
        engine.end_block();
    }
    let mut acc = vec![0.0f64; n];
    for (v, sum) in contributions {
        acc[v] = engine.sfu_add(acc[v], sum);
        engine.attr_write(8);
    }
    let mut out = ranks;
    for v in 0..n {
        let damped = engine.sfu_mul(damping, acc[v]);
        out[v] = engine.sfu_add(1.0 - damping, damped);
        engine.attr_write(8);
    }
    engine.output_write(8 * n as u64);
    let edges = graph.num_edges() as u64;
    let report = engine.finish("gaasx", "pagerank", &format!("E{edges}"), 1, edges);
    Ok((out, report, t))
}

/// A whole BFS replayed primitive by primitive, exactly as
/// `Bfs::execute_on` issues it on a serial engine.
fn bfs_probe(
    graph: &CooGraph,
    config: &GaasXConfig,
    source: VertexId,
) -> Result<(Vec<f64>, RunReport, XbarTimes), CoreError> {
    let mut engine = Engine::new(config.clone())?;
    engine.set_tracer(Tracer::null());
    engine.set_search_profile(gaasx_xbar::SearchProfile::Frontier);
    let mut t = XbarTimes::default();
    let n = graph.num_vertices() as usize;
    engine.preset_mac(1)?;
    let grid = partition_for_streaming(graph)?;
    let capacity = engine.block_capacity();
    let mut dist = vec![f64::INFINITY; n];
    dist[source.index()] = 0.0;
    let mut frontier = vec![false; n];
    frontier[source.index()] = true;
    let mut hits = HitVector::new(0);
    let mut results: Vec<(usize, u64)> = Vec::new();
    let mut supersteps = 0;
    loop {
        let mut cands: Vec<(usize, f64)> = Vec::new();
        for (_, shard) in grid.stream_indexed(TraversalOrder::RowMajor) {
            for chunk in shard.edges().chunks(capacity) {
                if !chunk.iter().any(|e| frontier[e.src.index()]) {
                    continue;
                }
                let start = Instant::now();
                let block = engine.load_block(chunk, CellLayout::Preset)?;
                lap(start, &mut t.program_s);
                t.rows += chunk.len() as u64;
                for &src in block.distinct_srcs() {
                    if !frontier[src.index()] {
                        continue;
                    }
                    let d = dist[src.index()];
                    engine.attr_read(8);
                    // Distances past the MAC input range are skipped, as in `Bfs`.
                    if d > 65_534.0 {
                        continue;
                    }
                    let start = Instant::now();
                    engine.search_src_into(src, &mut hits);
                    lap(start, &mut t.search_s);
                    t.searches += 1;
                    let start = Instant::now();
                    engine.propagate_rows_into(
                        &hits,
                        &[0, 1],
                        &[1, d.round() as u32],
                        &mut results,
                    )?;
                    lap(start, &mut t.mac_s);
                    cands.extend(
                        results
                            .iter()
                            .map(|&(row, sum)| (block.edge(row).dst.index(), sum as f64)),
                    );
                }
            }
            engine.end_block();
        }
        let mut next = vec![false; n];
        let mut changed = false;
        for (v, cand) in cands {
            if engine.sfu_less_than(cand, dist[v]) {
                dist[v] = engine.sfu_min(cand, dist[v]);
                engine.attr_write(8);
                next[v] = true;
                changed = true;
            }
        }
        supersteps += 1;
        if !changed {
            break;
        }
        frontier = next;
    }
    engine.output_write(8 * n as u64);
    let edges = graph.num_edges() as u64;
    let report = engine.finish("gaasx", "bfs", &format!("E{edges}"), supersteps, edges);
    Ok((dist, report, t))
}

/// One alternative the interleaved rounds time against the default.
#[derive(Debug)]
struct Variant {
    name: &'static str,
    config: GaasXConfig,
    jobs: usize,
    /// Run through `TimedRunner` instead of `GaasX`.
    wrapped: bool,
    /// Whether its reports must equal the default's bit for bit (not
    /// across job counts under transient faults, whose RNG streams are
    /// per engine).
    same_report: bool,
    secs: Vec<f64>,
    engine: Vec<EngineTimes>,
}

/// Sums the modeled reports of one sample or one serve pass.
#[derive(Debug, Default)]
struct Modeled {
    ops: gaasx_sim::OpSummary,
    row_remaps: u64,
    elapsed_ns: f64,
    energy_nj: f64,
}

impl Modeled {
    fn add(&mut self, r: &RunReport) {
        self.ops.merge(&r.ops);
        self.row_remaps += r.faults.row_remaps;
        self.elapsed_ns += r.elapsed_ns.ns();
        self.energy_nj += r.energy.total_nj().nj();
    }
}

/// What the serve layer measured in one pass and its replay.
#[derive(Debug)]
struct ServeLayer {
    /// Host seconds of `Server::run`.
    run_s: f64,
    /// Host seconds of the replayed `ResidentGraph::run_query` calls.
    exec_s: f64,
    responses: Vec<QueryResponse>,
    stats: ServerStats,
    /// Host seconds the pass's queries spent re-partitioning their
    /// graphs, one `partition_for_streaming` each.
    partition_s: f64,
}

const PARTITION_REPS: usize = 5;

/// Median host seconds of `partition_for_streaming` on `graph`.
fn partition_seconds(graph: &CooGraph) -> Result<f64, String> {
    let mut secs = Vec::with_capacity(PARTITION_REPS);
    for _ in 0..PARTITION_REPS {
        let start = Instant::now();
        let grid = partition_for_streaming(graph).map_err(|e| e.to_string())?;
        secs.push(start.elapsed().as_secs_f64());
        std::hint::black_box(grid);
    }
    Ok(median(&secs))
}

/// Runs one serve pass, checks every response against a one-shot run,
/// then replays the admitted queries in dispatch order on fresh
/// `ResidentGraph`s under the server's residency policy, timing each
/// `run_query`. The replay must reproduce every response exactly.
fn serve_layer(
    setup: ServeSetup,
    oneshots: &mut OneShots,
    report: &mut Report,
) -> Result<ServeLayer, String> {
    let ServeSetup {
        mut server,
        config,
        requests,
    } = setup;
    let graphs: Vec<(String, CooGraph)> = SERVE_GRAPHS
        .iter()
        .filter_map(|&name| {
            server
                .graph(name)
                .map(|g| (name.to_string(), g.graph().clone()))
        })
        .collect();
    let batches = serve_pass(&mut server, &requests, &mut HostSpeed::new());
    let run_s = batches.iter().map(|b| b.secs).sum();
    let responses: Vec<QueryResponse> = batches.into_iter().flat_map(|b| b.responses).collect();
    for r in &responses {
        let checked = oneshots.check(&server, &config, &requests[r.id as usize], r, false);
        report.check(checked.is_ok(), || {
            format!("query {}: {}", r.id, checked.unwrap_err())
        });
    }

    let mut partition = BTreeMap::new();
    for (name, graph) in &graphs {
        partition.insert(name.clone(), partition_seconds(graph)?);
    }
    let mut resident: BTreeMap<String, ResidentGraph> = graphs
        .into_iter()
        .map(|(name, graph)| {
            let g = ResidentGraph::new(name.clone(), graph, config.accel.clone(), config.jobs);
            (name, g)
        })
        .collect();
    let admitted = responses
        .iter()
        .filter(|r| !r.outcome.as_ref().is_err_and(ServeError::is_rejection));
    let mut exec_s = 0.0;
    let mut partition_s = 0.0;
    for (seq, r) in admitted.enumerate() {
        partition_s += partition.get(&r.graph).copied().unwrap_or(0.0);
        make_room(&mut resident, &r.graph, config.capacity_edges);
        let g = resident
            .get_mut(&r.graph)
            .ok_or_else(|| format!("response for unregistered graph {}", r.graph))?;
        g.ensure_resident().map_err(|e| e.to_string())?;
        g.touch(seq as u64 + 1);
        let request = &requests[r.id as usize];
        let deadline = request.deadline_ns.or(config.default_deadline_ns);
        let mut attempts = 0;
        let replayed = loop {
            attempts += 1;
            let start = Instant::now();
            let out = g.run_query(&request.kind, deadline);
            exec_s += start.elapsed().as_secs_f64();
            match out {
                Err(CoreError::DeviceFault { .. }) if attempts <= config.max_retries => continue,
                other => break other,
            }
        };
        let same = matches!((&replayed, &r.outcome), (Ok(a), Ok(b)) if a == b);
        report.check(same, || {
            format!("replayed query {} differs from the server's response", r.id)
        });
    }
    Ok(ServeLayer {
        run_s,
        exec_s,
        stats: *server.stats(),
        responses,
        partition_s,
    })
}

/// The server's capacity policy: evict least-recently-used resident
/// graphs until `target` fits.
fn make_room(graphs: &mut BTreeMap<String, ResidentGraph>, target: &str, capacity_edges: usize) {
    loop {
        let counted = graphs
            .iter()
            .filter(|(name, g)| g.is_resident() || *name == target);
        let resident_edges: usize = counted.map(|(_, g)| g.num_edges()).sum();
        if resident_edges <= capacity_edges {
            return;
        }
        let victim = graphs
            .iter()
            .filter(|(name, g)| g.is_resident() && *name != target)
            .min_by_key(|(name, g)| (g.last_used(), (*name).clone()))
            .map(|(name, _)| name.clone());
        match victim.and_then(|name| graphs.get_mut(&name)) {
            Some(g) => g.evict(),
            None => return,
        }
    }
}

/// Runs the traced measurements of one workload and reports every
/// per-layer metric. `runs` is the closed-loop input the engine, xbar,
/// knob and sharded layers are measured on; `serve` is the server the
/// serve layer is measured on; `serve_is_e2e` says whether the
/// workload's end-to-end unit is the serve pass (else the closed-loop
/// sample).
pub fn traced(
    runs: &Runs,
    serve: &dyn Fn() -> Result<ServeSetup, String>,
    serve_is_e2e: bool,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let partition_s = partition_seconds(&runs.graph)?;

    // Interleaved rounds: the default, each host-only knob, the other job
    // count, and the default behind the timing wrapper.
    let with = |search_mode, kernel| GaasXConfig {
        search_mode,
        kernel,
        ..runs.config.clone()
    };
    let other_jobs = if runs.jobs == 1 { 2 } else { 1 };
    let fault_free = runs.config.fault.is_none();
    let variant = |name, config, jobs, wrapped, same_report| Variant {
        name,
        config,
        jobs,
        wrapped,
        same_report,
        secs: Vec::new(),
        engine: Vec::new(),
    };
    let mut variants = vec![
        variant("default", runs.config.clone(), runs.jobs, false, true),
        variant(
            "scalar",
            with(SearchMode::Auto, Kernel::Scalar),
            runs.jobs,
            false,
            true,
        ),
        variant(
            "linear",
            with(SearchMode::Linear, Kernel::Packed),
            runs.jobs,
            false,
            true,
        ),
        variant(
            "indexed",
            with(SearchMode::Indexed, Kernel::Packed),
            runs.jobs,
            false,
            true,
        ),
        variant("jobs", runs.config.clone(), other_jobs, false, fault_free),
        variant("wrapped", runs.config.clone(), runs.jobs, true, true),
    ];
    let mut baseline: Option<(Vec<Vec<f64>>, Vec<RunReport>)> = None;
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_SAMPLES || start.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        for v in &mut variants {
            let (sample, times) = if v.wrapped {
                let begin = Instant::now();
                let mut sample = Sample::default();
                let mut times = EngineTimes::default();
                for &algo in &runs.algos {
                    let (out, t) = timed_run(algo, &runs.graph, &v.config, v.jobs)
                        .map_err(|e| e.to_string())?;
                    sample.outputs.push(out.result);
                    sample.reports.push(out.report);
                    times.exec_s += t.exec_s;
                    times.shard_s += t.shard_s;
                    times.finish_s += t.finish_s;
                }
                sample.secs = begin.elapsed().as_secs_f64();
                (sample, Some(times))
            } else {
                let sample = runs.sample(&v.config, v.jobs).map_err(|e| e.to_string())?;
                (sample, None)
            };
            let Sample {
                outputs,
                reports,
                secs,
            } = sample;
            let (want_out, want_reports) =
                baseline.get_or_insert_with(|| (outputs.clone(), reports.clone()));
            let same = outputs == *want_out && (!v.same_report || reports == *want_reports);
            report.check(same, || {
                format!("{} run differs from the default run", v.name)
            });
            v.secs.push(secs);
            v.engine.extend(times);
        }
    }
    // Ratios are taken within a round, whose runs are seconds apart, so
    // drift in host speed between rounds cancels.
    let secs = |name: &str| {
        variants
            .iter()
            .find(|v| v.name == name)
            .map_or(Vec::new(), |v| v.secs.clone())
    };
    let ratio = |num: &str, den: &str| {
        let per_round: Vec<f64> = secs(num)
            .iter()
            .zip(secs(den))
            .map(|(a, b)| a / b)
            .collect();
        median(&per_round)
    };
    let default_s = median(&secs("default"));
    let wrapped = variants
        .iter()
        .find(|v| v.wrapped)
        .map(|v| v.engine.clone())
        .unwrap_or_default();
    let engine_med =
        |f: fn(&EngineTimes) -> f64| median(&wrapped.iter().map(f).collect::<Vec<_>>());
    let partitions = runs.algos.len() as f64;

    // Block-stream probe, validated against the real run.
    let (probe_algo, probe) = match runs.algos[0] {
        Algo::PageRank(_) => (Algo::PageRank(1), pagerank_probe(&runs.graph, &runs.config)),
        Algo::Bfs(s) | Algo::Sssp(s) => (Algo::Bfs(s), bfs_probe(&runs.graph, &runs.config, s)),
    };
    let (probe_out, probe_report, xbar) = probe.map_err(|e| e.to_string())?;
    let real = probe_algo
        .run(&runs.graph, &runs.config, 1)
        .map_err(|e| e.to_string())?;
    report.check(
        probe_out == real.result && probe_report == real.report,
        || format!("block-stream probe differs from {probe_algo:?} on GaasX::run"),
    );

    let mut oneshots = OneShots::default();
    let mut passes = Vec::with_capacity(MIN_SAMPLES);
    for _ in 0..MIN_SAMPLES {
        passes.push(serve_layer(serve()?, &mut oneshots, report)?);
    }
    let pass_med = |f: fn(&ServeLayer) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let (run_s, exec_s) = (pass_med(|p| p.run_s), pass_med(|p| p.exec_s));
    let overhead_s = pass_med(|p| p.run_s - p.exec_s);
    let layer = &passes[0];

    let (e2e_s, e2e_partition_s) = if serve_is_e2e {
        (run_s, layer.partition_s)
    } else {
        (default_s, partitions * partition_s)
    };
    report.host("graph.partition_s", "s", partition_s, PARTITION_REPS);
    report.host("graph.partition_share", "ratio", e2e_partition_s / e2e_s, 1);

    let n = wrapped.len();
    report.host("engine.shard_pass_s", "s", engine_med(|t| t.shard_s), n);
    report.host(
        "engine.between_shards_s",
        "s",
        engine_med(|t| t.exec_s - t.shard_s) - partitions * partition_s,
        n,
    );
    report.host("engine.finish_s", "s", engine_med(|t| t.finish_s), n);

    report.host("xbar.program_s", "s", xbar.program_s, 1);
    report.host(
        "xbar.program_ns_per_row",
        "ns",
        xbar.program_s * 1e9 / xbar.rows as f64,
        1,
    );
    report.host("xbar.search_s", "s", xbar.search_s, 1);
    report.host(
        "xbar.search_ns_per_search",
        "ns",
        xbar.search_s * 1e9 / xbar.searches as f64,
        1,
    );
    report.host("xbar.mac_s", "s", xbar.mac_s, 1);
    report.model(
        "xbar.mac_per_search",
        "ratio",
        probe_report.ops.mac_ops as f64 / probe_report.ops.cam_searches.max(1) as f64,
    );

    report.host(
        "sharded.jobs2_speedup",
        "x",
        if runs.jobs == 1 {
            ratio("default", "jobs")
        } else {
            ratio("jobs", "default")
        },
        rounds,
    );

    report.host("serve.exec_s", "s", exec_s, passes.len());
    report.host("serve.overhead_s", "s", overhead_s, passes.len());
    let stats = layer.stats;
    report.model("serve.reprograms", "count", stats.reprograms as f64);
    report.model(
        "serve.capacity_evictions",
        "count",
        stats.capacity_evictions as f64,
    );
    report.model(
        "serve.rejected",
        "count",
        (stats.rejected_overload + stats.rejected_quota + stats.rejected_unknown) as f64,
    );
    report.model("serve.retries", "count", stats.retries as f64);
    let us = |f: fn(&QueryResponse) -> f64| layer.responses.iter().map(f).collect::<Vec<_>>();
    let latency = us(|r| (r.finish_ns - r.arrival_ns).ns() / 1e3);
    let queued = us(|r| (r.start_ns - r.arrival_ns).ns() / 1e3);
    report.model(
        "serve.model_latency_us_p50",
        "model_us",
        percentile(&latency, 0.5),
    );
    report.model(
        "serve.model_latency_us_p99",
        "model_us",
        percentile(&latency, 0.99),
    );
    report.model(
        "serve.model_queue_us_p99",
        "model_us",
        percentile(&queued, 0.99),
    );

    let mut modeled = Modeled::default();
    if serve_is_e2e {
        for r in &layer.responses {
            if let Ok(out) = &r.outcome {
                modeled.add(&out.report);
            }
        }
    } else if let Some((_, reports)) = &baseline {
        reports.iter().for_each(|r| modeled.add(r));
    }
    let ops = modeled.ops;
    for (name, value) in [
        ("ops.cells_written", ops.cells_written),
        ("ops.row_writes", ops.row_writes),
        ("ops.cam_searches", ops.cam_searches),
        ("ops.mac_ops", ops.mac_ops),
        ("ops.sfu_ops", ops.sfu_ops),
        ("ops.verify_reads", ops.verify_reads),
        ("faults.row_remaps", modeled.row_remaps),
    ] {
        report.model(name, "count", value as f64);
    }
    report.model("model.elapsed_ns", "model_ns", modeled.elapsed_ns);
    report.model("model.energy_nj", "model_nJ", modeled.energy_nj);

    report.host(
        "knob.scalar_speedup",
        "x",
        ratio("default", "scalar"),
        rounds,
    );
    report.host(
        "knob.linear_speedup",
        "x",
        ratio("default", "linear"),
        rounds,
    );
    report.host(
        "knob.indexed_speedup",
        "x",
        ratio("default", "indexed"),
        rounds,
    );
    report.host(
        "trace.overhead_frac",
        "ratio",
        ratio("wrapped", "default") - 1.0,
        rounds,
    );
    Ok(())
}
