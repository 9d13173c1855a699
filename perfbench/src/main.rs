//! Host-time benchmark of the GaaS-X simulator and query server on the
//! default configuration.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pagerank|traverse|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! it measures the per-layer metrics instead. It prints a table of every
//! metric with its unit, sample count and clock, then one JSON line. It
//! exits nonzero if any output is wrong. `perfbench/README.md` maps each
//! layer metric to the end-to-end metric and workload it should move.

mod host;
mod layers;
mod report;
mod stats;
mod workloads;

use std::process::ExitCode;

use host::{host_context, peak_rss_mb, HostSpeed};
use report::Report;
use workloads::{Algo, Opts, Runs, Workload, FULL};

const USAGE: &str =
    "usage: gaasx-perfbench --workload <pagerank|traverse|serve> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Measures one workload into `report`: the end-to-end metrics, or with
/// `trace` the per-layer ones.
fn run(workload: Workload, opts: &Opts, trace: bool, report: &mut Report) -> Result<(), String> {
    if !trace {
        match workload {
            Workload::Serve => workloads::serve_loop(opts, report)?,
            _ => workloads::closed_loop(workload, opts, report)?,
        }
        let rss = peak_rss_mb().ok_or("peak resident memory is unavailable")?;
        report.host("peak_rss_mb", "MB", rss, 1);
        return Ok(());
    }
    let mut speed = HostSpeed::new();
    let measured = match workload {
        Workload::Serve => {
            let (setup, _, gens) = workloads::timed_setups(&mut speed, || {
                workloads::serve_setup(opts.size, opts.seed)
            })?;
            report.host_median("graph.generate_s", "s", &gens);
            let hot = setup
                .server
                .graph(workloads::SERVE_GRAPHS[0])
                .ok_or("hot graph not registered")?
                .graph()
                .clone();
            let src = gaasx_bench::traversal_source(&hot);
            let runs = Runs {
                graph: hot,
                config: setup.config.accel.clone(),
                jobs: setup.config.jobs,
                algos: vec![Algo::Bfs(src), Algo::Sssp(src)],
            };
            let serve = || {
                let (setup, _) =
                    workloads::serve_setup(opts.size, opts.seed).map_err(|e| e.to_string())?;
                Ok(setup)
            };
            layers::traced(&runs, &serve, true, opts.seconds, report)
        }
        _ => {
            let (runs, _, gens) = workloads::timed_setups(&mut speed, || {
                workloads::closed_loop_runs(workload, opts.size, opts.seed, 0)
            })?;
            report.host_median("graph.generate_s", "s", &gens);
            let serve = || workloads::serve_setup_for(&runs, opts.seed);
            layers::traced(&runs, &serve, false, opts.seconds, report)
        }
    };
    speed.mark();
    report
        .info
        .push(speed.summary() + "; per-layer host times are not normalized");
    measured
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = Opts {
        size: FULL,
        seed: args.seed,
        seconds: args.seconds,
        corrupt: false,
    };
    let mut report = Report::default();
    let outcome =
        run(args.workload, &opts, args.trace, &mut report).and_then(|()| report.validate());
    println!(
        "{}",
        host_context(args.workload.name(), args.seed, args.trace)
    );
    for line in report.notes.iter().chain(&report.info) {
        println!("{line}");
    }
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    print!("{}", report.table());
    println!(
        "failed_frac {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Size;

    const SMOKE: Size = Size {
        edges: 3_000,
        serve_edges: 1_500,
        serve_queries: 9,
    };

    fn smoke(workload: Workload, trace: bool, corrupt: bool) -> Report {
        let opts = Opts {
            size: SMOKE,
            seed: 7,
            seconds: 0.0,
            corrupt,
        };
        let mut report = Report::default();
        run(workload, &opts, trace, &mut report).expect("smoke run");
        report.validate().expect("valid metrics");
        report
    }

    /// Names listed under `key` in BENCHMARK.json, in order.
    fn declared(key: &str) -> Vec<String> {
        let spec = include_str!("../../BENCHMARK.json");
        let section = spec.split(&format!("\"{key}\"")).nth(1).expect("section");
        let section = section.split(']').next().expect("list");
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("name").to_string())
            .collect()
    }

    fn names(report: &Report) -> Vec<String> {
        report.metrics.iter().map(|m| m.name.to_string()).collect()
    }

    #[test]
    fn every_workload_passes_at_smoke_size() {
        for workload in Workload::ALL {
            let r = smoke(workload, false, false);
            assert!(r.correct(), "{workload:?}: {:?}", r.notes);
            assert_eq!(names(&r), declared("end_to_end"), "{workload:?}");
        }
    }

    #[test]
    fn a_corrupted_output_counts_as_a_failure() {
        for workload in Workload::ALL {
            let r = smoke(workload, false, true);
            assert_eq!(r.failed, 1, "{workload:?}: {:?}", r.notes);
            assert!(!r.correct());
        }
    }

    #[test]
    fn traced_runs_report_every_layer_metric_and_validate_their_probes() {
        for workload in Workload::ALL {
            let r = smoke(workload, true, false);
            assert!(r.correct(), "{workload:?}: {:?}", r.notes);
            assert_eq!(names(&r), declared("per_layer"), "{workload:?}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload serve --seed 3 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Serve, 3, 2.5, true)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload serve --trace 2",
            "--workload serve --seed",
            "--bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
