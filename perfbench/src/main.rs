//! The BDSM repository benchmark.
//!
//! ```text
//! perfbench --workload <reduce-ladder|serve-cold|serve-hot> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) report the per-layer metrics, a self-time table and the
//! tracing overhead, and write a Chrome trace. Every run checks its
//! outputs, prints a table, writes `results/<workload>-seed<n>-trace<t>.json`
//! beside this package, and prints a one-line JSON result last.
//! Workloads are described in `BENCHMARK.json` at the repository root.

mod cluster;
mod gen;
mod host;
mod ladder;
mod layers;
mod run;
mod serve;
mod serving;
mod stats;
mod trace;

use run::{Args, BenchResult, Run};

/// Every end-to-end metric, in report order.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "reduce_s",
    "rom_dim",
    "query_p50_ms",
    "query_p95_ms",
    "transient_p50_ms",
    "qps",
    "peak_rss_mb",
];

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = bench(args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn bench(args: Args) -> BenchResult<()> {
    let mut run = Run::new(args);
    match run.args.workload.as_str() {
        "reduce-ladder" => ladder::run(&mut run)?,
        "serve-cold" => serve::run_cold(&mut run)?,
        "serve-hot" => serve::run_hot(&mut run)?,
        other => return Err(format!("unknown workload {other}").into()),
    }
    if run.args.setup_only {
        return Ok(());
    }
    let expected: &[&str] = if run.args.trace {
        &layers::PER_LAYER
    } else {
        &END_TO_END
    };
    run.finish(expected)
}
