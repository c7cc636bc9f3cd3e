//! One benchmark run: arguments, operation accounting, collected
//! metrics, and the printed/written report.

use crate::host::{self, HostShape};
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

pub const WORKLOADS: [&str; 3] = ["reduce-ladder", "serve-cold", "serve-hot"];

/// Command-line arguments:
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run only the workload's set-up and print its timing (used to
    /// sample set-up time in fresh processes).
    pub setup_only: bool,
}

impl Args {
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds: f64 = 15.0;
        let mut trace = false;
        let mut setup_only = false;
        let mut it = args;
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--setup-only" => setup_only = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".to_string());
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            setup_only,
        })
    }
}

/// Set-up repetitions of an untraced run; `setup_s` is their median, and
/// on `serve-hot` so is `reduce_s`. Five, not three: on a shared 2-vCPU
/// host the median of three mesh builds spread up to 0.23 (IQR over
/// median) across ten runs, near its 0.25 bound.
pub const SETUP_REPEATS: usize = 5;

/// One set-up's timing: all of it, and the artifact build within it.
#[derive(Debug, Clone, Copy)]
pub struct SetupTiming {
    pub setup_s: f64,
    pub build_s: f64,
}

impl Args {
    /// Set-up timings sampled in fresh processes: an untraced run starts
    /// this binary `SETUP_REPEATS - 1` times with `--setup-only` and waits
    /// for each, so every sample pays the same cold start and no set-up
    /// leaves memory behind in the measured process.
    pub fn setups_in_children(&self) -> BenchResult<Vec<SetupTiming>> {
        if self.trace || self.setup_only {
            return Ok(Vec::new());
        }
        let exe = std::env::current_exe()?;
        (1..SETUP_REPEATS)
            .map(|_| {
                let out = std::process::Command::new(&exe)
                    .args([
                        "--workload",
                        &self.workload,
                        "--seed",
                        &self.seed.to_string(),
                    ])
                    .arg("--setup-only")
                    .stderr(std::process::Stdio::inherit())
                    .output()?;
                let text = String::from_utf8_lossy(&out.stdout);
                let last = text.lines().last().unwrap_or_default();
                let mut nums = last
                    .split_whitespace()
                    .filter_map(|v| v.parse::<f64>().ok());
                match (out.status.success(), nums.next(), nums.next()) {
                    (true, Some(setup_s), Some(build_s)) => Ok(SetupTiming { setup_s, build_s }),
                    _ => Err(format!("set-up run failed: {last}").into()),
                }
            })
            .collect()
    }
}

/// Ends a `--setup-only` run: prints `setup <s> build <s>` as the last
/// line.
pub fn print_setup(t: SetupTiming) {
    println!("setup {} build {}", t.setup_s, t.build_s);
}

/// Attempted / succeeded / failed counts of one operation kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
}

/// A reported metric: value, unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything one run accumulates.
pub struct Run {
    pub args: Args,
    pub tracer: Tracer,
    ops: BTreeMap<&'static str, Counts>,
    failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Extra JSON fields for the results file (pre-rendered values).
    pub notes: Vec<(String, String)>,
    next_op: u64,
    started: Instant,
    /// Host shape as the timed phase saw it.
    host: Option<HostShape>,
}

impl Run {
    pub fn new(args: Args) -> Self {
        let trace = args.trace;
        Run {
            args,
            tracer: Tracer::new(trace),
            ops: BTreeMap::new(),
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            notes: Vec::new(),
            next_op: 0,
            started: Instant::now(),
            host: None,
        }
    }

    /// A fresh id for a build, session or request.
    pub fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Records the outcome of one call; an `Err` counts as failed.
    pub fn record<T, E: std::fmt::Display>(
        &mut self,
        kind: &'static str,
        result: Result<T, E>,
    ) -> Option<T> {
        let c = self.ops.entry(kind).or_default();
        c.attempted += 1;
        match result {
            Ok(v) => {
                c.succeeded += 1;
                Some(v)
            }
            Err(e) => {
                c.failed += 1;
                self.note_failure(format!("{kind}: {e}"));
                None
            }
        }
    }

    /// Marks one previously succeeded `kind` operation as failed because
    /// its output did not pass a correctness check.
    pub fn check_failed(&mut self, kind: &'static str, why: String) {
        let c = self.ops.entry(kind).or_default();
        c.succeeded = c.succeeded.saturating_sub(1);
        c.failed += 1;
        self.note_failure(format!("{kind} check: {why}"));
    }

    fn note_failure(&mut self, msg: String) {
        if self.failures.len() < 20 {
            eprintln!("FAILED {msg}");
            self.failures.push(msg);
        }
    }

    /// Records the host shape (worker count included) the timed phase
    /// ran with; call it right after the timed phase.
    pub fn capture_host(&mut self) {
        self.host = Some(HostShape::read());
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    pub fn note(&mut self, key: &str, json_value: String) {
        self.notes.push((key.to_string(), json_value));
    }

    fn totals(&self) -> Counts {
        self.ops.values().fold(Counts::default(), |a, c| Counts {
            attempted: a.attempted + c.attempted,
            succeeded: a.succeeded + c.succeeded,
            failed: a.failed + c.failed,
        })
    }

    /// Prints the metric table, writes the results (and, when traced,
    /// the trace) file, and prints the one-line JSON result last.
    pub fn finish(mut self, expected: &[&'static str]) -> BenchResult<()> {
        let missing: Vec<&str> = expected
            .iter()
            .copied()
            .filter(|m| !self.metrics.contains_key(m))
            .collect();
        if !missing.is_empty() {
            return Err(format!("metrics not measured: {missing:?}").into());
        }
        let totals = self.totals();
        let correct = totals.failed == 0 && totals.attempted > 0;
        let host = self.host.take().unwrap_or_else(HostShape::read);
        self.note("host", host.to_json());
        self.note(
            "run_wall_s",
            format!("{}", self.started.elapsed().as_secs_f64()),
        );
        self.note("process_cpu_s", format!("{}", host::cpu_seconds()));

        println!(
            "== {} seed {} ({}) ==",
            self.args.workload,
            self.args.seed,
            if self.args.trace {
                "traced"
            } else {
                "untraced"
            }
        );
        println!("host: {}", host.to_json());
        for (kind, c) in &self.ops {
            println!(
                "ops {kind:<12} attempted {:>6}  succeeded {:>6}  failed {:>4}",
                c.attempted, c.succeeded, c.failed
            );
        }
        println!(
            "failure share {:.4} ({} of {})",
            stats::failure_share(totals.attempted, totals.failed),
            totals.failed,
            totals.attempted
        );
        for name in expected {
            let m = &self.metrics[name];
            println!(
                "{name:<28} {:>14.6} {:<6} (n={})",
                m.value, m.unit, m.samples
            );
        }

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
        std::fs::create_dir_all(&dir)?;
        let stem = format!(
            "{}-seed{}-trace{}",
            self.args.workload,
            self.args.seed,
            u8::from(self.args.trace)
        );
        if self.args.trace {
            let path = dir.join(format!("{stem}.trace.json"));
            std::fs::write(&path, self.tracer.to_chrome_json())?;
            println!(
                "trace: {} spans -> {}",
                self.tracer.spans().len(),
                path.display()
            );
        }
        let path = dir.join(format!("{stem}.json"));
        std::fs::write(&path, self.results_json(expected, correct, &totals))?;
        println!("results -> {}", path.display());

        let mut line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            totals.attempted, totals.failed
        );
        for (i, name) in expected.iter().enumerate() {
            let m = &self.metrics[name];
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
        Ok(())
    }

    fn results_json(&self, expected: &[&'static str], correct: bool, totals: &Counts) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"workload\": \"{}\",", self.args.workload);
        let _ = writeln!(s, "  \"seed\": {},", self.args.seed);
        let _ = writeln!(s, "  \"seconds\": {},", self.args.seconds);
        let _ = writeln!(s, "  \"traced\": {},", self.args.trace);
        let _ = writeln!(s, "  \"correct\": {correct},");
        let _ = writeln!(
            s,
            "  \"attempted\": {}, \"succeeded\": {}, \"failed\": {},",
            totals.attempted, totals.succeeded, totals.failed
        );
        s.push_str("  \"ops\": {");
        for (i, (kind, c)) in self.ops.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                s,
                "{sep}\"{kind}\": {{\"attempted\": {}, \"succeeded\": {}, \"failed\": {}}}",
                c.attempted, c.succeeded, c.failed
            );
        }
        s.push_str("},\n  \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(s, "{sep}\"{}\"", host::escape(f));
        }
        s.push_str("],\n  \"metrics\": {");
        for (i, name) in expected.iter().enumerate() {
            let m = &self.metrics[name];
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                s,
                "{sep}\n    \"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                json_number(m.value),
                m.unit,
                m.samples
            );
        }
        s.push_str("\n  }");
        for (k, v) in &self.notes {
            let _ = write!(s, ",\n  \"{k}\": {v}");
        }
        s.push_str("\n}\n");
        s
    }
}

/// A finite number as JSON (all digits); non-finite values become null.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Request kinds whose latencies the query metrics report: sweeps and
/// port responses, and on `reduce-ladder`, whose requests are builds,
/// builds.
pub const QUERY_KINDS: [&str; 3] = ["sweep", "port", "build"];

/// Latency samples in milliseconds, grouped by request kind.
#[derive(Default)]
pub struct Latencies {
    pub by_kind: BTreeMap<&'static str, Vec<f64>>,
}

impl Latencies {
    pub fn push(&mut self, kind: &'static str, ms: f64) {
        self.by_kind.entry(kind).or_default().push(ms);
    }

    /// Samples of the [`QUERY_KINDS`].
    pub fn queries(&self) -> Vec<f64> {
        QUERY_KINDS
            .iter()
            .filter_map(|k| self.by_kind.get(k))
            .flatten()
            .copied()
            .collect()
    }

    pub fn transients(&self) -> Vec<f64> {
        self.by_kind.get("transient").cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "serve-hot",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, "serve-hot");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "serve-cold", "--trace", "2"]).is_err());
    }

    #[test]
    fn check_failure_moves_a_success_to_failed() {
        let mut run = Run::new(args(&["--workload", "serve-cold"]).expect("valid"));
        run.record::<(), String>("sweep", Ok(()));
        run.record::<(), String>("sweep", Ok(()));
        run.check_failed("sweep", "mismatch".to_string());
        let c = run.ops["sweep"];
        assert_eq!((c.attempted, c.succeeded, c.failed), (2, 1, 1));
    }
}
