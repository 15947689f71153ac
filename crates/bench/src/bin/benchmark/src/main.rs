//! `benchmark` — runs one named perfvar workload against the real
//! `perfvar` binary and prints its metrics.
//!
//! ```text
//! benchmark --workload <figures|archive-scan|serve-mixed|live-sse>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed` under `target/bench/<workload>/`;
//! `perfvar` (found next to this executable) only sees those files,
//! as subprocesses or as a `perfvar serve` daemon spoken to over HTTP.
//! Every output is checked; a wrong answer counts as a failed
//! operation. With `--trace 0` the result carries the end-to-end
//! metrics, with `--trace 1` the per-layer ones from a traced run that
//! also times each layer's public API in-process (see `README.md`). The
//! last line of stdout is the JSON result.

mod archive_scan;
mod figures;
mod http;
mod inputs;
mod ladder;
mod live_sse;
mod proc;
mod sender;
mod serve_mixed;
mod spans;
mod stats;

use proc::Perfvar;
use spans::{Open, Recorder};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Analysis threads the benchmark pins for `perfvar` and for the
/// in-process layer calls alike.
pub const THREADS: usize = 2;

/// Everything a workload run needs.
pub struct Ctx {
    pub perfvar: Perfvar,
    /// The workload's scratch directory (absolute).
    pub work: PathBuf,
    pub seed: u64,
    /// The measured window.
    pub seconds: f64,
    /// The span recorder of a traced run (`--trace 1`).
    pub trace: Option<Recorder>,
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that errored or returned a wrong answer.
    pub failed: u64,
    /// First few failure descriptions, for stderr.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one operation and, when `check` failed, one failure.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.fail(e);
        }
    }

    /// Counts a failure of an already-counted operation.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

impl Ctx {
    /// Runs an external call `f`: as a child span of `parent` when the
    /// operation is traced, plainly otherwise.
    pub fn call<R>(&self, parent: Option<&Open>, name: &'static str, f: impl FnOnce() -> R) -> R {
        match (&self.trace, parent) {
            (Some(rec), Some(parent)) => rec.time(Some(parent), name, f),
            _ => f(),
        }
    }

    /// A closed loop with one client: operation `i` runs back to back
    /// until the window has passed and at least `min_ops` ran — the
    /// percentile rule needs samples — but never past three windows.
    /// `check` judges each output outside the clock. In a traced run
    /// (which reports no percentiles, so has no minimum) every other
    /// operation is traced, so traced and untraced operations share the
    /// same conditions: its `op` span is handed to `op` (for the external
    /// calls) and then to `replica`, which replays the operation
    /// in-process. Returns the untraced latencies.
    pub fn closed_loop<T>(
        &self,
        outcome: &mut Outcome,
        min_ops: usize,
        mut op: impl FnMut(usize, Option<&Open>) -> Result<T, String>,
        mut check: impl FnMut(usize, T) -> Result<(), String>,
        mut replica: impl FnMut(usize, &Recorder, &Open) -> Result<(), String>,
    ) -> Vec<f64> {
        let start = Instant::now();
        let window = Duration::from_secs_f64(self.seconds);
        let min_ops = if self.trace.is_some() { 0 } else { min_ops };
        let mut latencies = Vec::new();
        let mut i = 0;
        while (start.elapsed() < window || i < min_ops) && start.elapsed() < window * 3 {
            let span = match &self.trace {
                Some(rec) if i % 2 == 1 => Some(rec.open(spans::OP, i as u64 + 1, 0)),
                _ => None,
            };
            let began = Instant::now();
            let result = op(i, span.as_ref());
            if span.is_none() {
                latencies.push(began.elapsed().as_secs_f64());
            }
            outcome.record(result.and_then(|out| check(i, out)));
            if let (Some(rec), Some(span)) = (&self.trace, span) {
                let replayed = replica(i, rec, &span);
                rec.close(span);
                if let Err(e) = replayed {
                    outcome.fail(e);
                }
            }
            i += 1;
        }
        latencies
    }
}

/// Times `setup` `n` times and returns the median seconds and the last
/// result (the one the run keeps).
pub fn timed_setup<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let start = Instant::now();
        let value = setup()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((stats::median(&times), last.expect("n >= 1")))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: benchmark --workload <figures|archive-scan|serve-mixed|live-sse> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    // No default window: `run_seconds` in BENCHMARK.json is the one source.
    let mut seconds = None;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("invalid {flag} {value:?}: {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("missing --workload\n{USAGE}"))?,
        seed,
        seconds: seconds.ok_or_else(|| format!("missing --seconds\n{USAGE}"))?,
        trace,
    })
}

fn run() -> Result<Outcome, String> {
    let args = parse_args()?;
    let run: fn(&Ctx) -> Result<Outcome, String> = match args.workload.as_str() {
        "figures" => figures::run,
        "archive-scan" => archive_scan::run,
        "serve-mixed" => serve_mixed::run,
        "live-sse" => live_sse::run,
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let perfvar = Perfvar::locate()?;
    let bench_dir = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join("target")
        .join("bench");
    let work = bench_dir.join(&args.workload);
    match std::fs::remove_dir_all(&work) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot clear {}: {e}", work.display())),
    }
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let ctx = Ctx {
        perfvar,
        work,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace.then(Recorder::new),
    };
    let mut outcome = run(&ctx)?;
    if let Some(recorder) = &ctx.trace {
        let archive = recorder.write(&bench_dir, &args.workload)?;
        if let Err(e) = check_span_archive(&ctx.perfvar, &archive) {
            outcome.fail(e);
        }
    }
    // The inputs can be large; the spans and the result are what stays.
    let _ = std::fs::remove_dir_all(&ctx.work);
    Ok(outcome)
}

/// perfvar's own SOS analysis of the span archive must succeed and
/// segment it by the operation span.
fn check_span_archive(perfvar: &Perfvar, archive: &std::path::Path) -> Result<(), String> {
    let text = perfvar.run(&["analyze", &archive.to_string_lossy()])?;
    let want = format!("segmentation function: {:?} (time-dominant)", spans::OP);
    if String::from_utf8_lossy(&text).contains(&want) {
        Ok(())
    } else {
        Err(format!(
            "{}: perfvar analyze does not name the {:?} span as dominant",
            archive.display(),
            spans::OP
        ))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(outcome) => {
            for e in &outcome.errors {
                eprintln!("benchmark: failed operation: {e}");
            }
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
