//! `live-sse`: the trace format's write side and read side at once.
//!
//! Open loop on the writer's clock: inside the benchmark a
//! `LiveArchiveWriter` appends a seeded 64-rank stencil, [`FLUSH_RECORDS`]
//! records per rank per flush every [`FLUSH_EVERY`], while an SSE client
//! follows `/v1/analyze/stream?interval=10` on a `perfvar serve` daemon.
//! Each run lasts [`FLUSHES`] flushes and is then sealed; runs repeat
//! until the window ends. An operation is one flush; its latency is the
//! time from the flush returning to the first `delta` event whose
//! `events` covers it. The stream pins the segmentation function: at a
//! 64-rank append rate two CPUs sustain, rank 0 appends far fewer than
//! the 65,536-event prediction prefix per run, so an unpinned stream
//! would buffer until the seal instead of folding — pinned,
//! `LiveAnalysis` streams from the first poll.

use crate::http::SseStream;
use crate::inputs::{mix, LiveStencil};
use crate::ladder::{self, LadderInput};
use crate::proc::{self, Daemon};
use crate::spans::{Recorder, OP};
use crate::stats::{median, percentile};
use crate::{timed_setup, Ctx, Metric, Outcome, THREADS};
use perfvar_server::http::percent_encode;
use perfvar_trace::format::live::LiveArchiveWriter;
use perfvar_trace::format::read_trace_file;
use perfvar_trace::{Clock, ProcessId};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const RANKS: usize = 64;
/// Records appended per rank between two flushes.
const FLUSH_RECORDS: usize = 256;
const FLUSH_EVERY: Duration = Duration::from_millis(20);
/// Flushes per live run (1.5 s of writing).
const FLUSHES: usize = 75;
/// The daemon's poll interval, in milliseconds.
const POLL_MS: u64 = 10;
/// Starting a daemon takes milliseconds; more set-ups steady the median.
const SETUPS: usize = 15;
/// Flush samples the p90 needs (ten beyond it).
const MIN_FLUSHES: usize = 100;

/// One event as the SSE client saw it.
struct Seen {
    at: Instant,
    kind: String,
    /// `events` of a delta; 0 otherwise.
    events: u64,
    data: String,
}

/// What one live run measured.
struct LiveRun {
    dir: PathBuf,
    /// Per flush: when it returned and the events appended so far.
    flushes: Vec<(Instant, u64)>,
    /// Per flush: how late it started against its schedule.
    late_s: Vec<f64>,
    seen: Vec<Seen>,
}

fn stream_target(dir: &Path) -> String {
    format!(
        "/v1/analyze/stream?path={}&interval={POLL_MS}&function={}",
        percent_encode(&dir.to_string_lossy()),
        LiveStencil::ITERATION
    )
}

/// Writes one seeded live run while following it over SSE.
fn live_run(ctx: &Ctx, daemon: &Daemon, run: usize, traced: bool) -> Result<LiveRun, String> {
    let dir = ctx.work.join(format!("live-{run}.pvta"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut stencil = LiveStencil::new(RANKS, mix(ctx.seed, run as u64));
    let writer = LiveArchiveWriter::create(
        &dir,
        "live-stencil",
        Clock::microseconds(),
        stencil.registry(),
    )
    .map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut stream =
        SseStream::open(&daemon.addr, &stream_target(&dir)).map_err(|e| format!("SSE: {e}"))?;
    let cancel = stream.canceller().map_err(|e| format!("SSE: {e}"))?;
    let rec = ctx.trace.as_ref().filter(|_| traced);
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || -> Result<Vec<Seen>, String> {
            let mut seen = Vec::new();
            while let Some(event) = stream.next_event().map_err(|e| format!("SSE: {e}"))? {
                let at = Instant::now();
                let done = event.event != "delta";
                let events = if done {
                    0
                } else {
                    serde_json::from_str::<serde_json::Value>(&event.data)
                        .ok()
                        .and_then(|v| v.get("events").and_then(|e| e.as_u64()))
                        .ok_or_else(|| format!("malformed delta {:?}", event.data))?
                };
                seen.push(Seen {
                    at,
                    kind: event.event,
                    events,
                    data: event.data,
                });
                if done {
                    break;
                }
            }
            Ok(seen)
        });
        let written = write_run(writer, &mut stencil, rec);
        if written.is_err() {
            // Unblock the reader: the daemon would stream until a seal
            // that is never coming.
            let _ = cancel.shutdown(std::net::Shutdown::Both);
        }
        let seen = reader.join().expect("the SSE reader panicked");
        let (flushes, late_s) = written.map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(LiveRun {
            dir: dir.clone(),
            flushes,
            late_s,
            seen: seen?,
        })
    })
}

/// Per flush: when it returned and the events appended so far.
type Flushes = Vec<(Instant, u64)>;

/// The writer's side of a run: [`FLUSHES`] flushes on the fixed
/// schedule, then the closing records and the seal. Returns the flush
/// times with cumulative event counts, and each flush's lateness.
fn write_run(
    mut writer: LiveArchiveWriter,
    stencil: &mut LiveStencil,
    rec: Option<&Recorder>,
) -> Result<(Flushes, Vec<f64>), perfvar_trace::TraceError> {
    let start = Instant::now();
    let mut appended = 0u64;
    let mut flushes = Vec::with_capacity(FLUSHES);
    let mut late_s = Vec::with_capacity(FLUSHES);
    for k in 0..FLUSHES {
        let due = start + FLUSH_EVERY * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        late_s.push(Instant::now().saturating_duration_since(due).as_secs_f64());
        for rank in 0..RANKS {
            for _ in 0..FLUSH_RECORDS {
                writer.append(ProcessId::from_index(rank), &stencil.next_record(rank))?;
            }
        }
        appended += (RANKS * FLUSH_RECORDS) as u64;
        match rec {
            Some(rec) => rec.time(None, "trace.live_flush", || writer.flush())?,
            None => writer.flush()?,
        }
        flushes.push((Instant::now(), appended));
    }
    for rank in 0..RANKS {
        for record in stencil.closing_records(rank) {
            writer.append(ProcessId::from_index(rank), &record)?;
        }
    }
    writer.finish()?;
    Ok((flushes, late_s))
}

/// Per flush, the lag to the first delta covering it (`None`: no delta
/// ever did).
fn lags(run: &LiveRun) -> Vec<(Instant, Option<Instant>)> {
    run.flushes
        .iter()
        .map(|&(flushed, events)| {
            let covered = run
                .seen
                .iter()
                .find(|s| s.kind == "delta" && s.events >= events)
                .map(|s| s.at.max(flushed));
            (flushed, covered)
        })
        .collect()
}

/// The run's `result` event must equal a one-shot `perfvar analyze
/// --json` of the sealed archive.
fn check_result(ctx: &Ctx, run: &LiveRun) -> Result<(), String> {
    let result = run
        .seen
        .last()
        .filter(|s| s.kind == "result")
        .ok_or_else(|| format!("{}: stream ended without a result event", run.dir.display()))?;
    let dir = run.dir.to_string_lossy();
    let threads = THREADS.to_string();
    let cli = ctx.perfvar.run(&[
        "analyze",
        &dir,
        "--json",
        "--function",
        LiveStencil::ITERATION,
        "--threads",
        &threads,
    ])?;
    let compact = |bytes: &[u8]| -> Result<String, String> {
        let value: serde_json::Value = serde_json::from_slice(bytes).map_err(|e| e.to_string())?;
        serde_json::to_string(&value).map_err(|e| e.to_string())
    };
    if compact(result.data.as_bytes())? != compact(&cli)? {
        return Err(format!(
            "{}: result event differs from perfvar analyze --json",
            run.dir.display()
        ));
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (setup_s, daemon) = timed_setup(SETUPS, || Daemon::start(&ctx.perfvar))?;
    // Warm-up: one untimed run.
    let warm = live_run(ctx, &daemon, 0, false)?;
    check_result(ctx, &warm)?;

    let mut outcome = Outcome::default();
    let mut late = Vec::new();
    let mut last_dir = warm.dir.clone();
    let mut runs = 1;
    let mut window = |seconds: f64, min_flushes: usize, traced: bool| -> Result<Vec<f64>, String> {
        let start = Instant::now();
        let mut lag_s = Vec::new();
        // Like the closed loops: past the window only to reach the
        // samples the percentiles need, and never past three windows.
        while (start.elapsed().as_secs_f64() < seconds || lag_s.len() < min_flushes)
            && start.elapsed().as_secs_f64() < 3.0 * seconds
        {
            let run = live_run(ctx, &daemon, runs, traced)?;
            runs += 1;
            for (i, (flushed, covered)) in lags(&run).into_iter().enumerate() {
                match covered {
                    Some(at) => {
                        lag_s.push(at.duration_since(flushed).as_secs_f64());
                        outcome.record(Ok(()));
                        if let (Some(rec), true) = (&ctx.trace, traced) {
                            let op = (runs * FLUSHES + i) as u64;
                            let id = rec.record(OP, None, op, 1, (flushed, at));
                            rec.record("sse.lag", Some(id), op, 1, (flushed, at));
                        }
                    }
                    None => outcome.record(Err(format!(
                        "{}: flush {i} never showed in a delta",
                        run.dir.display()
                    ))),
                }
            }
            late.extend_from_slice(&run.late_s);
            if let Err(e) = check_result(ctx, &run) {
                outcome.fail(e);
            }
            let _ = std::fs::remove_dir_all(&last_dir);
            last_dir = run.dir;
        }
        Ok(lag_s)
    };

    let Some(rec) = &ctx.trace else {
        let lag_s = window(ctx.seconds, MIN_FLUSHES, false)?;
        drop(daemon);
        outcome.metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new(
                "op_p50_s",
                percentile(&lag_s, 0.5, "live-sse flush lag")?,
                "s",
            ),
            Metric::new(
                "op_p90_s",
                percentile(&lag_s, 0.9, "live-sse flush lag")?,
                "s",
            ),
            Metric::new("peak_rss_mb", proc::peak_rss_mb(), "MB"),
        ];
        return Ok(outcome);
    };
    let untraced = window(ctx.seconds / 2.0, 1, false)?;
    window(ctx.seconds / 2.0, 1, true)?;
    drop(daemon);
    let trace = read_trace_file(&last_dir).map_err(|e| format!("{}: {e}", last_dir.display()))?;
    let input = LadderInput::prepare(&ctx.work, trace, &last_dir)?;
    let counts = ladder::run(rec, &ctx.perfvar, &[input], &ctx.work, true)?;
    outcome.metrics = ladder::metrics(rec, &counts, median(&untraced), &late)?;
    Ok(outcome)
}
