//! The layer ladder of a traced run: every layer of perfvar timed
//! through its public API, in-process, on the workload's own inputs —
//! trace format (PVT, cursor, digest, live tail), analysis (replay,
//! fused, parts, out-of-core, live, diagnosis), viz, JSON, the server's
//! cache, and the daemon and CLI from outside. Each probe records spans;
//! a per-layer metric is the median time per call, or the throughput
//! over all calls, of one span name.

use crate::proc::{Daemon, Perfvar};
use crate::spans::{children_of, self_ns, Recorder, Span, OP};
use crate::stats::{median, nearest_rank};
use crate::{Metric, THREADS};
use perfvar_analysis::findings::findings;
use perfvar_analysis::live::LiveAnalysis;
use perfvar_analysis::{
    analyze, analyze_path_observed, archive_part, diagnose_meta, fuse_segments, Analysis,
    AnalysisConfig, DiagnoseConfig, PartOutcome, RecoveryMode, ReplayMachine, ReplayVisitor,
    RunComparison, Telemetry,
};
use perfvar_server::{CachedResult, ResultCache};
use perfvar_trace::format::archive::stream_file;
use perfvar_trace::format::cursor::{ArchiveCursor, CursorOptions};
use perfvar_trace::format::digest::{constituent_files, digest_path};
use perfvar_trace::format::live::{ArchiveTail, LiveArchiveWriter};
use perfvar_trace::format::{read_trace_file, write_trace_file};
use perfvar_trace::{ProcessId, Trace, TraceMeta};
use perfvar_viz::chart::{function_timeline, sos_heatmap, TimelineOptions};
use perfvar_viz::html::HtmlReport;
use perfvar_viz::summary;
use perfvar_viz::{render_svg, SvgOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls per probe: at least one, at most [`MAX_REPS`], and no new call
/// once [`PROBE_BUDGET`] is spent — so probes on a large input stay
/// affordable while cheap ones still yield a median.
const MAX_REPS: usize = 5;
const PROBE_BUDGET: Duration = Duration::from_millis(400);

/// Records per rank between two flushes of the in-process live session.
pub const LIVE_FLUSH_RECORDS: usize = 256;

/// The analysis configuration every in-process call uses: the CLI's
/// defaults with the benchmark's pinned thread count.
pub fn config() -> AnalysisConfig {
    AnalysisConfig {
        threads: THREADS,
        ..AnalysisConfig::default()
    }
}

/// One ladder input: the trace in memory and on disk in both formats.
pub struct LadderInput {
    pub name: String,
    pub trace: Trace,
    pub pvt: PathBuf,
    pub pvta: PathBuf,
    /// The form the workload hands to `perfvar` (for the CLI probes).
    pub native: PathBuf,
}

impl LadderInput {
    /// Wraps a trace whose `native` file exists, writing the other form
    /// into `dir`.
    pub fn prepare(dir: &Path, trace: Trace, native: &Path) -> Result<LadderInput, String> {
        let stem = native
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or("input file has no name")?
            .to_string();
        let pvt = dir.join(format!("{stem}.ladder.pvt"));
        let pvta = dir.join(format!("{stem}.ladder.pvta"));
        for path in [&pvt, &pvta] {
            write_trace_file(&trace, path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(LadderInput {
            name: stem,
            trace,
            pvt,
            pvta,
            native: native.to_path_buf(),
        })
    }
}

fn repeat(mut f: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let start = Instant::now();
    let mut reps = 0;
    while reps == 0 || (reps < MAX_REPS && start.elapsed() < PROBE_BUDGET) {
        f()?;
        reps += 1;
    }
    Ok(())
}

struct Null;
impl ReplayVisitor for Null {}

/// Counts the ladder reads off the pipeline's own telemetry.
#[derive(Default)]
pub struct Counts {
    /// Most passes any out-of-core analysis of an input needed.
    pub passes: u32,
    /// Events replayed by one out-of-core analysis of every input.
    pub events_replayed: u64,
}

/// Runs every probe on every input; `scratch` receives the probes'
/// output files. The live session's polls become `op` spans when
/// `live_ops` is set (the live-sse workload's in-process replica).
pub fn run(
    rec: &Recorder,
    perfvar: &Perfvar,
    inputs: &[LadderInput],
    scratch: &Path,
    live_ops: bool,
) -> Result<Counts, String> {
    let cfg = config();
    let analyses: Vec<Analysis> = inputs
        .iter()
        .map(|i| analyze(&i.trace, &cfg).map_err(|e| format!("{}: {e}", i.name)))
        .collect::<Result<_, _>>()?;
    let mut counts = Counts::default();
    let daemon = Daemon::start(perfvar)?;
    for (i, input) in inputs.iter().enumerate() {
        let other = (i + 1) % inputs.len();
        trace_layers(rec, input)?;
        analysis_layers(rec, input, &analyses[i], (&inputs[other], &analyses[other]))?;
        viz_layers(rec, input, &analyses[i])?;
        let (passes, events) = part_layers(rec, input, &analyses[i])?;
        counts.passes = counts.passes.max(passes);
        counts.events_replayed += events;
        live_layers(rec, input, &analyses[i], scratch, live_ops)?;
        external_layers(rec, perfvar, &daemon, input, scratch)?;
    }
    drop(daemon);
    Ok(counts)
}

fn err(input: &LadderInput, e: impl std::fmt::Display) -> String {
    format!("ladder on {}: {e}", input.name)
}

fn trace_layers(rec: &Recorder, input: &LadderInput) -> Result<(), String> {
    repeat(|| {
        rec.time(None, "trace.pvt_read", || read_trace_file(&input.pvt))
            .map(drop)
            .map_err(|e| err(input, e))
    })?;
    let np = input.trace.num_processes();
    let stream_bytes: u64 = (0..np)
        .map(|i| std::fs::metadata(input.pvta.join(stream_file(i))).map(|m| m.len()))
        .sum::<Result<u64, _>>()
        .map_err(|e| err(input, e))?;
    for (name, mmap) in [("trace.cursor", true), ("trace.cursor_buffered", false)] {
        repeat(|| {
            rec.time_units(None, name, || {
                (decode_archive(&input.pvta, mmap), stream_bytes)
            })
            .and_then(|events| {
                (events == input.trace.num_events() as u64)
                    .then_some(())
                    .ok_or_else(|| format!("decoded {events} events"))
            })
            .map_err(|e| err(input, e))
        })?;
    }
    let archive_bytes: u64 = constituent_files(&input.pvta)
        .map_err(|e| err(input, e))?
        .iter()
        .map(|f| std::fs::metadata(f).map(|m| m.len()).unwrap_or(0))
        .sum();
    repeat(|| {
        rec.time_units(None, "trace.digest", || {
            (digest_path(&input.pvta), archive_bytes)
        })
        .map(drop)
        .map_err(|e| err(input, e))
    })
}

/// Decodes every stream of an archive with the chunked cursor; returns
/// the event count.
fn decode_archive(path: &Path, mmap: bool) -> Result<u64, String> {
    let options = CursorOptions {
        mmap,
        ..CursorOptions::default()
    };
    let archive = ArchiveCursor::open_with(path, options).map_err(|e| e.to_string())?;
    let mut chunk = Vec::with_capacity(4096);
    let mut events = 0u64;
    for i in 0..archive.num_processes() {
        let mut stream = archive
            .stream(ProcessId::from_index(i))
            .map_err(|e| e.to_string())?;
        while stream
            .next_chunk(&mut chunk, 4096)
            .map_err(|e| e.to_string())?
            > 0
        {
            events += chunk.len() as u64;
        }
    }
    Ok(events)
}

fn analysis_layers(
    rec: &Recorder,
    input: &LadderInput,
    analysis: &Analysis,
    (other, other_analysis): (&LadderInput, &Analysis),
) -> Result<(), String> {
    let trace = &input.trace;
    let cfg = config();
    repeat(|| {
        rec.time_units(None, "analysis.replay", || {
            let mut stepped = 0;
            for stream in trace.streams() {
                let mut machine = ReplayMachine::new(trace.registry());
                for record in stream.records() {
                    machine.step(record, &mut Null);
                }
                machine.finish(&mut Null);
                stepped += machine.events_stepped();
            }
            (std::hint::black_box(stepped), trace.num_events() as u64)
        });
        Ok(())
    })?;
    repeat(|| {
        let again = rec.time(None, "analysis.analyze", || analyze(trace, &cfg));
        (again.as_ref() == Ok(analysis))
            .then_some(())
            .ok_or_else(|| err(input, "in-memory analysis is not deterministic"))
    })?;
    repeat(|| {
        rec.time(None, "analysis.fuse", || {
            std::hint::black_box(fuse_segments(trace, analysis.function, THREADS, true))
        });
        Ok(())
    })?;
    repeat(|| {
        rec.time(None, "analysis.render_text", || {
            std::hint::black_box(analysis.render_text(trace))
        });
        Ok(())
    })?;
    repeat(|| {
        rec.time(None, "analysis.findings", || {
            std::hint::black_box(findings(trace, analysis))
        });
        Ok(())
    })?;
    let meta = TraceMeta::of(trace);
    repeat(|| {
        rec.time(None, "analysis.diagnose", || {
            std::hint::black_box(diagnose_meta(&meta, analysis, &DiagnoseConfig::default()))
        });
        Ok(())
    })?;
    let names = |t: &Trace| -> Vec<String> {
        t.registry()
            .functions()
            .iter()
            .map(|f| f.name.clone())
            .collect()
    };
    let (mine, theirs) = (names(trace), names(&other.trace));
    repeat(|| {
        rec.time(None, "analysis.compare", || {
            let cmp = RunComparison::compare_analyses(analysis, &mine, other_analysis, &theirs);
            std::hint::black_box(cmp.verdict(perfvar_analysis::DEFAULT_NOISE_THRESHOLD))
        });
        Ok(())
    })?;
    let mut rendered = String::new();
    repeat(|| {
        rendered = rec.time_units(None, "json.render", || {
            let body =
                serde_json::to_string_pretty(&serde_json::to_value(analysis)).unwrap_or_default();
            let len = body.len() as u64;
            (body, len)
        });
        Ok(())
    })?;
    repeat(|| {
        rec.time_units(None, "json.parse", || {
            (
                serde_json::from_str::<serde_json::Value>(&rendered),
                rendered.len() as u64,
            )
        })
        .map(drop)
        .map_err(|e| err(input, e))
    })
}

fn viz_layers(rec: &Recorder, input: &LadderInput, analysis: &Analysis) -> Result<(), String> {
    let trace = &input.trace;
    let svg = SvgOptions::default();
    let mut timeline = String::new();
    repeat(|| {
        timeline = rec.time(None, "viz.timeline_svg", || {
            render_svg(&function_timeline(trace, &TimelineOptions::default()), &svg)
        });
        Ok(())
    })?;
    let mut heatmap = String::new();
    repeat(|| {
        heatmap = rec.time(None, "viz.heatmap_svg", || {
            render_svg(&sos_heatmap(trace, analysis), &svg)
        });
        Ok(())
    })?;
    let mut bars = String::new();
    repeat(|| {
        bars = rec.time(None, "viz.summary_svg", || {
            let mut out = summary::render_bar_svg(
                &summary::function_summary(trace, &analysis.profiles, 12),
                900,
            );
            out += &summary::render_bar_svg(&summary::process_load_chart(trace, analysis), 900);
            out += &summary::render_histogram_svg(&summary::sos_histogram(analysis, 24), 640, 320);
            out += &summary::render_series_svg(&summary::ordinal_series_chart(analysis), 900, 320);
            out
        });
        Ok(())
    })?;
    repeat(|| {
        rec.time(None, "viz.html", || {
            let mut html = HtmlReport::new(format!("perfvar report — {}", trace.name));
            html.heading("Hotspot report")
                .text(analysis.render_text(trace))
                .heading("Master timeline")
                .svg(timeline.clone())
                .heading("SOS-time heatmap")
                .svg(heatmap.clone())
                .heading("Summary")
                .svg(bars.clone());
            std::hint::black_box(html.render())
        });
        Ok(())
    })
}

/// Parts, the out-of-core driver and the server's cache; returns the
/// out-of-core run's passes and replayed events.
fn part_layers(
    rec: &Recorder,
    input: &LadderInput,
    analysis: &Analysis,
) -> Result<(u32, u64), String> {
    let cfg = config();
    let np = input.trace.num_processes();
    let part = |ranks: std::ops::Range<usize>| {
        archive_part(&input.pvta, &cfg, RecoveryMode::Strict, ranks).map_err(|e| err(input, e))
    };
    repeat(|| {
        rec.time(None, "analysis.part_build", || part(0..np))
            .map(drop)
    })?;
    let header = ArchiveCursor::open(&input.pvta).map_err(|e| err(input, e))?;
    repeat(|| {
        let (low, high) = (part(0..np / 2)?, part(np / 2..np)?);
        let merged = rec.time(None, "analysis.part_merge", || low.merge(high));
        let outcome = rec.time(None, "analysis.part_finalize", || {
            merged.finalize(header.name(), header.clock(), header.registry(), &cfg)
        });
        match outcome.map_err(|e| err(input, e))? {
            PartOutcome::Done(done) if done.analysis == *analysis => Ok(()),
            PartOutcome::Done(_) => Err(err(input, "merged parts differ from analyze()")),
            PartOutcome::Mispredicted { .. } => Err(err(
                input,
                "merged parts mispredicted the segmentation function",
            )),
        }
    })?;
    repeat(|| {
        let result = rec.time(None, "analysis.analyze_path", || {
            perfvar_analysis::analyze_path_with(&input.pvta, &cfg, RecoveryMode::Strict)
        });
        match result {
            Ok(r) if r.analysis == *analysis => Ok(()),
            Ok(_) => Err(err(input, "out-of-core result differs from analyze()")),
            Err(e) => Err(err(input, e)),
        }
    })?;
    let telemetry = Telemetry::enabled();
    let observed = analyze_path_observed(&input.pvta, &cfg, RecoveryMode::Strict, &telemetry)
        .map_err(|e| err(input, e))?;
    let events = telemetry.snapshot().map_or(0, |s| s.totals.events_replayed);
    repeat(|| {
        rec.time(None, "server.cache_render", || {
            CachedResult::render(&observed)
        })
        .map(drop)
        .map_err(|e| err(input, e))
    })?;
    let cache = ResultCache::new(64, None);
    let entry = Arc::new(CachedResult::render(&observed).map_err(|e| err(input, e))?);
    cache.put(7, entry);
    const GETS: u64 = 1_000;
    repeat(|| {
        rec.time_units(None, "server.cache_get", || {
            let hits = (0..GETS).filter(|_| cache.get(7).is_some()).count();
            (std::hint::black_box(hits), GETS)
        });
        Ok(())
    })?;
    Ok((observed.passes, events))
}

/// Streams the input through a live archive writer in flushes of
/// [`LIVE_FLUSH_RECORDS`] per rank, polling a tail and a live analysis
/// after every flush, then seals and finalizes.
fn live_layers(
    rec: &Recorder,
    input: &LadderInput,
    analysis: &Analysis,
    scratch: &Path,
    as_ops: bool,
) -> Result<(), String> {
    let trace = &input.trace;
    let dir = scratch.join(format!("{}.live.pvta", input.name));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = LiveArchiveWriter::create(&dir, &trace.name, trace.clock(), trace.registry())
        .map_err(|e| err(input, e))?;
    let mut tail = ArchiveTail::open(&dir).map_err(|e| err(input, e))?;
    let mut live = LiveAnalysis::open(&dir, config()).map_err(|e| err(input, e))?;
    let mut offsets = vec![0usize; trace.num_processes()];
    for round in 0u64.. {
        let mut wrote = false;
        for (stream, offset) in trace.streams().iter().zip(&mut offsets) {
            let records = stream.records();
            let end = (*offset + LIVE_FLUSH_RECORDS).min(records.len());
            for record in &records[*offset..end] {
                writer
                    .append(stream.process, record)
                    .map_err(|e| err(input, e))?;
            }
            wrote |= end > *offset;
            *offset = end;
        }
        if !wrote {
            break;
        }
        rec.time(None, "trace.live_flush", || writer.flush())
            .map_err(|e| err(input, e))?;
        let polled = rec.time(None, "trace.tail_poll", || tail.poll());
        if let Some(e) = polled.error {
            return Err(err(input, e));
        }
        let op = as_ops.then(|| rec.open(OP, LIVE_OP_BASE + round, 0));
        let delta = rec.time(op.as_ref(), "analysis.live_poll", || live.poll());
        if op.is_some() {
            rec.time_units(op.as_ref(), "json.render", || {
                let doc = serde_json::json!({
                    "new_events": delta.new_events,
                    "new_segments": delta.new_segments.len(),
                    "events": live.snapshot().events,
                });
                let body = serde_json::to_string(&doc).unwrap_or_default();
                let len = body.len() as u64;
                (body, len)
            });
        }
        if let Some(op) = op {
            rec.close(op);
        }
    }
    writer.finish().map_err(|e| err(input, e))?;
    while !live.poll().finished {}
    let result = rec
        .time(None, "analysis.live_finalize", || live.finalize())
        .map_err(|e| err(input, e))?;
    if result.analysis != *analysis {
        return Err(err(input, "live analysis differs from analyze()"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Operation ids of the live session's replica ops, clear of every
/// workload's own operation ids.
const LIVE_OP_BASE: u64 = 1 << 40;

/// The daemon and the CLI from outside, on this input.
fn external_layers(
    rec: &Recorder,
    perfvar: &Perfvar,
    daemon: &Daemon,
    input: &LadderInput,
    scratch: &Path,
) -> Result<(), String> {
    let get = |name: &'static str, target: &str| -> Result<String, String> {
        let resp = rec
            .time(None, name, || crate::http::get(&daemon.addr, target))
            .map_err(|e| err(input, e))?;
        if resp.status == 200 {
            Ok(resp.body)
        } else {
            Err(err(input, format!("{target}: HTTP {}", resp.status)))
        }
    };
    for _ in 0..20 {
        get("http.health", "/v1/health")?;
    }
    let target = format!(
        "/v1/analyze?path={}",
        perfvar_server::http::percent_encode(&input.pvta.to_string_lossy())
    );
    let cold = get("http.analyze_cold", &target)?;
    repeat(|| {
        (get("http.analyze_warm", &target)? == cold)
            .then_some(())
            .ok_or_else(|| err(input, "warm body differs from the cold one"))
    })?;
    let native = input.native.to_string_lossy().to_string();
    let threads = THREADS.to_string();
    let report_dir = scratch.join(format!("{}.report", input.name));
    let report_dir = report_dir.to_string_lossy().to_string();
    let cli = |name: &'static str, args: &[&str]| -> Result<(), String> {
        rec.time(None, name, || perfvar.run(args)).map(drop)
    };
    repeat(|| {
        cli(
            "cli.analyze",
            &["analyze", &native, "--json", "--threads", &threads],
        )
    })?;
    repeat(|| {
        cli(
            "cli.diagnose",
            &["diagnose", &native, "--json", "--threads", &threads],
        )
    })?;
    repeat(|| {
        cli(
            "cli.report",
            &[
                "report",
                &native,
                "--out-dir",
                &report_dir,
                "--threads",
                &threads,
            ],
        )
    })?;
    let _ = std::fs::remove_dir_all(&report_dir);
    Ok(())
}

/// How a per-layer metric is derived from its spans.
#[derive(Clone, Copy)]
enum Reduce {
    /// Median seconds per span.
    Seconds,
    /// Total units over total seconds, in millions (MB/s for bytes) —
    /// a throughput dominated by the large calls, not by the fixed cost
    /// of small ones.
    Mega,
    /// Total units over total seconds.
    Rate,
    /// Median seconds per unit (a span timing a batch of calls).
    PerUnit,
}

impl Reduce {
    fn unit(self) -> &'static str {
        match self {
            Reduce::Seconds | Reduce::PerUnit => "s",
            Reduce::Mega => "MB/s",
            Reduce::Rate => "1/s",
        }
    }
}

/// The per-layer metrics read off spans: metric, span, reduction.
#[rustfmt::skip]
const FROM_SPANS: &[(&str, &str, Reduce)] = &[
    ("trace.pvt_read_s",               "trace.pvt_read",          Reduce::Seconds),
    ("trace.cursor_mb_per_s",          "trace.cursor",            Reduce::Mega),
    ("trace.cursor_buffered_mb_per_s", "trace.cursor_buffered",   Reduce::Mega),
    ("trace.digest_mb_per_s",          "trace.digest",            Reduce::Mega),
    ("trace.live_flush_s",             "trace.live_flush",        Reduce::Seconds),
    ("trace.tail_poll_s",              "trace.tail_poll",         Reduce::Seconds),
    ("analysis.replay_events_per_s",   "analysis.replay",         Reduce::Rate),
    ("analysis.analyze_s",             "analysis.analyze",        Reduce::Seconds),
    ("analysis.fuse_s",                "analysis.fuse",           Reduce::Seconds),
    ("analysis.render_text_s",         "analysis.render_text",    Reduce::Seconds),
    ("analysis.part_build_s",          "analysis.part_build",     Reduce::Seconds),
    ("analysis.part_merge_s",          "analysis.part_merge",     Reduce::Seconds),
    ("analysis.part_finalize_s",       "analysis.part_finalize",  Reduce::Seconds),
    ("analysis.analyze_path_s",        "analysis.analyze_path",   Reduce::Seconds),
    ("analysis.diagnose_s",            "analysis.diagnose",       Reduce::Seconds),
    ("analysis.findings_s",            "analysis.findings",       Reduce::Seconds),
    ("analysis.compare_s",             "analysis.compare",        Reduce::Seconds),
    ("analysis.live_poll_s",           "analysis.live_poll",      Reduce::Seconds),
    ("analysis.live_finalize_s",       "analysis.live_finalize",  Reduce::Seconds),
    ("viz.timeline_svg_s",             "viz.timeline_svg",        Reduce::Seconds),
    ("viz.heatmap_svg_s",              "viz.heatmap_svg",         Reduce::Seconds),
    ("viz.summary_svg_s",              "viz.summary_svg",         Reduce::Seconds),
    ("viz.html_s",                     "viz.html",                Reduce::Seconds),
    ("json.render_mb_per_s",           "json.render",             Reduce::Mega),
    ("json.parse_mb_per_s",            "json.parse",              Reduce::Mega),
    ("server.cache_render_s",          "server.cache_render",     Reduce::Seconds),
    ("server.cache_get_s",             "server.cache_get",        Reduce::PerUnit),
    ("server.health_rtt_p50_s",        "http.health",             Reduce::Seconds),
    ("server.cold_analyze_s",          "http.analyze_cold",       Reduce::Seconds),
    ("server.warm_analyze_s",          "http.analyze_warm",       Reduce::Seconds),
    ("cli.analyze_p50_s",              "cli.analyze",             Reduce::Seconds),
    ("cli.diagnose_p50_s",             "cli.diagnose",            Reduce::Seconds),
    ("cli.report_p50_s",               "cli.report",              Reduce::Seconds),
];

/// Every traced `op` span split into the summed durations of its
/// external (`cli.*`/`http.*`/`sse.*`) children — what the untraced run
/// times as the operation — and the summed self times of its in-process
/// layer children.
fn op_splits(spans: &[Span]) -> Vec<(f64, f64)> {
    let children = children_of(spans);
    let none = Vec::new();
    spans
        .iter()
        .filter(|s| s.name == OP)
        .map(|op| {
            let (mut external_s, mut layers_s) = (0.0, 0.0);
            for kid in children.get(&op.id).unwrap_or(&none) {
                if kid.is_external() {
                    external_s += kid.seconds();
                } else {
                    let grand = children.get(&kid.id).unwrap_or(&none);
                    layers_s += self_ns(kid, grand) as f64 / 1e9;
                }
            }
            (external_s, layers_s)
        })
        .collect()
}

/// The per-layer metrics of a traced run. `untraced_op_p50_s` is the
/// median of the run's untraced operations, `late_s` how late the
/// generator sent each scheduled operation (empty for closed loops).
pub fn metrics(
    rec: &Recorder,
    counts: &Counts,
    untraced_op_p50_s: f64,
    late_s: &[f64],
) -> Result<Vec<Metric>, String> {
    let spans = rec.spans();
    let mut out = Vec::with_capacity(FROM_SPANS.len() + 6);
    for &(metric, span, reduce) in FROM_SPANS {
        let mine: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == span && s.end_ns > s.start_ns)
            .collect();
        if mine.is_empty() {
            return Err(format!("traced run recorded no {span} span"));
        }
        let rate = || {
            let units: u64 = mine.iter().map(|s| s.units).sum();
            units as f64 / mine.iter().map(|s| s.seconds()).sum::<f64>()
        };
        let per_span = |f: fn(&Span) -> f64| median(&mine.iter().map(|s| f(s)).collect::<Vec<_>>());
        let value = match reduce {
            Reduce::Seconds => per_span(Span::seconds),
            Reduce::Mega => rate() / 1e6,
            Reduce::Rate => rate(),
            Reduce::PerUnit => per_span(|s| s.seconds() / s.units.max(1) as f64),
        };
        out.push(Metric::new(metric, value, reduce.unit()));
    }
    out.push(Metric::new(
        "analysis.passes",
        counts.passes as f64,
        "count",
    ));
    out.push(Metric::new(
        "analysis.events_replayed",
        counts.events_replayed as f64,
        "count",
    ));
    let splits = op_splits(&spans);
    let traced: Vec<f64> = splits.iter().map(|s| s.0).filter(|&x| x > 0.0).collect();
    let layers: Vec<f64> = splits.iter().map(|s| s.1).filter(|&x| x > 0.0).collect();
    if traced.is_empty() || layers.is_empty() || untraced_op_p50_s <= 0.0 {
        return Err("traced run has no operations to reconcile".to_string());
    }
    out.push(Metric::new(
        "bench.late_p99_s",
        nearest_rank(late_s, 0.99).unwrap_or(0.0),
        "s",
    ));
    out.push(Metric::new(
        "bench.unaccounted_frac",
        1.0 - median(&layers) / untraced_op_p50_s,
        "fraction",
    ));
    out.push(Metric::new(
        "bench.trace_overhead_frac",
        median(&traced) / untraced_op_p50_s - 1.0,
        "fraction",
    ));
    Ok(out)
}
