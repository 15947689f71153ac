//! Implementations of the CLI subcommands.

use crate::args::{ArgSpec, ParsedArgs};
use crate::workload_args::{generate_trace, WORKLOAD_NAMES};
use perfvar_analysis::live::LiveAnalysis;
use perfvar_analysis::messages::MessageAnalysis;
use perfvar_analysis::{
    activity_of_path, analyze_observed, analyze_path_observed, diagnose_meta, fold_on_axis,
    Analysis, AnalysisConfig, AnalysisOptions, DiagnoseOptions, OutOfCoreAnalysis,
    PathAnalysisError, PipelineStats, RunComparison, Telemetry, Verdict,
};
use perfvar_trace::format::live::LiveArchiveWriter;
use perfvar_trace::format::{read_trace_file, write_trace_file, Format};
use perfvar_trace::{Trace, TraceMeta};
use perfvar_viz::chart::{
    cluster_heatmap, counter_heatmap_meta, function_timeline_of, sos_heatmap_meta, TimelineOptions,
};
use perfvar_viz::html::HtmlReport;
use perfvar_viz::live::{render_live, LiveViewOptions};
use perfvar_viz::matrix::{render_comm_matrix_svg_meta, CommQuantity};
use perfvar_viz::report::ReportCharts;
use perfvar_viz::{render_ansi, render_svg, AnsiOptions, SvgOptions};
use serde::Serialize;
use std::io::{IsTerminal, Write as _};
use std::path::Path;

/// Top-level usage text.
pub const USAGE: &str = "\
perfvar — detection and visualization of performance variations

USAGE:
  perfvar generate <workload> --out <trace.pvt> [--ranks N] [--iterations N]
                   [--seed S] [--work W]
                   [--live [--flush-every N] [--delay-ms MS]]
  perfvar info     <trace> [--stats]
  perfvar watch    <archive.pvta> [--interval MS] [--width N] [--top N]
                   [--function NAME] [--multiplier K] [--no-color]
  perfvar analyze  <trace> [--function NAME] [--refine N] [--multiplier K]
                   [--threads N] [--auto-refine] [--calltree] [--waitstates]
                   [--phases] [--json] [--partial] [--read-buffer BYTES]
                   [--no-mmap] [--stats] [--stats-json]
  perfvar render   <trace> --chart timeline|sos|comm|comm-bytes|counter:<METRIC>
                   [--out x.svg] [--ansi] [--threads N] [--stats]
  perfvar report   <trace> --out-dir DIR [--threads N] [--stats]
  perfvar compare  <before> <after> [--function NAME] [--threshold T] [--json]
  perfvar bisect   <known-good> <run1> … <runN> [--threshold T] [--reps N] [--json]
  perfvar diagnose <trace> [--clusters K] [--cluster-threshold T]
                   [--max-clusters N] [--function NAME] [--multiplier K]
                   [--threads N] [--read-buffer BYTES] [--json]
                   [--partial] [--no-mmap] [--no-heatmap]
  perfvar slice    <in> <out> (--from-tick T --to-tick T | --segment N [--function NAME])
  perfvar convert  <in.pvt|in.pvtx> <out.pvt|out.pvtx>
  perfvar serve    [--addr HOST:PORT] [--workers N] [--threads N]
                   [--cache-entries N] [--cache-dir DIR] [--store-dir DIR]

Workloads: cosmo-specs, cosmo-specs-fd4, wrf (the paper's case studies),
           balanced, random, gradual, outlier, desync-wave (synthetic).

diagnose runs the automatic-diagnosis layer: ranks are grouped into at
most --max-clusters behaviour clusters on their per-segment SOS-time
vectors (streamed — no rank × rank distance matrix is materialised),
each cluster gets a cause label (baseline / persistent overload /
one-off spikes / swept by an idle wave), and a propagating-wait front
is detected when per-rank peak waits form a neighbour-to-neighbour
wave. Text mode prints a one-row-per-cluster heatmap followed by the
labelled findings; --json emits the Diagnosis object — byte-identical
to the daemon's GET /v1/diagnose data payload.

generate --live writes the archive as a *growing* live run — appending
and flushing --flush-every records per rank per round, sleeping
--delay-ms between rounds — then seals it with the end-of-run marker.
watch follows such a run: it re-analyzes only the newly appended bytes
each --interval (default 500 ms) and repaints a per-rank stats table
with an SOS heatmap strip of the most recent segments, exiting once the
writer seals the run. On stream corruption the affected rank freezes at
its last good state (reported with rank and byte offset) while the
remaining ranks keep streaming.

Every command analyzes a trace file exactly as the daemon does: archive
(.pvta) rank streams are decoded straight from disk without materialising
the trace, and --partial recovers the intact ranks of a damaged archive.
Stream files are memory-mapped where possible; --no-mmap forces buffered
reads and --read-buffer BYTES sizes the buffered read window (a pure
performance knob — results are bit-identical either way).

report, render and info never load the trace either: the charts come
from one more streaming pass over the file (the \"fold\" stage).

--stats prints a per-stage pipeline timing table (wall time, events/s,
bytes/s, peak state, the process's peak RSS) to stderr (analyze,
report, render and info); --stats-json
emits the same data as JSON on stdout (combined with --json it becomes
{\"analysis\": …, \"stats\": …}).
analyze runs on a terminal show a live N/M-ranks progress line.

serve starts an analysis daemon answering GET /v1/analyze?path=…,
GET /v1/refine?path=…&steps=N, GET /v1/diagnose?path=… and GET /v1/stats;
a success body is {\"ok\": true, \"data\": D} with D the matching --json
output. Results are cached content-addressed (archive digest + config)
so repeated and concurrent requests analyze each trace exactly once.
The daemon also keeps a labelled run store (GET /v1/runs/register?path=…
&label=…, GET /v1/runs) persisted under --store-dir (default: --cache-dir)
and serves GET /v1/compare?base=R&cand=R where R is a label, digest, or
path — warm comparisons reuse cached analyses and decode zero bytes.

compare prints per-rank and per-function deltas plus a noise-aware
verdict: the candidate is a regression/improvement only when its robust
makespan moved by more than --threshold (default 0.05 = ±5%) relative
to the baseline; smaller changes classify as noise. bisect binary-
searches an ordered run sequence (run 0 = known good) for the first
regressing run in O(log n) comparisons; --reps N repeats the walk and
errors unless every repetition agrees.";

/// Prints `value` as pretty JSON plus a newline on stdout, streamed
/// through a buffer: the document is never held whole in memory.
fn print_json<T: Serialize + ?Sized>(value: &T) -> Result<(), String> {
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    serde_json::to_writer_pretty(&mut out, value).map_err(|e| format!("cannot write JSON: {e}"))?;
    out.write_all(b"\n")
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write JSON: {e}"))
}

fn load_trace(path: &str) -> Result<Trace, String> {
    read_trace_file(path).map_err(|e| format!("cannot read trace {path}: {e}"))
}

/// `perfvar generate <workload> --out <file>`
pub fn generate(argv: Vec<String>) -> Result<(), String> {
    const SPEC: ArgSpec = ArgSpec {
        valued: &[
            "out",
            "ranks",
            "iterations",
            "seed",
            "outlier-rank",
            "origin",
            "work",
            "flush-every",
            "delay-ms",
        ],
        flags: &["live"],
    };
    let args = SPEC.parse(argv).map_err(|e| e.to_string())?;
    let workload = args.positional(0).ok_or_else(|| {
        format!(
            "missing workload name; one of: {}",
            WORKLOAD_NAMES.join(", ")
        )
    })?;
    let out = args.value("out").ok_or("missing --out <file>")?;
    let trace = generate_trace(workload, &args)?;
    if args.has("live") {
        return generate_live(&trace, out, &args);
    }
    write_trace_file(&trace, out).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {out}: {} processes, {} events, span {}",
        trace.num_processes(),
        trace.num_events(),
        trace.clock().format_duration(trace.span())
    );
    Ok(())
}

/// `perfvar generate … --live`: writes the trace as a *growing* live
/// archive — append, flush, (optionally) sleep, repeat — then seals it
/// with the end-of-run marker. A `perfvar watch` or a daemon
/// `/v1/analyze/stream` pointed at the directory observes the run
/// growing exactly as a real instrumented application would produce it.
fn generate_live(trace: &Trace, out: &str, args: &ParsedArgs) -> Result<(), String> {
    if Format::from_path(Path::new(out)) != Format::Archive {
        return Err("--live requires a .pvta output (live archives are directories)".to_string());
    }
    let flush_every: usize = args
        .parse_or("flush-every", 1024)
        .map_err(|e| e.to_string())?;
    if flush_every == 0 {
        return Err("--flush-every must be at least 1 record".to_string());
    }
    let delay_ms: u64 = args.parse_or("delay-ms", 0).map_err(|e| e.to_string())?;
    let mut w = LiveArchiveWriter::create(out, &trace.name, trace.clock(), trace.registry())
        .map_err(|e| format!("cannot create live archive {out}: {e}"))?;
    let streams = trace.streams();
    let mut offsets = vec![0usize; streams.len()];
    let mut flushes = 0u64;
    loop {
        let mut wrote = false;
        for (i, stream) in streams.iter().enumerate() {
            let records = stream.records();
            let end = (offsets[i] + flush_every).min(records.len());
            for r in &records[offsets[i]..end] {
                w.append(stream.process, r)
                    .map_err(|e| format!("cannot append to {out}: {e}"))?;
            }
            wrote |= end > offsets[i];
            offsets[i] = end;
        }
        if !wrote {
            break;
        }
        w.flush().map_err(|e| format!("cannot flush {out}: {e}"))?;
        flushes += 1;
        if delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(delay_ms));
        }
    }
    w.finish().map_err(|e| format!("cannot seal {out}: {e}"))?;
    println!(
        "wrote live {out}: {} processes, {} events in {flushes} flush(es), sealed",
        trace.num_processes(),
        trace.num_events(),
    );
    Ok(())
}

/// `perfvar watch <archive.pvta>`: follows a growing live archive,
/// repainting a per-rank stats table and SOS heatmap strip every
/// `--interval` milliseconds, and exits when the writer seals the run
/// (or on Ctrl-C). Stream corruption is reported with its rank and byte
/// offset while the remaining ranks keep streaming; the last good view
/// stays on screen.
pub fn watch(argv: Vec<String>) -> Result<(), String> {
    const SPEC: ArgSpec = ArgSpec {
        valued: &["interval", "width", "top", "function", "multiplier"],
        flags: &["no-color"],
    };
    let args = SPEC.parse(argv).map_err(|e| e.to_string())?;
    let path = args.positional(0).ok_or("missing live archive path")?;
    if Format::from_path(Path::new(path)) != Format::Archive {
        return Err("watch follows .pvta live archive directories".to_string());
    }
    let interval: u64 = args.parse_or("interval", 500).map_err(|e| e.to_string())?;
    let options = options_of(&args)?;
    let mut live = LiveAnalysis::open(path, options.config())
        .map_err(|e| format!("cannot open live archive {path}: {e}"))?;
    let interactive = std::io::stdout().is_terminal();
    let view = LiveViewOptions {
        width: args.parse_or("width", 60).map_err(|e| e.to_string())?,
        color: interactive && !args.has("no-color"),
        functions: args.parse_or("top", 5).map_err(|e| e.to_string())?,
        ..LiveViewOptions::default()
    };
    let mut last_error: Option<String> = None;
    loop {
        let delta = live.poll();
        if let Some(error) = &delta.error {
            let message = error.to_string();
            if last_error.as_deref() != Some(&message) {
                eprintln!("watch: {message}");
                last_error = Some(message);
            }
        }
        if interactive {
            // Repaint in place: clear screen, home, frame.
            print!("\x1b[2J\x1b[H{}", render_live(&live, &view));
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        if delta.finished {
            if !interactive {
                print!("{}", render_live(&live, &view));
            }
            return match last_error {
                None => Ok(()),
                Some(message) => Err(format!("run sealed with stream errors: {message}")),
            };
        }
        std::thread::sleep(std::time::Duration::from_millis(interval.max(1)));
    }
}

/// `perfvar info <trace>`: one chart fold over the file, without
/// timeline buckets.
pub fn info(argv: Vec<String>) -> Result<(), String> {
    const SPEC: ArgSpec = ArgSpec {
        valued: &[],
        flags: &["stats"],
    };
    let args = SPEC.parse(argv).map_err(|e| e.to_string())?;
    let path = args.positional(0).ok_or("missing trace path")?;
    let telemetry = telemetry_of(&args, false);
    let activity = activity_of_path(path, &AnalysisConfig::default(), None, &telemetry)
        .map_err(|e| format!("cannot read trace {path}: {e}"))?;
    let meta = &activity.meta;
    let counts = activity.counts;
    println!("trace {:?}", meta.name);
    println!("  processes: {}", meta.num_processes());
    println!("  functions: {}", meta.registry.num_functions());
    println!("  metrics:   {}", meta.registry.num_metrics());
    println!(
        "  events:    {} (enter/leave {}, messages {}, metric samples {})",
        counts.total(),
        counts.enters + counts.leaves,
        counts.sends + counts.recvs,
        counts.metrics
    );
    println!("  span:      {}", meta.clock.format_duration(meta.span()));
    println!("  MPI share: {:.1}%", activity.mpi_fraction() * 100.0);
    let messages = MessageAnalysis::match_endpoints(&activity.endpoints);
    if !messages.is_empty() {
        println!(
            "  messages:  {} matched ({} bytes), mean transfer {:.1} ticks",
            messages.len(),
            messages.total_bytes(),
            messages.mean_transfer().unwrap_or(0.0)
        );
    }
    print_stats(&args, telemetry.snapshot());
    Ok(())
}

/// Decodes the shared analysis knobs
/// (`--function/--multiplier/--threads/--read-buffer/--no-mmap/--partial`)
/// through the one codec the daemon's query parameters use too
/// ([`perfvar_analysis::options`]), so the CLI and HTTP dialects cannot
/// drift.
fn options_of(args: &ParsedArgs) -> Result<AnalysisOptions, String> {
    let mut options = AnalysisOptions::default();
    for &key in AnalysisOptions::KEYS {
        match args.value(key) {
            Some(v) => options.absorb(key, Some(v)),
            None if args.has(key) => options.absorb(key, None),
            None => continue,
        }
        .map_err(|e| format!("--{e}"))?;
    }
    Ok(options)
}

/// Explains how an explicit `--threads` request resolves for a run over
/// `num_processes` ranks: `0` (the default) means "use the available
/// hardware parallelism", and any larger request is capped at the rank
/// count — the pipeline parallelises over ranks, so extra workers would
/// idle. The pipeline resolves the count itself; this only says so.
fn note_threads(args: &ParsedArgs, requested: usize, num_processes: usize) {
    let resolved = perfvar_analysis::parallel::resolve_threads(requested, num_processes);
    if args.value("threads").is_none() || resolved == requested {
        return;
    }
    if requested == 0 {
        eprintln!(
            "--threads 0: using {resolved} worker thread(s) \
             (hardware parallelism, capped at the rank count)"
        );
    } else {
        eprintln!(
            "capping --threads {requested} to {resolved}: the pipeline \
             runs one worker per rank at most"
        );
    }
}

/// Builds the telemetry recorder the `analyze` flags ask for: `--stats`
/// and `--stats-json` enable recording; runs on a terminal that stream
/// the file additionally get a live progress line on stderr. Everything
/// else runs with the zero-cost noop recorder.
fn telemetry_of(args: &ParsedArgs, live_progress: bool) -> Telemetry {
    let wants_stats = args.has("stats") || args.has("stats-json");
    let progress = live_progress && std::io::stderr().is_terminal();
    if !wants_stats && !progress {
        return Telemetry::noop();
    }
    let telemetry = Telemetry::enabled();
    if progress {
        telemetry.with_progress(|p| {
            eprint!(
                "\r[{}] {}/{} ranks, {:.1} Mevents/s",
                p.stage,
                p.ranks_done,
                p.ranks_total,
                p.events_per_sec() / 1e6
            );
        })
    } else {
        telemetry
    }
}

/// Prints the `--stats` table to stderr when the flag is set. It comes
/// last, so its peak RSS is read again at the end of the command, after
/// everything the command printed.
fn print_stats(args: &ParsedArgs, stats: Option<PipelineStats>) {
    if let Some(mut stats) = stats.filter(|_| args.has("stats")) {
        stats.peaks.peak_rss_bytes = perfvar_analysis::telemetry::peak_rss_bytes();
        eprint!("{}", stats.render_table());
    }
}

/// The analysis of the trace file at `path`, computed as the daemon
/// computes it (`analyze_path_observed`, then `--refine` steps) for every
/// format, honouring --function/--multiplier/--threads/--read-buffer/
/// --no-mmap and --partial for damaged archives.
fn analysis_of_path(
    path: &str,
    args: &ParsedArgs,
    telemetry: &Telemetry,
) -> Result<OutOfCoreAnalysis, String> {
    let options = options_of(args)?;
    let config = options.config();
    let mode = options.recovery_mode();
    let path_error = |e: PathAnalysisError| match e {
        PathAnalysisError::Trace(e) => format!("cannot read trace {path}: {e}"),
        PathAnalysisError::Analysis(e) => e.to_string(),
    };
    let mut result = analyze_path_observed(path, &config, mode, telemetry).map_err(path_error)?;
    note_threads(args, config.threads, result.meta.num_processes());
    let refine_steps: usize = args.parse_or("refine", 0).map_err(|e| e.to_string())?;
    for _ in 0..refine_steps {
        match result.refine(path, &config, mode).map_err(path_error)? {
            Some(finer) => result = finer,
            None => return Err("no finer segmentation function available".to_string()),
        }
    }
    Ok(result)
}

/// The analysis of a trace the command already loaded (for chart
/// geometry, slicing or replays), so the file is not decoded twice.
/// Same knobs as [`analysis_of_path`]; bit-identical to it.
fn analysis_of_trace(
    trace: &Trace,
    args: &ParsedArgs,
    telemetry: &Telemetry,
) -> Result<Analysis, String> {
    let config = options_of(args)?.config();
    note_threads(args, config.threads, trace.num_processes());
    let mut analysis = analyze_observed(trace, &config, telemetry).map_err(|e| e.to_string())?;
    let refine_steps: usize = args.parse_or("refine", 0).map_err(|e| e.to_string())?;
    for _ in 0..refine_steps {
        match analysis.refine(trace, &config) {
            Some(finer) => analysis = finer,
            None => return Err("no finer segmentation function available".to_string()),
        }
    }
    Ok(analysis)
}

fn print_phases(sos: &perfvar_analysis::SosMatrix) {
    let detection = perfvar_analysis::phases::PhaseDetection::detect_durations(
        sos,
        perfvar_analysis::phases::PhaseConfig::default(),
    );
    println!("  duration phases: {}", detection.len());
    for (i, phase) in detection.phases.iter().enumerate() {
        println!(
            "    phase {i}: ordinals {}..{} mean {:.0} ticks",
            phase.start, phase.end, phase.mean
        );
    }
}

/// `perfvar analyze <trace>`
pub fn analyze(argv: Vec<String>) -> Result<(), String> {
    const SPEC: ArgSpec = ArgSpec {
        valued: &["function", "refine", "multiplier", "threads", "read-buffer"],
        flags: &[
            "json",
            "auto-refine",
            "calltree",
            "waitstates",
            "phases",
            "partial",
            "no-mmap",
            "stats",
            "stats-json",
        ],
    };
    let args = SPEC.parse(argv).map_err(|e| e.to_string())?;
    let path = args.positional(0).ok_or("missing trace path")?;
    // Replay-based extras need the whole trace in memory; everything
    // else analyzes the file exactly as the daemon does.
    let trace = if args.has("auto-refine") || args.has("waitstates") || args.has("calltree") {
        Some(load_trace(path)?)
    } else {
        None
    };
    let telemetry = telemetry_of(&args, trace.is_none());
    let (analysis, meta, failures) = match &trace {
        None => {
            let result = analysis_of_path(path, &args, &telemetry);
            if telemetry.is_enabled() && std::io::stderr().is_terminal() {
                eprint!("\r\x1b[2K"); // clear the progress line
            }
            let result = result?;
            (result.analysis, result.meta, result.failures)
        }
        Some(trace) if args.has("auto-refine") => {
            let config = AnalysisConfig::default();
            let (sharp, steps) = perfvar_analysis::findings::auto_refine(trace, &config, 8)
                .map_err(|e| e.to_string())?;
            if steps > 0 && !args.has("json") {
                println!(
                    "auto-refined {steps} step(s) to {:?}",
                    trace.registry().function_name(sharp.function)
                );
            }
            (sharp, TraceMeta::of(trace), Vec::new())
        }
        Some(trace) => (
            analysis_of_trace(trace, &args, &telemetry)?,
            TraceMeta::of(trace),
            Vec::new(),
        ),
    };
    let stats = telemetry.snapshot();
    let stats_table = || print_stats(&args, stats.clone());
    if args.has("stats-json") && !args.has("json") {
        print_json(stats.as_ref().expect("--stats-json enables telemetry"))?;
        stats_table();
        return Ok(());
    }
    if args.has("json") {
        /// The `--json --stats-json` document.
        #[derive(Serialize)]
        struct WithStats<'a> {
            analysis: &'a Analysis,
            stats: &'a PipelineStats,
        }
        match &stats {
            Some(stats) if args.has("stats-json") => print_json(&WithStats {
                analysis: &analysis,
                stats,
            })?,
            _ => print_json(&analysis)?,
        }
        stats_table();
        return Ok(());
    }
    print!("{}", analysis.render_text_meta(&meta));
    if !failures.is_empty() {
        println!(
            "  PARTIAL RESULT: {}/{} ranks recovered; lost streams:",
            meta.num_processes() - failures.len(),
            meta.num_processes()
        );
        for failure in &failures {
            println!("    {}: {}", failure.process, failure.error);
        }
    }
    if args.has("phases") {
        print_phases(&analysis.sos());
    }
    if let Some(trace) = &trace {
        print_replays(trace, &args)?;
    }
    let findings = perfvar_analysis::findings::findings_meta(&meta, &analysis);
    if !findings.is_empty() {
        println!("  findings (ranked by severity):");
        for f in &findings {
            println!("    [{:>4.0}%] {}", f.severity * 100.0, f.description);
        }
    }
    stats_table();
    Ok(())
}

/// The replay-based `analyze` extras: `--waitstates` and `--calltree`.
fn print_replays(trace: &Trace, args: &ParsedArgs) -> Result<(), String> {
    let threads: usize = args.parse_or("threads", 0).map_err(|e| e.to_string())?;
    if args.has("waitstates") {
        let replayed = perfvar_analysis::parallel::replay_all_parallel(trace, threads);
        let ws = perfvar_analysis::waitstates::WaitStateAnalysis::compute(trace, &replayed);
        println!(
            "  wait states: {} total classified",
            trace.clock().format_duration(ws.total())
        );
        if let Some(victim) = ws.most_waiting_process() {
            let w = ws.process(victim);
            println!(
                "    most waiting: {} ({} at collectives in {} ops, {} late-sender in {} msgs)",
                victim,
                trace.clock().format_duration(w.wait_at_collective),
                w.collective_waits,
                trace.clock().format_duration(w.late_sender),
                w.late_sender_count
            );
        }
    }
    if args.has("calltree") {
        let replayed = perfvar_analysis::parallel::replay_all_parallel(trace, threads);
        let tree = perfvar_analysis::callpath::CallTree::build(&replayed);
        println!("  call tree (by aggregated inclusive time):");
        for line in tree.render_text(trace.registry(), 5).lines() {
            println!("    {line}");
        }
    }
    Ok(())
}

/// `perfvar render <trace> --chart <kind>`: the timeline and the
/// communication matrix come from the chart fold and the message
/// matcher, the heatmaps from the analysis of the file.
pub fn render(argv: Vec<String>) -> Result<(), String> {
    const SPEC: ArgSpec = ArgSpec {
        valued: &[
            "chart",
            "out",
            "function",
            "refine",
            "multiplier",
            "threads",
            "width",
        ],
        flags: &["ansi", "stats"],
    };
    let args = SPEC.parse(argv).map_err(|e| e.to_string())?;
    let path = args.positional(0).ok_or("missing trace path")?;
    let chart_kind = args.value("chart").unwrap_or("timeline");
    let metric_name = chart_kind.strip_prefix("counter:");
    if !matches!(chart_kind, "timeline" | "sos" | "comm" | "comm-bytes") && metric_name.is_none() {
        return Err(format!(
            "unknown chart {chart_kind:?}; use timeline, sos, comm, comm-bytes, \
             or counter:<METRIC>"
        ));
    }
    let config = options_of(&args)?.config();
    let telemetry = telemetry_of(&args, false);
    let read_error = |e| format!("cannot read trace {path}: {e}");
    let write_svg = |svg: &str| -> Result<(), String> {
        match args.value("out") {
            Some(out) => {
                std::fs::write(out, svg).map_err(|e| format!("cannot write {out}: {e}"))?;
                println!("wrote {out}");
            }
            None => println!("{svg}"),
        }
        Ok(())
    };

    // The comm matrix has its own geometry; handle it before the
    // timeline-chart path.
    if chart_kind == "comm" || chart_kind == "comm-bytes" {
        let activity = activity_of_path(path, &config, None, &telemetry).map_err(read_error)?;
        let comm = MessageAnalysis::match_endpoints(&activity.endpoints)
            .comm_matrix(activity.meta.num_processes());
        let quantity = if chart_kind == "comm" {
            CommQuantity::Count
        } else {
            CommQuantity::Bytes
        };
        write_svg(&render_comm_matrix_svg_meta(
            &activity.meta,
            &comm,
            quantity,
            720,
        ))?;
        print_stats(&args, telemetry.snapshot());
        return Ok(());
    }

    let chart = match metric_name {
        None if chart_kind == "timeline" => {
            // The first fold finds the time axis the buckets divide.
            let opts = TimelineOptions::default();
            let axis = activity_of_path(path, &config, None, &telemetry).map_err(read_error)?;
            let activity = fold_on_axis(path, &config, &axis.meta, opts.buckets, &telemetry)
                .map_err(read_error)?;
            let messages = MessageAnalysis::match_endpoints(&activity.endpoints);
            function_timeline_of(&activity, &opts, Some(&messages))
        }
        None => {
            let result = analysis_of_path(path, &args, &telemetry)?;
            sos_heatmap_meta(
                &result.meta,
                &result.analysis,
                TimelineOptions::default().buckets,
            )
        }
        Some(metric_name) => {
            let OutOfCoreAnalysis { analysis, meta, .. } =
                analysis_of_path(path, &args, &telemetry)?;
            let metric = meta
                .registry
                .metric_by_name(metric_name)
                .ok_or_else(|| format!("metric {metric_name:?} not in trace"))?;
            let counter = analysis
                .counters
                .iter()
                .find(|c| c.metric == metric)
                .ok_or("counter analysis missing")?;
            counter_heatmap_meta(&meta, &analysis, &counter.matrix)
        }
    };

    if args.has("ansi") {
        let width: usize = args.parse_or("width", 100).map_err(|e| e.to_string())?;
        print!(
            "{}",
            render_ansi(
                &chart,
                &AnsiOptions {
                    width,
                    ..AnsiOptions::default()
                }
            )
        );
    } else {
        write_svg(&render_svg(&chart, &SvgOptions::default()))?;
    }
    print_stats(&args, telemetry.snapshot());
    Ok(())
}

/// `perfvar report <trace> --out-dir DIR` — text report plus every chart.
/// Two passes over the file and no trace in memory: the analysis
/// ([`analysis_of_path`]), then the chart fold on its time axis.
pub fn report(argv: Vec<String>) -> Result<(), String> {
    const SPEC: ArgSpec = ArgSpec {
        valued: &["out-dir", "function", "refine", "multiplier", "threads"],
        flags: &["stats"],
    };
    let args = SPEC.parse(argv).map_err(|e| e.to_string())?;
    let path = args.positional(0).ok_or("missing trace path")?;
    let out_dir = args.value("out-dir").ok_or("missing --out-dir DIR")?;
    let telemetry = telemetry_of(&args, false);
    let config = options_of(&args)?.config();
    let result = analysis_of_path(path, &args, &telemetry)?;
    let buckets = TimelineOptions::default().buckets;
    let mut activity = fold_on_axis(path, &config, &result.meta, buckets, &telemetry)
        .map_err(|e| format!("cannot read trace {path}: {e}"))?;
    let OutOfCoreAnalysis { analysis, meta, .. } = result;
    let messages = MessageAnalysis::match_endpoints(&std::mem::take(&mut activity.endpoints));
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    let dir = Path::new(out_dir);

    let write = |name: &str, data: &str| -> Result<(), String> {
        let p = dir.join(name);
        std::fs::write(&p, data).map_err(|e| format!("cannot write {}: {e}", p.display()))?;
        println!("wrote {}", p.display());
        Ok(())
    };
    // Streamed through a buffer: the analysis and the HTML report are the
    // largest documents.
    let write_streamed =
        |name: &str,
         body: &dyn Fn(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>|
         -> Result<(), String> {
            let p = dir.join(name);
            let failed = |e: std::io::Error| format!("cannot write {}: {e}", p.display());
            let mut out = std::io::BufWriter::new(std::fs::File::create(&p).map_err(failed)?);
            body(&mut out).and_then(|()| out.flush()).map_err(failed)?;
            println!("wrote {}", p.display());
            Ok(())
        };

    let mut report_text = analysis.render_text_meta(&meta);
    let findings = perfvar_analysis::findings::findings_meta(&meta, &analysis);
    if !findings.is_empty() {
        report_text.push_str("  findings (ranked by severity):\n");
        for f in &findings {
            report_text.push_str(&format!(
                "    [{:>4.0}%] {}\n",
                f.severity * 100.0,
                f.description
            ));
        }
    }
    write("report.txt", &report_text)?;
    write(
        "findings.json",
        &serde_json::to_string_pretty(&findings)
            .map_err(|e| format!("serialisation failed: {e}"))?,
    )?;
    write_streamed("analysis.json", &|out| {
        serde_json::to_writer_pretty(out, &analysis).map_err(std::io::Error::other)
    })?;
    let charts = ReportCharts::render(&activity, &analysis, &messages);
    drop((activity, messages));
    for (file, svg) in charts.files() {
        write(file, svg)?;
    }

    // Single-file HTML report bundling text, findings and every chart.
    let mut html = HtmlReport::new(format!("perfvar report — {}", meta.name));
    html.heading("Hotspot report").text(&report_text);
    if !findings.is_empty() {
        html.heading("Findings (ranked by severity)").list(
            findings
                .iter()
                .map(|f| format!("[{:.0}%] {}", f.severity * 100.0, f.description))
                .collect(),
        );
    }
    charts.into_html(&mut html);
    write_streamed("report.html", &|out| html.write_to(out))?;
    print_stats(&args, telemetry.snapshot());
    Ok(())
}

/// Analyses one run for comparison purposes, returning the analysis
/// plus the function-name table (index = function id) the per-function
/// deltas are matched on.
fn comparable_analysis(path: &str, args: &ParsedArgs) -> Result<(Analysis, Vec<String>), String> {
    let result = analysis_of_path(path, args, &Telemetry::noop())?;
    let names = result
        .meta
        .registry
        .functions()
        .iter()
        .map(|f| f.name.clone())
        .collect();
    Ok((result.analysis, names))
}

fn threshold_of(args: &ParsedArgs) -> Result<f64, String> {
    let threshold: f64 = args
        .parse_or("threshold", perfvar_analysis::DEFAULT_NOISE_THRESHOLD)
        .map_err(|e| e.to_string())?;
    if !threshold.is_finite() || threshold < 0.0 {
        return Err("--threshold must be a non-negative number".to_string());
    }
    Ok(threshold)
}

/// `perfvar compare <before> <after>` — run comparison: per-rank and
/// per-function deltas plus the noise-aware verdict.
pub fn compare(argv: Vec<String>) -> Result<(), String> {
    const SPEC: ArgSpec = ArgSpec {
        valued: &["function", "multiplier", "threads", "threshold"],
        flags: &["json", "partial"],
    };
    let args = SPEC.parse(argv).map_err(|e| e.to_string())?;
    let before_path = args.positional(0).ok_or("missing baseline trace path")?;
    let after_path = args.positional(1).ok_or("missing candidate trace path")?;
    let threshold = threshold_of(&args)?;
    let (before, before_names) = comparable_analysis(before_path, &args)?;
    let (after, after_names) = comparable_analysis(after_path, &args)?;
    let comparison = perfvar_analysis::RunComparison::compare_analyses(
        &before,
        &before_names,
        &after,
        &after_names,
    );
    let verdict = comparison.verdict(threshold);
    if args.has("json") {
        /// The `compare --json` document.
        #[derive(Serialize)]
        struct CompareDoc<'a> {
            comparison: &'a RunComparison,
            verdict: &'a Verdict,
        }
        print_json(&CompareDoc {
            comparison: &comparison,
            verdict: &verdict,
        })?;
    } else {
        print!("{}", comparison.render_text());
        println!("verdict: {verdict}");
        if comparison.imbalance_change() < -0.05 {
            println!("→ the candidate run is better balanced");
        } else if comparison.imbalance_change() > 0.05 {
            println!("→ the candidate run is WORSE balanced");
        }
    }
    Ok(())
}

/// `perfvar bisect <run0> <run1> … <runN>` — finds the first regressing
/// run in an ordered sequence (run 0 = known-good baseline) in O(log n)
/// base-vs-candidate comparisons. `--reps N` repeats the whole walk N
/// times with fresh analyses and errors unless every repetition agrees
/// — analysis is deterministic, so a disagreement means the archives
/// changed mid-walk.
pub fn bisect(argv: Vec<String>) -> Result<(), String> {
    const SPEC: ArgSpec = ArgSpec {
        valued: &["function", "multiplier", "threads", "threshold", "reps"],
        flags: &["json", "partial"],
    };
    let args = SPEC.parse(argv).map_err(|e| e.to_string())?;
    let runs = args.positionals();
    if runs.len() < 2 {
        return Err("bisect needs at least two runs: <known-good> <candidates…>".to_string());
    }
    let threshold = threshold_of(&args)?;
    let reps: usize = args.parse_or("reps", 1).map_err(|e| e.to_string())?;
    if reps == 0 {
        return Err("--reps must be at least 1".to_string());
    }

    let mut agreed: Option<perfvar_analysis::BisectOutcome> = None;
    for rep in 0..reps {
        // Each run is analysed at most once per repetition, lazily: a
        // walk over n runs costs O(log n) analyses, not n.
        let mut memo: Vec<Option<(Analysis, Vec<String>)>> =
            (0..runs.len()).map(|_| None).collect();
        let analysis_of_run = |memo: &mut Vec<Option<(Analysis, Vec<String>)>>,
                               i: usize|
         -> Result<(Analysis, Vec<String>), String> {
            if memo[i].is_none() {
                memo[i] = Some(comparable_analysis(&runs[i], &args)?);
            }
            Ok(memo[i].clone().expect("just filled"))
        };
        let base = analysis_of_run(&mut memo, 0)?;
        let outcome = perfvar_analysis::bisect_first_regression(runs.len(), |i| {
            let cand = analysis_of_run(&mut memo, i)?;
            let comparison = perfvar_analysis::RunComparison::compare_analyses(
                &base.0, &base.1, &cand.0, &cand.1,
            );
            let verdict = comparison.verdict(threshold);
            if !args.has("json") {
                eprintln!(
                    "  probe {} ({}): {verdict}",
                    i,
                    Path::new(&runs[i])
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_else(|| runs[i].to_string())
                );
            }
            Ok::<bool, String>(verdict.class == perfvar_analysis::VerdictClass::Regression)
        })?;
        match &agreed {
            None => agreed = Some(outcome),
            Some(previous) if previous.first_bad == outcome.first_bad => {}
            Some(previous) => {
                return Err(format!(
                    "unstable verdict: repetition {} found {:?}, earlier repetitions found {:?} \
                     — did the archives change mid-walk?",
                    rep + 1,
                    outcome.first_bad,
                    previous.first_bad
                ));
            }
        }
    }
    let outcome = agreed.expect("reps >= 1");

    if args.has("json") {
        /// The `bisect --json` document.
        #[derive(Serialize)]
        struct BisectDoc<'a> {
            runs: usize,
            first_bad: Option<usize>,
            first_bad_path: Option<&'a str>,
            comparisons: usize,
            reps: usize,
            threshold: f64,
        }
        return print_json(&BisectDoc {
            runs: runs.len(),
            first_bad: outcome.first_bad,
            first_bad_path: outcome.first_bad.map(|i| runs[i].as_str()),
            comparisons: outcome.comparisons,
            reps,
            threshold,
        });
    }
    match outcome.first_bad {
        Some(i) => println!(
            "first regression at run {i} of {}: {} ({} comparisons{})",
            runs.len(),
            runs[i],
            outcome.comparisons,
            if reps > 1 {
                format!(", unanimous over {reps} repetitions")
            } else {
                String::new()
            }
        ),
        None => println!(
            "no regression: the last run is within ±{:.0}% of the baseline ({} comparison)",
            threshold * 100.0,
            outcome.comparisons
        ),
    }
    Ok(())
}

/// Decodes the diagnosis knobs (`--clusters/--cluster-threshold/
/// --max-clusters`) through the shared codec the daemon's query
/// parameters use too, so the CLI and HTTP dialects cannot drift.
fn diagnose_options_of(args: &ParsedArgs) -> Result<DiagnoseOptions, String> {
    let mut options = DiagnoseOptions::default();
    for &key in DiagnoseOptions::KEYS {
        match args.value(key) {
            Some(v) => options.absorb(key, Some(v)),
            None if args.has(key) => options.absorb(key, None),
            None => continue,
        }
        .map_err(|e| format!("--{e}"))?;
    }
    Ok(options)
}

/// `perfvar diagnose <trace>` — automatic diagnosis: cluster-summarised
/// heatmap plus cause-labelled findings.
pub fn diagnose(argv: Vec<String>) -> Result<(), String> {
    const SPEC: ArgSpec = ArgSpec {
        valued: &[
            "clusters",
            "cluster-threshold",
            "max-clusters",
            "function",
            "multiplier",
            "threads",
            "read-buffer",
        ],
        flags: &["json", "partial", "no-mmap", "no-heatmap"],
    };
    let args = SPEC.parse(argv).map_err(|e| e.to_string())?;
    let path = args.positional(0).ok_or("missing trace path")?;
    let config = diagnose_options_of(&args)?.config();
    let OutOfCoreAnalysis { analysis, meta, .. } =
        analysis_of_path(path, &args, &Telemetry::noop())?;
    let diagnosis = diagnose_meta(&meta, &analysis, &config);
    if args.has("json") {
        return print_json(&diagnosis);
    }
    if !args.has("no-heatmap") && !diagnosis.clusters.is_empty() {
        let chart = cluster_heatmap(&meta, &analysis, &diagnosis, 64);
        print!("{}", render_ansi(&chart, &AnsiOptions::default()));
        println!();
    }
    print!("{}", diagnosis.render_text());
    Ok(())
}

/// `perfvar slice <in> <out>` — crop a trace to a time window or to one
/// segment (the paper's "record only the slow iteration" workflow).
pub fn slice(argv: Vec<String>) -> Result<(), String> {
    const SPEC: ArgSpec = ArgSpec {
        valued: &[
            "from-tick",
            "to-tick",
            "segment",
            "function",
            "multiplier",
            "threads",
        ],
        flags: &[],
    };
    let args = SPEC.parse(argv).map_err(|e| e.to_string())?;
    let input = args.positional(0).ok_or("missing input path")?;
    let output = args.positional(1).ok_or("missing output path")?;
    let trace = load_trace(input)?;

    let sliced = if let Some(segment) = args
        .parse_value::<usize>("segment")
        .map_err(|e| e.to_string())?
    {
        // Segment by the dominant function (or the override) and cut the
        // N-th invocation window.
        let analysis = analysis_of_trace(&trace, &args, &Telemetry::noop())?;
        perfvar_trace::slice::slice_invocation(&trace, analysis.function, segment)
            .ok_or_else(|| format!("no segment #{segment} exists"))?
            .map_err(|e| format!("slice failed: {e}"))?
    } else {
        let from = args
            .parse_value::<u64>("from-tick")
            .map_err(|e| e.to_string())?
            .ok_or("need --from-tick/--to-tick or --segment")?;
        let to = args
            .parse_value::<u64>("to-tick")
            .map_err(|e| e.to_string())?
            .ok_or("need --to-tick")?;
        if from > to {
            return Err("--from-tick must not exceed --to-tick".to_string());
        }
        perfvar_trace::slice::slice(
            &trace,
            perfvar_trace::Timestamp(from),
            perfvar_trace::Timestamp(to),
        )
        .map_err(|e| format!("slice failed: {e}"))?
    };
    write_trace_file(&sliced, output).map_err(|e| format!("cannot write {output}: {e}"))?;
    println!(
        "wrote {output}: {} events in [{} .. {}]",
        sliced.num_events(),
        sliced.begin(),
        sliced.end()
    );
    Ok(())
}

/// `perfvar convert <in> <out>`
pub fn convert(argv: Vec<String>) -> Result<(), String> {
    const SPEC: ArgSpec = ArgSpec {
        valued: &[],
        flags: &[],
    };
    let args = SPEC.parse(argv).map_err(|e| e.to_string())?;
    let input = args.positional(0).ok_or("missing input path")?;
    let output = args.positional(1).ok_or("missing output path")?;
    if args.positionals().len() > 2 {
        return Err("convert takes exactly two paths".to_string());
    }
    let trace = load_trace(input)?;
    write_trace_file(&trace, output).map_err(|e| format!("cannot write {output}: {e}"))?;
    println!("converted {input} -> {output}");
    Ok(())
}

/// `perfvar serve [--addr HOST:PORT] [--workers N] [--threads N]
/// [--cache-entries N] [--cache-dir DIR] [--store-dir DIR]`
///
/// Runs the analysis daemon until killed. The listening address is
/// printed (and flushed) before serving starts so scripts can scrape
/// the resolved port when binding `:0`.
pub fn serve(argv: Vec<String>) -> Result<(), String> {
    const SPEC: ArgSpec = ArgSpec {
        valued: &[
            "addr",
            "workers",
            "threads",
            "cache-entries",
            "cache-dir",
            "store-dir",
        ],
        flags: &[],
    };
    let args = SPEC.parse(argv).map_err(|e| e.to_string())?;
    if let Some(extra) = args.positional(0) {
        return Err(format!(
            "serve takes no positional arguments (got {extra:?})"
        ));
    }
    let addr = args.value("addr").unwrap_or("127.0.0.1:7787").to_string();
    let mut options = perfvar_server::ServeOptions::default();
    options.workers = args
        .parse_or("workers", options.workers)
        .map_err(|e| e.to_string())?;
    options.threads = args
        .parse_or("threads", options.threads)
        .map_err(|e| e.to_string())?;
    options.cache_entries = args
        .parse_or("cache-entries", options.cache_entries)
        .map_err(|e| e.to_string())?;
    options.cache_dir = args.value("cache-dir").map(std::path::PathBuf::from);
    options.store_dir = args.value("store-dir").map(std::path::PathBuf::from);

    let server = perfvar_server::Server::bind(&addr, options).map_err(|e| e.to_string())?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    println!("perfvar serve: listening on http://{local}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("perfvar-cli-tests").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn generate_info_analyze_round_trip() {
        let dir = tmp_dir("gia");
        let trace_path = dir.join("t.pvt");
        let trace_str = trace_path.to_str().unwrap();
        generate(argv(&[
            "outlier",
            "--out",
            trace_str,
            "--ranks",
            "4",
            "--iterations",
            "5",
        ]))
        .unwrap();
        info(argv(&[trace_str])).unwrap();
        analyze(argv(&[trace_str])).unwrap();
        analyze(argv(&[trace_str, "--json"])).unwrap();
    }

    #[test]
    fn analyze_reference_and_threads_flags() {
        let dir = tmp_dir("ref-threads");
        let trace_path = dir.join("t.pvt");
        let ts = trace_path.to_str().unwrap();
        generate(argv(&[
            "outlier",
            "--out",
            ts,
            "--ranks",
            "4",
            "--iterations",
            "5",
        ]))
        .unwrap();
        analyze(argv(&[ts, "--threads", "2"])).unwrap();
        analyze(argv(&[ts, "--threads", "2", "--waitstates", "--calltree"])).unwrap();
        let err = analyze(argv(&[ts, "--threads", "zap"])).unwrap_err();
        assert!(err.contains("invalid"));
        // Degenerate requests are normalised instead of rejected:
        // 0 resolves to the hardware parallelism, and a request beyond
        // the rank count caps at one worker per rank (here 4 ranks).
        analyze(argv(&[ts, "--threads", "0"])).unwrap();
        analyze(argv(&[ts, "--threads", "99"])).unwrap();
    }

    #[test]
    fn analyze_stats_flags() {
        let dir = tmp_dir("stats-flags");
        let trace_path = dir.join("t.pvt");
        let ts = trace_path.to_str().unwrap();
        generate(argv(&[
            "outlier",
            "--out",
            ts,
            "--ranks",
            "4",
            "--iterations",
            "5",
        ]))
        .unwrap();
        // All stats/report combinations run on both pipelines' routes.
        analyze(argv(&[ts, "--stats"])).unwrap();
        analyze(argv(&[ts, "--stats-json"])).unwrap();
        analyze(argv(&[ts, "--stats-json", "--json"])).unwrap();
        let arch = dir.join("t.pvta");
        convert(argv(&[ts, arch.to_str().unwrap()])).unwrap();
        let a = arch.to_str().unwrap();
        analyze(argv(&[a, "--stats"])).unwrap();
        analyze(argv(&[a, "--stats-json"])).unwrap();
        analyze(argv(&[a, "--stats-json", "--json"])).unwrap();
    }

    #[test]
    fn analyze_io_knob_flags() {
        let dir = tmp_dir("io-knobs");
        let trace_path = dir.join("t.pvt");
        let ts = trace_path.to_str().unwrap();
        generate(argv(&[
            "outlier",
            "--out",
            ts,
            "--ranks",
            "4",
            "--iterations",
            "5",
        ]))
        .unwrap();
        let arch = dir.join("t.pvta");
        convert(argv(&[ts, arch.to_str().unwrap()])).unwrap();
        let a = arch.to_str().unwrap();
        // Pure performance knobs: every combination must analyze fine.
        analyze(argv(&[a, "--read-buffer", "4096"])).unwrap();
        analyze(argv(&[a, "--no-mmap"])).unwrap();
        analyze(argv(&[a, "--no-mmap", "--read-buffer", "512"])).unwrap();
        let err = analyze(argv(&[a, "--read-buffer", "0"])).unwrap_err();
        assert!(err.contains("read-buffer"));
        let err = analyze(argv(&[a, "--read-buffer", "many"])).unwrap_err();
        assert!(err.contains("invalid"));
    }

    #[test]
    fn generate_requires_out() {
        let err = generate(argv(&["balanced"])).unwrap_err();
        assert!(err.contains("--out"));
    }

    #[test]
    fn generate_unknown_workload() {
        let err = generate(argv(&["bogus", "--out", "/tmp/x.pvt"])).unwrap_err();
        assert!(err.contains("available"));
    }

    #[test]
    fn archive_round_trip_via_convert() {
        let dir = tmp_dir("archive");
        let a = dir.join("a.pvt");
        let arch = dir.join("a.pvta");
        let c = dir.join("c.pvt");
        generate(argv(&[
            "balanced",
            "--out",
            a.to_str().unwrap(),
            "--ranks",
            "5",
            "--iterations",
            "4",
        ]))
        .unwrap();
        convert(argv(&[a.to_str().unwrap(), arch.to_str().unwrap()])).unwrap();
        assert!(arch.join("anchor.pvtd").exists());
        assert!(arch.join("stream-4.pvts").exists());
        convert(argv(&[arch.to_str().unwrap(), c.to_str().unwrap()])).unwrap();
        assert_eq!(read_trace_file(&a).unwrap(), read_trace_file(&c).unwrap());
        info(argv(&[arch.to_str().unwrap()])).unwrap();
    }

    #[test]
    fn convert_pvt_to_text_and_back() {
        let dir = tmp_dir("convert");
        let a = dir.join("a.pvt");
        let b = dir.join("b.pvtx");
        let c = dir.join("c.pvt");
        generate(argv(&[
            "balanced",
            "--out",
            a.to_str().unwrap(),
            "--ranks",
            "3",
            "--iterations",
            "4",
        ]))
        .unwrap();
        convert(argv(&[a.to_str().unwrap(), b.to_str().unwrap()])).unwrap();
        convert(argv(&[b.to_str().unwrap(), c.to_str().unwrap()])).unwrap();
        let ta = read_trace_file(&a).unwrap();
        let tc = read_trace_file(&c).unwrap();
        assert_eq!(ta, tc);
    }

    #[test]
    fn render_svg_and_ansi() {
        let dir = tmp_dir("render");
        let trace_path = dir.join("t.pvt");
        let ts = trace_path.to_str().unwrap();
        generate(argv(&[
            "outlier",
            "--out",
            ts,
            "--ranks",
            "4",
            "--iterations",
            "6",
        ]))
        .unwrap();
        let svg_path = dir.join("x.svg");
        render(argv(&[
            ts,
            "--chart",
            "sos",
            "--out",
            svg_path.to_str().unwrap(),
        ]))
        .unwrap();
        let svg = std::fs::read_to_string(&svg_path).unwrap();
        assert!(svg.starts_with("<svg"));
        render(argv(&[ts, "--chart", "timeline", "--ansi"])).unwrap();
        let err = render(argv(&[ts, "--chart", "bogus"])).unwrap_err();
        assert!(err.contains("unknown chart"));
    }

    #[test]
    fn render_comm_matrix() {
        let dir = tmp_dir("render-comm");
        let trace_path = dir.join("t.pvt");
        let ts = trace_path.to_str().unwrap();
        generate(argv(&[
            "cosmo-specs-fd4",
            "--out",
            ts,
            "--ranks",
            "6",
            "--iterations",
            "1",
        ]))
        .unwrap();
        for chart in ["comm", "comm-bytes"] {
            let out = dir.join(format!("{chart}.svg"));
            render(argv(&[
                ts,
                "--chart",
                chart,
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(std::fs::read_to_string(&out)
                .unwrap()
                .contains("Communication matrix"));
        }
    }

    #[test]
    fn report_writes_all_artifacts() {
        let dir = tmp_dir("report");
        let trace_path = dir.join("t.pvt");
        let ts = trace_path.to_str().unwrap();
        generate(argv(&[
            "cosmo-specs-fd4",
            "--out",
            ts,
            "--ranks",
            "6",
            "--iterations",
            "2",
        ]))
        .unwrap();
        let out = dir.join("out");
        report(argv(&[ts, "--out-dir", out.to_str().unwrap()])).unwrap();
        for f in [
            "report.txt",
            "report.html",
            "analysis.json",
            "findings.json",
            "timeline.svg",
            "sos.svg",
        ] {
            assert!(out.join(f).exists(), "{f}");
        }
        // The FD4 workload has a PAPI counter → a counter SVG exists.
        assert!(out.join("counter-papi-tot-cyc.svg").exists());
    }

    /// Regression: counter files are named from the lowercased metric
    /// name with non-alphanumerics as `-`, so `L2_MISS` and `l2-miss`
    /// used to share `counter-l2-miss.svg` and the second chart
    /// overwrote the first.
    #[test]
    fn report_keeps_colliding_counter_names_apart() {
        use perfvar_sim::prelude::*;
        use perfvar_trace::{Clock, FunctionRole, MetricMode};
        let dir = tmp_dir("report-counter-collision");
        let mut b = SpecBuilder::new(
            "collide",
            Clock::microseconds(),
            CommParams::cluster_defaults(),
        );
        let iter_f = b.function("iteration", FunctionRole::Compute);
        let barrier_f = b.function("MPI_Barrier", FunctionRole::MpiCollective);
        let upper = b.metric("L2_MISS", MetricMode::Delta, "misses");
        let lower = b.metric("l2-miss", MetricMode::Delta, "misses");
        for rank in 0..3u64 {
            let mut p = Program::new();
            for k in 0..4 {
                p.enter(iter_f);
                p.compute(1_000 + rank * 100 + k * 10);
                p.emit_metric(upper, 10 + rank);
                p.emit_metric(lower, 1_000 * (rank + 1));
                p.barrier(barrier_f);
                p.leave(iter_f);
            }
            b.add_rank(p);
        }
        let trace = simulate(&b.build()).unwrap();
        let t = dir.join("t.pvt");
        perfvar_trace::format::write_trace_file(&trace, &t).unwrap();
        let out = dir.join("out");
        let _ = std::fs::remove_dir_all(&out);
        report(argv(&[
            t.to_str().unwrap(),
            "--out-dir",
            out.to_str().unwrap(),
            "--function",
            "iteration",
        ]))
        .unwrap();
        let first = std::fs::read_to_string(out.join("counter-l2-miss.svg")).unwrap();
        let second = std::fs::read_to_string(out.join("counter-l2-miss-1.svg")).unwrap();
        assert!(
            first.contains("L2_MISS"),
            "first file holds the first metric"
        );
        assert!(
            second.contains("l2-miss"),
            "second file holds the second metric"
        );
        let counter_files = std::fs::read_dir(&out)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy().starts_with("counter-")
            })
            .count();
        assert_eq!(counter_files, 2);
    }

    #[test]
    fn analyze_refine_steps() {
        let dir = tmp_dir("refine");
        let trace_path = dir.join("t.pvt");
        let ts = trace_path.to_str().unwrap();
        generate(argv(&[
            "cosmo-specs-fd4",
            "--out",
            ts,
            "--ranks",
            "4",
            "--iterations",
            "2",
        ]))
        .unwrap();
        analyze(argv(&[ts, "--refine", "1"])).unwrap();
        // Far too many refinement steps must fail gracefully.
        let err = analyze(argv(&[ts, "--refine", "99"])).unwrap_err();
        assert!(err.contains("no finer"));
    }

    #[test]
    fn analyze_archive_routes_out_of_core() {
        let dir = tmp_dir("ooc-analyze");
        let pvt = dir.join("t.pvt");
        let arch = dir.join("t.pvta");
        generate(argv(&[
            "outlier",
            "--out",
            pvt.to_str().unwrap(),
            "--ranks",
            "4",
            "--iterations",
            "5",
        ]))
        .unwrap();
        convert(argv(&[pvt.to_str().unwrap(), arch.to_str().unwrap()])).unwrap();
        let a = arch.to_str().unwrap();
        // Archives stream from disk; all these knobs ride that route.
        analyze(argv(&[a])).unwrap();
        analyze(argv(&[a, "--json", "--threads", "2"])).unwrap();
        analyze(argv(&[a, "--phases", "--multiplier", "2"])).unwrap();
        // Replay-based extras load the trace into memory.
        analyze(argv(&[a, "--waitstates", "--calltree"])).unwrap();
    }

    #[test]
    fn analyze_truncated_archive_strict_vs_partial() {
        let dir = tmp_dir("ooc-partial");
        let pvt = dir.join("t.pvt");
        let arch = dir.join("t.pvta");
        generate(argv(&[
            "outlier",
            "--out",
            pvt.to_str().unwrap(),
            "--ranks",
            "4",
            "--iterations",
            "5",
        ]))
        .unwrap();
        convert(argv(&[pvt.to_str().unwrap(), arch.to_str().unwrap()])).unwrap();
        // Chop the tail off one rank's stream file.
        let stream = arch.join("stream-2.pvts");
        let len = std::fs::metadata(&stream).unwrap().len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&stream)
            .unwrap();
        file.set_len(len - 7).unwrap();
        let a = arch.to_str().unwrap();
        // Strict (default) fails with the typed rank-and-offset error...
        let err = analyze(argv(&[a])).unwrap_err();
        assert!(
            err.contains("P2") && err.contains("corrupt at byte"),
            "{err}"
        );
        // ...while --partial recovers the other ranks.
        analyze(argv(&[a, "--partial"])).unwrap();
    }

    #[test]
    fn render_and_report_from_archive() {
        let dir = tmp_dir("ooc-render");
        let pvt = dir.join("t.pvt");
        let arch = dir.join("t.pvta");
        generate(argv(&[
            "cosmo-specs-fd4",
            "--out",
            pvt.to_str().unwrap(),
            "--ranks",
            "4",
            "--iterations",
            "2",
        ]))
        .unwrap();
        convert(argv(&[pvt.to_str().unwrap(), arch.to_str().unwrap()])).unwrap();
        let a = arch.to_str().unwrap();
        let svg = dir.join("sos.svg");
        render(argv(&[a, "--chart", "sos", "--out", svg.to_str().unwrap()])).unwrap();
        assert!(std::fs::read_to_string(&svg).unwrap().starts_with("<svg"));
        let out = dir.join("out");
        report(argv(&[a, "--out-dir", out.to_str().unwrap()])).unwrap();
        assert!(out.join("report.txt").exists());
        assert!(out.join("sos.svg").exists());
    }

    #[test]
    fn missing_trace_reported() {
        let err = info(argv(&["/definitely/missing.pvt"])).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn compare_two_runs() {
        let dir = tmp_dir("compare");
        let a = dir.join("imbalanced.pvt");
        let b = dir.join("balanced.pvt");
        generate(argv(&[
            "outlier",
            "--out",
            a.to_str().unwrap(),
            "--ranks",
            "4",
            "--iterations",
            "6",
        ]))
        .unwrap();
        generate(argv(&[
            "balanced",
            "--out",
            b.to_str().unwrap(),
            "--ranks",
            "4",
            "--iterations",
            "6",
        ]))
        .unwrap();
        compare(argv(&[a.to_str().unwrap(), b.to_str().unwrap()])).unwrap();
        compare(argv(&[a.to_str().unwrap(), b.to_str().unwrap(), "--json"])).unwrap();
        let err = compare(argv(&[a.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("candidate"));
        let err = compare(argv(&[
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--threshold",
            "-1",
        ]))
        .unwrap_err();
        assert!(err.contains("threshold"));
    }

    /// Writes `runs` balanced traces whose per-iteration work steps from
    /// 10k to 16k ticks at `step_at` — a +60% makespan shift the ±5%
    /// default threshold must flag. Seeds differ per run so jitter makes
    /// every run distinct.
    fn step_sequence(dir: &Path, runs: usize, step_at: usize) -> Vec<String> {
        (0..runs)
            .map(|r| {
                let path = dir.join(format!("run{r}.pvt"));
                generate(argv(&[
                    "balanced",
                    "--out",
                    path.to_str().unwrap(),
                    "--ranks",
                    "4",
                    "--iterations",
                    "6",
                    "--seed",
                    &(100 + r).to_string(),
                    "--work",
                    if r < step_at { "10000" } else { "16000" },
                ]))
                .unwrap();
                path.to_str().unwrap().to_string()
            })
            .collect()
    }

    #[test]
    fn bisect_finds_planted_regression() {
        let dir = tmp_dir("bisect");
        let runs = step_sequence(&dir, 8, 5);
        let mut args: Vec<&str> = runs.iter().map(String::as_str).collect();
        bisect(argv(&args)).unwrap();
        args.push("--json");
        args.push("--reps");
        args.push("3");
        bisect(argv(&args)).unwrap();
        // A clean sequence reports no regression.
        let clean: Vec<&str> = runs[..5].iter().map(String::as_str).collect();
        bisect(argv(&clean)).unwrap();
        // Error paths: too few runs, bad knobs.
        let err = bisect(argv(&[runs[0].as_str()])).unwrap_err();
        assert!(err.contains("at least two"));
        let err = bisect(argv(&[runs[0].as_str(), runs[1].as_str(), "--reps", "0"])).unwrap_err();
        assert!(err.contains("reps"));
    }

    #[test]
    fn diagnose_subcommand() {
        let dir = tmp_dir("diagnose");
        let t = dir.join("t.pvt");
        let ts = t.to_str().unwrap();
        generate(argv(&[
            "desync-wave",
            "--out",
            ts,
            "--ranks",
            "8",
            "--iterations",
            "10",
        ]))
        .unwrap();
        diagnose(argv(&[ts])).unwrap();
        diagnose(argv(&[ts, "--no-heatmap"])).unwrap();
        diagnose(argv(&[
            ts,
            "--clusters",
            "2",
            "--max-clusters",
            "4",
            "--json",
        ]))
        .unwrap();
        // Bad knobs are rejected with the key named, via the shared codec.
        let err = diagnose(argv(&[ts, "--cluster-threshold", "nope"])).unwrap_err();
        assert!(err.contains("cluster-threshold"), "{err}");
        let err = diagnose(argv(&[ts, "--max-clusters", "0"])).unwrap_err();
        assert!(err.contains("max-clusters"), "{err}");
    }

    #[test]
    fn slice_by_window_and_by_segment() {
        let dir = tmp_dir("slice");
        let t = dir.join("t.pvt");
        let ts = t.to_str().unwrap();
        generate(argv(&[
            "outlier",
            "--out",
            ts,
            "--ranks",
            "3",
            "--iterations",
            "6",
        ]))
        .unwrap();
        let w = dir.join("window.pvt");
        slice(argv(&[
            ts,
            w.to_str().unwrap(),
            "--from-tick",
            "0",
            "--to-tick",
            "20000",
        ]))
        .unwrap();
        let sliced = read_trace_file(&w).unwrap();
        assert!(sliced.end().0 <= 20_000);
        let s = dir.join("segment.pvt");
        slice(argv(&[ts, s.to_str().unwrap(), "--segment", "3"])).unwrap();
        let seg = read_trace_file(&s).unwrap();
        assert!(seg.num_events() > 0);
        assert!(seg.span().0 < sliced.span().0 * 3);
        // Errors: reversed window, missing args, out-of-range segment.
        let e = slice(argv(&[
            ts,
            "/tmp/x.pvt",
            "--from-tick",
            "9",
            "--to-tick",
            "1",
        ]))
        .unwrap_err();
        assert!(e.contains("must not exceed"));
        let e = slice(argv(&[ts, "/tmp/x.pvt"])).unwrap_err();
        assert!(e.contains("--from-tick"));
        let e = slice(argv(&[ts, "/tmp/x.pvt", "--segment", "99"])).unwrap_err();
        assert!(e.contains("no segment"));
    }

    #[test]
    fn report_includes_summary_charts() {
        let dir = tmp_dir("report-summary");
        let t = dir.join("t.pvt");
        generate(argv(&[
            "outlier",
            "--out",
            t.to_str().unwrap(),
            "--ranks",
            "4",
            "--iterations",
            "5",
        ]))
        .unwrap();
        let out = dir.join("out");
        report(argv(&[
            t.to_str().unwrap(),
            "--out-dir",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        for f in [
            "function-summary.svg",
            "process-load.svg",
            "sos-histogram.svg",
            "iteration-series.svg",
        ] {
            assert!(out.join(f).exists(), "{f}");
        }
    }
}
