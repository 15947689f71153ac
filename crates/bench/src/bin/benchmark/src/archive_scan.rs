//! `archive-scan`: the out-of-core fast path at scale.
//!
//! Closed loop, one client. One operation is `perfvar analyze A.pvta`
//! in text mode on a seeded 32-rank counter stencil with three metric
//! channels, sized so every rank's stream file exceeds the 256 KiB
//! read window (the default cursor maps it): varint decode → cursor /
//! mmap → replay → fused sinks → part finalize. The JSON renderer, viz
//! and the daemon are barely involved.

use crate::inputs::counter_stencil;
use crate::ladder::{self, LadderInput};
use crate::spans::{Open, Recorder};
use crate::stats::{median, percentile};
use crate::{proc, timed_setup, Ctx, Metric, Outcome, THREADS};
use perfvar_analysis::findings::findings_meta;
use perfvar_analysis::{analyze_path_with, OutOfCoreAnalysis, RecoveryMode};
use perfvar_trace::format::archive::stream_file;
use perfvar_trace::format::cursor::CursorOptions;
use perfvar_trace::format::write_trace_file;
use perfvar_trace::Trace;
use std::path::{Path, PathBuf};

const RANKS: usize = 32;
/// Enough iterations (of 39 records each) for every stream file to pass
/// the read window, which `expect` checks.
const ITERATIONS: usize = 2_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Operations the p90 needs (ten beyond it).
const MIN_OPS: usize = 100;

fn setup(ctx: &Ctx) -> Result<(Trace, PathBuf), String> {
    let trace = counter_stencil(RANKS, ITERATIONS, ctx.seed)?;
    let pvta = ctx.work.join("counter-stencil.pvta");
    let _ = std::fs::remove_dir_all(&pvta);
    write_trace_file(&trace, &pvta).map_err(|e| format!("{}: {e}", pvta.display()))?;
    Ok((trace, pvta))
}

/// What `perfvar analyze A.pvta` prints, from the in-process result.
fn text_of(result: &OutOfCoreAnalysis) -> String {
    let mut text = result.analysis.render_text_meta(&result.meta);
    let found = findings_meta(&result.meta, &result.analysis);
    if !found.is_empty() {
        text.push_str("  findings (ranked by severity):\n");
        for f in &found {
            text.push_str(&format!(
                "    [{:>4.0}%] {}\n",
                f.severity * 100.0,
                f.description
            ));
        }
    }
    text
}

/// The expected output, after checking the input and the in-process
/// analysis: every stream mapped, `stencil_iteration` dominant, one
/// segment per rank and iteration, one pass.
fn expect(pvta: &Path) -> Result<Vec<u8>, String> {
    for i in 0..RANKS {
        let file = pvta.join(stream_file(i));
        let len = std::fs::metadata(&file)
            .map_err(|e| format!("{}: {e}", file.display()))?
            .len();
        if len <= CursorOptions::DEFAULT_READ_BUFFER as u64 {
            return Err(format!(
                "{}: {len} bytes, not above the {} byte read window",
                file.display(),
                CursorOptions::DEFAULT_READ_BUFFER
            ));
        }
    }
    let result = analyze_path_with(pvta, &ladder::config(), RecoveryMode::Strict)
        .map_err(|e| e.to_string())?;
    if result.passes != 1 {
        return Err(format!(
            "out-of-core analysis took {} passes",
            result.passes
        ));
    }
    let text = text_of(&result);
    let function = "segmentation function: \"stencil_iteration\" (time-dominant)";
    let segments = format!("segments: {} (", RANKS * ITERATIONS);
    if !text.contains(function) || !text.contains(&segments) {
        return Err(format!("unexpected analysis:\n{text}"));
    }
    Ok(text.into_bytes())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (setup_s, (trace, pvta)) = timed_setup(SETUPS, || setup(ctx))?;
    let expected = expect(&pvta)?;
    let path = pvta.to_string_lossy().to_string();
    let threads = THREADS.to_string();
    let args = ["analyze", path.as_str(), "--threads", threads.as_str()];
    // Warm-up: page cache and binary.
    for _ in 0..3 {
        if ctx.perfvar.run(&args)? != expected {
            return Err("perfvar analyze output differs from the expected analysis".into());
        }
    }

    // Only a traced run's ladder needs the trace in memory.
    let trace = ctx.trace.as_ref().map(|_| trace);
    let mut outcome = Outcome::default();
    let latencies = ctx.closed_loop(
        &mut outcome,
        MIN_OPS,
        |_, span| ctx.call(span, "cli.analyze_text", || ctx.perfvar.run(&args)),
        |_, out| {
            (out == expected)
                .then_some(())
                .ok_or_else(|| "analyze output differs from the expected analysis".to_string())
        },
        |_, rec, span| replica(rec, span, &pvta),
    );
    let (Some(rec), Some(trace)) = (&ctx.trace, trace) else {
        outcome.metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new(
                "op_p50_s",
                percentile(&latencies, 0.5, "archive-scan op")?,
                "s",
            ),
            Metric::new(
                "op_p90_s",
                percentile(&latencies, 0.9, "archive-scan op")?,
                "s",
            ),
            Metric::new("peak_rss_mb", proc::peak_rss_mb(), "MB"),
        ];
        return Ok(outcome);
    };
    let input = LadderInput::prepare(&ctx.work, trace, &pvta)?;
    let counts = ladder::run(rec, &ctx.perfvar, &[input], &ctx.work, false)?;
    outcome.metrics = ladder::metrics(rec, &counts, median(&latencies), &[])?;
    Ok(outcome)
}

/// `perfvar analyze A.pvta` replayed in-process as children of its
/// `op` span.
fn replica(rec: &Recorder, op: &Open, pvta: &Path) -> Result<(), String> {
    crate::proc::trim_heap();
    let result = rec
        .time(Some(op), "analysis.analyze_path", || {
            analyze_path_with(pvta, &ladder::config(), RecoveryMode::Strict)
        })
        .map_err(|e| e.to_string())?;
    let mut text = rec.time(Some(op), "analysis.render_text", || {
        result.analysis.render_text_meta(&result.meta)
    });
    let found = rec.time(Some(op), "analysis.findings", || {
        findings_meta(&result.meta, &result.analysis)
    });
    for f in &found {
        text.push_str(&format!(
            "    [{:>4.0}%] {}\n",
            f.severity * 100.0,
            f.description
        ));
    }
    std::hint::black_box(text);
    Ok(())
}
