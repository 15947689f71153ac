//! Out-of-core analysis: feed the fused pipeline straight from disk.
//!
//! [`analyze`](crate::report::analyze) needs a materialised
//! [`Trace`](perfvar_trace::Trace) — `O(events)` memory — even though the
//! fused pipeline itself only ever looks at one record at a time.
//! [`analyze_path`] removes that requirement: it drives the *same* sinks
//! ([`ProfileSink`](crate::profile), [`FusedSink`](crate::fused)) through
//! the *same* stack machine ([`ReplayMachine`](crate::stream::ReplayMachine))
//! from the incremental format cursors of `perfvar-trace`
//! ([`ArchiveCursor`] and the per-rank cursors of
//! [`pvt::open`](perfvar_trace::format::pvt::open)),
//! so the result is bit-identical to the in-memory pipeline
//! (property-tested in `tests/properties.rs`) while each worker holds only
//!
//! `O(read buffer + stack depth + segments + functions + metrics)`
//!
//! — independent of trace length. Stream files are memory-mapped where
//! the platform allows it ([`AnalysisConfig::mmap`]), so "read buffer"
//! is usually the page cache itself; the buffered fallback window is
//! [`AnalysisConfig::read_buffer_bytes`].
//!
//! ## One driver, single-pass data flow (speculative fusion)
//!
//! Every entry point — [`analyze`](crate::report::analyze),
//! [`analyze_path`], [`archive_part`](crate::part::archive_part) and
//! [`LiveAnalysis`](crate::live::LiveAnalysis) — runs one crate-internal driver over a *rank source*: an in-memory
//! trace, an archive cursor or a sequential PVT file. This module picks
//! the source from the file format; text traces (`.pvtx`) are loaded and
//! then take the in-memory source.
//!
//! The segmentation function is only known *after* profiling, which
//! would force two full passes over every byte. The driver instead
//! **predicts** it first — from the explicit
//! [`AnalysisConfig::segment_function`] override when present, else from
//! a cheap profile of a bounded prefix of rank 0 — and runs ONE combined
//! pass per rank that feeds a `ProfileSink` and a `FusedSink` for
//! the predicted function simultaneously:
//!
//! ```text
//! rank source ──► rank-0 prefix ──► predicted F
//!                                      │
//!                                      ▼ pass(ranks)
//!                                 ReplayMachine ──► ProfileSink ┐ one
//!                                                ──► FusedSink(F)┘ pass
//!                                                       │
//!                       ProfileTable ◄── rows ──────────┤ segments+rows
//!                            │                          │
//!                   DominantRanking ──► true F' ══╦═════╧══ F' == F ?
//!                                                 ║yes: done (1 pass)
//!                                                 ╚═no: fused-only
//!                                                    re-pass with F'
//! ```
//!
//! The prediction is *verified*, never trusted: the true dominant
//! ranking is computed from the complete profiles, and only when it
//! confirms the guess are the speculative fused partials used. The
//! `FusedSink` output depends on nothing but the function it was given
//! and the event stream, so a confirmed speculation is bit-identical to
//! the two-pass result by construction; a misprediction (rare — SPMD
//! ranks profile alike, and an explicit override can never mispredict)
//! costs one fused-only re-pass over the ranks that have not failed.
//! [`OutOfCoreAnalysis::passes`] reports which case occurred, on every
//! route.
//!
//! In-memory traces and archives fan the ranks out over work-stealing
//! [`par_map_ranks`](crate::parallel::par_map_ranks) workers; single-file
//! PVT traces are decoded sequentially (the streams are concatenated in
//! one file) but still in `O(1)` memory per pass.
//!
//! ## Damaged inputs
//!
//! A truncated or corrupt stream tail surfaces as
//! [`TraceError::CorruptStream`] naming the process and byte offset. In
//! [`RecoveryMode::Strict`] (the default of [`analyze_path`]) that error
//! aborts the analysis. [`RecoveryMode::Partial`] instead records a
//! [`StreamFailure`] per unreadable rank and analyses the recovered ones
//! — a failed rank contributes exactly what an empty stream would, and
//! [`OutOfCoreAnalysis::failures`] reports what was lost — including a
//! rank whose misprediction re-pass fails because the input changed
//! between the passes. Note that in a single-file PVT trace every rank
//! *after* a corrupt stream is also unreachable (the file is sequential),
//! while archive ranks fail independently.

use crate::driver::{run, PvtFile};
use crate::report::{Analysis, AnalysisConfig, AnalysisError};
use crate::telemetry::{Stage, Telemetry};
use perfvar_trace::format::cursor::{ArchiveCursor, CursorOptions};
use perfvar_trace::format::{read_trace_file, Format};
use perfvar_trace::{ProcessId, TraceError, TraceMeta};
use std::fmt;
use std::path::Path;

/// What to do when a per-process stream cannot be decoded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Abort on the first stream error (the default): the analysis either
    /// covers the whole trace or fails with the typed
    /// [`TraceError::CorruptStream`].
    #[default]
    Strict,
    /// Analyse the readable ranks; record a [`StreamFailure`] for each
    /// unreadable one. Failed ranks contribute like empty streams.
    Partial,
}

/// One rank that could not be analysed in [`RecoveryMode::Partial`].
#[derive(Debug)]
pub struct StreamFailure {
    /// The rank whose stream failed.
    pub process: ProcessId,
    /// Why — typically [`TraceError::CorruptStream`] with the byte
    /// offset, or an I/O error for a missing stream file.
    pub error: TraceError,
}

/// Errors of the out-of-core pipeline: either the file could not be
/// decoded, or the (successfully decoded) trace failed the analysis
/// itself (no dominant function, unknown override).
#[derive(Debug)]
pub enum PathAnalysisError {
    /// Reading or decoding the trace file failed.
    Trace(TraceError),
    /// The analysis pipeline rejected the trace.
    Analysis(AnalysisError),
}

impl fmt::Display for PathAnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathAnalysisError::Trace(e) => write!(f, "{e}"),
            PathAnalysisError::Analysis(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PathAnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PathAnalysisError::Trace(e) => Some(e),
            PathAnalysisError::Analysis(e) => Some(e),
        }
    }
}

impl From<TraceError> for PathAnalysisError {
    fn from(e: TraceError) -> PathAnalysisError {
        PathAnalysisError::Trace(e)
    }
}

impl From<AnalysisError> for PathAnalysisError {
    fn from(e: AnalysisError) -> PathAnalysisError {
        PathAnalysisError::Analysis(e)
    }
}

/// The result of an out-of-core analysis: the [`Analysis`] itself plus
/// the trace metadata gathered while streaming (there is no
/// [`Trace`](perfvar_trace::Trace) to consult afterwards) and, in
/// [`RecoveryMode::Partial`], the ranks that could not be read.
#[derive(Debug)]
pub struct OutOfCoreAnalysis {
    /// The pipeline result — bit-identical to
    /// [`analyze`](crate::report::analyze) of the same trace.
    pub analysis: Analysis,
    /// Name, clock, registry and extent of the analysed trace. In
    /// partial mode, event count and span cover the recovered ranks only.
    pub meta: TraceMeta,
    /// Ranks that could not be analysed (empty in strict mode).
    pub failures: Vec<StreamFailure>,
    /// Full passes the driver made over the event data: `1` when the
    /// speculative single pass was confirmed (the common case), `2` when
    /// a misprediction forced a fused-only re-pass.
    pub passes: u32,
}

impl OutOfCoreAnalysis {
    /// Whether any rank was lost to a stream failure.
    pub fn is_partial(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Number of ranks whose streams decoded fully.
    pub fn recovered_ranks(&self) -> usize {
        self.meta.num_processes() - self.failures.len()
    }

    /// Re-runs the out-of-core pipeline with the next-finer segmentation
    /// function (§VII-B refinement, mirroring
    /// [`Analysis::refine`]). Returns `Ok(None)` when no finer candidate
    /// exists. Refinement passes the target function explicitly, so the
    /// re-analysis is always an exact single pass.
    pub fn refine(
        &self,
        path: impl AsRef<Path>,
        config: &AnalysisConfig,
        mode: RecoveryMode,
    ) -> Result<Option<OutOfCoreAnalysis>, PathAnalysisError> {
        let Some(pos) = self
            .analysis
            .dominant
            .candidates
            .iter()
            .position(|f| *f == self.analysis.function)
        else {
            return Ok(None);
        };
        let Some(next) = self.analysis.dominant.candidates.get(pos + 1) else {
            return Ok(None);
        };
        let next_name = self.meta.registry.function_name(*next).to_string();
        let cfg = AnalysisConfig {
            segment_function: Some(next_name),
            ..config.clone()
        };
        analyze_path_with(path, &cfg, mode).map(Some)
    }
}

/// Runs the full analysis pipeline on a trace *file* without
/// materialising the trace, in [`RecoveryMode::Strict`].
///
/// Archives (`.pvta`) stream one cursor per rank on
/// [`AnalysisConfig::threads`] workers; binary traces (`.pvt`) stream
/// sequentially; text traces (`.pvtx`) are loaded (they are
/// human-scale by construction). The result equals
/// [`analyze`](crate::report::analyze) of
/// [`read_trace_file`] bit for bit.
///
/// ```
/// use perfvar_analysis::outofcore::analyze_path;
/// use perfvar_analysis::report::{analyze, AnalysisConfig};
/// use perfvar_trace::format::write_trace_file;
/// use perfvar_trace::{Clock, FunctionRole, Timestamp, TraceBuilder};
///
/// // Two ranks, six iterations each, written as a PVTA archive.
/// let mut b = TraceBuilder::new(Clock::microseconds()).with_name("demo");
/// let f = b.define_function("iteration", FunctionRole::Compute);
/// for pi in 0..2u64 {
///     let p = b.define_process(format!("rank {pi}"));
///     let w = b.process_mut(p);
///     for k in 0..6u64 {
///         w.enter(Timestamp(k * 10), f).unwrap();
///         w.leave(Timestamp(k * 10 + 4 + pi), f).unwrap();
///     }
/// }
/// let trace = b.finish().unwrap();
/// let dir = std::env::temp_dir().join("perfvar-analyze-path-doc.pvta");
/// write_trace_file(&trace, &dir).unwrap();
///
/// let config = AnalysisConfig::default();
/// let from_disk = analyze_path(&dir, &config).unwrap();
/// let in_memory = analyze(&trace, &config).unwrap();
/// assert_eq!(from_disk, in_memory);
/// ```
pub fn analyze_path(
    path: impl AsRef<Path>,
    config: &AnalysisConfig,
) -> Result<Analysis, PathAnalysisError> {
    analyze_path_with(path, config, RecoveryMode::Strict).map(|r| r.analysis)
}

/// Like [`analyze_path`] but with an explicit [`RecoveryMode`] and the
/// full [`OutOfCoreAnalysis`] result (trace metadata, failed ranks).
pub fn analyze_path_with(
    path: impl AsRef<Path>,
    config: &AnalysisConfig,
    mode: RecoveryMode,
) -> Result<OutOfCoreAnalysis, PathAnalysisError> {
    analyze_path_observed(path, config, mode, &Telemetry::noop())
}

/// Like [`analyze_path_with`] but recording per-stage wall time,
/// decode/replay throughput and peak-state gauges into `telemetry` (see
/// [`crate::telemetry`]), including one progress tick per completed rank.
/// With [`Telemetry::noop`] this *is* [`analyze_path_with`].
pub fn analyze_path_observed(
    path: impl AsRef<Path>,
    config: &AnalysisConfig,
    mode: RecoveryMode,
    telemetry: &Telemetry,
) -> Result<OutOfCoreAnalysis, PathAnalysisError> {
    let path = path.as_ref();
    let format = Format::from_path(path);
    if format == Format::Text {
        // Text traces are for inspection and tests — human-scale by
        // construction — so loading them is fine.
        let trace = {
            let _span = telemetry.span(Stage::Load);
            let trace = read_trace_file(path)?;
            let mut w = telemetry.worker(Stage::Load);
            w.bytes(std::fs::metadata(path).map(|m| m.len()).unwrap_or(0));
            trace
        };
        return run(&trace, config, mode, telemetry);
    }
    telemetry.set_read_buffer(config.read_buffer_bytes as u64);
    if format == Format::Archive {
        let cursor = ArchiveCursor::open_with(path, cursor_options(config))?;
        run(&cursor, config, mode, telemetry)
    } else {
        run(&PvtFile::open(path, config)?, config, mode, telemetry)
    }
}

/// The [`CursorOptions`] equivalent of a config's I/O knobs.
pub(crate) fn cursor_options(config: &AnalysisConfig) -> CursorOptions {
    CursorOptions {
        mmap: config.mmap,
        read_buffer_bytes: config.read_buffer_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::analyze;
    use perfvar_trace::format::{archive, write_trace_file};
    use perfvar_trace::{
        Clock, Event, EventRecord, EventStream, FunctionId, FunctionRole, MetricMode as Mode,
        Timestamp, Trace, TraceBuilder,
    };
    use std::path::PathBuf;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("perfvar-outofcore-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Multi-rank trace with nested calls, sync functions, and all three
    /// metric modes.
    fn rich_trace(ranks: u64) -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds()).with_name("ooc");
        let iter_f = b.define_function("iteration", FunctionRole::Compute);
        let inner_f = b.define_function("inner", FunctionRole::Compute);
        let mpi_f = b.define_function("MPI_Barrier", FunctionRole::MpiCollective);
        let acc = b.define_metric("CYC", Mode::Accumulating, "cycles");
        let del = b.define_metric("EXC", Mode::Delta, "#");
        for pi in 0..ranks {
            let p = b.define_process(format!("rank {pi}"));
            let w = b.process_mut(p);
            let mut t = 0u64;
            let mut cyc = 0u64;
            for k in 0..6u64 {
                let load = 100 + (pi * 13 + k * 7) % 40;
                w.enter(Timestamp(t), iter_f).unwrap();
                w.metric(Timestamp(t), acc, cyc).unwrap();
                w.enter(Timestamp(t + 5), inner_f).unwrap();
                w.metric(Timestamp(t + 9), del, k + 1).unwrap();
                w.leave(Timestamp(t + load / 2), inner_f).unwrap();
                t += load;
                cyc += load * 3;
                w.enter(Timestamp(t), mpi_f).unwrap();
                w.leave(Timestamp(t + 20), mpi_f).unwrap();
                t += 20;
                w.metric(Timestamp(t), acc, cyc).unwrap();
                w.leave(Timestamp(t), iter_f).unwrap();
            }
        }
        b.finish().unwrap()
    }

    /// A trace built to *defeat* the rank-0 prefix prediction: rank 0 is
    /// dominated by `alpha` while every other rank spends its time in
    /// `beta`, which therefore wins the global ranking.
    fn adversarial_trace() -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds()).with_name("adv");
        let alpha = b.define_function("alpha", FunctionRole::Compute);
        let beta = b.define_function("beta", FunctionRole::Compute);
        for pi in 0..4u64 {
            let p = b.define_process(format!("rank {pi}"));
            let w = b.process_mut(p);
            let mut t = 0u64;
            let (hot, cold, hot_len) = if pi == 0 {
                (alpha, beta, 50)
            } else {
                (beta, alpha, 300)
            };
            for _ in 0..8u64 {
                w.enter(Timestamp(t), hot).unwrap();
                t += hot_len;
                w.leave(Timestamp(t), hot).unwrap();
                w.enter(Timestamp(t), cold).unwrap();
                t += 2;
                w.leave(Timestamp(t), cold).unwrap();
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn archive_path_equals_in_memory() {
        let trace = rich_trace(5);
        let dir = tmp("eq.pvta");
        write_trace_file(&trace, &dir).unwrap();
        let config = AnalysisConfig::default();
        let reference = analyze(&trace, &config).unwrap();
        for threads in [1usize, 2, 0] {
            let cfg = AnalysisConfig {
                threads,
                ..config.clone()
            };
            let ooc = analyze_path_with(&dir, &cfg, RecoveryMode::Strict).unwrap();
            assert_eq!(ooc.analysis, reference, "threads = {threads}");
            assert_eq!(ooc.meta, TraceMeta::of(&trace));
            assert!(!ooc.is_partial());
        }
    }

    #[test]
    fn spmd_archive_takes_a_single_pass() {
        // Ranks profile alike, so the rank-0 prefix prediction must be
        // confirmed and the fused partials reused — one data pass.
        let trace = rich_trace(5);
        let dir = tmp("onepass.pvta");
        write_trace_file(&trace, &dir).unwrap();
        let ooc =
            analyze_path_with(&dir, &AnalysisConfig::default(), RecoveryMode::Strict).unwrap();
        assert_eq!(ooc.passes, 1);
    }

    #[test]
    fn spmd_pvt_takes_a_single_pass() {
        let trace = rich_trace(4);
        for name in ["onepass.pvt", "onepass.pvtx"] {
            let path = tmp(name);
            write_trace_file(&trace, &path).unwrap();
            let ooc =
                analyze_path_with(&path, &AnalysisConfig::default(), RecoveryMode::Strict).unwrap();
            assert_eq!(ooc.passes, 1, "{name}");
        }
    }

    #[test]
    fn explicit_override_never_repasses() {
        let trace = rich_trace(3);
        let dir = tmp("override.pvta");
        write_trace_file(&trace, &dir).unwrap();
        let config = AnalysisConfig {
            segment_function: Some("inner".into()),
            ..AnalysisConfig::default()
        };
        let ooc = analyze_path_with(&dir, &config, RecoveryMode::Strict).unwrap();
        assert_eq!(ooc.passes, 1);
        assert_eq!(ooc.analysis, analyze(&trace, &config).unwrap());
    }

    #[test]
    fn misprediction_falls_back_and_stays_exact() {
        let trace = adversarial_trace();
        let config = AnalysisConfig::default();
        let reference = analyze(&trace, &config).unwrap();
        // The global dominant is beta even though rank 0 suggests alpha.
        assert_eq!(
            trace.registry().function_name(reference.function),
            "beta",
            "fixture must actually mispredict"
        );
        for name in ["adv.pvta", "adv.pvt", "adv.pvtx"] {
            let path = tmp(name);
            write_trace_file(&trace, &path).unwrap();
            let ooc = analyze_path_with(&path, &config, RecoveryMode::Strict).unwrap();
            assert_eq!(ooc.passes, 2, "{name}: misprediction must re-pass");
            assert_eq!(ooc.analysis, reference, "{name}");
        }
    }

    #[test]
    fn stats_count_mapped_and_buffered_streams() {
        // Rank 0's stream file is far above a 4 KiB read window (mapped),
        // rank 1's far below it (buffered).
        let mut b = TraceBuilder::new(Clock::microseconds()).with_name("mixed sizes");
        let f = b.define_function("work", FunctionRole::Compute);
        for (pi, iterations) in [2_000u64, 4].into_iter().enumerate() {
            let p = b.define_process(format!("rank {pi}"));
            for k in 0..iterations {
                b.process_mut(p).enter(Timestamp(10 * k), f).unwrap();
                b.process_mut(p).leave(Timestamp(10 * k + 7), f).unwrap();
            }
        }
        let trace = b.finish().unwrap();
        let dir = tmp("mixedsizes.pvta");
        write_trace_file(&trace, &dir).unwrap();
        let window = 4096;
        let size = |i| {
            std::fs::metadata(dir.join(archive::stream_file(i)))
                .unwrap()
                .len()
        };
        assert!(size(0) > window && size(1) < window);

        for (mmap, mapped, buffered) in [(true, 1, 1), (false, 0, 2)] {
            let config = AnalysisConfig {
                mmap,
                read_buffer_bytes: window as usize,
                ..AnalysisConfig::default()
            };
            let telemetry = Telemetry::enabled();
            analyze_path_observed(&dir, &config, RecoveryMode::Strict, &telemetry).unwrap();
            let stats = telemetry.snapshot().unwrap();
            assert_eq!(stats.peaks.mapped_streams, mapped, "mmap={mmap}");
            assert_eq!(stats.peaks.buffered_streams, buffered, "mmap={mmap}");
            let table = stats.render_table();
            let line =
                format!("streams: {mapped} mapped, {buffered} buffered (read buffer 4096 bytes)");
            assert!(table.contains(&line), "{table}");
        }
    }

    #[test]
    fn buffered_path_equals_mmap_path() {
        let trace = rich_trace(4);
        let dir = tmp("bufeq.pvta");
        write_trace_file(&trace, &dir).unwrap();
        let mapped = analyze_path(&dir, &AnalysisConfig::default()).unwrap();
        let buffered = analyze_path(
            &dir,
            &AnalysisConfig {
                mmap: false,
                read_buffer_bytes: 64,
                ..AnalysisConfig::default()
            },
        )
        .unwrap();
        assert_eq!(mapped, buffered);
    }

    #[test]
    fn pvt_path_equals_in_memory() {
        let trace = rich_trace(4);
        let path = tmp("eq.pvt");
        write_trace_file(&trace, &path).unwrap();
        let config = AnalysisConfig::default();
        assert_eq!(
            analyze_path(&path, &config).unwrap(),
            analyze(&trace, &config).unwrap()
        );
    }

    #[test]
    fn text_path_equals_in_memory() {
        let trace = rich_trace(3);
        let path = tmp("eq.pvtx");
        write_trace_file(&trace, &path).unwrap();
        let config = AnalysisConfig::default();
        assert_eq!(
            analyze_path(&path, &config).unwrap(),
            analyze(&trace, &config).unwrap()
        );
    }

    #[test]
    fn truncated_archive_stream_strict_names_rank_and_offset() {
        let trace = rich_trace(4);
        let dir = tmp("trunc.pvta");
        write_trace_file(&trace, &dir).unwrap();
        let stream2 = dir.join(archive::stream_file(2));
        let bytes = std::fs::read(&stream2).unwrap();
        std::fs::write(&stream2, &bytes[..bytes.len() - 9]).unwrap();

        let err = analyze_path(&dir, &AnalysisConfig::default()).unwrap_err();
        let PathAnalysisError::Trace(TraceError::CorruptStream {
            process, offset, ..
        }) = err
        else {
            panic!("expected CorruptStream, got {err}");
        };
        assert_eq!(process, ProcessId(2));
        assert!(offset > 0 && offset < bytes.len() as u64);
    }

    #[test]
    fn truncated_archive_stream_partial_recovers_other_ranks() {
        let trace = rich_trace(4);
        let dir = tmp("partial.pvta");
        write_trace_file(&trace, &dir).unwrap();
        let stream1 = dir.join(archive::stream_file(1));
        let bytes = std::fs::read(&stream1).unwrap();
        std::fs::write(&stream1, &bytes[..bytes.len() - 7]).unwrap();

        let config = AnalysisConfig::default();
        let ooc = analyze_path_with(&dir, &config, RecoveryMode::Partial).unwrap();
        assert!(ooc.is_partial());
        assert_eq!(ooc.recovered_ranks(), 3);
        assert_eq!(ooc.failures.len(), 1);
        assert_eq!(ooc.failures[0].process, ProcessId(1));
        assert!(matches!(
            ooc.failures[0].error,
            TraceError::CorruptStream { .. }
        ));
        // Rank 1 contributes exactly what an empty stream would.
        assert_eq!(ooc.analysis.segmentation.process(ProcessId(1)).len(), 0);
        assert!(!ooc.analysis.segmentation.process(ProcessId(0)).is_empty());
    }

    #[test]
    fn truncated_pvt_partial_loses_trailing_ranks() {
        let trace = rich_trace(4);
        let path = tmp("trunc.pvt");
        write_trace_file(&trace, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut deep into the file: some rank's stream ends mid-event.
        std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();

        let config = AnalysisConfig::default();
        let strict = analyze_path(&path, &config).unwrap_err();
        assert!(
            matches!(
                strict,
                PathAnalysisError::Trace(TraceError::CorruptStream { .. })
            ),
            "{strict}"
        );

        let ooc = analyze_path_with(&path, &config, RecoveryMode::Partial).unwrap();
        assert!(ooc.is_partial());
        // Sequential file: the corrupt rank and everything after it fail.
        let first_failed = ooc.failures[0].process.index();
        assert_eq!(ooc.failures.len(), 4 - first_failed);
        assert_eq!(ooc.recovered_ranks(), first_failed);
        for i in 0..first_failed {
            assert!(!ooc
                .analysis
                .segmentation
                .process(ProcessId::from_index(i))
                .is_empty());
        }
    }

    /// `trace` written as a PVT file with its streams replaced by
    /// `streams` (the writer does not validate).
    fn write_pvt(name: &str, trace: &Trace, streams: Vec<Vec<EventRecord>>) -> PathBuf {
        let streams = streams
            .into_iter()
            .enumerate()
            .map(|(i, records)| EventStream::from_records(ProcessId::from_index(i), records))
            .collect();
        let damaged = Trace::from_parts_unchecked(
            &trace.name,
            trace.clock(),
            trace.registry().clone(),
            streams,
        );
        let path = tmp(name);
        write_trace_file(&damaged, &path).unwrap();
        path
    }

    /// The strict error's process and offset, and the ranks a partial
    /// analysis loses, for the PVT file at `path`.
    fn pvt_failure(path: &Path) -> (ProcessId, u64, Vec<usize>) {
        let config = AnalysisConfig::default();
        let err = analyze_path(path, &config).unwrap_err();
        let PathAnalysisError::Trace(TraceError::CorruptStream {
            process, offset, ..
        }) = err
        else {
            panic!("expected CorruptStream, got {err}");
        };
        let ooc = analyze_path_with(path, &config, RecoveryMode::Partial).unwrap();
        let lost = ooc.failures.iter().map(|f| f.process.index()).collect();
        (process, offset, lost)
    }

    fn records(trace: &Trace) -> Vec<Vec<EventRecord>> {
        trace
            .streams()
            .iter()
            .map(|s| s.records().to_vec())
            .collect()
    }

    #[test]
    fn damaged_pvt_errors_keep_file_offsets() {
        // Damage inside rank 2 of 4 is reported as rank 2 at its offset
        // from the start of the file: rank 2's stream starts at byte
        // 477, after the header and ranks 0–1. A partial analysis keeps
        // ranks 0 and 1 exactly.
        let trace = rich_trace(4);
        let reference = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let kept = |path: &Path| {
            let config = AnalysisConfig::default();
            let ooc = analyze_path_with(path, &config, RecoveryMode::Partial).unwrap();
            for rank in [ProcessId(0), ProcessId(1)] {
                assert_eq!(
                    ooc.analysis.segmentation.process(rank),
                    reference.segmentation.process(rank)
                );
            }
        };

        // Rank 2's first `inner` leave closes `MPI_Barrier` instead.
        let mut streams = records(&trace);
        let leave = &mut streams[2][4];
        assert!(matches!(leave.event, Event::Leave { .. }));
        leave.event = Event::Leave {
            function: FunctionId(2),
        };
        let path = write_pvt("mismatched-leave.pvt", &trace, streams);
        assert_eq!(pvt_failure(&path), (ProcessId(2), 495, vec![2, 3]));
        kept(&path);

        // The file cut inside rank 2's second record. With ranks 2 and 3
        // emptied, their two record counts sit where rank 2's starts.
        let mut streams = records(&trace);
        streams[2].clear();
        streams[3].clear();
        let rank2 = std::fs::read(write_pvt("ranks01.pvt", &trace, streams))
            .unwrap()
            .len()
            - 2
            - 4;
        assert_eq!(rank2, 477);
        let path = tmp("cut-mid-record.pvt");
        write_trace_file(&trace, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Its record count (1 byte), `enter` (3 bytes), 2 bytes of `metric`.
        std::fs::write(&path, &bytes[..rank2 + 1 + 3 + 2]).unwrap();
        assert_eq!(pvt_failure(&path), (ProcessId(2), 483, vec![2, 3]));
        kept(&path);
    }

    #[test]
    fn pvt_rank_before_a_damaged_empty_rank_keeps_its_last_record() {
        // Rank 3 is empty and the trailer after it is damaged: the error
        // is rank 3's, and rank 2 keeps every record, its last leave
        // included, so the partial analysis is that of the empty rank.
        let trace = rich_trace(4);
        let mut streams = records(&trace);
        streams[3].clear();
        let path = write_pvt("empty-last-rank.pvt", &trace, streams);
        let config = AnalysisConfig::default();
        let reference = analyze_path(&path, &config).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(pvt_failure(&path), (ProcessId(3), n as u64, vec![3]));
        let ooc = analyze_path_with(&path, &config, RecoveryMode::Partial).unwrap();
        assert_eq!(ooc.analysis, reference);
    }

    #[test]
    fn missing_archive_stream_partial_reports_path() {
        let trace = rich_trace(3);
        let dir = tmp("missing.pvta");
        write_trace_file(&trace, &dir).unwrap();
        std::fs::remove_file(dir.join(archive::stream_file(1))).unwrap();
        let ooc =
            analyze_path_with(&dir, &AnalysisConfig::default(), RecoveryMode::Partial).unwrap();
        assert_eq!(ooc.failures.len(), 1);
        assert!(ooc.failures[0].error.to_string().contains("stream-1.pvts"));
    }

    #[test]
    fn refine_steps_to_finer_function() {
        let trace = rich_trace(4);
        let dir = tmp("refine.pvta");
        write_trace_file(&trace, &dir).unwrap();
        let config = AnalysisConfig::default();
        let ooc = analyze_path_with(&dir, &config, RecoveryMode::Strict).unwrap();
        let refined = ooc
            .refine(&dir, &config, RecoveryMode::Strict)
            .unwrap()
            .expect("a finer candidate exists");
        assert_eq!(refined.passes, 1, "refinement is an explicit single pass");
        // Matches the in-memory refinement exactly.
        let reference = analyze(&trace, &config).unwrap();
        let refined_ref = reference.refine(&trace, &config).unwrap();
        assert_eq!(refined.analysis, refined_ref);
    }

    #[test]
    fn no_dominant_function_is_an_analysis_error() {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("main", FunctionRole::Compute);
        let p = b.define_process("p0");
        b.process_mut(p).enter(Timestamp(0), f).unwrap();
        b.process_mut(p).leave(Timestamp(10), f).unwrap();
        let trace = b.finish().unwrap();
        let dir = tmp("nodom.pvta");
        write_trace_file(&trace, &dir).unwrap();
        let err = analyze_path(&dir, &AnalysisConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            PathAnalysisError::Analysis(AnalysisError::NoDominantFunction { .. })
        ));
    }
}
