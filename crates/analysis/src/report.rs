//! The one-stop analysis pipeline and hotspot report.
//!
//! [`analyze`] chains the paper's steps: profile → dominant-function
//! selection → segmentation → SOS matrix → imbalance detection →
//! counter attribution/correlation. The default path is *fused* and
//! *speculative*: it predicts the segmentation function from a prefix of
//! rank 0, then replays every process once, profiling and segmenting in
//! the same pass (see [`crate::stream`] and [`crate::fused`]) on
//! [`AnalysisConfig::threads`] workers — the same driver
//! [`analyze_path`](crate::outofcore::analyze_path) runs over files, fed
//! from memory. [`analyze_reference`] runs the
//! original materialising pipeline — replay into invocation lists, then
//! rescan — and is kept as the executable specification the fused path
//! is property-tested against. The resulting [`Analysis`] is a
//! self-contained value (serialisable to JSON by the CLI) and can be
//! *refined* to a finer segmentation function, exactly as the analyst
//! does in the paper's case study B.

use crate::counters::{correlate_with_sos, CounterMatrix};
use crate::dominant::{DominantRanking, DominantSelection};
use crate::imbalance::{ImbalanceAnalysis, ImbalanceConfig, WasteAnalysis};
use crate::outofcore::{PathAnalysisError, RecoveryMode};
use crate::parallel::replay_all_parallel;
use crate::profile::ProfileTable;
use crate::segment::Segmentation;
use crate::sos::SosMatrix;
use crate::telemetry::Telemetry;
use perfvar_trace::{FunctionId, MetricId, Registry, Trace, TraceMeta};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Configuration of the analysis pipeline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Invocation-count multiplier of the dominant-function rule
    /// (§IV uses 2: at least `2p` invocations).
    pub dominant_multiplier: u64,
    /// Override: segment by this function name instead of the
    /// automatically selected dominant function.
    pub segment_function: Option<String>,
    /// Imbalance detection thresholds.
    pub imbalance: ImbalanceConfig,
    /// Worker threads for every per-process pipeline stage
    /// (0 = hardware parallelism).
    pub threads: usize,
    /// Attribute and correlate every metric channel in the trace.
    pub analyze_counters: bool,
    /// Read-buffer size in bytes for buffered out-of-core reads
    /// (ignored where a stream file is memory-mapped). Like `threads`,
    /// a pure performance knob: it never changes the result.
    #[serde(default = "AnalysisConfig::default_read_buffer_bytes")]
    pub read_buffer_bytes: usize,
    /// Memory-map archive stream files where the platform allows it
    /// (the default); `false` forces buffered reads everywhere.
    #[serde(default = "AnalysisConfig::default_mmap")]
    pub mmap: bool,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            dominant_multiplier: 2,
            segment_function: None,
            imbalance: ImbalanceConfig::default(),
            threads: 0,
            analyze_counters: true,
            read_buffer_bytes: AnalysisConfig::default_read_buffer_bytes(),
            mmap: true,
        }
    }
}

impl AnalysisConfig {
    fn default_read_buffer_bytes() -> usize {
        perfvar_trace::format::cursor::CursorOptions::DEFAULT_READ_BUFFER
    }

    fn default_mmap() -> bool {
        true
    }

    /// Canonical string of every field that affects the *result* of the
    /// pipeline — the configuration half of a content-addressed result
    /// cache key.
    ///
    /// [`threads`](AnalysisConfig::threads) is deliberately excluded —
    /// as are the pure I/O knobs
    /// [`read_buffer_bytes`](AnalysisConfig::read_buffer_bytes) and
    /// [`mmap`](AnalysisConfig::mmap):
    /// the pipeline is property-tested to produce bit-identical results
    /// at every thread count and on every read path, so two runs
    /// differing only in parallelism or I/O strategy must share a cache
    /// entry. Everything else participates, including
    /// the float thresholds (encoded via [`f64::to_bits`] so the key
    /// never depends on decimal formatting). Two configs with equal keys
    /// produce equal [`Analysis`] values on equal input; any change to a
    /// result-affecting field changes the key (each field lands in a
    /// fixed, delimited position).
    pub fn result_key(&self) -> String {
        format!(
            "v1;mult={};func={:?};z={:016x};excess={:016x};counters={}",
            self.dominant_multiplier,
            self.segment_function,
            self.imbalance.z_threshold.to_bits(),
            self.imbalance.min_relative_excess.to_bits(),
            self.analyze_counters,
        )
    }
}

/// Pipeline errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// No function satisfies the dominant-function rule (trace too small
    /// or not iterative).
    NoDominantFunction {
        /// The `multiplier × p` threshold that nothing passed.
        required_invocations: u64,
    },
    /// The `segment_function` override names an unknown function.
    UnknownFunction(String),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::NoDominantFunction {
                required_invocations,
            } => write!(
                f,
                "no function is invoked at least {required_invocations} times; \
                 cannot segment the run (is the trace iterative?)"
            ),
            AnalysisError::UnknownFunction(name) => {
                write!(f, "segment function {name:?} is not defined in the trace")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Counter attribution of one metric channel.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterAnalysis {
    /// The channel.
    pub metric: MetricId,
    /// Per-segment values.
    pub matrix: CounterMatrix,
    /// Pearson correlation with the SOS matrix, if defined.
    pub sos_correlation: Option<f64>,
}

/// The complete result of the paper's analysis pipeline on one trace.
///
/// `PartialEq` compares every component bit-for-bit; the equivalence
/// property tests rely on it to hold the fused and reference pipelines
/// (and runs at different thread counts) equal.
///
/// The SOS matrix is not a field but a view of the segmentation's
/// columns ([`Analysis::sos`]). The JSON form still carries it, as the
/// `sos` member between `segmentation` and `imbalance`; reading a
/// document back rebuilds it from `segmentation`.
#[derive(Clone, Debug, PartialEq)]
pub struct Analysis {
    /// Name of the analysed trace.
    pub trace_name: String,
    /// Dominant-function selection outcome (candidates, threshold).
    pub dominant: DominantSelection,
    /// The segmentation function actually used (the dominant function,
    /// or the configured override / refinement).
    pub function: FunctionId,
    /// Per-function aggregated profiles.
    pub profiles: ProfileTable,
    /// Segments of the run.
    pub segmentation: Segmentation,
    /// Imbalance findings.
    pub imbalance: ImbalanceAnalysis,
    /// Waste quantification (CPU time lost to waiting for the slowest).
    pub waste: WasteAnalysis,
    /// Counter attributions (one per metric channel).
    pub counters: Vec<CounterAnalysis>,
}

/// Resolves the segmentation function: the configured override, or the
/// selected dominant function.
pub(crate) fn segmentation_function(
    registry: &Registry,
    dominant: &DominantSelection,
    config: &AnalysisConfig,
) -> Result<FunctionId, AnalysisError> {
    match &config.segment_function {
        Some(name) => registry
            .function_by_name(name)
            .ok_or_else(|| AnalysisError::UnknownFunction(name.clone())),
        None => dominant.function.ok_or(AnalysisError::NoDominantFunction {
            required_invocations: dominant.required_invocations,
        }),
    }
}

/// Derives the downstream results shared by all pipeline variants
/// (fused, reference, out-of-core) from a segmentation and its counter
/// matrices.
pub(crate) fn assemble(
    trace_name: String,
    config: &AnalysisConfig,
    dominant: DominantSelection,
    function: FunctionId,
    profiles: ProfileTable,
    segmentation: Segmentation,
    counter_matrices: Vec<CounterMatrix>,
) -> Analysis {
    let sos = SosMatrix::from_segmentation(&segmentation);
    let (imbalance, waste) = ImbalanceAnalysis::detect_with_waste(&sos, config.imbalance);
    let counters = counter_matrices
        .into_iter()
        .map(|matrix| CounterAnalysis {
            metric: matrix.metric,
            sos_correlation: correlate_with_sos(&matrix, &sos),
            matrix,
        })
        .collect();
    Analysis {
        trace_name,
        dominant,
        function,
        profiles,
        segmentation,
        imbalance,
        waste,
        counters,
    }
}

impl Analysis {
    /// The SOS-time matrix: a view of the segmentation's columns.
    pub fn sos(&self) -> SosMatrix<'_> {
        SosMatrix::from_segmentation(&self.segmentation)
    }
}

/// The JSON document of an [`Analysis`]: its fields in declaration
/// order, with the SOS matrix view in its old place.
#[derive(Serialize)]
struct AnalysisDoc<'a> {
    trace_name: &'a String,
    dominant: &'a DominantSelection,
    function: FunctionId,
    profiles: &'a ProfileTable,
    segmentation: &'a Segmentation,
    sos: SosMatrix<'a>,
    imbalance: &'a ImbalanceAnalysis,
    waste: &'a WasteAnalysis,
    counters: &'a Vec<CounterAnalysis>,
}

impl Analysis {
    fn doc(&self) -> AnalysisDoc<'_> {
        AnalysisDoc {
            trace_name: &self.trace_name,
            dominant: &self.dominant,
            function: self.function,
            profiles: &self.profiles,
            segmentation: &self.segmentation,
            sos: self.sos(),
            imbalance: &self.imbalance,
            waste: &self.waste,
            counters: &self.counters,
        }
    }
}

impl Serialize for Analysis {
    fn to_value(&self) -> serde::Value {
        self.doc().to_value()
    }

    fn write_json(&self, out: &mut serde::JsonWriter<'_>) {
        self.doc().write_json(out);
    }
}

/// What a document of an [`Analysis`] is read as: every member but the
/// derived `sos`, which is a view of `segmentation`.
#[derive(Deserialize)]
struct AnalysisWire {
    trace_name: String,
    dominant: DominantSelection,
    function: FunctionId,
    profiles: ProfileTable,
    segmentation: Segmentation,
    imbalance: ImbalanceAnalysis,
    waste: WasteAnalysis,
    counters: Vec<CounterAnalysis>,
}

impl Deserialize for Analysis {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let w = AnalysisWire::from_value(v)?;
        Ok(Analysis {
            trace_name: w.trace_name,
            dominant: w.dominant,
            function: w.function,
            profiles: w.profiles,
            segmentation: w.segmentation,
            imbalance: w.imbalance,
            waste: w.waste,
            counters: w.counters,
        })
    }
}

/// Runs the full pipeline on `trace` — the fused streaming path.
///
/// The segmentation function is predicted from a bounded prefix of rank
/// 0; then one combined pass per process, on [`AnalysisConfig::threads`]
/// workers, builds the profile rows for dominant-function selection and,
/// for the predicted function, the segments, SOS inputs and every counter
/// channel at once. The global profile verifies the prediction; a wrong
/// guess costs one fused-only re-pass. Memory per worker is
/// `O(stack depth + segments + functions)` instead of
/// `O(invocations)`. The result is identical to
/// [`analyze_reference`] (property-tested in `tests/properties.rs`).
/// For traces too large to load at all, see
/// [`analyze_path`](crate::outofcore::analyze_path), which produces the
/// same `Analysis` straight from disk.
///
/// ```
/// use perfvar_analysis::report::{analyze, AnalysisConfig};
/// use perfvar_trace::{Clock, FunctionRole, Timestamp, TraceBuilder};
///
/// // Four ranks, eight iterations each; rank 2's sixth iteration is slow.
/// let mut b = TraceBuilder::new(Clock::microseconds()).with_name("demo");
/// let iter_f = b.define_function("iteration", FunctionRole::Compute);
/// for pi in 0..4u64 {
///     let p = b.define_process(format!("rank {pi}"));
///     let w = b.process_mut(p);
///     let mut t = 0;
///     for k in 0..8u64 {
///         let load = if pi == 2 && k == 5 { 500 } else { 100 };
///         w.enter(Timestamp(t), iter_f).unwrap();
///         t += load;
///         w.leave(Timestamp(t), iter_f).unwrap();
///     }
/// }
/// let trace = b.finish().unwrap();
///
/// let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
/// // "iteration" passes the 2p rule and segments the run …
/// assert_eq!(trace.registry().function_name(analysis.function), "iteration");
/// // … and the injected hotspot is flagged on rank 2, ordinal 5.
/// let hot = analysis.imbalance.hottest_segment().unwrap();
/// assert_eq!((hot.process.index(), hot.ordinal), (2, 5));
/// ```
pub fn analyze(trace: &Trace, config: &AnalysisConfig) -> Result<Analysis, AnalysisError> {
    analyze_observed(trace, config, &Telemetry::noop())
}

/// Like [`analyze`] but recording per-stage wall time, throughput
/// counters and peak-state gauges into `telemetry` (see
/// [`crate::telemetry`]). With [`Telemetry::noop`] this *is* [`analyze`]
/// — the instrumentation reduces to always-false branches.
pub fn analyze_observed(
    trace: &Trace,
    config: &AnalysisConfig,
    telemetry: &Telemetry,
) -> Result<Analysis, AnalysisError> {
    match crate::driver::run(trace, config, RecoveryMode::Strict, telemetry) {
        Ok(done) => Ok(done.analysis),
        Err(PathAnalysisError::Analysis(e)) => Err(e),
        Err(PathAnalysisError::Trace(e)) => unreachable!("in-memory streams always decode: {e}"),
    }
}

/// Runs the full pipeline via the materialising reference implementation:
/// replay every process into invocation lists, then derive the profile,
/// segmentation and counter matrices from rescans.
///
/// Kept as the executable specification of the pipeline semantics; the
/// fused [`analyze`] must produce bit-identical results.
pub fn analyze_reference(
    trace: &Trace,
    config: &AnalysisConfig,
) -> Result<Analysis, AnalysisError> {
    let replayed = replay_all_parallel(trace, config.threads);
    let profiles = ProfileTable::from_invocations(trace, &replayed);
    let ranking = DominantRanking::with_multiplier(trace, &profiles, config.dominant_multiplier);
    let dominant = ranking.selection();
    let function = segmentation_function(trace.registry(), &dominant, config)?;

    let segmentation = Segmentation::new(trace, &replayed, function);
    let counter_matrices = if config.analyze_counters {
        trace
            .registry()
            .metric_ids()
            .map(|m| CounterMatrix::for_segments(trace, &segmentation, m))
            .collect()
    } else {
        Vec::new()
    };
    Ok(assemble(
        trace.name.clone(),
        config,
        dominant,
        function,
        profiles,
        segmentation,
        counter_matrices,
    ))
}

impl Analysis {
    /// Re-runs the pipeline with the next-finer segmentation function
    /// (§VII-B: "choosing a function with a smaller inclusive time [...]
    /// achieves a more fine-grained segmentation"). Returns `None` when
    /// no finer candidate exists.
    pub fn refine(&self, trace: &Trace, config: &AnalysisConfig) -> Option<Analysis> {
        let pos = self
            .dominant
            .candidates
            .iter()
            .position(|f| *f == self.function)?;
        let next = *self.dominant.candidates.get(pos + 1)?;
        let next_name = trace.registry().function_name(next).to_string();
        let cfg = AnalysisConfig {
            segment_function: Some(next_name),
            ..config.clone()
        };
        analyze(trace, &cfg).ok()
    }

    /// Renders a human-readable hotspot report.
    pub fn render_text(&self, trace: &Trace) -> String {
        self.render_text_meta(&TraceMeta::of(trace))
    }

    /// Renders the hotspot report from trace *metadata* alone — the
    /// out-of-core path never holds a [`Trace`], only a [`TraceMeta`]
    /// assembled while streaming. [`render_text`](Analysis::render_text)
    /// is this with `TraceMeta::of(trace)`.
    pub fn render_text_meta(&self, meta: &TraceMeta) -> String {
        use std::fmt::Write as _;
        let reg = &meta.registry;
        let clock = meta.clock;
        let mut out = String::new();
        let _ = writeln!(out, "perfvar analysis of {:?}", self.trace_name);
        let _ = writeln!(
            out,
            "  processes: {}, events: {}, span: {}",
            meta.num_processes(),
            meta.num_events,
            clock.format_duration(meta.span()),
        );
        let _ = writeln!(
            out,
            "  segmentation function: {:?} ({})",
            reg.function_name(self.function),
            if Some(self.function) == self.dominant.function {
                "time-dominant"
            } else {
                "override/refined"
            }
        );
        let _ = writeln!(
            out,
            "  candidates (≥{} invocations): {}",
            self.dominant.required_invocations,
            self.dominant
                .candidates
                .iter()
                .map(|f| format!("{:?}", reg.function_name(*f)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let stats = self.sos().sos_stats();
        let _ = writeln!(
            out,
            "  segments: {} ({} per process max); SOS median {} / max {}",
            self.segmentation.len(),
            self.segmentation.max_segments_per_process(),
            clock.format_duration(perfvar_trace::DurationTicks(stats.median)),
            clock.format_duration(perfvar_trace::DurationTicks(stats.max)),
        );
        let _ = writeln!(
            out,
            "  waste (waiting for the slowest): {} = {:.1}% of aggregate CPU time",
            clock.format_duration(self.waste.total),
            self.waste.waste_fraction() * 100.0
        );
        let trend = self.imbalance.duration_trend;
        if trend.relative_increase.abs() > 0.1 {
            let _ = writeln!(
                out,
                "  duration trend: {:+.0}% over the run",
                trend.relative_increase * 100.0
            );
        }
        if self.imbalance.process_outliers.is_empty() {
            let _ = writeln!(out, "  process outliers: none");
        } else {
            let _ = writeln!(out, "  process outliers (by total SOS-time):");
            for p in &self.imbalance.process_outliers {
                let _ = writeln!(
                    out,
                    "    {} ({}) score {:.1}",
                    p,
                    reg.process(*p).name,
                    self.imbalance.process_scores[p.index()]
                );
            }
        }
        if self.imbalance.segment_outliers.is_empty() {
            let _ = writeln!(out, "  segment outliers: none");
        } else {
            let _ = writeln!(out, "  segment outliers:");
            for o in self.imbalance.segment_outliers.iter().take(10) {
                let _ = writeln!(
                    out,
                    "    {} segment #{} SOS {} score {:.1}",
                    o.process,
                    o.ordinal,
                    clock.format_duration(o.sos),
                    o.score
                );
            }
            if self.imbalance.segment_outliers.len() > 10 {
                let _ = writeln!(
                    out,
                    "    … and {} more",
                    self.imbalance.segment_outliers.len() - 10
                );
            }
        }
        for c in &self.counters {
            let def = reg.metric(c.metric);
            match c.sos_correlation {
                Some(r) => {
                    let _ = writeln!(
                        out,
                        "  counter {:?}: SOS correlation r = {:+.3}{}",
                        def.name,
                        r,
                        if r > 0.9 {
                            "  (matches the SOS heatmap)"
                        } else {
                            ""
                        }
                    );
                }
                None => {
                    let _ = writeln!(out, "  counter {:?}: no variation", def.name);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvar_trace::{Clock, DurationTicks, FunctionRole, ProcessId, Timestamp, TraceBuilder};

    /// Balanced 4-process trace with a hot segment on process 2 and a
    /// nested finer function.
    fn pipeline_trace() -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds()).with_name("pipeline");
        let iter_f = b.define_function("iteration", FunctionRole::Compute);
        let inner_f = b.define_function("inner_step", FunctionRole::Compute);
        let mpi_f = b.define_function("MPI_Barrier", FunctionRole::MpiCollective);
        for pi in 0..4u32 {
            let p = b.define_process(format!("rank {pi}"));
            let w = b.process_mut(p);
            let mut t = 0u64;
            for k in 0..8u64 {
                let load = if pi == 2 && k == 5 { 500 } else { 100 };
                w.enter(Timestamp(t), iter_f).unwrap();
                // Two inner steps per iteration → inner qualifies as a
                // finer candidate.
                w.enter(Timestamp(t), inner_f).unwrap();
                w.leave(Timestamp(t + load / 2), inner_f).unwrap();
                w.enter(Timestamp(t + load / 2), inner_f).unwrap();
                w.leave(Timestamp(t + load), inner_f).unwrap();
                t += load;
                w.enter(Timestamp(t), mpi_f).unwrap();
                // All ranks sync at the slowest: iteration 5 ends late.
                let end = (k + 1) * 100 + if k >= 5 { 400 } else { 0 };
                t = end;
                w.leave(Timestamp(t), mpi_f).unwrap();
                w.leave(Timestamp(t), iter_f).unwrap();
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn full_pipeline_detects_injected_hotspot() {
        let trace = pipeline_trace();
        let a = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let reg = trace.registry();
        assert_eq!(reg.function_name(a.function), "iteration");
        let hot = a.imbalance.hottest_segment().unwrap();
        assert_eq!(hot.process, ProcessId(2));
        assert_eq!(hot.ordinal, 5);
        assert_eq!(hot.sos, DurationTicks(500));
        assert_eq!(a.imbalance.hottest_process(), Some(ProcessId(2)));
    }

    #[test]
    fn refinement_moves_to_finer_function() {
        let trace = pipeline_trace();
        let a = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let refined = a.refine(&trace, &AnalysisConfig::default()).unwrap();
        assert_eq!(
            trace.registry().function_name(refined.function),
            "inner_step"
        );
        // Twice as many segments per process.
        assert_eq!(
            refined.segmentation.max_segments_per_process(),
            2 * a.segmentation.max_segments_per_process()
        );
        // The hotspot is still on process 2, now pinned to one half-step.
        let hot = refined.imbalance.hottest_segment().unwrap();
        assert_eq!(hot.process, ProcessId(2));
    }

    #[test]
    fn override_function_used() {
        let trace = pipeline_trace();
        let cfg = AnalysisConfig {
            segment_function: Some("inner_step".into()),
            ..AnalysisConfig::default()
        };
        let a = analyze(&trace, &cfg).unwrap();
        assert_eq!(trace.registry().function_name(a.function), "inner_step");
    }

    #[test]
    fn unknown_override_rejected() {
        let trace = pipeline_trace();
        let cfg = AnalysisConfig {
            segment_function: Some("nope".into()),
            ..AnalysisConfig::default()
        };
        assert_eq!(
            analyze(&trace, &cfg).unwrap_err(),
            AnalysisError::UnknownFunction("nope".into())
        );
    }

    #[test]
    fn non_iterative_trace_has_no_dominant() {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("main", FunctionRole::Compute);
        let p = b.define_process("p0");
        b.process_mut(p).enter(Timestamp(0), f).unwrap();
        b.process_mut(p).leave(Timestamp(10), f).unwrap();
        let trace = b.finish().unwrap();
        let err = analyze(&trace, &AnalysisConfig::default()).unwrap_err();
        assert!(matches!(err, AnalysisError::NoDominantFunction { .. }));
        assert!(err.to_string().contains("iterative"));
    }

    #[test]
    fn text_report_mentions_findings() {
        let trace = pipeline_trace();
        let a = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let text = a.render_text(&trace);
        assert!(text.contains("iteration"), "{text}");
        assert!(text.contains("segment outliers"), "{text}");
        assert!(text.contains("P2"), "{text}");
    }

    #[test]
    fn analysis_serialises_to_json() {
        let trace = pipeline_trace();
        let a = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let json = serde_json::to_string(&a).unwrap();
        assert!(json.contains("segment_outliers"));
        let back: Analysis = serde_json::from_str(&json).unwrap();
        assert_eq!(back.function, a.function);
        assert_eq!(
            back.imbalance.segment_outliers.len(),
            a.imbalance.segment_outliers.len()
        );
    }

    #[test]
    fn counters_skipped_when_disabled() {
        let trace = pipeline_trace();
        let cfg = AnalysisConfig {
            analyze_counters: false,
            ..AnalysisConfig::default()
        };
        let a = analyze(&trace, &cfg).unwrap();
        assert!(a.counters.is_empty());
    }

    #[test]
    fn fused_equals_reference_pipeline() {
        let trace = pipeline_trace();
        for analyze_counters in [true, false] {
            let cfg = AnalysisConfig {
                analyze_counters,
                ..AnalysisConfig::default()
            };
            assert_eq!(
                analyze(&trace, &cfg).unwrap(),
                analyze_reference(&trace, &cfg).unwrap()
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_analysis() {
        let trace = pipeline_trace();
        let at = |threads| {
            let cfg = AnalysisConfig {
                threads,
                ..AnalysisConfig::default()
            };
            analyze(&trace, &cfg).unwrap()
        };
        let single = at(1);
        assert_eq!(single, at(8));
        assert_eq!(single, at(0));
        let reference = |threads| {
            let cfg = AnalysisConfig {
                threads,
                ..AnalysisConfig::default()
            };
            analyze_reference(&trace, &cfg).unwrap()
        };
        assert_eq!(reference(1), reference(8));
        assert_eq!(single, reference(8));
    }

    #[test]
    fn result_key_tracks_result_affecting_fields_only() {
        let base = AnalysisConfig::default();
        // Thread count is result-irrelevant (asserted above) → same key.
        let threaded = AnalysisConfig {
            threads: 8,
            ..base.clone()
        };
        assert_eq!(base.result_key(), threaded.result_key());
        // Every result-affecting field changes the key.
        let variants = [
            AnalysisConfig {
                dominant_multiplier: 3,
                ..base.clone()
            },
            AnalysisConfig {
                segment_function: Some("inner".to_string()),
                ..base.clone()
            },
            AnalysisConfig {
                imbalance: crate::imbalance::ImbalanceConfig {
                    z_threshold: 2.0,
                    ..base.imbalance
                },
                ..base.clone()
            },
            AnalysisConfig {
                imbalance: crate::imbalance::ImbalanceConfig {
                    min_relative_excess: 0.25,
                    ..base.imbalance
                },
                ..base.clone()
            },
            AnalysisConfig {
                analyze_counters: false,
                ..base.clone()
            },
        ];
        let mut keys: Vec<String> = variants.iter().map(|c| c.result_key()).collect();
        keys.push(base.result_key());
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
