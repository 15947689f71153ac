//! Mergeable partial analyses: the end-of-run merge as a first-class
//! value.
//!
//! The paper's pipeline is defined *per process* — profiles, segments
//! and SOS-times are computed independently for every rank and only
//! combined at the very end. [`AnalysisPart`] reifies that combination
//! step: it carries the per-rank contributions (profile rows, fused
//! segment/counter partials, extent, stream failures) plus the pipeline
//! [`Counters`] spent producing them, and composes under [`merge`].
//!
//! [`merge`]: AnalysisPart::merge
//!
//! # The merge algebra
//!
//! Parts over **disjoint rank sets** of the same trace and config form a
//! commutative monoid:
//!
//! * **identity** — `empty().merge(p) == p.merge(empty()) == p`;
//! * **commutativity** — `a.merge(b) == b.merge(a)`;
//! * **associativity** — `a.merge(b).merge(c) == a.merge(b.merge(c))`.
//!
//! All three hold *exactly* (bit-for-bit), not approximately: per-rank
//! contributions are kept keyed by rank index and never pre-aggregated,
//! so [`finalize`](AnalysisPart::finalize) always sees them in rank
//! order no matter how the set was partitioned or in which order the
//! pieces were merged. `tests/properties.rs` proves this by property
//! test against [`analyze_path`](crate::outofcore::analyze_path): any
//! partition of an archive's ranks, analysed by [`archive_part`] and
//! merged in any order, finalizes to a bit-identical
//! [`Analysis`](crate::report::Analysis).
//!
//! Merging parts with **overlapping ranks** or **mismatched shapes**
//! (different function/metric counts or speculation targets — i.e. parts
//! of different traces or configs) is a logic error and panics; the laws
//! above are claimed only where a merge is meaningful.
//!
//! # From parts to an `Analysis`
//!
//! Parts are what the one analysis driver behind every entry point
//! collects: in-memory [`analyze`](crate::report::analyze),
//! [`analyze_path`](crate::outofcore::analyze_path) and the live tailer
//! all build an `AnalysisPart` in one combined pass and finalize it the
//! same way. [`archive_part`] exposes that pass over any subset of an
//! archive's ranks: the seam for a multi-host deployment, where a
//! coordinator gathers one part per worker, folds them with `merge`, and
//! calls [`finalize`](AnalysisPart::finalize). Because each worker
//! resolves the speculative segmentation target deterministically from
//! the same archive and config, all parts agree on the guess; `finalize`
//! verifies it against the *global* dominant ranking and either
//! completes ([`PartOutcome::Done`]) or hands the part back with the true
//! function ([`PartOutcome::Mispredicted`]), after which the workers
//! re-run with that function pinned.
//!
//! # Example: a manual two-part merge
//!
//! ```
//! use perfvar_analysis::{
//!     analyze_path, archive_part, AnalysisConfig, AnalysisPart, PartOutcome, RecoveryMode,
//! };
//! use perfvar_sim::workloads::{BalancedStencil, Workload};
//! use perfvar_trace::format::cursor::ArchiveCursor;
//!
//! // A 4-rank archive to shard.
//! let trace = perfvar_sim::simulate(&BalancedStencil::new(4, 6).spec()).unwrap();
//! let dir = std::env::temp_dir().join("perfvar-doc-two-part-merge.pvta");
//! perfvar_trace::format::write_trace_file(&trace, &dir).unwrap();
//!
//! // Two shards analyse disjoint halves of the rank space independently.
//! let config = AnalysisConfig::default();
//! let lo = archive_part(&dir, &config, RecoveryMode::Strict, 0..2).unwrap();
//! let hi = archive_part(&dir, &config, RecoveryMode::Strict, 2..4).unwrap();
//!
//! // The coordinator folds them — from the identity, in either order.
//! let merged = AnalysisPart::empty().merge(hi).merge(lo);
//! assert_eq!(merged.num_ranks(), 4);
//!
//! // Finalizing against the archive's definitions yields the analysis.
//! let cursor = ArchiveCursor::open(&dir).unwrap();
//! let outcome = merged
//!     .finalize(cursor.name(), cursor.clock(), cursor.registry(), &config)
//!     .unwrap();
//! let PartOutcome::Done(sharded) = outcome else {
//!     panic!("an SPMD workload's rank-0 prefix predicts correctly");
//! };
//!
//! // Bit-identical to the single-process out-of-core analysis.
//! assert_eq!(sharded.analysis, analyze_path(&dir, &config).unwrap());
//! ```

use crate::dominant::DominantRanking;
use crate::driver::collect;
use crate::fused::{merge_fused, metric_modes, FusedPartial};
use crate::outofcore::{
    cursor_options, OutOfCoreAnalysis, PathAnalysisError, RecoveryMode, StreamFailure,
};
use crate::profile::{ProfileRow, ProfileTable};
use crate::report::{assemble, segmentation_function, AnalysisConfig};
use crate::segment::SegmentColumns;
use crate::telemetry::{Counters, Telemetry};
use perfvar_trace::format::cursor::ArchiveCursor;
use perfvar_trace::{Clock, FunctionId, ProcessId, Registry, Timestamp, TraceError, TraceMeta};
use std::collections::BTreeMap;
use std::path::Path;

/// The shape every mergeable part of one analysis must share: the
/// registry dimensions and the speculative segmentation target. Two
/// parts with equal shapes came from the same trace layout and the same
/// effective config, so their rank contributions compose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Shape {
    num_functions: usize,
    num_metrics: usize,
    target: FunctionId,
}

/// One rank's contribution: its profile rows, the fused partial for the
/// speculation target, its extent, and — in partial mode — the stream
/// failure that replaced the data.
#[derive(Debug)]
pub(crate) struct RankPart {
    pub(crate) rows: Vec<ProfileRow>,
    pub(crate) fused: FusedPartial,
    pub(crate) num_events: u64,
    pub(crate) first: Option<Timestamp>,
    pub(crate) last: Option<Timestamp>,
    pub(crate) failure: Option<TraceError>,
}

/// An empty fused partial — what a failed rank contributes (identical to
/// an empty stream).
fn empty_fused(num_metrics: usize) -> FusedPartial {
    (SegmentColumns::default(), vec![Vec::new(); num_metrics])
}

/// A mergeable partial analysis covering a subset of a trace's ranks.
///
/// See the [module docs](self) for the merge laws. Build parts with
/// [`archive_part`] (or receive one back from a mispredicted
/// [`finalize`](AnalysisPart::finalize)), combine them with
/// [`merge`](AnalysisPart::merge), and turn the union into an
/// [`Analysis`](crate::report::Analysis) with
/// [`finalize`](AnalysisPart::finalize) once every rank of the trace is
/// covered.
///
/// ```
/// use perfvar_analysis::outofcore::{analyze_path, RecoveryMode};
/// use perfvar_analysis::part::{archive_part, AnalysisPart, PartOutcome};
/// use perfvar_analysis::report::AnalysisConfig;
/// use perfvar_trace::format::cursor::ArchiveCursor;
/// use perfvar_trace::format::write_trace_file;
/// use perfvar_trace::{Clock, FunctionRole, Timestamp, TraceBuilder};
///
/// // Four ranks, eight iterations each, written as a PVTA archive.
/// let mut b = TraceBuilder::new(Clock::microseconds()).with_name("parts");
/// let f = b.define_function("iteration", FunctionRole::Compute);
/// for pi in 0..4u64 {
///     let p = b.define_process(format!("rank {pi}"));
///     let w = b.process_mut(p);
///     for k in 0..8u64 {
///         w.enter(Timestamp(k * 10), f).unwrap();
///         w.leave(Timestamp(k * 10 + 4 + pi % 2), f).unwrap();
///     }
/// }
/// let trace = b.finish().unwrap();
/// let dir = std::env::temp_dir().join("perfvar-part-doc.pvta");
/// write_trace_file(&trace, &dir).unwrap();
///
/// // Analyse ranks {0, 1} and {2, 3} independently — this could happen
/// // in two different worker processes — and merge the two partials.
/// let config = AnalysisConfig::default();
/// let left = archive_part(&dir, &config, RecoveryMode::Strict, 0..2).unwrap();
/// let right = archive_part(&dir, &config, RecoveryMode::Strict, 2..4).unwrap();
/// let merged = AnalysisPart::empty().merge(left).merge(right);
/// assert_eq!(merged.num_ranks(), 4);
///
/// // Finalizing the union reproduces the single-process analysis bit
/// // for bit.
/// let cursor = ArchiveCursor::open(&dir).unwrap();
/// let outcome = merged
///     .finalize(cursor.name(), cursor.clock(), cursor.registry(), &config)
///     .unwrap();
/// let PartOutcome::Done(sharded) = outcome else {
///     panic!("an SPMD trace confirms its speculation");
/// };
/// assert_eq!(sharded.analysis, analyze_path(&dir, &config).unwrap());
/// ```
#[derive(Debug)]
pub struct AnalysisPart {
    /// `None` only for the empty part — it adopts the other side's shape
    /// on merge.
    shape: Option<Shape>,
    ranks: BTreeMap<usize, RankPart>,
    counters: Counters,
}

/// What [`AnalysisPart::finalize`] produced.
#[derive(Debug)]
pub enum PartOutcome {
    /// The speculation was confirmed; the analysis is complete (with
    /// [`passes`](OutOfCoreAnalysis::passes) set to `1` — a driver that
    /// re-passed should overwrite it).
    Done(Box<OutOfCoreAnalysis>),
    /// The global dominant ranking disagreed with the speculative
    /// target the parts were built for. The part comes back untouched;
    /// re-run the shards with `expected` as the explicit
    /// [`AnalysisConfig::segment_function`] override (which cannot
    /// mispredict) and finalize the new union.
    Mispredicted {
        /// The function the segmentation must actually use.
        expected: FunctionId,
        /// The surviving part, returned so a driver with cheap fused
        /// re-pass access (same process, open cursor) can patch it via
        /// the crate-internal hooks instead of recomputing profiles.
        part: AnalysisPart,
    },
}

impl AnalysisPart {
    /// The two-sided identity of [`merge`](AnalysisPart::merge): covers
    /// no ranks, counts nothing, and adopts the other side's shape.
    pub fn empty() -> AnalysisPart {
        AnalysisPart {
            shape: None,
            ranks: BTreeMap::new(),
            counters: Counters::default(),
        }
    }

    /// Whether this part covers no ranks at all.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Number of ranks this part covers (including failed ones).
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// The rank indices this part covers, in ascending order.
    pub fn rank_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.ranks.keys().copied()
    }

    /// Pipeline throughput counters accumulated while producing this
    /// part (events replayed, bytes decoded, segments emitted, SOS
    /// clamps, recovered ranks). Sums across [`merge`]: the union's
    /// counters equal the sum of the pieces', so a coordinator can
    /// report shard totals without a shared telemetry sink.
    ///
    /// [`merge`]: AnalysisPart::merge
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Combines two parts over disjoint rank sets of the same analysis.
    ///
    /// Associative and commutative with [`AnalysisPart::empty`] as the
    /// identity — see the [module docs](self) for why these hold bit-
    /// exactly.
    ///
    /// # Panics
    ///
    /// If both parts cover a common rank, or their shapes disagree
    /// (parts of different traces, registries, or configs).
    pub fn merge(mut self, other: AnalysisPart) -> AnalysisPart {
        match (&self.shape, &other.shape) {
            (Some(a), Some(b)) => assert_eq!(
                a, b,
                "merged parts must share one trace shape and speculation target"
            ),
            (None, Some(b)) => self.shape = Some(*b),
            _ => {}
        }
        for (index, rank) in other.ranks {
            let clash = self.ranks.insert(index, rank);
            assert!(
                clash.is_none(),
                "rank {index} is covered by both parts; merge needs disjoint rank sets"
            );
        }
        self.counters.merge(&other.counters);
        self
    }

    /// Turns a complete union of parts into the final analysis.
    ///
    /// `trace_name`, `clock` and `registry` come from the archive header
    /// (e.g. an [`ArchiveCursor`]); `config` must be the config the
    /// parts were built with. The part must cover *every* rank of the
    /// trace, exactly once.
    ///
    /// Computes the global [`ProfileTable`] and dominant ranking from
    /// the per-rank rows, verifies the speculation target shared by the
    /// parts, and either assembles the [`OutOfCoreAnalysis`]
    /// ([`PartOutcome::Done`]) or returns the part with the true
    /// function ([`PartOutcome::Mispredicted`]).
    ///
    /// # Panics
    ///
    /// If the covered ranks are not exactly `0..registry.num_processes()`.
    pub fn finalize(
        self,
        trace_name: &str,
        clock: Clock,
        registry: &Registry,
        config: &AnalysisConfig,
    ) -> Result<PartOutcome, PathAnalysisError> {
        let np = registry.num_processes();
        assert_eq!(
            self.ranks.len(),
            np,
            "finalize needs all {np} ranks; this part covers {}",
            self.ranks.len()
        );
        assert!(
            self.ranks.keys().copied().eq(0..np),
            "finalize needs ranks 0..{np} exactly once"
        );
        let nf = registry.num_functions();
        let modes = metric_modes(registry, config.analyze_counters);
        if let Some(shape) = &self.shape {
            assert_eq!(
                (shape.num_functions, shape.num_metrics),
                (nf, modes.len()),
                "part shape disagrees with the registry/config it is finalized against"
            );
        }

        // Global profiles and ranking from the still-per-rank rows (the
        // BTreeMap iterates in rank order, whatever the merge order was).
        let profiles = ProfileTable::from_rows(nf, self.ranks.values().map(|r| &r.rows));
        let ranking =
            DominantRanking::with_multiplier_for(np, &profiles, config.dominant_multiplier);
        let dominant = ranking.selection();
        let function = segmentation_function(registry, &dominant, config)?;
        if self.shape.is_some_and(|s| s.target != function) {
            return Ok(PartOutcome::Mispredicted {
                expected: function,
                part: self,
            });
        }

        let ranks = self.ranks.values();
        let meta = TraceMeta {
            name: trace_name.to_string(),
            clock,
            registry: registry.clone(),
            num_events: ranks.clone().map(|r| r.num_events).sum(),
            begin: ranks
                .clone()
                .filter_map(|r| r.first)
                .min()
                .unwrap_or_default(),
            end: ranks.filter_map(|r| r.last).max().unwrap_or_default(),
        };
        let mut failures = Vec::new();
        let mut fused_partials = Vec::with_capacity(np);
        for (index, rank) in self.ranks {
            fused_partials.push(rank.fused);
            if let Some(error) = rank.failure {
                failures.push(StreamFailure {
                    process: ProcessId::from_index(index),
                    error,
                });
            }
        }
        let fused = merge_fused(registry, function, &modes, fused_partials);
        let analysis = assemble(
            meta.name.clone(),
            config,
            dominant,
            function,
            profiles,
            fused.segmentation,
            fused.counters,
        );
        Ok(PartOutcome::Done(Box::new(OutOfCoreAnalysis {
            analysis,
            meta,
            failures,
            passes: 1,
        })))
    }

    /// An empty part pinned to a shape (drivers start from this and add
    /// ranks).
    pub(crate) fn for_shape(
        num_functions: usize,
        num_metrics: usize,
        target: FunctionId,
    ) -> AnalysisPart {
        AnalysisPart {
            shape: Some(Shape {
                num_functions,
                num_metrics,
                target,
            }),
            ranks: BTreeMap::new(),
            counters: Counters::default(),
        }
    }

    /// Adds one successfully streamed rank and the counters spent on it.
    pub(crate) fn add_rank(&mut self, index: usize, rank: RankPart, counters: &Counters) {
        self.counters.merge(counters);
        let clash = self.ranks.insert(index, rank);
        assert!(clash.is_none(), "rank {index} added twice");
    }

    /// Adds one unreadable rank: it contributes exactly what an empty
    /// stream would, plus the failure record.
    pub(crate) fn add_failed_rank(&mut self, index: usize, error: TraceError) {
        let shape = self.shape.expect("failed ranks need a shaped part");
        let rank = RankPart {
            rows: vec![ProfileRow::default(); shape.num_functions],
            fused: empty_fused(shape.num_metrics),
            num_events: 0,
            first: None,
            last: None,
            failure: Some(error),
        };
        let counters = Counters {
            recovery_events: 1,
            ..Counters::default()
        };
        self.add_rank(index, rank, &counters);
    }

    /// Whether `index` is covered by a failure record.
    pub(crate) fn rank_failed(&self, index: usize) -> bool {
        self.ranks
            .get(&index)
            .is_some_and(|rank| rank.failure.is_some())
    }

    /// Replaces a rank's fused partial (the misprediction re-pass keeps
    /// the profile rows and extent of the combined pass). Counter totals
    /// are cumulative across passes, like the telemetry layer's.
    pub(crate) fn set_fused(&mut self, index: usize, fused: FusedPartial) {
        let rank = self.ranks.get_mut(&index).expect("rank exists");
        self.counters.segments_emitted += fused.0.len() as u64;
        rank.fused = fused;
    }

    /// Degrades a rank whose *re-pass* failed (the file changed between
    /// passes): empty fused contribution, failure recorded, but the
    /// combined pass's profile rows and extent stay — exactly what the
    /// fused-only re-pass semantics have always been.
    pub(crate) fn fail_rank_fused_only(&mut self, index: usize, error: TraceError, metrics: usize) {
        let rank = self.ranks.get_mut(&index).expect("rank exists");
        self.counters.recovery_events += 1;
        rank.fused = empty_fused(metrics);
        rank.failure = Some(error);
    }

    /// Re-pins the speculation target after a mispredict re-pass, so the
    /// next [`finalize`](AnalysisPart::finalize) verifies against the
    /// function the fused partials now actually describe.
    pub(crate) fn retarget(&mut self, target: FunctionId) {
        if let Some(shape) = &mut self.shape {
            shape.target = target;
        }
    }
}

/// Analyses a subset of an archive's ranks into an [`AnalysisPart`].
///
/// This is the shard worker's entry point: each worker streams only the
/// ranks it was given (one combined profile+fused pass per rank, work-
/// stolen across [`AnalysisConfig::threads`]) and the coordinator
/// [`merge`](AnalysisPart::merge)s the parts. The speculation target is
/// resolved *locally but deterministically* — from the explicit
/// [`AnalysisConfig::segment_function`] override when present, else from
/// the same bounded rank-0 prefix every other shard reads — so parts of
/// the same archive and config always share a shape.
///
/// In [`RecoveryMode::Strict`] the first unreadable rank aborts; in
/// [`RecoveryMode::Partial`] it is recorded in the part and contributes
/// like an empty stream.
///
/// # Panics
///
/// If `ranks` names an index outside `0..num_processes` or repeats one.
pub fn archive_part(
    path: impl AsRef<Path>,
    config: &AnalysisConfig,
    mode: RecoveryMode,
    ranks: impl IntoIterator<Item = usize>,
) -> Result<AnalysisPart, PathAnalysisError> {
    archive_part_observed(path, config, mode, ranks, &Telemetry::noop())
}

/// Like [`archive_part`] but recording telemetry (see
/// [`crate::telemetry`]); with [`Telemetry::noop`] this *is*
/// [`archive_part`].
pub fn archive_part_observed(
    path: impl AsRef<Path>,
    config: &AnalysisConfig,
    mode: RecoveryMode,
    ranks: impl IntoIterator<Item = usize>,
    telemetry: &Telemetry,
) -> Result<AnalysisPart, PathAnalysisError> {
    let cursor = ArchiveCursor::open_with(path.as_ref(), cursor_options(config))?;
    telemetry.set_read_buffer(config.read_buffer_bytes as u64);
    let np = cursor.num_processes();
    let ranks: Vec<usize> = ranks.into_iter().collect();
    for &rank in &ranks {
        assert!(
            rank < np,
            "rank {rank} out of range for an archive with {np} ranks"
        );
    }
    collect(&cursor, &ranks, config, mode, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outofcore::analyze_path_with;
    use perfvar_trace::format::{archive, write_trace_file};
    use perfvar_trace::{FunctionRole, MetricMode as Mode, Trace, TraceBuilder};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("perfvar-part-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Multi-rank trace with nested calls, a sync function, and metric
    /// channels of every mode — the same shape the out-of-core tests use.
    fn fixture(ranks: u64) -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds()).with_name("parts");
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

    fn archive_of(name: &str, ranks: u64) -> std::path::PathBuf {
        let dir = tmp(name);
        write_trace_file(&fixture(ranks), &dir).unwrap();
        dir
    }

    fn done(outcome: PartOutcome) -> OutOfCoreAnalysis {
        match outcome {
            PartOutcome::Done(done) => *done,
            PartOutcome::Mispredicted { .. } => panic!("SPMD fixture must confirm speculation"),
        }
    }

    fn finalize_at(dir: &Path, part: AnalysisPart, config: &AnalysisConfig) -> OutOfCoreAnalysis {
        let cursor = ArchiveCursor::open(dir).unwrap();
        done(
            part.finalize(cursor.name(), cursor.clock(), cursor.registry(), config)
                .unwrap(),
        )
    }

    #[test]
    fn empty_part_is_a_two_sided_merge_identity() {
        let dir = archive_of("identity.pvta", 3);
        let config = AnalysisConfig::default();
        let build = || archive_part(&dir, &config, RecoveryMode::Strict, 0..3).unwrap();
        let plain = build();
        let left = AnalysisPart::empty().merge(build());
        let right = build().merge(AnalysisPart::empty());
        assert_eq!(left.counters(), plain.counters());
        assert_eq!(right.counters(), plain.counters());
        let reference = finalize_at(&dir, plain, &config);
        assert_eq!(
            finalize_at(&dir, left, &config).analysis,
            reference.analysis
        );
        assert_eq!(
            finalize_at(&dir, right, &config).analysis,
            reference.analysis
        );
        assert!(AnalysisPart::empty().is_empty());
        assert_eq!(
            AnalysisPart::empty()
                .merge(AnalysisPart::empty())
                .num_ranks(),
            0
        );
    }

    #[test]
    fn single_rank_parts_merge_to_the_full_analysis() {
        let dir = archive_of("singles.pvta", 4);
        let config = AnalysisConfig::default();
        let mut merged = AnalysisPart::empty();
        // Deliberately out of order: 2, 0, 3, 1.
        for rank in [2usize, 0, 3, 1] {
            let single = archive_part(&dir, &config, RecoveryMode::Strict, [rank]).unwrap();
            assert_eq!(single.num_ranks(), 1);
            assert_eq!(single.rank_indices().collect::<Vec<_>>(), vec![rank]);
            merged = merged.merge(single);
        }
        let sharded = finalize_at(&dir, merged, &config);
        let reference = analyze_path_with(&dir, &config, RecoveryMode::Strict).unwrap();
        assert_eq!(sharded.analysis, reference.analysis);
        assert_eq!(sharded.meta, reference.meta);
    }

    #[test]
    fn partial_recovery_part_merges_with_intact_shards() {
        let dir = archive_of("recovery.pvta", 4);
        // Truncate rank 1's stream: the shard holding it must degrade in
        // Partial mode while the other shard stays intact.
        let stream1 = dir.join(archive::stream_file(1));
        let bytes = std::fs::read(&stream1).unwrap();
        std::fs::write(&stream1, &bytes[..bytes.len() - 7]).unwrap();

        let config = AnalysisConfig::default();
        let damaged = archive_part(&dir, &config, RecoveryMode::Partial, 0..2).unwrap();
        assert!(damaged.rank_failed(1));
        assert!(!damaged.rank_failed(0));
        assert_eq!(damaged.counters().recovery_events, 1);
        let intact = archive_part(&dir, &config, RecoveryMode::Strict, 2..4).unwrap();
        let sharded = finalize_at(&dir, damaged.merge(intact), &config);

        let reference = analyze_path_with(&dir, &config, RecoveryMode::Partial).unwrap();
        assert!(reference.is_partial());
        assert_eq!(sharded.analysis, reference.analysis);
        assert_eq!(sharded.meta, reference.meta);
        assert_eq!(sharded.failures.len(), 1);
        assert_eq!(sharded.failures[0].process, reference.failures[0].process);
        assert_eq!(
            sharded.failures[0].error.to_string(),
            reference.failures[0].error.to_string()
        );
    }

    #[test]
    fn counters_sum_across_shards() {
        let dir = archive_of("counters.pvta", 4);
        let config = AnalysisConfig::default();
        let shard = |ranks: std::ops::Range<usize>| {
            archive_part(&dir, &config, RecoveryMode::Strict, ranks).unwrap()
        };
        let whole = shard(0..4);
        assert!(whole.counters().events_replayed > 0);
        assert!(whole.counters().bytes_decoded > 0);
        assert!(whole.counters().segments_emitted > 0);
        let mut summed = Counters::default();
        let mut merged = AnalysisPart::empty();
        for piece in [shard(0..1), shard(1..3), shard(3..4)] {
            summed.merge(piece.counters());
            merged = merged.merge(piece);
        }
        assert_eq!(&summed, whole.counters());
        assert_eq!(merged.counters(), whole.counters());
    }

    /// The coordinator protocol in miniature: two workers build parts
    /// into one shared telemetry sink and the merged union finalizes to
    /// the single-process analysis.
    #[test]
    fn sharded_driver_matches_and_reports_shard_telemetry() {
        let dir = archive_of("driver.pvta", 4);
        let config = AnalysisConfig::default();
        let telemetry = Telemetry::enabled();
        let shard = |ranks: std::ops::Range<usize>| {
            archive_part_observed(&dir, &config, RecoveryMode::Strict, ranks, &telemetry).unwrap()
        };
        let merged = shard(2..4).merge(shard(0..2));
        let sharded = finalize_at(&dir, merged, &config);
        let reference = analyze_path_with(&dir, &config, RecoveryMode::Strict).unwrap();
        assert_eq!(sharded.analysis, reference.analysis);
        assert_eq!(sharded.meta, reference.meta);
        assert_eq!(sharded.passes, 1);
        // The workers feed the shared sink exactly like the single-process
        // driver does — except that every worker reads the rank-0
        // prediction prefix, so replayed events can only grow.
        let observed = Telemetry::enabled();
        crate::outofcore::analyze_path_observed(&dir, &config, RecoveryMode::Strict, &observed)
            .unwrap();
        let a = telemetry.snapshot().unwrap();
        let b = observed.snapshot().unwrap();
        assert_eq!(a.totals.segments_emitted, b.totals.segments_emitted);
        assert!(a.totals.events_replayed >= b.totals.events_replayed);
        assert_eq!(a.totals.recovery_events, 0);
    }

    #[test]
    #[should_panic(expected = "disjoint rank sets")]
    fn overlapping_parts_refuse_to_merge() {
        let dir = archive_of("overlap.pvta", 3);
        let config = AnalysisConfig::default();
        let a = archive_part(&dir, &config, RecoveryMode::Strict, 0..2).unwrap();
        let b = archive_part(&dir, &config, RecoveryMode::Strict, 1..3).unwrap();
        let _ = a.merge(b);
    }

    #[test]
    #[should_panic(expected = "speculation target")]
    fn mismatched_shapes_refuse_to_merge() {
        let dir = archive_of("shapes.pvta", 3);
        let config = AnalysisConfig::default();
        let pinned = AnalysisConfig {
            segment_function: Some("inner".into()),
            ..AnalysisConfig::default()
        };
        let a = archive_part(&dir, &config, RecoveryMode::Strict, 0..2).unwrap();
        let b = archive_part(&dir, &pinned, RecoveryMode::Strict, 2..3).unwrap();
        let _ = a.merge(b);
    }
}
