//! Live incremental analysis of a growing trace.
//!
//! [`LiveAnalysis`] follows a `.pvta` archive that is still being
//! written (see `perfvar_trace::format::live`) and keeps the *same*
//! streaming pipeline the batch path runs, fed one
//! [`poll`](LiveAnalysis::poll) at a time: each rank is one of the
//! driver's resumable folds (a replay machine feeding the combined
//! profile + segmentation sink), kept open across polls. Each poll
//! decodes only the newly appended bytes and returns a [`LiveDelta`]:
//! the events and segments that appeared since the previous poll, plus
//! the rolling prefix-digest fingerprint that identifies the consumed
//! prefix (the daemon keys SSE resume tokens on it).
//!
//! Once the writer seals the run, [`finalize`](LiveAnalysis::finalize)
//! closes and assembles the folds as the batch combined pass does and
//! completes the part with the driver — including the misprediction
//! re-pass, which re-reads the (now batch-readable) archive on
//! [`AnalysisConfig::threads`] workers. The outcome is therefore
//! **bit-identical** to a one-shot
//! [`analyze_path`](crate::outofcore::analyze_path) of the finished
//! archive, no matter how the appends were chunked; the property test
//! at the bottom of this module proves it for arbitrary chunkings.
//!
//! # Speculation in a live setting
//!
//! The batch driver predicts the dominant function from a bounded
//! rank-0 prefix before streaming. A live reader cannot re-read, so it
//! instead *buffers* decoded records until rank 0 has delivered that
//! same prefix (or the run seals first), predicts from the buffer, then
//! replays the buffer into the real sinks and streams on. Because part
//! finalization verifies the speculation against the global profile and
//! re-passes on a mismatch, the final analysis does not depend on which
//! function was predicted — only the number of passes does.
//!
//! # Errors
//!
//! A torn append on a sealed archive (or any mid-stream corruption)
//! surfaces as a typed `TraceError::CorruptStream` carrying the rank
//! and byte offset on the [`LiveDelta`]; the affected rank stops
//! advancing while the remaining ranks keep streaming, and the last
//! good [`LiveSnapshot`] stays available; the tail keeps each rank's
//! progress ([`ArchiveTail::progress`]). [`finalize`](LiveAnalysis::finalize)
//! refuses to run while the run is unsealed or any rank is poisoned.

use crate::driver::{
    close_combined, complete, speculation_target, CombinedPass, CombinedSink, Predictor, RankFold,
    RankRead, PREDICT_PREFIX_EVENTS,
};
use crate::outofcore::{cursor_options, OutOfCoreAnalysis, PathAnalysisError, RecoveryMode};
use crate::profile::ProfileTable;
use crate::report::AnalysisConfig;
use crate::segment::Segment;
use crate::telemetry::{Stage, Telemetry};
use perfvar_trace::format::cursor::ArchiveCursor;
use perfvar_trace::format::live::ArchiveTail;
use perfvar_trace::{EventRecord, FunctionId, ProcessId, Registry, Timestamp, TraceError};
use std::path::Path;

/// What one [`LiveAnalysis::poll`] changed.
#[derive(Debug, Default)]
pub struct LiveDelta {
    /// Events decoded by this poll, across all ranks.
    pub new_events: u64,
    /// Newly consumed payload bytes, across all ranks.
    pub new_bytes: u64,
    /// Segments of the (predicted) dominant function that closed for
    /// good during this poll, in (rank, enter) order. Empty until the
    /// speculation target is resolved.
    pub new_segments: Vec<Segment>,
    /// Ranks whose profile rows or extent advanced during this poll.
    pub touched_ranks: Vec<usize>,
    /// Whether the end-of-run marker has been observed (monotone:
    /// stays `true` on every later poll).
    pub finished: bool,
    /// Prefix-digest fingerprint of everything consumed so far — two
    /// readers that consumed the same prefix agree on it regardless of
    /// append chunking, so it keys resumable delta streams.
    pub fingerprint: u128,
    /// The tail's stream error (e.g. a sealed archive ending inside a
    /// record): the lowest failed rank's, reported again on every later
    /// poll. The offending rank stops advancing; other ranks continue.
    /// Once any rank is poisoned, [`LiveAnalysis::finalize`] refuses.
    pub error: Option<TraceError>,
}

/// Per-rank progress for [`LiveSnapshot`].
#[derive(Clone, Debug)]
pub struct RankSnapshot {
    /// Events delivered for this rank so far.
    pub events: u64,
    /// Payload bytes consumed for this rank so far.
    pub bytes: u64,
    /// Segments closed for good on this rank.
    pub segments: usize,
    /// Sum of closed-segment durations (ticks).
    pub duration_total: u64,
    /// Sum of closed-segment SOS-times (ticks).
    pub sos_total: u64,
    /// Timestamp of the newest event seen on this rank.
    pub last: Option<Timestamp>,
    /// Whether this rank hit a stream error and stopped advancing.
    pub poisoned: bool,
}

/// Aggregated per-function profile totals across all ranks (only
/// populated once the speculation target is resolved and the sinks are
/// live).
#[derive(Clone, Debug)]
pub struct FunctionTotal {
    /// The function.
    pub function: FunctionId,
    /// Its registry name.
    pub name: String,
    /// Completed invocations so far.
    pub count: u64,
    /// Inclusive ticks so far.
    pub inclusive: u64,
    /// Exclusive ticks so far.
    pub exclusive: u64,
}

/// A point-in-time view of a live run: per-rank progress plus the
/// aggregated profile. Cheap to build (no replay, no I/O).
#[derive(Clone, Debug)]
pub struct LiveSnapshot {
    /// The trace name from the archive anchor.
    pub name: String,
    /// Whether the end-of-run marker has been observed.
    pub finished: bool,
    /// The segmentation target, once resolved (prediction or explicit
    /// override). `None` while still buffering the prediction prefix.
    pub target: Option<FunctionId>,
    /// Total events delivered across all ranks.
    pub events: u64,
    /// Total payload bytes consumed across all ranks.
    pub bytes: u64,
    /// Prefix-digest fingerprint of the consumed prefix.
    pub fingerprint: u128,
    /// Per-rank progress, indexed by rank.
    pub ranks: Vec<RankSnapshot>,
    /// Per-function profile totals, sorted by inclusive time
    /// descending. Empty until the target is resolved.
    pub functions: Vec<FunctionTotal>,
}

/// Incremental analysis over a growing `.pvta` archive.
///
/// ```no_run
/// use perfvar_analysis::live::LiveAnalysis;
/// use perfvar_analysis::prelude::*;
///
/// let mut live = LiveAnalysis::open("run.pvta", AnalysisConfig::default()).unwrap();
/// loop {
///     let delta = live.poll();
///     // ... render delta / live.snapshot() ...
///     if delta.finished {
///         break;
///     }
///     std::thread::sleep(std::time::Duration::from_millis(200));
/// }
/// let analysis = live.finalize().unwrap().analysis;
/// ```
pub struct LiveAnalysis {
    /// The tail, which also keeps each rank's progress.
    tail: ArchiveTail,
    config: AnalysisConfig,
    /// The combined pass for the resolved speculation target; `None`
    /// while buffering.
    pass: Option<CombinedPass>,
    /// Phase-1 record buffers, one per rank; drained on resolution.
    pending: Vec<Vec<EventRecord>>,
    /// One open fold per rank; empty until the target resolves.
    folds: Vec<RankFold<CombinedSink>>,
    finished: bool,
}

impl LiveAnalysis {
    /// Opens a (possibly still empty-ish) live archive for incremental
    /// analysis. The anchor must exist; stream files may appear later.
    ///
    /// An explicit [`AnalysisConfig::segment_function`] override is
    /// resolved immediately (erroring on an unknown name); otherwise
    /// the target is predicted from the rank-0 prefix once enough of it
    /// has streamed in.
    pub fn open(
        dir: impl AsRef<Path>,
        config: AnalysisConfig,
    ) -> Result<LiveAnalysis, PathAnalysisError> {
        let tail = ArchiveTail::open(dir)?;
        let np = tail.num_processes();
        let mut live = LiveAnalysis {
            tail,
            config,
            pass: None,
            pending: vec![Vec::new(); np],
            folds: Vec::new(),
            finished: false,
        };
        if live.config.segment_function.is_some() {
            let target = speculation_target(live.tail.registry(), &live.config, || None)?;
            live.resolve(target);
        }
        Ok(live)
    }

    /// The registry from the archive anchor.
    pub fn registry(&self) -> &Registry {
        self.tail.registry()
    }

    /// Number of ranks (processes) in the run.
    pub fn num_processes(&self) -> usize {
        self.tail.num_processes()
    }

    /// Whether the end-of-run marker has been observed by a poll.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The resolved segmentation target, if any yet.
    pub fn target(&self) -> Option<FunctionId> {
        self.pass.as_ref().map(|pass| pass.target)
    }

    /// Switches from buffering to streaming: opens one fold per rank for
    /// `target` and replays the buffered records into it.
    fn resolve(&mut self, target: FunctionId) {
        let registry = self.tail.registry();
        let pass = CombinedPass::new(registry, &self.config, target);
        self.folds = (self.pending.iter_mut().enumerate())
            .map(|(i, pending)| {
                let mut fold = RankFold::new(registry, pass.sink(ProcessId::from_index(i)));
                fold.step(&std::mem::take(pending));
                fold
            })
            .collect();
        self.pass = Some(pass);
    }

    /// Decodes everything appended since the last poll and folds it
    /// into the running analysis. Non-blocking: returns an empty delta
    /// when nothing new arrived.
    pub fn poll(&mut self) -> LiveDelta {
        let reported: Vec<usize> = (0..self.num_processes())
            .map(|i| self.closed_segments(i).len())
            .collect();
        let tail_delta = self.tail.poll();
        self.finished |= tail_delta.finished;
        let mut delta = LiveDelta {
            new_bytes: tail_delta.new_bytes,
            finished: self.finished,
            error: tail_delta.error,
            ..LiveDelta::default()
        };
        for (pid, records) in tail_delta.records {
            let i = pid.index();
            delta.new_events += records.len() as u64;
            delta.touched_ranks.push(i);
            match self.folds.get_mut(i) {
                Some(fold) => fold.step(&records),
                None => self.pending[i].extend(records),
            }
        }

        // Resolve the speculation target once rank 0 has delivered the
        // prediction prefix — or at end of run, with whatever arrived.
        if self.pass.is_none()
            && !self.pending.is_empty()
            && (self.finished || self.tail.consumed(ProcessId(0)) >= PREDICT_PREFIX_EVENTS as u64)
        {
            // The same bounded rank-0 prefix the batch driver predicts
            // from, so both paths speculate identically on the same bytes.
            let registry = self.tail.registry();
            let mut predictor = Predictor::new(registry);
            predictor.feed(&self.pending[0]);
            let target =
                speculation_target(registry, &self.config, || predictor.predict(&self.config))
                    .expect("no explicit override at this point, so resolution cannot fail");
            self.resolve(target);
        }

        // Report segments that closed for good this poll, in rank order.
        for (i, &before) in reported.iter().enumerate() {
            delta
                .new_segments
                .extend_from_slice(&self.closed_segments(i)[before..]);
        }
        delta.fingerprint = self.tail.prefix_digest().fingerprint();
        delta
    }

    /// Segments closed for good on `rank` so far, in enter order.
    /// Empty while the speculation target is still unresolved.
    pub fn closed_segments(&self, rank: usize) -> &[Segment] {
        let Some(fold) = self.folds.get(rank) else {
            return &[];
        };
        let fused = &fold.sink.fused;
        &fused.segments()[..fused.first_open().unwrap_or(fused.segments().len())]
    }

    /// A point-in-time view of the run. Always reflects the last good
    /// state: poisoned ranks freeze, healthy ranks keep advancing.
    pub fn snapshot(&self) -> LiveSnapshot {
        let registry = self.tail.registry();
        let ranks: Vec<RankSnapshot> = (0..registry.num_processes())
            .map(|i| {
                let progress = self.tail.progress(ProcessId::from_index(i));
                let closed = self.closed_segments(i);
                RankSnapshot {
                    events: progress.records,
                    bytes: self.tail.prefix_digest().consumed(i),
                    segments: closed.len(),
                    duration_total: closed.iter().map(|s| s.duration().0).sum(),
                    sos_total: closed.iter().map(|s| s.sos().0).sum(),
                    last: progress.last,
                    poisoned: progress.failed,
                }
            })
            .collect();
        let profiles = ProfileTable::from_rows(
            registry.num_functions(),
            self.folds.iter().map(|fold| &fold.sink.profile.rows),
        );
        let functions = (profiles.by_inclusive_desc().into_iter())
            .map(|function| {
                let profile = profiles.get(function);
                FunctionTotal {
                    function,
                    name: registry.function_name(function).to_string(),
                    count: profile.count,
                    inclusive: profile.inclusive.0,
                    exclusive: profile.exclusive.0,
                }
            })
            .collect();
        LiveSnapshot {
            name: self.tail.name().to_string(),
            finished: self.finished,
            target: self.target(),
            events: ranks.iter().map(|r| r.events).sum(),
            bytes: ranks.iter().map(|r| r.bytes).sum(),
            fingerprint: self.tail.prefix_digest().fingerprint(),
            ranks,
            functions,
        }
    }

    /// [`finalize_observed`](Self::finalize_observed) without recording.
    pub fn finalize(self) -> Result<OutOfCoreAnalysis, PathAnalysisError> {
        self.finalize_observed(&Telemetry::noop())
    }

    /// Assembles the final analysis of the sealed run.
    ///
    /// Bit-identical to a one-shot
    /// [`analyze_path_with`](crate::outofcore::analyze_path_with) of
    /// the finished archive, regardless of how the appends were
    /// chunked: every rank's fold closes and the part assembles as in
    /// the batch combined pass, and a misprediction re-passes the (now
    /// batch-readable) archive with the true function — the batch
    /// driver's own completion step runs it.
    ///
    /// `telemetry` counts the run as a batch analysis counts one: the
    /// prediction prefix in the profile stage, the folds in the fuse
    /// stage (their payload bytes; the polls that fed them are not
    /// timed), assembly and any re-pass through the driver. Totals other
    /// than `bytes_decoded` equal those of
    /// [`analyze_path_observed`](crate::outofcore::analyze_path_observed)
    /// on the finished archive.
    ///
    /// Errors if the run has not sealed yet (poll until
    /// [`LiveDelta::finished`]) or if any rank was poisoned by a stream
    /// error.
    pub fn finalize_observed(
        self,
        telemetry: &Telemetry,
    ) -> Result<OutOfCoreAnalysis, PathAnalysisError> {
        let ranks: Vec<usize> = (0..self.num_processes()).collect();
        let poisoned = (ranks.iter()).any(|&i| self.tail.progress(ProcessId::from_index(i)).failed);
        if !self.finished || poisoned {
            let why = match self.finished {
                false => "the end-of-run marker has not been observed",
                true => "a stream error poisoned the run",
            };
            let error = TraceError::Corrupt(format!("live analysis cannot finalize: {why}"));
            return Err(error.into());
        }
        let pass = self.pass.expect("a sealed run has resolved its target");
        if self.config.segment_function.is_none() {
            // The rank-0 prefix the target was predicted from.
            let prefix = self.tail.consumed(ProcessId(0));
            let mut w = telemetry.worker(Stage::Profile);
            w.events(prefix.min(PREDICT_PREFIX_EVENTS as u64));
        }
        telemetry.begin_ranks(Stage::Fuse, ranks.len());
        let results = {
            let _span = telemetry.span(Stage::Fuse);
            let close = close_combined(telemetry);
            let digest = self.tail.prefix_digest();
            let payload = |i| RankRead {
                bytes: digest.consumed(i),
                ..RankRead::default()
            };
            (self.folds.into_iter().enumerate())
                .map(|(i, fold)| Ok(fold.close(payload(i), &close)))
                .collect()
        };
        let part = pass.assemble(&ranks, results, RecoveryMode::Strict, telemetry)?;
        let cursor = ArchiveCursor::open_with(self.tail.dir(), cursor_options(&self.config))?;
        complete(part, &cursor, &self.config, RecoveryMode::Strict, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outofcore::{analyze_path_with, RecoveryMode};
    use perfvar_trace::format::live::LiveArchiveWriter;
    use perfvar_trace::registry::FunctionRole;
    use perfvar_trace::trace::{Trace, TraceBuilder};
    use perfvar_trace::Clock;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("perfvar-analysis-live-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    fn sample(ranks: usize, iterations: u64) -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds()).with_name("live analysis sample");
        let work = b.define_function("work", FunctionRole::Compute);
        let inner = b.define_function("kernel", FunctionRole::Compute);
        let mpi = b.define_function("MPI_Barrier", FunctionRole::MpiCollective);
        for pi in 0..ranks {
            let p = b.define_process(format!("rank {pi}"));
            let w = b.process_mut(p);
            let mut t = pi as u64;
            for k in 0..iterations {
                w.enter(Timestamp(t), work).unwrap();
                t += 3;
                w.enter(Timestamp(t), inner).unwrap();
                t += 2 + (k % 3) + pi as u64;
                w.leave(Timestamp(t), inner).unwrap();
                t += 1;
                w.enter(Timestamp(t), mpi).unwrap();
                t += 2;
                w.leave(Timestamp(t), mpi).unwrap();
                w.leave(Timestamp(t), work).unwrap();
                t += 1;
            }
        }
        b.finish().unwrap()
    }

    /// A trace whose rank-0 prefix is dominated by a different function
    /// than the full run: rank 0 spends its time in `decoy` while every
    /// other rank hammers `work`, so prefix speculation mispredicts and
    /// the finalize re-pass must run.
    fn adversarial(ranks: usize, iterations: u64) -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds()).with_name("live adversarial");
        let work = b.define_function("work", FunctionRole::Compute);
        let decoy = b.define_function("decoy", FunctionRole::Compute);
        for pi in 0..ranks {
            let p = b.define_process(format!("rank {pi}"));
            let w = b.process_mut(p);
            let f = if pi == 0 { decoy } else { work };
            let mut t = 0u64;
            for _ in 0..iterations {
                w.enter(Timestamp(t), f).unwrap();
                t += 10;
                w.leave(Timestamp(t), f).unwrap();
                t += 1;
                w.enter(Timestamp(t), work).unwrap();
                t += 1;
                w.leave(Timestamp(t), work).unwrap();
                t += 1;
            }
        }
        b.finish().unwrap()
    }

    /// The deltas of a sealed live run, folded.
    #[derive(Default)]
    struct Folded {
        events: u64,
        bytes: u64,
        segments: Vec<Segment>,
    }

    impl Folded {
        fn fold(&mut self, delta: LiveDelta) {
            assert!(delta.error.is_none(), "{:?}", delta.error);
            self.events += delta.new_events;
            self.bytes += delta.new_bytes;
            self.segments.extend(delta.new_segments);
        }
    }

    /// Drives `trace` through a live writer in `chunk`-record slices
    /// per rank per flush, polling `live` after every flush, then seals
    /// the run and returns the sealed live analysis with its folded
    /// deltas.
    fn feed_live(
        trace: &Trace,
        dir: &Path,
        chunk: usize,
        config: &AnalysisConfig,
    ) -> (LiveAnalysis, Folded) {
        let mut w =
            LiveArchiveWriter::create(dir, &trace.name, trace.clock(), trace.registry()).unwrap();
        let mut live = LiveAnalysis::open(dir, config.clone()).unwrap();
        let mut offsets = vec![0usize; trace.num_processes()];
        let mut folded = Folded::default();
        loop {
            let mut wrote = false;
            for (i, stream) in trace.streams().iter().enumerate() {
                let records = stream.records();
                let end = (offsets[i] + chunk).min(records.len());
                for r in &records[offsets[i]..end] {
                    w.append(stream.process, r).unwrap();
                }
                wrote |= end > offsets[i];
                offsets[i] = end;
            }
            if !wrote {
                break;
            }
            w.flush().unwrap();
            folded.fold(live.poll());
        }
        w.finish().unwrap();
        let delta = live.poll();
        assert!(delta.finished);
        folded.fold(delta);
        (live, folded)
    }

    /// [`feed_live`], finalized: the folded deltas (events, segments)
    /// plus the final result.
    fn run_live(
        trace: &Trace,
        dir: &Path,
        chunk: usize,
        config: &AnalysisConfig,
    ) -> (u64, Vec<Segment>, OutOfCoreAnalysis) {
        let (live, folded) = feed_live(trace, dir, chunk, config);
        (folded.events, folded.segments, live.finalize().unwrap())
    }

    #[test]
    fn snapshot_counts_payload_bytes_of_finished_ranks() {
        let t = sample(3, 12);
        let dir = tmp("bytes.pvta");
        let (live, folded) = feed_live(&t, &dir, 5, &AnalysisConfig::default());
        let snapshot = live.snapshot();
        assert!(snapshot.finished);
        assert_eq!(snapshot.bytes, folded.bytes);
        for (i, rank) in snapshot.ranks.iter().enumerate() {
            // A stream file is its header (magic, one-byte rank index,
            // padded record count) followed by the record payload.
            let file = dir.join(perfvar_trace::format::archive::stream_file(i));
            let header = 4 + 1 + perfvar_trace::format::varint::PADDED_U64_BYTES as u64;
            let payload = std::fs::metadata(file).unwrap().len() - header;
            assert_eq!(rank.bytes, payload, "rank {i}");
            // The tail's record count survives the rank completing.
            let pid = ProcessId::from_index(i);
            assert_eq!(
                live.tail.consumed(pid),
                t.stream(pid).records().len() as u64
            );
        }
    }

    #[test]
    fn live_matches_one_shot_batch_analysis() {
        let t = sample(3, 40);
        let dir = tmp("match.pvta");
        let config = AnalysisConfig::default();
        let (events, segments, live) = run_live(&t, &dir, 7, &config);
        let batch = analyze_path_with(&dir, &config, RecoveryMode::Strict).unwrap();
        assert_eq!(live.analysis, batch.analysis);
        assert_eq!(live.meta, batch.meta);
        assert_eq!(events, live.meta.num_events);
        // Every closed segment the deltas reported is in the final
        // segmentation (the delta stream under-reports only in-flight
        // suffixes, never fabricates).
        for s in &segments {
            assert!(
                live.analysis.segmentation.process(s.process).contains(s),
                "{s:?}"
            );
        }
    }

    #[test]
    fn misprediction_repasses_and_stays_exact() {
        let t = adversarial(4, 30);
        let dir = tmp("mispredict.pvta");
        let config = AnalysisConfig::default();
        let (_, _, live) = run_live(&t, &dir, 5, &config);
        assert_eq!(live.passes, 2, "the decoy prefix must mispredict");
        let batch = analyze_path_with(&dir, &config, RecoveryMode::Strict).unwrap();
        assert_eq!(live.analysis, batch.analysis);
    }

    #[test]
    fn explicit_override_streams_single_pass() {
        let t = adversarial(4, 30);
        let dir = tmp("override.pvta");
        let config = AnalysisConfig {
            segment_function: Some("work".to_string()),
            ..AnalysisConfig::default()
        };
        let (_, _, live) = run_live(&t, &dir, 9, &config);
        assert_eq!(live.passes, 1);
        let batch = analyze_path_with(&dir, &config, RecoveryMode::Strict).unwrap();
        assert_eq!(live.analysis, batch.analysis);
    }

    #[test]
    fn unknown_override_fails_at_open() {
        let t = sample(2, 4);
        let dir = tmp("unknown.pvta");
        let w = LiveArchiveWriter::create(&dir, &t.name, t.clock(), t.registry()).unwrap();
        drop(w);
        let config = AnalysisConfig {
            segment_function: Some("no_such_function".to_string()),
            ..AnalysisConfig::default()
        };
        assert!(LiveAnalysis::open(&dir, config).is_err());
    }

    #[test]
    fn snapshot_tracks_progress_and_freezes_on_corruption() {
        let t = sample(2, 20);
        let dir = tmp("corrupt.pvta");
        // Resolve immediately so segments accrue from the first poll.
        let config = AnalysisConfig {
            segment_function: Some("work".to_string()),
            ..AnalysisConfig::default()
        };
        let mut w = LiveArchiveWriter::create(&dir, &t.name, t.clock(), t.registry()).unwrap();
        let mut live = LiveAnalysis::open(&dir, config).unwrap();
        // All of rank 0, and a balanced prefix of rank 1.
        let streams = t.streams();
        for r in streams[0].records() {
            w.append(streams[0].process, r).unwrap();
        }
        let half = streams[1].records().len() / 2;
        for r in &streams[1].records()[..half] {
            w.append(streams[1].process, r).unwrap();
        }
        w.flush().unwrap();
        let delta = live.poll();
        assert!(delta.new_events > 0);
        let good = live.snapshot();
        assert_eq!(good.ranks.len(), 2);
        assert!(good.ranks[0].segments > 0);
        assert!(good.functions.iter().any(|f| f.name == "work"));

        // Append the rest of rank 1, then tear its trailing bytes off
        // and seal: a torn append on a sealed archive.
        for r in &streams[1].records()[half..] {
            w.append(streams[1].process, r).unwrap();
        }
        w.flush().unwrap();
        drop(w);
        let stream1 = dir.join(perfvar_trace::format::archive::stream_file(1));
        let bytes = std::fs::read(&stream1).unwrap();
        std::fs::write(&stream1, &bytes[..bytes.len() - 2]).unwrap();
        perfvar_trace::format::live::mark_finished(&dir).unwrap();

        let delta = live.poll();
        assert!(
            matches!(
                delta.error,
                Some(TraceError::CorruptStream { process, .. }) if process.index() == 1
            ),
            "{:?}",
            delta.error
        );
        let after = live.snapshot();
        assert!(after.ranks[1].poisoned);
        assert!(!after.ranks[0].poisoned);
        // The last good rank-1 state is retained, never rolled back.
        assert!(after.ranks[1].segments >= good.ranks[1].segments);
        assert!(live.finalize().is_err());
    }

    #[test]
    fn every_torn_rank_is_poisoned_and_its_error_repeats_unchanged() {
        let t = sample(4, 12);
        let dir = tmp("torn-ranks.pvta");
        let mut w = LiveArchiveWriter::create(&dir, &t.name, t.clock(), t.registry()).unwrap();
        for stream in t.streams() {
            for r in stream.records() {
                w.append(stream.process, r).unwrap();
            }
        }
        w.flush().unwrap();
        drop(w);
        for rank in [1, 3] {
            let file = dir.join(perfvar_trace::format::archive::stream_file(rank));
            let bytes = std::fs::read(&file).unwrap();
            std::fs::write(&file, &bytes[..bytes.len() - 2]).unwrap();
        }
        perfvar_trace::format::live::mark_finished(&dir).unwrap();

        let mut live = LiveAnalysis::open(&dir, AnalysisConfig::default()).unwrap();
        let first = live.poll().error.expect("torn ranks fail the poll");
        let snapshot = live.snapshot();
        let poisoned: Vec<bool> = snapshot.ranks.iter().map(|r| r.poisoned).collect();
        assert_eq!(poisoned, [false, true, false, true]);
        for (i, rank) in snapshot.ranks.iter().enumerate() {
            // A failed rank keeps the records it delivered before the tear.
            let records = t.stream(ProcessId::from_index(i)).records();
            let delivered = records.len() - usize::from(rank.poisoned);
            assert_eq!(rank.events, delivered as u64, "rank {i}");
            assert_eq!(rank.last, Some(records[delivered - 1].time), "rank {i}");
        }
        // The failure is reported again, with the same text, on every
        // later poll: the one that finishes the run and the ones after.
        let first = first.to_string();
        assert!(!first.contains("corrupt trace data: corrupt"), "{first}");
        for _ in 0..2 {
            let delta = live.poll();
            assert!(delta.finished);
            assert_eq!(delta.error.map(|e| e.to_string()), Some(first.clone()));
        }
        assert!(live.finalize().is_err());
    }

    /// A sealed live run finalized with a recorder counts what the
    /// one-shot analysis of the finished archive counts: the same events,
    /// segments, clamped SOS values and passes.
    #[test]
    fn observed_finalize_counts_like_a_one_shot_analysis() {
        use crate::outofcore::analyze_path_observed;
        use crate::telemetry::PipelineStats;
        use perfvar_trace::format::archive::stream_file;
        let fixtures = [
            ("observed-sample.pvta", sample(3, 40), 1),
            ("observed-mispredict.pvta", adversarial(4, 30), 2),
        ];
        for (name, trace, passes) in fixtures {
            let dir = tmp(name);
            let config = AnalysisConfig::default();
            let (live, _) = feed_live(&trace, &dir, 7, &config);
            let payload: u64 = live.snapshot().ranks.iter().map(|r| r.bytes).sum();
            let observed = Telemetry::enabled();
            let live = live.finalize_observed(&observed).unwrap();
            let recorded = Telemetry::enabled();
            let batch =
                analyze_path_observed(&dir, &config, RecoveryMode::Strict, &recorded).unwrap();
            assert_eq!(live.analysis, batch.analysis);
            assert_eq!((live.passes, batch.passes), (passes, passes), "{name}");
            let (l, b) = (observed.snapshot().unwrap(), recorded.snapshot().unwrap());
            assert_eq!(l.totals.events_replayed, b.totals.events_replayed, "{name}");
            assert_eq!(
                l.totals.segments_emitted, b.totals.segments_emitted,
                "{name}"
            );
            assert_eq!(l.totals.sos_clamped, b.totals.sos_clamped, "{name}");
            // Bytes differ by design. The folds count the payload bytes
            // the polls consumed (Σ `RankSnapshot::bytes`), and the
            // prediction prefix was buffered, not read again. The batch
            // route counts each stream file whole, headers included, and
            // reads the prefix a second time. Any re-pass reads the same
            // files on both routes.
            let bytes = |s: &PipelineStats, stage| s.stage(stage).map_or(0, |s| s.bytes);
            let files: u64 = (0..trace.num_processes())
                .map(|i| std::fs::metadata(dir.join(stream_file(i))).unwrap().len())
                .sum();
            assert_eq!(bytes(&l, "profile"), 0, "{name}");
            assert_eq!(
                bytes(&b, "fuse") - bytes(&l, "fuse"),
                files - payload,
                "{name}"
            );
            if passes == 1 {
                assert_eq!(l.totals.bytes_decoded, payload, "{name}");
            }
        }
    }

    #[test]
    fn finalize_before_seal_is_refused() {
        let t = sample(2, 4);
        let dir = tmp("early.pvta");
        let _w = LiveArchiveWriter::create(&dir, &t.name, t.clock(), t.registry()).unwrap();
        let live = LiveAnalysis::open(&dir, AnalysisConfig::default()).unwrap();
        assert!(live.finalize().is_err());
    }

    mod chunking {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// THE live-analysis invariant: for an arbitrary split of
            /// the trace into append chunks, folding `poll()` deltas
            /// and finalizing is bit-identical to one-shot
            /// `analyze_path` of the finished archive.
            #[test]
            fn any_append_chunking_finalizes_bit_identical(
                ranks in 1usize..4,
                // ≥ 2 so the dominant function clears its `2p`
                // invocation floor on every generated shape.
                iterations in 2u64..30,
                chunk in 1usize..50,
            ) {
                let t = sample(ranks, iterations);
                let dir = tmp(&format!("prop-{ranks}-{iterations}-{chunk}.pvta"));
                let config = AnalysisConfig::default();
                let (_, _, live) = run_live(&t, &dir, chunk, &config);
                let batch = analyze_path_with(&dir, &config, RecoveryMode::Strict).unwrap();
                prop_assert_eq!(&live.analysis, &batch.analysis);
                prop_assert_eq!(&live.meta, &batch.meta);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
