//! Live incremental analysis of a growing trace.
//!
//! [`LiveAnalysis`] follows a `.pvta` archive that is still being
//! written (see `perfvar_trace::format::live`) and keeps the *same*
//! streaming pipeline the batch path runs — [`ReplayMachine`] feeding
//! the fused profile + segmentation sinks — fed one
//! [`poll`](LiveAnalysis::poll) at a time. Each poll decodes only the
//! newly appended bytes and returns a [`LiveDelta`]: the events and
//! segments that appeared since the previous poll, plus the rolling
//! prefix-digest fingerprint that identifies the consumed prefix (the
//! daemon keys SSE resume tokens on it).
//!
//! Once the writer seals the run, [`finalize`](LiveAnalysis::finalize)
//! folds the accumulated per-rank state into an [`AnalysisPart`] and
//! completes it with the one driver every batch entry point uses —
//! including the misprediction re-pass, which re-reads the (now
//! batch-readable) archive on [`AnalysisConfig::threads`] workers. The
//! outcome is therefore **bit-identical**
//! to a one-shot [`analyze_path`](crate::outofcore::analyze_path) of
//! the finished archive, no matter how the appends were chunked; the
//! property test at the bottom of this module proves it for arbitrary
//! chunkings.
//!
//! # Speculation in a live setting
//!
//! The batch driver predicts the dominant function from a bounded
//! rank-0 prefix before streaming. A live reader cannot re-read, so it
//! instead *buffers* decoded records until rank 0 has delivered that
//! same prefix (or the run seals first), predicts from the buffer, then
//! replays the buffer into the real sinks and streams on. Because
//! [`AnalysisPart::finalize`] verifies the speculation against the
//! global profile and re-passes on a mismatch, the final analysis does
//! not depend on which function was predicted — only the number of
//! passes does.
//!
//! # Errors
//!
//! A torn append on a sealed archive (or any mid-stream corruption)
//! surfaces as a typed `TraceError::CorruptStream` carrying the rank
//! and byte offset on the [`LiveDelta`]; the affected rank stops
//! advancing while the remaining ranks keep streaming, and the last
//! good [`LiveSnapshot`] stays available. [`finalize`](LiveAnalysis::finalize)
//! refuses to run while the run is unsealed or any rank is poisoned.

use crate::driver::{complete, speculation_target, CombinedSink, Predictor, PREDICT_PREFIX_EVENTS};
use crate::fused::metric_modes;
use crate::outofcore::{cursor_options, OutOfCoreAnalysis, PathAnalysisError, RecoveryMode};
use crate::part::AnalysisPart;
use crate::report::AnalysisConfig;
use crate::segment::Segment;
use crate::stream::ReplayMachine;
use crate::telemetry::Telemetry;
use perfvar_trace::format::cursor::ArchiveCursor;
use perfvar_trace::format::live::ArchiveTail;
use perfvar_trace::{
    EventRecord, FunctionId, MetricMode, ProcessId, Registry, Timestamp, TraceError,
};
use std::path::Path;

/// Streaming per-rank state: the replay machine and the combined
/// profile+fused sink, exactly as in the batch combined pass, plus how
/// far the closed-segment prefix has been reported to [`LiveDelta`]
/// consumers.
struct RankLive {
    machine: ReplayMachine,
    sink: CombinedSink,
    /// Number of leading segments already emitted as closed. Segments
    /// are indexed in enter order and the open stack is increasing, so
    /// everything before the first open index is closed for good.
    confirmed: usize,
}

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
    /// A stream error observed this poll (e.g. a sealed archive ending
    /// inside a record). The offending rank stops advancing; other
    /// ranks continue. Latches: once any rank is poisoned,
    /// [`LiveAnalysis::finalize`] refuses.
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
    tail: ArchiveTail,
    config: AnalysisConfig,
    modes: Vec<MetricMode>,
    num_functions: usize,
    /// Resolved speculation target; `None` while buffering.
    target: Option<FunctionId>,
    /// Phase-1 record buffers, one per rank; drained on resolution.
    pending: Vec<Vec<EventRecord>>,
    /// Streaming state, one per rank; empty until the target resolves.
    ranks: Vec<RankLive>,
    /// Events delivered per rank (counted from the tail, so it works
    /// during both phases).
    events: Vec<u64>,
    /// Newest timestamp per rank.
    last: Vec<Option<Timestamp>>,
    /// Ranks that hit a stream error (their state is frozen).
    poisoned: Vec<bool>,
    /// Whether any poll has reported an error (finalize refuses).
    errored: bool,
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
        let registry = tail.registry().clone();
        let np = registry.num_processes();
        let nf = registry.num_functions();
        let modes = metric_modes(&registry, config.analyze_counters);
        let mut live = LiveAnalysis {
            tail,
            config,
            modes,
            num_functions: nf,
            target: None,
            pending: vec![Vec::new(); np],
            ranks: Vec::new(),
            events: vec![0; np],
            last: vec![None; np],
            poisoned: vec![false; np],
            errored: false,
            finished: false,
        };
        if live.config.segment_function.is_some() {
            let target = speculation_target(&registry, &live.config, || None)?;
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
        self.target
    }

    /// Switches from buffering to streaming: builds the per-rank
    /// machines/sinks for `target` and replays the buffered records.
    fn resolve(&mut self, target: FunctionId) {
        let registry = self.tail.registry();
        let mut ranks = Vec::with_capacity(self.pending.len());
        for (i, pending) in self.pending.iter_mut().enumerate() {
            let pid = ProcessId::from_index(i);
            let mut rank = RankLive {
                machine: ReplayMachine::new(registry),
                sink: CombinedSink::new(pid, self.num_functions, target, &self.modes),
                confirmed: 0,
            };
            for record in std::mem::take(pending) {
                rank.machine.step(&record, &mut rank.sink);
            }
            ranks.push(rank);
        }
        self.ranks = ranks;
        self.target = Some(target);
    }

    /// Decodes everything appended since the last poll and folds it
    /// into the running analysis. Non-blocking: returns an empty delta
    /// when nothing new arrived.
    pub fn poll(&mut self) -> LiveDelta {
        let tail_delta = self.tail.poll();
        let mut delta = LiveDelta {
            new_bytes: tail_delta.new_bytes,
            finished: tail_delta.finished,
            ..LiveDelta::default()
        };
        self.finished |= tail_delta.finished;
        delta.finished = self.finished;

        for (pid, records) in &tail_delta.records {
            let i = pid.index();
            if records.is_empty() || self.poisoned[i] {
                continue;
            }
            self.events[i] += records.len() as u64;
            self.last[i] = records.last().map(|r| r.time).or(self.last[i]);
            delta.new_events += records.len() as u64;
            delta.touched_ranks.push(i);
            match &mut self.target {
                Some(_) => {
                    let rank = &mut self.ranks[i];
                    for record in records {
                        rank.machine.step(record, &mut rank.sink);
                    }
                }
                None => self.pending[i].extend(records.iter().cloned()),
            }
        }

        // Resolve the speculation target once rank 0 has delivered the
        // prediction prefix — or at end of run, with whatever arrived.
        if self.target.is_none()
            && !self.pending.is_empty()
            && (self.finished || self.events[0] >= PREDICT_PREFIX_EVENTS as u64)
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
        // Everything before the first still-open segment is closed for good.
        for rank in &mut self.ranks {
            let fused = &rank.sink.fused;
            let limit = fused.first_open().unwrap_or(fused.segments().len());
            if limit > rank.confirmed {
                delta
                    .new_segments
                    .extend_from_slice(&rank.sink.fused.segments()[rank.confirmed..limit]);
                rank.confirmed = limit;
            }
        }

        if let Some(error) = tail_delta.error {
            if let TraceError::CorruptStream { process, .. } = &error {
                self.poisoned[process.index()] = true;
            }
            self.errored = true;
            delta.error = Some(error);
        }
        delta.fingerprint = self.tail.prefix_digest().fingerprint();
        delta
    }

    /// Segments closed for good on `rank` so far, in enter order.
    /// Empty while the speculation target is still unresolved.
    pub fn closed_segments(&self, rank: usize) -> &[Segment] {
        match self.ranks.get(rank) {
            Some(r) => &r.sink.fused.segments()[..r.confirmed],
            None => &[],
        }
    }

    /// A point-in-time view of the run. Always reflects the last good
    /// state: poisoned ranks freeze, healthy ranks keep advancing.
    pub fn snapshot(&self) -> LiveSnapshot {
        let registry = self.tail.registry();
        let np = registry.num_processes();
        let mut ranks = Vec::with_capacity(np);
        for i in 0..np {
            let (segments, duration_total, sos_total) = match self.ranks.get(i) {
                Some(r) => {
                    let closed = &r.sink.fused.segments()[..r.confirmed];
                    (
                        closed.len(),
                        closed.iter().map(|s| s.duration().0).sum(),
                        closed.iter().map(|s| s.sos().0).sum(),
                    )
                }
                None => (0, 0, 0),
            };
            ranks.push(RankSnapshot {
                events: self.events[i],
                bytes: self.tail.prefix_digest().consumed(i),
                segments,
                duration_total,
                sos_total,
                last: self.last[i],
                poisoned: self.poisoned[i],
            });
        }
        let mut functions: Vec<FunctionTotal> = (0..self.num_functions)
            .map(|f| FunctionTotal {
                function: FunctionId(f as u32),
                name: registry.function_name(FunctionId(f as u32)).to_string(),
                count: 0,
                inclusive: 0,
                exclusive: 0,
            })
            .collect();
        for rank in &self.ranks {
            for (f, row) in rank.sink.profile.rows.iter().enumerate() {
                functions[f].count += row.count;
                functions[f].inclusive += row.inclusive;
                functions[f].exclusive += row.exclusive;
            }
        }
        functions.retain(|f| f.count > 0);
        functions.sort_by(|a, b| {
            b.inclusive
                .cmp(&a.inclusive)
                .then(a.function.0.cmp(&b.function.0))
        });
        LiveSnapshot {
            name: self.tail.name().to_string(),
            finished: self.finished,
            target: self.target,
            events: self.events.iter().sum(),
            bytes: ranks.iter().map(|r| r.bytes).sum(),
            fingerprint: self.tail.prefix_digest().fingerprint(),
            ranks,
            functions,
        }
    }

    /// Assembles the final analysis of the sealed run.
    ///
    /// Bit-identical to a one-shot
    /// [`analyze_path_with`](crate::outofcore::analyze_path_with) of
    /// the finished archive, regardless of how the appends were
    /// chunked: the per-rank state goes through the same
    /// [`AnalysisPart`] verification, and a misprediction re-passes the
    /// (now batch-readable) archive with the true function — the batch
    /// driver's own completion step runs it.
    ///
    /// Errors if the run has not sealed yet (poll until
    /// [`LiveDelta::finished`]) or if any rank was poisoned by a stream
    /// error.
    pub fn finalize(self) -> Result<OutOfCoreAnalysis, PathAnalysisError> {
        if !self.finished {
            return Err(TraceError::Corrupt(
                "live analysis finalized before the end-of-run marker was observed".into(),
            )
            .into());
        }
        if self.errored {
            return Err(TraceError::Corrupt(
                "live analysis cannot finalize: a stream error poisoned the run".into(),
            )
            .into());
        }
        let target = self.target.expect("a sealed run has resolved its target");
        let mut part = AnalysisPart::for_shape(self.num_functions, self.modes.len(), target);
        for (i, mut rank) in self.ranks.into_iter().enumerate() {
            rank.machine.finish(&mut rank.sink);
            let bytes = self.tail.prefix_digest().consumed(i);
            let (rank, counters) = rank.sink.into_rank(rank.machine.stats(), bytes);
            part.add_rank(i, rank, &counters);
        }
        let cursor = ArchiveCursor::open_with(self.tail.dir(), cursor_options(&self.config))?;
        complete(
            part,
            &cursor,
            &self.config,
            RecoveryMode::Strict,
            &Telemetry::noop(),
        )
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
