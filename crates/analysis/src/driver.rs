//! The one analysis driver behind every entry point.
//!
//! In-memory [`analyze`](crate::report::analyze), the out-of-core
//! [`analyze_path`](crate::outofcore::analyze_path) over archives and
//! single-file PVT traces, the rank-subset
//! [`archive_part`](crate::part::archive_part) and
//! [`LiveAnalysis`](crate::live::LiveAnalysis) all run the same loop,
//! written once here:
//!
//! ```text
//! RankSource ──► rank-0 prefix ──► predict F ──┐
//!     │                                         ▼
//!     └──► pass(ranks) ──► ReplayMachine ──► CombinedSink(F) ──► AnalysisPart
//!                            (profile rows + fused partials + extent)   │ collect
//!                                                                        ▼
//!          finalize: true F' from the global profile ══ F' == F ? ══► done (1 pass)
//!                                                      ║no
//!          fused-only re-pass with F' over the ranks that did not fail ══► done (2 passes)
//! ```
//!
//! [`collect`] predicts the segmentation function, runs the combined
//! profile+fused pass over a list of ranks and applies the
//! [`RecoveryMode`]; [`complete`] finalizes a part covering every rank and
//! owns the single fused-only re-pass a misprediction costs. A
//! [`RankSource`] is all that differs between the batch entry points:
//! where the header, the prediction prefix and the per-rank records come
//! from. Every pass replays a rank through one [`RankFold`]; a live
//! analysis keeps one fold per rank open across its polls and closes them
//! with the same [`close_combined`] and [`CombinedPass::assemble`].

use crate::dominant::DominantRanking;
use crate::fused::{metric_modes, FusedSink};
use crate::outofcore::{cursor_options, OutOfCoreAnalysis, PathAnalysisError, RecoveryMode};
use crate::parallel::par_map_ranks;
use crate::part::{AnalysisPart, PartOutcome, RankPart};
use crate::profile::{ProfileSink, ProfileTable};
use crate::report::{AnalysisConfig, AnalysisError};
use crate::stream::{ClosedFrame, ReplayMachine, ReplayStats, ReplayVisitor};
use crate::telemetry::{Counters, Stage, Telemetry};
use perfvar_trace::format::cursor::{ArchiveCursor, CursorOptions, StreamCursor};
use perfvar_trace::format::mmap::FileReader;
use perfvar_trace::format::pvt;
use perfvar_trace::{
    Clock, EventRecord, FunctionId, MetricId, MetricMode, ProcessId, Registry, Timestamp, Trace,
    TraceError,
};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Events of the rank-0 prefix that seed the dominant-function
/// prediction. Enough iterations of any real SPMD trace to expose the
/// dominant function; bounded so prediction cost is `O(1)` regardless of
/// trace size.
pub(crate) const PREDICT_PREFIX_EVENTS: usize = 65_536;

/// Sentinel "function" used when no prediction is available: it matches
/// no event (ids are registry indices, far below `u32::MAX`), so the
/// combined pass degenerates to a pure profile pass and verification
/// always schedules the fused re-pass.
const NO_PREDICTION: FunctionId = FunctionId(u32::MAX);

/// Records decoded per `StreamCursor::next_chunk` call in the file
/// passes. Large enough to amortise the per-chunk `fill_buf`/`consume`
/// round-trip and keep the decode loop in pure index arithmetic, small
/// enough (~tens of KiB) to stay irrelevant next to the read buffer in
/// the worker memory model.
const DECODE_CHUNK_EVENTS: usize = 1024;

/// Where an analysis reads its ranks from.
pub(crate) trait RankSource: Sync {
    /// The trace name, clock and definitions.
    fn header(&self) -> (&str, Clock, &Registry);
    /// The definitions alone.
    fn registry(&self) -> &Registry {
        self.header().2
    }
    /// Feeds the leading records of rank 0 to `predictor` until it wants
    /// no more, returning the bytes decoded to read them. Decode errors
    /// end the prefix early; the pass rediscovers them with proper
    /// reporting.
    fn prefix(&self, predictor: &mut Predictor) -> u64;
    /// Replays every rank of `ranks` through a sink from `open`, then
    /// hands the finished sink, its replay stats and how the rank was
    /// read ([`RankRead`]) to `close`. Results come back in the
    /// order of `ranks`; a rank whose stream cannot be decoded yields its
    /// error. With `timed`, the pass splits each rank's busy time into
    /// decoding and replaying ([`PassClock`]); without it, no
    /// clock is read.
    fn pass<S: ReplayVisitor, T: Send>(
        &self,
        ranks: &[usize],
        threads: usize,
        timed: bool,
        open: impl Fn(ProcessId) -> S + Sync,
        close: impl Fn(S, ReplayStats, RankRead) -> T + Sync,
    ) -> Vec<Result<T, TraceError>>;
}

/// How a pass read one rank: the bytes decoded for it (`0` in memory),
/// whether they came from a memory mapping (`None` in memory), and, in a
/// timed pass, the busy time spent decoding and replaying them.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RankRead {
    pub(crate) bytes: u64,
    pub(crate) mapped: Option<bool>,
    pub(crate) decode: Duration,
    pub(crate) replay: Duration,
}

/// The busy-time split of a timed pass: one clock read at each hand-off
/// between decoding a chunk and replaying it, so a 1024-record chunk
/// costs two reads. An untimed clock reads nothing.
struct PassClock {
    last: Option<Instant>,
}

impl PassClock {
    fn new(timed: bool) -> PassClock {
        PassClock {
            last: timed.then(Instant::now),
        }
    }

    /// Adds the time since the previous hand-off to `into`.
    #[inline]
    fn lap(&mut self, into: &mut Duration) {
        if let Some(last) = &mut self.last {
            let now = Instant::now();
            *into += now - *last;
            *last = now;
        }
    }
}

/// Decodes the rest of one rank's stream chunk by chunk and replays each
/// chunk into `fold` when there is one (a sequential file pass decodes
/// ranks it does not replay), adding the busy times to `read`.
fn drain<R: BufRead, S: ReplayVisitor>(
    cursor: &mut StreamCursor<R>,
    chunk: &mut Vec<EventRecord>,
    mut fold: Option<&mut RankFold<S>>,
    clock: &mut PassClock,
    read: &mut RankRead,
) -> Result<(), TraceError> {
    loop {
        let decoded = cursor.next_chunk(chunk, DECODE_CHUNK_EVENTS);
        clock.lap(&mut read.decode);
        if decoded? == 0 {
            return Ok(());
        }
        if let Some(fold) = fold.as_deref_mut() {
            fold.step(chunk);
            clock.lap(&mut read.replay);
        }
    }
}

/// One rank's resumable replay: the stack machine and the sink it feeds.
/// A batch pass steps it over the whole stream and closes it at once; a
/// live analysis steps it once per poll and closes it when the run seals.
pub(crate) struct RankFold<S> {
    machine: ReplayMachine,
    pub(crate) sink: S,
}

impl<S: ReplayVisitor> RankFold<S> {
    pub(crate) fn new(registry: &Registry, sink: S) -> RankFold<S> {
        RankFold {
            machine: ReplayMachine::new(registry),
            sink,
        }
    }

    /// Replays the rank's next records.
    pub(crate) fn step(&mut self, records: &[EventRecord]) {
        self.machine.feed(records, &mut self.sink);
    }

    /// Ends the replay and hands the sink, its replay stats and how the
    /// rank was read to `close`.
    pub(crate) fn close<T>(
        mut self,
        read: RankRead,
        close: &impl Fn(S, ReplayStats, RankRead) -> T,
    ) -> T {
        self.machine.finish(&mut self.sink);
        close(self.sink, self.machine.stats(), read)
    }
}

/// In memory: ranks are work-stolen across `threads` workers.
impl RankSource for Trace {
    fn header(&self) -> (&str, Clock, &Registry) {
        (&self.name, self.clock(), self.registry())
    }

    fn prefix(&self, predictor: &mut Predictor) -> u64 {
        if let Some(stream) = self.streams().first() {
            predictor.feed(stream.records());
        }
        0
    }

    fn pass<S: ReplayVisitor, T: Send>(
        &self,
        ranks: &[usize],
        threads: usize,
        timed: bool,
        open: impl Fn(ProcessId) -> S + Sync,
        close: impl Fn(S, ReplayStats, RankRead) -> T + Sync,
    ) -> Vec<Result<T, TraceError>> {
        par_map_ranks(ranks.len(), threads, |slot| {
            let pid = ProcessId::from_index(ranks[slot.index()]);
            let mut fold = RankFold::new(self.registry(), open(pid));
            let mut clock = PassClock::new(timed);
            let mut read = RankRead::default();
            fold.step(self.stream(pid).records());
            clock.lap(&mut read.replay);
            Ok(fold.close(read, &close))
        })
    }
}

/// An archive: ranks are work-stolen, each decoded in chunks from its
/// own (usually memory-mapped) stream file.
impl RankSource for ArchiveCursor {
    fn header(&self) -> (&str, Clock, &Registry) {
        (self.name(), self.clock(), self.registry())
    }

    fn prefix(&self, predictor: &mut Predictor) -> u64 {
        self.stream(ProcessId(0))
            .map_or(0, |mut stream| predictor.read(&mut stream))
    }

    fn pass<S: ReplayVisitor, T: Send>(
        &self,
        ranks: &[usize],
        threads: usize,
        timed: bool,
        open: impl Fn(ProcessId) -> S + Sync,
        close: impl Fn(S, ReplayStats, RankRead) -> T + Sync,
    ) -> Vec<Result<T, TraceError>> {
        par_map_ranks(ranks.len(), threads, |slot| {
            let pid = ProcessId::from_index(ranks[slot.index()]);
            let mut clock = PassClock::new(timed);
            let mut stream = self.stream(pid)?;
            let mut fold = RankFold::new(self.registry(), open(pid));
            let mut chunk = Vec::with_capacity(DECODE_CHUNK_EVENTS);
            let mut read = RankRead::default();
            drain(
                &mut stream,
                &mut chunk,
                Some(&mut fold),
                &mut clock,
                &mut read,
            )?;
            read.bytes = stream.byte_offset();
            read.mapped = Some(stream.get_ref().is_mapped());
            Ok(fold.close(read, &close))
        })
    }
}

/// A single-file PVT trace. The rank streams are concatenated, so a pass
/// steps one rank's cursor after another through the file, and a decode
/// failure in rank `k` leaves every rank after it unreachable.
pub(crate) struct PvtFile {
    path: PathBuf,
    options: CursorOptions,
    name: String,
    clock: Clock,
    registry: Registry,
}

impl PvtFile {
    /// Reads the header of the trace at `path`, opened per the config's
    /// I/O knobs (mmap with buffered fallback).
    pub(crate) fn open(path: &Path, config: &AnalysisConfig) -> Result<PvtFile, TraceError> {
        let options = cursor_options(config);
        let (name, clock, registry, _) = open_pvt(path, options)?;
        Ok(PvtFile {
            path: path.to_path_buf(),
            options,
            name,
            clock,
            registry,
        })
    }

    /// Reads the file front to back, one rank's cursor after another,
    /// replaying the requested (sorted) `ranks` into the matching slots
    /// of `done`. Each rank is charged the bytes its cursor read, the
    /// header to rank 0, so the ranks of a full pass sum to the file
    /// size. Returns the rank that stopped the sweep with its error, if
    /// any; a file whose definitions changed since [`PvtFile::open`]
    /// stops it at rank 0.
    fn sweep<S: ReplayVisitor, T>(
        &self,
        ranks: &[usize],
        timed: bool,
        done: &mut [Option<T>],
        open: &impl Fn(ProcessId) -> S,
        close: &impl Fn(S, ReplayStats, RankRead) -> T,
    ) -> Result<(), (ProcessId, TraceError)> {
        let (.., registry, mut rank) =
            open_pvt(&self.path, self.options).map_err(|e| (ProcessId(0), e))?;
        if registry != self.registry {
            let changed =
                TraceError::Corrupt("the file's definitions changed between passes".into());
            return Err((ProcessId(0), changed));
        }
        let mut chunk = Vec::with_capacity(DECODE_CHUNK_EVENTS);
        let mut mark = 0;
        while let Some(mut cursor) = rank {
            let pid = cursor.process();
            let slot = ranks.binary_search(&pid.index()).ok();
            let mut fold = slot.map(|_| RankFold::new(&self.registry, open(pid)));
            let mut clock = PassClock::new(timed);
            let mut read = RankRead::default();
            drain(
                &mut cursor,
                &mut chunk,
                fold.as_mut(),
                &mut clock,
                &mut read,
            )
            .map_err(|error| (pid, error))?;
            let offset = cursor.byte_offset();
            read.bytes = offset - std::mem::replace(&mut mark, offset);
            read.mapped = Some(cursor.get_ref().is_mapped());
            if let (Some(slot), Some(fold)) = (slot, fold) {
                done[slot] = Some(fold.close(read, close));
            }
            rank = cursor.next_rank();
        }
        Ok(())
    }
}

/// Opens the PVT file at `path` ([`pvt::open`]); open errors name the
/// path.
fn open_pvt(path: &Path, options: CursorOptions) -> Result<pvt::PvtRanks<FileReader>, TraceError> {
    let file = FileReader::open(path, options.mmap, options.read_buffer_bytes).map_err(|e| {
        TraceError::Io(std::io::Error::new(
            e.kind(),
            format!("{}: {e}", path.display()),
        ))
    })?;
    pvt::open(file)
}

impl RankSource for PvtFile {
    fn header(&self) -> (&str, Clock, &Registry) {
        (&self.name, self.clock, &self.registry)
    }

    fn prefix(&self, predictor: &mut Predictor) -> u64 {
        match open_pvt(&self.path, self.options) {
            Ok((.., Some(mut rank))) => predictor.read(&mut rank),
            _ => 0,
        }
    }

    /// Sequential, whatever `threads` says; `ranks` must be ascending.
    fn pass<S: ReplayVisitor, T: Send>(
        &self,
        ranks: &[usize],
        _threads: usize,
        timed: bool,
        open: impl Fn(ProcessId) -> S + Sync,
        close: impl Fn(S, ReplayStats, RankRead) -> T + Sync,
    ) -> Vec<Result<T, TraceError>> {
        assert!(ranks.is_sorted(), "a sequential file is read in rank order");
        let mut done: Vec<Option<T>> = ranks.iter().map(|_| None).collect();
        let mut failure = self.sweep(ranks, timed, &mut done, &open, &close).err();
        let failing = failure.as_ref().map(|&(pid, _)| pid);
        done.into_iter()
            .zip(ranks)
            .map(|(result, &rank)| {
                let pid = ProcessId::from_index(rank);
                match (result, failing) {
                    (Some(result), _) => Ok(result),
                    (None, Some(f)) if pid == f => Err(failure.take().expect("one failing rank").1),
                    (None, Some(f)) => Err(TraceError::Corrupt(format!(
                        "stream of {pid} is unreachable behind the corrupt stream of {f}"
                    ))),
                    (None, None) => unreachable!("a clean sweep closes every rank"),
                }
            })
            .collect()
    }
}

/// The combined visitor of the speculative pass: one stack-machine sweep
/// feeds the profile rows, the fused segmentation for the predicted
/// function and the rank's time extent. Each half sees exactly the
/// callback sequence it would see alone, so confirmed speculation is
/// bit-identical to two passes.
pub(crate) struct CombinedSink {
    pub(crate) profile: ProfileSink,
    pub(crate) fused: FusedSink,
}

impl ReplayVisitor for CombinedSink {
    #[inline(always)]
    fn on_enter(&mut self, function: FunctionId, depth: u32, time: Timestamp) {
        self.fused.on_enter(function, depth, time);
    }

    #[inline(always)]
    fn on_frame(&mut self, frame: &ClosedFrame) {
        self.profile.on_frame(frame);
        self.fused.on_frame(frame);
    }

    #[inline(always)]
    fn on_metric(&mut self, metric: MetricId, time: Timestamp, value: u64) {
        self.fused.on_metric(metric, time, value);
    }

    #[inline(always)]
    fn on_tick(&mut self, time: Timestamp) {
        self.fused.on_tick(time);
    }

    fn on_finish(&mut self) {
        self.profile.on_finish();
        self.fused.on_finish();
    }
}

/// Predicts the segmentation function from the leading records of one
/// rank: their profile, ranked as if they were a single-process trace.
/// Sources feed the prefix in slices, so it is never held whole.
pub(crate) struct Predictor {
    machine: ReplayMachine,
    sink: ProfileSink,
}

impl Predictor {
    pub(crate) fn new(registry: &Registry) -> Predictor {
        Predictor {
            machine: ReplayMachine::new(registry),
            sink: ProfileSink::new(registry.num_functions()),
        }
    }

    /// Records still wanted before the [`PREDICT_PREFIX_EVENTS`] bound.
    pub(crate) fn wants(&self) -> usize {
        PREDICT_PREFIX_EVENTS - self.machine.events_stepped() as usize
    }

    /// Replays the next records of the prefix; those past the bound are
    /// ignored.
    pub(crate) fn feed(&mut self, records: &[EventRecord]) {
        let wanted = &records[..records.len().min(self.wants())];
        self.machine.feed(wanted, &mut self.sink);
    }

    /// Feeds the leading records of `stream` until the bound or the
    /// stream's end, returning the bytes the cursor read. A decode error
    /// ends the prefix early; the pass rediscovers it with proper
    /// reporting.
    fn read<R: BufRead>(&mut self, stream: &mut StreamCursor<R>) -> u64 {
        let mut chunk = Vec::with_capacity(DECODE_CHUNK_EVENTS);
        while self.wants() > 0 {
            let max = self.wants().min(DECODE_CHUNK_EVENTS);
            // On an error `chunk` holds the records decoded before it.
            let decoded = stream.next_chunk(&mut chunk, max);
            self.feed(&chunk);
            if !matches!(decoded, Ok(n) if n > 0) {
                break;
            }
        }
        stream.byte_offset()
    }

    pub(crate) fn predict(self, config: &AnalysisConfig) -> Option<FunctionId> {
        let profiles = ProfileTable::from_rows(self.sink.rows.len(), [self.sink.rows]);
        DominantRanking::with_multiplier_for(1, &profiles, config.dominant_multiplier).dominant()
    }
}

/// Resolves the speculation target: the explicit override when present
/// (which can never mispredict — verification compares against the same
/// lookup), else a prefix-profile prediction, else the sentinel.
pub(crate) fn speculation_target(
    registry: &Registry,
    config: &AnalysisConfig,
    predict: impl FnOnce() -> Option<FunctionId>,
) -> Result<FunctionId, AnalysisError> {
    match &config.segment_function {
        Some(name) => registry
            .function_by_name(name)
            .ok_or_else(|| AnalysisError::UnknownFunction(name.clone())),
        None => Ok(predict().unwrap_or(NO_PREDICTION)),
    }
}

/// Records one replayed rank in the fuse stage and ticks progress.
fn observe(telemetry: &Telemetry, stats: ReplayStats, read: &RankRead, fused: &FusedSink) {
    let mut w = telemetry.worker(Stage::Fuse);
    w.events(stats.events);
    w.bytes(read.bytes);
    w.busy(read.decode, read.replay);
    w.stack_depth(stats.max_depth);
    w.live_segments(fused.peak_open());
    w.sos_clamped(fused.sos_underflows());
    w.segments(fused.segments().len() as u64);
    drop(w);
    telemetry.rank_done();
}

/// The combined pass for one speculation target: what every rank is
/// replayed into, and how the ranks' results become one part.
pub(crate) struct CombinedPass {
    num_functions: usize,
    modes: Vec<MetricMode>,
    pub(crate) target: FunctionId,
}

impl CombinedPass {
    pub(crate) fn new(
        registry: &Registry,
        config: &AnalysisConfig,
        target: FunctionId,
    ) -> CombinedPass {
        CombinedPass {
            num_functions: registry.num_functions(),
            modes: metric_modes(registry, config.analyze_counters),
            target,
        }
    }

    /// A fresh sink for the rank `pid`.
    pub(crate) fn sink(&self, pid: ProcessId) -> CombinedSink {
        CombinedSink {
            profile: ProfileSink::new(self.num_functions),
            fused: FusedSink::new(pid, self.target, self.modes.clone()),
        }
    }

    /// Assembles the closed ranks (`results`, in the order of `ranks`)
    /// into one part under `mode`: in [`RecoveryMode::Strict`] the first
    /// unreadable rank aborts, in [`RecoveryMode::Partial`] it is recorded
    /// and contributes like an empty stream.
    pub(crate) fn assemble(
        &self,
        ranks: &[usize],
        results: Vec<Result<(RankPart, Counters), TraceError>>,
        mode: RecoveryMode,
        telemetry: &Telemetry,
    ) -> Result<AnalysisPart, PathAnalysisError> {
        let mut part = AnalysisPart::for_shape(self.num_functions, self.modes.len(), self.target);
        for (&index, result) in ranks.iter().zip(results) {
            match result {
                Ok((rank, counters)) => part.add_rank(index, rank, &counters),
                Err(error) if mode == RecoveryMode::Partial => {
                    telemetry.count_recovery(1);
                    part.add_failed_rank(index, error);
                }
                Err(error) => return Err(error.into()),
            }
        }
        Ok(part)
    }
}

/// Closes one rank of the combined pass: records it in the fuse stage and
/// dismantles its sink into the rank's part contribution and the counters
/// spent producing it.
pub(crate) fn close_combined(
    telemetry: &Telemetry,
) -> impl Fn(CombinedSink, ReplayStats, RankRead) -> (RankPart, Counters) + Sync + '_ {
    move |sink, stats, read| {
        observe(telemetry, stats, &read, &sink.fused);
        if let Some(mapped) = read.mapped {
            telemetry.count_stream(mapped);
        }
        let counters = Counters {
            events_replayed: stats.events,
            bytes_decoded: read.bytes,
            segments_emitted: sink.fused.segments().len() as u64,
            sos_clamped: sink.fused.sos_underflows(),
            ..Counters::default()
        };
        let rank = RankPart {
            rows: sink.profile.rows,
            fused: sink.fused.into_parts(),
            num_events: stats.events,
            first: stats.first,
            last: stats.last,
            failure: None,
        };
        (rank, counters)
    }
}

/// Predicts the segmentation function from the source's rank-0 prefix,
/// runs the combined profile+fused pass over `ranks` and assembles the
/// part under `mode` ([`CombinedPass::assemble`]).
pub(crate) fn collect(
    source: &impl RankSource,
    ranks: &[usize],
    config: &AnalysisConfig,
    mode: RecoveryMode,
    telemetry: &Telemetry,
) -> Result<AnalysisPart, PathAnalysisError> {
    let registry = source.registry();
    let guess = {
        let _span = telemetry.span(Stage::Profile);
        speculation_target(registry, config, || {
            let mut predictor = Predictor::new(registry);
            let bytes = source.prefix(&mut predictor);
            let mut w = telemetry.worker(Stage::Profile);
            w.events((PREDICT_PREFIX_EVENTS - predictor.wants()) as u64);
            w.bytes(bytes);
            predictor.predict(config)
        })?
    };
    let pass = CombinedPass::new(registry, config, guess);
    telemetry.begin_ranks(Stage::Fuse, ranks.len());
    let results = {
        let _span = telemetry.span(Stage::Fuse);
        source.pass(
            ranks,
            config.threads,
            telemetry.is_enabled(),
            |pid| pass.sink(pid),
            close_combined(telemetry),
        )
    };
    pass.assemble(ranks, results, mode, telemetry)
}

/// Finalizes a part covering every rank of `source`. When the global
/// profile contradicts the speculation, runs exactly one fused-only
/// re-pass with the true function over the ranks that have not failed
/// (`passes == 2`); in partial mode a rank whose re-pass fails keeps its
/// profile and extent and is reported in
/// [`failures`](OutOfCoreAnalysis::failures).
pub(crate) fn complete(
    part: AnalysisPart,
    source: &impl RankSource,
    config: &AnalysisConfig,
    mode: RecoveryMode,
    telemetry: &Telemetry,
) -> Result<OutOfCoreAnalysis, PathAnalysisError> {
    let finalize = |part: AnalysisPart| {
        let _span = telemetry.span(Stage::Assemble);
        let (name, clock, registry) = source.header();
        part.finalize(name, clock, registry, config)
    };
    let (function, mut retry) = match finalize(part)? {
        PartOutcome::Done(done) => return Ok(*done),
        PartOutcome::Mispredicted { expected, part } => (expected, part),
    };

    let modes = metric_modes(source.registry(), config.analyze_counters);
    let ranks: Vec<usize> = retry
        .rank_indices()
        .filter(|&i| !retry.rank_failed(i))
        .collect();
    telemetry.begin_ranks(Stage::Fuse, ranks.len());
    let results = {
        let _span = telemetry.span(Stage::Fuse);
        source.pass(
            &ranks,
            config.threads,
            telemetry.is_enabled(),
            |pid| FusedSink::new(pid, function, modes.clone()),
            |sink, stats, read| {
                observe(telemetry, stats, &read, &sink);
                sink.into_parts()
            },
        )
    };
    for (&index, result) in ranks.iter().zip(results) {
        match result {
            Ok(fused) => retry.set_fused(index, fused),
            Err(error) if mode == RecoveryMode::Partial => {
                // The input changed between the passes; degrade the rank.
                telemetry.count_recovery(1);
                retry.fail_rank_fused_only(index, error, modes.len());
            }
            Err(error) => return Err(error.into()),
        }
    }
    retry.retarget(function);
    match finalize(retry)? {
        PartOutcome::Done(mut done) => {
            done.passes = 2;
            Ok(*done)
        }
        PartOutcome::Mispredicted { .. } => unreachable!("a retargeted part cannot mispredict"),
    }
}

/// [`collect`] over every rank of `source`, then [`complete`].
pub(crate) fn run(
    source: &impl RankSource,
    config: &AnalysisConfig,
    mode: RecoveryMode,
    telemetry: &Telemetry,
) -> Result<OutOfCoreAnalysis, PathAnalysisError> {
    let ranks: Vec<usize> = (0..source.registry().num_processes()).collect();
    let part = collect(source, &ranks, config, mode, telemetry)?;
    complete(part, source, config, mode, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::analyze;
    use perfvar_trace::format::write_trace_file;
    use perfvar_trace::{FunctionRole, TraceBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("perfvar-driver-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Rank 0 is dominated by `decoy` while every other rank hammers
    /// `work`, so the rank-0 prediction is wrong and every source needs
    /// the fused-only re-pass.
    fn adversarial(ranks: u64) -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds()).with_name("driver");
        let work = b.define_function("work", FunctionRole::Compute);
        let decoy = b.define_function("decoy", FunctionRole::Compute);
        for pi in 0..ranks {
            let p = b.define_process(format!("rank {pi}"));
            let w = b.process_mut(p);
            let (hot, cold, hot_len) = if pi == 0 {
                (decoy, work, 50)
            } else {
                (work, decoy, 300)
            };
            let mut t = 0u64;
            for _ in 0..8 {
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

    /// How a [`Flaky`] source breaks on its second pass.
    enum Sabotage {
        /// Report this rank as unreadable.
        Rank(usize),
        /// Cut the file at this path to two thirds before reading it.
        Truncate(PathBuf),
        /// Write this trace over the file at this path before reading it.
        Replace(PathBuf, Trace),
    }

    /// A real source whose second pass — the misprediction re-pass —
    /// finds its input changed.
    struct Flaky<S> {
        inner: S,
        passes: AtomicUsize,
        sabotage: Sabotage,
    }

    impl<S: RankSource> Flaky<S> {
        fn new(inner: S, sabotage: Sabotage) -> Flaky<S> {
            let passes = AtomicUsize::new(0);
            Flaky {
                inner,
                passes,
                sabotage,
            }
        }
    }

    impl<S: RankSource> RankSource for Flaky<S> {
        fn header(&self) -> (&str, Clock, &Registry) {
            self.inner.header()
        }

        fn prefix(&self, predictor: &mut Predictor) -> u64 {
            self.inner.prefix(predictor)
        }

        fn pass<V: ReplayVisitor, T: Send>(
            &self,
            ranks: &[usize],
            threads: usize,
            timed: bool,
            open: impl Fn(ProcessId) -> V + Sync,
            close: impl Fn(V, ReplayStats, RankRead) -> T + Sync,
        ) -> Vec<Result<T, TraceError>> {
            let second = self.passes.fetch_add(1, Ordering::SeqCst) == 1;
            match (second, &self.sabotage) {
                (true, Sabotage::Truncate(path)) => {
                    let bytes = std::fs::read(path).unwrap();
                    std::fs::write(path, &bytes[..bytes.len() * 2 / 3]).unwrap();
                }
                (true, Sabotage::Replace(path, trace)) => write_trace_file(trace, path).unwrap(),
                _ => {}
            }
            let mut results = self.inner.pass(ranks, threads, timed, open, close);
            if let (true, Sabotage::Rank(rank)) = (second, &self.sabotage) {
                let slot = ranks.iter().position(|r| r == rank).unwrap();
                results[slot] = Err(TraceError::Corrupt("changed between passes".into()));
            }
            results
        }
    }

    /// Runs `source` in both recovery modes and checks the re-pass
    /// failure of rank 2 is reported, never silently dropped.
    fn repass_failure_is_reported(source: impl RankSource, reference: &OutOfCoreAnalysis) {
        let config = AnalysisConfig::default();
        let source = Flaky::new(source, Sabotage::Rank(2));
        let ooc = run(&source, &config, RecoveryMode::Partial, &Telemetry::noop()).unwrap();
        assert_eq!(ooc.passes, 2);
        assert_eq!(ooc.failures.len(), 1);
        assert_eq!(ooc.failures[0].process, ProcessId(2));
        assert!(ooc.analysis.segmentation.process(ProcessId(2)).is_empty());
        // The profile and extent of the combined pass stay.
        assert_eq!(ooc.analysis.profiles, reference.analysis.profiles);
        assert_eq!(ooc.meta, reference.meta);
        for rank in [0, 1, 3] {
            let pid = ProcessId(rank);
            assert_eq!(
                ooc.analysis.segmentation.process(pid),
                reference.analysis.segmentation.process(pid)
            );
        }

        source.passes.store(0, Ordering::SeqCst);
        let strict = run(&source, &config, RecoveryMode::Strict, &Telemetry::noop());
        assert!(matches!(strict, Err(PathAnalysisError::Trace(_))));
    }

    #[test]
    fn repass_failure_is_reported_for_every_source_kind() {
        let trace = adversarial(4);
        let config = AnalysisConfig::default();
        let reference = run(&trace, &config, RecoveryMode::Strict, &Telemetry::noop()).unwrap();
        assert_eq!(reference.passes, 2, "the fixture must mispredict");
        assert_eq!(reference.analysis, analyze(&trace, &config).unwrap());

        let archive = tmp("flaky.pvta");
        let pvt = tmp("flaky.pvt");
        write_trace_file(&trace, &archive).unwrap();
        write_trace_file(&trace, &pvt).unwrap();
        repass_failure_is_reported(trace, &reference);
        repass_failure_is_reported(ArchiveCursor::open(&archive).unwrap(), &reference);
        repass_failure_is_reported(PvtFile::open(&pvt, &config).unwrap(), &reference);
    }

    #[test]
    fn pvt_repass_stopping_early_reports_every_lost_rank() {
        let trace = adversarial(4);
        let path = tmp("stops-early.pvt");
        write_trace_file(&trace, &path).unwrap();
        let config = AnalysisConfig::default();
        let file = PvtFile::open(&path, &config).unwrap();
        let source = Flaky::new(file, Sabotage::Truncate(path));
        let ooc = run(&source, &config, RecoveryMode::Partial, &Telemetry::noop()).unwrap();
        assert_eq!(ooc.passes, 2);
        // The combined pass read every rank; the re-pass stopped at the
        // cut, and the cut rank and every rank behind it are failures.
        let first = ooc
            .failures
            .first()
            .expect("the re-pass lost ranks")
            .process;
        assert!(first.index() > 0);
        let lost: Vec<usize> = ooc.failures.iter().map(|f| f.process.index()).collect();
        assert_eq!(lost, (first.index()..4).collect::<Vec<_>>());
        for rank in 0..4 {
            let segments = ooc
                .analysis
                .segmentation
                .process(ProcessId::from_index(rank));
            assert_eq!(segments.is_empty(), rank >= first.index(), "rank {rank}");
        }
    }

    #[test]
    fn pvt_repass_over_changed_definitions_loses_every_rank() {
        // The file is rewritten between the passes with a third function
        // that every rank calls, which the first pass's definitions lack.
        let path = tmp("changed-definitions.pvt");
        write_trace_file(&adversarial(4), &path).unwrap();
        let mut b = TraceBuilder::new(Clock::microseconds()).with_name("driver");
        b.define_function("work", FunctionRole::Compute);
        b.define_function("decoy", FunctionRole::Compute);
        let extra = b.define_function("extra", FunctionRole::Compute);
        for pi in 0..4 {
            let p = b.define_process(format!("rank {pi}"));
            b.process_mut(p).enter(Timestamp(0), extra).unwrap();
            b.process_mut(p).leave(Timestamp(5), extra).unwrap();
        }
        let changed = b.finish().unwrap();
        let config = AnalysisConfig::default();
        let file = PvtFile::open(&path, &config).unwrap();
        let source = Flaky::new(file, Sabotage::Replace(path, changed));
        let ooc = run(&source, &config, RecoveryMode::Partial, &Telemetry::noop()).unwrap();
        assert_eq!(ooc.passes, 2);
        let lost: Vec<usize> = ooc.failures.iter().map(|f| f.process.index()).collect();
        assert_eq!(lost, [0, 1, 2, 3]);
        assert!(ooc.failures[0].error.to_string().contains("changed"));
    }

    #[test]
    fn every_source_predicts_from_the_same_rank_zero_prefix() {
        let trace = adversarial(2);
        let config = AnalysisConfig::default();
        let registry = trace.registry();
        let decoy = registry.function_by_name("decoy");
        let archive = tmp("prefix.pvta");
        let pvt = tmp("prefix.pvt");
        write_trace_file(&trace, &archive).unwrap();
        write_trace_file(&trace, &pvt).unwrap();
        let rank0 = trace.stream(ProcessId(0)).records().len();
        let read = |source: &dyn Fn(&mut Predictor) -> u64| {
            let mut predictor = Predictor::new(registry);
            let bytes = source(&mut predictor);
            let events = PREDICT_PREFIX_EVENTS - predictor.wants();
            (predictor.predict(&config), events, bytes)
        };
        assert_eq!(read(&|p| trace.prefix(p)), (decoy, rank0, 0));
        let cursor = ArchiveCursor::open(&archive).unwrap();
        let (function, events, bytes) = read(&|p| cursor.prefix(p));
        assert_eq!((function, events), (decoy, rank0));
        assert!(bytes > 0);
        let file = PvtFile::open(&pvt, &config).unwrap();
        let (function, events, bytes) = read(&|p| file.prefix(p));
        assert_eq!((function, events), (decoy, rank0));
        assert!(bytes > 0);
        assert_eq!(read(&|_| 0), (None, 0, 0));
    }

    #[test]
    fn prediction_stops_at_the_prefix_bound() {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("step", FunctionRole::Compute);
        let p = b.define_process("rank 0");
        let w = b.process_mut(p);
        for k in 0..PREDICT_PREFIX_EVENTS as u64 {
            w.enter(Timestamp(2 * k), f).unwrap();
            w.leave(Timestamp(2 * k + 1), f).unwrap();
        }
        let trace = b.finish().unwrap();
        let mut predictor = Predictor::new(trace.registry());
        trace.prefix(&mut predictor);
        assert_eq!(predictor.wants(), 0);
        // Half the stream: the bounded prefix saw half the invocations.
        let rows = &predictor.sink.rows;
        assert_eq!(rows[0].count, PREDICT_PREFIX_EVENTS as u64 / 2);
    }
}
