//! The chart fold: what `perfvar report`, `render` and `info` read from
//! the event streams beyond the analysis itself.
//!
//! One pass per rank through the analysis driver's `RankSource::pass`
//! (the same sources, threads and decoding as the analysis) walks the call
//! stack and attributes every interval between two consecutive records
//! to the function on top of the stack (its *exclusive* time, as a trace
//! browser colours its timeline). From that walk the fold keeps, per
//! rank:
//!
//! * the dominant function of every time bucket of a [`BucketGrid`]
//!   (the master timeline's rows), in `O(functions)` state: a stream's
//!   timestamps never decrease, so the walk visits buckets in order and a
//!   bucket is final once the walk moves past it;
//! * the exclusive ticks per function (the timeline legend and the MPI
//!   share of `perfvar info`);
//! * the event counts by kind and the first and last timestamp;
//! * the send and receive endpoints in stream order, which
//!   [`MessageAnalysis::match_endpoints`](crate::messages::MessageAnalysis::match_endpoints)
//!   matches.
//!
//! [`Activity::of_trace`] runs the fold over an in-memory trace and
//! [`activity_of_path`] over a trace file without loading it; both give
//! the same [`Activity`]. [`fold_on_axis`] folds a file on the time axis
//! an earlier pass over it found (an analysis's or a fold's `meta`).

use crate::driver::{PvtFile, RankRead, RankSource, RecordFold};
use crate::messages::{Endpoint, RankEndpoints};
use crate::outofcore::cursor_options;
use crate::report::AnalysisConfig;
use crate::telemetry::{Stage, Telemetry};
use perfvar_trace::format::cursor::ArchiveCursor;
use perfvar_trace::format::{read_trace_file, Format};
use perfvar_trace::stats::EventCounts;
use perfvar_trace::{Event, EventRecord, FunctionId, Timestamp, Trace, TraceError, TraceMeta};
use std::path::Path;

/// Equal-width time buckets over a trace's `[begin, end]`: the columns of
/// the master timeline. The last bucket absorbs the overhang of the
/// rounded-up width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketGrid {
    /// Start of the first bucket.
    begin: Timestamp,
    /// End of the time axis.
    end: Timestamp,
    /// Number of buckets (at least one).
    buckets: usize,
    /// Ticks per bucket (at least one), derived from the three above.
    width: u64,
}

impl BucketGrid {
    /// `buckets` equal buckets over `[begin, end]` (at least one, each at
    /// least one tick wide).
    pub fn new(begin: Timestamp, end: Timestamp, buckets: usize) -> BucketGrid {
        let span = end.0.saturating_sub(begin.0).max(1);
        let buckets = buckets.max(1);
        BucketGrid {
            begin,
            end,
            buckets,
            width: span.div_ceil(buckets as u64).max(1),
        }
    }

    /// Start of bucket `b`.
    pub fn start(&self, b: usize) -> Timestamp {
        Timestamp(self.begin.0 + b as u64 * self.width)
    }

    /// End of bucket `b`, clipped to the end of the axis.
    pub fn stop(&self, b: usize) -> Timestamp {
        Timestamp((self.begin.0 + (b as u64 + 1) * self.width).min(self.end.0))
    }
}

/// Consecutive buckets of one row with the same dominant function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketRun {
    /// First bucket of the run.
    pub first: usize,
    /// Last bucket of the run (inclusive).
    pub last: usize,
    /// The function holding the most ticks in each bucket of the run
    /// (ties to the lowest id).
    pub function: FunctionId,
}

/// What the chart fold read from every rank of a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Activity {
    /// Name, clock, definitions, event count and time extent of the
    /// trace.
    pub meta: TraceMeta,
    /// The buckets the rows were folded over; `None` for a fold without
    /// a timeline.
    pub grid: Option<BucketGrid>,
    /// Per rank, the runs of buckets with time attributed to them, in
    /// time order (empty without a grid).
    pub rows: Vec<Vec<BucketRun>>,
    /// Per rank, the message endpoints in stream order.
    pub endpoints: Vec<RankEndpoints>,
    /// Exclusive ticks per function index, summed over the ranks.
    pub function_ticks: Vec<u64>,
    /// Events by kind, summed over the ranks.
    pub counts: EventCounts,
}

impl Activity {
    /// Runs the chart fold over the in-memory `trace` on `threads`
    /// workers, with the timeline rows of `grid` when there is one.
    pub fn of_trace(trace: &Trace, grid: Option<BucketGrid>, threads: usize) -> Activity {
        fold(trace, grid, threads, &Telemetry::noop()).expect("an in-memory trace always decodes")
    }

    /// Fraction (0..=1) of all attributed time spent in MPI functions:
    /// [`RoleTimeProfile::mpi_fraction`](perfvar_trace::stats::RoleTimeProfile::mpi_fraction)
    /// from the same top-of-stack attribution.
    pub fn mpi_fraction(&self) -> f64 {
        let registry = &self.meta.registry;
        let total: u64 = self.function_ticks.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mpi: u64 = (registry.function_ids())
            .filter(|&f| registry.function_role(f).is_mpi())
            .map(|f| self.function_ticks[f.index()])
            .sum();
        mpi as f64 / total as f64
    }
}

/// Ticks per function of the one bucket a rank's walk is in; zero for
/// every function not in `touched`.
struct OpenBucket {
    /// Bucket index the ticks belong to.
    index: usize,
    ticks: Vec<u64>,
    /// Functions with ticks in this bucket, in first-touch order.
    touched: Vec<FunctionId>,
}

impl OpenBucket {
    fn add(&mut self, function: FunctionId, ticks: u64) {
        let slot = &mut self.ticks[function.index()];
        if *slot == 0 {
            self.touched.push(function);
        }
        *slot += ticks;
    }

    /// The bucket's dominant function — most ticks, ties to the lowest
    /// id; functions without ticks never count — and resets the bucket.
    fn take_dominant(&mut self) -> Option<FunctionId> {
        let mut best: Option<(u64, FunctionId)> = None;
        for &f in &self.touched {
            let t = std::mem::take(&mut self.ticks[f.index()]);
            if best.is_none_or(|(bt, bf)| t > bt || (t == bt && f.0 < bf.0)) {
                best = Some((t, f));
            }
        }
        self.touched.clear();
        best.map(|(_, f)| f)
    }
}

/// One rank's chart fold.
struct ActivityFold {
    grid: Option<BucketGrid>,
    stack: Vec<FunctionId>,
    first: Option<Timestamp>,
    last: Option<Timestamp>,
    open: OpenBucket,
    runs: Vec<BucketRun>,
    ticks: Vec<u64>,
    counts: EventCounts,
    endpoints: RankEndpoints,
    max_depth: usize,
}

impl ActivityFold {
    fn new(num_functions: usize, grid: Option<BucketGrid>) -> ActivityFold {
        let open_ticks = if grid.is_some() { num_functions } else { 0 };
        ActivityFold {
            grid,
            stack: Vec::new(),
            first: None,
            last: None,
            open: OpenBucket {
                index: 0,
                ticks: vec![0; open_ticks],
                touched: Vec::new(),
            },
            runs: Vec::new(),
            ticks: vec![0; num_functions],
            counts: EventCounts::default(),
            endpoints: RankEndpoints::default(),
            max_depth: 0,
        }
    }

    /// Attributes `[prev, now)` to `top`, split over the buckets it
    /// crosses.
    fn attribute(&mut self, top: FunctionId, prev: Timestamp, now: Timestamp) {
        self.ticks[top.index()] += now.0 - prev.0;
        let Some(grid) = self.grid else {
            return;
        };
        let mut start = prev.0.saturating_sub(grid.begin.0);
        let stop = now.0.saturating_sub(grid.begin.0);
        while start < stop {
            let b = ((start / grid.width) as usize).min(grid.buckets - 1);
            let boundary = if b == grid.buckets - 1 {
                u64::MAX
            } else {
                (b as u64 + 1) * grid.width
            };
            let chunk_end = stop.min(boundary);
            if b != self.open.index {
                self.close_bucket();
                self.open.index = b;
            }
            self.open.add(top, chunk_end - start);
            start = chunk_end;
        }
    }

    /// Appends the open bucket's dominant function to the runs.
    fn close_bucket(&mut self) {
        let Some(function) = self.open.take_dominant() else {
            return;
        };
        let b = self.open.index;
        match self.runs.last_mut() {
            Some(run) if run.function == function && run.last + 1 == b => run.last = b,
            _ => self.runs.push(BucketRun {
                first: b,
                last: b,
                function,
            }),
        }
    }
}

impl RecordFold for ActivityFold {
    fn step(&mut self, records: &[EventRecord]) {
        for r in records {
            match (self.last, self.stack.last()) {
                (Some(prev), Some(&top)) => self.attribute(top, prev, r.time),
                (None, _) => self.first = Some(r.time),
                _ => {}
            }
            self.last = Some(r.time);
            match r.event {
                Event::Enter { function } => {
                    self.counts.enters += 1;
                    self.stack.push(function);
                    self.max_depth = self.max_depth.max(self.stack.len());
                }
                Event::Leave { .. } => {
                    self.counts.leaves += 1;
                    self.stack.pop();
                }
                Event::MsgSend { to, tag, bytes } => {
                    self.counts.sends += 1;
                    self.endpoints.sends.push(Endpoint {
                        peer: to,
                        tag,
                        bytes,
                        time: r.time,
                    });
                }
                Event::MsgRecv { from, tag, bytes } => {
                    self.counts.recvs += 1;
                    self.endpoints.recvs.push(Endpoint {
                        peer: from,
                        tag,
                        bytes,
                        time: r.time,
                    });
                }
                Event::Metric { .. } => self.counts.metrics += 1,
            }
        }
    }
}

/// Runs the chart fold over every rank of `source`; the first rank that
/// cannot be decoded fails the fold.
fn fold(
    source: &impl RankSource,
    grid: Option<BucketGrid>,
    threads: usize,
    telemetry: &Telemetry,
) -> Result<Activity, TraceError> {
    let (name, clock, registry) = source.header();
    let num_functions = registry.num_functions();
    let ranks: Vec<usize> = (0..registry.num_processes()).collect();
    telemetry.begin_ranks(Stage::Fold, ranks.len());
    let results = {
        let _span = telemetry.span(Stage::Fold);
        source.pass(
            &ranks,
            threads,
            telemetry.is_enabled(),
            |_| ActivityFold::new(num_functions, grid),
            |mut fold, read: RankRead| {
                fold.close_bucket();
                let mut w = telemetry.worker(Stage::Fold);
                w.events(fold.counts.total() as u64);
                w.bytes(read.bytes);
                w.busy(read.decode, read.replay);
                w.stack_depth(fold.max_depth);
                drop(w);
                if let Some(mapped) = read.mapped {
                    telemetry.count_stream(mapped);
                }
                telemetry.rank_done();
                fold
            },
        )
    };
    let mut activity = Activity {
        meta: TraceMeta {
            name: name.to_string(),
            clock,
            registry: registry.clone(),
            num_events: 0,
            begin: Timestamp::ZERO,
            end: Timestamp::ZERO,
        },
        grid,
        rows: Vec::with_capacity(ranks.len()),
        endpoints: Vec::with_capacity(ranks.len()),
        function_ticks: vec![0; num_functions],
        counts: EventCounts::default(),
    };
    let mut extent: Option<(Timestamp, Timestamp)> = None;
    for result in results {
        let fold = result?;
        for (total, ticks) in activity.function_ticks.iter_mut().zip(&fold.ticks) {
            *total += ticks;
        }
        let c = &mut activity.counts;
        c.enters += fold.counts.enters;
        c.leaves += fold.counts.leaves;
        c.sends += fold.counts.sends;
        c.recvs += fold.counts.recvs;
        c.metrics += fold.counts.metrics;
        if let (Some(first), Some(last)) = (fold.first, fold.last) {
            extent = Some(match extent {
                Some((begin, end)) => (begin.min(first), end.max(last)),
                None => (first, last),
            });
        }
        activity.rows.push(fold.runs);
        activity.endpoints.push(fold.endpoints);
    }
    activity.meta.num_events = activity.counts.total() as u64;
    if let Some((begin, end)) = extent {
        (activity.meta.begin, activity.meta.end) = (begin, end);
    }
    Ok(activity)
}

/// Runs the chart fold over the trace file at `path` without loading it
/// (text traces, `.pvtx`, are loaded), honouring the config's
/// `threads` and I/O knobs; archives fold their ranks in parallel, PVT
/// files in one sequential sweep. Equal to [`Activity::of_trace`] of
/// [`read_trace_file`]. A rank that cannot be decoded fails the fold
/// with its typed error.
pub fn activity_of_path(
    path: impl AsRef<Path>,
    config: &AnalysisConfig,
    grid: Option<BucketGrid>,
    telemetry: &Telemetry,
) -> Result<Activity, TraceError> {
    let path = path.as_ref();
    match Format::from_path(path) {
        Format::Text => fold(&read_trace_file(path)?, grid, config.threads, telemetry),
        Format::Archive => {
            let cursor = ArchiveCursor::open_with(path, cursor_options(config))?;
            fold(&cursor, grid, config.threads, telemetry)
        }
        _ => fold(
            &PvtFile::open(path, config)?,
            grid,
            config.threads,
            telemetry,
        ),
    }
}

/// [`activity_of_path`] with `buckets` timeline buckets over the time
/// axis of `meta`, which an earlier pass over the same file found: the
/// analysis's, or a fold's without a timeline. A file whose name, clock,
/// definitions, event count or time extent no longer match `meta`
/// changed between the passes, and fails with [`TraceError::Corrupt`].
pub fn fold_on_axis(
    path: impl AsRef<Path>,
    config: &AnalysisConfig,
    meta: &TraceMeta,
    buckets: usize,
    telemetry: &Telemetry,
) -> Result<Activity, TraceError> {
    let grid = BucketGrid::new(meta.begin, meta.end, buckets);
    let activity = activity_of_path(path, config, Some(grid), telemetry)?;
    if activity.meta != *meta {
        let changed = "the file changed between two passes over it";
        return Err(TraceError::Corrupt(changed.into()));
    }
    Ok(activity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outofcore::{analyze_path_with, RecoveryMode};
    use perfvar_trace::format::write_trace_file;
    use perfvar_trace::stats::{event_counts, role_time_profile};
    use perfvar_trace::{Clock, FunctionRole, ProcessId, TraceBuilder};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("perfvar-activity-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Two ranks exchanging messages around a compute and an MPI
    /// function, with one metric sample.
    fn messaging(iterations: u64) -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds()).with_name("activity");
        let work = b.define_function("work", FunctionRole::Compute);
        let wait = b.define_function("MPI_Wait", FunctionRole::MpiPointToPoint);
        let cycles = b.define_metric("cycles", perfvar_trace::MetricMode::Accumulating, "count");
        let p = [b.define_process("rank 0"), b.define_process("rank 1")];
        for (i, &pid) in p.iter().enumerate() {
            let peer = p[1 - i];
            let w = b.process_mut(pid);
            let mut t = 3 * i as u64;
            for k in 0..iterations {
                w.enter(Timestamp(t), work).unwrap();
                w.metric(Timestamp(t), cycles, k * 10).unwrap();
                t += 40 + 7 * i as u64;
                w.leave(Timestamp(t), work).unwrap();
                w.enter(Timestamp(t), wait).unwrap();
                w.send(Timestamp(t), peer, 1, 64).unwrap();
                t += 5;
                w.recv(Timestamp(t), peer, 1, 64).unwrap();
                w.leave(Timestamp(t), wait).unwrap();
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn counts_ticks_and_extent_match_the_trace() {
        let trace = messaging(6);
        for threads in [1, 2] {
            let activity = Activity::of_trace(&trace, None, threads);
            assert_eq!(activity.meta, TraceMeta::of(&trace));
            assert_eq!(activity.counts, event_counts(&trace));
            let profile = role_time_profile(&trace);
            assert_eq!(activity.mpi_fraction(), profile.mpi_fraction());
            assert_eq!(
                activity.function_ticks.iter().sum::<u64>(),
                profile.grand_total().0
            );
            assert!(activity.rows.iter().all(Vec::is_empty));
            assert_eq!(activity.endpoints[1].sends.len(), 6);
            assert_eq!(activity.endpoints[0].recvs[0].peer, ProcessId(1));
        }
    }

    #[test]
    fn every_file_format_folds_like_the_trace() {
        let trace = messaging(9);
        let grid = Some(BucketGrid::new(trace.begin(), trace.end(), 7));
        let expected = Activity::of_trace(&trace, grid, 1);
        assert!(expected.rows.iter().all(|row| !row.is_empty()));
        let config = AnalysisConfig::default();
        for name in ["fold.pvt", "fold.pvta", "fold.pvtx"] {
            let path = tmp(name);
            write_trace_file(&trace, &path).unwrap();
            let from_disk = activity_of_path(&path, &config, grid, &Telemetry::noop()).unwrap();
            assert_eq!(from_disk, expected, "{name}");
        }
    }

    #[test]
    fn a_file_rewritten_after_the_analysis_fails_the_fold() {
        let config = AnalysisConfig::default();
        for name in ["rewritten.pvt", "rewritten.pvta"] {
            let path = tmp(name);
            write_trace_file(&messaging(6), &path).unwrap();
            let analysis = analyze_path_with(&path, &config, RecoveryMode::Strict).unwrap();
            let fold = || fold_on_axis(&path, &config, &analysis.meta, 960, &Telemetry::noop());
            assert!(fold().is_ok());
            // Same definitions, more events: the fold decodes cleanly
            // but no longer describes the analysed trace.
            write_trace_file(&messaging(8), &path).unwrap();
            let error = fold().unwrap_err();
            assert!(error.to_string().contains("changed"), "{name}: {error}");
        }
    }

    #[test]
    fn a_truncated_file_fails_the_fold_with_a_typed_error() {
        let config = AnalysisConfig::default();
        let path = tmp("truncated.pvt");
        write_trace_file(&messaging(20), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();
        let result = activity_of_path(&path, &config, None, &Telemetry::noop());
        assert!(
            matches!(result, Err(TraceError::CorruptStream { .. })),
            "{result:?}"
        );
    }
}
