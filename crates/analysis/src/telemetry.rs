//! Pipeline self-observability: per-stage spans, throughput counters and
//! peak-state gauges.
//!
//! The fused pipeline is fast precisely because it never materialises
//! intermediate state — which also makes it a black box on a large run:
//! nothing says which stage consumes the wall time, how many events/s a
//! worker sustains, or how far along a long out-of-core analysis is.
//! This module instruments the pipeline the same way the pipeline
//! instruments the target application:
//!
//! * **Spans** ([`Telemetry::span`]) measure per-[`Stage`] wall time on
//!   the monotonic clock ([`std::time::Instant`]). Spans are RAII guards;
//!   overlapping spans of the same stage (e.g. from concurrent phases)
//!   simply accumulate.
//! * **Worker buffers** ([`Telemetry::worker`]) collect event/byte/
//!   segment counters and peak-state gauges. Each buffer is owned by one
//!   worker task — increments are plain (unshared, lock-free) integer
//!   adds on the hot path — and merges into the shared aggregate exactly
//!   once, when dropped at task exit.
//! * **Progress** ([`Telemetry::rank_done`]) drives an optional callback
//!   (`N/M ranks, X events/s`) the CLI renders as a live progress line
//!   for out-of-core runs.
//!
//! The whole layer is zero-cost when disabled: [`Telemetry::noop`]
//! allocates nothing, and every recording call reduces to one branch on
//! an `Option` that is always `None`.
//!
//! [`Telemetry::snapshot`] folds everything into a serialisable
//! [`PipelineStats`] — the value behind the CLI's `--stats` table and
//! `--stats-json` machine output. The experiments harness bounds the
//! instrumentation overhead (<5% target) in `BENCH_pipeline.json`.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A stage of the analysis pipeline, for span and counter attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Loading/decoding the input into memory (in-memory path only; the
    /// out-of-core passes decode inline and account bytes to themselves).
    Load,
    /// The profile pass: replay every rank into per-function aggregates
    /// for dominant-function selection.
    Profile,
    /// The fused pass: segments, SOS inputs and counter rows per rank.
    Fuse,
    /// Merging partials and deriving SOS/imbalance/waste/correlations.
    Assemble,
    /// The chart fold of `report`, `render` and `info`
    /// ([`crate::activity`]): timeline buckets, function ticks, event
    /// counts and message endpoints per rank.
    Fold,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Load,
        Stage::Profile,
        Stage::Fuse,
        Stage::Assemble,
        Stage::Fold,
    ];

    /// Stable lower-case name (used in `--stats` output and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Load => "load",
            Stage::Profile => "profile",
            Stage::Fuse => "fuse",
            Stage::Assemble => "assemble",
            Stage::Fold => "fold",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Totals of the pipeline-wide throughput counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Event records replayed through the stack machine (all passes).
    pub events_replayed: u64,
    /// Bytes decoded from disk (out-of-core cursors, input loading).
    pub bytes_decoded: u64,
    /// Segments emitted by the fused pass.
    pub segments_emitted: u64,
    /// Segments whose contained synchronization time exceeded their
    /// inclusive time and was clamped in the SOS computation (possible
    /// after timestamp repair on malformed streams; see `Segment::sos`).
    pub sos_clamped: u64,
    /// Per-rank stream failures recovered in partial mode.
    pub recovery_events: u64,
}

impl Counters {
    /// Adds `other`'s totals into `self`. Counter totals form a
    /// commutative monoid under this sum (identity:
    /// [`Counters::default`]), which is what lets per-shard pipeline
    /// counters — e.g. those carried by
    /// [`AnalysisPart`](crate::part::AnalysisPart) — be combined in any
    /// order at a coordinator.
    pub fn merge(&mut self, other: &Counters) {
        self.events_replayed += other.events_replayed;
        self.bytes_decoded += other.bytes_decoded;
        self.segments_emitted += other.segments_emitted;
        self.sos_clamped += other.sos_clamped;
        self.recovery_events += other.recovery_events;
    }
}

/// Peak-state gauges: the high-water marks of per-worker live state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Peaks {
    /// Deepest call stack any worker replayed.
    pub max_stack_depth: u64,
    /// Most simultaneously open segments in any fused sink.
    pub max_live_segments: u64,
    /// Worker buffers merged over the run (one per rank per pass).
    pub worker_buffers: u64,
    /// Effective read-buffer size of the out-of-core buffered path, in
    /// bytes (`0` until an out-of-core pass records it). Memory-mapped
    /// streams bypass the buffer; the gauge still reports what the
    /// buffered fallback would use.
    #[serde(default)]
    pub read_buffer_bytes: u64,
    /// Rank streams the out-of-core pass decoded straight from a memory
    /// mapping (stream files larger than the read buffer).
    #[serde(default)]
    pub mapped_streams: u64,
    /// Rank streams the out-of-core pass decoded through the read
    /// buffer.
    #[serde(default)]
    pub buffered_streams: u64,
    /// The process's peak resident set size, in bytes, when the stats
    /// were taken: `VmHWM` of `/proc/self/status` (0 where that is not
    /// available). The whole process, not the pipeline alone.
    #[serde(default)]
    pub peak_rss_bytes: u64,
}

/// The process's peak resident set size so far, in bytes: `VmHWM` of
/// `/proc/self/status`, or 0 where that file or line is missing.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Wall time and throughput of one pipeline stage.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageStats {
    /// Stage name (see [`Stage::name`]).
    pub stage: String,
    /// Accumulated wall time of the stage's spans, in seconds.
    pub wall_s: f64,
    /// Events replayed within the stage.
    pub events: u64,
    /// Bytes decoded within the stage.
    pub bytes: u64,
    /// Worker busy time spent decoding records, summed over workers, in
    /// seconds: one clock pair around each decoded chunk of a file pass
    /// (`0` for in-memory passes and stages that decode nothing).
    #[serde(default)]
    pub decode_s: f64,
    /// Worker busy time spent replaying decoded records through the
    /// stack machine and the sinks, summed over workers, in seconds.
    #[serde(default)]
    pub replay_s: f64,
}

impl StageStats {
    /// Events per second sustained by the stage (0 for an empty stage).
    pub fn events_per_sec(&self) -> f64 {
        rate(self.events, self.wall_s)
    }

    /// Bytes per second sustained by the stage (0 for an empty stage).
    pub fn bytes_per_sec(&self) -> f64 {
        rate(self.bytes, self.wall_s)
    }
}

fn rate(count: u64, wall_s: f64) -> f64 {
    if wall_s > 0.0 {
        count as f64 / wall_s
    } else {
        0.0
    }
}

/// The aggregated result of one instrumented pipeline run.
///
/// Serialises to the `--stats-json` machine output; the shape round-trips
/// through `serde_json` (tested).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Wall time from [`Telemetry`] construction to the snapshot.
    pub wall_s: f64,
    /// Per-stage wall time and throughput, in pipeline order. Stages
    /// that never ran (no span, no counters) are omitted.
    pub stages: Vec<StageStats>,
    /// Pipeline-wide counter totals.
    pub totals: Counters,
    /// Peak-state gauges.
    pub peaks: Peaks,
    /// Ranks in the largest fan-out pass.
    pub ranks: u64,
}

impl PipelineStats {
    /// Overall events per second (all passes over total wall time).
    pub fn events_per_sec(&self) -> f64 {
        rate(self.totals.events_replayed, self.wall_s)
    }

    /// Overall bytes per second (all passes over total wall time).
    pub fn bytes_per_sec(&self) -> f64 {
        rate(self.totals.bytes_decoded, self.wall_s)
    }

    /// The stats of one stage, by [`Stage::name`].
    pub fn stage(&self, name: &str) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Renders the human-readable `--stats` table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pipeline stats: {:.3} s wall, {} ranks, {:.2} Mevents/s, {:.1} MiB/s",
            self.wall_s,
            self.ranks,
            self.events_per_sec() / 1e6,
            self.bytes_per_sec() / (1024.0 * 1024.0),
        );
        let _ = writeln!(
            out,
            "  {:<10} {:>9} {:>12} {:>10} {:>12} {:>10}",
            "stage", "wall s", "events", "Mev/s", "bytes", "MiB/s"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "  {:<10} {:>9.3} {:>12} {:>10.2} {:>12} {:>10.1}",
                s.stage,
                s.wall_s,
                s.events,
                s.events_per_sec() / 1e6,
                s.bytes,
                s.bytes_per_sec() / (1024.0 * 1024.0),
            );
        }
        for s in self.stages.iter().filter(|s| s.decode_s + s.replay_s > 0.0) {
            let _ = writeln!(
                out,
                "  {} busy: decode {:.3} s, replay {:.3} s (summed over workers)",
                s.stage, s.decode_s, s.replay_s,
            );
        }
        let _ = writeln!(
            out,
            "  totals: {} events, {} bytes, {} segments",
            self.totals.events_replayed, self.totals.bytes_decoded, self.totals.segments_emitted,
        );
        let _ = writeln!(
            out,
            "  peaks: stack depth {}, live segments {}, worker buffers {}",
            self.peaks.max_stack_depth, self.peaks.max_live_segments, self.peaks.worker_buffers,
        );
        if self.peaks.mapped_streams + self.peaks.buffered_streams > 0 {
            let _ = writeln!(
                out,
                "  streams: {} mapped, {} buffered (read buffer {} bytes)",
                self.peaks.mapped_streams,
                self.peaks.buffered_streams,
                self.peaks.read_buffer_bytes
            );
        }
        if self.peaks.peak_rss_bytes > 0 {
            let _ = writeln!(
                out,
                "  memory: peak RSS {:.1} MiB (VmHWM)",
                self.peaks.peak_rss_bytes as f64 / (1024.0 * 1024.0)
            );
        }
        if self.totals.sos_clamped > 0 {
            let _ = writeln!(
                out,
                "  warning: {} segment(s) had sync time exceeding inclusive time (SOS clamped to 0)",
                self.totals.sos_clamped
            );
        }
        if self.totals.recovery_events > 0 {
            let _ = writeln!(
                out,
                "  warning: {} rank stream(s) failed and were recovered as empty",
                self.totals.recovery_events
            );
        }
        out
    }
}

/// A progress update, fired once per completed rank.
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// Name of the stage the rank completed in.
    pub stage: &'static str,
    /// Ranks completed in the current fan-out pass.
    pub ranks_done: u64,
    /// Ranks the current pass fans out over.
    pub ranks_total: u64,
    /// Events replayed so far, across all passes.
    pub events_replayed: u64,
    /// Seconds since the telemetry was created.
    pub elapsed_s: f64,
}

impl Progress {
    /// Overall events per second so far.
    pub fn events_per_sec(&self) -> f64 {
        rate(self.events_replayed, self.elapsed_s)
    }
}

type ProgressFn = Box<dyn Fn(Progress) + Send + Sync>;

/// The shared aggregate every worker buffer and span merges into. Only
/// touched at span end and worker-buffer drop — never on the hot path.
#[derive(Default)]
struct Agg {
    stage_wall: [f64; Stage::ALL.len()],
    stage_events: [u64; Stage::ALL.len()],
    stage_bytes: [u64; Stage::ALL.len()],
    stage_decode: [f64; Stage::ALL.len()],
    stage_replay: [f64; Stage::ALL.len()],
    totals: Counters,
    peaks: Peaks,
}

struct Inner {
    start: Instant,
    agg: Mutex<Agg>,
    /// Progress state (atomics: updated by workers without the lock).
    stage: AtomicUsize,
    ranks_done: AtomicU64,
    ranks_total: AtomicU64,
    ranks_max: AtomicU64,
    events_done: AtomicU64,
    progress: Option<ProgressFn>,
}

/// Handle to one pipeline run's telemetry. Shared by reference across
/// the worker threads of the run (the type is `Sync`).
pub struct Telemetry {
    inner: Option<Inner>,
}

impl Telemetry {
    /// An enabled recorder.
    pub fn enabled() -> Telemetry {
        Telemetry {
            inner: Some(Inner {
                start: Instant::now(),
                agg: Mutex::new(Agg::default()),
                stage: AtomicUsize::new(Stage::Load.index()),
                ranks_done: AtomicU64::new(0),
                ranks_total: AtomicU64::new(0),
                ranks_max: AtomicU64::new(0),
                events_done: AtomicU64::new(0),
                progress: None,
            }),
        }
    }

    /// The disabled recorder: allocates nothing, records nothing; every
    /// call on it is one always-false branch.
    pub fn noop() -> Telemetry {
        Telemetry { inner: None }
    }

    /// Whether this recorder actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Installs a progress callback, fired once per completed rank (from
    /// worker threads). No-op on a disabled recorder.
    pub fn with_progress(mut self, f: impl Fn(Progress) + Send + Sync + 'static) -> Telemetry {
        if let Some(inner) = &mut self.inner {
            inner.progress = Some(Box::new(f));
        }
        self
    }

    /// Opens a wall-time span for `stage`; the guard records on drop.
    pub fn span(&self, stage: Stage) -> Span<'_> {
        Span {
            active: self.inner.as_ref().map(|i| (i, stage, Instant::now())),
        }
    }

    /// Opens a worker buffer attributed to `stage`. The buffer is owned
    /// by the calling worker — recording into it is lock-free — and
    /// merges into the shared aggregate when dropped.
    pub fn worker(&self, stage: Stage) -> Worker<'_> {
        Worker {
            parent: self.inner.as_ref().map(|i| (i, stage)),
            counters: Counters::default(),
            max_stack_depth: 0,
            max_live_segments: 0,
            decode: Duration::ZERO,
            replay: Duration::ZERO,
        }
    }

    /// Starts a fan-out pass over `total` ranks: progress resets to
    /// `0/total` and subsequent [`rank_done`](Telemetry::rank_done) calls
    /// report against `stage`.
    pub fn begin_ranks(&self, stage: Stage, total: usize) {
        if let Some(inner) = &self.inner {
            inner.stage.store(stage.index(), Ordering::Relaxed);
            inner.ranks_done.store(0, Ordering::Relaxed);
            inner.ranks_total.store(total as u64, Ordering::Relaxed);
            inner.ranks_max.fetch_max(total as u64, Ordering::Relaxed);
        }
    }

    /// Marks one rank of the current pass complete, firing the progress
    /// callback (if any). Called from worker threads.
    pub fn rank_done(&self) {
        if let Some(inner) = &self.inner {
            let done = inner.ranks_done.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(progress) = &inner.progress {
                progress(Progress {
                    stage: Stage::ALL[inner
                        .stage
                        .load(Ordering::Relaxed)
                        .min(Stage::ALL.len() - 1)]
                    .name(),
                    ranks_done: done,
                    ranks_total: inner.ranks_total.load(Ordering::Relaxed),
                    events_replayed: inner.events_done.load(Ordering::Relaxed),
                    elapsed_s: inner.start.elapsed().as_secs_f64(),
                });
            }
        }
    }

    /// Counts `n` rank streams recovered (skipped) in partial mode.
    pub fn count_recovery(&self, n: u64) {
        if let Some(inner) = &self.inner {
            inner.agg.lock().unwrap().totals.recovery_events += n;
        }
    }

    /// Records the effective buffered read-buffer size of an out-of-core
    /// pass (see [`Peaks::read_buffer_bytes`]).
    pub fn set_read_buffer(&self, bytes: u64) {
        if let Some(inner) = &self.inner {
            let mut agg = inner.agg.lock().unwrap();
            agg.peaks.read_buffer_bytes = agg.peaks.read_buffer_bytes.max(bytes);
        }
    }

    /// Counts one rank stream of an out-of-core pass as decoded from a
    /// memory mapping or through the read buffer (see
    /// [`Peaks::mapped_streams`]).
    pub fn count_stream(&self, mapped: bool) {
        if let Some(inner) = &self.inner {
            let mut agg = inner.agg.lock().unwrap();
            if mapped {
                agg.peaks.mapped_streams += 1;
            } else {
                agg.peaks.buffered_streams += 1;
            }
        }
    }

    /// Folds everything recorded so far into a [`PipelineStats`].
    /// Returns `None` on a disabled recorder.
    pub fn snapshot(&self) -> Option<PipelineStats> {
        let inner = self.inner.as_ref()?;
        let agg = inner.agg.lock().unwrap();
        let stages = Stage::ALL
            .iter()
            .filter(|s| {
                agg.stage_wall[s.index()] > 0.0
                    || agg.stage_events[s.index()] > 0
                    || agg.stage_bytes[s.index()] > 0
            })
            .map(|s| StageStats {
                stage: s.name().to_string(),
                wall_s: agg.stage_wall[s.index()],
                events: agg.stage_events[s.index()],
                bytes: agg.stage_bytes[s.index()],
                decode_s: agg.stage_decode[s.index()],
                replay_s: agg.stage_replay[s.index()],
            })
            .collect();
        Some(PipelineStats {
            wall_s: inner.start.elapsed().as_secs_f64(),
            stages,
            totals: agg.totals,
            peaks: Peaks {
                peak_rss_bytes: peak_rss_bytes(),
                ..agg.peaks
            },
            ranks: inner.ranks_max.load(Ordering::Relaxed),
        })
    }
}

/// RAII wall-time span for one [`Stage`] (see [`Telemetry::span`]).
pub struct Span<'t> {
    active: Option<(&'t Inner, Stage, Instant)>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((inner, stage, started)) = self.active.take() {
            let elapsed = started.elapsed().as_secs_f64();
            inner.agg.lock().unwrap().stage_wall[stage.index()] += elapsed;
        }
    }
}

/// A per-worker counter buffer (see [`Telemetry::worker`]).
///
/// Owned by one worker task: every recording method is a plain integer
/// operation on unshared state. The buffer merges into the pipeline
/// aggregate (one mutex acquisition) when dropped.
pub struct Worker<'t> {
    parent: Option<(&'t Inner, Stage)>,
    counters: Counters,
    max_stack_depth: u64,
    max_live_segments: u64,
    decode: Duration,
    replay: Duration,
}

impl Worker<'_> {
    /// Counts `n` events replayed.
    #[inline]
    pub fn events(&mut self, n: u64) {
        if self.parent.is_some() {
            self.counters.events_replayed += n;
        }
    }

    /// Counts `n` bytes decoded from disk.
    #[inline]
    pub fn bytes(&mut self, n: u64) {
        if self.parent.is_some() {
            self.counters.bytes_decoded += n;
        }
    }

    /// Counts `n` segments emitted.
    #[inline]
    pub fn segments(&mut self, n: u64) {
        if self.parent.is_some() {
            self.counters.segments_emitted += n;
        }
    }

    /// Counts `n` SOS underflow clamps (sync time > inclusive time).
    #[inline]
    pub fn sos_clamped(&mut self, n: u64) {
        if self.parent.is_some() {
            self.counters.sos_clamped += n;
        }
    }

    /// Raises the peak stack-depth gauge to at least `depth`.
    #[inline]
    pub fn stack_depth(&mut self, depth: usize) {
        if self.parent.is_some() {
            self.max_stack_depth = self.max_stack_depth.max(depth as u64);
        }
    }

    /// Raises the peak live-segments gauge to at least `n`.
    #[inline]
    pub fn live_segments(&mut self, n: usize) {
        if self.parent.is_some() {
            self.max_live_segments = self.max_live_segments.max(n as u64);
        }
    }

    /// Adds busy time spent decoding records and replaying them (see
    /// [`StageStats::decode_s`]). Kept apart from [`Counters`], whose
    /// totals are exact and comparable across runs and shards.
    #[inline]
    pub fn busy(&mut self, decode: Duration, replay: Duration) {
        if self.parent.is_some() {
            self.decode += decode;
            self.replay += replay;
        }
    }
}

impl Drop for Worker<'_> {
    fn drop(&mut self) {
        if let Some((inner, stage)) = self.parent {
            inner
                .events_done
                .fetch_add(self.counters.events_replayed, Ordering::Relaxed);
            let mut agg = inner.agg.lock().unwrap();
            agg.stage_events[stage.index()] += self.counters.events_replayed;
            agg.stage_bytes[stage.index()] += self.counters.bytes_decoded;
            agg.stage_decode[stage.index()] += self.decode.as_secs_f64();
            agg.stage_replay[stage.index()] += self.replay.as_secs_f64();
            agg.totals.merge(&self.counters);
            agg.peaks.max_stack_depth = agg.peaks.max_stack_depth.max(self.max_stack_depth);
            agg.peaks.max_live_segments = agg.peaks.max_live_segments.max(self.max_live_segments);
            agg.peaks.worker_buffers += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_records_nothing() {
        let t = Telemetry::noop();
        assert!(!t.is_enabled());
        {
            let _span = t.span(Stage::Profile);
            let mut w = t.worker(Stage::Profile);
            w.events(100);
            w.bytes(100);
            w.stack_depth(9);
        }
        t.rank_done();
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn worker_buffers_merge_across_threads() {
        // Counters recorded from concurrent worker threads (with nested
        // spans per worker) sum exactly; gauges take the maximum.
        let t = Telemetry::enabled();
        t.begin_ranks(Stage::Profile, 8);
        std::thread::scope(|scope| {
            for k in 0..8u64 {
                let t = &t;
                scope.spawn(move || {
                    let _span = t.span(Stage::Profile);
                    let mut w = t.worker(Stage::Profile);
                    w.events(1000 + k);
                    w.bytes(10 * (k + 1));
                    w.segments(k);
                    w.stack_depth(k as usize);
                    drop(w);
                    t.rank_done();
                });
            }
        });
        let stats = t.snapshot().unwrap();
        assert_eq!(stats.totals.events_replayed, 8 * 1000 + 28);
        assert_eq!(stats.totals.bytes_decoded, 10 * 36);
        assert_eq!(stats.totals.segments_emitted, 28);
        assert_eq!(stats.peaks.max_stack_depth, 7);
        assert_eq!(stats.peaks.worker_buffers, 8);
        assert_eq!(stats.ranks, 8);
        let profile = stats.stage("profile").expect("profile stage present");
        assert_eq!(profile.events, 8 * 1000 + 28);
        // Eight overlapping spans accumulated — wall time is positive.
        assert!(profile.wall_s >= 0.0);
        assert!(stats.stage("fuse").is_none(), "fuse never ran");
    }

    #[test]
    fn spans_nest_and_accumulate() {
        let t = Telemetry::enabled();
        {
            let _outer = t.span(Stage::Load);
            let _inner = t.span(Stage::Load); // nested span, same stage
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let stats = t.snapshot().unwrap();
        let load = stats.stage("load").unwrap();
        // Both guards recorded: accumulated wall ≥ 2 × 2 ms.
        assert!(load.wall_s >= 0.004, "wall_s = {}", load.wall_s);
        assert!(stats.wall_s >= load.wall_s / 2.0);
    }

    #[test]
    fn progress_fires_per_rank() {
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let t = Telemetry::enabled().with_progress(move |p| {
            sink.lock()
                .unwrap()
                .push((p.stage, p.ranks_done, p.ranks_total));
        });
        t.begin_ranks(Stage::Fuse, 3);
        for _ in 0..3 {
            let mut w = t.worker(Stage::Fuse);
            w.events(5);
            drop(w);
            t.rank_done();
        }
        let seen = seen.lock().unwrap();
        assert_eq!(*seen, vec![("fuse", 1, 3), ("fuse", 2, 3), ("fuse", 3, 3)]);
    }

    #[test]
    fn recovery_and_clamp_counters_surface_in_the_table() {
        let t = Telemetry::enabled();
        t.count_recovery(2);
        {
            let mut w = t.worker(Stage::Fuse);
            w.sos_clamped(1);
        }
        let stats = t.snapshot().unwrap();
        assert_eq!(stats.totals.recovery_events, 2);
        assert_eq!(stats.totals.sos_clamped, 1);
        let table = stats.render_table();
        assert!(table.contains("SOS clamped"), "{table}");
        assert!(table.contains("recovered as empty"), "{table}");
    }

    /// Busy time lands in its stage's `decode_s`/`replay_s`, not in the
    /// counter totals, and the table prints it under the stages.
    #[test]
    fn busy_time_is_recorded_apart_from_the_counters() {
        let t = Telemetry::enabled();
        for _ in 0..2 {
            let mut w = t.worker(Stage::Fuse);
            w.events(10);
            w.busy(Duration::from_millis(3), Duration::from_millis(2));
        }
        let stats = t.snapshot().unwrap();
        let fuse = stats.stage("fuse").unwrap();
        assert!((fuse.decode_s - 0.006).abs() < 1e-9, "{}", fuse.decode_s);
        assert!((fuse.replay_s - 0.004).abs() < 1e-9, "{}", fuse.replay_s);
        assert_eq!(stats.totals.events_replayed, 20);
        let table = stats.render_table();
        assert!(
            table.contains("fuse busy: decode 0.006 s, replay 0.004 s"),
            "{table}"
        );
        let noop = Telemetry::noop();
        let mut w = noop.worker(Stage::Fuse);
        w.busy(Duration::from_millis(3), Duration::from_millis(2));
        assert_eq!((w.decode, w.replay), (Duration::ZERO, Duration::ZERO));
    }

    /// The snapshot reads the process's own peak RSS (on Linux, where
    /// `/proc/self/status` has it) and the table prints it; a stats
    /// document written before the field existed parses with 0.
    #[test]
    fn peak_rss_is_read_from_the_process_and_defaults_to_zero() {
        let stats = Telemetry::enabled().snapshot().unwrap();
        if cfg!(target_os = "linux") {
            assert!(stats.peaks.peak_rss_bytes > 1 << 20, "{:?}", stats.peaks);
            assert!(stats.render_table().contains("peak RSS"));
        }
        let old = r#"{"max_stack_depth": 3, "max_live_segments": 1, "worker_buffers": 2}"#;
        let peaks: Peaks = serde_json::from_str(old).unwrap();
        assert_eq!(peaks.peak_rss_bytes, 0);
        let quiet = PipelineStats { peaks, ..stats };
        assert!(!quiet.render_table().contains("peak RSS"));
    }

    /// A stats document written before the busy-time split still parses,
    /// with both fields zero.
    #[test]
    fn stage_stats_without_busy_time_parse() {
        let json = r#"{"stage": "fuse", "wall_s": 0.5, "events": 7, "bytes": 9}"#;
        let stage: StageStats = serde_json::from_str(json).unwrap();
        assert_eq!((stage.events, stage.bytes), (7, 9));
        assert_eq!((stage.decode_s, stage.replay_s), (0.0, 0.0));
    }

    #[test]
    fn stats_round_trip_through_serde_json() {
        let t = Telemetry::enabled();
        {
            let _span = t.span(Stage::Profile);
            let mut w = t.worker(Stage::Profile);
            w.events(123);
            w.bytes(456);
            w.stack_depth(3);
        }
        let stats = t.snapshot().unwrap();
        let json = serde_json::to_string(&stats).unwrap();
        let back: PipelineStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
        assert!(json.contains("events_replayed"));
    }
}
