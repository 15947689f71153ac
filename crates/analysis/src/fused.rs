//! The fused analysis pass: segments, SOS inputs and counter rows in one
//! sweep per process.
//!
//! The materialising pipeline replays a process into `O(invocations)`
//! memory, then re-walks the invocation list to segment it, and then
//! re-scans the *whole event stream once per metric* to attribute
//! counters. This module folds all of that into a single
//! [`ReplayVisitor`] driven by one pass
//! over the stream: per worker, live state is
//! `O(stack depth + segments + metrics)` and every metric channel is
//! attributed during the same sweep. [`fuse_segments`] fans the pass out over
//! [`par_map_processes`] workers and
//! merges the per-process rows in process order, so the result is
//! bit-identical to [`Segmentation::new`] +
//! [`CounterMatrix::for_segments`] (a property test in
//! `tests/properties.rs` holds the two pipelines equal on arbitrary
//! traces).
//!
//! Counter semantics are timestamp-based, not record-order-based: a
//! delta sample at time `t` belongs to every segment with
//! `enter ≤ t < leave` even if the sample record precedes the `Enter`
//! record in the stream, and an accumulating reading at a boundary `t`
//! is the last sample with timestamp ≤ `t`. The sink therefore resolves
//! all boundary work in [`on_tick`](crate::stream::ReplayVisitor::on_tick)
//! — once per timestamp group — instead of at the individual records.

use crate::counters::CounterMatrix;
use crate::parallel::par_map_processes;
use crate::segment::{Segment, Segmentation};
use crate::stream::{replay_visit, ClosedFrame, ReplayVisitor};
use perfvar_trace::{DurationTicks, FunctionId, MetricId, MetricMode, ProcessId, Timestamp, Trace};

/// Segmentation plus per-metric counter matrices from one fused pass.
pub struct FusedSegments {
    /// The segmentation by the chosen function.
    pub segmentation: Segmentation,
    /// One counter matrix per metric channel, in metric-id order.
    /// Empty when the pass ran with counters disabled.
    pub counters: Vec<CounterMatrix>,
}

/// One process's fused-pass partial: its segments (in enter order) plus
/// one counter row per metric channel, `[metric][segment]`.
pub(crate) type FusedPartial = (Vec<Segment>, Vec<Vec<u64>>);

/// Per-process sink folding segments and counter rows in one pass.
/// Shared by [`fuse_segments`], the analysis driver behind
/// [`crate::report::analyze`] and [`crate::outofcore`], which drives it
/// from memory or a disk cursor, and the live path ([`crate::live`]),
/// which drives it from a growing archive across many polls.
///
/// Each callback is split in two: an inlined test that most records
/// fail (is this the segmentation function? is anything due at this
/// tick?) and an out-of-line body for the rare case (open or close a
/// segment, resolve a tick), so the replay loop makes no call for the
/// records that leave the sink unchanged.
pub(crate) struct FusedSink {
    process: ProcessId,
    function: FunctionId,
    /// Metric modes by metric index; empty disables counter tracking.
    modes: Vec<MetricMode>,
    /// Completed and in-flight segments, in enter order.
    segments: Vec<Segment>,
    /// Counter rows, `[metric][segment]`, filled as segments close. While
    /// a segment is open, an accumulating channel's entry holds the
    /// reading at its enter boundary.
    rows: Vec<Vec<u64>>,
    /// Latest sample value per metric (accumulating readings).
    last_value: Vec<u64>,
    /// Delta/gauge sample sums of the current timestamp group.
    tick_sum: Vec<u64>,
    /// Metrics with delta/gauge samples in the current group.
    tick_touched: Vec<usize>,
    /// Indices of the accumulating metrics (resolved once).
    acc_metrics: Vec<usize>,
    /// Stack of open segment indices (nested/recursive invocations).
    open: Vec<usize>,
    /// The first segment entered in the current timestamp group: the
    /// group's segments are `entered..segments.len()`. Kept up to date
    /// only when there are accumulating metrics to read at the boundary.
    entered: usize,
    /// Segments closed in the current timestamp group (likewise).
    closed: Vec<usize>,
    /// Whether the current timestamp group left work for
    /// [`resolve_tick`](FusedSink::resolve_tick): a touched channel or a
    /// boundary reading to take.
    tick_pending: bool,
    /// Peak of `open.len()`: the live-segment gauge of the telemetry
    /// layer (nested/recursive invocations hold several segments open).
    peak_open: usize,
    /// Segments whose contained sync time exceeded their inclusive time
    /// (possible after timestamp repair on malformed streams); their SOS
    /// is clamped to zero by [`Segment::sos`], and the telemetry layer
    /// surfaces the count.
    sos_underflows: u64,
}

impl FusedSink {
    pub(crate) fn new(
        process: ProcessId,
        function: FunctionId,
        modes: Vec<MetricMode>,
    ) -> FusedSink {
        let nm = modes.len();
        let acc_metrics = modes
            .iter()
            .enumerate()
            .filter(|(_, m)| matches!(m, MetricMode::Accumulating))
            .map(|(i, _)| i)
            .collect();
        FusedSink {
            process,
            function,
            modes,
            segments: Vec::new(),
            rows: vec![Vec::new(); nm],
            last_value: vec![0; nm],
            tick_sum: vec![0; nm],
            tick_touched: Vec::new(),
            acc_metrics,
            open: Vec::new(),
            entered: 0,
            closed: Vec::new(),
            tick_pending: false,
            peak_open: 0,
            sos_underflows: 0,
        }
    }

    /// Dismantles the sink into its per-process partial.
    pub(crate) fn into_parts(self) -> FusedPartial {
        (self.segments, self.rows)
    }

    /// Most segments simultaneously open at any point of the pass.
    pub(crate) fn peak_open(&self) -> usize {
        self.peak_open
    }

    /// Closed segments whose sync time exceeded their inclusive time.
    pub(crate) fn sos_underflows(&self) -> u64 {
        self.sos_underflows
    }

    /// All segments emitted so far, in enter order (a suffix may still
    /// be in flight — see [`first_open`](FusedSink::first_open)).
    pub(crate) fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Index of the earliest-entered segment that is still open, if any.
    /// The `open` stack holds indices in increasing enter order, so
    /// every segment before this index is closed for good — the prefix
    /// property live snapshots rely on.
    pub(crate) fn first_open(&self) -> Option<usize> {
        self.open.first().copied()
    }

    /// Opens a segment of the target function at `time`.
    #[inline(never)]
    fn open_segment(&mut self, time: Timestamp) {
        let index = self.segments.len();
        self.segments.push(Segment {
            process: self.process,
            ordinal: index as u32,
            enter: time,
            leave: time, // finalised on close
            sync: DurationTicks::ZERO,
        });
        for row in &mut self.rows {
            row.push(0);
        }
        self.open.push(index);
        self.peak_open = self.peak_open.max(self.open.len());
        self.tick_pending |= !self.acc_metrics.is_empty();
    }

    /// Closes the innermost open segment at `leave`.
    #[inline(never)]
    fn close_segment(&mut self, leave: Timestamp, sync: DurationTicks) {
        let index = self.open.pop().expect("balanced segment frames");
        let seg = &mut self.segments[index];
        seg.leave = leave;
        seg.sync = sync;
        if seg.sync > seg.duration() {
            // SOS-time would underflow; `Segment::sos` clamps it to zero.
            self.sos_underflows += 1;
        }
        if !self.acc_metrics.is_empty() {
            self.closed.push(index);
            self.tick_pending = true;
        }
    }

    /// The first delta/gauge sample of channel `m` in this group.
    #[inline(never)]
    fn touch(&mut self, m: usize) {
        if !self.tick_touched.contains(&m) {
            self.tick_touched.push(m);
            self.tick_pending = true;
        }
    }

    /// Resolves the boundary work of the timestamp group that just ended.
    #[inline(never)]
    fn resolve_tick(&mut self) {
        self.tick_pending = false;
        // The per-tick lists are drained, not taken, so their capacity
        // carries over to the next tick.
        //
        // Delta/gauge samples of this group belong to every segment that
        // is *still open* at group end: a segment closed in this group
        // excludes them (`t < leave` is strict) while one entered in this
        // group includes them (`enter ≤ t`).
        for touched in self.tick_touched.drain(..) {
            let sum = std::mem::take(&mut self.tick_sum[touched]);
            for &index in &self.open {
                self.rows[touched][index] += sum;
            }
        }
        // Accumulating boundary readings use the last sample with
        // timestamp ≤ boundary — i.e. this group's final value, whatever
        // the record order within the group was. The enter reading waits
        // in the segment's row until the segment closes.
        for &m in &self.acc_metrics {
            self.rows[m][self.entered..].fill(self.last_value[m]);
        }
        self.entered = self.segments.len();
        for index in self.closed.drain(..) {
            for &m in &self.acc_metrics {
                let row = &mut self.rows[m][index];
                *row = self.last_value[m].saturating_sub(*row);
            }
        }
    }
}

/// The metric modes the fused pass attributes, in metric-id order; empty
/// (counters disabled) skips the counter machinery entirely.
pub(crate) fn metric_modes(
    registry: &perfvar_trace::Registry,
    with_counters: bool,
) -> Vec<MetricMode> {
    if with_counters {
        registry
            .metric_ids()
            .map(|m| registry.metric(m).mode)
            .collect()
    } else {
        Vec::new()
    }
}

/// Merges per-process fused partials (in process order) into the final
/// [`FusedSegments`]. The merge is identical for in-memory and
/// out-of-core producers, which is what keeps the two bit-equal.
pub(crate) fn merge_fused(
    registry: &perfvar_trace::Registry,
    function: FunctionId,
    modes: &[MetricMode],
    partials: Vec<FusedPartial>,
) -> FusedSegments {
    let mut per_process = Vec::with_capacity(partials.len());
    let mut values: Vec<Vec<Vec<u64>>> = vec![Vec::with_capacity(partials.len()); modes.len()];
    for (segments, rows) in partials {
        per_process.push(segments);
        for (m, row) in rows.into_iter().enumerate() {
            values[m].push(row);
        }
    }
    let segmentation = Segmentation::from_parts(function, per_process);
    // `values` is empty when counters are disabled, so the zip yields
    // nothing in that case.
    let counters = registry
        .metric_ids()
        .zip(values)
        .map(|(metric, vals)| CounterMatrix::from_parts(metric, registry.metric(metric).mode, vals))
        .collect();
    FusedSegments {
        segmentation,
        counters,
    }
}

impl ReplayVisitor for FusedSink {
    #[inline(always)]
    fn on_enter(&mut self, function: FunctionId, _depth: u32, time: Timestamp) {
        if function == self.function {
            self.open_segment(time);
        }
    }

    #[inline(always)]
    fn on_frame(&mut self, frame: &ClosedFrame) {
        if frame.function == self.function {
            self.close_segment(frame.leave, frame.sync_within);
        }
    }

    #[inline(always)]
    fn on_metric(&mut self, metric: MetricId, _time: Timestamp, value: u64) {
        let m = metric.index();
        match self.modes.get(m) {
            None => {} // counters disabled
            Some(MetricMode::Accumulating) => self.last_value[m] = value,
            Some(MetricMode::Delta | MetricMode::Gauge) => {
                if self.tick_sum[m] == 0 {
                    self.touch(m);
                }
                self.tick_sum[m] += value;
            }
        }
    }

    #[inline(always)]
    fn on_tick(&mut self, _time: Timestamp) {
        if self.tick_pending {
            self.resolve_tick();
        }
    }
}

/// Runs the fused pass over every process of `trace` on up to
/// `num_threads` workers (0 = hardware parallelism).
///
/// When `with_counters` is false the counter machinery is skipped
/// entirely and [`FusedSegments::counters`] comes back empty.
pub fn fuse_segments(
    trace: &Trace,
    function: FunctionId,
    num_threads: usize,
    with_counters: bool,
) -> FusedSegments {
    let registry = trace.registry();
    let modes = metric_modes(registry, with_counters);
    let partials = par_map_processes(trace, num_threads, |pid| {
        let mut sink = FusedSink::new(pid, function, modes.clone());
        replay_visit(trace, pid, &mut sink);
        sink.into_parts()
    });
    merge_fused(registry, function, &modes, partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invocation::replay_all;
    use perfvar_trace::{Clock, FunctionRole, TraceBuilder};

    /// Regression: a frame carrying more sync time than inclusive time
    /// (clock skew, truncated stream) is counted by the sink so the
    /// telemetry layer can surface it, and the resulting segment's SOS
    /// time clamps to zero instead of wrapping.
    #[test]
    fn sos_underflow_is_counted_and_clamped() {
        let f = FunctionId(0);
        let mut sink = FusedSink::new(ProcessId(0), f, Vec::new());
        sink.on_enter(f, 0, Timestamp(10));
        sink.on_frame(&ClosedFrame {
            function: f,
            depth: 0,
            enter: Timestamp(10),
            leave: Timestamp(14),
            children_inclusive: DurationTicks::ZERO,
            sync_within: DurationTicks(9), // > the 4-tick duration
        });
        assert_eq!(sink.sos_underflows(), 1);
        assert_eq!(sink.peak_open(), 1);
        let (segments, _) = sink.into_parts();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].sos(), DurationTicks::ZERO);
    }

    /// Well-formed frames (sync ≤ duration) never trip the counter.
    #[test]
    fn sos_underflow_counter_stays_zero_on_sane_frames() {
        let f = FunctionId(0);
        let mut sink = FusedSink::new(ProcessId(0), f, Vec::new());
        sink.on_enter(f, 0, Timestamp(0));
        sink.on_frame(&ClosedFrame {
            function: f,
            depth: 0,
            enter: Timestamp(0),
            leave: Timestamp(10),
            children_inclusive: DurationTicks::ZERO,
            sync_within: DurationTicks(10), // == duration: boundary, no clamp
        });
        assert_eq!(sink.sos_underflows(), 0);
    }

    /// Two processes with nested/recursive segment invocations, all
    /// three metric modes, boundary-coincident samples, and sync calls.
    fn tricky_trace() -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("seg", FunctionRole::Compute);
        let barrier = b.define_function("MPI_Barrier", FunctionRole::MpiCollective);
        let acc = b.define_metric("CYC", MetricMode::Accumulating, "cycles");
        let del = b.define_metric("EXC", MetricMode::Delta, "#");
        let gauge = b.define_metric("MEM", MetricMode::Gauge, "bytes");
        for pi in 0..2u64 {
            let p = b.define_process(format!("rank {pi}"));
            let w = b.process_mut(p);
            // Recursive segment: outer [0, 20), inner [2, 8).
            w.metric(Timestamp(0), acc, 10).unwrap();
            w.enter(Timestamp(0), f).unwrap();
            w.metric(Timestamp(0), del, 1).unwrap(); // at enter tick
            w.enter(Timestamp(2), f).unwrap();
            w.metric(Timestamp(4), del, 2).unwrap(); // inside both
            w.enter(Timestamp(5), barrier).unwrap();
            w.leave(Timestamp(7), barrier).unwrap();
            w.metric(Timestamp(8), acc, 100 + pi).unwrap();
            w.leave(Timestamp(8), f).unwrap(); // sample at leave tick:
            w.metric(Timestamp(8), del, 4).unwrap(); // excluded from inner
            w.metric(Timestamp(8), gauge, 7).unwrap();
            w.leave(Timestamp(20), f).unwrap();
            // Zero-duration segment at 25.
            w.enter(Timestamp(25), f).unwrap();
            w.metric(Timestamp(25), acc, 500).unwrap();
            w.leave(Timestamp(25), f).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn fused_matches_materialised_pipeline() {
        let trace = tricky_trace();
        let f = trace.registry().function_by_name("seg").unwrap();
        let replayed = replay_all(&trace);
        let reference = Segmentation::new(&trace, &replayed, f);
        for threads in [1usize, 2, 4] {
            let fused = fuse_segments(&trace, f, threads, true);
            assert_eq!(fused.segmentation, reference, "threads = {threads}");
            for (matrix, metric) in fused.counters.iter().zip(trace.registry().metric_ids()) {
                let batch = CounterMatrix::for_segments(&trace, &reference, metric);
                assert_eq!(matrix, &batch, "metric {metric:?}, threads = {threads}");
            }
        }
    }

    #[test]
    fn boundary_samples_follow_timestamp_semantics() {
        let trace = tricky_trace();
        let f = trace.registry().function_by_name("seg").unwrap();
        let fused = fuse_segments(&trace, f, 1, true);
        let del = &fused.counters[1];
        // Outer segment [0,20): samples 1 + 2 + 4 (the leave-tick sample
        // of the *inner* segment still falls inside the outer one).
        assert_eq!(del.value(ProcessId(0), 0), Some(7));
        // Inner segment [2,8): sample 2 only; the t = 8 sample is out.
        assert_eq!(del.value(ProcessId(0), 1), Some(2));
        let acc = &fused.counters[0];
        // Outer: reading_at(20) − reading_at(0) = 100 − 10.
        assert_eq!(acc.value(ProcessId(0), 0), Some(90));
        // Inner [2,8): reading_at(8) = 100 (the sample *at* the leave
        // tick counts for accumulating readings) minus reading_at(2) = 10.
        assert_eq!(acc.value(ProcessId(0), 1), Some(90));
        // Zero-duration segment: both boundaries read the same sample.
        assert_eq!(acc.value(ProcessId(0), 2), Some(0));
        assert_eq!(del.value(ProcessId(0), 2), Some(0));
    }

    #[test]
    fn counters_disabled_skips_attribution() {
        let trace = tricky_trace();
        let f = trace.registry().function_by_name("seg").unwrap();
        let fused = fuse_segments(&trace, f, 2, false);
        assert!(fused.counters.is_empty());
        assert_eq!(fused.segmentation.len(), 6);
    }

    /// Back-to-back segments: every boundary tick closes one segment and
    /// enters the next, and carries a delta, a gauge and an accumulating
    /// sample, so each tick resolves entered and closed segments and
    /// touched channels at once — with scratch lists reused from the
    /// tick before.
    #[test]
    fn boundary_ticks_that_close_and_enter_match_the_reference() {
        use crate::report::{analyze, analyze_reference, AnalysisConfig};
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("seg", FunctionRole::Compute);
        let acc = b.define_metric("CYC", MetricMode::Accumulating, "cycles");
        let del = b.define_metric("EXC", MetricMode::Delta, "#");
        let gauge = b.define_metric("MEM", MetricMode::Gauge, "bytes");
        for pi in 0..3u64 {
            let p = b.define_process(format!("rank {pi}"));
            let w = b.process_mut(p);
            let mut t = 0u64;
            w.enter(Timestamp(t), f).unwrap();
            for k in 1..=6u64 {
                t += 10 + pi * k;
                w.metric(Timestamp(t), del, k + pi).unwrap();
                w.leave(Timestamp(t), f).unwrap();
                w.metric(Timestamp(t), gauge, 100 * k).unwrap();
                if k < 6 {
                    w.enter(Timestamp(t), f).unwrap();
                }
                w.metric(Timestamp(t), acc, t * t).unwrap();
            }
        }
        let trace = b.finish().unwrap();
        let cfg = AnalysisConfig {
            segment_function: Some("seg".into()),
            threads: 1,
            ..AnalysisConfig::default()
        };
        let fused = analyze(&trace, &cfg).unwrap();
        assert_eq!(fused, analyze_reference(&trace, &cfg).unwrap());
        // Rank 0's segments are [10k, 10(k+1)): each boundary sample
        // belongs to the segment it opens (the last one to none), and the
        // accumulating channel differences the squares of the boundaries.
        let row = |m: usize| {
            fused.counters[m]
                .matrix
                .process_values(ProcessId(0))
                .to_vec()
        };
        assert_eq!(row(0), vec![100, 300, 500, 700, 900, 1100]);
        assert_eq!(row(1), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(row(2), vec![0, 100, 200, 300, 400, 500]);
    }
}
