//! Streaming call-stack replay: the single-pass visitor engine.
//!
//! [`replay_visit`] drives the same Fig. 1 stack machine as
//! [`replay_process`](crate::invocation::replay_process) but never
//! materialises invocations: instead it pushes each completed frame (and
//! every metric sample and timestamp-group boundary) into a
//! [`ReplayVisitor`] sink. Memory stays `O(stack depth)` regardless of
//! trace length, which is what lets the fused pipeline
//! ([`crate::fused`]) analyse a process's stream in one pass.
//!
//! The visitor contract mirrors the event stream:
//!
//! * [`on_enter`](ReplayVisitor::on_enter) fires for every `Enter`
//!   record, *before* the frame is pushed (so sinks observe enter order —
//!   depth-first pre-order of the call tree).
//! * [`on_frame`](ReplayVisitor::on_frame) fires for every `Leave`
//!   record with the completed frame's full timing split (inclusive,
//!   children-inclusive, contained synchronization) — exactly the fields
//!   an [`Invocation`](crate::invocation::Invocation) would carry.
//! * [`on_metric`](ReplayVisitor::on_metric) fires for every counter
//!   sample in stream order.
//! * [`on_tick`](ReplayVisitor::on_tick) fires once per *timestamp
//!   group*: after the last record carrying a given timestamp and before
//!   the first record of a later one (and once more at end of stream).
//!   Counter attribution is defined over timestamps, not record order,
//!   so sinks that must match the batch semantics bit-for-bit resolve
//!   boundary readings here.
//! * [`on_finish`](ReplayVisitor::on_finish) fires after the last tick.
//!
//! The stack machine itself is exposed as [`ReplayMachine`] so callers
//! that do not hold a `Trace` — the out-of-core path in
//! [`crate::outofcore`], which reads records straight off a disk cursor
//! — can drive the identical semantics one record at a time.

use perfvar_trace::{
    DurationTicks, Event, EventRecord, FunctionId, MetricId, ProcessId, Registry, Timestamp, Trace,
};

/// A completed stack frame, reported by [`replay_visit`] on `Leave`.
///
/// Carries the same timing split as a materialised
/// [`Invocation`](crate::invocation::Invocation) minus the parent index
/// (sinks that need parent links can maintain their own index stack from
/// `on_enter`/`on_frame` pairing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClosedFrame {
    /// The function the frame executed.
    pub function: FunctionId,
    /// Call-stack depth (0 = top level).
    pub depth: u32,
    /// Enter timestamp.
    pub enter: Timestamp,
    /// Leave timestamp.
    pub leave: Timestamp,
    /// Total inclusive time of direct children.
    pub children_inclusive: DurationTicks,
    /// Synchronization/communication time contained in the frame (its
    /// own inclusive time if its role is synchronizing).
    pub sync_within: DurationTicks,
}

impl ClosedFrame {
    /// Inclusive time: full duration from enter to leave.
    #[inline]
    pub fn inclusive(&self) -> DurationTicks {
        self.leave.since(self.enter)
    }

    /// Exclusive time: inclusive minus direct children.
    #[inline]
    pub fn exclusive(&self) -> DurationTicks {
        self.inclusive().saturating_sub(self.children_inclusive)
    }
}

/// Sink for one streaming pass over a process's event stream.
///
/// All methods default to no-ops so sinks implement only what they fold.
pub trait ReplayVisitor {
    /// A frame is about to be pushed (an `Enter` record).
    fn on_enter(&mut self, function: FunctionId, depth: u32, time: Timestamp) {
        let _ = (function, depth, time);
    }

    /// A frame completed (a `Leave` record), with its full timing split.
    fn on_frame(&mut self, frame: &ClosedFrame) {
        let _ = frame;
    }

    /// A metric channel sample.
    fn on_metric(&mut self, metric: MetricId, time: Timestamp, value: u64) {
        let _ = (metric, time, value);
    }

    /// All records carrying timestamp `time` have been delivered.
    fn on_tick(&mut self, time: Timestamp) {
        let _ = time;
    }

    /// End of stream.
    fn on_finish(&mut self) {}
}

struct Frame {
    function: FunctionId,
    enter: Timestamp,
    children_inclusive: u64,
    sync_within: u64,
}

/// The incremental Fig. 1 stack machine behind [`replay_visit`].
///
/// [`replay_visit`] drives it from an in-memory
/// [`EventStream`](perfvar_trace::EventStream); the out-of-core path
/// ([`crate::outofcore`]) drives it record by record from a disk cursor.
/// Both produce identical visitor callback sequences: feed every record
/// of one process's stream (already validated — balanced and
/// time-ordered, which both the trace builder and the format cursors
/// guarantee) to [`step`](ReplayMachine::step), then call
/// [`finish`](ReplayMachine::finish) exactly once.
///
/// Live state is the open call stack plus one pending tick timestamp —
/// `O(stack depth)` regardless of stream length.
pub struct ReplayMachine {
    /// Per-function synchronization-role flags (resolved once so stepping
    /// never touches the registry).
    sync_role: Vec<bool>,
    stack: Vec<Frame>,
    tick: Option<Timestamp>,
    /// First and last timestamps of the stream (the last one is set when
    /// the stream finishes).
    first: Option<Timestamp>,
    last: Option<Timestamp>,
    max_depth: usize,
    events: u64,
}

impl ReplayMachine {
    /// Creates a machine for streams described by `registry`.
    pub fn new(registry: &Registry) -> ReplayMachine {
        ReplayMachine {
            sync_role: registry
                .function_ids()
                .map(|f| registry.function_role(f).is_synchronization())
                .collect(),
            stack: Vec::new(),
            tick: None,
            first: None,
            last: None,
            max_depth: 0,
            events: 0,
        }
    }

    /// Feeds one record, firing the due visitor callbacks.
    ///
    /// Always inlined, like everything it calls per record: a function
    /// call per record costs a sizeable share of decoding the record
    /// (DESIGN.md §4b, "The per-record path").
    #[inline(always)]
    pub fn step<V: ReplayVisitor>(&mut self, record: &EventRecord, visitor: &mut V) {
        self.events += 1;
        self.advance(record.time, visitor);
        self.apply(record, visitor);
    }

    /// Feeds a run of records in order, as [`step`](ReplayMachine::step)
    /// on each would: the loop the chunked drivers run per decoded chunk.
    /// The current tick stays in a local, so a record of the same tick
    /// costs one comparison.
    #[inline]
    pub fn feed<V: ReplayVisitor>(&mut self, records: &[EventRecord], visitor: &mut V) {
        let Some((first, rest)) = records.split_first() else {
            return;
        };
        self.events += records.len() as u64;
        self.advance(first.time, visitor);
        self.apply(first, visitor);
        let mut tick = first.time;
        for record in rest {
            if record.time != tick {
                visitor.on_tick(tick);
                tick = record.time;
            }
            self.apply(record, visitor);
        }
        self.tick = Some(tick);
    }

    /// Closes the pending tick if `time` starts a new one.
    #[inline(always)]
    fn advance<V: ReplayVisitor>(&mut self, time: Timestamp, visitor: &mut V) {
        if self.tick != Some(time) {
            match self.tick {
                Some(t) => visitor.on_tick(t),
                None => self.first = Some(time),
            }
            self.tick = Some(time);
        }
    }

    /// The stack-machine transition of one record (ticks aside).
    #[inline(always)]
    fn apply<V: ReplayVisitor>(&mut self, record: &EventRecord, visitor: &mut V) {
        match record.event {
            Event::Enter { function } => {
                visitor.on_enter(function, self.stack.len() as u32, record.time);
                self.stack.push(Frame {
                    function,
                    enter: record.time,
                    children_inclusive: 0,
                    sync_within: 0,
                });
                if self.stack.len() > self.max_depth {
                    self.max_depth = self.stack.len();
                }
            }
            Event::Leave { function } => {
                let frame = self.stack.pop().expect("validated stream: balanced leave");
                debug_assert_eq!(frame.function, function, "validated stream: matching leave");
                let inclusive = record.time.since(frame.enter).0;
                let sync = if self.sync_role[function.index()] {
                    inclusive
                } else {
                    frame.sync_within
                };
                if let Some(parent) = self.stack.last_mut() {
                    parent.children_inclusive += inclusive;
                    parent.sync_within += sync;
                }
                visitor.on_frame(&ClosedFrame {
                    function,
                    depth: self.stack.len() as u32,
                    enter: frame.enter,
                    leave: record.time,
                    children_inclusive: DurationTicks(frame.children_inclusive),
                    sync_within: DurationTicks(sync),
                });
            }
            Event::Metric { metric, value } => visitor.on_metric(metric, record.time, value),
            _ => {}
        }
    }

    /// Ends the stream: fires the final tick (if any records were fed)
    /// and `on_finish`. The machine is reusable for another stream
    /// afterwards.
    pub fn finish<V: ReplayVisitor>(&mut self, visitor: &mut V) {
        debug_assert!(self.stack.is_empty(), "validated stream: balanced");
        self.last = self.tick.take();
        if let Some(t) = self.last {
            visitor.on_tick(t);
        }
        visitor.on_finish();
    }

    /// Deepest call stack observed so far (across all streams fed since
    /// construction) — the out-of-core benchmarks account per-worker
    /// memory with it.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Records stepped so far (across all streams fed since
    /// construction) — the telemetry layer's events-replayed counter.
    pub fn events_stepped(&self) -> u64 {
        self.events
    }

    /// Snapshot of the machine's replay statistics.
    pub fn stats(&self) -> ReplayStats {
        ReplayStats {
            events: self.events,
            max_depth: self.max_depth,
            first: self.first,
            last: self.last,
        }
    }
}

/// Lightweight statistics of a replay pass: what the telemetry layer
/// (see [`crate::telemetry`]) records per worker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records stepped through the machine.
    pub events: u64,
    /// Deepest call stack observed.
    pub max_depth: usize,
    /// Timestamp of the first record of the last stream fed (`None`
    /// before any record).
    pub first: Option<Timestamp>,
    /// Timestamp of the last record of the last finished stream (`None`
    /// until a stream with records finishes).
    pub last: Option<Timestamp>,
}

/// Replays one process's stream through `visitor` in a single pass.
///
/// Implements the same semantics as
/// [`replay_process`](crate::invocation::replay_process) (the
/// materialising reference): sync time is the frame's own inclusive time
/// for synchronization-role functions, else the sum contributed by its
/// descendants, counted once.
///
/// ```
/// use perfvar_analysis::stream::{replay_visit, ClosedFrame, ReplayVisitor};
/// use perfvar_trace::{Clock, FunctionRole, ProcessId, Timestamp, TraceBuilder};
///
/// /// Counts completed frames and sums their exclusive time.
/// #[derive(Default)]
/// struct ExclusiveSum {
///     frames: usize,
///     exclusive_ticks: u64,
/// }
///
/// impl ReplayVisitor for ExclusiveSum {
///     fn on_frame(&mut self, frame: &ClosedFrame) {
///         self.frames += 1;
///         self.exclusive_ticks += frame.exclusive().0;
///     }
/// }
///
/// let mut b = TraceBuilder::new(Clock::microseconds());
/// let outer = b.define_function("outer", FunctionRole::Compute);
/// let inner = b.define_function("inner", FunctionRole::Compute);
/// let p = b.define_process("rank 0");
/// let w = b.process_mut(p);
/// w.enter(Timestamp(0), outer).unwrap();
/// w.enter(Timestamp(3), inner).unwrap();
/// w.leave(Timestamp(7), inner).unwrap();
/// w.leave(Timestamp(10), outer).unwrap();
/// let trace = b.finish().unwrap();
///
/// let mut sink = ExclusiveSum::default();
/// replay_visit(&trace, ProcessId(0), &mut sink);
/// assert_eq!(sink.frames, 2);
/// // inner: 4 exclusive ticks; outer: 10 − 4 = 6.
/// assert_eq!(sink.exclusive_ticks, 10);
/// ```
///
/// Returns the pass's [`ReplayStats`] (event count, peak stack depth)
/// so instrumented callers can feed the telemetry layer; uninstrumented
/// callers simply ignore them.
pub fn replay_visit<V: ReplayVisitor>(
    trace: &Trace,
    process: ProcessId,
    visitor: &mut V,
) -> ReplayStats {
    let mut machine = ReplayMachine::new(trace.registry());
    machine.feed(trace.stream(process).records(), visitor);
    machine.finish(visitor);
    machine.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invocation::replay_process;
    use perfvar_trace::{Clock, FunctionRole, MetricMode, TraceBuilder};

    /// Sink that records every callback, for driver-contract tests.
    #[derive(Default)]
    struct Recorder {
        enters: Vec<(FunctionId, u32, u64)>,
        frames: Vec<ClosedFrame>,
        metrics: Vec<(MetricId, u64, u64)>,
        ticks: Vec<u64>,
        finished: bool,
    }

    impl ReplayVisitor for Recorder {
        fn on_enter(&mut self, function: FunctionId, depth: u32, time: Timestamp) {
            self.enters.push((function, depth, time.0));
        }
        fn on_frame(&mut self, frame: &ClosedFrame) {
            self.frames.push(*frame);
        }
        fn on_metric(&mut self, metric: MetricId, time: Timestamp, value: u64) {
            self.metrics.push((metric, time.0, value));
        }
        fn on_tick(&mut self, time: Timestamp) {
            self.ticks.push(time.0);
        }
        fn on_finish(&mut self) {
            self.finished = true;
        }
    }

    fn nested_trace() -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let outer = b.define_function("outer", FunctionRole::Compute);
        let barrier = b.define_function("MPI_Barrier", FunctionRole::MpiCollective);
        let m = b.define_metric("EXC", MetricMode::Delta, "#");
        let p = b.define_process("p0");
        let w = b.process_mut(p);
        w.enter(Timestamp(0), outer).unwrap();
        w.metric(Timestamp(0), m, 3).unwrap();
        w.enter(Timestamp(2), barrier).unwrap();
        w.leave(Timestamp(5), barrier).unwrap();
        w.metric(Timestamp(5), m, 4).unwrap();
        w.leave(Timestamp(9), outer).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn callbacks_follow_the_stream() {
        let trace = nested_trace();
        let mut r = Recorder::default();
        replay_visit(&trace, ProcessId(0), &mut r);
        assert_eq!(r.enters.len(), 2);
        assert_eq!(r.enters[0].1, 0); // outer at depth 0
        assert_eq!(r.enters[1].1, 1); // barrier at depth 1
        assert_eq!(r.metrics, vec![(MetricId(0), 0, 3), (MetricId(0), 5, 4)]);
        // Tick groups: 0, 2, 5, 9 (one per distinct timestamp).
        assert_eq!(r.ticks, vec![0, 2, 5, 9]);
        assert!(r.finished);
    }

    #[test]
    fn frames_match_materialised_replay() {
        let trace = nested_trace();
        let mut r = Recorder::default();
        replay_visit(&trace, ProcessId(0), &mut r);
        let reference = replay_process(&trace, ProcessId(0));
        // Frames arrive in leave order; compare against the invocations
        // sorted the same way.
        assert_eq!(r.frames.len(), reference.len());
        for frame in &r.frames {
            let inv = reference
                .invocations()
                .iter()
                .find(|i| i.function == frame.function && i.enter == frame.enter)
                .expect("frame has a matching invocation");
            assert_eq!(frame.depth, inv.depth);
            assert_eq!(frame.leave, inv.leave);
            assert_eq!(frame.children_inclusive, inv.children_inclusive);
            assert_eq!(frame.sync_within, inv.sync_within);
            assert_eq!(frame.inclusive(), inv.inclusive());
            assert_eq!(frame.exclusive(), inv.exclusive());
        }
        // The barrier closed first (leave order) and carries its own
        // inclusive time as sync.
        assert_eq!(r.frames[0].sync_within, DurationTicks(3));
        assert_eq!(r.frames[1].sync_within, DurationTicks(3));
    }

    #[test]
    fn machine_driven_stepping_equals_replay_visit() {
        let trace = nested_trace();
        let mut whole = Recorder::default();
        replay_visit(&trace, ProcessId(0), &mut whole);

        let mut stepped = Recorder::default();
        let mut machine = ReplayMachine::new(trace.registry());
        for record in trace.stream(ProcessId(0)).records() {
            machine.step(record, &mut stepped);
        }
        machine.finish(&mut stepped);

        assert_eq!(stepped.enters, whole.enters);
        assert_eq!(stepped.frames, whole.frames);
        assert_eq!(stepped.metrics, whole.metrics);
        assert_eq!(stepped.ticks, whole.ticks);
        assert!(stepped.finished);
        assert_eq!(machine.max_depth(), 2);
        assert_eq!(
            machine.events_stepped(),
            trace.stream(ProcessId(0)).records().len() as u64
        );
    }

    /// Chunked feeding fires the same callbacks as stepping record by
    /// record, wherever the chunk boundaries fall, including between
    /// two records of one tick, and reports the stream's time extent.
    #[test]
    fn feeding_chunks_equals_stepping_records() {
        let trace = nested_trace();
        let records = trace.stream(ProcessId(0)).records();
        let mut stepped = Recorder::default();
        let mut machine = ReplayMachine::new(trace.registry());
        for record in records {
            machine.step(record, &mut stepped);
        }
        machine.finish(&mut stepped);
        let expected = machine.stats();
        assert_eq!(expected.first, Some(Timestamp(0)));
        assert_eq!(expected.last, Some(Timestamp(9)));
        for size in 1..=records.len() {
            let mut fed = Recorder::default();
            let mut machine = ReplayMachine::new(trace.registry());
            machine.feed(&[], &mut fed);
            for chunk in records.chunks(size) {
                machine.feed(chunk, &mut fed);
            }
            machine.finish(&mut fed);
            assert_eq!(fed.enters, stepped.enters, "chunks of {size}");
            assert_eq!(fed.frames, stepped.frames, "chunks of {size}");
            assert_eq!(fed.metrics, stepped.metrics, "chunks of {size}");
            assert_eq!(fed.ticks, stepped.ticks, "chunks of {size}");
            assert_eq!(machine.stats(), expected, "chunks of {size}");
        }
    }

    #[test]
    fn replay_visit_reports_stats() {
        let trace = nested_trace();
        let mut r = Recorder::default();
        let stats = replay_visit(&trace, ProcessId(0), &mut r);
        assert_eq!(
            stats.events,
            trace.stream(ProcessId(0)).records().len() as u64
        );
        assert_eq!(stats.max_depth, 2);
    }

    #[test]
    fn empty_stream_only_finishes() {
        let mut b = TraceBuilder::new(Clock::microseconds());
        b.define_process("p0");
        let trace = b.finish().unwrap();
        let mut r = Recorder::default();
        replay_visit(&trace, ProcessId(0), &mut r);
        assert!(r.enters.is_empty() && r.frames.is_empty() && r.ticks.is_empty());
        assert!(r.finished);
    }
}
