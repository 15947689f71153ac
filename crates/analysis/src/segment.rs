//! Segmentation of the run by dominant-function invocations (§III).
//!
//! > *As we use invocations of the time-dominant function as segments,
//! > the inclusive time of the dominant function invocation equals the
//! > respective segment duration.*
//!
//! A [`Segment`] is one invocation of the chosen segmentation function on
//! one process, carrying its duration (inclusive time), the
//! synchronization time it contains, and the resulting SOS-time
//! (duration − synchronization, §V).
//!
//! [`Segmentation`] is the paper's process × segment table, stored as
//! columns: per process, the enter times, durations and SOS-times of its
//! segments, indexed by ordinal. The process is the row and the ordinal
//! the index, so neither is stored, and the contained synchronization
//! time is `duration − SOS` except where SOS clamped to zero (sync >
//! duration), which a short side list per row records. A segment costs
//! 24 bytes; the SOS matrix ([`SosMatrix`](crate::sos::SosMatrix)) is a
//! view of the same columns, and [`Segment`] is the value an accessor
//! returns.

use crate::invocation::ProcessInvocations;
use perfvar_trace::{DurationTicks, FunctionId, ProcessId, Timestamp, Trace};
use serde::{Deserialize, Error, JsonWriter, Serialize, Value};
use std::fmt;
use std::ops::Range;

/// One invocation of the segmentation function, with its timing split.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// The process the segment ran on.
    pub process: ProcessId,
    /// Ordinal of this segment on its process (0-based; for iterative
    /// codes this is the iteration number).
    pub ordinal: u32,
    /// Segment start (invocation enter).
    pub enter: Timestamp,
    /// Segment end (invocation leave).
    pub leave: Timestamp,
    /// Synchronization/communication time contained in the segment.
    pub sync: DurationTicks,
}

impl Segment {
    /// Segment duration = the invocation's inclusive time.
    #[inline]
    pub fn duration(&self) -> DurationTicks {
        self.leave.since(self.enter)
    }

    /// The synchronization-oblivious segment time (§V):
    /// `duration − contained synchronization time`.
    #[inline]
    pub fn sos(&self) -> DurationTicks {
        self.duration().saturating_sub(self.sync)
    }
}

/// One process's row of the segment table: parallel columns indexed by
/// ordinal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SegmentColumns {
    enter: Vec<Timestamp>,
    duration: Vec<DurationTicks>,
    sos: Vec<DurationTicks>,
    /// `(ordinal, sync)` of the segments whose sync exceeded their
    /// duration (SOS clamped to zero), ascending by ordinal. Every other
    /// segment's sync is `duration − SOS`.
    clamped: Vec<(u32, DurationTicks)>,
}

impl SegmentColumns {
    /// Number of segments in the row.
    pub(crate) fn len(&self) -> usize {
        self.enter.len()
    }

    /// Appends a segment entered at `enter`; its duration and SOS are
    /// zero until [`close`](SegmentColumns::close) sets them.
    #[inline]
    pub(crate) fn open(&mut self, enter: Timestamp) -> usize {
        self.enter.push(enter);
        self.duration.push(DurationTicks::ZERO);
        self.sos.push(DurationTicks::ZERO);
        self.enter.len() - 1
    }

    /// Sets the end and contained sync time of segment `index`. Returns
    /// whether its SOS clamped to zero (sync > duration).
    #[inline]
    pub(crate) fn close(&mut self, index: usize, leave: Timestamp, sync: DurationTicks) -> bool {
        let duration = leave.since(self.enter[index]);
        self.duration[index] = duration;
        self.sos[index] = duration.saturating_sub(sync);
        let clamped = sync > duration;
        if clamped {
            // Nested segments close inner-first, so keep the list sorted.
            let ordinal = index as u32;
            let at = self.clamped.partition_point(|&(o, _)| o < ordinal);
            self.clamped.insert(at, (ordinal, sync));
        }
        clamped
    }

    /// Appends a closed segment.
    pub(crate) fn push(&mut self, enter: Timestamp, leave: Timestamp, sync: DurationTicks) {
        let index = self.open(enter);
        self.close(index, leave, sync);
    }

    /// The SOS column.
    #[inline]
    pub(crate) fn sos(&self) -> &[DurationTicks] {
        &self.sos
    }

    /// The duration column.
    #[inline]
    pub(crate) fn durations(&self) -> &[DurationTicks] {
        &self.duration
    }

    /// The row as the segments of `process`.
    pub(crate) fn view(&self, process: ProcessId) -> Segments<'_> {
        Segments {
            process,
            start: 0,
            enter: &self.enter,
            duration: &self.duration,
            sos: &self.sos,
            clamped: &self.clamped,
        }
    }

    /// A row whose SOS column is `sos` and whose durations equal it
    /// (segments back to back from time 0, no sync), for tests that need
    /// exact values.
    #[cfg(test)]
    pub(crate) fn from_sos(sos: &[u64]) -> SegmentColumns {
        let mut row = SegmentColumns::default();
        let mut t = 0;
        for &v in sos {
            row.push(Timestamp(t), Timestamp(t + v), DurationTicks::ZERO);
            t += v;
        }
        row
    }
}

/// The segments of one process (or a run of them), read from the
/// columns of a [`Segmentation`] or of a segment table being filled.
/// [`iter`](Segments::iter) and [`get`](Segments::get) return
/// [`Segment`] values; the SOS and duration columns are slices of the
/// [`SosMatrix`](crate::sos::SosMatrix).
#[derive(Clone, Copy)]
pub struct Segments<'a> {
    process: ProcessId,
    /// Ordinal of the first segment of the view.
    start: usize,
    enter: &'a [Timestamp],
    duration: &'a [DurationTicks],
    sos: &'a [DurationTicks],
    /// The whole row's clamped list (absolute ordinals).
    clamped: &'a [(u32, DurationTicks)],
}

impl Segments<'static> {
    /// No segments of `process`.
    pub(crate) fn empty(process: ProcessId) -> Segments<'static> {
        Segments {
            process,
            start: 0,
            enter: &[],
            duration: &[],
            sos: &[],
            clamped: &[],
        }
    }
}

impl<'a> Segments<'a> {
    /// Number of segments.
    #[inline]
    pub fn len(&self) -> usize {
        self.enter.len()
    }

    /// Whether there are none.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.enter.is_empty()
    }

    /// The `i`-th segment of the view, if present.
    pub fn get(&self, i: usize) -> Option<Segment> {
        (i < self.len()).then(|| self.at(i))
    }

    /// The first segment, if any.
    pub fn first(&self) -> Option<Segment> {
        self.get(0)
    }

    /// The last segment, if any.
    pub fn last(&self) -> Option<Segment> {
        self.len().checked_sub(1).map(|i| self.at(i))
    }

    /// The segments, in ordinal order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = Segment> + ExactSizeIterator + 'a {
        let view = *self;
        (0..view.len()).map(move |i| view.at(i))
    }

    /// The sub-run `range` of the view (indices relative to the view).
    ///
    /// # Panics
    /// Panics if `range` is out of bounds, like slice indexing.
    pub fn slice(&self, range: Range<usize>) -> Segments<'a> {
        Segments {
            process: self.process,
            start: self.start + range.start,
            enter: &self.enter[range.clone()],
            duration: &self.duration[range.clone()],
            sos: &self.sos[range],
            clamped: self.clamped,
        }
    }

    /// Consecutive runs of `size` segments (the last may be shorter).
    ///
    /// # Panics
    /// Panics if `size` is 0.
    pub fn chunks(&self, size: usize) -> impl Iterator<Item = Segments<'a>> + 'a {
        assert!(size > 0, "chunk size must be positive");
        let view = *self;
        (0..view.len())
            .step_by(size)
            .map(move |from| view.slice(from..(from + size).min(view.len())))
    }

    /// The segments as values.
    pub fn to_vec(&self) -> Vec<Segment> {
        self.iter().collect()
    }

    #[inline]
    fn at(&self, i: usize) -> Segment {
        let ordinal = self.start + i;
        let (enter, duration, sos) = (self.enter[i], self.duration[i], self.sos[i]);
        let sync = match self.clamped {
            [] => DurationTicks(duration.0 - sos.0),
            list => match list.binary_search_by_key(&(ordinal as u32), |&(o, _)| o) {
                Ok(k) => list[k].1,
                Err(_) => DurationTicks(duration.0 - sos.0),
            },
        };
        Segment {
            process: self.process,
            ordinal: ordinal as u32,
            enter,
            leave: Timestamp(enter.0.wrapping_add(duration.0)),
            sync,
        }
    }
}

impl PartialEq for Segments<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Segments<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// All segments of a trace for one segmentation function: the columnar
/// process × segment table (see the [module docs](self)).
///
/// Serializes as it always has, one object per segment:
/// `{"function": …, "per_process": [[{"process", "ordinal", "enter",
/// "leave", "sync"}, …], …]}`.
#[derive(Clone, Debug, PartialEq)]
pub struct Segmentation {
    /// The segmentation (dominant) function.
    pub function: FunctionId,
    rows: Vec<SegmentColumns>,
}

impl Segmentation {
    /// Builds the segmentation of `trace` by the invocations of
    /// `function`, from already-replayed invocations (one entry per
    /// process, in process order).
    pub fn new(
        trace: &Trace,
        replayed: &[ProcessInvocations],
        function: FunctionId,
    ) -> Segmentation {
        debug_assert_eq!(replayed.len(), trace.num_processes());
        let rows = replayed
            .iter()
            .map(|proc_inv| {
                let mut row = SegmentColumns::default();
                for inv in proc_inv.of_function(function) {
                    row.push(inv.enter, inv.leave, inv.sync_within);
                }
                row
            })
            .collect();
        Segmentation { function, rows }
    }

    /// Assembles a segmentation from per-process rows built elsewhere
    /// (the fused streaming pass in [`crate::fused`]), without a copy.
    pub(crate) fn from_rows(function: FunctionId, rows: Vec<SegmentColumns>) -> Segmentation {
        Segmentation { function, rows }
    }

    /// A segmentation whose per-process SOS rows are `rows` (durations
    /// equal to them), for tests that need exact values.
    #[cfg(test)]
    pub(crate) fn from_sos_rows(rows: &[Vec<u64>]) -> Segmentation {
        Segmentation {
            function: FunctionId(0),
            rows: rows.iter().map(|r| SegmentColumns::from_sos(r)).collect(),
        }
    }

    /// The per-process columns.
    pub(crate) fn rows(&self) -> &[SegmentColumns] {
        &self.rows
    }

    /// Number of processes covered.
    pub fn num_processes(&self) -> usize {
        self.rows.len()
    }

    /// Segments of one process, in time order.
    pub fn process(&self, p: ProcessId) -> Segments<'_> {
        self.rows[p.index()].view(p)
    }

    /// Iterates over every segment, process-major.
    pub fn iter(&self) -> impl Iterator<Item = Segment> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(p, row)| row.view(ProcessId::from_index(p)).iter())
    }

    /// Total number of segments.
    pub fn len(&self) -> usize {
        self.rows.iter().map(SegmentColumns::len).sum()
    }

    /// Whether no process recorded a segment.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of segments on any process (the matrix width used
    /// by visualisation).
    pub fn max_segments_per_process(&self) -> usize {
        self.rows.iter().map(SegmentColumns::len).max().unwrap_or(0)
    }

    /// Whether every process has the same number of segments (regular
    /// iterative behaviour).
    pub fn is_rectangular(&self) -> bool {
        let mut lens = self.rows.iter().map(SegmentColumns::len);
        match lens.next() {
            Some(first) => lens.all(|l| l == first),
            None => true,
        }
    }

    fn process_ids(&self) -> impl Iterator<Item = ProcessId> {
        (0..self.rows.len()).map(ProcessId::from_index)
    }
}

impl Serialize for Segmentation {
    fn to_value(&self) -> Value {
        let per_process = self
            .process_ids()
            .map(|p| Value::Array(self.process(p).iter().map(|s| s.to_value()).collect()))
            .collect();
        Value::Object(vec![
            ("function".to_string(), self.function.to_value()),
            ("per_process".to_string(), Value::Array(per_process)),
        ])
    }

    fn write_json(&self, out: &mut JsonWriter<'_>) {
        out.begin_object();
        out.key("function");
        self.function.write_json(out);
        out.key("per_process");
        out.begin_array();
        for p in self.process_ids() {
            out.array_value();
            out.begin_array();
            for segment in self.process(p).iter() {
                out.array_value();
                segment.write_json(out);
            }
            out.end_array();
        }
        out.end_array();
        out.end_object();
    }
}

impl Deserialize for Segmentation {
    /// Reads the one-object-per-segment form. Each segment's `process`
    /// and `ordinal` must restate its row and index, and no segment may
    /// end before it starts.
    fn from_value(v: &Value) -> Result<Self, Error> {
        let function = serde::__private::field(v, "function")?;
        let per_process: Vec<Vec<Segment>> = serde::__private::field(v, "per_process")?;
        let mut rows = Vec::with_capacity(per_process.len());
        for (p, segments) in per_process.into_iter().enumerate() {
            let mut row = SegmentColumns::default();
            for (i, s) in segments.into_iter().enumerate() {
                if s.process.index() != p || s.ordinal as usize != i {
                    return Err(Error::custom(format!(
                        "segment {i} of row {p} is labelled {}:{}",
                        s.process, s.ordinal
                    )));
                }
                if s.leave < s.enter {
                    return Err(Error::custom(format!(
                        "segment {p}:{i} ends before it starts"
                    )));
                }
                row.push(s.enter, s.leave, s.sync);
            }
            rows.push(row);
        }
        Ok(Segmentation { function, rows })
    }
}

/// The layout this table replaced, kept as the oracle of its tests:
/// one 32-byte [`Segment`] per segment and the derived serde impls.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    pub(crate) struct Segmentation {
        pub(crate) function: FunctionId,
        pub(crate) per_process: Vec<Vec<Segment>>,
    }

    impl Segmentation {
        /// Labels `rows` of `(enter, leave, sync)` triples with their
        /// process and ordinal.
        pub(crate) fn from_triples(function: FunctionId, rows: &[Vec<(u64, u64, u64)>]) -> Self {
            let per_process = rows
                .iter()
                .enumerate()
                .map(|(p, row)| {
                    row.iter()
                        .enumerate()
                        .map(|(i, &(enter, leave, sync))| Segment {
                            process: ProcessId::from_index(p),
                            ordinal: i as u32,
                            enter: Timestamp(enter),
                            leave: Timestamp(leave),
                            sync: DurationTicks(sync),
                        })
                        .collect()
                })
                .collect();
            Segmentation {
                function,
                per_process,
            }
        }

        /// The columnar table of the same segments.
        pub(crate) fn to_table(&self) -> super::Segmentation {
            let rows = self
                .per_process
                .iter()
                .map(|segments| {
                    let mut row = SegmentColumns::default();
                    for s in segments {
                        row.push(s.enter, s.leave, s.sync);
                    }
                    row
                })
                .collect();
            super::Segmentation::from_rows(self.function, rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invocation::replay_all;
    use perfvar_trace::{Clock, FunctionRole, TraceBuilder};
    use proptest::prelude::*;

    /// Regression: a segment whose recorded sync time exceeds its
    /// inclusive time (possible with clock skew or truncated streams)
    /// must clamp SOS time to zero, never wrap around to a huge value.
    #[test]
    fn sos_clamps_to_zero_when_sync_exceeds_duration() {
        let seg = Segment {
            process: ProcessId(0),
            ordinal: 0,
            enter: Timestamp(10),
            leave: Timestamp(14),
            sync: DurationTicks(9),
        };
        assert_eq!(seg.duration(), DurationTicks(4));
        assert_eq!(seg.sos(), DurationTicks::ZERO);
    }

    /// The table keeps a clamped segment's own sync time, not
    /// `duration − SOS`, and keeps its clamped list sorted when nested
    /// segments close inner-first.
    #[test]
    fn clamped_sync_survives_the_table() {
        let mut row = SegmentColumns::default();
        let outer = row.open(Timestamp(0));
        let inner = row.open(Timestamp(2));
        assert!(row.close(inner, Timestamp(4), DurationTicks(5)));
        assert!(row.close(outer, Timestamp(3), DurationTicks(9)));
        let third = row.open(Timestamp(5));
        assert!(!row.close(third, Timestamp(9), DurationTicks(1)));
        let segs = row.view(ProcessId(3)).to_vec();
        assert_eq!(
            segs.iter()
                .map(|s| (s.leave.0, s.sync.0))
                .collect::<Vec<_>>(),
            vec![(3, 9), (4, 5), (9, 1)]
        );
        assert_eq!(segs[2].sos(), DurationTicks(3));
        assert!(segs.iter().all(|s| s.process == ProcessId(3)));
        let tail = row.view(ProcessId(3)).slice(1..3);
        assert_eq!(tail.first().unwrap().ordinal, 1);
        assert_eq!(tail.first().unwrap().sync, DurationTicks(5));
        assert_eq!(tail.to_vec(), segs[1..].to_vec());
    }

    /// Rows of `(enter, leave, sync)` triples: ragged, some empty, with
    /// sync below, at and above the duration.
    fn triples() -> impl Strategy<Value = Vec<Vec<(u64, u64, u64)>>> {
        let segment = (0u64..1_000, 0u64..50, 0u64..60)
            .prop_map(|(enter, len, sync)| (enter, enter + len, sync));
        proptest::collection::vec(proptest::collection::vec(segment, 0..12), 0..6)
    }

    proptest! {
        /// The columnar table equals the one-struct-per-segment layout it
        /// replaced on every accessor and on both serde paths.
        #[test]
        fn table_matches_the_oracle(rows in triples(), f in 0u32..4) {
            let oracle = oracle::Segmentation::from_triples(FunctionId(f), &rows);
            let table = oracle.to_table();
            prop_assert_eq!(table.num_processes(), oracle.per_process.len());
            prop_assert_eq!(table.len(), oracle.per_process.iter().map(Vec::len).sum::<usize>());
            prop_assert_eq!(table.is_empty(), oracle.per_process.iter().all(Vec::is_empty));
            prop_assert_eq!(
                table.max_segments_per_process(),
                oracle.per_process.iter().map(Vec::len).max().unwrap_or(0)
            );
            let lens: Vec<usize> = oracle.per_process.iter().map(Vec::len).collect();
            prop_assert_eq!(table.is_rectangular(), lens.windows(2).all(|w| w[0] == w[1]));
            let flat: Vec<Segment> = oracle.per_process.iter().flatten().copied().collect();
            prop_assert_eq!(table.iter().collect::<Vec<_>>(), flat);
            for (p, expected) in oracle.per_process.iter().enumerate() {
                let row = table.process(ProcessId::from_index(p));
                prop_assert_eq!(row.to_vec(), expected.clone());
                prop_assert_eq!(row.len(), expected.len());
                prop_assert_eq!(row.first(), expected.first().copied());
                prop_assert_eq!(row.last(), expected.last().copied());
                prop_assert_eq!(row.get(expected.len()), None);
                prop_assert_eq!(row.iter().rev().collect::<Vec<_>>(),
                    expected.iter().rev().copied().collect::<Vec<_>>());
                for size in 1..4 {
                    let chunks: Vec<Vec<Segment>> = row.chunks(size).map(|c| c.to_vec()).collect();
                    let want: Vec<Vec<Segment>> = expected.chunks(size).map(<[_]>::to_vec).collect();
                    prop_assert_eq!(chunks, want);
                }
            }
            prop_assert_eq!(serde::to_value(&table), serde::to_value(&oracle));
            for pretty in [false, true] {
                let text = if pretty {
                    serde_json::to_string_pretty(&table).unwrap()
                } else {
                    serde_json::to_string(&table).unwrap()
                };
                let want = if pretty {
                    serde_json::to_string_pretty(&oracle).unwrap()
                } else {
                    serde_json::to_string(&oracle).unwrap()
                };
                prop_assert_eq!(&text, &want);
                let back: Segmentation = serde_json::from_str(&text).unwrap();
                prop_assert_eq!(&back, &table);
            }
        }
    }

    /// The reader refuses a segment labelled with another row or index,
    /// or one that ends before it starts, instead of relabelling it.
    #[test]
    fn deserialize_rejects_mislabelled_segments() {
        let good = oracle::Segmentation::from_triples(FunctionId(1), &[vec![(0, 4, 1), (4, 9, 2)]]);
        let mut wrong_row = good.clone();
        wrong_row.per_process[0][1].process = ProcessId(1);
        let mut wrong_ordinal = good.clone();
        wrong_ordinal.per_process[0][1].ordinal = 0;
        let mut backwards = good.clone();
        backwards.per_process[0][0].leave = Timestamp(0);
        backwards.per_process[0][0].enter = Timestamp(3);
        for bad in [wrong_row, wrong_ordinal, backwards] {
            assert!(Segmentation::from_value(&serde::to_value(&bad)).is_err());
        }
        assert_eq!(
            Segmentation::from_value(&serde::to_value(&good)).unwrap(),
            good.to_table()
        );
    }

    /// Two processes, two iterations each; iteration contains calc + MPI.
    fn trace_two_iters() -> (Trace, FunctionId) {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let iter_f = b.define_function("iter", FunctionRole::Compute);
        let calc_f = b.define_function("calc", FunctionRole::Compute);
        let mpi_f = b.define_function("MPI_Barrier", FunctionRole::MpiCollective);
        for (loads, waits) in [([5u64, 2], [1u64, 4]), ([3, 3], [3, 3])] {
            let p = b.define_process("p");
            let w = b.process_mut(p);
            let mut t = 0u64;
            for k in 0..2 {
                w.enter(Timestamp(t), iter_f).unwrap();
                w.enter(Timestamp(t), calc_f).unwrap();
                t += loads[k];
                w.leave(Timestamp(t), calc_f).unwrap();
                w.enter(Timestamp(t), mpi_f).unwrap();
                t += waits[k];
                w.leave(Timestamp(t), mpi_f).unwrap();
                w.leave(Timestamp(t), iter_f).unwrap();
            }
        }
        let trace = b.finish().unwrap();
        let f = trace.registry().function_by_name("iter").unwrap();
        (trace, f)
    }

    #[test]
    fn segments_carry_duration_sync_and_sos() {
        let (trace, iter_f) = trace_two_iters();
        let seg = Segmentation::new(&trace, &replay_all(&trace), iter_f);
        assert_eq!(seg.len(), 4);
        assert!(seg.is_rectangular());
        let s0 = seg.process(ProcessId(0)).to_vec();
        assert_eq!(s0[0].duration(), DurationTicks(6));
        assert_eq!(s0[0].sync, DurationTicks(1));
        assert_eq!(s0[0].sos(), DurationTicks(5));
        assert_eq!(s0[1].duration(), DurationTicks(6));
        assert_eq!(s0[1].sos(), DurationTicks(2));
        let s1 = seg.process(ProcessId(1)).to_vec();
        assert_eq!(s1[0].sos(), DurationTicks(3));
        assert_eq!(s1[1].sos(), DurationTicks(3));
    }

    #[test]
    fn ordinals_count_per_process() {
        let (trace, iter_f) = trace_two_iters();
        let seg = Segmentation::new(&trace, &replay_all(&trace), iter_f);
        for p in 0..2 {
            let segs = seg.process(ProcessId(p)).to_vec();
            assert_eq!(segs[0].ordinal, 0);
            assert_eq!(segs[1].ordinal, 1);
            assert_eq!(segs[0].process, ProcessId(p));
        }
        assert_eq!(seg.max_segments_per_process(), 2);
    }

    #[test]
    fn segmenting_by_unused_function_is_empty() {
        let (trace, _) = trace_two_iters();
        let calc = trace.registry().function_by_name("calc").unwrap();
        let seg = Segmentation::new(&trace, &replay_all(&trace), calc);
        assert_eq!(seg.len(), 4); // calc runs twice per process
        let mpi = trace.registry().function_by_name("MPI_Barrier").unwrap();
        let seg_mpi = Segmentation::new(&trace, &replay_all(&trace), mpi);
        // MPI segments are pure sync: SOS = 0 everywhere.
        assert!(seg_mpi.iter().all(|s| s.sos() == DurationTicks::ZERO));
    }

    #[test]
    fn irregular_segment_counts_detected() {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("f", FunctionRole::Compute);
        let p0 = b.define_process("p0");
        let p1 = b.define_process("p1");
        let w = b.process_mut(p0);
        w.enter(Timestamp(0), f).unwrap();
        w.leave(Timestamp(1), f).unwrap();
        w.enter(Timestamp(2), f).unwrap();
        w.leave(Timestamp(3), f).unwrap();
        let w = b.process_mut(p1);
        w.enter(Timestamp(0), f).unwrap();
        w.leave(Timestamp(1), f).unwrap();
        let trace = b.finish().unwrap();
        let seg = Segmentation::new(&trace, &replay_all(&trace), f);
        assert!(!seg.is_rectangular());
        assert_eq!(seg.max_segments_per_process(), 2);
        assert_eq!(seg.len(), 3);
    }
}
