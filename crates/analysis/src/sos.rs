//! The synchronization-oblivious segment time matrix (§V).
//!
//! Comparing plain segment durations detects variation *across
//! iterations* but cannot localise the responsible *process*: fast ranks
//! wait inside synchronization calls, so every rank's iteration takes
//! equally long. The paper therefore subtracts synchronization time from
//! each segment — the **SOS-time** — before comparing. [`SosMatrix`]
//! holds the per-process, per-segment values and the summary statistics
//! the detector and visualizer work with.

use crate::segment::{SegmentColumns, Segmentation};
use perfvar_trace::{DurationTicks, FunctionId, ProcessId};
use serde::{Deserialize, JsonWriter, Serialize, Value};

/// Per-process, per-segment SOS-times (and durations) for one
/// segmentation function: a view of the columns of a [`Segmentation`],
/// so building one copies nothing. Rows may be ragged if processes
/// executed different numbers of segments.
///
/// Serializes as `{"function": …, "sos": [[…], …], "durations": [[…],
/// …]}`.
#[derive(Clone, Copy, Debug)]
pub struct SosMatrix<'a> {
    /// The segmentation function the matrix was computed for.
    pub function: FunctionId,
    rows: &'a [SegmentColumns],
    /// Read the duration column as SOS (the naive ablation).
    naive: bool,
}

/// Simple distribution summary of a set of tick values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TickStats {
    /// Number of values.
    pub count: usize,
    /// Minimum.
    pub min: u64,
    /// Maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Median (lower of the two middle elements for even counts).
    pub median: u64,
}

impl TickStats {
    /// Computes stats over raw tick values.
    pub fn from_values(values: impl IntoIterator<Item = u64>) -> TickStats {
        let mut v: Vec<u64> = values.into_iter().collect();
        if v.is_empty() {
            return TickStats::default();
        }
        // A full sort, not selection: `mean` and `stddev` are summed in
        // sorted order, and another order would change their bits.
        v.sort_unstable();
        let count = v.len();
        let min = v[0];
        let max = v[count - 1];
        let median = v[(count - 1) / 2];
        let mean = v.iter().map(|&x| x as f64).sum::<f64>() / count as f64;
        let var = v
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / count as f64;
        TickStats {
            count,
            min,
            max,
            mean,
            stddev: var.sqrt(),
            median,
        }
    }

    /// [`from_values`](TickStats::from_values) over what `values`
    /// yields, with the same bits. When the values span fewer ticks than
    /// there are values they are counted per tick instead of copied and
    /// sorted: walking the ticks in ascending order, each as often as it
    /// occurs, is the sorted order the sums need.
    pub(crate) fn from_ticks(values: impl Iterator<Item = u64> + Clone) -> TickStats {
        let (mut count, mut min, mut max) = (0usize, u64::MAX, 0);
        for v in values.clone() {
            count += 1;
            min = min.min(v);
            max = max.max(v);
        }
        if count == 0 || max - min >= count as u64 {
            return TickStats::from_values(values);
        }
        let mut counts = vec![0usize; (max - min + 1) as usize];
        for v in values {
            counts[(v - min) as usize] += 1;
        }
        let sorted = || {
            (min..)
                .zip(&counts)
                .flat_map(|(v, &n)| std::iter::repeat_n(v, n))
        };
        let mean = sorted().map(|x| x as f64).sum::<f64>() / count as f64;
        let var = sorted()
            .map(|x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / count as f64;
        TickStats {
            count,
            min,
            max,
            mean,
            stddev: var.sqrt(),
            median: min + histogram_middles(&counts, count).0,
        }
    }

    /// Coefficient of variation (stddev / mean); 0 for an empty or
    /// zero-mean set.
    pub fn cv(&self) -> f64 {
        if self.mean > 0.0 {
            self.stddev / self.mean
        } else {
            0.0
        }
    }
}

impl<'a> SosMatrix<'a> {
    /// The matrix of a segmentation: a view of its columns, no copy.
    pub fn from_segmentation(seg: &'a Segmentation) -> SosMatrix<'a> {
        SosMatrix {
            function: seg.function,
            rows: seg.rows(),
            naive: false,
        }
    }

    /// Number of processes (rows).
    pub fn num_processes(&self) -> usize {
        self.rows.len()
    }

    /// The SOS-time series of one process.
    #[inline]
    pub fn process_sos(&self, p: ProcessId) -> &'a [DurationTicks] {
        self.sos_row(&self.rows[p.index()])
    }

    /// The plain segment-duration series of one process.
    #[inline]
    pub fn process_durations(&self, p: ProcessId) -> &'a [DurationTicks] {
        self.rows[p.index()].durations()
    }

    /// SOS-time of segment `ordinal` on `p`, if present.
    pub fn sos(&self, p: ProcessId, ordinal: usize) -> Option<DurationTicks> {
        self.process_sos(p).get(ordinal).copied()
    }

    /// Duration of segment `ordinal` on `p`, if present.
    pub fn duration(&self, p: ProcessId, ordinal: usize) -> Option<DurationTicks> {
        self.process_durations(p).get(ordinal).copied()
    }

    #[inline]
    fn sos_row(&self, row: &'a SegmentColumns) -> &'a [DurationTicks] {
        if self.naive {
            row.durations()
        } else {
            row.sos()
        }
    }

    /// The SOS rows, in process order.
    fn sos_rows(&self) -> impl Iterator<Item = &'a [DurationTicks]> + Clone + 'a {
        let view = *self;
        self.rows.iter().map(move |row| view.sos_row(row))
    }

    /// The duration rows, in process order.
    fn duration_rows(&self) -> impl Iterator<Item = &'a [DurationTicks]> + Clone + 'a {
        self.rows.iter().map(SegmentColumns::durations)
    }

    /// Iterates `(process, ordinal, sos)` over all segments.
    pub fn iter_sos(&self) -> impl Iterator<Item = (ProcessId, usize, DurationTicks)> + 'a {
        self.sos_rows().enumerate().flat_map(|(p, row)| {
            row.iter()
                .enumerate()
                .map(move |(i, &v)| (ProcessId::from_index(p), i, v))
        })
    }

    /// Total SOS-time per process (the per-process computational load).
    pub fn process_totals(&self) -> Vec<DurationTicks> {
        self.sos_rows()
            .map(|row| row.iter().copied().sum())
            .collect()
    }

    /// Maximum SOS-time per process.
    pub fn process_maxima(&self) -> Vec<DurationTicks> {
        self.sos_rows()
            .map(|row| row.iter().copied().max().unwrap_or(DurationTicks::ZERO))
            .collect()
    }

    /// Statistics over all SOS values in the matrix.
    pub fn sos_stats(&self) -> TickStats {
        TickStats::from_ticks(self.sos_rows().flatten().map(|d| d.0))
    }

    /// Statistics over all plain durations.
    pub fn duration_stats(&self) -> TickStats {
        TickStats::from_ticks(self.duration_rows().flatten().map(|d| d.0))
    }

    /// Per-ordinal mean duration across processes (the "how long was
    /// iteration k" series; reveals variation over time, §V ¶1). Ragged
    /// rows contribute to the ordinals they have.
    pub fn duration_by_ordinal(&self) -> Vec<f64> {
        ordinal_means(self.duration_rows())
    }

    /// Per-ordinal mean SOS across processes.
    pub fn sos_by_ordinal(&self) -> Vec<f64> {
        ordinal_means(self.sos_rows())
    }

    /// The globally largest SOS value and its location.
    pub fn argmax(&self) -> Option<(ProcessId, usize, DurationTicks)> {
        self.iter_sos()
            .max_by_key(|(p, i, v)| (*v, std::cmp::Reverse(p.0), std::cmp::Reverse(*i)))
    }

    /// Ablation helper: a matrix whose "SOS" values are the *plain
    /// segment durations* — i.e. the naive analysis the paper argues
    /// against in §V. Feeding this to
    /// [`ImbalanceAnalysis`](crate::imbalance::ImbalanceAnalysis) shows
    /// what detection quality is lost without the synchronization
    /// subtraction (synchronization hides the slow process, so the naive
    /// variant cannot localise imbalances across processes).
    pub fn durations_as_sos(&self) -> SosMatrix<'a> {
        SosMatrix {
            naive: true,
            ..*self
        }
    }
}

/// Per-ordinal means of `rows` (ragged rows contribute to the ordinals
/// they have), summed row by row.
fn ordinal_means<'r>(rows: impl Iterator<Item = &'r [DurationTicks]> + Clone) -> Vec<f64> {
    let width = rows.clone().map(<[_]>::len).max().unwrap_or(0);
    let mut sums = vec![0.0f64; width];
    let mut counts = vec![0usize; width];
    for row in rows {
        for (i, d) in row.iter().enumerate() {
            sums[i] += d.0 as f64;
            counts[i] += 1;
        }
    }
    means(&sums, &counts)
}

/// The two middle values (ranks `⌊(n−1)/2⌋` and `⌊n/2⌋`, the same one
/// twice for odd `n`) of the `n` values `v` counted as `counts[v]`.
pub(crate) fn histogram_middles(counts: &[usize], n: usize) -> (u64, u64) {
    let (a, b) = ((n - 1) / 2, n / 2);
    let (mut lower, mut below) = (None, 0);
    for (v, &count) in (0u64..).zip(counts) {
        below += count;
        if lower.is_none() && below > a {
            lower = Some(v);
        }
        if below > b {
            return (lower.unwrap_or(v), v);
        }
    }
    unreachable!("the counts hold all {n} values")
}

/// `sums[i] / counts[i]`, 0 where the count is 0.
pub(crate) fn means(sums: &[f64], counts: &[usize]) -> Vec<f64> {
    sums.iter()
        .zip(counts)
        .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect()
}

/// Two matrices are equal when their functions, SOS rows and duration
/// rows are.
impl PartialEq for SosMatrix<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.function == other.function
            && self.sos_rows().eq(other.sos_rows())
            && self.duration_rows().eq(other.duration_rows())
    }
}

impl Serialize for SosMatrix<'_> {
    fn to_value(&self) -> Value {
        let rows = |rows: &mut dyn Iterator<Item = &[DurationTicks]>| {
            Value::Array(rows.map(|row| row.to_value()).collect())
        };
        Value::Object(vec![
            ("function".to_string(), self.function.to_value()),
            ("sos".to_string(), rows(&mut self.sos_rows())),
            ("durations".to_string(), rows(&mut self.duration_rows())),
        ])
    }

    fn write_json(&self, out: &mut JsonWriter<'_>) {
        let rows = |out: &mut JsonWriter<'_>, rows: &mut dyn Iterator<Item = &[DurationTicks]>| {
            out.begin_array();
            for row in rows {
                out.array_value();
                row.write_json(out);
            }
            out.end_array();
        };
        out.begin_object();
        out.key("function");
        self.function.write_json(out);
        out.key("sos");
        rows(out, &mut self.sos_rows());
        out.key("durations");
        rows(out, &mut self.duration_rows());
        out.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invocation::replay_all;
    use crate::segment::{oracle, Segmentation};
    use perfvar_trace::{Clock, FunctionRole, Timestamp, Trace, TraceBuilder};
    use proptest::prelude::*;

    /// The paper's Fig. 3: three processes, three invocations of the
    /// dominant function `a`, each `calc` + `MPI`. All processes leave
    /// each synchronization together.
    ///
    /// Iteration 1 (0–6): calc loads 5/3/1 → SOS 5/3/1 (the paper:
    /// "the SOS-time of Process 2 shows 1 compared to a SOS-time of 5
    /// for Process 0"). Durations are 6 for everyone.
    /// Iterations 2 and 3 (6–9, 9–12): balanced loads → duration 3
    /// ("twice as fast as the first iteration").
    pub(crate) fn fig3_trace() -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let a_f = b.define_function("a", FunctionRole::Compute);
        let calc_f = b.define_function("calc", FunctionRole::Compute);
        let mpi_f = b.define_function("MPI", FunctionRole::MpiCollective);
        // calc ticks per (process, iteration).
        let loads = [[5u64, 2, 2], [3, 2, 2], [1, 2, 2]];
        // iteration boundaries: 0..6, 6..9, 9..12.
        let bounds = [(0u64, 6u64), (6, 9), (9, 12)];
        for row in loads {
            let p = b.define_process("p");
            let w = b.process_mut(p);
            for (k, (start, end)) in bounds.iter().enumerate() {
                w.enter(Timestamp(*start), a_f).unwrap();
                w.enter(Timestamp(*start), calc_f).unwrap();
                w.leave(Timestamp(start + row[k]), calc_f).unwrap();
                w.enter(Timestamp(start + row[k]), mpi_f).unwrap();
                w.leave(Timestamp(*end), mpi_f).unwrap();
                w.leave(Timestamp(*end), a_f).unwrap();
            }
        }
        b.finish().unwrap()
    }

    fn fig3_segmentation() -> Segmentation {
        let trace = fig3_trace();
        let a = trace.registry().function_by_name("a").unwrap();
        Segmentation::new(&trace, &replay_all(&trace), a)
    }

    #[test]
    fn fig3_durations_match_paper() {
        let seg = fig3_segmentation();
        let m = SosMatrix::from_segmentation(&seg);
        // Middle of Fig. 3: plain durations are 6 then 3 then 3, on every
        // process — the duration comparison cannot tell processes apart.
        for p in 0..3 {
            let d: Vec<u64> = m
                .process_durations(ProcessId(p))
                .iter()
                .map(|d| d.0)
                .collect();
            assert_eq!(d, vec![6, 3, 3], "process {p}");
        }
    }

    #[test]
    fn fig3_sos_times_match_paper() {
        let seg = fig3_segmentation();
        let m = SosMatrix::from_segmentation(&seg);
        // Bottom of Fig. 3: subtracting synchronization reveals the load
        // imbalance of the first iteration.
        assert_eq!(m.sos(ProcessId(0), 0), Some(DurationTicks(5)));
        assert_eq!(m.sos(ProcessId(1), 0), Some(DurationTicks(3)));
        assert_eq!(m.sos(ProcessId(2), 0), Some(DurationTicks(1)));
        // Balanced iterations: SOS 2 everywhere.
        for p in 0..3 {
            assert_eq!(m.sos(ProcessId(p), 1), Some(DurationTicks(2)));
            assert_eq!(m.sos(ProcessId(p), 2), Some(DurationTicks(2)));
        }
        // The hotspot is Process 0's first segment.
        let (p, i, v) = m.argmax().unwrap();
        assert_eq!((p, i, v), (ProcessId(0), 0, DurationTicks(5)));
    }

    #[test]
    fn totals_and_maxima() {
        let seg = fig3_segmentation();
        let m = SosMatrix::from_segmentation(&seg);
        assert_eq!(
            m.process_totals(),
            vec![DurationTicks(9), DurationTicks(7), DurationTicks(5)]
        );
        assert_eq!(
            m.process_maxima(),
            vec![DurationTicks(5), DurationTicks(3), DurationTicks(2)]
        );
    }

    #[test]
    fn ordinal_series() {
        let seg = fig3_segmentation();
        let m = SosMatrix::from_segmentation(&seg);
        assert_eq!(m.duration_by_ordinal(), vec![6.0, 3.0, 3.0]);
        let sos = m.sos_by_ordinal();
        assert!((sos[0] - 3.0).abs() < 1e-12);
        assert!((sos[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stats_summary() {
        let seg = fig3_segmentation();
        let m = SosMatrix::from_segmentation(&seg);
        let s = m.sos_stats();
        assert_eq!(s.count, 9);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 5);
        assert_eq!(s.median, 2);
        let d = m.duration_stats();
        assert_eq!(d.max, 6);
        assert_eq!(d.min, 3);
    }

    #[test]
    fn tick_stats_edge_cases() {
        let empty = TickStats::from_values([]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.cv(), 0.0);
        let single = TickStats::from_values([7]);
        assert_eq!(single.mean, 7.0);
        assert_eq!(single.stddev, 0.0);
        assert_eq!(single.median, 7);
        let even = TickStats::from_values([1, 3, 5, 7]);
        assert_eq!(even.median, 3);
        assert_eq!(even.mean, 4.0);
    }

    #[test]
    fn empty_matrix() {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("f", FunctionRole::Compute);
        b.define_process("p0");
        let trace = b.finish().unwrap();
        let seg = Segmentation::new(&trace, &replay_all(&trace), f);
        let m = SosMatrix::from_segmentation(&seg);
        assert_eq!(m.argmax(), None);
        assert_eq!(m.sos_stats().count, 0);
        assert!(m.duration_by_ordinal().is_empty());
    }

    /// The matrix as it was before it became a view: two copied
    /// columns per segment and the derived serde impls. The oracle of
    /// the view's tests.
    #[derive(Serialize)]
    struct OracleMatrix {
        function: FunctionId,
        sos: Vec<Vec<DurationTicks>>,
        durations: Vec<Vec<DurationTicks>>,
    }

    impl OracleMatrix {
        fn from_segmentation(seg: &oracle::Segmentation) -> OracleMatrix {
            OracleMatrix {
                function: seg.function,
                sos: (seg.per_process.iter())
                    .map(|row| row.iter().map(|s| s.sos()).collect())
                    .collect(),
                durations: (seg.per_process.iter())
                    .map(|row| row.iter().map(|s| s.duration()).collect())
                    .collect(),
            }
        }

        fn iter_sos(&self) -> impl Iterator<Item = (ProcessId, usize, DurationTicks)> + '_ {
            self.sos.iter().enumerate().flat_map(|(p, row)| {
                row.iter()
                    .enumerate()
                    .map(move |(i, &v)| (ProcessId::from_index(p), i, v))
            })
        }

        fn by_ordinal(rows: &[Vec<DurationTicks>]) -> Vec<f64> {
            let width = rows.iter().map(Vec::len).max().unwrap_or(0);
            let mut sums = vec![0.0f64; width];
            let mut counts = vec![0usize; width];
            for row in rows {
                for (i, d) in row.iter().enumerate() {
                    sums[i] += d.0 as f64;
                    counts[i] += 1;
                }
            }
            sums.iter()
                .zip(&counts)
                .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
                .collect()
        }
    }

    fn stats_bits(s: TickStats) -> (usize, u64, u64, u64, u64, u64) {
        (
            s.count,
            s.min,
            s.max,
            s.mean.to_bits(),
            s.stddev.to_bits(),
            s.median,
        )
    }

    fn bits(v: Vec<f64>) -> Vec<u64> {
        v.into_iter().map(f64::to_bits).collect()
    }

    /// Rows of `(enter, leave, sync)` triples: ragged, some empty, with
    /// sync below, at and above the duration (SOS clamped to zero).
    fn triples() -> impl Strategy<Value = Vec<Vec<(u64, u64, u64)>>> {
        let segment = (0u64..1_000, 0u64..80, 0u64..60)
            .prop_map(|(enter, len, sync)| (enter, enter + len, sync));
        proptest::collection::vec(proptest::collection::vec(segment, 0..10), 0..6)
    }

    proptest! {
        /// Counting per tick gives the bits sorting a copy gives.
        #[test]
        fn counted_tick_stats_match_the_sorted_ones(
            values in crate::imbalance::oracle::arb_ticks(),
        ) {
            prop_assert_eq!(
                stats_bits(TickStats::from_ticks(values.iter().copied())),
                stats_bits(TickStats::from_values(values.iter().copied()))
            );
        }

        /// The view equals the copied matrix it replaced on every
        /// accessor (floats compared by bits), in both the SOS and the
        /// naive durations-as-SOS reading, and on both serde paths.
        #[test]
        fn view_matches_the_copied_matrix(rows in triples(), f in 0u32..3) {
            let oracle_seg = oracle::Segmentation::from_triples(FunctionId(f), &rows);
            let seg = oracle_seg.to_table();
            let mut oracle = OracleMatrix::from_segmentation(&oracle_seg);
            let mut m = SosMatrix::from_segmentation(&seg);
            for naive in [false, true] {
                if naive {
                    oracle.sos = oracle.durations.clone();
                    m = m.durations_as_sos();
                }
                prop_assert_eq!(m.function, oracle.function);
                prop_assert_eq!(m.num_processes(), oracle.sos.len());
                for p in 0..oracle.sos.len() {
                    let pid = ProcessId::from_index(p);
                    prop_assert_eq!(m.process_sos(pid), &oracle.sos[p][..]);
                    prop_assert_eq!(m.process_durations(pid), &oracle.durations[p][..]);
                    for i in 0..=oracle.sos[p].len() {
                        prop_assert_eq!(m.sos(pid, i), oracle.sos[p].get(i).copied());
                        prop_assert_eq!(m.duration(pid, i), oracle.durations[p].get(i).copied());
                    }
                }
                prop_assert_eq!(m.iter_sos().collect::<Vec<_>>(), oracle.iter_sos().collect::<Vec<_>>());
                let totals: Vec<DurationTicks> =
                    oracle.sos.iter().map(|r| r.iter().copied().sum()).collect();
                prop_assert_eq!(m.process_totals(), totals);
                let maxima: Vec<DurationTicks> = (oracle.sos.iter())
                    .map(|r| r.iter().copied().max().unwrap_or(DurationTicks::ZERO))
                    .collect();
                prop_assert_eq!(m.process_maxima(), maxima);
                prop_assert_eq!(
                    stats_bits(m.sos_stats()),
                    stats_bits(TickStats::from_values(oracle.sos.iter().flatten().map(|d| d.0)))
                );
                prop_assert_eq!(
                    stats_bits(m.duration_stats()),
                    stats_bits(TickStats::from_values(oracle.durations.iter().flatten().map(|d| d.0)))
                );
                prop_assert_eq!(bits(m.duration_by_ordinal()), bits(OracleMatrix::by_ordinal(&oracle.durations)));
                prop_assert_eq!(bits(m.sos_by_ordinal()), bits(OracleMatrix::by_ordinal(&oracle.sos)));
                let argmax = oracle
                    .iter_sos()
                    .max_by_key(|(p, i, v)| (*v, std::cmp::Reverse(p.0), std::cmp::Reverse(*i)));
                prop_assert_eq!(m.argmax(), argmax);
                prop_assert_eq!(serde::to_value(&m), serde::to_value(&oracle));
                prop_assert_eq!(serde_json::to_string(&m).unwrap(), serde_json::to_string(&oracle).unwrap());
                prop_assert_eq!(
                    serde_json::to_string_pretty(&m).unwrap(),
                    serde_json::to_string_pretty(&oracle).unwrap()
                );
            }
        }
    }
}
