//! Hardware-counter attribution to segments, and counter–SOS correlation.
//!
//! The paper's case studies use PAPI-style counters twice:
//!
//! * **COSMO-SPECS+FD4** (§VII-B): the interrupted invocation shows a low
//!   `PAPI_TOT_CYC` reading — wall time passed but few cycles were
//!   assigned. Attributing the *accumulating* counter to segments means
//!   differencing the readings at the segment boundaries.
//! * **WRF** (§VII-C): the `FR_FPU_EXCEPTIONS_SSE_MICROTRAPS` counter,
//!   color-coded per segment, "perfectly match\[es\] our runtime variation
//!   analysis". Attributing a *delta* counter means summing the samples
//!   that fall inside each segment; the match is quantified here as a
//!   Pearson correlation between counter values and SOS-times.

use crate::segment::Segmentation;
use crate::sos::SosMatrix;
use perfvar_trace::{Event, MetricId, MetricMode, ProcessId, Timestamp, Trace};
use serde::{Deserialize, Serialize};

/// Per-process, per-segment values of one metric channel.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterMatrix {
    /// The attributed metric.
    pub metric: MetricId,
    /// How samples were interpreted.
    pub mode: MetricMode,
    values: Vec<Vec<u64>>,
}

impl CounterMatrix {
    /// Attributes `metric` to the segments of `seg`.
    ///
    /// * [`MetricMode::Accumulating`]: value = reading at segment end −
    ///   reading at segment start, where "reading at `t`" is the latest
    ///   sample with timestamp ≤ `t` (0 before the first sample).
    /// * [`MetricMode::Delta`] / [`MetricMode::Gauge`]: sum of the samples
    ///   with `enter ≤ t < leave` (gauges are summed too, which matches
    ///   one-sample-per-segment usage; multi-sample gauges need custom
    ///   handling).
    pub fn for_segments(trace: &Trace, seg: &Segmentation, metric: MetricId) -> CounterMatrix {
        let mode = trace.registry().metric(metric).mode;
        let mut values = Vec::with_capacity(seg.num_processes());
        for p in 0..seg.num_processes() {
            let pid = ProcessId::from_index(p);
            // Collect this process's samples of the channel, time-sorted
            // (streams are time-sorted already).
            let samples: Vec<(Timestamp, u64)> = trace
                .stream(pid)
                .records()
                .iter()
                .filter_map(|r| match r.event {
                    Event::Metric { metric: m, value } if m == metric => Some((r.time, value)),
                    _ => None,
                })
                .collect();
            let row = seg
                .process(pid)
                .iter()
                .map(|s| match mode {
                    MetricMode::Accumulating => {
                        let start = reading_at(&samples, s.enter);
                        let end = reading_at(&samples, s.leave);
                        end.saturating_sub(start)
                    }
                    MetricMode::Delta | MetricMode::Gauge => samples
                        .iter()
                        .filter(|(t, _)| s.enter <= *t && *t < s.leave)
                        .map(|(_, v)| *v)
                        .sum(),
                })
                .collect();
            values.push(row);
        }
        CounterMatrix {
            metric,
            mode,
            values,
        }
    }

    /// Assembles a matrix from per-process rows built elsewhere (the
    /// fused streaming pass in [`crate::fused`]).
    pub(crate) fn from_parts(
        metric: MetricId,
        mode: MetricMode,
        values: Vec<Vec<u64>>,
    ) -> CounterMatrix {
        CounterMatrix {
            metric,
            mode,
            values,
        }
    }

    /// Number of processes (rows).
    pub fn num_processes(&self) -> usize {
        self.values.len()
    }

    /// The per-segment values of one process.
    pub fn process_values(&self, p: ProcessId) -> &[u64] {
        &self.values[p.index()]
    }

    /// The value of segment `ordinal` on `p`, if present.
    pub fn value(&self, p: ProcessId, ordinal: usize) -> Option<u64> {
        self.values[p.index()].get(ordinal).copied()
    }

    /// Iterates `(process, ordinal, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, usize, u64)> + '_ {
        self.values.iter().enumerate().flat_map(|(p, row)| {
            row.iter()
                .enumerate()
                .map(move |(i, &v)| (ProcessId::from_index(p), i, v))
        })
    }

    /// Total per process.
    pub fn process_totals(&self) -> Vec<u64> {
        self.values.iter().map(|row| row.iter().sum()).collect()
    }

    /// The process with the highest total (Fig. 6(c): the counter heatmap
    /// singles out Process 39).
    pub fn hottest_process(&self) -> Option<ProcessId> {
        self.process_totals()
            .iter()
            .enumerate()
            .max_by_key(|(p, &v)| (v, std::cmp::Reverse(*p)))
            .map(|(p, _)| ProcessId::from_index(p))
    }

    /// The globally largest value and its location.
    pub fn argmax(&self) -> Option<(ProcessId, usize, u64)> {
        self.iter()
            .max_by_key(|(p, i, v)| (*v, std::cmp::Reverse(p.0), std::cmp::Reverse(*i)))
    }

    /// The globally smallest value and its location.
    pub fn argmin(&self) -> Option<(ProcessId, usize, u64)> {
        self.iter().min_by_key(|(_, _, v)| *v)
    }
}

/// Latest sample value at or before `t` (0 before the first sample).
fn reading_at(samples: &[(Timestamp, u64)], t: Timestamp) -> u64 {
    match samples.binary_search_by(|(st, _)| st.cmp(&t)) {
        Ok(mut i) => {
            // Several samples may share the timestamp; take the last.
            while i + 1 < samples.len() && samples[i + 1].0 == t {
                i += 1;
            }
            samples[i].1
        }
        Err(0) => 0,
        Err(i) => samples[i - 1].1,
    }
}

/// Pearson correlation coefficient of two equal-length series.
/// `None` if fewer than two points or either series has zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() {
        return None;
    }
    pearson_of(|| xs.iter().copied().zip(ys.iter().copied()))
}

/// Correlates a counter matrix with an SOS matrix over all segments both
/// cover (paired by process and ordinal).
pub fn correlate_with_sos(counters: &CounterMatrix, sos: &SosMatrix) -> Option<f64> {
    pearson_of(|| {
        counters.values.iter().enumerate().flat_map(|(p, row)| {
            let sos_row = sos.process_sos(ProcessId::from_index(p));
            row.iter()
                .zip(sos_row)
                .map(|(&v, s)| (v as f64, s.0 as f64))
        })
    })
}

/// [`pearson`] over the pairs `pairs()` yields, walked twice (first for
/// the sums, then for the deviations) instead of collected.
fn pearson_of<I: Iterator<Item = (f64, f64)>>(pairs: impl Fn() -> I) -> Option<f64> {
    let (mut n, mut sum_x, mut sum_y) = (0usize, 0.0, 0.0);
    for (x, y) in pairs() {
        n += 1;
        sum_x += x;
        sum_y += y;
    }
    if n < 2 {
        return None;
    }
    let mx = sum_x / n as f64;
    let my = sum_y / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in pairs() {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invocation::replay_all;
    use perfvar_trace::{Clock, FunctionRole, Trace, TraceBuilder};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// One process, two segments [0,10) and [10,20); an accumulating
    /// counter sampled at 0, 10, 20 with values 0, 100, 250; a delta
    /// counter emitted at 5 (=7) and 15 (=9).
    fn counter_trace() -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("iter", FunctionRole::Compute);
        let acc = b.define_metric("CYC", MetricMode::Accumulating, "cycles");
        let del = b.define_metric("EXC", MetricMode::Delta, "#");
        let p = b.define_process("p0");
        let w = b.process_mut(p);
        w.metric(Timestamp(0), acc, 0).unwrap();
        w.enter(Timestamp(0), f).unwrap();
        w.metric(Timestamp(5), del, 7).unwrap();
        w.leave(Timestamp(10), f).unwrap();
        w.metric(Timestamp(10), acc, 100).unwrap();
        w.enter(Timestamp(10), f).unwrap();
        w.metric(Timestamp(15), del, 9).unwrap();
        w.leave(Timestamp(20), f).unwrap();
        w.metric(Timestamp(20), acc, 250).unwrap();
        b.finish().unwrap()
    }

    fn seg_of(trace: &Trace) -> Segmentation {
        let f = trace.registry().function_by_name("iter").unwrap();
        Segmentation::new(trace, &replay_all(trace), f)
    }

    #[test]
    fn accumulating_counter_differenced_at_boundaries() {
        let trace = counter_trace();
        let seg = seg_of(&trace);
        let acc = trace.registry().metric_by_name("CYC").unwrap();
        let m = CounterMatrix::for_segments(&trace, &seg, acc);
        assert_eq!(m.process_values(ProcessId(0)), &[100, 150]);
        assert_eq!(m.process_totals(), vec![250]);
    }

    #[test]
    fn delta_counter_summed_within_segments() {
        let trace = counter_trace();
        let seg = seg_of(&trace);
        let del = trace.registry().metric_by_name("EXC").unwrap();
        let m = CounterMatrix::for_segments(&trace, &seg, del);
        assert_eq!(m.process_values(ProcessId(0)), &[7, 9]);
        assert_eq!(m.argmax(), Some((ProcessId(0), 1, 9)));
        assert_eq!(m.argmin(), Some((ProcessId(0), 0, 7)));
        assert_eq!(m.hottest_process(), Some(ProcessId(0)));
    }

    #[test]
    fn reading_at_boundaries() {
        let samples = vec![
            (Timestamp(10), 1u64),
            (Timestamp(20), 2),
            (Timestamp(20), 3),
            (Timestamp(30), 4),
        ];
        assert_eq!(reading_at(&samples, Timestamp(5)), 0);
        assert_eq!(reading_at(&samples, Timestamp(10)), 1);
        assert_eq!(reading_at(&samples, Timestamp(15)), 1);
        assert_eq!(reading_at(&samples, Timestamp(20)), 3);
        assert_eq!(reading_at(&samples, Timestamp(99)), 4);
    }

    #[test]
    fn pearson_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&xs, &[1.0, 1.0, 1.0, 1.0]), None); // zero variance
        assert_eq!(pearson(&[1.0], &[2.0]), None); // too few
        assert_eq!(pearson(&xs, &ys[..2]), None); // length mismatch
    }

    #[test]
    fn counter_sos_correlation() {
        // Build two processes whose per-segment compute time is exactly
        // proportional to a delta counter → correlation 1.
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("iter", FunctionRole::Compute);
        let del = b.define_metric("EXC", MetricMode::Delta, "#");
        for loads in [[10u64, 30, 20], [40, 10, 50]] {
            let p = b.define_process("p");
            let w = b.process_mut(p);
            let mut t = 0u64;
            for load in loads {
                w.enter(Timestamp(t), f).unwrap();
                w.metric(Timestamp(t), del, load * 3).unwrap();
                t += load;
                w.leave(Timestamp(t), f).unwrap();
            }
        }
        let trace = b.finish().unwrap();
        let seg = seg_of(&trace);
        let sos = SosMatrix::from_segmentation(&seg);
        let del = trace.registry().metric_by_name("EXC").unwrap();
        let cm = CounterMatrix::for_segments(&trace, &seg, del);
        let r = correlate_with_sos(&cm, &sos).unwrap();
        assert!((r - 1.0).abs() < 1e-12, "r = {r}");
    }

    #[test]
    fn missing_samples_mean_zero() {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("iter", FunctionRole::Compute);
        let acc = b.define_metric("CYC", MetricMode::Accumulating, "cycles");
        let p = b.define_process("p0");
        let w = b.process_mut(p);
        w.enter(Timestamp(0), f).unwrap();
        w.leave(Timestamp(10), f).unwrap();
        let trace = b.finish().unwrap();
        let seg = seg_of(&trace);
        let m = CounterMatrix::for_segments(&trace, &seg, acc);
        assert_eq!(m.process_values(ProcessId(0)), &[0]);
    }

    /// The allocating `correlate_with_sos` and the slice `pearson` that
    /// the two-walk `pearson_of` replaced: collect the paired series,
    /// then sum and fold them.
    fn oracle_correlate_with_sos(counters: &CounterMatrix, sos: &SosMatrix) -> Option<f64> {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (p, i, v) in counters.iter() {
            if let Some(s) = sos.sos(p, i) {
                xs.push(v as f64);
                ys.push(s.0 as f64);
            }
        }
        if xs.len() < 2 {
            return None;
        }
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        for (x, y) in xs.iter().zip(&ys) {
            let dx = x - mx;
            let dy = y - my;
            sxy += dx * dy;
            sxx += dx * dx;
            syy += dy * dy;
        }
        if sxx <= 0.0 || syy <= 0.0 {
            return None;
        }
        Some(sxy / (sxx * syy).sqrt())
    }

    /// Per-process `(counter row, SOS row)` pairs of independent lengths,
    /// so either row can be the longer; small values make constant rows
    /// (zero variance) and ties common.
    fn arb_paired_rows() -> impl Strategy<Value = Vec<(Vec<u64>, Vec<u64>)>> {
        let value = || prop_oneof![Just(5u64), 0u64..4, 0u64..1_000_000_000];
        vec((vec(value(), 0..9), vec(value(), 0..9)), 0..9)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn two_pass_correlation_matches_the_allocating_oracle(rows in arb_paired_rows()) {
            let (counter_rows, sos_rows): (Vec<Vec<u64>>, Vec<Vec<u64>>) =
                rows.into_iter().unzip();
            let counters =
                CounterMatrix::from_parts(MetricId(0), MetricMode::Delta, counter_rows);
            let sos = Segmentation::from_sos_rows(&sos_rows);
            prop_assert_eq!(
                correlate_with_sos(&counters, &SosMatrix::from_segmentation(&sos)).map(f64::to_bits),
                oracle_correlate_with_sos(&counters, &SosMatrix::from_segmentation(&sos)).map(f64::to_bits)
            );
        }
    }

    #[test]
    fn correlation_of_ragged_and_constant_rows() {
        // Counter row longer than the SOS row on p0, shorter on p1: only
        // the three covered segments pair up.
        let counters =
            CounterMatrix::from_parts(MetricId(0), MetricMode::Delta, vec![vec![1, 2, 9], vec![3]]);
        let sos = Segmentation::from_sos_rows(&[vec![10, 20], vec![30, 40, 50]]);
        let r = correlate_with_sos(&counters, &SosMatrix::from_segmentation(&sos)).unwrap();
        assert!((r - 1.0).abs() < 1e-12, "r = {r}");
        // A constant counter has zero variance.
        let flat = CounterMatrix::from_parts(MetricId(0), MetricMode::Delta, vec![vec![4, 4, 4]]);
        let sos = Segmentation::from_sos_rows(&[vec![1, 2, 3]]);
        assert_eq!(
            correlate_with_sos(&flat, &SosMatrix::from_segmentation(&sos)),
            None
        );
        // One covered pair is too few.
        let one = CounterMatrix::from_parts(MetricId(0), MetricMode::Delta, vec![vec![4, 5]]);
        let sos = Segmentation::from_sos_rows(&[vec![1]]);
        assert_eq!(
            correlate_with_sos(&one, &SosMatrix::from_segmentation(&sos)),
            None
        );
    }
}
