//! Imbalance detection over the SOS-time matrix.
//!
//! The paper guides the analyst visually: high (red) SOS values stand out
//! on the timeline. This module adds the programmatic counterpart used by
//! the report, the CLI, and the experiment harness: robust outlier scores
//! for individual segments and for whole processes, plus a temporal trend
//! of segment durations (the paper's COSMO-SPECS study observes
//! "gradually increased durations towards the end of the run").
//!
//! Scores are robust z-scores, `(x − median) / (1.4826 · MAD)`, which
//! tolerate the very outliers being hunted (a plain mean/σ score would be
//! dragged by them). If the MAD degenerates to zero (many identical
//! values) the mean absolute deviation about the median is the fallback
//! scale.

use crate::sos::SosMatrix;
use perfvar_trace::{DurationTicks, ProcessId};
use serde::{Deserialize, Serialize};

/// Detection thresholds.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ImbalanceConfig {
    /// Robust z-score above which a segment/process is an outlier.
    pub z_threshold: f64,
    /// Additionally require the value to exceed the median by this
    /// relative margin (guards against flagging noise in near-constant
    /// data where the scale estimate is tiny).
    pub min_relative_excess: f64,
}

impl Default for ImbalanceConfig {
    fn default() -> ImbalanceConfig {
        ImbalanceConfig {
            z_threshold: 3.5,
            min_relative_excess: 0.10,
        }
    }
}

/// One flagged segment.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Outlier {
    /// Process of the flagged segment.
    pub process: ProcessId,
    /// Segment ordinal on that process.
    pub ordinal: usize,
    /// The segment's SOS-time.
    pub sos: DurationTicks,
    /// Robust z-score of the SOS value.
    pub score: f64,
}

/// Linear trend of mean segment duration over ordinals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Trend {
    /// Least-squares slope, ticks per segment ordinal.
    pub slope: f64,
    /// `(last fitted value − first fitted value) / first fitted value`;
    /// e.g. `1.0` means durations doubled over the run.
    pub relative_increase: f64,
}

/// The result of imbalance detection on one SOS matrix.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ImbalanceAnalysis {
    /// Flagged segments, highest score first.
    pub segment_outliers: Vec<Outlier>,
    /// Robust z-score of each process's total SOS-time.
    pub process_scores: Vec<f64>,
    /// Processes whose total SOS-time is an outlier, highest score first.
    pub process_outliers: Vec<ProcessId>,
    /// Trend of mean segment duration over the run.
    pub duration_trend: Trend,
    /// The configuration used.
    pub config: ImbalanceConfig,
}

impl ImbalanceAnalysis {
    /// Detects imbalances in `matrix` using `config`.
    pub fn detect(matrix: &SosMatrix, config: ImbalanceConfig) -> ImbalanceAnalysis {
        ImbalanceAnalysis::detect_with_waste(matrix, config).0
    }

    /// [`detect`](ImbalanceAnalysis::detect) and
    /// [`WasteAnalysis::compute`] in two walks over the columns: the
    /// first gathers the process totals, the per-ordinal SOS maxima and
    /// the per-ordinal duration sums; after the segment scorer is fitted
    /// on integers, the second flags segment outliers
    /// and sums the waste.
    pub fn detect_with_waste(
        matrix: &SosMatrix,
        config: ImbalanceConfig,
    ) -> (ImbalanceAnalysis, WasteAnalysis) {
        let rows = || {
            (0..matrix.num_processes()).map(|p| {
                let pid = ProcessId::from_index(p);
                (matrix.process_sos(pid), matrix.process_durations(pid))
            })
        };
        let width = rows().map(|(sos, _)| sos.len()).max().unwrap_or(0);
        let mut totals = Vec::with_capacity(matrix.num_processes());
        let mut maxima = vec![0u64; width];
        let mut duration_sums = vec![0.0f64; width];
        let mut counts = vec![0usize; width];
        for (sos, durations) in rows() {
            for count in &mut counts[..sos.len()] {
                *count += 1;
            }
            let mut total = 0u64;
            let columns = maxima
                .iter_mut()
                .zip(&mut duration_sums)
                .zip(sos)
                .zip(durations);
            for (((max, sum), v), d) in columns {
                total += v.0;
                *max = (*max).max(v.0);
                *sum += d.0 as f64;
            }
            totals.push(total);
        }

        // --- per-segment outliers, and the waste of each ordinal ---
        let scorer = RobustScorer::fit_ticks(|| rows().map(|(sos, _)| sos));
        let mut segment_outliers = Vec::new();
        let mut per_ordinal = vec![0u64; width];
        for (p, (sos, _)) in rows().enumerate() {
            for ((waste, max), v) in per_ordinal.iter_mut().zip(&maxima).zip(sos) {
                *waste += max - v.0;
            }
            for (i, &v) in sos.iter().enumerate() {
                let score = scorer.score(v.0 as f64);
                let excess_ok = scorer.median > 0.0
                    && v.0 as f64 >= scorer.median * (1.0 + config.min_relative_excess);
                if score >= config.z_threshold && excess_ok {
                    segment_outliers.push(Outlier {
                        process: ProcessId::from_index(p),
                        ordinal: i,
                        sos: v,
                        score,
                    });
                }
            }
        }
        segment_outliers.sort_by(|a, b| b.score.total_cmp(&a.score));

        // --- per-process outliers (total SOS = computational load) ---
        let total_sos = DurationTicks(totals.iter().sum());
        let totals: Vec<f64> = totals.iter().map(|&t| t as f64).collect();
        let pscorer = RobustScorer::fit(|| totals.iter().copied());
        let process_scores: Vec<f64> = totals.iter().map(|&t| pscorer.score(t)).collect();
        let mut process_outliers: Vec<ProcessId> = process_scores
            .iter()
            .enumerate()
            .filter(|(p, &score)| {
                score >= config.z_threshold
                    && pscorer.median > 0.0
                    && totals[*p] >= pscorer.median * (1.0 + config.min_relative_excess)
            })
            .map(|(p, _)| ProcessId::from_index(p))
            .collect();
        process_outliers
            .sort_by(|a, b| process_scores[b.index()].total_cmp(&process_scores[a.index()]));

        let duration_trend = Trend::fit_robust(&crate::sos::means(&duration_sums, &counts));

        let imbalance = ImbalanceAnalysis {
            segment_outliers,
            process_scores,
            process_outliers,
            duration_trend,
            config,
        };
        let waste = WasteAnalysis {
            total: DurationTicks(per_ordinal.iter().sum()),
            per_ordinal: per_ordinal.into_iter().map(DurationTicks).collect(),
            total_sos,
        };
        (imbalance, waste)
    }

    /// The process with the highest total-SOS score, if any process
    /// recorded segments (not necessarily above threshold).
    pub fn hottest_process(&self) -> Option<ProcessId> {
        self.process_scores
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(p, _)| ProcessId::from_index(p))
    }

    /// The flagged segment with the highest score.
    pub fn hottest_segment(&self) -> Option<&Outlier> {
        self.segment_outliers.first()
    }

    /// Whether anything was flagged.
    pub fn has_findings(&self) -> bool {
        !self.segment_outliers.is_empty() || !self.process_outliers.is_empty()
    }
}

/// Waste quantification: how much aggregate CPU time the detected
/// imbalance costs.
///
/// Related work (Scalasca) ranks findings "by their severity and impact
/// on the application performance"; this provides the same guidance for
/// SOS findings. Under synchronized iterations every process effectively
/// waits for the per-ordinal maximum, so the **waste** of segment
/// ordinal `k` is `Σ_p (max_sos(k) − sos(p, k))` — the CPU time the
/// other processes spend waiting for the slowest one. Perfect balance ⇒
/// zero waste.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WasteAnalysis {
    /// Waste per segment ordinal.
    pub per_ordinal: Vec<DurationTicks>,
    /// Total waste across the run.
    pub total: DurationTicks,
    /// Total SOS (useful work) across the run.
    pub total_sos: DurationTicks,
}

impl WasteAnalysis {
    /// Computes the waste of `matrix`. Ragged rows contribute to the
    /// ordinals they have.
    pub fn compute(matrix: &SosMatrix) -> WasteAnalysis {
        ImbalanceAnalysis::detect_with_waste(matrix, ImbalanceConfig::default()).1
    }

    /// Fraction of aggregate CPU time lost to waiting:
    /// `waste / (waste + useful)`. This bounds the speedup a perfect
    /// load balance could deliver.
    pub fn waste_fraction(&self) -> f64 {
        let denom = self.total.0 + self.total_sos.0;
        if denom == 0 {
            0.0
        } else {
            self.total.0 as f64 / denom as f64
        }
    }

    /// The ordinal with the highest waste (the iteration most worth
    /// fixing first), if any segment exists.
    pub fn worst_ordinal(&self) -> Option<usize> {
        self.per_ordinal
            .iter()
            .enumerate()
            .max_by_key(|(i, v)| (**v, std::cmp::Reverse(*i)))
            .map(|(i, _)| i)
    }
}

/// Median/MAD-based scorer with σ fallback.
#[derive(Debug)]
struct RobustScorer {
    median: f64,
    scale: f64,
}

impl RobustScorer {
    /// Fits the scorer to the values `values()` yields. Both medians are
    /// found by selection in one scratch buffer, which first holds the
    /// values and then their absolute deviations; the mean-absolute-
    /// deviation fallback walks `values()` again, so it sums in the
    /// original order.
    fn fit<I: Iterator<Item = f64>>(values: impl Fn() -> I) -> RobustScorer {
        let mut scratch: Vec<f64> = values().collect();
        if scratch.is_empty() {
            return RobustScorer {
                median: 0.0,
                scale: 0.0,
            };
        }
        let median = median_of(&mut scratch);
        for (d, v) in scratch.iter_mut().zip(values()) {
            *d = (v - median).abs();
        }
        let mad = median_of(&mut scratch);
        let mut scale = 1.4826 * mad;
        if scale <= f64::EPSILON {
            // MAD degenerates to zero when more than half the values are
            // identical — common for balanced runs with a few hot spots.
            // Fall back to the mean absolute deviation about the median
            // (consistency constant 1.2533 for normal data), which stays
            // small in that regime instead of being inflated by the very
            // outliers we are hunting (as σ would be).
            let n = scratch.len() as f64;
            let mean_ad = values().map(|v| (v - median).abs()).sum::<f64>() / n;
            scale = 1.2533 * mean_ad;
        }
        RobustScorer { median, scale }
    }

    /// [`fit`](RobustScorer::fit) to the tick values of `rows()` (in
    /// their order), with the same bits. When the values span fewer
    /// ticks than there are values, both medians come from counts per
    /// tick instead of selection in a copy: below 2^51 every value, the
    /// doubled median and every doubled deviation `|2v − 2·median|` are
    /// exact in `f64`, so counting the integers ranks the floats `fit`
    /// selects among. Other inputs take `fit`.
    fn fit_ticks<'r, R: Iterator<Item = &'r [DurationTicks]>>(
        rows: impl Fn() -> R,
    ) -> RobustScorer {
        let values = || rows().flatten().map(|v| v.0 as f64);
        let (mut n, mut min, mut max) = (0, u64::MAX, 0);
        for row in rows() {
            n += row.len();
            for v in row {
                min = min.min(v.0);
                max = max.max(v.0);
            }
        }
        if n == 0 || max >= 1 << 51 || max - min >= n as u64 {
            return RobustScorer::fit(values);
        }
        let mut counts = vec![0usize; (max - min + 1) as usize];
        for row in rows() {
            for v in row {
                counts[(v.0 - min) as usize] += 1;
            }
        }
        let (lower, upper) = crate::sos::histogram_middles(&counts, n);
        let (lower, upper) = (min + lower, min + upper);
        let deviation = |v: u64| (2 * v).abs_diff(lower + upper);
        let mut by_deviation = vec![0usize; deviation(min).max(deviation(max)) as usize + 1];
        for (v, &count) in (min..).zip(&counts) {
            by_deviation[deviation(v) as usize] += count;
        }
        let (dev_lower, dev_upper) = crate::sos::histogram_middles(&by_deviation, n);
        let median = (lower as f64 + upper as f64) / 2.0;
        let mad = (dev_lower as f64 / 2.0 + dev_upper as f64 / 2.0) / 2.0;
        let mut scale = 1.4826 * mad;
        if scale <= f64::EPSILON {
            // The mean-absolute-deviation fallback, as in `fit`.
            let mean_ad = values().map(|v| (v - median).abs()).sum::<f64>() / n as f64;
            scale = 1.2533 * mean_ad;
        }
        RobustScorer { median, scale }
    }

    fn score(&self, value: f64) -> f64 {
        if self.scale <= f64::EPSILON {
            0.0
        } else {
            (value - self.median) / self.scale
        }
    }
}

/// Median of `values` (the mean of the two middle values for even
/// lengths, 0 for none) by exact selection, which reorders `values`. The
/// result has the bits a full sort would give: the upper middle is the
/// selected element, and the lower middle is the largest value below it.
fn median_of(values: &mut [f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let (lower, &mut upper, _) = values.select_nth_unstable_by(n / 2, f64::total_cmp);
    if n % 2 == 1 {
        upper
    } else {
        let below = lower
            .iter()
            .copied()
            .max_by(f64::total_cmp)
            .unwrap_or(upper);
        (below + upper) / 2.0
    }
}

impl Trend {
    /// Robust linear fit: a least-squares fit, then points whose
    /// residual exceeds 3 × (1.4826·MAD of residuals) are rejected and
    /// the fit repeated. One warm-up iteration absorbing startup skew
    /// (common in real traces — and in the WRF case study, whose first
    /// timestep soaks up init-phase imbalance) would otherwise fake a
    /// strong negative trend.
    pub fn fit_robust(series: &[f64]) -> Trend {
        let first = Trend::fit(series);
        if series.len() < 4 {
            return first;
        }
        let intercept_at = |t: &Trend, x: f64, mean_x: f64, mean_y: f64| -> f64 {
            mean_y + t.slope * (x - mean_x)
        };
        let n = series.len() as f64;
        let mean_x = (n - 1.0) / 2.0;
        let mean_y = series.iter().sum::<f64>() / n;
        let mut residuals: Vec<f64> = series
            .iter()
            .enumerate()
            .map(|(i, &y)| (y - intercept_at(&first, i as f64, mean_x, mean_y)).abs())
            .collect();
        let mad = median_of(&mut residuals);
        let cutoff = 3.0 * 1.4826 * mad;
        if cutoff <= f64::EPSILON {
            return first;
        }
        let kept: Vec<(usize, f64)> = series
            .iter()
            .enumerate()
            .filter(|(i, &y)| (y - intercept_at(&first, *i as f64, mean_x, mean_y)).abs() <= cutoff)
            .map(|(i, &y)| (i, y))
            .collect();
        if kept.len() == series.len() || kept.len() < 3 {
            return first;
        }
        // Refit on the surviving points (original x positions).
        let kn = kept.len() as f64;
        let kmx = kept.iter().map(|(i, _)| *i as f64).sum::<f64>() / kn;
        let kmy = kept.iter().map(|(_, y)| *y).sum::<f64>() / kn;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        for (i, y) in &kept {
            let dx = *i as f64 - kmx;
            sxy += dx * (y - kmy);
            sxx += dx * dx;
        }
        let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
        let first_fitted = kmy - slope * kmx;
        let last_fitted = first_fitted + slope * (n - 1.0);
        let relative_increase = if first_fitted.abs() > f64::EPSILON {
            (last_fitted - first_fitted) / first_fitted
        } else {
            0.0
        };
        Trend {
            slope,
            relative_increase,
        }
    }

    /// Least-squares linear fit of `series` against its index.
    pub fn fit(series: &[f64]) -> Trend {
        let n = series.len();
        if n < 2 {
            return Trend::default();
        }
        let nf = n as f64;
        let mean_x = (nf - 1.0) / 2.0;
        let mean_y = series.iter().sum::<f64>() / nf;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        for (i, &y) in series.iter().enumerate() {
            let dx = i as f64 - mean_x;
            sxy += dx * (y - mean_y);
            sxx += dx * dx;
        }
        let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
        let first = mean_y - slope * mean_x;
        let last = first + slope * (nf - 1.0);
        let relative_increase = if first.abs() > f64::EPSILON {
            (last - first) / first
        } else {
            0.0
        };
        Trend {
            slope,
            relative_increase,
        }
    }
}

/// The sorting medians and the two-sort scorer fit that [`median_of`]
/// and [`RobustScorer::fit`] replaced, kept as oracles for their
/// bit-identity property tests.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{ImbalanceAnalysis, ImbalanceConfig, Outlier, RobustScorer, Trend, WasteAnalysis};
    use crate::sos::SosMatrix;
    use perfvar_trace::{DurationTicks, ProcessId};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Imbalance detection as separate walks per quantity (the form
    /// [`ImbalanceAnalysis::detect_with_waste`] folds into two).
    pub(crate) fn detect(matrix: &SosMatrix, config: ImbalanceConfig) -> ImbalanceAnalysis {
        let scorer = RobustScorer::fit(|| matrix.iter_sos().map(|(_, _, v)| v.0 as f64));
        let mut segment_outliers: Vec<Outlier> = matrix
            .iter_sos()
            .filter_map(|(p, i, v)| {
                let score = scorer.score(v.0 as f64);
                let excess_ok = scorer.median > 0.0
                    && v.0 as f64 >= scorer.median * (1.0 + config.min_relative_excess);
                (score >= config.z_threshold && excess_ok).then_some(Outlier {
                    process: p,
                    ordinal: i,
                    sos: v,
                    score,
                })
            })
            .collect();
        segment_outliers.sort_by(|a, b| b.score.total_cmp(&a.score));
        let totals: Vec<f64> = matrix.process_totals().iter().map(|d| d.0 as f64).collect();
        let pscorer = RobustScorer::fit(|| totals.iter().copied());
        let process_scores: Vec<f64> = totals.iter().map(|&t| pscorer.score(t)).collect();
        let mut process_outliers: Vec<ProcessId> = process_scores
            .iter()
            .enumerate()
            .filter(|(p, &score)| {
                score >= config.z_threshold
                    && pscorer.median > 0.0
                    && totals[*p] >= pscorer.median * (1.0 + config.min_relative_excess)
            })
            .map(|(p, _)| ProcessId::from_index(p))
            .collect();
        process_outliers
            .sort_by(|a, b| process_scores[b.index()].total_cmp(&process_scores[a.index()]));
        ImbalanceAnalysis {
            segment_outliers,
            process_scores,
            process_outliers,
            duration_trend: Trend::fit_robust(&matrix.duration_by_ordinal()),
            config,
        }
    }

    /// Waste by three walks: maxima, per-ordinal sums, total SOS.
    pub(crate) fn waste(matrix: &SosMatrix) -> WasteAnalysis {
        let width = (0..matrix.num_processes())
            .map(|i| matrix.process_sos(ProcessId::from_index(i)).len())
            .max()
            .unwrap_or(0);
        let mut maxima = vec![0u64; width];
        for (_, i, v) in matrix.iter_sos() {
            maxima[i] = maxima[i].max(v.0);
        }
        let mut per_ordinal = vec![0u64; width];
        for (_, i, v) in matrix.iter_sos() {
            per_ordinal[i] += maxima[i] - v.0;
        }
        WasteAnalysis {
            total: DurationTicks(per_ordinal.iter().sum()),
            per_ordinal: per_ordinal.into_iter().map(DurationTicks).collect(),
            total_sos: DurationTicks(matrix.iter_sos().map(|(_, _, v)| v.0).sum()),
        }
    }

    /// Median by a full sort (mean of the two middles for even lengths).
    pub(crate) fn median_of(values: &[f64]) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            0.0
        } else if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

    /// `(median, scale)` of the scorer fit: sorted median, a deviation
    /// vector sorted again for the MAD, the fallback summed over it.
    pub(crate) fn robust_fit(values: &[f64]) -> (f64, f64) {
        if values.is_empty() {
            return (0.0, 0.0);
        }
        let median = median_of(values);
        let deviations: Vec<f64> = values.iter().map(|v| (v - median).abs()).collect();
        let mad = median_of(&deviations);
        let mut scale = 1.4826 * mad;
        if scale <= f64::EPSILON {
            let mean_ad = deviations.iter().sum::<f64>() / deviations.len() as f64;
            scale = 1.2533 * mean_ad;
        }
        (median, scale)
    }

    /// Tick values: small sets with ties and a shared majority (MAD =
    /// 0), wide ranges, more values than the ticks they span, and values
    /// past 2^51.
    pub(crate) fn arb_ticks() -> impl Strategy<Value = Vec<u64>> {
        let item = prop_oneof![2 => Just(None), 1 => (0u64..200).prop_map(Some)];
        let shared = (0u64..100, vec(item, 0..61))
            .prop_map(|(shared, items)| items.into_iter().map(|v| v.unwrap_or(shared)).collect());
        let wide = vec(0u64..1 << 45, 0..300);
        // More values than ticks they span: counted, not copied.
        let dense = (0u64..1 << 50, 1u64..60, 1usize..400).prop_map(|(base, span, n)| {
            (0..n as u64)
                .map(|i| base + (i * 31 + i * i) % span)
                .collect()
        });
        let huge = vec((1u64 << 50)..1 << 60, 1..40);
        prop_oneof![shared, wide, dense, huge]
    }

    /// Up to 60 values, two thirds of them one shared value, so ties,
    /// even and odd lengths, single values, empty sets and a majority of
    /// equal values (MAD = 0, the mean-AD fallback) all come up; the
    /// rest are fractional, so summing them in another order changes
    /// the bits.
    pub(crate) fn arb_values() -> impl Strategy<Value = Vec<f64>> {
        let shared = prop_oneof![Just(0.0f64), 0.0f64..1e3];
        let item = prop_oneof![2 => Just(None), 1 => (0.0f64..1e6).prop_map(Some)];
        let sets = (shared, vec(item, 0..61))
            .prop_map(|(shared, items)| items.into_iter().map(|v| v.unwrap_or(shared)).collect());
        prop_oneof![sets, vec(0.0f64..1e6, 0..61)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invocation::replay_all;
    use crate::segment::Segmentation;
    use perfvar_trace::{Clock, FunctionRole, Timestamp, Trace, TraceBuilder};

    /// Builds a trace with `procs` processes × `iters` balanced segments
    /// of `base` ticks, plus an injected hot segment.
    fn trace_with_hot_segment(
        procs: usize,
        iters: usize,
        base: u64,
        hot: (usize, usize, u64),
    ) -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("iter", FunctionRole::Compute);
        for pi in 0..procs {
            let p = b.define_process("p");
            let w = b.process_mut(p);
            let mut t = 0u64;
            for k in 0..iters {
                let load = if (pi, k) == (hot.0, hot.1) {
                    hot.2
                } else {
                    base
                };
                w.enter(Timestamp(t), f).unwrap();
                t += load;
                w.leave(Timestamp(t), f).unwrap();
            }
            let _ = pi;
        }
        b.finish().unwrap()
    }

    fn matrix_of(trace: &Trace) -> Segmentation {
        let f = trace.registry().function_by_name("iter").unwrap();
        Segmentation::new(trace, &replay_all(trace), f)
    }

    #[test]
    fn single_hot_segment_flagged() {
        let trace = trace_with_hot_segment(6, 10, 100, (3, 7, 500));
        let m = matrix_of(&trace);
        let a = ImbalanceAnalysis::detect(
            &SosMatrix::from_segmentation(&m),
            ImbalanceConfig::default(),
        );
        assert_eq!(a.segment_outliers.len(), 1);
        let o = a.hottest_segment().unwrap();
        assert_eq!(o.process, ProcessId(3));
        assert_eq!(o.ordinal, 7);
        assert_eq!(o.sos, DurationTicks(500));
        assert!(o.score > 3.5);
        // Process 3 carries the extra load overall too.
        assert_eq!(a.hottest_process(), Some(ProcessId(3)));
    }

    #[test]
    fn balanced_matrix_has_no_findings() {
        let trace = trace_with_hot_segment(4, 8, 100, (0, 0, 100));
        let m = matrix_of(&trace);
        let a = ImbalanceAnalysis::detect(
            &SosMatrix::from_segmentation(&m),
            ImbalanceConfig::default(),
        );
        assert!(!a.has_findings());
        assert!(a.segment_outliers.is_empty());
        assert!(a.process_outliers.is_empty());
    }

    #[test]
    fn small_noise_not_flagged() {
        // All identical except one value 5 % higher: below the relative
        // excess gate even though MAD-based z would explode (scale ≈ 0).
        let trace = trace_with_hot_segment(4, 10, 1000, (1, 2, 1050));
        let m = matrix_of(&trace);
        let a = ImbalanceAnalysis::detect(
            &SosMatrix::from_segmentation(&m),
            ImbalanceConfig::default(),
        );
        assert!(a.segment_outliers.is_empty());
    }

    #[test]
    fn overloaded_process_flagged() {
        // Process 2 runs every segment 3× longer.
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("iter", FunctionRole::Compute);
        for pi in 0..8 {
            let p = b.define_process("p");
            let w = b.process_mut(p);
            let mut t = 0u64;
            for _ in 0..6 {
                let load = if pi == 2 { 300 } else { 100 };
                w.enter(Timestamp(t), f).unwrap();
                t += load;
                w.leave(Timestamp(t), f).unwrap();
            }
        }
        let trace = b.finish().unwrap();
        let m = matrix_of(&trace);
        let a = ImbalanceAnalysis::detect(
            &SosMatrix::from_segmentation(&m),
            ImbalanceConfig::default(),
        );
        assert_eq!(a.process_outliers, vec![ProcessId(2)]);
        assert_eq!(a.hottest_process(), Some(ProcessId(2)));
    }

    #[test]
    fn trend_detects_gradual_slowdown() {
        let series: Vec<f64> = (0..20).map(|i| 100.0 + 10.0 * i as f64).collect();
        let t = Trend::fit(&series);
        assert!((t.slope - 10.0).abs() < 1e-9);
        assert!((t.relative_increase - 1.9).abs() < 1e-9);
        let flat = Trend::fit(&[5.0, 5.0, 5.0]);
        assert_eq!(flat.slope, 0.0);
        assert_eq!(flat.relative_increase, 0.0);
    }

    #[test]
    fn robust_trend_ignores_a_warmup_spike() {
        // Flat series with a huge first value (init-skew absorption):
        // the plain fit reports a steep decline, the robust fit is flat.
        let mut series = vec![100.0f64; 20];
        series[0] = 5_000.0;
        let plain = Trend::fit(&series);
        assert!(plain.relative_increase < -0.5);
        let robust = Trend::fit_robust(&series);
        assert!(
            robust.relative_increase.abs() < 0.05,
            "robust trend {robust:?}"
        );
    }

    #[test]
    fn robust_trend_keeps_a_genuine_slope() {
        let series: Vec<f64> = (0..30).map(|i| 100.0 + 10.0 * i as f64).collect();
        let robust = Trend::fit_robust(&series);
        assert!((robust.slope - 10.0).abs() < 1e-6, "{robust:?}");
        assert!((robust.relative_increase - 2.9).abs() < 1e-6);
    }

    #[test]
    fn trend_edge_cases() {
        assert_eq!(Trend::fit(&[]), Trend::default());
        assert_eq!(Trend::fit(&[1.0]), Trend::default());
    }

    #[test]
    fn empty_matrix_yields_empty_analysis() {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let _f = b.define_function("iter", FunctionRole::Compute);
        b.define_process("p0");
        let trace = b.finish().unwrap();
        let m = matrix_of(&trace);
        let a = ImbalanceAnalysis::detect(
            &SosMatrix::from_segmentation(&m),
            ImbalanceConfig::default(),
        );
        assert!(!a.has_findings());
        assert_eq!(a.hottest_process(), Some(ProcessId(0)));
        assert!(a.hottest_segment().is_none());
    }

    #[test]
    fn waste_of_fig3_example() {
        // Fig. 3 loads: iteration 0 has SOS 5/3/1 → waste (5-5)+(5-3)+(5-1)=6.
        // Iterations 1 and 2 are balanced (2/2/2) → waste 0.
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("iter", FunctionRole::Compute);
        for loads in [[5u64, 2, 2], [3, 2, 2], [1, 2, 2]] {
            let p = b.define_process("p");
            let w = b.process_mut(p);
            let mut t = 0u64;
            for load in loads {
                w.enter(Timestamp(t), f).unwrap();
                t += load;
                w.leave(Timestamp(t), f).unwrap();
            }
        }
        let trace = b.finish().unwrap();
        let m = matrix_of(&trace);
        let waste = WasteAnalysis::compute(&SosMatrix::from_segmentation(&m));
        assert_eq!(
            waste.per_ordinal,
            vec![DurationTicks(6), DurationTicks(0), DurationTicks(0)]
        );
        assert_eq!(waste.total, DurationTicks(6));
        assert_eq!(waste.total_sos, DurationTicks(21));
        assert_eq!(waste.worst_ordinal(), Some(0));
        assert!((waste.waste_fraction() - 6.0 / 27.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_run_has_zero_waste() {
        let trace = trace_with_hot_segment(4, 6, 100, (0, 0, 100));
        let waste = WasteAnalysis::compute(&SosMatrix::from_segmentation(&matrix_of(&trace)));
        assert_eq!(waste.total, DurationTicks::ZERO);
        assert_eq!(waste.waste_fraction(), 0.0);
    }

    #[test]
    fn hot_segment_concentrates_waste_in_its_ordinal() {
        let trace = trace_with_hot_segment(5, 8, 100, (2, 3, 600));
        let waste = WasteAnalysis::compute(&SosMatrix::from_segmentation(&matrix_of(&trace)));
        assert_eq!(waste.worst_ordinal(), Some(3));
        // Waste of ordinal 3: four processes wait 500 each.
        assert_eq!(waste.per_ordinal[3], DurationTicks(4 * 500));
    }

    #[test]
    fn empty_waste() {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let _f = b.define_function("iter", FunctionRole::Compute);
        b.define_process("p0");
        let trace = b.finish().unwrap();
        let waste = WasteAnalysis::compute(&SosMatrix::from_segmentation(&matrix_of(&trace)));
        assert!(waste.per_ordinal.is_empty());
        assert_eq!(waste.worst_ordinal(), None);
        assert_eq!(waste.waste_fraction(), 0.0);
    }

    #[test]
    fn outliers_sorted_by_score() {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("iter", FunctionRole::Compute);
        for pi in 0..5 {
            let p = b.define_process("p");
            let w = b.process_mut(p);
            let mut t = 0u64;
            for k in 0..10 {
                let load = match (pi, k) {
                    (1, 3) => 900,
                    (4, 8) => 500,
                    _ => 100,
                };
                w.enter(Timestamp(t), f).unwrap();
                t += load;
                w.leave(Timestamp(t), f).unwrap();
            }
        }
        let trace = b.finish().unwrap();
        let m = matrix_of(&trace);
        let a = ImbalanceAnalysis::detect(
            &SosMatrix::from_segmentation(&m),
            ImbalanceConfig::default(),
        );
        assert_eq!(a.segment_outliers.len(), 2);
        assert_eq!(a.segment_outliers[0].process, ProcessId(1));
        assert_eq!(a.segment_outliers[1].process, ProcessId(4));
        assert!(a.segment_outliers[0].score > a.segment_outliers[1].score);
    }

    mod properties {
        use super::*;
        use crate::imbalance::oracle::{self, arb_values};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn selection_median_matches_the_sorting_oracle(values in arb_values()) {
                let mut scratch = values.clone();
                prop_assert_eq!(
                    median_of(&mut scratch).to_bits(),
                    oracle::median_of(&values).to_bits()
                );
            }

            /// The two-walk detection equals one walk per quantity, bit
            /// for bit (floats by their `Debug` text), on ragged tables
            /// with clamped segments, hot spots and empty rows.
            #[test]
            fn two_walks_match_the_separate_walks(
                rows in proptest::collection::vec(
                    proptest::collection::vec((0u64..4, 1u64..60, 0u64..70), 0..14),
                    0..7,
                ),
                z in prop_oneof![Just(3.5f64), 0.5f64..4.0],
            ) {
                let triples: Vec<Vec<(u64, u64, u64)>> = rows
                    .iter()
                    .map(|row| {
                        let mut t = 0;
                        row.iter()
                            .map(|&(hot, len, sync)| {
                                let len = if hot == 0 { len * 20 } else { len };
                                let enter = t;
                                t += len;
                                (enter, t, sync)
                            })
                            .collect()
                    })
                    .collect();
                let seg = crate::segment::oracle::Segmentation::from_triples(
                    perfvar_trace::FunctionId(0),
                    &triples,
                )
                .to_table();
                let config = ImbalanceConfig { z_threshold: z, ..ImbalanceConfig::default() };
                for m in [SosMatrix::from_segmentation(&seg), SosMatrix::from_segmentation(&seg).durations_as_sos()] {
                    let (imbalance, waste) = ImbalanceAnalysis::detect_with_waste(&m, config);
                    prop_assert_eq!(format!("{imbalance:?}"), format!("{:?}", oracle::detect(&m, config)));
                    prop_assert_eq!(waste, oracle::waste(&m));
                }
            }

            /// The scorer fitted by counts per tick has the bits of the
            /// one fitted on the values as floats (which wide inputs and
            /// values past 2^51 take directly).
            #[test]
            fn counting_fit_matches_the_float_fit(values in oracle::arb_ticks()) {
                let ticks: Vec<DurationTicks> = values.iter().map(|&v| DurationTicks(v)).collect();
                // The values as ragged rows, some of them empty.
                let fit = RobustScorer::fit_ticks(|| ticks.chunks(7).chain([&[][..]]));
                let copy = RobustScorer::fit(|| values.iter().map(|&v| v as f64));
                prop_assert_eq!(
                    (fit.median.to_bits(), fit.scale.to_bits()),
                    (copy.median.to_bits(), copy.scale.to_bits())
                );
            }

            #[test]
            fn selection_fit_matches_the_two_sort_oracle(values in arb_values()) {
                let fit = RobustScorer::fit(|| values.iter().copied());
                let (median, scale) = oracle::robust_fit(&values);
                prop_assert_eq!(
                    (fit.median.to_bits(), fit.scale.to_bits()),
                    (median.to_bits(), scale.to_bits())
                );
            }
        }
    }
}
