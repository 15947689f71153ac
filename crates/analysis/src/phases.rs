//! Phase detection: behavioural regimes over segment ordinals.
//!
//! The paper stresses that timestamped traces "can also efficiently
//! highlight behavior that changes over time". The trend fit
//! ([`Trend`](crate::imbalance::Trend)) captures *gradual* change; this
//! module detects *regime switches* — e.g. "iterations 0–39 averaged
//! 10 ms, iterations 40–79 averaged 25 ms" — via binary-segmentation
//! change-point detection on the per-ordinal mean duration (or SOS)
//! series, with an SSE-gain acceptance test.

use crate::sos::SosMatrix;
use serde::{Deserialize, Serialize};

/// Phase-detection parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PhaseConfig {
    /// Minimum number of segments per phase.
    pub min_length: usize,
    /// A split must reduce the sum of squared errors by at least this
    /// fraction of the parent interval's SSE.
    pub min_gain: f64,
    /// The means of adjacent phases must differ by at least this
    /// fraction of the overall mean (filters statistically significant
    /// but practically irrelevant splits).
    pub min_shift: f64,
}

impl Default for PhaseConfig {
    fn default() -> PhaseConfig {
        PhaseConfig {
            min_length: 3,
            min_gain: 0.3,
            min_shift: 0.15,
        }
    }
}

/// One detected phase: the half-open ordinal range `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// First ordinal of the phase.
    pub start: usize,
    /// One past the last ordinal.
    pub end: usize,
    /// Mean series value within the phase.
    pub mean: f64,
}

impl Phase {
    /// Number of ordinals covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the phase covers no ordinals.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The detected phase structure of a series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseDetection {
    /// Phases in ordinal order; contiguous and covering the full series.
    pub phases: Vec<Phase>,
}

impl PhaseDetection {
    /// Detects phases in `series` with `config`.
    pub fn detect(series: &[f64], config: PhaseConfig) -> PhaseDetection {
        let n = series.len();
        if n == 0 {
            return PhaseDetection { phases: Vec::new() };
        }
        // Prefix sums for O(1) interval SSE.
        let mut sum = vec![0.0f64; n + 1];
        let mut sumsq = vec![0.0f64; n + 1];
        for (i, &v) in series.iter().enumerate() {
            sum[i + 1] = sum[i] + v;
            sumsq[i + 1] = sumsq[i] + v * v;
        }
        let mean_of = |a: usize, b: usize| -> f64 { (sum[b] - sum[a]) / (b - a) as f64 };
        let sse_of = |a: usize, b: usize| -> f64 {
            let s = sum[b] - sum[a];
            let q = sumsq[b] - sumsq[a];
            (q - s * s / (b - a) as f64).max(0.0)
        };
        let overall_mean = mean_of(0, n).abs().max(f64::EPSILON);

        // Binary segmentation.
        let mut boundaries = vec![0usize, n];
        let mut work = vec![(0usize, n)];
        while let Some((a, b)) = work.pop() {
            if b - a < 2 * config.min_length {
                continue;
            }
            let parent_sse = sse_of(a, b);
            if parent_sse <= f64::EPSILON {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for split in (a + config.min_length)..=(b - config.min_length) {
                let child_sse = sse_of(a, split) + sse_of(split, b);
                let gain = parent_sse - child_sse;
                if best.is_none() || gain > best.unwrap().1 {
                    best = Some((split, gain));
                }
            }
            let Some((split, gain)) = best else { continue };
            let shift = (mean_of(a, split) - mean_of(split, b)).abs();
            if gain >= config.min_gain * parent_sse && shift >= config.min_shift * overall_mean {
                boundaries.push(split);
                work.push((a, split));
                work.push((split, b));
            }
        }
        boundaries.sort_unstable();
        boundaries.dedup();
        let phases = boundaries
            .windows(2)
            .map(|w| Phase {
                start: w[0],
                end: w[1],
                mean: mean_of(w[0], w[1]),
            })
            .collect();
        PhaseDetection { phases }
    }

    /// Detects phases in the per-ordinal mean *duration* series of a
    /// matrix (the natural "did the run change regime?" question).
    pub fn detect_durations(matrix: &SosMatrix, config: PhaseConfig) -> PhaseDetection {
        PhaseDetection::detect(&matrix.duration_by_ordinal(), config)
    }

    /// Number of phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Whether the series was empty.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Boundaries between phases (first ordinal of each phase after the
    /// initial one).
    pub fn boundaries(&self) -> Vec<usize> {
        self.phases.iter().skip(1).map(|p| p.start).collect()
    }

    /// The phase containing `ordinal`, if in range.
    pub fn phase_of(&self, ordinal: usize) -> Option<&Phase> {
        self.phases
            .iter()
            .find(|p| p.start <= ordinal && ordinal < p.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_series(levels: &[(usize, f64)]) -> Vec<f64> {
        levels
            .iter()
            .flat_map(|&(n, v)| std::iter::repeat_n(v, n))
            .collect()
    }

    #[test]
    fn flat_series_is_one_phase() {
        let d = PhaseDetection::detect(&step_series(&[(30, 100.0)]), PhaseConfig::default());
        assert_eq!(d.len(), 1);
        assert_eq!(
            d.phases[0],
            Phase {
                start: 0,
                end: 30,
                mean: 100.0
            }
        );
        assert!(d.boundaries().is_empty());
    }

    #[test]
    fn single_step_found_exactly() {
        let series = step_series(&[(20, 100.0), (20, 300.0)]);
        let d = PhaseDetection::detect(&series, PhaseConfig::default());
        assert_eq!(d.len(), 2, "{:?}", d.phases);
        assert_eq!(d.boundaries(), vec![20]);
        assert!((d.phases[0].mean - 100.0).abs() < 1e-9);
        assert!((d.phases[1].mean - 300.0).abs() < 1e-9);
    }

    #[test]
    fn three_regimes_found() {
        let series = step_series(&[(15, 100.0), (15, 400.0), (15, 150.0)]);
        let d = PhaseDetection::detect(&series, PhaseConfig::default());
        assert_eq!(d.len(), 3, "{:?}", d.phases);
        assert_eq!(d.boundaries(), vec![15, 30]);
    }

    #[test]
    fn noise_alone_does_not_split() {
        // ±3 % noise around a constant: no phase boundary.
        let series: Vec<f64> = (0..40)
            .map(|i| 1000.0 + if i % 2 == 0 { 30.0 } else { -30.0 })
            .collect();
        let d = PhaseDetection::detect(&series, PhaseConfig::default());
        assert_eq!(d.len(), 1, "{:?}", d.phases);
    }

    #[test]
    fn small_shift_filtered_by_min_shift() {
        // A clean but tiny (5 %) step: statistically sharp, practically
        // irrelevant at the default 15 % shift threshold.
        let series = step_series(&[(20, 1000.0), (20, 1050.0)]);
        let d = PhaseDetection::detect(&series, PhaseConfig::default());
        assert_eq!(d.len(), 1);
        // Lowering the threshold finds it.
        let sensitive = PhaseDetection::detect(
            &series,
            PhaseConfig {
                min_shift: 0.01,
                ..PhaseConfig::default()
            },
        );
        assert_eq!(sensitive.len(), 2);
    }

    #[test]
    fn min_length_respected() {
        // A 2-ordinal blip cannot become its own phase at min_length 3.
        let series = step_series(&[(20, 100.0), (2, 500.0), (20, 100.0)]);
        let d = PhaseDetection::detect(&series, PhaseConfig::default());
        for p in &d.phases {
            assert!(p.len() >= 3, "{:?}", d.phases);
        }
    }

    #[test]
    fn phases_partition_the_series() {
        let series = step_series(&[(10, 1.0), (10, 9.0), (10, 4.0), (10, 20.0)]);
        let d = PhaseDetection::detect(&series, PhaseConfig::default());
        assert_eq!(d.phases.first().unwrap().start, 0);
        assert_eq!(d.phases.last().unwrap().end, series.len());
        for w in d.phases.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert!(d.phase_of(0).is_some());
        assert!(d.phase_of(series.len()).is_none());
    }

    #[test]
    fn empty_series() {
        let d = PhaseDetection::detect(&[], PhaseConfig::default());
        assert!(d.is_empty());
        assert_eq!(d.phase_of(0), None);
    }

    #[test]
    fn detect_on_matrix_durations() {
        use crate::invocation::replay_all;
        use crate::segment::Segmentation;
        use perfvar_trace::{Clock, FunctionRole, Timestamp, TraceBuilder};
        // Two processes, 12 iterations: the last 6 take 3× longer.
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("iter", FunctionRole::Compute);
        for _ in 0..2 {
            let p = b.define_process("p");
            let w = b.process_mut(p);
            let mut t = 0u64;
            for k in 0..12 {
                let load = if k < 6 { 100 } else { 300 };
                w.enter(Timestamp(t), f).unwrap();
                t += load;
                w.leave(Timestamp(t), f).unwrap();
            }
        }
        let trace = b.finish().unwrap();
        let seg = Segmentation::new(&trace, &replay_all(&trace), f);
        let d = PhaseDetection::detect_durations(
            &SosMatrix::from_segmentation(&seg),
            PhaseConfig::default(),
        );
        assert_eq!(d.boundaries(), vec![6]);
    }
}
