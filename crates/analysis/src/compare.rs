//! Run-to-run comparison of SOS-time analyses.
//!
//! The paper's workflow ends with a fix ("introduce dynamic load
//! balancing for the SPECS model"); this module closes the loop by
//! comparing the analysis of two runs — before and after — the way the
//! authors' earlier alignment-based trace comparison (Weber et al.,
//! Euro-Par 2013, cited as related work) compares whole traces, but on
//! the SOS abstraction: per-process computational load, per-function
//! profile deltas, and a global imbalance index.
//!
//! The **imbalance index** is the classic load-imbalance percentage
//! `(max − mean) / max` over per-process total SOS-times: 0 for a
//! perfectly balanced run, → 1 when one process does all the work.
//!
//! For regression hunting the comparison carries a **noise-aware
//! verdict**: the change statistic is the *robust makespan* — the
//! maximum over processes of (median segment SOS × segment count) —
//! rather than the raw total, so a single outlier segment (an OS
//! interruption, one slow iteration) cannot flip the verdict, while a
//! persistent shift moves every segment and therefore the median. The
//! verdict classifies the relative change against a threshold; see
//! [`RunComparison::verdict`] and [`bisect_first_regression`] for the
//! O(log n) driver over an ordered run sequence.

use crate::profile::ProfileTable;
use crate::report::Analysis;
use crate::sos::SosMatrix;
use perfvar_trace::{FunctionId, ProcessId};
use serde::{Deserialize, Serialize};

/// Default relative-change threshold separating signal from noise:
/// changes within ±5 % of the baseline robust makespan are classified
/// as [`VerdictClass::Noise`].
pub const DEFAULT_NOISE_THRESHOLD: f64 = 0.05;

/// Summary of one run, as used by the comparison.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Number of processes.
    pub processes: usize,
    /// Total SOS-time across all segments (overall computational load).
    pub total_sos: u64,
    /// Mean per-process total SOS.
    pub mean_process_sos: f64,
    /// Maximum per-process total SOS.
    pub max_process_sos: u64,
    /// `(max − mean) / max`, 0 = balanced.
    pub imbalance_index: f64,
    /// Max over processes of median segment SOS × segment count — the
    /// outlier-robust load of the slowest process, used by the verdict.
    #[serde(default)]
    pub robust_makespan: f64,
}

impl RunSummary {
    /// Summarises an SOS matrix.
    pub fn from_matrix(matrix: &SosMatrix) -> RunSummary {
        let totals = matrix.process_totals();
        let processes = totals.len();
        let total_sos: u64 = totals.iter().map(|d| d.0).sum();
        let max_process_sos = totals.iter().map(|d| d.0).max().unwrap_or(0);
        let mean_process_sos = if processes > 0 {
            total_sos as f64 / processes as f64
        } else {
            0.0
        };
        let imbalance_index = if max_process_sos > 0 {
            (max_process_sos as f64 - mean_process_sos) / max_process_sos as f64
        } else {
            0.0
        };
        let robust_makespan = (0..processes)
            .map(|i| {
                let row = matrix.process_sos(ProcessId::from_index(i));
                median_ticks(row.iter().map(|d| d.0)) * row.len() as f64
            })
            .fold(0.0_f64, f64::max);
        RunSummary {
            processes,
            total_sos,
            mean_process_sos,
            max_process_sos,
            imbalance_index,
            robust_makespan,
        }
    }
}

/// Median of a sequence of tick values (mean of the two middle samples
/// for even lengths; 0 for an empty sequence), by selection: the upper
/// middle is the selected value and the lower middle the largest below it.
fn median_ticks(values: impl Iterator<Item = u64>) -> f64 {
    let mut v: Vec<u64> = values.collect();
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    let (lower, &mut upper, _) = v.select_nth_unstable(n / 2);
    if n % 2 == 1 {
        upper as f64
    } else {
        let below = lower.iter().copied().max().unwrap_or(upper);
        (below as f64 + upper as f64) / 2.0
    }
}

/// Per-process load change between two runs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProcessDelta {
    /// The process (present in both runs).
    pub process: ProcessId,
    /// Total SOS in the baseline run.
    pub before: u64,
    /// Total SOS in the candidate run.
    pub after: u64,
}

impl ProcessDelta {
    /// Relative change `(after − before) / before`; ∞-safe (0 baseline →
    /// returns `after as f64`).
    pub fn relative_change(&self) -> f64 {
        if self.before == 0 {
            self.after as f64
        } else {
            (self.after as f64 - self.before as f64) / self.before as f64
        }
    }
}

/// One function's contribution to a run, as compared across runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FunctionLoad {
    /// Invocation count across all processes.
    pub count: u64,
    /// Inclusive time (ticks).
    pub inclusive: u64,
    /// Exclusive time (ticks).
    pub exclusive: u64,
}

/// Per-function profile change between two runs, matched by *name* so
/// the runs may register functions in different orders. A function
/// absent from one run has an all-zero [`FunctionLoad`] on that side.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FunctionDelta {
    /// Function name (the match key across the two runs).
    pub name: String,
    /// Profile in the baseline run.
    pub before: FunctionLoad,
    /// Profile in the candidate run.
    pub after: FunctionLoad,
}

impl FunctionDelta {
    /// Relative change of exclusive time; ∞-safe (0 baseline → returns
    /// `after.exclusive as f64`).
    pub fn relative_change(&self) -> f64 {
        if self.before.exclusive == 0 {
            self.after.exclusive as f64
        } else {
            (self.after.exclusive as f64 - self.before.exclusive as f64)
                / self.before.exclusive as f64
        }
    }
}

/// How a candidate run relates to its baseline, given a noise threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum VerdictClass {
    /// Robust makespan grew by more than the threshold.
    Regression,
    /// Robust makespan shrank by more than the threshold.
    Improvement,
    /// Within the noise band.
    Noise,
}

impl std::fmt::Display for VerdictClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VerdictClass::Regression => "regression",
            VerdictClass::Improvement => "improvement",
            VerdictClass::Noise => "noise",
        })
    }
}

/// The noise-aware classification of a comparison.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// The classification.
    pub class: VerdictClass,
    /// Relative change of the robust makespan, `(after − before) / before`.
    pub relative_change: f64,
    /// The threshold the change was classified against.
    pub threshold: f64,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({:+.1}% robust makespan, threshold ±{:.0}%)",
            self.class,
            self.relative_change * 100.0,
            self.threshold * 100.0
        )
    }
}

/// The comparison of two analysed runs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunComparison {
    /// Baseline run summary.
    pub before: RunSummary,
    /// Candidate run summary.
    pub after: RunSummary,
    /// Per-process deltas over the processes present in both runs.
    pub deltas: Vec<ProcessDelta>,
    /// Processes present only in the baseline run (the candidate shrank).
    #[serde(default)]
    pub unmatched_before: Vec<ProcessId>,
    /// Processes present only in the candidate run (the candidate grew).
    #[serde(default)]
    pub unmatched_after: Vec<ProcessId>,
    /// Per-function deltas, sorted by name. Empty when the comparison
    /// was built from bare SOS matrices (no profile available).
    #[serde(default)]
    pub functions: Vec<FunctionDelta>,
}

impl RunComparison {
    /// Compares two SOS matrices (typically the same workload before and
    /// after a fix). Process counts may differ; deltas cover the common
    /// prefix and the surplus ranks of the longer run are recorded in
    /// [`RunComparison::unmatched_before`] / `unmatched_after` rather
    /// than silently dropped.
    pub fn compare(before: &SosMatrix, after: &SosMatrix) -> RunComparison {
        let before_totals = before.process_totals();
        let after_totals = after.process_totals();
        let common = before_totals.len().min(after_totals.len());
        let deltas = (0..common)
            .map(|i| ProcessDelta {
                process: ProcessId::from_index(i),
                before: before_totals[i].0,
                after: after_totals[i].0,
            })
            .collect();
        let unmatched_before = (common..before_totals.len())
            .map(ProcessId::from_index)
            .collect();
        let unmatched_after = (common..after_totals.len())
            .map(ProcessId::from_index)
            .collect();
        RunComparison {
            before: RunSummary::from_matrix(before),
            after: RunSummary::from_matrix(after),
            deltas,
            unmatched_before,
            unmatched_after,
            functions: Vec::new(),
        }
    }

    /// Compares two full analyses: the SOS comparison of [`RunComparison::compare`]
    /// plus per-function profile deltas. `before_functions` /
    /// `after_functions` name the function ids of the respective runs
    /// (index = id); missing names fall back to `fn#<id>`.
    pub fn compare_analyses(
        before: &Analysis,
        before_functions: &[String],
        after: &Analysis,
        after_functions: &[String],
    ) -> RunComparison {
        let mut cmp = RunComparison::compare(&before.sos(), &after.sos());
        cmp.functions = function_deltas(
            &before.profiles,
            before_functions,
            &after.profiles,
            after_functions,
        );
        cmp
    }

    /// Change in the imbalance index (negative = the candidate run is
    /// better balanced).
    pub fn imbalance_change(&self) -> f64 {
        self.after.imbalance_index - self.before.imbalance_index
    }

    /// Classifies the candidate against the baseline: relative change of
    /// the robust makespan beyond `threshold` is a regression (or an
    /// improvement when negative), anything within the band is noise.
    pub fn verdict(&self, threshold: f64) -> Verdict {
        let before = self.before.robust_makespan;
        let after = self.after.robust_makespan;
        let relative_change = (after - before) / before.max(1.0);
        let class = if relative_change > threshold {
            VerdictClass::Regression
        } else if relative_change < -threshold {
            VerdictClass::Improvement
        } else {
            VerdictClass::Noise
        };
        Verdict {
            class,
            relative_change,
            threshold,
        }
    }

    /// The processes whose load changed the most, by absolute relative
    /// change, descending.
    pub fn largest_changes(&self, n: usize) -> Vec<ProcessDelta> {
        let mut sorted = self.deltas.clone();
        sorted.sort_by(|a, b| {
            b.relative_change()
                .abs()
                .total_cmp(&a.relative_change().abs())
        });
        sorted.truncate(n);
        sorted
    }

    /// The functions whose exclusive time changed the most, by absolute
    /// relative change descending (name ascending on ties).
    pub fn largest_function_changes(&self, n: usize) -> Vec<FunctionDelta> {
        let mut sorted = self.functions.clone();
        sorted.sort_by(|a, b| {
            b.relative_change()
                .abs()
                .total_cmp(&a.relative_change().abs())
                .then_with(|| a.name.cmp(&b.name))
        });
        sorted.truncate(n);
        sorted
    }

    /// Human-readable comparison report.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run comparison ({} vs {} processes)",
            self.before.processes, self.after.processes
        );
        let _ = writeln!(
            out,
            "  imbalance index: {:.3} → {:.3} ({:+.3})",
            self.before.imbalance_index,
            self.after.imbalance_index,
            self.imbalance_change()
        );
        let _ = writeln!(
            out,
            "  max/mean process load: {:.2}× → {:.2}×",
            self.before.max_process_sos as f64 / self.before.mean_process_sos.max(1.0),
            self.after.max_process_sos as f64 / self.after.mean_process_sos.max(1.0),
        );
        if !self.unmatched_before.is_empty() || !self.unmatched_after.is_empty() {
            let fmt = |ranks: &[ProcessId]| {
                ranks
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let _ = writeln!(
                out,
                "  unmatched ranks: baseline-only [{}], candidate-only [{}]",
                fmt(&self.unmatched_before),
                fmt(&self.unmatched_after)
            );
        }
        let _ = writeln!(out, "  largest per-process changes:");
        for d in self.largest_changes(5) {
            let _ = writeln!(
                out,
                "    {}: {} → {} ({:+.0}%)",
                d.process,
                d.before,
                d.after,
                d.relative_change() * 100.0
            );
        }
        if !self.functions.is_empty() {
            let _ = writeln!(out, "  largest per-function changes (exclusive):");
            for d in self.largest_function_changes(5) {
                let _ = writeln!(
                    out,
                    "    {}: {} → {} ({:+.0}%)",
                    d.name,
                    d.before.exclusive,
                    d.after.exclusive,
                    d.relative_change() * 100.0
                );
            }
        }
        out
    }
}

/// Matches two profile tables by function *name* and returns one delta
/// per name that appears in either run, sorted by name. Ids missing a
/// name fall back to `fn#<id>` so mismatched registries still compare.
pub fn function_deltas(
    before: &ProfileTable,
    before_functions: &[String],
    after: &ProfileTable,
    after_functions: &[String],
) -> Vec<FunctionDelta> {
    fn name_of(names: &[String], id: FunctionId) -> String {
        names
            .get(id.index())
            .cloned()
            .unwrap_or_else(|| format!("fn#{}", id.index()))
    }
    fn load_of(
        table: &ProfileTable,
        names: &[String],
    ) -> std::collections::BTreeMap<String, FunctionLoad> {
        table
            .iter()
            .map(|(id, p)| {
                (
                    name_of(names, id),
                    FunctionLoad {
                        count: p.count,
                        inclusive: p.inclusive.0,
                        exclusive: p.exclusive.0,
                    },
                )
            })
            .collect()
    }
    let before_loads = load_of(before, before_functions);
    let mut after_loads = load_of(after, after_functions);
    let mut deltas: Vec<FunctionDelta> = before_loads
        .into_iter()
        .map(|(name, b)| {
            let a = after_loads.remove(&name).unwrap_or_default();
            FunctionDelta {
                name,
                before: b,
                after: a,
            }
        })
        .collect();
    deltas.extend(after_loads.into_iter().map(|(name, a)| FunctionDelta {
        name,
        before: FunctionLoad::default(),
        after: a,
    }));
    deltas.sort_by(|a, b| a.name.cmp(&b.name));
    deltas
}

/// Outcome of a [`bisect_first_regression`] walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BisectOutcome {
    /// Index of the first regressing run (1-based into the sequence,
    /// index 0 being the known-good baseline); `None` when the last run
    /// does not regress against the baseline.
    pub first_bad: Option<usize>,
    /// Number of base-vs-candidate comparisons performed — at most
    /// `1 + ceil(log2(n − 1))` for `n` runs.
    pub comparisons: usize,
}

/// Binary-searches an ordered sequence of `runs` runs (index 0 = known
/// good baseline) for the first run that regresses against the
/// baseline, assuming the regression persists once introduced.
/// `is_regressed(i)` must report whether run `i` regresses vs run 0;
/// it is called O(log n) times. Errors from the probe abort the walk.
pub fn bisect_first_regression<E>(
    runs: usize,
    mut is_regressed: impl FnMut(usize) -> Result<bool, E>,
) -> Result<BisectOutcome, E> {
    if runs < 2 {
        return Ok(BisectOutcome {
            first_bad: None,
            comparisons: 0,
        });
    }
    let mut comparisons = 1;
    if !is_regressed(runs - 1)? {
        return Ok(BisectOutcome {
            first_bad: None,
            comparisons,
        });
    }
    // Invariant: runs before `lo` are good, `hi` is known bad.
    let (mut lo, mut hi) = (1, runs - 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        comparisons += 1;
        if is_regressed(mid)? {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(BisectOutcome {
        first_bad: Some(lo),
        comparisons,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invocation::replay_all;
    use crate::segment::Segmentation;
    use perfvar_trace::{Clock, FunctionRole, Timestamp, Trace, TraceBuilder};

    fn matrix_with_loads(groups: &[Vec<u64>]) -> Segmentation {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("iter", FunctionRole::Compute);
        for loads in groups {
            let p = b.define_process("p");
            let w = b.process_mut(p);
            let mut t = 0u64;
            for &load in loads {
                w.enter(Timestamp(t), f).unwrap();
                t += load;
                w.leave(Timestamp(t), f).unwrap();
            }
        }
        let trace: Trace = b.finish().unwrap();
        Segmentation::new(&trace, &replay_all(&trace), f)
    }

    #[test]
    fn summary_of_balanced_run() {
        let m = matrix_with_loads(&vec![vec![100u64; 4]; 3]);
        let s = RunSummary::from_matrix(&SosMatrix::from_segmentation(&m));
        assert_eq!(s.processes, 3);
        assert_eq!(s.total_sos, 1200);
        assert_eq!(s.max_process_sos, 400);
        assert!(s.imbalance_index.abs() < 1e-12);
        assert!((s.robust_makespan - 400.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_index_of_skewed_run() {
        // One process does 3× the work: max 300, mean 150 → index 0.5.
        let m = matrix_with_loads(&[vec![100u64], vec![100], vec![100], vec![300]]);
        let s = RunSummary::from_matrix(&SosMatrix::from_segmentation(&m));
        assert_eq!(s.max_process_sos, 300);
        assert!((s.imbalance_index - 0.5).abs() < 1e-12);
    }

    #[test]
    fn robust_makespan_ignores_single_outlier_segment() {
        // One 10× segment among ten: total jumps, median does not.
        let mut loads = vec![100u64; 10];
        loads[4] = 1000;
        let spiky = matrix_with_loads(&[loads]);
        let flat = matrix_with_loads(&[vec![100u64; 10]]);
        let cmp = RunComparison::compare(
            &SosMatrix::from_segmentation(&flat),
            &SosMatrix::from_segmentation(&spiky),
        );
        assert_eq!(cmp.after.total_sos, 1900);
        assert_eq!(cmp.verdict(0.05).class, VerdictClass::Noise);
    }

    #[test]
    fn verdict_classifies_persistent_shift() {
        let base = matrix_with_loads(&vec![vec![100u64; 8]; 4]);
        let slow = matrix_with_loads(&[
            vec![100u64; 8],
            vec![100; 8],
            vec![160; 8], // one rank persistently 60 % slower
            vec![100; 8],
        ]);
        let cmp = RunComparison::compare(
            &SosMatrix::from_segmentation(&base),
            &SosMatrix::from_segmentation(&slow),
        );
        let v = cmp.verdict(DEFAULT_NOISE_THRESHOLD);
        assert_eq!(v.class, VerdictClass::Regression);
        assert!((v.relative_change - 0.6).abs() < 1e-9);
        let back = RunComparison::compare(
            &SosMatrix::from_segmentation(&slow),
            &SosMatrix::from_segmentation(&base),
        );
        assert_eq!(back.verdict(0.05).class, VerdictClass::Improvement);
        let same = RunComparison::compare(
            &SosMatrix::from_segmentation(&base),
            &SosMatrix::from_segmentation(&base),
        );
        assert_eq!(same.verdict(0.05).class, VerdictClass::Noise);
        assert!(format!("{v}").contains("regression"));
    }

    #[test]
    fn comparison_shows_fix_effect() {
        let before = matrix_with_loads(&[vec![120u64], vec![120], vec![120], vec![300]]);
        let after = matrix_with_loads(&[vec![165u64], vec![165], vec![165], vec![165]]);
        let cmp = RunComparison::compare(
            &SosMatrix::from_segmentation(&before),
            &SosMatrix::from_segmentation(&after),
        );
        assert!(cmp.imbalance_change() < -0.2);
        let top = cmp.largest_changes(1);
        assert_eq!(top[0].process, ProcessId(3));
        assert!((top[0].relative_change() + 0.45).abs() < 1e-12);
        let text = cmp.render_text();
        assert!(text.contains("imbalance index"));
        assert!(text.contains("P3"));
    }

    #[test]
    fn differing_process_counts_record_unmatched_ranks() {
        let before = matrix_with_loads(&[vec![100u64], vec![100], vec![100]]);
        let after = matrix_with_loads(&[vec![100u64], vec![200]]);
        let cmp = RunComparison::compare(
            &SosMatrix::from_segmentation(&before),
            &SosMatrix::from_segmentation(&after),
        );
        assert_eq!(cmp.deltas.len(), 2);
        assert_eq!(cmp.before.processes, 3);
        assert_eq!(cmp.after.processes, 2);
        // The shrunk run's missing rank is reported, not silently dropped.
        assert_eq!(cmp.unmatched_before, vec![ProcessId(2)]);
        assert!(cmp.unmatched_after.is_empty());
        let text = cmp.render_text();
        assert!(text.contains("unmatched ranks"));
        assert!(text.contains("baseline-only [P2]"));

        let grown = RunComparison::compare(
            &SosMatrix::from_segmentation(&after),
            &SosMatrix::from_segmentation(&before),
        );
        assert_eq!(grown.unmatched_after, vec![ProcessId(2)]);
        assert!(grown.unmatched_before.is_empty());
    }

    #[test]
    fn matched_process_counts_have_no_unmatched_ranks() {
        let m = matrix_with_loads(&[vec![100u64], vec![100]]);
        let cmp = RunComparison::compare(
            &SosMatrix::from_segmentation(&m),
            &SosMatrix::from_segmentation(&m),
        );
        assert!(cmp.unmatched_before.is_empty());
        assert!(cmp.unmatched_after.is_empty());
        assert!(!cmp.render_text().contains("unmatched"));
    }

    #[test]
    fn zero_baseline_delta_is_safe() {
        let d = ProcessDelta {
            process: ProcessId(0),
            before: 0,
            after: 5,
        };
        assert_eq!(d.relative_change(), 5.0);
    }

    #[test]
    fn empty_runs_compare() {
        let empty = matrix_with_loads(&[]);
        let cmp = RunComparison::compare(
            &SosMatrix::from_segmentation(&empty),
            &SosMatrix::from_segmentation(&empty),
        );
        assert_eq!(cmp.deltas.len(), 0);
        assert_eq!(cmp.imbalance_change(), 0.0);
        assert_eq!(cmp.verdict(0.05).class, VerdictClass::Noise);
    }

    fn analysis_of_loads(groups: &[Vec<u64>]) -> (Analysis, Vec<String>) {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let iter_f = b.define_function("iteration", FunctionRole::Compute);
        let inner_f = b.define_function("inner", FunctionRole::Compute);
        for loads in groups {
            let p = b.define_process("p");
            let w = b.process_mut(p);
            let mut t = 0u64;
            for &load in loads {
                w.enter(Timestamp(t), iter_f).unwrap();
                w.enter(Timestamp(t + load / 4), inner_f).unwrap();
                w.leave(Timestamp(t + load / 2), inner_f).unwrap();
                t += load;
                w.leave(Timestamp(t), iter_f).unwrap();
            }
        }
        let trace: Trace = b.finish().unwrap();
        let names = trace
            .registry()
            .functions()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let analysis = crate::analyze(&trace, &crate::AnalysisConfig::default()).unwrap();
        (analysis, names)
    }

    #[test]
    fn function_deltas_match_by_name() {
        let (before, before_names) = analysis_of_loads(&[vec![100u64; 4], vec![100; 4]]);
        let (after, after_names) = analysis_of_loads(&[vec![200u64; 4], vec![200; 4]]);
        let cmp = RunComparison::compare_analyses(&before, &before_names, &after, &after_names);
        assert_eq!(cmp.functions.len(), 2);
        // Sorted by name.
        assert_eq!(cmp.functions[0].name, "inner");
        assert_eq!(cmp.functions[1].name, "iteration");
        let iter_delta = &cmp.functions[1];
        assert_eq!(iter_delta.before.count, 8);
        assert_eq!(iter_delta.after.count, 8);
        assert!(iter_delta.after.inclusive > iter_delta.before.inclusive);
        let text = cmp.render_text();
        assert!(text.contains("per-function changes"));
        assert!(text.contains("iteration"));
    }

    #[test]
    fn function_deltas_cover_one_sided_functions() {
        let (a, a_names) = analysis_of_loads(&[vec![100u64; 4]]);
        let mut b_names = a_names.clone();
        b_names[1] = "renamed".to_string();
        let deltas = function_deltas(&a.profiles, &a_names, &a.profiles, &b_names);
        // "inner" only in before, "renamed" only in after.
        let inner = deltas.iter().find(|d| d.name == "inner").unwrap();
        assert_eq!(inner.after, FunctionLoad::default());
        assert!(inner.before.inclusive > 0);
        let renamed = deltas.iter().find(|d| d.name == "renamed").unwrap();
        assert_eq!(renamed.before, FunctionLoad::default());
        assert!(renamed.after.inclusive > 0);
    }

    #[test]
    fn bisect_finds_first_regressing_run() {
        // Runs 0..5 good, 5..8 bad.
        let verdicts = [false, false, false, false, false, true, true, true];
        let mut probes = Vec::new();
        let out = bisect_first_regression::<()>(verdicts.len(), |i| {
            probes.push(i);
            Ok(verdicts[i])
        })
        .unwrap();
        assert_eq!(out.first_bad, Some(5));
        assert!(out.comparisons <= 4, "{} comparisons", out.comparisons);
        assert_eq!(probes.len(), out.comparisons);
    }

    #[test]
    fn bisect_every_step_position() {
        for n in 2..20usize {
            for step in 1..n {
                let out = bisect_first_regression::<()>(n, |i| Ok(i >= step)).unwrap();
                assert_eq!(out.first_bad, Some(step), "n={n} step={step}");
                let bound = 1 + (n - 1).next_power_of_two().trailing_zeros() as usize;
                assert!(out.comparisons <= bound, "n={n} step={step}");
            }
        }
    }

    #[test]
    fn bisect_clean_sequence_stops_after_one_comparison() {
        let out = bisect_first_regression::<()>(8, |_| Ok(false)).unwrap();
        assert_eq!(out.first_bad, None);
        assert_eq!(out.comparisons, 1);
    }

    #[test]
    fn bisect_degenerate_sequences() {
        let out = bisect_first_regression::<()>(1, |_| Ok(true)).unwrap();
        assert_eq!(out.first_bad, None);
        assert_eq!(out.comparisons, 0);
        let out = bisect_first_regression::<()>(2, |_| Ok(true)).unwrap();
        assert_eq!(out.first_bad, Some(1));
        assert_eq!(out.comparisons, 1);
    }

    #[test]
    fn bisect_propagates_probe_errors() {
        let out = bisect_first_regression(4, |_| Err("boom"));
        assert_eq!(out, Err("boom"));
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// [`median_ticks`] by a full sort.
        fn oracle_median_ticks(values: impl Iterator<Item = u64>) -> f64 {
            let mut sorted: Vec<u64> = values.collect();
            if sorted.is_empty() {
                return 0.0;
            }
            sorted.sort_unstable();
            let n = sorted.len();
            if n % 2 == 1 {
                sorted[n / 2] as f64
            } else {
                (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn selection_median_ticks_matches_the_sorting_oracle(
                values in vec(prop_oneof![Just(7u64), 0u64..4, 0u64..u64::MAX], 0..41),
            ) {
                prop_assert_eq!(
                    median_ticks(values.iter().copied()).to_bits(),
                    oracle_median_ticks(values.iter().copied()).to_bits()
                );
            }
        }
    }
}
