//! Severity-ranked findings: the "guide the analyst" product.
//!
//! The paper's goal is that the analyst "is pointed directly to the
//! cause of the performance bottleneck" — and its related work notes
//! that Scalasca ranks located patterns "by their severity and impact on
//! the application performance". This module condenses an [`Analysis`]
//! into a ranked list of [`Finding`]s with human-readable explanations:
//! overloaded processes, outlier invocations, temporal drift, and
//! counter correlations, each scored by its estimated impact.
//!
//! [`auto_refine`] automates the paper's §VII-B refinement loop: step
//! down the dominant ranking until the hotspot is isolated to (nearly)
//! a single invocation, then stop.

use crate::report::{analyze, Analysis, AnalysisConfig};
use perfvar_trace::{Clock, ProcessId, Registry, Trace, TraceMeta};
use serde::{Deserialize, Serialize};

/// The kind of a finding.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FindingKind {
    /// One or more processes carry outlier computational load.
    OverloadedProcesses {
        /// The flagged processes, hottest first.
        processes: Vec<ProcessId>,
    },
    /// One or a few single invocations are outliers (e.g. an OS
    /// interruption).
    OutlierInvocations {
        /// `(process, ordinal)` of the flagged segments, hottest first.
        segments: Vec<(ProcessId, usize)>,
    },
    /// Segment durations drift over the run.
    TemporalDrift {
        /// Relative increase of the fitted duration over the run.
        relative_increase: f64,
    },
    /// The run switches between distinct duration regimes.
    RegimeShift {
        /// First ordinal of each phase after the initial one.
        boundaries: Vec<usize>,
    },
    /// A hardware counter explains the SOS variation.
    CounterCorrelation {
        /// The metric channel name.
        metric: String,
        /// Pearson correlation with SOS-time.
        correlation: f64,
    },
    /// A whole behaviour cluster of processes carries persistent
    /// computational overload — the cluster-summarised form of
    /// [`FindingKind::OverloadedProcesses`] emitted by
    /// [`diagnose`](crate::diagnose) at scale.
    OverloadedCluster {
        /// Index of the cluster in the diagnosis' cluster list.
        cluster: usize,
        /// Member processes of the overloaded cluster, ascending.
        processes: Vec<ProcessId>,
        /// Name of the segmentation function carrying the load.
        function: String,
    },
    /// Waiting time propagates from rank to rank, one segment ordinal
    /// per hop — a desynchronisation ("idle") wave after Afzal et al.,
    /// not a static imbalance: the computational load is balanced and
    /// only the *synchronisation* time carries the pattern.
    PropagatingWait {
        /// The rank whose one-off delay started the wave.
        origin: ProcessId,
        /// Segment ordinal at which the wave left the origin.
        start_ordinal: usize,
        /// Number of ranks the front has swept.
        affected_ranks: usize,
    },
}

/// One ranked finding.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// What was found.
    pub kind: FindingKind,
    /// Severity in `[0, 1]`: the estimated fraction of aggregate CPU
    /// time implicated (waste-based for load findings; correlation
    /// strength for counter findings; capped relative drift for trends).
    pub severity: f64,
    /// One-sentence human-readable description.
    pub description: String,
}

/// Extracts the ranked findings of an analysis.
pub fn findings(trace: &Trace, analysis: &Analysis) -> Vec<Finding> {
    findings_impl(trace.clock(), trace.registry(), analysis)
}

/// Like [`findings`] but working from trace *metadata* — the findings
/// only consult the clock (to format durations) and the registry (to
/// name metrics), so the out-of-core path extracts them without ever
/// holding a [`Trace`].
pub fn findings_meta(meta: &TraceMeta, analysis: &Analysis) -> Vec<Finding> {
    findings_impl(meta.clock, &meta.registry, analysis)
}

fn findings_impl(clock: Clock, registry: &Registry, analysis: &Analysis) -> Vec<Finding> {
    let mut out = Vec::new();
    let waste_fraction = analysis.waste.waste_fraction();

    if !analysis.imbalance.process_outliers.is_empty() {
        let processes = analysis.imbalance.process_outliers.clone();
        let names: Vec<String> = processes.iter().take(8).map(|p| p.to_string()).collect();
        out.push(Finding {
            kind: FindingKind::OverloadedProcesses {
                processes: processes.clone(),
            },
            severity: waste_fraction,
            description: format!(
                "{} process(es) carry outlier computational load ({}{}); \
                 ≈{:.0}% of aggregate CPU time is spent waiting for the slowest",
                processes.len(),
                names.join(", "),
                if processes.len() > 8 { ", …" } else { "" },
                waste_fraction * 100.0
            ),
        });
    }

    // Segment outliers are reported as localised spikes only when they
    // are few; a process that is slow in *every* iteration is already
    // covered by the overloaded-processes finding above.
    let spike_like = !analysis.imbalance.segment_outliers.is_empty()
        && analysis.imbalance.segment_outliers.len()
            <= 3 * analysis.imbalance.process_outliers.len().max(1);
    if spike_like {
        let segments: Vec<(ProcessId, usize)> = analysis
            .imbalance
            .segment_outliers
            .iter()
            .map(|o| (o.process, o.ordinal))
            .collect();
        let top = &analysis.imbalance.segment_outliers[0];
        out.push(Finding {
            kind: FindingKind::OutlierInvocations {
                segments: segments.clone(),
            },
            severity: waste_fraction,
            description: format!(
                "{} isolated slow invocation(s); worst: {} segment #{} with SOS {} \
                 (score {:.0})",
                segments.len(),
                top.process,
                top.ordinal,
                clock.format_duration(top.sos),
                top.score
            ),
        });
    }

    // Regime switches (distinct from gradual drift): phase detection on
    // the per-ordinal duration series.
    let phases = crate::phases::PhaseDetection::detect_durations(
        &analysis.sos(),
        crate::phases::PhaseConfig::default(),
    );
    if phases.len() > 1 {
        let means: Vec<f64> = phases.phases.iter().map(|p| p.mean).collect();
        let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = means.iter().cloned().fold(0.0f64, f64::max);
        let severity = if hi > 0.0 {
            ((hi - lo) / hi).clamp(0.0, 1.0)
        } else {
            0.0
        };
        out.push(Finding {
            kind: FindingKind::RegimeShift {
                boundaries: phases.boundaries(),
            },
            severity: severity * 0.5, // regime info guides, load findings rank higher
            description: format!(
                "the run switches duration regimes at ordinal(s) {:?} \
                 (phase means {} … {})",
                phases.boundaries(),
                lo.round(),
                hi.round()
            ),
        });
    }

    let drift = analysis.imbalance.duration_trend.relative_increase;
    if drift.abs() > 0.25 {
        out.push(Finding {
            kind: FindingKind::TemporalDrift {
                relative_increase: drift,
            },
            severity: (drift.abs() / 4.0).min(1.0),
            description: format!(
                "segment durations {} by {:.0}% over the run",
                if drift > 0.0 { "grow" } else { "shrink" },
                drift.abs() * 100.0
            ),
        });
    }

    for counter in &analysis.counters {
        if let Some(r) = counter.sos_correlation {
            if r.abs() > 0.8 {
                let metric = registry.metric(counter.metric).name.clone();
                out.push(Finding {
                    kind: FindingKind::CounterCorrelation {
                        metric: metric.clone(),
                        correlation: r,
                    },
                    severity: r.abs(),
                    description: format!(
                        "counter {metric:?} correlates with SOS-time (r = {r:+.2}) — \
                         a likely root-cause indicator"
                    ),
                });
            }
        }
    }

    out.sort_by(|a, b| b.severity.total_cmp(&a.severity));
    out
}

/// Automates §VII-B's refinement: repeatedly steps to the next-finer
/// segmentation function while that sharpens the hotspot, i.e. while the
/// number of flagged segments drops (towards the paper's "single
/// function call — red line"). Returns the sharpest analysis reached and
/// the number of refinement steps taken.
pub fn auto_refine(
    trace: &Trace,
    config: &AnalysisConfig,
    max_steps: usize,
) -> Result<(Analysis, usize), crate::report::AnalysisError> {
    let mut current = analyze(trace, config)?;
    let mut steps = 0;
    while steps < max_steps {
        let current_outliers = current.imbalance.segment_outliers.len();
        if current_outliers == 0 {
            break;
        }
        let Some(finer) = current.refine(trace, config) else {
            break;
        };
        let finer_outliers = finer.imbalance.segment_outliers.len();
        // Keep refining while the picture stays at least as sharp at a
        // genuinely finer granularity; a refinement that loses the signal
        // (0 outliers — e.g. stepping into pure-MPI functions whose SOS
        // is zero) or blurs it (more outliers) is rejected.
        let genuinely_finer = finer.segmentation.max_segments_per_process()
            > current.segmentation.max_segments_per_process();
        if finer_outliers == 0 || finer_outliers > current_outliers || !genuinely_finer {
            break;
        }
        current = finer;
        steps += 1;
    }
    Ok((current, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvar_sim::prelude::*;
    use perfvar_sim::workloads::{BalancedStencil, GradualSlowdown, SingleOutlier, Wrf};

    #[test]
    fn balanced_run_yields_no_findings() {
        let trace = simulate(&BalancedStencil::new(6, 10).spec()).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        assert!(findings(&trace, &analysis).is_empty());
    }

    #[test]
    fn outlier_yields_invocation_finding() {
        let trace = simulate(&SingleOutlier::new(6, 10, 2).spec()).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let f = findings(&trace, &analysis);
        assert!(
            f.iter().any(
                |f| matches!(&f.kind, FindingKind::OutlierInvocations { segments }
                if segments.first() == Some(&(ProcessId(2), 5)))
            ),
            "{f:?}"
        );
    }

    #[test]
    fn wrf_yields_process_and_counter_findings() {
        let trace = simulate(&Wrf::small(2, 3, 10).spec()).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let f = findings(&trace, &analysis);
        assert!(
            f.iter().any(
                |f| matches!(&f.kind, FindingKind::OverloadedProcesses { processes }
                if processes.contains(&ProcessId(3)))
            ),
            "{f:?}"
        );
        assert!(
            f.iter().any(
                |f| matches!(&f.kind, FindingKind::CounterCorrelation { correlation, .. }
                if *correlation > 0.8)
            ),
            "{f:?}"
        );
        // Sorted by severity.
        for w in f.windows(2) {
            assert!(w[0].severity >= w[1].severity);
        }
    }

    #[test]
    fn gradual_slowdown_yields_drift_finding() {
        let trace = simulate(&GradualSlowdown::new(4, 15).spec()).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let f = findings(&trace, &analysis);
        assert!(
            f.iter().any(
                |f| matches!(&f.kind, FindingKind::TemporalDrift { relative_increase }
                if *relative_increase > 1.0)
            ),
            "{f:?}"
        );
    }

    #[test]
    fn regime_shift_reported() {
        use perfvar_trace::{Clock, FunctionRole, Timestamp, TraceBuilder};
        // 3 processes, 24 iterations; all durations triple half-way.
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("iter", FunctionRole::Compute);
        for _ in 0..3 {
            let p = b.define_process("p");
            let w = b.process_mut(p);
            let mut t = 0u64;
            for k in 0..24 {
                let load = if k < 12 { 100 } else { 300 };
                w.enter(Timestamp(t), f).unwrap();
                t += load;
                w.leave(Timestamp(t), f).unwrap();
            }
        }
        let trace = b.finish().unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let f = findings(&trace, &analysis);
        let shift = f
            .iter()
            .find_map(|f| match &f.kind {
                FindingKind::RegimeShift { boundaries } => Some(boundaries.clone()),
                _ => None,
            })
            .expect("regime shift reported");
        assert_eq!(shift, vec![12]);
    }

    #[test]
    fn auto_refine_sharpens_fd4_hotspot() {
        let w = workloads::CosmoSpecsFd4::small(16, 3);
        let trace = simulate(&w.spec()).unwrap();
        let config = AnalysisConfig::default();
        let (sharp, steps) = auto_refine(&trace, &config, 5).unwrap();
        assert!(steps <= 5);
        assert_eq!(sharp.imbalance.segment_outliers.len(), 1);
        let hot = &sharp.imbalance.segment_outliers[0];
        assert_eq!(hot.process.index(), w.interrupted_rank);
    }

    #[test]
    fn auto_refine_is_stable_on_balanced_runs() {
        let trace = simulate(&BalancedStencil::new(4, 8).spec()).unwrap();
        let config = AnalysisConfig::default();
        let (analysis, steps) = auto_refine(&trace, &config, 5).unwrap();
        assert_eq!(steps, 0);
        assert!(!analysis.imbalance.has_findings());
    }

    #[test]
    fn descriptions_are_informative() {
        let trace = simulate(&SingleOutlier::new(5, 8, 1).spec()).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let f = findings(&trace, &analysis);
        assert!(!f.is_empty());
        for finding in &f {
            assert!(!finding.description.is_empty());
            assert!((0.0..=1.0).contains(&finding.severity), "{finding:?}");
        }
    }
}
