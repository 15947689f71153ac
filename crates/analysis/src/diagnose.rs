//! Automatic diagnosis at scale: cluster-summarised behaviour with
//! cause-labelled findings.
//!
//! At 10k–100k ranks a per-rank heatmap is unreadable and a flat outlier
//! list unhelpful. This module condenses an [`Analysis`] into a
//! [`Diagnosis`]: processes are grouped into at most
//! [`DiagnoseConfig::max_clusters`] behaviour clusters (each with a
//! representative rank and a spread summary, so the visualizer can draw
//! *one heatmap row per cluster*), every cluster carries a human-readable
//! **cause** label, and the findings list is extended with two
//! scale-aware kinds: [`FindingKind::OverloadedCluster`] for persistent
//! load concentrated on a group of ranks, and
//! [`FindingKind::PropagatingWait`] for desynchronisation ("idle") waves
//! after Afzal et al. (arXiv 2205.13963) — waiting time that travels one
//! rank per segment through the communication topology while the
//! computational load stays perfectly balanced. SOS-time is what makes
//! the distinction possible: a static imbalance lives in the SOS matrix,
//! a wave lives only in the synchronisation time (`duration − SOS`).
//!
//! Small runs are clustered exactly (the agglomerative algorithm of
//! [`crate::clustering`]); above [`DiagnoseConfig::exact_threshold`]
//! processes a deterministic single-pass summariser folds the per-rank
//! SOS profiles into a bounded set of sketches in ascending rank order,
//! never materialising the O(ranks²) distance matrix — the same
//! out-of-core spirit as the rest of the pipeline, and bit-stable across
//! thread counts and part partitions because it consumes only the
//! (bit-stable) [`Analysis`].
//!
//! Everything here is **clock-free**: descriptions quote raw ticks and
//! percentages only, so the daemon (which holds no [`perfvar_trace::Clock`])
//! renders byte-identical JSON to the CLI.

use crate::clustering::{euclidean, Agglomeration, Cluster, ClusterConfig, ProcessClustering};
use crate::findings::{Finding, FindingKind};
use crate::report::Analysis;
use crate::sos::{SosMatrix, TickStats};
use perfvar_trace::{DurationTicks, ProcessId, TraceMeta};
use serde::{Deserialize, Serialize};

/// Diagnosis parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DiagnoseConfig {
    /// Parameters of the underlying process clustering.
    pub cluster: ClusterConfig,
    /// Hard cap on reported clusters — the summarised heatmap draws one
    /// row per cluster, so this bounds the visual height of any run.
    pub max_clusters: usize,
    /// Process counts up to this use the exact agglomerative clustering;
    /// larger runs use the streaming sketch summariser.
    pub exact_threshold: usize,
}

impl Default for DiagnoseConfig {
    fn default() -> DiagnoseConfig {
        DiagnoseConfig {
            cluster: ClusterConfig::default(),
            max_clusters: 20,
            exact_threshold: 512,
        }
    }
}

/// One behaviour cluster with its diagnosis.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DiagnosedCluster {
    /// Member processes, ascending.
    pub members: Vec<ProcessId>,
    /// The representative rank (member closest to the cluster centroid)
    /// whose SOS row stands in for the whole cluster in summarised
    /// heatmaps.
    pub representative: ProcessId,
    /// Distribution of the members' total SOS-times — the *spread band*
    /// around the representative.
    pub spread: TickStats,
    /// Median of the cluster's mean per-segment SOS profile (the level
    /// the cause labels compare against the baseline cluster).
    pub median_sos: f64,
    /// Human-readable cause label for this cluster's behaviour.
    pub cause: String,
}

/// A detected desynchronisation wave: waiting time propagating one rank
/// per segment ordinal through the communication topology.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WaveDiagnosis {
    /// The rank whose one-off delay launched the wave.
    pub origin: ProcessId,
    /// Segment ordinal at which the wave left the origin (the first
    /// neighbour's blocked segment).
    pub start_ordinal: usize,
    /// Ring direction of travel: `1` towards higher ranks, `-1` towards
    /// lower ranks.
    pub direction: i8,
    /// Ranks swept by the front, ascending.
    pub affected: Vec<ProcessId>,
    /// Fraction of the affected ranks whose wait peak sits on the
    /// one-rank-per-segment diagonal (± one ordinal).
    pub fit: f64,
    /// Largest single blocking time on the front, in ticks.
    pub peak_wait: DurationTicks,
}

/// The complete automatic diagnosis of one analysis.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Diagnosis {
    /// Name of the analysed trace.
    pub trace_name: String,
    /// Name of the segmentation function.
    pub function: String,
    /// Number of processes in the run.
    pub num_processes: usize,
    /// Behaviour clusters, largest first, each with a cause label.
    pub clusters: Vec<DiagnosedCluster>,
    /// The desynchronisation wave, if one was detected.
    pub wave: Option<WaveDiagnosis>,
    /// Severity-ranked findings (the cluster- and wave-aware extension
    /// of [`crate::findings`]).
    pub findings: Vec<Finding>,
}

/// Diagnoses `analysis`. `function_name` is the display name of
/// `analysis.function`; `counter_names` names `analysis.counters` (same
/// order). Both are passed in rather than looked up so the daemon can
/// reproduce the CLI's output byte for byte from its cached metadata.
pub fn diagnose_analysis(
    analysis: &Analysis,
    function_name: &str,
    counter_names: &[String],
    config: &DiagnoseConfig,
) -> Diagnosis {
    let n = analysis.sos().num_processes();
    let clustering = cluster_summarised(&analysis.sos(), config);
    let wave = detect_wave(analysis);
    let totals = analysis.sos().process_totals();

    // Decorate clusters with spread and cause labels.
    let baseline_median = clustering
        .clusters
        .first()
        .map(|c| median(&c.centroid))
        .unwrap_or(0.0);
    let counter_hint = strongest_counter(analysis, counter_names);
    let mut clusters = Vec::with_capacity(clustering.clusters.len());
    for (idx, c) in clustering.clusters.iter().enumerate() {
        let spread = TickStats::from_values(c.members.iter().map(|p| totals[p.index()].0));
        let median_sos = median(&c.centroid);
        let cause = cause_label(
            idx,
            c,
            median_sos,
            baseline_median,
            wave.as_ref(),
            analysis,
            function_name,
            counter_hint.as_deref(),
        );
        clusters.push(DiagnosedCluster {
            members: c.members.clone(),
            representative: c.representative,
            spread,
            median_sos,
            cause,
        });
    }

    let findings = diagnosis_findings(
        analysis,
        function_name,
        counter_names,
        &clusters,
        wave.as_ref(),
    );

    Diagnosis {
        trace_name: analysis.trace_name.clone(),
        function: function_name.to_string(),
        num_processes: n,
        clusters,
        wave,
        findings,
    }
}

/// Convenience wrapper resolving the function and counter names from
/// trace metadata (the CLI / in-memory path).
pub fn diagnose_meta(meta: &TraceMeta, analysis: &Analysis, config: &DiagnoseConfig) -> Diagnosis {
    let function_name = meta.registry.function(analysis.function).name.clone();
    let counter_names: Vec<String> = analysis
        .counters
        .iter()
        .map(|c| meta.registry.metric(c.metric).name.clone())
        .collect();
    diagnose_analysis(analysis, &function_name, &counter_names, config)
}

impl Diagnosis {
    /// Renders the diagnosis as human-readable text (clock-free: raw
    /// ticks, like the JSON form).
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "automatic diagnosis: trace {:?}, segmentation function `{}`, {} process(es)",
            self.trace_name, self.function, self.num_processes
        );
        let _ = writeln!(out, "behaviour clusters ({}):", self.clusters.len());
        for (i, c) in self.clusters.iter().enumerate() {
            let _ = writeln!(
                out,
                "  cluster #{i} ×{:<6} rep {:<8} total SOS {:.0}±{:.0} ticks  [{}]  cause: {}",
                c.members.len(),
                c.representative.to_string(),
                c.spread.mean,
                c.spread.stddev,
                member_summary(&c.members),
                c.cause
            );
        }
        if let Some(w) = &self.wave {
            let _ = writeln!(
                out,
                "idle wave: origin {} at segment #{}, direction {}, {} rank(s) swept \
                 (diagonal fit {:.0}%, peak wait {} ticks)",
                w.origin,
                w.start_ordinal,
                if w.direction >= 0 { "+1" } else { "-1" },
                w.affected.len(),
                w.fit * 100.0,
                w.peak_wait.0
            );
        }
        if self.findings.is_empty() {
            let _ = writeln!(out, "findings: none — the run looks healthy");
        } else {
            let _ = writeln!(out, "findings ({}):", self.findings.len());
            for (i, f) in self.findings.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  {}. [{:>3.0}%] {}",
                    i + 1,
                    f.severity * 100.0,
                    f.description
                );
            }
        }
        out
    }
}

/// Compact member listing: first few ranks plus a remainder count.
fn member_summary(members: &[ProcessId]) -> String {
    let head: Vec<String> = members.iter().take(6).map(|p| p.to_string()).collect();
    if members.len() > 6 {
        format!("{} …+{}", head.join(" "), members.len() - 6)
    } else {
        head.join(" ")
    }
}

/// The lower middle of `values` (0 for none), by selection.
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    let lower_middle = (v.len() - 1) / 2;
    *v.select_nth_unstable_by(lower_middle, f64::total_cmp).1
}

/// The strongest root-cause counter hint (|r| > 0.8), as a display name.
fn strongest_counter(analysis: &Analysis, counter_names: &[String]) -> Option<String> {
    analysis
        .counters
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.sos_correlation.map(|r| (i, r)))
        .filter(|(_, r)| r.abs() > 0.8)
        .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
        .map(|(i, _)| {
            counter_names
                .get(i)
                .cloned()
                .unwrap_or_else(|| format!("metric#{i}"))
        })
}

#[allow(clippy::too_many_arguments)]
fn cause_label(
    idx: usize,
    cluster: &crate::clustering::Cluster,
    median_sos: f64,
    baseline_median: f64,
    wave: Option<&WaveDiagnosis>,
    analysis: &Analysis,
    function_name: &str,
    counter_hint: Option<&str>,
) -> String {
    let confirmed = |s: String| match counter_hint {
        Some(m) => format!("{s}, counter-confirmed (`{m}`)"),
        None => s,
    };
    if idx == 0 {
        // The largest cluster is the baseline everything else is judged
        // against.
        if let Some(w) = wave {
            let swept = cluster
                .members
                .iter()
                .filter(|p| w.affected.binary_search(p).is_ok())
                .count();
            if swept * 2 >= w.affected.len().max(1) && swept > 0 {
                return format!("baseline compute; {swept} rank(s) swept by the idle wave");
            }
        }
        return "baseline behaviour".to_string();
    }
    if let Some(w) = wave {
        if cluster.members.contains(&w.origin) {
            return format!(
                "one-off delay at segment #{} that launched the idle wave",
                w.start_ordinal
            );
        }
    }
    let persistent_overload = if baseline_median > 0.0 {
        median_sos > baseline_median * 1.25
    } else {
        median_sos > 0.0
    };
    if persistent_overload {
        let vs = if baseline_median > 0.0 {
            format!(
                "+{:.0}% vs baseline",
                (median_sos / baseline_median - 1.0) * 100.0
            )
        } else {
            format!("median SOS {median_sos:.0} ticks vs idle baseline")
        };
        return confirmed(format!(
            "persistent computational overload in `{function_name}` ({vs})"
        ));
    }
    // One-off spikes: the centroid is flat except for isolated segments,
    // or a member carries a flagged outlier invocation.
    let peak = cluster.centroid.iter().cloned().fold(0.0f64, f64::max);
    let spiky = peak > 2.0 * median_sos.max(1.0);
    let outlier = analysis
        .imbalance
        .segment_outliers
        .iter()
        .find(|o| cluster.members.contains(&o.process));
    if spiky || outlier.is_some() {
        let detail = match outlier {
            Some(o) => format!("{} segment #{}", o.process, o.ordinal),
            None => format!(
                "peak {:.0} ticks over a {:.0}-tick median",
                peak, median_sos
            ),
        };
        return confirmed(format!("one-off slow invocation(s): {detail}"));
    }
    if baseline_median > 0.0 && median_sos < baseline_median * 0.75 {
        return format!(
            "persistently underloaded (−{:.0}% vs baseline)",
            (1.0 - median_sos / baseline_median) * 100.0
        );
    }
    "behaviour differs from baseline".to_string()
}

/// Builds the severity-ranked findings of a diagnosis. All descriptions
/// are clock-free. Push order matters: the stable sort keeps the wave
/// and cluster findings ahead of generic findings of equal severity —
/// they *explain* the waste rather than merely flagging it.
fn diagnosis_findings(
    analysis: &Analysis,
    function_name: &str,
    counter_names: &[String],
    clusters: &[DiagnosedCluster],
    wave: Option<&WaveDiagnosis>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let waste_fraction = analysis.waste.waste_fraction();

    if let Some(w) = wave {
        // The wave accounts for the run's waiting time; rank it by the
        // larger of its direct cost and the overall waste it explains.
        let total: u64 = (0..analysis.sos().num_processes())
            .map(|p| {
                analysis
                    .sos()
                    .process_durations(ProcessId::from_index(p))
                    .iter()
                    .map(|d| d.0)
                    .sum::<u64>()
            })
            .sum();
        let front_cost: u64 = w
            .affected
            .iter()
            .map(|p| peak_wait_of(&analysis.sos(), *p).0)
            .sum();
        let fraction = if total > 0 {
            front_cost as f64 / total as f64
        } else {
            0.0
        };
        out.push(Finding {
            kind: FindingKind::PropagatingWait {
                origin: w.origin,
                start_ordinal: w.start_ordinal,
                affected_ranks: w.affected.len(),
            },
            severity: fraction.max(waste_fraction).min(1.0),
            description: format!(
                "idle wave: a one-off delay on {} launches a wait front at segment #{} \
                 that sweeps {} rank(s) one rank per segment (peak wait {} ticks) — \
                 compute is balanced, the loss is propagating synchronisation",
                w.origin,
                w.start_ordinal,
                w.affected.len(),
                w.peak_wait.0
            ),
        });
    }

    let baseline_median = clusters.first().map(|c| c.median_sos).unwrap_or(0.0);
    for (idx, c) in clusters.iter().enumerate().skip(1) {
        let overloaded = if baseline_median > 0.0 {
            c.median_sos > baseline_median * 1.25
        } else {
            c.median_sos > 0.0
        };
        if !overloaded {
            continue;
        }
        let names: Vec<String> = c.members.iter().take(8).map(|p| p.to_string()).collect();
        out.push(Finding {
            kind: FindingKind::OverloadedCluster {
                cluster: idx,
                processes: c.members.clone(),
                function: function_name.to_string(),
            },
            severity: waste_fraction,
            description: format!(
                "cluster #{idx} ({} rank(s): {}{}) carries persistent computational \
                 overload in `{function_name}`: median SOS {:.0} ticks vs baseline {:.0}; \
                 ≈{:.0}% of aggregate CPU time is spent waiting for the slowest",
                c.members.len(),
                names.join(", "),
                if c.members.len() > 8 { ", …" } else { "" },
                c.median_sos,
                baseline_median,
                waste_fraction * 100.0
            ),
        });
    }

    // Localised spikes (clock-free variant of the base findings' rule).
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
                "{} isolated slow invocation(s); worst: {} segment #{} with SOS {} ticks \
                 (score {:.0})",
                segments.len(),
                top.process,
                top.ordinal,
                top.sos.0,
                top.score
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

    for (i, counter) in analysis.counters.iter().enumerate() {
        if let Some(r) = counter.sos_correlation {
            if r.abs() > 0.8 {
                let metric = counter_names
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| format!("metric#{i}"));
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

    // Causes outrank symptoms: once the waste is attributed to a wave
    // or an overloaded cluster, the remaining findings (drift, spikes,
    // counter correlations) describe the same loss from the outside —
    // a steadily growing cloud *is* a duration drift. Cap them just
    // below the strongest cause so the ranking leads with the
    // explanation while keeping their relative order.
    let is_cause = |kind: &FindingKind| {
        matches!(
            kind,
            FindingKind::PropagatingWait { .. } | FindingKind::OverloadedCluster { .. }
        )
    };
    let cause_max = out
        .iter()
        .filter(|f| is_cause(&f.kind))
        .map(|f| f.severity)
        .fold(f64::NEG_INFINITY, f64::max);
    if cause_max.is_finite() {
        for f in &mut out {
            if !is_cause(&f.kind) {
                f.severity = f.severity.min(cause_max * 0.95);
            }
        }
    }

    out.sort_by(|a, b| b.severity.total_cmp(&a.severity));
    out
}

/// Largest per-segment wait (`duration − SOS`) of `p`.
fn peak_wait_of(m: &SosMatrix, p: ProcessId) -> DurationTicks {
    let dur = m.process_durations(p);
    let sos = m.process_sos(p);
    DurationTicks(
        dur.iter()
            .zip(sos)
            .map(|(d, s)| d.0.saturating_sub(s.0))
            .max()
            .unwrap_or(0),
    )
}

/// Detects a desynchronisation wave in the synchronisation time
/// (`duration − SOS`) of the matrix: a set of ranks whose *wait peaks*
/// advance one segment ordinal per rank along the ring — the diagonal
/// front of Afzal et al. Static imbalances fail the test because every
/// waiting rank peaks at the *same* ordinal (typically the last), and
/// background jitter fails the diagonal fit.
fn detect_wave(analysis: &Analysis) -> Option<WaveDiagnosis> {
    let m = &analysis.sos();
    let n = m.num_processes();
    if n < 3 {
        return None;
    }
    // Per rank: largest wait and the ordinal it happens at (first max).
    let mut peaks: Vec<(u64, usize)> = Vec::with_capacity(n);
    for p in 0..n {
        let pid = ProcessId::from_index(p);
        let dur = m.process_durations(pid);
        let sos = m.process_sos(pid);
        let mut best = (0u64, 0usize);
        for (i, (d, s)) in dur.iter().zip(sos).enumerate() {
            let wait = d.0.saturating_sub(s.0);
            if wait > best.0 {
                best = (wait, i);
            }
        }
        peaks.push(best);
    }
    let global_max = peaks.iter().map(|p| p.0).max()?;
    if global_max == 0 {
        return None;
    }
    // A wave-sized wait dwarfs per-segment compute noise; waits on the
    // scale of ordinary SOS jitter are not a wave.
    let sos_mean = m.sos_stats().mean;
    if (global_max as f64) < 0.5 * sos_mean {
        return None;
    }
    let cutoff = global_max / 3;
    let affected: Vec<usize> = (0..n).filter(|&p| peaks[p].0 >= cutoff).collect();
    if affected.len() < 3 {
        return None;
    }
    let distinct: std::collections::BTreeSet<usize> =
        affected.iter().map(|&p| peaks[p].1).collect();
    if distinct.len() < 3 {
        return None;
    }
    // The front head: earliest peak ordinal, lowest rank on ties.
    let first_ord = *distinct.iter().next()?;
    let r0 = *affected.iter().find(|&&p| peaks[p].1 == first_ord)?;
    // Try both ring directions; expected ordinal grows one per hop.
    let score = |dir: i64| -> usize {
        affected
            .iter()
            .filter(|&&p| {
                let dist = if dir > 0 {
                    (p + n - r0) % n
                } else {
                    (r0 + n - p) % n
                };
                let expected = first_ord + dist;
                peaks[p].1.abs_diff(expected) <= 1
            })
            .count()
    };
    let (fwd, bwd) = (score(1), score(-1));
    let (dir, matches) = if fwd >= bwd { (1i8, fwd) } else { (-1i8, bwd) };
    let fit = matches as f64 / affected.len() as f64;
    if fit < 0.8 {
        return None;
    }
    // The origin sits one hop upstream of the front head: its delay is
    // compute (SOS), so it never waits — its neighbour blocks first.
    let origin = if dir > 0 {
        (r0 + n - 1) % n
    } else {
        (r0 + 1) % n
    };
    let peak_wait = DurationTicks(affected.iter().map(|&p| peaks[p].0).max().unwrap_or(0));
    Some(WaveDiagnosis {
        origin: ProcessId::from_index(origin),
        start_ordinal: first_ord,
        direction: dir,
        affected: affected.iter().map(|&p| ProcessId::from_index(p)).collect(),
        fit,
        peak_wait,
    })
}

/// Clusters the matrix, switching to the streaming summariser above
/// `config.exact_threshold` processes and capping the result at
/// `config.max_clusters` either way.
fn cluster_summarised(matrix: &SosMatrix, config: &DiagnoseConfig) -> ProcessClustering {
    let n = matrix.num_processes();
    let max_clusters = config.max_clusters.max(1);
    let target = config
        .cluster
        .num_clusters
        .map(|k| k.clamp(1, max_clusters));
    if n <= config.exact_threshold {
        // A threshold run that overshoots the row budget merges on to
        // the cap.
        return ProcessClustering::compute_capped(
            matrix,
            ClusterConfig {
                distance_threshold: config.cluster.distance_threshold,
                num_clusters: target,
            },
            max_clusters,
        );
    }
    cluster_streaming(
        matrix,
        config.cluster.distance_threshold,
        target,
        max_clusters,
    )
}

/// Deterministic single-pass sketch clustering for large runs.
///
/// Ranks are folded in ascending order: each per-rank SOS profile is
/// absorbed into the nearest sketch if within the stop distance, else it
/// opens a new sketch; once the sketch budget is full, profiles are
/// absorbed into their nearest sketch unconditionally (the summariser
/// trades tail precision for a hard memory bound, like the rest of the
/// out-of-core pipeline). A final agglomerative pass, the exact path's
/// merge engine, merges the sketch centroids down to the requested
/// cluster count. O(ranks × budget × width) time, O(budget × width +
/// ranks) memory — the full rank×segment matrix is only ever read row by
/// row.
fn cluster_streaming(
    matrix: &SosMatrix,
    distance_threshold: f64,
    target: Option<usize>,
    max_clusters: usize,
) -> ProcessClustering {
    let n = matrix.num_processes();
    let width = (0..n)
        .map(|p| matrix.process_sos(ProcessId::from_index(p)).len())
        .max()
        .unwrap_or(0);
    let stats = matrix.sos_stats();
    let rms = (stats.mean * stats.mean + stats.stddev * stats.stddev).sqrt();
    let stop_distance = if rms == 0.0 {
        0.0
    } else {
        distance_threshold * rms
    };
    let budget = (max_clusters * 4).clamp(32, 256);

    struct Sketch {
        centroid: Vec<f64>,
        count: usize,
    }
    let mut sketches: Vec<Sketch> = Vec::new();
    let mut assignment: Vec<u32> = Vec::with_capacity(n);
    let mut profile = vec![0.0f64; width];
    for p in 0..n {
        let row = matrix.process_sos(ProcessId::from_index(p));
        for (i, slot) in profile.iter_mut().enumerate() {
            *slot = row.get(i).map(|d| d.0 as f64).unwrap_or(0.0);
        }
        let nearest = sketches
            .iter()
            .enumerate()
            .map(|(i, s)| (i, euclidean(&profile, &s.centroid)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        match nearest {
            Some((i, d)) if d <= stop_distance || sketches.len() >= budget => {
                let s = &mut sketches[i];
                let k = s.count as f64;
                for (c, v) in s.centroid.iter_mut().zip(&profile) {
                    *c = (*c * k + v) / (k + 1.0);
                }
                s.count += 1;
                assignment.push(i as u32);
            }
            _ => {
                assignment.push(sketches.len() as u32);
                sketches.push(Sketch {
                    centroid: profile.clone(),
                    count: 1,
                });
            }
        }
    }
    if sketches.is_empty() {
        return ProcessClustering {
            clusters: Vec::new(),
        };
    }

    // Agglomerative merge of the sketch centroids with the exact
    // algorithm's engine: to the fixed target if given, else within the
    // stop distance — but never more than `max_clusters` groups.
    let goal = target.unwrap_or(max_clusters).max(1);
    let counts = sketches.iter().map(|s| s.count).collect();
    let centroids = sketches.iter().flat_map(|s| &s.centroid).copied().collect();
    let mut merging = Agglomeration::new(centroids, width, counts);
    merging.merge_while(|live, d| live > goal || (target.is_none() && d <= stop_distance));
    let roots = merging.roots();

    // Gather members per surviving sketch (ascending ranks by
    // construction) and pick each representative in a second row-by-row
    // pass: the member closest to its centroid, lowest rank on ties.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); sketches.len()];
    for (rank, &a) in assignment.iter().enumerate() {
        members[roots[a as usize]].push(rank);
    }
    let mut rep: Vec<Option<(usize, f64)>> = vec![None; sketches.len()];
    for (p, &a) in assignment.iter().enumerate().take(n) {
        let row = matrix.process_sos(ProcessId::from_index(p));
        for (i, slot) in profile.iter_mut().enumerate() {
            *slot = row.get(i).map(|d| d.0 as f64).unwrap_or(0.0);
        }
        let s = roots[a as usize];
        let d = euclidean(&profile, merging.centroid(s));
        let better = match rep[s] {
            None => true,
            Some((_, bd)) => d < bd,
        };
        if better {
            rep[s] = Some((p, d));
        }
    }

    let mut clusters: Vec<Cluster> = (0..sketches.len())
        .filter(|&i| !members[i].is_empty())
        .map(|i| Cluster {
            members: members[i]
                .iter()
                .map(|&m| ProcessId::from_index(m))
                .collect(),
            representative: ProcessId::from_index(rep[i].map(|(p, _)| p).unwrap_or(members[i][0])),
            centroid: merging.centroid(i).to_vec(),
        })
        .collect();
    clusters.sort_by_key(|c| (std::cmp::Reverse(c.members.len()), c.members[0].0));
    ProcessClustering { clusters }
}

/// The clustering of diagnoses before the shared merge engine, kept as
/// its oracle: the exact path's threshold run recomputed from scratch
/// when it overshoots the cap, and the sketch path's own full-rescan
/// merge loop.
#[cfg(test)]
mod oracle {
    use super::*;

    /// [`super::median`] by a full sort.
    pub(super) fn median(values: &[f64]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        v[(v.len() - 1) / 2]
    }

    /// [`super::cluster_summarised`] before the merge engine.
    pub(super) fn cluster_summarised(
        matrix: &SosMatrix,
        config: &DiagnoseConfig,
    ) -> ProcessClustering {
        let n = matrix.num_processes();
        let max_clusters = config.max_clusters.max(1);
        let target = config
            .cluster
            .num_clusters
            .map(|k| k.clamp(1, max_clusters));
        if n <= config.exact_threshold {
            let c = crate::clustering::oracle::compute(
                matrix,
                ClusterConfig {
                    distance_threshold: config.cluster.distance_threshold,
                    num_clusters: target,
                },
            );
            if c.len() <= max_clusters {
                return c;
            }
            // Threshold clustering overshot the row budget: force the cap.
            return crate::clustering::oracle::compute(
                matrix,
                ClusterConfig {
                    distance_threshold: config.cluster.distance_threshold,
                    num_clusters: Some(max_clusters),
                },
            );
        }
        cluster_streaming(
            matrix,
            config.cluster.distance_threshold,
            target,
            max_clusters,
        )
    }

    /// Deterministic single-pass sketch clustering for large runs.
    ///
    /// Ranks are folded in ascending order: each per-rank SOS profile is
    /// absorbed into the nearest sketch if within the stop distance, else it
    /// opens a new sketch; once the sketch budget is full, profiles are
    /// absorbed into their nearest sketch unconditionally (the summariser
    /// trades tail precision for a hard memory bound, like the rest of the
    /// out-of-core pipeline). A final agglomerative pass merges the sketch
    /// centroids down to the requested cluster count. O(ranks × budget ×
    /// width) time, O(budget × width + ranks) memory — the full rank×segment
    /// matrix is only ever read row by row.
    fn cluster_streaming(
        matrix: &SosMatrix,
        distance_threshold: f64,
        target: Option<usize>,
        max_clusters: usize,
    ) -> ProcessClustering {
        let n = matrix.num_processes();
        let width = (0..n)
            .map(|p| matrix.process_sos(ProcessId::from_index(p)).len())
            .max()
            .unwrap_or(0);
        let stats = matrix.sos_stats();
        let rms = (stats.mean * stats.mean + stats.stddev * stats.stddev).sqrt();
        let stop_distance = if rms == 0.0 {
            0.0
        } else {
            distance_threshold * rms
        };
        let budget = (max_clusters * 4).clamp(32, 256);

        struct Sketch {
            centroid: Vec<f64>,
            count: usize,
        }
        let mut sketches: Vec<Sketch> = Vec::new();
        let mut assignment: Vec<u32> = Vec::with_capacity(n);
        let mut profile = vec![0.0f64; width];
        for p in 0..n {
            let row = matrix.process_sos(ProcessId::from_index(p));
            for (i, slot) in profile.iter_mut().enumerate() {
                *slot = row.get(i).map(|d| d.0 as f64).unwrap_or(0.0);
            }
            let nearest = sketches
                .iter()
                .enumerate()
                .map(|(i, s)| (i, euclidean(&profile, &s.centroid)))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            match nearest {
                Some((i, d)) if d <= stop_distance || sketches.len() >= budget => {
                    let s = &mut sketches[i];
                    let k = s.count as f64;
                    for (c, v) in s.centroid.iter_mut().zip(&profile) {
                        *c = (*c * k + v) / (k + 1.0);
                    }
                    s.count += 1;
                    assignment.push(i as u32);
                }
                _ => {
                    assignment.push(sketches.len() as u32);
                    sketches.push(Sketch {
                        centroid: profile.clone(),
                        count: 1,
                    });
                }
            }
        }
        if sketches.is_empty() {
            return ProcessClustering {
                clusters: Vec::new(),
            };
        }

        // Agglomerative merge of the sketch centroids (k ≤ budget, so the
        // quadratic closest-pair search is cheap). Same semantics as the
        // exact algorithm: to the fixed target if given, else within the
        // stop distance — but never more than `max_clusters` groups.
        let goal = target.unwrap_or(max_clusters).max(1);
        let mut redirect: Vec<usize> = (0..sketches.len()).collect();
        let mut alive: Vec<bool> = vec![true; sketches.len()];
        let mut live = sketches.len();
        while live > 1 {
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..sketches.len() {
                if !alive[i] {
                    continue;
                }
                for j in (i + 1)..sketches.len() {
                    if !alive[j] {
                        continue;
                    }
                    let d = euclidean(&sketches[i].centroid, &sketches[j].centroid);
                    let better = match best {
                        None => true,
                        Some((bi, bj, bd)) => match d.total_cmp(&bd) {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Equal => (i, j) < (bi, bj),
                            std::cmp::Ordering::Greater => false,
                        },
                    };
                    if better {
                        best = Some((i, j, d));
                    }
                }
            }
            let Some((i, j, d)) = best else { break };
            let over_goal = live > goal;
            let within_threshold = target.is_none() && d <= stop_distance && live > 1;
            if !(over_goal || within_threshold) {
                break;
            }
            let (ci, cj) = (sketches[i].count as f64, sketches[j].count as f64);
            let merged: Vec<f64> = sketches[i]
                .centroid
                .iter()
                .zip(&sketches[j].centroid)
                .map(|(a, b)| (a * ci + b * cj) / (ci + cj))
                .collect();
            sketches[i].centroid = merged;
            sketches[i].count += sketches[j].count;
            alive[j] = false;
            redirect[j] = i;
            live -= 1;
        }
        // Resolve merge chains.
        let resolve = |mut i: usize, redirect: &[usize]| {
            while redirect[i] != i {
                i = redirect[i];
            }
            i
        };

        // Gather members per surviving sketch (ascending ranks by
        // construction) and pick each representative in a second row-by-row
        // pass: the member closest to its centroid, lowest rank on ties.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); sketches.len()];
        for (rank, &a) in assignment.iter().enumerate() {
            members[resolve(a as usize, &redirect)].push(rank);
        }
        let mut rep: Vec<Option<(usize, f64)>> = vec![None; sketches.len()];
        for (p, &a) in assignment.iter().enumerate().take(n) {
            let row = matrix.process_sos(ProcessId::from_index(p));
            for (i, slot) in profile.iter_mut().enumerate() {
                *slot = row.get(i).map(|d| d.0 as f64).unwrap_or(0.0);
            }
            let s = resolve(a as usize, &redirect);
            let d = euclidean(&profile, &sketches[s].centroid);
            let better = match rep[s] {
                None => true,
                Some((_, bd)) => d < bd,
            };
            if better {
                rep[s] = Some((p, d));
            }
        }

        let mut clusters: Vec<crate::clustering::Cluster> = (0..sketches.len())
            .filter(|&i| alive[i] && !members[i].is_empty())
            .map(|i| crate::clustering::Cluster {
                members: members[i]
                    .iter()
                    .map(|&m| ProcessId::from_index(m))
                    .collect(),
                representative: ProcessId::from_index(
                    rep[i].map(|(p, _)| p).unwrap_or(members[i][0]),
                ),
                centroid: sketches[i].centroid.clone(),
            })
            .collect();
        clusters.sort_by_key(|c| (std::cmp::Reverse(c.members.len()), c.members[0].0));
        ProcessClustering { clusters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{analyze, AnalysisConfig};
    use perfvar_sim::simulate;
    use perfvar_sim::workloads::{BalancedStencil, CosmoSpecs, DesyncWave, Workload};

    fn diagnose_workload(spec: &perfvar_sim::AppSpec) -> (Diagnosis, Analysis) {
        let trace = simulate(spec).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let meta = perfvar_trace::TraceMeta::of(&trace);
        let d = diagnose_meta(&meta, &analysis, &DiagnoseConfig::default());
        (d, analysis)
    }

    /// A scaled-down COSMO-SPECS whose cloud is strong enough that the
    /// cloudy ranks' *median* load clears the persistent-overload bar
    /// even over a short test run (the paper's 60-iteration cloud builds
    /// up slowly).
    fn strong_cosmo(rows: usize, cols: usize, iterations: usize) -> CosmoSpecs {
        let mut w = CosmoSpecs::small(rows, cols, iterations);
        w.cloud_amplitude = 6.0;
        w
    }

    #[test]
    fn cosmo_specs_isolates_overloaded_cluster() {
        let w = strong_cosmo(4, 4, 8);
        let (d, _) = diagnose_workload(&w.spec());
        assert!(d.clusters.len() >= 2, "{}", d.render_text());
        // The cloudy ranks end up outside the baseline cluster, and the
        // top finding blames an overloaded cluster containing them.
        let top = &d.findings[0];
        let FindingKind::OverloadedCluster { processes, .. } = &top.kind else {
            panic!(
                "top finding not an overloaded cluster:\n{}",
                d.render_text()
            );
        };
        for hot in w.cloudy_ranks() {
            assert!(
                processes.contains(&ProcessId::from_index(hot)),
                "cloudy rank {hot} missing from {processes:?}"
            );
        }
        assert!(top
            .description
            .contains("persistent computational overload"));
        // The flagged cluster's cause label agrees.
        let FindingKind::OverloadedCluster { cluster, .. } = &top.kind else {
            unreachable!()
        };
        assert!(d.clusters[*cluster].cause.contains("overload"));
    }

    #[test]
    fn desync_wave_is_classified_as_propagating_wait() {
        let w = DesyncWave::new(16, 20, 4);
        let (d, _) = diagnose_workload(&w.spec());
        let wave = d.wave.as_ref().expect("no wave detected");
        assert_eq!(wave.origin, ProcessId::from_index(4));
        assert_eq!(wave.start_ordinal, w.delay_iteration);
        assert_eq!(wave.direction, 1);
        assert!(wave.fit >= 0.8);
        let top = &d.findings[0];
        let FindingKind::PropagatingWait {
            origin,
            start_ordinal,
            affected_ranks,
        } = &top.kind
        else {
            panic!("top finding not a wave: {}", d.render_text());
        };
        assert_eq!(*origin, ProcessId::from_index(4));
        assert_eq!(*start_ordinal, w.delay_iteration);
        assert!(*affected_ranks >= 8, "{affected_ranks}");
        // The origin's cluster is labelled as the launcher, not as a
        // persistent overload.
        let origin_cluster = d
            .clusters
            .iter()
            .find(|c| c.members.contains(&ProcessId::from_index(4)))
            .unwrap();
        assert!(
            origin_cluster.cause.contains("launched the idle wave")
                || origin_cluster.cause.contains("baseline"),
            "{}",
            origin_cluster.cause
        );
    }

    #[test]
    fn static_imbalance_is_not_a_wave() {
        let w = CosmoSpecs::small(4, 4, 8);
        let (d, _) = diagnose_workload(&w.spec());
        assert!(d.wave.is_none(), "{:?}", d.wave);
    }

    #[test]
    fn balanced_run_is_one_cluster_without_wave() {
        let w = BalancedStencil::new(8, 10);
        let (d, _) = diagnose_workload(&w.spec());
        assert_eq!(d.clusters.len(), 1, "{}", d.render_text());
        assert_eq!(d.clusters[0].cause, "baseline behaviour");
        assert!(d.wave.is_none());
        assert_eq!(d.clusters[0].members.len(), 8);
    }

    #[test]
    fn streaming_path_matches_exact_groups() {
        // Same trace clustered exactly and via the streaming summariser:
        // the behaviour groups must agree on this clean two-group input.
        let w = CosmoSpecs::small(4, 4, 8);
        let trace = simulate(&w.spec()).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let meta = perfvar_trace::TraceMeta::of(&trace);
        let exact = diagnose_meta(&meta, &analysis, &DiagnoseConfig::default());
        let streamed = diagnose_meta(
            &meta,
            &analysis,
            &DiagnoseConfig {
                exact_threshold: 0,
                ..DiagnoseConfig::default()
            },
        );
        let sets = |d: &Diagnosis| -> Vec<Vec<u32>> {
            d.clusters
                .iter()
                .map(|c| c.members.iter().map(|p| p.0).collect())
                .collect()
        };
        assert_eq!(sets(&exact), sets(&streamed));
    }

    #[test]
    fn cluster_cap_limits_heatmap_rows() {
        // Wildly different per-rank loads: the exact threshold would make
        // many clusters; the cap keeps the summary at ≤ max_clusters.
        let w = perfvar_sim::workloads::RandomImbalance::new(64, 6);
        let trace = simulate(&w.spec()).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let meta = perfvar_trace::TraceMeta::of(&trace);
        for exact_threshold in [512, 0] {
            let d = diagnose_meta(
                &meta,
                &analysis,
                &DiagnoseConfig {
                    max_clusters: 5,
                    exact_threshold,
                    ..DiagnoseConfig::default()
                },
            );
            assert!(d.clusters.len() <= 5, "{} rows", d.clusters.len());
            let total: usize = d.clusters.iter().map(|c| c.members.len()).sum();
            assert_eq!(total, 64);
        }
    }

    #[test]
    fn diagnosis_is_deterministic_and_serde_round_trips() {
        let w = DesyncWave::new(12, 16, 3);
        let (a, analysis) = diagnose_workload(&w.spec());
        let trace = simulate(&w.spec()).unwrap();
        let meta = perfvar_trace::TraceMeta::of(&trace);
        let b = diagnose_meta(&meta, &analysis, &DiagnoseConfig::default());
        assert_eq!(a, b);
        let json = serde_json::to_string_pretty(&a).unwrap();
        let back: Diagnosis = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn render_text_names_clusters_and_causes() {
        let w = CosmoSpecs::small(4, 4, 8);
        let (d, _) = diagnose_workload(&w.spec());
        let text = d.render_text();
        assert!(text.contains("behaviour clusters"));
        assert!(text.contains("cluster #0"));
        assert!(text.contains("cause:"));
        assert!(text.contains("findings"));
    }

    mod properties {
        use super::*;
        use crate::clustering::oracle::{arb_num_clusters, arb_sos_rows, bits};
        use crate::imbalance::oracle::arb_values;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn selection_median_matches_the_sorting_oracle(values in arb_values()) {
                prop_assert_eq!(median(&values).to_bits(), oracle::median(&values).to_bits());
            }

            /// Both paths, every stop rule and row cap — including a
            /// threshold run that overshoots the cap — against the full
            /// rescans.
            #[test]
            fn summarised_clustering_matches_the_full_rescan_oracle(
                rows in arb_sos_rows(),
                num_clusters in arb_num_clusters(),
                max_clusters in 0usize..43,
                threshold in prop_oneof![Just(0.0f64), 0.0f64..1.0],
                exact in 0usize..2,
            ) {
                let m = crate::segment::Segmentation::from_sos_rows(&rows);
                let config = DiagnoseConfig {
                    cluster: ClusterConfig {
                        distance_threshold: threshold,
                        num_clusters,
                    },
                    max_clusters,
                    exact_threshold: [512, 0][exact],
                };
                prop_assert_eq!(
                    bits(&cluster_summarised(&SosMatrix::from_segmentation(&m), &config)),
                    bits(&oracle::cluster_summarised(&SosMatrix::from_segmentation(&m), &config))
                );
            }
        }
    }

    #[test]
    fn empty_analysis_diagnoses_to_nothing() {
        let w = BalancedStencil::new(1, 3);
        let (d, _) = diagnose_workload(&w.spec());
        assert_eq!(d.clusters.len(), 1);
        assert!(d.wave.is_none());
    }
}
