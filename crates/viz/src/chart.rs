//! Chart model and chart builders.
//!
//! A [`TimelineChart`] is renderer-independent data: one row per process,
//! coloured spans on a shared time axis, optional message arrows, a
//! categorical legend and/or a continuous colour-scale legend. The three
//! builders produce the chart types used by the paper's figures.

use crate::color::{Color, ColorScale, FunctionPalette};
use perfvar_analysis::activity::{Activity, BucketGrid};
use perfvar_analysis::messages::MessageAnalysis;
use perfvar_analysis::{Analysis, CounterMatrix, Diagnosis};
use perfvar_trace::{Clock, FunctionId, ProcessId, Timestamp, Trace, TraceMeta};
use serde::{Deserialize, Serialize};

/// One coloured interval on a row.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Interval start.
    pub start: Timestamp,
    /// Interval end.
    pub end: Timestamp,
    /// Fill colour.
    pub color: Color,
}

/// One chart row (a process).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Row label (process name).
    pub label: String,
    /// Spans in time order.
    pub spans: Vec<Span>,
}

/// A point-to-point message drawn as an arrow (the paper's "black
/// lines").
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MessageArrow {
    /// Sending process row.
    pub from_row: usize,
    /// Send timestamp.
    pub from_time: Timestamp,
    /// Receiving process row.
    pub to_row: usize,
    /// Receive timestamp.
    pub to_time: Timestamp,
}

/// A categorical legend entry.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LegendEntry {
    /// Display label.
    pub label: String,
    /// Swatch colour.
    pub color: Color,
}

/// A continuous colour-scale legend (for metric heatmaps).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScaleLegend {
    /// Label of the cold end.
    pub min_label: String,
    /// Label of the hot end.
    pub max_label: String,
    /// Quantity description, e.g. `"SOS-time"`.
    pub quantity: String,
}

/// A renderer-independent timeline chart.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimelineChart {
    /// Chart title.
    pub title: String,
    /// Secondary line under the title.
    pub subtitle: String,
    /// Clock for axis formatting.
    pub clock: Clock,
    /// Time-axis start.
    pub begin: Timestamp,
    /// Time-axis end.
    pub end: Timestamp,
    /// Rows, one per process.
    pub rows: Vec<Row>,
    /// Message arrows.
    pub messages: Vec<MessageArrow>,
    /// Categorical legend.
    pub legend: Vec<LegendEntry>,
    /// Continuous scale legend.
    pub scale: Option<ScaleLegend>,
}

/// Options for the chart builders.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TimelineOptions {
    /// Number of time buckets per row for the function timeline: each
    /// bucket is coloured by the function holding the most time in it
    /// (how real trace browsers render beyond pixel resolution).
    pub buckets: usize,
    /// Include message arrows.
    pub include_messages: bool,
    /// Cap on rendered message arrows (uniformly thinned above this).
    pub max_messages: usize,
    /// Cap on categorical legend entries (top by total time).
    pub max_legend: usize,
}

impl Default for TimelineOptions {
    fn default() -> TimelineOptions {
        TimelineOptions {
            buckets: 960,
            include_messages: true,
            max_messages: 512,
            max_legend: 8,
        }
    }
}

/// Builds the master-timeline chart (Figs. 4(a), 5(a), 6(a)): every
/// process row shows the dominant activity per time bucket, coloured by
/// the [`FunctionPalette`]. The chart fold and the message matcher run
/// over the in-memory streams; [`function_timeline_of`] is the chart.
pub fn function_timeline(trace: &Trace, opts: &TimelineOptions) -> TimelineChart {
    let grid = BucketGrid::new(trace.begin(), trace.end(), opts.buckets);
    let activity = Activity::of_trace(trace, Some(grid), 1);
    let messages = opts
        .include_messages
        .then(|| MessageAnalysis::match_endpoints(&activity.endpoints));
    function_timeline_of(&activity, opts, messages.as_ref())
}

/// The master timeline from the chart fold of a trace: the rows, legend,
/// axis and buckets come from `activity`, the arrows from `messages`. No
/// arrows without a match or with [`TimelineOptions::include_messages`]
/// off; [`TimelineOptions::buckets`] is not read, the fold's grid is.
///
/// # Panics
/// Panics if `activity` was folded without a bucket grid.
pub fn function_timeline_of(
    activity: &Activity,
    opts: &TimelineOptions,
    messages: Option<&MessageAnalysis>,
) -> TimelineChart {
    let meta = &activity.meta;
    let grid = activity
        .grid
        .expect("the activity is folded with a timeline");
    let palette = FunctionPalette;
    let registry = &meta.registry;
    let color_of = |f: FunctionId| palette.function_color(f.index(), registry.function_role(f));
    let rows = (activity.rows.iter().enumerate())
        .map(|(p, runs)| {
            let mut spans: Vec<Span> = Vec::with_capacity(runs.len());
            for run in runs {
                // Colours the run, merging it into an equal left
                // neighbour.
                let color = color_of(run.function);
                let (start, stop) = (grid.start(run.first), grid.stop(run.last));
                match spans.last_mut() {
                    Some(prev) if prev.color == color && prev.end == start => prev.end = stop,
                    _ => spans.push(Span {
                        start,
                        end: stop,
                        color,
                    }),
                }
            }
            Row {
                label: registry.process(ProcessId::from_index(p)).name.clone(),
                spans,
            }
        })
        .collect();

    // Legend: top functions by total ticks.
    let mut by_ticks: Vec<(FunctionId, u64)> = (activity.function_ticks.iter().enumerate())
        .filter(|&(_, &t)| t > 0)
        .map(|(f, &t)| (FunctionId::from_index(f), t))
        .collect();
    by_ticks.sort_by_key(|(f, t)| (std::cmp::Reverse(*t), f.0));
    let legend = by_ticks
        .iter()
        .take(opts.max_legend)
        .map(|(f, _)| LegendEntry {
            label: registry.function_name(*f).to_string(),
            color: color_of(*f),
        })
        .collect();

    let messages = match messages {
        Some(messages) if opts.include_messages => collect_messages(messages, opts.max_messages),
        _ => Vec::new(),
    };

    TimelineChart {
        title: format!("Timeline — {}", meta.name),
        subtitle: format!(
            "{} processes, {}",
            meta.num_processes(),
            meta.clock.format_duration(meta.span())
        ),
        clock: meta.clock,
        begin: meta.begin,
        end: meta.end,
        rows,
        messages,
        legend,
        scale: None,
    }
}

/// Turns matched messages into arrows, uniformly thinned to
/// `max_messages`.
fn collect_messages(analysis: &MessageAnalysis, max_messages: usize) -> Vec<MessageArrow> {
    let mut arrows: Vec<MessageArrow> = analysis
        .messages
        .iter()
        .map(|m| MessageArrow {
            from_row: m.from.index(),
            from_time: m.send_time,
            to_row: m.to.index(),
            to_time: m.recv_time,
        })
        .collect();
    if arrows.len() > max_messages && max_messages > 0 {
        let step = arrows.len().div_ceil(max_messages);
        arrows = arrows.into_iter().step_by(step).collect();
    }
    arrows
}

/// Builds the SOS-time heatmap (Figs. 4(b), 5(b), 5(c), 6(b)): every
/// segment of the analysis coloured on the cold→hot scale by its
/// SOS-time. This is the paper's §VI visualization.
///
/// Rows with more segments than [`TimelineOptions::buckets`] of the
/// default options are downsampled per bucket keeping the **maximum**
/// SOS value — hot cells survive any zoom level (never average a
/// hotspot away).
pub fn sos_heatmap(trace: &Trace, analysis: &Analysis) -> TimelineChart {
    sos_heatmap_with(trace, analysis, TimelineOptions::default().buckets)
}

/// [`sos_heatmap`] with an explicit per-row segment budget.
pub fn sos_heatmap_with(
    trace: &Trace,
    analysis: &Analysis,
    max_spans_per_row: usize,
) -> TimelineChart {
    sos_heatmap_meta(&TraceMeta::of(trace), analysis, max_spans_per_row)
}

/// [`sos_heatmap_with`] from trace metadata alone: an out-of-core
/// analysis holds a [`TraceMeta`], never a [`Trace`].
pub fn sos_heatmap_meta(
    meta: &TraceMeta,
    analysis: &Analysis,
    max_spans_per_row: usize,
) -> TimelineChart {
    let scale = ColorScale::from_values(analysis.sos().iter_sos().map(|(_, _, v)| v.0 as f64));
    let registry = &meta.registry;
    let rows = (0..analysis.segmentation.num_processes())
        .map(|p| {
            let pid = ProcessId::from_index(p);
            let segments = analysis.segmentation.process(pid);
            let spans = if segments.len() <= max_spans_per_row.max(1) {
                segments
                    .iter()
                    .map(|s| Span {
                        start: s.enter,
                        end: s.leave,
                        color: scale.heat(s.sos().0 as f64),
                    })
                    .collect()
            } else {
                // Merge consecutive segments into ≤ max_spans buckets,
                // coloured by the hottest member.
                let per_bucket = segments.len().div_ceil(max_spans_per_row.max(1));
                segments
                    .chunks(per_bucket)
                    .map(|chunk| {
                        let hottest = chunk.iter().map(|s| s.sos().0).max().unwrap_or(0);
                        Span {
                            start: chunk.first().unwrap().enter,
                            end: chunk.last().unwrap().leave,
                            color: scale.heat(hottest as f64),
                        }
                    })
                    .collect()
            };
            Row {
                label: registry.process(pid).name.clone(),
                spans,
            }
        })
        .collect();
    let clock = meta.clock;
    TimelineChart {
        title: format!("SOS-time — {}", meta.name),
        subtitle: format!(
            "segments = invocations of {:?}",
            registry.function_name(analysis.function)
        ),
        clock,
        begin: meta.begin,
        end: meta.end,
        rows,
        messages: Vec::new(),
        legend: Vec::new(),
        scale: Some(ScaleLegend {
            min_label: clock.format_duration(perfvar_trace::DurationTicks(scale.min as u64)),
            max_label: clock.format_duration(perfvar_trace::DurationTicks(scale.max as u64)),
            quantity: "SOS-time".to_string(),
        }),
    }
}

/// Builds the cluster-summarised SOS heatmap: **one row per behaviour
/// cluster** of a [`Diagnosis`], showing the representative rank's
/// segments on the same cold→hot scale as [`sos_heatmap`]. This is what
/// makes 10k–100k-rank runs readable — the diagnosis caps the cluster
/// count, so the chart height is bounded no matter the rank count, and
/// the row label carries the cluster size and the spread band (the
/// relative stddev of the members' total SOS) so summarisation never
/// hides how tight a cluster is.
///
/// Works from [`TraceMeta`] rather than a full trace: the diagnose path
/// is out-of-core and never materialises the events.
pub fn cluster_heatmap(
    meta: &TraceMeta,
    analysis: &Analysis,
    diagnosis: &Diagnosis,
    max_spans_per_row: usize,
) -> TimelineChart {
    let scale = ColorScale::from_values(analysis.sos().iter_sos().map(|(_, _, v)| v.0 as f64));
    let rows = diagnosis
        .clusters
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let rep = c.representative;
            let segments = analysis.segmentation.process(rep);
            let spans = if segments.len() <= max_spans_per_row.max(1) {
                segments
                    .iter()
                    .map(|s| Span {
                        start: s.enter,
                        end: s.leave,
                        color: scale.heat(s.sos().0 as f64),
                    })
                    .collect()
            } else {
                // Same keep-max downsampling as the per-rank heatmap:
                // hot cells survive any zoom level.
                let per_bucket = segments.len().div_ceil(max_spans_per_row.max(1));
                segments
                    .chunks(per_bucket)
                    .map(|chunk| {
                        let hottest = chunk.iter().map(|s| s.sos().0).max().unwrap_or(0);
                        Span {
                            start: chunk.first().unwrap().enter,
                            end: chunk.last().unwrap().leave,
                            color: scale.heat(hottest as f64),
                        }
                    })
                    .collect()
            };
            let band = if c.spread.mean > 0.0 {
                format!(" ±{:.0}%", c.spread.stddev / c.spread.mean * 100.0)
            } else {
                String::new()
            };
            Row {
                label: format!("c{i} ×{} {rep}{band}", c.members.len()),
                spans,
            }
        })
        .collect();
    let clock = meta.clock;
    TimelineChart {
        title: format!("Cluster SOS-time — {}", meta.name),
        subtitle: format!(
            "{} processes in {} behaviour cluster(s); segments = invocations of {:?}",
            diagnosis.num_processes,
            diagnosis.clusters.len(),
            diagnosis.function
        ),
        clock,
        begin: meta.begin,
        end: meta.end,
        rows,
        messages: Vec::new(),
        legend: Vec::new(),
        scale: Some(ScaleLegend {
            min_label: clock.format_duration(perfvar_trace::DurationTicks(scale.min as u64)),
            max_label: clock.format_duration(perfvar_trace::DurationTicks(scale.max as u64)),
            quantity: "SOS-time".to_string(),
        }),
    }
}

/// Builds a counter heatmap (Fig. 6(c)): segments coloured by the
/// attributed value of `counter`.
pub fn counter_heatmap(
    trace: &Trace,
    analysis: &Analysis,
    counter: &CounterMatrix,
) -> TimelineChart {
    counter_heatmap_meta(&TraceMeta::of(trace), analysis, counter)
}

/// [`counter_heatmap`] from trace metadata alone.
pub fn counter_heatmap_meta(
    meta: &TraceMeta,
    analysis: &Analysis,
    counter: &CounterMatrix,
) -> TimelineChart {
    let scale = ColorScale::from_values(counter.iter().map(|(_, _, v)| v as f64));
    let registry = &meta.registry;
    let metric_def = registry.metric(counter.metric);
    let rows = (0..analysis.segmentation.num_processes())
        .map(|p| {
            let pid = ProcessId::from_index(p);
            let spans = analysis
                .segmentation
                .process(pid)
                .iter()
                .enumerate()
                .map(|(i, s)| Span {
                    start: s.enter,
                    end: s.leave,
                    color: scale.heat(counter.value(pid, i).unwrap_or(0) as f64),
                })
                .collect();
            Row {
                label: registry.process(pid).name.clone(),
                spans,
            }
        })
        .collect();
    TimelineChart {
        title: format!("{} — {}", metric_def.name, meta.name),
        subtitle: format!(
            "per segment of {:?}",
            registry.function_name(analysis.function)
        ),
        clock: meta.clock,
        begin: meta.begin,
        end: meta.end,
        rows,
        messages: Vec::new(),
        legend: Vec::new(),
        scale: Some(ScaleLegend {
            min_label: format!("{} {}", scale.min as u64, metric_def.unit),
            max_label: format!("{} {}", scale.max as u64, metric_def.unit),
            quantity: metric_def.name.clone(),
        }),
    }
}

/// Fixtures and oracles shared by the crate's tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use perfvar_sim::prelude::*;
    use perfvar_trace::{Clock, Event, FunctionRole, TraceBuilder};
    use std::collections::HashMap;

    /// The three case studies at small scale plus the `balanced`,
    /// `random` and `desync-wave` synthetic workloads.
    pub(crate) fn oracle_traces() -> Vec<Trace> {
        let mut cosmo = workloads::CosmoSpecs::small(3, 4, 6);
        cosmo.cloud_amplitude = 6.0;
        [
            cosmo.spec(),
            workloads::CosmoSpecsFd4::small(8, 3).spec(),
            workloads::Wrf::small(3, 4, 4).spec(),
            workloads::BalancedStencil::new(6, 8).spec(),
            workloads::RandomImbalance::new(6, 8).spec(),
            workloads::DesyncWave::new(8, 10, 3).spec(),
        ]
        .iter()
        .map(|spec| simulate(spec).unwrap())
        .collect()
    }

    /// A trace from random per-process op lists: `(op, function, gap)`
    /// enters `function` when `op < 2`, otherwise leaves the innermost
    /// open function; `gap` ticks pass before each op. Open calls are
    /// closed at the end.
    pub(crate) fn random_trace(processes: &[Vec<(u8, usize, u64)>], functions: usize) -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds()).with_name("random");
        let pids: Vec<ProcessId> = (0..processes.len())
            .map(|p| b.define_process(format!("P{p}")))
            .collect();
        let fids: Vec<FunctionId> = (0..functions)
            .map(|f| {
                let role = if f % 3 == 2 {
                    FunctionRole::MpiCollective
                } else {
                    FunctionRole::Compute
                };
                b.define_function(format!("f{f}"), role)
            })
            .collect();
        for (pid, ops) in pids.iter().zip(processes) {
            let w = b.process_mut(*pid);
            let mut t = 0;
            let mut stack = Vec::new();
            for &(op, f, gap) in ops {
                t += gap;
                if op < 2 {
                    w.enter(Timestamp(t), fids[f % functions]).unwrap();
                    stack.push(fids[f % functions]);
                } else if let Some(f) = stack.pop() {
                    w.leave(Timestamp(t), f).unwrap();
                }
            }
            while let Some(f) = stack.pop() {
                t += 1;
                w.leave(Timestamp(t), f).unwrap();
            }
        }
        b.finish().unwrap()
    }

    /// The per-bucket `HashMap` timeline builder the dense replay
    /// replaced, kept as its oracle.
    pub(crate) fn function_timeline_oracle(trace: &Trace, opts: &TimelineOptions) -> TimelineChart {
        let palette = FunctionPalette;
        let begin = trace.begin();
        let end = trace.end();
        let span = (end.0 - begin.0).max(1);
        let buckets = opts.buckets.max(1);
        let bucket_width = span.div_ceil(buckets as u64).max(1);
        let registry = trace.registry();

        let mut function_ticks: HashMap<FunctionId, u64> = HashMap::new();
        let mut rows = Vec::with_capacity(trace.num_processes());
        for stream in trace.streams() {
            let mut ticks: Vec<HashMap<FunctionId, u64>> = vec![HashMap::new(); buckets];
            let mut stack: Vec<FunctionId> = Vec::new();
            let mut last: Option<Timestamp> = None;
            for r in stream.records() {
                if let (Some(prev), Some(&top)) = (last, stack.last()) {
                    let mut start = prev.0 - begin.0;
                    let stop = r.time.0 - begin.0;
                    while start < stop {
                        let b = ((start / bucket_width) as usize).min(buckets - 1);
                        let boundary = if b == buckets - 1 {
                            u64::MAX
                        } else {
                            (b as u64 + 1) * bucket_width
                        };
                        let chunk_end = stop.min(boundary);
                        *ticks[b].entry(top).or_insert(0) += chunk_end - start;
                        *function_ticks.entry(top).or_insert(0) += chunk_end - start;
                        start = chunk_end;
                    }
                }
                last = Some(r.time);
                match r.event {
                    Event::Enter { function } => stack.push(function),
                    Event::Leave { .. } => {
                        stack.pop();
                    }
                    _ => {}
                }
            }
            let mut spans: Vec<Span> = Vec::new();
            for (b, bucket) in ticks.iter().enumerate() {
                let Some((&f, _)) = bucket
                    .iter()
                    .max_by_key(|(f, &t)| (t, std::cmp::Reverse(f.0)))
                else {
                    continue;
                };
                let color = palette.function_color(f.index(), registry.function_role(f));
                let start = Timestamp(begin.0 + b as u64 * bucket_width);
                let stop = Timestamp((begin.0 + (b as u64 + 1) * bucket_width).min(end.0));
                match spans.last_mut() {
                    Some(prev) if prev.color == color && prev.end == start => prev.end = stop,
                    _ => spans.push(Span {
                        start,
                        end: stop,
                        color,
                    }),
                }
            }
            rows.push(Row {
                label: registry.process(stream.process).name.clone(),
                spans,
            });
        }

        let mut by_ticks: Vec<(FunctionId, u64)> = function_ticks.into_iter().collect();
        by_ticks.sort_by_key(|(f, t)| (std::cmp::Reverse(*t), f.0));
        let legend = by_ticks
            .iter()
            .take(opts.max_legend)
            .map(|(f, _)| LegendEntry {
                label: registry.function_name(*f).to_string(),
                color: palette.function_color(f.index(), registry.function_role(*f)),
            })
            .collect();

        let messages = if opts.include_messages {
            collect_messages(&MessageAnalysis::match_trace(trace), opts.max_messages)
        } else {
            Vec::new()
        };

        TimelineChart {
            title: format!("Timeline — {}", trace.name),
            subtitle: format!(
                "{} processes, {}",
                trace.num_processes(),
                trace.clock().format_duration(trace.span())
            ),
            clock: trace.clock(),
            begin,
            end,
            rows,
            messages,
            legend,
            scale: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::*;
    use super::*;
    use perfvar_analysis::{analyze, AnalysisConfig};
    use perfvar_sim::prelude::*;
    use perfvar_sim::workloads::SingleOutlier;

    fn outlier_setup() -> (perfvar_trace::Trace, Analysis) {
        let trace = simulate(&SingleOutlier::new(4, 6, 2).spec()).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        (trace, analysis)
    }

    #[test]
    fn function_timeline_has_row_per_process() {
        let (trace, _) = outlier_setup();
        let chart = function_timeline(&trace, &TimelineOptions::default());
        assert_eq!(chart.rows.len(), 4);
        assert!(!chart.legend.is_empty());
        assert!(chart.rows.iter().all(|r| !r.spans.is_empty()));
        // Spans lie within the axis and are ordered.
        for row in &chart.rows {
            for w in row.spans.windows(2) {
                assert!(w[0].end <= w[1].start);
            }
            assert!(row.spans.first().unwrap().start >= chart.begin);
            assert!(row.spans.last().unwrap().end <= chart.end);
        }
    }

    #[test]
    fn sos_heatmap_hottest_cell_is_the_outlier() {
        let (trace, analysis) = outlier_setup();
        let chart = sos_heatmap(&trace, &analysis);
        assert_eq!(chart.rows.len(), 4);
        assert!(chart.scale.is_some());
        // The single reddest span sits on row 2 (the injected outlier).
        let mut best: Option<(usize, u8)> = None;
        for (row_idx, row) in chart.rows.iter().enumerate() {
            for s in &row.spans {
                if best.is_none() || s.color.r > best.unwrap().1 {
                    best = Some((row_idx, s.color.r));
                }
            }
        }
        assert_eq!(best.unwrap().0, 2);
    }

    #[test]
    fn sos_heatmap_downsamples_but_keeps_the_hotspot() {
        let trace = simulate(&SingleOutlier::new(3, 40, 1).spec()).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        // Budget of 8 spans per row: 40 segments → ≤ 8 merged buckets.
        let chart = sos_heatmap_with(&trace, &analysis, 8);
        for row in &chart.rows {
            assert!(row.spans.len() <= 8, "{}", row.spans.len());
        }
        // The hottest span still sits on the outlier row (max-merge).
        let mut best: Option<(usize, i32)> = None;
        for (i, row) in chart.rows.iter().enumerate() {
            for s in &row.spans {
                let warmth = s.color.r as i32 - s.color.b as i32;
                if best.is_none() || warmth > best.unwrap().1 {
                    best = Some((i, warmth));
                }
            }
        }
        assert_eq!(best.unwrap().0, 1);
    }

    #[test]
    fn cluster_heatmap_draws_one_row_per_cluster() {
        use perfvar_analysis::{diagnose_meta, DiagnoseConfig};
        let mut w = workloads::CosmoSpecs::small(4, 4, 8);
        w.cloud_amplitude = 6.0;
        let trace = simulate(&w.spec()).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let meta = perfvar_trace::TraceMeta::of(&trace);
        let diagnosis = diagnose_meta(&meta, &analysis, &DiagnoseConfig::default());
        let chart = cluster_heatmap(&meta, &analysis, &diagnosis, 8);
        assert_eq!(chart.rows.len(), diagnosis.clusters.len());
        assert!(chart.rows.len() < 16, "clusters must summarise the ranks");
        // Labels carry cluster size and representative.
        assert!(
            chart.rows[0].label.starts_with("c0 ×"),
            "{}",
            chart.rows[0].label
        );
        assert!(chart.rows[0].label.contains('P'));
        // Row budget honoured, scale legend present.
        for row in &chart.rows {
            assert!(row.spans.len() <= 8);
            assert!(!row.spans.is_empty());
        }
        assert_eq!(chart.scale.as_ref().unwrap().quantity, "SOS-time");
        // The hot (cloudy) cluster's row contains the warmest span.
        let hot_row = diagnosis
            .clusters
            .iter()
            .position(|c| c.cause.contains("overload"))
            .expect("no overloaded cluster");
        let mut best: Option<(usize, i32)> = None;
        for (i, row) in chart.rows.iter().enumerate() {
            for s in &row.spans {
                let warmth = s.color.r as i32 - s.color.b as i32;
                if best.is_none() || warmth > best.unwrap().1 {
                    best = Some((i, warmth));
                }
            }
        }
        assert_eq!(best.unwrap().0, hot_row);
    }

    #[test]
    fn cluster_heatmap_caps_rows_at_scale() {
        use perfvar_analysis::{diagnose_meta, DiagnoseConfig};
        let trace = simulate(&workloads::RandomImbalance::new(48, 5).spec()).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let meta = perfvar_trace::TraceMeta::of(&trace);
        let diagnosis = diagnose_meta(
            &meta,
            &analysis,
            &DiagnoseConfig {
                max_clusters: 6,
                ..DiagnoseConfig::default()
            },
        );
        let chart = cluster_heatmap(&meta, &analysis, &diagnosis, 960);
        assert!(chart.rows.len() <= 6, "{} rows", chart.rows.len());
    }

    #[test]
    fn counter_heatmap_builds() {
        // Use a workload with a metric channel.
        let trace = simulate(&workloads::CosmoSpecsFd4::small(4, 2).spec()).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        assert!(!analysis.counters.is_empty());
        let chart = counter_heatmap(&trace, &analysis, &analysis.counters[0].matrix);
        assert_eq!(chart.rows.len(), 4);
        assert!(chart.title.contains("PAPI_TOT_CYC"));
    }

    #[test]
    fn message_arrows_match_sends() {
        let trace = simulate(&workloads::CosmoSpecsFd4::small(4, 1).spec()).unwrap();
        let chart = function_timeline(&trace, &TimelineOptions::default());
        // 4 ranks × 3 timesteps of ring exchange = 12 messages.
        assert_eq!(chart.messages.len(), 12);
        for m in &chart.messages {
            assert!(m.from_time <= m.to_time);
            assert!(m.from_row < 4 && m.to_row < 4);
        }
    }

    #[test]
    fn message_thinning_respects_cap() {
        let trace = simulate(&workloads::CosmoSpecsFd4::small(8, 2).spec()).unwrap();
        let opts = TimelineOptions {
            max_messages: 5,
            ..TimelineOptions::default()
        };
        let chart = function_timeline(&trace, &opts);
        assert!(chart.messages.len() <= 5);
        assert!(!chart.messages.is_empty());
    }

    #[test]
    fn messages_can_be_disabled() {
        let trace = simulate(&workloads::CosmoSpecsFd4::small(4, 1).spec()).unwrap();
        let opts = TimelineOptions {
            include_messages: false,
            ..TimelineOptions::default()
        };
        assert!(function_timeline(&trace, &opts).messages.is_empty());
    }

    #[test]
    fn bucket_merging_bounds_span_count() {
        let (trace, _) = outlier_setup();
        let opts = TimelineOptions {
            buckets: 32,
            ..TimelineOptions::default()
        };
        let chart = function_timeline(&trace, &opts);
        for row in &chart.rows {
            assert!(row.spans.len() <= 32);
        }
    }

    /// The fold-built timeline at `threads` workers.
    fn folded_timeline(trace: &Trace, opts: &TimelineOptions, threads: usize) -> TimelineChart {
        let grid = BucketGrid::new(trace.begin(), trace.end(), opts.buckets);
        let activity = Activity::of_trace(trace, Some(grid), threads);
        let messages = MessageAnalysis::match_endpoints(&activity.endpoints);
        function_timeline_of(&activity, opts, Some(&messages))
    }

    #[test]
    fn timeline_matches_hashmap_oracle_on_workloads() {
        for trace in oracle_traces() {
            for buckets in [1, 7, 64, 960, 5000] {
                let opts = TimelineOptions {
                    buckets,
                    max_legend: 64,
                    ..TimelineOptions::default()
                };
                let expected = function_timeline_oracle(&trace, &opts);
                assert_eq!(function_timeline(&trace, &opts), expected, "{}", trace.name);
                for threads in [2, 8] {
                    assert_eq!(
                        folded_timeline(&trace, &opts, threads),
                        expected,
                        "{} at {threads} threads",
                        trace.name
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn timeline_matches_hashmap_oracle_on_random_traces(
            p0 in proptest::collection::vec((0..3u8, 0..6usize, 0..40u64), 0..120),
            p1 in proptest::collection::vec((0..3u8, 0..6usize, 0..400u64), 0..120),
            p2 in proptest::collection::vec((0..3u8, 0..6usize, 0..4u64), 0..60),
            functions in 1..=6usize,
            buckets in 1..=80usize,
        ) {
            let trace = random_trace(&[p0, p1, p2], functions);
            for buckets in [buckets, 1, 7, 960] {
                let opts = TimelineOptions {
                    buckets,
                    max_legend: 3,
                    ..TimelineOptions::default()
                };
                let expected = function_timeline_oracle(&trace, &opts);
                for threads in [1, 2, 8] {
                    proptest::prop_assert_eq!(&folded_timeline(&trace, &opts, threads), &expected);
                }
            }
        }
    }
}
