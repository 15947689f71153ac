//! Summary charts: function profiles, per-process load, SOS histograms.
//!
//! Vampir pairs its timelines with summary panels ("function summary",
//! per-process profiles); the paper's analysts read those to confirm
//! what the heatmap shows (e.g. "basic Vampir statistics for the
//! iterations show a 25 % fraction of MPI activities"). This module
//! provides the same companions: bar charts of exclusive time per
//! function and of total SOS per process, and a histogram of SOS values.

use crate::color::{Color, ColorScale, FunctionPalette};
use crate::text::{push_fixed, xml_escape};
use perfvar_analysis::profile::ProfileTable;
use perfvar_analysis::Analysis;
use perfvar_trace::{ProcessId, Trace, TraceMeta};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One bar.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Bar {
    /// Bar label.
    pub label: String,
    /// Bar value (ticks or counts).
    pub value: f64,
    /// Bar colour.
    pub color: Color,
}

/// A horizontal bar chart.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BarChart {
    /// Chart title.
    pub title: String,
    /// Unit label appended to values.
    pub unit: String,
    /// Bars, top to bottom.
    pub bars: Vec<Bar>,
}

/// A histogram over equal-width bins.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Chart title.
    pub title: String,
    /// Left edge of the first bin.
    pub min: f64,
    /// Right edge of the last bin.
    pub max: f64,
    /// Bin counts.
    pub counts: Vec<usize>,
}

/// Builds the function summary: exclusive time per function, descending,
/// top `max_bars` entries (the classic Vampir "Function Summary" panel).
pub fn function_summary(trace: &Trace, profiles: &ProfileTable, max_bars: usize) -> BarChart {
    function_summary_meta(&TraceMeta::of(trace), profiles, max_bars)
}

/// [`function_summary`] from trace metadata alone.
pub fn function_summary_meta(
    meta: &TraceMeta,
    profiles: &ProfileTable,
    max_bars: usize,
) -> BarChart {
    let palette = FunctionPalette;
    let registry = &meta.registry;
    let mut entries: Vec<(perfvar_trace::FunctionId, u64)> = profiles
        .iter()
        .filter(|(_, p)| p.count > 0)
        .map(|(f, p)| (f, p.exclusive.0))
        .collect();
    entries.sort_by_key(|(f, v)| (std::cmp::Reverse(*v), f.0));
    let bars = entries
        .into_iter()
        .take(max_bars)
        .map(|(f, v)| Bar {
            label: registry.function_name(f).to_string(),
            value: v as f64,
            color: palette.function_color(f.index(), registry.function_role(f)),
        })
        .collect();
    BarChart {
        title: format!("Function summary — {}", meta.name),
        unit: "ticks (exclusive)".to_string(),
        bars,
    }
}

/// Builds the per-process computational-load chart: total SOS-time per
/// process, coloured on the heat scale (so the overloaded rank is red
/// here too).
pub fn process_load_chart(trace: &Trace, analysis: &Analysis) -> BarChart {
    process_load_chart_meta(&TraceMeta::of(trace), analysis)
}

/// [`process_load_chart`] from trace metadata alone.
pub fn process_load_chart_meta(meta: &TraceMeta, analysis: &Analysis) -> BarChart {
    let totals = analysis.sos().process_totals();
    let scale = ColorScale::from_values(totals.iter().map(|d| d.0 as f64));
    let registry = &meta.registry;
    let bars = totals
        .iter()
        .enumerate()
        .map(|(i, d)| Bar {
            label: registry.process(ProcessId::from_index(i)).name.clone(),
            value: d.0 as f64,
            color: scale.heat(d.0 as f64),
        })
        .collect();
    BarChart {
        title: format!("Per-process SOS-time — {}", meta.name),
        unit: "ticks (total SOS)".to_string(),
        bars,
    }
}

/// Builds a histogram of all SOS values in the analysis.
///
/// # Panics
/// Panics if `bins` is zero.
pub fn sos_histogram(analysis: &Analysis, bins: usize) -> Histogram {
    assert!(bins > 0, "need at least one bin");
    let values: Vec<f64> = analysis
        .sos()
        .iter_sos()
        .map(|(_, _, v)| v.0 as f64)
        .collect();
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    if values.is_empty() || min > max {
        return Histogram {
            title: "SOS-time distribution".to_string(),
            min: 0.0,
            max: 1.0,
            counts: vec![0; bins],
        };
    }
    let width = ((max - min) / bins as f64).max(f64::EPSILON);
    let mut counts = vec![0usize; bins];
    for v in values {
        let b = (((v - min) / width) as usize).min(bins - 1);
        counts[b] += 1;
    }
    Histogram {
        title: "SOS-time distribution".to_string(),
        min,
        max,
        counts,
    }
}

/// Renders a bar chart as a standalone SVG document.
pub fn render_bar_svg(chart: &BarChart, width: u32) -> String {
    let bar_h = 18.0;
    let gap = 4.0;
    let label_w = 150.0;
    let margin = 16.0;
    let title_h = 30.0;
    let n = chart.bars.len();
    let total_h = title_h + n as f64 * (bar_h + gap) + margin * 2.0;
    let plot_w = width as f64 - label_w - margin * 2.0 - 90.0;
    let vmax = chart
        .bars
        .iter()
        .map(|b| b.value)
        .fold(f64::EPSILON, f64::max);

    let mut svg = String::new();
    let _ = write!(
        svg,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{total_h:.0}" font-family="Helvetica,Arial,sans-serif">"##
    );
    let _ = write!(
        svg,
        r##"<rect width="100%" height="100%" fill="#ffffff"/>"##
    );
    let _ = write!(
        svg,
        r##"<text x="{margin}" y="20" font-size="14" font-weight="bold">{}</text>"##,
        xml_escape(&chart.title)
    );
    // One label, bar and value per bar, written without `core::fmt`
    // floats (a bar per rank at scale).
    let bar_h_attr = bar_h.to_string();
    let unit = xml_escape(&chart.unit);
    for (i, bar) in chart.bars.iter().enumerate() {
        let y = title_h + i as f64 * (bar_h + gap) + margin;
        let w = (bar.value / vmax * plot_w).max(0.5);
        let ty = y + bar_h * 0.7;
        svg.push_str(r##"<text x=""##);
        push_fixed(&mut svg, margin + label_w - 6.0, 1);
        svg.push_str(r##"" y=""##);
        push_fixed(&mut svg, ty, 1);
        svg.push_str(r##"" font-size="10" text-anchor="end" fill="#333333">"##);
        svg.push_str(&xml_escape(&bar.label));
        svg.push_str(r##"</text><rect x=""##);
        push_fixed(&mut svg, margin + label_w, 1);
        svg.push_str(r##"" y=""##);
        push_fixed(&mut svg, y, 1);
        svg.push_str(r##"" width=""##);
        push_fixed(&mut svg, w, 1);
        svg.push_str(r##"" height=""##);
        svg.push_str(&bar_h_attr);
        svg.push_str(r##"" fill=""##);
        bar.color.push_hex(&mut svg);
        svg.push_str(r##""/><text x=""##);
        push_fixed(&mut svg, margin + label_w + w + 6.0, 1);
        svg.push_str(r##"" y=""##);
        push_fixed(&mut svg, ty, 1);
        svg.push_str(r##"" font-size="10" fill="#555555">"##);
        push_fixed(&mut svg, bar.value, 0);
        svg.push(' ');
        svg.push_str(&unit);
        svg.push_str("</text>");
    }
    svg.push_str("</svg>");
    svg
}

/// Renders a histogram as a standalone SVG document.
pub fn render_histogram_svg(hist: &Histogram, width: u32, height: u32) -> String {
    let margin = 32.0;
    let title_h = 26.0;
    let plot_w = width as f64 - 2.0 * margin;
    let plot_h = height as f64 - 2.0 * margin - title_h;
    let cmax = hist.counts.iter().copied().max().unwrap_or(0).max(1) as f64;
    let n = hist.counts.len().max(1);
    let bar_w = plot_w / n as f64;

    let mut svg = String::new();
    let _ = write!(
        svg,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" font-family="Helvetica,Arial,sans-serif">"##
    );
    let _ = write!(
        svg,
        r##"<rect width="100%" height="100%" fill="#ffffff"/>"##
    );
    let _ = write!(
        svg,
        r##"<text x="{margin}" y="18" font-size="13" font-weight="bold">{}</text>"##,
        xml_escape(&hist.title)
    );
    for (i, &count) in hist.counts.iter().enumerate() {
        let h = count as f64 / cmax * plot_h;
        let x = margin + i as f64 * bar_w;
        let y = title_h + margin + (plot_h - h);
        let _ = write!(
            svg,
            r##"<rect x="{x:.1}" y="{y:.1}" width="{w:.1}" height="{h:.1}" fill="#4878b8"/>"##,
            w = (bar_w - 1.0).max(0.5)
        );
    }
    let base = title_h + margin + plot_h;
    let _ = write!(
        svg,
        r##"<line x1="{margin}" y1="{base:.1}" x2="{x2:.1}" y2="{base:.1}" stroke="#888888"/>"##,
        x2 = margin + plot_w
    );
    let _ = write!(
        svg,
        r##"<text x="{margin}" y="{ty:.1}" font-size="10" fill="#333333">{v:.0}</text>"##,
        ty = base + 14.0,
        v = hist.min
    );
    let _ = write!(
        svg,
        r##"<text x="{x:.1}" y="{ty:.1}" font-size="10" text-anchor="end" fill="#333333">{v:.0}</text>"##,
        x = margin + plot_w,
        ty = base + 14.0,
        v = hist.max
    );
    svg.push_str("</svg>");
    svg
}

/// A line chart of one or more series over a shared x index.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SeriesChart {
    /// Chart title.
    pub title: String,
    /// X-axis label (e.g. "iteration").
    pub x_label: String,
    /// Named series (label, values, colour).
    pub series: Vec<(String, Vec<f64>, Color)>,
}

/// Builds the per-ordinal duration and SOS series of an analysis — the
/// "which iteration is slow?" view behind the paper's Fig. 5(a)
/// discussion.
pub fn ordinal_series_chart(analysis: &Analysis) -> SeriesChart {
    SeriesChart {
        title: "Mean segment duration and SOS-time per iteration".to_string(),
        x_label: "segment ordinal".to_string(),
        series: vec![
            (
                "duration".to_string(),
                analysis.sos().duration_by_ordinal(),
                Color::rgb(0x88, 0x55, 0x2b),
            ),
            (
                "SOS".to_string(),
                analysis.sos().sos_by_ordinal(),
                Color::rgb(0x2b, 0x6f, 0xd9),
            ),
        ],
    }
}

/// Renders a series chart as a standalone SVG document.
pub fn render_series_svg(chart: &SeriesChart, width: u32, height: u32) -> String {
    let margin = 40.0;
    let title_h = 26.0;
    let plot_w = width as f64 - 2.0 * margin;
    let plot_h = height as f64 - 2.0 * margin - title_h;
    let n = chart
        .series
        .iter()
        .map(|(_, v, _)| v.len())
        .max()
        .unwrap_or(0);
    let vmax = chart
        .series
        .iter()
        .flat_map(|(_, v, _)| v.iter().copied())
        .fold(f64::EPSILON, f64::max);

    let mut svg = String::new();
    let _ = write!(
        svg,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" font-family="Helvetica,Arial,sans-serif">"##
    );
    let _ = write!(
        svg,
        r##"<rect width="100%" height="100%" fill="#ffffff"/>"##
    );
    let _ = write!(
        svg,
        r##"<text x="{margin}" y="18" font-size="13" font-weight="bold">{}</text>"##,
        xml_escape(&chart.title)
    );
    let base = title_h + margin + plot_h;
    let _ = write!(
        svg,
        r##"<line x1="{margin}" y1="{base:.1}" x2="{x2:.1}" y2="{base:.1}" stroke="#888888"/>"##,
        x2 = margin + plot_w
    );
    for (si, (label, values, color)) in chart.series.iter().enumerate() {
        if values.is_empty() {
            continue;
        }
        let points: Vec<String> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let x = margin
                    + if n > 1 {
                        plot_w * i as f64 / (n - 1) as f64
                    } else {
                        plot_w / 2.0
                    };
                let y = base - (v / vmax) * plot_h;
                format!("{x:.1},{y:.1}")
            })
            .collect();
        let _ = write!(
            svg,
            r##"<polyline points="{}" fill="none" stroke="{}" stroke-width="1.5"/>"##,
            points.join(" "),
            color.hex()
        );
        let _ = write!(
            svg,
            r##"<text x="{x:.1}" y="{y:.1}" font-size="10" fill="{c}">{t}</text>"##,
            x = margin + 6.0 + si as f64 * 80.0,
            y = title_h + 12.0,
            c = color.hex(),
            t = xml_escape(label)
        );
    }
    let _ = write!(
        svg,
        r##"<text x="{x:.1}" y="{y:.1}" font-size="10" text-anchor="middle" fill="#555555">{t}</text>"##,
        x = margin + plot_w / 2.0,
        y = base + 18.0,
        t = xml_escape(&chart.x_label)
    );
    svg.push_str("</svg>");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvar_analysis::invocation::replay_all;
    use perfvar_analysis::{analyze, AnalysisConfig};
    use perfvar_sim::prelude::*;
    use perfvar_sim::workloads::SingleOutlier;

    fn setup() -> (perfvar_trace::Trace, Analysis) {
        let trace = simulate(&SingleOutlier::new(5, 8, 2).spec()).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        (trace, analysis)
    }

    #[test]
    fn function_summary_orders_by_exclusive_time() {
        let (trace, _) = setup();
        let profiles = ProfileTable::from_invocations(&trace, &replay_all(&trace));
        let chart = function_summary(&trace, &profiles, 10);
        assert!(!chart.bars.is_empty());
        for w in chart.bars.windows(2) {
            assert!(w[0].value >= w[1].value);
        }
        // Compute dominates this workload's exclusive time.
        assert_eq!(chart.bars[0].label, "compute");
    }

    #[test]
    fn function_summary_caps_bars() {
        let (trace, _) = setup();
        let profiles = ProfileTable::from_invocations(&trace, &replay_all(&trace));
        let chart = function_summary(&trace, &profiles, 2);
        assert_eq!(chart.bars.len(), 2);
    }

    #[test]
    fn process_load_chart_highlights_hot_rank() {
        let (trace, analysis) = setup();
        let chart = process_load_chart(&trace, &analysis);
        assert_eq!(chart.bars.len(), 5);
        // The outlier rank (2) has the largest value and the reddest bar.
        let max_bar = chart
            .bars
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.value.total_cmp(&b.1.value))
            .unwrap();
        assert_eq!(max_bar.0, 2);
        assert!(max_bar.1.color.r > max_bar.1.color.b);
    }

    #[test]
    fn histogram_counts_everything() {
        let (_, analysis) = setup();
        let hist = sos_histogram(&analysis, 10);
        let total: usize = hist.counts.iter().sum();
        assert_eq!(total, analysis.segmentation.len());
        assert!(hist.min <= hist.max);
    }

    #[test]
    fn histogram_of_empty_analysis_is_zeroed() {
        // Build an analysis-like histogram from no values via an empty
        // segmentation: segment by a function that has no invocations is
        // impossible through analyze(), so check the degenerate branch
        // directly with one-segment data collapsed to a constant.
        let (_, analysis) = setup();
        let hist = sos_histogram(&analysis, 3);
        assert_eq!(hist.counts.len(), 3);
    }

    #[test]
    fn bar_svg_renders() {
        let (trace, analysis) = setup();
        let chart = process_load_chart(&trace, &analysis);
        let svg = render_bar_svg(&chart, 800);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
        assert!(svg.contains("rank 2"));
        assert!(svg.matches("<rect").count() >= 6);
    }

    #[test]
    fn histogram_svg_renders() {
        let (_, analysis) = setup();
        let svg = render_histogram_svg(&sos_histogram(&analysis, 12), 640, 320);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
        assert!(svg.matches("<rect").count() >= 12);
    }

    #[test]
    fn series_chart_tracks_ordinals() {
        let (_, analysis) = setup();
        let chart = ordinal_series_chart(&analysis);
        assert_eq!(chart.series.len(), 2);
        let (label, durations, _) = &chart.series[0];
        assert_eq!(label, "duration");
        assert_eq!(durations.len(), 8); // 8 iterations
                                        // The outlier iteration (ordinal 4 = iterations/2) dominates.
        let max_i = durations
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_i, 4);
        let svg = render_series_svg(&chart, 640, 320);
        assert!(svg.contains("<polyline"));
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
    }

    #[test]
    fn empty_series_renders() {
        let chart = SeriesChart {
            title: "empty".into(),
            x_label: "x".into(),
            series: vec![("a".into(), vec![], Color::rgb(0, 0, 0))],
        };
        let svg = render_series_svg(&chart, 320, 200);
        assert!(svg.ends_with("</svg>"));
        assert!(!svg.contains("<polyline"));
    }

    #[test]
    fn labels_are_escaped() {
        let chart = BarChart {
            title: "a & b".into(),
            unit: "<ticks>".into(),
            bars: vec![Bar {
                label: "f<1>".into(),
                value: 5.0,
                color: Color::rgb(10, 20, 30),
            }],
        };
        let svg = render_bar_svg(&chart, 400);
        assert!(svg.contains("a &amp; b"));
        assert!(svg.contains("f&lt;1&gt;"));
        assert!(!svg.contains("f<1>"));
    }

    /// The `write!`-based bar loop the direct writer replaced, kept as
    /// its oracle.
    fn render_bar_svg_oracle(chart: &BarChart, width: u32) -> String {
        let bar_h = 18.0;
        let gap = 4.0;
        let label_w = 150.0;
        let margin = 16.0;
        let title_h = 30.0;
        let n = chart.bars.len();
        let total_h = title_h + n as f64 * (bar_h + gap) + margin * 2.0;
        let plot_w = width as f64 - label_w - margin * 2.0 - 90.0;
        let vmax = chart
            .bars
            .iter()
            .map(|b| b.value)
            .fold(f64::EPSILON, f64::max);

        let mut svg = String::new();
        let _ = write!(
            svg,
            r##"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{total_h:.0}" font-family="Helvetica,Arial,sans-serif">"##
        );
        let _ = write!(
            svg,
            r##"<rect width="100%" height="100%" fill="#ffffff"/>"##
        );
        let _ = write!(
            svg,
            r##"<text x="{margin}" y="20" font-size="14" font-weight="bold">{}</text>"##,
            xml_escape(&chart.title)
        );
        for (i, bar) in chart.bars.iter().enumerate() {
            let y = title_h + i as f64 * (bar_h + gap) + margin;
            let w = (bar.value / vmax * plot_w).max(0.5);
            let _ = write!(
                svg,
                r##"<text x="{lx:.1}" y="{ty:.1}" font-size="10" text-anchor="end" fill="#333333">{label}</text>"##,
                lx = margin + label_w - 6.0,
                ty = y + bar_h * 0.7,
                label = xml_escape(&bar.label)
            );
            let _ = write!(
                svg,
                r##"<rect x="{x:.1}" y="{y:.1}" width="{w:.1}" height="{bar_h}" fill="{c}"/>"##,
                x = margin + label_w,
                c = bar.color.hex()
            );
            let _ = write!(
                svg,
                r##"<text x="{vx:.1}" y="{ty:.1}" font-size="10" fill="#555555">{v:.0} {unit}</text>"##,
                vx = margin + label_w + w + 6.0,
                ty = y + bar_h * 0.7,
                v = bar.value,
                unit = xml_escape(&chart.unit)
            );
        }
        svg.push_str("</svg>");
        svg
    }

    #[test]
    fn bar_svg_matches_write_oracle() {
        for trace in crate::chart::testing::oracle_traces() {
            let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
            let charts = [
                process_load_chart(&trace, &analysis),
                function_summary(&trace, &analysis.profiles, 12),
            ];
            for chart in &charts {
                for width in [900, 333] {
                    assert_eq!(
                        render_bar_svg(chart, width),
                        render_bar_svg_oracle(chart, width),
                        "{}",
                        chart.title
                    );
                }
            }
        }
        let odd = BarChart {
            title: "odd & values".into(),
            unit: "<u>".into(),
            bars: [0.0, 0.5, 1.5, 2.5, 1e-9, 3e17, f64::NAN, -4.25]
                .iter()
                .map(|&value| Bar {
                    label: format!("v{value}"),
                    value,
                    color: Color::rgb(1, 2, 3),
                })
                .collect(),
        };
        assert_eq!(render_bar_svg(&odd, 640), render_bar_svg_oracle(&odd, 640));
    }
}
