//! SVG rendering of [`TimelineChart`]s.
//!
//! Produces standalone SVG documents: title, per-process rows of coloured
//! rectangles, message arrows, a time axis in seconds, categorical and/or
//! gradient legends. These are the direct stand-ins for the paper's
//! Vampir screenshots.

use crate::chart::TimelineChart;
use crate::color::{Color, HeatScale};
use crate::text::{push_fixed, xml_escape};
use perfvar_trace::Timestamp;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// SVG output options.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SvgOptions {
    /// Total image width in pixels.
    pub width: u32,
    /// Height of the plot area (rows) in pixels; total image height adds
    /// title/axis/legend space.
    pub plot_height: u32,
    /// Draw message arrows.
    pub draw_messages: bool,
}

impl Default for SvgOptions {
    fn default() -> SvgOptions {
        SvgOptions {
            width: 1200,
            plot_height: 480,
            draw_messages: true,
        }
    }
}

const MARGIN_LEFT: f64 = 110.0;
const MARGIN_RIGHT: f64 = 24.0;
const MARGIN_TOP: f64 = 56.0;
const AXIS_HEIGHT: f64 = 36.0;
const LEGEND_HEIGHT: f64 = 28.0;

/// Renders `chart` as a standalone SVG document.
pub fn render_svg(chart: &TimelineChart, opts: &SvgOptions) -> String {
    render_svg_with(chart, opts, push_span_rect, push_message_line)
}

/// Appends one span: `<rect>` with x, y, width and height at two
/// decimals. Byte-identical to the `write!` form
/// `<rect x="{x:.2}" y="{y:.2}" width="{w:.2}" height="{h:.2}" fill="{c}"/>`.
fn push_span_rect(svg: &mut String, [x, y, w, h]: [f64; 4], color: Color) {
    svg.push_str("<rect x=\"");
    push_fixed(svg, x, 2);
    svg.push_str("\" y=\"");
    push_fixed(svg, y, 2);
    svg.push_str("\" width=\"");
    push_fixed(svg, w, 2);
    svg.push_str("\" height=\"");
    push_fixed(svg, h, 2);
    svg.push_str("\" fill=\"");
    color.push_hex(svg);
    svg.push_str("\"/>");
}

/// Appends one message arrow: `<line>` with both endpoints at one
/// decimal. Byte-identical to the `write!` form
/// `<line x1="{x1:.1}" y1="{y1:.1}" x2="{x2:.1}" y2="{y2:.1}"/>`.
fn push_message_line(svg: &mut String, [x1, y1, x2, y2]: [f64; 4]) {
    svg.push_str("<line x1=\"");
    push_fixed(svg, x1, 1);
    svg.push_str("\" y1=\"");
    push_fixed(svg, y1, 1);
    svg.push_str("\" x2=\"");
    push_fixed(svg, x2, 1);
    svg.push_str("\" y2=\"");
    push_fixed(svg, y2, 1);
    svg.push_str("\"/>");
}

/// [`render_svg`] with the per-element writers as parameters, so tests
/// can render the same document through the `write!` oracles.
fn render_svg_with(
    chart: &TimelineChart,
    opts: &SvgOptions,
    span_rect: impl Fn(&mut String, [f64; 4], Color),
    message_line: impl Fn(&mut String, [f64; 4]),
) -> String {
    let plot_w = (opts.width as f64 - MARGIN_LEFT - MARGIN_RIGHT).max(10.0);
    let plot_h = opts.plot_height as f64;
    let n_rows = chart.rows.len().max(1);
    let row_h = plot_h / n_rows as f64;
    let has_legend = !chart.legend.is_empty() || chart.scale.is_some();
    let total_h =
        MARGIN_TOP + plot_h + AXIS_HEIGHT + if has_legend { LEGEND_HEIGHT } else { 0.0 } + 8.0;

    let t0 = chart.begin.0 as f64;
    let t1 = (chart.end.0 as f64).max(t0 + 1.0);
    let x_of = |t: Timestamp| -> f64 { MARGIN_LEFT + (t.0 as f64 - t0) / (t1 - t0) * plot_w };

    let mut svg = String::with_capacity(1 << 16);
    let _ = write!(
        svg,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h:.0}" viewBox="0 0 {w} {h:.0}" font-family="Helvetica,Arial,sans-serif">"##,
        w = opts.width,
        h = total_h
    );
    let _ = write!(
        svg,
        r##"<rect width="100%" height="100%" fill="#ffffff"/>"##
    );
    // Title + subtitle.
    let _ = write!(
        svg,
        r##"<text x="{x}" y="22" font-size="16" font-weight="bold">{t}</text>"##,
        x = MARGIN_LEFT,
        t = xml_escape(&chart.title)
    );
    let _ = write!(
        svg,
        r##"<text x="{x}" y="40" font-size="11" fill="#555555">{t}</text>"##,
        x = MARGIN_LEFT,
        t = xml_escape(&chart.subtitle)
    );

    // Row labels: at most ~24 labels, evenly thinned.
    let label_step = n_rows.div_ceil(24).max(1);
    for (i, row) in chart.rows.iter().enumerate() {
        if i % label_step == 0 {
            let y = MARGIN_TOP + (i as f64 + 0.7) * row_h;
            let _ = write!(
                svg,
                r##"<text x="{x:.1}" y="{y:.1}" font-size="9" text-anchor="end" fill="#333333">{t}</text>"##,
                x = MARGIN_LEFT - 6.0,
                t = xml_escape(&row.label)
            );
        }
    }

    // Spans.
    let _ = write!(svg, r##"<g shape-rendering="crispEdges">"##);
    for (i, row) in chart.rows.iter().enumerate() {
        let y = MARGIN_TOP + i as f64 * row_h;
        let h = (row_h - row_h.min(1.0) * 0.15).max(0.5);
        for s in &row.spans {
            let x = x_of(s.start);
            let wpx = (x_of(s.end) - x).max(0.25);
            span_rect(&mut svg, [x, y, wpx, h], s.color);
        }
    }
    let _ = write!(svg, "</g>");

    // Message arrows.
    if opts.draw_messages && !chart.messages.is_empty() {
        let _ = write!(
            svg,
            r##"<g stroke="#000000" stroke-width="0.7" opacity="0.65">"##
        );
        for m in &chart.messages {
            let x1 = x_of(m.from_time);
            let y1 = MARGIN_TOP + (m.from_row as f64 + 0.5) * row_h;
            let x2 = x_of(m.to_time);
            let y2 = MARGIN_TOP + (m.to_row as f64 + 0.5) * row_h;
            message_line(&mut svg, [x1, y1, x2, y2]);
        }
        let _ = write!(svg, "</g>");
    }

    // Time axis: ~6 ticks in seconds.
    let axis_y = MARGIN_TOP + plot_h;
    let _ = write!(
        svg,
        r##"<line x1="{x1}" y1="{y:.1}" x2="{x2:.1}" y2="{y:.1}" stroke="#888888"/>"##,
        x1 = MARGIN_LEFT,
        x2 = MARGIN_LEFT + plot_w,
        y = axis_y
    );
    let n_ticks = 6;
    for k in 0..=n_ticks {
        let t = t0 + (t1 - t0) * k as f64 / n_ticks as f64;
        let x = MARGIN_LEFT + plot_w * k as f64 / n_ticks as f64;
        let secs = t / chart.clock.ticks_per_second as f64;
        let _ = write!(
            svg,
            r##"<line x1="{x:.1}" y1="{y:.1}" x2="{x:.1}" y2="{y2:.1}" stroke="#888888"/>"##,
            y = axis_y,
            y2 = axis_y + 4.0
        );
        let _ = write!(
            svg,
            r##"<text x="{x:.1}" y="{ty:.1}" font-size="10" text-anchor="middle" fill="#333333">{secs:.3} s</text>"##,
            ty = axis_y + 16.0
        );
    }

    // Legends.
    let legend_y = axis_y + AXIS_HEIGHT;
    if !chart.legend.is_empty() {
        let mut x = MARGIN_LEFT;
        for entry in &chart.legend {
            let _ = write!(
                svg,
                r##"<rect x="{x:.1}" y="{y:.1}" width="12" height="12" fill="{c}"/>"##,
                y = legend_y,
                c = entry.color.hex()
            );
            let _ = write!(
                svg,
                r##"<text x="{tx:.1}" y="{ty:.1}" font-size="10" fill="#333333">{t}</text>"##,
                tx = x + 16.0,
                ty = legend_y + 10.0,
                t = xml_escape(&entry.label)
            );
            x += 16.0 + 7.0 * entry.label.len() as f64 + 18.0;
        }
    }
    if let Some(scale) = &chart.scale {
        // Gradient bar: 20 discrete steps of the heat scale.
        let bar_x = MARGIN_LEFT;
        let bar_w = 240.0;
        let steps = 20;
        for k in 0..steps {
            let c = HeatScale.color(k as f64 / (steps - 1) as f64);
            let _ = write!(
                svg,
                r##"<rect x="{x:.1}" y="{y:.1}" width="{w:.1}" height="10" fill="{c}"/>"##,
                x = bar_x + bar_w * k as f64 / steps as f64,
                y = legend_y,
                w = bar_w / steps as f64 + 0.5,
                c = c.hex()
            );
        }
        let _ = write!(
            svg,
            r##"<text x="{x:.1}" y="{y:.1}" font-size="10" text-anchor="end" fill="#333333">{t}</text>"##,
            x = bar_x - 6.0,
            y = legend_y + 9.0,
            t = xml_escape(&scale.min_label)
        );
        let _ = write!(
            svg,
            r##"<text x="{x:.1}" y="{y:.1}" font-size="10" fill="#333333">{t}</text>"##,
            x = bar_x + bar_w + 6.0,
            y = legend_y + 9.0,
            t = xml_escape(&scale.max_label)
        );
        let _ = write!(
            svg,
            r##"<text x="{x:.1}" y="{y:.1}" font-size="10" fill="#555555">{t}</text>"##,
            x = bar_x + bar_w + 80.0,
            y = legend_y + 9.0,
            t = xml_escape(&scale.quantity)
        );
    }

    svg.push_str("</svg>");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chart::{function_timeline, sos_heatmap, TimelineOptions};
    use perfvar_analysis::{analyze, AnalysisConfig};
    use perfvar_sim::prelude::*;
    use perfvar_sim::workloads::SingleOutlier;

    fn sample_chart() -> TimelineChart {
        let trace = simulate(&SingleOutlier::new(3, 5, 1).spec()).unwrap();
        function_timeline(&trace, &TimelineOptions::default())
    }

    #[test]
    fn produces_wellformed_svg_shell() {
        let svg = render_svg(&sample_chart(), &SvgOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("Timeline"));
        // Balanced rect open/close (self-closing tags).
        assert!(svg.matches("<rect").count() > 3);
    }

    #[test]
    fn heatmap_svg_contains_gradient_legend() {
        let trace = simulate(&SingleOutlier::new(3, 5, 1).spec()).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let svg = render_svg(&sos_heatmap(&trace, &analysis), &SvgOptions::default());
        assert!(svg.contains("SOS-time"));
        // Gradient bar = 20 extra rects plus segments.
        assert!(svg.matches("<rect").count() > 20);
    }

    #[test]
    fn axis_ticks_present_in_seconds() {
        let svg = render_svg(&sample_chart(), &SvgOptions::default());
        assert!(svg.contains(" s</text>"));
    }

    #[test]
    fn xml_escaping() {
        let mut chart = sample_chart();
        chart.title = "bad <title> & stuff".into();
        let svg = render_svg(&chart, &SvgOptions::default());
        assert!(svg.contains("bad &lt;title&gt; &amp; stuff"));
        assert!(!svg.contains("bad <title>"));
    }

    #[test]
    fn messages_toggle() {
        let trace = simulate(&workloads::CosmoSpecsFd4::small(4, 1).spec()).unwrap();
        let chart = function_timeline(&trace, &TimelineOptions::default());
        let with = render_svg(
            &chart,
            &SvgOptions {
                draw_messages: true,
                ..SvgOptions::default()
            },
        );
        let without = render_svg(
            &chart,
            &SvgOptions {
                draw_messages: false,
                ..SvgOptions::default()
            },
        );
        assert!(with.contains("<line x1"));
        assert!(with.len() > without.len());
    }

    #[test]
    fn empty_chart_renders() {
        let chart = TimelineChart {
            title: "empty".into(),
            subtitle: String::new(),
            clock: perfvar_trace::Clock::microseconds(),
            begin: perfvar_trace::Timestamp(0),
            end: perfvar_trace::Timestamp(0),
            rows: Vec::new(),
            messages: Vec::new(),
            legend: Vec::new(),
            scale: None,
        };
        let svg = render_svg(&chart, &SvgOptions::default());
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
    }

    /// The `write!` span writer [`push_span_rect`] replaced, kept as its
    /// oracle.
    fn span_rect_oracle(svg: &mut String, [x, y, wpx, h]: [f64; 4], color: Color) {
        let _ = write!(
            svg,
            r##"<rect x="{x:.2}" y="{y:.2}" width="{wpx:.2}" height="{h:.2}" fill="{c}"/>"##,
            c = color.hex()
        );
    }

    /// The `write!` arrow writer [`push_message_line`] replaced, kept as
    /// its oracle.
    fn message_line_oracle(svg: &mut String, [x1, y1, x2, y2]: [f64; 4]) {
        let _ = write!(
            svg,
            r##"<line x1="{x1:.1}" y1="{y1:.1}" x2="{x2:.1}" y2="{y2:.1}"/>"##
        );
    }

    #[test]
    fn render_svg_matches_write_oracle() {
        use crate::chart::counter_heatmap;
        use crate::chart::testing::oracle_traces;
        let layouts = [
            SvgOptions::default(),
            SvgOptions {
                width: 517,
                plot_height: 203,
                draw_messages: true,
            },
        ];
        for trace in oracle_traces() {
            let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
            let mut charts = vec![
                function_timeline(&trace, &TimelineOptions::default()),
                sos_heatmap(&trace, &analysis),
            ];
            charts.extend(
                analysis
                    .counters
                    .iter()
                    .map(|c| counter_heatmap(&trace, &analysis, &c.matrix)),
            );
            for chart in &charts {
                for opts in &layouts {
                    assert_eq!(
                        render_svg(chart, opts),
                        render_svg_with(chart, opts, span_rect_oracle, message_line_oracle),
                        "{}",
                        chart.title
                    );
                }
            }
        }
    }
}
