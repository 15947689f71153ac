//! The chart set of `perfvar report`, each chart built and rendered once.
//!
//! The report writes every chart as its own `.svg` file and embeds most
//! of them in `report.html`. [`ReportCharts::render`] builds and renders
//! each chart one time from the analysis, the chart fold and the matched
//! messages — no [`Trace`](perfvar_trace::Trace) is needed;
//! [`ReportCharts::files`] lends the documents for the file writes and
//! [`ReportCharts::into_html`] then moves them into the HTML report, so
//! no chart is drawn twice.

use crate::chart::{counter_heatmap_meta, function_timeline_of, sos_heatmap_meta, TimelineOptions};
use crate::html::HtmlReport;
use crate::matrix::{render_comm_matrix_svg_meta, CommQuantity};
use crate::summary::{
    function_summary_meta, ordinal_series_chart, process_load_chart_meta, render_bar_svg,
    render_histogram_svg, render_series_svg, sos_histogram,
};
use crate::svg::{render_svg, SvgOptions};
use perfvar_analysis::activity::Activity;
use perfvar_analysis::messages::MessageAnalysis;
use perfvar_analysis::Analysis;
use std::collections::HashSet;

/// One counter heatmap of the report.
#[derive(Clone, Debug, PartialEq)]
struct CounterChart {
    /// Metric name, as in the trace's registry.
    metric: String,
    /// File name: `counter-<slug>.svg`, where the slug is the lowercased
    /// name with every non-alphanumeric character replaced by `-`. A
    /// slug an earlier counter already took gets `-<metric index>`
    /// appended, so metrics whose names differ only in case or
    /// punctuation keep a file each.
    file: String,
    /// The SVG document.
    svg: String,
}

/// Every chart of `perfvar report`, rendered.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportCharts {
    /// Master timeline with message arrows.
    timeline: String,
    /// SOS-time heatmap.
    sos: String,
    /// One heatmap per analysed counter.
    counters: Vec<CounterChart>,
    /// Function summary bar chart (file only).
    function_summary: String,
    /// Per-process SOS-time bar chart.
    process_load: String,
    /// SOS-time histogram (file only).
    sos_histogram: String,
    /// Communication matrix by payload bytes; `None` for a trace
    /// without matched messages.
    comm_matrix: Option<String>,
    /// Per-iteration duration and SOS series.
    iteration_series: String,
}

impl ReportCharts {
    /// Builds and renders every report chart of `analysis` and the chart
    /// fold of the same trace (`activity`, folded with a timeline of
    /// [`TimelineOptions::default`]'s buckets). `messages` — the fold's
    /// endpoints, matched — draw both the timeline arrows and the
    /// communication matrix.
    pub fn render(
        activity: &Activity,
        analysis: &Analysis,
        messages: &MessageAnalysis,
    ) -> ReportCharts {
        let meta = &activity.meta;
        let svg = SvgOptions::default();
        let timeline = render_svg(
            &function_timeline_of(activity, &TimelineOptions::default(), Some(messages)),
            &svg,
        );
        let mut taken = HashSet::new();
        let counters = analysis
            .counters
            .iter()
            .map(|counter| {
                let metric = meta.registry.metric(counter.metric).name.clone();
                let mut stem = format!(
                    "counter-{}",
                    metric
                        .to_ascii_lowercase()
                        .replace(|c: char| !c.is_ascii_alphanumeric(), "-")
                );
                while taken.contains(&stem) {
                    stem = format!("{stem}-{}", counter.metric.index());
                }
                let file = format!("{stem}.svg");
                taken.insert(stem);
                CounterChart {
                    metric,
                    file,
                    svg: render_svg(&counter_heatmap_meta(meta, analysis, &counter.matrix), &svg),
                }
            })
            .collect();
        ReportCharts {
            timeline,
            sos: render_svg(
                &sos_heatmap_meta(meta, analysis, TimelineOptions::default().buckets),
                &svg,
            ),
            counters,
            function_summary: render_bar_svg(
                &function_summary_meta(meta, &analysis.profiles, 12),
                900,
            ),
            process_load: render_bar_svg(&process_load_chart_meta(meta, analysis), 900),
            sos_histogram: render_histogram_svg(&sos_histogram(analysis, 24), 640, 320),
            comm_matrix: (!messages.is_empty()).then(|| {
                render_comm_matrix_svg_meta(
                    meta,
                    &messages.comm_matrix(meta.num_processes()),
                    CommQuantity::Bytes,
                    720,
                )
            }),
            iteration_series: render_series_svg(&ordinal_series_chart(analysis), 900, 320),
        }
    }

    /// `(file name, SVG)` of every chart, in the order the report writes
    /// them.
    pub fn files(&self) -> Vec<(&str, &str)> {
        let mut files = vec![
            ("timeline.svg", self.timeline.as_str()),
            ("sos.svg", &self.sos),
        ];
        files.extend(
            self.counters
                .iter()
                .map(|c| (c.file.as_str(), c.svg.as_str())),
        );
        files.extend([
            ("function-summary.svg", self.function_summary.as_str()),
            ("process-load.svg", &self.process_load),
            ("sos-histogram.svg", &self.sos_histogram),
        ]);
        if let Some(comm) = &self.comm_matrix {
            files.push(("comm-matrix.svg", comm));
        }
        files.push(("iteration-series.svg", &self.iteration_series));
        files
    }

    /// Moves the charts `report.html` shows into `html`, each under its
    /// heading, in the report's section order. The function summary and
    /// the SOS histogram are file-only.
    pub fn into_html(self, html: &mut HtmlReport) {
        html.heading("Master timeline").svg(self.timeline);
        html.heading("SOS-time heatmap").svg(self.sos);
        for counter in self.counters {
            html.heading(format!("Counter heatmap — {}", counter.metric))
                .svg(counter.svg);
        }
        html.heading("Per-process load").svg(self.process_load);
        html.heading("Iteration series").svg(self.iteration_series);
        if let Some(comm) = self.comm_matrix {
            html.heading("Communication matrix").svg(comm);
        }
    }
}
