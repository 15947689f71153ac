//! # perfvar-viz — Vampir-style timeline and heatmap rendering
//!
//! The paper presents its results inside the Vampir trace browser (§VI):
//! a *master timeline* (process × time, coloured by the active function)
//! overlaid with a colour-coded metric — the SOS-time — where "blue —
//! cold — colors indicate short durations, whereas red — hot — colors
//! indicate long durations". This crate is the substitute: it builds the
//! same charts as data ([`chart`]) and renders them as standalone SVG
//! documents ([`svg`]) or ANSI terminal output ([`ansi`]).
//!
//! Three chart builders cover every figure of the paper:
//!
//! * [`chart::function_timeline`] — Figs. 4(a), 5(a), 6(a): each process
//!   row shows the dominant activity per time bucket, coloured by
//!   function category (red = MPI, as in Vampir), with message arrows;
//! * [`chart::sos_heatmap`] — Figs. 4(b), 5(b), 5(c), 6(b): segments
//!   coloured by SOS-time on the cold→hot scale;
//! * [`chart::counter_heatmap`] — Fig. 6(c): segments coloured by a
//!   hardware-counter value.
//!
//! Each builder that takes a [`Trace`](perfvar_trace::Trace) is a thin
//! wrapper: the chart itself is built from a
//! [`TraceMeta`](perfvar_trace::TraceMeta) (and, for the timeline, the
//! chart fold [`Activity`](perfvar_analysis::activity::Activity)), so
//! `perfvar report`, `render` and `info` draw from a trace file without
//! loading it. [`report::ReportCharts`] renders the whole chart set of
//! `perfvar report` once, for both its `.svg` files and `report.html`.
//!
//! ```
//! use perfvar_sim::prelude::*;
//! use perfvar_analysis::prelude::*;
//! use perfvar_viz::prelude::*;
//!
//! let trace = simulate(&workloads::SingleOutlier::new(4, 6, 1).spec()).unwrap();
//! let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
//! let chart = sos_heatmap(&trace, &analysis);
//! let svg = render_svg(&chart, &SvgOptions::default());
//! assert!(svg.starts_with("<svg"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ansi;
pub mod chart;
pub mod color;
pub mod html;
pub mod live;
pub mod matrix;
pub mod report;
pub mod summary;
pub mod svg;
mod text;

/// Convenient glob-import of the rendering pipeline.
pub mod prelude {
    pub use crate::ansi::{render_ansi, AnsiOptions};
    pub use crate::chart::{
        cluster_heatmap, counter_heatmap, counter_heatmap_meta, function_timeline,
        function_timeline_of, sos_heatmap, sos_heatmap_meta, sos_heatmap_with, TimelineChart,
        TimelineOptions,
    };
    pub use crate::color::{Color, ColorScale, FunctionPalette, HeatScale};
    pub use crate::html::{HtmlReport, ReportSection};
    pub use crate::live::{render_live, LiveViewOptions};
    pub use crate::matrix::{render_comm_matrix_svg, render_comm_matrix_svg_meta, CommQuantity};
    pub use crate::summary::{
        function_summary, function_summary_meta, ordinal_series_chart, process_load_chart,
        process_load_chart_meta, render_bar_svg, render_histogram_svg, render_series_svg,
        sos_histogram, BarChart, Histogram, SeriesChart,
    };
    pub use crate::svg::{render_svg, SvgOptions};
}

pub use ansi::{render_ansi, AnsiOptions};
pub use chart::{cluster_heatmap, counter_heatmap, function_timeline, sos_heatmap, TimelineChart};
pub use color::{Color, ColorScale, FunctionPalette, HeatScale};
pub use live::{render_live, LiveViewOptions};
pub use svg::{render_svg, SvgOptions};
