//! `figures`: the paper's own workflow on its three case studies.
//!
//! Closed loop, one client. One operation runs `perfvar analyze --json`,
//! `perfvar diagnose --json` and `perfvar report --out-dir` on one case
//! study (`.pvt`), round-robin over COSMO-SPECS (100 ranks),
//! COSMO-SPECS+FD4 (200 ranks) and WRF (64 ranks). It exercises PVT
//! decoding, the in-memory analysis, diagnosis and the viz layer, and
//! never touches cursors, parts or the daemon.

use crate::inputs::{case_studies, CaseStudy};
use crate::ladder::{self, LadderInput};
use crate::spans::{Open, Recorder};
use crate::stats::{median, percentile};
use crate::{proc, timed_setup, Ctx, Metric, Outcome, THREADS};
use perfvar_analysis::findings::findings;
use perfvar_analysis::messages::MessageAnalysis;
use perfvar_analysis::{analyze, diagnose_meta, Analysis, DiagnoseConfig};
use perfvar_trace::format::{read_trace_file, write_trace_file};
use perfvar_trace::{Trace, TraceMeta};
use perfvar_viz::chart::{counter_heatmap, function_timeline, sos_heatmap, TimelineOptions};
use perfvar_viz::html::HtmlReport;
use perfvar_viz::matrix::{render_comm_matrix_svg, CommQuantity};
use perfvar_viz::summary;
use perfvar_viz::{render_svg, SvgOptions};
use std::path::{Path, PathBuf};

/// Set-ups per run; `setup_s` is their median. One takes about 20 ms,
/// so a few host hiccups would move the median of a handful.
const SETUPS: usize = 15;
/// Operations the p90 needs (ten beyond it).
const MIN_OPS: usize = 100;

struct Case {
    study: CaseStudy,
    pvt: PathBuf,
    /// `perfvar analyze --json` output, computed in-process.
    analyze_json: Vec<u8>,
    /// `perfvar diagnose --json` output, computed in-process.
    diagnose_json: Vec<u8>,
    /// The report files of the run's first operation on this case.
    report: Vec<(String, Vec<u8>)>,
}

fn setup(ctx: &Ctx) -> Result<Vec<(CaseStudy, PathBuf)>, String> {
    case_studies(ctx.seed)?
        .into_iter()
        .map(|study| {
            let pvt = ctx.work.join(format!("{}.pvt", study.name));
            write_trace_file(&study.trace, &pvt).map_err(|e| format!("{}: {e}", pvt.display()))?;
            Ok((study, pvt))
        })
        .collect()
}

fn pretty(value: serde_json::Value) -> Vec<u8> {
    let mut out = serde_json::to_string_pretty(&value).unwrap_or_default();
    out.push('\n');
    out.into_bytes()
}

/// The expected CLI outputs of one case study, checked against the
/// paper's ground truth first.
fn expect(study: CaseStudy, pvt: PathBuf) -> Result<Case, String> {
    let analysis = analyze(&study.trace, &ladder::config()).map_err(|e| e.to_string())?;
    let hottest = analysis.imbalance.hottest_process().map(|p| p.index());
    if hottest != Some(study.hottest) {
        return Err(format!(
            "{}: hottest process {hottest:?}, the paper names P{}",
            study.name, study.hottest
        ));
    }
    if let Some(flagged) = &study.flagged {
        let mut got: Vec<usize> = analysis
            .imbalance
            .process_outliers
            .iter()
            .map(|p| p.index())
            .collect();
        got.sort_unstable();
        if &got != flagged {
            return Err(format!(
                "{}: flagged {got:?}, the paper flags {flagged:?}",
                study.name
            ));
        }
    }
    let diagnosis = diagnose_meta(
        &TraceMeta::of(&study.trace),
        &analysis,
        &DiagnoseConfig::default(),
    );
    Ok(Case {
        analyze_json: pretty(serde_json::to_value(&analysis)),
        diagnose_json: pretty(serde_json::to_value(&diagnosis)),
        study,
        pvt,
        report: Vec::new(),
    })
}

struct Output {
    analyze: Vec<u8>,
    diagnose: Vec<u8>,
    report_dir: PathBuf,
}

/// One operation: the three subcommands back to back. With a span
/// parent, each subprocess becomes a `cli.*` child span.
fn op(ctx: &Ctx, case: &Case, parent: Option<&Open>) -> Result<Output, String> {
    let pvt = case.pvt.to_string_lossy();
    let report_dir = ctx.work.join(format!("{}.report", case.study.name));
    let dir = report_dir.to_string_lossy();
    let threads = THREADS.to_string();
    let call = |name: &'static str, args: &[&str]| ctx.call(parent, name, || ctx.perfvar.run(args));
    let analyze = call(
        "cli.analyze",
        &["analyze", &pvt, "--json", "--threads", &threads],
    )?;
    let diagnose = call(
        "cli.diagnose",
        &["diagnose", &pvt, "--json", "--threads", &threads],
    )?;
    call(
        "cli.report",
        &["report", &pvt, "--out-dir", &dir, "--threads", &threads],
    )?;
    Ok(Output {
        analyze,
        diagnose,
        report_dir,
    })
}

fn read_report(dir: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        files.push((
            path.file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned(),
            bytes,
        ));
    }
    files.sort();
    Ok(files)
}

/// Checks one operation's outputs: analyze and diagnose byte-identical
/// to the in-process results, the report byte-identical to the run's
/// first report on the same case.
fn check(case: &Case, out: &Output) -> Result<(), String> {
    let name = case.study.name;
    if out.analyze != case.analyze_json {
        return Err(format!(
            "{name}: analyze --json differs from the expected analysis"
        ));
    }
    if out.diagnose != case.diagnose_json {
        return Err(format!(
            "{name}: diagnose --json differs from the expected diagnosis"
        ));
    }
    if read_report(&out.report_dir)? != case.report {
        return Err(format!(
            "{name}: report differs from the run's first report"
        ));
    }
    Ok(())
}

/// The run's first report on a case: its `analysis.json` must be the
/// expected analysis.
fn first_report(case: &Case, out: &Output) -> Result<Vec<(String, Vec<u8>)>, String> {
    let files = read_report(&out.report_dir)?;
    let analysis = files
        .iter()
        .find(|(n, _)| n == "analysis.json")
        .map(|(_, b)| b.as_slice())
        .ok_or_else(|| format!("{}: report has no analysis.json", case.study.name))?;
    if analysis
        != case
            .analyze_json
            .strip_suffix(b"\n")
            .unwrap_or(&case.analyze_json)
    {
        return Err(format!("{}: report analysis.json differs", case.study.name));
    }
    Ok(files)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (setup_s, written) = timed_setup(SETUPS, || setup(ctx))?;
    let mut cases: Vec<Case> = written
        .into_iter()
        .map(|(study, pvt)| expect(study, pvt))
        .collect::<Result<_, _>>()?;
    // Warm-up: the first operation on each case, which also fixes the
    // reference report.
    for case in &mut cases {
        let out = op(ctx, case, None)?;
        case.report = first_report(case, &out)?;
        check(case, &out)?;
    }

    let mut outcome = Outcome::default();
    let case = |i: usize| &cases[i % cases.len()];
    let latencies = ctx.closed_loop(
        &mut outcome,
        MIN_OPS,
        |i, span| op(ctx, case(i), span),
        |i, out| check(case(i), &out),
        |i, rec, span| replica(rec, span, case(i), &ctx.work),
    );
    let Some(rec) = &ctx.trace else {
        outcome.metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("op_p50_s", percentile(&latencies, 0.5, "figures op")?, "s"),
            Metric::new("op_p90_s", percentile(&latencies, 0.9, "figures op")?, "s"),
            Metric::new("peak_rss_mb", proc::peak_rss_mb(), "MB"),
        ];
        return Ok(outcome);
    };
    let inputs = cases
        .into_iter()
        .map(|c| LadderInput::prepare(&ctx.work, c.study.trace, &c.pvt))
        .collect::<Result<Vec<_>, _>>()?;
    let counts = ladder::run(rec, &ctx.perfvar, &inputs, &ctx.work, false)?;
    outcome.metrics = ladder::metrics(rec, &counts, median(&latencies), &[])?;
    Ok(outcome)
}

/// The operation replayed in-process, layer by layer, as children of
/// its `op` span: what `analyze`, `diagnose` and `report` each do
/// between reading the `.pvt` and writing their output.
fn replica(rec: &Recorder, op: &Open, case: &Case, work: &Path) -> Result<(), String> {
    proc::trim_heap();
    let cfg = ladder::config();
    let load = || -> Result<(Trace, Analysis), String> {
        let trace = rec
            .time(Some(op), "trace.pvt_read", || read_trace_file(&case.pvt))
            .map_err(|e| e.to_string())?;
        let analysis = rec
            .time(Some(op), "analysis.analyze", || analyze(&trace, &cfg))
            .map_err(|e| e.to_string())?;
        Ok((trace, analysis))
    };
    let render = |value: &dyn Fn() -> serde_json::Value| {
        rec.time_units(Some(op), "json.render", || {
            let body = serde_json::to_string_pretty(&value()).unwrap_or_default();
            let len = body.len() as u64;
            (body, len)
        })
    };

    // perfvar analyze --json
    let (_, analysis) = load()?;
    render(&|| serde_json::to_value(&analysis));

    // perfvar diagnose --json
    let (trace, analysis) = load()?;
    let diagnosis = rec.time(Some(op), "analysis.diagnose", || {
        diagnose_meta(
            &TraceMeta::of(&trace),
            &analysis,
            &DiagnoseConfig::default(),
        )
    });
    render(&|| serde_json::to_value(&diagnosis));

    // perfvar report --out-dir
    let (trace, analysis) = load()?;
    let svg = SvgOptions::default();
    let mut files: Vec<(String, String)> = Vec::new();
    let mut text = rec.time(Some(op), "analysis.render_text", || {
        analysis.render_text(&trace)
    });
    let found = rec.time(Some(op), "analysis.findings", || {
        findings(&trace, &analysis)
    });
    for f in &found {
        text.push_str(&format!(
            "    [{:>4.0}%] {}\n",
            f.severity * 100.0,
            f.description
        ));
    }
    files.push(("report.txt".into(), text.clone()));
    files.push((
        "findings.json".into(),
        render(&|| serde_json::to_value(&found)),
    ));
    files.push((
        "analysis.json".into(),
        render(&|| serde_json::to_value(&analysis)),
    ));
    let timeline = || {
        rec.time(Some(op), "viz.timeline_svg", || {
            render_svg(
                &function_timeline(&trace, &TimelineOptions::default()),
                &svg,
            )
        })
    };
    let heatmap = || {
        rec.time(Some(op), "viz.heatmap_svg", || {
            render_svg(&sos_heatmap(&trace, &analysis), &svg)
        })
    };
    let counters = || -> Vec<String> {
        analysis
            .counters
            .iter()
            .map(|c| {
                rec.time(Some(op), "viz.heatmap_svg", || {
                    render_svg(&counter_heatmap(&trace, &analysis, &c.matrix), &svg)
                })
            })
            .collect()
    };
    let load_bars = || {
        rec.time(Some(op), "viz.summary_svg", || {
            summary::render_bar_svg(&summary::process_load_chart(&trace, &analysis), 900)
        })
    };
    let series = || {
        rec.time(Some(op), "viz.summary_svg", || {
            summary::render_series_svg(&summary::ordinal_series_chart(&analysis), 900, 320)
        })
    };
    files.push(("timeline.svg".into(), timeline()));
    files.push(("sos.svg".into(), heatmap()));
    for (i, c) in counters().into_iter().enumerate() {
        files.push((format!("counter-{i}.svg"), c));
    }
    files.push((
        "function-summary.svg".into(),
        rec.time(Some(op), "viz.summary_svg", || {
            summary::render_bar_svg(
                &summary::function_summary(&trace, &analysis.profiles, 12),
                900,
            )
        }),
    ));
    files.push(("process-load.svg".into(), load_bars()));
    files.push((
        "sos-histogram.svg".into(),
        rec.time(Some(op), "viz.summary_svg", || {
            summary::render_histogram_svg(&summary::sos_histogram(&analysis, 24), 640, 320)
        }),
    ));
    let messages = rec.time(Some(op), "analysis.messages", || {
        MessageAnalysis::match_trace(&trace)
    });
    let comm = || {
        rec.time(Some(op), "viz.summary_svg", || {
            let matrix = messages.comm_matrix(trace.num_processes());
            render_comm_matrix_svg(&trace, &matrix, CommQuantity::Bytes, 720)
        })
    };
    if !messages.is_empty() {
        files.push(("comm-matrix.svg".into(), comm()));
    }
    files.push(("iteration-series.svg".into(), series()));
    let ranked = rec.time(Some(op), "analysis.findings", || {
        findings(&trace, &analysis)
    });
    let (timeline, heatmap, counters, load_bars, series) =
        (timeline(), heatmap(), counters(), load_bars(), series());
    let comm = (!messages.is_empty()).then(comm);
    let html = rec.time(Some(op), "viz.html", || {
        let mut html = HtmlReport::new(format!("perfvar report — {}", trace.name));
        html.heading("Hotspot report").text(&text);
        html.heading("Findings (ranked by severity)").list(
            ranked
                .iter()
                .map(|f| format!("[{:.0}%] {}", f.severity * 100.0, f.description))
                .collect(),
        );
        html.heading("Master timeline").svg(timeline);
        html.heading("SOS-time heatmap").svg(heatmap);
        for c in counters {
            html.heading("Counter heatmap").svg(c);
        }
        html.heading("Per-process load").svg(load_bars);
        html.heading("Iteration series").svg(series);
        if let Some(comm) = comm {
            html.heading("Communication matrix").svg(comm);
        }
        html.render()
    });
    files.push(("report.html".into(), html));
    let dir = work.join(format!("{}.replica", case.study.name));
    rec.time(Some(op), "io.write", || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        for (name, body) in &files {
            std::fs::write(dir.join(name), body)?;
        }
        Ok(())
    })
    .map_err(|e| format!("{}: {e}", dir.display()))
}
