//! Regenerates every figure of the paper and prints a paper-vs-measured
//! comparison — the source of EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p perfvar-bench --bin experiments [out_dir]
//! ```
//!
//! For each experiment the harness prints the paper's claim, the measured
//! result, and PASS/FAIL on the *shape* (who wins, rough factors,
//! locations); it writes every figure as SVG plus a machine-readable
//! `summary.json` into the output directory (default
//! `target/experiments`).

use perfvar_analysis::invocation::replay_all;
use perfvar_analysis::profile::ProfileTable;
use perfvar_analysis::segment::Segmentation;
use perfvar_analysis::sos::SosMatrix;
use perfvar_analysis::{analyze, AnalysisConfig, DominantRanking, ImbalanceAnalysis};
use perfvar_bench::{fig4_trace, fig5_trace, fig6_trace, outlier_trace};
use perfvar_sim::workloads::{CosmoSpecsFd4, Wrf};
use perfvar_trace::stats::role_shares_binned;
use perfvar_trace::{Clock, DurationTicks, FunctionRole, ProcessId, Timestamp, TraceBuilder};
use perfvar_viz::chart::{counter_heatmap, function_timeline, sos_heatmap, TimelineOptions};
use perfvar_viz::{render_svg, SvgOptions};
use std::path::{Path, PathBuf};

struct Report {
    rows: Vec<(String, String, String, bool)>,
}

impl Report {
    fn check(&mut self, id: &str, paper: &str, measured: String, pass: bool) {
        println!(
            "[{}] {id}\n    paper:    {paper}\n    measured: {measured}",
            if pass { "PASS" } else { "FAIL" }
        );
        self.rows
            .push((id.to_string(), paper.to_string(), measured, pass));
    }

    fn to_json(&self) -> String {
        let rows: Vec<serde_json::Value> = self
            .rows
            .iter()
            .map(|(id, paper, measured, pass)| {
                serde_json::json!({
                    "id": id, "paper": paper, "measured": measured, "pass": pass
                })
            })
            .collect();
        serde_json::to_string_pretty(&rows).unwrap()
    }
}

fn save_svg(dir: &Path, name: &str, svg: &str) {
    let path = dir.join(name);
    std::fs::write(&path, svg).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("    figure → {}", path.display());
}

fn main() {
    let out_dir: PathBuf = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/experiments"));
    std::fs::create_dir_all(&out_dir).unwrap();
    let mut report = Report { rows: Vec::new() };

    fig1(&mut report);
    fig2(&mut report);
    fig3(&mut report);
    fig4(&mut report, &out_dir);
    fig5(&mut report, &out_dir);
    fig6(&mut report, &out_dir);
    ablation_sos_vs_durations(&mut report);
    robustness_noise_sweep(&mut report);
    scaling_sweep(&mut report);
    let mut bench = pipeline_benchmark(&mut report, &out_dir);
    let replay = replay_benchmark(&mut report, &out_dir);
    let serve = serve_benchmark(&mut report, &out_dir);
    let serve_load = serve_load_benchmark(&mut report, &out_dir);
    let regression = regression_benchmark(&mut report, &out_dir);
    let live = live_benchmark(&mut report, &out_dir);
    let diagnose = diagnose_benchmark(&mut report, &out_dir);
    let rank_scale = rank_scale_benchmark(&mut report);
    let report_render = report_render_benchmark(&mut report);
    let json_render = json_render_benchmark(&mut report, &out_dir);
    if let serde_json::Value::Object(fields) = &mut bench {
        fields.push(("replay".to_string(), replay));
        fields.push(("serve".to_string(), serve));
        fields.push(("serve_load".to_string(), serve_load));
        fields.push(("regression".to_string(), regression));
        fields.push(("live".to_string(), live));
        fields.push(("diagnose".to_string(), diagnose));
        fields.push(("rank_scale".to_string(), rank_scale));
        fields.push(("report_render".to_string(), report_render));
        fields.push(("json_render".to_string(), json_render));
    }
    let bench_path = out_dir.join("BENCH_pipeline.json");
    std::fs::write(&bench_path, serde_json::to_string_pretty(&bench).unwrap()).unwrap();
    println!("    benchmark → {}", bench_path.display());

    let json = report.to_json();
    std::fs::write(out_dir.join("summary.json"), &json).unwrap();
    let failed = report.rows.iter().filter(|r| !r.3).count();
    println!(
        "\n{} checks, {} failed; summary → {}",
        report.rows.len(),
        failed,
        out_dir.join("summary.json").display()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

// ───────────────────── methodology figures ─────────────────────

fn fig1(report: &mut Report) {
    let mut b = TraceBuilder::new(Clock::microseconds());
    #[allow(clippy::disallowed_names)] // the paper's Fig. 1 names it "foo"
    let foo = b.define_function("foo", FunctionRole::Compute);
    let bar = b.define_function("bar", FunctionRole::Compute);
    let p = b.define_process("p0");
    let w = b.process_mut(p);
    w.enter(Timestamp(0), foo).unwrap();
    w.enter(Timestamp(2), bar).unwrap();
    w.leave(Timestamp(4), bar).unwrap();
    w.leave(Timestamp(6), foo).unwrap();
    let trace = b.finish().unwrap();
    let inv = replay_all(&trace);
    let foo_inv = inv[0].of_function(foo).next().unwrap();
    report.check(
        "FIG1 inclusive/exclusive time",
        "inclusive(foo) = 6, exclusive(foo) = 4",
        format!(
            "inclusive(foo) = {}, exclusive(foo) = {}",
            foo_inv.inclusive().0,
            foo_inv.exclusive().0
        ),
        foo_inv.inclusive().0 == 6 && foo_inv.exclusive().0 == 4,
    );
}

fn fig2(report: &mut Report) {
    let mut bld = TraceBuilder::new(Clock::microseconds());
    let main_f = bld.define_function("main", FunctionRole::Compute);
    let i_f = bld.define_function("i", FunctionRole::Compute);
    let a_f = bld.define_function("a", FunctionRole::Compute);
    let b_f = bld.define_function("b", FunctionRole::Compute);
    let c_f = bld.define_function("c", FunctionRole::Compute);
    let _ = i_f;
    for _ in 0..3 {
        let p = bld.define_process("p");
        let w = bld.process_mut(p);
        w.enter(Timestamp(0), main_f).unwrap();
        w.enter(Timestamp(0), i_f).unwrap();
        w.leave(Timestamp(1), i_f).unwrap();
        for k in 0..3u64 {
            let base = 1 + k * 6;
            w.enter(Timestamp(base), a_f).unwrap();
            w.enter(Timestamp(base + 1), b_f).unwrap();
            w.leave(Timestamp(base + 2), b_f).unwrap();
            w.enter(Timestamp(base + 2), c_f).unwrap();
            w.leave(Timestamp(base + 3), c_f).unwrap();
            w.leave(Timestamp(base + 4), a_f).unwrap();
            if k < 2 {
                w.enter(Timestamp(base + 4), b_f).unwrap();
                w.leave(Timestamp(base + 6), b_f).unwrap();
            }
        }
        w.leave(Timestamp(18), main_f).unwrap();
    }
    let trace = bld.finish().unwrap();
    let profiles = ProfileTable::from_invocations(&trace, &replay_all(&trace));
    let ranking = DominantRanking::new(&trace, &profiles);
    let dominant = ranking.dominant();
    report.check(
        "FIG2 dominant function",
        "main rejected (3 = p calls, 54 ticks); a dominant (9 ≥ 2p calls, 36 ticks)",
        format!(
            "main: {} calls/{} ticks; a: {} calls/{} ticks; dominant = {:?}",
            profiles.get(main_f).count,
            profiles.get(main_f).inclusive.0,
            profiles.get(a_f).count,
            profiles.get(a_f).inclusive.0,
            dominant.map(|f| trace.registry().function_name(f)),
        ),
        dominant == Some(a_f)
            && profiles.get(main_f).inclusive == DurationTicks(54)
            && profiles.get(a_f).inclusive == DurationTicks(36),
    );
}

fn fig3(report: &mut Report) {
    let mut b = TraceBuilder::new(Clock::microseconds());
    let a_f = b.define_function("a", FunctionRole::Compute);
    let calc_f = b.define_function("calc", FunctionRole::Compute);
    let mpi_f = b.define_function("MPI", FunctionRole::MpiCollective);
    let loads = [[5u64, 2, 2], [3, 2, 2], [1, 2, 2]];
    let bounds = [(0u64, 6u64), (6, 9), (9, 12)];
    for row in loads {
        let p = b.define_process("p");
        let w = b.process_mut(p);
        for (k, (start, end)) in bounds.iter().enumerate() {
            w.enter(Timestamp(*start), a_f).unwrap();
            w.enter(Timestamp(*start), calc_f).unwrap();
            w.leave(Timestamp(start + row[k]), calc_f).unwrap();
            w.enter(Timestamp(start + row[k]), mpi_f).unwrap();
            w.leave(Timestamp(*end), mpi_f).unwrap();
            w.leave(Timestamp(*end), a_f).unwrap();
        }
    }
    let trace = b.finish().unwrap();
    let seg = Segmentation::new(&trace, &replay_all(&trace), a_f);
    let m = SosMatrix::from_segmentation(&seg);
    let sos0 = m.sos(ProcessId(0), 0).unwrap().0;
    let sos2 = m.sos(ProcessId(2), 0).unwrap().0;
    let d0 = m.duration(ProcessId(0), 0).unwrap().0;
    let d1 = m.duration(ProcessId(0), 1).unwrap().0;
    report.check(
        "FIG3 SOS-time",
        "durations 6 then 3 (hide the culprit); SOS P0 = 5 vs P2 = 1 (expose it)",
        format!("durations {d0} then {d1}; SOS P0 = {sos0} vs P2 = {sos2}"),
        d0 == 6 && d1 == 3 && sos0 == 5 && sos2 == 1,
    );
}

// ───────────────────── evaluation figures ─────────────────────

fn fig4(report: &mut Report, out_dir: &Path) {
    let trace = fig4_trace();
    let shares = role_shares_binned(&trace, 10);
    let series = shares.mpi_series();
    report.check(
        "FIG4a COSMO-SPECS timeline",
        "MPI fraction increases over the run, dominating towards the end",
        format!(
            "MPI share bins: {}",
            series
                .iter()
                .map(|s| format!("{:.0}%", s * 100.0))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        series[9] > 2.0 * series[1] && series[9] > 0.5,
    );
    let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
    let mut flagged: Vec<usize> = analysis
        .imbalance
        .process_outliers
        .iter()
        .map(|p| p.index())
        .collect();
    flagged.sort_unstable();
    let hottest = analysis.imbalance.hottest_process().unwrap();
    report.check(
        "FIG4b SOS heatmap",
        "processes 44, 45, 54, 55, 64, 65 flagged; Process 54 worst",
        format!("flagged {flagged:?}; hottest {hottest}"),
        flagged == vec![44, 45, 54, 55, 64, 65] && hottest == ProcessId(54),
    );
    save_svg(
        out_dir,
        "fig4a-timeline.svg",
        &render_svg(
            &function_timeline(&trace, &TimelineOptions::default()),
            &SvgOptions::default(),
        ),
    );
    save_svg(
        out_dir,
        "fig4b-sos.svg",
        &render_svg(&sos_heatmap(&trace, &analysis), &SvgOptions::default()),
    );
}

fn fig5(report: &mut Report, out_dir: &Path) {
    let workload = CosmoSpecsFd4::paper();
    let trace = fig5_trace();
    let config = AnalysisConfig::default();
    let coarse = analyze(&trace, &config).unwrap();

    let durations = coarse.sos.duration_by_ordinal();
    let median = {
        let mut d = durations.clone();
        d.sort_by(f64::total_cmp);
        d[d.len() / 2]
    };
    let slow: Vec<usize> = durations
        .iter()
        .enumerate()
        .filter(|(_, d)| **d > 1.3 * median)
        .map(|(i, _)| i)
        .collect();
    report.check(
        "FIG5a FD4 slow iteration",
        "only a few iterations exhibit larger durations (one here)",
        format!("slow iterations: {slow:?} of {}", durations.len()),
        slow == vec![workload.interrupted_iteration],
    );

    let hottest = coarse.imbalance.hottest_process().unwrap();
    report.check(
        "FIG5b coarse SOS",
        "Process 20 exhibits a high SOS-time",
        format!("hottest process: {hottest}"),
        hottest == ProcessId(20),
    );

    let fine = coarse.refine(&trace, &config).unwrap();
    let outliers = &fine.imbalance.segment_outliers;
    let single = outliers.len() == 1;
    let hot = outliers.first();
    let cyc = fine
        .counters
        .iter()
        .find(|c| trace.registry().metric(c.metric).name == "PAPI_TOT_CYC")
        .unwrap();
    let cycles_ok = hot
        .map(|hot| {
            let hot_rate = cyc.matrix.value(hot.process, hot.ordinal).unwrap() as f64
                / fine.sos.duration(hot.process, hot.ordinal).unwrap().0 as f64;
            let prev_rate = cyc.matrix.value(hot.process, hot.ordinal - 1).unwrap() as f64
                / fine.sos.duration(hot.process, hot.ordinal - 1).unwrap().0 as f64;
            hot_rate < 0.5 * prev_rate
        })
        .unwrap_or(false);
    report.check(
        "FIG5c fine SOS + PAPI_TOT_CYC",
        "one single invocation red; its assigned-cycles reading is low (interruption)",
        format!(
            "outliers: {}; location {:?}; low-cycle check {}",
            outliers.len(),
            hot.map(|h| (h.process, h.ordinal)),
            cycles_ok
        ),
        single
            && hot.map(|h| {
                h.process == ProcessId(20) && h.ordinal == workload.interrupted_global_timestep()
            }) == Some(true)
            && cycles_ok,
    );

    // Fig. 5(a) displays just the slow iteration: slice its window out
    // (the paper's analyst recorded only slow iterations to begin with).
    let slow_iteration = perfvar_trace::slice::slice_invocation(
        &trace,
        coarse.function,
        workload.interrupted_iteration,
    )
    .expect("interrupted iteration exists")
    .expect("slice is well-formed");
    save_svg(
        out_dir,
        "fig5a-timeline.svg",
        &render_svg(
            &function_timeline(&slow_iteration, &TimelineOptions::default()),
            &SvgOptions::default(),
        ),
    );
    save_svg(
        out_dir,
        "fig5b-sos-coarse.svg",
        &render_svg(&sos_heatmap(&trace, &coarse), &SvgOptions::default()),
    );
    save_svg(
        out_dir,
        "fig5c-sos-fine.svg",
        &render_svg(&sos_heatmap(&trace, &fine), &SvgOptions::default()),
    );
}

fn fig6(report: &mut Report, out_dir: &Path) {
    let workload = Wrf::paper();
    let trace = fig6_trace();
    let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();

    let init_seconds = trace
        .clock()
        .timestamp_seconds(analysis.segmentation.iter().map(|s| s.enter).min().unwrap());
    let total_duration: f64 = analysis
        .segmentation
        .iter()
        .map(|s| s.duration().0 as f64)
        .sum();
    let total_sync: f64 = analysis.segmentation.iter().map(|s| s.sync.0 as f64).sum();
    let mpi_fraction = total_sync / total_duration;
    report.check(
        "FIG6a WRF timeline",
        "≈11 s initialisation, then iterations at ≈25 % MPI",
        format!(
            "init ends at {init_seconds:.1} s; iteration MPI fraction {:.0}%",
            mpi_fraction * 100.0
        ),
        (9.0..13.0).contains(&init_seconds) && (0.10..0.40).contains(&mpi_fraction),
    );

    let hottest = analysis.imbalance.hottest_process().unwrap();
    report.check(
        "FIG6b SOS heatmap",
        "Process 39 exhibits high SOS-times",
        format!("hottest process: {hottest}"),
        hottest == ProcessId(39) && analysis.imbalance.process_outliers.contains(&ProcessId(39)),
    );

    let fpx = analysis
        .counters
        .iter()
        .find(|c| trace.registry().metric(c.metric).name == "FR_FPU_EXCEPTIONS_SSE_MICROTRAPS")
        .unwrap();
    let counter_hottest = fpx.matrix.hottest_process().unwrap();
    let r = fpx.sos_correlation.unwrap_or(0.0);
    report.check(
        "FIG6c FPU-exceptions counter",
        "Process 39 shows exceptionally many exceptions; counter matches SOS heatmap",
        format!("counter hottest: {counter_hottest}; Pearson r = {r:+.3}"),
        counter_hottest == ProcessId(39) && r > 0.9,
    );
    let _ = workload;

    save_svg(
        out_dir,
        "fig6a-timeline.svg",
        &render_svg(
            &function_timeline(&trace, &TimelineOptions::default()),
            &SvgOptions::default(),
        ),
    );
    save_svg(
        out_dir,
        "fig6b-sos.svg",
        &render_svg(&sos_heatmap(&trace, &analysis), &SvgOptions::default()),
    );
    save_svg(
        out_dir,
        "fig6c-counter.svg",
        &render_svg(
            &counter_heatmap(&trace, &analysis, &fpx.matrix),
            &SvgOptions::default(),
        ),
    );
}

// ───────────────────── ablation ─────────────────────

/// §V's motivating argument as an experiment: with synchronization in the
/// iteration, *plain durations* are equalised by waiting and cannot
/// localise the slow process, while SOS-time can.
/// Detection across process counts: the cloud hotspot must be localised
/// at every scale (the paper argues the approach is lightweight and
/// scale-friendly; this verifies the detection side of that claim).
fn scaling_sweep(report: &mut Report) {
    use perfvar_sim::workloads::{CosmoSpecs, Workload};
    let mut rows = Vec::new();
    let mut all_ok = true;
    for &(r, c) in &[(4usize, 4usize), (6, 6), (8, 8), (10, 10)] {
        let w = if (r, c) == (10, 10) {
            CosmoSpecs::paper()
        } else {
            CosmoSpecs::small(r, c, 30)
        };
        let expected = w.hottest_rank();
        let trace = perfvar_sim::simulate(&w.spec()).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let got = analysis.imbalance.hottest_process().unwrap();
        let ok = got.index() == expected;
        all_ok &= ok;
        rows.push(format!(
            "{}×{c}: hottest {got} (expected P{expected}){}",
            r,
            if ok { "" } else { " ✗" }
        ));
    }
    report.check(
        "SCALING hotspot detection across process counts",
        "the overloaded rank is localised at every grid size (16 → 100 ranks)",
        rows.join("; "),
        all_ok,
    );
}

/// Detector robustness under OS background noise: the injected 4×
/// outlier must keep standing out as the noise floor rises — until the
/// noise itself becomes the story.
fn robustness_noise_sweep(report: &mut Report) {
    use perfvar_sim::noise::{inject_noise, NoiseConfig};
    use perfvar_sim::workloads::{SingleOutlier, Workload};
    let mut rows = Vec::new();
    let mut all_ok = true;
    for &probability in &[0.0f64, 0.02, 0.05, 0.10] {
        let mut hits = 0usize;
        let trials = 5usize;
        for seed in 0..trials as u64 {
            let w = SingleOutlier::new(8, 10, 5);
            let spec = inject_noise(
                &w.spec(),
                NoiseConfig {
                    probability,
                    min_stall: 20,
                    max_stall: 400,
                    seed: 7_000 + seed,
                },
            );
            let trace = perfvar_sim::simulate(&spec).unwrap();
            let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
            if analysis
                .imbalance
                .hottest_segment()
                .map(|h| (h.process, h.ordinal))
                == Some((ProcessId(5), w.outlier_iteration))
            {
                hits += 1;
            }
        }
        rows.push(format!("p={probability:.2}: {hits}/{trials}"));
        all_ok &= hits == trials;
    }
    report.check(
        "ROBUSTNESS detection under OS noise",
        "the 4× outlier stays detectable above realistic noise floors",
        rows.join(", "),
        all_ok,
    );
}

// ───────────────────── pipeline benchmark ─────────────────────

/// Best-of-N wall-time sample with its spread. Perf gates compare on
/// `best` (the least noise-contaminated observation); median and
/// standard deviation land in `BENCH_pipeline.json` so a regression can
/// be told apart from a noisy box when reading the numbers later.
struct Timing {
    best: f64,
    median: f64,
    stddev: f64,
}

impl Timing {
    fn of_samples(mut samples: Vec<f64>) -> Timing {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / n as f64;
        Timing {
            best: samples[0],
            median: samples[n / 2],
            stddev: var.sqrt(),
        }
    }

    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "best_s": self.best,
            "median_s": self.median,
            "stddev_s": self.stddev,
        })
    }
}

const BENCH_REPS: usize = 5;

/// Times `f` best-of-[`BENCH_REPS`].
fn time_reps(f: &mut dyn FnMut()) -> Timing {
    let mut samples = Vec::with_capacity(BENCH_REPS);
    for _ in 0..BENCH_REPS {
        let start = std::time::Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64());
    }
    Timing::of_samples(samples)
}

/// Times two competing closures interleaved (one rep of each per round,
/// best-of-[`BENCH_REPS`]) so slow rounds on a shared box hit both
/// measurements equally.
fn time_interleaved(a: &mut dyn FnMut(), b: &mut dyn FnMut()) -> (Timing, Timing) {
    let mut sa = Vec::with_capacity(BENCH_REPS);
    let mut sb = Vec::with_capacity(BENCH_REPS);
    for _ in 0..BENCH_REPS {
        let start = std::time::Instant::now();
        a();
        sa.push(start.elapsed().as_secs_f64());
        let start = std::time::Instant::now();
        b();
        sb.push(start.elapsed().as_secs_f64());
    }
    (Timing::of_samples(sa), Timing::of_samples(sb))
}

/// The median of paired per-round statistics (ratios or differences):
/// one stalled round on either side of a pair moves one sample, not the
/// verdict.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// CI escape hatch: `PERFVAR_BENCH_RELAXED=1` widens the wall-clock
/// performance gates so the harness still runs end-to-end (and records
/// real numbers) on slow shared runners. Correctness and shape gates —
/// pass counts, bit-identity, peak-state bounds, figure checks — stay
/// strict regardless.
fn bench_relaxed() -> bool {
    std::env::var("PERFVAR_BENCH_RELAXED")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Benchmarks the fused streaming pipeline against the materialising
/// reference on the 64-rank counter stencil, measures work-stealing
/// thread scaling on a multi-million-event archive, and returns the
/// `BENCH_pipeline.json` document (best/median/stddev times, events/sec,
/// speedups, peak live-state sizes); `main` merges in the daemon section
/// and writes the file.
fn pipeline_benchmark(report: &mut Report, out_dir: &Path) -> serde_json::Value {
    use perfvar_analysis::outofcore::{analyze_path_with, RecoveryMode};
    use perfvar_analysis::prelude::{analyze_reference, replay_visit, ReplayVisitor};
    use perfvar_trace::FunctionId;

    let relaxed = bench_relaxed();
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let trace = perfvar_bench::counter_stencil_trace(64, 200);
    let events = trace.num_events() as u64;
    let cfg_at = |threads| AnalysisConfig {
        threads,
        ..AnalysisConfig::default()
    };

    let mut fused_s = Vec::new();
    for threads in [1usize, 2, 4] {
        let t = time_reps(&mut || {
            analyze(&trace, &cfg_at(threads)).unwrap();
        });
        fused_s.push((threads, t));
    }
    // The gated pair is interleaved (one rep of each per round) so slow
    // rounds on a shared box hit both measurements equally.
    let (reference_t, fused8_t) = time_interleaved(
        &mut || {
            analyze_reference(&trace, &cfg_at(1)).unwrap();
        },
        &mut || {
            analyze(&trace, &cfg_at(8)).unwrap();
        },
    );
    fused_s.push((8, fused8_t));
    let reference_s = reference_t.best;
    let fused_best = fused_s
        .iter()
        .map(|(_, t)| t.best)
        .fold(f64::INFINITY, f64::min);
    let fused_at_8 = fused_s.iter().find(|(n, _)| *n == 8).unwrap().1.best;
    let speedup = reference_s / fused_at_8;

    // Peak working-set sizes: the reference materialises every
    // invocation; a fused worker holds only the live stack plus its
    // per-function rows and the segments of its own process.
    let analysis = analyze(&trace, &cfg_at(0)).unwrap();
    let replayed = perfvar_analysis::invocation::replay_all(&trace);
    let reference_peak: usize = replayed.iter().map(|p| p.invocations().len()).sum();
    struct DepthMeter {
        max_depth: usize,
    }
    impl ReplayVisitor for DepthMeter {
        fn on_enter(&mut self, _f: FunctionId, depth: u32, _t: Timestamp) {
            self.max_depth = self.max_depth.max(depth as usize + 1);
        }
    }
    let mut meter = DepthMeter { max_depth: 0 };
    for pid in trace.registry().process_ids() {
        replay_visit(&trace, pid, &mut meter);
    }
    let max_segments_per_process = analysis.segmentation.max_segments_per_process();
    let fused_peak = meter.max_depth + max_segments_per_process + trace.registry().num_functions();

    // Out-of-core: the same fused pipeline fed straight from an archive
    // on disk (`analyze_path`). Per-worker live state no longer depends
    // on the trace length at all — just the stream read buffer (or the
    // page cache, when mmapped) plus the replay stack, the worker's own
    // segments, and per-function rows.
    let archive_dir = out_dir.join("bench-archives");
    std::fs::create_dir_all(&archive_dir).unwrap();
    let mut ooc_rows = Vec::new();
    let mut ooc_summary = Vec::new();
    let mut ooc_ok = true;
    for &(ranks, iterations) in &[(64usize, 200usize), (256, 50)] {
        let t = perfvar_bench::counter_stencil_trace(ranks, iterations);
        let ev = t.num_events() as u64;
        let archive = archive_dir.join(format!("stencil-{ranks}.pvta"));
        perfvar_trace::format::write_trace_file(&t, &archive).unwrap();
        let cfg = cfg_at(0);
        // Both routes start from the file path: the in-memory route has
        // to materialise the whole trace before it can analyze.
        let (in_memory_t, ooc_t) = time_interleaved(
            &mut || {
                let loaded = perfvar_trace::format::read_trace_file(&archive).unwrap();
                analyze(&loaded, &cfg).unwrap();
            },
            &mut || {
                perfvar_analysis::analyze_path(&archive, &cfg).unwrap();
            },
        );
        let from_disk = analyze_path_with(&archive, &cfg, RecoveryMode::Strict).unwrap();
        let passes = from_disk.passes;
        let mut m = DepthMeter { max_depth: 0 };
        for pid in t.registry().process_ids() {
            replay_visit(&t, pid, &mut m);
        }
        let worker_items = m.max_depth
            + from_disk.analysis.segmentation.max_segments_per_process()
            + t.registry().num_functions();
        // Speculative fusion reads the whole archive exactly once on
        // this SPMD fixture (the rank-0 prefix prediction is confirmed),
        // so the gate is direct: out-of-core wall time must not exceed
        // the in-memory route, which pays the same decode *plus*
        // materialisation. `passes == 1` is a correctness gate and stays
        // strict even in relaxed mode.
        let wall_ratio = ooc_t.best / in_memory_t.best;
        let per_pass_ratio = (ooc_t.best / passes as f64) / in_memory_t.best;
        let ratio_limit = if relaxed { 3.0 } else { 1.0 };
        ooc_ok &=
            passes == 1 && per_pass_ratio <= ratio_limit && worker_items < t.num_events() / 100;
        ooc_summary.push(format!(
            "{ranks} ranks: in-memory {:.3} s vs out-of-core {:.3} s in {passes} pass(es) \
             ({wall_ratio:.2}× wall, {:.1}M ev/s streamed); \
             worker holds {worker_items} items, not {ev} events",
            in_memory_t.best,
            ooc_t.best,
            passes as f64 * ev as f64 / ooc_t.best / 1e6
        ));
        ooc_rows.push(serde_json::json!({
            "ranks": ranks,
            "iterations": iterations,
            "events": ev,
            "in_memory": in_memory_t.to_json(),
            "out_of_core": ooc_t.to_json(),
            "out_of_core_passes": passes,
            "out_of_core_events_per_sec": ev as f64 / ooc_t.best,
            "streamed_events_per_sec_per_pass": passes as f64 * ev as f64 / ooc_t.best,
            "slowdown_per_pass_vs_in_memory": per_pass_ratio,
            "slowdown_ooc_vs_in_memory": wall_ratio,
            "peak_state": serde_json::json!({
                "in_memory_resident_events": ev,
                "ooc_worker_live_items": worker_items,
                "ooc_read_buffer_bytes": cfg.read_buffer_bytes,
                "ooc_mmap": cfg.mmap,
            }),
        }));
    }

    // Work-stealing thread scaling on a multi-million-event archive:
    // 8 fused workers vs 1 on the disk fast path. The ≥3× gate needs 8
    // real cores to mean anything, so it is enforced only on hosts with
    // at least that much parallelism; the measurement is recorded
    // everywhere (`host_cpus` says what the numbers were taken on).
    let scaling_trace = perfvar_bench::counter_stencil_trace(64, 3600);
    let scaling_events = scaling_trace.num_events() as u64;
    let scaling_archive = archive_dir.join("stencil-scaling.pvta");
    perfvar_trace::format::write_trace_file(&scaling_trace, &scaling_archive).unwrap();
    drop(scaling_trace);
    let mut scaling_rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let t = time_reps(&mut || {
            perfvar_analysis::analyze_path(&scaling_archive, &cfg_at(threads)).unwrap();
        });
        scaling_rows.push((threads, t));
    }
    let scaling_1t = scaling_rows[0].1.best;
    let scaling_8t = scaling_rows.last().unwrap().1.best;
    let scaling_x = scaling_1t / scaling_8t;
    let scaling_gated = host_cpus >= 8 && !relaxed;
    let scaling_ok = scaling_events >= 2_000_000 && (!scaling_gated || scaling_x >= 3.0);
    report.check(
        "SCALING work-stealing fused threads",
        "8 work-stealing workers ≥3× one worker on a ≥2M-event archive \
         (wall-clock gate enforced on hosts with ≥8 CPUs; always recorded)",
        format!(
            "{scaling_events} events; 1T {scaling_1t:.3} s → 8T {scaling_8t:.3} s \
             ({scaling_x:.2}×) on a {host_cpus}-CPU host{}",
            if scaling_gated {
                ""
            } else {
                " (gate waived: too few CPUs or relaxed mode)"
            }
        ),
        scaling_ok,
    );

    // Telemetry overhead: the instrumented entry point driving a live
    // recorder vs the identical run through the noop recorder, on the
    // ≥2M-event scaling archive with one worker. Each timed sample is
    // three back-to-back analyses (~50–70 ms each), so the 5 ms absolute
    // floor stays near 3% of the noop sample and the relative bound is
    // the clause that decides.
    const TELEMETRY_RUNS: usize = 3;
    let cfg = cfg_at(1);
    let strict = perfvar_analysis::RecoveryMode::Strict;
    let (noop_t, observed_t) = time_interleaved(
        &mut || {
            for _ in 0..TELEMETRY_RUNS {
                perfvar_analysis::analyze_path_with(&scaling_archive, &cfg, strict).unwrap();
            }
        },
        &mut || {
            for _ in 0..TELEMETRY_RUNS {
                let telemetry = perfvar_analysis::Telemetry::enabled();
                perfvar_analysis::analyze_path_observed(&scaling_archive, &cfg, strict, &telemetry)
                    .unwrap();
            }
        },
    );
    let (noop_s, observed_s) = (noop_t.best, observed_t.best);
    let overhead = observed_s / noop_s - 1.0;
    // A stats document from one instrumented run, embedded in the JSON
    // so the shape is asserted by CI (and inspectable offline).
    let telemetry = perfvar_analysis::Telemetry::enabled();
    perfvar_analysis::analyze_path_observed(&scaling_archive, &cfg, strict, &telemetry).unwrap();
    let stats = telemetry.snapshot().unwrap();
    // <5% relative (25% in relaxed mode), with a 5 ms absolute floor so
    // sub-noise deltas on a fast box never fail the gate.
    let overhead_limit = if relaxed { 0.25 } else { 0.05 };
    let telemetry_ok = (overhead < overhead_limit || observed_s - noop_s < 0.005)
        && !stats.stages.is_empty()
        && stats.totals.events_replayed > 0;

    // The serial tail: the `assemble` stage (part finalize: profiles,
    // SOS matrix, imbalance, waste, counter correlation) of one-thread
    // analyses of the scaling archive, as the telemetry records it.
    let assemble_t = Timing::of_samples(
        (0..BENCH_REPS)
            .map(|_| {
                let telemetry = perfvar_analysis::Telemetry::enabled();
                perfvar_analysis::analyze_path_observed(&scaling_archive, &cfg, strict, &telemetry)
                    .unwrap();
                telemetry
                    .snapshot()
                    .unwrap()
                    .stage("assemble")
                    .unwrap()
                    .wall_s
            })
            .collect(),
    );
    let assemble_limit = if relaxed { 0.060 } else { 0.016 };
    let timing_row = |threads: usize, t: &Timing| {
        serde_json::json!({
            "threads": threads,
            "best_s": t.best,
            "median_s": t.median,
            "stddev_s": t.stddev,
        })
    };
    let json = serde_json::json!({
        "trace": serde_json::json!({
            "workload": "counter-stencil",
            "ranks": 64,
            "iterations": 200,
            "events": events,
            "metrics": trace.registry().num_metrics(),
        }),
        "bench": serde_json::json!({
            "reps_per_measurement": BENCH_REPS,
            "host_cpus": host_cpus,
            "relaxed": relaxed,
        }),
        "telemetry": serde_json::json!({
            "fixture": "stencil-scaling.pvta, analyze_path, 1 thread",
            "events": scaling_events,
            "analyses_per_sample": TELEMETRY_RUNS,
            "noop_s": noop_s,
            "observed_s": observed_s,
            "noop": noop_t.to_json(),
            "observed": observed_t.to_json(),
            "overhead_fraction": overhead,
            "stats": stats,
        }),
        "assemble": serde_json::json!({
            "fixture": "stencil-scaling.pvta, analyze_path_observed, 1 thread",
            "timing": assemble_t.to_json(),
        }),
        "reference_sequential_s": reference_s,
        "reference_sequential": reference_t.to_json(),
        "fused_s": fused_s
            .iter()
            .map(|(n, t)| timing_row(*n, t))
            .collect::<Vec<_>>(),
        "fused_events_per_sec": events as f64 / fused_best,
        "speedup_fused8_vs_reference": speedup,
        "peak_invocations": serde_json::json!({
            "reference_materialised": reference_peak,
            "fused_per_worker_live": fused_peak,
        }),
        "out_of_core": ooc_rows,
        "scaling": serde_json::json!({
            "events": scaling_events,
            "threads": scaling_rows
                .iter()
                .map(|(n, t)| timing_row(*n, t))
                .collect::<Vec<_>>(),
            "speedup_8_vs_1": scaling_x,
            "gate_enforced": scaling_gated,
        }),
    });

    let speedup_floor = if relaxed { 1.0 } else { 1.5 };
    report.check(
        "PIPELINE fused streaming vs materialising reference",
        "fused analyze() ≥1.5× faster; worker state shrinks from \
         O(invocations) to O(stack + segments + functions)",
        format!(
            "reference {:.3} s, fused@8 {:.3} s ({speedup:.2}×); \
             {:.1}M events/s; peak state {reference_peak} invocations → {fused_peak} rows",
            reference_s,
            fused_at_8,
            events as f64 / fused_best / 1e6,
        ),
        speedup >= speedup_floor && fused_peak < reference_peak / 100,
    );

    report.check(
        "OUT-OF-CORE analyze_path vs in-memory fused",
        "speculative fusion reads the archive once (passes == 1, strict even \
         in relaxed mode) and the single streaming pass is no slower than \
         the in-memory path's end-to-end rate; per-worker state is \
         O(buffer + stack + segments + functions), independent of trace \
         length (64 and 256 ranks)",
        ooc_summary.join("; "),
        ooc_ok,
    );

    report.check(
        "TELEMETRY observability overhead",
        "recording per-stage spans, worker counters and progress ticks costs \
         <5% of analyze_path wall time on the ≥2M-event scaling archive (the \
         noop recorder is one dead branch); the stats document lands in \
         BENCH_pipeline.json",
        format!(
            "noop {noop_s:.3} s vs observed {observed_s:.3} s ({:+.2}%; the 5 ms \
             floor is {:.1}% of the noop wall); \
             {} stage(s), {} events counted over {} worker buffer(s)",
            overhead * 100.0,
            0.005 / noop_s * 100.0,
            stats.stages.len(),
            stats.totals.events_replayed,
            stats.peaks.worker_buffers,
        ),
        telemetry_ok,
    );

    report.check(
        "ASSEMBLE serial tail",
        "the assemble stage after the parallel pass (SOS matrix, selection \
         medians, waste, counter correlation) costs ≤16 ms (60 ms relaxed) \
         on the 230,400-segment scaling archive with one worker",
        format!(
            "{} segments; assemble best {:.1} ms, median {:.1} ms (σ {:.1} ms)",
            stats.totals.segments_emitted,
            assemble_t.best * 1e3,
            assemble_t.median * 1e3,
            assemble_t.stddev * 1e3,
        ),
        assemble_t.best <= assemble_limit,
    );

    json
}

/// Paired rounds of the REPLAY row (item 10's statistic: the median of
/// per-round ratios).
const REPLAY_ROUNDS: usize = 11;
/// Back-to-back sweeps (and analyses) per REPLAY sample, so every
/// sample is ≥50 ms of work.
const REPLAY_RUNS: usize = 3;
/// The REPLAY gate: the fuse stage over the bare sweep, strict mode.
const REPLAY_LIMIT: f64 = 2.3;

/// Replay at decode speed: a bare cursor sweep of the pipeline
/// benchmark's `stencil-scaling.pvta` (every rank's stream decoded in
/// 1024-record chunks, nothing else) against the `fuse` stage of
/// one-thread analyses of the same archive (the same decode, plus the
/// replay machine, the profile and fused sinks and their output), timed
/// as pairs. The gate is on the median per-round ratio `fuse / sweep`.
fn replay_benchmark(report: &mut Report, out_dir: &Path) -> serde_json::Value {
    use perfvar_trace::format::cursor::ArchiveCursor;
    use std::time::Instant;

    let archive = out_dir.join("bench-archives").join("stencil-scaling.pvta");
    let config = AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    };
    let strict = perfvar_analysis::RecoveryMode::Strict;
    let sweep = || {
        let cursor = ArchiveCursor::open(&archive).unwrap();
        let mut chunk = Vec::with_capacity(1024);
        let mut events = 0u64;
        for i in 0..cursor.num_processes() {
            let mut stream = cursor.stream(ProcessId::from_index(i)).unwrap();
            while stream.next_chunk(&mut chunk, 1024).unwrap() > 0 {
                events += chunk.len() as u64;
            }
        }
        events
    };
    // The fuse stage of one analysis: wall, decode and replay busy time.
    let fuse = || {
        let telemetry = perfvar_analysis::Telemetry::enabled();
        perfvar_analysis::analyze_path_observed(&archive, &config, strict, &telemetry).unwrap();
        let stats = telemetry.snapshot().unwrap();
        let fuse = stats.stage("fuse").unwrap();
        (fuse.wall_s, fuse.decode_s, fuse.replay_s, fuse.events)
    };
    let events = sweep();
    let (mut sweeps, mut fuses, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let (mut decode, mut replay) = (Vec::new(), Vec::new());
    let mut replayed = 0;
    for round in 0..REPLAY_ROUNDS {
        // One sample per side is REPLAY_RUNS runs, taken in alternation
        // (which side leads alternates by round), so a drift of the host
        // within a round reaches both sides.
        let (mut s, mut f, mut d, mut r) = (0.0, 0.0, 0.0, 0.0);
        for run in 0..REPLAY_RUNS {
            for side in [(round + run) % 2, (round + run + 1) % 2] {
                if side == 0 {
                    let start = Instant::now();
                    assert_eq!(sweep(), events);
                    s += start.elapsed().as_secs_f64();
                } else {
                    let (wall, dd, rr, n) = fuse();
                    (f, d, r, replayed) = (f + wall, d + dd, r + rr, n);
                }
            }
        }
        sweeps.push(s);
        fuses.push(f);
        ratios.push(f / s);
        decode.push(d);
        replay.push(r);
    }
    let ratio = median(ratios.clone());
    let limit = if bench_relaxed() { 3.0 } else { REPLAY_LIMIT };
    let per_event = |s: f64| s / (REPLAY_RUNS as u64 * events) as f64 * 1e9;
    let (sweep_t, fuse_t) = (Timing::of_samples(sweeps), Timing::of_samples(fuses));
    let (decode_s, replay_s) = (median(decode), median(replay));
    report.check(
        "REPLAY at decode speed",
        &format!(
            "the fuse stage of a one-thread analysis of the ≥2M-event \
             stencil-scaling.pvta costs ≤{REPLAY_LIMIT}× a bare cursor sweep of the \
             same archive (median of {REPLAY_ROUNDS} paired rounds of \
             {REPLAY_RUNS} runs each; 3× relaxed)"
        ),
        format!(
            "{events} events; sweep median {:.2} ns/event, fuse median {:.2} ns/event \
             (decode {:.2} + replay {:.2} ns/event of worker busy time); \
             fuse/sweep median {ratio:.2}× (rounds {:.2}–{:.2}×)",
            per_event(sweep_t.median),
            per_event(fuse_t.median),
            per_event(decode_s),
            per_event(replay_s),
            ratios.iter().copied().fold(f64::INFINITY, f64::min),
            ratios.iter().copied().fold(0.0, f64::max),
        ),
        replayed == events && ratio <= limit,
    );
    serde_json::json!({
        "fixture": "stencil-scaling.pvta, 1 thread",
        "events": events,
        "rounds": REPLAY_ROUNDS,
        "runs_per_sample": REPLAY_RUNS,
        "sweep": sweep_t.to_json(),
        "fuse": fuse_t.to_json(),
        "fuse_decode_busy_s": decode_s,
        "fuse_replay_busy_s": replay_s,
        "fuse_over_sweep": ratios,
        "fuse_over_sweep_median": ratio,
        "limit": limit,
    })
}

/// Paired rounds of the SERVE row.
const SERVE_ROUNDS: usize = 9;
/// Requests per SERVE sample (each ~2 ms), so a sample is ≥50 ms of
/// loopback traffic.
const SERVE_REQUESTS: usize = 24;
/// The SERVE gate: a warm hit over the bare transfer, strict mode.
const SERVE_LIMIT: f64 = 1.5;

/// Measures the analysis daemon's content-addressed cache: a warm hit
/// against a bare loopback transfer of the same body bytes (paired
/// rounds), the cold request that filled the cache for the record, and
/// that the telemetry at `/v1/stats` shows exactly one analysis.
fn serve_benchmark(report: &mut Report, out_dir: &Path) -> serde_json::Value {
    use perfvar_analysis::prelude::PipelineStats;
    use perfvar_server::http::percent_encode;
    use perfvar_server::{client, ServeOptions, Server};
    use serde::Deserialize;
    use std::time::Instant;

    let stats_of = |addr: &str| -> PipelineStats {
        let resp = client::get(addr, "/v1/stats").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        PipelineStats::from_value(&client::parse_envelope(&resp.body).unwrap().data).unwrap()
    };

    // A 4 MB analysis body, so a warm hit is mostly moving bytes over
    // loopback — what the bare-transfer reference below times.
    let trace = perfvar_bench::counter_stencil_trace(32, 500);
    let archive = out_dir.join("serve-fixture.pvta");
    perfvar_trace::format::write_trace_file(&trace, &archive).unwrap();

    let handle = Server::bind("127.0.0.1:0", ServeOptions::default())
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr().to_string();
    let target = format!(
        "/v1/analyze?path={}",
        percent_encode(archive.to_str().unwrap())
    );

    let start = Instant::now();
    let cold = client::get(&addr, &target).unwrap();
    let cold_s = start.elapsed().as_secs_f64();
    assert_eq!(cold.status, 200, "{}", cold.body);
    // Speculative fusion streams the archive once (plus a small rank-0
    // prediction prefix), so one analysis replays roughly the event
    // count; capture the post-cold telemetry and require it to stay
    // frozen through the warm rounds.
    let after_cold = stats_of(&addr);

    // The reference the code cannot change: the same body bytes under a
    // minimal HTTP head, served over loopback by a thread that reads one
    // request head per connection and writes the response whole.
    let response = [
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            cold.body.len()
        )
        .as_bytes(),
        cold.body.as_bytes(),
    ]
    .concat();
    let bare = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let bare_addr = bare.local_addr().unwrap().to_string();
    let transfers = SERVE_ROUNDS * SERVE_REQUESTS;
    let bare_server = std::thread::spawn(move || {
        use std::io::{BufRead, Write};
        for stream in bare.incoming().take(transfers) {
            let mut stream = std::io::BufReader::new(stream.unwrap());
            let mut line = String::new();
            while stream.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
                line.clear();
            }
            stream.get_mut().write_all(&response).unwrap();
        }
    });

    // Paired rounds of SERVE_REQUESTS back-to-back requests per side;
    // which side leads alternates by round.
    let time_requests = |addr: &str, target: &str| {
        let start = Instant::now();
        for _ in 0..SERVE_REQUESTS {
            let response = client::get(addr, target).unwrap();
            assert_eq!(response.body, cold.body, "warm hit must be byte-identical");
        }
        start.elapsed().as_secs_f64() / SERVE_REQUESTS as f64
    };
    let (mut warm, mut reference, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..SERVE_ROUNDS {
        let (w, b) = if round % 2 == 0 {
            let w = time_requests(&addr, &target);
            (w, time_requests(&bare_addr, "/"))
        } else {
            let b = time_requests(&bare_addr, "/");
            (time_requests(&addr, &target), b)
        };
        warm.push(w);
        reference.push(b);
        ratios.push(w / b);
    }
    bare_server.join().unwrap();

    let stats = stats_of(&addr);
    handle.shutdown();

    let events = trace.num_events() as u64;
    let ratio = median(ratios.clone());
    let (warm_t, bare_t) = (Timing::of_samples(warm), Timing::of_samples(reference));
    let one_analysis = stats.totals.events_replayed > 0
        && stats.totals.events_replayed == after_cold.totals.events_replayed
        && stats.totals.bytes_decoded == after_cold.totals.bytes_decoded;
    let limit = if bench_relaxed() { 5.0 } else { SERVE_LIMIT };

    report.check(
        "SERVE content-addressed result cache",
        &format!(
            "a warm /v1/analyze hit costs ≤{SERVE_LIMIT}× a bare loopback transfer of \
             the same body bytes (median of {SERVE_ROUNDS} paired rounds of \
             {SERVE_REQUESTS} requests; 5× relaxed); /v1/stats telemetry shows \
             the trace was analyzed exactly once across 1 cold + {} warm requests",
            transfers
        ),
        format!(
            "cold {:.1} ms; warm median {:.3} ms vs bare transfer median {:.3} ms of \
             {} KiB: warm/bare median {ratio:.2}× (rounds {:.2}–{:.2}×); \
             {} events replayed across {} requests, unchanged after the \
             cold one (trace has {}, streamed in a single fused pass)",
            cold_s * 1e3,
            warm_t.median * 1e3,
            bare_t.median * 1e3,
            cold.body.len() / 1024,
            ratios.iter().copied().fold(f64::INFINITY, f64::min),
            ratios.iter().copied().fold(0.0, f64::max),
            stats.totals.events_replayed,
            transfers + 1,
            events,
        ),
        ratio <= limit && one_analysis,
    );

    serde_json::json!({
        "ranks": 32,
        "events": events,
        "body_bytes": cold.body.len(),
        "cold_s": cold_s,
        "warm": warm_t.to_json(),
        "bare_transfer": bare_t.to_json(),
        "rounds": SERVE_ROUNDS,
        "requests_per_sample": SERVE_REQUESTS,
        "warm_over_bare": ratios,
        "warm_over_bare_median": ratio,
        "limit": limit,
        "warm_speedup": cold_s / warm_t.median,
        "events_replayed": stats.totals.events_replayed,
    })
}

/// Drives a default daemon with the `loadgen` engine — a closed-loop
/// mixed cold/warm request stream — and gates the p99 latency under
/// concurrency. The SERVE-LOAD row in BENCH_pipeline.json.
fn serve_load_benchmark(report: &mut Report, out_dir: &Path) -> serde_json::Value {
    use perfvar_bench::load;
    use perfvar_server::http::percent_encode;
    use perfvar_server::{client, ServeOptions, Server};

    // Smaller than the cache fixture: every cold request in the mix runs
    // the full pipeline, and there are ~10 of them per run.
    let trace = perfvar_bench::counter_stencil_trace(16, 200);
    let archive = out_dir.join("serve-load-fixture.pvta");
    perfvar_trace::format::write_trace_file(&trace, &archive).unwrap();

    let handle = Server::bind("127.0.0.1:0", ServeOptions::default())
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr().to_string();
    let encoded = percent_encode(archive.to_str().unwrap());

    // Prime the warm entry so "warm" is warm from the first sample.
    let prime = client::get(&addr, &format!("/v1/analyze?path={encoded}")).unwrap();
    assert_eq!(prime.status, 200, "{}", prime.body);

    let requests = 120usize;
    let concurrency = 16usize;
    let cold_frac = 0.1;
    // cold_window 120 needs ≥ 123 iterations; the fixture has 200.
    let targets = load::mixed_targets(&encoded, requests, cold_frac, 120, 7);
    let cold = targets.iter().filter(|t| t.contains("multiplier")).count();
    let summary = load::closed_loop(&addr, &targets, concurrency);
    handle.shutdown();

    let p50 = summary.quantile(0.50);
    let p99 = summary.quantile(0.99);
    let p99_limit = if bench_relaxed() { 60.0 } else { 2.0 };
    report.check(
        "SERVE-LOAD p99 latency under concurrency",
        &format!(
            "{requests} closed-loop requests ({cold} cold / {} warm) from \
             {concurrency} workers against a default daemon all succeed \
             with p99 < {p99_limit:.0} s (p50/p99 recorded in \
             BENCH_pipeline.json)",
            requests - cold,
        ),
        format!(
            "p50 {:.1} ms, p99 {:.1} ms, {:.0} req/s, {} errors over {:.2} s",
            p50 * 1e3,
            p99 * 1e3,
            summary.throughput(),
            summary.errors,
            summary.wall_s,
        ),
        summary.errors == 0 && p99 < p99_limit,
    );

    serde_json::json!({
        "requests": requests,
        "cold": cold,
        "concurrency": concurrency,
        "errors": summary.errors,
        "wall_s": summary.wall_s,
        "throughput_rps": summary.throughput(),
        "mean_s": summary.mean(),
        "p50_s": p50,
        "p99_s": p99,
    })
}

/// Regression hunting end-to-end: bisect a seeded 8-run archive sequence
/// with a work step planted at run 5 and require the comparison verdict
/// to (a) find exactly run 5, (b) do it in at most 1 + ⌈log₂ 7⌉ = 4
/// base-vs-candidate comparisons, and (c) agree across 5 repeated
/// invocations with fresh analyses — the determinism claim behind
/// `perfvar bisect --reps`. The REGRESSION row in BENCH_pipeline.json.
fn regression_benchmark(report: &mut Report, out_dir: &Path) -> serde_json::Value {
    use perfvar_analysis::{bisect_first_regression, RunComparison, DEFAULT_NOISE_THRESHOLD};

    let seq_dir = out_dir.join("regression-seq");
    std::fs::create_dir_all(&seq_dir).unwrap();
    let step_at = 5usize;
    let runs = perfvar_bench::regression_sequence(&seq_dir, 8, step_at);

    let analysis_of = |path: &Path| {
        let result = perfvar_analysis::outofcore::analyze_path_with(
            path,
            &AnalysisConfig::default(),
            perfvar_analysis::outofcore::RecoveryMode::Strict,
        )
        .unwrap();
        let names: Vec<String> = result
            .meta
            .registry
            .functions()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        (result.analysis, names)
    };

    let reps = 5usize;
    let mut outcomes = Vec::new();
    let mut relative_change = 0.0;
    for _ in 0..reps {
        let base = analysis_of(&runs[0]);
        let outcome = bisect_first_regression(runs.len(), |i| {
            let cand = analysis_of(&runs[i]);
            let comparison = RunComparison::compare_analyses(&base.0, &base.1, &cand.0, &cand.1);
            let verdict = comparison.verdict(DEFAULT_NOISE_THRESHOLD);
            if i == runs.len() - 1 {
                relative_change = verdict.relative_change;
            }
            Ok::<bool, std::convert::Infallible>(
                verdict.class == perfvar_analysis::VerdictClass::Regression,
            )
        })
        .unwrap();
        outcomes.push(outcome);
    }

    let first = &outcomes[0];
    let unanimous = outcomes.iter().all(|o| o.first_bad == first.first_bad);
    let max_comparisons = outcomes.iter().map(|o| o.comparisons).max().unwrap();
    let found = first.first_bad == Some(step_at);
    report.check(
        "REGRESSION bisect on a seeded run sequence",
        &format!(
            "the first regressing run of 8 (work step planted at run {step_at}) is found \
             in ≤4 comparisons; the verdict is identical over {reps} repeated walks"
        ),
        format!(
            "first_bad {:?} (expected Some({step_at})), ≤{max_comparisons} comparisons/walk, \
             {reps}/{reps} walks agree; step size {:+.0}% robust makespan",
            first.first_bad,
            relative_change * 100.0
        ),
        found && unanimous && max_comparisons <= 4,
    );

    serde_json::json!({
        "runs": runs.len(),
        "step_at": step_at,
        "first_bad": first.first_bad,
        "comparisons": first.comparisons,
        "reps": reps,
        "unanimous": unanimous,
        "relative_change": relative_change,
        "threshold": DEFAULT_NOISE_THRESHOLD,
    })
}

/// Live incremental analysis cost: grow a 16-rank counter stencil as a
/// live archive over many flush rounds, folding each appended slice
/// with [`LiveAnalysis::poll`](perfvar_analysis::live::LiveAnalysis),
/// and gate that (a) the finalized live result is identical to the
/// one-shot batch analysis of the sealed archive, and (b) the *total*
/// incremental folding cost stays within a small factor of a single
/// one-shot analysis — re-analysing from scratch after every flush,
/// which is what a dashboard had to do before the live path existed,
/// costs `rounds ×` that. The LIVE row in BENCH_pipeline.json.
fn live_benchmark(report: &mut Report, out_dir: &Path) -> serde_json::Value {
    use perfvar_analysis::live::LiveAnalysis;
    use perfvar_trace::format::live::LiveArchiveWriter;
    use std::time::Instant;

    let trace = perfvar_bench::counter_stencil_trace(16, 200);
    let archive = out_dir.join("live-fixture.pvta");
    let _ = std::fs::remove_dir_all(&archive);
    let mut w =
        LiveArchiveWriter::create(&archive, "live-bench", trace.clock(), trace.registry()).unwrap();
    let mut live = LiveAnalysis::open(&archive, AnalysisConfig::default()).unwrap();

    let streams = trace.streams();
    let rounds = 16usize;
    let chunk = streams
        .iter()
        .map(|s| s.records().len())
        .max()
        .unwrap_or(0)
        .div_ceil(rounds)
        .max(1);
    let mut offsets = vec![0usize; streams.len()];
    let mut poll_total_s = 0.0f64;
    let mut max_poll_s = 0.0f64;
    let mut polls = 0usize;
    loop {
        let mut wrote = false;
        for (i, stream) in streams.iter().enumerate() {
            let records = stream.records();
            let end = (offsets[i] + chunk).min(records.len());
            for r in &records[offsets[i]..end] {
                w.append(stream.process, r).unwrap();
            }
            wrote |= end > offsets[i];
            offsets[i] = end;
        }
        if !wrote {
            break;
        }
        w.flush().unwrap();
        let t = Instant::now();
        live.poll();
        let dt = t.elapsed().as_secs_f64();
        poll_total_s += dt;
        max_poll_s = max_poll_s.max(dt);
        polls += 1;
    }
    w.finish().unwrap();
    loop {
        let t = Instant::now();
        let delta = live.poll();
        poll_total_s += t.elapsed().as_secs_f64();
        if delta.finished {
            break;
        }
    }
    let folded = live.finalize().unwrap();

    let t = Instant::now();
    let one_shot = perfvar_analysis::outofcore::analyze_path_with(
        &archive,
        &AnalysisConfig::default(),
        perfvar_analysis::outofcore::RecoveryMode::Strict,
    )
    .unwrap();
    let one_shot_s = t.elapsed().as_secs_f64();

    let identical =
        serde_json::to_value(&folded.analysis) == serde_json::to_value(&one_shot.analysis);
    let naive_s = one_shot_s * polls as f64;
    let limit = if bench_relaxed() { 20.0 } else { 4.0 };
    report.check(
        "LIVE incremental re-analysis cost",
        &format!(
            "folding a run incrementally over {rounds} flushes costs ≤{limit:.0}× one \
             one-shot analysis (re-analysing from scratch per flush costs {rounds}×) \
             and finalizes bit-identically to the batch result"
        ),
        format!(
            "{polls} polls {:.1} ms total (max {:.1} ms) vs one-shot {:.1} ms \
             (naive per-flush re-analysis ≈ {:.1} ms); identical: {identical}",
            poll_total_s * 1e3,
            max_poll_s * 1e3,
            one_shot_s * 1e3,
            naive_s * 1e3,
        ),
        identical && poll_total_s <= limit * one_shot_s,
    );

    serde_json::json!({
        "ranks": 16,
        "rounds": polls,
        "poll_total_s": poll_total_s,
        "max_poll_s": max_poll_s,
        "one_shot_s": one_shot_s,
        "naive_reanalysis_s": naive_s,
        "identical": identical,
    })
}

fn ablation_sos_vs_durations(report: &mut Report) {
    let mut sos_hits = 0usize;
    let mut duration_hits = 0usize;
    let trials = 10usize;
    for k in 0..trials {
        let ranks = 8;
        let outlier = (3 * k + 1) % ranks;
        let trace = outlier_trace(ranks, 10, outlier);
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        if analysis.imbalance.hottest_process() == Some(ProcessId::from_index(outlier)) {
            sos_hits += 1;
        }
        let naive = ImbalanceAnalysis::detect(
            &analysis.sos.durations_as_sos(),
            AnalysisConfig::default().imbalance,
        );
        // The naive variant must name the process; ties (everyone equal
        // because of barrier waiting) resolve arbitrarily.
        let naive_scores = &naive.process_scores;
        let naive_max = naive_scores
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        // Count a hit only if the outlier's score clearly exceeds peers.
        if naive_scores[outlier] >= naive_max && naive_max > 3.5 {
            duration_hits += 1;
        }
    }
    report.check(
        "ABLATION SOS vs plain durations",
        "plain durations cannot identify the slow process (§V); SOS-time can",
        format!("SOS localises {sos_hits}/{trials}; plain durations {duration_hits}/{trials}"),
        sos_hits == trials && duration_hits < trials / 2,
    );
}

// ───────────────────── diagnosis benchmark ─────────────────────

/// Automatic diagnosis at scale: a 10 000-rank COSMO-SPECS cloud and a
/// 10 000-rank desynchronisation wave, both diagnosed from their
/// finished analyses. Gates: the diagnosis layer itself stays under the
/// wall gate (it must never materialise a rank × rank distance matrix),
/// each seeded cause is named by the *top* finding, the heatmap summary
/// respects the cluster cap, and the JSON bytes are identical across
/// thread counts. The DIAGNOSE row in BENCH_pipeline.json.
fn diagnose_benchmark(report: &mut Report, _out_dir: &Path) -> serde_json::Value {
    use perfvar_analysis::findings::FindingKind;
    use perfvar_analysis::{diagnose_meta, DiagnoseConfig};
    use perfvar_sim::workloads::{CosmoSpecs, DesyncWave, Workload};
    use perfvar_trace::TraceMeta;

    let relaxed = bench_relaxed();
    let wall_gate = if relaxed { 12.0 } else { 2.0 };
    let config = DiagnoseConfig::default();

    // Case 1 — static imbalance: the paper's cloud scaled to a 100 × 100
    // grid. Short runs need a stronger cloud than the paper's
    // 60-iteration build-up to clear the persistent-overload bar.
    let mut cosmo = CosmoSpecs::small(100, 100, 8);
    cosmo.cloud_amplitude = 6.0;
    let cloudy = cosmo.cloudy_ranks();
    let hottest = cosmo.hottest_rank();
    let trace = perfvar_sim::simulate(&cosmo.spec()).unwrap();
    let meta = TraceMeta::of(&trace);
    let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
    let imbalance_t = time_reps(&mut || {
        diagnose_meta(&meta, &analysis, &config);
    });
    let diagnosis = diagnose_meta(&meta, &analysis, &config);
    let overload_top = matches!(
        diagnosis.findings.first().map(|f| &f.kind),
        Some(FindingKind::OverloadedCluster { .. })
    );
    // Every rank an OverloadedCluster finding names must really sit
    // under the cloud, and the hottest rank must be among them.
    let mut named = Vec::new();
    for finding in &diagnosis.findings {
        if let FindingKind::OverloadedCluster { processes, .. } = &finding.kind {
            named.extend(processes.iter().map(|p| p.index()));
        }
    }
    let all_cloudy = named.iter().all(|r| cloudy.contains(r));
    let hottest_named = named.contains(&hottest);
    let capped = diagnosis.clusters.len() <= config.max_clusters;
    report.check(
        "DIAGNOSE 10k-rank static imbalance",
        "top finding: OverloadedCluster naming only cloudy ranks, incl. the hottest; \
         ≤ 20 heatmap rows",
        format!(
            "top OverloadedCluster: {overload_top}; {} named rank(s), all cloudy: {all_cloudy}, \
             hottest ({hottest}) named: {hottest_named}; {} cluster row(s)",
            named.len(),
            diagnosis.clusters.len()
        ),
        overload_top && all_cloudy && hottest_named && capped,
    );

    // Bit-stability: the diagnosis consumes only the (bit-stable)
    // analysis, so its bytes must not depend on the thread count.
    let mut bodies = Vec::new();
    for threads in [1usize, 4] {
        let cfg = AnalysisConfig {
            threads,
            ..AnalysisConfig::default()
        };
        let a = analyze(&trace, &cfg).unwrap();
        let d = diagnose_meta(&meta, &a, &config);
        bodies.push(serde_json::to_string_pretty(&d).unwrap());
    }
    let thread_stable = bodies.windows(2).all(|w| w[0] == w[1]);
    report.check(
        "DIAGNOSE thread stability",
        "identical JSON at --threads 1 and 4",
        format!("identical: {thread_stable}"),
        thread_stable,
    );

    // Case 2 — the desynchronisation wave: one rank's one-off delay
    // sweeps its ring neighbours one segment per hop (Afzal et al.);
    // compute is balanced, so only the wait pattern carries the cause.
    let wave_workload = DesyncWave::new(10_000, 30, 2_500);
    let wave_trace = perfvar_sim::simulate(&wave_workload.spec()).unwrap();
    let wave_meta = TraceMeta::of(&wave_trace);
    let wave_analysis = analyze(&wave_trace, &AnalysisConfig::default()).unwrap();
    let wave_t = time_reps(&mut || {
        diagnose_meta(&wave_meta, &wave_analysis, &config);
    });
    let wave_diagnosis = diagnose_meta(&wave_meta, &wave_analysis, &config);
    let wave_top = match wave_diagnosis.findings.first().map(|f| &f.kind) {
        Some(FindingKind::PropagatingWait { origin, .. }) => origin.index() == 2_500,
        _ => false,
    };
    let wave_found = wave_diagnosis.wave.as_ref().is_some_and(|w| {
        w.origin.index() == 2_500 && w.start_ordinal == wave_workload.delay_iteration
    });
    report.check(
        "DIAGNOSE 10k-rank desync wave",
        "top finding: PropagatingWait with the seeded origin (rank 2500) and delay segment",
        format!(
            "top PropagatingWait at origin: {wave_top}; wave recovered: {wave_found} \
             ({} cluster row(s))",
            wave_diagnosis.clusters.len()
        ),
        wave_top && wave_found && wave_diagnosis.clusters.len() <= config.max_clusters,
    );

    let slowest = imbalance_t.best.max(wave_t.best);
    report.check(
        "DIAGNOSE wall time",
        &format!("each 10k-rank diagnosis under {wall_gate} s (no rank × rank matrix)"),
        format!(
            "imbalance best {:.3} s, wave best {:.3} s",
            imbalance_t.best, wave_t.best
        ),
        slowest < wall_gate,
    );

    serde_json::json!({
        "ranks": 10_000,
        "imbalance": imbalance_t.to_json(),
        "wave": wave_t.to_json(),
        "clusters_imbalance": diagnosis.clusters.len(),
        "clusters_wave": wave_diagnosis.clusters.len(),
        "max_clusters": config.max_clusters,
        "thread_stable": thread_stable,
        "wall_gate_s": wall_gate,
        "relaxed": relaxed,
    })
}

// ───────────────────── rank scale ─────────────────────

/// Diagnosis (after the analysis) and the communication-matrix render
/// (message matching included) on balanced runs of 512–4096 ranks × 20
/// iterations, best-of-[`BENCH_REPS`] each. 512 ranks is the largest run
/// the diagnosis clusters exactly, so its point also gates the exact
/// path; above it the streaming summariser takes over. The RANK-SCALE
/// row in BENCH_pipeline.json.
fn rank_scale_benchmark(report: &mut Report) -> serde_json::Value {
    use perfvar_analysis::messages::MessageAnalysis;
    use perfvar_analysis::{diagnose_meta, DiagnoseConfig};
    use perfvar_sim::workloads::{BalancedStencil, Workload};
    use perfvar_trace::TraceMeta;
    use perfvar_viz::matrix::{render_comm_matrix_svg, CommQuantity};

    const RANKS: [usize; 4] = [512, 1024, 2048, 4096];
    let config = DiagnoseConfig::default();
    let mut points = Vec::new();
    for ranks in RANKS {
        let trace = perfvar_sim::simulate(&BalancedStencil::new(ranks, 20).spec()).unwrap();
        let meta = TraceMeta::of(&trace);
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let diagnose_t = time_reps(&mut || {
            std::hint::black_box(diagnose_meta(&meta, &analysis, &config));
        });
        let comm_t = time_reps(&mut || {
            let comm = MessageAnalysis::match_trace(&trace).comm_matrix(ranks);
            std::hint::black_box(render_comm_matrix_svg(
                &trace,
                &comm,
                CommQuantity::Count,
                720,
            ));
        });
        points.push((ranks, trace.num_events(), diagnose_t, comm_t));
    }

    let exact = &points[0].2;
    let exact_gate = if bench_relaxed() { 0.3 } else { 0.05 };
    report.check(
        "DIAGNOSE 512-rank exact clustering",
        &format!(
            "diagnose_meta on a balanced 512-rank run (the exact path's largest) \
             within {:.0} ms",
            exact_gate * 1e3
        ),
        format!(
            "best {:.1} ms, median {:.1} ms",
            exact.best * 1e3,
            exact.median * 1e3
        ),
        exact.best <= exact_gate,
    );

    let (first, last) = (&points[0], &points[points.len() - 1]);
    let diagnose_ratio = last.2.best / first.2.best;
    let comm_ratio = last.3.best / first.3.best;
    report.check(
        "RANK-SCALE diagnosis and comm matrix",
        "at 4096 ranks, diagnosis and the comm-matrix render each take at most 12× \
         their 512-rank wall time (8× the ranks and events)",
        format!(
            "diagnosis {:.1} → {:.1} ms ({diagnose_ratio:.2}×), comm matrix {:.1} → {:.1} ms \
             ({comm_ratio:.2}×) from 512 to 4096 ranks",
            first.2.best * 1e3,
            last.2.best * 1e3,
            first.3.best * 1e3,
            last.3.best * 1e3,
        ),
        diagnose_ratio <= 12.0 && comm_ratio <= 12.0,
    );

    let rows: Vec<serde_json::Value> = points
        .iter()
        .map(|(ranks, events, diagnose_t, comm_t)| {
            serde_json::json!({
                "ranks": ranks,
                "events": events,
                "diagnose": diagnose_t.to_json(),
                "comm_matrix": comm_t.to_json(),
            })
        })
        .collect();
    serde_json::json!({
        "workload": "balanced, 20 iterations",
        "points": rows,
        "diagnose_4096_over_512": diagnose_ratio,
        "comm_matrix_4096_over_512": comm_ratio,
        "exact_gate_s": exact_gate,
        "relaxed": bench_relaxed(),
    })
}

// ───────────────────── report rendering benchmark ─────────────────────

/// The chart set `perfvar report` renders — timeline with message
/// arrows, SOS and counter heatmaps, summary charts, communication
/// matrix — plus the `report.html` assembly, on the Fig. 5 FD4 trace
/// (200 ranks, 7200 messages). Everything between the finished analysis
/// and the file writes; message matching included. Checks that every
/// rep renders the same bytes. The REPORT-RENDER row in
/// BENCH_pipeline.json.
fn report_render_benchmark(report: &mut Report) -> serde_json::Value {
    use perfvar_viz::html::HtmlReport;
    use perfvar_viz::report::ReportCharts;

    let trace = fig5_trace();
    let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
    let render = || {
        let charts = ReportCharts::render(&trace, &analysis);
        let svg_bytes: usize = charts.files().iter().map(|(_, svg)| svg.len()).sum();
        let mut html = HtmlReport::new(format!("perfvar report — {}", trace.name));
        charts.into_html(&mut html);
        (svg_bytes, html.render())
    };
    let (svg_bytes, first) = render();
    let mut identical = true;
    let t = time_reps(&mut || {
        let (_, html) = render();
        identical &= html == first;
    });
    report.check(
        "REPORT-RENDER chart set",
        "every chart of `perfvar report` rendered once per report, deterministically",
        format!(
            "best {:.1} ms, median {:.1} ms; {} KiB of SVG, {} KiB of HTML; identical across reps: {identical}",
            t.best * 1e3,
            t.median * 1e3,
            svg_bytes / 1024,
            first.len() / 1024
        ),
        identical,
    );
    serde_json::json!({
        "workload": "cosmo-specs-fd4 (Fig. 5)",
        "ranks": trace.num_processes(),
        "events": trace.num_events(),
        "render": t.to_json(),
        "svg_bytes": svg_bytes,
        "html_bytes": first.len(),
        "identical": identical,
    })
}

/// Samples of the JSON row; each renders the whole document once.
const JSON_SAMPLES: usize = 15;
/// The JSON gate: render throughput floor, strict mode, in MB/s. Twice
/// the analysis time of the parent of this gate (51.2 ms best for
/// `analyze_path` of the same archive at one thread) over the 55.3 MB
/// document is 540 MB/s, the old `render ≤ 2 × analyze_path` bound.
const JSON_FLOOR_MB_S: f64 = 550.0;

/// Times rendering the analysis of the pipeline benchmark's
/// `stencil-scaling.pvta` as pretty JSON (the `analyze --json` document,
/// written through `to_writer_pretty` into a sink) and gates on the
/// render throughput over that fixed document, which no analysis
/// speed-up moves.
fn json_render_benchmark(report: &mut Report, out_dir: &Path) -> serde_json::Value {
    let archive = out_dir.join("bench-archives").join("stencil-scaling.pvta");
    let config = AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    };
    let strict = perfvar_analysis::RecoveryMode::Strict;
    let analysis = perfvar_analysis::analyze_path_with(&archive, &config, strict)
        .unwrap()
        .analysis;
    let bytes = serde_json::to_string_pretty(&analysis).unwrap().len();
    let render_t = Timing::of_samples(
        (0..JSON_SAMPLES)
            .map(|_| {
                let start = std::time::Instant::now();
                serde_json::to_writer_pretty(std::io::sink(), &analysis).unwrap();
                start.elapsed().as_secs_f64()
            })
            .collect(),
    );
    let mb_per_s = bytes as f64 / render_t.best / 1e6;
    let floor = if bench_relaxed() {
        150.0
    } else {
        JSON_FLOOR_MB_S
    };
    report.check(
        "JSON render of an analysis",
        &format!(
            "the direct JSON writer renders the analysis document of the \
             ≥2M-event stencil-scaling.pvta at ≥{JSON_FLOOR_MB_S:.0} MB/s \
             (best of {JSON_SAMPLES}; 150 MB/s relaxed)"
        ),
        format!(
            "{mb_per_s:.0} MB/s over {} KiB: render best {:.1} ms, median {:.1} ms (σ {:.1} ms)",
            bytes / 1024,
            render_t.best * 1e3,
            render_t.median * 1e3,
            render_t.stddev * 1e3,
        ),
        mb_per_s >= floor,
    );
    serde_json::json!({
        "fixture": "stencil-scaling.pvta analysis document, pretty",
        "bytes": bytes,
        "render": render_t.to_json(),
        "render_mb_per_s": mb_per_s,
        "floor_mb_per_s": floor,
    })
}
