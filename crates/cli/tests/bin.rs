//! Binary-level end-to-end tests: spawn the real `perfvar` executable
//! and assert on exit codes and output — the contract scripts and CI
//! pipelines rely on.

use std::path::PathBuf;
use std::process::{Command, Output};

fn perfvar(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfvar"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("perfvar-bin-tests").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = perfvar(&[]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn help_succeeds() {
    let out = perfvar(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("generate"));
    assert!(text.contains("analyze"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = perfvar(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn full_workflow_through_the_binary() {
    let dir = tmp_dir("workflow");
    let trace = dir.join("t.pvt");
    let ts = trace.to_str().unwrap();

    let out = perfvar(&[
        "generate",
        "outlier",
        "--out",
        ts,
        "--ranks",
        "4",
        "--iterations",
        "6",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    let out = perfvar(&["info", ts]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("processes: 4"));

    let out = perfvar(&["analyze", ts]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("segmentation function"), "{text}");
    assert!(text.contains("findings"), "{text}");

    let json_out = perfvar(&["analyze", ts, "--json"]);
    assert!(json_out.status.success());
    let parsed: serde_json::Value = serde_json::from_slice(&json_out.stdout).expect("valid JSON");
    assert!(parsed.get("sos").is_some());

    let report_dir = dir.join("report");
    let out = perfvar(&["report", ts, "--out-dir", report_dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(report_dir.join("report.html").exists());

    // Failure path: analyzing a missing file exits non-zero with a
    // message on stderr.
    let out = perfvar(&["analyze", "/definitely/missing.pvt"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// Generates a 4-rank trace and returns (pvt path, archive path).
fn trace_and_archive(name: &str) -> (PathBuf, PathBuf) {
    let dir = tmp_dir(name);
    let pvt = dir.join("t.pvt");
    let arch = dir.join("t.pvta");
    let out = perfvar(&[
        "generate",
        "outlier",
        "--out",
        pvt.to_str().unwrap(),
        "--ranks",
        "4",
        "--iterations",
        "6",
    ]);
    assert!(out.status.success());
    let out = perfvar(&["convert", pvt.to_str().unwrap(), arch.to_str().unwrap()]);
    assert!(out.status.success());
    (pvt, arch)
}

#[test]
fn stats_json_round_trips_for_both_pipelines() {
    let (pvt, arch) = trace_and_archive("stats-json");
    let pvtx = pvt.with_extension("pvtx");
    let out = perfvar(&["convert", pvt.to_str().unwrap(), pvtx.to_str().unwrap()]);
    assert!(out.status.success());
    // Every format emits a stats document that parses back into the
    // typed form, with the bytes read from disk recorded.
    for path in [&arch, &pvt, &pvtx] {
        let path = path.to_str().unwrap();
        let out = perfvar(&["analyze", path, "--stats-json"]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stats: perfvar_analysis::PipelineStats =
            serde_json::from_slice(&out.stdout).expect("stats parse back");
        assert!(stats.wall_s > 0.0, "{path}: no wall time recorded");
        assert!(stats.ranks == 4, "{path}: ranks {}", stats.ranks);
        assert!(
            stats.totals.events_replayed > 0,
            "{path}: no events recorded"
        );
        let fuse = stats.stage("fuse").expect("fuse stage present");
        assert!(fuse.events > 0);
        assert!(stats.events_per_sec() > 0.0);
        assert!(stats.totals.bytes_decoded > 0, "{path}: no bytes recorded");
        assert!(stats.bytes_per_sec() > 0.0);
    }
}

#[test]
fn stats_json_combines_with_json() {
    let (_pvt, arch) = trace_and_archive("stats-json-combined");
    let out = perfvar(&["analyze", arch.to_str().unwrap(), "--stats-json", "--json"]);
    assert!(out.status.success());
    let doc: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(doc.get("analysis").is_some(), "analysis key");
    let stats = doc.get("stats").expect("stats key");
    assert!(stats.get("stages").is_some());
}

#[test]
fn stats_table_goes_to_stderr() {
    let (_pvt, arch) = trace_and_archive("stats-table");
    let out = perfvar(&["analyze", arch.to_str().unwrap(), "--stats"]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("pipeline stats:"), "{err}");
    assert!(err.contains("fuse"), "{err}");
    // The report itself still lands on stdout.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("segmentation function"), "{text}");
}

#[test]
fn stats_table_goes_to_stderr_with_json_too() {
    let (_pvt, arch) = trace_and_archive("stats-table-json");
    let plain = perfvar(&["analyze", arch.to_str().unwrap(), "--json"]);
    let out = perfvar(&["analyze", arch.to_str().unwrap(), "--json", "--stats"]);
    assert!(plain.status.success() && out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("pipeline stats:"), "{err}");
    assert_eq!(
        out.stdout, plain.stdout,
        "--stats leaves the JSON unchanged"
    );
}

#[test]
fn generate_live_seals_a_batch_readable_archive_watch_renders_it() {
    let dir = tmp_dir("live-watch");
    let arch = dir.join("t.pvta");
    let a = arch.to_str().unwrap();
    let out = perfvar(&[
        "generate",
        "outlier",
        "--out",
        a,
        "--ranks",
        "4",
        "--iterations",
        "6",
        "--live",
        "--flush-every",
        "64",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("sealed"));

    // A sealed live archive is a plain archive: batch analysis works.
    let out = perfvar(&["analyze", a, "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(parsed.get("sos").is_some());

    // watch on a non-terminal prints exactly the final frame and exits 0.
    let out = perfvar(&["watch", a, "--interval", "10"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let frame = String::from_utf8_lossy(&out.stdout);
    assert!(frame.contains("[sealed]"), "{frame}");
    assert!(frame.contains("hottest functions"), "{frame}");
    assert!(
        !frame.contains("\x1b[2J"),
        "repaint escapes leaked: {frame}"
    );

    // watch never finalizes, so it takes none of the I/O knobs.
    let out = perfvar(&["watch", a, "--threads", "2"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option --threads"), "{err}");
}

#[test]
fn watch_reports_truncated_stream_and_keeps_last_good_view() {
    let dir = tmp_dir("live-watch-torn");
    let arch = dir.join("t.pvta");
    let a = arch.to_str().unwrap();
    let out = perfvar(&[
        "generate",
        "outlier",
        "--out",
        a,
        "--ranks",
        "3",
        "--iterations",
        "6",
        "--live",
    ]);
    assert!(out.status.success());
    // Tear the tail off rank 1's stream: the declared record count now
    // exceeds the bytes present, a torn final record.
    let stream = arch.join("stream-1.pvts");
    let len = std::fs::metadata(&stream).unwrap().len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&stream)
        .unwrap();
    f.set_len(len - 2).unwrap();

    let out = perfvar(&["watch", a, "--interval", "10"]);
    assert!(!out.status.success(), "torn stream must fail the watch");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("corrupt at byte"), "{err}");
    assert!(err.contains("stream of P1"), "{err}");
    // The other ranks' last good state still renders on stdout.
    let frame = String::from_utf8_lossy(&out.stdout);
    assert!(frame.contains("frozen at last good state"), "{frame}");
    assert!(frame.contains("[sealed]"), "{frame}");
}

#[test]
fn threads_zero_and_oversubscription_are_normalized() {
    let (pvt, _arch) = trace_and_archive("threads-normalize");
    // --threads 0 resolves to the hardware parallelism with a message.
    let out = perfvar(&["analyze", pvt.to_str().unwrap(), "--threads", "0"]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--threads 0: using"), "{err}");
    // Requests beyond the rank count cap at one worker per rank (every
    // format: `every_format_analyzes_like_the_daemon`).
    // An exact in-range request stays silent.
    let out = perfvar(&["analyze", pvt.to_str().unwrap(), "--threads", "2"]);
    assert!(out.status.success());
    assert!(out.stderr.is_empty(), "unexpected stderr");
}

/// One trace written as `.pvt`, `.pvta` and `.pvtx` analyzes to the same
/// bytes through every format, and those bytes are the in-process
/// `analyze_path` (+ `diagnose_meta`) documents the daemon serves.
#[test]
fn every_format_analyzes_like_the_daemon() {
    let (pvt, arch) = trace_and_archive("every-format");
    let pvtx = pvt.with_extension("pvtx");
    let out = perfvar(&["convert", pvt.to_str().unwrap(), pvtx.to_str().unwrap()]);
    assert!(out.status.success());

    let config = perfvar_analysis::AnalysisConfig::default();
    let analysis = perfvar_analysis::analyze_path(&pvt, &config).unwrap();
    let trace = perfvar_trace::format::read_trace_file(&pvt).unwrap();
    let diagnosis = perfvar_analysis::diagnose_meta(
        &perfvar_trace::TraceMeta::of(&trace),
        &analysis,
        &perfvar_analysis::DiagnoseConfig::default(),
    );
    let document = |value: String| value + "\n";
    let analyze_json = document(serde_json::to_string_pretty(&analysis).unwrap());
    let diagnose_json = document(serde_json::to_string_pretty(&diagnosis).unwrap());

    for path in [&pvt, &arch, &pvtx] {
        let path = path.to_str().unwrap();
        let out = perfvar(&["analyze", path, "--json"]);
        assert!(out.status.success(), "{path}");
        assert!(
            out.stdout == analyze_json.as_bytes(),
            "{path}: analyze --json"
        );
        let out = perfvar(&["diagnose", path, "--json"]);
        assert!(out.status.success(), "{path}");
        assert!(
            out.stdout == diagnose_json.as_bytes(),
            "{path}: diagnose --json"
        );
        // A request beyond the 4 ranks caps at one worker per rank.
        let out = perfvar(&["analyze", path, "--threads", "99"]);
        assert!(out.status.success(), "{path}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("capping --threads 99 to 4"), "{path}: {err}");
    }
}

/// Generates a workload through the binary, asserting success.
fn generate_fixture(dir: &std::path::Path, name: &str, args: &[&str]) -> PathBuf {
    let path = dir.join(format!("{name}.pvt"));
    let mut argv = vec!["generate", args[0], "--out", path.to_str().unwrap()];
    argv.extend_from_slice(&args[1..]);
    let out = perfvar(&argv);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

/// Runs `perfvar diagnose … --json` and parses the Diagnosis document.
fn diagnose_json(path: &std::path::Path, extra: &[&str]) -> serde_json::Value {
    let mut argv = vec!["diagnose", path.to_str().unwrap(), "--json"];
    argv.extend_from_slice(extra);
    let out = perfvar(&argv);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::from_slice(&out.stdout).expect("diagnose --json is valid JSON")
}

/// Golden findings: the cloudy CosmoSpecs ranks must surface as an
/// overloaded cluster naming the dominant function, and the diagnosis
/// must be byte-stable across thread counts.
#[test]
fn diagnose_golden_cosmo_overload() {
    let dir = tmp_dir("diagnose-cosmo");
    let trace = generate_fixture(
        &dir,
        "cosmo",
        &["cosmo-specs", "--ranks", "100", "--iterations", "40"],
    );

    let doc = diagnose_json(&trace, &[]);
    let top = &doc.get("findings").unwrap().as_array().unwrap()[0];
    let kind = top.get("kind").unwrap();
    assert!(
        kind.get("OverloadedCluster").is_some(),
        "top finding must be OverloadedCluster: {top:?}"
    );
    assert!(
        top.get("description")
            .and_then(|d| d.as_str())
            .unwrap()
            .contains("cosmo_specs_step"),
        "the dominant function is named: {top:?}"
    );
    // The paper's cloudy ranks {44,45,54,55,64,65} all land in
    // overload-labelled clusters, never in the baseline cluster.
    let mut overloaded = Vec::new();
    for cluster in doc.get("clusters").unwrap().as_array().unwrap() {
        let cause = cluster.get("cause").and_then(|c| c.as_str()).unwrap();
        if cause.contains("overload") {
            for m in cluster.get("members").unwrap().as_array().unwrap() {
                overloaded.push(m.as_u64().unwrap());
            }
        }
    }
    for rank in [44u64, 45, 54, 55, 64, 65] {
        assert!(
            overloaded.contains(&rank),
            "rank {rank} not in {overloaded:?}"
        );
    }

    // Bit-stable across parallelism: the JSON bytes must not depend on
    // --threads.
    let one = perfvar(&[
        "diagnose",
        trace.to_str().unwrap(),
        "--json",
        "--threads",
        "1",
    ]);
    let four = perfvar(&[
        "diagnose",
        trace.to_str().unwrap(),
        "--json",
        "--threads",
        "4",
    ]);
    assert!(one.status.success() && four.status.success());
    assert_eq!(one.stdout, four.stdout, "diagnosis must be thread-stable");

    // Text mode names the causes for humans.
    let out = perfvar(&["diagnose", trace.to_str().unwrap(), "--no-heatmap"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("behaviour clusters"), "{text}");
    assert!(text.contains("persistent computational overload"), "{text}");
}

/// Golden findings: the desync-wave workload is classified as a
/// propagating wait front — not as static imbalance — with the seeded
/// origin and start segment recovered exactly.
#[test]
fn diagnose_golden_desync_wave() {
    let dir = tmp_dir("diagnose-wave");
    let trace = generate_fixture(
        &dir,
        "wave",
        &["desync-wave", "--ranks", "16", "--iterations", "20"],
    );

    let doc = diagnose_json(&trace, &[]);
    let top = &doc.get("findings").unwrap().as_array().unwrap()[0];
    let wait = top
        .get("kind")
        .and_then(|k| k.get("PropagatingWait"))
        .unwrap_or_else(|| panic!("top finding must be PropagatingWait: {top:?}"));
    // DesyncWave::new delays rank r/4 = 4 at iteration 20/4 = 5.
    assert_eq!(wait.get("origin").and_then(|v| v.as_u64()), Some(4));
    assert_eq!(wait.get("start_ordinal").and_then(|v| v.as_u64()), Some(5));
    let wave = doc.get("wave").unwrap();
    assert!(wave.get("fit").and_then(|v| v.as_f64()).unwrap() >= 0.8);
    assert!(wave.get("affected").unwrap().as_array().unwrap().len() >= 8);

    let out = perfvar(&["diagnose", trace.to_str().unwrap(), "--no-heatmap"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("idle wave: origin P4"), "{text}");
    assert!(text.contains("launched the idle wave"), "{text}");
}

/// `report.html` embeds the very bytes of the chart files `report`
/// writes, one `<div class="chart">` each, in section order: timeline,
/// SOS heatmap, counter heatmaps, per-process load, iteration series,
/// communication matrix. The function summary and the SOS histogram are
/// written as files only.
#[test]
fn report_html_embeds_the_written_charts() {
    let dir = tmp_dir("report-embeds");
    for (name, args) in [
        (
            "fd4",
            &["cosmo-specs-fd4", "--ranks", "8", "--iterations", "3"][..],
        ),
        ("wrf", &["wrf", "--ranks", "12", "--iterations", "4"][..]),
    ] {
        let trace = generate_fixture(&dir, name, args);
        let out_dir = dir.join(format!("{name}.report"));
        let _ = std::fs::remove_dir_all(&out_dir);
        let out = perfvar(&[
            "report",
            trace.to_str().unwrap(),
            "--out-dir",
            out_dir.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let read = |file: &str| {
            std::fs::read_to_string(out_dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
        };
        let mut counters: Vec<String> = std::fs::read_dir(&out_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|f| f.starts_with("counter-"))
            .collect();
        counters.sort();
        assert_eq!(counters.len(), 1, "{name}: one metric channel");
        let mut embedded = vec!["timeline.svg".to_string(), "sos.svg".to_string()];
        embedded.extend(counters);
        embedded.extend(
            [
                "process-load.svg",
                "iteration-series.svg",
                "comm-matrix.svg",
            ]
            .map(String::from),
        );

        let html = read("report.html");
        let charts: Vec<&str> = html
            .split("<div class=\"chart\">")
            .skip(1)
            .map(|rest| rest.split_once("</div>\n").expect("chart div closes").0)
            .collect();
        let expected: Vec<String> = embedded.iter().map(|f| read(f)).collect();
        assert_eq!(charts.len(), expected.len(), "{name}: chart count");
        for ((chart, svg), file) in charts.iter().zip(&expected).zip(&embedded) {
            assert!(chart == svg, "{name}: {file} is not embedded byte for byte");
        }
        for file_only in ["function-summary.svg", "sos-histogram.svg"] {
            assert!(!html.contains(&read(file_only)), "{name}: {file_only}");
        }
    }
}
