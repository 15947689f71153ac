//! End-to-end pipeline tests: simulate → serialise → reload → analyse →
//! render, across workloads and formats.

use perfvar::prelude::*;
use perfvar::trace::format::{pvt, read_trace_file, write_trace_file};
use perfvar::trace::validate::is_well_formed;
use perfvar::trace::ProcessId;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("perfvar-integration");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn simulate_serialise_reload_analyse_cosmo() {
    let trace = simulate(&workloads::CosmoSpecs::small(4, 4, 6).spec()).unwrap();
    assert!(is_well_formed(&trace));

    // Round-trip through both formats.
    let p_bin = tmp("cosmo.pvt");
    let p_txt = tmp("cosmo.pvtx");
    write_trace_file(&trace, &p_bin).unwrap();
    write_trace_file(&trace, &p_txt).unwrap();
    let from_bin = read_trace_file(&p_bin).unwrap();
    let from_txt = read_trace_file(&p_txt).unwrap();
    assert_eq!(from_bin, trace);
    assert_eq!(from_txt, trace);

    // Analysis on the reloaded trace matches analysis on the original.
    let config = AnalysisConfig::default();
    let a1 = analyze(&trace, &config).unwrap();
    let a2 = analyze(&from_bin, &config).unwrap();
    assert_eq!(a1.function, a2.function);
    assert_eq!(a1.sos(), a2.sos());
    assert_eq!(a1.imbalance.process_scores, a2.imbalance.process_scores);
}

#[test]
fn every_workload_flows_through_the_whole_pipeline() {
    let specs: Vec<(String, _)> = vec![
        ("cosmo".into(), workloads::CosmoSpecs::small(3, 3, 5).spec()),
        ("fd4".into(), workloads::CosmoSpecsFd4::small(6, 2).spec()),
        ("wrf".into(), workloads::Wrf::small(2, 3, 6).spec()),
        (
            "balanced".into(),
            workloads::BalancedStencil::new(5, 8).spec(),
        ),
        (
            "outlier".into(),
            workloads::SingleOutlier::new(5, 8, 1).spec(),
        ),
        (
            "gradual".into(),
            workloads::GradualSlowdown::new(4, 10).spec(),
        ),
        (
            "random".into(),
            workloads::RandomImbalance::new(4, 8).spec(),
        ),
    ];
    for (name, spec) in specs {
        let trace = simulate(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(is_well_formed(&trace), "{name}");
        let analysis =
            analyze(&trace, &AnalysisConfig::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Every workload segments into ≥ 2 segments per process.
        assert!(
            analysis.segmentation.max_segments_per_process() >= 2,
            "{name}"
        );
        // Rendering never fails and produces plausible documents.
        let svg = render_svg(&sos_heatmap(&trace, &analysis), &SvgOptions::default());
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"), "{name}");
        let ansi = render_ansi(
            &sos_heatmap(&trace, &analysis),
            &AnsiOptions {
                color: false,
                ..AnsiOptions::default()
            },
        );
        assert!(
            ansi.lines().count() > trace.num_processes().min(40),
            "{name}"
        );
        let timeline = function_timeline(&trace, &TimelineOptions::default());
        assert_eq!(timeline.rows.len(), trace.num_processes(), "{name}");
    }
}

#[test]
fn balanced_workload_yields_no_findings_and_outlier_yields_findings() {
    let balanced = simulate(&workloads::BalancedStencil::new(8, 15).spec()).unwrap();
    let a = analyze(&balanced, &AnalysisConfig::default()).unwrap();
    assert!(
        !a.imbalance.has_findings(),
        "{:?}",
        a.imbalance.segment_outliers
    );

    let skew = simulate(&workloads::SingleOutlier::new(8, 15, 5).spec()).unwrap();
    let a = analyze(&skew, &AnalysisConfig::default()).unwrap();
    assert!(a.imbalance.has_findings());
    assert_eq!(a.imbalance.hottest_process(), Some(ProcessId(5)));
    let hot = a.imbalance.hottest_segment().unwrap();
    assert_eq!((hot.process, hot.ordinal), (ProcessId(5), 7));
}

#[test]
fn gradual_slowdown_detected_as_trend_not_outlier() {
    let trace = simulate(&workloads::GradualSlowdown::new(6, 20).spec()).unwrap();
    let a = analyze(&trace, &AnalysisConfig::default()).unwrap();
    // All ranks slow down together: a strong temporal trend…
    assert!(a.imbalance.duration_trend.relative_increase > 1.0);
    // …but no single process stands out.
    assert!(a.imbalance.process_outliers.is_empty());
}

#[test]
fn pvt_bytes_round_trip_at_scale() {
    let trace = simulate(&workloads::CosmoSpecsFd4::small(10, 3).spec()).unwrap();
    let bytes = pvt::to_bytes(&trace).unwrap();
    // Compact: fewer than 8 bytes per event on average (varint pays off).
    let per_event = bytes.len() as f64 / trace.num_events() as f64;
    assert!(per_event < 8.0, "{per_event} bytes/event");
    assert_eq!(pvt::from_bytes(&bytes).unwrap(), trace);
}

#[test]
fn refinement_chain_terminates() {
    let trace = simulate(&workloads::CosmoSpecsFd4::small(6, 2).spec()).unwrap();
    let config = AnalysisConfig::default();
    let mut analysis = analyze(&trace, &config).unwrap();
    let mut seen = vec![analysis.function];
    while let Some(finer) = analysis.refine(&trace, &config) {
        assert!(!seen.contains(&finer.function), "refinement must not cycle");
        seen.push(finer.function);
        analysis = finer;
        assert!(seen.len() <= 16, "refinement chain too long");
    }
    // The chain visited at least two candidate functions.
    assert!(seen.len() >= 2, "{seen:?}");
}

#[test]
fn out_of_core_pipeline_finds_the_same_outlier() {
    use perfvar::analysis::{analyze_path, analyze_path_with, RecoveryMode};

    let trace = simulate(&workloads::SingleOutlier::new(8, 15, 5).spec()).unwrap();
    let dir = tmp("outlier-ooc.pvta");
    write_trace_file(&trace, &dir).unwrap();

    // Simulate → archive → stream-from-disk: identical verdict.
    let in_memory = analyze(&trace, &AnalysisConfig::default()).unwrap();
    let from_disk = analyze_path(&dir, &AnalysisConfig::default()).unwrap();
    assert_eq!(from_disk, in_memory);
    assert_eq!(from_disk.imbalance.hottest_process(), Some(ProcessId(5)));

    // Damage one rank's stream tail: strict mode reports the typed
    // error with process id and byte offset; partial mode still
    // localises the outlier from the surviving ranks.
    let stream = dir.join("stream-2.pvts");
    let bytes = std::fs::read(&stream).unwrap();
    std::fs::write(&stream, &bytes[..bytes.len() - 9]).unwrap();
    let err = analyze_path(&dir, &AnalysisConfig::default()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("P2"), "{msg}");
    assert!(msg.contains("corrupt at byte"), "{msg}");

    let partial =
        analyze_path_with(&dir, &AnalysisConfig::default(), RecoveryMode::Partial).unwrap();
    assert!(partial.is_partial());
    assert_eq!(partial.recovered_ranks(), 7);
    assert_eq!(partial.failures[0].process, ProcessId(2));
    assert_eq!(
        partial.analysis.imbalance.hottest_process(),
        Some(ProcessId(5))
    );
}

#[test]
fn counter_attribution_survives_serialisation() {
    let trace = simulate(&workloads::Wrf::small(2, 2, 5).spec()).unwrap();
    let path = tmp("wrf-counters.pvt");
    write_trace_file(&trace, &path).unwrap();
    let reloaded = read_trace_file(&path).unwrap();
    let a1 = analyze(&trace, &AnalysisConfig::default()).unwrap();
    let a2 = analyze(&reloaded, &AnalysisConfig::default()).unwrap();
    assert_eq!(a1.counters.len(), a2.counters.len());
    for (c1, c2) in a1.counters.iter().zip(&a2.counters) {
        assert_eq!(c1.matrix, c2.matrix);
        assert_eq!(c1.sos_correlation, c2.sos_correlation);
    }
}
