//! Telemetry correctness on the bench fixture: the counters the
//! instrumented pipelines record must sum to totals that are knowable
//! independently — event counts from the trace, segment counts from the
//! produced segmentation — on both the in-memory and out-of-core routes.

use perfvar_analysis::{
    analyze, analyze_observed, analyze_path_observed, AnalysisConfig, RecoveryMode, Telemetry,
};
use perfvar_bench::counter_stencil_trace;
use perfvar_trace::format::write_trace_file;
use perfvar_trace::ProcessId;

#[test]
fn in_memory_counters_sum_to_known_event_totals() {
    let trace = counter_stencil_trace(8, 30);
    let config = AnalysisConfig::default();
    let telemetry = Telemetry::enabled();
    let analysis = analyze_observed(&trace, &config, &telemetry).expect("analysis succeeds");
    let stats = telemetry.snapshot().expect("enabled recorder snapshots");

    // SPMD fixture: the rank-0 prefix prediction is confirmed, so the
    // combined pass replays every record of every stream exactly once
    // and the profile stage holds only the bounded prediction prefix.
    let total_events = trace.num_events() as u64;
    let rank0_events = trace.stream(ProcessId(0)).records().len() as u64;
    let profile = stats.stage("profile").expect("profile stage");
    let fuse = stats.stage("fuse").expect("fuse stage");
    assert_eq!(fuse.events, total_events);
    assert!(profile.events > 0 && profile.events <= rank0_events);
    assert_eq!(stats.totals.events_replayed, total_events + profile.events);

    // One emitted segment per invocation of the segmentation function.
    assert_eq!(
        stats.totals.segments_emitted,
        analysis.segmentation.len() as u64
    );

    assert_eq!(stats.ranks, 8);
    // main → stencil_iteration → compute_stencil/MPI_Barrier nesting.
    assert!(stats.peaks.max_stack_depth >= 3, "{:?}", stats.peaks);
    // One worker buffer per rank of the combined pass, plus the prefix.
    assert!(stats.peaks.worker_buffers >= 9, "{:?}", stats.peaks);
    // A well-formed fixture never trips the SOS-underflow detector.
    assert_eq!(stats.totals.sos_clamped, 0);

    // Observation is free of side effects: the uninstrumented entry
    // point produces the identical analysis.
    assert_eq!(analysis, analyze(&trace, &config).expect("reference run"));

    // The same in-memory route, reached through a text trace, reports
    // its single pass.
    let dir = std::env::temp_dir().join("perfvar-bench-telemetry");
    std::fs::create_dir_all(&dir).unwrap();
    let text = dir.join("stencil.pvtx");
    write_trace_file(&trace, &text).expect("text trace written");
    let loaded = analyze_path_observed(&text, &config, RecoveryMode::Strict, &Telemetry::noop())
        .expect("text-trace analysis succeeds");
    assert_eq!(loaded.passes, 1);
    assert_eq!(loaded.analysis, analysis);
}

#[test]
fn out_of_core_counters_cover_the_single_combined_pass() {
    let trace = counter_stencil_trace(6, 20);
    let dir = std::env::temp_dir().join("perfvar-bench-telemetry");
    std::fs::create_dir_all(&dir).unwrap();
    let archive = dir.join("stencil.pvta");
    write_trace_file(&trace, &archive).expect("archive written");

    let config = AnalysisConfig::default();
    let telemetry = Telemetry::enabled();
    let result = analyze_path_observed(&archive, &config, RecoveryMode::Strict, &telemetry)
        .expect("out-of-core analysis succeeds");
    let stats = telemetry.snapshot().expect("enabled recorder snapshots");

    // SPMD fixture: the rank-0 prefix prediction is confirmed, so the
    // trace is read exactly once (plus the bounded prediction prefix).
    assert_eq!(result.passes, 1);
    let total_events = trace.num_events() as u64;
    let profile = stats.stage("profile").expect("profile stage");
    let fuse = stats.stage("fuse").expect("fuse stage");
    // The combined pass replays every record of every stream once; the
    // prediction replays at most one rank's worth.
    assert_eq!(fuse.events, total_events);
    assert!(profile.events > 0 && profile.events <= total_events / 6);
    assert_eq!(stats.totals.events_replayed, total_events + profile.events);

    // The prediction decodes (at most) rank 0's stream; the combined
    // pass decodes all six.
    assert!(profile.bytes > 0);
    assert!(profile.bytes < fuse.bytes);
    assert_eq!(stats.totals.bytes_decoded, profile.bytes + fuse.bytes);

    // The effective read-buffer knob lands in the peak gauges.
    assert_eq!(
        stats.peaks.read_buffer_bytes,
        config.read_buffer_bytes as u64
    );

    assert_eq!(stats.ranks, 6);
    assert_eq!(stats.totals.recovery_events, 0);

    // The observed out-of-core result matches the in-memory pipeline.
    assert_eq!(
        result.analysis,
        analyze(&trace, &config).expect("reference run")
    );
}
