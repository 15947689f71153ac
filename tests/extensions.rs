//! Integration tests for the extension features (clustering, run
//! comparison, call-path analysis, streaming I/O) on the case-study
//! workloads.

use perfvar::analysis::callpath::CallTree;
use perfvar::analysis::clustering::{ClusterConfig, ProcessClustering};
use perfvar::analysis::compare::RunComparison;
use perfvar::analysis::invocation::replay_all;
use perfvar::prelude::*;
use perfvar::trace::format::pvt;
use perfvar::trace::ProcessId;

#[test]
fn clustering_isolates_the_cosmo_cloud_ranks() {
    let workload = workloads::CosmoSpecs::paper();
    let trace = simulate(&workload.spec()).unwrap();
    let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
    let clustering = ProcessClustering::compute(&analysis.sos(), ClusterConfig::default());
    // The majority cluster holds the 94 cloud-free ranks; the minority
    // clusters hold exactly the paper's six.
    assert!(clustering.len() >= 2);
    assert_eq!(clustering.clusters[0].members.len(), 94);
    let mut minority: Vec<usize> = clustering
        .minority_clusters()
        .iter()
        .flat_map(|c| c.members.iter().map(|p| p.index()))
        .collect();
    minority.sort_unstable();
    assert_eq!(minority, vec![44, 45, 54, 55, 64, 65]);
}

#[test]
fn balanced_fd4_run_is_one_cluster() {
    let mut workload = workloads::CosmoSpecsFd4::small(24, 3);
    workload.interruption_factor = 0.0;
    let trace = simulate(&workload.spec()).unwrap();
    let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
    let clustering = ProcessClustering::compute(&analysis.sos(), ClusterConfig::default());
    assert_eq!(clustering.len(), 1);
}

#[test]
fn comparison_quantifies_the_fd4_fix() {
    let mut baseline = workloads::CosmoSpecs::paper();
    baseline.iterations = 10;
    let before_trace = simulate(&baseline.spec()).unwrap();
    let mut fixed = workloads::CosmoSpecsFd4::paper();
    fixed.ranks = baseline.ranks();
    fixed.iterations = 10;
    fixed.interruption_factor = 0.0;
    let after_trace = simulate(&fixed.spec()).unwrap();
    let config = AnalysisConfig::default();
    let before = analyze(&before_trace, &config).unwrap();
    let after = analyze(&after_trace, &config).unwrap();
    let cmp = RunComparison::compare(&before.sos(), &after.sos());
    assert!(cmp.before.imbalance_index > 0.15, "{:?}", cmp.before);
    assert!(cmp.after.imbalance_index < 0.05, "{:?}", cmp.after);
    assert!(cmp.imbalance_change() < -0.1);
    // The report mentions the biggest mover.
    assert!(cmp.render_text().contains("imbalance index"));
}

#[test]
fn call_tree_of_wrf_separates_contexts() {
    let trace = simulate(&workloads::Wrf::small(2, 2, 5).spec()).unwrap();
    let replayed = replay_all(&trace);
    let tree = CallTree::build(&replayed);
    let reg = trace.registry();
    let paths: Vec<String> = tree.ids().map(|id| tree.path_string(id, reg)).collect();
    // Init-phase and timestep-phase contexts are distinct paths.
    assert!(paths.contains(&"main/wrf_init".to_string()), "{paths:?}");
    assert!(paths.contains(&"main/wrf_timestep/physics_driver".to_string()));
    // The dominant call path is the timestep (2p rule at path level).
    let dominant = tree.dominant_call_path(&trace, 2).unwrap();
    assert_eq!(tree.path_string(dominant, reg), "main/wrf_timestep");
    // Its per-path aggregates match the function-level profile (the
    // timestep function only ever appears on this one path).
    let step_f = reg.function_by_name("wrf_timestep").unwrap();
    let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
    assert_eq!(
        tree.node(dominant).inclusive,
        analysis.profiles.get(step_f).inclusive
    );
}

#[test]
fn streaming_reader_computes_stats_without_materialising() {
    let trace = simulate(&workloads::CosmoSpecsFd4::small(12, 3).spec()).unwrap();
    let bytes = pvt::to_bytes(&trace).unwrap();
    let (_, _, registry, mut rank) = pvt::open(bytes.as_slice()).unwrap();
    assert_eq!(registry.num_processes(), 12);
    // Single-pass computation, one rank cursor after another: events per
    // process + global max time.
    let mut per_process = [0usize; 12];
    let mut max_time = Timestamp(0);
    let mut chunk = Vec::new();
    while let Some(mut cursor) = rank {
        while cursor.next_chunk(&mut chunk, 256).unwrap() > 0 {
            per_process[cursor.process().index()] += chunk.len();
            max_time = chunk.iter().map(|r| r.time).fold(max_time, Timestamp::max);
        }
        rank = cursor.next_rank();
    }
    assert_eq!(max_time, trace.end());
    for (i, &count) in per_process.iter().enumerate() {
        assert_eq!(count, trace.stream(ProcessId::from_index(i)).len(), "{i}");
    }
}

#[test]
fn wait_states_name_the_victims_not_the_culprit() {
    // In WRF, rank `slow_rank` computes while everyone else waits: the
    // SOS analysis names the culprit; the wait-state analysis must name
    // a *different* process as the most-waiting victim.
    use perfvar::analysis::waitstates::WaitStateAnalysis;
    let w = workloads::Wrf::small(2, 3, 8);
    let trace = simulate(&w.spec()).unwrap();
    let replayed = replay_all(&trace);
    let ws = WaitStateAnalysis::compute(&trace, &replayed);
    let victim = ws.most_waiting_process().unwrap();
    assert_ne!(victim.index(), w.slow_rank);
    // The culprit waits the least at collectives.
    let culprit_wait = ws
        .process(ProcessId::from_index(w.slow_rank))
        .wait_at_collective;
    let min_wait = ws
        .per_process()
        .iter()
        .map(|p| p.wait_at_collective)
        .min()
        .unwrap();
    assert_eq!(culprit_wait, min_wait);
}

#[test]
fn summary_charts_on_case_study() {
    use perfvar::viz::summary::{
        function_summary, process_load_chart, render_bar_svg, render_histogram_svg, sos_histogram,
    };
    let trace = simulate(&workloads::Wrf::small(2, 3, 8).spec()).unwrap();
    let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
    let summary = function_summary(&trace, &analysis.profiles, 10);
    assert!(summary.bars.iter().any(|b| b.label == "physics_driver"));
    let load = process_load_chart(&trace, &analysis);
    // The slow rank carries the biggest bar.
    let max_bar = load
        .bars
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.value.total_cmp(&b.1.value))
        .unwrap()
        .0;
    assert_eq!(max_bar, workloads::Wrf::small(2, 3, 8).slow_rank);
    let svg = render_bar_svg(&load, 800);
    assert!(svg.starts_with("<svg"));
    let hist = sos_histogram(&analysis, 16);
    assert_eq!(
        hist.counts.iter().sum::<usize>(),
        analysis.segmentation.len()
    );
    assert!(render_histogram_svg(&hist, 640, 320).contains("</svg>"));
}
