//! Closing the loop: verify the paper's proposed fix.
//!
//! ```sh
//! cargo run --release --example compare_runs
//! ```
//!
//! Case study A ends with: "A solution to this performance problem is to
//! introduce dynamic load balancing for the SPECS model" — which is
//! exactly what the COSMO-SPECS+FD4 code of case study B does. This
//! example runs both variants under the same cloud-driven load, analyses
//! each, and compares them: the imbalance index collapses, the flagged
//! hotspot ranks disappear, and clustering confirms that the FD4 run has
//! a single behaviour group.

use perfvar::analysis::clustering::{ClusterConfig, ProcessClustering};
use perfvar::analysis::compare::RunComparison;
use perfvar::prelude::*;

fn main() {
    // The imbalanced baseline: static decomposition (case study A),
    // scaled to 100 ranks / 20 iterations for a quick run.
    let mut baseline_workload = workloads::CosmoSpecs::paper();
    baseline_workload.iterations = 20;
    let baseline = simulate(&baseline_workload.spec()).expect("baseline simulates");

    // The fixed variant: FD4 dynamic load balancing (case study B),
    // without the OS interruption, on the same rank count.
    let mut fixed_workload = workloads::CosmoSpecsFd4::paper();
    fixed_workload.ranks = baseline_workload.ranks();
    fixed_workload.iterations = 20;
    fixed_workload.interruption_factor = 0.0;
    let fixed = simulate(&fixed_workload.spec()).expect("fixed run simulates");

    let config = AnalysisConfig::default();
    let before = analyze(&baseline, &config).expect("baseline analysis");
    let after = analyze(&fixed, &config).expect("fixed analysis");

    println!("— baseline (static decomposition) —");
    print!("{}", before.render_text(&baseline));
    println!("\n— after the fix (FD4 dynamic load balancing) —");
    print!("{}", after.render_text(&fixed));

    let comparison = RunComparison::compare(&before.sos(), &after.sos());
    println!();
    print!("{}", comparison.render_text());
    assert!(
        comparison.after.imbalance_index < 0.3,
        "the FD4 run must be well balanced (index {})",
        comparison.after.imbalance_index
    );
    assert!(
        comparison.imbalance_change() < -0.1,
        "the fix must reduce the imbalance index ({:+.3})",
        comparison.imbalance_change()
    );
    assert!(before.imbalance.has_findings());
    assert!(after.imbalance.process_outliers.is_empty());

    // Clustering view: the baseline splits into cloud / no-cloud
    // behaviour groups; the fixed run is one group.
    let clusters_before = ProcessClustering::compute(&before.sos(), ClusterConfig::default());
    let clusters_after = ProcessClustering::compute(&after.sos(), ClusterConfig::default());
    println!(
        "behaviour clusters: {} before → {} after",
        clusters_before.len(),
        clusters_after.len()
    );
    let minority: Vec<u32> = clusters_before
        .minority_clusters()
        .iter()
        .flat_map(|c| c.members.iter().map(|p| p.0))
        .collect();
    println!("  unusual processes before the fix: {minority:?}");
    assert!(clusters_before.len() > clusters_after.len());
    assert_eq!(clusters_after.len(), 1);

    println!("\n→ the fix the paper recommends eliminates every finding the");
    println!("  SOS analysis raised on the baseline run.");
}
