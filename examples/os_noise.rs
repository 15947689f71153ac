//! Case study B (paper §VII-B, Fig. 5): a one-off process interruption
//! in COSMO-SPECS+FD4.
//!
//! ```sh
//! cargo run --release --example os_noise
//! ```
//!
//! With FD4 dynamic load balancing the compute load is even — but one
//! iteration is much slower than the others. Reproduces all three panels
//! of Fig. 5:
//!
//! * (a) the timeline of the slow iteration;
//! * (b) the coarse SOS-time analysis flags Process 20;
//! * (c) refining to a finer dominant function isolates the *single
//!   invocation*, and its `PAPI_TOT_CYC` reading is low — the process was
//!   interrupted (OS noise), not computing more.

use perfvar::prelude::*;
use perfvar::trace::ProcessId;

fn main() {
    let workload = workloads::CosmoSpecsFd4::paper();
    println!(
        "simulating COSMO-SPECS+FD4: {} ranks, {} iterations × {} timesteps…",
        workload.ranks, workload.iterations, workload.timesteps_per_iteration
    );
    let trace = simulate(&workload.spec()).expect("simulation succeeds");
    println!(
        "  {} events, span {}",
        trace.num_events(),
        trace.clock().format_duration(trace.span())
    );

    // ── Fig. 5(a): one iteration is slower than the rest ──
    let coarse = analyze(&trace, &AnalysisConfig::default()).expect("analysis succeeds");
    println!(
        "\ncoarse dominant function: {:?}",
        trace.registry().function_name(coarse.function)
    );
    let durations = coarse.sos().duration_by_ordinal();
    println!("Fig 5(a) — mean iteration durations:");
    let median = {
        let mut d = durations.clone();
        d.sort_by(f64::total_cmp);
        d[d.len() / 2]
    };
    for (i, d) in durations.iter().enumerate() {
        let marker = if *d > 1.3 * median { "  ← slow" } else { "" };
        println!("  iteration {i}: {:.0} ticks{marker}", d);
    }

    // ── Fig. 5(b): the coarse SOS analysis flags Process 20 ──
    let hottest = coarse.imbalance.hottest_process().unwrap();
    println!("\nFig 5(b) — hottest process by SOS-time: {hottest}");
    assert_eq!(hottest, ProcessId(20));

    // ── Fig. 5(c): refinement isolates the single invocation ──
    let fine = coarse
        .refine(&trace, &AnalysisConfig::default())
        .expect("a finer candidate exists");
    println!(
        "refined dominant function: {:?} ({} segments/process)",
        trace.registry().function_name(fine.function),
        fine.segmentation.max_segments_per_process()
    );
    let hot = fine.imbalance.hottest_segment().expect("outlier found");
    println!(
        "Fig 5(c) — outlier invocation: {} segment #{} (SOS {})",
        hot.process,
        hot.ordinal,
        trace.clock().format_duration(hot.sos)
    );
    assert_eq!(hot.process, ProcessId(20));
    assert_eq!(
        hot.ordinal,
        workload.interrupted_global_timestep() as u32 as usize
    );

    // The PAPI_TOT_CYC validation: the slow invocation has a LOW cycle
    // count relative to its duration → the process was interrupted.
    let cyc = fine
        .counters
        .iter()
        .find(|c| trace.registry().metric(c.metric).name == "PAPI_TOT_CYC")
        .expect("cycle counter attributed");
    let hot_cycles = cyc.matrix.value(hot.process, hot.ordinal).unwrap();
    let hot_duration = fine.sos().duration(hot.process, hot.ordinal).unwrap().0 as f64;
    let neighbour_ordinal = hot.ordinal.saturating_sub(1);
    let normal_cycles = cyc.matrix.value(hot.process, neighbour_ordinal).unwrap();
    let normal_duration = fine
        .sos()
        .duration(hot.process, neighbour_ordinal)
        .unwrap()
        .0 as f64;
    println!(
        "  PAPI_TOT_CYC: outlier invocation {:.0} cycles/tick vs normal {:.0} cycles/tick",
        hot_cycles as f64 / hot_duration,
        normal_cycles as f64 / normal_duration
    );
    assert!(
        (hot_cycles as f64 / hot_duration) < 0.5 * (normal_cycles as f64 / normal_duration),
        "the interrupted invocation gets far fewer cycles per wall tick"
    );
    println!("  → wall time passed without assigned cycles: the process was");
    println!("    interrupted during exactly this invocation (OS influence).");

    // ── SVGs ──
    let out_dir = std::env::temp_dir().join("perfvar-figures");
    std::fs::create_dir_all(&out_dir).unwrap();
    // Fig 5(a) shows *just the slow iteration* — the paper's analyst
    // re-recorded only slow iterations; we slice the full trace to the
    // interrupted iteration's window instead.
    let slow_iteration = perfvar::trace::slice::slice_invocation(
        &trace,
        coarse.function,
        workload.interrupted_iteration,
    )
    .expect("interrupted iteration exists")
    .expect("slice is well-formed");
    println!(
        "\nsliced to the slow iteration: {} events over {}",
        slow_iteration.num_events(),
        slow_iteration
            .clock()
            .format_duration(slow_iteration.span())
    );
    std::fs::write(
        out_dir.join("fig5a-timeline.svg"),
        render_svg(
            &function_timeline(&slow_iteration, &TimelineOptions::default()),
            &SvgOptions::default(),
        ),
    )
    .unwrap();
    std::fs::write(
        out_dir.join("fig5b-sos-coarse.svg"),
        render_svg(&sos_heatmap(&trace, &coarse), &SvgOptions::default()),
    )
    .unwrap();
    std::fs::write(
        out_dir.join("fig5c-sos-fine.svg"),
        render_svg(&sos_heatmap(&trace, &fine), &SvgOptions::default()),
    )
    .unwrap();
    println!("\nSVGs written to {}", out_dir.display());
}
