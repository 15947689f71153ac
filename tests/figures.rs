//! The experiment index of DESIGN.md as executable assertions: one test
//! per figure of the paper, checking the *shape* the paper reports.
//!
//! FIG1–FIG3 are exact-number reproductions of the methodology examples;
//! FIG4–FIG6 run the full case-study pipeline at paper scale.

use perfvar::analysis::dominant::DominantRanking;
use perfvar::analysis::invocation::replay_all;
use perfvar::analysis::profile::ProfileTable;
use perfvar::analysis::segment::Segmentation;
use perfvar::analysis::sos::SosMatrix;
use perfvar::prelude::*;
use perfvar::trace::stats::role_shares_binned;
use perfvar::trace::{DurationTicks, ProcessId, Trace};

// ───────────────────────── FIG 1 ─────────────────────────

#[test]
fn fig1_inclusive_and_exclusive_time() {
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
    // "Inclusive time of foo: t = 6. Exclusive time of foo: t = 4."
    assert_eq!(foo_inv.inclusive(), DurationTicks(6));
    assert_eq!(foo_inv.exclusive(), DurationTicks(4));
}

// ───────────────────────── FIG 2 ─────────────────────────

fn fig2_trace() -> Trace {
    let mut bld = TraceBuilder::new(Clock::microseconds());
    let main_f = bld.define_function("main", FunctionRole::Compute);
    let i_f = bld.define_function("i", FunctionRole::Compute);
    let a_f = bld.define_function("a", FunctionRole::Compute);
    let b_f = bld.define_function("b", FunctionRole::Compute);
    let c_f = bld.define_function("c", FunctionRole::Compute);
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
    bld.finish().unwrap()
}

#[test]
fn fig2_dominant_function_selection() {
    let trace = fig2_trace();
    let profiles = ProfileTable::from_invocations(&trace, &replay_all(&trace));
    let reg = trace.registry();
    let main_f = reg.function_by_name("main").unwrap();
    let a_f = reg.function_by_name("a").unwrap();
    // "the function with the highest inclusive time share is main"
    // (54 time steps), "called three times on the three processes".
    assert_eq!(profiles.get(main_f).inclusive, DurationTicks(54));
    assert_eq!(profiles.get(main_f).count, 3);
    // "the function with the second highest inclusive time share is a
    // (36 time steps). Function a is called nine times".
    assert_eq!(profiles.get(a_f).inclusive, DurationTicks(36));
    assert_eq!(profiles.get(a_f).count, 9);
    // "Hence, a is the time-dominant function for the example."
    let ranking = DominantRanking::new(&trace, &profiles);
    assert_eq!(ranking.dominant(), Some(a_f));
    assert_eq!(ranking.required_invocations(), 6); // 2p with p = 3
}

// ───────────────────────── FIG 3 ─────────────────────────

#[test]
fn fig3_sos_times() {
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
    // "The iterations in the middle (duration of 3) are twice as fast as
    // the first iteration (duration of 6)" — for every process.
    for p in 0..3 {
        assert_eq!(m.duration(ProcessId(p), 0), Some(DurationTicks(6)));
        assert_eq!(m.duration(ProcessId(p), 1), Some(DurationTicks(3)));
    }
    // "for the first iteration [...] the SOS-time of Process 2 shows 1
    // compared to a SOS-time of 5 for Process 0".
    assert_eq!(m.sos(ProcessId(0), 0), Some(DurationTicks(5)));
    assert_eq!(m.sos(ProcessId(1), 0), Some(DurationTicks(3)));
    assert_eq!(m.sos(ProcessId(2), 0), Some(DurationTicks(1)));
}

// ───────────────────────── FIG 4 ─────────────────────────

#[test]
fn fig4_cosmo_specs_load_imbalance() {
    let workload = workloads::CosmoSpecs::paper();
    let trace = simulate(&workload.spec()).unwrap();
    assert_eq!(trace.num_processes(), 100);

    // (a) "the fraction of MPI increases [...] up to a point where MPI
    // activities are dominating towards the end of the run".
    let shares = role_shares_binned(&trace, 10);
    let series = shares.mpi_series();
    assert!(
        series[9] > 2.0 * series[1],
        "MPI share must grow: {series:?}"
    );
    assert!(series[9] > 0.5, "MPI dominates at the end: {series:?}");

    // "gradually increased durations towards the end of the application
    // run" — the plain segment durations grow for everyone.
    let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
    assert!(
        analysis.imbalance.duration_trend.relative_increase > 0.5,
        "duration trend {:?}",
        analysis.imbalance.duration_trend
    );

    // (b) "only a few processes (Process 44, 45, 54, 55, 64, 65) exhibit
    // increases in this metric. Particularly Process 54".
    let mut flagged: Vec<usize> = analysis
        .imbalance
        .process_outliers
        .iter()
        .map(|p| p.index())
        .collect();
    flagged.sort_unstable();
    assert_eq!(flagged, vec![44, 45, 54, 55, 64, 65]);
    assert_eq!(analysis.imbalance.hottest_process(), Some(ProcessId(54)));
}

// ───────────────────────── FIG 5 ─────────────────────────

#[test]
fn fig5_fd4_process_interruption() {
    let workload = workloads::CosmoSpecsFd4::paper();
    let trace = simulate(&workload.spec()).unwrap();
    assert_eq!(trace.num_processes(), 200);
    let config = AnalysisConfig::default();

    // (a) "only a few iterations behaved differently and exhibited larger
    // durations": exactly one iteration sticks out.
    let coarse = analyze(&trace, &config).unwrap();
    let durations = coarse.sos().duration_by_ordinal();
    let slow: Vec<usize> = {
        let mut sorted = durations.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        durations
            .iter()
            .enumerate()
            .filter(|(_, d)| **d > 1.3 * median)
            .map(|(i, _)| i)
            .collect()
    };
    assert_eq!(slow, vec![workload.interrupted_iteration]);

    // (b) "The red line in the figure highlights a high SOS-time for
    // Process 20".
    assert_eq!(coarse.imbalance.hottest_process(), Some(ProcessId(20)));

    // (c) refinement isolates the single invocation…
    let fine = coarse.refine(&trace, &config).unwrap();
    assert_eq!(
        trace.registry().function_name(fine.function),
        "specs_timestep"
    );
    let outliers = &fine.imbalance.segment_outliers;
    assert_eq!(
        outliers.len(),
        1,
        "exactly one red invocation: {outliers:?}"
    );
    let hot = &outliers[0];
    assert_eq!(hot.process, ProcessId(20));
    assert_eq!(hot.ordinal, workload.interrupted_global_timestep());

    // …and that invocation shows "a low number of total assigned CPU
    // cycles (measured with the PAPI counter PAPI TOT CYC)".
    let cyc = fine
        .counters
        .iter()
        .find(|c| trace.registry().metric(c.metric).name == "PAPI_TOT_CYC")
        .unwrap();
    let hot_cycles = cyc.matrix.value(hot.process, hot.ordinal).unwrap() as f64;
    let hot_duration = fine.sos().duration(hot.process, hot.ordinal).unwrap().0 as f64;
    let prev = hot.ordinal - 1;
    let prev_cycles = cyc.matrix.value(hot.process, prev).unwrap() as f64;
    let prev_duration = fine.sos().duration(hot.process, prev).unwrap().0 as f64;
    assert!(
        hot_cycles / hot_duration < 0.5 * (prev_cycles / prev_duration),
        "interrupted invocation must show low cycles per wall tick"
    );
}

// ───────────────────────── FIG 6 ─────────────────────────

#[test]
fn fig6_wrf_floating_point_exceptions() {
    let workload = workloads::Wrf::paper();
    let trace = simulate(&workload.spec()).unwrap();
    assert_eq!(trace.num_processes(), 64);

    // (a) "model initialization and I/O activities that take about 11
    // seconds" — the init phase is ≥ 85 % of the paper span ratio here.
    let shares = role_shares_binned(&trace, 20);
    assert!(shares.mpi_share(0) < 0.05, "init is not MPI-bound");

    let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
    // "a 25 % fraction of MPI activities" within the iterations.
    let total_duration: f64 = analysis
        .segmentation
        .iter()
        .map(|s| s.duration().0 as f64)
        .sum();
    let total_sync: f64 = analysis.segmentation.iter().map(|s| s.sync.0 as f64).sum();
    let mpi_fraction = total_sync / total_duration;
    assert!(
        (0.10..0.40).contains(&mpi_fraction),
        "iteration MPI fraction {mpi_fraction}"
    );

    // (b) "Particularly Process 39 exhibits higher durations".
    assert_eq!(analysis.imbalance.hottest_process(), Some(ProcessId(39)));
    assert!(analysis.imbalance.process_outliers.contains(&ProcessId(39)));

    // (c) "Process 39 exhibits an exceptional high number of
    // floating-point exceptions [...] the results of the counter
    // perfectly match our runtime variation analysis".
    let fpx = analysis
        .counters
        .iter()
        .find(|c| trace.registry().metric(c.metric).name == "FR_FPU_EXCEPTIONS_SSE_MICROTRAPS")
        .unwrap();
    assert_eq!(fpx.matrix.hottest_process(), Some(ProcessId(39)));
    let r = fpx.sos_correlation.unwrap();
    assert!(r > 0.9, "counter–SOS correlation r = {r}");
}
