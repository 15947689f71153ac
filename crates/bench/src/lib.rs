//! Shared fixtures for the perfvar experiment harness.
//!
//! The `experiments` binary and the tests need the case-study traces at
//! paper scale plus scaled-down variants; this crate builds them in one
//! place.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use perfvar_analysis::{analyze, Analysis, AnalysisConfig};
use perfvar_sim::workloads::Workload;
use perfvar_sim::workloads::{BalancedStencil, CosmoSpecs, CosmoSpecsFd4, SingleOutlier, Wrf};
use perfvar_sim::{simulate, CommParams, Program, SpecBuilder};
use perfvar_trace::{Clock, FunctionRole, MetricMode, Trace};

/// The COSMO-SPECS trace at paper scale (100 ranks, 60 iterations).
pub fn fig4_trace() -> Trace {
    simulate(&CosmoSpecs::paper().spec()).expect("cosmo-specs simulates")
}

/// The COSMO-SPECS+FD4 trace at paper scale (200 ranks).
pub fn fig5_trace() -> Trace {
    simulate(&CosmoSpecsFd4::paper().spec()).expect("fd4 simulates")
}

/// The WRF trace at paper scale (64 ranks, 80 timesteps).
pub fn fig6_trace() -> Trace {
    simulate(&Wrf::paper().spec()).expect("wrf simulates")
}

/// A balanced stencil trace carrying three hardware-counter channels
/// (accumulating cycles, delta cache misses, gauge memory), sampled
/// every iteration — the fixture for end-to-end pipeline benchmarks
/// where counter attribution is part of the work.
pub fn counter_stencil_trace(ranks: usize, iterations: usize) -> Trace {
    let mut b = SpecBuilder::new(
        "counter-stencil",
        Clock::microseconds(),
        CommParams::cluster_defaults(),
    );
    let main_f = b.function("main", FunctionRole::Compute);
    let iter_f = b.function("stencil_iteration", FunctionRole::Compute);
    let calc_f = b.function("compute_stencil", FunctionRole::Compute);
    let barrier_f = b.function("MPI_Barrier", FunctionRole::MpiCollective);
    let cyc = b.metric("PAPI_TOT_CYC", MetricMode::Accumulating, "cycles");
    let l2m = b.metric("PAPI_L2_TCM", MetricMode::Delta, "misses");
    let mem = b.metric("MEM_RSS", MetricMode::Gauge, "bytes");
    for rank in 0..ranks {
        let mut p = Program::new();
        p.enter(main_f);
        p.sample_counter(cyc);
        for k in 0..iterations {
            let work = 10_000 + ((rank * 31 + k * 17) % 400) as u64;
            p.enter(iter_f);
            p.enter(calc_f);
            p.compute_counted(work, vec![(cyc, work * 2)]);
            p.leave(calc_f);
            p.sample_counter(cyc);
            p.emit_metric(l2m, work / 10);
            p.emit_metric(mem, 1 << 20);
            p.barrier(barrier_f);
            p.leave(iter_f);
        }
        p.leave(main_f);
        b.add_rank(p);
    }
    simulate(&b.build()).expect("counter stencil simulates")
}

/// A single-outlier trace (ground truth: `outlier_rank`, middle
/// iteration) for detection-quality experiments.
pub fn outlier_trace(ranks: usize, iterations: usize, outlier_rank: usize) -> Trace {
    simulate(&SingleOutlier::new(ranks, iterations, outlier_rank).spec())
        .expect("outlier simulates")
}

/// Runs the default analysis pipeline; panics on failure (bench fixtures
/// are known-good).
pub fn analyzed(trace: &Trace) -> Analysis {
    analyze(trace, &AnalysisConfig::default()).expect("analysis succeeds")
}

/// Writes an ordered sequence of `runs` balanced-stencil archives into
/// `dir` (`run0.pvta` … `run{n-1}.pvta`) with a planted regression: from
/// run `step_at` onward the per-iteration work steps from 10k to 16k
/// ticks (a +60% makespan shift). Seeds differ per run, so the stencil
/// jitter makes every run distinct — run-to-run noise a comparison must
/// see through, well inside the ±5% default threshold. The fixture
/// behind `perfvar bisect` end-to-end checks and the REGRESSION
/// experiment row.
pub fn regression_sequence(
    dir: &std::path::Path,
    runs: usize,
    step_at: usize,
) -> Vec<std::path::PathBuf> {
    (0..runs)
        .map(|r| {
            let mut w = BalancedStencil::new(8, 12);
            w.seed = 100 + r as u64;
            w.work = if r < step_at { 10_000 } else { 16_000 };
            let trace = simulate(&w.spec()).expect("stencil simulates");
            let path = dir.join(format!("run{r}.pvta"));
            perfvar_trace::format::write_trace_file(&trace, &path).expect("archive fixture writes");
            path
        })
        .collect()
}

/// Load generation against a running `perfvar serve` daemon: the engine
/// behind the `loadgen` binary and the SERVE-LOAD experiment row.
pub mod load {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    /// The outcome of one load run: per-request latencies (sorted
    /// ascending), the error count, and the wall time of the whole run.
    #[derive(Clone, Debug)]
    pub struct LoadSummary {
        /// Sorted per-request latencies in seconds (successes only).
        pub latencies_s: Vec<f64>,
        /// Requests that failed at the transport layer or returned a
        /// non-200 status.
        pub errors: usize,
        /// Open-loop ticks shed because the dispatcher had fallen too
        /// far behind schedule to send them on time (always `0` in
        /// closed-loop mode). A non-zero count means the requested
        /// `rate` exceeded what this machine can offer — the run's
        /// *delivered* rate is `latencies_s.len() + errors` over
        /// `wall_s`, not the requested one.
        pub dropped: usize,
        /// Wall time of the whole run in seconds.
        pub wall_s: f64,
    }

    impl LoadSummary {
        /// The `q`-quantile latency (`q` in `[0, 1]`; true nearest-rank
        /// `⌈q·n⌉ − 1` on the sorted latencies, so `quantile(1.0)` is the
        /// maximum and `quantile(0.5)` over two samples is the first, not
        /// an average of indices). `0.0` when no request succeeded.
        pub fn quantile(&self, q: f64) -> f64 {
            let n = self.latencies_s.len();
            if n == 0 {
                return 0.0;
            }
            let rank = if q <= 0.0 {
                0
            } else {
                (q * n as f64).ceil() as usize - 1
            };
            self.latencies_s[rank.min(n - 1)]
        }

        /// Mean latency over successful requests.
        pub fn mean(&self) -> f64 {
            if self.latencies_s.is_empty() {
                return 0.0;
            }
            self.latencies_s.iter().sum::<f64>() / self.latencies_s.len() as f64
        }

        /// Completed requests (successes) per second of wall time.
        pub fn throughput(&self) -> f64 {
            if self.wall_s <= 0.0 {
                return 0.0;
            }
            self.latencies_s.len() as f64 / self.wall_s
        }
    }

    fn measure(addr: &str, target: &str) -> Result<f64, ()> {
        let start = Instant::now();
        match perfvar_server::client::get(addr, target) {
            Ok(resp) if resp.status == 200 => Ok(start.elapsed().as_secs_f64()),
            _ => Err(()),
        }
    }

    fn summarize(results: Vec<Result<f64, ()>>, wall_s: f64) -> LoadSummary {
        let errors = results.iter().filter(|r| r.is_err()).count();
        let mut latencies_s: Vec<f64> = results.into_iter().flatten().collect();
        latencies_s.sort_by(|a, b| a.total_cmp(b));
        LoadSummary {
            latencies_s,
            errors,
            dropped: 0,
            wall_s,
        }
    }

    /// Closed-loop load: `concurrency` workers issue the targets as fast
    /// as responses come back — each worker has exactly one request in
    /// flight, so the offered load adapts to the daemon's speed.
    pub fn closed_loop(addr: &str, targets: &[String], concurrency: usize) -> LoadSummary {
        let next = AtomicUsize::new(0);
        let results = Mutex::new(Vec::with_capacity(targets.len()));
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..concurrency.max(1) {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(target) = targets.get(idx) else {
                        break;
                    };
                    let outcome = measure(addr, target);
                    results.lock().unwrap().push(outcome);
                });
            }
        });
        summarize(results.into_inner().unwrap(), start.elapsed().as_secs_f64())
    }

    /// Open-loop load: targets are dispatched on a fixed `rate` (requests
    /// per second) schedule regardless of completions — the offered load
    /// does not let a slow daemon push back, so queueing delay shows up
    /// in the latencies instead of the throughput.
    ///
    /// Catch-up is capped: a tick the dispatcher could not send within
    /// a few intervals of its scheduled time is *dropped* (counted in
    /// [`LoadSummary::dropped`]) rather than bursted out back-to-back.
    /// An uncapped dispatcher that falls behind — an absurd `rate`, a
    /// scheduler stall — would fire every overdue tick at once, which
    /// both melts the measurement (those requests queue behind each
    /// other at the sender, inflating latency) and stops being open-loop
    /// at all.
    pub fn open_loop(addr: &str, targets: &[String], rate: f64) -> LoadSummary {
        let interval = Duration::from_secs_f64(1.0 / rate.max(0.001));
        // How far behind schedule a tick may fire before it is shed.
        // A small burst absorbs scheduler jitter; beyond it the
        // requested rate is simply not deliverable.
        let max_lag = (interval * 4).max(Duration::from_millis(2));
        let start = Instant::now();
        let results = Mutex::new(Vec::with_capacity(targets.len()));
        let mut dropped = 0usize;
        std::thread::scope(|scope| {
            for (idx, target) in targets.iter().enumerate() {
                let due = start + interval * idx as u32;
                let now = Instant::now();
                if let Some(wait) = due.checked_duration_since(now) {
                    std::thread::sleep(wait);
                } else if now.duration_since(due) > max_lag {
                    dropped += 1;
                    continue;
                }
                let results = &results;
                scope.spawn(move || {
                    let outcome = measure(addr, target);
                    results.lock().unwrap().push(outcome);
                });
            }
        });
        let mut summary = summarize(results.into_inner().unwrap(), start.elapsed().as_secs_f64());
        summary.dropped = dropped;
        summary
    }

    /// The request mix for a run: `count` targets of which roughly
    /// `cold_frac` are cache-busting "cold" analyses, the rest warm cache
    /// hits on the plain target.
    ///
    /// Cold requests vary the `multiplier` parameter (the
    /// dominant-function invocation threshold, which the daemon folds
    /// into its content-addressed cache key) over `3 + ((run_seed + i) %
    /// cold_window)`, forcing a cache miss and a full pipeline run for
    /// each distinct value. Two constraints follow:
    ///
    /// * the trace must iterate at least `3 + cold_window` times, or the
    ///   larger thresholds leave no dominant function and the request
    ///   fails with 422;
    /// * against a long-lived daemon, keep `cold_window` above the
    ///   daemon's `--cache-entries` (default 64) or repeated runs find
    ///   the "cold" keys already cached.
    pub fn mixed_targets(
        encoded_path: &str,
        count: usize,
        cold_frac: f64,
        cold_window: u64,
        run_seed: u64,
    ) -> Vec<String> {
        let cold_every = if cold_frac <= 0.0 {
            usize::MAX
        } else {
            ((1.0 / cold_frac.min(1.0)).round() as usize).max(1)
        };
        (0..count)
            .map(|i| {
                if i % cold_every == 0 && cold_every != usize::MAX {
                    // Skips the default threshold of 2 so every cold key
                    // differs from the warm one.
                    let multiplier = 3 + (run_seed + i as u64) % cold_window.max(1);
                    format!("/v1/analyze?path={encoded_path}&multiplier={multiplier}")
                } else {
                    format!("/v1/analyze?path={encoded_path}")
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_of(latencies_s: Vec<f64>) -> load::LoadSummary {
        load::LoadSummary {
            latencies_s,
            errors: 0,
            dropped: 0,
            wall_s: 1.0,
        }
    }

    #[test]
    fn quantile_is_nearest_rank() {
        // n = 1: every quantile is the single sample.
        let one = summary_of(vec![7.0]);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 7.0);
        }
        // n = 2: ⌈q·n⌉−1 picks the first sample up to the median and the
        // second strictly above it — the old midpoint rounding returned
        // the *second* sample for q = 0.5.
        let two = summary_of(vec![1.0, 9.0]);
        assert_eq!(two.quantile(0.0), 1.0);
        assert_eq!(two.quantile(0.5), 1.0);
        assert_eq!(two.quantile(0.51), 9.0);
        assert_eq!(two.quantile(1.0), 9.0);
        // n = 10: p90 must be the 9th order statistic, not the 10th.
        let ten = summary_of((1..=10).map(f64::from).collect());
        assert_eq!(ten.quantile(0.9), 9.0);
        assert_eq!(ten.quantile(0.99), 10.0);
        assert_eq!(ten.quantile(1.0), 10.0);
        // Empty and out-of-range stay safe.
        assert_eq!(summary_of(vec![]).quantile(0.5), 0.0);
        assert_eq!(ten.quantile(2.0), 10.0);
        assert_eq!(ten.quantile(-0.5), 1.0);
    }

    #[test]
    fn open_loop_at_an_absurd_rate_sheds_ticks_instead_of_bursting() {
        // Port 1 refuses connections instantly — this exercises the
        // dispatcher's pacing, not a daemon. At 10⁹ rps the schedule is
        // undeliverable from the first few microseconds on: an uncapped
        // dispatcher would burst all ticks back-to-back, the capped one
        // must shed the overdue ones and say so.
        let targets: Vec<String> = (0..5_000).map(|_| "/v1/health".to_string()).collect();
        let summary = load::open_loop("127.0.0.1:1", &targets, 1e9);
        assert!(summary.dropped > 0, "absurd rate must shed overdue ticks");
        // Every tick is accounted for: sent (success or error) or shed.
        assert_eq!(
            summary.latencies_s.len() + summary.errors + summary.dropped,
            targets.len()
        );

        // A deliverable schedule sheds nothing.
        let targets: Vec<String> = (0..20).map(|_| "/v1/health".to_string()).collect();
        let summary = load::open_loop("127.0.0.1:1", &targets, 200.0);
        assert_eq!(summary.dropped, 0, "a deliverable rate must not shed");
        assert_eq!(summary.latencies_s.len() + summary.errors, targets.len());
    }

    #[test]
    fn regression_sequence_plants_a_step() {
        let dir = std::env::temp_dir().join("perfvar-bench-regression-seq");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let runs = regression_sequence(&dir, 4, 2);
        assert_eq!(runs.len(), 4);
        let spans: Vec<u64> = runs
            .iter()
            .map(|p| {
                perfvar_trace::format::read_trace_file(p)
                    .expect("fixture reads back")
                    .span()
                    .0
            })
            .collect();
        // Pre-step runs differ only by jitter; the step is a >40% jump.
        let pre = spans[0] as f64;
        assert!((spans[1] as f64 - pre).abs() / pre < 0.05, "{spans:?}");
        assert!(spans[2] as f64 > pre * 1.4, "{spans:?}");
        assert!(spans[3] as f64 > pre * 1.4, "{spans:?}");
    }

    #[test]
    fn fixtures_build() {
        let t = simulate(&BalancedStencil::new(4, 5).spec()).unwrap();
        assert_eq!(t.num_processes(), 4);
        let a = analyzed(&t);
        assert!(!a.segmentation.is_empty());
    }

    #[test]
    fn counter_stencil_has_all_metric_modes() {
        let t = counter_stencil_trace(4, 5);
        assert_eq!(t.registry().num_metrics(), 3);
        let a = analyzed(&t);
        assert_eq!(a.counters.len(), 3);
        // Every channel attributes non-zero values somewhere.
        for c in &a.counters {
            assert!(
                a.segmentation.iter().any(|s| c
                    .matrix
                    .value(s.process, s.ordinal as usize)
                    .unwrap_or(0)
                    > 0),
                "metric {:?} attributed nothing",
                t.registry().metric(c.metric).name
            );
        }
    }
}
