//! Seeded workload inputs. Every input is a function of `--seed` alone;
//! `perfvar` only ever sees the files written from them.

use perfvar_sim::workloads::{
    BalancedStencil, CosmoSpecs, CosmoSpecsFd4, DesyncWave, SingleOutlier, Workload, Wrf,
};
use perfvar_sim::{simulate, CommParams, Program, SpecBuilder};
use perfvar_trace::{
    Clock, Event, EventRecord, FunctionId, FunctionRole, MetricMode, Registry, Timestamp, Trace,
    TraceBuilder,
};

/// SplitMix64 over `seed` and `salt`: a well-mixed, reproducible value.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One of the paper's three case studies with its ground truth as
/// EXPERIMENTS.md states it (FIG4b, FIG5b, FIG6b).
pub struct CaseStudy {
    /// File stem (`cosmo-specs`, `cosmo-specs-fd4`, `wrf`).
    pub name: &'static str,
    /// The simulated trace.
    pub trace: Trace,
    /// The rank the SOS analysis must name as the hottest process.
    pub hottest: usize,
    /// The exact set of flagged process outliers, where the paper names
    /// one.
    pub flagged: Option<Vec<usize>>,
}

/// The three case studies at paper scale, with seeded jitter.
pub fn case_studies(seed: u64) -> Result<Vec<CaseStudy>, String> {
    let sim = |spec| simulate(&spec).map_err(|e| format!("simulation failed: {e}"));
    let mut cosmo = CosmoSpecs::paper();
    cosmo.seed = mix(seed, 1);
    let mut fd4 = CosmoSpecsFd4::paper();
    fd4.seed = mix(seed, 2);
    let mut wrf = Wrf::paper();
    wrf.seed = mix(seed, 3);
    Ok(vec![
        CaseStudy {
            name: "cosmo-specs",
            trace: sim(cosmo.spec())?,
            hottest: 54,
            flagged: Some(vec![44, 45, 54, 55, 64, 65]),
        },
        CaseStudy {
            name: "cosmo-specs-fd4",
            trace: sim(fd4.spec())?,
            hottest: 20,
            flagged: None,
        },
        CaseStudy {
            name: "wrf",
            trace: sim(wrf.spec())?,
            hottest: 39,
            flagged: Some(vec![39]),
        },
    ])
}

/// Compute calls per counter-stencil iteration.
const STENCIL_SWEEPS: u64 = 16;

/// A barrier-coupled stencil with three hardware-counter channels
/// (accumulating cycles, delta cache misses, gauge memory) and seeded
/// per-iteration work — the archive-scan input. Each iteration makes
/// [`STENCIL_SWEEPS`] compute calls, so the event volume is large while
/// the segment count (and so every JSON result) stays moderate.
pub fn counter_stencil(ranks: usize, iterations: usize, seed: u64) -> Result<Trace, String> {
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
            let work = 10_000 + mix(seed, (rank * iterations + k) as u64) % 400;
            p.enter(iter_f);
            for _ in 0..STENCIL_SWEEPS {
                let sweep = work / STENCIL_SWEEPS;
                p.enter(calc_f);
                p.compute_counted(sweep, vec![(cyc, sweep * 2)]);
                p.leave(calc_f);
            }
            p.sample_counter(cyc);
            p.emit_metric(l2m, work / 10);
            p.emit_metric(mem, 1 << 20);
            p.barrier(barrier_f);
            p.leave(iter_f);
        }
        p.leave(main_f);
        b.add_rank(p);
    }
    simulate(&b.build()).map_err(|e| format!("simulation failed: {e}"))
}

/// The serve-mixed archives: two balanced stencils, one single-outlier
/// run and one desynchronisation wave, each `ranks × iterations`.
pub fn serve_traces(
    ranks: usize,
    iterations: usize,
    seed: u64,
) -> Result<Vec<(&'static str, Trace)>, String> {
    let sim = |spec| simulate(&spec).map_err(|e| format!("simulation failed: {e}"));
    let mut a = BalancedStencil::new(ranks, iterations);
    a.seed = mix(seed, 11);
    let mut b = BalancedStencil::new(ranks, iterations);
    b.seed = mix(seed, 12);
    let mut outlier =
        SingleOutlier::new(ranks, iterations, (mix(seed, 13) % ranks as u64) as usize);
    outlier.seed = mix(seed, 14);
    let mut wave = DesyncWave::new(ranks, iterations, (mix(seed, 15) % ranks as u64) as usize);
    wave.seed = mix(seed, 16);
    Ok(vec![
        ("balanced-a", sim(a.spec())?),
        ("balanced-b", sim(b.spec())?),
        ("outlier", sim(outlier.spec())?),
        ("desync-wave", sim(wave.spec())?),
    ])
}

/// Kernel calls per live-stencil iteration. Many calls per iteration keep
/// the segment count (and so the size of every JSON result) small
/// relative to the event volume.
const LIVE_KERNELS: u64 = 64;
/// Records of one live-stencil iteration: enter/leave of the iteration,
/// of every kernel call and of the closing collective.
const LIVE_ITERATION_RECORDS: u64 = 2 * LIVE_KERNELS + 4;

/// An unbounded seeded stencil, generated record by record for a live
/// archive writer — no trace is ever materialised.
pub struct LiveStencil {
    seed: u64,
    registry: Registry,
    main_f: FunctionId,
    iter_f: FunctionId,
    kernels: [FunctionId; 4],
    allreduce_f: FunctionId,
    /// Per rank: next timestamp and how many records it has emitted.
    ranks: Vec<(u64, u64)>,
}

impl LiveStencil {
    /// The name of the live stencil's segmentation function.
    pub const ITERATION: &'static str = "stencil_iteration";

    /// A `ranks`-rank stencil seeded by `seed`.
    pub fn new(ranks: usize, seed: u64) -> LiveStencil {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let main_f = b.define_function("main", FunctionRole::Compute);
        let iter_f = b.define_function(LiveStencil::ITERATION, FunctionRole::Compute);
        let kernels = [
            b.define_function("advect", FunctionRole::Compute),
            b.define_function("diffuse", FunctionRole::Compute),
            b.define_function("project", FunctionRole::Compute),
            b.define_function("boundary", FunctionRole::Compute),
        ];
        let allreduce_f = b.define_function("MPI_Allreduce", FunctionRole::MpiCollective);
        for rank in 0..ranks {
            b.define_process(format!("rank {rank}"));
        }
        LiveStencil {
            seed,
            registry: b.registry().clone(),
            main_f,
            iter_f,
            kernels,
            allreduce_f,
            ranks: vec![(0, 0); ranks],
        }
    }

    /// The definition tables for the archive anchor.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The next record of `rank`'s endless stream.
    pub fn next_record(&mut self, rank: usize) -> EventRecord {
        let (time, emitted) = self.ranks[rank];
        let event = if emitted == 0 {
            Event::Enter {
                function: self.main_f,
            }
        } else {
            self.iteration_event(emitted - 1)
        };
        let iteration = emitted.saturating_sub(1) / LIVE_ITERATION_RECORDS;
        let step = emitted.saturating_sub(1) % LIVE_ITERATION_RECORDS;
        let noise = mix(
            self.seed,
            (rank as u64) << 40 | iteration << 8 | (step & 0xff),
        );
        let advance = match event {
            // Kernel bodies and the collective's wait carry the time.
            Event::Leave { function } if function == self.allreduce_f => 5 + noise % 40,
            Event::Leave { function } if self.kernels.contains(&function) => 40 + noise % 20,
            _ => 1,
        };
        self.ranks[rank] = (time + advance, emitted + 1);
        EventRecord::new(Timestamp(time + advance), event)
    }

    /// The records that close `rank`'s stream: the rest of the current
    /// iteration, then `main`.
    pub fn closing_records(&mut self, rank: usize) -> Vec<EventRecord> {
        let mut out = Vec::new();
        if self.ranks[rank].1 == 0 {
            out.push(self.next_record(rank));
        }
        while !(self.ranks[rank].1 - 1).is_multiple_of(LIVE_ITERATION_RECORDS) {
            out.push(self.next_record(rank));
        }
        let time = self.ranks[rank].0 + 1;
        out.push(EventRecord::new(
            Timestamp(time),
            Event::Leave {
                function: self.main_f,
            },
        ));
        out
    }

    /// Iterations `rank` has completed.
    #[cfg(test)]
    pub fn iterations(&self, rank: usize) -> u64 {
        self.ranks[rank].1.saturating_sub(1) / LIVE_ITERATION_RECORDS
    }

    fn iteration_event(&self, index: u64) -> Event {
        let step = index % LIVE_ITERATION_RECORDS;
        match step {
            0 => Event::Enter {
                function: self.iter_f,
            },
            s if s == LIVE_ITERATION_RECORDS - 1 => Event::Leave {
                function: self.iter_f,
            },
            s if s == LIVE_ITERATION_RECORDS - 3 => Event::Enter {
                function: self.allreduce_f,
            },
            s if s == LIVE_ITERATION_RECORDS - 2 => Event::Leave {
                function: self.allreduce_f,
            },
            s => {
                let call = (s - 1) / 2;
                let function = self.kernels[(call % 4) as usize];
                if (s - 1) % 2 == 0 {
                    Event::Enter { function }
                } else {
                    Event::Leave { function }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvar_trace::ProcessId;

    #[test]
    fn live_stencil_streams_are_valid_and_close_cleanly() {
        let mut s = LiveStencil::new(3, 9);
        let mut b = TraceBuilder::new(Clock::microseconds());
        for f in s.registry().functions() {
            b.define_function(f.name.clone(), f.role);
        }
        let p: Vec<ProcessId> = (0..3)
            .map(|r| b.define_process(format!("rank {r}")))
            .collect();
        for (rank, &process) in p.iter().enumerate() {
            // Stop mid-iteration on purpose: closing must finish it.
            let mut records: Vec<EventRecord> = (0..(300 + rank as u64 * 7))
                .map(|_| s.next_record(rank))
                .collect();
            records.extend(s.closing_records(rank));
            let w = b.process_mut(process);
            for r in records {
                match r.event {
                    Event::Enter { function } => w.enter(r.time, function).unwrap(),
                    Event::Leave { function } => w.leave(r.time, function).unwrap(),
                    _ => unreachable!("the live stencil emits calls only"),
                }
            }
        }
        let trace = b.finish().expect("balanced, monotone streams");
        let analysis =
            perfvar_analysis::analyze(&trace, &perfvar_analysis::AnalysisConfig::default())
                .unwrap();
        assert_eq!(
            trace.registry().function_name(analysis.function),
            LiveStencil::ITERATION
        );
        let expected: u64 = (0..3).map(|r| s.iterations(r)).sum();
        assert_eq!(analysis.segmentation.len() as u64, expected);
    }

    #[test]
    fn inputs_depend_on_the_seed_only() {
        let a = counter_stencil(2, 5, 1).unwrap();
        assert_eq!(a, counter_stencil(2, 5, 1).unwrap());
        assert_ne!(a, counter_stencil(2, 5, 2).unwrap());
    }
}
