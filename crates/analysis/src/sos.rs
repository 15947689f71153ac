//! The synchronization-oblivious segment time matrix (§V).
//!
//! Comparing plain segment durations detects variation *across
//! iterations* but cannot localise the responsible *process*: fast ranks
//! wait inside synchronization calls, so every rank's iteration takes
//! equally long. The paper therefore subtracts synchronization time from
//! each segment — the **SOS-time** — before comparing. [`SosMatrix`]
//! holds the per-process, per-segment values and the summary statistics
//! the detector and visualizer work with.

use crate::segment::Segmentation;
use perfvar_trace::{DurationTicks, FunctionId, ProcessId};
use serde::{Deserialize, Serialize};

/// Per-process, per-segment SOS-times (and durations) for one
/// segmentation function. Rows may be ragged if processes executed
/// different numbers of segments.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SosMatrix {
    /// The segmentation function the matrix was computed for.
    pub function: FunctionId,
    sos: Vec<Vec<DurationTicks>>,
    durations: Vec<Vec<DurationTicks>>,
}

/// Simple distribution summary of a set of tick values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TickStats {
    /// Number of values.
    pub count: usize,
    /// Minimum.
    pub min: u64,
    /// Maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Median (lower of the two middle elements for even counts).
    pub median: u64,
}

impl TickStats {
    /// Computes stats over raw tick values.
    pub fn from_values(values: impl IntoIterator<Item = u64>) -> TickStats {
        let mut v: Vec<u64> = values.into_iter().collect();
        if v.is_empty() {
            return TickStats::default();
        }
        // A full sort, not selection: `mean` and `stddev` are summed in
        // sorted order, and another order would change their bits.
        v.sort_unstable();
        let count = v.len();
        let min = v[0];
        let max = v[count - 1];
        let median = v[(count - 1) / 2];
        let mean = v.iter().map(|&x| x as f64).sum::<f64>() / count as f64;
        let var = v
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / count as f64;
        TickStats {
            count,
            min,
            max,
            mean,
            stddev: var.sqrt(),
            median,
        }
    }

    /// Coefficient of variation (stddev / mean); 0 for an empty or
    /// zero-mean set.
    pub fn cv(&self) -> f64 {
        if self.mean > 0.0 {
            self.stddev / self.mean
        } else {
            0.0
        }
    }
}

impl SosMatrix {
    /// Computes the matrix from a segmentation.
    pub fn from_segmentation(seg: &Segmentation) -> SosMatrix {
        let mut sos = Vec::with_capacity(seg.num_processes());
        let mut durations = Vec::with_capacity(seg.num_processes());
        for p in 0..seg.num_processes() {
            let segs = seg.process(ProcessId::from_index(p));
            sos.push(segs.iter().map(|s| s.sos()).collect());
            durations.push(segs.iter().map(|s| s.duration()).collect());
        }
        SosMatrix {
            function: seg.function,
            sos,
            durations,
        }
    }

    /// A matrix with the given per-process SOS rows (durations equal to
    /// them), for tests that need exact values.
    #[cfg(test)]
    pub(crate) fn from_sos_rows(rows: &[Vec<u64>]) -> SosMatrix {
        let sos: Vec<Vec<DurationTicks>> = rows
            .iter()
            .map(|row| row.iter().map(|&v| DurationTicks(v)).collect())
            .collect();
        SosMatrix {
            function: FunctionId(0),
            durations: sos.clone(),
            sos,
        }
    }

    /// Number of processes (rows).
    pub fn num_processes(&self) -> usize {
        self.sos.len()
    }

    /// The SOS-time series of one process.
    pub fn process_sos(&self, p: ProcessId) -> &[DurationTicks] {
        &self.sos[p.index()]
    }

    /// The plain segment-duration series of one process.
    pub fn process_durations(&self, p: ProcessId) -> &[DurationTicks] {
        &self.durations[p.index()]
    }

    /// SOS-time of segment `ordinal` on `p`, if present.
    pub fn sos(&self, p: ProcessId, ordinal: usize) -> Option<DurationTicks> {
        self.sos[p.index()].get(ordinal).copied()
    }

    /// Duration of segment `ordinal` on `p`, if present.
    pub fn duration(&self, p: ProcessId, ordinal: usize) -> Option<DurationTicks> {
        self.durations[p.index()].get(ordinal).copied()
    }

    /// Iterates `(process, ordinal, sos)` over all segments.
    pub fn iter_sos(&self) -> impl Iterator<Item = (ProcessId, usize, DurationTicks)> + '_ {
        self.sos.iter().enumerate().flat_map(|(p, row)| {
            row.iter()
                .enumerate()
                .map(move |(i, &v)| (ProcessId::from_index(p), i, v))
        })
    }

    /// Total SOS-time per process (the per-process computational load).
    pub fn process_totals(&self) -> Vec<DurationTicks> {
        self.sos
            .iter()
            .map(|row| row.iter().copied().sum())
            .collect()
    }

    /// Maximum SOS-time per process.
    pub fn process_maxima(&self) -> Vec<DurationTicks> {
        self.sos
            .iter()
            .map(|row| row.iter().copied().max().unwrap_or(DurationTicks::ZERO))
            .collect()
    }

    /// Statistics over all SOS values in the matrix.
    pub fn sos_stats(&self) -> TickStats {
        TickStats::from_values(self.sos.iter().flatten().map(|d| d.0))
    }

    /// Statistics over all plain durations.
    pub fn duration_stats(&self) -> TickStats {
        TickStats::from_values(self.durations.iter().flatten().map(|d| d.0))
    }

    /// Per-ordinal mean duration across processes (the "how long was
    /// iteration k" series; reveals variation over time, §V ¶1). Ragged
    /// rows contribute to the ordinals they have.
    pub fn duration_by_ordinal(&self) -> Vec<f64> {
        let width = self.durations.iter().map(Vec::len).max().unwrap_or(0);
        let mut sums = vec![0.0f64; width];
        let mut counts = vec![0usize; width];
        for row in &self.durations {
            for (i, d) in row.iter().enumerate() {
                sums[i] += d.0 as f64;
                counts[i] += 1;
            }
        }
        sums.iter()
            .zip(&counts)
            .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect()
    }

    /// Per-ordinal mean SOS across processes.
    pub fn sos_by_ordinal(&self) -> Vec<f64> {
        let width = self.sos.iter().map(Vec::len).max().unwrap_or(0);
        let mut sums = vec![0.0f64; width];
        let mut counts = vec![0usize; width];
        for row in &self.sos {
            for (i, d) in row.iter().enumerate() {
                sums[i] += d.0 as f64;
                counts[i] += 1;
            }
        }
        sums.iter()
            .zip(&counts)
            .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect()
    }

    /// The globally largest SOS value and its location.
    pub fn argmax(&self) -> Option<(ProcessId, usize, DurationTicks)> {
        self.iter_sos()
            .max_by_key(|(p, i, v)| (*v, std::cmp::Reverse(p.0), std::cmp::Reverse(*i)))
    }

    /// Ablation helper: a matrix whose "SOS" values are the *plain
    /// segment durations* — i.e. the naive analysis the paper argues
    /// against in §V. Feeding this to
    /// [`ImbalanceAnalysis`](crate::imbalance::ImbalanceAnalysis) shows
    /// what detection quality is lost without the synchronization
    /// subtraction (synchronization hides the slow process, so the naive
    /// variant cannot localise imbalances across processes).
    pub fn durations_as_sos(&self) -> SosMatrix {
        SosMatrix {
            function: self.function,
            sos: self.durations.clone(),
            durations: self.durations.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invocation::replay_all;
    use crate::segment::Segmentation;
    use perfvar_trace::{Clock, FunctionRole, Timestamp, Trace, TraceBuilder};

    /// The paper's Fig. 3: three processes, three invocations of the
    /// dominant function `a`, each `calc` + `MPI`. All processes leave
    /// each synchronization together.
    ///
    /// Iteration 1 (0–6): calc loads 5/3/1 → SOS 5/3/1 (the paper:
    /// "the SOS-time of Process 2 shows 1 compared to a SOS-time of 5
    /// for Process 0"). Durations are 6 for everyone.
    /// Iterations 2 and 3 (6–9, 9–12): balanced loads → duration 3
    /// ("twice as fast as the first iteration").
    pub(crate) fn fig3_trace() -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let a_f = b.define_function("a", FunctionRole::Compute);
        let calc_f = b.define_function("calc", FunctionRole::Compute);
        let mpi_f = b.define_function("MPI", FunctionRole::MpiCollective);
        // calc ticks per (process, iteration).
        let loads = [[5u64, 2, 2], [3, 2, 2], [1, 2, 2]];
        // iteration boundaries: 0..6, 6..9, 9..12.
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
        b.finish().unwrap()
    }

    fn fig3_matrix() -> SosMatrix {
        let trace = fig3_trace();
        let a = trace.registry().function_by_name("a").unwrap();
        let seg = Segmentation::new(&trace, &replay_all(&trace), a);
        SosMatrix::from_segmentation(&seg)
    }

    #[test]
    fn fig3_durations_match_paper() {
        let m = fig3_matrix();
        // Middle of Fig. 3: plain durations are 6 then 3 then 3, on every
        // process — the duration comparison cannot tell processes apart.
        for p in 0..3 {
            let d: Vec<u64> = m
                .process_durations(ProcessId(p))
                .iter()
                .map(|d| d.0)
                .collect();
            assert_eq!(d, vec![6, 3, 3], "process {p}");
        }
    }

    #[test]
    fn fig3_sos_times_match_paper() {
        let m = fig3_matrix();
        // Bottom of Fig. 3: subtracting synchronization reveals the load
        // imbalance of the first iteration.
        assert_eq!(m.sos(ProcessId(0), 0), Some(DurationTicks(5)));
        assert_eq!(m.sos(ProcessId(1), 0), Some(DurationTicks(3)));
        assert_eq!(m.sos(ProcessId(2), 0), Some(DurationTicks(1)));
        // Balanced iterations: SOS 2 everywhere.
        for p in 0..3 {
            assert_eq!(m.sos(ProcessId(p), 1), Some(DurationTicks(2)));
            assert_eq!(m.sos(ProcessId(p), 2), Some(DurationTicks(2)));
        }
        // The hotspot is Process 0's first segment.
        let (p, i, v) = m.argmax().unwrap();
        assert_eq!((p, i, v), (ProcessId(0), 0, DurationTicks(5)));
    }

    #[test]
    fn totals_and_maxima() {
        let m = fig3_matrix();
        assert_eq!(
            m.process_totals(),
            vec![DurationTicks(9), DurationTicks(7), DurationTicks(5)]
        );
        assert_eq!(
            m.process_maxima(),
            vec![DurationTicks(5), DurationTicks(3), DurationTicks(2)]
        );
    }

    #[test]
    fn ordinal_series() {
        let m = fig3_matrix();
        assert_eq!(m.duration_by_ordinal(), vec![6.0, 3.0, 3.0]);
        let sos = m.sos_by_ordinal();
        assert!((sos[0] - 3.0).abs() < 1e-12);
        assert!((sos[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stats_summary() {
        let m = fig3_matrix();
        let s = m.sos_stats();
        assert_eq!(s.count, 9);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 5);
        assert_eq!(s.median, 2);
        let d = m.duration_stats();
        assert_eq!(d.max, 6);
        assert_eq!(d.min, 3);
    }

    #[test]
    fn tick_stats_edge_cases() {
        let empty = TickStats::from_values([]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.cv(), 0.0);
        let single = TickStats::from_values([7]);
        assert_eq!(single.mean, 7.0);
        assert_eq!(single.stddev, 0.0);
        assert_eq!(single.median, 7);
        let even = TickStats::from_values([1, 3, 5, 7]);
        assert_eq!(even.median, 3);
        assert_eq!(even.mean, 4.0);
    }

    #[test]
    fn empty_matrix() {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("f", FunctionRole::Compute);
        b.define_process("p0");
        let trace = b.finish().unwrap();
        let seg = Segmentation::new(&trace, &replay_all(&trace), f);
        let m = SosMatrix::from_segmentation(&seg);
        assert_eq!(m.argmax(), None);
        assert_eq!(m.sos_stats().count, 0);
        assert!(m.duration_by_ordinal().is_empty());
    }
}
