//! Per-function aggregated profiles (counts, inclusive/exclusive totals).
//!
//! The dominant-function heuristic (§IV) works on two aggregates per
//! function: the total invocation count across all processes and the
//! aggregated inclusive time. This module computes them (plus exclusive
//! totals and per-process counts, which the report and visualizer use)
//! from replayed invocations.
//!
//! Note on recursion: as in the paper's measurement systems, aggregated
//! inclusive time counts every invocation's full inclusive span, so
//! directly recursive functions accumulate overlapping time. Iterative
//! HPC codes — the paper's target — rarely recurse; the dominant-function
//! ranking is unaffected as long as recursion does not dominate the run.

use crate::invocation::ProcessInvocations;
use crate::parallel::par_map_processes;
use crate::stream::{replay_visit, ClosedFrame, ReplayVisitor};
use perfvar_trace::{DurationTicks, FunctionId, Trace};
use serde::{Deserialize, Serialize};

/// Aggregates for one function.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionProfile {
    /// Total invocation count across all processes.
    pub count: u64,
    /// Aggregated inclusive time across all invocations.
    pub inclusive: DurationTicks,
    /// Aggregated exclusive time across all invocations.
    pub exclusive: DurationTicks,
    /// Number of distinct processes that invoked the function.
    pub processes: u32,
    /// Maximum invocation count on any single process.
    pub max_count_per_process: u64,
}

/// Per-process partial aggregates, one row per function. Produced by
/// [`ProfileSink`], merged by [`ProfileTable::from_rows`].
#[derive(Clone, Debug, Default)]
pub(crate) struct ProfileRow {
    pub(crate) count: u64,
    pub(crate) inclusive: u64,
    pub(crate) exclusive: u64,
}

/// Streaming visitor accumulating one process's profile rows. Shared by
/// [`ProfileTable::stream`] and the analysis driver behind
/// [`crate::report::analyze`] and [`crate::outofcore`], which drives it
/// from memory or a disk cursor.
pub(crate) struct ProfileSink {
    pub(crate) rows: Vec<ProfileRow>,
}

impl ProfileSink {
    pub(crate) fn new(num_functions: usize) -> ProfileSink {
        ProfileSink {
            rows: vec![ProfileRow::default(); num_functions],
        }
    }
}

impl ReplayVisitor for ProfileSink {
    #[inline(always)]
    fn on_frame(&mut self, frame: &ClosedFrame) {
        let row = &mut self.rows[frame.function.index()];
        row.count += 1;
        row.inclusive += frame.inclusive().0;
        row.exclusive += frame.exclusive().0;
    }
}

/// Profiles for every defined function, indexed by [`FunctionId`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfileTable {
    profiles: Vec<FunctionProfile>,
}

impl ProfileTable {
    /// Builds the table from replayed invocations.
    ///
    /// `replayed` must cover the same trace the registry describes (one
    /// entry per process, as produced by
    /// [`replay_all`](crate::invocation::replay_all)).
    pub fn from_invocations(trace: &Trace, replayed: &[ProcessInvocations]) -> ProfileTable {
        let nf = trace.registry().num_functions();
        let mut profiles = vec![FunctionProfile::default(); nf];
        let mut per_process_count = vec![0u64; nf];
        for proc_inv in replayed {
            per_process_count.iter_mut().for_each(|c| *c = 0);
            for inv in proc_inv.invocations() {
                let f = inv.function.index();
                let p = &mut profiles[f];
                p.count += 1;
                p.inclusive += inv.inclusive();
                p.exclusive += inv.exclusive();
                per_process_count[f] += 1;
            }
            for (f, &c) in per_process_count.iter().enumerate() {
                if c > 0 {
                    profiles[f].processes += 1;
                    profiles[f].max_count_per_process = profiles[f].max_count_per_process.max(c);
                }
            }
        }
        ProfileTable { profiles }
    }

    /// Builds the table in one streaming pass per process, without
    /// materialising invocations, on up to `num_threads` workers
    /// (0 = hardware parallelism).
    ///
    /// Produces exactly the same table as
    /// [`from_invocations`](ProfileTable::from_invocations) over
    /// [`replay_all`](crate::invocation::replay_all) — per-function sums
    /// are merged per process, in process order — but each worker only
    /// holds `O(functions + stack depth)` state.
    pub fn stream(trace: &Trace, num_threads: usize) -> ProfileTable {
        let nf = trace.registry().num_functions();
        let partials = par_map_processes(trace, num_threads, |pid| {
            let mut sink = ProfileSink::new(nf);
            replay_visit(trace, pid, &mut sink);
            sink.rows
        });
        ProfileTable::from_rows(nf, partials)
    }

    /// Merges per-process [`ProfileRow`] partials (in process order) into
    /// the final table. The merge is identical for in-memory and
    /// out-of-core producers, which is what keeps the two bit-equal.
    pub(crate) fn from_rows(
        num_functions: usize,
        partials: impl IntoIterator<Item = impl AsRef<[ProfileRow]>>,
    ) -> ProfileTable {
        let mut profiles = vec![FunctionProfile::default(); num_functions];
        for rows in partials {
            for (f, row) in rows.as_ref().iter().enumerate() {
                let p = &mut profiles[f];
                p.count += row.count;
                p.inclusive += DurationTicks(row.inclusive);
                p.exclusive += DurationTicks(row.exclusive);
                if row.count > 0 {
                    p.processes += 1;
                    p.max_count_per_process = p.max_count_per_process.max(row.count);
                }
            }
        }
        ProfileTable { profiles }
    }

    /// The profile of one function.
    #[inline]
    pub fn get(&self, function: FunctionId) -> &FunctionProfile {
        &self.profiles[function.index()]
    }

    /// Iterates `(function, profile)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (FunctionId, &FunctionProfile)> {
        self.profiles
            .iter()
            .enumerate()
            .map(|(i, p)| (FunctionId::from_index(i), p))
    }

    /// Number of profiled functions (defined functions, including those
    /// never invoked).
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the registry defines no functions.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Functions sorted by aggregated inclusive time, descending
    /// (ties broken by id for determinism). Functions never invoked are
    /// omitted.
    pub fn by_inclusive_desc(&self) -> Vec<FunctionId> {
        let mut ids: Vec<FunctionId> = self
            .iter()
            .filter(|(_, p)| p.count > 0)
            .map(|(f, _)| f)
            .collect();
        ids.sort_by_key(|f| (std::cmp::Reverse(self.get(*f).inclusive), f.0));
        ids
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::invocation::replay_all;
    use perfvar_trace::{Clock, FunctionRole, Timestamp, TraceBuilder};

    /// Builds the paper's Fig. 2 example: three processes, functions
    /// main, i, a, b, c. On each process: main [0..18] contains i [0..1],
    /// then three invocations of a (durations 4, 4, 4), with each a
    /// containing b and c calls.
    ///
    /// Timing per process (identical across the three processes):
    /// main: 0–18 (inclusive 18)
    /// i: 0–1
    /// a: 1–5, 7–11, 13–17  (sum 12)
    /// b inside each a: 1 tick; c inside each a: 1 tick
    /// b between a's: 5–7, 11–13 … matches the figure's alternation.
    pub(crate) fn fig2_trace() -> Trace {
        let mut bld = TraceBuilder::new(Clock::microseconds());
        let main_f = bld.define_function("main", FunctionRole::Compute);
        let i_f = bld.define_function("i", FunctionRole::Compute);
        let a_f = bld.define_function("a", FunctionRole::Compute);
        let b_f = bld.define_function("b", FunctionRole::Compute);
        let c_f = bld.define_function("c", FunctionRole::Compute);
        for pi in 0..3 {
            let p = bld.define_process(format!("rank {pi}"));
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
    fn fig2_aggregates() {
        let trace = fig2_trace();
        let table = ProfileTable::from_invocations(&trace, &replay_all(&trace));
        let reg = trace.registry();
        let main_f = reg.function_by_name("main").unwrap();
        let a_f = reg.function_by_name("a").unwrap();
        // main: 3 invocations (one per process), 54 ticks aggregated —
        // exactly the paper's numbers.
        assert_eq!(table.get(main_f).count, 3);
        assert_eq!(table.get(main_f).inclusive, DurationTicks(54));
        // a: 9 invocations, 36 ticks aggregated.
        assert_eq!(table.get(a_f).count, 9);
        assert_eq!(table.get(a_f).inclusive, DurationTicks(36));
        assert_eq!(table.get(a_f).processes, 3);
        assert_eq!(table.get(a_f).max_count_per_process, 3);
    }

    #[test]
    fn inclusive_ordering() {
        let trace = fig2_trace();
        let table = ProfileTable::from_invocations(&trace, &replay_all(&trace));
        let reg = trace.registry();
        let order = table.by_inclusive_desc();
        assert_eq!(order[0], reg.function_by_name("main").unwrap());
        assert_eq!(order[1], reg.function_by_name("a").unwrap());
        // Every defined function was invoked in this trace.
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn exclusive_sums_to_root_span() {
        // Per process, the sum of exclusive times equals the root span.
        let trace = fig2_trace();
        let replayed = replay_all(&trace);
        for proc_inv in &replayed {
            let total_exclusive: DurationTicks = proc_inv
                .invocations()
                .iter()
                .map(|inv| inv.exclusive())
                .sum();
            assert_eq!(total_exclusive, DurationTicks(18));
        }
    }

    #[test]
    fn streaming_table_equals_materialised_table() {
        let trace = fig2_trace();
        let reference = ProfileTable::from_invocations(&trace, &replay_all(&trace));
        for threads in [1usize, 2, 8] {
            assert_eq!(ProfileTable::stream(&trace, threads), reference);
        }
    }

    #[test]
    fn never_invoked_functions_have_zero_profiles() {
        let mut bld = TraceBuilder::new(Clock::microseconds());
        let _unused = bld.define_function("unused", FunctionRole::Compute);
        bld.define_process("p0");
        let trace = bld.finish().unwrap();
        let table = ProfileTable::from_invocations(&trace, &replay_all(&trace));
        assert_eq!(table.len(), 1);
        assert_eq!(table.get(FunctionId(0)).count, 0);
        assert!(table.by_inclusive_desc().is_empty());
    }
}
