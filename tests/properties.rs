//! Property-based tests of the core invariants, spanning all crates.

use perfvar::analysis::invocation::{replay_all, replay_process};
use perfvar::analysis::parallel::replay_all_parallel;
use perfvar::analysis::profile::ProfileTable;
use perfvar::analysis::segment::Segmentation;
use perfvar::analysis::sos::SosMatrix;
use perfvar::analysis::DominantRanking;
use perfvar::prelude::*;
use perfvar::trace::format::{pvt, text};
use perfvar::trace::validate::is_well_formed;
use perfvar::trace::{DurationTicks, ProcessId, Trace};
use proptest::prelude::*;

// ───────────────── arbitrary well-formed traces ─────────────────

/// One atomic trace-building action, interpreted against a call stack.
#[derive(Clone, Debug)]
enum Action {
    Enter(u8),
    Leave,
    Advance(u16),
    Send { to: u8, tag: u8, bytes: u32 },
    Metric { metric: u8, value: u64 },
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => (0u8..6).prop_map(Action::Enter),
        3 => Just(Action::Leave),
        3 => (0u16..1000).prop_map(Action::Advance),
        1 => (0u8..4, 0u8..4, 0u32..10_000).prop_map(|(to, tag, bytes)| Action::Send {
            to,
            tag,
            bytes
        }),
        1 => (0u8..3, 0u64..1_000_000).prop_map(|(metric, value)| Action::Metric {
            metric,
            value
        }),
    ]
}

/// Builds a well-formed trace out of arbitrary action sequences: the
/// interpreter ignores impossible leaves and closes open frames at the
/// end, so every generated trace is valid by construction.
fn trace_strategy() -> impl Strategy<Value = Trace> {
    let roles = [
        FunctionRole::Compute,
        FunctionRole::MpiCollective,
        FunctionRole::MpiPointToPoint,
        FunctionRole::MpiWait,
        FunctionRole::FileIo,
        FunctionRole::Compute,
    ];
    proptest::collection::vec(proptest::collection::vec(action_strategy(), 0..60), 1..5).prop_map(
        move |procs| {
            let mut b = TraceBuilder::new(Clock::microseconds()).with_name("prop");
            let funcs: Vec<_> = roles
                .iter()
                .enumerate()
                .map(|(i, role)| b.define_function(format!("f{i}"), *role))
                .collect();
            // One channel of each mode so counter-attribution paths are
            // exercised across all batch semantics.
            for mode in [
                MetricMode::Accumulating,
                MetricMode::Delta,
                MetricMode::Gauge,
            ] {
                b.define_metric(format!("m{}", b.registry().num_metrics()), mode, "#");
            }
            let pids: Vec<_> = (0..procs.len())
                .map(|i| b.define_process(format!("rank {i}")))
                .collect();
            let num_procs = procs.len();
            for (pi, actions) in procs.iter().enumerate() {
                let w = b.process_mut(pids[pi]);
                let mut t = 0u64;
                let mut depth = 0usize;
                let mut stack: Vec<FunctionId> = Vec::new();
                for a in actions {
                    match a {
                        Action::Enter(f) => {
                            let f = funcs[*f as usize % funcs.len()];
                            w.enter(Timestamp(t), f).unwrap();
                            stack.push(f);
                            depth += 1;
                        }
                        Action::Leave => {
                            if let Some(f) = stack.pop() {
                                w.leave(Timestamp(t), f).unwrap();
                                depth -= 1;
                            }
                        }
                        Action::Advance(dt) => t += *dt as u64,
                        Action::Send { to, tag, bytes } => {
                            let to = ProcessId::from_index(*to as usize % num_procs);
                            w.send(Timestamp(t), to, *tag as u32, *bytes as u64)
                                .unwrap();
                        }
                        Action::Metric { metric, value } => {
                            let m = perfvar::trace::MetricId(*metric as u32 % 3);
                            w.metric(Timestamp(t), m, *value).unwrap();
                        }
                    }
                }
                while let Some(f) = stack.pop() {
                    w.leave(Timestamp(t), f).unwrap();
                }
                let _ = depth;
            }
            b.finish().unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ── format round-trips are the identity ──

    #[test]
    fn pvt_round_trip_identity(trace in trace_strategy()) {
        let bytes = pvt::to_bytes(&trace).unwrap();
        let back = pvt::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, trace);
    }

    #[test]
    fn pvtx_round_trip_identity(trace in trace_strategy()) {
        let mut buf = Vec::new();
        text::write(&trace, &mut buf).unwrap();
        let back = text::read(&mut std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(back, trace);
    }

    // ── replay invariants (Fig. 1 semantics) ──

    #[test]
    fn replay_invariants(trace in trace_strategy()) {
        prop_assert!(is_well_formed(&trace));
        for pid in trace.registry().process_ids() {
            let inv = replay_process(&trace, pid);
            let mut roots_span = DurationTicks::ZERO;
            for i in inv.invocations() {
                // inclusive ≥ exclusive, inclusive ≥ children, sync ≤ inclusive.
                prop_assert!(i.inclusive() >= i.exclusive());
                prop_assert!(i.inclusive() >= i.children_inclusive);
                prop_assert!(i.sync_within <= i.inclusive());
                if i.depth == 0 {
                    roots_span += i.inclusive();
                }
            }
            // Σ exclusive over a process equals Σ inclusive of its roots.
            let total_exclusive: DurationTicks =
                inv.invocations().iter().map(|i| i.exclusive()).sum();
            prop_assert_eq!(total_exclusive, roots_span);
        }
    }

    #[test]
    fn parallel_replay_equals_sequential(trace in trace_strategy()) {
        let seq = replay_all(&trace);
        for threads in [2usize, 4] {
            prop_assert_eq!(&replay_all_parallel(&trace, threads), &seq);
        }
    }

    // ── dominant-function rule ──

    #[test]
    fn dominant_function_satisfies_2p_rule(trace in trace_strategy()) {
        let replayed = replay_all(&trace);
        let profiles = ProfileTable::from_invocations(&trace, &replayed);
        let ranking = DominantRanking::new(&trace, &profiles);
        let p = trace.num_processes() as u64;
        for f in ranking.candidates() {
            prop_assert!(profiles.get(f).count >= 2 * p);
        }
        if let Some(dominant) = ranking.dominant() {
            // No other candidate has strictly higher aggregated inclusive.
            for f in ranking.candidates() {
                prop_assert!(
                    profiles.get(f).inclusive <= profiles.get(dominant).inclusive
                );
            }
        }
    }

    // ── fused streaming pipeline ≡ materialising reference ──

    #[test]
    fn fused_analysis_equals_reference(
        trace in trace_strategy(),
        threads in 0usize..5,
        segment_override in 0u8..8,
    ) {
        // Half the cases pin the segmentation function (covering traces
        // with no dominant function); the rest use automatic selection.
        let segment_function = (segment_override < 4)
            .then(|| format!("f{}", segment_override % 6));
        let cfg = AnalysisConfig {
            threads,
            segment_function,
            ..AnalysisConfig::default()
        };
        // The fused single-pass pipeline must agree bit-for-bit with the
        // materialising reference — including in the error cases.
        prop_assert_eq!(analyze(&trace, &cfg), analyze_reference(&trace, &cfg));
    }

    // ── segmentation / SOS invariants ──

    #[test]
    fn sos_is_at_most_duration(trace in trace_strategy()) {
        let replayed = replay_all(&trace);
        for f in trace.registry().function_ids() {
            let seg = Segmentation::new(&trace, &replayed, f);
            let matrix = SosMatrix::from_segmentation(&seg);
            for (pid, i, sos) in matrix.iter_sos() {
                let duration = matrix.duration(pid, i).unwrap();
                prop_assert!(sos <= duration);
                // Purely synchronizing functions have SOS = 0.
                if trace.registry().function_role(f).is_synchronization() {
                    prop_assert_eq!(sos, DurationTicks::ZERO);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ── slicing invariants ──

    #[test]
    fn slicing_any_window_stays_wellformed(
        trace in trace_strategy(),
        a in 0u64..30_000,
        len in 0u64..30_000,
    ) {
        let begin = Timestamp(a);
        let end = Timestamp(a + len);
        let sliced = perfvar::trace::slice::slice(&trace, begin, end).unwrap();
        prop_assert!(is_well_formed(&sliced));
        // Every surviving event is inside the window.
        for stream in sliced.streams() {
            for r in stream.records() {
                prop_assert!(r.time >= begin && r.time <= end);
            }
        }
        // Slicing the full span preserves the event count.
        let full = perfvar::trace::slice::slice(&trace, trace.begin(), trace.end()).unwrap();
        prop_assert_eq!(full.num_events(), trace.num_events());
    }

    // ── streaming reader ≡ full reader ──

    #[test]
    fn streaming_reader_equals_full_read(trace in trace_strategy()) {
        let bytes = pvt::to_bytes(&trace).unwrap();
        let (_, _, registry, mut rank) = pvt::open(bytes.as_slice()).unwrap();
        prop_assert_eq!(&registry, trace.registry());
        let mut chunk = Vec::new();
        for stream in trace.streams() {
            let mut cursor = rank.expect("one cursor per rank");
            prop_assert_eq!(cursor.process(), stream.process);
            let mut streamed = Vec::new();
            while cursor.next_chunk(&mut chunk, 7).unwrap() > 0 {
                streamed.extend_from_slice(&chunk);
            }
            prop_assert_eq!(&streamed[..], stream.records());
            rank = cursor.next_rank();
        }
        prop_assert!(rank.is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ── message matching invariants ──

    #[test]
    fn message_matching_conserves_endpoints(trace in trace_strategy()) {
        use perfvar::analysis::messages::MessageAnalysis;
        let a = MessageAnalysis::match_trace(&trace);
        let total_sends: usize = trace
            .streams()
            .iter()
            .flat_map(|s| s.records())
            .filter(|r| matches!(r.event, perfvar::trace::Event::MsgSend { .. }))
            .count();
        let total_recvs: usize = trace
            .streams()
            .iter()
            .flat_map(|s| s.records())
            .filter(|r| matches!(r.event, perfvar::trace::Event::MsgRecv { .. }))
            .count();
        prop_assert_eq!(a.len() + a.unmatched_sends, total_sends);
        prop_assert_eq!(a.len() + a.unmatched_recvs, total_recvs);
        // The comm matrix totals agree with the matched count.
        let comm = a.comm_matrix(trace.num_processes());
        let matrix_total: u64 = comm.cells().iter().map(|c| c.count).sum();
        prop_assert_eq!(matrix_total as usize, a.len());
    }

    // ── wait states are bounded by synchronization time ──

    #[test]
    fn wait_states_bounded_by_sync_time(trace in trace_strategy()) {
        use perfvar::analysis::waitstates::WaitStateAnalysis;
        let replayed = replay_all(&trace);
        let ws = WaitStateAnalysis::compute(&trace, &replayed);
        for (pi, proc_inv) in replayed.iter().enumerate() {
            // Collective wait on a process cannot exceed its total time
            // inside collective-role invocations.
            let collective_total: u64 = proc_inv
                .invocations()
                .iter()
                .filter(|inv| {
                    trace.registry().function_role(inv.function)
                        == FunctionRole::MpiCollective
                })
                .map(|inv| inv.inclusive().0)
                .sum();
            let w = ws.process(ProcessId::from_index(pi));
            prop_assert!(w.wait_at_collective.0 <= collective_total);
        }
    }

    // ── archive round-trip identity ──

    #[test]
    fn archive_round_trip_identity(trace in trace_strategy(), threads in 1usize..5) {
        use perfvar::trace::format::archive;
        let dir = std::env::temp_dir()
            .join("perfvar-prop-archive")
            .join(format!("t{}", std::process::id()));
        archive::write_archive(&trace, &dir).unwrap();
        let back = archive::read_archive(&dir, threads).unwrap();
        prop_assert_eq!(back, trace);
    }

    // ── out-of-core analyze_path ≡ in-memory analyze ──

    #[test]
    fn out_of_core_analysis_equals_in_memory(
        trace in trace_strategy(),
        threads in 0usize..5,
        segment_override in 0u8..8,
    ) {
        use perfvar::analysis::{analyze_path_with, RecoveryMode};
        use perfvar::trace::format::write_trace_file;
        // Same configuration split as `fused_analysis_equals_reference`:
        // half the cases pin the segmentation function, the rest rely on
        // dominant selection (including its error path). The trace
        // strategy defines one metric channel of every mode, so counter
        // attribution is compared across all batch semantics too.
        let segment_function = (segment_override < 4)
            .then(|| format!("f{}", segment_override % 6));
        let cfg = AnalysisConfig {
            threads,
            segment_function,
            ..AnalysisConfig::default()
        };
        let dir = std::env::temp_dir()
            .join("perfvar-prop-ooc")
            .join(format!("t{}.pvta", std::process::id()));
        write_trace_file(&trace, &dir).unwrap();
        match (analyze(&trace, &cfg), analyze_path_with(&dir, &cfg, RecoveryMode::Strict)) {
            (Ok(mem), Ok(ooc)) => {
                // Bit-identical analysis, and the metadata the cursor
                // reconstructs matches the materialised trace.
                prop_assert_eq!(&ooc.analysis, &mem);
                prop_assert!(!ooc.is_partial());
                prop_assert_eq!(&ooc.meta, &perfvar::trace::TraceMeta::of(&trace));
            }
            (Err(mem), Err(ooc)) => prop_assert_eq!(mem.to_string(), ooc.to_string()),
            (mem, ooc) => prop_assert!(
                false,
                "routes disagree: in-memory {:?} vs out-of-core {:?}",
                mem.map(|_| ()),
                ooc.map(|_| ())
            ),
        }
    }

    // ── mmap path ≡ buffered path ≡ in-memory, success and failure ──

    #[test]
    fn read_paths_are_bit_identical_and_fail_identically(
        trace in trace_strategy(),
        threads in 0usize..5,
        read_buffer in 1usize..384,
        cut in 0usize..48,
    ) {
        use perfvar::analysis::{analyze_path_with, RecoveryMode};
        use perfvar::trace::format::{archive, write_trace_file};
        let dir = std::env::temp_dir()
            .join("perfvar-prop-readpaths")
            .join(format!("t{}.pvta", std::process::id()));
        write_trace_file(&trace, &dir).unwrap();
        // `cut > 0` truncates the last stream file by that many bytes —
        // the decoders must then fail with the *same* typed error (same
        // rank, same byte offset) regardless of how the bytes were read.
        let mut truncated = false;
        if cut > 0 && trace.num_processes() > 0 {
            let stream = dir.join(archive::stream_file(trace.num_processes() - 1));
            let bytes = std::fs::read(&stream).unwrap();
            if bytes.len() > cut + 8 {
                std::fs::write(&stream, &bytes[..bytes.len() - cut]).unwrap();
                truncated = true;
            }
        }
        // A 1-byte buffer request keeps the mmap size threshold (files no
        // larger than the buffer window stay buffered) from hiding the
        // mapped path on these small generated archives.
        let mapped_cfg = AnalysisConfig {
            threads,
            read_buffer_bytes: 1,
            ..AnalysisConfig::default()
        };
        let buffered_cfg = AnalysisConfig {
            threads,
            mmap: false,
            read_buffer_bytes: read_buffer,
            ..AnalysisConfig::default()
        };
        let mapped = analyze_path_with(&dir, &mapped_cfg, RecoveryMode::Strict);
        let buffered = analyze_path_with(&dir, &buffered_cfg, RecoveryMode::Strict);
        match (mapped, buffered) {
            (Ok(m), Ok(b)) => {
                prop_assert_eq!(&m.analysis, &b.analysis);
                prop_assert_eq!(&m.meta, &b.meta);
                prop_assert_eq!(m.passes, b.passes);
                if !truncated {
                    // The intact archive must also match the in-memory
                    // pipeline bit for bit (per-mode counter batches,
                    // every thread count, both I/O strategies).
                    let mem = analyze(&trace, &mapped_cfg);
                    prop_assert!(mem.is_ok());
                    prop_assert_eq!(&m.analysis, &mem.unwrap());
                }
            }
            // Typed errors — CorruptStream rank and byte offset included
            // — must not depend on the read path.
            (Err(m), Err(b)) => prop_assert_eq!(m.to_string(), b.to_string()),
            (m, b) => prop_assert!(
                false,
                "read paths disagree: mmap {:?} vs buffered {:?}",
                m.map(|_| ()),
                b.map(|_| ())
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // ── detector robustness under OS noise ──

    #[test]
    fn outlier_survives_background_noise(
        seed in 0u64..500,
        probability in 0.0f64..0.08,
    ) {
        use perfvar::sim::noise::{inject_noise, NoiseConfig};
        let w = workloads::SingleOutlier::new(6, 10, 3);
        let spec = inject_noise(
            &w.spec(),
            NoiseConfig {
                probability,
                min_stall: 20,
                max_stall: 300, // ≪ the 30 000-tick outlier excess
                seed,
            },
        );
        let trace = simulate(&spec).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let hot = analysis.imbalance.hottest_segment().unwrap();
        prop_assert_eq!(hot.process.index(), 3);
        prop_assert_eq!(hot.ordinal, w.outlier_iteration);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ── parser hardening: arbitrary text never panics the PVTX reader ──

    #[test]
    fn pvtx_parser_never_panics_on_garbage(input in "\\PC{0,400}") {
        let _ = text::read(&mut std::io::Cursor::new(input.as_bytes()));
    }

    #[test]
    fn pvtx_parser_never_panics_on_headerlike_garbage(
        body in proptest::collection::vec("\\PC{0,60}", 0..12),
    ) {
        let input = format!("PVTX 1\nCLOCK 1000\n{}\nEND\n", body.join("\n"));
        let _ = text::read(&mut std::io::Cursor::new(input.as_bytes()));
    }

    // ── PVT decoder hardening: mutated bytes never panic ──

    #[test]
    fn pvt_decoder_never_panics_on_mutation(
        flips in proptest::collection::vec((0usize..4096, 0u8..255), 1..6),
    ) {
        let trace = simulate(&workloads::BalancedStencil::new(2, 4).spec()).unwrap();
        let mut bytes = pvt::to_bytes(&trace).unwrap();
        for (pos, x) in flips {
            let n = bytes.len();
            bytes[pos % n] ^= x;
        }
        let _ = pvt::from_bytes(&bytes); // may error, must not panic
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // ── engine stress: random all-to-some exchanges never deadlock ──
    // Every rank posts non-blocking receives for all messages addressed
    // to it before sending, so any random traffic pattern must complete.

    #[test]
    fn random_nonblocking_traffic_completes(
        ranks in 2usize..7,
        edges in proptest::collection::vec((0usize..7, 0usize..7, 1u64..2_000), 1..20),
        seed_work in 1u64..5_000,
    ) {
        use perfvar::sim::{simulate, CommParams, Program, SpecBuilder};
        let mut b = SpecBuilder::new(
            "random-traffic",
            Clock::microseconds(),
            CommParams::cluster_defaults(),
        );
        let send_f = b.function("MPI_Send", FunctionRole::MpiPointToPoint);
        let irecv_f = b.function("MPI_Irecv", FunctionRole::MpiPointToPoint);
        let wait_f = b.function("MPI_Waitall", FunctionRole::MpiWait);
        let calc_f = b.function("calc", FunctionRole::Compute);
        // Normalise edges into the rank range; tag = edge index keeps
        // every channel unambiguous.
        let edges: Vec<(usize, usize, u64)> = edges
            .into_iter()
            .map(|(a, bb, bytes)| (a % ranks, bb % ranks, bytes))
            .filter(|(a, bb, _)| a != bb)
            .collect();
        for rank in 0..ranks {
            let mut p = Program::new();
            // Post receives for every inbound edge first.
            for (i, (from, to, bytes)) in edges.iter().enumerate() {
                if *to == rank {
                    p.irecv(irecv_f, *from as u32, i as u32, *bytes);
                }
            }
            p.region_compute(calc_f, seed_work + rank as u64 * 7);
            for (i, (from, to, bytes)) in edges.iter().enumerate() {
                if *from == rank {
                    p.send(send_f, *to as u32, i as u32, *bytes);
                }
            }
            if edges.iter().any(|(_, to, _)| *to == rank) {
                p.wait_all(wait_f);
            }
            b.add_rank(p);
        }
        let trace = simulate(&b.build()).unwrap();
        prop_assert!(is_well_formed(&trace));
        // Every edge appears as one matched message.
        let matched =
            perfvar::analysis::messages::MessageAnalysis::match_trace(&trace);
        prop_assert_eq!(matched.len(), edges.len());
        prop_assert_eq!(matched.unmatched_sends, 0);
        prop_assert_eq!(matched.unmatched_recvs, 0);
    }
}

// ── simulator invariants on arbitrary parameters ──

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simulator_produces_wellformed_synchronised_traces(
        ranks in 1usize..8,
        iterations in 1usize..8,
        work in 10u64..5_000,
        seed in 0u64..1_000,
    ) {
        let w = workloads::BalancedStencil { ranks, iterations, work, jitter: 0.1, seed };
        let trace = simulate(&w.spec()).unwrap();
        prop_assert!(is_well_formed(&trace));
        prop_assert_eq!(trace.num_processes(), ranks);
        // Barrier semantics: every rank ends each iteration at the same
        // time, so all final timestamps agree.
        let finals: Vec<_> = (0..ranks)
            .map(|r| trace.stream(ProcessId::from_index(r)).last_time().unwrap())
            .collect();
        for f in &finals {
            prop_assert_eq!(*f, finals[0]);
        }
    }

    #[test]
    fn injected_outlier_is_always_detected(
        ranks in 3usize..10,
        iterations in 4usize..12,
        outlier_rank_seed in 0usize..100,
        factor in 3.0f64..8.0,
    ) {
        let outlier_rank = outlier_rank_seed % ranks;
        let w = workloads::SingleOutlier {
            factor,
            ..workloads::SingleOutlier::new(ranks, iterations, outlier_rank)
        };
        let trace = simulate(&w.spec()).unwrap();
        let analysis = analyze(&trace, &AnalysisConfig::default()).unwrap();
        let hot = analysis.imbalance.hottest_segment();
        prop_assert!(hot.is_some(), "outlier with factor {} missed", factor);
        let hot = hot.unwrap();
        prop_assert_eq!(hot.process.index(), outlier_rank);
        prop_assert_eq!(hot.ordinal, w.outlier_iteration);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // ── AnalysisPart algebra: any partition, any merge order ──

    #[test]
    fn analysis_parts_any_partition_any_order_equal_analyze_path(
        trace in trace_strategy(),
        seed in 0u64..u64::MAX,
        segment_override in 0u8..8,
    ) {
        use perfvar::analysis::part::{archive_part, AnalysisPart, PartOutcome};
        use perfvar::analysis::{analyze_path_with, RecoveryMode};
        use perfvar::trace::format::cursor::ArchiveCursor;
        use perfvar::trace::format::write_trace_file;

        // Same configuration split as the out-of-core test: half the
        // cases pin the segmentation function (an override can never
        // mispredict), the rest exercise speculation — including the
        // mispredict → retarget coordinator protocol below. The trace
        // strategy defines one metric channel of every mode, so counter
        // merging is covered across all batch semantics.
        let segment_function = (segment_override < 4)
            .then(|| format!("f{}", segment_override % 6));
        let cfg = AnalysisConfig {
            threads: 1,
            segment_function,
            ..AnalysisConfig::default()
        };
        let dir = std::env::temp_dir()
            .join("perfvar-prop-parts")
            .join(format!("t{}.pvta", std::process::id()));
        write_trace_file(&trace, &dir).unwrap();
        let reference = analyze_path_with(&dir, &cfg, RecoveryMode::Strict);

        // Seed-derived partition of the ranks into arbitrary — not
        // necessarily contiguous — groups, merged in a seed-derived
        // order. Empty groups are legal and act as merge identities.
        let np = trace.num_processes();
        let num_groups = 1 + (seed as usize) % np;
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); num_groups];
        for rank in 0..np {
            groups[(seed >> (rank % 32)) as usize % num_groups].push(rank);
        }
        let mut order: Vec<usize> = (0..num_groups).collect();
        let mut s = seed;
        for i in (1..num_groups).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }

        let shard = |config: &AnalysisConfig, ranks: &[usize]| {
            archive_part(&dir, config, RecoveryMode::Strict, ranks.iter().copied())
        };
        let mut parts = Vec::with_capacity(num_groups);
        for group in &groups {
            match shard(&cfg, group) {
                Ok(part) => parts.push(Some(part)),
                Err(e) => {
                    // Shard workers can only fail where the fused driver
                    // would too (I/O, decode); the routes must agree.
                    let r = reference.expect_err("shard failed but analyze_path succeeded");
                    prop_assert_eq!(e.to_string(), r.to_string());
                    return Ok(());
                }
            }
        }

        // Telemetry counters are a commutative monoid: the merged total
        // must equal the single whole-range part's, whatever the split.
        let whole = shard(&cfg, &(0..np).collect::<Vec<_>>()).unwrap();
        let mut merged = AnalysisPart::empty();
        for &g in &order {
            merged = merged.merge(parts[g].take().unwrap());
        }
        prop_assert_eq!(merged.num_ranks(), np);
        prop_assert_eq!(merged.counters(), whole.counters());

        let cursor = ArchiveCursor::open(&dir).unwrap();
        let outcome = merged.finalize(cursor.name(), cursor.clock(), cursor.registry(), &cfg);
        match (outcome, reference) {
            (Ok(PartOutcome::Done(sharded)), Ok(reference)) => {
                prop_assert_eq!(&sharded.analysis, &reference.analysis);
                prop_assert_eq!(&sharded.meta, &reference.meta);
            }
            (Ok(PartOutcome::Mispredicted { expected, .. }), Ok(reference)) => {
                // The guess is deterministic, so the fused driver must
                // have mispredicted (and re-passed) too. Re-dispatch the
                // shards with the true function pinned, as a coordinator
                // does after a mispredicted finalize.
                prop_assert_eq!(reference.passes, 2);
                let pinned = AnalysisConfig {
                    segment_function: Some(
                        cursor.registry().function_name(expected).to_string(),
                    ),
                    ..cfg.clone()
                };
                let mut merged = AnalysisPart::empty();
                for group in &groups {
                    merged = merged.merge(shard(&pinned, group).unwrap());
                }
                let outcome = merged
                    .finalize(cursor.name(), cursor.clock(), cursor.registry(), &pinned)
                    .unwrap();
                let PartOutcome::Done(sharded) = outcome else {
                    return Err("a pinned override cannot mispredict".to_string());
                };
                prop_assert_eq!(&sharded.analysis, &reference.analysis);
                prop_assert_eq!(&sharded.meta, &reference.meta);
            }
            (Err(e), Err(r)) => prop_assert_eq!(e.to_string(), r.to_string()),
            (o, r) => prop_assert!(
                false,
                "parts route and analyze_path disagree: {:?} vs {:?}",
                o.map(|_| ()),
                r.map(|_| ())
            ),
        }
    }
}
