//! Seeded mutation tests of the trace decoders.
//!
//! A small PVTA archive, a small PVT file and a small PVTX text file are
//! damaged with bit flips, truncations, splices and record-count
//! inflation, and every mutant is read by each decoder that accepts the
//! format: `ArchiveCursor` (mapped and buffered),
//! `archive::read_archive`, `ArchiveTail::poll`, `pvt::read`, the PVT
//! rank cursors of `pvt::open`, and `text::read`. Each must end in `Ok`
//! or a typed `TraceError` without panicking. The incremental and batch
//! readers of one format must agree on what they accept and decode, and
//! the PVT readers must agree with an independent oracle: a
//! record-at-a-time decoder written here, validated by
//! `Trace::from_parts`.

use perfvar_trace::format::archive::{read_archive, stream_file, write_archive};
use perfvar_trace::format::cursor::{ArchiveCursor, CursorOptions};
use perfvar_trace::format::live::{mark_finished, ArchiveTail};
use perfvar_trace::format::varint::{read_string, read_u64, write_u64};
use perfvar_trace::format::{pvt, text};
use perfvar_trace::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::Read;
use std::path::{Path, PathBuf};

/// Mutants per input file.
const CASES: usize = 1_500;

/// Two ranks with every record kind: nested calls, a metric channel and
/// a message each way.
fn sample() -> Trace {
    let mut b = TraceBuilder::new(Clock::microseconds()).with_name("mutations");
    let f = b.define_function("work", FunctionRole::Compute);
    let g = b.define_function("MPI_Recv", FunctionRole::MpiPointToPoint);
    let m = b.define_metric("CYC", MetricMode::Accumulating, "cycles");
    let (p0, p1) = (b.define_process("rank 0"), b.define_process("rank 1"));
    for (p, peer) in [(p0, p1), (p1, p0)] {
        let w = b.process_mut(p);
        let mut t = 3u64;
        for k in 0..12u64 {
            w.enter(Timestamp(t), f).unwrap();
            w.metric(Timestamp(t + 1), m, k * 1_000_003).unwrap();
            w.enter(Timestamp(t + 2), g).unwrap();
            w.send(Timestamp(t + 3), peer, k as u32, 64 << k).unwrap();
            w.recv(Timestamp(t + 4), peer, k as u32, 64 << k).unwrap();
            w.leave(Timestamp(t + 5), g).unwrap();
            t += 40 + k * k * 300;
            w.leave(Timestamp(t), f).unwrap();
        }
    }
    b.finish().unwrap()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("perfvar-trace-mutations");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Reads the varint at `at`, returning its value and length.
fn varint_at(bytes: &[u8], at: usize) -> (u64, usize) {
    let (mut value, mut len) = (0u64, 0);
    while let Some(&b) = bytes.get(at + len) {
        value |= u64::from(b & 0x7f).checked_shl(7 * len as u32).unwrap_or(0);
        len += 1;
        if b & 0x80 == 0 {
            break;
        }
    }
    (value, len)
}

/// One random damage of `clean`. `count_at` is the offset of a record
/// count to inflate.
fn mutate(rng: &mut SmallRng, clean: &[u8], count_at: usize) -> Vec<u8> {
    let mut bytes = clean.to_vec();
    match rng.gen_range(0..4u32) {
        0 => {
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        1 => bytes.truncate(rng.gen_range(0..bytes.len())),
        2 => {
            // Copy a run of the file over or into another place.
            let from = rng.gen_range(0..bytes.len());
            let len = rng.gen_range(1..(bytes.len() - from).min(64) + 1);
            let run = bytes[from..from + len].to_vec();
            let to = rng.gen_range(0..bytes.len());
            if rng.gen_bool(0.5) {
                bytes.splice(to..to, run);
            } else {
                let end = (to + len).min(bytes.len());
                bytes.splice(to..end, run);
            }
        }
        _ => {
            let (count, len) = varint_at(&bytes, count_at);
            let inflated = match rng.gen_range(0..3u32) {
                0 => count + rng.gen_range(1..4u64),
                1 => count + rng.gen_range(1..1u64 << 20),
                _ => u64::MAX - rng.gen_range(0..4u64),
            };
            let mut slot = Vec::new();
            write_u64(&mut slot, inflated).unwrap();
            bytes.splice(count_at..count_at + len, slot);
        }
    }
    bytes
}

/// What one reader made of an input: the decoded streams, or an error.
type Outcome = Result<Vec<Vec<EventRecord>>, TraceError>;

/// `Ok` with the record count per stream, or the error.
fn summary(outcome: &Outcome) -> String {
    match outcome {
        Ok(streams) => format!("Ok({:?})", streams.iter().map(Vec::len).collect::<Vec<_>>()),
        Err(e) => format!("Err({e})"),
    }
}

fn same_acceptance(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => a == b,
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

/// Every stream of an archive through the chunked cursor.
fn cursor_read(dir: &Path, options: CursorOptions) -> (Outcome, Vec<String>) {
    let archive = match ArchiveCursor::open_with(dir, options) {
        Ok(archive) => archive,
        Err(e) => return (Err(e), Vec::new()),
    };
    let (mut streams, mut errors) = (Vec::new(), Vec::new());
    for i in 0..archive.num_processes() {
        let mut cursor = match archive.stream(ProcessId::from_index(i)) {
            Ok(cursor) => cursor,
            Err(e) => {
                errors.push(format!("{e:?}"));
                continue;
            }
        };
        let (mut records, mut chunk) = (Vec::new(), Vec::new());
        loop {
            match cursor.next_chunk(&mut chunk, 7) {
                Ok(0) => break,
                Ok(_) => records.extend(chunk.iter().copied()),
                Err(e) => {
                    errors.push(format!("{e:?}"));
                    break;
                }
            }
        }
        streams.push(records);
    }
    let outcome = match errors.first() {
        None => Ok(streams),
        Some(e) => Err(TraceError::Corrupt(e.clone())),
    };
    (outcome, errors)
}

/// Polls a sealed archive until the tail finishes or fails, collecting
/// the records it hands out; `None` when it does neither in four polls.
fn tail_read(dir: &Path) -> Option<Result<Vec<Vec<EventRecord>>, String>> {
    let mut tail = ArchiveTail::open(dir).ok()?;
    let mut streams = vec![Vec::new(); tail.num_processes()];
    for _ in 0..4 {
        let delta = tail.poll();
        for (pid, records) in delta.records {
            streams[pid.index()].extend(records);
        }
        if let Some(e) = delta.error {
            return Some(Err(format!("{e:?}")));
        }
        if delta.finished {
            return Some(Ok(streams));
        }
    }
    None
}

#[test]
fn mutated_archives_end_in_typed_errors_and_readers_agree() {
    let trace = sample();
    let clean_dir = tmp("clean.pvta");
    write_archive(&trace, &clean_dir).unwrap();
    let dir = tmp("mutant.pvta");
    let mut rng = SmallRng::seed_from_u64(0x00c0_ffee_0015);
    let (mut rejected, mut tail_done) = (0, 0);
    for case in 0..CASES {
        let rank = rng.gen_range(0..2usize);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&clean_dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
        let clean = std::fs::read(clean_dir.join(stream_file(rank))).unwrap();
        // Magic, then the process index, then the record count.
        let count_at = 4 + varint_at(&clean, 4).1;
        let bytes = mutate(&mut rng, &clean, count_at);
        std::fs::write(dir.join(stream_file(rank)), &bytes).unwrap();

        let batch: Outcome = read_archive(&dir, 1)
            .map(|t| t.streams().iter().map(|s| s.records().to_vec()).collect());
        let (mapped, mapped_errors) = cursor_read(
            &dir,
            CursorOptions {
                mmap: true,
                read_buffer_bytes: 64,
            },
        );
        let (buffered, buffered_errors) = cursor_read(
            &dir,
            CursorOptions {
                mmap: false,
                read_buffer_bytes: 64,
            },
        );
        assert_eq!(mapped_errors, buffered_errors, "case {case}");
        assert!(
            same_acceptance(&mapped, &buffered) && same_acceptance(&mapped, &batch),
            "case {case}: cursor {} vs batch {}",
            summary(&mapped),
            summary(&batch)
        );
        rejected += usize::from(batch.is_err());

        // A tail that finishes clean decoded what the cursor decoded.
        mark_finished(&dir).unwrap();
        if let Some(tailed) = tail_read(&dir) {
            tail_done += 1;
            match (&tailed, &mapped) {
                (Ok(tailed), Ok(read)) => {
                    assert_eq!(tailed, read, "case {case}: the tail decoded other records")
                }
                (Ok(_), Err(e)) => {
                    panic!("case {case}: the tail accepted what the cursor rejects: {e}")
                }
                _ => {}
            }
        }
    }
    // The damage must actually bite, and the tail must reach a verdict
    // on most inputs.
    assert!(rejected > CASES / 2, "{rejected} of {CASES} rejected");
    assert!(tail_done > CASES / 2, "{tail_done} of {CASES} tailed");
}

/// The oracle: decodes a PVT file one varint at a time — per rank its
/// record count and `{tag, delta, payload…}` records, then the trailer —
/// and validates the streams with `Trace::from_parts`. The definitions
/// come from the crate's header parser, which this test does not check.
fn oracle_read(bytes: &[u8]) -> Result<Trace, TraceError> {
    let (name, clock, registry, _) = pvt::open(bytes)?;
    let r = &mut &bytes[..];
    // Skip the header that `pvt::open` accepted.
    r.read_exact(&mut [0u8; 4])?;
    read_u64(r)?;
    read_string(r)?;
    read_u64(r)?;
    let (np, nf, nm) = (read_u64(r)?, read_u64(r)?, read_u64(r)?);
    for _ in 0..np {
        read_string(r)?;
    }
    for _ in 0..nf {
        read_string(r)?;
        read_u64(r)?;
    }
    for _ in 0..nm {
        read_string(r)?;
        read_u64(r)?;
        read_string(r)?;
    }
    let corrupt = |what: &str| TraceError::Corrupt(what.into());
    let id = |r: &mut &[u8]| -> Result<u32, TraceError> {
        u32::try_from(read_u64(r)?).map_err(|_| corrupt("id above u32"))
    };
    let mut streams = Vec::new();
    for i in 0..registry.num_processes() {
        let mut records = Vec::new();
        let mut time = 0u64;
        for _ in 0..read_u64(r)? {
            let tag = read_u64(r)?;
            time = time
                .checked_add(read_u64(r)?)
                .ok_or_else(|| corrupt("timestamp overflow"))?;
            let event = match tag {
                0 => Event::Enter {
                    function: FunctionId(id(r)?),
                },
                1 => Event::Leave {
                    function: FunctionId(id(r)?),
                },
                2 => Event::MsgSend {
                    to: ProcessId(id(r)?),
                    tag: id(r)?,
                    bytes: read_u64(r)?,
                },
                3 => Event::MsgRecv {
                    from: ProcessId(id(r)?),
                    tag: id(r)?,
                    bytes: read_u64(r)?,
                },
                4 => Event::Metric {
                    metric: MetricId(id(r)?),
                    value: read_u64(r)?,
                },
                _ => return Err(corrupt("unknown tag")),
            };
            records.push(EventRecord::new(Timestamp(time), event));
        }
        streams.push(EventStream::from_records(ProcessId::from_index(i), records));
    }
    let mut trailer = [0u8; 4];
    r.read_exact(&mut trailer)?;
    if &trailer != b"PVTE" {
        return Err(corrupt("missing trailer"));
    }
    Trace::from_parts(name, clock, registry, streams)
}

/// Every rank of a PVT file through the chunked rank cursors, as the
/// out-of-core analysis reads it.
fn rank_cursor_read(bytes: &[u8]) -> Outcome {
    let (_, _, _, mut rank) = pvt::open(bytes)?;
    let (mut streams, mut chunk) = (Vec::new(), Vec::new());
    while let Some(mut cursor) = rank {
        let mut records = Vec::new();
        while cursor.next_chunk(&mut chunk, 7)? > 0 {
            records.extend(chunk.iter().copied());
        }
        streams.push(records);
        rank = cursor.next_rank();
    }
    Ok(streams)
}

fn records_of(trace: Trace) -> Vec<Vec<EventRecord>> {
    trace
        .streams()
        .iter()
        .map(|s| s.records().to_vec())
        .collect()
}

#[test]
fn mutated_pvt_files_end_in_typed_errors_and_readers_agree() {
    let trace = sample();
    let clean = pvt::to_bytes(&trace).unwrap();
    // The header is what an event-free copy of the trace holds before its
    // per-rank record counts (one byte each) and the 4-byte trailer.
    let streams = (0..trace.num_processes())
        .map(|i| EventStream::from_records(ProcessId::from_index(i), Vec::new()))
        .collect();
    let empty = Trace::from_parts(
        &trace.name,
        trace.clock(),
        trace.registry().clone(),
        streams,
    );
    let empty = pvt::to_bytes(&empty.unwrap()).unwrap();
    let count_at = empty.len() - trace.num_processes() - 4;
    assert_eq!(records_of(oracle_read(&clean).unwrap()), records_of(trace));
    let mut rng = SmallRng::seed_from_u64(0x00c0_ffee_0016);
    let mut rejected = 0;
    for case in 0..CASES {
        let bytes = mutate(&mut rng, &clean, count_at);
        let oracle: Outcome = oracle_read(&bytes).map(records_of);
        let batch: Outcome = pvt::read(&mut bytes.as_slice()).map(records_of);
        let ranks = rank_cursor_read(&bytes);
        assert!(
            same_acceptance(&oracle, &batch) && same_acceptance(&oracle, &ranks),
            "case {case}: oracle {} vs batch {} vs rank cursors {}",
            summary(&oracle),
            summary(&batch),
            summary(&ranks)
        );
        rejected += usize::from(oracle.is_err());
    }
    assert!(rejected > CASES / 2, "{rejected} of {CASES} rejected");
}

#[test]
fn mutated_pvtx_files_end_in_typed_errors() {
    let trace = sample();
    let mut clean = Vec::new();
    text::write(&trace, &mut clean).unwrap();
    // The count-inflating mutation rewrites the first stream index.
    let count_at = clean.windows(7).position(|w| w == b"STREAM ").unwrap() + 7;
    let mut rng = SmallRng::seed_from_u64(0x00c0_ffee_0017);
    let mut rejected = 0;
    for case in 0..CASES {
        let bytes = mutate(&mut rng, &clean, count_at);
        // A mutant the decoder accepts is a trace it writes back and
        // reads again unchanged.
        match text::read(&mut bytes.as_slice()) {
            Ok(read) => {
                let mut again = Vec::new();
                text::write(&read, &mut again).unwrap();
                let back = text::read(&mut again.as_slice());
                assert!(back.is_ok_and(|back| back == read), "case {case}");
            }
            Err(_) => rejected += 1,
        }
    }
    assert!(rejected > CASES / 2, "{rejected} of {CASES} rejected");
}
