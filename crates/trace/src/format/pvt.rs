//! The binary **PVT** trace format.
//!
//! Layout (all integers LEB128 varints unless stated):
//!
//! ```text
//! magic            4 bytes  "PVTR"
//! version          varint   (currently 1)
//! name             string   (length-prefixed UTF-8)
//! ticks_per_second varint
//! #processes, #functions, #metrics
//! process names    (#processes strings)
//! function defs    (#functions × {name, role-tag})
//! metric defs      (#metrics × {name, mode-tag, unit})
//! per process:     {#events, events…}
//! trailer          4 bytes  "PVTE"
//! ```
//!
//! Each event is `{kind-tag, time-delta, payload…}` where `time-delta` is
//! the tick difference to the previous event of the *same stream* (first
//! event: absolute). Deltas are small in practice, so event records are
//! typically 3–6 bytes.

use super::cursor::{CountingReader, RegistryShape, StreamCursor, StreamEnd};
use super::varint::{read_string, read_u64, write_string, write_u64};
use crate::error::{TraceError, TraceResult};
use crate::event::{Event, EventRecord};
use crate::ids::ProcessId;
use crate::registry::{FunctionDef, FunctionRole, MetricDef, MetricMode, ProcessDef, Registry};
use crate::time::Clock;
use crate::trace::{EventStream, Trace};
use std::io::{BufRead, Read, Write};

const MAGIC: &[u8; 4] = b"PVTR";
const TRAILER: &[u8; 4] = b"PVTE";
/// Current format version.
pub const VERSION: u64 = 1;

/// Serialises `trace` to `w` in PVT format.
pub fn write<W: Write>(trace: &Trace, w: &mut W) -> TraceResult<()> {
    w.write_all(MAGIC)?;
    write_u64(w, VERSION)?;
    write_string(w, &trace.name)?;
    write_u64(w, trace.clock().ticks_per_second)?;
    write_registry(trace.registry(), w)?;
    for stream in trace.streams() {
        write_stream_events(stream.records(), w)?;
    }
    w.write_all(TRAILER)?;
    w.flush()?;
    Ok(())
}

/// Encodes the definition tables (shared by PVT and the archive format).
pub(crate) fn write_registry<W: Write>(reg: &Registry, w: &mut W) -> TraceResult<()> {
    write_u64(w, reg.num_processes() as u64)?;
    write_u64(w, reg.num_functions() as u64)?;
    write_u64(w, reg.num_metrics() as u64)?;
    for p in reg.processes() {
        write_string(w, &p.name)?;
    }
    for f in reg.functions() {
        write_string(w, &f.name)?;
        write_u64(w, f.role.tag() as u64)?;
    }
    for m in reg.metrics() {
        write_string(w, &m.name)?;
        write_u64(w, m.mode.tag() as u64)?;
        write_string(w, &m.unit)?;
    }
    Ok(())
}

/// Encodes one event stream: count + delta-coded records.
pub(crate) fn write_stream_events<W: Write>(records: &[EventRecord], w: &mut W) -> TraceResult<()> {
    write_u64(w, records.len() as u64)?;
    let mut prev = 0u64;
    for r in records {
        write_event_record(r, prev, w)?;
        prev = r.time.0;
    }
    Ok(())
}

/// Encodes one delta-coded event record — `{tag, time-delta, payload…}`,
/// the shared per-record wire format of PVT stream bodies, PVTA stream
/// files, and the live archive's appends. `prev` is the timestamp of the
/// preceding record in the same stream (0 before the first).
pub(crate) fn write_event_record<W: Write>(
    r: &EventRecord,
    prev: u64,
    w: &mut W,
) -> TraceResult<()> {
    write_u64(w, r.event.tag() as u64)?;
    write_u64(w, r.time.0 - prev)?;
    match r.event {
        Event::Enter { function } | Event::Leave { function } => {
            write_u64(w, function.0 as u64)?;
        }
        Event::MsgSend { to, tag, bytes } => {
            write_u64(w, to.0 as u64)?;
            write_u64(w, tag as u64)?;
            write_u64(w, bytes)?;
        }
        Event::MsgRecv { from, tag, bytes } => {
            write_u64(w, from.0 as u64)?;
            write_u64(w, tag as u64)?;
            write_u64(w, bytes)?;
        }
        Event::Metric { metric, value } => {
            write_u64(w, metric.0 as u64)?;
            write_u64(w, value)?;
        }
    }
    Ok(())
}

/// Decodes the definition tables (shared by PVT and the archive format).
pub(crate) fn read_registry<R: BufRead>(r: &mut R) -> TraceResult<Registry> {
    const MAX_DEFS: u64 = 1 << 24;
    let np = read_u64(r)?;
    let nf = read_u64(r)?;
    let nm = read_u64(r)?;
    if np > MAX_DEFS || nf > MAX_DEFS || nm > MAX_DEFS {
        return Err(TraceError::Corrupt("definition count exceeds limit".into()));
    }
    let mut processes = Vec::with_capacity(np as usize);
    for _ in 0..np {
        processes.push(ProcessDef {
            name: read_string(r)?,
        });
    }
    let mut functions = Vec::with_capacity(nf as usize);
    for _ in 0..nf {
        let fname = read_string(r)?;
        let tag = read_u64(r)?;
        let role = FunctionRole::from_tag(tag as u8)
            .ok_or_else(|| TraceError::Corrupt(format!("unknown function role tag {tag}")))?;
        functions.push(FunctionDef { name: fname, role });
    }
    let mut metrics = Vec::with_capacity(nm as usize);
    for _ in 0..nm {
        let mname = read_string(r)?;
        let tag = read_u64(r)?;
        let mode = MetricMode::from_tag(tag as u8)
            .ok_or_else(|| TraceError::Corrupt(format!("unknown metric mode tag {tag}")))?;
        let unit = read_string(r)?;
        metrics.push(MetricDef {
            name: mname,
            mode,
            unit,
        });
    }
    Ok(Registry::from_parts(processes, functions, metrics))
}

/// Parses the PVT file header: magic, version, name, clock, definitions.
fn read_header<R: BufRead>(r: &mut R) -> TraceResult<(String, Clock, Registry)> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TraceError::Corrupt(format!(
            "bad magic {magic:02x?}, not a PVT file"
        )));
    }
    let version = read_u64(r)?;
    if version != VERSION {
        return Err(TraceError::UnsupportedVersion(version as u32));
    }
    let name = read_string(r)?;
    let ticks_per_second = read_u64(r)?;
    if ticks_per_second == 0 {
        return Err(TraceError::Corrupt("zero clock resolution".into()));
    }
    let registry = read_registry(r)?;
    Ok((name, Clock::new(ticks_per_second), registry))
}

/// Reads the trailer that ends a PVT file.
pub(crate) fn read_trailer<R: Read>(r: &mut R) -> TraceResult<()> {
    let mut trailer = [0u8; 4];
    r.read_exact(&mut trailer)?;
    if &trailer != TRAILER {
        return Err(TraceError::Corrupt("missing PVT trailer".into()));
    }
    Ok(())
}

/// A PVT file opened by [`open`]: its name, clock and definitions, and
/// the cursor of rank 0 (`None` for a trace without ranks).
pub type PvtRanks<R> = (String, Clock, Registry, Option<StreamCursor<R>>);

/// Opens a PVT file for reading rank by rank: reads the header, then
/// hands out the [`StreamCursor`] of rank 0. Each rank's cursor, once
/// consumed, hands the reader on to the next rank
/// ([`StreamCursor::next_rank`]); the last one checks the trailer. Error
/// offsets count from the start of the file.
///
/// A file that ends inside the header (zero-length or header-only) is
/// reported as a typed [`TraceError::Corrupt`], not a bare I/O EOF.
///
/// ```
/// use perfvar_trace::format::pvt;
/// use perfvar_trace::prelude::*;
///
/// let mut b = TraceBuilder::new(Clock::microseconds());
/// let f = b.define_function("work", FunctionRole::Compute);
/// let p = b.define_process("rank 0");
/// b.process_mut(p).enter(Timestamp(0), f).unwrap();
/// b.process_mut(p).leave(Timestamp(5), f).unwrap();
/// let bytes = pvt::to_bytes(&b.finish().unwrap()).unwrap();
///
/// let (_, _, registry, rank) = pvt::open(bytes.as_slice()).unwrap();
/// assert_eq!(registry.num_functions(), 1);
/// let mut rank = rank.unwrap();
/// assert_eq!(rank.read_all().unwrap().len(), 2);
/// assert!(rank.next_rank().is_none());
/// ```
pub fn open<R: BufRead>(reader: R) -> TraceResult<PvtRanks<R>> {
    let mut reader = CountingReader::new(reader);
    let (name, clock, registry) =
        read_header(&mut reader).map_err(super::truncated_header_as_corrupt)?;
    let first = if registry.num_processes() == 0 {
        read_trailer(&mut reader)?;
        None
    } else {
        let shape = RegistryShape::of(&registry);
        Some(StreamCursor::new(
            reader,
            ProcessId(0),
            shape,
            StreamEnd::NextRank,
        )?)
    };
    Ok((name, clock, registry, first))
}

/// Deserialises a PVT trace from `r` and validates it.
pub fn read<R: BufRead>(r: &mut R) -> TraceResult<Trace> {
    let (name, clock, registry, mut rank) = open(r)?;
    let mut streams = Vec::with_capacity(registry.num_processes());
    while let Some(mut cursor) = rank {
        streams.push(EventStream::from_records(
            cursor.process(),
            cursor.read_all()?,
        ));
        rank = cursor.next_rank();
    }
    Trace::from_parts(name, clock, registry, streams)
}

/// Serialises a trace to an in-memory byte vector.
pub fn to_bytes(trace: &Trace) -> TraceResult<Vec<u8>> {
    let mut buf = Vec::new();
    write(trace, &mut buf)?;
    Ok(buf)
}

/// Deserialises a trace from an in-memory byte slice.
pub fn from_bytes(bytes: &[u8]) -> TraceResult<Trace> {
    read(&mut std::io::Cursor::new(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FunctionRole as R;
    use crate::time::Timestamp;
    use crate::trace::TraceBuilder;

    fn rich_trace() -> Trace {
        let mut b = TraceBuilder::new(Clock::nanoseconds()).with_name("rich µ");
        let main_f = b.define_function("main", R::Compute);
        let mpi = b.define_function("MPI_Allreduce", R::MpiCollective);
        let m = b.define_metric("PAPI_TOT_CYC", MetricMode::Accumulating, "cycles");
        let p0 = b.define_process("rank 0");
        let p1 = b.define_process("rank 1");
        {
            let w = b.process_mut(p0);
            w.enter(Timestamp(100), main_f).unwrap();
            w.metric(Timestamp(150), m, 1_000_000).unwrap();
            w.enter(Timestamp(200), mpi).unwrap();
            w.send(Timestamp(210), p1, 42, 4096).unwrap();
            w.leave(Timestamp(300), mpi).unwrap();
            w.leave(Timestamp(400), main_f).unwrap();
        }
        {
            let w = b.process_mut(p1);
            w.enter(Timestamp(90), main_f).unwrap();
            w.recv(Timestamp(220), p0, 42, 4096).unwrap();
            w.leave(Timestamp(380), main_f).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = rich_trace();
        let bytes = to_bytes(&t).unwrap();
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.name, "rich µ");
        assert_eq!(back.clock(), Clock::nanoseconds());
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = TraceBuilder::new(Clock::microseconds()).finish().unwrap();
        let back = from_bytes(&to_bytes(&t).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn encoding_is_compact() {
        let t = rich_trace();
        let bytes = to_bytes(&t).unwrap();
        // 9 events with definitions; far below a naive fixed-width layout.
        assert!(bytes.len() < 200, "got {} bytes", bytes.len());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = from_bytes(b"NOPE....").unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = to_bytes(&rich_trace()).unwrap();
        bytes[4] = 99; // version varint (single byte for small values)
        let err = from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, TraceError::UnsupportedVersion(99)));
    }

    #[test]
    fn truncated_file_rejected() {
        let bytes = to_bytes(&rich_trace()).unwrap();
        for cut in [3, 10, bytes.len() / 2, bytes.len() - 1] {
            let err = from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::Io(_) | TraceError::Corrupt(_) | TraceError::CorruptStream { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn missing_trailer_rejected() {
        let mut bytes = to_bytes(&rich_trace()).unwrap();
        let n = bytes.len();
        bytes[n - 1] = b'X';
        let err = from_bytes(&bytes).unwrap_err();
        // The last rank's end-of-stream check reads the trailer.
        match err {
            TraceError::CorruptStream {
                process,
                offset,
                source,
            } => {
                assert_eq!((process, offset), (ProcessId(1), n as u64));
                assert!(matches!(*source, TraceError::Corrupt(_)), "{source}");
            }
            other => panic!("expected CorruptStream, got {other}"),
        }
    }

    /// Every rank of a PVT file through its cursor: the records of each
    /// rank read, then the first error.
    fn read_ranks(bytes: &[u8]) -> (Vec<Vec<EventRecord>>, Option<TraceError>) {
        let (_, _, _, mut rank) = open(bytes).unwrap();
        let mut ranks = Vec::new();
        while let Some(mut cursor) = rank {
            assert_eq!(cursor.process().index(), ranks.len());
            match cursor.read_all() {
                Ok(records) => ranks.push(records),
                Err(e) => return (ranks, Some(e)),
            }
            rank = cursor.next_rank();
        }
        (ranks, None)
    }

    #[test]
    fn stream_reader_yields_same_events_as_full_read() {
        let t = rich_trace();
        let bytes = to_bytes(&t).unwrap();
        let (name, clock, registry, _) = open(bytes.as_slice()).unwrap();
        assert_eq!((name.as_str(), clock), ("rich µ", Clock::nanoseconds()));
        assert_eq!(&registry, t.registry());
        let (ranks, error) = read_ranks(&bytes);
        assert!(error.is_none());
        let expected: Vec<_> = t.streams().iter().map(|s| s.records().to_vec()).collect();
        assert_eq!(ranks, expected);
    }

    #[test]
    fn stream_reader_validates_incrementally() {
        // Build bytes of an invalid trace (unbalanced) by writing raw.
        let mut b = crate::trace::TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("f", R::Compute);
        let p = b.define_process("p0");
        b.process_mut(p).enter(Timestamp(0), f).unwrap();
        b.process_mut(p).leave(Timestamp(2), f).unwrap();
        let valid = b.finish().unwrap();
        let mut bytes = to_bytes(&valid).unwrap();
        // Corrupt the Leave's function id (last event's payload byte
        // before the trailer) to provoke a mismatched leave.
        let n = bytes.len();
        bytes[n - 5] = 9; // function id varint of the Leave
        let (ranks, error) = read_ranks(&bytes);
        assert!(ranks.is_empty());
        match error {
            Some(TraceError::CorruptStream {
                process, source, ..
            }) => {
                assert_eq!(process, ProcessId(0));
                assert!(matches!(*source, TraceError::MismatchedLeave { .. }));
            }
            other => panic!("expected CorruptStream, got {other:?}"),
        }
    }

    #[test]
    fn stream_reader_fuses_after_error() {
        let bytes = to_bytes(&rich_trace()).unwrap();
        let cut = &bytes[..bytes.len() - 6];
        let (_, _, _, rank) = open(cut).unwrap();
        // Rank 0 reads clean; the cut is in rank 1's last record.
        let mut cursor = rank.unwrap();
        cursor.read_all().unwrap();
        let mut cursor = cursor.next_rank().unwrap();
        let err = cursor.read_all().unwrap_err();
        assert!(
            matches!(err, TraceError::CorruptStream { process, .. } if process == ProcessId(1))
        );
        assert!(cursor.next_record().unwrap().is_none(), "the cursor fuses");
        assert!(cursor.next_rank().is_none(), "no rank follows a failed one");
    }

    #[test]
    fn stream_reader_rejects_bad_header() {
        let err = open(&b"NOPE...."[..]).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)));
    }

    #[test]
    fn stream_reader_handles_empty_processes() {
        let mut b = crate::trace::TraceBuilder::new(Clock::microseconds());
        b.define_process("empty 0");
        let f = b.define_function("f", R::Compute);
        let p1 = b.define_process("busy");
        b.define_process("empty 2");
        b.process_mut(p1).enter(Timestamp(0), f).unwrap();
        b.process_mut(p1).leave(Timestamp(1), f).unwrap();
        let t = b.finish().unwrap();
        let (ranks, error) = read_ranks(&to_bytes(&t).unwrap());
        assert!(error.is_none());
        let lengths: Vec<usize> = ranks.iter().map(Vec::len).collect();
        assert_eq!(lengths, [0, 2, 0]);
    }

    #[test]
    fn corrupted_body_fails_validation_or_decoding() {
        // Flip each byte of the body in turn; the reader must never panic
        // and must reject or (rarely) produce a *valid* different trace.
        let bytes = to_bytes(&rich_trace()).unwrap();
        for i in 4..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x5a;
            let _ = from_bytes(&mutated); // must not panic
        }
    }
}
