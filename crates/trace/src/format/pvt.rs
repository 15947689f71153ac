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

use super::cursor::{check_event, decode_event, CountingReader, RegistryShape};
use super::varint::{read_string, read_u64, write_string, write_u64};
use crate::error::{TraceError, TraceResult};
use crate::event::{Event, EventRecord};
use crate::ids::{FunctionId, ProcessId};
use crate::registry::{FunctionDef, FunctionRole, MetricDef, MetricMode, ProcessDef, Registry};
use crate::time::{Clock, Timestamp};
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

/// Decodes one event stream written by [`write_stream_events`]
/// (delegating the per-record wire format to the shared
/// [`decode_event`]).
pub(crate) fn read_stream_events<R: BufRead>(r: &mut R) -> TraceResult<Vec<EventRecord>> {
    let count = read_u64(r)?;
    let mut records = Vec::with_capacity((count as usize).min(1 << 20));
    let mut time = 0u64;
    for _ in 0..count {
        let (t, event) = decode_event(r, time)?;
        time = t;
        records.push(EventRecord::new(Timestamp(time), event));
    }
    Ok(records)
}

/// Parses the PVT file header: magic, version, name, clock, definitions.
/// Shared by the batch [`read`] and the streaming [`PvtStreamReader`].
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

/// Deserialises a PVT trace from `r` and validates it.
pub fn read<R: BufRead>(r: &mut R) -> TraceResult<Trace> {
    let (name, clock, registry) = read_header(r).map_err(super::truncated_header_as_corrupt)?;
    let np = registry.num_processes();
    let mut streams = Vec::with_capacity(np);
    for pi in 0..np {
        let records = read_stream_events(r)?;
        streams.push(EventStream::from_records(
            ProcessId::from_index(pi),
            records,
        ));
    }

    let mut trailer = [0u8; 4];
    r.read_exact(&mut trailer)?;
    if &trailer != TRAILER {
        return Err(TraceError::Corrupt("missing PVT trailer".into()));
    }

    Trace::from_parts(name, clock, registry, streams)
}

/// Streaming PVT reader: decodes definitions eagerly, then yields events
/// one at a time without materialising the trace — for files larger than
/// memory or single-pass statistics. Events are validated incrementally
/// (monotone timestamps, balanced nesting, defined references), so a
/// consumed-to-completion stream gives the same guarantees as [`read`].
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
/// let mut reader = pvt::PvtStreamReader::new(std::io::Cursor::new(bytes)).unwrap();
/// assert_eq!(reader.registry().num_functions(), 1);
/// let events: Vec<_> = reader.by_ref().collect::<Result<Vec<_>, _>>().unwrap();
/// assert_eq!(events.len(), 2);
/// assert!(reader.finished());
/// ```
#[derive(Debug)]
pub struct PvtStreamReader<R: BufRead> {
    reader: CountingReader<R>,
    name: String,
    clock: Clock,
    registry: Registry,
    /// Registry table sizes, for the shared incremental validation.
    shape: RegistryShape,
    /// Process currently being decoded.
    current_process: usize,
    /// Events left in the current process stream.
    remaining: u64,
    /// Previous timestamp of the current stream (delta base).
    prev_time: u64,
    /// Incremental validation stack for the current stream.
    stack: Vec<FunctionId>,
    /// Set once the trailer was verified.
    finished: bool,
    /// Set on first error; the iterator then fuses.
    poisoned: bool,
}

impl<R: BufRead> PvtStreamReader<R> {
    /// Opens a PVT stream: reads and validates header and definitions.
    ///
    /// A file that ends inside the header (zero-length or header-only) is
    /// reported as a typed [`TraceError::Corrupt`], not a bare I/O EOF.
    pub fn new(reader: R) -> TraceResult<PvtStreamReader<R>> {
        let mut reader = CountingReader::new(reader);
        let (name, clock, registry) =
            read_header(&mut reader).map_err(super::truncated_header_as_corrupt)?;
        let shape = RegistryShape::of(&registry);

        let mut this = PvtStreamReader {
            reader,
            name,
            clock,
            registry,
            shape,
            current_process: 0,
            remaining: 0,
            prev_time: 0,
            stack: Vec::new(),
            finished: false,
            poisoned: false,
        };
        this.advance_stream()?;
        Ok(this)
    }

    /// The trace name from the header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The trace clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// The definitions (available before any event is consumed).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Whether the stream was consumed to the trailer successfully.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Bytes consumed from the underlying reader so far (the position of
    /// a decode failure within the file).
    pub fn byte_offset(&self) -> u64 {
        self.reader.offset()
    }

    /// The underlying reader (e.g. to ask a
    /// [`FileReader`](super::mmap::FileReader) whether it is mapped).
    pub fn get_ref(&self) -> &R {
        self.reader.get_ref()
    }

    /// Moves to the next process stream (or the trailer).
    fn advance_stream(&mut self) -> TraceResult<()> {
        loop {
            if !self.stack.is_empty() {
                return Err(TraceError::UnbalancedStack {
                    process: ProcessId::from_index(self.current_process.saturating_sub(1)),
                    open_frames: self.stack.len(),
                });
            }
            if self.current_process >= self.registry.num_processes() {
                let mut trailer = [0u8; 4];
                self.reader.read_exact(&mut trailer)?;
                if &trailer != TRAILER {
                    return Err(TraceError::Corrupt("missing PVT trailer".into()));
                }
                self.finished = true;
                return Ok(());
            }
            self.remaining = read_u64(&mut self.reader)?;
            self.prev_time = 0;
            self.current_process += 1;
            if self.remaining > 0 {
                return Ok(());
            }
        }
    }

    fn next_event(&mut self) -> TraceResult<Option<(ProcessId, EventRecord)>> {
        if self.finished {
            return Ok(None);
        }
        let process = ProcessId::from_index(self.current_process - 1);
        let (time, event) = decode_event(&mut self.reader, self.prev_time)?;
        check_event(self.shape, process, time, &event, &mut self.stack)?;
        self.prev_time = time;
        let record = EventRecord::new(Timestamp(time), event);
        self.remaining -= 1;
        if self.remaining == 0 {
            self.advance_stream()?;
        }
        Ok(Some((process, record)))
    }
}

impl<R: BufRead> Iterator for PvtStreamReader<R> {
    type Item = TraceResult<(ProcessId, EventRecord)>;

    /// Yields `(process, record)` pairs; a decode or validation failure
    /// mid-body comes back as [`TraceError::CorruptStream`] naming the
    /// process being decoded and the byte offset within the file, after
    /// which the iterator fuses.
    fn next(&mut self) -> Option<Self::Item> {
        if self.poisoned {
            return None;
        }
        match self.next_event() {
            Ok(Some(item)) => Some(Ok(item)),
            Ok(None) => None,
            Err(e) => {
                self.poisoned = true;
                Some(Err(TraceError::CorruptStream {
                    process: ProcessId::from_index(self.current_process.saturating_sub(1)),
                    offset: self.reader.offset(),
                    source: Box::new(e),
                }))
            }
        }
    }
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
                matches!(err, TraceError::Io(_) | TraceError::Corrupt(_)),
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
        assert!(matches!(err, TraceError::Corrupt(_)));
    }

    #[test]
    fn stream_reader_yields_same_events_as_full_read() {
        let t = rich_trace();
        let bytes = to_bytes(&t).unwrap();
        let mut reader = PvtStreamReader::new(std::io::Cursor::new(&bytes)).unwrap();
        assert_eq!(reader.name(), "rich µ");
        assert_eq!(reader.clock(), Clock::nanoseconds());
        assert_eq!(reader.registry(), t.registry());
        let streamed: Vec<(ProcessId, EventRecord)> =
            reader.by_ref().collect::<Result<_, _>>().unwrap();
        assert!(reader.finished());
        let expected: Vec<(ProcessId, EventRecord)> = t
            .streams()
            .iter()
            .flat_map(|s| s.records().iter().map(move |r| (s.process, *r)))
            .collect();
        assert_eq!(streamed, expected);
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
        let reader = PvtStreamReader::new(std::io::Cursor::new(&bytes)).unwrap();
        let result: Result<Vec<_>, _> = reader.collect();
        assert!(result.is_err());
    }

    #[test]
    fn stream_reader_fuses_after_error() {
        let mut reader =
            PvtStreamReader::new(std::io::Cursor::new(to_bytes(&rich_trace()).unwrap())).unwrap();
        // Drain normally: no fusing needed. Then create a truncated one.
        while reader.next().is_some() {}
        let bytes = to_bytes(&rich_trace()).unwrap();
        let cut = &bytes[..bytes.len() - 6];
        let mut reader = PvtStreamReader::new(std::io::Cursor::new(cut)).unwrap();
        let mut saw_err = false;
        for item in reader.by_ref() {
            if item.is_err() {
                saw_err = true;
                break;
            }
        }
        assert!(saw_err);
        assert!(reader.next().is_none(), "iterator fuses after an error");
    }

    #[test]
    fn stream_reader_rejects_bad_header() {
        let err = PvtStreamReader::new(std::io::Cursor::new(b"NOPE....".to_vec())).unwrap_err();
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
        let reader = PvtStreamReader::new(std::io::Cursor::new(to_bytes(&t).unwrap())).unwrap();
        let events: Vec<_> = reader.collect::<Result<_, _>>().unwrap();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|(p, _)| *p == ProcessId(1)));
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
