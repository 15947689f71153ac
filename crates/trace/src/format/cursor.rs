//! Incremental event cursors: decode PVT/PVTA streams without a
//! [`Trace`](crate::trace::Trace).
//!
//! [`StreamCursor`] is the one decoder of a sealed rank stream. It
//! decodes one process's delta-coded event stream record by record,
//! validating incrementally (monotone timestamps, balanced nesting,
//! defined references) and tracking the byte offset so failures are
//! reported precisely. Its sources:
//!
//! * [`ArchiveCursor`] opens a PVTA archive directory, reads the anchor
//!   (name, clock, definitions) once, and hands out one independent
//!   cursor per stream file — workers can pull different ranks from disk
//!   in parallel without any shared mutable state;
//! * [`pvt::open`](super::pvt::open) reads a PVT file's header and hands
//!   out the cursor of rank 0, and each rank's cursor hands the same
//!   reader on to the next ([`StreamCursor::next_rank`]).
//!
//! The batch readers ([`pvt::read`](super::pvt::read),
//! [`archive::read_archive`](super::archive::read_archive)) collect the
//! same cursors into a [`Trace`](crate::trace::Trace); the out-of-core
//! analysis steps them chunk by chunk, so live state per cursor is
//! `O(read buffer + call-stack depth)` and the event *payload* never
//! lands in memory as a whole. A cursor consumed to completion certifies
//! its stream as whole-trace validation would.
//!
//! Errors raised while decoding a stream body are wrapped in
//! [`TraceError::CorruptStream`] carrying the process id and the byte
//! offset within the file (the stream file of an archive, the whole file
//! of a PVT trace) — the contract the out-of-core analysis path relies on
//! to report which ranks of a damaged trace were recovered.

use super::archive::{read_anchor, stream_file, STREAM_MAGIC};
use super::mmap::FileReader;
use super::pvt::read_trailer;
use super::varint::{fold_leb128_groups, read_u64};
use crate::error::{TraceError, TraceResult};
use crate::event::{Event, EventRecord};
use crate::ids::{FunctionId, MetricId, ProcessId};
use crate::registry::Registry;
use crate::time::{Clock, Timestamp};
use std::io::{BufRead, Read};
use std::ops::{BitAnd, Not, Shr};
use std::path::{Path, PathBuf};

/// How an [`ArchiveCursor`] reads stream files: mapped or buffered, and
/// with what buffer when buffered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CursorOptions {
    /// Memory-map stream files where possible (the default). The
    /// buffered fallback still applies when mapping fails.
    pub mmap: bool,
    /// Read-buffer size in bytes for the buffered path (ignored when a
    /// file is mapped). Clamped to a small floor.
    pub read_buffer_bytes: usize,
}

impl CursorOptions {
    /// Default buffered read-buffer size (256 KiB).
    pub const DEFAULT_READ_BUFFER: usize = 256 * 1024;
}

impl Default for CursorOptions {
    fn default() -> CursorOptions {
        CursorOptions {
            mmap: true,
            read_buffer_bytes: CursorOptions::DEFAULT_READ_BUFFER,
        }
    }
}

/// The table sizes of a [`Registry`] — everything incremental validation
/// needs to check references, small enough to copy into every worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegistryShape {
    /// Number of defined processes.
    pub processes: usize,
    /// Number of defined functions.
    pub functions: usize,
    /// Number of defined metric channels.
    pub metrics: usize,
}

impl RegistryShape {
    /// Extracts the shape of a registry.
    pub fn of(registry: &Registry) -> RegistryShape {
        RegistryShape {
            processes: registry.num_processes(),
            functions: registry.num_functions(),
            metrics: registry.num_metrics(),
        }
    }
}

/// Reads a varint and narrows it to a `u32` id, reporting the table it
/// points into on overflow.
pub(crate) fn read_id_u32<R: BufRead>(r: &mut R, kind: &'static str) -> TraceResult<u32> {
    let v = read_u64(r)?;
    u32::try_from(v).map_err(|_| TraceError::UndefinedReference { kind, index: v })
}

/// Bytes the record decoder ([`decode_event_slice`]) loads per record:
/// one 16-byte window, which holds every record of a typical trace (a
/// one-byte tag, a short delta and up to three small ids or values).
const RECORD_WINDOW: usize = 16;

/// Decodes one delta-coded event record (the shared wire format of PVT
/// stream bodies and PVTA stream files): `{tag, time-delta, payload…}`.
/// Returns the absolute timestamp and the event.
///
/// A record that fits a 16-byte window of the read buffer is decoded
/// from one load by [`decode_event_slice`]; any other record, and every
/// malformed one, goes to [`decode_event_stream`], the one producer of
/// errors.
pub(crate) fn decode_event<R: BufRead>(r: &mut R, prev_time: u64) -> TraceResult<(u64, Event)> {
    if let Some((used, time, event)) = decode_event_slice(r.fill_buf()?, prev_time) {
        r.consume(used);
        return Ok((time, event));
    }
    decode_event_stream(r, prev_time)
}

/// The record decoder: decodes the whole record at the front of `buf`
/// from one 16-byte load.
///
/// A canonical tag is its own single byte, so it alone says how many
/// varints follow. Their bounds come from the stop-bit mask of the
/// window (`!w & 0x80…`, a clear top bit ends a varint): the lowest set
/// bit ends the first field, and clearing it (`blsr`) exposes the next,
/// so the record's length is a few dependent single-cycle steps while
/// each field is cut out (`blsmsk`, one shift) and folded
/// ([`fold_leb128_groups`]) off that chain, instead of every varint's
/// load waiting on the length of the one before. Records that end in
/// the first 8 bytes — nearly all of them — never touch the upper half.
///
/// `None` defers the record to [`decode_event_stream`]: fewer than 16
/// bytes left, a record ending past the window, an unknown or
/// multi-byte tag, a field longer than 8 bytes, an id above `u32::MAX`,
/// or a timestamp overflow. A record it does take decodes exactly as
/// the stream decoder would decode it (the test
/// `record_decoder_equals_stream_decoder_on_every_prefix`).
#[inline(always)]
fn decode_event_slice(buf: &[u8], prev_time: u64) -> Option<(usize, u64, Event)> {
    let window = buf.get(..RECORD_WINDOW)?;
    let lo = u64::from_le_bytes(window[..8].try_into().ok()?);
    let hi = u64::from_le_bytes(window[8..].try_into().ok()?);
    let id = |v: u64| u32::try_from(v).ok();
    let (used, delta, event) = match lo as u8 {
        0 => {
            let (used, [delta, f]) = split_fields(lo, hi)?;
            let function = FunctionId(id(f)?);
            (used, delta, Event::Enter { function })
        }
        1 => {
            let (used, [delta, f]) = split_fields(lo, hi)?;
            let function = FunctionId(id(f)?);
            (used, delta, Event::Leave { function })
        }
        2 => {
            let (used, [delta, to, tag, bytes]) = split_fields(lo, hi)?;
            let (to, tag) = (ProcessId(id(to)?), id(tag)?);
            (used, delta, Event::MsgSend { to, tag, bytes })
        }
        3 => {
            let (used, [delta, from, tag, bytes]) = split_fields(lo, hi)?;
            let (from, tag) = (ProcessId(id(from)?), id(tag)?);
            (used, delta, Event::MsgRecv { from, tag, bytes })
        }
        4 => {
            let (used, [delta, metric, value]) = split_fields(lo, hi)?;
            let metric = MetricId(id(metric)?);
            (used, delta, Event::Metric { metric, value })
        }
        _ => return None,
    };
    Some((used, prev_time.checked_add(delta)?, event))
}

/// The `N` varints after the tag byte of a 16-byte window given as two
/// little-endian halves, with the bytes they end at: from the low half
/// alone when they end there, else from the whole window.
#[inline(always)]
fn split_fields<const N: usize>(lo: u64, hi: u64) -> Option<(usize, [u64; N])> {
    match split_word::<u64, N>(lo) {
        Some(fields) => Some(fields),
        None => split_word::<u128, N>((u128::from(hi) << 64) | u128::from(lo)),
    }
}

/// [`split_fields`] within one little-endian word: `None` when the
/// `N`-th varint does not end inside `w` or one is longer than 8 bytes.
#[inline(always)]
fn split_word<W: Word, const N: usize>(w: W) -> Option<(usize, [u64; N])> {
    let mut stops = !w & W::STOPS;
    let mut start = 8u32;
    let mut fields = [0u64; N];
    for field in &mut fields {
        if stops == W::ZERO {
            return None;
        }
        let end = stops.trailing_zeros() + 1;
        if W::WIDE && end - start > 64 {
            return None;
        }
        let bytes = ((w & stops.blsmsk()) >> start).low_u64();
        *field = fold_leb128_groups(bytes & 0x7f7f_7f7f_7f7f_7f7f);
        stops = stops.blsr();
        start = end;
    }
    Some((start as usize / 8, fields))
}

/// The two word widths [`split_word`] runs on: the low half of the
/// record window (`u64`) and the whole window (`u128`).
trait Word: Copy + Eq + BitAnd<Output = Self> + Not<Output = Self> + Shr<u32, Output = Self> {
    /// The top bit of every byte but the tag's.
    const STOPS: Self;
    const ZERO: Self;
    /// Whether a field can outgrow the 8 bytes of one fold.
    const WIDE: bool;
    /// `x & (x - 1)`: clears the lowest set bit.
    fn blsr(self) -> Self;
    /// `x ^ (x - 1)`: the lowest set bit and every bit below it.
    fn blsmsk(self) -> Self;
    fn trailing_zeros(self) -> u32;
    fn low_u64(self) -> u64;
}

macro_rules! impl_word {
    ($t:ty, $stops:expr) => {
        impl Word for $t {
            const STOPS: Self = $stops;
            const ZERO: Self = 0;
            const WIDE: bool = <$t>::BITS > 64;
            #[inline(always)]
            fn blsr(self) -> Self {
                self & self.wrapping_sub(1)
            }
            #[inline(always)]
            fn blsmsk(self) -> Self {
                self ^ self.wrapping_sub(1)
            }
            #[inline(always)]
            fn trailing_zeros(self) -> u32 {
                <$t>::trailing_zeros(self)
            }
            #[inline(always)]
            fn low_u64(self) -> u64 {
                self as u64
            }
        }
    };
}

impl_word!(u64, 0x8080_8080_8080_8000);
impl_word!(u128, 0x8080_8080_8080_8080_8080_8080_8080_8000);

/// Stream path of [`decode_event`]: decodes the records the record
/// decoder defers, and turns malformed records into their precise
/// errors.
fn decode_event_stream<R: BufRead>(r: &mut R, prev_time: u64) -> TraceResult<(u64, Event)> {
    let tag = read_u64(r)?;
    let delta = read_u64(r)?;
    let time = prev_time
        .checked_add(delta)
        .ok_or_else(|| TraceError::Corrupt("timestamp overflow".into()))?;
    let event = match tag {
        0 => Event::Enter {
            function: FunctionId(read_id_u32(r, "function")?),
        },
        1 => Event::Leave {
            function: FunctionId(read_id_u32(r, "function")?),
        },
        2 => Event::MsgSend {
            to: ProcessId(read_id_u32(r, "process")?),
            tag: read_id_u32(r, "tag")?,
            bytes: read_u64(r)?,
        },
        3 => Event::MsgRecv {
            from: ProcessId(read_id_u32(r, "process")?),
            tag: read_id_u32(r, "tag")?,
            bytes: read_u64(r)?,
        },
        4 => Event::Metric {
            metric: MetricId(read_id_u32(r, "metric")?),
            value: read_u64(r)?,
        },
        other => return Err(TraceError::Corrupt(format!("unknown event tag {other}"))),
    };
    Ok((time, event))
}

/// Incrementally validates one decoded event against the registry shape
/// and the running call stack (references in range, balanced nesting).
/// Timestamp monotonicity is implied by the delta coding and checked by
/// [`decode_event`]'s overflow test.
///
/// Inlined into every caller: the check is [`apply_event`], and only a
/// failure leaves the caller's loop, for the cold [`event_error`].
#[inline(always)]
pub(crate) fn check_event(
    shape: RegistryShape,
    process: ProcessId,
    time: u64,
    event: &Event,
    stack: &mut Vec<FunctionId>,
) -> TraceResult<()> {
    if apply_event(shape, event, stack) {
        Ok(())
    } else {
        Err(event_error(process, time, event, stack))
    }
}

/// The check of [`check_event`]: whether `event` is valid, pushing or
/// popping `stack` if it is. An invalid event leaves `stack` unchanged.
#[inline(always)]
fn apply_event(shape: RegistryShape, event: &Event, stack: &mut Vec<FunctionId>) -> bool {
    match *event {
        Event::Enter { function } => {
            let valid = function.index() < shape.functions;
            if valid {
                stack.push(function);
            }
            valid
        }
        Event::Leave { function } => {
            let valid = stack.last() == Some(&function);
            if valid {
                stack.pop();
            }
            valid
        }
        Event::MsgSend { to: process, .. } | Event::MsgRecv { from: process, .. } => {
            process.index() < shape.processes
        }
        Event::Metric { metric, .. } => metric.index() < shape.metrics,
    }
}

/// The error for an event [`apply_event`] rejected, with `stack` as it
/// was before that event.
#[cold]
#[inline(never)]
fn event_error(process: ProcessId, time: u64, event: &Event, stack: &[FunctionId]) -> TraceError {
    let undefined = |kind, index: u32| TraceError::UndefinedReference {
        kind,
        index: index as u64,
    };
    match *event {
        Event::Enter { function } => undefined("function", function.0),
        Event::Leave { function } => TraceError::MismatchedLeave {
            process,
            time: Timestamp(time),
            left: function,
            expected: stack.last().copied(),
        },
        Event::MsgSend { to: peer, .. } | Event::MsgRecv { from: peer, .. } => {
            undefined("process", peer.0)
        }
        Event::Metric { metric, .. } => undefined("metric", metric.0),
    }
}

/// `Read` adapter counting the bytes consumed so far, so stream cursors
/// can report the exact failure position inside a file.
#[derive(Debug)]
pub(crate) struct CountingReader<R> {
    inner: R,
    offset: u64,
}

impl<R: Read> CountingReader<R> {
    pub(crate) fn new(inner: R) -> CountingReader<R> {
        CountingReader { inner, offset: 0 }
    }

    /// Bytes consumed since construction.
    pub(crate) fn offset(&self) -> u64 {
        self.offset
    }

    /// The wrapped reader.
    pub(crate) fn get_ref(&self) -> &R {
        &self.inner
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.offset += n as u64;
        Ok(n)
    }
}

impl<R: BufRead> BufRead for CountingReader<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.offset += amt as u64;
        self.inner.consume(amt);
    }
}

/// What follows the last declared record of a stream, checked once the
/// records are read: the end-of-stream rule of its format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StreamEnd {
    /// A PVTA stream file ends right after its last record.
    EndOfFile,
    /// A PVT rank is followed by the next rank's record count, or after
    /// the last rank by the trailer.
    NextRank,
}

/// Incremental cursor over one process's event stream.
///
/// Yields [`EventRecord`]s from a PVTA stream file (see
/// [`ArchiveCursor::stream`]) or from one rank of a PVT file (see
/// [`pvt::open`](super::pvt::open)), decoding and validating on the fly.
/// Live state is the read buffer plus the call-stack of open
/// invocations — independent of the number of events.
///
/// Any error while decoding the body comes back as
/// [`TraceError::CorruptStream`] naming the process and the byte offset
/// within the file; the cursor then *fuses* (yields `None` forever). A
/// stream that ends with open invocations is an error too, and so is
/// whatever breaks its format's end-of-stream rule: trailing bytes after
/// an archive stream's declared records, or a PVT rank not followed by a
/// record count or the trailer. Consuming a cursor to completion
/// certifies the stream exactly as the batch reader would.
#[derive(Debug)]
pub struct StreamCursor<R: BufRead> {
    reader: CountingReader<R>,
    process: ProcessId,
    shape: RegistryShape,
    remaining: u64,
    prev_time: u64,
    stack: Vec<FunctionId>,
    end: StreamEnd,
    /// The next PVT rank's record count, once this rank has ended.
    next: Option<u64>,
    done: bool,
    poisoned: bool,
}

impl<R: BufRead> StreamCursor<R> {
    /// Opens a cursor over a PVTS stream file body: verifies the magic
    /// and the declared process index, then positions before the first
    /// record. Header-level damage is reported as plain
    /// [`TraceError::Corrupt`] (there is no trustworthy offset yet).
    pub fn open_stream(reader: R, process: ProcessId, shape: RegistryShape) -> TraceResult<Self> {
        let mut reader = CountingReader::new(reader);
        let mut magic = [0u8; 4];
        reader
            .read_exact(&mut magic)
            .map_err(|_| TraceError::Corrupt(format!("truncated stream header of {process}")))?;
        if &magic != STREAM_MAGIC {
            return Err(TraceError::Corrupt(format!(
                "bad stream magic for {process}"
            )));
        }
        let declared = read_u64(&mut reader)?;
        if declared != process.index() as u64 {
            return Err(TraceError::Corrupt(format!(
                "stream file of {process} declares process {declared}"
            )));
        }
        StreamCursor::new(reader, process, shape, StreamEnd::EndOfFile)
    }

    /// Reads the stream's record count from `reader` and positions
    /// before its first record; `end` is what must follow the last one.
    pub(crate) fn new(
        mut reader: CountingReader<R>,
        process: ProcessId,
        shape: RegistryShape,
        end: StreamEnd,
    ) -> TraceResult<Self> {
        let remaining = read_u64(&mut reader)?;
        Ok(StreamCursor {
            reader,
            process,
            shape,
            remaining,
            prev_time: 0,
            stack: Vec::new(),
            end,
            next: None,
            done: false,
            poisoned: false,
        })
    }

    /// The cursor of the next rank of a PVT file, over the same reader.
    /// `None` until this rank has ended cleanly, after the last rank
    /// (whose end checked the trailer), and for an archive stream.
    pub fn next_rank(self) -> Option<StreamCursor<R>> {
        let remaining = self.next?;
        Some(StreamCursor {
            process: ProcessId::from_index(self.process.index() + 1),
            remaining,
            prev_time: 0,
            next: None,
            done: false,
            ..self
        })
    }

    /// The process this cursor decodes.
    pub fn process(&self) -> ProcessId {
        self.process
    }

    /// Records left to decode (per the stream's declared count).
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Bytes consumed from the file so far (for a PVT rank, from the
    /// start of the file).
    pub fn byte_offset(&self) -> u64 {
        self.reader.offset()
    }

    /// The underlying reader (e.g. to ask a [`FileReader`] whether it
    /// is mapped).
    pub fn get_ref(&self) -> &R {
        self.reader.get_ref()
    }

    fn fail(&mut self, source: TraceError) -> TraceError {
        self.poisoned = true;
        TraceError::CorruptStream {
            process: self.process,
            offset: self.reader.offset(),
            source: Box::new(source),
        }
    }

    /// Checks what follows the last record, per [`StreamEnd`].
    fn check_end(&mut self) -> TraceResult<()> {
        if !self.stack.is_empty() {
            return Err(TraceError::UnbalancedStack {
                process: self.process,
                open_frames: self.stack.len(),
            });
        }
        match self.end {
            StreamEnd::EndOfFile => {
                if self.reader.read(&mut [0u8; 1])? > 0 {
                    return Err(TraceError::Corrupt(
                        "trailing bytes after final record".into(),
                    ));
                }
            }
            StreamEnd::NextRank if self.process.index() + 1 < self.shape.processes => {
                self.next = Some(read_u64(&mut self.reader)?);
            }
            StreamEnd::NextRank => read_trailer(&mut self.reader)?,
        }
        Ok(())
    }

    /// Decodes and validates the next record, `Ok(None)` at a clean end
    /// of stream. After an error the cursor is poisoned and keeps
    /// returning `Ok(None)`.
    pub fn next_record(&mut self) -> TraceResult<Option<EventRecord>> {
        if self.done || self.poisoned {
            return Ok(None);
        }
        if self.remaining == 0 {
            if let Err(e) = self.check_end() {
                return Err(self.fail(e));
            }
            self.done = true;
            return Ok(None);
        }
        let (time, event) = match decode_event(&mut self.reader, self.prev_time) {
            Ok(v) => v,
            Err(e) => return Err(self.fail(e)),
        };
        if let Err(e) = check_event(self.shape, self.process, time, &event, &mut self.stack) {
            return Err(self.fail(e));
        }
        self.prev_time = time;
        self.remaining -= 1;
        Ok(Some(EventRecord::new(Timestamp(time), event)))
    }

    /// Decodes up to `max` records into `out` (cleared first), returning
    /// how many were produced; `Ok(0)` means clean end of stream.
    ///
    /// Semantically identical to calling [`Self::next_record`] `max`
    /// times, but the records of the buffered slice are decoded with one
    /// `fill_buf`/`consume` pair per buffer instead of one per record —
    /// with a mapped file the slice is the entire remaining stream, so
    /// the hot loop is pure index arithmetic, with the timestamp and the
    /// record count held in locals. A record
    /// the slice loop cannot take (it straddles the read window, the
    /// stream ends, a field is malformed or validation fails) is left
    /// unconsumed and goes to `next_record`, which decodes it through
    /// the stream path or reproduces the exact error, offset and
    /// end-of-stream certification of the one-at-a-time path; then the
    /// slice loop resumes. On `Err`, `out` holds the records decoded
    /// before the failure.
    pub fn next_chunk(&mut self, out: &mut Vec<EventRecord>, max: usize) -> TraceResult<usize> {
        out.clear();
        self.append(out, max)?;
        Ok(out.len())
    }

    /// Decodes the rest of the stream into one vector, as
    /// [`next_chunk`](Self::next_chunk) would in chunks.
    pub fn read_all(&mut self) -> TraceResult<Vec<EventRecord>> {
        let mut records = Vec::with_capacity(self.remaining.min(1 << 20) as usize);
        self.append(&mut records, usize::MAX)?;
        Ok(records)
    }

    /// The loop of [`next_chunk`](Self::next_chunk): appends records to
    /// `out` until it holds `max` or the stream ends.
    fn append(&mut self, out: &mut Vec<EventRecord>, max: usize) -> TraceResult<()> {
        while out.len() < max && !self.done && !self.poisoned {
            if self.remaining > 0 {
                if let Ok(buf) = self.reader.fill_buf() {
                    let (used, prev_time, remaining) = decode_slice(
                        buf,
                        self.shape,
                        (self.prev_time, self.remaining),
                        &mut self.stack,
                        out,
                        max,
                    );
                    self.prev_time = prev_time;
                    self.remaining = remaining;
                    self.reader.consume(used);
                }
            }
            if out.len() >= max {
                break;
            }
            match self.next_record()? {
                Some(record) => out.push(record),
                None => break,
            }
        }
        Ok(())
    }
}

/// The slice loop of [`StreamCursor::next_chunk`]: decodes and validates
/// records from the front of `buf` into `out` until `out` holds `max`,
/// the declared count runs out, or a record cannot be taken from the
/// slice. Records the record decoder defers are decoded from the slice
/// by the stream decoder; an error there (a record cut by the end of the
/// slice, or a malformed one) stops the loop without consuming it.
/// Returns the bytes used and the new timestamp and record count; on a
/// validation failure `stack` is left as it was before that record.
#[inline]
fn decode_slice(
    buf: &[u8],
    shape: RegistryShape,
    (mut prev_time, mut remaining): (u64, u64),
    stack: &mut Vec<FunctionId>,
    out: &mut Vec<EventRecord>,
    max: usize,
) -> (usize, u64, u64) {
    let mut pos = 0usize;
    while remaining > 0 && out.len() < max {
        let rest = &buf[pos..];
        let (used, time, event) = match decode_event_slice(rest, prev_time) {
            Some(record) => record,
            None => {
                let mut tail = rest;
                match decode_event_stream(&mut tail, prev_time) {
                    Ok((time, event)) => (rest.len() - tail.len(), time, event),
                    Err(_) => break,
                }
            }
        };
        // A rejected record leaves `stack` unchanged and stays
        // unconsumed, for `next_record` to report.
        if !apply_event(shape, &event, stack) {
            break;
        }
        prev_time = time;
        remaining -= 1;
        out.push(EventRecord::new(Timestamp(time), event));
        pos += used;
    }
    (pos, prev_time, remaining)
}

impl<R: BufRead> Iterator for StreamCursor<R> {
    type Item = TraceResult<EventRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_record() {
            Ok(Some(record)) => Some(Ok(record)),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

/// Read-only handle on a PVTA archive directory, holding the anchor
/// (name, clock, definitions) and handing out per-process
/// [`StreamCursor`]s.
///
/// The handle itself is cheap and immutable (`&ArchiveCursor` is `Sync`),
/// so parallel workers share one and open their own stream cursors:
///
/// ```
/// use perfvar_trace::format::{archive, cursor::ArchiveCursor};
/// use perfvar_trace::prelude::*;
///
/// let mut b = TraceBuilder::new(Clock::microseconds()).with_name("demo");
/// let f = b.define_function("work", FunctionRole::Compute);
/// let p = b.define_process("rank 0");
/// b.process_mut(p).enter(Timestamp(0), f).unwrap();
/// b.process_mut(p).leave(Timestamp(5), f).unwrap();
/// let dir = std::env::temp_dir().join("perfvar-cursor-doc.pvta");
/// archive::write_archive(&b.finish().unwrap(), &dir).unwrap();
///
/// let archive = ArchiveCursor::open(&dir).unwrap();
/// assert_eq!(archive.num_processes(), 1);
/// let events: Vec<_> = archive.stream(p).unwrap().collect::<Result<_, _>>().unwrap();
/// assert_eq!(events.len(), 2);
/// ```
#[derive(Debug)]
pub struct ArchiveCursor {
    dir: PathBuf,
    name: String,
    clock: Clock,
    registry: Registry,
    options: CursorOptions,
}

impl ArchiveCursor {
    /// Opens an archive directory: reads and validates the anchor file
    /// only. No stream file is touched yet. Streams are memory-mapped
    /// where possible; use [`open_with`](ArchiveCursor::open_with) to
    /// control that.
    pub fn open(dir: impl AsRef<Path>) -> TraceResult<ArchiveCursor> {
        ArchiveCursor::open_with(dir, CursorOptions::default())
    }

    /// Like [`open`](ArchiveCursor::open) with explicit
    /// [`CursorOptions`] (mmap on/off, buffered read-buffer size).
    pub fn open_with(dir: impl AsRef<Path>, options: CursorOptions) -> TraceResult<ArchiveCursor> {
        let dir = dir.as_ref();
        let (name, clock, registry) = read_anchor(dir)?;
        Ok(ArchiveCursor {
            dir: dir.to_path_buf(),
            name,
            clock,
            registry,
            options,
        })
    }

    /// The read options streams are opened with.
    pub fn options(&self) -> CursorOptions {
        self.options
    }

    /// The trace name from the anchor.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The trace clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// The definition tables from the anchor.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Number of processes (= stream files) the anchor declares.
    pub fn num_processes(&self) -> usize {
        self.registry.num_processes()
    }

    /// Opens the event cursor of one process's stream file: mapped when
    /// the options (and the platform) allow it, buffered otherwise.
    /// Either way the cursor consumes the identical byte stream, so
    /// error offsets do not depend on the read path.
    pub fn stream(&self, process: ProcessId) -> TraceResult<StreamCursor<FileReader>> {
        let path = self.dir.join(stream_file(process.index()));
        let reader = FileReader::open(&path, self.options.mmap, self.options.read_buffer_bytes)
            .map_err(|e| {
                TraceError::Io(std::io::Error::new(
                    e.kind(),
                    format!("{}: {e}", path.display()),
                ))
            })?;
        StreamCursor::open_stream(reader, process, RegistryShape::of(&self.registry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::archive::write_archive;
    use crate::registry::{FunctionRole, MetricMode};
    use crate::trace::{Trace, TraceBuilder};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn sample(num_processes: usize) -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds()).with_name("cursor sample");
        let f = b.define_function("work", FunctionRole::Compute);
        let barrier = b.define_function("MPI_Barrier", FunctionRole::MpiCollective);
        for pi in 0..num_processes {
            let p = b.define_process(format!("rank {pi}"));
            let w = b.process_mut(p);
            let mut t = pi as u64;
            for _ in 0..10 {
                w.enter(Timestamp(t), f).unwrap();
                t += 4;
                w.enter(Timestamp(t), barrier).unwrap();
                t += 1;
                w.leave(Timestamp(t), barrier).unwrap();
                w.leave(Timestamp(t), f).unwrap();
            }
        }
        b.finish().unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("perfvar-cursor-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn cursor_yields_same_events_as_batch_reader() {
        let t = sample(3);
        let dir = tmp("same.pvta");
        write_archive(&t, &dir).unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();
        assert_eq!(archive.name(), "cursor sample");
        assert_eq!(archive.clock(), t.clock());
        assert_eq!(archive.registry(), t.registry());
        for pid in t.registry().process_ids() {
            let events: Vec<EventRecord> = archive
                .stream(pid)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(events, t.stream(pid).records(), "{pid}");
        }
    }

    #[test]
    fn truncated_tail_names_process_and_offset() {
        let t = sample(3);
        let dir = tmp("trunc.pvta");
        write_archive(&t, &dir).unwrap();
        // Chop the tail off stream 1.
        let path = dir.join(stream_file(1));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let archive = ArchiveCursor::open(&dir).unwrap();
        // Stream 0 still reads clean.
        let ok: Result<Vec<_>, _> = archive.stream(ProcessId(0)).unwrap().collect();
        assert!(ok.is_ok());
        // Stream 1 fails with process id and a positive byte offset.
        let err = archive
            .stream(ProcessId(1))
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        match err {
            TraceError::CorruptStream {
                process, offset, ..
            } => {
                assert_eq!(process, ProcessId(1));
                assert!(offset > 0, "offset {offset}");
                assert!(offset <= bytes.len() as u64);
            }
            other => panic!("expected CorruptStream, got {other}"),
        }
    }

    #[test]
    fn cursor_fuses_after_error() {
        let t = sample(1);
        let dir = tmp("fuse.pvta");
        write_archive(&t, &dir).unwrap();
        let path = dir.join(stream_file(0));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();
        let mut cursor = archive.stream(ProcessId(0)).unwrap();
        let mut saw_err = false;
        for item in cursor.by_ref() {
            if item.is_err() {
                saw_err = true;
                break;
            }
        }
        assert!(saw_err);
        assert!(cursor.next().is_none(), "cursor fuses after an error");
    }

    #[test]
    fn trailing_garbage_rejected() {
        let t = sample(1);
        let dir = tmp("trailing.pvta");
        write_archive(&t, &dir).unwrap();
        let path = dir.join(stream_file(0));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0xAB);
        std::fs::write(&path, &bytes).unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();
        let err = archive
            .stream(ProcessId(0))
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(
            matches!(err, TraceError::CorruptStream { process, .. } if process == ProcessId(0)),
            "{err}"
        );
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn unbalanced_stream_rejected_at_end() {
        // Hand-craft a stream whose declared count covers only the Enter.
        use crate::format::varint::write_u64;
        let t = sample(1);
        let dir = tmp("unbalanced.pvta");
        write_archive(&t, &dir).unwrap();
        let path = dir.join(stream_file(0));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(STREAM_MAGIC);
        write_u64(&mut bytes, 0).unwrap(); // declared index
        write_u64(&mut bytes, 1).unwrap(); // one record
        write_u64(&mut bytes, 0).unwrap(); // tag: Enter
        write_u64(&mut bytes, 5).unwrap(); // delta
        write_u64(&mut bytes, 0).unwrap(); // function 0
        std::fs::write(&path, &bytes).unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();
        let err = archive
            .stream(ProcessId(0))
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(err.to_string().contains("unclosed"), "{err}");
        assert!(matches!(err, TraceError::CorruptStream { .. }));
    }

    #[test]
    fn header_damage_reported_plainly() {
        let t = sample(2);
        let dir = tmp("badhead.pvta");
        write_archive(&t, &dir).unwrap();
        std::fs::write(dir.join(stream_file(0)), b"XXXX").unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();
        let err = archive.stream(ProcessId(0)).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
        // Index mismatch: stream 1's file under stream 0's name.
        std::fs::copy(dir.join(stream_file(1)), dir.join(stream_file(0))).unwrap();
        let err = archive.stream(ProcessId(0)).unwrap_err();
        assert!(err.to_string().contains("declares process"), "{err}");
    }

    #[test]
    fn missing_stream_file_reports_path() {
        let t = sample(2);
        let dir = tmp("missingstream.pvta");
        write_archive(&t, &dir).unwrap();
        std::fs::remove_file(dir.join(stream_file(1))).unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();
        let err = archive.stream(ProcessId(1)).unwrap_err();
        assert!(err.to_string().contains("stream-1.pvts"), "{err}");
    }

    #[test]
    fn mapped_and_buffered_streams_agree() {
        let t = sample(2);
        let dir = tmp("mmapeq.pvta");
        write_archive(&t, &dir).unwrap();
        let mapped = ArchiveCursor::open_with(
            &dir,
            CursorOptions {
                mmap: true,
                ..CursorOptions::default()
            },
        )
        .unwrap();
        // A 64-byte buffer forces plenty of refills on the buffered path.
        let buffered = ArchiveCursor::open_with(
            &dir,
            CursorOptions {
                mmap: false,
                read_buffer_bytes: 64,
            },
        )
        .unwrap();
        for pid in t.registry().process_ids() {
            let a: Vec<_> = mapped
                .stream(pid)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            let b: Vec<_> = buffered
                .stream(pid)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(a, b, "{pid}");
        }
    }

    #[test]
    fn mapped_and_buffered_error_offsets_agree() {
        let t = sample(1);
        let dir = tmp("mmaperr.pvta");
        write_archive(&t, &dir).unwrap();
        let path = dir.join(stream_file(0));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let mut offsets = Vec::new();
        for mmap in [true, false] {
            let archive = ArchiveCursor::open_with(
                &dir,
                CursorOptions {
                    mmap,
                    read_buffer_bytes: 64,
                },
            )
            .unwrap();
            let err = archive
                .stream(ProcessId(0))
                .unwrap()
                .collect::<Result<Vec<_>, _>>()
                .unwrap_err();
            match err {
                TraceError::CorruptStream { offset, .. } => offsets.push(offset),
                other => panic!("mmap={mmap}: expected CorruptStream, got {other}"),
            }
        }
        assert_eq!(
            offsets[0], offsets[1],
            "offsets must not depend on the read path"
        );
    }

    #[test]
    fn next_chunk_matches_next_record() {
        let t = sample(2);
        let dir = tmp("chunkeq.pvta");
        write_archive(&t, &dir).unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();
        for pid in t.registry().process_ids() {
            let singles: Vec<_> = archive
                .stream(pid)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            // Chunk sizes below, at, and above the stream length.
            for max in [1, 7, singles.len(), singles.len() + 9] {
                let mut cursor = archive.stream(pid).unwrap();
                let mut chunked = Vec::new();
                let mut chunk = Vec::new();
                while cursor.next_chunk(&mut chunk, max).unwrap() > 0 {
                    chunked.extend(chunk.iter().copied());
                }
                assert_eq!(chunked, singles, "{pid} max={max}");
                assert!(cursor.next_record().unwrap().is_none());
            }
        }
    }

    #[test]
    fn next_chunk_reports_the_same_error_as_next_record() {
        let t = sample(1);
        let dir = tmp("chunkerr.pvta");
        write_archive(&t, &dir).unwrap();
        let path = dir.join(stream_file(0));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();

        let mut singles = Vec::new();
        let mut cursor = archive.stream(ProcessId(0)).unwrap();
        let single_err = loop {
            match cursor.next_record() {
                Ok(Some(r)) => singles.push(r),
                Ok(None) => panic!("truncated stream decoded clean"),
                Err(e) => break e,
            }
        };

        let mut chunked = Vec::new();
        let mut cursor = archive.stream(ProcessId(0)).unwrap();
        let mut chunk = Vec::new();
        let chunk_err = loop {
            match cursor.next_chunk(&mut chunk, 8) {
                Ok(0) => panic!("truncated stream decoded clean"),
                Ok(_) => chunked.extend(chunk.iter().copied()),
                Err(e) => {
                    // On error the chunk holds the records decoded
                    // before the offending one.
                    chunked.extend(chunk.iter().copied());
                    break e;
                }
            }
        };

        assert_eq!(chunked, singles, "events before the error must agree");
        assert_eq!(chunk_err.to_string(), single_err.to_string());
        match (chunk_err, single_err) {
            (
                TraceError::CorruptStream { offset: a, .. },
                TraceError::CorruptStream { offset: b, .. },
            ) => assert_eq!(a, b, "error offsets must not depend on chunking"),
            other => panic!("expected CorruptStream pair, got {other:?}"),
        }
    }

    /// Writes `value` as a LEB128 varint of exactly `width` bytes (from
    /// its canonical width up to 10): the missing high groups are zero
    /// bytes under continuation bits, as [`write_u64_padded`] writes at
    /// width 10.
    ///
    /// [`write_u64_padded`]: crate::format::varint::write_u64_padded
    fn write_u64_width(out: &mut Vec<u8>, value: u64, width: usize) {
        for i in 0..width {
            let group = value.checked_shr(7 * i as u32).unwrap_or(0) & 0x7f;
            let more = if i + 1 < width { 0x80 } else { 0 };
            out.push(group as u8 | more);
        }
    }

    fn canonical_width(value: u64) -> usize {
        (64 - value.leading_zeros()).max(1).div_ceil(7) as usize
    }

    /// A value of any magnitude, skewed towards the small ones real
    /// traces carry, with ids around `u32::MAX` and deltas that overflow.
    fn random_value(rng: &mut SmallRng) -> u64 {
        match rng.gen_range(0..8u32) {
            0..=3 => rng.gen_range(0..128u64),
            4 => rng.gen_range(0..1u64 << 21),
            5 => rng.gen::<u64>() >> rng.gen_range(0..64u32),
            6 => u32::MAX as u64 + rng.gen_range(0..3u64),
            _ => u64::MAX - rng.gen_range(0..3u64),
        }
    }

    /// Appends `value` canonically most of the time, else padded to a
    /// random width up to 10 bytes.
    fn push_value(rng: &mut SmallRng, out: &mut Vec<u8>, value: u64) {
        let canonical = canonical_width(value);
        let width = match rng.gen_range(0..10u32) {
            0 => 10,
            1 => rng.gen_range(canonical..11),
            _ => canonical,
        };
        write_u64_width(out, value, width);
    }

    /// A wire-level record stream: all five tags plus unknown ones, each
    /// with its field count (unknown tags with any), fields of every
    /// width.
    fn random_records(rng: &mut SmallRng, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..n {
            let tag = match rng.gen_range(0..20u32) {
                0 => rng.gen_range(5..300u64),
                k => (k % 5) as u64,
            };
            let fields = match tag {
                0 | 1 => 2,
                4 => 3,
                2 | 3 => 4,
                _ => rng.gen_range(0..4usize),
            };
            push_value(rng, &mut out, tag);
            for _ in 0..fields {
                let value = random_value(rng);
                push_value(rng, &mut out, value);
            }
        }
        out
    }

    /// The longest varint in `bytes` (a run of continuation bytes plus
    /// its stop byte).
    fn longest_varint(bytes: &[u8]) -> usize {
        bytes
            .split_inclusive(|b| b & 0x80 == 0)
            .map(<[u8]>::len)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn record_decoder_equals_stream_decoder_on_every_prefix() {
        // At every offset of generated streams and for every cut up to
        // past the longest record, the record decoder either gives
        // exactly what the stream decoder gives — time, event and bytes
        // consumed — or defers; and it defers only what it must.
        let mut rng = SmallRng::seed_from_u64(0x5eed_0015);
        let (mut taken, mut deferred) = (0u64, 0u64);
        for _ in 0..16 {
            let bytes = random_records(&mut rng, 48);
            for start in 0..bytes.len() {
                for end in start..=(start + 56).min(bytes.len()) {
                    let slice = &bytes[start..end];
                    let prev = match rng.gen_range(0..4u32) {
                        0 => u64::MAX - rng.gen_range(0..1u64 << 14),
                        1 => rng.gen(),
                        _ => rng.gen_range(0..1u64 << 40),
                    };
                    let mut rest = slice;
                    let expected = decode_event_stream(&mut rest, prev);
                    let consumed = slice.len() - rest.len();
                    match decode_event_slice(slice, prev) {
                        Some(got) => {
                            let (time, event) = expected.as_ref().unwrap_or_else(|e| {
                                panic!("took a record the stream decoder rejects: {e} {slice:02x?}")
                            });
                            assert_eq!(got, (consumed, *time, *event), "{slice:02x?}");
                            taken += 1;
                        }
                        None => {
                            // Deferring is only allowed outside the
                            // decoder's reach.
                            let in_reach = expected.is_ok()
                                && slice.len() >= RECORD_WINDOW
                                && consumed <= RECORD_WINDOW
                                && slice[0] < 5
                                && longest_varint(&slice[1..consumed]) <= 8;
                            assert!(!in_reach, "deferred a record in reach: {slice:02x?}");
                            deferred += 1;
                        }
                    }
                    // The reader entry point gives the stream decoder's
                    // answer, errors included.
                    let mut reader = slice;
                    let got = decode_event(&mut reader, prev);
                    assert_eq!(format!("{got:?}"), format!("{expected:?}"));
                    assert_eq!(reader.len(), rest.len(), "{slice:02x?}");
                }
            }
        }
        assert!(taken > 10_000 && deferred > 10_000, "{taken} {deferred}");
    }

    /// Two ranks exchanging messages and sampling a metric, `iterations`
    /// times: every record kind, with ids, deltas and values of a few
    /// widths.
    fn every_kind(iterations: u64) -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds()).with_name("every kind");
        let f = b.define_function("work", FunctionRole::Compute);
        let g = b.define_function("MPI_Send", FunctionRole::MpiPointToPoint);
        let m = b.define_metric("CYC", MetricMode::Accumulating, "cycles");
        let (p0, p1) = (b.define_process("rank 0"), b.define_process("rank 1"));
        for (p, peer) in [(p0, p1), (p1, p0)] {
            let w = b.process_mut(p);
            let mut t = 0u64;
            for k in 0..iterations {
                w.enter(Timestamp(t), f).unwrap();
                w.metric(Timestamp(t + 1), m, k * k * 977).unwrap();
                w.enter(Timestamp(t + 2), g).unwrap();
                if p == p0 {
                    w.send(Timestamp(t + 3), peer, (k % 300) as u32, 1 << (k % 40))
                        .unwrap();
                } else {
                    w.recv(Timestamp(t + 3), peer, (k % 300) as u32, 1 << (k % 40))
                        .unwrap();
                }
                w.leave(Timestamp(t + 4), g).unwrap();
                t += 5 + (k * 7919) % 20_000;
                w.leave(Timestamp(t), f).unwrap();
            }
        }
        b.finish().unwrap()
    }

    /// Everything a chunked read of one stream yields: the records before
    /// the first error, and the error (message and offset).
    fn read_chunked(archive: &ArchiveCursor, pid: ProcessId) -> (Vec<EventRecord>, Option<String>) {
        let mut cursor = archive.stream(pid).unwrap();
        let (mut records, mut chunk) = (Vec::new(), Vec::new());
        loop {
            let result = cursor.next_chunk(&mut chunk, 1024);
            records.extend(chunk.iter().copied());
            match result {
                Ok(0) => return (records, None),
                Ok(_) => {}
                Err(e) => return (records, Some(format!("{e:?}"))),
            }
        }
    }

    #[test]
    fn damaged_streams_fail_identically_at_every_read_window() {
        let t = every_kind(12_000);
        let dir = tmp("damaged-windows.pvta");
        write_archive(&t, &dir).unwrap();
        let path = dir.join(stream_file(0));
        let clean = std::fs::read(&path).unwrap();
        let window = CursorOptions::DEFAULT_READ_BUFFER;
        assert!(clean.len() > window + 64 * 1024, "{}", clean.len());
        let mut damages: Vec<Vec<u8>> = Vec::new();
        for cut in [40, 4096 + 3, window + 7, clean.len() - 3] {
            damages.push(clean[..cut].to_vec());
        }
        for (at, bits) in [
            (70, 0x80),
            (5_000, 0x80),
            (window + 9, 0x80),
            (clean.len() / 2, 0x7f),
        ] {
            let mut bytes = clean.clone();
            bytes[at] ^= bits;
            damages.push(bytes);
        }
        let mut failed = 0;
        for (i, bytes) in damages.iter().enumerate() {
            std::fs::write(&path, bytes).unwrap();
            let mut outcomes = Vec::new();
            for mmap in [true, false] {
                for read_buffer_bytes in [64, 4096, window] {
                    let options = CursorOptions {
                        mmap,
                        read_buffer_bytes,
                    };
                    let archive = ArchiveCursor::open_with(&dir, options).unwrap();
                    outcomes.push(read_chunked(&archive, ProcessId(0)));
                }
            }
            // One record at a time through the stream path alone.
            let archive = ArchiveCursor::open(&dir).unwrap();
            let mut cursor = archive.stream(ProcessId(0)).unwrap();
            let mut records = Vec::new();
            let error = loop {
                match cursor.next_record() {
                    Ok(Some(r)) => records.push(r),
                    Ok(None) => break None,
                    Err(e) => break Some(format!("{e:?}")),
                }
            };
            outcomes.push((records, error));
            for (k, outcome) in outcomes.iter().enumerate() {
                assert_eq!(outcome.1, outcomes[0].1, "damage {i}, read path {k}");
                assert!(outcome.0 == outcomes[0].0, "damage {i}, read path {k}");
            }
            failed += usize::from(outcomes[0].1.is_some());
        }
        assert!(failed >= damages.len() - 1, "{failed} of {}", damages.len());
    }

    /// A `BufRead` that counts `consume` calls.
    struct Consumes<R> {
        inner: R,
        calls: usize,
    }

    impl<R: Read> Read for Consumes<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.inner.read(buf)
        }
    }

    impl<R: BufRead> BufRead for Consumes<R> {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            self.inner.fill_buf()
        }

        fn consume(&mut self, amt: usize) {
            self.calls += 1;
            self.inner.consume(amt);
        }
    }

    #[test]
    fn next_chunk_resumes_the_slice_loop_after_a_window_boundary() {
        // A record straddling the buffered read window is decoded through
        // the stream path on its own; the rest of the chunk goes back to
        // the slice loop instead of one `next_record` per record.
        let t = every_kind(4_000);
        let dir = tmp("straddle.pvta");
        write_archive(&t, &dir).unwrap();
        let file = std::fs::File::open(dir.join(stream_file(0))).unwrap();
        let len = file.metadata().unwrap().len() as usize;
        let window = 4096;
        let reader = Consumes {
            inner: std::io::BufReader::with_capacity(window, file),
            calls: 0,
        };
        let shape = RegistryShape::of(t.registry());
        let mut cursor = StreamCursor::open_stream(reader, ProcessId(0), shape).unwrap();
        let (mut chunk, mut records, mut chunks) = (Vec::new(), Vec::new(), 0);
        while cursor.next_chunk(&mut chunk, 1024).unwrap() > 0 {
            records.extend(chunk.iter().copied());
            chunks += 1;
        }
        assert_eq!(records, t.stream(ProcessId(0)).records());
        // Per chunk one slice consume; per window one more, plus one per
        // varint of the straddling record.
        let windows = len.div_ceil(window);
        let calls = cursor.reader.get_ref().calls;
        assert!(
            calls <= chunks + 7 * windows,
            "{calls} consumes for {chunks} chunks, {windows} windows"
        );
    }

    #[test]
    fn empty_stream_is_clean() {
        let mut b = TraceBuilder::new(Clock::microseconds());
        b.define_process("idle");
        let t = b.finish().unwrap();
        let dir = tmp("emptystream.pvta");
        write_archive(&t, &dir).unwrap();
        let archive = ArchiveCursor::open(&dir).unwrap();
        let mut cursor = archive.stream(ProcessId(0)).unwrap();
        assert_eq!(cursor.remaining(), 0);
        assert!(cursor.next_record().unwrap().is_none());
    }
}
