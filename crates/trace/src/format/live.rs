//! Live PVTA archives: write a trace incrementally, read it while it
//! grows.
//!
//! A batch archive ([`super::archive`]) is written once and sealed by
//! construction. A *live* archive is the same directory layout produced
//! while the run is still executing, with two deviations that keep every
//! prefix of it readable:
//!
//! * each stream file's record count is a **fixed-width padded varint**
//!   ([`super::varint::write_u64_padded`]) written as `0` when the file
//!   is created and patched in place on every flush — the writer appends
//!   the event bytes *first* and bumps the count *after*, so a count of
//!   `N` guarantees at least `N` complete records are on disk;
//! * end of run is announced by an empty marker file
//!   ([`FINISHED_FILE`]) in the archive directory.
//!
//! Because all the decoders accept padded varints, a finished live
//! archive is bit-for-bit a valid batch archive: `read_archive`,
//! [`ArchiveCursor`](super::cursor::ArchiveCursor) and `digest_path`
//! work on it unchanged.
//!
//! [`LiveArchiveWriter`] is the producer half (the simulator's `--live`
//! mode); [`ArchiveTail`] is the consumer half — a poll-driven reader
//! that decodes only newly appended bytes, validates them with the same
//! shared `decode_event`/`check_event` machinery as the cursors, keeps a
//! rolling [`PrefixDigest`], and
//! distinguishes *"a record is still in flight"* (wait) from *"the run
//! is sealed but a stream ends mid-record"* (typed
//! [`TraceError::CorruptStream`] with rank and byte offset).

use super::archive::{read_anchor, stream_file, ANCHOR_FILE, STREAM_MAGIC, VERSION};
use super::cursor::{check_event, decode_event, RegistryShape};
use super::digest::PrefixDigest;
use super::pvt::{write_event_record, write_registry};
use super::varint::{
    decode_u64_slice, write_string, write_u64, write_u64_padded, PADDED_U64_BYTES,
};
use crate::error::{TraceError, TraceResult};
use crate::event::EventRecord;
use crate::ids::{FunctionId, ProcessId};
use crate::registry::Registry;
use crate::time::{Clock, Timestamp};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Name of the end-of-run marker file inside a live archive directory.
/// Its presence means the writer is done: every stream's declared count
/// is final and no further bytes will be appended.
pub const FINISHED_FILE: &str = "finished";

/// Whether `dir` carries the end-of-run marker.
pub fn is_finished(dir: impl AsRef<Path>) -> bool {
    dir.as_ref().join(FINISHED_FILE).exists()
}

/// Writes the end-of-run marker into `dir`.
pub fn mark_finished(dir: impl AsRef<Path>) -> TraceResult<()> {
    std::fs::write(dir.as_ref().join(FINISHED_FILE), b"")?;
    Ok(())
}

/// Incremental writer of a growing PVTA archive.
///
/// Created with the full definition tables up front (the anchor is
/// immutable, exactly as in OTF2: definitions first, events forever
/// after). Events are buffered per rank by [`append`](Self::append) and
/// land on disk at [`flush`](Self::flush) boundaries; readers only ever
/// observe whole flushed records. [`finish`](Self::finish) flushes and
/// seals the archive with the [`FINISHED_FILE`] marker.
#[derive(Debug)]
pub struct LiveArchiveWriter {
    dir: PathBuf,
    streams: Vec<LiveStreamWriter>,
}

#[derive(Debug)]
struct LiveStreamWriter {
    file: File,
    count_offset: u64,
    end_offset: u64,
    written: u64,
    buffered: Vec<u8>,
    buffered_records: u64,
    prev_time: u64,
}

impl LiveArchiveWriter {
    /// Creates `dir` (anchor plus one stream file per process, each with
    /// a zero record count) and returns the writer.
    ///
    /// A stale [`FINISHED_FILE`] from a previous run in the same
    /// directory is removed, so tails opened after `create` see a live,
    /// unsealed archive.
    pub fn create(
        dir: impl AsRef<Path>,
        name: &str,
        clock: Clock,
        registry: &Registry,
    ) -> TraceResult<LiveArchiveWriter> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        match std::fs::remove_file(dir.join(FINISHED_FILE)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(TraceError::Io(e)),
        }
        {
            let mut w = std::io::BufWriter::new(File::create(dir.join(ANCHOR_FILE))?);
            w.write_all(b"PVTD")?;
            write_u64(&mut w, VERSION)?;
            write_string(&mut w, name)?;
            write_u64(&mut w, clock.ticks_per_second)?;
            write_registry(registry, &mut w)?;
            w.flush()?;
        }
        let mut streams = Vec::with_capacity(registry.num_processes());
        for i in 0..registry.num_processes() {
            let mut head = Vec::new();
            head.extend_from_slice(STREAM_MAGIC);
            write_u64(&mut head, i as u64)?;
            let count_offset = head.len() as u64;
            write_u64_padded(&mut head, 0)?;
            let mut file = File::create(dir.join(stream_file(i)))?;
            file.write_all(&head)?;
            streams.push(LiveStreamWriter {
                file,
                count_offset,
                end_offset: head.len() as u64,
                written: 0,
                buffered: Vec::new(),
                buffered_records: 0,
                prev_time: 0,
            });
        }
        Ok(LiveArchiveWriter {
            dir: dir.to_path_buf(),
            streams,
        })
    }

    /// Buffers one event for `process`. Timestamps must be monotone per
    /// stream (the wire format is delta-coded).
    pub fn append(&mut self, process: ProcessId, record: &EventRecord) -> TraceResult<()> {
        let stream =
            self.streams
                .get_mut(process.index())
                .ok_or(TraceError::UndefinedReference {
                    kind: "process",
                    index: process.0 as u64,
                })?;
        if record.time.0 < stream.prev_time {
            return Err(TraceError::NonMonotonicTime {
                process,
                previous: crate::time::Timestamp(stream.prev_time),
                attempted: record.time,
            });
        }
        write_event_record(record, stream.prev_time, &mut stream.buffered)?;
        stream.prev_time = record.time.0;
        stream.buffered_records += 1;
        Ok(())
    }

    /// Flushes every rank's buffered events: appends the bytes, then
    /// patches the count slot — in that order, so a reader that observes
    /// count `N` can always decode `N` whole records.
    pub fn flush(&mut self) -> TraceResult<()> {
        for stream in &mut self.streams {
            if stream.buffered.is_empty() {
                continue;
            }
            stream.file.seek(SeekFrom::Start(stream.end_offset))?;
            stream.file.write_all(&stream.buffered)?;
            stream.end_offset += stream.buffered.len() as u64;
            stream.written += stream.buffered_records;
            stream.buffered.clear();
            stream.buffered_records = 0;
            stream.file.flush()?;
            stream.file.seek(SeekFrom::Start(stream.count_offset))?;
            write_u64_padded(&mut stream.file, stream.written)?;
            stream.file.flush()?;
        }
        Ok(())
    }

    /// Records flushed to disk so far for `process`.
    pub fn written(&self, process: ProcessId) -> u64 {
        self.streams[process.index()].written
    }

    /// Flushes and seals the archive with the end-of-run marker. The
    /// result is a valid batch archive.
    pub fn finish(mut self) -> TraceResult<()> {
        self.flush()?;
        mark_finished(&self.dir)
    }
}

/// What one [`ArchiveTail::poll`] observed.
///
/// Carries any decode/validation failure *inline* rather than as a
/// `Result`: a poll that decoded rank 0 cleanly and then hit a torn
/// record in rank 1 still hands rank 0's records to the caller — the
/// analysis folds every good byte and the error names what broke.
#[derive(Debug)]
pub struct TailDelta {
    /// Newly decoded records, one entry per rank that grew this poll.
    pub records: Vec<(ProcessId, Vec<EventRecord>)>,
    /// Payload bytes decoded across all ranks this poll.
    pub new_bytes: u64,
    /// Whether the archive is sealed and every stream was consumed to
    /// its final declared count (clean end of run).
    pub finished: bool,
    /// The failure of the lowest failed rank ([`TraceError::CorruptStream`]
    /// with rank and byte offset for body damage), `None` while every
    /// stream is healthy. Once a stream has failed it stays failed:
    /// every later poll, after the run finished too, reports it again
    /// with the same text. [`ArchiveTail::progress`] says which ranks
    /// failed.
    pub error: Option<TraceError>,
}

/// How far an [`ArchiveTail`] has consumed one rank's stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankProgress {
    /// Records consumed so far (the final count once the stream is
    /// complete).
    pub records: u64,
    /// Timestamp of the newest consumed record; `None` before the first.
    pub last: Option<Timestamp>,
    /// Whether the stream failed. A failed stream stops advancing and
    /// keeps the progress it had.
    pub failed: bool,
}

#[derive(Debug)]
enum TailState {
    /// Stream file missing or its header incomplete — nothing consumed.
    Unopened,
    Open(StreamTail),
    /// Complete; remembers its final progress.
    Done(RankProgress),
    /// Failed; remembers its progress and the failure to re-raise.
    Poisoned(RankProgress, TraceError),
}

/// Tail reader for one rank's stream file.
#[derive(Debug)]
struct StreamTail {
    file: File,
    count_offset: u64,
    count_len: usize,
    /// Final-on-seal record count, re-read from the count slot per poll.
    declared: u64,
    /// Absolute file offset up to which bytes were read into `pending`.
    read_offset: u64,
    /// Absolute file offset up to which bytes were decoded.
    decoded_offset: u64,
    /// Bytes read but not yet decoded (at most one partial record after
    /// a poll, plus any not-yet-counted appends).
    pending: Vec<u8>,
    consumed: u64,
    prev_time: u64,
    stack: Vec<FunctionId>,
}

/// Poll-driven reader of a (possibly still growing) PVTA archive.
///
/// Opens the anchor once, then on every [`poll`](Self::poll) decodes
/// exactly the bytes each stream's declared record count covers and no
/// more — the writer's append-then-count protocol makes that always
/// safe. State per rank is the validation stack plus at most one partial
/// record of buffered bytes, so a tail is as cheap as a cursor.
#[derive(Debug)]
pub struct ArchiveTail {
    dir: PathBuf,
    name: String,
    clock: Clock,
    registry: Registry,
    shape: RegistryShape,
    states: Vec<TailState>,
    digest: PrefixDigest,
    /// Latched once the marker is observed.
    sealed: bool,
    finished: bool,
}

impl ArchiveTail {
    /// Opens a live (or already finished) archive directory. The anchor
    /// must exist and be complete; stream files may lag behind and are
    /// picked up by later polls.
    pub fn open(dir: impl AsRef<Path>) -> TraceResult<ArchiveTail> {
        let dir = dir.as_ref();
        let (name, clock, registry) = read_anchor(dir)?;
        let anchor_bytes = std::fs::read(dir.join(ANCHOR_FILE))?;
        let shape = RegistryShape::of(&registry);
        let np = registry.num_processes();
        Ok(ArchiveTail {
            dir: dir.to_path_buf(),
            name,
            clock,
            registry,
            shape,
            states: (0..np).map(|_| TailState::Unopened).collect(),
            digest: PrefixDigest::new(&anchor_bytes, np),
            sealed: false,
            finished: false,
        })
    }

    /// The trace name from the anchor.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The trace clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// The definition tables (immutable for the lifetime of the run).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Number of processes the anchor declares.
    pub fn num_processes(&self) -> usize {
        self.registry.num_processes()
    }

    /// The archive directory this tail follows.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether the end-of-run marker has been observed.
    pub fn sealed(&self) -> bool {
        self.sealed
    }

    /// Records consumed so far for `process` (its final count once the
    /// stream is complete; payload bytes are
    /// [`PrefixDigest::consumed`]).
    pub fn consumed(&self, process: ProcessId) -> u64 {
        self.progress(process).records
    }

    /// How far the stream of `process` has been consumed, and whether it
    /// failed. Kept through completion and failure alike.
    pub fn progress(&self, process: ProcessId) -> RankProgress {
        match &self.states[process.index()] {
            TailState::Unopened => RankProgress::default(),
            TailState::Open(tail) => tail.progress(false),
            TailState::Done(progress) | TailState::Poisoned(progress, _) => *progress,
        }
    }

    /// The rolling digest over the consumed prefix; two tails that
    /// consumed the same prefix of the same run agree on its
    /// [`fingerprint`](PrefixDigest::fingerprint).
    pub fn prefix_digest(&self) -> &PrefixDigest {
        &self.digest
    }

    /// Decodes everything appended since the last poll.
    pub fn poll(&mut self) -> TailDelta {
        // Seal first, counts after: once the marker is visible, any
        // count read afterwards is the final one.
        if !self.sealed {
            self.sealed = is_finished(&self.dir);
        }
        let mut delta = TailDelta {
            records: Vec::new(),
            new_bytes: 0,
            finished: false,
            error: None,
        };
        let mut all_done = true;
        for index in 0..self.states.len() {
            let process = ProcessId::from_index(index);
            if matches!(self.states[index], TailState::Unopened) {
                let failure = match open_tail(&self.dir, index) {
                    Ok(Some(tail)) => {
                        self.states[index] = TailState::Open(tail);
                        None
                    }
                    Ok(None) if self.sealed => Some(TraceError::Corrupt(format!(
                        "sealed archive is missing {}",
                        stream_file(index)
                    ))),
                    Ok(None) => None,
                    Err(e) => Some(e),
                };
                if let Some(source) = failure {
                    let error = TraceError::CorruptStream {
                        process,
                        offset: 0,
                        source: Box::new(source),
                    };
                    let progress = RankProgress {
                        failed: true,
                        ..RankProgress::default()
                    };
                    self.states[index] = TailState::Poisoned(progress, error);
                }
            }
            match &mut self.states[index] {
                TailState::Done(_) => {}
                TailState::Unopened => all_done = false,
                TailState::Poisoned(_, error) => {
                    if delta.error.is_none() {
                        delta.error = Some(replica(error));
                    }
                    // A poisoned rank can never recover once the run is
                    // sealed; don't hold `finished` hostage to it.
                    if !self.sealed {
                        all_done = false;
                    }
                }
                TailState::Open(tail) => {
                    let mut records = Vec::new();
                    let result = tail.poll(
                        process,
                        self.shape,
                        self.sealed,
                        &mut self.digest,
                        &mut records,
                        &mut delta.new_bytes,
                    );
                    if !records.is_empty() {
                        delta.records.push((process, records));
                    }
                    match result {
                        Ok(true) => self.states[index] = TailState::Done(tail.progress(false)),
                        Ok(false) => all_done = false,
                        Err(e) => {
                            if delta.error.is_none() {
                                delta.error = Some(replica(&e));
                            }
                            self.states[index] = TailState::Poisoned(tail.progress(true), e);
                            all_done = false;
                        }
                    }
                }
            }
        }
        if self.sealed && all_done {
            self.finished = true;
        }
        delta.finished = self.finished;
        delta
    }
}

/// A copy of a recorded stream failure, so later polls re-raise the same
/// variant with the same text.
fn replica(error: &TraceError) -> TraceError {
    match error {
        TraceError::NonMonotonicTime {
            process,
            previous,
            attempted,
        } => TraceError::NonMonotonicTime {
            process: *process,
            previous: *previous,
            attempted: *attempted,
        },
        TraceError::MismatchedLeave {
            process,
            time,
            left,
            expected,
        } => TraceError::MismatchedLeave {
            process: *process,
            time: *time,
            left: *left,
            expected: *expected,
        },
        TraceError::UnbalancedStack {
            process,
            open_frames,
        } => TraceError::UnbalancedStack {
            process: *process,
            open_frames: *open_frames,
        },
        TraceError::UndefinedReference { kind, index } => TraceError::UndefinedReference {
            kind,
            index: *index,
        },
        TraceError::Corrupt(msg) => TraceError::Corrupt(msg.clone()),
        TraceError::UnsupportedVersion(v) => TraceError::UnsupportedVersion(*v),
        TraceError::Io(e) => TraceError::Io(std::io::Error::new(e.kind(), e.to_string())),
        TraceError::CorruptStream {
            process,
            offset,
            source,
        } => TraceError::CorruptStream {
            process: *process,
            offset: *offset,
            source: Box::new(replica(source)),
        },
    }
}

/// Opens one stream file and parses its header. `Ok(None)` while the
/// file or its header has not fully appeared yet.
fn open_tail(dir: &Path, index: usize) -> TraceResult<Option<StreamTail>> {
    let path = dir.join(stream_file(index));
    let mut file = match File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(TraceError::Io(e)),
    };
    // Longest possible header: magic + process-idx varint + count slot.
    let mut head = [0u8; 4 + PADDED_U64_BYTES + PADDED_U64_BYTES];
    let mut filled = 0;
    loop {
        let n = file.read(&mut head[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    let head = &head[..filled];
    if head.len() < 4 {
        return Ok(None);
    }
    if &head[..4] != STREAM_MAGIC {
        return Err(TraceError::Corrupt(format!(
            "bad stream magic for process {index}"
        )));
    }
    let Some((declared_index, idx_len)) = decode_u64_slice(&head[4..]) else {
        return Ok(None);
    };
    if declared_index != index as u64 {
        return Err(TraceError::Corrupt(format!(
            "stream file {index} declares process {declared_index}"
        )));
    }
    let count_offset = 4 + idx_len;
    let Some((declared, count_len)) = decode_u64_slice(&head[count_offset..]) else {
        return Ok(None);
    };
    let header_len = (count_offset + count_len) as u64;
    file.seek(SeekFrom::Start(header_len))?;
    Ok(Some(StreamTail {
        file,
        count_offset: count_offset as u64,
        count_len,
        declared,
        read_offset: header_len,
        decoded_offset: header_len,
        pending: Vec::new(),
        consumed: 0,
        prev_time: 0,
        stack: Vec::new(),
    }))
}

impl StreamTail {
    fn progress(&self, failed: bool) -> RankProgress {
        RankProgress {
            records: self.consumed,
            last: (self.consumed > 0).then_some(Timestamp(self.prev_time)),
            failed,
        }
    }

    /// Wraps a failure in [`TraceError::CorruptStream`] at `offset`
    /// (absolute within the stream file, like the cursors report).
    fn fail(&self, process: ProcessId, offset: u64, source: TraceError) -> TraceError {
        TraceError::CorruptStream {
            process,
            offset,
            source: Box::new(source),
        }
    }

    /// Reads and decodes newly appended bytes. `Ok(true)` once the
    /// stream is complete (sealed + fully consumed + balanced).
    fn poll(
        &mut self,
        process: ProcessId,
        shape: RegistryShape,
        sealed: bool,
        digest: &mut PrefixDigest,
        out: &mut Vec<EventRecord>,
        new_bytes: &mut u64,
    ) -> TraceResult<bool> {
        // Refresh the declared count from its fixed-width slot.
        self.file.seek(SeekFrom::Start(self.count_offset))?;
        let mut slot = [0u8; PADDED_U64_BYTES];
        self.file.read_exact(&mut slot[..self.count_len])?;
        let (declared, used) = decode_u64_slice(&slot[..self.count_len]).ok_or_else(|| {
            self.fail(
                process,
                self.count_offset,
                TraceError::Corrupt("record-count slot no longer decodes".into()),
            )
        })?;
        if used != self.count_len || declared < self.declared {
            return Err(self.fail(
                process,
                self.count_offset,
                TraceError::Corrupt("record-count slot changed shape or shrank".into()),
            ));
        }
        self.declared = declared;

        // Pull everything appended since the last poll into `pending`.
        self.file.seek(SeekFrom::Start(self.read_offset))?;
        let before = self.pending.len();
        self.file.read_to_end(&mut self.pending)?;
        self.read_offset += (self.pending.len() - before) as u64;

        // Decode exactly up to the declared count; the writer's
        // append-then-count order guarantees those bytes are complete.
        let mut pos = 0usize;
        let result = loop {
            if self.consumed >= self.declared {
                break Ok(());
            }
            let mut cursor = std::io::Cursor::new(&self.pending[pos..]);
            match decode_event(&mut cursor, self.prev_time) {
                Ok((time, event)) => {
                    let used = cursor.position() as usize;
                    let at = self.decoded_offset + (pos + used) as u64;
                    if let Err(e) = check_event(shape, process, time, &event, &mut self.stack) {
                        break Err(self.fail(process, at, e));
                    }
                    digest.extend(process.index(), &self.pending[pos..pos + used]);
                    self.prev_time = time;
                    self.consumed += 1;
                    out.push(EventRecord::new(Timestamp(time), event));
                    pos += used;
                }
                Err(TraceError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                    if sealed {
                        // The run is over but this stream ends inside a
                        // record the count slot still promises: a flush
                        // was torn mid-record.
                        let remaining = self.declared - self.consumed;
                        break Err(self.fail(
                            process,
                            self.decoded_offset + pos as u64,
                            TraceError::Corrupt(format!(
                                "stream ends inside a record with {remaining} declared records missing"
                            )),
                        ));
                    }
                    // In-flight append: wait for the rest.
                    break Ok(());
                }
                Err(e) => {
                    break Err(self.fail(process, self.decoded_offset + pos as u64, e));
                }
            }
        };
        self.pending.drain(..pos);
        self.decoded_offset += pos as u64;
        *new_bytes += pos as u64;
        result?;

        if sealed && self.consumed == self.declared {
            if !self.stack.is_empty() {
                let e = TraceError::UnbalancedStack {
                    process,
                    open_frames: self.stack.len(),
                };
                return Err(self.fail(process, self.decoded_offset, e));
            }
            if !self.pending.is_empty() {
                return Err(self.fail(
                    process,
                    self.decoded_offset,
                    TraceError::Corrupt("trailing bytes after final record".into()),
                ));
            }
            return Ok(true);
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::format::archive::read_archive;
    use crate::registry::FunctionRole;
    use crate::time::Timestamp;
    use crate::trace::{Trace, TraceBuilder};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("perfvar-live-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    fn sample(ranks: usize, iterations: u64) -> Trace {
        let mut b = TraceBuilder::new(Clock::microseconds()).with_name("live sample");
        let f = b.define_function("work", FunctionRole::Compute);
        let mpi = b.define_function("MPI_Barrier", FunctionRole::MpiCollective);
        for pi in 0..ranks {
            let p = b.define_process(format!("rank {pi}"));
            let w = b.process_mut(p);
            let mut t = pi as u64;
            for _ in 0..iterations {
                w.enter(Timestamp(t), f).unwrap();
                t += 5;
                w.enter(Timestamp(t), mpi).unwrap();
                t += 2;
                w.leave(Timestamp(t), mpi).unwrap();
                w.leave(Timestamp(t), f).unwrap();
                t += 1;
            }
        }
        b.finish().unwrap()
    }

    /// Writes `trace` live in `chunk`-record slices per rank per flush.
    fn write_live(trace: &Trace, dir: &Path, chunk: usize) {
        let mut w =
            LiveArchiveWriter::create(dir, &trace.name, trace.clock(), trace.registry()).unwrap();
        let mut offsets = vec![0usize; trace.num_processes()];
        loop {
            let mut wrote = false;
            for (i, stream) in trace.streams().iter().enumerate() {
                let records = stream.records();
                let end = (offsets[i] + chunk).min(records.len());
                for r in &records[offsets[i]..end] {
                    w.append(stream.process, r).unwrap();
                }
                wrote |= end > offsets[i];
                offsets[i] = end;
            }
            if !wrote {
                break;
            }
            w.flush().unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn finished_live_archive_is_a_valid_batch_archive() {
        let t = sample(3, 10);
        let dir = tmp("batchable.pvta");
        write_live(&t, &dir, 7);
        assert!(is_finished(&dir));
        let back = read_archive(&dir, 0).unwrap();
        assert_eq!(back, t);
        // The content digest machinery also accepts it.
        super::super::digest::digest_path(&dir).unwrap();
    }

    #[test]
    fn tail_follows_incremental_appends() {
        let t = sample(2, 8);
        let dir = tmp("follow.pvta");
        let mut w = LiveArchiveWriter::create(&dir, &t.name, t.clock(), t.registry()).unwrap();
        let mut tail = ArchiveTail::open(&dir).unwrap();
        let first = tail.poll();
        assert!(first.records.is_empty() && !first.finished);

        let mut seen: Vec<Vec<EventRecord>> = vec![Vec::new(); 2];
        for k in 0..8 {
            for stream in t.streams() {
                for r in &stream.records()[k * 4..k * 4 + 4] {
                    w.append(stream.process, r).unwrap();
                }
            }
            w.flush().unwrap();
            let delta = tail.poll();
            assert!(delta.error.is_none(), "{:?}", delta.error);
            for (p, records) in delta.records {
                seen[p.index()].extend(records);
            }
        }
        w.finish().unwrap();
        let last = tail.poll();
        assert!(last.finished, "marker seals the tail");
        for (i, stream) in t.streams().iter().enumerate() {
            assert_eq!(seen[i], stream.records(), "rank {i}");
        }
    }

    #[test]
    fn prefix_digest_is_chunking_invariant() {
        let t = sample(3, 12);
        let a = tmp("digest-a.pvta");
        let b = tmp("digest-b.pvta");
        write_live(&t, &a, 1);
        write_live(&t, &b, 17);
        let mut ta = ArchiveTail::open(&a).unwrap();
        let mut tb = ArchiveTail::open(&b).unwrap();
        assert!(ta.poll().finished);
        assert!(tb.poll().finished);
        assert_eq!(
            ta.prefix_digest().fingerprint(),
            tb.prefix_digest().fingerprint()
        );
        // And polling a finished tail twice is stable.
        assert!(ta.poll().finished);
    }

    #[test]
    fn unsealed_partial_record_means_wait_not_corrupt() {
        let t = sample(1, 6);
        let dir = tmp("wait.pvta");
        write_live(&t, &dir, 100);
        std::fs::remove_file(dir.join(FINISHED_FILE)).unwrap();
        // Tear the final record *and* lie about nothing: the count slot
        // still declares all records, as if a flush is mid-write.
        let stream = dir.join(stream_file(0));
        let bytes = std::fs::read(&stream).unwrap();
        std::fs::write(&stream, &bytes[..bytes.len() - 1]).unwrap();
        let mut tail = ArchiveTail::open(&dir).unwrap();
        let delta = tail.poll();
        assert!(delta.error.is_none(), "{:?}", delta.error);
        assert!(!delta.finished);
        let events: usize = delta.records.iter().map(|(_, r)| r.len()).sum();
        assert!(events > 0 && events < 24, "decoded {events}");
    }

    #[test]
    fn sealed_torn_append_is_typed_corrupt_with_rank_and_offset() {
        let t = sample(2, 6);
        let dir = tmp("torn.pvta");
        write_live(&t, &dir, 100);
        let stream = dir.join(stream_file(1));
        let bytes = std::fs::read(&stream).unwrap();
        std::fs::write(&stream, &bytes[..bytes.len() - 1]).unwrap();
        let mut tail = ArchiveTail::open(&dir).unwrap();
        let delta = tail.poll();
        // Rank 0 still decodes; rank 1 reports the torn record.
        assert!(delta.records.iter().any(|(p, _)| p.index() == 0));
        match delta.error {
            Some(TraceError::CorruptStream {
                process, offset, ..
            }) => {
                assert_eq!(process.index(), 1);
                assert!(offset > 0);
            }
            other => panic!("expected CorruptStream, got {other:?}"),
        }
        assert!(!delta.finished);
        // The failure latches across polls.
        assert!(tail.poll().error.is_some());
    }

    #[test]
    fn sealed_unbalanced_stream_is_corrupt() {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("f", FunctionRole::Compute);
        let p = b.define_process("p0");
        b.process_mut(p).enter(Timestamp(0), f).unwrap();
        b.process_mut(p).leave(Timestamp(2), f).unwrap();
        let t = b.finish().unwrap();
        let dir = tmp("unbalanced.pvta");
        let mut w = LiveArchiveWriter::create(&dir, &t.name, t.clock(), t.registry()).unwrap();
        // Only the Enter lands before the run "finishes".
        w.append(
            ProcessId::from_index(0),
            &EventRecord::new(Timestamp(0), Event::Enter { function: f }),
        )
        .unwrap();
        w.finish().unwrap();
        let mut tail = ArchiveTail::open(&dir).unwrap();
        let delta = tail.poll();
        match delta.error {
            Some(TraceError::CorruptStream { ref source, .. }) => {
                assert!(
                    matches!(**source, TraceError::UnbalancedStack { .. }),
                    "{source}"
                );
            }
            ref other => panic!("expected CorruptStream, got {other:?}"),
        }
    }

    #[test]
    fn writer_rejects_time_regressions() {
        let t = sample(1, 1);
        let dir = tmp("monotone.pvta");
        let mut w = LiveArchiveWriter::create(&dir, &t.name, t.clock(), t.registry()).unwrap();
        let f = FunctionId(0);
        let p = ProcessId::from_index(0);
        w.append(
            p,
            &EventRecord::new(Timestamp(10), Event::Enter { function: f }),
        )
        .unwrap();
        let err = w
            .append(
                p,
                &EventRecord::new(Timestamp(5), Event::Leave { function: f }),
            )
            .unwrap_err();
        assert!(matches!(err, TraceError::NonMonotonicTime { .. }), "{err}");
    }

    #[test]
    fn tail_waits_for_missing_streams_until_sealed() {
        let t = sample(2, 4);
        let dir = tmp("lagging.pvta");
        write_live(&t, &dir, 100);
        std::fs::remove_file(dir.join(FINISHED_FILE)).unwrap();
        std::fs::remove_file(dir.join(stream_file(1))).unwrap();
        let mut tail = ArchiveTail::open(&dir).unwrap();
        let delta = tail.poll();
        assert!(delta.error.is_none(), "missing stream of a live run waits");
        assert!(!delta.finished);
        mark_finished(&dir).unwrap();
        let delta = tail.poll();
        assert!(
            delta.error.is_some(),
            "missing stream of a sealed run fails"
        );
    }
}
