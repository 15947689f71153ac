//! The multi-file **PVTA** trace archive.
//!
//! Large-scale tracing infrastructures (OTF2, the substrate of the
//! paper's tools) store one *anchor* file with the definitions plus one
//! event file per location, so ranks write without coordination and
//! analysis tools read streams in parallel. PVTA mirrors that layout:
//!
//! ```text
//! mytrace.pvta/
//!   anchor.pvtd          magic "PVTD": version, name, clock, definitions
//!   stream-0.pvts        magic "PVTS": process index, delta-coded events
//!   stream-1.pvts
//!   …
//! ```
//!
//! [`read_archive`] decodes the streams through an
//! [`ArchiveCursor`]'s stream cursors with multiple threads (std scoped
//! threads; the per-stream decoding dominates and is independent) and
//! validates the assembled trace.

use super::cursor::ArchiveCursor;
use super::pvt::{read_registry, write_registry, write_stream_events};
use super::varint::{read_string, read_u64, write_string, write_u64};
use crate::error::{TraceError, TraceResult};
use crate::ids::ProcessId;
use crate::time::Clock;
use crate::trace::{EventStream, Trace};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

const ANCHOR_MAGIC: &[u8; 4] = b"PVTD";
pub(crate) const STREAM_MAGIC: &[u8; 4] = b"PVTS";
/// Archive format version.
pub const VERSION: u64 = 1;

/// Name of the anchor file inside an archive directory.
pub const ANCHOR_FILE: &str = "anchor.pvtd";

/// Stream file name for process `i`.
pub fn stream_file(i: usize) -> String {
    format!("stream-{i}.pvts")
}

/// Writes `trace` as an archive directory at `dir` (created if missing;
/// existing stream/anchor files are overwritten).
pub fn write_archive(trace: &Trace, dir: impl AsRef<Path>) -> TraceResult<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    {
        let mut w = BufWriter::new(File::create(dir.join(ANCHOR_FILE))?);
        w.write_all(ANCHOR_MAGIC)?;
        write_u64(&mut w, VERSION)?;
        write_string(&mut w, &trace.name)?;
        write_u64(&mut w, trace.clock().ticks_per_second)?;
        write_registry(trace.registry(), &mut w)?;
        w.flush()?;
    }
    for (i, stream) in trace.streams().iter().enumerate() {
        let mut w = BufWriter::new(File::create(dir.join(stream_file(i)))?);
        w.write_all(STREAM_MAGIC)?;
        write_u64(&mut w, i as u64)?;
        write_stream_events(stream.records(), &mut w)?;
        w.flush()?;
    }
    Ok(())
}

/// Reads the anchor file: name, clock, and definition tables. Shared by
/// [`ArchiveCursor`] and the live archive's tail.
pub(crate) fn read_anchor(dir: &Path) -> TraceResult<(String, Clock, crate::registry::Registry)> {
    let mut r = BufReader::new(File::open(dir.join(ANCHOR_FILE)).map_err(|e| {
        TraceError::Io(std::io::Error::new(
            e.kind(),
            format!("{}: {e}", dir.join(ANCHOR_FILE).display()),
        ))
    })?);
    read_anchor_body(&mut r).map_err(super::truncated_header_as_corrupt)
}

fn read_anchor_body<R: BufRead>(
    r: &mut R,
) -> TraceResult<(String, Clock, crate::registry::Registry)> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != ANCHOR_MAGIC {
        return Err(TraceError::Corrupt("bad anchor magic".into()));
    }
    let version = read_u64(r)?;
    if version != VERSION {
        return Err(TraceError::UnsupportedVersion(version as u32));
    }
    let name = read_string(r)?;
    let ticks = read_u64(r)?;
    if ticks == 0 {
        return Err(TraceError::Corrupt("zero clock resolution".into()));
    }
    let registry = read_registry(r)?;
    Ok((name, Clock::new(ticks), registry))
}

/// Reads an archive directory written by [`write_archive`], decoding
/// streams with up to `threads` worker threads (0 = hardware
/// parallelism). The assembled trace is validated.
pub fn read_archive(dir: impl AsRef<Path>, threads: usize) -> TraceResult<Trace> {
    let archive = ArchiveCursor::open(dir)?;
    let np = archive.num_processes();
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
    .min(np.max(1));

    let read_stream = |i: usize| -> TraceResult<EventStream> {
        let pid = ProcessId::from_index(i);
        let records = archive.stream(pid)?.read_all()?;
        Ok(EventStream::from_records(pid, records))
    };
    let mut slots: Vec<Option<TraceResult<EventStream>>> = (0..np).map(|_| None).collect();
    if threads <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(read_stream(i));
        }
    } else {
        let chunk = np.div_ceil(threads);
        let read_stream = &read_stream;
        std::thread::scope(|scope| {
            for (worker, chunk_slots) in slots.chunks_mut(chunk).enumerate() {
                let start = worker * chunk;
                scope.spawn(move || {
                    for (offset, slot) in chunk_slots.iter_mut().enumerate() {
                        *slot = Some(read_stream(start + offset));
                    }
                });
            }
        });
    }
    let mut streams = Vec::with_capacity(np);
    for slot in slots {
        streams.push(slot.expect("every stream attempted")?);
    }
    let registry = archive.registry().clone();
    Trace::from_parts(archive.name(), archive.clock(), registry, streams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::FunctionRole;
    use crate::time::Timestamp;
    use crate::trace::TraceBuilder;

    fn sample(num_processes: usize) -> Trace {
        let mut b = TraceBuilder::new(Clock::nanoseconds()).with_name("archive sample");
        let f = b.define_function("work", FunctionRole::Compute);
        let mpi = b.define_function("MPI_Barrier", FunctionRole::MpiCollective);
        for pi in 0..num_processes {
            let p = b.define_process(format!("rank {pi}"));
            let w = b.process_mut(p);
            let mut t = pi as u64;
            for _ in 0..20 {
                w.enter(Timestamp(t), f).unwrap();
                t += 3;
                w.enter(Timestamp(t), mpi).unwrap();
                t += 2;
                w.leave(Timestamp(t), mpi).unwrap();
                w.leave(Timestamp(t), f).unwrap();
            }
        }
        b.finish().unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("perfvar-archive-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip_sequential_and_parallel() {
        let t = sample(7);
        let dir = tmp("rt.pvta");
        write_archive(&t, &dir).unwrap();
        assert!(dir.join(ANCHOR_FILE).exists());
        assert!(dir.join(stream_file(6)).exists());
        for threads in [1usize, 2, 4, 0] {
            let back = read_archive(&dir, threads).unwrap();
            assert_eq!(back, t, "threads = {threads}");
        }
    }

    #[test]
    fn empty_trace_archives() {
        let t = TraceBuilder::new(Clock::microseconds()).finish().unwrap();
        let dir = tmp("empty.pvta");
        write_archive(&t, &dir).unwrap();
        let back = read_archive(&dir, 0).unwrap();
        assert_eq!(back.num_processes(), 0);
    }

    #[test]
    fn missing_stream_file_reported() {
        let t = sample(3);
        let dir = tmp("missing.pvta");
        write_archive(&t, &dir).unwrap();
        std::fs::remove_file(dir.join(stream_file(1))).unwrap();
        let err = read_archive(&dir, 2).unwrap_err();
        assert!(err.to_string().contains("stream-1.pvts"), "{err}");
    }

    #[test]
    fn corrupt_anchor_reported() {
        let dir = tmp("badanchor.pvta");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(ANCHOR_FILE), b"XXXX....").unwrap();
        let err = read_archive(&dir, 1).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)));
    }

    #[test]
    fn stream_index_mismatch_reported() {
        let t = sample(2);
        let dir = tmp("swap.pvta");
        write_archive(&t, &dir).unwrap();
        // Swap the two stream files: indices no longer match.
        let a = dir.join(stream_file(0));
        let b = dir.join(stream_file(1));
        let tmp_path = dir.join("swap.tmp");
        std::fs::rename(&a, &tmp_path).unwrap();
        std::fs::rename(&b, &a).unwrap();
        std::fs::rename(&tmp_path, &b).unwrap();
        let err = read_archive(&dir, 1).unwrap_err();
        assert!(err.to_string().contains("declares process"), "{err}");
    }

    #[test]
    fn missing_anchor_reported() {
        let err = read_archive(tmp("nonexistent.pvta"), 1).unwrap_err();
        assert!(err.to_string().contains("anchor.pvtd"));
    }

    #[test]
    fn empty_or_header_only_anchor_is_typed_corrupt() {
        // Regression: truncation inside the anchor header must surface as
        // a typed format error, not a bare I/O EOF.
        let dir = tmp("shortanchor.pvta");
        std::fs::create_dir_all(&dir).unwrap();
        for content in [&b""[..], &b"PV"[..], &b"PVTD\x01"[..]] {
            std::fs::write(dir.join(ANCHOR_FILE), content).unwrap();
            let err = read_archive(&dir, 1).unwrap_err();
            assert!(
                matches!(err, TraceError::Corrupt(_)),
                "{} bytes: {err}",
                content.len()
            );
        }
    }
}
