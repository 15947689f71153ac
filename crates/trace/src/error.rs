//! Error type shared across the trace crate.

use crate::ids::{FunctionId, ProcessId};
use crate::time::Timestamp;
use std::fmt;
use std::io;

/// Result alias for trace operations.
pub type TraceResult<T> = Result<T, TraceError>;

/// Errors raised while building, validating, or (de)serialising traces.
#[derive(Debug)]
pub enum TraceError {
    /// Events must be appended in non-decreasing timestamp order.
    NonMonotonicTime {
        /// Process whose stream regressed.
        process: ProcessId,
        /// Timestamp of the previously appended event.
        previous: Timestamp,
        /// Offending (earlier) timestamp.
        attempted: Timestamp,
    },
    /// A `Leave` event did not match the function on top of the call stack.
    MismatchedLeave {
        /// Process whose stream is inconsistent.
        process: ProcessId,
        /// Time of the offending leave.
        time: Timestamp,
        /// The function the leave names.
        left: FunctionId,
        /// The function actually on top of the stack, if any.
        expected: Option<FunctionId>,
    },
    /// End of stream reached with unclosed function invocations.
    UnbalancedStack {
        /// Process whose stream ended mid-call.
        process: ProcessId,
        /// Number of frames still open.
        open_frames: usize,
    },
    /// An event referenced an undefined process/function/metric.
    UndefinedReference {
        /// Which table the dangling reference points into.
        kind: &'static str,
        /// The raw index that was out of range.
        index: u64,
    },
    /// The byte stream is not a valid PVT file.
    Corrupt(String),
    /// The file declares an unsupported format version.
    UnsupportedVersion(u32),
    /// Wrapped I/O error.
    Io(io::Error),
    /// A per-process event stream failed to decode or validate mid-body.
    ///
    /// Raised by the sealed-stream reader
    /// ([`crate::format::cursor::StreamCursor`], under every PVT and PVTA
    /// reader) so that consumers of truncated or corrupt files learn
    /// *which* process broke and *where*: `offset` is the number of bytes
    /// consumed from the file before the error was found, counted from
    /// the start of the stream file in an archive and from the start of
    /// the whole file in a PVT trace.
    CorruptStream {
        /// The process whose stream failed.
        process: ProcessId,
        /// Byte offset into the file at which decoding failed.
        offset: u64,
        /// The underlying decode or validation error.
        source: Box<TraceError>,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::NonMonotonicTime {
                process,
                previous,
                attempted,
            } => write!(
                f,
                "non-monotonic timestamp on {process}: {attempted} after {previous}"
            ),
            TraceError::MismatchedLeave {
                process,
                time,
                left,
                expected,
            } => match expected {
                Some(e) => write!(
                    f,
                    "mismatched leave on {process} at {time}: left {left} but stack top is {e}"
                ),
                None => write!(
                    f,
                    "mismatched leave on {process} at {time}: left {left} with empty stack"
                ),
            },
            TraceError::UnbalancedStack {
                process,
                open_frames,
            } => write!(
                f,
                "stream of {process} ends with {open_frames} unclosed invocation(s)"
            ),
            TraceError::UndefinedReference { kind, index } => {
                write!(f, "event references undefined {kind} #{index}")
            }
            TraceError::Corrupt(msg) => write!(f, "corrupt trace data: {msg}"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported PVT format version {v}")
            }
            TraceError::Io(e) => write!(f, "I/O error: {e}"),
            TraceError::CorruptStream {
                process,
                offset,
                source,
            } => write!(f, "stream of {process} corrupt at byte {offset}: {source}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::CorruptStream { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TraceError::NonMonotonicTime {
            process: ProcessId(3),
            previous: Timestamp(10),
            attempted: Timestamp(5),
        };
        let msg = e.to_string();
        assert!(msg.contains("P3") && msg.contains("5t") && msg.contains("10t"));

        let e = TraceError::MismatchedLeave {
            process: ProcessId(0),
            time: Timestamp(7),
            left: FunctionId(2),
            expected: None,
        };
        assert!(e.to_string().contains("empty stack"));

        let e = TraceError::UnsupportedVersion(99);
        assert!(e.to_string().contains("99"));
    }

    #[test]
    fn corrupt_stream_names_process_and_offset() {
        let e = TraceError::CorruptStream {
            process: ProcessId(3),
            offset: 123,
            source: Box::new(TraceError::Corrupt("unknown event tag 9".into())),
        };
        let msg = e.to_string();
        assert!(msg.contains("P3") && msg.contains("123"), "{msg}");
        assert!(msg.contains("unknown event tag"), "{msg}");
        let src = std::error::Error::source(&e).expect("chained source");
        assert!(src.to_string().contains("unknown event tag"));
    }

    #[test]
    fn io_errors_wrap() {
        let e: TraceError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, TraceError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
