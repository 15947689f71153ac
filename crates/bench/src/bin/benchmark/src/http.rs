//! The benchmark's HTTP client: whole responses for the `/v1` API and an
//! incremental server-sent-events reader. Unlike the repository's
//! blocking client, every read is bounded by [`TIMEOUT`], so a daemon
//! that stops answering fails the run instead of hanging it, and an
//! event stream is read one chunk at a time, so each event can be timed
//! as it arrives.

use perfvar_server::SseEvent;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest a single read or write may block.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Largest event the reader accepts (a `result` event carries a whole
/// analysis).
const MAX_EVENT_BYTES: usize = 256 << 20;

fn bad(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Sends `GET target` on a fresh connection and reads the response
/// head; returns the status, the header lines and the reader positioned
/// at the body.
fn request(addr: &str, target: &str) -> std::io::Result<(u16, Vec<String>, BufReader<TcpStream>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut head = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the response head".into()));
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        head.push(line.trim_end().to_string());
    }
    let status = head
        .first()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {:?}", head.first())))?;
    Ok((status, head, reader))
}

/// One complete response.
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// `GET target` from `addr`; the daemon closes the connection after a
/// plain response, so the body is everything up to the end.
pub fn get(addr: &str, target: &str) -> std::io::Result<Response> {
    let (status, _, mut reader) = request(addr, target)?;
    let mut body = String::new();
    reader.read_to_string(&mut body)?;
    Ok(Response { status, body })
}

/// One open `text/event-stream` response.
pub struct SseStream {
    reader: BufReader<TcpStream>,
}

impl SseStream {
    /// Opens the stream at `target`; anything but a chunked `200` is an
    /// error.
    pub fn open(addr: &str, target: &str) -> std::io::Result<SseStream> {
        let (status, head, mut reader) = request(addr, target)?;
        if status != 200 {
            let mut rest = String::new();
            let _ = reader.read_to_string(&mut rest);
            return Err(bad(format!("HTTP {status}: {}", rest.trim())));
        }
        if !head
            .iter()
            .any(|h| h.eq_ignore_ascii_case("transfer-encoding: chunked"))
        {
            return Err(bad("event stream is not chunked".into()));
        }
        Ok(SseStream { reader })
    }

    /// A handle that can shut the connection down from another thread,
    /// ending a [`SseStream::next_event`] blocked on it.
    pub fn canceller(&self) -> std::io::Result<TcpStream> {
        self.reader.get_ref().try_clone()
    }

    /// The next event (the daemon sends exactly one per chunk), `None`
    /// at the end of the stream.
    pub fn next_event(&mut self) -> std::io::Result<Option<SseEvent>> {
        let mut size_line = String::new();
        if self.reader.read_line(&mut size_line)? == 0 {
            return Ok(None);
        }
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
        if size == 0 {
            return Ok(None);
        }
        if size > MAX_EVENT_BYTES {
            return Err(bad(format!("{size}-byte event exceeds the reader's bound")));
        }
        let mut chunk = vec![0u8; size + 2];
        self.reader.read_exact(&mut chunk)?;
        chunk.truncate(size);
        let text = String::from_utf8(chunk).map_err(|_| bad("event is not UTF-8".into()))?;
        perfvar_server::sse_events(&text)
            .into_iter()
            .next()
            .map(Some)
            .ok_or_else(|| bad(format!("chunk holds no event: {text:?}")))
    }
}
