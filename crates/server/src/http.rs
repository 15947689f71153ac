//! Minimal HTTP/1.1 subset for the analysis daemon: GET requests with
//! query strings in, JSON bodies out, one request per connection
//! (`Connection: close`).
//!
//! Parsing is buffer-based, not stream-based: the readiness loop in
//! [`server`](crate::server) accumulates a connection's head bytes
//! without blocking and calls [`parse_request`] once [`head_complete`]
//! says the blank line (or EOF) has arrived. Deliberately not a general
//! HTTP implementation: no keep-alive, no request bodies; the only
//! streaming shape is the *response*-side chunked `text/event-stream`
//! used by `/v1/analyze/stream` ([`write_sse_head`] /
//! [`write_sse_event`] / [`finish_chunked`]). Request lines and heads
//! are size-capped ([`MAX_HEAD_BYTES`]) so a misbehaving client cannot
//! grow server memory.

use std::io::Write;
use std::net::TcpStream;

/// Longest accepted request line (method + target + version).
const MAX_REQUEST_LINE: usize = 16 * 1024;
/// Largest accepted request head (request line + header block). The
/// readiness loop buffers at most this much per connection before
/// answering 400, so slow or malicious clients cannot grow memory.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// One parsed request: the method, the decoded path, the decoded
/// query parameters in order of appearance, and the header block.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Request {
    /// The HTTP method verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The percent-decoded path component of the target.
    pub path: String,
    /// Percent-decoded `key=value` query parameters; a bare `key` (no
    /// `=`) decodes to an empty value, so it doubles as a flag.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs in order of appearance, names
    /// lowercased. Most of the GET-only JSON API ignores them; the SSE
    /// endpoint reads `last-event-id` for resume.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// The first value of query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether query parameter `name` appears at all (flag style).
    pub fn has_param(&self, name: &str) -> bool {
        self.query.iter().any(|(k, _)| k == name)
    }

    /// The first value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Decodes `%XX` escapes in a URL component. Invalid escapes pass
/// through verbatim (lenient, like most servers). `+` is a literal
/// plus: per RFC 3986 it is a valid path character, and `+`-for-space
/// is a form-encoding convention that only applies to query pairs —
/// see [`form_decode`]. Decoding `+` here would make an archive named
/// `run+1.pvta` unservable.
pub fn percent_decode(s: &str) -> String {
    decode_component(s, false)
}

/// Decodes a form-style (`application/x-www-form-urlencoded`) query
/// component: like [`percent_decode`] plus `+`-for-space.
pub fn form_decode(s: &str) -> String {
    decode_component(s, true)
}

fn decode_component(s: &str, plus_is_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex_val(bytes.get(i + 1)), hex_val(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: Option<&u8>) -> Option<u8> {
    match b? {
        b @ b'0'..=b'9' => Some(b - b'0'),
        b @ b'a'..=b'f' => Some(b - b'a' + 10),
        b @ b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Percent-encodes a URL query component: unreserved characters pass
/// through, everything else becomes `%XX`. The inverse of
/// [`percent_decode`] for any input.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' | b'/' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn bad(message: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.into())
}

/// Whether `buf` holds a complete request head: either the blank-line
/// terminator has arrived, or the peer closed the stream (`eof`) and
/// whatever arrived is all there will ever be.
pub fn head_complete(buf: &[u8], eof: bool) -> bool {
    eof || buf.windows(4).any(|w| w == b"\r\n\r\n")
}

/// Parses one request from a buffered head (everything up to and
/// including the blank line; trailing bytes are ignored). Header lines
/// are retained with lowercased names ([`Request::header`]); malformed
/// header lines are skipped, not fatal. Errors on anything that is not
/// a well-formed HTTP/1.x request line.
///
/// This is the readiness loop's half of request handling: the reactor
/// accumulates bytes until [`head_complete`], then hands the buffer to
/// a worker which parses it here — no thread ever blocks on a socket
/// read.
pub fn parse_request(head: &[u8]) -> std::io::Result<Request> {
    let line_end = head
        .windows(2)
        .position(|w| w == b"\r\n")
        .or_else(|| head.iter().position(|&b| b == b'\n'))
        .unwrap_or(head.len());
    if line_end >= MAX_REQUEST_LINE {
        return Err(bad("request line too long"));
    }
    let line = String::from_utf8_lossy(&head[..line_end]);
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let target = parts
        .next()
        .ok_or_else(|| bad("request line has no target"))?;
    let version = parts
        .next()
        .ok_or_else(|| bad("request line has no version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("unsupported protocol {version:?}")));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let query = raw_query
        .map(|q| {
            q.split('&')
                .filter(|pair| !pair.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (form_decode(k), form_decode(v)),
                    None => (form_decode(pair), String::new()),
                })
                .collect()
        })
        .unwrap_or_default();
    let headers = String::from_utf8_lossy(head)
        .lines()
        .skip(1) // the request line
        .take_while(|line| !line.trim().is_empty())
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    Ok(Request {
        method: method.to_string(),
        path: percent_decode(raw_path),
        query,
        headers,
    })
}

/// The standard reason phrase of the status codes the daemon emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes one complete JSON response and flushes it. The connection is
/// closed by the caller afterwards (`Connection: close` is advertised).
pub fn write_response(stream: &TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let mut stream = stream;
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason_phrase(status),
        body.len(),
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Starts a chunked `text/event-stream` response: status line and
/// headers only. Each subsequent [`write_sse_event`] is one HTTP chunk;
/// [`finish_chunked`] sends the terminating zero-length chunk.
pub fn write_sse_head(stream: &TcpStream) -> std::io::Result<()> {
    let mut stream = stream;
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()
}

/// Writes one SSE event as one HTTP chunk and flushes it, so watchers
/// see every event as soon as it is produced. `data` must be a single
/// line (the daemon sends compact JSON); `id` becomes the event id a
/// client echoes back in `Last-Event-ID` to resume.
pub fn write_sse_event(
    stream: &TcpStream,
    id: Option<&str>,
    event: &str,
    data: &str,
) -> std::io::Result<()> {
    let mut frame = String::new();
    if let Some(id) = id {
        frame.push_str(&format!("id: {id}\n"));
    }
    frame.push_str(&format!("event: {event}\ndata: {data}\n\n"));
    write_chunk(stream, frame.as_bytes())
}

/// Writes one HTTP chunk (`{len:x}\r\n…\r\n`) and flushes.
pub fn write_chunk(stream: &TcpStream, data: &[u8]) -> std::io::Result<()> {
    let mut stream = stream;
    write!(stream, "{:x}\r\n", data.len())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminates a chunked response (zero-length chunk) and flushes.
pub fn finish_chunked(stream: &TcpStream) -> std::io::Result<()> {
    let mut stream = stream;
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_round_trip() {
        for s in ["/tmp/trace dir/t.pvta", "a+b&c=d", "naïve", "plain"] {
            assert_eq!(percent_decode(&percent_encode(s)), s, "{s}");
            assert_eq!(form_decode(&percent_encode(s)), s, "{s}");
        }
        // `+` is literal in plain components (RFC 3986), a space only in
        // form-style ones.
        assert_eq!(percent_decode("a%20b+c"), "a b+c");
        assert_eq!(form_decode("a%20b+c"), "a b c");
        // Invalid escapes pass through.
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn plus_survives_in_paths_and_encoded_params() {
        // Regression: the request path must keep `+` literal — an
        // archive named `run+1.pvta` used to become "run 1.pvta".
        let req = parse_request(b"GET /runs/run+1.pvta HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/runs/run+1.pvta");
        // A properly encoded path-valued query param round-trips too.
        let target = format!(
            "GET /analyze?path={} HTTP/1.1\r\n\r\n",
            percent_encode("/tmp/run+1.pvta")
        );
        let req = parse_request(target.as_bytes()).unwrap();
        assert_eq!(req.param("path"), Some("/tmp/run+1.pvta"));
        // Form-style spaces in query pairs still decode.
        let req = parse_request(b"GET /analyze?label=big+run HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.param("label"), Some("big run"));
    }

    #[test]
    fn parses_a_request_head() {
        let head = b"GET /analyze?path=%2Ftmp%2Ft.pvta&partial HTTP/1.1\r\nHost: x\r\n\r\n";
        assert!(head_complete(head, false));
        assert!(!head_complete(b"GET / HTTP/1.1\r\nHost", false));
        assert!(head_complete(b"GET / HTTP/1.1\r\n", true));
        let req = parse_request(head).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/analyze");
        assert_eq!(req.param("path"), Some("/tmp/t.pvta"));
        assert!(req.has_param("partial"));
        assert_eq!(req.header("Host"), Some("x"));
    }

    #[test]
    fn headers_are_retained_case_insensitively_up_to_the_blank_line() {
        let head =
            b"GET /v1/analyze/stream?path=x HTTP/1.1\r\nHost: a\r\nLast-Event-ID: 00ff\r\n\r\nGET /smuggled";
        let req = parse_request(head).unwrap();
        assert_eq!(req.header("last-event-id"), Some("00ff"));
        assert_eq!(req.header("LAST-EVENT-ID"), Some("00ff"));
        assert_eq!(req.header("x-missing"), None);
        // Bytes after the blank line never become headers.
        assert!(req.headers.iter().all(|(k, _)| !k.contains("smuggled")));
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(parse_request(b"").is_err());
        assert!(parse_request(b"GET\r\n\r\n").is_err());
        assert!(parse_request(b"GET /x\r\n\r\n").is_err());
        assert!(parse_request(b"GET /x SPDY/3\r\n\r\n").is_err());
        // A bare-LF request line parses too (lenient, like the reads).
        assert!(parse_request(b"GET /x HTTP/1.0\n\n").is_ok());
    }

    #[test]
    fn request_params() {
        let req = Request {
            method: "GET".into(),
            path: "/analyze".into(),
            query: vec![
                ("path".into(), "/tmp/t.pvta".into()),
                ("partial".into(), String::new()),
            ],
            ..Request::default()
        };
        assert_eq!(req.param("path"), Some("/tmp/t.pvta"));
        assert!(req.has_param("partial"));
        assert!(!req.has_param("metric"));
    }
}
