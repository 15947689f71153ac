//! A tiny blocking HTTP client for the daemon's API — used by the CLI
//! smoke checks, the benchmark harness, and the integration tests. Not
//! a general HTTP client: one GET per connection, whole-body reads
//! (chunked transfer encoding is decoded, so the SSE stream endpoint is
//! readable too — the body arrives once the server seals the stream).

use std::io::{Read, Write};
use std::net::TcpStream;

/// One response from the daemon: status code, headers, and complete
/// body (de-chunked when the server used chunked transfer encoding).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpResponse {
    /// The HTTP status code.
    pub status: u16,
    /// Response header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The response body (JSON for every daemon endpoint; SSE framing
    /// for the stream endpoint — see [`sse_events`]).
    pub body: String,
}

impl HttpResponse {
    /// The first value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One parsed `/v1` response envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Whether the request succeeded (`"ok": true`).
    pub ok: bool,
    /// The `data` payload on success.
    pub data: serde_json::Value,
    /// The typed `error.kind` on failure (empty on success).
    pub kind: String,
    /// The `error.message` on failure (empty on success).
    pub message: String,
}

/// Parses a `/v1` envelope body (`{"ok":…,"data":…,"error":…}`).
pub fn parse_envelope(body: &str) -> std::io::Result<Envelope> {
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    let doc: serde_json::Value =
        serde_json::from_str(body).map_err(|e| bad(format!("envelope is not JSON: {e}")))?;
    let field = |name: &str| -> Option<serde_json::Value> {
        match &doc {
            serde_json::Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone()),
            _ => None,
        }
    };
    let ok = matches!(field("ok"), Some(serde_json::Value::Bool(true)));
    let error_field = |name: &str| -> String {
        match field("error") {
            Some(serde_json::Value::Object(fields)) => fields
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| match v {
                    serde_json::Value::String(s) => Some(s.clone()),
                    _ => None,
                })
                .unwrap_or_default(),
            _ => String::new(),
        }
    };
    Ok(Envelope {
        ok,
        data: field("data").unwrap_or(serde_json::Value::Null),
        kind: error_field("kind"),
        message: error_field("message"),
    })
}

/// Issues `GET {target}` against `addr` (e.g. `"127.0.0.1:7787"`,
/// target `"/v1/analyze?path=%2Ftmp%2Ft.pvta"`) and reads the full
/// response.
pub fn get(addr: &str, target: &str) -> std::io::Result<HttpResponse> {
    get_with_headers(addr, target, &[])
}

/// [`get`] plus extra request headers — e.g. `("Last-Event-ID", id)`
/// to resume an SSE stream.
pub fn get_with_headers(
    addr: &str,
    target: &str,
    extra: &[(&str, &str)],
) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    write!(stream, "GET {target} HTTP/1.1\r\nHost: {addr}\r\n")?;
    for (name, value) in extra {
        write!(stream, "{name}: {value}\r\n")?;
    }
    write!(stream, "Connection: close\r\n\r\n")?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(raw)
}

/// One server-sent event, as parsed from an SSE body by [`sse_events`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SseEvent {
    /// The `id:` field (echoed back as `Last-Event-ID` to resume).
    pub id: Option<String>,
    /// The `event:` field (`delta`, `result`, `error`).
    pub event: String,
    /// The `data:` payload (multi-line data joined with `\n`).
    pub data: String,
}

/// Splits a `text/event-stream` body into its events.
pub fn sse_events(body: &str) -> Vec<SseEvent> {
    let mut events = Vec::new();
    for block in body.split("\n\n") {
        let mut id = None;
        let mut event = String::new();
        let mut data: Vec<&str> = Vec::new();
        for line in block.lines() {
            if let Some(v) = line.strip_prefix("id:") {
                id = Some(v.trim().to_string());
            } else if let Some(v) = line.strip_prefix("event:") {
                event = v.trim().to_string();
            } else if let Some(v) = line.strip_prefix("data:") {
                data.push(v.strip_prefix(' ').unwrap_or(v));
            }
        }
        if !event.is_empty() || !data.is_empty() {
            events.push(SseEvent {
                id,
                event,
                data: data.join("\n"),
            });
        }
    }
    events
}

/// Splits a raw response into status, headers and body. The body stays
/// in `raw`'s buffer: a multi-megabyte analysis is validated as UTF-8 but
/// never copied into a second allocation.
fn parse_response(mut raw: Vec<u8>) -> std::io::Result<HttpResponse> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let head_len = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header/body separator"))?;
    let head = String::from_utf8_lossy(&raw[..head_len]).into_owned();
    raw.drain(..head_len + 4);
    let body = String::from_utf8(raw)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    let status_line = head.lines().next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("status line has no numeric code"))?;
    let headers: Vec<(String, String)> = head
        .lines()
        .skip(1)
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    let chunked = headers
        .iter()
        .any(|(name, value)| name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        dechunk(&body).ok_or_else(|| bad("malformed chunked body"))?
    } else {
        body
    };
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// Decodes an HTTP/1.1 chunked body. Tolerates a truncated final chunk
/// (the server died mid-stream): everything decoded so far is returned.
fn dechunk(raw: &str) -> Option<String> {
    let mut out = String::new();
    let mut rest = raw;
    loop {
        let (size_line, tail) = rest.split_once("\r\n")?;
        let size = usize::from_str_radix(size_line.trim(), 16).ok()?;
        if size == 0 {
            return Some(out);
        }
        if tail.len() < size {
            // Truncated mid-chunk: surface what arrived.
            out.push_str(tail);
            return Some(out);
        }
        out.push_str(&tail[..size]);
        rest = tail[size..].strip_prefix("\r\n").unwrap_or(&tail[size..]);
        if rest.is_empty() {
            return Some(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_response() {
        let raw = b"HTTP/1.1 404 Not Found\r\nContent-Length: 3\r\n\r\n{}\n";
        let resp = parse_response(raw.to_vec()).unwrap();
        assert_eq!(resp.status, 404);
        assert_eq!(resp.body, "{}\n");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http at all".to_vec()).is_err());
    }

    #[test]
    fn dechunks_a_chunked_response() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n7\r\n, world\r\n0\r\n\r\n";
        let resp = parse_response(raw.to_vec()).unwrap();
        assert_eq!(resp.body, "hello, world");
        // A stream cut off mid-chunk still yields the received prefix.
        let cut = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nff\r\ntrunc";
        assert_eq!(parse_response(cut.to_vec()).unwrap().body, "trunc");
    }

    #[test]
    fn parses_sse_framing() {
        let body = "id: 00ff\nevent: delta\ndata: {\"new_events\":3}\n\nevent: result\ndata: line1\ndata: line2\n\n";
        let events = sse_events(body);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].id.as_deref(), Some("00ff"));
        assert_eq!(events[0].event, "delta");
        assert_eq!(events[0].data, "{\"new_events\":3}");
        assert_eq!(events[1].data, "line1\nline2");
    }

    #[test]
    fn parses_an_envelope() {
        let ok = parse_envelope("{\"ok\": true, \"data\": {\"status\": \"ok\"}}").unwrap();
        assert!(ok.ok);
        let err = parse_envelope(
            "{\"ok\": false, \"error\": {\"kind\": \"not-found\", \"message\": \"no\", \"detail\": null}}",
        )
        .unwrap();
        assert!(!err.ok);
        assert_eq!(err.kind, "not-found");
        assert_eq!(err.message, "no");
    }
}
