//! The direct JSON writer: [`Serialize::write_json`] renders straight
//! into it, so no document is built as a [`Value`] tree first.
//!
//! [`Serialize::write_json`]: crate::Serialize::write_json
//! [`Value`]: crate::Value

use std::fmt::Write as _;
use std::io;

/// Bytes a sink-backed writer holds before handing them to its sink.
const FLUSH_AT: usize = 64 * 1024;

/// Indentation source: pretty output indents two spaces per level.
const SPACES: &str = "                                                                ";

/// A JSON text writer, compact or pretty (two-space indent), into a
/// `String` or through a bounded buffer into an [`io::Write`] sink.
///
/// Containers are written as `begin_*`, then one [`array_value`] or
/// [`key`] before each member, then `end_*`; an empty container prints
/// as `[]` / `{}`. Numbers and strings follow `serde_json`'s rules:
/// non-finite floats are `null`, whole floats below 1e16 keep a `.0`,
/// and every control character inside a string is escaped, so pretty
/// output has raw newlines only between tokens.
///
/// [`array_value`]: JsonWriter::array_value
/// [`key`]: JsonWriter::key
pub struct JsonWriter<'a> {
    out: String,
    sink: Option<&'a mut dyn io::Write>,
    error: Option<io::Error>,
    /// `out` length at which the buffer goes to the sink; `usize::MAX`
    /// for a writer without one.
    limit: usize,
    pretty: bool,
    level: usize,
    /// No member has been written into the innermost open container.
    first: bool,
}

impl JsonWriter<'static> {
    /// A compact writer into a `String`.
    pub fn compact() -> JsonWriter<'static> {
        JsonWriter::new(None, false, 0)
    }

    /// A pretty writer into a `String` whose output starts `depth`
    /// levels deep: nested lines are indented as if the document were
    /// a member of `depth` enclosing containers, and the first and
    /// last tokens are written without indentation of their own.
    pub fn pretty(depth: usize) -> JsonWriter<'static> {
        JsonWriter::new(None, true, depth)
    }
}

impl<'a> JsonWriter<'a> {
    /// A writer that hands its text to `sink` in bounded chunks;
    /// `pretty` and `depth` as in [`JsonWriter::pretty`]. Call
    /// [`JsonWriter::finish`] to write the rest and see any I/O error.
    pub fn to_sink(sink: &'a mut dyn io::Write, pretty: bool, depth: usize) -> JsonWriter<'a> {
        JsonWriter::new(Some(sink), pretty, depth)
    }

    fn new(sink: Option<&'a mut dyn io::Write>, pretty: bool, depth: usize) -> JsonWriter<'a> {
        let limit = if sink.is_some() { FLUSH_AT } else { usize::MAX };
        JsonWriter {
            out: String::new(),
            sink,
            error: None,
            limit,
            pretty,
            level: depth,
            first: false,
        }
    }

    /// The text written so far (all of it, for a writer without a sink).
    pub fn into_string(self) -> String {
        self.out
    }

    /// Writes what is still buffered to the sink and returns the first
    /// I/O error the sink reported, if any. The sink is not flushed.
    pub fn finish(mut self) -> io::Result<()> {
        self.spill();
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    #[cold]
    fn spill(&mut self) {
        if let Some(sink) = self.sink.as_mut() {
            if self.error.is_none() {
                if let Err(e) = sink.write_all(self.out.as_bytes()) {
                    self.error = Some(e);
                }
            }
            self.out.clear();
        }
    }

    #[inline]
    fn check_spill(&mut self) {
        if self.out.len() >= self.limit {
            self.spill();
        }
    }

    #[inline]
    fn newline_indent(&mut self, level: usize) {
        if self.pretty {
            self.out.push('\n');
            let mut width = 2 * level;
            while width > 0 {
                let n = width.min(SPACES.len());
                self.out.push_str(&SPACES[..n]);
                width -= n;
            }
        }
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, x: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = x;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, x: i64) {
        if x < 0 {
            self.out.push('-');
        }
        self.u64(x.unsigned_abs());
    }

    /// Writes a float: `null` when it is not finite, `{x:.1}` when it is
    /// whole and below 1e16 in magnitude (so it stays distinguishable
    /// from an integer, as `serde_json` renders it), `{x}` otherwise.
    pub fn f64(&mut self, x: f64) {
        if !x.is_finite() {
            self.out.push_str("null");
        } else if x == x.trunc() && x.abs() < 1e16 {
            // Exact: a whole float below 1e16 fits a u64 without loss.
            if x.is_sign_negative() {
                self.out.push('-');
            }
            self.u64(x.abs() as u64);
            self.out.push_str(".0");
        } else {
            let _ = write!(self.out, "{x}");
        }
    }

    /// Writes a JSON string with `serde_json`'s escapes: `"` and `\`,
    /// the short forms `\n \r \t \b \f`, and `\u00XX` for every other
    /// control character. Everything else, non-ASCII included, is
    /// written as is.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        let bytes = s.as_bytes();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0c => "\\f",
                0..=0x1f => "",
                _ => continue,
            };
            // Every escaped byte is ASCII, so `start..i` and `i + 1..`
            // are character boundaries.
            self.out.push_str(&s[start..i]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{:04x}", b);
            } else {
                self.out.push_str(escape);
            }
            start = i + 1;
        }
        self.out.push_str(&s[start..]);
        self.out.push('"');
        self.check_spill();
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.out.push('[');
        self.level += 1;
        self.first = true;
    }

    /// Starts the next element of the innermost open array.
    #[inline]
    pub fn array_value(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline_indent(self.level);
        self.check_spill();
    }

    /// Closes the innermost open array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.out.push('{');
        self.level += 1;
        self.first = true;
    }

    /// Starts the next member of the innermost open object: writes its
    /// key and the `:` separator; the member's value follows.
    #[inline]
    pub fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline_indent(self.level);
        self.str(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Closes the innermost open object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    fn close(&mut self, bracket: char) {
        self.level -= 1;
        if !self.first {
            self.newline_indent(self.level);
        }
        // The closed container is a written member of its parent.
        self.first = false;
        self.out.push(bracket);
    }
}
