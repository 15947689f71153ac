//! Offline stand-in for `serde_json`, built on the vendored [`serde`]
//! facade: JSON text rendering of any [`serde::Serialize`] type (written
//! directly, without a [`Value`] tree in between) and parsing into
//! [`Value`] trees.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod parse;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod write;

pub use serde::{Error, JsonWriter, Number, Value};
use std::io;

/// Serializes `value` as a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = JsonWriter::compact();
    value.write_json(&mut out);
    Ok(out.into_string())
}

/// Serializes `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    to_string_pretty_at(value, 0)
}

/// Serializes `value` as pretty-printed JSON that starts `depth` levels
/// deep: the text is exactly what [`to_string_pretty`] writes for a
/// document holding `value` as a member `depth` containers down, from
/// `value`'s first token to its last. Depth 0 is [`to_string_pretty`].
pub fn to_string_pretty_at<T: serde::Serialize + ?Sized>(
    value: &T,
    depth: usize,
) -> Result<String, Error> {
    let mut out = JsonWriter::pretty(depth);
    value.write_json(&mut out);
    Ok(out.into_string())
}

/// Serializes `value` as compact JSON into `writer`, through a bounded
/// buffer: the whole text is never held in memory. The writer is not
/// flushed.
pub fn to_writer<W: io::Write, T: serde::Serialize + ?Sized>(
    writer: W,
    value: &T,
) -> Result<(), Error> {
    write_to(writer, value, false)
}

/// Serializes `value` as pretty-printed JSON into `writer`, like
/// [`to_writer`].
pub fn to_writer_pretty<W: io::Write, T: serde::Serialize + ?Sized>(
    writer: W,
    value: &T,
) -> Result<(), Error> {
    write_to(writer, value, true)
}

fn write_to<W: io::Write, T: serde::Serialize + ?Sized>(
    mut writer: W,
    value: &T,
    pretty: bool,
) -> Result<(), Error> {
    let mut out = JsonWriter::to_sink(&mut writer, pretty, 0);
    value.write_json(&mut out);
    out.finish().map_err(|e| Error::custom(e.to_string()))
}

/// Converts `value` into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Deserializes a value from a JSON string.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    T::from_value(&parse::parse(s)?)
}

/// Deserializes a value from JSON bytes (must be UTF-8).
pub fn from_slice<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::custom(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

/// Builds a [`Value`] from JSON-like syntax.
///
/// Supports object literals with string-literal keys, array literals,
/// `null`, and arbitrary serializable expressions. Nested literal objects
/// or arrays are written by nesting `json!` calls.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $($crate::to_value(&$elem)),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( (String::from($key), $crate::to_value(&$val)) ),*
        ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}
