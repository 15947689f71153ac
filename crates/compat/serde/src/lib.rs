//! Offline stand-in for the `serde` crate.
//!
//! The perfvar workspace builds in environments with no crates.io access,
//! so this facade replaces real serde with the minimal surface the
//! workspace uses: `#[derive(Serialize, Deserialize)]` plus JSON
//! round-trips through `serde_json`. Instead of serde's visitor-based
//! data model, both traits convert through a JSON-like [`Value`] tree —
//! ample for the trace/analysis/report types involved, and externally
//! indistinguishable for the formats the workspace writes. Output skips
//! the tree: [`Serialize::write_json`] renders straight into a
//! [`JsonWriter`], so a document is built once, as text.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

mod error;
mod impls;
mod ser;
mod value;

pub use error::Error;
pub use ser::JsonWriter;
pub use value::{Number, Value};

/// Types that can be converted into a [`Value`] tree or written as JSON.
///
/// The derive macro implements both methods field-by-field; `serde_json`
/// produces text through [`Serialize::write_json`].
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;

    /// Writes `self` as JSON into `out`. The default renders
    /// [`Serialize::to_value`], so a hand-written impl that only builds
    /// a [`Value`] prints the same text; derived and std impls override
    /// it and write directly.
    fn write_json(&self, out: &mut JsonWriter<'_>) {
        self.to_value().write_json(out);
    }
}

/// Types that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`], reporting shape mismatches.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(v: &T) -> Value {
    v.to_value()
}

/// Support functions for derive-generated code. Not part of the public API.
#[doc(hidden)]
pub mod __private {
    use super::{Deserialize, Error, Value};

    /// Looks up `name` in an object value and deserializes it.
    pub fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, Error> {
        match v.get(name) {
            Some(f) => T::from_value(f),
            None => Err(Error::custom(format!("missing field `{name}`"))),
        }
    }

    /// Like [`field`] but a `#[serde(default)]` field: absence (or an
    /// explicit `null`) falls back to `default()` instead of erroring.
    pub fn field_or<T: Deserialize>(
        v: &Value,
        name: &str,
        default: impl FnOnce() -> T,
    ) -> Result<T, Error> {
        match v.get(name) {
            Some(Value::Null) | None => Ok(default()),
            Some(f) => T::from_value(f),
        }
    }
}
