//! Blanket and primitive implementations of the facade traits.

use crate::{Deserialize, Error, JsonWriter, Number, Serialize, Value};
use std::collections::{BTreeMap, HashMap};

fn type_err(expected: &str, got: &Value) -> Error {
    Error::custom(format!("expected {expected}, found {}", got.type_name()))
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn write_json(&self, out: &mut JsonWriter<'_>) {
        (**self).write_json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn write_json(&self, out: &mut JsonWriter<'_>) {
        (**self).write_json(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

/// The one printer of a [`Value`] tree: it walks the tree in place.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
    fn write_json(&self, out: &mut JsonWriter<'_>) {
        match self {
            Value::Null => out.null(),
            Value::Bool(b) => out.bool(*b),
            Value::Number(Number::U64(x)) => out.u64(*x),
            Value::Number(Number::I64(x)) => out.i64(*x),
            Value::Number(Number::F64(x)) => out.f64(*x),
            Value::String(s) => out.str(s),
            Value::Array(items) => {
                out.begin_array();
                for item in items {
                    out.array_value();
                    item.write_json(out);
                }
                out.end_array();
            }
            Value::Object(entries) => {
                out.begin_object();
                for (key, val) in entries {
                    out.key(key);
                    val.write_json(out);
                }
                out.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
    fn write_json(&self, out: &mut JsonWriter<'_>) {
        out.bool(*self);
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| type_err("bool", v))
    }
}

macro_rules! impl_unsigned {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                Value::Number(Number::U64(*self as u64))
            }
            fn write_json(&self, out: &mut JsonWriter<'_>) {
                out.u64(*self as u64);
            }
        }
        impl Deserialize for $ty {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_u64().ok_or_else(|| type_err("unsigned integer", v))?;
                <$ty>::try_from(n)
                    .map_err(|_| Error::custom(format!("{n} out of range for {}", stringify!($ty))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                let x = *self as i64;
                if x >= 0 {
                    Value::Number(Number::U64(x as u64))
                } else {
                    Value::Number(Number::I64(x))
                }
            }
            fn write_json(&self, out: &mut JsonWriter<'_>) {
                out.i64(*self as i64);
            }
        }
        impl Deserialize for $ty {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_i64().ok_or_else(|| type_err("integer", v))?;
                <$ty>::try_from(n)
                    .map_err(|_| Error::custom(format!("{n} out of range for {}", stringify!($ty))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        if self.is_finite() {
            Value::Number(Number::F64(*self))
        } else {
            // JSON has no NaN/Infinity; serde_json emits null for them.
            Value::Null
        }
    }
    fn write_json(&self, out: &mut JsonWriter<'_>) {
        out.f64(*self);
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(f64::NAN),
            _ => v.as_f64().ok_or_else(|| type_err("number", v)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        (*self as f64).to_value()
    }
    fn write_json(&self, out: &mut JsonWriter<'_>) {
        out.f64(*self as f64);
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
    fn write_json(&self, out: &mut JsonWriter<'_>) {
        out.str(self);
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
    fn write_json(&self, out: &mut JsonWriter<'_>) {
        out.str(self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| type_err("string", v))
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
    fn write_json(&self, out: &mut JsonWriter<'_>) {
        out.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v.as_str().ok_or_else(|| type_err("string", v))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-character string")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
    fn write_json(&self, out: &mut JsonWriter<'_>) {
        match self {
            Some(x) => x.write_json(out),
            None => out.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            _ => T::from_value(v).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, out: &mut JsonWriter<'_>) {
        out.begin_array();
        for item in self {
            out.array_value();
            item.write_json(out);
        }
        out.end_array();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
    fn write_json(&self, out: &mut JsonWriter<'_>) {
        self.as_slice().write_json(out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
    fn write_json(&self, out: &mut JsonWriter<'_>) {
        self.as_slice().write_json(out);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = v.as_array().ok_or_else(|| type_err("array", v))?;
        if items.len() != N {
            return Err(Error::custom(format!(
                "expected array of {N} elements, found {}",
                items.len()
            )));
        }
        let vec: Vec<T> = items.iter().map(T::from_value).collect::<Result<_, _>>()?;
        vec.try_into()
            .map_err(|_| Error::custom("array length mismatch"))
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| type_err("array", v))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+)),+) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
            fn write_json(&self, out: &mut JsonWriter<'_>) {
                out.begin_array();
                $(
                    out.array_value();
                    self.$idx.write_json(out);
                )+
                out.end_array();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v.as_array().ok_or_else(|| type_err("array", v))?;
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(Error::custom(format!(
                        "expected array of {expected} elements, found {}",
                        items.len()
                    )));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )+};
}

impl_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3)
);

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort keys so output is deterministic, like serde_json's BTreeMap.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
    fn write_json(&self, out: &mut JsonWriter<'_>) {
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        write_object(out, entries);
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| type_err("object", v))?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
    fn write_json(&self, out: &mut JsonWriter<'_>) {
        write_object(out, self);
    }
}

fn write_object<'v, V: Serialize + 'v>(
    out: &mut JsonWriter<'_>,
    entries: impl IntoIterator<Item = (&'v String, &'v V)>,
) {
    out.begin_object();
    for (key, val) in entries {
        out.key(key);
        val.write_json(out);
    }
    out.end_object();
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| type_err("object", v))?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
            .collect()
    }
}
