//! Offline stand-in for `serde`.
//!
//! The build container has no registry access, so the workspace patches
//! `serde` to this crate (see `[patch.crates-io]` in the root
//! `Cargo.toml`). Instead of the full serde data model (visitors,
//! `Serializer`/`Deserializer` dispatch), this stand-in routes
//! everything through one concrete JSON-shaped tree, [`__private::Value`]:
//!
//! * [`Serialize`] converts a value **to** a [`__private::Value`];
//! * [`Deserialize`] reconstructs a value **from** one.
//!
//! The `serde_derive` stand-in generates impls of these two traits for
//! named-field structs and enums, with a few serde attributes (its
//! crate docs list them), and the `serde_json` stand-in renders/parses
//! the tree as JSON text. The subset is exactly what this workspace
//! needs: `#[derive(Serialize, Deserialize)]` plus
//! `serde_json::{to_string, to_string_pretty, from_str, Value}`.
//!
//! Integers are lossless: a JSON number is an `f64`, exact only up to
//! 2^53 in magnitude, so integers beyond that serialize as decimal
//! strings, and only such strings deserialize into integers.
//!
//! An attribute the derive does not support is a compile error naming
//! it:
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! #[serde(deny_unknown_fields)] // error: unsupported container attribute `deny_unknown_fields`
//! struct Strict {
//!     x: u32,
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

/// Support machinery shared by the derive macro and `serde_json`.
///
/// The name mirrors real serde's hidden support module; unlike real
/// serde's, this one is a documented, stable part of the stand-in.
pub mod __private {
    use std::collections::BTreeMap;
    use std::fmt;

    /// A JSON-shaped tree: the single interchange format of the
    /// stand-in (re-exported as `serde_json::Value`).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// JSON `null`.
        Null,
        /// JSON booleans.
        Bool(bool),
        /// JSON numbers (all stored as `f64`; integers beyond 2^53
        /// serialize as [`Value::String`] instead).
        Number(f64),
        /// JSON strings.
        String(String),
        /// JSON arrays.
        Array(Vec<Value>),
        /// JSON objects, ordered by key for deterministic output.
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        /// The object map, if this is an object.
        pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
            match self {
                Value::Object(m) => Some(m),
                _ => None,
            }
        }

        /// The array items, if this is an array.
        pub fn as_array(&self) -> Option<&Vec<Value>> {
            match self {
                Value::Array(a) => Some(a),
                _ => None,
            }
        }

        /// The string contents, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        /// The number as `f64`, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as `u64`, if it is one (see [`crate::Deserialize`]
        /// for integers beyond 2^53).
        pub fn as_u64(&self) -> Option<u64> {
            crate::Deserialize::deserialize(self).ok()
        }

        /// Looks up `key` when this is an object (`None` otherwise).
        pub fn get(&self, key: &str) -> Option<&Value> {
            self.as_object().and_then(|m| m.get(key))
        }
    }

    /// Serialization/deserialization failure: a plain message.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Error {
        message: String,
    }

    impl Error {
        /// An error carrying `message`.
        pub fn custom(message: impl Into<String>) -> Self {
            Error {
                message: message.into(),
            }
        }
    }

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.message)
        }
    }

    impl std::error::Error for Error {}

    /// Reads field `key` of the derived object `v` through `de`. A
    /// flattened field reads the whole object; a missing key reads as
    /// `null` (so `Option` fields default to `None`), unless a container
    /// `default` supplies `fallback`.
    pub fn field<T>(
        v: &Value,
        key: &str,
        flatten: bool,
        de: impl FnOnce(&Value) -> Result<T, Error>,
        fallback: Option<T>,
    ) -> Result<T, Error> {
        let found = if flatten { Some(v) } else { v.get(key) };
        match (found, fallback) {
            (None, Some(fallback)) => Ok(fallback),
            (found, _) => de(found.unwrap_or(&Value::Null))
                .map_err(|e| Error::custom(format!("field `{key}`: {e}"))),
        }
    }

    /// Writes field `key` of a derived object; the entries of a
    /// flattened object join `map` (any other value keeps its key).
    pub fn insert(map: &mut BTreeMap<String, Value>, key: &str, flatten: bool, value: Value) {
        match value {
            Value::Object(entries) if flatten => map.extend(entries),
            value => {
                map.insert(key.to_string(), value);
            }
        }
    }

    /// The object a derived struct or tagged enum reads its fields from.
    pub fn object<'a>(v: &'a Value, ty: &str) -> Result<&'a BTreeMap<String, Value>, Error> {
        v.as_object()
            .ok_or_else(|| Error::custom(format!("expected object for {ty}")))
    }

    /// The variant name of a derived enum: the string itself, or the
    /// string under `tag` of an internally tagged one.
    pub fn variant<'a>(v: &'a Value, tag: Option<&str>, ty: &str) -> Result<&'a str, Error> {
        let name = match tag {
            Some(tag) => object(v, ty)?.get(tag),
            None => Some(v),
        };
        name.and_then(Value::as_str)
            .ok_or_else(|| Error::custom(format!("expected a variant name for {ty}")))
    }

    /// The error for a variant name `ty` does not have.
    pub fn unknown_variant(name: &str, ty: &str) -> Error {
        Error::custom(format!("unknown variant `{name}` for {ty}"))
    }
}

use __private::{Error, Value};

/// Conversion to the stand-in's interchange tree (see crate docs).
pub trait Serialize {
    /// This value as a [`__private::Value`].
    fn serialize(&self) -> Value;
}

/// Reconstruction from the stand-in's interchange tree (see crate
/// docs).
pub trait Deserialize: Sized {
    /// Parses `v` into `Self`.
    ///
    /// # Errors
    ///
    /// Returns [`__private::Error`] when `v` has the wrong shape.
    fn deserialize(v: &Value) -> Result<Self, Error>;
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected boolean")),
        }
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::custom("expected string"))
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::Number(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::custom("expected number"))
    }
}

/// Largest integer magnitude a JSON number (an `f64`) carries exactly.
const MAX_EXACT: u128 = 1 << 53;

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                let i = *self as i128;
                if i.unsigned_abs() > MAX_EXACT {
                    Value::String(i.to_string())
                } else {
                    Value::Number(i as f64)
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let i = match v {
                    Value::Number(n) if n.fract() == 0.0 => *n as i128,
                    // Only the canonical form of an integer beyond 2^53.
                    Value::String(s) => s
                        .parse::<i128>()
                        .ok()
                        .filter(|i| i.unsigned_abs() > MAX_EXACT && i.to_string() == *s)
                        .ok_or_else(|| Error::custom("expected integer"))?,
                    _ => return Err(Error::custom("expected integer")),
                };
                <$t>::try_from(i).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}
int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(x) => x.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            v => T::deserialize(v).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::deserialize)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self) -> Value {
        Value::Array(vec![self.0.serialize(), self.1.serialize()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let a = v
            .as_array()
            .ok_or_else(|| Error::custom("expected array"))?;
        if a.len() != 2 {
            return Err(Error::custom("expected 2-element array"));
        }
        Ok((A::deserialize(&a[0])?, B::deserialize(&a[1])?))
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn serialize(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.serialize()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::custom("expected object"))?
            .iter()
            .map(|(k, x)| Ok((k.clone(), V::deserialize(x)?)))
            .collect()
    }
}
