//! Offline stand-in for `serde`.
//!
//! The container this workspace builds in has no access to crates.io, so this
//! crate provides the subset of serde the workspace relies on, implemented
//! from scratch:
//!
//! * [`Serialize`] / [`Deserialize`] traits over a self-describing [`Value`]
//!   data model (maps, sequences, scalars) — the same externally-tagged shape
//!   real serde uses for enums, so swapping the real crate back in changes no
//!   on-disk schema.
//! * One-pass JSON: [`Serialize::write_json`] and
//!   [`Deserialize::read_json`] write and read a type straight through the
//!   [`json::Writer`] and [`json::Reader`].  Their provided bodies go
//!   through a [`Value`] tree, which is all a hand-written impl needs; the
//!   derive overrides both, so derived types never build a tree.
//! * `#[derive(Serialize, Deserialize)]` via the sibling `serde_derive`
//!   proc-macro crate (re-exported here, like serde's `derive` feature),
//!   with one field attribute, `#[serde(skip_serializing_if = "path")]`.
//! * A [`json`] module with `to_string` / `to_string_pretty` / `from_str`,
//!   covering what `serde_json` would provide.
//!
//! Only the shapes this workspace actually derives are supported: structs
//! with named fields, newtype/tuple structs, and enums with unit, tuple and
//! struct variants.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

// The derive names this crate `::serde`; the unit tests derive on types of
// their own.
#[cfg(test)]
extern crate self as serde;

use std::collections::BTreeMap;
use std::fmt;

/// The self-describing data model values serialize into.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer.
    UInt(u64),
    /// Signed integer.
    Int(i64),
    /// Floating point number.
    Float(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Map with string keys, in insertion order.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Borrow the map entries if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow the sequence elements if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow the string if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Look up a key in a map value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::UInt(_) | Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }
}

/// Serialization / deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Create an error with a custom message.
    pub fn custom(message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

/// A type that can be converted into the [`Value`] data model.
pub trait Serialize {
    /// Convert `self` into a [`Value`].
    fn to_value(&self) -> Value;

    /// Write `self` as JSON.  The provided body writes `self.to_value()`;
    /// an override must write the same bytes without the tree.
    fn write_json(&self, w: &mut json::Writer) {
        self.to_value().write_json(w);
    }
}

/// A type that can be reconstructed from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Reconstruct `Self` from a [`Value`].
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// Read `Self` from the next JSON value.  The provided body parses a
    /// [`Value`] and calls [`Deserialize::from_value`]; an override must
    /// accept and reject the same documents and return the same values.
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        Self::from_value(&r.value()?)
    }
}

fn expected(what: &str, got: &Value) -> Error {
    Error::custom(format!("expected {what}, got {}", got.type_name()))
}

// ---------------------------------------------------------------------------
// Scalar impls
// ---------------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::UInt(*self as u64) }
            fn write_json(&self, w: &mut json::Writer) { w.uint(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::UInt(n) => n,
                    Value::Int(n) if n >= 0 => n as u64,
                    _ => return Err(expected("unsigned integer", v)),
                };
                <$t>::try_from(n).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Int(*self as i64) }
            fn write_json(&self, w: &mut json::Writer) { w.int(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::Int(n) => n,
                    Value::UInt(n) => {
                        i64::try_from(n).map_err(|_| Error::custom("integer out of range"))?
                    }
                    _ => return Err(expected("integer", v)),
                };
                <$t>::try_from(n).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }

    fn write_json(&self, w: &mut json::Writer) {
        w.float(*self);
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match *v {
            Value::Float(f) => Ok(f),
            Value::UInt(n) => Ok(n as f64),
            Value::Int(n) => Ok(n as f64),
            _ => Err(expected("number", v)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }

    fn write_json(&self, w: &mut json::Writer) {
        w.float(*self as f64);
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn write_json(&self, w: &mut json::Writer) {
        w.bool(*self);
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match *v {
            Value::Bool(b) => Ok(b),
            _ => Err(expected("bool", v)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    fn write_json(&self, w: &mut json::Writer) {
        w.str(self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(expected("string", v)),
        }
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        match r.value()? {
            Value::Str(s) => Ok(s),
            v => Err(expected("string", &v)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn write_json(&self, w: &mut json::Writer) {
        w.str(self);
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn write_json(&self, w: &mut json::Writer) {
        w.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v.as_str().ok_or_else(|| expected("char", v))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-character string")),
        }
    }
}

// ---------------------------------------------------------------------------
// Composite impls
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, w: &mut json::Writer) {
        (**self).write_json(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }

    fn write_json(&self, w: &mut json::Writer) {
        match self {
            Some(t) => t.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        if r.null() {
            Ok(None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, w: &mut json::Writer) {
        w.seq(self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_seq()
            .ok_or_else(|| expected("sequence", v))?
            .iter()
            .map(T::from_value)
            .collect()
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        let mut items = Vec::new();
        r.seq("sequence", |r, _| {
            items.push(T::read_json(r)?);
            Ok(())
        })?;
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, w: &mut json::Writer) {
        w.seq(self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, w: &mut json::Writer) {
        w.seq(self);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        fixed_length(Vec::from_value(v)?)
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        fixed_length(Vec::read_json(r)?)
    }
}

fn fixed_length<T, const N: usize>(items: Vec<T>) -> Result<[T; N], Error> {
    items
        .try_into()
        .map_err(|_| Error::custom(format!("expected sequence of length {N}")))
}

/// Tuples are sequences of exactly their arity.
macro_rules! impl_tuple {
    ($len:literal, $what:literal: $($name:ident $slot:ident $index:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$index.to_value()),+])
            }

            fn write_json(&self, w: &mut json::Writer) {
                w.begin_seq();
                $(w.element(&self.$index);)+
                w.end_seq();
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let s = v.as_seq().ok_or_else(|| expected($what, v))?;
                if s.len() != $len {
                    return Err(Error::custom(concat!("expected sequence of length ", $len)));
                }
                Ok(($($name::from_value(&s[$index])?,)+))
            }

            fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
                let wrong_length = || Error::custom(concat!("expected sequence of length ", $len));
                $(let mut $slot = None;)+
                r.seq($what, |r, i| {
                    match i {
                        $($index => $slot = Some($name::read_json(r)?),)+
                        _ => return Err(wrong_length()),
                    }
                    Ok(())
                })?;
                Ok(($($slot.ok_or_else(wrong_length)?,)+))
            }
        }
    };
}

impl_tuple!(2, "2-tuple": A a 0, B b 1);
impl_tuple!(3, "3-tuple": A a 0, B b 1, C c 2);

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }

    fn write_json(&self, w: &mut json::Writer) {
        w.begin_map();
        for (k, v) in self {
            w.field(k, v);
        }
        w.end_map();
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_map()
            .ok_or_else(|| expected("map", v))?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
            .collect()
    }

    /// A key given twice keeps its last value, as collecting the tree's
    /// entries into a map does.
    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        let mut map = BTreeMap::new();
        r.map("map", |r, key| {
            map.insert(key.into_owned(), V::read_json(r)?);
            Ok(())
        })?;
        Ok(map)
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    /// The tree writer: every [`Value`] and every provided
    /// [`Serialize::write_json`] ends here.
    fn write_json(&self, w: &mut json::Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::UInt(n) => w.uint(*n),
            Value::Int(n) => w.int(*n),
            Value::Float(f) => w.float(*f),
            Value::Str(s) => w.str(s),
            Value::Seq(items) => w.seq(items),
            Value::Map(entries) => {
                w.begin_map();
                for (k, v) in entries {
                    w.field(k, v);
                }
                w.end_map();
            }
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }

    fn read_json(r: &mut json::Reader<'_>) -> Result<Self, Error> {
        r.value()
    }
}

// ---------------------------------------------------------------------------
// Support functions used by the derive-generated code
// ---------------------------------------------------------------------------

/// Deserialize one named field from a map's entries (missing keys behave as
/// `null`, so `Option` fields tolerate absence).
pub fn de_field<T: Deserialize>(map: &[(String, Value)], key: &str) -> Result<T, Error> {
    match map.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_value(v).map_err(|e| Error::custom(format!("field `{key}`: {e}"))),
        None => missing_field(key),
    }
}

/// Deserialize one positional element from a sequence.
pub fn de_index<T: Deserialize>(seq: &[Value], index: usize) -> Result<T, Error> {
    match seq.get(index) {
        Some(v) => T::from_value(v).map_err(|e| Error::custom(format!("index {index}: {e}"))),
        None => Err(missing_element(index)),
    }
}

/// Read the first occurrence of named field `key` (the one [`de_field`]
/// would pick).
pub fn read_field<T: Deserialize>(r: &mut json::Reader<'_>, key: &str) -> Result<T, Error> {
    T::read_json(r).map_err(|e| Error::custom(format!("field `{key}`: {e}")))
}

/// A named field once its map is read: `slot` holds its first occurrence,
/// and an absent key reads as `null`, as in [`de_field`].
pub fn take_field<T: Deserialize>(slot: Option<T>, key: &str) -> Result<T, Error> {
    match slot {
        Some(value) => Ok(value),
        None => missing_field(key),
    }
}

/// Read positional element `index`.
pub fn read_index<T: Deserialize>(r: &mut json::Reader<'_>, index: usize) -> Result<T, Error> {
    T::read_json(r).map_err(|e| Error::custom(format!("index {index}: {e}")))
}

/// A positional element once its sequence is read, as in [`de_index`].
pub fn take_index<T>(slot: Option<T>, index: usize) -> Result<T, Error> {
    slot.ok_or_else(|| missing_element(index))
}

fn missing_field<T: Deserialize>(key: &str) -> Result<T, Error> {
    T::from_value(&Value::Null).map_err(|_| Error::custom(format!("missing field `{key}`")))
}

fn missing_element(index: usize) -> Error {
    Error::custom(format!("missing element {index}"))
}

pub mod json;
