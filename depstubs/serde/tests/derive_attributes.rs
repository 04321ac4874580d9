//! One round trip per supported derive attribute, checked against
//! hand-built `Value` trees.

use std::collections::BTreeMap;

use serde::__private::Value;
use serde::{Deserialize, Serialize};

fn obj(entries: &[(&str, Value)]) -> Value {
    Value::Object(
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn num(x: f64) -> Value {
    Value::Number(x)
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// Serializes `value`, checks the tree, and checks it decodes back.
fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: T, tree: Value) {
    assert_eq!(value.serialize(), tree);
    assert_eq!(T::deserialize(&tree).unwrap(), value);
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Plain {
    a: u32,
    b: Option<f64>,
    c: Vec<(u8, bool)>,
}

#[test]
fn plain_struct_is_an_object_keyed_by_field_name() {
    let value = Plain {
        a: 7,
        b: None,
        c: vec![(1, true)],
    };
    let pair = Value::Array(vec![num(1.0), Value::Bool(true)]);
    round_trip(
        value,
        obj(&[
            ("a", num(7.0)),
            ("b", Value::Null),
            ("c", Value::Array(vec![pair])),
        ]),
    );
    // A missing `Option` key reads as `None`; a missing other key fails.
    let partial = obj(&[("a", num(1.0)), ("c", Value::Array(vec![]))]);
    assert_eq!(Plain::deserialize(&partial).unwrap().b, None);
    let err = Plain::deserialize(&obj(&[("b", num(1.0))])).unwrap_err();
    assert_eq!(err.to_string(), "field `a`: expected integer");
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
struct Defaulted {
    a: u32,
    b: String,
}

impl Default for Defaulted {
    fn default() -> Self {
        Defaulted {
            a: 5,
            b: "five".to_string(),
        }
    }
}

#[test]
fn container_default_fills_missing_keys() {
    round_trip(
        Defaulted {
            a: 1,
            b: "one".to_string(),
        },
        obj(&[("a", num(1.0)), ("b", text("one"))]),
    );
    let only_a = Defaulted::deserialize(&obj(&[("a", num(9.0))])).unwrap();
    assert_eq!(
        only_a,
        Defaulted {
            a: 9,
            b: "five".to_string()
        }
    );
    // A present key must still fit.
    assert!(Defaulted::deserialize(&obj(&[("a", Value::Null)])).is_err());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
enum Mode {
    Fast,
    SlowAndSteady,
}

#[test]
fn rename_all_lowercase_names_unit_variants() {
    round_trip(Mode::Fast, text("fast"));
    round_trip(Mode::SlowAndSteady, text("slowandsteady"));
    let err = Mode::deserialize(&text("Fast")).unwrap_err();
    assert_eq!(err.to_string(), "unknown variant `Fast` for Mode");
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "lowercase")]
enum Event {
    Moved { x: f64, y: f64 },
    Stopped,
}

#[test]
fn tag_writes_the_variant_name_beside_its_fields() {
    round_trip(
        Event::Moved { x: 1.5, y: -2.0 },
        obj(&[("kind", text("moved")), ("x", num(1.5)), ("y", num(-2.0))]),
    );
    round_trip(Event::Stopped, obj(&[("kind", text("stopped"))]));
    assert!(Event::deserialize(&obj(&[("x", num(1.0))])).is_err());
    assert!(Event::deserialize(&obj(&[("kind", text("jumped"))])).is_err());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Renamed {
    #[serde(rename = "faults")]
    fault_spec: String,
}

#[test]
fn rename_sets_the_key() {
    round_trip(
        Renamed {
            fault_spec: "seed=3".to_string(),
        },
        obj(&[("faults", text("seed=3"))]),
    );
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Point {
    x: f64,
    y: f64,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Node {
    id: u32,
    #[serde(flatten)]
    position: Point,
}

#[test]
fn flatten_lifts_the_inner_object_into_the_parent() {
    round_trip(
        Node {
            id: 3,
            position: Point { x: 1.0, y: 2.0 },
        },
        obj(&[("id", num(3.0)), ("x", num(1.0)), ("y", num(2.0))]),
    );
}

/// A `with` module: a `u32` as a hex string.
mod hex {
    use serde::__private::{Error, Value};

    pub fn serialize(x: &u32) -> Value {
        Value::String(format!("{x:x}"))
    }

    pub fn deserialize(v: &Value) -> Result<u32, Error> {
        v.as_str()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| Error::custom("expected hex"))
    }
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Tagged {
    #[serde(with = "hex")]
    mask: u32,
}

#[test]
fn with_routes_the_field_through_the_module() {
    round_trip(Tagged { mask: 255 }, obj(&[("mask", text("ff"))]));
    let err = Tagged::deserialize(&obj(&[("mask", num(255.0))])).unwrap_err();
    assert_eq!(err.to_string(), "field `mask`: expected hex");
}
