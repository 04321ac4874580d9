//! Integers are lossless: those a JSON number (an `f64`) cannot carry
//! exactly travel as decimal strings.

use std::collections::BTreeMap;

use serde::__private::Value;
use serde::{Deserialize, Serialize};

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// Serializes `value`, checks the tree, and checks it decodes back.
fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: T, tree: Value) {
    assert_eq!(value.serialize(), tree);
    assert_eq!(T::deserialize(&tree).unwrap(), value);
}

#[test]
fn integers_beyond_two_to_the_53_travel_as_decimal_strings() {
    round_trip(u64::MAX, text("18446744073709551615"));
    round_trip(1u64 << 53, Value::Number(9_007_199_254_740_992.0));
    round_trip((1u64 << 53) + 1, text("9007199254740993"));
    round_trip(i64::MIN, text("-9223372036854775808"));
    round_trip(-7i32, Value::Number(-7.0));

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Wide {
        seed: u64,
    }
    let tree = BTreeMap::from([("seed".to_string(), text("18446744073709551615"))]);
    round_trip(Wide { seed: u64::MAX }, Value::Object(tree));

    // Strings only for integers a number cannot carry, and only in
    // canonical form; no fractions; the target range still applies.
    for bad in [
        text("5"),
        text("+9007199254740993"),
        text("09007199254740993"),
        Value::Number(1.5),
    ] {
        assert!(u64::deserialize(&bad).is_err(), "{bad:?}");
    }
    assert!(u32::deserialize(&text("9007199254740993")).is_err());
    assert!(Vec::<usize>::deserialize(&Value::Array(vec![text("5")])).is_err());
}
