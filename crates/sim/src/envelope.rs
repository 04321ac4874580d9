//! The checksummed envelope shared by every file format of this crate:
//! checkpoint snapshots (`CPSSNAP`) and sweep manifests (`CPSSWEEP`).
//!
//! A file is one header line, `<MAGIC> <version> <fnv1a64 of payload,
//! 16 hex digits> <payload bytes>`, then the JSON payload: the derived
//! [`Serialize`] tree of the stored value. The checksum lives in the
//! header so it covers the payload bytes verbatim. [`seal`] and [`open`]
//! both refuse a non-finite number, naming its JSON path: JSON cannot
//! carry one (the writer would print `null`, the reader parses `1e999`
//! as infinity).

use std::fs;
use std::io::Write;
use std::path::Path;

use cps_core::CoreError;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// `value` as header + checksummed JSON payload.
pub(crate) fn seal<T: Serialize>(
    magic: &str,
    version: u32,
    value: &T,
) -> Result<Vec<u8>, CoreError> {
    let payload = to_json(value)?;
    Ok(format!("{}\n{payload}", header(magic, version, payload.as_bytes())).into_bytes())
}

/// Verifies the header of `bytes` and decodes the payload as `T`:
/// [`CoreError::SnapshotVersion`] for a version other than `version`,
/// [`CoreError::SnapshotCorrupt`] for any other failure.
pub(crate) fn open<T: Deserialize>(
    magic: &str,
    version: u32,
    bytes: &[u8],
) -> Result<T, CoreError> {
    let newline = bytes.iter().position(|&b| b == b'\n');
    let newline = newline.ok_or_else(|| corrupt("missing header line"))?;
    let (header_line, payload) = (&bytes[..newline], &bytes[newline + 1..]);
    let header_line =
        std::str::from_utf8(header_line).map_err(|_| corrupt("header is not UTF-8"))?;
    let mut parts = header_line.split(' ');
    if parts.next() != Some(magic) {
        return Err(corrupt(format!("bad magic (expected {magic})")));
    }
    let found = parts.next().and_then(|v| v.parse().ok());
    let found: u32 = found.ok_or_else(|| corrupt("unreadable version"))?;
    if found != version {
        let supported = version;
        return Err(CoreError::SnapshotVersion { found, supported });
    }
    // Only the one header `seal` writes for this payload verifies: its
    // canonical checksum and length, and nothing else.
    let expected = header(magic, version, payload);
    if header_line != expected {
        return Err(corrupt(format!(
            "header `{header_line}` does not match the payload (`{expected}`): \
             truncated or damaged"
        )));
    }
    let text = std::str::from_utf8(payload).map_err(|_| corrupt("payload is not UTF-8"))?;
    T::deserialize(&parse(text)?).map_err(|e| corrupt(e.to_string()))
}

/// The header line (without its newline) of `payload`.
fn header(magic: &str, version: u32, payload: &[u8]) -> String {
    let checksum = fnv1a64(payload);
    format!("{magic} {version} {checksum:016x} {}", payload.len())
}

/// Canonical JSON text of `value`: keys sorted, floats in shortest
/// round-trip form, no non-finite number.
pub(crate) fn to_json<T: Serialize>(value: &T) -> Result<String, CoreError> {
    let tree = value.serialize();
    check_finite(&tree)?;
    serde_json::to_string(&tree).map_err(|e| corrupt(e.to_string()))
}

/// Parses JSON text into a tree with only finite numbers.
pub(crate) fn parse(text: &str) -> Result<Value, CoreError> {
    let tree = serde_json::from_str(text).map_err(|e| corrupt(format!("invalid JSON: {e}")))?;
    check_finite(&tree)?;
    Ok(tree)
}

/// Rejects the first non-finite number in `tree`, naming its path.
fn check_finite(tree: &Value) -> Result<(), CoreError> {
    fn path_to_non_finite(v: &Value) -> Option<String> {
        match v {
            Value::Number(n) if !n.is_finite() => Some(String::new()),
            Value::Array(items) => items
                .iter()
                .enumerate()
                .find_map(|(i, item)| path_to_non_finite(item).map(|p| format!("[{i}]{p}"))),
            Value::Object(map) => map
                .iter()
                .find_map(|(key, item)| path_to_non_finite(item).map(|p| format!(".{key}{p}"))),
            _ => None,
        }
    }
    path_to_non_finite(tree).map_or(Ok(()), |path| {
        Err(corrupt(format!("non-finite number at ${path}")))
    })
}

/// `#[serde(with)]` codec of a `u64` digest as 16 lowercase hex digits.
/// Decoding accepts only that spelling, so no two texts decode to the
/// same digest.
pub(crate) mod hex64 {
    use serde::__private::Error;
    use serde_json::Value;

    pub(crate) fn serialize(digest: &u64) -> Value {
        Value::String(format!("{digest:016x}"))
    }

    pub(crate) fn deserialize(v: &Value) -> Result<u64, Error> {
        let digest = v.as_str().and_then(|s| u64::from_str_radix(s, 16).ok());
        let digest = digest.filter(|d| serialize(d) == *v);
        digest.ok_or_else(|| Error::custom("expected 16 lowercase hex digits"))
    }
}

/// `#[serde(with)]` codec of a full-width `u64` that is a decimal
/// string whatever its size (canonical spelling only).
pub(crate) mod decimal {
    use serde::__private::Error;
    use serde_json::Value;

    pub(crate) fn serialize(x: &u64) -> Value {
        Value::String(x.to_string())
    }

    pub(crate) fn deserialize(v: &Value) -> Result<u64, Error> {
        let x = v.as_str().and_then(|s| s.parse().ok());
        let x = x.filter(|x| serialize(x) == *v);
        x.ok_or_else(|| Error::custom("expected a u64 decimal string"))
    }
}

/// `#[serde(with)]` codec of a [`Rect`](cps_geometry::Rect) as
/// `{min_x, min_y, max_x, max_y}`; decoding re-runs `Rect::new`'s
/// checks.
pub(crate) mod region {
    use cps_geometry::{Point2, Rect};
    use serde::__private::Error;
    use serde::{Deserialize, Serialize};
    use serde_json::Value;

    #[derive(Serialize, Deserialize)]
    struct Bounds {
        min_x: f64,
        min_y: f64,
        max_x: f64,
        max_y: f64,
    }

    pub(crate) fn serialize(rect: &Rect) -> Value {
        let (min, max) = (rect.min(), rect.max());
        Bounds {
            min_x: min.x,
            min_y: min.y,
            max_x: max.x,
            max_y: max.y,
        }
        .serialize()
    }

    pub(crate) fn deserialize(v: &Value) -> Result<Rect, Error> {
        let b = Bounds::deserialize(v)?;
        Rect::new(Point2::new(b.min_x, b.min_y), Point2::new(b.max_x, b.max_y))
            .map_err(|e| Error::custom(e.to_string()))
    }
}

/// Writes `bytes` to `path` atomically: temp file in the same
/// directory, fsync, rename, best-effort directory fsync. A crash at
/// any instant leaves either the previous file or the new one, never a
/// torn write.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), CoreError> {
    let tmp = path.with_extension("tmp");
    let write = || -> std::io::Result<()> {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        #[cfg(unix)]
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Make the rename itself durable; best-effort (some
            // filesystems refuse directory fsync).
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    };
    write().map_err(|e| {
        let _ = fs::remove_file(&tmp);
        snapshot_io(path, &e)
    })
}

/// Reads the file at `path` and decodes it with `decode`, naming the
/// path in a corruption error.
pub(crate) fn read<T>(
    path: &Path,
    decode: impl FnOnce(&[u8]) -> Result<T, CoreError>,
) -> Result<T, CoreError> {
    let bytes = fs::read(path).map_err(|e| snapshot_io(path, &e))?;
    decode(&bytes).map_err(|e| match e {
        CoreError::SnapshotCorrupt { reason, .. } => CoreError::SnapshotCorrupt {
            path: path.display().to_string(),
            reason,
        },
        other => other,
    })
}

/// FNV-1a, 64-bit: dependency-free integrity checksum. Not
/// cryptographic — it guards against torn writes and bit rot, not
/// adversaries.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub(crate) fn corrupt(reason: impl Into<String>) -> CoreError {
    CoreError::SnapshotCorrupt {
        path: String::new(),
        reason: reason.into(),
    }
}

pub(crate) fn snapshot_io(path: &Path, e: &std::io::Error) -> CoreError {
    CoreError::SnapshotIo {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_numbers_are_named_by_path() {
        let tree: Value = serde_json::from_str(r#"{"a":[1,{"b":1e999}]}"#).unwrap();
        match check_finite(&tree) {
            Err(CoreError::SnapshotCorrupt { reason, .. }) => {
                assert_eq!(reason, "non-finite number at $.a[1].b");
            }
            other => panic!("expected corruption, got {other:?}"),
        }
        assert!(to_json(&vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn only_canonical_digests_and_seeds_decode() {
        let text = |s: &str| Value::String(s.to_string());
        assert_eq!(hex64::deserialize(&text("00000000000000ff")), Ok(255));
        for bad in [
            "00000000000000FF",
            "ff",
            "+000000000000ff",
            "0x00000000000ff",
        ] {
            assert!(hex64::deserialize(&text(bad)).is_err(), "{bad}");
        }
        assert_eq!(
            decimal::deserialize(&text("18446744073709551615")),
            Ok(u64::MAX)
        );
        for bad in ["+5", "05", "", "18446744073709551616"] {
            assert!(decimal::deserialize(&text(bad)).is_err(), "{bad}");
        }
    }
}
