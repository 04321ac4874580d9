//! Robustness of every reader of outside bytes: snapshots, sweep
//! manifests, sweep specs and fault specs.
//!
//! Whatever the input, a reader returns a value or a typed
//! [`CoreError`]; it never panics. Byte mutations of the payloads are
//! re-sealed with a recomputed header checksum, so they reach the
//! payload decoders instead of stopping at the checksum. Non-finite
//! numbers and values that fail validation are rejected by the
//! decoders themselves, not only by the checksum.

use std::fs;
use std::path::{Path, PathBuf};

use cps::core::CoreError;
use cps::sim::{FaultPlan, SimSnapshot, SweepManifest, SweepSpec, SNAPSHOT_VERSION};
use proptest::prelude::*;

/// Digest of the spec the manifest fixture belongs to.
const SPEC_DIGEST: u64 = 0x8cb7_032b_873e_9025;

/// Replacement bytes for the single-byte mutations: digits, JSON
/// structure, a number exponent, the start of `null`, a control byte
/// and a non-UTF-8 byte.
const REPLACEMENTS: [u8; 8] = [b'9', b'-', b'"', b'{', b']', b'e', 0x00, 0xff];

/// A fault spec using every key.
const FAULT_SPEC: &str = "seed=3,kill=5@8,cull=0.1@10,death=0.01,battery=100:0.5:2,\
                          dropout=0.1,outlier=0.1:5,stuck=0.1:3,loss=0.2:2,recovery=on";

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The payload of a `<MAGIC> <version> <checksum> <len>` file.
fn payload(file: &[u8]) -> &[u8] {
    let newline = file.iter().position(|&b| b == b'\n').unwrap();
    &file[newline + 1..]
}

/// `payload` under a valid header: right magic, version, checksum and
/// length.
fn seal(magic: &str, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{magic} {version} {:016x} {}\n",
        fnv1a64(payload),
        payload.len()
    )
    .into_bytes();
    out.extend_from_slice(payload);
    out
}

fn reseal_snapshot(text: &str) -> Vec<u8> {
    seal("CPSSNAP", SNAPSHOT_VERSION, text.as_bytes())
}

fn snapshot_text() -> String {
    String::from_utf8(payload(&fixture("snapshot_v3.cpsnap")).to_vec()).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cps_robust_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn load_manifest(path: &Path, bytes: &[u8]) -> Result<SweepManifest, CoreError> {
    fs::write(path, bytes).unwrap();
    SweepManifest::load(path, SPEC_DIGEST)
}

fn is_corrupt<T>(result: &Result<T, CoreError>) -> bool {
    matches!(result, Err(CoreError::SnapshotCorrupt { .. }))
}

/// Every single-byte replacement of `bytes`, in position order.
fn mutations(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..bytes.len()).flat_map(move |i| {
        REPLACEMENTS
            .iter()
            .filter(move |&&r| r != bytes[i])
            .map(move |&r| {
                let mut out = bytes.to_vec();
                out[i] = r;
                out
            })
    })
}

#[test]
fn resealed_non_finite_snapshot_time_is_corrupt() {
    let text = snapshot_text();
    assert!(text.contains("\"time\":617,"));
    let bytes = reseal_snapshot(&text.replacen("\"time\":617,", "\"time\":1e999,", 1));
    assert!(is_corrupt(&SimSnapshot::from_bytes(&bytes)));
}

#[test]
fn spec_with_non_finite_radius_is_rejected() {
    let result = SweepSpec::from_json(r#"{"comm_radius":[1e999]}"#);
    assert!(
        matches!(
            result,
            Err(CoreError::SnapshotCorrupt { .. } | CoreError::InvalidParameter { .. })
        ),
        "{result:?}"
    );
}

#[test]
fn resealed_snapshot_with_invalid_death_rate_is_corrupt() {
    let text = snapshot_text();
    assert!(text.contains("\"death_rate\":0.01,"));
    let bytes = reseal_snapshot(&text.replacen("\"death_rate\":0.01,", "\"death_rate\":2,", 1));
    assert!(is_corrupt(&SimSnapshot::from_bytes(&bytes)));
}

#[test]
fn resealed_snapshot_with_inverted_region_is_corrupt() {
    let text = snapshot_text();
    let region = r#""region":{"max_x":120,"max_y":120,"min_x":20,"min_y":-5.5}"#;
    assert!(text.contains(region));
    let inverted = r#""region":{"max_x":20,"max_y":120,"min_x":120,"min_y":-5.5}"#;
    let bytes = reseal_snapshot(&text.replacen(region, inverted, 1));
    assert!(is_corrupt(&SimSnapshot::from_bytes(&bytes)));
}

#[test]
fn every_resealed_snapshot_payload_mutation_is_typed() {
    let text = snapshot_text();
    for evil in mutations(text.as_bytes()) {
        match SimSnapshot::from_bytes(&seal("CPSSNAP", SNAPSHOT_VERSION, &evil)) {
            // A digit change can leave a valid, different snapshot; it
            // must still encode.
            Ok(snapshot) => assert!(snapshot.to_bytes().is_ok()),
            Err(CoreError::SnapshotCorrupt { .. }) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
}

#[test]
fn every_resealed_manifest_payload_mutation_is_typed() {
    let dir = temp_dir("manifest_mutations");
    let path = dir.join("m.manifest");
    let file = fixture("sweep_v1.manifest");
    for evil in mutations(payload(&file)) {
        let result = load_manifest(&path, &seal("CPSSWEEP", 1, &evil));
        assert!(result.is_ok() || is_corrupt(&result), "{result:?}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_spec_mutation_is_typed() {
    let text = fixture("sweep_spec_uncached.json");
    for evil in mutations(&text) {
        let Ok(evil) = String::from_utf8(evil) else {
            continue;
        };
        match SweepSpec::from_json(&evil) {
            Ok(spec) => assert!(spec.to_json().is_ok()),
            Err(CoreError::SnapshotCorrupt { .. } | CoreError::InvalidParameter { .. }) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
}

#[test]
fn every_fault_spec_mutation_is_typed() {
    for evil in mutations(FAULT_SPEC.as_bytes()) {
        let Ok(evil) = String::from_utf8(evil) else {
            continue;
        };
        match FaultPlan::parse(&evil) {
            Ok(_) | Err(CoreError::InvalidParameter { .. }) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_snapshot_reader(
        bytes in prop::collection::vec(0u8..=255, 0..400),
        sealed in any::<bool>(),
    ) {
        let input = if sealed { seal("CPSSNAP", SNAPSHOT_VERSION, &bytes) } else { bytes };
        let result = SimSnapshot::from_bytes(&input);
        prop_assert!(is_corrupt(&result), "{:?}", result);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_manifest_reader(
        bytes in prop::collection::vec(0u8..=255, 0..400),
        sealed in any::<bool>(),
    ) {
        let dir = std::env::temp_dir().join(format!("cps_robust_arb_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let input = if sealed { seal("CPSSWEEP", 1, &bytes) } else { bytes };
        let result = load_manifest(&dir.join("m.manifest"), &input);
        let _ = fs::remove_dir_all(&dir);
        prop_assert!(is_corrupt(&result), "{:?}", result);
    }

    #[test]
    fn arbitrary_text_never_panics_the_spec_and_fault_readers(
        tokens in prop::collection::vec(0usize..TOKENS.len(), 0..40),
    ) {
        let text: String = tokens.iter().map(|&i| TOKENS[i]).collect();
        let spec = SweepSpec::from_json(&text);
        prop_assert!(
            spec.is_ok()
                || matches!(
                    spec,
                    Err(CoreError::SnapshotCorrupt { .. } | CoreError::InvalidParameter { .. })
                ),
            "{:?}",
            spec
        );
        let plan = FaultPlan::parse(&text);
        prop_assert!(
            matches!(plan, Ok(_) | Err(CoreError::InvalidParameter { .. })),
            "{:?}",
            plan
        );
    }
}

/// Fragments of both grammars, so random strings get past the first
/// byte of either parser.
const TOKENS: [&str; 40] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "=",
    "@",
    "null",
    "true",
    "1e999",
    "-1",
    "0",
    "7",
    "0.5",
    "18446744073709551616",
    "\"k\"",
    "\"seeds\"",
    "\"comm_radius\"",
    "\"region\"",
    "\"min_x\"",
    "\"kernel\"",
    "\"raster\"",
    "\"5\"",
    "seed",
    "kill",
    "cull",
    "death",
    "battery",
    "dropout",
    "outlier",
    "stuck",
    "loss",
    "recovery",
    "on",
    "nan",
    "inf",
    " ",
    "\\u0000",
];
