//! Byte-stability of the on-disk formats: the snapshot, the sweep
//! manifest, the canonical sweep spec and the sweep results JSON.
//!
//! The fixtures under `tests/fixtures/` were written once and are never
//! regenerated. Each test builds the value the fixture holds, checks
//! that encoding it reproduces the fixture byte for byte, and that
//! decoding the fixture gives the value back. A codec change that moves
//! a single byte, renames a key or loses an integer fails here; a
//! format change that is meant must bump the format version and add a
//! new fixture instead of editing these.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use cps::core::ostd::CmaConfig;
use cps::core::{CoreError, DeploymentEvaluation, SurvivabilityState};
use cps::geometry::{Point2, Rect};
use cps::sim::{
    Aggregate, CellAggregate, DeathCause, FaultEvent, FaultPlan, FaultState, JobOutcome,
    MobileNode, RecoveryPolicy, SimSnapshot, SweepJob, SweepManifest, SweepResults, SweepSpec,
    TimelineState,
};

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cps_fixture_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A version-3 snapshot exercising every optional part: a fault plan
/// with a battery, kills, culls and a seed beyond 2^53, stuck sensors,
/// all three event kinds and death causes, a timeline and a
/// survivability state.
fn snapshot() -> SimSnapshot {
    let plan = FaultPlan::builder()
        .seed(u64::MAX - 12345)
        .kill(3, 7)
        .kill(1, 2)
        .cull(0.25, 11)
        .cull(0.125, 4)
        .death_rate(0.01)
        .battery(120.0, 0.5, 2.0)
        .sensor_dropout(0.02)
        .reading_outlier(0.03, 40.0)
        .stuck_at(0.04, 6)
        .link_loss(0.2, 3)
        .recovery(RecoveryPolicy::On)
        .build()
        .unwrap();
    let death = |slot, node, cause| FaultEvent::Death {
        slot,
        time: 600.0 + slot as f64,
        node,
        cause,
    };
    let events = vec![
        death(2, 1, DeathCause::Scheduled),
        death(5, 2, DeathCause::Battery),
        FaultEvent::Partition {
            slot: 6,
            time: 606.0,
            components: 2,
            critical: 3,
        },
        death(8, 0, DeathCause::Random),
        FaultEvent::Reconnected {
            slot: 9,
            time: 609.0,
            after_slots: 3,
        },
    ];
    SimSnapshot {
        label: "fixture,seed=9 \"quoted\"".to_string(),
        slot: 17,
        time: 617.0,
        time_step: 1.0,
        sense_spacing: 0.75,
        comm_radius: 10.0,
        sensing_radius: 5.0,
        max_speed: 1.0,
        beta: 2.0,
        cma: CmaConfig {
            curvature_scale: 0.1 + 0.2,
            ..CmaConfig::default()
        },
        region: Rect::new(Point2::new(20.0, -5.5), Point2::new(120.0, 120.0)).unwrap(),
        curvature_scale: 0.012_345_678_901_234_5,
        pipeline: cps::sim::stage::STANDARD_STAGES
            .iter()
            .map(|s| s.to_string())
            .collect(),
        nodes: vec![
            MobileNode {
                id: 0,
                position: Point2::new(33.333_333_333_333_336, 77.1),
                curvature: -4.2e-3,
                traveled: 12.75,
                alive: false,
            },
            MobileNode {
                id: 1,
                position: Point2::new(50.0, 1e-300),
                curvature: 0.1,
                traveled: 3.5,
                alive: false,
            },
            MobileNode {
                id: 2,
                position: Point2::new(-0.0, 99.999_999_999_999_99),
                curvature: 7.0e21,
                traveled: 0.0,
                alive: false,
            },
            MobileNode {
                id: 3,
                position: Point2::new(64.0, 64.0),
                curvature: 0.0,
                traveled: 1.0 / 3.0,
                alive: true,
            },
        ],
        fault: Some(FaultState {
            plan,
            slot: 17,
            energy: vec![85.25, 0.0, 0.0, 119.5],
            stuck: vec![None, Some((610.0, 19)), None, Some((616.5, 23))],
            events: events.clone(),
            partition_since: Some(14),
            deaths_total: 3,
            retried_total: 22,
            dropped_total: 4,
        }),
        timeline: Some(TimelineState {
            samples: vec![
                (
                    600.0,
                    DeploymentEvaluation {
                        delta: 123.456_789_012_345_67,
                        rms: 1.5,
                        connected: true,
                        node_count: 4,
                    },
                ),
                (
                    610.0,
                    DeploymentEvaluation {
                        delta: 150.0,
                        rms: 2.25,
                        connected: false,
                        node_count: 1,
                    },
                ),
            ],
            events,
            events_synced: 5,
        }),
        survivability: Some(SurvivabilityState {
            initial_nodes: 4,
            last_alive: 1,
            baseline_delta: Some(123.456_789_012_345_67),
            final_delta: None,
            degradation: vec![(0.0, 123.456_789_012_345_67), (0.75, 150.0)],
            partitions: 1,
            reconnects: 1,
            reconnect_times: vec![3.0],
            partition_open_since: Some(614.0),
            messages: 420,
            retried: 22,
            dropped: 4,
            critical_nodes: vec![0, 3],
        }),
    }
}

/// A spec whose seed axis crosses 2^53 (those seeds travel as decimal
/// strings) and whose every knob differs from the default.
fn spec() -> SweepSpec {
    SweepSpec {
        region: Rect::new(Point2::new(0.0, 0.0), Point2::new(80.0, 60.5)).unwrap(),
        seeds: vec![7, 1 << 53, (1 << 53) + 1, u64::MAX],
        k: vec![9, 16],
        comm_radius: vec![10.0, 12.5],
        faults: vec![String::new(), "seed=3,kill=0@2".to_string()],
        minutes: 3,
        sample_every: 2,
        resolution: 21,
        spacing_factor: 0.9,
        start_time: 590.25,
    }
}

/// The canonical digest of [`spec`], as the format pins it.
const SPEC_DIGEST: u64 = 0x5bc0_38b4_3dea_4a65;

/// The digest of `SweepSpec::default()`.
const DEFAULT_SPEC_DIGEST: u64 = 0x86cf_a3cb_361f_9e52;

/// The spec digest the manifest and results fixtures record: that of
/// [`spec`] with the removed `"cached": true` knob, from before the δ
/// tile cache was deleted. Job digests only hash the spec digest they
/// are given, so those fixtures stay valid as they are.
const RECORDED_SPEC_DIGEST: u64 = 0x8cb7_032b_873e_9025;

fn outcome(final_delta: f64, best_delta: Option<f64>) -> JobOutcome {
    JobOutcome {
        final_delta,
        best_delta,
        final_connected: best_delta.is_some(),
        alive: 9,
        deaths: 1,
        messages: 1 << 40,
        series: vec![(600.0, 0.1 + 0.2), (602.0, final_delta)],
    }
}

/// The two jobs the manifest fixture records: job 1 sampled no δ.
fn manifest_jobs() -> BTreeMap<u64, (u64, JobOutcome)> {
    let jobs = spec().jobs();
    BTreeMap::from([
        (
            0,
            (
                jobs[0].digest(RECORDED_SPEC_DIGEST),
                outcome(4321.125, Some(4000.5)),
            ),
        ),
        (
            1,
            (jobs[1].digest(RECORDED_SPEC_DIGEST), outcome(1e-7, None)),
        ),
    ])
}

fn results() -> SweepResults {
    let job = |index: u64, seed: u64, fault_spec: &str| SweepJob {
        index,
        seed,
        k: 9,
        comm_radius: 10.0,
        fault_spec: fault_spec.to_string(),
    };
    let aggregate = |mean: f64| Aggregate {
        mean,
        stddev: 0.5,
        min: mean - 0.5,
        max: mean + 0.5,
    };
    SweepResults {
        spec_digest: format!("{RECORDED_SPEC_DIGEST:016x}"),
        jobs: vec![job(0, 7, ""), job(1, u64::MAX, "seed=3,kill=0@2")],
        outcomes: vec![outcome(4321.125, Some(4000.5)), outcome(1e-7, None)],
        cells: vec![
            CellAggregate {
                k: 9,
                comm_radius: 10.0,
                fault_spec: String::new(),
                jobs: 1,
                final_delta: aggregate(4321.125),
                best_delta: Some(aggregate(4000.5)),
                connected_fraction: 1.0,
                mean_alive: 9.0,
                mean_deaths: 1.0,
            },
            CellAggregate {
                k: 9,
                comm_radius: 10.0,
                fault_spec: "seed=3,kill=0@2".to_string(),
                jobs: 1,
                final_delta: aggregate(1e-7),
                best_delta: None,
                connected_fraction: 0.0,
                mean_alive: 9.0,
                mean_deaths: 1.0,
            },
        ],
    }
}

#[test]
fn snapshot_fixture_decodes_and_reencodes_byte_for_byte() {
    let bytes = fixture("snapshot_v3.cpsnap");
    assert!(bytes.starts_with(b"CPSSNAP 3 "));
    let decoded = SimSnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(decoded, snapshot());
    assert_eq!(
        decoded.fault.as_ref().unwrap().plan.seed(),
        u64::MAX - 12345
    );
    assert_eq!(decoded.to_bytes().unwrap(), bytes);
    assert_eq!(snapshot().to_bytes().unwrap(), bytes);
}

/// The version-2 fixture records the flag of the removed tile cache; this
/// build refuses it by version instead of resuming it.
#[test]
fn snapshot_v2_fixture_is_an_older_format() {
    let bytes = fixture("snapshot_v2.cpsnap");
    assert!(bytes.starts_with(b"CPSSNAP 2 "));
    assert!(matches!(
        SimSnapshot::from_bytes(&bytes),
        Err(CoreError::SnapshotVersion {
            found: 2,
            supported: 3
        })
    ));
}

#[test]
fn manifest_fixture_decodes_and_reencodes_byte_for_byte() {
    let bytes = fixture("sweep_v1.manifest");
    assert!(bytes.starts_with(b"CPSSWEEP 1 "));
    let dir = temp_dir("manifest");
    let copy = dir.join("copy.manifest");
    fs::write(&copy, &bytes).unwrap();
    let loaded = SweepManifest::load(&copy, RECORDED_SPEC_DIGEST).unwrap();
    assert_eq!(loaded.completed(), &manifest_jobs());

    // Re-encode through the write path: a fresh manifest recording the
    // same jobs persists the same bytes.
    let rewritten = dir.join("rewritten.manifest");
    let mut manifest = SweepManifest::create(&rewritten, RECORDED_SPEC_DIGEST).unwrap();
    for (&index, (digest, outcome)) in loaded.completed() {
        manifest.record(index, *digest, outcome.clone()).unwrap();
    }
    assert_eq!(fs::read(&rewritten).unwrap(), bytes);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn spec_fixture_decodes_and_reencodes_byte_for_byte() {
    let text = String::from_utf8(fixture("sweep_spec_uncached.json")).unwrap();
    let decoded = SweepSpec::from_json(&text).unwrap();
    assert_eq!(decoded, spec());
    assert_eq!(decoded.to_json().unwrap(), text);
    assert_eq!(spec().to_json().unwrap(), text);
    assert_eq!(decoded.digest().unwrap(), SPEC_DIGEST);
    assert_eq!(SweepSpec::default().digest().unwrap(), DEFAULT_SPEC_DIGEST);
}

/// The original spec fixture turns the removed tile cache on: the
/// reader refuses it with a reason instead of ignoring the key.
#[test]
fn spec_fixture_with_the_cache_on_is_rejected() {
    let text = String::from_utf8(fixture("sweep_spec.json")).unwrap();
    assert!(text.contains(r#""cached":true"#));
    match SweepSpec::from_json(&text) {
        Err(e @ CoreError::InvalidParameter { name: "cached", .. }) => {
            assert!(e.to_string().contains("tile cache was removed"), "{e}");
        }
        other => panic!("a spec with the cache on must be rejected, got {other:?}"),
    }
    // The same spec with the cache off names what every sweep runs.
    let off = text.replace(r#""cached":true"#, r#""cached":false"#);
    assert_eq!(SweepSpec::from_json(&off).unwrap(), spec());
}

#[test]
fn results_fixture_encodes_byte_for_byte() {
    let text = String::from_utf8(fixture("sweep_results.json")).unwrap();
    assert_eq!(results().to_json().unwrap(), text);
}
