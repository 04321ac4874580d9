//! Checkpoint/restore: versioned, checksummed snapshots of a running
//! simulation with crash-safe persistence.
//!
//! A [`SimSnapshot`] captures everything
//! [`Simulation::step`](crate::Simulation::step) depends on — the slot
//! clock, the full [`MobileNode`] fleet (positions, curvatures, travel
//! odometers, alive flags), the CMA configuration in effect (including
//! mid-run overrides), the gossiped curvature scale, and the complete
//! fault-runtime state (plan, slot cursor, battery levels, stuck-sensor
//! freezes, accumulated events) — plus, optionally, the app-level
//! [`DeltaTimeline`] records and survivability tracker so a resumed run
//! finishes with the *same report* an uninterrupted one would produce.
//!
//! # Resume bit-identity
//!
//! Checkpoints land between slots, and every random draw of a slot
//! comes from a SplitMix64 stream derived from `(plan seed, slot
//! index)` alone — so restoring the slot cursor restores the entire
//! future of the fault schedule. Floats round-trip exactly: values are
//! serialized with Rust's shortest-representation formatting, which
//! reparses to the identical bit pattern.
//!
//! # On-disk format
//!
//! The envelope of [`crate::envelope`], magic `CPSSNAP`, around the
//! derived serde tree of [`SimSnapshot`], written atomically. Any
//! corruption — a flipped bit, truncation, an empty file, a non-finite
//! number, a fault plan or region that fails validation — is a typed
//! [`CoreError::SnapshotCorrupt`]; [`CheckpointDir::latest_valid`] then
//! falls back to the newest snapshot that still verifies.

use std::fs;
use std::path::{Path, PathBuf};

use cps_core::ostd::CmaConfig;
use cps_core::{
    CoreError, DeploymentEvaluation, EvalOptions, SurvivabilityState, SurvivabilityTracker,
};
use cps_geometry::Rect;
use serde::{Deserialize, Serialize};

use crate::envelope::{self, corrupt, snapshot_io};
use crate::fault::{FaultEvent, FaultPlan};
use crate::{DeltaTimeline, MobileNode};

// Names the unit tests below reach through `use super::*`.
#[cfg(test)]
use {
    crate::envelope::fnv1a64,
    crate::fault::{DeathCause, RecoveryPolicy},
    cps_geometry::Point2,
};

/// Snapshot format version this build reads and writes. Version 2
/// dropped the per-run quadrature kernel: every δ now runs on the
/// raster kernel, so version 1 snapshots, which may record the walk,
/// fail with [`CoreError::SnapshotVersion`] instead of resuming on
/// different arithmetic. Version 3 dropped the on/off flag of the
/// removed δ tile cache.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Magic token opening every snapshot file.
const MAGIC: &str = "CPSSNAP";

/// File extension used by [`CheckpointDir`].
const EXTENSION: &str = "cpsnap";

/// Checkpointed fault-injection state: the plan plus everything the
/// runtime accumulated up to the snapshot slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultState {
    /// The installed schedule (re-validated on restore).
    pub plan: FaultPlan,
    /// Slot cursor — the SplitMix64 stream of every future slot is
    /// derived from `(plan seed, slot)`, so this one integer carries
    /// the whole RNG state.
    pub slot: u64,
    /// Remaining per-node energy (empty without a battery model).
    pub energy: Vec<f64>,
    /// Per-node stuck-sensor state: `(frozen_time, expiry_slot)`.
    #[serde(with = "stuck")]
    pub stuck: Vec<Option<(f64, u64)>>,
    /// Everything recorded so far (deaths, partitions, reconnects).
    pub events: Vec<FaultEvent>,
    /// Slot the currently-open partition started at, if any.
    pub partition_since: Option<u64>,
    /// Total deaths so far.
    pub deaths_total: usize,
    /// Total retried deliveries so far.
    pub retried_total: usize,
    /// Total dropped directed link-slots so far.
    pub dropped_total: usize,
}

/// Checkpointed [`DeltaTimeline`] records (samples + synced events).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineState {
    /// The `(time, evaluation)` samples recorded so far.
    #[serde(with = "samples")]
    pub samples: Vec<(f64, DeploymentEvaluation)>,
    /// Fault events copied into the timeline so far.
    pub events: Vec<FaultEvent>,
    /// The event sync cursor.
    pub events_synced: usize,
}

/// A complete, serializable snapshot of a running simulation — built by
/// [`Simulation::checkpoint`](crate::Simulation::checkpoint), restored
/// by [`CmaBuilder::resume_from`](crate::CmaBuilder::resume_from).
///
/// The generic field is deliberately *not* part of the snapshot (a
/// field is arbitrary code); the caller re-supplies it on resume, and
/// bit-identity holds when it is the same field. The free-form
/// [`label`](SimSnapshot::label) exists so applications can record how
/// to rebuild theirs (the CLI stores the forest seed there).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimSnapshot {
    /// Free-form application tag (e.g. how to rebuild the field).
    pub label: String,
    /// Slots stepped since construction.
    pub slot: u64,
    /// Simulation clock, minutes.
    pub time: f64,
    /// [`SimConfig::time_step`](crate::SimConfig::time_step).
    pub time_step: f64,
    /// [`SimConfig::sense_spacing`](crate::SimConfig::sense_spacing).
    pub sense_spacing: f64,
    /// Node capability `Rc`.
    pub comm_radius: f64,
    /// Node capability `Rs`.
    pub sensing_radius: f64,
    /// Node capability `v`.
    pub max_speed: f64,
    /// Force-balance weight `β`.
    pub beta: f64,
    /// The CMA parameters in effect, including any mid-run overrides.
    pub cma: CmaConfig,
    /// Region of interest.
    #[serde(with = "crate::envelope::region")]
    pub region: Rect,
    /// The gossiped curvature normalization reference.
    pub curvature_scale: f64,
    /// Stage names of the pipeline that produced this snapshot, in
    /// execution order. Restore rejects anything but the standard
    /// sequence, because resuming a run under a different stage order
    /// could not be bit-identical to the uninterrupted one.
    pub pipeline: Vec<String>,
    /// The full fleet, dead nodes included.
    pub nodes: Vec<MobileNode>,
    /// Fault-runtime state (None for pristine runs).
    pub fault: Option<FaultState>,
    /// δ(t) records, when the app attached them.
    pub timeline: Option<TimelineState>,
    /// Survivability tracker state, when the app attached it.
    pub survivability: Option<SurvivabilityState>,
}

impl SimSnapshot {
    /// Attaches the timeline's records so a resumed run continues the
    /// same δ(t) series.
    pub fn attach_timeline(&mut self, timeline: &DeltaTimeline) {
        self.timeline = Some(TimelineState {
            samples: timeline.samples().to_vec(),
            events: timeline.events().to_vec(),
            events_synced: timeline.events_synced(),
        });
    }

    /// Rebuilds the attached timeline (None when none was attached),
    /// recording with `opts` from here on.
    pub fn timeline(&self, opts: EvalOptions) -> Option<DeltaTimeline> {
        self.timeline.as_ref().map(|t| {
            DeltaTimeline::from_state(opts, t.samples.clone(), t.events.clone(), t.events_synced)
        })
    }

    /// Attaches the survivability tracker's state.
    pub fn attach_survivability(&mut self, tracker: &SurvivabilityTracker) {
        self.survivability = Some(tracker.state());
    }

    /// Rebuilds the attached survivability tracker, if any.
    pub fn survivability_tracker(&self) -> Option<SurvivabilityTracker> {
        self.survivability
            .clone()
            .map(SurvivabilityTracker::from_state)
    }

    /// Fleet size (dead nodes included).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Serializes to the on-disk byte format (header + checksummed JSON
    /// payload).
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotCorrupt`] when the state contains a
    /// non-finite float (JSON cannot carry it losslessly).
    pub fn to_bytes(&self) -> Result<Vec<u8>, CoreError> {
        envelope::seal(MAGIC, SNAPSHOT_VERSION, self)
    }

    /// Parses and verifies the byte format.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotCorrupt`] on bad magic, length or checksum
    /// mismatch, a malformed payload, or a fault plan that fails the
    /// builder's validation; [`CoreError::SnapshotVersion`] for an
    /// unsupported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut snapshot: SimSnapshot = envelope::open(MAGIC, SNAPSHOT_VERSION, bytes)?;
        if let Some(fault) = &mut snapshot.fault {
            fault.plan = std::mem::take(&mut fault.plan)
                .validated()
                .map_err(|e| corrupt(format!("plan fails validation: {e}")))?;
        }
        Ok(snapshot)
    }

    /// Writes the snapshot to `path` atomically: temp file in the same
    /// directory, fsync, rename, directory fsync. Returns the bytes
    /// written.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotIo`] on filesystem failures and
    /// [`SimSnapshot::to_bytes`] errors.
    pub fn save(&self, path: &Path) -> Result<u64, CoreError> {
        let bytes = self.to_bytes()?;
        envelope::atomic_write(path, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Reads and verifies a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotIo`] on read failures; the
    /// [`SimSnapshot::from_bytes`] errors (with the path filled in) on
    /// verification failures.
    pub fn load(path: &Path) -> Result<Self, CoreError> {
        envelope::read(path, Self::from_bytes)
    }
}

/// `#[serde(with)]` codec of the stuck-sensor states: `null` or
/// `{frozen_time, until}` per node.
mod stuck {
    use serde::__private::Error;
    use serde::{Deserialize, Serialize};
    use serde_json::Value;

    #[derive(Serialize, Deserialize)]
    struct Frozen {
        frozen_time: f64,
        until: u64,
    }

    pub(super) fn serialize(stuck: &[Option<(f64, u64)>]) -> Value {
        let frozen: Vec<Option<Frozen>> = stuck
            .iter()
            .map(|s| s.map(|(frozen_time, until)| Frozen { frozen_time, until }))
            .collect();
        frozen.serialize()
    }

    pub(super) fn deserialize(v: &Value) -> Result<Vec<Option<(f64, u64)>>, Error> {
        let frozen = Vec::<Option<Frozen>>::deserialize(v)?;
        Ok(frozen
            .into_iter()
            .map(|s| s.map(|f| (f.frozen_time, f.until)))
            .collect())
    }
}

/// `#[serde(with)]` codec of the timeline samples: one object per
/// sample, the evaluation's fields beside `time`.
mod samples {
    use cps_core::DeploymentEvaluation;
    use serde::__private::Error;
    use serde::{Deserialize, Serialize};
    use serde_json::Value;

    #[derive(Serialize, Deserialize)]
    struct Sample {
        time: f64,
        #[serde(flatten)]
        evaluation: DeploymentEvaluation,
    }

    pub(super) fn serialize(samples: &[(f64, DeploymentEvaluation)]) -> Value {
        let samples: Vec<Sample> = samples
            .iter()
            .map(|&(time, evaluation)| Sample { time, evaluation })
            .collect();
        samples.serialize()
    }

    pub(super) fn deserialize(v: &Value) -> Result<Vec<(f64, DeploymentEvaluation)>, Error> {
        let samples = Vec::<Sample>::deserialize(v)?;
        Ok(samples
            .into_iter()
            .map(|s| (s.time, s.evaluation))
            .collect())
    }
}

/// When a running simulation should be checkpointed. Combine the two
/// triggers freely; the default ([`CheckpointPolicy::disabled`]) never
/// fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointPolicy {
    every_slots: Option<u64>,
    on_fault_event: bool,
}

impl CheckpointPolicy {
    /// A policy that never checkpoints.
    pub fn disabled() -> Self {
        CheckpointPolicy::default()
    }

    /// Checkpoints every `n` completed slots (`0` disables the periodic
    /// trigger).
    pub fn every(n: u64) -> Self {
        CheckpointPolicy {
            every_slots: (n > 0).then_some(n),
            on_fault_event: false,
        }
    }

    /// Additionally checkpoints on any slot that recorded a fresh fault
    /// event (death, partition, reconnection).
    pub fn on_fault_event(mut self, yes: bool) -> Self {
        self.on_fault_event = yes;
        self
    }

    /// Whether any trigger is configured.
    pub fn is_enabled(&self) -> bool {
        self.every_slots.is_some() || self.on_fault_event
    }

    /// Whether the just-completed `slot` (1-based step count) should be
    /// checkpointed, given how many fault events it produced.
    pub fn due(&self, slot: u64, fresh_fault_events: usize) -> bool {
        let periodic = match self.every_slots {
            Some(n) => slot > 0 && slot.is_multiple_of(n),
            None => false,
        };
        periodic || (self.on_fault_event && fresh_fault_events > 0)
    }
}

/// A directory of rolling snapshots: `snap-<slot>.cpsnap` files with
/// bounded retention and newest-valid-first recovery.
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointDir {
    /// Uses `dir` (created on the first store), retaining the newest 4
    /// snapshots.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointDir {
            dir: dir.into(),
            keep: 4,
        }
    }

    /// Sets how many snapshots to retain (at least 1 — keeping zero
    /// would defeat the fallback chain).
    pub fn keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Persists `snapshot` as `snap-<slot>.cpsnap` (atomically), prunes
    /// snapshots beyond the retention bound, and returns the written
    /// path. Instrumented: counts `checkpoints_written` and
    /// `checkpoint_bytes`, timed under the `checkpoint_write` phase.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotIo`] on filesystem failures,
    /// [`CoreError::SnapshotCorrupt`] for non-finite state.
    pub fn store(&self, snapshot: &SimSnapshot) -> Result<PathBuf, CoreError> {
        let _t = cps_obs::time(cps_obs::Phase::CheckpointWrite, 1);
        fs::create_dir_all(&self.dir).map_err(|e| snapshot_io(&self.dir, &e))?;
        let path = self
            .dir
            .join(format!("snap-{:012}.{EXTENSION}", snapshot.slot));
        let bytes = snapshot.save(&path)?;
        cps_obs::count(cps_obs::Counter::CheckpointsWritten);
        cps_obs::count_by(cps_obs::Counter::CheckpointBytes, bytes);
        self.prune()?;
        Ok(path)
    }

    /// Snapshot paths in ascending slot order (missing directory =
    /// empty).
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotIo`] when the directory cannot be listed.
    pub fn snapshots(&self) -> Result<Vec<PathBuf>, CoreError> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(snapshot_io(&self.dir, &e)),
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().is_some_and(|x| x == EXTENSION)
                    && p.file_stem()
                        .and_then(|s| s.to_str())
                        .is_some_and(|s| s.starts_with("snap-"))
            })
            .collect();
        paths.sort();
        Ok(paths)
    }

    /// Loads the newest snapshot that passes verification, skipping (and
    /// counting as `checkpoints_rejected`) corrupt, truncated, or
    /// unsupported files. Returns the snapshot and its path, or `None`
    /// when the directory holds no snapshot or only corrupt ones.
    ///
    /// # Errors
    ///
    /// * [`CoreError::SnapshotIo`] when the directory cannot be listed
    ///   (unreadable *files* are skipped, not fatal).
    /// * [`CoreError::SnapshotVersion`] of the newest such file when no
    ///   snapshot verifies and at least one was written in another
    ///   format version: the run exists but this build cannot continue
    ///   it, which must not pass for a fresh start.
    pub fn latest_valid(&self) -> Result<Option<(SimSnapshot, PathBuf)>, CoreError> {
        let mut unsupported = None;
        for path in self.snapshots()?.into_iter().rev() {
            match SimSnapshot::load(&path) {
                Ok(snapshot) => {
                    cps_obs::count(cps_obs::Counter::CheckpointsLoaded);
                    return Ok(Some((snapshot, path)));
                }
                Err(e) => {
                    cps_obs::count(cps_obs::Counter::CheckpointsRejected);
                    if matches!(e, CoreError::SnapshotVersion { .. }) {
                        unsupported.get_or_insert(e);
                    }
                }
            }
        }
        unsupported.map_or(Ok(None), Err)
    }

    /// Deletes the oldest snapshots beyond the retention bound.
    fn prune(&self) -> Result<(), CoreError> {
        let paths = self.snapshots()?;
        if paths.len() > self.keep {
            for path in &paths[..paths.len() - self.keep] {
                fs::remove_file(path).map_err(|e| snapshot_io(path, &e))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> SimSnapshot {
        let plan = FaultPlan::builder()
            .seed(u64::MAX - 12345) // beyond 2^53: must survive the trip
            .kill(3, 7)
            .cull(0.25, 11)
            .death_rate(0.01)
            .battery(120.0, 0.5, 2.0)
            .sensor_dropout(0.02)
            .reading_outlier(0.03, 40.0)
            .stuck_at(0.04, 6)
            .link_loss(0.2, 3)
            .recovery(RecoveryPolicy::On)
            .build()
            .unwrap();
        SimSnapshot {
            label: "test,seed=9".to_string(),
            slot: 17,
            time: 617.0,
            time_step: 1.0,
            sense_spacing: 1.0,
            comm_radius: 10.0,
            sensing_radius: 5.0,
            max_speed: 1.0,
            beta: 2.0,
            cma: CmaConfig::default(),
            region: Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).unwrap(),
            curvature_scale: 0.012_345_678_901_234_5,
            pipeline: crate::stage::STANDARD_STAGES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            nodes: vec![
                MobileNode {
                    id: 0,
                    position: Point2::new(33.333_333_333_333_336, 77.1),
                    curvature: -4.2e-3,
                    traveled: 12.75,
                    alive: true,
                },
                MobileNode {
                    id: 1,
                    position: Point2::new(50.0, 50.0),
                    curvature: 0.1,
                    traveled: 3.5,
                    alive: false,
                },
            ],
            fault: Some(FaultState {
                plan,
                slot: 17,
                energy: vec![85.25, 0.0],
                stuck: vec![None, Some((610.0, 19))],
                events: vec![
                    FaultEvent::Death {
                        slot: 5,
                        time: 605.0,
                        node: 1,
                        cause: DeathCause::Battery,
                    },
                    FaultEvent::Partition {
                        slot: 6,
                        time: 606.0,
                        components: 2,
                        critical: 3,
                    },
                    FaultEvent::Reconnected {
                        slot: 9,
                        time: 609.0,
                        after_slots: 3,
                    },
                ],
                partition_since: Some(14),
                deaths_total: 1,
                retried_total: 22,
                dropped_total: 4,
            }),
            timeline: Some(TimelineState {
                samples: vec![(
                    600.0,
                    DeploymentEvaluation {
                        delta: 123.456_789_012_345_67,
                        rms: 1.5,
                        connected: true,
                        node_count: 2,
                    },
                )],
                events: vec![FaultEvent::Death {
                    slot: 5,
                    time: 605.0,
                    node: 1,
                    cause: DeathCause::Battery,
                }],
                events_synced: 1,
            }),
            survivability: Some(SurvivabilityState {
                initial_nodes: 2,
                last_alive: 1,
                baseline_delta: Some(123.456_789_012_345_67),
                final_delta: Some(150.0),
                degradation: vec![(0.0, 123.456_789_012_345_67), (0.5, 150.0)],
                partitions: 1,
                reconnects: 1,
                reconnect_times: vec![3.0],
                partition_open_since: Some(614.0),
                messages: 420,
                retried: 22,
                dropped: 4,
                critical_nodes: vec![0],
            }),
        }
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes().unwrap();
        let back = SimSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap, back);
        // Float bits, not just PartialEq.
        assert_eq!(
            snap.curvature_scale.to_bits(),
            back.curvature_scale.to_bits()
        );
        assert_eq!(
            snap.nodes[0].position.x.to_bits(),
            back.nodes[0].position.x.to_bits()
        );
        // The full-width seed survived the string detour.
        assert_eq!(back.fault.as_ref().unwrap().plan.seed(), u64::MAX - 12345);
    }

    #[test]
    fn minimal_snapshot_round_trips() {
        let mut snap = sample_snapshot();
        snap.fault = None;
        snap.timeline = None;
        snap.survivability = None;
        let back = SimSnapshot::from_bytes(&snap.to_bytes().unwrap()).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes().unwrap();
        // Flip one byte at a time across the whole file (header and
        // payload); every mutation must fail verification — never parse
        // into a silently different state.
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 0x20; // case/segment flip keeps most bytes printable
            match SimSnapshot::from_bytes(&evil) {
                Err(_) => {}
                Ok(parsed) => panic!(
                    "flipping byte {i} ({:?}) parsed successfully: {parsed:?}",
                    bytes[i] as char
                ),
            }
        }
    }

    #[test]
    fn truncated_and_empty_files_are_corrupt() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes().unwrap();
        assert!(matches!(
            SimSnapshot::from_bytes(&[]),
            Err(CoreError::SnapshotCorrupt { .. })
        ));
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                SimSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    /// `sample_snapshot` re-labelled as format `version`; the checksum
    /// covers the payload only, so it still verifies.
    fn snapshot_bytes_with_version(version: u32) -> Vec<u8> {
        let text = String::from_utf8(sample_snapshot().to_bytes().unwrap()).unwrap();
        text.replacen(
            &format!("CPSSNAP {SNAPSHOT_VERSION} "),
            &format!("CPSSNAP {version} "),
            1,
        )
        .into_bytes()
    }

    #[test]
    fn version_mismatch_is_typed() {
        // Older (version 1 may record the removed walk kernel, version
        // 2 the removed tile cache) and newer formats alike.
        for version in [1, 2, SNAPSHOT_VERSION + 1] {
            assert!(matches!(
                SimSnapshot::from_bytes(&snapshot_bytes_with_version(version)),
                Err(CoreError::SnapshotVersion { found, supported: SNAPSHOT_VERSION })
                    if found == version
            ));
        }
    }

    #[test]
    fn a_directory_of_old_snapshots_is_an_error_not_a_fresh_start() {
        let dir = std::env::temp_dir().join(format!(
            "cps_ckpt_test_{}_{}",
            std::process::id(),
            "old_version"
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointDir::new(&dir);
        let path = store.store(&sample_snapshot()).unwrap();
        fs::write(&path, snapshot_bytes_with_version(1)).unwrap();
        assert!(matches!(
            store.latest_valid(),
            Err(CoreError::SnapshotVersion {
                found: 1,
                supported: SNAPSHOT_VERSION
            })
        ));

        // A corrupt snapshot next to it changes nothing: still no valid
        // snapshot, and the old one is still reported.
        let mut snap = sample_snapshot();
        snap.slot += 1;
        let newer = store.store(&snap).unwrap();
        fs::write(&newer, b"").unwrap();
        assert!(matches!(
            store.latest_valid(),
            Err(CoreError::SnapshotVersion { found: 1, .. })
        ));

        // A valid snapshot anywhere in the chain wins.
        snap.slot += 1;
        store.store(&snap).unwrap();
        let (resumed, _) = store.latest_valid().unwrap().expect("valid snapshot");
        assert_eq!(resumed.slot, snap.slot);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_state_is_rejected_at_encode_time() {
        let mut snap = sample_snapshot();
        snap.curvature_scale = f64::NAN;
        assert!(matches!(
            snap.to_bytes(),
            Err(CoreError::SnapshotCorrupt { .. })
        ));
    }

    #[test]
    fn checkpoint_dir_retention_and_fallback() {
        let dir = std::env::temp_dir().join(format!(
            "cps_ckpt_test_{}_{}",
            std::process::id(),
            "retention"
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointDir::new(&dir).keep(2);
        let mut snap = sample_snapshot();
        for slot in [10u64, 20, 30] {
            snap.slot = slot;
            store.store(&snap).unwrap();
        }
        let kept = store.snapshots().unwrap();
        assert_eq!(kept.len(), 2, "retention must prune to 2");
        assert!(kept[0].to_string_lossy().contains("snap-000000000020"));

        // Corrupt the newest: fallback must pick slot 20.
        let newest = kept.last().unwrap().clone();
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let (recovered, path) = store.latest_valid().unwrap().expect("older snapshot valid");
        assert_eq!(recovered.slot, 20);
        assert!(path.to_string_lossy().contains("snap-000000000020"));

        // Truncate that one to zero bytes too: nothing valid remains.
        fs::write(&path, b"").unwrap();
        assert!(store.latest_valid().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_empty_not_fatal() {
        let store = CheckpointDir::new("/nonexistent/cps/ckpt/dir");
        assert!(store.snapshots().unwrap().is_empty());
        assert!(store.latest_valid().unwrap().is_none());
    }

    #[test]
    fn policy_triggers() {
        let off = CheckpointPolicy::disabled();
        assert!(!off.is_enabled());
        assert!(!off.due(10, 3));
        let every = CheckpointPolicy::every(5);
        assert!(every.is_enabled());
        assert!(every.due(5, 0) && every.due(10, 0));
        assert!(!every.due(7, 0) && !every.due(0, 0));
        let eventful = CheckpointPolicy::every(0).on_fault_event(true);
        assert!(eventful.is_enabled());
        assert!(eventful.due(3, 1));
        assert!(!eventful.due(3, 0));
        let both = CheckpointPolicy::every(4).on_fault_event(true);
        assert!(both.due(4, 0) && both.due(3, 2));
        assert!(!both.due(3, 0));
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
