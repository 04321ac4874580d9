//! End-to-end benchmark of the cps workspace.
//!
//! Three closed-loop batch workloads, each driven by one process through
//! the library's public API in the call sequence of the matching CLI
//! command, on the shipped evaluation defaults (raster kernel, tile
//! cache off):
//!
//! * `ostd_cma` — `cps simulate`: the CMA swarm on the latent light
//!   field, with checkpoints and a restore;
//! * `osd_fra` — `cps plan`: FRA on the extracted light surface;
//! * `sweep_faults` — `cps sweep` over a fault grid, then its resume.
//!
//! A run cycles its workload through inputs derived from the seed for a
//! fixed wall-clock window and reports medians. Untraced runs
//! (`--trace 0`) report the end-to-end metrics, with every time scaled
//! by a calibration workload measured next to each repetition
//! ([`probe::calibration_ns`]), because the speed of a shared machine
//! drifts by more than the bounds over minutes. Traced runs (`--trace 1`)
//! pair every repetition with an untraced one on the same input, measure
//! per-layer metrics from outside the program (see [`probe`]) and check
//! that traced outputs equal untraced ones byte for byte.

#![forbid(unsafe_code)]

use std::error::Error;
use std::path::Path;
use std::time::{Duration, Instant};

use cps_geometry::{Point2, Rect};

mod osd_fra;
mod ostd_cma;
pub mod probe;
mod sweep_faults;

use probe::Layers;

/// The paper's 100 × 100 m region of interest at (20, 20)–(120, 120).
pub(crate) fn region() -> Rect {
    Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).expect("static region")
}

/// The input seed of instance `instance` of a run seeded with `seed`
/// (SplitMix64 over the pair), so a run's inputs follow from its seed.
pub fn derive_seed(seed: u64, instance: usize) -> u64 {
    let mut z = seed ^ (instance as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Nanoseconds since `start`.
pub(crate) fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// What one repetition of a workload produced.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Set-up: input generation, loading, builder construction.
    pub setup_ns: u64,
    /// The timed workload body.
    pub body_ns: u64,
    /// Per-operation latencies: CMA slots, a whole FRA plan, or sweep
    /// jobs divided by their slot count.
    pub latencies_ns: Vec<u64>,
    /// Whether the output checks passed.
    pub ok: bool,
    /// Final δ (the mean over cells for a sweep).
    pub delta_final: f64,
    /// Connected share of δ samples (over cells for a sweep).
    pub connected_frac: f64,
    /// Jobs completed: one simulation, one plan, or the sweep's jobs.
    pub jobs: u64,
    /// Canonical bytes of the results, compared across repetitions and
    /// between traced and untraced runs.
    pub output: Vec<u8>,
    /// Per-layer values (traced only).
    pub layers: Layers,
    /// Timed children of the body (traced only).
    pub parts: Vec<(&'static str, u64)>,
    /// Factor that scales this repetition's times to the reference
    /// machine: the reference calibration time over the one measured
    /// just before the repetition (1 until measured).
    pub scale: f64,
}

/// One benchmark workload.
pub trait Workload {
    /// The workload name used on the command line.
    fn name(&self) -> &'static str;
    /// Threads or workers the workload is given.
    fn threads(&self) -> usize;
    /// Operations one repetition attempts (the unit of `failed`).
    fn ops(&self) -> u64;
    /// Distinct inputs a run cycles through, each derived from the run
    /// seed. Every run covers all of them, so δ and the timings do not
    /// hinge on one draw of the forest.
    fn instances(&self) -> usize;
    /// Runs one repetition on input instance `instance` of `seed`,
    /// using `work` for files.
    ///
    /// # Errors
    ///
    /// Any library error; the repetition then counts as failed.
    fn iterate(
        &self,
        seed: u64,
        instance: usize,
        traced: bool,
        work: &Path,
    ) -> Result<Iteration, Box<dyn Error>>;
}

/// The workload named `name`, at full (`smoke = false`) or test size.
pub fn workload(name: &str, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match (name, smoke) {
        ("ostd_cma", false) => Box::new(ostd_cma::OstdCma::paper()),
        ("ostd_cma", true) => Box::new(ostd_cma::OstdCma::smoke()),
        ("osd_fra", false) => Box::new(osd_fra::OsdFra::paper()),
        ("osd_fra", true) => Box::new(osd_fra::OsdFra::smoke()),
        ("sweep_faults", false) => Box::new(sweep_faults::SweepFaults::paper()),
        ("sweep_faults", true) => Box::new(sweep_faults::SweepFaults::smoke()),
        _ => return None,
    })
}

/// Every workload name.
pub const WORKLOADS: [&str; 3] = ["ostd_cma", "osd_fra", "sweep_faults"];

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("slot_ms_p50", "ms"),
    ("slot_ms_p90", "ms"),
    ("jobs_per_s", "1/s"),
    ("delta_final", "klux_m2"),
    ("connected_frac", "fraction"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: name and unit. A layer a workload does not run
/// reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("greenorbs.field_evals", "count"),
    ("greenorbs.field_eval_ns", "ns"),
    ("sim.stage.fault_ns", "ns"),
    ("sim.stage.sense_ns", "ns"),
    ("sim.stage.exchange_ns", "ns"),
    ("sim.stage.recovery_ns", "ns"),
    ("sim.stage.optimize_ns", "ns"),
    ("sim.stage.record_ns", "ns"),
    ("sim.fault_retries", "count"),
    ("network.relay_replans", "count"),
    ("field.delta_sample_ns", "ns"),
    ("field.delta_samples", "count"),
    ("field.raster_cells", "count"),
    ("field.triangles_rasterized", "count"),
    ("core.fra.run_ns", "ns"),
    ("core.fra.refined", "count"),
    ("core.fra.relays", "count"),
    ("core.fra.cavity_recomputes", "count"),
    ("core.fra.full_grid_recomputes", "count"),
    ("geometry.delaunay_inserts", "count"),
    ("field.grid_evals", "count"),
    ("core.analyze_ns", "ns"),
    ("network.udg_ns", "ns"),
    ("sim.checkpoint.write_ns", "ns"),
    ("sim.checkpoint.bytes", "bytes"),
    ("sim.checkpoint.restore_ns", "ns"),
    ("sim.sweep.manifest_bytes", "bytes"),
    ("sim.sweep.resume_ns", "ns"),
    ("pool.tasks", "count"),
    ("pool.utilization", "fraction"),
    ("sim.step_ns", "ns"),
    ("sim.unattributed_ns", "ns"),
    ("obs.trace_overhead_frac", "fraction"),
];

/// How one benchmark run is set up.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed; every input follows from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (slots, plans or sweep jobs).
    pub attempted: u64,
    /// Operations that failed or sat in a repetition whose checks failed.
    pub failed: u64,
    /// Metrics with their units, in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra lines for the log: the traced run's breakdown, sample counts.
    pub notes: Vec<String>,
}

/// Output references, quality records and failure counts of a run.
struct Ledger {
    /// First output seen per instance: the reference later ones must
    /// match byte for byte.
    reference: Vec<Option<Vec<u8>>>,
    /// δ and connected share per instance, from its first repetition.
    quality: Vec<Option<(f64, f64)>>,
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn new(instances: usize) -> Self {
        Ledger {
            reference: vec![None; instances],
            quality: vec![None; instances],
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs `w` on instance `i` and checks its output; `None` when the
    /// repetition failed.
    fn repeat(
        &mut self,
        w: &dyn Workload,
        cfg: &Config,
        i: usize,
        traced: bool,
        work: &Path,
    ) -> Option<Iteration> {
        self.attempted += w.ops();
        let it = match w.iterate(cfg.seed, i, traced, work) {
            Ok(it) => it,
            Err(e) => {
                eprintln!("{}: repetition failed: {e}", w.name());
                self.failed += w.ops();
                return None;
            }
        };
        let reference = self.reference[i].get_or_insert_with(|| it.output.clone());
        let matches = *reference == it.output;
        if !matches {
            eprintln!(
                "{}: instance {i} output differs from its first repetition (traced: {traced})",
                w.name()
            );
        }
        if !it.ok {
            eprintln!("{}: output checks failed on instance {i}", w.name());
        }
        if !(it.ok && matches) {
            self.failed += w.ops();
            return None;
        }
        self.quality[i].get_or_insert((it.delta_final, it.connected_frac));
        Some(it)
    }
}

/// Linear-interpolation quantile of sorted `values` (`q` in [0, 1]).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (NaN when empty).
pub(crate) fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Runs workload `w` under `cfg`, keeping its files in `work`.
///
/// # Errors
///
/// Only when the work directory cannot be created; workload failures
/// are counted in the report instead.
pub fn run(w: &dyn Workload, cfg: &Config, work: &Path) -> Result<Report, Box<dyn Error>> {
    std::fs::create_dir_all(work)?;
    let mut ledger = Ledger::new(w.instances());
    // Warm-up: spawns the pool and faults in code and data; its output
    // becomes instance 0's reference.
    ledger.repeat(w, cfg, 0, false, work);
    let cycle = w.instances();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut notes = Vec::new();
    let mut plain = Vec::new();
    let metrics = if cfg.trace {
        // Pairs: each instance untraced, then traced. The traced output
        // must match the untraced one byte for byte, and the pairs give
        // the tracing overhead on the same inputs.
        let mut traced = Vec::new();
        let mut i = 0;
        while i == 0 || Instant::now() < deadline {
            plain.extend(ledger.repeat(w, cfg, i % cycle, false, work));
            cps_obs::enable();
            traced.extend(ledger.repeat(w, cfg, i % cycle, true, work));
            cps_obs::disable();
            i += 1;
        }
        let overhead = median(traced.iter().map(|it| it.body_ns as f64))
            / median(plain.iter().map(|it| it.body_ns as f64))
            - 1.0;
        notes.push(breakdown(w.name(), &traced));
        per_layer(&traced, overhead)
    } else {
        // Every instance runs at least once, so δ covers all of them.
        let mut i = 0;
        let mut calibrations = Vec::new();
        while i < cycle || Instant::now() < deadline {
            let calibration = probe::calibration_ns(w.threads()) as f64;
            if let Some(mut it) = ledger.repeat(w, cfg, i % cycle, false, work) {
                it.scale = probe::CALIBRATION_REF_NS / calibration;
                plain.push(it);
                calibrations.push(calibration / 1e6);
            }
            i += 1;
        }
        let raw = end_to_end(&plain, &ledger, false);
        let deltas: Vec<String> = ledger
            .quality
            .iter()
            .map(|q| q.map_or("null".to_string(), |q| format!("{}", q.0)))
            .collect();
        let raw_times: Vec<String> = raw
            .iter()
            .take(5)
            .map(|(name, v, _)| format!("\"{name}\":{v}"))
            .collect();
        notes.push(format!(
            "{{\"kind\":\"samples\",\"workload\":\"{}\",\"repetitions\":{},\
             \"latencies\":{},\"calibration_ms\":{},\"unscaled\":{{{}}},\
             \"delta_by_instance\":[{}]}}",
            w.name(),
            plain.len(),
            plain.iter().map(|it| it.latencies_ns.len()).sum::<usize>(),
            median(calibrations),
            raw_times.join(","),
            deltas.join(",")
        ));
        end_to_end(&plain, &ledger, true)
    };
    let correct = ledger.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    Ok(Report {
        correct,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        notes,
    })
}

/// The end-to-end metrics of an untraced window. With `scaled`, every
/// time is multiplied by its repetition's calibration factor, so that a
/// machine that runs slower for a while does not read as a slower
/// program.
fn end_to_end(
    done: &[Iteration],
    ledger: &Ledger,
    scaled: bool,
) -> Vec<(&'static str, f64, &'static str)> {
    let scale = |it: &Iteration| if scaled { it.scale } else { 1.0 };
    let mut latencies: Vec<f64> = done
        .iter()
        .flat_map(|it| {
            it.latencies_ns
                .iter()
                .map(move |&ns| ns as f64 * scale(it) / 1e6)
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    let quality: Vec<(f64, f64)> = ledger.quality.iter().flatten().copied().collect();
    let mean =
        |f: fn(&(f64, f64)) -> f64| quality.iter().map(f).sum::<f64>() / quality.len() as f64;
    let values = [
        median(done.iter().map(|it| it.body_ns as f64 * scale(it) / 1e9)),
        median(done.iter().map(|it| it.setup_ns as f64 * scale(it) / 1e9)),
        quantile(&latencies, 0.5),
        quantile(&latencies, 0.9),
        median(
            done.iter()
                .map(|it| it.jobs as f64 * 1e9 / (it.body_ns as f64 * scale(it))),
        ),
        mean(|q| q.0),
        mean(|q| q.1),
        probe::peak_rss_mib(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// Per-layer metrics: the traced repetitions' mean per repetition.
fn per_layer(traced: &[Iteration], overhead: f64) -> Vec<(&'static str, f64, &'static str)> {
    let n = traced.len().max(1) as f64;
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "obs.trace_overhead_frac" => overhead,
                _ => {
                    traced
                        .iter()
                        .map(|it| it.layers.0.get(name).copied().unwrap_or(0.0))
                        .sum::<f64>()
                        / n
                }
            };
            (name, value, unit)
        })
        .collect()
}

/// The traced run's parts, per repetition: the body split into its timed
/// children plus the rest, and the summed slot wall split into stage
/// spans, the recorder's δ sampling and the unattributed remainder.
fn breakdown(workload: &str, traced: &[Iteration]) -> String {
    let n = traced.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Iteration) -> f64| traced.iter().map(f).sum::<f64>() / n;
    let body = mean(&|it| it.body_ns as f64);
    let mut body_parts = Vec::new();
    let mut covered = 0.0;
    if let Some(first) = traced.first() {
        for (i, &(name, _)) in first.parts.iter().enumerate() {
            let v = mean(&|it| it.parts.get(i).map_or(0.0, |p| p.1 as f64));
            covered += v;
            body_parts.push(format!("\"{name}\":{v:.0}"));
        }
    }
    body_parts.push(format!("\"rest_ns\":{:.0}", body - covered));
    let layer = |name: &str| mean(&|it| it.layers.0.get(name).copied().unwrap_or(0.0));
    let slot_parts: Vec<String> = probe::STAGES
        .iter()
        .map(|s| {
            format!(
                "\"sim.stage.{s}_ns\":{:.0}",
                layer(&format!("sim.stage.{s}_ns"))
            )
        })
        .chain(
            ["field.delta_sample_ns", "sim.unattributed_ns"]
                .iter()
                .map(|name| format!("\"{name}\":{:.0}", layer(name))),
        )
        .collect();
    format!(
        "{{\"kind\":\"parts\",\"workload\":\"{workload}\",\"repetitions\":{},\
         \"body_ns\":{body:.0},\"body_parts\":{{{}}},\
         \"slot_wall_ns\":{:.0},\"slot_parts\":{{{}}}}}",
        traced.len(),
        body_parts.join(","),
        layer("sim.step_ns"),
        slot_parts.join(",")
    )
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let value = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}
