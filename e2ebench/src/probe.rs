//! Outside-in instruments for the traced run, and the machine-speed
//! calibration of the untraced one.
//!
//! Nothing here reaches into the program: the per-layer numbers come
//! from a wrapper around the field the benchmark hands to the library,
//! from [`StepObserver`]s on the public event bus, from the `cps-obs`
//! counters, and from `/proc`. The untraced run uses only
//! [`JobClock`], whose per-call cost is an inlined forward, and
//! [`calibration_ns`], which runs between repetitions.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cps_core::CoreError;
use cps_field::{Field, TimeVaryingField};
use cps_geometry::{GridSpec, Point2};
use cps_linalg::Summary;
use cps_sim::{StepEvent, StepObserver};

/// Which field a [`Counted`] wrapper stands in front of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evals {
    /// The latent light field sampled by CMA nodes (`cps-greenorbs`);
    /// every evaluation is counted and timed.
    Latent = 0,
    /// The gridded reference surface FRA refines against
    /// (`cps-field`); evaluations are counted only, because a bilinear
    /// lookup costs about as much as reading the clock.
    Grid = 1,
}

/// One thread's evaluation tallies. Only the owning thread writes, so
/// the 2-thread sense sweep never contends on a shared atomic; the
/// alignment keeps two threads' tallies off one cache line.
#[derive(Default)]
#[repr(align(128))]
struct ThreadTally {
    evals: [AtomicU64; 2],
    latent_ns: AtomicU64,
}

static TALLIES: Mutex<Vec<&'static ThreadTally>> = Mutex::new(Vec::new());

thread_local! {
    static TALLY: &'static ThreadTally = {
        // Leaked once per thread; the process has a handful of threads.
        let tally: &'static ThreadTally = Box::leak(Box::default());
        TALLIES.lock().expect("tally registry poisoned").push(tally);
        tally
    };
}

/// Owner-only increment: a relaxed load and store, no read-modify-write.
fn bump(slot: &AtomicU64, by: u64) {
    slot.store(slot.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

fn record(kind: Evals, evals: u64, started: Option<Instant>) {
    TALLY.with(|t| {
        bump(&t.evals[kind as usize], evals);
        if let Some(start) = started {
            bump(&t.latent_ns, start.elapsed().as_nanos() as u64);
        }
    });
}

/// Process-wide evaluation totals, summed over every thread's tally.
#[derive(Debug, Clone, Copy, Default)]
struct EvalTotals {
    latent: u64,
    latent_ns: u64,
    grid: u64,
}

impl EvalTotals {
    /// Sums the tallies of every thread seen so far. Call between
    /// library calls: the library's worker threads have then finished
    /// writing.
    fn now() -> Self {
        let tallies = TALLIES.lock().expect("tally registry poisoned");
        tallies
            .iter()
            .fold(EvalTotals::default(), |acc, t| EvalTotals {
                latent: acc.latent + t.evals[Evals::Latent as usize].load(Ordering::Relaxed),
                latent_ns: acc.latent_ns + t.latent_ns.load(Ordering::Relaxed),
                grid: acc.grid + t.evals[Evals::Grid as usize].load(Ordering::Relaxed),
            })
    }
}

/// A field that counts (and for [`Evals::Latent`], times) every
/// evaluation, then forwards it unchanged, so results stay bit-identical
/// to the unwrapped field.
#[derive(Debug, Clone, Copy)]
pub struct Counted<F> {
    inner: F,
    kind: Evals,
}

impl<F> Counted<F> {
    /// Wraps `inner`, tallying under `kind`.
    pub fn new(inner: F, kind: Evals) -> Self {
        Counted { inner, kind }
    }

    fn start(&self) -> Option<Instant> {
        (self.kind == Evals::Latent).then(Instant::now)
    }
}

impl<F: Field> Field for Counted<F> {
    fn value(&self, p: Point2) -> f64 {
        let start = self.start();
        let v = self.inner.value(p);
        record(self.kind, 1, start);
        v
    }

    fn sample_grid(&self, grid: &GridSpec) -> Vec<f64> {
        let start = self.start();
        let out = self.inner.sample_grid(grid);
        record(self.kind, grid.len() as u64, start);
        out
    }

    fn summarize(&self, grid: &GridSpec) -> Summary {
        let start = self.start();
        let out = self.inner.summarize(grid);
        record(self.kind, grid.len() as u64, start);
        out
    }
}

impl<F: TimeVaryingField> TimeVaryingField for Counted<F> {
    fn value_at(&self, p: Point2, t: f64) -> f64 {
        let start = self.start();
        let v = self.inner.value_at(p, t);
        record(self.kind, 1, start);
        v
    }
}

/// A field that records how long it lived: a sweep job builds its field
/// first and drops it with the finished simulation, so the lifetime is
/// the job's latency as seen from outside `run_sweep`.
#[derive(Debug)]
pub struct JobClock<'a, F> {
    inner: F,
    born: Instant,
    sink: &'a Mutex<Vec<u64>>,
}

impl<'a, F> JobClock<'a, F> {
    /// Starts the clock; the lifetime in ns lands in `sink` on drop.
    pub fn new(inner: F, sink: &'a Mutex<Vec<u64>>) -> Self {
        JobClock {
            inner,
            born: Instant::now(),
            sink,
        }
    }
}

impl<F: TimeVaryingField> TimeVaryingField for JobClock<'_, F> {
    #[inline]
    fn value_at(&self, p: Point2, t: f64) -> f64 {
        self.inner.value_at(p, t)
    }
}

impl<F> Drop for JobClock<'_, F> {
    fn drop(&mut self) {
        let ns = self.born.elapsed().as_nanos() as u64;
        // A poisoned sink means a job panicked; its sweep fails anyway.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(ns);
        }
    }
}

/// The standard pipeline's stage names, in execution order.
pub const STAGES: [&str; 6] = [
    "fault", "sense", "exchange", "recovery", "optimize", "record",
];

/// Span totals of one or more slots, filled by [`Lead`] and [`Tail`].
#[derive(Debug, Default)]
pub struct SlotSpans {
    /// Nanoseconds inside each of [`STAGES`].
    stage_ns: [Cell<u64>; 6],
    /// Nanoseconds the observers between [`Lead`] and [`Tail`] spent on
    /// `SlotEnd` (the run recorder's δ sample and ledger update).
    recorder_ns: Cell<u64>,
    open: Cell<Option<(usize, Instant)>>,
    slot_end: Cell<Option<Instant>>,
}

impl SlotSpans {
    /// Sum of the stage spans.
    fn stages_total(&self) -> u64 {
        self.stage_ns.iter().map(Cell::get).sum()
    }
}

/// First observer on the bus: times each stage between its
/// `StageStart` and `StageEnd`, and marks when `SlotEnd` begins.
#[derive(Debug)]
pub struct Lead<'a>(pub &'a SlotSpans);

/// Last observer on the bus: closes the `SlotEnd` mark [`Lead`] opened,
/// so everything in between is charged to `recorder_ns`.
#[derive(Debug)]
pub struct Tail<'a>(pub &'a SlotSpans);

impl<F> StepObserver<F> for Lead<'_> {
    fn on_event(&mut self, event: StepEvent<'_, F>) -> Result<(), CoreError> {
        let spans = self.0;
        match event {
            StepEvent::StageStart { stage } => {
                let index =
                    STAGES
                        .iter()
                        .position(|&s| s == stage)
                        .ok_or(CoreError::InvalidParameter {
                            name: "stage",
                            requirement: "the benchmark times only the standard pipeline",
                        })?;
                spans.open.set(Some((index, Instant::now())));
            }
            StepEvent::StageEnd { .. } => {
                if let Some((index, start)) = spans.open.take() {
                    let cell = &spans.stage_ns[index];
                    cell.set(cell.get() + start.elapsed().as_nanos() as u64);
                }
            }
            StepEvent::SlotEnd { .. } => spans.slot_end.set(Some(Instant::now())),
            StepEvent::SlotStart { .. } => {}
        }
        Ok(())
    }
}

impl<F> StepObserver<F> for Tail<'_> {
    fn on_event(&mut self, event: StepEvent<'_, F>) -> Result<(), CoreError> {
        if let (StepEvent::SlotEnd { .. }, Some(mark)) = (event, self.0.slot_end.take()) {
            let spans = self.0;
            spans
                .recorder_ns
                .set(spans.recorder_ns.get() + mark.elapsed().as_nanos() as u64);
        }
        Ok(())
    }
}

/// The `cps-obs` counters the benchmark reports, by metric name. Phase
/// timers are deliberately not read.
const COUNTERS: [(&str, cps_obs::Counter); 8] = [
    ("sim.fault_retries", cps_obs::Counter::FaultRetries),
    ("network.relay_replans", cps_obs::Counter::RelayReplans),
    ("field.raster_cells", cps_obs::Counter::RasterCells),
    (
        "field.triangles_rasterized",
        cps_obs::Counter::TrianglesRasterized,
    ),
    (
        "core.fra.cavity_recomputes",
        cps_obs::Counter::CavityRecomputes,
    ),
    (
        "core.fra.full_grid_recomputes",
        cps_obs::Counter::FullGridRecomputes,
    ),
    (
        "geometry.delaunay_inserts",
        cps_obs::Counter::DelaunayInserts,
    ),
    ("pool.tasks", cps_obs::Counter::PoolTasks),
];

/// A measurement window over a workload body: counter, evaluation and
/// CPU-time deltas between [`open`](Window::open) and
/// [`close`](Window::close).
#[derive(Debug)]
pub struct Window {
    counters: cps_obs::RunMetrics,
    evals: EvalTotals,
    cpu_ns: u64,
    wall: Instant,
}

impl Window {
    /// Starts the window.
    pub fn open() -> Self {
        Window {
            counters: cps_obs::snapshot(),
            evals: EvalTotals::now(),
            cpu_ns: process_cpu_ns(),
            wall: Instant::now(),
        }
    }

    /// Ends the window, adding its per-layer values to `layers`.
    /// `threads` is the concurrency the body was given, the base of
    /// `pool.utilization`.
    pub fn close(self, threads: usize, layers: &mut Layers) {
        let wall_ns = self.wall.elapsed().as_nanos() as f64;
        let cpu_ns = process_cpu_ns().saturating_sub(self.cpu_ns) as f64;
        let counters = cps_obs::snapshot();
        let evals = EvalTotals::now();
        for (name, counter) in COUNTERS {
            let n = counters.counter(counter) - self.counters.counter(counter);
            layers.add(name, n as f64);
        }
        layers.add(
            "greenorbs.field_evals",
            (evals.latent - self.evals.latent) as f64,
        );
        layers.add(
            "greenorbs.field_eval_ns",
            (evals.latent_ns - self.evals.latent_ns) as f64,
        );
        layers.add("field.grid_evals", (evals.grid - self.evals.grid) as f64);
        if wall_ns > 0.0 {
            layers.add("pool.utilization", cpu_ns / (wall_ns * threads as f64));
        }
    }
}

/// Per-layer values of one iteration, keyed by metric name.
#[derive(Debug, Clone, Default)]
pub struct Layers(pub std::collections::BTreeMap<&'static str, f64>);

impl Layers {
    /// Adds `value` to the metric `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// Adds a slot-span breakdown: the stage spans, the recorder's
    /// δ-sampling span, the summed slot wall and what none of them
    /// covers.
    pub fn add_slots(&mut self, spans: &SlotSpans, slot_wall_ns: u64) {
        const NAMES: [&str; 6] = [
            "sim.stage.fault_ns",
            "sim.stage.sense_ns",
            "sim.stage.exchange_ns",
            "sim.stage.recovery_ns",
            "sim.stage.optimize_ns",
            "sim.stage.record_ns",
        ];
        for (name, ns) in NAMES.iter().zip(&spans.stage_ns) {
            self.add(name, ns.get() as f64);
        }
        let recorder = spans.recorder_ns.get();
        self.add("field.delta_sample_ns", recorder as f64);
        self.add("sim.step_ns", slot_wall_ns as f64);
        self.add(
            "sim.unattributed_ns",
            slot_wall_ns as f64 - spans.stages_total() as f64 - recorder as f64,
        );
    }
}

/// CPU time of the whole process (all threads), from `/proc/self/stat`
/// (`utime` + `stime`, in the fixed 100 Hz ticks `/proc` reports).
/// Returns 0 where `/proc` is unavailable.
fn process_cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) * 10_000_000,
        _ => 0,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Chunks of calibration work per thread.
const CALIBRATION_CHUNKS: usize = 48;

/// Calibration time of the reference machine that end-to-end timings are
/// scaled to, in ns.
pub const CALIBRATION_REF_NS: f64 = 30e6;

/// Duration of a fixed CPU workload that calls nothing in the program.
/// `threads` threads pull chunks of transcendental arithmetic from a
/// shared counter, as the worker pool and the sweep hand out work, so a
/// slowed core passes its share to the other. Run next to each
/// repetition, it measures how fast the machine runs at that moment.
pub fn calibration_ns(threads: usize) -> u64 {
    let threads = threads.max(1);
    let total = (CALIBRATION_CHUNKS * threads) as u64;
    let next = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let next = &next;
                s.spawn(move || {
                    let mut acc = t as f64;
                    while next.fetch_add(1, Ordering::Relaxed) < total {
                        acc = chunk(acc);
                    }
                    acc
                })
            })
            .collect();
        for w in workers {
            std::hint::black_box(w.join().expect("calibration thread panicked"));
        }
    });
    start.elapsed().as_nanos() as u64
}

/// One chunk of calibration work (about 0.6 ms on a 2020s x86 core).
fn chunk(mut acc: f64) -> f64 {
    for i in 0..16_000 {
        let x = f64::from(i) * 1e-3;
        acc += (x + acc * 1e-9).sin() * (-x * 1e-4).exp();
    }
    acc
}
