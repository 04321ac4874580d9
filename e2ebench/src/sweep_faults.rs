//! `sweep_faults`: a `cps sweep` fault grid on 2 workers with a
//! manifest, then the `--resume on` replay of the finished manifest.

use std::error::Error;
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cps_core::{CpsConfig, EvalOptions};
use cps_field::{Parallelism, TimeVaryingField};
use cps_geometry::GridSpec;
use cps_greenorbs::{ForestConfig, LatentLightField};
use cps_sim::{
    run_sweep, scenario, CmaBuilder, DeltaTimeline, FaultEvent, FaultPlan, JobOutcome, RunRecorder,
    SimConfig, SweepJob, SweepManifest, SweepSpec,
};

use crate::probe::{Counted, Evals, JobClock, Layers, Lead, SlotSpans, Tail, Window};
use crate::{derive_seed, elapsed_ns, median, Iteration, Workload};

/// Times the set-up is repeated per repetition.
const SETUP_REPEATS: usize = 25;

/// The fault-sweep workload.
#[derive(Debug, Clone)]
pub struct SweepFaults {
    instances: usize,
    seeds: u64,
    k: Vec<usize>,
    minutes: u64,
    resolution: usize,
    workers: usize,
}

impl SweepFaults {
    /// Seeds {s, …, s+3} × k {49, 121} × {no faults, mixed faults},
    /// 30 slots on the 101² grid: 16 jobs whose sizes differ by 2.5×,
    /// so the 2 workers see uneven work. Deaths make the work depend on
    /// the seed, hence twelve sweeps per run.
    pub fn paper() -> Self {
        SweepFaults {
            instances: 12,
            seeds: 4,
            k: vec![49, 121],
            minutes: 30,
            resolution: 101,
            workers: 2,
        }
    }

    /// A reduced size for the harness's own tests.
    pub fn smoke() -> Self {
        SweepFaults {
            instances: 2,
            seeds: 2,
            k: vec![9, 16],
            minutes: 6,
            resolution: 41,
            workers: 2,
        }
    }

    /// The spec for workload seed `s`; the fault stream is seeded by `s`.
    pub fn spec(&self, s: u64) -> SweepSpec {
        SweepSpec {
            seeds: (s..s + self.seeds).collect(),
            k: self.k.clone(),
            faults: vec![
                String::new(),
                format!("seed={s},death=0.01,dropout=0.05,outlier=0.02:5,loss=0.1:2"),
            ],
            minutes: self.minutes,
            resolution: self.resolution,
            ..SweepSpec::default()
        }
    }

    fn sweep<'f, F, W>(
        &self,
        spec: &SweepSpec,
        fields: &'f [LatentLightField],
        wrap: W,
        manifest: &Path,
        traced: bool,
    ) -> Result<Iteration, Box<dyn Error>>
    where
        F: TimeVaryingField + Sync,
        W: Fn(&'f LatentLightField) -> F + Sync,
    {
        let lifetimes = Mutex::new(Vec::new());
        let built = AtomicUsize::new(0);
        // Jobs share one field per seed, built in set-up.
        let make = |job: &SweepJob| {
            built.fetch_add(1, Ordering::Relaxed);
            let index = spec
                .seeds
                .iter()
                .position(|&s| s == job.seed)
                .expect("every job seed comes from the spec");
            JobClock::new(wrap(&fields[index]), &lifetimes)
        };
        let window = traced.then(Window::open);
        let body = Instant::now();
        let results = run_sweep(spec, self.workers, Some(manifest), false, make)?;
        let sweep_ns = elapsed_ns(body);
        let json = results.to_json()?;
        let fresh = built.load(Ordering::Relaxed);
        let t = Instant::now();
        let replay = run_sweep(spec, self.workers, Some(manifest), true, make)?;
        let resume_ns = elapsed_ns(t);
        let body_ns = elapsed_ns(body);
        let mut layers = Layers::default();
        if let Some(window) = window {
            window.close(self.workers, &mut layers);
        }

        let jobs = results.jobs.len();
        let resumed = SweepManifest::load(manifest, spec.digest()?)?
            .completed()
            .len();
        let mut ok =
            replay.to_json()? == json && built.load(Ordering::Relaxed) == fresh && resumed == jobs;
        let cells = results.cells.len().max(1) as f64;
        let delta_final = results
            .cells
            .iter()
            .map(|c| c.final_delta.mean)
            .sum::<f64>()
            / cells;
        let connected_frac = results
            .cells
            .iter()
            .map(|c| c.connected_fraction)
            .sum::<f64>()
            / cells;
        let lifetimes = lifetimes.into_inner().map_err(|_| "a sweep job panicked")?;
        let latencies_ns = lifetimes.iter().map(|ns| ns / self.minutes).collect();

        let mut parts = Vec::new();
        if traced {
            layers.add(
                "sim.sweep.manifest_bytes",
                fs::metadata(manifest)?.len() as f64,
            );
            layers.add("sim.sweep.resume_ns", resume_ns as f64);
            parts = vec![
                ("sim.sweep.run_ns", sweep_ns),
                ("sim.sweep.resume_ns", resume_ns),
            ];
            // Stage spans cannot be observed inside run_sweep, so every
            // job is replayed serially through the same public calls
            // with the span observers attached; the replay must match
            // the sweep's outcome bit for bit.
            let spans = SlotSpans::default();
            let (mut step_ns, mut samples) = (0, 0);
            for (job, outcome) in results.jobs.iter().zip(&results.outcomes) {
                let index = (job.seed - spec.seeds[0]) as usize;
                let (replayed, ns) = replay_job(spec, job, &fields[index], &spans)?;
                ok &= replayed == *outcome;
                step_ns += ns;
                // The baseline sample is taken before the first slot.
                samples += replayed.series.len() - 1;
            }
            layers.add_slots(&spans, step_ns);
            layers.add("field.delta_samples", samples as f64);
        }
        Ok(Iteration {
            setup_ns: 0,
            body_ns,
            latencies_ns,
            ok,
            delta_final,
            connected_frac,
            jobs: jobs as u64,
            output: json.into_bytes(),
            layers,
            parts,
            scale: 1.0,
        })
    }
}

/// One sweep job through the calls `run_sweep` makes for it, with the
/// span observers on the bus. Returns the outcome and the summed
/// `step_observed` wall time.
fn replay_job<F: TimeVaryingField + Sync>(
    spec: &SweepSpec,
    job: &SweepJob,
    field: F,
    spans: &SlotSpans,
) -> Result<(JobOutcome, u64), Box<dyn Error>> {
    let mut cps = CpsConfig::builder();
    cps.comm_radius(job.comm_radius);
    let config = SimConfig {
        cps: cps.build()?,
        ..SimConfig::default()
    };
    let start =
        scenario::grid_start_spaced(spec.region, job.k, spec.spacing_factor * job.comm_radius)?;
    let mut builder = CmaBuilder::new(spec.region, start)
        .config(config)
        .evaluator(EvalOptions::new().parallelism(Parallelism::serial()))
        .start_time(spec.start_time);
    if !job.fault_spec.is_empty() {
        builder = builder.faults(FaultPlan::parse(&job.fault_spec)?);
    }
    let mut sim = builder.run(field)?;
    let grid = GridSpec::new(spec.region, spec.resolution, spec.resolution)?;
    let mut recorder = RunRecorder::new()
        .timeline(DeltaTimeline::for_simulation(&sim), grid)
        .sample_every(spec.sample_every)
        .final_slot(spec.minutes);
    let mut last = recorder.prime(&sim)?.ok_or("recorder lost its timeline")?;
    let (mut messages, mut step_ns) = (0, 0);
    for _ in 0..spec.minutes {
        let t = Instant::now();
        let report = sim.step_observed(&mut [&mut Lead(spans), &mut recorder, &mut Tail(spans)])?;
        step_ns += elapsed_ns(t);
        messages += report.messages as u64;
        if let Some(sample) = recorder.take_sample() {
            last = sample;
        }
    }
    let timeline = recorder
        .timeline_ref()
        .ok_or("recorder lost its timeline")?;
    let deaths = sim
        .fault_events()
        .iter()
        .filter(|e| matches!(e, FaultEvent::Death { .. }))
        .count();
    let outcome = JobOutcome {
        final_delta: last.delta,
        best_delta: timeline.best_delta(),
        final_connected: last.connected,
        alive: sim.alive_count(),
        deaths,
        messages,
        series: timeline.delta_series(),
    };
    Ok((outcome, step_ns))
}

impl Workload for SweepFaults {
    fn name(&self) -> &'static str {
        "sweep_faults"
    }

    fn threads(&self) -> usize {
        self.workers
    }

    fn ops(&self) -> u64 {
        self.seeds * self.k.len() as u64 * 2
    }

    fn instances(&self) -> usize {
        self.instances
    }

    fn iterate(
        &self,
        seed: u64,
        instance: usize,
        traced: bool,
        work: &Path,
    ) -> Result<Iteration, Box<dyn Error>> {
        fs::create_dir_all(work)?;
        let manifest = work.join("sweep.manifest");
        if manifest.exists() {
            fs::remove_file(&manifest)?;
        }
        // 32 bits keep s + 3 from overflowing.
        let s = derive_seed(seed, instance) & 0xffff_ffff;
        // Set-up takes microseconds, so one repetition times it several
        // times and keeps the median.
        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        let mut prepared = None;
        for _ in 0..SETUP_REPEATS {
            let setup = Instant::now();
            // As `cps sweep` does, the spec arrives as JSON.
            let spec = SweepSpec::from_json(&self.spec(s).to_json()?)?;
            let fields: Vec<LatentLightField> = spec
                .seeds
                .iter()
                .map(|&seed| {
                    LatentLightField::new(&ForestConfig {
                        seed,
                        ..ForestConfig::default()
                    })
                })
                .collect();
            setups.push(elapsed_ns(setup) as f64);
            prepared = Some((spec, fields));
        }
        let (spec, fields) = prepared.ok_or("no set-up ran")?;
        let setup_ns = median(setups) as u64;
        let mut iteration = if traced {
            let wrap = |f| Counted::new(f, Evals::Latent);
            self.sweep(&spec, &fields, wrap, &manifest, true)?
        } else {
            self.sweep(&spec, &fields, |f| f, &manifest, false)?
        };
        iteration.setup_ns = setup_ns;
        Ok(iteration)
    }
}
