//! `ostd_cma`: the paper's OSTD scenario (Figs. 8–10) through the call
//! sequence of `cps simulate`, with periodic checkpoints and a restore.

use std::error::Error;
use std::fs;
use std::path::Path;
use std::time::Instant;

use cps_core::{EvalOptions, SurvivabilityTracker};
use cps_field::{Parallelism, TimeVaryingField};
use cps_geometry::GridSpec;
use cps_greenorbs::{ForestConfig, LatentLightField};
use cps_sim::{scenario, CheckpointDir, CmaBuilder, DeltaTimeline, RunRecorder};

use crate::probe::{Counted, Evals, Layers, Lead, SlotSpans, Tail, Window};
use crate::{derive_seed, elapsed_ns, region, Iteration, Workload};

/// Start-lattice spacing of the canonical mobile scenario (0.93 Rc).
const SPACING: f64 = 9.3;
/// Deployment time: 10:00, in minutes.
const START_MINUTE: f64 = 600.0;
const SAMPLE_EVERY: u64 = 5;
const CHECKPOINT_EVERY: u64 = 10;

/// The CMA swarm workload.
#[derive(Debug, Clone)]
pub struct OstdCma {
    instances: usize,
    k: usize,
    slots: u64,
    resolution: usize,
    threads: usize,
}

impl OstdCma {
    /// k = 100 for 120 slots on the 101² grid at 2 threads: every run
    /// has at least 100 slots, so `slot_ms_p90` has ten samples beyond
    /// it from a single simulation.
    pub fn paper() -> Self {
        OstdCma {
            instances: 36,
            k: 100,
            slots: 120,
            resolution: 101,
            threads: 2,
        }
    }

    /// A reduced size for the harness's own tests.
    pub fn smoke() -> Self {
        OstdCma {
            instances: 2,
            k: 25,
            slots: 20,
            resolution: 41,
            threads: 2,
        }
    }

    fn simulate<F: TimeVaryingField + Sync>(
        &self,
        field: F,
        label: &str,
        dir: &Path,
        spans: Option<&SlotSpans>,
        setup: Instant,
    ) -> Result<Iteration, Box<dyn Error>> {
        let eval = EvalOptions::new().parallelism(Parallelism::fixed(self.threads));
        let start = scenario::grid_start_spaced(region(), self.k, SPACING)?;
        let fleet = start.len();
        let mut sim = CmaBuilder::new(region(), start)
            .evaluator(eval)
            .start_time(START_MINUTE)
            .run(field)?;
        let grid = GridSpec::new(region(), self.resolution, self.resolution)?;
        let mut recorder = RunRecorder::new()
            .timeline(DeltaTimeline::for_simulation(&sim), grid)
            .sample_every(SAMPLE_EVERY)
            .final_slot(self.slots)
            .survivability(SurvivabilityTracker::new(fleet))
            .sync_events(&sim);
        recorder.prime(&sim)?;
        let store = CheckpointDir::new(dir);
        let setup_ns = elapsed_ns(setup);

        let window = spans.map(|_| Window::open());
        let body = Instant::now();
        let mut latencies_ns = Vec::with_capacity(self.slots as usize);
        let (mut write_ns, mut bytes) = (0, 0);
        let mut stored = None;
        for _ in 0..self.slots {
            let t = Instant::now();
            match spans {
                None => sim.step_observed(&mut [&mut recorder])?,
                Some(s) => sim.step_observed(&mut [&mut Lead(s), &mut recorder, &mut Tail(s)])?,
            };
            latencies_ns.push(elapsed_ns(t));
            recorder.take_sample();
            if sim.slot() % CHECKPOINT_EVERY == 0 {
                let t = Instant::now();
                let mut snapshot = sim.checkpoint();
                snapshot.label = label.to_string();
                if let Some(timeline) = recorder.timeline_ref() {
                    snapshot.attach_timeline(timeline);
                }
                if let Some(tracker) = recorder.survivability_ref() {
                    snapshot.attach_survivability(tracker);
                }
                let path = store.store(&snapshot)?;
                write_ns += elapsed_ns(t);
                bytes += fs::metadata(&path)?.len();
                stored = Some(snapshot);
            }
        }
        let t = Instant::now();
        let restored = store.latest_valid()?.map(|(snapshot, _)| snapshot);
        let restore_ns = elapsed_ns(t);
        let body_ns = elapsed_ns(body);
        let mut layers = Layers::default();
        if let Some(window) = window {
            window.close(self.threads, &mut layers);
        }

        let timeline = recorder
            .timeline_ref()
            .ok_or("recorder lost its timeline")?;
        let samples = timeline.samples();
        let finite = samples.iter().all(|(_, e)| e.delta.is_finite());
        let mut output = Vec::new();
        for p in sim.positions() {
            output.extend_from_slice(&p.x.to_le_bytes());
            output.extend_from_slice(&p.y.to_le_bytes());
        }
        for (t, e) in samples {
            output.extend_from_slice(&t.to_le_bytes());
            output.extend_from_slice(&e.delta.to_le_bytes());
            output.push(u8::from(e.connected));
        }
        let connected = samples.iter().filter(|(_, e)| e.connected).count();

        let mut parts = Vec::new();
        if let Some(spans) = spans {
            let step_ns: u64 = latencies_ns.iter().sum();
            layers.add_slots(spans, step_ns);
            layers.add("field.delta_samples", samples.len() as f64 - 1.0);
            layers.add("sim.checkpoint.write_ns", write_ns as f64);
            layers.add("sim.checkpoint.bytes", bytes as f64);
            layers.add("sim.checkpoint.restore_ns", restore_ns as f64);
            parts = vec![
                ("sim.step_ns", step_ns),
                ("sim.checkpoint.write_ns", write_ns),
                ("sim.checkpoint.restore_ns", restore_ns),
            ];
        }
        Ok(Iteration {
            setup_ns,
            body_ns,
            latencies_ns,
            ok: finite && stored.is_some() && restored == stored,
            delta_final: samples.last().map_or(f64::NAN, |(_, e)| e.delta),
            connected_frac: connected as f64 / samples.len().max(1) as f64,
            jobs: 1,
            output,
            layers,
            parts,
            scale: 1.0,
        })
    }
}

impl Workload for OstdCma {
    fn name(&self) -> &'static str {
        "ostd_cma"
    }

    fn instances(&self) -> usize {
        self.instances
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn ops(&self) -> u64 {
        self.slots
    }

    fn iterate(
        &self,
        seed: u64,
        instance: usize,
        traced: bool,
        work: &Path,
    ) -> Result<Iteration, Box<dyn Error>> {
        let dir = work.join("checkpoints");
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        let setup = Instant::now();
        let forest = derive_seed(seed, instance);
        let field = LatentLightField::new(&ForestConfig {
            seed: forest,
            ..ForestConfig::default()
        });
        let label = format!("forest,seed={forest}");
        if traced {
            let spans = SlotSpans::default();
            let field = Counted::new(&field, Evals::Latent);
            self.simulate(field, &label, &dir, Some(&spans), setup)
        } else {
            self.simulate(&field, &label, &dir, None, setup)
        }
    }
}
