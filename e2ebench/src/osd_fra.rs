//! `osd_fra`: the `cps plan` path (Figs. 5–7) — a generated trace
//! round-tripped through JSON, the hour-10 light surface, FRA at k = 400
//! and the deployment report, all serial.

use std::error::Error;
use std::path::Path;
use std::time::Instant;

use cps_core::osd::FraBuilder;
use cps_core::{analyze_deployment_with, DeltaEvaluator, EvalOptions};
use cps_field::{Field, GridField, Parallelism};
use cps_geometry::GridSpec;
use cps_greenorbs::{Channel, Dataset, ForestConfig};
use cps_network::UnitDiskGraph;

use crate::probe::{Counted, Evals, Layers, Window};
use crate::{derive_seed, elapsed_ns, region, Iteration, Workload};

const COMM_RADIUS: f64 = 10.0;
const HOUR: u32 = 10;

/// The FRA planning workload.
#[derive(Debug, Clone)]
pub struct OsdFra {
    instances: usize,
    k: usize,
    resolution: usize,
}

impl OsdFra {
    /// k = 400 on the 101² grid, as `cps plan --k 400`.
    pub fn paper() -> Self {
        OsdFra {
            instances: 24,
            k: 400,
            resolution: 101,
        }
    }

    /// A reduced size for the harness's own tests.
    pub fn smoke() -> Self {
        OsdFra {
            instances: 2,
            k: 40,
            resolution: 41,
        }
    }

    fn plan<F: Field + Sync>(
        &self,
        reference: &F,
        plain: &GridField,
        grid: GridSpec,
        traced: bool,
    ) -> Result<Iteration, Box<dyn Error>> {
        let serial = Parallelism::serial();
        let window = traced.then(Window::open);
        let body = Instant::now();
        let result = FraBuilder::new(self.k, COMM_RADIUS)
            .grid(grid)
            .evaluator(EvalOptions::new().parallelism(serial))
            .run(reference)?;
        let fra_ns = elapsed_ns(body);
        let t = Instant::now();
        let report =
            analyze_deployment_with(reference, &result.positions, COMM_RADIUS, &grid, serial)?;
        let analyze_ns = elapsed_ns(t);
        let body_ns = elapsed_ns(body);
        let mut layers = Layers::default();
        if let Some(window) = window {
            window.close(1, &mut layers);
        }

        // Output checks, outside the timed body.
        let t = Instant::now();
        let connected = UnitDiskGraph::new(result.positions.clone(), COMM_RADIUS)?.is_connected();
        let udg_ns = elapsed_ns(t);
        let scratch = DeltaEvaluator::new(plain, &grid, COMM_RADIUS)
            .parallelism(Parallelism::fixed(2))
            .evaluate(&result.positions)?;
        let delta = report.evaluation.delta;
        let ok = result.positions.len() == self.k
            && result.positions.iter().all(|&p| region().contains(p))
            && connected
            && report.evaluation.connected
            && scratch.delta.to_bits() == delta.to_bits();

        let mut output = Vec::new();
        for p in &result.positions {
            output.extend_from_slice(&p.x.to_le_bytes());
            output.extend_from_slice(&p.y.to_le_bytes());
        }
        output.extend_from_slice(&(result.refined as u64).to_le_bytes());
        output.extend_from_slice(&(result.relays as u64).to_le_bytes());
        output.extend_from_slice(&delta.to_le_bytes());

        let mut parts = Vec::new();
        if traced {
            layers.add("core.fra.run_ns", fra_ns as f64);
            layers.add("core.fra.refined", result.refined as f64);
            layers.add("core.fra.relays", result.relays as f64);
            layers.add("core.analyze_ns", analyze_ns as f64);
            layers.add("network.udg_ns", udg_ns as f64);
            parts = vec![("core.fra.run_ns", fra_ns), ("core.analyze_ns", analyze_ns)];
        }
        Ok(Iteration {
            setup_ns: 0,
            body_ns,
            latencies_ns: vec![body_ns],
            ok,
            delta_final: delta,
            connected_frac: if report.evaluation.connected {
                1.0
            } else {
                0.0
            },
            jobs: 1,
            output,
            layers,
            parts,
            scale: 1.0,
        })
    }
}

impl Workload for OsdFra {
    fn name(&self) -> &'static str {
        "osd_fra"
    }

    fn instances(&self) -> usize {
        self.instances
    }

    fn threads(&self) -> usize {
        1
    }

    fn ops(&self) -> u64 {
        1
    }

    fn iterate(
        &self,
        seed: u64,
        instance: usize,
        traced: bool,
        _work: &Path,
    ) -> Result<Iteration, Box<dyn Error>> {
        let setup = Instant::now();
        let dataset = Dataset::generate(&ForestConfig {
            seed: derive_seed(seed, instance),
            ..ForestConfig::default()
        });
        let dataset = Dataset::from_json(&dataset.to_json()?)?;
        let reference = dataset.region_field(region(), Channel::Light, HOUR, self.resolution)?;
        let grid = GridSpec::new(region(), self.resolution, self.resolution)?;
        let setup_ns = elapsed_ns(setup);
        let mut iteration = if traced {
            let counted = Counted::new(&reference, Evals::Grid);
            self.plan(&counted, &reference, grid, true)?
        } else {
            self.plan(&reference, &reference, grid, false)?
        };
        iteration.setup_ns = setup_ns;
        Ok(iteration)
    }
}
