//! System-level bench: one full simulation slot (sense → CMA → LCM →
//! move) at the paper's scale, on an analytic surface and on the latent
//! forest light field (whose sensing discs go through its lattice
//! kernel).

use cps_field::{GaussianBlob, GaussianMixtureField, Static};
use cps_geometry::{Point2, Rect};
use cps_greenorbs::{ForestConfig, LatentLightField};
use cps_sim::{scenario, CmaBuilder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn environment() -> Static<GaussianMixtureField> {
    Static::new(GaussianMixtureField::new(
        2.0,
        vec![
            GaussianBlob::isotropic(Point2::new(30.0, 65.0), 25.0, 6.0),
            GaussianBlob::isotropic(Point2::new(70.0, 30.0), 20.0, 5.0),
        ],
    ))
}

fn bench_step(c: &mut Criterion) {
    let region = Rect::square(100.0).unwrap();
    let mut group = c.benchmark_group("sim_step");
    group.sample_size(20);
    for k in [25usize, 100] {
        group.throughput(Throughput::Elements(k as u64));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            // Fresh sim per batch so node positions stay comparable.
            b.iter_batched(
                || {
                    CmaBuilder::new(region, scenario::grid_start_spaced(region, k, 9.3).unwrap())
                        .run(environment())
                        .unwrap()
                },
                |mut sim| {
                    sim.step().unwrap();
                    sim
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// One slot of k = 100 nodes sensing the latent light field at 10:00 in
/// the paper's 100 m window.
fn bench_step_latent(c: &mut Criterion) {
    let region = Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).unwrap();
    let field = LatentLightField::new(&ForestConfig::default());
    let mut group = c.benchmark_group("sim_step_latent");
    group.sample_size(20);
    let k = 100usize;
    group.throughput(Throughput::Elements(k as u64));
    group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
        b.iter_batched(
            || {
                CmaBuilder::new(region, scenario::grid_start_spaced(region, k, 9.3).unwrap())
                    .start_time(600.0)
                    .run(&field)
                    .unwrap()
            },
            |mut sim| {
                sim.step().unwrap();
                sim
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_step, bench_step_latent);
criterion_main!(benches);
