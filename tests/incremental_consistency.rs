//! Integration: the δ evaluation path against the full pipeline. The
//! raster kernel must match the generic per-cell quadrature within
//! 1e-9 through survivor subsets and moving swarms; fault-injected
//! timelines, FRA placements and δ values must not depend on the
//! thread count at all.

use cps::core::osd::FraBuilder;
use cps::core::{DeltaEvaluator, EvalOptions};
use cps::field::delta::{rms_difference_with, volume_difference_with};
use cps::field::{
    Field, GaussianBlob, GaussianMixtureField, Parallelism, PeaksField, PlaneField,
    ReconstructedSurface, Static, TimeVaryingField,
};
use cps::geometry::{GridSpec, Point2, Rect};
use cps::greenorbs::{ForestConfig, LatentLightField};
use cps::sim::{scenario, CmaBuilder, DeltaTimeline, FaultPlan};

const TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * b.abs().max(1.0)
}

fn bumpy_field() -> GaussianMixtureField {
    GaussianMixtureField::new(
        2.0,
        vec![
            GaussianBlob::isotropic(Point2::new(30.0, 60.0), 15.0, 6.0),
            GaussianBlob::isotropic(Point2::new(70.0, 25.0), 12.0, -3.0),
            GaussianBlob::isotropic(Point2::new(55.0, 80.0), 18.0, 4.0),
        ],
    )
}

/// Fault-injected simulation: the δ timeline of a CMA run is
/// bit-identical at every thread count, at every sampled slot, even as
/// nodes die and the fleet shrinks.
#[test]
fn timeline_under_faults_is_bit_identical_across_thread_counts() {
    let region = Rect::square(100.0).unwrap();
    let grid = GridSpec::new(region, 41, 41).unwrap();
    let field = Static::new(bumpy_field());
    let plan = FaultPlan::builder()
        .seed(42)
        .kill(3, 2)
        .kill(11, 4)
        .cull(0.1, 6)
        .link_loss(0.2, 1)
        .build()
        .unwrap();
    let start = scenario::grid_start_spaced(region, 49, 9.3).unwrap();

    let run = |threads: usize| -> Vec<u64> {
        let opts = EvalOptions::new().parallelism(Parallelism::fixed(threads));
        let mut sim = CmaBuilder::new(region, start.clone())
            .evaluator(opts)
            .faults(plan.clone())
            .run(&field)
            .unwrap();
        let mut timeline = DeltaTimeline::for_simulation(&sim);
        let mut out = vec![timeline.record(&sim, &grid).unwrap().delta.to_bits()];
        for _ in 0..8 {
            sim.step().unwrap();
            out.push(timeline.record(&sim, &grid).unwrap().delta.to_bits());
        }
        out
    };
    // The fault schedule is deterministic and every δ sweep is
    // bit-identical across thread counts, so nothing may change.
    let serial = run(1);
    for threads in [2usize, 8] {
        assert_eq!(serial, run(threads), "timeline at {threads} threads");
    }
}

fn peaks_setting() -> (Rect, GridSpec, PeaksField) {
    let region = Rect::square(100.0).unwrap();
    (
        region,
        GridSpec::new(region, 51, 51).unwrap(),
        PeaksField::new(region, 8.0),
    )
}

/// δ and RMS of `positions`' reconstruction by the generic per-cell
/// quadrature, the reference the raster kernel is held to.
fn generic_quadrature<F: Field + Sync>(
    reference: &F,
    region: Rect,
    grid: &GridSpec,
    positions: &[Point2],
) -> (f64, f64) {
    let samples: Vec<f64> = positions.iter().map(|&p| reference.value(p)).collect();
    let surface = ReconstructedSurface::from_samples(region, positions, &samples).unwrap();
    let serial = Parallelism::serial();
    (
        volume_difference_with(reference, &surface, grid, serial),
        rms_difference_with(reference, &surface, grid, serial),
    )
}

/// FRA's greedy refinement — argmax choices, relay placement, δ
/// trajectory, everything — is the *same* at every thread count.
#[test]
fn fra_deployments_are_identical_across_thread_counts() {
    let (_, grid, f) = peaks_setting();
    let run = |threads: usize| {
        FraBuilder::new(30, 10.0)
            .grid(grid)
            .parallelism(Parallelism::fixed(threads))
            .track_delta(true)
            .run(&f)
            .unwrap()
    };
    let serial = run(1);
    let bits = |t: &[f64]| t.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
    let serial_trajectory = bits(serial.delta_trajectory.as_deref().unwrap());
    for threads in [2usize, 8] {
        let other = run(threads);
        assert_eq!(
            serial.positions, other.positions,
            "placement diverged at {threads} threads"
        );
        assert_eq!(serial.refined, other.refined);
        assert_eq!(serial.relays, other.relays);
        assert_eq!(
            serial_trajectory,
            bits(other.delta_trajectory.as_deref().unwrap()),
            "trajectory at {threads} threads"
        );
    }
}

/// DeltaEvaluator matches the generic quadrature within 1e-9 on a full
/// deployment, at 1/2/8 threads.
#[test]
fn evaluator_matches_generic_quadrature_at_any_thread_count() {
    let (region, g, f) = peaks_setting();
    let plan = FraBuilder::new(40, 30.0).grid(g).run(&f).unwrap();
    let (delta, rms) = generic_quadrature(&f, region, &g, &plan.positions);
    for threads in [1usize, 2, 8] {
        let e = DeltaEvaluator::new(&f, &g, 30.0)
            .parallelism(Parallelism::fixed(threads))
            .evaluate(&plan.positions)
            .unwrap();
        assert!(
            close(e.delta, delta),
            "delta threads={threads}: {} vs {delta}",
            e.delta
        );
        assert!(
            close(e.rms, rms),
            "rms threads={threads}: {} vs {rms}",
            e.rms
        );
        assert!(e.connected);
    }
}

/// Survivor-mask evaluation: attrition down to a sub-hull survivor set
/// matches the generic quadrature of the survivors at any thread
/// count, and the degenerate regime (fewer than three survivors) is
/// bit-identical to the constant surface through the survivor mean.
#[test]
fn survivor_mask_evaluation_matches_generic_quadrature() {
    let (region, g, f) = peaks_setting();
    let plan = FraBuilder::new(30, 30.0).grid(g).run(&f).unwrap();
    // Kill every third node.
    let mask: Vec<bool> = (0..plan.positions.len()).map(|i| i % 3 != 0).collect();
    let survivors: Vec<Point2> = plan
        .positions
        .iter()
        .zip(&mask)
        .filter_map(|(&p, &alive)| alive.then_some(p))
        .collect();
    let (delta, rms) = generic_quadrature(&f, region, &g, &survivors);
    for threads in [1usize, 2, 8] {
        let e = DeltaEvaluator::new(&f, &g, 30.0)
            .survivor_mask(&mask)
            .parallelism(Parallelism::fixed(threads))
            .evaluate(&plan.positions)
            .unwrap();
        assert!(
            close(e.delta, delta),
            "masked delta at {threads} threads: {} vs {delta}",
            e.delta
        );
        assert!(close(e.rms, rms));
        assert_eq!(e.node_count, survivors.len());
    }
    // Two survivors: the constant plane through their mean.
    let mut two = vec![false; plan.positions.len()];
    two[0] = true;
    two[1] = true;
    let e = DeltaEvaluator::new(&f, &g, 30.0)
        .survivor_mask(&two)
        .parallelism(Parallelism::serial())
        .evaluate(&plan.positions)
        .unwrap();
    let mean = (f.value(plan.positions[0]) + f.value(plan.positions[1])) / 2.0;
    let plane = PlaneField::new(0.0, 0.0, mean);
    let serial = Parallelism::serial();
    assert_eq!(
        e.delta.to_bits(),
        volume_difference_with(&f, &plane, &g, serial).to_bits()
    );
    assert_eq!(
        e.rms.to_bits(),
        rms_difference_with(&f, &plane, &g, serial).to_bits()
    );
}

/// CMA: the recorded δ timeline of a moving swarm matches the generic
/// quadrature of the field frozen at each recording instant.
#[test]
fn cma_timeline_matches_generic_quadrature() {
    let field = LatentLightField::new(&ForestConfig::default());
    let region = Rect::new(Point2::new(20.0, 20.0), Point2::new(120.0, 120.0)).unwrap();
    let grid = GridSpec::new(region, 51, 51).unwrap();
    let horizon = if cfg!(debug_assertions) { 6 } else { 20 };
    let start = scenario::grid_start_spaced(region, 60, 9.3).unwrap();
    let mut sim = CmaBuilder::new(region, start)
        .start_time(600.0)
        .run(&field)
        .unwrap();
    let mut timeline = DeltaTimeline::for_simulation(&sim);
    for slot in 0..=horizon {
        if slot > 0 {
            sim.step().unwrap();
        }
        if slot % 5 != 0 && slot != horizon {
            continue;
        }
        let recorded = timeline.record(&sim, &grid).unwrap();
        let frozen = field.at_time(sim.time());
        let (delta, rms) = generic_quadrature(&frozen, region, &grid, &sim.positions());
        assert!(
            close(recorded.delta, delta),
            "slot {slot}: timeline {} vs {delta}",
            recorded.delta
        );
        assert!(close(recorded.rms, rms), "slot {slot}: rms");
    }
}
