//! Property tests for the rasterized δ quadrature: on arbitrary
//! triangulations — slivers and mostly-exterior grids included — the
//! scanline kernel must (i) agree with the generic field-vs-field
//! quadrature within 1e-9 and (ii) stay **bit-identical** to itself
//! across thread counts. An exact oracle then checks the kernel against the true
//! integral rather than against a second grid quadrature.

use cps_field::delta::{rms_difference_with, volume_difference_with};
use cps_field::raster::delta_rms_raster;
use cps_field::{
    DeltaTotals, GaussianBlob, GaussianMixtureField, ParaboloidField, Parallelism,
    ReconstructedSurface,
};
use cps_geometry::{GridSpec, Point2, Rect};
use proptest::prelude::*;

const SIDE: f64 = 10.0;

fn region() -> Rect {
    Rect::square(SIDE).unwrap()
}

/// Random Gaussian-mixture fields: smooth but spatially busy.
fn blobs_strategy() -> impl Strategy<Value = GaussianMixtureField> {
    prop::collection::vec((0.5..9.5f64, 0.5..9.5f64, 0.5..3.0f64, -4.0..4.0f64), 1..5).prop_map(
        |blobs| {
            GaussianMixtureField::new(
                0.5,
                blobs
                    .into_iter()
                    .map(|(x, y, sigma, amp)| {
                        GaussianBlob::isotropic(Point2::new(x, y), sigma, amp)
                    })
                    .collect(),
            )
        },
    )
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

/// The generic quadrature pair over the same grid: the reference the
/// raster kernel must match.
fn generic(f: &GaussianMixtureField, s: &ReconstructedSurface, grid: &GridSpec) -> DeltaTotals {
    let serial = Parallelism::serial();
    DeltaTotals {
        delta: volume_difference_with(f, s, grid, serial),
        rms: rms_difference_with(f, s, grid, serial),
    }
}

fn surface_from(f: &GaussianMixtureField, points: &[(f64, f64)]) -> Option<ReconstructedSurface> {
    let positions: Vec<Point2> = points.iter().map(|&(x, y)| Point2::new(x, y)).collect();
    let samples: Vec<f64> = positions
        .iter()
        .map(|&p| cps_field::Field::value(f, p))
        .collect();
    ReconstructedSurface::from_samples(region(), &positions, &samples).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline guarantee: on arbitrary scattered triangulations
    /// the raster kernel reproduces the generic quadrature's δ and RMS
    /// within 1e-9 and is bit-identical to its own serial run at any
    /// thread count.
    #[test]
    fn raster_agrees_with_generic_quadrature_on_random_triangulations(
        f in blobs_strategy(),
        points in prop::collection::vec((0.5..9.5f64, 0.5..9.5f64), 5..25),
        nx in 23..47usize,
        ny in 23..47usize,
    ) {
        let Some(surface) = surface_from(&f, &points) else { return Ok(()) };
        let grid = GridSpec::new(region(), nx, ny).unwrap();
        let expected = generic(&f, &surface, &grid);
        let raster = delta_rms_raster(&f, &surface, &grid, Parallelism::serial());
        prop_assert!(close(raster.delta, expected.delta), "delta: raster {} generic {}", raster.delta, expected.delta);
        prop_assert!(close(raster.rms, expected.rms), "rms: raster {} generic {}", raster.rms, expected.rms);
        for threads in [2usize, 8] {
            let r = delta_rms_raster(&f, &surface, &grid, Parallelism::fixed(threads));
            prop_assert_eq!(r.delta.to_bits(), raster.delta.to_bits(), "raster delta at {} threads", threads);
            prop_assert_eq!(r.rms.to_bits(), raster.rms.to_bits(), "raster rms at {} threads", threads);
        }
    }

    /// Sliver triangulations: nearly collinear clusters produce
    /// degenerate triangles whose plane gradients blow up; those
    /// triangles must fall back to per-cell location without breaking
    /// the 1e-9 agreement.
    #[test]
    fn raster_survives_sliver_triangulations(
        f in blobs_strategy(),
        line in prop::collection::vec(0.5..9.5f64, 4..10),
        jitter in prop::collection::vec(-1e-9..1e-9f64, 10),
        off in (0.5..9.5f64, 0.5..9.5f64),
    ) {
        // Most points hug the diagonal within ±1e-9; two anchors off
        // the line keep the hull two-dimensional.
        let mut points: Vec<(f64, f64)> = line
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, x + jitter[i % jitter.len()]))
            .collect();
        points.push(off);
        points.push((9.5 - off.0, off.1));
        let Some(surface) = surface_from(&f, &points) else { return Ok(()) };
        let grid = GridSpec::new(region(), 31, 29).unwrap();
        let expected = generic(&f, &surface, &grid);
        let raster = delta_rms_raster(&f, &surface, &grid, Parallelism::serial());
        prop_assert!(close(raster.delta, expected.delta), "delta: raster {} generic {}", raster.delta, expected.delta);
        prop_assert!(close(raster.rms, expected.rms), "rms: raster {} generic {}", raster.rms, expected.rms);
    }

    /// Hull-exterior cells: with every sample confined to a small
    /// interior box most of the grid falls outside the hull, so the
    /// raster scratch stays NaN there and the extrapolation fallback
    /// must reproduce the generic quadrature's values.
    #[test]
    fn raster_agrees_where_most_cells_are_outside_the_hull(
        f in blobs_strategy(),
        points in prop::collection::vec((4.0..6.0f64, 4.0..6.0f64), 3..8),
        threads in 1..9usize,
    ) {
        let Some(surface) = surface_from(&f, &points) else { return Ok(()) };
        let grid = GridSpec::new(region(), 41, 41).unwrap();
        let expected = generic(&f, &surface, &grid);
        let raster = delta_rms_raster(&f, &surface, &grid, Parallelism::fixed(threads));
        prop_assert!(close(raster.delta, expected.delta), "delta: raster {} generic {}", raster.delta, expected.delta);
        prop_assert!(close(raster.rms, expected.rms), "rms: raster {} generic {}", raster.rms, expected.rms);
    }
}

// ---- exact oracle ------------------------------------------------------

/// `f = x² + y²` sampled at the four corners of the 10 × 10 square
/// plus 20 interior points, so the sample hull is the whole region and
/// nothing extrapolates.
fn paraboloid_surface() -> (ParaboloidField, ReconstructedSurface) {
    let f = ParaboloidField::new(Point2::new(0.0, 0.0), 1.0, 0.0, 1.0);
    let mut positions: Vec<Point2> = region().corners().to_vec();
    // A Kronecker (golden-ratio) sequence over [1, 9]²: well spread and
    // deterministic.
    for i in 1..=20u32 {
        let u = (f64::from(i) * 0.618_033_988_749_895).fract();
        let v = (f64::from(i) * 0.414_213_562_373_095_1 + 0.3).fract();
        positions.push(Point2::new(1.0 + 8.0 * u, 1.0 + 8.0 * v));
    }
    let samples: Vec<f64> = positions
        .iter()
        .map(|&p| cps_field::Field::value(&f, p))
        .collect();
    let surface = ReconstructedSurface::from_samples(region(), &positions, &samples).unwrap();
    (f, surface)
}

/// The exact δ of the paraboloid's reconstruction. For `f = x² + y²`
/// the linear interpolant lies above `f` on every triangle `T`, and
/// `∫_T (DT − f) = |T|/12 · Σ|eᵢ|²` over its three edges (L. Chen and
/// J. Xu, *Optimal Delaunay Triangulations*, 2004).
fn exact_paraboloid_delta(surface: &ReconstructedSurface) -> f64 {
    let mut total = 0.0;
    surface.triangulation().for_each_triangle(|_, t| {
        let sum_sq =
            t.a.distance_squared(t.b) + t.b.distance_squared(t.c) + t.c.distance_squared(t.a);
        total += t.area() / 12.0 * sum_sq;
    });
    total
}

fn raster_delta(f: &ParaboloidField, s: &ReconstructedSurface, n: usize, par: Parallelism) -> f64 {
    let grid = GridSpec::new(region(), n, n).unwrap();
    delta_rms_raster(f, s, &grid, par).delta
}

/// The trapezoid rule on the piecewise-quadratic `|f − DT|` is second
/// order: every halving of the grid spacing cuts the error to the exact
/// integral by about 4× (measured relative errors: 2.6e-2, 6.6e-3,
/// 1.65e-3 and 4.1e-4 at 21², 41², 81² and 161²).
#[test]
fn raster_converges_to_the_exact_paraboloid_delta_at_second_order() {
    let (f, surface) = paraboloid_surface();
    let exact = exact_paraboloid_delta(&surface);
    let rel_error =
        |n: usize| (raster_delta(&f, &surface, n, Parallelism::serial()) - exact).abs() / exact;
    let errors: Vec<(usize, f64)> = [21usize, 41, 81, 161]
        .iter()
        .map(|&n| (n, rel_error(n)))
        .collect();
    for pair in errors.windows(2) {
        let ((coarse_n, coarse), (fine_n, fine)) = (pair[0], pair[1]);
        assert!(
            coarse >= 3.5 * fine,
            "{coarse_n}² → {fine_n}²: relative error {coarse:e} → {fine:e} is not second order"
        );
    }
    let at_81 = errors[2].1;
    assert!(at_81 <= 2e-3, "relative error at 81² is {at_81:e}");
}

/// On the same oracle the kernel is bit-identical across thread counts.
#[test]
fn raster_is_bit_identical_across_threads_on_the_exact_oracle() {
    let (f, surface) = paraboloid_surface();
    let grid = GridSpec::new(region(), 81, 81).unwrap();
    let serial = delta_rms_raster(&f, &surface, &grid, Parallelism::serial());
    let two = delta_rms_raster(&f, &surface, &grid, Parallelism::fixed(2));
    assert_eq!(serial.delta.to_bits(), two.delta.to_bits());
    assert_eq!(serial.rms.to_bits(), two.rms.to_bits());
}
