//! The latent light field's lattice kernel against its own per-point
//! evaluation: `lattice_at` must return exactly the `(p, value_at(p, t))`
//! pairs of the per-point default, bit for bit and in the same order.

use cps_field::{Field, TimeVaryingField};
use cps_geometry::Point2;
use cps_greenorbs::{ForestConfig, LatentLightField};
use proptest::prelude::*;

/// Minutes of hour-of-day `h` (the default trace starts at 00:00).
fn at_hour(h: f64) -> f64 {
    h * 60.0
}

/// The per-point reference: what the trait's default `lattice_at` does.
fn per_point(
    field: &LatentLightField,
    xs: &[f64],
    ys: &[f64],
    t: f64,
    keep: &dyn Fn(Point2) -> bool,
) -> Vec<(Point2, f64)> {
    let mut out = Vec::new();
    for &x in xs {
        for &y in ys {
            let p = Point2::new(x, y);
            if keep(p) {
                out.push((p, field.value_at(p, t)));
            }
        }
    }
    out
}

fn assert_bit_identical(got: &[(Point2, f64)], expected: &[(Point2, f64)], what: &str) {
    assert_eq!(got.len(), expected.len(), "{what}: point count");
    for (k, ((p, v), (q, w))) in got.iter().zip(expected).enumerate() {
        assert_eq!(p, q, "{what}: point {k} out of order");
        assert_eq!(v.to_bits(), w.to_bits(), "{what}: {v} vs {w} at {p:?}");
    }
}

/// A sensing disc of radius `rs` on a lattice of `spacing` around
/// `center`, built the way the simulator builds it.
fn disc_axes(center: Point2, rs: f64, spacing: f64) -> (Vec<f64>, Vec<f64>) {
    let steps = (rs / spacing).floor() as i32;
    let xs = (-steps..=steps)
        .map(|d| center.x + d as f64 * spacing)
        .collect();
    let ys = (-steps..=steps)
        .map(|d| center.y + d as f64 * spacing)
        .collect();
    (xs, ys)
}

fn check_disc(field: &LatentLightField, center: Point2, rs: f64, spacing: f64, t: f64) {
    let (xs, ys) = disc_axes(center, rs, spacing);
    let keep = |p: Point2| center.distance(p) <= rs;
    let mut got = Vec::new();
    field.lattice_at(&xs, &ys, t, &keep, &mut got);
    let expected = per_point(field, &xs, &ys, t, &keep);
    assert!(!expected.is_empty());
    assert_bit_identical(&got, &expected, "sensing disc");
}

/// The day's regimes: night (ambient 0), the 06:00 and 18:00 edges,
/// dawn and dusk ramps, and the clipped mid-day plateau.
const HOURS: [f64; 9] = [2.0, 6.0, 6.25, 7.5, 10.0, 12.0, 13.75, 17.5, 18.0];

#[test]
fn sensing_discs_match_per_point_through_the_day() {
    let field = LatentLightField::new(&ForestConfig::default());
    for h in HOURS {
        for (center, spacing) in [
            (Point2::new(70.0, 70.0), 1.0),
            (Point2::new(41.3, 97.9), 0.5),
            (Point2::new(88.0, 33.3), 0.7),
            (Point2::new(55.5, 60.25), 1.3),
        ] {
            check_disc(&field, center, 5.0, spacing, at_hour(h));
        }
    }
}

#[test]
fn whole_delta_grids_match_per_point() {
    // The 101² grid over the paper's 100 m window, read one row at a
    // time through the frozen field as the δ quadrature reads it.
    let field = LatentLightField::new(&ForestConfig::default());
    let xs: Vec<f64> = (0..101).map(|i| 20.0 + i as f64).collect();
    for h in [2.0, 6.5, 10.0, 12.0, 17.9] {
        let t = at_hour(h);
        let frozen = field.at_time(t);
        let mut row = vec![0.0; xs.len()];
        for &y in &xs {
            frozen.row_values(&xs, y, &mut row);
            for (&x, v) in xs.iter().zip(&row) {
                let w = field.value_at(Point2::new(x, y), t);
                assert_eq!(v.to_bits(), w.to_bits(), "row {y} col {x} at {h} h");
            }
        }
        let mut got = Vec::new();
        field.lattice_at(&xs, &xs, t, &|_| true, &mut got);
        assert_bit_identical(&got, &per_point(&field, &xs, &xs, t, &|_| true), "grid");
    }
}

#[test]
fn points_outside_the_plot_match_per_point() {
    let field = LatentLightField::new(&ForestConfig::default());
    let side = field.side();
    let xs = [-500.0, -30.0, -0.0, 0.0, side, side + 12.5, 1e4];
    let ys = [-1e4, -7.0, 0.0, side + 0.1, 900.0];
    for h in HOURS {
        let t = at_hour(h);
        let mut got = Vec::new();
        field.lattice_at(&xs, &ys, t, &|_| true, &mut got);
        assert_bit_identical(&got, &per_point(&field, &xs, &ys, t, &|_| true), "outside");
    }
}

#[test]
fn empty_lattices_and_rejecting_filters_append_nothing() {
    let field = LatentLightField::new(&ForestConfig::default());
    let mut out = vec![(Point2::ORIGIN, 1.0)];
    field.lattice_at(&[], &[1.0, 2.0], 600.0, &|_| true, &mut out);
    field.lattice_at(&[1.0, 2.0], &[], 600.0, &|_| true, &mut out);
    field.lattice_at(&[1.0, 2.0], &[3.0], 600.0, &|_| false, &mut out);
    assert_eq!(out, [(Point2::ORIGIN, 1.0)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random forests (seed, feature counts, plot size), sensing discs
    /// at random spacing and radius, at random times of day.
    #[test]
    fn random_forests_and_discs_match_per_point(
        seed in 0u64..u64::MAX,
        gaps in 1usize..12,
        flecks in 0usize..24,
        side in 60.0f64..200.0,
        (fx, fy) in (-0.2f64..1.2, -0.2f64..1.2),
        rs in 1.0f64..8.0,
        spacing in 0.3f64..2.0,
        minute in 0.0f64..2880.0,
    ) {
        let field = LatentLightField::new(&ForestConfig {
            seed,
            side,
            gap_count: gaps,
            fleck_count: flecks,
            ..ForestConfig::default()
        });
        let center = Point2::new(fx * side, fy * side);
        let (xs, ys) = disc_axes(center, rs, spacing);
        let keep = |p: Point2| center.distance(p) <= rs;
        let mut got = Vec::new();
        field.lattice_at(&xs, &ys, minute, &keep, &mut got);
        let expected = per_point(&field, &xs, &ys, minute, &keep);
        prop_assert_eq!(got.len(), expected.len());
        for ((p, v), (q, w)) in got.iter().zip(&expected) {
            prop_assert_eq!(p, q);
            prop_assert_eq!(v.to_bits(), w.to_bits(), "{} vs {} at {:?}", v, w, p);
        }
    }
}
