//! Property tests on the CMA iteration (Table 2).

use cps_core::ostd::{cma_step, forces, CmaAction, CmaConfig, CmaOutcome, NeighborInfo};
use cps_core::CoreError;
use cps_field::{Field, GaussianBlob, GaussianMixtureField};
use cps_geometry::Point2;
use cps_linalg::solve_3x3;
use proptest::prelude::*;

/// A frozen copy of the CMA iteration as it stood before the candidate
/// windows were screened per axis: every candidate copies its window
/// out of all `m` samples by `hypot` distance, and the quadric fit sums
/// all 9 entries of the normal matrix. `cma_step` must reproduce it bit
/// for bit.
mod frozen {
    use super::*;

    const CURVATURE_FLOOR: f64 = 1e-9;
    const REST_FRACTION: f64 = 0.95;

    fn fit_weight(
        center: Point2,
        center_value: f64,
        samples: &[(Point2, f64)],
    ) -> Result<(f64, f64), CoreError> {
        let mut ata = [[0.0f64; 3]; 3];
        let mut atz = [0.0f64; 3];
        let mut used = 0usize;
        for &(p, z) in samples {
            let x = p.x - center.x;
            let y = p.y - center.y;
            if x == 0.0 && y == 0.0 {
                continue;
            }
            let row = [x * x, x * y, y * y];
            let rel_z = z - center_value;
            for r in 0..3 {
                for c in 0..3 {
                    ata[r][c] += row[r] * row[c];
                }
                atz[r] += row[r] * rel_z;
            }
            used += 1;
        }
        if used < 3 {
            return Err(CoreError::TooFewSamplesForFit { count: used });
        }
        let [a, b, c] = solve_3x3(&ata, &atz).map_err(|_| CoreError::DegenerateFit)?;
        let s = ((a - c) * (a - c) + b * b).sqrt();
        let g = (a + c - s) * (a + c + s);
        Ok((g, g.abs()))
    }

    pub fn cma_step(
        position: Point2,
        value: f64,
        sensed: &[(Point2, f64)],
        neighbors: &[NeighborInfo],
        cfg: &CmaConfig,
    ) -> Result<CmaOutcome, CoreError> {
        let (own_curvature, own_weight) = fit_weight(position, value, sensed)?;
        let half = cfg.sensing_radius / 2.0;
        let mut peak = (position, own_weight);
        let mut local: Vec<(Point2, f64)> = Vec::with_capacity(sensed.len());
        for &(p, z) in sensed {
            if p.distance(position) <= f64::EPSILON || p.distance(position) > half {
                continue;
            }
            local.clear();
            local.extend(
                sensed
                    .iter()
                    .filter(|(s, _)| s.distance(p) <= half)
                    .copied(),
            );
            let weight = fit_weight(p, z, &local).map(|(_, w)| w).unwrap_or(0.0);
            if weight > peak.1 {
                peak = (p, weight);
            }
        }
        let norm = |w: f64| -> f64 {
            if cfg.curvature_scale > CURVATURE_FLOOR {
                let nw = (w.abs() / cfg.curvature_scale)
                    .min(1.0)
                    .powf(cfg.weight_exponent);
                if nw < cfg.weight_floor {
                    0.0
                } else {
                    nw
                }
            } else {
                0.0
            }
        };
        let nbr_pairs: Vec<(Point2, f64)> = neighbors
            .iter()
            .map(|n| (n.position, norm(n.curvature) * cfg.curvature_gain))
            .collect();
        let f1 = forces::attraction_to_peak(position, peak.0, norm(peak.1) * cfg.peak_gain);
        let f2 = forces::neighbor_attraction(position, &nbr_pairs);
        let fr = forces::repulsion(position, &nbr_pairs, REST_FRACTION * cfg.comm_radius);
        let fs = forces::resultant(f1, f2, fr, cfg.beta);
        let action = if fs.norm() <= cfg.stop_threshold {
            CmaAction::Stay
        } else {
            CmaAction::MoveTo(position + fs.clamp_norm(cfg.sensing_radius))
        };
        Ok(CmaOutcome {
            curvature: own_curvature,
            peak,
            f1,
            f2,
            fr,
            force: fs,
            action,
        })
    }
}

/// Every number of an outcome (or its error), as bits.
fn outcome_bits(out: &Result<CmaOutcome, CoreError>) -> Result<Vec<u64>, String> {
    let o = out.as_ref().map_err(|e| format!("{e:?}"))?;
    let dest = match o.action {
        CmaAction::Stay => vec![0],
        CmaAction::MoveTo(d) => vec![1, d.x.to_bits(), d.y.to_bits()],
    };
    Ok([
        o.curvature,
        o.peak.0.x,
        o.peak.0.y,
        o.peak.1,
        o.f1.x,
        o.f1.y,
        o.f2.x,
        o.f2.y,
        o.fr.x,
        o.fr.y,
        o.force.x,
        o.force.y,
    ]
    .iter()
    .map(|v| v.to_bits())
    .chain(dest)
    .collect())
}

/// Lattice samples within `rs` of `center` at `spacing`, in the
/// simulator's x-major order.
fn sense<F: Field>(field: &F, center: Point2, rs: f64, spacing: f64) -> Vec<(Point2, f64)> {
    let steps = (rs / spacing).floor() as i32;
    let mut out = Vec::new();
    for dx in -steps..=steps {
        for dy in -steps..=steps {
            let p = Point2::new(
                center.x + dx as f64 * spacing,
                center.y + dy as f64 * spacing,
            );
            if center.distance(p) <= rs {
                out.push((p, field.value(p)));
            }
        }
    }
    out
}

fn assert_matches_frozen(
    center: Point2,
    value: f64,
    sensed: &[(Point2, f64)],
    neighbors: &[NeighborInfo],
    cfg: &CmaConfig,
) {
    let got = outcome_bits(&cma_step(center, value, sensed, neighbors, cfg));
    let want = outcome_bits(&frozen::cma_step(center, value, sensed, neighbors, cfg));
    assert_eq!(
        got,
        want,
        "centre {center:?}, {} samples, Rs {}",
        sensed.len(),
        cfg.sensing_radius
    );
}

#[test]
fn ties_at_half_the_sensing_radius_match_the_frozen_loop() {
    // Rs = 4 on the 1 m lattice: Rs/2 = 2 is itself a lattice distance,
    // so candidates and window members sit exactly on the boundary.
    let field = GaussianMixtureField::new(
        3.0,
        vec![
            GaussianBlob::isotropic(Point2::new(51.5, 49.0), 12.0, 2.5),
            GaussianBlob::isotropic(Point2::new(47.0, 53.0), -6.0, 1.7),
        ],
    );
    let cfg = CmaConfig {
        sensing_radius: 4.0,
        curvature_scale: 0.05,
        ..CmaConfig::default()
    };
    for (cx, cy) in [(50.0, 50.0), (50.5, 49.25), (48.0, 52.0)] {
        let center = Point2::new(cx, cy);
        let sensed = sense(&field, center, 4.0, 1.0);
        assert_matches_frozen(center, field.value(center), &sensed, &[], &cfg);
    }
}

#[test]
fn large_coordinates_match_the_frozen_loop() {
    // Far from the origin, offsets lose low bits and lattice distances
    // stop being exact; the screen must still keep exactly what the
    // `hypot` test keeps.
    for (cx, cy) in [(1e6 + 0.3, -2e6), (3.0e9, 7.5e8 + 0.5), (-1e12, 1e12)] {
        let center = Point2::new(cx, cy);
        let field = GaussianMixtureField::new(
            1.0,
            vec![GaussianBlob::isotropic(
                Point2::new(cx + 2.0, cy - 1.0),
                8.0,
                2.0,
            )],
        );
        for (rs, spacing) in [(4.0, 1.0), (5.0, 1.0), (3.0, 0.5)] {
            let cfg = CmaConfig {
                sensing_radius: rs,
                curvature_scale: 0.1,
                ..CmaConfig::default()
            };
            let sensed = sense(&field, center, rs, spacing);
            assert_matches_frozen(center, field.value(center), &sensed, &[], &cfg);
        }
    }
}

fn field_strategy() -> impl Strategy<Value = GaussianMixtureField> {
    prop::collection::vec(
        (10.0f64..90.0, 10.0f64..90.0, -20.0f64..40.0, 2.0f64..8.0),
        0..4,
    )
    .prop_map(|blobs| {
        GaussianMixtureField::new(
            5.0,
            blobs
                .into_iter()
                .map(|(x, y, a, s)| GaussianBlob::isotropic(Point2::new(x, y), a, s))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random fields, lattices, radii, neighbours and scales: the
    /// screened, window-streaming step equals the frozen O(m²) loop.
    #[test]
    fn cma_matches_the_frozen_candidate_loop(
        field in field_strategy(),
        (cx, cy) in (10.0f64..90.0, 10.0f64..90.0),
        rs in 1.0f64..8.0,
        spacing_pick in 0usize..5,
        scale in 0.001f64..10.0,
        nbrs in prop::collection::vec((-9.0f64..9.0, -9.0f64..9.0, 0.0f64..2.0), 0..6),
        jitter in 0.0f64..1.0,
    ) {
        let center = Point2::new(cx, cy);
        let spacing = [0.5, 0.75, 1.0, 1.25, 2.0][spacing_pick];
        let cfg = CmaConfig {
            sensing_radius: rs,
            curvature_scale: scale,
            ..CmaConfig::default()
        };
        let mut sensed = sense(&field, center, rs, spacing);
        // Some cases leave the lattice: nudged samples break the
        // symmetry the lattice gives every window.
        if jitter > 0.5 {
            for (k, (p, _)) in sensed.iter_mut().enumerate() {
                if k % 3 == 0 {
                    p.x += 0.1 * jitter;
                }
            }
        }
        let neighbors: Vec<NeighborInfo> = nbrs
            .iter()
            .map(|&(dx, dy, g)| NeighborInfo {
                position: Point2::new(cx + dx, cy + dy),
                curvature: g,
            })
            .collect();
        let got = outcome_bits(&cma_step(center, field.value(center), &sensed, &neighbors, &cfg));
        let want =
            outcome_bits(&frozen::cma_step(center, field.value(center), &sensed, &neighbors, &cfg));
        prop_assert_eq!(got, want);
    }

    /// The step's outputs are always finite, and any movement decision
    /// stays within the sensing radius.
    #[test]
    fn cma_outputs_are_finite_and_bounded(
        field in field_strategy(),
        cx in 20.0f64..80.0,
        cy in 20.0f64..80.0,
        neighbors_seed in 0.0f64..std::f64::consts::TAU,
        scale in 0.01f64..10.0,
    ) {
        let center = Point2::new(cx, cy);
        let neighbors = vec![NeighborInfo {
            position: Point2::new(cx + 5.0 * neighbors_seed.cos(), cy + 5.0 * neighbors_seed.sin()),
            curvature: 0.3,
        }];
        let cfg = CmaConfig {
            curvature_scale: scale,
            ..CmaConfig::default()
        };
        let sensed = sense(&field, center, cfg.sensing_radius, 1.0);
        let out = cma_step(center, field.value(center), &sensed, &neighbors, &cfg).unwrap();
        prop_assert!(out.force.is_finite());
        prop_assert!(out.curvature.is_finite());
        prop_assert!(out.peak.1.is_finite() && out.peak.1 >= 0.0);
        if let CmaAction::MoveTo(dest) = out.action {
            prop_assert!(dest.distance(center) <= cfg.sensing_radius + 1e-9);
            prop_assert!(dest.is_finite());
        }
    }

    /// Rotational symmetry: rotating the whole scene (samples and
    /// neighbors) rotates the force.
    #[test]
    fn cma_is_rotation_equivariant(angle in 0.0f64..std::f64::consts::TAU) {
        let center = Point2::new(0.0, 0.0);
        // An asymmetric quadratic bump east of the node.
        let field = GaussianMixtureField::new(
            1.0,
            vec![GaussianBlob::isotropic(Point2::new(4.0, 0.0), 10.0, 2.0)],
        );
        let cfg = CmaConfig {
            curvature_scale: 1.0,
            ..CmaConfig::default()
        };
        let sensed = sense(&field, center, cfg.sensing_radius, 1.0);
        let base = cma_step(center, field.value(center), &sensed, &[], &cfg).unwrap();

        // Rotate every sample position by `angle` around the node.
        let rotated: Vec<(Point2, f64)> = sensed
            .iter()
            .map(|&(p, z)| {
                let v = (p - center).rotated(angle);
                (center + v, z)
            })
            .collect();
        let turned = cma_step(center, field.value(center), &rotated, &[], &cfg).unwrap();

        let expected = base.force.rotated(angle);
        prop_assert!(
            (turned.force - expected).norm() <= 1e-6 * (1.0 + expected.norm()),
            "force {:?} vs expected {:?}", turned.force, expected
        );
    }

    /// With no curvature anywhere and symmetric neighbors, the node
    /// stays put whatever the normalization scale.
    #[test]
    fn flat_symmetric_configurations_are_fixed_points(scale in 0.001f64..100.0) {
        let center = Point2::new(50.0, 50.0);
        let flat = GaussianMixtureField::new(7.0, vec![]);
        let cfg = CmaConfig {
            curvature_scale: scale,
            ..CmaConfig::default()
        };
        let sensed = sense(&flat, center, cfg.sensing_radius, 1.0);
        let neighbors: Vec<NeighborInfo> = (0..4)
            .map(|i| {
                let a = std::f64::consts::FRAC_PI_2 * i as f64;
                NeighborInfo {
                    position: Point2::new(center.x + 9.0 * a.cos(), center.y + 9.0 * a.sin()),
                    curvature: 0.0,
                }
            })
            .collect();
        let out = cma_step(center, 7.0, &sensed, &neighbors, &cfg).unwrap();
        prop_assert_eq!(out.action, CmaAction::Stay);
    }
}
