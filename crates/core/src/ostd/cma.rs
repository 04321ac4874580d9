//! One node-local iteration of the coordinated movement algorithm
//! (CMA, Table 2 of the paper).
//!
//! A node knows only what it sensed within `Rs` and what single-hop
//! neighbors reported within `Rc`. Each iteration it:
//!
//! 1. estimates its own Gaussian curvature by the quadric fit
//!    (Eqns. 11–13, lines 2–3);
//! 2. estimates the curvature at every sensed position and picks the
//!    hottest one `p_c` (lines 6–7);
//! 3. assembles the virtual forces `F1`, `F2`, `Fr` and the resultant
//!    `Fs = F1 + F2 + β·Fr` (lines 8–12);
//! 4. stops if balanced, otherwise heads a sensing-radius step in the
//!    `Fs` direction (lines 13–18).
//!
//! The complexity is `O(m + q)` per node and iteration (Theorem 5.1)
//! up to the curvature map of step 2, which the paper folds into its
//! `CdG` primitive. Here that map fits each of the `c` candidates
//! within `Rs/2` over its own `Rs/2` window, screening all `m` samples
//! per candidate: `O(c·m)` comparisons, most of them one subtraction and
//! compare per axis (only points inside the window's bounding square
//! reach the `hypot`), plus `O(m/4)` accumulations of the 6 distinct
//! normal-matrix entries per fit. On the 1 m lattice at `Rs = 5`
//! (`m = 81`, `c = 20`) that is about 1,600 screens and 400 fitted rows
//! per node. See the crate benches for the measured scaling.

use cps_geometry::Point2;
use cps_linalg::Vec2;
use serde::{Deserialize, Serialize};

use super::curvature::{fit_quadric, fit_quadric_iter};
use super::forces;
use crate::{CoreError, CpsConfig};

/// Curvature weights below this are treated as "flat" (no attraction)
/// rather than normalized up from numerical noise.
const CURVATURE_FLOOR: f64 = 1e-9;

/// Fraction of `Rc` at which the repulsion force rests. The paper's
/// Eqn. 17 rests exactly at `Rc`, parking every neighbor pair on the
/// connectivity cliff; a 5% margin keeps the discrete-time dynamics off
/// the cliff so edges survive one-slot jitter.
const REST_FRACTION: f64 = 0.95;

/// Parameters of a CMA iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CmaConfig {
    /// Communication radius `Rc`.
    pub comm_radius: f64,
    /// Sensing radius `Rs` — the farthest a node will aim per iteration
    /// (Table 2 line 16 caps the desired step at `Rs`).
    pub sensing_radius: f64,
    /// Repulsion weight `β` (Eqn. 18).
    pub beta: f64,
    /// Gain applied to the (normalized) curvature attraction forces
    /// `F1` and `F2` relative to the repulsion `Fr`. The paper leaves
    /// the relative magnitude implicit; the gain decides how strongly
    /// nodes densify at curved terrain versus keeping uniform spacing.
    pub curvature_gain: f64,
    /// Gain applied to the peak-attraction force `F1` (Eqn. 14). Unit
    /// scale keeps it comparable to one neighbor's spring force; zero
    /// disables peak chasing entirely (ablation).
    pub peak_gain: f64,
    /// Reference curvature used to normalize weights: a weight equal to
    /// the reference maps to 1.0 (then multiplied by the gain); larger
    /// weights are clamped. In the distributed setting this is the
    /// gossiped network-wide maximum curvature (the single-hop exchange
    /// of Table 2 propagates it one hop per slot); the simulator keeps
    /// it as a decaying running maximum. Non-positive values disable
    /// the curvature forces.
    pub curvature_scale: f64,
    /// Exponent applied to normalized weights (`(w/scale)^exponent`).
    /// Gaussian curvature spans orders of magnitude on real terrain; a
    /// compressive exponent (mesh-adaptation theory suggests ¼–½ for
    /// piecewise-linear interpolation) lets moderate features
    /// participate instead of being drowned by the hottest peak.
    pub weight_exponent: f64,
    /// Normalized weights below this fraction of the reference are
    /// treated as flat terrain (zero weight). Without the floor, the
    /// residual curvature texture of real sensed data — noise, kernel
    /// artefacts, feature tails — feeds Eqn. 15's distance-weighted
    /// attraction everywhere and the whole lattice slowly collapses
    /// toward the curvature clusters.
    pub weight_floor: f64,
    /// Force magnitude below which the node declares itself balanced
    /// and stops (`Fs == 0` in the paper's idealized arithmetic).
    pub stop_threshold: f64,
}

impl CmaConfig {
    /// Derives CMA parameters from the shared node configuration, with
    /// a stop threshold scaled to the communication radius and the
    /// default curvature gain.
    pub fn from_cps(cfg: &CpsConfig) -> Self {
        CmaConfig {
            comm_radius: cfg.comm_radius(),
            sensing_radius: cfg.sensing_radius(),
            beta: cfg.beta(),
            curvature_gain: 0.5,
            peak_gain: 0.5,
            curvature_scale: 1.0,
            weight_exponent: 0.5,
            weight_floor: 0.3,
            stop_threshold: 0.04 * cfg.comm_radius(),
        }
    }
}

impl Default for CmaConfig {
    fn default() -> Self {
        CmaConfig::from_cps(&CpsConfig::default())
    }
}

/// What a node learned about one single-hop neighbor from the periodic
/// `(x, y, G)` exchange (Table 2 lines 4–5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborInfo {
    /// Neighbor position.
    pub position: Point2,
    /// Neighbor's self-reported Gaussian curvature.
    pub curvature: f64,
}

/// The movement decision of a CMA iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CmaAction {
    /// Forces are balanced; the node stays (Table 2 line 14).
    Stay,
    /// The node wants to move to this destination (Table 2 line 16);
    /// the simulator clamps the actual displacement to the node speed.
    MoveTo(Point2),
}

/// Everything a CMA iteration produces for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmaOutcome {
    /// The node's own estimated Gaussian curvature `G(nᵢ)`.
    pub curvature: f64,
    /// The hottest sensed position `p_c` and its curvature weight.
    pub peak: (Point2, f64),
    /// The peak-attraction component `F1` (Eqn. 14).
    pub f1: Vec2,
    /// The neighbor curvature-balance component `F2` (Eqn. 15).
    pub f2: Vec2,
    /// The spacing repulsion `Fr` (Eqn. 17), before the `β` weight.
    pub fr: Vec2,
    /// The resultant force `Fs` (Eqn. 18).
    pub force: Vec2,
    /// The movement decision.
    pub action: CmaAction,
}

/// Runs one CMA iteration for the node at `position` with sensed value
/// `value`.
///
/// * `sensed` — `(position, value)` pairs within `Rs` (the paper's
///   `M[m][3]`), typically including the node's own position;
/// * `neighbors` — single-hop neighbor reports (the paper's `N[q][3]`).
///
/// # Errors
///
/// * [`CoreError::TooFewSamplesForFit`] / [`CoreError::DegenerateFit`]
///   — the node's own curvature cannot be estimated from `sensed`.
///   (Curvature estimates at *other* sensed positions that fail are
///   skipped with weight zero rather than failing the step.)
///
/// # Example
///
/// ```
/// use cps_core::ostd::{cma_step, CmaAction, CmaConfig, NeighborInfo};
/// use cps_geometry::Point2;
///
/// // Sense a bowl z = x² + y² centred at (3, 0): the node at the
/// // origin should be pulled toward positive x.
/// let f = |x: f64, y: f64| (x - 3.0) * (x - 3.0) + y * y;
/// let mut sensed = Vec::new();
/// for dx in -3i32..=3 {
///     for dy in -3i32..=3 {
///         let (x, y) = (dx as f64, dy as f64);
///         if x * x + y * y <= 9.0 {
///             sensed.push((Point2::new(x, y), f(x, y)));
///         }
///     }
/// }
/// let out = cma_step(
///     Point2::new(0.0, 0.0),
///     f(0.0, 0.0),
///     &sensed,
///     &[],
///     &CmaConfig::default(),
/// )
/// .unwrap();
/// assert!(matches!(out.action, CmaAction::MoveTo(_)));
/// ```
pub fn cma_step(
    position: Point2,
    value: f64,
    sensed: &[(Point2, f64)],
    neighbors: &[NeighborInfo],
    cfg: &CmaConfig,
) -> Result<CmaOutcome, CoreError> {
    // Lines 2–3: own curvature from the local quadric fit.
    let own_fit = fit_quadric(position, value, sensed)?;
    let own_curvature = own_fit.gaussian_curvature();

    // Lines 6–7: curvature at sensed positions; hottest wins. Only
    // positions within Rs/2 are candidates, and each is fitted over the
    // samples within Rs/2 of *itself*: a candidate near the edge of the
    // sensing disc would otherwise be fitted from one-sided samples,
    // and such extrapolative fits report wildly inflated curvature
    // (phantom peaks at the disc boundary that keep every node moving
    // forever). Degenerate fits get weight zero instead of failing the
    // whole step.
    //
    // Distances are screened per axis before the `hypot`: it is never
    // below `max(|dx|, |dy|)`, so a point with either offset beyond
    // Rs/2 is one the `hypot` test rejects too, and skipping it changes
    // nothing. A NaN offset passes the screen and meets the `hypot`
    // test as before.
    let half = cfg.sensing_radius / 2.0;
    let beyond = |a: Point2, b: Point2| (a.x - b.x).abs() > half || (a.y - b.y).abs() > half;
    let mut peak = (position, own_fit.curvature_weight());
    for &(p, z) in sensed {
        if beyond(p, position) {
            continue;
        }
        let d = p.distance(position);
        if d <= f64::EPSILON || d > half {
            continue;
        }
        let window = sensed
            .iter()
            .filter(|&&(s, _)| !beyond(s, p) && s.distance(p) <= half)
            .copied();
        let weight = fit_quadric_iter(p, z, window)
            .map(|fit| fit.curvature_weight())
            .unwrap_or(0.0);
        if weight > peak.1 {
            peak = (p, weight);
        }
    }

    // Lines 8–12: virtual forces. Curvature weights are normalized by
    // the network-wide reference scale: raw Gaussian curvatures scale
    // with the inverse square of the region size (a surface stretched
    // over a 100 m region has |G| ~ 10⁻³), which would let the
    // repulsion term drown the curvature terms for any fixed β.
    // Normalizing by a *global* reference (rather than the local
    // maximum) matters: a local normalization makes the faintest
    // neighborhood look maximally curved and the node never settles.
    // See DESIGN.md.
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
    // The gain applies to the *pairwise* F2 term only. Combined with
    // the repulsion, each neighbor pair behaves as a spring with rest
    // length `rest·β/(β + w·gain)` — hot pairs compress, cold pairs
    // keep the uniform spacing. Amplifying F1 as well would let nodes
    // pile onto curvature peaks with nothing to balance them.
    let nbr_pairs: Vec<(Point2, f64)> = neighbors
        .iter()
        .map(|n| (n.position, norm(n.curvature) * cfg.curvature_gain))
        .collect();
    let f1 = forces::attraction_to_peak(position, peak.0, norm(peak.1) * cfg.peak_gain);
    let f2 = forces::neighbor_attraction(position, &nbr_pairs);
    let fr = forces::repulsion(position, &nbr_pairs, REST_FRACTION * cfg.comm_radius);
    let fs = forces::resultant(f1, f2, fr, cfg.beta);

    // Lines 13–18: stop, or head along Fs. The displacement is
    // proportional to the force and capped at Rs: a literal fixed-Rs
    // jump (the pseudocode's reading) makes nodes orbit their
    // equilibrium forever instead of settling — force-proportional
    // steps converge onto the balance point the stop test expects.
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

#[cfg(test)]
mod tests {
    use super::*;
    use cps_field::{Field, GaussianBlob, PlaneField};

    fn sense<F: Field>(field: &F, center: Point2, rs: f64) -> Vec<(Point2, f64)> {
        let mut out = Vec::new();
        let r = rs.ceil() as i32;
        for dx in -r..=r {
            for dy in -r..=r {
                let p = Point2::new(center.x + dx as f64, center.y + dy as f64);
                if center.distance(p) <= rs {
                    out.push((p, field.value(p)));
                }
            }
        }
        out
    }

    fn cfg() -> CmaConfig {
        CmaConfig::default()
    }

    #[test]
    fn flat_field_with_no_neighbors_is_stationary() {
        let f = PlaneField::new(0.0, 0.0, 5.0);
        let n = Point2::new(50.0, 50.0);
        let out = cma_step(n, f.value(n), &sense(&f, n, 5.0), &[], &cfg()).unwrap();
        assert_eq!(out.action, CmaAction::Stay);
        assert!(out.force.norm() <= cfg().stop_threshold);
        assert!(out.curvature.abs() < 1e-9);
    }

    #[test]
    fn node_heads_toward_curvature_peak() {
        // A sharp blob at (53, 50); node at (50, 50) senses its flank.
        let f = GaussianBlob::isotropic(Point2::new(53.0, 50.0), 10.0, 1.5);
        let n = Point2::new(50.0, 50.0);
        let out = cma_step(n, f.value(n), &sense(&f, n, 5.0), &[], &cfg()).unwrap();
        let CmaAction::MoveTo(dest) = out.action else {
            panic!("expected movement, got {:?}", out.action);
        };
        // Destination is at most Rs away, toward the blob.
        assert!(dest.distance(n) <= 5.0 + 1e-9);
        assert!(dest.distance(n) > 0.0);
        assert!(dest.x > n.x, "moved {dest:?}, expected +x");
        assert!(out.peak.1 > 0.0);
    }

    #[test]
    fn crowded_neighbor_pushes_node_away_on_flat_field() {
        let f = PlaneField::new(0.0, 0.0, 1.0);
        let n = Point2::new(50.0, 50.0);
        // Neighbor very close on the +x side, zero curvature everywhere:
        // only repulsion acts.
        let nbr = [NeighborInfo {
            position: Point2::new(51.0, 50.0),
            curvature: 0.0,
        }];
        let out = cma_step(n, f.value(n), &sense(&f, n, 5.0), &nbr, &cfg()).unwrap();
        let CmaAction::MoveTo(dest) = out.action else {
            panic!("expected repulsion to move the node");
        };
        assert!(dest.x < n.x);
    }

    #[test]
    fn neighbor_curvature_balance_holds_node() {
        // Symmetric equal-curvature neighbors + flat sensing: balanced.
        let f = PlaneField::new(0.0, 0.0, 1.0);
        let n = Point2::new(50.0, 50.0);
        let nbrs = [
            NeighborInfo {
                position: Point2::new(58.0, 50.0),
                curvature: 3.0,
            },
            NeighborInfo {
                position: Point2::new(42.0, 50.0),
                curvature: 3.0,
            },
            NeighborInfo {
                position: Point2::new(50.0, 58.0),
                curvature: 3.0,
            },
            NeighborInfo {
                position: Point2::new(50.0, 42.0),
                curvature: 3.0,
            },
        ];
        let out = cma_step(n, f.value(n), &sense(&f, n, 5.0), &nbrs, &cfg()).unwrap();
        assert_eq!(out.action, CmaAction::Stay, "force {:?}", out.force);
    }

    #[test]
    fn beta_scales_repulsion_influence() {
        let f = PlaneField::new(0.0, 0.0, 1.0);
        let n = Point2::new(50.0, 50.0);
        let nbr = [NeighborInfo {
            position: Point2::new(52.0, 50.0),
            curvature: 0.0,
        }];
        let weak = CmaConfig { beta: 0.5, ..cfg() };
        let strong = CmaConfig { beta: 4.0, ..cfg() };
        let s = sense(&f, n, 5.0);
        let fw = cma_step(n, f.value(n), &s, &nbr, &weak).unwrap().force;
        let fs = cma_step(n, f.value(n), &s, &nbr, &strong).unwrap().force;
        assert!(fs.norm() > fw.norm());
    }

    #[test]
    fn insufficient_sensing_is_an_error() {
        let n = Point2::new(0.0, 0.0);
        let err = cma_step(n, 0.0, &[], &[], &cfg()).unwrap_err();
        assert!(matches!(err, CoreError::TooFewSamplesForFit { .. }));
    }

    #[test]
    fn config_from_cps_defaults() {
        let c = CmaConfig::default();
        assert_eq!(c.comm_radius, 10.0);
        assert_eq!(c.sensing_radius, 5.0);
        assert_eq!(c.beta, 2.0);
        assert!(c.stop_threshold > 0.0);
    }
}
