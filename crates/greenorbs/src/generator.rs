//! The synthetic forest generator.
//!
//! The latent environment is a physically motivated light model:
//!
//! * **ambient sky light** follows a diurnal curve, zero at night and
//!   peaking around solar noon;
//! * the **canopy** transmits a position-dependent fraction of it — a
//!   low base transmission with Gaussian *gap* openings where the crown
//!   is thin (these produce the bright patches visible in the paper's
//!   Fig. 1);
//! * **sun flecks** — small bright spots that drift westward over the
//!   day as the sun angle changes, making the field genuinely
//!   time-varying for the OSTD experiments;
//! * temperature follows the ambient curve with local light coupling;
//!   humidity runs inverse to temperature.
//!
//! Node readings add per-reading measurement noise. Everything is
//! seeded: the same [`ForestConfig`] always yields the same trace.

use cps_field::TimeVaryingField;
use cps_geometry::Point2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::records::{NodeMeta, SensorReading};

/// Configuration of the synthetic forest trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// RNG seed; the trace is a pure function of the configuration.
    pub seed: u64,
    /// Side of the square forest plot, metres. The default 141.4 m
    /// gives the paper's "nearly 20 000 square meters".
    pub side: f64,
    /// Number of sensor nodes (GreenOrbs: 1000+).
    pub node_count: usize,
    /// Hours of trace to generate.
    pub hours: u32,
    /// Hour-of-day of hour index 0 (readings are hourly).
    pub start_hour_of_day: u32,
    /// Number of canopy gaps.
    pub gap_count: usize,
    /// Number of drifting sun flecks.
    pub fleck_count: usize,
    /// Standard deviation of per-reading measurement noise, as a
    /// fraction of the channel's typical scale.
    pub noise: f64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            seed: 0x9e3779b97f4a7c15,
            side: 141.4,
            node_count: 1000,
            hours: 24,
            start_hour_of_day: 0,
            gap_count: 8,
            fleck_count: 18,
            noise: 0.005,
        }
    }
}

/// Below this, a Gaussian term cannot change the transmission sum: the
/// sum starts at 0.04 > 2⁻⁵ and only grows, so its ulp is at least
/// 2⁻⁵⁷, and adding less than half an ulp rounds back to the sum.
const NEGLIGIBLE_TERM_LOG2: f64 = -58.0;

/// A Gaussian feature of the latent model.
#[derive(Debug, Clone, Copy)]
struct Feature {
    center: Point2,
    amplitude: f64,
    sigma_x: f64,
    sigma_y: f64,
    /// Drift of the centre per hour past solar noon (sun-fleck motion).
    drift: (f64, f64),
    /// Squared scaled distance `r²` beyond which the term
    /// `amplitude·e^(−r²/2)`, as computed, is below 2⁻⁵⁸ (see
    /// [`Feature::new`]).
    cutoff: f64,
}

impl Feature {
    fn new(center: Point2, amplitude: f64, sigma: (f64, f64), drift: (f64, f64)) -> Self {
        // amplitude·e^(−r²/2) < 2⁻⁵⁸ ⇔ r² > 2·(ln amplitude + 58·ln 2).
        // The extra 1 leaves a factor e^(−1/2) of room for the rounding
        // of this bound, of `exp` and of the product, so a skipped term
        // is below 2⁻⁵⁸ as computed, not only in exact arithmetic.
        let cutoff = 2.0 * (amplitude.ln() - NEGLIGIBLE_TERM_LOG2 * std::f64::consts::LN_2) + 1.0;
        Feature {
            center,
            amplitude,
            sigma_x: sigma.0,
            sigma_y: sigma.1,
            drift,
            cutoff,
        }
    }

    /// The centre at `hours_past_noon`.
    fn center_at(&self, hours_past_noon: f64) -> (f64, f64) {
        (
            self.center.x + self.drift.0 * hours_past_noon,
            self.center.y + self.drift.1 * hours_past_noon,
        )
    }

    /// Squared scaled offset of `coord` from `center` along one axis.
    fn axis_term(coord: f64, center: f64, sigma: f64) -> f64 {
        let d = (coord - center) / sigma;
        d * d
    }

    /// Adds the term at squared scaled distance `r2` to the
    /// transmission sum `t`, or leaves `t` as it is where the term is
    /// too small to change it.
    fn accumulate(&self, t: f64, r2: f64) -> f64 {
        if r2 > self.cutoff {
            return t;
        }
        t + self.amplitude * (-0.5 * r2).exp()
    }
}

/// A large-scale canopy-density wave, `scale·|sin(kx·x + ky·y + phase)|`.
#[derive(Debug, Clone, Copy)]
struct Wave {
    kx: f64,
    ky: f64,
    phase: f64,
    /// `0.4·amplitude`.
    scale: f64,
}

impl Wave {
    /// The sine argument from the two axis terms `kx·x` and `ky·y`.
    fn argument(&self, x_term: f64, y_term: f64) -> f64 {
        x_term + y_term + self.phase
    }
}

/// The terms of the light model that depend on the time only.
#[derive(Debug, Clone, Copy)]
struct TimeTerms {
    ambient: f64,
    hours_past_noon: f64,
}

/// The latent (noise-free) environment model.
#[derive(Debug, Clone)]
pub(crate) struct LatentModel {
    side: f64,
    start_hour_of_day: u32,
    /// Canopy gaps, then sun flecks.
    features: Vec<Feature>,
    /// How many of `features` are gaps.
    gap_count: usize,
    /// Smooth large-scale canopy-density variation.
    density_waves: Vec<Wave>,
}

impl LatentModel {
    fn new(cfg: &ForestConfig, rng: &mut StdRng) -> Self {
        // Canopy gaps cluster into a few clearings (blowdowns, old
        // logging patches): most of the plot is deep shade, and the
        // photic structure concentrates where the crown is open. This
        // clustering is what makes non-uniform node densities pay off.
        let clearing_count = 3.max(cfg.gap_count / 4).min(4);
        let clearings: Vec<Point2> = (0..clearing_count)
            .map(|_| {
                Point2::new(
                    rng.gen_range(0.28 * cfg.side..0.72 * cfg.side),
                    rng.gen_range(0.28 * cfg.side..0.72 * cfg.side),
                )
            })
            .collect();
        let mut gaps = Vec::with_capacity(cfg.gap_count);
        for i in 0..cfg.gap_count {
            let host = clearings[i % clearings.len()];
            let center = Point2::new(
                (host.x + rng.gen_range(-10.0..10.0)).clamp(0.0, cfg.side),
                (host.y + rng.gen_range(-10.0..10.0)).clamp(0.0, cfg.side),
            );
            let amplitude = rng.gen_range(0.1..0.3);
            let sigma = (rng.gen_range(5.0..9.0), rng.gen_range(5.0..9.0));
            gaps.push(Feature::new(center, amplitude, sigma, (0.0, 0.0)));
        }
        // Sun flecks live *inside* canopy gaps (light only reaches the
        // floor where the crown is open), so the fine detail of the
        // field is spatially clustered — the property that makes
        // curvature-weighted node densities pay off.
        let gap_count = gaps.len();
        let mut features = gaps;
        for i in 0..cfg.fleck_count {
            let host = features[i % gap_count.max(1)];
            let cx = host.center.x + rng.gen_range(-1.0..1.0) * host.sigma_x;
            let cy = host.center.y + rng.gen_range(-1.0..1.0) * host.sigma_y;
            let center = Point2::new(cx.clamp(0.0, cfg.side), cy.clamp(0.0, cfg.side));
            let amplitude = rng.gen_range(0.4..0.9);
            let sigma = (rng.gen_range(4.5..7.0), rng.gen_range(4.5..7.0));
            // Flecks slide west-ish as the sun moves east→west.
            let drift = (rng.gen_range(-4.0..-1.5), rng.gen_range(-1.0..1.0));
            features.push(Feature::new(center, amplitude, sigma, drift));
        }
        let density_waves = (0..3)
            .map(|_| {
                let kx = rng.gen_range(0.01..0.05);
                let ky = rng.gen_range(0.01..0.05);
                let phase = rng.gen_range(0.0..std::f64::consts::TAU);
                let amplitude: f64 = rng.gen_range(0.02..0.06);
                Wave {
                    kx,
                    ky,
                    phase,
                    scale: 0.4 * amplitude,
                }
            })
            .collect();
        LatentModel {
            side: cfg.side,
            start_hour_of_day: cfg.start_hour_of_day,
            features,
            gap_count,
            density_waves,
        }
    }

    /// Hour-of-day of trace hour `hour` (fractional hours allowed).
    fn hour_of_day(&self, hour: f64) -> f64 {
        (self.start_hour_of_day as f64 + hour).rem_euclid(24.0)
    }

    /// Ambient above-canopy illumination, KLux.
    fn ambient(&self, hour: f64) -> f64 {
        let h = self.hour_of_day(hour);
        if !(6.0..=18.0).contains(&h) {
            return 0.0;
        }
        // Peaks at 60 KLux around solar noon; the clipped sine gives a
        // mid-day plateau (thin-cloud diffusion), so morning experiment
        // windows are not dominated by the raw brightness ramp.
        (60.0 * 1.3 * (std::f64::consts::PI * (h - 6.0) / 12.0).sin().max(0.0)).min(60.0)
    }

    /// The time-only terms at fractional trace hour `hour`.
    fn time_terms(&self, hour: f64) -> TimeTerms {
        TimeTerms {
            ambient: self.ambient(hour),
            hours_past_noon: self.hour_of_day(hour) - 12.0,
        }
    }

    /// Every Gaussian feature with its centre at the time of `terms`,
    /// gaps first: gaps hold still, flecks drift with the sun.
    fn centers(&self, terms: TimeTerms) -> impl Iterator<Item = (&Feature, (f64, f64))> {
        self.features.iter().enumerate().map(move |(k, f)| {
            let hours = if k < self.gap_count {
                0.0
            } else {
                terms.hours_past_noon
            };
            (f, f.center_at(hours))
        })
    }

    /// Light from one point's wave arguments and squared scaled feature
    /// distances, in model order: the canopy transmission fraction
    /// (deep-shade base plus density waves, gaps and flecks, clamped to
    /// 0..0.95) times the ambient light. Both the lattice kernel and the
    /// single-point [`LatentModel::light`] end here.
    fn light_from(
        &self,
        terms: TimeTerms,
        wave_arguments: impl Iterator<Item = f64>,
        feature_r2: impl Iterator<Item = f64>,
    ) -> f64 {
        let mut t = 0.04; // deep-shade base
        for (wave, argument) in self.density_waves.iter().zip(wave_arguments) {
            t += wave.scale * argument.sin().abs();
        }
        for (feature, r2) in self.features.iter().zip(feature_r2) {
            t = feature.accumulate(t, r2);
        }
        terms.ambient * t.clamp(0.0, 0.95)
    }

    /// The light kernel: appends `(p, light)` for every point
    /// `p = (x, y)` of the lattice `xs × ys` that `keep` admits, x-major,
    /// at fractional trace hour `hour`. The time-only terms are computed
    /// once per call, the per-column and per-row offsets and wave terms
    /// once per lattice; every point then costs its sums, three sines
    /// and the Gaussian terms that can still change the result.
    pub(crate) fn light_lattice(
        &self,
        xs: &[f64],
        ys: &[f64],
        hour: f64,
        keep: &dyn Fn(Point2) -> bool,
        out: &mut Vec<(Point2, f64)>,
    ) {
        let terms = self.time_terms(hour);
        let waves = self.density_waves.len();
        let stride = waves + self.features.len();
        // Per column: `kx·x` for each wave, then the squared scaled
        // x-offset from each feature centre; likewise per row in y.
        let mut columns = Vec::with_capacity(xs.len() * stride);
        for &x in xs {
            columns.extend(self.density_waves.iter().map(|w| w.kx * x));
            columns.extend(
                self.centers(terms)
                    .map(|(f, (cx, _))| Feature::axis_term(x, cx, f.sigma_x)),
            );
        }
        let mut rows = Vec::with_capacity(ys.len() * stride);
        for &y in ys {
            rows.extend(self.density_waves.iter().map(|w| w.ky * y));
            rows.extend(
                self.centers(terms)
                    .map(|(f, (_, cy))| Feature::axis_term(y, cy, f.sigma_y)),
            );
        }
        for (&x, column) in xs.iter().zip(columns.chunks_exact(stride)) {
            for (&y, row) in ys.iter().zip(rows.chunks_exact(stride)) {
                let p = Point2::new(x, y);
                if !keep(p) {
                    continue;
                }
                let (cw, cf) = column.split_at(waves);
                let (rw, rf) = row.split_at(waves);
                let arguments = self
                    .density_waves
                    .iter()
                    .zip(cw.iter().zip(rw))
                    .map(|(w, (&xt, &yt))| w.argument(xt, yt));
                let r2 = cf.iter().zip(rf).map(|(&ex, &ey)| ex + ey);
                out.push((p, self.light_from(terms, arguments, r2)));
            }
        }
    }

    /// Light in KLux at position `p` and fractional trace hour `hour`:
    /// the 1×1 lattice, with its axis terms computed in place instead of
    /// stored.
    pub(crate) fn light(&self, p: Point2, hour: f64) -> f64 {
        let terms = self.time_terms(hour);
        let arguments = self
            .density_waves
            .iter()
            .map(|w| w.argument(w.kx * p.x, w.ky * p.y));
        let r2 = self.centers(terms).map(|(f, (cx, cy))| {
            Feature::axis_term(p.x, cx, f.sigma_x) + Feature::axis_term(p.y, cy, f.sigma_y)
        });
        self.light_from(terms, arguments, r2)
    }

    /// Temperature in °C where the light reading at `hour` is `light`.
    pub(crate) fn temperature(&self, light: f64, hour: f64) -> f64 {
        // Base 8 °C at night, up to ~+10 °C at noon, plus a light
        // coupling (sunlit spots are warmer).
        8.0 + 10.0 * self.ambient(hour) / 60.0 + 0.08 * light
    }

    /// Relative humidity in % at `temperature` °C.
    pub(crate) fn humidity(temperature: f64) -> f64 {
        (95.0 - 2.2 * (temperature - 8.0)).clamp(20.0, 100.0)
    }

    /// Side of the plot.
    pub(crate) fn side(&self) -> f64 {
        self.side
    }
}

/// The *true* (noise-free) light environment behind a synthetic trace,
/// as a continuous time-varying field with time in **minutes**
/// (matching the OSTD simulator's clock: hour `h` is `t = 60·h`).
///
/// The OSTD experiments evaluate exploration against this latent truth:
/// mobile nodes sample the real environment, and reconstruction quality
/// is judged against the environment itself rather than against a
/// smoothed re-interpolation of the scattered trace (whose kernel
/// texture would dominate the curvature signal).
///
/// # Example
///
/// ```
/// use cps_field::TimeVaryingField;
/// use cps_geometry::Point2;
/// use cps_greenorbs::{ForestConfig, LatentLightField};
///
/// let field = LatentLightField::new(&ForestConfig::default());
/// let noon = field.value_at(Point2::new(70.0, 70.0), 12.0 * 60.0);
/// let night = field.value_at(Point2::new(70.0, 70.0), 2.0 * 60.0);
/// assert!(noon > night);
/// ```
#[derive(Debug, Clone)]
pub struct LatentLightField {
    model: LatentModel,
}

impl LatentLightField {
    /// Builds the latent field for `config` (the same one that
    /// generated / would generate the trace readings).
    pub fn new(config: &ForestConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        LatentLightField {
            model: LatentModel::new(config, &mut rng),
        }
    }

    /// Side of the forest plot, metres.
    pub fn side(&self) -> f64 {
        self.model.side()
    }
}

impl TimeVaryingField for LatentLightField {
    fn value_at(&self, p: Point2, t: f64) -> f64 {
        self.model.light(p, t / 60.0)
    }

    /// The model's lattice kernel: bit-identical to
    /// [`value_at`](TimeVaryingField::value_at) at every point.
    fn lattice_at(
        &self,
        xs: &[f64],
        ys: &[f64],
        t: f64,
        keep: &dyn Fn(Point2) -> bool,
        out: &mut Vec<(Point2, f64)>,
    ) {
        self.model.light_lattice(xs, ys, t / 60.0, keep, out);
    }
}

/// Generates node metadata, readings and the latent model.
pub(crate) fn generate(cfg: &ForestConfig) -> (Vec<NodeMeta>, Vec<SensorReading>, LatentModel) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let model = LatentModel::new(cfg, &mut rng);

    let nodes: Vec<NodeMeta> = (0..cfg.node_count)
        .map(|id| NodeMeta {
            id: id as u32,
            x: rng.gen_range(0.0..cfg.side),
            y: rng.gen_range(0.0..cfg.side),
        })
        .collect();

    let mut readings = Vec::with_capacity(cfg.node_count * cfg.hours as usize);
    for hour in 0..cfg.hours {
        for n in &nodes {
            let p = Point2::new(n.x, n.y);
            let t = hour as f64;
            let light = model.light(p, t);
            let temperature = model.temperature(light, t);
            let humidity = LatentModel::humidity(temperature);
            readings.push(SensorReading {
                node_id: n.id,
                hour,
                light: (light * (1.0 + cfg.noise * rng.gen_range(-1.0..1.0))).max(0.0),
                temperature: temperature + 20.0 * cfg.noise * rng.gen_range(-1.0..1.0),
                humidity: (humidity * (1.0 + cfg.noise * rng.gen_range(-1.0..1.0)))
                    .clamp(0.0, 100.0),
            });
        }
    }
    (nodes, readings, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ForestConfig {
        ForestConfig {
            node_count: 50,
            hours: 24,
            ..ForestConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (n1, r1, _) = generate(&small());
        let (n2, r2, _) = generate(&small());
        assert_eq!(n1, n2);
        assert_eq!(r1, r2);
        let other = ForestConfig { seed: 1, ..small() };
        let (n3, _, _) = generate(&other);
        assert_ne!(n1, n3);
    }

    #[test]
    fn counts_and_bounds() {
        let cfg = small();
        let (nodes, readings, _) = generate(&cfg);
        assert_eq!(nodes.len(), 50);
        assert_eq!(readings.len(), 50 * 24);
        assert!(nodes.iter().all(|n| (0.0..=cfg.side).contains(&n.x)));
        assert!(readings.iter().all(|r| r.light >= 0.0));
        assert!(readings.iter().all(|r| (0.0..=100.0).contains(&r.humidity)));
    }

    #[test]
    fn night_is_dark_noon_is_bright() {
        let (_, readings, _) = generate(&small());
        let at = |h: u32| -> f64 {
            let rs: Vec<f64> = readings
                .iter()
                .filter(|r| r.hour == h)
                .map(|r| r.light)
                .collect();
            rs.iter().sum::<f64>() / rs.len() as f64
        };
        assert_eq!(at(2), 0.0); // 02:00 — night
        assert!(at(12) > 1.0); // noon — canopy-filtered daylight
        assert!(at(12) > at(8));
    }

    #[test]
    fn temperature_tracks_daylight_and_humidity_inverts() {
        let (_, readings, _) = generate(&small());
        let mean = |h: u32, f: fn(&SensorReading) -> f64| -> f64 {
            let v: Vec<f64> = readings.iter().filter(|r| r.hour == h).map(f).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean(12, |r| r.temperature) > mean(2, |r| r.temperature));
        assert!(mean(12, |r| r.humidity) < mean(2, |r| r.humidity));
    }

    /// The model's sum as first written, with every Gaussian term added.
    fn light_unskipped(model: &LatentModel, p: Point2, hour: f64) -> f64 {
        let gauss = |f: &Feature, hours_past_noon: f64| {
            let cx = f.center.x + f.drift.0 * hours_past_noon;
            let cy = f.center.y + f.drift.1 * hours_past_noon;
            let dx = (p.x - cx) / f.sigma_x;
            let dy = (p.y - cy) / f.sigma_y;
            f.amplitude * (-0.5 * (dx * dx + dy * dy)).exp()
        };
        let hours_past_noon = model.hour_of_day(hour) - 12.0;
        let mut t = 0.04;
        for w in &model.density_waves {
            t += w.scale * (w.kx * p.x + w.ky * p.y + w.phase).sin().abs();
        }
        let (gaps, flecks) = model.features.split_at(model.gap_count);
        for g in gaps {
            t += gauss(g, 0.0);
        }
        for f in flecks {
            t += gauss(f, hours_past_noon);
        }
        model.ambient(hour) * t.clamp(0.0, 0.95)
    }

    #[test]
    fn skipped_tail_terms_change_no_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        let (_, _, model) = generate(&small());
        let side = model.side();
        let mut points: Vec<Point2> = (0..4000)
            .map(|_| {
                Point2::new(
                    rng.gen_range(-80.0..side + 80.0),
                    rng.gen_range(-80.0..side + 80.0),
                )
            })
            .collect();
        // Points straddling each feature's cutoff distance along x.
        for f in &model.features {
            let reach = f.cutoff.sqrt() * f.sigma_x;
            for k in -20..=20 {
                let d = reach * (1.0 + k as f64 * 1e-3);
                points.push(Point2::new(f.center.x + d, f.center.y));
                points.push(Point2::new(f.center.x - d, f.center.y));
            }
        }
        let mut skipped = 0usize;
        for (n, &p) in points.iter().enumerate() {
            let hour = [10.0, 12.0, 15.5, 7.25][n % 4];
            let got = model.light(p, hour);
            let want = light_unskipped(&model, p, hour);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{got} vs {want} at {p:?}, {hour} h"
            );
            let terms = model.time_terms(hour);
            skipped += model
                .centers(terms)
                .filter(|(f, (cx, cy))| {
                    Feature::axis_term(p.x, *cx, f.sigma_x)
                        + Feature::axis_term(p.y, *cy, f.sigma_y)
                        > f.cutoff
                })
                .count();
        }
        assert!(skipped > 1000, "only {skipped} terms were skipped");
    }

    #[test]
    fn flecks_move_between_hours() {
        // The light field at a fixed point changes shape between 10:00
        // and 14:00 by more than the pure ambient rescaling.
        let (_, _, model) = generate(&small());
        let p = Point2::new(50.0, 50.0);
        let q = Point2::new(90.0, 90.0);
        let ratio_p = model.light(p, 14.0) / model.light(p, 10.0).max(1e-9);
        let ratio_q = model.light(q, 14.0) / model.light(q, 10.0).max(1e-9);
        // Pure rescaling would give identical ratios everywhere.
        assert!((ratio_p - ratio_q).abs() > 1e-3);
    }
}
