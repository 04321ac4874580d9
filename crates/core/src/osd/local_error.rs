//! The local-error array driving FRA's refinement choice.
//!
//! The paper adopts Garland & Heckbert's *local error* measure: for each
//! candidate position, the vertical distance between the reference
//! surface and the current triangulated approximation,
//! `Err[i][j] = |f(xᵢ, yⱼ) − DT(xᵢ, yⱼ)|` (Table 1 lines 2–3), updated
//! after every insertion only where new triangles appeared (line 11).
//!
//! Recomputation is a dense grid sweep — the FRA hot path — so it runs
//! on the row-sharded evaluation engine of [`cps_field::par`]. Each
//! refresh rasterizes the surface once in *locate mode*
//! ([`RasterPlan::fill_row_owners`]): a cell strictly inside a
//! triangle, beyond the locate walk's orientation tolerance, takes its
//! value from that triangle, exactly the triangle the walk would have
//! found. Only the remaining cells (hull boundary and exterior) run
//! the per-cell walk, behind one locate cursor per row. Rows are
//! written back in order, so the error array is bit-identical at any
//! thread count, and bit-identical to a per-cell walk of every point.

use cps_field::par::{map_rows, Parallelism};
use cps_field::raster::NO_OWNER;
use cps_field::{Field, RasterPlan};
use cps_geometry::{GridSpec, LocateCache, LocateCursor, Point2, Triangulation};

/// The error grid `Err[√A][√A]` of FRA, with used-position tracking.
#[derive(Debug, Clone)]
pub struct LocalErrorGrid {
    grid: GridSpec,
    errors: Vec<f64>,
    used: Vec<bool>,
}

impl LocalErrorGrid {
    /// Builds the grid and computes every local error against the
    /// current triangulated surface, sweeping rows on `par` threads
    /// (bit-identical at any thread count).
    ///
    /// `samples[i]` is the surface value at the triangulation's
    /// `VertexId(i)`.
    pub fn new<F: Field + Sync>(
        grid: GridSpec,
        field: &F,
        dt: &Triangulation,
        samples: &[f64],
        par: Parallelism,
    ) -> Self {
        let mut this = LocalErrorGrid {
            grid,
            errors: vec![0.0; grid.len()],
            used: vec![false; grid.len()],
        };
        this.recompute_region(
            grid.rect().min(),
            grid.rect().max(),
            field,
            dt,
            samples,
            par,
        );
        this
    }

    /// The underlying grid.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// Current error at grid point `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when `(i, j)` lies outside the grid; use
    /// [`LocalErrorGrid::try_error_at`] for fallible probes.
    pub fn error_at(&self, i: usize, j: usize) -> f64 {
        self.errors[self.grid.flat_index(i, j)]
    }

    /// Current error at grid point `(i, j)`, or `None` when the indices
    /// fall outside the grid.
    pub fn try_error_at(&self, i: usize, j: usize) -> Option<f64> {
        if i < self.grid.nx() && j < self.grid.ny() {
            Some(self.errors[self.grid.flat_index(i, j)])
        } else {
            None
        }
    }

    /// Flat index of the grid point nearest `p` — the one shared lookup
    /// behind [`LocalErrorGrid::mark_used`], [`LocalErrorGrid::is_used`]
    /// and [`LocalErrorGrid::flat_index_of`].
    fn nearest_flat(&self, p: Point2) -> usize {
        let (i, j) = self.grid.nearest_index(p);
        self.grid.flat_index(i, j)
    }

    /// Marks the grid point nearest `p` as used (it can no longer be
    /// selected).
    pub fn mark_used(&mut self, p: Point2) {
        let idx = self.nearest_flat(p);
        self.used[idx] = true;
    }

    /// Whether the grid point nearest `p` is already used.
    pub fn is_used(&self, p: Point2) -> bool {
        self.used[self.nearest_flat(p)]
    }

    /// Clips the axis-aligned box `[lo, hi]` to inclusive grid index
    /// ranges, expanding outward so every point inside (or on the edge
    /// of) the box is covered; recomputing a ring of extra points is
    /// harmless.
    fn clip_box(&self, lo: Point2, hi: Point2) -> (usize, usize, usize, usize) {
        let g = &self.grid;
        let fi0 = ((lo.x - g.rect().min().x) / g.dx()).floor();
        let fj0 = ((lo.y - g.rect().min().y) / g.dy()).floor();
        let fi1 = ((hi.x - g.rect().min().x) / g.dx()).ceil();
        let fj1 = ((hi.y - g.rect().min().y) / g.dy()).ceil();
        let i0 = fi0.clamp(0.0, (g.nx() - 1) as f64) as usize;
        let j0 = fj0.clamp(0.0, (g.ny() - 1) as f64) as usize;
        let i1 = fi1.clamp(0.0, (g.nx() - 1) as f64) as usize;
        let j1 = fj1.clamp(0.0, (g.ny() - 1) as f64) as usize;
        (i0, i1, j0, j1)
    }

    /// Copies one recomputed row segment back into the flat error array.
    fn write_row(&mut self, i0: usize, j: usize, row: &[f64]) {
        let base = self.grid.flat_index(i0, j);
        self.errors[base..base + row.len()].copy_from_slice(row);
    }

    /// Recomputes local errors for every grid point inside the
    /// axis-aligned box `[lo, hi]` (clipped to the grid), against the
    /// given surface. Rows are sharded across `par.threads()` workers
    /// and written back in row order, so the refreshed errors are
    /// bit-identical at any thread count.
    pub fn recompute_region<F: Field + Sync>(
        &mut self,
        lo: Point2,
        hi: Point2,
        field: &F,
        dt: &Triangulation,
        samples: &[f64],
        par: Parallelism,
    ) {
        let (i0, i1, j0, j1) = self.clip_box(lo, hi);
        let g = self.grid;
        let plan = RasterPlan::build(dt, samples, &g);
        let cache = dt.locate_cache();
        let (plan, cache) = (&plan, &cache);
        let rows = map_rows(j1 - j0 + 1, par, |r| {
            row_errors(&g, i0, i1, j0 + r, field, dt, cache, samples, plan)
        });
        for (r, row) in rows.iter().enumerate() {
            self.write_row(i0, j0 + r, row);
        }
    }

    /// The unused grid point with the largest local error, skipping the
    /// flat indices (see [`LocalErrorGrid::flat_index_of`]) flagged in
    /// the `rejected` mask; a mask shorter than the grid rejects nothing
    /// beyond its end, so `&[]` rejects nothing. Ties go to the lowest
    /// flat index. Returns `None` when every position is used or
    /// rejected.
    pub fn argmax(&self, rejected: &[bool]) -> Option<(Point2, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for idx in 0..self.errors.len() {
            if self.used[idx] || rejected.get(idx).copied().unwrap_or(false) {
                continue;
            }
            let e = self.errors[idx];
            if best.is_none_or(|(_, be)| e > be) {
                best = Some((idx, e));
            }
        }
        best.map(|(idx, e)| {
            let i = idx % self.grid.nx();
            let j = idx / self.grid.nx();
            (self.grid.point(i, j), e)
        })
    }

    /// Flat index of the grid point nearest `p` (for rejection masks).
    pub fn flat_index_of(&self, p: Point2) -> usize {
        self.nearest_flat(p)
    }

    /// Sum of all current local errors (a cheap convergence indicator).
    pub fn total_error(&self) -> f64 {
        self.errors.iter().sum()
    }
}

/// One row of `|f − DT|` values over `i0..=i1` at row `j`. Cells the
/// plan claims in locate mode interpolate from their owning triangle;
/// the rest fall back to the per-cell walk behind a fresh cursor, and
/// to the nearest sample outside the hull of inserted vertices.
// The argument list is the full per-row closure environment; bundling
// it into a struct would just move the same names one hop away.
#[allow(clippy::too_many_arguments)]
fn row_errors<F: Field>(
    g: &GridSpec,
    i0: usize,
    i1: usize,
    j: usize,
    field: &F,
    dt: &Triangulation,
    cache: &LocateCache,
    samples: &[f64],
    plan: &RasterPlan,
) -> Vec<f64> {
    let mut owners = vec![NO_OWNER; i1 - i0 + 1];
    plan.fill_row_owners(j, i0, i1, &mut owners);
    let mut cursor = LocateCursor::new();
    (i0..=i1)
        .map(|i| {
            let p = g.point(i, j);
            let approx = plan
                .interpolate_owned(owners[i - i0], p, samples)
                .or_else(|| dt.interpolate_with(cache, &mut cursor, p, samples))
                .unwrap_or_else(|| {
                    // Outside the hull of inserted vertices (possible
                    // before the scaffold corners exist): nearest value.
                    dt.nearest_vertex(p).map(|id| samples[id.0]).unwrap_or(0.0)
                });
            (field.value(p) - approx).abs()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_field::{GaussianBlob, PlaneField};
    use cps_geometry::Rect;

    fn setup<F: Field>(field: &F) -> (GridSpec, Triangulation, Vec<f64>) {
        let rect = Rect::square(10.0).unwrap();
        let grid = GridSpec::new(rect, 11, 11).unwrap();
        let mut dt = Triangulation::new(rect);
        let mut zs = Vec::new();
        for c in rect.corners() {
            dt.insert(c).unwrap();
            zs.push(field.value(c));
        }
        (grid, dt, zs)
    }

    #[test]
    fn plane_has_zero_error_everywhere() {
        let f = PlaneField::new(1.0, -2.0, 3.0);
        let (grid, dt, zs) = setup(&f);
        let errs = LocalErrorGrid::new(grid, &f, &dt, &zs, Parallelism::serial());
        assert!(errs.total_error() < 1e-6);
        // argmax still returns something (the max of zeros).
        assert!(errs.argmax(&[]).is_some());
    }

    #[test]
    fn blob_error_peaks_at_blob_center() {
        let f = GaussianBlob::isotropic(Point2::new(5.0, 5.0), 10.0, 1.5);
        let (grid, dt, zs) = setup(&f);
        let errs = LocalErrorGrid::new(grid, &f, &dt, &zs, Parallelism::serial());
        let (p, e) = errs.argmax(&[]).unwrap();
        assert_eq!(p, Point2::new(5.0, 5.0));
        assert!((e - 10.0).abs() < 1.0);
    }

    #[test]
    fn mark_used_excludes_position() {
        let f = GaussianBlob::isotropic(Point2::new(5.0, 5.0), 10.0, 1.5);
        let (grid, dt, zs) = setup(&f);
        let mut errs = LocalErrorGrid::new(grid, &f, &dt, &zs, Parallelism::serial());
        let (p1, _) = errs.argmax(&[]).unwrap();
        errs.mark_used(p1);
        assert!(errs.is_used(p1));
        let (p2, _) = errs.argmax(&[]).unwrap();
        assert_ne!(p1, p2);
    }

    #[test]
    fn rejection_list_is_honoured() {
        let f = GaussianBlob::isotropic(Point2::new(5.0, 5.0), 10.0, 1.5);
        let (grid, dt, zs) = setup(&f);
        let errs = LocalErrorGrid::new(grid, &f, &dt, &zs, Parallelism::serial());
        let (p1, _) = errs.argmax(&[]).unwrap();
        let mut rejected = vec![false; grid.len()];
        rejected[errs.flat_index_of(p1)] = true;
        let (p2, _) = errs.argmax(&rejected).unwrap();
        assert_ne!(p1, p2);
    }

    /// The first maximum of the unrejected cells by a plain scan: the
    /// picks and tie order `argmax` must reproduce.
    fn scan(errs: &LocalErrorGrid, rejected: &[bool]) -> Option<(usize, u64)> {
        let nx = errs.grid().nx();
        let mut best: Option<(usize, f64)> = None;
        for idx in (0..errs.grid().len()).filter(|&idx| !rejected[idx]) {
            let e = errs.error_at(idx % nx, idx / nx);
            if best.is_none_or(|(_, be)| e > be) {
                best = Some((idx, e));
            }
        }
        best.map(|(idx, e)| (idx, e.to_bits()))
    }

    #[test]
    fn masked_argmax_matches_a_scan_and_breaks_ties_by_index() {
        let picks = |errs: &LocalErrorGrid, rejected: &[bool]| {
            errs.argmax(rejected)
                .map(|(p, e)| (errs.flat_index_of(p), e.to_bits()))
        };
        // A flat field leaves (near-)zero error everywhere, so many
        // cells tie; reject them one by one in flat order.
        let plane = PlaneField::new(0.0, 0.0, 1.0);
        let (grid, dt, zs) = setup(&plane);
        let errs = LocalErrorGrid::new(grid, &plane, &dt, &zs, Parallelism::serial());
        let mut rejected = vec![false; grid.len()];
        for idx in 0..grid.len() {
            assert_eq!(picks(&errs, &rejected), scan(&errs, &rejected));
            rejected[idx] = true;
        }
        assert_eq!(picks(&errs, &rejected), None);
        // On a busy field, rejecting most cells leaves the maximum of
        // the rest.
        let f = GaussianBlob::isotropic(Point2::new(3.0, 7.0), 2.0, 4.0);
        let (grid, dt, zs) = setup(&f);
        let errs = LocalErrorGrid::new(grid, &f, &dt, &zs, Parallelism::serial());
        for keep in 0..7 {
            let rejected: Vec<bool> = (0..grid.len()).map(|idx| idx % 7 != keep).collect();
            assert_eq!(picks(&errs, &rejected), scan(&errs, &rejected));
        }
    }

    #[test]
    fn insertion_update_reduces_local_error() {
        let f = GaussianBlob::isotropic(Point2::new(5.0, 5.0), 10.0, 1.5);
        let (grid, mut dt, mut zs) = setup(&f);
        let mut errs = LocalErrorGrid::new(grid, &f, &dt, &zs, Parallelism::serial());
        let before = errs.error_at(5, 5);
        // Insert the blob centre and update the dirtied area.
        let center = Point2::new(5.0, 5.0);
        dt.insert(center).unwrap();
        zs.push(f.value(center));
        let (lo, hi) = dt.last_insert_bbox().unwrap();
        errs.recompute_region(lo, hi, &f, &dt, &zs, Parallelism::serial());
        let after = errs.error_at(5, 5);
        assert!(after < before);
        assert!(after < 1e-9);
    }

    #[test]
    fn try_error_at_bounds_checks() {
        let f = PlaneField::new(1.0, -2.0, 3.0);
        let (grid, dt, zs) = setup(&f);
        let errs = LocalErrorGrid::new(grid, &f, &dt, &zs, Parallelism::serial());
        assert_eq!(errs.try_error_at(5, 5), Some(errs.error_at(5, 5)));
        assert_eq!(errs.try_error_at(10, 10), Some(errs.error_at(10, 10)));
        assert_eq!(errs.try_error_at(11, 5), None);
        assert_eq!(errs.try_error_at(5, 11), None);
        assert_eq!(errs.try_error_at(usize::MAX, 0), None);
    }

    #[test]
    fn recompute_is_bit_identical_to_a_per_cell_walk_at_any_thread_count() {
        let f = GaussianBlob::isotropic(Point2::new(5.0, 5.0), 10.0, 1.5);
        let (_, mut dt, mut zs) = setup(&f);
        // 71 rows, so the parallel policies really shard; interior
        // vertices leave most cells to locate mode, while the hull
        // boundary and cells on edges fall back to the walk.
        let grid = GridSpec::new(Rect::square(10.0).unwrap(), 71, 71).unwrap();
        for k in 1..=12u32 {
            let u = (f64::from(k) * 0.618_033_988_749_895).fract();
            let v = (f64::from(k) * 0.414_213_562_373_095_1 + 0.3).fract();
            let p = Point2::new(0.5 + 9.0 * u, 0.5 + 9.0 * v);
            dt.insert(p).unwrap();
            zs.push(f.value(p));
        }
        // The reference: every cell located by the walk, left to right
        // behind one cursor per row.
        let cache = dt.locate_cache();
        let walk: Vec<f64> = (0..grid.ny())
            .flat_map(|j| {
                let mut cursor = LocateCursor::new();
                (0..grid.nx())
                    .map(|i| {
                        let p = grid.point(i, j);
                        let z = dt.interpolate_with(&cache, &mut cursor, p, &zs).unwrap();
                        (f.value(p) - z).abs()
                    })
                    .collect::<Vec<f64>>()
            })
            .collect();
        for par in [
            Parallelism::serial(),
            Parallelism::fixed(2),
            Parallelism::fixed(3),
            Parallelism::auto(),
        ] {
            let errs = LocalErrorGrid::new(grid, &f, &dt, &zs, par);
            for j in 0..grid.ny() {
                for i in 0..grid.nx() {
                    assert_eq!(
                        errs.error_at(i, j).to_bits(),
                        walk[grid.flat_index(i, j)].to_bits(),
                        "({i}, {j}) with {par:?}"
                    );
                }
            }
        }
    }
}
