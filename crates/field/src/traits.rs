//! The [`Field`] and [`TimeVaryingField`] traits and adapters.

use cps_geometry::{GridSpec, Point2};
use cps_linalg::Summary;

/// A static scalar field `z = f(x, y)` over the plane — the paper's
/// virtual surface.
///
/// Implementations must return finite values for all finite points
/// inside their region of interest; behaviour outside the region is
/// implementation-defined (most fields extend smoothly or clamp).
///
/// The trait is object-safe, so heterogeneous references
/// (`&dyn Field`) can be passed to the evaluation harnesses.
pub trait Field {
    /// Field value at `p`.
    fn value(&self, p: Point2) -> f64;

    /// Samples the field at every point of `grid`, row-major
    /// (`j`-major, matching [`GridSpec::flat_index`]).
    fn sample_grid(&self, grid: &GridSpec) -> Vec<f64>
    where
        Self: Sized,
    {
        let mut out = vec![0.0; grid.len()];
        for (i, j, p) in grid.iter() {
            out[grid.flat_index(i, j)] = self.value(p);
        }
        out
    }

    /// Summary statistics of the field over `grid`.
    fn summarize(&self, grid: &GridSpec) -> Summary
    where
        Self: Sized,
    {
        Summary::from_values(&self.sample_grid(grid))
    }

    /// Writes the value at `(xs[i], y)` into `out[i]` for every `i`: one
    /// row of a grid. The default evaluates [`value`](Field::value)
    /// point by point in order; an override that shares work across the
    /// row must return exactly those values, bit for bit.
    fn row_values(&self, xs: &[f64], y: f64, out: &mut [f64]) {
        debug_assert_eq!(xs.len(), out.len());
        for (slot, &x) in out.iter_mut().zip(xs) {
            *slot = self.value(Point2::new(x, y));
        }
    }
}

impl<F: Field + ?Sized> Field for &F {
    fn value(&self, p: Point2) -> f64 {
        (**self).value(p)
    }

    fn row_values(&self, xs: &[f64], y: f64, out: &mut [f64]) {
        (**self).row_values(xs, y, out)
    }
}

impl<F: Field + ?Sized> Field for Box<F> {
    fn value(&self, p: Point2) -> f64 {
        (**self).value(p)
    }

    fn row_values(&self, xs: &[f64], y: f64, out: &mut [f64]) {
        (**self).row_values(xs, y, out)
    }
}

/// A scalar field that also varies with time: `z = f(x, y, t)`.
///
/// Time is measured in the simulation's time unit (minutes in the
/// paper's OSTD experiments).
pub trait TimeVaryingField {
    /// Field value at `p` at time `t`.
    fn value_at(&self, p: Point2, t: f64) -> f64;

    /// Borrows the field frozen at an instant, yielding a [`Field`].
    fn at_time(&self, t: f64) -> Frozen<'_, Self> {
        Frozen { inner: self, t }
    }

    /// Appends `(p, value)` at time `t` for every lattice point
    /// `p = (x, y)`, `x` from `xs` and `y` from `ys`, that `keep`
    /// admits. The order is x-major: all of `ys` for `xs[0]`, then all
    /// of `ys` for `xs[1]`, and so on.
    ///
    /// The default evaluates [`value_at`](TimeVaryingField::value_at)
    /// point by point in that order. An override may share work across
    /// the lattice (per-instant, per-column and per-row terms), but must
    /// return exactly the values `value_at` returns, bit for bit.
    fn lattice_at(
        &self,
        xs: &[f64],
        ys: &[f64],
        t: f64,
        keep: &dyn Fn(Point2) -> bool,
        out: &mut Vec<(Point2, f64)>,
    ) {
        for &x in xs {
            for &y in ys {
                let p = Point2::new(x, y);
                if keep(p) {
                    out.push((p, self.value_at(p, t)));
                }
            }
        }
    }
}

impl<F: TimeVaryingField + ?Sized> TimeVaryingField for &F {
    fn value_at(&self, p: Point2, t: f64) -> f64 {
        (**self).value_at(p, t)
    }

    fn lattice_at(
        &self,
        xs: &[f64],
        ys: &[f64],
        t: f64,
        keep: &dyn Fn(Point2) -> bool,
        out: &mut Vec<(Point2, f64)>,
    ) {
        (**self).lattice_at(xs, ys, t, keep, out)
    }
}

impl<F: TimeVaryingField + ?Sized> TimeVaryingField for Box<F> {
    fn value_at(&self, p: Point2, t: f64) -> f64 {
        (**self).value_at(p, t)
    }

    fn lattice_at(
        &self,
        xs: &[f64],
        ys: &[f64],
        t: f64,
        keep: &dyn Fn(Point2) -> bool,
        out: &mut Vec<(Point2, f64)>,
    ) {
        (**self).lattice_at(xs, ys, t, keep, out)
    }
}

/// Adapter: a static [`Field`] viewed as a (constant) time-varying one.
///
/// # Example
///
/// ```
/// use cps_field::{Field, PlaneField, Static, TimeVaryingField};
/// use cps_geometry::Point2;
///
/// let f = Static::new(PlaneField::new(1.0, 0.0, 0.0));
/// let p = Point2::new(2.0, 5.0);
/// assert_eq!(f.value_at(p, 0.0), f.value_at(p, 100.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Static<F> {
    inner: F,
}

impl<F: Field> Static<F> {
    /// Wraps a static field.
    pub fn new(inner: F) -> Self {
        Static { inner }
    }

    /// Returns the wrapped field.
    pub fn into_inner(self) -> F {
        self.inner
    }
}

impl<F: Field> TimeVaryingField for Static<F> {
    fn value_at(&self, p: Point2, _t: f64) -> f64 {
        self.inner.value(p)
    }
}

impl<F: Field> Field for Static<F> {
    fn value(&self, p: Point2) -> f64 {
        self.inner.value(p)
    }
}

/// Adapter: a [`TimeVaryingField`] frozen at a fixed instant, usable as
/// a static [`Field`]. Produced by [`TimeVaryingField::at_time`].
#[derive(Debug, Clone, Copy)]
pub struct Frozen<'a, F: ?Sized> {
    inner: &'a F,
    t: f64,
}

impl<F: TimeVaryingField + ?Sized> Frozen<'_, F> {
    /// The freeze instant.
    pub fn time(&self) -> f64 {
        self.t
    }
}

impl<F: TimeVaryingField + ?Sized> Field for Frozen<'_, F> {
    fn value(&self, p: Point2) -> f64 {
        self.inner.value_at(p, self.t)
    }

    /// One row is the one-row lattice at the freeze instant.
    fn row_values(&self, xs: &[f64], y: f64, out: &mut [f64]) {
        let mut row = Vec::with_capacity(xs.len());
        self.inner.lattice_at(xs, &[y], self.t, &|_| true, &mut row);
        for (slot, (_, v)) in out.iter_mut().zip(row) {
            *slot = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_geometry::Rect;

    struct Gradient;
    impl Field for Gradient {
        fn value(&self, p: Point2) -> f64 {
            p.x + 2.0 * p.y
        }
    }

    struct Wave;
    impl TimeVaryingField for Wave {
        fn value_at(&self, p: Point2, t: f64) -> f64 {
            p.x + t
        }
    }

    #[test]
    fn sample_grid_matches_values() {
        let grid = GridSpec::new(Rect::square(2.0).unwrap(), 3, 3).unwrap();
        let samples = Gradient.sample_grid(&grid);
        assert_eq!(samples.len(), 9);
        assert_eq!(samples[grid.flat_index(2, 2)], 6.0);
        assert_eq!(samples[grid.flat_index(1, 0)], 1.0);
    }

    #[test]
    fn summarize_reports_extremes() {
        let grid = GridSpec::new(Rect::square(2.0).unwrap(), 3, 3).unwrap();
        let s = Gradient.summarize(&grid);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 6.0);
    }

    #[test]
    fn reference_impl_forwards() {
        let g = Gradient;
        let r: &dyn Field = &g;
        assert_eq!(r.value(Point2::new(1.0, 1.0)), 3.0);
        let boxed: Box<dyn Field> = Box::new(Gradient);
        assert_eq!(boxed.value(Point2::new(1.0, 1.0)), 3.0);
    }

    #[test]
    fn frozen_fixes_time() {
        let w = Wave;
        let f5 = w.at_time(5.0);
        assert_eq!(f5.time(), 5.0);
        assert_eq!(f5.value(Point2::new(1.0, 0.0)), 6.0);
    }

    /// Records every `value_at` call and answers `x + 10·y + t`.
    struct Logged(std::cell::RefCell<Vec<Point2>>);
    impl TimeVaryingField for Logged {
        fn value_at(&self, p: Point2, t: f64) -> f64 {
            self.0.borrow_mut().push(p);
            p.x + 10.0 * p.y + t
        }
    }

    /// Overrides the lattice with a marker value `value_at` never returns.
    struct Marked;
    impl TimeVaryingField for Marked {
        fn value_at(&self, _p: Point2, _t: f64) -> f64 {
            0.0
        }

        fn lattice_at(
            &self,
            xs: &[f64],
            ys: &[f64],
            _t: f64,
            _keep: &dyn Fn(Point2) -> bool,
            out: &mut Vec<(Point2, f64)>,
        ) {
            for &x in xs {
                for &y in ys {
                    out.push((Point2::new(x, y), -1.0));
                }
            }
        }
    }

    #[test]
    fn lattice_default_keeps_value_at_order() {
        let f = Logged(Default::default());
        let (xs, ys) = ([1.0, 2.0, 3.0], [5.0, 6.0]);
        let mut out = Vec::new();
        f.lattice_at(&xs, &ys, 0.5, &|p| p != Point2::new(2.0, 5.0), &mut out);
        let expected = [(1.0, 5.0), (1.0, 6.0), (2.0, 6.0), (3.0, 5.0), (3.0, 6.0)];
        let points: Vec<Point2> = expected.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        assert_eq!(*f.0.borrow(), points);
        let got: Vec<(Point2, f64)> = points
            .iter()
            .map(|&p| (p, p.x + 10.0 * p.y + 0.5))
            .collect();
        assert_eq!(out, got);
    }

    #[test]
    fn row_default_keeps_value_order() {
        let mut out = [0.0; 3];
        Gradient.row_values(&[0.0, 1.0, 4.0], 2.0, &mut out);
        assert_eq!(out, [4.0, 5.0, 8.0]);
        let f = Logged(Default::default());
        f.at_time(1.0).row_values(&[3.0, 1.0], 2.0, &mut out[..2]);
        assert_eq!(
            *f.0.borrow(),
            [Point2::new(3.0, 2.0), Point2::new(1.0, 2.0)]
        );
        assert_eq!(out[..2], [24.0, 22.0]);
    }

    fn one_point<F: TimeVaryingField>(f: F) -> Vec<(Point2, f64)> {
        let mut out = Vec::new();
        f.lattice_at(&[1.0], &[2.0], 0.0, &|_| true, &mut out);
        out
    }

    fn one_row<F: Field>(f: F) -> [f64; 2] {
        let mut row = [0.0; 2];
        f.row_values(&[1.0, 2.0], 0.0, &mut row);
        row
    }

    #[test]
    fn wrappers_forward_the_lattice_override() {
        let marked = [(Point2::new(1.0, 2.0), -1.0)];
        assert_eq!(one_point(&Marked), marked);
        assert_eq!(one_point(Box::new(Marked)), marked);
        let frozen = Marked.at_time(3.0);
        assert_eq!(one_row(Marked.at_time(3.0)), [-1.0, -1.0]);
        assert_eq!(one_row(&frozen), [-1.0, -1.0]);
        assert_eq!(one_row(Box::new(Marked.at_time(3.0))), [-1.0, -1.0]);
        let by_dyn: &dyn Field = &frozen;
        assert_eq!(one_row(by_dyn), [-1.0, -1.0]);
    }

    #[test]
    fn static_is_time_invariant() {
        let s = Static::new(Gradient);
        let p = Point2::new(1.0, 1.0);
        assert_eq!(s.value_at(p, 0.0), 3.0);
        assert_eq!(s.value_at(p, 9.0), 3.0);
        assert_eq!(s.value(p), 3.0);
        let _inner = s.into_inner();
    }
}
