//! Row-sharded parallel execution for grid sweeps.
//!
//! Every experiment in the paper reduces to dense-grid evaluation —
//! quadrature for the δ metric, curvature sweeps, per-cell error
//! refreshes — so this module provides the one primitive they all
//! share: *split the rows of a grid across threads, compute each row
//! independently, and reduce in row order*. Reducing in a fixed order
//! keeps floating-point results **bit-identical regardless of thread
//! count**, which the workspace's determinism tests rely on.
//!
//! A parallel batch runs on [`std::thread::scope`]: the calling thread
//! and `workers − 1` scoped helpers, at most [`MAX_WORKERS`] in all,
//! pull row chunks off one shared counter, and every helper is joined
//! before [`map_rows`] returns. Nothing outlives the call, so a nested
//! `map_rows` cannot deadlock. Small batches stay on the calling
//! thread when the policy is [`Parallelism::auto`].

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The most threads one parallel batch runs on, the calling thread
/// included: [`map_rows`] clamps every policy to it, the sweep engine
/// clamps its worker count to it, and the CLI rejects larger
/// `--threads` / `--workers` values.
pub const MAX_WORKERS: usize = 64;

/// Row counts below this stay serial under [`Parallelism::auto`].
///
/// Spawning a scoped thread costs more than a few dozen rows of grid
/// work, so `auto` runs such batches on the calling thread. Explicit
/// [`Parallelism::fixed`] requests are always honored.
const AUTO_SERIAL_CUTOFF: usize = 64;

/// Each worker's share is split this many ways so that uneven rows
/// (e.g. hull-heavy bands) rebalance dynamically via the chunk counter.
const CHUNKS_PER_WORKER: usize = 4;

/// Thread-count policy for the parallel evaluation engine.
///
/// The default asks the OS via [`std::thread::available_parallelism`];
/// [`Parallelism::serial`] pins everything to the calling thread, and
/// [`Parallelism::fixed`] requests an exact worker count. Results of
/// the engine are bit-identical across all of these — the policy only
/// changes wall-clock time.
///
/// # Example
///
/// ```
/// use cps_field::Parallelism;
///
/// assert_eq!(Parallelism::serial().threads(), 1);
/// assert_eq!(Parallelism::fixed(4).threads(), 4);
/// assert!(Parallelism::auto().threads() >= 1);
/// // `from_threads` maps a CLI-style `--threads 0` to auto.
/// assert_eq!(Parallelism::from_threads(0), Parallelism::auto());
/// assert_eq!(Parallelism::from_threads(2), Parallelism::fixed(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    /// Requested worker count; `0` means "ask the OS".
    requested: usize,
}

impl Parallelism {
    /// Uses [`std::thread::available_parallelism`] at execution time.
    pub fn auto() -> Self {
        Parallelism { requested: 0 }
    }

    /// Runs everything on the calling thread.
    pub fn serial() -> Self {
        Parallelism { requested: 1 }
    }

    /// Requests exactly `n` workers (`n = 0` is treated as 1).
    pub fn fixed(n: usize) -> Self {
        Parallelism {
            requested: n.max(1),
        }
    }

    /// CLI-flag convention: `0` selects [`Parallelism::auto`], anything
    /// else [`Parallelism::fixed`].
    pub fn from_threads(n: usize) -> Self {
        if n == 0 {
            Parallelism::auto()
        } else {
            Parallelism::fixed(n)
        }
    }

    /// The effective worker count this policy resolves to right now.
    pub fn threads(&self) -> usize {
        if self.requested == 0 {
            thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.requested
        }
    }

    /// Worker count actually used for a batch of `items` rows.
    ///
    /// [`Parallelism::auto`] resolves to a single (calling) thread for
    /// batches of fewer than 64 rows — small grids never pay for a
    /// spawn — while explicit `fixed` requests are honored up to
    /// [`MAX_WORKERS`]. Never exceeds `items` and never returns 0.
    pub fn effective_workers(&self, items: usize) -> usize {
        if self.requested == 0 && items < AUTO_SERIAL_CUTOFF {
            return 1;
        }
        self.threads().min(MAX_WORKERS).min(items.max(1))
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

/// Computes `f(0), f(1), …, f(n - 1)` with rows sharded across
/// [`Parallelism::effective_workers`] threads, returning results **in
/// index order**.
///
/// Rows are dealt out in contiguous chunks through a shared counter;
/// the calling thread works alongside its scoped helpers, and results
/// are reassembled by chunk index, so any fold over the returned
/// vector observes the same operand order at every thread count — the
/// determinism guarantee the δ quadrature builds on. Falls back to a
/// plain serial loop when one worker (or one item) remains, and under
/// [`Parallelism::auto`] for batches of fewer than 64 rows.
///
/// # Panics
///
/// A panic in `f` is re-raised on the calling thread once every helper
/// has finished.
pub fn map_rows<T, F>(n: usize, par: Parallelism, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = par.effective_workers(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(workers * CHUNKS_PER_WORKER).max(1);
    let n_chunks = n.div_ceil(chunk);
    let next = AtomicUsize::new(0);
    // Each participant returns the chunks it claimed, keyed by index.
    let work = || {
        let mut claimed = Vec::new();
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                return claimed;
            }
            let start = c * chunk;
            let end = (start + chunk).min(n);
            claimed.push((c, (start..end).map(&f).collect::<Vec<T>>()));
        }
    };
    cps_obs::count_by(cps_obs::Counter::PoolTasks, (workers - 1) as u64);
    let mut claimed = thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut claimed = work();
        for helper in helpers {
            claimed.extend(helper.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        claimed
    });
    // Every chunk index occurs once, so sorting restores row order.
    claimed.sort_unstable_by_key(|&(c, _)| c);
    let mut out = Vec::with_capacity(n);
    for (_, vals) in claimed {
        out.extend(vals);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_resolve_to_expected_counts() {
        assert_eq!(Parallelism::serial().threads(), 1);
        assert_eq!(Parallelism::fixed(3).threads(), 3);
        assert_eq!(Parallelism::fixed(0).threads(), 1);
        assert!(Parallelism::auto().threads() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::auto());
        assert_eq!(Parallelism::from_threads(0), Parallelism::auto());
        assert_eq!(Parallelism::from_threads(5), Parallelism::fixed(5));
    }

    #[test]
    fn auto_stays_serial_below_the_cutoff() {
        let auto = Parallelism::auto();
        assert_eq!(auto.effective_workers(0), 1);
        assert_eq!(auto.effective_workers(1), 1);
        assert_eq!(auto.effective_workers(AUTO_SERIAL_CUTOFF - 1), 1);
        // At or above the cutoff, auto scales with the hardware again.
        let at = auto.effective_workers(AUTO_SERIAL_CUTOFF);
        assert_eq!(at, auto.threads().min(AUTO_SERIAL_CUTOFF));
        // Explicit requests are honored even for tiny batches.
        assert_eq!(Parallelism::fixed(4).effective_workers(8), 4);
        assert_eq!(Parallelism::fixed(4).effective_workers(2), 2);
        assert_eq!(Parallelism::serial().effective_workers(1000), 1);
    }

    #[test]
    fn worker_counts_are_capped() {
        // Resolved without starting a thread: `map_rows` would start
        // `effective_workers − 1` helpers.
        let huge = Parallelism::fixed(10_000);
        assert_eq!(huge.threads(), 10_000);
        assert_eq!(huge.effective_workers(1_000_000), MAX_WORKERS);
        assert_eq!(huge.effective_workers(5), 5);
        let at_cap = Parallelism::fixed(MAX_WORKERS);
        assert_eq!(at_cap.effective_workers(1_000_000), MAX_WORKERS);
        let below = Parallelism::fixed(MAX_WORKERS - 1);
        assert_eq!(below.effective_workers(1_000_000), MAX_WORKERS - 1);
    }

    #[test]
    fn map_rows_reraises_a_row_panic_and_stays_usable() {
        let result = std::panic::catch_unwind(|| {
            map_rows(100, Parallelism::fixed(2), |i| {
                assert_ne!(i, 37, "boom");
                i
            })
        });
        let payload = result.expect_err("a row panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("assert_ne! panics with a formatted message");
        assert!(message.contains("boom"), "{message}");
        // Nothing is left behind: the next batch runs normally.
        let got = map_rows(100, Parallelism::fixed(2), |i| i + 1);
        assert_eq!(got, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn map_rows_preserves_index_order() {
        for par in [
            Parallelism::serial(),
            Parallelism::fixed(2),
            Parallelism::fixed(3),
            Parallelism::fixed(7),
            Parallelism::auto(),
        ] {
            let got = map_rows(23, par, |i| i * i);
            let want: Vec<usize> = (0..23).map(|i| i * i).collect();
            assert_eq!(got, want, "with {par:?}");
        }
    }

    #[test]
    fn map_rows_handles_edge_sizes() {
        assert!(map_rows(0, Parallelism::fixed(4), |i| i).is_empty());
        assert_eq!(map_rows(1, Parallelism::fixed(4), |i| i + 10), vec![10]);
        // More workers than items.
        assert_eq!(map_rows(3, Parallelism::fixed(16), |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn map_rows_folds_bit_identically_across_thread_counts() {
        // A deliberately ill-conditioned per-row value: summing it in a
        // different order would change the result's last bits.
        let row = |j: usize| ((j as f64) * 0.1).sin() * 1e10 + 1.0 / (j as f64 + 1.0);
        let fold = |par: Parallelism| -> f64 { map_rows(97, par, row).iter().sum() };
        let reference = fold(Parallelism::serial());
        for threads in [2, 3, 4, 8] {
            let got = fold(Parallelism::fixed(threads));
            assert_eq!(got.to_bits(), reference.to_bits(), "{threads} threads");
        }
    }
}
