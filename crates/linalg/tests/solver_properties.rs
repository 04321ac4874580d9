//! Property tests on the 3×3 solver behind the curvature quadric fit.

use cps_linalg::{solve_3x3, LinalgError};
use proptest::prelude::*;

/// Random well-conditioned 3×3 systems: diagonally dominant matrices are
/// never singular.
fn dominant_system() -> impl Strategy<Value = ([[f64; 3]; 3], [f64; 3])> {
    (
        prop::collection::vec(-1.0f64..1.0, 9),
        prop::collection::vec(-10.0f64..10.0, 3),
    )
        .prop_map(|(entries, b)| {
            let mut m = [[0.0; 3]; 3];
            for i in 0..3 {
                for j in 0..3 {
                    m[i][j] = entries[i * 3 + j];
                }
                // Make row i dominant.
                let row_sum: f64 = (0..3).filter(|&j| j != i).map(|j| m[i][j].abs()).sum();
                m[i][i] = row_sum + 1.0;
            }
            (m, [b[0], b[1], b[2]])
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cramer's rule solves every diagonally dominant system with a
    /// small residual.
    #[test]
    fn solve_3x3_residual_is_small((m, b) in dominant_system()) {
        let x = solve_3x3(&m, &b).unwrap();
        for (row, bi) in m.iter().zip(&b) {
            let ax: f64 = row.iter().zip(&x).map(|(a, xi)| a * xi).sum();
            prop_assert!((ax - bi).abs() < 1e-8, "{ax} vs {bi}");
        }
    }

    /// A matrix with two proportional rows is singular.
    #[test]
    fn solve_3x3_rejects_proportional_rows(
        (m, b) in dominant_system(),
        scale in -4.0f64..4.0,
        (src, offset) in (0usize..3, 1usize..3),
    ) {
        let dst = (src + offset) % 3;
        let mut m = m;
        m[dst] = m[src].map(|v| v * scale);
        prop_assert_eq!(solve_3x3(&m, &b), Err(LinalgError::Singular));
    }
}
