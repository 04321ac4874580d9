//! Small linear-algebra substrate for the CPS distribution workspace.
//!
//! The reproduced paper needs only a handful of numerical kernels: 2-D
//! vector arithmetic for force accumulation and geometry, a symmetric 2×2
//! eigen-solver, summary statistics, and the closed-form 3×3 solve behind
//! the local quadric fit that yields Gaussian curvature (Eqn. 11 of the
//! paper). The surrounding Rust ecosystem for scientific computing is
//! intentionally not used; this crate is self-contained and
//! dependency-free.
//!
//! # Example
//!
//! Fit `a·x² + b·xy + c·y² = z` over sensed samples through its normal
//! equations, exactly as a CPS node does:
//!
//! ```
//! use cps_linalg::solve_3x3;
//!
//! // Samples of z = 2x² + 0·xy + 1·y² (so a=2, b=0, c=1).
//! let pts = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0)];
//! let mut ata = [[0.0; 3]; 3];
//! let mut atz = [0.0; 3];
//! for &(x, y) in &pts {
//!     let row = [x * x, x * y, y * y];
//!     let z = 2.0 * x * x + y * y;
//!     for i in 0..3 {
//!         for j in 0..3 {
//!             ata[i][j] += row[i] * row[j];
//!         }
//!         atz[i] += row[i] * z;
//!     }
//! }
//! let coef = solve_3x3(&ata, &atz).unwrap();
//! assert!((coef[0] - 2.0).abs() < 1e-9);
//! assert!(coef[1].abs() < 1e-9);
//! assert!((coef[2] - 1.0).abs() < 1e-9);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod mat2;
mod solve;
mod stats;
mod vector;

pub use error::LinalgError;
pub use mat2::SymMat2;
pub use solve::solve_3x3;
pub use stats::{mean, Summary};
pub use vector::Vec2;
