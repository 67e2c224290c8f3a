//! Numeric kernels for the `proxim` suite.
//!
//! This crate hosts the small, dependency-free numerical building blocks the
//! rest of the workspace is built on:
//!
//! - [`linalg`] — dense matrices and LU factorization with partial pivoting,
//!   sized for the modified-nodal-analysis systems of small transistor
//!   circuits (tens of unknowns).
//! - [`interp`] — 1-D, 2-D and 3-D interpolation tables with clamped
//!   evaluation, used for the characterized delay/transition-time macromodels.
//! - [`rootfind`] — bracketing root finders (bisection and Brent), used to
//!   pinpoint threshold crossings and unity-gain points on voltage-transfer
//!   curves.
//! - [`pwl`] — piecewise-linear waveforms: the lingua franca between the
//!   circuit simulator, the measurement layer, and the macromodels.
//! - [`stats`] — summary statistics and histograms for the experimental
//!   validation (Table 5-1 / Figure 5-1 of the paper).
//! - [`grid`] — linearly and logarithmically spaced sample grids for
//!   characterization sweeps.
//!
//! # Example
//!
//! ```
//! use proxim_numeric::pwl::Pwl;
//!
//! // A rising ramp from 0 V to 5 V between t = 1 ns and t = 2 ns.
//! let ramp = Pwl::ramp(1e-9, 1e-9, 0.0, 5.0);
//! let t_half = ramp.first_rising_crossing(2.5).expect("ramp crosses 2.5 V");
//! assert!((t_half - 1.5e-9).abs() < 1e-15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit;
pub mod grid;
pub mod interp;
pub mod linalg;
pub mod pwl;
pub mod rootfind;
pub mod stats;

pub use interp::{GridTable, Table1d, Table2d, Table3d};
pub use linalg::{LuFactors, Matrix, SparsityPattern, SymbolicLu};
pub use pwl::Pwl;
pub use stats::{Histogram, Summary};
