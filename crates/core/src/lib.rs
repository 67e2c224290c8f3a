//! Temporal-proximity delay and transition-time macromodels for multi-input
//! gates — the primary contribution of Chandramouli & Sakallah (DAC 1996).
//!
//! When several inputs of a gate switch in close temporal proximity, the
//! gate's propagation delay and output transition time deviate strongly from
//! the single-switching-input values that conventional timing models assume.
//! This crate implements the paper's full modeling stack:
//!
//! - [`thresholds`] (§2): extraction of the `2^n - 1` voltage-transfer
//!   curves of an n-input gate and the min-`V_il` / max-`V_ih` threshold
//!   policy that guarantees positive delays for every input scenario.
//! - [`measure`]: threshold-based delay and transition-time measurement on
//!   simulated waveforms.
//! - [`single`] (§3, eqs. 3.7/3.8): normalized single-input macromodels
//!   `Δ⁽¹⁾/τ = D⁽¹⁾(C_L / (K V_dd τ))`.
//! - [`dual`] (§3, eqs. 3.11/3.12): the three-argument dual-input proximity
//!   macromodels `Δ⁽²⁾/Δ⁽¹⁾ = D⁽²⁾(τ_i/Δ⁽¹⁾, τ_j/Δ⁽¹⁾, s_ij/Δ⁽¹⁾)`.
//! - [`dominance`] (§3): identification of the dominant input — the input
//!   whose single-input output crossing would occur first.
//! - [`algorithm`] (§4, Fig. 4-1): the `ProximityDelay` composition that
//!   folds inputs into an equivalent waveform two at a time, plus the
//!   simultaneous-step correction term.
//! - [`glitch`] (§6): the output-extremum macromodel connecting inertial
//!   delay to the proximity effect.
//! - [`baseline`]: the prior-art comparators — classic single-input-switching
//!   timing and series/parallel collapse to an equivalent inverter.
//! - [`characterize`]: the drivers that build every table by running the
//!   [`proxim_spice`] simulator, mirroring the paper's use of HSPICE.
//! - [`jobs`]: the enumerate → execute → assemble pipeline that fans the
//!   independent characterization transients across worker threads while
//!   keeping the assembled model byte-identical to a sequential run.
//! - [`model`]: [`model::ProximityModel`], the characterized bundle with the
//!   user-facing query API.
//! - [`checkpoint`]: cooperative cancellation/deadlines and the
//!   crash-consistent checkpoint journal that lets an interrupted
//!   characterization resume to a byte-identical model.
//! - [`audit`]: the post-assembly physics-invariant audit (§2 positivity,
//!   §3 asymptotes, monotonicity, outlier detection) and the bounded
//!   self-repair pass that re-simulates suspect grid points or demotes
//!   unrepairable slices to degraded provenance.
//! - [`persist`] and [`store`]: the model's JSON codec, the checksummed
//!   `.pxm` container every stored model lives in, the crash-consistent
//!   [`store::atomic_write`], and the content-addressed characterization
//!   cache ([`persist::ModelCache`]) built on that store.
//!
//! # Example
//!
//! ```no_run
//! use proxim_cells::{Cell, Technology};
//! use proxim_model::characterize::CharacterizeOptions;
//! use proxim_model::model::ProximityModel;
//! use proxim_model::InputEvent;
//! use proxim_numeric::pwl::Edge;
//!
//! # fn main() -> Result<(), proxim_model::ModelError> {
//! let tech = Technology::demo_5v();
//! let cell = Cell::nand(3);
//! let model = ProximityModel::characterize(&cell, &tech, &CharacterizeOptions::default())?;
//!
//! // Three rising inputs arriving 100 ps apart with 500 ps transition times.
//! let events = vec![
//!     InputEvent::new(0, Edge::Rising, 0.0, 500e-12),
//!     InputEvent::new(1, Edge::Rising, 100e-12, 500e-12),
//!     InputEvent::new(2, Edge::Rising, 200e-12, 500e-12),
//! ];
//! let timing = model.gate_timing(&events)?;
//! println!("delay = {:.1} ps", timing.delay * 1e12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod algorithm;
pub mod analytic;
pub mod audit;
pub mod baseline;
pub mod calibrate;
pub mod characterize;
pub mod checkpoint;
pub mod dominance;
pub mod dual;
pub mod error;
pub mod glitch;
pub mod jobs;
pub mod measure;
pub mod model;
pub mod nldm;
pub mod persist;
pub mod single;
pub mod store;
pub mod thresholds;
pub mod validate;

pub use audit::{AuditCheck, AuditFinding, AuditOptions, AuditReport, RepairOutcome, TableRole};
pub use checkpoint::{CheckpointConfig, CheckpointJournal, RunControl};
pub use error::ModelError;
pub use measure::InputEvent;
pub use model::{DegradedReason, DegradedSlice, GateTiming, ProximityModel, SliceKind};
pub use thresholds::{Thresholds, VtcCurve, VtcFamily};
