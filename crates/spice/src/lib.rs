//! A from-scratch transistor-level circuit simulator.
//!
//! The paper this workspace reproduces (Chandramouli & Sakallah, DAC 1996)
//! characterizes and validates its delay macromodels against HSPICE. No SPICE
//! engine is available here, so this crate provides the substrate: a compact
//! modified-nodal-analysis (MNA) simulator with
//!
//! - Level-1 (Shichman–Hodges) MOSFETs with body effect and channel-length
//!   modulation ([`device`]),
//! - resistors, capacitors, and DC/PWL voltage sources ([`circuit`]),
//! - Newton–Raphson DC operating point with gmin and source stepping
//!   ([`op`]),
//! - DC sweeps with solution continuation, used for voltage-transfer-curve
//!   extraction ([`sweep`]),
//! - trapezoidal/backward-Euler transient analysis with adaptive
//!   voltage-limited time stepping and PWL-source breakpoints, optionally
//!   ended early by a measurement-driven [`StopRule`] ([`tran`]).
//!
//! The circuits of interest are standard cells — a handful of transistors —
//! so the solver uses dense LU throughout.
//!
//! # Example: RC low-pass step response
//!
//! ```
//! use proxim_spice::circuit::{Circuit, Waveform};
//! use proxim_spice::tran::TranOptions;
//!
//! # fn main() -> Result<(), proxim_spice::AnalysisError> {
//! let mut ckt = Circuit::new();
//! let inp = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.vsource("VIN", inp, Circuit::GND, Waveform::step(0.0, 1e-9, 1.0));
//! ckt.resistor("R1", inp, out, 1e3);
//! ckt.capacitor("C1", out, Circuit::GND, 1e-12);
//!
//! let result = ckt.tran(&TranOptions::to(10e-9))?;
//! let v_end = result.waveform(out).eval(10e-9);
//! assert!((v_end - 1.0).abs() < 1e-3); // settled to the step value
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cancel;
pub mod circuit;
pub mod device;
pub mod faultpoint;
pub mod op;
pub mod recover;
pub mod solver;
pub mod sweep;
pub mod tran;

pub use cancel::CancelToken;
pub use circuit::{Circuit, NodeId, Waveform};
pub use device::{MosParams, MosType};
pub use faultpoint::FaultConfig;
pub use op::OpResult;
pub use recover::{RecoveryPolicy, RecoveryTrace};
pub use solver::AnalysisError;
pub use sweep::DcSweepResult;
pub use tran::{StopRule, TranOptions, TranResult};
