//! Process technology description.

use proxim_obs::json::{FromJson, ToJson};
use proxim_spice::device::MosParams;

/// A CMOS process plus operating supply: everything a [`crate::Cell`] needs
/// to elaborate into transistors.
///
/// The demo technology is a representative 0.8 µm, 5 V process in the spirit
/// of the MOSIS runs contemporary with the paper. Absolute delays differ
/// from the paper's HSPICE setup (whose transistor sizes are not given in
/// the available text); the reproduction targets shapes, orderings and
/// relative errors, which are technology-robust.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct Technology {
    /// Human-readable name.
    pub name: String,
    /// Supply voltage, in volts.
    pub vdd: f64,
    /// NMOS Level-1 parameters.
    pub nmos: MosParams,
    /// PMOS Level-1 parameters.
    pub pmos: MosParams,
    /// NMOS channel length, in meters.
    pub ln: f64,
    /// PMOS channel length, in meters.
    pub lp: f64,
    /// Gate-oxide capacitance per area, in F/m².
    pub cox: f64,
    /// Junction (diffusion) capacitance per transistor width, in F/m.
    pub cj_per_width: f64,
}

impl Technology {
    /// The representative 0.8 µm / 5 V demo process used throughout the
    /// reproduction.
    pub fn demo_5v() -> Self {
        Self {
            name: "demo-0.8um-5v".to_string(),
            vdd: 5.0,
            nmos: MosParams {
                vt0: 0.75,
                kp: 50e-6,
                gamma: 0.40,
                phi: 0.60,
                lambda: 0.03,
            },
            pmos: MosParams {
                vt0: 0.85,
                kp: 17e-6,
                gamma: 0.50,
                phi: 0.60,
                lambda: 0.04,
            },
            ln: 0.8e-6,
            lp: 0.8e-6,
            cox: 1.73e-3,
            cj_per_width: 0.8e-9,
        }
    }

    /// A faster, lower-voltage variant (3.3 V, shorter channel) used to show
    /// the macromodel generalizes across technologies.
    pub fn demo_3v3() -> Self {
        Self {
            name: "demo-0.5um-3.3v".to_string(),
            vdd: 3.3,
            nmos: MosParams {
                vt0: 0.60,
                kp: 90e-6,
                gamma: 0.35,
                phi: 0.65,
                lambda: 0.05,
            },
            pmos: MosParams {
                vt0: 0.70,
                kp: 30e-6,
                gamma: 0.45,
                phi: 0.65,
                lambda: 0.06,
            },
            ln: 0.5e-6,
            lp: 0.5e-6,
            cox: 2.5e-3,
            cj_per_width: 0.6e-9,
        }
    }

    /// A complementary-GaAs-class technology, the paper's stated future
    /// target ("we also plan to use this technique for the CGaAs
    /// technology", §7, citing Abrokwah et al.). Parameters approximate a
    /// mid-90s CGaAs process in the Level-1 frame: low supply, low
    /// thresholds, high electron mobility, weak p-channel. The point is not
    /// device-physics fidelity (CGaAs HIGFETs are not square-law silicon
    /// MOSFETs) but that the entire characterization/model flow is
    /// technology-agnostic, which this surrogate exercises.
    pub fn cgaas_like() -> Self {
        Self {
            name: "cgaas-like-1.5v".to_string(),
            vdd: 1.5,
            nmos: MosParams {
                vt0: 0.24,
                kp: 220e-6,
                gamma: 0.20,
                phi: 0.70,
                lambda: 0.06,
            },
            pmos: MosParams {
                vt0: 0.28,
                kp: 28e-6,
                gamma: 0.25,
                phi: 0.70,
                lambda: 0.08,
            },
            ln: 0.7e-6,
            lp: 0.7e-6,
            cox: 1.2e-3,
            cj_per_width: 0.4e-9,
        }
    }

    /// The paper's transistor strength `K = (1/2) mu Cox (W/L)` for an NMOS
    /// of width `w`, in A/V². Used in the dimensionless load argument
    /// `C_L / (K_n V_dd tau)` of eqs. (3.7)/(3.8).
    pub fn k_n(&self, w: f64) -> f64 {
        0.5 * self.nmos.kp * w / self.ln
    }

    /// The strength of a PMOS of width `w`, in A/V².
    pub fn k_p(&self, w: f64) -> f64 {
        0.5 * self.pmos.kp * w / self.lp
    }

    /// Gate capacitance of one transistor pair (NMOS width `wn`, PMOS width
    /// `wp`), in farads. Used as the input pin load in gate-level timing.
    pub fn gate_cap(&self, wn: f64, wp: f64) -> f64 {
        self.cox * (wn * self.ln + wp * self.lp)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn demo_5v_is_sane() {
        let t = Technology::demo_5v();
        assert_eq!(t.vdd, 5.0);
        t.nmos.validate();
        t.pmos.validate();
        assert!(
            t.nmos.kp > t.pmos.kp,
            "electron mobility exceeds hole mobility"
        );
    }

    #[test]
    fn strength_scales_with_width() {
        let t = Technology::demo_5v();
        assert!((t.k_n(8e-6) / t.k_n(4e-6) - 2.0).abs() < 1e-12);
        assert!(t.k_n(4e-6) > t.k_p(4e-6));
    }

    #[test]
    fn gate_cap_is_positive_and_additive() {
        let t = Technology::demo_5v();
        let c = t.gate_cap(4e-6, 8e-6);
        assert!(c > 0.0);
        assert!((c - t.gate_cap(4e-6, 0.0) - t.gate_cap(0.0, 8e-6)).abs() < 1e-20);
        // Order of magnitude: a few fF for micron-scale devices.
        assert!(c > 1e-15 && c < 1e-13, "gate cap {c}");
    }

    #[test]
    fn k_n_magnitude() {
        let t = Technology::demo_5v();
        // K_n for a 4um/0.8um device: 0.5 * 50u * 5 = 125 uA/V^2.
        assert!((t.k_n(4e-6) - 125e-6).abs() < 1e-9);
    }
}
