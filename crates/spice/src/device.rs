//! Level-1 (Shichman–Hodges) MOSFET model.
//!
//! The model includes the body effect (`gamma`, `phi`) and channel-length
//! modulation (`lambda`). Channel-length modulation is applied in both the
//! triode and saturation regions so the drain current is continuous at the
//! region boundary. Drain/source are treated symmetrically: for `vds < 0`
//! the terminals are swapped internally, as in SPICE.

use proxim_obs::json::{FromJson, ToJson};

/// MOSFET polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosType {
    /// n-channel device (conducts for gate high).
    Nmos,
    /// p-channel device (conducts for gate low).
    Pmos,
}

/// Level-1 model parameters for one device polarity.
///
/// Conventions follow SPICE: `vt0` is the zero-bias threshold (positive for
/// NMOS; stored positive for PMOS as well and applied in the normalized
/// frame), `kp` is the transconductance parameter `mu * Cox` in A/V².
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct MosParams {
    /// Zero-bias threshold voltage magnitude, in volts.
    pub vt0: f64,
    /// Process transconductance `mu * Cox`, in A/V².
    pub kp: f64,
    /// Body-effect coefficient, in V^0.5.
    pub gamma: f64,
    /// Surface potential `2*phi_F`, in volts.
    pub phi: f64,
    /// Channel-length modulation, in 1/V.
    pub lambda: f64,
}

impl MosParams {
    /// Validates the parameter set.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-finite, `kp <= 0`, or `phi <= 0`.
    pub fn validate(&self) {
        assert!(
            [self.vt0, self.kp, self.gamma, self.phi, self.lambda]
                .iter()
                .all(|v| v.is_finite()),
            "MOS parameters must be finite"
        );
        assert!(self.kp > 0.0, "kp must be positive");
        assert!(self.phi > 0.0, "phi must be positive");
        assert!(self.gamma >= 0.0, "gamma must be non-negative");
        assert!(self.lambda >= 0.0, "lambda must be non-negative");
    }
}

/// The drain current and its partial derivatives in the normalized
/// (NMOS-like, `vds >= 0`) frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosEval {
    /// Drain current, flowing into the drain and out of the source, in A.
    pub id: f64,
    /// `d id / d vgs`.
    pub gm: f64,
    /// `d id / d vds`.
    pub gds: f64,
    /// `d id / d vbs`.
    pub gmbs: f64,
}

/// Evaluates the Level-1 equations for a normalized device with `vds >= 0`.
///
/// `beta = kp * w / l` and `sqrt_phi = sqrt(p.phi)` must be precomputed by
/// the caller.
fn level1_normalized(
    p: &MosParams,
    sqrt_phi: f64,
    beta: f64,
    vgs: f64,
    vds: f64,
    vbs: f64,
) -> MosEval {
    debug_assert!(vds >= 0.0);
    // Body effect: vt = vt0 + gamma (sqrt(phi - vbs) - sqrt(phi)).
    // Clamp the argument for strong forward body bias.
    let arg = (p.phi - vbs).max(1e-9);
    let sqrt_arg = arg.sqrt();
    let vt = p.vt0 + p.gamma * (sqrt_arg - sqrt_phi);
    let dvt_dvbs = -p.gamma / (2.0 * sqrt_arg);

    let vgst = vgs - vt;
    if vgst <= 0.0 {
        // Cutoff: no channel current. gmin in the solver keeps the matrix
        // nonsingular.
        return MosEval::default();
    }

    let clm = 1.0 + p.lambda * vds;
    let (id, gm, gds) = if vds < vgst {
        // Triode. lambda is applied here too so the current and its vds
        // derivative are continuous at vds = vgst.
        let core = beta * (vgst - 0.5 * vds) * vds;
        let id = core * clm;
        let gm = beta * vds * clm;
        let gds = beta * (vgst - vds) * clm + core * p.lambda;
        (id, gm, gds)
    } else {
        // Saturation.
        let core = 0.5 * beta * vgst * vgst;
        let id = core * clm;
        let gm = beta * vgst * clm;
        let gds = core * p.lambda;
        (id, gm, gds)
    };
    // gmbs = d id / d vbs = (d id / d vt)(d vt / d vbs) = (-gm)(dvt_dvbs).
    let gmbs = -gm * dvt_dvbs;
    MosEval { id, gm, gds, gmbs }
}

/// The four-terminal linearization of a MOSFET instance at a bias point:
/// the current into the drain terminal and its derivatives with respect to
/// the (normalized-frame) node voltages of drain, gate, source and bulk.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosStamp {
    /// Current into the drain terminal in the normalized frame, in A.
    pub i_d: f64,
    /// `d i_d / d v_drain`.
    pub g_d: f64,
    /// `d i_d / d v_gate`.
    pub g_g: f64,
    /// `d i_d / d v_source`.
    pub g_s: f64,
    /// `d i_d / d v_bulk`.
    pub g_b: f64,
}

/// Evaluates a device instance at absolute terminal voltages.
///
/// Polarity is handled by evaluating PMOS in a sign-flipped frame; because
/// conductances are second-order in the sign they stamp identically, and the
/// current picks up the sign. Drain/source swap for `vds < 0` is handled
/// here as well.
///
/// Returns the current into the **actual drain terminal** (`stamp.i_d` is
/// already in the actual frame; the source receives `-i_d`; gate and bulk
/// carry no DC current) along with the conductance stamps.
pub fn eval_mosfet(
    mos_type: MosType,
    p: &MosParams,
    beta: f64,
    vd: f64,
    vg: f64,
    vs: f64,
    vb: f64,
) -> MosStamp {
    MosInstance::new(mos_type, *p, beta).eval(vd, vg, vs, vb)
}

/// A device instance with its bias-independent constants folded once: the
/// polarity sign, `beta = kp * w / l` and `sqrt(phi)`. The simulator builds
/// one per MOSFET when it compiles a circuit, so the Newton loop evaluates
/// [`Self::eval`] without recomputing them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MosInstance {
    sign: f64,
    params: MosParams,
    beta: f64,
    sqrt_phi: f64,
}

impl MosInstance {
    pub(crate) fn new(mos_type: MosType, params: MosParams, beta: f64) -> Self {
        let sign = match mos_type {
            MosType::Nmos => 1.0,
            MosType::Pmos => -1.0,
        };
        Self {
            sign,
            params,
            beta,
            sqrt_phi: params.phi.sqrt(),
        }
    }

    /// [`eval_mosfet`] for this instance.
    #[inline]
    pub(crate) fn eval(&self, vd: f64, vg: f64, vs: f64, vb: f64) -> MosStamp {
        let (p, sign) = (&self.params, self.sign);
        // Normalized node voltages (NMOS-like frame).
        let (nvd, nvg, nvs, nvb) = (sign * vd, sign * vg, sign * vs, sign * vb);
        let vds = nvd - nvs;

        let (i_dn, g_d, g_g, g_s, g_b) = if vds >= 0.0 {
            let e = level1_normalized(p, self.sqrt_phi, self.beta, nvg - nvs, vds, nvb - nvs);
            (e.id, e.gds, e.gm, -(e.gm + e.gds + e.gmbs), e.gmbs)
        } else {
            // Swap drain and source: the device conducts with `s` acting as
            // drain. i' flows into s and out of d, so i_d = -i'.
            let e = level1_normalized(p, self.sqrt_phi, self.beta, nvg - nvd, nvs - nvd, nvb - nvd);
            (-e.id, e.gm + e.gds + e.gmbs, -e.gm, -e.gds, -e.gmbs)
        };
        MosStamp {
            // Current back in the actual frame; conductances are
            // sign-invariant.
            i_d: sign * i_dn,
            g_d,
            g_g,
            g_s,
            g_b,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    const P: MosParams = MosParams {
        vt0: 0.75,
        kp: 50e-6,
        gamma: 0.4,
        phi: 0.6,
        lambda: 0.03,
    };
    const BETA: f64 = 50e-6 * 5.0; // w/l = 5

    fn l1(vgs: f64, vds: f64, vbs: f64) -> MosEval {
        level1_normalized(&P, P.phi.sqrt(), BETA, vgs, vds, vbs)
    }

    #[test]
    fn cutoff_has_zero_current() {
        let e = l1(0.5, 2.0, 0.0);
        assert_eq!(e.id, 0.0);
        assert_eq!(e.gm, 0.0);
    }

    #[test]
    fn saturation_current_matches_formula() {
        let (vgs, vds) = (2.0, 4.0);
        let e = l1(vgs, vds, 0.0);
        let vgst = vgs - P.vt0;
        let expect = 0.5 * BETA * vgst * vgst * (1.0 + P.lambda * vds);
        assert!((e.id - expect).abs() < 1e-15);
    }

    #[test]
    fn triode_current_matches_formula() {
        let (vgs, vds) = (3.0, 0.5);
        let e = l1(vgs, vds, 0.0);
        let vgst = vgs - P.vt0;
        let expect = BETA * (vgst - 0.5 * vds) * vds * (1.0 + P.lambda * vds);
        assert!((e.id - expect).abs() < 1e-15);
    }

    #[test]
    fn current_and_gds_continuous_at_region_boundary() {
        let vgs = 2.0;
        let vgst = vgs - P.vt0;
        let lo = l1(vgs, vgst - 1e-9, 0.0);
        let hi = l1(vgs, vgst + 1e-9, 0.0);
        assert!((lo.id - hi.id).abs() < 1e-12);
        assert!((lo.gds - hi.gds).abs() < 1e-9);
    }

    #[test]
    fn body_effect_raises_threshold() {
        // Same vgs, source raised above bulk (vbs < 0) -> less current.
        let e0 = l1(1.5, 3.0, 0.0);
        let e1 = l1(1.5, 3.0, -2.0);
        assert!(e1.id < e0.id);
        assert!(e1.id > 0.0);
    }

    fn fd_check(vgs: f64, vds: f64, vbs: f64) {
        let h = 1e-7;
        let e = l1(vgs, vds, vbs);
        let dgm = (l1(vgs + h, vds, vbs).id - l1(vgs - h, vds, vbs).id) / (2.0 * h);
        let dgds = (l1(vgs, vds + h, vbs).id - l1(vgs, vds - h, vbs).id) / (2.0 * h);
        let dgmbs = (l1(vgs, vds, vbs + h).id - l1(vgs, vds, vbs - h).id) / (2.0 * h);
        let tol = 1e-6 * BETA.max(1e-9);
        assert!((e.gm - dgm).abs() < tol, "gm {} vs fd {}", e.gm, dgm);
        assert!((e.gds - dgds).abs() < tol, "gds {} vs fd {}", e.gds, dgds);
        assert!(
            (e.gmbs - dgmbs).abs() < tol,
            "gmbs {} vs fd {}",
            e.gmbs,
            dgmbs
        );
    }

    #[test]
    fn derivatives_match_finite_differences_saturation() {
        fd_check(2.0, 4.0, -1.0);
    }

    #[test]
    fn derivatives_match_finite_differences_triode() {
        fd_check(3.5, 0.8, -0.5);
    }

    #[test]
    fn nmos_stamp_matches_normalized_eval() {
        let s = eval_mosfet(MosType::Nmos, &P, BETA, 4.0, 2.0, 0.0, 0.0);
        let e = l1(2.0, 4.0, 0.0);
        assert_eq!(s.i_d, e.id);
        assert_eq!(s.g_g, e.gm);
        assert_eq!(s.g_d, e.gds);
    }

    #[test]
    fn stamp_jacobian_matches_finite_difference_all_terminals() {
        let h = 1e-7;
        for &(ty, vd, vg, vs, vb) in &[
            (MosType::Nmos, 3.0, 2.5, 0.5, 0.0),
            (MosType::Nmos, 0.5, 2.5, 3.0, 0.0), // swapped (vds < 0)
            (MosType::Pmos, 1.0, 2.0, 5.0, 5.0),
            (MosType::Pmos, 5.0, 2.0, 1.0, 5.0), // swapped PMOS
        ] {
            let f =
                |vd: f64, vg: f64, vs: f64, vb: f64| eval_mosfet(ty, &P, BETA, vd, vg, vs, vb).i_d;
            let s = eval_mosfet(ty, &P, BETA, vd, vg, vs, vb);
            let gd = (f(vd + h, vg, vs, vb) - f(vd - h, vg, vs, vb)) / (2.0 * h);
            let gg = (f(vd, vg + h, vs, vb) - f(vd, vg - h, vs, vb)) / (2.0 * h);
            let gs = (f(vd, vg, vs + h, vb) - f(vd, vg, vs - h, vb)) / (2.0 * h);
            let gb = (f(vd, vg, vs, vb + h) - f(vd, vg, vs, vb - h)) / (2.0 * h);
            let tol = 1e-5 * BETA;
            assert!((s.g_d - gd).abs() < tol, "{ty:?} g_d {} vs {}", s.g_d, gd);
            assert!((s.g_g - gg).abs() < tol, "{ty:?} g_g {} vs {}", s.g_g, gg);
            assert!((s.g_s - gs).abs() < tol, "{ty:?} g_s {} vs {}", s.g_s, gs);
            assert!((s.g_b - gb).abs() < tol, "{ty:?} g_b {} vs {}", s.g_b, gb);
        }
    }

    #[test]
    fn drain_source_symmetry() {
        // Swapping drain and source negates the drain current.
        let a = eval_mosfet(MosType::Nmos, &P, BETA, 1.0, 3.0, 0.2, 0.0);
        let b = eval_mosfet(MosType::Nmos, &P, BETA, 0.2, 3.0, 1.0, 0.0);
        assert!((a.i_d + b.i_d).abs() < 1e-15);
    }

    #[test]
    fn pmos_mirrors_nmos() {
        // A PMOS with source at 5 V, gate at 2 V, drain at 1 V conducts with
        // the same magnitude as the mirrored NMOS.
        let p = eval_mosfet(MosType::Pmos, &P, BETA, 1.0, 2.0, 5.0, 5.0);
        let n = eval_mosfet(MosType::Nmos, &P, BETA, 4.0, 3.0, 0.0, 0.0);
        assert!((p.i_d + n.i_d).abs() < 1e-15, "p {} n {}", p.i_d, n.i_d);
        // Current flows out of the PMOS drain terminal (charging the load).
        assert!(p.i_d < 0.0);
    }

    #[test]
    fn params_validate_rejects_bad_values() {
        let mut p = P;
        p.kp = 0.0;
        let r = std::panic::catch_unwind(|| p.validate());
        assert!(r.is_err());
        P.validate(); // the reference set is fine
    }
}
