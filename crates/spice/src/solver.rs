//! Shared Newton–Raphson machinery: residual/Jacobian assembly over the MNA
//! unknown vector, and the damped Newton iteration used by every analysis.
//!
//! The unknown vector is `x = [v_1 .. v_{N-1}, i_1 .. i_M]`: the non-ground
//! node voltages followed by the branch currents of the `M` voltage sources.
//! Assembly builds the KCL residual `f(x)` (net current leaving each node,
//! plus one voltage-constraint row per source) and its Jacobian, and Newton
//! iterates `x += clamp(-J^{-1} f)`.

use crate::cancel::CancelToken;
use crate::circuit::{Circuit, Element};
use crate::device::eval_mosfet;
use crate::recover::RecoveryTrace;
use proxim_numeric::linalg::{LuFactors, Matrix, SparsityPattern, SymbolicLu};
use std::fmt;

/// The error returned when an analysis fails.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// Newton–Raphson did not converge.
    NoConvergence {
        /// Which analysis failed ("dc operating point", "transient step", ...).
        analysis: String,
        /// Additional context (time point, sweep value, ...).
        detail: String,
    },
    /// The linearized system was singular.
    Singular {
        /// Which analysis failed.
        analysis: String,
    },
    /// The analysis was deliberately stopped before completing — e.g. the
    /// transient watchdog exhausted its solve budget, or a characterization
    /// worker died and its jobs were abandoned. Unlike [`Self::NoConvergence`]
    /// this is terminal: retrying with gentler settings is pointless.
    Aborted {
        /// Which analysis was stopped.
        analysis: String,
        /// Why it was stopped.
        detail: String,
    },
    /// The analysis was cancelled through a [`CancelToken`] — e.g. by a
    /// signal handler or a supervising process. Cooperative and clean: the
    /// solver unwinds at the next step or iteration boundary, so no partial
    /// artifact is ever produced. Terminal by design; the work was not
    /// wanted, so nothing retries it.
    Cancelled {
        /// Which analysis was cancelled.
        analysis: String,
        /// Context on where the cancellation was observed.
        detail: String,
    },
    /// The analysis ran past the wall-clock deadline on its [`CancelToken`].
    /// Unlike [`Self::Aborted`] (solve-count watchdog) this is a real-time
    /// bound, and it carries the recovery ladder's trace so a run that
    /// burned its budget inside recovery rungs reports *where* the time
    /// went instead of a bare timeout.
    DeadlineExceeded {
        /// Which analysis timed out.
        analysis: String,
        /// Context: by how much the deadline was missed.
        detail: String,
        /// Everything the recovery ladder did before time ran out. Boxed to
        /// keep the error small on the happy path.
        recovery: Box<RecoveryTrace>,
    },
}

impl AnalysisError {
    /// Whether this error is a cooperative stop ([`Self::Cancelled`] or
    /// [`Self::DeadlineExceeded`]) rather than a solver failure. Callers
    /// that degrade gracefully on solver failures must *not* degrade on
    /// cancellation — the run was stopped on purpose and its absence is not
    /// a property of the circuit.
    pub fn is_cancellation(&self) -> bool {
        matches!(self, Self::Cancelled { .. } | Self::DeadlineExceeded { .. })
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoConvergence { analysis, detail } => {
                write!(f, "{analysis} failed to converge ({detail})")
            }
            Self::Singular { analysis } => {
                write!(f, "{analysis} produced a singular system")
            }
            Self::Aborted { analysis, detail } => {
                write!(f, "{analysis} was aborted ({detail})")
            }
            Self::Cancelled { analysis, detail } => {
                write!(f, "{analysis} was cancelled ({detail})")
            }
            Self::DeadlineExceeded {
                analysis,
                detail,
                recovery,
            } => {
                write!(
                    f,
                    "{analysis} exceeded its deadline ({detail}; {} recovery attempts first)",
                    recovery.total()
                )
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// How capacitors contribute to the residual.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CapMode<'a> {
    /// DC: capacitors are open circuits.
    Dc,
    /// Transient with a companion model: `i = geq * (v - v_prev) + i_hist`.
    ///
    /// `hist` holds per-capacitor `(v_prev, i_prev)` in element order
    /// (entries for non-capacitor elements are unused).
    Tran {
        /// `geq` multiplier: `C / h` for backward Euler, `2C / h` for
        /// trapezoidal.
        geq_per_farad: f64,
        /// Weight of the previous capacitor current in the new current:
        /// 0 for backward Euler, -1 for trapezoidal... stored as the
        /// additive term coefficient: `i = geq dv + trap_coeff * i_prev`.
        trap_coeff: f64,
        /// Per-element `(v_prev, i_prev)` history.
        hist: &'a [(f64, f64)],
    },
}

/// Analysis context shared by assembly and the Newton driver.
pub(crate) struct System<'a> {
    pub ckt: &'a Circuit,
    /// Number of non-ground nodes.
    pub nv: usize,
    /// Total unknowns (`nv + n_vsources`).
    pub n: usize,
}

impl<'a> System<'a> {
    pub fn new(ckt: &'a Circuit) -> Self {
        let nv = ckt.node_count() - 1;
        Self {
            ckt,
            nv,
            n: nv + ckt.vsource_count(),
        }
    }

    /// Voltage of `node` under unknown vector `x` (ground = 0).
    #[inline]
    pub fn v(&self, x: &[f64], node: crate::circuit::NodeId) -> f64 {
        if node.index() == 0 {
            0.0
        } else {
            x[node.index() - 1]
        }
    }

    /// Row/column index for a node, or `None` for ground.
    #[inline]
    fn ni(&self, node: crate::circuit::NodeId) -> Option<usize> {
        if node.index() == 0 {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Assembles the residual `f` and Jacobian `jac` at `x`.
    ///
    /// `t` is the source evaluation time; `src_scale` scales all source
    /// values (used by source stepping); `gmin` is the conductance tied from
    /// every node to ground; `caps` selects the capacitor companion model.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        &self,
        x: &[f64],
        t: f64,
        src_scale: f64,
        gmin: f64,
        caps: CapMode<'_>,
        f: &mut [f64],
        jac: &mut Matrix,
    ) {
        f.fill(0.0);
        jac.clear();

        // gmin from every non-ground node to ground.
        for i in 0..self.nv {
            f[i] += gmin * x[i];
            jac.add(i, i, gmin);
        }

        for (ei, e) in self.ckt.elements.iter().enumerate() {
            match e {
                Element::Resistor { a, b, ohms } => {
                    let g = 1.0 / ohms;
                    let i = g * (self.v(x, *a) - self.v(x, *b));
                    self.stamp_conductance_pair(*a, *b, g, i, f, jac);
                }
                Element::Capacitor { a, b, farads } => match caps {
                    CapMode::Dc => {}
                    CapMode::Tran {
                        geq_per_farad,
                        trap_coeff,
                        hist,
                    } => {
                        let geq = geq_per_farad * farads;
                        let (v_prev, i_prev) = hist[ei];
                        let dv = self.v(x, *a) - self.v(x, *b);
                        let i = geq * (dv - v_prev) + trap_coeff * i_prev;
                        self.stamp_conductance_pair(*a, *b, geq, i, f, jac);
                    }
                },
                Element::ISource { plus, minus, wave } => {
                    let i = src_scale * wave.value_at(t);
                    if let Some(p) = self.ni(*plus) {
                        f[p] += i;
                    }
                    if let Some(m) = self.ni(*minus) {
                        f[m] -= i;
                    }
                }
                Element::VSource {
                    plus,
                    minus,
                    wave,
                    branch,
                } => {
                    let row = self.nv + branch;
                    let i_branch = x[row];
                    // Branch current leaves `plus`, enters `minus`.
                    if let Some(p) = self.ni(*plus) {
                        f[p] += i_branch;
                        jac.add(p, row, 1.0);
                        jac.add(row, p, 1.0);
                    }
                    if let Some(m) = self.ni(*minus) {
                        f[m] -= i_branch;
                        jac.add(m, row, -1.0);
                        jac.add(row, m, -1.0);
                    }
                    f[row] = self.v(x, *plus) - self.v(x, *minus) - src_scale * wave.value_at(t);
                }
                Element::Mosfet {
                    mos_type,
                    d,
                    g,
                    s,
                    b,
                    params,
                    beta,
                } => {
                    let st = eval_mosfet(
                        *mos_type,
                        params,
                        *beta,
                        self.v(x, *d),
                        self.v(x, *g),
                        self.v(x, *s),
                        self.v(x, *b),
                    );
                    // Current i_d enters the drain, leaves the source.
                    if let Some(di) = self.ni(*d) {
                        f[di] += st.i_d;
                        for (node, gg) in [(*d, st.g_d), (*g, st.g_g), (*s, st.g_s), (*b, st.g_b)] {
                            if let Some(ci) = self.ni(node) {
                                jac.add(di, ci, gg);
                            }
                        }
                    }
                    if let Some(si) = self.ni(*s) {
                        f[si] -= st.i_d;
                        for (node, gg) in [(*d, st.g_d), (*g, st.g_g), (*s, st.g_s), (*b, st.g_b)] {
                            if let Some(ci) = self.ni(node) {
                                jac.add(si, ci, -gg);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The Jacobian's structural occupancy: exactly the `(row, col)` slots
    /// touched by [`Self::assemble`], independent of operating point. Input
    /// to the once-per-run symbolic LU analysis.
    pub fn sparsity_pattern(&self) -> SparsityPattern {
        let mut p = SparsityPattern::new(self.n);
        for i in 0..self.nv {
            p.mark(i, i);
        }
        let mark_pair = |p: &mut SparsityPattern, a: Option<usize>, b: Option<usize>| {
            if let Some(ai) = a {
                p.mark(ai, ai);
                if let Some(bi) = b {
                    p.mark(ai, bi);
                    p.mark(bi, ai);
                }
            }
            if let Some(bi) = b {
                p.mark(bi, bi);
            }
        };
        for e in self.ckt.elements.iter() {
            match e {
                Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => {
                    mark_pair(&mut p, self.ni(*a), self.ni(*b));
                }
                Element::ISource { .. } => {}
                Element::VSource {
                    plus,
                    minus,
                    branch,
                    ..
                } => {
                    let row = self.nv + branch;
                    for node in [self.ni(*plus), self.ni(*minus)].into_iter().flatten() {
                        p.mark(node, row);
                        p.mark(row, node);
                    }
                }
                Element::Mosfet { d, g, s, b, .. } => {
                    for ri in [self.ni(*d), self.ni(*s)].into_iter().flatten() {
                        for ci in [self.ni(*d), self.ni(*g), self.ni(*s), self.ni(*b)]
                            .into_iter()
                            .flatten()
                        {
                            p.mark(ri, ci);
                        }
                    }
                }
            }
        }
        p
    }

    /// A static pivot order for this system's Jacobians: the classic MNA
    /// row exchange. Node rows whose diagonal is only the gmin tie (a node
    /// held by a voltage source) would be hopeless natural pivots against
    /// the source's unit constraint entries, so each source's branch row is
    /// swapped with its plus (or minus) node row — putting the `±1`
    /// constraint coefficient on the diagonal for the node column and the
    /// `±1` branch-current coefficient on the diagonal for the branch
    /// column. A pure function of topology.
    pub fn static_pivot_order(&self) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..self.n).collect();
        let mut used = vec![false; self.n];
        for e in self.ckt.elements.iter() {
            if let Element::VSource {
                plus,
                minus,
                branch,
                ..
            } = e
            {
                let row = self.nv + branch;
                let node = self.ni(*plus).or_else(|| self.ni(*minus));
                if let Some(nd) = node {
                    if !used[nd] && !used[row] {
                        perm.swap(nd, row);
                        used[nd] = true;
                        used[row] = true;
                    }
                }
            }
        }
        perm
    }

    /// Builds the symbolic factorization for this system, or `None` when
    /// the static order is structurally impossible (every solve then uses
    /// dense partial pivoting, as before the split).
    pub fn symbolic_lu(&self) -> Option<SymbolicLu> {
        let sym = SymbolicLu::analyze(&self.sparsity_pattern(), self.static_pivot_order());
        sym.is_viable().then_some(sym)
    }

    /// Stamps a two-terminal branch with current `i` (from `a` to `b`) and
    /// small-signal conductance `g`.
    fn stamp_conductance_pair(
        &self,
        a: crate::circuit::NodeId,
        b: crate::circuit::NodeId,
        g: f64,
        i: f64,
        f: &mut [f64],
        jac: &mut Matrix,
    ) {
        if let Some(ai) = self.ni(a) {
            f[ai] += i;
            jac.add(ai, ai, g);
            if let Some(bi) = self.ni(b) {
                jac.add(ai, bi, -g);
            }
        }
        if let Some(bi) = self.ni(b) {
            f[bi] -= i;
            jac.add(bi, bi, g);
            if let Some(ai) = self.ni(a) {
                jac.add(bi, ai, -g);
            }
        }
    }
}

/// Newton iteration options.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NewtonOptions {
    /// Convergence tolerance on the voltage update, in volts.
    pub vtol: f64,
    /// Convergence tolerance on the KCL residual, in amperes.
    pub itol: f64,
    /// Per-iteration clamp on each voltage update, in volts.
    pub vstep_limit: f64,
    /// Maximum number of iterations.
    pub max_iter: usize,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            vtol: 1e-9,
            itol: 1e-9,
            vstep_limit: 1.0,
            max_iter: 120,
        }
    }
}

/// Outcome of a Newton solve. On convergence the solution is left in the
/// workspace's `x` buffer (see [`NewtonWorkspace`]).
pub(crate) enum NewtonOutcome {
    /// Converged; holds the iteration count.
    Converged(usize),
    /// Did not converge within the iteration budget.
    Failed,
}

impl NewtonOutcome {
    /// Converts the outcome into a `Result`, building a
    /// [`AnalysisError::NoConvergence`] on failure — so even "cannot happen"
    /// failures (e.g. a linear circuit) surface as recoverable errors
    /// instead of panics.
    pub fn into_converged(
        self,
        analysis: &str,
        detail: impl FnOnce() -> String,
    ) -> Result<usize, AnalysisError> {
        match self {
            Self::Converged(iters) => Ok(iters),
            Self::Failed => Err(AnalysisError::NoConvergence {
                analysis: analysis.into(),
                detail: detail(),
            }),
        }
    }
}

/// Reusable buffers for [`newton_solve`]: the iterate, residual, negated
/// residual, Newton update, Jacobian, and its LU factors.
///
/// A transient run performs thousands of Newton solves on a system of fixed
/// size; allocating these per call (let alone per iteration) dominated the
/// solver's profile. One workspace lives for the whole analysis, and every
/// buffer is recycled across iterations, steps, and continuation stages.
pub(crate) struct NewtonWorkspace {
    /// Current iterate; the solution when the solve converges.
    pub x: Vec<f64>,
    /// When set, wall time spent in LU factorization + triangular solves is
    /// accumulated into `lu_seconds`. Off by default: two `Instant` reads
    /// per iteration are a measurable fraction of a small-system iteration,
    /// so this profiling is only armed at the trace observability level.
    pub time_lu: bool,
    /// Accumulated LU factor/solve wall time (see `time_lu`), in seconds.
    pub lu_seconds: f64,
    /// When present, factorizations first try the static-order symbolic
    /// path ([`SymbolicLu::factor_into`]); a declined factorization falls
    /// back to dense partial pivoting. `None` → always dense.
    pub symbolic: Option<SymbolicLu>,
    /// Factorizations that took the static-order path.
    pub static_solves: u64,
    /// Factorizations where the static order declined (threshold pivot
    /// failure) and dense partial pivoting ran instead.
    pub static_fallbacks: u64,
    f: Vec<f64>,
    neg_f: Vec<f64>,
    dx: Vec<f64>,
    jac: Matrix,
    lu: LuFactors,
}

impl NewtonWorkspace {
    pub fn new() -> Self {
        Self {
            x: Vec::new(),
            time_lu: false,
            lu_seconds: 0.0,
            symbolic: None,
            static_solves: 0,
            static_fallbacks: 0,
            f: Vec::new(),
            neg_f: Vec::new(),
            dx: Vec::new(),
            jac: Matrix::zeros(0, 0),
            lu: LuFactors::empty(),
        }
    }

    /// Sizes every buffer for an `n`-unknown system and seeds the iterate.
    fn prepare(&mut self, x0: &[f64]) {
        let n = x0.len();
        self.x.clear();
        self.x.extend_from_slice(x0);
        self.f.clear();
        self.f.resize(n, 0.0);
        self.neg_f.clear();
        self.neg_f.resize(n, 0.0);
        if self.jac.rows() != n {
            self.jac = Matrix::zeros(n, n);
        }
    }

    /// Factors the assembled Jacobian and solves for the Newton update
    /// `dx = -J⁻¹ f`, leaving it in `self.dx`. Returns `false` when the
    /// system is singular.
    ///
    /// Dispatch: the static-order symbolic path when installed and its
    /// stability threshold holds, else dense partial pivoting — a pure
    /// function of the Jacobian's values, so identical matrices take
    /// identical paths on every worker.
    fn factor_and_solve(&mut self) -> bool {
        let lu_start = self.time_lu.then(std::time::Instant::now);
        let mut static_ok = false;
        let factored = match &self.symbolic {
            Some(sym) => {
                if sym.factor_into(&self.jac, &mut self.lu) {
                    static_ok = true;
                    true
                } else {
                    self.static_fallbacks += 1;
                    self.jac.lu_into(&mut self.lu).is_ok()
                }
            }
            None => self.jac.lu_into(&mut self.lu).is_ok(),
        };
        if factored {
            self.neg_f.clear();
            self.neg_f.extend(self.f.iter().map(|v| -v));
            if static_ok {
                self.static_solves += 1;
                if let Some(sym) = &self.symbolic {
                    sym.solve_into(&self.lu, &self.neg_f, &mut self.dx);
                }
            } else {
                self.lu.solve_into(&self.neg_f, &mut self.dx);
            }
        }
        if let Some(t0) = lu_start {
            self.lu_seconds += t0.elapsed().as_secs_f64();
        }
        factored
    }

    /// Applies the Newton update in `self.dx` to the iterate with the
    /// voltage clamp, returning `(max_dv, max_res)` — the unclamped maximum
    /// voltage update and the maximum KCL residual, the two convergence
    /// measures.
    fn apply_update(&mut self, sys: &System<'_>, opts: &NewtonOptions) -> (f64, f64) {
        let mut max_dv = 0.0f64;
        for i in 0..sys.n {
            // Clamp voltage updates; branch currents are left unclamped.
            let step = if i < sys.nv {
                self.dx[i].clamp(-opts.vstep_limit, opts.vstep_limit)
            } else {
                self.dx[i]
            };
            self.x[i] += step;
            if i < sys.nv {
                max_dv = max_dv.max(self.dx[i].abs());
            }
        }
        let max_res = self
            .f
            .iter()
            .take(sys.nv)
            .fold(0.0f64, |m, v| m.max(v.abs()));
        (max_dv, max_res)
    }
}

/// Runs damped Newton–Raphson from `x0`, reusing `ws` for every buffer.
/// On [`NewtonOutcome::Converged`] the solution is in `ws.x`.
///
/// The iteration boundary is a cancellation point: `cancel` is polled before
/// every assemble/factor/solve cycle, so even a single pathological solve
/// (damped retries run up to 1200 iterations) honors a stop request or
/// deadline promptly.
///
/// # Errors
///
/// Returns [`AnalysisError::Cancelled`] / [`AnalysisError::DeadlineExceeded`]
/// when `cancel` trips; convergence failures are reported through
/// [`NewtonOutcome`], not as errors.
#[allow(clippy::too_many_arguments)]
pub(crate) fn newton_solve(
    sys: &System<'_>,
    x0: &[f64],
    t: f64,
    src_scale: f64,
    gmin: f64,
    caps: CapMode<'_>,
    opts: &NewtonOptions,
    ws: &mut NewtonWorkspace,
    cancel: &CancelToken,
) -> Result<NewtonOutcome, AnalysisError> {
    let n = sys.n;
    debug_assert_eq!(n, x0.len(), "x0 must match the system size");
    ws.prepare(x0);

    for iter in 0..opts.max_iter {
        cancel.check("newton iteration")?;
        sys.assemble(&ws.x, t, src_scale, gmin, caps, &mut ws.f, &mut ws.jac);
        if !ws.factor_and_solve() {
            return Ok(NewtonOutcome::Failed);
        }
        let (max_dv, max_res) = ws.apply_update(sys, opts);
        if max_dv < opts.vtol && max_res < opts.itol {
            return Ok(NewtonOutcome::Converged(iter + 1));
        }
    }
    Ok(NewtonOutcome::Failed)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::circuit::Waveform;

    #[test]
    fn resistor_divider_assembly_is_consistent() -> Result<(), AnalysisError> {
        // Vdd -- R1 -- mid -- R2 -- gnd, solved by hand: v_mid = 2.5.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let mid = ckt.node("mid");
        ckt.vsource("V1", vdd, Circuit::GND, Waveform::Dc(5.0));
        ckt.resistor("R1", vdd, mid, 1e3);
        ckt.resistor("R2", mid, Circuit::GND, 1e3);

        let sys = System::new(&ckt);
        let x0 = vec![0.0; sys.n];
        let mut ws = NewtonWorkspace::new();
        newton_solve(
            &sys,
            &x0,
            0.0,
            1.0,
            1e-12,
            CapMode::Dc,
            &NewtonOptions::default(),
            &mut ws,
            &CancelToken::new(),
        )?
        .into_converged("dc solve", || "linear circuit must converge".into())?;
        assert!((sys.v(&ws.x, vdd) - 5.0).abs() < 1e-8);
        assert!((sys.v(&ws.x, mid) - 2.5).abs() < 1e-6);
        // Source branch current = -5/2k (current flows out of +).
        assert!((ws.x[sys.nv] + 2.5e-3).abs() < 1e-8);
        Ok(())
    }

    #[test]
    fn kcl_residual_vanishes_at_solution() -> Result<(), AnalysisError> {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::GND, Waveform::Dc(2.0));
        ckt.resistor("R1", a, b, 100.0);
        ckt.resistor("R2", b, Circuit::GND, 300.0);

        let sys = System::new(&ckt);
        let x0 = vec![0.0; sys.n];
        let mut ws = NewtonWorkspace::new();
        newton_solve(
            &sys,
            &x0,
            0.0,
            1.0,
            1e-12,
            CapMode::Dc,
            &NewtonOptions::default(),
            &mut ws,
            &CancelToken::new(),
        )?
        .into_converged("dc solve", || "must converge".into())?;
        let x = ws.x.clone();
        let mut f = vec![0.0; sys.n];
        let mut jac = Matrix::zeros(sys.n, sys.n);
        sys.assemble(&x, 0.0, 1.0, 1e-12, CapMode::Dc, &mut f, &mut jac);
        for (i, v) in f.iter().enumerate().take(sys.nv) {
            assert!(v.abs() < 1e-9, "residual row {i} = {v}");
        }
        Ok(())
    }

    #[test]
    fn source_scale_scales_the_solution() -> Result<(), AnalysisError> {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GND, Waveform::Dc(4.0));
        ckt.resistor("R1", a, Circuit::GND, 1e3);
        let sys = System::new(&ckt);
        let x0 = vec![0.0; sys.n];
        let mut ws = NewtonWorkspace::new();
        newton_solve(
            &sys,
            &x0,
            0.0,
            0.5,
            1e-12,
            CapMode::Dc,
            &NewtonOptions::default(),
            &mut ws,
            &CancelToken::new(),
        )?
        .into_converged("dc solve", || "must converge".into())?;
        assert!((sys.v(&ws.x, a) - 2.0).abs() < 1e-8);
        Ok(())
    }

    #[test]
    fn failed_outcome_converts_to_a_typed_error() {
        let err = NewtonOutcome::Failed
            .into_converged("linear solve", || "did not converge".into())
            .expect_err("Failed must map to an error");
        assert_eq!(
            err,
            AnalysisError::NoConvergence {
                analysis: "linear solve".into(),
                detail: "did not converge".into(),
            }
        );
        let ok = NewtonOutcome::Converged(3).into_converged("x", || unreachable!());
        assert_eq!(ok, Ok(3));
    }

    #[test]
    fn static_order_factors_mna_systems_and_matches_dense() {
        use crate::device::{MosParams, MosType};
        // A CMOS inverter mid-transition: gmin-weak gate-node rows, vsource
        // constraint rows with structurally-zero diagonals — the shapes the
        // static MNA row exchange exists for.
        let p = MosParams {
            vt0: 0.85,
            kp: 17e-6,
            gamma: 0.5,
            phi: 0.6,
            lambda: 0.04,
        };
        let n = MosParams {
            vt0: 0.75,
            kp: 50e-6,
            gamma: 0.4,
            phi: 0.6,
            lambda: 0.03,
        };
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::Dc(5.0));
        ckt.vsource("VIN", inp, Circuit::GND, Waveform::Dc(2.5));
        ckt.mosfet("MP", MosType::Pmos, out, inp, vdd, vdd, p, 8e-6, 0.8e-6);
        ckt.mosfet(
            "MN",
            MosType::Nmos,
            out,
            inp,
            Circuit::GND,
            Circuit::GND,
            n,
            4e-6,
            0.8e-6,
        );
        ckt.capacitor("CL", out, Circuit::GND, 100e-15);

        let sys = System::new(&ckt);
        let sym = sys.symbolic_lu().expect("MNA static order must be viable");
        // Assemble at a mid-transition operating point and compare solves.
        let x = vec![5.0, 2.5, 2.0, -1e-4, 0.0];
        let mut f = vec![0.0; sys.n];
        let mut jac = Matrix::zeros(sys.n, sys.n);
        sys.assemble(&x, 0.0, 1.0, 1e-12, CapMode::Dc, &mut f, &mut jac);

        let mut stat = LuFactors::empty();
        assert!(
            sym.factor_into(&jac, &mut stat),
            "static order declined on a healthy inverter Jacobian"
        );
        let rhs: Vec<f64> = f.iter().map(|v| -v).collect();
        let mut x_static = Vec::new();
        sym.solve_into(&stat, &rhs, &mut x_static);
        let x_dense = jac.lu().unwrap().solve(&rhs);
        for (a, b) in x_static.iter().zip(&x_dense) {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "static {a} vs dense {b}"
            );
        }
    }

    #[test]
    fn error_display() {
        let e = AnalysisError::NoConvergence {
            analysis: "dc operating point".into(),
            detail: "gmin exhausted".into(),
        };
        assert!(e.to_string().contains("failed to converge"));
        let s = AnalysisError::Singular {
            analysis: "transient".into(),
        };
        assert!(s.to_string().contains("singular"));
        let a = AnalysisError::Aborted {
            analysis: "transient".into(),
            detail: "solve budget exhausted".into(),
        };
        assert!(a.to_string().contains("aborted"));
    }
}
