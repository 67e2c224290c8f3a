//! Shared Newton–Raphson machinery: residual/Jacobian assembly over the MNA
//! unknown vector, and the damped Newton iteration used by every analysis.
//!
//! The unknown vector is `x = [v_1 .. v_{N-1}, i_1 .. i_M]`: the non-ground
//! node voltages followed by the branch currents of the `M` voltage sources.
//! Assembly builds the KCL residual `f(x)` (net current leaving each node,
//! plus one voltage-constraint row per source) and its Jacobian, and Newton
//! iterates `x += clamp(-J^{-1} f)`.
//!
//! Each analysis compiles its circuit once into a `System`, a stamp plan:
//! every element's matrix entries are resolved to slots of one LU value
//! array, laid out in the static pivot order, so a transient's Newton loop
//! assembles straight into the array that [`SymbolicLu::factor_in_place`]
//! eliminates. Sources are evaluated once per solve, not per iteration.

use crate::cancel::CancelToken;
use crate::circuit::{Circuit, Element, NodeId, Waveform};
use crate::device::MosInstance;
use crate::recover::RecoveryTrace;
use proxim_numeric::linalg::{LuFactors, Matrix, SparsityPattern, SymbolicLu};
use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

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

/// One element compiled against the system's value layout: every matrix
/// entry it stamps resolved to a slot of the LU value array, every terminal
/// to an unknown index, and its bias-independent constants folded.
///
/// A terminal on ground reads the unknown index `n`, which is past the end
/// of the iterate and so reads 0 V; its residual row is the discard entry
/// `f[n]` and its matrix entries the discard slot `n * n`. Assembly then
/// needs no ground branch.
#[derive(Debug, Clone)]
enum Stamp {
    /// Conductance `g = 1 / ohms` between `a` and `b`; slots `aa, ab, bb,
    /// ba`.
    Resistor {
        a: usize,
        b: usize,
        g: f64,
        slots: [usize; 4],
    },
    /// A capacitor's companion conductance (transient only); `cap` indexes
    /// the per-solve [`Companion`] list. Slots as for a resistor.
    Capacitor {
        a: usize,
        b: usize,
        cap: usize,
        slots: [usize; 4],
    },
    /// A current `src` flowing from `plus` to `minus` through the source.
    ISource {
        plus: usize,
        minus: usize,
        src: usize,
    },
    /// Branch-current unknown `row`; slots `(plus, row), (row, plus),
    /// (minus, row), (row, minus)`.
    VSource {
        plus: usize,
        minus: usize,
        row: usize,
        src: usize,
        slots: [usize; 4],
    },
    /// Terminals `[d, g, s, b]`; slots are the drain row then the source
    /// row, each against `d, g, s, b`.
    Mosfet {
        dev: MosInstance,
        term: [usize; 4],
        slots: [usize; 8],
    },
}

/// A capacitor's companion model for one Newton solve:
/// `i = geq * (dv - v_prev) + i_hist`.
#[derive(Debug, Clone, Copy)]
struct Companion {
    geq: f64,
    v_prev: f64,
    /// `trap_coeff * i_prev`.
    i_hist: f64,
}

/// The voltage of unknown `i` under iterate `x`; the ground index (`n`,
/// past the end) reads 0 V.
#[inline]
fn volt(x: &[f64], i: usize) -> f64 {
    x.get(i).copied().unwrap_or(0.0)
}

/// A circuit compiled once for Newton solves: its MNA dimensions, its
/// elements as [`Stamp`]s over one LU value layout, and the static-order
/// elimination program for that layout when the system uses one.
///
/// The value array holds the Jacobian row by row in pivot order — row
/// `perm[k]` at `values[k * n..(k + 1) * n]` — plus the discard slot at
/// `n * n`. With a static order, assembly writes straight into the layout
/// [`SymbolicLu::factor_in_place`] eliminates; without one (the DC
/// analyses, whose `perm` is the identity, or a structurally impossible
/// static order), every solve scatters the values into a dense [`Matrix`].
pub(crate) struct System<'a> {
    /// Number of non-ground nodes.
    pub nv: usize,
    /// Total unknowns (`nv + n_vsources`).
    pub n: usize,
    /// Jacobian row stored at each position of the value array.
    perm: Vec<usize>,
    /// The static-order program, when the system is solved with one.
    lu: Option<SymbolicLu>,
    stamps: Vec<Stamp>,
    /// The diagonal slot of every node row, where gmin lands.
    gmin_slots: Vec<usize>,
    /// Source waveforms, indexed by a stamp's `src`.
    sources: Vec<&'a Waveform>,
    /// Each capacitor's element index (its history entry) and value,
    /// indexed by a stamp's `cap`.
    caps: Vec<(usize, f64)>,
}

impl<'a> System<'a> {
    /// Compiles `ckt` for dense partial pivoting on every solve — the DC
    /// analyses.
    pub fn new(ckt: &'a Circuit) -> Self {
        let n = ckt.node_count() - 1 + ckt.vsource_count();
        Self::compile(ckt, (0..n).collect(), false)
    }

    /// Compiles `ckt` over its static pivot order (see
    /// [`static_pivot_order`]): solves take the static program, and
    /// fall back to dense partial pivoting only when its stability test
    /// declines. Without a structurally viable static order every solve is
    /// dense, as with [`Self::new`].
    pub fn with_static_order(ckt: &'a Circuit) -> Self {
        Self::compile(ckt, static_pivot_order(ckt), true)
    }

    fn compile(ckt: &'a Circuit, perm: Vec<usize>, static_order: bool) -> Self {
        let nv = ckt.node_count() - 1;
        let n = nv + ckt.vsource_count();
        let mut pos = vec![0; n];
        for (k, &row) in perm.iter().enumerate() {
            pos[row] = k;
        }
        let discard = n * n;
        // Unknown index of a node, `n` for ground.
        let ni = |node: NodeId| {
            if node.index() == 0 {
                n
            } else {
                node.index() - 1
            }
        };
        let slot = |r: usize, c: usize| {
            if r == n || c == n {
                discard
            } else {
                pos[r] * n + c
            }
        };
        let mut sys = Self {
            nv,
            n,
            perm,
            lu: None,
            stamps: Vec::with_capacity(ckt.elements.len()),
            gmin_slots: (0..nv).map(|i| slot(i, i)).collect(),
            sources: Vec::new(),
            caps: Vec::new(),
        };
        for (ei, e) in ckt.elements.iter().enumerate() {
            let stamp = match e {
                Element::Resistor { a, b, ohms } => {
                    let (a, b) = (ni(*a), ni(*b));
                    Stamp::Resistor {
                        a,
                        b,
                        g: 1.0 / ohms,
                        slots: [slot(a, a), slot(a, b), slot(b, b), slot(b, a)],
                    }
                }
                Element::Capacitor { a, b, farads } => {
                    let (a, b) = (ni(*a), ni(*b));
                    sys.caps.push((ei, *farads));
                    Stamp::Capacitor {
                        a,
                        b,
                        cap: sys.caps.len() - 1,
                        slots: [slot(a, a), slot(a, b), slot(b, b), slot(b, a)],
                    }
                }
                Element::ISource { plus, minus, wave } => {
                    sys.sources.push(wave);
                    Stamp::ISource {
                        plus: ni(*plus),
                        minus: ni(*minus),
                        src: sys.sources.len() - 1,
                    }
                }
                Element::VSource {
                    plus,
                    minus,
                    wave,
                    branch,
                } => {
                    let (p, m, row) = (ni(*plus), ni(*minus), nv + branch);
                    sys.sources.push(wave);
                    Stamp::VSource {
                        plus: p,
                        minus: m,
                        row,
                        src: sys.sources.len() - 1,
                        slots: [slot(p, row), slot(row, p), slot(m, row), slot(row, m)],
                    }
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
                    let term = [ni(*d), ni(*g), ni(*s), ni(*b)];
                    let mut slots = [discard; 8];
                    for (r, row) in [term[0], term[2]].into_iter().enumerate() {
                        for (c, col) in term.into_iter().enumerate() {
                            slots[4 * r + c] = slot(row, col);
                        }
                    }
                    Stamp::Mosfet {
                        dev: MosInstance::new(*mos_type, *params, *beta),
                        term,
                        slots,
                    }
                }
            };
            sys.stamps.push(stamp);
        }
        if static_order {
            let sym = SymbolicLu::analyze(&sys.sparsity_pattern(), sys.perm.clone());
            sys.lu = sym.is_viable().then_some(sym);
        }
        sys
    }

    /// Voltage of `node` under unknown vector `x` (ground = 0).
    #[inline]
    pub fn v(&self, x: &[f64], node: NodeId) -> f64 {
        if node.index() == 0 {
            0.0
        } else {
            x[node.index() - 1]
        }
    }

    /// The Jacobian's structural occupancy: exactly the entries the stamps
    /// touch, independent of operating point (a cutoff transistor stamps an
    /// exact `0.0` but still occupies its slot). Input to the symbolic LU
    /// analysis.
    fn sparsity_pattern(&self) -> SparsityPattern {
        let n = self.n;
        let mut p = SparsityPattern::new(n);
        let mut mark = |s: usize| {
            if s != n * n {
                p.mark(self.perm[s / n], s % n);
            }
        };
        self.gmin_slots.iter().copied().for_each(&mut mark);
        for stamp in &self.stamps {
            let slots: &[usize] = match stamp {
                Stamp::Resistor { slots, .. }
                | Stamp::Capacitor { slots, .. }
                | Stamp::VSource { slots, .. } => slots,
                Stamp::Mosfet { slots, .. } => slots,
                Stamp::ISource { .. } => &[],
            };
            slots.iter().copied().for_each(&mut mark);
        }
        p
    }

    /// Assembles the residual `f` and the Jacobian `values` (in this
    /// system's layout) at `x`.
    ///
    /// `src` holds every source's value and `companions` every capacitor's
    /// companion model for the current solve; with no companions (DC)
    /// capacitors are open circuits. `gmin` is the conductance tied from
    /// every node to ground. `f` has `n + 1` entries and `values` `n² + 1`;
    /// the last of each is the ground discard.
    ///
    /// Every slot receives its additions in element order, the same order
    /// a dense stamp-by-stamp assembly performs them, so the values are
    /// reproducible bit for bit whatever the layout.
    fn stamp(
        &self,
        x: &[f64],
        gmin: f64,
        src: &[f64],
        companions: &[Companion],
        f: &mut [f64],
        values: &mut [f64],
    ) {
        f.fill(0.0);
        values.fill(0.0);

        // gmin from every non-ground node to ground.
        for (i, &s) in self.gmin_slots.iter().enumerate() {
            f[i] += gmin * x[i];
            values[s] += gmin;
        }

        for stamp in &self.stamps {
            match *stamp {
                Stamp::Resistor { a, b, g, slots } => {
                    let i = g * (volt(x, a) - volt(x, b));
                    stamp_pair(a, b, g, i, slots, f, values);
                }
                Stamp::Capacitor { a, b, cap, slots } => {
                    if let Some(c) = companions.get(cap) {
                        let dv = volt(x, a) - volt(x, b);
                        let i = c.geq * (dv - c.v_prev) + c.i_hist;
                        stamp_pair(a, b, c.geq, i, slots, f, values);
                    }
                }
                Stamp::ISource {
                    plus,
                    minus,
                    src: k,
                } => {
                    let i = src[k];
                    f[plus] += i;
                    f[minus] -= i;
                }
                Stamp::VSource {
                    plus,
                    minus,
                    row,
                    src: k,
                    slots,
                } => {
                    // Branch current leaves `plus`, enters `minus`.
                    let i_branch = x[row];
                    f[plus] += i_branch;
                    values[slots[0]] += 1.0;
                    values[slots[1]] += 1.0;
                    f[minus] -= i_branch;
                    values[slots[2]] += -1.0;
                    values[slots[3]] += -1.0;
                    f[row] = volt(x, plus) - volt(x, minus) - src[k];
                }
                Stamp::Mosfet {
                    ref dev,
                    term: [d, g, s, b],
                    slots,
                } => {
                    let st = dev.eval(volt(x, d), volt(x, g), volt(x, s), volt(x, b));
                    let gs = [st.g_d, st.g_g, st.g_s, st.g_b];
                    // Current i_d enters the drain, leaves the source.
                    f[d] += st.i_d;
                    for (&slot, gg) in slots[..4].iter().zip(gs) {
                        values[slot] += gg;
                    }
                    f[s] -= st.i_d;
                    for (&slot, gg) in slots[4..].iter().zip(gs) {
                        values[slot] += -gg;
                    }
                }
            }
        }
    }

    /// Copies values in this system's layout into the dense matrix `m`, in
    /// the matrix's own row order.
    fn scatter(&self, values: &[f64], m: &mut Matrix) {
        let n = self.n;
        if m.rows() != n {
            *m = Matrix::zeros(n, n);
        }
        for (k, &row) in self.perm.iter().enumerate() {
            for (j, &v) in values[k * n..(k + 1) * n].iter().enumerate() {
                m[(row, j)] = v;
            }
        }
    }
}

/// A static pivot order for the MNA Jacobians of `ckt`: the classic row
/// exchange. Node rows whose diagonal is only the gmin tie (a node held by
/// a voltage source) would be hopeless natural pivots against the source's
/// unit constraint entries, so each source's branch row is swapped with its
/// plus (or minus) node row — putting the `±1` constraint coefficient on
/// the diagonal for the node column and the `±1` branch-current coefficient
/// on the diagonal for the branch column. A pure function of topology.
fn static_pivot_order(ckt: &Circuit) -> Vec<usize> {
    let nv = ckt.node_count() - 1;
    let n = nv + ckt.vsource_count();
    let ni = |node: NodeId| (node.index() != 0).then(|| node.index() - 1);
    let mut perm: Vec<usize> = (0..n).collect();
    let mut used = vec![false; n];
    for e in ckt.elements.iter() {
        if let Element::VSource {
            plus,
            minus,
            branch,
            ..
        } = e
        {
            let row = nv + branch;
            if let Some(nd) = ni(*plus).or_else(|| ni(*minus)) {
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

/// Stamps a two-terminal branch with current `i` (from `a` to `b`) and
/// small-signal conductance `g` into slots `aa, ab, bb, ba`.
#[inline]
fn stamp_pair(
    a: usize,
    b: usize,
    g: f64,
    i: f64,
    slots: [usize; 4],
    f: &mut [f64],
    values: &mut [f64],
) {
    f[a] += i;
    values[slots[0]] += g;
    values[slots[1]] += -g;
    f[b] -= i;
    values[slots[2]] += g;
    values[slots[3]] += -g;
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

/// Reusable buffers for [`newton_solve`]: the iterate, the per-solve source
/// values and capacitor companions, the residual and LU value array, the
/// Newton update, and the dense fallback's matrix and factors.
///
/// A transient run performs thousands of Newton solves on a system of fixed
/// size; allocating these per call (let alone per iteration) dominated the
/// solver's profile. One workspace lives for the whole analysis, and every
/// buffer is recycled across iterations, steps, and continuation stages.
pub(crate) struct NewtonWorkspace {
    /// Current iterate; the solution when the solve converges.
    pub x: Vec<f64>,
    /// When set, one Newton iteration in [`LAYER_SAMPLE_EVERY`] is timed,
    /// split into assembly (device evaluation and stamping) and factor +
    /// solve, and each sample is scaled up into `assemble_seconds` and
    /// `lu_seconds`. Three clock reads per sampled iteration cost well
    /// under 1 % of an iteration on average, so the split runs whenever
    /// metrics are on.
    pub sample_layers: bool,
    /// Estimated assembly time (see `sample_layers`), in seconds.
    pub assemble_seconds: f64,
    /// Estimated factor + solve time (see `sample_layers`), in seconds,
    /// dense fallbacks included.
    pub lu_seconds: f64,
    /// Factorizations that took the static-order path.
    pub static_solves: u64,
    /// Factorizations where the static order declined (threshold pivot
    /// failure) and dense partial pivoting ran instead.
    pub static_fallbacks: u64,
    /// Iterations since the last timed one.
    sample_tick: u32,
    src: Vec<f64>,
    companions: Vec<Companion>,
    f: Vec<f64>,
    neg_f: Vec<f64>,
    dx: Vec<f64>,
    values: Vec<f64>,
    jac: Matrix,
    lu: LuFactors,
}

/// One Newton iteration in this many is timed when
/// [`NewtonWorkspace::sample_layers`] is set.
const LAYER_SAMPLE_EVERY: u32 = 64;

/// The cost of one `Instant::now()` as seen between two reads: the least
/// of 256 back-to-back pairs, measured once per process.
fn clock_read_seconds() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        (0..256)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    })
}

impl NewtonWorkspace {
    pub fn new() -> Self {
        Self {
            x: Vec::new(),
            sample_layers: false,
            assemble_seconds: 0.0,
            lu_seconds: 0.0,
            static_solves: 0,
            static_fallbacks: 0,
            sample_tick: 0,
            src: Vec::new(),
            companions: Vec::new(),
            f: Vec::new(),
            neg_f: Vec::new(),
            dx: Vec::new(),
            values: Vec::new(),
            jac: Matrix::zeros(0, 0),
            lu: LuFactors::empty(),
        }
    }

    /// Sizes every buffer for `sys`, seeds the iterate, and evaluates what
    /// stays fixed for the whole solve: every source at time `t` (scaled by
    /// `src_scale`) and every capacitor's companion model.
    fn prepare(&mut self, sys: &System<'_>, x0: &[f64], t: f64, src_scale: f64, caps: CapMode<'_>) {
        let n = sys.n;
        self.x.clear();
        self.x.extend_from_slice(x0);
        self.f.resize(n + 1, 0.0);
        self.values.resize(n * n + 1, 0.0);
        self.src.clear();
        self.src
            .extend(sys.sources.iter().map(|w| src_scale * w.value_at(t)));
        self.companions.clear();
        if let CapMode::Tran {
            geq_per_farad,
            trap_coeff,
            hist,
        } = caps
        {
            self.companions.extend(sys.caps.iter().map(|&(ei, farads)| {
                let (v_prev, i_prev) = hist[ei];
                Companion {
                    geq: geq_per_farad * farads,
                    v_prev,
                    i_hist: trap_coeff * i_prev,
                }
            }));
        }
    }

    /// Assembles the residual and Jacobian at the current iterate.
    fn assemble(&mut self, sys: &System<'_>, gmin: f64) {
        sys.stamp(
            &self.x,
            gmin,
            &self.src,
            &self.companions,
            &mut self.f,
            &mut self.values,
        );
    }

    /// Factors the assembled Jacobian and solves for the Newton update
    /// `dx = -J⁻¹ f`, leaving it in `self.dx`. Returns `false` when the
    /// system is singular.
    ///
    /// Dispatch: the static program in place when the system has one and
    /// its stability threshold holds, else dense partial pivoting — a pure
    /// function of the Jacobian's values, so identical matrices take
    /// identical paths on every worker. A declined static factorization has
    /// consumed the values, so the fallback assembles them again (same
    /// iterate, same bits) before scattering them into the dense matrix.
    fn factor_and_solve(&mut self, sys: &System<'_>, gmin: f64) -> bool {
        let n = sys.n;
        match &sys.lu {
            Some(lu) if lu.factor_in_place(&mut self.values) => {
                self.static_solves += 1;
                self.negate_residual(n);
                lu.solve_factored(&self.values, &self.neg_f, &mut self.dx);
                return true;
            }
            Some(_) => {
                self.static_fallbacks += 1;
                self.assemble(sys, gmin);
            }
            None => {}
        }
        sys.scatter(&self.values, &mut self.jac);
        if self.jac.lu_into(&mut self.lu).is_err() {
            return false;
        }
        self.negate_residual(n);
        self.lu.solve_into(&self.neg_f, &mut self.dx);
        true
    }

    /// `neg_f = -f` over the `n` real rows.
    fn negate_residual(&mut self, n: usize) {
        self.neg_f.clear();
        self.neg_f.extend(self.f[..n].iter().map(|v| -v));
    }

    /// One assemble + factor + solve cycle, timed when this iteration is
    /// sampled. Returns `false` when the system is singular.
    fn iterate(&mut self, sys: &System<'_>, gmin: f64) -> bool {
        let sampled = self.sample_layers && {
            self.sample_tick += 1;
            self.sample_tick == LAYER_SAMPLE_EVERY
        };
        if !sampled {
            self.assemble(sys, gmin);
            return self.factor_and_solve(sys, gmin);
        }
        self.sample_tick = 0;
        // Each interval spans one clock read besides its work; without
        // this correction the two layers would add up to more than the
        // transient they are part of.
        let span = |d: std::time::Duration| {
            f64::from(LAYER_SAMPLE_EVERY) * (d.as_secs_f64() - clock_read_seconds()).max(0.0)
        };
        let t0 = Instant::now();
        self.assemble(sys, gmin);
        let t1 = Instant::now();
        let ok = self.factor_and_solve(sys, gmin);
        self.assemble_seconds += span(t1 - t0);
        self.lu_seconds += span(t1.elapsed());
        ok
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
/// `t` is the source evaluation time; `src_scale` scales all source
/// values (used by source stepping); `gmin` is the conductance tied from
/// every node to ground; `caps` selects the capacitor companion model.
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
    debug_assert_eq!(sys.n, x0.len(), "x0 must match the system size");
    ws.prepare(sys, x0, t, src_scale, caps);

    for iter in 0..opts.max_iter {
        cancel.check("newton iteration")?;
        if !ws.iterate(sys, gmin) {
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
        let mut f = vec![0.0; sys.n + 1];
        let mut values = vec![0.0; sys.n * sys.n + 1];
        sys.stamp(&x, 1e-12, &[2.0], &[], &mut f, &mut values);
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

        let sys = System::with_static_order(&ckt);
        let lu = sys.lu.as_ref().expect("MNA static order must be viable");
        // Assemble at a mid-transition operating point and compare solves.
        let x = vec![5.0, 2.5, 2.0, -1e-4, 0.0];
        let src = [5.0, 2.5];
        let mut f = vec![0.0; sys.n + 1];
        let mut values = vec![0.0; sys.n * sys.n + 1];
        sys.stamp(&x, 1e-12, &src, &[], &mut f, &mut values);
        let mut jac = Matrix::zeros(sys.n, sys.n);
        sys.scatter(&values, &mut jac);

        assert!(
            lu.factor_in_place(&mut values),
            "static order declined on a healthy inverter Jacobian"
        );
        let rhs: Vec<f64> = f[..sys.n].iter().map(|v| -v).collect();
        let mut x_static = Vec::new();
        lu.solve_factored(&values, &rhs, &mut x_static);
        let x_dense = jac.lu().unwrap().solve(&rhs);
        for (a, b) in x_static.iter().zip(&x_dense) {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "static {a} vs dense {b}"
            );
        }
    }

    #[test]
    fn ground_terminals_stamp_only_the_discard_entries() {
        // Every element kind with one terminal on ground: the stamps that
        // would land on a ground row or column go to the discard entries,
        // and the real rows match a hand-built MNA system.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::GND, Waveform::Dc(1.0));
        ckt.resistor("R1", Circuit::GND, b, 100.0);
        ckt.isource("I1", b, Circuit::GND, Waveform::Dc(1e-3));
        ckt.capacitor("C1", a, b, 1e-12);
        let sys = System::with_static_order(&ckt);
        let x = [1.0, 0.25, -2e-3];
        let src = [1.0, 1e-3];
        let comp = [Companion {
            geq: 1e-3,
            v_prev: 0.5,
            i_hist: 0.0,
        }];
        let mut f = vec![0.0; sys.n + 1];
        let mut values = vec![0.0; sys.n * sys.n + 1];
        sys.stamp(&x, 0.0, &src, &comp, &mut f, &mut values);
        let mut jac = Matrix::zeros(sys.n, sys.n);
        sys.scatter(&values, &mut jac);
        // Capacitor current 1e-3 * (0.75 - 0.5) = 2.5e-4 from a to b.
        let i_c = 1e-3 * (0.75 - 0.5);
        assert_eq!(f[0], -2e-3 + i_c);
        assert_eq!(f[1], 0.0025 + 1e-3 - i_c);
        assert_eq!(f[2], 1.0 - 0.0 - 1.0);
        let want = Matrix::from_rows(&[
            &[1e-3, -1e-3, 1.0],
            &[-1e-3, 1e-2 + 1e-3, 0.0],
            &[1.0, 0.0, 0.0],
        ]);
        assert_eq!(jac, want);
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
