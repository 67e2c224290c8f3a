//! Piecewise-linear waveforms.
//!
//! [`Pwl`] is the shared waveform representation of the suite: the circuit
//! simulator consumes PWL stimulus sources and produces sampled node voltages
//! that are measured as PWL waveforms; the macromodels reason about PWL input
//! ramps exactly as the paper does ("the inputs and outputs are shown as
//! piecewise-linear", §3).

use crate::rootfind::{brent, RootFindError};
use proxim_obs::json::{CodecError, FromJson, Json, ToJson};
use std::fmt;

/// The direction of a signal transition or threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Edge {
    /// The signal increases through the threshold.
    Rising,
    /// The signal decreases through the threshold.
    Falling,
}

impl Edge {
    /// The opposite edge.
    pub fn opposite(self) -> Self {
        match self {
            Self::Rising => Self::Falling,
            Self::Falling => Self::Rising,
        }
    }
}

/// Persisted as a bool: `true` for [`Edge::Rising`].
impl ToJson for Edge {
    fn encode(&self, out: &mut String) -> Result<(), CodecError> {
        (*self == Self::Rising).encode(out)
    }
}

impl FromJson for Edge {
    fn decode(value: Json) -> Result<Self, CodecError> {
        Ok(if bool::decode(value)? {
            Self::Rising
        } else {
            Self::Falling
        })
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Rising => write!(f, "rising"),
            Self::Falling => write!(f, "falling"),
        }
    }
}

/// The error returned when constructing a [`Pwl`] from invalid points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildPwlError {
    what: String,
}

impl fmt::Display for BuildPwlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid piecewise-linear waveform: {}", self.what)
    }
}

impl std::error::Error for BuildPwlError {}

/// A piecewise-linear waveform: a non-decreasing sequence of `(time, value)`
/// knots, held constant before the first knot and after the last.
///
/// # Example
///
/// ```
/// use proxim_numeric::Pwl;
///
/// let w = Pwl::new(vec![(0.0, 0.0), (1.0, 5.0), (2.0, 5.0)])?;
/// assert_eq!(w.eval(0.5), 2.5);
/// assert_eq!(w.eval(-1.0), 0.0);
/// assert_eq!(w.eval(9.0), 5.0);
/// # Ok::<(), proxim_numeric::pwl::BuildPwlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct Pwl {
    points: Vec<(f64, f64)>,
}

impl Pwl {
    /// Builds a waveform from knots.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPwlError`] if the list is empty, times are not
    /// non-decreasing, or any coordinate is non-finite.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, BuildPwlError> {
        if points.is_empty() {
            return Err(BuildPwlError {
                what: "no points".into(),
            });
        }
        if points
            .iter()
            .any(|&(t, v)| !t.is_finite() || !v.is_finite())
        {
            return Err(BuildPwlError {
                what: "non-finite coordinate".into(),
            });
        }
        if points.windows(2).any(|w| w[1].0 < w[0].0) {
            return Err(BuildPwlError {
                what: "times must be non-decreasing".into(),
            });
        }
        Ok(Self { points })
    }

    /// A constant waveform.
    pub fn constant(v: f64) -> Self {
        Self {
            points: vec![(0.0, v)],
        }
    }

    /// A single linear ramp starting at `t_start`, moving from `v_from` to
    /// `v_to` over `transition_time` seconds, flat on both sides.
    ///
    /// # Panics
    ///
    /// Panics if `transition_time` is not strictly positive.
    pub fn ramp(t_start: f64, transition_time: f64, v_from: f64, v_to: f64) -> Self {
        assert!(transition_time > 0.0, "transition time must be positive");
        Self {
            points: vec![(t_start, v_from), (t_start + transition_time, v_to)],
        }
    }

    /// Builds a waveform from already-sampled data (e.g. a transient result).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Pwl::new`].
    pub fn from_samples(times: &[f64], values: &[f64]) -> Result<Self, BuildPwlError> {
        if times.len() != values.len() {
            return Err(BuildPwlError {
                what: "times/values length mismatch".into(),
            });
        }
        Self::new(times.iter().copied().zip(values.iter().copied()).collect())
    }

    /// The knot list.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The time of the first knot.
    pub fn t_start(&self) -> f64 {
        self.points[0].0
    }

    /// The time of the last knot.
    pub fn t_end(&self) -> f64 {
        self.points[self.points.len() - 1].0
    }

    /// Evaluates the waveform at `t`, holding the end values outside the
    /// knot range.
    pub fn eval(&self, t: f64) -> f64 {
        let pts = &self.points;
        if t <= pts[0].0 {
            return pts[0].1;
        }
        let n = pts.len();
        if t >= pts[n - 1].0 {
            return pts[n - 1].1;
        }
        // Binary search for the containing segment.
        let mut lo = 0usize;
        let mut hi = n - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if pts[mid].0 <= t {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (t0, v0) = pts[lo];
        let (t1, v1) = pts[hi];
        if t1 == t0 {
            return v1;
        }
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// Returns the waveform shifted later in time by `dt` (negative shifts
    /// earlier). This is the "equivalent waveform" operation of eq. (4.3).
    pub fn shifted(&self, dt: f64) -> Self {
        Self {
            points: self.points.iter().map(|&(t, v)| (t + dt, v)).collect(),
        }
    }

    /// All threshold crossings, in time order, as `(time, edge)` pairs.
    ///
    /// A crossing is recorded where the waveform passes strictly through the
    /// threshold between two knots (touching without crossing is ignored).
    pub fn crossings(&self, threshold: f64) -> Vec<(f64, Edge)> {
        let mut out: Vec<(f64, Edge)> = Vec::new();
        for w in self.points.windows(2) {
            push_crossing(&mut out, threshold, w[0], w[1]);
        }
        out
    }

    /// The first time the waveform crosses `threshold` with the given edge.
    pub fn first_crossing(&self, threshold: f64, edge: Edge) -> Option<f64> {
        first_of(&self.crossings(threshold), edge)
    }

    /// The last time the waveform crosses `threshold` with the given edge.
    pub fn last_crossing(&self, threshold: f64, edge: Edge) -> Option<f64> {
        self.crossings(threshold)
            .into_iter()
            .rev()
            .find(|&(_, e)| e == edge)
            .map(|(t, _)| t)
    }

    /// Shorthand for [`Pwl::first_crossing`] with [`Edge::Rising`].
    pub fn first_rising_crossing(&self, threshold: f64) -> Option<f64> {
        self.first_crossing(threshold, Edge::Rising)
    }

    /// Shorthand for [`Pwl::first_crossing`] with [`Edge::Falling`].
    pub fn first_falling_crossing(&self, threshold: f64) -> Option<f64> {
        self.first_crossing(threshold, Edge::Falling)
    }

    /// The global minimum as `(time, value)`.
    pub fn min(&self) -> (f64, f64) {
        self.points
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("PWL values are finite"))
            .expect("PWL has at least one point")
    }

    /// The global maximum as `(time, value)`.
    pub fn max(&self) -> (f64, f64) {
        self.points
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("PWL values are finite"))
            .expect("PWL has at least one point")
    }

    /// The extremum (min for [`Edge::Falling`], max for [`Edge::Rising`])
    /// within the time window `[t0, t1]`, sampling knots and window edges.
    pub fn extremum_in(&self, t0: f64, t1: f64, edge: Edge) -> (f64, f64) {
        let mut best = (t0, self.eval(t0));
        let mut consider = |t: f64, v: f64| {
            let better = match edge {
                Edge::Rising => v > best.1,
                Edge::Falling => v < best.1,
            };
            if better {
                best = (t, v);
            }
        };
        for &(t, v) in &self.points {
            if t >= t0 && t <= t1 {
                consider(t, v);
            }
        }
        consider(t1, self.eval(t1));
        best
    }

    /// Measures the transition time between two thresholds for a transition
    /// in direction `edge`.
    ///
    /// For a rising edge this is the time from the first rising crossing of
    /// `v_lo` to the next rising crossing of `v_hi` after it; mirrored for a
    /// falling edge. Returns `None` if either crossing is absent.
    pub fn transition_time(&self, v_lo: f64, v_hi: f64, edge: Edge) -> Option<f64> {
        transition_between(|th| self.crossings(th), v_lo, v_hi, edge)
    }
}

/// The time of the first `edge` entry of a crossing list.
fn first_of(crossings: &[(f64, Edge)], edge: Edge) -> Option<f64> {
    crossings.iter().find(|&&(_, e)| e == edge).map(|&(t, _)| t)
}

/// [`Pwl::transition_time`] over the crossing lists `crossings` yields.
fn transition_between(
    crossings: impl Fn(f64) -> Vec<(f64, Edge)>,
    v_lo: f64,
    v_hi: f64,
    edge: Edge,
) -> Option<f64> {
    let (first_th, second_th) = match edge {
        Edge::Rising => (v_lo, v_hi),
        Edge::Falling => (v_hi, v_lo),
    };
    let t_first = first_of(&crossings(first_th), edge)?;
    let t_second = crossings(second_th)
        .into_iter()
        .find(|&(t, e)| e == edge && t >= t_first)
        .map(|(t, _)| t)?;
    Some(t_second - t_first)
}

/// Extends the crossing list `out` of [`Pwl::crossings`] by one segment,
/// `a → b`, of the waveform.
///
/// Feeding every consecutive knot pair of a waveform through this function,
/// in order, produces exactly [`Pwl::crossings`]; a transient solver uses it
/// to track crossings while the waveform is still being computed. The
/// touching-knot rule means a segment can remove the entry the previous
/// segment added, but only one lying exactly at `a`'s time: entries strictly
/// earlier than the last knot fed in are final.
pub fn push_crossing(out: &mut Vec<(f64, Edge)>, threshold: f64, a: (f64, f64), b: (f64, f64)) {
    let (t0, v0) = a;
    let (t1, v1) = b;
    if (v0 < threshold) != (v1 < threshold) && v1 != v0 {
        let t = t0 + (threshold - v0) * (t1 - t0) / (v1 - v0);
        push_entry(out, t, v0, v1);
    }
}

/// Appends the crossing at `t` of a segment from `v0` to `v1`, under the
/// touching-knot rule of [`push_crossing`].
fn push_entry(out: &mut Vec<(f64, Edge)>, t: f64, v0: f64, v1: f64) {
    let edge = if v1 > v0 { Edge::Rising } else { Edge::Falling };
    // A waveform that only touches the threshold at a knot produces a
    // zero-width opposite-edge pair; drop both.
    if let Some(&(tp, ep)) = out.last() {
        if tp == t && ep == edge.opposite() {
            out.pop();
            return;
        }
    }
    out.push((t, edge));
}

/// The slope the trapezoidal rule gives a waveform at knot `b`, from the
/// slope `m_a` at the knot `a` before it: `2(v_b − v_a)/(t_b − t_a) − m_a`,
/// the derivative a trapezoidal integrator holds for a capacitor voltage
/// after the step `a → b`. A zero-length segment (a jump) keeps `m_a`.
pub fn trapezoidal_slope(a: (f64, f64), m_a: f64, b: (f64, f64)) -> f64 {
    let h = b.0 - a.0;
    if h > 0.0 {
        2.0 * (b.1 - a.1) / h - m_a
    } else {
        m_a
    }
}

/// [`push_crossing`] on the cubic Hermite through the knots `a` and `b`,
/// each `(time, value, slope)`: the segment crosses exactly when its end
/// values lie on opposite sides of `threshold`, as in [`push_crossing`],
/// and the crossing is the first time the cubic leaves `a`'s side. A knot
/// that sits on the threshold is its own crossing time, so the
/// touching-knot rule holds as it does for the linear read.
pub fn push_cubic_crossing(
    out: &mut Vec<(f64, Edge)>,
    threshold: f64,
    a: (f64, f64, f64),
    b: (f64, f64, f64),
) {
    let (t0, v0, _) = a;
    let (t1, v1, _) = b;
    if (v0 < threshold) == (v1 < threshold) || v1 == v0 {
        return;
    }
    let t = if v1 == threshold {
        t1
    } else if v0 == threshold {
        t0
    } else {
        (t0 + Hermite::new(a, b).first_root(threshold) * (t1 - t0)).clamp(t0, t1)
    };
    push_entry(out, t, v0, v1);
}

/// One segment's cubic Hermite in the normalized time `s ∈ [0, 1]`:
/// `p(s) = c0 + c1·s + c2·s² + c3·s³`, with the end values and slopes of
/// its two knots.
struct Hermite {
    c: [f64; 4],
    /// The end values, read exactly at `s = 0` and `s = 1`.
    ends: [f64; 2],
}

impl Hermite {
    fn new((t0, v0, m0): (f64, f64, f64), (t1, v1, m1): (f64, f64, f64)) -> Self {
        let h = t1 - t0;
        let d = v1 - v0;
        let (hm0, hm1) = (h * m0, h * m1);
        Self {
            c: [v0, hm0, 3.0 * d - 2.0 * hm0 - hm1, -2.0 * d + hm0 + hm1],
            ends: [v0, v1],
        }
    }

    fn eval(&self, s: f64) -> f64 {
        if s <= 0.0 {
            return self.ends[0];
        }
        if s >= 1.0 {
            return self.ends[1];
        }
        let [c0, c1, c2, c3] = self.c;
        c0 + s * (c1 + s * (c2 + s * c3))
    }

    /// The stationary points strictly inside `(0, 1)`, in order, and how
    /// many there are.
    fn critical_points(&self) -> ([f64; 2], usize) {
        // p'(s) = c1 + 2·c2·s + 3·c3·s².
        let [_, c1, c2, c3] = self.c;
        let (a, b, c) = (3.0 * c3, 2.0 * c2, c1);
        let mut roots = [0.0; 2];
        let mut n = 0;
        let mut keep = |s: f64| {
            if s > 0.0 && s < 1.0 {
                roots[n] = s;
                n += 1;
            }
        };
        if a == 0.0 {
            if b != 0.0 {
                keep(-c / b);
            }
        } else {
            let disc = b * b - 4.0 * a * c;
            if disc >= 0.0 {
                // The cancellation-free pair of quadratic roots.
                let q = -0.5 * (b + disc.sqrt().copysign(b));
                let (r0, r1) = if q == 0.0 { (0.0, 0.0) } else { (q / a, c / q) };
                let (lo, hi) = if r0 <= r1 { (r0, r1) } else { (r1, r0) };
                keep(lo);
                if hi != lo {
                    keep(hi);
                }
            }
        }
        (roots, n)
    }

    /// The first `s` at which the cubic reaches `threshold` from the
    /// start value's side, given that the end value lies on the other.
    /// Between stationary points the cubic is monotone, so the first piece
    /// whose end has left the start's side holds exactly one crossing.
    fn first_root(&self, threshold: f64) -> f64 {
        let side = |s: f64| self.eval(s) < threshold;
        let start = side(0.0);
        let (inner, n) = self.critical_points();
        let mut lo = 0.0;
        let mut hi = 1.0;
        for &s in &inner[..n] {
            if side(s) != start {
                hi = s;
                break;
            }
            lo = s;
        }
        match brent(|s| self.eval(s) - threshold, lo, hi, 4.0 * f64::EPSILON) {
            Ok(s) | Err(RootFindError::NoConvergence { best: s }) => s,
            Err(RootFindError::NoBracket { .. }) => unreachable!("the piece brackets its crossing"),
        }
    }
}

/// A sampled transient waveform read on its integrator's own interpolant:
/// the cubic Hermite through its knots, with the trapezoidal rule's slopes
/// there ([`trapezoidal_slope`], from a slope of zero at the first knot,
/// where a transient sits at its DC operating point).
///
/// The slope at a knot depends only on the knots up to it, so a reading
/// inside a segment depends on that segment and the ones before it and
/// never on later knots: a transient cut short reads every crossing and
/// extremum before its cut exactly as its full run does. Crossing
/// semantics are those of [`Pwl::crossings`]; only the crossing times (and
/// the extrema between knots) move.
///
/// # Example
///
/// ```
/// use proxim_numeric::pwl::{Edge, Pwl, TrapezoidalCubic};
///
/// // v(t) = 5 − 5t² from rest: trapezoidal slopes are exact for it, and so
/// // is the cubic read, where the linear one is not.
/// let knots = [0.0, 0.3, 0.5, 0.8, 1.0].map(|t| (t, 5.0 - 5.0 * t * t));
/// let w = Pwl::new(knots.to_vec())?;
/// let t = TrapezoidalCubic::new(&w).first_crossing(2.5, Edge::Falling).unwrap();
/// assert!((t - 0.5f64.sqrt()).abs() < 1e-12);
/// # Ok::<(), proxim_numeric::pwl::BuildPwlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TrapezoidalCubic<'a> {
    pwl: &'a Pwl,
    slopes: Vec<f64>,
}

impl<'a> TrapezoidalCubic<'a> {
    /// Reads `pwl` on its trapezoidal cubic.
    pub fn new(pwl: &'a Pwl) -> Self {
        let mut slopes = Vec::with_capacity(pwl.points.len());
        let mut m = 0.0;
        slopes.push(m);
        for w in pwl.points.windows(2) {
            m = trapezoidal_slope(w[0], m, w[1]);
            slopes.push(m);
        }
        Self { pwl, slopes }
    }

    /// The knots as `(time, value, slope)`.
    fn knots(&self) -> impl Iterator<Item = (f64, f64, f64)> + '_ {
        self.pwl
            .points
            .iter()
            .zip(&self.slopes)
            .map(|(&(t, v), &m)| (t, v, m))
    }

    /// All threshold crossings, in time order, as [`Pwl::crossings`] finds
    /// them, each at its time on the cubic.
    pub fn crossings(&self, threshold: f64) -> Vec<(f64, Edge)> {
        let mut out = Vec::new();
        let mut knots = self.knots();
        if let Some(mut a) = knots.next() {
            for b in knots {
                push_cubic_crossing(&mut out, threshold, a, b);
                a = b;
            }
        }
        out
    }

    /// The first time the cubic crosses `threshold` with the given edge.
    pub fn first_crossing(&self, threshold: f64, edge: Edge) -> Option<f64> {
        first_of(&self.crossings(threshold), edge)
    }

    /// [`Pwl::transition_time`] on the cubic.
    pub fn transition_time(&self, v_lo: f64, v_hi: f64, edge: Edge) -> Option<f64> {
        transition_between(|th| self.crossings(th), v_lo, v_hi, edge)
    }

    /// The cubic's global extremum: its maximum for [`Edge::Rising`], its
    /// minimum for [`Edge::Falling`], over the knots and every stationary
    /// point between them.
    pub fn extremum(&self, edge: Edge) -> f64 {
        let better = |a: f64, b: f64| match edge {
            Edge::Rising => a.max(b),
            Edge::Falling => a.min(b),
        };
        let mut knots = self.knots();
        let Some(mut a) = knots.next() else {
            unreachable!("a waveform has at least one knot")
        };
        let mut best = a.1;
        for b in knots {
            best = better(best, b.1);
            if b.0 > a.0 {
                let seg = Hermite::new(a, b);
                let (inner, n) = seg.critical_points();
                for &s in &inner[..n] {
                    best = better(best, seg.eval(s));
                }
            }
            a = b;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_waveform() {
        let w = Pwl::constant(3.3);
        assert_eq!(w.eval(-100.0), 3.3);
        assert_eq!(w.eval(100.0), 3.3);
        assert!(w.crossings(1.0).is_empty());
    }

    #[test]
    fn ramp_evaluation() {
        let w = Pwl::ramp(1.0, 2.0, 0.0, 4.0);
        assert_eq!(w.eval(0.0), 0.0);
        assert_eq!(w.eval(2.0), 2.0);
        assert_eq!(w.eval(3.0), 4.0);
        assert_eq!(w.eval(10.0), 4.0);
    }

    #[test]
    fn falling_ramp_crossing() {
        let w = Pwl::ramp(0.0, 1.0, 5.0, 0.0);
        let t = w.first_falling_crossing(2.5).unwrap();
        assert!((t - 0.5).abs() < 1e-12);
        assert!(w.first_rising_crossing(2.5).is_none());
    }

    #[test]
    fn multiple_crossings_ordered() {
        // A triangle pulse: up then down.
        let w = Pwl::new(vec![(0.0, 0.0), (1.0, 4.0), (2.0, 0.0)]).unwrap();
        let cs = w.crossings(2.0);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].1, Edge::Rising);
        assert_eq!(cs[1].1, Edge::Falling);
        assert!((cs[0].0 - 0.5).abs() < 1e-12);
        assert!((cs[1].0 - 1.5).abs() < 1e-12);
        assert_eq!(w.last_crossing(2.0, Edge::Falling), Some(cs[1].0));
    }

    #[test]
    fn touching_threshold_is_not_a_crossing() {
        let w = Pwl::new(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 0.0)]).unwrap();
        assert!(w.crossings(2.0).is_empty());
    }

    #[test]
    fn shift_moves_crossings() {
        let w = Pwl::ramp(0.0, 1.0, 0.0, 1.0);
        let s = w.shifted(5.0);
        let t0 = w.first_rising_crossing(0.5).unwrap();
        let t1 = s.first_rising_crossing(0.5).unwrap();
        assert!((t1 - t0 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn min_max() {
        let w = Pwl::new(vec![(0.0, 1.0), (1.0, -3.0), (2.0, 7.0)]).unwrap();
        assert_eq!(w.min(), (1.0, -3.0));
        assert_eq!(w.max(), (2.0, 7.0));
    }

    #[test]
    fn extremum_in_window() {
        let w = Pwl::new(vec![(0.0, 0.0), (1.0, -5.0), (2.0, 0.0), (3.0, 9.0)]).unwrap();
        let (tmin, vmin) = w.extremum_in(0.5, 2.5, Edge::Falling);
        assert_eq!((tmin, vmin), (1.0, -5.0));
        let (_, vmax) = w.extremum_in(2.0, 3.0, Edge::Rising);
        assert_eq!(vmax, 9.0);
    }

    #[test]
    fn transition_time_rising_and_falling() {
        let w = Pwl::ramp(0.0, 10.0, 0.0, 10.0);
        let tt = w.transition_time(2.0, 8.0, Edge::Rising).unwrap();
        assert!((tt - 6.0).abs() < 1e-12);
        let f = Pwl::ramp(0.0, 10.0, 10.0, 0.0);
        let tf = f.transition_time(2.0, 8.0, Edge::Falling).unwrap();
        assert!((tf - 6.0).abs() < 1e-12);
    }

    #[test]
    fn transition_time_missing_crossing() {
        let w = Pwl::ramp(0.0, 1.0, 0.0, 5.0);
        assert!(w.transition_time(1.0, 9.0, Edge::Rising).is_none());
    }

    #[test]
    fn rejects_invalid_points() {
        assert!(Pwl::new(vec![]).is_err());
        assert!(Pwl::new(vec![(1.0, 0.0), (0.0, 1.0)]).is_err());
        assert!(Pwl::new(vec![(0.0, f64::NAN)]).is_err());
        assert!(Pwl::from_samples(&[0.0, 1.0], &[0.0]).is_err());
    }

    #[test]
    fn duplicate_times_allowed_for_steps() {
        // A step encoded as two knots at the same time.
        let w = Pwl::new(vec![(0.0, 0.0), (1.0, 0.0), (1.0, 5.0), (2.0, 5.0)]).unwrap();
        assert_eq!(w.eval(0.5), 0.0);
        assert_eq!(w.eval(1.5), 5.0);
    }

    #[test]
    fn cubic_crossings_keep_the_linear_segments_and_edges() {
        // A wavy waveform with a knot exactly on the threshold.
        let w = Pwl::new(vec![
            (0.0, 0.0),
            (1.0, 0.4),
            (1.5, 1.3),
            (2.5, 1.0),
            (3.0, 2.0),
            (3.2, 0.5),
            (4.0, 0.2),
        ])
        .unwrap();
        let cubic = TrapezoidalCubic::new(&w);
        for th in [0.3, 0.4, 1.0, 1.2, 1.7] {
            let lin = w.crossings(th);
            let cub = cubic.crossings(th);
            assert_eq!(lin.len(), cub.len(), "threshold {th}");
            for ((tl, el), (tc, ec)) in lin.iter().zip(&cub) {
                assert_eq!(el, ec);
                // Both lie in the same segment.
                let seg = |t: f64| w.points().iter().position(|&(k, _)| k >= t);
                assert_eq!(seg(*tl), seg(*tc), "threshold {th}");
                assert!((cubic_value(&cubic, *tc) - th).abs() < 1e-12);
            }
        }
        // A knot on the threshold is an exact crossing time.
        assert_eq!(cubic.first_crossing(0.4, Edge::Rising), Some(1.0));
    }

    /// The cubic's value at `t`, from its crossing machinery's segment.
    fn cubic_value(c: &TrapezoidalCubic<'_>, t: f64) -> f64 {
        let knots: Vec<_> = c.knots().collect();
        let k = knots.iter().position(|k| k.0 >= t).unwrap().max(1);
        let (a, b) = (knots[k - 1], knots[k]);
        Hermite::new(a, b).eval((t - a.0) / (b.0 - a.0))
    }

    #[test]
    fn cubic_extremum_finds_a_peak_between_knots() {
        // Trapezoidal slopes 0, 0, 2, -2.2: the last segment bulges above
        // both of its knots.
        let w = Pwl::new(vec![(0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 0.9)]).unwrap();
        let cubic = TrapezoidalCubic::new(&w);
        let peak = cubic.extremum(Edge::Rising);
        assert!(peak > 1.0 && peak < 1.5, "peak {peak}");
        assert_eq!(cubic.extremum(Edge::Falling), 0.0);
        assert_eq!(w.max().1, 1.0);
    }

    #[test]
    fn edge_opposite_and_display() {
        assert_eq!(Edge::Rising.opposite(), Edge::Falling);
        assert_eq!(Edge::Falling.opposite(), Edge::Rising);
        assert_eq!(Edge::Rising.to_string(), "rising");
    }
}
