//! Piecewise-linear waveforms.
//!
//! [`Pwl`] is the shared waveform representation of the suite: the circuit
//! simulator consumes PWL stimulus sources and produces sampled node voltages
//! that are measured as PWL waveforms; the macromodels reason about PWL input
//! ramps exactly as the paper does ("the inputs and outputs are shown as
//! piecewise-linear", §3).

use proxim_obs::json::{CodecError, FromJson, Json, ToJson};
use std::fmt;

/// The direction of a signal transition or threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
        self.crossings(threshold)
            .into_iter()
            .find(|&(_, e)| e == edge)
            .map(|(t, _)| t)
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
        let (first_th, second_th) = match edge {
            Edge::Rising => (v_lo, v_hi),
            Edge::Falling => (v_hi, v_lo),
        };
        let t_first = self.first_crossing(first_th, edge)?;
        let t_second = self
            .crossings(second_th)
            .into_iter()
            .find(|&(t, e)| e == edge && t >= t_first)
            .map(|(t, _)| t)?;
        Some(t_second - t_first)
    }
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
    let below0 = v0 < threshold;
    let below1 = v1 < threshold;
    if below0 != below1 && v1 != v0 {
        let t = t0 + (threshold - v0) * (t1 - t0) / (v1 - v0);
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
    fn edge_opposite_and_display() {
        assert_eq!(Edge::Rising.opposite(), Edge::Falling);
        assert_eq!(Edge::Falling.opposite(), Edge::Rising);
        assert_eq!(Edge::Rising.to_string(), "rising");
    }
}
