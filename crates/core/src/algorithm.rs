//! The `ProximityDelay` composition algorithm (§4, Fig. 4-1).
//!
//! Inputs are ranked by dominance and folded in two at a time: after
//! processing inputs `y₁..y_{i-1}`, their cumulative effect is replaced by
//! an *equivalent waveform* `y*` — the dominant input time-shifted by
//! `Δ⁽¹⁾ − Δ^{(i-1)}` so that `y*` alone would cross the output threshold
//! exactly when the cumulative response does (eq. 4.3). The dual-input
//! macromodel is then applied to `(y*, y_i)` (eq. 4.4), giving the
//! perturbation update of eq. 4.5:
//!
//! ```text
//! Δ^{(i)} = Δ^{(i-1)} + Δ⁽¹⁾ · [ D⁽²⁾(τ₁/Δ⁽¹⁾, τᵢ/Δ⁽¹⁾, s*/Δ⁽¹⁾) − 1 ]
//! ```
//!
//! with `s* = s_{y₁yᵢ} + Δ⁽¹⁾ − Δ^{(i-1)}`. Iteration stops at the first
//! input outside the proximity window. A characterized correction term
//! (full at `s_{y₁y_m} ≤ 0`, decaying linearly to zero at
//! `s_{y₁y_m} = Δ^{(m-1)}`) absorbs the two known failure modes: identical
//! simultaneous inputs, and a dominant input arriving very late in the
//! window.

use crate::dominance::RankedEvent;
use crate::dual::DualInputModel;
use proxim_obs::json::{FromJson, ToJson};

/// The characterized simultaneous-step correction for one output edge.
#[derive(Debug, Clone, Copy, PartialEq, Default, ToJson, FromJson)]
pub struct CorrectionTerm {
    /// Signed delay correction at full strength, in seconds.
    pub delay: f64,
    /// Signed output-transition-time correction at full strength, in seconds.
    pub trans: f64,
}

/// The result of one `ProximityDelay` composition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProximityOutcome {
    /// The dominant input pin the delay is referenced to.
    pub reference_pin: usize,
    /// Composed propagation delay from the dominant input's arrival.
    pub delay: f64,
    /// Composed output transition time.
    pub trans: f64,
    /// Absolute output arrival time (`dominant arrival + delay`).
    pub output_arrival: f64,
    /// How many inputs fell inside the delay proximity window (≥ 1).
    pub inputs_in_window: usize,
    /// The correction actually added to the delay, in seconds.
    pub correction_applied: f64,
}

/// Runs the composition over dominance-ranked events.
///
/// `lookup(dominant_pin, partner_pin)` supplies the dual-input macromodel
/// used to fold `partner_pin` onto `dominant_pin` (for the scenario's input
/// edge). Under the paper's `2n` scheme the partner argument is ignored
/// (one model per dominant pin); with a full pair matrix every ordered pair
/// resolves to its own model. When the lookup returns `None` (e.g. a
/// one-input cell) the outcome degenerates to the single-input response.
///
/// `or_like` selects the conduction style (see
/// [`crate::dominance::rank_for_scenario`]): for OR-like conduction the
/// paper's proximity windows apply (a partner later than `Δ⁽¹⁾` cannot
/// affect delay, later than `Δ⁽¹⁾ + τ⁽¹⁾` cannot affect the edge); for
/// AND-like conduction partners arrive at non-positive effective
/// separations and their influence fades through the table itself.
///
/// `correction` is applied unless `use_correction` is false (ablation).
///
/// # Panics
///
/// Panics if `ranked` is empty, or (for OR-like scenarios) not sorted by
/// dominance.
pub fn compose<'a>(
    ranked: &[RankedEvent],
    lookup: &dyn Fn(usize, usize) -> Option<&'a DualInputModel>,
    correction: CorrectionTerm,
    use_correction: bool,
    or_like: bool,
) -> ProximityOutcome {
    // The ordering is the caller's choice: rank_for_scenario implements the
    // paper's rule, but alternative orderings are deliberately allowed (the
    // dominance ablation feeds naive arrival order through this same path).
    assert!(!ranked.is_empty(), "compose requires at least one event");

    let y1 = &ranked[0];
    let d1 = y1.d1;
    let tau1 = y1.event.transition_time();
    let t1_arr = y1.arrival;

    let mut delta = d1;
    // Output-edge "conductance" in units of the dominant input's single-input
    // drive: the cumulative transition time is τ⁽¹⁾ / g_edge.
    let mut g_edge = 1.0f64;
    let mut delta_prev = d1; // Δ^{(m-1)}: cumulative delay before the last fold
    let mut m_sep = 0.0; // s_{y1,ym}: separation of the last folded input
    let mut processed = 1usize;

    for e in &ranked[1..] {
        let s = e.arrival - t1_arr;
        if or_like {
            let in_delay_window = s < delta;
            let in_trans_window = s < delta + y1.t1 / g_edge;
            if !in_delay_window && !in_trans_window {
                break;
            }
        }
        let Some(dual) = lookup(y1.event.pin, e.event.pin) else {
            break;
        };

        // Equivalent-waveform shift: measure the partner's separation from
        // y* rather than from y1 (eq. 4.3/4.4).
        let s_star = s + d1 - delta;
        let u1 = tau1 / d1;
        let v = e.event.transition_time() / d1;
        let w = s_star / d1;

        let in_delay_window = if or_like { s < delta } else { true };
        if in_delay_window {
            let ratio = if or_like {
                dual.delay_ratio(u1, v, w)
            } else {
                dual.delay_ratio_raw(u1, v, w)
            };
            delta_prev = delta;
            delta += d1 * (ratio - 1.0);
            m_sep = s;
            processed += 1;
        }
        // Window boundary for transition time: beyond s = Δ⁽¹⁾ + τ⁽¹⁾
        // (relative to y*) a late OR-like partner cannot affect the edge.
        // The fold is conductance-additive: a dual-input ratio T⁽²⁾ means
        // the partner contributes `1/T⁽²⁾ − 1` units of output-edge drive
        // relative to the dominant input acting alone, and transition times
        // compose as τ⁽¹⁾ over the summed drive. For a single partner this
        // reduces exactly to eq. (3.12); for small perturbations it agrees
        // with the additive form of eq. (4.5) but it does not overshoot
        // when several inputs each change the edge substantially (three
        // parallel pull-ups are 3x the drive, not the square of 2x).
        if !or_like || s_star < d1 + y1.t1 {
            let ratio_t = dual.trans_ratio(u1, v, w).max(0.05);
            g_edge = (g_edge + 1.0 / ratio_t - 1.0).max(0.05);
        }
    }

    let mut correction_applied = 0.0;
    let mut trans_correction = 0.0;
    if use_correction && processed >= 2 {
        // Full correction at the worst case (simultaneous inputs), decaying
        // linearly to zero as the last folded input leaves the window. For
        // OR-like scenarios the worst side is non-positive separation (the
        // paper's rule); for AND-like it mirrors to non-negative.
        let toward_zero = if or_like { m_sep } else { -m_sep };
        let scale = if toward_zero <= 0.0 {
            1.0
        } else if delta_prev > 0.0 {
            (1.0 - toward_zero / delta_prev).clamp(0.0, 1.0)
        } else {
            0.0
        };
        correction_applied = correction.delay * scale;
        delta += correction_applied;
        trans_correction = correction.trans * scale;
    }

    ProximityOutcome {
        reference_pin: y1.event.pin,
        delay: delta,
        trans: (y1.t1 / g_edge + trans_correction).max(0.0),
        output_arrival: t1_arr + delta,
        inputs_in_window: processed,
        correction_applied,
    }
}

/// Storage accounting for the modeling options of Figure 4-2, in table
/// entries per modeled quantity (delay or transition time).
///
/// - `Full`: `n` functions of `2n − 1` arguments, each axis sampled at
///   `grid1` points — exponential in fan-in.
/// - `PairMatrix`: `n` single-input tables of `grid1` entries plus
///   `n(n−1)` dual-input tables of `grid3`³ entries.
/// - `Paper`: the paper's `2n` macromodels — `n` single plus `n` dual.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageScheme {
    /// Direct tabulation of eq. (4.1).
    Full,
    /// One dual model per ordered pin pair (matrix 2(a) of Fig. 4-2).
    PairMatrix,
    /// The paper's choice: one dual model per dominant pin.
    Paper,
}

/// Number of stored table entries for an `n`-input gate under `scheme`,
/// with `grid1` samples per 1-D axis and `grid3` samples per dual-table
/// axis.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn storage_entries(n: usize, grid1: usize, grid3: usize, scheme: StorageScheme) -> u128 {
    assert!(n > 0, "gate needs at least one input");
    let n = n as u128;
    let g1 = grid1 as u128;
    let g3 = grid3 as u128;
    match scheme {
        StorageScheme::Full => n * g1.pow((2 * n as u32).saturating_sub(1)),
        StorageScheme::PairMatrix => n * g1 + n * (n - 1) * g3.pow(3),
        // Dual-input models only exist for fan-in >= 2.
        StorageScheme::Paper => n * g1 + if n >= 2 { n * g3.pow(3) } else { 0 },
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::measure::InputEvent;
    use proxim_numeric::pwl::Edge;

    fn ranked(pin: usize, arrival: f64, tau: f64, d1: f64, t1: f64) -> RankedEvent {
        RankedEvent {
            event: InputEvent::new(pin, Edge::Rising, arrival, tau),
            arrival,
            d1,
            t1,
        }
    }

    #[test]
    fn single_event_degenerates_to_single_input_model() {
        let r = vec![ranked(0, 1e-9, 200e-12, 300e-12, 250e-12)];
        let out = compose(&r, &|_, _| None, CorrectionTerm::default(), true, true);
        assert_eq!(out.reference_pin, 0);
        assert_eq!(out.delay, 300e-12);
        assert_eq!(out.trans, 250e-12);
        assert_eq!(out.inputs_in_window, 1);
        assert!((out.output_arrival - 1.3e-9).abs() < 1e-18);
        assert_eq!(out.correction_applied, 0.0);
    }

    #[test]
    fn partner_outside_window_is_ignored() {
        let r = vec![
            ranked(0, 0.0, 200e-12, 300e-12, 250e-12),
            // Arrives after Δ + τ — no effect even on transition time.
            ranked(1, 600e-12, 200e-12, 300e-12, 250e-12),
        ];
        let out = compose(&r, &|_, _| None, CorrectionTerm::default(), true, true);
        assert_eq!(out.delay, 300e-12);
        assert_eq!(out.inputs_in_window, 1);
    }

    #[test]
    fn correction_scale_full_at_nonpositive_separation() {
        // Build a fake dual model via characterize is heavy; instead verify
        // the scaling logic through outcomes with a zero-effect dual table.
        // With no dual model the correction cannot apply (processed == 1).
        let r = vec![
            ranked(0, 0.0, 200e-12, 300e-12, 250e-12),
            ranked(1, 0.0, 200e-12, 300e-12, 250e-12),
        ];
        let corr = CorrectionTerm {
            delay: 50e-12,
            trans: 10e-12,
        };
        let out = compose(&r, &|_, _| None, corr, true, true);
        assert_eq!(out.correction_applied, 0.0, "no dual model, no folding");
    }

    #[test]
    fn storage_paper_is_linear_in_fanin() {
        let paper4 = storage_entries(4, 8, 8, StorageScheme::Paper);
        let paper8 = storage_entries(8, 8, 8, StorageScheme::Paper);
        assert_eq!(paper8, 2 * paper4);
        // n*g1 + n*g3^3.
        assert_eq!(paper4, 4 * 8 + 4 * 512);
    }

    #[test]
    fn storage_full_explodes() {
        let full3 = storage_entries(3, 8, 8, StorageScheme::Full);
        assert_eq!(full3, 3 * 8u128.pow(5));
        assert!(
            storage_entries(4, 8, 8, StorageScheme::Full)
                > 100 * storage_entries(4, 8, 8, StorageScheme::PairMatrix)
        );
    }

    #[test]
    fn storage_matrix_vs_paper() {
        // The pair matrix stores n-1 times more dual tables.
        let m = storage_entries(5, 8, 8, StorageScheme::PairMatrix);
        let p = storage_entries(5, 8, 8, StorageScheme::Paper);
        assert_eq!(m - p, 5 * 3 * 512);
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn compose_rejects_empty() {
        compose(&[], &|_, _| None, CorrectionTerm::default(), true, true);
    }
}
