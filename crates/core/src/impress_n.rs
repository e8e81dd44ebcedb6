//! ImPress-N: the naive, integer-valued implicit Row-Press mitigation (§V).
//!
//! ImPress-N divides time into windows of `tRC`. A row that is open for an entire
//! window is treated as having caused one additional activation in that window and is
//! fed to the Rowhammer tracker like any other ACT. The hardware needs only a window
//! timer and an Open-Row-Address (ORA) register per bank (4 bytes).
//!
//! The model reports a closure's window activations as one *counted* event
//! ([`TrackedActivation::units`]) rather than one unit event per window: a row
//! pressed up to the refresh-postponement cap spans ~400 windows, and the tracker
//! absorbs the whole count through [`RowTracker::record_run`], which is defined to
//! behave exactly like that many unit records.
//!
//! [`RowTracker::record_run`]: impress_trackers::RowTracker::record_run
//!
//! Because sub-`tRC` Row-Press escapes this accounting, an attacker can keep each
//! round's extra open time just under one window (the decoy pattern of Figure 10) and
//! the tolerated threshold drops to `TRH / (1 + α)` (Equation 5). The tracker therefore
//! has to be re-targeted to that reduced threshold, exactly like ExPress — but unlike
//! ExPress, ImPress-N never restricts the row-open time, so it also works for in-DRAM
//! trackers.

use impress_dram::address::RowId;
use impress_dram::bank::ClosedRow;
use impress_dram::timing::{Cycle, DramTimings};

use crate::clm::Alpha;
use crate::defense::{RowPressDefense, TrackedActivation};

/// The ImPress-N defense for one bank.
#[derive(Debug, Clone)]
pub struct ImpressN {
    /// Window length (`tRC`).
    t_rc: Cycle,
    /// Row-open latency: a row only appears "open" in the ORA snapshot once its ACT has
    /// completed (`tACT` after the command), which is what the Figure 10 evasion abuses.
    t_act: Cycle,
    /// α assumed when re-targeting the tracker (Equation 5).
    alpha: f64,
    /// Extra window-activations emitted so far (for statistics).
    window_activations: u64,
}

impl ImpressN {
    /// Creates an ImPress-N defense with the given α assumption and DRAM timings.
    pub fn new(alpha: impl Into<Alpha>, timings: &DramTimings) -> Self {
        let alpha = alpha.into().value();
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "alpha must be non-negative"
        );
        Self {
            t_rc: timings.t_rc,
            t_act: timings.t_act,
            alpha,
            window_activations: 0,
        }
    }

    /// The device-independent configuration (α = 1), which halves the tracker's target
    /// threshold.
    pub fn conservative(timings: &DramTimings) -> Self {
        Self::new(Alpha::Conservative, timings)
    }

    /// Number of synthetic window activations emitted so far.
    pub fn window_activations(&self) -> u64 {
        self.window_activations
    }

    /// Equation 5: the effective threshold relative to TRH when the attacker uses the
    /// sub-window evasion pattern.
    pub fn effective_threshold_scale(alpha: impl Into<Alpha>) -> f64 {
        1.0 / (1.0 + alpha.into().value())
    }

    /// Number of full `tRC` windows the ORA register observes the row as continuously
    /// open, i.e. how many synthetic ACTs ImPress-N generates for this row closure.
    fn full_windows(&self, closed: &ClosedRow) -> u64 {
        // The row is visible as "open" from the end of its activation until the close.
        let open_from = closed.opened_at + self.t_act;
        if closed.closed_at <= open_from {
            return 0;
        }
        // Window boundaries are multiples of tRC. The ORA samples the open row at each
        // boundary; the row counts once per *pair* of consecutive boundaries it spans.
        let boundaries = closed.closed_at / self.t_rc - open_from / self.t_rc;
        boundaries.saturating_sub(1)
    }
}

impl RowPressDefense for ImpressN {
    fn on_activate(&mut self, row: RowId, _now: Cycle, out: &mut Vec<TrackedActivation>) {
        out.push(TrackedActivation::unit(row));
    }

    fn on_close(&mut self, closed: &ClosedRow, out: &mut Vec<TrackedActivation>) {
        let mut n = self.full_windows(closed);
        self.window_activations += n;
        // One counted event per closure (split only past u32::MAX windows).
        while n > 0 {
            let count = u32::try_from(n).unwrap_or(u32::MAX);
            out.push(TrackedActivation::units(closed.row, count));
            n -= u64::from(count);
        }
    }

    fn tracker_threshold_scale(&self) -> f64 {
        Self::effective_threshold_scale(self.alpha)
    }

    fn name(&self) -> &'static str {
        "ImPress-N"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_trackers::Eact;
    use proptest::prelude::*;

    fn timings() -> DramTimings {
        DramTimings::ddr5()
    }

    fn closed(opened_at: Cycle, closed_at: Cycle) -> ClosedRow {
        ClosedRow {
            row: 7,
            open_cycles: closed_at - opened_at,
            opened_at,
            closed_at,
        }
    }

    fn close_events(d: &mut ImpressN, c: &ClosedRow) -> Vec<TrackedActivation> {
        let mut out = Vec::new();
        d.on_close(c, &mut out);
        out
    }

    /// Window activations a closure emitted, summed over its counted events.
    fn windows(events: &[TrackedActivation]) -> u64 {
        events.iter().map(|e| u64::from(e.count)).sum()
    }

    #[test]
    fn rowhammer_access_emits_no_window_activation() {
        let t = timings();
        let mut d = ImpressN::conservative(&t);
        // A minimum-length access never spans a full window.
        let events = close_events(&mut d, &closed(0, t.t_ras));
        assert!(events.is_empty());
    }

    #[test]
    fn row_open_for_full_window_counts_once() {
        let t = timings();
        let mut d = ImpressN::conservative(&t);
        // Open at the start of window 0, closed in window 2: fully covers window 1.
        let events = close_events(&mut d, &closed(0, 2 * t.t_rc + 10));
        assert_eq!(events, vec![TrackedActivation::unit(7)]);
    }

    #[test]
    fn long_open_row_counts_once_per_window() {
        let t = timings();
        let mut d = ImpressN::conservative(&t);
        // Open for ~10 windows starting mid-window.
        let start = t.t_rc / 2;
        let events = close_events(&mut d, &closed(start, start + 10 * t.t_rc));
        // One counted event carries all nine windows.
        assert_eq!(events, vec![TrackedActivation::units(7, 9)]);
        assert_eq!(windows(&events), 9);
        assert_eq!(d.window_activations(), 9);
    }

    #[test]
    fn figure10_evasion_pattern_is_not_detected() {
        // The attacker issues the ACT just before a window boundary so the row is not
        // yet open when the ORA samples, keeps it open for tRC + tRAS, and closes it via
        // a decoy before the second boundary it would otherwise span.
        let t = timings();
        let mut d = ImpressN::conservative(&t);
        let boundary = 100 * t.t_rc;
        let opened_at = boundary - t.t_act / 2; // ACT completes just after the boundary
        let closed_at = opened_at + t.t_rc + t.t_ras;
        let events = close_events(&mut d, &closed(opened_at, closed_at));
        assert!(
            events.is_empty(),
            "evasion pattern should produce no window activations"
        );
    }

    #[test]
    fn equation5_threshold_scale() {
        assert!((ImpressN::effective_threshold_scale(1.0) - 0.5).abs() < 1e-12);
        assert!((ImpressN::effective_threshold_scale(0.35) - 1.0 / 1.35).abs() < 1e-12);
        let t = timings();
        assert!((ImpressN::new(0.35, &t).tracker_threshold_scale() - 0.7407).abs() < 1e-3);
    }

    #[test]
    fn no_tmro_restriction() {
        let t = timings();
        let d = ImpressN::conservative(&t);
        assert_eq!(d.max_row_open(), None);
    }

    proptest! {
        /// The number of synthetic ACTs never exceeds the open time divided by tRC, and
        /// undercounts it by at most 2 windows (the unmitigated sub-tRC residue).
        #[test]
        fn window_count_is_within_one_of_open_time(opened in 0u64..10_000_000, open_for in 96u64..2_000_000) {
            let t = timings();
            let mut d = ImpressN::conservative(&t);
            let events = close_events(&mut d, &closed(opened, opened + open_for));
            let n = windows(&events);
            let exact = open_for / t.t_rc;
            prop_assert!(n <= exact);
            prop_assert!(n + 2 >= exact);
            prop_assert_eq!(n, d.window_activations());
            // At most one counted event per closure, and never an empty one.
            prop_assert!(events.len() <= 1);
            prop_assert!(events.iter().all(|e| e.count > 0 && e.row == 7 && e.eact == Eact::ONE));
        }
    }
}
