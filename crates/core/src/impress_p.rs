//! ImPress-P: the precise implicit Row-Press mitigation (§VI), the paper's main design.
//!
//! ImPress-P measures how long every row stays open (a single 10-bit timer per bank)
//! and converts the measurement into an Equivalent Activation Count,
//! `EACT = (tON + tPRE) / tRC`, which is fed to the Rowhammer tracker *instead of* the
//! plain activation. Counter-based trackers add EACT to their counters; probabilistic
//! trackers scale their selection probability by EACT. Because the accounting is exact
//! (up to the number of fractional bits kept), the tolerated Rowhammer threshold is not
//! reduced and no limit is placed on the row-open time.

use impress_dram::address::RowId;
use impress_dram::bank::ClosedRow;
use impress_dram::timing::{Cycle, DramTimings};
use impress_trackers::eact::{Eact, CANONICAL_FRAC_BITS};

use crate::defense::{RowPressDefense, TrackedActivation};

/// The ImPress-P defense for one bank.
#[derive(Debug, Clone)]
pub struct ImpressP {
    t_pre: Cycle,
    t_rc: Cycle,
    frac_bits: u32,
    total_eact_raw: u64,
    closes: u64,
}

impl ImpressP {
    /// Creates an ImPress-P defense keeping `frac_bits` fractional EACT bits
    /// (the paper's default is 7, giving exact accounting).
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits > 7`.
    pub fn new(frac_bits: u32, timings: &DramTimings) -> Self {
        assert!(
            frac_bits <= CANONICAL_FRAC_BITS,
            "at most {CANONICAL_FRAC_BITS} fractional bits are supported"
        );
        Self {
            t_pre: timings.t_pre,
            t_rc: timings.t_rc,
            frac_bits,
            total_eact_raw: 0,
            closes: 0,
        }
    }

    /// The paper's default configuration (7 fractional bits).
    pub fn paper_default(timings: &DramTimings) -> Self {
        Self::new(CANONICAL_FRAC_BITS, timings)
    }

    /// Number of fractional EACT bits kept.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// The average EACT per row closure observed so far (1.0 for pure Rowhammer traffic).
    pub fn average_eact(&self) -> f64 {
        if self.closes == 0 {
            0.0
        } else {
            self.total_eact_raw as f64 / f64::from(1u32 << CANONICAL_FRAC_BITS) / self.closes as f64
        }
    }

    /// Figure 12: the effective threshold (relative to TRH) as a function of the number
    /// of fractional counter bits.
    ///
    /// With 7 bits the accounting is exact (`tRC` is 128 cycles) and there is no
    /// reduction. With `b < 7` bits the quantization error per access is at most
    /// `2^-b` of an activation, so the effective threshold is `1 − 2^-b`; with zero
    /// bits ImPress-P degenerates to ImPress-N and the α = 1 bound of Equation 5
    /// (0.5) applies.
    pub fn effective_threshold_scale(frac_bits: u32) -> f64 {
        if frac_bits >= CANONICAL_FRAC_BITS {
            return 1.0;
        }
        let precision = 1.0 - 1.0 / f64::from(1u32 << frac_bits);
        precision.max(0.5)
    }
}

impl RowPressDefense for ImpressP {
    fn on_activate(&mut self, _row: RowId, _now: Cycle, _out: &mut Vec<TrackedActivation>) {
        // Nothing is recorded at ACT time: the EACT (which is always >= 1 and therefore
        // subsumes the activation itself) is recorded when the row closes and its open
        // time is known.
    }

    fn on_close(&mut self, closed: &ClosedRow, out: &mut Vec<TrackedActivation>) {
        let eact = Eact::from_open_time(closed.open_cycles, self.t_pre, self.t_rc, self.frac_bits);
        self.total_eact_raw += u64::from(eact.raw());
        self.closes += 1;
        out.push(TrackedActivation {
            row: closed.row,
            eact,
            count: 1,
        });
    }

    fn name(&self) -> &'static str {
        "ImPress-P"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timings() -> DramTimings {
        DramTimings::ddr5()
    }

    fn closed(open_cycles: Cycle) -> ClosedRow {
        ClosedRow {
            row: 9,
            open_cycles,
            opened_at: 0,
            closed_at: open_cycles,
        }
    }

    fn close_events(d: &mut ImpressP, c: &ClosedRow) -> Vec<TrackedActivation> {
        let mut out = Vec::new();
        d.on_close(c, &mut out);
        out
    }

    #[test]
    fn minimum_access_has_eact_one() {
        let t = timings();
        let mut d = ImpressP::paper_default(&t);
        let mut events = Vec::new();
        d.on_activate(9, 0, &mut events);
        assert!(events.is_empty());
        let events = close_events(&mut d, &closed(t.t_ras));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].eact, Eact::ONE);
    }

    #[test]
    fn long_open_row_yields_proportional_eact() {
        let t = timings();
        let mut d = ImpressP::paper_default(&t);
        // Open for tRAS + 9*tRC: total time (tON + tPRE) = 10*tRC => EACT = 10.
        let events = close_events(&mut d, &closed(t.t_ras + 9 * t.t_rc));
        assert!((events[0].eact.as_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_open_time_is_captured() {
        let t = timings();
        let mut d = ImpressP::paper_default(&t);
        let events = close_events(&mut d, &closed(t.t_ras + t.t_rc / 2));
        assert!((events[0].eact.as_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn zero_frac_bits_truncates_like_impress_n() {
        let t = timings();
        let mut d = ImpressP::new(0, &t);
        let events = close_events(&mut d, &closed(t.t_ras + t.t_rc / 2));
        assert_eq!(events[0].eact.as_f64(), 1.0);
    }

    #[test]
    fn figure12_effective_threshold_curve() {
        // 7 bits: exact (1.0); 6 bits: 0.984; 5: 0.969; 4: 0.9375; 0: degenerates to 0.5.
        assert_eq!(ImpressP::effective_threshold_scale(7), 1.0);
        assert!((ImpressP::effective_threshold_scale(6) - 0.984375).abs() < 1e-6);
        assert!((ImpressP::effective_threshold_scale(5) - 0.96875).abs() < 1e-6);
        assert!((ImpressP::effective_threshold_scale(4) - 0.9375).abs() < 1e-6);
        assert_eq!(ImpressP::effective_threshold_scale(1), 0.5);
        assert_eq!(ImpressP::effective_threshold_scale(0), 0.5);
    }

    #[test]
    fn tracker_threshold_is_not_reduced() {
        let t = timings();
        let d = ImpressP::paper_default(&t);
        assert_eq!(d.tracker_threshold_scale(), 1.0);
        assert_eq!(d.max_row_open(), None);
    }

    #[test]
    fn average_eact_tracks_traffic() {
        let t = timings();
        let mut d = ImpressP::paper_default(&t);
        close_events(&mut d, &closed(t.t_ras));
        close_events(&mut d, &closed(t.t_ras + 2 * t.t_rc));
        assert!((d.average_eact() - 2.0).abs() < 1e-9);
    }
}
