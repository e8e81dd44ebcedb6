//! The [`RowPressDefense`] trait: how Row-Press activity is converted into tracker input.
//!
//! A defense sits between the memory controller (or the DRAM command decoder, for
//! in-DRAM trackers) and the Rowhammer tracker. It observes row activations and row
//! closures and produces the stream of [`TrackedActivation`]s that the tracker consumes:
//!
//! * **No-RP** (baseline): every ACT becomes one unit activation; row-open time ignored.
//! * **ExPress** (§II-E): like No-RP, but the controller must additionally cap the row
//!   open time at `tMRO` and the tracker must be re-targeted to the reduced threshold T*.
//! * **ImPress-N** (§V): every ACT becomes one unit activation, and every full `tRC`
//!   window a row stays open adds one more unit activation (ORA semantics). The
//!   window activations of one closure arrive as a single *counted* event.
//! * **ImPress-P** (§VI): nothing is emitted at ACT; at row close one activation with
//!   the measured `EACT = (tON + tPRE)/tRC` is emitted.

use std::fmt;

use impress_dram::address::RowId;
use impress_dram::bank::ClosedRow;
use impress_dram::timing::Cycle;
use impress_trackers::Eact;

/// One tracker-visible activation event produced by a defense.
///
/// An event stands for `count` back-to-back activations of `row`, each weighing
/// `eact`, recorded at one timestamp. `count` is 1 except for ImPress-N's window
/// activations: a row open for n full `tRC` windows yields one event with
/// `count = n`, which the engine hands to [`RowTracker::record_run`] — exactly
/// n unit records, at O(1) instead of O(n) cost for the counter trackers.
///
/// [`RowTracker::record_run`]: impress_trackers::RowTracker::record_run
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackedActivation {
    /// The aggressor row the event is attributed to.
    pub row: RowId,
    /// The equivalent activation count of each activation.
    pub eact: Eact,
    /// How many activations the event stands for.
    pub count: u32,
}

impl TrackedActivation {
    /// A single conventional activation of `row`.
    pub fn unit(row: RowId) -> Self {
        Self::units(row, 1)
    }

    /// `count` conventional activations of `row`, as one counted event.
    pub fn units(row: RowId, count: u32) -> Self {
        Self {
            row,
            eact: Eact::ONE,
            count,
        }
    }
}

/// A Row-Press defense: converts ACT/close events into tracker input.
///
/// Implementations are per-bank (they may carry per-bank state such as ImPress-N's
/// window/ORA registers).
///
/// Both event hooks append to a caller-provided buffer instead of returning a fresh
/// `Vec`: these methods sit in the innermost activation loop of the simulator, and the
/// caller ([`BankMitigationEngine`](crate::engine::BankMitigationEngine)) reuses one
/// scratch buffer for the whole run.
///
/// `Send` is a supertrait because defenses live inside `ChannelShard`s, which the
/// epoch-phased system loop moves across worker threads between refresh epochs.
pub trait RowPressDefense: fmt::Debug + Send {
    /// Called when the bank activates `row` at cycle `now`; appends the activations the
    /// tracker should record immediately to `out`.
    fn on_activate(&mut self, row: RowId, now: Cycle, out: &mut Vec<TrackedActivation>);

    /// Called when a row is closed (by precharge, refresh, or RFM); appends the
    /// activations the tracker should record for the row's open time to `out`.
    fn on_close(&mut self, closed: &ClosedRow, out: &mut Vec<TrackedActivation>);

    /// Whether [`RowPressDefense::on_activate`] ever appends an event or
    /// changes the defense's state. The engine skips the call for a defense
    /// that answers `false`; it still advances the refresh window at every
    /// activation.
    ///
    /// The default is `true`. ImPress-P, which records only at row close,
    /// answers `false`.
    fn records_on_activate(&self) -> bool {
        true
    }

    /// The maximum row-open time the memory controller must enforce, if any.
    ///
    /// Only ExPress constrains this; returning `Some` makes the defense incompatible
    /// with in-DRAM trackers (the tMRO value is not visible inside the DRAM device).
    fn max_row_open(&self) -> Option<Cycle> {
        None
    }

    /// The factor by which the underlying tracker's target threshold must be scaled
    /// (T*/TRH) so that the system still tolerates the nominal Rowhammer threshold.
    ///
    /// 1.0 means the tracker keeps its original configuration (No-RP, ImPress-P).
    fn tracker_threshold_scale(&self) -> f64 {
        1.0
    }

    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;
}

/// The unprotected baseline: Rowhammer tracking only, no Row-Press awareness.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRowPressDefense;

impl NoRowPressDefense {
    /// Creates the baseline defense.
    pub fn new() -> Self {
        Self
    }
}

impl RowPressDefense for NoRowPressDefense {
    fn on_activate(&mut self, row: RowId, _now: Cycle, out: &mut Vec<TrackedActivation>) {
        out.push(TrackedActivation::unit(row));
    }

    fn on_close(&mut self, _closed: &ClosedRow, _out: &mut Vec<TrackedActivation>) {}

    fn name(&self) -> &'static str {
        "No-RP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_rp_emits_one_unit_per_activation() {
        let mut d = NoRowPressDefense::new();
        let mut events = Vec::new();
        d.on_activate(42, 0, &mut events);
        assert_eq!(events, vec![TrackedActivation::unit(42)]);
        let closed = ClosedRow {
            row: 42,
            open_cycles: 10_000,
            opened_at: 0,
            closed_at: 10_000,
        };
        events.clear();
        d.on_close(&closed, &mut events);
        assert!(events.is_empty());
        assert_eq!(d.max_row_open(), None);
        assert_eq!(d.tracker_threshold_scale(), 1.0);
    }
}
