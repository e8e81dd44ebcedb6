//! PRAC: Per-Row Activation Counting (§VI-F extension).
//!
//! JEDEC's DDR5 update (JESD79-5C) adds Per-Row Activation Counting, where the DRAM
//! array stores an activation counter alongside every row and raises a back-off alert
//! when a counter crosses a threshold. The paper notes (§VI-F) that ImPress applies
//! directly: reserve 7 bits of the per-row counter for the fractional part of EACT.
//!
//! This module models PRAC as an idealized per-row counter table (the full array would
//! be one counter per row; the model stores only touched rows, in an open-addressed
//! [`FlatCounterTable`] so the per-activation path is a single linear probe instead of
//! a SipHash `HashMap` lookup).

use impress_dram::address::RowId;
use impress_dram::timing::Cycle;

use crate::analysis::prac_counter_bits;
use crate::eact::{Eact, RolledRun, CANONICAL_FRAC_BITS};
use crate::flat::FlatCounterTable;
use crate::storage::StorageEstimate;
use crate::tracker::{MitigationRequest, RowTracker, TrackerKind};

/// The PRAC tracker for a single bank.
#[derive(Debug, Clone)]
pub struct Prac {
    threshold: u64,
    /// Mitigation is triggered when a counter reaches this many activations
    /// (a safety margin below the threshold, as PRAC's ABO protocol mitigates early).
    alert_threshold: u64,
    frac_bits: u32,
    rows_per_bank: u32,
    counters: FlatCounterTable,
    mitigations: u64,
}

impl Prac {
    /// Creates a PRAC tracker that alerts at half the Rowhammer threshold (so victims
    /// are refreshed with margin), with ImPress-P fractional counter bits.
    pub fn for_threshold(threshold: u64, frac_bits: u32, rows_per_bank: u32) -> Self {
        assert!(threshold >= 2, "threshold must be at least 2");
        assert!(
            frac_bits <= CANONICAL_FRAC_BITS,
            "at most {CANONICAL_FRAC_BITS} fractional bits are supported"
        );
        Self {
            threshold,
            alert_threshold: (threshold / 2).max(1),
            frac_bits,
            rows_per_bank,
            counters: FlatCounterTable::new(),
            mitigations: 0,
        }
    }

    /// Number of mitigations issued so far.
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }

    /// The current activation count of `row` (whole activations).
    pub fn count(&self, row: RowId) -> u64 {
        self.counters.get(row).activations()
    }

    fn quantize(&self, eact: Eact) -> Eact {
        if self.frac_bits >= CANONICAL_FRAC_BITS {
            eact
        } else {
            let drop = CANONICAL_FRAC_BITS - self.frac_bits;
            let truncated = (eact.raw() >> drop) << drop;
            Eact::from_raw(truncated.max(Eact::ONE.raw()))
        }
    }
}

impl RowTracker for Prac {
    fn record(&mut self, row: RowId, eact: Eact, now: Cycle) -> Option<MitigationRequest> {
        let eact = self.quantize(eact);
        let counter = self.counters.add(row, eact);
        if counter.reached(self.alert_threshold) {
            self.counters.reset(row);
            self.mitigations += 1;
            Some(MitigationRequest {
                aggressor: row,
                identified_at: now,
            })
        } else {
            None
        }
    }

    fn record_run(
        &mut self,
        row: RowId,
        eact: Eact,
        count: u32,
        now: Cycle,
        out: &mut Vec<MitigationRequest>,
    ) {
        if count == 0 {
            return;
        }
        // One probe, then the reset-to-zero rule in closed form.
        let slot = self.counters.slot_of(row);
        let run = RolledRun::compute(
            self.counters.counter_raw_at(slot),
            u64::from(self.quantize(eact).raw()),
            count,
            self.alert_threshold,
            0,
        );
        self.counters.set_counter_raw_at(slot, run.final_raw);
        if run.crossings > 0 {
            self.mitigations += run.crossings;
            out.extend((0..run.crossings).map(|_| MitigationRequest {
                aggressor: row,
                identified_at: now,
            }));
            self.counters.recompute_max();
        }
    }

    fn headroom(&self) -> u64 {
        let alert_raw = self
            .alert_threshold
            .saturating_mul(u64::from(Eact::ONE.raw()));
        // Counters are independent (no spillover), so absorbing total weight W
        // raises the maximum by at most W: W <= alert_raw - 1 - max is safe.
        alert_raw
            .saturating_sub(1)
            .saturating_sub(self.counters.max_raw())
    }

    fn on_refresh_window(&mut self, _now: Cycle) {
        self.counters.clear();
    }

    fn kind(&self) -> TrackerKind {
        TrackerKind::Prac
    }

    fn storage(&self) -> StorageEstimate {
        // One counter per row, stored in the DRAM array itself (not SRAM).
        StorageEstimate::per_entry(
            u64::from(self.rows_per_bank),
            prac_counter_bits(self.threshold) + self.frac_bits,
        )
    }

    fn configured_threshold(&self) -> u64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alerts_at_half_threshold() {
        let mut prac = Prac::for_threshold(4_000, 0, 1 << 16);
        let mut first_alert = None;
        for i in 0..3_000u64 {
            if prac.record(9, Eact::ONE, i * 128).is_some() {
                first_alert = Some(i + 1);
                break;
            }
        }
        assert_eq!(first_alert, Some(2_000));
    }

    #[test]
    fn independent_rows_have_independent_counters() {
        let mut prac = Prac::for_threshold(4_000, 0, 1 << 16);
        for i in 0..1_000u64 {
            prac.record(1, Eact::ONE, i);
            prac.record(2, Eact::ONE, i);
        }
        assert_eq!(prac.count(1), 1_000);
        assert_eq!(prac.count(2), 1_000);
        assert_eq!(prac.mitigations(), 0);
    }

    #[test]
    fn fractional_eact_counts_precisely() {
        let mut prac = Prac::for_threshold(100, 7, 1 << 16);
        // 1.25 EACT per record: alert threshold of 50 is reached after 40 records.
        let mut alerts = 0;
        for i in 0..40u64 {
            if prac.record(3, Eact::from_f64(1.25, 7), i).is_some() {
                alerts += 1;
            }
        }
        assert_eq!(alerts, 1);
    }

    #[test]
    fn refresh_window_clears_counters() {
        let mut prac = Prac::for_threshold(4_000, 0, 1 << 16);
        prac.record(5, Eact::ONE, 0);
        prac.on_refresh_window(100);
        assert_eq!(prac.count(5), 0);
    }

    #[test]
    fn storage_counts_every_row() {
        let prac = Prac::for_threshold(4_000, 7, 1 << 16);
        // 12-bit counter + 7 fractional bits per row, stored in-array.
        assert_eq!(prac.storage().bits_per_entry, 19);
        assert_eq!(prac.storage().entries_per_bank, 1 << 16);
    }
}
