//! Mithril: in-DRAM counter-based tracking that mitigates under RFM.
//!
//! Mithril (Kim et al., HPCA 2022) keeps a Counter-based Summary (a Misra-Gries style
//! table) inside the DRAM device. The memory controller issues an RFM command every
//! `RFMTH` activations; on each RFM, Mithril refreshes the victims of the row with the
//! highest counter and rolls that counter back. Because the mitigation happens under
//! RFM, Mithril adds no performance overhead beyond the RFM commands the system already
//! issues (§ Appendix-A).
//!
//! Under ImPress-P the counters accumulate fractional [`Eact`] values (7 extra bits per
//! entry); the entry count stays the same (§VI-C).
//!
//! # Eviction and the observational-equivalence contract
//!
//! Mithril's table needs both ends of the count order: a *minimum*-count entry
//! to displace on a miss (when the minimum is at or below the spillover count)
//! and the *maximum*-count entry to mitigate under RFM. The seed found both with
//! linear scans; this implementation reads them off the two ends of a
//! [`CountSummary`] bucket list in O(1). The two agree on *when* evictions and
//! RFM mitigations happen and on every victim choice that is unambiguous (a
//! unique minimum / unique maximum); among tied counts they may pick different
//! rows, but both stay within the Misra-Gries error bound (any row's untracked
//! weight ≤ spillover ≤ total-weight/entries), so the RFM mitigation stream
//! keeps the same security guarantee. The `summary_equivalence` proptest suite
//! checks exactly this contract against a transcription of the seed, and
//! `tests/eviction_equivalence.rs` checks it through the security harness; the
//! periodic RFM roll-back (`count := spillover`, a *decrement*) is exercised by
//! the bucket-ordering round-trip properties.
//!
//! Invalid entries are claimed **before** min-count eviction, as in the seed's
//! first-invalid scan: the tracker pops an explicit free-slot list before
//! consulting the summary. An RFM roll-back to a zero spillover leaves a valid
//! zero-count entry that a validity-blind min-eviction would displace while
//! free slots remain — the priority inversion this explicit invariant (and its
//! unit test) rules out.

use impress_dram::address::RowId;
use impress_dram::timing::Cycle;

use crate::analysis::mithril_entries;
use crate::eact::{Eact, EactCounter, CANONICAL_FRAC_BITS};
use crate::index::RowSlotIndex;
use crate::storage::{StorageEstimate, COUNTER_BITS, ROW_ADDRESS_BITS};
use crate::summary::{restock_free_slots, summary_scaffolding, CountSummary};
use crate::tracker::{MitigationRequest, RowTracker, TrackerKind};

#[derive(Debug, Clone, Copy)]
struct Entry {
    row: RowId,
    count: EactCounter,
    valid: bool,
}

/// Configuration for a [`Mithril`] tracker instance.
#[derive(Debug, Clone, PartialEq)]
pub struct MithrilConfig {
    /// Rowhammer threshold this instance must tolerate.
    pub threshold: u64,
    /// RFM threshold (activations per RFM command) assumed by the sizing.
    pub rfm_threshold: u32,
    /// Number of table entries per bank.
    pub entries: usize,
    /// Number of fractional EACT bits stored per counter.
    pub frac_bits: u32,
}

impl MithrilConfig {
    /// Configuration for tolerating `threshold` at the paper's default RFMTH of 80.
    pub fn for_threshold(threshold: u64) -> Self {
        Self::with_rfm_threshold(threshold, 80)
    }

    /// Configuration for tolerating `threshold` at an explicit RFM threshold.
    pub fn with_rfm_threshold(threshold: u64, rfm_threshold: u32) -> Self {
        let entries = mithril_entries(threshold, rfm_threshold);
        Self {
            threshold,
            rfm_threshold,
            entries: entries.min(1 << 20) as usize,
            frac_bits: 0,
        }
    }

    /// Adds ImPress-P fractional counter bits to this configuration.
    pub fn with_frac_bits(mut self, frac_bits: u32) -> Self {
        self.frac_bits = frac_bits;
        self
    }
}

/// The Mithril tracker for a single bank.
#[derive(Debug, Clone)]
pub struct Mithril {
    config: MithrilConfig,
    table: Vec<Entry>,
    /// O(1) row → slot map over the valid table entries (pure acceleration of the
    /// match path; victim selection is the summary's job — see [`crate::index`]
    /// and [`crate::summary`]).
    index: RowSlotIndex,
    /// Count-ordered view of the valid entries.
    summary: CountSummary,
    /// Invalid slots awaiting their first row, popped before any eviction is
    /// considered — the explicit form of the invalid-before-eviction invariant.
    free_slots: Vec<u32>,
    spillover: EactCounter,
    mitigations: u64,
}

impl Mithril {
    /// Creates a Mithril tracker sized for `threshold` at RFMTH = 80.
    pub fn for_threshold(threshold: u64) -> Self {
        Self::new(MithrilConfig::for_threshold(threshold))
    }

    /// Creates a Mithril tracker from an explicit configuration.
    pub fn new(config: MithrilConfig) -> Self {
        let table = vec![
            Entry {
                row: 0,
                count: EactCounter::ZERO,
                valid: false,
            };
            config.entries
        ];
        let index = RowSlotIndex::for_entries(config.entries);
        let (summary, free_slots) = summary_scaffolding(config.entries);
        Self {
            config,
            table,
            index,
            summary,
            free_slots,
            spillover: EactCounter::ZERO,
            mitigations: 0,
        }
    }

    /// The configuration this tracker was built with.
    pub fn config(&self) -> &MithrilConfig {
        &self.config
    }

    /// Number of mitigations performed under RFM so far.
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }

    /// Current counter value for `row` (whole activations), if tracked.
    pub fn tracked_count(&self, row: RowId) -> Option<u64> {
        self.index
            .get(row)
            .map(|slot| self.table[slot].count.activations())
    }

    /// Current raw (Q7 fixed-point) counter value for `row`, if tracked — the
    /// exact quantity the equivalence and error-bound suites reason about.
    pub fn tracked_raw(&self, row: RowId) -> Option<u64> {
        self.index.get(row).map(|slot| self.table[slot].count.raw())
    }

    /// Raw (Q7 fixed-point) spillover count — the Misra-Gries error term.
    pub fn spillover_raw(&self) -> u64 {
        self.spillover.raw()
    }

    fn quantize(&self, eact: Eact) -> Eact {
        if self.config.frac_bits >= CANONICAL_FRAC_BITS {
            eact
        } else {
            let drop = CANONICAL_FRAC_BITS - self.config.frac_bits;
            Eact::from_raw((eact.raw() >> drop) << drop)
        }
    }

    /// Claims a slot for the missing `row` and installs it at `count`: an
    /// invalid slot off the free list first (the explicit invalid-before-eviction
    /// invariant), else the minimum-count entry when it is at or below the
    /// spillover count — displaceable exactly when the seed's scan would displace
    /// its minimum. Returns `None`, leaving everything untouched, when no entry
    /// is displaceable. `position` is the miss position
    /// [`RowSlotIndex::locate`] returned; the insert happens before the victim is
    /// removed, keeping it valid.
    // `record` takes this path on every miss of a churn stream; keep it free
    // of a call.
    #[inline(always)]
    fn claim_slot_summary(
        &mut self,
        row: RowId,
        count: EactCounter,
        position: usize,
    ) -> Option<usize> {
        let slot = if let Some(free) = self.free_slots.pop() {
            let slot = free as usize;
            self.index.insert_at(position, row, slot);
            self.summary.attach(slot, count.raw());
            slot
        } else {
            // The fused call checks the eviction condition, unlinks the victim
            // and re-links it at the new count in one pass.
            let slot = self
                .summary
                .evict_min_if_at_most(self.spillover.raw(), count.raw())?;
            debug_assert!(
                self.free_slots.is_empty(),
                "eviction considered while invalid slots remain"
            );
            self.index.insert_at(position, row, slot);
            self.index.remove(self.table[slot].row);
            slot
        };
        self.table[slot] = Entry {
            row,
            count,
            valid: true,
        };
        Some(slot)
    }

    /// Resolves one slot for [`RowTracker::record_run`]'s `count` events of
    /// `row`, each weighing the quantized `eact`. On a miss the per-record
    /// claim attempts are replayed exactly: each failed attempt spills one
    /// event's weight; the claiming attempt installs at spillover + eact,
    /// absorbing its own event.
    ///
    /// Returns the slot and the number of events consumed (spilled or
    /// absorbed by the claim), or `None` when every event spilled.
    fn resolve_run_slot(&mut self, row: RowId, count: u32, eact: Eact) -> Option<(usize, u32)> {
        // `position` stays valid across failed attempts: a failed claim only
        // grows the spillover counter.
        let position = match self.index.locate(row) {
            Ok(slot) => return Some((slot, 0)),
            Err(position) => position,
        };
        for k in 0..count {
            let mut claimed = self.spillover;
            claimed.add(eact);
            if let Some(slot) = self.claim_slot_summary(row, claimed, position) {
                return Some((slot, k + 1));
            }
            self.spillover.add(eact);
        }
        None
    }

    /// Adds `weight` (raw Q7) to `slot`'s counter with one summary splice.
    fn add_to_slot(&mut self, slot: usize, weight: u64) {
        if weight > 0 {
            let final_raw = self.table[slot].count.raw().saturating_add(weight);
            self.table[slot].count = EactCounter::from_raw(final_raw);
            self.summary.set_count(slot, final_raw);
        }
    }
}

impl RowTracker for Mithril {
    fn record(&mut self, row: RowId, eact: Eact, _now: Cycle) -> Option<MitigationRequest> {
        let eact = self.quantize(eact);
        // The match path is O(1) via the row → slot index; only when the row is
        // absent does the summary pick a slot, also in O(1). `locate` hands the
        // miss position straight to the claim, so a miss costs one probe.
        // Mithril never mitigates outside of RFM, so every path returns `None`.
        let position = match self.index.locate(row) {
            Ok(slot) => {
                self.table[slot].count.add(eact);
                self.summary.set_count(slot, self.table[slot].count.raw());
                return None;
            }
            Err(position) => position,
        };
        let mut count = self.spillover;
        count.add(eact);
        if self.claim_slot_summary(row, count, position).is_none() {
            self.spillover.add(eact);
        }
        None
    }

    fn record_run(
        &mut self,
        row: RowId,
        eact: Eact,
        count: u32,
        _now: Cycle,
        _out: &mut Vec<MitigationRequest>,
    ) {
        let eact = self.quantize(eact);
        if let Some((slot, consumed)) = self.resolve_run_slot(row, count, eact) {
            let left = u64::from(count - consumed);
            self.add_to_slot(slot, u64::from(eact.raw()).saturating_mul(left));
        }
    }

    fn headroom(&self) -> u64 {
        // `record` never returns a mitigation (Mithril only mitigates under
        // RFM, and batch stagers flush before every RFM), so any weight can be
        // deferred.
        u64::MAX
    }

    fn mitigates_on_rfm(&self) -> bool {
        true
    }

    fn on_rfm(&mut self, now: Cycle) -> Option<MitigationRequest> {
        let (slot, max_raw) = self.summary.max()?;
        if max_raw == 0 {
            return None;
        }
        let aggressor = self.table[slot].row;
        // Roll the mitigated row's counter back to the spillover value (a
        // *decrement* whenever any activation spilled since the last reset).
        self.table[slot].count = self.spillover;
        self.summary.set_count(slot, self.spillover.raw());
        self.mitigations += 1;
        Some(MitigationRequest {
            aggressor,
            identified_at: now,
        })
    }

    fn on_refresh_window(&mut self, _now: Cycle) {
        for e in &mut self.table {
            e.valid = false;
            e.count = EactCounter::ZERO;
        }
        self.index.clear();
        self.summary.clear();
        restock_free_slots(&mut self.free_slots, self.config.entries);
        self.spillover = EactCounter::ZERO;
    }

    fn kind(&self) -> TrackerKind {
        TrackerKind::Mithril
    }

    fn storage(&self) -> StorageEstimate {
        StorageEstimate::per_entry(
            self.config.entries as u64,
            ROW_ADDRESS_BITS + COUNTER_BITS + self.config.frac_bits,
        )
    }

    fn configured_threshold(&self) -> u64 {
        self.config.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizing_383_entries() {
        let m = Mithril::for_threshold(4_000);
        assert!(
            (375..=395).contains(&m.config().entries),
            "{}",
            m.config().entries
        );
    }

    #[test]
    fn rfm_mitigates_the_hottest_row() {
        let mut m = Mithril::for_threshold(4_000);
        for i in 0..200u64 {
            m.record(11, Eact::ONE, i * 128);
            if i % 4 == 0 {
                m.record(22, Eact::ONE, i * 128 + 64);
            }
        }
        let mitigation = m.on_rfm(100_000).expect("RFM should mitigate");
        assert_eq!(mitigation.aggressor, 11);
    }

    #[test]
    fn record_never_mitigates_directly() {
        let mut m = Mithril::for_threshold(4_000);
        for i in 0..10_000u64 {
            assert!(m.record(3, Eact::ONE, i * 128).is_none());
        }
    }

    #[test]
    fn rfm_on_empty_table_is_none() {
        let mut m = Mithril::for_threshold(4_000);
        assert!(m.on_rfm(0).is_none());
    }

    #[test]
    fn bounded_unmitigated_activations_under_rfm_cadence() {
        // If the controller issues RFM every 80 activations (the paper's RFMTH), the
        // hottest row's count between mitigations stays far below the 4K threshold.
        let mut m = Mithril::for_threshold(4_000);
        let mut hot_count_since_mitigation = 0u64;
        let mut max_seen = 0u64;
        for i in 0..1_000_000u64 {
            let row = if i % 2 == 0 {
                7
            } else {
                (i % 512) as RowId + 100
            };
            if row == 7 {
                hot_count_since_mitigation += 1;
            }
            m.record(row, Eact::ONE, i * 128);
            if i % 80 == 79 {
                if let Some(req) = m.on_rfm(i * 128) {
                    if req.aggressor == 7 {
                        max_seen = max_seen.max(hot_count_since_mitigation);
                        hot_count_since_mitigation = 0;
                    }
                }
            }
        }
        max_seen = max_seen.max(hot_count_since_mitigation);
        assert!(
            max_seen < 4_000,
            "aggressor escaped with {max_seen} activations"
        );
    }

    /// The invalid-before-eviction invariant, in the exact state where a naive
    /// min-count eviction would invert it: an RFM mitigation rolls the hottest
    /// row's counter back to the (zero) spillover value while invalid slots
    /// remain, so a subsequent miss sees a valid zero-count entry *and* free
    /// slots. The new row must claim a free slot and the rolled-back row must
    /// stay tracked, as the seed's first-invalid scan would have it.
    #[test]
    fn invalid_slots_claimed_before_zero_count_eviction_in_both_engines() {
        let config = MithrilConfig {
            threshold: 4_000,
            rfm_threshold: 80,
            entries: 4,
            frac_bits: 0,
        };
        let mut m = Mithril::new(config);
        for i in 0..5u64 {
            m.record(7, Eact::ONE, i * 128);
        }
        let req = m.on_rfm(1_000).expect("row 7 is the unique maximum");
        assert_eq!(req.aggressor, 7);
        assert_eq!(m.tracked_count(7), Some(0), "rolled back to 0");
        // A miss now must claim an invalid slot, not evict the zero-count row 7
        // (whose count equals the spillover count and is therefore displaceable).
        m.record(99, Eact::ONE, 2_000);
        assert_eq!(
            m.tracked_count(7),
            Some(0),
            "zero-count row evicted while invalid slots remained"
        );
        assert_eq!(m.tracked_count(99), Some(1));
    }

    #[test]
    fn storage_with_frac_bits_is_1_25x() {
        let plain = Mithril::for_threshold(4_000);
        let precise = Mithril::new(MithrilConfig::for_threshold(4_000).with_frac_bits(7));
        let ratio = precise.storage().relative_to(&plain.storage());
        assert!(ratio > 1.15 && ratio < 1.3, "ratio = {ratio}");
    }
}
