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
//! # Eviction engines and the observational-equivalence contract
//!
//! Mithril's summary needs both ends of the count order: a *minimum*-count entry
//! to displace on a miss (when the minimum is at or below the spillover count)
//! and the *maximum*-count entry to mitigate under RFM. The seed found both with
//! linear scans; the [`EvictionEngine::Summary`] engine reads them off the two
//! ends of a [`CountSummary`] bucket list in O(1). The engines agree on *when*
//! evictions and RFM mitigations happen and on every victim choice that is
//! unambiguous (a unique minimum / unique maximum); among tied counts they may
//! pick different rows, but both stay within the Misra-Gries error bound (any
//! row's untracked weight ≤ spillover ≤ total-weight/entries), so the RFM
//! mitigation stream keeps the same security guarantee. The `summary_equivalence`
//! proptest suite and the security-harness A/B gate enforce exactly this
//! contract, and the periodic RFM roll-back (`count := spillover`, a *decrement*)
//! is exercised by the bucket-ordering round-trip properties.
//!
//! Invalid entries are claimed **before** min-count eviction in both engines (the
//! scan stops at the first invalid entry; the summary engine pops an explicit
//! free-slot list before consulting the summary). An RFM roll-back to a zero
//! spillover leaves a valid zero-count entry that a validity-blind min-eviction
//! would displace while free slots remain — the priority inversion this explicit
//! invariant (and its unit tests, in both engines) rules out.

use impress_dram::address::RowId;
use impress_dram::timing::Cycle;

use crate::analysis::mithril_entries;
use crate::eact::{Eact, EactCounter, CANONICAL_FRAC_BITS};
use crate::index::RowSlotIndex;
use crate::storage::{StorageEstimate, COUNTER_BITS, ROW_ADDRESS_BITS};
use crate::summary::{engine_scaffolding, restock_free_slots, CountSummary, EvictionEngine};
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
    engine: EvictionEngine,
    table: Vec<Entry>,
    /// O(1) row → slot map over the valid table entries (pure acceleration of the
    /// match path; victim selection is the eviction engine's job — see
    /// [`crate::index`] and [`crate::summary`]).
    index: RowSlotIndex,
    /// Count-ordered view of the valid entries (summary engine only; empty and
    /// unmaintained under the scan engine).
    summary: CountSummary,
    /// Invalid slots awaiting their first row, popped before any eviction is
    /// considered (summary engine only) — the explicit form of the
    /// invalid-before-eviction invariant.
    free_slots: Vec<u32>,
    spillover: EactCounter,
    mitigations: u64,
}

impl Mithril {
    /// Creates a Mithril tracker sized for `threshold` at RFMTH = 80, using the
    /// default [`EvictionEngine::Summary`] engine.
    pub fn for_threshold(threshold: u64) -> Self {
        Self::new(MithrilConfig::for_threshold(threshold))
    }

    /// Creates a Mithril tracker from an explicit configuration, using the
    /// default [`EvictionEngine::Summary`] engine.
    pub fn new(config: MithrilConfig) -> Self {
        Self::with_engine(config, EvictionEngine::default())
    }

    /// Creates a Mithril tracker with an explicit eviction engine (A/B testing
    /// and the equivalence suites use this to pin each side).
    pub fn with_engine(config: MithrilConfig, engine: EvictionEngine) -> Self {
        let table = vec![
            Entry {
                row: 0,
                count: EactCounter::ZERO,
                valid: false,
            };
            config.entries
        ];
        let index = RowSlotIndex::for_entries(config.entries);
        let (summary, free_slots) = engine_scaffolding(config.entries, engine);
        Self {
            config,
            engine,
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

    /// The eviction engine this tracker runs on.
    pub fn engine(&self) -> EvictionEngine {
        self.engine
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

    /// Installs the missing `row` at `count` in `slot` (index and, under the
    /// summary engine, summary kept in lockstep).
    fn install(&mut self, slot: usize, row: RowId, count: EactCounter) {
        self.table[slot] = Entry {
            row,
            count,
            valid: true,
        };
        self.index.insert(row, slot);
    }

    /// Resolves one slot for a run of `len` same-row events, shared by
    /// [`RowTracker::record_batch`] and [`RowTracker::record_run`]. On a miss
    /// the per-record claim attempts are replayed exactly, event `k` weighing
    /// `eact_at(k)`: each failed attempt spills that event's weight; the
    /// claiming attempt installs at spillover + eact, absorbing its own event.
    ///
    /// Returns the slot and the number of events consumed (spilled or
    /// absorbed by the claim), or `None` when every event spilled.
    fn resolve_run_slot(
        &mut self,
        row: RowId,
        len: usize,
        eact_at: impl Fn(usize) -> Eact,
    ) -> Option<(usize, usize)> {
        match self.engine {
            EvictionEngine::Scan => {
                if let Some(slot) = self.index.get(row) {
                    return Some((slot, 0));
                }
                for k in 0..len {
                    let eact = self.quantize(eact_at(k));
                    let mut count = self.spillover;
                    count.add(eact);
                    let mut first_invalid = usize::MAX;
                    let mut min_idx = 0usize;
                    let mut min_raw = u64::MAX;
                    for (s, e) in self.table.iter().enumerate() {
                        if !e.valid {
                            first_invalid = s;
                            break;
                        }
                        if e.count.raw() < min_raw {
                            min_raw = e.count.raw();
                            min_idx = s;
                        }
                    }
                    if first_invalid != usize::MAX {
                        self.install(first_invalid, row, count);
                        return Some((first_invalid, k + 1));
                    } else if min_raw <= self.spillover.raw() {
                        self.index.remove(self.table[min_idx].row);
                        self.install(min_idx, row, count);
                        return Some((min_idx, k + 1));
                    }
                    self.spillover.add(eact);
                }
                None
            }
            EvictionEngine::Summary => {
                // `position` stays valid across failed attempts: a failed
                // claim only grows the spillover counter.
                let position = match self.index.locate(row) {
                    Ok(slot) => return Some((slot, 0)),
                    Err(position) => position,
                };
                for k in 0..len {
                    let eact = self.quantize(eact_at(k));
                    let mut count = self.spillover;
                    count.add(eact);
                    if let Some(free) = self.free_slots.pop() {
                        let slot = free as usize;
                        self.index.insert_at(position, row, slot);
                        self.table[slot] = Entry {
                            row,
                            count,
                            valid: true,
                        };
                        self.summary.attach(slot, count.raw());
                        return Some((slot, k + 1));
                    }
                    if let Some(slot) = self
                        .summary
                        .evict_min_if_at_most(self.spillover.raw(), count.raw())
                    {
                        debug_assert!(
                            self.free_slots.is_empty(),
                            "eviction considered while invalid slots remain"
                        );
                        self.index.insert_at(position, row, slot);
                        self.index.remove(self.table[slot].row);
                        self.table[slot] = Entry {
                            row,
                            count,
                            valid: true,
                        };
                        return Some((slot, k + 1));
                    }
                    self.spillover.add(eact);
                }
                None
            }
        }
    }

    /// Adds `weight` (raw Q7) to `slot`'s counter with one summary splice.
    fn add_to_slot(&mut self, slot: usize, weight: u64) {
        if weight > 0 {
            let final_raw = self.table[slot].count.raw().saturating_add(weight);
            self.table[slot].count = EactCounter::from_raw(final_raw);
            if self.engine == EvictionEngine::Summary {
                self.summary.set_count(slot, final_raw);
            }
        }
    }
}

impl RowTracker for Mithril {
    fn record(&mut self, row: RowId, eact: Eact, _now: Cycle) -> Option<MitigationRequest> {
        let eact = self.quantize(eact);
        // The match path is O(1) via the row → slot index; only when the row is
        // absent does the eviction engine pick a slot (O(1) under the summary
        // engine, O(entries) under the seed's scan). Mithril never mitigates
        // outside of RFM, so every path returns `None`.
        match self.engine {
            EvictionEngine::Scan => {
                if let Some(slot) = self.index.get(row) {
                    self.table[slot].count.add(eact);
                    return None;
                }
                let mut count = self.spillover;
                count.add(eact);
                let mut first_invalid = usize::MAX;
                let mut min_idx = 0usize;
                let mut min_raw = u64::MAX;
                for (i, e) in self.table.iter().enumerate() {
                    if !e.valid {
                        // Invalid entries take priority over the minimum-count
                        // eviction wherever they sit, so the scan can stop at the
                        // first one.
                        first_invalid = i;
                        break;
                    }
                    if e.count.raw() < min_raw {
                        min_raw = e.count.raw();
                        min_idx = i;
                    }
                }
                if first_invalid != usize::MAX {
                    self.install(first_invalid, row, count);
                } else if min_raw <= self.spillover.raw() {
                    self.index.remove(self.table[min_idx].row);
                    self.install(min_idx, row, count);
                } else {
                    self.spillover.add(eact);
                }
            }
            EvictionEngine::Summary => {
                // `locate` hands the miss position straight to `insert_at`, so a
                // miss costs one probe; the insert happens before the victim is
                // removed, keeping the position valid.
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
                if let Some(free) = self.free_slots.pop() {
                    let slot = free as usize;
                    self.index.insert_at(position, row, slot);
                    self.table[slot] = Entry {
                        row,
                        count,
                        valid: true,
                    };
                    self.summary.attach(slot, count.raw());
                } else {
                    // A minimum-count entry is displaceable exactly when the seed
                    // scan would displace its minimum; the fused call checks the
                    // condition, unlinks the victim and re-links it at the new
                    // count in one pass.
                    match self
                        .summary
                        .evict_min_if_at_most(self.spillover.raw(), count.raw())
                    {
                        Some(slot) => {
                            debug_assert!(
                                self.free_slots.is_empty(),
                                "eviction considered while invalid slots remain"
                            );
                            self.index.insert_at(position, row, slot);
                            self.index.remove(self.table[slot].row);
                            self.table[slot] = Entry {
                                row,
                                count,
                                valid: true,
                            };
                        }
                        None => self.spillover.add(eact),
                    }
                }
            }
        }
        None
    }

    fn record_batch(
        &mut self,
        rows: &[RowId],
        eacts: &[Eact],
        _now: Cycle,
        _out: &mut Vec<MitigationRequest>,
    ) {
        debug_assert_eq!(rows.len(), eacts.len());
        let mut i = 0;
        while i < rows.len() {
            let row = rows[i];
            let mut j = i + 1;
            while j < rows.len() && rows[j] == row {
                j += 1;
            }
            let run = &eacts[i..j];
            if let Some((slot, consumed)) = self.resolve_run_slot(row, run.len(), |k| run[k]) {
                // Run-length aggregation of the remaining events: Mithril never
                // mitigates in `record`, so the whole tail collapses into one
                // weighted add and (under the summary engine) one splice.
                let mut sum = 0u64;
                for &e in &run[consumed..] {
                    sum = sum.saturating_add(u64::from(self.quantize(e).raw()));
                }
                self.add_to_slot(slot, sum);
            }
            i = j;
        }
    }

    fn record_run(
        &mut self,
        row: RowId,
        eact: Eact,
        count: u32,
        _now: Cycle,
        _out: &mut Vec<MitigationRequest>,
    ) {
        if let Some((slot, consumed)) = self.resolve_run_slot(row, count as usize, |_| eact) {
            let left = u64::from(count) - consumed as u64;
            let weight = u64::from(self.quantize(eact).raw());
            self.add_to_slot(slot, weight.saturating_mul(left));
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
        let (slot, max_raw) = match self.engine {
            EvictionEngine::Scan => {
                let (slot, best) = self
                    .table
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.valid)
                    .max_by_key(|(_, e)| e.count.raw())?;
                (slot, best.count.raw())
            }
            EvictionEngine::Summary => self.summary.max()?,
        };
        if max_raw == 0 {
            return None;
        }
        let aggressor = self.table[slot].row;
        // Roll the mitigated row's counter back to the spillover value (a
        // *decrement* whenever any activation spilled since the last reset).
        self.table[slot].count = self.spillover;
        if self.engine == EvictionEngine::Summary {
            self.summary.set_count(slot, self.spillover.raw());
        }
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
        if self.engine == EvictionEngine::Summary {
            self.summary.clear();
            restock_free_slots(&mut self.free_slots, self.config.entries);
        }
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
    /// stay tracked.
    #[test]
    fn invalid_slots_claimed_before_zero_count_eviction_in_both_engines() {
        for engine in [EvictionEngine::Scan, EvictionEngine::Summary] {
            let config = MithrilConfig {
                threshold: 4_000,
                rfm_threshold: 80,
                entries: 4,
                frac_bits: 0,
            };
            let mut m = Mithril::with_engine(config, engine);
            for i in 0..5u64 {
                m.record(7, Eact::ONE, i * 128);
            }
            let req = m.on_rfm(1_000).expect("row 7 is the unique maximum");
            assert_eq!(req.aggressor, 7, "{engine}");
            assert_eq!(m.tracked_count(7), Some(0), "{engine}: rolled back to 0");
            // A miss now must claim an invalid slot, not evict the zero-count row 7
            // (whose count equals the spillover count and is therefore displaceable).
            m.record(99, Eact::ONE, 2_000);
            assert_eq!(
                m.tracked_count(7),
                Some(0),
                "{engine}: zero-count row evicted while invalid slots remained"
            );
            assert_eq!(m.tracked_count(99), Some(1), "{engine}");
        }
    }

    /// Scan and summary engines stay in lockstep (records and RFM mitigations) on
    /// streams whose min/max choices are always unambiguous: a hot set that fits
    /// the table with distinct per-row weights (unique maxima for RFM), and a
    /// single-entry table where every eviction and every RFM has exactly one
    /// candidate. The ambiguity-aware general property lives in
    /// `tests/summary_equivalence.rs`.
    #[test]
    fn engines_agree_on_unambiguous_streams() {
        let lockstep = |entries: usize, rows: u32| {
            let config = MithrilConfig {
                threshold: 4_000,
                rfm_threshold: 80,
                entries,
                frac_bits: 7,
            };
            let mut scan = Mithril::with_engine(config.clone(), EvictionEngine::Scan);
            let mut summary = Mithril::with_engine(config, EvictionEngine::Summary);
            let mut mitigations = 0u64;
            for i in 0..40_000u64 {
                let row = (i % u64::from(rows)) as RowId;
                // Distinct per-row weights keep tracked counts unique.
                let eact = Eact::from_f64(1.0 + (row as f64) / 8.0, 7);
                assert_eq!(
                    scan.record(row, eact, i * 128),
                    summary.record(row, eact, i * 128),
                    "entries={entries}: diverged at record {i}"
                );
                if i % 80 == 79 {
                    let a = scan.on_rfm(i * 128);
                    assert_eq!(a, summary.on_rfm(i * 128), "entries={entries}: RFM {i}");
                    mitigations += u64::from(a.is_some());
                }
            }
            assert_eq!(scan.mitigations(), summary.mitigations());
            assert!(mitigations > 0, "entries={entries}: stream too tame");
            assert_eq!(scan.spillover_raw(), summary.spillover_raw());
            for row in 0..rows {
                assert_eq!(
                    scan.tracked_raw(row),
                    summary.tracked_raw(row),
                    "entries={entries} row {row}"
                );
            }
        };
        lockstep(8, 8); // matches + RFM roll-backs, no eviction
        lockstep(1, 5); // forced (unique-candidate) evictions + spillover growth
    }

    #[test]
    fn storage_with_frac_bits_is_1_25x() {
        let plain = Mithril::for_threshold(4_000);
        let precise = Mithril::new(MithrilConfig::for_threshold(4_000).with_frac_bits(7));
        let ratio = precise.storage().relative_to(&plain.storage());
        assert!(ratio > 1.15 && ratio < 1.3, "ratio = {ratio}");
    }
}
