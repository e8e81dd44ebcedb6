//! Graphene: Misra-Gries counter-based tracking at the memory controller.
//!
//! Graphene (Park et al., MICRO 2020) keeps a small table of (row, counter) pairs per
//! bank managed with the Misra-Gries frequent-items algorithm, plus a spillover
//! counter. When a row's counter reaches the internal threshold, its victims are
//! refreshed and the counter rolls back to the spillover value. The table is reset once
//! per refresh window.
//!
//! Under ImPress-P the counters accumulate fractional [`Eact`] values instead of +1
//! per activation, which adds 7 bits per entry but leaves the entry count unchanged
//! (§VI-C).
//!
//! # Eviction and the observational-equivalence contract
//!
//! On a miss with a full table, Graphene claims any entry whose count does not
//! exceed the spillover count. The seed scanned the table and took the *first*
//! such entry; this implementation takes a *minimum-count* entry from a
//! [`CountSummary`] instead (the minimum is at or below the spillover count
//! exactly when any claimable entry exists, so while the two tables agree —
//! i.e. up to the first ambiguous choice — they evict on exactly the same
//! accesses and maintain identical spillover trajectories). Which row is
//! displaced can differ when the choice is ambiguous (two or more claimable
//! entries); from that point the tracked row sets, spillover trajectories and
//! mitigation *counts* may drift apart (min-eviction keeps larger counters
//! tracked, so spillover climbs faster under saturated churn), but the two stay
//! *observationally equivalent*: both satisfy the Misra-Gries guarantee that any
//! row's untracked activation weight is bounded by the spillover count (at most
//! total-weight/entries), so every row crossing the internal threshold is still
//! mitigated in time. When the choice is unambiguous they issue identical
//! mitigation sequences. Both properties are enforced against a transcription
//! of the seed by the `summary_equivalence` proptest suite and, through the
//! security harness, by `tests/eviction_equivalence.rs`.
//!
//! Invalid entries are claimed **before** any valid entry is considered for
//! eviction, as in the seed. This matters: a mitigation rolls a counter back to
//! the spillover value, which can leave a *valid zero-count* entry coexisting
//! with invalid entries — a min-count eviction that ignored validity would then
//! displace a still-tracked row while free slots remain (a priority inversion).
//! The tracker claims a free slot before consulting the minimum, and is
//! unit-tested against exactly that state.
//!
//! The table is the [`CountSummary`] itself: it finds a row through a hash
//! chain, holds each entry's row and count, and hands out free slots. This
//! module keeps only Graphene's policy: a claim at the spillover count, the
//! roll-back to the spillover count at the internal threshold, `record_run`'s
//! closed form and the staging headroom.

use impress_dram::address::RowId;
use impress_dram::timing::Cycle;
use impress_dram::DramTimings;

use crate::analysis::{graphene_entries, graphene_internal_threshold};
use crate::eact::{Eact, EactCounter, RolledRun, CANONICAL_FRAC_BITS};
use crate::storage::{StorageEstimate, COUNTER_BITS, ROW_ADDRESS_BITS};
use crate::summary::CountSummary;
use crate::tracker::{MitigationRequest, RowTracker, TrackerKind};

/// Configuration for a [`Graphene`] tracker instance.
#[derive(Debug, Clone, PartialEq)]
pub struct GrapheneConfig {
    /// Rowhammer threshold this instance must tolerate.
    pub threshold: u64,
    /// Internal mitigation threshold (counter value that triggers a mitigation).
    pub internal_threshold: u64,
    /// Number of table entries per bank.
    pub entries: usize,
    /// Number of fractional EACT bits stored per counter (0 for a plain RH system,
    /// 7 for ImPress-P).
    pub frac_bits: u32,
}

impl GrapheneConfig {
    /// Configuration for tolerating `threshold` with the paper's DDR5 timings and no
    /// fractional bits (plain Rowhammer tracking).
    pub fn for_threshold(threshold: u64) -> Self {
        let timings = DramTimings::ddr5();
        Self {
            threshold,
            internal_threshold: graphene_internal_threshold(threshold),
            entries: graphene_entries(threshold, &timings) as usize,
            frac_bits: 0,
        }
    }

    /// Same as [`GrapheneConfig::for_threshold`] but with fractional counter bits for
    /// ImPress-P (the paper's default uses 7 bits).
    pub fn with_frac_bits(threshold: u64, frac_bits: u32) -> Self {
        Self {
            frac_bits,
            ..Self::for_threshold(threshold)
        }
    }
}

/// The Graphene tracker for a single bank.
#[derive(Debug, Clone)]
pub struct Graphene {
    config: GrapheneConfig,
    /// The Misra-Gries table: rows, counts in count order, and free slots.
    summary: CountSummary,
    spillover: EactCounter,
    mitigations: u64,
}

impl Graphene {
    /// Creates a Graphene tracker sized for `threshold` (no fractional bits).
    pub fn for_threshold(threshold: u64) -> Self {
        Self::new(GrapheneConfig::for_threshold(threshold))
    }

    /// Creates a Graphene tracker from an explicit configuration.
    pub fn new(config: GrapheneConfig) -> Self {
        Self {
            summary: CountSummary::new(config.entries),
            config,
            spillover: EactCounter::ZERO,
            mitigations: 0,
        }
    }

    /// The configuration this tracker was built with.
    pub fn config(&self) -> &GrapheneConfig {
        &self.config
    }

    /// Number of mitigations issued so far.
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }

    /// Current counter value for `row` (whole activations), if tracked.
    pub fn tracked_count(&self, row: RowId) -> Option<u64> {
        self.tracked_raw(row)
            .map(|raw| EactCounter::from_raw(raw).activations())
    }

    /// Current raw (Q7 fixed-point) counter value for `row`, if tracked — the
    /// exact quantity the equivalence and error-bound suites reason about.
    pub fn tracked_raw(&self, row: RowId) -> Option<u64> {
        self.summary
            .find(row)
            .and_then(|slot| self.summary.count_of(slot))
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

    /// The counter `row` starts its next add from, and its slot: a tracked
    /// row's own count, or the spillover count in a slot claimed for it — a
    /// free slot first (the invalid-before-eviction invariant), else a
    /// minimum-count victim, claimable exactly when the seed's scan would find
    /// any claimable entry. With no slot to claim, records the activation into
    /// the spillover counter and returns `None`.
    ///
    /// The claim leaves the victim's count in place: the caller folds the
    /// claim, the EACT increment and any mitigation roll-back into a single
    /// attach/set-count, so a claim costs one splice, not two.
    #[inline]
    fn resolve_slot(&mut self, row: RowId, eact: Eact) -> Option<(usize, EactCounter)> {
        if let Some(slot) = self.summary.find(row) {
            let raw = self.summary.count_of(slot).unwrap_or_default();
            return Some((slot, EactCounter::from_raw(raw)));
        }
        if let Some(slot) = self.summary.claim_free(row) {
            return Some((slot, self.spillover));
        }
        match self.summary.min() {
            Some((slot, min_raw)) if min_raw <= self.spillover.raw() => {
                self.summary.rechain(slot, row);
                Some((slot, self.spillover))
            }
            _ => {
                self.spillover.add(eact);
                None
            }
        }
    }

    /// Resolves one slot for [`RowTracker::record_run`]'s `count` events of
    /// `row`, each weighing the quantized `eact`, replaying the per-record
    /// claim attempts of a missing row (each failed attempt spills one event's
    /// weight, exactly as `record` would).
    ///
    /// Returns the slot, the counter the run starts from, and the number of
    /// leading events spilled before the slot was claimed (the claiming event
    /// is not consumed: its add is the run's first), or `None` when every
    /// event spilled.
    fn resolve_run_slot(
        &mut self,
        row: RowId,
        count: u32,
        eact: Eact,
    ) -> Option<(usize, EactCounter, u32)> {
        for k in 0..count {
            if let Some((slot, start)) = self.resolve_slot(row, eact) {
                return Some((slot, start, k));
            }
        }
        None
    }

    /// Mirrors a run's final count into the summary with one splice.
    /// `summary_count` is the summary's count for the slot when the run began
    /// (`None` for a free slot). Intermediate counts are never observed, and
    /// the slot's final in-bucket position is the head whenever any per-record
    /// splice would have `moved` it.
    fn settle_summary(
        &mut self,
        slot: usize,
        summary_count: Option<u64>,
        final_raw: u64,
        moved: bool,
    ) {
        if summary_count.is_none() {
            self.summary.attach(slot, final_raw);
        } else if moved {
            // Force the move-to-head even when the final count matches the
            // current bucket (`set_count` would early-return and leave the
            // slot mid-bucket).
            self.summary.detach(slot);
            self.summary.attach(slot, final_raw);
        } else {
            self.summary.set_count(slot, final_raw);
        }
    }

    fn push_mitigations(
        &mut self,
        row: RowId,
        now: Cycle,
        crossings: u64,
        out: &mut Vec<MitigationRequest>,
    ) {
        self.mitigations += crossings;
        out.extend((0..crossings).map(|_| MitigationRequest {
            aggressor: row,
            identified_at: now,
        }));
    }
}

impl RowTracker for Graphene {
    fn record(&mut self, row: RowId, eact: Eact, now: Cycle) -> Option<MitigationRequest> {
        let eact = self.quantize(eact);
        // Misra-Gries update: a chain walk finds the row; only when it is
        // absent does the table pick a slot, also in O(1).
        let (slot, mut count) = self.resolve_slot(row, eact)?;
        count.add(eact);
        let mitigation = if count.reached(self.config.internal_threshold) {
            // Mitigate and roll the counter back to the spillover value so the row
            // keeps being tracked without immediately re-triggering.
            count = self.spillover;
            self.mitigations += 1;
            Some(MitigationRequest {
                aggressor: row,
                identified_at: now,
            })
        } else {
            None
        };
        // One splice covers every case: a matched slot (or a reclaimed victim,
        // still attached at its old count) moves buckets; a free slot attaches.
        let raw = count.raw();
        if self.summary.contains(slot) {
            self.summary.set_count(slot, raw);
        } else {
            self.summary.attach(slot, raw);
        }
        mitigation
    }

    fn record_run(
        &mut self,
        row: RowId,
        eact: Eact,
        count: u32,
        now: Cycle,
        out: &mut Vec<MitigationRequest>,
    ) {
        let eact = self.quantize(eact);
        let Some((slot, start, spilled)) = self.resolve_run_slot(row, count, eact) else {
            return;
        };
        // The events left after the claim replay all land on `slot`, whose
        // counter follows the roll-back-to-spillover rule in closed form (the
        // spillover no longer changes once the slot is resolved).
        let left = count - spilled;
        let weight = u64::from(eact.raw());
        let summary_count = self.summary.count_of(slot);
        let run = RolledRun::compute(
            start.raw(),
            weight,
            left,
            self.config.internal_threshold,
            self.spillover.raw(),
        );
        self.push_mitigations(row, now, run.crossings, out);
        // Without a crossing the counts are monotone and `set_count` already
        // moves the slot exactly when the final count differs. With one, the
        // per-record splices moved it unless every count equalled the
        // summary's, and they all do once the first does: the summary holds
        // the start count (match) or at most the spillover (claim), so a first
        // count equal to it is a fixed point of the add-and-roll-back step.
        let moved = run.crossings > 0 && Some(run.first_raw) != summary_count;
        self.settle_summary(slot, summary_count, run.final_raw, moved);
    }

    fn headroom(&self) -> u64 {
        let max_raw = self.summary.max().map_or(0, |(_, raw)| raw);
        let threshold_raw = self
            .config
            .internal_threshold
            .saturating_mul(u64::from(Eact::ONE.raw()));
        // A counter mitigates on reaching `threshold_raw`. Fresh claims start
        // at the spillover count, so the binding start point is the larger of
        // the current maximum and the spillover; absorbing total weight W can
        // raise any counter (and the spillover) by at most W, which makes
        // W <= threshold_raw - 1 - max(max, spillover) provably safe.
        threshold_raw
            .saturating_sub(1)
            .saturating_sub(max_raw.max(self.spillover.raw()))
    }

    fn on_refresh_window(&mut self, _now: Cycle) {
        self.summary.clear();
        self.spillover = EactCounter::ZERO;
    }

    fn kind(&self) -> TrackerKind {
        TrackerKind::Graphene
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
    fn single_aggressor_is_mitigated_before_threshold() {
        let mut g = Graphene::for_threshold(4_000);
        let mut acts_without_mitigation = 0u64;
        let mut max_streak = 0u64;
        for i in 0..20_000u64 {
            match g.record(42, Eact::ONE, i * 128) {
                Some(m) => {
                    assert_eq!(m.aggressor, 42);
                    max_streak = max_streak.max(acts_without_mitigation);
                    acts_without_mitigation = 0;
                }
                None => acts_without_mitigation += 1,
            }
        }
        max_streak = max_streak.max(acts_without_mitigation);
        // No stretch of unmitigated activations ever approaches the 4K threshold.
        assert!(max_streak <= g.config().internal_threshold + 1);
        assert!(g.mitigations() > 0);
    }

    #[test]
    fn distinct_rows_below_threshold_do_not_mitigate() {
        let mut g = Graphene::for_threshold(4_000);
        for i in 0..100_000u64 {
            // Round-robin over many rows: none accumulates anywhere near the threshold.
            let row = (i % 1000) as RowId;
            assert!(g.record(row, Eact::ONE, i * 128).is_none());
        }
        assert_eq!(g.mitigations(), 0);
    }

    #[test]
    fn fractional_eact_accumulates() {
        let mut g = Graphene::new(GrapheneConfig::with_frac_bits(4_000, 7));
        let eact = Eact::from_f64(2.0, 7);
        let mut mitigated = false;
        // 2.0 EACT per record: the internal threshold (1333) is crossed in ~667 records.
        for i in 0..700u64 {
            if g.record(9, eact, i * 256).is_some() {
                mitigated = true;
                break;
            }
        }
        assert!(mitigated);
    }

    #[test]
    fn refresh_window_resets_state() {
        let mut g = Graphene::for_threshold(4_000);
        for i in 0..1000u64 {
            let _ = g.record(5, Eact::ONE, i * 128);
        }
        assert!(g.tracked_count(5).unwrap_or(0) > 0);
        g.on_refresh_window(1_000_000);
        assert_eq!(g.tracked_count(5), None);
    }

    #[test]
    fn storage_scales_with_frac_bits() {
        let plain = Graphene::for_threshold(4_000);
        let precise = Graphene::new(GrapheneConfig::with_frac_bits(4_000, 7));
        let ratio = precise.storage().relative_to(&plain.storage());
        // §VI-C: ImPress-P adds 7 bits per entry, ~1.2x storage, far below the 2x of
        // halving the threshold.
        assert!(ratio > 1.1 && ratio < 1.3, "ratio = {ratio}");
        let halved = Graphene::for_threshold(2_000);
        let ratio2 = halved.storage().relative_to(&plain.storage());
        assert!(ratio2 > 1.9 && ratio2 < 2.1, "ratio2 = {ratio2}");
    }

    /// The invalid-before-eviction invariant, in the exact state where a naive
    /// min-count eviction would invert it: a mitigation rolls a tracked row's
    /// counter back to the (zero) spillover value while invalid slots remain, so
    /// a subsequent miss sees a valid zero-count entry *and* free slots. The new
    /// row must claim a free slot and the rolled-back row must stay tracked, as
    /// the seed's first-invalid scan would have it.
    #[test]
    fn invalid_slots_claimed_before_zero_count_eviction_in_both_engines() {
        let config = GrapheneConfig {
            threshold: 30,
            internal_threshold: 10,
            entries: 4,
            frac_bits: 0,
        };
        let mut g = Graphene::new(config);
        // Drive row 7 to a mitigation: its counter rolls back to spillover (0),
        // leaving a valid zero-count entry with 3 slots still invalid.
        let mut mitigated = false;
        for i in 0..10u64 {
            mitigated |= g.record(7, Eact::ONE, i * 128).is_some();
        }
        assert!(mitigated, "row 7 should hit the internal threshold");
        assert_eq!(g.tracked_count(7), Some(0));
        // A miss now must claim an invalid slot, not evict the zero-count row 7
        // (whose count equals the spillover count and is therefore claimable).
        g.record(99, Eact::ONE, 2_000);
        assert_eq!(
            g.tracked_count(7),
            Some(0),
            "zero-count row evicted while invalid slots remained"
        );
        assert_eq!(g.tracked_count(99), Some(1));
    }

    #[test]
    fn spillover_eviction_keeps_heavy_hitter() {
        // Even with more distinct rows than entries, a truly heavy hitter must still
        // be caught (the Misra-Gries guarantee).
        let mut g = Graphene::for_threshold(4_000);
        let entries = g.config().entries as u64;
        let mut caught = false;
        for i in 0..3_000_000u64 {
            // Interleave the aggressor with a sweep over many one-off rows.
            let row = if i % 3 == 0 {
                7
            } else {
                1000 + (i % (entries * 4)) as RowId
            };
            if let Some(m) = g.record(row, Eact::ONE, i * 128) {
                if m.aggressor == 7 {
                    caught = true;
                    break;
                }
            }
        }
        assert!(caught, "heavy hitter escaped Graphene");
    }
}
