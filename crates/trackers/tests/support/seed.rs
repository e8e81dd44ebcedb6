//! The seed's Graphene and Mithril Misra-Gries tables, transcribed as the
//! reference the shipping trackers are checked against.
//!
//! Both scan the whole table on every access, as the seed did: first for the
//! row, then for the first invalid entry, then for a victim. Graphene claims
//! the first entry whose count does not exceed the spillover count; Mithril
//! claims the first minimum-count entry when that minimum does not exceed it,
//! and under RFM mitigates the *last* maximum-count valid entry (the seed's
//! `max_by_key`). Each victim choice also records whether it was ambiguous
//! (more than one candidate): from that point on the shipping trackers, which
//! break ties by summary-bucket order instead of table order, may legitimately
//! track different rows.
//!
//! Both implement [`RowTracker`] through the public `impress_trackers` API
//! only, so the security harness can replay attacks against them. The file is
//! included with `#[path]` by `summary_equivalence.rs` and by the workspace's
//! `tests/eviction_equivalence.rs`; it sits in a subdirectory so Cargo does not
//! build it as a test target of its own.

// Each including suite uses a different subset of the accessors.
#![allow(dead_code)]

use impress_trackers::eact::{Eact, EactCounter, CANONICAL_FRAC_BITS};
use impress_trackers::graphene::GrapheneConfig;
use impress_trackers::mithril::MithrilConfig;
use impress_trackers::storage::{StorageEstimate, COUNTER_BITS, ROW_ADDRESS_BITS};
use impress_trackers::{MitigationRequest, RowTracker, TrackerKind};

type RowId = u32;
type Cycle = u64;

/// Truncates `eact` to `frac_bits` fractional bits, as the counters store it.
pub fn quantize(eact: Eact, frac_bits: u32) -> Eact {
    if frac_bits >= CANONICAL_FRAC_BITS {
        eact
    } else {
        let drop = CANONICAL_FRAC_BITS - frac_bits;
        Eact::from_raw((eact.raw() >> drop) << drop)
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    row: RowId,
    count: EactCounter,
    valid: bool,
}

#[derive(Debug, Clone)]
struct Table {
    entries: Vec<Entry>,
    spillover: EactCounter,
    /// Whether the latest victim choice had more than one candidate.
    ambiguous: bool,
}

impl Table {
    fn new(entries: usize) -> Self {
        Self {
            entries: vec![
                Entry {
                    row: 0,
                    count: EactCounter::ZERO,
                    valid: false,
                };
                entries
            ],
            spillover: EactCounter::ZERO,
            ambiguous: false,
        }
    }

    fn find(&self, row: RowId) -> Option<usize> {
        self.entries.iter().position(|e| e.valid && e.row == row)
    }

    fn first_invalid(&self) -> Option<usize> {
        self.entries.iter().position(|e| !e.valid)
    }

    /// The first slot matching `candidate`, noting whether a second one exists.
    fn first_candidate(&mut self, candidate: impl Fn(&Entry) -> bool) -> Option<usize> {
        let mut slots = (0..self.entries.len()).filter(|&i| candidate(&self.entries[i]));
        let first = slots.next();
        self.ambiguous = slots.next().is_some();
        first
    }

    fn install(&mut self, slot: usize, row: RowId, count: EactCounter) {
        self.entries[slot] = Entry {
            row,
            count,
            valid: true,
        };
    }

    fn tracked_raw(&self, row: RowId) -> Option<u64> {
        self.find(row).map(|i| self.entries[i].count.raw())
    }

    fn reset(&mut self) {
        for e in &mut self.entries {
            e.valid = false;
            e.count = EactCounter::ZERO;
        }
        self.spillover = EactCounter::ZERO;
    }

    fn storage(&self, frac_bits: u32) -> StorageEstimate {
        StorageEstimate::per_entry(
            self.entries.len() as u64,
            ROW_ADDRESS_BITS + COUNTER_BITS + frac_bits,
        )
    }
}

/// The seed's Graphene for one bank.
#[derive(Debug, Clone)]
pub struct SeedGraphene {
    config: GrapheneConfig,
    table: Table,
}

impl SeedGraphene {
    pub fn new(config: GrapheneConfig) -> Self {
        let table = Table::new(config.entries);
        Self { config, table }
    }

    /// Whether the latest `record` claimed one of several claimable entries.
    pub fn ambiguous(&self) -> bool {
        self.table.ambiguous
    }

    /// Raw counter value for `row`, if tracked.
    pub fn tracked_raw(&self, row: RowId) -> Option<u64> {
        self.table.tracked_raw(row)
    }

    /// Raw spillover count.
    pub fn spillover_raw(&self) -> u64 {
        self.table.spillover.raw()
    }
}

impl RowTracker for SeedGraphene {
    fn record(&mut self, row: RowId, eact: Eact, now: Cycle) -> Option<MitigationRequest> {
        let eact = quantize(eact, self.config.frac_bits);
        let table = &mut self.table;
        table.ambiguous = false;
        let slot = match table.find(row) {
            Some(slot) => slot,
            None => {
                let spillover = table.spillover;
                let claimed = table
                    .first_invalid()
                    .or_else(|| table.first_candidate(|e| e.count.raw() <= spillover.raw()));
                let Some(slot) = claimed else {
                    table.spillover.add(eact);
                    return None;
                };
                table.install(slot, row, spillover);
                slot
            }
        };
        let entry = &mut table.entries[slot];
        entry.count.add(eact);
        if !entry.count.reached(self.config.internal_threshold) {
            return None;
        }
        entry.count = table.spillover;
        Some(MitigationRequest {
            aggressor: row,
            identified_at: now,
        })
    }

    fn on_refresh_window(&mut self, _now: Cycle) {
        self.table.reset();
    }

    fn kind(&self) -> TrackerKind {
        TrackerKind::Graphene
    }

    fn storage(&self) -> StorageEstimate {
        self.table.storage(self.config.frac_bits)
    }

    fn configured_threshold(&self) -> u64 {
        self.config.threshold
    }
}

/// The seed's Mithril for one bank.
#[derive(Debug, Clone)]
pub struct SeedMithril {
    config: MithrilConfig,
    table: Table,
}

impl SeedMithril {
    pub fn new(config: MithrilConfig) -> Self {
        let table = Table::new(config.entries);
        Self { config, table }
    }

    /// Whether the latest `record` evicted one of several minimum-count
    /// entries, or the latest `on_rfm` mitigated one of several maxima.
    pub fn ambiguous(&self) -> bool {
        self.table.ambiguous
    }

    /// Raw counter value for `row`, if tracked.
    pub fn tracked_raw(&self, row: RowId) -> Option<u64> {
        self.table.tracked_raw(row)
    }

    /// Raw spillover count.
    pub fn spillover_raw(&self) -> u64 {
        self.table.spillover.raw()
    }
}

impl RowTracker for SeedMithril {
    fn record(&mut self, row: RowId, eact: Eact, _now: Cycle) -> Option<MitigationRequest> {
        let eact = quantize(eact, self.config.frac_bits);
        let table = &mut self.table;
        table.ambiguous = false;
        if let Some(slot) = table.find(row) {
            table.entries[slot].count.add(eact);
            return None;
        }
        let mut count = table.spillover;
        count.add(eact);
        if let Some(slot) = table.first_invalid() {
            table.install(slot, row, count);
            return None;
        }
        let min_raw = table.entries.iter().map(|e| e.count.raw()).min();
        match min_raw.filter(|&min| min <= table.spillover.raw()) {
            Some(min) => {
                let slot = table.first_candidate(|e| e.count.raw() == min);
                table.install(slot.expect("the minimum is in the table"), row, count);
            }
            None => table.spillover.add(eact),
        }
        None
    }

    fn mitigates_on_rfm(&self) -> bool {
        true
    }

    fn on_rfm(&mut self, now: Cycle) -> Option<MitigationRequest> {
        let table = &mut self.table;
        table.ambiguous = false;
        let max_raw = table
            .entries
            .iter()
            .filter(|e| e.valid)
            .map(|e| e.count.raw())
            .max()
            .filter(|&max| max > 0)?;
        let maxima = |e: &Entry| e.valid && e.count.raw() == max_raw;
        table.ambiguous = table.entries.iter().filter(|&e| maxima(e)).count() > 1;
        let slot = table.entries.iter().rposition(maxima)?;
        let aggressor = table.entries[slot].row;
        table.entries[slot].count = table.spillover;
        Some(MitigationRequest {
            aggressor,
            identified_at: now,
        })
    }

    fn on_refresh_window(&mut self, _now: Cycle) {
        self.table.reset();
    }

    fn kind(&self) -> TrackerKind {
        TrackerKind::Mithril
    }

    fn storage(&self) -> StorageEstimate {
        self.table.storage(self.config.frac_bits)
    }

    fn configured_threshold(&self) -> u64 {
        self.config.threshold
    }
}
