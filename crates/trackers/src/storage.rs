//! Storage-overhead accounting for trackers.
//!
//! The paper compares defenses partly by SRAM cost (e.g. Graphene needs 448 entries per
//! bank = 115 KB per channel for TRH = 4K, doubling under ExPress/ImPress-N but growing
//! by only 25% under ImPress-P). [`StorageEstimate`] captures the per-bank entry count
//! and entry width so those numbers can be reproduced.

use std::fmt;

/// Storage required by one bank's tracker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StorageEstimate {
    /// Number of tracking entries per bank (1 for single-register designs).
    pub entries_per_bank: u64,
    /// Width of each entry in bits (row address + counter + any metadata).
    pub bits_per_entry: u32,
    /// Additional per-bank state in bits that is not per-entry (timers, registers).
    pub extra_bits_per_bank: u32,
}

impl StorageEstimate {
    /// Creates an estimate from entries and entry width, with no extra state.
    pub fn per_entry(entries_per_bank: u64, bits_per_entry: u32) -> Self {
        Self {
            entries_per_bank,
            bits_per_entry,
            extra_bits_per_bank: 0,
        }
    }

    /// Total bits per bank.
    pub fn bits_per_bank(&self) -> u64 {
        self.entries_per_bank * u64::from(self.bits_per_entry) + u64::from(self.extra_bits_per_bank)
    }

    /// Total bytes per bank (rounded up).
    pub fn bytes_per_bank(&self) -> u64 {
        self.bits_per_bank().div_ceil(8)
    }

    /// Total kibibytes per channel given the number of banks per channel
    /// (the paper reports KB per channel with 64 banks/channel).
    pub fn kib_per_channel(&self, banks_per_channel: usize) -> f64 {
        (self.bits_per_bank() * banks_per_channel as u64) as f64 / 8.0 / 1024.0
    }

    /// Ratio of this storage cost to a baseline estimate (total bits per bank).
    pub fn relative_to(&self, baseline: &StorageEstimate) -> f64 {
        self.bits_per_bank() as f64 / baseline.bits_per_bank() as f64
    }
}

impl fmt::Display for StorageEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} entries × {} bits (+{} bits) = {} B/bank",
            self.entries_per_bank,
            self.bits_per_entry,
            self.extra_bits_per_bank,
            self.bytes_per_bank()
        )
    }
}

/// Number of bits needed to address a row within a bank (the paper's configuration has
/// 64K–128K rows per bank; entries store a row address of this width).
pub const ROW_ADDRESS_BITS: u32 = 17;

/// Width of a Graphene/Mithril activation counter able to count up to the internal
/// threshold for typical thresholds (≤ 16K), without ImPress-P fractional extension.
pub const COUNTER_BITS: u32 = 15;

/// Per-entry pointer bits a hardware realization of the stream-summary eviction
/// engine ([`crate::summary::CountSummary`]) would add: three links of
/// `ceil(log2(entries))` bits each (bucket id + two member-list neighbours) at
/// the paper's table sizes (Graphene 448, Mithril 383 ⇒ 9-bit ids).
///
/// The reproduction does **not** charge this to [`crate::tracker::RowTracker::storage`]:
/// the paper's hardware designs answer the min/max queries with a parallel CAM
/// comparison rather than a linked structure, so the summary is a
/// simulator-side acceleration of the same observable algorithm and the SRAM
/// accounting (entries × entry width) is unchanged. The constant exists so the
/// storage analysis can quote what an SRAM-pointer realization *would* cost
/// (`3 × 9 = 27` bits/entry, ~84% of a 32-bit base entry — which is exactly why
/// the hardware uses a CAM instead). The simulator's slot record also holds a
/// hash-chain link for the row lookup, which the same CAM answers in hardware;
/// it is not counted here either.
pub const SUMMARY_LINK_BITS: u32 = 27;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_round_up() {
        let s = StorageEstimate::per_entry(1, 10);
        assert_eq!(s.bytes_per_bank(), 2);
    }

    #[test]
    fn graphene_like_storage_is_about_115kb_per_channel() {
        // 448 entries × 32 bits × 64 banks / 8 / 1024 = 112 KiB ≈ the paper's "115 KB".
        let s = StorageEstimate::per_entry(448, ROW_ADDRESS_BITS + COUNTER_BITS);
        let kib = s.kib_per_channel(64);
        assert!((kib - 112.0).abs() < 1.0, "kib = {kib}");
    }

    #[test]
    fn relative_storage_ratio() {
        let base = StorageEstimate::per_entry(448, 32);
        let impress_p = StorageEstimate::per_entry(448, 32 + 7);
        let ratio = impress_p.relative_to(&base);
        assert!((ratio - 1.22).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn summary_pointer_realization_is_quoted_not_charged() {
        // An SRAM-pointer stream-summary would nearly double Graphene's entry
        // width — the number the docs quote when explaining why hardware uses a
        // CAM and why `storage()` stays at entries × (row + counter) bits.
        let base = StorageEstimate::per_entry(448, ROW_ADDRESS_BITS + COUNTER_BITS);
        let with_links =
            StorageEstimate::per_entry(448, ROW_ADDRESS_BITS + COUNTER_BITS + SUMMARY_LINK_BITS);
        let ratio = with_links.relative_to(&base);
        assert!(ratio > 1.8 && ratio < 1.9, "ratio = {ratio}");
    }

    #[test]
    fn display_mentions_entries() {
        let s = StorageEstimate::per_entry(4, 32);
        assert!(s.to_string().contains("4 entries"));
    }
}
