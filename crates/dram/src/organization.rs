//! DRAM module organization (channels, ranks, bank groups, banks, rows, columns).

/// Describes how much DRAM exists and how it is organized, mirroring Table II of the
/// paper (64 GB DDR5, 2 channels, 32 banks × 1 rank × 2 sub-channels per channel).
///
/// Sub-channels are folded into the bank-group dimension: the paper's
/// "32 banks × 2 sub-channels" per channel is modelled as 64 independently schedulable
/// banks per channel, which is what matters for row-buffer and Rowhammer behaviour.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DramOrganization {
    /// Number of memory channels.
    pub channels: u8,
    /// Ranks per channel.
    pub ranks: u8,
    /// Bank groups per rank.
    pub bank_groups: u8,
    /// Banks per bank group.
    pub banks_per_group: u8,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Cache lines per row (row size / 64 B).
    pub columns_per_row: u32,
    /// Cache-line size in bytes.
    pub line_bytes: u32,
}

impl DramOrganization {
    /// The baseline configuration of Table II: 64 GB across 2 channels, 64 banks per
    /// channel, 8 KB rows.
    pub fn baseline() -> Self {
        Self {
            channels: 2,
            ranks: 1,
            bank_groups: 8,
            banks_per_group: 8,
            rows_per_bank: 1 << 16, // 64K rows per bank
            columns_per_row: 128,   // 8 KB row / 64 B lines
            line_bytes: 64,
        }
    }

    /// A small configuration convenient for unit tests and examples (keeps address
    /// footprints small while preserving the same structure).
    pub fn small() -> Self {
        Self {
            channels: 1,
            ranks: 1,
            bank_groups: 2,
            banks_per_group: 2,
            rows_per_bank: 1 << 12,
            columns_per_row: 128,
            line_bytes: 64,
        }
    }

    /// Banks per channel (ranks × bank groups × banks per group).
    pub fn banks_per_channel(&self) -> usize {
        self.ranks as usize * self.bank_groups as usize * self.banks_per_group as usize
    }

    /// Total number of banks in the system.
    pub fn total_banks(&self) -> usize {
        self.channels as usize * self.banks_per_channel()
    }

    /// Bytes per row.
    pub fn row_bytes(&self) -> u64 {
        self.columns_per_row as u64 * self.line_bytes as u64
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_banks() as u64 * self.rows_per_bank as u64 * self.row_bytes()
    }
}

impl Default for DramOrganization {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let org = DramOrganization::baseline();
        // 2 channels × 64 banks/channel.
        assert_eq!(org.banks_per_channel(), 64);
        assert_eq!(org.total_banks(), 128);
        // 64 GB total capacity.
        assert_eq!(org.capacity_bytes(), 64 << 30);
        assert_eq!(org.row_bytes(), 8192);
    }

    #[test]
    fn small_config_is_consistent() {
        let org = DramOrganization::small();
        assert_eq!(org.total_banks(), 4);
        assert!(org.capacity_bytes() > 0);
    }
}
