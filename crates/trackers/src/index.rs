//! O(1) row → table-slot lookup for fixed-size Misra-Gries tables.
//!
//! Graphene and Mithril keep a few hundred `(row, counter)` entries per bank. Their
//! `record` hot path previously scanned the table linearly on every activation to
//! find the matching entry (~0.4 µs per record at paper sizing on miss-heavy
//! streams). [`RowSlotIndex`] is a small open-addressed hash index maintained beside
//! the table that answers "which slot holds this row?" in O(1):
//!
//! * fixed power-of-two capacity of at least twice the table size (the table can
//!   never hold more rows than it has entries, so the load factor stays ≤ 1/2 and
//!   probe sequences stay short) — no growth, no allocation after construction;
//! * Fibonacci multiplicative hashing with linear probing, like
//!   [`crate::flat::FlatCounterTable`];
//! * deletions use backward-shift compaction instead of tombstones, so eviction-heavy
//!   streams (the worst case for the old scan) cannot degrade the index.
//!
//! The index is pure acceleration: it changes which slot is *found*, never which
//! slot the Misra-Gries algorithm *chooses*. Victim selection on a miss belongs
//! to the count-ordered [`crate::summary::CountSummary`], which answers in O(1);
//! `tests/summary_equivalence.rs` pins its observational-equivalence contract
//! against a transcription of the seed's multi-scan algorithms, and
//! `tests/flat_equivalence.rs` pins the index against a `HashMap`.

use impress_dram::address::RowId;

/// Sentinel key marking an empty index slot (row addresses top out at 2^17).
const EMPTY: RowId = RowId::MAX;

/// Fibonacci multiplicative hash (same spreading as the flat counter table).
#[inline]
fn fib_hash(row: RowId, mask: usize) -> usize {
    (row.wrapping_mul(0x9E37_79B9) as usize) & mask
}

/// An open-addressed `RowId -> slot` map of fixed capacity.
///
/// Each cell packs the key (low 32 bits) and the table slot (high 32 bits) into
/// one `u64`, so a probe — and, more importantly, every backward-shift move on
/// removal — touches one array location instead of two parallel ones.
#[derive(Debug, Clone)]
pub struct RowSlotIndex {
    cells: Vec<u64>,
    len: usize,
}

/// An empty cell: the sentinel key with a zero slot.
const EMPTY_CELL: u64 = EMPTY as u64;

#[inline]
fn pack(row: RowId, slot: usize) -> u64 {
    u64::from(row) | ((slot as u64) << 32)
}

#[inline]
fn cell_key(cell: u64) -> RowId {
    cell as RowId
}

#[inline]
fn cell_slot(cell: u64) -> usize {
    (cell >> 32) as usize
}

impl RowSlotIndex {
    /// Builds an index able to hold `entries` rows (the Misra-Gries table size).
    pub fn for_entries(entries: usize) -> Self {
        let capacity = (entries.max(1) * 2).next_power_of_two().max(16);
        Self {
            cells: vec![EMPTY_CELL; capacity],
            len: 0,
        }
    }

    /// Number of rows currently indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.cells.len() - 1
    }

    /// Capacity of the cell array (used by the over-capacity assertions).
    #[inline]
    fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// The table slot holding `row`, if the row is currently tracked.
    ///
    /// The sentinel value itself (`RowId::MAX`, unreachable for real DDR5 rows) is
    /// reported as absent: the `EMPTY` comparison is ordered before the key match so
    /// a sentinel query can never alias an empty slot.
    #[inline]
    pub fn get(&self, row: RowId) -> Option<usize> {
        let mask = self.mask();
        let mut i = fib_hash(row, mask);
        loop {
            let cell = self.cells[i];
            let k = cell_key(cell);
            if k == EMPTY {
                return None;
            }
            if k == row {
                return Some(cell_slot(cell));
            }
            i = (i + 1) & mask;
        }
    }

    /// Looks up `row`, returning its table slot — or, on a miss, the index
    /// position where `row` would be inserted (`Err`), which can be handed
    /// straight to [`RowSlotIndex::insert_at`] to avoid re-probing.
    ///
    /// The returned position is invalidated by *any* intervening mutation of the
    /// index (`insert`/`remove`/`clear`): backward-shift compaction may move a
    /// key into (or out of) the probe path.
    #[inline]
    pub fn locate(&self, row: RowId) -> Result<usize, usize> {
        let mask = self.mask();
        let mut i = fib_hash(row, mask);
        loop {
            let cell = self.cells[i];
            let k = cell_key(cell);
            if k == EMPTY {
                return Err(i);
            }
            if k == row {
                return Ok(cell_slot(cell));
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `row` at a position previously returned by
    /// [`RowSlotIndex::locate`]'s `Err`, with no intervening index mutation.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the position no longer lies on `row`'s probe
    /// path terminus (i.e. the no-intervening-mutation contract was broken) or
    /// if the index is over capacity.
    #[inline]
    pub fn insert_at(&mut self, position: usize, row: RowId, slot: usize) {
        debug_assert_ne!(row, EMPTY, "row id {EMPTY} is reserved as the empty marker");
        debug_assert_eq!(
            self.locate(row).err(),
            Some(position),
            "stale probe position for row {row}"
        );
        // One past the half-capacity bound is allowed: the evict-replace path
        // inserts the incoming row *before* removing the victim (the removal
        // would invalidate the probe position), so a full table is transiently
        // one row over.
        assert!(
            self.len <= self.capacity() / 2,
            "RowSlotIndex sized for half its capacity"
        );
        self.cells[position] = pack(row, slot);
        self.len += 1;
    }

    /// Records that `row` now lives in table slot `slot`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `row` is already indexed (trackers insert a row
    /// only after establishing it is absent) or if the index is over capacity.
    #[inline]
    pub fn insert(&mut self, row: RowId, slot: usize) {
        debug_assert_ne!(row, EMPTY, "row id {EMPTY} is reserved as the empty marker");
        debug_assert!(self.get(row).is_none(), "row {row} inserted twice");
        assert!(
            self.len < self.capacity() / 2,
            "RowSlotIndex sized for half its capacity"
        );
        let mask = self.mask();
        let mut i = fib_hash(row, mask);
        while cell_key(self.cells[i]) != EMPTY {
            i = (i + 1) & mask;
        }
        self.cells[i] = pack(row, slot);
        self.len += 1;
    }

    /// Removes `row` from the index (no-op if absent). Returns whether it was present.
    ///
    /// Uses backward-shift compaction: every key in the probe cluster after the
    /// removed one is moved back if (and only if) the vacated position still lies on
    /// its probe path, preserving the linear-probing invariant without tombstones.
    #[inline]
    pub fn remove(&mut self, row: RowId) -> bool {
        let mask = self.mask();
        let mut i = fib_hash(row, mask);
        loop {
            let k = cell_key(self.cells[i]);
            if k == EMPTY {
                return false;
            }
            if k == row {
                break;
            }
            i = (i + 1) & mask;
        }
        let mut hole = i;
        let mut j = (i + 1) & mask;
        loop {
            let cell = self.cells[j];
            let k = cell_key(cell);
            if k == EMPTY {
                break;
            }
            let home = fib_hash(k, mask);
            // `k` may fill the hole iff the hole lies between its home position and
            // its current position (cyclically) — otherwise moving it would place it
            // before its home and break lookups.
            let home_to_hole = hole.wrapping_sub(home) & mask;
            let home_to_j = j.wrapping_sub(home) & mask;
            if home_to_hole <= home_to_j {
                self.cells[hole] = cell;
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.cells[hole] = EMPTY_CELL;
        self.len -= 1;
        true
    }

    /// Removes every row. Capacity is retained; never allocates.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.cells.fill(EMPTY_CELL);
            self.len = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut idx = RowSlotIndex::for_entries(8);
        assert!(idx.is_empty());
        idx.insert(100, 3);
        idx.insert(200, 5);
        assert_eq!(idx.get(100), Some(3));
        assert_eq!(idx.get(200), Some(5));
        assert_eq!(idx.get(300), None);
        assert!(idx.remove(100));
        assert!(!idx.remove(100));
        assert_eq!(idx.get(100), None);
        assert_eq!(idx.get(200), Some(5));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn colliding_rows_survive_backward_shift_removal() {
        // Rows a multiple of the capacity apart hash to the same home slot; removing
        // one from the middle of the cluster must keep the others findable.
        let mut idx = RowSlotIndex::for_entries(8);
        let cap = 16u32; // for_entries(8) -> capacity 16
        let rows: Vec<RowId> = (0..6).map(|i| 5 + i * cap * 7).collect();
        for (slot, &row) in rows.iter().enumerate() {
            idx.insert(row, slot);
        }
        for victim in 0..rows.len() {
            let mut idx = idx.clone();
            assert!(idx.remove(rows[victim]));
            for (slot, &row) in rows.iter().enumerate() {
                if slot == victim {
                    assert_eq!(idx.get(row), None);
                } else {
                    assert_eq!(idx.get(row), Some(slot), "victim {victim} row {row}");
                }
            }
        }
    }

    #[test]
    fn sentinel_row_reads_as_absent() {
        let mut idx = RowSlotIndex::for_entries(8);
        idx.insert(1, 0);
        assert_eq!(idx.get(RowId::MAX), None);
        assert!(!idx.remove(RowId::MAX));
        assert_eq!(idx.get(1), Some(0));
    }

    #[test]
    fn clear_empties_the_index() {
        let mut idx = RowSlotIndex::for_entries(32);
        for row in 0..32u32 {
            idx.insert(row * 3 + 1, row as usize);
        }
        idx.clear();
        assert!(idx.is_empty());
        for row in 0..32u32 {
            assert_eq!(idx.get(row * 3 + 1), None);
        }
    }

    #[test]
    fn churn_many_insert_remove_cycles() {
        // Eviction-heavy usage: the index repeatedly swaps one row for another at a
        // fixed slot, like a full Misra-Gries table on a miss-heavy stream.
        let mut idx = RowSlotIndex::for_entries(4);
        for (slot, base) in [(0usize, 10u32), (1, 11), (2, 12), (3, 13)] {
            idx.insert(base, slot);
        }
        for round in 0..10_000u32 {
            let slot = (round % 4) as usize;
            let old = 10 + (round % 4) + (round / 4) * 4;
            let new = old + 4;
            assert!(idx.remove(old), "round {round}: {old} missing");
            idx.insert(new, slot);
            assert_eq!(idx.get(new), Some(slot));
            assert_eq!(idx.len(), 4);
        }
    }

    #[test]
    #[should_panic(expected = "sized for half")]
    fn overfilling_is_rejected() {
        let mut idx = RowSlotIndex::for_entries(4);
        for row in 0..9u32 {
            idx.insert(row, 0);
        }
    }
}
