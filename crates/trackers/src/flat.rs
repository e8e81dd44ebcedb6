//! An open-addressed flat counter table keyed by row index.
//!
//! PRAC conceptually stores one activation counter per DRAM row, but only a small
//! working set of rows is ever touched between refresh windows. The seed modeled this
//! with a `HashMap<RowId, EactCounter>`, which puts SipHash and allocator traffic on
//! the per-activation hot path. [`FlatCounterTable`] replaces it with a flat
//! open-addressed table:
//!
//! * power-of-two capacity, Fibonacci multiplicative hashing, linear probing — the
//!   probe loop is a handful of branch-predictable instructions over two dense arrays;
//! * no per-entry allocation: growing doubles two `Vec`s and rehashes;
//! * `clear` retains capacity, so steady-state operation after the first refresh
//!   window never allocates.
//!
//! Behaviour is observably identical to the map it replaces (same counts, same
//! clear semantics); `tests/flat_equivalence.rs` asserts this property against a
//! `HashMap` reference model under random activation streams.

use impress_dram::address::RowId;

use crate::eact::{Eact, EactCounter};

/// Sentinel key marking an empty slot. Row addresses are bank row indices and DDR5
/// banks top out at 2^17 rows, so `u32::MAX` can never collide with a real row.
const EMPTY: RowId = RowId::MAX;

/// Fibonacci multiplicative hash: spreads consecutive row indices (the common access
/// pattern) across the table while staying a single multiply.
#[inline]
fn fib_hash(row: RowId, mask: usize) -> usize {
    (row.wrapping_mul(0x9E37_79B9) as usize) & mask
}

/// An open-addressed `RowId -> EactCounter` table.
#[derive(Debug, Clone)]
pub struct FlatCounterTable {
    keys: Vec<RowId>,
    counters: Vec<EactCounter>,
    len: usize,
    /// Exact maximum raw counter value over the table. Maintained monotonically
    /// on `add`/`set_counter_raw_at` and recomputed by scan when a counter
    /// decreases (`reset`/`recompute_max`) — decrements only happen on the rare
    /// mitigation path, so the scan stays off the per-record path.
    max_raw: u64,
}

impl Default for FlatCounterTable {
    fn default() -> Self {
        Self::new()
    }
}

impl FlatCounterTable {
    /// Initial capacity (slots) of a fresh table.
    const INITIAL_CAPACITY: usize = 64;

    /// Creates an empty table.
    pub fn new() -> Self {
        Self::with_capacity(Self::INITIAL_CAPACITY)
    }

    /// Creates an empty table with at least `capacity` slots (rounded up to a power
    /// of two).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(Self::INITIAL_CAPACITY).next_power_of_two();
        Self {
            keys: vec![EMPTY; capacity],
            counters: vec![EactCounter::ZERO; capacity],
            len: 0,
            max_raw: 0,
        }
    }

    /// Number of rows currently tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no rows are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots currently allocated.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// The counter for `row`, or [`EactCounter::ZERO`] if the row is not tracked.
    #[inline]
    pub fn get(&self, row: RowId) -> EactCounter {
        let mask = self.keys.len() - 1;
        let mut i = fib_hash(row, mask);
        loop {
            let k = self.keys[i];
            if k == row {
                return self.counters[i];
            }
            if k == EMPTY {
                return EactCounter::ZERO;
            }
            i = (i + 1) & mask;
        }
    }

    /// Adds `eact` to `row`'s counter (inserting it at zero first if absent) and
    /// returns the updated counter value.
    #[inline]
    pub fn add(&mut self, row: RowId, eact: Eact) -> EactCounter {
        let i = self.slot_for(row);
        self.counters[i].add(eact);
        self.max_raw = self.max_raw.max(self.counters[i].raw());
        self.counters[i]
    }

    /// Resets `row`'s counter to zero, keeping the row tracked (mirrors the map
    /// version's `*counter = EactCounter::ZERO`).
    #[inline]
    pub fn reset(&mut self, row: RowId) {
        let i = self.slot_for(row);
        self.counters[i] = EactCounter::ZERO;
        self.recompute_max();
    }

    /// Removes every tracked row. Capacity is retained, so a table that has reached
    /// its steady-state size never allocates again.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.counters.fill(EactCounter::ZERO);
        self.len = 0;
        self.max_raw = 0;
    }

    /// The maximum raw (Q7 fixed-point) counter value over every tracked row —
    /// what PRAC's mitigation headroom is computed from.
    #[inline]
    pub fn max_raw(&self) -> u64 {
        self.max_raw
    }

    /// Recomputes [`FlatCounterTable::max_raw`] exactly by scanning the table.
    /// Callers that lower a counter through the raw slot API must call this
    /// afterwards (PRAC's `record_run` does it once per run, after any reset).
    pub fn recompute_max(&mut self) {
        self.max_raw = self
            .counters
            .iter()
            .zip(&self.keys)
            .filter(|(_, &k)| k != EMPTY)
            .map(|(c, _)| c.raw())
            .max()
            .unwrap_or(0);
    }

    /// The slot for `row`, inserting it at zero first if absent. The returned
    /// slot stays valid until another row is inserted (same-row operations
    /// never move it), which is what lets a counted run probe once.
    #[inline]
    pub fn slot_of(&mut self, row: RowId) -> usize {
        self.slot_for(row)
    }

    /// The raw counter value in `slot` (from [`FlatCounterTable::slot_of`]).
    #[inline]
    pub fn counter_raw_at(&self, slot: usize) -> u64 {
        self.counters[slot].raw()
    }

    /// Stores `raw` into `slot`'s counter. The maximum is updated monotonically;
    /// a caller that *lowers* a counter must follow up with
    /// [`FlatCounterTable::recompute_max`].
    #[inline]
    pub fn set_counter_raw_at(&mut self, slot: usize, raw: u64) {
        self.counters[slot] = EactCounter::from_raw(raw);
        self.max_raw = self.max_raw.max(raw);
    }

    /// Iterates over the tracked `(row, counter)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, EactCounter)> + '_ {
        self.keys
            .iter()
            .zip(&self.counters)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &c)| (k, c))
    }

    /// Finds (or inserts) the slot for `row`, growing first if the insert would push
    /// the load factor past 7/8.
    #[inline]
    fn slot_for(&mut self, row: RowId) -> usize {
        debug_assert_ne!(row, EMPTY, "row id {EMPTY} is reserved as the empty marker");
        let mask = self.keys.len() - 1;
        let mut i = fib_hash(row, mask);
        loop {
            let k = self.keys[i];
            if k == row {
                return i;
            }
            if k == EMPTY {
                if (self.len + 1) * 8 > self.keys.len() * 7 {
                    self.grow();
                    return self.slot_for(row);
                }
                self.keys[i] = row;
                self.len += 1;
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_capacity = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_capacity]);
        let old_counters =
            std::mem::replace(&mut self.counters, vec![EactCounter::ZERO; new_capacity]);
        let mask = new_capacity - 1;
        for (k, c) in old_keys.into_iter().zip(old_counters) {
            if k == EMPTY {
                continue;
            }
            let mut i = fib_hash(k, mask);
            while self.keys[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.keys[i] = k;
            self.counters[i] = c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_rows_read_zero() {
        let t = FlatCounterTable::new();
        assert_eq!(t.get(42), EactCounter::ZERO);
        assert!(t.is_empty());
    }

    #[test]
    fn add_accumulates_per_row() {
        let mut t = FlatCounterTable::new();
        t.add(1, Eact::ONE);
        t.add(1, Eact::ONE);
        t.add(2, Eact::from_f64(1.5, 7));
        assert_eq!(t.get(1).activations(), 2);
        assert!((t.get(2).as_f64() - 1.5).abs() < 1e-9);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn reset_keeps_the_row_tracked() {
        let mut t = FlatCounterTable::new();
        t.add(9, Eact::ONE);
        t.reset(9);
        assert_eq!(t.get(9), EactCounter::ZERO);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut t = FlatCounterTable::new();
        for row in 0..1000u32 {
            t.add(row, Eact::ONE);
        }
        let cap = t.capacity();
        assert!(cap >= 1000);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.capacity(), cap);
        assert_eq!(t.get(500), EactCounter::ZERO);
    }

    #[test]
    fn growth_preserves_counts() {
        let mut t = FlatCounterTable::with_capacity(64);
        // Insert far past the initial capacity; every count must survive rehashing.
        for row in 0..10_000u32 {
            for _ in 0..(row % 3 + 1) {
                t.add(row * 7 + 1, Eact::ONE);
            }
        }
        for row in 0..10_000u32 {
            assert_eq!(t.get(row * 7 + 1).activations(), u64::from(row % 3 + 1));
        }
        assert_eq!(t.len(), 10_000);
    }

    #[test]
    fn colliding_rows_probe_to_distinct_slots() {
        // Rows an exact capacity apart hash identically under the power-of-two mask.
        let mut t = FlatCounterTable::with_capacity(64);
        let cap = t.capacity() as u32;
        for i in 0..8u32 {
            t.add(5 + i * cap * 3, Eact::ONE);
        }
        for i in 0..8u32 {
            assert_eq!(t.get(5 + i * cap * 3).activations(), 1);
        }
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn iter_yields_every_tracked_row() {
        let mut t = FlatCounterTable::new();
        for row in [3u32, 99, 7000] {
            t.add(row, Eact::ONE);
        }
        let mut rows: Vec<RowId> = t.iter().map(|(r, _)| r).collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![3, 99, 7000]);
    }
}
