//! Behavioral-equivalence property tests for the flat hot-path structures.
//!
//! PR 2 replaced PRAC's `HashMap` with an open-addressed flat table, and PR 3
//! gave Graphene and Mithril an open-addressed row → slot index. These tests
//! drive both against `HashMap` models with identical random streams and
//! require identical observable behavior: the same mitigation requests in the
//! same order, the same counter values, and the same state after
//! refresh-window resets. Graphene's and Mithril's table algorithms are held
//! to the seed in `summary_equivalence.rs`.

use std::collections::HashMap;

use impress_trackers::eact::{Eact, EactCounter, CANONICAL_FRAC_BITS};
use impress_trackers::{MitigationRequest, Prac, RowSlotIndex, RowTracker};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type RowId = u32;
type Cycle = u64;

/// The seed's PRAC: a `HashMap` counter table with half-threshold alerting.
struct ReferencePrac {
    alert_threshold: u64,
    frac_bits: u32,
    counters: HashMap<RowId, EactCounter>,
}

impl ReferencePrac {
    fn new(threshold: u64, frac_bits: u32) -> Self {
        Self {
            alert_threshold: (threshold / 2).max(1),
            frac_bits,
            counters: HashMap::new(),
        }
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

    fn record(&mut self, row: RowId, eact: Eact, now: Cycle) -> Option<MitigationRequest> {
        let eact = self.quantize(eact);
        let counter = self.counters.entry(row).or_default();
        counter.add(eact);
        if counter.reached(self.alert_threshold) {
            *counter = EactCounter::ZERO;
            Some(MitigationRequest {
                aggressor: row,
                identified_at: now,
            })
        } else {
            None
        }
    }

    fn count(&self, row: RowId) -> u64 {
        self.counters.get(&row).map_or(0, |c| c.activations())
    }

    fn on_refresh_window(&mut self) {
        self.counters.clear();
    }
}

/// A random activation stream: mostly a small hot set (to exercise matches and
/// evictions) plus a uniform tail (to exercise spillover), with occasional
/// fractional EACT weights and refresh-window resets.
fn stream(seed: u64, len: usize, hot_rows: u32, universe: u32) -> Vec<(RowId, Eact, bool)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let row = if rng.gen_range(0..100u32) < 70 {
                rng.gen_range(0..hot_rows.max(1))
            } else {
                rng.gen_range(0..universe.max(1))
            };
            let eact = match rng.gen_range(0..4u32) {
                0 => Eact::ONE,
                1 => Eact::from_f64(1.5, 7),
                2 => Eact::from_f64(f64::from(rng.gen_range(1..40u32)) / 4.0, 7),
                _ => Eact::from_f64(2.25, 7),
            };
            let reset = rng.gen_range(0..1000u32) == 0;
            (row, eact, reset)
        })
        .collect()
}

proptest! {
    /// The flat-table PRAC behaves exactly like the seed's HashMap PRAC.
    #[test]
    fn prac_flat_table_matches_hashmap_reference(
        seed in 0u64..1_000_000,
        threshold in 8u64..600,
        frac_bits in 0u32..=7,
    ) {
        let mut optimized = Prac::for_threshold(threshold, frac_bits, 1 << 16);
        let mut reference = ReferencePrac::new(threshold, frac_bits);
        for (i, (row, eact, reset)) in stream(seed, 2_000, 24, 4096).into_iter().enumerate() {
            let now = i as u64 * 128;
            if reset {
                optimized.on_refresh_window(now);
                reference.on_refresh_window();
            }
            let a = optimized.record(row, eact, now);
            let b = reference.record(row, eact, now);
            prop_assert_eq!(a, b);
            prop_assert_eq!(optimized.count(row), reference.count(row));
        }
    }

    /// The row → slot index behaves exactly like a `HashMap<RowId, usize>` under
    /// tracker-shaped operation streams: inserts of absent rows, removals (present
    /// and absent), lookups, and full clears. Exercises backward-shift deletion by
    /// keeping the key universe small relative to the index capacity.
    #[test]
    fn row_slot_index_matches_hashmap_reference(
        seed in 0u64..1_000_000,
        entries in 1usize..64,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut index = RowSlotIndex::for_entries(entries);
        let mut model: HashMap<RowId, usize> = HashMap::new();
        let universe = (entries as u32) * 4;
        for _step in 0..2_000u32 {
            let row = rng.gen_range(0..universe);
            match rng.gen_range(0..100u32) {
                // Insert (only when absent and the table has room, as trackers do).
                0..=44 if !model.contains_key(&row) && model.len() < entries => {
                    let slot = rng.gen_range(0..entries as u32) as usize;
                    index.insert(row, slot);
                    model.insert(row, slot);
                }
                // Remove, present or not.
                45..=84 => {
                    let was_present = model.remove(&row).is_some();
                    prop_assert_eq!(index.remove(row), was_present);
                }
                // Occasional refresh-window reset.
                85..=86 => {
                    index.clear();
                    model.clear();
                }
                // Lookup of a random row.
                _ => {}
            }
            prop_assert_eq!(index.get(row), model.get(&row).copied());
            prop_assert_eq!(index.len(), model.len());
        }
        // Full sweep: every key in the universe agrees.
        for row in 0..universe {
            prop_assert_eq!(index.get(row), model.get(&row).copied());
        }
    }
}
