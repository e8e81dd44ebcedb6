//! Behavioral-equivalence property tests for the flat hot-path structures.
//!
//! PRAC keeps its counters in an open-addressed flat table instead of the
//! seed's `HashMap`, and Graphene and Mithril find their rows through hash
//! chains threaded through their [`CountSummary`] slots. These tests drive both
//! against `HashMap` models with identical random streams and require
//! identical observable behavior: the same mitigation requests in the same
//! order, the same counter values or row lookups, and the same state after
//! refresh-window resets. Graphene's and Mithril's table algorithms are held
//! to the seed in `summary_equivalence.rs`.

use std::collections::HashMap;

use impress_trackers::eact::{Eact, EactCounter, CANONICAL_FRAC_BITS};
use impress_trackers::{CountSummary, MitigationRequest, Prac, RowTracker};
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

    /// The table's row lookup behaves exactly like a `HashMap<RowId, usize>`
    /// under tracker-shaped operation streams: free claims of absent rows (in
    /// slot order), min-count evictions that move a slot to a new row,
    /// recounts, lookups and clears. One to four chain heads and a key
    /// universe four times the slot count make rows collide, so evictions
    /// unchain links from the middle of a chain. The structure validator runs
    /// after every operation.
    #[test]
    fn count_table_matches_hashmap_reference(
        seed in 0u64..1_000_000,
        entries in 1usize..48,
        heads_log2 in 0u32..3,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut table = CountSummary::with_chain_heads(entries, 1 << heads_log2);
        let mut model: HashMap<RowId, usize> = HashMap::new();
        let mut free_claims = 0usize;
        let universe = (entries as u32) * 4;
        for step in 0..2_000u32 {
            let row = rng.gen_range(0..universe);
            let count = u64::from(rng.gen_range(0..16u32));
            match rng.gen_range(0..100u32) {
                // Claim an absent row, as the trackers do on a miss: a free
                // slot while any remains, else the minimum if its count is at
                // most a spillover-like limit.
                0..=59 if !model.contains_key(&row) => {
                    if let Some(slot) = table.claim_free(row) {
                        // Free slots are claimed in id order.
                        prop_assert_eq!(slot, free_claims);
                        free_claims += 1;
                        table.attach(slot, count);
                        model.insert(row, slot);
                    } else {
                        let victim = table.min().map(|(slot, _)| table.row_of(slot));
                        // The new count is at least the limit, so at least the
                        // minimum whenever the eviction happens.
                        if let Some(slot) = table.evict_min_if_at_most(count, count + 2) {
                            table.rechain(slot, row);
                            let victim = victim.expect("an eviction has a victim");
                            prop_assert_eq!(model.remove(&victim), Some(slot));
                            model.insert(row, slot);
                        }
                    }
                }
                // Recount a tracked row (a match, or a mitigation roll-back).
                60..=89 => {
                    if let Some(&slot) = model.get(&row) {
                        table.set_count(slot, count);
                    }
                }
                // Occasional refresh-window reset.
                90..=91 => {
                    table.clear();
                    model.clear();
                    free_claims = 0;
                }
                // Lookup of a random row.
                _ => {}
            }
            table.validate();
            prop_assert!(
                table.find(row) == model.get(&row).copied(),
                "step {}: row {} found at {:?}, model {:?}",
                step, row, table.find(row), model.get(&row)
            );
            prop_assert_eq!(table.len(), model.len());
        }
        // Full sweep: every key in the universe agrees.
        for row in 0..universe {
            prop_assert_eq!(table.find(row), model.get(&row).copied());
        }
    }
}
