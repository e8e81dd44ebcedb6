//! Observational-equivalence property tests for the stream-summary trackers.
//!
//! Graphene and Mithril choose their eviction and RFM victims from the
//! bucketed [`CountSummary`] structure. Among *tied* minimum- (or maximum-)
//! count entries the summary may pick a different victim than the seed's
//! table-order scan, so bit-identical selection is deliberately relaxed to an
//! **observational-equivalence contract**, which this suite pins against the
//! seed transcription in `support/seed.rs`:
//!
//! (a) On any access stream, as long as every victim choice has been
//!     *unambiguous* (exactly one claimable candidate on eviction, a unique
//!     maximum on RFM), the summary trackers issue exactly the same mitigation
//!     requests at the same accesses as the seed, with identical counter
//!     state — checked access-by-access against the seed, which also reports
//!     when a choice was ambiguous.
//!
//! (b) Regardless of ties, the summary trackers satisfy the
//!     Misra-Gries/Space-Saving error bound. The security-relevant half holds
//!     on *any* stream: a row's true recorded weight since its last mitigation
//!     never exceeds its tracked counter (or, if untracked, the spillover
//!     count) — the tracker never undercounts, so every row crossing the
//!     internal threshold is caught. The classical `count_error ≤ N / k` bound
//!     on the spillover term is a *unit-increment* Misra-Gries property and is
//!     asserted exactly on unit-weight streams; weighted EACT streams can
//!     legitimately push the spillover past N/k (a new entry inherits the whole
//!     spillover count, so cheap evictions can re-arm an expensive spill — see
//!     `unit_weight_spillover_bound` for the discussion), and get the per-row
//!     no-undercount bound plus `spillover ≤ N` instead.
//!
//! (c) Decrement/reset round-trips (RFM and mitigation roll-backs, refresh-window
//!     clears) preserve the bucket-list ordering invariants, checked by
//!     [`CountSummary::validate`] against a naive model under randomized
//!     attach/detach/set-count/clear streams.

use std::collections::HashMap;

use impress_trackers::eact::Eact;
use impress_trackers::graphene::GrapheneConfig;
use impress_trackers::mithril::MithrilConfig;
use impress_trackers::{CountSummary, Graphene, Mithril, RowTracker};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[path = "support/seed.rs"]
mod seed;

use seed::{quantize, SeedGraphene, SeedMithril};

type RowId = u32;

/// A random activation stream: a weighted hot set (matches, mitigations), a
/// uniform tail (evictions, spillover) and occasional refresh-window resets.
/// With `hot_rows == universe` every row is cold, so nearly every record
/// evicts a table entry.
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

/// The two stream shapes the equivalence properties replay: a 16-row hot set
/// over three tables' worth of rows, and all-cold eviction churn over sixteen.
fn equivalence_streams(seed: u64, entries: usize) -> [Vec<(RowId, Eact, bool)>; 2] {
    let universe = (entries as u32).saturating_mul(3).max(64);
    let churn = (entries as u32) * 16;
    [
        stream(seed, 2_000, 16, universe),
        stream(seed, 3_000, churn, churn),
    ]
}

/// Tracks each row's true recorded weight since its last mitigation (or the last
/// refresh-window reset), plus the total — the quantities of the Misra-Gries
/// error bound.
#[derive(Default)]
struct TrueWeights {
    per_row: HashMap<RowId, u64>,
    total: u64,
}

impl TrueWeights {
    fn record(&mut self, row: RowId, quantized: Eact) {
        let raw = u64::from(quantized.raw());
        *self.per_row.entry(row).or_insert(0) += raw;
        self.total += raw;
    }

    fn mitigated(&mut self, row: RowId) {
        self.per_row.insert(row, 0);
    }

    fn reset(&mut self) {
        self.per_row.clear();
        self.total = 0;
    }
}

proptest! {
    /// (a) Summary Graphene vs the seed: identical mitigation decisions,
    /// counter state and spillover at every access, for as long as every
    /// victim choice has been unambiguous. (On fully unambiguous streams this
    /// is equality of the whole mitigation sequence — in particular of the
    /// mitigation multiset.)
    #[test]
    fn graphene_engines_agree_until_first_ambiguous_choice(
        seed in 0u64..1_000_000,
        entries in 2usize..32,
        internal_threshold in 20u64..300,
        frac_bits in 0u32..=7,
    ) {
        let config = GrapheneConfig {
            threshold: internal_threshold * 3,
            internal_threshold,
            entries,
            frac_bits,
        };
        for accesses in equivalence_streams(seed, entries) {
            let mut summary = Graphene::new(config.clone());
            let mut oracle = SeedGraphene::new(config.clone());
            let mut clean_prefix = 0u32;
            for (i, (row, eact, reset)) in accesses.into_iter().enumerate() {
                let now = i as u64 * 128;
                if reset {
                    summary.on_refresh_window(now);
                    oracle.on_refresh_window(now);
                }
                let expected = oracle.record(row, eact, now);
                let b = summary.record(row, eact, now);
                prop_assert!(b == expected, "summary diverged from the seed at {i}: {b:?} vs {expected:?}");
                prop_assert_eq!(summary.spillover_raw(), oracle.spillover_raw());
                prop_assert_eq!(summary.tracked_raw(row), oracle.tracked_raw(row));
                if oracle.ambiguous() {
                    // From the first ambiguous victim choice on, the two may
                    // legitimately track different rows; only the error bound
                    // (tested separately) is guaranteed.
                    break;
                }
                clean_prefix += 1;
            }
            // Bookkeeping so a generator regression (never exercising eviction
            // at all) cannot silently hollow the property out.
            prop_assert!(clean_prefix > 0);
        }
    }

    /// (a) Summary Mithril vs the seed, including RFM-time maximum selection:
    /// identical records and RFM mitigations until the first ambiguous choice
    /// (tied minimum on eviction or tied maximum on RFM).
    #[test]
    fn mithril_engines_agree_until_first_ambiguous_choice(
        seed in 0u64..1_000_000,
        entries in 2usize..32,
        frac_bits in 0u32..=7,
    ) {
        let config = MithrilConfig {
            threshold: 4_000,
            rfm_threshold: 80,
            entries,
            frac_bits,
        };
        for accesses in equivalence_streams(seed, entries) {
            let mut summary = Mithril::new(config.clone());
            let mut oracle = SeedMithril::new(config.clone());
            for (i, (row, eact, reset)) in accesses.into_iter().enumerate() {
                let now = i as u64 * 128;
                if reset {
                    summary.on_refresh_window(now);
                    oracle.on_refresh_window(now);
                }
                prop_assert_eq!(summary.record(row, eact, now), None);
                prop_assert_eq!(oracle.record(row, eact, now), None);
                prop_assert_eq!(summary.spillover_raw(), oracle.spillover_raw());
                prop_assert_eq!(summary.tracked_raw(row), oracle.tracked_raw(row));
                if oracle.ambiguous() {
                    break;
                }
                if i % 80 == 79 {
                    let b = summary.on_rfm(now);
                    let expected = oracle.on_rfm(now);
                    if oracle.ambiguous() {
                        // A tied maximum: both must still mitigate *some*
                        // maximal row now, but may disagree on which.
                        prop_assert_eq!(b.is_some(), expected.is_some());
                        break;
                    }
                    prop_assert!(b == expected, "summary RFM diverged at {i} (unambiguous): {b:?} vs {expected:?}");
                }
            }
        }
    }

    /// (b) The Misra-Gries error bound holds for the summary Graphene on any
    /// stream, ties included: a row's true weight since its last mitigation
    /// never exceeds its tracked counter (or, if untracked, the spillover
    /// count), and the spillover count never exceeds the total weight.
    #[test]
    fn graphene_error_bound_holds_for_both_engines(
        seed in 0u64..1_000_000,
        entries in 1usize..32,
        internal_threshold in 20u64..300,
        frac_bits in 0u32..=7,
    ) {
        let config = GrapheneConfig {
            threshold: internal_threshold * 3,
            internal_threshold,
            entries,
            frac_bits,
        };
        let mut tracker = Graphene::new(config);
        let mut truth = TrueWeights::default();
        let universe = (entries as u32).saturating_mul(4).max(64);
        for (i, (row, eact, reset)) in stream(seed, 2_000, 12, universe).into_iter().enumerate() {
            let now = i as u64 * 128;
            if reset {
                tracker.on_refresh_window(now);
                truth.reset();
            }
            let mitigation = tracker.record(row, eact, now);
            truth.record(row, quantize(eact, frac_bits));
            if mitigation.is_some() {
                truth.mitigated(row);
            }
            let est = tracker.tracked_raw(row).unwrap_or_else(|| tracker.spillover_raw());
            prop_assert!(
                truth.per_row[&row] <= est,
                "row {row} true weight {} exceeds estimate {} at {i}",
                truth.per_row[&row], est
            );
            prop_assert!(
                tracker.spillover_raw() <= truth.total,
                "spillover {} exceeds total recorded weight {} at {i}",
                tracker.spillover_raw(), truth.total
            );
        }
        // Final sweep: the bound holds for every row, not just the last touched.
        for (&row, &true_raw) in &truth.per_row {
            let est = tracker.tracked_raw(row).unwrap_or_else(|| tracker.spillover_raw());
            prop_assert!(true_raw <= est, "final bound broken for row {row}");
        }
    }

    /// (b) The same error bound for the summary Mithril, with RFM roll-backs in
    /// the stream.
    #[test]
    fn mithril_error_bound_holds_for_both_engines(
        seed in 0u64..1_000_000,
        entries in 1usize..32,
        frac_bits in 0u32..=7,
    ) {
        let config = MithrilConfig {
            threshold: 4_000,
            rfm_threshold: 80,
            entries,
            frac_bits,
        };
        let mut tracker = Mithril::new(config);
        let mut truth = TrueWeights::default();
        let universe = (entries as u32).saturating_mul(4).max(64);
        for (i, (row, eact, reset)) in stream(seed, 2_000, 12, universe).into_iter().enumerate() {
            let now = i as u64 * 128;
            if reset {
                tracker.on_refresh_window(now);
                truth.reset();
            }
            prop_assert_eq!(tracker.record(row, eact, now), None);
            truth.record(row, quantize(eact, frac_bits));
            if i % 80 == 79 {
                if let Some(m) = tracker.on_rfm(now) {
                    truth.mitigated(m.aggressor);
                }
            }
            let est = tracker.tracked_raw(row).unwrap_or_else(|| tracker.spillover_raw());
            prop_assert!(
                truth.per_row[&row] <= est,
                "row {row} true weight {} exceeds estimate {} at {i}",
                truth.per_row[&row], est
            );
            prop_assert!(
                tracker.spillover_raw() <= truth.total,
                "spillover {} exceeds total recorded weight {} at {i}",
                tracker.spillover_raw(), truth.total
            );
        }
        for (&row, &true_raw) in &truth.per_row {
            let est = tracker.tracked_raw(row).unwrap_or_else(|| tracker.spillover_raw());
            prop_assert!(true_raw <= est, "final bound broken for row {row}");
        }
    }

    /// (b) The classical Misra-Gries bound `count_error ≤ N/k` on the spillover
    /// term, in its home setting: unit-weight increments (plain Rowhammer
    /// accounting, `frac_bits = 0`). With unit weights, raising the spillover by
    /// one unit requires every table entry to be pushed past it first, so the
    /// error term amortizes over `k + 1` counters; weighted streams break this
    /// (a freshly evicted entry inherits the whole spillover count for the price
    /// of its own small weight, re-arming an arbitrarily large spill), which is
    /// why the weighted properties above assert the no-undercount bound instead.
    #[test]
    fn unit_weight_spillover_bound(
        seed in 0u64..1_000_000,
        entries in 1usize..32,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let universe = (entries as u32).saturating_mul(4).max(64);
        let graphene_config = GrapheneConfig {
            threshold: 3_000,
            internal_threshold: 1_000,
            entries,
            frac_bits: 0,
        };
        let mut graphene = Graphene::new(graphene_config);
        let mithril_config = MithrilConfig {
            threshold: 4_000,
            rfm_threshold: 80,
            entries,
            frac_bits: 0,
        };
        let mut mithril = Mithril::new(mithril_config);
        let mut total = 0u64;
        for i in 0..2_000u64 {
            let row = rng.gen_range(0..universe);
            let now = i * 128;
            graphene.record(row, Eact::ONE, now);
            mithril.record(row, Eact::ONE, now);
            if i % 80 == 79 {
                mithril.on_rfm(now);
            }
            total += u64::from(Eact::ONE.raw());
            prop_assert!(
                graphene.spillover_raw() * entries as u64 <= total,
                "Graphene spillover {} exceeds N/k = {}/{entries} at {i}",
                graphene.spillover_raw(), total
            );
            prop_assert!(
                mithril.spillover_raw() * entries as u64 <= total,
                "Mithril spillover {} exceeds N/k = {}/{entries} at {i}",
                mithril.spillover_raw(), total
            );
        }
    }

    /// (c) Bucket-list ordering invariants survive arbitrary attach / detach /
    /// increment / decrement / clear round-trips: the structure validator passes
    /// after every operation and min/max/count agree with a naive model.
    #[test]
    fn count_summary_matches_naive_model_with_valid_structure(
        seed in 0u64..1_000_000,
        slots in 1usize..24,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut summary = CountSummary::new(slots);
        let mut model: Vec<Option<u64>> = vec![None; slots];
        for step in 0..1_500u32 {
            let slot = rng.gen_range(0..slots as u32) as usize;
            match rng.gen_range(0..100u32) {
                // Attach (if absent) at a possibly-colliding count.
                0..=34 => {
                    if model[slot].is_none() {
                        let count = u64::from(rng.gen_range(0..40u32));
                        summary.attach(slot, count);
                        model[slot] = Some(count);
                    }
                }
                // Detach (if present) — the eviction half of a round-trip.
                35..=54 => {
                    if model[slot].is_some() {
                        summary.detach(slot);
                        model[slot] = None;
                    }
                }
                // Increment by a small delta (activation recorded).
                55..=74 => {
                    if let Some(c) = model[slot] {
                        let next = c + u64::from(rng.gen_range(1..200u32));
                        summary.set_count(slot, next);
                        model[slot] = Some(next);
                    }
                }
                // Decrement toward a spillover-like floor (mitigation roll-back),
                // sometimes to an existing bucket's exact count.
                75..=94 => {
                    if let Some(c) = model[slot] {
                        let floor = rng.gen_range(0..=c);
                        summary.set_count(slot, floor);
                        model[slot] = Some(floor);
                    }
                }
                // Refresh-window clear.
                _ => {
                    summary.clear();
                    model.fill(None);
                }
            }
            summary.validate();
            let attached: Vec<(usize, u64)> = model
                .iter()
                .enumerate()
                .filter_map(|(s, c)| c.map(|c| (s, c)))
                .collect();
            prop_assert!(summary.len() == attached.len(), "step {step}: len mismatch");
            let model_min = attached.iter().map(|&(_, c)| c).min();
            let model_max = attached.iter().map(|&(_, c)| c).max();
            prop_assert_eq!(summary.min().map(|(_, c)| c), model_min);
            prop_assert_eq!(summary.max().map(|(_, c)| c), model_max);
            if let Some((s, c)) = summary.min() {
                prop_assert!(model[s] == Some(c), "min slot holds a different count");
            }
            if let Some((s, c)) = summary.max() {
                prop_assert!(model[s] == Some(c), "max slot holds a different count");
            }
            for (s, c) in attached {
                prop_assert_eq!(summary.count_of(s), Some(c));
            }
        }
    }
}

/// The summary Graphene stays in lockstep with the seed on streams whose
/// eviction choices are always unambiguous. Two such shapes: a hot set that
/// fits the table (no evictions, but mitigations and roll-backs), and a
/// single-entry table (every eviction has exactly one candidate) under heavy
/// churn with spillover growth — a table size property (a) never draws.
#[test]
fn graphene_matches_seed_on_unambiguous_streams() {
    let lockstep = |entries: usize, rows: u32| {
        let config = GrapheneConfig {
            threshold: 3_000,
            internal_threshold: 100,
            entries,
            frac_bits: 7,
        };
        let mut oracle = SeedGraphene::new(config.clone());
        let mut summary = Graphene::new(config);
        let mut mitigations = 0u64;
        for i in 0..40_000u64 {
            let row = (i % u64::from(rows)) as RowId;
            let eact = Eact::from_f64(1.0 + (row as f64) / 8.0, 7);
            let expected = oracle.record(row, eact, i * 128);
            assert!(!oracle.ambiguous(), "entries={entries}: ambiguous at {i}");
            assert_eq!(
                summary.record(row, eact, i * 128),
                expected,
                "entries={entries}: diverged at record {i}"
            );
            mitigations += u64::from(expected.is_some());
        }
        assert_eq!(summary.mitigations(), mitigations);
        assert!(mitigations > 0, "entries={entries}: stream too tame");
        assert_eq!(summary.spillover_raw(), oracle.spillover_raw());
        for row in 0..rows {
            assert_eq!(
                summary.tracked_raw(row),
                oracle.tracked_raw(row),
                "entries={entries} row {row}"
            );
        }
    };
    lockstep(8, 8); // matches + mitigation roll-backs, no eviction
    lockstep(1, 5); // forced (unique-candidate) evictions + spillover growth
}

/// The summary Mithril stays in lockstep with the seed (records and RFM
/// mitigations) on two fixed streams: a hot set that fits the table with
/// distinct per-row weights (no eviction; RFM maxima occasionally tie, and the
/// summary picks the seed's row on this stream), and a single-entry table
/// where every eviction and every RFM has exactly one candidate.
#[test]
fn mithril_matches_seed_on_unambiguous_streams() {
    let lockstep = |entries: usize, rows: u32| {
        let config = MithrilConfig {
            threshold: 4_000,
            rfm_threshold: 80,
            entries,
            frac_bits: 7,
        };
        let mut oracle = SeedMithril::new(config.clone());
        let mut summary = Mithril::new(config);
        let mut mitigations = 0u64;
        for i in 0..40_000u64 {
            let row = (i % u64::from(rows)) as RowId;
            // Distinct per-row weights keep tracked counts unique.
            let eact = Eact::from_f64(1.0 + (row as f64) / 8.0, 7);
            assert_eq!(
                summary.record(row, eact, i * 128),
                oracle.record(row, eact, i * 128),
                "entries={entries}: diverged at record {i}"
            );
            assert!(!oracle.ambiguous(), "entries={entries}: ambiguous at {i}");
            if i % 80 == 79 {
                let expected = oracle.on_rfm(i * 128);
                assert_eq!(
                    summary.on_rfm(i * 128),
                    expected,
                    "entries={entries}: RFM {i}"
                );
                mitigations += u64::from(expected.is_some());
            }
        }
        assert_eq!(summary.mitigations(), mitigations);
        assert!(mitigations > 0, "entries={entries}: stream too tame");
        assert_eq!(summary.spillover_raw(), oracle.spillover_raw());
        for row in 0..rows {
            assert_eq!(
                summary.tracked_raw(row),
                oracle.tracked_raw(row),
                "entries={entries} row {row}"
            );
        }
    };
    lockstep(8, 8); // matches + RFM roll-backs, no eviction
    lockstep(1, 5); // forced (unique-candidate) evictions + spillover growth
}
