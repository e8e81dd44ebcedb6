//! Staging and counted-event equivalence tests.
//!
//! The engine stages tracked events while a span of them provably cannot
//! mitigate, then flushes the span through [`RowTracker::record_batch`], the
//! per-record loop. That safety argument rests on the headroom invariant
//! pinned here for the trackers that mitigate from `record` (Graphene,
//! PRAC): absorbing total weight of at most [`RowTracker::headroom`] can
//! never mitigate.
//!
//! Counted events must be exact as well: [`RowTracker::record_run`]
//! (ImPress-N's window activations) must equal `count` calls of
//! [`RowTracker::record`] — the same mitigations, the same state, and the same
//! order of slots inside summary buckets, which a random suffix of plain
//! records then exposes through eviction and RFM tie-breaks.

use impress_trackers::graphene::GrapheneConfig;
use impress_trackers::mithril::MithrilConfig;
use impress_trackers::{
    Eact, Graphene, Mint, Mithril, MitigationRequest, Para, Prac, RowTracker, StorageEstimate,
    TrackerKind,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type RowId = u32;

/// A run-heavy random record stream: bursts of the same row mixed with
/// uniform single accesses (runs of length 1).
fn stream(seed: u64, len: usize, universe: u32) -> Vec<(RowId, Eact)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let row = rng.gen_range(0..universe.max(1));
        let run = if rng.gen_range(0..100u32) < 40 {
            rng.gen_range(2..12usize)
        } else {
            1
        };
        for _ in 0..run.min(len - out.len()) {
            let eact = match rng.gen_range(0..4u32) {
                0 => Eact::ONE,
                1 => Eact::from_f64(1.5, 7),
                2 => Eact::from_f64(f64::from(rng.gen_range(1..40u32)) / 4.0, 7),
                _ => Eact::from_f64(2.25, 7),
            };
            out.push((row, eact));
        }
    }
    out
}

proptest! {
    /// The staging engine's safety invariant: any event span whose total weight
    /// (counting each event as `max(eact_raw, ONE)`) fits within the tracker's
    /// reported headroom is provably mitigation-free.
    #[test]
    fn headroom_admits_only_mitigation_free_spans(
        seed in 0u64..1_000_000,
        universe in 4u32..64,
    ) {
        let config = GrapheneConfig {
            threshold: 100,
            internal_threshold: 24,
            entries: 4,
            frac_bits: 7,
        };
        let mut graphene = Graphene::new(config);
        let mut prac = Prac::for_threshold(20, 7, 1 << 10);
        // Random warm-up prefix to land the trackers in an arbitrary state.
        let warmup = stream(seed, 200, universe);
        for &(row, eact) in &warmup {
            let _ = graphene.record(row, eact, 1);
            let _ = prac.record(row, eact, 1);
        }
        for tracker in [&mut graphene as &mut dyn RowTracker, &mut prac] {
            let mut left = tracker.headroom();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x4EAD);
            let span = stream(seed.wrapping_add(1), 400, universe);
            for &(row, eact) in &span {
                let w = u64::from(eact.raw().max(Eact::ONE.raw()));
                if w > left {
                    break;
                }
                left -= w;
                // Scatter the span across rows the warm-up may have maxed out.
                let row = if rng.gen_bool(0.5) { row } else { rng.gen_range(0..universe) };
                prop_assert_eq!(tracker.record(row, eact, 2), None);
            }
        }
    }
}

/// A counted event: `count` activations of one row, each weighing `eact`.
type Run = (RowId, Eact, u32);

/// Counted events of 1–500 activations: a quarter single, a quarter long enough
/// to cross the tiny thresholds many times. Weights include sub-unit values,
/// which quantize to zero at `frac_bits = 0`.
fn runs(seed: u64, len: usize, universe: u32) -> Vec<Run> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EC0);
    (0..len)
        .map(|_| {
            let row = rng.gen_range(0..universe.max(1));
            let eact = match rng.gen_range(0..6u32) {
                0 | 1 => Eact::ONE,
                2 => Eact::from_f64(1.5, 7),
                3 => Eact::from_f64(f64::from(rng.gen_range(1..40u32)) / 4.0, 7),
                4 => Eact::from_raw(rng.gen_range(0..128u32)),
                _ => Eact::from_f64(2.25, 7),
            };
            let count = match rng.gen_range(0..4u32) {
                0 => 1,
                1 => rng.gen_range(2..=16),
                2 => rng.gen_range(17..=100),
                _ => rng.gen_range(101..=500),
            };
            (row, eact, count)
        })
        .collect()
}

/// Feeds each counted event to `per` as `count` calls of `record` and to `run`
/// as one `record_run`, asserting the same mitigations event by event and
/// calling `after(k, per, run)` after event `k` (state checks, RFMs, refresh
/// windows). Then feeds `suffix` through `record` on both, so state that shows
/// only in later choices — the order of slots inside a summary bucket — is
/// compared too.
fn drive_runs<T: RowTracker>(
    per: &mut T,
    run: &mut T,
    events: &[Run],
    suffix: &[(RowId, Eact)],
    mut after: impl FnMut(usize, &mut T, &mut T),
) {
    let mut per_out = Vec::new();
    let mut run_out = Vec::new();
    for (k, &(row, eact, count)) in events.iter().enumerate() {
        let now = (k as u64 + 1) * 1_000;
        per_out.clear();
        for _ in 0..count {
            per_out.extend(per.record(row, eact, now));
        }
        run_out.clear();
        run.record_run(row, eact, count, now, &mut run_out);
        assert_eq!(
            run_out, per_out,
            "event {k} ({count} x row {row} at {eact}) diverged"
        );
        after(k, per, run);
    }
    for (k, &(row, eact)) in suffix.iter().enumerate() {
        let now = (events.len() + k + 1) as u64 * 1_000;
        assert_eq!(
            run.record(row, eact, now),
            per.record(row, eact, now),
            "suffix record {k} diverged"
        );
        after(events.len() + k, per, run);
    }
}

fn same_graphene(per: &Graphene, run: &Graphene, universe: u32) {
    assert_eq!(run.mitigations(), per.mitigations());
    assert_eq!(run.spillover_raw(), per.spillover_raw());
    assert_eq!(run.headroom(), per.headroom());
    for row in 0..universe {
        assert_eq!(run.tracked_raw(row), per.tracked_raw(row), "row {row}");
    }
}

/// Forwards only the required methods and `record` to `T`, so `record_run`
/// is the trait's default loop, which every shipped tracker overrides.
#[derive(Debug)]
struct DefaultRun<T>(T);

impl<T: RowTracker> RowTracker for DefaultRun<T> {
    fn record(&mut self, row: RowId, eact: Eact, now: u64) -> Option<MitigationRequest> {
        self.0.record(row, eact, now)
    }

    fn kind(&self) -> TrackerKind {
        self.0.kind()
    }

    fn storage(&self) -> StorageEstimate {
        self.0.storage()
    }

    fn configured_threshold(&self) -> u64 {
        self.0.configured_threshold()
    }
}

fn same_mithril(per: &Mithril, run: &Mithril, universe: u32) {
    assert_eq!(run.mitigations(), per.mitigations());
    assert_eq!(run.spillover_raw(), per.spillover_raw());
    assert_eq!(run.headroom(), per.headroom());
    for row in 0..universe {
        assert_eq!(run.tracked_raw(row), per.tracked_raw(row), "row {row}");
    }
}

/// A Graphene run that starts untracked in a full table whose spillover is
/// already past the internal threshold: every claim succeeds at a count that
/// crosses, so every event of the run mitigates.
fn graphene_spillover_past_threshold() -> Graphene {
    let config = GrapheneConfig {
        threshold: 12,
        internal_threshold: 4,
        entries: 2,
        frac_bits: 7,
    };
    let mut g = Graphene::new(config);
    // Two tracked rows just under the threshold fill the table; two heavy
    // misses fail to claim and spill 2 × 480 raw past the 512 limit.
    for (row, raw) in [(1, 500), (2, 500), (3, 480), (4, 480)] {
        assert_eq!(g.record(row, Eact::from_raw(raw), 0), None);
    }
    assert!(
        g.spillover_raw() >= 4 << 7,
        "spillover {}",
        g.spillover_raw()
    );
    assert_eq!(g.tracked_raw(5), None);
    g
}

#[test]
fn graphene_record_run_with_spillover_past_the_threshold() {
    let mut per = graphene_spillover_past_threshold();
    let mut run = graphene_spillover_past_threshold();
    let events = [(5, Eact::ONE, 10), (6, Eact::ONE, 1), (1, Eact::ONE, 37)];
    let suffix = stream(3, 200, 8);
    drive_runs(&mut per, &mut run, &events, &suffix, |_, per, run| {
        same_graphene(per, run, 8)
    });
    // 10 + 1 + 37 crossings, then whatever the suffix adds.
    assert!(per.mitigations() >= 48, "{}", per.mitigations());
}

/// A run that leaves a slot at the count it started from, after crossing
/// the threshold on the way, still moves it to the head of its summary
/// bucket, as the per-record splices do; the next eviction takes the head.
#[test]
fn graphene_record_run_moves_a_returning_slot_to_the_bucket_head() {
    let config = GrapheneConfig {
        threshold: 12,
        internal_threshold: 4,
        entries: 2,
        frac_bits: 7,
    };
    let mut per = Graphene::new(config.clone());
    let mut run = Graphene::new(config);
    // Rows 1 and 2 each cross once and roll back to the zero spillover:
    // both sit in the zero bucket, row 2 at its head. Row 1 then runs
    // 0 → 1 → 2 → 3 → 0, ending in the bucket it started from, and the
    // miss on row 3 evicts whichever row heads that bucket.
    let events = [
        (1, Eact::ONE, 4),
        (2, Eact::ONE, 4),
        (1, Eact::ONE, 4),
        (3, Eact::ONE, 1),
    ];
    drive_runs(&mut per, &mut run, &events, &[], |_, per, run| {
        same_graphene(per, run, 4)
    });
    // Row 1 heads the bucket, so it is the one evicted.
    assert_eq!(per.tracked_raw(1), None);
    assert_eq!(per.tracked_raw(2), Some(0));
}

/// A run on a missing row whose claim fails several times (every tracked count
/// is above the spillover) before it sticks, in both trackers.
#[test]
fn record_run_replays_failed_claims() {
    let graphene = || {
        let config = GrapheneConfig {
            threshold: 100,
            internal_threshold: 24,
            entries: 2,
            frac_bits: 7,
        };
        let mut g = Graphene::new(config);
        g.record_run(1, Eact::ONE, 8, 0, &mut Vec::new());
        g.record_run(2, Eact::ONE, 8, 0, &mut Vec::new());
        g
    };
    let (mut per, mut run) = (graphene(), graphene());
    let events = [(3, Eact::ONE, 20), (3, Eact::ONE, 200)];
    drive_runs(
        &mut per,
        &mut run,
        &events,
        &stream(4, 200, 6),
        |_, per, run| same_graphene(per, run, 6),
    );
    assert!(per.spillover_raw() > 0, "Graphene: no claim failed");

    let mithril = || {
        let config = MithrilConfig {
            threshold: 500,
            rfm_threshold: 16,
            entries: 2,
            frac_bits: 7,
        };
        let mut m = Mithril::new(config);
        m.record_run(1, Eact::ONE, 8, 0, &mut Vec::new());
        m.record_run(2, Eact::ONE, 8, 0, &mut Vec::new());
        m
    };
    let (mut per, mut run) = (mithril(), mithril());
    drive_runs(
        &mut per,
        &mut run,
        &events,
        &stream(5, 200, 6),
        |k, per, run| {
            same_mithril(per, run, 6);
            if k % 7 == 6 {
                assert_eq!(run.on_rfm(k as u64), per.on_rfm(k as u64));
            }
        },
    );
    assert!(per.spillover_raw() > 0, "Mithril: no claim failed");
}

proptest! {
    #[test]
    fn graphene_record_run_matches_repeated_record(
        seed in 0u64..1_000_000,
        frac7 in 0u32..2,
        universe in 4u32..64,
    ) {
        // The tiny-threshold config of the headroom test, with and without
        // fractional bits.
        let config = GrapheneConfig {
            threshold: 100,
            internal_threshold: 24,
            entries: 4,
            frac_bits: 7 * frac7,
        };
        let mut per = Graphene::new(config.clone());
        let mut run = Graphene::new(config);
        let events = runs(seed, 40, universe);
        let suffix = stream(seed ^ 0x5AFF, 300, universe);
        drive_runs(&mut per, &mut run, &events, &suffix, |k, per, run| {
            same_graphene(per, run, universe);
            if k % 23 == 22 {
                per.on_refresh_window(0);
                run.on_refresh_window(0);
            }
        });
    }

    #[test]
    fn default_record_run_matches_repeated_record(
        seed in 0u64..1_000_000,
        universe in 4u32..64,
    ) {
        // Graphene mitigates from `record` and keeps summary tie order, so the
        // default loop's output and the state it leaves are both compared.
        let config = GrapheneConfig {
            threshold: 100,
            internal_threshold: 24,
            entries: 4,
            frac_bits: 7,
        };
        let mut per = DefaultRun(Graphene::new(config.clone()));
        let mut run = DefaultRun(Graphene::new(config));
        let events = runs(seed, 40, universe);
        let suffix = stream(seed ^ 0x5AFF, 300, universe);
        drive_runs(&mut per, &mut run, &events, &suffix, |_, per, run| {
            same_graphene(&per.0, &run.0, universe);
        });
    }

    #[test]
    fn mithril_record_run_matches_repeated_record(
        seed in 0u64..1_000_000,
        frac7 in 0u32..2,
        universe in 4u32..64,
        rfm_every in 1usize..6,
    ) {
        let config = MithrilConfig {
            threshold: 500,
            rfm_threshold: 16,
            entries: 4,
            frac_bits: 7 * frac7,
        };
        let mut per = Mithril::new(config.clone());
        let mut run = Mithril::new(config);
        let events = runs(seed, 40, universe);
        let suffix = stream(seed ^ 0x5AFF, 300, universe);
        drive_runs(&mut per, &mut run, &events, &suffix, |k, per, run| {
            same_mithril(per, run, universe);
            // RFMs mitigate the maximum, so they expose tie order at the top.
            if k % rfm_every == rfm_every - 1 {
                let now = k as u64;
                assert_eq!(run.on_rfm(now), per.on_rfm(now), "RFM after {k}");
            }
            if k % 23 == 22 {
                per.on_refresh_window(0);
                run.on_refresh_window(0);
            }
        });
    }

    #[test]
    fn prac_record_run_matches_repeated_record(
        seed in 0u64..1_000_000,
        frac7 in 0u32..2,
        universe in 4u32..64,
    ) {
        let mut per = Prac::for_threshold(20, 7 * frac7, 1 << 10);
        let mut run = Prac::for_threshold(20, 7 * frac7, 1 << 10);
        let events = runs(seed, 40, universe);
        let suffix = stream(seed ^ 0x5AFF, 300, universe);
        drive_runs(&mut per, &mut run, &events, &suffix, |_, per, run| {
            assert_eq!(run.mitigations(), per.mitigations());
            assert_eq!(run.headroom(), per.headroom());
            for row in 0..universe {
                assert_eq!(run.count(row), per.count(row), "row {row}");
            }
        });
    }

    #[test]
    fn mint_record_run_matches_repeated_record(
        seed in 0u64..1_000_000,
        frac7 in 0u32..2,
        universe in 4u32..64,
        rfm_every in 1usize..6,
    ) {
        let mut per = Mint::new(16, 7 * frac7, seed);
        let mut run = Mint::new(16, 7 * frac7, seed);
        let events = runs(seed, 40, universe);
        let suffix = stream(seed ^ 0x5AFF, 300, universe);
        drive_runs(&mut per, &mut run, &events, &suffix, |k, per, run| {
            assert_eq!(run.selected_row(), per.selected_row());
            if k % rfm_every == rfm_every - 1 {
                let now = k as u64;
                assert_eq!(run.on_rfm(now), per.on_rfm(now), "RFM after {k}");
            }
            assert_eq!(run.mitigations(), per.mitigations());
        });
    }

    #[test]
    fn para_record_run_preserves_the_rng_stream(
        seed in 0u64..1_000_000,
        universe in 4u32..64,
    ) {
        let mut per = Para::with_probability(4_000, 0.05, seed ^ 0xABCD);
        let mut run = Para::with_probability(4_000, 0.05, seed ^ 0xABCD);
        let events = runs(seed, 40, universe);
        let suffix = stream(seed ^ 0x5AFF, 300, universe);
        drive_runs(&mut per, &mut run, &events, &suffix, |_, per, run| {
            assert_eq!(run.decisions(), per.decisions());
            assert_eq!(run.mitigations(), per.mitigations());
        });
    }
}
