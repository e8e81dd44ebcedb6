//! Security-harness gate for the stream-summary trackers against the seed.
//!
//! The tracker-level contract (same mitigations while victim choices are
//! unambiguous, Misra-Gries no-undercount bound always) is property-tested in
//! `impress-trackers` against the seed transcription in
//! `crates/trackers/tests/support/seed.rs`. This suite closes the loop
//! end-to-end: replay adversarial churn and randomized streams through the full
//! defense stack ([`SecurityHarness`] with the CLM as ground truth) once with
//! the shipping tracker and once with the seed's, sized alike, and require that
//! the **maximum unmitigated disturbance under the summary trackers never
//! exceeds the seed's** — i.e. relaxing bit-identical victim selection to
//! observational equivalence gives up nothing measurable on the streams that
//! maximize evictions.

#[path = "../crates/trackers/tests/support/seed.rs"]
mod seed;

use impress_repro::attacks::{
    AttackPattern, RotatingAggressorPattern, RowhammerPattern, ThresholdStraddlingPattern,
};
use impress_repro::core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
use impress_repro::core::security::{AggressorAccess, SecurityHarness};
use impress_repro::core::Alpha;
use impress_repro::dram::DramTimings;
use impress_repro::trackers::graphene::GrapheneConfig;
use impress_repro::trackers::mithril::MithrilConfig;
use impress_repro::trackers::RowTracker;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use seed::{SeedGraphene, SeedMithril};

/// Configurations whose counter trackers have an eviction path to exercise.
fn counter_configs() -> Vec<(&'static str, ProtectionConfig)> {
    vec![
        (
            "graphene+no-rp",
            ProtectionConfig::paper_default(TrackerChoice::Graphene, DefenseKind::NoRp),
        ),
        (
            "graphene+impress-p",
            ProtectionConfig::paper_default(
                TrackerChoice::Graphene,
                DefenseKind::impress_p_default(),
            ),
        ),
        (
            "mithril+impress-p",
            ProtectionConfig::paper_default(
                TrackerChoice::Mithril,
                DefenseKind::impress_p_default(),
            ),
        ),
        (
            "mithril+impress-n",
            ProtectionConfig::paper_default(
                TrackerChoice::Mithril,
                DefenseKind::ImpressN {
                    alpha: Alpha::Conservative,
                },
            ),
        ),
    ]
}

/// Two harnesses for `config`: `(seed, summary)`, the first around the seed's
/// tracker sized exactly as [`ProtectionConfig::build_tracker`] sizes the
/// shipping one, the second around the shipping tracker.
fn harness_pair(
    config: &ProtectionConfig,
    timings: &DramTimings,
) -> (SecurityHarness, SecurityHarness) {
    let threshold = config.effective_tracker_threshold(timings);
    let frac_bits = config.defense.tracker_frac_bits();
    let seed: Box<dyn RowTracker> = match config.tracker {
        TrackerChoice::Graphene => {
            let mut sizing = GrapheneConfig::for_threshold(threshold);
            sizing.frac_bits = frac_bits;
            Box::new(SeedGraphene::new(sizing))
        }
        TrackerChoice::Mithril => Box::new(SeedMithril::new(
            MithrilConfig::with_rfm_threshold(threshold, config.rfm_threshold)
                .with_frac_bits(frac_bits),
        )),
        other => panic!("{other:?} keeps no Misra-Gries table"),
    };
    assert_eq!(seed.storage(), config.build_tracker(timings).storage());
    (
        SecurityHarness::with_tracker(config, seed, 1.0, timings),
        SecurityHarness::new(config, 1.0, timings),
    )
}

/// Replays `accesses` through a seed/summary harness pair and asserts the gate.
fn assert_summary_no_worse(
    label: &str,
    config: &ProtectionConfig,
    accesses: &[AggressorAccess],
    expect_contained: bool,
) {
    let timings = DramTimings::ddr5();
    let (mut seed, mut summary) = harness_pair(config, &timings);
    let seed_report = seed.run(accesses.iter().copied(), u64::MAX);
    let summary_report = summary.run(accesses.iter().copied(), u64::MAX);
    assert!(
        summary_report.max_unmitigated_charge <= seed_report.max_unmitigated_charge + 1e-9,
        "{label}: summary tracker leaked more than the seed's ({} > {})",
        summary_report.max_unmitigated_charge,
        seed_report.max_unmitigated_charge,
    );
    if expect_contained {
        assert!(
            !seed_report.bit_flipped() && !summary_report.bit_flipped(),
            "{label}: churn stream should stay far below the threshold \
             (seed {}, summary {})",
            seed_report.max_unmitigated_charge,
            summary_report.max_unmitigated_charge,
        );
    }
}

#[test]
fn rotating_aggressor_churn_summary_no_worse_than_scan() {
    // 1024 rows, stride 6 (> 2x blast radius): more distinct rows than any
    // counter table at TRH = 4K, so after warm-up nearly every record misses.
    let pattern = RotatingAggressorPattern::new(2_000, 1_024, 6);
    let accesses = pattern.accesses(40_000);
    for (label, config) in counter_configs() {
        assert_summary_no_worse(label, &config, &accesses, true);
    }
}

#[test]
fn rotating_rowpress_churn_summary_no_worse_than_scan() {
    // The same rotation with each row held open ~4 tRC: fractional EACT weights
    // create non-uniform counts (fewer ties, deeper bucket lists).
    let timings = DramTimings::ddr5();
    let pattern = RotatingAggressorPattern::new(2_000, 768, 6).with_press(4 * timings.t_rc + 17);
    let accesses = pattern.accesses(30_000);
    for (label, config) in counter_configs() {
        assert_summary_no_worse(label, &config, &accesses, true);
    }
}

#[test]
fn threshold_straddling_churn_summary_no_worse_than_scan() {
    // Aggressor bursts sized to climb toward Graphene's internal threshold
    // (1333 at TRH = 4K) over a few rotations, with eviction-forcing churn
    // between bursts.
    let pattern = ThresholdStraddlingPattern::new(10_000, 4, 160, 48);
    let accesses = pattern.accesses(40_000);
    for (label, config) in counter_configs() {
        assert_summary_no_worse(label, &config, &accesses, false);
    }
}

#[test]
fn randomized_churn_streams_summary_no_worse_than_scan() {
    // Security is a worst-case-over-streams property: the attacker picks the
    // stream, not the tie-break. On any *single* random stream the two
    // trackers' tied-victim choices are symmetric noise (either may come out a
    // charge unit or two ahead, far below the threshold), so the gate compares
    // each tracker's worst disturbance over the whole randomized stream set —
    // the quantity the threshold argument actually bounds. Every stream is
    // still individually required to stay contained under both.
    let timings = DramTimings::ddr5();
    let streams: Vec<Vec<AggressorAccess>> = [
        0xA11CE5u64,
        0xB0B057,
        0xC0FFEE,
        0x12345,
        0xDEAD1,
        0xFEED2,
        0x99993,
    ]
    .iter()
    .map(|&seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..25_000)
            .map(|_| {
                let row = rng.gen_range(0..4_096u32) + 100;
                if rng.gen_range(0..4u32) == 0 {
                    AggressorAccess::press(row, rng.gen_range(1..8u64) * timings.t_rc + 13)
                } else {
                    AggressorAccess::hammer(row)
                }
            })
            .collect()
    })
    .collect();
    for (label, config) in counter_configs() {
        let mut worst_seed = 0.0f64;
        let mut worst_summary = 0.0f64;
        for accesses in &streams {
            let (mut seed, mut summary) = harness_pair(&config, &timings);
            let a = seed.run(accesses.iter().copied(), u64::MAX);
            let b = summary.run(accesses.iter().copied(), u64::MAX);
            assert!(
                !a.bit_flipped() && !b.bit_flipped(),
                "{label}: randomized churn must stay contained under both trackers"
            );
            worst_seed = worst_seed.max(a.max_unmitigated_charge);
            worst_summary = worst_summary.max(b.max_unmitigated_charge);
        }
        assert!(
            worst_summary <= worst_seed + 1e-9,
            "{label}: summary tracker's worst-case disturbance over the randomized \
             stream set exceeds the seed's ({worst_summary} > {worst_seed})"
        );
    }
}

#[test]
fn single_aggressor_streams_are_bitwise_identical_across_engines() {
    // With no evictions the summary trackers and the seed's are in exact
    // lockstep, so the whole report (charge, mitigations, durations) matches
    // bit for bit — the conditional half of the observational-equivalence
    // contract at system level.
    let timings = DramTimings::ddr5();
    let pattern = RowhammerPattern::new(1_000);
    let accesses = pattern.accesses(30_000);
    for (label, config) in counter_configs() {
        let (mut seed, mut summary) = harness_pair(&config, &timings);
        let a = seed.run(accesses.iter().copied(), u64::MAX);
        let b = summary.run(accesses.iter().copied(), u64::MAX);
        assert_eq!(a, b, "{label}");
        assert_eq!(
            a.max_unmitigated_charge.to_bits(),
            b.max_unmitigated_charge.to_bits(),
            "{label}"
        );
    }
}
