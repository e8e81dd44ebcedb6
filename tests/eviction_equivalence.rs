//! Security-harness A/B gate for the stream-summary eviction engine.
//!
//! The tracker-level contract (same mitigations while victim choices are
//! unambiguous, Misra-Gries no-undercount bound always) is property-tested in
//! `impress-trackers`. This suite closes the loop end-to-end: replay adversarial
//! churn and randomized streams through the full defense stack
//! ([`SecurityHarness`] with the CLM as ground truth) under both eviction
//! engines, each pinned explicitly, and require that the **maximum unmitigated
//! disturbance under the summary engine never exceeds the seed (scan)
//! engine's** — i.e. relaxing bit-identical victim selection to observational
//! equivalence gives up nothing measurable on the streams that maximize
//! evictions.

use impress_repro::attacks::{
    AttackPattern, RotatingAggressorPattern, RowhammerPattern, ThresholdStraddlingPattern,
};
use impress_repro::core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
use impress_repro::core::security::{AggressorAccess, SecurityHarness};
use impress_repro::core::{Alpha, EvictionEngine};
use impress_repro::dram::DramTimings;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

/// Replays `accesses` through a scan/summary harness pair and asserts the gate.
fn assert_summary_no_worse(
    label: &str,
    config: &ProtectionConfig,
    accesses: &[AggressorAccess],
    expect_contained: bool,
) {
    let timings = DramTimings::ddr5();
    let (mut scan, mut summary) = SecurityHarness::eviction_engine_pair(config, 1.0, &timings);
    let scan_report = scan.run(accesses.iter().copied(), u64::MAX);
    let summary_report = summary.run(accesses.iter().copied(), u64::MAX);
    assert!(
        summary_report.max_unmitigated_charge <= scan_report.max_unmitigated_charge + 1e-9,
        "{label}: summary engine leaked more ({} > {})",
        summary_report.max_unmitigated_charge,
        scan_report.max_unmitigated_charge,
    );
    if expect_contained {
        assert!(
            !scan_report.bit_flipped() && !summary_report.bit_flipped(),
            "{label}: churn stream should stay far below the threshold \
             (scan {}, summary {})",
            scan_report.max_unmitigated_charge,
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
    // stream, not the tie-break. On any *single* random stream the engines'
    // tied-victim choices are symmetric noise (either may come out a charge
    // unit or two ahead, far below the threshold), so the gate compares each
    // engine's worst disturbance over the whole randomized stream set — the
    // quantity the threshold argument actually bounds. Every stream is still
    // individually required to stay contained under both engines.
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
        let mut worst_scan = 0.0f64;
        let mut worst_summary = 0.0f64;
        for accesses in &streams {
            let (mut scan, mut summary) =
                SecurityHarness::eviction_engine_pair(&config, 1.0, &timings);
            let a = scan.run(accesses.iter().copied(), u64::MAX);
            let b = summary.run(accesses.iter().copied(), u64::MAX);
            assert!(
                !a.bit_flipped() && !b.bit_flipped(),
                "{label}: randomized churn must stay contained under both engines"
            );
            worst_scan = worst_scan.max(a.max_unmitigated_charge);
            worst_summary = worst_summary.max(b.max_unmitigated_charge);
        }
        assert!(
            worst_summary <= worst_scan + 1e-9,
            "{label}: summary engine's worst-case disturbance over the randomized \
             stream set exceeds the scan engine's ({worst_summary} > {worst_scan})"
        );
    }
}

#[test]
fn single_aggressor_streams_are_bitwise_identical_across_engines() {
    // With no evictions the engines are in exact lockstep, so the whole report
    // (charge, mitigations, durations) matches bit for bit — the conditional
    // half of the observational-equivalence contract at system level.
    let timings = DramTimings::ddr5();
    let pattern = RowhammerPattern::new(1_000);
    let accesses = pattern.accesses(30_000);
    for (label, config) in counter_configs() {
        let (mut scan, mut summary) = SecurityHarness::eviction_engine_pair(&config, 1.0, &timings);
        let a = scan.run(accesses.iter().copied(), u64::MAX);
        let b = summary.run(accesses.iter().copied(), u64::MAX);
        assert_eq!(a, b, "{label}");
        assert_eq!(
            a.max_unmitigated_charge.to_bits(),
            b.max_unmitigated_charge.to_bits(),
            "{label}"
        );
    }
}

#[test]
fn default_and_pinning_are_wired() {
    // Configurations default to the summary engine, and pinning overrides the
    // default in both directions.
    assert_eq!(EvictionEngine::default(), EvictionEngine::Summary);
    let cfg = ProtectionConfig::paper_default(TrackerChoice::Graphene, DefenseKind::NoRp);
    assert_eq!(cfg.eviction, EvictionEngine::Summary);
    for pinned in [EvictionEngine::Scan, EvictionEngine::Summary] {
        assert_eq!(cfg.clone().with_eviction_engine(pinned).eviction, pinned);
    }
}
