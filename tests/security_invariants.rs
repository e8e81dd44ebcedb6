//! Cross-crate integration tests: the paper's security claims, exercised end-to-end
//! through the attack generators, the defense engines and the trackers.

use impress_repro::attacks::{AttackPattern, CombinedPattern, RowPressPattern, RowhammerPattern};
use impress_repro::core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
use impress_repro::core::security::{SecurityHarness, SecurityReport};
use impress_repro::core::Alpha;
use impress_repro::dram::DramTimings;

/// Replays `rounds` of `pattern` against `tracker` + `defense` at threshold
/// `trh`, with the CLM at α = 1 as ground truth.
fn run_attack(
    tracker: TrackerChoice,
    defense: DefenseKind,
    trh: u64,
    pattern: &dyn AttackPattern,
    rounds: u64,
) -> SecurityReport {
    let timings = DramTimings::ddr5();
    let config = ProtectionConfig {
        rowhammer_threshold: trh,
        ..ProtectionConfig::paper_default(tracker, defense)
    };
    SecurityHarness::new(&config, 1.0, &timings).run(pattern.accesses(rounds), u64::MAX)
}

#[test]
fn rowhammer_is_contained_by_every_tracker_without_rp_mitigation() {
    let pattern = RowhammerPattern::new(1_000);
    for (tracker, trh) in [
        (TrackerChoice::Graphene, 4_000),
        (TrackerChoice::Para, 4_000),
        (TrackerChoice::Mithril, 4_000),
        (TrackerChoice::Mint, 1_600),
        (TrackerChoice::Prac, 4_000),
    ] {
        let report = run_attack(tracker, DefenseKind::NoRp, trh, &pattern, 60_000);
        assert!(
            !report.bit_flipped(),
            "{tracker:?} should contain plain Rowhammer (charge {})",
            report.max_unmitigated_charge
        );
    }
}

#[test]
fn rowpress_breaks_unmitigated_trackers() {
    // §II-D: Row-Press causes bit flips with far fewer activations than TRH when the
    // tracker is unaware of the row-open time. (Memory-controller trackers are checked
    // here; the in-DRAM trackers in this model also get mitigation opportunities under
    // REF, which partially masks single-aggressor Row-Press — see EXPERIMENTS.md.)
    let timings = DramTimings::ddr5();
    let pattern = RowPressPattern::new(1_000, timings.t_refi);
    for tracker in [TrackerChoice::Graphene, TrackerChoice::Para] {
        let report = run_attack(tracker, DefenseKind::NoRp, 4_000, &pattern, 2_000);
        assert!(
            report.bit_flipped(),
            "Row-Press should defeat {tracker:?} without RP mitigation"
        );
    }
}

#[test]
fn impress_p_restores_protection_for_all_trackers() {
    let timings = DramTimings::ddr5();
    let patterns: Vec<Box<dyn AttackPattern>> = vec![
        Box::new(RowhammerPattern::new(1_000)),
        Box::new(RowPressPattern::new(1_000, timings.t_refi)),
        Box::new(RowPressPattern::maximal(1_000, &timings)),
        Box::new(CombinedPattern::new(1_000, 16, &timings)),
    ];
    for (tracker, trh) in [
        (TrackerChoice::Graphene, 4_000),
        (TrackerChoice::Para, 4_000),
        (TrackerChoice::Mithril, 4_000),
        (TrackerChoice::Mint, 1_600),
    ] {
        for pattern in &patterns {
            let report = run_attack(
                tracker,
                DefenseKind::impress_p_default(),
                trh,
                pattern.as_ref(),
                30_000,
            );
            assert!(
                !report.bit_flipped(),
                "{tracker:?} + ImPress-P should contain {} (charge {})",
                pattern.name(),
                report.max_unmitigated_charge
            );
        }
    }
}

#[test]
fn impress_n_with_alpha_one_contains_rowpress_for_in_dram_trackers() {
    let timings = DramTimings::ddr5();
    let pattern = RowPressPattern::maximal(1_000, &timings);
    for (tracker, trh) in [
        (TrackerChoice::Mithril, 4_000),
        (TrackerChoice::Mint, 1_600),
    ] {
        let report = run_attack(
            tracker,
            DefenseKind::ImpressN {
                alpha: Alpha::Conservative,
            },
            trh,
            &pattern,
            30_000,
        );
        assert!(
            !report.bit_flipped(),
            "{tracker:?} + ImPress-N should contain maximal Row-Press (charge {})",
            report.max_unmitigated_charge
        );
    }
}

#[test]
fn express_cannot_be_deployed_with_in_dram_trackers() {
    let timings = DramTimings::ddr5();
    for tracker in [
        TrackerChoice::Mithril,
        TrackerChoice::Mint,
        TrackerChoice::Prac,
    ] {
        let config =
            ProtectionConfig::paper_default(tracker, DefenseKind::express_paper_baseline(&timings));
        assert!(config.validate().is_err());
    }
}

#[test]
fn impress_p_never_tolerates_less_than_no_rp_under_rowhammer() {
    // ImPress-P's accounting of a pure Rowhammer pattern is identical to No-RP's, so
    // the maximum unmitigated charge must match.
    let pattern = RowhammerPattern::new(777);
    let no_rp = run_attack(
        TrackerChoice::Graphene,
        DefenseKind::NoRp,
        4_000,
        &pattern,
        40_000,
    );
    let impress_p = run_attack(
        TrackerChoice::Graphene,
        DefenseKind::impress_p_default(),
        4_000,
        &pattern,
        40_000,
    );
    assert_eq!(
        no_rp.max_unmitigated_charge, impress_p.max_unmitigated_charge,
        "ImPress-P must not change pure-Rowhammer accounting"
    );
}
