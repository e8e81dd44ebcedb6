//! Replays attack patterns against a mitigation engine and measures the attacker-visible
//! slowdown (the simulated counterpart of the analytic models in [`crate::analytic`]).

use impress_core::clm::ChargeLossModel;
use impress_core::config::ProtectionConfig;
use impress_core::engine::BankMitigationEngine;
use impress_dram::bank::ClosedRow;
use impress_dram::timing::{Cycle, DramTimings};
use impress_trackers::MitigationRequest;

use crate::patterns::AttackPattern;

/// Outcome of replaying an attack pattern against a protected bank, from the attacker's
/// performance point of view (Appendix B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackPerformanceReport {
    /// Number of attack rounds replayed.
    pub rounds: u64,
    /// Time the rounds would take with no mitigation, in cycles.
    pub baseline_cycles: Cycle,
    /// Extra cycles spent on mitigative refreshes triggered by the attack.
    pub mitigation_cycles: Cycle,
    /// Number of mitigations triggered.
    pub mitigations: u64,
    /// Total Unified-CLM damage (in RH units) the replayed rounds inflict on each
    /// immediately adjacent victim row, ignoring refreshes — the attack's gross
    /// charge budget, evaluated with the vectorized batch kernel.
    pub aggressor_charge_units: f64,
}

impl AttackPerformanceReport {
    /// The attacker-visible slowdown: mitigation time relative to the unmitigated
    /// attack time (Appendix B's "Slowdown").
    pub fn slowdown(&self) -> f64 {
        if self.baseline_cycles == 0 {
            0.0
        } else {
            self.mitigation_cycles as f64 / self.baseline_cycles as f64
        }
    }

    /// Mean CLM damage per round, in RH units (1.0 = a pure Rowhammer round; larger
    /// means the pattern leans on Row-Press open time).
    pub fn charge_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.aggressor_charge_units / self.rounds as f64
        }
    }
}

/// Replays attack patterns against a single protected bank, accounting only for the
/// memory-side mitigation cost (in-DRAM mitigations happen under REF/RFM and do not
/// slow the attacker down, as noted in Appendix B).
#[derive(Debug)]
pub struct AttackRunner {
    engine: BankMitigationEngine,
    clm: ChargeLossModel,
    timings: DramTimings,
    /// Cycles added per mitigation: blast radius 2 → 4 victim refreshes of tRC each.
    mitigation_cost: Cycle,
}

impl AttackRunner {
    /// Creates a runner for the given protection configuration, using the paper's
    /// conservative α = 1 as the ground-truth damage model for charge accounting.
    pub fn new(config: &ProtectionConfig, timings: &DramTimings) -> Self {
        Self {
            engine: BankMitigationEngine::new(config, timings),
            clm: ChargeLossModel::new(1.0, timings),
            timings: timings.clone(),
            mitigation_cost: 4 * timings.t_rc,
        }
    }

    /// Replays `rounds` rounds of `pattern` and reports the attacker-visible slowdown
    /// plus the pattern's gross CLM charge budget.
    ///
    /// Rounds are consumed in chunks: the open times of a whole chunk are clamped
    /// and pushed through [`ChargeLossModel::charge_loss_batch`] up front (patterns
    /// are pure functions of the round index, so this reorders no observable
    /// work), then the event loop interleaves the precomputed damages with the
    /// mitigation machinery.
    pub fn run(&mut self, pattern: &dyn AttackPattern, rounds: u64) -> AttackPerformanceReport {
        /// Rounds evaluated per batch kernel call.
        const CHUNK: usize = 256;
        let mut now: Cycle = 0;
        let mut baseline: Cycle = 0;
        let mut mitigation_cycles: Cycle = 0;
        let mut mitigations = 0u64;
        let mut charge_units = 0.0f64;

        let mut rows = [0u32; CHUNK];
        let mut open = [0 as Cycle; CHUNK];
        let mut charge = [0.0f64; CHUNK];
        // Mitigation requests of one activation or closure, reused throughout;
        // each stalls the attacker for `mitigation_cost` cycles.
        let mut requests = Vec::new();
        let cost = self.mitigation_cost;
        let mut stall = |requests: &mut Vec<MitigationRequest>, now: &mut Cycle| {
            let n = requests.len() as u64;
            requests.clear();
            *now += n * cost;
            mitigation_cycles += n * cost;
            mitigations += n;
        };

        let mut next_round = 0u64;
        while next_round < rounds {
            let filled = ((rounds - next_round) as usize).min(CHUNK);
            for (k, slot) in open.iter_mut().enumerate().take(filled) {
                let access = pattern.round(next_round + k as u64);
                rows[k] = access.row;
                *slot = access.t_on.max(self.timings.t_ras);
            }
            self.clm
                .charge_loss_batch(&open[..filled], &mut charge[..filled]);

            for k in 0..filled {
                let t_on = open[k];
                let round_time = t_on + self.timings.t_pre;
                baseline += round_time;
                charge_units += charge[k];

                let opened_at = now;
                self.engine
                    .on_activate_into(rows[k], opened_at, &mut requests);
                stall(&mut requests, &mut now);

                let closed_at = opened_at + t_on;
                let closed = ClosedRow {
                    row: rows[k],
                    open_cycles: t_on,
                    opened_at,
                    closed_at,
                };
                now = closed_at + self.timings.t_pre;
                self.engine.on_close_into(&closed, &mut requests);
                stall(&mut requests, &mut now);
            }
            next_round += filled as u64;
        }

        AttackPerformanceReport {
            rounds,
            baseline_cycles: baseline,
            mitigation_cycles,
            mitigations,
            aggressor_charge_units: charge_units,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{graphene_attack_slowdown, para_attack_slowdown_with_p};
    use crate::patterns::CombinedPattern;
    use impress_core::config::{DefenseKind, TrackerChoice};
    use impress_trackers::analysis::para_probability_appendix_b;

    fn timings() -> DramTimings {
        DramTimings::ddr5()
    }

    #[test]
    fn graphene_measured_slowdown_matches_equation9() {
        let t = timings();
        for trh in [1_000u64, 4_000] {
            let cfg = ProtectionConfig {
                rowhammer_threshold: trh,
                ..ProtectionConfig::paper_default(
                    TrackerChoice::Graphene,
                    DefenseKind::impress_p_default(),
                )
            };
            let mut runner = AttackRunner::new(&cfg, &t);
            let pattern = CombinedPattern::new(300, 8, &t);
            let report = runner.run(&pattern, 60_000);
            let analytic = graphene_attack_slowdown(trh, 8);
            // Graphene's internal threshold is TRH/3 rather than the TRH/2 idealised in
            // Appendix B, so the measured mitigation rate is within ~2x of Equation 9
            // and, crucially, stays sub-1% and independent of K.
            assert!(
                report.slowdown() < 3.0 * analytic && report.slowdown() > 0.2 * analytic,
                "measured {} vs analytic {}",
                report.slowdown(),
                analytic
            );
        }
    }

    #[test]
    fn graphene_slowdown_is_flat_in_k() {
        let t = timings();
        let cfg = ProtectionConfig::paper_default(
            TrackerChoice::Graphene,
            DefenseKind::impress_p_default(),
        );
        let slowdowns: Vec<f64> = [0u64, 16, 64]
            .iter()
            .map(|&k| {
                let mut runner = AttackRunner::new(&cfg, &t);
                let pattern = CombinedPattern::new(300, k, &t);
                runner.run(&pattern, 30_000).slowdown()
            })
            .collect();
        let max = slowdowns.iter().cloned().fold(f64::MIN, f64::max);
        let min = slowdowns.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min < 0.002, "slowdowns vary too much: {slowdowns:?}");
    }

    #[test]
    fn para_measured_slowdown_matches_equation10() {
        let t = timings();
        let trh = 4_000u64;
        let p = para_probability_appendix_b(trh);
        for k in [0u64, 40, 100] {
            let cfg = ProtectionConfig {
                rowhammer_threshold: trh,
                seed: 77,
                ..ProtectionConfig::paper_default(
                    TrackerChoice::Para,
                    DefenseKind::impress_p_default(),
                )
            };
            // Use the Appendix-B probability for an apples-to-apples comparison.
            let mut runner = AttackRunner::new(&cfg, &t);
            let pattern = CombinedPattern::new(300, k, &t);
            let report = runner.run(&pattern, 40_000);
            // PARA's default probability (1/184) differs from Appendix B's (1/84);
            // rescale the analytic expectation accordingly.
            let default_p = impress_trackers::analysis::para_probability(trh);
            let analytic = para_attack_slowdown_with_p(default_p, k);
            let _ = p;
            assert!(
                (report.slowdown() - analytic).abs() < 0.35 * analytic + 0.002,
                "K={k}: measured {} vs analytic {}",
                report.slowdown(),
                analytic
            );
        }
    }

    #[test]
    fn rowpress_does_not_outrun_rowhammer_for_para() {
        // The attacker gains nothing (in mitigation overhead avoided) by adding
        // Row-Press when ImPress-P is deployed.
        let t = timings();
        let cfg =
            ProtectionConfig::paper_default(TrackerChoice::Para, DefenseKind::impress_p_default());
        let slowdown_at = |k: u64| {
            let mut runner = AttackRunner::new(&cfg, &t);
            let pattern = CombinedPattern::new(300, k, &t);
            runner.run(&pattern, 40_000).slowdown()
        };
        assert!(slowdown_at(200) <= slowdown_at(0) + 0.01);
    }

    #[test]
    fn charge_accounting_matches_scalar_clm() {
        // The batch-evaluated charge budget must equal the sequential scalar sum,
        // bitwise, including across chunk boundaries (rounds not a CHUNK multiple).
        let t = timings();
        let cfg = ProtectionConfig::paper_default(
            TrackerChoice::Graphene,
            DefenseKind::impress_p_default(),
        );
        let clm = ChargeLossModel::new(1.0, &t);
        for rounds in [1u64, 255, 256, 1_000] {
            let pattern = CombinedPattern::new(300, 16, &t);
            let mut runner = AttackRunner::new(&cfg, &t);
            let report = runner.run(&pattern, rounds);
            let scalar: f64 = (0..rounds)
                .map(|i| clm.charge_loss(pattern.round(i).t_on.max(t.t_ras)))
                .sum();
            assert_eq!(
                report.aggressor_charge_units.to_bits(),
                scalar.to_bits(),
                "rounds = {rounds}"
            );
            assert!(report.charge_per_round() >= 1.0);
        }
        // A pure Rowhammer pattern costs exactly 1 RH unit per round.
        let hammer = CombinedPattern::new(300, 0, &t);
        let mut runner = AttackRunner::new(&cfg, &t);
        let report = runner.run(&hammer, 500);
        assert_eq!(report.charge_per_round(), 1.0);
    }
}
