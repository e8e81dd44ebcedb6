//! Configuration types tying a Row-Press defense to a Rowhammer tracker.

use std::fmt;

use impress_dram::timing::{Cycle, DramTimings};
use impress_trackers::eact::CANONICAL_FRAC_BITS;
use impress_trackers::graphene::GrapheneConfig;
use impress_trackers::mithril::MithrilConfig;
use impress_trackers::{analysis, EvictionEngine, Graphene, Mint, Mithril, Para, Prac, RowTracker};

use crate::clm::Alpha;
use crate::defense::{NoRowPressDefense, RowPressDefense};
use crate::express::{Express, ThresholdSource};
use crate::impress_n::ImpressN;
use crate::impress_p::ImpressP;

/// Which Row-Press mitigation is deployed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DefenseKind {
    /// No Row-Press mitigation (Rowhammer tracking only).
    NoRp,
    /// ExPress: limit the row-open time to `t_mro` and re-target the tracker using the
    /// CLM with `alpha`.
    Express {
        /// Maximum row-open time enforced by the memory controller, in cycles.
        t_mro: Cycle,
        /// α used to derive the reduced tracker threshold.
        alpha: Alpha,
    },
    /// ImPress-N with the given α assumption.
    ImpressN {
        /// α used to derive the reduced tracker threshold (Equation 5).
        alpha: Alpha,
    },
    /// ImPress-P with the given number of fractional EACT bits.
    ImpressP {
        /// Fractional EACT bits kept by the counters (7 in the paper's default).
        frac_bits: u32,
    },
}

impl DefenseKind {
    /// The paper's default ExPress comparison point: `tMRO = tRAS + tRC` at α = 1.
    pub fn express_paper_baseline(timings: &DramTimings) -> Self {
        DefenseKind::Express {
            t_mro: timings.t_ras + timings.t_rc,
            alpha: Alpha::Conservative,
        }
    }

    /// The paper's default ImPress-P configuration (7 fractional bits).
    pub fn impress_p_default() -> Self {
        DefenseKind::ImpressP {
            frac_bits: CANONICAL_FRAC_BITS,
        }
    }

    /// Builds the per-bank defense object.
    pub fn build(&self, timings: &DramTimings) -> Box<dyn RowPressDefense> {
        match *self {
            DefenseKind::NoRp => Box::new(NoRowPressDefense::new()),
            DefenseKind::Express { t_mro, alpha } => {
                Box::new(Express::new(t_mro, ThresholdSource::Clm(alpha), timings))
            }
            DefenseKind::ImpressN { alpha } => Box::new(ImpressN::new(alpha, timings)),
            DefenseKind::ImpressP { frac_bits } => Box::new(ImpressP::new(frac_bits, timings)),
        }
    }

    /// Fractional EACT bits the tracker counters must support under this defense.
    pub fn tracker_frac_bits(&self) -> u32 {
        match *self {
            DefenseKind::ImpressP { frac_bits } => frac_bits,
            _ => 0,
        }
    }

    /// Short name used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            DefenseKind::NoRp => "No-RP",
            DefenseKind::Express { .. } => "ExPress",
            DefenseKind::ImpressN { .. } => "ImPress-N",
            DefenseKind::ImpressP { .. } => "ImPress-P",
        }
    }

    /// Returns `true` if the defense can be deployed with in-DRAM trackers.
    pub fn compatible_with_in_dram(&self) -> bool {
        !matches!(self, DefenseKind::Express { .. })
    }
}

impl fmt::Display for DefenseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefenseKind::Express { t_mro, alpha } => write!(
                f,
                "ExPress(tMRO={}ns, α={})",
                impress_dram::timing::cycles_to_ns(*t_mro),
                alpha.value()
            ),
            DefenseKind::ImpressN { alpha } => write!(f, "ImPress-N(α={})", alpha.value()),
            DefenseKind::ImpressP { frac_bits } => write!(f, "ImPress-P({frac_bits} frac bits)"),
            DefenseKind::NoRp => write!(f, "No-RP"),
        }
    }
}

/// Which Rowhammer tracker is deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrackerChoice {
    /// Graphene (memory-controller, counter based).
    Graphene,
    /// PARA (memory-controller, probabilistic).
    Para,
    /// Mithril (in-DRAM, counter based).
    Mithril,
    /// MINT (in-DRAM, probabilistic, single entry).
    Mint,
    /// PRAC (in-DRAM, per-row counters; §VI-F extension).
    Prac,
}

impl TrackerChoice {
    /// All tracker choices evaluated in the paper (PRAC is the §VI-F extension).
    pub const PAPER_SET: [TrackerChoice; 4] = [
        TrackerChoice::Graphene,
        TrackerChoice::Para,
        TrackerChoice::Mithril,
        TrackerChoice::Mint,
    ];

    /// Returns `true` for trackers whose mitigation happens inside the DRAM under RFM.
    pub fn is_in_dram(self) -> bool {
        matches!(
            self,
            TrackerChoice::Mithril | TrackerChoice::Mint | TrackerChoice::Prac
        )
    }

    /// Short name used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            TrackerChoice::Graphene => "Graphene",
            TrackerChoice::Para => "PARA",
            TrackerChoice::Mithril => "Mithril",
            TrackerChoice::Mint => "MINT",
            TrackerChoice::Prac => "PRAC",
        }
    }
}

impl fmt::Display for TrackerChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A complete protection configuration: threshold, tracker, defense and RFM cadence.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectionConfig {
    /// The Rowhammer threshold of the devices being protected.
    pub rowhammer_threshold: u64,
    /// The tracker deployed per bank.
    pub tracker: TrackerChoice,
    /// The Row-Press defense deployed per bank.
    pub defense: DefenseKind,
    /// The RFM threshold used by the memory controller (activations per RFM).
    pub rfm_threshold: u32,
    /// Seed for probabilistic trackers (PARA, MINT).
    pub seed: u64,
    /// Rows per bank (used to clip victim refreshes at the array edge).
    pub rows_per_bank: u32,
    /// Eviction engine for the counter-table trackers (Graphene, Mithril):
    /// [`EvictionEngine::Summary`] unless pinned otherwise (the A/B harnesses
    /// and equivalence gates pin [`EvictionEngine::Scan`] as their reference).
    pub eviction: EvictionEngine,
}

impl ProtectionConfig {
    /// The paper's baseline configuration for a given tracker and defense:
    /// TRH = 4K, RFMTH = 80.
    pub fn paper_default(tracker: TrackerChoice, defense: DefenseKind) -> Self {
        Self {
            rowhammer_threshold: 4_000,
            tracker,
            defense,
            rfm_threshold: 80,
            seed: 0xD2A4_0001,
            rows_per_bank: 1 << 16,
            eviction: EvictionEngine::default(),
        }
    }

    /// This configuration with the counter-tracker eviction engine pinned.
    pub fn with_eviction_engine(mut self, engine: EvictionEngine) -> Self {
        self.eviction = engine;
        self
    }

    /// The threshold the tracker must actually be configured for after applying the
    /// defense's threshold scaling (T*).
    pub fn effective_tracker_threshold(&self, timings: &DramTimings) -> u64 {
        let scale = self.defense.build(timings).tracker_threshold_scale();
        ((self.rowhammer_threshold as f64) * scale).floor().max(1.0) as u64
    }

    /// The RFM threshold the controller must use: in-DRAM probabilistic trackers (MINT)
    /// compensate for a reduced T* by issuing RFM more often (Appendix A).
    pub fn effective_rfm_threshold(&self, timings: &DramTimings) -> u32 {
        if self.tracker == TrackerChoice::Mint {
            let scale = self.defense.build(timings).tracker_threshold_scale();
            ((f64::from(self.rfm_threshold)) * scale).floor().max(1.0) as u32
        } else {
            self.rfm_threshold
        }
    }

    /// Builds the per-bank tracker, already re-targeted to the defense's effective
    /// threshold and EACT precision.
    pub fn build_tracker(&self, timings: &DramTimings) -> Box<dyn RowTracker> {
        let threshold = self.effective_tracker_threshold(timings);
        let frac_bits = self.defense.tracker_frac_bits();
        match self.tracker {
            TrackerChoice::Graphene => {
                let mut cfg = GrapheneConfig::for_threshold(threshold);
                cfg.frac_bits = frac_bits;
                Box::new(Graphene::with_engine(cfg, self.eviction))
            }
            TrackerChoice::Para => {
                let p = analysis::para_probability(threshold);
                Box::new(Para::with_probability(threshold, p, self.seed))
            }
            TrackerChoice::Mithril => {
                let cfg = MithrilConfig::with_rfm_threshold(threshold, self.rfm_threshold)
                    .with_frac_bits(frac_bits);
                Box::new(Mithril::with_engine(cfg, self.eviction))
            }
            TrackerChoice::Mint => Box::new(Mint::new(
                self.effective_rfm_threshold(timings),
                frac_bits,
                self.seed,
            )),
            TrackerChoice::Prac => Box::new(Prac::for_threshold(
                threshold,
                frac_bits,
                self.rows_per_bank,
            )),
        }
    }

    /// Builds the per-bank defense object.
    pub fn build_defense(&self, timings: &DramTimings) -> Box<dyn RowPressDefense> {
        self.defense.build(timings)
    }

    /// Returns an error message if the configuration is invalid (e.g. ExPress combined
    /// with an in-DRAM tracker, which the paper identifies as impossible).
    pub fn validate(&self) -> Result<(), String> {
        if matches!(self.defense, DefenseKind::Express { .. }) && self.tracker.is_in_dram() {
            return Err(format!(
                "{} cannot protect in-DRAM tracker {}: tMRO is not visible inside the DRAM device",
                self.defense.label(),
                self.tracker
            ));
        }
        if self.rowhammer_threshold < 2 {
            return Err("Rowhammer threshold must be at least 2".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn express_with_in_dram_tracker_is_rejected() {
        let t = DramTimings::ddr5();
        let cfg = ProtectionConfig::paper_default(
            TrackerChoice::Mithril,
            DefenseKind::express_paper_baseline(&t),
        );
        assert!(cfg.validate().is_err());
        let ok = ProtectionConfig::paper_default(
            TrackerChoice::Mithril,
            DefenseKind::ImpressN {
                alpha: Alpha::Conservative,
            },
        );
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn effective_threshold_halves_under_impress_n_alpha1() {
        let t = DramTimings::ddr5();
        let cfg = ProtectionConfig::paper_default(
            TrackerChoice::Graphene,
            DefenseKind::ImpressN {
                alpha: Alpha::Conservative,
            },
        );
        assert_eq!(cfg.effective_tracker_threshold(&t), 2_000);
        let norp = ProtectionConfig::paper_default(TrackerChoice::Graphene, DefenseKind::NoRp);
        assert_eq!(norp.effective_tracker_threshold(&t), 4_000);
        let p = ProtectionConfig::paper_default(
            TrackerChoice::Graphene,
            DefenseKind::impress_p_default(),
        );
        assert_eq!(p.effective_tracker_threshold(&t), 4_000);
    }

    #[test]
    fn mint_compensates_with_lower_rfm_threshold() {
        let t = DramTimings::ddr5();
        let cfg = ProtectionConfig::paper_default(
            TrackerChoice::Mint,
            DefenseKind::ImpressN {
                alpha: Alpha::Conservative,
            },
        );
        // Appendix A: RFM-40 keeps MINT's tolerated threshold at 1.6K under alpha = 1.
        assert_eq!(cfg.effective_rfm_threshold(&t), 40);
        let a035 = ProtectionConfig::paper_default(
            TrackerChoice::Mint,
            DefenseKind::ImpressN {
                alpha: Alpha::ShortDuration,
            },
        );
        assert_eq!(a035.effective_rfm_threshold(&t), 59);
    }

    #[test]
    fn built_trackers_have_expected_kinds() {
        let t = DramTimings::ddr5();
        for (choice, kind) in [
            (
                TrackerChoice::Graphene,
                impress_trackers::TrackerKind::Graphene,
            ),
            (TrackerChoice::Para, impress_trackers::TrackerKind::Para),
            (
                TrackerChoice::Mithril,
                impress_trackers::TrackerKind::Mithril,
            ),
            (TrackerChoice::Mint, impress_trackers::TrackerKind::Mint),
            (TrackerChoice::Prac, impress_trackers::TrackerKind::Prac),
        ] {
            let cfg = ProtectionConfig::paper_default(choice, DefenseKind::impress_p_default());
            assert_eq!(cfg.build_tracker(&t).kind(), kind);
        }
    }

    #[test]
    fn defense_labels_and_compatibility() {
        let t = DramTimings::ddr5();
        assert_eq!(DefenseKind::NoRp.label(), "No-RP");
        assert!(DefenseKind::impress_p_default().compatible_with_in_dram());
        assert!(!DefenseKind::express_paper_baseline(&t).compatible_with_in_dram());
        assert_eq!(
            DefenseKind::impress_p_default().to_string(),
            "ImPress-P(7 frac bits)"
        );
    }

    #[test]
    fn eviction_engine_knob_pins_counter_trackers() {
        use impress_trackers::EvictionEngine;
        let base = ProtectionConfig::paper_default(
            TrackerChoice::Graphene,
            DefenseKind::impress_p_default(),
        );
        // Unpinned is the summary engine.
        assert_eq!(base.eviction, EvictionEngine::Summary);
        let pinned = base.clone().with_eviction_engine(EvictionEngine::Scan);
        assert_eq!(pinned.eviction, EvictionEngine::Scan);
        // Pinning shows up in the built trackers.
        let t = DramTimings::ddr5();
        for choice in [TrackerChoice::Graphene, TrackerChoice::Mithril] {
            for engine in [EvictionEngine::Scan, EvictionEngine::Summary] {
                let cfg = ProtectionConfig::paper_default(choice, DefenseKind::impress_p_default())
                    .with_eviction_engine(engine);
                // Smoke: construction succeeds and the tracker works.
                let mut tracker = cfg.build_tracker(&t);
                assert!(tracker.record(1, impress_trackers::Eact::ONE, 0).is_none());
            }
        }
    }

    #[test]
    fn tracker_frac_bits_only_for_impress_p() {
        assert_eq!(DefenseKind::impress_p_default().tracker_frac_bits(), 7);
        assert_eq!(DefenseKind::NoRp.tracker_frac_bits(), 0);
    }
}
