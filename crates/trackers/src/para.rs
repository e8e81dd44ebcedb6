//! PARA: Probabilistic Adjacent Row Activation at the memory controller.
//!
//! PARA (Kim et al., ISCA 2014) mitigates each activation with a small probability `p`
//! chosen from the Rowhammer threshold and the target failure rate (p = 1/184 for
//! TRH = 4K in the paper's methodology). Under ImPress-P the probability of each
//! decision is scaled by the activation's EACT: `p̂ = p × EACT` (§VI-C), so a row held
//! open for a long time is proportionally more likely to be mitigated.

use impress_dram::address::RowId;
use impress_dram::timing::Cycle;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::analysis::para_probability;
use crate::eact::Eact;
use crate::storage::StorageEstimate;
use crate::tracker::{MitigationRequest, RowTracker, TrackerKind};

/// The PARA tracker for a single bank.
#[derive(Debug, Clone)]
pub struct Para {
    threshold: u64,
    probability: f64,
    rng: SmallRng,
    decisions: u64,
    mitigations: u64,
}

impl Para {
    /// Creates a PARA instance for Rowhammer threshold `trh` using the paper's
    /// reliability methodology (p = 1/184 at TRH = 4K), with a deterministic seed.
    pub fn for_threshold(trh: u64) -> Self {
        Self::with_probability(trh, para_probability(trh), 0x5EED_0001)
    }

    /// Creates a PARA instance with an explicit probability and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is not within `(0, 1]`.
    pub fn with_probability(trh: u64, probability: f64, seed: u64) -> Self {
        assert!(
            probability > 0.0 && probability <= 1.0,
            "PARA probability must be in (0, 1]"
        );
        Self {
            threshold: trh,
            probability,
            rng: SmallRng::seed_from_u64(seed),
            decisions: 0,
            mitigations: 0,
        }
    }

    /// The base per-activation mitigation probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Number of sampling decisions taken so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Number of mitigations issued so far.
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }
}

impl RowTracker for Para {
    fn record(&mut self, row: RowId, eact: Eact, now: Cycle) -> Option<MitigationRequest> {
        self.decisions += 1;
        let p = eact.scale_probability(self.probability);
        if self.rng.gen_bool(p) {
            self.mitigations += 1;
            Some(MitigationRequest {
                aggressor: row,
                identified_at: now,
            })
        } else {
            None
        }
    }

    fn record_run(
        &mut self,
        row: RowId,
        eact: Eact,
        count: u32,
        now: Cycle,
        out: &mut Vec<MitigationRequest>,
    ) {
        // One draw per activation keeps the RNG stream; only the probability
        // and the decision count are shared. The trait's default loop gives
        // the same stream, but its per-draw `record` call is not inlined; it
        // cut `attack` benchmark throughput by ~28% on a 2-CPU x86-64 host.
        let p = eact.scale_probability(self.probability);
        self.decisions += u64::from(count);
        for _ in 0..count {
            if self.rng.gen_bool(p) {
                self.mitigations += 1;
                out.push(MitigationRequest {
                    aggressor: row,
                    identified_at: now,
                });
            }
        }
    }

    // PARA inherits the default `headroom` of 0: each record can mitigate with
    // nonzero probability, so no span is provably mitigation-free and every
    // event must take the per-record path (preserving the RNG stream).

    fn kind(&self) -> TrackerKind {
        TrackerKind::Para
    }

    fn storage(&self) -> StorageEstimate {
        // PARA is stateless apart from its RNG (a few bytes of LFSR in hardware).
        StorageEstimate {
            entries_per_bank: 0,
            bits_per_entry: 0,
            extra_bits_per_bank: 32,
        }
    }

    fn configured_threshold(&self) -> u64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mitigation_rate_tracks_probability() {
        let mut para = Para::for_threshold(4_000);
        let n = 1_000_000u64;
        for i in 0..n {
            para.record(i as RowId % 128, Eact::ONE, i);
        }
        let rate = para.mitigations() as f64 / n as f64;
        let expected = 1.0 / 184.0;
        assert!(
            (rate - expected).abs() / expected < 0.05,
            "rate = {rate}, expected ≈ {expected}"
        );
    }

    #[test]
    fn eact_scaling_doubles_rate() {
        let mut base = Para::with_probability(4_000, 1.0 / 184.0, 1);
        let mut scaled = Para::with_probability(4_000, 1.0 / 184.0, 1);
        let n = 500_000u64;
        for i in 0..n {
            base.record(0, Eact::ONE, i);
            scaled.record(0, Eact::from_f64(2.0, 7), i);
        }
        let ratio = scaled.mitigations() as f64 / base.mitigations() as f64;
        assert!((ratio - 2.0).abs() < 0.15, "ratio = {ratio}");
    }

    #[test]
    fn saturated_probability_always_mitigates() {
        let mut para = Para::with_probability(4_000, 1.0 / 184.0, 7);
        // EACT of 200 pushes p×EACT above 1.0, which must clamp to certainty.
        let eact = Eact::from_f64(200.0, 7);
        for i in 0..100u64 {
            assert!(para.record(3, eact, i).is_some());
        }
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mut a = Para::with_probability(4_000, 0.01, 99);
        let mut b = Para::with_probability(4_000, 0.01, 99);
        for i in 0..10_000u64 {
            assert_eq!(
                a.record(5, Eact::ONE, i).is_some(),
                b.record(5, Eact::ONE, i).is_some()
            );
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn zero_probability_is_rejected() {
        let _ = Para::with_probability(4_000, 0.0, 0);
    }
}
