//! MINT: a minimalist in-DRAM tracker with a single entry per bank.
//!
//! MINT (Qureshi et al., MICRO 2024) keeps three registers per bank: the Selected
//! Activation Number (SAN), the Current Activation Number (CAN) and the Selected
//! Address Register (SAR). At each RFM it mitigates the row held in SAR (if any) and
//! randomly selects which activation slot in the next `RFMTH` activations will be
//! captured into SAR. Each activation therefore has a 1/RFMTH chance of being selected.
//!
//! Under ImPress-P, CAN is extended with 7 fractional bits and incremented by the
//! activation's EACT, so a long-open row spans more "slots" and is proportionally more
//! likely to be selected (§VI-C), raising MINT's storage from 4 to 5 bytes per bank.

use impress_dram::address::RowId;
use impress_dram::timing::Cycle;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::analysis::mint_tolerated_threshold;
use crate::eact::{Eact, EactCounter, CANONICAL_FRAC_BITS};
use crate::storage::StorageEstimate;
use crate::tracker::{MitigationRequest, RowTracker, TrackerKind};

/// The MINT tracker for a single bank.
#[derive(Debug, Clone)]
pub struct Mint {
    rfm_threshold: u32,
    frac_bits: u32,
    /// Selected activation number for the current RFM window (in EACT units, Q7).
    san: EactCounter,
    /// Current activation number within the RFM window (in EACT units, Q7).
    can: EactCounter,
    /// Selected address register.
    sar: Option<RowId>,
    rng: SmallRng,
    mitigations: u64,
    selections: u64,
}

impl Mint {
    /// Creates a MINT tracker for the paper's default RFM threshold of 80.
    pub fn paper_default() -> Self {
        Self::new(80, 0, 0x4D1E_7001)
    }

    /// Creates a MINT tracker with an explicit RFM threshold, number of fractional
    /// CAN bits (0 for plain Rowhammer, 7 for ImPress-P) and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `rfm_threshold` is zero or `frac_bits > 7`.
    pub fn new(rfm_threshold: u32, frac_bits: u32, seed: u64) -> Self {
        assert!(rfm_threshold > 0, "RFM threshold must be positive");
        assert!(
            frac_bits <= CANONICAL_FRAC_BITS,
            "at most {CANONICAL_FRAC_BITS} fractional bits are supported"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let san = Self::draw_san(&mut rng, rfm_threshold);
        Self {
            rfm_threshold,
            frac_bits,
            san,
            can: EactCounter::ZERO,
            sar: None,
            rng,
            mitigations: 0,
            selections: 0,
        }
    }

    fn draw_san(rng: &mut SmallRng, rfm_threshold: u32) -> EactCounter {
        // Select a slot uniformly in (0, RFMTH] in Q7 units; an activation is captured
        // when CAN crosses this value.
        let slots = u64::from(rfm_threshold) << CANONICAL_FRAC_BITS;
        EactCounter::from_raw(rng.gen_range(1..=slots))
    }

    /// The configured RFM threshold.
    pub fn rfm_threshold(&self) -> u32 {
        self.rfm_threshold
    }

    /// The currently selected row (contents of SAR), if any.
    pub fn selected_row(&self) -> Option<RowId> {
        self.sar
    }

    /// Number of mitigations performed under RFM so far.
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }

    fn quantize(&self, eact: Eact) -> Eact {
        if self.frac_bits >= CANONICAL_FRAC_BITS {
            eact
        } else {
            let drop = CANONICAL_FRAC_BITS - self.frac_bits;
            let truncated = (eact.raw() >> drop) << drop;
            // Without fractional bits MINT still counts every activation as at least 1.
            Eact::from_raw(truncated.max(Eact::ONE.raw()))
        }
    }
}

impl RowTracker for Mint {
    fn record(&mut self, row: RowId, eact: Eact, _now: Cycle) -> Option<MitigationRequest> {
        let eact = self.quantize(eact);
        let before = self.can.raw();
        self.can.add(eact);
        let after = self.can.raw();
        // The row is captured if CAN crosses SAN during this activation.
        let san = self.san.raw();
        if before < san && after >= san {
            self.sar = Some(row);
            self.selections += 1;
        }
        None
    }

    fn record_run(
        &mut self,
        row: RowId,
        eact: Eact,
        count: u32,
        _now: Cycle,
        _out: &mut Vec<MitigationRequest>,
    ) {
        // CAN only grows, so at most one of the run's adds crosses SAN, and
        // one does exactly when the whole run steps over it.
        let weight = u64::from(self.quantize(eact).raw());
        let before = self.can.raw();
        let after = before.saturating_add(weight.saturating_mul(u64::from(count)));
        self.can = EactCounter::from_raw(after);
        let san = self.san.raw();
        if before < san && after >= san {
            self.sar = Some(row);
            self.selections += 1;
        }
    }

    fn headroom(&self) -> u64 {
        // `record` never returns a mitigation (MINT only mitigates under RFM,
        // and batch stagers flush before every RFM), so any weight can be
        // deferred.
        u64::MAX
    }

    fn mitigates_on_rfm(&self) -> bool {
        true
    }

    fn on_rfm(&mut self, now: Cycle) -> Option<MitigationRequest> {
        let mitigation = self.sar.take().map(|aggressor| {
            self.mitigations += 1;
            MitigationRequest {
                aggressor,
                identified_at: now,
            }
        });
        // Start a new RFM window: reset CAN and pick a fresh SAN.
        self.can = EactCounter::ZERO;
        self.san = Self::draw_san(&mut self.rng, self.rfm_threshold);
        mitigation
    }

    fn kind(&self) -> TrackerKind {
        TrackerKind::Mint
    }

    fn storage(&self) -> StorageEstimate {
        // SAR row address + SAN (7-bit integer for RFMTH ≤ 128) + CAN (7-bit integer
        // plus ImPress-P fractional bits; §VI-C: only CAN is widened).
        let can_bits = 7 + self.frac_bits;
        let san_bits = 7;
        StorageEstimate {
            entries_per_bank: 1,
            bits_per_entry: 17,
            extra_bits_per_bank: can_bits + san_bits,
        }
    }

    fn configured_threshold(&self) -> u64 {
        mint_tolerated_threshold(self.rfm_threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rfm_window_selects_at_most_one_row() {
        let mut mint = Mint::paper_default();
        let mut total_mitigations = 0;
        for window in 0..1000u64 {
            for a in 0..80u64 {
                mint.record((a % 16) as RowId, Eact::ONE, window * 80 + a);
            }
            if mint.on_rfm(window * 80 * 128).is_some() {
                total_mitigations += 1;
            }
        }
        // With CAN reaching exactly RFMTH each window, a selection always occurs.
        assert_eq!(total_mitigations, 1000);
    }

    #[test]
    fn selection_is_uniform_over_slots() {
        // A single aggressor occupying half the slots should be selected ~half the time.
        let mut mint = Mint::new(80, 0, 42);
        let mut aggressor_selected = 0u64;
        let windows = 4000u64;
        for w in 0..windows {
            for a in 0..80u64 {
                let row = if a < 40 { 7 } else { 100 + a as RowId };
                mint.record(row, Eact::ONE, w * 80 + a);
            }
            if let Some(m) = mint.on_rfm(w) {
                if m.aggressor == 7 {
                    aggressor_selected += 1;
                }
            }
        }
        let frac = aggressor_selected as f64 / windows as f64;
        assert!((frac - 0.5).abs() < 0.05, "selection fraction = {frac}");
    }

    #[test]
    fn eact_weighting_increases_selection_probability() {
        // One activation with EACT=40 out of an 80-slot window covers half the window.
        let mut mint = Mint::new(80, 7, 43);
        let mut long_selected = 0u64;
        let windows = 4000u64;
        for w in 0..windows {
            mint.record(7, Eact::from_f64(40.0, 7), w * 100);
            for a in 0..40u64 {
                mint.record(100 + a as RowId, Eact::ONE, w * 100 + a + 1);
            }
            if let Some(m) = mint.on_rfm(w) {
                if m.aggressor == 7 {
                    long_selected += 1;
                }
            }
        }
        let frac = long_selected as f64 / windows as f64;
        assert!((frac - 0.5).abs() < 0.05, "selection fraction = {frac}");
    }

    #[test]
    fn storage_grows_by_one_byte_with_impress_p() {
        let plain = Mint::new(80, 0, 0).storage();
        let precise = Mint::new(80, 7, 0).storage();
        // §VI-C: "ImPress-P increases the storage overhead of MINT from 4 bytes to 5 bytes".
        assert_eq!(plain.bytes_per_bank(), 4);
        assert_eq!(precise.bytes_per_bank(), 5);
    }

    #[test]
    fn tolerated_threshold_tracks_rfmth() {
        assert_eq!(Mint::new(80, 0, 0).configured_threshold(), 1_600);
        assert_eq!(Mint::new(40, 0, 0).configured_threshold(), 800);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mut a = Mint::new(80, 0, 5);
        let mut b = Mint::new(80, 0, 5);
        for w in 0..100u64 {
            for act in 0..80u64 {
                a.record(act as RowId, Eact::ONE, w * 80 + act);
                b.record(act as RowId, Eact::ONE, w * 80 + act);
            }
            assert_eq!(a.on_rfm(w), b.on_rfm(w));
        }
    }
}
