//! Equivalent Activation Count (EACT): fixed-point activation weights.
//!
//! ImPress-P converts the time a row is open into an *Equivalent Activation Count*
//! (§VI-A): `EACT = (tON + tPRE) / tRC`, which is at least 1 and may be fractional.
//! The hardware stores the fractional part in a configurable number of bits
//! (7 by default, §VI-B); fewer bits under-estimate the damage and proportionally
//! reduce the tolerated threshold (Figure 12).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

use impress_dram::timing::Cycle;

/// Number of fractional bits in the canonical internal representation.
///
/// With `tRC = 128` cycles the natural fractional precision of `(tON + tPRE)/tRC`
/// is 7 bits (§VI-A).
pub const CANONICAL_FRAC_BITS: u32 = 7;

/// An Equivalent Activation Count in fixed-point Q`7` representation.
///
/// `Eact::ONE` is a single conventional activation. Values are always ≥ 1 when produced
/// from row-open durations ([`Eact::from_open_time`]), matching the paper's guarantee
/// that "EACT is guaranteed to be at least 1".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Eact(u32);

impl Eact {
    /// One conventional activation.
    pub const ONE: Eact = Eact(1 << CANONICAL_FRAC_BITS);

    /// Zero equivalent activations (useful as an accumulator identity).
    pub const ZERO: Eact = Eact(0);

    /// Creates an EACT from a raw Q7 fixed-point value.
    pub const fn from_raw(raw: u32) -> Self {
        Self(raw)
    }

    /// Returns the raw Q7 fixed-point value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Creates an EACT from a floating-point value, rounding toward zero and keeping
    /// `frac_bits` bits of fraction (the rest is truncated, as hardware would).
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative, not finite, or `frac_bits > 7`.
    pub fn from_f64(value: f64, frac_bits: u32) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "EACT must be non-negative"
        );
        assert!(
            frac_bits <= CANONICAL_FRAC_BITS,
            "at most {CANONICAL_FRAC_BITS} fractional bits are supported"
        );
        let quantized = (value * f64::from(1u32 << frac_bits)).floor() as u64;
        let raw = quantized << (CANONICAL_FRAC_BITS - frac_bits);
        Self(raw.min(u32::MAX as u64) as u32)
    }

    /// Computes the EACT of a row that was open for `open_cycles` (`tON`), per §VI-A:
    /// `EACT = (tON + tPRE)/tRC`, truncated to `frac_bits` fractional bits and clamped
    /// to at least 1.
    ///
    /// # Panics
    ///
    /// Panics if `t_rc` is zero or `frac_bits > 7`.
    pub fn from_open_time(open_cycles: Cycle, t_pre: Cycle, t_rc: Cycle, frac_bits: u32) -> Self {
        assert!(t_rc > 0, "tRC must be positive");
        assert!(
            frac_bits <= CANONICAL_FRAC_BITS,
            "at most {CANONICAL_FRAC_BITS} fractional bits are supported"
        );
        let total = open_cycles + t_pre;
        // Fixed-point division: (total << frac_bits) / tRC, truncating.
        let q = ((total << frac_bits) / t_rc) << (CANONICAL_FRAC_BITS - frac_bits);
        let raw = q.min(u32::MAX as u64 as Cycle) as u32;
        Self(raw.max(Self::ONE.0))
    }

    /// Converts to a floating-point activation count.
    pub fn as_f64(self) -> f64 {
        f64::from(self.0) / f64::from(1u32 << CANONICAL_FRAC_BITS)
    }

    /// The integer (whole-activation) part.
    pub const fn integer_part(self) -> u32 {
        self.0 >> CANONICAL_FRAC_BITS
    }

    /// Multiplies this EACT by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, factor: u32) -> Self {
        Self(self.0.saturating_mul(factor))
    }

    /// Scales a base probability `p` by this EACT, clamped to 1.0 — the modification
    /// ImPress-P applies to probabilistic trackers (`p̂ = p × EACT`, §VI-C).
    pub fn scale_probability(self, p: f64) -> f64 {
        (p * self.as_f64()).min(1.0)
    }
}

impl Default for Eact {
    fn default() -> Self {
        Self::ONE
    }
}

impl Add for Eact {
    type Output = Eact;

    fn add(self, rhs: Eact) -> Eact {
        Eact(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Eact {
    fn add_assign(&mut self, rhs: Eact) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sum for Eact {
    fn sum<I: Iterator<Item = Eact>>(iter: I) -> Eact {
        iter.fold(Eact::ZERO, Add::add)
    }
}

impl fmt::Display for Eact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.as_f64())
    }
}

/// A fixed-point activation counter accumulating EACT values (Q7, 64-bit).
///
/// Counter-based trackers (Graphene, Mithril, PRAC) are extended "by 7 bits" in
/// ImPress-P (§VI-B); this type is that extended counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EactCounter(u64);

impl EactCounter {
    /// A counter at zero.
    pub const ZERO: EactCounter = EactCounter(0);

    /// Creates a counter holding `acts` whole activations.
    pub const fn from_activations(acts: u64) -> Self {
        Self(acts << CANONICAL_FRAC_BITS)
    }

    /// Adds an EACT to this counter.
    pub fn add(&mut self, eact: Eact) {
        self.0 = self.0.saturating_add(u64::from(eact.raw()));
    }

    /// The number of whole activations accumulated (fraction truncated).
    pub const fn activations(self) -> u64 {
        self.0 >> CANONICAL_FRAC_BITS
    }

    /// The accumulated value as a float.
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / f64::from(1u32 << CANONICAL_FRAC_BITS)
    }

    /// Raw Q7 value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Creates a counter from a raw Q7 value.
    pub const fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns true if this counter has reached `threshold` whole activations.
    pub const fn reached(self, threshold: u64) -> bool {
        self.activations() >= threshold
    }
}

/// The effect of `count` equal [`EactCounter::add`]s on a counter that rolls back
/// to `base` whenever it reaches `threshold` whole activations — the per-record
/// mitigation rule of Graphene (`base` = spillover) and PRAC (`base` = 0) —
/// computed in O(1): the adds up to the first crossing, whole periods of
/// `base` → crossing, then the remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RolledRun {
    /// Raw value after the first add (and its roll-back, if it crossed).
    pub first_raw: u64,
    /// Raw value after the last add.
    pub final_raw: u64,
    /// Threshold crossings, one mitigation each.
    pub crossings: u64,
}

impl RolledRun {
    pub(crate) fn compute(start: u64, weight: u64, count: u32, threshold: u64, base: u64) -> Self {
        // `raw >> 7 >= threshold` is `raw >= limit`; no u64 reaches a limit
        // that overflows.
        let limit = threshold.checked_mul(u64::from(Eact::ONE.raw()));
        // Adds from `from` up to and including the first crossing, if any.
        let to_cross = |from: u64| -> Option<u64> {
            let limit = limit?;
            if from.saturating_add(weight) >= limit {
                Some(1)
            } else if weight == 0 {
                None
            } else {
                Some((limit - from).div_ceil(weight))
            }
        };
        let step = |raw: u64| {
            let raw = raw.saturating_add(weight);
            if limit.is_some_and(|limit| raw >= limit) {
                base
            } else {
                raw
            }
        };
        let count = u64::from(count);
        let (final_raw, crossings) = match to_cross(start) {
            Some(first) if first <= count => {
                let left = count - first;
                match to_cross(base) {
                    Some(period) => (
                        base.saturating_add((left % period) * weight),
                        1 + left / period,
                    ),
                    // Zero weight below the limit: the counter stays at `base`.
                    None => (base, 1),
                }
            }
            _ => (start.saturating_add(weight.saturating_mul(count)), 0),
        };
        Self {
            first_raw: step(start),
            final_raw,
            crossings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const T_RC: Cycle = 128;
    const T_PRE: Cycle = 32;
    const T_RAS: Cycle = 96;

    #[test]
    fn rowhammer_pattern_has_eact_one() {
        // §VI-A: "if tON is equal to tRAS, this is the same as RH attack, and EACT is 1".
        let e = Eact::from_open_time(T_RAS, T_PRE, T_RC, 7);
        assert_eq!(e, Eact::ONE);
    }

    #[test]
    fn one_extra_trc_gives_eact_two() {
        // §VI-A: "If tON is equal to tRAS+tRC, the access lasts for two tRC and EACT=2".
        let e = Eact::from_open_time(T_RAS + T_RC, T_PRE, T_RC, 7);
        assert_eq!(e.as_f64(), 2.0);
    }

    #[test]
    fn half_trc_gives_fractional_eact() {
        // §VI-A: "if tON=tRAS+tRC/2, EACT=1.5".
        let e = Eact::from_open_time(T_RAS + T_RC / 2, T_PRE, T_RC, 7);
        assert_eq!(e.as_f64(), 1.5);
    }

    #[test]
    fn eact_is_at_least_one() {
        let e = Eact::from_open_time(0, 0, T_RC, 7);
        assert_eq!(e, Eact::ONE);
    }

    #[test]
    fn zero_frac_bits_truncates_to_integer() {
        // With 0 fractional bits ImPress-P degenerates to ImPress-N (integer damage).
        let e = Eact::from_open_time(T_RAS + T_RC / 2, T_PRE, T_RC, 0);
        assert_eq!(e.as_f64(), 1.0);
    }

    #[test]
    fn probability_scaling_clamps_at_one() {
        let e = Eact::from_f64(400.0, 7);
        assert_eq!(e.scale_probability(1.0 / 184.0), 1.0);
        let small = Eact::from_f64(2.0, 7);
        assert!((small.scale_probability(0.25) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counter_accumulates_fractions() {
        let mut c = EactCounter::ZERO;
        for _ in 0..4 {
            c.add(Eact::from_f64(1.5, 7));
        }
        assert_eq!(c.activations(), 6);
        assert!(c.reached(6));
        assert!(!c.reached(7));
    }

    #[test]
    fn display_shows_fraction() {
        assert_eq!(Eact::from_f64(1.5, 7).to_string(), "1.5000");
    }

    proptest! {
        /// Quantization with fewer fractional bits never over-estimates the EACT and
        /// loses at most 2^-b of precision (the basis of Figure 12).
        #[test]
        fn quantization_error_is_bounded(open in 96u64..200_000u64, bits in 0u32..=7) {
            let exact = (open + T_PRE) as f64 / T_RC as f64;
            let e = Eact::from_open_time(open, T_PRE, T_RC, bits);
            let err = exact - e.as_f64();
            // Clamping to >= 1 can only increase the value when exact < 1, which cannot
            // happen for open >= tRAS; otherwise quantization truncates.
            prop_assert!(err >= -1e-9);
            prop_assert!(err < 1.0 / f64::from(1u32 << bits) + 1e-9);
        }

        /// EACT addition matches floating-point addition to within representation error.
        #[test]
        fn addition_is_consistent(a in 0.0f64..100.0, b in 0.0f64..100.0) {
            let ea = Eact::from_f64(a, 7);
            let eb = Eact::from_f64(b, 7);
            let sum = ea + eb;
            prop_assert!((sum.as_f64() - (ea.as_f64() + eb.as_f64())).abs() < 1e-9);
        }

        /// from_open_time is monotonic in the open time.
        #[test]
        fn monotonic_in_open_time(a in 96u64..100_000u64, delta in 0u64..100_000u64) {
            let e1 = Eact::from_open_time(a, T_PRE, T_RC, 7);
            let e2 = Eact::from_open_time(a + delta, T_PRE, T_RC, 7);
            prop_assert!(e2 >= e1);
        }

        /// The closed-form run equals the add-and-roll-back loop it replaces,
        /// including zero weights, a base at or past the limit, limits that
        /// overflow u64, and counters that saturate.
        #[test]
        fn rolled_run_matches_the_loop(
            start in 0u64..8_000,
            weight in 0u64..1_500,
            count in 0u32..700,
            threshold in 0u64..40,
            base in 0u64..8_000,
            shape in 0u32..4,
        ) {
            let (start, weight, threshold) = match shape {
                // A limit just below u64::MAX, crossed by a saturating counter.
                1 => (u64::MAX - start, weight, (u64::MAX >> 7) - threshold),
                // Whole activations past u64::MAX >> 7: the limit overflows.
                2 => (u64::MAX - start, weight, (u64::MAX >> 7) + 1 + threshold),
                3 => (start, 0, threshold),
                _ => (start, weight, threshold),
            };
            let mut raw = start;
            let mut first_raw = None;
            let mut crossings = 0;
            for _ in 0..count {
                raw = raw.saturating_add(weight);
                if raw >> CANONICAL_FRAC_BITS >= threshold {
                    raw = base;
                    crossings += 1;
                }
                first_raw.get_or_insert(raw);
            }
            let run = RolledRun::compute(start, weight, count, threshold, base);
            prop_assert_eq!(run.final_raw, raw);
            prop_assert_eq!(run.crossings, crossings);
            if let Some(first_raw) = first_raw {
                prop_assert_eq!(run.first_raw, first_raw);
            }
        }
    }
}
