//! Attack-pattern generators (Rowhammer, Row-Press, combined, evasion).

use impress_core::AggressorAccess;
use impress_dram::address::RowId;
use impress_dram::timing::{Cycle, DramTimings};

/// A generator of aggressor access sequences.
///
/// Patterns are infinite in principle (the attacker repeats until a bit flips or the
/// refresh window ends); [`AttackPattern::accesses`] returns the first `n` rounds.
pub trait AttackPattern: std::fmt::Debug {
    /// The access performed in round `i`.
    fn round(&self, i: u64) -> AggressorAccess;

    /// Human-readable name for experiment output.
    fn name(&self) -> String;

    /// The first `n` rounds of the pattern.
    fn accesses(&self, n: u64) -> Vec<AggressorAccess> {
        (0..n).map(|i| self.round(i)).collect()
    }

    /// An iterator over the first `n` rounds (avoids materialising huge patterns).
    fn iter(&self, n: u64) -> PatternIter<'_>
    where
        Self: Sized,
    {
        PatternIter {
            pattern: self,
            next: 0,
            end: n,
        }
    }
}

/// Iterator over a pattern's rounds, produced by [`AttackPattern::iter`].
#[derive(Debug)]
pub struct PatternIter<'a> {
    pattern: &'a dyn AttackPattern,
    next: u64,
    end: u64,
}

impl Iterator for PatternIter<'_> {
    type Item = AggressorAccess;

    fn next(&mut self) -> Option<AggressorAccess> {
        if self.next >= self.end {
            return None;
        }
        let access = self.pattern.round(self.next);
        self.next += 1;
        Some(access)
    }

    /// Exact, so collecting a pattern allocates once, at its length.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = usize::try_from(self.end.saturating_sub(self.next)).ok();
        (left.unwrap_or(usize::MAX), left)
    }
}

/// Classic single-sided Rowhammer: minimum-length activations of one aggressor row.
#[derive(Debug, Clone, Copy)]
pub struct RowhammerPattern {
    /// The aggressor row.
    pub aggressor: RowId,
}

impl RowhammerPattern {
    /// Creates a Rowhammer pattern on `aggressor`.
    pub fn new(aggressor: RowId) -> Self {
        Self { aggressor }
    }
}

impl AttackPattern for RowhammerPattern {
    fn round(&self, _i: u64) -> AggressorAccess {
        AggressorAccess::hammer(self.aggressor)
    }

    fn name(&self) -> String {
        format!("Rowhammer(row {})", self.aggressor)
    }
}

/// Row-Press: the aggressor row is held open for `t_on` cycles every round (Figure 2).
#[derive(Debug, Clone, Copy)]
pub struct RowPressPattern {
    /// The aggressor row.
    pub aggressor: RowId,
    /// Open time per round, in cycles.
    pub t_on: Cycle,
}

impl RowPressPattern {
    /// Creates a Row-Press pattern holding `aggressor` open for `t_on` cycles.
    pub fn new(aggressor: RowId, t_on: Cycle) -> Self {
        Self { aggressor, t_on }
    }

    /// The strongest pattern the DDR specification allows: the row stays open until the
    /// last postponed refresh forces it closed ((1 + max postponed) × tREFI).
    pub fn maximal(aggressor: RowId, timings: &DramTimings) -> Self {
        Self {
            aggressor,
            t_on: (1 + timings.max_postponed_ref as u64) * timings.t_refi,
        }
    }
}

impl AttackPattern for RowPressPattern {
    fn round(&self, _i: u64) -> AggressorAccess {
        AggressorAccess::press(self.aggressor, self.t_on)
    }

    fn name(&self) -> String {
        format!(
            "Row-Press(row {}, tON {} cycles)",
            self.aggressor, self.t_on
        )
    }
}

/// The parameterized combined pattern of Appendix B (Figure 17): every round keeps the
/// row open for `tRAS + K·tRC`, so the round time is `(K + 1)·tRC`.
#[derive(Debug, Clone, Copy)]
pub struct CombinedPattern {
    /// The aggressor row.
    pub aggressor: RowId,
    /// The Row-Press parameter K (0 = Rowhammer, 72 ≈ a full tREFI in DDR5).
    pub k: u64,
    /// Open time per round (derived from K and the timings).
    t_on: Cycle,
}

impl CombinedPattern {
    /// Creates the combined pattern with parameter `k`.
    pub fn new(aggressor: RowId, k: u64, timings: &DramTimings) -> Self {
        Self {
            aggressor,
            k,
            t_on: timings.t_ras + k * timings.t_rc,
        }
    }

    /// Duration of one round of this pattern: `(K + 1) × tRC` (Appendix B).
    pub fn round_time(&self, timings: &DramTimings) -> Cycle {
        (self.k + 1) * timings.t_rc
    }
}

impl AttackPattern for CombinedPattern {
    fn round(&self, _i: u64) -> AggressorAccess {
        AggressorAccess::press(self.aggressor, self.t_on)
    }

    fn name(&self) -> String {
        format!("Combined(row {}, K = {})", self.aggressor, self.k)
    }
}

/// The ImPress-N evasion pattern of Figure 10: the aggressor is opened just before a
/// window boundary (so the ORA misses it) and kept open for `tRC + tRAS`, with a decoy
/// activation closing it before it would be sampled twice.
///
/// Against ImPress-N this pattern leaks `(1 + α)` units of charge per tracked
/// activation, reducing the tolerated threshold to `TRH/(1 + α)` (Equation 5). Against
/// ImPress-P it gains nothing (the full open time is converted into EACT).
#[derive(Debug, Clone, Copy)]
pub struct EvasionPattern {
    /// The aggressor row.
    pub aggressor: RowId,
    /// A decoy row in the same bank used to force the precharge.
    pub decoy: RowId,
    t_on: Cycle,
}

impl EvasionPattern {
    /// Creates the evasion pattern; `decoy` must differ from `aggressor` and should be
    /// far enough away not to share victims.
    pub fn new(aggressor: RowId, decoy: RowId, timings: &DramTimings) -> Self {
        assert_ne!(aggressor, decoy, "decoy must differ from the aggressor");
        Self {
            aggressor,
            decoy,
            t_on: timings.t_rc + timings.t_ras,
        }
    }

    /// Charge leaked per round on the aggressor's victims (in RH units) under the CLM
    /// with parameter `alpha`.
    pub fn charge_per_round(&self, alpha: f64) -> f64 {
        1.0 + alpha
    }
}

impl AttackPattern for EvasionPattern {
    fn round(&self, i: u64) -> AggressorAccess {
        // Alternate the long aggressor access with a minimum-length decoy access (the
        // decoy both closes the aggressor row and hides the pattern's regularity).
        if i.is_multiple_of(2) {
            AggressorAccess::press(self.aggressor, self.t_on)
        } else {
            AggressorAccess::hammer(self.decoy)
        }
    }

    fn name(&self) -> String {
        format!(
            "ImPress-N evasion(row {}, decoy {})",
            self.aggressor, self.decoy
        )
    }
}

/// Rotating-aggressor churn: round-robin over a row set larger than any tracker
/// table, so (after warm-up) nearly every access misses the table and exercises
/// the eviction path — the worst case the stream-summary engine is built for,
/// and the shape `perf_report`'s churn gate measures.
///
/// Each row recurs every `rows` accesses; with `rows` greater than the table
/// entry count a row is usually displaced before it returns, so the tracker
/// sees a permanent miss storm while every row's true activation rate stays far
/// below the Rowhammer threshold (the disturbance is spread, not concentrated).
#[derive(Debug, Clone, Copy)]
pub struct RotatingAggressorPattern {
    /// First row of the rotation.
    pub base: RowId,
    /// Number of rows rotated over (choose > tracker entries for full churn).
    pub rows: u32,
    /// Distance between consecutive rows (≥ 1; > 2×blast radius keeps victim
    /// sets disjoint so no single victim accumulates compound damage).
    pub stride: u32,
    /// Open time per access (0 = minimum-length Rowhammer accesses).
    pub t_on: Cycle,
}

impl RotatingAggressorPattern {
    /// Creates a minimum-open-time rotation over `rows` rows starting at `base`.
    pub fn new(base: RowId, rows: u32, stride: u32) -> Self {
        assert!(rows > 0, "rotation needs at least one row");
        assert!(stride > 0, "stride must be positive");
        Self {
            base,
            rows,
            stride,
            t_on: 0,
        }
    }

    /// The same rotation with a Row-Press open time per access.
    pub fn with_press(mut self, t_on: Cycle) -> Self {
        self.t_on = t_on;
        self
    }
}

impl AttackPattern for RotatingAggressorPattern {
    fn round(&self, i: u64) -> AggressorAccess {
        let k = (i % u64::from(self.rows)) as u32;
        AggressorAccess {
            row: self.base + k * self.stride,
            t_on: self.t_on,
        }
    }

    fn name(&self) -> String {
        format!(
            "Rotating({} rows from {}, stride {}, tON {})",
            self.rows, self.base, self.stride, self.t_on
        )
    }
}

/// Threshold-straddling churn: a small set of aggressors is driven in bursts
/// that approach (but keep re-arming below) the tracker's internal threshold,
/// while one-shot churn rows are injected between bursts.
///
/// The aggressors pin high-count table entries near the mitigation threshold;
/// the churn rows force a steady stream of insert/evict decisions at the bottom
/// of the count order, with frequent ties. This maximizes evictions *while*
/// counts straddle the threshold — the adversarial shape for victim selection,
/// since a wrong victim choice (e.g. displacing a near-threshold aggressor) is
/// immediately visible as extra unmitigated disturbance in the security
/// harness's comparison with the seed tracker.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdStraddlingPattern {
    /// First aggressor row.
    pub base: RowId,
    /// Number of aggressors cycled burst-by-burst.
    pub aggressors: u32,
    /// Consecutive accesses per aggressor burst (size toward
    /// `internal_threshold / aggressors` so counts climb to the threshold over
    /// one rotation without crossing inside a single burst).
    pub burst: u32,
    /// One-shot churn rows injected after each burst.
    pub churn_per_burst: u32,
    /// Number of distinct churn rows before the injection sequence repeats.
    pub churn_universe: u32,
    /// Open time for aggressor accesses (0 = Rowhammer; churn rows always use
    /// minimum-length accesses).
    pub t_on: Cycle,
}

impl ThresholdStraddlingPattern {
    /// Creates a straddling pattern with `aggressors` hot rows from `base` and
    /// `churn_per_burst` eviction-forcing rows injected per burst.
    pub fn new(base: RowId, aggressors: u32, burst: u32, churn_per_burst: u32) -> Self {
        assert!(aggressors > 0 && burst > 0, "need at least one hot access");
        Self {
            base,
            aggressors,
            burst,
            churn_per_burst,
            churn_universe: (churn_per_burst.max(1)) * 64,
            t_on: 0,
        }
    }

    /// The same pattern with a Row-Press open time on the aggressor accesses.
    pub fn with_press(mut self, t_on: Cycle) -> Self {
        self.t_on = t_on;
        self
    }

    /// First row of the churn range (kept clear of the aggressors' victims).
    fn churn_base(&self) -> RowId {
        self.base + self.aggressors * 8 + 16
    }
}

impl AttackPattern for ThresholdStraddlingPattern {
    fn round(&self, i: u64) -> AggressorAccess {
        let period = u64::from(self.burst + self.churn_per_burst);
        let block = i / period;
        let j = i % period;
        if j < u64::from(self.burst) {
            let aggressor = (block % u64::from(self.aggressors)) as u32;
            AggressorAccess {
                // Aggressors spaced so their victim sets stay disjoint.
                row: self.base + aggressor * 8,
                t_on: self.t_on,
            }
        } else {
            let injected = block * u64::from(self.churn_per_burst) + (j - u64::from(self.burst));
            let churn = (injected % u64::from(self.churn_universe.max(1))) as u32;
            AggressorAccess::hammer(self.churn_base() + churn)
        }
    }

    fn name(&self) -> String {
        format!(
            "Straddling({} aggressors from {}, burst {}, {} churn/burst, tON {})",
            self.aggressors, self.base, self.burst, self.churn_per_burst, self.t_on
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timings() -> DramTimings {
        DramTimings::ddr5()
    }

    #[test]
    fn rowhammer_rounds_are_minimum_length() {
        let p = RowhammerPattern::new(5);
        assert_eq!(p.round(0), AggressorAccess::hammer(5));
        assert_eq!(p.accesses(10).len(), 10);
        assert!(p.name().contains("Rowhammer"));
    }

    #[test]
    fn combined_pattern_degenerates_to_rowhammer_at_k0() {
        let t = timings();
        let p = CombinedPattern::new(7, 0, &t);
        assert_eq!(p.round(0).t_on, t.t_ras);
        assert_eq!(p.round_time(&t), t.t_rc);
    }

    #[test]
    fn combined_pattern_round_time_scales_with_k() {
        let t = timings();
        let p = CombinedPattern::new(7, 72, &t);
        assert_eq!(p.round_time(&t), 73 * t.t_rc);
        assert_eq!(p.round(3).t_on, t.t_ras + 72 * t.t_rc);
    }

    #[test]
    fn maximal_rowpress_uses_postponement_limit() {
        let t = timings();
        let p = RowPressPattern::maximal(9, &t);
        assert_eq!(p.t_on, 5 * t.t_refi);
    }

    #[test]
    fn evasion_alternates_aggressor_and_decoy() {
        let t = timings();
        let p = EvasionPattern::new(10, 500, &t);
        assert_eq!(p.round(0).row, 10);
        assert_eq!(p.round(1).row, 500);
        assert_eq!(p.round(0).t_on, t.t_rc + t.t_ras);
        assert!((p.charge_per_round(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "decoy")]
    fn evasion_rejects_same_row() {
        let _ = EvasionPattern::new(10, 10, &timings());
    }

    #[test]
    fn iter_matches_accesses() {
        let p = RowPressPattern::new(3, 1000);
        let via_iter: Vec<_> = p.iter(5).collect();
        assert_eq!(via_iter, p.accesses(5));
        let mut iter = p.iter(3_000);
        assert_eq!(iter.size_hint(), (3_000, Some(3_000)));
        iter.next();
        assert_eq!(iter.size_hint(), (2_999, Some(2_999)));
        assert_eq!(p.iter(3_000).collect::<Vec<_>>().capacity(), 3_000);
    }

    #[test]
    fn rotating_pattern_cycles_distinct_rows() {
        let p = RotatingAggressorPattern::new(100, 5, 8);
        let rows: Vec<RowId> = (0..10).map(|i| p.round(i).row).collect();
        assert_eq!(rows[..5], [100, 108, 116, 124, 132]);
        assert_eq!(rows[5..], rows[..5], "rotation repeats");
        assert_eq!(p.round(0).t_on, 0);
        let pressed = p.with_press(9_999);
        assert_eq!(pressed.round(3).t_on, 9_999);
        assert!(p.name().contains("Rotating"));
    }

    #[test]
    fn straddling_pattern_interleaves_bursts_and_churn() {
        let p = ThresholdStraddlingPattern::new(1_000, 2, 3, 2);
        // Block 0: aggressor 0 (row 1000) x3, then two churn rows.
        for i in 0..3 {
            assert_eq!(p.round(i).row, 1_000);
        }
        let c0 = p.round(3).row;
        let c1 = p.round(4).row;
        assert!(c0 >= p.churn_base() && c1 >= p.churn_base());
        assert_ne!(c0, c1, "churn rows are one-shot within a block");
        // Block 1 bursts the next aggressor, spaced by 8 rows.
        assert_eq!(p.round(5).row, 1_008);
        // Churn rows keep advancing across blocks before wrapping.
        assert_ne!(p.round(8).row, c0);
        assert!(p.name().contains("Straddling"));
    }

    #[test]
    fn straddling_churn_rows_avoid_aggressor_victims() {
        let p = ThresholdStraddlingPattern::new(500, 4, 10, 3);
        let last_aggressor = 500 + 3 * 8;
        assert!(p.churn_base() > last_aggressor + 2, "victim sets disjoint");
    }
}
