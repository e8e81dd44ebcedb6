//! JEDEC timing parameters (Table I of the ImPress paper) and time-unit conversions.

/// A point in time or a duration, measured in DRAM clock cycles.
///
/// The model clocks the DRAM command bus at 2.666 GHz (0.375 ns per cycle), so `tRC`
/// (48 ns) is exactly 128 cycles and the division by `tRC` used by ImPress-P is a right
/// shift by 7 bits, exactly as described in §VI-A of the paper.
pub type Cycle = u64;

/// Number of DRAM clock cycles per 3 nanoseconds (2.666 GHz ⇒ 8 cycles every 3 ns).
const CYCLES_PER_3NS: u64 = 8;

/// Converts a duration in nanoseconds to DRAM clock cycles (rounding up).
///
/// ```
/// use impress_dram::timing::ns_to_cycles;
/// assert_eq!(ns_to_cycles(48), 128);
/// assert_eq!(ns_to_cycles(12), 32);
/// ```
pub const fn ns_to_cycles(ns: u64) -> Cycle {
    (ns * CYCLES_PER_3NS).div_ceil(3)
}

/// Converts a duration in DRAM clock cycles back to nanoseconds (rounding to nearest).
///
/// ```
/// use impress_dram::timing::cycles_to_ns;
/// assert_eq!(cycles_to_ns(128), 48);
/// ```
pub const fn cycles_to_ns(cycles: Cycle) -> u64 {
    (cycles * 3 + CYCLES_PER_3NS / 2) / CYCLES_PER_3NS
}

/// DRAM timing parameters, mirroring Table I of the paper.
///
/// All values are expressed in DRAM clock cycles. The default constructor
/// [`DramTimings::ddr5`] matches the paper's DDR5 configuration; [`DramTimings::ddr4`]
/// is provided because the Row-Press characterization of Luo et al. was performed on
/// DDR4 devices (different `tREFI`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DramTimings {
    /// Time to perform an activation (row open), `tACT` = 12 ns.
    pub t_act: Cycle,
    /// Time to precharge an open row, `tPRE` = 12 ns.
    pub t_pre: Cycle,
    /// Minimum time a row must be kept open, `tRAS` = 36 ns.
    pub t_ras: Cycle,
    /// Minimum time between successive activations to a bank, `tRC` = 48 ns.
    pub t_rc: Cycle,
    /// Four-activation window: at most four ACTs may be issued to a rank per `tFAW`.
    /// The controller approximates this as a minimum spacing of `tFAW/4` between
    /// demand activations on a channel.
    pub t_faw: Cycle,
    /// Refresh window: every row is refreshed once per `tREFW` = 32 ms.
    pub t_refw: Cycle,
    /// Time between successive REF commands, `tREFI` (3900 ns in DDR5, 7800 ns in DDR4).
    pub t_refi: Cycle,
    /// Execution time of a REF command, `tRFC` = 350 ns.
    pub t_rfc: Cycle,
    /// Execution time of an RFM command (the paper assumes half of `tRFC`, 205 ns ≈ tRFC/2 + margin).
    pub t_rfm: Cycle,
    /// Maximum time a row may stay open per the DDR5 specification (9 × tREFI postponed ≈ 19.5 µs).
    pub t_on_max: Cycle,
    /// Column-access latency (CAS latency), used for read/write service time.
    pub t_cas: Cycle,
    /// Data burst duration on the bus for one cache line.
    pub t_burst: Cycle,
    /// Maximum number of REF commands that may be postponed (DDR5 allows 4).
    pub max_postponed_ref: u32,
}

impl DramTimings {
    /// DDR5 timings used throughout the paper's evaluation (Table I).
    ///
    /// ```
    /// use impress_dram::DramTimings;
    /// let t = DramTimings::ddr5();
    /// assert_eq!(t.t_rc, 128);
    /// assert_eq!(t.t_refi, 10_400);
    /// ```
    pub fn ddr5() -> Self {
        Self {
            t_act: ns_to_cycles(12),
            t_pre: ns_to_cycles(12),
            t_ras: ns_to_cycles(36),
            t_rc: ns_to_cycles(48),
            t_faw: ns_to_cycles(32),
            t_refw: ns_to_cycles(32_000_000),
            t_refi: ns_to_cycles(3_900),
            t_rfc: ns_to_cycles(350),
            t_rfm: ns_to_cycles(205),
            t_on_max: ns_to_cycles(19_500),
            t_cas: ns_to_cycles(14),
            t_burst: 8,
            max_postponed_ref: 4,
        }
    }

    /// DDR4 timings (used only to interpret the Row-Press characterization data of
    /// Luo et al., which was collected on DDR4 devices with `tREFI` = 7800 ns).
    pub fn ddr4() -> Self {
        Self {
            t_refi: ns_to_cycles(7_800),
            t_on_max: ns_to_cycles(70_200),
            max_postponed_ref: 8,
            ..Self::ddr5()
        }
    }

    /// Number of `tRC` windows in one refresh interval (`tREFI / tRC`).
    ///
    /// For DDR4 this is ~162 and for 9×tREFI ~1462, the durations used in Figure 7.
    pub fn trc_windows_per_refi(&self) -> u64 {
        self.t_refi / self.t_rc
    }

    /// Maximum number of activations a single bank can receive within one refresh
    /// window, accounting for the time spent executing REF commands.
    ///
    /// This is the activation budget used to size Misra-Gries style trackers
    /// (Graphene, Mithril).
    pub fn act_budget_per_refw(&self) -> u64 {
        let refs_per_refw = self.t_refw / self.t_refi;
        let refresh_cycles = refs_per_refw * self.t_rfc;
        (self.t_refw - refresh_cycles) / self.t_rc
    }
}

impl Default for DramTimings {
    fn default() -> Self {
        Self::ddr5()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        let t = DramTimings::ddr5();
        assert_eq!(cycles_to_ns(t.t_act), 12);
        assert_eq!(cycles_to_ns(t.t_pre), 12);
        assert_eq!(cycles_to_ns(t.t_ras), 36);
        assert_eq!(cycles_to_ns(t.t_rc), 48);
        assert_eq!(cycles_to_ns(t.t_refi), 3900);
        assert_eq!(cycles_to_ns(t.t_rfc), 350);
        assert_eq!(cycles_to_ns(t.t_refw), 32_000_000);
    }

    #[test]
    fn trc_is_128_cycles() {
        // §VI-A: "tRC (48ns) is equal to 128 cycles, thus the division by tRC can be
        // implemented by shifting right by 7 bits."
        assert_eq!(DramTimings::ddr5().t_rc, 128);
        assert_eq!(DramTimings::ddr5().t_rc, 1 << 7);
    }

    #[test]
    fn ras_plus_pre_less_than_rc() {
        let t = DramTimings::ddr5();
        assert!(t.t_ras + t.t_pre <= t.t_rc);
    }

    #[test]
    fn faw_allows_more_than_one_act_per_trc() {
        let t = DramTimings::ddr5();
        assert!(t.t_faw / 4 < t.t_rc);
        assert!(t.t_faw > 0);
    }

    #[test]
    fn ddr4_has_longer_refi() {
        let d4 = DramTimings::ddr4();
        let d5 = DramTimings::ddr5();
        assert_eq!(d4.t_refi, 2 * d5.t_refi);
        // Figure 7: 1 tREFI in DDR4 is ~162 tRC windows.
        assert_eq!(d4.trc_windows_per_refi(), 162);
    }

    #[test]
    fn act_budget_is_roughly_600k() {
        // 32 ms / 48 ns ≈ 666K activations, minus ~7% lost to refresh.
        let budget = DramTimings::ddr5().act_budget_per_refw();
        assert!(budget > 550_000 && budget < 650_000, "budget = {budget}");
    }

    #[test]
    fn ns_cycle_roundtrip() {
        for ns in [12u64, 36, 48, 205, 350, 3900, 19_500] {
            assert_eq!(cycles_to_ns(ns_to_cycles(ns)), ns);
        }
    }
}
