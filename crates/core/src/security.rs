//! Security evaluation: how much charge can an attacker leak before mitigation?
//!
//! The harness replays an attack pattern (a sequence of aggressor accesses, each with a
//! chosen row-open time) against one bank protected by a [`BankMitigationEngine`],
//! using the Unified Charge-Loss Model as ground truth for the damage each access does
//! to the aggressor's neighbouring victim rows. Victim charge is reset whenever the
//! defense refreshes the victim (mitigation) or the periodic refresh of the victim row
//! comes around (once per `tREFW`).
//!
//! The headline quantity is the **maximum unmitigated charge** any victim accumulates:
//! if it reaches the device's Rowhammer threshold, the attack flips a bit. This lets
//! the reproduction demonstrate, with the same machinery:
//!
//! * No-RP trackers are broken by Row-Press (charge ≫ what the activation count suggests).
//! * ImPress-N bounds the damage but loses a factor (1 + α) on the tolerated threshold
//!   (Equation 5, via the Figure 10 evasion pattern).
//! * ImPress-P keeps the tolerated threshold at TRH.

use impress_dram::address::RowId;
use impress_dram::bank::ClosedRow;
use impress_dram::rfm::RfmCounter;
use impress_dram::timing::{Cycle, DramTimings};
use impress_trackers::tracker::neighbours;
use impress_trackers::{MitigationRequest, RowTracker};

use crate::clm::ChargeLossModel;
use crate::config::ProtectionConfig;
use crate::engine::BankMitigationEngine;

/// One aggressor access in an attack pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggressorAccess {
    /// The row the attacker activates.
    pub row: RowId,
    /// How long the attacker keeps it open, in cycles (clamped to at least `tRAS`).
    pub t_on: Cycle,
}

impl AggressorAccess {
    /// A minimum-length (pure Rowhammer) access to `row`.
    pub fn hammer(row: RowId) -> Self {
        Self { row, t_on: 0 }
    }

    /// A Row-Press access holding `row` open for `t_on` cycles.
    pub fn press(row: RowId, t_on: Cycle) -> Self {
        Self { row, t_on }
    }
}

/// Result of replaying an attack against a protected bank.
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityReport {
    /// Maximum charge (in RH units) any single victim row accumulated without being
    /// refreshed.
    pub max_unmitigated_charge: f64,
    /// The victim row that accumulated the maximum charge.
    pub worst_victim: Option<RowId>,
    /// Total aggressor accesses replayed.
    pub accesses: u64,
    /// Mitigations performed by the defense during the attack.
    pub mitigations: u64,
    /// Total attack duration in cycles.
    pub duration: Cycle,
    /// Whether the attack would flip a bit on a device with the given threshold.
    pub configured_threshold: u64,
}

impl SecurityReport {
    /// Whether the attack reached the configured Rowhammer threshold on some victim.
    pub fn bit_flipped(&self) -> bool {
        self.max_unmitigated_charge >= self.configured_threshold as f64
    }

    /// The largest device threshold this attack would defeat (`floor(max charge)`).
    pub fn defeated_threshold(&self) -> u64 {
        self.max_unmitigated_charge.floor() as u64
    }
}

/// Rows per [`VictimLedger`] page: one 4 KiB page of `f64` charges.
const PAGE_ROWS: usize = 512;

/// Unmitigated charge per victim row, indexed by row without hashing.
///
/// Charges live in 4 KiB pages allocated when a row in them is first damaged,
/// under a page directory that grows only as far as the highest page touched.
/// Building a ledger allocates nothing, so its cost does not grow with the
/// bank's row count; an attack pays one page per 512-row region it damages.
#[derive(Debug)]
struct VictimLedger {
    rows_per_bank: u32,
    blast_radius: u32,
    pages: Vec<Option<Box<[f64; PAGE_ROWS]>>>,
    max_charge: f64,
    worst_victim: Option<RowId>,
}

impl VictimLedger {
    fn new(rows_per_bank: u32, blast_radius: u32) -> Self {
        Self {
            rows_per_bank,
            blast_radius,
            pages: Vec::new(),
            max_charge: 0.0,
            worst_victim: None,
        }
    }

    fn split(row: RowId) -> (usize, usize) {
        let row = row as usize;
        (row / PAGE_ROWS, row % PAGE_ROWS)
    }

    fn charge(&self, row: RowId) -> f64 {
        let (page, offset) = Self::split(row);
        match self.pages.get(page) {
            Some(Some(charges)) => charges[offset],
            _ => 0.0,
        }
    }

    /// Resets the victims of a mitigated `aggressor`.
    fn refresh(&mut self, aggressor: RowId) {
        for d in 1..=self.blast_radius {
            for victim in neighbours(aggressor, d, self.rows_per_bank) {
                let (page, offset) = Self::split(victim);
                if let Some(Some(charges)) = self.pages.get_mut(page) {
                    charges[offset] = 0.0;
                }
            }
        }
    }

    /// Charges the rows adjacent to `aggressor` with `charge`.
    fn damage(&mut self, aggressor: RowId, charge: f64) {
        // Immediately adjacent rows take the full damage; this matches the paper's
        // threshold definition (TRH counts activations of the adjacent aggressor).
        for victim in neighbours(aggressor, 1, self.rows_per_bank) {
            let (page, offset) = Self::split(victim);
            if page >= self.pages.len() {
                self.pages.resize_with(page + 1, || None);
            }
            let charges = self.pages[page].get_or_insert_with(|| Box::new([0.0; PAGE_ROWS]));
            let c = &mut charges[offset];
            *c += charge;
            if *c > self.max_charge {
                self.max_charge = *c;
                self.worst_victim = Some(victim);
            }
        }
    }
}

/// The security harness for a single protected bank.
#[derive(Debug)]
pub struct SecurityHarness {
    engine: BankMitigationEngine,
    clm: ChargeLossModel,
    timings: DramTimings,
    rfm: RfmCounter,
    threshold: u64,
    victims: VictimLedger,
    /// Reused for every activation's and closure's mitigations.
    requests: Vec<MitigationRequest>,
    mitigations: u64,
    accesses: u64,
    now: Cycle,
    next_refresh: Cycle,
    rfm_enabled: bool,
}

impl SecurityHarness {
    /// Creates a harness for the given protection configuration, using the CLM with
    /// `alpha` as the ground-truth damage model (the paper's security arguments use
    /// α = 1 as the worst case; measured devices are closer to 0.35–0.48).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`ProtectionConfig::validate`]).
    pub fn new(config: &ProtectionConfig, alpha: f64, timings: &DramTimings) -> Self {
        Self::with_tracker(config, config.build_tracker(timings), alpha, timings)
    }

    /// [`SecurityHarness::new`] with `tracker` in place of the one `config`
    /// builds: the same defense, RFM cadence, threshold and victim rows. The
    /// equivalence suites replay attacks through a transcription of the seed
    /// tracker this way and compare its disturbance with the shipping
    /// tracker's.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`ProtectionConfig::validate`]).
    pub fn with_tracker(
        config: &ProtectionConfig,
        tracker: Box<dyn RowTracker>,
        alpha: f64,
        timings: &DramTimings,
    ) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid protection configuration: {msg}");
        }
        let engine =
            BankMitigationEngine::from_parts(config.build_defense(timings), tracker, timings);
        let rfm_enabled = config.tracker.is_in_dram();
        Self {
            engine,
            clm: ChargeLossModel::new(alpha, timings),
            timings: timings.clone(),
            rfm: RfmCounter::new(config.effective_rfm_threshold(timings)),
            threshold: config.rowhammer_threshold,
            victims: VictimLedger::new(config.rows_per_bank, 2),
            requests: Vec::new(),
            mitigations: 0,
            accesses: 0,
            now: 0,
            next_refresh: timings.t_refi,
            rfm_enabled,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Charge currently accumulated by `row` (0 if never damaged or already refreshed).
    pub fn victim_charge(&self, row: RowId) -> f64 {
        self.victims.charge(row)
    }

    /// Applies the mitigations in `self.requests`, each charging the attacker
    /// `cost` cycles.
    // Runs twice per replayed access, nearly always over no requests.
    #[inline]
    fn apply_mitigations(&mut self, cost: Cycle) {
        for m in &self.requests {
            self.mitigations += 1;
            self.victims.refresh(m.aggressor);
            self.now += cost;
        }
    }

    /// The open time the harness actually replays for a requested `t_on`: bounded
    /// below by tRAS, above by the refresh-postponement limit of the DDR
    /// specification, and (under ExPress) by the enforced tMRO. Pure and
    /// state-independent, so whole patterns can be clamped ahead of replay.
    fn clamped_t_on(&self, t_on: Cycle) -> Cycle {
        let t_on = t_on.clamp(
            self.timings.t_ras,
            (1 + self.timings.max_postponed_ref as u64) * self.timings.t_refi,
        );
        match self.engine.max_row_open() {
            Some(t_mro) => t_on.min(t_mro),
            None => t_on,
        }
    }

    /// Replays a single aggressor access, advancing time and applying any mitigations.
    pub fn apply(&mut self, access: AggressorAccess) {
        let t_on = self.clamped_t_on(access.t_on);
        self.apply_clamped(access.row, t_on, self.clm.charge_loss(t_on));
    }

    /// Replays one access whose open time is already clamped and whose CLM damage
    /// is already evaluated (the batched [`SecurityHarness::run`] path computes
    /// both for whole chunks at once via
    /// [`ChargeLossModel::charge_loss_batch`]).
    fn apply_clamped(&mut self, row: RowId, t_on: Cycle, charge: f64) {
        self.accesses += 1;

        // Periodic refresh: executes (and costs tRFC) whenever its deadline passes.
        // Refresh rotates through the victim rows only once per tREFW, so victims are
        // NOT reset here; but in-DRAM trackers get their mitigation opportunity, since
        // their mitigations are "performed under REF" (Appendix B).
        while self.now >= self.next_refresh {
            self.now += self.timings.t_rfc;
            self.next_refresh += self.timings.t_refi;
            if self.rfm_enabled {
                if let Some(m) = self.engine.on_rfm(self.now) {
                    self.mitigations += 1;
                    self.victims.refresh(m.aggressor);
                }
            }
        }

        // A mitigation costs the attacker 4 victim activations worth of time.
        let mitigation_cost = 4 * self.timings.t_rc;
        let opened_at = self.now;
        self.requests.clear();
        self.engine
            .on_activate_into(row, opened_at, &mut self.requests);
        self.apply_mitigations(mitigation_cost);

        let closed_at = opened_at + t_on;
        let closed = ClosedRow {
            row,
            open_cycles: t_on,
            opened_at,
            closed_at,
        };
        // Ground-truth damage of this access (pre-evaluated, possibly in batch).
        self.victims.damage(row, charge);
        self.now = closed_at + self.timings.t_pre;

        self.requests.clear();
        self.engine.on_close_into(&closed, &mut self.requests);
        self.apply_mitigations(mitigation_cost);

        // RFM cadence for in-DRAM trackers.
        if self.rfm_enabled && self.rfm.on_activation() {
            self.rfm.on_rfm_issued(self.now);
            self.now += self.timings.t_rfm;
            if let Some(m) = self.engine.on_rfm(self.now) {
                self.mitigations += 1;
                self.victims.refresh(m.aggressor);
            }
        }
    }

    /// Replays a whole pattern (repeated until `duration` cycles have elapsed or the
    /// pattern iterator ends) and reports the outcome.
    ///
    /// The pattern is consumed in chunks: each chunk's open times are clamped and
    /// fed through the vectorized [`ChargeLossModel::charge_loss_batch`] kernel
    /// before the event-by-event replay, which only has to interleave the
    /// precomputed damages with the mitigation machinery. Clamping is
    /// state-independent and the batch kernel is bitwise-identical to the scalar
    /// one, so the outcome is exactly that of calling
    /// [`SecurityHarness::apply`] per access.
    pub fn run<I>(&mut self, pattern: I, duration: Cycle) -> SecurityReport
    where
        I: IntoIterator<Item = AggressorAccess>,
    {
        /// Accesses evaluated per batch kernel call.
        const CHUNK: usize = 128;
        let mut rows = [0 as RowId; CHUNK];
        let mut open = [0 as Cycle; CHUNK];
        let mut charge = [0.0f64; CHUNK];
        let mut pattern = pattern.into_iter();
        'outer: loop {
            let mut filled = 0;
            while filled < CHUNK {
                let Some(access) = pattern.next() else {
                    break;
                };
                rows[filled] = access.row;
                open[filled] = self.clamped_t_on(access.t_on);
                filled += 1;
            }
            if filled == 0 {
                break;
            }
            self.clm
                .charge_loss_batch(&open[..filled], &mut charge[..filled]);
            for i in 0..filled {
                if self.now >= duration {
                    break 'outer;
                }
                self.apply_clamped(rows[i], open[i], charge[i]);
            }
            if filled < CHUNK {
                break;
            }
        }
        self.report()
    }

    /// The report for everything replayed so far.
    pub fn report(&self) -> SecurityReport {
        SecurityReport {
            max_unmitigated_charge: self.victims.max_charge,
            worst_victim: self.victims.worst_victim,
            accesses: self.accesses,
            mitigations: self.mitigations,
            duration: self.now,
            configured_threshold: self.threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clm::Alpha;
    use crate::config::{DefenseKind, TrackerChoice};

    fn timings() -> DramTimings {
        DramTimings::ddr5()
    }

    fn harness(tracker: TrackerChoice, defense: DefenseKind, alpha: f64) -> SecurityHarness {
        let cfg = ProtectionConfig::paper_default(tracker, defense);
        SecurityHarness::new(&cfg, alpha, &timings())
    }

    #[test]
    fn rowhammer_against_graphene_no_rp_is_contained() {
        let mut h = harness(TrackerChoice::Graphene, DefenseKind::NoRp, 1.0);
        let pattern = (0..20_000).map(|_| AggressorAccess::hammer(500));
        let report = h.run(pattern, u64::MAX);
        assert!(
            !report.bit_flipped(),
            "max charge = {}",
            report.max_unmitigated_charge
        );
        assert!(report.mitigations > 0);
    }

    #[test]
    fn rowpress_breaks_graphene_without_rp_mitigation() {
        // §II-D: Row-Press causes bit flips with far fewer than TRH activations when the
        // tracker ignores the open time.
        let t = timings();
        let mut h = harness(TrackerChoice::Graphene, DefenseKind::NoRp, 0.48);
        let t_on = t.t_refi; // one tREFI of open time per access
        let pattern = (0..150).map(move |_| AggressorAccess::press(500, t_on));
        let report = h.run(pattern, u64::MAX);
        assert!(
            report.bit_flipped(),
            "Row-Press should defeat the No-RP tracker (charge = {})",
            report.max_unmitigated_charge
        );
        // ... and it needs far fewer accesses than the threshold.
        assert!(report.accesses < 4_000 / 10);
    }

    #[test]
    fn impress_p_contains_the_same_rowpress_attack() {
        let t = timings();
        let mut h = harness(
            TrackerChoice::Graphene,
            DefenseKind::impress_p_default(),
            0.48,
        );
        let t_on = t.t_refi;
        let pattern = (0..20_000).map(move |_| AggressorAccess::press(500, t_on));
        let report = h.run(pattern, u64::MAX);
        assert!(
            !report.bit_flipped(),
            "ImPress-P must contain Row-Press (charge = {})",
            report.max_unmitigated_charge
        );
    }

    #[test]
    fn impress_n_contains_rowpress_with_retargeted_tracker() {
        let t = timings();
        let mut h = harness(
            TrackerChoice::Graphene,
            DefenseKind::ImpressN {
                alpha: Alpha::Conservative,
            },
            1.0,
        );
        let t_on = t.t_refi;
        let pattern = (0..20_000).map(move |_| AggressorAccess::press(500, t_on));
        let report = h.run(pattern, u64::MAX);
        assert!(
            !report.bit_flipped(),
            "ImPress-N with alpha=1 must contain long Row-Press (charge = {})",
            report.max_unmitigated_charge
        );
    }

    #[test]
    fn mint_impress_p_contains_rowpress() {
        let t = timings();
        let cfg = ProtectionConfig {
            rowhammer_threshold: 1_600,
            ..ProtectionConfig::paper_default(TrackerChoice::Mint, DefenseKind::impress_p_default())
        };
        let mut h = SecurityHarness::new(&cfg, 1.0, &t);
        let t_on = 4 * t.t_refi;
        let pattern = (0..50_000).map(move |_| AggressorAccess::press(321, t_on));
        let report = h.run(pattern, u64::MAX);
        assert!(
            !report.bit_flipped(),
            "MINT + ImPress-P must contain Row-Press (charge = {})",
            report.max_unmitigated_charge
        );
    }

    #[test]
    fn batched_run_is_bitwise_identical_to_per_access_apply() {
        // The chunked/vectorized run path must reproduce the scalar event loop
        // exactly, including across chunk boundaries and under ExPress clamping.
        let t = timings();
        for (tracker, defense, count) in [
            (
                TrackerChoice::Graphene,
                DefenseKind::impress_p_default(),
                300,
            ),
            (TrackerChoice::Para, DefenseKind::NoRp, 500),
            (
                TrackerChoice::Graphene,
                DefenseKind::express_paper_baseline(&t),
                129,
            ),
            // Counted window events: presses up to the refresh-postponement cap.
            (
                TrackerChoice::Graphene,
                DefenseKind::ImpressN {
                    alpha: Alpha::Conservative,
                },
                400,
            ),
        ] {
            let long = matches!(defense, DefenseKind::ImpressN { .. });
            let pattern: Vec<AggressorAccess> = (0..count)
                .map(|i| {
                    if i % 3 == 0 {
                        AggressorAccess::hammer(400 + (i % 5))
                    } else if long {
                        AggressorAccess::press(400 + (i % 5), (i as u64 * 7_919) % (6 * t.t_refi))
                    } else {
                        AggressorAccess::press(400 + (i % 5), t.t_ras + (i as u64 * 977) % 40_000)
                    }
                })
                .collect();
            let mut batched = harness(tracker, defense, 0.48);
            let batched_report = batched.run(pattern.iter().copied(), u64::MAX);
            let mut scalar = harness(tracker, defense, 0.48);
            for &a in &pattern {
                scalar.apply(a);
            }
            let scalar_report = scalar.report();
            assert_eq!(
                batched_report.max_unmitigated_charge.to_bits(),
                scalar_report.max_unmitigated_charge.to_bits(),
                "{tracker:?}"
            );
            assert_eq!(batched_report, scalar_report, "{tracker:?}");
        }
    }

    #[test]
    fn with_tracker_replays_like_new_with_the_built_tracker() {
        let cfg = ProtectionConfig::paper_default(
            TrackerChoice::Graphene,
            DefenseKind::impress_p_default(),
        );
        let t = timings();
        let mut built = SecurityHarness::new(&cfg, 1.0, &t);
        let mut given = SecurityHarness::with_tracker(&cfg, cfg.build_tracker(&t), 1.0, &t);
        let pattern: Vec<AggressorAccess> =
            (0..5_000).map(|_| AggressorAccess::hammer(500)).collect();
        let a = built.run(pattern.iter().copied(), u64::MAX);
        let b = given.run(pattern.iter().copied(), u64::MAX);
        assert_eq!(a, b);
        assert!(a.mitigations > 0);
    }

    /// Victims are the in-bank neighbours of an aggressor, found without
    /// wrapping: an aggressor at `u32::MAX` damages nothing (its upper
    /// neighbour must not wrap around to row 0), and one on the bank's last
    /// row damages only the row below.
    #[test]
    fn aggressors_at_the_row_range_edges_charge_only_in_bank_victims() {
        let mut h = harness(TrackerChoice::Para, DefenseKind::NoRp, 1.0);
        let report = h.run((0..10).map(|_| AggressorAccess::hammer(u32::MAX)), u64::MAX);
        assert_eq!(report.accesses, 10);
        assert_eq!(report.worst_victim, None);
        assert_eq!(report.max_unmitigated_charge, 0.0);
        assert_eq!(h.victim_charge(0), 0.0);

        let last = (1 << 16) - 1;
        let mut h = harness(TrackerChoice::Para, DefenseKind::NoRp, 1.0);
        let report = h.run((0..10).map(|_| AggressorAccess::hammer(last)), u64::MAX);
        assert_eq!(report.worst_victim, Some(last - 1));
        assert_eq!(h.victim_charge(last + 1), 0.0);
        assert_eq!(h.victim_charge(0), 0.0);
    }

    #[test]
    fn report_exposes_accounting() {
        let mut h = harness(TrackerChoice::Para, DefenseKind::NoRp, 1.0);
        let report = h.run((0..100).map(|_| AggressorAccess::hammer(10)), u64::MAX);
        assert_eq!(report.accesses, 100);
        assert!(report.duration > 0);
        assert_eq!(report.configured_threshold, 4_000);
        assert!(report.defeated_threshold() <= 100);
    }
}
