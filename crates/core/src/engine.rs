//! The per-bank mitigation engine: defense + tracker glued together.
//!
//! [`BankMitigationEngine`] is the object the memory controller (or an attack runner)
//! talks to. It owns one [`RowPressDefense`] and one [`RowTracker`] per bank, routes
//! activation and row-closure events through the defense into the tracker, handles RFM
//! and refresh-window callbacks, and counts how many mitigations were requested.

use impress_dram::address::RowId;
use impress_dram::bank::ClosedRow;
use impress_dram::timing::{Cycle, DramTimings};
use impress_trackers::{Eact, MitigationRequest, RowTracker};

use crate::config::ProtectionConfig;
use crate::defense::{RowPressDefense, TrackedActivation};

/// Capacity of the per-bank staging buffer: bounds memory (8 KB per bank) and
/// keeps flushes in cache-friendly chunks.
const STAGE_CAPACITY: usize = 1024;

/// Counters describing the engine's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Activations recorded into the tracker (unit events plus EACT events; a
    /// counted event adds its count).
    pub tracked_events: u64,
    /// Mitigations requested by the tracker outside of RFM (memory-controller trackers).
    pub direct_mitigations: u64,
    /// Mitigations performed under RFM (in-DRAM trackers).
    pub rfm_mitigations: u64,
}

impl EngineStats {
    /// Total mitigations of either kind.
    pub fn total_mitigations(&self) -> u64 {
        self.direct_mitigations + self.rfm_mitigations
    }
}

/// The combined Row-Press defense and Rowhammer tracker for one bank.
pub struct BankMitigationEngine {
    defense: Box<dyn RowPressDefense>,
    tracker: Box<dyn RowTracker>,
    t_refw: Cycle,
    next_refresh_window: Cycle,
    stats: EngineStats,
    /// Reusable scratch for the defense's tracked-activation events, so the
    /// per-activation path performs no allocation in steady state.
    event_buf: Vec<TrackedActivation>,
    /// Whether tracked events are staged and flushed through
    /// [`RowTracker::record_batch`] (observationally identical to per-record;
    /// see [`BankMitigationEngine::enable_record_batching`]).
    batching: bool,
    /// Cached [`RowTracker::mitigates_on_rfm`]: RFM/REF commands only flush
    /// staged events (and dispatch to the tracker) when the tracker acts under
    /// RFM. REF fires every `tREFI`, so skipping it for memory-controller
    /// trackers is what lets staged spans grow beyond a handful of events.
    rfm_active: bool,
    /// Remaining tracker headroom (raw Q7 weight) provably absorbable without
    /// any possibility of a mitigation. Staging an event decrements this by an
    /// upper bound on its quantized weight; when it runs out the staged span is
    /// flushed and the triggering event takes the exact per-record path.
    headroom_left: u64,
    /// Staged events, packed row+weight: one append stream per bank, handed
    /// to [`RowTracker::record_batch`] as it is at flush time.
    staged: Vec<(RowId, Eact)>,
    /// Timestamp of the most recently staged event. A staged span is provably
    /// mitigation-free, so its shared flush timestamp is unobservable and the
    /// last one staged is as good as any; no per-event timestamps are kept.
    last_staged_now: Cycle,
    /// Scratch for the flush's output. Staged spans are provably
    /// mitigation-free, so this stays empty; it exists to satisfy the
    /// `record_batch` signature (and to catch invariant violations in debug).
    staged_out: Vec<MitigationRequest>,
    /// Cached [`RowPressDefense::records_on_activate`]: when `false`, an
    /// activation only advances the refresh window.
    records_on_activate: bool,
}

impl std::fmt::Debug for BankMitigationEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BankMitigationEngine")
            .field("defense", &self.defense.name())
            .field("tracker", &self.tracker.kind())
            .field("stats", &self.stats)
            .finish()
    }
}

impl BankMitigationEngine {
    /// Builds the engine for one bank from a protection configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (e.g. ExPress with an in-DRAM tracker);
    /// call [`ProtectionConfig::validate`] first to handle the error gracefully.
    pub fn new(config: &ProtectionConfig, timings: &DramTimings) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid protection configuration: {msg}");
        }
        Self::from_parts(
            config.build_defense(timings),
            config.build_tracker(timings),
            timings,
        )
    }

    /// Builds an engine from already-constructed parts (used by tests and by
    /// experiments that need non-standard tracker sizing).
    pub fn from_parts(
        defense: Box<dyn RowPressDefense>,
        tracker: Box<dyn RowTracker>,
        timings: &DramTimings,
    ) -> Self {
        let rfm_active = tracker.mitigates_on_rfm();
        let records_on_activate = defense.records_on_activate();
        Self {
            defense,
            tracker,
            rfm_active,
            records_on_activate,
            t_refw: timings.t_refw,
            next_refresh_window: timings.t_refw,
            stats: EngineStats::default(),
            event_buf: Vec::with_capacity(16),
            batching: false,
            headroom_left: 0,
            staged: Vec::new(),
            last_staged_now: 0,
            staged_out: Vec::new(),
        }
    }

    /// The maximum row-open time the memory controller must enforce (ExPress only).
    pub fn max_row_open(&self) -> Option<Cycle> {
        self.defense.max_row_open()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Access to the underlying tracker (for storage queries and test assertions).
    pub fn tracker(&self) -> &dyn RowTracker {
        self.tracker.as_ref()
    }

    /// Turns on staged recording.
    ///
    /// Tracked events whose weight provably cannot trigger a mitigation (per
    /// the tracker's [`RowTracker::headroom`] contract) are staged and flushed
    /// through [`RowTracker::record_batch`] at refresh-window crossings, RFM
    /// commands, headroom exhaustion or capacity. Events that could mitigate
    /// take the exact per-record path, so mitigation emission order, tracker
    /// state and all statistics are identical to per-record operation.
    /// Staging stays on for the engine's lifetime; an engine that should
    /// record per event never enables it.
    pub fn enable_record_batching(&mut self) {
        if !self.batching {
            self.batching = true;
            self.headroom_left = self.tracker.headroom();
            self.staged.reserve(STAGE_CAPACITY);
        }
    }

    /// Flushes any staged tracked events through [`RowTracker::record_batch`].
    ///
    /// Called automatically at every point where deferred state could become
    /// observable (refresh windows, RFM, per-record fallbacks); callers only
    /// need it at end-of-run, before inspecting the tracker or merging stats.
    // Out of line: flushes are rare, and inlining this body into its callers
    // (refresh-window crossings, RFM) pushes those out of the per-event path.
    #[inline(never)]
    pub fn flush_staged(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        // All staged events were admitted under the headroom budget, so the
        // span provably emits no mitigations and the shared `now` is
        // unobservable.
        self.tracker
            .record_batch(&self.staged, self.last_staged_now, &mut self.staged_out);
        debug_assert!(
            self.staged_out.is_empty(),
            "staged span emitted a mitigation despite headroom admission"
        );
        // Defensive (unreachable by the headroom invariant): never lose a
        // mitigation count in release builds.
        self.stats.direct_mitigations += self.staged_out.len() as u64;
        self.staged_out.clear();
        self.staged.clear();
        self.headroom_left = self.tracker.headroom();
    }

    fn advance_refresh_window(&mut self, now: Cycle) {
        if now >= self.next_refresh_window {
            // Staged events predate the window boundary: flush them before the
            // window callback so the tracker sees them in the same window as
            // the per-record path would.
            self.flush_staged();
            while now >= self.next_refresh_window {
                self.tracker.on_refresh_window(self.next_refresh_window);
                self.next_refresh_window += self.t_refw;
            }
            if self.batching {
                self.headroom_left = self.tracker.headroom();
            }
        }
    }

    /// Routes one unit event either into the staging buffers (when it
    /// provably cannot mitigate) or through the exact per-record path.
    /// Counted events go to [`BankMitigationEngine::record_counted`] instead
    /// (branching in the caller keeps this hot path as small as it was).
    #[inline]
    fn record_event(
        &mut self,
        row: RowId,
        eact: Eact,
        now: Cycle,
        out: &mut Vec<MitigationRequest>,
    ) {
        self.stats.tracked_events += 1;
        if self.batching {
            // Upper bound on the weight any tracker's quantization can add:
            // quantized <= max(raw, ONE) for every tracker.
            let w = u64::from(eact.raw().max(Eact::ONE.raw()));
            if w <= self.headroom_left {
                if self.staged.len() == STAGE_CAPACITY {
                    self.flush_staged();
                }
                self.headroom_left -= w;
                self.staged.push((row, eact));
                self.last_staged_now = now;
                return;
            }
            // Headroom exhausted: flush the (mitigation-free) staged span,
            // then let this event take the exact per-record path below.
            self.flush_staged();
        }
        if let Some(m) = self.tracker.record(row, eact, now) {
            self.stats.direct_mitigations += 1;
            out.push(m);
        }
        if self.batching {
            self.headroom_left = self.tracker.headroom();
        }
    }

    /// Records `count` activations of `row` through
    /// [`RowTracker::record_run`], which is exactly `count` per-record calls.
    /// Staged events precede the run in stream order, so they land first.
    fn record_counted(
        &mut self,
        row: RowId,
        eact: Eact,
        count: u32,
        now: Cycle,
        out: &mut Vec<MitigationRequest>,
    ) {
        self.stats.tracked_events += u64::from(count);
        self.flush_staged();
        let before = out.len();
        self.tracker.record_run(row, eact, count, now, out);
        self.stats.direct_mitigations += (out.len() - before) as u64;
        if self.batching {
            self.headroom_left = self.tracker.headroom();
        }
    }

    /// Records the defense's events in `event_buf`, all at `now`.
    #[inline]
    fn record_events(&mut self, now: Cycle, out: &mut Vec<MitigationRequest>) {
        for i in 0..self.event_buf.len() {
            let TrackedActivation { row, eact, count } = self.event_buf[i];
            if count == 1 {
                self.record_event(row, eact, now, out);
            } else {
                self.record_counted(row, eact, count, now, out);
            }
        }
    }

    /// Processes an activation of `row` at `now`, appending any mitigations the tracker
    /// requests immediately to `out`.
    ///
    /// `out` is not cleared: the caller owns the buffer and reuses it across events,
    /// so the steady-state activation path performs no allocation.
    pub fn on_activate_into(&mut self, row: RowId, now: Cycle, out: &mut Vec<MitigationRequest>) {
        // The window advances at every ACT, even for a defense that records
        // nothing there: a REF issued at its due cycle can close a row before
        // its own ACT's cycle, and that close must land after any window
        // reset the ACT crossed.
        self.advance_refresh_window(now);
        if self.records_on_activate {
            self.event_buf.clear();
            self.defense.on_activate(row, now, &mut self.event_buf);
            self.record_events(now, out);
        }
    }

    /// Processes a row closure, appending any mitigations the tracker requests to
    /// `out` (same buffer contract as [`BankMitigationEngine::on_activate_into`]).
    pub fn on_close_into(&mut self, closed: &ClosedRow, out: &mut Vec<MitigationRequest>) {
        self.advance_refresh_window(closed.closed_at);
        self.event_buf.clear();
        self.defense.on_close(closed, &mut self.event_buf);
        self.record_events(closed.closed_at, out);
    }

    /// Processes an activation of `row` at `now`, returning any mitigations the tracker
    /// requests immediately.
    ///
    /// Allocates a `Vec` per call; hot loops should use
    /// [`BankMitigationEngine::on_activate_into`] with a reusable buffer.
    pub fn on_activate(&mut self, row: RowId, now: Cycle) -> Vec<MitigationRequest> {
        let mut mitigations = Vec::new();
        self.on_activate_into(row, now, &mut mitigations);
        mitigations
    }

    /// Processes a row closure, returning any mitigations the tracker requests.
    ///
    /// Allocates a `Vec` per call; hot loops should use
    /// [`BankMitigationEngine::on_close_into`] with a reusable buffer.
    pub fn on_close(&mut self, closed: &ClosedRow) -> Vec<MitigationRequest> {
        let mut mitigations = Vec::new();
        self.on_close_into(closed, &mut mitigations);
        mitigations
    }

    /// Processes an RFM command at `now`, returning the in-DRAM tracker's mitigation
    /// (if it has one pending).
    pub fn on_rfm(&mut self, now: Cycle) -> Option<MitigationRequest> {
        self.advance_refresh_window(now);
        // Memory-controller trackers ignore RFM: their `on_rfm` is the default
        // no-op, so there is nothing to flush for and nothing to dispatch.
        if !self.rfm_active {
            return None;
        }
        // RFM-only trackers (Mithril, MINT) mitigate from state accumulated by
        // `record`; staged events must land before the RFM observes it.
        self.flush_staged();
        let m = self.tracker.on_rfm(now);
        if m.is_some() {
            self.stats.rfm_mitigations += 1;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clm::Alpha;
    use crate::config::{DefenseKind, TrackerChoice};
    use crate::impress_n::ImpressN;
    use crate::impress_p::ImpressP;

    fn timings() -> DramTimings {
        DramTimings::ddr5()
    }

    fn closed(row: RowId, opened_at: Cycle, closed_at: Cycle) -> ClosedRow {
        ClosedRow {
            row,
            open_cycles: closed_at - opened_at,
            opened_at,
            closed_at,
        }
    }

    #[test]
    fn graphene_impress_p_mitigates_long_open_rows() {
        let t = timings();
        let cfg = ProtectionConfig::paper_default(
            TrackerChoice::Graphene,
            DefenseKind::impress_p_default(),
        );
        let mut engine = BankMitigationEngine::new(&cfg, &t);
        // Keep row 5 open for 100 tRC per access: each close records EACT ≈ 100, so
        // Graphene's internal threshold (1333) is crossed after ~14 accesses.
        let mut mitigated = false;
        let mut now = 0;
        for _ in 0..20 {
            engine.on_activate(5, now);
            let c = closed(5, now, now + 100 * t.t_rc);
            if !engine.on_close(&c).is_empty() {
                mitigated = true;
                break;
            }
            now += 101 * t.t_rc;
        }
        assert!(mitigated);
    }

    #[test]
    fn no_rp_engine_ignores_open_time() {
        let t = timings();
        let cfg = ProtectionConfig::paper_default(TrackerChoice::Graphene, DefenseKind::NoRp);
        let mut engine = BankMitigationEngine::new(&cfg, &t);
        let mut now = 0;
        let mut mitigations = 0;
        for _ in 0..100 {
            mitigations += engine.on_activate(5, now).len();
            let c = closed(5, now, now + 100 * t.t_rc);
            mitigations += engine.on_close(&c).len();
            now += 101 * t.t_rc;
        }
        // 100 activations of one row are far below Graphene's internal threshold.
        assert_eq!(mitigations, 0);
    }

    #[test]
    fn in_dram_engine_mitigates_under_rfm_only() {
        let t = timings();
        let cfg = ProtectionConfig::paper_default(
            TrackerChoice::Mithril,
            DefenseKind::ImpressN {
                alpha: Alpha::Conservative,
            },
        );
        let mut engine = BankMitigationEngine::new(&cfg, &t);
        let mut now = 0;
        for _ in 0..200 {
            assert!(engine.on_activate(9, now).is_empty());
            let c = closed(9, now, now + t.t_ras);
            assert!(engine.on_close(&c).is_empty());
            now += t.t_rc;
        }
        let m = engine.on_rfm(now).expect("Mithril mitigates at RFM");
        assert_eq!(m.aggressor, 9);
        assert_eq!(engine.stats().rfm_mitigations, 1);
    }

    #[test]
    #[should_panic(expected = "invalid protection configuration")]
    fn invalid_config_panics() {
        let t = timings();
        let cfg = ProtectionConfig::paper_default(
            TrackerChoice::Mint,
            DefenseKind::express_paper_baseline(&t),
        );
        let _ = BankMitigationEngine::new(&cfg, &t);
    }

    /// ImPress-N as it was before counted events: each full window is its own
    /// unit event, recorded one `record` at a time — the oracle for
    /// [`RowTracker::record_run`] at the engine level.
    #[derive(Debug)]
    struct UnitWindows(ImpressN);

    impl RowPressDefense for UnitWindows {
        fn on_activate(&mut self, row: RowId, now: Cycle, out: &mut Vec<TrackedActivation>) {
            self.0.on_activate(row, now, out);
        }

        fn on_close(&mut self, closed: &ClosedRow, out: &mut Vec<TrackedActivation>) {
            let mut counted = Vec::new();
            self.0.on_close(closed, &mut counted);
            for event in counted {
                let unit = TrackedActivation { count: 1, ..event };
                out.extend((0..event.count).map(|_| unit));
            }
        }

        fn name(&self) -> &'static str {
            "ImPress-N (unit windows)"
        }
    }

    type BuildTracker = fn() -> Box<dyn RowTracker>;

    /// Small trackers (16 entries against the test streams' 24 aggressor
    /// rows, low thresholds), so a short stream evicts, spills and mitigates
    /// throughout.
    fn small_trackers() -> [(&'static str, BuildTracker); 5] {
        use impress_trackers::graphene::GrapheneConfig;
        use impress_trackers::mithril::MithrilConfig;
        use impress_trackers::{Graphene, Mint, Mithril, Para, Prac};

        [
            ("graphene", || {
                Box::new(Graphene::new(GrapheneConfig {
                    threshold: 200,
                    internal_threshold: 40,
                    entries: 16,
                    frac_bits: 0,
                }))
            }),
            ("para", || Box::new(Para::with_probability(200, 0.01, 7))),
            ("mithril", || {
                Box::new(Mithril::new(MithrilConfig {
                    threshold: 200,
                    rfm_threshold: 16,
                    entries: 16,
                    frac_bits: 0,
                }))
            }),
            ("mint", || Box::new(Mint::new(16, 0, 7))),
            ("prac", || Box::new(Prac::for_threshold(200, 0, 1 << 16))),
        ]
    }

    /// Counted window events change nothing an engine reports: one seeded
    /// stream of activations, closures (pure hammers up to the
    /// refresh-postponement cap), RFMs and refresh-window crossings yields the
    /// same mitigations, call by call, and the same [`EngineStats`] as the
    /// unit-window oracle, for every tracker, with record batching on and off.
    /// The trackers are [`small_trackers`].
    #[test]
    fn counted_window_events_match_unit_window_events() {
        let t = timings();
        let cap = (1 + u64::from(t.max_postponed_ref)) * t.t_refi;
        for (name, tracker) in small_trackers() {
            for batching in [false, true] {
                let engine = |defense: Box<dyn RowPressDefense>| {
                    let mut e = BankMitigationEngine::from_parts(defense, tracker(), &t);
                    if batching {
                        e.enable_record_batching();
                    }
                    e
                };
                let mut counted = engine(Box::new(ImpressN::conservative(&t)));
                let mut units = engine(Box::new(UnitWindows(ImpressN::conservative(&t))));
                let label = format!("{name} batching={batching}");

                // xorshift64: a fixed stream without a dev-dependency.
                let mut state = 0x9E37_79B9_7F4A_7C15u64;
                let mut draw = |n: u64| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % n
                };
                let mut now: Cycle = 0;
                let mut mitigations = 0usize;
                for step in 0..3_000 {
                    match draw(100) {
                        0..=84 => {
                            let row = 1_000 + draw(24) as RowId;
                            let t_on = match draw(3) {
                                0 => t.t_ras,
                                1 => t.t_ras + draw(8) * t.t_rc + draw(t.t_rc),
                                _ => t.t_ras + draw(cap - t.t_ras),
                            };
                            let a = counted.on_activate(row, now);
                            assert_eq!(a, units.on_activate(row, now), "{label}: ACT {step}");
                            let closed = closed(row, now, now + t_on);
                            let c = counted.on_close(&closed);
                            assert_eq!(c, units.on_close(&closed), "{label}: close {step}");
                            mitigations += a.len() + c.len();
                            now = closed.closed_at + t.t_pre;
                        }
                        85..=96 => {
                            let m = counted.on_rfm(now);
                            assert_eq!(m, units.on_rfm(now), "{label}: RFM {step}");
                            mitigations += usize::from(m.is_some());
                            now += t.t_rfm;
                        }
                        // Skip ahead across a refresh-window boundary.
                        _ => now += t.t_refw,
                    }
                    assert_eq!(counted.stats(), units.stats(), "{label}: step {step}");
                }
                counted.flush_staged();
                units.flush_staged();
                assert_eq!(counted.stats(), units.stats(), "{label}");
                assert!(mitigations > 0, "{label}: the stream never mitigated");
            }
        }
    }

    /// Staging changes nothing an engine reports or keeps: for every tracker
    /// under No-RP, ImPress-P and ImPress-N, one seeded stream of activations,
    /// closures (open times from tRAS up to the refresh-postponement cap), RFMs
    /// and refresh-window skips yields the same mitigations, call by call, and
    /// the same [`EngineStats`] with staging on as with it off. Every 500 steps
    /// and at the end both engines flush, and their trackers' whole state (the
    /// derived `Debug`: counters, summary order, RNG) must be equal.
    #[test]
    fn staged_engine_matches_per_record_engine() {
        let t = timings();
        let cap = (1 + u64::from(t.max_postponed_ref)) * t.t_refi;
        let defenses = [
            DefenseKind::NoRp,
            DefenseKind::impress_p_default(),
            DefenseKind::ImpressN {
                alpha: Alpha::Conservative,
            },
        ];
        let same_tracker = |a: &BankMitigationEngine, b: &BankMitigationEngine, label: &str| {
            assert_eq!(
                format!("{:?}", a.tracker()),
                format!("{:?}", b.tracker()),
                "{label}: tracker state"
            );
        };
        for (name, tracker) in small_trackers() {
            for defense in &defenses {
                let engine = || BankMitigationEngine::from_parts(defense.build(&t), tracker(), &t);
                let mut per_record = engine();
                let mut staged = engine();
                staged.enable_record_batching();
                let label = format!("{name} {}", defense.label());

                // xorshift64: a fixed stream without a dev-dependency.
                let mut state = 0x2545_F491_4F6C_DD1Du64;
                let mut draw = |n: u64| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % n
                };
                let mut now: Cycle = 0;
                let mut mitigations = 0usize;
                let mut staged_steps = 0usize;
                for step in 0..3_000 {
                    match draw(200) {
                        0..=171 => {
                            // Two in five activations hit one hot row, so it
                            // crosses the thresholds even without Row-Press weight.
                            let row = if draw(5) < 2 {
                                1_000
                            } else {
                                1_000 + draw(24) as RowId
                            };
                            let t_on = match draw(4) {
                                0 | 1 => t.t_ras,
                                2 => t.t_ras + draw(8) * t.t_rc + draw(t.t_rc),
                                _ => t.t_ras + draw(cap - t.t_ras),
                            };
                            let a = staged.on_activate(row, now);
                            assert_eq!(a, per_record.on_activate(row, now), "{label}: ACT {step}");
                            let closed = closed(row, now, now + t_on);
                            let c = staged.on_close(&closed);
                            assert_eq!(c, per_record.on_close(&closed), "{label}: close {step}");
                            mitigations += a.len() + c.len();
                            now = closed.closed_at + t.t_pre;
                        }
                        172..=198 => {
                            let m = staged.on_rfm(now);
                            assert_eq!(m, per_record.on_rfm(now), "{label}: RFM {step}");
                            mitigations += usize::from(m.is_some());
                            now += t.t_rfm;
                        }
                        // Skip ahead across a refresh-window boundary.
                        _ => now += t.t_refw,
                    }
                    assert_eq!(staged.stats(), per_record.stats(), "{label}: step {step}");
                    staged_steps += usize::from(!staged.staged.is_empty());
                    if step % 500 == 499 {
                        staged.flush_staged();
                        per_record.flush_staged();
                        same_tracker(&staged, &per_record, &format!("{label}: step {step}"));
                    }
                }
                staged.flush_staged();
                per_record.flush_staged();
                same_tracker(&staged, &per_record, &label);
                assert_eq!(staged.stats(), per_record.stats(), "{label}");
                // PARA's headroom is 0, so none of its events may stage.
                if name == "para" {
                    assert_eq!(staged_steps, 0, "{label}: PARA staged an event");
                } else {
                    assert!(staged_steps > 0, "{label}: nothing was staged");
                }
                assert!(mitigations > 0, "{label}: the stream never mitigated");
            }
        }
    }

    /// ImPress-P with the default `records_on_activate`, so the engine
    /// dispatches its every ACT: the oracle for skipping them.
    #[derive(Debug)]
    struct DispatchEveryAct(ImpressP);

    impl RowPressDefense for DispatchEveryAct {
        fn on_activate(&mut self, row: RowId, now: Cycle, out: &mut Vec<TrackedActivation>) {
            self.0.on_activate(row, now, out);
        }

        fn on_close(&mut self, closed: &ClosedRow, out: &mut Vec<TrackedActivation>) {
            self.0.on_close(closed, out);
        }

        fn name(&self) -> &'static str {
            "ImPress-P (every ACT)"
        }
    }

    /// Skipping ImPress-P's activations keeps the refresh window advancing at
    /// every ACT. A REF issued at its due cycle can close a row before the
    /// cycle of its own ACT: `Bank::refresh` then reports `closed_at <
    /// opened_at` and no open time. The ACT that crossed the tREFW boundary
    /// has already reset the tracker, so the back-dated close lands in the new
    /// window, as it does when every ACT is dispatched. Were the window
    /// advanced only at the close, the close would land in the old window and
    /// push row 7 to the internal threshold.
    #[test]
    fn back_dated_close_lands_after_the_window_reset_its_act_crossed() {
        use impress_trackers::graphene::GrapheneConfig;
        use impress_trackers::Graphene;

        let t = timings();
        for batching in [false, true] {
            let engine = |defense: Box<dyn RowPressDefense>| {
                let tracker = Graphene::new(GrapheneConfig {
                    threshold: 120,
                    internal_threshold: 40,
                    entries: 16,
                    frac_bits: 7,
                });
                let mut e = BankMitigationEngine::from_parts(defense, Box::new(tracker), &t);
                if batching {
                    e.enable_record_batching();
                }
                e
            };
            let mut skipping = engine(Box::new(ImpressP::paper_default(&t)));
            let mut every_act = engine(Box::new(DispatchEveryAct(ImpressP::paper_default(&t))));
            assert!(!skipping.records_on_activate);
            assert!(every_act.records_on_activate);
            let label = format!("batching={batching}");

            // 39 unit closes of row 7 in the first window, one short of the
            // internal threshold.
            let mut now = 0;
            for _ in 0..39 {
                for e in [&mut skipping, &mut every_act] {
                    assert!(e.on_activate(7, now).is_empty(), "{label}");
                    assert!(
                        e.on_close(&closed(7, now, now + t.t_ras)).is_empty(),
                        "{label}"
                    );
                }
                now += t.t_rc;
            }
            // Row 7's next ACT is past the boundary; the REF due just before
            // the boundary closes it.
            let opened_at = t.t_refw + t.t_rc;
            let back_dated = ClosedRow {
                row: 7,
                open_cycles: 0,
                opened_at,
                closed_at: t.t_refw - 1,
            };
            for e in [&mut skipping, &mut every_act] {
                assert!(e.on_activate(7, opened_at).is_empty(), "{label}");
            }
            let m = skipping.on_close(&back_dated);
            assert_eq!(m, every_act.on_close(&back_dated), "{label}");
            assert!(m.is_empty(), "{label}: the close landed in the old window");
            skipping.flush_staged();
            every_act.flush_staged();
            assert_eq!(
                format!("{:?}", skipping.tracker()),
                format!("{:?}", every_act.tracker()),
                "{label}: tracker state"
            );
            assert_eq!(skipping.stats(), every_act.stats(), "{label}");
        }
    }

    #[test]
    fn refresh_window_resets_counter_trackers() {
        let t = timings();
        let cfg = ProtectionConfig::paper_default(TrackerChoice::Graphene, DefenseKind::NoRp);
        let mut engine = BankMitigationEngine::new(&cfg, &t);
        // 1000 activations, then jump past tREFW: the tracker state resets, so another
        // 1000 activations still do not mitigate (the internal threshold is 1333).
        for i in 0..1000u64 {
            engine.on_activate(3, i * t.t_rc);
        }
        let later = t.t_refw + 1000;
        let mut mitigations = 0;
        for i in 0..1000u64 {
            mitigations += engine.on_activate(3, later + i * t.t_rc).len();
        }
        assert_eq!(mitigations, 0);
    }
}
