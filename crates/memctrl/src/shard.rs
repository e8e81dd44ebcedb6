//! A self-contained, single-channel slice of the memory controller.
//!
//! [`ChannelShard`] packages everything the controller keeps per channel — the banks
//! (each with its own slice of defense/tracker state via the per-bank
//! [`BankMitigationEngine`]), the refresh scheduler, the shared data bus, the
//! tFAW-derived activation spacing state, and per-channel [`ChannelStats`] — behind
//! one `access` entry point. Shards of one controller share no mutable state, which
//! makes the channel the natural unit of concurrency: `impress_sim`'s epoch-phased
//! run loop executes the shards of a multi-channel system on different workers and
//! still produces bit-for-bit the same result as a serial run, because each shard
//! sees exactly the same request sequence either way.
//!
//! [`crate::MemoryController`] is a thin router over a `Vec<ChannelShard>`; all the
//! DRAM state-machine logic lives here.

use impress_core::engine::BankMitigationEngine;
use impress_dram::address::{DramAddress, RowId};
use impress_dram::bank::{Bank, ClosedRow};
use impress_dram::refresh::RefreshScheduler;
use impress_dram::rfm::RfmCounter;
use impress_dram::stats::ChannelStats;
use impress_dram::timing::{Cycle, DramTimings};
use impress_trackers::MitigationRequest;

use crate::config::{ControllerConfig, PagePolicy};
use crate::request::{AccessOutcome, RowBufferOutcome};

/// Per-bank state: the DRAM bank plus its defense engine and RFM counter.
struct BankUnit {
    bank: Bank,
    engine: Option<BankMitigationEngine>,
    rfm: RfmCounter,
    /// Cycle of the last demand access serviced by this bank (for the idle-row timeout).
    last_use: Cycle,
    /// Reusable scratch for tracker mitigation requests, so the activation/closure
    /// hot path performs no allocation in steady state.
    mitigation_buf: Vec<MitigationRequest>,
}

impl std::fmt::Debug for BankUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BankUnit")
            .field("bank", &self.bank.index())
            .field("protected", &self.engine.is_some())
            .finish()
    }
}

impl BankUnit {
    /// Applies a batch of memory-controller mitigations (victim refreshes) starting at
    /// `from`, returning the cycle at which the bank becomes available again.
    fn apply_mc_mitigations(
        &mut self,
        requests: &[MitigationRequest],
        from: Cycle,
        timings: &DramTimings,
    ) -> Cycle {
        let mut t = from;
        for request in requests {
            // Blast radius 2: four victim rows, each refreshed with an ACT+PRE pair.
            let victims = request.victim_count(2, u32::MAX).max(1);
            for _ in 0..victims {
                // Each victim refresh bumps the bank's mitigative-activation counter.
                self.bank.victim_refresh(t, timings);
                t += timings.t_rc;
            }
        }
        t
    }

    /// Routes a row closure through the defense engine and applies any resulting
    /// mitigations immediately (they occupy the bank after the precharge).
    fn handle_closure(&mut self, closed: &ClosedRow, timings: &DramTimings) {
        let Some(engine) = self.engine.as_mut() else {
            return;
        };
        // Move the scratch buffer out so the engine and the bank can be borrowed in
        // sequence; `mem::take` leaves an empty (allocation-free) Vec behind.
        let mut requests = std::mem::take(&mut self.mitigation_buf);
        requests.clear();
        engine.on_close_into(closed, &mut requests);
        if !requests.is_empty() {
            self.apply_mc_mitigations(&requests, closed.closed_at + timings.t_pre, timings);
        }
        self.mitigation_buf = requests;
    }

    /// Gives the in-DRAM tracker its mitigation opportunity (under REF or RFM) and
    /// records the victim refreshes it performs (they are absorbed by the command's
    /// own execution time).
    fn in_dram_mitigation_opportunity(&mut self, now: Cycle) {
        let request = match self.engine.as_mut() {
            Some(engine) => engine.on_rfm(now),
            None => return,
        };
        if let Some(request) = request {
            let victims = request.victim_count(2, u32::MAX).max(1);
            self.bank.stats_mut().mitigative_activations += victims;
        }
    }

    /// Activates `row` at or after `earliest`, issuing any owed RFM first and applying
    /// tracker mitigations (which delay the demand activation). Returns the ACT cycle.
    fn activate(
        &mut self,
        row: RowId,
        earliest: Cycle,
        timings: &DramTimings,
        rfm_enabled: bool,
    ) -> Cycle {
        // Issue an owed RFM first: it blocks the bank for tRFM and gives the in-DRAM
        // tracker its mitigation window.
        if rfm_enabled && self.rfm.rfm_due() {
            let rfm_at = earliest.max(self.bank.busy_until());
            if let Some(closed) = self.bank.refresh_management(rfm_at, timings) {
                self.handle_closure(&closed, timings);
            }
            self.rfm.on_rfm_issued(rfm_at);
            self.in_dram_mitigation_opportunity(rfm_at);
        }

        let act_at = earliest.max(self.bank.next_act_allowed(timings));

        // Tell the defense about the activation; memory-controller trackers may request
        // mitigations, which the controller schedules right after the demand ACT (they
        // occupy the bank and delay *subsequent* accesses, not this one).
        let mut requests = std::mem::take(&mut self.mitigation_buf);
        requests.clear();
        if let Some(engine) = self.engine.as_mut() {
            engine.on_activate_into(row, act_at, &mut requests);
        }

        self.bank
            .activate(row, act_at, timings)
            .expect("activation time respects tRC by construction");

        if !requests.is_empty() {
            self.apply_mc_mitigations(&requests, act_at + timings.t_ras, timings);
        }
        self.mitigation_buf = requests;

        if rfm_enabled {
            self.rfm.on_activation();
        }
        act_at
    }
}

/// One memory channel as an independent unit of concurrency: banks (with their
/// per-bank defense/tracker engines), refresh scheduling, the shared data bus, and
/// per-channel statistics.
///
/// A shard carries a private copy of the timing/policy parameters it needs, so it can
/// be moved to a worker thread without borrowing the controller configuration.
/// Accesses must be presented in the same order a serial controller would see them
/// (non-decreasing `now` per channel); under that contract the shard's evolution is a
/// pure function of its request sequence, independent of what other channels do.
#[derive(Debug)]
pub struct ChannelShard {
    index: u8,
    timings: DramTimings,
    t_mro: Option<Cycle>,
    idle_row_timeout: Option<Cycle>,
    closed_page: bool,
    rfm_enabled: bool,
    banks_per_group: u8,
    bank_groups: u8,
    banks: Vec<BankUnit>,
    refresh: RefreshScheduler,
    /// Cycle until which the channel data bus is busy.
    bus_free: Cycle,
    /// Cycle until which all banks are blocked by an in-flight REF.
    refresh_block_until: Cycle,
    /// Time of the most recent demand ACT on this channel (for the tFAW/4 spacing rule).
    last_demand_act: Cycle,
    stats: ChannelStats,
}

impl ChannelShard {
    /// Builds the shard for channel `index` of a controller configuration, including
    /// its slice of the defense/tracker state (one engine per bank).
    pub fn new(index: u8, config: &ControllerConfig) -> Self {
        let timings = &config.timings;
        let banks_per_channel = config.organization.banks_per_channel();
        let rfm_threshold = config
            .protection
            .as_ref()
            .map(|p| p.effective_rfm_threshold(timings))
            .unwrap_or(80);
        let banks = (0..banks_per_channel)
            .map(|i| BankUnit {
                bank: Bank::new(i),
                engine: config
                    .protection
                    .as_ref()
                    .map(|p| BankMitigationEngine::new(p, timings)),
                rfm: RfmCounter::new(rfm_threshold),
                last_use: 0,
                mitigation_buf: Vec::with_capacity(8),
            })
            .collect();
        Self {
            index,
            timings: timings.clone(),
            t_mro: config.page_policy.t_mro(),
            idle_row_timeout: config.idle_row_timeout,
            closed_page: matches!(config.page_policy, PagePolicy::Closed),
            rfm_enabled: config.rfm_enabled,
            banks_per_group: config.organization.banks_per_group,
            bank_groups: config.organization.bank_groups,
            banks,
            refresh: RefreshScheduler::new(timings),
            bus_free: 0,
            refresh_block_until: 0,
            last_demand_act: 0,
            stats: ChannelStats::default(),
        }
    }

    /// Number of banks in this channel.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// The shard's private copy of the DRAM timing parameters.
    pub fn timings(&self) -> &DramTimings {
        &self.timings
    }

    /// Guaranteed lower bound on the latency of any demand access serviced by a
    /// shard: the data transfer alone takes `tCAS + tBURST` after arrival.
    ///
    /// This per-access bound is the contract the epoch-phased run loop's
    /// dependency-bounded horizons are built on: an access issued at `t` cannot
    /// complete before `t + min_access_latency`, so a core whose MLP window is
    /// full of not-yet-executed issues provably cannot issue again before its
    /// oldest pending issue time plus this latency. (The PR 3 fixed-window loop
    /// used the same bound globally — no completion inside a window of this
    /// length; the adaptive loop needs it per access.) [`ChannelShard::access`]
    /// asserts the bound on every outcome in debug builds.
    pub fn min_access_latency(timings: &DramTimings) -> Cycle {
        (timings.t_cas + timings.t_burst).max(1)
    }

    /// Guaranteed minimum spacing between consecutive demand-access completions
    /// on one channel: the data bus is serialized, so each completion occupies it
    /// for `tBURST` and the next completion cannot land earlier than that.
    ///
    /// Together with [`ChannelShard::min_access_latency`] this gives the
    /// epoch-phased run loop a *conveyor* lower bound: the `k`-th access queued on
    /// a channel whose last known completion is `C` cannot complete before
    /// `C + k * min_completion_spacing`. Under load that bound reaches far beyond
    /// the per-access latency bound (the channel has a backlog of bus slots), and
    /// it is what lets the adaptive horizon keep cores provably exact while they
    /// drain deep MLP windows. Asserted per access in debug builds.
    pub fn min_completion_spacing(timings: &DramTimings) -> Cycle {
        timings.t_burst
    }

    /// Services a demand access to `location` arriving at `now`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `location.channel` does not match this shard.
    pub fn access(&mut self, location: DramAddress, is_write: bool, now: Cycle) -> AccessOutcome {
        debug_assert_eq!(
            location.channel, self.index,
            "request routed to the wrong channel shard"
        );
        let flat_bank = location.flat_bank(self.banks_per_group, self.bank_groups);
        let timings = &self.timings;

        // 1. Periodic refresh: issue any REF commands that have become due, back-dated
        //    to their due times (the channel was free when they became due).
        while let Some(due_at) = self.refresh.take_due(now) {
            let refresh_at = due_at.max(self.refresh_block_until);
            for unit in &mut self.banks {
                if let Some(closed) = unit.bank.refresh(refresh_at, timings) {
                    unit.handle_closure(&closed, timings);
                }
                // In-DRAM trackers mitigate "under REF" (Appendix B) at no extra cost.
                unit.in_dram_mitigation_opportunity(refresh_at);
            }
            self.refresh_block_until = refresh_at + timings.t_rfc;
        }

        let unit = &mut self.banks[flat_bank];
        let earliest = now.max(self.refresh_block_until);

        // 2. Enforce the maximum row-open time (ExPress) and the idle-row timeout: if
        //    the open row has exceeded either, the policy already closed it at the
        //    corresponding deadline.
        if let Some(opened_at) = unit.bank.opened_at() {
            let mut deadline = Cycle::MAX;
            if let Some(t_mro) = self.t_mro {
                deadline = deadline.min(opened_at + t_mro.max(timings.t_ras));
            }
            if let Some(timeout) = self.idle_row_timeout {
                deadline = deadline
                    .min(unit.last_use.max(opened_at).max(opened_at + timings.t_ras) + timeout);
            }
            if deadline != Cycle::MAX && earliest > deadline {
                let closed = unit
                    .bank
                    .precharge(deadline, timings)
                    .expect("policy closure is tRAS-legal by construction");
                unit.handle_closure(&closed, timings);
            }
        }

        // 3. Classify the access and compute its timing.
        let open_row = unit.bank.open_row();
        let (outcome, data_start) = match open_row {
            Some(row) if row == location.row => {
                unit.bank.stats_mut().row_hits += 1;
                (RowBufferOutcome::Hit, earliest)
            }
            Some(_) => {
                // Conflict: precharge the old row (respecting tRAS), then activate.
                let pre_at =
                    earliest.max(unit.bank.earliest_precharge(timings).unwrap_or(earliest));
                let closed = unit
                    .bank
                    .precharge(pre_at, timings)
                    .expect("precharge time respects tRAS");
                unit.handle_closure(&closed, timings);
                unit.bank.stats_mut().row_conflicts += 1;
                // The tFAW/4 spacing rule limits the channel's aggregate ACT rate.
                let act_ready =
                    (pre_at + timings.t_pre).max(self.last_demand_act + timings.t_faw / 4);
                let act_at = unit.activate(location.row, act_ready, timings, self.rfm_enabled);
                self.last_demand_act = act_at;
                (RowBufferOutcome::Conflict, act_at + timings.t_act)
            }
            None => {
                unit.bank.stats_mut().row_misses += 1;
                let act_ready = earliest.max(self.last_demand_act + timings.t_faw / 4);
                let act_at = unit.activate(location.row, act_ready, timings, self.rfm_enabled);
                self.last_demand_act = act_at;
                (RowBufferOutcome::Miss, act_at + timings.t_act)
            }
        };

        unit.bank
            .access(location.row, is_write, data_start)
            .expect("row is open at data_start by construction");

        // 4. Data transfer on the shared channel bus (CAS latency + burst).
        let bus_start = (data_start + timings.t_cas).max(self.bus_free);
        let completed_at = bus_start + timings.t_burst;
        debug_assert!(
            completed_at >= self.bus_free + Self::min_completion_spacing(timings),
            "completion at {completed_at} inside the bus conveyor bound \
             (previous completion {}, spacing {})",
            self.bus_free,
            Self::min_completion_spacing(timings)
        );
        self.bus_free = completed_at;

        // 5. Closed-page policy precharges immediately after the access.
        if self.closed_page {
            let pre_at = completed_at.max(
                unit.bank
                    .earliest_precharge(timings)
                    .unwrap_or(completed_at),
            );
            if let Ok(closed) = unit.bank.precharge(pre_at, timings) {
                unit.handle_closure(&closed, timings);
            }
        }

        unit.last_use = completed_at;
        self.stats.requests += 1;
        self.stats.total_latency += completed_at.saturating_sub(now);
        self.stats.bus_busy_cycles += timings.t_burst;

        debug_assert!(
            completed_at >= now + Self::min_access_latency(timings),
            "access at {now} completed at {completed_at}, inside the published \
             per-access latency lower bound"
        );
        AccessOutcome {
            completed_at,
            outcome,
            location,
        }
    }

    /// Turns on staged tracker recording on every protected bank (see
    /// [`BankMitigationEngine::enable_record_batching`]).
    pub fn enable_record_batching(&mut self) {
        for unit in &mut self.banks {
            if let Some(engine) = unit.engine.as_mut() {
                engine.enable_record_batching();
            }
        }
    }

    /// Flushes staged tracked events on every protected bank. Call before
    /// reading tracker state or merging final statistics; window-boundary and
    /// RFM flushes happen automatically inside the engines.
    pub fn flush_staged_records(&mut self) {
        for unit in &mut self.banks {
            if let Some(engine) = unit.engine.as_mut() {
                engine.flush_staged();
            }
        }
    }

    /// This shard's statistics: the per-channel counters plus the sum of its banks'
    /// counters (ready to be merged across shards with [`ChannelStats::merged`]).
    pub fn stats(&self) -> ChannelStats {
        let mut out = self.stats;
        for unit in &self.banks {
            out.banks += *unit.bank.stats();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_dram::address::PhysicalAddress;

    fn decoded(cfg: &ControllerConfig, line: u64) -> DramAddress {
        cfg.mapping
            .decode(PhysicalAddress::new(line * 64), &cfg.organization)
            .unwrap()
    }

    #[test]
    fn shard_services_accesses_standalone() {
        let cfg = ControllerConfig::small_for_tests();
        let mut shard = ChannelShard::new(0, &cfg);
        let mut now = 0;
        let mut outcomes = Vec::new();
        for line in 0..8u64 {
            let o = shard.access(decoded(&cfg, line), false, now);
            now = o.completed_at;
            outcomes.push(o.outcome);
        }
        assert_eq!(outcomes[0], RowBufferOutcome::Miss);
        assert!(outcomes[1..].iter().all(|o| *o == RowBufferOutcome::Hit));
        let stats = shard.stats();
        assert_eq!(stats.requests, 8);
        assert_eq!(stats.banks.row_hits, 7);
    }

    #[test]
    fn min_access_latency_bounds_every_outcome() {
        let cfg = ControllerConfig::small_for_tests();
        let lat = ChannelShard::min_access_latency(&cfg.timings);
        assert!(lat > 0);
        let mut shard = ChannelShard::new(0, &cfg);
        let mut now = 12_345;
        for line in 0..64u64 {
            let o = shard.access(decoded(&cfg, line * 17 % 512), line % 3 == 0, now);
            assert!(
                o.completed_at >= now + lat,
                "access at {now} completed at {} < now + {lat}",
                o.completed_at
            );
            now = o.completed_at + (line % 5);
        }
    }

    #[test]
    fn shard_matches_whole_controller_on_single_channel_config() {
        // With one channel, a standalone shard must reproduce the controller exactly.
        let cfg = ControllerConfig::small_for_tests();
        let mut shard = ChannelShard::new(0, &cfg);
        let mut mc = crate::MemoryController::new(cfg.clone());
        let mut now = 0;
        for i in 0..2_000u64 {
            let line = (i * 29) % (cfg.organization.capacity_bytes() / 64);
            let a = shard.access(decoded(&cfg, line), i % 7 == 0, now);
            let b = mc.access(decoded(&cfg, line), i % 7 == 0, now);
            assert_eq!(a, b);
            now = a.completed_at + 3;
        }
        assert_eq!(shard.stats(), mc.stats());
    }
}
