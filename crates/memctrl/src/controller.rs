//! The DDR5 memory controller: a thin router over per-channel [`ChannelShard`]s.
//!
//! All DRAM state-machine logic (row-buffer management, refresh, RFM, the per-bank
//! mitigation engines and the cost of mitigative refreshes) lives in
//! [`crate::shard::ChannelShard`]; the controller's job is to decode physical
//! addresses, route each request to the owning shard, and merge the per-shard
//! [`ChannelStats`] into system-wide totals. Keeping the router this thin is what
//! lets the system simulator take the shards apart (`into_parts`) and drive them on
//! separate workers between refresh epochs.

use impress_dram::address::{DramAddress, PhysicalAddress};
use impress_dram::error::DramError;
use impress_dram::stats::ChannelStats;
use impress_dram::timing::Cycle;

use crate::config::ControllerConfig;
use crate::request::AccessOutcome;
use crate::shard::ChannelShard;

/// The memory controller for the whole system: one [`ChannelShard`] per channel.
#[derive(Debug)]
pub struct MemoryController {
    config: ControllerConfig,
    shards: Vec<ChannelShard>,
}

impl MemoryController {
    /// Builds a controller (and its per-bank defense engines) from a configuration.
    pub fn new(config: ControllerConfig) -> Self {
        let shards = (0..config.organization.channels)
            .map(|index| ChannelShard::new(index, &config))
            .collect();
        Self { config, shards }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The per-channel shards, in channel order (read-only: per-channel statistics
    /// and organization inspection). Mutation goes through [`Self::access`] or, for
    /// the epoch-phased loop, [`Self::into_parts`] — handing out `&mut` shards here
    /// would let callers reorder per-channel request streams and silently void the
    /// serial-equivalence guarantee.
    pub fn shards(&self) -> &[ChannelShard] {
        &self.shards
    }

    /// Decomposes the controller into its configuration and shards, the form the
    /// epoch-phased system loop needs to execute channels on separate workers.
    pub fn into_parts(self) -> (ControllerConfig, Vec<ChannelShard>) {
        (self.config, self.shards)
    }

    /// Services a demand access to a physical address arriving at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::AddressOutOfRange`] if the address does not decode under
    /// the configured organization.
    pub fn access_physical(
        &mut self,
        address: PhysicalAddress,
        is_write: bool,
        now: Cycle,
    ) -> Result<AccessOutcome, DramError> {
        let location = self
            .config
            .mapping
            .decode(address, &self.config.organization)?;
        Ok(self.access(location, is_write, now))
    }

    /// Services a demand access to an already-decoded DRAM location arriving at `now`.
    pub fn access(&mut self, location: DramAddress, is_write: bool, now: Cycle) -> AccessOutcome {
        self.shards[location.channel as usize].access(location, is_write, now)
    }

    /// Aggregated statistics across all channels and banks.
    pub fn stats(&self) -> ChannelStats {
        ChannelStats::merged(self.shards.iter().map(ChannelShard::stats))
    }

    /// Total demand activations across the system.
    pub fn demand_activations(&self) -> u64 {
        self.stats().banks.activations
    }

    /// Total mitigative activations (victim refreshes) across the system.
    pub fn mitigative_activations(&self) -> u64 {
        self.stats().banks.mitigative_activations
    }

    /// Total number of banks in the system.
    pub fn total_banks(&self) -> usize {
        self.config.organization.total_banks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PagePolicy;
    use crate::request::RowBufferOutcome;
    use impress_core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
    use impress_dram::timing::DramTimings;

    fn decoded(cfg: &ControllerConfig, line: u64) -> DramAddress {
        cfg.mapping
            .decode(PhysicalAddress::new(line * 64), &cfg.organization)
            .unwrap()
    }

    #[test]
    fn sequential_lines_hit_in_the_row_buffer() {
        let cfg = ControllerConfig::small_for_tests();
        let mut mc = MemoryController::new(cfg.clone());
        // The first line of a MOP chunk misses, the next seven hit.
        let mut outcomes = Vec::new();
        let mut now = 0;
        for line in 0..8u64 {
            let o = mc.access(decoded(&cfg, line), false, now);
            now = o.completed_at;
            outcomes.push(o.outcome);
        }
        assert_eq!(outcomes[0], RowBufferOutcome::Miss);
        assert!(outcomes[1..].iter().all(|o| *o == RowBufferOutcome::Hit));
        let stats = mc.stats();
        assert_eq!(stats.banks.row_hits, 7);
        assert_eq!(stats.banks.row_misses, 1);
    }

    #[test]
    fn hits_are_faster_than_misses_and_conflicts() {
        let cfg = ControllerConfig::small_for_tests();
        let t = DramTimings::ddr5();
        let mut mc = MemoryController::new(cfg.clone());
        let base = 100_000u64;
        let miss = mc.access(decoded(&cfg, 0), false, base);
        let hit = mc.access(decoded(&cfg, 1), false, miss.completed_at + 10);
        // Conflict: another row in the same bank (512 lines away under MOP/small org).
        let conflict_line = 8 * cfg.organization.banks_per_channel() as u64 * 16;
        let conflict = mc.access(decoded(&cfg, conflict_line), false, hit.completed_at + 10);
        assert_eq!(
            conflict.location.flat_bank(
                cfg.organization.banks_per_group,
                cfg.organization.bank_groups
            ),
            miss.location.flat_bank(
                cfg.organization.banks_per_group,
                cfg.organization.bank_groups
            )
        );
        assert_eq!(conflict.outcome, RowBufferOutcome::Conflict);
        let miss_latency = miss.latency(base);
        let hit_latency = hit.latency(miss.completed_at + 10);
        let conflict_latency = conflict.latency(hit.completed_at + 10);
        assert!(
            hit_latency < miss_latency,
            "{hit_latency} !< {miss_latency}"
        );
        assert!(
            miss_latency < conflict_latency,
            "{miss_latency} !< {conflict_latency}"
        );
        assert!(hit_latency >= t.t_cas + t.t_burst);
    }

    #[test]
    fn tmro_converts_hits_into_misses() {
        let t = DramTimings::ddr5();
        let cfg = ControllerConfig::small_for_tests();
        let mut strict = MemoryController::new(
            cfg.clone()
                .with_page_policy(PagePolicy::open_with_tmro(t.t_ras)),
        );
        let mut relaxed = MemoryController::new(cfg.clone());
        // Two accesses to the same row separated by several tRC: with tMRO = tRAS the
        // row has been closed in between; without it the second access hits.
        let gap = 4 * t.t_rc;
        let a1 = strict.access(decoded(&cfg, 0), false, 0);
        let a2 = strict.access(decoded(&cfg, 1), false, a1.completed_at + gap);
        assert_eq!(a2.outcome, RowBufferOutcome::Miss);
        let b1 = relaxed.access(decoded(&cfg, 0), false, 0);
        let b2 = relaxed.access(decoded(&cfg, 1), false, b1.completed_at + gap);
        assert_eq!(b2.outcome, RowBufferOutcome::Hit);
    }

    #[test]
    fn closed_page_never_hits() {
        let cfg = ControllerConfig::small_for_tests().with_page_policy(PagePolicy::Closed);
        let mut mc = MemoryController::new(cfg.clone());
        let mut now = 0;
        for line in 0..8u64 {
            let o = mc.access(decoded(&cfg, line), false, now);
            now = o.completed_at + 10;
            assert_ne!(o.outcome, RowBufferOutcome::Hit);
        }
    }

    #[test]
    fn refresh_closes_rows_and_blocks_the_channel() {
        let t = DramTimings::ddr5();
        let cfg = ControllerConfig::small_for_tests();
        let mut mc = MemoryController::new(cfg.clone());
        let a = mc.access(decoded(&cfg, 0), false, 0);
        assert_eq!(a.outcome, RowBufferOutcome::Miss);
        // Jump past a tREFI: the refresh forces the row closed, so the next access to
        // the same row misses again.
        let b = mc.access(decoded(&cfg, 1), false, t.t_refi + 10);
        assert_eq!(b.outcome, RowBufferOutcome::Miss);
        assert!(mc.stats().banks.refreshes > 0);
    }

    #[test]
    fn para_protection_generates_mitigative_activations() {
        let cfg = ControllerConfig::small_for_tests();
        let protection =
            ProtectionConfig::paper_default(TrackerChoice::Para, DefenseKind::impress_p_default());
        let mut mc = MemoryController::new(cfg.clone().with_protection(protection));
        let mut now = 0;
        let total_lines = cfg.organization.capacity_bytes() / 64;
        for i in 0..20_000u64 {
            let line = (i * 64) % total_lines;
            let o = mc.access(decoded(&cfg, line), false, now);
            now = o.completed_at + 4;
        }
        let stats = mc.stats();
        assert!(stats.banks.mitigative_activations > 0);
        // PARA + ImPress-P mitigates with probability p×EACT per row closure (p = 1/184,
        // EACT of a few tRC for this access pattern), with 4 victim refreshes each.
        let rate = stats.banks.mitigative_activations as f64 / stats.banks.activations as f64;
        assert!(rate > 0.01 && rate < 0.15, "mitigation rate = {rate}");
    }

    #[test]
    fn unprotected_controller_has_no_mitigations() {
        let cfg = ControllerConfig::small_for_tests();
        let mut mc = MemoryController::new(cfg.clone());
        let mut now = 0;
        for i in 0..1_000u64 {
            let o = mc.access(decoded(&cfg, i * 64), false, now);
            now = o.completed_at + 2;
        }
        assert_eq!(mc.mitigative_activations(), 0);
        assert!(mc.demand_activations() > 0);
    }

    #[test]
    fn out_of_range_address_is_reported() {
        let cfg = ControllerConfig::small_for_tests();
        let mut mc = MemoryController::new(cfg.clone());
        let too_big = PhysicalAddress::new(cfg.organization.capacity_bytes() + 64);
        assert!(mc.access_physical(too_big, false, 0).is_err());
    }

    #[test]
    fn rfm_commands_are_issued_every_threshold_activations() {
        let cfg = ControllerConfig::small_for_tests();
        let protection = ProtectionConfig::paper_default(
            TrackerChoice::Mithril,
            DefenseKind::impress_p_default(),
        );
        let mut mc = MemoryController::new(cfg.clone().with_protection(protection));
        let mut now = 0;
        let total_lines = cfg.organization.capacity_bytes() / 64;
        // Alternate between two far-apart rows in the same bank: every access is an
        // activation, so 200 accesses cross the RFMTH = 80 boundary at least twice.
        for i in 0..200u64 {
            let line = ((i % 2) * 4096 + (i / 2) * 8192) % total_lines;
            let o = mc.access(decoded(&cfg, line), false, now);
            now = o.completed_at + 2;
        }
        let stats = mc.stats();
        assert!(
            stats.banks.rfm_commands >= 1,
            "rfm = {}",
            stats.banks.rfm_commands
        );
    }

    #[test]
    fn impress_p_close_events_reach_the_tracker() {
        // Keep one row open for a long time (no competing traffic), then conflict it
        // away: with Graphene + ImPress-P the closure contributes a large EACT, which
        // shows up as a few mitigative activations when repeated.
        let cfg = ControllerConfig::small_for_tests();
        let protection = ProtectionConfig::paper_default(
            TrackerChoice::Graphene,
            DefenseKind::impress_p_default(),
        );
        let t = DramTimings::ddr5();
        let mut mc = MemoryController::new(cfg.clone().with_protection(protection));
        let total_lines = cfg.organization.capacity_bytes() / 64;
        let mut now = 0;
        // Alternate between row A (kept open ~40 tRC) and row B in the same bank.
        for i in 0..2_000u64 {
            let line = if i % 2 == 0 { 0 } else { 8192 % total_lines };
            let o = mc.access(decoded(&cfg, line), false, now);
            now = o.completed_at + 40 * t.t_rc;
        }
        assert!(
            mc.mitigative_activations() > 0,
            "long row-open times should eventually trigger Graphene mitigations"
        );
    }
}
