//! The [`RowTracker`] trait shared by all Rowhammer tracking mechanisms.

use std::fmt;

use impress_dram::address::RowId;
use impress_dram::timing::Cycle;

use crate::eact::Eact;
use crate::storage::StorageEstimate;

/// Identifies which tracking mechanism a [`RowTracker`] implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrackerKind {
    /// Graphene: Misra-Gries counters at the memory controller.
    Graphene,
    /// PARA: per-activation probabilistic sampling at the memory controller.
    Para,
    /// Mithril: in-DRAM counter summary mitigating under RFM.
    Mithril,
    /// MINT: in-DRAM single-entry probabilistic slot selection mitigating under RFM.
    Mint,
    /// PRAC: per-row activation counters stored in the DRAM array (§VI-F extension).
    Prac,
}

impl TrackerKind {
    /// Returns `true` for trackers that perform their mitigation inside the DRAM
    /// device under RFM (and therefore cannot see controller-side information such
    /// as a tMRO limit).
    pub fn is_in_dram(self) -> bool {
        matches!(
            self,
            TrackerKind::Mithril | TrackerKind::Mint | TrackerKind::Prac
        )
    }
}

impl fmt::Display for TrackerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrackerKind::Graphene => "Graphene",
            TrackerKind::Para => "PARA",
            TrackerKind::Mithril => "Mithril",
            TrackerKind::Mint => "MINT",
            TrackerKind::Prac => "PRAC",
        };
        f.write_str(s)
    }
}

/// A request from the tracker to mitigate an aggressor row by refreshing its victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MitigationRequest {
    /// The aggressor row whose neighbours must be refreshed.
    pub aggressor: RowId,
    /// Cycle at which the tracker identified the aggressor.
    pub identified_at: Cycle,
}

impl MitigationRequest {
    /// Victim rows to refresh for this aggressor, given a blast radius (the paper
    /// uses 2, i.e. four victim rows per mitigation).
    ///
    /// Victims beyond the edge of the bank (underflow/overflow) are skipped.
    ///
    /// Allocates a fresh `Vec` per call; hot paths should use
    /// [`MitigationRequest::victims_into`] (reusable buffer) or
    /// [`MitigationRequest::victim_count`] (count only) instead.
    pub fn victims(&self, blast_radius: u32, rows_per_bank: u32) -> Vec<RowId> {
        let mut rows = Vec::with_capacity(2 * blast_radius as usize);
        self.victims_into(blast_radius, rows_per_bank, &mut rows);
        rows
    }

    /// Appends the victim rows to `out` instead of allocating (the caller clears and
    /// reuses the buffer across mitigations).
    pub fn victims_into(&self, blast_radius: u32, rows_per_bank: u32, out: &mut Vec<RowId>) {
        for d in 1..=blast_radius {
            out.extend(neighbours(self.aggressor, d, rows_per_bank));
        }
    }

    /// Number of victim rows [`MitigationRequest::victims`] would return, without
    /// materializing them — what the controller needs to charge mitigation time.
    pub fn victim_count(&self, blast_radius: u32, rows_per_bank: u32) -> u64 {
        (1..=blast_radius)
            .map(|d| neighbours(self.aggressor, d, rows_per_bank).count() as u64)
            .sum()
    }
}

/// The rows at distance `d` below and above `row` that lie inside
/// `[0, rows_per_bank)`, below first. Both sides are computed with checked
/// arithmetic, so an aggressor at either end of the `u32` range has no
/// wrapped-around neighbour.
pub fn neighbours(row: RowId, d: u32, rows_per_bank: u32) -> impl Iterator<Item = RowId> {
    [row.checked_sub(d), row.checked_add(d)]
        .into_iter()
        .flatten()
        .filter(move |&v| v < rows_per_bank)
}

/// A Rowhammer tracking mechanism for one DRAM bank.
///
/// The tracker receives one [`Eact`]-weighted record per activation (or per row
/// closure under ImPress-P) and decides when to mitigate. Memory-controller trackers
/// (Graphene, PARA) return mitigation requests directly from [`RowTracker::record`];
/// in-DRAM trackers (Mithril, MINT) return them from [`RowTracker::on_rfm`], which the
/// controller calls every `RFMTH` activations.
///
/// `Send` is a supertrait because trackers live inside per-bank engines owned by
/// `ChannelShard`s, which the epoch-phased system loop executes on worker threads.
pub trait RowTracker: fmt::Debug + Send {
    /// Records that `row` accrued `eact` equivalent activations at cycle `now`.
    ///
    /// Returns a mitigation request if the tracker decides the row must be mitigated
    /// immediately (memory-controller trackers only).
    fn record(&mut self, row: RowId, eact: Eact, now: Cycle) -> Option<MitigationRequest>;

    /// Records a span of `(row, eact)` events in stream order, all at `now`,
    /// appending any mitigation requests to `out`.
    ///
    /// This is the per-record loop, and no tracker overrides it. It exists for
    /// callers holding a `dyn RowTracker`, such as the engine flushing a staged
    /// span: they make one virtual call per span, and the loop's `record`
    /// calls are statically dispatched.
    fn record_batch(
        &mut self,
        events: &[(RowId, Eact)],
        now: Cycle,
        out: &mut Vec<MitigationRequest>,
    ) {
        for &(row, eact) in events {
            if let Some(m) = self.record(row, eact, now) {
                out.push(m);
            }
        }
    }

    /// Records `count` activations of `row`, each weighing `eact`, all at `now`,
    /// appending any mitigation requests to `out` — a *counted event*, which is how
    /// ImPress-N reports the full `tRC` windows a row stayed open.
    ///
    /// The contract is *exact equivalence to `count` calls of
    /// [`RowTracker::record`]*: the same mitigation sequence appended to `out`,
    /// the same tracker state afterwards (counters, spillover, and the order of
    /// slots inside `CountSummary` buckets, which breaks eviction ties) and the
    /// same RNG stream. `count == 0` records nothing.
    ///
    /// The default is that loop. Trackers override it to cost O(1) in `count`
    /// where their update rule allows: closed-form threshold crossings
    /// (Graphene, PRAC) or one weighted add (Mithril, MINT). PARA must draw once
    /// per activation, so its override is still a loop, but one that scales the
    /// probability once and draws inline instead of making an out-of-line
    /// `record` call per activation. Graphene and Mithril first replay the
    /// claim attempts of a row missing from a full table one event at a time,
    /// as `record` would.
    fn record_run(
        &mut self,
        row: RowId,
        eact: Eact,
        count: u32,
        now: Cycle,
        out: &mut Vec<MitigationRequest>,
    ) {
        for _ in 0..count {
            if let Some(m) = self.record(row, eact, now) {
                out.push(m);
            }
        }
    }

    /// A lower bound on the total raw [`Eact`] weight (Q7 fixed point, any row
    /// mix) this tracker can absorb through [`RowTracker::record`] with *zero*
    /// possibility of returning a mitigation request.
    ///
    /// Batch stagers use this to defer records: as long as the accumulated
    /// staged weight stays within the headroom reported when staging began, the
    /// deferred span is provably mitigation-free and can be flushed later
    /// through [`RowTracker::record_batch`] without perturbing mitigation
    /// emission order. Trackers whose `record` never mitigates directly
    /// (in-DRAM trackers that only act under RFM) return `u64::MAX`; trackers
    /// that consume randomness per record (PARA) must return 0 so every event
    /// takes the per-record path. The default is the conservative 0.
    fn headroom(&self) -> u64 {
        0
    }

    /// Called when an RFM command is executed; in-DRAM trackers mitigate here.
    ///
    /// The default implementation returns `None` (memory-controller trackers ignore RFM).
    fn on_rfm(&mut self, now: Cycle) -> Option<MitigationRequest> {
        let _ = now;
        None
    }

    /// Whether [`RowTracker::on_rfm`] observes tracker state (in-DRAM trackers
    /// that mitigate under RFM).
    ///
    /// Batch stagers flush staged records before every RFM only when this is
    /// `true`; memory-controller trackers whose `on_rfm` is the default no-op
    /// keep their staged spans across RFM/REF commands, which is what lets
    /// staging amortize (REF fires every `tREFI`, far more often than refresh
    /// windows). Any tracker overriding [`RowTracker::on_rfm`] must override
    /// this to return `true`. The default matches the default `on_rfm`.
    fn mitigates_on_rfm(&self) -> bool {
        false
    }

    /// Called at the end of every refresh window (`tREFW`); trackers that reset
    /// periodically (Graphene) clear their state here.
    fn on_refresh_window(&mut self, now: Cycle) {
        let _ = now;
    }

    /// The tracking mechanism implemented by this tracker.
    fn kind(&self) -> TrackerKind;

    /// Per-bank storage required by this tracker configuration.
    fn storage(&self) -> StorageEstimate;

    /// The Rowhammer threshold this tracker instance was configured to tolerate.
    fn configured_threshold(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_cover_blast_radius() {
        let m = MitigationRequest {
            aggressor: 100,
            identified_at: 0,
        };
        let mut v = m.victims(2, 1 << 16);
        v.sort_unstable();
        assert_eq!(v, vec![98, 99, 101, 102]);
    }

    #[test]
    fn victims_clip_at_bank_edges() {
        let low = MitigationRequest {
            aggressor: 0,
            identified_at: 0,
        };
        assert_eq!(low.victims(2, 1 << 16), vec![1, 2]);
        let high = MitigationRequest {
            aggressor: (1 << 16) - 1,
            identified_at: 0,
        };
        let v = high.victims(2, 1 << 16);
        assert_eq!(v, vec![(1 << 16) - 2, (1 << 16) - 3]);
    }

    #[test]
    fn victims_skip_neighbours_outside_the_bank_without_wrapping() {
        // An aggressor at the top of the u32 range must not wrap its upper
        // neighbours to rows 0 and 1, and rows past the bank have no victims.
        let top = MitigationRequest {
            aggressor: u32::MAX,
            identified_at: 0,
        };
        assert!(top.victims(2, 1 << 16).is_empty());
        assert_eq!(top.victim_count(2, 1 << 16), 0);
        // With the whole u32 range as the bank only the rows below remain.
        assert_eq!(top.victims(2, u32::MAX), vec![u32::MAX - 1, u32::MAX - 2]);
        assert_eq!(top.victim_count(2, u32::MAX), 2);
        let near_top = MitigationRequest {
            aggressor: u32::MAX - 1,
            identified_at: 0,
        };
        assert_eq!(
            near_top.victims(2, u32::MAX),
            vec![u32::MAX - 2, u32::MAX - 3]
        );
    }

    #[test]
    fn in_dram_classification() {
        assert!(!TrackerKind::Graphene.is_in_dram());
        assert!(!TrackerKind::Para.is_in_dram());
        assert!(TrackerKind::Mithril.is_in_dram());
        assert!(TrackerKind::Mint.is_in_dram());
        assert!(TrackerKind::Prac.is_in_dram());
    }

    #[test]
    fn kind_display() {
        assert_eq!(TrackerKind::Para.to_string(), "PARA");
        assert_eq!(TrackerKind::Mint.to_string(), "MINT");
    }
}
