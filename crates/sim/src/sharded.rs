//! The epoch-phased shard driver behind [`crate::System::run_with_threads`].
//!
//! A run is a sequence of *epochs*, each with three phases:
//!
//! 1. **Issue** — replay the serial scheduler exactly: repeatedly pick the
//!    lowest-numbered core with the minimal provably-exact next issue time (a
//!    scan of a flat per-core ready array, ties to the lowest core id — see
//!    [`crate::CoreModel::next_issue_bound`]), draw its next access from the
//!    workload mix, decode the address and append it to the owning channel's queue.
//!    The global issue order is recorded.
//! 2. **Execute** — run every channel shard over its queue. Channels share no state,
//!    and each shard sees its requests in the same order and at the same cycles as a
//!    serial controller would, so this phase parallelizes freely across the
//!    `impress-exec` epoch pool ([`impress_exec::epoch_scope`], honoring
//!    `IMPRESS_THREADS` via [`crate::System::run_sharded`]) — with results that are
//!    bit-for-bit identical at *any* worker count, including the inline 1-thread
//!    path.
//! 3. **Merge** — walk the recorded issue order and feed each completion time back to
//!    its core ([`crate::CoreModel::resolve_pending`]). After the merge every
//!    completion is resolved, which re-establishes the issue-phase invariant for the
//!    next epoch.
//!
//! An epoch's issue window is bounded by the *dependency structure* of the
//! cores: they keep issuing while their next issue time is provably independent
//! of every unresolved completion. Front-end-limited cores extend the window
//! freely; a core whose MLP window fills up with pending issues contributes a
//! horizon bound at `max(front_end, oldest_pending_issue + L)` — the earliest
//! cycle any of its pending completions can land, backed by the per-access
//! latency lower bound [`ChannelShard::min_access_latency`] asserts. Issuing
//! stops once every ready core's next exact issue time reaches the minimum of
//! those bounds. Streams and high-MLP mixes batch tens of issues per barrier.
//!
//! The loop replays the serial scheduler's issue order and
//! completion-visibility decisions exactly, so it is bit-for-bit identical to
//! the pre-shard serial `System::run` at any `IMPRESS_THREADS` —
//! `tests/sharded_determinism.rs` pins it against a literal transcription of
//! that loop, and `crates/sim/src/core_model.rs` pins the per-core exactness
//! argument.

use std::sync::Mutex;

use impress_dram::address::DramAddress;
use impress_dram::timing::Cycle;
use impress_memctrl::ChannelShard;

/// Issue-batching statistics of one epoch-phased run.
///
/// These describe the *scheduling* of the run (how much work each fork-join round
/// amortized), not its simulated outcome, which is the same at any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Fork-join rounds (epochs) the run needed.
    pub epochs: u64,
    /// Demand accesses issued (equals the run's total request count).
    pub issues: u64,
    /// Sum over epochs of the issue-window span in cycles
    /// (`last_issue - first_issue + 1`).
    pub window_cycles: u64,
}

impl EpochStats {
    /// Mean demand accesses issued per epoch barrier.
    pub fn mean_issues_per_epoch(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.issues as f64 / self.epochs as f64
        }
    }

    /// Mean issue-window span per epoch, in simulated cycles.
    pub fn mean_window_cycles(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.window_cycles as f64 / self.epochs as f64
        }
    }
}

/// One demand access routed to a channel queue during the issue phase.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedAccess {
    pub location: DramAddress,
    pub is_write: bool,
    /// Cycle at which the access reaches the controller (its exact issue time).
    pub at: Cycle,
}

/// A channel shard plus its epoch queue and completion buffer.
///
/// The buffers are swapped with driver-owned vectors around each epoch, so the
/// steady-state loop performs no allocation.
#[derive(Debug)]
pub(crate) struct ShardTask {
    pub shard: ChannelShard,
    pub queue: Vec<QueuedAccess>,
    pub completions: Vec<Cycle>,
    /// The per-access latency lower bound; only used to check the invariant the
    /// issue horizon relies on.
    min_latency: Cycle,
}

impl ShardTask {
    pub fn new(shard: ChannelShard, min_latency: Cycle) -> Self {
        Self {
            shard,
            queue: Vec::new(),
            completions: Vec::new(),
            min_latency,
        }
    }

    /// Executes the queued accesses in order, recording each completion time.
    pub fn execute(&mut self) {
        let Self {
            shard,
            queue,
            completions,
            min_latency,
        } = self;
        completions.clear();
        for q in queue.iter() {
            let outcome = shard.access(q.location, q.is_write, q.at);
            // The per-access lower bound every pending-completion deferral is
            // built on (`ChannelShard::access` asserts the same bound at the
            // source): an access can never complete within `min_latency` of its
            // issue. An issue window may well be longer than `min_latency` —
            // completions of early accesses can land *inside* the window — but
            // any core whose next issue could observe such a completion was
            // deferred at issue time, so the bound below is exactly what
            // correctness needs.
            debug_assert!(
                outcome.completed_at >= q.at + *min_latency,
                "access completed within the minimum access latency: issued {} \
                 completed {} (lower bound {})",
                q.at,
                outcome.completed_at,
                min_latency
            );
            completions.push(outcome.completed_at);
        }
    }
}

/// The shard tasks of one run, each behind a `Mutex` so the epoch pool's workers can
/// claim them dynamically. A task is locked by exactly one thread at a time (the
/// claim index hands each task to one worker per epoch; the driver only touches
/// tasks between epochs), so the locks are always uncontended — they exist to make
/// the sharing safe, not to arbitrate.
pub(crate) type ShardTasks = Vec<Mutex<ShardTask>>;

pub(crate) fn make_tasks(shards: Vec<ChannelShard>, min_latency: Cycle) -> ShardTasks {
    shards
        .into_iter()
        .map(|shard| Mutex::new(ShardTask::new(shard, min_latency)))
        .collect()
}

/// Locks a task; the lock is uncontended by construction (see [`ShardTasks`]).
///
/// Poison is cleared rather than propagated: a contained shard-worker panic
/// (daemon quarantine) poisons the task's mutex, but the driver still needs the
/// shard for subsequent windows and final statistics.
pub(crate) fn lock_task(tasks: &ShardTasks, index: usize) -> std::sync::MutexGuard<'_, ShardTask> {
    tasks[index].lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_stats_means() {
        let s = EpochStats {
            epochs: 4,
            issues: 100,
            window_cycles: 400,
        };
        assert_eq!(s.mean_issues_per_epoch(), 25.0);
        assert_eq!(s.mean_window_cycles(), 100.0);
        assert_eq!(EpochStats::default().mean_issues_per_epoch(), 0.0);
        assert_eq!(EpochStats::default().mean_window_cycles(), 0.0);
    }
}
