//! A throughput-oriented core model.
//!
//! Each core alternates between executing instructions (at a fixed retire rate) and
//! waiting for LLC misses. The core may have up to `mlp` misses outstanding — the
//! memory-level parallelism permitted by its reorder buffer — and stalls when the
//! window is full. This is the standard analytical abstraction of an out-of-order core
//! for memory-system studies: absolute IPC is approximate, but the *sensitivity* of
//! performance to memory latency and bandwidth (which is what the paper's figures
//! normalize away) is captured.

use std::collections::VecDeque;

use impress_dram::timing::Cycle;

/// What a core can prove about its next issue time while some of its in-flight
/// misses have unresolved completion times (epoch-phased mode).
///
/// Returned by [`CoreModel::next_issue_bound`]; see that method for the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueBound {
    /// The next issue time is exact: it is provably independent of every unresolved
    /// completion, so a serial scheduler with full knowledge would compute the same
    /// cycle.
    Exact(Cycle),
    /// The next issue time depends on an unresolved completion. It cannot occur
    /// before the carried cycle — the earliest any pending completion can land
    /// (each pending issue carries a completion lower bound) joined with the
    /// front-end readiness.
    NotBefore(Cycle),
}

/// `x.ceil() as Cycle` for every `f64`, including negatives, NaN, ±∞ and values
/// ≥ 2^64. Written without `f64::ceil` because the x86-64 baseline target has no
/// rounding instruction, so `ceil` is an out-of-line libm call on the issue path.
#[inline]
fn ceil_cycle(x: f64) -> Cycle {
    let t = x as Cycle;
    if (t as f64) < x {
        t.saturating_add(1)
    } else {
        t
    }
}

/// The state of one simulated core.
///
/// Every query the system loop makes is constant work: the MLP window is a small
/// array sorted so its oldest completion is last, and the front-end cycle and the
/// minimum pending bound are cached where they change.
#[derive(Debug)]
pub struct CoreModel {
    id: usize,
    /// Cycles of compute between consecutive LLC misses.
    think_gap: f64,
    /// Maximum outstanding misses.
    mlp: usize,
    /// Completion times of outstanding misses whose completions are known, sorted
    /// in descending order: the oldest completion is `last()`, so retiring pops
    /// from the end and insertion shifts at most `mlp` entries.
    outstanding: Vec<Cycle>,
    /// Completion-time lower bounds of misses issued in the current epoch whose
    /// completion times are not yet known (epoch-phased mode): they occupy MLP
    /// window slots but are not in `outstanding`. Front = oldest pending issue
    /// (bounds are resolved in issue order, but are not themselves ordered — the
    /// driver derives each from the target channel's bus conveyor, so a later
    /// issue to an idle channel can carry a smaller bound).
    pending_lbs: VecDeque<Cycle>,
    /// Minimum of `pending_lbs` (`Cycle::MAX` when empty); `None` once a
    /// resolution may have removed it, until the next rescan.
    pending_min: Option<Cycle>,
    /// Cycle at which the core's front-end is ready to issue its next miss.
    front_end_ready: f64,
    /// `front_end_ready` rounded up to a whole cycle.
    front_end_cycle: Cycle,
    /// Number of misses issued so far.
    issued: u64,
    /// Completion time of the latest miss to retire.
    last_completion: Cycle,
}

impl CoreModel {
    /// Creates a core with the given inter-miss compute time and MLP limit.
    ///
    /// # Panics
    ///
    /// Panics if `mlp` is zero or `think_gap` is negative.
    pub fn new(id: usize, think_gap: f64, mlp: usize) -> Self {
        assert!(mlp > 0, "MLP must be at least 1");
        assert!(think_gap >= 0.0, "think gap cannot be negative");
        Self {
            id,
            think_gap,
            mlp,
            outstanding: Vec::with_capacity(mlp),
            pending_lbs: VecDeque::with_capacity(mlp),
            pending_min: Some(Cycle::MAX),
            front_end_ready: 0.0,
            front_end_cycle: 0,
            issued: 0,
            last_completion: 0,
        }
    }

    /// Core identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of misses issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The earliest cycle at which this core can issue its next miss: the front end
    /// must be ready, and if the MLP window is full the oldest outstanding miss must
    /// retire first.
    pub fn next_issue_time(&self) -> Cycle {
        if self.outstanding.len() >= self.mlp {
            let oldest = self.outstanding.last().copied().unwrap_or(0);
            self.front_end_cycle.max(oldest)
        } else {
            self.front_end_cycle
        }
    }

    /// Records that a miss was issued at `now` and will complete at `completes_at`.
    pub fn on_issue(&mut self, now: Cycle, completes_at: Cycle) {
        self.retire_through(now);
        self.insert_outstanding(completes_at);
        self.issued += 1;
        self.last_completion = self.last_completion.max(completes_at);
        self.advance_front_end(now);
    }

    /// The cycle at which this core finishes all the work it has issued.
    pub fn finish_time(&self) -> Cycle {
        self.last_completion.max(self.front_end_cycle)
    }

    /// Retires every outstanding miss that has completed by `now`.
    #[inline]
    fn retire_through(&mut self, now: Cycle) {
        while let Some(&t) = self.outstanding.last() {
            if t > now {
                break;
            }
            self.outstanding.pop();
        }
    }

    /// Inserts a completion into the descending window by shifting the smaller
    /// entries one slot towards the end.
    #[inline]
    fn insert_outstanding(&mut self, completes_at: Cycle) {
        self.outstanding.push(completes_at);
        let window = self.outstanding.as_mut_slice();
        let mut i = window.len() - 1;
        while i > 0 && window[i - 1] < completes_at {
            window[i] = window[i - 1];
            i -= 1;
        }
        window[i] = completes_at;
    }

    /// Moves the front end past an issue at `now`.
    #[inline]
    fn advance_front_end(&mut self, now: Cycle) {
        self.front_end_ready = (now as f64).max(self.front_end_ready) + self.think_gap;
        self.front_end_cycle = ceil_cycle(self.front_end_ready);
    }

    // ---- Epoch-phased (sharded) issue API -------------------------------------
    //
    // The epoch-phased system loop issues misses whose completion times are only
    // computed later (when the channel shards execute). The methods below are the
    // split form of `on_issue`/`next_issue_time` for that mode; driven under the
    // documented contract, the core's observable issue schedule evolves bit-for-bit
    // as if the serial loop had called `on_issue` with the eventual completion times.

    /// Number of issues currently awaiting [`CoreModel::resolve_pending`].
    pub fn pending(&self) -> usize {
        self.pending_lbs.len()
    }

    /// The minimum completion-time lower bound over the pending issues
    /// (`Cycle::MAX` with no pending issues). Cached; after a resolution that
    /// leaves issues pending, reads rescan them until the next pending issue
    /// refreshes the cache.
    #[inline]
    pub fn pending_completion_lower_bound(&self) -> Cycle {
        match self.pending_min {
            Some(min) => min,
            None => self.rescan_pending_min(),
        }
    }

    #[cold]
    fn rescan_pending_min(&self) -> Cycle {
        self.pending_lbs.iter().copied().min().unwrap_or(Cycle::MAX)
    }

    /// Classifies this core's next issue time as provably exact or as bounded from
    /// below by unresolved completions.
    ///
    /// Contract: every pending issue was registered via
    /// [`CoreModel::on_issue_pending`] with a `completion_lb` that its eventual
    /// completion time is guaranteed to meet (the epoch-phased loop uses
    /// `issue_time + min_access_latency`), and pending issues are registered (and
    /// later resolved) in non-decreasing issue-time order. Under that contract:
    ///
    /// * **window not full** (`outstanding + pending < mlp`): the serial window can
    ///   only be emptier (a pending completion the serial loop knows about may
    ///   already have retired), so the serial answer is also `front_end_ready` —
    ///   exact, and never a function of completions.
    /// * **window full, oldest resolved completion ≤ every pending lower bound**:
    ///   the oldest entry of the serial window is that resolved completion (any
    ///   pending completion the serial loop would instead have *retired* is below
    ///   the front end, so the `max` with `front_end_ready` erases the
    ///   difference) — exact.
    /// * **otherwise** the oldest completion may be one of the pending ones:
    ///   unknown, but provably at or after `max(front_end, min pending bound)` —
    ///   the epoch loop uses this cycle to bound its issue horizon.
    #[inline]
    pub fn next_issue_bound(&self) -> IssueBound {
        let front_end = self.front_end_cycle;
        if self.outstanding.len() + self.pending_lbs.len() < self.mlp {
            return IssueBound::Exact(front_end);
        }
        let pending_lb = self.pending_completion_lower_bound();
        match self.outstanding.last() {
            Some(&oldest) if oldest <= pending_lb => IssueBound::Exact(front_end.max(oldest)),
            _ => IssueBound::NotBefore(front_end.max(pending_lb)),
        }
    }

    /// Records that a miss was issued at `now` whose completion time is not yet
    /// known but is guaranteed to be at least `completion_lb`.
    ///
    /// Identical to [`CoreModel::on_issue`] except that the completion is registered
    /// later via [`CoreModel::resolve_pending`]. Retiring completed misses here only
    /// inspects resolved entries, which is exact for the issue schedule: a pending
    /// completion the serial loop would retire at `now` frees a window slot, and
    /// [`CoreModel::next_issue_bound`] already accounts for that asymmetry.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `completion_lb <= now` (an access can never
    /// complete at or before its own issue cycle).
    #[inline]
    pub fn on_issue_pending(&mut self, now: Cycle, completion_lb: Cycle) {
        debug_assert!(
            completion_lb > now,
            "completion lower bound {completion_lb} not after issue time {now}"
        );
        self.retire_through(now);
        self.pending_min = Some(self.pending_completion_lower_bound().min(completion_lb));
        self.pending_lbs.push_back(completion_lb);
        self.issued += 1;
        self.advance_front_end(now);
    }

    /// Resolves the completion time of one pending issue (in issue order).
    ///
    /// # Panics
    ///
    /// Panics if there is no pending issue to resolve; in debug builds, panics if
    /// the completion beats the lower bound it was registered with.
    #[inline]
    pub fn resolve_pending(&mut self, completes_at: Cycle) {
        let lb = self
            .pending_lbs
            .pop_front()
            .expect("resolve_pending without a pending issue");
        debug_assert!(
            completes_at >= lb,
            "completion {completes_at} beats its registered lower bound {lb}"
        );
        // The removed bound may have been the minimum; the system loop resolves
        // every pending issue at each barrier, so the rescan stays off its path.
        self.pending_min = if self.pending_lbs.is_empty() {
            Some(Cycle::MAX)
        } else {
            None
        };
        self.insert_outstanding(completes_at);
        self.last_completion = self.last_completion.max(completes_at);
    }
}

#[cfg(test)]
mod heap_oracle;

#[cfg(test)]
mod tests {
    use super::heap_oracle::HeapCoreModel;
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ceil_cycle_matches_f64_ceil() {
        let two = 2.0f64;
        let subnormal = f64::MIN_POSITIVE / 4.0;
        assert!(subnormal > 0.0 && !subnormal.is_normal());
        for x in [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            two.powi(52) + 0.5,
            two.powi(52) - 0.5,
            two.powi(53),
            two.powi(63),
            two.powi(64),
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            subnormal,
        ] {
            assert_eq!(ceil_cycle(x), x.ceil() as Cycle, "x = {x:e}");
        }
    }

    #[test]
    fn issues_are_spaced_by_think_gap_when_unconstrained() {
        let mut core = CoreModel::new(0, 10.0, 4);
        assert_eq!(core.next_issue_time(), 0);
        core.on_issue(0, 5);
        assert_eq!(core.next_issue_time(), 10);
        core.on_issue(10, 15);
        assert_eq!(core.next_issue_time(), 20);
    }

    #[test]
    fn mlp_limit_stalls_the_core() {
        let mut core = CoreModel::new(0, 1.0, 2);
        core.on_issue(0, 100);
        core.on_issue(1, 200);
        // Window full: the next issue waits for the oldest completion (cycle 100).
        assert_eq!(core.next_issue_time(), 100);
        core.on_issue(100, 300);
        assert_eq!(core.issued(), 3);
    }

    #[test]
    fn finish_time_covers_all_outstanding_work() {
        let mut core = CoreModel::new(0, 2.0, 8);
        core.on_issue(0, 500);
        core.on_issue(2, 90);
        assert_eq!(core.finish_time(), 500);
    }

    #[test]
    fn memory_bound_core_is_limited_by_latency() {
        // With think gap 0 and MLP 1, throughput is entirely latency-bound.
        let mut core = CoreModel::new(0, 0.0, 1);
        let mut now;
        for _ in 0..10 {
            now = core.next_issue_time();
            core.on_issue(now, now + 50);
        }
        assert_eq!(core.finish_time(), 500);
    }

    #[test]
    #[should_panic(expected = "MLP")]
    fn zero_mlp_is_rejected() {
        let _ = CoreModel::new(0, 1.0, 0);
    }

    /// Synthetic memory latency: deterministic, uneven, always >= `min_lat`.
    fn synth_latency(min_lat: Cycle, i: u64) -> Cycle {
        min_lat + (i * 37) % 150
    }

    #[test]
    fn epoch_phased_issue_matches_serial_issue() {
        // One core driven by the serial API and one by the epoch API in fixed
        // windows (each capped at the minimum latency past its first issue)
        // against the same deterministic memory must issue at identical cycles and
        // agree on every observable at every epoch barrier.
        let min_lat = 46;
        for (think_gap, mlp) in [(0.0, 1), (2.5, 12), (41.7, 3), (160.0, 2)] {
            let mut serial = CoreModel::new(0, think_gap, mlp);
            let mut epoch = CoreModel::new(0, think_gap, mlp);
            let total = 500u64;
            let mut serial_times = Vec::new();
            for i in 0..total {
                let t = serial.next_issue_time();
                serial.on_issue(t, t + synth_latency(min_lat, i));
                serial_times.push(t);
            }
            let mut epoch_times = Vec::new();
            let mut i = 0u64;
            while i < total {
                assert_eq!(epoch.pending(), 0);
                let horizon = epoch.next_issue_time() + min_lat;
                let mut batch = Vec::new();
                while i < total {
                    let t = match epoch.next_issue_bound() {
                        IssueBound::Exact(t) if t < horizon => t,
                        _ => break,
                    };
                    epoch.on_issue_pending(t, t + min_lat);
                    batch.push((t, i));
                    epoch_times.push(t);
                    i += 1;
                }
                assert!(!batch.is_empty(), "an epoch must issue at least once");
                for (t, idx) in batch {
                    epoch.resolve_pending(t + synth_latency(min_lat, idx));
                }
                // At every barrier, the epoch core's state agrees with a serial core
                // replayed over the same prefix of issues.
                let mut replay = CoreModel::new(0, think_gap, mlp);
                for (idx, &t) in serial_times.iter().take(i as usize).enumerate() {
                    replay.on_issue(t, t + synth_latency(min_lat, idx as u64));
                }
                assert_eq!(epoch.next_issue_time(), replay.next_issue_time());
                assert_eq!(epoch.finish_time(), replay.finish_time());
            }
            assert_eq!(epoch_times, serial_times, "think_gap={think_gap} mlp={mlp}");
            assert_eq!(epoch.finish_time(), serial.finish_time());
            assert_eq!(epoch.issued(), serial.issued());
        }
    }

    #[test]
    fn next_issue_bound_defers_when_completion_unknown() {
        let mut core = CoreModel::new(0, 1.0, 2);
        core.on_issue_pending(0, 46);
        core.on_issue_pending(1, 47);
        // Window full, both completions unknown: the next issue is not exact,
        // only bounded by the earliest pending completion.
        assert_eq!(core.next_issue_bound(), IssueBound::NotBefore(46));
        core.resolve_pending(100);
        core.resolve_pending(200);
        // Resolved: oldest completion is 100, front end is ready at 2.
        assert_eq!(core.next_issue_time(), 100);
        assert_eq!(core.next_issue_bound(), IssueBound::Exact(100));
    }

    // ---- Pending-lower-bound contract ----------------------------------------

    #[test]
    fn bound_is_exact_while_the_window_has_room() {
        let mut core = CoreModel::new(0, 5.0, 3);
        assert_eq!(core.next_issue_bound(), IssueBound::Exact(0));
        core.on_issue_pending(0, 46);
        core.on_issue_pending(5, 51);
        // Two pending, window of three: still front-end-limited and exact.
        assert_eq!(core.next_issue_bound(), IssueBound::Exact(10));
        assert_eq!(core.pending_completion_lower_bound(), 46);
    }

    #[test]
    fn window_full_of_pending_defers_to_the_oldest_bound() {
        let mut core = CoreModel::new(0, 1.0, 2);
        core.on_issue_pending(0, 46);
        core.on_issue_pending(1, 47);
        // The next issue needs a completion, and the earliest any pending
        // completion can land is the oldest issue's bound.
        assert_eq!(core.next_issue_bound(), IssueBound::NotBefore(46));
        // A huge think gap dominates the pending bound.
        let mut slow = CoreModel::new(0, 1_000.0, 2);
        slow.on_issue_pending(0, 46);
        slow.on_issue_pending(1_000, 1_046);
        assert_eq!(slow.next_issue_bound(), IssueBound::NotBefore(2_000));
    }

    #[test]
    fn resolved_oldest_below_pending_bound_stays_exact() {
        // Window full with a mix of resolved and pending completions: exact as long
        // as the oldest resolved completion is at or below every pending bound.
        let mut core = CoreModel::new(0, 0.0, 2);
        core.on_issue_pending(0, 46);
        core.resolve_pending(60);
        core.on_issue_pending(0, 46);
        // outstanding = {60}, pending bound = 46: 60 > 46, so the oldest completion
        // might be the pending one — deferred.
        assert_eq!(core.next_issue_bound(), IssueBound::NotBefore(46));
        core.resolve_pending(50);
        // outstanding = {50, 60}: fully resolved, exact again.
        assert_eq!(core.next_issue_bound(), IssueBound::Exact(50));
        core.on_issue_pending(50, 96);
        // outstanding = {60} (50 retired at issue), pending bound = 96: 60 <= 96,
        // the oldest completion is provably the resolved one.
        assert_eq!(core.next_issue_bound(), IssueBound::Exact(60));
    }

    #[test]
    fn pending_bound_is_the_minimum_over_heterogeneous_bounds() {
        // A later issue to an idle channel can carry a *smaller* conveyor bound
        // than an earlier issue to a backlogged channel; the deferral bound must
        // be the minimum, not the oldest.
        let mut core = CoreModel::new(0, 0.0, 2);
        core.on_issue_pending(0, 500);
        core.on_issue_pending(3, 49);
        assert_eq!(core.pending_completion_lower_bound(), 49);
        assert_eq!(core.next_issue_bound(), IssueBound::NotBefore(49));
        // Resolution order stays issue order even though the bounds are unordered.
        core.resolve_pending(600);
        assert_eq!(core.pending_completion_lower_bound(), 49);
        core.resolve_pending(50);
        assert_eq!(core.next_issue_bound(), IssueBound::Exact(50));
    }

    #[test]
    fn resolutions_are_matched_to_bounds_in_issue_order() {
        let mut core = CoreModel::new(0, 0.0, 4);
        core.on_issue_pending(0, 46);
        core.on_issue_pending(10, 56);
        assert_eq!(core.pending(), 2);
        assert_eq!(core.pending_completion_lower_bound(), 46);
        core.resolve_pending(46);
        // The remaining pending issue carries the later bound.
        assert_eq!(core.pending(), 1);
        assert_eq!(core.pending_completion_lower_bound(), 56);
        core.resolve_pending(90);
        assert_eq!(core.pending(), 0);
        assert_eq!(core.pending_completion_lower_bound(), Cycle::MAX);
        assert_eq!(core.finish_time(), 90);
    }

    #[test]
    #[should_panic(expected = "without a pending issue")]
    fn resolve_without_pending_panics() {
        let mut core = CoreModel::new(0, 1.0, 2);
        core.resolve_pending(10);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "beats its registered lower bound")]
    fn completion_below_its_bound_is_rejected() {
        let mut core = CoreModel::new(0, 1.0, 2);
        core.on_issue_pending(0, 46);
        core.resolve_pending(45);
    }

    proptest! {
        /// The adaptive issue loop — issue while `next_issue_bound` is exact and
        /// below every deferred core's bound, resolve at the barrier — reproduces
        /// the serial issue schedule bit-for-bit, for any think gap, MLP and
        /// (deterministic, bound-respecting) latency profile. This is the
        /// single-core heart of the whole-system property pinned in
        /// `tests/sharded_determinism.rs`.
        #[test]
        fn adaptive_issue_loop_matches_serial(
            think_tenths in 0u64..2_000,
            mlp in 1usize..16,
            min_lat in 8u64..120,
            spread in 0u64..300,
        ) {
            let think_gap = think_tenths as f64 / 10.0;
            let latency = |i: u64| min_lat + if spread == 0 { 0 } else { (i * 131) % spread };
            let total = 400u64;

            let mut serial = CoreModel::new(0, think_gap, mlp);
            let mut serial_times = Vec::new();
            for i in 0..total {
                let t = serial.next_issue_time();
                serial.on_issue(t, t + latency(i));
                serial_times.push(t);
            }

            let mut core = CoreModel::new(0, think_gap, mlp);
            let mut times = Vec::new();
            let mut i = 0u64;
            while i < total {
                let mut batch = Vec::new();
                // Adaptive window: keep issuing while the next issue is provably
                // exact. (With one core there is no cross-core horizon to respect.)
                while i < total {
                    let IssueBound::Exact(t) = core.next_issue_bound() else {
                        break;
                    };
                    core.on_issue_pending(t, t + min_lat);
                    batch.push((t, i));
                    times.push(t);
                    i += 1;
                }
                prop_assert!(!batch.is_empty(), "an epoch must always issue");
                for (t, idx) in batch {
                    core.resolve_pending(t + latency(idx));
                }
            }
            prop_assert_eq!(&times, &serial_times);
            prop_assert_eq!(core.finish_time(), serial.finish_time());
            prop_assert_eq!(core.pending(), 0);
        }

        /// The sorted window and the cached front-end cycle and pending minimum
        /// answer every query exactly as the heap-window model did, over random
        /// sequences of issues, pending issues and in-order resolutions. Resolves
        /// interleaved with issues leave the pending minimum stale, a path the
        /// system loop (which resolves everything at each barrier) never takes.
        #[test]
        fn matches_the_heap_window_model(
            seed in 0u64..u64::MAX,
            mlp in 1usize..=16,
            think_gap in 0.0f64..200.0,
            resolve_weight in 1u32..8,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut core = CoreModel::new(0, think_gap, mlp);
            let mut oracle = HeapCoreModel::new(think_gap, mlp);
            // Completion lower bounds of the pending issues, in issue order.
            let mut bounds = std::collections::VecDeque::new();
            let mut clock: Cycle = 0;
            for step in 0..300 {
                let op = rng.gen_range(0..8u32);
                if op < resolve_weight && !bounds.is_empty() {
                    let lb: Cycle = bounds.pop_front().unwrap();
                    let completes_at = lb + rng.gen_range(0..200u64);
                    core.resolve_pending(completes_at);
                    oracle.resolve_pending(completes_at);
                } else {
                    // Issue at the core's own next issue time or at a later cycle.
                    if rng.gen_bool(0.5) {
                        clock = clock.max(oracle.next_issue_time());
                    } else {
                        clock += rng.gen_range(0..60u64);
                    }
                    let latency = 1 + rng.gen_range(0..250u64);
                    if rng.gen_bool(0.75) {
                        core.on_issue_pending(clock, clock + latency);
                        oracle.on_issue_pending(clock, clock + latency);
                        bounds.push_back(clock + latency);
                    } else {
                        core.on_issue(clock, clock + latency);
                        oracle.on_issue(clock, clock + latency);
                    }
                }
                let observed = (
                    core.next_issue_time(),
                    core.next_issue_bound(),
                    core.pending_completion_lower_bound(),
                    core.finish_time(),
                    core.issued(),
                    core.pending(),
                );
                let expected = (
                    oracle.next_issue_time(),
                    oracle.next_issue_bound(),
                    oracle.pending_completion_lower_bound(),
                    oracle.finish_time(),
                    oracle.issued(),
                    oracle.pending(),
                );
                prop_assert!(observed == expected, "step {step}: {observed:?} != {expected:?}");
            }
        }
    }
}
