//! Periodic-refresh scheduling with DDR5 refresh postponement.
//!
//! DRAM must refresh all rows every `tREFW`; to amortize the cost, the controller sends
//! one REF command per `tREFI`. DDR5 allows up to 4 REF commands to be postponed, which
//! is what makes long Row-Press patterns (up to 5 × tREFI of row-open time) possible.

use crate::timing::{Cycle, DramTimings};

/// Tracks when periodic REF commands are due for one rank/channel and how many have
/// been postponed.
#[derive(Debug, Clone)]
pub struct RefreshScheduler {
    t_refi: Cycle,
    max_postponed: u32,
    /// Cycle at which the next REF becomes due.
    next_due: Cycle,
    /// Number of REF commands currently owed (postponed).
    owed: u32,
    /// Total REF commands issued.
    issued: u64,
}

impl RefreshScheduler {
    /// Creates a scheduler with the refresh cadence from `timings`, starting at cycle 0.
    pub fn new(timings: &DramTimings) -> Self {
        Self {
            t_refi: timings.t_refi,
            max_postponed: timings.max_postponed_ref,
            next_due: timings.t_refi,
            owed: 0,
            issued: 0,
        }
    }

    /// Advances internal bookkeeping to `now`, converting elapsed `tREFI` intervals
    /// into owed REF commands. Call this before querying [`Self::due`] / [`Self::urgent`].
    pub fn tick(&mut self, now: Cycle) {
        while now >= self.next_due {
            self.owed += 1;
            self.next_due += self.t_refi;
        }
    }

    /// Returns `true` if at least one REF command is owed.
    pub fn due(&self) -> bool {
        self.owed > 0
    }

    /// Returns `true` if the postponement limit has been reached and a REF command
    /// must be issued before any other command.
    pub fn urgent(&self) -> bool {
        self.owed > self.max_postponed
    }

    /// Number of currently owed (postponed) REF commands.
    pub fn owed(&self) -> u32 {
        self.owed
    }

    /// Records that a REF command was issued at `now`.
    pub fn on_refresh_issued(&mut self, _now: Cycle) {
        self.owed = self.owed.saturating_sub(1);
        self.issued += 1;
    }

    /// Consumes the oldest owed REF command (advancing bookkeeping to `now` first) and
    /// returns the cycle at which it became due, or `None` if no REF is owed.
    ///
    /// Lazy controllers use this to back-date refreshes that became due while no
    /// requests were in flight, instead of piling them all up at the current cycle.
    pub fn take_due(&mut self, now: Cycle) -> Option<Cycle> {
        self.tick(now);
        if self.owed == 0 {
            return None;
        }
        let oldest_due = self.next_due - Cycle::from(self.owed) * self.t_refi;
        self.owed -= 1;
        self.issued += 1;
        Some(oldest_due)
    }

    /// Total number of REF commands issued so far.
    pub fn refreshes_issued(&self) -> u64 {
        self.issued
    }

    /// Longest row-open time (in cycles) an attacker can achieve before a refresh
    /// forcibly closes the row, given the postponement limit: `(1 + max_postponed) × tREFI`.
    pub fn max_attacker_open_time(&self) -> Cycle {
        (1 + self.max_postponed as u64) * self.t_refi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refresh_becomes_due_every_trefi() {
        let t = DramTimings::ddr5();
        let mut sched = RefreshScheduler::new(&t);
        sched.tick(t.t_refi - 1);
        assert!(!sched.due());
        sched.tick(t.t_refi);
        assert!(sched.due());
        sched.on_refresh_issued(t.t_refi);
        assert!(!sched.due());
    }

    #[test]
    fn urgency_after_postponement_limit() {
        let t = DramTimings::ddr5();
        let mut sched = RefreshScheduler::new(&t);
        // Five intervals elapse without a REF: with max 4 postponed, it becomes urgent.
        sched.tick(5 * t.t_refi);
        assert_eq!(sched.owed(), 5);
        assert!(sched.urgent());
        for _ in 0..5 {
            sched.on_refresh_issued(5 * t.t_refi);
        }
        assert!(!sched.due());
        assert_eq!(sched.refreshes_issued(), 5);
    }

    #[test]
    fn max_attacker_open_time_is_five_trefi_for_ddr5() {
        let t = DramTimings::ddr5();
        let sched = RefreshScheduler::new(&t);
        // §II-E: "this time gets constrained only by the time between refresh operations
        // ... it can be extended with refresh postponement to 5 times tREFI in DDR5".
        assert_eq!(sched.max_attacker_open_time(), 5 * t.t_refi);
    }

    #[test]
    fn take_due_backdates_owed_refreshes() {
        let t = DramTimings::ddr5();
        let mut sched = RefreshScheduler::new(&t);
        // Three intervals elapse quietly; the owed refreshes report their original due
        // times, oldest first.
        let now = 3 * t.t_refi + 500;
        assert_eq!(sched.take_due(now), Some(t.t_refi));
        assert_eq!(sched.take_due(now), Some(2 * t.t_refi));
        assert_eq!(sched.take_due(now), Some(3 * t.t_refi));
        assert_eq!(sched.take_due(now), None);
        assert_eq!(sched.refreshes_issued(), 3);
    }

    #[test]
    fn ddr4_allows_nine_trefi() {
        let t = DramTimings::ddr4();
        let sched = RefreshScheduler::new(&t);
        assert_eq!(sched.max_attacker_open_time(), 9 * t.t_refi);
    }
}
