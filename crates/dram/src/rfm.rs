//! Refresh Management (RFM) bookkeeping.
//!
//! DDR5 exposes RFM so that in-DRAM Rowhammer trackers (Mithril, MINT) get guaranteed
//! time to perform mitigations: the memory controller counts activations per bank in a
//! Rolling Accumulated ACT (RAA) counter and must issue an RFM command once the counter
//! reaches the RFM threshold (`RFMTH`, 80 in the paper's default configuration).

use crate::timing::Cycle;

/// Per-bank RAA counter tracking when an RFM command is owed.
#[derive(Debug, Clone)]
pub struct RfmCounter {
    rfm_th: u32,
    raa: u32,
    rfms_issued: u64,
}

impl RfmCounter {
    /// Creates a counter with the given RFM threshold (`RFMTH` activations per RFM).
    ///
    /// # Panics
    ///
    /// Panics if `rfm_th` is zero.
    pub fn new(rfm_th: u32) -> Self {
        assert!(rfm_th > 0, "RFM threshold must be positive");
        Self {
            rfm_th,
            raa: 0,
            rfms_issued: 0,
        }
    }

    /// The configured RFM threshold.
    pub fn rfm_threshold(&self) -> u32 {
        self.rfm_th
    }

    /// Records one activation; returns `true` if an RFM command is now owed.
    pub fn on_activation(&mut self) -> bool {
        self.raa += 1;
        self.raa >= self.rfm_th
    }

    /// Returns `true` if an RFM command is currently owed.
    pub fn rfm_due(&self) -> bool {
        self.raa >= self.rfm_th
    }

    /// Records that an RFM command was issued at `now`; the RAA counter is decremented
    /// by one threshold's worth of activations.
    pub fn on_rfm_issued(&mut self, _now: Cycle) {
        self.raa = self.raa.saturating_sub(self.rfm_th);
        self.rfms_issued += 1;
    }

    /// Current value of the RAA counter.
    pub fn raa(&self) -> u32 {
        self.raa
    }

    /// Total RFM commands issued.
    pub fn rfms_issued(&self) -> u64 {
        self.rfms_issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfm_due_after_threshold_acts() {
        let mut c = RfmCounter::new(80);
        for i in 0..79 {
            assert!(
                !c.on_activation(),
                "RFM should not be due after {} ACTs",
                i + 1
            );
        }
        assert!(c.on_activation());
        assert!(c.rfm_due());
        c.on_rfm_issued(0);
        assert!(!c.rfm_due());
        assert_eq!(c.rfms_issued(), 1);
    }

    #[test]
    fn excess_acts_carry_over() {
        let mut c = RfmCounter::new(10);
        for _ in 0..15 {
            c.on_activation();
        }
        c.on_rfm_issued(0);
        assert_eq!(c.raa(), 5);
        assert!(!c.rfm_due());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_panics() {
        let _ = RfmCounter::new(0);
    }
}
