//! Performance metrics: IPC, weighted speedup and normalization helpers.
//!
//! All reductions here use Neumaier-compensated summation in the input's order:
//! parallel sweeps hand results back in deterministic input order, and the
//! compensation makes the aggregate insensitive to the rounding drift a plain
//! left-to-right `sum()` accumulates, so serial and parallel sweeps report
//! bit-identical geometric means.

/// Neumaier-compensated sum of an iterator of values: same result every run for the
/// same input order, and far less rounding drift than a naive running sum.
fn compensated_sum(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0f64;
    let mut compensation = 0.0f64;
    for v in values {
        let t = sum + v;
        compensation += if sum.abs() >= v.abs() {
            (sum - t) + v
        } else {
            (v - t) + sum
        };
        sum = t;
    }
    sum + compensation
}

/// Per-core and aggregate performance results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceResult {
    /// Instructions per DRAM cycle achieved by each core.
    pub per_core_ipc: Vec<f64>,
    /// Total simulated duration in DRAM cycles.
    pub elapsed_cycles: u64,
    /// Total demand requests serviced.
    pub requests: u64,
}

impl PerformanceResult {
    /// Weighted speedup of this run relative to a baseline run of the same workload:
    /// `(1/N) Σ IPC_i / IPC_baseline_i` (the paper's "normalized weighted speedup").
    ///
    /// # Panics
    ///
    /// Panics if the two runs have different core counts.
    pub fn weighted_speedup(&self, baseline: &PerformanceResult) -> f64 {
        assert_eq!(
            self.per_core_ipc.len(),
            baseline.per_core_ipc.len(),
            "core count mismatch"
        );
        let n = self.per_core_ipc.len() as f64;
        compensated_sum(
            self.per_core_ipc
                .iter()
                .zip(&baseline.per_core_ipc)
                .map(|(ipc, base)| if *base > 0.0 { ipc / base } else { 1.0 }),
        ) / n
    }
}

/// Geometric mean of a slice of positive values (1.0 for an empty slice).
///
/// Non-positive values are clamped to `1e-12` before taking logarithms, so a
/// degenerate run (zero IPC) cannot produce a NaN that poisons a whole figure.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum = compensated_sum(values.iter().map(|v| v.max(1e-12).ln()));
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(ipc: Vec<f64>) -> PerformanceResult {
        PerformanceResult {
            per_core_ipc: ipc,
            elapsed_cycles: 1000,
            requests: 100,
        }
    }

    #[test]
    fn weighted_speedup_of_identical_runs_is_one() {
        let a = result(vec![1.0, 2.0, 3.0]);
        assert!((a.weighted_speedup(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slower_run_has_speedup_below_one() {
        let base = result(vec![2.0, 2.0]);
        let slow = result(vec![1.0, 2.0]);
        assert!((slow.weighted_speedup(&base) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 1.0);
    }

    #[test]
    fn compensated_sum_beats_naive_on_adversarial_input() {
        // 1.0 followed by many tiny values that a naive f64 sum drops entirely.
        let tiny = 1e-16;
        let mut values = vec![1.0f64];
        values.extend(std::iter::repeat_n(tiny, 10_000));
        let naive: f64 = values.iter().sum();
        let compensated = compensated_sum(values.iter().copied());
        let exact = 1.0 + tiny * 10_000.0;
        assert_eq!(naive, 1.0, "naive sum should lose the tail (sanity check)");
        assert!((compensated - exact).abs() < 1e-18);
    }

    #[test]
    fn geometric_mean_tolerates_non_positive_values() {
        let g = geometric_mean(&[0.0, 1.0]);
        assert!(g.is_finite() && g >= 0.0);
    }

    #[test]
    #[should_panic(expected = "core count")]
    fn mismatched_core_counts_panic() {
        let a = result(vec![1.0]);
        let b = result(vec![1.0, 2.0]);
        let _ = a.weighted_speedup(&b);
    }
}
