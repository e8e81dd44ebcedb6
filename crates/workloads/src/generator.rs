//! Deterministic synthetic trace generation from a workload profile.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use impress_dram::address::PhysicalAddress;

use crate::profile::WorkloadProfile;
use crate::trace::MemoryAccess;

/// Generates an infinite, deterministic LLC-miss stream for one core running one
/// workload profile.
///
/// The generator walks `streams` concurrent array streams (round-robin, one access per
/// stream in turn, like STREAM's `c[i] = a[i] + b[i]` loops). Each stream advances in
/// sequential runs: after each access it either moves to the next cache line (with a
/// probability chosen so that the *average* run length matches
/// `sequential_run_lines`) or jumps to a uniformly random line in its partition of the
/// footprint. Writes are interleaved at the profile's write fraction.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    core: u8,
    /// Base physical address of this core's footprint.
    base: u64,
    /// Footprint size in cache lines per stream.
    lines_per_stream: u64,
    /// Probability of continuing the current sequential run.
    continue_probability: f64,
    write_fraction: f64,
    instructions_per_miss: f64,
    /// Per-stream cursor (line offset within the stream's partition).
    cursors: Vec<u64>,
    /// Which stream issues the next access.
    next_stream: usize,
    rng: SmallRng,
}

impl TraceGenerator {
    /// Creates a generator for `core` running `profile`, with its footprint placed at
    /// `base` (must be cache-line aligned) and randomness derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation.
    pub fn new(profile: &WorkloadProfile, core: u8, base: u64, seed: u64) -> Self {
        if let Err(msg) = profile.validate() {
            panic!("invalid workload profile: {msg}");
        }
        let total_lines = (profile.footprint_bytes / 64).max(profile.streams as u64);
        let lines_per_stream = (total_lines / profile.streams as u64).max(1);
        // A run terminates with probability 1/run_length per access, giving a geometric
        // run-length distribution with the desired mean.
        let continue_probability = 1.0 - 1.0 / profile.sequential_run_lines;
        let mut rng = SmallRng::seed_from_u64(seed ^ (u64::from(core) << 56));
        let cursors = (0..profile.streams)
            .map(|_| rng.gen_range(0..lines_per_stream))
            .collect();
        Self {
            core,
            base: base & !63,
            lines_per_stream,
            continue_probability,
            write_fraction: profile.write_fraction,
            instructions_per_miss: profile.instructions_per_miss(),
            cursors,
            next_stream: 0,
            rng,
        }
    }

    /// The core this generator models.
    pub fn core(&self) -> u8 {
        self.core
    }

    /// Number of concurrent streams being walked.
    pub fn streams(&self) -> usize {
        self.cursors.len()
    }

    /// Average number of instructions the core executes between LLC misses.
    pub fn instructions_per_miss(&self) -> f64 {
        self.instructions_per_miss
    }

    /// Generates the next access.
    #[inline]
    pub fn next_access(&mut self) -> MemoryAccess {
        // The stream index and every cursor are always in range, so each steps
        // by compare-and-wrap instead of a division.
        let stream = self.next_stream;
        self.next_stream = if stream + 1 == self.cursors.len() {
            0
        } else {
            stream + 1
        };

        let stream_base = self.base + stream as u64 * self.lines_per_stream * 64;
        let address = PhysicalAddress::new(stream_base + self.cursors[stream] * 64);
        let is_write = self.rng.gen_bool(self.write_fraction);
        // Decide where this stream's next access goes.
        if self.rng.gen_bool(self.continue_probability) {
            let next = self.cursors[stream] + 1;
            self.cursors[stream] = if next == self.lines_per_stream {
                0
            } else {
                next
            };
        } else {
            self.cursors[stream] = self.rng.gen_range(0..self.lines_per_stream);
        }
        MemoryAccess {
            address,
            is_write,
            core: self.core,
        }
    }

    /// Generates the next `n` accesses.
    pub fn take_accesses(&mut self, n: usize) -> Vec<MemoryAccess> {
        (0..n).map(|_| self.next_access()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec_profile;
    use crate::stream::stream_kernel_profile;

    #[test]
    fn generation_is_deterministic() {
        let p = spec_profile("mcf").unwrap();
        let mut a = TraceGenerator::new(&p, 0, 0, 42);
        let mut b = TraceGenerator::new(&p, 0, 0, 42);
        assert_eq!(a.take_accesses(1000), b.take_accesses(1000));
    }

    #[test]
    fn different_seeds_differ() {
        let p = spec_profile("mcf").unwrap();
        let mut a = TraceGenerator::new(&p, 0, 0, 1);
        let mut b = TraceGenerator::new(&p, 0, 0, 2);
        assert_ne!(a.take_accesses(100), b.take_accesses(100));
    }

    #[test]
    fn addresses_stay_within_footprint() {
        let p = spec_profile("gcc").unwrap();
        let base = 4u64 << 30;
        let mut g = TraceGenerator::new(&p, 1, base, 7);
        for a in g.take_accesses(10_000) {
            assert!(a.address.as_u64() >= base);
            assert!(a.address.as_u64() < base + p.footprint_bytes);
            assert_eq!(a.address.as_u64() % 64, 0);
            assert_eq!(a.core, 1);
        }
    }

    #[test]
    fn stream_kernels_walk_multiple_interleaved_streams() {
        let p = stream_kernel_profile("triad").unwrap();
        let mut g = TraceGenerator::new(&p, 0, 0, 3);
        assert_eq!(g.streams(), 3);
        let accesses = g.take_accesses(9);
        // Accesses 0, 3, 6 come from stream 0 and are (mostly) consecutive lines.
        let s0: Vec<u64> = accesses
            .iter()
            .step_by(3)
            .map(|a| a.address.as_u64())
            .collect();
        assert!(s0[1] == s0[0] + 64 || s0[2] == s0[1] + 64);
        // Different streams live in disjoint partitions of the footprint.
        let partition = p.footprint_bytes / 3 / 2; // well below one partition size
        assert!(
            accesses[0]
                .address
                .as_u64()
                .abs_diff(accesses[1].address.as_u64())
                > partition
        );
    }

    #[test]
    fn stream_runs_are_much_longer_than_spec_runs() {
        // Compare per-stream sequentiality: the fraction of accesses that continue the
        // previous line of the *same stream*.
        fn sequential_fraction(profile: &crate::profile::WorkloadProfile, seed: u64) -> f64 {
            let streams = profile.streams;
            let mut g = TraceGenerator::new(profile, 0, 0, seed);
            let accesses = g.take_accesses(30_000);
            let mut sequential = 0u64;
            let mut total = 0u64;
            for i in streams..accesses.len() {
                total += 1;
                if accesses[i].address.as_u64() == accesses[i - streams].address.as_u64() + 64 {
                    sequential += 1;
                }
            }
            sequential as f64 / total as f64
        }
        let stream = sequential_fraction(&stream_kernel_profile("copy").unwrap(), 3);
        let spec = sequential_fraction(&spec_profile("mcf").unwrap(), 3);
        assert!(stream > 0.9, "stream sequential fraction = {stream}");
        assert!(spec < 0.5, "spec sequential fraction = {spec}");
    }

    #[test]
    fn write_fraction_is_respected() {
        let p = stream_kernel_profile("copy").unwrap();
        let mut g = TraceGenerator::new(&p, 0, 0, 11);
        let accesses = g.take_accesses(100_000);
        let writes = accesses.iter().filter(|a| a.is_write).count() as f64;
        let frac = writes / accesses.len() as f64;
        assert!((frac - 0.5).abs() < 0.02, "write fraction = {frac}");
    }
}
