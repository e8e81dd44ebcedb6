//! Multi-core workload mixes (8-core rate mode and STREAM mixes).

use crate::generator::TraceGenerator;
use crate::profile::{LocalityClass, WorkloadProfile};
use crate::spec::{all_spec_profiles, spec_profile};
use crate::stream::{mix_components, stream_kernel_profile, stream_names};
use crate::trace::MemoryAccess;

/// Number of cores in the paper's baseline system (Table II).
pub const CORES: usize = 8;

/// An 8-core workload: one trace generator per core plus bookkeeping for reporting.
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    name: String,
    class: LocalityClass,
    generators: Vec<TraceGenerator>,
    instructions_per_miss: Vec<f64>,
}

impl WorkloadMix {
    /// Builds a rate-mode mix: all 8 cores run `profile`, each with a private footprint
    /// and its own seed stream.
    pub fn rate_mode(name: &str, profile: &WorkloadProfile, seed: u64) -> Self {
        let generators: Vec<TraceGenerator> = (0..CORES)
            .map(|core| {
                let base = core as u64 * (profile.footprint_bytes + (1 << 30));
                TraceGenerator::new(profile, core as u8, base, seed.wrapping_add(core as u64))
            })
            .collect();
        let instructions_per_miss = vec![profile.instructions_per_miss(); CORES];
        Self {
            name: name.to_string(),
            class: profile.class,
            generators,
            instructions_per_miss,
        }
    }

    /// Builds a mixed workload: the first four cores run `a`, the last four run `b`.
    pub fn half_and_half(name: &str, a: &WorkloadProfile, b: &WorkloadProfile, seed: u64) -> Self {
        let mut generators = Vec::with_capacity(CORES);
        let mut instructions_per_miss = Vec::with_capacity(CORES);
        for core in 0..CORES {
            let profile = if core < CORES / 2 { a } else { b };
            let base = core as u64 * (profile.footprint_bytes.max(a.footprint_bytes) + (1 << 30));
            generators.push(TraceGenerator::new(
                profile,
                core as u8,
                base,
                seed.wrapping_add(core as u64),
            ));
            instructions_per_miss.push(profile.instructions_per_miss());
        }
        let class = if a.class == b.class {
            a.class
        } else {
            LocalityClass::Stream
        };
        Self {
            name: name.to_string(),
            class,
            generators,
            instructions_per_miss,
        }
    }

    /// Builds any of the paper's twenty workloads by name (ten SPEC, four STREAM
    /// kernels, six STREAM mixes). Returns `None` for unknown names.
    pub fn by_name(name: &str, seed: u64) -> Option<Self> {
        if let Some(p) = spec_profile(name) {
            return Some(Self::rate_mode(name, &p, seed));
        }
        if let Some(p) = stream_kernel_profile(name) {
            return Some(Self::rate_mode(name, &p, seed));
        }
        if let Some((a, b)) = mix_components(name) {
            let pa = stream_kernel_profile(a)?;
            let pb = stream_kernel_profile(b)?;
            return Some(Self::half_and_half(name, &pa, &pb, seed));
        }
        None
    }

    /// All twenty workload names in the paper's figure order.
    pub fn paper_workload_names() -> Vec<&'static str> {
        all_spec_profiles()
            .iter()
            .map(|p| p.name)
            .chain(stream_names())
            .collect()
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Workload class (SPEC or STREAM) for geometric-mean grouping.
    pub fn class(&self) -> LocalityClass {
        self.class
    }

    /// Number of cores in the mix.
    pub fn cores(&self) -> usize {
        self.generators.len()
    }

    /// Average instructions per LLC miss for `core`.
    pub fn instructions_per_miss(&self, core: usize) -> f64 {
        self.instructions_per_miss[core]
    }

    /// Generates the next access for `core`.
    #[inline]
    pub fn next_access(&mut self, core: usize) -> MemoryAccess {
        self.generators[core].next_access()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_paper_workloads() {
        let names = WorkloadMix::paper_workload_names();
        assert_eq!(names.len(), 20);
        for name in names {
            let mix = WorkloadMix::by_name(name, 1).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(mix.cores(), 8);
        }
    }

    #[test]
    fn unknown_workload_is_none() {
        assert!(WorkloadMix::by_name("linpack", 0).is_none());
    }

    #[test]
    fn rate_mode_gives_private_footprints() {
        let p = spec_profile("mcf").unwrap();
        let mut mix = WorkloadMix::rate_mode("mcf", &p, 5);
        let a0 = mix.next_access(0);
        let a7 = mix.next_access(7);
        // Different cores touch disjoint address ranges.
        assert!(a0.address.as_u64().abs_diff(a7.address.as_u64()) > p.footprint_bytes);
    }

    #[test]
    fn mixes_combine_two_kernels() {
        let mix = WorkloadMix::by_name("add_copy", 9).unwrap();
        assert_eq!(mix.class(), LocalityClass::Stream);
        // add: 2 loads + 1 store => instructions per miss differ from copy's.
        assert_ne!(mix.instructions_per_miss(0), mix.instructions_per_miss(7));
    }

    #[test]
    fn spec_and_stream_classes_are_reported() {
        assert_eq!(
            WorkloadMix::by_name("gcc", 0).unwrap().class(),
            LocalityClass::Spec
        );
        assert_eq!(
            WorkloadMix::by_name("triad", 0).unwrap().class(),
            LocalityClass::Stream
        );
    }
}
