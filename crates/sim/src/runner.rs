//! High-level experiment runner: build, run and normalize workload × defense sweeps.
//!
//! Every performance figure of the paper has the same structure: run a set of
//! workloads under a set of memory-controller configurations and report performance
//! normalized to a baseline configuration. [`ExperimentRunner::run_sweep`] is the
//! engine behind the figure binaries: it computes each workload's baseline run
//! exactly once, shares the frozen baseline table across every configuration, and
//! executes the `(workload, configuration)` cells on a thread pool
//! (`IMPRESS_THREADS`, default: all cores) with deterministic, input-ordered results —
//! a parallel sweep is bit-for-bit identical to a serial one.
//! [`ExperimentRunner::run_normalized`] remains for one-off cells and caches
//! baselines incrementally.

use std::collections::HashMap;

use impress_exec::par_map_with;

use impress_core::config::ProtectionConfig;
use impress_dram::timing::Cycle;
use impress_memctrl::{ControllerConfig, PagePolicy};
use impress_workloads::{LocalityClass, WorkloadMix};

use crate::config::SystemConfig;
use crate::metrics::geometric_mean;
use crate::system::{RunOutput, System};

/// A named memory-system configuration to evaluate.
#[derive(Debug, Clone)]
pub struct Configuration {
    /// Label used in experiment output (e.g. `"ImPress-P"` or `"tMRO=66ns"`).
    pub label: String,
    /// Row-buffer policy (carries the tMRO limit for ExPress-style configurations).
    pub page_policy: PagePolicy,
    /// Rowhammer/Row-Press protection, if any.
    pub protection: Option<ProtectionConfig>,
}

impl Configuration {
    /// An unprotected open-page baseline.
    pub fn unprotected() -> Self {
        Self {
            label: "Unprotected".to_string(),
            page_policy: PagePolicy::open(),
            protection: None,
        }
    }

    /// An unprotected configuration with a maximum row-open time (the Figure 3 sweep).
    pub fn with_tmro(label: impl Into<String>, t_mro: Cycle) -> Self {
        Self {
            label: label.into(),
            page_policy: PagePolicy::open_with_tmro(t_mro),
            protection: None,
        }
    }

    /// A protected configuration (the page policy is derived from the defense: ExPress
    /// sets its tMRO, everything else runs unrestricted open-page).
    pub fn protected(label: impl Into<String>, protection: ProtectionConfig) -> Self {
        Self {
            label: label.into(),
            page_policy: PagePolicy::open(),
            protection: Some(protection),
        }
    }

    /// The controller configuration this experiment cell runs under (shared by
    /// the synthetic [`ExperimentRunner`] and the trace-driven
    /// [`crate::trace_runner::TraceRunner`]).
    pub fn controller_config(&self) -> ControllerConfig {
        let base = ControllerConfig::baseline().with_page_policy(self.page_policy);
        match &self.protection {
            Some(p) => base.with_protection(p.clone()),
            None => base,
        }
    }
}

/// The result of running one workload under one configuration, normalized to that
/// workload's baseline run.
#[derive(Debug, Clone)]
pub struct NormalizedResult {
    /// Workload name.
    pub workload: String,
    /// Workload class (SPEC or STREAM).
    pub class: LocalityClass,
    /// Configuration label.
    pub configuration: String,
    /// Weighted speedup relative to the baseline configuration (1.0 = no slowdown).
    pub normalized_performance: f64,
    /// Raw run output (stats, energy) for deeper analysis.
    pub output: RunOutput,
}

/// Options shared by every sweep entry point.
///
/// Every field is an override; `None` keeps the corresponding default. All
/// combinations produce bit-for-bit identical simulation results — these are
/// scheduling and reporting knobs, never semantics.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Sweep-level workers executing `(workload, configuration)` cells
    /// (`None`: [`impress_exec::thread_count`], the `IMPRESS_THREADS` knob).
    pub threads: Option<usize>,
    /// Workers executing channel shards inside each run (`None`: the runner's
    /// configured value, default 1 — see [`ExperimentRunner::with_shard_threads`]).
    pub shard_threads: Option<usize>,
    /// Baseline configuration to normalize against (`None`: raw outputs only).
    pub normalization: Option<Configuration>,
}

/// The outputs of [`ExperimentRunner::run_sweep_with_options`]: raw cell outputs,
/// plus normalized results when [`SweepOptions::normalization`] was set. Both are
/// nested `result[configuration][workload]`, matching the argument order.
#[derive(Debug)]
pub struct SweepResults {
    /// Raw run outputs for every cell.
    pub raw: Vec<Vec<RunOutput>>,
    /// Normalized results, present iff a normalization baseline was requested.
    pub normalized: Option<Vec<Vec<NormalizedResult>>>,
}

/// Runs workloads under configurations and normalizes against a baseline configuration.
///
/// Two independent parallelism axes are available: *sweep-level* (cells of a
/// `workloads × configurations` grid run on the pool — [`ExperimentRunner::run_sweep`])
/// and *channel-level* (each individual run executes its channel shards on the epoch
/// pool — [`ExperimentRunner::with_shard_threads`]). Results are bit-for-bit
/// identical along both axes at any thread count, so they compose freely; the
/// default is sweep-level only, which keeps every worker busy without
/// oversubscribing.
#[derive(Debug)]
pub struct ExperimentRunner {
    system: SystemConfig,
    seed: u64,
    shard_threads: usize,
    baseline_cache: HashMap<String, RunOutput>,
}

impl Default for ExperimentRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl ExperimentRunner {
    /// Creates a runner with the paper's baseline system configuration.
    pub fn new() -> Self {
        Self {
            system: SystemConfig::baseline(),
            seed: 0x1A7E_2024,
            shard_threads: 1,
            baseline_cache: HashMap::new(),
        }
    }

    /// Overrides the number of requests each core issues per run (simulation length).
    pub fn with_requests_per_core(mut self, requests: u64) -> Self {
        self.system.requests_per_core = requests;
        self
    }

    /// Executes each individual run's channel shards on up to `threads` workers (the
    /// epoch-phased loop; clamped to the channel count, `1` = inline).
    ///
    /// Outputs are bit-for-bit identical for every value, so this is purely a
    /// scheduling knob: prefer it over sweep-level parallelism when the sweep has
    /// fewer cells than the machine has cores (e.g. a single long run of a
    /// many-channel system).
    pub fn with_shard_threads(mut self, threads: usize) -> Self {
        self.shard_threads = threads.max(1);
        self
    }

    /// Runs `workload` under `configuration` and returns the raw output.
    pub fn run_raw(&self, workload: &str, configuration: &Configuration) -> RunOutput {
        self.run_raw_with(workload, configuration, self.shard_threads)
    }

    fn run_raw_with(
        &self,
        workload: &str,
        configuration: &Configuration,
        shard_threads: usize,
    ) -> RunOutput {
        let mix = WorkloadMix::by_name(workload, self.seed)
            .unwrap_or_else(|| panic!("unknown workload {workload}"));
        let config = self
            .system
            .clone()
            .with_controller(configuration.controller_config());
        System::new(config, mix).run_with_threads(shard_threads)
    }

    /// Runs `workload` under `baseline` (cached) and `configuration`, returning the
    /// normalized result.
    pub fn run_normalized(
        &mut self,
        workload: &str,
        baseline: &Configuration,
        configuration: &Configuration,
    ) -> NormalizedResult {
        let cache_key = format!("{workload}::{}", baseline.label);
        if !self.baseline_cache.contains_key(&cache_key) {
            let output = self.run_raw(workload, baseline);
            self.baseline_cache.insert(cache_key.clone(), output);
        }
        let baseline_output = self.baseline_cache.get(&cache_key).expect("just inserted");
        self.normalize(workload, baseline_output, configuration)
    }

    /// Builds the normalized result of one already-run cell against a baseline output.
    fn normalize(
        &self,
        workload: &str,
        baseline_output: &RunOutput,
        configuration: &Configuration,
    ) -> NormalizedResult {
        let output = self.run_raw(workload, configuration);
        let class = WorkloadMix::by_name(workload, self.seed)
            .expect("workload exists")
            .class();
        let normalized_performance = output
            .performance
            .weighted_speedup(&baseline_output.performance);
        NormalizedResult {
            workload: workload.to_string(),
            class,
            configuration: configuration.label.clone(),
            normalized_performance,
            output,
        }
    }

    /// The single sweep engine: runs the `workloads` × `configurations` grid on
    /// the pool and (optionally) normalizes every cell against
    /// [`SweepOptions::normalization`].
    ///
    /// Cells run in parallel with deterministic, input-ordered results; when a
    /// normalization baseline is set, one baseline run per workload is computed
    /// (in parallel), frozen into a read-only table, and shared by every
    /// configuration. Output nesting is `result[configuration][workload]`,
    /// matching the argument order; contents are bit-for-bit identical for any
    /// worker count, including 1.
    ///
    /// [`ExperimentRunner::run_sweep`], [`ExperimentRunner::run_sweep_with_threads`]
    /// and [`ExperimentRunner::run_sweep_raw`] are thin wrappers over this method.
    pub fn run_sweep_with_options(
        &self,
        workloads: &[&str],
        configurations: &[Configuration],
        options: &SweepOptions,
    ) -> SweepResults {
        let threads = options.threads.unwrap_or_else(impress_exec::thread_count);
        let shard_threads = options.shard_threads.unwrap_or(self.shard_threads);

        let raw = run_cells(threads, workloads.len(), configurations.len(), |c, w| {
            self.run_raw_with(workloads[w], &configurations[c], shard_threads)
        });

        let normalized = options.normalization.as_ref().map(|baseline| {
            let baselines: Vec<RunOutput> = par_map_with(threads, workloads, |w| {
                self.run_raw_with(w, baseline, shard_threads)
            });
            raw.iter()
                .enumerate()
                .map(|(c, row)| {
                    row.iter()
                        .enumerate()
                        .map(|(w, output)| {
                            let class = WorkloadMix::by_name(workloads[w], self.seed)
                                .expect("workload exists")
                                .class();
                            NormalizedResult {
                                workload: workloads[w].to_string(),
                                class,
                                configuration: configurations[c].label.clone(),
                                normalized_performance: output
                                    .performance
                                    .weighted_speedup(&baselines[w].performance),
                                output: output.clone(),
                            }
                        })
                        .collect()
                })
                .collect()
        });

        SweepResults { raw, normalized }
    }

    /// Runs the full `workloads` × `configurations` sweep in parallel, normalizing
    /// every cell against `baseline` — [`ExperimentRunner::run_sweep_with_options`]
    /// with default threads ([`impress_exec::thread_count`], the `IMPRESS_THREADS`
    /// knob) and `baseline` as the normalization.
    pub fn run_sweep(
        &self,
        workloads: &[&str],
        baseline: &Configuration,
        configurations: &[Configuration],
    ) -> Vec<Vec<NormalizedResult>> {
        self.run_sweep_with_options(
            workloads,
            configurations,
            &SweepOptions {
                normalization: Some(baseline.clone()),
                ..SweepOptions::default()
            },
        )
        .normalized
        .expect("normalization was requested")
    }

    /// [`ExperimentRunner::run_sweep`] with an explicit worker count (1 = serial).
    pub fn run_sweep_with_threads(
        &self,
        threads: usize,
        workloads: &[&str],
        baseline: &Configuration,
        configurations: &[Configuration],
    ) -> Vec<Vec<NormalizedResult>> {
        self.run_sweep_with_options(
            workloads,
            configurations,
            &SweepOptions {
                threads: Some(threads),
                normalization: Some(baseline.clone()),
                ..SweepOptions::default()
            },
        )
        .normalized
        .expect("normalization was requested")
    }

    /// Runs `workloads` under each configuration in parallel, returning the raw
    /// outputs as `result[configuration][workload]` (no normalization) — the sweep
    /// entry point for figures that aggregate activation counts or energy.
    pub fn run_sweep_raw(
        &self,
        workloads: &[&str],
        configurations: &[Configuration],
    ) -> Vec<Vec<RunOutput>> {
        self.run_sweep_with_options(workloads, configurations, &SweepOptions::default())
            .raw
    }

    /// Geometric mean of the normalized performance of a slice of results, filtered by
    /// workload class (`None` averages everything).
    pub fn gmean_by_class(results: &[NormalizedResult], class: Option<LocalityClass>) -> f64 {
        let values: Vec<f64> = results
            .iter()
            .filter(|r| class.is_none_or(|c| r.class == c))
            .map(|r| r.normalized_performance)
            .collect();
        geometric_mean(&values)
    }
}

/// Shared sweep-cell executor: runs `f(configuration_index, workload_index)` for every
/// cell on the pool, flattened configuration-major so the dynamic scheduler balances
/// uneven workloads, and regroups results as `out[configuration][workload]`.
fn run_cells<R: Send>(
    threads: usize,
    workloads: usize,
    configurations: usize,
    f: impl Fn(usize, usize) -> R + Sync,
) -> Vec<Vec<R>> {
    let cells: Vec<(usize, usize)> = (0..configurations)
        .flat_map(|c| (0..workloads).map(move |w| (c, w)))
        .collect();
    let results = par_map_with(threads, &cells, |&(c, w)| f(c, w));
    let mut per_configuration: Vec<Vec<R>> = Vec::with_capacity(configurations);
    let mut it = results.into_iter();
    for _ in 0..configurations {
        per_configuration.push(it.by_ref().take(workloads).collect());
    }
    per_configuration
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_core::config::{DefenseKind, TrackerChoice};
    use impress_dram::timing::ns_to_cycles;

    fn runner() -> ExperimentRunner {
        ExperimentRunner::new().with_requests_per_core(3_000)
    }

    #[test]
    fn baseline_normalizes_to_one() {
        let mut r = runner();
        let base = Configuration::unprotected();
        let result = r.run_normalized("gcc", &base, &base);
        assert!((result.normalized_performance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tight_tmro_slows_stream_more_than_spec() {
        let mut r = runner();
        let base = Configuration::unprotected();
        let tight = Configuration::with_tmro("tMRO=36ns", ns_to_cycles(36));
        let stream = r.run_normalized("copy", &base, &tight);
        let spec = r.run_normalized("xalancbmk", &base, &tight);
        assert!(
            stream.normalized_performance < spec.normalized_performance,
            "stream {} should be hurt more than spec {}",
            stream.normalized_performance,
            spec.normalized_performance
        );
        assert!(spec.normalized_performance > 0.9);
    }

    #[test]
    fn impress_p_graphene_has_negligible_overhead() {
        let mut r = runner();
        let base = Configuration::unprotected();
        let protected = Configuration::protected(
            "Graphene+ImPress-P",
            ProtectionConfig::paper_default(
                TrackerChoice::Graphene,
                DefenseKind::impress_p_default(),
            ),
        );
        let result = r.run_normalized("bwaves", &base, &protected);
        assert!(
            result.normalized_performance > 0.97,
            "normalized = {}",
            result.normalized_performance
        );
    }

    #[test]
    fn sweep_matches_run_normalized() {
        let r = runner();
        let base = Configuration::unprotected();
        let tight = Configuration::with_tmro("tMRO=66ns", ns_to_cycles(66));
        let sweep = r.run_sweep(&["gcc", "copy"], &base, std::slice::from_ref(&tight));
        assert_eq!(sweep.len(), 1);
        assert_eq!(sweep[0].len(), 2);

        let mut serial = runner();
        for (i, w) in ["gcc", "copy"].iter().enumerate() {
            let expect = serial.run_normalized(w, &base, &tight);
            assert_eq!(sweep[0][i].workload, expect.workload);
            assert_eq!(
                sweep[0][i].normalized_performance.to_bits(),
                expect.normalized_performance.to_bits(),
                "sweep cell {w} differs from run_normalized"
            );
        }
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let r = runner();
        let base = Configuration::unprotected();
        let configs = vec![
            Configuration::with_tmro("tMRO=36ns", ns_to_cycles(36)),
            Configuration::protected(
                "Graphene+ImPress-P",
                ProtectionConfig::paper_default(
                    TrackerChoice::Graphene,
                    DefenseKind::impress_p_default(),
                ),
            ),
        ];
        let workloads = ["gcc", "copy", "mcf"];
        let serial = r.run_sweep_with_threads(1, &workloads, &base, &configs);
        let parallel = r.run_sweep_with_threads(4, &workloads, &base, &configs);
        for (sc, pc) in serial.iter().zip(&parallel) {
            for (s, p) in sc.iter().zip(pc) {
                assert_eq!(s.workload, p.workload);
                assert_eq!(s.configuration, p.configuration);
                assert_eq!(
                    s.normalized_performance.to_bits(),
                    p.normalized_performance.to_bits()
                );
                assert_eq!(
                    s.output.performance.elapsed_cycles,
                    p.output.performance.elapsed_cycles
                );
                assert_eq!(s.output.memory.banks, p.output.memory.banks);
            }
        }
    }

    #[test]
    fn options_engine_matches_the_legacy_wrappers() {
        let r = runner();
        let base = Configuration::unprotected();
        let configs = vec![Configuration::with_tmro("tMRO=66ns", ns_to_cycles(66))];
        let workloads = ["gcc", "copy"];

        let results = r.run_sweep_with_options(
            &workloads,
            &configs,
            &SweepOptions {
                threads: Some(2),
                shard_threads: Some(2),
                normalization: Some(base.clone()),
            },
        );
        let legacy = r.run_sweep_with_threads(1, &workloads, &base, &configs);
        let normalized = results.normalized.expect("normalization requested");
        assert_eq!(results.raw.len(), 1);
        assert_eq!(results.raw[0].len(), 2);
        for (n, l) in normalized[0].iter().zip(&legacy[0]) {
            assert_eq!(n.workload, l.workload);
            assert_eq!(
                n.normalized_performance.to_bits(),
                l.normalized_performance.to_bits()
            );
        }
        // Raw outputs are the same runs the normalized results wrap.
        for (raw, n) in results.raw[0].iter().zip(&normalized[0]) {
            assert_eq!(
                raw.performance.elapsed_cycles,
                n.output.performance.elapsed_cycles
            );
        }
    }

    #[test]
    fn sweep_raw_matches_run_raw() {
        let r = runner();
        let cfg = Configuration::unprotected();
        let raw = r.run_sweep_raw(&["wrf"], std::slice::from_ref(&cfg));
        let direct = r.run_raw("wrf", &cfg);
        assert_eq!(
            raw[0][0].performance.elapsed_cycles,
            direct.performance.elapsed_cycles
        );
        assert_eq!(raw[0][0].memory.banks, direct.memory.banks);
    }

    #[test]
    fn gmean_by_class_filters() {
        let mut r = runner();
        let base = Configuration::unprotected();
        let cfg = Configuration::unprotected();
        let results = vec![
            r.run_normalized("gcc", &base, &cfg),
            r.run_normalized("copy", &base, &cfg),
        ];
        let spec = ExperimentRunner::gmean_by_class(&results, Some(LocalityClass::Spec));
        let all = ExperimentRunner::gmean_by_class(&results, None);
        assert!((spec - 1.0).abs() < 1e-9);
        assert!((all - 1.0).abs() < 1e-9);
    }
}
