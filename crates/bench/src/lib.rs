//! Shared helpers for the experiment harness.
//!
//! Every table and figure of the paper has a dedicated binary in `src/bin/` (see
//! DESIGN.md §4 for the experiment index). The binaries print tab-separated tables to
//! stdout so their output can be diffed against the values recorded in EXPERIMENTS.md.
//! This library holds the formatting and sweep helpers they share.

#![warn(missing_docs)]

use impress_core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
use impress_sim::{Configuration, ExperimentRunner, NormalizedResult};
use impress_workloads::codec::{TraceMeta, TraceRecord};
use impress_workloads::source::AccessSource;
use impress_workloads::{LocalityClass, WorkloadMix};

/// Number of memory requests per core used by the figure binaries.
///
/// Controlled by the `IMPRESS_SCALE` environment variable (see
/// `impress_sim::config::default_requests_per_core`); the default keeps the whole
/// figure suite under a few minutes.
pub fn requests_per_core() -> u64 {
    impress_sim::config::default_requests_per_core()
}

/// Workloads used by quick sweeps: a SPEC subset plus a STREAM subset that together
/// capture both locality classes. Set `IMPRESS_ALL_WORKLOADS=1` to run all twenty.
pub fn figure_workloads() -> Vec<&'static str> {
    if std::env::var("IMPRESS_ALL_WORKLOADS").is_ok() {
        WorkloadMix::paper_workload_names()
    } else {
        vec![
            "fotonik3d",
            "mcf",
            "gcc",
            "omnetpp",
            "xalancbmk",
            "add",
            "copy",
            "triad",
            "copy_scale",
            "add_triad",
        ]
    }
}

/// Prints one row of a tab-separated table.
pub fn print_row(label: &str, values: &[f64]) {
    let formatted: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    println!("{label}\t{}", formatted.join("\t"));
}

/// Prints the SPEC and STREAM geometric means of a result set, one line per class.
pub fn print_class_gmeans(label: &str, results: &[NormalizedResult]) {
    let spec = ExperimentRunner::gmean_by_class(results, Some(LocalityClass::Spec));
    let stream = ExperimentRunner::gmean_by_class(results, Some(LocalityClass::Stream));
    print_row(&format!("{label}\tSPEC(GMean)"), &[spec]);
    print_row(&format!("{label}\tSTREAM(GMean)"), &[stream]);
}

/// Builds the paper's protected configurations for one tracker: ExPress (where
/// applicable), ImPress-N and ImPress-P, all at the given Rowhammer threshold.
pub fn defense_configurations(tracker: TrackerChoice, trh: u64) -> Vec<Configuration> {
    let timings = impress_dram::DramTimings::ddr5();
    let mut out = Vec::new();
    let mut push = |label: &str, defense: DefenseKind| {
        let protection = ProtectionConfig {
            rowhammer_threshold: trh,
            ..ProtectionConfig::paper_default(tracker, defense)
        };
        if protection.validate().is_ok() {
            out.push(Configuration::protected(
                format!("{}+{label}", tracker.label()),
                protection,
            ));
        }
    };
    push("No-RP", DefenseKind::NoRp);
    push("ExPress", DefenseKind::express_paper_baseline(&timings));
    push(
        "ImPress-N",
        DefenseKind::ImpressN {
            alpha: impress_core::Alpha::Conservative,
        },
    );
    push("ImPress-P", DefenseKind::impress_p_default());
    out
}

/// Every name [`named_configuration`] resolves, in its match order. `trace
/// throughput --config all` expands to this list.
pub const CONFIGURATION_NAMES: &[&str] = &[
    "unprotected",
    "graphene-impress-p",
    "para-impress-p",
    "mithril-impress-p",
];

/// Builds one of the named configurations the `trace` binary and smoke jobs use.
///
/// Names: `unprotected`, `graphene-impress-p`, `para-impress-p`,
/// `mithril-impress-p` (see [`CONFIGURATION_NAMES`]). Returns `None` for
/// anything else.
pub fn named_configuration(name: &str) -> Option<Configuration> {
    let protected = |tracker: TrackerChoice, label: &str| {
        Some(Configuration::protected(
            label,
            ProtectionConfig::paper_default(tracker, DefenseKind::impress_p_default()),
        ))
    };
    match name {
        "unprotected" => Some(Configuration::unprotected()),
        "graphene-impress-p" => protected(TrackerChoice::Graphene, "Graphene+ImPress-P"),
        "para-impress-p" => protected(TrackerChoice::Para, "PARA+ImPress-P"),
        "mithril-impress-p" => protected(TrackerChoice::Mithril, "Mithril+ImPress-P"),
        _ => None,
    }
}

/// Records `per_core` accesses per core of `workload` (seeded) as a trace.
///
/// Accesses are drawn round-robin per core from a fresh [`WorkloadMix`] — each
/// core's sequence is exactly what an in-process run with the same seed would
/// issue, so a closed-loop replay of the result reproduces that run bit for bit
/// (per-core generator streams do not depend on how the run interleaves them).
pub fn record_workload_trace(
    workload: &str,
    seed: u64,
    per_core: u64,
) -> Option<(TraceMeta, Vec<TraceRecord>)> {
    let mut mix = WorkloadMix::by_name(workload, seed)?;
    let cores = AccessSource::cores(&mix);
    let meta = TraceMeta {
        name: workload.to_string(),
        cores: cores as u8,
        has_gaps: false,
        instructions_per_miss: (0..cores)
            .map(|c| AccessSource::instructions_per_miss(&mix, c))
            .collect(),
    };
    let mut records = Vec::with_capacity(per_core as usize * cores);
    for _ in 0..per_core {
        for core in 0..cores {
            records.push(TraceRecord::from_access(
                AccessSource::next_access(&mut mix, core),
                0,
            ));
        }
    }
    Some((meta, records))
}

/// Runs every configuration over the figure workloads on the parallel sweep engine.
///
/// Baselines are computed once and shared; the result is
/// `out[configuration][workload]` in the input orders, bit-identical to a serial run.
pub fn run_sweep_over_workloads(
    runner: &ExperimentRunner,
    baseline: &Configuration,
    configurations: &[Configuration],
) -> Vec<Vec<NormalizedResult>> {
    runner.run_sweep(&figure_workloads(), baseline, configurations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_workloads_cover_both_classes() {
        let workloads = figure_workloads();
        assert!(workloads
            .iter()
            .any(|w| WorkloadMix::by_name(w, 0).unwrap().class() == LocalityClass::Spec));
        assert!(workloads
            .iter()
            .any(|w| WorkloadMix::by_name(w, 0).unwrap().class() == LocalityClass::Stream));
    }

    #[test]
    fn named_configurations_resolve() {
        assert_eq!(
            named_configuration("unprotected").unwrap().label,
            "Unprotected"
        );
        assert!(named_configuration("graphene-impress-p")
            .unwrap()
            .protection
            .is_some());
        assert!(named_configuration("linpack").is_none());
    }

    #[test]
    fn recorded_trace_covers_every_core() {
        let (meta, records) = record_workload_trace("copy", 1, 50).unwrap();
        assert_eq!(meta.cores, 8);
        assert_eq!(records.len(), 400);
        for core in 0..8u8 {
            assert_eq!(records.iter().filter(|r| r.core == core).count(), 50);
        }
        assert!(record_workload_trace("linpack", 1, 10).is_none());
    }

    #[test]
    fn defense_configurations_skip_invalid_combinations() {
        // ExPress cannot protect in-DRAM trackers, so MINT gets only three configs.
        assert_eq!(
            defense_configurations(TrackerChoice::Graphene, 4_000).len(),
            4
        );
        assert_eq!(defense_configurations(TrackerChoice::Mint, 4_000).len(), 3);
    }
}
