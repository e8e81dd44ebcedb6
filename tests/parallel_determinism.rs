//! End-to-end determinism gate for the parallel sweep engine: a sweep executed on
//! many workers must be bit-for-bit identical to the same sweep executed serially,
//! across protected and unprotected configurations and both workload classes.

use impress_repro::core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
use impress_repro::core::Alpha;
use impress_repro::dram::timing::ns_to_cycles;
use impress_repro::dram::DramTimings;
use impress_repro::sim::{Configuration, ExperimentRunner};

/// Every tracker family and every defense kind at least once. The golden
/// figure files compare PARA, ExPress and ImPress-N cells only as 4-decimal
/// text, so they are compared bit for bit here.
fn configurations() -> Vec<Configuration> {
    vec![
        Configuration::with_tmro("tMRO=66ns".to_string(), ns_to_cycles(66)),
        Configuration::protected(
            "PARA+ImPress-N",
            ProtectionConfig::paper_default(
                TrackerChoice::Para,
                DefenseKind::ImpressN {
                    alpha: Alpha::Conservative,
                },
            ),
        ),
        Configuration::protected(
            "Graphene+ExPress",
            ProtectionConfig::paper_default(
                TrackerChoice::Graphene,
                DefenseKind::express_paper_baseline(&DramTimings::ddr5()),
            ),
        ),
        Configuration::protected(
            "Graphene+ImPress-P",
            ProtectionConfig::paper_default(
                TrackerChoice::Graphene,
                DefenseKind::impress_p_default(),
            ),
        ),
        Configuration::protected(
            "Mithril+ImPress-P",
            ProtectionConfig::paper_default(
                TrackerChoice::Mithril,
                DefenseKind::impress_p_default(),
            ),
        ),
    ]
}

#[test]
fn parallel_sweep_reproduces_serial_sweep_exactly() {
    let runner = ExperimentRunner::new().with_requests_per_core(2_000);
    let baseline = Configuration::unprotected();
    let workloads = ["gcc", "copy", "omnetpp", "triad"];
    let configs = configurations();

    let serial = runner.run_sweep_with_threads(1, &workloads, &baseline, &configs);
    for threads in [2, 4, 8] {
        let parallel = runner.run_sweep_with_threads(threads, &workloads, &baseline, &configs);
        assert_eq!(serial.len(), parallel.len());
        for (sc, pc) in serial.iter().zip(&parallel) {
            for (s, p) in sc.iter().zip(pc) {
                assert_eq!(
                    s.workload, p.workload,
                    "ordering differs at {threads} threads"
                );
                assert_eq!(s.configuration, p.configuration);
                assert_eq!(
                    s.normalized_performance.to_bits(),
                    p.normalized_performance.to_bits(),
                    "{}/{} differs at {threads} threads",
                    s.configuration,
                    s.workload
                );
                assert_eq!(
                    s.output.performance.elapsed_cycles,
                    p.output.performance.elapsed_cycles
                );
                assert_eq!(
                    s.output.performance.per_core_ipc,
                    p.output.performance.per_core_ipc
                );
                assert_eq!(s.output.memory, p.output.memory);
                assert_eq!(
                    s.output.energy.total_nj().to_bits(),
                    p.output.energy.total_nj().to_bits()
                );
            }
        }
    }
}

#[test]
fn repeated_parallel_sweeps_are_identical() {
    // Run-to-run determinism at a fixed thread count (no hidden global state).
    let runner = ExperimentRunner::new().with_requests_per_core(1_000);
    let baseline = Configuration::unprotected();
    let workloads = ["mcf", "add"];
    let configs = configurations();
    let a = runner.run_sweep_with_threads(3, &workloads, &baseline, &configs);
    let b = runner.run_sweep_with_threads(3, &workloads, &baseline, &configs);
    for (ca, cb) in a.iter().zip(&b) {
        for (ra, rb) in ca.iter().zip(cb) {
            assert_eq!(
                ra.normalized_performance.to_bits(),
                rb.normalized_performance.to_bits()
            );
        }
    }
}
