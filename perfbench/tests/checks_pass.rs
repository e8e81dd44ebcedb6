//! On the unchanged library, a tiny run of every workload passes all of its
//! output checks for three seeds, repeats its digest exactly, and a traced run
//! reports every per-layer metric.

use perfbench::{run_named, Size, PER_LAYER, WORKLOADS};

const SEEDS: [u64; 3] = [1, 0x5eed, 0xdead_beef];

#[test]
fn every_workload_passes_its_checks_for_three_seeds() {
    for workload in WORKLOADS {
        for seed in SEEDS {
            let a = run_named(workload, seed, 0.0, false, Size::Tiny).expect("known workload");
            assert!(a.correct, "{workload} seed {seed}: {:?}", a.failures);
            assert_eq!(a.failed, 0);
            assert!(a.attempted > 0);
            assert_eq!(a.metrics.len(), 3);
            assert!(
                a.metrics.iter().all(|m| m.value > 0.0),
                "{workload}: {:?}",
                a.metrics
            );
            let b = run_named(workload, seed, 0.0, false, Size::Tiny).expect("known workload");
            assert_eq!(
                a.digest, b.digest,
                "{workload} seed {seed}: digest must repeat"
            );
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for workload in WORKLOADS {
        let o = run_named(workload, 7, 0.0, true, Size::Tiny).expect("known workload");
        assert!(o.correct, "{workload}: {:?}", o.failures);
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        assert!(
            !o.tracer.named("round").is_empty(),
            "{workload} recorded no spans"
        );
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run_named("linpack", 1, 0.0, false, Size::Tiny).is_none());
}
