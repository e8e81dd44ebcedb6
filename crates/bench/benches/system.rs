//! Criterion macro-benchmark: a small end-to-end system simulation (8 cores, STREAM
//! copy, Graphene + ImPress-P) — the unit of work behind every performance figure —
//! and an unprotected `mcf` run, where no defense engine runs.

use criterion::{criterion_group, criterion_main, Criterion};
use impress_core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
use impress_memctrl::ControllerConfig;
use impress_sim::{System, SystemConfig};
use impress_workloads::WorkloadMix;
use std::hint::black_box;

fn bench_system(c: &mut Criterion) {
    let mut group = c.benchmark_group("system_run");
    group.sample_size(10);
    let build = || {
        let protection = ProtectionConfig::paper_default(
            TrackerChoice::Graphene,
            DefenseKind::impress_p_default(),
        );
        let config = SystemConfig {
            requests_per_core: 2_000,
            controller: ControllerConfig::baseline().with_protection(protection),
            ..SystemConfig::baseline()
        };
        let mix = WorkloadMix::by_name("copy", 1).unwrap();
        System::new(config, mix)
    };
    group.bench_function("copy_graphene_impress_p_2k_requests", |b| {
        b.iter(|| black_box(build().run().performance.elapsed_cycles));
    });
    // Same run with the channel shards on two workers (bit-identical output; this
    // pair measures the epoch-pool overhead/speedup on this host).
    group.bench_function("copy_graphene_impress_p_2k_requests_sharded", |b| {
        b.iter(|| black_box(build().run_with_threads(2).performance.elapsed_cycles));
    });
    // With the engine idle, the issue path (core model, ready scan, generators,
    // address decoding) is a larger share of the run than under protection.
    let baseline = || {
        let config = SystemConfig {
            requests_per_core: 10_000,
            controller: ControllerConfig::baseline(),
            ..SystemConfig::baseline()
        };
        System::new(config, WorkloadMix::by_name("mcf", 1).unwrap())
    };
    group.bench_function("mcf_unprotected_10k_requests", |b| {
        b.iter(|| black_box(baseline().run().performance.elapsed_cycles));
    });
    group.finish();
}

criterion_group!(benches, bench_system);
criterion_main!(benches);
