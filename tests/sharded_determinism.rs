//! End-to-end determinism gate for the epoch-phased sharded run loop, mirroring
//! `tests/parallel_determinism.rs` (which gates the *sweep-level* axis).
//!
//! Two properties are pinned:
//!
//! 1. **Serial fidelity** — `System::run` (the epoch-phased loop with its
//!    dependency-bounded issue window) is bit-for-bit identical to the
//!    pre-shard serial loop: one `while` over the global minimum-issue-time
//!    core, one `MemoryController::access_physical` call per request. The
//!    reference below is a literal transcription of that loop built from the
//!    same public pieces (`CoreModel`, `WorkloadMix`, `MemoryController`).
//! 2. **Thread-count invariance** — `System::run_with_threads(n)` produces
//!    identical output for every `n`, including configurations where shards
//!    carry defense/tracker state and the system has more channels than the
//!    baseline.
//!
//! Both are pinned on named configurations and on a seeded randomized sweep
//! over workload mixes × channel counts × protection × thread counts.

use impress_repro::core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
use impress_repro::dram::energy::EnergyModel;
use impress_repro::dram::organization::DramOrganization;
use impress_repro::dram::stats::ChannelStats;
use impress_repro::memctrl::{ControllerConfig, MemoryController};
use impress_repro::sim::{Configuration, CoreModel, ExperimentRunner, System, SystemConfig};
use impress_repro::workloads::WorkloadMix;

/// What a run observably produces; everything compared bit-for-bit.
#[derive(Debug, PartialEq)]
struct Observed {
    elapsed_cycles: u64,
    per_core_ipc_bits: Vec<u64>,
    memory: ChannelStats,
    energy_bits: u64,
}

impl Observed {
    fn of(out: &impress_repro::sim::RunOutput) -> Self {
        Self {
            elapsed_cycles: out.performance.elapsed_cycles,
            per_core_ipc_bits: out
                .performance
                .per_core_ipc
                .iter()
                .map(|v| v.to_bits())
                .collect(),
            memory: out.memory,
            energy_bits: out.energy.total_nj().to_bits(),
        }
    }
}

/// A literal transcription of the pre-shard serial `System::run` loop (PR 2 state):
/// the reference the epoch-phased loop must reproduce exactly.
fn reference_serial_run(config: SystemConfig, mut mix: WorkloadMix) -> Observed {
    assert_eq!(config.cores, mix.cores());
    let mut cores: Vec<CoreModel> = (0..config.cores)
        .map(|i| {
            let instructions_per_miss = mix.instructions_per_miss(i);
            let mpki = 1000.0 / instructions_per_miss;
            let think_gap = instructions_per_miss / config.retire_per_dram_cycle;
            CoreModel::new(i, think_gap, config.mlp_for_mpki(mpki))
        })
        .collect();
    let mut controller = MemoryController::new(config.controller.clone());

    let quota = config.requests_per_core;
    let mut remaining: u64 = quota * cores.len() as u64;
    while remaining > 0 {
        let mut best: Option<(usize, u64)> = None;
        for core in &cores {
            if core.issued() >= quota {
                continue;
            }
            let t = core.next_issue_time();
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((core.id(), t));
            }
        }
        let (core_id, now) = best.expect("remaining > 0 implies an eligible core");
        let access = mix.next_access(core_id);
        let outcome = controller
            .access_physical(access.address, access.is_write, now)
            .expect("workload addresses are within the configured capacity");
        cores[core_id].on_issue(now, outcome.completed_at);
        remaining -= 1;
    }

    let elapsed = cores.iter().map(CoreModel::finish_time).max().unwrap_or(0);
    let per_core_ipc_bits = cores
        .iter()
        .enumerate()
        .map(|(i, core)| {
            let instructions = core.issued() as f64 * mix.instructions_per_miss(i);
            let cycles = core.finish_time().max(1) as f64;
            (instructions / cycles).to_bits()
        })
        .collect();
    let memory = controller.stats();
    let energy = EnergyModel::ddr5().energy(
        &memory.banks,
        elapsed,
        controller.total_banks(),
        &config.controller.timings,
    );
    Observed {
        elapsed_cycles: elapsed,
        per_core_ipc_bits,
        memory,
        energy_bits: energy.total_nj().to_bits(),
    }
}

fn controller_configs() -> Vec<(&'static str, ControllerConfig)> {
    let four_channel = DramOrganization {
        channels: 4,
        ..DramOrganization::baseline()
    };
    vec![
        ("unprotected", ControllerConfig::baseline()),
        (
            "graphene+impress-p",
            ControllerConfig::baseline().with_protection(ProtectionConfig::paper_default(
                TrackerChoice::Graphene,
                DefenseKind::impress_p_default(),
            )),
        ),
        (
            "mithril+impress-p/4ch",
            ControllerConfig {
                organization: four_channel,
                ..ControllerConfig::baseline()
            }
            .with_protection(ProtectionConfig::paper_default(
                TrackerChoice::Mithril,
                DefenseKind::impress_p_default(),
            )),
        ),
    ]
}

fn system_config(controller: ControllerConfig, requests: u64) -> SystemConfig {
    SystemConfig {
        requests_per_core: requests,
        controller,
        ..SystemConfig::baseline()
    }
}

#[test]
fn epoch_phased_run_reproduces_the_serial_reference_exactly() {
    for (label, controller) in controller_configs() {
        for workload in ["gcc", "copy"] {
            let mix = || WorkloadMix::by_name(workload, 11).unwrap();
            let cfg = || system_config(controller.clone(), 1_500);
            let reference = reference_serial_run(cfg(), mix());
            for threads in [1usize, 2, 4, 8] {
                let out = System::new(cfg(), mix()).run_with_threads(threads);
                assert_eq!(
                    Observed::of(&out),
                    reference,
                    "{label}/{workload} diverged from the serial reference at \
                     {threads} shard threads"
                );
            }
        }
    }
}

/// Seeded randomized sweep of both properties: for random (workload, channel
/// count, protection, request quota) draws, the epoch-phased loop and the
/// literal serial transcription agree bit-for-bit at 1/2/4/8 shard threads.
/// The vendored `proptest` stand-in pins each property at 256 cases — far too
/// many full-system runs — so this drives the same generate-and-check shape
/// from an explicit deterministic RNG.
#[test]
fn random_mixes_agree_across_serial_fixed_and_adaptive_horizons() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let workloads = ["gcc", "mcf", "copy", "add_triad", "bwaves", "scale"];
    let trackers = [
        None,
        Some(TrackerChoice::Graphene),
        Some(TrackerChoice::Para),
        Some(TrackerChoice::Mithril),
    ];
    let mut rng = SmallRng::seed_from_u64(0x1A7E_5EED_0004);
    for case in 0..16 {
        let workload = workloads[rng.gen_range(0..workloads.len())];
        let channels = [1u8, 2, 4][rng.gen_range(0..3usize)];
        let tracker = trackers[rng.gen_range(0..trackers.len())];
        let requests = rng.gen_range(300..900u64);
        let seed = rng.gen_range(0..u64::MAX);

        let mut controller = ControllerConfig {
            organization: DramOrganization {
                channels,
                ..DramOrganization::baseline()
            },
            ..ControllerConfig::baseline()
        };
        if let Some(tracker) = tracker {
            controller = controller.with_protection(ProtectionConfig::paper_default(
                tracker,
                DefenseKind::impress_p_default(),
            ));
        }
        let label = format!(
            "case {case}: {workload} x{channels}ch tracker={tracker:?} \
             requests={requests} seed={seed}"
        );

        let mix = || WorkloadMix::by_name(workload, seed).unwrap();
        let cfg = || system_config(controller.clone(), requests);
        let reference = reference_serial_run(cfg(), mix());
        for threads in [1usize, 2, 4, 8] {
            let out = System::new(cfg(), mix()).run_with_threads(threads);
            assert_eq!(
                Observed::of(&out),
                reference,
                "{label} diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn run_sharded_honors_impress_threads_and_stays_identical() {
    // Whatever IMPRESS_THREADS resolves to on this host, the default sharded entry
    // point must agree with the inline serial path.
    let controller = ControllerConfig::baseline().with_protection(ProtectionConfig::paper_default(
        TrackerChoice::Para,
        DefenseKind::impress_p_default(),
    ));
    let mix = || WorkloadMix::by_name("add_triad", 3).unwrap();
    let cfg = || system_config(controller.clone(), 1_200);
    let serial = System::new(cfg(), mix()).run_with_threads(1);
    let sharded = System::new(cfg(), mix()).run_sharded();
    assert_eq!(Observed::of(&serial), Observed::of(&sharded));
}

#[test]
fn sweep_results_are_invariant_to_shard_threads() {
    // The two parallelism axes compose: a sweep with per-run shard execution enabled
    // is bit-identical to the plain sweep.
    let baseline = Configuration::unprotected();
    let configs = vec![Configuration::protected(
        "Graphene+ImPress-P",
        ProtectionConfig::paper_default(TrackerChoice::Graphene, DefenseKind::impress_p_default()),
    )];
    let workloads = ["mcf", "triad"];

    let plain = ExperimentRunner::new()
        .with_requests_per_core(1_000)
        .run_sweep_with_threads(2, &workloads, &baseline, &configs);
    let sharded = ExperimentRunner::new()
        .with_requests_per_core(1_000)
        .with_shard_threads(4)
        .run_sweep_with_threads(2, &workloads, &baseline, &configs);

    for (pc, sc) in plain.iter().zip(&sharded) {
        for (p, s) in pc.iter().zip(sc) {
            assert_eq!(p.workload, s.workload);
            assert_eq!(
                p.normalized_performance.to_bits(),
                s.normalized_performance.to_bits(),
                "{}/{} changed under shard threads",
                p.configuration,
                p.workload
            );
            assert_eq!(p.output.memory, s.output.memory);
            assert_eq!(
                p.output.performance.elapsed_cycles,
                s.output.performance.elapsed_cycles
            );
        }
    }
}
