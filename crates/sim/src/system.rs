//! The multi-core system model: cores + workload mix + memory controller.
//!
//! [`System::run`] executes the epoch-phased loop described in [`crate::sharded`]:
//! cores route requests to per-channel queues (issue phase), the channel shards
//! execute independently (execute phase — on the `impress-exec` epoch pool when more
//! than one thread is requested), and core timing feedback is reconciled at the
//! epoch barrier (merge phase). The output is bit-for-bit identical for any thread
//! count, and identical to the pre-shard serial loop.

use impress_dram::energy::{EnergyBreakdown, EnergyModel};
use impress_dram::stats::ChannelStats;
use impress_dram::timing::Cycle;
use impress_memctrl::{ChannelShard, MemoryController};
use impress_workloads::{AccessSource, WorkloadMix};

use crate::config::SystemConfig;
use crate::core_model::{CoreModel, IssueBound};
use crate::metrics::PerformanceResult;
use crate::sharded::{lock_task, make_tasks, EpochStats, QueuedAccess};

/// Everything a simulation run produces: performance, memory statistics and energy.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Workload name.
    pub workload: String,
    /// Per-core IPC and aggregate performance.
    pub performance: PerformanceResult,
    /// Memory-system statistics (activations, hits, mitigations, ...).
    pub memory: ChannelStats,
    /// DRAM energy breakdown for the run.
    pub energy: EnergyBreakdown,
    /// Issue-batching statistics of the epoch-phased loop. Scheduling metadata
    /// only: two runs of the same system agree on every *simulation* field above
    /// regardless of thread count.
    pub epoch_stats: EpochStats,
}

impl RunOutput {
    /// Row-buffer hit rate of the run.
    pub fn row_hit_rate(&self) -> f64 {
        self.memory.banks.row_hit_rate()
    }
}

/// The simulated system: cores driving the memory controller with an access source.
///
/// The source defaults to the synthetic [`WorkloadMix`]; any [`AccessSource`] —
/// e.g. the trace-replay source built by [`crate::trace_runner::TraceRunner`] —
/// drives the identical epoch-phased loop with the same determinism guarantees.
#[derive(Debug)]
pub struct System<S: AccessSource = WorkloadMix> {
    config: SystemConfig,
    cores: Vec<CoreModel>,
    mix: S,
    controller: MemoryController,
}

impl<S: AccessSource> System<S> {
    /// Builds a system running `mix` under `config`.
    pub fn new(config: SystemConfig, mix: S) -> Self {
        assert_eq!(
            config.cores,
            mix.cores(),
            "access source must provide one stream per core"
        );
        let cores = (0..config.cores)
            .map(|i| {
                let instructions_per_miss = mix.instructions_per_miss(i);
                let mpki = 1000.0 / instructions_per_miss;
                let think_gap = instructions_per_miss / config.retire_per_dram_cycle;
                CoreModel::new(i, think_gap, config.mlp_for_mpki(mpki))
            })
            .collect();
        let controller = MemoryController::new(config.controller.clone());
        Self {
            config,
            cores,
            mix,
            controller,
        }
    }

    /// Runs the workload until every core has issued its request quota, returning the
    /// run's performance, memory statistics and energy.
    ///
    /// Runs the epoch-phased loop on a single thread (the shard execute phase is
    /// inlined); see [`System::run_sharded`] for intra-run channel parallelism. The
    /// output is identical either way.
    pub fn run(self) -> RunOutput {
        self.run_with_threads(1)
    }

    /// Runs with the channel shards of each epoch executed on `IMPRESS_THREADS`
    /// workers (default: all available cores) — [`System::run_with_threads`] with
    /// [`impress_exec::thread_count`].
    pub fn run_sharded(self) -> RunOutput {
        self.run_with_threads(impress_exec::thread_count())
    }

    /// Runs the epoch-phased loop with up to `threads` workers executing channel
    /// shards (clamped to the channel count; `1` executes inline).
    ///
    /// The result is **bit-for-bit identical for every `threads` value**: the
    /// issue phase replays the serial scheduler exactly, shards share no state,
    /// and the merge phase resolves completions in global issue order. See
    /// [`crate::sharded`] for the argument.
    ///
    /// Each issue costs one O(cores) scan of a flat ready array for the next
    /// issuer (8 entries for every [`WorkloadMix`]) and constant work in the
    /// core model.
    pub fn run_with_threads(self, threads: usize) -> RunOutput {
        let System {
            config,
            mut cores,
            mut mix,
            controller,
        } = self;
        let quota = config.requests_per_core;
        let mut remaining: u64 = quota * cores.len() as u64;

        let (controller_config, shards) = controller.into_parts();
        let min_latency = ChannelShard::min_access_latency(&controller_config.timings);
        let bus_spacing = ChannelShard::min_completion_spacing(&controller_config.timings);
        let tasks = make_tasks(shards, min_latency);
        let channels = tasks.len();

        let tasks_ref = &tasks;
        let cores_ref = &mut cores;
        let mix_ref = &mut mix;
        let decoder = controller_config
            .mapping
            .decoder(&controller_config.organization);
        let mut epoch_stats = EpochStats::default();
        let epoch_stats_ref = &mut epoch_stats;

        impress_exec::epoch_scope(
            threads,
            channels,
            move |i| lock_task(tasks_ref, i).execute(),
            |scope| {
                // Driver-owned buffers, swapped with the shard tasks around each
                // epoch: the steady-state loop performs no allocation.
                let mut order: Vec<(usize, usize)> = Vec::new();
                let mut queues: Vec<Vec<QueuedAccess>> =
                    (0..channels).map(|_| Vec::new()).collect();
                let mut completions: Vec<Vec<u64>> = (0..channels).map(|_| Vec::new()).collect();
                let mut cursors: Vec<usize> = vec![0; channels];
                // Ready set, indexed by core id: each core's next issue time while
                // it is provably exact, `Cycle::MAX` while it is deferred or done.
                // The next issuer is the minimum over an O(cores) scan with ties
                // to the lowest core id — the serial scheduler's
                // pick-the-minimum-then-lowest-core rule.
                let mut ready: Vec<Cycle> = vec![Cycle::MAX; cores_ref.len()];
                // Last known completion per channel, feeding the bus-conveyor
                // completion lower bound: the k-th access queued on a channel this
                // epoch cannot complete before `last + k * bus_spacing`
                // (ChannelShard::min_completion_spacing). Under load this reaches
                // far beyond the per-access `min_latency` bound — the channel has
                // a backlog of bus slots — which is what keeps deep-MLP cores
                // provably exact while they drain their whole resolved window.
                let mut last_completion: Vec<Cycle> = vec![0; channels];

                while remaining > 0 {
                    // ---- Barrier state: every prior completion is resolved, so
                    // every eligible core's next issue time is exact.
                    let mut horizon = Cycle::MAX;
                    for (slot, core) in ready.iter_mut().zip(cores_ref.iter()) {
                        *slot = if core.issued() >= quota {
                            Cycle::MAX
                        } else {
                            match core.next_issue_bound() {
                                IssueBound::Exact(t) => t,
                                IssueBound::NotBefore(_) => {
                                    unreachable!("a core cannot have pending issues at a barrier")
                                }
                            }
                        };
                    }
                    let (epoch_start, _) =
                        earliest_ready(&ready).expect("remaining > 0 implies an eligible core");

                    // ---- Issue phase: replay the serial scheduler inside the
                    // (dependency-bounded) window. A core leaves the ready set
                    // when it issues and re-enters with its new exact time, or
                    // lowers the horizon to its pending-completion bound when its
                    // next issue is no longer provable — the epoch ends when the
                    // earliest ready issue reaches the horizon.
                    let mut last_issue = epoch_start;
                    order.clear();
                    while let Some((now, core_id)) = earliest_ready(&ready) {
                        if now >= horizon {
                            break;
                        }
                        let access = mix_ref.next_access(core_id);
                        let location = decoder
                            .decode(access.address)
                            .expect("workload addresses are within the configured capacity");
                        let channel = location.channel as usize;
                        queues[channel].push(QueuedAccess {
                            location,
                            is_write: access.is_write,
                            at: now,
                        });
                        order.push((core_id, channel));
                        last_issue = now;
                        // Completion lower bound: the access's own minimum latency
                        // joined with its position on the channel's bus conveyor.
                        let conveyor =
                            last_completion[channel] + queues[channel].len() as Cycle * bus_spacing;
                        let core = &mut cores_ref[core_id];
                        core.on_issue_pending(now, (now + min_latency).max(conveyor));
                        remaining -= 1;
                        ready[core_id] = if core.issued() >= quota {
                            Cycle::MAX
                        } else {
                            match core.next_issue_bound() {
                                IssueBound::Exact(t) => t,
                                IssueBound::NotBefore(bound) => {
                                    horizon = horizon.min(bound);
                                    Cycle::MAX
                                }
                            }
                        };
                    }
                    debug_assert!(!order.is_empty(), "every epoch issues at least once");
                    epoch_stats_ref.epochs += 1;
                    epoch_stats_ref.issues += order.len() as u64;
                    epoch_stats_ref.window_cycles += last_issue - epoch_start + 1;

                    // ---- Execute phase: shards run independently (possibly on the
                    // epoch pool); each sees its serial per-channel request sequence.
                    for (channel, queue) in queues.iter_mut().enumerate() {
                        std::mem::swap(&mut lock_task(tasks_ref, channel).queue, queue);
                    }
                    scope.run_epoch();
                    for channel in 0..channels {
                        let mut task = lock_task(tasks_ref, channel);
                        std::mem::swap(&mut task.completions, &mut completions[channel]);
                        std::mem::swap(&mut task.queue, &mut queues[channel]);
                        queues[channel].clear();
                    }

                    // ---- Merge phase: feed completions back in global issue order
                    // and advance each channel's conveyor reference point.
                    cursors.fill(0);
                    for &(core_id, channel) in &order {
                        let completed_at = completions[channel][cursors[channel]];
                        cursors[channel] += 1;
                        cores_ref[core_id].resolve_pending(completed_at);
                    }
                    for (channel, batch) in completions.iter().enumerate() {
                        if let Some(&last) = batch.last() {
                            debug_assert!(last >= last_completion[channel]);
                            last_completion[channel] = last;
                        }
                    }
                }
                debug_assert_eq!(
                    scope.rounds_run(),
                    epoch_stats_ref.epochs,
                    "every epoch runs exactly one pool round"
                );
            },
        );

        let shards: Vec<ChannelShard> = tasks
            .into_iter()
            .map(|task| task.into_inner().expect("shard task mutex poisoned").shard)
            .collect();
        let memory = ChannelStats::merged(shards.iter().map(ChannelShard::stats));

        let elapsed = cores.iter().map(CoreModel::finish_time).max().unwrap_or(0);
        let per_core_ipc = cores
            .iter()
            .enumerate()
            .map(|(i, core)| {
                let instructions = core.issued() as f64 * mix.instructions_per_miss(i);
                let cycles = core.finish_time().max(1) as f64;
                instructions / cycles
            })
            .collect();

        let energy = EnergyModel::ddr5().energy(
            &memory.banks,
            elapsed,
            controller_config.organization.total_banks(),
            &controller_config.timings,
        );

        RunOutput {
            workload: mix.name().to_string(),
            performance: PerformanceResult {
                per_core_ipc,
                elapsed_cycles: elapsed,
                requests: memory.requests,
            },
            memory,
            energy,
            epoch_stats,
        }
    }
}

/// The ready core with the smallest `(cycle, core id)`, or `None` when no core
/// is ready (every entry `Cycle::MAX`). The strict `<` of the ascending scan
/// keeps the lowest core id among equal cycles.
#[inline]
fn earliest_ready(ready: &[Cycle]) -> Option<(Cycle, usize)> {
    let mut best = (Cycle::MAX, 0);
    for (core_id, &t) in ready.iter().enumerate() {
        if t < best.0 {
            best = (t, core_id);
        }
    }
    (best.0 < Cycle::MAX).then_some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_memctrl::{ControllerConfig, PagePolicy};

    fn quick_config(requests: u64) -> SystemConfig {
        SystemConfig {
            requests_per_core: requests,
            controller: ControllerConfig::baseline(),
            ..SystemConfig::baseline()
        }
    }

    #[test]
    fn run_completes_and_reports_sane_statistics() {
        let mix = WorkloadMix::by_name("gcc", 1).unwrap();
        let out = System::new(quick_config(2_000), mix).run();
        assert_eq!(out.performance.per_core_ipc.len(), 8);
        assert_eq!(out.memory.requests, 8 * 2_000);
        assert!(out.performance.elapsed_cycles > 0);
        assert!(out.row_hit_rate() >= 0.0 && out.row_hit_rate() <= 1.0);
        assert!(out.energy.total_nj() > 0.0);
    }

    #[test]
    fn stream_has_higher_row_hit_rate_than_mcf() {
        let stream = System::new(
            quick_config(4_000),
            WorkloadMix::by_name("copy", 2).unwrap(),
        )
        .run();
        let mcf = System::new(quick_config(4_000), WorkloadMix::by_name("mcf", 2).unwrap()).run();
        assert!(
            stream.row_hit_rate() > mcf.row_hit_rate() + 0.2,
            "stream {} vs mcf {}",
            stream.row_hit_rate(),
            mcf.row_hit_rate()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = System::new(quick_config(1_000), WorkloadMix::by_name("wrf", 7).unwrap()).run();
        let b = System::new(quick_config(1_000), WorkloadMix::by_name("wrf", 7).unwrap()).run();
        assert_eq!(a.performance.elapsed_cycles, b.performance.elapsed_cycles);
        assert_eq!(a.memory.banks.activations, b.memory.banks.activations);
    }

    #[test]
    fn sharded_run_is_bit_identical_at_any_thread_count() {
        let reference =
            System::new(quick_config(1_500), WorkloadMix::by_name("mcf", 3).unwrap()).run();
        for threads in [2, 3, 8] {
            let out = System::new(quick_config(1_500), WorkloadMix::by_name("mcf", 3).unwrap())
                .run_with_threads(threads);
            assert_eq!(
                out.performance.elapsed_cycles, reference.performance.elapsed_cycles,
                "threads = {threads}"
            );
            assert_eq!(
                out.performance.per_core_ipc,
                reference.performance.per_core_ipc
            );
            assert_eq!(out.memory, reference.memory);
            assert_eq!(
                out.energy.total_nj().to_bits(),
                reference.energy.total_nj().to_bits()
            );
        }
    }

    #[test]
    fn sharded_run_matches_serial_under_protection() {
        use impress_core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
        let protected = || {
            let protection = ProtectionConfig::paper_default(
                TrackerChoice::Para,
                DefenseKind::impress_p_default(),
            );
            quick_config(1_200)
                .with_controller(ControllerConfig::baseline().with_protection(protection))
        };
        let serial =
            System::new(protected(), WorkloadMix::by_name("copy", 5).unwrap()).run_with_threads(1);
        let sharded =
            System::new(protected(), WorkloadMix::by_name("copy", 5).unwrap()).run_sharded();
        assert_eq!(
            serial.performance.elapsed_cycles,
            sharded.performance.elapsed_cycles
        );
        assert_eq!(serial.memory, sharded.memory);
        assert!(serial.memory.banks.mitigative_activations > 0);
    }

    /// The dependency-bounded issue window batches many issues per barrier on
    /// stream workloads. A window capped at the minimum access latency past each
    /// epoch's first issue (the PR 3 loop) issued 8.097 (`copy`)
    /// and 7.336 (`add_triad`) per epoch on exactly this system, with the same
    /// output; the dependency-bounded window must stay at least 4x above that.
    /// The counts are deterministic, so this is an exact regression check.
    #[test]
    fn stream_workloads_batch_four_times_the_fixed_window() {
        use impress_core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
        for (workload, fixed_window) in [("copy", 8.097), ("add_triad", 7.336)] {
            let protection = ProtectionConfig::paper_default(
                TrackerChoice::Graphene,
                DefenseKind::impress_p_default(),
            );
            let config = quick_config(2_000)
                .with_controller(ControllerConfig::baseline().with_protection(protection));
            let mix = WorkloadMix::by_name(workload, 0x5AA5).unwrap();
            let stats = System::new(config, mix).run_with_threads(1).epoch_stats;
            assert!(
                stats.mean_issues_per_epoch() >= 4.0 * fixed_window,
                "{workload}: {:.3} issues per epoch, fixed window {fixed_window}",
                stats.mean_issues_per_epoch()
            );
        }
    }

    #[test]
    fn epoch_stats_account_for_every_issue() {
        let out = System::new(quick_config(800), WorkloadMix::by_name("mcf", 1).unwrap()).run();
        assert_eq!(out.epoch_stats.issues, 8 * 800);
        assert!(out.epoch_stats.epochs > 0);
        assert!(out.epoch_stats.window_cycles >= out.epoch_stats.epochs);
        assert!(out.epoch_stats.mean_issues_per_epoch() >= 1.0);
    }

    #[test]
    fn closed_page_slows_down_stream() {
        let open = System::new(
            quick_config(4_000),
            WorkloadMix::by_name("triad", 3).unwrap(),
        )
        .run();
        let closed_cfg = quick_config(4_000)
            .with_controller(ControllerConfig::baseline().with_page_policy(PagePolicy::Closed));
        let closed = System::new(closed_cfg, WorkloadMix::by_name("triad", 3).unwrap()).run();
        let speedup = closed.performance.weighted_speedup(&open.performance);
        assert!(speedup < 0.98, "closed-page speedup = {speedup}");
    }
}
