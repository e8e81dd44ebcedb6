//! `sweep`: the Fig. 13 defense grid, closed loop.
//!
//! The ten figure workloads run under Graphene, PARA and MINT with every
//! defense `defense_configurations` accepts, each cell normalized to its
//! tracker's No-RP cell. Cells are exactly the calls
//! `ExperimentRunner::run_sweep_with_options` makes, but with the workload
//! mixes seeded from the benchmark's seed (the runner hard-codes its own).
//! The closed-loop core model, the workload generators and the per-record
//! engine/tracker path do the work; codec and transport do none.

use std::hint::black_box;
use std::time::Duration;

use impress_bench::{defense_configurations, figure_workloads};
use impress_core::config::TrackerChoice;
use impress_exec::par_map_with;
use impress_sim::{Configuration, RunOutput, System, SystemConfig};
use impress_workloads::WorkloadMix;

use crate::spans::{SpanId, Tracer};
use crate::{
    guarded, median, ns_per, rate, signed_ns_per, timed, Digest, Layers, Piece, Size, Summary,
    Workload, EXEC_WORKERS, RECHECK_SHARD_THREADS, SHARD_THREADS, WORKERS,
};

/// Trackers of the Fig. 13 grid.
pub const TRACKERS: [TrackerChoice; 3] = [
    TrackerChoice::Graphene,
    TrackerChoice::Para,
    TrackerChoice::Mint,
];

/// Rowhammer threshold of the grid (the paper's default).
pub const TRH: u64 = 4_000;

/// Requests per core of one cell at full size: a quarter of the figure
/// binaries' `requests_per_core()` (40 000), the smallest quota whose
/// per-request work matches theirs within the throughput bound. Over the whole
/// grid, on a 2-CPU host, against 40 000: RFMs per request −11%, mitigative
/// activations per request −1%, `System::new` 3% of cell time (0.7%), host ns
/// per request within 6%. At 2 000 RFMs per request fall by 54% and
/// `System::new` takes 14% of cell time.
const FULL_QUOTA: u64 = 10_000;

/// One cell's inputs, built during set-up as the runner builds them inside
/// each cell: the seeded mix and the system under the cell's configuration.
#[derive(Debug)]
struct Cell {
    configuration: usize,
    workload: usize,
    system: SystemConfig,
    mix: WorkloadMix,
}

/// The sweep's inputs.
#[derive(Debug)]
pub struct Sweep {
    seed: u64,
    quota: u64,
    workloads: Vec<&'static str>,
    configurations: Vec<Configuration>,
    /// For each configuration, the index of its tracker's No-RP configuration.
    baseline_of: Vec<usize>,
    /// Every cell, configuration-major.
    cells: Vec<Cell>,
}

/// One round: every cell's output, in cell order.
#[derive(Debug)]
pub struct SweepRound {
    /// Output (or failure) of every cell.
    pub outputs: Vec<Result<RunOutput, String>>,
    /// Wall time of every cell.
    pub walls: Vec<Duration>,
}

impl Sweep {
    /// Workload names, in grid order.
    pub fn workloads(&self) -> &[&'static str] {
        &self.workloads
    }

    /// Configurations, in grid order (trackers in [`TRACKERS`] order).
    pub fn configurations(&self) -> &[Configuration] {
        &self.configurations
    }

    /// Requests per core of every cell.
    pub fn quota(&self) -> u64 {
        self.quota
    }

    /// Index of the cell `(configuration, workload)`.
    pub fn cell(&self, configuration: usize, workload: usize) -> usize {
        configuration * self.workloads.len() + workload
    }

    /// Runs cell `index` at `shard_threads`.
    fn run_cell(&self, index: usize, shard_threads: usize) -> RunOutput {
        let cell = &self.cells[index];
        System::new(cell.system.clone(), cell.mix.clone()).run_with_threads(shard_threads)
    }

    /// Weighted speedup of every cell over its tracker's No-RP cell, in cell
    /// order (`None` where either run failed).
    pub fn normalized(&self, round: &SweepRound) -> Vec<Option<f64>> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let base = self.cell(self.baseline_of[cell.configuration], cell.workload);
                match (&round.outputs[i], &round.outputs[base]) {
                    (Ok(out), Ok(base)) => {
                        Some(out.performance.weighted_speedup(&base.performance))
                    }
                    _ => None,
                }
            })
            .collect()
    }

    /// Runs every cell on `workers`, each inside a span `name`.
    fn run_cells(
        &self,
        workers: usize,
        tracer: &Tracer,
        name: &'static str,
        parent: Option<SpanId>,
    ) -> SweepRound {
        let indices: Vec<usize> = (0..self.cells.len()).collect();
        let (outputs, walls) = par_map_with(workers, &indices, |&i| {
            timed(|| {
                tracer.span(name, i, parent, |_| {
                    guarded(|| Ok(self.run_cell(i, SHARD_THREADS)))
                })
            })
        })
        .into_iter()
        .unzip();
        SweepRound { outputs, walls }
    }

    /// The seed-chosen cell re-run at two shard threads after timing.
    fn recheck_cell(&self) -> usize {
        (self.seed % self.cells.len() as u64) as usize
    }
}

/// The simulation fields of a run (never `epoch_stats`, which scheduling
/// changes may legitimately move).
pub fn simulated(out: &RunOutput) -> String {
    format!(
        "{:?} {:?} {:?} {:?}",
        out.workload, out.performance, out.memory, out.energy
    )
}

impl Workload for Sweep {
    type Round = SweepRound;

    fn setup(seed: u64, size: Size) -> Self {
        let (workloads, quota) = match size {
            Size::Full => (figure_workloads(), FULL_QUOTA),
            Size::Tiny => (vec!["mcf", "copy"], 150),
        };
        let mut configurations = Vec::new();
        let mut baseline_of = Vec::new();
        for tracker in TRACKERS {
            let base = configurations.len();
            for configuration in defense_configurations(tracker, TRH) {
                baseline_of.push(base);
                configurations.push(configuration);
            }
        }
        let mut cells = Vec::with_capacity(configurations.len() * workloads.len());
        for (c, configuration) in configurations.iter().enumerate() {
            for (w, workload) in workloads.iter().enumerate() {
                cells.push(Cell {
                    configuration: c,
                    workload: w,
                    system: SystemConfig {
                        requests_per_core: quota,
                        ..SystemConfig::baseline()
                    }
                    .with_controller(configuration.controller_config()),
                    mix: WorkloadMix::by_name(workload, seed).expect("figure workloads exist"),
                });
            }
        }
        Self {
            seed,
            quota,
            workloads,
            configurations,
            baseline_of,
            cells,
        }
    }

    fn round(&self, tracer: &Tracer, parent: Option<SpanId>) -> SweepRound {
        self.run_cells(WORKERS, tracer, "sim::system", parent)
    }

    fn summary(&self, round: &SweepRound) -> Summary {
        let mut digest = Digest::default();
        let mut pieces = Vec::new();
        let mut failed = 0;
        for ((out, normalized), &wall) in round
            .outputs
            .iter()
            .zip(self.normalized(round))
            .zip(&round.walls)
        {
            let items = match out {
                Ok(out) => {
                    digest.add(&simulated(out));
                    out.memory.requests
                }
                Err(e) => {
                    failed += 1;
                    digest.add(e);
                    0
                }
            };
            digest.add(&normalized.map(f64::to_bits));
            pieces.push(Piece { items, wall });
        }
        Summary {
            pieces,
            attempted: round.outputs.len() as u64,
            failed,
            digest: digest.value(),
        }
    }

    fn check(&self, round: &SweepRound) -> Vec<String> {
        let mut failures = Vec::new();
        for (i, out) in round.outputs.iter().enumerate() {
            let cell = &self.cells[i];
            let (c, w) = (cell.configuration, cell.workload);
            let label = format!(
                "{} under {}",
                self.workloads[w], self.configurations[c].label
            );
            match out {
                Ok(out) => {
                    let expected = cell.system.cores as u64 * self.quota;
                    if out.memory.requests != expected {
                        failures.push(format!(
                            "sweep {label}: {} requests, expected cores x quota = {expected}",
                            out.memory.requests
                        ));
                    }
                }
                Err(e) => failures.push(format!("sweep {label} failed: {e}")),
            }
        }
        let i = self.recheck_cell();
        let rerun = guarded(|| Ok(self.run_cell(i, RECHECK_SHARD_THREADS)));
        match (&round.outputs[i], rerun) {
            (Ok(timed), Ok(rerun)) if simulated(timed) == simulated(&rerun) => {}
            (Ok(_), Ok(_)) => failures.push(format!(
                "sweep cell {i} at {RECHECK_SHARD_THREADS} shard threads differs from its timed output"
            )),
            (_, Err(e)) => failures.push(format!("sweep cell {i} re-run failed: {e}")),
            (Err(_), _) => {}
        }
        failures
    }

    fn layers(&self, round: &SweepRound, tracer: &Tracer, out: &mut Layers) -> Vec<String> {
        let cells = tracer.named("sim::system");
        let durations: Vec<Duration> = cells.iter().map(|s| s.duration()).collect();
        let busy: Duration = durations.iter().sum();
        let ok: Vec<&RunOutput> = round
            .outputs
            .iter()
            .filter_map(|o| o.as_ref().ok())
            .collect();
        let requests: u64 = ok.iter().map(|o| o.memory.requests).sum();
        let cell_ms: Vec<f64> = durations.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        out.set("system.ns_per_request", ns_per(busy, requests));
        out.set("system.cell_ms.p50", median(&cell_ms));
        out.set(
            "system.cell_ms.max",
            cell_ms.iter().copied().fold(0.0, f64::max),
        );
        let epochs: u64 = ok.iter().map(|o| o.epoch_stats.epochs).sum();
        let issues: u64 = ok.iter().map(|o| o.epoch_stats.issues).sum();
        out.set("system.epochs", epochs as f64);
        out.set("system.issues_per_epoch", rate(issues, epochs));
        let mut failures = Vec::new();

        // The pool: the same cells on two workers, which must also reproduce
        // the round's outputs.
        let pooled = tracer.span("exec", 0, None, |stage| {
            self.run_cells(EXEC_WORKERS, tracer, "exec.cell", stage)
        });
        let pooled_busy = tracer.total("exec.cell").as_secs_f64();
        let stage_wall = tracer.total("exec").as_secs_f64();
        out.set(
            "exec.idle_frac",
            1.0 - pooled_busy / (EXEC_WORKERS as f64 * stage_wall),
        );
        let same = pooled
            .outputs
            .iter()
            .zip(&round.outputs)
            .all(|(a, b)| match (a, b) {
                (Ok(a), Ok(b)) => simulated(a) == simulated(b),
                _ => false,
            });
        if !same {
            failures.push(format!(
                "sweep cells on {EXEC_WORKERS} workers differ from the round's"
            ));
        }

        // The generator alone, over exactly the access streams the cells drew.
        let mut accesses = 0u64;
        for (i, cell) in self.cells.iter().enumerate() {
            let mut mix = cell.mix.clone();
            let cores = mix.cores();
            tracer.span("workloads::mix", i, None, |_| {
                for _ in 0..self.quota {
                    for core in 0..cores {
                        black_box(mix.next_access(core));
                    }
                }
            });
            accesses += self.quota * cores as u64;
        }
        out.set(
            "mix.ns_per_access",
            ns_per(tracer.total("workloads::mix"), accesses),
        );

        // Engine + tracker cost: each protected cell minus its workload run
        // unprotected, on the round's workers.
        let unprotected = SystemConfig {
            requests_per_core: self.quota,
            ..SystemConfig::baseline()
        }
        .with_controller(Configuration::unprotected().controller_config());
        let indices: Vec<usize> = (0..self.workloads.len()).collect();
        let runs = par_map_with(WORKERS, &indices, |&w| {
            tracer.span("sim::system.unprotected", w, None, |_| {
                guarded(|| {
                    Ok(
                        System::new(unprotected.clone(), self.cells[self.cell(0, w)].mix.clone())
                            .run_with_threads(SHARD_THREADS),
                    )
                })
            })
        });
        failures.extend(runs.iter().filter_map(|r| {
            r.as_ref()
                .err()
                .map(|e| format!("unprotected sweep cell failed: {e}"))
        }));
        let base = tracer.named("sim::system.unprotected");
        let mut extra_ns = 0.0;
        let mut protected_requests = 0u64;
        for (span, out) in cells.iter().zip(&round.outputs) {
            let w = self.cells[span.item].workload;
            if let Ok(out) = out {
                extra_ns +=
                    span.duration().as_nanos() as f64 - base[w].duration().as_nanos() as f64;
                protected_requests += out.memory.requests;
            }
        }
        out.set(
            "engine.ns_per_request",
            signed_ns_per(extra_ns, protected_requests),
        );
        if cells.len() != self.cells.len() {
            failures.push("traced sweep round lost cell spans".to_string());
        }
        failures
    }
}
