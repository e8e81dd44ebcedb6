//! `ingest`: open-loop trace ingestion of two seeded traces.
//!
//! `copy` (streaming, row-hit heavy) and `mcf` (SPEC, activation heavy) are
//! recorded in memory with explicit per-record gaps and ingested with
//! `TraceRunner::ingest` at one shard thread under every named configuration.
//! Codec, address mapping, the open-loop epoch loop and the batched tracker
//! kernels do the work; there is no core model. The two localities vary how
//! much tracker work a record carries.

use std::hint::black_box;
use std::time::Duration;

use impress_bench::{named_configuration, record_workload_trace, CONFIGURATION_NAMES};
use impress_dram::address::{DramAddress, PhysicalAddress};
use impress_dram::stats::ChannelStats;
use impress_dram::timing::Cycle;
use impress_memctrl::{ChannelShard, MemoryController};
use impress_sim::{Configuration, IngestReport, TraceRunner};
use impress_workloads::codec::{TraceReader, TraceRecord, TraceWriter};
use impress_workloads::source::SliceSource;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::spans::{SpanId, Tracer};
use crate::{
    guarded, ns_per, rate, signed_ns_per, timed, Digest, Layers, Piece, Size, Summary, Workload,
    RECHECK_SHARD_THREADS, SHARD_THREADS,
};

/// Records per core of each trace at full size (8 cores).
const FULL_PER_CORE: u64 = 40_000;

/// A trace recorded from a seeded workload mix, encoded in memory.
#[derive(Debug)]
pub struct EncodedTrace {
    /// Workload the trace was recorded from.
    pub workload: &'static str,
    /// The records, with their explicit gaps.
    pub records: Vec<TraceRecord>,
    /// The encoded stream.
    pub bytes: Vec<u8>,
    /// Records the writer reported written.
    pub written: u64,
}

/// Records `per_core` accesses per core of `workload` and encodes them with
/// seeded inter-arrival gaps of 1–7 cycles (mean 4, the runner's gapless
/// default), so every consumer replays the same arrival times.
pub fn record_trace(workload: &'static str, seed: u64, per_core: u64) -> EncodedTrace {
    let (mut meta, mut records) =
        record_workload_trace(workload, seed, per_core).expect("trace workloads exist");
    meta.has_gaps = true;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6a70);
    for r in &mut records {
        r.gap = rng.gen_range(1..=7);
    }
    let mut writer = TraceWriter::new(Vec::new(), &meta).expect("in-memory writes cannot fail");
    for &r in &records {
        writer.push(r).expect("in-memory writes cannot fail");
    }
    let written = writer.records_written();
    let bytes = writer.finish().expect("in-memory writes cannot fail");
    EncodedTrace {
        workload,
        records,
        bytes,
        written,
    }
}

/// Records per core at `size`.
pub fn per_core(size: Size) -> u64 {
    match size {
        Size::Full => FULL_PER_CORE,
        Size::Tiny => 400,
    }
}

/// Ingests `trace` under `configuration` at `shard_threads`.
pub fn ingest(
    trace: &EncodedTrace,
    configuration: &Configuration,
    shard_threads: usize,
) -> Result<IngestReport, String> {
    let reader = TraceReader::new(SliceSource::new(&trace.bytes)).map_err(|e| e.to_string())?;
    TraceRunner::new()
        .with_shard_threads(shard_threads)
        .ingest(reader, configuration)
        .map_err(|e| e.to_string())
}

/// Decodes `trace` with `TraceReader::next_record` alone inside a span under
/// `parent`; returns `(records, frames)`.
pub fn codec_stage(
    trace: &EncodedTrace,
    tracer: &Tracer,
    item: usize,
    parent: Option<SpanId>,
) -> Result<(u64, u64), String> {
    tracer.span("workloads::codec", item, parent, |_| {
        let mut reader =
            TraceReader::new(SliceSource::new(&trace.bytes)).map_err(|e| e.to_string())?;
        let mut records = 0u64;
        while let Some(r) = reader.next_record().map_err(|e| e.to_string())? {
            black_box(r);
            records += 1;
        }
        Ok((records, reader.frames_decoded()))
    })
}

/// The simulated digest fields of an ingest: records, memory and windows.
fn digest_report(digest: &mut Digest, report: &IngestReport) {
    digest.add(&report.records);
    digest.add(&report.memory);
    digest.add(&report.windows);
}

/// The ingest workload's inputs.
#[derive(Debug)]
pub struct Ingest {
    seed: u64,
    traces: Vec<EncodedTrace>,
    configurations: Vec<(&'static str, Configuration)>,
    /// `(trace, configuration)` per ingest call.
    calls: Vec<(usize, usize)>,
}

/// One round: every ingest call's report, in call order.
#[derive(Debug)]
pub struct IngestRound {
    /// Report (or failure) of every call.
    pub reports: Vec<Result<IngestReport, String>>,
    /// Wall time of every call.
    pub walls: Vec<Duration>,
}

impl Ingest {
    fn calls_of(&self, configuration: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.calls.len()).filter(move |&i| self.calls[i].1 == configuration)
    }
}

impl Workload for Ingest {
    type Round = IngestRound;

    fn setup(seed: u64, size: Size) -> Self {
        let traces = ["copy", "mcf"]
            .into_iter()
            .map(|w| record_trace(w, seed, per_core(size)))
            .collect::<Vec<_>>();
        let configurations = CONFIGURATION_NAMES
            .iter()
            .map(|&name| {
                (
                    name,
                    named_configuration(name).expect("named configurations resolve"),
                )
            })
            .collect::<Vec<_>>();
        let calls = (0..traces.len())
            .flat_map(|t| (0..configurations.len()).map(move |c| (t, c)))
            .collect();
        Self {
            seed,
            traces,
            configurations,
            calls,
        }
    }

    fn round(&self, tracer: &Tracer, parent: Option<SpanId>) -> IngestRound {
        let (reports, walls) = self
            .calls
            .iter()
            .enumerate()
            .map(|(i, &(t, c))| {
                timed(|| {
                    tracer.span("sim::trace_runner", i, parent, |_| {
                        guarded(|| {
                            ingest(&self.traces[t], &self.configurations[c].1, SHARD_THREADS)
                        })
                    })
                })
            })
            .unzip();
        IngestRound { reports, walls }
    }

    fn summary(&self, round: &IngestRound) -> Summary {
        let mut digest = Digest::default();
        let mut pieces = Vec::new();
        let mut failed = 0;
        for (report, &wall) in round.reports.iter().zip(&round.walls) {
            let items = match report {
                Ok(r) => {
                    digest_report(&mut digest, r);
                    r.records
                }
                Err(e) => {
                    failed += 1;
                    digest.add(e);
                    0
                }
            };
            pieces.push(Piece { items, wall });
        }
        Summary {
            pieces,
            attempted: round.reports.len() as u64,
            failed,
            digest: digest.value(),
        }
    }

    fn check(&self, round: &IngestRound) -> Vec<String> {
        let mut failures = Vec::new();
        for (report, &(t, c)) in round.reports.iter().zip(&self.calls) {
            let trace = &self.traces[t];
            let (name, _) = self.configurations[c];
            let label = format!("ingest {} under {name}", trace.workload);
            let r = match report {
                Ok(r) => r,
                Err(e) => {
                    failures.push(format!("{label} failed: {e}"));
                    continue;
                }
            };
            if r.records != trace.written || r.memory.requests != r.records {
                failures.push(format!(
                    "{label}: {} records, {} written, {} requests",
                    r.records, trace.written, r.memory.requests
                ));
            }
            let windowed: u64 = r.windows.iter().map(|w| w.records).sum();
            if windowed != r.records {
                failures.push(format!(
                    "{label}: windows hold {windowed} of {} records",
                    r.records
                ));
            }
            if r.verdict.outcome() != "clean" {
                failures.push(format!("{label}: outcome {}", r.verdict.outcome()));
            }
            if (r.verdict.verdict == "unprotected") != (name == "unprotected") {
                failures.push(format!("{label}: verdict {}", r.verdict.verdict));
            }
        }
        let i = (self.seed % self.calls.len() as u64) as usize;
        let (t, c) = self.calls[i];
        let repeat = guarded(|| {
            ingest(
                &self.traces[t],
                &self.configurations[c].1,
                RECHECK_SHARD_THREADS,
            )
        });
        match (&round.reports[i], repeat) {
            (Ok(a), Ok(b))
                if a.records == b.records
                    && a.memory == b.memory
                    && a.windows == b.windows
                    && a.verdict == b.verdict => {}
            (Ok(_), Ok(_)) => failures.push(format!(
                "ingest call {i} at {RECHECK_SHARD_THREADS} shard threads differs from its timed report"
            )),
            (_, Err(e)) => failures.push(format!("ingest call {i} repeat failed: {e}")),
            (Err(_), _) => {}
        }
        failures
    }

    fn layers(&self, round: &IngestRound, tracer: &Tracer, out: &mut Layers) -> Vec<String> {
        let mut failures = Vec::new();
        let calls = tracer.named("sim::trace_runner");
        let call_time = |i: usize| calls.get(i).map_or(Duration::ZERO, |s| s.duration());
        let unprotected = self
            .configurations
            .iter()
            .position(|(n, _)| *n == "unprotected")
            .expect("the unprotected configuration is named");
        let controller = self.configurations[unprotected].1.controller_config();
        let mapping = controller.mapping;
        let organization = controller.organization.clone();

        let mut records = 0u64;
        let mut frames = 0u64;
        let mut activations = 0u64;
        let mut hits = 0u64;
        let mut classified = 0u64;
        let mut loop_ns = 0.0;
        for (t, trace) in self.traces.iter().enumerate() {
            let n = trace.records.len() as u64;
            records += n;
            // The stages decompose the trace's unprotected ingest, so they
            // are recorded as its children.
            let call = self
                .calls
                .iter()
                .position(|&call| call == (t, unprotected))
                .expect("every trace runs unprotected");
            let parent = calls.get(call).map(|s| s.id);
            match codec_stage(trace, tracer, t, parent) {
                Ok((decoded, f)) if decoded == n => frames += f,
                Ok((decoded, _)) => {
                    failures.push(format!("codec stage decoded {decoded} of {n} records"))
                }
                Err(e) => failures.push(format!("codec stage failed: {e}")),
            }
            tracer.span("dram::mapping", t, parent, |_| {
                for r in &trace.records {
                    let _ =
                        black_box(mapping.decode(PhysicalAddress::new(r.address), &organization));
                }
            });

            // The routed stream with ingest's arrival times (explicit gaps).
            let mut now: Cycle = 0;
            let routed: Vec<(DramAddress, bool, Cycle)> = trace
                .records
                .iter()
                .filter_map(|r| {
                    now += Cycle::from(r.gap);
                    mapping
                        .decode(PhysicalAddress::new(r.address), &organization)
                        .ok()
                        .map(|location| (location, r.is_write, now))
                })
                .collect();
            let (_, mut shards) = MemoryController::new(controller.clone()).into_parts();
            tracer.span("memctrl::shard", t, parent, |_| {
                for &(location, is_write, at) in &routed {
                    black_box(shards[location.channel as usize].access(location, is_write, at));
                }
            });
            let stats = ChannelStats::merged(shards.iter().map(ChannelShard::stats));
            match &round.reports[call] {
                Ok(report) if report.memory == stats => {}
                Ok(_) => failures.push(format!(
                    "direct shard stage on {} differs from the unprotected ingest's memory",
                    trace.workload
                )),
                Err(_) => {}
            }
            activations += stats.banks.activations;
            hits += stats.banks.row_hits;
            classified += stats.banks.row_hits + stats.banks.row_misses + stats.banks.row_conflicts;
            loop_ns += parent.map_or(0.0, |id| tracer.self_ns(id));
        }
        out.set(
            "codec.ns_per_record",
            ns_per(tracer.total("workloads::codec"), records),
        );
        out.set("codec.frames", frames as f64);
        out.set(
            "mapping.ns_per_record",
            ns_per(tracer.total("dram::mapping"), records),
        );
        out.set(
            "shard.ns_per_record",
            ns_per(tracer.total("memctrl::shard"), records),
        );
        out.set("shard.activations", activations as f64);
        out.set("shard.row_hit_rate", rate(hits, classified));
        out.set(
            "trace_runner.ns_per_record",
            signed_ns_per(loop_ns, records),
        );
        let windows: usize = round
            .reports
            .iter()
            .flatten()
            .map(|r| r.windows.len())
            .sum();
        out.set("trace_runner.windows", windows as f64);

        let unprotected_ns: f64 = self
            .calls_of(unprotected)
            .map(|i| call_time(i).as_nanos() as f64)
            .sum();
        for (c, &(name, _)) in self.configurations.iter().enumerate() {
            if c == unprotected {
                continue;
            }
            let reports = self
                .calls_of(c)
                .filter_map(|i| round.reports[i].as_ref().ok());
            let (mitigations, rfm) = reports.fold((0u64, 0u64), |(m, r), report| {
                (
                    m + report.memory.banks.mitigative_activations,
                    r + report.memory.banks.rfm_commands,
                )
            });
            out.set(&format!("shard.mitigations.{name}"), mitigations as f64);
            out.set(&format!("shard.rfm.{name}"), rfm as f64);
            let ns: f64 = self
                .calls_of(c)
                .map(|i| call_time(i).as_nanos() as f64)
                .sum();
            out.set(
                &format!("engine.ns_per_record.{name}"),
                signed_ns_per(ns - unprotected_ns, records),
            );
        }
        failures
    }
}
