//! `perf_report`: reproducible wall-clock benchmark of both parallelism axes,
//! the tracker record paths and trace ingestion.
//!
//! Measures and gates:
//!
//! 1. **Sweep-level parallelism** — times the canonical figure sweep (the
//!    unprotected baseline plus every Graphene/PARA defense configuration over
//!    the figure workload set) serially and in parallel, and verifies parallel
//!    == serial bit-for-bit.
//! 2. **Channel-level (intra-run) parallelism** — inline vs sharded runs of a
//!    4-channel Graphene+ImPress-P system, bit-identical, with each run's
//!    issue-batching statistics reported as data.
//! 3. **Tracker record throughput and the churn gate** — per-tracker
//!    records/sec on the rotating-aggressor *miss-heavy churn* stream (every
//!    record evicts), the threshold-straddling adversarial stream and a hot-set
//!    stream (every record matches). Hard gate: for Graphene and Mithril, churn
//!    throughput must be at least [`CHURN_HOT_FLOOR`]× the hot throughput
//!    measured in the same run, so a miss costs about as little as a match.
//! 4. **Trace ingestion and replay** — times the end-to-end open-loop ingest
//!    pipeline (frame decode → checksum → mapping → epoch loop → window
//!    telemetry) on an in-memory recording of a streaming workload, gates the
//!    unprotected scenario at [`TRACE_INGEST_GATE_MRPS`] million records/s and
//!    the Graphene+ImPress-P protected scenario at [`PROTECTED_INGEST_FLOOR`]×
//!    the unprotected rate (both best-of-[`INGEST_SAMPLES`], samples
//!    alternated); then records a synthetic stream and gates closed-loop
//!    **replay bit-identity** against the in-process run at 1, 2 and 4 shard
//!    threads.
//!
//! Usage:
//!
//! ```text
//! perf_report [--quick] [--out PATH]
//! ```
//!
//! * `--quick`: CI-sized run (shorter simulations, fewer tracker records).
//! * `--out PATH`: where to write the JSON report (default `BENCH_PR8.json`).
//!
//! Exit code is non-zero if any determinism, churn-throughput, trace-ingest or
//! replay-identity gate fails, so CI uses this binary as a correctness gate as
//! well as a benchmark.

use std::time::Instant;

use impress_attacks::{AttackPattern, RotatingAggressorPattern, ThresholdStraddlingPattern};
use impress_bench::{
    defense_configurations, figure_workloads, named_configuration, record_workload_trace,
};
use impress_core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
use impress_dram::organization::DramOrganization;
use impress_memctrl::ControllerConfig;
use impress_sim::{
    Configuration, ExperimentRunner, NormalizedResult, RunOutput, System, SystemConfig, TraceRunner,
};
use impress_trackers::{Eact, Graphene, Mint, Mithril, Para, Prac, RowTracker};
use impress_workloads::codec::{TraceReader, TraceWriter};
use impress_workloads::source::SliceSource;
use impress_workloads::WorkloadMix;

/// Requests per core for the canonical sweep (quick mode shrinks the simulations so
/// the whole report fits in a CI smoke job).
const FULL_REQUESTS_PER_CORE: u64 = 20_000;
const QUICK_REQUESTS_PER_CORE: u64 = 2_000;

/// Activation records per tracker for the throughput measurement. The quick
/// value keeps each timed stream tens of milliseconds long (a 400k sample at
/// ~75 M records/s lasts ~5 ms, thin enough for runner noise to threaten the
/// churn gate).
const FULL_TRACKER_RECORDS: u64 = 4_000_000;
const QUICK_TRACKER_RECORDS: u64 = 2_000_000;

/// The churn gate: for Graphene and Mithril, throughput on the churn stream
/// (every record evicts) must be at least this fraction of throughput on the
/// hot stream (every record matches), measured in the same run. Ten quick runs
/// on a 2-CPU host read 0.83–1.10 for Graphene and 0.68–0.89 for Mithril; the
/// seed's O(entries) scan on every miss read 0.009–0.015.
const CHURN_HOT_FLOOR: f64 = 0.3;

/// Workloads for the intra-run shard measurement (one latency-bound, two
/// bandwidth-bound — the shapes with the least and most work per epoch).
const SHARDED_WORKLOADS: [&str; 3] = ["mcf", "copy", "add_triad"];

/// Channels in the intra-run measurement system (wider than the 2-channel baseline
/// so the shard axis has headroom).
const SHARDED_CHANNELS: u8 = 4;

/// The PR 6 ingest gate: end-to-end open-loop trace ingestion (decode → route →
/// epoch loop → telemetry) of the streaming-locality recording must sustain at
/// least this many million records per second under the unprotected
/// configuration. The PR 8 snapshot measured ~15 on a single shared-runner CPU
/// (the word-parallel frame checksum removed the codec's byte-serial multiply
/// chain from the critical path).
const TRACE_INGEST_GATE_MRPS: f64 = 10.0;

/// The protected-ingest gate: the same open-loop pipeline under
/// Graphene+ImPress-P, where every record goes through the defense engine and
/// tracked events are staged per bank and flushed as spans through each
/// tracker's `record`, must sustain at least this fraction of the unprotected
/// throughput measured in the same run. A ratio does not move with the
/// host's speed, as an absolute floor did. Ten `IMPRESS_THREADS=2 --quick`
/// runs on a 2-CPU host read 0.61–0.70; the floor is 0.8× the lowest, so a
/// protected path twice as slow fails.
const PROTECTED_INGEST_FLOOR: f64 = 0.49;

/// Samples per ingest scenario; the gates take the best. Single-sample
/// throughput swings ±20% on shared 1-core runners, which is far more than the
/// margin either ingest gate carries. The two scenarios' samples alternate, so
/// both see the same host load.
const INGEST_SAMPLES: usize = 3;

/// Records in the ingest-throughput trace (total, across all 8 cores). Quick
/// mode keeps the sample large enough that the timed region runs tens of
/// milliseconds — thin single-digit-ms samples would make the 10 M records/s
/// gate a coin flip on shared runners.
const FULL_TRACE_RECORDS: u64 = 2_000_000;
const QUICK_TRACE_RECORDS: u64 = 800_000;

/// Requests per core for the replay-identity trace (a full protected system
/// simulation runs per thread count, so this stays small).
const FULL_REPLAY_REQUESTS_PER_CORE: u64 = 2_000;
const QUICK_REPLAY_REQUESTS_PER_CORE: u64 = 500;

/// Shard thread counts at which replay must be bit-identical to the in-process
/// run (the PR 6 acceptance gate).
const REPLAY_THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR8.json".to_string());

    let requests_per_core = if quick {
        QUICK_REQUESTS_PER_CORE
    } else {
        FULL_REQUESTS_PER_CORE
    };
    let tracker_records = if quick {
        QUICK_TRACKER_RECORDS
    } else {
        FULL_TRACKER_RECORDS
    };
    let trace_records = if quick {
        QUICK_TRACE_RECORDS
    } else {
        FULL_TRACE_RECORDS
    };
    let replay_requests_per_core = if quick {
        QUICK_REPLAY_REQUESTS_PER_CORE
    } else {
        FULL_REPLAY_REQUESTS_PER_CORE
    };
    let threads = impress_exec::thread_count();

    // ---- Axis 1: sweep-level parallelism -------------------------------------
    let runner = ExperimentRunner::new().with_requests_per_core(requests_per_core);
    let baseline = Configuration::unprotected();
    let workloads = figure_workloads();
    let mut configurations = defense_configurations(TrackerChoice::Graphene, 4_000);
    configurations.extend(defense_configurations(TrackerChoice::Para, 4_000));

    let cells = configurations.len() * workloads.len();
    eprintln!(
        "perf_report: {} workloads x {} configurations ({cells} cells + {} baselines), \
         requests/core = {requests_per_core}, parallel workers = {threads}",
        workloads.len(),
        configurations.len(),
        workloads.len(),
    );

    eprintln!("perf_report: serial sweep...");
    let serial_start = Instant::now();
    let serial = runner.run_sweep_with_threads(1, &workloads, &baseline, &configurations);
    let serial_ms = serial_start.elapsed().as_secs_f64() * 1e3;

    eprintln!("perf_report: parallel sweep ({threads} threads)...");
    let parallel_start = Instant::now();
    let parallel = runner.run_sweep_with_threads(threads, &workloads, &baseline, &configurations);
    let parallel_ms = parallel_start.elapsed().as_secs_f64() * 1e3;

    let sweep_identical = sweeps_identical(&serial, &parallel);
    let sweep_speedup = serial_ms / parallel_ms.max(1e-9);

    // ---- Axis 2: channel-level (intra-run) parallelism -----------------------
    let sharded_system = |workload: &str| {
        let protection = ProtectionConfig::paper_default(
            TrackerChoice::Graphene,
            DefenseKind::impress_p_default(),
        );
        let controller = ControllerConfig {
            organization: DramOrganization {
                channels: SHARDED_CHANNELS,
                ..DramOrganization::baseline()
            },
            ..ControllerConfig::baseline()
        }
        .with_protection(protection);
        let config = SystemConfig {
            requests_per_core,
            controller,
            ..SystemConfig::baseline()
        };
        let mix = WorkloadMix::by_name(workload, 0x5AA5).expect("known workload");
        System::new(config, mix)
    };

    eprintln!(
        "perf_report: intra-run shard axis ({SHARDED_CHANNELS} channels, \
         {} workloads, 1 vs {threads} threads)...",
        SHARDED_WORKLOADS.len()
    );
    let mut sharded_identical = true;
    let mut inline_ms_total = 0.0f64;
    let mut sharded_ms_total = 0.0f64;
    let mut workload_lines = Vec::new();
    for workload in SHARDED_WORKLOADS {
        let inline_start = Instant::now();
        let inline = sharded_system(workload).run_with_threads(1);
        let inline_ms = inline_start.elapsed().as_secs_f64() * 1e3;
        let sharded_start = Instant::now();
        let sharded = sharded_system(workload).run_with_threads(threads);
        let sharded_ms = sharded_start.elapsed().as_secs_f64() * 1e3;

        // Inline == (by the pinned sharded-determinism property) the serial
        // loop, so sharded must equal inline.
        let identical = runs_identical(&inline, &sharded);
        sharded_identical &= identical;

        let stats = inline.epoch_stats;
        inline_ms_total += inline_ms;
        sharded_ms_total += sharded_ms;
        eprintln!(
            "perf_report:   {workload}: {inline_ms:.0}/{sharded_ms:.0} ms (inline/sharded); \
             {} epochs, {:.1} issues/epoch, window {:.0} cycles; identical: {identical}",
            stats.epochs,
            stats.mean_issues_per_epoch(),
            stats.mean_window_cycles(),
        );
        workload_lines.push(format!(
            "      {{ \"workload\": \"{workload}\", \"inline_ms\": {inline_ms:.1}, \
             \"sharded_ms\": {sharded_ms:.1}, \"epochs\": {}, \
             \"mean_issues_per_epoch\": {:.3}, \"mean_window_cycles\": {:.3}, \
             \"identical\": {identical} }}",
            stats.epochs,
            stats.mean_issues_per_epoch(),
            stats.mean_window_cycles(),
        ));
    }
    let shard_speedup = inline_ms_total / sharded_ms_total.max(1e-9);

    // ---- Axis 3: tracker record throughput + the churn gate ------------------
    // Miss-heavy churn comes from the rotating-aggressor adversarial pattern
    // (4K distinct rows — larger than any table, so after warm-up every record
    // evicts); the threshold-straddling pattern adds the tie-heavy adversarial
    // shape. The hot stream (128 rows) isolates the O(1) match path.
    let rotating = RotatingAggressorPattern::new(0, 4_096, 1);
    let straddling = ThresholdStraddlingPattern::new(0, 4, 160, 48);
    let eact = Eact::from_f64(1.5, 7);
    let rotating_period: Vec<u32> = (0..4_096u64).map(|i| rotating.round(i).row).collect();
    let straddling_rows: Vec<u32> = (0..tracker_records)
        .map(|i| straddling.round(i).row)
        .collect();

    /// Monomorphized per-tracker measurement (no `dyn` dispatch in the timed
    /// loops — the loop body is the tracker's `record`, nothing else).
    struct TrackerNumbers {
        churn_mrps: f64,
        churn_mitigations: u64,
        straddling_mrps: f64,
        hot_mrps: f64,
    }
    fn measure_tracker<T: RowTracker>(
        tracker: &mut T,
        rotating_period: &[u32],
        straddling_rows: &[u32],
        eact: Eact,
    ) -> TrackerNumbers {
        let records = straddling_rows.len() as u64;
        // The row sequences are precomputed (the rotating pattern as one exact
        // period, cycled; the straddling pattern materialized) so the timed
        // loops contain the tracker's `record` and nothing else — in particular
        // no 64-bit modulo, which at these speeds would be a third of the
        // per-record budget.
        let start = Instant::now();
        let mut churn_mitigations = 0u64;
        let mut j = 0usize;
        for i in 0..records {
            let row = rotating_period[j];
            j += 1;
            if j == rotating_period.len() {
                j = 0;
            }
            if tracker.record(row, eact, i * 128).is_some() {
                churn_mitigations += 1;
            }
        }
        let churn_mrps = records as f64 / start.elapsed().as_secs_f64() / 1e6;
        let start = Instant::now();
        for (i, &row) in straddling_rows.iter().enumerate() {
            let _ = tracker.record(row, eact, i as u64 * 128);
        }
        let straddling_mrps = records as f64 / start.elapsed().as_secs_f64() / 1e6;
        // Reset before the hot stream (as a refresh window would): a
        // churn-saturated spillover would otherwise make every hot match
        // mitigate and thrash the eviction path, measuring the wrong thing.
        tracker.on_refresh_window(u64::MAX - 1);
        let start = Instant::now();
        for i in 0..records {
            let row = (i % 128) as u32;
            let _ = tracker.record(row, eact, i * 128);
        }
        let hot_mrps = records as f64 / start.elapsed().as_secs_f64() / 1e6;
        TrackerNumbers {
            churn_mrps,
            churn_mitigations,
            straddling_mrps,
            hot_mrps,
        }
    }

    let mut tracker_lines = Vec::new();
    let mut churn_lines = Vec::new();
    let mut churn_gate_ok = true;
    for tracker_kind in ["graphene", "mithril"] {
        let measure = || match tracker_kind {
            "graphene" => measure_tracker(
                &mut Graphene::for_threshold(4_000),
                &rotating_period,
                &straddling_rows,
                eact,
            ),
            _ => measure_tracker(
                &mut Mithril::for_threshold(4_000),
                &rotating_period,
                &straddling_rows,
                eact,
            ),
        };
        // Best of two runs for every stream (symmetric, so the gate ratio is
        // not biased either way): single-sample throughput on shared runners
        // swings ~10%.
        let (a, b) = (measure(), measure());
        let churn = a.churn_mrps.max(b.churn_mrps);
        let straddle = a.straddling_mrps.max(b.straddling_mrps);
        let hot = a.hot_mrps.max(b.hot_mrps);
        let ratio = churn / hot.max(1e-9);
        if ratio < CHURN_HOT_FLOOR {
            churn_gate_ok = false;
        }
        eprintln!(
            "perf_report: {tracker_kind}: churn {churn:.1} M records/s, hot {hot:.1} \
             (churn/hot {ratio:.2}, gate >= {CHURN_HOT_FLOOR}); straddling {straddle:.1} \
             (churn mitigations: {})",
            a.churn_mitigations
        );
        churn_lines.push(format!(
            "      {{ \"tracker\": \"{tracker_kind}\", \
             \"churn_mrps\": {churn:.3}, \"hot_mrps\": {hot:.3}, \
             \"churn_to_hot\": {ratio:.3}, \"straddling_mrps\": {straddle:.3} }}"
        ));
        tracker_lines.push(format!(
            "    {{ \"tracker\": \"{tracker_kind}\", \"records\": {tracker_records}, \
             \"million_records_per_sec\": {churn:.3}, \
             \"million_records_per_sec_hot\": {hot:.3} }}"
        ));
    }
    // The remaining trackers have no table-eviction path; measure them once.
    let numbers = [
        (
            "para",
            measure_tracker(
                &mut Para::for_threshold(4_000),
                &rotating_period,
                &straddling_rows,
                eact,
            ),
        ),
        (
            "mint",
            measure_tracker(
                &mut Mint::paper_default(),
                &rotating_period,
                &straddling_rows,
                eact,
            ),
        ),
        (
            "prac",
            measure_tracker(
                &mut Prac::for_threshold(4_000, 7, 1 << 16),
                &rotating_period,
                &straddling_rows,
                eact,
            ),
        ),
    ];
    for (name, n) in &numbers {
        eprintln!(
            "perf_report: {name}: churn {:.1} M records/s, hot {:.1} M records/s",
            n.churn_mrps, n.hot_mrps
        );
        tracker_lines.push(format!(
            "    {{ \"tracker\": \"{name}\", \"records\": {tracker_records}, \
             \"million_records_per_sec\": {:.3}, \
             \"million_records_per_sec_hot\": {:.3} }}",
            n.churn_mrps, n.hot_mrps
        ));
    }

    // ---- Axis 4: trace ingestion throughput + replay identity ---------------
    // One in-memory recording of the streaming-locality workload, ingested
    // open-loop under both the gated (unprotected) and the protected scenario.
    // The bytes live in memory so the timed region measures the pipeline
    // (codec + checksum + mapping + shards + telemetry), not disk I/O.
    let trace_seed = 0x1A7E_2024u64;
    let ingest_workload = "copy";
    let (ingest_meta, ingest_records) =
        record_workload_trace(ingest_workload, trace_seed, trace_records / 8)
            .expect("known workload");
    let trace_bytes = {
        let mut w = TraceWriter::new(Vec::new(), &ingest_meta).expect("in-memory trace");
        for &r in &ingest_records {
            w.push(r).expect("in-memory trace");
        }
        w.finish().expect("in-memory trace")
    };
    let ingest_runner = TraceRunner::new();
    let scenarios = ["unprotected", "graphene-impress-p"];
    let ingest_configurations =
        scenarios.map(|scenario| named_configuration(scenario).expect("named configuration"));
    let mut ingest_mrps = [0.0f64; 2];
    let mut verdicts = [""; 2];
    for _ in 0..INGEST_SAMPLES {
        for (k, configuration) in ingest_configurations.iter().enumerate() {
            let reader = TraceReader::new(SliceSource::new(&trace_bytes)).expect("trace header");
            let start = Instant::now();
            let report = ingest_runner
                .ingest(reader, configuration)
                .expect("trace ingest");
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(report.records, ingest_records.len() as u64);
            ingest_mrps[k] = ingest_mrps[k].max(report.records as f64 / secs.max(1e-9) / 1e6);
            verdicts[k] = report.verdict.verdict;
        }
    }
    let [unprotected_mrps, protected_mrps] = ingest_mrps;
    let protected_ratio = protected_mrps / unprotected_mrps.max(1e-9);
    let unprotected_ok = unprotected_mrps >= TRACE_INGEST_GATE_MRPS;
    let protected_ok = protected_ratio >= PROTECTED_INGEST_FLOOR;
    let ingest_gate_ok = unprotected_ok && protected_ok;
    eprintln!(
        "perf_report: trace ingest {ingest_workload} over {} records: unprotected \
         {unprotected_mrps:.1} M records/s (verdict {}; gate >= {TRACE_INGEST_GATE_MRPS}), \
         {} {protected_mrps:.1} (verdict {}; x{protected_ratio:.3} of unprotected, gate >= \
         x{PROTECTED_INGEST_FLOOR})",
        ingest_records.len(),
        verdicts[0],
        scenarios[1],
        verdicts[1],
    );
    let ingest_lines = [
        format!(
            "      {{ \"scenario\": \"{}\", \"gate_mrps\": {TRACE_INGEST_GATE_MRPS}, \
             \"million_records_per_sec\": {unprotected_mrps:.3}, \"passed\": {unprotected_ok}, \
             \"verdict\": \"{}\" }}",
            scenarios[0], verdicts[0]
        ),
        format!(
            "      {{ \"scenario\": \"{}\", \"min_ratio_to_unprotected\": \
             {PROTECTED_INGEST_FLOOR}, \"ratio_to_unprotected\": {protected_ratio:.3}, \
             \"million_records_per_sec\": {protected_mrps:.3}, \"passed\": {protected_ok}, \
             \"verdict\": \"{}\" }}",
            scenarios[1], verdicts[1]
        ),
    ];

    // Closed-loop replay: record the synthetic stream, then the replay must be
    // bit-identical to the in-process run at every gated shard thread count.
    let replay_workload = "mcf";
    let replay_configuration = named_configuration("graphene-impress-p").expect("named");
    let (replay_meta, replay_records) =
        record_workload_trace(replay_workload, trace_seed, replay_requests_per_core)
            .expect("known workload");
    let reference = {
        let mix = WorkloadMix::by_name(replay_workload, trace_seed).expect("known workload");
        let config = SystemConfig {
            requests_per_core: replay_requests_per_core,
            ..SystemConfig::baseline()
        }
        .with_controller(replay_configuration.controller_config());
        System::new(config, mix).run()
    };
    let mut replay_gate_ok = true;
    let mut replay_lines = Vec::new();
    for shard_threads in REPLAY_THREAD_COUNTS {
        let output = TraceRunner::new().with_shard_threads(shard_threads).replay(
            &replay_meta,
            &replay_records,
            &replay_configuration,
        );
        let identical = runs_identical(&reference, &output);
        replay_gate_ok &= identical;
        eprintln!(
            "perf_report: trace replay {replay_workload} @ {shard_threads} shard threads: \
             {} cycles (bit-identical to in-process run: {identical})",
            output.performance.elapsed_cycles
        );
        replay_lines.push(format!(
            "      {{ \"shard_threads\": {shard_threads}, \"identical\": {identical} }}"
        ));
    }

    let json = format!(
        "{{\n\
         \x20 \"schema_version\": 9,\n\
         \x20 \"pr\": 8,\n\
         \x20 \"binary\": \"perf_report\",\n\
         \x20 \"mode\": \"{mode}\",\n\
         \x20 \"host\": {{ \"available_cpus\": {cpus}, \"threads_used\": {threads} }},\n\
         \x20 \"sweep\": {{\n\
         \x20   \"workloads\": {n_workloads},\n\
         \x20   \"configurations\": {n_configs},\n\
         \x20   \"cells\": {cells},\n\
         \x20   \"requests_per_core\": {requests_per_core},\n\
         \x20   \"serial_ms\": {serial_ms:.1},\n\
         \x20   \"parallel_ms\": {parallel_ms:.1},\n\
         \x20   \"speedup\": {sweep_speedup:.3},\n\
         \x20   \"parallel_identical_to_serial\": {sweep_identical}\n\
         \x20 }},\n\
         \x20 \"sharded_run\": {{\n\
         \x20   \"channels\": {channels},\n\
         \x20   \"requests_per_core\": {requests_per_core},\n\
         \x20   \"shard_threads\": {threads},\n\
         \x20   \"inline_ms\": {inline_ms_total:.1},\n\
         \x20   \"sharded_ms\": {sharded_ms_total:.1},\n\
         \x20   \"speedup\": {shard_speedup:.3},\n\
         \x20   \"workloads\": [\n{workload_json}\n    ],\n\
         \x20   \"sharded_identical_to_serial\": {sharded_identical}\n\
         \x20 }},\n\
         \x20 \"churn_gate\": {{ \"min_churn_to_hot\": {CHURN_HOT_FLOOR}, \
         \"passed\": {churn_gate_ok}, \"trackers\": [\n{churn_json}\n  ] }},\n\
         \x20 \"trace\": {{\n\
         \x20   \"workload\": \"{ingest_workload}\",\n\
         \x20   \"records\": {n_trace_records},\n\
         \x20   \"ingest_gate\": {{ \"samples\": {INGEST_SAMPLES}, \
         \"passed\": {ingest_gate_ok}, \"scenarios\": [\n{ingest_json}\n    ] }},\n\
         \x20   \"replay_gate\": {{ \"workload\": \"{replay_workload}\", \
         \"requests_per_core\": {replay_requests_per_core}, \
         \"passed\": {replay_gate_ok}, \"runs\": [\n{replay_json}\n    ] }}\n\
         \x20 }},\n\
         \x20 \"tracker_throughput\": [\n{tracker_json}\n  ]\n\
         }}\n",
        mode = if quick { "quick" } else { "full" },
        cpus = std::thread::available_parallelism().map_or(1, usize::from),
        n_workloads = workloads.len(),
        n_configs = configurations.len(),
        channels = SHARDED_CHANNELS,
        workload_json = workload_lines.join(",\n"),
        churn_json = churn_lines.join(",\n"),
        n_trace_records = ingest_records.len(),
        ingest_json = ingest_lines.join(",\n"),
        replay_json = replay_lines.join(",\n"),
        tracker_json = tracker_lines.join(",\n"),
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));

    println!(
        "sweep: serial {serial_ms:.0} ms, parallel {parallel_ms:.0} ms on {threads} threads \
         (x{sweep_speedup:.2}, identical: {sweep_identical}); sharded run: inline \
         {inline_ms_total:.0} ms, sharded {sharded_ms_total:.0} ms (x{shard_speedup:.2}, \
         identical: {sharded_identical}); churn gate: {churn_gate_ok}; trace ingest gate: \
         {ingest_gate_ok}; replay identity gate: {replay_gate_ok} -> {out_path}"
    );
    let mut failed = false;
    if !sweep_identical {
        eprintln!("perf_report: ERROR: parallel sweep diverged from serial sweep");
        failed = true;
    }
    if !sharded_identical {
        eprintln!("perf_report: ERROR: sharded runs diverged from the inline run");
        failed = true;
    }
    if !churn_gate_ok {
        eprintln!(
            "perf_report: ERROR: churn throughput below {CHURN_HOT_FLOOR}x hot throughput \
             on a counter tracker"
        );
        failed = true;
    }
    if !ingest_gate_ok {
        eprintln!(
            "perf_report: ERROR: trace ingest throughput below its gate (unprotected >= \
             {TRACE_INGEST_GATE_MRPS} M records/s, protected >= {PROTECTED_INGEST_FLOOR}x \
             unprotected)"
        );
        failed = true;
    }
    if !replay_gate_ok {
        eprintln!(
            "perf_report: ERROR: trace replay diverged from the in-process run \
             at some shard thread count"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// Bit-for-bit comparison of two run outputs.
fn runs_identical(a: &RunOutput, b: &RunOutput) -> bool {
    a.performance.elapsed_cycles == b.performance.elapsed_cycles
        && a.performance
            .per_core_ipc
            .iter()
            .zip(&b.performance.per_core_ipc)
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.memory == b.memory
        && a.energy.total_nj().to_bits() == b.energy.total_nj().to_bits()
}

/// Bit-for-bit comparison of two sweep result sets.
fn sweeps_identical(a: &[Vec<NormalizedResult>], b: &[Vec<NormalizedResult>]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|(ca, cb)| {
        ca.len() == cb.len()
            && ca.iter().zip(cb).all(|(ra, rb)| {
                ra.workload == rb.workload
                    && ra.configuration == rb.configuration
                    && ra.normalized_performance.to_bits() == rb.normalized_performance.to_bits()
                    && ra.output.performance.elapsed_cycles == rb.output.performance.elapsed_cycles
                    && ra.output.memory == rb.output.memory
            })
    })
}
