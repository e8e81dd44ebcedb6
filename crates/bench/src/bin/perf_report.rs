//! `perf_report`: the three timing gates that no other check covers.
//!
//! 1. **Churn** — for Graphene and for Mithril, record throughput on the
//!    rotating-aggressor churn stream (4 096 rows, more than any table holds,
//!    so every record evicts) must be at least [`CHURN_HOT_FLOOR`]× the
//!    throughput on a 128-row hot stream (every record matches) in the same
//!    run: a miss must cost about as little as a match.
//! 2. **Unprotected ingest** — open-loop ingest of an in-memory `copy`
//!    recording (frame decode, checksum, mapping, epoch loop, window
//!    telemetry) must sustain [`INGEST_FLOOR_MRPS`] million records/s.
//! 3. **Protected ingest** — the same ingest under Graphene+ImPress-P must
//!    sustain [`PROTECTED_INGEST_FLOOR`]× the unprotected rate of the same run.
//!
//! Takes no arguments and writes no file. It prints one line per gate
//! (reading, floor, pass or FAIL) and exits 1 if any gate failed.
//!
//! ```text
//! cargo run --release -p impress-bench --bin perf_report
//! ```
//!
//! Bit-identity across thread counts, shard counts and trace replay is
//! checked by the test suites (`tests/parallel_determinism.rs`,
//! `tests/sharded_determinism.rs`, `tests/trace_replay.rs`, `golden_outputs`),
//! and `perfbench` and the criterion benches time the layers.

use std::time::Instant;

use impress_attacks::{AttackPattern, RotatingAggressorPattern};
use impress_bench::{named_configuration, record_workload_trace};
use impress_sim::TraceRunner;
use impress_trackers::{Eact, Graphene, Mithril, RowTracker};
use impress_workloads::codec::{TraceReader, TraceWriter};
use impress_workloads::source::SliceSource;

/// Activation records per tracker stream. Each timed stream then runs tens of
/// milliseconds (a 400k sample at ~75 M records/s lasts ~5 ms, thin enough
/// for runner noise to threaten the churn gate).
const TRACKER_RECORDS: u64 = 2_000_000;

/// Churn over hot throughput floor, per tracker. Ten runs on a 2-CPU host
/// read 0.83–1.10 for Graphene and 0.68–0.89 for Mithril; the seed's
/// O(entries) scan on every miss read 0.009–0.015.
const CHURN_HOT_FLOOR: f64 = 0.3;

/// Unprotected ingest floor in million records/s. A single shared-runner CPU
/// measured ~15 once the frame checksum went word-parallel; a 2-CPU host
/// reads ~23.
const INGEST_FLOOR_MRPS: f64 = 10.0;

/// Graphene+ImPress-P over unprotected ingest floor. A ratio does not move
/// with the host's speed, as an absolute floor did. Ten runs on a 2-CPU host
/// read 0.61–0.70; the floor is 0.8× the lowest, so a protected path twice as
/// slow fails.
const PROTECTED_INGEST_FLOOR: f64 = 0.49;

/// Samples per ingest scenario; the gates take the best. Single samples swing
/// ±20% on shared 1-core runners, more than either ingest gate's margin. The
/// two scenarios' samples alternate, so both see the same host load.
const INGEST_SAMPLES: usize = 3;

/// Records in the ingest trace, across all 8 cores. The timed region then
/// runs tens of milliseconds; single-digit-ms samples would make the 10 M
/// records/s gate a coin flip on shared runners.
const TRACE_RECORDS: u64 = 800_000;

/// One run's readings, each the best of its samples.
#[derive(Clone, Copy)]
struct Readings {
    graphene_churn_to_hot: f64,
    mithril_churn_to_hot: f64,
    /// Million records/s.
    unprotected_ingest: f64,
    /// Graphene+ImPress-P ingest over unprotected ingest.
    protected_to_unprotected: f64,
}

/// Every gate as (name, reading, floor).
fn gates(r: &Readings) -> [(&'static str, f64, f64); 4] {
    [
        (
            "graphene churn/hot",
            r.graphene_churn_to_hot,
            CHURN_HOT_FLOOR,
        ),
        ("mithril churn/hot", r.mithril_churn_to_hot, CHURN_HOT_FLOOR),
        (
            "unprotected ingest M records/s",
            r.unprotected_ingest,
            INGEST_FLOOR_MRPS,
        ),
        (
            "graphene-impress-p/unprotected ingest",
            r.protected_to_unprotected,
            PROTECTED_INGEST_FLOOR,
        ),
    ]
}

/// The gates whose reading is below its floor.
fn failed_gates(r: &Readings) -> Vec<&'static str> {
    gates(r)
        .into_iter()
        .filter(|&(_, reading, floor)| reading < floor)
        .map(|(name, ..)| name)
        .collect()
}

/// Churn over hot record throughput of the tracker `make` builds, each
/// stream the best of two runs on fresh trackers.
fn churn_to_hot<T: RowTracker>(make: impl Fn() -> T) -> f64 {
    // One exact period of the rotating pattern, cycled without a 64-bit
    // modulo (at these speeds a third of the per-record budget), so the timed
    // loops hold the tracker's `record` and nothing else.
    let rotating = RotatingAggressorPattern::new(0, 4_096, 1);
    let period: Vec<u32> = (0..4_096u64).map(|i| rotating.round(i).row).collect();
    let eact = Eact::from_f64(1.5, 7);
    let (mut churn, mut hot) = (0.0f64, 0.0f64);
    for _ in 0..2 {
        let mut tracker = make();
        let start = Instant::now();
        let mut j = 0usize;
        for i in 0..TRACKER_RECORDS {
            let _ = tracker.record(period[j], eact, i * 128);
            j += 1;
            if j == period.len() {
                j = 0;
            }
        }
        churn = churn.max(TRACKER_RECORDS as f64 / start.elapsed().as_secs_f64());
        // Reset before the hot stream, as a refresh window would: a
        // churn-saturated spillover would make every hot match mitigate.
        tracker.on_refresh_window(u64::MAX - 1);
        let start = Instant::now();
        for i in 0..TRACKER_RECORDS {
            let _ = tracker.record((i % 128) as u32, eact, i * 128);
        }
        hot = hot.max(TRACKER_RECORDS as f64 / start.elapsed().as_secs_f64());
    }
    churn / hot.max(1e-9)
}

/// Best-of-[`INGEST_SAMPLES`] ingest throughput of the in-memory `copy`
/// recording, unprotected then Graphene+ImPress-P, in million records/s.
fn ingest_mrps() -> [f64; 2] {
    let (meta, records) =
        record_workload_trace("copy", 0x1A7E_2024, TRACE_RECORDS / 8).expect("known workload");
    let bytes = {
        let mut w = TraceWriter::new(Vec::new(), &meta).expect("in-memory trace");
        for &r in &records {
            w.push(r).expect("in-memory trace");
        }
        w.finish().expect("in-memory trace")
    };
    let configurations = ["unprotected", "graphene-impress-p"]
        .map(|name| named_configuration(name).expect("named configuration"));
    let runner = TraceRunner::new();
    let mut best = [0.0f64; 2];
    for _ in 0..INGEST_SAMPLES {
        for (k, configuration) in configurations.iter().enumerate() {
            let reader = TraceReader::new(SliceSource::new(&bytes)).expect("trace header");
            let start = Instant::now();
            let report = runner.ingest(reader, configuration).expect("trace ingest");
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(report.records, records.len() as u64);
            best[k] = best[k].max(report.records as f64 / secs.max(1e-9) / 1e6);
        }
    }
    best
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: perf_report (it takes no arguments)");
        std::process::exit(2);
    }
    let graphene_churn_to_hot = churn_to_hot(|| Graphene::for_threshold(4_000));
    let mithril_churn_to_hot = churn_to_hot(|| Mithril::for_threshold(4_000));
    let [unprotected, protected] = ingest_mrps();
    let readings = Readings {
        graphene_churn_to_hot,
        mithril_churn_to_hot,
        unprotected_ingest: unprotected,
        protected_to_unprotected: protected / unprotected.max(1e-9),
    };
    let failed = failed_gates(&readings);
    for (name, reading, floor) in gates(&readings) {
        let verdict = if failed.contains(&name) {
            "FAIL"
        } else {
            "pass"
        };
        println!("{name}: {reading:.3} (floor {floor}) {verdict}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AT_FLOORS: Readings = Readings {
        graphene_churn_to_hot: 0.3,
        mithril_churn_to_hot: 0.3,
        unprotected_ingest: 10.0,
        protected_to_unprotected: 0.49,
    };

    /// [`AT_FLOORS`] with the `gate`th reading moved by `delta`.
    fn nudged(gate: usize, delta: f64) -> Readings {
        let mut r = AT_FLOORS;
        let reading = match gate {
            0 => &mut r.graphene_churn_to_hot,
            1 => &mut r.mithril_churn_to_hot,
            2 => &mut r.unprotected_ingest,
            _ => &mut r.protected_to_unprotected,
        };
        *reading += delta;
        r
    }

    #[test]
    fn a_gate_fails_just_below_its_floor_and_passes_at_or_above_it() {
        let none: [&str; 0] = [];
        assert_eq!(failed_gates(&AT_FLOORS), none);
        let names = gates(&AT_FLOORS).map(|(name, ..)| name);
        for (gate, name) in names.into_iter().enumerate() {
            assert_eq!(failed_gates(&nudged(gate, -1e-9)), [name], "{name}");
            assert_eq!(failed_gates(&nudged(gate, 1e-9)), none, "{name}");
        }
        let all_below = Readings {
            graphene_churn_to_hot: 0.29,
            mithril_churn_to_hot: 0.0,
            unprotected_ingest: 9.99,
            protected_to_unprotected: 0.48,
        };
        assert_eq!(failed_gates(&all_below), names);
    }
}
