//! The repository benchmark: four workloads, each driving the ImPress library
//! crates only through their public functions.
//!
//! * `sweep` — the Fig. 13 defense grid, closed loop (`sim::system`).
//! * `ingest` — open-loop trace ingestion (codec, mapping, shards, trackers).
//! * `socket` — the same ingest pipeline behind the TCP transport.
//! * `attack` — a seeded adversarial search through the security harness.
//!
//! A run sets its inputs up from the seed (several times, reporting the
//! fastest), runs one warm-up round whose outputs become the reference, then
//! times rounds for the requested seconds. A round is a fixed list of timed
//! operations (cells, ingest calls, a send, pattern × pair replays), and the
//! throughput sums each operation's fastest time over the rounds. Every round
//! must reproduce the reference digest bit for bit, and exact output checks
//! run after the timed region. The traced run alternates untraced and traced
//! rounds and then times each layer from outside with [`spans::Tracer`].

pub mod attack;
pub mod ingest;
pub mod socket;
pub mod spans;
pub mod sweep;

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use spans::{SpanId, Tracer};

/// Workers the timed rounds run cells and attack operations on
/// (`par_map_with`). One: on the two-CPU reference host, rounds on two
/// workers spread 27–30% (interquartile range over median) from run to run
/// against 2–5% on one, because co-tenant load on the second CPU comes and
/// goes.
pub const WORKERS: usize = 1;

/// Workers of the traced run's `exec` stage, which re-runs a round on the
/// pool to measure its idle share (the host has two CPUs).
pub const EXEC_WORKERS: usize = 2;

/// Channel-shard threads inside each simulation (the CLI default).
pub const SHARD_THREADS: usize = 1;

/// Shard threads of the post-timing determinism re-runs.
pub const RECHECK_SHARD_THREADS: usize = 2;

/// Environment knobs that silently change the measured code path; the
/// benchmark refuses to start while any is set.
pub const PINNED_ENV: [&str; 6] = [
    "IMPRESS_THREADS",
    "IMPRESS_HORIZON",
    "IMPRESS_EVICTION",
    "IMPRESS_RECORD_BATCH",
    "IMPRESS_SCALE",
    "IMPRESS_ALL_WORKLOADS",
];

/// Names of the workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["sweep", "ingest", "socket", "attack"];

/// Set-up samples before the warm-up round. An untraced run also takes one
/// more sample before every timed round, so the `setup_s` samples span the
/// whole run: co-tenant load comes in stretches of seconds to minutes.
pub const SETUP_REPEATS: usize = 5;

/// Set-up time one sample covers at least: a sample is the mean of set-ups
/// run back to back until their total reaches this. `sweep` sets up in about
/// 0.1 ms, and single calls that short varied twofold with cache and
/// allocator state.
pub const SETUP_SAMPLE: Duration = Duration::from_millis(20);

/// Quantile of the set-up samples reported as `setup_s`: the fastest sample,
/// like [`Workload::PIECE_QUANTILE`], because co-tenant load only ever slows
/// a set-up.
pub const SETUP_QUANTILE: f64 = 0.0;

/// Minimum timed rounds in an untraced run, however long they take. Past
/// these, a round starts only if one as fast as the fastest so far would end
/// within the requested seconds, so a run does not overshoot them by a
/// round.
pub const MIN_ROUNDS: usize = 3;

/// End-to-end metrics (printed with `--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 3] = [
    ("throughput", "items/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (printed with `--trace 1`): name and unit. A workload
/// reports 0 for a layer it bypasses.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("mix.ns_per_access", "ns/access"),
    ("system.ns_per_request", "ns/request"),
    ("system.cell_ms.p50", "ms"),
    ("system.cell_ms.max", "ms"),
    ("system.epochs", "count"),
    ("system.issues_per_epoch", "issues/epoch"),
    ("exec.idle_frac", "frac"),
    ("engine.ns_per_request", "ns/request"),
    ("codec.ns_per_record", "ns/record"),
    ("codec.frames", "count"),
    ("mapping.ns_per_record", "ns/record"),
    ("shard.ns_per_record", "ns/record"),
    ("shard.activations", "count"),
    ("shard.row_hit_rate", "frac"),
    ("shard.mitigations.graphene-impress-p", "count"),
    ("shard.mitigations.para-impress-p", "count"),
    ("shard.mitigations.mithril-impress-p", "count"),
    ("shard.rfm.graphene-impress-p", "count"),
    ("shard.rfm.para-impress-p", "count"),
    ("shard.rfm.mithril-impress-p", "count"),
    ("trace_runner.ns_per_record", "ns/record"),
    ("trace_runner.windows", "count"),
    ("engine.ns_per_record.graphene-impress-p", "ns/record"),
    ("engine.ns_per_record.para-impress-p", "ns/record"),
    ("engine.ns_per_record.mithril-impress-p", "ns/record"),
    ("transport.acked_s", "s"),
    ("transport.verdict_lag_ms", "ms"),
    ("transport.slowdown_vs_file", "ratio"),
    ("transport.sessions", "count"),
    ("transport.bytes_retransmitted", "bytes"),
    ("attacks.ns_per_access", "ns/access"),
    ("clm.ns_per_access", "ns/access"),
    ("tracker.ns_per_record.graphene", "ns/record"),
    ("tracker.ns_per_record.para", "ns/record"),
    ("tracker.ns_per_record.mithril", "ns/record"),
    ("tracker.ns_per_record.mint", "ns/record"),
    ("tracker.ns_per_record.prac", "ns/record"),
    ("security.ns_per_access.graphene", "ns/access"),
    ("security.ns_per_access.para", "ns/access"),
    ("security.ns_per_access.mithril", "ns/access"),
    ("security.ns_per_access.mint", "ns/access"),
    ("security.ns_per_access.prac", "ns/access"),
    ("security.mitigations", "count"),
    ("security.max_charge", "acts"),
    ("security.bound_violations", "count"),
    ("trace.overhead_frac", "frac"),
    ("error_rate", "frac"),
];

/// How much work a run does: the benchmark runs `Full`; the package's own
/// tests run `Tiny` so every check executes in well under a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Minimal sizes for tests.
    Tiny,
}

/// One timed operation of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece {
    /// Units of work it completed (requests, records or accesses).
    pub items: u64,
    /// Its wall time.
    pub wall: Duration,
}

/// What one round did, as the harness needs it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// The round's timed operations, in the same order every round.
    pub pieces: Vec<Piece>,
    /// Operations attempted (cells, ingest calls, sends, pattern × pair).
    pub attempted: u64,
    /// Operations that returned an error or panicked.
    pub failed: u64,
    /// Digest of the round's simulated outputs.
    pub digest: u64,
}

/// One benchmark workload.
pub trait Workload: Sized + Sync {
    /// Everything one round produces.
    type Round;

    /// Quantile of each operation's times over the rounds; `throughput` is
    /// the work of a round over the sum of these. The fastest time by
    /// default: on the 2-CPU reference host, co-tenant cache and memory
    /// traffic slows everything up to twofold, in bursts of a fraction of a
    /// second to minutes, and only ever slows an operation. CPU time tracks
    /// wall time through these bursts (the process is not descheduled), so
    /// timing CPU instead would not help. An operation takes milliseconds, a
    /// round seconds, so each operation finds a quiet moment far more often
    /// than a whole round does: over 20 s windows of one 150 s run, the sum
    /// of per-operation minima varied 10–11% where the fastest round varied
    /// 18–21%.
    const PIECE_QUANTILE: f64 = 0.0;

    /// Builds the inputs from the seed (timed as `setup_s`).
    fn setup(seed: u64, size: Size) -> Self;

    /// Runs the workload once, recording spans under `parent` when `tracer`
    /// is enabled.
    fn round(&self, tracer: &Tracer, parent: Option<SpanId>) -> Self::Round;

    /// Work done, operation counts and output digest of a round.
    fn summary(&self, round: &Self::Round) -> Summary;

    /// Exact output checks on a round, run after the timed region. Returns
    /// one message per failed check.
    fn check(&self, round: &Self::Round) -> Vec<String>;

    /// Per-layer metrics of a traced round (whose spans `tracer` holds),
    /// timing any extra layer stages it needs through `tracer`. Returns one
    /// message per failed stage check.
    fn layers(&self, round: &Self::Round, tracer: &Tracer, out: &mut Layers) -> Vec<String>;
}

/// Runs `f`, returning its result and the wall time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs `f`, turning an `Err` or a panic into an `Err` message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())),
    }
}

/// FNV-1a over the `Debug` forms of simulated outputs. `Debug` prints every
/// float with round-trip precision, so equal digests mean bit-equal fields.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value's `Debug` form into the digest.
    pub fn add(&mut self, value: &impl Debug) {
        for byte in format!("{value:?}").bytes().chain([0xff]) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Per-layer metric values of one traced run; unset layers read 0.
#[derive(Debug, Clone)]
pub struct Layers {
    values: Vec<f64>,
}

impl Default for Layers {
    fn default() -> Self {
        Self {
            values: vec![0.0; PER_LAYER.len()],
        }
    }
}

impl Layers {
    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.values[i] = finite(value);
    }

    /// `(name, unit, value)` for every per-layer metric, in table order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), &value)| Metric { name, unit, value })
            .collect()
    }
}

/// Nanoseconds per item of `time` (0 when there are no items).
pub fn ns_per(time: Duration, items: u64) -> f64 {
    signed_ns_per(time.as_nanos() as f64, items)
}

/// Nanoseconds per item of a (possibly negative) time difference in ns.
pub fn signed_ns_per(nanos: f64, items: u64) -> f64 {
    if items == 0 {
        0.0
    } else {
        nanos / items as f64
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Everything one benchmark run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted over all rounds.
    pub attempted: u64,
    /// Operations failed over all rounds.
    pub failed: u64,
    /// Digest of the reference round's simulated outputs.
    pub digest: u64,
    /// Messages of failed checks.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// The span recorder of a traced run.
    pub tracer: Tracer,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A float as a JSON number with all its digits (`Debug` prints the
/// shortest round-trip form, e.g. `0.5` or `1e-7`; non-finite values read 0).
fn json_number(v: f64) -> String {
    format!("{:?}", finite(v))
}

/// Runs workload `W` for `seconds` and reports its metrics.
pub fn run<W: Workload>(seed: u64, seconds: f64, trace: bool, size: Size) -> Outcome {
    let off = Tracer::off();
    let mut setups = Vec::new();
    // One sample: set-ups back to back until they fill `SETUP_SAMPLE`, each
    // earlier instance dropped outside the timed part; the mean is recorded.
    let mut timed_setup = || {
        let mut busy = Duration::ZERO;
        let mut calls = 0u32;
        loop {
            let t = Instant::now();
            let w = W::setup(seed, size);
            busy += t.elapsed();
            calls += 1;
            if busy >= SETUP_SAMPLE {
                setups.push(busy.as_secs_f64() / f64::from(calls));
                break w;
            }
        }
    };
    for _ in 1..SETUP_REPEATS {
        drop(timed_setup());
    }
    let w = timed_setup();

    // Warm-up: fills caches and lazy state, and fixes the reference outputs
    // every timed round must reproduce. It counts towards the requested
    // seconds, and its times compete with the timed rounds' for each
    // operation's fastest.
    let window = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    let reference = w.round(&off, None);
    let expected = w.summary(&reference);
    let mut attempted = expected.attempted;
    let mut failed = expected.failed;
    let mut failures = Vec::new();
    let mut account = |s: &Summary, failures: &mut Vec<String>| {
        attempted += s.attempted;
        failed += s.failed;
        if s.digest != expected.digest || s.pieces.len() != expected.pieces.len() {
            failures.push(format!(
                "round digest {:016x} differs from the warm-up round's {:016x}",
                s.digest, expected.digest
            ));
        }
    };
    let round_secs = |s: &Summary| s.pieces.iter().map(|p| p.wall.as_secs_f64()).sum::<f64>();

    let tracer = if trace { Tracer::on() } else { Tracer::off() };
    let metrics = if trace {
        let mut plain = Vec::new();
        let mut traced = Vec::new();
        let mut last = None;
        let mut fastest = start.elapsed() * 2;
        while plain.is_empty() || start.elapsed().saturating_add(fastest) <= window {
            let pair = Instant::now();
            let s = w.summary(&w.round(&off, None));
            plain.push(round_secs(&s));
            account(&s, &mut failures);

            tracer.clear();
            let r = tracer.span("round", 0, None, |root| w.round(&tracer, root));
            let s = w.summary(&r);
            traced.push(round_secs(&s));
            account(&s, &mut failures);
            last = Some(r);
            fastest = fastest.min(pair.elapsed());
        }
        let round = last.expect("at least one traced round");
        let mut layers = Layers::default();
        failures.extend(w.layers(&round, &tracer, &mut layers));
        layers.set(
            "trace.overhead_frac",
            median(&traced) / median(&plain) - 1.0,
        );
        layers.set("error_rate", rate(failed, attempted));
        layers.metrics()
    } else {
        // Every operation's times over the rounds, in piece order.
        let mut times: Vec<Vec<f64>> = expected
            .pieces
            .iter()
            .map(|p| vec![p.wall.as_secs_f64()])
            .collect();
        let mut rounds = 0;
        let mut fastest = start.elapsed();
        while rounds < MIN_ROUNDS || start.elapsed().saturating_add(fastest) <= window {
            drop(timed_setup());
            let (r, wall) = timed(|| w.round(&off, None));
            let s = w.summary(&r);
            for (t, p) in times.iter_mut().zip(&s.pieces) {
                t.push(p.wall.as_secs_f64());
            }
            account(&s, &mut failures);
            rounds += 1;
            fastest = fastest.min(wall);
        }
        let items: u64 = expected.pieces.iter().map(|p| p.items).sum();
        let secs: f64 = times.iter().map(|t| quantile(t, W::PIECE_QUANTILE)).sum();
        vec![
            Metric {
                name: END_TO_END[0].0,
                unit: END_TO_END[0].1,
                value: items as f64 / secs,
            },
            Metric {
                name: END_TO_END[1].0,
                unit: END_TO_END[1].1,
                value: quantile(&setups, SETUP_QUANTILE),
            },
            Metric {
                name: END_TO_END[2].0,
                unit: END_TO_END[2].1,
                value: peak_rss_mib().unwrap_or(0.0),
            },
        ]
    };

    failures.extend(w.check(&reference));
    if failed > 0 {
        failures.push(format!("{failed} of {attempted} operations failed"));
    }
    Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        digest: expected.digest,
        failures,
        metrics,
        tracer,
    }
}

/// `num / den` (0 when `den` is 0).
pub fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs workload `name` (one of [`WORKLOADS`]).
pub fn run_named(name: &str, seed: u64, seconds: f64, trace: bool, size: Size) -> Option<Outcome> {
    Some(match name {
        "sweep" => run::<sweep::Sweep>(seed, seconds, trace, size),
        "ingest" => run::<ingest::Ingest>(seed, seconds, trace, size),
        "socket" => run::<socket::Socket>(seed, seconds, trace, size),
        "attack" => run::<attack::Attack>(seed, seconds, trace, size),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn per_layer_names_are_unique() {
        for (i, (a, _)) in PER_LAYER.iter().enumerate() {
            assert!(PER_LAYER[i + 1..].iter().all(|(b, _)| a != b), "{a}");
        }
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            digest: 0,
            failures: Vec::new(),
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.5,
            }],
            tracer: Tracer::off(),
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
