//! Criterion micro-benchmarks: per-activation cost of each Rowhammer tracker, plus
//! before/after comparisons for the PR 2 hot-path rewrites (flat-table PRAC vs the
//! seed's `HashMap`, single-pass Graphene/Mithril vs the seed's multi-scan updates)
//! and the stream-summary victim selection on miss-heavy churn
//! (`eviction_churn/*`).

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use impress_trackers::eact::EactCounter;
use impress_trackers::graphene::GrapheneConfig;
use impress_trackers::{Eact, Graphene, Mint, Mithril, Para, Prac, RowTracker};
use std::hint::black_box;

fn bench_trackers(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracker_record");
    let mut trackers: Vec<(&str, Box<dyn RowTracker>)> = vec![
        ("graphene", Box::new(Graphene::for_threshold(4_000))),
        ("para", Box::new(Para::for_threshold(4_000))),
        ("mithril", Box::new(Mithril::for_threshold(4_000))),
        ("mint", Box::new(Mint::paper_default())),
        ("prac", Box::new(Prac::for_threshold(4_000, 7, 1 << 16))),
    ];
    for (name, tracker) in &mut trackers {
        group.bench_with_input(BenchmarkId::from_parameter(*name), name, |b, _| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                let row = (i % 4096) as u32;
                black_box(tracker.record(row, Eact::from_f64(1.5, 7), i * 128))
            });
        });
    }
    group.finish();
}

/// The seed's PRAC counter store, kept here as the "before" side of the comparison.
struct HashMapPracStore {
    counters: HashMap<u32, EactCounter>,
    alert_threshold: u64,
}

impl HashMapPracStore {
    fn record(&mut self, row: u32, eact: Eact) -> bool {
        let counter = self.counters.entry(row).or_default();
        counter.add(eact);
        if counter.reached(self.alert_threshold) {
            *counter = EactCounter::ZERO;
            true
        } else {
            false
        }
    }
}

/// Before/after for the PRAC table: the seed's `HashMap` store vs the open-addressed
/// flat table now inside [`Prac`], on the same hot-set access pattern.
fn bench_prac_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("prac_table");
    let eact = Eact::from_f64(1.5, 7);

    let mut reference = HashMapPracStore {
        counters: HashMap::new(),
        alert_threshold: 2_000,
    };
    group.bench_function("hashmap_seed", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(reference.record((i % 4096) as u32, eact))
        });
    });

    let mut flat = Prac::for_threshold(4_000, 7, 1 << 16);
    group.bench_function("flat_table", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(flat.record((i % 4096) as u32, eact, i * 128))
        });
    });
    group.finish();
}

/// The seed's three-scan Graphene `record`, kept as the "before" side.
struct ThreeScanGraphene {
    internal_threshold: u64,
    table: Vec<(u32, EactCounter, bool)>,
    spillover: EactCounter,
}

impl ThreeScanGraphene {
    fn new(config: &GrapheneConfig) -> Self {
        Self {
            internal_threshold: config.internal_threshold,
            table: vec![(0, EactCounter::ZERO, false); config.entries],
            spillover: EactCounter::ZERO,
        }
    }

    fn record(&mut self, row: u32, eact: Eact) -> bool {
        let slot = if let Some(i) = self.table.iter().position(|e| e.2 && e.0 == row) {
            i
        } else if let Some(i) = self.table.iter().position(|e| !e.2) {
            self.table[i] = (row, self.spillover, true);
            i
        } else if let Some(i) = self
            .table
            .iter()
            .position(|e| e.1.raw() <= self.spillover.raw())
        {
            self.table[i] = (row, self.spillover, true);
            i
        } else {
            self.spillover.add(eact);
            return false;
        };
        self.table[slot].1.add(eact);
        if self.table[slot].1.reached(self.internal_threshold) {
            self.table[slot].1 = self.spillover;
            true
        } else {
            false
        }
    }
}

/// Before/after for the Graphene Misra-Gries update: three scans vs one pass, on a
/// stream that overflows the table (the worst case for both).
fn bench_graphene_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("graphene_scan");
    let config = GrapheneConfig::for_threshold(4_000);
    let eact = Eact::ONE;

    let mut reference = ThreeScanGraphene::new(&config);
    group.bench_function("three_scan_seed", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(reference.record((i % 4096) as u32, eact))
        });
    });

    let mut single = Graphene::new(config.clone());
    group.bench_function("single_pass", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(single.record((i % 4096) as u32, eact, i * 128))
        });
    });

    // Match-path pair: a hot set smaller than the table, where every record after
    // warm-up matches a tracked row. The seed scanned O(entries) to find it; the
    // row→slot index answers in O(1).
    let mut reference_hot = ThreeScanGraphene::new(&config);
    group.bench_function("match_three_scan_seed", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(reference_hot.record((i % 128) as u32, eact))
        });
    });
    let mut indexed_hot = Graphene::new(config.clone());
    group.bench_function("match_slot_index", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(indexed_hot.record((i % 128) as u32, eact, i * 128))
        });
    });
    group.finish();
}

/// Graphene and Mithril on the miss-heavy churn stream (4K distinct rows,
/// larger than either table, so after warm-up nearly every record runs the
/// O(1) stream-summary eviction path). The seed's linear scan on the same
/// stream is timed as `graphene_scan/three_scan_seed`.
fn bench_eviction_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("eviction_churn");
    let eact = Eact::ONE;

    let mut graphene = Graphene::for_threshold(4_000);
    group.bench_function("graphene_churn_summary", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(graphene.record((i % 4096) as u32, eact, i * 128))
        });
    });
    let mut mithril = Mithril::for_threshold(4_000);
    group.bench_function("mithril_churn_summary", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(mithril.record((i % 4096) as u32, eact, i * 128))
        });
    });
    group.finish();
}

/// Splitmix64 step; deterministic stand-in for a uniform-random row stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Before/after pairs for the PR 8 batched record kernels: one
/// `record_batch` call over a 1024-event span vs the same span fed through
/// `record` one event at a time, for the three table trackers, on the two
/// stream shapes that bracket the kernels' behaviour — a hot same-row-burst
/// stream (runs of 16 activations per row over a small hot set, the
/// RowPress-typical shape run-length aggregation exploits) and a
/// uniform-random stream over a row space larger than any table (no runs,
/// pure eviction churn, the kernels' worst case).
fn bench_record_batch(c: &mut Criterion) {
    const SPAN: usize = 1024;

    // Hot same-row-burst: runs of 16 consecutive activations per row, rows
    // cycling through a 128-row hot set (smaller than every table).
    let burst: Vec<u32> = (0..SPAN).map(|i| ((i / 16) % 128) as u32).collect();
    // Uniform-random over 64K rows: larger than any table, so nearly every
    // record takes the insert/evict path and runs have length 1.
    let mut state = 0x5eed_u64;
    let uniform: Vec<u32> = (0..SPAN)
        .map(|_| (splitmix64(&mut state) % (1 << 16)) as u32)
        .collect();

    let eacts = vec![Eact::from_f64(1.5, 7); SPAN];
    let streams: [(&str, &[u32]); 2] = [("burst", &burst), ("uniform", &uniform)];

    type MakeTracker = fn() -> Box<dyn RowTracker>;
    let mut group = c.benchmark_group("tracker_record");
    let make: [(&str, MakeTracker); 3] = [
        ("graphene", || Box::new(Graphene::for_threshold(4_000))),
        ("mithril", || Box::new(Mithril::for_threshold(4_000))),
        ("prac", || Box::new(Prac::for_threshold(4_000, 7, 1 << 16))),
    ];
    for (tracker_name, new_tracker) in make {
        for (stream_name, rows) in streams {
            let mut per_record = new_tracker();
            group.bench_with_input(
                BenchmarkId::new(&format!("per_record_{tracker_name}"), stream_name),
                rows,
                |b, rows| {
                    let mut now = 0u64;
                    b.iter(|| {
                        now += (SPAN as u64) * 128;
                        let mut mitigations = 0usize;
                        for (i, &row) in rows.iter().enumerate() {
                            if per_record.record(row, eacts[i], now).is_some() {
                                mitigations += 1;
                            }
                        }
                        black_box(mitigations)
                    });
                },
            );
            let mut batched = new_tracker();
            let mut out = Vec::new();
            group.bench_with_input(
                BenchmarkId::new(&format!("batched_{tracker_name}"), stream_name),
                rows,
                |b, rows| {
                    let mut now = 0u64;
                    b.iter(|| {
                        now += (SPAN as u64) * 128;
                        out.clear();
                        batched.record_batch(rows, &eacts, now, &mut out);
                        black_box(out.len())
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_trackers,
    bench_prac_table,
    bench_graphene_scan,
    bench_eviction_churn,
    bench_record_batch
);
criterion_main!(benches);
