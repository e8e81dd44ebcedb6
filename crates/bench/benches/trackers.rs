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
    // table's hash chains answer in O(1).
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

/// Mithril on the miss-heavy churn stream (4K distinct rows, larger than its
/// table, so after warm-up nearly every record runs the O(1) stream-summary
/// eviction path). Graphene on the same stream is `graphene_scan/single_pass`,
/// and the seed's linear scan on it is `graphene_scan/three_scan_seed`.
fn bench_eviction_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("eviction_churn");
    let eact = Eact::ONE;

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

criterion_group!(
    benches,
    bench_trackers,
    bench_prac_table,
    bench_graphene_scan,
    bench_eviction_churn
);
criterion_main!(benches);
