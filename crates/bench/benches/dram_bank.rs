//! Criterion micro-benchmarks: DRAM bank state machine and address mapping.

use criterion::{criterion_group, criterion_main, Criterion};
use impress_dram::{AddressMapping, Bank, DramOrganization, DramTimings, PhysicalAddress};
use std::hint::black_box;

fn bench_bank(c: &mut Criterion) {
    let timings = DramTimings::ddr5();

    c.bench_function("bank_act_pre_cycle", |b| {
        let mut bank = Bank::new(0);
        let mut now = 0u64;
        b.iter(|| {
            bank.activate(black_box((now % 65_536) as u32), now, &timings)
                .unwrap();
            now += timings.t_ras;
            bank.precharge(now, &timings).unwrap();
            now += timings.t_rc - timings.t_ras;
            black_box(bank.stats().activations)
        });
    });

    // The reference decode against the decoder the run loops compile once
    // per run, on the same address stream.
    c.bench_function("mop_address_decode", |b| {
        let org = DramOrganization::baseline();
        let mapping = AddressMapping::paper_default();
        let mut addr = 0u64;
        b.iter(|| {
            addr = (addr + 4096) % org.capacity_bytes();
            black_box(mapping.decode(PhysicalAddress::new(addr), &org).unwrap())
        });
    });

    c.bench_function("mop_address_decoder", |b| {
        let org = DramOrganization::baseline();
        let decoder = AddressMapping::paper_default().decoder(&org);
        let mut addr = 0u64;
        b.iter(|| {
            addr = (addr + 4096) % org.capacity_bytes();
            black_box(decoder.decode(PhysicalAddress::new(addr)).unwrap())
        });
    });
}

criterion_group!(benches, bench_bank);
criterion_main!(benches);
