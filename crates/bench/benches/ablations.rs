//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * probing one target per inferred allocation vs one per /64 (the §3.2.1
//!   probe-cost argument),
//! * rotation-pool-bounded tracking vs scanning the whole BGP announcement,
//! * zmap-style streaming permutation vs a materialised Fisher–Yates shuffle,
//! * sorted-table longest-prefix match vs a linear scan,
//! * median vs mode per-AS allocation aggregation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use scent_bench::{short_campaign, versatel_engine};
use scent_bgp::{Asn, Rib};
use scent_core::AllocationInference;
use scent_ipv6::Ipv6Prefix;
use scent_prober::permutation::{seeded_shuffle, RandomPermutation};
use scent_prober::{Scan, Scanner, TargetGenerator};
use scent_simnet::SimTime;

fn bench_allocation_granularity(c: &mut Criterion) {
    let engine = versatel_engine(91);
    let pool = engine
        .pools()
        .iter()
        .find(|p| p.config.allocation_len == 56)
        .unwrap()
        .config
        .prefix;
    let generator = TargetGenerator::new(1);
    let scanner = Scanner::at_paper_rate(2);
    let mut group = c.benchmark_group("ablation/probe_granularity");
    for (label, granularity) in [("per_allocation_56", 56u8), ("per_64", 64u8)] {
        // One /48 of the pool, to keep the /64 case bounded.
        let prefix48 = Ipv6Prefix::from_bits(pool.network_bits(), 48).unwrap();
        let targets = generator.one_per_subnet(&prefix48, granularity);
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &targets,
            |b, targets| {
                b.iter(|| {
                    scanner
                        .scan(&engine, targets, SimTime::at(3, 9))
                        .eui64_responses()
                })
            },
        );
    }
    group.finish();
}

fn bench_tracking_search_space(c: &mut Criterion) {
    // Probes needed to re-find a device when the search space is the inferred
    // /46 pool at /56 granularity, versus the whole /40 chunk of the BGP /32
    // at /56 granularity (the full /32 is too large to benchmark directly —
    // which is the paper's point).
    let engine = versatel_engine(92);
    let pool = engine
        .pools()
        .iter()
        .find(|p| p.config.allocation_len == 56)
        .unwrap()
        .config
        .prefix;
    let wide = pool.supernet(40).unwrap();
    let generator = TargetGenerator::new(7);
    let t = SimTime::at(6, 12);
    // Ground truth device to look for.
    let target_iid = engine.pools()[3].cpes[10].eui64_iid();
    let mut group = c.benchmark_group("ablation/tracking_search_space");
    group.sample_size(10);
    for (label, space) in [("inferred_pool_46", pool), ("bgp_slice_40", wide)] {
        let targets = generator.one_per_subnet(&space, 56);
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &targets,
            |b, targets| {
                b.iter(|| {
                    let mut probes = 0u64;
                    for &target in targets.iter() {
                        probes += 1;
                        if let Some(reply) = engine.probe(target, t) {
                            if scent_ipv6::Eui64::from_addr(reply.source) == Some(target_iid) {
                                break;
                            }
                        }
                    }
                    probes
                })
            },
        );
    }
    group.finish();
}

fn bench_permutation_strategies(c: &mut Criterion) {
    let n = 100_000u64;
    let mut group = c.benchmark_group("ablation/permutation");
    group.bench_function("streaming_cycle_walk", |b| {
        b.iter(|| RandomPermutation::new(n, 42).iter().sum::<u64>())
    });
    group.bench_function("materialised_fisher_yates", |b| {
        b.iter(|| {
            let mut indices: Vec<u64> = (0..n).collect();
            seeded_shuffle(&mut indices, 42);
            indices.iter().sum::<u64>()
        })
    });
    group.finish();
}

fn bench_lpm_vs_linear(c: &mut Criterion) {
    let mut rib = Rib::new();
    let mut table: Vec<(Ipv6Prefix, Asn)> = Vec::new();
    for i in 0..2_000u32 {
        let prefix = Ipv6Prefix::from_bits((0x2600_0000u128 + i as u128) << 96, 32).unwrap();
        rib.announce(prefix, Asn(64_000 + i));
        table.push((prefix, Asn(64_000 + i)));
    }
    let addr: std::net::Ipv6Addr = "2600:3e8::1".parse().unwrap();
    let mut group = c.benchmark_group("ablation/rib_lookup");
    group.bench_function("sorted_table", |b| b.iter(|| rib.lookup(black_box(addr))));
    group.bench_function("linear_scan", |b| {
        b.iter(|| {
            table
                .iter()
                .filter(|(p, _)| p.contains(black_box(addr)))
                .max_by_key(|(p, _)| p.len())
                .map(|(_, asn)| *asn)
        })
    });
    group.finish();
}

fn bench_aggregation_median_vs_mode(c: &mut Criterion) {
    let engine = versatel_engine(93);
    let scans = short_campaign(&engine, 1);
    let refs: Vec<&Scan> = scans.iter().collect();
    let inference = AllocationInference::infer(&refs, engine.rib());
    let mut group = c.benchmark_group("ablation/per_as_aggregation");
    group.bench_function("median", |b| {
        b.iter(|| AllocationInference::infer(&refs, engine.rib()).per_as.len())
    });
    group.bench_function("mode", |b| b.iter(|| inference.per_as_mode().len()));
    group.finish();
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets = bench_allocation_granularity, bench_tracking_search_space,
        bench_permutation_strategies, bench_lpm_vs_linear,
        bench_aggregation_median_vs_mode
}
criterion_main!(ablations);
