//! Benchmarks that regenerate the paper's two tables (at small scale):
//! Table 1 — the §4 discovery pipeline producing rotating-/48 counts per
//! ASN/country; Table 2 — the §6 tracking case study.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashSet;

use scent_bench::{short_campaign, small_world_engine, versatel_engine};
use scent_core::{AllocationInference, Pipeline, PipelineConfig, RotationPoolInference, Tracker};
use scent_prober::{Scan, Scanner, TargetGenerator};
use scent_simnet::SimTime;

fn bench_table1_pipeline(c: &mut Criterion) {
    let engine = small_world_engine(71);
    let config = PipelineConfig {
        max_48s_per_seed: 128,
        ..PipelineConfig::default()
    };
    c.bench_function("table1/discovery_pipeline_small_world", |b| {
        b.iter(|| {
            let report = Pipeline::new(config).run(&engine);
            assert!(!report.rotating_48s.is_empty());
            report.rotating_counts.total
        })
    });
}

fn bench_table2_tracking(c: &mut Criterion) {
    let engine = versatel_engine(72);
    let scans = short_campaign(&engine, 10);
    let refs: Vec<&Scan> = scans.iter().collect();
    let pool56 = engine
        .pools()
        .iter()
        .find(|p| p.config.allocation_len == 56)
        .unwrap()
        .config
        .prefix;
    let first_48 = scent_ipv6::Ipv6Prefix::from_bits(pool56.network_bits(), 48).unwrap();
    let alloc_scan = Scanner::at_paper_rate(5).scan(
        &engine,
        &TargetGenerator::new(4).one_per_subnet(&first_48, 64),
        SimTime::at(2, 12),
    );
    let allocation = AllocationInference::infer(&[&alloc_scan], engine.rib());
    let pools = RotationPoolInference::infer(&refs, engine.rib());
    let tracker = Tracker;
    let devices = tracker.select_devices(
        &allocation,
        &pools,
        engine.rib(),
        engine.as_registry(),
        &HashSet::new(),
        1,
        true,
    );
    c.bench_function("table2/track_device_one_week", |b| {
        b.iter(|| {
            let report = tracker.track(&engine, &devices, 20, 7);
            assert!(report.overall_accuracy() > 0.5);
            report.overall_accuracy()
        })
    });
    // The probe-count accounting itself (mean/stddev per device) is cheap but
    // part of the Table 2 output, so measure it separately.
    let report = tracker.track(&engine, &devices, 20, 7);
    c.bench_function("table2/probe_statistics", |b| {
        b.iter(|| {
            report
                .devices
                .iter()
                .map(|d| d.probe_stats())
                .collect::<Vec<_>>()
        })
    });
}

criterion_group! {
    name = tables;
    config = Criterion::default().sample_size(10);
    targets = bench_table1_pipeline, bench_table2_tracking
}
criterion_main!(tables);
