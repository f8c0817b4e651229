//! Benchmarks that regenerate each figure's analysis (at small scale):
//! Figures 3/6 (allocation grids), 4 (homogeneity), 5 (allocation CDFs),
//! 7 (pool vs BGP CDFs), 8 (prefixes per IID), 9/10 (pool dynamics),
//! 11/12 (pathologies), 13 (tracking per-day counts).

use criterion::{criterion_group, criterion_main, Criterion};

use scent_bench::{short_campaign, small_world_engine, versatel_engine};
use scent_core::dynamics::{IidTrajectories, PoolDensityTimeline};
use scent_core::{
    AllocationGrid, AllocationInference, CampaignStats, HomogeneityReport, PathologyReport,
    RotationPoolInference,
};
use scent_oui::builtin_registry;
use scent_prober::{Scan, Scanner, TargetGenerator};
use scent_simnet::{scenarios, Engine, SimDuration, SimTime};

fn bench_fig3_fig6_grids(c: &mut Criterion) {
    let engine = Engine::build(scenarios::entel_like(81)).unwrap();
    let prefix = engine.pools()[0].config.prefix;
    c.bench_function("fig3/allocation_grid_probe_and_infer", |b| {
        b.iter(|| {
            let grid = AllocationGrid::probe(&engine, prefix, SimTime::at(1, 10), 3);
            assert_eq!(grid.infer_allocation_len(), Some(56));
            grid.distinct_sources()
        })
    });
    let grid = AllocationGrid::probe(&engine, prefix, SimTime::at(1, 10), 3);
    c.bench_function("fig6/grid_render_ascii", |b| b.iter(|| grid.render_ascii()));
}

fn bench_fig4_homogeneity(c: &mut Criterion) {
    let engine = small_world_engine(82);
    let generator = TargetGenerator::new(1);
    let mut targets = Vec::new();
    for pool in engine.pools() {
        targets.extend(
            generator.one_per_subnet(&pool.config.prefix, pool.config.allocation_len.min(60)),
        );
    }
    let scan = Scanner::at_paper_rate(2).scan(&engine, &targets, SimTime::at(100, 9));
    let registry = builtin_registry();
    c.bench_function("fig4/homogeneity_analysis", |b| {
        b.iter(|| {
            let report = HomogeneityReport::analyse(&[&scan], engine.rib(), &registry, 20);
            report.cdf().median()
        })
    });
}

fn bench_fig5_fig7_fig8_campaign_analyses(c: &mut Criterion) {
    let engine = versatel_engine(83);
    let scans = short_campaign(&engine, 8);
    let refs: Vec<&Scan> = scans.iter().collect();
    c.bench_function("fig5/allocation_inference", |b| {
        b.iter(|| {
            AllocationInference::infer(&refs[..1], engine.rib())
                .per_iid
                .len()
        })
    });
    c.bench_function("fig7/rotation_pool_inference", |b| {
        b.iter(|| {
            RotationPoolInference::infer(&refs, engine.rib())
                .per_as
                .len()
        })
    });
    c.bench_function("fig8/prefixes_per_iid_cdf", |b| {
        b.iter(|| {
            let stats = CampaignStats::compute(&refs);
            (
                stats.prefixes_per_iid_cdf().median(),
                stats.fraction_multi_prefix(),
            )
        })
    });
}

fn bench_fig9_fig10_dynamics(c: &mut Criterion) {
    let engine = versatel_engine(84);
    let pool = engine
        .pools()
        .iter()
        .find(|p| p.config.allocation_len == 56)
        .unwrap()
        .config
        .prefix;
    let scans = short_campaign(&engine, 10);
    let refs: Vec<&Scan> = scans.iter().collect();
    c.bench_function("fig9/iid_trajectories", |b| {
        b.iter(|| IidTrajectories::extract(&refs, &[]).best_observed(3))
    });
    c.bench_function("fig10/pool_density_timeline", |b| {
        b.iter(|| PoolDensityTimeline::measure(&pool, &refs).reassignment_hours())
    });
}

fn bench_fig11_fig12_pathologies(c: &mut Criterion) {
    let (world, _) = scenarios::pathology_mac_reuse(85);
    let engine = Engine::build(world).unwrap();
    let generator = TargetGenerator::new(2);
    let mut targets = Vec::new();
    for pool in engine.pools() {
        targets.extend(generator.one_per_subnet(&pool.config.prefix, 56));
    }
    let scanner = Scanner::at_paper_rate(3);
    let day = SimDuration::from_days(1);
    let scans = scanner.scans(&engine, &targets, SimTime::at(1, 10), 5, day);
    let refs: Vec<&Scan> = scans.iter().collect();
    c.bench_function("fig11_fig12/pathology_analysis", |b| {
        b.iter(|| {
            let report = PathologyReport::analyse(&refs, engine.rib());
            (report.multi_as_count(), report.zero_mac_ases)
        })
    });
}

fn bench_fig13_daily_counts(c: &mut Criterion) {
    use std::collections::HashSet;
    let engine = versatel_engine(86);
    let scans = short_campaign(&engine, 10);
    let refs: Vec<&Scan> = scans.iter().collect();
    let pools = RotationPoolInference::infer(&refs, engine.rib());
    let allocation = AllocationInference::infer(&refs[..1], engine.rib());
    let tracker = scent_core::Tracker;
    let devices = tracker.select_devices(
        &allocation,
        &pools,
        engine.rib(),
        engine.as_registry(),
        &HashSet::new(),
        1,
        true,
    );
    let report = tracker.track(&engine, &devices, 15, 7);
    c.bench_function("fig13/daily_counts", |b| b.iter(|| report.daily_counts()));
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = bench_fig3_fig6_grids, bench_fig4_homogeneity,
        bench_fig5_fig7_fig8_campaign_analyses, bench_fig9_fig10_dynamics,
        bench_fig11_fig12_pathologies, bench_fig13_daily_counts
}
criterion_main!(figures);
