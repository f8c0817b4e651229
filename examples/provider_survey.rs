//! Survey a multi-AS world the way §4/§5 of the paper does: run the
//! discovery pipeline, then report per-AS allocation sizes, rotation pools
//! and CPE vendor homogeneity.
//!
//! Run with: `cargo run --release --example provider_survey`

use followscent::core::{
    report::TextTable, AllocationInference, HomogeneityReport, Pipeline, PipelineConfig,
    RotationPoolInference,
};
use followscent::oui::builtin_registry;
use followscent::prober::{Scanner, TargetGenerator};
use followscent::simnet::{scenarios, Engine, SimDuration, SimTime, WorldScale};

fn main() {
    let engine =
        Engine::build(scenarios::paper_world(99, WorldScale::small())).expect("world builds");
    println!(
        "world: {} ASes, {} CPE devices ({} EUI-64)\n",
        engine.config().providers.len(),
        engine.total_cpes(),
        engine.total_eui64_cpes()
    );

    // The §4 discovery pipeline.
    let pipeline = Pipeline::new(PipelineConfig::default()).run(&engine);
    println!(
        "discovery pipeline: {} seed /48s -> {} validated -> {} high density -> {} rotating /48s in {} ASes / {} countries\n",
        pipeline.seed_unique_48s,
        pipeline.validated_48s,
        pipeline.high_density,
        pipeline.rotating_counts.total,
        pipeline.rotating_ases,
        pipeline.rotating_countries
    );

    // A short daily campaign over every pool for the per-AS analyses.
    let generator = TargetGenerator::new(5);
    let mut targets = Vec::new();
    for pool in engine.pools() {
        targets.extend(
            generator.one_per_subnet(&pool.config.prefix, pool.config.allocation_len.min(60)),
        );
    }
    let scanner = Scanner::at_paper_rate(13);
    let day = SimDuration::from_days(1);
    let scans = scanner.scans(&engine, &targets, SimTime::at(50, 9), 8, day);
    let refs: Vec<_> = scans.iter().collect();

    let allocation = AllocationInference::infer(&refs[..1], engine.rib());
    let pools = RotationPoolInference::infer(&refs, engine.rib());
    let homogeneity = HomogeneityReport::analyse(&refs, engine.rib(), &builtin_registry(), 20);

    let mut table = TextTable::new([
        "ASN",
        "name",
        "CC",
        "alloc",
        "pool",
        "rotates",
        "homogeneity",
        "dominant vendor",
    ]);
    for info in engine.as_registry().iter() {
        let asn = info.asn;
        let Some(pool_len) = pools.per_as.get(&asn) else {
            continue;
        };
        let homog = homogeneity.for_as(asn);
        table.row([
            asn.value().to_string(),
            info.name.clone(),
            info.country.to_string(),
            format!("/{}", allocation.allocation_for(asn)),
            format!("/{pool_len}"),
            if pools.rotates(asn) { "yes" } else { "no" }.to_string(),
            homog
                .map(|h| format!("{:.2}", h.homogeneity))
                .unwrap_or_else(|| "-".into()),
            homog
                .map(|h| h.dominant.0.clone())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{}", table.render());
}
