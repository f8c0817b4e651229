//! Figure experiments: Figures 3 through 13.

use scent_core::report::{cdf_series, percent, TextTable};
use scent_core::{
    dynamics::{IidTrajectories, PoolDensityTimeline},
    AllocationGrid, CampaignStats, Eui64, HomogeneityReport, PathologyReport,
};
use scent_oui::builtin_registry;
use scent_prober::{Scanner, TargetGenerator};
use scent_simnet::{scenarios, Engine, SimDuration, SimTime};

use crate::campaign::{CampaignData, Scale, WORLD_SEED};
use crate::tables::tracking_reports;

/// The paper's interval between campaign scans.
const DAY: SimDuration = SimDuration::from_days(1);

fn grid_summary(label: &str, engine: &Engine, prefix: scent_ipv6::Ipv6Prefix) -> String {
    let grid = AllocationGrid::probe(engine, prefix, SimTime::at(1, 10), WORLD_SEED);
    format!(
        "{label}: {prefix}\n  inferred allocation: {}   distinct responders: {}   unresponsive: {}\n",
        grid.infer_allocation_len()
            .map(|l| format!("/{l}"))
            .unwrap_or_else(|| "?".into()),
        grid.distinct_sources(),
        percent(grid.unresponsive_fraction()),
    )
}

/// Figure 3: allocation grids for an Entel-like (/56), BH-Telecom-like (/60)
/// and Starcat-like (/64) provider.
pub fn run_fig3() -> String {
    let mut out = String::from(
        "Figure 3: per-/48 allocation grids (paper: Entel /56, BH Telecom /60, Starcat /64)\n\n",
    );
    let entel = Engine::build(scenarios::entel_like(WORLD_SEED)).unwrap();
    out.push_str(&grid_summary(
        "Entel-like (BO)",
        &entel,
        entel.pools()[0].config.prefix,
    ));
    let bh = Engine::build(scenarios::bhtelecom_like(WORLD_SEED)).unwrap();
    out.push_str(&grid_summary(
        "BH-Telecom-like (BA)",
        &bh,
        bh.pools()[0].config.prefix,
    ));
    let starcat = Engine::build(scenarios::starcat_like(WORLD_SEED)).unwrap();
    out.push_str(&grid_summary(
        "Starcat-like (JP)",
        &starcat,
        "2400:d800:300::/48".parse().unwrap(),
    ));
    out
}

/// Figure 6: one provider (Versatel-like) with two different allocation plans
/// in different /48s.
pub fn run_fig6() -> String {
    let engine = Engine::build(scenarios::versatel_like(WORLD_SEED)).unwrap();
    let pool64 = engine
        .pools()
        .iter()
        .find(|p| p.config.allocation_len == 64)
        .unwrap()
        .config
        .prefix;
    let pool56 = engine
        .pools()
        .iter()
        .find(|p| p.config.allocation_len == 56)
        .unwrap()
        .config
        .prefix;
    let first_48 = |p: scent_ipv6::Ipv6Prefix| {
        scent_ipv6::Ipv6Prefix::from_bits(p.network_bits(), 48).unwrap()
    };
    let mut out = String::from(
        "Figure 6: one provider (AS8881) with /64 and /56 allocation plans in different /48s\n\n",
    );
    out.push_str(&grid_summary("Versatel pool A", &engine, first_48(pool64)));
    out.push_str(&grid_summary("Versatel pool B", &engine, first_48(pool56)));
    out
}

/// Figure 4: CDF of per-AS CPE manufacturer homogeneity.
pub fn run_fig4() -> String {
    let data = CampaignData::collect(Scale::from_env());
    let min_iids = match Scale::from_env() {
        Scale::Experiment => 100,
        Scale::Small => 20,
    };
    let report = HomogeneityReport::analyse(
        &data.scan_refs(),
        data.engine.rib(),
        &builtin_registry(),
        min_iids,
    );
    let cdf = report.cdf();
    format!(
        "Figure 4: per-AS manufacturer homogeneity CDF\n\
         ASes included: {} (paper: 87)   distinct manufacturers: {} (paper: >200)\n\
         fraction of ASes >0.9: {} (paper: >50%)   >0.67: {} (paper: ~75%)\n\
         CDF: {}\n",
        report.per_as.len(),
        report.total_manufacturers,
        percent(report.fraction_above(0.9)),
        percent(report.fraction_above(0.67)),
        cdf_series(&cdf.steps()),
    )
}

/// Figure 5: CDFs of inferred allocation size per EUI-64 IID (a) and per AS (b).
pub fn run_fig5() -> String {
    let data = CampaignData::collect(Scale::from_env());
    let iid_cdf =
        scent_core::Cdf::from_samples(data.allocation.iid_sizes().iter().map(|&s| s as f64));
    let as_cdf =
        scent_core::Cdf::from_samples(data.allocation.as_sizes().iter().map(|&s| s as f64));
    format!(
        "Figure 5a: inferred allocation size CDF over EUI-64 IIDs ({} IIDs)\n  {}\n\
         paper: ~40% /56, ~30% /64, inflection at /60\n\n\
         Figure 5b: median inferred allocation size CDF over ASes ({} ASes)\n  {}\n\
         paper: ~50% of ASes /56, ~25% /64\n",
        iid_cdf.len(),
        cdf_series(&iid_cdf.steps()),
        as_cdf.len(),
        cdf_series(&as_cdf.steps()),
    )
}

/// Figure 7: inferred rotation-pool sizes versus encompassing BGP prefix
/// sizes, as CDFs over ASes.
pub fn run_fig7() -> String {
    let data = CampaignData::collect(Scale::from_env());
    let (pool_cdf, bgp_cdf) = CampaignStats::pool_vs_bgp_cdfs(&data.scan_refs(), data.engine.rib());
    let reduction = data.pools.median_search_space_reduction_bits().unwrap_or(0);
    format!(
        "Figure 7: inferred rotation pool size vs encompassing BGP prefix size (CDF over ASes)\n\
         rotation pool CDF: {}\n\
         BGP prefix  CDF: {}\n\
         median search-space reduction: {} bits (paper: ≈16 bits — devices stay within 1/2^16 of the announcement)\n\
         ASes with pool /64 (no observed rotation): {} of {} (paper: just over half)\n",
        cdf_series(&pool_cdf.steps()),
        cdf_series(&bgp_cdf.steps()),
        reduction,
        data.pools.as_pool_sizes().iter().filter(|&&l| l == 64).count(),
        data.pools.per_as.len(),
    )
}

/// Figure 8: CDF of the number of distinct /64 prefixes per EUI-64 IID.
pub fn run_fig8() -> String {
    let data = CampaignData::collect(Scale::from_env());
    let stats = CampaignStats::compute(&data.scan_refs());
    let cdf = stats.prefixes_per_iid_cdf();
    format!(
        "Figure 8: distinct /64 prefixes per EUI-64 IID (CDF over {} IIDs)\n\
         CDF: {}\n\
         fraction in exactly one /64: {} (paper: ~25%)\n\
         fraction in more than one /64: {} (paper: ~70%)\n\
         maximum observed: {}\n",
        stats.unique_iids,
        cdf_series(&cdf.steps()),
        percent(1.0 - stats.fraction_multi_prefix()),
        percent(stats.fraction_multi_prefix()),
        stats.prefixes_per_iid.values().copied().max().unwrap_or(0),
    )
}

/// Figure 9: three AS8881 identifiers' delegated /64 prefix over time
/// (incrementing daily modulo the /46 pool).
pub fn run_fig9() -> String {
    let engine = Engine::build(scenarios::versatel_like(WORLD_SEED)).unwrap();
    let pool = engine
        .pools()
        .iter()
        .find(|p| p.config.allocation_len == 56)
        .unwrap()
        .config
        .prefix;
    let targets = TargetGenerator::new(WORLD_SEED).one_per_subnet(&pool, 56);
    let scanner = Scanner::at_paper_rate(WORLD_SEED);
    let days = Scale::from_env().campaign_days().max(10);
    let scans = scanner.scans(&engine, &targets, SimTime::at(1, 9), days, DAY);
    let refs: Vec<_> = scans.iter().collect();
    let trajectories = IidTrajectories::extract(&refs, &[]);
    let best = trajectories.best_observed(3);

    let mut out = format!(
        "Figure 9: daily /64 prefix of three AS8881 EUI-64 IIDs over {days} days (pool {pool})\n\n"
    );
    for (i, eui) in best.iter().enumerate() {
        let trajectory = trajectories.for_iid(*eui).unwrap();
        let series: Vec<String> = trajectory
            .iter()
            .map(|obs| {
                format!(
                    "d{}:{}",
                    obs.at.day(),
                    pool.subnet_index(&obs.prefix64).unwrap_or_default()
                )
            })
            .collect();
        out.push_str(&format!(
            "IID #{} ({eui}): monotone-mod-pool: {}\n  /64 index in pool by day: {}\n",
            i + 1,
            trajectories
                .is_monotone_modulo(*eui, &pool)
                .unwrap_or(false),
            series.join(" ")
        ));
    }
    out
}

/// Figure 10: hourly EUI-64 density per /48 of an AS8881 /46 rotation pool.
pub fn run_fig10() -> String {
    let engine = Engine::build(scenarios::versatel_like(WORLD_SEED)).unwrap();
    let pool = engine
        .pools()
        .iter()
        .find(|p| p.config.allocation_len == 56)
        .unwrap()
        .config
        .prefix;
    let targets = TargetGenerator::new(WORLD_SEED).one_per_subnet(&pool, 56);
    let scanner = Scanner::at_paper_rate(WORLD_SEED ^ 1);
    let hour = SimDuration::from_hours(1);
    let scans = scanner.scans(&engine, &targets, SimTime::at(20, 0), 7 * 24, hour);
    let refs: Vec<_> = scans.iter().collect();
    let timeline = PoolDensityTimeline::measure(&pool, &refs);
    let mut out = format!(
        "Figure 10: hourly EUI-64 density of the four /48s of {pool} over one week\n\
         (paper: reassignment occurs 00:00–06:00; one /48 dominates at any time)\n\n"
    );
    let mut table = TextTable::new(["time", "/48 #0", "/48 #1", "/48 #2", "/48 #3"]);
    for (t, densities) in timeline.rows.iter().step_by(6) {
        let mut row = vec![t.to_string()];
        row.extend(densities.iter().map(|d| format!("{d:.3}")));
        table.row(row);
    }
    out.push_str(&table.render());
    let hours = timeline.reassignment_hours();
    out.push_str(&format!(
        "\nreassignment (densest /48 changes) observed at hours: {hours:?}\n"
    ));
    out
}

/// Figure 11: a single EUI-64 IID observed in many ASes on several continents
/// (vendor MAC reuse).
pub fn run_fig11() -> String {
    let (world, reused_mac) = scenarios::pathology_mac_reuse(WORLD_SEED);
    let engine = Engine::build(world).unwrap();
    let generator = TargetGenerator::new(WORLD_SEED);
    let mut targets = Vec::new();
    for pool in engine.pools() {
        targets.extend(generator.one_per_subnet(&pool.config.prefix, pool.config.allocation_len));
    }
    let scanner = Scanner::at_paper_rate(WORLD_SEED ^ 2);
    let scans = scanner.scans(&engine, &targets, SimTime::at(1, 10), 10, DAY);
    let refs: Vec<_> = scans.iter().collect();
    let report = PathologyReport::analyse(&refs, engine.rib());
    let reused = Eui64::from_mac(reused_mac);
    let timeline = &report.multi_as[&reused];
    let mut out = format!(
        "Figure 11: one EUI-64 IID ({reused}) observed per day, by AS\n\
         (paper: the same IID appears daily in ASes on several continents — MAC reuse)\n\n"
    );
    let mut table = TextTable::new(["day", "ASes observed"]);
    for (day, ases) in &timeline.per_day {
        table.row([
            day.to_string(),
            ases.iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nIIDs in multiple ASes: {}   flagged as MAC reuse: {}   zero-MAC ASes: {} (paper: 12)\n",
        report.multi_as_count(),
        report.mac_reuse.len(),
        report.zero_mac_ases,
    ));
    out
}

/// Figure 12: two EUI-64 IIDs switching between two German ISPs.
pub fn run_fig12() -> String {
    let (world, [mac_a, mac_b]) = scenarios::pathology_provider_switch(WORLD_SEED, 12, 32);
    let engine = Engine::build(world).unwrap();
    let generator = TargetGenerator::new(WORLD_SEED);
    let mut targets = Vec::new();
    for pool in engine.pools() {
        targets.extend(generator.one_per_subnet(&pool.config.prefix, pool.config.allocation_len));
    }
    let scanner = Scanner::at_paper_rate(WORLD_SEED ^ 3);
    let scans = scanner.scans(&engine, &targets, SimTime::at(1, 10), 44, DAY);
    let refs: Vec<_> = scans.iter().collect();
    let report = PathologyReport::analyse(&refs, engine.rib());

    let mut out = String::from(
        "Figure 12: two EUI-64 IIDs changing between German ISPs (AS8881 ↔ AS3320)\n\n",
    );
    for (label, mac) in [("A", mac_a), ("B", mac_b)] {
        let iid = Eui64::from_mac(mac);
        match report.provider_switches.get(&iid) {
            Some((from, to, day)) => out.push_str(&format!(
                "device {label} ({iid}): moved {from} -> {to} on day {day}, never seen in {from} again\n"
            )),
            None => out.push_str(&format!("device {label} ({iid}): no switch detected\n")),
        }
    }
    out.push_str(&format!(
        "\nprovider switches detected: {}\n",
        report.provider_switches.len()
    ));
    out
}

/// Figure 13: devices found per day when tracking ten random devices (a) and
/// ten known-rotating devices (b) over a week.
pub fn run_fig13() -> String {
    let (rotating, random) = tracking_reports();
    let mut out = String::from("Figure 13: tracked EUI-64 IIDs found per day over one week\n\n");
    for (label, report, paper) in [
        (
            "13a: ten randomly selected IIDs",
            &random,
            "paper: 9–10 of 10 found daily; rotated count grows 1 → 4",
        ),
        (
            "13b: ten known-rotating IIDs",
            &rotating,
            "paper: 6–8 of 10 found daily; all rotate by day 4",
        ),
    ] {
        out.push_str(&format!("{label} ({paper})\n"));
        let mut table = TextTable::new(["day", "# found", "# in same /64", "# in different /64"]);
        for counts in report.daily_counts() {
            table.row([
                counts.day.to_string(),
                counts.found.to_string(),
                counts.same_prefix.to_string(),
                counts.different_prefix.to_string(),
            ]);
        }
        out.push_str(&table.render());
        out.push_str(&format!(
            "devices tracked: {}   overall accuracy: {}\n\n",
            report.devices.len(),
            percent(report.overall_accuracy())
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() {
        std::env::set_var("SCENT_SCALE", "small");
        std::env::set_var("SCENT_DAYS", "6");
    }

    #[test]
    fn grid_figures_render() {
        small();
        let fig3 = run_fig3();
        assert!(fig3.contains("/56"));
        assert!(fig3.contains("/60"));
        assert!(fig3.contains("/64"));
        let fig6 = run_fig6();
        assert!(fig6.contains("pool A"));
        assert!(fig6.contains("pool B"));
    }

    #[test]
    fn dynamics_and_pathology_figures_render() {
        small();
        let fig9 = run_fig9();
        assert!(fig9.contains("IID #1"));
        assert!(fig9.contains("monotone-mod-pool: true"));
        let fig11 = run_fig11();
        assert!(fig11.contains("MAC reuse"));
        let fig12 = run_fig12();
        assert!(fig12.contains("AS8881 -> AS3320") || fig12.contains("moved"));
    }
}
