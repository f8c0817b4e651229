//! Table experiments: Table 1, Table 2 and the §4/§5 prose counts.

use std::collections::HashSet;

use scent_core::report::TextTable;
use scent_core::{CampaignStats, Pipeline, PipelineConfig, Tracker, TrackerConfig};
use scent_simnet::{scenarios, Engine};

use crate::campaign::{CampaignData, Scale, WORLD_SEED};

/// Table 1: top ASNs and countries by number of rotating /48 prefixes,
/// produced by the full §4 discovery pipeline.
pub fn run_table1() -> String {
    let scale = Scale::from_env();
    let engine = Engine::build(scenarios::paper_world(WORLD_SEED, scale.world_scale()))
        .unwrap_or_else(|error| panic!("paper world must build: {error}"));
    let report = Pipeline::new(PipelineConfig::default()).run(&engine);

    let mut out = String::new();
    out.push_str("Table 1: Top ASNs and countries by number of rotating /48 prefixes\n");
    out.push_str(
        "(paper: 12,885 rotating /48s across >100 ASes in 25 countries; scaled world)\n\n",
    );
    let mut asn_table = TextTable::new(["ASN", "# /48"]);
    for (asn, count) in report.rotating_counts.per_asn.iter().take(5) {
        asn_table.row([asn.value().to_string(), count.to_string()]);
    }
    let shown: u64 = report
        .rotating_counts
        .per_asn
        .iter()
        .take(5)
        .map(|(_, c)| c)
        .sum();
    asn_table.row([
        format!(
            "{} other ASNs",
            report.rotating_counts.per_asn.len().saturating_sub(5)
        ),
        (report.rotating_counts.total - shown).to_string(),
    ]);
    asn_table.row([
        "Total".to_string(),
        report.rotating_counts.total.to_string(),
    ]);
    out.push_str(&asn_table.render());

    out.push('\n');
    let mut cc_table = TextTable::new(["Country", "# /48"]);
    for (country, count) in report.rotating_counts.per_country.iter().take(5) {
        cc_table.row([country.to_string(), count.to_string()]);
    }
    let shown: u64 = report
        .rotating_counts
        .per_country
        .iter()
        .take(5)
        .map(|(_, c)| c)
        .sum();
    cc_table.row([
        format!(
            "{} other countries",
            report.rotating_counts.per_country.len().saturating_sub(5)
        ),
        (report.rotating_counts.total - shown).to_string(),
    ]);
    cc_table.row([
        "Total".to_string(),
        report.rotating_counts.total.to_string(),
    ]);
    out.push_str(&cc_table.render());
    out.push_str(&format!(
        "\nrotating ASes: {} (paper: >100)   rotating countries: {} (paper: 25)\n",
        report.rotating_ases, report.rotating_countries
    ));
    out
}

/// The §4 prose counts: seed /48s, validated /48s, density classes, rotating
/// /48s, and address/IID totals of the detection phase.
pub fn run_pipeline_counts() -> String {
    let scale = Scale::from_env();
    let engine = Engine::build(scenarios::paper_world(WORLD_SEED, scale.world_scale()))
        .unwrap_or_else(|error| panic!("paper world must build: {error}"));
    let report = Pipeline::new(PipelineConfig::default()).run(&engine);

    let mut table = TextTable::new(["quantity", "measured", "paper"]);
    table.row([
        "seed /48s (unique EUI-64 last hop)".to_string(),
        report.seed_unique_48s.to_string(),
        "32,325".into(),
    ]);
    table.row([
        "seed /32s".to_string(),
        report.seed_32s.to_string(),
        "938".into(),
    ]);
    table.row([
        "validated /48s (EUI-64 response)".to_string(),
        report.validated_48s.to_string(),
        "48,970".into(),
    ]);
    table.row([
        "high-density /48s".to_string(),
        report.high_density.to_string(),
        "17,513".into(),
    ]);
    table.row([
        "low-density /48s".to_string(),
        report.low_density.to_string(),
        "27,429".into(),
    ]);
    table.row([
        "unresponsive candidates".to_string(),
        report.no_response.to_string(),
        "4,028".into(),
    ]);
    table.row([
        "rotating /48s".to_string(),
        report.rotating_counts.total.to_string(),
        "12,885".into(),
    ]);
    table.row([
        "total addresses (detection phase)".to_string(),
        report.total_addresses.to_string(),
        "19.4M".into(),
    ]);
    table.row([
        "EUI-64 addresses".to_string(),
        report.eui64_addresses.to_string(),
        "14.8M".into(),
    ]);
    table.row([
        "unique EUI-64 IIDs".to_string(),
        report.unique_iids.to_string(),
        "6.2M".into(),
    ]);
    format!(
        "Pipeline counts (§4) — absolute values scale with the world divisor; ratios are comparable\n\n{}",
        table.render()
    )
}

/// The §5 campaign totals: probes, responses, unique addresses, unique EUI-64
/// addresses and unique IIDs over the multi-week daily campaign.
pub fn run_campaign_totals() -> String {
    let data = CampaignData::collect(Scale::from_env());
    let stats = CampaignStats::compute(&data.scan_refs());
    let mut table = TextTable::new(["quantity", "measured", "paper"]);
    table.row([
        "campaign days".to_string(),
        data.scans.len().to_string(),
        "44".into(),
    ]);
    table.row([
        "probes sent".to_string(),
        stats.probes_sent.to_string(),
        "37B".into(),
    ]);
    table.row([
        "responses".to_string(),
        stats.responses.to_string(),
        "24B".into(),
    ]);
    table.row([
        "unique addresses".to_string(),
        stats.unique_addresses.to_string(),
        "134M".into(),
    ]);
    table.row([
        "unique EUI-64 addresses".to_string(),
        stats.unique_eui64_addresses.to_string(),
        "110M".into(),
    ]);
    table.row([
        "unique EUI-64 IIDs".to_string(),
        stats.unique_iids.to_string(),
        "9M".into(),
    ]);
    table.row([
        "EUI-64 addresses per IID".to_string(),
        format!("{:.1}", stats.addresses_per_iid()),
        "~12".into(),
    ]);
    table.row([
        "IIDs seen in >1 /64".to_string(),
        scent_core::report::percent(stats.fraction_multi_prefix()),
        "~70%".into(),
    ]);
    format!("Campaign totals (§5)\n\n{}", table.render())
}

/// Table 2 and the underlying tracking experiment: ten devices tracked for a
/// week using the inferred allocation and rotation-pool sizes.
pub fn run_table2() -> String {
    let (report, _report_random) = tracking_reports();
    let mut table = TextTable::new([
        "EUI-64 IID",
        "Mean probes",
        "StdDev",
        "BGP prefix",
        "ASN",
        "CC",
        "# Days",
        "# /64s",
    ]);
    for (i, device) in report.devices.iter().enumerate() {
        let (mean, std) = device.probe_stats();
        table.row([
            format!("#{}", i + 1),
            format!("{mean:.1}"),
            format!("{std:.1}"),
            device
                .device
                .bgp_prefix_len
                .map(|l| format!("/{l}"))
                .unwrap_or_else(|| "?".into()),
            device.device.asn.value().to_string(),
            device
                .device
                .country
                .map(|c| c.to_string())
                .unwrap_or_else(|| "??".into()),
            device.days_found().to_string(),
            device.distinct_prefixes().to_string(),
        ]);
    }
    format!(
        "Table 2: characteristics of prefix-changing EUI-64 IIDs tracked over one week\n\n{}\noverall re-identification accuracy: {} (paper: 60–90%)\n",
        table.render(),
        scent_core::report::percent(report.overall_accuracy()),
    )
}

/// Run the two §6 tracking experiments: ten devices chosen among
/// known-rotators (Table 2 / Figure 13b) and ten chosen at random
/// (Figure 13a). Shared by `table2` and `fig13`.
pub(crate) fn tracking_reports() -> (scent_core::TrackingReport, scent_core::TrackingReport) {
    let data = CampaignData::collect(Scale::from_env());
    let tracker = Tracker::new(TrackerConfig::default());
    // Exclude multi-AS identifiers (§5.5 pathologies), as the paper does.
    let pathology = scent_core::PathologyReport::analyse(&data.scan_refs(), data.engine.rib());
    let multi_as: HashSet<_> = pathology.multi_as.keys().copied().collect();
    let start_day = data
        .scans
        .last()
        .map(|s| s.started_at.day() + 1)
        .unwrap_or(120);

    let rotating = tracker.select_devices(
        &data.allocation,
        &data.pools,
        data.engine.rib(),
        data.engine.as_registry(),
        &multi_as,
        10,
        true,
    );
    let rotating_report = tracker.track(&data.engine, &rotating, start_day, 7);

    let random = tracker.select_devices(
        &data.allocation,
        &data.pools,
        data.engine.rib(),
        data.engine.as_registry(),
        &multi_as,
        10,
        false,
    );
    let random_report = tracker.track(&data.engine, &random, start_day, 7);
    (rotating_report, random_report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_small_scale<T>(f: impl FnOnce() -> T) -> T {
        // The experiment binaries read SCENT_SCALE; tests force the small
        // world regardless of the ambient environment.
        std::env::set_var("SCENT_SCALE", "small");
        std::env::set_var("SCENT_DAYS", "6");
        f()
    }

    #[test]
    fn table1_output_mentions_versatel_and_totals() {
        let output = with_small_scale(run_table1);
        assert!(output.contains("Table 1"));
        assert!(output.contains("8881"));
        assert!(output.contains("Total"));
        assert!(output.contains("rotating ASes"));
    }

    #[test]
    fn table2_and_tracking_accuracy() {
        let output = with_small_scale(run_table2);
        assert!(output.contains("Table 2"));
        assert!(output.contains("re-identification accuracy"));
        assert!(output.contains("ASN"));
    }

    #[test]
    fn pipeline_and_campaign_counts_render() {
        let counts = with_small_scale(run_pipeline_counts);
        assert!(counts.contains("rotating /48s"));
        assert!(counts.contains("unique EUI-64 IIDs"));
        let totals = with_small_scale(run_campaign_totals);
        assert!(totals.contains("Campaign totals"));
        assert!(totals.contains("IIDs seen in >1 /64"));
    }
}
