//! Shared campaign machinery for the experiment harnesses.

use scent_core::{AllocationInference, RotationPoolInference};
use scent_prober::{Scan, Scanner, TargetGenerator};
use scent_simnet::{scenarios, Engine, SimDuration, SimTime, WorldScale};

/// Which world scale an experiment runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The default experiment scale: 1/16 of the paper's per-AS /48 counts.
    Experiment,
    /// A much smaller world for CI, tests and benches.
    Small,
}

impl Scale {
    /// Read the scale from the `SCENT_SCALE` environment variable
    /// (`small` → [`Scale::Small`], anything else → [`Scale::Experiment`]).
    pub(crate) fn from_env() -> Self {
        match std::env::var("SCENT_SCALE").as_deref() {
            Ok("small") | Ok("SMALL") => Scale::Small,
            _ => Scale::Experiment,
        }
    }

    /// The corresponding simulator scale.
    pub(crate) fn world_scale(self) -> WorldScale {
        match self {
            Scale::Experiment => WorldScale::experiment(),
            Scale::Small => WorldScale::small(),
        }
    }

    /// Campaign length in days (paper: 44). Overridable via `SCENT_DAYS`.
    pub(crate) fn campaign_days(self) -> u64 {
        if let Ok(days) = std::env::var("SCENT_DAYS") {
            if let Ok(days) = days.parse::<u64>() {
                return days.clamp(2, 60);
            }
        }
        match self {
            Scale::Experiment => 14,
            Scale::Small => 8,
        }
    }
}

/// The seed used by every experiment world, so independent experiment
/// binaries observe the same simulated Internet.
pub(crate) const WORLD_SEED: u64 = 0x0005_ce47;

/// A daily campaign over the Internet-wide world plus the inferences the
/// analyses need — the common substrate of Table 1, Figures 4, 5, 7, 8 and
/// the §5 totals.
pub(crate) struct CampaignData {
    /// The simulated Internet.
    pub engine: Engine,
    /// One scan per campaign day.
    pub scans: Vec<Scan>,
    /// Algorithm 1 output (from a single-day finer-granularity scan).
    pub allocation: AllocationInference,
    /// Algorithm 2 output (from the daily campaign).
    pub pools: RotationPoolInference,
}

impl CampaignData {
    /// Run the campaign at the given scale.
    ///
    /// Workload note: the paper's campaign probes one target per /64 of every
    /// monitored /48 (844M probes/day). At reproduction scale we generate one
    /// target per customer-allocation block per pool, capped at /60
    /// granularity for /64-allocating pools, which preserves which devices
    /// are observable while keeping daily probe counts tractable. The
    /// allocation-size inference runs on a separate single-day scan at /64
    /// granularity over a sample of /48s, as Algorithm 1 requires
    /// within-allocation target diversity.
    pub fn collect(scale: Scale) -> Self {
        let engine = Engine::build(scenarios::paper_world(WORLD_SEED, scale.world_scale()))
            .unwrap_or_else(|error| panic!("paper world must build: {error}"));
        let generator = TargetGenerator::new(WORLD_SEED ^ 0xca);

        // Daily-campaign targets: one per allocation block (≥ /60).
        let mut daily_targets = Vec::new();
        for pool in engine.pools() {
            let granularity = pool.config.allocation_len.min(60);
            daily_targets.extend(generator.one_per_subnet(&pool.config.prefix, granularity));
        }
        let scanner = Scanner::at_paper_rate(WORLD_SEED ^ 0x5ca);
        let days = scale.campaign_days();
        let day = SimDuration::from_days(1);
        let scans = scanner.scans(&engine, &daily_targets, SimTime::at(100, 9), days, day);

        // Allocation-inference scan: /64 granularity over one /48 per pool
        // (bounded), on a single day.
        let mut alloc_targets = Vec::new();
        for pool in engine.pools() {
            let first_48 = scent_ipv6::Ipv6Prefix::from_bits(
                pool.config.prefix.network_bits(),
                pool.config.prefix.len().max(48),
            )
            .expect("valid /48");
            alloc_targets.extend(generator.one_per_subnet(&first_48, 64));
        }
        let alloc_scan = scanner.scan(&engine, &alloc_targets, SimTime::at(99, 9));
        let allocation = AllocationInference::infer(&[&alloc_scan], engine.rib());

        let refs: Vec<&Scan> = scans.iter().collect();
        let pools = RotationPoolInference::infer(&refs, engine.rib());

        CampaignData {
            engine,
            scans,
            allocation,
            pools,
        }
    }

    /// Borrow the scans as references (the shape the analyses expect).
    pub(crate) fn scan_refs(&self) -> Vec<&Scan> {
        self.scans.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_collects_and_infers() {
        let data = CampaignData::collect(Scale::Small);
        assert!(data.scans.len() >= 2);
        assert!(data.scans[0].eui64_responses() > 0);
        assert!(!data.allocation.per_as.is_empty());
        assert!(!data.pools.per_as.is_empty());
        // Versatel rotates and is detected as such.
        assert!(data.pools.rotates(scent_core::Asn(8881)));
    }

    #[test]
    fn scale_env_parsing() {
        assert_eq!(Scale::Experiment.world_scale(), WorldScale::experiment());
        assert_eq!(Scale::Small.world_scale(), WorldScale::small());
        assert!(Scale::Small.campaign_days() >= 2);
    }
}
