//! Shared helpers for the Criterion benchmark suite.
//!
//! The benches regenerate every table and figure of the paper (at reduced
//! scale) and additionally measure the micro-operations and design choices
//! DESIGN.md calls out for ablation. Nothing here is part of the public
//! library API; the crate exists so all bench targets can reuse the same
//! pre-built worlds and campaigns.

#![forbid(unsafe_code)]

use scent_prober::{Scan, Scanner, TargetGenerator};
use scent_simnet::{scenarios, Engine, SimDuration, SimTime, WorldScale};

/// Build the small-scale Internet-wide world used by the table/figure
/// benches.
pub fn small_world_engine(seed: u64) -> Engine {
    Engine::build(scenarios::paper_world(seed, WorldScale::small())).expect("world builds")
}

/// Build the single-provider Versatel-like world.
pub fn versatel_engine(seed: u64) -> Engine {
    Engine::build(scenarios::versatel_like(seed)).expect("world builds")
}

/// A short daily campaign over the /56-allocation pools of an engine.
pub fn short_campaign(engine: &Engine, days: u64) -> Vec<Scan> {
    let generator = TargetGenerator::new(1);
    let mut targets = Vec::new();
    for pool in engine.pools() {
        if pool.config.allocation_len == 56 {
            targets.extend(generator.one_per_subnet(&pool.config.prefix, 56));
        }
    }
    let scanner = Scanner::at_paper_rate(2);
    let day = SimDuration::from_days(1);
    scanner.scans(engine, &targets, SimTime::at(1, 9), days, day)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build() {
        let engine = versatel_engine(1);
        let scans = short_campaign(&engine, 2);
        assert_eq!(scans.len(), 2);
        assert!(scans[0].eui64_responses() > 0);
    }
}
