//! Property tests for the discovery subsystem: the confidence rule stays a
//! valid interval, planning is a deterministic pure function of tree state,
//! rebalancing reaches a consistent fixpoint, the fold by planned leaf equals
//! the fold by address, and checkpoints round-trip byte-identically after
//! arbitrary evidence.

use proptest::prelude::*;

use scent_checkpoint::{decode_value, encode_value};
use scent_discovery::{wilson_bounds, Blocklist, DiscoveryConfig, DiscoveryTree};
use scent_ipv6::Ipv6Prefix;
use scent_prober::permutation::seeded_shuffle;
use scent_prober::{ProbeRecord, ResponseRecord, TargetGenerator};
use scent_simnet::{ReplyKind, SimTime};

fn p(s: &str) -> Ipv6Prefix {
    s.parse().unwrap()
}

fn record(target: std::net::Ipv6Addr, hit: bool) -> ProbeRecord {
    ProbeRecord {
        target,
        sent_at: SimTime::at(0, 0),
        response: hit.then_some(ResponseRecord {
            source: "2001:db8::0211:22ff:fe33:4455".parse().unwrap(),
            kind: ReplyKind::EchoReply,
        }),
    }
}

/// Grow a tree from seeded pseudo-random evidence: plan, answer a subset of
/// probes, fold, rebalance — the exact cycle the monitor drives.
fn grown_tree(seed: u64, budget: u64, hit_mod: u64, boundaries: u32) -> DiscoveryTree {
    let cfg = DiscoveryConfig::paper_scale();
    let generator = TargetGenerator::new(seed);
    let mut tree =
        DiscoveryTree::from_announcements(vec![p("2001:db8::/32"), p("2803:9810:100::/48")], seed);
    for _ in 0..boundaries {
        tree.decay(&cfg);
        let plan = tree.plan(&cfg, &generator, 56, budget);
        let records: Vec<ProbeRecord> = plan
            .iter()
            .enumerate()
            .map(|(i, probe)| record(probe.target, hit_mod > 0 && i as u64 % hit_mod == 0))
            .collect();
        tree.fold_probes(&cfg, records.iter());
        tree.rebalance(&cfg);
    }
    tree
}

proptest! {
    // The Wilson interval is always a sub-interval of [0, 1] that brackets
    // the point estimate and tightens monotonically in the trial count.
    #[test]
    fn wilson_interval_is_well_formed(
        hits in 0u64..=512,
        extra in 0u64..=512,
        z_permille in 100u16..=4000,
    ) {
        let trials = hits + extra;
        let (lo, hi) = wilson_bounds(hits, trials, z_permille);
        prop_assert!((0.0..=1.0).contains(&lo));
        prop_assert!((0.0..=1.0).contains(&hi));
        prop_assert!(lo <= hi);
        if trials > 0 {
            let point = hits as f64 / trials as f64;
            prop_assert!(lo <= point && point <= hi);
            // Doubling the evidence at the same rate never widens the bound.
            let (lo2, hi2) = wilson_bounds(hits * 2, trials * 2, z_permille);
            prop_assert!(hi2 - lo2 <= (hi - lo) + 1e-12);
        }
    }

    // The blocklist's table answers exactly what a scan of its entries
    // would, for nested, duplicated and disjoint entries of any length.
    #[test]
    fn blocklist_table_equals_a_linear_scan(
        entries in proptest::collection::vec((0u128..64, 26u8..=64), 0..12),
        queries in proptest::collection::vec((0u128..64, 24u8..=128, any::<u64>()), 1..32),
    ) {
        // A handful of neighbouring blocks under one /26, so entries nest
        // and collide.
        let within = |block: u128, len: u8, low: u64| {
            let bits = (0x2001_0db8u128 << 96) | (block << 98) | u128::from(low) << 40;
            Ipv6Prefix::from_bits(bits, len).unwrap()
        };
        let entries: Vec<Ipv6Prefix> = entries
            .iter()
            .map(|&(block, len)| within(block % 8, len, (block * 0x9e37_79b9) as u64))
            .collect();
        let list = Blocklist::new(entries.clone());
        for &(block, len, low) in &queries {
            let prefix = within(block % 8, len, low);
            prop_assert!(
                list.covers(&prefix) == entries.iter().any(|entry| entry.contains_prefix(&prefix)),
                "covers({prefix}) over {entries:?}"
            );
            let addr = prefix.addr_with_host_bits(u128::from(low));
            prop_assert!(
                list.covers_addr(addr) == entries.iter().any(|entry| entry.contains(addr)),
                "covers_addr({addr}) over {entries:?}"
            );
        }
    }

    // Planning is a pure function of tree state: the same tree plans the
    // same probes (and evolves its cursors identically), the budget is an
    // exact bound, and no planned target lies in a blocked prefix.
    #[test]
    fn plan_is_deterministic_budgeted_and_clean(
        seed in 1u64..1_000_000,
        budget in 1u64..=512,
        block_48 in 0u8..=15,
    ) {
        let mut cfg = DiscoveryConfig::paper_scale();
        let blocked = p("2001:db8::/32")
            .nth_subnet(48, u128::from(block_48))
            .unwrap();
        cfg.blocklist = Blocklist::new(vec![blocked]);
        let generator = TargetGenerator::new(seed);
        let mut tree = DiscoveryTree::from_announcements(vec![p("2001:db8::/32")], seed);
        let mut twin = tree.clone();
        let plan = tree.plan(&cfg, &generator, 56, budget);
        let again = twin.plan(&cfg, &generator, 56, budget);
        prop_assert_eq!(&plan, &again);
        prop_assert_eq!(&tree, &twin);
        prop_assert!(plan.len() as u64 <= budget);
        for probe in plan.iter() {
            prop_assert!(!cfg.blocklist.covers_addr(probe.target));
        }
    }

    // Rebalancing reaches a fixpoint with a consistent structure: no leaf
    // still holds a split-worthy attribution, every dense /48 is a real
    // leaf, and running rebalance again changes nothing.
    #[test]
    fn rebalance_reaches_a_stable_fixpoint(
        seed in 1u64..1_000_000,
        budget in 32u64..=256,
        hit_mod in 0u64..=9,
        boundaries in 1u32..=3,
    ) {
        let cfg = DiscoveryConfig::paper_scale();
        let tree = grown_tree(seed, budget, hit_mod, boundaries);
        let mut again = tree.clone();
        again.rebalance(&cfg);
        prop_assert_eq!(&again, &tree);
        for dense in tree.dense_48s(&cfg) {
            prop_assert_eq!(dense.len(), 48);
            let node = tree.node(&dense).unwrap();
            prop_assert!(cfg.is_dense(node.hits, node.trials));
        }
    }

    // The fold by planned leaf (`fold_plan`, what the monitor runs) reaches
    // the tree the fold by address (`fold_probes`, the oracle) reaches over
    // the same outcomes — whatever order the oracle meets the records in,
    // with and without a blocklist, across boundaries that split and merge.
    #[test]
    fn fold_by_planned_leaf_equals_fold_by_address_in_any_order(
        seed in 1u64..1_000_000,
        budget in 1u64..=600,
        hit_mod in 0u64..=9,
        hit_salt in any::<u64>(),
        block_48 in 0u8..=31,
        boundaries in 1u32..=3,
    ) {
        let mut cfg = DiscoveryConfig::paper_scale();
        // Half the cases carry no blocklist: `plan` asks that once.
        if block_48 < 16 {
            let blocked = p("2001:db8::/32").nth_subnet(48, u128::from(block_48)).unwrap();
            cfg.blocklist = Blocklist::new(vec![blocked]);
        }
        let generator = TargetGenerator::new(seed);
        let mut by_leaf = DiscoveryTree::from_announcements(
            vec![p("2001:db8::/32"), p("2803:9810:100::/48")],
            seed,
        );
        let mut by_address = by_leaf.clone();
        for boundary in 0..boundaries {
            by_leaf.decay(&cfg);
            by_address.decay(&cfg);
            let plan = by_leaf.plan(&cfg, &generator, 56, budget);
            prop_assert_eq!(&by_address.plan(&cfg, &generator, 56, budget), &plan);
            let hits: Vec<bool> = (0..plan.len() as u64)
                .map(|i| hit_mod > 0 && (i ^ hit_salt) % hit_mod == 0)
                .collect();
            let mut records: Vec<ProbeRecord> = plan
                .iter()
                .zip(&hits)
                .map(|(probe, &hit)| record(probe.target, hit))
                .collect();
            seeded_shuffle(&mut records, seed ^ u64::from(boundary));
            by_leaf.fold_plan(&plan, &hits);
            by_address.fold_probes(&cfg, records.iter());
            prop_assert_eq!(&by_leaf, &by_address);
            by_leaf.rebalance(&cfg);
            by_address.rebalance(&cfg);
        }
        prop_assert_eq!(&by_leaf, &by_address);
        prop_assert_eq!(encode_value(&by_leaf), encode_value(&by_address));
    }

    // Tree state round-trips through the checkpoint codec byte-identically
    // after arbitrary growth.
    #[test]
    fn checkpoint_roundtrip_is_byte_identical(
        seed in 1u64..1_000_000,
        budget in 1u64..=256,
        hit_mod in 0u64..=9,
    ) {
        let tree = grown_tree(seed, budget, hit_mod, 2);
        let bytes = encode_value(&tree);
        let restored: DiscoveryTree = decode_value(&bytes).unwrap();
        prop_assert_eq!(&restored, &tree);
        prop_assert_eq!(encode_value(&restored), bytes);
    }
}
