//! The confidence-split prefix tree: adaptive hierarchical target discovery.
//!
//! The tree is rooted at announcement granularity (one root per RIB entry,
//! clamped to /48) and refines toward /48 on response evidence. Each node
//! holds integer counts `(hits, trials)` folded from two evidence channels:
//! the monitor's own per-epoch [`DensityAccumulator`] stream over watched
//! /48s, and the tree's boundary sweep probes. The confidence rule
//! ([`DiscoveryConfig`]) is a pure function of those counts, so the whole
//! tree evolution is a pure function of `(config, world seed)` — the repo's
//! standing determinism invariant extends to discovery unchanged.
//!
//! # Lifecycle
//!
//! At every epoch boundary the monitor drives one [`DiscoveryTree`] cycle:
//!
//! 1. **decay** — counts age by a right-shift, re-opening certificates over
//!    moving occupancy bands;
//! 2. **fold** — the closing epoch's density state lands on the leaves
//!    covering each watched /48;
//! 3. **sweep** — the probe budget is allocated to the highest-expected-gain
//!    frontier leaves ([`DiscoveryTree::plan`]), probes are sent, outcomes
//!    fold back by the leaf each was planned for
//!    ([`DiscoveryTree::fold_plan`]);
//! 4. **rebalance** — nodes whose attributed hits cross the split threshold
//!    materialize children down to the responding /48; internal nodes whose
//!    children are all confidently quiet merge back
//!    ([`DiscoveryTree::rebalance`]);
//! 5. **harvest** — confidently dense /48 leaves become the churn boundary's
//!    candidate source ([`DiscoveryTree::dense_48s`]).
//!
//! [`DensityAccumulator`]: scent_core::density::DensityAccumulator

use std::collections::BTreeMap;
use std::net::Ipv6Addr;

use scent_checkpoint::{CheckpointError, Checkpointable, Reader, Writer};
use scent_core::SeedExpansion;
use scent_ipv6::Ipv6Prefix;
use scent_prober::{ProbeRecord, TargetGenerator};
use scent_simnet::det::hash3;
use serde::{Deserialize, Serialize};

use crate::config::{DiscoveryConfig, DECAY_SHIFT, SPLIT_HITS};

/// Deepest prefix the tree refines to: the /48 is the paper's unit of
/// customer-pool inference, and the watch list the tree feeds is /48-keyed.
const LEAF_LEN: u8 = 48;

/// Probes handed to one leaf per allocation round before the allocator moves
/// to the next leaf — small enough that a burst of fresh frontier nodes
/// shares a boundary's budget, large enough to reach a dense certificate
/// ([`DENSE_MIN_PROBES`](crate::config::DENSE_MIN_PROBES)) in one round.
const CHUNK: u64 = 16;

/// Evidence held by one tree node.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeState {
    /// Probes attributed to this node (its own sweep probes plus folded
    /// density probes while it was a leaf).
    pub trials: u64,
    /// Probes that answered with an EUI-64 source.
    pub hits: u64,
    /// Sweep position: how many subnet draws this node has consumed from its
    /// seeded permutation. Advances monotonically and wraps, so a decayed
    /// (re-opened) leaf resumes its sweep where it left off instead of
    /// re-probing the same head of the order.
    pub cursor: u64,
    /// Whether the node has split (children materialized). Internal nodes
    /// hold historical counts but neither sweep nor classify.
    pub split: bool,
    /// Hit attribution: responding /48 → hits observed there while this node
    /// was a leaf. This is what lets a split cascade straight to the
    /// responding /48 instead of spending one epoch per tree level.
    pub(crate) hit_48s: BTreeMap<Ipv6Prefix, u64>,
}

impl NodeState {
    /// Hits attributed to a specific /48 under this node.
    fn attributed(&self) -> u64 {
        self.hit_48s.values().sum()
    }
}

/// One planned discovery probe: the frontier leaf it was allocated to and
/// the concrete target drawn from the leaf's sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedProbe {
    /// The frontier leaf charged for the probe.
    pub leaf: Ipv6Prefix,
    /// The target address (one pseudo-random address inside the swept
    /// subnet, drawn by the same [`TargetGenerator`] the detection stream
    /// uses, so both evidence channels probe the same representatives).
    pub target: Ipv6Addr,
}

/// One round's sweep, as [`DiscoveryTree::plan`] allocated it: the targets
/// in allocation order, and the runs of consecutive targets charged to one
/// frontier leaf. A probe is named by its index into
/// [`SweepPlan::targets`]; that index is how an outcome finds its way back
/// to the leaf ([`DiscoveryTree::fold_plan`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepPlan {
    targets: Vec<Ipv6Addr>,
    /// `(leaf, n)`: the next `n` targets were drawn from `leaf`'s sweep.
    /// Adjacent runs never share a leaf.
    runs: Vec<(Ipv6Prefix, usize)>,
}

impl SweepPlan {
    /// Planned probes.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether nothing was planned (no budget, or no live unblocked leaf).
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The targets, in allocation order.
    pub fn targets(&self) -> &[Ipv6Addr] {
        &self.targets
    }

    /// The planned probes, in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = PlannedProbe> + '_ {
        let mut rest = self.targets.as_slice();
        self.runs.iter().flat_map(move |&(leaf, n)| {
            let (run, after) = rest.split_at(n);
            rest = after;
            run.iter().map(move |&target| PlannedProbe { leaf, target })
        })
    }

    /// Charge `leaf` for the targets pushed since `start`.
    fn close_run(&mut self, leaf: Ipv6Prefix, start: usize) {
        let n = self.targets.len() - start;
        if n == 0 {
            return;
        }
        match self.runs.last_mut() {
            Some(last) if last.0 == leaf => last.1 += n,
            _ => self.runs.push((leaf, n)),
        }
    }
}

/// One frontier leaf's sweep during a [`DiscoveryTree::plan`] call: the
/// leaf's seeded subnet order and a working copy of its cursor, computed
/// once per call rather than once per chunk.
struct Sweep {
    leaf: Ipv6Prefix,
    /// Length of the swept subnets: /48s under a shorter leaf, `granularity`
    /// subnets once the leaf is a /48.
    sub_len: u8,
    /// Subnet count minus one (the count is a power of two).
    mask: u64,
    /// Where a subnet's index sits in its network bits: `128 - sub_len`.
    shift: u32,
    mul: u64,
    add: u64,
    cursor: u64,
    /// Positions examined this call, capped at the leaf's span so a fully
    /// blocked sweep terminates instead of skipping forever.
    examined: u64,
}

impl Sweep {
    fn of(seed: u64, leaf: Ipv6Prefix, granularity: u8, cursor: u64) -> Self {
        let sub_len = if leaf.len() < LEAF_LEN {
            LEAF_LEN
        } else {
            granularity.max(leaf.len())
        };
        let mask = (1u64 << u32::from(sub_len - leaf.len())) - 1;
        // An odd multiplier is a bijection modulo the power-of-two span:
        // consecutive cursor values visit every subnet exactly once per
        // wrap, in an order keyed on (seed, leaf).
        let h = hash3(
            seed,
            leaf.network_bits() as u64,
            (leaf.network_bits() >> 64) as u64,
            u64::from(leaf.len()),
        );
        Sweep {
            leaf,
            sub_len,
            mask,
            shift: 128 - u32::from(sub_len),
            mul: (h | 1) & mask,
            add: h.rotate_left(17) & mask,
            cursor,
            examined: 0,
        }
    }

    /// The network bits of the subnet at the cursor, advancing it; `None`
    /// once this call has examined every subnet of the leaf.
    fn next_subnet(&mut self) -> Option<u128> {
        if self.examined > self.mask {
            return None;
        }
        let pos = self.cursor & self.mask;
        self.cursor = self.cursor.wrapping_add(1);
        self.examined += 1;
        let index = pos.wrapping_mul(self.mul).wrapping_add(self.add) & self.mask;
        Some(self.leaf.network_bits() | (u128::from(index) << self.shift))
    }

    /// The most probes one [`DiscoveryTree::plan`] call can draw from this
    /// leaf: each subnet once.
    fn span(&self) -> u64 {
        self.mask.saturating_add(1)
    }
}

/// Summary of a discovery run, folded into the monitor report.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiscoveryReport {
    /// Discovery sweep probes sent across all boundaries.
    pub probes: u64,
    /// Node splits applied.
    pub splits: u64,
    /// Sibling merges applied.
    pub merges: u64,
    /// Leaves in the final tree.
    pub leaves: u64,
    /// Confidently dense /48s at the end of the run, in prefix order.
    pub dense_48s: Vec<Ipv6Prefix>,
}

/// The adaptive discovery tree. See the crate docs for the
/// lifecycle; construction is [`DiscoveryTree::from_announcements`], and the
/// monitor drives one decay/fold/sweep/rebalance cycle per epoch boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiscoveryTree {
    /// Sweep-order seed (the campaign seed): target draws and sweep
    /// permutations are keyed on it.
    seed: u64,
    /// Tree roots: the announced prefixes (clamped to /48, covering
    /// announcements deduplicated), in prefix order.
    roots: Vec<Ipv6Prefix>,
    /// Every node, keyed by prefix. Roots are always present.
    nodes: BTreeMap<Ipv6Prefix, NodeState>,
    /// Sweep probes sent so far.
    probes: u64,
    /// Splits applied so far.
    splits: u64,
    /// Merges applied so far.
    merges: u64,
}

impl DiscoveryTree {
    /// A tree rooted at the given announced prefixes. Announcements longer
    /// than /48 are clamped to their enclosing /48; an announcement covered
    /// by another is dropped so roots are disjoint and every address has
    /// exactly one covering root.
    pub fn from_announcements<I: IntoIterator<Item = Ipv6Prefix>>(announced: I, seed: u64) -> Self {
        let mut roots: Vec<Ipv6Prefix> = announced
            .into_iter()
            .map(|p| {
                if p.len() > LEAF_LEN {
                    p.supernet(LEAF_LEN).expect("clamping shortens the prefix")
                } else {
                    p
                }
            })
            .collect();
        roots.sort();
        roots.dedup();
        // Sorted order puts a covering prefix before everything it contains
        // (same network bits compare by length), so one pass keeps exactly
        // the outermost announcements.
        let mut disjoint: Vec<Ipv6Prefix> = Vec::with_capacity(roots.len());
        for root in roots {
            if !disjoint.iter().any(|kept| kept.contains_prefix(&root)) {
                disjoint.push(root);
            }
        }
        let nodes = disjoint
            .iter()
            .map(|&root| (root, NodeState::default()))
            .collect();
        DiscoveryTree {
            seed,
            roots: disjoint,
            nodes,
            probes: 0,
            splits: 0,
            merges: 0,
        }
    }

    /// The tree roots, in prefix order.
    pub fn roots(&self) -> &[Ipv6Prefix] {
        &self.roots
    }

    /// Number of nodes (internal and leaf).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no nodes (an empty RIB).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node holding evidence for `prefix`, if present.
    pub fn node(&self, prefix: &Ipv6Prefix) -> Option<&NodeState> {
        self.nodes.get(prefix)
    }

    /// The leaf whose subtree covers `addr`: descend from the covering root
    /// through split nodes. `None` when no root covers the address. Roots
    /// are sorted and disjoint, so the covering root — if any — is the last
    /// one whose network is not above the address.
    pub(crate) fn leaf_of(&self, cfg: &DiscoveryConfig, addr: Ipv6Addr) -> Option<Ipv6Prefix> {
        let after = self.roots.partition_point(|root| root.network() <= addr);
        let mut current = *self.roots[..after]
            .last()
            .filter(|root| root.contains(addr))?;
        while self.nodes.get(&current).is_some_and(|node| node.split) {
            let child_len = (current.len() + cfg.branch_bits).min(LEAF_LEN);
            current = Ipv6Prefix::new(addr, child_len).expect("child length is valid");
        }
        Some(current)
    }

    /// Halve every count (a right-shift by the policy's decay shift) — step
    /// 1 of the boundary cycle. Attribution entries that decay to zero are
    /// dropped. The decay policy is fixed, so `_cfg` is not read.
    pub fn decay(&mut self, _cfg: &DiscoveryConfig) {
        for node in self.nodes.values_mut() {
            node.trials >>= DECAY_SHIFT;
            node.hits >>= DECAY_SHIFT;
            node.hit_48s.retain(|_, count| {
                *count >>= DECAY_SHIFT;
                *count > 0
            });
        }
    }

    /// Fold one epoch of per-/48 density evidence into the covering leaves —
    /// step 2 of the boundary cycle. Each entry is `(watched /48, probes,
    /// unique EUI-64 responders)`; the caller must present entries in a
    /// deterministic order (the monitor sorts by prefix).
    pub fn fold_density<I>(&mut self, cfg: &DiscoveryConfig, entries: I)
    where
        I: IntoIterator<Item = (Ipv6Prefix, u64, u64)>,
    {
        for (prefix, probes, uniques) in entries {
            let Some(leaf) = self.leaf_of(cfg, prefix.network()) else {
                continue;
            };
            let hits = uniques.min(probes);
            let node = self
                .nodes
                .get_mut(&leaf)
                .expect("leaf_of returns live nodes");
            node.trials = node.trials.saturating_add(probes);
            node.hits = node.hits.saturating_add(hits);
            if hits > 0 && leaf.len() < LEAF_LEN {
                let hit_48 = prefix
                    .supernet(LEAF_LEN.min(prefix.len()))
                    .expect("not longer");
                *node.hit_48s.entry(hit_48).or_insert(0) += hits;
            }
        }
    }

    /// Allocate up to `budget` sweep probes to the frontier — step 3a of the
    /// boundary cycle. Leaves are ranked by `DiscoveryConfig::gain_weight`
    /// (ties broken by prefix order) and served in fixed-size probe rounds, so
    /// the most uncertain space is probed first but a burst of fresh nodes
    /// still shares the budget. Each draw advances the leaf's seeded sweep
    /// permutation over its /48 subnets (or its `granularity` subnets once
    /// the leaf is a /48); draws landing in a blocked subnet are skipped
    /// without emitting a probe and without charging the budget.
    ///
    /// Cursors advance as a side effect: planning is part of tree evolution
    /// and participates in checkpoints.
    pub fn plan(
        &mut self,
        cfg: &DiscoveryConfig,
        generator: &TargetGenerator,
        granularity: u8,
        budget: u64,
    ) -> SweepPlan {
        // Asked once: without a blocklist no draw below pays for a lookup.
        let blocklist = (!cfg.blocklist.is_empty()).then_some(&cfg.blocklist);
        let blocked = |prefix: &Ipv6Prefix| blocklist.is_some_and(|list| list.covers(prefix));
        let mut order: Vec<(f64, Sweep)> = self
            .nodes
            .iter()
            .filter(|(prefix, node)| !node.split && !blocked(prefix))
            .map(|(prefix, node)| (cfg.gain_weight(node.hits, node.trials), prefix, node))
            .filter(|(weight, ..)| *weight > 0.0)
            .map(|(weight, leaf, node)| {
                (
                    weight,
                    Sweep::of(self.seed, *leaf, granularity, node.cursor),
                )
            })
            .collect();
        order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.leaf.cmp(&b.1.leaf)));

        let mut plan = SweepPlan::default();
        // No leaf yields more than its span in one call, so this is all the
        // list ever holds.
        let most = (order.iter())
            .map(|(_, sweep)| sweep.span())
            .fold(0, u64::saturating_add)
            .min(budget);
        plan.targets
            .reserve(usize::try_from(most).expect("a plan fits in memory"));
        let mut remaining = budget;
        'alloc: loop {
            let mut progressed = false;
            for (_, sweep) in &mut order {
                if remaining == 0 {
                    break 'alloc;
                }
                let start = plan.len();
                let mut take = CHUNK.min(remaining);
                while take > 0 {
                    // The next `take` unblocked subnets, drawn in one call;
                    // targets the blocklist covers are dropped and refilled
                    // from the subnets after them, so the cursor stops where
                    // drawing one subnet at a time would.
                    let mut chunk = [0u128; CHUNK as usize];
                    let mut filled = 0;
                    while filled < take as usize {
                        let Some(bits) = sweep.next_subnet() else {
                            break;
                        };
                        if blocklist.is_some() {
                            let subnet = Ipv6Prefix::from_bits(bits, sweep.sub_len)
                                .expect("sub_len is a prefix length");
                            if blocked(&subnet) {
                                continue;
                            }
                        }
                        chunk[filled] = bits;
                        filled += 1;
                    }
                    if filled == 0 {
                        break;
                    }
                    let drawn = plan.targets.len();
                    generator.draw_into(
                        chunk[..filled].iter().copied(),
                        sweep.sub_len,
                        &mut plan.targets,
                    );
                    if let Some(list) = blocklist {
                        let mut kept = drawn;
                        for i in drawn..plan.targets.len() {
                            if !list.covers_addr(plan.targets[i]) {
                                plan.targets[kept] = plan.targets[i];
                                kept += 1;
                            }
                        }
                        plan.targets.truncate(kept);
                    }
                    let accepted = (plan.targets.len() - drawn) as u64;
                    remaining -= accepted;
                    take -= accepted;
                    progressed |= accepted > 0;
                }
                plan.close_run(sweep.leaf, start);
            }
            if !progressed {
                break;
            }
        }
        for (_, sweep) in order.iter().filter(|(_, sweep)| sweep.examined > 0) {
            let node = self
                .nodes
                .get_mut(&sweep.leaf)
                .expect("order built from nodes");
            node.cursor = sweep.cursor;
        }
        plan
    }

    /// Fold a sweep's outcomes back into the tree — step 3b, by the leaf each
    /// probe was *planned for*: `hits[i]` says whether the plan's `i`th
    /// target answered with an EUI-64 source. The plan names every run's
    /// leaf (the tree does not change between plan and fold), so a node is
    /// looked up once per run, not once per probe; every update is a
    /// commutative sum, so the result is what [`DiscoveryTree::fold_probes`]
    /// reaches over the same sweep's records in any order.
    pub fn fold_plan(&mut self, plan: &SweepPlan, hits: &[bool]) {
        assert_eq!(plan.len(), hits.len(), "one outcome per planned probe");
        self.probes += plan.len() as u64;
        let mut outcomes = plan.targets.iter().zip(hits);
        for &(leaf, n) in &plan.runs {
            let node = self.nodes.get_mut(&leaf).expect("planned leaves are live");
            node.trials = node.trials.saturating_add(n as u64);
            for (target, _) in outcomes.by_ref().take(n).filter(|(_, hit)| **hit) {
                node.hits = node.hits.saturating_add(1);
                if leaf.len() < LEAF_LEN {
                    let hit_48 = Ipv6Prefix::new(*target, LEAF_LEN).expect("48 is valid");
                    *node.hit_48s.entry(hit_48).or_insert(0) += 1;
                }
            }
        }
    }

    /// Fold sweep probe records back into the tree — step 3b, by address.
    /// Records are attributed to the leaf covering their target (the leaf
    /// they were planned for: the tree does not change between plan and
    /// fold); an EUI-64 response is a hit attributed to the responding /48.
    ///
    /// The monitor folds by plan index instead ([`DiscoveryTree::fold_plan`],
    /// no per-record descent). This form stays as that fold's differential
    /// oracle (`tests/proptests.rs`) and because the frozen benchmark
    /// harness (`e2ebench/src/traced.rs`) names it.
    pub fn fold_probes<'r, I>(&mut self, cfg: &DiscoveryConfig, records: I)
    where
        I: IntoIterator<Item = &'r ProbeRecord>,
    {
        for record in records {
            let Some(leaf) = self.leaf_of(cfg, record.target) else {
                continue;
            };
            self.probes += 1;
            let hit = SeedExpansion::classify_record(record.source()) == Some(true);
            let node = self
                .nodes
                .get_mut(&leaf)
                .expect("leaf_of returns live nodes");
            node.trials = node.trials.saturating_add(1);
            if hit {
                node.hits = node.hits.saturating_add(1);
                if leaf.len() < LEAF_LEN {
                    let hit_48 = Ipv6Prefix::new(record.target, LEAF_LEN).expect("48 is valid");
                    *node.hit_48s.entry(hit_48).or_insert(0) += 1;
                }
            }
        }
    }

    /// Apply split and merge verdicts to fixpoint — step 4 of the boundary
    /// cycle.
    ///
    /// **Split**: a leaf shorter than /48 whose attributed hits reach
    /// the policy's split count (one hit) materializes all `2^branch_bits`
    /// children and partitions its /48 attribution among them — each child
    /// inherits the hits observed in its subtree as `(hits, trials)` seed
    /// evidence, so the split cascades level by level straight down to the
    /// responding /48 within this one call.
    ///
    /// **Merge**: an internal node whose children are all unsplit and all
    /// either confidently quiet or fully blocked collapses back to a leaf,
    /// summing the children's counts. Collapse also cascades: a grandparent
    /// whose last noisy subtree just merged is reconsidered in the next
    /// iteration.
    pub fn rebalance(&mut self, cfg: &DiscoveryConfig) {
        loop {
            let candidates: Vec<Ipv6Prefix> = self
                .nodes
                .iter()
                .filter(|(prefix, node)| {
                    !node.split && prefix.len() < LEAF_LEN && node.attributed() >= SPLIT_HITS
                })
                .map(|(prefix, _)| *prefix)
                .collect();
            if candidates.is_empty() {
                break;
            }
            for parent in candidates {
                self.split_node(cfg, parent);
            }
        }
        loop {
            let collapsible: Vec<Ipv6Prefix> = self
                .nodes
                .iter()
                .filter(|(prefix, node)| node.split && self.children_all_quiet(cfg, prefix))
                .map(|(prefix, _)| *prefix)
                .collect();
            if collapsible.is_empty() {
                break;
            }
            for parent in collapsible {
                self.merge_node(cfg, parent);
            }
        }
    }

    fn child_len(&self, cfg: &DiscoveryConfig, parent: &Ipv6Prefix) -> u8 {
        (parent.len() + cfg.branch_bits).min(LEAF_LEN)
    }

    fn split_node(&mut self, cfg: &DiscoveryConfig, parent: Ipv6Prefix) {
        let child_len = self.child_len(cfg, &parent);
        let attribution = {
            let node = self.nodes.get_mut(&parent).expect("split candidate exists");
            node.split = true;
            std::mem::take(&mut node.hit_48s)
        };
        for child in parent.subnets(child_len).expect("child length is valid") {
            let mut state = NodeState::default();
            for (&hit_48, &count) in &attribution {
                if child.contains_prefix(&hit_48) {
                    state.trials += count;
                    state.hits += count;
                    if child.len() < LEAF_LEN {
                        state.hit_48s.insert(hit_48, count);
                    }
                }
            }
            self.nodes.insert(child, state);
        }
        self.splits += 1;
    }

    fn children_all_quiet(&self, cfg: &DiscoveryConfig, parent: &Ipv6Prefix) -> bool {
        let child_len = self.child_len(cfg, parent);
        parent
            .subnets(child_len)
            .expect("child length is valid")
            .all(|child| match self.nodes.get(&child) {
                Some(node) => {
                    !node.split
                        && (cfg.is_quiet(node.hits, node.trials) || cfg.blocklist.covers(&child))
                }
                None => false,
            })
    }

    fn merge_node(&mut self, cfg: &DiscoveryConfig, parent: Ipv6Prefix) {
        let child_len = self.child_len(cfg, &parent);
        let mut trials = 0u64;
        let mut hits = 0u64;
        for child in parent.subnets(child_len).expect("child length is valid") {
            let state = self
                .nodes
                .remove(&child)
                .expect("collapsible children exist");
            trials = trials.saturating_add(state.trials);
            hits = hits.saturating_add(state.hits);
        }
        let node = self.nodes.get_mut(&parent).expect("merge parent exists");
        node.split = false;
        node.trials = trials;
        node.hits = hits;
        // Residual hits under a certified-quiet subtree are noise, not a
        // lead: dropping the attribution keeps a merge from immediately
        // re-seeding the split it just undid.
        node.hit_48s = BTreeMap::new();
        self.merges += 1;
    }

    /// Confidently dense, unblocked /48 leaves in prefix order — step 5, the
    /// candidate source the churn boundary's watch-list revision consumes.
    pub fn dense_48s(&self, cfg: &DiscoveryConfig) -> Vec<Ipv6Prefix> {
        self.nodes
            .iter()
            .filter(|(prefix, node)| {
                !node.split
                    && prefix.len() == LEAF_LEN
                    && cfg.is_dense(node.hits, node.trials)
                    && !cfg.blocklist.covers(prefix)
            })
            .map(|(prefix, _)| *prefix)
            .collect()
    }

    /// Whether any unblocked frontier leaf still has positive expected gain.
    /// While this holds, an empty watch list is *not* terminal — discovery
    /// can still refill it. When the whole frontier is classified or
    /// blocked, the monitor's documented watch-exhaustion terminal state
    /// applies unchanged.
    pub fn frontier_live(&self, cfg: &DiscoveryConfig) -> bool {
        self.nodes.iter().any(|(prefix, node)| {
            !node.split
                && !cfg.blocklist.covers(prefix)
                && cfg.gain_weight(node.hits, node.trials) > 0.0
        })
    }

    /// The run summary folded into the monitor report.
    pub fn report(&self, cfg: &DiscoveryConfig) -> DiscoveryReport {
        DiscoveryReport {
            probes: self.probes,
            splits: self.splits,
            merges: self.merges,
            leaves: self.nodes.values().filter(|node| !node.split).count() as u64,
            dense_48s: self.dense_48s(cfg),
        }
    }
}

impl Checkpointable for NodeState {
    fn encode(&self, w: &mut Writer) {
        self.trials.encode(w);
        self.hits.encode(w);
        self.cursor.encode(w);
        self.split.encode(w);
        self.hit_48s.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(NodeState {
            trials: u64::decode(r)?,
            hits: u64::decode(r)?,
            cursor: u64::decode(r)?,
            split: bool::decode(r)?,
            hit_48s: BTreeMap::decode(r)?,
        })
    }
}

impl Checkpointable for DiscoveryTree {
    fn encode(&self, w: &mut Writer) {
        self.seed.encode(w);
        self.roots.encode(w);
        self.nodes.encode(w);
        self.probes.encode(w);
        self.splits.encode(w);
        self.merges.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(DiscoveryTree {
            seed: u64::decode(r)?,
            roots: Vec::decode(r)?,
            nodes: BTreeMap::decode(r)?,
            probes: u64::decode(r)?,
            splits: u64::decode(r)?,
            merges: u64::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MERGE_MIN_PROBES;
    use scent_checkpoint::{decode_value, encode_value};
    use scent_simnet::SimTime;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    fn cfg() -> DiscoveryConfig {
        DiscoveryConfig::paper_scale()
    }

    fn hit_record(target: Ipv6Addr) -> ProbeRecord {
        // An EUI-64 source: ff:fe in the middle of the IID with the
        // universal/local bit set.
        let source: Ipv6Addr = "2001:db8::0211:22ff:fe33:4455".parse().unwrap();
        ProbeRecord {
            target,
            sent_at: SimTime::at(0, 0),
            response: Some(scent_prober::ResponseRecord {
                source,
                kind: scent_simnet::ReplyKind::EchoReply,
            }),
        }
    }

    fn miss_record(target: Ipv6Addr) -> ProbeRecord {
        ProbeRecord {
            target,
            sent_at: SimTime::at(0, 0),
            response: None,
        }
    }

    #[test]
    fn roots_are_clamped_and_disjoint() {
        let tree = DiscoveryTree::from_announcements(
            vec![
                p("2001:db8::/32"),
                p("2001:db8:1::/48"),         // covered by the /32
                p("2803:9810:100:ff00::/56"), // clamps to its /48
            ],
            7,
        );
        assert_eq!(tree.roots(), &[p("2001:db8::/32"), p("2803:9810:100::/48")]);
    }

    #[test]
    fn leaf_of_finds_the_one_covering_root_or_none() {
        let cfg = cfg();
        let roots = [
            p("2001:db8::/32"),
            p("2803:9810:100::/48"),
            p("2a02:27b0::/32"),
        ];
        let tree = DiscoveryTree::from_announcements(roots, 7);
        for root in roots {
            assert_eq!(tree.leaf_of(&cfg, root.network()), Some(root));
            assert_eq!(tree.leaf_of(&cfg, root.last_address()), Some(root));
        }
        // Below the first root, in the gaps between roots, above the last.
        for outside in [
            "2001:db7::1",
            "2001:db9::",
            "2803:9810:101::",
            "2a02:27b1::",
        ] {
            assert_eq!(tree.leaf_of(&cfg, outside.parse().unwrap()), None);
        }
        let empty = DiscoveryTree::from_announcements(Vec::new(), 7);
        assert_eq!(empty.leaf_of(&cfg, "2001:db8::1".parse().unwrap()), None);
    }

    #[test]
    fn a_plan_charges_each_run_to_its_leaf() {
        let cfg = cfg();
        let generator = TargetGenerator::new(7);
        let mut tree =
            DiscoveryTree::from_announcements(vec![p("2001:db8::/32"), p("2803:9810::/32")], 7);
        let plan = tree.plan(&cfg, &generator, 56, 40);
        // Two equally unknown roots share the budget in 16-probe chunks.
        let leaves: Vec<Ipv6Prefix> = plan.iter().map(|probe| probe.leaf).collect();
        let expected = [(p("2001:db8::/32"), 16), (p("2803:9810::/32"), 16)]
            .into_iter()
            .chain([(p("2001:db8::/32"), 8)])
            .flat_map(|(leaf, n)| std::iter::repeat(leaf).take(n))
            .collect::<Vec<_>>();
        assert_eq!(leaves, expected);
        assert!(plan.iter().all(|probe| probe.leaf.contains(probe.target)));
        assert!(plan
            .iter()
            .map(|probe| probe.target)
            .eq(plan.targets().iter().copied()));

        // Only hits at plan indices 3 and 20: one per root.
        let hits: Vec<bool> = (0..plan.len()).map(|i| i == 3 || i == 20).collect();
        tree.fold_plan(&plan, &hits);
        let first = tree.node(&p("2001:db8::/32")).unwrap();
        assert_eq!((first.hits, first.trials), (1, 24));
        let hit_48 = Ipv6Prefix::new(plan.targets()[3], 48).unwrap();
        assert_eq!(first.hit_48s.get(&hit_48), Some(&1));
        let second = tree.node(&p("2803:9810::/32")).unwrap();
        assert_eq!((second.hits, second.trials), (1, 16));
        assert_eq!(tree.report(&cfg).probes, 40);
    }

    #[test]
    fn a_hit_cascades_the_split_to_the_responding_48() {
        let cfg = cfg();
        let mut tree = DiscoveryTree::from_announcements(vec![p("2001:db8::/32")], 7);
        let target: Ipv6Addr = "2001:db8:1d05::42".parse().unwrap();
        tree.fold_probes(&cfg, [&hit_record(target)]);
        tree.rebalance(&cfg);
        // /32 → /36 → /40 → /44 → /48: four splits, and the responding /48
        // is now a leaf carrying the hit as seed evidence.
        assert_eq!(tree.report(&cfg).splits, 4);
        let leaf = tree.leaf_of(&cfg, target).unwrap();
        assert_eq!(leaf, p("2001:db8:1d05::/48"));
        let node = tree.node(&leaf).unwrap();
        assert_eq!((node.hits, node.trials), (1, 1));
    }

    #[test]
    fn quiet_siblings_merge_back() {
        let config = cfg();
        let mut tree = DiscoveryTree::from_announcements(vec![p("2001:db8::/32")], 7);
        let target: Ipv6Addr = "2001:db8:1d05::42".parse().unwrap();
        tree.fold_probes(&cfg(), [&hit_record(target)]);
        tree.rebalance(&config);
        let nodes_after_split = tree.len();
        // Silence everywhere: enough quiet trials on every leaf to certify,
        // fed as misses through the probe channel.
        for _ in 0..MERGE_MIN_PROBES {
            let leaves: Vec<Ipv6Prefix> = tree
                .nodes
                .iter()
                .filter(|(_, n)| !n.split)
                .map(|(p, _)| *p)
                .collect();
            let records: Vec<ProbeRecord> = leaves
                .iter()
                .map(|leaf| miss_record(leaf.network()))
                .collect();
            tree.fold_probes(&config, records.iter());
        }
        // The hit evidence is still present on the /48, keeping it
        // unclassified; silence it too by overwhelming trials.
        let stale: Vec<ProbeRecord> = (0..64).map(|_| miss_record(target)).collect();
        tree.fold_probes(&config, stale.iter());
        tree.rebalance(&config);
        assert!(
            tree.report(&config).merges >= 4,
            "quiet subtree must collapse"
        );
        assert!(tree.len() < nodes_after_split);
        // Fully collapsed: back to the root as the only leaf.
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn plan_is_budgeted_deterministic_and_blocklist_clean() {
        let config = cfg();
        let generator = TargetGenerator::new(7);
        let mut tree = DiscoveryTree::from_announcements(vec![p("2001:db8::/32")], 7);
        let mut twin = tree.clone();
        let plan = tree.plan(&config, &generator, 56, 100);
        let again = twin.plan(&config, &generator, 56, 100);
        assert_eq!(plan.len(), 100);
        assert_eq!(plan, again, "planning is a pure function of tree state");
        assert_eq!(tree, twin, "cursor evolution matches too");

        // A blocked /40 never appears in any plan, and skipped draws do not
        // consume budget.
        let mut blocked = cfg();
        blocked.blocklist = crate::Blocklist::new(vec![p("2001:db8:1d00::/40")]);
        let mut tree = DiscoveryTree::from_announcements(vec![p("2001:db8::/32")], 7);
        let plan = tree.plan(&blocked, &generator, 56, 2000);
        assert_eq!(plan.len(), 2000);
        assert!(plan
            .iter()
            .all(|probe| !blocked.blocklist.covers_addr(probe.target)));
    }

    /// [`DiscoveryTree::plan`] as it read before it drew a chunk in one
    /// call: each subnet found by `nth_subnet`, blocked-checked, drawn alone
    /// by `random_addr_in` and address-checked before the next is taken.
    fn plan_one_draw_at_a_time(
        tree: &mut DiscoveryTree,
        cfg: &DiscoveryConfig,
        generator: &TargetGenerator,
        granularity: u8,
        budget: u64,
    ) -> SweepPlan {
        let blocked = |prefix: &Ipv6Prefix| cfg.blocklist.covers(prefix);
        let mut order: Vec<(f64, Sweep)> = (tree.nodes.iter())
            .filter(|(prefix, node)| !node.split && !blocked(prefix))
            .map(|(prefix, node)| (cfg.gain_weight(node.hits, node.trials), prefix, node))
            .filter(|(weight, ..)| *weight > 0.0)
            .map(|(weight, leaf, node)| {
                (
                    weight,
                    Sweep::of(tree.seed, *leaf, granularity, node.cursor),
                )
            })
            .collect();
        order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.leaf.cmp(&b.1.leaf)));
        let mut plan = SweepPlan::default();
        let mut remaining = budget;
        'alloc: loop {
            let mut progressed = false;
            for (_, sweep) in &mut order {
                if remaining == 0 {
                    break 'alloc;
                }
                let start = plan.len();
                let mut take = CHUNK.min(remaining);
                while take > 0 && sweep.examined <= sweep.mask {
                    let pos = sweep.cursor & sweep.mask;
                    sweep.cursor = sweep.cursor.wrapping_add(1);
                    sweep.examined += 1;
                    let index = pos.wrapping_mul(sweep.mul).wrapping_add(sweep.add) & sweep.mask;
                    let subnet = (sweep.leaf)
                        .nth_subnet(sweep.sub_len, u128::from(index))
                        .unwrap();
                    if blocked(&subnet) {
                        continue;
                    }
                    let target = generator.random_addr_in(&subnet);
                    if cfg.blocklist.covers_addr(target) {
                        continue;
                    }
                    plan.targets.push(target);
                    remaining -= 1;
                    take -= 1;
                    progressed = true;
                }
                plan.close_run(sweep.leaf, start);
            }
            if !progressed {
                break;
            }
        }
        for (_, sweep) in order.iter().filter(|(_, sweep)| sweep.examined > 0) {
            tree.nodes.get_mut(&sweep.leaf).unwrap().cursor = sweep.cursor;
        }
        plan
    }

    /// Drawing each chunk in one call plans what drawing one subnet at a
    /// time did — the same targets, runs and cursors, and so the same budget
    /// charge — with a blocklist that covers whole swept subnets (a /48
    /// under a /44 root, a /56 under a /48 root) and single drawn addresses,
    /// and a /44 whose sixteen /48s run out and wrap.
    #[test]
    fn a_chunked_plan_equals_the_one_draw_loop() {
        let generator = TargetGenerator::new(7);
        let roots = [
            p("2001:db8::/44"),
            p("2001:db8:100::/48"),
            p("2001:db8:200::/40"),
        ];
        let fresh = DiscoveryTree::from_announcements(roots, 7);
        let unblocked = fresh.clone().plan(&cfg(), &generator, 56, 600);
        let mut entries = vec![p("2001:db8:3::/48"), p("2001:db8:100:1f00::/56")];
        let single: Vec<Ipv6Addr> = unblocked.targets().iter().step_by(7).copied().collect();
        entries.extend(
            single
                .iter()
                .map(|&addr| Ipv6Prefix::new(addr, 128).unwrap()),
        );
        let mut config = cfg();
        config.blocklist = crate::Blocklist::new(entries);

        for config in [cfg(), config] {
            let (mut chunked, mut literal) = (fresh.clone(), fresh.clone());
            for budget in [600, 37, 1, 1000, 0, 16] {
                let plan = chunked.plan(&config, &generator, 56, budget);
                let want = plan_one_draw_at_a_time(&mut literal, &config, &generator, 56, budget);
                assert_eq!(plan, want, "budget {budget}");
                assert_eq!(chunked, literal, "cursors after budget {budget}");
                assert!(plan.len() as u64 <= budget);
                assert!(plan
                    .iter()
                    .all(|probe| !config.blocklist.covers_addr(probe.target)));
            }
        }
        // The singles were drawn by the unblocked plan, so the blocked one
        // did skip drawn addresses.
        assert!(single.iter().all(|addr| unblocked.targets().contains(addr)));
    }

    #[test]
    fn fully_blocked_frontier_plans_nothing_and_is_dead() {
        let mut config = cfg();
        config.blocklist = crate::Blocklist::new(vec![p("2001:db8::/32")]);
        let generator = TargetGenerator::new(7);
        let mut tree = DiscoveryTree::from_announcements(vec![p("2001:db8::/32")], 7);
        assert!(tree.plan(&config, &generator, 64, 4096).is_empty());
        assert!(!tree.frontier_live(&config));
    }

    #[test]
    fn decay_reopens_certificates() {
        let config = cfg();
        let mut tree = DiscoveryTree::from_announcements(vec![p("2001:db8:1::/48")], 7);
        let records: Vec<ProbeRecord> = (0..8)
            .map(|i| hit_record(p("2001:db8:1::/48").addr_with_host_bits(i)))
            .collect();
        tree.fold_probes(&config, records.iter());
        let root = p("2001:db8:1::/48");
        assert!(config.is_dense(tree.node(&root).unwrap().hits, 8));
        for _ in 0..4 {
            tree.decay(&config);
        }
        let node = tree.node(&root).unwrap();
        assert!(!config.is_dense(node.hits, node.trials));
        assert!(config.gain_weight(node.hits, node.trials) > 0.0);
    }

    #[test]
    fn checkpoint_roundtrips_byte_identically() {
        let config = cfg();
        let generator = TargetGenerator::new(7);
        let mut tree =
            DiscoveryTree::from_announcements(vec![p("2001:db8::/32"), p("2803:9810::/32")], 7);
        let plan = tree.plan(&config, &generator, 56, 64);
        let records: Vec<ProbeRecord> = plan
            .iter()
            .enumerate()
            .map(|(i, probe)| {
                if i % 7 == 0 {
                    hit_record(probe.target)
                } else {
                    miss_record(probe.target)
                }
            })
            .collect();
        tree.fold_probes(&config, records.iter());
        tree.rebalance(&config);
        let bytes = encode_value(&tree);
        let restored: DiscoveryTree = decode_value(&bytes).unwrap();
        assert_eq!(restored, tree);
        assert_eq!(encode_value(&restored), bytes);
    }
}
