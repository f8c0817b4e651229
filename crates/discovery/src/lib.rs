//! Adaptive hierarchical target discovery: the confidence-split prefix tree.
//!
//! The paper's seed expansion (§4.1) is a one-shot pass over a flat /48
//! candidate list derived from year-old seed data. This crate replaces the
//! flat list with a **live prefix tree over the announced space**: rooted at
//! the RIB's announcement granularity, splitting toward /48 where response
//! evidence accumulates, merging quiet siblings back, and allocating each
//! epoch's probe budget to the highest-expected-gain frontier — so a
//! continuous monitor *discovers* dense customer bands unseeded instead of
//! being handed them.
//!
//! Three pieces compose:
//!
//! * [`wilson_bounds`] / [`DiscoveryConfig`] — the confidence rule: every
//!   structural decision is a pure function of integer `(hits, trials)`
//!   counts, with thresholds in integer permille so configurations stay
//!   `Eq`-comparable and checkpoint-fingerprintable.
//! * [`DiscoveryTree`] — the tree itself: seeded sweep orders per leaf,
//!   split cascades that ride the responding /48's attribution all the way
//!   down in one rebalance, quiet-sibling merges, decay for moving bands.
//! * [`Blocklist`] — the probe opt-out layer every target-emitting path
//!   (detection stream, boundary re-expansion, discovery sweep) consults
//!   before any probe exists.
//!
//! The integration lives in `scent-stream`: the continuous monitor drives
//! one decay/fold/sweep/rebalance cycle per epoch boundary, routes the sweep
//! probes as `Phase::Expansion` observations, which the router tallies per
//! shard rather than shipping to the shard workers (so validated-/48 state
//! grows live in reports at no fold's cost), feeds the tree's dense
//! /48s into the watch-list revision, and carries the tree through
//! checkpoint/restore byte-identically.
//!
//! Everything here is deterministic by construction: no wall-clock input, no
//! map-iteration-order dependence, no randomness beyond seeded permutations.
//! Tree evolution is a pure function of `(config, world seed)` — the same
//! invariant the rest of the workspace is built around.

#![warn(missing_docs)]

mod blocklist;
mod confidence;
mod config;
mod tree;

pub use blocklist::{Blocklist, BlocklistError};
pub use confidence::wilson_bounds;
pub use config::DiscoveryConfig;
pub use tree::{DiscoveryReport, DiscoveryTree, NodeState, PlannedProbe, SweepPlan};
