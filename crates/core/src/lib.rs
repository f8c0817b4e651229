//! The paper's contribution: inference and tracking algorithms that defeat
//! IPv6 prefix-rotation privacy by exploiting CPE devices with legacy EUI-64
//! SLAAC addressing.
//!
//! *"Follow the Scent: Defeating IPv6 Prefix Rotation Privacy"* (IMC 2021)
//! builds a measurement methodology out of a handful of composable pieces,
//! each of which is a module here:
//!
//! | Paper section | Module | What it does |
//! |---|---|---|
//! | §3.2.1, Alg. 1 | [`allocation`] | Infer per-customer prefix allocation sizes per AS |
//! | §3.2.2, Alg. 2 | [`rotation_pool`] | Infer rotation-pool sizes per AS |
//! | §4.1 | [`seed_expansion`] | Expand and validate seed /48s within their /32s |
//! | §4.2 | [`density`] | Classify candidate /48s by unique-EUI-64 density |
//! | §4.3 | [`rotation_detect`] | Detect prefix rotation from two snapshots 24h apart |
//! | §4 (all) | [`pipeline`] | The end-to-end discovery pipeline and its counts (Table 1) |
//! | §5.1 | [`homogeneity`] | Per-AS CPE manufacturer homogeneity (Figure 4) |
//! | §5.2 | [`grid`] | Allocation grids (Figures 3 and 6) |
//! | §5.3, §5.2 | [`campaign_stats`] | Campaign aggregates, Figures 5, 7 and 8 |
//! | §5.4 | [`dynamics`] | Rotation-pool dynamics (Figures 9 and 10) |
//! | §5.5 | [`pathology`] | MAC reuse, the zero MAC, provider switching (Figures 11, 12) |
//! | §6 | [`tracker`] | The device-tracking case study (Table 2, Figure 13) |
//!
//! Supporting modules: [`stats`] (medians, CDFs), [`report`] (plain-text
//! table rendering used by the experiment binaries), [`fasthash`] (the
//! deterministic fast hasher behind every per-observation hash container).
//!
//! The classifier and detector modules also expose *incremental* entry
//! points — [`density::DensityAccumulator`],
//! [`rotation_detect::WindowedRotationDetector`] (which emits
//! [`rotation_detect::RotationEvent`]s), and [`tracker::IncrementalTracker`]
//! — used by the `scent-stream` crate to run the same inferences continuously
//! over a sharded observation stream. The batch functions are implemented on
//! top of the incremental state, so the two paths agree by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod campaign_stats;
pub mod density;
pub mod dynamics;
pub mod fasthash;
pub mod grid;
pub mod homogeneity;
pub mod pathology;
pub mod pipeline;
pub mod report;
pub mod rotation_detect;
pub mod rotation_pool;
pub mod seed_expansion;
pub mod stats;
pub mod tracker;

pub use allocation::AllocationInference;
pub use campaign_stats::CampaignStats;
pub use density::{DensityAccumulator, DensityReport};
pub use fasthash::{FastMap, FastSet};
pub use grid::AllocationGrid;
pub use homogeneity::HomogeneityReport;
pub use pathology::PathologyReport;
pub use pipeline::{Pipeline, PipelineConfig, PipelineReport, RotatingCounts};
pub use rotation_detect::{RotationDetection, RotationEvent, WindowedRotationDetector};
pub use rotation_pool::RotationPoolInference;
pub use seed_expansion::{SeedExpansion, WatchRevision};
pub use stats::Cdf;
pub use tracker::{IncrementalTracker, TrackedDevice, Tracker, TrackerConfig, TrackingReport};

pub use scent_bgp::{Asn, CountryCode, PrefixTable, Rib};
pub use scent_ipv6::{Eui64, Ipv6Prefix, MacAddr};
