//! A deterministic, simulated IPv6 Internet for reproducing the measurement
//! campaigns of *"Follow the Scent: Defeating IPv6 Prefix Rotation Privacy"*
//! (IMC 2021).
//!
//! The paper's measurements require a privileged vantage point probing the
//! real Internet at 10k packets per second for weeks. This crate substitutes
//! a fully deterministic model that produces the same *observable* the
//! methodology consumes: for every probe `(target address, time)` the engine
//! computes whether an ICMPv6 response is generated, from which source
//! address, and with which error code — as a function of
//!
//! * provider address plans (announced prefixes, rotation pools, customer
//!   allocation sizes),
//! * per-provider prefix-rotation policies (daily increments within a pool,
//!   periodic random reassignment, or no rotation),
//! * the CPE population (vendor mix, EUI-64 vs. privacy addressing,
//!   responsiveness, churn, planted pathologies such as MAC reuse), and
//! * network imperfections (loss, ICMPv6 rate limiting, silent filtering).
//!
//! Everything is derived from a single 64-bit seed via counter-based hashing,
//! so identical configurations replay identical "Internets" — the property
//! the repeated daily scans of §5 of the paper rely on.
//!
//! The crate is organised as:
//!
//! * [`time`] — the virtual clock ([`SimTime`], [`SimDuration`]).
//! * [`det`] — deterministic hashing / pseudo-randomness helpers.
//! * [`config`] — provider, pool and world configuration types.
//! * [`error`] — typed configuration/build errors ([`WorldError`]).
//! * [`population`] — the generated CPE population.
//! * [`engine`] — the probe/traceroute responder ([`Engine`]).
//! * [`scenarios`] — ready-made worlds mirroring the paper's evaluation.
//!
//! The CAIDA-style seed traceroute campaign that bootstraps the paper's
//! discovery pipeline lives in `scent-prober` (`SeedCampaign`), where it is
//! generic over any backend implementing the `ProbeTransport` + `WorldView`
//! traits rather than tied to this crate's [`Engine`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod det;
pub mod engine;
pub mod error;
mod pool_index;
pub mod population;
pub mod scenarios;
pub mod time;

pub use config::{
    PlantedCpe, ProviderConfig, RotationPolicy, RotationPoolConfig, SlotLayout, VendorShare,
    WorldConfig,
};
pub use engine::{DestUnreachableCode, Engine, ProbeReply, ReplyKind, TraceHop};
pub use error::{PoolError, WorldError};
pub use population::{CpeId, CpeRecord, PoolPopulation};
pub use scenarios::WorldScale;
pub use time::{SimDuration, SimTime};

pub use scent_bgp::{AsRegistry, Asn, CountryCode, Rib};
pub use scent_ipv6::{Eui64, Ipv6Prefix, MacAddr};
