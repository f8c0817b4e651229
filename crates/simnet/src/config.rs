//! Configuration of the simulated world: providers, rotation pools and the
//! knobs that control CPE populations and network imperfections.

use serde::{Deserialize, Serialize};

use scent_bgp::{Asn, CountryCode};
use scent_ipv6::{Ipv6Prefix, MacAddr};

use crate::error::{PoolError, WorldError};
use crate::time::{SECS_PER_DAY, SECS_PER_HOUR};

/// How initial allocation slots are assigned to the customers of a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotLayout {
    /// Customers occupy the lowest slots contiguously. With a daily-increment
    /// rotation this reproduces the "one /48 of the pool is dense, the next
    /// is filling" dynamics of Figure 10.
    Contiguous,
    /// Customers are spread (pseudo-randomly but deterministically) over the
    /// whole pool, as seen in the mostly-filled allocation grids of Figure 3.
    Spread,
}

/// The prefix-rotation policy of a pool.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RotationPolicy {
    /// Prefixes never rotate; the customer keeps its initial delegation.
    /// (More than half of the ASes measured in Figure 7 behave this way.)
    Static,
    /// Every `period_days`, each customer's slot advances by `step_slots`
    /// modulo the pool size — the AS8881 behaviour of Figure 9, where the
    /// delegated prefix "increments each day ... modulo the /46 rotation
    /// pool".
    DailyIncrement {
        /// Slots advanced per rotation event.
        step_slots: u64,
        /// Days between rotation events (1 = daily).
        period_days: u64,
        /// Hour of day at which the rotation batch begins.
        hour: u8,
        /// Each customer's rotation is delayed by up to this many hours
        /// (deterministically per customer), reproducing the 00:00–06:00
        /// reassignment window of Figure 10.
        jitter_hours: u8,
    },
    /// Every `period_days`, customers receive a fresh pseudo-random slot from
    /// the pool (an affine permutation of their previous slot, so two
    /// customers never collide).
    PeriodicRandom {
        /// Days between rotation events.
        period_days: u64,
        /// Hour of day at which the rotation batch begins.
        hour: u8,
        /// Per-customer delay bound, in hours.
        jitter_hours: u8,
    },
}

impl RotationPolicy {
    /// Whether this policy ever changes a customer's prefix.
    pub fn rotates(&self) -> bool {
        !matches!(self, RotationPolicy::Static)
    }

    /// A rotating policy's schedule in seconds: `(period, offset of the
    /// rotation hour into the day, jitter bound)`; `None` for
    /// [`RotationPolicy::Static`]. A period of 0 days counts as 1.
    pub(crate) fn schedule_secs(&self) -> Option<(u64, u64, u64)> {
        match *self {
            RotationPolicy::Static => None,
            RotationPolicy::DailyIncrement {
                period_days,
                hour,
                jitter_hours,
                ..
            }
            | RotationPolicy::PeriodicRandom {
                period_days,
                hour,
                jitter_hours,
            } => Some((
                period_days.max(1).saturating_mul(SECS_PER_DAY),
                u64::from(hour) * SECS_PER_HOUR,
                u64::from(jitter_hours) * SECS_PER_HOUR,
            )),
        }
    }
}

/// One rotation pool of a provider: a block of address space within which a
/// set of customers receive fixed-size delegations that may rotate over time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RotationPoolConfig {
    /// The pool's covering prefix (e.g. a /46 for AS8881, or a /48 for a
    /// provider that does not rotate).
    pub prefix: Ipv6Prefix,
    /// The prefix length delegated to each customer (64, 60, 56, 52 or 48).
    pub allocation_len: u8,
    /// Fraction of the pool's allocation slots occupied by a customer.
    pub occupancy: f64,
    /// How customers' initial slots are laid out.
    pub layout: SlotLayout,
    /// The rotation policy.
    pub rotation: RotationPolicy,
}

impl RotationPoolConfig {
    /// Number of allocation slots in the pool.
    pub fn num_slots(&self) -> u64 {
        1u64 << (self.allocation_len - self.prefix.len())
    }

    /// Validate internal consistency, returning the first problem found.
    pub fn validate(&self) -> Result<(), PoolError> {
        if self.allocation_len < self.prefix.len() {
            return Err(PoolError::AllocationShorterThanPool {
                allocation_len: self.allocation_len,
                pool: self.prefix,
            });
        }
        if self.allocation_len > 64 {
            return Err(PoolError::AllocationTooLong {
                allocation_len: self.allocation_len,
            });
        }
        if self.allocation_len - self.prefix.len() > 40 {
            return Err(PoolError::TooManySlots {
                pool: self.prefix,
                allocation_len: self.allocation_len,
            });
        }
        if !(0.0..=1.0).contains(&self.occupancy) {
            return Err(PoolError::OccupancyOutOfRange {
                occupancy: self.occupancy,
            });
        }
        if let RotationPolicy::DailyIncrement {
            period_days,
            jitter_hours,
            ..
        }
        | RotationPolicy::PeriodicRandom {
            period_days,
            jitter_hours,
            ..
        } = self.rotation
        {
            if u64::from(jitter_hours) > period_days.max(1).saturating_mul(24) {
                return Err(PoolError::JitterExceedsPeriod {
                    jitter_hours,
                    period_days,
                });
            }
        }
        Ok(())
    }
}

/// A share of a provider's CPE fleet belonging to one vendor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VendorShare {
    /// Index into [`scent_oui::ALL_VENDORS`].
    pub(crate) vendor_idx: usize,
    /// Relative weight of this vendor in the provider's fleet.
    pub weight: f64,
}

/// A CPE planted explicitly by a scenario (used for pathologies such as MAC
/// reuse, provider switching and the all-zero MAC, and for case-study
/// targets).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlantedCpe {
    /// Index of the pool (within the provider) the device lives in.
    pub(crate) pool_idx: usize,
    /// The device's WAN MAC address.
    pub mac: MacAddr,
    /// The device's initial allocation slot within the pool.
    pub initial_slot: u64,
    /// First day (inclusive) the device is online.
    pub(crate) join_day: u64,
    /// Last day (exclusive) the device is online; `u64::MAX` means forever.
    pub(crate) leave_day: u64,
    /// Whether the device uses EUI-64 SLAAC addressing on its WAN interface.
    pub eui64: bool,
}

impl PlantedCpe {
    /// A device online for the whole simulation using EUI-64 addressing.
    pub fn always(pool_idx: usize, mac: MacAddr, initial_slot: u64) -> Self {
        PlantedCpe {
            pool_idx,
            mac,
            initial_slot,
            join_day: 0,
            leave_day: u64::MAX,
            eui64: true,
        }
    }
}

/// Configuration of one provider (Autonomous System).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProviderConfig {
    /// The provider's AS number.
    pub asn: Asn,
    /// Operator name.
    pub name: String,
    /// Country served.
    pub country: CountryCode,
    /// Prefixes the provider announces in BGP. Rotation pools must fall
    /// inside these.
    pub announced: Vec<Ipv6Prefix>,
    /// The provider's rotation pools.
    pub pools: Vec<RotationPoolConfig>,
    /// Vendor mix of the provider's CPE fleet (drives Figure 4).
    pub vendor_mix: Vec<VendorShare>,
    /// Fraction of CPE using legacy EUI-64 WAN addressing (the remainder use
    /// privacy/random IIDs).
    pub eui64_fraction: f64,
    /// Fraction of CPE that respond to probes at all (silent devices model
    /// the black bands of Figure 3).
    pub response_rate: f64,
    /// Independent per-probe loss probability.
    pub loss: f64,
    /// Explicitly planted devices.
    pub planted: Vec<PlantedCpe>,
}

impl ProviderConfig {
    /// A provider with sensible defaults: fully EUI-64, fully responsive,
    /// lossless, no planted devices.
    pub fn new(
        asn: impl Into<Asn>,
        name: &str,
        country: &str,
        announced: Vec<Ipv6Prefix>,
        pools: Vec<RotationPoolConfig>,
    ) -> Self {
        ProviderConfig {
            asn: asn.into(),
            name: name.to_string(),
            country: CountryCode::new(country)
                .unwrap_or_else(|| panic!("invalid country code {country:?}")),
            announced,
            pools,
            vendor_mix: vec![VendorShare {
                vendor_idx: 0,
                weight: 1.0,
            }],
            eui64_fraction: 1.0,
            response_rate: 1.0,
            loss: 0.0,
            planted: Vec::new(),
        }
    }

    /// Builder-style: set the vendor mix.
    pub fn with_vendor_mix(mut self, mix: Vec<(usize, f64)>) -> Self {
        self.vendor_mix = mix
            .into_iter()
            .map(|(vendor_idx, weight)| VendorShare { vendor_idx, weight })
            .collect();
        self
    }

    /// Builder-style: set the EUI-64 fraction.
    pub fn with_eui64_fraction(mut self, fraction: f64) -> Self {
        self.eui64_fraction = fraction;
        self
    }

    /// Builder-style: set the response rate.
    pub(crate) fn with_response_rate(mut self, rate: f64) -> Self {
        self.response_rate = rate;
        self
    }

    /// Builder-style: set the per-probe loss probability.
    pub(crate) fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Builder-style: plant a device.
    pub fn with_planted(mut self, cpe: PlantedCpe) -> Self {
        self.planted.push(cpe);
        self
    }

    /// Validate the provider configuration.
    pub fn validate(&self) -> Result<(), WorldError> {
        if self.announced.is_empty() {
            return Err(WorldError::NoAnnouncedPrefixes { asn: self.asn });
        }
        for pool in &self.pools {
            pool.validate().map_err(|error| WorldError::Pool {
                asn: self.asn,
                error,
            })?;
            if !self
                .announced
                .iter()
                .any(|a| a.contains_prefix(&pool.prefix))
            {
                return Err(WorldError::PoolNotCovered {
                    asn: self.asn,
                    pool: pool.prefix,
                });
            }
        }
        for planted in &self.planted {
            if planted.pool_idx >= self.pools.len() {
                return Err(WorldError::PlantedPoolMissing {
                    asn: self.asn,
                    pool_idx: planted.pool_idx,
                    pools: self.pools.len(),
                });
            }
            let pool = &self.pools[planted.pool_idx];
            if planted.initial_slot >= pool.num_slots() {
                return Err(WorldError::PlantedSlotOutOfRange {
                    asn: self.asn,
                    initial_slot: planted.initial_slot,
                    pool: pool.prefix,
                });
            }
        }
        for share in &self.vendor_mix {
            if share.vendor_idx >= scent_oui::ALL_VENDORS.len() {
                return Err(WorldError::VendorIndexOutOfRange {
                    asn: self.asn,
                    vendor_idx: share.vendor_idx,
                });
            }
        }
        if !(0.0..=1.0).contains(&self.eui64_fraction)
            || !(0.0..=1.0).contains(&self.response_rate)
            || !(0.0..=1.0).contains(&self.loss)
        {
            return Err(WorldError::ProbabilityOutOfRange { asn: self.asn });
        }
        Ok(())
    }
}

/// The whole simulated world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldConfig {
    /// The providers (one per AS).
    pub providers: Vec<ProviderConfig>,
    /// Master seed for all deterministic draws.
    pub seed: u64,
    /// Optional per-CPE ICMPv6 error rate limit (messages per second); `None`
    /// disables rate limiting.
    pub icmp_rate_limit_per_sec: Option<u32>,
    /// Fraction of generated (non-planted) CPE that join after day 0 or leave
    /// before the end of the 600-day simulation horizon, modelling
    /// subscriber churn.
    pub churn_fraction: f64,
}

impl WorldConfig {
    /// A world with the given providers and seed, no rate limiting, and 2%
    /// churn over a 600-day horizon.
    pub fn new(providers: Vec<ProviderConfig>, seed: u64) -> Self {
        WorldConfig {
            providers,
            seed,
            icmp_rate_limit_per_sec: None,
            churn_fraction: 0.02,
        }
    }

    /// Validate every provider.
    pub fn validate(&self) -> Result<(), WorldError> {
        if self.providers.is_empty() {
            return Err(WorldError::NoProviders);
        }
        let mut asns: Vec<u32> = self.providers.iter().map(|p| p.asn.value()).collect();
        asns.sort_unstable();
        asns.dedup();
        if asns.len() != self.providers.len() {
            return Err(WorldError::DuplicateAsn);
        }
        for provider in &self.providers {
            provider.validate()?;
        }
        if !(0.0..=1.0).contains(&self.churn_fraction) {
            return Err(WorldError::ChurnOutOfRange {
                churn_fraction: self.churn_fraction,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    fn pool(prefix: &str, alloc: u8) -> RotationPoolConfig {
        RotationPoolConfig {
            prefix: p(prefix),
            allocation_len: alloc,
            occupancy: 0.5,
            layout: SlotLayout::Spread,
            rotation: RotationPolicy::Static,
        }
    }

    #[test]
    fn pool_slot_count() {
        assert_eq!(pool("2001:db8::/48", 56).num_slots(), 256);
        assert_eq!(pool("2001:db8::/48", 64).num_slots(), 65_536);
        assert_eq!(pool("2001:db8::/46", 64).num_slots(), 1 << 18);
        assert_eq!(pool("2001:db8::/64", 64).num_slots(), 1);
    }

    #[test]
    fn pool_validation() {
        assert!(pool("2001:db8::/48", 56).validate().is_ok());
        assert!(pool("2001:db8::/48", 40).validate().is_err()); // shorter than pool
        assert!(pool("2001:db8::/48", 72).validate().is_err()); // longer than /64
        assert!(pool("2001:db8::/16", 64).validate().is_err()); // too many slots
        let mut bad = pool("2001:db8::/48", 56);
        bad.occupancy = 1.5;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn provider_validation() {
        let good = ProviderConfig::new(
            8881u32,
            "Versatel",
            "DE",
            vec![p("2001:16b8::/32")],
            vec![pool("2001:16b8:100::/46", 56)],
        );
        assert!(good.validate().is_ok());

        let mut no_cover = good.clone();
        no_cover.pools[0].prefix = p("2003:e2::/46");
        assert!(no_cover.validate().is_err());

        let mut bad_vendor = good.clone();
        bad_vendor.vendor_mix = vec![VendorShare {
            vendor_idx: 10_000,
            weight: 1.0,
        }];
        assert!(bad_vendor.validate().is_err());

        let mut bad_planted = good.clone();
        bad_planted
            .planted
            .push(PlantedCpe::always(3, MacAddr::new([0, 1, 2, 3, 4, 5]), 0));
        assert!(bad_planted.validate().is_err());

        let mut bad_slot = good.clone();
        bad_slot.planted.push(PlantedCpe::always(
            0,
            MacAddr::new([0, 1, 2, 3, 4, 5]),
            1 << 20,
        ));
        assert!(bad_slot.validate().is_err());

        let mut bad_prob = good;
        bad_prob.loss = 1.5;
        assert!(bad_prob.validate().is_err());
    }

    #[test]
    fn world_validation() {
        let provider = ProviderConfig::new(
            1u32,
            "A",
            "DE",
            vec![p("2001:db8::/32")],
            vec![pool("2001:db8::/48", 56)],
        );
        let world = WorldConfig::new(vec![provider.clone()], 42);
        assert!(world.validate().is_ok());

        let empty = WorldConfig::new(vec![], 42);
        assert!(empty.validate().is_err());

        let duplicate = WorldConfig::new(vec![provider.clone(), provider], 42);
        assert!(duplicate.validate().is_err());
    }

    #[test]
    fn rotation_policy_rotates() {
        assert!(!RotationPolicy::Static.rotates());
        assert!(RotationPolicy::DailyIncrement {
            step_slots: 1,
            period_days: 1,
            hour: 3,
            jitter_hours: 3
        }
        .rotates());
        assert!(RotationPolicy::PeriodicRandom {
            period_days: 7,
            hour: 0,
            jitter_hours: 6
        }
        .rotates());
    }

    #[test]
    fn builder_methods() {
        let provider = ProviderConfig::new(
            1u32,
            "A",
            "DE",
            vec![p("2001:db8::/32")],
            vec![pool("2001:db8::/48", 56)],
        )
        .with_vendor_mix(vec![(0, 0.8), (1, 0.2)])
        .with_eui64_fraction(0.7)
        .with_response_rate(0.9)
        .with_loss(0.01)
        .with_planted(PlantedCpe::always(0, MacAddr::ZERO, 5));
        assert_eq!(provider.vendor_mix.len(), 2);
        assert_eq!(provider.eui64_fraction, 0.7);
        assert_eq!(provider.planted.len(), 1);
        assert!(provider.validate().is_ok());
    }
}
