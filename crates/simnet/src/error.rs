//! Typed errors for world configuration and engine construction.
//!
//! [`Engine::build`](crate::Engine::build) and the `validate` methods of the
//! configuration types historically returned `Result<_, String>`; these enums
//! replace that with a structured hierarchy implementing
//! [`std::error::Error`], so callers can match on the failure (and binaries
//! can print it via `Display`) instead of parsing prose.

use std::fmt;

use scent_bgp::Asn;
use scent_ipv6::Ipv6Prefix;

/// A problem with a single [`RotationPoolConfig`](crate::RotationPoolConfig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoolError {
    /// The per-customer allocation is shorter than the pool itself.
    AllocationShorterThanPool {
        /// The configured allocation length.
        allocation_len: u8,
        /// The pool prefix.
        pool: Ipv6Prefix,
    },
    /// The allocation is longer than a /64, which SLAAC cannot use.
    AllocationTooLong {
        /// The configured allocation length.
        allocation_len: u8,
    },
    /// The pool would contain more allocation slots than the simulator is
    /// willing to model.
    TooManySlots {
        /// The pool prefix.
        pool: Ipv6Prefix,
        /// The configured allocation length.
        allocation_len: u8,
    },
    /// The occupancy fraction falls outside `[0, 1]`.
    OccupancyOutOfRange {
        /// The configured occupancy.
        occupancy: f64,
    },
    /// The rotation jitter is longer than the rotation period. A probe
    /// tries only the two rotation counts a device can have seen within one
    /// period, so a longer jitter would hide live devices.
    JitterExceedsPeriod {
        /// The configured per-device delay bound, in hours.
        jitter_hours: u8,
        /// The configured rotation period, in days.
        period_days: u64,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::AllocationShorterThanPool {
                allocation_len,
                pool,
            } => write!(
                f,
                "allocation /{allocation_len} is shorter than pool {pool}"
            ),
            PoolError::AllocationTooLong { allocation_len } => write!(
                f,
                "allocation /{allocation_len} is longer than /64; SLAAC requires at least a /64"
            ),
            PoolError::TooManySlots {
                pool,
                allocation_len,
            } => write!(
                f,
                "pool {pool} with /{allocation_len} allocations has too many slots to simulate"
            ),
            PoolError::OccupancyOutOfRange { occupancy } => {
                write!(f, "occupancy {occupancy} outside [0, 1]")
            }
            PoolError::JitterExceedsPeriod {
                jitter_hours,
                period_days,
            } => write!(
                f,
                "rotation jitter {jitter_hours} h exceeds the {period_days}-day rotation period"
            ),
        }
    }
}

impl std::error::Error for PoolError {}

/// A problem with a [`WorldConfig`](crate::WorldConfig): either a world-level
/// inconsistency or a provider-level one (which variants carry the offending
/// AS).
#[derive(Debug, Clone, PartialEq)]
pub enum WorldError {
    /// The world has no providers at all.
    NoProviders,
    /// Two providers share an AS number.
    DuplicateAsn,
    /// The churn fraction falls outside `[0, 1]`.
    ChurnOutOfRange {
        /// The configured churn fraction.
        churn_fraction: f64,
    },
    /// A provider announces no prefixes.
    NoAnnouncedPrefixes {
        /// The provider.
        asn: Asn,
    },
    /// One of a provider's pools is internally inconsistent.
    Pool {
        /// The provider owning the pool.
        asn: Asn,
        /// The pool-level problem.
        error: PoolError,
    },
    /// A pool prefix is not covered by any of its provider's announcements.
    PoolNotCovered {
        /// The provider owning the pool.
        asn: Asn,
        /// The uncovered pool prefix.
        pool: Ipv6Prefix,
    },
    /// A planted CPE references a pool index the provider does not have.
    PlantedPoolMissing {
        /// The provider owning the planted device.
        asn: Asn,
        /// The referenced pool index.
        pool_idx: usize,
        /// How many pools the provider actually configures.
        pools: usize,
    },
    /// A planted CPE's initial slot exceeds its pool's slot count.
    PlantedSlotOutOfRange {
        /// The provider owning the planted device.
        asn: Asn,
        /// The out-of-range slot.
        initial_slot: u64,
        /// The pool prefix.
        pool: Ipv6Prefix,
    },
    /// A vendor-mix entry references a vendor index outside the OUI registry.
    VendorIndexOutOfRange {
        /// The provider with the bad vendor mix.
        asn: Asn,
        /// The out-of-range vendor index.
        vendor_idx: usize,
    },
    /// One of a provider's probability knobs (EUI-64 fraction, response rate,
    /// loss) falls outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// The provider with the bad probability.
        asn: Asn,
    },
    /// The same pool prefix is configured more than once across the world.
    DuplicatePoolPrefix {
        /// The repeated pool prefix.
        prefix: Ipv6Prefix,
    },
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::NoProviders => write!(f, "world has no providers"),
            WorldError::DuplicateAsn => write!(f, "duplicate ASN in world"),
            WorldError::ChurnOutOfRange { churn_fraction } => {
                write!(f, "churn fraction {churn_fraction} out of range")
            }
            WorldError::NoAnnouncedPrefixes { asn } => {
                write!(f, "{asn}: no announced prefixes")
            }
            WorldError::Pool { asn, error } => write!(f, "{asn}: {error}"),
            WorldError::PoolNotCovered { asn, pool } => {
                write!(f, "{asn}: pool {pool} not covered by any announced prefix")
            }
            WorldError::PlantedPoolMissing {
                asn,
                pool_idx,
                pools,
            } => write!(
                f,
                "{asn}: planted CPE references pool {pool_idx} but only {pools} pools exist"
            ),
            WorldError::PlantedSlotOutOfRange {
                asn,
                initial_slot,
                pool,
            } => write!(
                f,
                "{asn}: planted CPE slot {initial_slot} out of range for pool {pool}"
            ),
            WorldError::VendorIndexOutOfRange { asn, vendor_idx } => {
                write!(f, "{asn}: vendor index {vendor_idx} out of range")
            }
            WorldError::ProbabilityOutOfRange { asn } => {
                write!(f, "{asn}: probability out of range")
            }
            WorldError::DuplicatePoolPrefix { prefix } => {
                write!(f, "pool prefix {prefix} configured more than once")
            }
        }
    }
}

impl std::error::Error for WorldError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorldError::Pool { error, .. } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn display_matches_legacy_messages() {
        assert_eq!(
            PoolError::AllocationShorterThanPool {
                allocation_len: 40,
                pool: p("2001:db8::/48"),
            }
            .to_string(),
            "allocation /40 is shorter than pool 2001:db8::/48"
        );
        assert_eq!(
            WorldError::NoProviders.to_string(),
            "world has no providers"
        );
        assert_eq!(
            WorldError::Pool {
                asn: Asn(8881),
                error: PoolError::OccupancyOutOfRange { occupancy: 1.5 },
            }
            .to_string(),
            "AS8881: occupancy 1.5 outside [0, 1]"
        );
        assert_eq!(
            WorldError::DuplicatePoolPrefix {
                prefix: p("2001:16b8:100::/46"),
            }
            .to_string(),
            "pool prefix 2001:16b8:100::/46 configured more than once"
        );
    }

    #[test]
    fn error_source_chains_to_pool_error() {
        use std::error::Error;
        let err = WorldError::Pool {
            asn: Asn(1),
            error: PoolError::AllocationTooLong { allocation_len: 72 },
        };
        assert!(err.source().is_some());
        assert!(WorldError::NoProviders.source().is_none());
    }
}
