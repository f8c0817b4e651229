//! IPv6 address, prefix and MAC/EUI-64 substrate.
//!
//! This crate provides the low-level vocabulary used throughout the
//! `followscent` workspace, a reproduction of *"Follow the Scent: Defeating
//! IPv6 Prefix Rotation Privacy"* (IMC 2021):
//!
//! * [`Ipv6Prefix`] — a CIDR prefix over the 128-bit IPv6 address space with
//!   subnet iteration, containment checks and the span arithmetic the
//!   paper's Algorithms 1 and 2 rely on.
//! * [`MacAddr`], [`Oui`] and [`Eui64`] — IEEE 802 hardware addresses, their
//!   Organizationally Unique Identifier, and the modified EUI-64 interface
//!   identifier derived from them (RFC 4291 §2.5.1 / RFC 2464 §4).
//!
//! The crate is deliberately dependency-light and fully deterministic; all
//! probing/response behaviour lives in `scent-simnet` and `scent-prober`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod error;
pub mod eui64;
pub mod mac;
pub mod prefix;

pub use addr::{addr_from_u128, addr_to_u128, interface_id, network_prefix64};
pub use error::{Error, Result};
pub use eui64::Eui64;
pub use mac::{MacAddr, Oui};
pub use prefix::Ipv6Prefix;

/// The number of bits in an IPv6 address.
pub(crate) const ADDR_BITS: u8 = 128;
