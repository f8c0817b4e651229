//! OUI (Organizationally Unique Identifier) registry and CPE vendor database.
//!
//! §5.1 of the paper maps the MAC addresses recovered from EUI-64 interface
//! identifiers to device manufacturers via the public IEEE OUI registry, and
//! shows that most ASes are dominated by a single CPE vendor (the
//! *homogeneity* analysis of Figure 4).
//!
//! The real registry is a ~35k-entry text file published by the IEEE. This
//! crate provides:
//!
//! * [`OuiRegistry`] — an in-memory registry with lookups by [`Oui`] or
//!   [`MacAddr`].
//! * [`vendors`] — a curated synthetic registry of the CPE manufacturers the
//!   paper names (AVM, ZTE, Huawei, Sagemcom, …) with several OUIs each,
//!   sufficient to reproduce the homogeneity and pathology analyses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;
pub mod vendors;

pub use registry::{OuiRegistry, RegistryEntry};
pub use vendors::{builtin_registry, CpeVendor, ALL_VENDORS};

pub use scent_ipv6::{MacAddr, Oui};
