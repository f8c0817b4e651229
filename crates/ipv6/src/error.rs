//! Error type shared by the `scent-ipv6` crate.

use core::fmt;

/// Errors produced while parsing or constructing addresses, prefixes and MAC
/// addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A prefix length outside `0..=128` was supplied.
    InvalidPrefixLength(u8),
    /// The requested subnet length was shorter than the parent prefix.
    SubnetShorterThanParent {
        /// Length of the parent prefix.
        parent: u8,
        /// Requested subnet length.
        requested: u8,
    },
    /// A subnet index was out of range for the requested subdivision.
    SubnetIndexOutOfRange {
        /// The offending index.
        index: u128,
        /// Number of subnets available.
        available: u128,
    },
    /// A textual MAC address could not be parsed.
    InvalidMac(String),
    /// A textual prefix could not be parsed.
    InvalidPrefix(String),
    /// The interface identifier is not in modified EUI-64 form.
    NotEui64,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidPrefixLength(len) => write!(f, "invalid prefix length /{len}"),
            Error::SubnetShorterThanParent { parent, requested } => write!(
                f,
                "subnet length /{requested} is shorter than parent prefix /{parent}"
            ),
            Error::SubnetIndexOutOfRange { index, available } => {
                write!(f, "subnet index {index} out of range (have {available})")
            }
            Error::InvalidMac(s) => write!(f, "invalid MAC address: {s:?}"),
            Error::InvalidPrefix(s) => write!(f, "invalid IPv6 prefix: {s:?}"),
            Error::NotEui64 => write!(f, "interface identifier is not modified EUI-64"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::InvalidPrefixLength(129);
        assert!(e.to_string().contains("129"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::NotEui64, Error::NotEui64);
        assert_ne!(Error::NotEui64, Error::InvalidPrefixLength(0));
    }
}
