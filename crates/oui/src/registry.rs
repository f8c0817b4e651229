//! The OUI registry proper: OUI → organization name.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use scent_ipv6::{Eui64, MacAddr, Oui};

/// An in-memory OUI registry.
///
/// Lookups return the registered organization name, or `None` for
/// unregistered OUIs — the paper observed a handful of MAC addresses whose
/// OUI "did not resolve to any OUI listed by the IEEE".
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OuiRegistry {
    entries: BTreeMap<u32, String>,
}

impl OuiRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered OUIs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Register an OUI. Returns the previous registrant if the OUI was
    /// already assigned (the IEEE registry itself has no duplicates).
    pub fn insert(&mut self, oui: Oui, organization: impl Into<String>) -> Option<String> {
        self.entries.insert(oui.to_u32(), organization.into())
    }

    /// Look up the organization an OUI is registered to.
    pub fn lookup(&self, oui: Oui) -> Option<&str> {
        self.entries.get(&oui.to_u32()).map(String::as_str)
    }

    /// Look up the manufacturer of a MAC address.
    pub(crate) fn lookup_mac(&self, mac: MacAddr) -> Option<&str> {
        self.lookup(mac.oui())
    }

    /// Look up the manufacturer of the MAC embedded in an EUI-64 IID.
    pub fn lookup_eui64(&self, eui: Eui64) -> Option<&str> {
        self.lookup_mac(eui.to_mac())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut reg = OuiRegistry::new();
        assert!(reg.is_empty());
        reg.insert(Oui::new([0xc8, 0x0e, 0x14]), "AVM GmbH");
        reg.insert(Oui::new([0x34, 0x4b, 0x50]), "ZTE Corporation");
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.lookup(Oui::new([0xc8, 0x0e, 0x14])), Some("AVM GmbH"));
        assert_eq!(reg.lookup(Oui::new([0x00, 0x11, 0x22])), None);
        let mac: MacAddr = "c8:0e:14:01:02:03".parse().unwrap();
        assert_eq!(reg.lookup_mac(mac), Some("AVM GmbH"));
        let eui = Eui64::from_mac(mac);
        assert_eq!(reg.lookup_eui64(eui), Some("AVM GmbH"));
    }

    #[test]
    fn reinsert_returns_previous() {
        let mut reg = OuiRegistry::new();
        assert_eq!(reg.insert(Oui::from_u32(0x123456), "First"), None);
        assert_eq!(
            reg.insert(Oui::from_u32(0x123456), "Second"),
            Some("First".to_string())
        );
        assert_eq!(reg.lookup(Oui::from_u32(0x123456)), Some("Second"));
    }
}
