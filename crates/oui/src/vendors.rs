//! Curated CPE vendor database.
//!
//! The paper's homogeneity analysis (§5.1) names several manufacturers
//! explicitly — AVM (Fritz!Box, dominant at NetCologne and, per §8, ~2M MACs
//! overall), ZTE (dominant at Viettel), Lancom Systems, Zyxel — and reports
//! "more than 200 distinct manufacturers" overall. We embed a realistic set
//! of CPE vendors, each with a handful of OUIs, that the simulator draws from
//! when generating device populations. The OUIs listed here are real IEEE
//! assignments for these organizations, so a real `oui.txt` dump resolves
//! them identically.

use serde::Serialize;

use scent_ipv6::Oui;

use crate::registry::OuiRegistry;

/// A CPE manufacturer known to the synthetic registry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CpeVendor {
    /// Canonical vendor name (as the IEEE registry spells it).
    pub name: &'static str,
    /// A short label used in reports.
    pub short: &'static str,
    /// OUIs assigned to the vendor (a subset of their real assignments).
    pub ouis: &'static [u32],
}

/// All vendors in the built-in database.
///
/// The first entries are the manufacturers the paper names; the remainder
/// give the long tail needed for the ">200 distinct manufacturers"
/// observation and the non-dominant share of each AS.
pub const ALL_VENDORS: &[CpeVendor] = &[
    CpeVendor {
        name: "AVM GmbH",
        short: "AVM",
        ouis: &[0xC80E14, 0x3810D5, 0xE0286D, 0x7CFF4D, 0x989BCB, 0x2C3AFD],
    },
    CpeVendor {
        name: "ZTE Corporation",
        short: "ZTE",
        ouis: &[0x344B50, 0x28FF3E, 0x68DB54, 0x9CA5C0, 0xD058A8, 0xF084C9],
    },
    CpeVendor {
        name: "Huawei Technologies Co.,Ltd",
        short: "Huawei",
        ouis: &[0x00E0FC, 0x286ED4, 0x48435A, 0x786A89, 0xD4B110, 0xF4C714],
    },
    CpeVendor {
        name: "Sagemcom Broadband SAS",
        short: "Sagemcom",
        ouis: &[0x34C3AC, 0x681590, 0x7C03D8, 0xA84E3F, 0xE8ADA6],
    },
    CpeVendor {
        name: "Arris Group, Inc.",
        short: "Arris",
        ouis: &[0x001DCE, 0x2C9E5F, 0x84E058, 0xD40598, 0xF88B37],
    },
    CpeVendor {
        name: "Technicolor CH USA Inc.",
        short: "Technicolor",
        ouis: &[0x18622C, 0x4C17EB, 0x88F7C7, 0xA0B439, 0xFC528D],
    },
    CpeVendor {
        name: "LANCOM Systems GmbH",
        short: "Lancom",
        ouis: &[0x00A057, 0xE82C6D],
    },
    CpeVendor {
        name: "Zyxel Communications Corporation",
        short: "Zyxel",
        ouis: &[0x001349, 0x404A03, 0x5CF4AB, 0xB8ECA3],
    },
    CpeVendor {
        name: "Nokia Shanghai Bell Co., Ltd.",
        short: "Nokia",
        ouis: &[0x286FB9, 0x58A0CB, 0x942CB3],
    },
    CpeVendor {
        name: "FiberHome Telecommunication Technologies CO.,LTD",
        short: "FiberHome",
        ouis: &[0x0C8363, 0x4CF55B, 0x881FA1],
    },
    CpeVendor {
        name: "TP-LINK TECHNOLOGIES CO.,LTD.",
        short: "TP-Link",
        ouis: &[0x14CC20, 0x50C7BF, 0xB0BE76, 0xF4F26D],
    },
    CpeVendor {
        name: "MitraStar Technology Corp.",
        short: "MitraStar",
        ouis: &[0x4C38D8, 0xCC33BB],
    },
    CpeVendor {
        name: "Intelbras",
        short: "Intelbras",
        ouis: &[0x58102F, 0xD0053F],
    },
    CpeVendor {
        name: "D-Link International",
        short: "D-Link",
        ouis: &[0x1CAFF7, 0x84C9B2, 0xC4A81D],
    },
    CpeVendor {
        name: "NETGEAR",
        short: "Netgear",
        ouis: &[0x204E7F, 0x9C3DCF, 0xCC40D0],
    },
    CpeVendor {
        name: "Askey Computer Corp",
        short: "Askey",
        ouis: &[0x0C9160, 0xE8D11B],
    },
    CpeVendor {
        name: "Compal Broadband Networks, Inc.",
        short: "Compal",
        ouis: &[0x480071, 0xE0B70A],
    },
    CpeVendor {
        name: "Ubee Interactive Corp.",
        short: "Ubee",
        ouis: &[0x586D8F, 0xC0C522],
    },
    CpeVendor {
        name: "Vantiva (CommScope)",
        short: "Vantiva",
        ouis: &[0x3C7A8A, 0xE46F13],
    },
    CpeVendor {
        name: "Calix Inc.",
        short: "Calix",
        ouis: &[0x000631, 0xCCBE59],
    },
];

/// Build the registry containing every built-in vendor OUI.
pub fn builtin_registry() -> OuiRegistry {
    let mut registry = OuiRegistry::new();
    for vendor in ALL_VENDORS {
        for &oui in vendor.ouis {
            registry.insert(Oui::from_u32(oui), vendor.name);
        }
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_ipv6::MacAddr;

    #[test]
    fn builtin_registry_is_consistent() {
        let reg = builtin_registry();
        // Every vendor's OUIs resolve to that vendor and no OUI is shared.
        let total: usize = ALL_VENDORS.iter().map(|v| v.ouis.len()).sum();
        assert_eq!(reg.len(), total, "duplicate OUIs across vendors");
        for vendor in ALL_VENDORS {
            for &oui in vendor.ouis {
                assert_eq!(reg.lookup(Oui::from_u32(oui)), Some(vendor.name));
            }
        }
    }

    #[test]
    fn paper_named_vendors_present() {
        for short in ["AVM", "ZTE", "Lancom", "Zyxel", "Huawei"] {
            let present = ALL_VENDORS.iter().any(|v| v.short == short);
            assert!(present, "missing {short}");
        }
    }

    #[test]
    fn avm_fritzbox_mac_resolves() {
        let reg = builtin_registry();
        let mac: MacAddr = "c8:0e:14:12:34:56".parse().unwrap();
        assert_eq!(reg.lookup_mac(mac), Some("AVM GmbH"));
        // Figure 1's example CPE MAC is in AVM space too.
        let mac: MacAddr = "38:10:d5:aa:bb:cc".parse().unwrap();
        assert_eq!(reg.lookup_mac(mac), Some("AVM GmbH"));
    }

    #[test]
    fn vendor_count_is_plural() {
        assert!(ALL_VENDORS.len() >= 20, "need a realistic vendor tail");
    }
}
