//! Probe and scan result records.
//!
//! A [`Scan`] is the unit every analysis in `scent-core` consumes: the list
//! of `<target, response>` pairs from one pass over a target list, with the
//! virtual time each probe was sent. The paper's Algorithms 1 and 2 are
//! defined directly over these pairs.

use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use scent_ipv6::Eui64;
use scent_simnet::{ReplyKind, SimTime};

/// The response half of a probe record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResponseRecord {
    /// Source address of the ICMPv6 response (the CPE WAN address when the
    /// probe landed inside a delegated prefix).
    pub source: Ipv6Addr,
    /// The ICMPv6 message kind received.
    pub kind: ReplyKind,
}

impl ResponseRecord {
    /// The EUI-64 identifier embedded in the response source, if any.
    pub fn eui64(&self) -> Option<Eui64> {
        Eui64::from_addr(self.source)
    }
}

/// One probe and its outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeRecord {
    /// The probed target address.
    pub target: Ipv6Addr,
    /// Virtual time the probe was sent.
    pub sent_at: SimTime,
    /// The response, or `None` if the probe went unanswered.
    pub response: Option<ResponseRecord>,
}

impl ProbeRecord {
    /// Whether the probe received any response.
    pub fn responded(&self) -> bool {
        self.response.is_some()
    }

    /// The response source address, if any.
    pub fn source(&self) -> Option<Ipv6Addr> {
        self.response.map(|r| r.source)
    }

    /// The EUI-64 identifier in the response, if any.
    pub fn eui64(&self) -> Option<Eui64> {
        self.response.and_then(|r| r.eui64())
    }
}

/// The result of one scan over a target list.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scan {
    /// One record per probed target, in probing order.
    pub records: Vec<ProbeRecord>,
    /// Time the scan began.
    pub started_at: SimTime,
    /// Time the last probe was sent.
    pub finished_at: SimTime,
}

impl Scan {
    /// Number of probes sent.
    pub fn probes_sent(&self) -> usize {
        self.records.len()
    }

    /// Number of probes that received a response.
    pub fn responses(&self) -> usize {
        self.records.iter().filter(|r| r.responded()).count()
    }

    /// Number of responses whose source carried an EUI-64 IID.
    pub fn eui64_responses(&self) -> usize {
        self.records.iter().filter(|r| r.eui64().is_some()).count()
    }

    /// Iterate over the `<target, EUI-64 source>` pairs.
    pub fn eui64_pairs(&self) -> impl Iterator<Item = (Ipv6Addr, Ipv6Addr, Eui64)> + '_ {
        self.records.iter().filter_map(|r| {
            r.eui64()
                .map(|eui| (r.target, r.source().expect("eui64 implies response"), eui))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_ipv6::MacAddr;
    use scent_simnet::{DestUnreachableCode, ReplyKind};

    fn eui_source() -> Ipv6Addr {
        let mac: MacAddr = "c8:0e:14:01:02:03".parse().unwrap();
        Eui64::from_mac(mac).with_prefix64(0x2001_0db8_0000_0042)
    }

    fn record(target: &str, source: Option<Ipv6Addr>) -> ProbeRecord {
        ProbeRecord {
            target: target.parse().unwrap(),
            sent_at: SimTime::at(1, 0),
            response: source.map(|s| ResponseRecord {
                source: s,
                kind: ReplyKind::DestinationUnreachable(DestUnreachableCode::AddressUnreachable),
            }),
        }
    }

    #[test]
    fn record_accessors() {
        let hit = record("2001:db8:0:42::1234", Some(eui_source()));
        assert!(hit.responded());
        assert!(hit.eui64().is_some());
        assert_eq!(hit.source(), Some(eui_source()));
        let miss = record("2001:db8::1", None);
        assert!(!miss.responded());
        assert!(miss.eui64().is_none());
        let plain = record("2001:db8::2", Some("2001:db8::beef".parse().unwrap()));
        assert!(plain.responded());
        assert!(plain.eui64().is_none());
    }

    #[test]
    fn scan_statistics() {
        let scan = Scan {
            records: vec![
                record("2001:db8:0:1::1", Some(eui_source())),
                record("2001:db8:0:2::1", None),
                record("2001:db8:0:3::1", Some("2001:db8::beef".parse().unwrap())),
                record("2001:db8:0:4::1", Some(eui_source())),
            ],
            started_at: SimTime::at(1, 0),
            finished_at: SimTime::at(1, 1),
        };
        assert_eq!(scan.probes_sent(), 4);
        assert_eq!(scan.responses(), 3);
        assert_eq!(scan.eui64_responses(), 2);
        assert_eq!(scan.eui64_pairs().count(), 2);
        // The same device answered twice, so only one distinct IID.
        let distinct: std::collections::HashSet<_> =
            scan.eui64_pairs().map(|(.., eui)| eui).collect();
        assert_eq!(distinct.len(), 1);
    }
}
