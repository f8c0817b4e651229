//! Ready-made simulated worlds mirroring the paper's evaluation.
//!
//! Every experiment (table or figure) draws its world from one of these
//! builders so that the parameters feeding each reproduction are recorded in
//! one place. The full Internet-wide campaign world ([`paper_world`]) is a
//! scaled-down version of the population the paper measured: the *relative*
//! structure (which ASes dominate, the allocation-size mix, per-AS vendor
//! homogeneity, rotation-pool sizes versus BGP prefix sizes) is preserved
//! while absolute counts shrink by a configurable divisor so experiments run
//! in seconds instead of weeks.

use scent_ipv6::{Ipv6Prefix, MacAddr};

use crate::config::{
    PlantedCpe, ProviderConfig, RotationPolicy, RotationPoolConfig, SlotLayout, WorldConfig,
};
use crate::det::{hash1, hash2, uniform};
use crate::engine::Engine;
use crate::population::CpeId;
use crate::time::SimTime;

/// Vendor indices into [`scent_oui::ALL_VENDORS`] used by the scenarios.
pub mod vendor {
    /// AVM (Fritz!Box) — dominant German CPE vendor, ~2M devices in the paper.
    pub const AVM: usize = 0;
    /// ZTE — dominant at Viettel and common across Asia.
    pub const ZTE: usize = 1;
    /// Huawei.
    pub(crate) const HUAWEI: usize = 2;
    /// Sagemcom.
    pub(crate) const SAGEMCOM: usize = 3;
    /// Arris.
    pub(crate) const ARRIS: usize = 4;
    /// Technicolor.
    pub(crate) const TECHNICOLOR: usize = 5;
    /// Lancom.
    pub const LANCOM: usize = 6;
    /// Zyxel.
    pub(crate) const ZYXEL: usize = 7;
    /// Nokia.
    pub(crate) const NOKIA: usize = 8;
    /// FiberHome.
    pub(crate) const FIBERHOME: usize = 9;
    /// TP-Link.
    pub(crate) const TPLINK: usize = 10;
    /// MitraStar.
    pub(crate) const MITRASTAR: usize = 11;
    /// Intelbras (common in Brazil).
    pub(crate) const INTELBRAS: usize = 12;
    /// D-Link.
    pub(crate) const DLINK: usize = 13;
}

fn p(s: &str) -> Ipv6Prefix {
    s.parse().expect("static prefix literal")
}

/// The Entel (Bolivia) style provider of Figure 3a: a /48 split into /56
/// customer delegations, mostly occupied, with some silent bands.
pub fn entel_like(seed: u64) -> WorldConfig {
    let provider = ProviderConfig::new(
        6568u32,
        "Entel Bolivia",
        "BO",
        vec![p("2803:9810::/32")],
        vec![RotationPoolConfig {
            prefix: p("2803:9810:100::/48"),
            allocation_len: 56,
            occupancy: 0.85,
            layout: SlotLayout::Spread,
            rotation: RotationPolicy::Static,
        }],
    )
    .with_vendor_mix(vec![(vendor::HUAWEI, 0.7), (vendor::ZTE, 0.3)])
    .with_response_rate(0.92);
    let mut world = WorldConfig::new(vec![provider], seed);
    world.churn_fraction = 0.0;
    world
}

/// The BH Telecom (Bosnia) style provider of Figure 3b: /60 delegations.
pub fn bhtelecom_like(seed: u64) -> WorldConfig {
    let provider = ProviderConfig::new(
        9146u32,
        "BH Telecom",
        "BA",
        vec![p("2a02:27b0::/32")],
        vec![RotationPoolConfig {
            prefix: p("2a02:27b0:200::/48"),
            allocation_len: 60,
            occupancy: 0.7,
            layout: SlotLayout::Spread,
            rotation: RotationPolicy::PeriodicRandom {
                period_days: 7,
                hour: 2,
                jitter_hours: 4,
            },
        }],
    )
    .with_vendor_mix(vec![(vendor::ZYXEL, 0.6), (vendor::SAGEMCOM, 0.4)])
    .with_response_rate(0.9)
    .with_loss(0.01);
    let mut world = WorldConfig::new(vec![provider], seed);
    world.churn_fraction = 0.0;
    world
}

/// The Starcat (Japan) style provider of Figure 3c: /64 delegations with a
/// large unallocated region.
pub fn starcat_like(seed: u64) -> WorldConfig {
    let provider = ProviderConfig::new(
        4713u32,
        "Starcat Cable Network",
        "JP",
        vec![p("2400:d800::/32")],
        vec![
            // The lower three quarters of the /48 are moderately occupied...
            RotationPoolConfig {
                prefix: p("2400:d800:300::/50"),
                allocation_len: 64,
                occupancy: 0.55,
                layout: SlotLayout::Spread,
                rotation: RotationPolicy::Static,
            },
            RotationPoolConfig {
                prefix: p("2400:d800:300:4000::/50"),
                allocation_len: 64,
                occupancy: 0.5,
                layout: SlotLayout::Spread,
                rotation: RotationPolicy::Static,
            },
            RotationPoolConfig {
                prefix: p("2400:d800:300:8000::/50"),
                allocation_len: 64,
                occupancy: 0.45,
                layout: SlotLayout::Spread,
                rotation: RotationPolicy::Static,
            },
            // ...while the upper quarter is essentially unallocated.
            RotationPoolConfig {
                prefix: p("2400:d800:300:c000::/50"),
                allocation_len: 64,
                occupancy: 0.01,
                layout: SlotLayout::Spread,
                rotation: RotationPolicy::Static,
            },
        ],
    )
    .with_vendor_mix(vec![(vendor::NOKIA, 0.5), (vendor::MITRASTAR, 0.5)])
    .with_response_rate(0.95);
    let mut world = WorldConfig::new(vec![provider], seed);
    world.churn_fraction = 0.0;
    world
}

/// The Versatel / AS8881 style provider of Figures 6, 9 and 10: /46 rotation
/// pools rotated daily in the early-morning hours, with one pool delegating
/// /64s and another delegating /56s (Figure 6 shows both plans inside one
/// provider).
pub fn versatel_like(seed: u64) -> WorldConfig {
    let mut world = WorldConfig::new(vec![versatel_provider(2, 2)], seed);
    world.churn_fraction = 0.0;
    world
}

/// Build the AS8881 provider with the given number of /64-allocation and
/// /56-allocation /46 pools (each pool covers four /48s).
fn versatel_provider(pools_64: usize, pools_56: usize) -> ProviderConfig {
    let mut pools = Vec::new();
    // /64-allocation pools: 2001:16b8:100::/46, 2001:16b8:104::/46, ...
    for i in 0..pools_64 {
        let bits = p("2001:16b8:100::/46").network_bits() + ((i as u128) << 82);
        pools.push(RotationPoolConfig {
            prefix: Ipv6Prefix::from_bits(bits, 46).expect("valid pool prefix"),
            allocation_len: 64,
            occupancy: 0.07,
            layout: SlotLayout::Contiguous,
            rotation: RotationPolicy::DailyIncrement {
                // ~6k /64s per day: an IID crosses a /48 boundary roughly
                // every ten days and wraps the /46 in about six weeks, the
                // cadence visible in Figure 9.
                step_slots: 6_000,
                period_days: 1,
                hour: 0,
                jitter_hours: 6,
            },
        });
    }
    // /56-allocation pools: 2001:16b8:1d00::/46, 2001:16b8:1d04::/46, ...
    for i in 0..pools_56 {
        let bits = p("2001:16b8:1d00::/46").network_bits() + ((i as u128) << 82);
        pools.push(RotationPoolConfig {
            prefix: Ipv6Prefix::from_bits(bits, 46).expect("valid pool prefix"),
            allocation_len: 56,
            occupancy: 0.35,
            layout: SlotLayout::Contiguous,
            rotation: RotationPolicy::DailyIncrement {
                step_slots: 96,
                period_days: 1,
                hour: 0,
                jitter_hours: 6,
            },
        });
    }
    ProviderConfig::new(8881u32, "Versatel", "DE", vec![p("2001:16b8::/32")], pools)
        .with_vendor_mix(vec![
            (vendor::AVM, 0.93),
            (vendor::LANCOM, 0.04),
            (vendor::ZYXEL, 0.03),
        ])
        .with_eui64_fraction(0.85)
        .with_response_rate(0.93)
}

/// The Deutsche Telekom / AS3320 style provider (the second German ISP of
/// Figure 12).
fn telekom_provider(pools_56: usize) -> ProviderConfig {
    let mut pools = Vec::new();
    for i in 0..pools_56 {
        let bits = p("2003:e2:e000::/46").network_bits() + ((i as u128) << 82);
        pools.push(RotationPoolConfig {
            prefix: Ipv6Prefix::from_bits(bits, 46).expect("valid pool prefix"),
            allocation_len: 56,
            occupancy: 0.3,
            layout: SlotLayout::Contiguous,
            rotation: RotationPolicy::DailyIncrement {
                step_slots: 48,
                period_days: 1,
                hour: 2,
                jitter_hours: 4,
            },
        });
    }
    ProviderConfig::new(
        3320u32,
        "Deutsche Telekom",
        "DE",
        vec![p("2003:e2::/32")],
        pools,
    )
    .with_vendor_mix(vec![
        (vendor::AVM, 0.6),
        (vendor::SAGEMCOM, 0.25),
        (vendor::ZYXEL, 0.15),
    ])
    .with_eui64_fraction(0.75)
    .with_response_rate(0.92)
}

/// The MAC-reuse pathology world of Figure 11: the same EUI-64 IID appears
/// daily in ASes on several continents, plus the all-zero MAC appearing in
/// many ASes. Returns the world and the reused MAC address.
pub fn pathology_mac_reuse(seed: u64) -> (WorldConfig, MacAddr) {
    let reused = MacAddr::new([0x28, 0xff, 0x3e, 0x12, 0x34, 0x56]); // a ZTE OUI
    let specs: [(u32, &str, &str, &str); 7] = [
        (6057u32, "Antel Uruguay", "UY", "2800:a0::/32"),
        (7552, "Viettel Group", "VN", "2402:800::/31"),
        (9146, "BH Telecom", "BA", "2a02:27b0::/32"),
        (28573, "Claro Brasil", "BR", "2804:14c::/31"),
        (4134, "Chinanet", "CN", "240e:100::/32"),
        (12389, "Rostelecom", "RU", "2a01:540::/32"),
        (3215, "Orange France", "FR", "2a01:c00::/26"),
    ];
    let mut providers = Vec::new();
    for (i, (asn, name, country, announced)) in specs.iter().enumerate() {
        let announced = p(announced);
        let pool_prefix = announced
            .nth_subnet(48, 3)
            .expect("announcement has at least four /48s");
        let mut provider = ProviderConfig::new(
            *asn,
            name,
            country,
            vec![announced],
            vec![RotationPoolConfig {
                prefix: pool_prefix,
                allocation_len: 56,
                occupancy: 0.3,
                layout: SlotLayout::Spread,
                rotation: if i % 2 == 0 {
                    RotationPolicy::DailyIncrement {
                        step_slots: 16,
                        period_days: 1,
                        hour: 1,
                        jitter_hours: 3,
                    }
                } else {
                    RotationPolicy::Static
                },
            }],
        )
        .with_vendor_mix(vec![(vendor::ZTE, 0.6), (vendor::HUAWEI, 0.4)]);
        // Plant the reused MAC in every AS, and the all-zero MAC in most.
        provider = provider.with_planted(PlantedCpe::always(0, reused, 7 + i as u64));
        if i != 0 {
            provider = provider.with_planted(PlantedCpe::always(0, MacAddr::ZERO, 9 + i as u64));
        }
        providers.push(provider);
    }
    let mut world = WorldConfig::new(providers, seed);
    world.churn_fraction = 0.0;
    (world, reused)
}

/// The provider-switch pathology world of Figure 12: one device moves from
/// AS8881 to AS3320 in early August (day `switch_day_a`), another moves the
/// opposite way later (day `switch_day_b`). Returns the world and the two
/// device MACs `(a_to_b, b_to_a)`.
pub fn pathology_provider_switch(
    seed: u64,
    switch_day_a: u64,
    switch_day_b: u64,
) -> (WorldConfig, [MacAddr; 2]) {
    let mac_a = MacAddr::new([0xc8, 0x0e, 0x14, 0xaa, 0x00, 0x01]); // AVM
    let mac_b = MacAddr::new([0xc8, 0x0e, 0x14, 0xbb, 0x00, 0x02]); // AVM
    let versatel = versatel_provider(0, 1)
        // Device A: in AS8881 until `switch_day_a`, then moves to AS3320.
        .with_planted(PlantedCpe {
            pool_idx: 0,
            mac: mac_a,
            initial_slot: 400,
            join_day: 0,
            leave_day: switch_day_a,
            eui64: true,
        })
        // Device B: joins AS8881 at `switch_day_b` after leaving AS3320.
        .with_planted(PlantedCpe {
            pool_idx: 0,
            mac: mac_b,
            initial_slot: 420,
            join_day: switch_day_b,
            leave_day: u64::MAX,
            eui64: true,
        });
    let telekom = telekom_provider(1)
        .with_planted(PlantedCpe {
            pool_idx: 0,
            mac: mac_a,
            initial_slot: 500,
            join_day: switch_day_a,
            leave_day: u64::MAX,
            eui64: true,
        })
        .with_planted(PlantedCpe {
            pool_idx: 0,
            mac: mac_b,
            initial_slot: 520,
            join_day: 0,
            leave_day: switch_day_b,
            eui64: true,
        });
    let mut world = WorldConfig::new(vec![versatel, telekom], seed);
    world.churn_fraction = 0.0;
    (world, [mac_a, mac_b])
}

/// One AS of the scaled Internet-wide campaign world.
#[derive(Debug, Clone)]
struct AsSpec {
    asn: u32,
    name: String,
    country: &'static str,
    announced: Ipv6Prefix,
    /// Number of /48s of rotating (or at least EUI-64-bearing) space, already
    /// scaled.
    n_48s: u64,
    allocation_len: u8,
    rotating: bool,
    dominant_vendor: usize,
    homogeneity: f64,
    eui64_fraction: f64,
}

/// Scale parameters for [`paper_world`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldScale {
    /// Divisor applied to the paper's per-AS /48 counts.
    pub divisor: u64,
    /// Cap on /48s per AS after scaling (bounds memory for the biggest ASes).
    pub(crate) max_48s_per_as: u64,
    /// Number of "other" (long-tail) ASes to include.
    pub(crate) other_ases: usize,
}

impl WorldScale {
    /// The scale used by the experiment binaries: 1/16 of the paper's /48
    /// counts, 96 long-tail ASes. The cap is high enough that the Table 1
    /// head ASes keep their relative ordering.
    pub fn experiment() -> Self {
        WorldScale {
            divisor: 16,
            max_48s_per_as: 512,
            other_ases: 96,
        }
    }

    /// A small scale suitable for unit/integration tests and benches. The
    /// head-AS ordering of Table 1 is still preserved (the cap exceeds the
    /// largest scaled head count).
    pub fn small() -> Self {
        WorldScale {
            divisor: 256,
            max_48s_per_as: 24,
            other_ases: 24,
        }
    }
}

/// Countries used for the long-tail ASes (25 countries total appear in the
/// paper's campaign).
const TAIL_COUNTRIES: &[&str] = &[
    "BR", "CN", "BO", "VN", "AR", "UY", "RU", "FR", "IT", "ES", "PL", "NL", "AT", "CH", "SE", "NO",
    "FI", "JP", "KR", "TW", "MX", "CO", "CL", "PT", "GB",
];

/// Dominant vendors by country (drives the per-AS homogeneity fingerprints
/// of §5.1: AVM dominates German ASes, ZTE dominates Viettel, …).
fn dominant_vendor_for(country: &str, h: u64) -> usize {
    match country {
        "DE" | "AT" | "CH" => vendor::AVM,
        "VN" | "CN" => {
            if h % 2 == 0 {
                vendor::ZTE
            } else {
                vendor::HUAWEI
            }
        }
        "BR" | "AR" | "UY" | "CO" | "CL" | "MX" => {
            if h % 2 == 0 {
                vendor::INTELBRAS
            } else {
                vendor::ARRIS
            }
        }
        "FR" | "ES" | "IT" | "PT" => vendor::SAGEMCOM,
        "JP" | "KR" | "TW" => vendor::NOKIA,
        "GR" | "BA" | "RS" => vendor::ZTE,
        _ => match h % 5 {
            0 => vendor::TECHNICOLOR,
            1 => vendor::ZYXEL,
            2 => vendor::TPLINK,
            3 => vendor::DLINK,
            _ => vendor::FIBERHOME,
        },
    }
}

/// Announced-prefix length mix (Table 2 lists /32, /33, /37, /40 and /48
/// encompassing prefixes; /32 dominates).
fn announced_len_for(h: u64) -> u8 {
    match h % 10 {
        0 => 29,
        1 => 33,
        2 => 36,
        3 => 40,
        _ => 32,
    }
}

/// Build the scaled Internet-wide campaign world: the Table 1 head ASes plus
/// a long tail, with allocation sizes, rotation behaviour, vendor mixes and
/// EUI-64 fractions drawn to match the distributions reported in §5.
pub fn paper_world(seed: u64, scale: WorldScale) -> WorldConfig {
    let mut specs: Vec<AsSpec> = Vec::new();

    // Table 1 head: (asn, name, country, /48 count in the paper).
    let head: [(u32, &str, &str, u64, u8, usize); 5] = [
        (8881, "Versatel", "DE", 5_149, 56, vendor::AVM),
        (6799, "OTE", "GR", 3_386, 56, vendor::ZTE),
        (1241, "Forthnet", "GR", 635, 60, vendor::ZTE),
        (
            9808,
            "China Mobile Guangdong",
            "CN",
            608,
            64,
            vendor::HUAWEI,
        ),
        (3320, "Deutsche Telekom", "DE", 530, 56, vendor::AVM),
    ];
    let head_prefixes = [
        "2001:16b8::/32",
        "2a02:587::/32",
        "2a02:2148::/32",
        "2409:8a55::/32",
        "2003:e2::/32",
    ];
    for (i, (asn, name, country, count, alloc, dom)) in head.iter().enumerate() {
        let n_48s = (count / scale.divisor).clamp(4, scale.max_48s_per_as);
        specs.push(AsSpec {
            asn: *asn,
            name: name.to_string(),
            country,
            announced: p(head_prefixes[i]),
            n_48s,
            allocation_len: *alloc,
            rotating: true,
            dominant_vendor: *dom,
            homogeneity: 0.93,
            eui64_fraction: 0.8,
        });
    }

    // Long tail: `other_ases` ASes across the remaining countries, with the
    // allocation-size and rotation mixes of Figures 5b and 7 and the
    // homogeneity distribution of Figure 4.
    for i in 0..scale.other_ases {
        let h = hash2(seed, 0x7461_696c, i as u64);
        let asn = 60_000 + i as u32 * 7 + (h % 5) as u32;
        let country = if i < 4 {
            "DE" // a few more German ASes contribute to the DE country total
        } else {
            TAIL_COUNTRIES[i % TAIL_COUNTRIES.len()]
        };
        let allocation_len = match h % 4 {
            0 | 1 => 56,
            2 => 60,
            _ => 64,
        };
        let rotating = h % 2 == 0;
        let homogeneity = match (h >> 8) % 4 {
            0 | 1 => 0.9 + ((h >> 16) % 100) as f64 / 1_000.0, // 0.90..1.00
            2 => 0.67 + ((h >> 16) % 230) as f64 / 1_000.0,    // 0.67..0.90
            _ => 0.36 + ((h >> 16) % 310) as f64 / 1_000.0,    // 0.36..0.67
        };
        let announced_len = announced_len_for(h >> 24);
        // Carve a unique announcement for each tail AS: byte 0 is 0x26 and
        // bytes 1–2 carry the tail index, so announcements stay distinct for
        // any announced length of /24 or longer.
        let bits = (0x26u128 << 120) | ((i as u128) << 104);
        let announced = Ipv6Prefix::from_bits(bits, announced_len).expect("valid length");
        let n_48s = (1 + (h >> 32) % 3).min(scale.max_48s_per_as);
        specs.push(AsSpec {
            asn,
            name: format!("Tail ISP {i}"),
            country,
            announced,
            n_48s,
            allocation_len,
            rotating,
            dominant_vendor: dominant_vendor_for(country, h >> 40),
            homogeneity,
            eui64_fraction: 0.55 + ((h >> 48) % 40) as f64 / 100.0,
        });
    }

    let providers = specs
        .iter()
        .map(|spec| provider_from_spec(seed, spec))
        .collect();
    let mut world = WorldConfig::new(providers, seed);
    world.churn_fraction = 0.03;
    world
}

/// Convert an [`AsSpec`] into a concrete [`ProviderConfig`].
fn provider_from_spec(seed: u64, spec: &AsSpec) -> ProviderConfig {
    let h = hash2(seed, 0x7370_6563, spec.asn as u64);
    let mut pools = Vec::new();

    // Group the AS's /48s into /46 pools when rotating (4 /48s per pool),
    // or use standalone /48 pools when static.
    let pool_len: u8 = if spec.rotating && spec.n_48s >= 4 {
        46
    } else {
        48
    };
    let n_pools = if pool_len == 46 {
        (spec.n_48s / 4).max(1)
    } else {
        spec.n_48s.max(1)
    };
    let occupancy = match spec.allocation_len {
        64 => 0.03 + (h % 4) as f64 / 100.0,
        60 => 0.15 + (h % 10) as f64 / 100.0,
        _ => 0.25 + (h % 15) as f64 / 100.0,
    };
    for i in 0..n_pools {
        // Lay pools out from the 16th /48 of the announcement onward so core
        // infrastructure space (subnet 0) stays CPE-free.
        let base_48_index = 16 + i * if pool_len == 46 { 4 } else { 1 };
        let total_48s = spec
            .announced
            .num_subnets(48)
            .expect("announcement no longer than /48");
        if (base_48_index as u128 + 4) >= total_48s {
            break;
        }
        let pool_prefix = spec
            .announced
            .nth_subnet(48, base_48_index as u128)
            .expect("index checked against total")
            .supernet(pool_len.min(48))
            .expect("pool not shorter than announcement")
            // supernet(48) of a /48 is itself; supernet(46) rounds down to
            // the containing /46, which is what we want for pool alignment.
            ;
        let rotation = if spec.rotating {
            if h % 3 == 0 {
                RotationPolicy::PeriodicRandom {
                    period_days: 1 + (h % 3),
                    hour: (h % 5) as u8,
                    jitter_hours: 4,
                }
            } else {
                RotationPolicy::DailyIncrement {
                    step_slots: if spec.allocation_len == 64 { 3_000 } else { 32 },
                    period_days: 1,
                    hour: (h % 4) as u8,
                    jitter_hours: 5,
                }
            }
        } else {
            RotationPolicy::Static
        };
        pools.push(RotationPoolConfig {
            prefix: pool_prefix,
            allocation_len: spec.allocation_len,
            occupancy,
            layout: if spec.rotating {
                SlotLayout::Contiguous
            } else {
                SlotLayout::Spread
            },
            rotation,
        });
    }
    // Deduplicate pool prefixes (supernet rounding can collide for /46s).
    pools.sort_by_key(|c| c.prefix);
    pools.dedup_by_key(|c| c.prefix);

    // Vendor mix: one dominant vendor at the spec's homogeneity, remainder
    // split across three others.
    let minor = (1.0 - spec.homogeneity).max(0.0);
    let others = [
        (spec.dominant_vendor + 3) % scent_oui::ALL_VENDORS.len(),
        (spec.dominant_vendor + 7) % scent_oui::ALL_VENDORS.len(),
        (spec.dominant_vendor + 11) % scent_oui::ALL_VENDORS.len(),
    ];
    let vendor_mix = vec![
        (spec.dominant_vendor, spec.homogeneity),
        (others[0], minor * 0.6),
        (others[1], minor * 0.3),
        (others[2], minor * 0.1),
    ];

    ProviderConfig::new(
        spec.asn,
        &spec.name,
        spec.country,
        vec![spec.announced],
        pools,
    )
    .with_vendor_mix(vendor_mix)
    .with_eui64_fraction(spec.eui64_fraction)
    .with_response_rate(0.88 + (uniform(h, 10) as f64) / 100.0)
    .with_loss(0.002 + (uniform(hash1(h, 1), 8) as f64) / 1_000.0)
}

/// A long-horizon world for the continuous monitoring engine
/// (`scent-stream`): three providers with contrasting rotation behaviour —
/// a daily incrementer (Versatel-style /56 pool), a weekly random reassigner
/// (BH-Telecom-style /60 pool) and a static control — plus a small amount of
/// customer churn, so a monitor running for weeks of virtual time sees daily
/// events, occasional bulk reshuffles, devices appearing and disappearing,
/// and one provider that must stay quiet.
pub fn continuous_world(seed: u64) -> WorldConfig {
    let daily = ProviderConfig::new(
        8881u32,
        "Versatel",
        "DE",
        vec![p("2001:16b8::/32")],
        vec![RotationPoolConfig {
            prefix: p("2001:16b8:1d00::/46"),
            allocation_len: 56,
            occupancy: 0.35,
            layout: SlotLayout::Contiguous,
            rotation: RotationPolicy::DailyIncrement {
                step_slots: 96,
                period_days: 1,
                hour: 0,
                jitter_hours: 6,
            },
        }],
    )
    .with_vendor_mix(vec![(vendor::AVM, 0.93), (vendor::LANCOM, 0.07)])
    .with_eui64_fraction(0.85)
    .with_response_rate(0.93);

    let weekly = ProviderConfig::new(
        9146u32,
        "BH Telecom",
        "BA",
        vec![p("2a02:27b0::/32")],
        vec![RotationPoolConfig {
            prefix: p("2a02:27b0:200::/48"),
            allocation_len: 60,
            occupancy: 0.5,
            layout: SlotLayout::Spread,
            rotation: RotationPolicy::PeriodicRandom {
                period_days: 7,
                hour: 2,
                jitter_hours: 4,
            },
        }],
    )
    .with_vendor_mix(vec![(vendor::ZYXEL, 0.6), (vendor::SAGEMCOM, 0.4)])
    .with_response_rate(0.9);

    let control = ProviderConfig::new(
        6568u32,
        "Entel Bolivia",
        "BO",
        vec![p("2803:9810::/32")],
        vec![RotationPoolConfig {
            prefix: p("2803:9810:100::/48"),
            allocation_len: 56,
            occupancy: 0.7,
            layout: SlotLayout::Spread,
            rotation: RotationPolicy::Static,
        }],
    )
    .with_vendor_mix(vec![(vendor::HUAWEI, 0.7), (vendor::ZTE, 0.3)])
    .with_response_rate(0.92);

    let mut world = WorldConfig::new(vec![daily, weekly, control], seed);
    world.churn_fraction = 0.02;
    world
}

/// A world whose *dense space migrates between /48s mid-run* — the workload
/// the live watch-list churn of the continuous monitor exists for.
///
/// One provider delegates /56s out of a /44 pool (4096 slots, sixteen /48s
/// of 256 slots each) laid out contiguously at exactly 1/16 occupancy, so
/// the occupied band fills exactly one /48 at a time. The pool rotates by
/// [`RotationPolicy::DailyIncrement`] with `step_slots: 256`: every day the
/// whole band marches exactly one /48 forward (wrapping the /44 every
/// sixteen days), so the /48 that was dense yesterday is silent today and a
/// sibling /48 is dense instead. Every device is responsive and
/// EUI-64-bearing, so the migration is fully deterministic — a single
/// expansion probe into the dense /48 always validates it. A static control
/// provider keeps one /48 dense for the whole run, so a revising watch list
/// has something to hold on to while it chases the migrating band.
pub fn churn_world(seed: u64) -> WorldConfig {
    let migrating = ProviderConfig::new(
        8881u32,
        "Versatel",
        "DE",
        vec![p("2001:16b8::/32")],
        vec![RotationPoolConfig {
            prefix: p("2001:16b8:1d00::/44"),
            allocation_len: 56,
            occupancy: 0.0625, // 256 of 4096 slots: exactly one /48's worth
            layout: SlotLayout::Contiguous,
            rotation: RotationPolicy::DailyIncrement {
                step_slots: 256, // exactly one /48 of /56 slots per day
                period_days: 1,
                hour: 0,
                jitter_hours: 2,
            },
        }],
    )
    .with_vendor_mix(vec![(vendor::AVM, 0.93), (vendor::LANCOM, 0.07)]);

    let control = ProviderConfig::new(
        6568u32,
        "Entel Bolivia",
        "BO",
        vec![p("2803:9810::/32")],
        vec![RotationPoolConfig {
            prefix: p("2803:9810:100::/48"),
            allocation_len: 56,
            occupancy: 0.7,
            layout: SlotLayout::Spread,
            rotation: RotationPolicy::Static,
        }],
    )
    .with_vendor_mix(vec![(vendor::HUAWEI, 0.7), (vendor::ZTE, 0.3)])
    .with_response_rate(0.92);

    let mut world = WorldConfig::new(vec![migrating, control], seed);
    world.churn_fraction = 0.0;
    world
}

/// The /48 the [`churn_world`] migrating pool's band occupies at virtual
/// time `t` — the prefix a watch list must hold at `t` to see the band.
///
/// Shared by the churn tests, the determinism harness and the
/// `rotation_monitor` example so they all read the band's position the same
/// way. Panics if the engine's first pool is not a [`churn_world`]-style
/// migrating band (the occupied delegations must fill exactly one /48).
pub fn churn_world_dense_48(engine: &Engine, t: SimTime) -> Ipv6Prefix {
    let mut seen = std::collections::BTreeSet::new();
    for index in 0..engine.pools()[0].len() as u32 {
        if let Some(delegation) = engine.current_delegation(CpeId { pool: 0, index }, t) {
            seen.insert(
                delegation
                    .supernet(48)
                    .expect("delegations are /48 or longer"),
            );
        }
    }
    assert_eq!(seen.len(), 1, "the churn world's band fills one /48");
    *seen.iter().next().expect("asserted non-empty")
}

/// The tracking case-study world of §6: around a dozen providers in distinct
/// countries, most of them rotating, from which ten target devices are drawn.
pub fn tracking_world(seed: u64) -> WorldConfig {
    let mut scale = WorldScale::small();
    scale.other_ases = 12;
    let mut world = paper_world(seed, scale);
    world.churn_fraction = 0.0;
    world
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::time::SimTime;
    use scent_bgp::Asn;

    /// The provider owning global pool `pool`.
    fn provider_of(engine: &Engine, pool: u32) -> &ProviderConfig {
        &engine.config().providers[engine.pools()[pool as usize].provider_idx]
    }

    #[test]
    fn single_provider_scenarios_validate_and_build() {
        for world in [
            entel_like(1),
            bhtelecom_like(2),
            starcat_like(3),
            versatel_like(4),
        ] {
            world.validate().expect("scenario must validate");
            let engine = Engine::build(world).expect("scenario must build");
            assert!(engine.total_cpes() > 0);
        }
    }

    #[test]
    fn entel_uses_56_starcat_uses_64() {
        let entel = entel_like(1);
        assert!(entel.providers[0]
            .pools
            .iter()
            .all(|p| p.allocation_len == 56));
        let starcat = starcat_like(1);
        assert!(starcat.providers[0]
            .pools
            .iter()
            .all(|p| p.allocation_len == 64));
        let bh = bhtelecom_like(1);
        assert!(bh.providers[0].pools.iter().all(|p| p.allocation_len == 60));
    }

    #[test]
    fn versatel_has_both_plans_and_rotates() {
        let world = versatel_like(9);
        let lens: std::collections::HashSet<u8> = world.providers[0]
            .pools
            .iter()
            .map(|p| p.allocation_len)
            .collect();
        assert!(lens.contains(&56) && lens.contains(&64));
        assert!(world.providers[0]
            .pools
            .iter()
            .all(|p| p.rotation.rotates()));
    }

    #[test]
    fn mac_reuse_world_has_reused_mac_in_every_as() {
        let (world, mac) = pathology_mac_reuse(5);
        world.validate().unwrap();
        let engine = Engine::build(world).unwrap();
        let hits = engine.find_by_mac(mac);
        assert_eq!(hits.len(), 7);
        let zero_hits = engine.find_by_mac(MacAddr::ZERO);
        assert_eq!(zero_hits.len(), 6);
        // The reused device is visible in multiple countries at once.
        let t = SimTime::at(3, 12);
        let mut countries = std::collections::HashSet::new();
        for id in hits {
            if engine.current_wan_address(id, t).is_some() {
                let provider = provider_of(&engine, id.pool);
                countries.insert(provider.country);
            }
        }
        assert!(countries.len() >= 5);
    }

    #[test]
    fn provider_switch_world_moves_devices() {
        let (world, [mac_a, mac_b]) = pathology_provider_switch(6, 10, 30);
        world.validate().unwrap();
        let engine = Engine::build(world).unwrap();
        let a = engine.find_by_mac(mac_a);
        assert_eq!(a.len(), 2);
        // Before the switch, exactly one copy of device A is online (AS8881);
        // after, exactly the other one (AS3320).
        let online = |day: u64, ids: &[crate::population::CpeId]| {
            ids.iter()
                .filter_map(|&id| engine.current_wan_address(id, SimTime::at(day, 12)))
                .count()
        };
        assert_eq!(online(5, &a), 1);
        assert_eq!(online(35, &a), 1);
        let asn_on = |day: u64, ids: &[crate::population::CpeId]| {
            ids.iter()
                .find(|&&id| {
                    engine
                        .current_wan_address(id, SimTime::at(day, 12))
                        .is_some()
                })
                .map(|&id| provider_of(&engine, id.pool).asn)
                .unwrap()
        };
        assert_eq!(asn_on(5, &a), Asn(8881));
        assert_eq!(asn_on(35, &a), Asn(3320));
        let b = engine.find_by_mac(mac_b);
        assert_eq!(asn_on(5, &b), Asn(3320));
        assert_eq!(asn_on(35, &b), Asn(8881));
    }

    #[test]
    fn paper_world_small_scale_builds() {
        let world = paper_world(42, WorldScale::small());
        world.validate().expect("paper world must validate");
        let engine = Engine::build(world).expect("paper world must build");
        // Head ASes plus the long tail.
        assert!(engine.config().providers.len() >= 25);
        assert!(engine.total_cpes() > 1_000);
        assert!(engine.total_eui64_cpes() > 500);
        // Versatel is present with its real prefix.
        assert_eq!(
            engine.rib().origin("2001:16b8:1234::1".parse().unwrap()),
            Some(Asn(8881))
        );
    }

    #[test]
    fn paper_world_has_allocation_size_diversity() {
        let world = paper_world(42, WorldScale::small());
        let mut lens = std::collections::HashSet::new();
        for provider in &world.providers {
            for pool in &provider.pools {
                lens.insert(pool.allocation_len);
            }
        }
        assert!(lens.contains(&56));
        assert!(lens.contains(&60));
        assert!(lens.contains(&64));
    }

    #[test]
    fn paper_world_has_rotating_and_static_ases() {
        let world = paper_world(42, WorldScale::small());
        let rotating = world
            .providers
            .iter()
            .filter(|p| p.pools.iter().any(|pool| pool.rotation.rotates()))
            .count();
        let static_ases = world.providers.len() - rotating;
        assert!(rotating >= 5, "rotating={rotating}");
        assert!(static_ases >= 5, "static={static_ases}");
    }

    #[test]
    fn paper_world_countries_are_plural() {
        let world = paper_world(42, WorldScale::experiment());
        let countries: std::collections::HashSet<_> =
            world.providers.iter().map(|p| p.country).collect();
        assert!(countries.len() >= 20, "countries={}", countries.len());
    }

    #[test]
    fn paper_world_is_deterministic() {
        let a = paper_world(42, WorldScale::small());
        let b = paper_world(42, WorldScale::small());
        assert_eq!(a, b);
        let c = paper_world(43, WorldScale::small());
        assert_ne!(a, c);
    }

    #[test]
    fn continuous_world_mixes_rotation_behaviours() {
        let world = continuous_world(11);
        world.validate().expect("continuous world must validate");
        let engine = Engine::build(world).expect("continuous world must build");
        assert_eq!(engine.config().providers.len(), 3);
        let rotating: Vec<bool> = engine
            .config()
            .providers
            .iter()
            .map(|p| p.pools.iter().any(|pool| pool.rotation.rotates()))
            .collect();
        assert_eq!(rotating, vec![true, true, false]);
        assert!(engine.total_eui64_cpes() > 0);
        // The daily rotator really moves a device between days deep into the
        // horizon (day 100), the static control does not.
        let moved = engine.current_delegation(
            crate::population::CpeId { pool: 0, index: 0 },
            SimTime::at(100, 12),
        ) != engine.current_delegation(
            crate::population::CpeId { pool: 0, index: 0 },
            SimTime::at(101, 12),
        );
        assert!(moved);
        let static_pool = 2u32;
        let held = engine.current_delegation(
            crate::population::CpeId {
                pool: static_pool,
                index: 0,
            },
            SimTime::at(100, 12),
        ) == engine.current_delegation(
            crate::population::CpeId {
                pool: static_pool,
                index: 0,
            },
            SimTime::at(101, 12),
        );
        assert!(held);
    }

    #[test]
    fn churn_world_marches_the_dense_48_daily() {
        let world = churn_world(11);
        world.validate().expect("churn world must validate");
        let engine = Engine::build(world).expect("churn world must build");
        // The migrating pool's devices all sit in one /48 on any given day
        // (churn_world_dense_48 asserts exactly that), and in a *different*
        // /48 the next day.
        let pool = engine.pools()[0].config.prefix;
        let today = churn_world_dense_48(&engine, SimTime::at(10, 12));
        let tomorrow = churn_world_dense_48(&engine, SimTime::at(11, 12));
        assert_ne!(today, tomorrow, "the dense /48 must migrate daily");
        assert!(pool.contains_prefix(&today));
        assert!(pool.contains_prefix(&tomorrow));
        // The band wraps the /44 after sixteen days.
        assert_eq!(today, churn_world_dense_48(&engine, SimTime::at(26, 12)));
        // The control provider never moves.
        let control = CpeId { pool: 1, index: 0 };
        assert_eq!(
            engine.current_delegation(control, SimTime::at(10, 12)),
            engine.current_delegation(control, SimTime::at(11, 12)),
        );
    }

    #[test]
    fn tracking_world_builds() {
        let world = tracking_world(7);
        world.validate().unwrap();
        let engine = Engine::build(world).unwrap();
        assert!(engine.config().providers.len() >= 10);
    }
}
