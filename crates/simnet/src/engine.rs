//! The probe/traceroute responder: the simulated Internet's data plane.
//!
//! [`Engine::probe`] answers the question the paper's scanner asks of the
//! real Internet: *if I send an ICMPv6 Echo Request to this target address at
//! this time, what comes back?* The answer depends on which provider the
//! target routes to, which rotation pool and allocation slot it falls in,
//! whether a CPE currently holds that allocation, and the CPE's addressing
//! mode, responsiveness and vendor-specific error behaviour.
//!
//! All answers are pure functions of the world seed, target and time — apart
//! from the optional ICMPv6 rate limiter, which carries a small amount of
//! interior-mutable state behind a [`parking_lot::Mutex`].

use std::collections::HashMap;
use std::net::Ipv6Addr;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use scent_bgp::{AsRegistry, Asn, PrefixTable, Rib};
use scent_ipv6::{addr_from_u128, addr_to_u128, Eui64, Ipv6Prefix};

use crate::config::{ProviderConfig, RotationPolicy, WorldConfig};
use crate::det::{coin, hash2, hash3, mod_inverse_pow2};
use crate::error::WorldError;
use crate::pool_index::PoolIndex;
use crate::population::{CpeId, CpeRecord, PoolPopulation};
use crate::time::SimTime;

/// Provider-core router hops between the vantage point and a CPE, the same
/// in every provider (the traceroute model).
const CORE_HOPS: u8 = 3;

/// The kind of response a probe elicited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReplyKind {
    /// An Echo Reply: the target address itself answered.
    EchoReply,
    /// An ICMPv6 Destination Unreachable error with the given code.
    DestinationUnreachable(DestUnreachableCode),
    /// An ICMPv6 Time Exceeded (hop limit exceeded) error.
    TimeExceeded,
}

/// Destination Unreachable codes (RFC 4443 §3.1): the error codes the paper
/// reports eliciting from CPE devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DestUnreachableCode {
    /// Code 0 — no route to destination.
    NoRoute,
    /// Code 1 — communication administratively prohibited.
    AdminProhibited,
    /// Code 2 — beyond scope of source address.
    BeyondScope,
    /// Code 3 — address unreachable.
    AddressUnreachable,
    /// Code 4 — port unreachable.
    PortUnreachable,
    /// Code 5 — source address failed ingress/egress policy.
    FailedPolicy,
    /// Code 6 — reject route to destination.
    RejectRoute,
}

impl DestUnreachableCode {
    /// The ICMPv6 code value.
    pub fn value(self) -> u8 {
        match self {
            DestUnreachableCode::NoRoute => 0,
            DestUnreachableCode::AdminProhibited => 1,
            DestUnreachableCode::BeyondScope => 2,
            DestUnreachableCode::AddressUnreachable => 3,
            DestUnreachableCode::PortUnreachable => 4,
            DestUnreachableCode::FailedPolicy => 5,
            DestUnreachableCode::RejectRoute => 6,
        }
    }

    /// The code with ICMPv6 code value `v`, or `None` for a value RFC 4443
    /// does not define.
    pub fn from_value(v: u8) -> Option<Self> {
        Some(match v {
            0 => DestUnreachableCode::NoRoute,
            1 => DestUnreachableCode::AdminProhibited,
            2 => DestUnreachableCode::BeyondScope,
            3 => DestUnreachableCode::AddressUnreachable,
            4 => DestUnreachableCode::PortUnreachable,
            5 => DestUnreachableCode::FailedPolicy,
            6 => DestUnreachableCode::RejectRoute,
            _ => return None,
        })
    }
}

/// A response to a single probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeReply {
    /// Source address of the response. For CPE-originated errors this is the
    /// CPE WAN address — the observable the whole methodology is built on.
    pub source: Ipv6Addr,
    /// The kind of ICMPv6 message received.
    pub kind: ReplyKind,
    /// Origin AS of the responder (ground truth; also recoverable from the
    /// RIB, which is what the measurement code does).
    pub asn: Asn,
    /// Ground-truth identity of the responding CPE. Measurement code must
    /// not use this; it exists so experiments can score their inferences.
    pub cpe: CpeId,
}

/// One hop of a traceroute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceHop {
    /// The hop distance (TTL / hop limit used).
    pub ttl: u8,
    /// The responding address, or `None` for a silent hop.
    pub addr: Option<Ipv6Addr>,
}

/// The simulated Internet.
#[derive(Debug)]
pub struct Engine {
    config: WorldConfig,
    rib: Rib,
    as_registry: AsRegistry,
    /// Target → global pool index, one lookup keyed by the target's /48.
    pool_index: PoolIndex,
    pools: Vec<PoolPopulation>,
    /// The RIB's own entries with each origin AS resolved to its provider
    /// index (`validate` rejects a repeated ASN): how a traceroute finds
    /// its provider in one longest-prefix match.
    provider_table: PrefixTable<usize>,
    vantage: Ipv6Addr,
    rate_state: Mutex<HashMap<(u32, u32), (u64, u32)>>,
}

impl Engine {
    /// Build the world described by `config`. Fails with the first
    /// configuration problem encountered.
    pub fn build(config: WorldConfig) -> Result<Self, WorldError> {
        config.validate()?;

        let mut rib = Rib::new();
        let mut as_registry = AsRegistry::new();
        let mut pools = Vec::new();

        for (provider_idx, provider) in config.providers.iter().enumerate() {
            for announced in &provider.announced {
                rib.announce(*announced, provider.asn);
            }
            as_registry.register(
                provider.asn.value(),
                &provider.name,
                provider.country.as_str(),
            );
            for (pool_idx, pool_cfg) in provider.pools.iter().enumerate() {
                let population =
                    PoolPopulation::build(&config, provider_idx, provider, pool_idx, pool_cfg);
                pools.push(population);
            }
        }
        let prefixes: Vec<Ipv6Prefix> = pools.iter().map(|pool| pool.config.prefix).collect();
        let pool_index = PoolIndex::new(&prefixes)
            .map_err(|prefix| WorldError::DuplicatePoolPrefix { prefix })?;
        let provider_of_asn: HashMap<Asn, usize> = (config.providers.iter().enumerate())
            .map(|(idx, provider)| (provider.asn, idx))
            .collect();
        let provider_table = (rib.entries().into_iter())
            .map(|entry| (entry.prefix, provider_of_asn[&entry.origin]))
            .collect();

        Ok(Engine {
            config,
            rib,
            as_registry,
            pool_index,
            pools,
            provider_table,
            vantage: "2a01:7e00:ffff::1".parse().expect("static vantage address"),
            rate_state: Mutex::new(HashMap::new()),
        })
    }

    /// The world configuration this engine was built from.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// The BGP RIB announcing every provider prefix.
    pub fn rib(&self) -> &Rib {
        &self.rib
    }

    /// Metadata (name, country) for every simulated AS.
    pub fn as_registry(&self) -> &AsRegistry {
        &self.as_registry
    }

    /// The measurement vantage point's source address.
    pub fn vantage(&self) -> Ipv6Addr {
        self.vantage
    }

    /// All pool populations, in global pool index order.
    pub fn pools(&self) -> &[PoolPopulation] {
        &self.pools
    }

    /// Total number of CPE devices in the world.
    pub fn total_cpes(&self) -> usize {
        self.pools.iter().map(|p| p.len()).sum()
    }

    /// Total number of CPE devices using EUI-64 WAN addressing.
    pub fn total_eui64_cpes(&self) -> usize {
        self.pools
            .iter()
            .map(|p| p.cpes.iter().filter(|c| c.eui64).count())
            .sum()
    }

    /// Look up a CPE by its ground-truth identity.
    pub fn cpe(&self, id: CpeId) -> Option<(&PoolPopulation, &CpeRecord)> {
        let pool = self.pools.get(id.pool as usize)?;
        let cpe = pool.cpes.get(id.index as usize)?;
        Some((pool, cpe))
    }

    /// Ground truth: every CPE whose MAC matches `mac`.
    pub fn find_by_mac(&self, mac: scent_ipv6::MacAddr) -> Vec<CpeId> {
        let mut out = Vec::new();
        for (pool_idx, pool) in self.pools.iter().enumerate() {
            for (cpe_idx, cpe) in pool.cpes.iter().enumerate() {
                if cpe.mac == mac {
                    out.push(CpeId {
                        pool: pool_idx as u32,
                        index: cpe_idx as u32,
                    });
                }
            }
        }
        out
    }

    /// Ground truth: the prefix currently delegated to a CPE, or `None` if
    /// the device is offline at `t`.
    pub fn current_delegation(&self, id: CpeId, t: SimTime) -> Option<Ipv6Prefix> {
        let (pool, _, slot, _) = self.current_slot(id, t)?;
        Ipv6Prefix::from_bits(pool.delegation_bits(slot), pool.config.allocation_len).ok()
    }

    /// Ground truth: the CPE's WAN address at `t`, or `None` if offline.
    pub fn current_wan_address(&self, id: CpeId, t: SimTime) -> Option<Ipv6Addr> {
        let (pool, cpe, slot, rotations) = self.current_slot(id, t)?;
        Some(wan_address(pool, cpe, slot, rotations))
    }

    /// The CPE with its pool, the slot it holds at `t` and the rotations it
    /// has seen by then, or `None` if it is offline.
    fn current_slot(
        &self,
        id: CpeId,
        t: SimTime,
    ) -> Option<(&PoolPopulation, &CpeRecord, u64, u64)> {
        let (pool, cpe) = self.cpe(id)?;
        if !cpe.active_on(t.day()) {
            return None;
        }
        let rotations = rotations_at(pool.schedule(), cpe.jitter_secs as u64, t.as_secs());
        let slot = slot_at(
            &pool.config.rotation,
            pool.pool_seed,
            cpe.initial_slot,
            pool.slot_mask(),
            rotations,
        );
        Some((pool, cpe, slot, rotations))
    }

    /// Send one probe: an ICMPv6 Echo Request to `target` at time `t`.
    ///
    /// Returns the elicited response, or `None` when the probe is lost,
    /// filtered, rate-limited, or falls on address space with no responsive
    /// CPE — exactly the silent outcomes an Internet scanner observes.
    pub fn probe(&self, target: Ipv6Addr, t: SimTime) -> Option<ProbeReply> {
        let (pool_gidx, pop) = self.pool_of(target)?;
        // The pool index answers only with a pool containing the target.
        debug_assert!(pop.config.prefix.contains(target));
        let target_bits = addr_to_u128(target);
        let slot = pop.slot_of(target_bits);
        let mask = pop.slot_mask();
        let policy = &pop.config.rotation;

        // Candidate rotation counts: devices that have already rotated in
        // this period versus devices still waiting out their jitter — both,
        // and the hit's own count, from one quotient.
        let phase = rotation_phase(pop.schedule(), t.as_secs());
        let max_jitter = phase.map_or(0, |(_, _, max_jitter)| max_jitter);
        let (r_lo, r_hi) = (rotations_in(phase, max_jitter), rotations_in(phase, 0));
        let day = t.day();

        let mut hit: Option<(usize, &CpeRecord, u64)> = None;
        for r in candidate_rotations(r_lo, r_hi) {
            let initial = inverse_slot(policy, pop.pool_seed, slot, mask, r);
            if let Some((idx, cpe)) = pop.by_initial_slot(initial) {
                let jitter = cpe.jitter_secs as u64;
                let r_cpe = rotations_in(phase, jitter);
                debug_assert_eq!(r_cpe, rotations_at(pop.schedule(), jitter, t.as_secs()));
                // At the count that was inverted the device holds `slot` by
                // construction; only another count needs the forward map.
                let holds = r_cpe == r
                    || slot_at(policy, pop.pool_seed, cpe.initial_slot, mask, r_cpe) == slot;
                if holds && cpe.active_on(day) {
                    hit = Some((idx, cpe, r_cpe));
                    break;
                }
            }
        }
        let (cpe_idx, cpe, r_cpe) = hit?;

        if !cpe.responsive {
            return None;
        }
        // Independent per-probe loss.
        if coin(
            hash3(
                self.config.seed,
                target_bits as u64,
                (target_bits >> 64) as u64 ^ t.as_secs(),
                0x6c6f_7373, // "loss"
            ),
            pop.loss(),
        ) {
            return None;
        }
        if !self.rate_limit_allows(pool_gidx as u32, cpe_idx as u32, t) {
            return None;
        }

        let source = wan_address(pop, cpe, slot, r_cpe);
        let kind = if source == target {
            ReplyKind::EchoReply
        } else {
            vendor_error_kind(cpe.vendor_idx)
        };
        Some(ProbeReply {
            source,
            kind,
            asn: pop.asn(),
            cpe: CpeId {
                pool: pool_gidx as u32,
                index: cpe_idx as u32,
            },
        })
    }

    /// Run a hop-limited traceroute toward `target`, returning one entry per
    /// TTL up to and including the last responsive hop (or `max_hops`).
    ///
    /// Core provider hops respond with statically addressed router
    /// interfaces; if a CPE holds the target's allocation, it appears as the
    /// final hop with its WAN address — the periphery observable of the
    /// paper's seed (CAIDA traceroute) data.
    pub fn trace(&self, target: Ipv6Addr, t: SimTime, max_hops: u8) -> Vec<TraceHop> {
        let Some(provider) = self.provider_of(target) else {
            return Vec::new();
        };
        let core_hops = CORE_HOPS.min(max_hops);
        let mut hops = Vec::with_capacity(usize::from(core_hops) + 1);
        hops.extend((1..=core_hops).map(|ttl| TraceHop {
            ttl,
            addr: self.core_hop(provider, target, t, ttl),
        }));
        if core_hops < max_hops {
            if let Some(reply) = self.probe(target, t) {
                hops.push(TraceHop {
                    ttl: core_hops + 1,
                    addr: Some(reply.source),
                });
            }
        }
        hops
    }

    /// The last responsive hop of [`Engine::trace`]`(target, t, max_hops)`
    /// — what the seed campaign keeps of a traceroute — without building
    /// the hop list: the CPE if it answers, else the highest core hop that
    /// was not lost. Sends the same one probe `trace` sends.
    pub fn last_hop(&self, target: Ipv6Addr, t: SimTime, max_hops: u8) -> Option<Ipv6Addr> {
        let provider = self.provider_of(target)?;
        let core_hops = CORE_HOPS.min(max_hops);
        if core_hops < max_hops {
            if let Some(reply) = self.probe(target, t) {
                return Some(reply.source);
            }
        }
        (1..=core_hops)
            .rev()
            .find_map(|ttl| self.core_hop(provider, target, t, ttl))
    }

    /// The provider whose announcement routes `target`.
    fn provider_of(&self, target: Ipv6Addr) -> Option<&ProviderConfig> {
        let (_, &idx) = self.provider_table.longest_match(target)?;
        Some(&self.config.providers[idx])
    }

    /// The router answering hop `ttl` of a traceroute toward `target`
    /// inside `provider`'s core, or `None` if that hop's reply was lost.
    fn core_hop(
        &self,
        provider: &ProviderConfig,
        target: Ipv6Addr,
        t: SimTime,
        ttl: u8,
    ) -> Option<Ipv6Addr> {
        let lost = coin(
            hash3(
                self.config.seed,
                addr_to_u128(target) as u64,
                ttl as u64 ^ t.as_secs(),
                0x7472_6163, // "trac"
            ),
            provider.loss,
        );
        (!lost).then(|| core_router_address(provider, ttl))
    }

    fn pool_of(&self, target: Ipv6Addr) -> Option<(usize, &PoolPopulation)> {
        let idx = self.pool_index.get(target)?;
        Some((idx, &self.pools[idx]))
    }

    /// Token-bucket-like ICMPv6 error rate limiting: at most N responses per
    /// CPE per second when enabled.
    fn rate_limit_allows(&self, pool: u32, cpe: u32, t: SimTime) -> bool {
        let Some(limit) = self.config.icmp_rate_limit_per_sec else {
            return true;
        };
        let mut state = self.rate_state.lock();
        let entry = state.entry((pool, cpe)).or_insert((t.as_secs(), 0));
        if entry.0 != t.as_secs() {
            *entry = (t.as_secs(), 0);
        }
        if entry.1 >= limit {
            false
        } else {
            entry.1 += 1;
            true
        }
    }
}

/// The number of rotation events a device with the given jitter has
/// experienced by `t_secs`, on a pool's schedule
/// ([`PoolPopulation::schedule`]).
fn rotations_at(schedule: Option<(u64, u64, u64)>, jitter_secs: u64, t_secs: u64) -> u64 {
    let Some((period, hour, _)) = schedule else {
        return 0;
    };
    match t_secs.checked_sub(hour + jitter_secs) {
        None => 0,
        Some(since) => since / period + 1,
    }
}

/// Where `t_secs` falls in a pool's rotation schedule
/// ([`PoolPopulation::schedule`]): `(whole periods since the first
/// rotation hour, seconds into the current period, the pool's jitter
/// bound)`, or `None` before that hour and for a static pool, when every
/// device has seen no rotation.
fn rotation_phase(schedule: Option<(u64, u64, u64)>, t_secs: u64) -> Option<(u64, u64, u64)> {
    let (period, hour, max_jitter) = schedule?;
    let since = t_secs.checked_sub(hour)?;
    Some((since / period, since % period, max_jitter))
}

/// The rotation count of a device delayed `jitter_secs` at `phase`: the
/// whole periods, plus the current one once its delay has passed. Equal to
/// [`rotations_at`] for any delay up to one period, which validation holds
/// every pool's jitter bound to.
fn rotations_in(phase: Option<(u64, u64, u64)>, jitter_secs: u64) -> u64 {
    phase.map_or(0, |(periods, into_period, _)| {
        periods + u64::from(jitter_secs <= into_period)
    })
}

/// The (at most two) candidate rotation counts to try when inverting an
/// observed slot back to an initial slot.
fn candidate_rotations(lo: u64, hi: u64) -> impl Iterator<Item = u64> {
    let second = if lo != hi { Some(lo) } else { None };
    std::iter::once(hi).chain(second)
}

/// The slot a device occupies after `rotations` rotation events, in a pool
/// of `mask + 1` slots.
fn slot_at(
    policy: &RotationPolicy,
    pool_seed: u64,
    initial_slot: u64,
    mask: u64,
    rotations: u64,
) -> u64 {
    match policy {
        RotationPolicy::Static => initial_slot,
        RotationPolicy::DailyIncrement { step_slots, .. } => {
            initial_slot.wrapping_add(rotations.wrapping_mul(*step_slots)) & mask
        }
        RotationPolicy::PeriodicRandom { .. } => {
            if rotations == 0 {
                initial_slot
            } else {
                let (m, c) = random_round_params(pool_seed, rotations);
                initial_slot.wrapping_mul(m).wrapping_add(c) & mask
            }
        }
    }
}

/// Invert [`slot_at`]: the initial slot of the device holding `slot` after
/// `rotations` rotation events.
fn inverse_slot(
    policy: &RotationPolicy,
    pool_seed: u64,
    slot: u64,
    mask: u64,
    rotations: u64,
) -> u64 {
    match policy {
        RotationPolicy::Static => slot,
        RotationPolicy::DailyIncrement { step_slots, .. } => {
            slot.wrapping_sub(rotations.wrapping_mul(*step_slots)) & mask
        }
        RotationPolicy::PeriodicRandom { .. } => {
            if rotations == 0 {
                slot
            } else {
                let (m, c) = random_round_params(pool_seed, rotations);
                slot.wrapping_sub(c).wrapping_mul(mod_inverse_pow2(m)) & mask
            }
        }
    }
}

/// Parameters of the affine permutation used by [`RotationPolicy::PeriodicRandom`]
/// for a given rotation round.
fn random_round_params(pool_seed: u64, rotations: u64) -> (u64, u64) {
    let m = hash2(pool_seed, 0x726f_7461, rotations) | 1;
    let c = hash2(pool_seed, 0x726f_7462, rotations);
    (m, c)
}

/// The CPE's WAN address for a given slot and rotation round.
fn wan_address(pool: &PoolPopulation, cpe: &CpeRecord, slot: u64, rotations: u64) -> Ipv6Addr {
    // The WAN/periphery interface sits in the first /64 of the delegation.
    let wan64 = pool.delegation_bits(slot) >> 64 << 64;
    let iid = if cpe.eui64 {
        Eui64::from_mac(cpe.mac).as_u64()
    } else {
        privacy_iid(pool.pool_seed, cpe, rotations)
    };
    addr_from_u128(wan64 | u128::from(iid))
}

/// An RFC 4941-style pseudo-random IID, regenerated at every rotation. The
/// `ff:fe` EUI-64 marker is avoided so classification stays unambiguous.
fn privacy_iid(pool_seed: u64, cpe: &CpeRecord, rotations: u64) -> u64 {
    let mut iid = hash3(pool_seed, cpe.mac.to_u64(), rotations, 0x7072_6976); // "priv"
    if Eui64::is_eui64_iid(iid) {
        iid ^= 1 << 24;
    }
    iid
}

/// The error message a CPE from a given vendor emits for undeliverable
/// probes. Vendors differ in firmware behaviour (§3.1 of the paper lists the
/// distinct type/code combinations observed); the mapping here is arbitrary
/// but fixed.
fn vendor_error_kind(vendor_idx: u16) -> ReplyKind {
    match vendor_idx % 5 {
        0 => ReplyKind::DestinationUnreachable(DestUnreachableCode::AdminProhibited),
        1 => ReplyKind::DestinationUnreachable(DestUnreachableCode::AddressUnreachable),
        2 => ReplyKind::DestinationUnreachable(DestUnreachableCode::NoRoute),
        3 => ReplyKind::TimeExceeded,
        _ => ReplyKind::DestinationUnreachable(DestUnreachableCode::AddressUnreachable),
    }
}

/// A statically addressed provider-core router interface for hop `ttl`.
fn core_router_address(provider: &ProviderConfig, ttl: u8) -> Ipv6Addr {
    let base = provider.announced[0];
    // Infrastructure addresses live in the first /64 of the announcement with
    // small, manually-assigned IIDs — never EUI-64.
    let infra64 = Ipv6Prefix::from_bits(base.network_bits(), 64).expect("64 is valid");
    infra64.addr_with_host_bits(0xffff_0000_0000_0000u64 as u128 | ttl as u128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PlantedCpe, RotationPoolConfig, SlotLayout, WorldConfig};
    use crate::time::SimDuration;
    use proptest::prelude::*;
    use scent_ipv6::MacAddr;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    /// A small two-provider world: one rotating daily (/46 pool, /56
    /// allocations), one static (/48 pool, /64 allocations).
    fn small_world() -> WorldConfig {
        let rotating = ProviderConfig::new(
            8881u32,
            "Versatel",
            "DE",
            vec![p("2001:16b8::/32")],
            vec![RotationPoolConfig {
                prefix: p("2001:16b8:100::/46"),
                allocation_len: 56,
                occupancy: 0.4,
                layout: SlotLayout::Contiguous,
                rotation: RotationPolicy::DailyIncrement {
                    step_slots: 64,
                    period_days: 1,
                    hour: 3,
                    jitter_hours: 3,
                },
            }],
        )
        .with_vendor_mix(vec![(0, 0.95), (6, 0.05)]);

        let static_provider = ProviderConfig::new(
            4713u32,
            "Starcat",
            "JP",
            vec![p("2400:d800::/32")],
            vec![RotationPoolConfig {
                prefix: p("2400:d800:1::/48"),
                allocation_len: 64,
                occupancy: 0.3,
                layout: SlotLayout::Spread,
                rotation: RotationPolicy::Static,
            }],
        )
        .with_vendor_mix(vec![(2, 1.0)]);

        let mut world = WorldConfig::new(vec![rotating, static_provider], 7);
        world.churn_fraction = 0.0;
        world
    }

    fn engine() -> Engine {
        Engine::build(small_world()).unwrap()
    }

    /// A target address inside the delegation currently held by the given
    /// CPE, with a random-looking IID that is not the CPE's own address.
    fn target_inside(engine: &Engine, id: CpeId, t: SimTime) -> Ipv6Addr {
        let delegation = engine.current_delegation(id, t).unwrap();
        delegation.addr_with_host_bits(0x1234_5678_9abc_def0u128)
    }

    #[test]
    fn build_populates_world() {
        let engine = engine();
        assert_eq!(engine.pools().len(), 2);
        assert!(engine.total_cpes() > 100);
        assert!(engine.total_eui64_cpes() > 0);
        assert_eq!(engine.rib().len(), 2);
        assert_eq!(engine.as_registry().len(), 2);
        assert_eq!(engine.as_registry().name(Asn(8881)), Some("Versatel"));
    }

    #[test]
    fn build_rejects_duplicate_pools() {
        let mut world = small_world();
        let pool = world.providers[0].pools[0].clone();
        world.providers[0].pools.push(pool);
        assert!(Engine::build(world).is_err());
    }

    #[test]
    fn probe_inside_active_delegation_returns_cpe_wan_address() {
        let engine = engine();
        let t = SimTime::at(10, 12);
        let id = CpeId { pool: 0, index: 3 };
        let target = target_inside(&engine, id, t);
        let reply = engine.probe(target, t).expect("CPE should respond");
        assert_eq!(reply.asn, Asn(8881));
        assert_eq!(reply.cpe, id);
        assert_ne!(reply.kind, ReplyKind::EchoReply);
        assert_eq!(reply.source, engine.current_wan_address(id, t).unwrap());
        // The response source embeds the CPE's EUI-64 IID.
        let (_, cpe) = engine.cpe(id).unwrap();
        if cpe.eui64 {
            assert_eq!(
                Eui64::from_addr(reply.source),
                Some(Eui64::from_mac(cpe.mac))
            );
        }
    }

    #[test]
    fn probe_outside_any_pool_is_silent() {
        let engine = engine();
        let t = SimTime::at(5, 12);
        // Inside the announced /32 but outside the configured pool.
        assert!(engine
            .probe("2001:16b8:4000::1".parse().unwrap(), t)
            .is_none());
        // Outside any announced prefix.
        assert!(engine.probe("2a02:1234::1".parse().unwrap(), t).is_none());
    }

    #[test]
    fn probe_unoccupied_slot_is_silent() {
        let engine = engine();
        // Before the first rotation event (03:00 on day 0) the contiguous
        // layout occupies exactly slots 0..len, so any higher slot is free.
        let t = SimTime::at(0, 1);
        let pool = &engine.pools()[0];
        let n = pool.config.num_slots();
        let occupied = pool.len() as u64;
        let far_slot = (occupied + (n - occupied) / 2).min(n - 1);
        assert!(far_slot >= occupied);
        let delegation = pool
            .config
            .prefix
            .nth_subnet(pool.config.allocation_len, far_slot as u128)
            .unwrap();
        let target = delegation.addr_with_host_bits(0xdead_beefu128);
        assert!(engine.probe(target, t).is_none());
    }

    #[test]
    fn rotation_moves_delegation_daily() {
        let engine = engine();
        let id = CpeId { pool: 0, index: 0 };
        let d1 = engine.current_delegation(id, SimTime::at(10, 12)).unwrap();
        let d2 = engine.current_delegation(id, SimTime::at(11, 12)).unwrap();
        let d3 = engine.current_delegation(id, SimTime::at(12, 12)).unwrap();
        assert_ne!(d1, d2);
        assert_ne!(d2, d3);
        // The delegation stays inside the rotation pool.
        let pool_prefix = engine.pools()[0].config.prefix;
        assert!(pool_prefix.contains_prefix(&d1));
        assert!(pool_prefix.contains_prefix(&d2));
        assert!(pool_prefix.contains_prefix(&d3));
        // Daily increment with step 64 slots: consecutive days differ by 64
        // allocation slots (as long as no wrap occurred).
        let idx1 = pool_prefix.subnet_index(&d1).unwrap();
        let idx2 = pool_prefix.subnet_index(&d2).unwrap();
        let n = engine.pools()[0].config.num_slots() as u128;
        assert_eq!((idx2 + n - idx1) % n, 64);
    }

    #[test]
    fn static_provider_never_rotates() {
        let engine = engine();
        let pool_idx = 1u32;
        let id = CpeId {
            pool: pool_idx,
            index: 5,
        };
        let d1 = engine.current_delegation(id, SimTime::at(0, 12)).unwrap();
        let d2 = engine.current_delegation(id, SimTime::at(40, 12)).unwrap();
        assert_eq!(d1, d2);
    }

    #[test]
    fn eui64_iid_is_stable_across_rotation_privacy_iid_is_not() {
        let engine = engine();
        // Find one EUI-64 and one privacy CPE in the rotating pool.
        let pool = &engine.pools()[0];
        let eui_idx = pool.cpes.iter().position(|c| c.eui64);
        let t1 = SimTime::at(10, 12);
        let t2 = SimTime::at(11, 12);
        if let Some(idx) = eui_idx {
            let id = CpeId {
                pool: 0,
                index: idx as u32,
            };
            let a1 = engine.current_wan_address(id, t1).unwrap();
            let a2 = engine.current_wan_address(id, t2).unwrap();
            assert_ne!(a1, a2, "prefix must rotate");
            assert_eq!(
                scent_ipv6::interface_id(a1),
                scent_ipv6::interface_id(a2),
                "EUI-64 IID must be stable"
            );
        }
        // Build a fully-privacy world to test the other branch.
        let mut world = small_world();
        world.providers[0].eui64_fraction = 0.0;
        let engine = Engine::build(world).unwrap();
        let id = CpeId { pool: 0, index: 0 };
        let a1 = engine.current_wan_address(id, t1).unwrap();
        let a2 = engine.current_wan_address(id, t2).unwrap();
        assert_ne!(
            scent_ipv6::interface_id(a1),
            scent_ipv6::interface_id(a2),
            "privacy IID must change with the prefix"
        );
        assert!(!Eui64::addr_is_eui64(a1));
        assert!(!Eui64::addr_is_eui64(a2));
    }

    #[test]
    fn probing_by_target_matches_ground_truth_across_days() {
        // The key property the measurement methodology relies on: probing an
        // address inside whatever prefix the CPE currently holds elicits a
        // response from that CPE's current WAN address.
        let engine = engine();
        let id = CpeId { pool: 0, index: 7 };
        for day in [0u64, 1, 5, 20, 43] {
            for hour in [1u64, 4, 13, 23] {
                let t = SimTime::at(day, hour);
                let target = target_inside(&engine, id, t);
                let reply = engine.probe(target, t).expect("active CPE responds");
                assert_eq!(reply.cpe, id, "day {day} hour {hour}");
                assert_eq!(
                    reply.source,
                    engine.current_wan_address(id, t).unwrap(),
                    "day {day} hour {hour}"
                );
            }
        }
    }

    #[test]
    fn loss_one_silences_everything() {
        let mut world = small_world();
        world.providers[0].loss = 1.0;
        let engine = Engine::build(world).unwrap();
        let t = SimTime::at(3, 12);
        let id = CpeId { pool: 0, index: 0 };
        let target = target_inside(&engine, id, t);
        assert!(engine.probe(target, t).is_none());
    }

    #[test]
    fn unresponsive_devices_are_silent() {
        let mut world = small_world();
        world.providers[0].response_rate = 0.0;
        let engine = Engine::build(world).unwrap();
        let t = SimTime::at(3, 12);
        let id = CpeId { pool: 0, index: 0 };
        let target = target_inside(&engine, id, t);
        assert!(engine.probe(target, t).is_none());
    }

    #[test]
    fn churned_devices_disappear() {
        let mac = MacAddr::new([0xc8, 0x0e, 0x14, 1, 2, 3]);
        let mut world = small_world();
        world.providers[0].planted.push(PlantedCpe {
            pool_idx: 0,
            mac,
            initial_slot: 900,
            join_day: 0,
            leave_day: 10,
            eui64: true,
        });
        let engine = Engine::build(world).unwrap();
        let id = engine.find_by_mac(mac)[0];
        assert!(engine.current_wan_address(id, SimTime::at(5, 12)).is_some());
        assert!(engine
            .current_wan_address(id, SimTime::at(15, 12))
            .is_none());
        let t = SimTime::at(5, 12);
        let target = target_inside(&engine, id, t);
        assert!(engine.probe(target, t).is_some());
        // After leaving, probing the slot the device held on day 5 is silent:
        // the device is gone and (on day 11) no other customer has rotated
        // into that slot yet.
        let t_after = SimTime::at(11, 12);
        assert!(engine.probe(target, t_after).is_none());
    }

    #[test]
    fn rate_limit_caps_responses_within_one_second() {
        let mut world = small_world();
        world.icmp_rate_limit_per_sec = Some(3);
        let engine = Engine::build(world).unwrap();
        let t = SimTime::at(2, 12);
        let id = CpeId { pool: 0, index: 1 };
        let delegation = engine.current_delegation(id, t).unwrap();
        let mut answered = 0;
        for i in 0..10u128 {
            let target = delegation.addr_with_host_bits(0xaaaa_0000u128 + i);
            if engine.probe(target, t).is_some() {
                answered += 1;
            }
        }
        assert_eq!(answered, 3);
        // A second later the budget resets.
        let t2 = t + SimDuration::from_secs(1);
        let target = delegation.addr_with_host_bits(0xbbbbu128);
        assert!(engine.probe(target, t2).is_some());
    }

    #[test]
    fn vendor_mix_produces_distinct_error_kinds() {
        let engine = engine();
        let t = SimTime::at(1, 12);
        let mut kinds = std::collections::HashSet::new();
        for index in 0..engine.pools()[0].len() as u32 {
            let id = CpeId { pool: 0, index };
            let target = target_inside(&engine, id, t);
            if let Some(reply) = engine.probe(target, t) {
                kinds.insert(reply.kind);
            }
        }
        // 95% AVM (AdminProhibited) and 5% Lancom-ish (different code) —
        // at least one kind, usually two.
        assert!(!kinds.is_empty());
        assert!(!kinds.contains(&ReplyKind::EchoReply));
    }

    #[test]
    fn trace_ends_at_cpe() {
        let engine = engine();
        let t = SimTime::at(1, 12);
        let id = CpeId { pool: 0, index: 2 };
        let target = target_inside(&engine, id, t);
        let hops = engine.trace(target, t, 32);
        assert_eq!(hops.len(), usize::from(CORE_HOPS) + 1);
        let last = hops.last().unwrap().addr.unwrap();
        assert_eq!(last, engine.current_wan_address(id, t).unwrap());
        // Core hops are statically addressed, never EUI-64.
        for hop in &hops[..hops.len() - 1] {
            if let Some(addr) = hop.addr {
                assert!(!Eui64::addr_is_eui64(addr));
            }
        }
    }

    #[test]
    fn trace_to_unallocated_space_stops_at_core() {
        let engine = engine();
        let t = SimTime::at(1, 12);
        let hops = engine.trace("2001:16b8:4000::1".parse().unwrap(), t, 32);
        assert_eq!(hops.len(), usize::from(CORE_HOPS));
        assert!(hops.iter().all(|h| h.addr.is_some()));
        // Unrouted space yields nothing at all.
        assert!(engine.trace("3fff::1".parse().unwrap(), t, 32).is_empty());
    }

    #[test]
    fn determinism_across_engine_builds() {
        let a = Engine::build(small_world()).unwrap();
        let b = Engine::build(small_world()).unwrap();
        let t = SimTime::at(9, 15);
        for index in 0..20u32 {
            let id = CpeId { pool: 0, index };
            assert_eq!(a.current_wan_address(id, t), b.current_wan_address(id, t));
        }
        let id = CpeId { pool: 0, index: 3 };
        let target = target_inside(&a, id, t);
        assert_eq!(a.probe(target, t), b.probe(target, t));
    }

    #[test]
    fn slot_inversion_round_trips() {
        let seeds = [1u64, 42, 0xdead_beef];
        let policies = [
            RotationPolicy::Static,
            RotationPolicy::DailyIncrement {
                step_slots: 17,
                period_days: 1,
                hour: 3,
                jitter_hours: 3,
            },
            RotationPolicy::PeriodicRandom {
                period_days: 7,
                hour: 0,
                jitter_hours: 0,
            },
        ];
        for &seed in &seeds {
            for policy in &policies {
                for n_slots in [256u64, 1 << 18] {
                    let mask = n_slots - 1;
                    for rotations in [0u64, 1, 5, 365] {
                        for slot in [0u64, 1, 100, n_slots - 1] {
                            let forward = slot_at(policy, seed, slot, mask, rotations);
                            let back = inverse_slot(policy, seed, forward, mask, rotations);
                            assert_eq!(back, slot, "policy={policy:?} rot={rotations}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rotation_counting() {
        let policy = RotationPolicy::DailyIncrement {
            step_slots: 1,
            period_days: 1,
            hour: 3,
            jitter_hours: 3,
        };
        // Before 03:00 on day 0: no rotations yet.
        assert_eq!(
            rotations_at(policy.schedule_secs(), 0, SimTime::at(0, 2).as_secs()),
            0
        );
        // After 03:00 on day 0: one rotation.
        assert_eq!(
            rotations_at(policy.schedule_secs(), 0, SimTime::at(0, 4).as_secs()),
            1
        );
        // Device with 2h jitter rotates at 05:00.
        assert_eq!(
            rotations_at(
                policy.schedule_secs(),
                2 * 3600,
                SimTime::at(0, 4).as_secs()
            ),
            0
        );
        assert_eq!(
            rotations_at(
                policy.schedule_secs(),
                2 * 3600,
                SimTime::at(0, 6).as_secs()
            ),
            1
        );
        // Ten days later, 11 rotation events have occurred (day 0..10).
        assert_eq!(
            rotations_at(policy.schedule_secs(), 0, SimTime::at(10, 4).as_secs()),
            11
        );
        // The probe's bounds — the counts at the jitter bound and at no
        // jitter — bracket the jitter window.
        let bounds = |t: SimTime| {
            let phase = rotation_phase(policy.schedule_secs(), t.as_secs());
            (rotations_in(phase, 3 * 3600), rotations_in(phase, 0))
        };
        assert_eq!(bounds(SimTime::at(0, 4)), (0, 1));
        assert_eq!(bounds(SimTime::at(0, 12)), (1, 1));
        assert_eq!(candidate_rotations(1, 1).collect::<Vec<_>>(), vec![1]);
        assert_eq!(candidate_rotations(0, 1).collect::<Vec<_>>(), vec![1, 0]);
    }

    #[test]
    fn one_quotient_counts_equal_rotations_at() {
        for period_days in [1u64, 7] {
            let period = period_days * 86_400;
            let policies = [
                RotationPolicy::DailyIncrement {
                    step_slots: 5,
                    period_days,
                    hour: 3,
                    jitter_hours: (24 * period_days) as u8,
                },
                RotationPolicy::PeriodicRandom {
                    period_days,
                    hour: 0,
                    jitter_hours: (24 * period_days) as u8,
                },
            ];
            for policy in &policies {
                let (_, hour, _) = policy.schedule_secs().unwrap();
                for jitter in [0, period / 2, period - 1, period] {
                    for periods in [0u64, 1, 9] {
                        let rotation = hour + periods * period;
                        let instants = [
                            hour.saturating_sub(1),
                            hour,
                            rotation + jitter.saturating_sub(1),
                            rotation + jitter,
                            rotation + jitter + 1,
                        ];
                        for t in instants {
                            let phase = rotation_phase(policy.schedule_secs(), t);
                            assert_eq!(
                                rotations_in(phase, jitter),
                                rotations_at(policy.schedule_secs(), jitter, t),
                                "{policy:?} jitter {jitter} t {t}"
                            );
                        }
                    }
                }
            }
        }
        // A static pool never rotates.
        assert_eq!(
            rotation_phase(RotationPolicy::Static.schedule_secs(), 1 << 40),
            None
        );
    }

    /// A provider of pools longer than /48, so their /48 is a split key
    /// of the pool index: two /50s and a /49 of one /48, each rotating
    /// its own way.
    fn split_world() -> WorldConfig {
        let pool = |prefix: &str, allocation_len, rotation| RotationPoolConfig {
            prefix: p(prefix),
            allocation_len,
            occupancy: 0.6,
            layout: SlotLayout::Spread,
            rotation,
        };
        let provider = ProviderConfig::new(
            4713u32,
            "Starcat",
            "JP",
            vec![p("2400:d800::/32")],
            vec![
                pool("2400:d800:1::/50", 60, RotationPolicy::Static),
                pool(
                    "2400:d800:1:4000::/50",
                    64,
                    RotationPolicy::PeriodicRandom {
                        period_days: 2,
                        hour: 5,
                        jitter_hours: 7,
                    },
                ),
                pool(
                    "2400:d800:1:8000::/49",
                    58,
                    RotationPolicy::DailyIncrement {
                        step_slots: 3,
                        period_days: 1,
                        hour: 1,
                        jitter_hours: 5,
                    },
                ),
            ],
        );
        WorldConfig::new(vec![provider], 11)
    }

    /// A pool shorter than /40, which the pool index keeps in its wide
    /// table: a sparse /36 of /56s, too sparse for a slot bitmap.
    fn wide_world() -> WorldConfig {
        let provider = ProviderConfig::new(
            6568u32,
            "Entel Bolivia",
            "BO",
            vec![p("2803:9800::/24")],
            vec![RotationPoolConfig {
                prefix: p("2803:9810::/36"),
                allocation_len: 56,
                occupancy: 0.004,
                layout: SlotLayout::Spread,
                rotation: RotationPolicy::DailyIncrement {
                    step_slots: 4097,
                    period_days: 1,
                    hour: 2,
                    jitter_hours: 6,
                },
            }],
        );
        WorldConfig::new(vec![provider], 13)
    }

    /// Every pool shape the oracle covers, built once a test process.
    fn oracle_engines() -> &'static [Engine] {
        static ENGINES: std::sync::OnceLock<Vec<Engine>> = std::sync::OnceLock::new();
        ENGINES.get_or_init(|| {
            use crate::scenarios::{
                churn_world, continuous_world, entel_like, paper_world, versatel_like,
            };
            let worlds = [
                paper_world(5, crate::WorldScale::small()),
                churn_world(5),
                continuous_world(5),
                entel_like(5),
                versatel_like(5),
                split_world(),
                wide_world(),
            ];
            worlds.map(|world| Engine::build(world).unwrap()).into()
        })
    }

    // The pool's precomputed slot, delegation, schedule and provider
    // constants against the `Ipv6Prefix` arithmetic and the configuration
    // they replace, and every reply against the ground truth, over every
    // pool shape: a target anywhere in a drawn pool, and one inside a drawn
    // device's current delegation.
    proptest! {
        #[test]
        fn precomputed_geometry_equals_the_prefix_arithmetic(
            picks in collection::vec(any::<u64>(), 1..8),
            host in any::<u128>(),
            secs in 0u64..40 * 86_400,
        ) {
            let t = SimTime::from_secs(secs);
            let mut hits = 0;
            for engine in oracle_engines() {
                for (k, &pick) in picks.iter().enumerate() {
                    let pool_idx = pick as usize % engine.pools().len();
                    let pool = &engine.pools()[pool_idx];
                    let (prefix, len) = (pool.config.prefix, pool.config.allocation_len);
                    let provider = &engine.config().providers[pool.provider_idx];
                    prop_assert_eq!(pool.schedule(), pool.config.rotation.schedule_secs());
                    prop_assert_eq!((pool.loss(), pool.asn()), (provider.loss, provider.asn));

                    let host = host.rotate_left(17 * k as u32) ^ u128::from(pick);
                    let anywhere = prefix.addr_with_host_bits(host);
                    let mut targets = vec![anywhere];
                    if !pool.is_empty() {
                        let index = (pick >> 32) as usize % pool.len();
                        let id = CpeId { pool: pool_idx as u32, index: index as u32 };
                        targets.extend(
                            (engine.current_delegation(id, t))
                                .map(|delegation| delegation.addr_with_host_bits(host)),
                        );
                    }
                    for target in targets {
                        let bits = addr_to_u128(target);
                        let allocation = Ipv6Prefix::from_bits(bits, len).unwrap();
                        let slot = prefix.subnet_index(&allocation).unwrap() as u64;
                        prop_assert_eq!(pool.slot_of(bits), slot);
                        prop_assert_eq!(
                            pool.delegation_bits(slot),
                            prefix.nth_subnet(len, u128::from(slot)).unwrap().network_bits()
                        );
                        let Some(reply) = engine.probe(target, t) else {
                            continue;
                        };
                        hits += 1;
                        prop_assert_eq!(engine.current_wan_address(reply.cpe, t), Some(reply.source));
                        let delegation = engine.current_delegation(reply.cpe, t).unwrap();
                        prop_assert!(delegation.contains(target), "{target} outside {delegation}");
                    }
                }
            }
            prop_assert!(hits > 0, "no probe was answered at {secs} s");
        }
    }

    fn with_jitter(jitter_hours: u8) -> WorldConfig {
        let mut world = small_world();
        world.providers[0].pools[0].rotation = RotationPolicy::DailyIncrement {
            step_slots: 64,
            period_days: 1,
            hour: 3,
            jitter_hours,
        };
        world
    }

    #[test]
    fn jitter_longer_than_the_period_is_refused() {
        let err = Engine::build(with_jitter(25)).unwrap_err();
        assert_eq!(
            err,
            WorldError::Pool {
                asn: Asn(8881),
                error: crate::PoolError::JitterExceedsPeriod {
                    jitter_hours: 25,
                    period_days: 1,
                },
            }
        );
        // At the bound no probe of a live device's own WAN address goes
        // unanswered. (Inside the jitter window a rotated device can share
        // a slot with one still waiting, and the rotated one answers.)
        let engine = Engine::build(with_jitter(24)).unwrap();
        for hour in 0..48u64 {
            let t = SimTime::at(hour / 24, hour % 24);
            for index in 0..engine.pools()[0].len() as u32 {
                let wan = engine.current_wan_address(CpeId { pool: 0, index }, t);
                assert!(engine.probe(wan.unwrap(), t).is_some(), "hour {hour}");
            }
        }
    }
}
