//! The generated CPE population.
//!
//! Each rotation pool is inhabited by a set of CPE devices derived
//! deterministically from the world seed: their MAC addresses (and therefore
//! vendors and EUI-64 identifiers), addressing mode, responsiveness, initial
//! allocation slot, churn dates and rotation jitter are all pure functions of
//! `(seed, provider, pool, customer index)`.

use serde::{Deserialize, Serialize};

use scent_ipv6::{Eui64, MacAddr};
use scent_oui::ALL_VENDORS;

use crate::config::{PlantedCpe, ProviderConfig, RotationPoolConfig, SlotLayout, WorldConfig};
use crate::det::{coin, hash2, hash3, uniform, weighted_pick};

/// A globally unique identifier for a CPE device within an [`crate::Engine`]:
/// the global pool index and the device's position within that pool's
/// population vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CpeId {
    /// Global pool index within the engine.
    pub pool: u32,
    /// Index into the pool's population vector.
    pub index: u32,
}

/// One CPE device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpeRecord {
    /// The WAN interface MAC address.
    pub mac: MacAddr,
    /// Index into [`ALL_VENDORS`].
    pub(crate) vendor_idx: u16,
    /// Whether the WAN interface uses EUI-64 SLAAC addressing (as opposed to
    /// privacy/random IIDs).
    pub eui64: bool,
    /// Whether the device responds to probes at all.
    pub responsive: bool,
    /// The allocation slot the device held at the simulation epoch.
    pub initial_slot: u64,
    /// First day (inclusive) the device is online.
    pub(crate) join_day: u64,
    /// Last day (exclusive) the device is online.
    pub(crate) leave_day: u64,
    /// This device's rotation jitter, in seconds after the pool's rotation
    /// hour.
    pub(crate) jitter_secs: u32,
}

impl CpeRecord {
    /// The EUI-64 interface identifier derived from the device MAC. Only
    /// meaningful when [`CpeRecord::eui64`] is set.
    pub fn eui64_iid(&self) -> Eui64 {
        Eui64::from_mac(self.mac)
    }

    /// Whether the device is online on the given day.
    pub(crate) fn active_on(&self, day: u64) -> bool {
        day >= self.join_day && day < self.leave_day
    }
}

/// The population of one rotation pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolPopulation {
    /// Index of the owning provider within the world configuration.
    pub(crate) provider_idx: usize,
    /// Index of this pool within the provider's pool list.
    pub(crate) pool_idx: usize,
    /// The pool configuration.
    pub config: RotationPoolConfig,
    /// Devices, sorted by `initial_slot` (each slot appears at most once).
    pub cpes: Vec<CpeRecord>,
    /// Seed scoped to this pool, used for rotation permutations and privacy
    /// IID derivation.
    pub(crate) pool_seed: u64,
    /// Slot → position in `cpes`, built once by [`PoolPopulation::build`]
    /// from the sorted `cpes` (which it never reorders); `None` for a pool
    /// too sparse to afford it.
    slot_index: Option<SlotIndex>,
}

/// Which slots of a pool are occupied and where each occupant sits in the
/// sorted device list: an occupancy bitmap beside one rank per bitmap word.
/// 12 bytes per 64 slots (0.19 B a slot) — against the 40-byte records a
/// search would otherwise walk, 13–14 dependent loads per probe in a
/// 13 107-device pool.
#[derive(Debug, Clone, PartialEq)]
struct SlotIndex {
    /// Bit `slot % 64` of word `slot / 64` is set when a device's initial
    /// slot is `slot`.
    occupied: Vec<u64>,
    /// Per word: how many devices sit in earlier words — the position in
    /// `cpes` of the word's first device.
    ranks: Vec<u32>,
}

impl SlotIndex {
    /// The densest bitmap worth its memory: at most 64 slots (12 bytes) per
    /// device, with a floor so a small pool is always indexed.
    const MAX_SLOTS_PER_DEVICE: u64 = 64;
    const ALWAYS_INDEXED_DEVICES: usize = 1024;

    /// Index `cpes` (sorted by `initial_slot`, one device per slot), or
    /// `None` where the bitmap would outweigh what it saves — a /32 of /64s
    /// at 0.001 % occupancy would want 512 MiB — or could not address the
    /// devices (slots are checked against the pool only by
    /// [`WorldConfig::validate`], which a direct `build` skips).
    fn build(cpes: &[CpeRecord], n_slots: u64) -> Option<Self> {
        let devices = cpes.len().max(Self::ALWAYS_INDEXED_DEVICES) as u64;
        let dense = n_slots <= Self::MAX_SLOTS_PER_DEVICE * devices;
        let addressable = u32::try_from(cpes.len()).is_ok()
            && cpes.last().map_or(true, |c| c.initial_slot < n_slots);
        if !(dense && addressable) {
            return None;
        }
        let mut occupied = vec![0u64; n_slots.div_ceil(64) as usize];
        for cpe in cpes {
            occupied[(cpe.initial_slot / 64) as usize] |= 1 << (cpe.initial_slot % 64);
        }
        let mut before = 0u32;
        let ranks = occupied
            .iter()
            .map(|word| {
                let rank = before;
                before += word.count_ones();
                rank
            })
            .collect();
        Some(SlotIndex { occupied, ranks })
    }

    /// The position in `cpes` of the device whose initial slot is `slot`:
    /// one bit test, and for an occupied slot one popcount.
    #[inline]
    fn position(&self, slot: u64) -> Option<usize> {
        let w = (slot / 64) as usize;
        let word = *self.occupied.get(w)?;
        let bit = 1u64 << (slot % 64);
        if word & bit == 0 {
            return None;
        }
        Some(self.ranks[w] as usize + (word & (bit - 1)).count_ones() as usize)
    }
}

impl PoolPopulation {
    /// Number of devices in the pool.
    pub fn len(&self) -> usize {
        self.cpes.len()
    }

    /// Whether the pool has no devices.
    pub fn is_empty(&self) -> bool {
        self.cpes.is_empty()
    }

    /// Find the device whose initial slot is exactly `slot`, with its
    /// position in [`Self::cpes`]. `None` for a free slot and for a slot
    /// past the pool's end.
    #[inline]
    pub fn by_initial_slot(&self, slot: u64) -> Option<(usize, &CpeRecord)> {
        let idx = match &self.slot_index {
            Some(index) => {
                let idx = index.position(slot);
                debug_assert_eq!(idx, self.search_initial_slot(slot));
                idx
            }
            None => self.search_initial_slot(slot),
        }?;
        Some((idx, &self.cpes[idx]))
    }

    /// The sparse pool's lookup, and the check on every indexed answer in a
    /// debug build: a binary search through the records themselves.
    fn search_initial_slot(&self, slot: u64) -> Option<usize> {
        self.cpes
            .binary_search_by_key(&slot, |c| c.initial_slot)
            .ok()
    }

    /// Build the population of one pool.
    pub fn build(
        world: &WorldConfig,
        provider_idx: usize,
        provider: &ProviderConfig,
        pool_idx: usize,
        pool: &RotationPoolConfig,
    ) -> Self {
        let pool_seed = hash3(
            world.seed,
            provider.asn.value() as u64,
            pool_idx as u64,
            0x706f_6f6c, // "pool"
        );
        let n_slots = pool.num_slots();
        let n_customers = ((pool.occupancy * n_slots as f64).round() as u64).min(n_slots);

        // Spread layout: an affine bijection over the slot space (n_slots is a
        // power of two, so any odd multiplier is invertible).
        let spread_mul = hash2(pool_seed, 1, 0) | 1;
        let spread_add = hash2(pool_seed, 2, 0);
        let slot_mask = n_slots - 1;

        let weights: Vec<f64> = provider.vendor_mix.iter().map(|s| s.weight).collect();

        // Collect planted slots for this pool so generated devices never
        // collide with them.
        let planted: Vec<&PlantedCpe> = provider
            .planted
            .iter()
            .filter(|p| p.pool_idx == pool_idx)
            .collect();
        let planted_slots: std::collections::HashSet<u64> =
            planted.iter().map(|p| p.initial_slot).collect();

        let mut cpes = Vec::with_capacity(n_customers as usize + planted.len());
        for i in 0..n_customers {
            let slot = match pool.layout {
                SlotLayout::Contiguous => i,
                SlotLayout::Spread => {
                    (i.wrapping_mul(spread_mul).wrapping_add(spread_add)) & slot_mask
                }
            };
            if planted_slots.contains(&slot) {
                continue;
            }
            let h = hash2(pool_seed, 0x6370_6531, i); // "cpe1"
            let vendor_pos = weighted_pick(h, &weights);
            let vendor_idx = provider
                .vendor_mix
                .get(vendor_pos)
                .map(|s| s.vendor_idx)
                .unwrap_or(0);
            let vendor = &ALL_VENDORS[vendor_idx.min(ALL_VENDORS.len() - 1)];
            let oui_pick = uniform(hash2(pool_seed, 0x006f_7569, i), vendor.ouis.len() as u64);
            let oui = scent_ipv6::Oui::from_u32(vendor.ouis[oui_pick as usize]);
            let nic_bits = hash2(pool_seed, 0x006e_6963, i);
            let mac = oui.with_nic([
                (nic_bits >> 16) as u8,
                (nic_bits >> 8) as u8,
                nic_bits as u8,
            ]);

            let eui64 = coin(hash2(pool_seed, 0x0065_7569, i), provider.eui64_fraction);
            let responsive = coin(hash2(pool_seed, 0x7265_7370, i), provider.response_rate);

            let (join_day, leave_day) = churn_dates(world, hash2(pool_seed, 0x6368_7572, i));

            let jitter_secs = rotation_jitter(pool, hash2(pool_seed, 0x006a_6974, i));

            cpes.push(CpeRecord {
                mac,
                vendor_idx: vendor_idx as u16,
                eui64,
                responsive,
                initial_slot: slot,
                join_day,
                leave_day,
                jitter_secs,
            });
        }

        // Planted devices are always responsive and never churned beyond the
        // window the scenario gives them.
        for (k, plant) in planted.iter().enumerate() {
            let vendor_idx = vendor_of_mac(plant.mac).unwrap_or(0);
            cpes.push(CpeRecord {
                mac: plant.mac,
                vendor_idx: vendor_idx as u16,
                eui64: plant.eui64,
                responsive: true,
                initial_slot: plant.initial_slot,
                join_day: plant.join_day,
                leave_day: plant.leave_day,
                jitter_secs: rotation_jitter(pool, hash2(pool_seed, 0x706c_6e74, k as u64)),
            });
        }

        cpes.sort_by_key(|c| c.initial_slot);
        cpes.dedup_by_key(|c| c.initial_slot);

        PoolPopulation {
            provider_idx,
            pool_idx,
            config: pool.clone(),
            slot_index: SlotIndex::build(&cpes, n_slots),
            cpes,
            pool_seed,
        }
    }
}

/// Draw churn dates for a device: most devices are online for the whole
/// horizon; a `churn_fraction` of devices either join late or leave early.
fn churn_dates(world: &WorldConfig, h: u64) -> (u64, u64) {
    if !coin(h, world.churn_fraction) {
        return (0, u64::MAX);
    }
    let h2 = crate::det::splitmix64(h);
    let day = 1 + uniform(h2, world.horizon_days.max(2) - 1);
    if h2 & 1 == 0 {
        (day, u64::MAX) // joins late
    } else {
        (0, day) // leaves early
    }
}

/// Per-device rotation jitter in seconds, bounded by the pool policy's jitter
/// window.
fn rotation_jitter(pool: &RotationPoolConfig, h: u64) -> u32 {
    match pool.rotation.schedule_secs() {
        Some((_, _, max_jitter)) if max_jitter > 0 => uniform(h, max_jitter) as u32,
        _ => 0,
    }
}

/// Find the built-in vendor owning a MAC address's OUI, if any.
fn vendor_of_mac(mac: MacAddr) -> Option<usize> {
    let oui = mac.oui().to_u32();
    ALL_VENDORS.iter().position(|v| v.ouis.contains(&oui))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RotationPolicy, SlotLayout};
    use proptest::prelude::*;
    use scent_ipv6::Ipv6Prefix;

    fn world_with(
        pool: RotationPoolConfig,
        provider_tweak: impl Fn(&mut ProviderConfig),
    ) -> WorldConfig {
        let mut provider = ProviderConfig::new(
            8881u32,
            "Versatel",
            "DE",
            vec!["2001:16b8::/32".parse::<Ipv6Prefix>().unwrap()],
            vec![pool],
        );
        provider_tweak(&mut provider);
        WorldConfig::new(vec![provider], 42)
    }

    fn default_pool() -> RotationPoolConfig {
        RotationPoolConfig {
            prefix: "2001:16b8:100::/48".parse().unwrap(),
            allocation_len: 56,
            occupancy: 0.5,
            layout: SlotLayout::Spread,
            rotation: RotationPolicy::Static,
        }
    }

    fn build(world: &WorldConfig) -> PoolPopulation {
        PoolPopulation::build(
            world,
            0,
            &world.providers[0],
            0,
            &world.providers[0].pools[0],
        )
    }

    #[test]
    fn population_size_tracks_occupancy() {
        let world = world_with(default_pool(), |_| {});
        let pop = build(&world);
        // 50% of 256 slots, possibly minus dedup collisions (there are none
        // for an affine bijection).
        assert_eq!(pop.len(), 128);
        assert!(!pop.is_empty());
    }

    #[test]
    fn slots_are_unique_and_sorted() {
        let world = world_with(default_pool(), |_| {});
        let pop = build(&world);
        for window in pop.cpes.windows(2) {
            assert!(window[0].initial_slot < window[1].initial_slot);
        }
        for cpe in &pop.cpes {
            assert!(cpe.initial_slot < 256);
        }
    }

    #[test]
    fn contiguous_layout_uses_low_slots() {
        let mut pool = default_pool();
        pool.layout = SlotLayout::Contiguous;
        pool.occupancy = 0.25;
        let world = world_with(pool, |_| {});
        let pop = build(&world);
        assert_eq!(pop.len(), 64);
        assert_eq!(pop.cpes[0].initial_slot, 0);
        assert_eq!(pop.cpes.last().unwrap().initial_slot, 63);
    }

    #[test]
    fn build_is_deterministic() {
        let world = world_with(default_pool(), |_| {});
        let a = build(&world);
        let b = build(&world);
        assert_eq!(a, b);
        let mut other = world.clone();
        other.seed = 43;
        let c = build(&other);
        assert_ne!(a.cpes[0].mac, c.cpes[0].mac);
    }

    #[test]
    fn eui64_fraction_is_respected() {
        let world = world_with(default_pool(), |p| p.eui64_fraction = 0.0);
        let pop = build(&world);
        assert!(pop.cpes.iter().all(|c| !c.eui64));
        let world = world_with(default_pool(), |p| p.eui64_fraction = 1.0);
        let pop = build(&world);
        assert!(pop.cpes.iter().all(|c| c.eui64));
    }

    #[test]
    fn vendor_mix_dominates_correctly() {
        // 95% vendor 0 (AVM), 5% vendor 1 (ZTE) — like NetCologne in §5.1.
        let mut pool = default_pool();
        pool.allocation_len = 64;
        pool.occupancy = 0.3;
        let world = world_with(pool, |p| {
            p.vendor_mix = vec![
                crate::config::VendorShare {
                    vendor_idx: 0,
                    weight: 0.95,
                },
                crate::config::VendorShare {
                    vendor_idx: 1,
                    weight: 0.05,
                },
            ];
        });
        let pop = build(&world);
        let avm = pop.cpes.iter().filter(|c| c.vendor_idx == 0).count() as f64;
        let share = avm / pop.len() as f64;
        assert!(share > 0.9 && share < 0.99, "share={share}");
        // MAC OUIs belong to the configured vendors.
        for cpe in &pop.cpes {
            let vendor = &ALL_VENDORS[cpe.vendor_idx as usize];
            assert!(vendor.ouis.contains(&cpe.mac.oui().to_u32()));
        }
    }

    #[test]
    fn planted_devices_present_and_deduplicated() {
        let mac = MacAddr::new([0x00, 0x00, 0x5e, 0x00, 0x53, 0x01]);
        let world = world_with(default_pool(), |p| {
            p.planted.push(PlantedCpe::always(0, mac, 17));
            p.planted.push(PlantedCpe {
                pool_idx: 0,
                mac: MacAddr::ZERO,
                initial_slot: 18,
                join_day: 10,
                leave_day: 20,
                eui64: true,
            });
        });
        let pop = build(&world);
        let (_, planted) = pop.by_initial_slot(17).expect("planted CPE at slot 17");
        assert_eq!(planted.mac, mac);
        assert!(planted.responsive);
        let (_, zero) = pop.by_initial_slot(18).expect("planted CPE at slot 18");
        assert!(zero.mac.is_zero());
        assert!(zero.active_on(15));
        assert!(!zero.active_on(25));
        assert!(!zero.active_on(5));
    }

    #[test]
    fn by_initial_slot_misses_unoccupied() {
        let mut pool = default_pool();
        pool.layout = SlotLayout::Contiguous;
        pool.occupancy = 0.25;
        let world = world_with(pool, |_| {});
        let pop = build(&world);
        assert!(pop.by_initial_slot(200).is_none());
        assert!(pop.by_initial_slot(0).is_some());
    }

    #[test]
    fn churn_fraction_zero_means_everyone_always_online() {
        let mut world = world_with(default_pool(), |_| {});
        world.churn_fraction = 0.0;
        let pop = build(&world);
        assert!(pop
            .cpes
            .iter()
            .all(|c| c.join_day == 0 && c.leave_day == u64::MAX));
    }

    #[test]
    fn jitter_respects_policy_window() {
        let mut pool = default_pool();
        pool.rotation = RotationPolicy::DailyIncrement {
            step_slots: 1,
            period_days: 1,
            hour: 0,
            jitter_hours: 6,
        };
        let world = world_with(pool, |_| {});
        let pop = build(&world);
        assert!(pop.cpes.iter().all(|c| (c.jitter_secs as u64) < 6 * 3_600));
        assert!(
            pop.cpes.iter().any(|c| c.jitter_secs > 0),
            "jitter should not be all zero"
        );
    }

    #[test]
    fn sparse_pool_answers_by_search_with_no_bitmap() {
        // A /32 of /64s holding 1 000 devices: 2^32 slots would want a
        // 512 MiB bitmap, 64 × max(devices, 1024) slots is the most one is
        // built for.
        let mut pool = default_pool();
        pool.prefix = "2001:16b8::/32".parse().unwrap();
        pool.allocation_len = 64;
        pool.occupancy = 1_000.0 / (1u64 << 32) as f64;
        let world = world_with(pool, |p| {
            p.planted
                .push(PlantedCpe::always(0, MacAddr::ZERO, (1 << 32) - 1));
        });
        let pop = build(&world);
        assert_eq!(pop.len(), 1_001);
        assert!(pop.slot_index.is_none());
        for (position, cpe) in pop.cpes.iter().enumerate() {
            let (found, record) = pop.by_initial_slot(cpe.initial_slot).unwrap();
            assert_eq!((found, record), (position, cpe));
            let free = cpe.initial_slot ^ 1;
            assert_eq!(
                pop.by_initial_slot(free).is_some(),
                pop.cpes.iter().any(|c| c.initial_slot == free)
            );
        }
        assert!(pop.by_initial_slot(1 << 32).is_none());
        assert!(pop.by_initial_slot(u64::MAX).is_none());

        // The threshold itself: an empty /48 of /64s sits on the floor
        // (64 × 1024 slots) and is indexed, twice the slots are not.
        for (prefix, indexed) in [("2001:16b8:100::/48", true), ("2001:16b8:100::/47", false)] {
            let mut pool = default_pool();
            pool.prefix = prefix.parse().unwrap();
            pool.allocation_len = 64;
            pool.occupancy = 0.0;
            let pop = build(&world_with(pool, |_| {}));
            assert_eq!(pop.slot_index.is_some(), indexed, "{prefix}");
            assert!(pop.by_initial_slot(0).is_none());
        }
    }

    // The bitmap-and-rank answer against the binary search it replaced, over
    // every slot of a small pool and a few past its end.
    proptest! {
        #[test]
        fn indexed_lookup_equals_the_binary_search(
            seed in any::<u64>(),
            slot_bits in 0u8..=12,
            occupancy_permille in 0u32..=1000,
            spread in any::<bool>(),
            planted in proptest::collection::vec(any::<u64>(), 0..6),
        ) {
            let n_slots = 1u64 << slot_bits;
            let mut pool = default_pool();
            pool.prefix = Ipv6Prefix::new(pool.prefix.network(), 64 - slot_bits).unwrap();
            pool.allocation_len = 64;
            pool.occupancy = occupancy_permille as f64 / 1000.0;
            pool.layout = if spread { SlotLayout::Spread } else { SlotLayout::Contiguous };
            let mut world = world_with(pool, |p| {
                // Planted devices land on generated slots at high occupancy,
                // and the first one is planted twice.
                for (k, slot) in planted.iter().chain(planted.first()).enumerate() {
                    let mac = MacAddr::new([0x00, 0x00, 0x5e, 0x00, 0x53, k as u8]);
                    p.planted.push(PlantedCpe::always(0, mac, slot % n_slots));
                }
            });
            world.seed = seed;
            let pop = build(&world);
            let index = pop.slot_index.as_ref().expect("a small pool is always indexed");
            let bytes = index.occupied.len() * 8 + index.ranks.len() * 4;
            prop_assert!(bytes as u64 * 5 <= n_slots.max(64));
            for slot in (0..n_slots + 130).chain([u64::MAX - 63, u64::MAX]) {
                let found = pop.by_initial_slot(slot);
                prop_assert_eq!(found.map(|(idx, _)| idx), pop.search_initial_slot(slot));
                if let Some((idx, cpe)) = found {
                    prop_assert_eq!(cpe.initial_slot, slot);
                    prop_assert!(std::ptr::eq(cpe, &pop.cpes[idx]));
                }
            }
            let occupied = (0..n_slots).filter(|&s| pop.by_initial_slot(s).is_some()).count();
            prop_assert_eq!(occupied, pop.len());
        }
    }
}
