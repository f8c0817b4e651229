//! Deterministic hashing and pseudo-randomness.
//!
//! Every stochastic choice in the simulator — which vendor a CPE is from,
//! whether a probe is lost, the privacy IID a host picks after a rotation —
//! is a pure function of the world seed and the entity/time involved. This
//! gives perfect replayability (identical scans 24 hours apart observe a
//! consistent world, as the paper's repeated-seed zmap runs do) without
//! storing any per-probe state.
//!
//! The mixer is SplitMix64, which has full 64-bit avalanche behaviour and is
//! more than adequate for simulation purposes (this is not cryptographic
//! randomness and does not need to be).

/// One round of the SplitMix64 output function.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What [`hash2`] adds to its second label word before mixing it.
pub const HASH2_LABEL_OFFSET: u64 = 0x517C_C1B7_2722_0A95;

/// What [`hash3`] adds to its third label word before mixing it.
pub const HASH3_LABEL_OFFSET: u64 = 0x2545_F491_4F6C_DD1D;

/// Combine a seed with one label word.
#[inline]
pub fn hash1(seed: u64, a: u64) -> u64 {
    splitmix64(seed ^ splitmix64(a))
}

/// Combine a seed with two label words.
#[inline]
pub fn hash2(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(hash1(seed, a) ^ splitmix64(b.wrapping_add(HASH2_LABEL_OFFSET)))
}

/// Combine a seed with three label words.
#[inline]
pub fn hash3(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    splitmix64(hash2(seed, a, b) ^ splitmix64(c.wrapping_add(HASH3_LABEL_OFFSET)))
}

/// A deterministic coin flip: returns `true` with probability `p`.
#[inline]
pub fn coin(hash: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    // Use the top 53 bits to build a uniform double in [0, 1).
    let u = (hash >> 11) as f64 / (1u64 << 53) as f64;
    u < p
}

/// A deterministic uniform draw in `0..bound` (`bound` must be non-zero).
#[inline]
pub(crate) fn uniform(hash: u64, bound: u64) -> u64 {
    debug_assert!(bound > 0, "uniform bound must be non-zero");
    // 128-bit multiply-shift avoids modulo bias.
    ((hash as u128 * bound as u128) >> 64) as u64
}

/// Pick an index from a weighted distribution. Weights need not be
/// normalised; an empty or all-zero weight slice returns 0.
pub(crate) fn weighted_pick(hash: u64, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
    if total <= 0.0 {
        return 0;
    }
    let mut point = (hash >> 11) as f64 / (1u64 << 53) as f64 * total;
    for (i, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        if point < w {
            return i;
        }
        point -= w;
    }
    weights.len().saturating_sub(1)
}

/// The multiplicative inverse of an odd number modulo 2^k (k ≤ 64 implied by
/// the `u64` domain), via Newton–Hensel lifting. Used to invert the affine
/// slot permutations of the rotation policies.
pub(crate) fn mod_inverse_pow2(odd: u64) -> u64 {
    debug_assert!(odd & 1 == 1, "inverse requires an odd operand");
    // Five Newton iterations double the number of correct low bits each time:
    // 3 → 6 → 12 → 24 → 48 → 96 ≥ 64.
    let mut x = odd; // correct to 3 bits
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(x)));
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        assert_ne!(hash1(1, 2), hash1(2, 1));
        assert_ne!(hash2(0, 1, 2), hash2(0, 2, 1));
        assert_ne!(hash3(0, 1, 2, 3), hash3(0, 3, 2, 1));
    }

    #[test]
    fn coin_extremes() {
        assert!(!coin(12345, 0.0));
        assert!(coin(12345, 1.0));
        assert!(!coin(u64::MAX, 0.999_999_999));
    }

    #[test]
    fn coin_frequency_tracks_probability() {
        for &p in &[0.1, 0.5, 0.9] {
            let n = 20_000u64;
            let hits = (0..n).filter(|&i| coin(hash1(42, i), p)).count() as f64;
            let freq = hits / n as f64;
            assert!(
                (freq - p).abs() < 0.02,
                "p={p} freq={freq} outside tolerance"
            );
        }
    }

    #[test]
    fn uniform_bounds_and_coverage() {
        let bound = 7u64;
        let mut seen = [false; 7];
        for i in 0..10_000u64 {
            let v = uniform(hash1(7, i), bound);
            assert!(v < bound);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn weighted_pick_respects_weights() {
        let weights = [0.0, 3.0, 1.0];
        let mut counts = [0usize; 3];
        for i in 0..40_000u64 {
            counts[weighted_pick(hash1(9, i), &weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio={ratio}");
        // Degenerate weight vectors fall back to index 0.
        assert_eq!(weighted_pick(123, &[]), 0);
        assert_eq!(weighted_pick(123, &[0.0, 0.0]), 0);
    }

    #[test]
    fn mod_inverse_known_values() {
        assert_eq!(mod_inverse_pow2(1), 1);
        assert_eq!(mod_inverse_pow2(3).wrapping_mul(3), 1);
        assert_eq!(
            mod_inverse_pow2(0xDEAD_BEEF_1234_5677).wrapping_mul(0xDEAD_BEEF_1234_5677),
            1
        );
    }

    proptest! {
        #[test]
        fn mod_inverse_is_correct(x in any::<u64>()) {
            let odd = x | 1;
            prop_assert_eq!(mod_inverse_pow2(odd).wrapping_mul(odd), 1u64);
        }

        #[test]
        fn uniform_is_within_bound(h in any::<u64>(), bound in 1u64..=u64::MAX) {
            prop_assert!(uniform(h, bound) < bound);
        }

        #[test]
        fn weighted_pick_in_range(h in any::<u64>(), w in proptest::collection::vec(0.0f64..10.0, 1..8)) {
            prop_assert!(weighted_pick(h, &w) < w.len());
        }
    }
}
