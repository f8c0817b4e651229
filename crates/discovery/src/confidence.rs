//! The confidence rule: Wilson score bounds over per-node probe evidence.
//!
//! Every structural decision the discovery tree makes — split a node toward
//! /48, merge quiet siblings back, classify a /48 as dense, allocate the
//! next boundary's probe budget — is a pure function of integer counts
//! `(hits, trials)` through the bounds computed here. No wall-clock input,
//! no map iteration order, no randomness: two runs with the same counts make
//! the same decisions, which is what keeps tree evolution byte-identical
//! across shard counts, producer counts and live-vs-replay backends.
//!
//! The arithmetic is IEEE-754 `f64` (add, multiply, divide, square root),
//! all of which are exactly specified and bit-reproducible across
//! conforming platforms; thresholds enter as integer permille values from
//! [`DiscoveryConfig`](crate::DiscoveryConfig) so configuration stays
//! `Eq`-comparable and fingerprintable.

/// The Wilson score interval for a Bernoulli proportion: the interval
/// `(lower, upper)` such that the true response rate of a prefix lies inside
/// it with the confidence implied by the critical value `z` (in permille:
/// `1960` ≈ the 95% two-sided interval).
///
/// With no evidence (`trials == 0`) the interval is the vacuous `(0, 1)`.
/// `hits` is clamped to `trials`, so malformed inputs cannot produce bounds
/// outside `[0, 1]`.
///
/// The Wilson interval (unlike the naive normal approximation) stays
/// meaningful at the small counts discovery actually operates on: a handful
/// of probes into a /48, one hit in a sweep of a /36. That is exactly the
/// regime where "4 of 4 answered" must already count as confidently dense
/// while "0 of 4 answered" must not yet count as confidently quiet.
pub fn wilson_bounds(hits: u64, trials: u64, z_permille: u16) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let h = hits.min(trials) as f64;
    let z = f64::from(z_permille) / 1000.0;
    let z2 = z * z;
    let p = h / n;
    let denom = 1.0 + z2 / n;
    let center = p + z2 / (2.0 * n);
    let margin = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    let lower = ((center - margin) / denom).max(0.0);
    let upper = ((center + margin) / denom).min(1.0);
    (lower, upper)
}

/// The lower Wilson bound alone — the "at least this dense" certificate.
pub(crate) fn wilson_lower(hits: u64, trials: u64, z_permille: u16) -> f64 {
    wilson_bounds(hits, trials, z_permille).0
}

/// The upper Wilson bound alone — the "at most this dense" certificate,
/// and (for an unclassified node) the optimistic expected-gain weight the
/// budget allocator ranks frontier nodes by.
pub(crate) fn wilson_upper(hits: u64, trials: u64, z_permille: u16) -> f64 {
    wilson_bounds(hits, trials, z_permille).1
}

#[cfg(test)]
mod tests {
    use super::*;

    const Z95: u16 = 1960;

    #[test]
    fn no_evidence_is_the_vacuous_interval() {
        assert_eq!(wilson_bounds(0, 0, Z95), (0.0, 1.0));
    }

    #[test]
    fn bounds_bracket_the_point_estimate() {
        for &(h, n) in &[(0u64, 4u64), (1, 4), (4, 4), (7, 16), (250, 256)] {
            let (lo, hi) = wilson_bounds(h, n, Z95);
            let p = h as f64 / n as f64;
            assert!(lo <= p && p <= hi, "({h},{n}): {lo} <= {p} <= {hi}");
            assert!((0.0..=1.0).contains(&lo));
            assert!((0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn interval_tightens_with_evidence() {
        let wide = wilson_bounds(2, 4, Z95);
        let tight = wilson_bounds(128, 256, Z95);
        assert!(tight.1 - tight.0 < wide.1 - wide.0);
    }

    #[test]
    fn perfect_small_sample_is_already_confidently_dense() {
        // 4/4 hits: the lower bound clears 0.5 — the default dense rule.
        assert!(wilson_lower(4, 4, Z95) > 0.5);
        // 1/1 does not: a single answer is a lead, not a certificate.
        assert!(wilson_lower(1, 1, Z95) < 0.5);
    }

    #[test]
    fn silence_needs_a_real_sample_to_be_confidently_quiet() {
        // 0/4 could still be a 20%-responsive prefix.
        assert!(wilson_upper(0, 4, Z95) > 0.2);
        // 0/16 cannot (at 95%).
        assert!(wilson_upper(0, 16, Z95) <= 0.2);
    }

    #[test]
    fn hits_are_clamped_to_trials() {
        assert_eq!(wilson_bounds(9, 4, Z95), wilson_bounds(4, 4, Z95));
    }
}
