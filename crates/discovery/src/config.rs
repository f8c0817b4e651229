//! Discovery configuration and the fixed certificate and decay policy the
//! confidence-split prefix tree evolves under, integer-valued so
//! configurations stay `Eq`-comparable and checkpoint-fingerprintable.

use serde::{Deserialize, Serialize};

use scent_checkpoint::Writer;

use crate::blocklist::Blocklist;
use crate::confidence::{wilson_lower, wilson_upper};

/// Hits at which a node (shorter than /48) splits. In announcement-scale
/// sparse space a rate threshold can never fire — one hit in a 4096-probe
/// sweep rounds to a zero rate — so splitting triggers on the count alone,
/// and the hit's /48 attribution cascades the split all the way down in one
/// rebalance.
pub(crate) const SPLIT_HITS: u64 = 1;

/// Dense certificate: a /48 leaf with at least [`DENSE_MIN_PROBES`] trials
/// whose Wilson *lower* bound reaches this rate (permille) becomes a
/// watch-list candidate.
pub(crate) const DENSE_PERMILLE: u16 = 500;

/// Minimum trials before the dense certificate can fire.
pub(crate) const DENSE_MIN_PROBES: u64 = 4;

/// Quiet certificate: a leaf with at least [`MERGE_MIN_PROBES`] trials whose
/// Wilson *upper* bound is below this rate (permille) is confidently quiet —
/// it stops drawing budget, and an internal node whose children are all
/// quiet merges back to a leaf.
pub(crate) const MERGE_PERMILLE: u16 = 200;

/// Minimum trials before the quiet certificate can fire.
pub(crate) const MERGE_MIN_PROBES: u64 = 16;

/// Wilson critical value, permille (1960 ≈ 95% two-sided).
pub(crate) const Z_PERMILLE: u16 = 1960;

/// Evidence half-life, as a per-boundary right-shift of every count (1 =
/// halve each boundary). Decay is what lets the tree re-open certificates
/// over a *moving* occupancy band: a /48 the band left decays from dense
/// through unclassified to quiet, and a quiet sibling the band enters is
/// still being re-swept because its certificate decayed too.
pub(crate) const DECAY_SHIFT: u8 = 1;

/// Configuration of the adaptive discovery tree: how much it probes and how
/// finely it splits.
///
/// The certificate and decay policy is fixed, tuned for announcement-rooted
/// discovery of scaled-down worlds (/32 announcements, /48 bands, /56
/// customer delegations): a single EUI-64 hit is enough to split toward the
/// responding /48, four clean answers certify a /48 dense, sixteen silent
/// probes certify a node quiet, and every count halves each boundary. Its
/// thresholds are integers (counts, or rates in permille); the Wilson
/// arithmetic happens in `f64` internally but never enters the
/// configuration, so `DiscoveryConfig` derives `Eq` and participates in the
/// monitor's checkpoint config fingerprint field by field, policy included.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiscoveryConfig {
    /// Probe budget per epoch boundary, shared by every frontier node across
    /// all [`DiscoveryConfig::rounds`]. Must be non-zero.
    pub probe_budget: u64,
    /// Plan→probe→fold rounds per boundary. With two rounds (the default) a
    /// hit found by the first round's coarse sweep splits the tree down to
    /// the responding /48 and the second round already probes that /48 to
    /// dense-confidence — discovery converges within a single boundary
    /// instead of leaking an epoch per tree level. Must be non-zero.
    pub rounds: u32,
    /// Bits added per tree level: a split materializes `2^branch_bits`
    /// children (nibble steps by default, /32 → /36 → /40 → /44 → /48),
    /// clamped so no node is ever longer than /48.
    pub branch_bits: u8,
    /// Prefixes excluded from all probing. Consulted by the detection-phase
    /// target stream, the boundary re-expansion and the discovery sweep
    /// before any probe is emitted.
    pub blocklist: Blocklist,
}

impl DiscoveryConfig {
    /// The tuned defaults described on the type.
    pub fn paper_scale() -> Self {
        DiscoveryConfig {
            probe_budget: 4096,
            rounds: 2,
            branch_bits: 4,
            blocklist: Blocklist::default(),
        }
    }

    /// Whether `(hits, trials)` certify a dense prefix.
    pub fn is_dense(&self, hits: u64, trials: u64) -> bool {
        trials >= DENSE_MIN_PROBES
            && wilson_lower(hits, trials, Z_PERMILLE) >= f64::from(DENSE_PERMILLE) / 1000.0
    }

    /// Whether `(hits, trials)` certify a quiet prefix.
    pub(crate) fn is_quiet(&self, hits: u64, trials: u64) -> bool {
        trials >= MERGE_MIN_PROBES
            && wilson_upper(hits, trials, Z_PERMILLE) <= f64::from(MERGE_PERMILLE) / 1000.0
    }

    /// The budget-allocation weight of a leaf holding `(hits, trials)`: zero
    /// once either certificate holds (nothing left to learn), the optimistic
    /// Wilson upper bound otherwise — unprobed nodes weigh 1.0 and outrank
    /// everything, mostly-silent nodes fade as their upper bound collapses.
    pub(crate) fn gain_weight(&self, hits: u64, trials: u64) -> f64 {
        if self.is_dense(hits, trials) || self.is_quiet(hits, trials) {
            0.0
        } else {
            wilson_upper(hits, trials, Z_PERMILLE)
        }
    }

    /// Fold every behavior-relevant field (blocklist included) and the fixed
    /// policy into a checkpoint fingerprint writer, so a snapshot taken under
    /// one discovery configuration or policy is refused by a session running
    /// another. The policy constants keep the slots they had as fields.
    pub fn fingerprint_into(&self, w: &mut Writer) {
        w.put_u64(self.probe_budget);
        w.put_u32(self.rounds);
        w.put_u8(self.branch_bits);
        w.put_u64(SPLIT_HITS);
        w.put_u16(DENSE_PERMILLE);
        w.put_u64(DENSE_MIN_PROBES);
        w.put_u16(MERGE_PERMILLE);
        w.put_u64(MERGE_MIN_PROBES);
        w.put_u16(Z_PERMILLE);
        w.put_u8(DECAY_SHIFT);
        w.put_usize(self.blocklist.len());
        for entry in self.blocklist.entries() {
            w.put_u128(entry.network_bits());
            w.put_u8(entry.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_certificates_behave() {
        let cfg = DiscoveryConfig::paper_scale();
        assert!(cfg.is_dense(4, 4));
        assert!(
            !cfg.is_dense(1, 1),
            "one answer is a lead, not a certificate"
        );
        assert!(cfg.is_quiet(0, 16));
        assert!(!cfg.is_quiet(0, 4));
        assert!(!cfg.is_quiet(8, 16));
    }

    #[test]
    fn gain_weight_orders_the_frontier() {
        let cfg = DiscoveryConfig::paper_scale();
        let unprobed = cfg.gain_weight(0, 0);
        let promising = cfg.gain_weight(2, 8);
        let fading = cfg.gain_weight(0, 12);
        assert_eq!(unprobed, 1.0);
        assert!(promising > fading);
        assert_eq!(cfg.gain_weight(4, 4), 0.0, "dense: nothing left to learn");
        assert_eq!(cfg.gain_weight(0, 64), 0.0, "quiet: nothing left to learn");
    }

    #[test]
    fn fingerprint_reacts_to_every_field() {
        let base = DiscoveryConfig::paper_scale();
        let fp = |cfg: &DiscoveryConfig| {
            let mut w = Writer::new();
            cfg.fingerprint_into(&mut w);
            w.fingerprint()
        };
        let reference = fp(&base);
        let mut variants = vec![
            DiscoveryConfig {
                probe_budget: 1,
                ..base.clone()
            },
            DiscoveryConfig {
                rounds: 9,
                ..base.clone()
            },
            DiscoveryConfig {
                branch_bits: 2,
                ..base.clone()
            },
        ];
        variants.push(DiscoveryConfig {
            blocklist: Blocklist::new(vec!["2001:db8::/32".parse().unwrap()]),
            ..base.clone()
        });
        for variant in variants {
            assert_ne!(fp(&variant), reference, "{variant:?}");
        }
    }
}
