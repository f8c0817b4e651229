//! Snapshot shapes: the registry's state at a point in time, split into the
//! three comparison tiers.
//!
//! * [`DeterministicSnapshot`] — workload metrics and the event journal.
//!   Byte-identical (via [`deterministic_text`](crate::deterministic_text)
//!   and [`events_jsonl`](crate::events_jsonl)) across shard counts,
//!   producer counts, thread schedules and live-vs-recorded backends, under
//!   the same conditions that make reports invariant.
//! * [`TopologySnapshot`] — per-shard and per-producer breakdowns. Still a
//!   pure function of (config, world seed), but keyed by the configured
//!   topology, so comparable only between runs of the same configuration.
//! * [`ProfileSnapshot`] — wall-clock profiling state. Excluded from every
//!   determinism check.

use scent_simnet::SimTime;

use crate::event::TelemetryEvent;

/// Virtual-second bucket bounds of the window-latency histogram
/// (upper-inclusive; one implicit `+Inf` bucket follows).
pub const LATENCY_BOUNDS_SECS: [u64; 9] = [1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536];

/// A fixed-bucket histogram over virtual-time durations in seconds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    counts: [u64; LATENCY_BOUNDS_SECS.len() + 1],
    sum: u64,
    count: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value (virtual seconds).
    pub fn observe(&mut self, value: u64) {
        let bucket = LATENCY_BOUNDS_SECS
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(LATENCY_BOUNDS_SECS.len());
        self.counts[bucket] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Per-bucket counts, in [`LATENCY_BOUNDS_SECS`] order with the `+Inf`
    /// bucket last. Not cumulative; the Prometheus exporter accumulates.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum of every recorded value.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Rebuild a histogram from previously exported parts (the counterpart
    /// of [`Histogram::bucket_counts`] / [`Histogram::sum`] /
    /// [`Histogram::count`]) — how a checkpoint restores the latency
    /// histogram.
    pub fn from_parts(counts: [u64; LATENCY_BOUNDS_SECS.len() + 1], sum: u64, count: u64) -> Self {
        Histogram { counts, sum, count }
    }
}

/// Aggregates of one closed probing window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowStats {
    /// The window's id (the engine's global numbering).
    pub window: u64,
    /// Observations routed during the window.
    pub observations: u64,
    /// The subset of `observations` that carried a response.
    pub responses: u64,
    /// The window's first send time.
    pub first_send: SimTime,
    /// The window's last send time.
    pub last_send: SimTime,
}

/// The deterministic tier: a pure function of (config, world seed).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeterministicSnapshot {
    /// Observations routed, in merged clock order.
    pub observations: u64,
    /// The subset of `observations` that carried a response.
    pub responses: u64,
    /// Probes spent by watch-list churn boundary re-expansions.
    pub expansion_probes: u64,
    /// AIMD multiplicative back-offs taken.
    pub rate_backoffs: u64,
    /// AIMD additive recoveries taken.
    pub rate_recoveries: u64,
    /// High-water mark of the modelled virtual-queue depth.
    pub queue_high_water: u64,
    /// Watch-list churn epochs closed.
    pub epochs: u64,
    /// Total /48s admitted across every watch-list revision.
    pub admitted: u64,
    /// Total /48s evicted across every watch-list revision.
    pub evicted: u64,
    /// Per-window aggregates, in close order.
    pub windows: Vec<WindowStats>,
    /// Window virtual-time latencies, as a histogram.
    pub window_latency: Histogram,
    /// The structured event journal, in record order.
    pub events: Vec<TelemetryEvent>,
}

/// Per-shard and per-producer breakdowns: deterministic in value, but keyed
/// by the configured topology.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TopologySnapshot {
    /// Configured inference shard count.
    pub shards: usize,
    /// Configured probe producer count.
    pub producers: usize,
    /// Probes pulled per producer (strided slicing: producer `k` owns
    /// positions `k, k+P, k+2P, …`).
    pub probes_per_producer: Vec<u64>,
    /// Observations routed to each shard.
    pub routed_per_shard: Vec<u64>,
    /// Observations each shard worker ingested (from the joined final
    /// states; equals `routed_per_shard` once the run drained).
    pub ingested_per_shard: Vec<u64>,
}

/// The wall-clock tier: profiling state excluded from determinism checks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileSnapshot {
    /// Times the router hit a full shard channel and blocked.
    pub stalls: u64,
    /// High-water mark of the routed-minus-ingested channel-depth proxy,
    /// sampled at route time.
    pub(crate) channel_high_water: u64,
    /// OS-time span measurements, `(label, nanoseconds)`, in record order.
    pub(crate) wall_spans: Vec<(String, u64)>,
}

/// The registry's complete state at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// The deterministic tier; see [`DeterministicSnapshot`].
    pub deterministic: DeterministicSnapshot,
    /// The topology tier; see [`TopologySnapshot`].
    pub topology: TopologySnapshot,
    /// The wall-clock tier; see [`ProfileSnapshot`].
    pub profile: ProfileSnapshot,
}
