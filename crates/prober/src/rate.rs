//! Probe pacing against the virtual clock.
//!
//! The paper probes at a deliberately conservative 10k packets per second
//! (§3.1, §7), and several of its cost arguments (e.g. "about 13 seconds at
//! 10 kpps" for a /46 rotation pool of /64s, or the "75 seconds of active
//! probing" for EUI-64 IID #2 in Table 2) are statements about how long a
//! probe budget takes to spend at that rate. [`ProbePacer`] converts probe
//! indices into virtual send times at a fixed rate; [`FeedbackPacer`] and
//! [`QueuePacer`] pace a continuous stream, the latter against the
//! deterministic virtual-queue feedback model ([`QueueModel`]).

use serde::{Deserialize, Serialize};

use scent_simnet::{SimDuration, SimTime};

/// Deterministic pacing: probe `i` of a scan is sent at
/// `start + i / packets_per_second`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbePacer {
    /// Time the scan starts.
    pub start: SimTime,
    /// Probe budget per second.
    pub packets_per_second: u64,
}

impl ProbePacer {
    /// Create a pacer starting at `start` with the given rate (which must be
    /// non-zero).
    pub fn new(start: SimTime, packets_per_second: u64) -> Self {
        assert!(packets_per_second > 0, "rate must be non-zero");
        ProbePacer {
            start,
            packets_per_second,
        }
    }

    /// The virtual send time of the `index`th probe.
    pub fn send_time(&self, index: u64) -> SimTime {
        self.start + SimDuration::from_secs(index / self.packets_per_second)
    }

    /// The duration needed to send `count` probes at this rate, rounded up to
    /// whole seconds.
    pub fn duration_for(&self, count: u64) -> SimDuration {
        SimDuration::from_secs(count.div_ceil(self.packets_per_second))
    }

    /// The time the scan finishes if it sends `count` probes.
    pub fn finish_time(&self, count: u64) -> SimTime {
        self.start + self.duration_for(count)
    }
}

/// A pacer with AIMD rate feedback for continuous streaming scans.
///
/// The batch [`ProbePacer`] computes send times from a fixed rate; a
/// long-running monitor instead has consumers (inference shards) that can
/// fall behind. `FeedbackPacer` keeps a current rate that backs off
/// multiplicatively when the consumer signals backpressure
/// ([`FeedbackPacer::on_backpressure`]) and recovers additively while the
/// stream drains freely ([`FeedbackPacer::on_progress`]) — classic AIMD
/// against the virtual clock, bounded below so the monitor never stalls
/// entirely and above by the configured budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeedbackPacer {
    base_pps: u64,
    current_pps: u64,
    min_pps: u64,
    cursor: SimTime,
    sent_in_second: u64,
}

impl FeedbackPacer {
    /// Create a pacer starting at `start` with a non-zero probe budget.
    pub fn new(start: SimTime, packets_per_second: u64) -> Self {
        assert!(packets_per_second > 0, "rate must be non-zero");
        FeedbackPacer {
            base_pps: packets_per_second,
            current_pps: packets_per_second,
            min_pps: (packets_per_second / 64).max(1),
            cursor: start,
            sent_in_second: 0,
        }
    }

    /// The send time of the next probe at the current rate.
    pub fn next_send_time(&mut self) -> SimTime {
        if self.sent_in_second >= self.current_pps {
            self.cursor += SimDuration::from_secs(1);
            self.sent_in_second = 0;
        }
        self.sent_in_second += 1;
        self.cursor
    }

    /// Advance the pacer as if `count` probes had been sent, without sending
    /// them. Exactly equivalent to calling [`FeedbackPacer::next_send_time`]
    /// `count` times (at the current rate) in O(1) — this is what lets a
    /// sharded producer that owns only a slice of a scan pass keep its pacer
    /// state bit-identical to the single-producer pacer that paces every
    /// position.
    pub fn skip(&mut self, count: u64) {
        if count == 0 {
            return;
        }
        let total = self.sent_in_second + count;
        self.cursor += SimDuration::from_secs((total - 1) / self.current_pps);
        self.sent_in_second = (total - 1) % self.current_pps + 1;
    }

    /// Multiplicative back-off: the consumer could not keep up.
    pub fn on_backpressure(&mut self) {
        self.current_pps = (self.current_pps / 2).max(self.min_pps);
    }

    /// Additive recovery: the stream is draining freely.
    pub fn on_progress(&mut self) {
        let step = (self.base_pps / 16).max(1);
        self.current_pps = (self.current_pps + step).min(self.base_pps);
    }

    /// The current effective rate.
    pub fn rate(&self) -> u64 {
        self.current_pps
    }

    /// The configured (maximum) rate.
    pub fn base_rate(&self) -> u64 {
        self.base_pps
    }

    /// Advance to a window boundary: the next probe is sent no earlier than
    /// `start` (virtual time never runs backwards).
    pub fn advance_to(&mut self, start: SimTime) {
        if start > self.cursor {
            self.cursor = start;
            self.sent_in_second = 0;
        }
    }

    /// The virtual time the pacer has reached.
    pub fn now(&self) -> SimTime {
        self.cursor
    }
}

/// Configuration of the deterministic virtual-queue feedback model.
///
/// The model replaces wall-clock backpressure (OS channel rendezvous) with a
/// *virtual* queue per inference shard: every observation enqueues one unit
/// on its shard's counter, and a configurable [`QueueModel::drain_rate`]
/// retires units per virtual second. The resulting depth is a pure function
/// of `(config, target order, virtual time)` — no thread scheduling, no
/// channel state — which is what lets every producer of a sharded scan
/// replay the same global rate trajectory locally and keep the merged stream
/// bit-identical to the single-producer run with feedback **on**.
///
/// The model is the only switch: a streamed run paces against it exactly
/// when it can throttle ([`QueueModel::can_throttle`]: some shard drains at
/// a finite rate). The default, [`QueueModel::unbounded`], cannot, so a run
/// keeps the paper's fixed rate unless it is given a drain rate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueModel {
    /// Observations each shard retires per virtual second. `None` models an
    /// infinitely fast consumer: depths are always zero and the pacer
    /// reproduces the feedback-off trajectory exactly.
    pub drain_rate: Option<u64>,
    /// Depth at or above which a feedback instant backs off
    /// (multiplicative).
    pub high_watermark: u64,
    /// Depth at or below which a feedback instant recovers (additive). Must
    /// be strictly below [`QueueModel::high_watermark`].
    pub low_watermark: u64,
    /// Per-shard drain-rate overrides (e.g. calibrated from the
    /// `shard_ingest` measurements): shard `i` drains at
    /// `per_shard_drain[i]` observations per virtual second; shards past the
    /// end of the vector fall back to [`QueueModel::drain_rate`]. Empty
    /// means every shard drains uniformly.
    pub per_shard_drain: Vec<u64>,
}

impl QueueModel {
    /// An infinitely fast consumer: depths stay zero, the rate stays at the
    /// configured budget — the fixed-rate trajectory, exactly.
    pub fn unbounded() -> Self {
        QueueModel {
            drain_rate: None,
            high_watermark: 1024,
            low_watermark: 128,
            per_shard_drain: Vec::new(),
        }
    }

    /// A consumer retiring `drain_rate` observations per shard per virtual
    /// second, with the default watermarks.
    pub fn with_drain_rate(drain_rate: u64) -> Self {
        QueueModel {
            drain_rate: Some(drain_rate),
            ..Self::unbounded()
        }
    }

    /// A consumer whose shards drain at individually measured rates (e.g.
    /// loaded from the `shard_ingest` calibration artifact), with the
    /// default watermarks. Shard `i` drains at the `i`th rate; shards beyond
    /// the list fall back to an infinitely fast drain (no rate configured),
    /// so pass one rate per shard.
    pub fn per_shard_drain<I: IntoIterator<Item = u64>>(rates: I) -> Self {
        QueueModel {
            per_shard_drain: rates.into_iter().collect(),
            ..Self::unbounded()
        }
    }

    /// [`QueueModel::per_shard_drain`] built straight from a calibration
    /// measurement: `ns_per_obs[i]` is shard `i`'s measured ingest cost in
    /// nanoseconds per observation (the `shard_ingest` bench artifact), and
    /// the drain rate becomes the observations that shard retires per
    /// virtual second (`1e9 / ns`, floored, clamped to at least 1 so a
    /// pathological measurement can never model a stuck consumer; a zero
    /// measurement is treated as 1 ns). Default watermarks.
    ///
    /// The mapping itself is pure arithmetic, so feeding wall-clock
    /// calibration numbers in keeps the resulting AIMD trajectory a
    /// deterministic function of the *model* — runs stay byte-identical
    /// across producer counts for any calibration input.
    pub fn calibrated<I: IntoIterator<Item = u64>>(ns_per_obs: I) -> Self {
        Self::per_shard_drain(
            ns_per_obs
                .into_iter()
                .map(|ns| (1_000_000_000 / ns.max(1)).max(1)),
        )
    }

    /// The drain rate in force for `shard`: its per-shard override if one is
    /// configured, otherwise the uniform [`QueueModel::drain_rate`].
    pub fn drain_for(&self, shard: usize) -> Option<u64> {
        self.per_shard_drain.get(shard).copied().or(self.drain_rate)
    }

    /// Whether the watermarks are ordered sensibly (`low < high`).
    pub fn is_valid(&self) -> bool {
        self.low_watermark < self.high_watermark
    }

    /// Whether some shard drains at a finite rate, so a queue can build up
    /// and the model can back the rate off. A model that cannot throttle
    /// paces exactly like the fixed rate, so a run paces against its queue
    /// model exactly when this holds.
    pub fn can_throttle(&self) -> bool {
        self.drain_rate.is_some() || !self.per_shard_drain.is_empty()
    }
}

impl Default for QueueModel {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// A deterministic per-shard queue-depth counter: observations enqueued
/// minus observations a drain rate would have retired by a given virtual
/// instant.
///
/// The counter is *virtual*: it never inspects a real channel. Draining is
/// computed, not tracked — `depth_at(t)` subtracts `drain_rate × (t − epoch)`
/// from the enqueue count (saturating at zero), so the depth at any instant
/// is a pure function of how many observations were routed to the shard and
/// how much virtual time has passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VirtualQueue {
    enqueued: u64,
    epoch: SimTime,
}

impl VirtualQueue {
    /// An empty queue whose drain clock starts at `epoch`.
    pub fn new(epoch: SimTime) -> Self {
        VirtualQueue { enqueued: 0, epoch }
    }

    /// Account one observation routed to this shard.
    pub fn enqueue(&mut self) {
        self.enqueued += 1;
    }

    /// Observations enqueued so far.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// The queue depth at virtual time `now` under `drain_rate`
    /// (observations retired per virtual second; `None` = infinitely fast).
    pub fn depth_at(&self, now: SimTime, drain_rate: Option<u64>) -> u64 {
        let Some(rate) = drain_rate else { return 0 };
        let retired = now.since(self.epoch).as_secs().saturating_mul(rate);
        self.enqueued.saturating_sub(retired)
    }
}

/// A [`FeedbackPacer`] driven by the deterministic virtual-queue model
/// instead of OS channel pressure.
///
/// Every probing-order position — owned or foreign — is accounted through
/// [`QueuePacer::pace`] / [`QueuePacer::skip`], which perform the *identical*
/// state transition (the only difference is whether the caller sends a
/// probe). Feedback is evaluated at well-defined virtual instants: each time
/// the pacer's cursor rolls over to a new second, the maximum shard depth at
/// that instant decides between [`FeedbackPacer::on_backpressure`] (depth ≥
/// high watermark) and [`FeedbackPacer::on_progress`] (depth ≤ low
/// watermark). Because all of that is a pure function of the position
/// sequence and virtual time, P producers that each account all positions
/// (probing only their own strided slice) hold bit-identical pacer states at
/// every position — the property that makes AIMD feedback compatible with
/// sharded producers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueuePacer {
    pacer: FeedbackPacer,
    model: QueueModel,
    queues: Vec<VirtualQueue>,
}

impl QueuePacer {
    /// Create a pacer over `shards` virtual queues, starting at `start` with
    /// a non-zero probe budget.
    pub fn new(start: SimTime, packets_per_second: u64, shards: usize, model: QueueModel) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(model.is_valid(), "low watermark must be below high");
        QueuePacer {
            pacer: FeedbackPacer::new(start, packets_per_second),
            model,
            queues: vec![VirtualQueue::new(start); shards],
        }
    }

    /// Account one observation routed to `shard` and return its virtual send
    /// time at the current (feedback-adjusted) rate.
    pub fn pace(&mut self, shard: usize) -> SimTime {
        if self.pacer.sent_in_second >= self.pacer.current_pps {
            self.pacer.cursor += SimDuration::from_secs(1);
            self.pacer.sent_in_second = 0;
            // The well-defined virtual instant: a new send second begins.
            self.evaluate();
        }
        self.pacer.sent_in_second += 1;
        self.queues[shard].enqueue();
        self.pacer.cursor
    }

    /// [`QueuePacer::pace`], additionally reporting the AIMD rate transition
    /// the position triggered, if any. This is the telemetry hook point:
    /// because the trajectory is a pure function of the position sequence,
    /// an observer fed from a merge-side replica pacer sees the exact
    /// back-off/recovery events every producer replayed locally — in
    /// deterministic order, at their virtual instants.
    pub fn pace_tracked(&mut self, shard: usize) -> (SimTime, Option<RateTransition>) {
        let from_pps = self.rate();
        let sent_at = self.pace(shard);
        let to_pps = self.rate();
        let transition = (from_pps != to_pps).then_some(RateTransition { from_pps, to_pps });
        (sent_at, transition)
    }

    /// Fast-forward over one *foreign* position routed to `shard`: the exact
    /// state transition of [`QueuePacer::pace`] — enqueue accounting, second
    /// rollovers and the multiplicative/additive rate events they trigger —
    /// without the caller sending the probe. This is skip-with-feedback: a
    /// producer that owns only a strided slice of the scan calls it for every
    /// position another producer probes, so its pacer replays the global rate
    /// trajectory locally.
    pub fn skip(&mut self, shard: usize) {
        let _ = self.pace(shard);
    }

    /// Evaluate the feedback signal at the current cursor instant.
    fn evaluate(&mut self) {
        let depth = self.depth();
        if depth >= self.model.high_watermark {
            self.pacer.on_backpressure();
        } else if depth <= self.model.low_watermark {
            self.pacer.on_progress();
        }
    }

    /// The maximum shard depth at the pacer's current virtual instant. Each
    /// shard drains at [`QueueModel::drain_for`] its index, so asymmetric
    /// per-shard calibrations feed back through the slowest shard.
    pub fn depth(&self) -> u64 {
        let now = self.pacer.cursor;
        self.queues
            .iter()
            .enumerate()
            .map(|(i, q)| q.depth_at(now, self.model.drain_for(i)))
            .max()
            .unwrap_or(0)
    }

    /// The depth of one shard's queue at the current virtual instant.
    pub fn shard_depth(&self, shard: usize) -> u64 {
        self.queues[shard].depth_at(self.pacer.cursor, self.model.drain_for(shard))
    }

    /// Number of virtual queues (shards).
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// The current effective rate.
    pub fn rate(&self) -> u64 {
        self.pacer.rate()
    }

    /// The configured (maximum) rate.
    pub fn base_rate(&self) -> u64 {
        self.pacer.base_rate()
    }

    /// The queue model in force.
    pub fn model(&self) -> &QueueModel {
        &self.model
    }

    /// Advance to a window boundary: the next probe is sent no earlier than
    /// `start` (virtual time never runs backwards). No feedback is evaluated
    /// here — rate events fire only at send-second rollovers, which keeps
    /// the instants identical for every producer regardless of where its
    /// slice boundaries fall.
    pub fn advance_to(&mut self, start: SimTime) {
        self.pacer.advance_to(start);
    }

    /// The virtual time the pacer has reached.
    pub fn now(&self) -> SimTime {
        self.pacer.now()
    }
}

/// One AIMD rate change reported by [`QueuePacer::pace_tracked`]: a
/// multiplicative back-off when `to_pps < from_pps`, an additive recovery
/// otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateTransition {
    /// Effective rate before the transition, packets per second.
    pub from_pps: u64,
    /// Effective rate after the transition.
    pub to_pps: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feedback_pacer_matches_fixed_pacer_without_feedback() {
        let start = SimTime::at(2, 0);
        let fixed = ProbePacer::new(start, 100);
        let mut adaptive = FeedbackPacer::new(start, 100);
        for i in 0..350u64 {
            assert_eq!(adaptive.next_send_time(), fixed.send_time(i), "probe {i}");
        }
    }

    #[test]
    fn feedback_pacer_backs_off_and_recovers() {
        let mut pacer = FeedbackPacer::new(SimTime::EPOCH, 1024);
        pacer.on_backpressure();
        assert_eq!(pacer.rate(), 512);
        pacer.on_backpressure();
        assert_eq!(pacer.rate(), 256);
        // Additive recovery climbs back to (and not beyond) the base rate.
        for _ in 0..100 {
            pacer.on_progress();
        }
        assert_eq!(pacer.rate(), 1024);
        assert_eq!(pacer.base_rate(), 1024);
        // The floor prevents a total stall.
        for _ in 0..100 {
            pacer.on_backpressure();
        }
        assert_eq!(pacer.rate(), 16);
    }

    #[test]
    fn feedback_pacer_slows_virtual_time_under_backpressure() {
        let mut fast = FeedbackPacer::new(SimTime::EPOCH, 1000);
        let mut slow = FeedbackPacer::new(SimTime::EPOCH, 1000);
        slow.on_backpressure(); // 500 pps
        let mut last_fast = SimTime::EPOCH;
        let mut last_slow = SimTime::EPOCH;
        for _ in 0..2_000 {
            last_fast = fast.next_send_time();
            last_slow = slow.next_send_time();
        }
        assert!(last_slow > last_fast, "halved rate must take longer");
    }

    #[test]
    fn skip_is_equivalent_to_repeated_sends() {
        // Every (skip-count, phase-within-second) combination must leave the
        // pacer in exactly the state that many next_send_time calls would.
        for pre in [0u64, 1, 3, 7, 8, 9] {
            for count in [0u64, 1, 2, 7, 8, 9, 16, 100] {
                let mut stepped = FeedbackPacer::new(SimTime::at(3, 5), 8);
                let mut skipped = FeedbackPacer::new(SimTime::at(3, 5), 8);
                for _ in 0..pre {
                    stepped.next_send_time();
                    skipped.next_send_time();
                }
                for _ in 0..count {
                    stepped.next_send_time();
                }
                skipped.skip(count);
                assert_eq!(stepped, skipped, "pre={pre} count={count}");
                // And the next probe after the jump agrees too.
                assert_eq!(stepped.next_send_time(), skipped.next_send_time());
            }
        }
    }

    #[test]
    fn feedback_pacer_advances_to_window_start() {
        let mut pacer = FeedbackPacer::new(SimTime::at(0, 0), 10);
        pacer.next_send_time();
        pacer.advance_to(SimTime::at(1, 0));
        assert_eq!(pacer.now(), SimTime::at(1, 0));
        assert_eq!(pacer.next_send_time(), SimTime::at(1, 0));
        // Moving backwards is a no-op.
        pacer.advance_to(SimTime::at(0, 12));
        assert_eq!(pacer.now(), SimTime::at(1, 0));
    }

    #[test]
    fn pacer_spreads_probes_over_time() {
        let pacer = ProbePacer::new(SimTime::at(1, 0), 10_000);
        assert_eq!(pacer.send_time(0), SimTime::at(1, 0));
        assert_eq!(pacer.send_time(9_999), SimTime::at(1, 0));
        assert_eq!(
            pacer.send_time(10_000),
            SimTime::at(1, 0) + SimDuration::from_secs(1)
        );
        // The paper's example: E[2^18 - 1] probes at 10 kpps is ~13 seconds.
        let probes = (1u64 << 18) / 2;
        let duration = pacer.duration_for(probes);
        assert_eq!(duration.as_secs(), 14); // ceil(131072 / 10000)
        assert_eq!(
            pacer.finish_time(probes),
            SimTime::at(1, 0) + SimDuration::from_secs(14)
        );
    }

    #[test]
    #[should_panic(expected = "rate must be non-zero")]
    fn pacer_rejects_zero_rate() {
        ProbePacer::new(SimTime::EPOCH, 0);
    }

    /// Satellite property: `drain_rate = ∞` (None) reproduces the
    /// feedback-off trajectory exactly — every send time equals the fixed
    /// [`ProbePacer`]'s, across second rollovers, for any shard count.
    #[test]
    fn unbounded_queue_model_reproduces_feedback_off_exactly() {
        // Which is why a run paces against a model only if it can throttle.
        assert!(!QueueModel::unbounded().can_throttle());
        assert!(QueueModel::with_drain_rate(1).can_throttle());
        assert!(QueueModel::per_shard_drain([7]).can_throttle());
        for shards in [1usize, 2, 5] {
            let start = SimTime::at(3, 7);
            let fixed = ProbePacer::new(start, 100);
            let mut queued = QueuePacer::new(start, 100, shards, QueueModel::unbounded());
            for i in 0..1_000u64 {
                let shard = (i % shards as u64) as usize;
                assert_eq!(queued.pace(shard), fixed.send_time(i), "probe {i}");
                assert_eq!(queued.rate(), 100, "rate never moves without depth");
                assert_eq!(queued.depth(), 0, "unbounded drain keeps depth zero");
            }
        }
    }

    /// Satellite property: queue depth is monotone-consistent under `skip` —
    /// skipping a position is the identical state transition to pacing it, so
    /// depths (and the whole pacer state) agree no matter how pace/skip
    /// interleave, and depth at a fixed instant grows by exactly one per
    /// accounted position.
    #[test]
    fn skip_is_the_same_state_transition_as_pace() {
        let model = QueueModel {
            drain_rate: Some(3),
            high_watermark: 10,
            low_watermark: 2,
            ..QueueModel::unbounded()
        };
        let mut paced = QueuePacer::new(SimTime::at(0, 0), 8, 2, model.clone());
        let mut skipped = QueuePacer::new(SimTime::at(0, 0), 8, 2, model);
        for i in 0..500u64 {
            let shard = (i % 2) as usize;
            let before_depth = paced.shard_depth(shard);
            let before_now = paced.now();
            let t = paced.pace(shard);
            // Producer B probes only every third position, skipping the rest.
            if i % 3 == 0 {
                assert_eq!(skipped.pace(shard), t, "position {i}");
            } else {
                skipped.skip(shard);
            }
            assert_eq!(paced, skipped, "position {i}");
            // Within one send second the depth grows by exactly one per
            // accounted position; a rollover retires drain_rate × elapsed.
            if paced.now() == before_now {
                assert_eq!(paced.shard_depth(shard), before_depth + 1, "position {i}");
            }
            assert_eq!(paced.depth(), skipped.depth());
        }
    }

    /// Satellite property: the rate never exceeds the configured ceiling nor
    /// drops below the floor, whatever the queue model does.
    #[test]
    fn queue_pacer_rate_stays_within_ceiling_and_floor() {
        for drain in [Some(0u64), Some(1), Some(7), Some(1_000), None] {
            let model = QueueModel {
                drain_rate: drain,
                high_watermark: 16,
                low_watermark: 4,
                ..QueueModel::unbounded()
            };
            let mut pacer = QueuePacer::new(SimTime::EPOCH, 1024, 3, model);
            let floor = 1024 / 64;
            for i in 0..5_000u64 {
                pacer.pace((i % 3) as usize);
                assert!(pacer.rate() <= 1024, "ceiling at {i}");
                assert!(pacer.rate() >= floor, "floor at {i}");
            }
            if drain == Some(0) {
                assert_eq!(pacer.rate(), floor, "a dead consumer pins the floor");
            }
            if drain.is_none() {
                assert_eq!(pacer.rate(), 1024, "an infinite consumer never backs off");
            }
        }
    }

    /// A slow virtual consumer forces a deterministic back-off: depth builds,
    /// the rate halves at a second rollover, and virtual time stretches
    /// compared to the unthrottled run.
    #[test]
    fn queue_pacer_backs_off_deterministically_under_slow_drain() {
        let model = QueueModel {
            drain_rate: Some(10),
            high_watermark: 50,
            low_watermark: 5,
            ..QueueModel::unbounded()
        };
        let run = || {
            let mut pacer = QueuePacer::new(SimTime::EPOCH, 100, 1, model.clone());
            let mut last = SimTime::EPOCH;
            for _ in 0..1_000u64 {
                last = pacer.pace(0);
            }
            (pacer.rate(), last)
        };
        let (rate_a, last_a) = run();
        let (rate_b, last_b) = run();
        assert_eq!(rate_a, rate_b, "trajectory is a pure function");
        assert_eq!(last_a, last_b);
        assert!(rate_a < 100, "a 10/s consumer must throttle a 100/s prober");
        let mut free = QueuePacer::new(SimTime::EPOCH, 100, 1, QueueModel::unbounded());
        let mut free_last = SimTime::EPOCH;
        for _ in 0..1_000u64 {
            free_last = free.pace(0);
        }
        assert!(last_a > free_last, "throttling must stretch virtual time");
    }

    #[test]
    fn queue_pacer_advance_to_matches_feedback_pacer() {
        let mut pacer = QueuePacer::new(SimTime::at(0, 0), 10, 2, QueueModel::unbounded());
        pacer.pace(0);
        pacer.advance_to(SimTime::at(1, 0));
        assert_eq!(pacer.now(), SimTime::at(1, 0));
        assert_eq!(pacer.pace(1), SimTime::at(1, 0));
        pacer.advance_to(SimTime::at(0, 5));
        assert_eq!(pacer.now(), SimTime::at(1, 0), "never moves backwards");
        assert_eq!(pacer.shards(), 2);
        assert_eq!(pacer.base_rate(), 10);
        assert!(pacer.model().is_valid());
    }

    #[test]
    fn virtual_queue_depth_is_a_pure_function_of_time() {
        let epoch = SimTime::at(1, 0);
        let mut queue = VirtualQueue::new(epoch);
        for _ in 0..100 {
            queue.enqueue();
        }
        assert_eq!(queue.enqueued(), 100);
        assert_eq!(queue.depth_at(epoch, Some(7)), 100);
        assert_eq!(
            queue.depth_at(epoch + SimDuration::from_secs(10), Some(7)),
            30
        );
        // Depth is non-increasing in time and saturates at zero.
        let mut previous = u64::MAX;
        for secs in 0..40 {
            let depth = queue.depth_at(epoch + SimDuration::from_secs(secs), Some(7));
            assert!(depth <= previous);
            previous = depth;
        }
        assert_eq!(
            queue.depth_at(epoch + SimDuration::from_days(1), Some(7)),
            0
        );
        assert_eq!(queue.depth_at(epoch, None), 0, "infinite drain");
    }

    #[test]
    #[should_panic(expected = "low watermark must be below high")]
    fn queue_pacer_rejects_inverted_watermarks() {
        QueuePacer::new(
            SimTime::EPOCH,
            10,
            1,
            QueueModel {
                drain_rate: Some(1),
                high_watermark: 4,
                low_watermark: 4,
                ..QueueModel::unbounded()
            },
        );
    }

    /// Satellite: per-shard drain overrides apply per index and fall back to
    /// the uniform rate past the end of the list.
    #[test]
    fn per_shard_drain_overrides_apply_per_index() {
        let mut model = QueueModel::per_shard_drain([5, 50]);
        assert_eq!(model.drain_for(0), Some(5));
        assert_eq!(model.drain_for(1), Some(50));
        assert_eq!(model.drain_for(2), None, "no uniform fallback configured");
        model.drain_rate = Some(7);
        assert_eq!(model.drain_for(2), Some(7), "uniform fallback");
        assert_eq!(model.drain_for(0), Some(5), "override still wins");
        assert!(model.is_valid());
    }

    /// Satellite: `calibrated` maps measured ns-per-observation straight to
    /// per-shard drain rates — `1e9 / ns`, floored, never zero — so the
    /// `shard_ingest` calibration artifact can feed the model directly.
    #[test]
    fn calibrated_maps_ns_per_observation_to_drain_rates() {
        // 1487 ns/obs and 1283 ns/obs: the seeded baseline.json magnitudes.
        let model = QueueModel::calibrated([1_487, 1_283]);
        assert_eq!(model.drain_for(0), Some(672_494), "1e9 / 1487, floored");
        assert_eq!(model.drain_for(1), Some(779_423), "1e9 / 1283, floored");
        assert_eq!(model.drain_for(2), None, "one rate per measured shard");
        assert!(model.is_valid(), "default watermarks ride along");
        // Degenerate measurements clamp instead of modelling a stuck or
        // infinitely fast consumer.
        let edge = QueueModel::calibrated([0, u64::MAX, 1_000_000_000, 2_000_000_000]);
        assert_eq!(edge.drain_for(0), Some(1_000_000_000), "0 ns reads as 1 ns");
        assert_eq!(edge.drain_for(1), Some(1), "slower than 1/s clamps to 1");
        assert_eq!(edge.drain_for(2), Some(1));
        assert_eq!(edge.drain_for(3), Some(1), "floor would be 0; clamps to 1");
    }

    /// Satellite: asymmetric per-shard drain rates keep the pace/skip
    /// equivalence — a producer owning a strided slice replays the identical
    /// rate trajectory, so feedback over an asymmetric consumer fleet stays
    /// producer-invariant.
    #[test]
    fn asymmetric_per_shard_drain_is_producer_invariant() {
        let model = QueueModel {
            high_watermark: 12,
            low_watermark: 2,
            ..QueueModel::per_shard_drain([2, 40, 9])
        };
        let mut solo = QueuePacer::new(SimTime::at(1, 3), 16, 3, model.clone());
        // Three "producers", each pacing its own stride and skipping foreign
        // positions — the multi-producer discipline.
        let mut fleet: Vec<QueuePacer> = (0..3)
            .map(|_| QueuePacer::new(SimTime::at(1, 3), 16, 3, model.clone()))
            .collect();
        let mut throttled = false;
        for i in 0..2_000u64 {
            let shard = (i % 3) as usize;
            let t = solo.pace(shard);
            throttled |= solo.rate() < 16;
            for (producer, pacer) in fleet.iter_mut().enumerate() {
                if i as usize % 3 == producer {
                    assert_eq!(pacer.pace(shard), t, "position {i} producer {producer}");
                } else {
                    pacer.skip(shard);
                }
            }
            for pacer in &fleet {
                assert_eq!(pacer, &solo, "position {i}");
            }
        }
        assert!(throttled, "the slow shard must throttle the fleet");
        // The slowest shard dominates the depth signal.
        assert!(solo.shard_depth(0) >= solo.shard_depth(1));
    }
}
