//! Probe pacing against the virtual clock.
//!
//! The paper probes at a deliberately conservative 10k packets per second
//! (§3.1, §7), and several of its cost arguments (e.g. "about 13 seconds at
//! 10 kpps" for a /46 rotation pool of /64s, or the "75 seconds of active
//! probing" for EUI-64 IID #2 in Table 2) are statements about how long a
//! probe budget takes to spend at that rate. [`ProbePacer`] converts probe
//! indices into virtual send times at a fixed rate — the batch scanner's.
//! [`QueuePacer`] paces a continuous stream at the same fixed rate, backing
//! it off only when the deterministic virtual-queue model ([`QueueModel`])
//! says the stream's consumer fell behind.

use serde::{Deserialize, Serialize};

use scent_simnet::{SimDuration, SimTime};

/// Deterministic pacing: probe `i` of a scan is sent at
/// `start + i / packets_per_second`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    pub(crate) fn duration_for(&self, count: u64) -> SimDuration {
        SimDuration::from_secs(count.div_ceil(self.packets_per_second))
    }

    /// The time the scan finishes if it sends `count` probes.
    pub(crate) fn finish_time(&self, count: u64) -> SimTime {
        self.start + self.duration_for(count)
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
    pub(crate) fn drain_for(&self, shard: usize) -> Option<u64> {
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

/// The continuous-stream pacer: a fixed probe budget that backs off (AIMD)
/// when the deterministic virtual-queue model ([`QueueModel`]) says its
/// consumers fell behind.
///
/// The batch [`ProbePacer`] computes send times from a fixed rate; a
/// long-running monitor instead has consumers (inference shards) that can
/// fall behind. Every observation enqueues one unit on its shard's virtual
/// queue, and a shard's depth at a virtual instant is its enqueue count
/// minus what `QueueModel::drain_for` it retired since the pacer started
/// (saturating at zero) — a pure function of the position sequence and
/// virtual time, never of a real channel. Each time the cursor rolls over
/// to a new send second, the maximum shard depth decides: at or above the
/// high watermark the rate halves (down to a floor of 1/64 of the budget,
/// so a stream never stalls), at or below the low watermark it recovers by
/// 1/16 of the budget (up to the budget). Under a model that cannot
/// throttle every depth is zero and the trajectory is the fixed rate's,
/// exactly.
///
/// Every probing-order position — owned or foreign — is accounted through
/// [`QueuePacer::pace`], [`QueuePacer::skip`] or
/// [`QueuePacer::skip_many`], which perform the *identical* state
/// transition (the only difference is whether the caller sends a probe).
/// So P producers that each account all positions (probing only their own
/// strided slice) hold bit-identical pacer states at every position — the
/// property that makes AIMD feedback compatible with sharded producers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuePacer {
    /// The configured budget, which recovery climbs back to.
    base_pps: u64,
    current_pps: u64,
    /// The back-off floor.
    min_pps: u64,
    cursor: SimTime,
    sent_in_second: u64,
    model: QueueModel,
    /// Where every queue's drain clock starts: the pacer's start.
    epoch: SimTime,
    /// Observations accounted to each shard's queue.
    enqueued: Vec<u64>,
}

impl QueuePacer {
    /// Create a pacer over `shards` virtual queues, starting at `start` with
    /// a non-zero probe budget.
    pub fn new(start: SimTime, packets_per_second: u64, shards: usize, model: QueueModel) -> Self {
        assert!(packets_per_second > 0, "rate must be non-zero");
        assert!(shards > 0, "at least one shard");
        assert!(model.is_valid(), "low watermark must be below high");
        QueuePacer {
            base_pps: packets_per_second,
            current_pps: packets_per_second,
            min_pps: (packets_per_second / 64).max(1),
            cursor: start,
            sent_in_second: 0,
            model,
            epoch: start,
            enqueued: vec![0; shards],
        }
    }

    /// Account one observation routed to `shard` and return its virtual send
    /// time at the current (feedback-adjusted) rate.
    // `pace` and `skip_many` run once a position from another crate, so
    // they are inlined there; `roll_over`, once a send second, is not.
    #[inline]
    pub fn pace(&mut self, shard: usize) -> SimTime {
        if self.sent_in_second >= self.current_pps {
            self.roll_over();
        }
        self.sent_in_second += 1;
        self.enqueued[shard] += 1;
        self.cursor
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

    /// Fast-forward over `count` foreign positions all routed to `shard`:
    /// exactly `count` calls of [`QueuePacer::skip`], in one step per send
    /// second it crosses rather than one per position — feedback is still
    /// evaluated at every rollover.
    #[inline]
    pub fn skip_many(&mut self, shard: usize, mut count: u64) {
        while count > 0 {
            if self.sent_in_second >= self.current_pps {
                self.roll_over();
            }
            let taken = count.min(self.current_pps - self.sent_in_second);
            self.sent_in_second += taken;
            self.enqueued[shard] += taken;
            count -= taken;
        }
    }

    /// Begin the next send second — the well-defined virtual instant at
    /// which the feedback signal is evaluated.
    fn roll_over(&mut self) {
        self.cursor += SimDuration::from_secs(1);
        self.sent_in_second = 0;
        let depth = self.depth();
        if depth >= self.model.high_watermark {
            // Multiplicative back-off: the consumer could not keep up.
            self.current_pps = (self.current_pps / 2).max(self.min_pps);
        } else if depth <= self.model.low_watermark {
            // Additive recovery: the stream is draining freely.
            let step = (self.base_pps / 16).max(1);
            self.current_pps = (self.current_pps + step).min(self.base_pps);
        }
    }

    /// The maximum shard depth at the pacer's current virtual instant. Each
    /// shard drains at `QueueModel::drain_for` its index, so asymmetric
    /// per-shard calibrations feed back through the slowest shard.
    pub fn depth(&self) -> u64 {
        (0..self.enqueued.len())
            .map(|shard| self.shard_depth(shard))
            .max()
            .unwrap_or(0)
    }

    /// The depth of one shard's queue at the current virtual instant.
    fn shard_depth(&self, shard: usize) -> u64 {
        let Some(rate) = self.model.drain_for(shard) else {
            return 0;
        };
        let retired = self.cursor.since(self.epoch).as_secs().saturating_mul(rate);
        self.enqueued[shard].saturating_sub(retired)
    }

    /// The current effective rate.
    pub fn rate(&self) -> u64 {
        self.current_pps
    }

    /// Advance to a window boundary: the next probe is sent no earlier than
    /// `start` (virtual time never runs backwards). No feedback is evaluated
    /// here — rate events fire only at send-second rollovers, which keeps
    /// the instants identical for every producer regardless of where its
    /// slice boundaries fall.
    pub fn advance_to(&mut self, start: SimTime) {
        if start > self.cursor {
            self.cursor = start;
            self.sent_in_second = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A throttling model: 10 observations drained per shard per second,
    /// watermarks 50 / 5.
    fn slow_drain() -> QueueModel {
        QueueModel {
            drain_rate: Some(10),
            high_watermark: 50,
            low_watermark: 5,
            ..QueueModel::unbounded()
        }
    }

    /// Under a model that cannot throttle, pacing interleaved with bulk
    /// skips stamps every position with the fixed pacer's send time.
    #[test]
    fn feedback_pacer_matches_fixed_pacer_without_feedback() {
        let start = SimTime::at(2, 0);
        let fixed = ProbePacer::new(start, 100);
        let mut adaptive = QueuePacer::new(start, 100, 1, QueueModel::unbounded());
        let mut i = 0u64;
        for run in 0..60u64 {
            assert_eq!(adaptive.pace(0), fixed.send_time(i), "probe {i}");
            let skipped = run * 7 % 230;
            adaptive.skip_many(0, skipped);
            i += 1 + skipped;
        }
        assert_eq!(adaptive.pace(0), fixed.send_time(i), "probe {i}");
        assert_eq!(adaptive.rate(), 100);
    }

    /// Depth drives the rate both ways: a queue that builds up halves it at
    /// each rollover, one that has drained lets it climb back by 1/16 of the
    /// budget a second (to the budget, not beyond), and a consumer that
    /// never drains pins it at the floor of 1/64.
    #[test]
    fn feedback_pacer_backs_off_and_recovers() {
        let mut pacer = QueuePacer::new(SimTime::EPOCH, 1024, 1, slow_drain());
        // Second 0 sends 1024; at the rollover 1024 − 10 are still queued.
        pacer.skip_many(0, 1024);
        assert_eq!(pacer.rate(), 1024, "no rollover yet");
        pacer.pace(0);
        assert_eq!(pacer.rate(), 512);
        pacer.skip_many(0, 512);
        assert_eq!(pacer.rate(), 256);
        // A day later every queue has drained: recovery, one step a second.
        pacer.advance_to(SimTime::at(1, 0));
        assert_eq!(pacer.depth(), 0);
        let mut climbed = Vec::new();
        for _ in 0..20 {
            pacer.skip_many(0, pacer.rate());
            pacer.pace(0);
            climbed.push(pacer.rate());
        }
        assert_eq!(climbed[..3], [320, 384, 448]);
        assert!(climbed.iter().all(|&rate| rate <= 1024));
        assert_eq!(pacer.rate(), 1024);
        // The floor prevents a total stall.
        let dead = QueueModel {
            drain_rate: Some(0),
            ..slow_drain()
        };
        let mut stalled = QueuePacer::new(SimTime::EPOCH, 1024, 1, dead);
        stalled.skip_many(0, 100_000);
        assert_eq!(stalled.rate(), 16);
    }

    /// The same position count takes longer in virtual time when the queue
    /// backs the rate off — bulk skips included.
    #[test]
    fn feedback_pacer_slows_virtual_time_under_backpressure() {
        let mut fast = QueuePacer::new(SimTime::EPOCH, 100, 2, QueueModel::unbounded());
        let mut slow = QueuePacer::new(SimTime::EPOCH, 100, 2, slow_drain());
        for shard in [0, 1, 0, 0] {
            fast.skip_many(shard, 500);
            slow.skip_many(shard, 500);
        }
        assert_eq!(fast.pace(1), SimTime::EPOCH + SimDuration::from_secs(20));
        assert!(
            slow.pace(1) > fast.cursor,
            "backed-off rate must take longer"
        );
        assert!(slow.rate() < 100);
    }

    /// Every (skip-count, phase-within-second) combination of a bulk skip
    /// leaves the pacer in exactly the state that many single skips would,
    /// with or without feedback, over one queue or several.
    #[test]
    fn skip_is_equivalent_to_repeated_sends() {
        let tight = QueueModel {
            drain_rate: Some(3),
            high_watermark: 10,
            low_watermark: 2,
            ..QueueModel::unbounded()
        };
        for (model, shards) in [(QueueModel::unbounded(), 1), (tight.clone(), 1), (tight, 3)] {
            for pre in [0u64, 1, 3, 7, 8, 9, 40] {
                for count in [0u64, 1, 2, 7, 8, 9, 16, 100] {
                    let at = format!("{model:?} shards={shards} pre={pre} count={count}");
                    let fresh = || QueuePacer::new(SimTime::at(3, 5), 8, shards, model.clone());
                    let (mut stepped, mut skipped) = (fresh(), fresh());
                    for i in 0..pre {
                        let shard = i as usize % shards;
                        stepped.pace(shard);
                        skipped.pace(shard);
                    }
                    let shard = pre as usize % shards;
                    for _ in 0..count {
                        stepped.skip(shard);
                    }
                    skipped.skip_many(shard, count);
                    assert_eq!(stepped, skipped, "{at}");
                    // And the next probe after the jump agrees too.
                    assert_eq!(stepped.pace(0), skipped.pace(0), "{at}");
                }
            }
        }
    }

    /// Entering a window moves the cursor to its start (never back) and
    /// starts a fresh send second; the queues drain over the jump.
    #[test]
    fn feedback_pacer_advances_to_window_start() {
        let mut pacer = QueuePacer::new(SimTime::at(0, 0), 10, 1, slow_drain());
        pacer.skip_many(0, 9);
        assert_eq!(pacer.depth(), 9);
        pacer.advance_to(SimTime::at(0, 0) + SimDuration::from_secs(1));
        assert_eq!(pacer.depth(), 0, "one second retires 10");
        assert_eq!(
            pacer.pace(0),
            SimTime::at(0, 0) + SimDuration::from_secs(1),
            "the window's first probe is sent at its start"
        );
        assert_eq!(pacer.sent_in_second, 1, "a fresh send second");
        // Moving backwards is a no-op.
        pacer.advance_to(SimTime::at(0, 0));
        assert_eq!(pacer.cursor, SimTime::at(0, 0) + SimDuration::from_secs(1));
        assert_eq!(pacer.sent_in_second, 1);
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
            let before_now = paced.cursor;
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
            if paced.cursor == before_now {
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
        assert_eq!(pacer.cursor, SimTime::at(1, 0));
        assert_eq!(pacer.pace(1), SimTime::at(1, 0));
        pacer.advance_to(SimTime::at(0, 5));
        assert_eq!(pacer.cursor, SimTime::at(1, 0), "never moves backwards");
        assert_eq!(pacer.enqueued, [1, 1]);
    }

    /// A queue's depth is its enqueue count less what its drain rate
    /// retired since the pacer started: a pure function of virtual time.
    #[test]
    fn virtual_queue_depth_is_a_pure_function_of_time() {
        let epoch = SimTime::at(1, 0);
        let drain = |drain_rate| QueueModel {
            drain_rate,
            ..QueueModel::unbounded()
        };
        let mut pacer = QueuePacer::new(epoch, 1_000, 1, drain(Some(7)));
        pacer.skip_many(0, 100);
        assert_eq!(pacer.enqueued, [100]);
        assert_eq!(pacer.depth(), 100);
        pacer.advance_to(epoch + SimDuration::from_secs(10));
        assert_eq!(pacer.depth(), 30);
        // Depth is non-increasing in time and saturates at zero.
        let mut previous = u64::MAX;
        for secs in 10..40 {
            pacer.advance_to(epoch + SimDuration::from_secs(secs));
            assert!(pacer.depth() <= previous);
            previous = pacer.depth();
        }
        assert_eq!(previous, 0);
        let mut infinite = QueuePacer::new(epoch, 1_000, 1, drain(None));
        infinite.skip_many(0, 100);
        assert_eq!(infinite.depth(), 0, "infinite drain");
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

    use proptest::prelude::*;

    proptest! {
        // Random sequences of pace, skip, bulk skip and window entry over
        // random budgets, 1–4 shards and unbounded, uniform or per-shard
        // drain models: a pacer that bulk-skips stays equal, state for
        // state, to one that accounts every position on its own.
        #[test]
        fn bulk_skip_matches_per_position_reference(
            ops in collection::vec((any::<u64>(), any::<u64>()), 1..120),
            rate in 1u64..300,
            shards in 1usize..5,
            drain in (0u64..3, 0u64..40),
        ) {
            let model = QueueModel {
                drain_rate: (drain.0 == 1).then_some(drain.1),
                per_shard_drain: if drain.0 == 2 {
                    (0..shards as u64).map(|i| (drain.1 + 7 * i) % 40).collect()
                } else {
                    Vec::new()
                },
                high_watermark: 12 + drain.1,
                low_watermark: drain.1 / 2,
            };
            let start = SimTime::at(2, 3);
            let mut bulk = QueuePacer::new(start, rate, shards, model.clone());
            let mut reference = QueuePacer::new(start, rate, shards, model);
            for (step, &(op, arg)) in ops.iter().enumerate() {
                let shard = (arg % shards as u64) as usize;
                match op % 4 {
                    0 => prop_assert_eq!(bulk.pace(shard), reference.pace(shard)),
                    1 => {
                        bulk.skip(shard);
                        reference.skip(shard);
                    }
                    2 => {
                        let count = (arg >> 8) % (4 * rate + 3);
                        bulk.skip_many(shard, count);
                        for _ in 0..count {
                            reference.skip(shard);
                        }
                    }
                    _ => {
                        let at = bulk.cursor + SimDuration::from_secs((arg >> 8) % 5);
                        bulk.advance_to(at);
                        reference.advance_to(at);
                    }
                }
                prop_assert!(bulk == reference, "step {step}: {bulk:?} != {reference:?}");
            }
        }
    }
}
