//! The adapter that drives a probe transport as an observation stream.
//!
//! The paper has one probing primitive — a permuted, paced pass over a
//! target list, run once for expansion, once for density and then daily for
//! detection and tracking — and [`ContinuousStream`] is it: the same target
//! list revisited window after window of virtual time, each observation
//! stamped with the sequence number and paced send time
//! [`Scanner::scan`](scent_prober::Scanner) would give that position. A
//! one-shot scan is the same stream limited to one window
//! ([`LimitedSource`](crate::clock::LimitedSource)) and tagged with its
//! methodology phase ([`ContinuousStreamBuilder::phase`]) — which is what
//! makes the streamed pipeline bit-identical to the batch one.
//!
//! Every stream paces with one [`QueuePacer`], against the deterministic
//! **virtual-queue feedback model** ([`ContinuousStreamBuilder::feedback`];
//! the default, [`QueueModel::unbounded`], never backs off, so it is the
//! paper's fixed rate). Under a model that can throttle, the pacer accounts
//! every probing-order position against the virtual queue of the shard the
//! router will send it to ([`ShardMap::shard_for`], the one routing rule,
//! looked up per position) and applies AIMD rate events at virtual second
//! boundaries. A model that cannot throttle keeps every depth at zero, so it
//! is paced over one queue: no position pays a lookup, and a run of foreign
//! positions is skipped in one step per send second. Either way the send
//! times are a pure function of `(config, target order, virtual time)` —
//! not of OS channel pressure — so pacing composes with producer slicing: a
//! sliced stream accounts the positions other producers own (skipping them
//! without probing) and therefore replays the same global rate trajectory
//! locally, keeping the P-producer merge bit-identical to the
//! single-producer run.
//!
//! Streams are constructed through a builder ([`ContinuousStream::builder`])
//! so call sites name the knobs they set instead of threading long
//! positional argument lists.

use std::net::Ipv6Addr;
use std::ops::Range;

use scent_prober::{ProbeTransport, QueueModel, QueuePacer, ResponseRecord, TargetStream};
use scent_simnet::{SimDuration, SimTime};

use crate::observation::{Observation, ObservationSource, Phase};
use crate::router::ShardMap;

/// An infinite virtual-time probe stream: the same targets, window after
/// window, optionally with deterministic AIMD rate feedback.
///
/// A stream can be restricted to one producer's strided slice of every
/// window's probing order ([`ContinuousStreamBuilder::slice`]): producer `k`
/// of `P` then yields only positions `k, k + P, k + 2P, …`. The slices
/// partition the full stream's output exactly, and because they interleave
/// position-wise, a k-way merge consumes all P producers round-robin — no
/// producer ever waits for another to finish. A sliced stream fast-forwards
/// its pacer over the positions other producers own, so every observation it
/// emits carries exactly the sequence number and virtual send time the
/// single-producer stream assigns to that position — including across window
/// boundaries and overrunning windows, and including every
/// multiplicative/additive rate event of the virtual-queue feedback model
/// when one is attached ([`ContinuousStreamBuilder::feedback`]).
pub struct ContinuousStream<'a, T: ProbeTransport + ?Sized> {
    transport: &'a T,
    targets: TargetStream,
    pub(crate) pacing: WindowPacer,
    phase: Phase,
    tenant: u32,
    /// Probing-order positions of the current window already accounted for
    /// on the pacer (sent by this producer or skipped as foreign).
    accounted: u64,
}

/// A pass's pacing state, written once for the two places that hold it: a
/// [`ContinuousStream`] and the merge-side
/// [`RateReplica`](crate::observe::RateReplica) cloned from it. It holds the
/// pacer, the map positions are accounted against and the window-entry
/// rule.
#[derive(Clone)]
pub(crate) struct WindowPacer {
    pacer: QueuePacer,
    map: ShardMap,
    first_start: SimTime,
    window_interval: SimDuration,
    /// The window the pacer is in; `None` before the first position.
    entered: Option<u64>,
}

impl WindowPacer {
    /// Enter `window`, unless already in it: advance the pacer to the
    /// window's nominal start (never probing back in time).
    pub(crate) fn enter(&mut self, window: u64) {
        if self.entered != Some(window) {
            let nominal = window_start(self.first_start, self.window_interval, window);
            self.pacer.advance_to(nominal);
            self.entered = Some(window);
        }
    }

    /// Pace the position probing `target`: its send time.
    pub(crate) fn pace(&mut self, target: Ipv6Addr) -> SimTime {
        self.pacer.pace(self.map.shard_for(target))
    }

    /// Account `positions` of `targets`' current window as foreign: in bulk
    /// over one queue, else one target derivation and shard lookup a
    /// position.
    fn skip(&mut self, targets: &TargetStream, positions: Range<u64>) {
        if self.map.shards() == 1 {
            self.pacer.skip_many(0, positions.end - positions.start);
        } else {
            for pos in positions {
                self.pacer
                    .skip(self.map.shard_for(targets.target_at(pos as usize)));
            }
        }
    }

    /// The current effective rate.
    pub(crate) fn rate(&self) -> u64 {
        self.pacer.rate()
    }

    /// The maximum virtual-queue depth at the pacer's current instant.
    pub(crate) fn depth(&self) -> u64 {
        self.pacer.depth()
    }
}

/// Builder for [`ContinuousStream`].
#[derive(Debug)]
pub struct ContinuousStreamBuilder<'a, T: ProbeTransport + ?Sized> {
    transport: &'a T,
    targets: TargetStream,
    packets_per_second: u64,
    phase: Phase,
    tenant: u32,
    first_start: SimTime,
    window_interval: SimDuration,
    model: QueueModel,
    map: Option<ShardMap>,
}

impl<'a, T: ProbeTransport + ?Sized> ContinuousStreamBuilder<'a, T> {
    /// The methodology phase observations are tagged with (default:
    /// [`Phase::Detection`], the monitor's; a one-window scan pass of the
    /// streamed pipeline tags its own).
    pub fn phase(mut self, phase: Phase) -> Self {
        self.phase = phase;
        self
    }

    /// The probe budget per second the AIMD feedback recovers to (default:
    /// the paper's 10,000).
    pub fn rate_pps(mut self, packets_per_second: u64) -> Self {
        self.packets_per_second = packets_per_second;
        self
    }

    /// The campaign (tenant) observations are stamped with (default: 0, the
    /// standalone single-tenant monitor). The tenant rides every observation
    /// into the merged clock's key, keeping multi-campaign merges
    /// deterministic; it never affects probing order or send times.
    pub fn tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Virtual time of window 0 (default: day 0, hour 0). The pacer and its
    /// virtual queues' drain clock start at the stream's first window
    /// ([`ContinuousStreamBuilder::build`]).
    pub fn start(mut self, first_start: SimTime) -> Self {
        self.first_start = first_start;
        self
    }

    /// Virtual time between window starts (default: 24 hours, the paper's
    /// snapshot cadence): window `w` is entered no earlier than
    /// `start + w × window_interval`. A one-window scan pass anchored at its
    /// own start passes a zero interval, so its pacer starts exactly there
    /// whatever window number the pass is tagged with.
    pub fn window_interval(mut self, window_interval: SimDuration) -> Self {
        self.window_interval = window_interval;
        self
    }

    /// Restrict the stream to producer `producer`'s strided slice of each
    /// window's probing order (default: the whole window). A sliced stream's
    /// send times are a pure function of position — with or without the
    /// virtual-queue feedback model — which is what makes a P-producer merge
    /// bit-identical to the single-producer stream.
    ///
    /// Equivalent to passing an already-sliced [`TargetStream`] to
    /// [`ContinuousStream::builder`]; a slice is applied exactly once
    /// ([`TargetStream::slice`] rejects re-slicing).
    pub fn slice(mut self, producer: usize, producers: usize) -> Self {
        self.targets = self.targets.slice(producer, producers);
        self
    }

    /// Pace this stream with the deterministic virtual-queue feedback model
    /// (default: [`QueueModel::unbounded`], the fixed rate): when `model`
    /// can throttle, every position of every window — own and foreign — is
    /// accounted against `map`'s shard assignment and `model`'s drain rate
    /// and watermarks, and AIMD rate events fire at virtual second
    /// boundaries. Composes with [`ContinuousStreamBuilder::slice`]: all P
    /// slices replay the identical global rate trajectory, so the merged
    /// stream matches the single-producer one bit for bit.
    pub fn feedback(mut self, model: QueueModel, map: ShardMap) -> Self {
        self.model = model;
        self.map = Some(map);
        self
    }

    /// Build the stream: window `w` begins no earlier than
    /// `start + w * window_interval` (and no earlier than the pacer's own
    /// clock — a stream throttled below the window budget simply runs late,
    /// it never probes back in time).
    ///
    /// The pacer and its virtual queues' drain clock start at the nominal
    /// start of the stream's first window (the window its
    /// target stream is positioned at): a stream that begins at window `w`
    /// has no drain credit for the windows before it.
    pub fn build(self) -> ContinuousStream<'a, T> {
        let born = window_start(
            self.first_start,
            self.window_interval,
            self.targets.current_window(),
        );
        // A model that cannot throttle keeps every depth at zero whatever
        // the routing, so it is paced over one queue.
        let map = (self.map)
            .filter(|_| self.model.can_throttle())
            .unwrap_or_else(|| ShardMap::new(&[], 1));
        let pacer = QueuePacer::new(born, self.packets_per_second, map.shards(), self.model);
        let pacing = WindowPacer {
            pacer,
            map,
            first_start: self.first_start,
            window_interval: self.window_interval,
            entered: None,
        };
        ContinuousStream {
            transport: self.transport,
            targets: self.targets,
            pacing,
            phase: self.phase,
            tenant: self.tenant,
            accounted: 0,
        }
    }
}

impl<'a, T: ProbeTransport + ?Sized> ContinuousStream<'a, T> {
    /// Start building an endless stream of windows over `targets`.
    pub fn builder(transport: &'a T, targets: TargetStream) -> ContinuousStreamBuilder<'a, T> {
        ContinuousStreamBuilder {
            transport,
            targets,
            packets_per_second: 10_000,
            phase: Phase::Detection,
            tenant: 0,
            first_start: SimTime::at(0, 0),
            window_interval: SimDuration::from_days(1),
            model: QueueModel::unbounded(),
            map: None,
        }
    }

    /// The current effective probing rate (the configured budget unless the
    /// virtual-queue model backed it off).
    pub fn rate(&self) -> u64 {
        self.pacing.rate()
    }

    /// The window the next observation will come from.
    pub fn current_window(&self) -> u64 {
        self.targets.current_window()
    }

    /// Number of probes per window (across all producers).
    pub fn window_len(&self) -> usize {
        self.targets.window_len()
    }

    /// Number of probes per window this stream sends itself (`window_len`
    /// unless sliced).
    pub fn slice_len(&self) -> usize {
        self.targets.slice_len()
    }

    /// Account the positions `accounted..until` of the current window as
    /// foreign.
    fn account_to(&mut self, until: u64) {
        self.pacing.skip(&self.targets, self.accounted..until);
        self.accounted = until;
    }
}

impl<T: ProbeTransport + ?Sized> ObservationSource for ContinuousStream<'_, T> {
    fn next_observation(&mut self) -> Option<Observation> {
        let streamed = self.targets.next_target()?;
        if self.pacing.entered != Some(streamed.window) {
            if let Some(window) = self.pacing.entered {
                debug_assert_eq!(streamed.window, window + 1, "windows advance one at a time");
                // Fast-forward over the finished window's remaining foreign
                // positions before entering the new one.
                self.account_to(self.targets.window_len() as u64);
            }
            self.pacing.enter(streamed.window);
            self.accounted = 0;
        }
        // Fast-forward over foreign positions between the last position this
        // pacer accounted for and our own; the pacer then stamps our position
        // with exactly the send time the single-producer stream would.
        self.account_to(streamed.seq);
        self.accounted = streamed.seq + 1;
        let sent_at = self.pacing.pace(streamed.target);
        let response = self
            .transport
            .probe(streamed.target, sent_at)
            .map(|reply| ResponseRecord {
                source: reply.source,
                kind: reply.kind,
            });
        Some(Observation {
            phase: self.phase,
            tenant: self.tenant,
            window: streamed.window,
            seq: streamed.seq,
            target: streamed.target,
            sent_at,
            response,
        })
    }
}

/// The nominal start of `window`: `first_start + window × interval`.
fn window_start(first_start: SimTime, interval: SimDuration, window: u64) -> SimTime {
    first_start + SimDuration::from_secs(interval.as_secs() * window)
}

/// The shard of every within-window position of `targets`: entry `p` is
/// [`ShardMap::shard_for`] of the target probed at sequence number `p`. No
/// run builds one; the router and the pacer look each target up.
///
/// Kept for e2ebench's frozen import list — do not build on; goes at the
/// next benchmark revision.
pub fn continuous_seq_shards(map: &ShardMap, targets: &TargetStream) -> Vec<u32> {
    (0..targets.window_len())
        .map(|pos| map.shard_for(targets.target_at(pos)) as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LimitedSource;
    use scent_prober::{ProbePacer, Scanner, ScannerConfig, TargetGenerator};
    use scent_simnet::{scenarios, Engine};

    /// One scan pass, as the pipeline builds it: the continuous stream over
    /// `targets` in `Scanner` order, tagged `window`, anchored at `start`
    /// (zero interval), producer `k` of `of`.
    fn scan_pass<'a>(
        engine: &'a Engine,
        targets: &[std::net::Ipv6Addr],
        (seed, randomize): (u64, bool),
        window: u64,
        start: SimTime,
        (k, of): (usize, usize),
    ) -> ContinuousStreamBuilder<'a, Engine> {
        let order = TargetStream::over(targets.to_vec(), seed, randomize);
        ContinuousStream::builder(engine, order.starting_at_window(window))
            .start(start)
            .window_interval(SimDuration::from_secs(0))
            .slice(k, of)
    }

    /// Drain exactly one window of `stream` — a scan pass is a one-window
    /// continuous stream.
    fn drain<T: ProbeTransport + ?Sized>(stream: &mut ContinuousStream<'_, T>) -> Vec<Observation> {
        let window = stream.slice_len() as u64;
        let mut pass = LimitedSource::new(stream, window);
        std::iter::from_fn(|| pass.next_observation()).collect()
    }

    #[test]
    fn scan_stream_replays_scanner_exactly() {
        let engine = Engine::build(scenarios::entel_like(5)).unwrap();
        let pool = engine.pools()[0].config.prefix;
        let targets = TargetGenerator::new(1).one_per_subnet(&pool, 56);
        let config = ScannerConfig {
            packets_per_second: 10_000,
            seed: 7,
            randomize_order: true,
        };
        let scan = Scanner::new(config).scan(&engine, &targets, SimTime::at(1, 9));

        let mut stream = scan_pass(&engine, &targets, (7, true), 0, SimTime::at(1, 9), (0, 1))
            .phase(Phase::Density)
            .rate_pps(10_000)
            .build();
        assert_eq!(stream.window_len(), targets.len());
        let streamed: Vec<_> = drain(&mut stream).iter().map(|obs| obs.record()).collect();
        assert_eq!(streamed, scan.records);
    }

    /// A one-shard map answers 0 for every position, and for unannounced
    /// space, without a lookup; with more shards the shim is
    /// [`ShardMap::shard_for`] at every position.
    #[test]
    fn seq_table_of_a_single_shard_map_skips_the_walk() {
        let engine = Engine::build(scenarios::continuous_world(5)).unwrap();
        let watched: Vec<_> = (engine.pools().iter())
            .map(|pool| pool.config.prefix.nth_subnet(48, 0).unwrap())
            .collect();
        let targets = TargetStream::new(&TargetGenerator::new(4), &watched, 56, 11, true);
        let one = ShardMap::new(&engine.rib().entries(), 1);
        assert_eq!(
            continuous_seq_shards(&one, &targets),
            vec![0; targets.window_len()]
        );
        assert_eq!(one.shard_for("3fff::1".parse().unwrap()), 0);
        let three = ShardMap::new(&engine.rib().entries(), 3);
        let table = continuous_seq_shards(&three, &targets);
        for (pos, &shard) in table.iter().enumerate() {
            assert_eq!(
                shard as usize,
                three.shard_for(targets.target_at(pos)),
                "{pos}"
            );
        }
        assert!(table.iter().any(|&shard| shard != table[0]));
    }

    #[test]
    fn scan_stream_in_list_order_and_window_tag() {
        let engine = Engine::build(scenarios::entel_like(5)).unwrap();
        let pool = engine.pools()[0].config.prefix;
        let targets = TargetGenerator::new(1).one_per_subnet(&pool, 60);
        let mut stream = scan_pass(
            &engine,
            &targets,
            (0x5eed, false),
            3,
            SimTime::at(1, 9),
            (0, 1),
        )
        .phase(Phase::Detection)
        .build();
        let mut seen = Vec::new();
        for obs in drain(&mut stream) {
            assert_eq!(obs.window, 3);
            assert_eq!(obs.phase, Phase::Detection);
            seen.push(obs.target);
        }
        assert_eq!(seen, targets, "list order preserved");
    }

    /// An unbounded queue model must not move a scan's send times at all:
    /// the feedback-on stream with `drain_rate = None` replays the
    /// feedback-off stream exactly, for any producer count.
    #[test]
    fn unbounded_feedback_scan_equals_fixed_pacing() {
        let engine = Engine::build(scenarios::entel_like(5)).unwrap();
        let pool = engine.pools()[0].config.prefix;
        let targets = TargetGenerator::new(1).one_per_subnet(&pool, 56);
        let map = ShardMap::new(&engine.rib().entries(), 3);
        let build = |k, of| scan_pass(&engine, &targets, (7, true), 0, SimTime::at(1, 9), (k, of));
        let fixed = drain(&mut build(0, 1).build());
        let unbounded = drain(
            &mut build(0, 1)
                .feedback(QueueModel::unbounded(), map.clone())
                .build(),
        );
        assert_eq!(fixed, unbounded);

        // And a sliced feedback-on scan still partitions the unsliced one.
        for producers in [2usize, 3] {
            let mut merged: Vec<Observation> = (0..producers)
                .flat_map(|k| {
                    drain(
                        &mut build(k, producers)
                            .feedback(QueueModel::unbounded(), map.clone())
                            .build(),
                    )
                })
                .collect();
            merged.sort_by_key(|o| o.seq);
            assert_eq!(merged, fixed, "producers={producers}");
        }
    }

    /// The throttling queue model the scan-level feedback tests share.
    fn throttling_model() -> QueueModel {
        QueueModel {
            drain_rate: Some(16),
            high_watermark: 48,
            low_watermark: 8,
            ..QueueModel::unbounded()
        }
    }

    /// The scan-level contract: with a *throttling* queue model, the merged
    /// feedback-on slices still reproduce the single-producer feedback-on
    /// stream bit for bit — every producer replays the same rate trajectory
    /// over foreign positions. Over two shards a producer walks them one
    /// lookup at a time; over one it skips each foreign run in bulk, feedback
    /// and all — for one scan window, and for two windows whose probing
    /// overruns the interval between them.
    #[test]
    fn throttled_feedback_scan_is_producer_invariant() {
        let engine = Engine::build(scenarios::entel_like(5)).unwrap();
        let pool = engine.pools()[0].config.prefix;
        let targets = TargetGenerator::new(1).one_per_subnet(&pool, 56);
        let start = SimTime::at(1, 9);
        let interval = SimDuration::from_secs(4);
        for shards in [2, 1] {
            let map = ShardMap::new(&engine.rib().entries(), shards);
            let build = |k: usize, of: usize| {
                scan_pass(&engine, &targets, (7, true), 0, start, (k, of))
                    .rate_pps(64) // low budget => many virtual seconds => rate events
                    .feedback(throttling_model(), map.clone())
                    .build()
            };
            let mut reference = build(0, 1);
            let single = drain(&mut reference);
            // The model must actually bite, or the property is vacuous.
            assert!(reference.rate() < 64, "drain 16/s must throttle 64 pps");
            // Throttling stretches virtual time compared to the fixed
            // trajectory.
            let fixed_last = ProbePacer::new(start, 64).send_time(targets.len() as u64 - 1);
            assert!(single.last().unwrap().sent_at > fixed_last);

            // Producers `k` of `of` over two windows `interval` apart: the
            // merged observations and the end rate of the producer that
            // probed the last position.
            let two_windows = |of: usize| {
                let mut merged = Vec::new();
                let mut end_rate = 0;
                for k in 0..of {
                    let order = TargetStream::over(targets.clone(), 7, true).slice(k, of);
                    let mut stream = ContinuousStream::builder(&engine, order)
                        .rate_pps(64)
                        .start(start)
                        .window_interval(interval)
                        .feedback(throttling_model(), map.clone())
                        .build();
                    let limit = 2 * stream.slice_len() as u64;
                    let mut pass = LimitedSource::new(&mut stream, limit);
                    merged.extend(std::iter::from_fn(|| pass.next_observation()));
                    if k == (targets.len() - 1) % of {
                        end_rate = stream.rate();
                    }
                }
                merged.sort_by_key(|o| (o.window, o.seq));
                (merged, end_rate)
            };
            let (both, end_rate) = two_windows(1);
            assert!(end_rate < 64, "shards={shards}: the rate backed off");
            let second = both.iter().position(|o| o.window == 1).unwrap();
            assert!(
                both[second - 1].sent_at > start + interval,
                "window 0 overruns window 1's start"
            );
            assert!(both[second].sent_at >= both[second - 1].sent_at);

            for producers in [2usize, 4, 8] {
                let at = format!("shards={shards} producers={producers}");
                let mut merged: Vec<Observation> = (0..producers)
                    .flat_map(|k| drain(&mut build(k, producers)))
                    .collect();
                merged.sort_by_key(|o| o.seq);
                assert_eq!(merged, single, "{at}");
                assert_eq!(two_windows(producers), (both.clone(), end_rate), "{at}");
            }
        }
    }

    /// A scan pass tagged window 1 — the pipeline's second detection
    /// snapshot — paces exactly like window 0's pass, shifted by its own
    /// start: fresh queues, and a drain clock that starts where the pass
    /// does. Built instead as window 1 of a stream whose window 0 started a
    /// day earlier — a monitor epoch that starts at window 1 — it paces the
    /// same: the drain clock starts at the stream's first window, so the
    /// queues get no day of drain credit.
    #[test]
    fn throttled_feedback_pass_at_window_one_is_window_zero_shifted() {
        let engine = Engine::build(scenarios::entel_like(5)).unwrap();
        let pool = engine.pools()[0].config.prefix;
        let targets = TargetGenerator::new(1).one_per_subnet(&pool, 56);
        let map = ShardMap::new(&engine.rib().entries(), 2);
        let day = SimDuration::from_days(1);
        let first = SimTime::at(1, 9);
        let offsets = |stream: &mut ContinuousStream<'_, Engine>, start: SimTime| {
            let trajectory: Vec<(u64, u64)> = drain(stream)
                .iter()
                .map(|obs| (obs.seq, obs.sent_at.since(start).as_secs()))
                .collect();
            (trajectory, stream.rate())
        };
        let pass = |window: u64, start: SimTime| {
            scan_pass(&engine, &targets, (7, true), window, start, (0, 1))
                .rate_pps(64)
                .feedback(throttling_model(), map.clone())
                .build()
        };
        let (window_zero, rate_zero) = offsets(&mut pass(0, first), first);
        assert!(rate_zero < 64, "non-vacuous: the model throttled");
        let (window_one, rate_one) = offsets(&mut pass(1, first + day), first + day);
        assert_eq!(window_one, window_zero);
        assert_eq!(rate_one, rate_zero);

        // The day-early construction: same window, same nominal start,
        // window 0 a day before it.
        let order = TargetStream::over(targets.clone(), 7, true).starting_at_window(1);
        let mut early = ContinuousStream::builder(&engine, order)
            .rate_pps(64)
            .start(first)
            .window_interval(day)
            .feedback(throttling_model(), map.clone())
            .build();
        let (day_early, rate_early) = offsets(&mut early, first + day);
        assert_eq!(rate_early, rate_zero);
        assert_eq!(day_early, window_zero);
    }

    /// Regression: an observation emitted exactly on a window boundary (the
    /// previous window's probing consumed its interval to the second) must be
    /// tagged with the *new* window — under any producer count.
    #[test]
    fn boundary_observation_lands_in_the_new_window_for_any_producer_count() {
        let engine = Engine::build(scenarios::continuous_world(9)).unwrap();
        let pool = engine.pools()[0].config.prefix;
        let watched = [pool.nth_subnet(48, 0).unwrap()];
        let start = SimTime::at(10, 9);
        let make = |k: usize, producers: usize| {
            // 256 targets at 256 pps and a 1-second interval: window w's
            // probing exactly fills [start + w, start + w + 1).
            let targets = TargetStream::new(&TargetGenerator::new(4), &watched, 56, 11, true);
            ContinuousStream::builder(&engine, targets)
                .rate_pps(256)
                .start(start)
                .window_interval(SimDuration::from_secs(1))
                .slice(k, producers)
                .build()
        };
        let drain_two_windows = |producers: usize| {
            let mut sources: Vec<_> = (0..producers).map(|k| make(k, producers)).collect();
            let mut merged = Vec::new();
            // Round-robin-ish drain in key order via the merged clock.
            let mut clock = crate::clock::MergedClock::new(
                sources
                    .drain(..)
                    .map(|s| {
                        let per_window = s.slice_len() as u64;
                        crate::clock::LimitedSource::new(s, per_window * 2)
                    })
                    .collect(),
            );
            while let Some(obs) =
                crate::observation::ObservationSource::next_observation(&mut clock)
            {
                merged.push(obs);
            }
            merged
        };

        let single = drain_two_windows(1);
        assert_eq!(single.len(), 512);
        // Window 0 fills second 0 exactly; the first window-1 observation
        // lands exactly on the boundary instant and belongs to window 1.
        assert!(single[..256].iter().all(|o| o.window == 0));
        assert!(single[..256].iter().all(|o| o.sent_at == start));
        let boundary = &single[256];
        assert_eq!(
            boundary.window, 1,
            "boundary observation tags the new window"
        );
        assert_eq!(boundary.seq, 0);
        assert_eq!(boundary.sent_at, start + SimDuration::from_secs(1));
        assert!(single[256..].iter().all(|o| o.window == 1));

        for producers in [2usize, 4] {
            assert_eq!(
                drain_two_windows(producers),
                single,
                "producers={producers}"
            );
        }

        // An overrunning window (rate below the per-window budget) may spill
        // past the boundary, but a new window still never starts before its
        // nominal time — again for any producer count.
        let make_slow = |k: usize, producers: usize| {
            let targets = TargetStream::new(&TargetGenerator::new(4), &watched, 56, 11, true);
            // 256 targets at 192 pps overrun the 1-second interval: window 0
            // spends 192 probes in its own second and 64 in the boundary
            // second, which window 1 then shares.
            ContinuousStream::builder(&engine, targets)
                .rate_pps(192)
                .start(start)
                .window_interval(SimDuration::from_secs(1))
                .slice(k, producers)
                .build()
        };
        let drain_slow = |producers: usize| {
            let mut clock = crate::clock::MergedClock::new(
                (0..producers)
                    .map(|k| {
                        let s = make_slow(k, producers);
                        let per_window = s.slice_len() as u64;
                        crate::clock::LimitedSource::new(s, per_window * 2)
                    })
                    .collect(),
            );
            let mut all = Vec::new();
            while let Some(obs) =
                crate::observation::ObservationSource::next_observation(&mut clock)
            {
                all.push(obs);
            }
            all
        };
        let slow = drain_slow(1);
        for obs in &slow {
            let nominal = start + SimDuration::from_secs(obs.window);
            assert!(obs.sent_at >= nominal, "window starts before its time");
        }
        // The overrun makes window 0's tail share its second with window 1's
        // head; the window tags must still partition by position.
        assert_eq!(slow[255].window, 0);
        assert_eq!(slow[256].window, 1);
        assert_eq!(
            slow[255].sent_at, slow[256].sent_at,
            "shared boundary second"
        );
        assert_eq!(drain_slow(4), slow);
    }

    /// The feedback-on continuous stream is producer-invariant across window
    /// boundaries, and the producer that probes a pass's last position —
    /// `(L − 1) % P` of a window of `L` — ends on exactly the single
    /// producer's rate: the engine reads a pass's end rate off it.
    #[test]
    fn feedback_continuous_stream_is_producer_invariant_and_replayable() {
        let engine = Engine::build(scenarios::continuous_world(9)).unwrap();
        let pool = engine.pools()[0].config.prefix;
        let watched = pool.nth_subnet(48, 0).unwrap();
        let start = SimTime::at(10, 9);
        let map = ShardMap::new(&engine.rib().entries(), 2);
        let model = QueueModel {
            drain_rate: Some(8),
            high_watermark: 32,
            low_watermark: 4,
            ..QueueModel::unbounded()
        };
        let all = TargetGenerator::new(4).one_per_subnet(&watched, 56);
        // Producers `k` of `producers` over `windows` windows of `targets`:
        // the merged observations, and every producer's rate at its end.
        let run = |targets: &TargetStream, producers: usize, windows: u64| {
            let mut merged = Vec::new();
            let mut rates = Vec::new();
            for k in 0..producers {
                let mut stream = ContinuousStream::builder(&engine, targets.clone())
                    .rate_pps(64)
                    .start(start)
                    .window_interval(SimDuration::from_secs(4))
                    .slice(k, producers)
                    .feedback(model.clone(), map.clone())
                    .build();
                for _ in 0..stream.slice_len() as u64 * windows {
                    merged.push(stream.next_observation().unwrap());
                }
                rates.push(stream.rate());
            }
            merged.sort_by_key(|o| (o.window, o.seq));
            (merged, rates)
        };
        // Neither 3 nor 5 divides 256 or 91; 7 is fewer than 8 producers.
        for len in [256, 91, 7] {
            let targets = TargetStream::over(all[..len].to_vec(), 11, true);
            for windows in [1, 3] {
                let (single, live) = run(&targets, 1, windows);
                if len == 256 {
                    assert!(live[0] < 64, "non-vacuous: drain 8/s throttles 64 pps");
                }
                for producers in [2usize, 3, 5, 8] {
                    let at = format!("len={len} windows={windows} producers={producers}");
                    let (merged, rates) = run(&targets, producers, windows);
                    assert_eq!(merged, single, "{at}");
                    assert_eq!(rates[(len - 1) % producers], live[0], "{at}");
                }
            }
        }
    }

    #[test]
    fn continuous_stream_windows_advance_time() {
        let engine = Engine::build(scenarios::continuous_world(9)).unwrap();
        let pool = engine.pools()[0].config.prefix;
        let targets = TargetStream::new(
            &TargetGenerator::new(4),
            &[pool.nth_subnet(48, 0).unwrap()],
            56,
            11,
            true,
        );
        let len = targets.window_len();
        let mut stream = ContinuousStream::builder(&engine, targets)
            .rate_pps(10_000)
            .start(SimTime::at(10, 9))
            .window_interval(SimDuration::from_days(1))
            .build();
        assert_eq!(stream.window_len(), len);
        assert_eq!(stream.rate(), 10_000);
        // Two full windows: the same targets, a day apart.
        let w0: Vec<Observation> = (0..len)
            .map(|_| stream.next_observation().unwrap())
            .collect();
        assert_eq!(stream.current_window(), 1);
        let w1: Vec<Observation> = (0..len)
            .map(|_| stream.next_observation().unwrap())
            .collect();
        assert!(w0.iter().all(|o| o.window == 0));
        assert!(w1.iter().all(|o| o.window == 1));
        assert_eq!(
            w0.iter().map(|o| o.target).collect::<Vec<_>>(),
            w1.iter().map(|o| o.target).collect::<Vec<_>>()
        );
        assert!(w0.iter().all(|o| o.sent_at.day() == 10));
        assert!(w1.iter().all(|o| o.sent_at.day() == 11));
    }
}
