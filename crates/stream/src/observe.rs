//! Merge-side telemetry mirrors: replaying producer-side deterministic
//! state on the consumer thread so the resulting telemetry lands in the
//! *deterministic* tier.
//!
//! With rate feedback on, every producer paces against its own copy of the
//! deterministic [`QueuePacer`] — the trajectory is a pure function of
//! `(config, target order, virtual time)`, so all copies agree. Observing
//! rate transitions from the producers directly would still be
//! producer-count-*shaped* (which thread saw which transition) and
//! scheduler-interleaved. Instead, the merge side runs one more replica of
//! the same pacer and feeds it every merged observation: the merged
//! sequence is bit-identical to the single-producer sequence, so the
//! replica reproduces the exact single-producer AIMD trajectory — including
//! every send time, asserted in debug builds — no matter how many producers
//! probed concurrently. Back-off/recovery events and virtual-queue depths
//! journaled from the replica are therefore byte-identical across producer
//! counts, which is what qualifies them for the deterministic telemetry
//! tier.

use scent_prober::{QueueModel, QueuePacer};
use scent_simnet::{SimDuration, SimTime};
use scent_telemetry::StreamObserver;

use crate::observation::Observation;
use crate::router::ShardMap;
use crate::source::window_start;

/// A merge-side replica of the producers' virtual-queue pacer (see the
/// [module docs](self)).
///
/// A fresh replica goes with every fresh stream: the
/// [`IngestEngine`](crate::engine::IngestEngine) builds one per pass — per
/// scan phase in the pipeline, per epoch in the monitor (the pacer restarts
/// at the configured budget at every epoch boundary).
#[derive(Debug, Clone)]
pub struct RateReplica {
    pacer: QueuePacer,
    map: ShardMap,
    first_start: SimTime,
    window_interval: SimDuration,
    entered: Option<u64>,
    /// The deepest virtual queue this pass has reported.
    high_water: u64,
}

impl RateReplica {
    /// A replica of a [`ContinuousStream`](crate::source::ContinuousStream)'s
    /// pacer with feedback attached. `first_start` and `window_interval`
    /// must match the live stream's so window entries advance the replica to
    /// the same nominal starts, and `first_window` must be the window the
    /// live stream starts at: like the stream's, the replica's pacer and
    /// drain clock start at that window's nominal start.
    pub fn continuous(
        first_start: SimTime,
        first_window: u64,
        packets_per_second: u64,
        model: QueueModel,
        map: ShardMap,
        window_interval: SimDuration,
    ) -> Self {
        let born = window_start(first_start, window_interval, first_window);
        RateReplica {
            pacer: QueuePacer::new(born, packets_per_second, map.shards(), model),
            map,
            first_start,
            window_interval,
            entered: None,
            high_water: 0,
        }
    }

    /// Feed one merged observation through the replica: mirror the live
    /// pacer's transition for this position and report any resulting rate
    /// transition — plus the post-transition virtual-queue depth, when it
    /// is a new high-water mark of the pass — to `observer`.
    ///
    /// Call this with *every* observation of the merged sequence, in merged
    /// order. The merged sequence carries every position of every window
    /// (no position is foreign to the merge side), so one paced transition
    /// per observation is exactly the single-producer trajectory.
    pub fn observe(&mut self, obs: &Observation, observer: &dyn StreamObserver) {
        if self.entered != Some(obs.window) {
            // Mirrors `ContinuousStream::enter_window`: advance to the
            // window's nominal start, never probing back in time.
            let nominal = window_start(self.first_start, self.window_interval, obs.window);
            self.pacer.advance_to(nominal);
            self.entered = Some(obs.window);
        }
        let shard = self.map.shard_for(obs.target);
        let (at, transition) = self.pacer.pace_tracked(shard);
        debug_assert_eq!(
            at, obs.sent_at,
            "the replica pacer must reproduce the live send time"
        );
        if let Some(t) = transition {
            observer.on_rate_change(at, obs.window, t.from_pps, t.to_pps);
        }
        let depth = self.pacer.depth();
        if depth > self.high_water {
            self.high_water = depth;
            observer.on_queue_depth(depth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::ObservationSource;
    use crate::source::ContinuousStream;
    use scent_prober::{TargetGenerator, TargetStream};
    use scent_simnet::{scenarios, Engine};
    use scent_telemetry::Telemetry;

    #[test]
    fn replica_reproduces_the_live_trajectory() {
        let engine = Engine::build(scenarios::continuous_world(41)).unwrap();
        let watched: Vec<_> = engine.pools()[0]
            .config
            .prefix
            .subnets(48)
            .unwrap()
            .take(2)
            .collect();
        let model = QueueModel {
            drain_rate: Some(16),
            high_watermark: 64,
            low_watermark: 8,
            ..QueueModel::unbounded()
        };
        let map = ShardMap::new(&engine.rib().entries(), 2);
        let generator = TargetGenerator::new(0x57ae);
        let targets = TargetStream::new(&generator, &watched, 56, 0x57ae, true);
        let start = SimTime::at(10, 9);
        let interval = SimDuration::from_days(1);
        let mut stream = ContinuousStream::builder(&engine, targets)
            .rate_pps(128)
            .start(start)
            .window_interval(interval)
            .feedback(model.clone(), map.clone())
            .build();

        let telemetry = Telemetry::new();
        let mut replica = RateReplica::continuous(start, 0, 128, model, map, interval);
        let total = stream.window_len() * 2;
        for _ in 0..total {
            let obs = stream.next_observation().expect("infinite stream");
            // `observe` debug-asserts the replayed send time equals the live
            // one — the equality under test.
            replica.observe(&obs, &telemetry);
        }
        let snapshot = telemetry.snapshot();
        assert!(
            snapshot.deterministic.rate_backoffs > 0,
            "a 16/s-per-shard consumer must throttle a 128 pps prober"
        );
        assert!(snapshot.deterministic.queue_high_water > 0);
        // The replica's end rate is the live stream's end rate.
        assert!(stream.rate() < 128);
    }
}
