//! Merge-side telemetry mirrors: replaying producer-side deterministic
//! state on the consumer thread so the resulting telemetry lands in the
//! *deterministic* tier.
//!
//! Every producer's stream paces with a clone of one pacing state — a
//! [`QueuePacer`](scent_prober::QueuePacer) inside the stream's
//! crate-private `WindowPacer` — and under a queue model that can throttle
//! the trajectory is a pure function of `(config, target order, virtual
//! time)`, so all clones agree. Observing rate transitions from the
//! producers directly would still be producer-count-*shaped* (which thread
//! saw which transition) and scheduler-interleaved. Instead, the merge side
//! holds one more clone of that state and feeds it every merged
//! observation: the merged sequence is bit-identical to the single-producer
//! sequence, so the replica reproduces the exact single-producer AIMD
//! trajectory — including every send time, asserted in debug builds — no
//! matter how many producers probed concurrently. Back-off/recovery events
//! and virtual-queue depths journaled from the replica are therefore
//! byte-identical across producer counts, which is what qualifies them for
//! the deterministic telemetry tier.

use scent_telemetry::StreamObserver;

use crate::observation::Observation;
use crate::source::WindowPacer;

/// A merge-side replica of the producers' pacing state (see the
/// [module docs](self)).
///
/// A fresh replica goes with every fresh set of streams: the
/// [`IngestEngine`](crate::engine::IngestEngine) clones one per pass off a
/// stream it has not yet drawn from — per scan phase in the pipeline, per
/// epoch in the monitor (the pacer restarts at the configured budget at
/// every epoch boundary) — and feeds it from the drive's hook.
pub(crate) struct RateReplica {
    pacing: WindowPacer,
    /// The deepest virtual queue this pass has reported.
    high_water: u64,
}

impl RateReplica {
    /// A replica of a stream's pacing state, which must not have paced a
    /// position yet.
    pub(crate) fn new(pacing: WindowPacer) -> Self {
        RateReplica {
            pacing,
            high_water: 0,
        }
    }

    /// Feed one merged observation through the replica: the live pacer's
    /// transition for this position, reporting any resulting rate
    /// transition — plus the post-transition virtual-queue depth, when it
    /// is a new high-water mark of the pass — to `observer`.
    ///
    /// Call this with *every* observation of the merged sequence, in merged
    /// order. The merged sequence carries every position of every window
    /// (no position is foreign to the merge side), so one paced transition
    /// per observation is exactly the single-producer trajectory.
    pub(crate) fn observe(&mut self, obs: &Observation, observer: &dyn StreamObserver) {
        self.pacing.enter(obs.window);
        let from_pps = self.pacing.rate();
        let at = self.pacing.pace(obs.target);
        debug_assert_eq!(
            at, obs.sent_at,
            "the replica pacer must reproduce the live send time"
        );
        let to_pps = self.pacing.rate();
        if to_pps != from_pps {
            observer.on_rate_change(at, obs.window, from_pps, to_pps);
        }
        let depth = self.pacing.depth();
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
    use crate::router::ShardMap;
    use crate::source::ContinuousStream;
    use scent_prober::{QueueModel, TargetGenerator, TargetStream};
    use scent_simnet::{scenarios, Engine, SimDuration, SimTime};
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
            .feedback(model, map)
            .build();

        let telemetry = Telemetry::new();
        let mut replica = RateReplica::new(stream.pacing.clone());
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
