//! The merged deterministic virtual clock: k-way merging of per-producer
//! observation streams.
//!
//! The probing side of the engine scales past one thread by splitting every
//! window of a pass into P per-producer *strided* slices
//! ([`ContinuousStreamBuilder::slice`]): producer `k` owns global
//! probing-order positions `k, k + P, k + 2P, …` and stamps its observations
//! with the sequence numbers and virtual send times the single-producer
//! stream would assign. [`MergedClock`] then recombines the slices with a
//! binary-heap k-way merge keyed on
//! `(virtual send time, tenant, window, sequence number, producer index)`:
//!
//! * send times and `(window, seq)` are non-decreasing along every
//!   producer's own stream, so one pending head per producer is enough;
//! * `(window, seq)` *is* the global emission order, and the virtual send
//!   time is a monotone function of it, so the heap always pops the
//!   globally-next observation (the producer index is a stable tie-break —
//!   unreachable while every position is emitted exactly once, load-bearing
//!   if a future source ever emits duplicates);
//! * striding means consecutive global positions live on *different*
//!   producers, so the merge drains all P channels round-robin and every
//!   producer thread stays busy — a contiguous split would drain one
//!   producer at a time, serializing the probing behind the channel
//!   lookahead.
//!
//! The merged sequence is therefore **bit-identical to the single-producer
//! stream for any producer count** — which is what lets the sharded pipeline
//! and monitor keep their batch ≡ streamed report-equality guarantees while
//! probing in parallel. Producers run on scoped threads feeding bounded
//! channels ([`spawn_producers`](crate::engine::spawn_producers)); since the
//! merge only ever pops by key and each channel is FIFO, OS scheduling cannot
//! reorder the merged output.
//!
//! [`ContinuousStreamBuilder::slice`]: crate::source::ContinuousStreamBuilder::slice

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::Receiver;

use scent_simnet::SimTime;
use scent_telemetry::StreamObserver;

use crate::buffer::BatchReturn;
use crate::observation::{Observation, ObservationSource};

/// The heap key observations merge on: virtual send time, then tenant, then
/// window, then sequence number, then producer index. See the module docs
/// for why this reconstructs the global probing order exactly. The tenant
/// component is what makes the key multi-campaign-safe: two campaigns'
/// streams can collide on `(window, seq)` at the same virtual instant, and
/// the tenant index keeps their merge order deterministic instead of
/// falling through to the producer tie-break.
type ClockKey = (SimTime, u32, u64, u64, usize);

fn key_of(obs: &Observation, producer: usize) -> ClockKey {
    (obs.sent_at, obs.tenant, obs.window, obs.seq, producer)
}

/// A deterministic k-way merge over per-producer observation streams.
///
/// `MergedClock` is itself an [`ObservationSource`], so everything downstream
/// (the shard router, the pipelines) is oblivious to how many producers feed
/// it. With a single source it degenerates to pass-through.
pub struct MergedClock<S> {
    sources: Vec<S>,
    heads: Vec<Option<Observation>>,
    heap: BinaryHeap<Reverse<ClockKey>>,
}

impl<S: ObservationSource> MergedClock<S> {
    /// Merge `sources` (producer `k` = `sources[k]`). Order across producers
    /// is `(send time, window, seq, producer index)`; order within a
    /// producer is the source's own.
    pub fn new(mut sources: Vec<S>) -> Self {
        assert!(!sources.is_empty(), "at least one producer");
        let mut heads = Vec::with_capacity(sources.len());
        let mut heap = BinaryHeap::with_capacity(sources.len());
        for (producer, source) in sources.iter_mut().enumerate() {
            let head = source.next_observation();
            if let Some(obs) = &head {
                heap.push(Reverse(key_of(obs, producer)));
            }
            heads.push(head);
        }
        MergedClock {
            sources,
            heads,
            heap,
        }
    }
}

impl<S: ObservationSource> ObservationSource for MergedClock<S> {
    fn next_observation(&mut self) -> Option<Observation> {
        let Reverse((_, _, _, _, producer)) = self.heap.pop()?;
        let obs = self.heads[producer]
            .take()
            .expect("a heap key always has a pending head");
        let next = self.sources[producer].next_observation();
        if let Some(refill) = &next {
            debug_assert!(
                key_of(refill, producer) >= key_of(&obs, producer),
                "producer streams must be key-ordered"
            );
            self.heap.push(Reverse(key_of(refill, producer)));
        }
        self.heads[producer] = next;
        Some(obs)
    }
}

/// An [`ObservationSource`] reading from a producer thread's channel (in
/// batches, yielded one observation at a time). The stream ends when the
/// producer hangs up (its slice is exhausted).
///
/// Drained batch buffers are returned to the producer's
/// `BatchPool` for reuse, so in steady state the
/// producer → merge edge recirculates a fixed buffer population and the
/// merge thread's consumption is allocation-free (observations are `Copy` —
/// yielding one is a memcpy out of the buffer, never a move out of the
/// allocation).
pub struct ChannelSource {
    receiver: Receiver<Vec<Observation>>,
    buffered: Vec<Observation>,
    /// Next unread index into `buffered`.
    cursor: usize,
    /// Where drained buffers go home to (the producer thread's pool).
    recycle: BatchReturn,
}

impl ChannelSource {
    /// Read batches from `receiver`, sending drained buffers home over
    /// `recycle`.
    pub(crate) fn new(receiver: Receiver<Vec<Observation>>, recycle: BatchReturn) -> Self {
        ChannelSource {
            receiver,
            buffered: Vec::new(),
            cursor: 0,
            recycle,
        }
    }
}

impl ObservationSource for ChannelSource {
    fn next_observation(&mut self) -> Option<Observation> {
        loop {
            if let Some(&obs) = self.buffered.get(self.cursor) {
                self.cursor += 1;
                return Some(obs);
            }
            let refill = self.receiver.recv().ok()?;
            let drained = std::mem::replace(&mut self.buffered, refill);
            self.cursor = 0;
            if drained.capacity() > 0 {
                self.recycle.give(drained);
            }
        }
    }
}

/// An [`ObservationSource`] truncated after a fixed number of observations —
/// how a finite monitoring run bounds its (infinite) continuous producers, so
/// a producer thread never keeps probing a backend beyond the run's horizon.
pub struct LimitedSource<S> {
    inner: S,
    remaining: u64,
}

impl<S> LimitedSource<S> {
    /// Yield at most `limit` observations of `inner`.
    pub fn new(inner: S, limit: u64) -> Self {
        LimitedSource {
            inner,
            remaining: limit,
        }
    }
}

impl<S: ObservationSource> ObservationSource for LimitedSource<S> {
    fn next_observation(&mut self) -> Option<Observation> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.inner.next_observation()
    }
}

/// An [`ObservationSource`] that reports every pulled observation to a
/// telemetry observer as [`StreamObserver::on_probe_sent`] — the
/// producer-side probe accounting. The hook runs on the producer's thread
/// (wall-clock tier): per-producer totals are deterministic (producer `k`
/// owns exactly the strided positions `k, k + P, …`), the interleaving is
/// the scheduler's.
pub(crate) struct CountedSource<'t, S> {
    inner: S,
    observer: Option<&'t dyn StreamObserver>,
    producer: usize,
}

impl<'t, S> CountedSource<'t, S> {
    /// Wrap `inner` as producer `producer`'s stream. With `observer == None`
    /// the wrapper is a transparent pass-through.
    pub fn new(inner: S, producer: usize, observer: Option<&'t dyn StreamObserver>) -> Self {
        CountedSource {
            inner,
            observer,
            producer,
        }
    }
}

impl<S: ObservationSource> ObservationSource for CountedSource<'_, S> {
    fn next_observation(&mut self) -> Option<Observation> {
        let obs = self.inner.next_observation();
        if obs.is_some() {
            if let Some(observer) = self.observer {
                observer.on_probe_sent(self.producer);
            }
        }
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::Phase;
    use crate::source::ContinuousStream;
    use scent_prober::{TargetGenerator, TargetStream};
    use scent_simnet::{scenarios, Engine};

    /// Producer `k` of `of`'s slice of one scan pass over `targets`: a
    /// one-window continuous stream.
    fn scan_slice<'a>(
        engine: &'a Engine,
        targets: &[std::net::Ipv6Addr],
        k: usize,
        of: usize,
    ) -> LimitedSource<ContinuousStream<'a, Engine>> {
        let stream =
            ContinuousStream::builder(engine, TargetStream::over(targets.to_vec(), 7, true))
                .start(SimTime::at(1, 9))
                .slice(k, of)
                .build();
        let window = stream.slice_len() as u64;
        LimitedSource::new(stream, window)
    }

    fn obs(sent_at: u64, window: u64, seq: u64) -> Observation {
        obs_for(0, sent_at, window, seq)
    }

    fn obs_for(tenant: u32, sent_at: u64, window: u64, seq: u64) -> Observation {
        Observation {
            phase: Phase::Detection,
            tenant,
            window,
            seq,
            target: "2001:db8::1".parse().unwrap(),
            sent_at: SimTime::from_secs(sent_at),
            response: None,
        }
    }

    struct VecSource(std::vec::IntoIter<Observation>);

    impl ObservationSource for VecSource {
        fn next_observation(&mut self) -> Option<Observation> {
            self.0.next()
        }
    }

    #[test]
    fn merge_orders_by_time_then_window_then_producer() {
        // Producer 0 holds the later window at the shared second; producer 1
        // holds the earlier window's tail. The tie must resolve window-first.
        let a = VecSource(vec![obs(5, 1, 0), obs(9, 1, 1)].into_iter());
        let b = VecSource(vec![obs(3, 0, 7), obs(5, 0, 8)].into_iter());
        let mut clock = MergedClock::new(vec![a, b]);
        let merged: Vec<(u64, u64)> = std::iter::from_fn(|| clock.next_observation())
            .map(|o| (o.window, o.seq))
            .collect();
        assert_eq!(merged, vec![(0, 7), (0, 8), (1, 0), (1, 1)]);
    }

    /// Two tenants' streams can collide on `(window, seq)` at the same
    /// virtual instant; the tenant component of the clock key must break the
    /// tie deterministically — tenant order, not producer order.
    #[test]
    fn merge_orders_tenants_before_windows_and_producers() {
        // Producer 0 carries tenant 1, producer 1 carries tenant 0; both
        // streams share every (sent_at, window, seq) coordinate.
        let a = VecSource(vec![obs_for(1, 5, 0, 0), obs_for(1, 5, 0, 1)].into_iter());
        let b = VecSource(vec![obs_for(0, 5, 0, 0), obs_for(0, 5, 0, 1)].into_iter());
        let mut clock = MergedClock::new(vec![a, b]);
        let merged: Vec<(u32, u64)> = std::iter::from_fn(|| clock.next_observation())
            .map(|o| (o.tenant, o.seq))
            .collect();
        assert_eq!(merged, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn merged_scan_slices_equal_the_unsliced_scan() {
        let engine = Engine::build(scenarios::entel_like(5)).unwrap();
        let pool = engine.pools()[0].config.prefix;
        let targets = TargetGenerator::new(1).one_per_subnet(&pool, 56);
        let collect = |source: &mut dyn ObservationSource| {
            let mut all = Vec::new();
            while let Some(o) = source.next_observation() {
                all.push(o);
            }
            all
        };
        let mut single = scan_slice(&engine, &targets, 0, 1);
        let want = collect(&mut single);
        for producers in [1usize, 2, 3, 5, 8] {
            let slices: Vec<_> = (0..producers)
                .map(|k| scan_slice(&engine, &targets, k, producers))
                .collect();
            let mut merged = MergedClock::new(slices);
            assert_eq!(collect(&mut merged), want, "producers={producers}");
        }
    }

    /// The structural property producer scaling rests on: strided slices
    /// make the merge consume all P producers round-robin — it never drains
    /// one producer's whole slice while the others sit idle behind it, so on
    /// a multi-core host every producer thread stays busy.
    #[test]
    fn merge_consumes_strided_producers_round_robin() {
        let engine = Engine::build(scenarios::entel_like(5)).unwrap();
        let pool = engine.pools()[0].config.prefix;
        let targets = TargetGenerator::new(1).one_per_subnet(&pool, 56);
        for producers in [2usize, 4, 8] {
            let slices: Vec<_> = (0..producers)
                .map(|k| scan_slice(&engine, &targets, k, producers))
                .collect();
            let mut clock = MergedClock::new(slices);
            let mut previous: Option<u64> = None;
            while let Some(obs) = clock.next_observation() {
                let producer = obs.seq % producers as u64;
                if let Some(previous) = previous {
                    assert_eq!(
                        producer,
                        (previous + 1) % producers as u64,
                        "merge must rotate producers every observation"
                    );
                }
                previous = Some(producer);
            }
        }
    }
}
