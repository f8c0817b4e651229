//! Reusable observation-batch buffers: the allocation-free hot path's
//! recycling machinery.
//!
//! Both batched edges of the data plane — producer → merge and
//! router → shard — move observations in `Vec<Observation>` batches over
//! bounded channels. Allocating a fresh `Vec` per batch puts one heap
//! allocation (and one deallocation, on the far thread) on the hot path for
//! every `batch` observations; at experiment scale the allocator traffic is
//! measurable, and it makes steady-state allocation behaviour depend on
//! ingest volume. This module removes it: emptied batch buffers flow *back*
//! to their allocating side over a bounded return channel and are reused,
//! so after a bounded warm-up the data plane recirculates a fixed population
//! of buffers and allocates nothing per observation.
//!
//! The split is asymmetric on purpose:
//!
//! * `BatchPool` lives on the side that fills buffers (a producer thread,
//!   or the router's control thread). `BatchPool::take` hands out an empty
//!   buffer — a locally stashed one, one returned over the channel, or
//!   (warm-up only) a fresh allocation.
//! * [`BatchReturn`] lives on the side that drains buffers (the merge
//!   thread's [`ChannelSource`](crate::clock::ChannelSource), or a shard
//!   worker). [`BatchReturn::give`] clears the buffer and sends it home.
//!   It is `Clone`, so one pool can serve many returning threads (the
//!   router's pool is returned to by every shard worker).
//!
//! Everything is deterministic-by-construction: recycling changes *where a
//! buffer's memory came from*, never the observations it carries or the
//! order they are delivered in, so reports and deterministic telemetry are
//! byte-identical with or without it.
//!
//! The return channel is bounded and non-blocking on both sides: a full
//! return channel drops the buffer (the pool re-allocates later — counted,
//! never incorrect), and an empty pool allocates. [`PoolCounters`] exposes
//! both counts so tests can assert the steady-state property ("recycled
//! grows, allocated stays at its warm-up value") instead of trusting it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;

use crate::observation::Observation;

/// Shared allocation/recycle counters of one `BatchPool`.
///
/// The counts are monotone and cheap (relaxed atomics, touched once per
/// *batch*, never per observation). `allocated` stalling while `recycled`
/// grows is the observable form of the allocation-free steady state — the
/// property the hot-path allocation regression test pins.
#[derive(Debug, Default)]
pub struct PoolCounters {
    allocated: AtomicU64,
    recycled: AtomicU64,
}

impl PoolCounters {
    /// Buffers the pool had to allocate fresh (warm-up, or a return channel
    /// overflow — both bounded, neither per-observation).
    pub fn allocated(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Buffers handed out from the recycle path instead of the allocator.
    pub fn recycled(&self) -> u64 {
        self.recycled.load(Ordering::Relaxed)
    }
}

/// The allocating side of a recycling pair: hands out empty batch buffers,
/// preferring recycled ones. See the [module docs](self) for the protocol.
#[derive(Debug)]
pub(crate) struct BatchPool {
    /// Locally stashed free buffers ([`BatchPool::prefill`] fills this).
    free: Vec<Vec<Observation>>,
    /// Emptied buffers returned by the draining side.
    returns: Receiver<Vec<Observation>>,
    /// Capacity every fresh buffer is allocated with.
    batch: usize,
    counters: Arc<PoolCounters>,
}

/// The draining side of a recycling pair: sends emptied buffers home.
/// Cloneable so many threads (e.g. every shard worker) can return to one
/// pool.
#[derive(Debug, Clone)]
pub struct BatchReturn {
    home: SyncSender<Vec<Observation>>,
}

/// Create a recycling pair whose return channel holds up to `slots` buffers
/// in transit. Fresh buffers are allocated with capacity `batch`.
///
/// `slots` bounds the recirculating population: size it to the maximum
/// number of buffers simultaneously *outside* the pool (per-edge queue
/// capacity plus a couple in hand per thread) and the pool never drops a
/// return. Undersizing is safe — it costs occasional re-allocations, counted
/// by [`PoolCounters`], never correctness.
pub(crate) fn batch_pool(batch: usize, slots: usize) -> (BatchPool, BatchReturn) {
    assert!(batch > 0, "batch buffers must hold something");
    assert!(slots > 0, "a slot-less pool could never recycle");
    let (tx, rx) = std::sync::mpsc::sync_channel(slots);
    (
        BatchPool {
            free: Vec::new(),
            returns: rx,
            batch,
            counters: Arc::new(PoolCounters::default()),
        },
        BatchReturn { home: tx },
    )
}

impl BatchPool {
    /// Take an empty buffer: a stashed or recycled one when available, a
    /// fresh allocation otherwise.
    pub fn take(&mut self) -> Vec<Observation> {
        if let Some(buffer) = self.free.pop() {
            self.counters.recycled.fetch_add(1, Ordering::Relaxed);
            return buffer;
        }
        match self.returns.try_recv() {
            Ok(buffer) => {
                self.counters.recycled.fetch_add(1, Ordering::Relaxed);
                buffer
            }
            Err(TryRecvError::Empty | TryRecvError::Disconnected) => {
                self.counters.allocated.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(self.batch)
            }
        }
    }

    /// Eagerly allocate `buffers` free buffers into the local stash.
    ///
    /// With a prefill of at least the maximum simultaneous out-of-pool
    /// population, [`BatchPool::take`] *provably never allocates* afterwards
    /// — the deterministic form of the allocation-free guarantee the
    /// hot-path regression test asserts (lazy warm-up reaches the same
    /// steady state, but through a scheduling-dependent number of
    /// allocations).
    pub fn prefill(&mut self, buffers: usize) {
        self.free.reserve(buffers);
        for _ in 0..buffers {
            self.counters.allocated.fetch_add(1, Ordering::Relaxed);
            self.free.push(Vec::with_capacity(self.batch));
        }
    }

    /// A shared handle on the pool's allocation/recycle counters (grab one
    /// before moving the pool into a producer thread).
    pub fn counters(&self) -> Arc<PoolCounters> {
        Arc::clone(&self.counters)
    }
}

impl BatchReturn {
    /// Clear `buffer` and send it home for reuse. Never blocks: a full (or
    /// hung-up) return channel drops the buffer instead — the pool
    /// re-allocates on demand, so this is a counted inefficiency, not an
    /// error.
    pub fn give(&self, mut buffer: Vec<Observation>) {
        buffer.clear();
        match self.home.try_send(buffer) {
            Ok(()) | Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_prefers_recycled_buffers() {
        let (mut pool, home) = batch_pool(8, 4);
        let counters = pool.counters();
        let first = pool.take();
        assert_eq!(first.capacity(), 8);
        assert_eq!(counters.allocated(), 1);
        assert_eq!(counters.recycled(), 0);

        let mut used = first;
        used.push(crate::observation::Observation {
            phase: crate::observation::Phase::Density,
            tenant: 0,
            window: 0,
            seq: 0,
            target: "2001:db8::1".parse().unwrap(),
            sent_at: scent_simnet::SimTime::at(0, 0),
            response: None,
        });
        home.give(used);
        let again = pool.take();
        assert!(again.is_empty(), "give() clears before returning");
        assert!(again.capacity() >= 8, "the same buffer came back");
        assert_eq!(counters.allocated(), 1, "no second allocation");
        assert_eq!(counters.recycled(), 1);
    }

    #[test]
    fn prefilled_pool_never_allocates_in_take() {
        let (mut pool, home) = batch_pool(4, 2);
        pool.prefill(3);
        let counters = pool.counters();
        assert_eq!(counters.allocated(), 3);
        // Cycle more buffers through than the prefill: every take after the
        // first three is served by a give, never the allocator.
        let mut held = std::collections::VecDeque::new();
        for _ in 0..3 {
            held.push_back(pool.take());
        }
        for _ in 0..20 {
            home.give(held.pop_front().unwrap());
            held.push_back(pool.take());
        }
        assert_eq!(counters.allocated(), 3, "steady state allocates nothing");
        // 3 takes served from the prefilled stash + 20 from returned buffers.
        assert_eq!(counters.recycled(), 23);
    }

    #[test]
    fn overflowing_returns_drop_instead_of_blocking() {
        let (mut pool, home) = batch_pool(4, 1);
        let first = pool.take();
        let second = pool.take();
        assert_eq!(pool.counters().allocated(), 2);
        home.give(first); // fills the only transit slot
        home.give(second); // channel full: dropped, must not block
        assert!(pool.take().capacity() >= 4, "the surviving buffer recycles");
        assert_eq!(pool.counters().recycled(), 1);
        let _ = pool.take(); // the dropped buffer is gone: a fresh allocation
        assert_eq!(pool.counters().allocated(), 3);
    }
}
