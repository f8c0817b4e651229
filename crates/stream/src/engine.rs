//! The ingest engine: one owner for the shard workers' whole lifecycle, and
//! for how a probe pass becomes observation sources.
//!
//! The paper's method is one loop run at two time scales — probe a permuted
//! target list, classify the EUI-64 responses per /48, repeat a day later —
//! and this module is that loop's machinery, once. The lifecycle is
//! **open a pool → lease it → release → drop the pool**:
//!
//! * A [`ShardPool`] is the part that does not depend on whose observations
//!   flow: the shard worker threads, their bounded channels, the per-shard
//!   batch buffers and the recycle pool sized for everything that can be in
//!   flight. Whoever loops over epochs owns one —
//!   [`StreamMonitor::run_controlled`](crate::monitor::StreamMonitor::run_controlled)
//!   for a solo run, the `scent-sched` scheduler for a fleet (one per
//!   distinct shard count, lent to the tenant that holds the step) — so an
//!   epoch costs what its observations cost: no thread is spawned or
//!   joined, no channel or buffer allocated, at a boundary.
//! * An [`IngestEngine`] is one *lease* of a pool — the only way to hold
//!   one ([`IngestEngine::lease`] borrows the pool for as long as the engine
//!   lives): every worker is handed the lessee's carried [`ShardInference`]
//!   by move, the [`ShardRouter`] is armed with the lessee's [`ShardMap`]
//!   and observer, [`drive`](IngestEngine::drive) merges producer sources
//!   into the shards, and [`release`](IngestEngine::release) has every
//!   worker hand its state back by move — into the final shard states or a
//!   typed error. Workers hold nothing of the lessee between leases. A run
//!   that is one lease long (a single
//!   [`MonitorSession::run_epoch`](crate::monitor::MonitorSession::run_epoch),
//!   the hot-path bench and the allocation regression test) opens a pool,
//!   leases it and drops it after the release; the streamed pipeline leases
//!   its pool once per phase, reading each phase's result off the released
//!   states and handing them to the next lease by move.
//!
//! A worker that dies takes its pool with it, never a neighbour: the release
//! joins every worker, reports [`StreamError::ShardPanicked`], and the pool's
//! next lease starts from freshly spawned workers. Dropping a pool joins its
//! threads; none survives it.
//!
//! The crate's two runs never build sources themselves. They describe a
//! pass — phase, one [`TargetStream`] built once, windows, rate, start,
//! interval, tenant, queue model (the crate-private `Pass`) — and the
//! engine's `run_pass` does the rest the same way for both: slice one
//! [`ContinuousStream`] per producer off the one target stream, each paced
//! against the pass's queue model over the router's map, bound each to the
//! pass's windows, count its probes, mirror the pacer on the merge side for
//! rate telemetry (only a model that can throttle has rate events to
//! report), drive, and read the end rate off the producer that probed the
//! last position.
//! Producer threads (more than one producer) borrow the transport, so they
//! are scoped threads — spawned and joined inside the one
//! [`drive`](IngestEngine::drive) that feeds on them, the only thread scope
//! in the crate.
//! [`StreamPipeline`](crate::pipeline::StreamPipeline) runs one pass per
//! scan phase (one window each),
//! [`MonitorSession`](crate::monitor::MonitorSession) one per epoch; the
//! hot-path bench and the allocation regression test `drive` replayed
//! observations instead. Whatever feeds it, the router resolves each
//! observation's shard with [`ShardMap::shard_for`] — the one routing rule,
//! shared with the virtual-queue pacer. A monitor's boundary probes —
//! re-expansion and discovery sweep alike — are routed through the epoch's
//! same lease, so every probe the monitor sends is an observation. Being
//! expansion-phase, they are tallied per shard by the router and never
//! reach a worker: the release folds each shard's tally (a count and the
//! /48s its EUI-64 answers validate) into the state the worker yields, so
//! the workers fold only the density and detection passes.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread;

use scent_prober::{ProbeTransport, QueueModel, TargetStream};
use scent_simnet::{SimDuration, SimTime};
use scent_telemetry::StreamObserver;

use crate::buffer::batch_pool;
use crate::clock::{ChannelSource, CountedSource, LimitedSource, MergedClock};
use crate::error::StreamError;
use crate::observation::{Observation, ObservationSource, Phase};
use crate::observe::RateReplica;
use crate::router::{Lanes, ShardMap, ShardRouter, WorkerLink};
use crate::shard::{ShardInference, ShardMsg};
use crate::source::ContinuousStream;

/// Observations accumulated per router → shard channel message. A constant,
/// not a knob, and batching never changes a report — per-shard delivery order
/// is the same at any size. It is sized for the hand-off: a parked worker is
/// woken once per 4 096 observations. The size was measured on discovery
/// sweeps, whose wake-ups were most of a smaller batch's cost
/// (docs/PERFORMANCE.md, "What a hand-off costs"); the router now tallies
/// sweeps instead of shipping them, and whether the density and detection
/// passes that fill batches want a smaller one is not yet measured.
pub(crate) const OBSERVATION_BATCH: usize = 4096;

/// Observations a shard's queue holds: 16 messages of [`OBSERVATION_BATCH`],
/// what the retired capacity knob's one production value held (1 024
/// messages of 64). Also the budget of each producer → merge edge, in its
/// own messages.
const QUEUE_OBSERVATIONS: usize = 65_536;

/// Observations accumulated per producer-channel message. Purely a transport
/// optimization: the merge consumes per observation either way, so batching
/// never affects the merged sequence — it only amortizes the per-message
/// channel rendezvous, which would otherwise dominate the consumer at high
/// ingest rates.
const PRODUCER_BATCH: usize = 64;

/// What a lease hands its pool's workers; the default is a fresh, unobserved
/// set of pipeline shards.
#[derive(Default)]
pub struct IngestOptions<'t> {
    /// Telemetry: routing order and stalls from the control thread, ingest
    /// progress forwarded from each worker's counter, rate replay from the
    /// engine's probe passes.
    pub observer: Option<&'t dyn StreamObserver>,
    /// One inference state per shard (index-aligned) for the workers to
    /// adopt — how a monitor carries state across epochs and a resumed run
    /// hands back what its snapshot held. `None` starts every shard empty.
    pub initial: Option<Vec<ShardInference>>,
    /// Fault injection: this shard's worker panics on its first non-empty
    /// batch (expansion-phase observations never reach it: the router
    /// tallies them).
    pub inject_panic: Option<usize>,
}

/// The one worker loop: adopt the state a lease left in the link when the
/// lease's first message arrives, fold every batch into it up to and
/// including the last, which the [`ShardMsg::Yield`] that ends the lease
/// carries; exit when the pool drops its senders. The worker borrows
/// nothing of any lessee — progress goes to a counter the control thread
/// forwards, the state travels by move — which is what lets it outlive
/// every epoch and tenant it serves.
fn worker(
    shard: usize,
    receiver: Receiver<ShardMsg>,
    yielded: SyncSender<ShardInference>,
    link: Arc<WorkerLink>,
) {
    let mut state = ShardInference::without_census();
    let mut poison = false;
    let mut recycler: Option<crate::buffer::BatchReturn> = None;
    while let Ok(msg) = receiver.recv() {
        let adoption = link
            .adoption
            .lock()
            .expect("nothing panics holding the adoption slot")
            .take();
        if let Some(adopted) = adoption {
            (state, poison) = adopted;
        }
        let (batch, yields) = match msg {
            ShardMsg::ObserveBatch(batch) => (batch, false),
            ShardMsg::Yield(batch) => (batch, true),
            ShardMsg::AttachRecycler(home) => {
                recycler = Some(home);
                continue;
            }
            ShardMsg::Compact(window) => {
                state.compact_before(window);
                continue;
            }
        };
        if poison && !batch.is_empty() {
            panic!("injected shard panic (shard {shard})");
        }
        for obs in &batch {
            state.ingest(obs);
        }
        // A statistic: it publishes no other data.
        link.folded.fetch_add(batch.len() as u64, Ordering::Relaxed);
        // A yield from a shard that was routed nothing carries no buffer.
        if let (Some(home), true) = (&recycler, batch.capacity() > 0) {
            home.give(batch);
        }
        if yields {
            let adopted = std::mem::replace(&mut state, ShardInference::without_census());
            // The pool only stops listening once it is being dropped.
            let _ = yielded.send(adopted);
        }
    }
}

/// One worker thread of a [`ShardPool`], seen from the control thread.
struct Worker {
    handle: thread::JoinHandle<()>,
    /// Where the worker answers [`ShardMsg::Yield`]. The worker holds the
    /// only sender, so a dead worker reads as a hang-up, never a hang.
    yielded: Receiver<ShardInference>,
}

/// The shard workers and everything between them and a router, kept alive
/// across epochs and lent to one lessee at a time
/// ([`IngestEngine::lease`]). See the [module docs](self).
///
/// The queue of each worker holds 65 536 observations, in 16 messages of
/// 4 096, and the recycle pool is sized to match, so steady-state routing
/// never allocates and no returned buffer is ever dropped.
pub struct ShardPool {
    shards: usize,
    /// `None` while leased, and once a worker has died.
    lanes: Option<Lanes>,
    workers: Vec<Worker>,
}

impl ShardPool {
    /// Spawn `shards` workers, each behind a bounded queue of 65 536
    /// observations.
    pub fn open(shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        let queue = QUEUE_OBSERVATIONS / OBSERVATION_BATCH;
        let mut senders = Vec::with_capacity(shards);
        let mut links = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = std::sync::mpsc::sync_channel(queue);
            let (yield_tx, yielded) = std::sync::mpsc::sync_channel(1);
            let link = Arc::new(WorkerLink::default());
            let shared = Arc::clone(&link);
            let handle = thread::spawn(move || worker(shard, rx, yield_tx, shared));
            senders.push(tx);
            links.push(link);
            workers.push(Worker { handle, yielded });
        }
        // Per shard, the queue plus one buffer in the router's and one in
        // the worker's hands.
        let slots = shards * (queue + 2);
        let (lanes, _) = Lanes::open(senders, links, OBSERVATION_BATCH, slots);
        ShardPool {
            shards,
            lanes: Some(lanes),
            workers,
        }
    }

    /// Take the lanes for a lease — over fresh workers when the last lease
    /// lost one (or never released).
    fn lend(&mut self) -> Lanes {
        if self.lanes.is_none() {
            *self = ShardPool::open(self.shards);
        }
        self.lanes.take().expect("an open pool holds its lanes")
    }

    /// End a lease whose router has asked every worker to yield: collect the
    /// states in shard order into `states` (empty; the vector the lease's
    /// starting states came in, so a release allocates none) and take the
    /// lanes back. Every worker is waited for even after a death —
    /// surviving shards drain first — and the first dead shard is reported
    /// as [`StreamError::ShardPanicked`], with every thread of the pool
    /// joined.
    fn collect(
        &mut self,
        lanes: Lanes,
        observer: Option<&dyn StreamObserver>,
        mut states: Vec<ShardInference>,
    ) -> Result<Vec<ShardInference>, StreamError> {
        let mut panicked = None;
        for (shard, worker) in self.workers.iter().enumerate() {
            match worker.yielded.recv() {
                Ok(state) => states.push(state),
                Err(_) => {
                    panicked.get_or_insert(shard);
                }
            }
            // Always: a count left behind would be the next lessee's.
            lanes.forward_progress(shard, observer);
        }
        match panicked {
            Some(shard) => {
                drop(lanes);
                self.join();
                Err(StreamError::ShardPanicked { shard })
            }
            None => {
                self.lanes = Some(lanes);
                Ok(states)
            }
        }
    }

    /// Hang up on the workers and join them. A worker's panic was already
    /// reported by the release that met it.
    fn join(&mut self) {
        self.lanes = None;
        for worker in self.workers.drain(..) {
            let _ = worker.handle.join();
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.join();
    }
}

/// Run each source on its own scoped producer thread, feeding a bounded
/// channel of 65 536 observations (in batches of up to 64), and return the
/// merged clock over the channels.
///
/// Producers probe concurrently (this is where multi-producer throughput
/// comes from), but the merged sequence is reconstructed deterministically by
/// [`MergedClock`], so thread scheduling never leaks into results. Every
/// producer → merge edge recycles its batch buffers: the merge side returns
/// each drained buffer over a bounded channel, and the producer refills from
/// returned buffers before touching the allocator. A producer thread exits
/// when its source is exhausted or when the clock is dropped (its channel
/// hangs up); producer panics propagate when the scope joins.
pub fn spawn_producers<'scope, S>(
    scope: &'scope thread::Scope<'scope, '_>,
    sources: Vec<S>,
) -> MergedClock<ChannelSource>
where
    S: ObservationSource + Send + 'scope,
{
    assert!(!sources.is_empty(), "at least one producer");
    let queue = QUEUE_OBSERVATIONS / PRODUCER_BATCH;
    let mut channels = Vec::with_capacity(sources.len());
    for mut source in sources {
        let (tx, rx) = std::sync::mpsc::sync_channel(queue);
        // The recycle channel mirrors the data channel: at most `queue`
        // batches are queued ahead of the merge, plus one in the producer's
        // hands and one in the merge's, so `queue + 2` transit slots mean no
        // return is ever dropped and the edge's buffer population stays
        // fixed.
        let (mut pool, home) = batch_pool(PRODUCER_BATCH, queue + 2);
        scope.spawn(move || {
            let mut batch = pool.take();
            while let Some(obs) = source.next_observation() {
                batch.push(obs);
                if batch.len() == PRODUCER_BATCH
                    && tx.send(std::mem::replace(&mut batch, pool.take())).is_err()
                {
                    // The clock stopped listening; stop probing.
                    return;
                }
            }
            if !batch.is_empty() {
                let _ = tx.send(batch);
            }
        });
        channels.push(ChannelSource::new(rx, home));
    }
    MergedClock::new(channels)
}

/// One paced pass over a target list — the paper's only probing primitive
/// (run once for expansion, once for density, then daily for detection),
/// described once. The engine turns it into sources
/// (`IngestEngine::run_pass`).
pub(crate) struct Pass<'m> {
    /// The methodology phase every observation is tagged with.
    pub phase: Phase,
    /// The target list and its permuted order, built once and positioned at
    /// the pass's first window ([`TargetStream::starting_at_window`]). Every
    /// producer probes a strided slice of a clone.
    pub targets: TargetStream,
    /// How many windows of `targets` the pass probes.
    pub windows: u64,
    /// Probe budget per second — the ceiling feedback recovers to.
    pub rate_pps: u64,
    /// Virtual time of window 0: window `w` is entered no earlier than
    /// `start + w × interval`.
    pub start: SimTime,
    /// The time between window starts. A one-window scan anchored at its
    /// own `start` passes zero.
    pub interval: SimDuration,
    /// The campaign every observation is stamped with.
    pub tenant: u32,
    /// The virtual-queue model (over the engine's own shard map) the pass
    /// paces against when it can throttle; otherwise the rate is fixed.
    pub queue_model: &'m QueueModel,
}

/// One lease of a [`ShardPool`]: the router armed for this lessee and the
/// pool it returns to, borrowed until the [`release`](IngestEngine::release).
/// See the [module docs](self).
pub struct IngestEngine<'a> {
    router: ShardRouter<'a>,
    pool: &'a mut ShardPool,
    observer: Option<&'a dyn StreamObserver>,
    /// The emptied vector the starting states came in: the release fills it.
    states: Vec<ShardInference>,
}

impl<'a> IngestEngine<'a> {
    /// Lease `pool` (which must have one worker per shard of `map`): arm the
    /// router with `map` and the lessee's observer, and hand every worker
    /// its starting state. A pool whose last lease lost a worker starts this
    /// one from freshly spawned workers.
    pub fn lease(pool: &'a mut ShardPool, map: ShardMap, options: IngestOptions<'a>) -> Self {
        let shards = map.shards();
        let mut states = match options.initial {
            Some(states) => {
                assert_eq!(states.len(), shards, "one seeded state per shard");
                states
            }
            None => vec![ShardInference::new(); shards],
        };
        let mut router = ShardRouter::over(pool.lend(), map, options.observer);
        for (shard, state) in states.drain(..).enumerate() {
            router.adopt(shard, state, options.inject_panic == Some(shard));
        }
        IngestEngine {
            router,
            pool,
            observer: options.observer,
            states,
        }
    }

    /// The router, for everything that happens between drives: compacting,
    /// routing boundary probes, reading the stall count or the dead shard.
    /// (Partial states come back at a boundary by move: release, read, lease
    /// again.)
    pub fn router(&mut self) -> &mut ShardRouter<'a> {
        &mut self.router
    }

    /// Route every observation of `sources` (producer `k` = `sources[k]`)
    /// into the shards in merged clock order, returning how many were routed:
    /// inline on this thread for a single source, through one scoped producer
    /// thread per source and the [`MergedClock`] otherwise — the threads are
    /// spawned and joined inside this call.
    ///
    /// Before it is routed, each observation is fed to `hook` together with
    /// the router — the caller's per-observation fold, monomorphised into
    /// the loop, on this thread and in deterministic clock order.
    ///
    /// Once a shard is dead the merged state can no longer be completed, so
    /// the drive stops (hanging up its producers) — and a drive that starts
    /// with a shard already dead pulls no observation and spawns no producer.
    /// The observer has seen every routed observation by the time a drive
    /// returns.
    pub fn drive<S, F>(&mut self, sources: Vec<S>, hook: F) -> u64
    where
        S: ObservationSource + Send,
        F: FnMut(&mut ShardRouter<'a>, &Observation),
    {
        if self.router.dead_shard().is_some() {
            return 0;
        }
        let before = self.router.routed();
        if sources.len() == 1 {
            let source = sources.into_iter().next().expect("one source");
            self.ingest(source, hook);
        } else {
            // The ingest consumes the clock, so a drive that stops early has
            // hung up on its producers before the scope joins them.
            thread::scope(|scope| {
                let clock = spawn_producers(scope, sources);
                self.ingest(clock, hook);
            });
        }
        // A phase close may follow, and it reads the last send.
        self.router.report_run();
        self.router.routed() - before
    }

    /// Probe one [`Pass`] over `transport` with `producers` producers and
    /// route every observation into the shards, feeding each to `hook` first
    /// (as [`drive`](IngestEngine::drive) does).
    ///
    /// The pass's target stream is built once by the caller; here it yields
    /// one strided [`ContinuousStream`] slice per producer — bounded to the
    /// pass's windows, its probes counted for the observer. When the pass's
    /// queue model can throttle and an observer is on, a merge-side
    /// `RateReplica` of their pacing state sees every observation before
    /// `hook` does. Every pass starts from fresh pacers. Once a shard is dead
    /// a pass pulls no observation and spawns no producer.
    ///
    /// Returns the observations routed and the rate the pass ended on.
    pub(crate) fn run_pass<T, F>(
        &mut self,
        transport: &T,
        producers: usize,
        pass: Pass<'_>,
        mut hook: F,
    ) -> (u64, u64)
    where
        T: ProbeTransport + ?Sized,
        F: FnMut(&mut ShardRouter<'a>, &Observation),
    {
        let observer = self.observer;
        // The streams are lent to the drive, so their pacers are still here
        // afterwards. One ShardMap serves both the router and the pacers, so
        // the two agree by construction.
        let mut streams: Vec<_> = (0..producers)
            .map(|k| {
                ContinuousStream::builder(transport, pass.targets.clone())
                    .phase(pass.phase)
                    .rate_pps(pass.rate_pps)
                    .start(pass.start)
                    .window_interval(pass.interval)
                    .tenant(pass.tenant)
                    .slice(k, producers)
                    .feedback(pass.queue_model.clone(), self.router.map().clone())
                    .build()
            })
            .collect();
        let mut replica = (observer.filter(|_| pass.queue_model.can_throttle()))
            .map(|observer| (RateReplica::new(streams[0].pacing.clone()), observer));
        let sources = (streams.iter_mut().enumerate())
            .map(|(k, stream)| {
                let limit = stream.slice_len() as u64 * pass.windows;
                CountedSource::new(LimitedSource::new(stream, limit), k, observer)
            })
            .collect();
        let routed = self.drive(sources, |router, obs| {
            if let Some((replica, observer)) = replica.as_mut() {
                replica.observe(obs, *observer);
            }
            hook(router, obs);
        });
        // Producer `(L − 1) % P` probed the last window's last position
        // `L − 1`, having accounted every position before it, so its pacer
        // ended where the single-producer trajectory does. An empty window
        // probes nothing: the rate never left the budget.
        let last = pass.targets.window_len().checked_sub(1);
        let end_rate = last.map_or(pass.rate_pps, |last| streams[last % producers].rate());
        (routed, end_rate)
    }

    fn ingest<S, F>(&mut self, mut source: S, mut hook: F)
    where
        S: ObservationSource,
        F: FnMut(&mut ShardRouter<'a>, &Observation),
    {
        while self.router.dead_shard().is_none() {
            let Some(obs) = source.next_observation() else {
                break;
            };
            hook(&mut self.router, &obs);
            self.router.route(obs);
        }
    }

    /// End the lease and hand back the shard states, in shard order: every
    /// buffered batch is delivered, every worker yields the state it adopted
    /// — by move — the router's tally of each shard's expansion-phase
    /// observations is folded into that shard's state, and the pool is
    /// ready for its next lessee. A worker that died is reported as
    /// [`StreamError::ShardPanicked`] (the first, in shard order), never
    /// re-raised on this thread; the survivors drain first, and every
    /// thread of the pool is joined before this returns.
    pub fn release(self) -> Result<Vec<ShardInference>, StreamError> {
        let (lanes, tallies) = self.router.yield_states();
        let mut states = self.pool.collect(lanes, self.observer, self.states)?;
        for (state, tally) in states.iter_mut().zip(tallies) {
            tally.fold_into(state);
        }
        Ok(states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LimitedSource;
    use crate::observation::Phase;
    use crate::source::ContinuousStream;
    use scent_ipv6::Eui64;
    use scent_prober::{TargetGenerator, TargetStream};
    use scent_simnet::{scenarios, Engine, SimTime};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// One watched /48 of the continuous world, as strided continuous
    /// producers: the monitor's epoch sources in miniature.
    fn producers(engine: &Engine, of: usize) -> Vec<ContinuousStream<'_, Engine>> {
        let watched = [engine.pools()[0].config.prefix.nth_subnet(48, 0).unwrap()];
        (0..of)
            .map(|k| {
                let targets = TargetStream::new(&TargetGenerator::new(4), &watched, 56, 11, true)
                    .slice(k, of);
                ContinuousStream::builder(engine, targets)
                    .start(SimTime::at(10, 9))
                    .build()
            })
            .collect()
    }

    /// A density observation answered by an EUI-64 source in its /48.
    fn answered_density(seq: u64) -> Observation {
        Observation {
            phase: Phase::Density,
            ..answered_expansion(seq)
        }
    }

    /// An expansion observation answered by an EUI-64 source: it validates
    /// `2001:db8:1::/48`.
    fn answered_expansion(seq: u64) -> Observation {
        let source = Eui64::from_mac("c8:0e:14:01:02:03".parse().unwrap())
            .with_prefix64(0x2001_0db8_0001_0000);
        Observation {
            phase: Phase::Expansion,
            tenant: 0,
            window: 0,
            seq,
            target: "2001:db8:1::1".parse().unwrap(),
            sent_at: SimTime::at(1, 0),
            response: Some(scent_prober::ResponseRecord {
                source,
                kind: scent_simnet::ReplyKind::TimeExceeded,
            }),
        }
    }

    #[test]
    fn workers_flush_and_return_state() {
        let rib = scent_bgp::Rib::new();
        let obs = answered_density(0);
        let map = ShardMap::new(&rib.entries(), 2);
        let owner = map.shard_for(obs.target);
        let mut pool = ShardPool::open(2);
        let mut engine = IngestEngine::lease(&mut pool, map.clone(), IngestOptions::default());
        engine.router().route(obs);
        // A phase boundary: the release delivers the partial batch and sees
        // it (FIFO), and the next lease carries the states on by move.
        let partial = engine.release().unwrap();
        assert_eq!(partial[owner].density.len(), 1);
        let options = IngestOptions {
            initial: Some(partial),
            ..IngestOptions::default()
        };
        let mut engine = IngestEngine::lease(&mut pool, map, options);
        engine.router().route(obs);
        let finals = engine.release().unwrap();
        assert_eq!(finals[owner].observations, 2);
        assert_eq!(finals[owner].density.len(), 1);
        assert_eq!(finals[owner].density[&obs.target_48()].probes, 2);
        assert_eq!(finals[1 - owner].observations, 0);
    }

    /// Expansion-phase observations never reach a worker: a lease that
    /// routes nothing else takes no batch buffer, and a worker poisoned to
    /// panic on its first non-empty batch survives it — its yield is all it
    /// receives. The release still hands back what they contribute, and the
    /// next lease carries it on by move.
    #[test]
    fn a_lease_of_expansion_observations_ships_nothing() {
        let map = ShardMap::new(&scent_bgp::Rib::new().entries(), 2);
        let obs = answered_expansion(0);
        let owner = map.shard_for(obs.target);
        let mut pool = ShardPool::open(2);
        let mut carried = None;
        for lease in 1..=2u64 {
            let options = IngestOptions {
                initial: carried.take(),
                inject_panic: Some(owner),
                ..IngestOptions::default()
            };
            let mut engine = IngestEngine::lease(&mut pool, map.clone(), options);
            let counters = engine.router().buffer_counters();
            engine.router().route(obs);
            let silent = Observation {
                seq: 1,
                response: None,
                ..obs
            };
            engine.router().route(silent);
            assert_eq!(engine.router().routed(), 2);
            assert_eq!(counters.allocated() + counters.recycled(), 0);
            let states = engine.release().expect("no worker saw a batch");
            assert_eq!(states[owner].observations, 2 * lease);
            assert_eq!(states[owner].validated.len(), 1);
            assert_eq!(states[1 - owner].observations, 0);
            assert!(states[1 - owner].validated.is_empty());
            carried = Some(states);
        }
    }

    /// A small deterministic generator for the tally's differential test.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: u64) -> u64 {
            self.0 += 1;
            scent_simnet::det::splitmix64(self.0) % n
        }
    }

    /// A random stream over six /32s (four announced, two not) and three
    /// windows: expansion observations (EUI-64 answers, non-EUI answers,
    /// silence) mixed with density and detection ones, whose identifiers
    /// wander between /48s.
    fn mixed_phases(seed: u64, len: usize) -> Vec<Observation> {
        const NETS: [u64; 6] = [
            0x2001_16b8,
            0x2a02_27b0,
            0x2803_9810,
            0x2a01_0c00,
            0x2001_0db8,
            0x2c0f_f248,
        ];
        let mut draws = Draws(seed << 32);
        let addr = |prefix64: u64, iid: u128| {
            scent_ipv6::addr_from_u128((u128::from(prefix64) << 64) | iid)
        };
        (0..len as u64)
            .map(|seq| {
                let net = NETS[draws.below(6) as usize];
                // Three /48s a net, eight /64s a /48.
                let prefix64 = (net << 32) | (draws.below(3) << 16) | draws.below(8);
                let target = addr(prefix64, 1);
                let phase = match draws.below(3) {
                    0 => Phase::Expansion,
                    1 => Phase::Density,
                    _ => Phase::Detection,
                };
                let source = match draws.below(4) {
                    0 => None,
                    1 => Some(addr(prefix64, 0xbeef)),
                    _ => {
                        let mac = format!("c8:0e:14:00:00:{:02x}", draws.below(12));
                        let eui = Eui64::from_mac(mac.parse().unwrap());
                        Some(eui.with_prefix64(prefix64))
                    }
                };
                Observation {
                    phase,
                    tenant: 0,
                    window: seq * 3 / len as u64,
                    seq,
                    target,
                    sent_at: SimTime::at(1, seq),
                    response: source.map(|source| scent_prober::ResponseRecord {
                        source,
                        kind: scent_simnet::ReplyKind::TimeExceeded,
                    }),
                }
            })
            .collect()
    }

    /// The router's tally is the worker's fold of the observations it keeps:
    /// over 1, 2 and 3 shards, with states carried across two leases and in
    /// both shard flavours, every released state equals
    /// [`ShardInference::ingest`] applied to its shard's own subsequence.
    #[test]
    fn tallied_states_equal_the_fold_of_each_shards_subsequence() {
        use scent_checkpoint::encode_value;

        const ANNOUNCED: [&str; 4] = [
            "2001:16b8::/32",
            "2a02:27b0::/32",
            "2803:9810::/32",
            "2a01:c00::/26",
        ];
        let mut rib = scent_bgp::Rib::new();
        for (asn, net) in (64_500..).zip(ANNOUNCED) {
            rib.announce(net.parse().unwrap(), scent_bgp::Asn(asn));
        }
        let flavours = [ShardInference::new(), ShardInference::without_census()];
        for seed in 0..6u64 {
            let stream = mixed_phases(seed, 600);
            let expanded = stream.iter().filter(|o| o.phase == Phase::Expansion);
            assert!(expanded.count() > 100, "seed {seed}");
            for (shards, empty) in (1..=3usize).flat_map(|n| flavours.iter().map(move |e| (n, e))) {
                let at = format!("seed {seed}, {shards} shards");
                let map = ShardMap::new(&rib.entries(), shards);
                let mut want = vec![empty.clone(); shards];
                for obs in &stream {
                    want[map.shard_for(obs.target)].ingest(obs);
                }
                // Every part of the fold is exercised.
                let busy = want.iter().filter(|s| s.observations > 0).count();
                assert!(busy >= shards.min(2), "{at}: {busy} busy");
                assert!(want.iter().any(|s| !s.validated.is_empty()), "{at}");
                assert!(want.iter().any(|s| !s.events.is_empty()), "{at}");

                let mut pool = ShardPool::open(shards);
                let mut carried = Some(vec![empty.clone(); shards]);
                for half in stream.chunks(stream.len() / 2) {
                    let options = IngestOptions {
                        initial: carried.take(),
                        ..IngestOptions::default()
                    };
                    let mut engine = IngestEngine::lease(&mut pool, map.clone(), options);
                    for obs in half {
                        engine.router().route(*obs);
                    }
                    carried = Some(engine.release().unwrap());
                }
                let got = carried.expect("two leases released");
                for (mut got, mut want) in got.into_iter().zip(want) {
                    assert_eq!(got.observations, want.observations, "{at}");
                    assert_eq!(got.validated, want.validated, "{at}");
                    assert_eq!(got.density, want.density, "{at}");
                    assert_eq!(got.events, want.events, "{at}");
                    assert_eq!(got.address_statistics(), want.address_statistics());
                    got.tracker.fold();
                    want.tracker.fold();
                    let tracker = |state: &ShardInference| encode_value(&state.tracker);
                    assert_eq!(tracker(&got), tracker(&want), "{at}");
                    assert_eq!(encode_value(&got), encode_value(&want), "{at}");
                }
            }
        }
    }

    /// The queue holds what the one production setting of the retired
    /// capacity knob held (1 024 messages of 64 observations), in whole
    /// messages of the engine's batch.
    #[test]
    fn queue_is_sized_in_observations() {
        assert_eq!(QUEUE_OBSERVATIONS, 1024 * 64);
        assert_eq!(QUEUE_OBSERVATIONS % OBSERVATION_BATCH, 0);
        assert_eq!(QUEUE_OBSERVATIONS / OBSERVATION_BATCH, 16);
    }

    /// A worker is handed one buffer per full batch, and the lease's last
    /// batch rides its yield: 3 full batches and one observation take
    /// exactly 4 buffers from the pool.
    #[test]
    fn a_lease_hands_off_one_buffer_per_batch() {
        let map = ShardMap::new(&scent_bgp::Rib::new().entries(), 1);
        let mut pool = ShardPool::open(1);
        let mut engine = IngestEngine::lease(&mut pool, map, IngestOptions::default());
        let routed = 3 * OBSERVATION_BATCH + 1;
        let pulls = AtomicU64::new(0);
        let source = LimitedSource::new(Counting(&pulls), routed as u64);
        assert_eq!(engine.drive(vec![source], |_, _| {}), routed as u64);
        let counters = engine.router().buffer_counters();
        assert_eq!(counters.allocated() + counters.recycled(), 4);
        let states = engine.release().unwrap();
        assert_eq!(states[0].observations, routed as u64);
    }

    /// However far the router runs ahead of its worker, a lease holds at
    /// most the buffers [`ShardPool::open`] sizes the return channel for —
    /// the queue's 16 messages, one in the router's hands and one in the
    /// worker's — so a lazily warmed pool allocates no more than that, and
    /// the next lease recycles them.
    #[test]
    fn a_lease_holds_no_more_buffers_than_the_pool_is_sized_for() {
        const BATCHES: u64 = 40;
        let ceiling = (QUEUE_OBSERVATIONS / OBSERVATION_BATCH + 2) as u64;
        let mut pool = ShardPool::open(1);
        for lease in 1..=2 {
            let map = ShardMap::new(&scent_bgp::Rib::new().entries(), 1);
            let mut engine = IngestEngine::lease(&mut pool, map, IngestOptions::default());
            let counters = engine.router().buffer_counters();
            for seq in 0..BATCHES * OBSERVATION_BATCH as u64 {
                engine.router().route(answered_density(seq));
                let allocated = counters.allocated();
                assert!(allocated <= ceiling, "{allocated} buffers allocated");
            }
            // The router takes exactly one buffer for each batch it fills,
            // when the batch's first observation arrives, so 40 a lease;
            // the counters run on across leases. The 40th batch is not
            // sent on its own: `release` hands it to the worker.
            assert_eq!(counters.allocated() + counters.recycled(), lease * BATCHES);
            let states = engine.release().unwrap();
            assert_eq!(states[0].observations, BATCHES * OBSERVATION_BATCH as u64);
        }
    }

    /// Sums what `on_shard_progress` reports.
    struct Progress(AtomicU64);

    impl StreamObserver for Progress {
        fn on_shard_progress(&self, _shard: usize, ingested: u64) {
            self.0.fetch_add(ingested, Ordering::Relaxed);
        }
    }

    /// One pool, lease after lease: each lessee's states go in by move and
    /// come back holding exactly what was routed under that lease — nothing
    /// of the lessee before — and a lease that loses a worker fails alone:
    /// the next one runs on fresh workers.
    #[test]
    fn a_pool_serves_lease_after_lease_and_survives_a_dead_worker() {
        let world = Engine::build(scenarios::continuous_world(9)).unwrap();
        let map = || ShardMap::new(&world.rib().entries(), 2);
        let mut pool = ShardPool::open(2);
        let mut carried: Option<Vec<ShardInference>> = None;
        for lease in 1..=3u64 {
            let options = IngestOptions {
                initial: carried.take(),
                ..IngestOptions::default()
            };
            let mut engine = IngestEngine::lease(&mut pool, map(), options);
            let sources = producers(&world, 2)
                .into_iter()
                .map(|stream| LimitedSource::new(stream, 128))
                .collect();
            assert_eq!(engine.drive(sources, |_, _| {}), 256);
            let states = engine.release().unwrap();
            let folded: u64 = states.iter().map(|state| state.observations).sum();
            assert_eq!(folded, 256 * lease, "carried state plus this lease");
            carried = Some(states);
        }
        // Another lessee, starting empty, sees none of that — not in its
        // states, and not as ingest progress reported to its observer (the
        // leases above had none to report theirs to).
        let seen = Progress(AtomicU64::new(0));
        let options = IngestOptions {
            observer: Some(&seen),
            ..IngestOptions::default()
        };
        let fresh = IngestEngine::lease(&mut pool, map(), options).release();
        assert!(fresh.unwrap().iter().all(|state| state.observations == 0));
        assert_eq!(seen.0.load(Ordering::Relaxed), 0);

        // The one watched /48 lives in one announcement, so on one shard:
        // poison that one, or the endless drive below never ends.
        let owner = (carried.as_ref().expect("carried out of the loop").iter())
            .position(|state| state.observations > 0)
            .expect("some shard folded the traffic");
        let options = IngestOptions {
            inject_panic: Some(owner),
            ..IngestOptions::default()
        };
        let mut engine = IngestEngine::lease(&mut pool, map(), options);
        engine.drive(producers(&world, 1), |_, _| {});
        assert_eq!(
            engine.release().unwrap_err(),
            StreamError::ShardPanicked { shard: owner }
        );
        let mut engine = IngestEngine::lease(&mut pool, map(), IngestOptions::default());
        let source = LimitedSource::new(producers(&world, 1).remove(0), 256);
        engine.drive(vec![source], |_, _| {});
        let after = engine.release();
        let folded: u64 = after.unwrap().iter().map(|state| state.observations).sum();
        assert_eq!(folded, 256, "the poison died with the lease it was for");
    }

    /// Many sources driven through producer threads and the merged clock
    /// reach the hook — and the shards — in exactly the inline merge's order.
    #[test]
    fn threaded_drive_matches_inline_merge() {
        let world = Engine::build(scenarios::continuous_world(9)).unwrap();
        let windows = 3u64;
        let limited = || -> Vec<_> {
            producers(&world, 4)
                .into_iter()
                .map(|stream| {
                    let limit = stream.slice_len() as u64 * windows;
                    LimitedSource::new(stream, limit)
                })
                .collect()
        };
        let mut inline = MergedClock::new(limited());
        let want: Vec<Observation> = std::iter::from_fn(|| inline.next_observation()).collect();
        assert_eq!(want.len() as u64, 256 * windows);
        let map = ShardMap::new(&world.rib().entries(), 2);
        let mut pool = ShardPool::open(2);
        let mut engine = IngestEngine::lease(&mut pool, map, IngestOptions::default());
        let mut got = Vec::new();
        let routed = engine.drive(limited(), |_, obs| got.push(*obs));
        assert_eq!(got, want);
        assert_eq!(routed, want.len() as u64);
        let states = engine.release().unwrap();
        let classified: u64 = states.iter().map(|s| s.observations).sum();
        assert_eq!(classified, routed);
    }

    /// An endless source that counts how often it is pulled.
    struct Counting<'a>(&'a AtomicU64);

    impl ObservationSource for Counting<'_> {
        fn next_observation(&mut self) -> Option<Observation> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Some(Observation {
                phase: Phase::Density,
                tenant: 0,
                window: 0,
                seq: 0,
                target: "2001:db8::1".parse().unwrap(),
                sent_at: SimTime::at(0, 0),
                response: None,
            })
        }
    }

    /// A shard death ends the drive it happens in — hanging up producers
    /// that would otherwise probe forever — and every later drive returns
    /// without pulling an observation or spawning a producer; the release
    /// then reports the dead shard as a typed error.
    #[test]
    fn dead_shard_stops_this_drive_and_every_later_one() {
        let world = Engine::build(scenarios::continuous_world(9)).unwrap();
        let pulls = AtomicU64::new(0);
        let map = ShardMap::new(&world.rib().entries(), 1);
        let options = IngestOptions {
            inject_panic: Some(0),
            ..IngestOptions::default()
        };
        let mut pool = ShardPool::open(1);
        let mut engine = IngestEngine::lease(&mut pool, map, options);
        // Unlimited producers: only the worker's death ends this drive, and
        // it returns only if both producer threads noticed the clock hang up
        // and returned.
        engine.drive(producers(&world, 2), |_, _| {});
        assert_eq!(engine.router().dead_shard(), Some(0));
        assert_eq!(engine.drive(vec![Counting(&pulls)], |_, _| {}), 0);
        let many = vec![Counting(&pulls), Counting(&pulls)];
        assert_eq!(engine.drive(many, |_, _| {}), 0);
        let closed = engine.release();
        assert_eq!(
            pulls.load(Ordering::Relaxed),
            0,
            "no probe after a shard died"
        );
        assert_eq!(closed.unwrap_err(), StreamError::ShardPanicked { shard: 0 });
    }
}
