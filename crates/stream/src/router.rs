//! The shard router: partitions observations by announced prefix.
//!
//! Every announced prefix in the RIB is assigned a shard by hashing its /32
//! bits (prefixes shorter than /32 hash their own network bits), and a
//! [`PrefixTable`] resolves each observation's target to its announcement by
//! longest-prefix match. Routing by announcement — rather than, say, hashing
//! the full target — is what gives the engine its merge guarantees: a /48, a
//! rotation pool, and every address an identifier can rotate to within its
//! provider all live inside one announcement, so per-prefix and
//! per-identifier inference state never splits across shards.
//!
//! [`ShardMap::shard_for`] is the only routing rule: the router calls it for
//! every observation — a pass's, a boundary re-expansion's or a discovery
//! sweep's alike — and the virtual-queue pacer and its merge-side replica
//! call the same function, so all three agree by construction. A one-shard
//! map answers without a lookup.
//!
//! Channels are bounded: when a shard's queue is full, [`ShardRouter::route`]
//! blocks (delivering every observation) and counts the stall
//! ([`ShardRouter::stalls`]).
//!
//! An expansion-phase observation — a boundary re-expansion's, a discovery
//! sweep's, a pipeline's expansion pass's — never reaches a worker. All a
//! shard would make of it is one more observation and, for an EUI-64
//! answer, one validated /48, so the router keeps that per shard in an
//! `ExpansionTally` and the lease's release folds each tally into the state
//! its worker yields. The observation is still resolved, counted in
//! [`ShardRouter::routed`] and reported to the observer like any other;
//! its shard's counts are reported as ingested progress at the same time,
//! since no worker will report them.
//!
//! The other observations are *batched* per channel message: the router
//! accumulates up to N observations per shard and delivers them as one
//! [`ShardMsg::ObserveBatch`], amortizing the per-message channel overhead
//! that dominates at high ingest rates. Per-shard delivery order is the same
//! at any batch size (a batch of one is a one-element `ObserveBatch`), so
//! batching never affects the merged report — only throughput. A full batch
//! is delivered when the next observation needs its room, not when it
//! fills, so a lease's last batch rides the [`ShardMsg::Yield`] that ends
//! it: one wake-up of a parked worker, not two.
//!
//! Telemetry is batched the same way: the router counts routed
//! observations into a pending run in plain integers and hands the
//! observer a [`RoutedRun`] at a window's first observation, before every
//! delivery, at the end of a drive and before compaction, yield and
//! shutdown — never one call, or one lock, an observation.
//!
//! Observations carry a tenant tag (see
//! [`Observation::tenant`](crate::observation::Observation::tenant)), but the
//! router is tenant-oblivious: routing is by target announcement only, and
//! the tag rides through untouched. Tenant isolation lives a layer up: a
//! router serves one tenant's lease of a
//! [`ShardPool`](crate::engine::ShardPool) at a time, and the workers hold
//! that tenant's inference state only for the lease.
//!
//! A shard worker dying (panicking) must not take the control thread down
//! with it: instead of panicking on a hung-up channel, the router records the
//! dead shard (`ShardRouter::dead_shard`) and degrades delivery to a no-op,
//! so the ingest loop can notice, abort the run cleanly, and surface a typed
//! error after joining the surviving workers.

use std::net::Ipv6Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};

use scent_bgp::{PrefixTable, RibEntry};
use scent_ipv6::{addr_to_u128, Ipv6Prefix};
use scent_simnet::det::hash2;
use scent_simnet::SimTime;
use scent_telemetry::{RoutedRun, StreamObserver};

use crate::buffer::{batch_pool, BatchPool, BatchReturn, PoolCounters};
use crate::observation::{Observation, Phase};
use crate::shard::{ExpansionTally, ShardInference, ShardMsg};

/// Recycle-channel slots per shard when [`ShardRouter::with_map`]'s caller
/// doesn't size the pool ([`ShardRouter::with_pool_slots`]): enough transit
/// room that a promptly-draining shard set recycles every buffer, without
/// reserving channel storage proportional to a possibly huge queue capacity.
///
/// Kept for e2ebench's frozen import list (it serves only `with_map`) — do
/// not build on; goes at the next benchmark revision.
const DEFAULT_POOL_SLOTS_PER_SHARD: usize = 32;

/// The pure target → shard mapping the router is built on.
///
/// Extracted as its own type so the mapping can be evaluated *away* from the
/// router: the virtual-queue feedback model
/// ([`QueuePacer`](scent_prober::QueuePacer)) needs to know, for every
/// probing-order position, which shard the observation will be routed to —
/// including positions owned by other producers — and it must agree with the
/// router exactly. Both sides therefore share this one implementation.
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// Shared: a session clones its map into every epoch's router (and,
    /// under feedback, every producer's pacer).
    table: Arc<PrefixTable<usize>>,
    shards: usize,
}

impl ShardMap {
    /// Build the mapping over the announced prefixes of a RIB for `shards`
    /// shards.
    pub fn new(entries: &[RibEntry], shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        let table: PrefixTable<usize> = entries
            .iter()
            .map(|e| (e.prefix, Self::shard_of_prefix(&e.prefix, shards)))
            .collect();
        ShardMap {
            table: Arc::new(table),
            shards,
        }
    }

    /// The shard an announced prefix is pinned to: a hash of its /32 bits
    /// (announcements shorter than /32 hash their own network bits, keeping
    /// all their more-specific space together).
    fn shard_of_prefix(prefix: &Ipv6Prefix, shards: usize) -> usize {
        let key_len = prefix.len().min(32);
        let bits32 = (prefix.network_bits() >> 96) as u64 & (u64::MAX << (32 - key_len as u64));
        (hash2(0x7368_6172, bits32, key_len as u64) % shards as u64) as usize
    }

    /// The shard a target address routes to: its longest-matching
    /// announcement's shard, or a hash of the target's own /32 for
    /// unannounced space (so stray observations still land
    /// deterministically). A one-shard map answers 0 without a lookup.
    ///
    /// This is the only routing rule: the router, the virtual-queue pacer
    /// and its merge-side replica all call it per observation.
    pub fn shard_for(&self, target: Ipv6Addr) -> usize {
        if self.shards == 1 {
            return 0;
        }
        if let Some((_, &shard)) = self.table.longest_match(target) {
            return shard;
        }
        let bits32 = (addr_to_u128(target) >> 96) as u64;
        (hash2(0x7368_6172, bits32, 32) % self.shards as u64) as usize
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

/// What a pool's worker thread and the control thread share besides the
/// worker's queue.
#[derive(Default)]
pub(crate) struct WorkerLink {
    /// The state (and fault injection) of a lease that has begun: filled by
    /// the control thread before the lease's first message, taken by the
    /// worker when that message arrives. Not a message itself, so a lease
    /// costs the parked worker no wake-up of its own.
    pub(crate) adoption: Mutex<Option<(ShardInference, bool)>>,
    /// Observations the worker folded since they were last reported to an
    /// observer. Pool workers hold no observer (it is the lessee's, they
    /// are not), so the control thread forwards the count.
    pub(crate) folded: AtomicU64,
}

/// The delivery side of a set of shard workers — everything about a router
/// that does not depend on whose observations it routes: the workers'
/// channels, the per-shard batch being filled, and the recycle pool the
/// workers return drained batches to. A [`ShardPool`](crate::engine::ShardPool)
/// keeps it between leases, so an epoch allocates none of it.
pub(crate) struct Lanes {
    senders: Vec<SyncSender<ShardMsg>>,
    /// Observations per delivered message.
    batch: usize,
    buffers: Vec<Vec<Observation>>,
    /// Recycled batch buffers: shard workers return drained `ObserveBatch`
    /// buffers here, so steady-state delivery allocates nothing.
    pool: BatchPool,
    /// One per pool worker; empty for workers that are not a pool's.
    links: Vec<Arc<WorkerLink>>,
}

impl Lanes {
    /// Lanes over `senders` delivering `batch` observations per message,
    /// with a recycle pool of `slots` transit slots handed to every worker.
    /// Returns the first worker that had already hung up, if any.
    pub(crate) fn open(
        senders: Vec<SyncSender<ShardMsg>>,
        links: Vec<Arc<WorkerLink>>,
        batch: usize,
        slots: usize,
    ) -> (Self, Option<usize>) {
        assert!(!senders.is_empty(), "at least one shard");
        let (pool, home) = batch_pool(batch, slots);
        let lanes = Lanes {
            buffers: vec![Vec::new(); senders.len()],
            senders,
            batch,
            pool,
            links,
        };
        let dead = lanes.attach(home);
        (lanes, dead)
    }

    /// Hand every worker the pool's return handle; the first that hung up.
    fn attach(&self, home: BatchReturn) -> Option<usize> {
        let hung_up = |sender: &SyncSender<ShardMsg>| {
            sender.send(ShardMsg::AttachRecycler(home.clone())).is_err()
        };
        self.senders.iter().position(hung_up)
    }

    /// Number of workers.
    pub(crate) fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Report what worker `shard` folded since the last report
    /// ([`StreamObserver::on_shard_progress`], wall-clock tier). Without an
    /// observer the count is dropped all the same: it is this lease's, and
    /// must not be read as the next one's.
    pub(crate) fn forward_progress(&self, shard: usize, observer: Option<&dyn StreamObserver>) {
        if let Some(link) = self.links.get(shard) {
            // A statistic: it publishes no other data.
            let ingested = link.folded.swap(0, Ordering::Relaxed);
            if let (Some(observer), true) = (observer, ingested > 0) {
                observer.on_shard_progress(shard, ingested);
            }
        }
    }
}

/// Routed observations not yet reported to the observer: one run of one
/// window, in plain integers (see the [module docs](self)).
struct PendingRun {
    /// The window of the last observation routed, `None` before the
    /// lease's first: the window-opened marker. (An empty run says nothing
    /// about windows — it is empty after every report.)
    window: Option<u64>,
    observations: u64,
    responses: u64,
    first_send: SimTime,
    last_send: SimTime,
    per_shard: Vec<u64>,
    /// Of `per_shard`, the observations the router tallied itself.
    tallied: Vec<u64>,
}

impl PendingRun {
    fn new(shards: usize) -> Self {
        PendingRun {
            window: None,
            observations: 0,
            responses: 0,
            first_send: SimTime::EPOCH,
            last_send: SimTime::EPOCH,
            per_shard: vec![0; shards],
            tallied: vec![0; shards],
        }
    }

    /// Count one routed observation in — `tallied` if it goes to its
    /// shard's tally rather than its worker; a window's first is reported
    /// at once and alone, after whatever the previous window left pending.
    fn note(
        &mut self,
        shard: usize,
        obs: &Observation,
        tallied: bool,
        observer: &dyn StreamObserver,
    ) {
        let opens = self.window != Some(obs.window);
        if opens {
            self.report(observer);
            self.window = Some(obs.window);
        }
        if self.observations == 0 {
            self.first_send = obs.sent_at;
        }
        self.observations += 1;
        self.responses += u64::from(obs.response.is_some());
        self.last_send = obs.sent_at;
        self.per_shard[shard] += 1;
        self.tallied[shard] += u64::from(tallied);
        if opens {
            self.report(observer);
        }
    }

    /// Hand the pending run to the observer, if it holds anything. Its
    /// tallied observations are reported as ingested first: no worker will
    /// report them, and the channel-depth proxy (routed minus ingested)
    /// must not read them as queued.
    fn report(&mut self, observer: &dyn StreamObserver) {
        if self.observations == 0 {
            return;
        }
        for (shard, tallied) in self.tallied.iter_mut().enumerate() {
            if *tallied > 0 {
                observer.on_shard_progress(shard, std::mem::take(tallied));
            }
        }
        observer.on_routed_run(&RoutedRun {
            window: self.window.expect("a counted observation set the window"),
            observations: self.observations,
            responses: self.responses,
            first_send: self.first_send,
            last_send: self.last_send,
            per_shard: &self.per_shard,
        });
        self.observations = 0;
        self.responses = 0;
        self.per_shard.fill(0);
    }
}

/// Routes observations to shard workers over bounded channels.
///
/// The lessee's optional [`StreamObserver`]
/// ([`IngestOptions::observer`](crate::engine::IngestOptions::observer)) is
/// the telemetry hook point: [`ShardRouter::route`] counts every
/// observation, in merged deterministic clock order, into runs it reports
/// via [`StreamObserver::on_routed_run`] (the deterministic tier), and
/// blocking deliveries report stalls via [`StreamObserver::on_stall`] (the
/// wall-clock tier). Without an observer the hot path pays one `None`
/// branch per route and nothing else.
pub struct ShardRouter<'t> {
    map: ShardMap,
    lanes: Lanes,
    stalls: u64,
    routed: u64,
    run: PendingRun,
    /// Per shard, the expansion-phase observations kept from its worker;
    /// empty until the lease routes its first, so a lease that routes none
    /// allocates nothing for them.
    tallies: Vec<ExpansionTally>,
    observer: Option<&'t dyn StreamObserver>,
    dead: Option<usize>,
}

impl<'t> ShardRouter<'t> {
    /// Build a router around a [`ShardMap`], delivering to `senders` (one per
    /// mapped shard) in messages of up to `batch` observations. Taking the
    /// map rather than building one is how a caller that also needs the
    /// mapping elsewhere (the virtual-queue feedback model) guarantees — by
    /// construction, not by convention — that the router and the feedback
    /// model route every target identically.
    ///
    /// Kept for e2ebench's frozen import list (the harness hand-builds a
    /// router over its own worker; the crate's runs route through a
    /// [`ShardPool`](crate::engine::ShardPool) lease) — do not build on;
    /// goes at the next benchmark revision.
    pub fn with_map(map: ShardMap, senders: Vec<SyncSender<ShardMsg>>, batch: usize) -> Self {
        let slots = senders.len() * DEFAULT_POOL_SLOTS_PER_SHARD;
        let (lanes, dead) = Lanes::open(senders, Vec::new(), batch, slots);
        ShardRouter {
            dead,
            ..Self::over(lanes, map, None)
        }
    }

    /// A router for one lease of a pool's `lanes`: this tenant's map and
    /// observer, fresh counters.
    pub(crate) fn over(
        lanes: Lanes,
        map: ShardMap,
        observer: Option<&'t dyn StreamObserver>,
    ) -> Self {
        assert_eq!(map.shards(), lanes.shards(), "one worker per mapped shard");
        // Only an observed lease counts runs (an unobserved one allocates
        // nothing for them).
        let run_shards = if observer.is_some() {
            lanes.shards()
        } else {
            0
        };
        ShardRouter {
            run: PendingRun::new(run_shards),
            tallies: Vec::new(),
            map,
            lanes,
            stalls: 0,
            routed: 0,
            observer,
            dead: None,
        }
    }

    /// Leave worker `shard` the inference state it folds into for this lease
    /// (it hands it back at [`ShardRouter::yield_states`]); the worker takes
    /// it with the lease's first message. With `poison` the worker panics
    /// on its first batch — the fault-injection hook.
    pub(crate) fn adopt(&mut self, shard: usize, state: ShardInference, poison: bool) {
        let mut adoption = self.lanes.links[shard]
            .adoption
            .lock()
            .expect("nothing panics holding the adoption slot");
        *adoption = Some((state, poison));
    }

    /// End the lease: ask every worker for its state back, handing it its
    /// last buffered batch in the same message (FIFO channels: each answers
    /// after folding everything routed before). The lanes return to their
    /// pool, which collects the answers; the tallies, one per shard (none
    /// if the lease routed no expansion-phase observation), are for the
    /// states collected.
    pub(crate) fn yield_states(mut self) -> (Lanes, Vec<ExpansionTally>) {
        for shard in 0..self.lanes.shards() {
            let last = std::mem::take(&mut self.lanes.buffers[shard]);
            self.deliver(shard, ShardMsg::Yield(last));
        }
        (self.lanes, self.tallies)
    }

    /// Hand the observer whatever routed observations it has not seen yet,
    /// as a drive does when it returns. Every delivery does it first, and
    /// a routed observation waits in a buffer until one: so nothing routed
    /// outlives a compaction, a yield or a shutdown unreported either.
    pub(crate) fn report_run(&mut self) {
        if let Some(observer) = self.observer {
            self.run.report(observer);
        }
    }

    /// Rebuild the batch-buffer recycle pool with `slots` transit slots (the
    /// default is a modest per-shard constant). Size it to the maximum
    /// number of buffers simultaneously in flight —
    /// `shards × (queue messages + 2)` covers every queue position plus
    /// one buffer in the router's and one in each worker's hands — and no
    /// return is ever dropped.
    ///
    /// Kept for e2ebench's frozen import list (a pool sizes its own lanes)
    /// — do not build on; goes at the next benchmark revision.
    pub fn with_pool_slots(mut self, slots: usize) -> Self {
        let (pool, home) = batch_pool(self.lanes.batch, slots);
        self.lanes.pool = pool;
        if let Some(shard) = self.lanes.attach(home) {
            self.dead.get_or_insert(shard);
        }
        self
    }

    /// Eagerly allocate `buffers` batch buffers into the pool (see
    /// `BatchPool::prefill`). With a prefill covering the maximum
    /// in-flight population, steady-state routing provably never allocates
    /// — what the hot-path allocation regression test asserts.
    pub fn prefill_buffers(&mut self, buffers: usize) {
        self.lanes.pool.prefill(buffers);
    }

    /// A handle on the batch-buffer pool's allocation/recycle counters.
    pub fn buffer_counters(&self) -> std::sync::Arc<PoolCounters> {
        self.lanes.pool.counters()
    }

    /// The pure target → shard mapping this router routes by — what a caller
    /// shares with the virtual-queue feedback model.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Does nothing: the router resolves every observation with
    /// [`ShardMap::shard_for`].
    ///
    /// Kept for e2ebench's frozen import list — do not build on; goes at the
    /// next benchmark revision.
    pub fn set_seq_shards(&mut self, _table: Vec<u32>) {}

    /// Buffer one observation for its shard, first delivering the shard's
    /// batch if it is full. Blocks when a delivery finds the shard's queue
    /// full (counted in [`ShardRouter::stalls`]). An expansion-phase
    /// observation goes to its shard's tally instead, and is never
    /// delivered (see the [module docs](self)).
    pub fn route(&mut self, obs: Observation) {
        let shard = self.map.shard_for(obs.target);
        self.routed += 1;
        if obs.phase == Phase::Expansion {
            self.tally(shard, &obs);
            return;
        }
        if self.lanes.buffers[shard].len() >= self.lanes.batch {
            // Delivered when the next observation needs the room, so a
            // lease's last batch is left for the yield to carry.
            self.flush_buffer(shard);
        }
        if let Some(observer) = self.observer {
            self.run.note(shard, &obs, false, observer);
        }
        let buffer = &mut self.lanes.buffers[shard];
        if buffer.capacity() == 0 {
            // First observation since a flush: a shard that is routed
            // nothing takes no buffer.
            *buffer = self.lanes.pool.take();
        }
        buffer.push(obs);
    }

    /// Count an expansion-phase observation into its shard's tally. Kept
    /// out of line, so that `route`'s batching path — the density and
    /// detection passes' — compiles as it did before there was a tally.
    #[inline(never)]
    fn tally(&mut self, shard: usize, obs: &Observation) {
        if let Some(observer) = self.observer {
            self.run.note(shard, obs, true, observer);
        }
        if self.tallies.is_empty() {
            self.tallies = vec![ExpansionTally::default(); self.lanes.shards()];
        }
        self.tallies[shard].add(obs);
    }

    /// Send one message, blocking on a full queue and counting the stall.
    /// A hung-up channel means the worker died (panicked); the shard is
    /// recorded as dead and the message dropped rather than panicking the
    /// control thread.
    fn deliver(&mut self, shard: usize, msg: ShardMsg) {
        if let Some(observer) = self.observer {
            // The observer sees a batch's observations before its worker
            // does; the channel high-water mark is sampled against the
            // progress forwarded so far, once a batch.
            self.run.report(observer);
            self.lanes.forward_progress(shard, Some(observer));
        }
        match self.lanes.senders[shard].try_send(msg) {
            Ok(()) => {}
            Err(std::sync::mpsc::TrySendError::Full(msg)) => {
                self.stalls += 1;
                if let Some(observer) = self.observer {
                    observer.on_stall(shard);
                }
                if self.lanes.senders[shard].send(msg).is_err() {
                    self.dead.get_or_insert(shard);
                }
            }
            Err(std::sync::mpsc::TrySendError::Disconnected(_)) => {
                self.dead.get_or_insert(shard);
            }
        }
    }

    /// The first shard whose worker hung up mid-run (its thread panicked),
    /// if any. Ingest loops poll this to abort the run instead of feeding a
    /// corpse: once a shard is dead the merged state can no longer be
    /// completed, so continuing would only waste probes.
    pub(crate) fn dead_shard(&self) -> Option<usize> {
        self.dead
    }

    /// Deliver a shard's buffered batch, if any. [`ShardRouter::route`]
    /// takes the replacement from the recycle pool — in steady state a
    /// worker-returned buffer, so delivery allocates nothing per batch.
    fn flush_buffer(&mut self, shard: usize) {
        if self.lanes.buffers[shard].is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.lanes.buffers[shard]);
        self.deliver(shard, ShardMsg::ObserveBatch(batch));
    }

    /// Deliver every shard's buffered batch.
    fn flush_all_buffers(&mut self) {
        for shard in 0..self.lanes.shards() {
            self.flush_buffer(shard);
        }
    }

    /// Broadcast a compaction to every shard: drop per-window state older
    /// than `window` (exclusive). Buffered batches are delivered first so an
    /// observation never arrives after the compaction that should have
    /// preceded it.
    pub fn compact_before(&mut self, window: u64) {
        self.flush_all_buffers();
        for (shard, sender) in self.lanes.senders.iter().enumerate() {
            if sender.send(ShardMsg::Compact(window)).is_err() {
                self.dead.get_or_insert(shard);
            }
        }
    }

    /// Observations routed so far.
    pub fn routed(&self) -> u64 {
        self.routed
    }

    /// Deliveries that had to wait for queue space.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Deliver any buffered batches, then drop the senders, letting workers
    /// drain and exit. Tallied expansion observations are dropped: only a
    /// lease's release has states to fold them into.
    pub fn shutdown(mut self) {
        self.flush_all_buffers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scent_bgp::{Asn, Rib};
    use scent_simnet::SimTime;

    fn rib() -> Rib {
        let mut rib = Rib::new();
        rib.announce("2001:16b8::/32".parse().unwrap(), Asn(8881));
        rib.announce("2a02:27b0::/32".parse().unwrap(), Asn(9146));
        rib.announce("2803:9810::/32".parse().unwrap(), Asn(6568));
        rib.announce("2a01:c00::/26".parse().unwrap(), Asn(3215));
        rib
    }

    fn obs(target: &str) -> Observation {
        Observation {
            phase: Phase::Density,
            tenant: 0,
            window: 0,
            seq: 0,
            target: target.parse().unwrap(),
            sent_at: SimTime::at(0, 0),
            response: None,
        }
    }

    /// A single-shard router over `sender`, delivering `batch` observations
    /// per message.
    fn router(sender: std::sync::mpsc::SyncSender<ShardMsg>, batch: usize) -> ShardRouter<'static> {
        ShardRouter::with_map(ShardMap::new(&rib().entries(), 1), vec![sender], batch)
    }

    #[test]
    fn same_announcement_routes_to_same_shard() {
        let map = ShardMap::new(&rib().entries(), 3);
        assert_eq!(map.shards(), 3);
        // Everything inside one /32 lands on one shard.
        let a = map.shard_for("2001:16b8:1::1".parse().unwrap());
        let b = map.shard_for("2001:16b8:ffff::1".parse().unwrap());
        assert_eq!(a, b);
        // A sub-/32 announcement keeps its space with the covering /26.
        let c = map.shard_for("2a01:c01::1".parse().unwrap());
        let d = map.shard_for("2a01:c3f::1".parse().unwrap());
        assert_eq!(c, d);
        // Unannounced space still routes deterministically.
        let e = map.shard_for("3fff::1".parse().unwrap());
        assert_eq!(e, map.shard_for("3fff:0:1::2".parse().unwrap()));
    }

    /// The virtual-queue feedback model evaluates shard assignment on its own
    /// [`ShardMap`], away from the router's; two builds over the same RIB
    /// must never diverge.
    #[test]
    fn routing_is_deterministic_across_map_builds() {
        let m1 = ShardMap::new(&rib().entries(), 5);
        let m2 = ShardMap::new(&rib().entries(), 5);
        for target in [
            "2001:16b8:1::1",
            "2a02:27b0:200::9",
            "2803:9810:100::3",
            "2a01:c3f::1",
            "3fff::1",
        ] {
            let t: Ipv6Addr = target.parse().unwrap();
            assert_eq!(m1.shard_for(t), m2.shard_for(t), "{target}");
        }
    }

    /// Every observation arrives, in routing order, at any batch size — the
    /// engine's among them: full batches when the next observation needs the
    /// room, the rest on the shutdown flush — and a batch of one is just a
    /// one-element `ObserveBatch`.
    #[test]
    fn batched_routing_delivers_every_observation() {
        for batch in [1usize, 4, crate::engine::OBSERVATION_BATCH] {
            let (tx, rx) = std::sync::mpsc::sync_channel(16);
            let mut router = router(tx, batch);
            // Two full batches and two observations more.
            let routed = 2 * batch + 2;
            let sent: Vec<Observation> = (0..routed)
                .map(|i| obs(&format!("2001:16b8::{i:x}")))
                .collect();
            for o in &sent {
                router.route(*o);
            }
            assert_eq!(router.routed(), routed as u64);
            router.shutdown();
            let mut messages = 0;
            let mut delivered = Vec::new();
            for msg in rx {
                if let ShardMsg::ObserveBatch(observations) = msg {
                    assert!(observations.len() <= batch);
                    messages += 1;
                    delivered.extend(observations);
                }
            }
            assert_eq!(delivered, sent, "batch={batch}");
            assert_eq!(messages, routed.div_ceil(batch), "batch={batch}");
        }
    }

    /// A lease that routes exactly one batch wakes its worker once: the
    /// full batch waits for the yield and rides it. One more observation
    /// delivers the batch on its own and leaves itself for the yield.
    #[test]
    fn the_last_batch_rides_the_yield() {
        // (is it the yield, observations carried), message by message.
        for (routed, want) in [(4usize, vec![(true, 4)]), (5, vec![(false, 4), (true, 1)])] {
            let (tx, rx) = std::sync::mpsc::sync_channel(16);
            let mut router = router(tx, 4);
            for i in 0..routed {
                router.route(obs(&format!("2001:16b8::{i:x}")));
            }
            drop(router.yield_states());
            let messages: Vec<(bool, usize)> = (rx.iter())
                .filter_map(|msg| match msg {
                    ShardMsg::ObserveBatch(batch) => Some((false, batch.len())),
                    ShardMsg::Yield(batch) => Some((true, batch.len())),
                    _ => None,
                })
                .collect();
            assert_eq!(messages, want, "{routed} routed");
        }
    }

    /// A worker that hangs up mid-run (panicked thread) must not panic the
    /// router: deliveries degrade to no-ops and the dead shard is reported.
    #[test]
    fn dead_shard_is_recorded_not_panicked() {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        drop(rx); // The "worker" is already gone.
        let mut router = router(tx, 1);
        assert_eq!(router.dead_shard(), Some(0));
        // Traffic and compaction stay non-panicking.
        router.route(obs("2001:16b8::1"));
        router.route(obs("2001:16b8::2"));
        router.compact_before(5);
        assert_eq!(router.dead_shard(), Some(0));
        router.shutdown();
    }

    #[test]
    fn route_delivers_and_reports_backpressure() {
        std::thread::scope(|scope| {
            // A deliberately tiny queue and a slow consumer: the router must
            // block rather than drop, and report the stall.
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            let consumer = scope.spawn(move || {
                let mut seen = 0usize;
                while let Ok(msg) = rx.recv() {
                    if let ShardMsg::ObserveBatch(batch) = msg {
                        seen += batch.len();
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                seen
            });
            let mut router = router(tx, 1);
            for i in 0..20 {
                router.route(obs(&format!("2001:16b8::{i:x}")));
            }
            assert_eq!(router.routed(), 20);
            assert!(router.stalls() > 0, "tiny queue must stall");
            router.shutdown();
            assert_eq!(consumer.join().unwrap(), 20, "nothing may be dropped");
        });
    }
}
