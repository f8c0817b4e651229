//! Steady-state allocation regression tests for the observation hot path.
//!
//! The data plane's claim (see `crates/stream/src/buffer.rs` and
//! `docs/PERFORMANCE.md`) is that after a bounded warm-up, moving an
//! observation from producer to shard performs **zero heap allocations**:
//! batches travel in recycled fixed-capacity buffers, shard resolution is a
//! `ShardMap::shard_for` lookup over a shared table, and `Observation`
//! itself is `Copy`. These tests pin the property with a counting global
//! allocator — on the routing thread, cross-checked against the router
//! pool's own allocate/recycle counters, and on the producer threads — so it
//! can't silently rot. Both drive the data plane the way the pipeline and
//! the monitor do: through the `IngestEngine`. A third holds the epoch to the
//! same standard: on a lent `ShardPool`, an epoch of a session whose watch
//! list stands allocates a small constant — no channel, no batch buffer, no
//! target list. A fourth holds the discovery boundary to it: a sweep is
//! streamed and tallied by the router, so nothing the size of its records
//! and no batch buffer is ever allocated, and its plan is sized once. A fifth
//! holds a pipeline shard's detection fold to table growth: it feeds no
//! tracker, so a new identifier costs it no allocation of its own. A sixth
//! holds the tracker a monitor shard feeds to the same: its log appends to
//! fixed-size chunks and folds into one run, so a new identifier costs no
//! allocation of its own either. A seventh and an eighth hold the rotation
//! detector to its footprint: at most 32 bytes a watched target in the
//! monitor's shape, and no more than the 90 its keyed layout took in any
//! other. A ninth holds a watch list's target stream to one request for each
//! of its three lists, and a tenth a short tracker tail's fold to one, the
//! run's. An eleventh and a twelfth hold a tracker's report to reading its
//! tail unfolded: a short tail's asks only for the report's own vectors,
//! and a long tail's for less than the run a fold would make.
//!
//! This is an integration-test binary on purpose: a `#[global_allocator]`
//! is process-wide, and the library forbids `unsafe` (`GlobalAlloc` needs
//! it), so the counter lives here where it can't affect other test binaries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv6Addr;
use std::sync::atomic::{AtomicU64, Ordering};

use scent_bgp::{Asn, Rib};
use scent_core::WindowedRotationDetector;
use scent_discovery::DiscoveryConfig;
use scent_ipv6::{Eui64, Ipv6Prefix, MacAddr};
use scent_prober::{ProbeRecord, TargetGenerator, TargetStream};
use scent_simnet::SimTime;
use scent_stream::{
    IngestEngine, IngestOptions, MonitorConfig, MonitorSession, Observation, ObservationSource,
    Phase, ShardInference, ShardMap, ShardPool, WatchChurn,
};

/// Counts this thread's heap allocations (alloc paths only — frees are
/// irrelevant to the "does the hot path allocate?" question). Thread-local
/// so worker/producer threads, which own their warm-up, don't pollute the
/// control thread's count.
struct CountingAllocator;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    static THREAD_LARGEST: Cell<u64> = const { Cell::new(0) };
    static THREAD_MIB_BYTES: Cell<u64> = const { Cell::new(0) };
    static THREAD_BATCH_BUFFERS: Cell<u64> = const { Cell::new(0) };
    static THREAD_LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Fallback for allocations during TLS teardown (never on the hot path).
static TEARDOWN_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count_one(bytes: usize) {
    if THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1)).is_err() {
        TEARDOWN_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    let _ = THREAD_LARGEST.try_with(|c| c.set(c.get().max(bytes as u64)));
    if bytes >= MIB as usize {
        let _ = THREAD_MIB_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
    if bytes == BATCH_BUFFER_BYTES {
        let _ = THREAD_BATCH_BUFFERS.try_with(|c| c.set(c.get() + 1));
    }
    let _ = THREAD_LIVE.try_with(|c| c.set(c.get() + bytes as i64));
}

/// A free of `bytes` by the calling thread.
fn free_one(bytes: usize) {
    let _ = THREAD_LIVE.try_with(|c| c.set(c.get() - bytes as i64));
}

/// Allocations performed so far by the calling thread.
fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Bytes requested so far by the calling thread.
fn thread_bytes() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

/// Bytes the calling thread allocated and has not freed (of blocks it
/// freed itself).
fn thread_live() -> i64 {
    THREAD_LIVE.with(Cell::get)
}

/// The calling thread's largest single request since the last call.
fn take_thread_largest() -> u64 {
    THREAD_LARGEST.with(|c| c.replace(0))
}

const MIB: u64 = 1 << 20;

/// Bytes the calling thread asked for in requests of a MiB or more.
fn thread_mib_bytes() -> u64 {
    THREAD_MIB_BYTES.with(Cell::get)
}

/// The size of a router → shard batch buffer: 4 096 observations.
const BATCH_BUFFER_BYTES: usize = 4096 * std::mem::size_of::<Observation>();

/// Requests the calling thread made at a batch buffer's size.
fn thread_batch_buffers() -> u64 {
    THREAD_BATCH_BUFFERS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        free_one(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        free_one(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn rib() -> Rib {
    let mut rib = Rib::new();
    rib.announce("2001:16b8::/32".parse().unwrap(), Asn(8881));
    rib.announce("2a02:27b0::/32".parse().unwrap(), Asn(9146));
    rib.announce("2803:9810::/32".parse().unwrap(), Asn(6568));
    rib
}

/// A fixed target list spread over the announced prefixes, in probing order.
fn targets(len: usize) -> Vec<std::net::Ipv6Addr> {
    let blocks = ["2001:16b8", "2a02:27b0", "2803:9810"];
    (0..len)
        .map(|i| {
            format!("{}:{:x}::{:x}", blocks[i % blocks.len()], i % 7, i + 1)
                .parse()
                .unwrap()
        })
        .collect()
}

fn observation(seq: u64, target: std::net::Ipv6Addr) -> Observation {
    Observation {
        phase: Phase::Density,
        tenant: 0,
        window: 0,
        seq,
        target,
        sent_at: SimTime::at(0, seq),
        response: None,
    }
}

/// A replay of pre-generated observations.
struct Replay<'a>(std::slice::Iter<'a, Observation>);

impl ObservationSource for Replay<'_> {
    fn next_observation(&mut self) -> Option<Observation> {
        self.0.next().copied()
    }
}

/// Driving a warmed-up engine performs zero heap allocations on the control
/// thread, and the pool counters agree: every buffer the run ever used came
/// from the prefill.
#[test]
fn routing_steady_state_allocates_nothing() {
    const SHARDS: usize = 2;
    const BATCH: usize = 4096; // observations a shard message carries
    const QUEUE: usize = 16; // a shard's queue, in batch messages

    // Covers every buffer that can simultaneously be outside the pool:
    // per shard, the channel queue plus one buffer in the router's and one
    // in the worker's hands (the "+1" is slack for the rotation itself).
    const PREFILL: usize = SHARDS * (QUEUE + 2) + 1;

    let rib = rib();
    let targets = targets(256);
    // Pre-generate every observation so the measured loop moves `Copy` data
    // only; the transport/producer side has its own test below.
    let observations: Vec<Observation> = (0..12 * BATCH as u64)
        .map(|i| {
            let pos = (i as usize) % targets.len();
            observation(pos as u64, targets[pos])
        })
        .collect();

    let map = ShardMap::new(&rib.entries(), SHARDS);
    let mut pool = ShardPool::open(SHARDS);
    let mut engine = IngestEngine::lease(&mut pool, map.clone(), IngestOptions::default());
    engine.router().prefill_buffers(PREFILL);

    // Warm-up: one pass, then a release and a lease of the states it hands
    // back, so the workers have drained (and returned) everything queued
    // before the measured section starts.
    engine.drive(vec![Replay(observations[..4 * BATCH].iter())], |_, _| {});
    let states = engine.release().expect("no panic injected");
    let options = IngestOptions {
        initial: Some(states),
        ..IngestOptions::default()
    };
    let mut engine = IngestEngine::lease(&mut pool, map, options);

    // Measured steady state: 8 full batches, half the QUEUE-message queue
    // of even a shard that is routed all of them, so even a descheduled
    // worker can't force the router into a blocking (parking) send here.
    let measured = vec![Replay(observations[4 * BATCH..].iter())];
    let mut hooked = 0u64;
    let before = thread_allocations();
    let routed = engine.drive(measured, |_, _| hooked += 1);
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "a steady-state drive must not touch the allocator on the control thread"
    );
    assert_eq!((routed, hooked), (8 * BATCH as u64, 8 * BATCH as u64));

    let counters = engine.router().buffer_counters();
    assert_eq!(
        counters.allocated(),
        PREFILL as u64,
        "every buffer in circulation came from the prefill"
    );
    assert!(
        counters.recycled() > 0,
        "the measured pass must have reused buffers"
    );

    let total: u64 = engine
        .release()
        .expect("no panic injected")
        .iter()
        .map(|state| state.observations)
        .sum();
    assert_eq!(
        total,
        observations.len() as u64,
        "recycling must not lose observations"
    );
}

/// A synthetic producer slice: yields its strided positions of a fixed
/// global sequence, like a sliced scan stream does, and records how many
/// allocations its producer thread performed between its first and its
/// latest pull — the producer's batch-buffer takes, and nothing else.
struct SyntheticSlice<'a> {
    next: u64,
    step: u64,
    limit: u64,
    targets: Vec<std::net::Ipv6Addr>,
    first_pull: Option<u64>,
    allocations: &'a AtomicU64,
}

impl ObservationSource for SyntheticSlice<'_> {
    fn next_observation(&mut self) -> Option<Observation> {
        let now = thread_allocations();
        let first = *self.first_pull.get_or_insert(now);
        self.allocations.store(now - first, Ordering::Relaxed);
        if self.next >= self.limit {
            return None;
        }
        let seq = self.next;
        self.next += self.step;
        let target = self.targets[(seq as usize) % self.targets.len()];
        Some(observation(seq, target))
    }
}

/// The producer → merge edge recycles its batch buffers: across a run long
/// enough to wrap the bounded channel several times, each producer thread
/// serves the overwhelming majority of its buffer takes from returned
/// buffers, keeping the buffer population bounded by the channel — not by
/// ingest volume.
#[test]
fn producer_edge_recycles_batch_buffers() {
    const PRODUCERS: u64 = 2;
    const QUEUE: u64 = 1024; // batches in flight per producer channel
    const LIMIT: u64 = PRODUCERS * 4 * QUEUE * 64; // each channel wraps 4 times

    let rib = rib();
    let targets = targets(64);
    let allocations = [AtomicU64::new(0), AtomicU64::new(0)];
    let sources: Vec<SyntheticSlice> = (0..PRODUCERS)
        .map(|k| SyntheticSlice {
            next: k,
            step: PRODUCERS,
            limit: LIMIT,
            targets: targets.clone(),
            first_pull: None,
            allocations: &allocations[k as usize],
        })
        .collect();
    let map = ShardMap::new(&rib.entries(), 1);
    let mut pool = ShardPool::open(1);
    let mut engine = IngestEngine::lease(&mut pool, map, IngestOptions::default());
    // The merge must still see the exact global sequence — recycling
    // changes where buffer memory came from, never what's in it.
    let mut next_seq = 0u64;
    let merged = engine.drive(sources, |_, obs| {
        assert_eq!(obs.seq, next_seq);
        next_seq += 1;
    });
    assert_eq!(merged, LIMIT);
    engine.release().expect("no panic injected");

    let batches_per_producer = LIMIT / PRODUCERS / 64;
    for (k, allocated) in allocations.iter().enumerate() {
        let allocated = allocated.load(Ordering::Relaxed);
        assert!(
            allocated < batches_per_producer,
            "producer {k} allocated {allocated} times for {batches_per_producer} batches — \
             recycling is not working"
        );
    }
}

/// "Allocation-free" holds per epoch too. Epochs 2–4 of a 1 × 1 session
/// whose watch list stands, on a pool the caller lends, cost the control
/// thread a small constant (four allocations, 344 bytes, as this was
/// written: the pass's one stream and its source, each in the vector `drive`
/// takes, and the stream's pacer — its per-shard enqueue counts and the
/// `Arc` of the one-shard map it paces an unthrottled model over; the states
/// come back in the vector they were lent in), never a channel array, a
/// batch buffer (256 KiB: 4 096 observations of 64 B) or the target list
/// (8 KB for these 512 targets) — each of which the first epoch, and every
/// epoch before the driver owned the workers, did allocate.
#[test]
fn an_epoch_on_a_lent_pool_allocates_a_small_constant() {
    let engine = scent_simnet::Engine::build(scent_simnet::scenarios::continuous_world(7)).unwrap();
    let watched: Vec<_> = (engine.pools().iter())
        .filter(|pool| pool.config.prefix.len() <= 48)
        .flat_map(|pool| pool.config.prefix.subnets(48).unwrap())
        .take(2)
        .collect();
    let config = MonitorConfig {
        shards: 1,
        producers: 1,
        windows: 4,
        checkpoint_every: Some(1), // one-window epochs
        ..MonitorConfig::default()
    };
    let mut pool = ShardPool::open(config.shards);
    let mut session = MonitorSession::new(&engine, config, watched, None);
    let mut epochs = Vec::new();
    while !session.is_done() {
        let before = (thread_allocations(), thread_bytes());
        session.run_epoch_on(&mut pool, 10_000).unwrap();
        epochs.push((thread_allocations() - before.0, thread_bytes() - before.1));
    }
    assert_eq!(epochs.len(), 4);
    let (first_calls, first_bytes) = epochs[0];
    assert!(
        first_bytes > 40_000,
        "the first epoch builds the target list and takes a batch buffer: {epochs:?}"
    );
    for &(calls, bytes) in &epochs[1..] {
        assert!(
            calls <= 8 && bytes <= 1_024,
            "an epoch on a lent pool allocated {calls} times, {bytes} B \
             (the first: {first_calls} times, {first_bytes} B): {epochs:?}"
        );
    }
    let report = session.finish();
    assert_eq!(report.observations, 4 * 512);
}

/// A monitor's target stream in the `steady_watch` shape (one target per /56
/// of 128 watched /48s) asks for its target list, its probing order and the
/// shared storage the order copies the list into once each, each at its
/// exact size: no list grows by doubling and no candidate has a list of its
/// own.
#[test]
fn a_watch_lists_target_stream_asks_for_each_of_its_lists_once() {
    const WATCHED: u128 = 128;
    const TARGETS: u64 = 128 * 256;

    let watched: Vec<Ipv6Prefix> = (0..WATCHED)
        .map(|i| Ipv6Prefix::from_bits((0x2001_16b8_1d00u128 + i) << 80, 48).unwrap())
        .collect();
    let generator = TargetGenerator::new(7);
    let before = (thread_allocations(), thread_bytes());
    take_thread_largest();
    let stream = TargetStream::new(&generator, &watched, 56, 42, true);
    let (calls, bytes) = (thread_allocations() - before.0, thread_bytes() - before.1);
    let largest = take_thread_largest();
    assert_eq!(stream.window_len() as u64, TARGETS);

    let list = TARGETS * std::mem::size_of::<Ipv6Addr>() as u64;
    let order = TARGETS * std::mem::size_of::<u64>() as u64;
    // An `Arc<[T]>` holds its two counts ahead of the slice.
    let shared = list + 2 * std::mem::size_of::<usize>() as u64;
    assert_eq!(
        (calls, bytes, largest),
        (3, list + order + shared, shared),
        "the stream asked {calls} times for {bytes} B, at most {largest} B at once"
    );
}

/// A discovery boundary costs what its probes cost: the sweep is streamed
/// probe → route → outcome bit, so across the one worked boundary of an
/// unseeded `churn_world` session (the `churn_discovery_ckpt` shape: two
/// rounds of 131 072 probes) the control thread never asks for a block the
/// size of a round's records. The largest thing it holds is the plan's
/// target list, asked for once a round at the round's exact size (16 B a
/// probe): those two requests are all it asks a MiB or more for. The
/// sweep's probes are expansion-phase, so the router tallies them and never
/// fills a batch buffer: the epoch (which, watching nothing yet, routes
/// nothing else) asks for no 256 KiB buffer at all, and allocates
/// 5 960 296 B, or 144 B more in some unpinned runs — the only two values
/// pinned and unpinned runs read. The released shard state comes back in
/// the vector the session lent its state in; while the release allocated
/// a vector of its own, the epoch read one `ShardInference` more (336 B,
/// 368 B since a shard keeps its rotating /48s). While the sweep was
/// shipped to the worker the epoch allocated 6.2–8.6 MB: one buffer each
/// time the router ran ahead of its worker, 1–10 of the 18 a one-shard
/// pool is sized for. The outcome bits are one buffer the session refills,
/// not one a round. Grown
/// by doubling, the plan asked for 1 MiB more a round and took the epoch to
/// 10.8–11.9 MB; before the sweep was streamed it allocated 44 520 088 B —
/// per round a 2 MiB target copy, a 1 MiB order and a 6 MiB `Scan` beside
/// the plan.
#[test]
fn a_discovery_boundary_never_materialises_its_sweep() {
    const ROUND: u64 = 131_072;
    const EPOCH_BYTES: u64 = 5_960_296;

    let engine = scent_simnet::Engine::build(scent_simnet::scenarios::churn_world(7)).unwrap();
    let config = MonitorConfig {
        shards: 1,
        producers: 1,
        windows: 2, // one worked boundary: the final one never is
        churn: Some(WatchChurn {
            refresh_every: 1,
            watch_capacity: 3,
            ..WatchChurn::default()
        }),
        discovery: Some(DiscoveryConfig {
            probe_budget: 2 * ROUND,
            ..DiscoveryConfig::paper_scale()
        }),
        ..MonitorConfig::default()
    };
    let mut pool = ShardPool::open(config.shards);
    let mut session = MonitorSession::new(&engine, config, Vec::new(), None);
    take_thread_largest();
    let (before, mib_before) = (thread_bytes(), thread_mib_bytes());
    let buffers_before = thread_batch_buffers();
    session.run_epoch_on(&mut pool, 10_000).unwrap();
    let (bytes, largest) = (thread_bytes() - before, take_thread_largest());
    let mib_bytes = thread_mib_bytes() - mib_before;
    let buffers = thread_batch_buffers() - buffers_before;
    session.run_epoch_on(&mut pool, 10_000).unwrap();
    let report = session.finish();
    assert_eq!(
        report.discovery.expect("discovery ran").probes,
        2 * ROUND,
        "the boundary swept both rounds"
    );

    let records = ROUND * std::mem::size_of::<ProbeRecord>() as u64;
    let targets = ROUND * std::mem::size_of::<std::net::Ipv6Addr>() as u64;
    assert!(
        largest < records,
        "the boundary allocated {largest} B at once; a round's records are {records} B"
    );
    assert_eq!(
        (largest, mib_bytes),
        (targets, 2 * targets),
        "the large requests are each round's exact targets, once"
    );
    assert_eq!(buffers, 0, "the boundary took {buffers} batch buffers");
    assert!(
        (EPOCH_BYTES..=EPOCH_BYTES + 144).contains(&bytes),
        "the boundary allocated {bytes} B"
    );
}

/// A pipeline shard folds a detection window into its detector and its
/// census and nothing else: 4 096 targets each answered by an EUI-64
/// identifier never seen before cost the folding thread the doublings of the
/// census's two tables and the detector's entries and index (47 allocations
/// as this was written; 36 while the detector was one table). Fed to a
/// tracker — as they were while a pipeline shard kept one no
/// `PipelineReport` field read — every new identifier also allocated its own
/// sightings `Vec`: at least 4 096 more.
#[test]
fn a_pipeline_shard_folds_new_identifiers_without_allocating_per_identifier() {
    const IDENTIFIERS: usize = 4_096;

    let window: Vec<Observation> = (0..IDENTIFIERS as u64)
        .map(|i| {
            let prefix64 = 0x2001_16b8_0000_0000 + (i << 8);
            let mac = scent_ipv6::MacAddr::new([0xc8, 0x0e, 0x14, 0, (i >> 8) as u8, i as u8]);
            Observation {
                phase: Phase::Detection,
                response: Some(scent_prober::ResponseRecord {
                    source: scent_ipv6::Eui64::from_mac(mac).with_prefix64(prefix64),
                    kind: scent_simnet::ReplyKind::TimeExceeded,
                }),
                ..observation(i, scent_ipv6::addr_from_u128((prefix64 as u128) << 64 | 1))
            }
        })
        .collect();
    let mut shard = ShardInference::new();
    let before = thread_allocations();
    for observation in &window {
        shard.ingest(observation);
    }
    let allocations = thread_allocations() - before;
    assert_eq!(
        shard.address_statistics(),
        (IDENTIFIERS, IDENTIFIERS, IDENTIFIERS)
    );
    assert_eq!(shard.detector.targets_tracked(), IDENTIFIERS);
    assert!(
        allocations <= 64,
        "folding {IDENTIFIERS} new identifiers allocated {allocations} times"
    );
}

/// The monitor flavour's tracker holds new identifiers to the same standard:
/// 4 096 detection observations, each answered by an EUI-64 identifier
/// never seen before, then the fold a reader triggers, cost the folding
/// thread its log's fixed-size chunks, their list, the one run and the
/// probe counts' table — not one allocation per identifier, as the tracker
/// with one sightings `Vec` per identifier paid (4 096 and more).
#[test]
fn a_tracker_folds_new_identifiers_without_allocating_per_identifier() {
    const IDENTIFIERS: u64 = 4_096;

    let sightings: Vec<_> = (0..IDENTIFIERS)
        .map(|i| {
            let prefix64 = 0x2001_16b8_0000_0000 + (i << 8);
            let mac = scent_ipv6::MacAddr::new([0xc8, 0x0e, 0x14, 0, (i >> 8) as u8, i as u8]);
            let target = scent_ipv6::addr_from_u128((prefix64 as u128) << 64 | 1);
            let source = scent_ipv6::Eui64::from_mac(mac).with_prefix64(prefix64);
            (i, target, source)
        })
        .collect();
    let mut tracker = scent_core::IncrementalTracker::new();
    let before = thread_allocations();
    for &(seq, target, source) in &sightings {
        tracker.observe(0, seq, target, Some(source));
    }
    assert_eq!(tracker.identifiers_seen(), IDENTIFIERS as usize);
    let allocations = thread_allocations() - before;
    assert!(
        allocations <= 64,
        "folding {IDENTIFIERS} new identifiers allocated {allocations} times"
    );
}

/// An unfolded monitor tracker: `identifiers` identifiers under
/// `2001:16b8::/32`, each sighted once in each of 4 windows, in a permuted
/// order, at a /64 that moves every window — bar one sighting in 180 when
/// `gaps`. Returns the tracker and its sightings.
fn monitor_tracker(identifiers: u64, gaps: bool) -> (scent_core::IncrementalTracker, u64) {
    const WINDOWS: u64 = 4;

    let mut tracker = scent_core::IncrementalTracker::new();
    let mut seq = 0;
    for window in 0..WINDOWS {
        for step in 0..identifiers {
            // 97 is prime to both identifier counts: a permutation.
            let i = (step * 97 + window * 31) % identifiers;
            if gaps && (i + window * 7) % 180 == 0 {
                continue;
            }
            let mac = MacAddr::new([0xc8, 0x0e, 0x14, (i * 37) as u8, (i >> 8) as u8, i as u8]);
            let prefix64 = 0x2001_16b8_0000_0000 + (i << 8) + window;
            let source = Eui64::from_mac(mac).with_prefix64(prefix64);
            let target = scent_ipv6::addr_from_u128((prefix64 as u128) << 64 | 1);
            tracker.observe(window, seq, target, Some(source));
            seq += 1;
        }
    }
    (tracker, seq)
}

/// The bytes of `sightings` folded into a run.
fn run_bytes(sightings: u64) -> u64 {
    sightings * std::mem::size_of::<scent_core::tracker::LoggedSighting>() as u64
}

/// A short tail folds with one request, the run's exact size: a
/// `tenants_64` session's tracker (268 identifiers sighted once in each of
/// 4 windows, 1 072 sightings) is ordered by keys in a stack array and
/// gathered straight into the run, so the fold asks for the run's 1 072 ×
/// 32 B and nothing else — a heap vector of keys would be a second request
/// every session.
#[test]
fn a_short_tail_folds_with_one_request_for_the_run() {
    let (mut tracker, sightings) = monitor_tracker(268, false);
    let before = (thread_allocations(), thread_bytes());
    tracker.fold();
    let asked = (thread_allocations() - before.0, thread_bytes() - before.1);
    let run = run_bytes(sightings);
    assert_eq!(
        asked,
        (1, run),
        "the fold asked {asked:?}; the run is {run} B"
    );
    assert_eq!(tracker.identifiers_seen(), 268);
}

/// The world a tracker's report routes in: the tracker's /32, announced.
fn tracker_world() -> (Rib, scent_bgp::AsRegistry) {
    let mut rib = Rib::new();
    rib.announce("2001:16b8::/32".parse().unwrap(), Asn(8881));
    let mut registry = scent_bgp::AsRegistry::new();
    registry.register(8881, "Versatel", "DE");
    (rib, registry)
}

/// A `tenants_64` session's finish reads its tracker's tail where it
/// lies: the count of the 268 identifiers' windows sits in a stack table,
/// so the report of its 8 devices asks for the report's own vectors — the
/// devices and each one's days — and never for the 34 304 B run the
/// finish folded into before.
#[test]
fn a_short_tails_report_asks_only_for_its_own_vectors() {
    let (mut tracker, sightings) = monitor_tracker(268, false);
    let (rib, registry) = tracker_world();
    let before = (thread_allocations(), thread_bytes());
    let report = tracker.finish(&rib, &registry, 4, 8);
    let asked = (thread_allocations() - before.0, thread_bytes() - before.1);
    assert_eq!(report.devices.len(), 8);
    let own = report.devices.capacity()
        * std::mem::size_of::<scent_core::tracker::DeviceTrackingResult>()
        + (report.devices.iter())
            .map(|device| device.daily.capacity())
            .sum::<usize>()
            * std::mem::size_of::<scent_core::tracker::DailyResult>();
    assert_eq!(
        asked,
        (1 + report.devices.len() as u64, own as u64),
        "the finish asked {asked:?}; the run is {} B",
        run_bytes(sightings)
    );
    assert!(tracker.sightings().is_none(), "the finish folded nothing");
}

/// A `steady_watch` run's finish (6 672 identifiers, 26 540 sightings; 26 539
/// here) counts its identifiers in a table that outgrows the stack, and
/// asks for fewer bytes in all than the 849 248 B run the finish folded
/// into before.
#[test]
fn a_long_tails_report_asks_for_less_than_its_run() {
    let (mut tracker, sightings) = monitor_tracker(6_672, true);
    assert_eq!(sightings, 26_539);
    let (rib, registry) = tracker_world();
    let before = thread_bytes();
    let report = tracker.finish(&rib, &registry, 4, 8);
    let asked = thread_bytes() - before;
    assert_eq!(report.devices.len(), 8);
    let run = run_bytes(sightings);
    assert!(
        asked < run,
        "the finish asked {asked} B; the run is {run} B"
    );
    assert!(tracker.sightings().is_none(), "the finish folded nothing");
}

/// One monitor window over `watched` /48s of `2a02:27b0::/32`: one target
/// per /56 of each (the monitor's default granularity), in the permuted
/// order a monitor pass probes them in.
fn monitor_window(watched: u16) -> Vec<Ipv6Addr> {
    let watched: Vec<Ipv6Prefix> = (0..watched)
        .map(|i| format!("2a02:27b0:{i:x}::/48").parse().unwrap())
        .collect();
    let granularity = MonitorConfig::default().granularity;
    let stream = TargetStream::new(&TargetGenerator::new(1), &watched, granularity, 42, true);
    (0..stream.window_len())
        .map(|pos| stream.target_at(pos))
        .collect()
}

/// An EUI-64 identifier in `target`'s /64, or silence for every fifth.
fn answer(seq: usize, target: Ipv6Addr) -> Option<Ipv6Addr> {
    let prefix64 = (u128::from(target) >> 64) as u64;
    let mac = MacAddr::new([0x38, 0x10, 0xd5, 0, (seq >> 8) as u8, seq as u8]);
    (seq % 5 != 0).then(|| Eui64::from_mac(mac).with_prefix64(prefix64))
}

/// A watched target costs the rotation detector at most 32 bytes in the
/// monitor's shape, at a `tenants_64` session's 2 /48s (512 targets) and a
/// `steady_watch` op's 128 (32 768): the detector built the way
/// `MonitorSession::new` builds a shard's, fed one window. Its blocks are
/// born with one 31-byte slot per subnet and never grow. The detector
/// this replaced took 90 B a target (a 48-byte entry and a slot of a
/// 16-byte-keyed index).
#[test]
fn a_watched_target_costs_the_detector_at_most_32_bytes() {
    for watched in [2, 128] {
        let targets = monitor_window(watched);
        let before = thread_bytes();
        let mut detector =
            WindowedRotationDetector::for_granularity(MonitorConfig::default().granularity);
        for (seq, &target) in targets.iter().enumerate() {
            detector.observe(0, seq as u64, target, answer(seq, target));
        }
        let bytes = thread_bytes() - before;
        assert_eq!(detector.targets_tracked(), targets.len());
        assert!(
            bytes <= 32 * targets.len() as u64,
            "{watched} /48s: {bytes} B for {} targets",
            targets.len()
        );
    }
}

/// Every other shape still costs the detector no more than the 90 B a
/// target the keyed layout took sized for it — held after two windows,
/// with whatever its blocks and side table grew through: no granularity
/// named, two targets in one subnet, every source outside its target's /48,
/// and the differential oracle's one target per /64.
#[test]
fn every_other_shape_costs_the_detector_no_more_than_the_keyed_layout() {
    let monitor = monitor_window(16);
    let mut twins = monitor.clone();
    twins.extend(
        (monitor.iter().step_by(256)).map(|target| Ipv6Addr::from(u128::from(*target) ^ 1)),
    );
    let one_per_64: Vec<Ipv6Addr> = (0..4_096u128)
        .map(|i| Ipv6Addr::from(0x2001_0db8_u128 << 96 | (i % 3) << 80 | i << 64 | 1))
        .collect();
    let elsewhere = |seq: usize, target: Ipv6Addr| {
        answer(seq, target).map(|source| Ipv6Addr::from(u128::from(source) ^ 1 << 80))
    };
    type Answer = fn(usize, Ipv6Addr) -> Option<Ipv6Addr>;
    let shapes: [(&str, &[Ipv6Addr], Option<u8>, Answer); 4] = [
        ("no granularity", &monitor, None, answer),
        ("two in a subnet", &twins, Some(56), answer),
        ("sources elsewhere", &monitor, Some(56), elsewhere),
        ("one per /64", &one_per_64, None, answer),
    ];
    for (shape, targets, granularity, answer) in shapes {
        let before = thread_live();
        let mut detector = match granularity {
            Some(granularity) => WindowedRotationDetector::for_granularity(granularity),
            None => WindowedRotationDetector::new(),
        };
        for window in 0..2 {
            for (seq, &target) in targets.iter().enumerate() {
                let source = answer(seq + window as usize, target);
                detector.observe(window, seq as u64, target, source);
            }
        }
        let held = thread_live() - before;
        assert_eq!(detector.targets_tracked(), targets.len(), "{shape}");
        assert!(
            held <= 90 * targets.len() as i64,
            "{shape}: {held} B held for {} targets",
            targets.len()
        );
    }
}
