//! The metric names and units the benchmark prints — the same list
//! `BENCHMARK.json` declares (the smoke test holds the two together) — and
//! how much work a run does.

/// End-to-end metrics: `(name, unit)`. Measured by the untraced pass only.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("obs_per_ref_s", "obs/ref-s"),
    ("alloc_bytes_per_obs", "B/obs"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Measured by the traced pass only.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("prober.source_ns_per_obs", "ns/obs"),
    ("simnet.probe_ns_per_obs", "ns/obs"),
    ("simnet.probes", "count"),
    ("stream.route_ns_per_obs", "ns/obs"),
    ("stream.route_trie_ns_per_obs", "ns/obs"),
    ("stream.merge_ns_per_obs", "ns/obs"),
    ("core.classify_ns_per_obs", "ns/obs"),
    ("core.density_fold_ns_per_obs", "ns/obs"),
    ("stream.session_new_us", "us"),
    ("stream.finish_ms", "ms"),
    ("stream.epoch_ms_p50", "ms"),
    ("stream.epoch_fixed_us", "us"),
    ("core.revise_us", "us"),
    ("core.expansion_us", "us"),
    ("discovery.cycle_us", "us"),
    ("discovery.probes_per_boundary", "count"),
    ("stream.snapshot_us", "us"),
    ("checkpoint.encode_us", "us"),
    ("checkpoint.decode_us", "us"),
    ("checkpoint.bytes_per_snapshot", "B"),
    ("stream.resume_us", "us"),
    ("telemetry.overhead_pct", "%"),
    ("core.phase_ms.seed", "ms"),
    ("core.phase_ms.expansion", "ms"),
    ("core.phase_ms.density", "ms"),
    ("core.phase_ms.detection", "ms"),
    ("sched.steps", "count"),
    ("sched.overhead_us_per_step", "us"),
    ("stream.unattributed_ns_per_obs", "ns/obs"),
    ("stream.stage_sum_ratio", "ratio"),
    ("alloc.count_per_kobs", "1/kobs"),
    ("os.ctx_switches_per_kobs", "1/kobs"),
    ("stream.backpressure_stalls", "count"),
    ("trace.overhead_pct", "%"),
];

/// How much work one run does besides its `--seconds` of timed ops.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Fewest timed ops of an untraced run, however short `--seconds` is.
    pub min_ops: usize,
    /// Fewest cycles of a traced run.
    pub min_cycles: usize,
    /// Repetitions of each replayed layer measurement.
    pub reps: usize,
    /// Observations a replay covers at most.
    pub replay_cap: usize,
}

impl Effort {
    /// A measuring run.
    pub const FULL: Effort = Effort {
        setups: 5,
        min_ops: 150,
        min_cycles: 10,
        reps: 7,
        replay_cap: 131_072,
    };

    /// `--smoke`: every code path, tiny counts; the numbers mean nothing.
    pub const SMOKE: Effort = Effort {
        setups: 1,
        min_ops: 3,
        min_cycles: 2,
        reps: 1,
        replay_cap: 8_192,
    };
}
