//! The untraced pass: the only source of end-to-end metrics.

use std::time::Instant;

use crate::kernel::{reference_ms, Kernel};
use crate::metrics::Effort;
use crate::stats::{median, percentile};
use crate::workloads::Setup;
use crate::{alloc, os};

/// What one untraced run measured.
#[derive(Debug, Clone)]
pub struct Untraced {
    /// Timed ops run.
    pub ops: u64,
    /// Timed ops that returned `Err` or a report other than the reference.
    pub failed_ops: u64,
    /// Median set-up time, reference seconds.
    pub setup_s: f64,
    /// Observations per op ÷ the median reference op time.
    pub obs_per_ref_s: f64,
    /// Bytes requested from the allocator over the timed ops ÷ observations.
    pub alloc_bytes_per_obs: f64,
    /// Peak live heap bytes of the process, MiB.
    pub peak_heap_mb: f64,
    /// Ungated context: name, value, unit.
    pub raw: Vec<(&'static str, f64, &'static str)>,
}

/// Set the workload up `effort.setups` times, then run ops back to back
/// (closed loop, one client) until `seconds` have passed and at least
/// `effort.min_ops` ops have run, a kernel sample after every op.
pub fn run(workload: &str, seed: u64, seconds: f64, effort: Effort) -> Result<Untraced, String> {
    let mut kernel = Kernel::default();
    let mut setup_ref_s = Vec::with_capacity(effort.setups);
    let mut setup = None;
    for _ in 0..effort.setups {
        drop(setup.take());
        let before = kernel.sample_ms();
        let start = os::cpu_ms();
        let built = Setup::build(workload, seed)?;
        let cpu_ms = os::cpu_ms() - start;
        setup_ref_s.push(reference_ms(cpu_ms, before, kernel.sample_ms()) / 1e3);
        setup = Some(built);
    }
    let setup = setup.ok_or("no set-up was asked for")?;

    let alloc_before = alloc::stats();
    let mut wall_ms = Vec::new();
    let mut cpu_total_ms = 0.0;
    let mut ref_ms = Vec::new();
    let mut kernel_ms = vec![kernel.sample_ms()];
    let mut failed_ops = 0u64;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || wall_ms.len() < effort.min_ops {
        let (start, cpu_start) = (Instant::now(), os::cpu_ms());
        let outcome = setup.op();
        let cpu_ms = os::cpu_ms() - cpu_start;
        cpu_total_ms += cpu_ms;
        wall_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let before = *kernel_ms.last().expect("seeded with one sample");
        let after = kernel.sample_ms();
        kernel_ms.push(after);
        ref_ms.push(reference_ms(cpu_ms, before, after));
        if !outcome.is_ok_and(|o| o.report == setup.reference) {
            failed_ops += 1;
        }
    }
    let ops = wall_ms.len() as u64;
    let alloc_after = alloc::stats();
    let observations = (setup.obs_per_op * ops) as f64;
    let usage = os::usage();
    Ok(Untraced {
        ops,
        failed_ops,
        setup_s: median(&setup_ref_s),
        obs_per_ref_s: setup.obs_per_op as f64 / (median(&ref_ms) / 1e3),
        alloc_bytes_per_obs: (alloc_after.requested - alloc_before.requested) as f64 / observations,
        peak_heap_mb: alloc_after.peak as f64 / (1 << 20) as f64,
        raw: vec![
            ("raw.op_ms_p50", median(&wall_ms), "ms"),
            ("raw.op_ms_p90", percentile(&wall_ms, 90), "ms"),
            (
                "raw.obs_per_s",
                setup.obs_per_op as f64 / (median(&wall_ms) / 1e3),
                "1/s",
            ),
            (
                "raw.cpu_share",
                cpu_total_ms / wall_ms.iter().sum::<f64>(),
                "ratio",
            ),
            ("raw.kernel_ms_p50", median(&kernel_ms), "ms"),
            ("raw.peak_rss_mb", usage.peak_rss_mb, "MiB"),
            ("raw.obs_per_op", setup.obs_per_op as f64, "count"),
        ],
    })
}
