//! The few Linux calls the harness needs, declared by hand: `std` already
//! links libc and there is no `libc` crate offline.

/// 1024 CPUs, the kernel's `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    fn clock_gettime(clock: i32, time: *mut [i64; 2]) -> i32;
}

/// Pin the calling thread — and every thread it spawns afterwards — to the
/// last CPU of the inherited affinity mask. Returns that CPU's index.
///
/// One CPU for every thread of an op makes the benchmark measure work per
/// core, takes cross-vCPU hand-off out of the timings, and lets the CPU time
/// of the producer and shard threads add up to the op's wall time.
pub fn pin_to_last_cpu() -> std::io::Result<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed, which is all `sched_getaffinity` requires.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("empty affinity mask"))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed; the
    // call only reads it.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Resource usage of this process so far.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

/// `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    // x86-64 and aarch64 Linux `struct rusage`: two `timeval`s (four longs)
    // followed by fourteen longs; `ru_maxrss` (KiB) is the first of those,
    // `ru_nvcsw` and `ru_nivcsw` the last two.
    let mut raw = [0i64; 18];
    // SAFETY: `raw` is a live, writable buffer of `struct rusage`'s size and
    // alignment on 64-bit Linux; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    Usage {
        peak_rss_mb: raw[4] as f64 / 1024.0,
        ctx_switches: (raw[16] + raw[17]) as u64,
    }
}

/// CPU time every thread of this process has consumed so far, milliseconds
/// (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn cpu_ms() -> f64 {
    let mut time = [0i64; 2];
    // SAFETY: `time` is a live, writable `struct timespec` (two longs on
    // 64-bit Linux); CLOCK_PROCESS_CPUTIME_ID is 2.
    let rc = unsafe { clock_gettime(2, &mut time) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) cannot fail");
    time[0] as f64 * 1e3 + time[1] as f64 / 1e6
}
