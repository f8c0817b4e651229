//! The frozen calibration kernel behind reference time.
//!
//! This guest's speed moves in phases that last seconds (memory-subsystem
//! contention: whatever runs on the neighbouring CPU), so an op's time repeats
//! to 15–25 %. The kernel is a fixed amount of work with the same mix of
//! cache-resident and cache-missing accesses; timing it next to every op
//! tells how fast the box was at that moment, and an op's *reference time* is
//! its time scaled by `REF_KERNEL_MS / kernel time`.
//!
//! Both times are CPU time of the process ([`crate::os::cpu_ms`]), not wall
//! time. Every thread of an op runs on the one pinned CPU and none of them
//! sleeps, so on a quiet box the two are equal (0.1 %); when another process
//! takes turns on that CPU, wall time counts its turns — a 2 ms kernel pass
//! that meets one reads 6 ms — and CPU time does not.
//!
//! FROZEN: every committed number depends on this code and on
//! [`REF_KERNEL_MS`]. Changing either is a new benchmark and a re-baseline.

use std::hint::black_box;

use crate::os::cpu_ms;

/// What one timed kernel pass costs on the box the benchmark was defined on,
/// in milliseconds. It only fixes the unit: with it, a reference second is a
/// CPU second on that box at its usual speed.
pub const REF_KERNEL_MS: f64 = 2.2;

const BIG_WORDS: usize = (4 << 20) / 8; // 4 MiB of u64
const SMALL_WORDS: usize = (16 << 10) / 8; // 16 KiB of u64
const BIG_STEPS: u32 = 200_000;
const SMALL_STEPS: u32 = 600_000;

/// The kernel's two arrays and its xorshift state.
pub struct Kernel {
    big: Vec<u64>,
    small: Vec<u64>,
    state: u64,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel {
            big: vec![1; BIG_WORDS],
            small: vec![1; SMALL_WORDS],
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

impl Kernel {
    /// One pass: xorshift-indexed read-modify-writes over the 4 MiB array
    /// (cache-missing), then over the 16 KiB array (cache-resident).
    fn pass(&mut self) {
        let mut state = self.state;
        for _ in 0..BIG_STEPS {
            let r = xorshift(&mut state);
            let slot = &mut self.big[r as usize % BIG_WORDS];
            *slot = slot.wrapping_mul(5).wrapping_add(r);
        }
        for _ in 0..SMALL_STEPS {
            let r = xorshift(&mut state);
            let slot = &mut self.small[r as usize % SMALL_WORDS];
            *slot = slot.wrapping_mul(5).wrapping_add(r);
        }
        self.state = state;
        black_box((&self.big, &self.small));
    }

    /// One untimed warming pass (the op before it evicted the arrays), then
    /// one timed pass. Returns the timed pass in CPU milliseconds.
    pub fn sample_ms(&mut self) -> f64 {
        self.pass();
        let start = cpu_ms();
        self.pass();
        cpu_ms() - start
    }
}

/// CPU milliseconds to reference milliseconds, given the kernel samples
/// taken just before and just after the measured interval.
pub fn reference_ms(cpu_ms: f64, kernel_before_ms: f64, kernel_after_ms: f64) -> f64 {
    cpu_ms / ((kernel_before_ms + kernel_after_ms) / 2.0) * REF_KERNEL_MS
}
