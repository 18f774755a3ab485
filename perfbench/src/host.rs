//! Host-speed reference for CPU-bound timings.
//!
//! The benchmark shares its machine with other tenants, and their load
//! changes the speed of single-threaded code by tens of percent within
//! seconds: a fixed spin loop on a 2-core VM host ranged from 204 to
//! 332 ms between runs a few minutes apart. A fixed reference kernel is
//! therefore run after every CPU-bound measurement, and the measurement
//! is reported at the reference speed: `raw × REFERENCE_MS / reference`,
//! where `reference` is the median kernel time over a window of
//! [`WINDOW`] runs on either side of the measurement. The kernel's single
//! runs jitter by about 20%, so a lone neighbouring run would add noise;
//! the window follows the host's speed as it drifts over seconds. Raw
//! wall times are printed beside the scaled ones.
//!
//! The kernel has two parts, and its time is their geometric mean: a
//! random walk in a 4 KiB table, which tracks how fast the core runs, and
//! a random walk in an 8 MiB table, run once to warm it and once timed,
//! which tracks contention for caches and memory. Each part is
//! independent of what the measured code left in the caches. Over eight
//! `paper15` runs on a 2-core host, the spread (interquartile range over
//! median) of the per-run median compile time was 0.29 raw, and 0.08,
//! 0.09 and 0.04 with each compile scaled by the neighbouring runs of
//! the core part, the memory part and their geometric mean.

use std::time::Instant;

/// The kernel's time on a quiet 2-core x86-64 host (Xeon, 2.1 GHz), so
/// scaled times read as wall times there.
pub const REFERENCE_MS: f64 = 0.9;

/// Entries of the core part's table (4 KiB, first-level cache).
const CORE_TABLE: usize = 1 << 9;
/// Random steps of the core part.
const CORE_STEPS: usize = 1 << 19;
/// Entries of the memory part's table (8 MiB).
const MEMORY_TABLE: usize = 1 << 20;
/// Random steps of the memory part.
const MEMORY_STEPS: usize = 1 << 17;

/// Kernel runs on each side of a measurement whose median is its
/// reference.
const WINDOW: usize = 8;

/// The reference kernel: fixed sequences of pseudo-random swaps and sums
/// over two tables, identical work on every call. Keeps every
/// measurement and every kernel time of the run.
pub struct HostSpeed {
    core: Vec<u64>,
    memory: Vec<u64>,
    /// Kernel times in milliseconds; entry `i` ran just before
    /// measurement `i`, entry `i + 1` just after it.
    kernel_ms: Vec<f64>,
    /// Raw measurements in seconds.
    raw_s: Vec<f64>,
}

/// `steps` dependent random swaps in `table` (length a power of two).
fn walk(table: &mut [u64], steps: usize) {
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & mask;
        table.swap(i & mask, j);
        acc = acc.wrapping_add(table[j]);
    }
    std::hint::black_box(acc);
}

fn timed_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

impl HostSpeed {
    /// Allocates and touches the kernel's tables and takes the first
    /// kernel time.
    pub fn new() -> Self {
        let mut host = HostSpeed {
            core: (0..CORE_TABLE as u64).collect(),
            memory: (0..MEMORY_TABLE as u64).collect(),
            kernel_ms: Vec::new(),
            raw_s: Vec::new(),
        };
        host.sample();
        host.kernel_ms.clear();
        host.sample();
        host
    }

    /// Runs the kernel once and records its time.
    fn sample(&mut self) {
        let core = timed_ms(|| walk(&mut self.core, CORE_STEPS));
        walk(&mut self.memory, MEMORY_STEPS);
        let memory = timed_ms(|| walk(&mut self.memory, MEMORY_STEPS));
        self.kernel_ms.push((core * memory).sqrt());
    }

    /// Times `f`, then runs the kernel. Returns `f`'s result and the
    /// measurement's index for [`HostSpeed::raw_s`] and
    /// [`HostSpeed::scaled_s`].
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, usize) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.raw_s.push(start.elapsed().as_secs_f64());
        self.sample();
        (out, self.raw_s.len() - 1)
    }

    /// Measurement `i` as timed, in seconds.
    pub fn raw_s(&self, i: usize) -> f64 {
        self.raw_s[i]
    }

    /// Measurement `i` at the reference speed, in seconds.
    pub fn scaled_s(&self, i: usize) -> f64 {
        let lo = i.saturating_sub(WINDOW);
        let hi = (i + 2 + WINDOW).min(self.kernel_ms.len());
        self.raw_s[i] * REFERENCE_MS / crate::stats::median(&self.kernel_ms[lo..hi])
    }

    /// A one-line summary of the kernel times seen so far.
    pub fn summary(&self) -> String {
        let s = crate::stats::summarize(&self.kernel_ms);
        let min = self.kernel_ms.iter().copied().fold(f64::INFINITY, f64::min);
        format!(
            "host reference kernel: p50 {:.3} ms, min {min:.3} ms, tail {:.3} ms over {} runs \
             (reference speed: {REFERENCE_MS} ms)",
            s.p50, s.tail, s.n
        )
    }
}
