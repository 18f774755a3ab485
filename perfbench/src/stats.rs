//! Order statistics over timing samples.

/// A timing distribution reduced the way every timing of this benchmark
/// is reported: the median plus the highest percentile that still has
/// at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median sample.
    pub p50: f64,
    /// The tail sample: the eleventh-largest, so ten samples lie beyond
    /// it (the largest sample when there are ten or fewer).
    pub tail: f64,
    /// The percentile `tail` sits at, in percent.
    pub tail_pct: f64,
    /// Number of samples.
    pub n: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Summarizes `samples` (any order). An empty input yields `NaN`s, which
/// the result line refuses to print as a number.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Summary {
            p50: f64::NAN,
            tail: f64::NAN,
            tail_pct: f64::NAN,
            n,
        };
    }
    let (tail, tail_pct) = if n > TAIL_BEYOND {
        let rank = n - TAIL_BEYOND; // samples at or below the tail
        (sorted[rank - 1], 100.0 * rank as f64 / n as f64)
    } else {
        (sorted[n - 1], 100.0)
    };
    Summary {
        p50: median_sorted(&sorted),
        tail,
        tail_pct,
        n,
    }
}

/// Median of `values` (any order); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

/// The `pct`-th percentile of `values` (any order) by nearest rank;
/// `NaN` when empty.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted
        .get(rank.clamp(1, sorted.len().max(1)) - 1)
        .copied()
        .unwrap_or(f64::NAN)
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// A splitmix64 stream: the benchmark's only source of randomness, so a
/// seed fixes every generated input.
#[derive(Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.5);
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(samples.iter().filter(|&&x| x > s.tail).count(), 10);
    }

    #[test]
    fn percentiles_take_the_nearest_rank() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert!(percentile(&[], 90.0).is_nan());
    }

    #[test]
    fn small_samples_report_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p50, s.tail, s.tail_pct), (2.0, 3.0, 100.0));
    }

    #[test]
    fn seeded_streams_repeat() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        assert!((0..16).all(|_| a.next_u64() == b.next_u64()));
    }
}
