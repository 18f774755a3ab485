//! Service observability: latency histograms and request counters.
//!
//! Everything here is lock-free (`AtomicU64`) except the route-cache
//! aggregate, which folds each compiled program's per-compile
//! [`CacheStats`] under a mutex on the worker's (cold) reply path. The histogram uses fixed
//! logarithmic-ish bucket bounds so recording is a single atomic
//! increment and quantiles are a cheap scan — no allocation, no
//! per-request sample retention.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use na_mapper::CacheStats;

/// Upper bucket bounds in microseconds (the last bucket is unbounded).
/// Spanning 0.25 ms – 5 s covers cache hits through mega-lattice
/// compiles.
const BOUNDS_US: [u64; 14] = [
    250, 500, 1_000, 2_000, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000,
    2_500_000, 5_000_000,
];

/// A fixed-bucket latency histogram with interpolated quantiles.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BOUNDS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation in microseconds.
    pub fn record_micros(&self, us: u64) {
        let idx = BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BOUNDS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in milliseconds (`NaN` when empty, which the JSON
    /// writers render as `null`).
    pub fn mean_ms(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return f64::NAN;
        }
        self.sum_us.load(Ordering::Relaxed) as f64 / n as f64 / 1000.0
    }

    /// The `q`-quantile (0 < q ≤ 1) in milliseconds, linearly
    /// interpolated within the containing bucket; `NaN` when empty.
    /// Observations in the unbounded overflow bucket report the last
    /// finite bound — a floor, not an estimate.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return f64::NAN;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            let here = bucket.load(Ordering::Relaxed);
            if here == 0 {
                seen += here;
                continue;
            }
            if seen + here >= rank {
                let upper = BOUNDS_US
                    .get(idx)
                    .copied()
                    .unwrap_or(*BOUNDS_US.last().expect("non-empty"));
                if idx >= BOUNDS_US.len() {
                    return upper as f64 / 1000.0;
                }
                let lower = if idx == 0 { 0 } else { BOUNDS_US[idx - 1] };
                let into = (rank - seen) as f64 / here as f64;
                return (lower as f64 + into * (upper - lower) as f64) / 1000.0;
            }
            seen += here;
        }
        *BOUNDS_US.last().expect("non-empty") as f64 / 1000.0
    }

    /// Median in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.quantile_ms(0.50)
    }

    /// 99th percentile in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.quantile_ms(0.99)
    }
}

/// Request counters for the whole service, shared by transports,
/// admission control and the worker pool.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Requests admitted to the queue (neither invalid, cached, nor
    /// rejected).
    pub submitted: AtomicU64,
    /// Jobs compiled and replied to by a worker.
    pub completed: AtomicU64,
    /// Requests answered with a parse/validation error document.
    pub invalid: AtomicU64,
    /// Requests coalesced onto an identical in-flight compile
    /// (single-flight) instead of queueing a duplicate.
    pub coalesced: AtomicU64,
    /// Requests rejected because the queue sat at capacity.
    pub rejected_busy: AtomicU64,
    /// Requests rejected because the service was shutting down.
    pub rejected_shutdown: AtomicU64,
    /// Artifact-cache hits observed at admission (mirrors the cache's
    /// own counter; kept here so transports never lock the cache just
    /// to report).
    pub cache_hits: AtomicU64,
    /// Compiler sessions reused from the session cache.
    pub session_hits: AtomicU64,
    /// Compiler sessions built fresh.
    pub session_misses: AtomicU64,
    /// Workers currently executing a job.
    pub busy_workers: AtomicU64,
    /// End-to-end latency (submission → reply) of answered requests.
    pub latency: LatencyHistogram,
    /// Cumulative mapping-phase wall clock (µs) across all compiled
    /// programs (one entry per successful job result).
    pub map_phase_us: AtomicU64,
    /// Cumulative scheduling-phase wall clock (µs).
    pub schedule_phase_us: AtomicU64,
    /// Cumulative AOD lowering + validation wall clock (µs).
    pub lower_phase_us: AtomicU64,
    /// Cumulative response-serialization wall clock (µs), measured
    /// around [`CompileResponse::to_json`](na_pipeline::CompileResponse)
    /// on the worker reply path.
    pub export_us: AtomicU64,
    /// Compiles that panicked inside a worker and were isolated by
    /// `catch_unwind` (the job still receives a typed `internal` reply).
    pub worker_panics: AtomicU64,
    /// Workers respawned by the supervisor after dying mid-compile.
    pub worker_restarts: AtomicU64,
    /// Requests answered with a typed `deadline` error because their
    /// `deadline_ms` budget ran out (in queue or at a compile
    /// checkpoint).
    pub deadline_exceeded: AtomicU64,
    /// Requests shed at admission because their deadline could not
    /// survive the estimated queue wait (typed `unmeetable` rejection).
    pub shed_unmeetable: AtomicU64,
    route_cache: Mutex<CacheStats>,
}

impl ServiceMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one compiled program's router distance-cache counters
    /// (`stats.route_cache`, which covers that compile alone) into the
    /// service-wide aggregate: counters sum, while `peak_entries` (a
    /// high-water mark) folds by max. Only returned programs are
    /// folded, so the cache work of a compile cancelled mid-request is
    /// not counted.
    pub fn add_route_cache(&self, stats: &CacheStats) {
        let mut agg = self.route_cache.lock().expect("metrics lock");
        agg.hits += stats.hits;
        agg.misses += stats.misses;
        agg.sites_settled += stats.sites_settled;
        agg.evictions += stats.evictions;
        agg.peak_entries = agg.peak_entries.max(stats.peak_entries);
        agg.corridor_queries += stats.corridor_queries;
        agg.corridor_pruned += stats.corridor_pruned;
        agg.regions_touched += stats.regions_touched;
    }

    /// The service-wide router distance-cache aggregate.
    pub fn route_cache(&self) -> CacheStats {
        *self.route_cache.lock().expect("metrics lock")
    }

    /// Folds one compiled program's per-phase timings (already in
    /// microseconds via `Duration::as_micros`) into the cumulative
    /// phase counters.
    pub fn add_phases(&self, map_us: u64, schedule_us: u64, lower_us: u64) {
        self.map_phase_us.fetch_add(map_us, Ordering::Relaxed);
        self.schedule_phase_us
            .fetch_add(schedule_us, Ordering::Relaxed);
        self.lower_phase_us.fetch_add(lower_us, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_nan() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.p50_ms().is_nan());
        assert!(h.p99_ms().is_nan());
        assert!(h.mean_ms().is_nan());
    }

    #[test]
    fn quantiles_are_ordered_and_bracket_the_samples() {
        let h = LatencyHistogram::new();
        // 100 samples at ~1 ms, 10 at ~40 ms, 1 at ~400 ms.
        for _ in 0..100 {
            h.record_micros(900);
        }
        for _ in 0..10 {
            h.record_micros(40_000);
        }
        h.record_micros(400_000);
        assert_eq!(h.count(), 111);
        let p50 = h.p50_ms();
        let p99 = h.p99_ms();
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        // The median falls in the ≤1 ms bucket, the tail at ≥25 ms.
        assert!((0.0..=1.0).contains(&p50), "p50 {p50}");
        assert!(p99 >= 25.0, "p99 {p99}");
    }

    #[test]
    fn overflow_bucket_reports_last_bound() {
        let h = LatencyHistogram::new();
        h.record_micros(30_000_000);
        assert_eq!(h.p50_ms(), 5_000.0);
    }

    #[test]
    fn route_cache_fold_sums_counters_and_maxes_peak() {
        let m = ServiceMetrics::new();
        m.add_route_cache(&CacheStats {
            hits: 5,
            misses: 2,
            peak_entries: 7,
            ..Default::default()
        });
        m.add_route_cache(&CacheStats {
            hits: 4,
            sites_settled: 30,
            peak_entries: 4,
            ..Default::default()
        });
        let agg = m.route_cache();
        assert_eq!(agg.hits, 9);
        assert_eq!(agg.misses, 2);
        assert_eq!(agg.sites_settled, 30);
        assert_eq!(agg.peak_entries, 7);
    }
}
