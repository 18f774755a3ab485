//! Spatial index over active Rydberg intervals for restriction checks.
//!
//! [`respect_restriction`](crate::IncrementalScheduler) must delay a
//! Rydberg gate until no time-overlapping Rydberg interval holds an atom
//! within `r_restr` of the gate's sites. The seed implementation scanned
//! the full active-interval list per push — O(intervals) geometry tests
//! per gate, and the list never shrinks while any atom stays idle (its
//! availability pins the prune low-water mark at 0). [`RestrictIndex`]
//! buckets intervals by the coarse [`RegionGrid`] partition the mapper
//! already uses (PR 6), so a query only walks the region rings that can
//! possibly hold a site within the restriction radius.
//!
//! # Why the index is a pure filter
//!
//! The delay fixpoint has an order-independent solution: for any
//! conflicting interval `(s, e)` overlapping `[t, t + dur)`, every
//! feasible start `t' ≥ t` satisfies `t' ≥ e` (starting before `s`
//! would need `t' < t`). The loop only ever advances `t` to interval
//! end times, never past the minimal feasible start, so it converges to
//! that unique minimum from **any** superset of the conflicting
//! intervals — scanning extra non-conflicting intervals (which fail the
//! exact [`geometry::sets_clear_of`] test) or visiting candidates in a
//! different order cannot change the resulting `f64`. The index
//! therefore only needs to be *conservative*: report every interval
//! with a site within `r_restr` of a query site; reporting more is
//! harmless, reporting fewer would be a missed restriction.
//!
//! The ring cutoff is exact in integer arithmetic:
//! [`RegionGrid::ring_min_cells`] lower-bounds the distance between
//! sites whose regions are Chebyshev ring distance `k` apart, so ring
//! `k` is skipped iff `ring_min_cells(k)² >`
//! [`Site::within_threshold_sq`]`(r)` — the same integer threshold the
//! geometry test uses, so no float rounding can disagree.
//!
//! Retired intervals (every future gate starts at or after the
//! scheduler's availability low-water mark, so intervals ending at or
//! before it can never overlap again) are removed from their buckets a
//! few slab slots per insertion — an amortized-O(1) round-robin sweep.
//! Keeping an interval past its retirement point is conservative, so
//! the lag never changes a delay.

use na_arch::{geometry, Lattice, RegionGrid, Site};

/// Interval ids are slab indices; slots recycle through a free list.
type IntervalId = u32;

/// One active Rydberg interval: `[start, end)` in µs over `sites`.
/// `sites` doubles as the liveness flag — a retired slot's vector is
/// empty (gates always have at least one site).
#[derive(Debug, Clone, Default)]
struct IntervalSlot {
    start: f64,
    end: f64,
    sites: Vec<Site>,
}

/// Region-bucketed index of active Rydberg intervals.
///
/// Buckets may transiently hold ids of retired-and-reused slots; a
/// reused id aliases the *new* interval from a stale region, which only
/// adds it as a candidate (conservative — the exact geometry test still
/// decides). Insertion removes the interval's own bucket entries on
/// retirement, so stale entries are bounded by the sweep lag.
#[derive(Debug, Clone)]
pub struct RestrictIndex {
    /// The region partition, at a side derived from the radius.
    grid: RegionGrid,
    /// Largest region ring that can hold a site within the restriction
    /// radius of a query site.
    k_max: u32,
    /// The restriction radius, passed through unchanged to the exact
    /// geometry test.
    r: f64,
    /// Interval slab; `free` lists retired slots for reuse.
    slots: Vec<IntervalSlot>,
    free: Vec<IntervalId>,
    /// Region id → live interval ids whose sites touch the region.
    buckets: Vec<Vec<IntervalId>>,
    /// Round-robin retirement cursor over the slab.
    sweep_cursor: usize,
    /// Per-interval query stamp (deduplicates candidates across the
    /// overlapping rings of a multi-site gate).
    stamp: Vec<u32>,
    generation: u32,
    /// Candidate ids of the current query.
    candidates: Vec<IntervalId>,
}

/// Slab slots examined for retirement per insertion. Any constant keeps
/// the sweep amortized O(1); 4 retires a full slab within a quarter of
/// the insertions that built it.
const SWEEP_PER_INSERT: usize = 4;

impl RestrictIndex {
    /// Builds an empty index for `lattice` with restriction radius `r`.
    ///
    /// The region side adapts to the radius (`max(1, ⌈r⌉)` cells,
    /// capped at [`RegionGrid::DEFAULT_SIDE`]) so a query's ring walk
    /// stays a small constant number of regions while each region
    /// covers at most one radius of sites.
    pub fn new(lattice: Lattice, r: f64) -> Self {
        let side = (r.ceil().max(1.0) as u32).clamp(1, RegionGrid::DEFAULT_SIDE);
        let grid = RegionGrid::new(&lattice, side);
        let (regions_x, regions_y) = grid.dims();
        let threshold_sq = Site::within_threshold_sq(r);
        // Ring k is reachable iff its minimal site distance can still
        // conflict under the integer threshold — the exact test the
        // geometry kernel applies, so the cutoff can never under-filter.
        let mut k_max = 0u32;
        while i64::from(grid.ring_min_cells(k_max + 1)).pow(2) <= threshold_sq {
            k_max += 1;
        }
        RestrictIndex {
            grid,
            k_max,
            r,
            slots: Vec::new(),
            free: Vec::new(),
            buckets: vec![Vec::new(); (regions_x * regions_y) as usize],
            sweep_cursor: 0,
            stamp: Vec::new(),
            generation: 0,
            candidates: Vec::new(),
        }
    }

    /// Number of live intervals.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Returns `true` if no interval is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts the interval `[start, end)` over `sites`, taking
    /// ownership of the site buffer (returned to the caller's pool on
    /// retirement via `recycle`). `low_water` is the scheduler's
    /// availability low-water mark: a few retirable slots (ending at or
    /// before it) are swept out per call.
    pub fn insert(
        &mut self,
        start: f64,
        end: f64,
        sites: Vec<Site>,
        low_water: f64,
        recycle: &mut Vec<Vec<Site>>,
    ) {
        debug_assert!(
            !sites.is_empty(),
            "Rydberg intervals cover at least one site"
        );
        self.sweep(low_water, recycle);
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = IntervalSlot { start, end, sites };
                id
            }
            None => {
                self.slots.push(IntervalSlot { start, end, sites });
                self.stamp.push(0);
                (self.slots.len() - 1) as IntervalId
            }
        };
        self.bucket_interval(id, |bucket, id| bucket.push(id));
    }

    /// The minimal start `t ≥ t0` at which `[t, t + dur)` overlaps no
    /// conflicting interval — byte-identical to the linear scan over
    /// all live intervals (see the module docs for why).
    pub fn earliest_clear(&mut self, sites: &[Site], mut t0: f64, dur: f64) -> f64 {
        self.collect_candidates(sites);
        loop {
            let mut moved = false;
            for &id in &self.candidates {
                let slot = &self.slots[id as usize];
                if slot.sites.is_empty() {
                    continue; // retired (stale bucket entry)
                }
                let overlaps = slot.start < t0 + dur && slot.end > t0;
                if overlaps && !geometry::sets_clear_of(sites, &slot.sites, self.r) {
                    t0 = slot.end;
                    moved = true;
                }
            }
            if !moved {
                return t0;
            }
        }
    }

    /// Gathers the deduplicated candidate ids whose regions fall within
    /// `k_max` rings of any query site.
    fn collect_candidates(&mut self, sites: &[Site]) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: clear all stamps once so stale generations can
            // never alias the new cycle.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.generation = 1;
        }
        let generation = self.generation;
        self.candidates.clear();
        // Split borrows: the ring walk reads buckets and writes
        // stamp/candidates.
        let RestrictIndex {
            buckets,
            stamp,
            candidates,
            grid,
            k_max,
            ..
        } = self;
        for site in sites {
            let rings = grid.rings(f64::from(site.x), f64::from(site.y));
            for ring in rings.take(*k_max as usize + 1) {
                ring.for_each_region(|region| {
                    for &id in &buckets[region] {
                        if stamp[id as usize] != generation {
                            stamp[id as usize] = generation;
                            candidates.push(id);
                        }
                    }
                });
            }
        }
    }

    /// Visits every bucket of `id`'s interval (one per distinct region
    /// its sites touch).
    fn bucket_interval(
        &mut self,
        id: IntervalId,
        mut apply: impl FnMut(&mut Vec<IntervalId>, IntervalId),
    ) {
        // Gates have ≤ 3 sites; linear dedup over the visited regions.
        let mut seen = [usize::MAX; 8];
        let mut n = 0usize;
        let slot_sites = std::mem::take(&mut self.slots[id as usize].sites);
        for site in &slot_sites {
            let region = self.grid.region_of(*site);
            if !seen[..n].contains(&region) {
                if n < seen.len() {
                    seen[n] = region;
                    n += 1;
                }
                apply(&mut self.buckets[region], id);
            }
        }
        self.slots[id as usize].sites = slot_sites;
    }

    /// Retires up to [`SWEEP_PER_INSERT`] slots whose intervals end at
    /// or before `low_water` — the same condition the seed's per-call
    /// compaction used (`end > low_water` keeps), applied lazily.
    fn sweep(&mut self, low_water: f64, recycle: &mut Vec<Vec<Site>>) {
        if self.slots.is_empty() {
            return;
        }
        for _ in 0..SWEEP_PER_INSERT.min(self.slots.len()) {
            self.sweep_cursor = (self.sweep_cursor + 1) % self.slots.len();
            let id = self.sweep_cursor as IntervalId;
            let slot = &self.slots[self.sweep_cursor];
            if slot.sites.is_empty() || slot.end > low_water {
                continue;
            }
            self.bucket_interval(id, |bucket, id| {
                if let Some(pos) = bucket.iter().position(|&b| b == id) {
                    bucket.swap_remove(pos);
                }
            });
            let mut sites = std::mem::take(&mut self.slots[self.sweep_cursor].sites);
            sites.clear();
            recycle.push(sites);
            self.free.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the seed's linear fixpoint over an explicit list.
    fn linear_earliest_clear(
        intervals: &[(f64, f64, Vec<Site>)],
        sites: &[Site],
        mut t0: f64,
        dur: f64,
        r: f64,
    ) -> f64 {
        loop {
            let mut moved = false;
            for (start, end, other) in intervals {
                let overlaps = *start < t0 + dur && *end > t0;
                if overlaps && !geometry::sets_clear_of(sites, other, r) {
                    t0 = *end;
                    moved = true;
                }
            }
            if !moved {
                return t0;
            }
        }
    }

    #[test]
    fn matches_linear_scan_on_a_dense_stream() {
        let lattice = Lattice::new(12);
        let r = 2.5;
        let mut index = RestrictIndex::new(lattice, r);
        let mut reference: Vec<(f64, f64, Vec<Site>)> = Vec::new();
        let mut pool = Vec::new();
        // Deterministic pseudo-random site/time stream.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut t = 0.0f64;
        for _ in 0..400 {
            let x = (next() % 12) as i32;
            let y = (next() % 12) as i32;
            let sites = vec![Site::new(x, y), Site::new((x + 1).min(11), y)];
            let dur = 0.2 + (next() % 5) as f64 * 0.1;
            let idx_t = index.earliest_clear(&sites, t, dur);
            let ref_t = linear_earliest_clear(&reference, &sites, t, dur, r);
            assert_eq!(
                idx_t.to_bits(),
                ref_t.to_bits(),
                "delay must be bit-identical"
            );
            index.insert(idx_t, idx_t + dur, sites.clone(), 0.0, &mut pool);
            reference.push((ref_t, ref_t + dur, sites));
            if next() % 3 == 0 {
                t += 0.15;
            }
        }
        assert_eq!(index.len(), 400);
    }

    #[test]
    fn retirement_matches_eager_pruning() {
        let lattice = Lattice::new(10);
        let r = 2.5;
        let mut index = RestrictIndex::new(lattice, r);
        let mut reference: Vec<(f64, f64, Vec<Site>)> = Vec::new();
        let mut pool = Vec::new();
        let mut seed = 99u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            seed >> 33
        };
        let mut low_water = 0.0f64;
        for i in 0..300 {
            let x = (next() % 10) as i32;
            let y = (next() % 10) as i32;
            let sites = vec![Site::new(x, y)];
            let t0 = low_water + (next() % 4) as f64 * 0.05;
            let dur = 0.2;
            // Eager reference pruning (the seed's compaction).
            reference.retain(|(_, end, _)| *end > low_water);
            let idx_t = index.earliest_clear(&sites, t0, dur);
            let ref_t = linear_earliest_clear(&reference, &sites, t0, dur, r);
            assert_eq!(idx_t.to_bits(), ref_t.to_bits(), "step {i}");
            index.insert(idx_t, idx_t + dur, sites.clone(), low_water, &mut pool);
            reference.push((idx_t, idx_t + dur, sites));
            if i % 7 == 0 {
                low_water += 0.3;
            }
        }
        // Lazy retirement must eventually free slots.
        assert!(index.len() < 300, "retired intervals must leave the slab");
    }

    /// Drives one random stream through the index and the seed's linear
    /// scan, asserting bit-identical delays at every step. The reference
    /// keeps every interval forever while the index retires ones ending
    /// at or before the advancing low-water mark — retired intervals
    /// cannot overlap any later query (`t0 ≥ low_water`), so the delays
    /// must still agree exactly.
    fn assert_stream_equivalence(lattice: Lattice, r: f64, ops: &[(usize, usize, f64, f64, u8)]) {
        let mut index = RestrictIndex::new(lattice, r);
        let mut reference: Vec<(f64, f64, Vec<Site>)> = Vec::new();
        let mut pool = Vec::new();
        let mut low_water = 0.0f64;
        let n = lattice.num_sites();
        for (step, &(a, b, dt, dur, adv)) in ops.iter().enumerate() {
            let sites = vec![lattice.site(a % n), lattice.site(b % n)];
            let t0 = low_water + dt;
            let idx_t = index.earliest_clear(&sites, t0, dur);
            let ref_t = linear_earliest_clear(&reference, &sites, t0, dur, r);
            assert_eq!(idx_t.to_bits(), ref_t.to_bits(), "step {step}");
            index.insert(idx_t, idx_t + dur, sites.clone(), low_water, &mut pool);
            reference.push((ref_t, ref_t + dur, sites));
            if adv % 4 == 0 {
                low_water += dur * 0.5;
            }
        }
    }

    proptest::proptest! {
        /// Property form of the ISSUE's equivalence requirement:
        /// index-filtered delays ≡ linear-scan delays on random Rydberg
        /// streams (square lattice).
        #[test]
        fn index_matches_linear_scan_square(
            side in 4u32..13,
            r in 0.8f64..4.0,
            ops in proptest::collection::vec(
                (0usize..100_000, 0usize..100_000, 0.0f64..6.0, 0.05f64..2.5, 0u8..8),
                1..120,
            ),
        ) {
            assert_stream_equivalence(Lattice::new(side), r, &ops);
        }

        /// Same equivalence over a zoned lattice, whose storage gaps
        /// leave whole region buckets permanently empty.
        #[test]
        fn index_matches_linear_scan_zoned(
            side in 5u32..13,
            zone in 1u32..4,
            gap in 1u32..3,
            r in 0.8f64..4.0,
            ops in proptest::collection::vec(
                (0usize..100_000, 0usize..100_000, 0.0f64..6.0, 0.05f64..2.5, 0u8..8),
                1..120,
            ),
        ) {
            let lattice = Lattice::zoned(side, zone, gap).expect("valid banding");
            assert_stream_equivalence(lattice, r, &ops);
        }
    }

    #[test]
    fn zoned_lattice_queries_cover_all_rings() {
        let lattice = Lattice::zoned(9, 2, 1).expect("valid banding");
        let r = 3.0;
        let mut index = RestrictIndex::new(lattice, r);
        let mut pool = Vec::new();
        // An interval at one end of the lattice...
        let far = vec![Site::new(0, 0)];
        index.insert(0.0, 1.0, far, 0.0, &mut pool);
        // ...conflicts with a query within r, not with one beyond it.
        let near = index.earliest_clear(&[Site::new(3, 0)], 0.0, 1.0);
        assert_eq!(near, 1.0);
        let clear = index.earliest_clear(&[Site::new(8, 8)], 0.0, 1.0);
        assert_eq!(clear, 0.0);
    }
}
