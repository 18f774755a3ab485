//! Spatial index over Rydberg intervals for restriction checks.
//!
//! The scheduler must delay a Rydberg gate until no time-overlapping
//! Rydberg interval holds an atom within `r_restr` of the gate's sites.
//! ASAP start times are not monotone in stream order (a later-streamed
//! gate on long-idle atoms may start earlier than the current one), so
//! no interval can ever be dropped for good: a gate on two so-far-idle
//! atoms may still legally start at t = 0. [`RestrictIndex`] keeps every
//! interval and narrows each query twice instead:
//!
//! * **In space.** Intervals are bucketed by the coarse [`RegionGrid`]
//!   partition, so a query only walks the region rings that can hold a
//!   site within the restriction radius.
//! * **In time.** Each bucket is ordered by interval end. An interval
//!   ending at or before the query's `t0` cannot overlap `[t, t + dur)`
//!   for any `t ≥ t0`, so the walk reads each bucket from the back and
//!   stops at the first such end.
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
//! ending after `t0` with a site within `r_restr` of a query site;
//! reporting more is harmless, reporting fewer would be a missed
//! restriction.
//!
//! The ring cutoff is exact in integer arithmetic:
//! [`RegionGrid::ring_min_cells`] lower-bounds the distance between
//! sites whose regions are Chebyshev ring distance `k` apart, so ring
//! `k` is skipped iff `ring_min_cells(k)² >`
//! [`Site::within_threshold_sq`]`(r)` — the same integer threshold the
//! geometry test uses, so no float rounding can disagree.

use std::ops::Range;

use na_arch::{geometry, Lattice, RegionGrid, Site};

/// One Rydberg interval: `[start, end)` in µs over a range of the
/// index's site arena.
#[derive(Debug, Clone)]
struct Interval {
    start: f64,
    end: f64,
    sites: Range<usize>,
}

/// Region-bucketed, end-ordered index of Rydberg intervals.
#[derive(Debug, Clone)]
pub(crate) struct RestrictIndex {
    /// The region partition, at a side derived from the radius.
    grid: RegionGrid,
    /// Largest region ring that can hold a site within the restriction
    /// radius of a query site.
    k_max: u32,
    /// The restriction radius, passed through unchanged to the exact
    /// geometry test.
    r: f64,
    /// Every inserted interval; an interval's id is its index here.
    intervals: Vec<Interval>,
    /// Site arena: the concatenated site lists of all intervals.
    sites: Vec<Site>,
    /// Region id → `(end, id)` of the intervals with a site in the
    /// region, one entry per interval, in ascending `end`.
    buckets: Vec<Vec<(f64, usize)>>,
    /// Candidate ids of the current query.
    candidates: Vec<usize>,
}

impl RestrictIndex {
    /// Builds an empty index for `lattice` with restriction radius `r`.
    ///
    /// The region side adapts to the radius (`max(1, ⌈r⌉)` cells,
    /// capped at [`RegionGrid::DEFAULT_SIDE`]) so a query's ring walk
    /// stays a small constant number of regions while each region
    /// covers at most one radius of sites.
    pub(crate) fn new(lattice: Lattice, r: f64) -> Self {
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
            intervals: Vec::new(),
            sites: Vec::new(),
            buckets: vec![Vec::new(); (regions_x * regions_y) as usize],
            candidates: Vec::new(),
        }
    }

    /// Inserts the interval `[start, end)` over `sites`.
    pub(crate) fn insert(&mut self, start: f64, end: f64, sites: &[Site]) {
        debug_assert!(
            !sites.is_empty(),
            "Rydberg intervals cover at least one site"
        );
        let id = self.intervals.len();
        let from = self.sites.len();
        self.sites.extend_from_slice(sites);
        self.intervals.push(Interval {
            start,
            end,
            sites: from..self.sites.len(),
        });
        for site in sites {
            let bucket = &mut self.buckets[self.grid.region_of(*site)];
            let pos = bucket.partition_point(|&(e, _)| e <= end);
            // A second site in the same region lands right after this
            // interval's own entry.
            if pos == 0 || bucket[pos - 1].1 != id {
                bucket.insert(pos, (end, id));
            }
        }
    }

    /// The minimal start `t ≥ t0` at which `[t, t + dur)` overlaps no
    /// conflicting interval — byte-identical to the linear scan over
    /// all intervals (see the module docs for why).
    pub(crate) fn earliest_clear(&mut self, sites: &[Site], mut t0: f64, dur: f64) -> f64 {
        self.collect_candidates(sites, t0);
        loop {
            let mut moved = false;
            for &id in &self.candidates {
                let interval = &self.intervals[id];
                let overlaps = interval.start < t0 + dur && interval.end > t0;
                if overlaps
                    && !geometry::sets_clear_of(sites, &self.sites[interval.sites.clone()], self.r)
                {
                    t0 = interval.end;
                    moved = true;
                }
            }
            if !moved {
                return t0;
            }
        }
    }

    /// Gathers the deduplicated ids of the intervals ending after `t0`
    /// whose regions fall within `k_max` rings of any query site.
    fn collect_candidates(&mut self, sites: &[Site], t0: f64) {
        let RestrictIndex {
            buckets,
            candidates,
            grid,
            k_max,
            ..
        } = self;
        candidates.clear();
        for site in sites {
            let rings = grid.rings(f64::from(site.x), f64::from(site.y));
            for ring in rings.take(*k_max as usize + 1) {
                ring.for_each_region(|region| {
                    let live = buckets[region].iter().rev();
                    candidates.extend(live.take_while(|&&(end, _)| end > t0).map(|&(_, id)| id));
                });
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
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
            index.insert(idx_t, idx_t + dur, &sites);
            reference.push((ref_t, ref_t + dur, sites));
            if next() % 3 == 0 {
                t += 0.15;
            }
        }
    }

    #[test]
    fn end_cutoff_matches_eager_pruning() {
        let lattice = Lattice::new(10);
        let r = 2.5;
        let mut index = RestrictIndex::new(lattice, r);
        let mut reference: Vec<(f64, f64, Vec<Site>)> = Vec::new();
        let mut seed = 99u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            seed >> 33
        };
        let mut base = 0.0f64;
        for i in 0..300 {
            let x = (next() % 10) as i32;
            let y = (next() % 10) as i32;
            let sites = vec![Site::new(x, y)];
            let t0 = base + (next() % 4) as f64 * 0.05;
            let dur = 0.2;
            // Eager reference pruning: drop what ends at or before the
            // earliest possible query start.
            reference.retain(|(_, end, _)| *end > base);
            let idx_t = index.earliest_clear(&sites, t0, dur);
            let ref_t = linear_earliest_clear(&reference, &sites, t0, dur, r);
            assert_eq!(idx_t.to_bits(), ref_t.to_bits(), "step {i}");
            index.insert(idx_t, idx_t + dur, &sites);
            reference.push((idx_t, idx_t + dur, sites));
            if i % 7 == 0 {
                base += 0.3;
            }
        }
    }

    /// Drives one random stream through the index and the seed's linear
    /// scan, asserting bit-identical delays at every step. Query starts
    /// mostly follow an advancing base time; an op flagged `idle` starts
    /// from 0 instead, like a gate on atoms that have not acted yet,
    /// so its query lies far below most stored interval ends.
    fn assert_stream_equivalence(
        lattice: Lattice,
        r: f64,
        ops: &[(usize, usize, f64, f64, u8, bool)],
    ) {
        let mut index = RestrictIndex::new(lattice, r);
        let mut reference: Vec<(f64, f64, Vec<Site>)> = Vec::new();
        let mut base = 0.0f64;
        let n = lattice.num_sites();
        for (step, &(a, b, dt, dur, adv, idle)) in ops.iter().enumerate() {
            let sites = vec![lattice.site(a % n), lattice.site(b % n)];
            let t0 = if idle { dt } else { base + dt };
            let idx_t = index.earliest_clear(&sites, t0, dur);
            let ref_t = linear_earliest_clear(&reference, &sites, t0, dur, r);
            assert_eq!(idx_t.to_bits(), ref_t.to_bits(), "step {step}");
            index.insert(idx_t, idx_t + dur, &sites);
            reference.push((ref_t, ref_t + dur, sites));
            if adv % 4 == 0 {
                base += dur * 0.5;
            }
        }
    }

    proptest::proptest! {
        /// Index-filtered delays ≡ linear-scan delays on random Rydberg
        /// streams (square lattice).
        #[test]
        fn index_matches_linear_scan_square(
            side in 4u32..13,
            r in 0.8f64..4.0,
            ops in proptest::collection::vec(
                (0usize..100_000, 0usize..100_000, 0.0f64..6.0, 0.05f64..2.5, 0u8..8, proptest::bool::ANY),
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
                (0usize..100_000, 0usize..100_000, 0.0f64..6.0, 0.05f64..2.5, 0u8..8, proptest::bool::ANY),
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
        // An interval at one end of the lattice...
        index.insert(0.0, 1.0, &[Site::new(0, 0)]);
        // ...conflicts with a query within r, not with one beyond it.
        let near = index.earliest_clear(&[Site::new(3, 0)], 0.0, 1.0);
        assert_eq!(near, 1.0);
        let clear = index.earliest_clear(&[Site::new(8, 8)], 0.0, 1.0);
        assert_eq!(clear, 0.0);
    }
}
