//! CSR adjacency: precomputed in-bounds neighbor lists per
//! `(Lattice, Neighborhood)` pair.
//!
//! Every hot loop of the routing core used to enumerate lattice
//! neighbors geometrically — `hood.around(site)` offset arithmetic plus
//! a `Lattice::contains` bounds check and a `Lattice::index` dense-index
//! computation *per visited neighbor, per visit*. On the paper's
//! near-full 15×15 arrays (and beyond) that geometry math dominates BFS
//! and the routers' adjacency scans. [`NeighborTable`] resolves the
//! whole product once into one dense `offsets`/`neighbors` CSR pair:
//! the neighbors of dense site `i` are the slice
//! `neighbors[offsets[i]..offsets[i + 1]]`, already bounds-filtered and
//! already in dense-index form.
//!
//! The per-site neighbor order is exactly the order
//! `hood.around(site).filter(|s| lattice.contains(*s))` yields — the
//! disc's nearest-first `(d², dy, dx)` order — so consumers that switch
//! from the iterator to the table enumerate candidates in the identical
//! sequence (a load-bearing property for the routers' deterministic
//! tie-breaking).
//!
//! # Example
//!
//! ```
//! use na_arch::{Lattice, NeighborTable, Neighborhood, Site};
//! let lattice = Lattice::new(15);
//! let table = NeighborTable::build(&lattice, &Neighborhood::new(2.0));
//! // Interior sites see the full 12-site disc of Fig. 1a ...
//! let center = lattice.index(Site::new(7, 7));
//! assert_eq!(table.neighbors(center).len(), 12);
//! // ... corner sites only its in-bounds quarter.
//! let corner = lattice.index(Site::new(0, 0));
//! assert_eq!(table.neighbors(corner).len(), 5);
//! ```

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::coord::Site;
use crate::geometry::Neighborhood;
use crate::lattice::Lattice;

/// Precomputed CSR neighbor table of a lattice under a Euclidean
/// interaction radius: one `offsets`/`neighbors` pair over dense site
/// indices, replacing per-visit `Neighborhood::around` geometry math in
/// BFS, the routers' adjacency scans and the verifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeighborTable {
    lattice: Lattice,
    radius: f64,
    /// `offsets[i]..offsets[i + 1]` delimits site `i`'s neighbor slice.
    offsets: Vec<u32>,
    /// Dense site indices, per site in the disc's nearest-first order.
    neighbors: Vec<u32>,
}

impl NeighborTable {
    /// Resolves the `(lattice, hood)` product into a CSR table.
    ///
    /// Cost is `O(num_sites × hood.len())` — run once per compiler
    /// construction (or mapper call), never per routing round.
    pub fn build(lattice: &Lattice, hood: &Neighborhood) -> Self {
        let n = lattice.num_sites();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(n * hood.len());
        offsets.push(0u32);
        for idx in 0..n {
            let center = lattice.site(idx);
            for s in hood.around(center) {
                if lattice.contains(s) {
                    neighbors.push(lattice.index(s) as u32);
                }
            }
            offsets.push(neighbors.len() as u32);
        }
        NeighborTable {
            lattice: *lattice,
            radius: hood.radius(),
            offsets,
            neighbors,
        }
    }

    /// [`NeighborTable::build`] constructing the disc internally.
    pub fn for_radius(lattice: &Lattice, r: f64) -> Self {
        NeighborTable::build(lattice, &Neighborhood::new(r))
    }

    /// The lattice this table was built over.
    #[inline]
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// The Euclidean radius this table was built for.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of sites covered (rows of the CSR matrix).
    #[inline]
    pub fn num_sites(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of directed adjacency entries.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// The in-bounds neighbors of dense site index `idx`, nearest
    /// first — dense indices, already bounds-checked at build time.
    #[inline]
    pub fn neighbors(&self, idx: usize) -> &[u32] {
        let lo = self.offsets[idx] as usize;
        let hi = self.offsets[idx + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Returns `true` when this table describes exactly the given
    /// `(lattice, radius)` pair — the staleness check for consumers that
    /// cache a table across calls.
    #[inline]
    pub fn matches(&self, lattice: &Lattice, r: f64) -> bool {
        self.lattice == *lattice && self.radius == r
    }
}

/// Coarse R×R clustering of a lattice: the bounding box is tiled into
/// square regions of `side × side` geometric cells. The grid stores only
/// its shape; a site's region is arithmetic on its coordinates
/// ([`RegionGrid::region_of`]), so the grid is `Copy` and every holder of
/// the same `(lattice, side)` pair agrees on what a region is.
///
/// **Ring ordering** makes the grid useful to the routing core: sites
/// of a region at Chebyshev region distance `K ≥ 1` from a reference
/// region are at least `(K - 1)·side + 1` cells away, so nearest-site
/// scans walk outward ring by ring ([`RegionGrid::rings`]) and stop as
/// soon as the best hit beats the next ring's lower bound.
///
/// # Example
///
/// ```
/// use na_arch::{Lattice, RegionGrid, Site};
/// let grid = RegionGrid::new(&Lattice::new(100), RegionGrid::DEFAULT_SIDE);
/// assert_eq!(grid.dims(), (13, 13));
/// assert_eq!(grid.region_of(Site::new(17, 9)), 13 + 2);
/// // Ring 0 is the center region alone; ring 1 its (clipped) border.
/// let mut rings = grid.rings(0.0, 0.0);
/// let mut regions = Vec::new();
/// rings.next().unwrap().for_each_region(|r| regions.push(r));
/// rings.next().unwrap().for_each_region(|r| regions.push(r));
/// assert_eq!(regions, [0, 1, 13, 14]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionGrid {
    /// Region edge length in lattice cells (≥ 1).
    side: u32,
    /// Regions per geometric row of the bounding box.
    regions_x: u32,
    /// Region rows up to the last trap row (zoned lattices count lane
    /// rows in between; lane-only regions simply hold no sites).
    regions_y: u32,
}

impl RegionGrid {
    /// Default region edge length in lattice cells: a 100×100 lattice
    /// resolves into a 13×13 region grid.
    pub const DEFAULT_SIDE: u32 = 8;

    /// Tiles a lattice into regions of the given side length (a side of
    /// 0 is treated as 1).
    pub fn new(lattice: &Lattice, side: u32) -> Self {
        let side = side.max(1);
        // The last dense site sits on the last trap row, at the right
        // edge of the bounding box.
        let last = lattice.site(lattice.num_sites() - 1);
        RegionGrid {
            side,
            regions_x: last.x as u32 / side + 1,
            regions_y: last.y as u32 / side + 1,
        }
    }

    /// Region edge length in lattice cells.
    #[inline]
    pub fn side(&self) -> u32 {
        self.side
    }

    /// `(regions_x, regions_y)` — the region grid dimensions; region ids
    /// run `0..regions_x * regions_y`.
    #[inline]
    pub fn dims(&self) -> (u32, u32) {
        (self.regions_x, self.regions_y)
    }

    /// The region id (`ry * regions_x + rx`) of a lattice site.
    #[inline]
    pub fn region_of(&self, site: Site) -> usize {
        let rx = site.x as u32 / self.side;
        let ry = site.y as u32 / self.side;
        (ry * self.regions_x + rx) as usize
    }

    /// The geometric cells of a region: half-open `x` and `y` ranges.
    /// The ranges may reach past the bounding box and cross lane rows;
    /// filter with [`Lattice::contains`] to get the region's sites.
    pub fn cells(&self, region: usize) -> (Range<i32>, Range<i32>) {
        let region = region as u32;
        let x0 = (region % self.regions_x * self.side) as i32;
        let y0 = (region / self.regions_x * self.side) as i32;
        let side = self.side as i32;
        (x0..x0 + side, y0..y0 + side)
    }

    /// Lower bound, in lattice cells, on the Euclidean (and Chebyshev)
    /// distance from any site inside a region to any site of a region
    /// at Chebyshev region distance `k`: `0` for `k = 0`, else
    /// `(k − 1)·side + 1` (the rings share no cells, so at least one
    /// full region of separation minus the reference site's own
    /// region). Lets ring walks stop as soon as the best hit found so
    /// far beats everything a farther ring could hold.
    #[inline]
    pub fn ring_min_cells(&self, k: u32) -> u32 {
        if k == 0 {
            0
        } else {
            (k - 1) * self.side + 1
        }
    }

    /// The Chebyshev region rings around the region holding the point
    /// `(x, y)` (clamped into the grid), innermost first: ring `k`
    /// holds the regions exactly `k` region steps away, and the last
    /// ring reaches the farthest grid corner, so the rings together
    /// cover every region exactly once.
    pub fn rings(&self, x: f64, y: f64) -> impl Iterator<Item = Ring> {
        let grid = *self;
        let cx = ((x.max(0.0) as u32) / self.side).min(self.regions_x - 1);
        let cy = ((y.max(0.0) as u32) / self.side).min(self.regions_y - 1);
        let max_k = cx
            .max(self.regions_x - 1 - cx)
            .max(cy.max(self.regions_y - 1 - cy));
        (0..=max_k).map(move |k| Ring { grid, cx, cy, k })
    }
}

/// One Chebyshev ring of a [`RegionGrid`], from [`RegionGrid::rings`].
#[derive(Debug, Clone, Copy)]
pub struct Ring {
    grid: RegionGrid,
    cx: u32,
    cy: u32,
    k: u32,
}

impl Ring {
    /// The ring's Chebyshev region distance from the center region.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// [`RegionGrid::ring_min_cells`] of this ring: no site of it lies
    /// closer than this to a site of the center region. From an
    /// arbitrary real point of the center region the bound is one cell
    /// less, and strict.
    #[inline]
    pub fn min_cells(&self) -> u32 {
        self.grid.ring_min_cells(self.k)
    }

    /// Visits the id of every region on the ring, clipped to the grid,
    /// in row-major order. Ring 0 is the center region alone.
    pub fn for_each_region(&self, mut visit: impl FnMut(usize)) {
        let Ring { grid, cx, cy, k } = *self;
        let id = |rx: u32, ry: u32| (ry * grid.regions_x + rx) as usize;
        let x_lo = cx.saturating_sub(k);
        let x_hi = (cx + k).min(grid.regions_x - 1);
        let y_lo = cy.saturating_sub(k);
        let y_hi = (cy + k).min(grid.regions_y - 1);
        for ry in y_lo..=y_hi {
            if cy.abs_diff(ry) == k {
                // Top/bottom edge of the ring: the full row segment.
                for rx in x_lo..=x_hi {
                    visit(id(rx, ry));
                }
            } else {
                // Interior row: only the two vertical edges.
                if cx >= k {
                    visit(id(cx - k, ry));
                }
                if k > 0 && cx + k < grid.regions_x {
                    visit(id(cx + k, ry));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference_neighbors(lattice: &Lattice, hood: &Neighborhood, center: Site) -> Vec<u32> {
        hood.around(center)
            .filter(|s| lattice.contains(*s))
            .map(|s| lattice.index(s) as u32)
            .collect()
    }

    #[test]
    fn matches_reports_staleness() {
        let lat = Lattice::new(6);
        let table = NeighborTable::for_radius(&lat, 2.0);
        assert!(table.matches(&lat, 2.0));
        assert!(!table.matches(&lat, 2.5));
        assert!(!table.matches(&Lattice::new(7), 2.0));
        assert_eq!(table.num_sites(), 36);
    }

    #[test]
    fn interior_degree_matches_disc_size() {
        let lat = Lattice::new(9);
        for r in [1.0, std::f64::consts::SQRT_2, 2.0, 2.5] {
            let hood = Neighborhood::new(r);
            let table = NeighborTable::build(&lat, &hood);
            let center = lat.index(Site::new(4, 4));
            assert_eq!(table.neighbors(center).len(), hood.len(), "r = {r}");
        }
    }

    #[test]
    fn zoned_tables_skip_lane_rows() {
        let lat = Lattice::zoned(9, 2, 1).unwrap();
        let table = NeighborTable::for_radius(&lat, 2.0);
        for idx in 0..table.num_sites() {
            for &n in table.neighbors(idx) {
                let site = lat.site(n as usize);
                assert!(lat.is_trap_row(site.y), "lane site {site} in table");
            }
        }
    }

    #[test]
    fn region_partition_covers_every_site_once() {
        for lat in [Lattice::new(10), Lattice::zoned(9, 2, 1).unwrap()] {
            let grid = RegionGrid::new(&lat, 4);
            let (rx, ry) = grid.dims();
            let mut seen = vec![false; lat.num_sites()];
            for region in 0..(rx * ry) as usize {
                let (xs, ys) = grid.cells(region);
                for y in ys {
                    for x in xs.clone() {
                        let s = Site::new(x, y);
                        if !lat.contains(s) {
                            continue;
                        }
                        assert_eq!(grid.region_of(s), region);
                        assert!(!seen[lat.index(s)], "site {s} in two regions");
                        seen[lat.index(s)] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&b| b), "every site in a region");
        }
    }

    #[test]
    fn small_lattices_collapse_to_one_region() {
        assert_eq!(RegionGrid::new(&Lattice::new(6), 8).dims(), (1, 1));
    }

    #[test]
    fn mega_lattice_resolves_to_a_coarse_graph() {
        assert_eq!(RegionGrid::new(&Lattice::new(100), 8).dims(), (13, 13));
    }

    #[test]
    fn zoned_grid_stops_at_the_last_trap_row() {
        // One trap row per two lanes in a 17-row box: row 16 is a lane,
        // so the last trap row is 15 and the grid stops at region row 1.
        let zoned = Lattice::zoned(17, 1, 2).unwrap();
        assert!(!zoned.is_trap_row(16));
        assert_eq!(RegionGrid::new(&zoned, 8).dims(), (3, 2));
        // A zero side is treated as 1.
        assert_eq!(RegionGrid::new(&Lattice::new(3), 0).dims(), (3, 3));
    }

    #[test]
    fn ring_walk_partitions_the_grid_by_chebyshev_distance() {
        // A 5×4 region grid at side 1.
        let grid = RegionGrid::new(&Lattice::zoned(5, 4, 1).unwrap(), 1);
        assert_eq!(grid.dims(), (5, 4));
        for (cx, cy) in [(0u32, 0u32), (2, 1), (4, 3), (1, 3)] {
            let mut seen = vec![0u32; 20];
            for ring in grid.rings(f64::from(cx), f64::from(cy)) {
                ring.for_each_region(|region| {
                    let (x, y) = (region as u32 % 5, region as u32 / 5);
                    assert_eq!(
                        x.abs_diff(cx).max(y.abs_diff(cy)),
                        ring.k(),
                        "ring {} visited ({x},{y}) from ({cx},{cy})",
                        ring.k()
                    );
                    seen[region] += 1;
                });
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "rings must cover every region exactly once: {seen:?}"
            );
        }
        // Points outside the box clamp to the nearest region.
        let first = grid.rings(-3.0, 99.0).next().unwrap();
        let mut center = Vec::new();
        first.for_each_region(|r| center.push(r));
        assert_eq!(center, [15]);
    }

    #[test]
    fn ring_min_cells_lower_bounds_site_distance() {
        // Any site in a ring-k region is at least ring_min_cells away
        // (Chebyshev, hence Euclidean) from any point of the center
        // region.
        let grid = RegionGrid::new(&Lattice::new(40), 8);
        assert_eq!(grid.ring_min_cells(0), 0);
        assert_eq!(grid.ring_min_cells(1), 1);
        assert_eq!(grid.ring_min_cells(2), 9);
        assert_eq!(grid.ring_min_cells(3), 17);
    }

    proptest! {
        /// CSR slices equal the geometric enumeration — same sites, same
        /// nearest-first order — on square lattices.
        #[test]
        fn csr_equals_hood_around_square(side in 2u32..12, r in 0.5f64..4.0) {
            let lat = Lattice::new(side);
            let hood = Neighborhood::new(r);
            let table = NeighborTable::build(&lat, &hood);
            prop_assert_eq!(table.num_sites(), lat.num_sites());
            for idx in 0..lat.num_sites() {
                let expect = reference_neighbors(&lat, &hood, lat.site(idx));
                prop_assert_eq!(table.neighbors(idx), expect.as_slice());
            }
        }

        /// Same equivalence over zoned (banded) lattices, where the
        /// geometric path additionally filters lane rows.
        #[test]
        fn csr_equals_hood_around_zoned(side in 3u32..12, zone in 1u32..4,
                                        gap in 1u32..3, r in 0.5f64..4.0) {
            let lat = Lattice::zoned(side, zone, gap).unwrap();
            let hood = Neighborhood::new(r);
            let table = NeighborTable::build(&lat, &hood);
            prop_assert_eq!(table.num_sites(), lat.num_sites());
            for idx in 0..lat.num_sites() {
                let expect = reference_neighbors(&lat, &hood, lat.site(idx));
                prop_assert_eq!(table.neighbors(idx), expect.as_slice());
            }
        }

        /// Every listed edge really lies within the radius, and edges
        /// are symmetric (the interaction graph is undirected).
        #[test]
        fn csr_edges_within_radius_and_symmetric(side in 2u32..10, r in 0.5f64..3.5) {
            let lat = Lattice::new(side);
            let table = NeighborTable::for_radius(&lat, r);
            for idx in 0..lat.num_sites() {
                let here = lat.site(idx);
                for &n in table.neighbors(idx) {
                    prop_assert!(here.within(lat.site(n as usize), r));
                    prop_assert!(table.neighbors(n as usize).contains(&(idx as u32)));
                }
            }
        }
    }
}
