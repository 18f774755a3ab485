//! Connectivity queries: BFS over the occupied-trap interaction graph and
//! SWAP-distance estimates.
//!
//! The connectivity graph `G = (P, E)` contains an edge between two atoms
//! whenever their Euclidean distance is at most `r_int` (paper §2.2).
//! Routing cost functions need two flavours of distance:
//!
//! * an exact hop distance through `G` (atoms only — SWAPs cannot route
//!   through empty traps), computed by [`bfs_occupied`]; used for
//!   multi-qubit position finding where feasibility matters,
//! * a fast closed-form estimate [`swap_distance`] used inside the hot
//!   cost loops: each SWAP moves a qubit by at most `r_int`, so a gate
//!   spanning Euclidean distance `d` needs about `d/r_int − 1` SWAPs.
//!   On the paper's near-full lattices (200 atoms on 225 traps) the
//!   estimate tracks the exact hop distance closely.
//!
//! These are the raw primitives; routers normally consume them through
//! the caching [`crate::route::RoutingContext`], which reuses BFS fields
//! across every round that leaves trap occupancy unchanged.
//!
//! The cached fields come from [`bfs_occupied_table_into`], which
//! expands the frontier through a precomputed [`NeighborTable`] (dense
//! neighbor slices) instead of recomputing `hood.around(s)` offset
//! geometry and bounds checks at every visit. [`bfs_occupied`] is the
//! geometric reference it is tested against.

use std::collections::VecDeque;

use na_arch::{NeighborTable, Neighborhood, Site};
use na_circuit::Qubit;

use crate::state::MappingState;

/// Hop distance marker for unreachable sites.
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS hop distances from `starts` through occupied sites, where two
/// occupied sites are adjacent when within the neighborhood radius.
///
/// Returns a dense site-indexed vector; free sites and unreachable
/// occupied sites hold [`UNREACHABLE`]. Start sites must be occupied.
pub fn bfs_occupied(state: &MappingState, starts: &[Site], hood: &Neighborhood) -> Vec<u32> {
    let lattice = state.lattice();
    let mut dist = vec![UNREACHABLE; lattice.num_sites()];
    let mut queue = VecDeque::new();
    for &s in starts {
        debug_assert!(!state.is_free(s), "BFS start {s} must be occupied");
        let idx = lattice.index(s);
        if dist[idx] != 0 {
            dist[idx] = 0;
            queue.push_back(s);
        }
    }
    while let Some(s) = queue.pop_front() {
        let d = dist[lattice.index(s)];
        for n in hood.around(s) {
            if !lattice.contains(n) || state.is_free(n) {
                continue;
            }
            let idx = lattice.index(n);
            if dist[idx] == UNREACHABLE {
                dist[idx] = d + 1;
                queue.push_back(n);
            }
        }
    }
    dist
}

/// [`bfs_occupied`] over a precomputed CSR [`NeighborTable`], writing
/// into caller-provided buffers: `dist` is resized/overwritten to one
/// entry per lattice site, `queue` holds dense site indices and is left
/// empty. Each visit expands a neighbor *slice* — no offset arithmetic,
/// no bounds check, no coordinate → index conversion per neighbor.
/// Produces the identical distance field (the table lists neighbors in
/// the disc's order, and BFS levels are order-independent). Returns the
/// number of sites settled (= reachable occupied sites, starts
/// included). This is the allocation-free primitive behind the pooled
/// [`crate::route::DistanceCache`].
pub fn bfs_occupied_table_into(
    state: &MappingState,
    starts: &[Site],
    table: &NeighborTable,
    dist: &mut Vec<u32>,
    queue: &mut VecDeque<u32>,
) -> usize {
    let lattice = state.lattice();
    dist.clear();
    dist.resize(lattice.num_sites(), UNREACHABLE);
    queue.clear();
    let mut settled = 0usize;
    for &s in starts {
        debug_assert!(!state.is_free(s), "BFS start {s} must be occupied");
        let idx = lattice.index(s);
        if dist[idx] != 0 {
            dist[idx] = 0;
            queue.push_back(idx as u32);
            settled += 1;
        }
    }
    while let Some(idx) = queue.pop_front() {
        let d = dist[idx as usize];
        for &n in table.neighbors(idx as usize) {
            let n = n as usize;
            if state.atom_at_site_index(n).is_none() || dist[n] != UNREACHABLE {
                continue;
            }
            dist[n] = d + 1;
            queue.push_back(n as u32);
            settled += 1;
        }
    }
    settled
}

/// Fractional SWAP-distance estimate between two sites: how many SWAP
/// steps (each covering at most `r_int`) separate them from
/// interaction range. Zero when already within `r_int`.
#[inline]
pub fn swap_distance(a: Site, b: Site, r_int: f64) -> f64 {
    (a.distance(b) / r_int - 1.0).max(0.0)
}

/// The largest integer squared distance at which [`swap_distance`] is
/// exactly `0.0` — determined against the original float expression
/// itself (monotone in the squared distance), so the fast path of
/// [`swap_distance_bounded`] is bit-identical by construction.
/// Compute once per cost model, not per call.
pub fn swap_zero_threshold_sq(r_int: f64) -> i64 {
    let mut d2 = (r_int * r_int).floor() as i64;
    if d2 < 0 {
        return -1;
    }
    while d2 > 0 && ((d2 as f64).sqrt() / r_int - 1.0) > 0.0 {
        d2 -= 1;
    }
    while (((d2 + 1) as f64).sqrt() / r_int - 1.0) <= 0.0 {
        d2 += 1;
    }
    d2
}

/// [`swap_distance`] with the zero-region short-circuited on an exact
/// integer compare against a precomputed [`swap_zero_threshold_sq`]:
/// in-range pairs cost one integer comparison, the sqrt only runs when
/// a real positive distance is consumed. Bit-identical results.
#[inline]
pub fn swap_distance_bounded(a: Site, b: Site, r_int: f64, zero_sq: i64) -> f64 {
    let d2 = a.distance_sq(b);
    if d2 <= zero_sq {
        0.0
    } else {
        (d2 as f64).sqrt() / r_int - 1.0
    }
}

/// Integer SWAP-count estimate (ceiling of [`swap_distance`]).
#[inline]
pub fn swap_count_estimate(a: Site, b: Site, r_int: f64) -> usize {
    swap_distance(a, b, r_int).ceil() as usize
}

/// Remaining routing distance of a gate: the sum of fractional SWAP
/// distances over all operand pairs. Zero iff the gate is executable.
pub fn gate_remaining_distance(state: &MappingState, qubits: &[Qubit], r_int: f64) -> f64 {
    let mut total = 0.0;
    for (i, &a) in qubits.iter().enumerate() {
        let sa = state.site_of_qubit(a);
        for &b in &qubits[i + 1..] {
            total += swap_distance(sa, state.site_of_qubit(b), r_int);
        }
    }
    total
}

/// [`gate_remaining_distance`] through [`swap_distance_bounded`]:
/// bit-identical values, sqrt skipped for pairs already in range.
pub fn gate_remaining_distance_bounded(
    state: &MappingState,
    qubits: &[Qubit],
    r_int: f64,
    zero_sq: i64,
) -> f64 {
    let mut total = 0.0;
    for (i, &a) in qubits.iter().enumerate() {
        let sa = state.site_of_qubit(a);
        for &b in &qubits[i + 1..] {
            total += swap_distance_bounded(sa, state.site_of_qubit(b), r_int, zero_sq);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_arch::HardwareParams;
    use proptest::prelude::*;

    fn dense_state() -> MappingState {
        let params = HardwareParams::mixed()
            .to_builder()
            .lattice(5, 3.0)
            .num_atoms(20)
            .build()
            .expect("valid");
        MappingState::identity(&params, 20).expect("fits")
    }

    #[test]
    fn bfs_distance_zero_at_start() {
        let s = dense_state();
        let hood = Neighborhood::new(1.0);
        let start = Site::new(0, 0);
        let dist = bfs_occupied(&s, &[start], &hood);
        assert_eq!(dist[s.lattice().index(start)], 0);
        assert_eq!(dist[s.lattice().index(Site::new(1, 0))], 1);
        assert_eq!(dist[s.lattice().index(Site::new(2, 2))], 4);
    }

    #[test]
    fn bfs_does_not_cross_free_sites() {
        // 5x5 lattice, 20 atoms: last row (y=4) is free.
        let s = dense_state();
        let hood = Neighborhood::new(1.0);
        let dist = bfs_occupied(&s, &[Site::new(0, 0)], &hood);
        let free = Site::new(0, 4);
        assert!(s.is_free(free));
        assert_eq!(dist[s.lattice().index(free)], UNREACHABLE);
    }

    #[test]
    fn bfs_longer_radius_shortens_paths() {
        let s = dense_state();
        let d1 = bfs_occupied(&s, &[Site::new(0, 0)], &Neighborhood::new(1.0));
        let d2 = bfs_occupied(&s, &[Site::new(0, 0)], &Neighborhood::new(2.0));
        let far = s.lattice().index(Site::new(4, 3));
        assert!(d2[far] < d1[far]);
    }

    #[test]
    fn multi_source_takes_minimum() {
        let s = dense_state();
        let hood = Neighborhood::new(1.0);
        let dist = bfs_occupied(&s, &[Site::new(0, 0), Site::new(4, 0)], &hood);
        assert_eq!(dist[s.lattice().index(Site::new(4, 1))], 1);
        assert_eq!(dist[s.lattice().index(Site::new(2, 0))], 2);
    }

    #[test]
    fn swap_distance_zero_within_range() {
        let a = Site::new(0, 0);
        assert_eq!(swap_distance(a, Site::new(2, 0), 2.0), 0.0);
        assert!(swap_distance(a, Site::new(4, 0), 2.0) > 0.0);
        assert_eq!(swap_count_estimate(a, Site::new(4, 0), 2.0), 1);
        assert_eq!(swap_count_estimate(a, Site::new(6, 0), 2.0), 2);
    }

    #[test]
    fn remaining_distance_zero_iff_executable() {
        let s = dense_state();
        let r = 2.0;
        let close = [Qubit(0), Qubit(1)];
        assert_eq!(gate_remaining_distance(&s, &close, r), 0.0);
        assert!(s.qubits_mutually_connected(&close, r));
        let far = [Qubit(0), Qubit(19)];
        assert!(gate_remaining_distance(&s, &far, r) > 0.0);
        assert!(!s.qubits_mutually_connected(&far, r));
    }

    proptest! {
        #[test]
        fn swap_distance_monotone_in_radius(x in 0i32..12, y in 0i32..12) {
            let a = Site::new(0, 0);
            let b = Site::new(x, y);
            prop_assert!(swap_distance(a, b, 2.0) >= swap_distance(a, b, 3.0));
        }

        #[test]
        fn bfs_triangle_inequality(sx in 0i32..5, sy in 0i32..4) {
            // Distances grow by at most one per BFS edge.
            let s = dense_state();
            let hood = Neighborhood::new(1.5);
            let start = Site::new(sx, sy);
            let dist = bfs_occupied(&s, &[start], &hood);
            for site in s.lattice().iter() {
                let d = dist[s.lattice().index(site)];
                if d == UNREACHABLE || d == 0 { continue; }
                let has_closer_neighbor = hood
                    .around(site)
                    .filter(|n| s.lattice().contains(*n))
                    .any(|n| dist[s.lattice().index(n)] == d - 1);
                prop_assert!(has_closer_neighbor);
            }
        }
    }
}
