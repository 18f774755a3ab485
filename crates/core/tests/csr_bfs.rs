//! Property tests for the BFS primitive of the routing hot path:
//! CSR-table BFS ≡ the geometric reference BFS (whole field), over
//! random occupancy patterns, radii and topologies, settling each
//! reachable site exactly once.

use proptest::prelude::*;

use na_arch::{HardwareParams, Lattice, NeighborTable, Neighborhood, Site};
use na_mapper::route::distance::{bfs_occupied, bfs_occupied_table_into, UNREACHABLE};
use na_mapper::{AtomId, InitialLayout, MappingState};

/// A mapping state with pseudo-random occupancy: `num_atoms` atoms on
/// `lattice`, scattered by a deterministic walk driven by `seed`.
fn scattered_state(lattice: Lattice, num_atoms: u32, seed: u64) -> MappingState {
    let params = HardwareParams::mixed()
        .to_builder()
        .lattice(lattice.side(), 3.0)
        .num_atoms(num_atoms)
        .build()
        .expect("valid");
    let mut state = MappingState::on_lattice(&params, lattice, num_atoms, InitialLayout::Identity)
        .expect("fits");
    // Deterministic scatter: move atoms to pseudo-random free sites.
    let mut rng = seed | 1;
    for a in 0..num_atoms {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let free = state.free_site_indices();
        if free.is_empty() {
            break;
        }
        let pick = free[(rng >> 33) as usize % free.len()] as usize;
        let site = state.lattice().site(pick);
        state.apply_move(AtomId(a), site);
    }
    state
        .check_invariants()
        .expect("scatter preserves invariants");
    state
}

/// Occupied sites of `state`, used as starts/targets pools.
fn occupied_sites(state: &MappingState) -> Vec<Site> {
    state
        .lattice()
        .iter()
        .filter(|s| !state.is_free(*s))
        .collect()
}

proptest! {
    /// CSR-table BFS produces the identical distance field to the
    /// geometric `hood.around` reference on random occupancy.
    #[test]
    fn csr_bfs_equals_reference(side in 4u32..10, fill in 3u32..40,
                                seed in 0u64..1000, r in 1.0f64..3.0) {
        let lattice = Lattice::new(side);
        let atoms = fill.min(lattice.num_sites() as u32 - 1);
        let state = scattered_state(lattice, atoms, seed);
        let hood = Neighborhood::new(r);
        let table = NeighborTable::build(state.lattice(), &hood);
        let occ = occupied_sites(&state);
        let start = occ[seed as usize % occ.len()];
        let reference = bfs_occupied(&state, &[start], &hood);
        let mut dist = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        let settled = bfs_occupied_table_into(&state, &[start], &table, &mut dist, &mut queue);
        prop_assert_eq!(&dist, &reference);
        prop_assert_eq!(settled, reference.iter().filter(|&&d| d != UNREACHABLE).count());
    }

    /// Same equivalence over zoned lattices (lane rows never carry
    /// atoms, so the CSR table and the geometric filter must agree).
    #[test]
    fn csr_bfs_equals_reference_zoned(side in 5u32..10, zone in 1u32..3,
                                      seed in 0u64..1000, r in 1.0f64..3.0) {
        let lattice = Lattice::zoned(side, zone, 1).expect("valid");
        let atoms = (lattice.num_sites() as u32 / 2).max(2);
        let state = scattered_state(lattice, atoms, seed);
        let hood = Neighborhood::new(r);
        let table = NeighborTable::build(state.lattice(), &hood);
        let occ = occupied_sites(&state);
        let start = occ[seed as usize % occ.len()];
        let reference = bfs_occupied(&state, &[start], &hood);
        let mut dist = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        bfs_occupied_table_into(&state, &[start], &table, &mut dist, &mut queue);
        prop_assert_eq!(&dist, &reference);
    }
}
