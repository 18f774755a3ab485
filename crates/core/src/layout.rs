//! Initial layout strategies.
//!
//! The paper evaluates with the trivial identity layout
//! (`q_i ↔ Q_i ↔ C_i`, §4.1) and leaves layout optimization as future
//! work; this module provides the identity plus two useful alternatives
//! so the effect of the initial placement can be studied (ablation A4,
//! `cargo run -p na-bench --release --bin ablation -- layout`).

use na_arch::{Lattice, Site};
use serde::{Deserialize, Serialize};

/// How atoms (and therefore circuit qubits, which start on atom `i`) are
/// placed on the lattice before routing begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub enum InitialLayout {
    /// Row-major identity placement: atom `i` on site index `i` (the
    /// paper's setting).
    #[default]
    Identity,
    /// Atoms packed around the lattice center, nearest sites first.
    /// Reduces boundary effects: early routing happens in a region with
    /// full vicinities.
    CenterCompact,
    /// Seeded random placement (for robustness experiments).
    Random(u64),
}

impl InitialLayout {
    /// The site of atom `i` for each `i < num_atoms`.
    ///
    /// # Panics
    ///
    /// Panics if `num_atoms` exceeds the lattice size.
    pub fn place(&self, lattice: &Lattice, num_atoms: u32) -> Vec<Site> {
        let total = lattice.num_sites();
        assert!(
            (num_atoms as usize) <= total,
            "cannot place {num_atoms} atoms on {total} sites"
        );
        match self {
            InitialLayout::Identity => (0..num_atoms as usize).map(|i| lattice.site(i)).collect(),
            InitialLayout::CenterCompact => {
                let c = (f64::from(lattice.side()) - 1.0) / 2.0;
                let mut sites: Vec<Site> = lattice.iter().collect();
                sites.sort_by(|a, b| {
                    let da = (f64::from(a.x) - c).powi(2) + (f64::from(a.y) - c).powi(2);
                    let db = (f64::from(b.x) - c).powi(2) + (f64::from(b.y) - c).powi(2);
                    da.partial_cmp(&db).expect("finite").then(a.cmp(b))
                });
                sites.truncate(num_atoms as usize);
                sites
            }
            InitialLayout::Random(seed) => {
                // Deterministic Fisher-Yates driven by a splitmix64 stream
                // (keeps `na-mapper` free of a rand dependency).
                let mut sites: Vec<Site> = lattice.iter().collect();
                let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut next = || {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^ (z >> 31)
                };
                for i in (1..sites.len()).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    sites.swap(i, j);
                }
                sites.truncate(num_atoms as usize);
                sites
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_row_major() {
        let lattice = Lattice::new(4);
        let sites = InitialLayout::Identity.place(&lattice, 6);
        assert_eq!(sites[0], Site::new(0, 0));
        assert_eq!(sites[5], Site::new(1, 1));
    }

    #[test]
    fn center_compact_starts_at_center() {
        let lattice = Lattice::new(5);
        let sites = InitialLayout::CenterCompact.place(&lattice, 5);
        assert_eq!(sites[0], Site::new(2, 2));
        // All early sites adjacent to the center.
        for s in &sites[1..] {
            assert!(s.distance(Site::new(2, 2)) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn placements_are_disjoint_and_in_bounds() {
        let lattice = Lattice::new(6);
        for layout in [
            InitialLayout::Identity,
            InitialLayout::CenterCompact,
            InitialLayout::Random(42),
        ] {
            let sites = layout.place(&lattice, 30);
            assert_eq!(sites.len(), 30);
            let mut dedup = sites.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), 30, "{layout:?} produced duplicates");
            for s in sites {
                assert!(lattice.contains(s));
            }
        }
    }

    #[test]
    fn random_layout_deterministic_per_seed() {
        let lattice = Lattice::new(6);
        let a = InitialLayout::Random(7).place(&lattice, 20);
        let b = InitialLayout::Random(7).place(&lattice, 20);
        let c = InitialLayout::Random(8).place(&lattice, 20);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn too_many_atoms_panics() {
        InitialLayout::Identity.place(&Lattice::new(3), 10);
    }
}
