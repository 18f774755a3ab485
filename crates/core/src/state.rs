//! Mapping state: the two assignments `f_q` (qubit → atom) and `f_a`
//! (atom → site) plus fast occupancy lookups.
//!
//! Gate-based routing permutes `f_q` via [`MappingState::apply_swap`];
//! shuttling-based routing permutes `f_a` via [`MappingState::apply_move`]
//! (paper §2.2 and Example 4).

use na_arch::{HardwareParams, Lattice, RegionGrid, Site};
use na_circuit::Qubit;

use crate::error::MapError;
use crate::layout::InitialLayout;
use crate::ops::AtomId;

/// The joint qubit/atom mapping maintained during routing.
///
/// Invariants (checked in debug builds and by
/// [`MappingState::check_invariants`]):
///
/// * every atom occupies exactly one in-bounds site; no two atoms share a
///   site,
/// * `atom_of_qubit` and `qubit_of_atom` are mutually inverse on assigned
///   atoms.
///
/// # Example
///
/// ```
/// use na_arch::HardwareParams;
/// use na_circuit::Qubit;
/// use na_mapper::MappingState;
///
/// let params = HardwareParams::mixed()
///     .to_builder()
///     .lattice(4, 3.0)
///     .num_atoms(8)
///     .build()?;
/// let state = MappingState::identity(&params, 6)?;
/// // Identity layout: qubit i on atom i at site index i.
/// assert_eq!(state.site_of_qubit(Qubit(5)).x, 1);
/// assert_eq!(state.site_of_qubit(Qubit(5)).y, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MappingState {
    lattice: Lattice,
    site_of_atom: Vec<Site>,
    atom_at_site: Vec<Option<AtomId>>,
    qubit_of_atom: Vec<Option<Qubit>>,
    atom_of_qubit: Vec<AtomId>,
    /// The coarse regions (at [`RegionGrid::DEFAULT_SIDE`]) the
    /// occupancy buckets below are filed under.
    grid: RegionGrid,
    /// Per region: dense indices of the free sites inside it, in no
    /// particular order — the state's one free-site index. Lets
    /// proximity queries walk outward region ring by region ring instead
    /// of scanning every free site: on a 100×100 lattice with thousands
    /// of atoms, a full scan is four orders of magnitude more work than
    /// the two or three rings a typical query touches.
    free_by_region: Vec<Vec<u32>>,
    /// Per site: slot inside its region's `free_by_region` bucket, or
    /// `u32::MAX` when occupied.
    free_slot: Vec<u32>,
    /// Per region: the atoms currently sitting inside it, in no
    /// particular order — the same ring-walk accelerator for anchor
    /// scans over atoms.
    atoms_by_region: Vec<Vec<u32>>,
    /// Per atom: slot inside its region's `atoms_by_region` bucket.
    atom_region_slot: Vec<u32>,
    /// Process-unique stamp of this state's occupancy configuration:
    /// refreshed on construction, clone, and every shuttle move — but
    /// not by SWAPs, which permute `f_q` only. Two states never share a
    /// stamp, so cached distance fields over the occupied graph (see
    /// [`crate::route::DistanceCache`]) are valid exactly while the
    /// stamp they were computed at is still current.
    occupancy_stamp: u64,
}

/// Source of process-unique occupancy stamps (0 is never issued, so a
/// cache can use it as "nothing cached yet").
fn next_occupancy_stamp() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Removes the entry at `slot` of an unordered bucket by moving the
/// bucket's last entry into its place, and records that entry's new
/// slot in `slots`.
fn swap_remove_slot(bucket: &mut Vec<u32>, slots: &mut [u32], slot: usize) {
    let last = bucket.pop().expect("bucket non-empty");
    if slot < bucket.len() {
        bucket[slot] = last;
        slots[last as usize] = slot as u32;
    }
}

/// One recorded mutation of a [`MappingState`], enough for exact revert.
#[derive(Debug, Clone, Copy)]
enum JournalEntry {
    /// A qubit exchange (its own inverse).
    Swap { a: AtomId, b: AtomId },
    /// A shuttle move: where the atom came from, and the occupancy stamp
    /// the state carried *before* the move — restored verbatim on undo so
    /// distance fields cached against the pre-move occupancy become valid
    /// again the moment the move is reverted.
    Move {
        atom: AtomId,
        from: Site,
        stamp_before: u64,
    },
}

/// Position in a [`StateJournal`], as returned by [`StateJournal::mark`]
/// and consumed by [`MappingState::undo_to`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JournalMark(usize);

/// An apply/undo log of [`MappingState`] mutations.
///
/// Routers speculate candidate routing operations **in place** on the
/// live state — [`MappingState::apply_swap_journaled`] /
/// [`MappingState::apply_move_journaled`] record each mutation here, and
/// [`MappingState::undo_to`] reverts to any earlier [`JournalMark`]
/// exactly: positions, the qubit map, *and* the occupancy stamp.
///
/// # Stamp semantics
///
/// Speculative moves mint fresh process-unique stamps (the same
/// generator as committed moves), so a speculatively modified occupancy
/// can never alias the committed one — or any other state — in a stamp-
/// keyed distance cache. Undo restores the exact pre-move stamp, so
/// every field cached against the committed occupancy is valid again
/// once the speculation is rolled back: candidate evaluation no longer
/// costs the cache anything.
///
/// The journal is plain storage and can be reused across rounds
/// (rolling back to [`JournalMark`] 0 leaves an empty journal with its
/// capacity intact).
#[derive(Debug, Clone, Default)]
pub struct StateJournal {
    entries: Vec<JournalEntry>,
}

impl StateJournal {
    /// An empty journal.
    pub fn new() -> Self {
        StateJournal::default()
    }

    /// The current position; pass to [`MappingState::undo_to`] to revert
    /// everything recorded after this point.
    #[inline]
    pub fn mark(&self) -> JournalMark {
        JournalMark(self.entries.len())
    }

    /// Number of recorded, not-yet-undone mutations.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is recorded — i.e. no speculation is in
    /// flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Clone for MappingState {
    /// Clones receive a fresh stamp: they start occupancy-identical but
    /// diverge independently, so sharing the original's stamp could
    /// alias cached distance fields across states.
    fn clone(&self) -> Self {
        MappingState {
            lattice: self.lattice,
            site_of_atom: self.site_of_atom.clone(),
            atom_at_site: self.atom_at_site.clone(),
            qubit_of_atom: self.qubit_of_atom.clone(),
            atom_of_qubit: self.atom_of_qubit.clone(),
            grid: self.grid,
            free_by_region: self.free_by_region.clone(),
            free_slot: self.free_slot.clone(),
            atoms_by_region: self.atoms_by_region.clone(),
            atom_region_slot: self.atom_region_slot.clone(),
            occupancy_stamp: next_occupancy_stamp(),
        }
    }
}

impl PartialEq for MappingState {
    /// Equality of the physical configuration; the occupancy stamp is a
    /// cache-invalidation token, not part of the state.
    fn eq(&self, other: &Self) -> bool {
        self.lattice == other.lattice
            && self.site_of_atom == other.site_of_atom
            && self.atom_at_site == other.atom_at_site
            && self.qubit_of_atom == other.qubit_of_atom
            && self.atom_of_qubit == other.atom_of_qubit
    }
}

impl MappingState {
    /// Builds the trivial identity layout of the paper's §4.1:
    /// `q_i ↔ Q_i ↔ C_i` with the remaining atoms parked on the next
    /// sites in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::CircuitTooWide`] if `num_qubits` exceeds the
    /// atom count, and propagates architecture validation errors.
    pub fn identity(params: &HardwareParams, num_qubits: u32) -> Result<Self, MapError> {
        MappingState::with_layout(params, num_qubits, InitialLayout::Identity)
    }

    /// Builds a mapping state with an explicit [`InitialLayout`] on the
    /// full square lattice of `params`: atom `i` sits on
    /// `layout.place(..)[i]`, circuit qubit `i` starts on atom `i`.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::CircuitTooWide`] if `num_qubits` exceeds the
    /// atom count, and propagates architecture validation errors.
    pub fn with_layout(
        params: &HardwareParams,
        num_qubits: u32,
        layout: InitialLayout,
    ) -> Result<Self, MapError> {
        params.validate()?;
        MappingState::on_lattice(
            params,
            Lattice::new(params.lattice_side),
            num_qubits,
            layout,
        )
    }

    /// Builds a mapping state on an explicit trap topology — the
    /// target-aware constructor used when the lattice is not the full
    /// square grid of `params` (e.g. a zoned storage/interaction
    /// layout).
    ///
    /// # Errors
    ///
    /// Returns [`MapError::CircuitTooWide`] if `num_qubits` exceeds the
    /// atom count, and [`MapError::Arch`] with
    /// [`na_arch::ArchError::TooManyAtoms`] when the topology holds
    /// fewer than `num_atoms + 1` traps.
    pub fn on_lattice(
        params: &HardwareParams,
        lattice: Lattice,
        num_qubits: u32,
        layout: InitialLayout,
    ) -> Result<Self, MapError> {
        if num_qubits > params.num_atoms {
            return Err(MapError::CircuitTooWide {
                circuit_qubits: num_qubits,
                atoms: params.num_atoms,
            });
        }
        if params.num_atoms as usize >= lattice.num_sites() {
            return Err(MapError::Arch(na_arch::ArchError::TooManyAtoms {
                atoms: params.num_atoms,
                sites: lattice.num_sites() as u32,
            }));
        }
        let num_atoms = params.num_atoms as usize;
        let site_of_atom = layout.place(&lattice, params.num_atoms);
        let mut atom_at_site = vec![None; lattice.num_sites()];
        for (a, site) in site_of_atom.iter().enumerate() {
            atom_at_site[lattice.index(*site)] = Some(AtomId(a as u32));
        }
        let qubit_of_atom = (0..num_atoms)
            .map(|a| {
                if (a as u32) < num_qubits {
                    Some(Qubit(a as u32))
                } else {
                    None
                }
            })
            .collect();
        let atom_of_qubit = (0..num_qubits).map(AtomId).collect();
        let grid = RegionGrid::new(&lattice, RegionGrid::DEFAULT_SIDE);
        let (regions_x, regions_y) = grid.dims();
        let num_regions = (regions_x * regions_y) as usize;
        let mut free_by_region = vec![Vec::new(); num_regions];
        let mut free_slot = vec![u32::MAX; lattice.num_sites()];
        for (idx, occupant) in atom_at_site.iter().enumerate() {
            if occupant.is_none() {
                let r = grid.region_of(lattice.site(idx));
                free_slot[idx] = free_by_region[r].len() as u32;
                free_by_region[r].push(idx as u32);
            }
        }
        let mut atoms_by_region = vec![Vec::new(); num_regions];
        let mut atom_region_slot = vec![u32::MAX; num_atoms];
        for (a, site) in site_of_atom.iter().enumerate() {
            let r = grid.region_of(*site);
            atom_region_slot[a] = atoms_by_region[r].len() as u32;
            atoms_by_region[r].push(a as u32);
        }
        Ok(MappingState {
            lattice,
            site_of_atom,
            atom_at_site,
            qubit_of_atom,
            atom_of_qubit,
            grid,
            free_by_region,
            free_slot,
            atoms_by_region,
            atom_region_slot,
            occupancy_stamp: next_occupancy_stamp(),
        })
    }

    /// Process-unique stamp of this state's occupancy configuration
    /// (`f_a`): refreshed by [`MappingState::apply_move`] (and on
    /// construction/clone), untouched by [`MappingState::apply_swap`].
    /// Cached distance fields over the occupied graph are valid exactly
    /// while this value is unchanged; never zero.
    #[inline]
    pub fn occupancy_stamp(&self) -> u64 {
        self.occupancy_stamp
    }

    /// The underlying lattice.
    #[inline]
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Number of atoms.
    #[inline]
    pub fn num_atoms(&self) -> usize {
        self.site_of_atom.len()
    }

    /// Number of mapped circuit qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.atom_of_qubit.len()
    }

    /// The atom currently carrying circuit qubit `q`.
    #[inline]
    pub fn atom_of_qubit(&self, q: Qubit) -> AtomId {
        self.atom_of_qubit[q.index()]
    }

    /// The circuit qubit carried by `atom`, if any.
    #[inline]
    pub fn qubit_of_atom(&self, atom: AtomId) -> Option<Qubit> {
        self.qubit_of_atom[atom.index()]
    }

    /// The trap site of `atom`.
    #[inline]
    pub fn site_of_atom(&self, atom: AtomId) -> Site {
        self.site_of_atom[atom.index()]
    }

    /// The trap site of the atom carrying qubit `q`.
    #[inline]
    pub fn site_of_qubit(&self, q: Qubit) -> Site {
        self.site_of_atom(self.atom_of_qubit(q))
    }

    /// The atom trapped at `site`, if any.
    #[inline]
    pub fn atom_at_site(&self, site: Site) -> Option<AtomId> {
        self.atom_at_site[self.lattice.index(site)]
    }

    /// The atom trapped at dense site index `idx`, if any — the CSR
    /// companion of [`MappingState::atom_at_site`] for callers iterating
    /// a [`na_arch::NeighborTable`] (no coordinate → index conversion).
    #[inline]
    pub fn atom_at_site_index(&self, idx: usize) -> Option<AtomId> {
        self.atom_at_site[idx]
    }

    /// Returns `true` if `site` holds no atom.
    #[inline]
    pub fn is_free(&self, site: Site) -> bool {
        self.atom_at_site(site).is_none()
    }

    /// Returns `true` if dense site index `idx` holds no atom.
    #[inline]
    pub fn is_free_index(&self, idx: usize) -> bool {
        self.atom_at_site[idx].is_none()
    }

    /// Moves `atom` from its site to the free site `to`: the occupancy
    /// map, the per-region free-site buckets and the per-region atom
    /// buckets flip together. Shared by [`MappingState::apply_move`] and
    /// its undo, so the indexes can never disagree.
    fn relocate(&mut self, atom: AtomId, to: Site) {
        let from = self.site_of_atom[atom.index()];
        let (from_idx, to_idx) = (self.lattice.index(from), self.lattice.index(to));
        let (from_region, to_region) = (self.grid.region_of(from), self.grid.region_of(to));
        self.atom_at_site[from_idx] = None;
        self.free_slot[from_idx] = self.free_by_region[from_region].len() as u32;
        self.free_by_region[from_region].push(from_idx as u32);
        self.atom_at_site[to_idx] = Some(atom);
        let slot = self.free_slot[to_idx] as usize;
        debug_assert_ne!(slot as u32, u32::MAX, "site already occupied");
        swap_remove_slot(
            &mut self.free_by_region[to_region],
            &mut self.free_slot,
            slot,
        );
        self.free_slot[to_idx] = u32::MAX;
        if from_region != to_region {
            let slot = self.atom_region_slot[atom.index()] as usize;
            swap_remove_slot(
                &mut self.atoms_by_region[from_region],
                &mut self.atom_region_slot,
                slot,
            );
            self.atom_region_slot[atom.index()] = self.atoms_by_region[to_region].len() as u32;
            self.atoms_by_region[to_region].push(atom.0);
        }
        self.site_of_atom[atom.index()] = to;
    }

    /// Exchanges the circuit qubits of two atoms — the effect of a SWAP
    /// gate on `f_q`. Atoms without an assigned qubit participate as
    /// `|0⟩`-state partners.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn apply_swap(&mut self, a: AtomId, b: AtomId) {
        assert_ne!(a, b, "cannot swap an atom with itself");
        let qa = self.qubit_of_atom[a.index()];
        let qb = self.qubit_of_atom[b.index()];
        self.qubit_of_atom[a.index()] = qb;
        self.qubit_of_atom[b.index()] = qa;
        if let Some(q) = qa {
            self.atom_of_qubit[q.index()] = b;
        }
        if let Some(q) = qb {
            self.atom_of_qubit[q.index()] = a;
        }
    }

    /// Moves `atom` to the free site `to` — the effect of a shuttle on
    /// `f_a`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of bounds or occupied.
    pub fn apply_move(&mut self, atom: AtomId, to: Site) {
        assert!(self.lattice.contains(to), "move target {to} out of bounds");
        assert!(self.is_free(to), "move target {to} is occupied");
        self.relocate(atom, to);
        self.occupancy_stamp = next_occupancy_stamp();
    }

    /// [`MappingState::apply_swap`] with the mutation recorded in
    /// `journal` for exact revert via [`MappingState::undo_to`].
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn apply_swap_journaled(&mut self, a: AtomId, b: AtomId, journal: &mut StateJournal) {
        journal.entries.push(JournalEntry::Swap { a, b });
        self.apply_swap(a, b);
    }

    /// [`MappingState::apply_move`] with the mutation recorded in
    /// `journal` for exact revert via [`MappingState::undo_to`].
    ///
    /// The move mints a fresh process-unique occupancy stamp (like any
    /// committed move), so the speculative occupancy never aliases the
    /// committed one in a stamp-keyed cache; undo restores the exact
    /// pre-move stamp.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of bounds or occupied.
    pub fn apply_move_journaled(&mut self, atom: AtomId, to: Site, journal: &mut StateJournal) {
        journal.entries.push(JournalEntry::Move {
            atom,
            from: self.site_of_atom[atom.index()],
            stamp_before: self.occupancy_stamp,
        });
        self.apply_move(atom, to);
    }

    /// Reverts every mutation recorded after `mark`, newest first,
    /// restoring positions, the qubit map and the occupancy stamp
    /// exactly as they were when `mark` was taken.
    ///
    /// # Panics
    ///
    /// Panics if `mark` lies beyond the journal's current length (i.e.
    /// it was taken from a different journal or already undone past).
    pub fn undo_to(&mut self, journal: &mut StateJournal, mark: JournalMark) {
        assert!(
            mark.0 <= journal.entries.len(),
            "journal mark {mark:?} beyond length {}",
            journal.entries.len()
        );
        while journal.entries.len() > mark.0 {
            match journal.entries.pop().expect("length checked") {
                JournalEntry::Swap { a, b } => self.apply_swap(a, b),
                JournalEntry::Move {
                    atom,
                    from,
                    stamp_before,
                } => {
                    self.relocate(atom, from);
                    self.occupancy_stamp = stamp_before;
                }
            }
        }
    }

    /// The coarse region grid the occupancy buckets are filed under.
    #[inline]
    pub fn region_grid(&self) -> RegionGrid {
        self.grid
    }

    /// The atoms currently inside `region` (row-major region index), in
    /// unspecified order. Kept exact by every move and its undo; lets
    /// anchor scans walk outward by region ring instead of touching all
    /// atoms.
    #[inline]
    pub fn atoms_in_region(&self, region: usize) -> &[u32] {
        &self.atoms_by_region[region]
    }

    /// The nearest free site to `from` (Euclidean, ties by site order),
    /// excluding the sites in `excluded`. Returns `None` when the lattice
    /// has no free site outside `excluded`.
    ///
    /// Walks the per-region free buckets outward ring by ring from
    /// `from`'s region and stops at the first ring whose distance lower
    /// bound ([`RegionGrid::ring_min_cells`]) strictly exceeds
    /// the best distance found — on a mega lattice a query touches a
    /// handful of regions instead of every free site. The minimum is
    /// taken under the same `(distance², site)` key the old full scans
    /// used, and the stop condition is strict (a ring is still scanned
    /// when its bound ties the incumbent), so the winner is identical.
    pub fn nearest_free_site(&self, from: Site, excluded: &[Site]) -> Option<Site> {
        let mut best: Option<(i64, Site)> = None;
        for ring in self.grid.rings(f64::from(from.x), f64::from(from.y)) {
            if let Some((best_d2, _)) = best {
                let lb = i64::from(ring.min_cells());
                if lb * lb > best_d2 {
                    break;
                }
            }
            ring.for_each_region(|region| {
                for &idx in &self.free_by_region[region] {
                    let s = self.lattice.site(idx as usize);
                    if excluded.contains(&s) {
                        continue;
                    }
                    let key = (from.distance_sq(s), s);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            });
        }
        best.map(|(_, s)| s)
    }

    /// Returns `true` if all listed qubits sit on sites that are pairwise
    /// within `r_int` — the gate executability condition.
    ///
    /// The `r²` bound is hoisted out of the pair loop
    /// ([`Site::within_threshold_sq`]), so each pair costs one exact
    /// integer compare — decision-identical to the per-pair
    /// [`Site::within`] float check it replaces.
    pub fn qubits_mutually_connected(&self, qubits: &[Qubit], r_int: f64) -> bool {
        let r_sq = Site::within_threshold_sq(r_int);
        for (i, &a) in qubits.iter().enumerate() {
            let sa = self.site_of_qubit(a);
            for &b in &qubits[i + 1..] {
                if sa.distance_sq(self.site_of_qubit(b)) > r_sq {
                    return false;
                }
            }
        }
        true
    }

    /// Validates the mutual-inverse and occupancy invariants.
    ///
    /// Intended for tests and debug assertions; the public mutators
    /// preserve these invariants.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = vec![false; self.lattice.num_sites()];
        for (a, site) in self.site_of_atom.iter().enumerate() {
            if !self.lattice.contains(*site) {
                return Err(format!("atom {a} at out-of-bounds site {site}"));
            }
            let idx = self.lattice.index(*site);
            if seen[idx] {
                return Err(format!("two atoms share site {site}"));
            }
            seen[idx] = true;
            if self.atom_at_site[idx] != Some(AtomId(a as u32)) {
                return Err(format!("occupancy map out of sync at {site}"));
            }
        }
        let occupied = self.atom_at_site.iter().flatten().count();
        if occupied != self.num_atoms() {
            return Err(format!(
                "occupancy map lists {occupied} atoms, expected {}",
                self.num_atoms()
            ));
        }
        for (qi, atom) in self.atom_of_qubit.iter().enumerate() {
            if self.qubit_of_atom[atom.index()] != Some(Qubit(qi as u32)) {
                return Err(format!("qubit {qi} and atom {atom} maps out of sync"));
            }
        }
        let free = self.lattice.num_sites() - self.num_atoms();
        let bucketed_free: usize = self.free_by_region.iter().map(Vec::len).sum();
        if bucketed_free != free {
            return Err(format!(
                "region free buckets hold {bucketed_free} sites, expected {free}"
            ));
        }
        for (region, bucket) in self.free_by_region.iter().enumerate() {
            for (slot, &idx) in bucket.iter().enumerate() {
                if self.grid.region_of(self.lattice.site(idx as usize)) != region {
                    return Err(format!("site {idx} filed in wrong region {region}"));
                }
                if self.atom_at_site[idx as usize].is_some() {
                    return Err(format!("region free bucket entry {idx} is occupied"));
                }
                if self.free_slot[idx as usize] != slot as u32 {
                    return Err(format!("region free slot of site {idx} out of sync"));
                }
            }
        }
        let bucketed_atoms: usize = self.atoms_by_region.iter().map(Vec::len).sum();
        if bucketed_atoms != self.num_atoms() {
            return Err(format!(
                "region atom buckets hold {bucketed_atoms} atoms, expected {}",
                self.num_atoms()
            ));
        }
        for (region, bucket) in self.atoms_by_region.iter().enumerate() {
            for (slot, &a) in bucket.iter().enumerate() {
                if self.grid.region_of(self.site_of_atom[a as usize]) != region {
                    return Err(format!("atom {a} filed in wrong region {region}"));
                }
                if self.atom_region_slot[a as usize] != slot as u32 {
                    return Err(format!("region slot of atom {a} out of sync"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_params() -> HardwareParams {
        HardwareParams::mixed()
            .to_builder()
            .lattice(4, 3.0)
            .num_atoms(10)
            .build()
            .expect("valid")
    }

    fn state() -> MappingState {
        MappingState::identity(&small_params(), 6).expect("fits")
    }

    #[test]
    fn identity_layout_matches_paper() {
        let s = state();
        for i in 0..6u32 {
            assert_eq!(s.atom_of_qubit(Qubit(i)), AtomId(i));
            assert_eq!(s.site_of_atom(AtomId(i)), s.lattice().site(i as usize));
        }
        // Unassigned atoms park after the qubit-carrying ones.
        assert_eq!(s.qubit_of_atom(AtomId(7)), None);
        s.check_invariants().unwrap();
    }

    #[test]
    fn too_wide_circuit_rejected() {
        let err = MappingState::identity(&small_params(), 11).unwrap_err();
        assert!(matches!(err, MapError::CircuitTooWide { .. }));
    }

    #[test]
    fn zoned_lattice_state_places_on_trap_rows_only() {
        // 6x6 bounding box, bands of 2 rows + 1 lane: 24 traps.
        let p = HardwareParams::mixed()
            .to_builder()
            .lattice(6, 3.0)
            .num_atoms(10)
            .build()
            .expect("valid");
        let lattice = Lattice::zoned(6, 2, 1).expect("valid");
        let s = MappingState::on_lattice(&p, lattice, 6, InitialLayout::Identity).expect("fits");
        for a in 0..10 {
            let site = s.site_of_atom(AtomId(a));
            assert!(lattice.contains(site));
            assert!(lattice.is_trap_row(site.y));
        }
        s.check_invariants().unwrap();
        // Identity layout skips the lane row: atom 12 would sit on row 3,
        // and atoms 6..10 sit on row 1 (row 2 is a lane).
        assert_eq!(s.site_of_atom(AtomId(6)), Site::new(0, 1));
    }

    #[test]
    fn zoned_lattice_rejects_overfull_atom_count() {
        // 4x4 box zoned 1+1 → 8 traps < 10 atoms.
        let p = small_params();
        let lattice = Lattice::zoned(4, 1, 1).expect("valid");
        let err = MappingState::on_lattice(&p, lattice, 6, InitialLayout::Identity).unwrap_err();
        assert!(matches!(
            err,
            MapError::Arch(na_arch::ArchError::TooManyAtoms { sites: 8, .. })
        ));
    }

    #[test]
    fn exactly_full_lattice_rejected_before_capacity_math() {
        // 4x4 box zoned 1+1 → exactly 8 traps for 8 atoms. The `>=`
        // guard must reject this as TooManyAtoms: an exactly-full
        // register leaves shuttling nowhere to go, so it is a typed
        // error, not a degenerate success.
        let p = HardwareParams::mixed()
            .to_builder()
            .lattice(4, 3.0)
            .num_atoms(8)
            .build()
            .expect("valid");
        let lattice = Lattice::zoned(4, 1, 1).expect("valid");
        let err = MappingState::on_lattice(&p, lattice, 4, InitialLayout::Identity).unwrap_err();
        assert!(matches!(
            err,
            MapError::Arch(na_arch::ArchError::TooManyAtoms { atoms: 8, sites: 8 })
        ));
    }

    #[test]
    fn oversubscribed_lattice_rejected_with_typed_error() {
        // 15 atoms on 8 traps: the same guard catches the `>` case, so
        // the free count `num_sites - num_atoms` can never underflow.
        let p = HardwareParams::mixed()
            .to_builder()
            .lattice(4, 3.0)
            .num_atoms(15)
            .build()
            .expect("valid");
        let lattice = Lattice::zoned(4, 1, 1).expect("valid");
        let err = MappingState::on_lattice(&p, lattice, 4, InitialLayout::Identity).unwrap_err();
        assert!(matches!(
            err,
            MapError::Arch(na_arch::ArchError::TooManyAtoms {
                atoms: 15,
                sites: 8
            })
        ));
    }

    #[test]
    fn swap_exchanges_qubits_not_sites() {
        let mut s = state();
        let (a, b) = (AtomId(0), AtomId(1));
        let (sa, sb) = (s.site_of_atom(a), s.site_of_atom(b));
        s.apply_swap(a, b);
        assert_eq!(s.site_of_atom(a), sa);
        assert_eq!(s.site_of_atom(b), sb);
        assert_eq!(s.qubit_of_atom(a), Some(Qubit(1)));
        assert_eq!(s.qubit_of_atom(b), Some(Qubit(0)));
        assert_eq!(s.atom_of_qubit(Qubit(0)), b);
        s.check_invariants().unwrap();
    }

    #[test]
    fn swap_with_unassigned_atom() {
        let mut s = state();
        s.apply_swap(AtomId(0), AtomId(9));
        assert_eq!(s.qubit_of_atom(AtomId(0)), None);
        assert_eq!(s.qubit_of_atom(AtomId(9)), Some(Qubit(0)));
        s.check_invariants().unwrap();
    }

    #[test]
    fn move_changes_site_not_qubit() {
        let mut s = state();
        let target = Site::new(3, 3); // free in the 4x4 lattice with 10 atoms
        assert!(s.is_free(target));
        s.apply_move(AtomId(2), target);
        assert_eq!(s.site_of_atom(AtomId(2)), target);
        assert_eq!(s.qubit_of_atom(AtomId(2)), Some(Qubit(2)));
        assert_eq!(s.atom_at_site(target), Some(AtomId(2)));
        s.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn move_to_occupied_site_panics() {
        let mut s = state();
        s.apply_move(AtomId(0), s.site_of_atom(AtomId(1)));
    }

    /// Example 4 of the paper: shuttling modifies connectivity without
    /// touching the qubit assignment.
    #[test]
    fn example4_shuttle_changes_connectivity() {
        let mut s = state();
        let q2 = Qubit(2);
        let q5 = Qubit(5);
        // q2 at (2,0), q5 at (1,1): distance √2 > r_int for r_int = 1.
        assert!(!s.qubits_mutually_connected(&[q2, q5], 1.0));
        s.apply_move(s.atom_of_qubit(q2), Site::new(2, 2));
        s.apply_move(s.atom_of_qubit(q5), Site::new(2, 3));
        assert!(s.qubits_mutually_connected(&[q2, q5], 1.0));
    }

    #[test]
    fn nearest_free_site_respects_exclusions() {
        let s = state();
        // Free sites: indices 10..16 => (2,2),(3,2),(0,3),(1,3),(2,3),(3,3)
        let from = Site::new(2, 1);
        let nearest = s.nearest_free_site(from, &[]).unwrap();
        assert_eq!(nearest, Site::new(2, 2));
        let second = s.nearest_free_site(from, &[nearest]).unwrap();
        assert_eq!(second, Site::new(3, 2));
    }

    /// Asserts that the ring walk returns exactly what a scan over every
    /// free site under the same `(distance², site)` key would.
    fn assert_nearest_free_matches_exhaustive_scan(s: &MappingState, froms: &[Site]) {
        let excluded = [Site::new(0, 18), Site::new(1, 18)];
        for &from in froms {
            let reference = (0..s.lattice().num_sites())
                .filter(|&idx| s.is_free_index(idx))
                .map(|idx| s.lattice().site(idx))
                .filter(|site| !excluded.contains(site))
                .min_by_key(|site| (from.distance_sq(*site), *site));
            assert_eq!(s.nearest_free_site(from, &excluded), reference, "{from}");
        }
    }

    #[test]
    fn ring_walk_nearest_free_matches_exhaustive_scan_on_mega_lattice() {
        // 40x40 lattice (5x5 regions at side 8), sparsely occupied.
        let p = HardwareParams::mixed()
            .to_builder()
            .lattice(40, 3.0)
            .num_atoms(700)
            .build()
            .expect("valid");
        let mut s = MappingState::identity(&p, 64).expect("fits");
        // Scatter some atoms so free sites are non-contiguous.
        for (a, target) in [
            (0u32, Site::new(39, 39)),
            (1, Site::new(20, 25)),
            (2, Site::new(0, 39)),
            (3, Site::new(33, 30)),
        ] {
            s.apply_move(AtomId(a), target);
        }
        s.check_invariants().unwrap();
        assert_nearest_free_matches_exhaustive_scan(
            &s,
            &[
                Site::new(0, 0),
                Site::new(5, 17),
                Site::new(39, 0),
                Site::new(20, 20),
                Site::new(39, 39),
            ],
        );
    }

    #[test]
    fn ring_walk_nearest_free_matches_exhaustive_scan_on_zoned_lattice() {
        // 41-row box in bands of 2 trap rows + 1 lane (28 trap rows):
        // the region grid counts lane rows into its 6 region rows, and
        // every region straddles lanes.
        let p = HardwareParams::mixed()
            .to_builder()
            .lattice(41, 3.0)
            .num_atoms(700)
            .build()
            .expect("valid");
        let lattice = Lattice::zoned(41, 2, 1).expect("valid");
        assert_eq!(RegionGrid::new(&lattice, 8).dims(), (6, 6));
        let mut s =
            MappingState::on_lattice(&p, lattice, 64, InitialLayout::Identity).expect("fits");
        for (a, target) in [
            (0u32, Site::new(40, 40)),
            (1, Site::new(20, 25)),
            (2, Site::new(0, 39)),
            (3, Site::new(33, 30)),
            (4, Site::new(8, 34)),
        ] {
            s.apply_move(AtomId(a), target);
        }
        s.check_invariants().unwrap();
        assert_nearest_free_matches_exhaustive_scan(
            &s,
            &[
                Site::new(0, 0),
                Site::new(5, 16),
                Site::new(40, 0),
                Site::new(20, 19),
                Site::new(40, 40),
                Site::new(7, 34),
            ],
        );
    }

    #[test]
    fn region_buckets_track_moves_and_undo() {
        let p = HardwareParams::mixed()
            .to_builder()
            .lattice(20, 3.0)
            .num_atoms(30)
            .build()
            .expect("valid");
        let mut s = MappingState::identity(&p, 10).expect("fits");
        let reference = s.clone();
        let grid = s.region_grid();
        assert_eq!(grid, RegionGrid::new(s.lattice(), RegionGrid::DEFAULT_SIDE));
        assert_eq!(grid.dims(), (3, 3));
        // All 30 atoms start in rows 0-1 => region 0 (x<8) and 1 (x in 8..16)
        // and 2 (x >= 16).
        assert_eq!(
            s.atoms_in_region(0).len() + s.atoms_in_region(1).len() + s.atoms_in_region(2).len(),
            30
        );
        let mut j = StateJournal::new();
        let mark = j.mark();
        // Cross-region move: (row 0) -> (18, 18) = region 8.
        let target = Site::new(18, 18);
        assert_eq!(grid.region_of(target), 8);
        s.apply_move_journaled(AtomId(0), target, &mut j);
        assert!(s.atoms_in_region(8).contains(&0));
        assert!(!s.atoms_in_region(0).contains(&0));
        s.check_invariants().unwrap();
        s.undo_to(&mut j, mark);
        assert_eq!(s, reference);
        assert!(s.atoms_in_region(0).contains(&0));
        s.check_invariants().unwrap();
    }

    #[test]
    fn journaled_move_and_undo_restore_stamp_exactly() {
        let mut s = state();
        let stamp0 = s.occupancy_stamp();
        let mut j = StateJournal::new();
        let mark = j.mark();
        s.apply_move_journaled(AtomId(2), Site::new(3, 3), &mut j);
        assert_ne!(s.occupancy_stamp(), stamp0, "speculation must re-stamp");
        assert_eq!(j.len(), 1);
        s.undo_to(&mut j, mark);
        assert!(j.is_empty());
        assert_eq!(s.occupancy_stamp(), stamp0, "undo must restore the stamp");
        assert_eq!(s, state());
        s.check_invariants().unwrap();
    }

    #[test]
    fn journaled_swap_and_undo_are_involutive() {
        let mut s = state();
        let reference = state();
        let mut j = StateJournal::new();
        let mark = j.mark();
        s.apply_swap_journaled(AtomId(0), AtomId(5), &mut j);
        s.apply_swap_journaled(AtomId(5), AtomId(9), &mut j);
        assert_ne!(s, reference);
        s.undo_to(&mut j, mark);
        assert_eq!(s, reference);
        s.check_invariants().unwrap();
    }

    #[test]
    fn nested_marks_undo_partially() {
        let mut s = state();
        let mut j = StateJournal::new();
        let outer = j.mark();
        s.apply_move_journaled(AtomId(0), Site::new(3, 3), &mut j);
        let after_first = s.clone();
        let inner_stamp = s.occupancy_stamp();
        let inner = j.mark();
        s.apply_swap_journaled(AtomId(1), AtomId(2), &mut j);
        s.apply_move_journaled(AtomId(3), Site::new(2, 3), &mut j);
        s.undo_to(&mut j, inner);
        assert_eq!(s, after_first);
        assert_eq!(s.occupancy_stamp(), inner_stamp);
        s.undo_to(&mut j, outer);
        assert_eq!(s, state());
    }

    #[test]
    #[should_panic(expected = "beyond length")]
    fn stale_mark_panics() {
        let mut s = state();
        let mut j = StateJournal::new();
        s.apply_swap_journaled(AtomId(0), AtomId(1), &mut j);
        let late = j.mark();
        s.undo_to(&mut j, JournalMark(0));
        s.undo_to(&mut j, late);
    }

    proptest! {
        /// Apply → undo restores the state exactly — positions, qubit
        /// map, occupancy stamp, invariants — for arbitrary interleaved
        /// journaled swap/move sequences.
        #[test]
        fn journal_apply_undo_roundtrip(ops in proptest::collection::vec(
            (0u32..10, 0u32..10, 0i32..4, 0i32..4, proptest::bool::ANY), 0..60)
        ) {
            let mut s = state();
            let reference = s.clone();
            let stamp0 = s.occupancy_stamp();
            let mut j = StateJournal::new();
            let mark = j.mark();
            for (a, b, x, y, is_swap) in ops {
                if is_swap {
                    if a != b {
                        s.apply_swap_journaled(AtomId(a), AtomId(b), &mut j);
                    }
                } else {
                    let target = Site::new(x, y);
                    if s.is_free(target) {
                        s.apply_move_journaled(AtomId(a), target, &mut j);
                    }
                }
            }
            s.undo_to(&mut j, mark);
            prop_assert!(j.is_empty());
            prop_assert_eq!(&s, &reference);
            prop_assert_eq!(s.occupancy_stamp(), stamp0);
            prop_assert!(s.check_invariants().is_ok());
        }

        /// Random swap/move sequences preserve all invariants.
        #[test]
        fn invariants_under_random_ops(ops in proptest::collection::vec(
            (0u32..10, 0u32..10, 0i32..4, 0i32..4, proptest::bool::ANY), 0..60)
        ) {
            let mut s = state();
            for (a, b, x, y, is_swap) in ops {
                if is_swap {
                    if a != b {
                        s.apply_swap(AtomId(a), AtomId(b));
                    }
                } else {
                    let target = Site::new(x, y);
                    if s.is_free(target) {
                        s.apply_move(AtomId(a), target);
                    }
                }
                prop_assert!(s.check_invariants().is_ok());
            }
        }
    }
}
