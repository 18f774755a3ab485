//! Shuttling-based routing: move-chain construction and the cost function
//! of the paper's Eq. (4)–(5).
//!
//! Considering every possible rearrangement is infeasible (O(N^|C|),
//! §3.1.1), so only moves that bring gate qubits *directly* into the
//! vicinity of another gate qubit are considered, in two flavours
//! (Example 5):
//!
//! * a **direct move** `M` onto an unoccupied coordinate,
//! * a **move-away combination** `(M_away, M)` that first parks the
//!   blocking atom on the nearest free coordinate.
//!
//! For each gate, chains are built around every choice of *central* gate
//! qubit (which stays put) plus a fallback anchor scan for crowded
//! regions; chains are kept minimal (bounded by `2(m − 1)` moves) on the
//! intuition that two moves are unlikely to beat one even when
//! parallelized (§3.3.2). Timing and parallelism terms come from the
//! shared [`CostModel`].
//!
//! Candidate chains are simulated **in place** on the live
//! [`MappingState`] through the [`StateJournal`] (apply → evaluate →
//! exact undo) — the former per-candidate `MappingState::clone()` is
//! gone, and because undo restores the committed occupancy stamp, the
//! shared distance cache stays warm across the whole evaluation.
//!
//! # Scaling the Eq. (4) distance terms
//!
//! The cost of a move is a *difference of layer sums*
//! (`Σ_g d_g` over frontier and lookahead gates, before vs. after).
//! Re-deriving both sums from scratch after every simulated move made
//! candidate evaluation `O(moves × gates × operands²)` with a sqrt per
//! pair — the hot path at paper scale. Chains only move atoms (they
//! never permute `f_q`), so a move can change `d_g` only for the gates
//! touching the moved atom: the router keeps per-layer value arrays
//! (`front_vals`/`la_vals`) plus a generation-stamped atom → gate
//! incidence in the scratch arena, recomputes just the touched entries,
//! and re-sums the arrays in layer order. Untouched entries hold the
//! exact f64 a recompute would produce and the summation order is the
//! old `remaining()` order, so every cost — and therefore every chosen
//! chain — is **bit-identical** to the full-sweep implementation
//! (pinned by `reference_cost_equivalence` below and the artifact
//! snapshot suite).

use std::collections::VecDeque;

use na_arch::{HardwareParams, Move, Site};
use na_circuit::Qubit;

use crate::config::MapperConfig;
use crate::decision::Capability;
use crate::ops::AtomId;
use crate::route::distance::gate_remaining_distance_bounded;
use crate::route::scratch::ShuttleBufs;
use crate::route::{
    Candidate, CostModel, FrontierGate, Proposal, Router, RoutingContext, RoutingOp,
};
use crate::state::{MappingState, StateJournal};

/// Fills `sites` so that its first `n` entries, with `n` the returned
/// count (`scan`, or every site of a smaller lattice), are the lattice
/// sites nearest to `point` in `(distance², site)` order, sorted.
///
/// Sites are gathered region ring by region ring around `point` rather
/// than from the whole lattice: every site in a Chebyshev ring-`k`
/// region lies strictly farther than `(k−1)·side` from the point (a gate
/// centroid, whose fractional parts are multiples of `1/m`, so the slack
/// dwarfs float rounding). Once that bound strictly exceeds the
/// `scan`-th smallest collected distance, no uncollected site can enter
/// the prefix. The key is a total order, so a partial selection (select
/// the `scan` smallest, sort just those) gives the same prefix as
/// sorting the whole lattice.
fn nearest_sites(
    state: &MappingState,
    point: (f64, f64),
    scan: usize,
    sites: &mut Vec<Site>,
) -> usize {
    let lattice = state.lattice();
    let grid = state.region_grid();
    let by_point = |a: &Site, b: &Site| {
        RoutingContext::dist_sq_to(point, *a)
            .partial_cmp(&RoutingContext::dist_sq_to(point, *b))
            .expect("finite")
            .then(a.cmp(b))
    };
    sites.clear();
    for ring in grid.rings(point.0, point.1) {
        if ring.k() > 0 && sites.len() >= scan {
            let lb = f64::from(ring.min_cells() - 1);
            let (_, kth, _) = sites.select_nth_unstable_by(scan - 1, by_point);
            if lb * lb > RoutingContext::dist_sq_to(point, *kth) {
                break;
            }
        }
        ring.for_each_region(|region| {
            let (xs, ys) = grid.cells(region);
            for y in ys {
                for x in xs.clone() {
                    let site = Site::new(x, y);
                    if lattice.contains(site) {
                        sites.push(site);
                    }
                }
            }
        });
    }
    let n = sites.len().min(scan);
    if sites.len() > n {
        sites.select_nth_unstable_by(n - 1, by_point);
    }
    sites[..n].sort_by(by_point);
    n
}

/// One move of a chain, bound to the atom that travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainMove {
    /// The shuttled atom.
    pub atom: AtomId,
    /// Source site.
    pub from: Site,
    /// Target site (free when the move executes).
    pub to: Site,
}

impl ChainMove {
    fn as_move(&self) -> Move {
        Move::new(self.from, self.to)
    }
}

/// A complete move chain making one frontier gate executable.
#[derive(Debug, Clone, PartialEq)]
pub struct MoveChain {
    /// `op_index` of the frontier gate this chain serves.
    pub op_index: usize,
    /// Moves in execution order (move-aways precede dependent moves).
    pub moves: Vec<ChainMove>,
    /// Total cost under Eq. (4).
    pub cost: f64,
}

/// The shuttling-based router. Owns the recent-move window used by the
/// parallelism term `C_t_parallel`; cost terms come from the shared
/// [`CostModel`], and chain construction/cost replay borrow buffers from
/// the scratch arena.
#[derive(Debug)]
pub struct ShuttleRouter {
    cost: CostModel,
    recent_moves: VecDeque<Move>,
}

impl ShuttleRouter {
    /// Creates a router for the given hardware and configuration.
    pub fn new(params: &HardwareParams, config: &MapperConfig) -> Self {
        ShuttleRouter {
            cost: CostModel::new(params, config),
            recent_moves: VecDeque::new(),
        }
    }

    /// The best chain for each non-executable frontier gate, in frontier
    /// order.
    pub fn best_chains(
        &self,
        ctx: &mut RoutingContext<'_>,
        front: &[&FrontierGate],
        lookahead: &[&FrontierGate],
    ) -> Vec<MoveChain> {
        let mut result = Vec::new();
        let mut p = ctx.parts();
        // Round tables: per-gate remaining-distance values (committed
        // state) and the atom → gate incidence that tells a simulated
        // move which entries it can change. Values and their layer-order
        // summation replicate the old full `remaining()` sweep exactly.
        let (r_int, zero_sq) = (self.cost.r_int, self.cost.r_int_zero_sq);
        {
            let bufs = &mut *p.shuttle;
            bufs.ensure_atoms(p.state.num_atoms());
            bufs.round_gen += 1;
            let gen = bufs.round_gen;
            let touch = |bufs: &mut ShuttleBufs, atom: crate::ops::AtomId, entry: (u32, bool)| {
                let a = atom.index();
                if bufs.touch_epoch[a] != gen {
                    bufs.touch_epoch[a] = gen;
                    bufs.touch_lists[a].clear();
                }
                bufs.touch_lists[a].push(entry);
            };
            bufs.front_vals.clear();
            for (gi, g) in front.iter().enumerate() {
                bufs.front_vals.push(gate_remaining_distance_bounded(
                    p.state, &g.qubits, r_int, zero_sq,
                ));
                for &q in &g.qubits {
                    touch(bufs, p.state.atom_of_qubit(q), (gi as u32, true));
                }
            }
            bufs.la_vals.clear();
            for (gi, g) in lookahead.iter().enumerate() {
                bufs.la_vals.push(gate_remaining_distance_bounded(
                    p.state, &g.qubits, r_int, zero_sq,
                ));
                for &q in &g.qubits {
                    touch(bufs, p.state.atom_of_qubit(q), (gi as u32, false));
                }
            }
            bufs.val_undo.clear();
        }
        // The pre-chain distance sums are a property of the committed
        // state, identical for every candidate of this round — compute
        // them once and thread them through the simulations.
        let before = (
            p.shuttle.front_vals.iter().sum(),
            p.shuttle.la_vals.iter().sum(),
        );
        for gate in front {
            if p.state
                .qubits_mutually_connected(&gate.qubits, self.cost.r_int)
            {
                continue; // already executable
            }
            if let Some(cost) =
                self.best_chain_for_gate(&mut p, &gate.qubits, front, lookahead, before)
            {
                result.push(MoveChain {
                    op_index: gate.op_index,
                    moves: p.shuttle.best_chain.clone(),
                    cost,
                });
            }
        }
        result
    }

    /// Evaluates every candidate chain for one gate (one per viable
    /// central qubit, plus the anchor-scan fallback), leaving the
    /// cheapest in `parts.shuttle.best_chain` and returning its cost.
    fn best_chain_for_gate(
        &self,
        p: &mut crate::route::context::RouteParts<'_>,
        qubits: &[Qubit],
        front: &[&FrontierGate],
        lookahead: &[&FrontierGate],
        before: (f64, f64),
    ) -> Option<f64> {
        let mut best: Option<f64> = None;
        for ci in 0..qubits.len() {
            let anchor = p.state.site_of_qubit(qubits[ci]);
            if let Some(cost) = self.simulate_chain(
                p.state,
                p.journal,
                p.shuttle,
                p.table_int,
                qubits,
                anchor,
                Some(ci),
                front,
                lookahead,
                before,
            ) {
                if best.is_none_or(|b| cost < b - 1e-12) {
                    best = Some(cost);
                    std::mem::swap(&mut p.shuttle.chain, &mut p.shuttle.best_chain);
                }
            }
        }
        if best.is_none() {
            // Fallback: try the `SCAN` sites nearest the gate centroid as
            // anchors, nearest first.
            const SCAN: usize = 64;
            let centroid = crate::route::context::centroid_of(p.state, qubits);
            let scan = nearest_sites(p.state, centroid, SCAN, &mut p.shuttle.anchor_sites);
            for i in 0..scan {
                let anchor = p.shuttle.anchor_sites[i];
                if let Some(cost) = self.simulate_chain(
                    p.state,
                    p.journal,
                    p.shuttle,
                    p.table_int,
                    qubits,
                    anchor,
                    None,
                    front,
                    lookahead,
                    before,
                ) {
                    best = Some(cost);
                    std::mem::swap(&mut p.shuttle.chain, &mut p.shuttle.best_chain);
                    break;
                }
            }
        }
        best
    }

    /// One Eq. (4) cost term: applies `mv` through the journal, updates
    /// the per-gate value arrays for the gates the moved atom touches,
    /// folds the frontier/lookahead deltas and parallelism term into the
    /// accumulators, and advances the replayed recency window. The
    /// carried `before_*` values equal a recomputation at the pre-move
    /// state (nothing mutates the state between moves) and the layer
    /// sums are taken in the old full-sweep order over bit-identical
    /// per-gate values, so the incremental pass is bit-identical to a
    /// full cost replay.
    #[allow(clippy::too_many_arguments)]
    fn account_move(
        &self,
        state: &mut MappingState,
        journal: &mut StateJournal,
        bufs: &mut ShuttleBufs,
        mv: ChainMove,
        front: &[&FrontierGate],
        lookahead: &[&FrontierGate],
        before_f: &mut f64,
        before_l: &mut f64,
        total: &mut f64,
    ) {
        let (r_int, zero_sq) = (self.cost.r_int, self.cost.r_int_zero_sq);
        state.apply_move_journaled(mv.atom, mv.to, journal);
        // Only gates touching the moved atom can change value; every
        // other entry is exactly what a recompute would produce.
        let a = mv.atom.index();
        if a < bufs.touch_epoch.len() && bufs.touch_epoch[a] == bufs.round_gen {
            for ti in 0..bufs.touch_lists[a].len() {
                let (gi, is_front) = bufs.touch_lists[a][ti];
                let gate = if is_front {
                    front[gi as usize]
                } else {
                    lookahead[gi as usize]
                };
                let val = gate_remaining_distance_bounded(state, &gate.qubits, r_int, zero_sq);
                let slot = if is_front {
                    &mut bufs.front_vals[gi as usize]
                } else {
                    &mut bufs.la_vals[gi as usize]
                };
                bufs.val_undo.push((gi, is_front, *slot));
                *slot = val;
            }
        }
        let after_f: f64 = bufs.front_vals.iter().sum();
        let after_l: f64 = bufs.la_vals.iter().sum();
        let c_parallel: f64 = bufs
            .recent
            .iter()
            .rev()
            .take(self.cost.recency_window)
            .map(|m| self.cost.shuttle_delta_t(&mv.as_move(), m))
            .sum();
        *total += (after_f - *before_f)
            + self.cost.lookahead_weight * (after_l - *before_l)
            + self.cost.time_weight * c_parallel;
        bufs.recent.push(mv.as_move());
        *before_f = after_f;
        *before_l = after_l;
    }

    /// Builds a chain gathering all gate qubits on mutually compatible
    /// sites around `anchor` into `bufs.chain`, simulating each move in
    /// place through the journal — accumulating the Eq. (4) cost as it
    /// goes — and rolling the state back before returning. When `center`
    /// names a gate qubit, that qubit stays on its current site. Returns
    /// the chain's total cost, or `None` when no chain exists at this
    /// anchor.
    #[allow(clippy::too_many_arguments)]
    fn simulate_chain(
        &self,
        state: &mut MappingState,
        journal: &mut StateJournal,
        bufs: &mut ShuttleBufs,
        table_int: &na_arch::NeighborTable,
        qubits: &[Qubit],
        anchor: Site,
        center: Option<usize>,
        front: &[&FrontierGate],
        lookahead: &[&FrontierGate],
        before: (f64, f64),
    ) -> Option<f64> {
        let r_int = self.cost.r_int;
        let r_sq = self.cost.r_int_within_sq;
        let mark = journal.mark();
        let val_mark = bufs.val_undo.len();
        bufs.chain.clear();
        bufs.placed.clear();
        bufs.recent.clear();
        bufs.recent.extend(self.recent_moves.iter().copied());
        let (mut before_f, mut before_l) = before;
        let mut total = 0.0;

        // Placement order: the center first (stays put), then the rest by
        // proximity to the anchor.
        bufs.order.clear();
        bufs.order.extend(0..qubits.len());
        {
            let state = &*state;
            bufs.order.sort_by_key(|&i| {
                let key = if center == Some(i) {
                    -1
                } else {
                    state.site_of_qubit(qubits[i]).distance_sq(anchor)
                };
                (key, i)
            });
        }

        for oi in 0..bufs.order.len() {
            let qi = bufs.order[oi];
            let q = qubits[qi];
            let here = state.site_of_qubit(q);
            let stays = bufs.placed.iter().all(|&t| t.distance_sq(here) <= r_sq)
                && (center == Some(qi) || here.distance_sq(anchor) <= r_sq);
            if stays {
                // Already compatible with everything placed so far.
                bufs.placed.push(here);
                continue;
            }
            // Candidate targets around the anchor (the CSR slice lists
            // the hood's in-bounds sites in identical order); must stay
            // compatible with already-placed sites.
            bufs.site_candidates.clear();
            {
                let lattice = state.lattice();
                let placed = &bufs.placed;
                let anchor_idx = lattice.index(anchor);
                bufs.site_candidates.extend(
                    std::iter::once(anchor)
                        .chain(
                            table_int
                                .neighbors(anchor_idx)
                                .iter()
                                .map(|&n| lattice.site(n as usize)),
                        )
                        .filter(|s| {
                            placed.iter().all(|&t| t.distance_sq(*s) <= r_sq) && !placed.contains(s)
                        }),
                );
            }

            // First preference: a free site (direct move) — a linear
            // min-scan under the exact `(distance², site)` key the old
            // sort used, so the winner is identical without the
            // O(n log n) sort (which now only runs when the move-away
            // path below actually needs ordered candidates).
            let direct = bufs
                .site_candidates
                .iter()
                .copied()
                .filter(|&s| state.is_free(s))
                .min_by_key(|&s| (here.distance_sq(s), s));
            let target = if let Some(t) = direct {
                t
            } else {
                bufs.site_candidates
                    .sort_by_key(|s| (here.distance_sq(*s), *s));
                // Move-away: evict the blocking atom from the best
                // occupied candidate that is not another gate qubit.
                bufs.gate_sites.clear();
                {
                    let state = &*state;
                    bufs.gate_sites
                        .extend(qubits.iter().map(|&g| state.site_of_qubit(g)));
                }
                let mut evicted = None;
                for si in 0..bufs.site_candidates.len() {
                    let s = bufs.site_candidates[si];
                    if bufs.gate_sites.contains(&s) {
                        continue;
                    }
                    let Some(blocker) = state.atom_at_site(s) else {
                        continue;
                    };
                    bufs.excluded.clear();
                    bufs.excluded.extend_from_slice(&bufs.placed);
                    bufs.excluded.extend_from_slice(&bufs.gate_sites);
                    bufs.excluded.push(s);
                    let Some(park) = state.nearest_free_site(s, &bufs.excluded) else {
                        continue;
                    };
                    let away = ChainMove {
                        atom: blocker,
                        from: s,
                        to: park,
                    };
                    bufs.chain.push(away);
                    self.account_move(
                        state,
                        journal,
                        bufs,
                        away,
                        front,
                        lookahead,
                        &mut before_f,
                        &mut before_l,
                        &mut total,
                    );
                    evicted = Some(s);
                    break;
                }
                match evicted {
                    Some(s) => s,
                    None => {
                        state.undo_to(journal, mark);
                        rollback_vals(bufs, val_mark);
                        return None;
                    }
                }
            };
            let atom = state.atom_of_qubit(q);
            let mv = ChainMove {
                atom,
                from: state.site_of_atom(atom),
                to: target,
            };
            bufs.chain.push(mv);
            self.account_move(
                state,
                journal,
                bufs,
                mv,
                front,
                lookahead,
                &mut before_f,
                &mut before_l,
                &mut total,
            );
            bufs.placed.push(target);
        }

        // Chain must actually make the gate executable.
        let ok = state.qubits_mutually_connected(qubits, r_int);
        state.undo_to(journal, mark);
        rollback_vals(bufs, val_mark);
        if !ok {
            return None;
        }
        // Center-based chains respect the paper's 2(m−1) bound; the
        // anchor fallback may additionally move the would-be center.
        debug_assert!(bufs.chain.len() <= 2 * qubits.len());
        Some(total)
    }

    /// Records applied moves into the recency window.
    fn note_moves_applied(&mut self, moves: impl Iterator<Item = Move>) {
        for mv in moves {
            self.recent_moves.push_back(mv);
            while self.recent_moves.len() > self.cost.recency_window {
                self.recent_moves.pop_front();
            }
        }
    }
}

/// Reverts the per-gate value arrays to their state at `val_mark` —
/// the array counterpart of [`MappingState::undo_to`], replayed newest
/// first so repeated updates of the same gate restore correctly.
fn rollback_vals(bufs: &mut ShuttleBufs, val_mark: usize) {
    while bufs.val_undo.len() > val_mark {
        let (gi, is_front, v) = bufs.val_undo.pop().expect("length checked");
        if is_front {
            bufs.front_vals[gi as usize] = v;
        } else {
            bufs.la_vals[gi as usize] = v;
        }
    }
}

/// Sum of remaining routing distances over a gate layer — the Eq. (4)
/// distance term, evaluated in layer order so the floating-point sum is
/// reproducible. The hot path maintains this sum incrementally through
/// the scratch value arrays; this full sweep remains as the reference
/// implementation the equivalence tests compare against.
#[cfg(test)]
fn remaining(state: &MappingState, gates: &[&FrontierGate], r_int: f64) -> f64 {
    gates
        .iter()
        .map(|g| crate::route::distance::gate_remaining_distance(state, &g.qubits, r_int))
        .sum()
}

impl Router for ShuttleRouter {
    fn capability(&self) -> Capability {
        Capability::Shuttling
    }

    /// Proposes the best chain per frontier gate; ranking across gates
    /// happens in the engine's shared comparator.
    fn propose(
        &self,
        ctx: &mut RoutingContext<'_>,
        frontier: &[&FrontierGate],
        lookahead: &[&FrontierGate],
        _fallback: bool,
    ) -> Proposal {
        let candidates = self
            .best_chains(ctx, frontier, lookahead)
            .into_iter()
            .map(|chain| Candidate {
                tier: 0, // reassigned by the engine
                cost: chain.cost,
                op_index: chain.op_index,
                ops: chain
                    .moves
                    .iter()
                    .map(|mv| RoutingOp::Move {
                        atom: mv.atom,
                        from: mv.from,
                        to: mv.to,
                    })
                    .collect(),
            })
            .collect();
        Proposal {
            candidates,
            handoff: Vec::new(),
        }
    }

    fn note_applied(&mut self, _state: &MappingState, candidate: &Candidate) {
        self.note_moves_applied(candidate.ops.iter().filter_map(|op| match op {
            RoutingOp::Move { from, to, .. } => Some(Move::new(*from, *to)),
            _ => None,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::layout::InitialLayout;
    use crate::route::RouteScratch;
    use na_arch::Lattice;

    fn params(side: u32, atoms: u32, r: f64) -> HardwareParams {
        HardwareParams::shuttling()
            .to_builder()
            .lattice(side, 3.0)
            .num_atoms(atoms)
            .radius(r)
            .build()
            .expect("valid")
    }

    fn gate(qubits: &[u32]) -> FrontierGate {
        FrontierGate {
            op_index: 0,
            qubits: qubits.iter().map(|&q| Qubit(q)).collect(),
            capability: Capability::Shuttling,
        }
    }

    #[test]
    fn fallback_anchors_match_full_lattice_sort() {
        const SCAN: usize = 64;
        let p = params(100, 400, 2.0);
        for lattice in [Lattice::new(100), Lattice::zoned(100, 2, 1).expect("valid")] {
            let state =
                MappingState::on_lattice(&p, lattice, 8, InitialLayout::Identity).expect("fits");
            let by_point = |point: (f64, f64)| {
                move |a: &Site, b: &Site| {
                    RoutingContext::dist_sq_to(point, *a)
                        .partial_cmp(&RoutingContext::dist_sq_to(point, *b))
                        .expect("finite")
                        .then(a.cmp(b))
                }
            };
            let mut sites = Vec::new();
            for point in [
                (0.0, 0.0),
                (99.0, 1.0 / 3.0),
                (50.5, 99.0),
                (0.0, 47.0 + 2.0 / 3.0),
                (49.5, 50.0 + 1.0 / 3.0),
            ] {
                let n = nearest_sites(&state, point, SCAN, &mut sites);
                assert_eq!(n, SCAN);
                assert!(
                    sites.len() < lattice.num_sites() / 4,
                    "ring walk stops early: gathered {} of {}",
                    sites.len(),
                    lattice.num_sites()
                );
                let mut reference: Vec<Site> = lattice.iter().collect();
                reference.sort_by(by_point(point));
                assert_eq!(sites[..n], reference[..SCAN], "{lattice:?} at {point:?}");
            }
        }
    }

    struct Fixture {
        state: MappingState,
        table: na_arch::NeighborTable,
        scratch: RouteScratch,
    }

    impl Fixture {
        fn new(p: &HardwareParams, qubits: u32) -> Self {
            let state = MappingState::identity(p, qubits).expect("fits");
            let table = na_arch::NeighborTable::for_radius(state.lattice(), p.r_int);
            Fixture {
                state,
                table,
                scratch: RouteScratch::new(),
            }
        }

        fn ctx(&mut self) -> RoutingContext<'_> {
            RoutingContext::new(&mut self.state, &self.table, &mut self.scratch)
        }
    }

    fn best_of(
        router: &ShuttleRouter,
        fx: &mut Fixture,
        front: &[&FrontierGate],
    ) -> Option<MoveChain> {
        let mut best: Option<MoveChain> = None;
        for chain in router.best_chains(&mut fx.ctx(), front, &[]) {
            if best.as_ref().is_none_or(|b| chain.cost < b.cost - 1e-12) {
                best = Some(chain);
            }
        }
        best
    }

    fn apply(state: &mut MappingState, chain: &MoveChain) {
        for mv in &chain.moves {
            state.apply_move(mv.atom, mv.to);
        }
    }

    #[test]
    fn direct_move_when_free_site_available() {
        // 5x5 lattice, 10 atoms in the top two rows; plenty of free sites.
        let p = params(5, 10, 1.0);
        let mut fx = Fixture::new(&p, 10);
        let router = ShuttleRouter::new(&p, &MapperConfig::shuttle_only());
        // q0 at (0,0), q9 at (4,1): distance > 1.
        let front = [&gate(&[0, 9])];
        let chain = best_of(&router, &mut fx, &front).expect("chain");
        assert_eq!(chain.moves.len(), 1, "one direct move suffices");
        apply(&mut fx.state, &chain);
        assert!(fx
            .state
            .qubits_mutually_connected(&[Qubit(0), Qubit(9)], p.r_int));
        fx.state.check_invariants().unwrap();
    }

    #[test]
    fn candidate_simulation_leaves_state_untouched() {
        // The journal invariant: evaluating chains must not mutate the
        // committed state — positions, qubit map, or occupancy stamp.
        let p = params(4, 15, 1.0);
        let mut fx = Fixture::new(&p, 15);
        let reference = fx.state.clone();
        let stamp = fx.state.occupancy_stamp();
        let router = ShuttleRouter::new(&p, &MapperConfig::shuttle_only());
        let front = [&gate(&[0, 10])];
        let _ = router.best_chains(&mut fx.ctx(), &front, &[]);
        assert_eq!(fx.state, reference);
        assert_eq!(fx.state.occupancy_stamp(), stamp);
        assert!(!fx.scratch.speculation_in_flight());
        fx.state.check_invariants().unwrap();
    }

    #[test]
    fn move_away_used_in_crowded_region() {
        // Dense 4x4 lattice with 15 atoms; a single free site at (3,3).
        let p = params(4, 15, 1.0);
        let mut fx = Fixture::new(&p, 15);
        let router = ShuttleRouter::new(&p, &MapperConfig::shuttle_only());
        // q0 at (0,0) and q10 at (2,2): all neighbours of both are occupied.
        let front = [&gate(&[0, 10])];
        let chain = best_of(&router, &mut fx, &front).expect("chain");
        assert!(
            chain.moves.len() >= 2,
            "crowded routing needs a move-away, got {:?}",
            chain.moves
        );
        apply(&mut fx.state, &chain);
        assert!(fx
            .state
            .qubits_mutually_connected(&[Qubit(0), Qubit(10)], p.r_int));
        fx.state.check_invariants().unwrap();
    }

    #[test]
    fn chain_bounded_by_worst_case() {
        // r_int = √2: three qubits fit an L-shaped arrangement (at r = 1
        // no three lattice sites are pairwise within range at all).
        let p = params(5, 20, std::f64::consts::SQRT_2);
        let mut fx = Fixture::new(&p, 20);
        let router = ShuttleRouter::new(&p, &MapperConfig::shuttle_only());
        let front = [&gate(&[0, 12, 19])];
        let chain = best_of(&router, &mut fx, &front).expect("chain");
        // 2(m-1) for center-based chains; the anchor fallback may also
        // relocate the would-be center (<= 2m).
        assert!(chain.moves.len() <= 2 * 3, "bounded, got {:?}", chain.moves);
    }

    #[test]
    fn multiqubit_gate_becomes_executable() {
        let p = params(6, 20, std::f64::consts::SQRT_2);
        let mut fx = Fixture::new(&p, 20);
        let router = ShuttleRouter::new(&p, &MapperConfig::shuttle_only());
        let qubits = [Qubit(0), Qubit(7), Qubit(19)];
        let front = [&gate(&[0, 7, 19])];
        let chain = best_of(&router, &mut fx, &front).expect("chain");
        apply(&mut fx.state, &chain);
        assert!(fx.state.qubits_mutually_connected(&qubits, p.r_int));
    }

    #[test]
    fn executable_gate_needs_no_chain() {
        let p = params(5, 10, 2.0);
        let mut fx = Fixture::new(&p, 10);
        let router = ShuttleRouter::new(&p, &MapperConfig::shuttle_only());
        let front = [&gate(&[0, 1])];
        assert!(best_of(&router, &mut fx, &front).is_none());
    }

    #[test]
    fn parallelizable_chains_preferred_with_recent_moves() {
        let p = params(6, 12, 1.0);
        let mut fx = Fixture::new(&p, 12);
        let mut router =
            ShuttleRouter::new(&p, &MapperConfig::shuttle_only().with_time_weight(1.0));
        // Seed the recency window with a downward move.
        router.note_moves_applied(std::iter::once(Move::new(Site::new(5, 1), Site::new(5, 4))));
        let front = [&gate(&[0, 9])];
        let chain = best_of(&router, &mut fx, &front).expect("chain");
        // The chosen move should at least load-parallelize with the
        // recent one (distinct source).
        for mv in &chain.moves {
            assert_ne!(mv.from, Site::new(5, 1));
        }
    }

    #[test]
    fn chains_deterministic() {
        let p = params(5, 15, 1.0);
        let mut fx = Fixture::new(&p, 15);
        let router = ShuttleRouter::new(&p, &MapperConfig::shuttle_only());
        let front = [&gate(&[0, 12])];
        let a = best_of(&router, &mut fx, &front).expect("chain");
        let b = best_of(&router, &mut fx, &front).expect("chain");
        assert_eq!(a, b);
    }

    /// The incremental per-gate value arrays must reproduce the
    /// pre-refactor full-sweep Eq. (4) cost **bit-for-bit**: replay every
    /// returned chain with from-scratch `remaining()` sweeps after each
    /// move and require exact f64 equality.
    #[test]
    fn reference_cost_equivalence() {
        let p = params(4, 15, 1.0); // dense: exercises move-aways too
        let mut fx = Fixture::new(&p, 15);
        let router = ShuttleRouter::new(&p, &MapperConfig::shuttle_only().with_time_weight(0.7));
        let front_gates = [gate(&[0, 12]), gate(&[3, 14]), gate(&[1, 10])];
        let la_gates = [gate(&[2, 13])];
        let front: Vec<&FrontierGate> = front_gates.iter().collect();
        let la: Vec<&FrontierGate> = la_gates.iter().collect();
        let chains = router.best_chains(&mut fx.ctx(), &front, &la);
        assert!(!chains.is_empty(), "dense fixture must yield chains");
        for chain in &chains {
            let mut state = fx.state.clone();
            let r_int = router.cost.r_int;
            let mut before_f = remaining(&state, &front, r_int);
            let mut before_l = remaining(&state, &la, r_int);
            let mut recent: Vec<Move> = router.recent_moves.iter().copied().collect();
            let mut total = 0.0;
            for mv in &chain.moves {
                state.apply_move(mv.atom, mv.to);
                let after_f = remaining(&state, &front, r_int);
                let after_l = remaining(&state, &la, r_int);
                let m = Move::new(mv.from, mv.to);
                let c_par: f64 = recent
                    .iter()
                    .rev()
                    .take(router.cost.recency_window)
                    .map(|r| router.cost.shuttle_delta_t(&m, r))
                    .sum();
                total += (after_f - before_f)
                    + router.cost.lookahead_weight * (after_l - before_l)
                    + router.cost.time_weight * c_par;
                recent.push(m);
                before_f = after_f;
                before_l = after_l;
            }
            assert_eq!(
                total, chain.cost,
                "incremental cost must be bit-identical to the full sweep"
            );
        }
    }

    /// The direct-move linear min-scan must pick the same site the old
    /// sort-then-first-free selection picked, including on distance
    /// ties (broken by site order).
    #[test]
    fn direct_move_min_scan_matches_sorted_selection() {
        let p = params(5, 10, 1.0);
        let fx = Fixture::new(&p, 10);
        let here = Site::new(2, 1);
        // Free candidates at equal distance from `here`: the site-order
        // tie-break decides.
        let candidates = [
            Site::new(2, 3),
            Site::new(2, 2), // distance 1 — tied with (3,1)... no: d((2,2))=1
            Site::new(4, 1),
            Site::new(3, 2), // distance sq 2 — tied with (1,2)
            Site::new(1, 2), // distance sq 2, smaller site order
        ];
        let free: Vec<Site> = candidates
            .iter()
            .copied()
            .filter(|&s| fx.state.is_free(s))
            .collect();
        assert!(free.len() >= 2, "fixture must leave tied candidates free");
        // Old selection: full sort by (d², site), then first free.
        let mut sorted = candidates.to_vec();
        sorted.sort_by_key(|s| (here.distance_sq(*s), *s));
        let old = sorted.iter().copied().find(|&s| fx.state.is_free(s));
        // New selection: linear min-scan over free candidates.
        let new = candidates
            .iter()
            .copied()
            .filter(|&s| fx.state.is_free(s))
            .min_by_key(|&s| (here.distance_sq(s), s));
        assert_eq!(new, old);
    }

    #[test]
    fn warm_scratch_matches_fresh_clone_evaluation() {
        // The clone-path equivalence at router granularity: proposing on
        // the live state with a warm arena must match proposing on a
        // pristine clone with a cold arena, candidate for candidate.
        let p = params(5, 15, 1.0);
        let mut fx = Fixture::new(&p, 15);
        let router = ShuttleRouter::new(&p, &MapperConfig::shuttle_only());
        let front_gates = [gate(&[0, 12]), gate(&[3, 14])];
        let front: Vec<&FrontierGate> = front_gates.iter().collect();
        // Warm the arena with one evaluation round first.
        let _ = router.best_chains(&mut fx.ctx(), &front, &[]);
        let live = router.best_chains(&mut fx.ctx(), &front, &[]);
        let mut clone = fx.state.clone();
        let mut cold = RouteScratch::new();
        let mut clone_ctx = RoutingContext::new(&mut clone, &fx.table, &mut cold);
        let from_clone = router.best_chains(&mut clone_ctx, &front, &[]);
        assert_eq!(live, from_clone);
    }

    #[test]
    fn propose_converts_chains_to_candidates() {
        let p = params(5, 10, 1.0);
        let mut fx = Fixture::new(&p, 10);
        let router = ShuttleRouter::new(&p, &MapperConfig::shuttle_only());
        let front = [&gate(&[0, 9])];
        let proposal = router.propose(&mut fx.ctx(), &front, &[], false);
        assert_eq!(proposal.candidates.len(), 1);
        assert!(proposal.handoff.is_empty());
        let cand = &proposal.candidates[0];
        assert_eq!(cand.move_count(), cand.ops.len());
        assert_eq!(cand.swap_count(), 0);
    }
}
