//! Gate-based routing: SWAP candidate generation, the cost function of
//! the paper's Eq. (2)–(3), and multi-qubit *position finding*.
//!
//! Two-qubit gates are swapped towards each other; gates on `m ≥ 3`
//! qubits first need a geometric *position* — a set of `m` occupied sites
//! pairwise within `r_int` — found by breadth-first search starting from
//! all gate qubits simultaneously (paper §3.1.3 and Example 7). The BFS
//! distance fields come from the shared [`RoutingContext`] cache, so
//! consecutive SWAP rounds (which never change occupancy) reuse them for
//! free. If no position exists the gate is handed off to the next tier
//! (shuttling-based mapping) via [`Proposal::handoff`].
//!
//! The per-round candidate bookkeeping (atom → gate incidence, pair
//! dedup, per-candidate handled sets) lives in dense generation-stamped
//! tables borrowed from the [`RouteScratch`](crate::route::RouteScratch)
//! arena — the hot loop allocates nothing.
//!
//! # Cost function
//!
//! For a SWAP candidate `S` the router evaluates
//!
//! ```text
//! C_g(S) = [ C_f(S) + w_l·C_l(S) ] + λ_t·(t_max − t(S))
//! ```
//!
//! where `C_f`/`C_l` sum the *post-SWAP* routing distances of the frontier
//! and lookahead gates (for the argmin this is equivalent to the paper's
//! difference form `Δd_SWAP`, since the pre-SWAP sum is a constant).
//! `t(S)` counts routing steps since either atom of `S` was last involved
//! in a SWAP, where "involved" includes atoms within the restriction
//! radius `r_restr` of the swapped pair (the NA-specific extension noted
//! in §3.3.1). The recency term is the shared
//! [`CostModel::swap_recency_penalty`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use na_arch::adjacency::Ring;
use na_arch::{HardwareParams, NeighborTable, Neighborhood, Site};
use na_circuit::Qubit;

use crate::config::MapperConfig;
use crate::decision::Capability;
use crate::ops::AtomId;
use crate::route::distance::{swap_distance_bounded, UNREACHABLE};
use crate::route::scratch::GateBufs;
use crate::route::{
    Candidate, CostModel, FrontierGate, Proposal, Router, RoutingContext, RoutingOp,
};
use crate::state::MappingState;

/// A geometric realization target for a multi-qubit gate: slot `i` is the
/// site where gate qubit `i` should end up; all slots are pairwise within
/// `r_int`.
#[derive(Debug, Clone, PartialEq)]
pub struct GatePosition {
    /// Target site per gate qubit (operand order).
    pub slots: Vec<Site>,
    /// Total BFS hop cost of gathering the qubits at the slots.
    pub cost: u32,
}

/// A gate prepared for gate-based routing: qubits plus the resolved
/// position for `m ≥ 3` gates.
#[derive(Debug, Clone, Default)]
pub struct RoutedGate {
    /// Index of the operation in the input circuit.
    pub op_index: usize,
    /// The gate's circuit qubits.
    pub qubits: Vec<Qubit>,
    /// Target position for `m ≥ 3` gates (`None` for two-qubit gates).
    pub position: Option<GatePosition>,
}

impl RoutedGate {
    /// Post-SWAP routing distance of this gate, with `site_of` resolving
    /// qubit locations (allowing hypothetical SWAP overrides).
    /// `zero_sq` is the cost model's precomputed
    /// [`crate::route::distance::swap_zero_threshold_sq`] — in-range
    /// pairs short-circuit to exactly `0.0` on an integer compare, the
    /// sqrt only runs when a real positive distance is consumed.
    fn distance_with(&self, site_of: &dyn Fn(Qubit) -> Site, r_int: f64, zero_sq: i64) -> f64 {
        match &self.position {
            Some(pos) => self
                .qubits
                .iter()
                .zip(&pos.slots)
                .map(|(&q, &slot)| {
                    let s = site_of(q);
                    // Count slot distance in SWAP steps.
                    if s == slot {
                        0.0
                    } else {
                        (s.distance(slot) / r_int).max(1.0)
                    }
                })
                .sum(),
            None => {
                let a = site_of(self.qubits[0]);
                let b = site_of(self.qubits[1]);
                swap_distance_bounded(a, b, r_int, zero_sq)
            }
        }
    }
}

/// Writes a resolved gate into slot `live` of the reusable buffer,
/// recycling the slot's qubit vector instead of allocating.
fn fill_routed(
    buf: &mut Vec<RoutedGate>,
    live: usize,
    op_index: usize,
    qubits: &[Qubit],
    position: Option<GatePosition>,
) {
    if live < buf.len() {
        let slot = &mut buf[live];
        slot.op_index = op_index;
        slot.qubits.clear();
        slot.qubits.extend_from_slice(qubits);
        slot.position = position;
    } else {
        buf.push(RoutedGate {
            op_index,
            qubits: qubits.to_vec(),
            position,
        });
    }
}

/// The gate-based router. Owns the recency bookkeeping for `t(S)` and the
/// tabu window preventing immediate SWAP reversal; distance and cost
/// terms come from the shared routing layer, and per-round indices are
/// borrowed from the scratch arena.
#[derive(Debug)]
pub struct GateRouter {
    cost: CostModel,
    hood_restr: Neighborhood,
    /// CSR adjacency at `r_restr`, built lazily for the lattice the
    /// router actually routes on (the restricted-volume scan of
    /// [`GateRouter::note_swap_applied`] runs once per applied SWAP).
    restr_table: Option<NeighborTable>,
    /// Routing step at which each atom was last "used" by a SWAP.
    last_used: Vec<u64>,
    /// Monotone step counter.
    step: u64,
    /// Recently applied swaps (tabu against immediate reversal).
    recent_swaps: std::collections::VecDeque<(AtomId, AtomId)>,
}

impl GateRouter {
    /// Creates a router for the given hardware and configuration.
    pub fn new(params: &HardwareParams, config: &MapperConfig) -> Self {
        GateRouter {
            cost: CostModel::new(params, config),
            hood_restr: Neighborhood::new(params.r_restr),
            restr_table: None,
            last_used: vec![0; params.num_atoms as usize],
            step: 0,
            recent_swaps: std::collections::VecDeque::new(),
        }
    }

    /// Finds a geometric position for a multi-qubit gate: a set of
    /// occupied sites, pairwise within `r_int`, reachable by SWAPs from
    /// the gate qubits, minimizing the total BFS hop cost.
    ///
    /// Returns `None` when no feasible position exists (the engine then
    /// hands the gate to the next routing tier, paper §3.2 (3)).
    pub fn find_position(
        &self,
        ctx: &mut RoutingContext<'_>,
        qubits: &[Qubit],
    ) -> Option<GatePosition> {
        let m = qubits.len();
        debug_assert!(m >= 3, "positions are for multi-qubit gates");

        // Per-qubit BFS distance fields through the occupied graph,
        // served from the shared cache into the reusable field list.
        let mut fields = {
            let p = ctx.parts();
            std::mem::take(&mut p.gate.fields)
        };
        fields.clear();
        for &q in qubits {
            fields.push(ctx.distances_from_qubit(q));
        }

        let best = {
            let p = ctx.parts();
            let state = &*p.state;
            let lattice = state.lattice();

            // Anchor candidates: occupied sites reachable by every qubit,
            // keyed by total gathering cost, fed into a min-heap *ring by
            // ring* around the gate centroid instead of enumerating every
            // atom. Each anchor's cost lower-bounds as
            // `m · euclid(site, centroid) / r_int` (each BFS hop spans at
            // most `r_int`, and the site-to-qubit distances sum to at
            // least `m` times the centroid distance), and every site in a
            // Chebyshev ring-`k` region lies strictly more than
            // `(k−1)·side` from the centroid — so once the heap top costs
            // strictly less than the next ring's bound, no unfed atom can
            // precede it. Integer costs never tie the real-valued bound,
            // so pops arrive in exactly the (cost, site) order the full
            // enumeration produced: same winner, same early exit, while a
            // mega-lattice query feeds only the few rings near the gate.
            let anchors = &mut p.gate.anchors;
            anchors.clear();
            let mut heap = BinaryHeap::from(std::mem::take(anchors));

            let centroid = crate::route::context::centroid_of(state, qubits);
            let mut rings = state.region_grid().rings(centroid.0, centroid.1).peekable();
            let r_int = self.cost.r_int;
            // From the real-valued centroid a ring lies strictly beyond
            // one cell less than its site-to-site bound.
            let lb_cost = |ring: &Ring| -> f64 {
                (m as f64) * f64::from(ring.min_cells().saturating_sub(1)) / r_int
            };
            let push_ring = |ring: Ring, heap: &mut BinaryHeap<Reverse<(u64, Site)>>| {
                ring.for_each_region(|region| {
                    for &a in state.atoms_in_region(region) {
                        let site = state.site_of_atom(AtomId(a));
                        let idx = lattice.index(site);
                        let mut total = 0u64;
                        let mut reachable = true;
                        for d in &fields {
                            if d[idx] == UNREACHABLE {
                                reachable = false;
                                break;
                            }
                            total += u64::from(d[idx]);
                        }
                        if reachable {
                            heap.push(Reverse((total, site)));
                        }
                    }
                });
            };

            const ANCHOR_MARGIN: usize = 24;
            let mut best: Option<GatePosition> = None;
            let mut examined_since_best = 0usize;
            loop {
                while let Some(ring) = rings.next_if(|ring| {
                    heap.peek()
                        .is_none_or(|&Reverse((c, _))| (c as f64) >= lb_cost(ring))
                }) {
                    push_ring(ring, &mut heap);
                }
                let Some(Reverse((anchor_cost, anchor))) = heap.pop() else {
                    break;
                };
                if let Some(b) = &best {
                    if anchor_cost >= u64::from(b.cost) || examined_since_best >= ANCHOR_MARGIN {
                        break;
                    }
                    examined_since_best += 1;
                }
                if let Some(pos) = self.position_at_anchor(
                    state,
                    p.table_int,
                    &mut p.gate.pos_candidates,
                    anchor,
                    &fields,
                    m,
                ) {
                    if best.as_ref().is_none_or(|b| pos.cost < b.cost) {
                        best = Some(pos);
                        examined_since_best = 0;
                    }
                }
            }
            // Return the heap's storage to the arena.
            *anchors = heap.into_vec();
            best
        };

        // Drop the Arc handles before returning the buffer: a retained
        // clone would make the cache's `Arc::try_unwrap` fail on the
        // next occupancy invalidation and defeat the buffer pool.
        fields.clear();
        ctx.parts().gate.fields = fields;
        best
    }

    /// Greedily grows a mutually-compatible slot set around `anchor` and
    /// assigns gate qubits to slots with minimal total BFS cost.
    #[allow(clippy::too_many_arguments)]
    fn position_at_anchor(
        &self,
        state: &MappingState,
        table_int: &NeighborTable,
        candidates: &mut Vec<(u64, Site)>,
        anchor: Site,
        dists: &[Arc<Vec<u32>>],
        m: usize,
    ) -> Option<GatePosition> {
        let lattice = state.lattice();
        // Occupied sites around (and including) the anchor, cheapest
        // first. The CSR slice lists the hood's in-bounds sites in the
        // identical nearest-first order.
        candidates.clear();
        let anchor_idx = lattice.index(anchor);
        candidates.extend(
            std::iter::once(anchor_idx)
                .chain(
                    table_int
                        .neighbors(anchor_idx)
                        .iter()
                        .map(|&n| n as usize)
                        .filter(|&n| !state.is_free_index(n)),
                )
                .filter_map(|idx| {
                    let mut total = 0u64;
                    for d in dists {
                        if d[idx] == UNREACHABLE {
                            return None;
                        }
                        total += u64::from(d[idx]);
                    }
                    Some((total, lattice.site(idx)))
                }),
        );
        candidates.sort_unstable_by_key(|&(c, s)| (c, s));

        let r_sq = self.cost.r_int_within_sq;
        let mut slots: Vec<Site> = Vec::with_capacity(m);
        for &(_, s) in candidates.iter() {
            if slots.iter().all(|&t| t.distance_sq(s) <= r_sq) {
                slots.push(s);
                if slots.len() == m {
                    break;
                }
            }
        }
        if slots.len() < m {
            return None;
        }
        let (assignment, cost) = best_assignment(dists, &slots, lattice)?;
        let ordered: Vec<Site> = assignment.iter().map(|&j| slots[j]).collect();
        Some(GatePosition {
            slots: ordered,
            cost,
        })
    }

    /// Chooses the cheapest SWAP according to Eq. (2)–(3). Returns the
    /// winning pair and its cost, or `None` when no candidate exists
    /// (e.g. every frontier atom is isolated).
    pub fn best_swap(
        &self,
        ctx: &mut RoutingContext<'_>,
        front: &[RoutedGate],
        lookahead: &[RoutedGate],
    ) -> Option<((AtomId, AtomId), f64)> {
        let mut best: Option<((AtomId, AtomId), f64)> = None;
        self.sweep_swaps(ctx, front, lookahead, &mut |_, pair, cost| {
            let better = match &best {
                None => true,
                Some((bp, bc)) => cost < *bc - 1e-12 || ((cost - *bc).abs() <= 1e-12 && pair < *bp),
            };
            if better {
                best = Some((pair, cost));
            }
        });
        best
    }

    /// One pass over every deduplicated SWAP candidate of the round,
    /// reporting `(front gate index, pair, cost)` to `visit` in the
    /// exact enumeration order [`GateRouter::best_swap`] historically
    /// scanned — the single-commit winner and the per-gate bests of
    /// [`Router::propose_batch`] are both reductions over this stream.
    /// A pair is attributed to the first frontier gate that generates
    /// it (the dedup tables are shared across gates), and every cost
    /// contains the same round-constant `baseline`, so costs are
    /// mutually comparable across gates. Returns that baseline: a
    /// candidate with `cost < baseline` strictly reduces the weighted
    /// distance potential (its delta out-weighs its recency penalty).
    fn sweep_swaps(
        &self,
        ctx: &mut RoutingContext<'_>,
        front: &[RoutedGate],
        lookahead: &[RoutedGate],
        visit: &mut dyn FnMut(usize, (AtomId, AtomId), f64),
    ) -> f64 {
        let p = ctx.parts();
        let state = &*p.state;
        let lattice = state.lattice();
        let r_int = self.cost.r_int;
        let bufs = p.gate;
        let num_atoms = state.num_atoms();
        bufs.ensure_atoms(num_atoms);
        bufs.ensure_gates(front.len(), lookahead.len());
        bufs.round_gen += 1;
        let gen = bufs.round_gen;

        // Atom → gates index over both layers (front weight 1, lookahead
        // w_l) — dense, generation-stamped.
        let touch = |bufs: &mut GateBufs, atom: AtomId, entry: (u32, bool)| {
            let a = atom.index();
            if bufs.touch_epoch[a] != gen {
                bufs.touch_epoch[a] = gen;
                bufs.touch_lists[a].clear();
            }
            bufs.touch_lists[a].push(entry);
        };
        for (gi, g) in front.iter().enumerate() {
            for &q in &g.qubits {
                touch(bufs, state.atom_of_qubit(q), (gi as u32, true));
            }
        }
        for (gi, g) in lookahead.iter().enumerate() {
            for &q in &g.qubits {
                touch(bufs, state.atom_of_qubit(q), (gi as u32, false));
            }
        }

        // Pre-SWAP distances (constant part of the cost).
        let zero_sq = self.cost.r_int_zero_sq;
        let site_now = |q: Qubit| state.site_of_qubit(q);
        bufs.d_before_front.clear();
        bufs.d_before_front.extend(
            front
                .iter()
                .map(|g| g.distance_with(&site_now, r_int, zero_sq)),
        );
        bufs.d_before_la.clear();
        bufs.d_before_la.extend(
            lookahead
                .iter()
                .map(|g| g.distance_with(&site_now, r_int, zero_sq)),
        );
        let baseline: f64 = bufs.d_before_front.iter().sum::<f64>()
            + self.cost.lookahead_weight * bufs.d_before_la.iter().sum::<f64>();

        // Candidate SWAPs: frontier gate atoms × occupied interaction
        // neighbours, deduplicated through the dense pair table (sparse
        // fallback beyond the quadratic-size cutoff).
        let dense_pairs = num_atoms <= GateBufs::PAIR_DENSE_MAX_ATOMS;
        if !dense_pairs {
            bufs.pair_sparse.clear();
        }
        for (gi, g) in front.iter().enumerate() {
            for &q in &g.qubits {
                let a = state.atom_of_qubit(q);
                let sa = state.site_of_atom(a);
                // CSR slice: the hood's in-bounds sites in identical
                // order, as dense indices — no geometry per neighbor.
                for &nb in p.table_int.neighbors(lattice.index(sa)) {
                    let Some(b) = state.atom_at_site_index(nb as usize) else {
                        continue;
                    };
                    let pair = if a.0 < b.0 { (a, b) } else { (b, a) };
                    let fresh = if dense_pairs {
                        let key = pair.0.index() * num_atoms + pair.1.index();
                        let fresh = bufs.pair_epoch[key] != gen;
                        bufs.pair_epoch[key] = gen;
                        fresh
                    } else {
                        bufs.pair_sparse.insert((pair.0 .0, pair.1 .0))
                    };
                    if !fresh {
                        continue;
                    }
                    let delta = self.swap_delta(state, pair, front, lookahead, bufs);
                    // Tabu: never undo a recent SWAP unless it improves.
                    if self.recent_swaps.contains(&pair) && delta >= 0.0 {
                        continue;
                    }
                    let cost =
                        (baseline + delta) + self.cost.swap_recency_penalty(self.staleness(pair));
                    visit(gi, pair, cost);
                }
            }
        }
        baseline
    }

    /// Cost delta of swapping `pair`, restricted to gates touching either
    /// atom (all other terms cancel). Uses the dense touch/handled
    /// tables of the scratch arena.
    fn swap_delta(
        &self,
        state: &MappingState,
        pair: (AtomId, AtomId),
        front: &[RoutedGate],
        lookahead: &[RoutedGate],
        bufs: &mut GateBufs,
    ) -> f64 {
        let (a, b) = pair;
        let (site_a, site_b) = (state.site_of_atom(a), state.site_of_atom(b));
        let site_after = |q: Qubit| -> Site {
            let atom = state.atom_of_qubit(q);
            if atom == a {
                site_b
            } else if atom == b {
                site_a
            } else {
                state.site_of_atom(atom)
            }
        };
        let round = bufs.round_gen;
        bufs.handled_gen += 1;
        let handled_gen = bufs.handled_gen;
        let mut delta = 0.0;
        for atom in [a, b] {
            if bufs.touch_epoch[atom.index()] != round {
                continue;
            }
            for &(gi, is_front) in &bufs.touch_lists[atom.index()] {
                let slot = 2 * gi as usize + usize::from(is_front);
                if bufs.handled_epoch[slot] == handled_gen {
                    continue;
                }
                bufs.handled_epoch[slot] = handled_gen;
                let (gate, before, weight) = if is_front {
                    (&front[gi as usize], bufs.d_before_front[gi as usize], 1.0)
                } else {
                    (
                        &lookahead[gi as usize],
                        bufs.d_before_la[gi as usize],
                        self.cost.lookahead_weight,
                    )
                };
                let after =
                    gate.distance_with(&site_after, self.cost.r_int, self.cost.r_int_zero_sq);
                delta += weight * (after - before);
            }
        }
        delta
    }

    /// Steps since either atom of `pair` was last used, capped at the
    /// recency window.
    pub fn staleness(&self, pair: (AtomId, AtomId)) -> f64 {
        let last = self.last_used[pair.0.index()].max(self.last_used[pair.1.index()]);
        let t = self.step.saturating_sub(last);
        (t.min(self.cost.recency_window as u64)) as f64
    }

    /// Records an applied SWAP: advances the step counter, marks the
    /// swapped atoms (and those within `r_restr` of them — the restricted
    /// volume) as recently used, and updates the tabu window.
    fn note_swap_applied(&mut self, state: &MappingState, a: AtomId, b: AtomId) {
        self.step += 1;
        let lattice = *state.lattice();
        let r_restr = self.hood_restr.radius();
        let stale = !matches!(&self.restr_table, Some(t) if t.matches(&lattice, r_restr));
        if stale {
            self.restr_table = Some(NeighborTable::build(&lattice, &self.hood_restr));
        }
        let table = self.restr_table.as_ref().expect("built above");
        for atom in [a, b] {
            self.last_used[atom.index()] = self.step;
            let site = state.site_of_atom(atom);
            for &s in table.neighbors(lattice.index(site)) {
                if let Some(other) = state.atom_at_site_index(s as usize) {
                    self.last_used[other.index()] = self.step;
                }
            }
        }
        let pair = if a.0 < b.0 { (a, b) } else { (b, a) };
        self.recent_swaps.push_back(pair);
        while self.recent_swaps.len() > self.cost.recency_window {
            self.recent_swaps.pop_front();
        }
    }
}

impl GateRouter {
    /// Shared body of [`Router::propose`] / [`Router::propose_batch`]:
    /// resolves positions for `m ≥ 3` gates (handing off position-less
    /// ones when a fallback tier exists), then proposes either the
    /// single best SWAP over the remaining frontier or — batched — the
    /// best SWAP *per frontier gate*, all from one
    /// [`GateRouter::sweep_swaps`] pass. The resolved-gate lists live in
    /// reusable scratch buffers — no per-round allocation in steady
    /// state.
    fn propose_impl(
        &self,
        ctx: &mut RoutingContext<'_>,
        frontier: &[&FrontierGate],
        lookahead: &[&FrontierGate],
        fallback: bool,
        batched: bool,
    ) -> Proposal {
        // Take the buffers out of the arena so they can be filled while
        // the context is still queried (disjoint from the other scratch
        // tables `best_swap` borrows).
        let (mut routed, mut la) = {
            let p = ctx.parts();
            (
                std::mem::take(&mut p.gate.routed_front),
                std::mem::take(&mut p.gate.routed_la),
            )
        };
        let mut handoff = Vec::new();
        let mut live = 0usize;
        for g in frontier {
            let position = if g.qubits.len() >= 3 {
                let pos = self.find_position(ctx, &g.qubits);
                if pos.is_none() && fallback {
                    // Paper §3.2 (3): no position found -> use shuttling.
                    handoff.push(g.op_index);
                    continue;
                }
                pos
            } else {
                None
            };
            fill_routed(&mut routed, live, g.op_index, &g.qubits, position);
            live += 1;
        }
        let mut la_live = 0usize;
        for g in lookahead {
            fill_routed(&mut la, la_live, g.op_index, &g.qubits, None);
            la_live += 1;
        }

        let mut candidates = Vec::new();
        if live > 0 && batched {
            // Per-gate reduction over the shared sweep: each slot runs
            // the identical comparator `best_swap` uses globally, so a
            // gate's candidate is exactly what a single-gate round would
            // have chosen for it (given the same shared dedup).
            let mut per_gate = std::mem::take(&mut ctx.parts().gate.per_gate_best);
            per_gate.clear();
            per_gate.resize(live, None);
            let baseline = self.sweep_swaps(
                ctx,
                &routed[..live],
                &la[..la_live],
                &mut |gi, pair, cost| {
                    let slot = &mut per_gate[gi];
                    let better = match slot {
                        None => true,
                        Some((bp, bc)) => {
                            cost < *bc - 1e-12 || ((cost - *bc).abs() <= 1e-12 && pair < *bp)
                        }
                    };
                    if better {
                        *slot = Some((pair, cost));
                    }
                },
            );
            // Global winner by the identical comparator `best_swap`
            // runs: earliest gate wins cost ties (slot order is sweep
            // order).
            let winner = per_gate
                .iter()
                .enumerate()
                .filter_map(|(gi, s)| s.map(|(pair, cost)| (gi, pair, cost)))
                .min_by(|a, b| {
                    a.2.partial_cmp(&b.2)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.1.cmp(&b.1))
                        .then(a.0.cmp(&b.0))
                })
                .map(|(gi, ..)| gi);
            let state = ctx.state();
            for (gi, slot) in per_gate.iter().enumerate() {
                if let Some(((a, b), cost)) = *slot {
                    // A non-winner best commits speculatively only if it
                    // strictly improves the round's distance potential
                    // (`cost < baseline`): committing a worsening swap
                    // is only ever justified to escape a local minimum,
                    // and that is the winner's job — batching worsening
                    // side-swaps churns the tabu window and livelocks
                    // congested workloads.
                    if Some(gi) != winner && cost >= baseline - 1e-12 {
                        continue;
                    }
                    candidates.push(Candidate {
                        tier: 0, // reassigned by the engine
                        cost,
                        op_index: routed[gi].op_index,
                        ops: vec![RoutingOp::Swap {
                            a,
                            b,
                            site_a: state.site_of_atom(a),
                            site_b: state.site_of_atom(b),
                        }],
                    });
                }
            }
            ctx.parts().gate.per_gate_best = per_gate;
        } else if live > 0 {
            if let Some(((a, b), cost)) = self.best_swap(ctx, &routed[..live], &la[..la_live]) {
                let state = ctx.state();
                candidates.push(Candidate {
                    tier: 0, // reassigned by the engine
                    cost,
                    op_index: routed[0].op_index,
                    ops: vec![RoutingOp::Swap {
                        a,
                        b,
                        site_a: state.site_of_atom(a),
                        site_b: state.site_of_atom(b),
                    }],
                });
            }
        }
        let p = ctx.parts();
        p.gate.routed_front = routed;
        p.gate.routed_la = la;
        Proposal {
            candidates,
            handoff,
        }
    }
}

impl Router for GateRouter {
    fn capability(&self) -> Capability {
        Capability::GateBased
    }

    fn propose(
        &self,
        ctx: &mut RoutingContext<'_>,
        frontier: &[&FrontierGate],
        lookahead: &[&FrontierGate],
        fallback: bool,
    ) -> Proposal {
        self.propose_impl(ctx, frontier, lookahead, fallback, false)
    }

    /// One best SWAP per serviceable frontier gate, mutually comparable
    /// (every cost contains the same round-constant baseline), for the
    /// engine's speculative multi-commit round.
    fn propose_batch(
        &self,
        ctx: &mut RoutingContext<'_>,
        frontier: &[&FrontierGate],
        lookahead: &[&FrontierGate],
        fallback: bool,
    ) -> Proposal {
        self.propose_impl(ctx, frontier, lookahead, fallback, true)
    }

    fn note_applied(&mut self, state: &MappingState, candidate: &Candidate) {
        for op in &candidate.ops {
            if let RoutingOp::Swap { a, b, .. } = op {
                self.note_swap_applied(state, *a, *b);
            }
        }
    }
}

/// Minimal-cost assignment of gate qubits to slots. Exact for up to four
/// qubits (permutation search), greedy beyond. Returns `(assignment,
/// cost)` with `assignment[i]` the slot index for qubit `i`.
fn best_assignment(
    dists: &[Arc<Vec<u32>>],
    slots: &[Site],
    lattice: &na_arch::Lattice,
) -> Option<(Vec<usize>, u32)> {
    let m = dists.len();
    debug_assert_eq!(m, slots.len());
    let cost = |qi: usize, sj: usize| -> Option<u32> {
        let d = dists[qi][lattice.index(slots[sj])];
        (d != UNREACHABLE).then_some(d)
    };
    if m <= 4 {
        let mut perm: Vec<usize> = (0..m).collect();
        let mut best: Option<(Vec<usize>, u32)> = None;
        permute(&mut perm, 0, &mut |p| {
            let mut total = 0u32;
            for (qi, &sj) in p.iter().enumerate() {
                match cost(qi, sj) {
                    Some(c) => total += c,
                    None => return,
                }
            }
            if best.as_ref().is_none_or(|(_, bc)| total < *bc) {
                best = Some((p.to_vec(), total));
            }
        });
        best
    } else {
        // Greedy: repeatedly match the globally cheapest (qubit, slot) pair.
        let mut assignment = vec![usize::MAX; m];
        let mut used = vec![false; m];
        let mut total = 0u32;
        for _ in 0..m {
            let mut pick: Option<(u32, usize, usize)> = None;
            #[allow(clippy::needless_range_loop)] // indices feed `cost(qi, sj)`
            for qi in 0..m {
                if assignment[qi] != usize::MAX {
                    continue;
                }
                for sj in 0..m {
                    if used[sj] {
                        continue;
                    }
                    if let Some(c) = cost(qi, sj) {
                        if pick.is_none_or(|(pc, ..)| c < pc) {
                            pick = Some((c, qi, sj));
                        }
                    }
                }
            }
            let (c, qi, sj) = pick?;
            assignment[qi] = sj;
            used[sj] = true;
            total += c;
        }
        Some((assignment, total))
    }
}

fn permute(perm: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == perm.len() {
        visit(perm);
        return;
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        permute(perm, k + 1, visit);
        perm.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::distance::bfs_occupied;
    use crate::route::RouteScratch;
    use na_arch::HardwareParams;

    fn params(side: u32, atoms: u32, r: f64) -> HardwareParams {
        HardwareParams::mixed()
            .to_builder()
            .lattice(side, 3.0)
            .num_atoms(atoms)
            .radius(r)
            .build()
            .expect("valid")
    }

    fn routed(qubits: &[u32]) -> RoutedGate {
        RoutedGate {
            op_index: 0,
            qubits: qubits.iter().map(|&q| Qubit(q)).collect(),
            position: None,
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

    #[test]
    fn best_swap_moves_qubits_closer() {
        // 5x5 dense row-major layout, r_int = 1: qubit 0 at (0,0), qubit 12
        // at (2,2). Any useful SWAP reduces their separation.
        let p = params(5, 24, 1.0);
        let mut fx = Fixture::new(&p, 24);
        let cfg = MapperConfig::gate_only();
        let router = GateRouter::new(&p, &cfg);
        let front = [routed(&[0, 12])];
        let before = fx
            .state
            .site_of_qubit(Qubit(0))
            .distance(fx.state.site_of_qubit(Qubit(12)));
        let ((a, b), _) = router
            .best_swap(&mut fx.ctx(), &front, &[])
            .expect("candidates");
        fx.state.apply_swap(a, b);
        let after = fx
            .state
            .site_of_qubit(Qubit(0))
            .distance(fx.state.site_of_qubit(Qubit(12)));
        assert!(
            after < before,
            "swap must reduce distance: {before} -> {after}"
        );
    }

    #[test]
    fn routing_converges_to_executable() {
        let p = params(5, 24, 1.0);
        let mut fx = Fixture::new(&p, 24);
        let cfg = MapperConfig::gate_only();
        let mut router = GateRouter::new(&p, &cfg);
        let front = [routed(&[0, 23])];
        let qubits = [Qubit(0), Qubit(23)];
        let mut swaps = 0;
        while !fx.state.qubits_mutually_connected(&qubits, p.r_int) {
            let ((a, b), _) = router
                .best_swap(&mut fx.ctx(), &front, &[])
                .expect("progress");
            fx.state.apply_swap(a, b);
            router.note_swap_applied(&fx.state, a, b);
            swaps += 1;
            assert!(swaps < 50, "routing must converge");
        }
        // Manhattan-ish corner-to-corner on a 5x5 with r_int = 1 needs at
        // least 7 swaps; heuristic should stay close.
        assert!((6..=16).contains(&swaps), "swaps = {swaps}");
    }

    #[test]
    fn lookahead_breaks_ties_towards_future_gates() {
        let p = params(5, 24, 1.0);
        let mut fx = Fixture::new(&p, 24);
        let cfg = MapperConfig::gate_only();
        let router = GateRouter::new(&p, &cfg);
        // Frontier gate between q0 (0,0) and q2 (2,0); lookahead wants q0
        // near q10 at (0,2). Moving q0 right helps the front; the
        // lookahead prefers candidates that do not hurt q10's gate.
        let front = [routed(&[0, 2])];
        let la = [routed(&[0, 10])];
        let ((a, b), _) = router
            .best_swap(&mut fx.ctx(), &front, &la)
            .expect("candidates");
        // Either way the front distance shrinks.
        let mut s2 = fx.state.clone();
        s2.apply_swap(a, b);
        let d_front_before = fx
            .state
            .site_of_qubit(Qubit(0))
            .distance(fx.state.site_of_qubit(Qubit(2)));
        let d_front_after = s2
            .site_of_qubit(Qubit(0))
            .distance(s2.site_of_qubit(Qubit(2)));
        assert!(d_front_after < d_front_before);
    }

    #[test]
    fn find_position_rectangle_at_sqrt2() {
        // Example 7: r_int = √2 requires an L-shaped/rectangular cluster.
        let p = params(5, 24, std::f64::consts::SQRT_2);
        let mut fx = Fixture::new(&p, 24);
        let cfg = MapperConfig::gate_only();
        let router = GateRouter::new(&p, &cfg);
        let qubits = [Qubit(0), Qubit(1), Qubit(5)]; // already L-shaped
        let pos = router
            .find_position(&mut fx.ctx(), &qubits)
            .expect("position exists");
        assert_eq!(pos.cost, 0, "qubits already form a valid position");
        // All slots pairwise within r_int.
        for (i, &a) in pos.slots.iter().enumerate() {
            for &b in &pos.slots[i + 1..] {
                assert!(a.within(b, p.r_int));
            }
        }
    }

    #[test]
    fn find_position_gathers_distant_qubits() {
        let p = params(6, 35, std::f64::consts::SQRT_2);
        let mut fx = Fixture::new(&p, 35);
        let cfg = MapperConfig::gate_only();
        let router = GateRouter::new(&p, &cfg);
        // Qubits at three corners of the lattice.
        let qubits = [Qubit(0), Qubit(5), Qubit(30)];
        let pos = router
            .find_position(&mut fx.ctx(), &qubits)
            .expect("position exists");
        assert!(pos.cost > 0);
        for (i, &a) in pos.slots.iter().enumerate() {
            for &b in &pos.slots[i + 1..] {
                assert!(a.within(b, p.r_int));
            }
        }
    }

    #[test]
    fn position_none_when_graph_disconnected() {
        // 2 atoms in opposite corners of a 9x9 lattice with r_int = 1:
        // no third atom exists, and they cannot even reach each other.
        let p = params(9, 3, 1.0);
        let mut fx = Fixture::new(&p, 3);
        fx.state.apply_move(AtomId(0), Site::new(8, 8));
        fx.state.apply_move(AtomId(1), Site::new(0, 8));
        // Atom 2 stays at (2,0); all three are isolated.
        let cfg = MapperConfig::gate_only();
        let router = GateRouter::new(&p, &cfg);
        let pos = router.find_position(&mut fx.ctx(), &[Qubit(0), Qubit(1), Qubit(2)]);
        assert!(pos.is_none());
    }

    #[test]
    fn note_swap_marks_restricted_atoms() {
        let p = params(5, 24, 1.0);
        let state = MappingState::identity(&p, 24).expect("fits");
        let cfg = MapperConfig::gate_only().with_decay_rate(0.5);
        let mut router = GateRouter::new(&p, &cfg);
        router.note_swap_applied(&state, AtomId(12), AtomId(13));
        // Direct participants and neighbours within r_restr are fresh.
        assert_eq!(router.staleness((AtomId(12), AtomId(13))), 0.0);
        assert_eq!(router.staleness((AtomId(11), AtomId(7))), 0.0);
        // A far-away pair is stale.
        assert!(router.staleness((AtomId(0), AtomId(23))) > 0.0);
    }

    /// The heapified anchor selection must examine anchors in exactly
    /// the order the old full sort produced, including cost ties
    /// (broken by `Site` order) — so the first feasible/cheapest anchor
    /// (the winner) is identical.
    #[test]
    fn anchor_heap_pops_in_sorted_order_with_ties() {
        let entries: Vec<(u64, Site)> = vec![
            (5, Site::new(3, 1)),
            (2, Site::new(4, 0)),
            (5, Site::new(1, 2)),
            (2, Site::new(0, 3)),
            (7, Site::new(2, 2)),
            (2, Site::new(4, 1)),
            (0, Site::new(2, 0)),
            (2, Site::new(0, 0)),
        ];
        let mut sorted = entries.clone();
        sorted.sort_unstable_by_key(|&(c, s)| (c, s));
        let mut heap: BinaryHeap<Reverse<(u64, Site)>> = entries.into_iter().map(Reverse).collect();
        let mut popped: Vec<(u64, Site)> = Vec::new();
        while let Some(Reverse(e)) = heap.pop() {
            popped.push(e);
        }
        assert_eq!(popped, sorted);
        assert_eq!(popped.first(), sorted.first(), "same winner under ties");
    }

    #[test]
    fn assignment_exact_for_small_gates() {
        let p = params(4, 15, 2.0);
        let state = MappingState::identity(&p, 15).expect("fits");
        let hood = Neighborhood::new(2.0);
        let sites = [Site::new(0, 0), Site::new(1, 0), Site::new(2, 0)];
        let dists: Vec<Arc<Vec<u32>>> = sites
            .iter()
            .map(|&s| Arc::new(bfs_occupied(&state, &[s], &hood)))
            .collect();
        // Slots identical to sources: zero-cost identity assignment.
        let (assignment, cost) =
            best_assignment(&dists, &sites, state.lattice()).expect("feasible");
        assert_eq!(cost, 0);
        assert_eq!(assignment, vec![0, 1, 2]);
    }

    #[test]
    fn propose_hands_off_positionless_gates_only_with_fallback() {
        let p = params(9, 3, 1.0);
        let mut fx = Fixture::new(&p, 3);
        fx.state.apply_move(AtomId(0), Site::new(8, 8));
        fx.state.apply_move(AtomId(1), Site::new(0, 8));
        let router = GateRouter::new(&p, &MapperConfig::try_hybrid(1.0).expect("valid alpha"));
        let gate = FrontierGate {
            op_index: 7,
            qubits: vec![Qubit(0), Qubit(1), Qubit(2)],
            capability: Capability::GateBased,
        };
        let with_fb = router.propose(&mut fx.ctx(), &[&gate], &[], true);
        assert_eq!(with_fb.handoff, vec![7]);
        assert!(with_fb.candidates.is_empty());
        // Without a fallback tier the gate stays (and, with every atom
        // isolated, yields no SWAP candidate either).
        let without_fb = router.propose(&mut fx.ctx(), &[&gate], &[], false);
        assert!(without_fb.handoff.is_empty());
        assert!(without_fb.candidates.is_empty());
    }
}
