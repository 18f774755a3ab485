//! The routing scratch arena: every reusable buffer of the routing hot
//! path in one place.
//!
//! One [`RouteScratch`] serves one routing thread. It is created once
//! (per mapper call — or once per *worker* in batch compilation, see
//! `na-pipeline`) and threaded through
//! [`crate::route::RoutingEngine::step`] via the
//! [`crate::route::RoutingContext`], so the steady state of routing
//! allocates nothing per candidate:
//!
//! * the **move journal** ([`StateJournal`]) backing in-place candidate
//!   simulation (apply → evaluate → undo, exact stamp restore),
//! * the **distance cache** ([`DistanceCache`]) whose BFS fields are
//!   epoch-stamped by occupancy and whose buffers recycle through an
//!   internal pool across invalidations,
//! * dense per-[`AtomId`](crate::ops::AtomId) **touch/handled/pair
//!   tables** for the gate router (flat `Vec`s indexed by id with
//!   generation counters, replacing per-round `HashMap`/`HashSet`s),
//! * chain/site/ordering buffers for the shuttle router's chain
//!   construction and cost replay.
//!
//! Buffers are deliberately dumb: routers borrow disjoint fields
//! directly (the borrow checker enforces the discipline), and every
//! table is either cleared on use or invalidated by bumping a
//! generation counter — nothing here carries semantic state across
//! rounds except capacity.

use std::sync::Arc;

use na_arch::{Move, Site};

use crate::route::context::DistanceCache;
use crate::route::gate::RoutedGate;
use crate::route::shuttle::ChainMove;
use crate::state::StateJournal;

/// Reusable buffers of the gate-based router (dense tables indexed by
/// atom id / gate index, generation-stamped instead of cleared).
#[derive(Debug, Default)]
pub(crate) struct GateBufs {
    /// Generation counter bumped once per `best_swap` round; entries of
    /// `touch_epoch`/`pair_epoch` are live iff they equal it.
    pub round_gen: u64,
    /// Per-atom generation of `touch_lists` (atom id indexed).
    pub touch_epoch: Vec<u64>,
    /// Per-atom `(gate index, is_front)` lists — the dense replacement
    /// of the old `HashMap<AtomId, Vec<(usize, bool)>>`.
    pub touch_lists: Vec<Vec<(u32, bool)>>,
    /// Per ordered atom pair (`a * num_atoms + b`) generation marker —
    /// the dense replacement of the old `HashSet<(AtomId, AtomId)>`
    /// candidate dedup. Only sized while `num_atoms` stays at or below
    /// [`GateBufs::PAIR_DENSE_MAX_ATOMS`] (the table is quadratic);
    /// larger arrays fall back to `pair_sparse`.
    pub pair_epoch: Vec<u64>,
    /// Sparse pair-dedup fallback for very large atom arrays (cleared
    /// each round instead of generation-stamped).
    pub pair_sparse: std::collections::HashSet<(u32, u32)>,
    /// Generation counter bumped once per `swap_delta` evaluation.
    pub handled_gen: u64,
    /// Per `(gate, layer)` slot generation — the dense replacement of
    /// the old per-candidate `HashSet<(usize, bool)>`.
    pub handled_epoch: Vec<u64>,
    /// Pre-SWAP frontier distances of the current round.
    pub d_before_front: Vec<f64>,
    /// Pre-SWAP lookahead distances of the current round.
    pub d_before_la: Vec<f64>,
    /// Per-gate-qubit BFS fields for position finding.
    pub fields: Vec<Arc<Vec<u32>>>,
    /// Anchor candidates of `find_position`, `Reverse((cost, site))` —
    /// heapified into a lazy ascending selection instead of fully
    /// sorted (`BinaryHeap::from` is O(n); only the few anchors
    /// actually examined pay a log-n pop).
    pub anchors: Vec<std::cmp::Reverse<(u64, Site)>>,
    /// Slot candidates of `position_at_anchor`, `(cost, site)`.
    pub pos_candidates: Vec<(u64, Site)>,
    /// Frontier gates resolved for SWAP routing (inner qubit vectors are
    /// reused across rounds).
    pub routed_front: Vec<RoutedGate>,
    /// Lookahead gates resolved for SWAP routing.
    pub routed_la: Vec<RoutedGate>,
    /// Per-frontier-gate best `(pair, cost)` reduction of the batched
    /// sweep (`Router::propose_batch`).
    pub per_gate_best: Vec<Option<((crate::ops::AtomId, crate::ops::AtomId), f64)>>,
}

impl GateBufs {
    /// Largest atom count served by the dense quadratic pair table
    /// (1024² × 8 B = 8 MiB per arena); larger arrays use the sparse
    /// fallback so scratch memory stays linear in the array size.
    pub const PAIR_DENSE_MAX_ATOMS: usize = 1024;

    /// Grows the atom-indexed tables to cover `num_atoms` ids.
    pub fn ensure_atoms(&mut self, num_atoms: usize) {
        if self.touch_epoch.len() < num_atoms {
            self.touch_epoch.resize(num_atoms, 0);
            self.touch_lists.resize_with(num_atoms, Vec::new);
        }
        if num_atoms <= Self::PAIR_DENSE_MAX_ATOMS {
            let pairs = num_atoms * num_atoms;
            if self.pair_epoch.len() < pairs {
                self.pair_epoch.resize(pairs, 0);
            }
        }
    }

    /// Grows the `(gate, layer)` handled table for `front`/`lookahead`
    /// slices of the given lengths.
    pub fn ensure_gates(&mut self, front: usize, lookahead: usize) {
        let slots = 2 * front.max(lookahead).max(1);
        if self.handled_epoch.len() < slots {
            self.handled_epoch.resize(slots, 0);
        }
    }
}

/// Reusable buffers of the shuttle router's chain construction and cost
/// replay.
#[derive(Debug, Default)]
pub(crate) struct ShuttleBufs {
    /// The chain currently being built/evaluated.
    pub chain: Vec<ChainMove>,
    /// The cheapest chain seen so far for the current gate.
    pub best_chain: Vec<ChainMove>,
    /// Placement order of gate qubits (indices into the gate's operand
    /// list).
    pub order: Vec<usize>,
    /// Sites already fixed by the chain under construction.
    pub placed: Vec<Site>,
    /// Candidate target sites around the anchor.
    pub site_candidates: Vec<Site>,
    /// Exclusion list handed to `nearest_free_site` during move-aways.
    pub excluded: Vec<Site>,
    /// Current sites of all gate qubits (move-away blocker filter).
    pub gate_sites: Vec<Site>,
    /// Recency window replay buffer of the cost model.
    pub recent: Vec<Move>,
    /// Anchor scan order of the fallback path.
    pub anchor_sites: Vec<Site>,
    /// Generation counter bumped once per `best_chains` round; entries
    /// of `touch_epoch` are live iff they equal it.
    pub round_gen: u64,
    /// Per-atom generation of `touch_lists` (atom id indexed).
    pub touch_epoch: Vec<u64>,
    /// Per-atom `(gate index, is_front)` incidence over the round's
    /// frontier + lookahead layers — which Eq. (4) distance terms a
    /// move of this atom can change. Stable for the whole round: chains
    /// only move atoms, never permute `f_q`.
    pub touch_lists: Vec<Vec<(u32, bool)>>,
    /// Per-frontier-gate remaining routing distance at the currently
    /// simulated state (committed values between sims; entries for
    /// gates untouched by a move are *bit-identical* to a full
    /// recompute, so summing this array in gate order reproduces the
    /// old full `remaining()` sweep exactly — without its per-gate
    /// sqrt work).
    pub front_vals: Vec<f64>,
    /// Per-lookahead-gate remaining routing distance (same contract).
    pub la_vals: Vec<f64>,
    /// Undo log of `front_vals`/`la_vals` mutations during one chain
    /// simulation: `(gate index, is_front, previous value)`.
    pub val_undo: Vec<(u32, bool, f64)>,
}

impl ShuttleBufs {
    /// Grows the atom-indexed incidence tables to cover `num_atoms` ids.
    pub fn ensure_atoms(&mut self, num_atoms: usize) {
        if self.touch_epoch.len() < num_atoms {
            self.touch_epoch.resize(num_atoms, 0);
            self.touch_lists.resize_with(num_atoms, Vec::new);
        }
    }
}

/// SoA buffers of one routing round: the winning tier's candidate
/// list (filled by both [`crate::route::RoutingEngine::step`] and
/// [`crate::route::RoutingEngine::step_speculative`]) and, for
/// speculative rounds only, the sorted commit order and the per-candidate
/// conflict sets stored as two concatenated arrays (atom ids / dense
/// site indices) sliced by `ranges`. The stamped `atom_mark`/`site_mark`
/// tables carry the committed union during the greedy commit pass —
/// generation-bumped per round, never cleared.
#[derive(Debug, Default)]
pub(crate) struct SpecBufs {
    /// The winning tier's candidates, in proposal order.
    pub candidates: Vec<crate::route::Candidate>,
    /// Candidate indices sorted by `(cost, proposal order)`.
    pub order: Vec<u32>,
    /// Concatenated conflict-set atom ids.
    pub conflict_atoms: Vec<u32>,
    /// Concatenated conflict-set dense site indices (claimed + freed).
    pub conflict_sites: Vec<u32>,
    /// Per-candidate `[atom_start, atom_end, site_start, site_end]`
    /// slices into the two arrays above.
    pub ranges: Vec<[u32; 4]>,
    /// Generation counter bumped once per commit pass; mark entries are
    /// live iff they equal it.
    pub round_gen: u64,
    /// Per-atom committed-conflict marks (atom id indexed).
    pub atom_mark: Vec<u64>,
    /// Per-site committed-conflict marks (dense site indexed).
    pub site_mark: Vec<u64>,
}

impl SpecBufs {
    /// Grows the mark tables to cover `num_atoms` ids and `num_sites`
    /// dense indices.
    pub fn ensure(&mut self, num_atoms: usize, num_sites: usize) {
        if self.atom_mark.len() < num_atoms {
            self.atom_mark.resize(num_atoms, 0);
        }
        if self.site_mark.len() < num_sites {
            self.site_mark.resize(num_sites, 0);
        }
    }
}

/// The per-thread routing arena: journal, distance cache, and every
/// router scratch table, reused across rounds — and across circuits
/// when the caller keeps it alive (see
/// [`HybridMapper::map_into`](crate::HybridMapper::map_into)).
///
/// See the [module docs](self) for the ownership story and
/// [`StateJournal`] for the speculation/stamp invariants.
#[derive(Debug, Default)]
pub struct RouteScratch {
    pub(crate) journal: StateJournal,
    pub(crate) cache: DistanceCache,
    pub(crate) gate: GateBufs,
    pub(crate) shuttle: ShuttleBufs,
    pub(crate) spec: SpecBufs,
}

impl RouteScratch {
    /// An empty arena; buffers grow on first use and stay warm.
    pub fn new() -> Self {
        RouteScratch::default()
    }

    /// The occupancy-stamped distance cache (exposed for benchmarks and
    /// diagnostics — hit/miss counters via [`DistanceCache::stats`]).
    pub fn distance_cache(&self) -> &DistanceCache {
        &self.cache
    }

    /// `true` while a speculative candidate simulation is in flight
    /// (routing invariant: always `false` between engine rounds).
    pub fn speculation_in_flight(&self) -> bool {
        !self.journal.is_empty()
    }
}
