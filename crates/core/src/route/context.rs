//! Per-round routing context with cached distance infrastructure.
//!
//! Multi-qubit position finding (paper §3.2) needs the hop distance
//! from every gate qubit to every candidate anchor: one full BFS field
//! per gate qubit, every routing round. Recomputing them ad hoc was the
//! hottest redundant work in the mapper: a SWAP permutes the qubit
//! mapping `f_q` but *never changes trap occupancy*, so every distance
//! field stays valid across arbitrarily many consecutive SWAP rounds.
//!
//! [`DistanceCache`] exploits exactly that invariant: fields are keyed by
//! start site and invalidated wholesale when
//! [`MappingState::occupancy_stamp`] changes (i.e. after *committed*
//! shuttle moves — stamps are process-unique per state, so querying with
//! a *different* state can never alias another state's fields). The
//! vectors of invalidated fields recycle through an internal pool, so
//! steady-state routing performs BFS into warm buffers instead of
//! allocating. BFS expansion runs through the CSR [`NeighborTable`]
//! rather than per-visit `hood.around` geometry (see
//! [`crate::route::distance`]).
//!
//! Speculative candidate simulation (see
//! [`crate::state::StateJournal`]) deliberately never queries the cache:
//! speculative moves re-stamp the state (so a query *would* be correct,
//! but would trash the committed-occupancy fields), and undo restores
//! the exact committed stamp — leaving every cached field valid. The
//! contract is enforced by a debug assertion in
//! [`RoutingContext::distances_from`].
//!
//! [`RoutingContext`] bundles the mutable mapping state, the interaction
//! geometry and the scratch arena ([`RouteScratch`]) and is handed to
//! every [`crate::route::Router::propose`] call.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use na_arch::{NeighborTable, Site};
use na_circuit::Qubit;

use crate::route::distance::{bfs_occupied_table_into, gate_remaining_distance};
use crate::route::scratch::{GateBufs, RouteScratch, ShuttleBufs};
use crate::state::{MappingState, StateJournal};

/// Cache of dense single-source BFS distance fields over the occupied
/// interaction graph, invalidated by occupancy stamp, with buffer
/// pooling across invalidations.
///
/// In the routing hot path the cache lives inside a thread-exclusive
/// [`RouteScratch`], so the `Mutex` is always uncontended (its cost is
/// a few nanoseconds per lookup); it is kept so the type stays
/// `Send + Sync` for standalone callers that do share one cache across
/// threads. The lock is held only for map lookups/inserts and pool
/// exchange, never during a BFS.
#[derive(Debug, Default)]
pub struct DistanceCache {
    /// Fields plus the occupancy stamp they were computed at.
    fields: Mutex<StampedFields>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Total sites settled by BFS work through this cache.
    settled: AtomicU64,
}

/// A cached field plus its LRU clock reading (see
/// [`DistanceCache::MAX_RESIDENT_FIELDS`]).
#[derive(Debug)]
struct FieldEntry {
    field: Arc<Vec<u32>>,
    last_used: u64,
}

/// Start-site index → distance field, tagged with the occupancy stamp
/// the fields were computed at (0 = nothing cached yet; real stamps are
/// never zero). Retired field vectors and BFS queues are pooled for
/// reuse.
#[derive(Debug, Default)]
struct StampedFields {
    stamp: u64,
    by_start: HashMap<usize, FieldEntry>,
    pool: Vec<Vec<u32>>,
    queue_pool: Vec<VecDeque<u32>>,
    /// Monotone LRU clock; bumped on every publish or cache hit.
    use_clock: u64,
    /// Peak `by_start.len()` since the last counter reset — the
    /// memory-bound metric guarded by the bench tier.
    peak_entries: u64,
    /// Entries evicted by the LRU cap.
    evictions: u64,
}

impl StampedFields {
    /// Retires every field of a stale stamp generation into the pool.
    fn retire_stale(&mut self, stamp: u64) {
        if self.stamp == stamp {
            return;
        }
        for (_, entry) in self.by_start.drain() {
            Self::recycle(entry.field, &mut self.pool);
        }
        self.stamp = stamp;
    }

    /// Returns a retired field's vector to the pool, unless an
    /// outstanding `Arc` still shares it.
    fn recycle(field: Arc<Vec<u32>>, pool: &mut Vec<Vec<u32>>) {
        if let Ok(v) = Arc::try_unwrap(field) {
            pool.push(v);
        }
    }

    /// Publishes a field under the LRU clock and enforces
    /// [`DistanceCache::MAX_RESIDENT_FIELDS`] by evicting the
    /// least-recently-used entry while over the cap.
    fn publish(&mut self, key: usize, field: Arc<Vec<u32>>) {
        self.use_clock += 1;
        self.by_start.insert(
            key,
            FieldEntry {
                field,
                last_used: self.use_clock,
            },
        );
        while self.by_start.len() > DistanceCache::MAX_RESIDENT_FIELDS {
            let oldest = self
                .by_start
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("non-empty over cap");
            if let Some(entry) = self.by_start.remove(&oldest) {
                Self::recycle(entry.field, &mut self.pool);
            }
            self.evictions += 1;
        }
        self.peak_entries = self.peak_entries.max(self.by_start.len() as u64);
    }
}

/// Point-in-time snapshot of every [`DistanceCache`] counter — the
/// single struct the bench tier and the job layer serialize (see
/// `na-schedule`'s export module), so new counters only have to be
/// added in one place.
///
/// Only multi-qubit (arity ≥ 3) position finding queries the cache, so
/// a compile whose gates are all two-qubit, or whose multi-qubit gates
/// all route by shuttling, reports `hits == misses == 0` by design.
/// Occupancy changes only through committed shuttle moves, so on a
/// gate-only compile every miss is exactly one full BFS over the
/// occupied graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from a cached field.
    pub hits: u64,
    /// Queries that ran a BFS.
    pub misses: u64,
    /// Total sites settled by BFS work through the cache.
    pub sites_settled: u64,
    /// Entries evicted by the
    /// [`DistanceCache::MAX_RESIDENT_FIELDS`] LRU cap.
    pub evictions: u64,
    /// Peak number of simultaneously resident field entries.
    pub peak_entries: u64,
    /// Always 0: the corridor-pruned bounded query it counted is gone.
    /// Kept only because the benchmark harness still reads it; it goes
    /// with the serde stubs in the next benchmark change.
    pub corridor_queries: u64,
    /// Always 0, for the same reason as
    /// [`CacheStats::corridor_queries`].
    pub corridor_pruned: u64,
}

impl DistanceCache {
    /// The configured cap on resident field entries: publishing past
    /// the cap evicts the least-recently-used entry (its buffer returns
    /// to the pool). Bounds cache memory at
    /// `MAX_RESIDENT_FIELDS × num_sites × 4 B` worst case regardless of
    /// how many distinct sources a mega-scale circuit queries —
    /// ~10 MiB on a 100×100 lattice instead of one dense field per
    /// atom. Peak residency is observable via
    /// [`DistanceCache::snapshot`] and guarded by the bench tier.
    pub const MAX_RESIDENT_FIELDS: usize = 256;

    /// An empty cache.
    pub fn new() -> Self {
        DistanceCache::default()
    }

    /// The complete BFS distance field from `start` through occupied
    /// sites of `state`, computed on first use per occupancy stamp.
    /// Computation reuses pooled buffers from previously invalidated
    /// generations.
    pub fn field(&self, state: &MappingState, table: &NeighborTable, start: Site) -> Arc<Vec<u32>> {
        let key = state.lattice().index(start);
        let (mut buf, mut queue);
        {
            let mut guard = self.fields.lock().expect("cache lock");
            let inner = &mut *guard;
            inner.retire_stale(state.occupancy_stamp());
            if let Some(entry) = inner.by_start.get_mut(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                inner.use_clock += 1;
                entry.last_used = inner.use_clock;
                return Arc::clone(&entry.field);
            }
            buf = inner.pool.pop().unwrap_or_default();
            queue = inner.queue_pool.pop().unwrap_or_default();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let settled = bfs_occupied_table_into(state, &[start], table, &mut buf, &mut queue);
        self.settled.fetch_add(settled as u64, Ordering::Relaxed);
        let field = Arc::new(buf);
        let mut guard = self.fields.lock().expect("cache lock");
        // Another thread may have advanced the stamp while we computed;
        // only publish a field for the stamp it belongs to.
        if guard.stamp == state.occupancy_stamp() {
            guard.publish(key, Arc::clone(&field));
        }
        guard.queue_pool.push(queue);
        field
    }

    /// Zeroes every counter [`DistanceCache::snapshot`] reports, so the
    /// next snapshot covers only the work since this call. Cached
    /// fields and pooled buffers are kept. Each mapping run calls this
    /// on entry, which makes a compile's `route_cache` statistics
    /// independent of how warm its scratch arena was.
    pub(crate) fn reset_counters(&mut self) {
        *self.hits.get_mut() = 0;
        *self.misses.get_mut() = 0;
        *self.settled.get_mut() = 0;
        let inner = self.fields.get_mut().expect("cache lock");
        inner.peak_entries = 0;
        inner.evictions = 0;
    }

    /// `(hits, misses)` counters since construction or the last reset
    /// (every mapping run resets them).
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Snapshot of every cache counter — hit/miss/settle totals plus
    /// the memory-bound statistics (evictions, peak residency).
    pub fn snapshot(&self) -> CacheStats {
        let inner = self.fields.lock().expect("cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            sites_settled: self.settled.load(Ordering::Relaxed),
            evictions: inner.evictions,
            peak_entries: inner.peak_entries,
            corridor_queries: 0,
            corridor_pruned: 0,
        }
    }

    /// Number of fields currently cached.
    pub fn len(&self) -> usize {
        self.fields.lock().expect("cache lock").by_start.len()
    }

    /// Returns `true` when no field is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Everything a [`crate::route::Router`] may consult while proposing
/// candidates: the (mutable, journal-simulatable) mapping state, the
/// interaction geometry (CSR table), and the scratch arena with its
/// distance cache.
///
/// Candidate simulation happens **in place** on the borrowed state via
/// the [`StateJournal`]; the engine asserts the journal is fully rolled
/// back when `propose` returns, so the state routers observe between
/// rounds is always the committed one.
#[derive(Debug)]
pub struct RoutingContext<'a> {
    state: &'a mut MappingState,
    table_int: &'a NeighborTable,
    scratch: &'a mut RouteScratch,
}

/// A split borrow of a [`RoutingContext`]: the state and journal for
/// in-place speculation next to the per-router scratch tables, all
/// simultaneously borrowable because they are disjoint fields. Cache
/// queries stay on [`RoutingContext`] itself (they are only legal
/// outside speculation, which the context asserts).
pub(crate) struct RouteParts<'b> {
    pub state: &'b mut MappingState,
    pub journal: &'b mut StateJournal,
    pub gate: &'b mut GateBufs,
    pub shuttle: &'b mut ShuttleBufs,
    pub table_int: &'b NeighborTable,
}

impl<'a> RoutingContext<'a> {
    /// Bundles `state` with the engine's geometry and the scratch
    /// arena. `table_int` must be the CSR interaction adjacency of
    /// `state`'s lattice (debug-asserted); its radius is `r_int`.
    pub fn new(
        state: &'a mut MappingState,
        table_int: &'a NeighborTable,
        scratch: &'a mut RouteScratch,
    ) -> Self {
        debug_assert!(
            table_int.lattice() == state.lattice(),
            "CSR table does not describe this lattice"
        );
        RoutingContext {
            state,
            table_int,
            scratch,
        }
    }

    /// The current mapping state.
    #[inline]
    pub fn state(&self) -> &MappingState {
        self.state
    }

    /// The CSR adjacency of the lattice at `r_int`.
    #[inline]
    pub fn interaction_table(&self) -> &NeighborTable {
        self.table_int
    }

    /// The interaction radius.
    #[inline]
    pub fn r_int(&self) -> f64 {
        self.table_int.radius()
    }

    /// `true` while a speculative candidate simulation is in flight.
    #[inline]
    pub fn speculation_in_flight(&self) -> bool {
        self.scratch.speculation_in_flight()
    }

    /// Splits the context into simultaneously borrowable parts.
    pub(crate) fn parts(&mut self) -> RouteParts<'_> {
        RouteParts {
            state: self.state,
            journal: &mut self.scratch.journal,
            gate: &mut self.scratch.gate,
            shuttle: &mut self.scratch.shuttle,
            table_int: self.table_int,
        }
    }

    /// Cached BFS distance field from `start` (must be occupied) through
    /// the occupied interaction graph. Must not be called while a
    /// speculative simulation is in flight (debug-asserted) — see the
    /// [module docs](self).
    pub fn distances_from(&self, start: Site) -> Arc<Vec<u32>> {
        debug_assert!(
            !self.speculation_in_flight(),
            "distance cache queried during speculative simulation"
        );
        self.scratch.cache.field(self.state, self.table_int, start)
    }

    /// Cached BFS distance field from the atom carrying `q`.
    pub fn distances_from_qubit(&self, q: Qubit) -> Arc<Vec<u32>> {
        self.distances_from(self.state.site_of_qubit(q))
    }

    /// Remaining routing distance of a gate on `qubits` (zero iff
    /// executable).
    pub fn gate_remaining_distance(&self, qubits: &[Qubit]) -> f64 {
        gate_remaining_distance(self.state, qubits, self.r_int())
    }

    /// Euclidean centroid of the sites carrying `qubits` (fractional
    /// lattice coordinates).
    pub fn centroid_of(&self, qubits: &[Qubit]) -> (f64, f64) {
        centroid_of(self.state, qubits)
    }

    /// Squared Euclidean distance from a fractional point to a site.
    pub fn dist_sq_to(point: (f64, f64), s: Site) -> f64 {
        let dx = f64::from(s.x) - point.0;
        let dy = f64::from(s.y) - point.1;
        dx * dx + dy * dy
    }
}

/// Euclidean centroid of the sites carrying `qubits` — the single
/// definition behind [`RoutingContext::centroid_of`] and the shuttle
/// router's fallback anchor ordering.
pub(crate) fn centroid_of(state: &MappingState, qubits: &[Qubit]) -> (f64, f64) {
    let mut x = 0.0;
    let mut y = 0.0;
    for &q in qubits {
        let s = state.site_of_qubit(q);
        x += f64::from(s.x);
        y += f64::from(s.y);
    }
    let n = qubits.len() as f64;
    (x / n, y / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::AtomId;
    use crate::route::distance::bfs_occupied;
    use na_arch::{HardwareParams, Neighborhood};

    fn setup() -> (MappingState, Neighborhood, NeighborTable) {
        let params = HardwareParams::mixed()
            .to_builder()
            .lattice(5, 3.0)
            .num_atoms(20)
            .build()
            .expect("valid");
        let state = MappingState::identity(&params, 20).expect("fits");
        let hood = Neighborhood::new(params.r_int);
        let table = NeighborTable::build(state.lattice(), &hood);
        (state, hood, table)
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let (state, _, table) = setup();
        let cache = DistanceCache::new();
        let a = cache.field(&state, &table, Site::new(0, 0));
        let b = cache.field(&state, &table, Site::new(0, 0));
        assert_eq!(a, b);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn swaps_do_not_invalidate() {
        let (mut state, _, table) = setup();
        let cache = DistanceCache::new();
        cache.field(&state, &table, Site::new(0, 0));
        state.apply_swap(AtomId(0), AtomId(5));
        cache.field(&state, &table, Site::new(0, 0));
        assert_eq!(cache.stats(), (1, 1), "swap must not clear the cache");
    }

    #[test]
    fn moves_invalidate() {
        let (mut state, _, table) = setup();
        let cache = DistanceCache::new();
        let before = cache.field(&state, &table, Site::new(0, 0));
        // Break the occupied path along row 0: move (1,0) far away.
        let target = Site::new(4, 4);
        assert!(state.is_free(target));
        state.apply_move(AtomId(1), target);
        let after = cache.field(&state, &table, Site::new(0, 0));
        assert_eq!(cache.stats(), (0, 2), "move must recompute");
        assert_ne!(before, after);
    }

    #[test]
    fn journaled_undo_preserves_cached_fields() {
        // The cache-preserving invariant of the refactor: speculate,
        // undo, query again — the original field must still be served
        // from cache (no recompute, no clear).
        let (mut state, _, table) = setup();
        let cache = DistanceCache::new();
        let before = cache.field(&state, &table, Site::new(0, 0));
        let mut journal = StateJournal::new();
        let mark = journal.mark();
        state.apply_move_journaled(AtomId(1), Site::new(4, 4), &mut journal);
        state.apply_swap_journaled(AtomId(2), AtomId(3), &mut journal);
        state.undo_to(&mut journal, mark);
        let after = cache.field(&state, &table, Site::new(0, 0));
        assert_eq!(before, after);
        assert_eq!(cache.stats(), (1, 1), "undo must leave the field warm");
    }

    #[test]
    fn distinct_states_never_alias() {
        // Two states that happen to have seen the same number of moves
        // must not share cached fields (stamps are process-unique).
        let (state_a, _, table) = setup();
        let mut state_b = setup().0;
        state_b.apply_move(AtomId(1), Site::new(4, 4));
        let cache = DistanceCache::new();
        let from_a = cache.field(&state_a, &table, Site::new(0, 0));
        let from_b = cache.field(&state_b, &table, Site::new(0, 0));
        assert_eq!(cache.stats(), (0, 2), "state switch must recompute");
        assert_ne!(from_a, from_b);
        // Clones diverge independently, so they get fresh stamps too.
        let clone = state_a.clone();
        assert_ne!(state_a.occupancy_stamp(), clone.occupancy_stamp());
    }

    #[test]
    fn cached_field_matches_direct_bfs() {
        let (mut state, hood, table) = setup();
        let mut scratch = RouteScratch::new();
        let reference = state.clone();
        let ctx = RoutingContext::new(&mut state, &table, &mut scratch);
        for start in [Site::new(0, 0), Site::new(2, 1), Site::new(3, 3)] {
            let cached = ctx.distances_from(start);
            let direct = bfs_occupied(&reference, &[start], &hood);
            assert_eq!(*cached, direct);
        }
    }

    #[test]
    fn centroid_is_mean_of_sites() {
        let (mut state, _, table) = setup();
        let mut scratch = RouteScratch::new();
        let ctx = RoutingContext::new(&mut state, &table, &mut scratch);
        // Qubits 0 (0,0) and 2 (2,0).
        let (cx, cy) = ctx.centroid_of(&[Qubit(0), Qubit(2)]);
        assert_eq!((cx, cy), (1.0, 0.0));
    }
}
