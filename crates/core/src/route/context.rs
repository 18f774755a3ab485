//! Per-round routing context with cached distance infrastructure.
//!
//! Both routers repeatedly need BFS distance fields through the occupied
//! interaction graph (multi-qubit position finding queries one field per
//! gate qubit, every routing round). Recomputing them ad hoc was the
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
//! allocating.
//!
//! Fields are **resumable**: a target-bounded query
//! ([`DistanceCache::distances_at`]) settles only the frontier needed to
//! answer it and parks the partial field (distances + live BFS queue) in
//! the cache; a later full-field request — or a bounded request about
//! farther targets — resumes the same search instead of starting over.
//! BFS expansion runs through the CSR [`NeighborTable`] rather than
//! per-visit `hood.around` geometry (see [`crate::route::distance`]).
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

use na_arch::{NeighborTable, Neighborhood, Site};
use na_circuit::Qubit;

use crate::route::distance::{
    bfs_drain_resume, bfs_drain_resume_sparse, bfs_occupied_table_into, gate_remaining_distance,
    region_bfs_into, swap_distance, CorridorMask, SparseDrain, UNREACHABLE,
};
use crate::route::scratch::{GateBufs, RouteScratch, ShuttleBufs};
use crate::state::{MappingState, StateJournal};

/// Cache of single-source BFS distance fields over the occupied
/// interaction graph, invalidated by occupancy stamp, with buffer
/// pooling across invalidations and resumable partially-settled fields.
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
    /// Total sites settled by BFS work through this cache — the
    /// bench-visible measure of how much lattice each query touched.
    settled: AtomicU64,
}

/// A cached BFS field in one of two lifecycles: fully drained (shared
/// immutably), or partially settled with its live frontier queue parked
/// for resumption. Partial fields store a **sparse settled-map** keyed
/// by dense site index — a bounded query that settles a dozen frontier
/// sites on a 100×100 lattice costs a dozen map entries, not a
/// 10,000-slot dense vector plus an `O(num_sites)` memset.
#[derive(Debug)]
enum FieldKind {
    /// Completed field — every reachable site settled, `UNREACHABLE`
    /// entries are final. Dense: full fields are indexed site-by-site
    /// in the routers' hot loops.
    Full(Arc<Vec<u32>>),
    /// Partially settled field: absent sites are merely *not yet*
    /// settled while `queue` is non-empty.
    Partial {
        dist: HashMap<u32, u32>,
        queue: VecDeque<u32>,
    },
}

/// A cached field plus its LRU clock reading (see
/// [`DistanceCache::MAX_RESIDENT_FIELDS`]).
#[derive(Debug)]
struct FieldEntry {
    kind: FieldKind,
    last_used: u64,
}

/// Start-site index → distance field, tagged with the occupancy stamp
/// the fields were computed at (0 = nothing cached yet; real stamps are
/// never zero). Retired field vectors, settled-maps and frontier queues
/// are pooled for reuse; the region-BFS scratch of corridor computation
/// lives here too so bounded queries stay allocation-free.
#[derive(Debug, Default)]
struct StampedFields {
    stamp: u64,
    by_start: HashMap<usize, FieldEntry>,
    pool: Vec<Vec<u32>>,
    sparse_pool: Vec<HashMap<u32, u32>>,
    queue_pool: Vec<VecDeque<u32>>,
    /// Monotone LRU clock; bumped on every publish or cache hit.
    use_clock: u64,
    /// Peak `by_start.len()` since the last counter reset — the
    /// memory-bound metric guarded by the bench tier.
    peak_entries: u64,
    /// Entries evicted by the LRU cap.
    evictions: u64,
    /// Bounded queries that ran with a corridor mask.
    corridor_queries: u64,
    /// Bounded queries whose corridor actually pruned sites (or
    /// short-circuited to `UNREACHABLE` without any fine BFS).
    corridor_pruned: u64,
    /// Total regions entered by corridor-masked drains (the
    /// `regions_touched_per_query` numerator).
    regions_touched: u64,
    /// Region-BFS distance scratch of the current corridor.
    region_dist: Vec<u32>,
    region_queue: VecDeque<u32>,
    /// Seed buffer: regions of the pending targets.
    region_seeds: Vec<u32>,
    /// Per-region "seen in query N" stamps for region-touch counting.
    region_seen: Vec<u64>,
    /// Current query stamp for `region_seen`.
    qstamp: u64,
}

impl StampedFields {
    /// Retires every field of a stale stamp generation into the pools.
    fn retire_stale(&mut self, stamp: u64) {
        if self.stamp == stamp {
            return;
        }
        for (_, entry) in self.by_start.drain() {
            Self::recycle(
                entry.kind,
                &mut self.pool,
                &mut self.sparse_pool,
                &mut self.queue_pool,
            );
        }
        self.stamp = stamp;
    }

    /// Returns a retired field's buffers to the pools (a full field
    /// only when no outstanding `Arc` still shares it).
    fn recycle(
        kind: FieldKind,
        pool: &mut Vec<Vec<u32>>,
        sparse_pool: &mut Vec<HashMap<u32, u32>>,
        queue_pool: &mut Vec<VecDeque<u32>>,
    ) {
        match kind {
            FieldKind::Full(field) => {
                if let Ok(v) = Arc::try_unwrap(field) {
                    pool.push(v);
                }
            }
            FieldKind::Partial {
                mut dist,
                mut queue,
            } => {
                dist.clear();
                sparse_pool.push(dist);
                queue.clear();
                queue_pool.push(queue);
            }
        }
    }

    /// Publishes an entry under the LRU clock and enforces
    /// [`DistanceCache::MAX_RESIDENT_FIELDS`] by evicting the
    /// least-recently-used entry while over the cap.
    fn publish(&mut self, key: usize, kind: FieldKind) {
        self.use_clock += 1;
        self.by_start.insert(
            key,
            FieldEntry {
                kind,
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
                Self::recycle(
                    entry.kind,
                    &mut self.pool,
                    &mut self.sparse_pool,
                    &mut self.queue_pool,
                );
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from a cached (full or sufficiently settled
    /// partial) field.
    pub hits: u64,
    /// Queries that ran (or resumed) BFS work.
    pub misses: u64,
    /// Total sites settled by BFS work through the cache.
    pub sites_settled: u64,
    /// Entries evicted by the
    /// [`DistanceCache::MAX_RESIDENT_FIELDS`] LRU cap.
    pub evictions: u64,
    /// Peak number of simultaneously resident field entries.
    pub peak_entries: u64,
    /// Bounded queries that armed a region corridor (had at least one
    /// unsettled target).
    pub corridor_queries: u64,
    /// Corridor-armed queries whose corridor actually pruned — skipped
    /// region-unreachable sites, or answered `UNREACHABLE` outright
    /// from the region graph without any fine BFS.
    pub corridor_pruned: u64,
    /// Total distinct regions entered across all corridor-armed drains.
    pub regions_touched: u64,
}

impl CacheStats {
    /// Mean number of coarse regions a corridor-armed bounded query
    /// entered (`0.0` before any corridor query ran). On paper-sized
    /// lattices this stays near 1–2 while the region grid covers
    /// hundreds of regions — the coarse-to-fine locality win.
    pub fn regions_touched_per_query(&self) -> f64 {
        if self.corridor_queries == 0 {
            0.0
        } else {
            self.regions_touched as f64 / self.corridor_queries as f64
        }
    }
}

impl DistanceCache {
    /// The configured cap on resident field entries: publishing past
    /// the cap evicts the least-recently-used entry (its buffers return
    /// to the pools). Bounds cache memory at
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
    /// sites of `state`, computing — or *resuming* a partially settled
    /// field — on first use per occupancy stamp. Computation reuses
    /// pooled buffers from previously invalidated generations.
    pub fn field(&self, state: &MappingState, table: &NeighborTable, start: Site) -> Arc<Vec<u32>> {
        let key = state.lattice().index(start);
        let (mut buf, mut queue, sparse);
        {
            let mut guard = self.fields.lock().expect("cache lock");
            let inner = &mut *guard;
            inner.retire_stale(state.occupancy_stamp());
            match inner.by_start.remove(&key) {
                Some(FieldEntry {
                    kind: FieldKind::Full(field),
                    ..
                }) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    let out = Arc::clone(&field);
                    inner.use_clock += 1;
                    let last_used = inner.use_clock;
                    inner.by_start.insert(
                        key,
                        FieldEntry {
                            kind: FieldKind::Full(field),
                            last_used,
                        },
                    );
                    return out;
                }
                Some(FieldEntry {
                    kind: FieldKind::Partial { dist, queue: q },
                    ..
                }) => {
                    buf = inner.pool.pop().unwrap_or_default();
                    queue = q;
                    sparse = Some(dist);
                }
                None => {
                    buf = inner.pool.pop().unwrap_or_default();
                    queue = inner.queue_pool.pop().unwrap_or_default();
                    sparse = None;
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let settled = if let Some(map) = &sparse {
            // Promote the sparse partial field to a dense one and
            // resume its parked frontier to completion.
            buf.clear();
            buf.resize(state.lattice().num_sites(), UNREACHABLE);
            for (&site, &d) in map {
                buf[site as usize] = d;
            }
            bfs_drain_resume(state, table, &mut buf, &mut queue, &[])
        } else {
            bfs_occupied_table_into(state, &[start], table, &mut buf, &mut queue)
        };
        self.settled.fetch_add(settled as u64, Ordering::Relaxed);
        let field = Arc::new(buf);
        let mut guard = self.fields.lock().expect("cache lock");
        let inner = &mut *guard;
        // Another thread may have advanced the stamp while we computed;
        // only publish a field for the stamp it belongs to.
        if inner.stamp == state.occupancy_stamp() {
            inner.publish(key, FieldKind::Full(Arc::clone(&field)));
        }
        inner.queue_pool.push(queue);
        if let Some(mut map) = sparse {
            map.clear();
            inner.sparse_pool.push(map);
        }
        field
    }

    /// Target-bounded distance query: writes the hop distance from
    /// `start` to each site of `targets` into `out` (parallel to
    /// `targets`, `UNREACHABLE` for disconnected ones), running — or
    /// resuming — only as much BFS as the targets require. The partially
    /// settled field stays cached for later queries of the same
    /// occupancy generation.
    ///
    /// Queries are **coarse-to-fine**: a region-level BFS over the
    /// lattice's [`na_arch::RegionGrid`] runs first (hundreds of
    /// regions, not thousands of sites), and the fine BFS is restricted
    /// to the corridor of regions that can lie on a path to a pending
    /// target. Because region distance lower-bounds fine distance (see
    /// [`region_bfs_into`]), the pruning is *admissible*: every
    /// returned distance — including `UNREACHABLE` — is exactly what
    /// the unpruned [`bfs_occupied_bounded_into`] would report. On a
    /// connected lattice the corridor never prunes (every region
    /// reaches every other), so results, settle counts and hit/miss
    /// accounting are identical to the unpruned path; on disconnected
    /// topologies (zoned lattices whose gap exceeds the interaction
    /// radius) an unreachable-target query short-circuits at the region
    /// level instead of flooding the start's whole component.
    ///
    /// [`bfs_occupied_bounded_into`]: crate::route::distance::bfs_occupied_bounded_into
    pub fn distances_at(
        &self,
        state: &MappingState,
        table: &NeighborTable,
        start: Site,
        targets: &[Site],
        out: &mut Vec<u32>,
    ) {
        let lattice = state.lattice();
        let key = lattice.index(start);
        out.clear();
        let (mut dist, mut queue, fresh);
        let (mut region_dist, mut region_queue, mut region_seeds, mut region_seen, qstamp);
        {
            let mut guard = self.fields.lock().expect("cache lock");
            let inner = &mut *guard;
            inner.retire_stale(state.occupancy_stamp());
            match inner.by_start.remove(&key) {
                Some(FieldEntry {
                    kind: FieldKind::Full(field),
                    ..
                }) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    out.extend(targets.iter().map(|&t| field[lattice.index(t)]));
                    inner.use_clock += 1;
                    let last_used = inner.use_clock;
                    inner.by_start.insert(
                        key,
                        FieldEntry {
                            kind: FieldKind::Full(field),
                            last_used,
                        },
                    );
                    return;
                }
                Some(FieldEntry {
                    kind: FieldKind::Partial { dist: d, queue: q },
                    ..
                }) => {
                    // Already settled everywhere we need? Serve without
                    // resuming (settled entries of a partial field are
                    // final).
                    if targets
                        .iter()
                        .all(|&t| d.contains_key(&(lattice.index(t) as u32)))
                    {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        out.extend(targets.iter().map(|&t| d[&(lattice.index(t) as u32)]));
                        inner.use_clock += 1;
                        let last_used = inner.use_clock;
                        inner.by_start.insert(
                            key,
                            FieldEntry {
                                kind: FieldKind::Partial { dist: d, queue: q },
                                last_used,
                            },
                        );
                        return;
                    }
                    dist = d;
                    queue = q;
                    fresh = false;
                }
                None => {
                    dist = inner.sparse_pool.pop().unwrap_or_default();
                    queue = inner.queue_pool.pop().unwrap_or_default();
                    fresh = true;
                }
            }
            // Borrow the corridor scratch out of the lock for the
            // drain; returned (and counters folded in) at publish time.
            region_dist = std::mem::take(&mut inner.region_dist);
            region_queue = std::mem::take(&mut inner.region_queue);
            region_seeds = std::mem::take(&mut inner.region_seeds);
            region_seen = std::mem::take(&mut inner.region_seen);
            inner.qstamp += 1;
            qstamp = inner.qstamp;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if fresh {
            dist.clear();
            queue.clear();
            dist.insert(key as u32, 0);
            queue.push_back(key as u32);
            self.settled.fetch_add(1, Ordering::Relaxed);
        }
        // Coarse pass: region-BFS from the pending targets' regions.
        let grid = table.regions();
        region_seeds.clear();
        for &t in targets {
            let idx = lattice.index(t);
            if !dist.contains_key(&(idx as u32)) {
                region_seeds.push(grid.region_of(idx));
            }
        }
        let armed = !region_seeds.is_empty();
        let mut drain = SparseDrain::default();
        let mut region_shortcut = false;
        if armed {
            region_bfs_into(grid, &region_seeds, &mut region_dist, &mut region_queue);
            if region_seen.len() < grid.num_regions() {
                region_seen.resize(grid.num_regions(), 0);
            }
            if region_dist[grid.region_of(key) as usize] == UNREACHABLE {
                // The start's region cannot reach any pending target's
                // region, so no fine path exists either (admissible
                // lower bound): answer UNREACHABLE without touching the
                // fine lattice, leaving the parked field untouched.
                region_shortcut = true;
            } else {
                let corridor = CorridorMask {
                    grid,
                    to_targets: &region_dist,
                };
                drain = bfs_drain_resume_sparse(
                    state,
                    table,
                    &mut dist,
                    &mut queue,
                    targets,
                    &corridor,
                    &mut region_seen,
                    qstamp,
                );
            }
        }
        self.settled
            .fetch_add(drain.settled as u64, Ordering::Relaxed);
        out.extend(targets.iter().map(|&t| {
            dist.get(&(lattice.index(t) as u32))
                .copied()
                .unwrap_or(UNREACHABLE)
        }));
        let complete = queue.is_empty();
        let mut guard = self.fields.lock().expect("cache lock");
        let inner = &mut *guard;
        inner.region_dist = region_dist;
        inner.region_queue = region_queue;
        inner.region_seeds = region_seeds;
        inner.region_seen = region_seen;
        if armed {
            inner.corridor_queries += 1;
            inner.regions_touched += u64::from(drain.regions_touched);
            if drain.pruned || region_shortcut {
                inner.corridor_pruned += 1;
            }
        }
        if inner.stamp != state.occupancy_stamp() || drain.pruned {
            // Recycle rather than park: either the stamp advanced while
            // we computed (dead generation), or the corridor pruned —
            // a pruned frontier is only exact for *this* query's
            // targets and must not be resumed under different ones.
            dist.clear();
            inner.sparse_pool.push(dist);
            queue.clear();
            inner.queue_pool.push(queue);
        } else if complete {
            // The frontier is exhausted without pruning: every
            // reachable site is settled — promote to a dense full
            // field so later full-field requests hit outright.
            let mut buf = inner.pool.pop().unwrap_or_default();
            buf.clear();
            buf.resize(lattice.num_sites(), UNREACHABLE);
            for (&site, &d) in &dist {
                buf[site as usize] = d;
            }
            inner.publish(key, FieldKind::Full(Arc::new(buf)));
            dist.clear();
            inner.sparse_pool.push(dist);
            queue.clear();
            inner.queue_pool.push(queue);
        } else {
            inner.publish(key, FieldKind::Partial { dist, queue });
        }
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
        inner.corridor_queries = 0;
        inner.corridor_pruned = 0;
        inner.regions_touched = 0;
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
    /// the memory-bound (evictions, peak residency) and coarse-to-fine
    /// (corridor) statistics.
    pub fn snapshot(&self) -> CacheStats {
        let inner = self.fields.lock().expect("cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            sites_settled: self.settled.load(Ordering::Relaxed),
            evictions: inner.evictions,
            peak_entries: inner.peak_entries,
            corridor_queries: inner.corridor_queries,
            corridor_pruned: inner.corridor_pruned,
            regions_touched: inner.regions_touched,
        }
    }

    /// Total sites settled by BFS work through this cache since
    /// construction or the last reset — bounded queries settle a
    /// frontier, full fields settle every reachable site.
    pub fn sites_settled(&self) -> u64 {
        self.settled.load(Ordering::Relaxed)
    }

    /// Number of fields currently cached (full or partial).
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
/// interaction geometry (disc + CSR table), and the scratch arena with
/// its distance cache.
///
/// Candidate simulation happens **in place** on the borrowed state via
/// the [`StateJournal`]; the engine asserts the journal is fully rolled
/// back when `propose` returns, so the state routers observe between
/// rounds is always the committed one.
#[derive(Debug)]
pub struct RoutingContext<'a> {
    state: &'a mut MappingState,
    hood_int: &'a Neighborhood,
    table_int: &'a NeighborTable,
    r_int: f64,
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
    /// arena. `table` must be the CSR adjacency of `state`'s lattice at
    /// radius `r_int` (debug-asserted).
    pub fn new(
        state: &'a mut MappingState,
        hood_int: &'a Neighborhood,
        table_int: &'a NeighborTable,
        r_int: f64,
        scratch: &'a mut RouteScratch,
    ) -> Self {
        debug_assert!(
            table_int.matches(state.lattice(), r_int),
            "CSR table does not describe this lattice/radius"
        );
        RoutingContext {
            state,
            hood_int,
            table_int,
            r_int,
            scratch,
        }
    }

    /// The current mapping state.
    #[inline]
    pub fn state(&self) -> &MappingState {
        self.state
    }

    /// The interaction neighborhood (offsets within `r_int`).
    #[inline]
    pub fn interaction_neighborhood(&self) -> &Neighborhood {
        self.hood_int
    }

    /// The CSR adjacency of the lattice at `r_int`.
    #[inline]
    pub fn interaction_table(&self) -> &NeighborTable {
        self.table_int
    }

    /// The interaction radius.
    #[inline]
    pub fn r_int(&self) -> f64 {
        self.r_int
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

    /// Target-bounded hop distances from `start` to each of `targets`,
    /// written into `out` — settles only the BFS frontier the targets
    /// require (resumable; see [`DistanceCache::distances_at`]). Same
    /// speculation contract as [`RoutingContext::distances_from`].
    pub fn distances_to(&self, start: Site, targets: &[Site], out: &mut Vec<u32>) {
        debug_assert!(
            !self.speculation_in_flight(),
            "distance cache queried during speculative simulation"
        );
        self.scratch
            .cache
            .distances_at(self.state, self.table_int, start, targets, out);
    }

    /// Fractional SWAP distance between the sites of two qubits.
    pub fn qubit_swap_distance(&self, a: Qubit, b: Qubit) -> f64 {
        swap_distance(
            self.state.site_of_qubit(a),
            self.state.site_of_qubit(b),
            self.r_int,
        )
    }

    /// Remaining routing distance of a gate on `qubits` (zero iff
    /// executable).
    pub fn gate_remaining_distance(&self, qubits: &[Qubit]) -> f64 {
        gate_remaining_distance(self.state, qubits, self.r_int)
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
    use na_arch::HardwareParams;

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
        let ctx = RoutingContext::new(&mut state, &hood, &table, hood.radius(), &mut scratch);
        for start in [Site::new(0, 0), Site::new(2, 1), Site::new(3, 3)] {
            let cached = ctx.distances_from(start);
            let direct = bfs_occupied(&reference, &[start], &hood);
            assert_eq!(*cached, direct);
        }
    }

    #[test]
    fn bounded_query_settles_frontier_then_resumes_to_full() {
        let (state, hood, table) = setup();
        let cache = DistanceCache::new();
        // Nearby target: only a frontier around the start settles.
        let mut out = Vec::new();
        cache.distances_at(
            &state,
            &table,
            Site::new(0, 0),
            &[Site::new(1, 0)],
            &mut out,
        );
        assert_eq!(out, vec![1]);
        let after_bounded = cache.sites_settled();
        assert!(
            (after_bounded as usize) < state.num_atoms(),
            "bounded query must not settle the whole occupied graph \
             ({after_bounded} settled)"
        );
        // Upgrading to the full field resumes the same search ...
        let full = cache.field(&state, &table, Site::new(0, 0));
        let reference = bfs_occupied(&state, &[Site::new(0, 0)], &hood);
        assert_eq!(*full, reference);
        // ... and total settle work equals one full BFS (every occupied
        // site settled exactly once across both calls).
        assert_eq!(cache.sites_settled() as usize, state.num_atoms());
    }

    #[test]
    fn bounded_query_served_from_partial_field_is_a_hit() {
        let (state, _, table) = setup();
        let cache = DistanceCache::new();
        let mut out = Vec::new();
        let far = Site::new(4, 3); // occupied (20 atoms on 5x5)
        cache.distances_at(&state, &table, Site::new(0, 0), &[far], &mut out);
        let (h0, m0) = cache.stats();
        assert_eq!((h0, m0), (0, 1));
        // A nearer target is already settled: no BFS, a hit.
        cache.distances_at(
            &state,
            &table,
            Site::new(0, 0),
            &[Site::new(1, 0)],
            &mut out,
        );
        assert_eq!(out, vec![1]);
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn centroid_is_mean_of_sites() {
        let (mut state, hood, table) = setup();
        let mut scratch = RouteScratch::new();
        let ctx = RoutingContext::new(&mut state, &hood, &table, hood.radius(), &mut scratch);
        // Qubits 0 (0,0) and 2 (2,0).
        let (cx, cy) = ctx.centroid_of(&[Qubit(0), Qubit(2)]);
        assert_eq!((cx, cy), (1.0, 0.0));
    }
}
