//! ASAP scheduling with restriction constraints and AOD batching.
//!
//! Two entry points share one scheduling core:
//!
//! * [`Scheduler::schedule_mapped`] — the classic two-pass API: walk a
//!   fully materialized [`MappedCircuit`].
//! * [`IncrementalScheduler`] — the streaming core itself, a
//!   [`na_mapper::OpSink`]: feed [`MappedOp`]s one at a time (e.g.
//!   directly from [`na_mapper::HybridMapper::map_into`]) and AOD-batch
//!   merging, restriction checks and Eq. (1) metric accumulation happen
//!   op-by-op, with no intermediate full materialization.
//!
//! Both paths are item-for-item identical by construction:
//! `schedule_mapped` is a loop over `IncrementalScheduler::push`.

use na_arch::{aod, AodConstraints, HardwareParams, Lattice, Move, Site, Target};
use na_circuit::{decompose_to_native, Circuit};
use na_mapper::{AtomId, InitialLayout, MappedCircuit, MappedOp, OpSink};

use crate::aod_program::{lower_batch, validate_program_with};
use crate::items::{BatchedMove, Schedule, ScheduledItem};
use crate::metrics::{ComparisonReport, ScheduleMetrics};
use crate::restrict::RestrictIndex;

/// Schedules mapped circuits and original (unrouted) circuits under the
/// hardware timing model.
///
/// Scheduling is as-soon-as-possible in stream order with two NA-specific
/// rules (paper §2.1, §3.2 (5)):
///
/// * two Rydberg operations may overlap in time only if every pair of
///   atoms from different gates keeps at least `r_restr` distance,
/// * consecutive shuttle moves merge into one AOD transaction when their
///   row/column orders are consistent (no crossing) and no move targets a
///   site another batched move is still vacating.
#[derive(Debug, Clone)]
pub struct Scheduler {
    params: HardwareParams,
    lattice: Lattice,
    aod: AodConstraints,
}

impl Scheduler {
    /// Creates a scheduler for the given hardware on its full square
    /// lattice with protocol-only AOD constraints.
    pub fn new(params: HardwareParams) -> Self {
        let lattice = Lattice::new(params.lattice_side);
        Scheduler {
            params,
            lattice,
            aod: AodConstraints::default(),
        }
    }

    /// Creates a scheduler for a backend [`Target`]: trap topology and
    /// AOD constraint set come from the target description.
    pub fn for_target(target: &dyn Target) -> Self {
        Scheduler {
            params: target.params().clone(),
            lattice: target.lattice(),
            aod: target.aod_constraints(),
        }
    }

    /// Replaces the AOD constraint set (e.g. a service-level batch cap
    /// stricter than the target's).
    pub fn with_aod_constraints(mut self, aod: AodConstraints) -> Self {
        self.aod = aod;
        self
    }

    /// The hardware parameters.
    pub fn params(&self) -> &HardwareParams {
        &self.params
    }

    /// The trap topology schedules are validated against.
    pub fn lattice(&self) -> Lattice {
        self.lattice
    }

    /// The AOD constraint set applied to transaction batching.
    pub fn aod_constraints(&self) -> AodConstraints {
        self.aod
    }

    /// Schedules a mapped operation stream.
    ///
    /// Runs of consecutive shuttle moves (no gate in between) are
    /// repartitioned into as few AOD transactions as the constraints
    /// allow: a move may join any open batch of its run that is
    /// AOD-compatible, provided every earlier move it conflicts with
    /// (vacate-before-fill on a shared site, or the same atom moving
    /// twice) sits in a strictly earlier batch. This mirrors the paper's
    /// aggressive parallel scheduling of independent rearrangements.
    pub fn schedule_mapped(&self, mapped: &MappedCircuit) -> Schedule {
        let mut inc = IncrementalScheduler::with_topology(
            &self.params,
            self.lattice,
            self.aod,
            mapped.num_qubits,
            mapped.num_atoms,
            mapped.layout,
        );
        for op in mapped.iter() {
            inc.push(op);
        }
        inc.finish()
    }

    /// Schedules the *original* circuit assuming ideal all-to-all
    /// connectivity (no routing, no restriction): the baseline of the
    /// paper's `Δ` metrics. Non-native gates are decomposed first and
    /// operations are ordered by the commutation-aware DAG so the
    /// baseline enjoys the same reordering freedom as the mapped stream.
    pub fn schedule_original(&self, circuit: &Circuit) -> Schedule {
        let native = if circuit.is_native() {
            circuit.clone()
        } else {
            decompose_to_native(circuit)
        };
        let order = na_circuit::CircuitDag::new(&native).topological_order();
        let n = native.num_qubits() as usize;
        let mut avail = vec![0.0f64; n];
        let mut items = Vec::with_capacity(native.len());
        let mut makespan = 0.0f64;
        for i in order {
            let op = &native.ops()[i];
            let start = op
                .qubits()
                .iter()
                .map(|q| avail[q.index()])
                .fold(0.0, f64::max);
            let dur = op.duration_us(&self.params);
            for q in op.qubits() {
                avail[q.index()] = start + dur;
            }
            makespan = makespan.max(start + dur);
            // Atom/site identifiers mirror the identity layout.
            let atoms: Vec<AtomId> = op.qubits().iter().map(|q| AtomId(q.0)).collect();
            let sites: Vec<Site> = atoms
                .iter()
                .map(|a| self.lattice.site(a.0 as usize))
                .collect();
            if op.arity() == 1 {
                items.push(ScheduledItem::SingleQubit {
                    atom: atoms[0],
                    site: sites[0],
                    start_us: start,
                    duration_us: dur,
                    op_index: Some(i),
                });
            } else {
                items.push(ScheduledItem::Rydberg {
                    atoms,
                    sites,
                    start_us: start,
                    duration_us: dur,
                    op_index: Some(i),
                });
            }
        }
        Schedule {
            items,
            makespan_us: makespan,
            num_qubits: native.num_qubits(),
            num_atoms: self.params.num_atoms,
        }
    }

    /// Convenience: schedules both versions and produces the Table 1a
    /// comparison (`ΔCZ`, `ΔT`, `δF`).
    pub fn compare(&self, circuit: &Circuit, mapped: &MappedCircuit) -> ComparisonReport {
        let original = ScheduleMetrics::of(&self.schedule_original(circuit), &self.params);
        let routed = ScheduleMetrics::of(&self.schedule_mapped(mapped), &self.params);
        ComparisonReport::between(&original, &routed)
    }
}

/// Returns `true` if `mv` can join the pending batch: AOD-compatible with
/// every member and not touching a site another member vacates or fills.
fn batch_accepts(batch: &[BatchedMove], mv: &BatchedMove) -> bool {
    batch.iter().all(|b| {
        aod::moves_fully_parallel(&Move::new(b.from, b.to), &Move::new(mv.from, mv.to))
            && b.to != mv.from
            && b.from != mv.to
    })
}

/// Open batches of the current shuttle run: moves are placed into the
/// earliest batch their dependencies and the AOD constraints permit.
/// Flushed batch vectors recycle through `pool`, so a long stream of
/// shuttle runs stops allocating once the high-water mark is reached.
#[derive(Debug, Clone, Default)]
struct BatchRun {
    batches: Vec<Vec<BatchedMove>>,
    pool: Vec<Vec<BatchedMove>>,
}

impl BatchRun {
    fn new() -> Self {
        BatchRun::default()
    }

    fn push(&mut self, mv: BatchedMove) {
        // Moves conflicting with `mv` force it into a strictly later
        // batch: vacate-before-fill on shared sites, or the same atom
        // shuttling twice.
        let mut earliest = 0usize;
        for (bi, batch) in self.batches.iter().enumerate() {
            let conflicts = batch
                .iter()
                .any(|b| b.to == mv.from || b.from == mv.to || b.atom == mv.atom);
            if conflicts {
                earliest = bi + 1;
            }
        }
        for batch in self.batches.iter_mut().skip(earliest) {
            if batch_accepts(batch, &mv) {
                batch.push(mv);
                return;
            }
        }
        let mut batch = self.pool.pop().unwrap_or_default();
        batch.clear();
        batch.push(mv);
        self.batches.push(batch);
    }
}

/// Reusable working buffers of the streaming scheduler: the flush-wave
/// accept/defer lists and the incremental target-grid validator state.
/// Capacity only — no semantic state across calls.
#[derive(Debug, Clone, Default)]
struct SchedScratch {
    accepted: Vec<BatchedMove>,
    deferred: Vec<BatchedMove>,
    delta: DeltaGrid,
}

/// A batch spanning more distinct source rows than this accumulates a
/// full lattice unit (4 × [`crate::aod_program::LOAD_OFFSET`]) of grid
/// drift during sequential loading, so intermediate (load-phase) ghost
/// spots can land back on-lattice over arbitrary sites. At or below it,
/// every intermediate grid intersection is either off-lattice
/// (fractional drift) or sits exactly on one of the batch's own source
/// sites — an intended trap — so only the final target grid (the
/// deactivation check) can reject a candidate. See
/// [`DeltaGrid::admits`].
const DELTA_MAX_SRC_ROWS: usize = 4;

/// Incremental acceptance state for one flush wave: the accepted moves'
/// target row/column grid, the prefix of that grid already proven
/// ghost-spot free, and the accepted source sites.
///
/// [`IncrementalScheduler::flush_run`] accepts a candidate move only if
/// the lowered transaction of `accepted + candidate` validates against
/// the live occupancy. Re-lowering and re-validating the whole batch per
/// candidate is O(batch²) per wave; this struct reduces the predicate to
/// the candidate's *new* row × column intersections, which is exact:
///
/// * within a wave every accepted move is pairwise AOD-compatible
///   ([`batch_accepts`] / [`na_arch::aod::moves_fully_parallel`]), so
///   the lowered program's structural checks (`Malformed`,
///   `LineCrossing`, `WrongTarget`) can never fire — axis compatibility
///   makes the row/col maps strictly monotone by construction;
/// * with at most [`DELTA_MAX_SRC_ROWS`] distinct source rows the
///   load-phase ghost checks pass automatically (see the constant's
///   docs), leaving the deactivation check over the full target grid
///   `rows × cols`;
/// * occupancy (`site_free_at`) is frozen for the duration of a wave —
///   batches flush only after the wave's acceptance loop — and the
///   source set only grows, so a grid point that passed once passes for
///   every later candidate of the wave: the `verified_*` prefix never
///   needs re-checking.
///
/// Batches that grow beyond [`DELTA_MAX_SRC_ROWS`] source rows fall back
/// to lowering + [`validate_program_with`] on the whole candidate batch
/// — bit-identical to the original predicate, just restricted to the
/// rare deep-grid case. Equivalence is covered by the
/// `delta_acceptance_matches_full_validation` property test and
/// re-checked per emitted batch as a debug assertion.
#[derive(Debug, Clone, Default)]
struct DeltaGrid {
    /// Distinct target rows (y) of the accepted moves, unsorted.
    target_rows: Vec<i32>,
    /// Distinct target columns (x) of the accepted moves, unsorted.
    target_cols: Vec<i32>,
    /// Rows of the already-validated grid product (subset of
    /// `target_rows`); empty until a candidate has actually been
    /// checked — the wave's first move is accepted unchecked, exactly
    /// like the original `accepted.len() > 1` guard.
    verified_rows: Vec<i32>,
    /// Columns of the already-validated grid product.
    verified_cols: Vec<i32>,
    /// Distinct source rows (y) of the accepted moves.
    src_rows: Vec<i32>,
    /// Source sites of the accepted moves (the validator's non-spectator
    /// exclusions).
    sources: Vec<Site>,
}

impl DeltaGrid {
    /// Resets for a new wave, keeping capacity.
    fn clear(&mut self) {
        self.target_rows.clear();
        self.target_cols.clear();
        self.verified_rows.clear();
        self.verified_cols.clear();
        self.src_rows.clear();
        self.sources.clear();
    }

    /// Would the batch `accepted + mv` still pass [`validate_program_with`]
    /// against the current occupancy? Exact, per the type-level proof
    /// above. Does not modify the grid; `accepted` is borrowed mutably
    /// only to lower the candidate batch in place on the fallback path.
    fn admits(
        &self,
        mv: &BatchedMove,
        accepted: &mut Vec<BatchedMove>,
        lattice: &Lattice,
        site_free_at: &[f64],
    ) -> bool {
        let new_src_rows = self.src_rows.len() + usize::from(!self.src_rows.contains(&mv.from.y));
        if new_src_rows > DELTA_MAX_SRC_ROWS {
            // Deep grid: load-phase drift can reach a full lattice unit,
            // so run the full validator on the candidate batch.
            accepted.push(*mv);
            let ok = validate_program_with(&lower_batch(accepted), lattice, |site| {
                site_free_at[lattice.index(site)].is_infinite()
            })
            .is_ok();
            accepted.pop();
            return ok;
        }
        // Deactivation check over the candidate target grid, skipping the
        // verified prefix. Target coordinates are exact integers, so
        // every intersection is "on-lattice" in the validator's sense;
        // a point fails iff it covers a stored atom that is neither an
        // accepted source nor the candidate's own.
        let new_row = (!self.target_rows.contains(&mv.to.y)).then_some(mv.to.y);
        let new_col = (!self.target_cols.contains(&mv.to.x)).then_some(mv.to.x);
        for &row in self.target_rows.iter().chain(new_row.as_ref()) {
            let row_verified = self.verified_rows.contains(&row);
            for &col in self.target_cols.iter().chain(new_col.as_ref()) {
                if row_verified && self.verified_cols.contains(&col) {
                    continue;
                }
                let site = Site::new(col, row);
                if !lattice.contains(site) || !site_free_at[lattice.index(site)].is_infinite() {
                    continue;
                }
                if site != mv.from && !self.sources.contains(&site) {
                    return false;
                }
            }
        }
        true
    }

    /// Folds an accepted move into the grid. `checked` records whether
    /// the acceptance actually validated the grid (everything but the
    /// wave's first move): if so, the whole current product becomes the
    /// verified prefix — skipped points were verified before and only
    /// stay valid as sources grow.
    fn commit(&mut self, mv: &BatchedMove, checked: bool) {
        if !self.target_rows.contains(&mv.to.y) {
            self.target_rows.push(mv.to.y);
        }
        if !self.target_cols.contains(&mv.to.x) {
            self.target_cols.push(mv.to.x);
        }
        if !self.src_rows.contains(&mv.from.y) {
            self.src_rows.push(mv.from.y);
        }
        self.sources.push(mv.from);
        if checked {
            self.verified_rows.clone_from(&self.target_rows);
            self.verified_cols.clone_from(&self.target_cols);
        }
    }
}

/// Streaming ASAP scheduler: consumes a [`MappedOp`] stream one
/// operation at a time and builds the schedule, the AOD batches and the
/// Eq. (1) metric accumulators incrementally.
///
/// This is the scheduling core behind [`Scheduler::schedule_mapped`],
/// exposed so the mapper can feed it directly
/// ([`na_mapper::HybridMapper::map_into`]) — map + schedule then run as
/// one fused pass without materializing the op stream in between. It
/// implements [`OpSink`], so it can stand anywhere a sink is expected.
///
/// # Example
///
/// ```
/// use na_arch::HardwareParams;
/// use na_circuit::generators::GraphState;
/// use na_mapper::{HybridMapper, InitialLayout, MapScratch, MapperConfig};
/// use na_schedule::IncrementalScheduler;
///
/// let params = HardwareParams::mixed()
///     .to_builder()
///     .lattice(5, 3.0)
///     .num_atoms(12)
///     .build()?;
/// let circuit = GraphState::new(10).edges(13).seed(5).build();
/// let mapper = HybridMapper::new(params.clone(), MapperConfig::default())?;
///
/// // Fused single pass: the mapper streams ops straight into the
/// // scheduler; no intermediate MappedCircuit.
/// let mut inc = IncrementalScheduler::new(
///     &params, circuit.num_qubits(), params.num_atoms, InitialLayout::Identity,
/// );
/// mapper.map_into(&circuit, &mut inc, &mut MapScratch::new(), None)?;
/// let (schedule, metrics) = inc.finish_with_metrics();
/// assert!(schedule.makespan_us > 0.0);
/// assert!(metrics.log10_success <= 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalScheduler {
    params: HardwareParams,
    num_qubits: u32,
    /// Open AOD batches of the current run of consecutive shuttles.
    run: BatchRun,
    /// Per atom: the time from which the atom is free.
    avail: Vec<f64>,
    /// Per trap site: the time from which the site is free (∞ while
    /// occupied). Starts from the initial layout. Within a flush wave
    /// this doubles as the occupancy bitmap the AOD validator reads —
    /// batches only commit (and sites only change) between waves.
    site_free_at: Vec<f64>,
    lattice: Lattice,
    /// Backend AOD constraint set (transaction batch caps).
    aod: AodConstraints,
    /// Every Rydberg interval so far, bucketed by coarse lattice region
    /// and ordered by end time, so a push only tests nearby intervals
    /// that end after its earliest start.
    restrict: RestrictIndex,
    /// Time from which the (single) AOD device is free: there is one
    /// physical deflector grid, so transactions are mutually exclusive
    /// in time even when their atoms and sites are disjoint.
    aod_free_at: f64,
    items: Vec<ScheduledItem>,
    makespan: f64,
    /// Σ item durations so far (the busy part of Eq. (1)'s idle term).
    busy_us: f64,
    /// Σ ln F_O so far (the gate-fidelity product of Eq. (1)).
    ln_fidelity: f64,
    /// Reusable buffers (see [`SchedScratch`]).
    scratch: SchedScratch,
    /// Optional cooperative stop signal, polled once per flush wave.
    cancel: Option<na_mapper::CancelToken>,
    /// Latched once the token trips: subsequent flushes become no-ops
    /// so a doomed compile stops paying for batch validation. The
    /// schedule is unusable from then on — callers observe the latch
    /// via [`IncrementalScheduler::cancelled`] and must discard it.
    cancelled: Option<na_mapper::CancelReason>,
}

impl IncrementalScheduler {
    /// Creates a streaming scheduler for a stream of `num_qubits` logical
    /// qubits over `num_atoms` atoms starting from `layout` — the same
    /// context a [`MappedCircuit`] records.
    pub fn new(
        params: &HardwareParams,
        num_qubits: u32,
        num_atoms: u32,
        layout: InitialLayout,
    ) -> Self {
        IncrementalScheduler::with_topology(
            params,
            Lattice::new(params.lattice_side),
            AodConstraints::default(),
            num_qubits,
            num_atoms,
            layout,
        )
    }

    /// Creates a streaming scheduler on an explicit trap topology with a
    /// backend AOD constraint set — the target-aware constructor behind
    /// [`Scheduler::for_target`].
    pub fn with_topology(
        params: &HardwareParams,
        lattice: Lattice,
        aod: AodConstraints,
        num_qubits: u32,
        num_atoms: u32,
        layout: InitialLayout,
    ) -> Self {
        let mut site_free_at = vec![0.0; lattice.num_sites()];
        for site in layout.place(&lattice, num_atoms) {
            site_free_at[lattice.index(site)] = f64::INFINITY;
        }
        let restrict = RestrictIndex::new(lattice, params.r_restr);
        IncrementalScheduler {
            params: params.clone(),
            num_qubits,
            run: BatchRun::new(),
            avail: vec![0.0; num_atoms as usize],
            site_free_at,
            lattice,
            aod,
            restrict,
            aod_free_at: 0.0,
            items: Vec::new(),
            makespan: 0.0,
            busy_us: 0.0,
            ln_fidelity: 0.0,
            scratch: SchedScratch::default(),
            cancel: None,
            cancelled: None,
        }
    }

    /// Attaches a cooperative [`na_mapper::CancelToken`],
    /// polled once per flush wave.
    ///
    /// Once the token trips, every later flush is a no-op and the
    /// in-progress schedule is abandoned — check
    /// [`IncrementalScheduler::cancelled`] before trusting
    /// [`IncrementalScheduler::finish`] output. Polls are pure reads:
    /// with an untripped token the schedule is byte-identical to a
    /// token-free run.
    pub fn set_cancel(&mut self, token: na_mapper::CancelToken) {
        self.cancel = Some(token);
    }

    /// Why the attached token tripped, if it did.
    pub fn cancelled(&self) -> Option<na_mapper::CancelReason> {
        self.cancelled
    }

    /// Polls the attached token (latching a trip); `true` means stop.
    fn poll_cancel(&mut self) -> bool {
        if self.cancelled.is_some() {
            return true;
        }
        if let Some(token) = &self.cancel {
            if let Err(reason) = token.check() {
                self.cancelled = Some(reason);
                return true;
            }
        }
        false
    }

    /// Consumes the next operation of the mapped stream.
    ///
    /// Shuttle moves accumulate into the open AOD-batch run; any other
    /// operation seals the run (flushing its batches as transactions)
    /// and is then placed ASAP under the restriction constraint.
    pub fn push(&mut self, op: &MappedOp) {
        match op {
            MappedOp::Shuttle { atom, from, to } => {
                self.run.push(BatchedMove {
                    atom: *atom,
                    from: *from,
                    to: *to,
                });
            }
            MappedOp::Gate {
                op_index,
                op,
                atoms,
                sites,
            } => {
                self.flush_run();
                if op.arity() == 1 {
                    self.push_single(atoms[0], sites[0], self.params.t_single_us, Some(*op_index));
                } else {
                    self.push_rydberg(
                        atoms.clone(),
                        sites.clone(),
                        self.params.cz_family_time_us(op.arity()),
                        Some(*op_index),
                    );
                }
            }
            MappedOp::Swap {
                a,
                b,
                site_a,
                site_b,
            } => {
                self.flush_run();
                self.push_swap([*a, *b], [*site_a, *site_b]);
            }
            // `MappedOp` is non-exhaustive within the workspace only to
            // keep downstream matches honest; new kinds must be handled
            // here first.
            other => unreachable!("unhandled mapped op {other:?}"),
        }
    }

    /// Number of items scheduled so far (open shuttle runs not counted
    /// until sealed).
    pub fn items_so_far(&self) -> usize {
        self.items.len()
    }

    /// Seals the stream and returns the finished schedule.
    pub fn finish(mut self) -> Schedule {
        self.flush_run();
        Schedule {
            items: self.items,
            makespan_us: self.makespan,
            num_qubits: self.num_qubits,
            num_atoms: self.avail.len() as u32,
        }
    }

    /// Seals the stream and returns the schedule together with the
    /// Eq. (1) metrics accumulated op-by-op.
    ///
    /// The metrics are bit-identical to
    /// [`ScheduleMetrics::of`] on the returned schedule: the
    /// accumulators add the same terms in the same order.
    pub fn finish_with_metrics(mut self) -> (Schedule, ScheduleMetrics) {
        self.flush_run();
        let schedule = Schedule {
            items: self.items,
            makespan_us: self.makespan,
            num_qubits: self.num_qubits,
            num_atoms: self.avail.len() as u32,
        };
        let metrics = ScheduleMetrics::from_accumulators(
            schedule.makespan_us,
            self.busy_us,
            self.ln_fidelity,
            self.num_qubits,
            schedule.cz_count(),
            schedule.move_count(),
            &self.params,
        );
        (schedule, metrics)
    }

    /// Seals the current shuttle run, flushing its batches in dependency
    /// order as AOD transactions.
    ///
    /// Each batch is re-partitioned against the *live* occupancy before
    /// it flushes: an AOD transaction's activated grid puts ghost spots
    /// (row × column intersections) over lattice sites — at load time,
    /// where the accumulated [`crate::aod_program::LOAD_OFFSET`]s can
    /// drift earlier lines back on-lattice, and at deactivation, where
    /// the full target grid lands at once. A ghost spot over a stored
    /// spectator atom would trap it, which
    /// [`crate::aod_program::validate_program`] rejects. [`BatchRun`]
    /// groups moves by pairwise AOD compatibility only — it cannot see
    /// occupancy at execution time — so each wave here accepts a move
    /// only if the *lowered candidate transaction would validate*
    /// against the current occupancy; rejected moves split off into
    /// follow-up transactions. The predicate is evaluated incrementally
    /// by [`DeltaGrid`] (only the candidate's new grid intersections
    /// are probed; deep grids fall back to the full validator), which
    /// is exactly equivalent to lowering + validating the candidate
    /// batch — so "every emitted batch passes validation" stays true by
    /// construction, re-asserted here in debug builds. A single move
    /// always validates (its 1×1 grid is its own source/target), so
    /// every wave makes progress.
    fn flush_run(&mut self) {
        if self.run.batches.is_empty() {
            return;
        }
        // Cancellation checkpoint: one wave of batch validation is the
        // scheduler's unit of work between polls. A tripped token
        // abandons the run — the whole schedule is discarded upstream.
        if self.poll_cancel() {
            self.run.batches.clear();
            return;
        }
        let batch_cap = self.aod.max_batch_moves.unwrap_or(usize::MAX).max(1);
        // Take the reusable buffers out of `self` so the loop can borrow
        // the scheduler mutably; all of them go back (with their
        // capacity) at the end.
        let mut batches = std::mem::take(&mut self.run.batches);
        let mut accepted = std::mem::take(&mut self.scratch.accepted);
        let mut deferred = std::mem::take(&mut self.scratch.deferred);
        let mut delta = std::mem::take(&mut self.scratch.delta);
        for batch in &mut batches {
            // `batch` holds this wave's pending moves; rejected ones
            // cycle back into it through `deferred`.
            while !batch.is_empty() {
                accepted.clear();
                deferred.clear();
                delta.clear();
                for mv in batch.drain(..) {
                    // Backend batch cap (AodConstraints) before the
                    // protocol validator.
                    if accepted.len() >= batch_cap {
                        deferred.push(mv);
                        continue;
                    }
                    // The wave's opening move is accepted unchecked —
                    // its 1×1 grid covers only its own source/target.
                    let checked = !accepted.is_empty();
                    if !checked
                        || delta.admits(&mv, &mut accepted, &self.lattice, &self.site_free_at)
                    {
                        delta.commit(&mv, checked);
                        accepted.push(mv);
                    } else {
                        deferred.push(mv);
                    }
                }
                debug_assert!(
                    accepted.len() <= 1
                        || validate_program_with(&lower_batch(&accepted), &self.lattice, |site| {
                            self.site_free_at[self.lattice.index(site)].is_infinite()
                        })
                        .is_ok(),
                    "emitted batch must pass the full validator"
                );
                self.flush_batch(&accepted);
                std::mem::swap(batch, &mut deferred);
            }
        }
        // Recycle the (now empty) batch vectors for the next run.
        self.run.pool.append(&mut batches);
        self.scratch.accepted = accepted;
        self.scratch.deferred = deferred;
        self.scratch.delta = delta;
    }

    /// Records a finished item, folding its duration and fidelity terms
    /// into the Eq. (1) accumulators — the same shared per-item formula
    /// [`ScheduleMetrics::of`] folds over a finished schedule, in the
    /// same order, so both paths are bit-identical by construction.
    fn record(&mut self, item: ScheduledItem) {
        self.busy_us += item.duration_us();
        self.ln_fidelity += ScheduleMetrics::item_ln_fidelity(&item, &self.params);
        self.items.push(item);
    }

    fn earliest(&self, atoms: &[AtomId]) -> f64 {
        atoms
            .iter()
            .map(|a| self.avail[a.index()])
            .fold(0.0, f64::max)
    }

    fn occupy(&mut self, atoms: &[AtomId], start: f64, dur: f64) {
        for a in atoms {
            self.avail[a.index()] = start + dur;
        }
        self.makespan = self.makespan.max(start + dur);
    }

    fn push_single(&mut self, atom: AtomId, site: Site, dur: f64, op_index: Option<usize>) {
        let start = self.earliest(&[atom]);
        self.occupy(&[atom], start, dur);
        self.record(ScheduledItem::SingleQubit {
            atom,
            site,
            start_us: start,
            duration_us: dur,
            op_index,
        });
    }

    fn push_rydberg(
        &mut self,
        atoms: Vec<AtomId>,
        sites: Vec<Site>,
        dur: f64,
        op_index: Option<usize>,
    ) {
        let t0 = self.earliest(&atoms);
        let start = self.restrict.earliest_clear(&sites, t0, dur);
        self.occupy(&atoms, start, dur);
        self.restrict.insert(start, start + dur, &sites);
        self.record(ScheduledItem::Rydberg {
            atoms,
            sites,
            start_us: start,
            duration_us: dur,
            op_index,
        });
    }

    fn push_swap(&mut self, atoms: [AtomId; 2], sites: [Site; 2]) {
        let dur = self.params.swap_time_us();
        let t0 = self.earliest(&atoms);
        let start = self.restrict.earliest_clear(&sites, t0, dur);
        self.occupy(&atoms, start, dur);
        self.restrict.insert(start, start + dur, &sites);
        self.record(ScheduledItem::SwapComposite {
            atoms,
            sites,
            start_us: start,
            duration_us: dur,
        });
    }

    fn flush_batch(&mut self, moves: &[BatchedMove]) {
        if moves.is_empty() {
            return;
        }
        let atoms: Vec<AtomId> = moves.iter().map(|m| m.atom).collect();
        // Besides atom availability, every target site must have been
        // vacated (chains move a blocker away before reusing its trap),
        // and the single AOD device must be free: concurrent
        // transactions would superimpose their grids, re-creating the
        // ghost-spot collisions the batch partition avoids.
        let start = moves
            .iter()
            .map(|m| self.site_free_at[self.lattice.index(m.to)])
            .fold(self.earliest(&atoms).max(self.aod_free_at), f64::max);
        debug_assert!(start.is_finite(), "move into a never-vacated site");
        let max_dist = moves
            .iter()
            .map(|m| m.from.rectilinear_distance(m.to))
            .fold(0.0, f64::max);
        let dur = self.params.shuttle_time_us(max_dist);
        self.occupy(&atoms, start, dur);
        self.aod_free_at = start + dur;
        for m in moves {
            self.site_free_at[self.lattice.index(m.from)] = start + dur;
            self.site_free_at[self.lattice.index(m.to)] = f64::INFINITY;
        }
        self.record(ScheduledItem::AodBatch {
            moves: moves.to_vec(),
            start_us: start,
            duration_us: dur,
        });
    }
}

impl OpSink for IncrementalScheduler {
    /// Streams the mapper's output straight into the scheduler — the
    /// fused map→schedule pass.
    fn accept(&mut self, op: MappedOp) {
        self.push(&op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_circuit::generators::{GraphState, Qft};
    use na_mapper::{HybridMapper, MapperConfig};

    fn params(preset: HardwareParams, side: u32, atoms: u32) -> HardwareParams {
        preset
            .to_builder()
            .lattice(side, 3.0)
            .num_atoms(atoms)
            .build()
            .expect("valid")
    }

    fn map_with(p: &HardwareParams, cfg: MapperConfig, circuit: &Circuit) -> MappedCircuit {
        HybridMapper::new(p.clone(), cfg)
            .expect("valid")
            .map(circuit)
            .expect("mappable")
            .mapped
    }

    #[test]
    fn original_schedule_respects_dependencies() {
        let p = params(HardwareParams::mixed(), 5, 12);
        let s = Scheduler::new(p);
        let mut c = Circuit::new(3);
        c.h(0).cz(0, 1).h(1);
        let schedule = s.schedule_original(&c);
        assert_eq!(schedule.len(), 3);
        // h(0) at 0, cz after it, h(1) after cz.
        assert_eq!(schedule.items[0].start_us(), 0.0);
        assert!(schedule.items[1].start_us() >= 0.5);
        assert!(schedule.items[2].start_us() >= schedule.items[1].end_us() - 1e-9);
        assert!((schedule.makespan_us - (0.5 + 0.2 + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn parallel_gates_overlap_in_original() {
        let p = params(HardwareParams::mixed(), 5, 12);
        let s = Scheduler::new(p);
        let mut c = Circuit::new(4);
        c.cz(0, 1).cz(2, 3);
        let schedule = s.schedule_original(&c);
        assert_eq!(schedule.items[0].start_us(), 0.0);
        assert_eq!(schedule.items[1].start_us(), 0.0);
        assert!((schedule.makespan_us - 0.2).abs() < 1e-12);
    }

    #[test]
    fn restriction_serializes_nearby_rydberg_gates() {
        // Two CZ gates on disjoint atom pairs that sit within r_restr of
        // each other must not overlap in the mapped schedule.
        let p = params(HardwareParams::mixed(), 5, 12); // r_restr = 2.5
        let s = Scheduler::new(p.clone());
        let mut c = Circuit::new(4);
        c.cz(0, 1).cz(2, 3); // atoms at (0,0),(1,0),(2,0),(3,0): within 2.5
        let mapped = map_with(&p, MapperConfig::gate_only(), &c);
        let schedule = s.schedule_mapped(&mapped);
        let rydberg: Vec<_> = schedule.items.iter().filter(|i| i.is_rydberg()).collect();
        assert_eq!(rydberg.len(), 2);
        let (a, b) = (&rydberg[0], &rydberg[1]);
        let disjoint_in_time =
            a.end_us() <= b.start_us() + 1e-9 || b.end_us() <= a.start_us() + 1e-9;
        assert!(disjoint_in_time, "restricted gates must serialize");
    }

    #[test]
    fn distant_rydberg_gates_parallelize() {
        let p = params(HardwareParams::mixed(), 8, 40); // r_restr = 2.5
        let s = Scheduler::new(p.clone());
        let mut c = Circuit::new(40);
        // Atoms (0,0),(1,0) and (0,4),(1,4): distance 4 > 2.5.
        c.cz(0, 1).cz(32, 33);
        let mapped = map_with(&p, MapperConfig::gate_only(), &c);
        let schedule = s.schedule_mapped(&mapped);
        let rydberg: Vec<_> = schedule.items.iter().filter(|i| i.is_rydberg()).collect();
        assert_eq!(rydberg.len(), 2);
        assert_eq!(rydberg[0].start_us(), rydberg[1].start_us());
    }

    #[test]
    fn compatible_moves_batch_together() {
        let p = params(HardwareParams::shuttling(), 6, 12);
        let s = Scheduler::new(p.clone());
        let qft = Qft::new(10).build();
        let mapped = map_with(&p, MapperConfig::shuttle_only(), &qft);
        let schedule = s.schedule_mapped(&mapped);
        assert_eq!(schedule.move_count(), mapped.shuttle_count());
        // Batching never increases the transaction count.
        assert!(schedule.batch_count() <= schedule.move_count());
    }

    /// Regression: two AOD-compatible moves whose combined target grid
    /// puts a deactivation ghost spot over a stored spectator atom must
    /// be split into separate transactions. Identity layout, 13 atoms:
    /// atom 12 sits at (0,2); the targets (0,3) and (2,2) would form the
    /// intersection (0,2) right above it.
    #[test]
    fn ghost_spot_collisions_split_batches() {
        let p = params(HardwareParams::shuttling(), 6, 13);
        let s = Scheduler::new(p.clone());
        let mut mapped = MappedCircuit::new(13, 13);
        mapped.ops.push(MappedOp::Shuttle {
            atom: AtomId(6),
            from: Site::new(0, 1),
            to: Site::new(0, 3),
        });
        mapped.ops.push(MappedOp::Shuttle {
            atom: AtomId(1),
            from: Site::new(1, 0),
            to: Site::new(2, 2),
        });
        let schedule = s.schedule_mapped(&mapped);
        assert_eq!(
            schedule.batch_count(),
            2,
            "colliding targets must not share a transaction"
        );
        // The split is only physical if the transactions are disjoint in
        // time: one AOD device means concurrent transactions would
        // superimpose their grids and re-create the collision.
        let batches: Vec<_> = schedule
            .items
            .iter()
            .filter(|i| matches!(i, ScheduledItem::AodBatch { .. }))
            .collect();
        assert!(
            batches[1].start_us() >= batches[0].end_us() - 1e-12,
            "split transactions must serialize on the AOD device"
        );
        // Each lowered transaction validates against the replayed
        // occupancy (the guard that caught the original bug).
        let lattice = na_arch::Lattice::new(p.lattice_side);
        let mut site_of_atom: Vec<Site> = na_mapper::InitialLayout::Identity.place(&lattice, 13);
        for item in &schedule.items {
            if let ScheduledItem::AodBatch { moves, .. } = item {
                let program = crate::aod_program::lower_batch(moves);
                crate::aod_program::validate_program(&program, &lattice, &site_of_atom)
                    .expect("split transactions validate");
                for m in moves {
                    site_of_atom[m.atom.index()] = m.to;
                }
            }
        }
    }

    /// Regression: load-phase ghost spots. A batch spanning ≥5 distinct
    /// source rows accumulates 4 × `LOAD_OFFSET` = 1.0 of grid drift
    /// during sequential loading, putting the first row/column lines
    /// back on-lattice while later rows activate — over the spectator
    /// atom at (4, 1) here. The flush partition must split such batches
    /// so every emitted transaction passes `validate_program`.
    #[test]
    fn load_phase_ghost_spots_split_batches() {
        use na_circuit::{GateKind, Operation, Qubit};
        let p = params(HardwareParams::shuttling(), 8, 13);
        let s = Scheduler::new(p.clone());
        let shuttle = |atom: u32, from: Site, to: Site| MappedOp::Shuttle {
            atom: AtomId(atom),
            from,
            to,
        };
        let mut mapped = MappedCircuit::new(13, 13);
        // Identity layout on the 8-lattice: atoms 0–7 fill row 0, atoms
        // 8–12 fill (0,1)…(4,1). Set up sources on the diagonal.
        mapped
            .ops
            .push(shuttle(2, Site::new(2, 0), Site::new(2, 2)));
        mapped
            .ops
            .push(shuttle(3, Site::new(3, 0), Site::new(3, 3)));
        mapped
            .ops
            .push(shuttle(4, Site::new(4, 0), Site::new(4, 4)));
        // A gate seals the setup run.
        mapped.ops.push(MappedOp::Gate {
            op_index: 0,
            op: Operation::new(GateKind::H, vec![Qubit(0)]).unwrap(),
            atoms: vec![AtomId(0)],
            sites: vec![Site::new(0, 0)],
        });
        // Five pairwise AOD-compatible moves across five source rows —
        // BatchRun puts them into ONE batch; atom 12 sits at (4, 1).
        mapped
            .ops
            .push(shuttle(0, Site::new(0, 0), Site::new(0, 3)));
        mapped
            .ops
            .push(shuttle(9, Site::new(1, 1), Site::new(1, 4)));
        mapped
            .ops
            .push(shuttle(2, Site::new(2, 2), Site::new(2, 5)));
        mapped
            .ops
            .push(shuttle(3, Site::new(3, 3), Site::new(3, 6)));
        mapped
            .ops
            .push(shuttle(4, Site::new(4, 4), Site::new(4, 7)));
        let schedule = s.schedule_mapped(&mapped);
        // Replay-validate every emitted transaction — the partition
        // predicate is the validator, so this must hold.
        let lattice = na_arch::Lattice::new(p.lattice_side);
        let mut site_of_atom: Vec<Site> = na_mapper::InitialLayout::Identity.place(&lattice, 13);
        let gate_pos = schedule
            .items
            .iter()
            .position(|i| matches!(i, ScheduledItem::SingleQubit { .. }))
            .expect("the sealing gate is scheduled");
        let mut payload_batches = 0;
        for (pos, item) in schedule.items.iter().enumerate() {
            if let ScheduledItem::AodBatch { moves, .. } = item {
                let occupied: Vec<Site> = site_of_atom.clone();
                let program = crate::aod_program::lower_batch(moves);
                crate::aod_program::validate_program(&program, &lattice, &occupied)
                    .unwrap_or_else(|e| panic!("emitted transaction fails validation: {e}"));
                for m in moves {
                    site_of_atom[m.atom.index()] = m.to;
                }
                if pos > gate_pos {
                    payload_batches += 1;
                }
            }
        }
        assert!(
            payload_batches >= 2,
            "the five-row batch must have been split (got {payload_batches} transactions)"
        );
    }

    #[test]
    fn aod_batch_cap_splits_transactions() {
        let p = params(HardwareParams::shuttling(), 6, 12);
        let qft = Qft::new(10).build();
        let mapped = map_with(&p, MapperConfig::shuttle_only(), &qft);
        let uncapped = Scheduler::new(p.clone()).schedule_mapped(&mapped);
        let capped = Scheduler::new(p.clone())
            .with_aod_constraints(AodConstraints::capped(1))
            .schedule_mapped(&mapped);
        // Same moves, one transaction each under the cap.
        assert_eq!(capped.move_count(), uncapped.move_count());
        assert_eq!(capped.batch_count(), capped.move_count());
        assert!(capped.batch_count() >= uncapped.batch_count());
        // The capped schedule still validates batch by batch.
        let lattice = Lattice::new(p.lattice_side);
        let mut site_of_atom: Vec<Site> =
            na_mapper::InitialLayout::Identity.place(&lattice, p.num_atoms);
        for item in &capped.items {
            if let ScheduledItem::AodBatch { moves, .. } = item {
                assert_eq!(moves.len(), 1);
                let program = crate::aod_program::lower_batch(moves);
                crate::aod_program::validate_program(&program, &lattice, &site_of_atom)
                    .expect("capped transactions validate");
                for m in moves {
                    site_of_atom[m.atom.index()] = m.to;
                }
            }
        }
    }

    #[test]
    fn chain_dependent_moves_do_not_batch() {
        // A move-away followed by a move into the vacated site must be in
        // different AOD transactions.
        let p = params(HardwareParams::shuttling(), 4, 10);
        let s = Scheduler::new(p.clone());
        let mut mapped = MappedCircuit::new(2, 10);
        mapped.ops.push(MappedOp::Shuttle {
            atom: AtomId(5),
            from: Site::new(1, 1),
            to: Site::new(3, 3),
        });
        mapped.ops.push(MappedOp::Shuttle {
            atom: AtomId(0),
            from: Site::new(0, 0),
            to: Site::new(1, 1),
        });
        let schedule = s.schedule_mapped(&mapped);
        assert_eq!(schedule.batch_count(), 2);
        let ends: Vec<f64> = schedule.items.iter().map(|i| i.end_us()).collect();
        let starts: Vec<f64> = schedule.items.iter().map(|i| i.start_us()).collect();
        assert!(
            starts[1] >= ends[0] - 1e-9,
            "second batch waits for the first"
        );
    }

    #[test]
    fn mapped_makespan_at_least_original() {
        let p = params(HardwareParams::mixed(), 6, 25);
        let s = Scheduler::new(p.clone());
        let c = GraphState::new(20).edges(28).seed(2).build();
        let mapped = map_with(&p, MapperConfig::try_hybrid(1.0).expect("valid alpha"), &c);
        let t_orig = s.schedule_original(&c).makespan_us;
        let t_mapped = s.schedule_mapped(&mapped).makespan_us;
        assert!(t_mapped >= t_orig - 1e-6);
    }

    #[test]
    fn cz_accounting_matches_mapper() {
        let p = params(HardwareParams::gate_based(), 6, 25);
        let s = Scheduler::new(p.clone());
        let c = Qft::new(14).build();
        let mapped = map_with(&p, MapperConfig::gate_only(), &c);
        let schedule = s.schedule_mapped(&mapped);
        let original = s.schedule_original(&c);
        assert_eq!(schedule.cz_count() - original.cz_count(), mapped.delta_cz());
    }

    /// Regression: ASAP start times are not monotone in stream order, so
    /// the active-Rydberg list must not be pruned by the current item's
    /// start. Here gate C (later in the stream, on busy atoms) starts
    /// after gate A ends; pruning by C's start used to drop A, letting
    /// gate B (idle atoms, adjacent to A) start inside A's interval.
    #[test]
    fn restriction_survives_non_monotone_starts() {
        use na_circuit::{GateKind, Operation, Qubit};
        let p = params(HardwareParams::mixed(), 6, 4); // r_restr = 2.5
        let s = Scheduler::new(p);
        let cz = |a: u32, b: u32, sa: Site, sb: Site| MappedOp::Gate {
            op_index: 0,
            op: Operation::new(GateKind::Cz, vec![Qubit(a), Qubit(b)]).unwrap(),
            atoms: vec![AtomId(a), AtomId(b)],
            sites: vec![sa, sb],
        };
        let mut mapped = MappedCircuit::new(4, 4);
        // A: atoms 0,1 at (0,0),(1,0) — runs 0.0–0.2.
        mapped.ops.push(cz(0, 1, Site::new(0, 0), Site::new(1, 0)));
        // C: atoms 0,1 again, far away — t0 = 0.2 prunes A if pruning
        // uses the current start.
        mapped.ops.push(cz(0, 1, Site::new(5, 5), Site::new(4, 5)));
        // B: atoms 2,3 at (0,1),(1,1) — idle, so t0 = 0, but within
        // r_restr of A: must wait for A to end.
        mapped.ops.push(cz(2, 3, Site::new(0, 1), Site::new(1, 1)));
        let schedule = s.schedule_mapped(&mapped);
        assert_eq!(schedule.items[0].start_us(), 0.0);
        assert!(
            schedule.items[2].start_us() >= schedule.items[0].end_us() - 1e-12,
            "B must serialize behind A (got start {})",
            schedule.items[2].start_us()
        );
    }

    #[test]
    fn incremental_metrics_match_of() {
        let p = params(HardwareParams::mixed(), 6, 25);
        let c = GraphState::new(18).edges(28).seed(4).build();
        let mapped = map_with(&p, MapperConfig::try_hybrid(1.0).expect("valid alpha"), &c);
        let mut inc =
            IncrementalScheduler::new(&p, mapped.num_qubits, mapped.num_atoms, mapped.layout);
        for op in mapped.iter() {
            inc.push(op);
        }
        let (schedule, metrics) = inc.finish_with_metrics();
        assert_eq!(schedule, Scheduler::new(p.clone()).schedule_mapped(&mapped));
        // Bit-identical, not approximately equal: same terms, same order.
        assert_eq!(metrics, crate::ScheduleMetrics::of(&schedule, &p));
    }

    #[test]
    fn fused_map_into_matches_two_pass() {
        let p = params(HardwareParams::mixed(), 6, 25);
        let c = Qft::new(14).build();
        let mapper = HybridMapper::new(
            p.clone(),
            MapperConfig::try_hybrid(1.0).expect("valid alpha"),
        )
        .expect("valid");

        // Fused: one pass, mapper streams into the scheduler while also
        // retaining the op stream for the two-pass replay.
        let mut mapped = MappedCircuit::new(c.num_qubits(), p.num_atoms);
        let mut inc = IncrementalScheduler::new(&p, c.num_qubits(), p.num_atoms, mapped.layout);
        struct Both<'a>(&'a mut MappedCircuit, &'a mut IncrementalScheduler);
        impl na_mapper::OpSink for Both<'_> {
            fn accept(&mut self, op: MappedOp) {
                self.1.push(&op);
                self.0.accept(op);
            }
        }
        mapper
            .map_into(
                &c,
                &mut Both(&mut mapped, &mut inc),
                &mut na_mapper::MapScratch::new(),
                None,
            )
            .expect("mappable");
        let fused = inc.finish();

        // Legacy two-pass over the identical stream.
        let two_pass = Scheduler::new(p).schedule_mapped(&mapped);
        assert_eq!(
            fused, two_pass,
            "fused pass must be item-for-item identical"
        );
    }

    #[test]
    fn atoms_never_overlap_in_time() {
        let p = params(HardwareParams::mixed(), 6, 25);
        let s = Scheduler::new(p.clone());
        let c = GraphState::new(18).edges(30).seed(8).build();
        let mapped = map_with(&p, MapperConfig::try_hybrid(1.0).expect("valid alpha"), &c);
        let schedule = s.schedule_mapped(&mapped);
        // Per-atom intervals must be disjoint — dense busy-interval map
        // indexed by atom id (same idiom as the scheduler's hot path).
        let mut per_atom: Vec<Vec<(f64, f64)>> = vec![Vec::new(); schedule.num_atoms as usize];
        for item in &schedule.items {
            for a in item.atoms() {
                per_atom[a.index()].push((item.start_us(), item.end_us()));
            }
        }
        for (atom, intervals) in per_atom.iter_mut().enumerate() {
            intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in intervals.windows(2) {
                assert!(w[0].1 <= w[1].0 + 1e-9, "atom {atom} double-booked: {w:?}");
            }
        }
    }

    /// Builds a random-but-valid shuttle stream from proptest choices:
    /// every move picks a currently stored atom and a currently free
    /// target trap (tracked against the identity layout), so the stream
    /// is feasible by construction. An occasional single-qubit gate seals
    /// the open run, exercising multiple flush waves against evolved
    /// occupancy.
    fn shuttle_stream(
        lattice: &Lattice,
        num_atoms: u32,
        choices: &[(usize, usize, u8)],
    ) -> MappedCircuit {
        use na_circuit::{GateKind, Operation, Qubit};
        let mut mapped = MappedCircuit::new(num_atoms, num_atoms);
        let mut pos: Vec<Site> = InitialLayout::Identity.place(lattice, num_atoms);
        let mut occupied = vec![false; lattice.num_sites()];
        for s in &pos {
            occupied[lattice.index(*s)] = true;
        }
        let mut free: Vec<Site> = (0..lattice.num_sites())
            .map(|i| lattice.site(i))
            .filter(|s| !occupied[lattice.index(*s)])
            .collect();
        for &(ai, fi, kind) in choices {
            if kind % 5 == 0 {
                mapped.ops.push(MappedOp::Gate {
                    op_index: 0,
                    op: Operation::new(GateKind::H, vec![Qubit(0)]).unwrap(),
                    atoms: vec![AtomId(0)],
                    sites: vec![pos[0]],
                });
                continue;
            }
            if free.is_empty() {
                break;
            }
            let a = ai % pos.len();
            let from = pos[a];
            let to = free.swap_remove(fi % free.len());
            occupied[lattice.index(from)] = false;
            occupied[lattice.index(to)] = true;
            free.push(from);
            pos[a] = to;
            mapped.ops.push(MappedOp::Shuttle {
                atom: AtomId(a as u32),
                from,
                to,
            });
        }
        mapped
    }

    /// The seed's flush partition: per wave, collect the occupied sites,
    /// then accept each pending move iff lowering the whole candidate
    /// batch passes the full `validate_program` (first move of a wave
    /// unchecked, exactly like the original `accepted.len() > 1` guard).
    fn reference_flush(
        lattice: &Lattice,
        occupancy: &mut [bool],
        run: &mut BatchRun,
        emitted: &mut Vec<Vec<BatchedMove>>,
    ) {
        for mut batch in std::mem::take(&mut run.batches) {
            while !batch.is_empty() {
                let occupied: Vec<Site> = (0..lattice.num_sites())
                    .map(|i| lattice.site(i))
                    .filter(|s| occupancy[lattice.index(*s)])
                    .collect();
                let mut accepted: Vec<BatchedMove> = Vec::new();
                let mut deferred: Vec<BatchedMove> = Vec::new();
                for mv in batch.drain(..) {
                    accepted.push(mv);
                    let ok = accepted.len() == 1
                        || crate::aod_program::validate_program(
                            &lower_batch(&accepted),
                            lattice,
                            &occupied,
                        )
                        .is_ok();
                    if !ok {
                        deferred.push(accepted.pop().unwrap());
                    }
                }
                for m in &accepted {
                    occupancy[lattice.index(m.from)] = false;
                    occupancy[lattice.index(m.to)] = true;
                }
                emitted.push(accepted);
                std::mem::swap(&mut batch, &mut deferred);
            }
        }
    }

    /// Schedules the stream through the production `IncrementalScheduler`
    /// (DeltaGrid partition) and through the seed's full-validation
    /// partition, asserting batch-for-batch identical transactions.
    fn assert_delta_matches_full_validation(
        lattice: Lattice,
        num_atoms: u32,
        choices: &[(usize, usize, u8)],
    ) {
        let mapped = shuttle_stream(&lattice, num_atoms, choices);
        let p = HardwareParams::shuttling()
            .to_builder()
            .lattice(lattice.side(), 3.0)
            .num_atoms(num_atoms)
            .build()
            .expect("valid");
        let mut inc = IncrementalScheduler::with_topology(
            &p,
            lattice,
            AodConstraints::default(),
            num_atoms,
            num_atoms,
            InitialLayout::Identity,
        );
        for op in mapped.iter() {
            inc.push(op);
        }
        let schedule = inc.finish();
        let actual: Vec<Vec<BatchedMove>> = schedule
            .items
            .iter()
            .filter_map(|i| match i {
                ScheduledItem::AodBatch { moves, .. } => Some(moves.clone()),
                _ => None,
            })
            .collect();

        let mut occupancy = vec![false; lattice.num_sites()];
        for s in InitialLayout::Identity.place(&lattice, num_atoms) {
            occupancy[lattice.index(s)] = true;
        }
        let mut run = BatchRun::new();
        let mut expected: Vec<Vec<BatchedMove>> = Vec::new();
        for op in mapped.iter() {
            if let MappedOp::Shuttle { atom, from, to } = op {
                run.push(BatchedMove {
                    atom: *atom,
                    from: *from,
                    to: *to,
                });
            } else {
                reference_flush(&lattice, &mut occupancy, &mut run, &mut expected);
            }
        }
        reference_flush(&lattice, &mut occupancy, &mut run, &mut expected);
        assert_eq!(
            actual, expected,
            "partitions must be batch-for-batch identical"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// ISSUE equivalence property: DeltaGrid batch acceptance ≡ full
        /// `validate_program` replay on random move batches (square
        /// lattice). Sides up to 8 span both the ≤4-source-row delta
        /// path and the deep-grid full-validator fallback.
        #[test]
        fn delta_acceptance_matches_full_validation(
            side in 3u32..9,
            atoms_frac in 0.2f64..0.9,
            choices in proptest::collection::vec(
                (0usize..100_000, 0usize..100_000, 0u8..10),
                1..60,
            ),
        ) {
            let lattice = Lattice::new(side);
            let max = lattice.num_sites() as u32 - 1;
            let num_atoms = ((lattice.num_sites() as f64 * atoms_frac) as u32).clamp(1, max);
            assert_delta_matches_full_validation(lattice, num_atoms, &choices);
        }

        /// Same property over a zoned lattice: identity layout packs the
        /// storage band, so flush waves cross the gap rows.
        #[test]
        fn delta_acceptance_matches_full_validation_zoned(
            side in 4u32..9,
            zone in 1u32..3,
            gap in 1u32..3,
            atoms_frac in 0.2f64..0.9,
            choices in proptest::collection::vec(
                (0usize..100_000, 0usize..100_000, 0u8..10),
                1..60,
            ),
        ) {
            let lattice = Lattice::zoned(side, zone, gap).expect("valid banding");
            let max = lattice.num_sites() as u32 - 1;
            let num_atoms = ((lattice.num_sites() as f64 * atoms_frac) as u32).clamp(1, max);
            assert_delta_matches_full_validation(lattice, num_atoms, &choices);
        }
    }
}
