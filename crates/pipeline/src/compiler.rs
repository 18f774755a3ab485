//! The `Compiler` builder/session API: one compiler per backend
//! [`Target`], configured through validating option sets instead of
//! panicking constructors.
//!
//! ```text
//! Compiler::for_target(&target)      // any na_arch::Target
//!     .mapping(MappingOptions::hybrid(1.0))
//!     .scheduling(SchedulingOptions::default())
//!     .baseline(true)
//!     .build()?                      // -> Result<Compiler, CompileError>
//!     .compile(&circuit)?            // -> Result<CompiledProgram, CompileError>
//! ```
//!
//! Construction never panics: a non-finite α or an undersized lattice
//! becomes a typed [`CompileError`] case from
//! [`CompilerBuilder::build`].

use std::time::{Duration, Instant};

use na_arch::{AodConstraints, HardwareParams, Site, Target, TargetSpec};
use na_circuit::Circuit;
use na_mapper::{
    CancelReason, CancelToken, ConfigError, HybridMapper, InitialLayout, MapError, MapScratch,
    MappedCircuit, MappedOp, MapperConfig, OpSink, RoundMode,
};
use na_schedule::aod_program::{lower_batch, validate_program_with};
use na_schedule::{
    ComparisonReport, IncrementalScheduler, Schedule, ScheduleError, ScheduleMetrics,
    ScheduledItem, Scheduler,
};

use crate::error::CompileError;
use crate::program::{CompileStats, CompiledProgram};

/// Mapping options of a [`Compiler`] session: a deferred-validation
/// mirror of [`MapperConfig`] whose invalid states surface as
/// [`CompileError::Config`] from [`CompilerBuilder::build`] instead of
/// panicking at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingOptions {
    pub(crate) mode: MappingMode,
    pub(crate) initial_layout: Option<InitialLayout>,
    pub(crate) round_mode: Option<RoundMode>,
}

/// The capability mode of a mapping session.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MappingMode {
    /// Hybrid routing with decision ratio `α = α_g/α_s` (validated at
    /// build time).
    Hybrid {
        /// The (unvalidated) ratio.
        alpha_ratio: f64,
    },
    /// Gate-based-only routing (paper mode (B)).
    GateOnly,
    /// Shuttling-only routing (paper mode (A)).
    ShuttleOnly,
    /// A fully explicit configuration (validated at build time).
    Custom(MapperConfig),
}

impl MappingOptions {
    /// Hybrid mode with decision ratio `α = α_g/α_s`. The ratio is
    /// validated by [`CompilerBuilder::build`], not here.
    pub fn hybrid(alpha_ratio: f64) -> Self {
        MappingOptions {
            mode: MappingMode::Hybrid { alpha_ratio },
            initial_layout: None,
            round_mode: None,
        }
    }

    /// Gate-based-only mode (`α_s = 0`).
    pub fn gate_only() -> Self {
        MappingOptions {
            mode: MappingMode::GateOnly,
            initial_layout: None,
            round_mode: None,
        }
    }

    /// Shuttling-only mode (`α_g = 0`).
    pub fn shuttle_only() -> Self {
        MappingOptions {
            mode: MappingMode::ShuttleOnly,
            initial_layout: None,
            round_mode: None,
        }
    }

    /// An explicit [`MapperConfig`] (validated at build time).
    pub fn custom(config: MapperConfig) -> Self {
        MappingOptions {
            mode: MappingMode::Custom(config),
            initial_layout: None,
            round_mode: None,
        }
    }

    /// Overrides the initial atom placement.
    pub fn with_initial_layout(mut self, layout: InitialLayout) -> Self {
        self.initial_layout = Some(layout);
        self
    }

    /// Overrides the routing round mode (single- vs multi-commit
    /// rounds, see [`RoundMode`]).
    pub fn with_round_mode(mut self, mode: RoundMode) -> Self {
        self.round_mode = Some(mode);
        self
    }

    /// Resolves into a validated [`MapperConfig`].
    pub(crate) fn resolve(&self) -> Result<MapperConfig, ConfigError> {
        let mut config = match &self.mode {
            MappingMode::Hybrid { alpha_ratio } => MapperConfig::try_hybrid(*alpha_ratio)?,
            MappingMode::GateOnly => MapperConfig::gate_only(),
            MappingMode::ShuttleOnly => MapperConfig::shuttle_only(),
            MappingMode::Custom(config) => {
                config.validate()?;
                config.clone()
            }
        };
        if let Some(layout) = self.initial_layout {
            config.initial_layout = layout;
        }
        if let Some(mode) = self.round_mode {
            config.round_mode = mode;
        }
        Ok(config)
    }
}

impl Default for MappingOptions {
    /// Hybrid mode with `α = 1` (the paper's default).
    fn default() -> Self {
        MappingOptions::hybrid(1.0)
    }
}

/// Scheduling options of a [`Compiler`] session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulingOptions {
    pub(crate) max_batch_moves: Option<usize>,
}

impl SchedulingOptions {
    /// Caps AOD transactions at `n` moves each, on top of (and at most
    /// as permissive as) the target's own
    /// [`AodConstraints`]. `n = 0` is rejected at build time.
    pub fn max_batch_moves(mut self, n: usize) -> Self {
        self.max_batch_moves = Some(n);
        self
    }

    /// Resolves against the target's constraint set: the stricter cap
    /// wins.
    pub(crate) fn resolve(&self, target: AodConstraints) -> Result<AodConstraints, ConfigError> {
        let merged = match (self.max_batch_moves, target.max_batch_moves) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        };
        // A zero cap forbids every move regardless of whether the
        // options or the target description carried it.
        if merged == Some(0) {
            return Err(ConfigError::EmptyAodBatchCap);
        }
        Ok(AodConstraints {
            max_batch_moves: merged,
        })
    }
}

/// Builder for a [`Compiler`] session. Created by
/// [`Compiler::for_target`]; every option is validated in
/// [`CompilerBuilder::build`].
#[derive(Debug)]
pub struct CompilerBuilder {
    target: Result<TargetSpec, na_arch::ArchError>,
    mapping: MappingOptions,
    scheduling: SchedulingOptions,
    baseline: bool,
}

impl CompilerBuilder {
    /// Sets the mapping options (default: hybrid, `α = 1`).
    pub fn mapping(mut self, options: MappingOptions) -> Self {
        self.mapping = options;
        self
    }

    /// Sets the scheduling options (default: the target's AOD
    /// constraints unchanged).
    pub fn scheduling(mut self, options: SchedulingOptions) -> Self {
        self.scheduling = options;
        self
    }

    /// Enables or disables the ideal-baseline comparison (default: on).
    ///
    /// The baseline schedule of the *original* circuit is what the
    /// Table 1a `Δ` quantities are measured against; skipping it saves
    /// one (cheap, restriction-free) scheduling pass when only the
    /// mapped artifact matters.
    pub fn baseline(mut self, enabled: bool) -> Self {
        self.baseline = enabled;
        self
    }

    /// Validates everything and builds the session.
    ///
    /// # Errors
    ///
    /// * [`CompileError::Target`] — the target description is invalid
    ///   (bad physics, or more atoms than the topology holds traps).
    /// * [`CompileError::Config`] — invalid mapping/scheduling options
    ///   (non-finite or non-positive α, zero batch cap, shuttling
    ///   requested on a gate-only target).
    pub fn build(self) -> Result<Compiler, CompileError> {
        let target = self.target.map_err(CompileError::Target)?;
        let config = self.mapping.resolve().map_err(CompileError::Config)?;
        let aod = self
            .scheduling
            .resolve(target.aod)
            .map_err(CompileError::Config)?;
        // An undersized topology (fewer traps than atoms + 1) was
        // already rejected in `for_target` as
        // `CompileError::Target(ArchError::TooManyAtoms)` — the typed
        // replacement for the old layout placement abort.
        let mapper = HybridMapper::for_target(&target, config).map_err(|e| match e {
            // Configuration rejections (e.g. shuttling requested on a
            // gate-only target) are Config errors at this layer, per
            // the build() contract; only genuine mapping-layer
            // failures surface as Map.
            na_mapper::MapError::Config(e) => CompileError::Config(e),
            other => CompileError::Map(other),
        })?;
        let scheduler = Scheduler::for_target(&target).with_aod_constraints(aod);
        Ok(Compiler {
            mapper,
            scheduler,
            target,
            with_baseline: self.baseline,
        })
    }
}

/// A compile session bound to one backend target: one fused
/// map→schedule→lower→metrics pass per circuit, plus
/// [`Compiler::compile_batch`] for multi-threaded batch throughput.
///
/// Construction ([`Compiler::for_target`] → [`CompilerBuilder::build`])
/// validates the target and every option once; the session is then
/// immutable and `Sync`, so one instance serves any number of threads.
///
/// # Example
///
/// ```
/// use na_arch::HardwareParams;
/// use na_circuit::generators::Qft;
/// use na_pipeline::{Compiler, MappingOptions};
///
/// let target = HardwareParams::mixed()
///     .to_builder()
///     .lattice(6, 3.0)
///     .num_atoms(16)
///     .build()?;
/// let compiler = Compiler::for_target(&target)
///     .mapping(MappingOptions::hybrid(1.0))
///     .build()?;
/// let program = compiler.compile(&Qft::new(10).build())?;
/// assert_eq!(program.aod_programs.len(), program.schedule.batch_count());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
/// Session state is deliberately single-sourced: the routing topology
/// lives in the mapper, the effective (merged) AOD constraint set in
/// the scheduler, and `target` only records the resolved description
/// the session was built from.
#[derive(Debug, Clone)]
pub struct Compiler {
    mapper: HybridMapper,
    scheduler: Scheduler,
    target: TargetSpec,
    with_baseline: bool,
}

/// Reusable working memory of one compile thread: the mapper's routing
/// arena (journal, distance-cache pools, dense router tables) plus room
/// for future per-stage buffers.
///
/// [`Compiler::compile`] creates one per call;
/// [`Compiler::compile_with`] lets a caller keep it alive so arenas
/// stay warm across circuits — [`Compiler::compile_batch`] gives each
/// worker thread exactly one. Scratch carries buffer capacity only,
/// never decisions: results are identical either way.
#[derive(Debug, Default)]
pub struct CompileScratch {
    map: MapScratch,
}

impl CompileScratch {
    /// An empty scratch; buffers grow on first use and stay warm.
    pub fn new() -> Self {
        CompileScratch::default()
    }
}

/// Ops per scheduler block of the fused sink. Scheduling a block mid-map
/// evicts the router's hot caches, so blocks are large: circuits below
/// this size schedule in one drain right after routing (while the stream
/// is still warm), and only multi-hundred-µs compiles pay the (then
/// amortized) interleaving cost. Bounds the scheduling backlog on huge
/// circuits.
const FUSE_BLOCK: usize = 8192;

/// The fused sink: retains the op stream as the [`MappedCircuit`]
/// artifact and feeds it to the incremental scheduler in cache-warm
/// blocks — one pass, no clone, no cold re-walk. The retained stream
/// doubles as the block buffer (`scheduled` is the cursor of ops already
/// consumed by the scheduler).
struct FusedSink {
    mapped: MappedCircuit,
    scheduler: IncrementalScheduler,
    scheduled: usize,
    /// Wall-clock spent inside scheduler drains — the scheduling share
    /// of the fused pass, attributed separately from mapping in
    /// [`CompileStats`].
    sched_time: Duration,
}

impl FusedSink {
    fn drain_block(&mut self) {
        if self.scheduled == self.mapped.ops.len() {
            return;
        }
        let block_start = Instant::now();
        for op in &self.mapped.ops[self.scheduled..] {
            self.scheduler.push(op);
        }
        self.scheduled = self.mapped.ops.len();
        self.sched_time += block_start.elapsed();
    }
}

impl OpSink for FusedSink {
    fn accept(&mut self, op: MappedOp) {
        self.mapped.ops.push(op);
        if self.mapped.ops.len() - self.scheduled >= FUSE_BLOCK {
            self.drain_block();
        }
    }
}

impl Compiler {
    /// Starts a compiler session for `target` — any backend description
    /// implementing [`Target`] ([`HardwareParams`] for the paper's
    /// square-lattice machine, [`na_arch::ZonedTarget`] for a zoned
    /// storage/interaction layout, or a pre-resolved [`TargetSpec`]).
    ///
    /// Target validation errors are deferred to
    /// [`CompilerBuilder::build`], so this call never panics on an
    /// invalid description.
    pub fn for_target(target: &dyn Target) -> CompilerBuilder {
        let resolved = target.validate().map(|()| target.spec());
        CompilerBuilder {
            target: resolved,
            mapping: MappingOptions::default(),
            scheduling: SchedulingOptions::default(),
            baseline: true,
        }
    }

    /// The resolved target this session compiles for.
    pub fn target(&self) -> &TargetSpec {
        &self.target
    }

    /// The hardware parameters.
    pub fn params(&self) -> &HardwareParams {
        self.mapper.params()
    }

    /// The resolved mapper configuration.
    pub fn config(&self) -> &MapperConfig {
        self.mapper.config()
    }

    /// Whether the ideal-baseline comparison is computed.
    pub fn baseline_enabled(&self) -> bool {
        self.with_baseline
    }

    /// Compiles one circuit: fused map+schedule pass, AOD lowering with
    /// validation, Eq. (1) metrics, optional baseline comparison.
    ///
    /// # Errors
    ///
    /// * [`CompileError::Map`] — mapping failed.
    /// * [`CompileError::Schedule`] — a lowered AOD batch violated the
    ///   shuttling protocol (library bug guard; surfaced instead of
    ///   silently accepted).
    pub fn compile(&self, circuit: &Circuit) -> Result<CompiledProgram, CompileError> {
        self.compile_with(circuit, &mut CompileScratch::new(), None)
    }

    /// [`Compiler::compile`] with caller-provided working memory and an
    /// optional cooperative [`CancelToken`].
    ///
    /// The routing arena in `scratch` stays warm for the next circuit
    /// compiled with it; this is the per-worker hot path of
    /// [`Compiler::compile_batch`] and of a service worker. With
    /// `cancel` set, the token threads into the mapper round loop, the
    /// scheduler's flush waves and the per-batch lowering loop as cheap
    /// checkpoint polls (a relaxed atomic load each), so multi-second
    /// compiles observe a tripped token within one routing round.
    ///
    /// Neither argument changes the artifact: a warm scratch carries
    /// capacity only (its `route_cache` counters restart per compile),
    /// and polls are pure reads, so results are byte-identical to
    /// [`Compiler::compile`] whenever the token never trips.
    ///
    /// # Errors
    ///
    /// Same contract as [`Compiler::compile`], plus
    /// [`CompileError::DeadlineExceeded`] when the token's deadline
    /// passes and [`CompileError::Cancelled`] when it is cancelled
    /// explicitly.
    pub fn compile_with(
        &self,
        circuit: &Circuit,
        scratch: &mut CompileScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<CompiledProgram, CompileError> {
        let total_start = Instant::now();
        let params = self.mapper.params();
        let config = self.mapper.config();

        // (1)+(2) Fused map+schedule: one pass over the op stream.
        let mut sink = FusedSink {
            mapped: MappedCircuit::with_layout(
                circuit.num_qubits(),
                params.num_atoms,
                config.initial_layout,
            ),
            scheduler: IncrementalScheduler::with_topology(
                params,
                self.mapper.lattice(),
                self.scheduler.aod_constraints(),
                circuit.num_qubits(),
                params.num_atoms,
                config.initial_layout,
            ),
            scheduled: 0,
            sched_time: Duration::ZERO,
        };
        if let Some(token) = cancel {
            sink.scheduler.set_cancel(token.clone());
        }
        let run = self
            .mapper
            .map_into(circuit, &mut sink, &mut scratch.map, cancel)
            .map_err(|e| match e {
                MapError::Cancelled { reason } => cancel_error(reason),
                other => CompileError::Map(other),
            })?;
        // Scheduler drains that ran *inside* the mapping pass count
        // toward the schedule phase, not the map phase.
        let sched_during_map = sink.sched_time;
        sink.drain_block();
        let FusedSink {
            mapped,
            scheduler,
            sched_time,
            ..
        } = sink;
        // A tripped token can latch inside the scheduler between mapper
        // polls, turning later flushes into no-ops — the schedule is
        // then incomplete and must be discarded, never returned.
        if let Some(reason) = scheduler.cancelled() {
            return Err(cancel_error(reason));
        }
        let finish_start = Instant::now();
        let (schedule, metrics) = scheduler.finish_with_metrics();
        let schedule_phase = sched_time + finish_start.elapsed();
        let map_phase = run.runtime.saturating_sub(sched_during_map);

        // (3) Lower every AOD batch and validate against the replayed
        // occupancy, polling the token once per batch.
        let lower_start = Instant::now();
        let aod_programs =
            self.lower_and_validate_cancel(&schedule, cancel)
                .map_err(|e| match e {
                    LowerStop::Schedule(e) => CompileError::Schedule(e),
                    LowerStop::Cancelled(reason) => cancel_error(reason),
                })?;
        let lower_phase = lower_start.elapsed();

        // (4) Optional ideal-baseline comparison (Table 1a), preceded by
        // one last checkpoint — the baseline pass is a full scheduling
        // run of the original circuit.
        if let Some(token) = cancel {
            if let Err(reason) = token.check() {
                return Err(cancel_error(reason));
            }
        }
        let comparison = if self.with_baseline {
            let original = ScheduleMetrics::of(&self.scheduler.schedule_original(circuit), params);
            Some(ComparisonReport::between(&original, &metrics))
        } else {
            None
        };

        let stats = CompileStats {
            map: run.stats,
            map_runtime: run.runtime,
            total_runtime: total_start.elapsed(),
            map_phase,
            schedule_phase,
            lower_phase,
            aod_batches: aod_programs.len(),
            aod_moves: aod_programs.iter().map(|p| p.moves.len()).sum(),
            route_cache: scratch.map.route().distance_cache().snapshot(),
        };
        Ok(CompiledProgram {
            mapped,
            schedule,
            aod_programs,
            metrics,
            comparison,
            stats,
        })
    }

    /// Lowers each AOD batch of `schedule` to native instructions and
    /// validates it against the lattice occupancy at its position in the
    /// stream. Occupancy is replayed as a per-site bitmap updated on
    /// each committed move, so every ghost-spot probe is an O(1) lookup
    /// instead of a scan over all stored atoms. Polls the optional
    /// token once per batch.
    fn lower_and_validate_cancel(
        &self,
        schedule: &Schedule,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<na_schedule::AodProgram>, LowerStop> {
        let params = self.mapper.params();
        let lattice = self.mapper.lattice();
        let site_of_atom: Vec<Site> = self
            .mapper
            .config()
            .initial_layout
            .place(&lattice, params.num_atoms);
        let mut occupied = vec![false; lattice.num_sites()];
        for site in &site_of_atom {
            occupied[lattice.index(*site)] = true;
        }
        let mut programs = Vec::new();
        for item in &schedule.items {
            if let ScheduledItem::AodBatch {
                moves, start_us, ..
            } = item
            {
                if let Some(token) = cancel {
                    if let Err(reason) = token.check() {
                        return Err(LowerStop::Cancelled(reason));
                    }
                }
                let program = lower_batch(moves);
                validate_program_with(&program, &lattice, |site| occupied[lattice.index(site)])
                    .map_err(|source| {
                        LowerStop::Schedule(ScheduleError::InvalidAodBatch {
                            batch_index: programs.len(),
                            start_us: *start_us,
                            source,
                        })
                    })?;
                for m in moves {
                    occupied[lattice.index(m.from)] = false;
                    occupied[lattice.index(m.to)] = true;
                }
                programs.push(program);
            }
        }
        Ok(programs)
    }
}

/// Why the lowering loop stopped early (internal to `compile_with`).
enum LowerStop {
    Schedule(ScheduleError),
    Cancelled(CancelReason),
}

/// Maps a checkpoint trip to the typed compile error.
fn cancel_error(reason: CancelReason) -> CompileError {
    match reason {
        CancelReason::Explicit => CompileError::Cancelled,
        CancelReason::DeadlineExceeded => CompileError::DeadlineExceeded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_arch::ZonedTarget;
    use na_circuit::generators::{GraphState, Qft, RandomCircuit};
    use na_mapper::verify_mapping_on;

    fn small(preset: HardwareParams, side: u32, atoms: u32) -> HardwareParams {
        preset
            .to_builder()
            .lattice(side, 3.0)
            .num_atoms(atoms)
            .build()
            .expect("valid")
    }

    #[test]
    fn builder_rejects_bad_alpha() {
        let t = small(HardwareParams::mixed(), 6, 25);
        for bad in [0.0, -2.0, f64::NAN] {
            let err = Compiler::for_target(&t)
                .mapping(MappingOptions::hybrid(bad))
                .build()
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    CompileError::Config(ConfigError::InvalidAlphaRatio { .. })
                ),
                "alpha {bad} gave {err:?}"
            );
        }
    }

    #[test]
    fn builder_rejects_zero_batch_cap() {
        let t = small(HardwareParams::mixed(), 6, 25);
        let err = Compiler::for_target(&t)
            .scheduling(SchedulingOptions::default().max_batch_moves(0))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            CompileError::Config(ConfigError::EmptyAodBatchCap)
        ));
        // A zero cap in the *target description* is rejected the same
        // way, not silently clamped.
        let mut spec = na_arch::Target::spec(&t);
        spec.aod = AodConstraints::capped(0);
        assert!(matches!(
            Compiler::for_target(&spec).build().unwrap_err(),
            CompileError::Config(ConfigError::EmptyAodBatchCap)
        ));
    }

    /// The overfull zoned description used by the undersized-target
    /// rejection test: 200 atoms on a 150-trap zoned topology.
    fn overfull_zoned_spec() -> TargetSpec {
        let params = HardwareParams::mixed();
        let lattice = na_arch::Lattice::zoned(params.lattice_side, 2, 1).expect("valid banding");
        TargetSpec::resolve(
            "zoned2+1/test".into(),
            params,
            lattice,
            AodConstraints::default(),
            na_arch::NativeGateSet::default(),
        )
    }

    #[test]
    fn builder_rejects_undersized_target() {
        // Rejected with a typed error, not a placement abort.
        let err = Compiler::for_target(&overfull_zoned_spec())
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            CompileError::Target(na_arch::ArchError::TooManyAtoms { .. })
        ));
    }

    /// Stats agree with the artifact they describe, and the baseline
    /// comparison is present by default and never worse than mapping
    /// without it.
    fn assert_consistent(program: &CompiledProgram) {
        assert_eq!(program.aod_programs.len(), program.schedule.batch_count());
        assert_eq!(program.stats.aod_batches, program.aod_programs.len());
        assert_eq!(program.stats.aod_moves, program.schedule.move_count());
        assert!(program.comparison.is_some());
        assert!(program.delta_f().unwrap() >= -1e-9);
    }

    #[test]
    fn compiles_on_square_and_zoned_targets() {
        let c = GraphState::new(14).edges(18).seed(3).build();
        // Square.
        let square = small(HardwareParams::mixed(), 6, 25);
        let program = Compiler::for_target(&square)
            .build()
            .unwrap()
            .compile(&c)
            .unwrap();
        verify_mapping_on(&c, &program.mapped, &square, square.lattice()).unwrap();
        assert_consistent(&program);
        // Zoned: same physics, banded topology.
        let zoned = ZonedTarget::new(small(HardwareParams::mixed(), 8, 25), 2, 1).expect("fits");
        let compiler = Compiler::for_target(&zoned).build().unwrap();
        let program = compiler.compile(&c).unwrap();
        verify_mapping_on(&c, &program.mapped, zoned.params(), zoned.lattice()).unwrap();
        assert_consistent(&program);
    }

    /// The artifact JSON with the wall-clock stamps zeroed.
    fn stamp_free_json(mut program: CompiledProgram) -> String {
        program.stats.map_runtime = Duration::ZERO;
        program.stats.total_runtime = Duration::ZERO;
        program.stats.map_phase = Duration::ZERO;
        program.stats.schedule_phase = Duration::ZERO;
        program.stats.lower_phase = Duration::ZERO;
        program.to_json()
    }

    #[test]
    fn warm_scratch_reuse_is_artifact_identical() {
        // One scratch across heterogeneous circuits must produce exactly
        // the artifacts of per-call fresh scratch — arenas carry
        // capacity, never decisions, and the route-cache counters
        // restart per compile.
        let t = small(HardwareParams::mixed(), 6, 25);
        let compiler = Compiler::for_target(&t).build().unwrap();
        // Gate-only CCZ-heavy random circuits keep the distance cache
        // busy: hundreds of hits per compile on a 20×20 lattice.
        let wide = small(HardwareParams::mixed(), 20, 200);
        let gate_only = Compiler::for_target(&wide)
            .mapping(MappingOptions::gate_only())
            .build()
            .unwrap();
        let random = RandomCircuit::new(64)
            .layers(6)
            .two_qubit_fraction(0.5)
            .multi_qubit_fraction(0.5)
            .seed(11)
            .build();
        let jobs = [
            (&compiler, Qft::new(14).build()),
            (&compiler, GraphState::new(18).edges(24).seed(7).build()),
            (&compiler, Qft::new(10).build()),
            (&gate_only, random.clone()),
            (&gate_only, random),
        ];
        let mut scratch = CompileScratch::new();
        for (session, c) in &jobs {
            let warm = session.compile_with(c, &mut scratch, None).unwrap();
            let cold = session.compile(c).unwrap();
            assert_eq!(warm.mapped, cold.mapped);
            assert_eq!(warm.schedule, cold.schedule);
            assert_eq!(warm.metrics, cold.metrics);
            assert_eq!(warm.aod_programs, cold.aod_programs);
            assert_eq!(warm.stats.route_cache, cold.stats.route_cache);
            assert_eq!(stamp_free_json(warm), stamp_free_json(cold));
        }
        let busy = gate_only.compile(&jobs[3].1).unwrap().stats.route_cache;
        assert!(busy.hits > 0, "the random circuit must exercise the cache");
        // Gate-only routing never moves an atom, so occupancy never
        // changes and every miss is one full BFS over all 200 atoms.
        assert_eq!(busy.sites_settled, busy.misses * 200);
        // Only arity-≥3 position finding queries the cache: QFT-14 has
        // no such gate, so it never touches the cache although it
        // shuttles.
        let qft = compiler.compile(&jobs[0].1).unwrap();
        assert!(qft.mapped.shuttle_count() > 0);
        let qft_cache = qft.stats.route_cache;
        assert_eq!(qft_cache.hits + qft_cache.misses, 0);
    }

    #[test]
    fn cancelled_token_surfaces_typed_compile_errors() {
        let t = small(HardwareParams::mixed(), 6, 25);
        let compiler = Compiler::for_target(&t).build().unwrap();
        let c = Qft::new(14).build();
        // Explicit cancellation.
        let token = CancelToken::never();
        token.cancel();
        let err = compiler
            .compile_with(&c, &mut CompileScratch::new(), Some(&token))
            .unwrap_err();
        assert!(matches!(err, CompileError::Cancelled), "got {err:?}");
        // Expired deadline.
        let token = CancelToken::with_deadline(Duration::ZERO);
        let err = compiler
            .compile_with(&c, &mut CompileScratch::new(), Some(&token))
            .unwrap_err();
        assert!(matches!(err, CompileError::DeadlineExceeded), "got {err:?}");
    }

    #[test]
    fn untripped_token_is_artifact_identical() {
        let t = small(HardwareParams::mixed(), 6, 25);
        let compiler = Compiler::for_target(&t).build().unwrap();
        let c = GraphState::new(18).edges(24).seed(7).build();
        let plain = compiler.compile(&c).unwrap();
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        let watched = compiler
            .compile_with(&c, &mut CompileScratch::new(), Some(&token))
            .unwrap();
        assert_eq!(plain.mapped, watched.mapped);
        assert_eq!(plain.schedule, watched.schedule);
        assert_eq!(plain.metrics, watched.metrics);
        assert_eq!(plain.aod_programs, watched.aod_programs);
        assert_eq!(plain.comparison, watched.comparison);
    }

    #[test]
    fn baseline_can_be_disabled() {
        let t = small(HardwareParams::mixed(), 5, 12);
        let compiler = Compiler::for_target(&t).baseline(false).build().unwrap();
        assert!(!compiler.baseline_enabled());
        let program = compiler.compile(&Qft::new(8).build()).unwrap();
        assert!(program.comparison.is_none());
        assert!(program.delta_f().is_none());
    }

    #[test]
    fn too_wide_circuit_is_a_typed_map_error() {
        let t = small(HardwareParams::mixed(), 4, 8);
        let compiler = Compiler::for_target(&t).build().unwrap();
        assert!(matches!(
            compiler.compile(&Circuit::new(9)),
            Err(CompileError::Map(MapError::CircuitTooWide { .. }))
        ));
    }

    #[test]
    fn json_artifact_is_one_object_with_its_top_level_keys() {
        let t = small(HardwareParams::shuttling(), 6, 20);
        let compiler = Compiler::for_target(&t)
            .mapping(MappingOptions::shuttle_only())
            .build()
            .unwrap();
        let program = compiler.compile(&Qft::new(10).build()).unwrap();
        let json = program.to_json();
        assert!(json.trim_start().starts_with('{'));
        assert!(json.trim_end().ends_with('}'));
        for key in [
            "\"stats\"",
            "\"metrics\"",
            "\"comparison\"",
            "\"mapped\"",
            "\"schedule\"",
            "\"aod_programs\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        // Shuttle-only mapping must have lowered at least one program.
        assert!(!program.aod_programs.is_empty());
        assert!(json.contains("\"op\":\"translate\""));
    }

    #[test]
    fn scheduling_cap_carries_into_compiled_schedule() {
        let t = small(HardwareParams::shuttling(), 6, 20);
        let compiler = Compiler::for_target(&t)
            .mapping(MappingOptions::shuttle_only())
            .scheduling(SchedulingOptions::default().max_batch_moves(1))
            .build()
            .unwrap();
        let program = compiler.compile(&Qft::new(10).build()).unwrap();
        assert_eq!(
            program.schedule.batch_count(),
            program.schedule.move_count()
        );
    }
}
