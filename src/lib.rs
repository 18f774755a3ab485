//! Hybrid gate/shuttling circuit mapping for neutral-atom quantum
//! computers — a Rust reproduction of Schmid et al., DAC 2024
//! (arXiv:2311.14164).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`arch`] — hardware model: trap topologies (square and zoned
//!   layouts), interaction geometry, AOD shuttling constraints, Table 1c
//!   parameter presets, and the [`Target`](na_arch::Target) trait
//!   describing a compiler backend,
//! * [`circuit`] — circuit IR, commutation-aware DAG, benchmark
//!   generators, native-gate decomposition,
//! * [`mapper`] — the hybrid mapper (the paper's contribution),
//! * [`schedule`] — ASAP scheduler with restriction constraints, AOD
//!   batching, and the Eq. (1) fidelity metrics,
//! * [`pipeline`] — the compile front-end: target-bound
//!   [`Compiler`](na_pipeline::Compiler) sessions running map →
//!   schedule → AOD lowering → metrics as one fused pass, a
//!   multi-threaded batch interface, and the versioned JSON job layer
//!   ([`na_pipeline::job`]).
//!
//! # Quickstart
//!
//! ```
//! use hybrid_na::prelude::*;
//!
//! // A backend target: mixed hardware (Table 1c) scaled down to a 6x6
//! // lattice. `HardwareParams` IS a (square-lattice) `Target`; zoned
//! // storage/interaction layouts come from `ZonedTarget`.
//! let target = HardwareParams::mixed()
//!     .to_builder()
//!     .lattice(6, 3.0)
//!     .num_atoms(30)
//!     .build()?;
//!
//! // A compiler session: every option validated at build time, typed
//! // `CompileError`s instead of construction panics.
//! let compiler = Compiler::for_target(&target)
//!     .mapping(MappingOptions::hybrid(1.0))
//!     .baseline(true)
//!     .build()?;
//!
//! // One fused pass yields the mapped stream, the restriction-aware
//! // schedule, validated AOD programs, the Eq. (1) metrics and the
//! // Table 1a comparison.
//! let program = compiler.compile(&Qft::new(24).build())?;
//! let report = program.comparison.expect("baseline comparison is on by default");
//! println!(
//!     "ΔCZ = {}, ΔT = {:.1} µs, δF = {:.3}, {} AOD batches",
//!     report.delta_cz, report.delta_t_us, report.delta_f,
//!     program.stats.aod_batches,
//! );
//! // Export everything as one JSON document.
//! let json = program.to_json();
//! assert!(json.contains("\"metrics\""));
//!
//! // Batches fan out across threads, results stay in input order.
//! let circuits = vec![Qft::new(12).build(), Qft::new(16).build()];
//! let compiled = compiler.compile_batch(&circuits, 2);
//! assert!(compiled.iter().all(|r| r.is_ok()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A service front-end drives the same session from one JSON document
//! in and one out (`na_pipeline::handle_json`), and [`serve`] turns
//! that into a long-running job server — worker pool with warm scratch
//! arenas, content-addressed artifact cache, queue-cap backpressure,
//! HTTP/1.1 and stdio transports (`na-serve` binary), plus a
//! resilience layer: request deadlines with cooperative cancellation
//! ([`na_mapper::CancelToken`]), per-job panic isolation with a
//! self-healing worker pool, deadline-aware admission shedding, and a
//! deterministic fault-injection harness
//! ([`na_serve::FaultPlan`]).

pub use na_arch as arch;
pub use na_circuit as circuit;
pub use na_mapper as mapper;
pub use na_pipeline as pipeline;
pub use na_schedule as schedule;
pub use na_serve as serve;

/// Convenient single-import surface for applications.
pub mod prelude {
    pub use na_arch::{
        AodConstraints, HardwareParams, Lattice, LatticeKind, Move, NativeGateSet, NeighborTable,
        Neighborhood, RegionGrid, Site, Target, TargetSpec, ZonedTarget,
    };
    pub use na_circuit::generators::{
        cuccaro_adder, ghz, GraphState, Qaoa, Qft, Qpe, RandomCircuit, Reversible,
    };
    pub use na_circuit::sim::Statevector;
    pub use na_circuit::{decompose_to_native, qasm, Circuit, GateKind, Operation, Qubit};
    pub use na_mapper::{
        verify_mapping, verify_mapping_on, CacheStats, CancelReason, CancelToken, ConfigError,
        DistanceCache, HybridMapper, InitialLayout, MapError, MapScratch, MappedCircuit, MappedOp,
        MapperConfig, MappingOutcome, OpSink, RoundMode, StateJournal,
    };
    pub use na_pipeline::{
        error_to_json, handle_json, handle_json_document, with_request_id, CompileError,
        CompileRequest, CompileResponse, CompileScratch, CompileStats, CompiledProgram, Compiler,
        MappingOptions, SchedulingOptions, TargetResolver,
    };
    pub use na_schedule::{
        ComparisonReport, IncrementalScheduler, Schedule, ScheduleError, ScheduleMetrics, Scheduler,
    };
    pub use na_serve::{
        serve_lines, CompileService, FaultPlan, HttpOptions, HttpServer, RetryPolicy, ServeConfig,
        SubmitError,
    };
}
