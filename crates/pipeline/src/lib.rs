//! The compile front-end: target-bound [`Compiler`] sessions running the
//! fused map → schedule → lower → metrics pass, a multi-threaded batch
//! interface, and a versioned JSON job layer.
//!
//! The paper's flow is four conceptual stages: hybrid mapping
//! (`na-mapper`), restriction-aware ASAP scheduling with AOD batching
//! (`na-schedule`), lowering of every AOD batch to native instructions
//! (`na_schedule::aod_program`), and the Eq. (1) fidelity metrics. A
//! [`Compiler`] runs them as **one fused pass**: the mapper streams each
//! [`MappedOp`](na_mapper::MappedOp) through an
//! [`OpSink`](na_mapper::OpSink) into `na-schedule`'s
//! [`IncrementalScheduler`](na_schedule::IncrementalScheduler), so
//! batching, restriction checks and metric accumulation happen while
//! routing is still in progress — no second walk over the op stream on
//! the hot path. Every lowered AOD batch is re-validated against the
//! replayed lattice occupancy and violations surface as a typed
//! [`CompileError`] instead of silent success.
//!
//! ```text
//! circuit ──route──▶ OpSink ──┬──▶ MappedCircuit      (artifact)
//!                             └──▶ IncrementalScheduler
//!                                   │ restriction checks, AOD merging,
//!                                   │ Eq. (1) accumulators, op-by-op
//!                                   ▼
//!                        Schedule + ScheduleMetrics
//!                                   │ lower_batch + validate_program
//!                                   ▼
//!                            CompiledProgram
//! ```
//!
//! # The session API
//!
//! A session binds one backend [`Target`](na_arch::Target) — the
//! paper's square-lattice machine ([`na_arch::HardwareParams`]), a
//! zoned storage/interaction layout ([`na_arch::ZonedTarget`]), or any
//! custom implementation — and validates every option at build time:
//!
//! ```
//! use na_arch::HardwareParams;
//! use na_circuit::generators::Qft;
//! use na_pipeline::{Compiler, MappingOptions};
//!
//! let target = HardwareParams::mixed()
//!     .to_builder()
//!     .lattice(6, 3.0)
//!     .num_atoms(16)
//!     .build()?;
//! let compiler = Compiler::for_target(&target)
//!     .mapping(MappingOptions::hybrid(1.0))
//!     .baseline(true)
//!     .build()?;
//! let program = compiler.compile(&Qft::new(10).build())?;
//! assert_eq!(program.aod_programs.len(), program.schedule.batch_count());
//! assert!(program.metrics.makespan_us > 0.0);
//! println!("{}", program.to_json());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A service front-end can drive the same session from one JSON
//! document in and one out — see [`job`].
//!
//! Each layer has one compile entry point with one convenience
//! wrapper: [`Compiler::compile_with`] takes the caller's warm
//! [`CompileScratch`] and an optional
//! [`CancelToken`](na_mapper::CancelToken), and [`Compiler::compile`]
//! is the same call with a fresh scratch and no token.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod compiler;
pub mod error;
pub mod fingerprint;
pub mod job;
pub mod program;

pub use compiler::{CompileScratch, Compiler, CompilerBuilder, MappingOptions, SchedulingOptions};
pub use error::CompileError;
pub use job::{
    error_to_json, handle_json, handle_json_document, with_request_id, CompileRequest,
    CompileResponse, JobCircuit, JobOutcome, RequestError, TargetResolver,
};
pub use program::{CompileStats, CompiledProgram};
