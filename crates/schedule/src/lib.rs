//! Scheduling and fidelity metrics for mapped neutral-atom circuits.
//!
//! This crate implements step (5) of the paper's mapping process and the
//! evaluation metrics of §4.1:
//!
//! * **ASAP list scheduling** of the mapped operation stream with the
//!   NA-specific *restriction* constraint: Rydberg gates overlapping in
//!   time keep all their atoms at least `r_restr` apart ([`scheduler`]),
//! * **AOD batching**: consecutive compatible shuttle moves merge into a
//!   single activate–translate–deactivate transaction ([`scheduler`]),
//! * **metrics**: the approximate success probability of Eq. (1) in
//!   log-space, and the Table 1a quantities `ΔCZ`, `ΔT` and
//!   `δF = −log₁₀(P_mapped/P_original)` ([`metrics`]).
//!
//! # Example
//!
//! ```
//! use na_arch::HardwareParams;
//! use na_circuit::generators::GraphState;
//! use na_mapper::{HybridMapper, MapperConfig};
//! use na_schedule::Scheduler;
//!
//! let params = HardwareParams::mixed()
//!     .to_builder()
//!     .lattice(5, 3.0)
//!     .num_atoms(12)
//!     .build()?;
//! let circuit = GraphState::new(10).edges(13).seed(5).build();
//! let mapper = HybridMapper::new(params.clone(), MapperConfig::default())?;
//! let outcome = mapper.map(&circuit)?;
//!
//! let scheduler = Scheduler::new(params);
//! let report = scheduler.compare(&circuit, &outcome.mapped);
//! assert!(report.delta_t_us >= 0.0);
//! assert!(report.delta_f >= -1e-9); // mapping can only lose fidelity
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aod_program;
pub mod error;
pub mod export;
pub mod items;
pub mod metrics;
pub mod monte_carlo;
mod restrict;
pub mod scheduler;

pub use aod_program::{
    lower_batch, validate_program, validate_program_with, AodInstruction, AodProgram,
};
pub use error::ScheduleError;
pub use items::{Schedule, ScheduledItem};
pub use metrics::{ComparisonReport, ScheduleMetrics};
pub use scheduler::{IncrementalScheduler, Scheduler};
