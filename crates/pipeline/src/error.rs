//! The unified [`CompileError`] of the [`Compiler`](crate::Compiler)
//! session API.

use na_arch::ArchError;
use na_mapper::{ConfigError, MapError};
use na_schedule::ScheduleError;
use std::fmt;

use crate::job::RequestError;

/// The single error type of the redesigned compile API: everything
/// [`Compiler::for_target`] → `build()` → `compile`/`compile_batch` (and
/// the versioned JSON job layer on top) can fail with.
///
/// Every variant wraps its layer's typed error and exposes it through
/// [`std::error::Error::source`], so the full chain (e.g.
/// `CompileError` → [`ScheduleError`] → `AodProgramError`) prints root
/// causes.
///
/// [`Compiler::for_target`]: crate::Compiler::for_target
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The target description failed validation ([`ArchError`]).
    Target(ArchError),
    /// The mapping/scheduling options are invalid ([`ConfigError`]).
    Config(ConfigError),
    /// Mapping failed ([`MapError`]).
    Map(MapError),
    /// Scheduling or AOD lowering failed ([`ScheduleError`]).
    Schedule(ScheduleError),
    /// The JSON job document is malformed ([`RequestError`]).
    Request(RequestError),
    /// The request's `deadline_ms` budget ran out at a cancellation
    /// checkpoint (the wire layer maps this to `"kind":"deadline"`,
    /// HTTP 504-style).
    DeadlineExceeded,
    /// The compile was cancelled explicitly through its
    /// [`na_mapper::CancelToken`].
    Cancelled,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Target(e) => write!(f, "invalid target: {e}"),
            CompileError::Config(e) => write!(f, "invalid configuration: {e}"),
            CompileError::Map(e) => write!(f, "mapping failed: {e}"),
            CompileError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            CompileError::Request(e) => write!(f, "invalid compile request: {e}"),
            CompileError::DeadlineExceeded => {
                write!(f, "compile deadline exceeded before completion")
            }
            CompileError::Cancelled => write!(f, "compile cancelled"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Target(e) => Some(e),
            CompileError::Config(e) => Some(e),
            CompileError::Map(e) => Some(e),
            CompileError::Schedule(e) => Some(e),
            CompileError::Request(e) => Some(e),
            CompileError::DeadlineExceeded | CompileError::Cancelled => None,
        }
    }
}

impl From<ArchError> for CompileError {
    fn from(e: ArchError) -> Self {
        CompileError::Target(e)
    }
}

impl From<ConfigError> for CompileError {
    fn from(e: ConfigError) -> Self {
        CompileError::Config(e)
    }
}

impl From<MapError> for CompileError {
    fn from(e: MapError) -> Self {
        CompileError::Map(e)
    }
}

impl From<ScheduleError> for CompileError {
    fn from(e: ScheduleError) -> Self {
        CompileError::Schedule(e)
    }
}

impl From<RequestError> for CompileError {
    fn from(e: RequestError) -> Self {
        CompileError::Request(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_schedule::aod_program::AodProgramError;
    use std::error::Error;

    /// The unified error chains all the way to the protocol violation:
    /// `CompileError` → `ScheduleError` → `AodProgramError`.
    #[test]
    fn compile_error_source_chain_walks_to_root() {
        let e = CompileError::Schedule(ScheduleError::InvalidAodBatch {
            batch_index: 1,
            start_us: 3.0,
            source: AodProgramError::LineCrossing,
        });
        let mut chain = Vec::new();
        let mut cursor: Option<&(dyn Error + 'static)> = Some(&e);
        while let Some(err) = cursor {
            chain.push(err.to_string());
            cursor = err.source();
        }
        assert_eq!(
            chain.len(),
            3,
            "CompileError -> ScheduleError -> AodProgramError"
        );
        assert!(chain[0].contains("scheduling failed"));
        assert!(chain[1].contains("batch 1"));
        assert!(chain[2].contains("cross"));
    }
}
