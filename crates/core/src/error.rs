//! Mapper error types.

use std::error::Error;
use std::fmt;

use na_arch::ArchError;

/// Errors raised while validating a [`MapperConfig`].
///
/// These replace the construction-time panics of the original
/// constructors (`assert!` on a non-finite α, `place()` aborting on an
/// undersized lattice): the fallible paths
/// ([`MapperConfig::try_hybrid`], `Compiler::build` in `na-pipeline`)
/// surface them as typed errors instead.
///
/// [`MapperConfig`]: crate::MapperConfig
/// [`MapperConfig::try_hybrid`]: crate::MapperConfig::try_hybrid
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The hybrid decision ratio `α = α_g/α_s` is not finite and
    /// positive.
    InvalidAlphaRatio {
        /// The rejected value.
        value: f64,
    },
    /// A capability weight or cost weight is outside its domain.
    InvalidWeight {
        /// Name of the offending knob.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// Both capability weights are zero — no router could run.
    NoCapability,
    /// The AOD transaction cap would forbid every move.
    EmptyAodBatchCap,
    /// A shuttle-capable mapping mode was requested on a target whose
    /// native gate set has no shuttling.
    ShuttlingUnsupported {
        /// Identifier of the rejecting target.
        target: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidAlphaRatio { value } => {
                write!(
                    f,
                    "hybrid alpha ratio must be finite and positive, got {value}"
                )
            }
            ConfigError::InvalidWeight { name, value } => {
                write!(
                    f,
                    "mapper weight `{name}` must be finite and non-negative, got {value}"
                )
            }
            ConfigError::NoCapability => {
                write!(f, "both capability weights are zero; enable at least one of gate-based or shuttling routing")
            }
            ConfigError::EmptyAodBatchCap => {
                write!(
                    f,
                    "AOD transaction cap `max_batch_moves` must allow at least 1 move"
                )
            }
            ConfigError::ShuttlingUnsupported { target } => {
                write!(
                    f,
                    "target `{target}` has no shuttling capability; use a gate-only mapping mode"
                )
            }
        }
    }
}

impl Error for ConfigError {}

/// Errors raised during circuit mapping.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MapError {
    /// The hardware description is inconsistent.
    Arch(ArchError),
    /// The mapper configuration is invalid (see [`ConfigError`]).
    Config(ConfigError),
    /// The circuit needs more qubits than the hardware provides atoms.
    CircuitTooWide {
        /// Circuit width.
        circuit_qubits: u32,
        /// Available atoms.
        atoms: u32,
    },
    /// Routing made no progress within the safety budget — usually a sign
    /// of a hardware configuration whose interaction radius cannot realize
    /// a required multi-qubit gate geometry.
    RoutingStuck {
        /// Index of the circuit operation that could not be routed.
        op_index: usize,
        /// Routing operations spent before giving up.
        ops_spent: usize,
    },
    /// A multi-qubit gate has more operands than any geometric arrangement
    /// within `r_int` can accommodate.
    GateTooLarge {
        /// Index of the circuit operation.
        op_index: usize,
        /// Operand count.
        arity: usize,
        /// Sites available within a mutual-interaction disc.
        capacity: usize,
    },
    /// Mapping was stopped at a checkpoint by a [`CancelToken`].
    ///
    /// [`CancelToken`]: crate::CancelToken
    Cancelled {
        /// Whether the token tripped explicitly or by deadline.
        reason: crate::CancelReason,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Arch(e) => write!(f, "invalid architecture: {e}"),
            MapError::Config(e) => write!(f, "invalid mapper configuration: {e}"),
            MapError::CircuitTooWide {
                circuit_qubits,
                atoms,
            } => write!(
                f,
                "circuit needs {circuit_qubits} qubits but hardware has {atoms} atoms"
            ),
            MapError::RoutingStuck {
                op_index,
                ops_spent,
            } => write!(
                f,
                "routing stuck on operation {op_index} after {ops_spent} routing operations"
            ),
            MapError::GateTooLarge {
                op_index,
                arity,
                capacity,
            } => write!(
                f,
                "operation {op_index} acts on {arity} qubits but at most {capacity} \
                 sites fit within the interaction radius"
            ),
            MapError::Cancelled { reason } => match reason {
                crate::CancelReason::Explicit => write!(f, "mapping cancelled"),
                crate::CancelReason::DeadlineExceeded => {
                    write!(f, "mapping deadline exceeded")
                }
            },
        }
    }
}

impl Error for MapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MapError::Arch(e) => Some(e),
            MapError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArchError> for MapError {
    fn from(e: ArchError) -> Self {
        MapError::Arch(e)
    }
}

impl From<ConfigError> for MapError {
    fn from(e: ConfigError) -> Self {
        MapError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_context() {
        let e = MapError::CircuitTooWide {
            circuit_qubits: 300,
            atoms: 200,
        };
        assert!(e.to_string().contains("300"));
        let e = MapError::RoutingStuck {
            op_index: 17,
            ops_spent: 4000,
        };
        assert!(e.to_string().contains("17"));
    }

    #[test]
    fn arch_error_wraps_with_source() {
        let inner = ArchError::InvalidParameter {
            name: "r_int",
            reason: "must be positive".into(),
        };
        let e = MapError::from(inner);
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MapError>();
    }
}
