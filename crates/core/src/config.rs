//! Mapper configuration.

use serde::{Deserialize, Serialize};

use crate::error::ConfigError;
use crate::layout::InitialLayout;

/// How many routing candidates one engine round may commit.
///
/// * [`RoundMode::Single`] — the classic behaviour: every round evaluates
///   the frontier and commits exactly the one globally best candidate.
/// * [`RoundMode::Speculative`] — a round batch-evaluates candidates for
///   all commit-eligible frontier gates (the first qubit-disjoint front
///   group), tags each with its conflict set via journaled speculative
///   application, and greedily commits a maximal non-conflicting subset
///   in deterministic `(tier, cost, proposal order)` order.
///
/// Speculative mode changes how many routing ops land per round (and may
/// therefore reorder the emitted op stream) but never produces an invalid
/// mapping: committed candidates have pairwise-disjoint conflict sets, so
/// each one is exactly as valid as it was when simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoundMode {
    /// One commit per routing round.
    Single,
    /// Conflict-checked multi-commit rounds.
    Speculative,
}

/// Tuning knobs of the hybrid mapping process.
///
/// Defaults reproduce the paper's evaluation settings (§4.1):
/// `λ_t = 0`, `w_l = 0.1`, `w_t = 0.1`, recency window `t = 4`.
///
/// The capability weights `α_g` (gate-based) and `α_s` (shuttling-based)
/// select the operating mode:
///
/// * `α_s = 0` — gate-based only (paper mode with pure SWAP insertion),
/// * `α_g = 0` — shuttling-based only,
/// * both positive — hybrid; only the ratio `α = α_g/α_s` matters.
///
/// # Example
///
/// ```
/// use na_mapper::MapperConfig;
/// let cfg = MapperConfig::try_hybrid(1.05).expect("valid alpha");
/// assert!((cfg.alpha_ratio().unwrap() - 1.05).abs() < 1e-12);
/// assert!(MapperConfig::gate_only().is_gate_only());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapperConfig {
    /// Weight `α_g` of the gate-based success-probability estimate.
    pub alpha_gate: f64,
    /// Weight `α_s` of the shuttling-based success-probability estimate.
    pub alpha_shuttle: f64,
    /// Lookahead weight `w_l` in both cost functions (Eq. 2 and Eq. 4).
    pub lookahead_weight: f64,
    /// Time/parallelism weight `w_t` in the shuttle cost (Eq. 4).
    pub time_weight: f64,
    /// Decay rate `λ_t` of the SWAP recency factor (Eq. 2). `0` disables
    /// the parallelism preference, minimizing plain cost.
    pub decay_rate: f64,
    /// Recency window `t`: how many recent SWAPs/moves the parallelism
    /// terms look back on.
    pub recency_window: usize,
    /// Lookahead depth in dependency steps.
    pub lookahead_depth: usize,
    /// Maximum number of gates in the lookahead layer.
    pub lookahead_max_gates: usize,
    /// Safety bound on routing operations per gate (SWAPs + moves); the
    /// mapper aborts with [`crate::MapError::RoutingStuck`] beyond
    /// `max_ops_per_gate × gate count + 1000` total operations.
    pub max_ops_per_gate: usize,
    /// Initial atom placement (the paper uses the identity layout).
    pub initial_layout: InitialLayout,
    /// How many candidates one routing round may commit.
    pub round_mode: RoundMode,
}

impl MapperConfig {
    fn base() -> Self {
        MapperConfig {
            alpha_gate: 1.0,
            alpha_shuttle: 1.0,
            lookahead_weight: 0.1,
            time_weight: 0.1,
            decay_rate: 0.0,
            recency_window: 4,
            lookahead_depth: 2,
            lookahead_max_gates: 20,
            max_ops_per_gate: 64,
            initial_layout: InitialLayout::Identity,
            round_mode: RoundMode::Speculative,
        }
    }

    /// Hybrid mode with decision ratio `α = α_g/α_s` (paper mode (C)),
    /// rejecting a non-finite or non-positive ratio with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidAlphaRatio`] if `alpha_ratio` is
    /// not finite and positive.
    pub fn try_hybrid(alpha_ratio: f64) -> Result<Self, ConfigError> {
        if !(alpha_ratio.is_finite() && alpha_ratio > 0.0) {
            return Err(ConfigError::InvalidAlphaRatio { value: alpha_ratio });
        }
        Ok(MapperConfig {
            alpha_gate: alpha_ratio,
            alpha_shuttle: 1.0,
            ..MapperConfig::base()
        })
    }

    /// Validates the configuration: weights must be finite and
    /// non-negative, and at least one capability weight positive.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, value) in [
            ("alpha_gate", self.alpha_gate),
            ("alpha_shuttle", self.alpha_shuttle),
            ("lookahead_weight", self.lookahead_weight),
            ("time_weight", self.time_weight),
            ("decay_rate", self.decay_rate),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(ConfigError::InvalidWeight { name, value });
            }
        }
        if self.alpha_gate == 0.0 && self.alpha_shuttle == 0.0 {
            return Err(ConfigError::NoCapability);
        }
        Ok(())
    }

    /// Gate-based-only mode, `α_s = 0` (paper mode (B)).
    pub fn gate_only() -> Self {
        MapperConfig {
            alpha_gate: 1.0,
            alpha_shuttle: 0.0,
            ..MapperConfig::base()
        }
    }

    /// Shuttling-only mode, `α_g = 0` (paper mode (A)).
    pub fn shuttle_only() -> Self {
        MapperConfig {
            alpha_gate: 0.0,
            alpha_shuttle: 1.0,
            ..MapperConfig::base()
        }
    }

    /// The decision ratio `α = α_g/α_s`, or `None` in a single-capability
    /// mode.
    pub fn alpha_ratio(&self) -> Option<f64> {
        if self.alpha_gate > 0.0 && self.alpha_shuttle > 0.0 {
            Some(self.alpha_gate / self.alpha_shuttle)
        } else {
            None
        }
    }

    /// Returns `true` when shuttling is disabled (`α_s = 0`).
    pub fn is_gate_only(&self) -> bool {
        self.alpha_shuttle == 0.0
    }

    /// Returns `true` when SWAP insertion is disabled (`α_g = 0`).
    pub fn is_shuttle_only(&self) -> bool {
        self.alpha_gate == 0.0
    }

    /// Sets the lookahead weight `w_l`.
    pub fn with_lookahead_weight(mut self, w: f64) -> Self {
        self.lookahead_weight = w;
        self
    }

    /// Sets the time weight `w_t`.
    pub fn with_time_weight(mut self, w: f64) -> Self {
        self.time_weight = w;
        self
    }

    /// Sets the decay rate `λ_t`.
    pub fn with_decay_rate(mut self, lambda: f64) -> Self {
        self.decay_rate = lambda;
        self
    }

    /// Sets the recency window `t`.
    pub fn with_recency_window(mut self, t: usize) -> Self {
        self.recency_window = t;
        self
    }

    /// Sets the lookahead depth and gate cap.
    pub fn with_lookahead(mut self, depth: usize, max_gates: usize) -> Self {
        self.lookahead_depth = depth;
        self.lookahead_max_gates = max_gates;
        self
    }

    /// Sets the initial atom placement.
    pub fn with_initial_layout(mut self, layout: InitialLayout) -> Self {
        self.initial_layout = layout;
        self
    }

    /// Sets the routing round mode.
    pub fn with_round_mode(mut self, mode: RoundMode) -> Self {
        self.round_mode = mode;
        self
    }
}

impl Default for MapperConfig {
    /// Hybrid mode with `α = 1`.
    fn default() -> Self {
        MapperConfig::base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = MapperConfig::default();
        assert_eq!(cfg.decay_rate, 0.0);
        assert_eq!(cfg.lookahead_weight, 0.1);
        assert_eq!(cfg.time_weight, 0.1);
        assert_eq!(cfg.recency_window, 4);
    }

    #[test]
    fn mode_predicates() {
        assert!(MapperConfig::gate_only().is_gate_only());
        assert!(!MapperConfig::gate_only().is_shuttle_only());
        assert!(MapperConfig::shuttle_only().is_shuttle_only());
        assert!(MapperConfig::try_hybrid(2.0)
            .expect("valid alpha")
            .alpha_ratio()
            .is_some());
        assert!(MapperConfig::gate_only().alpha_ratio().is_none());
    }

    #[test]
    fn try_hybrid_rejects_bad_ratios() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                MapperConfig::try_hybrid(bad),
                Err(ConfigError::InvalidAlphaRatio { .. })
            ));
        }
        assert!(MapperConfig::try_hybrid(1.5).is_ok());
    }

    #[test]
    fn round_mode_knobs() {
        let cfg = MapperConfig::default();
        assert_eq!(cfg.round_mode, RoundMode::Speculative);
        let cfg = cfg.with_round_mode(RoundMode::Single);
        assert_eq!(cfg.round_mode, RoundMode::Single);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_catches_hand_built_configs() {
        let mut cfg = MapperConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.alpha_gate = f64::NAN;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::InvalidWeight {
                name: "alpha_gate",
                ..
            })
        ));
        cfg.alpha_gate = 0.0;
        cfg.alpha_shuttle = 0.0;
        assert!(matches!(cfg.validate(), Err(ConfigError::NoCapability)));
    }

    #[test]
    fn builder_setters_chain() {
        let cfg = MapperConfig::try_hybrid(1.0)
            .expect("valid alpha")
            .with_lookahead_weight(0.3)
            .with_time_weight(0.2)
            .with_decay_rate(0.5)
            .with_recency_window(8)
            .with_lookahead(3, 40);
        assert_eq!(cfg.lookahead_weight, 0.3);
        assert_eq!(cfg.time_weight, 0.2);
        assert_eq!(cfg.decay_rate, 0.5);
        assert_eq!(cfg.recency_window, 8);
        assert_eq!((cfg.lookahead_depth, cfg.lookahead_max_gates), (3, 40));
    }
}
