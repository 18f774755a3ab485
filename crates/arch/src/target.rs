//! Backend targets: the [`Target`] trait and its concrete
//! implementations.
//!
//! A *target* describes everything the compiler needs to know about a
//! backend: the trap topology ([`Lattice`]), the physical parameter set
//! ([`HardwareParams`] — radii, fidelities, timings), the AOD constraint
//! set ([`AodConstraints`]) and the native gate set ([`NativeGateSet`]).
//! The paper's evaluation machine is one such target
//! (`HardwareParams` itself implements [`Target`] with a square
//! lattice); [`ZonedTarget`] adds the zoned storage/interaction layout
//! of banded neutral-atom machines.
//!
//! Consumers resolve a target once into a concrete [`TargetSpec`]
//! snapshot at construction time (`Compiler::for_target` in
//! `na-pipeline` does this), so trait objects never sit on hot paths.
//!
//! # Example
//!
//! ```
//! use na_arch::{HardwareParams, Target, ZonedTarget};
//!
//! // The Table 1c mixed preset as a square-lattice target.
//! let square = HardwareParams::mixed();
//! assert_eq!(square.lattice().num_sites(), 225);
//!
//! // The same physics on a zoned layout (2 trap rows per band, 1 lane):
//! // fewer traps, so the atom count must shrink.
//! let params = HardwareParams::mixed()
//!     .to_builder()
//!     .lattice(9, 3.0)
//!     .num_atoms(30)
//!     .build()?;
//! let zoned = ZonedTarget::new(params, 2, 1)?;
//! assert_eq!(zoned.lattice().num_sites(), 6 * 9);
//! assert!(zoned.id().starts_with("zoned"));
//! # Ok::<(), na_arch::ArchError>(())
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::adjacency::NeighborTable;
use crate::error::ArchError;
use crate::lattice::Lattice;
use crate::params::HardwareParams;

/// AOD constraint set of a backend: limits the scheduler's transaction
/// batching beyond the universal shuttling protocol (which the AOD
/// program validator always enforces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AodConstraints {
    /// Maximum number of moves one AOD transaction may carry, or `None`
    /// when only the protocol validator bounds batching. Real deflector
    /// drivers cap the number of simultaneously active tones per axis;
    /// the scheduler splits larger batches.
    pub max_batch_moves: Option<usize>,
}

impl AodConstraints {
    /// Constraints capping transactions at `max_batch_moves` moves.
    pub fn capped(max_batch_moves: usize) -> Self {
        AodConstraints {
            max_batch_moves: Some(max_batch_moves),
        }
    }
}

/// Native gate set of a backend.
///
/// The mapper combines this with the interaction geometry: the largest
/// routable `CᵐZ` arity is the minimum of [`NativeGateSet::max_rydberg_arity`]
/// and the geometric cluster capacity of the topology at `r_int`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NativeGateSet {
    /// Largest `CᵐZ`-family arity the control electronics can drive
    /// (`usize::MAX` = geometry-limited only).
    pub max_rydberg_arity: usize,
    /// Whether the backend can shuttle atoms at all. Shuttle-capable
    /// mapping modes are rejected at compiler-build time on targets
    /// without it.
    pub supports_shuttling: bool,
}

impl Default for NativeGateSet {
    /// Geometry-limited `CᵐZ` family with shuttling — the paper's model.
    fn default() -> Self {
        NativeGateSet {
            max_rydberg_arity: usize::MAX,
            supports_shuttling: true,
        }
    }
}

impl NativeGateSet {
    /// A `CᵐZ` family capped at `max_arity` operands, with shuttling.
    pub fn cz_family(max_arity: usize) -> Self {
        NativeGateSet {
            max_rydberg_arity: max_arity,
            supports_shuttling: true,
        }
    }

    /// A gate-only backend (no AOD shuttling hardware).
    pub fn without_shuttling(mut self) -> Self {
        self.supports_shuttling = false;
        self
    }
}

/// A compiler backend: trap topology, physics, AOD constraints and
/// native gates.
///
/// Implementations should be cheap to query; consumers snapshot the
/// target into a [`TargetSpec`] once per compiler construction via
/// [`Target::spec`].
pub trait Target: fmt::Debug {
    /// Stable backend identifier, e.g. `"square/mixed"`.
    fn id(&self) -> String;

    /// The physical parameter set (radii, fidelities, timings,
    /// coherence).
    fn params(&self) -> &HardwareParams;

    /// The trap topology.
    ///
    /// May panic on an invalid description (e.g. a zero lattice side);
    /// call [`Target::validate`] first when handling untrusted input.
    fn lattice(&self) -> Lattice;

    /// The AOD constraint set (defaults to protocol-only constraints).
    fn aod_constraints(&self) -> AodConstraints {
        AodConstraints::default()
    }

    /// The native gate set (defaults to the geometry-limited `CᵐZ`
    /// family with shuttling).
    fn native_gates(&self) -> NativeGateSet {
        NativeGateSet::default()
    }

    /// Validates the target description.
    ///
    /// # Errors
    ///
    /// Propagates [`HardwareParams::validate`] failures and returns
    /// [`ArchError::TooManyAtoms`] when the topology holds fewer than
    /// `num_atoms + 1` traps (at least one coordinate must stay free).
    fn validate(&self) -> Result<(), ArchError> {
        self.params().validate()?;
        let sites = self.lattice().num_sites() as u32;
        if self.params().num_atoms >= sites {
            return Err(ArchError::TooManyAtoms {
                atoms: self.params().num_atoms,
                sites,
            });
        }
        Ok(())
    }

    /// Resolves the target into a concrete snapshot, including the CSR
    /// interaction adjacency (`r_int` neighbor table) the routing hot
    /// path consumes.
    fn spec(&self) -> TargetSpec {
        let lattice = self.lattice();
        let interaction_table = NeighborTable::for_radius(&lattice, self.params().r_int);
        TargetSpec {
            id: self.id(),
            params: self.params().clone(),
            lattice,
            aod: self.aod_constraints(),
            gates: self.native_gates(),
            interaction_table,
        }
    }
}

/// A resolved, concrete snapshot of a [`Target`] — what the compiler
/// actually carries after construction. Itself a [`Target`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetSpec {
    /// Backend identifier.
    pub id: String,
    /// Physical parameter set.
    pub params: HardwareParams,
    /// Trap topology.
    pub lattice: Lattice,
    /// AOD constraint set.
    pub aod: AodConstraints,
    /// Native gate set.
    pub gates: NativeGateSet,
    /// CSR adjacency of the topology at `params.r_int` — resolved once
    /// here and consumed by `HybridMapper::for_target`, so the routing
    /// hot path never recomputes `hood.around` geometry (see
    /// [`NeighborTable`]). Derived data: a pure function of
    /// `(lattice, params.r_int)`, rebuilt (never trusted) by
    /// [`TargetSpec::resolve`] when a spec is assembled from parts.
    pub interaction_table: NeighborTable,
}

impl TargetSpec {
    /// Rebuilds a spec from its independent fields, deriving the CSR
    /// interaction table — the constructor for callers assembling a
    /// spec by hand (e.g. the JSON job layer).
    pub fn resolve(
        id: String,
        params: HardwareParams,
        lattice: Lattice,
        aod: AodConstraints,
        gates: NativeGateSet,
    ) -> Self {
        let interaction_table = NeighborTable::for_radius(&lattice, params.r_int);
        TargetSpec {
            id,
            params,
            lattice,
            aod,
            gates,
            interaction_table,
        }
    }
}

impl Target for TargetSpec {
    fn id(&self) -> String {
        self.id.clone()
    }

    fn params(&self) -> &HardwareParams {
        &self.params
    }

    fn lattice(&self) -> Lattice {
        self.lattice
    }

    fn aod_constraints(&self) -> AodConstraints {
        self.aod
    }

    fn native_gates(&self) -> NativeGateSet {
        self.gates
    }

    fn spec(&self) -> TargetSpec {
        self.clone()
    }
}

/// The paper's machine model: a [`HardwareParams`] set on the full
/// square lattice, protocol-only AOD constraints, geometry-limited
/// gates.
impl Target for HardwareParams {
    fn id(&self) -> String {
        format!("square/{}", self.name)
    }

    fn params(&self) -> &HardwareParams {
        self
    }

    fn lattice(&self) -> Lattice {
        Lattice::new(self.lattice_side)
    }
}

/// A zoned storage/interaction backend: trap-row bands of `zone_rows`
/// rows separated by `gap_rows` empty shuttling lanes, sharing the
/// [`HardwareParams`] physics model.
///
/// Construction validates the whole description, including that the
/// (reduced) trap count still exceeds the atom count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZonedTarget {
    params: HardwareParams,
    zone_rows: u32,
    gap_rows: u32,
}

impl ZonedTarget {
    /// Creates a zoned target.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidParameter`] for a degenerate banding
    /// (zero rows) and propagates [`Target::validate`] failures —
    /// notably [`ArchError::TooManyAtoms`] when the atoms no longer fit
    /// the reduced trap count.
    pub fn new(params: HardwareParams, zone_rows: u32, gap_rows: u32) -> Result<Self, ArchError> {
        // Reject degenerate banding before `lattice()` can panic.
        Lattice::zoned(params.lattice_side.max(1), zone_rows, gap_rows)?;
        let target = ZonedTarget {
            params,
            zone_rows,
            gap_rows,
        };
        target.validate()?;
        Ok(target)
    }

    /// The default zoning: bands of two trap rows separated by one lane
    /// (interaction partners above/below within the band, a free lane
    /// for AOD transit between bands).
    ///
    /// # Errors
    ///
    /// Same contract as [`ZonedTarget::new`].
    pub fn default_zoning(params: HardwareParams) -> Result<Self, ArchError> {
        ZonedTarget::new(params, 2, 1)
    }

    /// Trap rows per band.
    pub fn zone_rows(&self) -> u32 {
        self.zone_rows
    }

    /// Lane rows between bands.
    pub fn gap_rows(&self) -> u32 {
        self.gap_rows
    }
}

impl Target for ZonedTarget {
    fn id(&self) -> String {
        format!(
            "zoned{}+{}/{}",
            self.zone_rows, self.gap_rows, self.params.name
        )
    }

    fn params(&self) -> &HardwareParams {
        &self.params
    }

    fn lattice(&self) -> Lattice {
        Lattice::zoned(self.params.lattice_side, self.zone_rows, self.gap_rows)
            .expect("validated at construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_mixed(side: u32, atoms: u32) -> HardwareParams {
        HardwareParams::mixed()
            .to_builder()
            .lattice(side, 3.0)
            .num_atoms(atoms)
            .build()
            .expect("valid")
    }

    #[test]
    fn hardware_params_is_a_square_target() {
        let p = HardwareParams::mixed();
        assert_eq!(p.id(), "square/mixed");
        assert_eq!(p.lattice(), Lattice::new(15));
        assert!(p.validate().is_ok());
        let spec = p.spec();
        assert_eq!(spec.params, p);
        assert_eq!(spec.aod, AodConstraints::default());
        assert_eq!(spec.gates, NativeGateSet::default());
        // The spec is itself a target and re-specs identically.
        assert_eq!(Target::spec(&spec), spec);
    }

    #[test]
    fn zoned_target_reduces_trap_count() {
        let t = ZonedTarget::new(small_mixed(9, 30), 2, 1).expect("fits");
        assert_eq!(t.lattice().num_sites(), 6 * 9);
        assert_eq!(t.id(), "zoned2+1/mixed");
        assert_eq!((t.zone_rows(), t.gap_rows()), (2, 1));
    }

    #[test]
    fn zoned_target_rejects_overfull_presets() {
        // 200 atoms fit 15x15 = 225 square traps but not the 150 zoned
        // ones.
        let err = ZonedTarget::new(HardwareParams::mixed(), 2, 1).unwrap_err();
        assert!(matches!(err, ArchError::TooManyAtoms { sites: 150, .. }));
    }

    #[test]
    fn zoned_target_rejects_degenerate_bands() {
        let p = small_mixed(9, 30);
        assert!(ZonedTarget::new(p.clone(), 0, 1).is_err());
        assert!(ZonedTarget::new(p, 2, 0).is_err());
    }

    #[test]
    fn validate_rejects_bad_params_before_topology() {
        let mut p = small_mixed(9, 30);
        p.r_int = -1.0;
        let t = ZonedTarget {
            params: p,
            zone_rows: 2,
            gap_rows: 1,
        };
        assert!(matches!(
            t.validate(),
            Err(ArchError::InvalidParameter { name: "r_int", .. })
        ));
    }

    #[test]
    fn native_gate_set_builders() {
        let g = NativeGateSet::cz_family(4);
        assert_eq!(g.max_rydberg_arity, 4);
        assert!(g.supports_shuttling);
        assert!(!g.without_shuttling().supports_shuttling);
        assert_eq!(AodConstraints::capped(8).max_batch_moves, Some(8));
    }
}
