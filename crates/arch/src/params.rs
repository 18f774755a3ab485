//! Hardware parameter sets.
//!
//! [`HardwareParams`] bundles every physical quantity the mapper and the
//! scheduler consume: lattice dimensions, interaction/restriction radii,
//! operation fidelities, operation times, shuttling kinematics and
//! coherence times. The three constructors [`HardwareParams::shuttling`],
//! [`HardwareParams::gate_based`] and [`HardwareParams::mixed`] reproduce
//! the paper's Table 1c presets verbatim.

use serde::{Deserialize, Serialize};

use crate::error::ArchError;

/// Complete description of a neutral-atom hardware configuration.
///
/// All radii are in units of the lattice constant `d`; all times in
/// microseconds; all fidelities in `[0, 1]`.
///
/// # Example
///
/// ```
/// use na_arch::HardwareParams;
/// let hw = HardwareParams::shuttling();
/// assert_eq!(hw.r_int, 2.0);
/// assert_eq!(hw.f_shuttle, 1.0);
/// // Effective coherence time of Eq. (1): T1·T2 / (T1 + T2).
/// assert!((hw.t_eff_us() - 1.47783e6).abs() / hw.t_eff_us() < 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareParams {
    /// Human-readable preset name (e.g. `"shuttling"`).
    pub name: String,
    /// Side length `l` of the square trap lattice (Table 1: 15).
    pub lattice_side: u32,
    /// Lattice constant `d` in micrometres (Table 1: 3 µm).
    pub lattice_constant_um: f64,
    /// Number of trapped atoms `N` (Table 1: 200).
    pub num_atoms: u32,
    /// Interaction radius `r_int` in units of `d`.
    pub r_int: f64,
    /// Restriction radius `r_restr ≥ r_int` in units of `d`.
    pub r_restr: f64,
    /// Average CZ gate fidelity `F_CZ`.
    pub f_cz: f64,
    /// Average single-qubit gate fidelity (`F_H` in Table 1c).
    pub f_single: f64,
    /// Fidelity of one shuttling operation (load + move + store).
    pub f_shuttle: f64,
    /// Single-qubit gate time `t_U3` in µs.
    pub t_single_us: f64,
    /// CZ gate time in µs.
    pub t_cz_us: f64,
    /// CCZ gate time in µs.
    pub t_ccz_us: f64,
    /// CCCZ gate time in µs.
    pub t_cccz_us: f64,
    /// AOD shuttling speed `v` in µm/µs.
    pub shuttle_speed_um_per_us: f64,
    /// AOD row/column activation time in µs.
    pub t_act_us: f64,
    /// AOD row/column deactivation time in µs.
    pub t_deact_us: f64,
    /// Relaxation time `T1` in µs.
    pub t1_us: f64,
    /// Dephasing time `T2` in µs.
    pub t2_us: f64,
}

impl HardwareParams {
    fn base(name: &str) -> Self {
        HardwareParams {
            name: name.to_owned(),
            lattice_side: 15,
            lattice_constant_um: 3.0,
            num_atoms: 200,
            r_int: 2.0,
            r_restr: 2.0,
            f_cz: 0.994,
            f_single: 0.995,
            f_shuttle: 1.0,
            t_single_us: 0.5,
            t_cz_us: 0.2,
            t_ccz_us: 0.4,
            t_cccz_us: 0.6,
            shuttle_speed_um_per_us: 0.55,
            t_act_us: 20.0,
            t_deact_us: 20.0,
            t1_us: 1.0e8,
            t2_us: 1.5e6,
        }
    }

    /// The *(1) shuttling-optimized* preset of Table 1c: fast, lossless
    /// shuttles, comparatively error-prone CZ gates.
    pub fn shuttling() -> Self {
        HardwareParams::base("shuttling")
    }

    /// The *(2) gate-optimized* preset of Table 1c: long-range, high
    /// fidelity CZ gates; slow, lossy shuttles.
    pub fn gate_based() -> Self {
        HardwareParams {
            r_int: 4.5,
            r_restr: 4.5,
            f_cz: 0.9995,
            f_single: 0.9999,
            f_shuttle: 0.999,
            shuttle_speed_um_per_us: 0.2,
            t_act_us: 50.0,
            t_deact_us: 50.0,
            ..HardwareParams::base("gate")
        }
    }

    /// The *(3) mixed* preset of Table 1c: similar fidelities for both
    /// capabilities; the hybrid mapper's sweet spot.
    pub fn mixed() -> Self {
        HardwareParams {
            r_int: 2.5,
            r_restr: 2.5,
            f_cz: 0.995,
            f_single: 0.999,
            f_shuttle: 0.9999,
            shuttle_speed_um_per_us: 0.3,
            t_act_us: 40.0,
            t_deact_us: 40.0,
            ..HardwareParams::base("mixed")
        }
    }

    /// All three Table 1c presets in paper order.
    pub fn table1_presets() -> Vec<HardwareParams> {
        vec![
            HardwareParams::shuttling(),
            HardwareParams::gate_based(),
            HardwareParams::mixed(),
        ]
    }

    /// Starts a builder initialized from this configuration.
    pub fn to_builder(&self) -> HardwareParamsBuilder {
        HardwareParamsBuilder {
            params: self.clone(),
        }
    }

    /// Effective coherence time `T_eff = T1·T2/(T1 + T2)` of Eq. (1), µs.
    #[inline]
    pub fn t_eff_us(&self) -> f64 {
        self.t1_us * self.t2_us / (self.t1_us + self.t2_us)
    }

    /// Execution time of a `CᵐZ`-family gate acting on `arity` qubits
    /// (`arity = m + 1` for `CᵐZ`), in µs.
    ///
    /// Table 1c gives times up to CCCZ (arity 4); larger gates extrapolate
    /// linearly at the CZ→CCZ increment (0.2 µs per extra qubit), matching
    /// the table's arithmetic progression.
    #[inline]
    pub fn cz_family_time_us(&self, arity: usize) -> f64 {
        match arity {
            0 | 1 => 0.0,
            2 => self.t_cz_us,
            3 => self.t_ccz_us,
            4 => self.t_cccz_us,
            n => self.t_cccz_us + (n as f64 - 4.0) * (self.t_ccz_us - self.t_cz_us),
        }
    }

    /// Average fidelity of a `CᵐZ`-family gate on `arity` qubits.
    ///
    /// Table 1c only specifies `F_CZ`; larger gates are modeled as
    /// `F_CZ^(arity − 1)`. The choice cancels in the paper's δF metric,
    /// because mapped and original circuits contain the same multi-qubit
    /// gates.
    #[inline]
    pub fn cz_family_fidelity(&self, arity: usize) -> f64 {
        if arity <= 1 {
            self.f_single
        } else {
            self.f_cz.powi(arity as i32 - 1)
        }
    }

    /// Duration of one shuttle move covering rectilinear distance
    /// `dist_units` lattice units, including AOD (de)activation, in µs.
    #[inline]
    pub fn shuttle_time_us(&self, dist_units: f64) -> f64 {
        self.t_act_us + self.shuttle_move_time_us(dist_units) + self.t_deact_us
    }

    /// Pure movement time (no activation) for a rectilinear distance in
    /// lattice units, in µs.
    #[inline]
    pub fn shuttle_move_time_us(&self, dist_units: f64) -> f64 {
        dist_units * self.lattice_constant_um / self.shuttle_speed_um_per_us
    }

    /// Fidelity of one full SWAP gate, decomposed as 3 CZ + 6 single-qubit
    /// gates on NA hardware (paper §2.2).
    #[inline]
    pub fn swap_fidelity(&self) -> f64 {
        self.f_cz.powi(3) * self.f_single.powi(6)
    }

    /// Duration of one decomposed SWAP gate (3 CZ + 2 layers of
    /// single-qubit gates on each side — 4 sequential single-qubit slots),
    /// in µs.
    #[inline]
    pub fn swap_time_us(&self) -> f64 {
        3.0 * self.t_cz_us + 4.0 * self.t_single_us
    }

    /// Validates physical consistency of the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidParameter`] when a quantity is outside
    /// its domain (non-positive radius or speed, fidelity outside `[0,1]`,
    /// `r_restr < r_int`), or [`ArchError::TooManyAtoms`] when the atom
    /// count leaves no free trap.
    pub fn validate(&self) -> Result<(), ArchError> {
        fn positive(name: &'static str, v: f64) -> Result<(), ArchError> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(ArchError::InvalidParameter {
                    name,
                    reason: format!("must be positive, got {v}"),
                })
            }
        }
        fn fidelity(name: &'static str, v: f64) -> Result<(), ArchError> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(ArchError::InvalidParameter {
                    name,
                    reason: format!("must lie in [0, 1], got {v}"),
                })
            }
        }
        positive("lattice_constant_um", self.lattice_constant_um)?;
        positive("r_int", self.r_int)?;
        positive("r_restr", self.r_restr)?;
        positive("shuttle_speed_um_per_us", self.shuttle_speed_um_per_us)?;
        positive("t1_us", self.t1_us)?;
        positive("t2_us", self.t2_us)?;
        for (name, v) in [
            ("t_single_us", self.t_single_us),
            ("t_cz_us", self.t_cz_us),
            ("t_ccz_us", self.t_ccz_us),
            ("t_cccz_us", self.t_cccz_us),
            ("t_act_us", self.t_act_us),
            ("t_deact_us", self.t_deact_us),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(ArchError::InvalidParameter {
                    name,
                    reason: format!("must be non-negative, got {v}"),
                });
            }
        }
        fidelity("f_cz", self.f_cz)?;
        fidelity("f_single", self.f_single)?;
        fidelity("f_shuttle", self.f_shuttle)?;
        if self.r_restr + 1e-12 < self.r_int {
            return Err(ArchError::InvalidParameter {
                name: "r_restr",
                reason: format!(
                    "restriction radius {} must be >= interaction radius {}",
                    self.r_restr, self.r_int
                ),
            });
        }
        if self.lattice_side == 0 {
            return Err(ArchError::InvalidParameter {
                name: "lattice_side",
                reason: "must be positive".into(),
            });
        }
        let sites = self.lattice_side * self.lattice_side;
        if self.num_atoms >= sites {
            return Err(ArchError::TooManyAtoms {
                atoms: self.num_atoms,
                sites,
            });
        }
        Ok(())
    }
}

impl Default for HardwareParams {
    /// The mixed preset — the configuration where hybrid mapping matters.
    fn default() -> Self {
        HardwareParams::mixed()
    }
}

/// Builder for customized [`HardwareParams`] starting from a preset.
///
/// # Example
///
/// ```
/// use na_arch::HardwareParams;
/// let hw = HardwareParams::mixed()
///     .to_builder()
///     .lattice(21, 3.0)
///     .num_atoms(400)
///     .f_cz(0.9975)
///     .build()?;
/// assert_eq!(hw.lattice_side, 21);
/// # Ok::<(), na_arch::ArchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HardwareParamsBuilder {
    params: HardwareParams,
}

impl HardwareParamsBuilder {
    /// Sets the preset name.
    pub fn name(mut self, name: &str) -> Self {
        self.params.name = name.to_owned();
        self
    }

    /// Sets the lattice side length and lattice constant (µm).
    pub fn lattice(mut self, side: u32, d_um: f64) -> Self {
        self.params.lattice_side = side;
        self.params.lattice_constant_um = d_um;
        self
    }

    /// Sets the number of trapped atoms.
    pub fn num_atoms(mut self, n: u32) -> Self {
        self.params.num_atoms = n;
        self
    }

    /// Sets interaction and restriction radii together (`r_restr = r_int`).
    pub fn radius(mut self, r: f64) -> Self {
        self.params.r_int = r;
        self.params.r_restr = r;
        self
    }

    /// Sets the interaction radius only.
    pub fn r_int(mut self, r: f64) -> Self {
        self.params.r_int = r;
        self
    }

    /// Sets the restriction radius only.
    pub fn r_restr(mut self, r: f64) -> Self {
        self.params.r_restr = r;
        self
    }

    /// Sets the CZ fidelity.
    pub fn f_cz(mut self, f: f64) -> Self {
        self.params.f_cz = f;
        self
    }

    /// Sets the single-qubit gate fidelity.
    pub fn f_single(mut self, f: f64) -> Self {
        self.params.f_single = f;
        self
    }

    /// Sets the per-move shuttle fidelity.
    pub fn f_shuttle(mut self, f: f64) -> Self {
        self.params.f_shuttle = f;
        self
    }

    /// Sets shuttling kinematics: speed (µm/µs) and AOD (de)activation
    /// time (µs, applied to both).
    pub fn shuttle(mut self, v_um_per_us: f64, t_act_us: f64) -> Self {
        self.params.shuttle_speed_um_per_us = v_um_per_us;
        self.params.t_act_us = t_act_us;
        self.params.t_deact_us = t_act_us;
        self
    }

    /// Sets coherence times (µs).
    pub fn coherence(mut self, t1_us: f64, t2_us: f64) -> Self {
        self.params.t1_us = t1_us;
        self.params.t2_us = t2_us;
        self
    }

    /// Finalizes and validates the configuration.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`HardwareParams::validate`].
    pub fn build(self) -> Result<HardwareParams, ArchError> {
        self.params.validate()?;
        Ok(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for p in HardwareParams::table1_presets() {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn presets_match_table1c() {
        let s = HardwareParams::shuttling();
        assert_eq!(
            (s.r_int, s.f_cz, s.f_single, s.f_shuttle),
            (2.0, 0.994, 0.995, 1.0)
        );
        assert_eq!((s.shuttle_speed_um_per_us, s.t_act_us), (0.55, 20.0));

        let g = HardwareParams::gate_based();
        assert_eq!(
            (g.r_int, g.f_cz, g.f_single, g.f_shuttle),
            (4.5, 0.9995, 0.9999, 0.999)
        );
        assert_eq!((g.shuttle_speed_um_per_us, g.t_act_us), (0.2, 50.0));

        let m = HardwareParams::mixed();
        assert_eq!(
            (m.r_int, m.f_cz, m.f_single, m.f_shuttle),
            (2.5, 0.995, 0.999, 0.9999)
        );
        assert_eq!((m.shuttle_speed_um_per_us, m.t_act_us), (0.3, 40.0));

        for p in [&s, &g, &m] {
            assert_eq!(p.lattice_side, 15);
            assert_eq!(p.lattice_constant_um, 3.0);
            assert_eq!(p.num_atoms, 200);
            assert_eq!(p.t_single_us, 0.5);
            assert_eq!(p.t_cz_us, 0.2);
            assert_eq!(p.t_ccz_us, 0.4);
            assert_eq!(p.t_cccz_us, 0.6);
            assert_eq!(p.t1_us, 1.0e8);
            assert_eq!(p.t2_us, 1.5e6);
        }
    }

    #[test]
    fn gate_times_follow_arity_progression() {
        let p = HardwareParams::mixed();
        assert_eq!(p.cz_family_time_us(2), 0.2);
        assert_eq!(p.cz_family_time_us(3), 0.4);
        assert_eq!(p.cz_family_time_us(4), 0.6);
        assert!((p.cz_family_time_us(5) - 0.8).abs() < 1e-12);
        assert_eq!(p.cz_family_time_us(1), 0.0);
    }

    #[test]
    fn fidelity_model_scales_with_arity() {
        let p = HardwareParams::mixed();
        assert_eq!(p.cz_family_fidelity(2), p.f_cz);
        assert!((p.cz_family_fidelity(3) - p.f_cz * p.f_cz).abs() < 1e-12);
        assert!(p.cz_family_fidelity(4) < p.cz_family_fidelity(3));
    }

    #[test]
    fn shuttle_time_accounts_for_activation() {
        let p = HardwareParams::shuttling();
        // 2 lattice units = 6 µm at 0.55 µm/µs plus 2 × 20 µs act/deact.
        let t = p.shuttle_time_us(2.0);
        assert!((t - (40.0 + 6.0 / 0.55)).abs() < 1e-9);
    }

    #[test]
    fn swap_cost_composition() {
        let p = HardwareParams::gate_based();
        assert!((p.swap_fidelity() - p.f_cz.powi(3) * p.f_single.powi(6)).abs() < 1e-15);
        assert!((p.swap_time_us() - (0.6 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_bad_values() {
        assert!(HardwareParams::mixed()
            .to_builder()
            .f_cz(1.2)
            .build()
            .is_err());
        assert!(HardwareParams::mixed()
            .to_builder()
            .radius(-1.0)
            .build()
            .is_err());
        assert!(HardwareParams::mixed()
            .to_builder()
            .r_int(3.0)
            .r_restr(2.0)
            .build()
            .is_err());
        assert!(HardwareParams::mixed()
            .to_builder()
            .lattice(10, 3.0)
            .num_atoms(100)
            .build()
            .is_err());
    }

    #[test]
    fn builder_roundtrip_preserves_preset() {
        let m = HardwareParams::mixed();
        let rebuilt = m.to_builder().build().expect("valid");
        assert_eq!(m, rebuilt);
    }

    #[test]
    fn t_eff_formula() {
        let p = HardwareParams::mixed();
        let expect = 1.0e8 * 1.5e6 / (1.0e8 + 1.5e6);
        assert!((p.t_eff_us() - expect).abs() < 1e-6);
    }
}
