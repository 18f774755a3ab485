//! Synthetic reversible-function circuits (`CᵐX` networks).
//!
//! The paper evaluates three circuits (`bn`, `call`, `gray`) synthesized
//! from classical reversible functions by the SyReC synthesizer, using
//! `CᵐX` gates with `m ≤ 4`. SyReC itself and its input specifications are
//! not available here; this generator produces seeded `CᵐX` networks with
//! the *exact* gate-count profile of Table 1b and the locality statistics
//! typical of reversible synthesis: consecutive gates share target lines
//! and control sets overlap. That keeps what the mapper sees: it routes on
//! gate arities, the qubits each gate touches and their order, never on
//! the Boolean function the network computes.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::circuit::Circuit;

/// Builder for synthetic reversible-function circuits.
///
/// # Example
///
/// ```
/// use na_circuit::generators::Reversible;
/// use na_circuit::decompose_to_native;
/// // The paper's `call` profile: 192 CCX + 56 CCCX on 25 lines.
/// let call = Reversible::new(25).counts(&[(3, 192), (4, 56)]).seed(13).build();
/// let native = decompose_to_native(&call);
/// assert_eq!(native.stats().cz_family_count(3), 192);
/// assert_eq!(native.stats().cz_family_count(4), 56);
/// ```
#[derive(Debug, Clone)]
pub struct Reversible {
    num_qubits: u32,
    /// `(arity, count)` pairs: arity includes the target (2 = CX).
    counts: Vec<(usize, usize)>,
    seed: u64,
    window: u32,
}

impl Reversible {
    /// A reversible circuit on `num_qubits` lines (≥ 2) with an empty
    /// gate profile.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits < 2`.
    pub fn new(num_qubits: u32) -> Self {
        assert!(num_qubits >= 2, "reversible circuits need at least 2 lines");
        Reversible {
            num_qubits,
            counts: Vec::new(),
            seed: 0,
            window: (num_qubits / 3).max(4),
        }
    }

    /// Sets the gate profile as `(arity, count)` pairs; arity counts all
    /// operands including the target, so `(2, k)` adds `k` CX gates and
    /// `(3, k)` adds `k` Toffolis.
    ///
    /// # Panics
    ///
    /// Panics if an arity is below 2 or exceeds the line count.
    pub fn counts(mut self, counts: &[(usize, usize)]) -> Self {
        for &(arity, _) in counts {
            assert!(arity >= 2, "CᵐX arity must be at least 2");
            assert!(
                arity <= self.num_qubits as usize,
                "arity {arity} exceeds {} lines",
                self.num_qubits
            );
        }
        self.counts = counts.to_vec();
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the locality window: gate operands are drawn from a window of
    /// this many lines around a drifting center, mimicking the
    /// line-locality of synthesized reversible netlists.
    pub fn window(mut self, window: u32) -> Self {
        self.window = window.max(2);
        self
    }

    /// Generates the `CᵐX` circuit (call
    /// [`decompose_to_native`](crate::decompose_to_native) afterwards for
    /// the mapped form).
    pub fn build(&self) -> Circuit {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = self.num_qubits;

        // Bag of arities, shuffled so large and small gates interleave the
        // way synthesis output does.
        let mut bag: Vec<usize> = Vec::new();
        for &(arity, count) in &self.counts {
            bag.extend(std::iter::repeat_n(arity, count));
        }
        for i in (1..bag.len()).rev() {
            let j = rng.random_range(0..=i);
            bag.swap(i, j);
        }

        let mut c = Circuit::new(n);
        // Drifting locality center: reversible netlists touch nearby lines
        // in runs, with the occasional long jump.
        let mut center: u32 = rng.random_range(0..n);
        let w = self.window.min(n);
        for arity in bag {
            if rng.random_range(0..100) < 15 {
                center = rng.random_range(0..n);
            } else {
                let drift: u32 = rng.random_range(0..=2);
                center = (center + drift).min(n - 1);
            }
            let lo = center.saturating_sub(w / 2);
            let hi = (lo + w).min(n);
            let lo = hi.saturating_sub(w);
            let mut lines: Vec<u32> = Vec::with_capacity(arity);
            while lines.len() < arity {
                let q = rng.random_range(lo..hi);
                if !lines.contains(&q) {
                    lines.push(q);
                }
            }
            c.mcx(&lines);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose_to_native;

    #[test]
    fn profile_counts_exact() {
        let c = Reversible::new(48)
            .counts(&[(2, 133), (3, 87)])
            .seed(11)
            .build();
        let native = decompose_to_native(&c);
        let s = native.stats();
        assert_eq!(s.cz_family_count(2), 133);
        assert_eq!(s.cz_family_count(3), 87);
        // Each CᵐX contributes two H gates.
        assert_eq!(s.single_qubit, 2 * (133 + 87));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Reversible::new(20).counts(&[(3, 30)]).seed(4).build();
        let b = Reversible::new(20).counts(&[(3, 30)]).seed(4).build();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_circuit() {
        let a = Reversible::new(20).counts(&[(3, 30)]).seed(4).build();
        let b = Reversible::new(20).counts(&[(3, 30)]).seed(5).build();
        assert_ne!(a, b);
    }

    #[test]
    fn operands_within_line_range() {
        let c = Reversible::new(12).counts(&[(4, 50)]).seed(9).build();
        for op in c.iter() {
            assert_eq!(op.arity(), 4);
            for q in op.qubits() {
                assert!(q.0 < 12);
            }
        }
    }

    #[test]
    fn window_bounds_operand_spread() {
        let c = Reversible::new(40)
            .counts(&[(3, 60)])
            .window(6)
            .seed(2)
            .build();
        for op in c.iter() {
            let min = op.qubits().iter().map(|q| q.0).min().unwrap();
            let max = op.qubits().iter().map(|q| q.0).max().unwrap();
            assert!(max - min < 6, "operands {min}..{max} exceed window");
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_arity_above_width() {
        Reversible::new(3).counts(&[(5, 1)]);
    }

    #[test]
    fn empty_profile_gives_empty_circuit() {
        let c = Reversible::new(8).build();
        assert!(c.is_empty());
    }
}
