//! Multi-threaded batch compilation.
//!
//! [`Compiler::compile_batch`] fans a slice of circuits across scoped
//! worker threads. All workers share the same read-only session
//! (hardware parameters, cost model, configuration) but own one
//! [`CompileScratch`] each, so the routing arena (distance-cache pools,
//! journal, dense router tables) stays warm across every circuit a
//! worker compiles; work is handed out through an atomic cursor so long
//! circuits don't serialize behind a static partition, and results
//! always come back in input order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use na_circuit::Circuit;

use crate::compiler::CompileScratch;
use crate::error::CompileError;
use crate::{CompiledProgram, Compiler};

impl Compiler {
    /// Compiles every circuit of `circuits` on up to `threads` worker
    /// threads, returning one result per circuit **in input order**.
    ///
    /// Workers pull the next unclaimed circuit from a shared atomic
    /// cursor (dynamic scheduling — a batch mixing a 200-qubit QFT with
    /// ten small graph states keeps all cores busy). A failed compile
    /// yields an `Err` in its slot without affecting the other
    /// circuits.
    ///
    /// `threads` is clamped to `[1, circuits.len()]`; `threads <= 1`
    /// compiles inline on the calling thread with no spawning overhead.
    ///
    /// # Example
    ///
    /// ```
    /// use na_arch::HardwareParams;
    /// use na_circuit::generators::GraphState;
    /// use na_pipeline::Compiler;
    ///
    /// let target = HardwareParams::mixed()
    ///     .to_builder()
    ///     .lattice(6, 3.0)
    ///     .num_atoms(20)
    ///     .build()?;
    /// let compiler = Compiler::for_target(&target).build()?;
    /// let circuits: Vec<_> = (0..6)
    ///     .map(|seed| GraphState::new(12).edges(16).seed(seed).build())
    ///     .collect();
    /// let results = compiler.compile_batch(&circuits, 2);
    /// assert_eq!(results.len(), 6);
    /// assert!(results.iter().all(|r| r.is_ok()));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn compile_batch(
        &self,
        circuits: &[Circuit],
        threads: usize,
    ) -> Vec<Result<CompiledProgram, CompileError>> {
        let workers = threads.clamp(1, circuits.len().max(1));
        if workers <= 1 {
            let mut scratch = CompileScratch::new();
            return circuits
                .iter()
                .map(|c| self.compile_with(c, &mut scratch, None))
                .collect();
        }

        // Each worker pulls the next unclaimed circuit from the shared
        // cursor and reuses one scratch arena for its whole run.
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<CompiledProgram, CompileError>>>> =
            circuits.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut scratch = CompileScratch::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(circuit) = circuits.get(i) else {
                            break;
                        };
                        let result = self.compile_with(circuit, &mut scratch, None);
                        *slots[i].lock().expect("result slot poisoned") = Some(result);
                    }
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every slot filled before scope exit")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_arch::HardwareParams;
    use na_circuit::generators::{GraphState, Qft};

    fn compiler() -> Compiler {
        let target = HardwareParams::mixed()
            .to_builder()
            .lattice(6, 3.0)
            .num_atoms(24)
            .build()
            .expect("valid");
        Compiler::for_target(&target).build().expect("valid")
    }

    fn mixed_batch() -> Vec<Circuit> {
        let mut batch: Vec<Circuit> = (0..4)
            .map(|seed| GraphState::new(16).edges(22).seed(seed).build())
            .collect();
        batch.push(Qft::new(12).build());
        batch.push(Circuit::new(30)); // too wide: 30 qubits > 24 atoms
        batch
    }

    #[test]
    fn batch_results_in_input_order_any_thread_count() {
        let compiler = compiler();
        let batch = mixed_batch();
        let serial = compiler.compile_batch(&batch, 1);
        for threads in [2, 4, 8] {
            let parallel = compiler.compile_batch(&batch, threads);
            assert_eq!(parallel.len(), batch.len());
            for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
                match (s, p) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.mapped, b.mapped, "slot {i} diverged at {threads} threads");
                        assert_eq!(a.schedule, b.schedule);
                        assert_eq!(a.metrics, b.metrics);
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    _ => panic!("slot {i}: ok/err mismatch at {threads} threads"),
                }
            }
        }
    }

    #[test]
    fn failing_circuit_fails_only_its_slot() {
        let compiler = compiler();
        let batch = mixed_batch();
        let results = compiler.compile_batch(&batch, 3);
        assert!(results[..5].iter().all(|r| r.is_ok()));
        assert!(matches!(results[5], Err(CompileError::Map(_))));
    }

    #[test]
    fn empty_batch_is_fine() {
        let compiler = compiler();
        assert!(compiler.compile_batch(&[], 4).is_empty());
    }
}
