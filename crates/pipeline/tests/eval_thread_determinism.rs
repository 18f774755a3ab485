//! Speculative evaluation-thread determinism: the compiled artifact is
//! a pure function of the circuit and options — never of how many
//! worker threads minted conflict sets. One journal-owning arena per
//! thread plus an index-order merge makes the multi-threaded evaluation
//! path bit-compatible with the caller-thread path by construction;
//! this test pins that claim at the highest level we ship: the full
//! `CompiledProgram` JSON rendering.

use std::time::Duration;

use na_arch::HardwareParams;
use na_circuit::generators::{GraphState, Qaoa, Qft};
use na_circuit::Circuit;
use na_mapper::RoundMode;
use na_pipeline::{Compiler, MappingOptions};

fn target() -> HardwareParams {
    HardwareParams::mixed()
        .to_builder()
        .lattice(6, 3.0)
        .num_atoms(30)
        .build()
        .expect("valid")
}

fn circuits() -> Vec<(&'static str, Circuit)> {
    vec![
        ("qft-16", Qft::new(16).build()),
        ("graph-20", GraphState::new(20).edges(26).seed(9).build()),
        ("qaoa-16", Qaoa::new(16).edges(20).layers(2).seed(5).build()),
    ]
}

fn compile_json(circuit: &Circuit, threads: usize) -> String {
    let target = target();
    let compiler = Compiler::for_target(&target)
        .mapping(
            MappingOptions::hybrid(1.0)
                .with_round_mode(RoundMode::Speculative)
                .with_eval_threads(threads),
        )
        .build()
        .expect("valid session");
    let mut program = compiler.compile(circuit).expect("compiles");
    // Wall-clock stamps are measurements, not part of the artifact.
    program.stats.map_runtime = Duration::ZERO;
    program.stats.total_runtime = Duration::ZERO;
    program.stats.map_phase = Duration::ZERO;
    program.stats.schedule_phase = Duration::ZERO;
    program.stats.lower_phase = Duration::ZERO;
    program.to_json()
}

#[test]
fn eval_threads_do_not_change_compiled_json() {
    // Same convention as the pipeline benches: multi-thread variants
    // only run where real cores exist — on a 1-core host the scoped
    // workers would only measure oversubscription, so skip (the bench
    // baseline records `null` for the same reason).
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    if host == 1 {
        eprintln!("skipping eval-thread determinism check: 1-core host");
        return;
    }
    for (name, circuit) in circuits() {
        let reference = compile_json(&circuit, 1);
        for threads in [2, 4] {
            let json = compile_json(&circuit, threads);
            assert_eq!(
                json, reference,
                "{name}: {threads} evaluation threads changed the compiled artifact"
            );
        }
    }
}
