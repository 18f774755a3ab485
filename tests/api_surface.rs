//! Public-API snapshot: the facade prelude's export list is pinned so
//! future PRs cannot silently drop or rename pieces of the redesigned
//! surface. Extending the prelude is fine — update `EXPECTED` in the
//! same PR and the diff documents the API change.

/// Every identifier `hybrid_na::prelude` must re-export, sorted.
const EXPECTED: &[&str] = &[
    "AodConstraints",
    "CacheStats",
    "CancelReason",
    "CancelToken",
    "Circuit",
    "ComparisonReport",
    "CompileError",
    "CompileRequest",
    "CompileResponse",
    "CompileScratch",
    "CompileService",
    "CompileStats",
    "CompiledProgram",
    "Compiler",
    "ConfigError",
    "DistanceCache",
    "FaultPlan",
    "GateKind",
    "GraphState",
    "HardwareParams",
    "HttpOptions",
    "HttpServer",
    "HybridMapper",
    "IncrementalScheduler",
    "InitialLayout",
    "Lattice",
    "LatticeKind",
    "MapError",
    "MapScratch",
    "MappedCircuit",
    "MappedOp",
    "MapperConfig",
    "MappingOptions",
    "MappingOutcome",
    "Move",
    "NativeGateSet",
    "NeighborTable",
    "Neighborhood",
    "OpSink",
    "Operation",
    "Qaoa",
    "Qft",
    "Qpe",
    "Qubit",
    "RandomCircuit",
    "RegionGrid",
    "RetryPolicy",
    "Reversible",
    "RoundMode",
    "Schedule",
    "ScheduleError",
    "ScheduleMetrics",
    "Scheduler",
    "SchedulingOptions",
    "ServeConfig",
    "Site",
    "StateJournal",
    "Statevector",
    "SubmitError",
    "Target",
    "TargetResolver",
    "TargetSpec",
    "ZonedTarget",
    "cuccaro_adder",
    "decompose_to_native",
    "error_to_json",
    "ghz",
    "handle_json",
    "handle_json_document",
    "qasm",
    "serve_lines",
    "verify_mapping",
    "verify_mapping_on",
    "with_request_id",
];

/// Extracts the identifiers re-exported by the `pub mod prelude` block
/// of the facade source.
fn prelude_exports() -> Vec<String> {
    let source = include_str!("../src/lib.rs");
    let start = source
        .find("pub mod prelude")
        .expect("facade declares a prelude");
    let block = &source[start..];
    let mut names = Vec::new();
    for line_block in block.split("pub use ") {
        // Each `pub use path::{A, B, c};` or `pub use path::Name;`.
        let Some(end) = line_block.find(';') else {
            continue;
        };
        let spec = &line_block[..end];
        if !spec.contains("::") {
            continue;
        }
        let items: &str = match (spec.find('{'), spec.rfind('}')) {
            (Some(open), Some(close)) => &spec[open + 1..close],
            _ => spec.rsplit("::").next().expect("path has a tail"),
        };
        for item in items.split(',') {
            let name = item.trim();
            if !name.is_empty() {
                names.push(name.to_string());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

#[test]
fn prelude_matches_snapshot() {
    let actual = prelude_exports();
    let expected: Vec<String> = EXPECTED.iter().map(|s| s.to_string()).collect();
    let missing: Vec<_> = expected.iter().filter(|n| !actual.contains(n)).collect();
    let extra: Vec<_> = actual.iter().filter(|n| !expected.contains(n)).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "prelude drifted from the snapshot.\n  missing: {missing:?}\n  \
         unexpected: {extra:?}\n(update EXPECTED in tests/api_surface.rs \
         deliberately when changing the public surface)"
    );
}

/// The snapshot itself must name the redesigned surface — a regression
/// here means the new API was removed, not merely renamed.
#[test]
fn snapshot_contains_the_target_api() {
    for required in [
        "Compiler",
        "MappingOptions",
        "SchedulingOptions",
        "CompileError",
        "Target",
        "TargetSpec",
        "ZonedTarget",
        "CompileRequest",
        "CompileResponse",
    ] {
        assert!(EXPECTED.contains(&required), "{required} missing");
    }
}

/// Compile-time usage check: every snapshot name resolves through the
/// prelude (a typo in the snapshot or a broken re-export fails here).
#[allow(unused_imports)]
mod resolves {
    use hybrid_na::prelude::{
        cuccaro_adder, decompose_to_native, error_to_json, ghz, handle_json, handle_json_document,
        qasm, serve_lines, verify_mapping, verify_mapping_on, with_request_id, AodConstraints,
        CancelReason, CancelToken, Circuit, ComparisonReport, CompileError, CompileRequest,
        CompileResponse, CompileScratch, CompileService, CompileStats, CompiledProgram, Compiler,
        ConfigError, FaultPlan, GateKind, GraphState, HardwareParams, HttpOptions, HttpServer,
        HybridMapper, IncrementalScheduler, InitialLayout, Lattice, LatticeKind, MapError,
        MapScratch, MappedCircuit, MappedOp, MapperConfig, MappingOptions, MappingOutcome, Move,
        NativeGateSet, Neighborhood, OpSink, Operation, Qaoa, Qft, Qpe, Qubit, RandomCircuit,
        RetryPolicy, Reversible, RoundMode, Schedule, ScheduleError, ScheduleMetrics, Scheduler,
        SchedulingOptions, ServeConfig, Site, StateJournal, Statevector, SubmitError, Target,
        TargetResolver, TargetSpec, ZonedTarget,
    };
}
