//! The compile artifact: one [`CompiledProgram`] per circuit.

use std::time::Duration;

use na_mapper::{CacheStats, MapStats, MappedCircuit};
use na_schedule::export::{
    aod_program_to_json, cache_stats_to_json, comparison_to_json, json_f64, map_stats_to_json,
    metrics_to_json, schedule_to_json,
};
use na_schedule::{AodProgram, ComparisonReport, Schedule, ScheduleMetrics};
use serde::{Deserialize, Serialize};

/// Aggregate statistics of one pipeline compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileStats {
    /// Routing statistics of the mapping pass.
    pub map: MapStats,
    /// Wall-clock time of the fused map+schedule pass (the paper's RT
    /// column; scheduling rides along for free).
    pub map_runtime: Duration,
    /// Wall-clock time of the whole compile including AOD lowering,
    /// validation and (optionally) the baseline comparison.
    pub total_runtime: Duration,
    /// Mapping share of the fused pass: `map_runtime` minus the
    /// scheduler drains that ran inside it.
    pub map_phase: Duration,
    /// Scheduling share: incremental drains during the fused pass plus
    /// sealing the schedule and folding the Eq. (1) metrics.
    pub schedule_phase: Duration,
    /// AOD lowering + per-batch validation against replayed occupancy.
    pub lower_phase: Duration,
    /// AOD transactions lowered and validated.
    pub aod_batches: usize,
    /// Individual shuttle moves across all transactions.
    pub aod_moves: usize,
    /// Distance-cache counters of the routing layer for this compile
    /// alone: the mapper resets them on entry, so a warm
    /// [`Compiler::compile_with`](crate::Compiler::compile_with)
    /// scratch reports exactly what a fresh one would.
    pub route_cache: CacheStats,
}

/// Everything one compile produces: the paper's full flow (map,
/// ASAP-schedule under restriction constraints, AOD lowering, Eq. (1)
/// metrics) as a single artifact.
///
/// Produced by [`Compiler::compile`](crate::Compiler::compile); the
/// fused pass guarantees `schedule` is exactly what
/// [`na_schedule::Scheduler::schedule_mapped`] would produce for
/// `mapped`, and every program in `aod_programs` has passed
/// [`na_schedule::validate_program`] against the replayed occupancy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompiledProgram {
    /// The mapped operation stream (gates bound to atoms, SWAPs,
    /// shuttles).
    pub mapped: MappedCircuit,
    /// The restriction-aware ASAP schedule of `mapped`.
    pub schedule: Schedule,
    /// One lowered (and validated) AOD instruction program per
    /// [`AodBatch`](na_schedule::ScheduledItem::AodBatch) in the
    /// schedule, in schedule order.
    pub aod_programs: Vec<AodProgram>,
    /// Eq. (1) metrics of the mapped schedule.
    pub metrics: ScheduleMetrics,
    /// Table 1a comparison against the ideal all-to-all baseline, when
    /// the pipeline is configured to compute it.
    pub comparison: Option<ComparisonReport>,
    /// Compile statistics.
    pub stats: CompileStats,
}

impl CompiledProgram {
    /// Fidelity decrease versus the ideal baseline (`δF`), if the
    /// baseline comparison was computed.
    pub fn delta_f(&self) -> Option<f64> {
        self.comparison.map(|c| c.delta_f)
    }

    /// Serializes the whole artifact as one JSON document.
    ///
    /// Composes the hand-written writers of [`na_schedule::export`]
    /// (the vendored serde is a marker-only stub; see
    /// `vendor/README.md`). The document's `stats` object carries the
    /// per-phase timings (`map_us`, `schedule_us`, `lower_us`). The
    /// fourth phase — export — is deliberately *not* measured here:
    /// serialization must be a pure function of the artifact (the serve
    /// layer content-addresses and splices response bytes), so the
    /// export clock runs on the service reply path instead and surfaces
    /// through `GET /v1/metrics`.
    pub fn to_json(&self) -> String {
        let aod = self
            .aod_programs
            .iter()
            .map(aod_program_to_json)
            .collect::<Vec<_>>()
            .join(",");
        let comparison = match &self.comparison {
            Some(c) => comparison_to_json(c),
            None => "null".to_string(),
        };
        let metrics = metrics_to_json(&self.metrics);
        let schedule = schedule_to_json(&self.schedule);
        let map_stats = map_stats_to_json(&self.stats.map);
        let cache = cache_stats_to_json(&self.stats.route_cache);
        let phase_us = |d: Duration| json_f64(d.as_secs_f64() * 1e6);
        format!(
            "{{\n  \"stats\": {{\"map\":{},\"map_runtime_ms\":{},\"total_runtime_ms\":{},\
             \"map_us\":{},\"schedule_us\":{},\"lower_us\":{},\
             \"aod_batches\":{},\"aod_moves\":{},\"route_cache\":{}}},\n  \"metrics\": {},\n  \
             \"comparison\": {},\n  \"mapped\": {{\"num_qubits\":{},\"num_atoms\":{},\
             \"gates\":{},\"swaps\":{},\"shuttles\":{}}},\n  \"schedule\": {},\n  \
             \"aod_programs\": [{aod}]\n}}\n",
            map_stats,
            json_f64(self.stats.map_runtime.as_secs_f64() * 1e3),
            json_f64(self.stats.total_runtime.as_secs_f64() * 1e3),
            phase_us(self.stats.map_phase),
            phase_us(self.stats.schedule_phase),
            phase_us(self.stats.lower_phase),
            self.stats.aod_batches,
            self.stats.aod_moves,
            cache,
            metrics,
            comparison,
            self.mapped.num_qubits,
            self.mapped.num_atoms,
            self.mapped.gate_count(),
            self.mapped.swap_count(),
            self.mapped.shuttle_count(),
            schedule,
        )
    }
}
