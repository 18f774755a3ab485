//! Schedule export and utilization statistics.
//!
//! [`to_csv`] serializes a schedule as Gantt-style event rows for
//! external plotting; [`Utilization`] summarizes per-atom busy fractions
//! (the physical counterpart of the idle time entering Eq. (1)).
//!
//! The `*_to_json` family serializes the pipeline's result types as JSON
//! fragments. They are hand-written: the vendored `serde` stand-in is a
//! marker-only stub (see `vendor/README.md`), so the workspace's
//! `#[derive(Serialize)]` attributes document intent while these writers
//! do the actual work. `na-pipeline` composes them into the single JSON
//! document of a `CompiledProgram`.

use std::fmt::Write as _;

use na_mapper::{AtomId, CacheStats, MapStats};
use serde::{Deserialize, Serialize};

use crate::aod_program::{AodInstruction, AodProgram};
use crate::items::{Schedule, ScheduledItem};
use crate::metrics::{ComparisonReport, ScheduleMetrics};

/// Serializes the schedule as CSV with one row per scheduled item:
/// `kind,start_us,duration_us,atoms,detail`.
///
/// # Example
///
/// ```
/// use na_arch::HardwareParams;
/// use na_circuit::Circuit;
/// use na_schedule::{export::to_csv, Scheduler};
/// let params = HardwareParams::mixed()
///     .to_builder().lattice(4, 3.0).num_atoms(8).build()?;
/// let mut c = Circuit::new(2);
/// c.h(0).cz(0, 1);
/// let csv = to_csv(&Scheduler::new(params).schedule_original(&c));
/// assert!(csv.starts_with("kind,start_us,duration_us,atoms,detail"));
/// assert_eq!(csv.lines().count(), 3); // header + 2 items
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn to_csv(schedule: &Schedule) -> String {
    let mut out = String::from("kind,start_us,duration_us,atoms,detail\n");
    for item in &schedule.items {
        let atoms = item
            .atoms()
            .iter()
            .map(|a| a.0.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        let (kind, detail) = match item {
            ScheduledItem::SingleQubit { op_index, .. } => {
                ("single", op_index.map_or(String::new(), |i| i.to_string()))
            }
            ScheduledItem::Rydberg {
                op_index, atoms, ..
            } => (
                "rydberg",
                format!(
                    "arity={}{}",
                    atoms.len(),
                    op_index.map_or(String::new(), |i| format!(" op={i}"))
                ),
            ),
            ScheduledItem::SwapComposite { .. } => ("swap", String::new()),
            ScheduledItem::AodBatch { moves, .. } => ("aod", format!("moves={}", moves.len())),
        };
        let _ = writeln!(
            out,
            "{kind},{:.3},{:.3},{atoms},{detail}",
            item.start_us(),
            item.duration_us()
        );
    }
    out
}

/// Formats an `f64` as a JSON number (`null` for non-finite values,
/// which JSON cannot represent).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Incremental builder for a flat JSON object.
///
/// The hand-rolled `*_to_json` writers above each format one known
/// result type; service-layer code (metrics endpoints, error documents)
/// assembles objects field by field instead. This builder keeps that
/// assembly from re-implementing comma/escape bookkeeping at every call
/// site.
///
/// ```
/// use na_schedule::export::JsonObject;
/// let mut o = JsonObject::new();
/// o.uint("jobs", 3).num("p50_ms", 1.5).str("state", "ok");
/// assert_eq!(o.finish(), "{\"jobs\":3,\"p50_ms\":1.5,\"state\":\"ok\"}");
/// ```
#[derive(Debug, Clone)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            body: String::from("{"),
        }
    }

    fn key(&mut self, name: &str) -> &mut Self {
        if self.body.len() > 1 {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{}\":", json_escape(name));
        self
    }

    /// Appends a floating-point field (`null` for non-finite values).
    pub fn num(&mut self, name: &str, value: f64) -> &mut Self {
        self.key(name);
        self.body.push_str(&json_f64(value));
        self
    }

    /// Appends an unsigned integer field.
    pub fn uint(&mut self, name: &str, value: u64) -> &mut Self {
        self.key(name);
        let _ = write!(self.body, "{value}");
        self
    }

    /// Appends a string field, escaped.
    pub fn str(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name);
        let _ = write!(self.body, "\"{}\"", json_escape(value));
        self
    }

    /// Appends a pre-serialized JSON fragment verbatim (object, array,
    /// or literal). The caller guarantees it is well-formed.
    pub fn raw(&mut self, name: &str, fragment: &str) -> &mut Self {
        self.key(name);
        self.body.push_str(fragment);
        self
    }

    /// Closes the object and returns the document.
    pub fn finish(mut self) -> String {
        self.body.push('}');
        self.body
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

/// Serializes [`ScheduleMetrics`] as a JSON object.
pub fn metrics_to_json(m: &ScheduleMetrics) -> String {
    format!(
        "{{\"makespan_us\":{},\"idle_us\":{},\"log10_gate_fidelity\":{},\
         \"log10_success\":{},\"cz_count\":{},\"move_count\":{}}}",
        json_f64(m.makespan_us),
        json_f64(m.idle_us),
        json_f64(m.log10_gate_fidelity),
        json_f64(m.log10_success),
        m.cz_count,
        m.move_count,
    )
}

/// Serializes a [`ComparisonReport`] (the Table 1a quantities plus both
/// metric sets) as a JSON object.
pub fn comparison_to_json(r: &ComparisonReport) -> String {
    format!(
        "{{\"delta_cz\":{},\"delta_t_us\":{},\"delta_f\":{},\"moves\":{},\
         \"original\":{},\"mapped\":{}}}",
        r.delta_cz,
        json_f64(r.delta_t_us),
        json_f64(r.delta_f),
        r.moves,
        metrics_to_json(&r.original),
        metrics_to_json(&r.mapped),
    )
}

/// Serializes the mapper's [`MapStats`] as a JSON object.
pub fn map_stats_to_json(s: &MapStats) -> String {
    format!(
        "{{\"swaps_inserted\":{},\"shuttle_moves\":{},\
         \"gates_gate_routed\":{},\"gates_shuttle_routed\":{}}}",
        s.swaps_inserted, s.shuttle_moves, s.gates_gate_routed, s.gates_shuttle_routed,
    )
}

/// Serializes the routing-layer [`CacheStats`] (distance-cache
/// counters) as a JSON object.
///
/// Key names match the benchmark baseline (`BENCH_routing.json`) so the
/// regression guard's flat key scanner finds them whether they come
/// from a compiled program or a bench run: `cache_evictions` and
/// `cache_peak_entries` are the watched names.
pub fn cache_stats_to_json(s: &CacheStats) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"sites_settled\":{},\
         \"cache_evictions\":{},\"cache_peak_entries\":{}}}",
        s.hits, s.misses, s.sites_settled, s.evictions, s.peak_entries,
    )
}

/// Serializes a [`Schedule`] as a JSON object: aggregates plus one entry
/// per scheduled item (the JSON counterpart of [`to_csv`]).
pub fn schedule_to_json(schedule: &Schedule) -> String {
    let mut items = String::from("[");
    for (i, item) in schedule.items.iter().enumerate() {
        if i > 0 {
            items.push(',');
        }
        let kind = match item {
            ScheduledItem::SingleQubit { .. } => "single",
            ScheduledItem::Rydberg { .. } => "rydberg",
            ScheduledItem::SwapComposite { .. } => "swap",
            ScheduledItem::AodBatch { .. } => "aod",
        };
        let atoms = item
            .atoms()
            .iter()
            .map(|a| a.0.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let _ = write!(
            items,
            "{{\"kind\":\"{kind}\",\"start_us\":{},\"duration_us\":{},\"atoms\":[{atoms}]}}",
            json_f64(item.start_us()),
            json_f64(item.duration_us()),
        );
    }
    items.push(']');
    format!(
        "{{\"makespan_us\":{},\"num_qubits\":{},\"num_atoms\":{},\
         \"cz_count\":{},\"batch_count\":{},\"move_count\":{},\"items\":{items}}}",
        json_f64(schedule.makespan_us),
        schedule.num_qubits,
        schedule.num_atoms,
        schedule.cz_count(),
        schedule.batch_count(),
        schedule.move_count(),
    )
}

/// Serializes a lowered [`AodProgram`] as a JSON object with its native
/// instruction stream.
pub fn aod_program_to_json(program: &AodProgram) -> String {
    let mut instrs = String::from("[");
    for (i, instr) in program.instructions.iter().enumerate() {
        if i > 0 {
            instrs.push(',');
        }
        match instr {
            AodInstruction::ActivateRow { row, cols } => {
                let cols = cols
                    .iter()
                    .map(|c| json_f64(*c))
                    .collect::<Vec<_>>()
                    .join(",");
                let _ = write!(
                    instrs,
                    "{{\"op\":\"activate_row\",\"row\":{},\"cols\":[{cols}]}}",
                    json_f64(*row)
                );
            }
            AodInstruction::Offset { dx, dy } => {
                let _ = write!(
                    instrs,
                    "{{\"op\":\"offset\",\"dx\":{},\"dy\":{}}}",
                    json_f64(*dx),
                    json_f64(*dy)
                );
            }
            AodInstruction::Translate { rows, cols } => {
                let fmt_pairs = |pairs: &[(f64, f64)]| {
                    pairs
                        .iter()
                        .map(|&(f, t)| format!("[{},{}]", json_f64(f), json_f64(t)))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                let _ = write!(
                    instrs,
                    "{{\"op\":\"translate\",\"rows\":[{}],\"cols\":[{}]}}",
                    fmt_pairs(rows),
                    fmt_pairs(cols)
                );
            }
            AodInstruction::Deactivate => instrs.push_str("{\"op\":\"deactivate\"}"),
        }
    }
    instrs.push(']');
    let moves = program
        .moves
        .iter()
        .map(|m| {
            format!(
                "{{\"atom\":{},\"from\":[{},{}],\"to\":[{},{}]}}",
                m.atom.0, m.from.x, m.from.y, m.to.x, m.to.y
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"load_steps\":{},\"moves\":[{moves}],\"instructions\":{instrs}}}",
        program.load_steps()
    )
}

/// Per-atom utilization of a schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Utilization {
    /// Makespan in µs.
    pub makespan_us: f64,
    /// Busy time per atom in µs, indexed by atom id.
    pub busy_us: Vec<f64>,
}

impl Utilization {
    /// Computes per-atom busy times from a schedule.
    pub fn of(schedule: &Schedule) -> Self {
        let mut busy = vec![0.0f64; schedule.num_atoms as usize];
        for item in &schedule.items {
            for atom in item.atoms() {
                busy[atom.index()] += item.duration_us();
            }
        }
        Utilization {
            makespan_us: schedule.makespan_us,
            busy_us: busy,
        }
    }

    /// Busy fraction of one atom in `[0, 1]`.
    pub fn fraction(&self, atom: AtomId) -> f64 {
        if self.makespan_us > 0.0 {
            (self.busy_us[atom.index()] / self.makespan_us).min(1.0)
        } else {
            0.0
        }
    }

    /// Mean busy fraction over all atoms.
    pub fn mean_fraction(&self) -> f64 {
        if self.busy_us.is_empty() || self.makespan_us <= 0.0 {
            return 0.0;
        }
        self.busy_us.iter().sum::<f64>() / (self.busy_us.len() as f64 * self.makespan_us)
    }

    /// The busiest atom and its fraction.
    pub fn busiest(&self) -> Option<(AtomId, f64)> {
        self.busy_us
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| {
                let atom = AtomId(i as u32);
                (atom, self.fraction(atom))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Scheduler;
    use na_arch::HardwareParams;
    use na_circuit::generators::GraphState;
    use na_mapper::{HybridMapper, MapperConfig};

    fn sample_schedule() -> (Schedule, HardwareParams) {
        let params = HardwareParams::mixed()
            .to_builder()
            .lattice(5, 3.0)
            .num_atoms(14)
            .build()
            .expect("valid");
        let circuit = GraphState::new(12).edges(16).seed(4).build();
        let mapped = HybridMapper::new(
            params.clone(),
            MapperConfig::try_hybrid(1.0).expect("valid alpha"),
        )
        .expect("valid")
        .map(&circuit)
        .expect("mappable")
        .mapped;
        (
            Scheduler::new(params.clone()).schedule_mapped(&mapped),
            params,
        )
    }

    #[test]
    fn json_escaping_and_numbers() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn schedule_json_lists_every_item() {
        let (schedule, _) = sample_schedule();
        let json = schedule_to_json(&schedule);
        assert_eq!(json.matches("\"kind\":").count(), schedule.len());
        assert!(json.contains("\"makespan_us\":"));
        assert!(json.contains("\"rydberg\""));
    }

    #[test]
    fn metrics_and_comparison_json_shapes() {
        let (schedule, params) = sample_schedule();
        let m = crate::ScheduleMetrics::of(&schedule, &params);
        let mj = metrics_to_json(&m);
        assert!(mj.starts_with('{') && mj.ends_with('}'));
        assert!(mj.contains("\"log10_success\":"));
        let r = crate::ComparisonReport::between(&m, &m);
        let rj = comparison_to_json(&r);
        assert!(rj.contains("\"delta_cz\":0"));
        assert!(rj.contains("\"original\":{"));
    }

    #[test]
    fn cache_stats_json_carries_guarded_keys() {
        let stats = CacheStats {
            hits: 10,
            misses: 4,
            sites_settled: 1200,
            evictions: 3,
            peak_entries: 96,
            ..Default::default()
        };
        let json = cache_stats_to_json(&stats);
        assert_eq!(
            json,
            "{\"hits\":10,\"misses\":4,\"sites_settled\":1200,\
             \"cache_evictions\":3,\"cache_peak_entries\":96}"
        );
    }

    #[test]
    fn aod_program_json_covers_instructions() {
        use crate::aod_program::lower_batch;
        use crate::items::BatchedMove;
        let program = lower_batch(&[
            BatchedMove {
                atom: AtomId(0),
                from: na_arch::Site::new(0, 0),
                to: na_arch::Site::new(0, 2),
            },
            BatchedMove {
                atom: AtomId(1),
                from: na_arch::Site::new(2, 1),
                to: na_arch::Site::new(2, 3),
            },
        ]);
        let json = aod_program_to_json(&program);
        assert!(json.contains("\"op\":\"activate_row\""));
        assert!(json.contains("\"op\":\"translate\""));
        assert!(json.contains("\"op\":\"deactivate\""));
        assert_eq!(json.matches("\"atom\":").count(), 2);
    }

    #[test]
    fn csv_has_row_per_item() {
        let (schedule, _) = sample_schedule();
        let csv = to_csv(&schedule);
        assert_eq!(csv.lines().count(), schedule.len() + 1);
        assert!(csv.contains("rydberg"));
    }

    #[test]
    fn utilization_bounded() {
        let (schedule, _) = sample_schedule();
        let util = Utilization::of(&schedule);
        for i in 0..schedule.num_atoms {
            let f = util.fraction(AtomId(i));
            assert!((0.0..=1.0).contains(&f));
        }
        assert!(util.mean_fraction() > 0.0);
        assert!(util.mean_fraction() <= 1.0);
    }

    #[test]
    fn busiest_atom_exists() {
        let (schedule, _) = sample_schedule();
        let util = Utilization::of(&schedule);
        let (atom, f) = util.busiest().expect("non-empty");
        assert!(f > 0.0);
        assert!(atom.0 < schedule.num_atoms);
    }

    #[test]
    fn empty_schedule_zero_utilization() {
        let schedule = Schedule {
            items: vec![],
            makespan_us: 0.0,
            num_qubits: 2,
            num_atoms: 4,
        };
        let util = Utilization::of(&schedule);
        assert_eq!(util.mean_fraction(), 0.0);
    }

    #[test]
    fn json_object_builder_escapes_and_delimits() {
        let mut o = JsonObject::new();
        o.uint("count", 7)
            .num("ratio", 0.5)
            .num("bad", f64::NAN)
            .str("note", "a \"b\"\n")
            .raw("nested", "{\"x\":1}");
        assert_eq!(
            o.finish(),
            "{\"count\":7,\"ratio\":0.5,\"bad\":null,\
             \"note\":\"a \\\"b\\\"\\n\",\"nested\":{\"x\":1}}"
        );
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
