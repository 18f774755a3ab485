//! The versioned JSON job layer: one document in
//! ([`CompileRequest`]), one document out ([`CompileResponse`]).
//!
//! A service front-end drives the whole compile API from JSON:
//!
//! ```json
//! {
//!   "version": 1,
//!   "target": {"preset": "mixed", "lattice_side": 6, "num_atoms": 16},
//!   "mapping": {"mode": "hybrid", "alpha": 1.0},
//!   "circuits": [{"name": "bell",
//!                 "qasm": "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];"}]
//! }
//! ```
//!
//! [`CompileRequest::from_json`] parses and version-checks the document
//! (the vendored serde is a marker-only stub, so the parser here is
//! hand-written, mirroring the hand-written writers of
//! [`na_schedule::export`]); [`CompileRequest::run`] builds a
//! [`Compiler`] session, compiles every circuit (in
//! parallel when `"threads"` says so) and returns a
//! [`CompileResponse`] whose `to_json` embeds one
//! [`CompiledProgram::to_json`](crate::CompiledProgram::to_json)
//! document per successful circuit.
//!
//! The schema is versioned: documents must carry `"version": 1`;
//! anything else is rejected with
//! [`RequestError::UnsupportedVersion`] so a future v2 can change shape
//! safely.

use std::fmt;

use na_arch::{AodConstraints, HardwareParams, Lattice, NativeGateSet, TargetSpec};
use na_circuit::qasm::{from_qasm, QasmError};
use na_circuit::Circuit;
use na_mapper::{CancelToken, InitialLayout, MapperConfig};
use na_schedule::export::{json_escape, json_f64};

use crate::compiler::{Compiler, MappingMode, MappingOptions, SchedulingOptions};
use crate::error::CompileError;
use crate::program::CompiledProgram;

mod json;

use json::Value;

/// The current (and only) job schema version.
pub const JOB_VERSION: u64 = 1;

/// Errors raised while parsing or interpreting a job document.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RequestError {
    /// The document is not valid JSON.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// Explanation.
        message: String,
    },
    /// The document's `"version"` is not [`JOB_VERSION`].
    UnsupportedVersion {
        /// The version found (`-1` when absent or non-numeric).
        found: i64,
    },
    /// A required field is missing.
    MissingField {
        /// Dotted path of the field.
        field: &'static str,
    },
    /// A field value is malformed.
    InvalidField {
        /// Dotted path of the field.
        field: String,
        /// Explanation.
        reason: String,
    },
    /// The target preset name is unknown.
    UnknownPreset {
        /// The rejected name.
        preset: String,
    },
    /// A circuit's QASM source failed to parse.
    Qasm {
        /// Name of the offending circuit.
        circuit: String,
        /// The parse failure.
        source: QasmError,
    },
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Parse { offset, message } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            RequestError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported job version {found} (expected {JOB_VERSION})"
                )
            }
            RequestError::MissingField { field } => write!(f, "missing field `{field}`"),
            RequestError::InvalidField { field, reason } => {
                write!(f, "invalid field `{field}`: {reason}")
            }
            RequestError::UnknownPreset { preset } => {
                write!(
                    f,
                    "unknown hardware preset `{preset}` (expected shuttling, gate or mixed)"
                )
            }
            RequestError::Qasm { circuit, source } => {
                write!(f, "circuit `{circuit}` is not valid QASM: {source}")
            }
        }
    }
}

impl std::error::Error for RequestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RequestError::Qasm { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One circuit of a job: a name and its OpenQASM 2 source.
#[derive(Debug, Clone, PartialEq)]
pub struct JobCircuit {
    /// Caller-chosen identifier echoed in the response.
    pub name: String,
    /// OpenQASM 2 source text.
    pub qasm: String,
}

/// A parsed v1 compile request: target, options and circuits — the
/// JSON-facing mirror of a full [`Compiler`] session.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileRequest {
    /// Caller-chosen request identifier, echoed verbatim in the
    /// response (`"request_id"`, optional). Transport bookkeeping
    /// only: it never affects compilation or cache keys.
    pub request_id: Option<String>,
    /// Resolved backend target.
    pub target: TargetSpec,
    /// Mapping options.
    pub mapping: MappingOptions,
    /// Scheduling options.
    pub scheduling: SchedulingOptions,
    /// Whether to compute the ideal-baseline comparison.
    pub baseline: bool,
    /// Worker threads for the batch (1 = inline).
    pub threads: usize,
    /// Optional wall-clock budget in milliseconds (`"deadline_ms"`).
    ///
    /// Transport bookkeeping like `request_id`: a service turns it into
    /// a [`na_mapper::CancelToken`] deadline at admission
    /// time. It never affects compilation output or cache keys — a
    /// request that finishes within its budget produces bytes identical
    /// to the same request without one.
    pub deadline_ms: Option<u64>,
    /// The circuits to compile.
    pub circuits: Vec<JobCircuit>,
}

/// Outcome of one circuit of a job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The circuit's name from the request.
    pub name: String,
    /// The compiled artifact, or the typed failure.
    pub result: Result<CompiledProgram, CompileError>,
}

/// A v1 compile response: one [`JobOutcome`] per requested circuit, in
/// request order.
#[derive(Debug, Clone)]
pub struct CompileResponse {
    /// The request's `request_id`, echoed when it carried one.
    pub request_id: Option<String>,
    /// Identifier of the target the job compiled for.
    pub target: String,
    /// Per-circuit outcomes in request order.
    pub results: Vec<JobOutcome>,
}

/// Structural summary of a response document, as parsed back by
/// [`CompileResponse::summary_from_json`] — what a service front-end
/// needs to route results without deserializing whole programs.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseSummary {
    /// Schema version of the document.
    pub version: u64,
    /// The `request_id` echoed by the document, when present.
    pub request_id: Option<String>,
    /// Target identifier.
    pub target: String,
    /// `(name, ok, error message)` per result, in document order.
    pub results: Vec<(String, bool, Option<String>)>,
}

impl CompileRequest {
    /// Parses and version-checks a v1 job document.
    ///
    /// # Errors
    ///
    /// Returns the first [`RequestError`] encountered: malformed JSON,
    /// an unsupported `"version"`, a missing/invalid field or an
    /// unknown preset. QASM sources are *not* parsed here — they fail
    /// per-circuit in [`CompileRequest::run`] so one bad circuit cannot
    /// poison a batch.
    pub fn from_json(text: &str) -> Result<Self, RequestError> {
        Self::from_json_with(text, &mut TargetResolver::new())
    }

    /// [`CompileRequest::from_json`] with a caller-owned
    /// [`TargetResolver`]: repeated documents naming the same target
    /// (by content, not by identity) reuse the resolved [`TargetSpec`]
    /// snapshot instead of re-deriving the CSR interaction table — the
    /// hot parse path of a long-running service.
    ///
    /// # Errors
    ///
    /// Same contract as [`CompileRequest::from_json`].
    pub fn from_json_with(text: &str, resolver: &mut TargetResolver) -> Result<Self, RequestError> {
        let doc = json::parse(text)?;
        let version = doc.get("version").and_then(Value::as_u64);
        if version != Some(JOB_VERSION) {
            return Err(RequestError::UnsupportedVersion {
                found: doc.get("version").and_then(Value::as_i64).unwrap_or(-1),
            });
        }
        let request_id = match doc.get("request_id") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| invalid("request_id", "expected a string"))?
                    .to_owned(),
            ),
        };
        let target = resolver.resolve(parse_target_descriptor(doc.get("target"))?);
        let mapping = parse_mapping(doc.get("mapping"))?;
        let scheduling = parse_scheduling(doc.get("scheduling"))?;
        let baseline = match doc.get("baseline") {
            None => true,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| invalid("baseline", "expected a boolean"))?,
        };
        let threads = match doc.get("threads") {
            None => 1,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| invalid("threads", "expected a non-negative integer"))?
                .max(1) as usize,
        };
        let deadline_ms = match doc.get("deadline_ms") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| invalid("deadline_ms", "expected a non-negative integer"))?,
            ),
        };
        let circuits_value = doc
            .get("circuits")
            .ok_or(RequestError::MissingField { field: "circuits" })?;
        let entries = circuits_value
            .as_array()
            .ok_or_else(|| invalid("circuits", "expected an array"))?;
        let mut circuits = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let name = entry
                .get("name")
                .and_then(Value::as_str)
                .map(str::to_owned)
                .unwrap_or_else(|| format!("circuit-{i}"));
            let qasm = entry
                .get("qasm")
                .and_then(Value::as_str)
                .ok_or_else(|| invalid(&format!("circuits[{i}].qasm"), "expected a string"))?
                .to_owned();
            circuits.push(JobCircuit { name, qasm });
        }
        Ok(CompileRequest {
            request_id,
            target,
            mapping,
            scheduling,
            baseline,
            threads,
            deadline_ms,
            circuits,
        })
    }

    /// Emits the request as a v1 document. Every parameter is written
    /// explicitly, so parsed documents round-trip exactly
    /// (`from_json(to_json(from_json(doc)?)?) == from_json(doc)`). A
    /// hand-built request emits its *effective* values — e.g. a layout
    /// override on a custom mapping is folded into the config — so the
    /// reparse is semantically identical even where the in-memory
    /// representation normalizes.
    pub fn to_json(&self) -> String {
        let target = target_parts_to_json(
            &self.target.params,
            &self.target.lattice,
            self.target.aod,
            self.target.gates,
        );
        let request_id = match &self.request_id {
            Some(id) => format!("\"request_id\": \"{}\",\n  ", json_escape(id)),
            None => String::new(),
        };
        let mapping = mapping_to_json(&self.mapping);
        let scheduling = match self.scheduling.max_batch_moves {
            Some(n) => format!("{{\"max_batch_moves\":{n}}}"),
            None => "{}".to_string(),
        };
        let circuits = self
            .circuits
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":\"{}\",\"qasm\":\"{}\"}}",
                    json_escape(&c.name),
                    json_escape(&c.qasm)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let deadline = match self.deadline_ms {
            Some(ms) => format!("\"deadline_ms\": {ms},\n  "),
            None => String::new(),
        };
        format!(
            "{{\n  {request_id}\"version\": {JOB_VERSION},\n  \"target\": {target},\n  \
             \"mapping\": {mapping},\n  \"scheduling\": {scheduling},\n  \
             \"baseline\": {},\n  \"threads\": {},\n  {deadline}\"circuits\": [{circuits}]\n}}\n",
            self.baseline, self.threads,
        )
    }

    /// Builds the [`Compiler`] session described by this request and
    /// compiles every circuit, fanning out across `threads` workers.
    ///
    /// # Errors
    ///
    /// Returns a session-level [`CompileError`] when the target or the
    /// options are invalid. Per-circuit failures (bad QASM, routing
    /// stuck, …) land in the corresponding [`JobOutcome`] instead of
    /// failing the job.
    pub fn run(&self) -> Result<CompileResponse, CompileError> {
        let compiler = self.build_session()?;
        self.run_with(&compiler, &mut crate::CompileScratch::new(), None)
    }

    /// Builds the [`Compiler`] session this request describes (target,
    /// mapping, scheduling, baseline) without compiling anything —
    /// the seam a service uses to cache sessions across requests.
    ///
    /// # Errors
    ///
    /// The session-level [`CompileError`] cases of
    /// [`CompileRequest::run`].
    pub fn build_session(&self) -> Result<Compiler, CompileError> {
        Compiler::for_target(&self.target)
            .mapping(self.mapping.clone())
            .scheduling(self.scheduling)
            .baseline(self.baseline)
            .build()
    }

    /// Compiles every circuit of the request on an already-built
    /// session, reusing the caller's warm scratch arena, optionally
    /// under a cooperative [`CancelToken`].
    ///
    /// Without a token, `threads > 1` fans out through
    /// [`Compiler::compile_batch`]; otherwise circuits compile inline on
    /// `scratch` so a service worker keeps one arena warm across every
    /// request it serves. With a token, circuits always compile inline
    /// (a request racing its deadline has no business amplifying onto
    /// more cores), and the first checkpoint trip aborts the *whole
    /// request*: a deadline covers the request, not each circuit, so
    /// the caller replies with one typed deadline/cancellation document
    /// instead of a partial response. Artifacts are identical on every
    /// path. `compiler` must be the session of
    /// [`CompileRequest::build_session`] (or an equivalent one — e.g. a
    /// content-hash cached instance).
    ///
    /// # Errors
    ///
    /// [`CompileError::DeadlineExceeded`] / [`CompileError::Cancelled`]
    /// when the token tripped mid-compile. Other per-circuit failures
    /// (bad QASM, routing stuck, …) land in their [`JobOutcome`] slot
    /// instead of failing the request.
    pub fn run_with(
        &self,
        compiler: &Compiler,
        scratch: &mut crate::CompileScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<CompileResponse, CompileError> {
        // Parse QASM per circuit; parse failures stay in their slot
        // while the parsed circuits land (unduplicated) in the batch.
        let mut good: Vec<Circuit> = Vec::with_capacity(self.circuits.len());
        let mut slots: Vec<Result<(), CompileError>> = Vec::with_capacity(self.circuits.len());
        for job in &self.circuits {
            match from_qasm(&job.qasm) {
                Ok(circuit) => {
                    good.push(circuit);
                    slots.push(Ok(()));
                }
                Err(source) => slots.push(Err(CompileError::Request(RequestError::Qasm {
                    circuit: job.name.clone(),
                    source,
                }))),
            }
        }
        let compiled = if self.threads > 1 && cancel.is_none() {
            compiler.compile_batch(&good, self.threads)
        } else {
            let mut compiled = Vec::with_capacity(good.len());
            for circuit in &good {
                match compiler.compile_with(circuit, scratch, cancel) {
                    Err(e @ (CompileError::DeadlineExceeded | CompileError::Cancelled)) => {
                        return Err(e)
                    }
                    other => compiled.push(other),
                }
            }
            compiled
        };
        let mut compiled = compiled.into_iter();
        let results = self
            .circuits
            .iter()
            .zip(slots)
            .map(|(job, slot)| JobOutcome {
                name: job.name.clone(),
                result: match slot {
                    Ok(()) => compiled.next().expect("one result per parsed circuit"),
                    Err(e) => Err(e),
                },
            })
            .collect();
        Ok(CompileResponse {
            request_id: self.request_id.clone(),
            target: self.target.id.clone(),
            results,
        })
    }
}

impl CompileResponse {
    /// Serializes the response as one v1 document: per-circuit status
    /// with the full [`CompiledProgram::to_json`] artifact on success.
    pub fn to_json(&self) -> String {
        let results = self
            .results
            .iter()
            .map(|r| match &r.result {
                Ok(program) => format!(
                    "{{\"name\":\"{}\",\"ok\":true,\"program\":{}}}",
                    json_escape(&r.name),
                    program.to_json()
                ),
                Err(e) => format!(
                    "{{\"name\":\"{}\",\"ok\":false,\"error\":\"{}\"}}",
                    json_escape(&r.name),
                    json_escape(&e.to_string())
                ),
            })
            .collect::<Vec<_>>()
            .join(",\n    ");
        let request_id = match &self.request_id {
            Some(id) => format!("\"request_id\": \"{}\",\n  ", json_escape(id)),
            None => String::new(),
        };
        format!(
            "{{\n  {request_id}\"version\": {JOB_VERSION},\n  \"target\": \"{}\",\n  \"results\": [\n    {results}\n  ]\n}}\n",
            json_escape(&self.target),
        )
    }

    /// Parses the structural summary back out of a response document
    /// (version, target, per-circuit status) — the consumer-side half
    /// of the round trip.
    ///
    /// # Errors
    ///
    /// Returns [`RequestError::Parse`] for malformed JSON and
    /// [`RequestError::UnsupportedVersion`] for any version other than
    /// [`JOB_VERSION`].
    pub fn summary_from_json(text: &str) -> Result<ResponseSummary, RequestError> {
        let doc = json::parse(text)?;
        let version = doc
            .get("version")
            .and_then(Value::as_u64)
            .ok_or(RequestError::MissingField { field: "version" })?;
        if version != JOB_VERSION {
            return Err(RequestError::UnsupportedVersion {
                found: version as i64,
            });
        }
        let request_id = doc
            .get("request_id")
            .and_then(Value::as_str)
            .map(str::to_owned);
        let target = doc
            .get("target")
            .and_then(Value::as_str)
            .ok_or(RequestError::MissingField { field: "target" })?
            .to_owned();
        let entries = doc
            .get("results")
            .and_then(Value::as_array)
            .ok_or(RequestError::MissingField { field: "results" })?;
        let mut results = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let name = entry
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| invalid(&format!("results[{i}].name"), "expected a string"))?
                .to_owned();
            let ok = entry
                .get("ok")
                .and_then(Value::as_bool)
                .ok_or_else(|| invalid(&format!("results[{i}].ok"), "expected a boolean"))?;
            let error = entry
                .get("error")
                .and_then(Value::as_str)
                .map(str::to_owned);
            results.push((name, ok, error));
        }
        Ok(ResponseSummary {
            version,
            request_id,
            target,
            results,
        })
    }
}

/// Parses, runs and serializes in one call — the service entry point:
/// one JSON document in, one JSON document out.
///
/// # Errors
///
/// Returns [`CompileError::Request`] for a malformed document and the
/// session-level [`CompileError`] cases of [`CompileRequest::run`].
pub fn handle_json(request: &str) -> Result<String, CompileError> {
    let request = CompileRequest::from_json(request).map_err(CompileError::Request)?;
    Ok(request.run()?.to_json())
}

/// Serializes a [`CompileError`] as a well-formed v1 error document:
///
/// ```json
/// {"version": 1, "ok": false,
///  "error": {"kind": "request", "message": "..."}}
/// ```
///
/// `kind` names the [`CompileError`] variant (`request`, `target`,
/// `config`, `map`, `schedule`, `deadline`, `cancelled`), so transports
/// can map document classes to status codes without string-matching
/// messages.
pub fn error_to_json(error: &CompileError) -> String {
    let kind = match error {
        CompileError::Target(_) => "target",
        CompileError::Config(_) => "config",
        CompileError::Map(_) => "map",
        CompileError::Schedule(_) => "schedule",
        CompileError::Request(_) => "request",
        CompileError::DeadlineExceeded => "deadline",
        CompileError::Cancelled => "cancelled",
    };
    format!(
        "{{\n  \"version\": {JOB_VERSION},\n  \"ok\": false,\n  \
         \"error\": {{\"kind\":\"{kind}\",\"message\":\"{}\"}}\n}}\n",
        json_escape(&error.to_string()),
    )
}

/// The infallible service entry point: one JSON document in, one JSON
/// document out, **always**. Success returns the
/// [`CompileResponse::to_json`] document of [`handle_json`]; any
/// failure (malformed JSON, wrong `"version"`, invalid target or
/// options) returns the [`error_to_json`] document instead — transport
/// code never has to format errors ad hoc.
pub fn handle_json_document(request: &str) -> String {
    match handle_json(request) {
        Ok(response) => response,
        Err(e) => error_to_json(&e),
    }
}

/// Splices a `request_id` echo into a response document serialized
/// without one, producing exactly the bytes
/// [`CompileResponse::to_json`] emits when `request_id` is set.
///
/// This is the seam that lets a response cache stay content-addressed:
/// the cache stores the id-less canonical document once, and each
/// submitter gets its own id spliced in —
/// `with_request_id(resp_without_id.to_json(), id) ==
/// resp_with_id.to_json()` (tested).
pub fn with_request_id(response_json: &str, id: &str) -> String {
    match response_json.strip_prefix("{\n  ") {
        Some(rest) => format!("{{\n  \"request_id\": \"{}\",\n  {rest}", json_escape(id)),
        // Not a canonical response document (e.g. already compacted):
        // leave it untouched rather than corrupt it.
        None => response_json.to_owned(),
    }
}

fn invalid(field: &str, reason: &str) -> RequestError {
    RequestError::InvalidField {
        field: field.to_owned(),
        reason: reason.to_owned(),
    }
}

/// Applies `"$prefix.$field"` number overrides from `$obj` onto the
/// matching fields of `$dst`.
macro_rules! override_f64_fields {
    ($obj:expr, $dst:expr, $prefix:literal, [$($field:ident),+ $(,)?]) => {
        $(
            if let Some(v) = $obj.get(stringify!($field)) {
                $dst.$field = v.as_f64().ok_or_else(|| {
                    invalid(concat!($prefix, ".", stringify!($field)), "expected a number")
                })?;
            }
        )+
    };
}

/// Like [`override_f64_fields!`] for unsigned integer fields.
macro_rules! override_uint_fields {
    ($obj:expr, $dst:expr, $prefix:literal, $ty:ty, [$($field:ident),+ $(,)?]) => {
        $(
            if let Some(v) = $obj.get(stringify!($field)) {
                let raw = v.as_u64().ok_or_else(|| {
                    invalid(
                        concat!($prefix, ".", stringify!($field)),
                        "expected a non-negative integer",
                    )
                })?;
                $dst.$field = <$ty>::try_from(raw).map_err(|_| {
                    invalid(
                        concat!($prefix, ".", stringify!($field)),
                        &format!("{raw} exceeds the field's range"),
                    )
                })?;
            }
        )+
    };
}

/// Reads an in-range `u32` field of `obj`, rejecting both non-integers
/// and values that would truncate.
fn get_u32(obj: &Value, key: &str, path: &str) -> Result<Option<u32>, RequestError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => {
            let raw = v
                .as_u64()
                .ok_or_else(|| invalid(path, "expected a non-negative integer"))?;
            u32::try_from(raw)
                .map(Some)
                .map_err(|_| invalid(path, &format!("{raw} exceeds the field's range")))
        }
    }
}

/// The preset whose *timing/coherence* base the params started from.
/// Emission-side only; `from_json` re-applies every field explicitly,
/// so this is informational.
fn preset_of(p: &HardwareParams) -> &'static str {
    match p.name.as_str() {
        "shuttling" => "shuttling",
        "gate" => "gate",
        _ => "mixed",
    }
}

/// Canonical JSON emission of a target description — the shared
/// serialization behind both [`CompileRequest::to_json`] and the
/// content fingerprints of [`crate::fingerprint`]. Every field that
/// determines compilation output is written explicitly; derived data
/// (CSR adjacency) is not part of the description.
pub(crate) fn target_parts_to_json(
    p: &HardwareParams,
    lattice: &Lattice,
    aod: AodConstraints,
    gates: NativeGateSet,
) -> String {
    let topology = match lattice.kind() {
        na_arch::LatticeKind::Square => "{\"kind\":\"square\"}".to_string(),
        na_arch::LatticeKind::Zoned {
            zone_rows,
            gap_rows,
        } => {
            format!("{{\"kind\":\"zoned\",\"zone_rows\":{zone_rows},\"gap_rows\":{gap_rows}}}")
        }
    };
    let aod = match aod.max_batch_moves {
        Some(n) => format!(",\"max_batch_moves\":{n}"),
        None => String::new(),
    };
    let arity = if gates.max_rydberg_arity == usize::MAX {
        String::new()
    } else {
        format!(",\"max_rydberg_arity\":{}", gates.max_rydberg_arity)
    };
    format!(
        "{{\"preset\":\"{}\",\"name\":\"{}\",\"topology\":{topology},\
         \"lattice_side\":{},\"lattice_constant_um\":{},\"num_atoms\":{},\
         \"r_int\":{},\"r_restr\":{},\"f_cz\":{},\"f_single\":{},\"f_shuttle\":{},\
         \"t_single_us\":{},\"t_cz_us\":{},\"t_ccz_us\":{},\"t_cccz_us\":{},\
         \"shuttle_speed_um_per_us\":{},\"t_act_us\":{},\"t_deact_us\":{},\
         \"t1_us\":{},\"t2_us\":{}{aod}{arity},\"supports_shuttling\":{}}}",
        json_escape(preset_of(p)),
        json_escape(&p.name),
        p.lattice_side,
        json_f64(p.lattice_constant_um),
        p.num_atoms,
        json_f64(p.r_int),
        json_f64(p.r_restr),
        json_f64(p.f_cz),
        json_f64(p.f_single),
        json_f64(p.f_shuttle),
        json_f64(p.t_single_us),
        json_f64(p.t_cz_us),
        json_f64(p.t_ccz_us),
        json_f64(p.t_cccz_us),
        json_f64(p.shuttle_speed_um_per_us),
        json_f64(p.t_act_us),
        json_f64(p.t_deact_us),
        json_f64(p.t1_us),
        json_f64(p.t2_us),
        gates.supports_shuttling,
    )
}

/// A parsed-but-unresolved target: every descriptive field of a
/// [`TargetSpec`] *before* the (comparatively expensive) CSR
/// interaction-table derivation.
#[derive(Debug, Clone)]
struct TargetDescriptor {
    id: String,
    params: HardwareParams,
    lattice: Lattice,
    aod: AodConstraints,
    gates: NativeGateSet,
}

impl TargetDescriptor {
    /// Content hash over the canonical description (pre-resolution).
    fn fingerprint(&self) -> u64 {
        crate::fingerprint::target_parts_fingerprint(
            &self.params,
            &self.lattice,
            self.aod,
            self.gates,
        )
    }

    /// Pays for CSR interaction-table derivation.
    fn resolve(self) -> TargetSpec {
        TargetSpec::resolve(self.id, self.params, self.lattice, self.aod, self.gates)
    }
}

/// A content-hash cache of resolved [`TargetSpec`] snapshots.
///
/// Resolving a spec derives the CSR interaction table — `O(sites ·
/// hood)` work that a service would otherwise repeat on
/// every request naming the same machine. The resolver hashes the
/// *description* (FNV-1a over the canonical target JSON, see
/// [`crate::fingerprint`]) and clones the previously resolved snapshot
/// on a hit; requests describing the same target by content share one
/// resolution no matter how their documents are formatted.
#[derive(Debug, Default)]
pub struct TargetResolver {
    entries: std::collections::HashMap<u64, TargetSpec>,
    hits: u64,
    misses: u64,
}

impl TargetResolver {
    /// An empty resolver.
    pub fn new() -> Self {
        TargetResolver::default()
    }

    /// Cache hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (resolutions actually performed).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Distinct targets currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no target has been resolved yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn resolve(&mut self, descriptor: TargetDescriptor) -> TargetSpec {
        let key = descriptor.fingerprint();
        if let Some(spec) = self.entries.get(&key) {
            self.hits += 1;
            return spec.clone();
        }
        self.misses += 1;
        let spec = descriptor.resolve();
        self.entries.insert(key, spec.clone());
        spec
    }
}

fn parse_target_descriptor(value: Option<&Value>) -> Result<TargetDescriptor, RequestError> {
    let obj = match value {
        None => return Err(RequestError::MissingField { field: "target" }),
        Some(v) => v,
    };
    let preset = obj.get("preset").and_then(Value::as_str).unwrap_or("mixed");
    let mut params = match preset {
        "shuttling" => HardwareParams::shuttling(),
        "gate" | "gate_based" | "gate-based" => HardwareParams::gate_based(),
        "mixed" => HardwareParams::mixed(),
        other => {
            return Err(RequestError::UnknownPreset {
                preset: other.to_owned(),
            })
        }
    };
    if let Some(name) = obj.get("name").and_then(Value::as_str) {
        params.name = name.to_owned();
    }
    override_f64_fields!(
        obj,
        params,
        "target",
        [
            lattice_constant_um,
            r_int,
            r_restr,
            f_cz,
            f_single,
            f_shuttle,
            t_single_us,
            t_cz_us,
            t_ccz_us,
            t_cccz_us,
            shuttle_speed_um_per_us,
            t_act_us,
            t_deact_us,
            t1_us,
            t2_us,
        ]
    );
    override_uint_fields!(obj, params, "target", u32, [lattice_side, num_atoms]);
    if params.lattice_side == 0 {
        return Err(invalid("target.lattice_side", "must be positive"));
    }
    let square = || {
        (
            Lattice::new(params.lattice_side),
            format!("square/{}", params.name),
        )
    };
    let (lattice, id) = match obj.get("topology") {
        None => square(),
        Some(topo) => {
            let kind = topo
                .get("kind")
                .and_then(Value::as_str)
                .ok_or_else(|| invalid("target.topology.kind", "expected a string"))?;
            match kind {
                "square" => square(),
                "zoned" => {
                    let zone = get_u32(topo, "zone_rows", "target.topology.zone_rows")?.ok_or(
                        RequestError::MissingField {
                            field: "target.topology.zone_rows",
                        },
                    )?;
                    let gap = get_u32(topo, "gap_rows", "target.topology.gap_rows")?.ok_or(
                        RequestError::MissingField {
                            field: "target.topology.gap_rows",
                        },
                    )?;
                    (
                        Lattice::zoned(params.lattice_side, zone, gap)
                            .map_err(|e| invalid("target.topology", &e.to_string()))?,
                        format!("zoned{zone}+{gap}/{}", params.name),
                    )
                }
                other => {
                    return Err(invalid(
                        "target.topology.kind",
                        &format!("unknown topology `{other}`"),
                    ))
                }
            }
        }
    };
    let aod = AodConstraints {
        max_batch_moves: match obj.get("max_batch_moves") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                invalid("target.max_batch_moves", "expected a non-negative integer")
            })? as usize),
        },
    };
    let gates = NativeGateSet {
        max_rydberg_arity: match obj.get("max_rydberg_arity") {
            None => usize::MAX,
            Some(v) => v.as_u64().ok_or_else(|| {
                invalid(
                    "target.max_rydberg_arity",
                    "expected a non-negative integer",
                )
            })? as usize,
        },
        supports_shuttling: match obj.get("supports_shuttling") {
            None => true,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| invalid("target.supports_shuttling", "expected a boolean"))?,
        },
    };
    Ok(TargetDescriptor {
        id,
        params,
        lattice,
        aod,
        gates,
    })
}

fn parse_layout(value: &Value) -> Result<InitialLayout, RequestError> {
    if let Some(s) = value.as_str() {
        return match s {
            "identity" => Ok(InitialLayout::Identity),
            "center_compact" => Ok(InitialLayout::CenterCompact),
            other => Err(invalid(
                "mapping.initial_layout",
                &format!("unknown layout `{other}`"),
            )),
        };
    }
    if let Some(seed) = value.get("random").and_then(Value::as_u64) {
        return Ok(InitialLayout::Random(seed));
    }
    Err(invalid(
        "mapping.initial_layout",
        "expected \"identity\", \"center_compact\" or {\"random\": seed}",
    ))
}

fn parse_mapping(value: Option<&Value>) -> Result<MappingOptions, RequestError> {
    let obj = match value {
        None => return Ok(MappingOptions::default()),
        Some(v) => v,
    };
    let mode = obj.get("mode").and_then(Value::as_str).unwrap_or("hybrid");
    let mut options = match mode {
        "hybrid" => {
            let alpha = match obj.get("alpha") {
                None => 1.0,
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| invalid("mapping.alpha", "expected a number"))?,
            };
            MappingOptions::hybrid(alpha)
        }
        "gate_only" => MappingOptions::gate_only(),
        "shuttle_only" => MappingOptions::shuttle_only(),
        "custom" => {
            let mut config = MapperConfig::default();
            override_f64_fields!(
                obj,
                config,
                "mapping",
                [
                    alpha_gate,
                    alpha_shuttle,
                    lookahead_weight,
                    time_weight,
                    decay_rate
                ]
            );
            override_uint_fields!(
                obj,
                config,
                "mapping",
                usize,
                [
                    recency_window,
                    lookahead_depth,
                    lookahead_max_gates,
                    max_ops_per_gate
                ]
            );
            // For the custom mode the layout is part of the config, so
            // the full configuration round-trips through one key.
            if let Some(layout) = obj.get("initial_layout") {
                config.initial_layout = parse_layout(layout)?;
            }
            return Ok(MappingOptions::custom(config));
        }
        other => {
            return Err(invalid(
                "mapping.mode",
                &format!(
                    "unknown mode `{other}` (expected hybrid, gate_only, shuttle_only or custom)"
                ),
            ))
        }
    };
    if let Some(layout) = obj.get("initial_layout") {
        options = options.with_initial_layout(parse_layout(layout)?);
    }
    Ok(options)
}

fn layout_to_json(layout: InitialLayout) -> String {
    match layout {
        InitialLayout::Identity => ",\"initial_layout\":\"identity\"".to_string(),
        InitialLayout::CenterCompact => ",\"initial_layout\":\"center_compact\"".to_string(),
        InitialLayout::Random(seed) => format!(",\"initial_layout\":{{\"random\":{seed}}}"),
        // `InitialLayout` is non-exhaustive within the workspace only;
        // new layouts must be given a JSON spelling here first.
        #[allow(unreachable_patterns)]
        other => unreachable!("unhandled layout {other:?}"),
    }
}

pub(crate) fn mapping_to_json(options: &MappingOptions) -> String {
    let layout = match options.initial_layout {
        None => String::new(),
        Some(layout) => layout_to_json(layout),
    };
    match &options.mode {
        MappingMode::Hybrid { alpha_ratio } => {
            format!(
                "{{\"mode\":\"hybrid\",\"alpha\":{}{layout}}}",
                json_f64(*alpha_ratio)
            )
        }
        MappingMode::GateOnly => format!("{{\"mode\":\"gate_only\"{layout}}}"),
        MappingMode::ShuttleOnly => format!("{{\"mode\":\"shuttle_only\"{layout}}}"),
        MappingMode::Custom(c) => {
            // The effective layout (an explicit override wins over the
            // config's own) is emitted with the config, so a custom
            // mapping round-trips its placement too.
            let layout = layout_to_json(options.initial_layout.unwrap_or(c.initial_layout));
            format!(
                "{{\"mode\":\"custom\",\"alpha_gate\":{},\"alpha_shuttle\":{},\
                 \"lookahead_weight\":{},\"time_weight\":{},\"decay_rate\":{},\
                 \"recency_window\":{},\"lookahead_depth\":{},\"lookahead_max_gates\":{},\
                 \"max_ops_per_gate\":{}{layout}}}",
                json_f64(c.alpha_gate),
                json_f64(c.alpha_shuttle),
                json_f64(c.lookahead_weight),
                json_f64(c.time_weight),
                json_f64(c.decay_rate),
                c.recency_window,
                c.lookahead_depth,
                c.lookahead_max_gates,
                c.max_ops_per_gate,
            )
        }
    }
}

fn parse_scheduling(value: Option<&Value>) -> Result<SchedulingOptions, RequestError> {
    let obj = match value {
        None => return Ok(SchedulingOptions::default()),
        Some(v) => v,
    };
    let mut options = SchedulingOptions::default();
    if let Some(v) = obj.get("max_batch_moves") {
        let n = v.as_u64().ok_or_else(|| {
            invalid(
                "scheduling.max_batch_moves",
                "expected a non-negative integer",
            )
        })?;
        options = options.max_batch_moves(n as usize);
    }
    Ok(options)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BELL: &str =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n";

    fn minimal_request(extra: &str) -> String {
        format!(
            "{{\"version\": 1, \"target\": {{\"preset\": \"mixed\", \"lattice_side\": 6, \
             \"num_atoms\": 16}}{extra}, \"circuits\": [{{\"name\": \"bell\", \"qasm\": \
             \"{}\"}}]}}",
            json_escape(BELL)
        )
    }

    #[test]
    fn parses_minimal_document_with_defaults() {
        let req = CompileRequest::from_json(&minimal_request("")).expect("parses");
        assert_eq!(req.target.id, "square/mixed");
        assert_eq!(req.target.params.lattice_side, 6);
        assert_eq!(req.target.params.num_atoms, 16);
        assert_eq!(req.mapping, MappingOptions::hybrid(1.0));
        assert!(req.baseline);
        assert_eq!(req.threads, 1);
        assert_eq!(req.circuits.len(), 1);
    }

    #[test]
    fn deeply_nested_document_is_a_typed_error_on_a_small_stack() {
        // 200 000 open brackets on a 2 MiB stack (an HTTP connection
        // thread's size): unbounded recursion would overflow the stack
        // and abort the process instead of answering.
        let reply = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| handle_json_document(&"[".repeat(200_000)))
            .expect("spawn")
            .join()
            .expect("no panic");
        assert!(reply.contains("\"kind\":\"request\""), "{reply}");
        assert!(reply.contains("nesting deeper than 64 levels"), "{reply}");
    }

    #[test]
    fn rejects_unknown_version() {
        let doc = minimal_request("").replace("\"version\": 1", "\"version\": 2");
        assert!(matches!(
            CompileRequest::from_json(&doc),
            Err(RequestError::UnsupportedVersion { found: 2 })
        ));
        let doc = minimal_request("").replace("\"version\": 1,", "");
        assert!(matches!(
            CompileRequest::from_json(&doc),
            Err(RequestError::UnsupportedVersion { found: -1 })
        ));
    }

    #[test]
    fn rejects_unknown_preset_and_topology() {
        let doc = minimal_request("").replace("\"preset\": \"mixed\"", "\"preset\": \"ionq\"");
        assert!(matches!(
            CompileRequest::from_json(&doc),
            Err(RequestError::UnknownPreset { .. })
        ));
        let doc = minimal_request("").replace(
            "\"num_atoms\": 16",
            "\"num_atoms\": 16, \"topology\": {\"kind\": \"hex\"}",
        );
        assert!(matches!(
            CompileRequest::from_json(&doc),
            Err(RequestError::InvalidField { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_and_zero_dimensions() {
        // 2^32 + 16 must not silently truncate to 16 atoms.
        let doc = minimal_request("").replace("\"num_atoms\": 16", "\"num_atoms\": 4294967312");
        assert!(matches!(
            CompileRequest::from_json(&doc),
            Err(RequestError::InvalidField { .. })
        ));
        // A zero lattice side is rejected at parse time, not patched up.
        let doc = minimal_request("").replace("\"lattice_side\": 6", "\"lattice_side\": 0");
        assert!(matches!(
            CompileRequest::from_json(&doc),
            Err(RequestError::InvalidField { .. })
        ));
    }

    #[test]
    fn request_round_trips_through_json() {
        let doc = minimal_request(
            ", \"mapping\": {\"mode\": \"hybrid\", \"alpha\": 1.5}, \
             \"scheduling\": {\"max_batch_moves\": 4}, \"baseline\": false, \"threads\": 2",
        );
        let req = CompileRequest::from_json(&doc).expect("parses");
        let emitted = req.to_json();
        let reparsed = CompileRequest::from_json(&emitted).expect("re-parses");
        assert_eq!(req, reparsed);
    }

    #[test]
    fn deadline_ms_parses_and_round_trips() {
        let doc = minimal_request(", \"deadline_ms\": 250");
        let req = CompileRequest::from_json(&doc).expect("parses");
        assert_eq!(req.deadline_ms, Some(250));
        let reparsed = CompileRequest::from_json(&req.to_json()).expect("re-parses");
        assert_eq!(req, reparsed);
        // Absent by default; malformed values are rejected typed.
        let req = CompileRequest::from_json(&minimal_request("")).expect("parses");
        assert_eq!(req.deadline_ms, None);
        let bad = minimal_request(", \"deadline_ms\": \"soon\"");
        assert!(matches!(
            CompileRequest::from_json(&bad),
            Err(RequestError::InvalidField { .. })
        ));
    }

    #[test]
    fn custom_mapping_with_layout_round_trips() {
        let doc = minimal_request(
            ", \"mapping\": {\"mode\": \"custom\", \"alpha_gate\": 2.0, \"decay_rate\": 0.5, \
             \"initial_layout\": {\"random\": 7}}",
        );
        let req = CompileRequest::from_json(&doc).expect("parses");
        match &req.mapping.mode {
            MappingMode::Custom(c) => {
                assert_eq!(c.alpha_gate, 2.0);
                assert_eq!(c.initial_layout, InitialLayout::Random(7));
            }
            other => panic!("expected custom mode, got {other:?}"),
        }
        let reparsed = CompileRequest::from_json(&req.to_json()).expect("re-parses");
        assert_eq!(req, reparsed);
        // A hand-built custom request with a layout *override* emits the
        // effective layout: the reparse resolves to the same config.
        let hand_built = CompileRequest {
            mapping: MappingOptions::custom(MapperConfig::default())
                .with_initial_layout(InitialLayout::CenterCompact),
            ..req
        };
        let reparsed = CompileRequest::from_json(&hand_built.to_json()).expect("re-parses");
        match &reparsed.mapping.mode {
            MappingMode::Custom(c) => {
                assert_eq!(c.initial_layout, InitialLayout::CenterCompact)
            }
            other => panic!("expected custom mode, got {other:?}"),
        }
    }

    #[test]
    fn zoned_request_round_trips() {
        let doc = minimal_request("").replace(
            "\"num_atoms\": 16",
            "\"num_atoms\": 16, \"topology\": {\"kind\": \"zoned\", \"zone_rows\": 2, \
             \"gap_rows\": 1}",
        );
        let req = CompileRequest::from_json(&doc).expect("parses");
        assert_eq!(req.target.id, "zoned2+1/mixed");
        let reparsed = CompileRequest::from_json(&req.to_json()).expect("re-parses");
        assert_eq!(req, reparsed);
    }

    #[test]
    fn run_compiles_and_response_round_trips() {
        let req = CompileRequest::from_json(&minimal_request("")).expect("parses");
        let response = req.run().expect("session builds");
        assert_eq!(response.results.len(), 1);
        assert!(response.results[0].result.is_ok());
        let json = response.to_json();
        let summary = CompileResponse::summary_from_json(&json).expect("parses back");
        assert_eq!(summary.version, JOB_VERSION);
        assert_eq!(summary.target, "square/mixed");
        assert_eq!(summary.results, vec![("bell".to_string(), true, None)]);
    }

    #[test]
    fn bad_qasm_fails_only_its_slot() {
        let doc = format!(
            "{{\"version\": 1, \"target\": {{\"preset\": \"mixed\", \"lattice_side\": 6, \
             \"num_atoms\": 16}}, \"circuits\": [{{\"name\": \"bad\", \"qasm\": \"qreg\"}}, \
             {{\"name\": \"bell\", \"qasm\": \"{}\"}}]}}",
            json_escape(BELL)
        );
        let response = CompileRequest::from_json(&doc)
            .expect("parses")
            .run()
            .expect("session builds");
        assert!(matches!(
            response.results[0].result,
            Err(CompileError::Request(RequestError::Qasm { .. }))
        ));
        assert!(response.results[1].result.is_ok());
    }

    #[test]
    fn handle_json_is_one_document_in_one_out() {
        let out = handle_json(&minimal_request("")).expect("handles");
        assert!(out.contains("\"ok\":true"));
        assert!(out.contains("\"metrics\""));
    }

    #[test]
    fn request_id_round_trips_and_is_echoed() {
        let doc = minimal_request(", \"request_id\": \"job-42\"");
        let req = CompileRequest::from_json(&doc).expect("parses");
        assert_eq!(req.request_id.as_deref(), Some("job-42"));
        let reparsed = CompileRequest::from_json(&req.to_json()).expect("re-parses");
        assert_eq!(req, reparsed);

        let response = req.run().expect("session builds");
        assert_eq!(response.request_id.as_deref(), Some("job-42"));
        let json = response.to_json();
        let summary = CompileResponse::summary_from_json(&json).expect("parses back");
        assert_eq!(summary.request_id.as_deref(), Some("job-42"));

        // A non-string request_id is rejected, not coerced.
        let bad = minimal_request(", \"request_id\": 7");
        assert!(matches!(
            CompileRequest::from_json(&bad),
            Err(RequestError::InvalidField { .. })
        ));
    }

    /// The splice helper is byte-exact: serializing with the id set
    /// equals splicing the id into the id-less document. This is what
    /// lets a response cache stay content-addressed.
    #[test]
    fn request_id_splice_matches_direct_emission() {
        let req = CompileRequest::from_json(&minimal_request("")).expect("parses");
        let mut response = req.run().expect("session builds");
        let without_id = response.to_json();
        response.request_id = Some("abc \"quoted\"".to_owned());
        let direct = response.to_json();
        assert_eq!(with_request_id(&without_id, "abc \"quoted\""), direct);
        // Error documents splice the same way.
        let err = error_to_json(&CompileError::Request(RequestError::MissingField {
            field: "circuits",
        }));
        let spliced = with_request_id(&err, "e-1");
        assert!(spliced.starts_with("{\n  \"request_id\": \"e-1\",\n  \"version\": 1"));
    }

    #[test]
    fn target_resolver_caches_by_content() {
        let mut resolver = TargetResolver::new();
        let doc = minimal_request("");
        let a = CompileRequest::from_json_with(&doc, &mut resolver).expect("parses");
        assert_eq!((resolver.hits(), resolver.misses()), (0, 1));
        // Same target written with different formatting/field order
        // still hits by content.
        let shuffled = "{\"version\": 1, \"target\": {\"num_atoms\": 16,   \
             \"lattice_side\": 6, \"preset\": \"mixed\"}, \"circuits\": []}";
        let b = CompileRequest::from_json_with(shuffled, &mut resolver).expect("parses");
        assert_eq!((resolver.hits(), resolver.misses()), (1, 1));
        assert_eq!(a.target, b.target);
        // A different target misses.
        let other = doc.replace("\"num_atoms\": 16", "\"num_atoms\": 18");
        CompileRequest::from_json_with(&other, &mut resolver).expect("parses");
        assert_eq!((resolver.hits(), resolver.misses()), (1, 2));
        assert_eq!(resolver.len(), 2);
    }

    #[test]
    fn error_documents_are_well_formed_json() {
        for (doc, kind) in [
            ("{not json", "request"),
            ("{\"version\": 99, \"circuits\": []}", "request"),
            (
                &minimal_request("").replace("\"lattice_side\": 6", "\"lattice_side\": 0"),
                "request",
            ),
        ] {
            let out = handle_json_document(doc);
            let parsed = json::parse(&out).expect("error document is valid JSON");
            assert_eq!(parsed.get("version").and_then(Value::as_u64), Some(1));
            assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(false));
            let error = parsed.get("error").expect("has error object");
            assert_eq!(error.get("kind").and_then(Value::as_str), Some(kind));
            assert!(!error
                .get("message")
                .and_then(Value::as_str)
                .expect("has message")
                .is_empty());
        }
        // A session-level (non-request) failure keeps its kind: an
        // invalid α is a config error.
        let bad_alpha = minimal_request(", \"mapping\": {\"mode\": \"hybrid\", \"alpha\": -1.0}");
        let out = handle_json_document(&bad_alpha);
        let parsed = json::parse(&out).expect("valid JSON");
        assert_eq!(
            parsed
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("config")
        );
    }

    /// `run_with` on a cached session + warm scratch produces the same
    /// response as the self-contained `run` (runtime stamps aside).
    #[test]
    fn run_with_matches_run() {
        let req = CompileRequest::from_json(&minimal_request("")).expect("parses");
        let via_run = req.run().expect("session builds");
        let compiler = req.build_session().expect("builds");
        let mut scratch = crate::CompileScratch::new();
        let via_run_with = req
            .run_with(&compiler, &mut scratch, None)
            .expect("no token");
        assert_eq!(via_run.target, via_run_with.target);
        let a = via_run.results[0].result.as_ref().expect("compiles");
        let b = via_run_with.results[0].result.as_ref().expect("compiles");
        assert_eq!(a.mapped, b.mapped);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.aod_programs, b.aod_programs);
        assert_eq!(a.comparison, b.comparison);
    }
}
