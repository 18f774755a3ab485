//! Stable content hashes for cache keys: circuits, targets, options
//! and whole job requests.
//!
//! The service layer (`na-serve`) keys two caches off these values —
//! the per-target [`TargetSpec`] resolution cache and the
//! content-addressed artifact cache (response documents). Both caches
//! must agree on a key across processes and releases, so the hashes
//! here are **hand-rolled 64-bit FNV-1a** over *canonical
//! serializations* (the job layer's own JSON emission for targets and
//! options, a structural walk for circuits) rather than
//! [`std::hash::Hash`], whose output is explicitly unstable across
//! compiler releases.
//!
//! Unit tests pin exact hash values; a change to any canonical
//! serialization (or to the hash itself) fails those tests, so cache
//! keys cannot silently drift between a baseline and a fresh build.

use na_arch::{AodConstraints, Lattice, NativeGateSet, TargetSpec};
use na_circuit::{Circuit, GateKind};

use crate::compiler::{MappingOptions, SchedulingOptions};
use crate::job::{target_parts_to_json, CompileRequest};

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher with typed write helpers.
///
/// Multi-field writes are length/tag-delimited (strings are
/// length-prefixed, floats canonicalize `-0.0` to `0.0`), so two
/// different field sequences cannot collide by concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds a `u64` as little-endian bytes.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Feeds an `f64` by bit pattern, canonicalizing `-0.0` to `0.0`
    /// so numerically equal configurations hash equal.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        let bits = if v == 0.0 { 0u64 } else { v.to_bits() };
        self.write_u64(bits)
    }

    /// Feeds a string, length-prefixed so `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// One-shot FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Content hash of a target description: everything that determines
/// compilation output — physics parameters, topology, AOD constraints
/// and native gate set — via the job layer's canonical target JSON.
///
/// Derived data ([`TargetSpec::interaction_table`]) is a pure function
/// of the hashed fields and deliberately not hashed; two specs with equal descriptions hash equal even if one
/// was resolved and the other assembled by hand.
pub fn target_fingerprint(spec: &TargetSpec) -> u64 {
    target_parts_fingerprint(&spec.params, &spec.lattice, spec.aod, spec.gates)
}

/// [`target_fingerprint`] from pre-resolution parts — what the
/// [`TargetResolver`](crate::job::TargetResolver) hashes *before*
/// paying for CSR interaction-table resolution.
pub(crate) fn target_parts_fingerprint(
    params: &na_arch::HardwareParams,
    lattice: &Lattice,
    aod: AodConstraints,
    gates: NativeGateSet,
) -> u64 {
    fnv1a(target_parts_to_json(params, lattice, aod, gates).as_bytes())
}

/// Content hash of the mapping options (mode, α, layout override and
/// round-mode override), via their canonical JSON.
pub fn mapping_fingerprint(options: &MappingOptions) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(&crate::job::mapping_to_json(options));
    // The round-mode override is not part of the v1 wire schema but
    // does change the compiled artifact stream — fold it in so
    // programmatic sessions key correctly too.
    match options.round_mode {
        None => h.write_u64(0),
        Some(na_mapper::RoundMode::Single) => h.write_u64(1),
        Some(na_mapper::RoundMode::Speculative) => h.write_u64(2),
        #[allow(unreachable_patterns)]
        Some(_) => h.write_u64(u64::MAX),
    };
    // Slot of the removed evaluation-thread override, kept so existing
    // fingerprints (and cache keys derived from them) do not drift.
    h.write_u64(0);
    h.finish()
}

/// Content hash of one compiler session: target × mapping ×
/// scheduling × baseline — the key of the service layer's warm
/// [`Compiler`](crate::Compiler) cache.
pub fn session_fingerprint(
    target: &TargetSpec,
    mapping: &MappingOptions,
    scheduling: &SchedulingOptions,
    baseline: bool,
) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(target_fingerprint(target));
    h.write_u64(mapping_fingerprint(mapping));
    match scheduling.max_batch_moves {
        None => h.write_u64(0),
        Some(n) => h.write_u64(1).write_u64(n as u64),
    };
    h.write_u64(u64::from(baseline));
    h.finish()
}

/// Structural content hash of a circuit: qubit count plus the exact
/// operation sequence (gate kind, rotation angles by bit pattern,
/// operand order).
///
/// Two QASM sources that parse to the same operation stream hash
/// equal, so whitespace/formatting differences still hit the artifact
/// cache; any gate, angle or operand change misses it.
pub fn circuit_fingerprint(circuit: &Circuit) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(u64::from(circuit.num_qubits()));
    h.write_u64(circuit.len() as u64);
    for op in circuit.iter() {
        let (tag, params): (u64, &[f64]) = match op.kind() {
            GateKind::H => (1, &[]),
            GateKind::X => (2, &[]),
            GateKind::Y => (3, &[]),
            GateKind::Z => (4, &[]),
            GateKind::Rx(t) => (5, std::slice::from_ref(t)),
            GateKind::Ry(t) => (6, std::slice::from_ref(t)),
            GateKind::Rz(t) => (7, std::slice::from_ref(t)),
            GateKind::U3(a, b, c) => {
                h.write_u64(8);
                h.write_f64(*a).write_f64(*b).write_f64(*c);
                for q in op.qubits() {
                    h.write_u64(q.index() as u64);
                }
                continue;
            }
            GateKind::Cz => (9, &[]),
            GateKind::Cp(t) => (10, std::slice::from_ref(t)),
            GateKind::Mcz => (11, &[]),
            GateKind::Mcx => (12, &[]),
            GateKind::Swap => (13, &[]),
            // `GateKind` is non-exhaustive within the workspace only;
            // a new kind must be given a stable tag here first (the
            // pinned-hash tests catch any accidental reuse).
            #[allow(unreachable_patterns)]
            other => unreachable!("unhandled gate kind {other:?}"),
        };
        h.write_u64(tag);
        for p in params {
            h.write_f64(*p);
        }
        h.write_u64(op.qubits().len() as u64);
        for q in op.qubits() {
            h.write_u64(q.index() as u64);
        }
    }
    h.finish()
}

/// The artifact-cache key of a whole request: session fingerprint plus
/// every circuit slot (name + structural circuit hash when the QASM
/// parses, name + raw source otherwise).
///
/// Deliberately **excluded**: `threads` (worker fan-out does not change
/// response content — batch results are input-ordered and artifacts
/// are thread-count independent), `request_id` (an echo field; the
/// service splices it into the cached document per response) and
/// `deadline_ms` (a wall-clock budget: a compile that finishes within
/// it produces bytes identical to one without it, and one that does
/// not never reaches the cache).
pub fn request_cache_key(request: &CompileRequest) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(session_fingerprint(
        &request.target,
        &request.mapping,
        &request.scheduling,
        request.baseline,
    ));
    h.write_u64(request.circuits.len() as u64);
    for job in &request.circuits {
        h.write_str(&job.name);
        match na_circuit::qasm::from_qasm(&job.qasm) {
            Ok(circuit) => h.write_u64(1).write_u64(circuit_fingerprint(&circuit)),
            // Unparseable sources fail deterministically at compile
            // time, so their (deterministic) error responses are keyed
            // by the raw text.
            Err(_) => h.write_u64(2).write_str(&job.qasm),
        };
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_arch::HardwareParams;
    use na_circuit::generators::Qft;
    use na_schedule::export::json_escape;

    const BELL: &str =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n";

    fn bell_request() -> CompileRequest {
        let doc = format!(
            "{{\"version\": 1, \"target\": {{\"preset\": \"mixed\", \"lattice_side\": 6, \
             \"num_atoms\": 16}}, \"circuits\": [{{\"name\": \"bell\", \"qasm\": \"{}\"}}]}}",
            json_escape(BELL)
        );
        CompileRequest::from_json(&doc).expect("parses")
    }

    /// The classic FNV-1a test vectors: the empty input hashes to the
    /// offset basis, and the canonical one-byte vectors match.
    #[test]
    fn fnv_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn typed_writes_are_delimited() {
        let mut ab_c = Fnv1a::new();
        ab_c.write_str("ab").write_str("c");
        let mut a_bc = Fnv1a::new();
        a_bc.write_str("a").write_str("bc");
        assert_ne!(ab_c.finish(), a_bc.finish());
        // -0.0 and 0.0 canonicalize to the same hash.
        let mut neg = Fnv1a::new();
        neg.write_f64(-0.0);
        let mut pos = Fnv1a::new();
        pos.write_f64(0.0);
        assert_eq!(neg.finish(), pos.finish());
    }

    /// Pinned hashes: these constants are the on-the-wire cache-key
    /// contract. If a canonical serialization changes shape, this test
    /// fails — bump the constants *knowingly* (stale artifact caches
    /// self-heal as misses, but a silent drift would split the key
    /// space).
    #[test]
    fn pinned_fingerprints_do_not_drift() {
        let req = bell_request();
        assert_eq!(target_fingerprint(&req.target), 0xba29_8300_9cb3_7a69);
        assert_eq!(mapping_fingerprint(&req.mapping), 0xdb04_7e05_2fd8_893e);
        assert_eq!(
            session_fingerprint(&req.target, &req.mapping, &req.scheduling, req.baseline),
            0x30d2_4322_e324_1e14
        );
        assert_eq!(request_cache_key(&req), 0x8f64_acc6_5167_f98d);
        assert_eq!(
            circuit_fingerprint(&Qft::new(4).build()),
            0x7491_dad0_b99a_c533
        );
    }

    #[test]
    fn structural_circuit_hash_ignores_formatting_only() {
        let spaced = BELL.replace('\n', "\n\n  ");
        let a = na_circuit::qasm::from_qasm(BELL).expect("parses");
        let b = na_circuit::qasm::from_qasm(&spaced).expect("parses");
        assert_eq!(circuit_fingerprint(&a), circuit_fingerprint(&b));
        // A real change (extra gate) moves the hash.
        let mut c = a.clone();
        c.h(0);
        assert_ne!(circuit_fingerprint(&a), circuit_fingerprint(&c));
    }

    #[test]
    fn cache_key_tracks_content_not_transport_fields() {
        let base = bell_request();
        let key = request_cache_key(&base);

        // threads, request_id and deadline_ms are transport concerns:
        // same key.
        let mut threaded = base.clone();
        threaded.threads = 4;
        threaded.request_id = Some("r-1".to_owned());
        threaded.deadline_ms = Some(5000);
        assert_eq!(request_cache_key(&threaded), key);

        // Whitespace-only QASM difference: same key.
        let mut spaced = base.clone();
        spaced.circuits[0].qasm = BELL.replace('\n', "\n\n");
        assert_eq!(request_cache_key(&spaced), key);

        // Renaming the circuit slot changes the response document, so
        // it must change the key.
        let mut renamed = base.clone();
        renamed.circuits[0].name = "other".to_owned();
        assert_ne!(request_cache_key(&renamed), key);

        // Different mapping options change the artifact: new key.
        let mut remapped = base.clone();
        remapped.mapping = MappingOptions::gate_only();
        assert_ne!(request_cache_key(&remapped), key);

        // Disabling the baseline changes the document too.
        let mut no_baseline = base;
        no_baseline.baseline = false;
        assert_ne!(request_cache_key(&no_baseline), key);
    }

    #[test]
    fn target_fingerprint_tracks_physics_and_topology() {
        let req = bell_request();
        let base = target_fingerprint(&req.target);
        let mut params = HardwareParams::mixed()
            .to_builder()
            .lattice(6, 3.0)
            .num_atoms(16)
            .build()
            .expect("valid");
        params.f_cz = 0.9;
        let spec = na_arch::Target::spec(&params);
        assert_ne!(target_fingerprint(&spec), base);
    }
}
