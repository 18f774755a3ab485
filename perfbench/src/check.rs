//! Output checks: artifact digests against recorded references, physical
//! replay of every artifact, and response-body equality for the service.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use na_arch::{HardwareParams, Lattice};
use na_circuit::Circuit;
use na_mapper::verify_mapping;
use na_pipeline::CompiledProgram;
use na_schedule::{lower_batch, validate_program_with, ScheduledItem};

/// 64-bit FNV-1a, fed through `fmt::Write` so large artifacts hash
/// without an intermediate string.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of an artifact's mapped stream and schedule. Runtime stamps
/// and counters live in `stats` and are not part of it.
pub fn artifact_digest(program: &CompiledProgram) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let m = &program.mapped;
    write!(h, "{}|{}|{:?}|", m.num_qubits, m.num_atoms, m.layout).expect("hashing cannot fail");
    for op in &m.ops {
        write!(h, "{op:?};").expect("hashing cannot fail");
    }
    for item in &program.schedule.items {
        write!(h, "{item:?};").expect("hashing cannot fail");
    }
    h.0
}

/// Replays one artifact: the mapped stream through `verify_mapping`, and
/// every AOD program through `validate_program` against the occupancy
/// replayed from the schedule's own moves. Each program must also be
/// exactly the lowering of its batch.
///
/// # Errors
///
/// A one-line description of the first violation.
pub fn check_artifact(
    circuit: &Circuit,
    params: &HardwareParams,
    program: &CompiledProgram,
) -> Result<(), String> {
    verify_mapping(circuit, &program.mapped, params).map_err(|e| format!("verify_mapping: {e}"))?;
    let lattice = Lattice::new(params.lattice_side);
    let mut occupied = vec![false; lattice.num_sites()];
    for site in program.mapped.layout.place(&lattice, params.num_atoms) {
        occupied[lattice.index(site)] = true;
    }
    let mut programs = program.aod_programs.iter();
    for (batch, item) in program
        .schedule
        .items
        .iter()
        .filter_map(|item| match item {
            ScheduledItem::AodBatch { moves, .. } => Some(moves),
            _ => None,
        })
        .enumerate()
    {
        let aod = programs
            .next()
            .ok_or_else(|| format!("AOD batch {batch} has no lowered program"))?;
        if *aod != lower_batch(item) {
            return Err(format!(
                "AOD program {batch} is not the lowering of its batch"
            ));
        }
        validate_program_with(aod, &lattice, |site| occupied[lattice.index(site)])
            .map_err(|e| format!("AOD program {batch}: {e}"))?;
        for m in item {
            occupied[lattice.index(m.from)] = false;
            occupied[lattice.index(m.to)] = true;
        }
    }
    if programs.next().is_some() {
        return Err("more AOD programs than AOD batches".to_owned());
    }
    Ok(())
}

/// Reference digests, keyed `workload/target/circuit`.
pub type Digests = BTreeMap<String, u64>;

/// Parses the reference file: one `key hex-digest` pair per line.
pub fn parse_digests(text: &str) -> Digests {
    text.lines()
        .filter_map(|line| {
            let (key, hex) = line.trim().split_once(' ')?;
            Some((key.to_owned(), u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

/// Renders digests in the reference-file format.
pub fn render_digests(digests: &Digests) -> String {
    digests
        .iter()
        .map(|(k, v)| format!("{k} {v:016x}\n"))
        .collect()
}

/// Keys whose values are wall-clock stamps of one particular compile:
/// they differ between any two compiles of the same input.
const RUNTIME_STAMPS: [&str; 5] = [
    "\"map_runtime_ms\":",
    "\"total_runtime_ms\":",
    "\"map_us\":",
    "\"schedule_us\":",
    "\"lower_us\":",
];

/// The response document with its runtime stamps zeroed.
pub fn without_runtime_stamps(doc: &str) -> String {
    let mut out = doc.to_owned();
    for key in RUNTIME_STAMPS {
        let mut from = 0;
        while let Some(at) = out[from..].find(key) {
            let start = from + at + key.len();
            let len = out[start..]
                .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
                .unwrap_or(out.len() - start);
            out.replace_range(start..start + len, "0");
            from = start + 1;
        }
    }
    out
}

/// The first number after `key` in a JSON document, searched from the
/// first occurrence of `scope` (the whole document when `scope` is
/// empty).
pub fn number_after(doc: &str, scope: &str, key: &str) -> Option<f64> {
    let base = doc.find(scope)?;
    let at = base + doc[base..].find(key)? + key.len();
    let rest = doc[at..].trim_start();
    let len = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..len].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_circuit::generators::{Qft, Reversible};
    use na_mapper::MappedOp;
    use na_pipeline::{Compiler, MappingOptions};

    fn small(preset: HardwareParams, side: u32, atoms: u32) -> HardwareParams {
        preset
            .to_builder()
            .lattice(side, 3.0)
            .num_atoms(atoms)
            .build()
            .expect("valid preset")
    }

    fn compiled(params: &HardwareParams, circuit: &Circuit) -> CompiledProgram {
        Compiler::for_target(params)
            .mapping(MappingOptions::hybrid(1.0))
            .build()
            .expect("valid session")
            .compile(circuit)
            .expect("compiles")
    }

    #[test]
    fn untouched_artifacts_pass() {
        let params = small(HardwareParams::mixed(), 6, 30);
        let circuit = Qft::new(20).build();
        let program = compiled(&params, &circuit);
        assert!(program.schedule.batch_count() > 0, "needs AOD batches");
        check_artifact(&circuit, &params, &program).expect("a real artifact passes");
        assert_eq!(artifact_digest(&program), artifact_digest(&program.clone()));
    }

    #[test]
    fn a_tampered_swap_fails() {
        let params = small(HardwareParams::gate_based(), 6, 30);
        let circuit = Reversible::new(24)
            .counts(&[(2, 40), (3, 20)])
            .seed(3)
            .build();
        let mut program = compiled(&params, &circuit);
        let before = artifact_digest(&program);
        let swap = program
            .mapped
            .ops
            .iter_mut()
            .find_map(|op| match op {
                MappedOp::Swap { site_b, .. } => Some(site_b),
                _ => None,
            })
            .expect("the gate preset inserts SWAPs");
        *swap = na_arch::Site::new(swap.x ^ 1, swap.y);
        assert!(check_artifact(&circuit, &params, &program).is_err());
        assert_ne!(artifact_digest(&program), before);
    }

    #[test]
    fn a_tampered_aod_move_fails() {
        let params = small(HardwareParams::mixed(), 6, 30);
        let circuit = Qft::new(20).build();
        let mut program = compiled(&params, &circuit);
        let m = &mut program.aod_programs[0].moves[0];
        m.to = na_arch::Site::new(m.to.x ^ 1, m.to.y);
        assert!(check_artifact(&circuit, &params, &program).is_err());

        let mut program = compiled(&params, &circuit);
        let before = artifact_digest(&program);
        let batch = program
            .schedule
            .items
            .iter_mut()
            .find_map(|item| match item {
                ScheduledItem::AodBatch { moves, .. } => Some(moves),
                _ => None,
            })
            .expect("has a batch");
        batch[0].to = na_arch::Site::new(batch[0].to.x ^ 1, batch[0].to.y);
        assert!(check_artifact(&circuit, &params, &program).is_err());
        assert_ne!(artifact_digest(&program), before);
    }

    #[test]
    fn stamps_are_zeroed_and_nothing_else() {
        let doc = "{\"map_runtime_ms\":1.25,\"total_runtime_ms\":3e-2,\"map_us\":7,\
                   \"schedule_us\":8,\"lower_us\":9,\"swaps\":4}";
        assert_eq!(
            without_runtime_stamps(doc),
            "{\"map_runtime_ms\":0,\"total_runtime_ms\":0,\"map_us\":0,\
             \"schedule_us\":0,\"lower_us\":0,\"swaps\":4}"
        );
        assert_eq!(number_after(doc, "", "\"swaps\":"), Some(4.0));
    }

    #[test]
    fn digests_round_trip() {
        let mut d = Digests::new();
        d.insert("paper15/gate/qft".to_owned(), 0xdead_beef);
        assert_eq!(parse_digests(&render_digests(&d)), d);
    }
}
