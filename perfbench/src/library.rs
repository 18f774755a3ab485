//! The library workloads, `paper15` and `mega100`: closed-loop
//! `Compiler::compile` calls on one thread.

use std::collections::BTreeMap;
use std::time::Instant;

use na_arch::HardwareParams;
use na_circuit::generators::{table1b_suite, Qaoa, Qft, RandomCircuit};
use na_circuit::qasm::{from_qasm, to_qasm};
use na_circuit::Circuit;
use na_mapper::{CacheStats, HybridMapper, MapStats};
use na_pipeline::{CompiledProgram, Compiler, MappingOptions};
use na_schedule::{lower_batch, validate_program_with, ComparisonReport, ScheduledItem, Scheduler};

use crate::check::{artifact_digest, check_artifact, Digests};
use crate::host::HostSpeed;
use crate::stats::{median, summarize, SplitMix};
use crate::trace::Tracer;
use crate::{Outcome, Report};

/// One compile target of a workload.
pub struct Target {
    /// Short label used in reports and digest keys.
    pub label: &'static str,
    /// The hardware description.
    pub params: HardwareParams,
    /// The compiler session built for it.
    pub compiler: Compiler,
}

/// Builds a target through the `HardwareParams` builder and its
/// compiler session.
pub fn build_target(
    label: &'static str,
    base: &HardwareParams,
    lattice_side: u32,
    num_atoms: u32,
    mapping: MappingOptions,
) -> Target {
    let params = base
        .to_builder()
        .lattice(lattice_side, base.lattice_constant_um)
        .num_atoms(num_atoms)
        .build()
        .expect("benchmark targets are valid");
    let compiler = Compiler::for_target(&params)
        .mapping(mapping)
        .build()
        .expect("benchmark sessions are valid");
    Target {
        label,
        params,
        compiler,
    }
}

/// One circuit of a workload, bound to the target it compiles for.
pub struct Job {
    /// Index into [`Library::targets`].
    pub target: usize,
    /// Circuit name.
    pub name: String,
    /// The circuit.
    pub circuit: Circuit,
    /// Its OpenQASM text (input of the circuit-layer trace).
    pub qasm: String,
}

impl Job {
    fn key(&self, workload: &str, targets: &[Target]) -> String {
        format!("{workload}/{}/{}", targets[self.target].label, self.name)
    }
}

/// A set-up library workload.
pub struct Library {
    /// Workload name.
    pub name: &'static str,
    /// Compile targets.
    pub targets: Vec<Target>,
    /// Circuits, in canonical order.
    pub jobs: Vec<Job>,
    /// Nominal wall time of one untraced pass on a 2-core x86-64 host;
    /// the pass count of a run derives from it (see [`passes_for`]).
    pass_s: f64,
    /// The same for one traced pass.
    traced_pass_s: f64,
}

/// `paper15`: the full-scale Table 1b suite on the three Table 1c
/// machines (15×15 lattice, 200 atoms), hybrid mapping with α = 1.
pub fn setup_paper15() -> Library {
    let targets: Vec<Target> = HardwareParams::table1_presets()
        .iter()
        .zip(["shuttling", "gate", "mixed"])
        .map(|(preset, label)| {
            build_target(
                label,
                preset,
                preset.lattice_side,
                preset.num_atoms,
                MappingOptions::hybrid(1.0),
            )
        })
        .collect();
    let suite = table1b_suite(1.0);
    let jobs = (0..targets.len())
        .flat_map(|target| {
            suite.iter().map(move |(name, circuit)| Job {
                target,
                name: (*name).to_owned(),
                circuit: circuit.clone(),
                qasm: to_qasm(circuit),
            })
        })
        .collect();
    Library {
        name: "paper15",
        targets,
        jobs,
        pass_s: 2.7,
        traced_pass_s: 9.0,
    }
}

/// `mega100`: a 100×100 lattice with 4000 atoms. QFT-128 and QAOA-256
/// map hybrid; the CCZ-heavy 192-qubit random circuit maps gate-only,
/// the one path that keeps the distance cache hot and evicting.
pub fn setup_mega100() -> Library {
    let mixed = HardwareParams::mixed();
    let targets = vec![
        build_target("hybrid", &mixed, 100, 4000, MappingOptions::hybrid(1.0)),
        build_target("gate", &mixed, 100, 4000, MappingOptions::gate_only()),
    ];
    let circuits = [
        (0, "qft128", Qft::new(128).build()),
        (
            0,
            "qaoa256",
            Qaoa::new(256).edges(384).layers(2).seed(9).build(),
        ),
        (
            1,
            "megarand",
            RandomCircuit::new(192)
                .layers(6)
                .two_qubit_fraction(0.5)
                .multi_qubit_fraction(0.5)
                .seed(11)
                .build(),
        ),
    ];
    let jobs = circuits
        .into_iter()
        .map(|(target, name, circuit)| Job {
            target,
            name: name.to_owned(),
            qasm: to_qasm(&circuit),
            circuit,
        })
        .collect();
    Library {
        name: "mega100",
        targets,
        jobs,
        pass_s: 0.4,
        traced_pass_s: 1.2,
    }
}

/// Whole passes a run makes: `seconds` over the nominal pass time,
/// rounded, at least one. A fixed count (rather than "until the clock
/// runs out") gives every run of a workload the same mix of samples, so
/// its percentiles cover the same circuits from run to run.
pub fn passes_for(seconds: f64, pass_s: f64) -> usize {
    ((seconds / pass_s).round() as usize).max(1)
}

/// Checks one artifact against its reference digest and replays it.
/// Returns the failure text, if any.
fn check_one(
    lib: &Library,
    job: &Job,
    program: &CompiledProgram,
    expected: &Digests,
    recorded: &mut Digests,
) -> Option<String> {
    let key = job.key(lib.name, &lib.targets);
    let digest = artifact_digest(program);
    recorded.insert(key.clone(), digest);
    let mismatch = match expected.get(&key) {
        Some(&want) if want == digest => None,
        Some(&want) => Some(format!("{key}: digest {digest:016x}, expected {want:016x}")),
        None => Some(format!("{key}: no reference digest")),
    };
    mismatch.or_else(|| {
        check_artifact(&job.circuit, &lib.targets[job.target].params, program)
            .err()
            .map(|e| format!("{key}: {e}"))
    })
}

/// Prints the routing-layer cache counters of one compile and flags the
/// ones that cannot be right: no cache traffic on a circuit with routing
/// work, or a corridor that never prunes.
fn report_route_cache(report: &mut Report, key: &str, map: &MapStats, c: &CacheStats) {
    report.line(format!(
        "{key} core.route_cache hits={} misses={} sites_settled={} evictions={} \
         corridor_queries={} corridor_pruned={} (swaps={} shuttle_moves={})",
        c.hits,
        c.misses,
        c.sites_settled,
        c.evictions,
        c.corridor_queries,
        c.corridor_pruned,
        map.swaps_inserted,
        map.shuttle_moves
    ));
    let routing_work = map.swaps_inserted + map.shuttle_moves;
    if routing_work > 0 && c.hits + c.misses == 0 {
        report.line(format!(
            "FLAG {key}: core.route_cache reads hits=0 misses=0 after {routing_work} routing ops"
        ));
    }
    if c.corridor_queries > 0 && c.corridor_pruned == 0 {
        report.line(format!(
            "FLAG {key}: core.route_cache.corridor_pruned=0 over {} corridor queries",
            c.corridor_queries
        ));
    }
}

/// The untraced run: whole passes over the circuits in a seeded order,
/// each `Compiler::compile` timed on its own and reported at reference
/// host speed (see [`crate::host`]).
pub fn run(
    lib: &Library,
    seed: u64,
    seconds: f64,
    expected: &Digests,
    recorded: &mut Digests,
    report: &mut Report,
) -> Outcome {
    let passes = passes_for(seconds, lib.pass_s);
    let mut rng = SplitMix::new(seed);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut order: Vec<usize> = (0..lib.jobs.len()).collect();
    // What one pass reports per circuit; the artifacts themselves are
    // dropped after their checks so they do not count toward peak memory.
    let mut first_pass: Vec<Option<(ComparisonReport, MapStats, CacheStats)>> =
        vec![None; lib.jobs.len()];
    // `(pass, job, measurement index)` of every successful compile.
    let mut timed: Vec<(usize, usize, usize)> = Vec::new();
    let mut host = HostSpeed::new();
    for pass in 0..passes {
        rng.shuffle(&mut order);
        for &j in &order {
            let job = &lib.jobs[j];
            let compiler = &lib.targets[job.target].compiler;
            let (result, index) = host.time(|| compiler.compile(&job.circuit));
            attempted += 1;
            let program = match result {
                Ok(program) => program,
                Err(e) => {
                    failed += 1;
                    report.line(format!("FAIL {}: {e}", job.key(lib.name, &lib.targets)));
                    continue;
                }
            };
            timed.push((pass, j, index));
            if let Some(why) = check_one(lib, job, &program, expected, recorded) {
                failed += 1;
                report.line(format!("FAIL {why}"));
            }
            if pass == 0 {
                let c = program.comparison.expect("sessions compute the baseline");
                first_pass[j] = Some((c, program.stats.map, program.stats.route_cache));
            }
        }
    }
    let samples_ms: Vec<f64> = timed.iter().map(|t| host.scaled_s(t.2) * 1e3).collect();
    let raw_ms: Vec<f64> = timed.iter().map(|t| host.raw_s(t.2) * 1e3).collect();
    let busy_s = samples_ms.iter().sum::<f64>() / 1e3;
    let ops: usize = timed.iter().map(|t| lib.jobs[t.1].circuit.len()).sum();
    let mut pass_s = vec![0.0; passes];
    let mut per_job_ms: Vec<Vec<f64>> = vec![Vec::new(); lib.jobs.len()];
    for (&(pass, j, _), ms) in timed.iter().zip(&samples_ms) {
        pass_s[pass] += ms / 1e3;
        per_job_ms[j].push(*ms);
    }
    let (mut delta_f, mut delta_cz, mut delta_t_us) = (0.0f64, 0.0f64, 0.0f64);
    // Canonical job order, so the sums repeat bit for bit across seeds.
    for ((job, program), times) in lib.jobs.iter().zip(&first_pass).zip(&per_job_ms) {
        report.line(format!(
            "{} compile_p50_ms={:.3} n={} ops={}",
            job.key(lib.name, &lib.targets),
            median(times),
            times.len(),
            job.circuit.len()
        ));
        let Some((c, map, cache)) = program else {
            continue;
        };
        delta_f += c.delta_f;
        delta_cz += c.delta_cz as f64;
        delta_t_us += c.delta_t_us;
        report_route_cache(report, &job.key(lib.name, &lib.targets), map, cache);
    }
    let s = summarize(&samples_ms);
    let raw = summarize(&raw_ms);
    let w = lib.name;
    let pass_list: Vec<String> = pass_s.iter().map(|s| format!("{s:.3}")).collect();
    report.line(host.summary());
    report.line(format!(
        "{w} passes={passes} compiles={attempted} compile_s_per_pass=[{}]",
        pass_list.join(", ")
    ));
    report.named(
        "compile_p50_ms",
        s.p50,
        "ms",
        format!("n={}, at reference host speed; raw {:.4} ms", s.n, raw.p50),
    );
    report.named(
        "compile_tail_ms",
        s.tail,
        "ms",
        format!(
            "p{:.1}, n={}, 10 beyond, at reference host speed; raw {:.4} ms",
            s.tail_pct, s.n, raw.tail
        ),
    );
    let ops_per_s = ops as f64 / busy_s;
    report.named(
        "compile_ops_per_s",
        ops_per_s,
        "1/s",
        format!("{ops} input ops, at reference host speed"),
    );
    report.set("p50_ms", s.p50);
    report.set("tail_ms", s.tail);
    report.set("rate_per_s", ops_per_s);
    report.set("delta_f_sum", delta_f);
    report.set("delta_cz_sum", delta_cz);
    report.set("delta_t_ms_sum", delta_t_us / 1e3);
    Outcome { attempted, failed }
}

/// Outside timings of one circuit, layer by layer, with the counts the
/// layers report at the same boundaries.
#[derive(Debug, Default)]
pub struct LayerSample {
    pub qasm_parse_us: f64,
    pub qasm_bytes: f64,
    pub map_us: f64,
    pub map: MapStats,
    pub schedule_us: f64,
    pub items: f64,
    pub compare_us: f64,
    pub lower_validate_us: f64,
    pub aod_batches: f64,
    pub aod_moves: f64,
    pub compile_us: f64,
    /// The same compile outside any span, for the tracing overhead.
    pub untraced_compile_us: f64,
    pub phase_map_us: f64,
    pub phase_schedule_us: f64,
    pub phase_lower_us: f64,
    pub total_runtime_us: f64,
    pub route_cache: CacheStats,
    pub to_json_us: f64,
    pub artifact_bytes: f64,
}

impl LayerSample {
    /// The decomposed layer calls, summed (for the fusion ratio).
    pub fn decomposed_us(&self) -> f64 {
        self.map_us + self.schedule_us + self.compare_us + self.lower_validate_us
    }
}

/// Runs one circuit through every layer's public entry point, each call
/// inside its own span, then through the fused `Compiler::compile`.
/// Checks that the decomposed path reproduces the fused artifact.
#[allow(clippy::too_many_arguments)]
pub fn trace_circuit(
    tr: &mut Tracer,
    id: u64,
    parent: Option<usize>,
    target: &Target,
    mapper: &HybridMapper,
    scheduler: &Scheduler,
    circuit: &Circuit,
    qasm: &str,
) -> Result<(LayerSample, CompiledProgram), String> {
    let mut s = LayerSample::default();
    let (parsed, us) = tr.time(id, "circuit.qasm_parse", parent, || from_qasm(qasm));
    s.qasm_parse_us = us;
    s.qasm_bytes = qasm.len() as f64;
    let parsed = parsed.map_err(|e| format!("from_qasm: {e}"))?;
    if parsed.len() != circuit.len() {
        return Err("QASM round trip changed the circuit".to_owned());
    }

    let (outcome, us) = tr.time(id, "core.map", parent, || mapper.map(circuit));
    s.map_us = us;
    let outcome = outcome.map_err(|e| format!("HybridMapper::map: {e}"))?;
    s.map = outcome.stats;
    let (schedule, us) = tr.time(id, "schedule.schedule_mapped", parent, || {
        scheduler.schedule_mapped(&outcome.mapped)
    });
    s.schedule_us = us;
    s.items = schedule.len() as f64;
    let (_, us) = tr.time(id, "schedule.compare", parent, || {
        scheduler.compare(circuit, &outcome.mapped)
    });
    s.compare_us = us;
    let (lowered, us) = tr.time(id, "schedule.lower_validate", parent, || {
        lower_and_validate(&target.params, &outcome.mapped, &schedule)
    });
    s.lower_validate_us = us;
    let (batches, moves) = lowered?;
    s.aod_batches = batches as f64;
    s.aod_moves = moves as f64;

    let (program, us) = tr.time(id, "pipeline.compile", parent, || {
        target.compiler.compile(circuit)
    });
    s.compile_us = us;
    let program = program.map_err(|e| format!("Compiler::compile: {e}"))?;
    if program.mapped != outcome.mapped || program.schedule != schedule {
        return Err("the fused compile disagrees with the decomposed layers".to_owned());
    }
    let st = &program.stats;
    s.phase_map_us = st.map_phase.as_secs_f64() * 1e6;
    s.phase_schedule_us = st.schedule_phase.as_secs_f64() * 1e6;
    s.phase_lower_us = st.lower_phase.as_secs_f64() * 1e6;
    s.total_runtime_us = st.total_runtime.as_secs_f64() * 1e6;
    s.route_cache = st.route_cache;
    let (json, us) = tr.time(id, "pipeline.to_json", parent, || program.to_json());
    s.to_json_us = us;
    s.artifact_bytes = json.len() as f64;
    Ok((s, program))
}

/// Runs `traced` and, just before or after it (alternating by
/// `untraced_first`), the same `Compiler::compile` with no span around
/// it; stores that time in the sample for the tracing overhead.
pub fn with_untraced_twin(
    compiler: &Compiler,
    circuit: &Circuit,
    untraced_first: bool,
    traced: impl FnOnce() -> Result<(LayerSample, CompiledProgram), String>,
) -> Result<(LayerSample, CompiledProgram), String> {
    let untraced = || {
        let start = Instant::now();
        std::hint::black_box(compiler.compile(circuit)).ok();
        start.elapsed().as_secs_f64() * 1e6
    };
    let before = untraced_first.then(untraced);
    let mut out = traced();
    let us = before.unwrap_or_else(untraced);
    if let Ok((sample, _)) = &mut out {
        sample.untraced_compile_us = us;
    }
    out
}

/// `lower_batch` plus `validate_program` over every AOD batch of
/// `schedule`, against occupancy replayed from the batches themselves.
fn lower_and_validate(
    params: &HardwareParams,
    mapped: &na_mapper::MappedCircuit,
    schedule: &na_schedule::Schedule,
) -> Result<(usize, usize), String> {
    let lattice = na_arch::Lattice::new(params.lattice_side);
    let mut occupied = vec![false; lattice.num_sites()];
    for site in mapped.layout.place(&lattice, params.num_atoms) {
        occupied[lattice.index(site)] = true;
    }
    let (mut batches, mut moves_total) = (0, 0);
    for item in &schedule.items {
        if let ScheduledItem::AodBatch { moves, .. } = item {
            let program = lower_batch(moves);
            validate_program_with(&program, &lattice, |site| occupied[lattice.index(site)])
                .map_err(|e| format!("AOD batch {batches}: {e}"))?;
            for m in moves {
                occupied[lattice.index(m.from)] = false;
                occupied[lattice.index(m.to)] = true;
            }
            batches += 1;
            moves_total += moves.len();
        }
    }
    Ok((batches, moves_total))
}

/// Per-pass totals of the layer samples, keyed by per-layer metric name.
pub fn pass_totals(samples: &[LayerSample]) -> BTreeMap<&'static str, f64> {
    let sum = |f: &dyn Fn(&LayerSample) -> f64| samples.iter().map(f).sum::<f64>();
    let mut m = BTreeMap::new();
    let map_ms = sum(&|s| s.map_us) / 1e3;
    let compile_ms = sum(&|s| s.compile_us) / 1e3;
    let rounds = sum(&|s| s.map.rounds_total as f64);
    let commits = sum(&|s| s.map.commits_total as f64);
    let hits = sum(&|s| s.route_cache.hits as f64);
    let misses = sum(&|s| s.route_cache.misses as f64);
    let phases = sum(&|s| s.phase_map_us + s.phase_schedule_us + s.phase_lower_us);
    m.insert("circuit.qasm_parse_us", sum(&|s| s.qasm_parse_us));
    m.insert("circuit.qasm_bytes", sum(&|s| s.qasm_bytes));
    m.insert("core.map_ms", map_ms);
    m.insert("core.rounds", rounds);
    m.insert("core.commits", commits);
    m.insert("core.commits_per_round", ratio(commits, rounds));
    m.insert("core.swaps", sum(&|s| s.map.swaps_inserted as f64));
    m.insert("core.shuttle_moves", sum(&|s| s.map.shuttle_moves as f64));
    m.insert(
        "core.gates_gate_routed",
        sum(&|s| s.map.gates_gate_routed as f64),
    );
    m.insert(
        "core.gates_shuttle_routed",
        sum(&|s| s.map.gates_shuttle_routed as f64),
    );
    m.insert("core.route_cache.hits", hits);
    m.insert("core.route_cache.misses", misses);
    m.insert("core.route_cache.hit_ratio", ratio(hits, hits + misses));
    m.insert(
        "core.route_cache.sites_settled",
        sum(&|s| s.route_cache.sites_settled as f64),
    );
    m.insert(
        "core.route_cache.evictions",
        sum(&|s| s.route_cache.evictions as f64),
    );
    m.insert(
        "core.route_cache.corridor_queries",
        sum(&|s| s.route_cache.corridor_queries as f64),
    );
    m.insert(
        "core.route_cache.corridor_pruned",
        sum(&|s| s.route_cache.corridor_pruned as f64),
    );
    m.insert("schedule.schedule_ms", sum(&|s| s.schedule_us) / 1e3);
    m.insert("schedule.compare_ms", sum(&|s| s.compare_us) / 1e3);
    m.insert(
        "schedule.lower_validate_ms",
        sum(&|s| s.lower_validate_us) / 1e3,
    );
    m.insert("schedule.items", sum(&|s| s.items));
    m.insert("schedule.aod_batches", sum(&|s| s.aod_batches));
    m.insert("schedule.aod_moves", sum(&|s| s.aod_moves));
    m.insert("pipeline.compile_ms", compile_ms);
    m.insert(
        "pipeline.fusion_ratio",
        ratio(sum(&|s| s.decomposed_us()), compile_ms * 1e3),
    );
    m.insert("pipeline.phase.map_us", sum(&|s| s.phase_map_us));
    m.insert("pipeline.phase.schedule_us", sum(&|s| s.phase_schedule_us));
    m.insert("pipeline.phase.lower_us", sum(&|s| s.phase_lower_us));
    m.insert(
        "pipeline.unattributed_share",
        1.0 - ratio(phases, sum(&|s| s.total_runtime_us)),
    );
    m.insert("pipeline.to_json_ms", sum(&|s| s.to_json_us) / 1e3);
    m.insert("pipeline.artifact_bytes", sum(&|s| s.artifact_bytes));
    m.insert(
        "trace.overhead_share",
        ratio(compile_ms * 1e3, sum(&|s| s.untraced_compile_us)) - 1.0,
    );
    m
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run: whole passes, every circuit through
/// [`trace_circuit`]. Per-layer metrics are per-pass totals (median over
/// passes), so layer shares of a pass add up.
pub fn run_traced(
    lib: &Library,
    seed: u64,
    seconds: f64,
    expected: &Digests,
    recorded: &mut Digests,
    tr: &mut Tracer,
    report: &mut Report,
) -> Outcome {
    let passes = passes_for(seconds, lib.traced_pass_s);
    let tools: Vec<(HybridMapper, Scheduler)> = lib
        .targets
        .iter()
        .map(|t| {
            (
                HybridMapper::new(t.params.clone(), t.compiler.config().clone())
                    .expect("the session's own configuration is valid"),
                Scheduler::for_target(&t.params),
            )
        })
        .collect();
    let mut rng = SplitMix::new(seed);
    let mut order: Vec<usize> = (0..lib.jobs.len()).collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut per_pass: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut build_us = Vec::new();
    let mut id = 0u64;
    for pass in 0..passes {
        for t in &lib.targets {
            id += 1;
            let span = tr.begin(id, "arch.target_build", None);
            let rebuilt = build_target(
                t.label,
                &t.params,
                t.params.lattice_side,
                t.params.num_atoms,
                MappingOptions::custom(t.compiler.config().clone()),
            );
            build_us.push(tr.end(span));
            std::hint::black_box(rebuilt);
        }
        rng.shuffle(&mut order);
        let mut samples = Vec::new();
        for (k, &j) in order.iter().enumerate() {
            let job = &lib.jobs[j];
            let key = job.key(lib.name, &lib.targets);
            let (mapper, scheduler) = &tools[job.target];
            id += 1;
            attempted += 1;
            let target = &lib.targets[job.target];
            let traced =
                with_untraced_twin(&target.compiler, &job.circuit, (pass + k) % 2 == 0, || {
                    let root = tr.begin(id, "job", None);
                    let out = trace_circuit(
                        tr,
                        id,
                        Some(root),
                        target,
                        mapper,
                        scheduler,
                        &job.circuit,
                        &job.qasm,
                    );
                    tr.end(root);
                    out
                });
            match traced {
                Ok((sample, program)) => {
                    if let Some(why) = check_one(lib, job, &program, expected, recorded) {
                        failed += 1;
                        report.line(format!("FAIL {why}"));
                    }
                    if pass == 0 {
                        report_layer_row(report, &key, &sample);
                        report_route_cache(report, &key, &sample.map, &sample.route_cache);
                    }
                    samples.push(sample);
                }
                Err(e) => {
                    failed += 1;
                    report.line(format!("FAIL {key}: {e}"));
                }
            }
        }
        per_pass.push(pass_totals(&samples));
    }
    report.line(format!("{} traced passes={passes}", lib.name));
    if let Some(totals) = per_pass.first() {
        let compile_us = totals["pipeline.compile_ms"] * 1e3;
        report.line(format!(
            "{} layer mix of one pass: map {:.0}%, schedule {:.0}%, lower {:.0}% of \
             Compiler::compile (phase clock)",
            lib.name,
            100.0 * ratio(totals["pipeline.phase.map_us"], compile_us),
            100.0 * ratio(totals["pipeline.phase.schedule_us"], compile_us),
            100.0 * ratio(totals["pipeline.phase.lower_us"], compile_us),
        ));
    }
    report.set("arch.target_build_us", median(&build_us));
    set_medians(report, &per_pass);
    Outcome { attempted, failed }
}

/// Sets each metric of `maps` to its median over the maps (passes or
/// requests).
pub fn set_medians(report: &mut Report, maps: &[BTreeMap<&'static str, f64>]) {
    let Some(first) = maps.first() else { return };
    for &name in first.keys() {
        let values: Vec<f64> = maps.iter().map(|m| m[name]).collect();
        report.set(name, median(&values));
    }
}

/// One row of the per-circuit layer table: where `Compiler::compile`
/// spends its time for this circuit, from the outside timings and from
/// the compiler's own phase clock.
pub fn report_layer_row(report: &mut Report, key: &str, s: &LayerSample) {
    let share = |part: f64| 100.0 * ratio(part, s.total_runtime_us);
    report.line(format!(
        "{key} layers: compile={:.2}ms map={:.2}ms schedule={:.2}ms compare={:.2}ms \
         lower_validate={:.3}ms | phases map={:.0}% schedule={:.0}% lower={:.0}% \
         | fusion_ratio={:.2}",
        s.compile_us / 1e3,
        s.map_us / 1e3,
        s.schedule_us / 1e3,
        s.compare_us / 1e3,
        s.lower_validate_us / 1e3,
        share(s.phase_map_us),
        share(s.phase_schedule_us),
        share(s.phase_lower_us),
        ratio(s.decomposed_us(), s.compile_us),
    ));
}
