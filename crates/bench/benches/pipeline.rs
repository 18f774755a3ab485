//! Compile-pipeline benchmarks: fused single-pass compile vs. the legacy
//! two-pass flow, and `compile_batch` throughput at 1/2/4 threads over
//! the Table-1 generator mix.
//!
//! Besides the criterion output, this bench writes a machine-readable
//! baseline to `BENCH_pipeline.json` at the workspace root. Thread
//! scaling is only meaningful on multi-core hosts; the JSON records
//! `host_parallelism` so readers can interpret the batch numbers.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use na_arch::{HardwareParams, Lattice, Site};
use na_circuit::generators::{Qaoa, Qft};
use na_circuit::Circuit;
use na_mapper::{HybridMapper, MapperConfig};
use na_pipeline::{Compiler, MappingOptions};
use na_schedule::aod_program::{lower_batch, validate_program};
use na_schedule::{AodProgram, ScheduleMetrics, ScheduledItem, Scheduler};

/// 6×6-lattice scaled mixed hardware, 30 atoms (QFT-24 fits).
fn small_mixed() -> HardwareParams {
    HardwareParams::mixed()
        .to_builder()
        .lattice(6, 3.0)
        .num_atoms(30)
        .build()
        .expect("valid")
}

/// A `Compiler` session built for the square-lattice target with the
/// given configuration.
fn builder_compiler(params: &HardwareParams, config: MapperConfig) -> Compiler {
    Compiler::for_target(params)
        .mapping(MappingOptions::custom(config))
        .build()
        .expect("valid")
}

/// Mega-tier target: 100×100 lattice, 4000 atoms (QFT-128 fits with
/// head-room) — the scale where the scheduler's hot loops, not the
/// mapper, used to dominate the fused compile.
fn mega_mixed() -> HardwareParams {
    HardwareParams::mixed()
        .to_builder()
        .lattice(100, 3.0)
        .num_atoms(4000)
        .build()
        .expect("valid")
}

fn qft24() -> Circuit {
    Qft::new(24).build()
}

fn qaoa24() -> Circuit {
    Qaoa::new(24).edges(30).layers(2).seed(5).build()
}

/// The legacy multi-pass flow the pipeline fuses, exactly as the
/// pre-pipeline harness (`run_experiment`) and examples composed it to
/// get everything a [`CompiledProgram`] now carries: materialize the
/// mapped stream, re-walk it for the schedule artifact, compute metrics
/// post-hoc, call `Scheduler::compare` for the Table-1a report (which
/// re-schedules both the mapped stream and the ideal baseline from
/// scratch — the second-pass drift risk), and hand-wire AOD lowering +
/// validation on top.
///
/// [`CompiledProgram`]: na_pipeline::CompiledProgram
fn two_pass(
    mapper: &HybridMapper,
    scheduler: &Scheduler,
    params: &HardwareParams,
    circuit: &Circuit,
) -> usize {
    let outcome = mapper.map(circuit).expect("mappable");
    let schedule = scheduler.schedule_mapped(&outcome.mapped);
    let metrics = ScheduleMetrics::of(&schedule, params);
    let report = scheduler.compare(circuit, &outcome.mapped);
    let lattice = Lattice::new(params.lattice_side);
    let mut site_of_atom: Vec<Site> = mapper
        .config()
        .initial_layout
        .place(&lattice, params.num_atoms);
    let mut programs: Vec<AodProgram> = Vec::new();
    for item in &schedule.items {
        if let ScheduledItem::AodBatch { moves, .. } = item {
            let program = lower_batch(moves);
            validate_program(&program, &lattice, &site_of_atom).expect("valid batch");
            for m in moves {
                site_of_atom[m.atom.index()] = m.to;
            }
            programs.push(program);
        }
    }
    schedule.len() + programs.len() + metrics.cz_count + report.moves
}

/// The fused single pass through the pipeline: identical outputs
/// (mapped stream, schedule, metrics, Table-1a comparison, validated
/// AOD programs), with the mapped schedule and its metrics derived
/// exactly once.
fn fused(compiler: &Compiler, circuit: &Circuit) -> usize {
    let program = compiler.compile(circuit).expect("compiles");
    program.schedule.len()
        + program.aod_programs.len()
        + program.metrics.cz_count
        + program.comparison.expect("baseline on").moves
}

/// The Table-1 generator mix sized for the small lattice, tripled so a
/// batch has enough work items to spread across workers.
fn table1_mix(params: &HardwareParams) -> Vec<Circuit> {
    let suite = na_bench::scaled_suite(0.12, params.num_atoms - 2);
    let mut batch = Vec::new();
    for _ in 0..3 {
        batch.extend(suite.iter().map(|(_, c)| c.clone()));
    }
    batch
}

fn bench_fused_vs_two_pass(c: &mut Criterion) {
    let params = small_mixed();
    let mapper = HybridMapper::new(
        params.clone(),
        MapperConfig::try_hybrid(1.0).expect("valid alpha"),
    )
    .expect("valid");
    let scheduler = Scheduler::new(params.clone());
    let compiler = builder_compiler(&params, MapperConfig::try_hybrid(1.0).expect("valid alpha"));
    let mut group = c.benchmark_group("compile");
    group.sample_size(10);
    for (name, circuit) in [("qft-24", qft24()), ("qaoa-24", qaoa24())] {
        group.bench_function(format!("fused/{name}"), |b| {
            b.iter(|| fused(&compiler, &circuit))
        });
        group.bench_function(format!("two-pass/{name}"), |b| {
            b.iter(|| two_pass(&mapper, &scheduler, &params, &circuit))
        });
    }
    group.finish();
}

fn bench_batch_threads(c: &mut Criterion) {
    let params = small_mixed();
    let compiler = Compiler::for_target(&params)
        .mapping(MappingOptions::hybrid(1.0))
        .baseline(false)
        .build()
        .expect("valid");
    let batch = table1_mix(&params);
    let mut group = c.benchmark_group("compile_batch");
    group.sample_size(10);
    // Multi-thread variants only where real cores exist (see
    // `write_baseline` — on 1 core they measure oversubscription).
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let thread_counts: &[usize] = if host == 1 { &[1] } else { &[1, 2, 4] };
    for &threads in thread_counts {
        group.bench_function(format!("{threads}-threads"), |b| {
            b.iter(|| {
                let results = compiler.compile_batch(&batch, threads);
                assert!(results.iter().all(|r| r.is_ok()));
            })
        });
    }
    group.finish();
}

/// Mean wall-clock seconds of `f` over `n` runs (after one warm-up).
fn mean_secs<T>(n: u32, mut f: impl FnMut() -> T) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..n {
        f();
    }
    start.elapsed().as_secs_f64() / f64::from(n)
}

/// Paired, interleaved latency comparison: runs `a` and `b` in
/// alternating order (a-b, b-a, a-b, …) and returns the mean wall-clock
/// seconds of each over `n` pairs. Interleaving cancels the systematic
/// drift (allocator warm-up, frequency scaling) that phase-separated
/// measurement bakes into whichever side runs first, and adjacent runs
/// share thermal state, so the paired difference resolves latency gaps
/// well below the per-run noise floor.
fn paired_mean_secs<T, U>(
    n: u32,
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> U,
) -> (f64, f64) {
    for _ in 0..3 {
        a();
        b();
    }
    let (mut sum_a, mut sum_b) = (0.0f64, 0.0f64);
    let mut time_a = |sum: &mut f64| {
        let t = Instant::now();
        a();
        *sum += t.elapsed().as_secs_f64();
    };
    let mut time_b = |sum: &mut f64| {
        let t = Instant::now();
        b();
        *sum += t.elapsed().as_secs_f64();
    };
    for i in 0..n {
        if i % 2 == 0 {
            time_a(&mut sum_a);
            time_b(&mut sum_b);
        } else {
            time_b(&mut sum_b);
            time_a(&mut sum_a);
        }
    }
    (sum_a / f64::from(n), sum_b / f64::from(n))
}

/// Runs `blocks` independent paired comparisons of `pairs` pairs each
/// and returns the latencies of the block with the **median b/a ratio**
/// — robust against frequency-scaling dips that hit a whole block.
fn median_block_secs<T, U>(
    blocks: usize,
    pairs: u32,
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> U,
) -> (f64, f64) {
    let mut results: Vec<(f64, f64)> = (0..blocks)
        .map(|_| paired_mean_secs(pairs, &mut a, &mut b))
        .collect();
    results.sort_by(|x, y| {
        (x.1 / x.0)
            .partial_cmp(&(y.1 / y.0))
            .expect("finite ratios")
    });
    results[blocks / 2]
}

/// Writes the machine-readable baseline consumed by future PRs.
fn write_baseline() {
    let params = small_mixed();
    let mapper = HybridMapper::new(
        params.clone(),
        MapperConfig::try_hybrid(1.0).expect("valid alpha"),
    )
    .expect("valid");
    let scheduler = Scheduler::new(params.clone());
    let compiler = builder_compiler(&params, MapperConfig::try_hybrid(1.0).expect("valid alpha"));

    // Headline comparison on QAOA-24: the schedule/metrics share of its
    // compile is the largest of the suite, so the fused saving (the
    // mapped schedule and its metrics derived once instead of thrice —
    // `compare` re-schedules from scratch) is resolvable above the
    // paired-measurement noise floor. QFT-24 is ~97% routing, where the
    // relative saving is small; it is reported alongside. Median over
    // measurement blocks discards frequency-scaling dips that even
    // interleaving cannot cancel.
    let circuit = qaoa24();
    let (fused_s, two_pass_s) = median_block_secs(
        12,
        250,
        || fused(&compiler, &circuit),
        || two_pass(&mapper, &scheduler, &params, &circuit),
    );
    let qft = qft24();
    let (fused_qft_s, two_pass_qft_s) = median_block_secs(
        8,
        60,
        || fused(&compiler, &qft),
        || two_pass(&mapper, &scheduler, &params, &qft),
    );

    let batch = table1_mix(&params);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let runs = 8;
    let throughput = |threads: usize| {
        let secs = mean_secs(runs, || {
            let results = compiler.compile_batch(&batch, threads);
            assert!(results.iter().all(|r| r.is_ok()));
        });
        batch.len() as f64 / secs
    };
    let t1 = throughput(1);
    // Multi-thread throughput is only meaningful with real cores: on a
    // 1-core host the 2t/4t numbers measure oversubscription noise
    // (time-slicing the same core plus scheduler overhead), which reads
    // as a phantom "slowdown". Record `null` instead of a misleading
    // ratio; the bench_guard JSON parser treats `null` as absent.
    let (t2, t4) = if host == 1 {
        (None, None)
    } else {
        (Some(throughput(2)), Some(throughput(4)))
    };

    // Mega tier: one-shot fused compiles of QFT-128 on the 100×100/4000
    // target — the scale where scheduling used to be ~55% of the
    // compile before the restriction index and the delta batch
    // validator. `schedule_share_qft128` reads the new per-phase stats
    // (schedule phase over total runtime, averaged across the runs).
    let mega = mega_mixed();
    let mega_compiler = Compiler::for_target(&mega)
        .mapping(MappingOptions::custom(
            MapperConfig::try_hybrid(1.0).expect("valid alpha"),
        ))
        .build()
        .expect("valid");
    let qft128 = Qft::new(128).build();
    let mega_runs = 3u32;
    drop(mega_compiler.compile(&qft128).expect("compiles")); // warm-up
    let mut schedule_share = 0.0f64;
    let mega_start = Instant::now();
    for _ in 0..mega_runs {
        let program = mega_compiler.compile(&qft128).expect("compiles");
        schedule_share +=
            program.stats.schedule_phase.as_secs_f64() / program.stats.total_runtime.as_secs_f64();
    }
    let mega_s = mega_start.elapsed().as_secs_f64() / f64::from(mega_runs);
    schedule_share /= f64::from(mega_runs);

    // Construction cost of a builder session (validation, target
    // resolution, CSR adjacency).
    let construct_cfg = MapperConfig::try_hybrid(1.0).expect("valid alpha");
    let builder_s = mean_secs(2000, || builder_compiler(&params, construct_cfg.clone()));

    // `batch_throughput_{2,4}t_per_s` / `batch_speedup_4t` semantics:
    // circuits-per-second of `compile_batch` at that worker count, and
    // the 4t/1t ratio — or `null` when `host_parallelism == 1`, where
    // the measurement would only quantify oversubscription noise.
    let fmt_opt = |v: Option<f64>| match v {
        Some(v) => format!("{v:.2}"),
        None => "null".to_string(),
    };
    let json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"lattice\": \"6x6\",\n  \
         \"host_parallelism\": {host},\n  \
         \"fused_qaoa24_ms\": {:.4},\n  \
         \"two_pass_qaoa24_ms\": {:.4},\n  \
         \"fused_speedup\": {:.3},\n  \
         \"fused_qft24_ms\": {:.3},\n  \
         \"two_pass_qft24_ms\": {:.3},\n  \
         \"fused_speedup_qft24\": {:.3},\n  \
         \"batch_size\": {},\n  \
         \"batch_throughput_1t_per_s\": {:.2},\n  \
         \"batch_throughput_2t_per_s\": {},\n  \
         \"batch_throughput_4t_per_s\": {},\n  \
         \"batch_speedup_4t\": {},\n  \
         \"fused_qft128_100x100_ms\": {:.2},\n  \
         \"schedule_share_qft128\": {:.4},\n  \
         \"builder_construct_us\": {:.3}\n}}\n",
        fused_s * 1e3,
        two_pass_s * 1e3,
        two_pass_s / fused_s,
        fused_qft_s * 1e3,
        two_pass_qft_s * 1e3,
        two_pass_qft_s / fused_qft_s,
        batch.len(),
        t1,
        fmt_opt(t2),
        fmt_opt(t4),
        fmt_opt(t4.map(|t| t / t1)),
        mega_s * 1e3,
        schedule_share,
        builder_s * 1e6,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(path, &json).expect("write BENCH_pipeline.json");
    println!("wrote {path}:\n{json}");

    assert!(
        fused_s <= two_pass_s,
        "fused compile must not exceed two-pass latency \
         (fused {fused_s:.2e}s vs two-pass {two_pass_s:.2e}s)"
    );
    assert!(
        fused_qft_s <= two_pass_qft_s * 1.03,
        "fused compile must stay within noise of two-pass on \
         routing-dominated workloads \
         (fused {fused_qft_s:.2e}s vs two-pass {two_pass_qft_s:.2e}s)"
    );
    // The point of the scheduler hot-path rework: scheduling must no
    // longer dominate the mega compile (it was ~55% of it before the
    // restriction index and the delta batch validator).
    assert!(
        schedule_share < 0.35,
        "schedule share regressed to {schedule_share:.2} of the mega compile"
    );
    // Thread scaling needs actual cores; on a single-core host the
    // 2t/4t runs are skipped entirely (recorded as `null`).
    match t4 {
        Some(t4) if host >= 4 => assert!(
            t4 >= 2.0 * t1,
            "4-thread batch throughput must reach 2x single-thread \
             ({t4:.1}/s vs {t1:.1}/s on {host} cores)"
        ),
        Some(t4) => assert!(
            t4 >= 0.8 * t1,
            "batch front-end must not regress on a {host}-core host \
             ({t4:.1}/s vs {t1:.1}/s)"
        ),
        None => {}
    }
}

fn bench_baseline(_c: &mut Criterion) {
    write_baseline();
}

criterion_group!(
    benches,
    bench_fused_vs_two_pass,
    bench_batch_threads,
    bench_baseline
);
criterion_main!(benches);
