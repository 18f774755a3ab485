//! Routing-engine benchmarks: cold vs. cached `RoutingContext` distance
//! queries, shuttle candidate-evaluation throughput, end-to-end
//! `HybridMapper::map` on QFT-24/QAOA-24 over a 6×6 lattice, and the
//! **paper-scale tier** — QFT-64/QAOA-80 on the paper's 15×15/200-atom
//! machine plus a 30×30/800-atom extrapolation — and the **mega tier**
//! — QFT-128/QAOA-256 on a 100×100/4500-atom machine exercising
//! ring-walk site scans and the LRU-bounded distance cache.
//!
//! Besides the criterion output, this bench writes a machine-readable
//! baseline to `BENCH_routing.json` at the workspace root so future PRs
//! can compare against it (the CI bench-regression job consumes the
//! `map_hybrid_*`/`map_gate_*` timings and `candidate_eval_us`,
//! skipping when `host_parallelism` differs). The round-mode tier
//! records `rounds_total_*` / `commits_per_round_*` and per-candidate
//! round evaluation cost under both [`RoundMode`]s, plus `_single_ms`
//! twins of the headline map timings so the speculative default's
//! payoff is visible inside one baseline file. The mega tier lives only
//! in the baseline writer, not the criterion groups, to keep
//! `cargo bench` wall-clock bounded.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use na_arch::{HardwareParams, NeighborTable, Neighborhood};
use na_circuit::generators::{Qaoa, Qft, RandomCircuit};
use na_circuit::{Circuit, Qubit};
use na_mapper::decision::Capability;
use na_mapper::route::DistanceCache;
use na_mapper::{
    CacheStats, FrontierGate, HybridMapper, MapScratch, MapStats, MappedCircuit, MappedOp,
    MapperConfig, MappingState, RoundMode, RouteScratch, RoutingContext, RoutingEngine,
    ShuttleRouter,
};
use na_schedule::export::cache_stats_to_json;

/// 6×6-lattice scaled mixed hardware, 30 atoms (QFT-24 fits).
fn small_mixed() -> HardwareParams {
    HardwareParams::mixed()
        .to_builder()
        .lattice(6, 3.0)
        .num_atoms(30)
        .build()
        .expect("valid")
}

/// The paper's evaluation machine: 15×15 lattice, 200 atoms (mixed
/// preset, Table 1c).
fn paper_mixed() -> HardwareParams {
    HardwareParams::mixed()
}

/// A 2× linear extrapolation of the paper machine: 30×30 lattice, 800
/// atoms at the same fill fraction.
fn huge_mixed() -> HardwareParams {
    HardwareParams::mixed()
        .to_builder()
        .lattice(30, 3.0)
        .num_atoms(800)
        .build()
        .expect("valid")
}

/// The mega tier: a 100×100 lattice with 4500 atoms — an order of
/// magnitude past the paper's machine, the scale the hierarchical
/// region router exists for.
fn mega_mixed() -> HardwareParams {
    HardwareParams::mixed()
        .to_builder()
        .lattice(100, 3.0)
        .num_atoms(4500)
        .build()
        .expect("valid")
}

fn qft24() -> Circuit {
    Qft::new(24).build()
}

fn qaoa24() -> Circuit {
    Qaoa::new(24).edges(30).layers(2).seed(5).build()
}

fn qft64() -> Circuit {
    Qft::new(64).build()
}

fn qaoa80() -> Circuit {
    Qaoa::new(80).edges(120).layers(2).seed(7).build()
}

fn qft128() -> Circuit {
    Qft::new(128).build()
}

fn qaoa256() -> Circuit {
    Qaoa::new(256).edges(384).layers(2).seed(9).build()
}

/// A CCZ-heavy random circuit: arity-3 gates route through the gate
/// router's `find_position`, the production consumer of the distance
/// cache — this is the mega-tier workload whose cache counters are
/// meaningful (QFT/QAOA decompose to 2-qubit natives, which route on
/// closed-form swap distances without BFS).
fn mega_random() -> Circuit {
    RandomCircuit::new(192)
        .layers(6)
        .two_qubit_fraction(0.5)
        .multi_qubit_fraction(0.5)
        .seed(11)
        .build()
}

/// One pass of distance queries from every occupied site through the
/// scratch arena's cache — the identical workload for the cold and
/// warm variants.
fn query_pass(
    state: &mut MappingState,
    hood: &Neighborhood,
    table: &NeighborTable,
    r_int: f64,
    scratch: &mut RouteScratch,
) -> u64 {
    let occupied: Vec<_> = state
        .lattice()
        .iter()
        .filter(|s| !state.is_free(*s))
        .collect();
    let ctx = RoutingContext::new(state, hood, table, r_int, scratch);
    let mut acc = 0u64;
    for site in occupied {
        acc += u64::from(ctx.distances_from(site)[0]);
    }
    acc
}

/// One pass with a fresh arena per query = the old per-call BFS
/// recomputation.
fn query_cold(
    state: &mut MappingState,
    hood: &Neighborhood,
    table: &NeighborTable,
    r_int: f64,
) -> u64 {
    let occupied: Vec<_> = state
        .lattice()
        .iter()
        .filter(|s| !state.is_free(*s))
        .collect();
    let mut acc = 0u64;
    for site in occupied {
        let mut scratch = RouteScratch::new();
        let ctx = RoutingContext::new(state, hood, table, r_int, &mut scratch);
        acc += u64::from(ctx.distances_from(site)[0]);
    }
    acc
}

/// An 8-gate shuttle frontier over distant qubit pairs — the candidate
/// evaluation workload (each 2-qubit gate evaluates one chain per
/// center, i.e. two journaled simulate/undo rounds per gate).
fn shuttle_frontier(num_qubits: u32) -> Vec<FrontierGate> {
    (0..8)
        .map(|i| FrontierGate {
            op_index: i,
            qubits: vec![Qubit(i as u32), Qubit(num_qubits - 1 - i as u32)],
            capability: Capability::Shuttling,
        })
        .collect()
}

fn bench_distance_cache(c: &mut Criterion) {
    let params = small_mixed();
    let mut state = MappingState::identity(&params, 24).expect("fits");
    let hood = Neighborhood::new(params.r_int);
    let table = NeighborTable::build(state.lattice(), &hood);
    let mut warm = RouteScratch::new();
    query_pass(&mut state, &hood, &table, params.r_int, &mut warm); // fill the cache
    let mut group = c.benchmark_group("distance_queries");
    group.bench_function("cold", |b| {
        b.iter(|| query_cold(&mut state, &hood, &table, params.r_int))
    });
    group.bench_function("cached", |b| {
        b.iter(|| query_pass(&mut state, &hood, &table, params.r_int, &mut warm))
    });
    group.finish();
}

fn bench_candidate_eval(c: &mut Criterion) {
    let params = small_mixed();
    let mut state = MappingState::identity(&params, 24).expect("fits");
    let hood = Neighborhood::new(params.r_int);
    let table = NeighborTable::build(state.lattice(), &hood);
    let mut scratch = RouteScratch::new();
    let router = ShuttleRouter::new(&params, &MapperConfig::shuttle_only());
    let front = shuttle_frontier(24);
    let refs: Vec<&FrontierGate> = front.iter().collect();
    c.bench_function("shuttle_candidates_front8", |b| {
        b.iter(|| {
            let mut ctx =
                RoutingContext::new(&mut state, &hood, &table, params.r_int, &mut scratch);
            router.best_chains(&mut ctx, &refs, &[])
        })
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let params = small_mixed();
    let mut group = c.benchmark_group("map_engine");
    group.sample_size(10);
    for (name, circuit) in [("qft-24", qft24()), ("qaoa-24", qaoa24())] {
        for (mode, config) in [
            (
                "hybrid",
                MapperConfig::try_hybrid(1.0).expect("valid alpha"),
            ),
            ("gate", MapperConfig::gate_only()),
            ("shuttle", MapperConfig::shuttle_only()),
        ] {
            let mapper = HybridMapper::new(params.clone(), config).expect("valid");
            group.bench_function(format!("{mode}/{name}"), |b| {
                b.iter(|| mapper.map(&circuit).expect("mappable"))
            });
        }
    }
    group.finish();
}

fn bench_paper_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("map_scale");
    group.sample_size(10);
    for (name, params, circuit) in [
        ("qft-64/15x15", paper_mixed(), qft64()),
        ("qaoa-80/15x15", paper_mixed(), qaoa80()),
        ("qft-64/30x30", huge_mixed(), qft64()),
    ] {
        let mapper = HybridMapper::new(params, MapperConfig::try_hybrid(1.0).expect("valid alpha"))
            .expect("valid");
        group.bench_function(name, |b| b.iter(|| mapper.map(&circuit).expect("mappable")));
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

/// Mean hybrid mapping time (ms) of `circuit` on `params`.
fn map_ms(params: &HardwareParams, circuit: &Circuit, runs: u32) -> f64 {
    let mapper = HybridMapper::new(
        params.clone(),
        MapperConfig::try_hybrid(1.0).expect("valid alpha"),
    )
    .expect("valid");
    mean_secs(runs, || mapper.map(circuit).expect("mappable")) * 1e3
}

/// Mean hybrid mapping time (ms) of `circuit` on `params` under
/// `mode`, plus the [`MapStats`] of one run — the per-mode round
/// counters (`rounds_total`, `commits_total`) behind the baseline's
/// `commits_per_round_*` fields.
fn map_ms_with_stats(
    params: &HardwareParams,
    circuit: &Circuit,
    mode: RoundMode,
    runs: u32,
) -> (f64, MapStats) {
    let config = MapperConfig::try_hybrid(1.0)
        .expect("valid alpha")
        .with_round_mode(mode);
    let mapper = HybridMapper::new(params.clone(), config).expect("valid");
    let mut stats = MapStats::default();
    let ms = mean_secs(runs, || {
        stats = mapper.map(circuit).expect("mappable").stats;
    }) * 1e3;
    (ms, stats)
}

/// Per-candidate evaluation cost (µs) of one engine round under `mode`:
/// a fixed four-gate qubit-disjoint frontier on the 6×6 machine, with
/// the state cloned per iteration so every round scores the identical
/// pre-round layout. Single mode reduces the candidate sweep to one
/// winner and commits it; speculative mode additionally mints a
/// conflict set per candidate and multi-commits — the delta between the
/// two baseline fields is the per-candidate speculation overhead.
fn round_eval_us(params: &HardwareParams, mode: RoundMode, runs: u32) -> f64 {
    let config = MapperConfig::try_hybrid(1.0)
        .expect("valid alpha")
        .with_round_mode(mode);
    let base = MappingState::identity(params, 24).expect("fits");
    let frontier: Vec<FrontierGate> = (0..4)
        .map(|g| FrontierGate {
            op_index: g,
            qubits: vec![Qubit(g as u32), Qubit(23 - g as u32)],
            capability: Capability::GateBased,
        })
        .collect();
    let eligible: Vec<usize> = (0..frontier.len()).collect();
    let table = NeighborTable::for_radius(base.lattice(), params.r_int);
    let mut engine = RoutingEngine::from_config(params, &config, table);
    let mut scratch = RouteScratch::new();
    let secs = mean_secs(runs, || {
        let mut state = base.clone();
        let mut out = MappedCircuit::new(24, params.num_atoms);
        match mode {
            RoundMode::Single => engine
                .step(&mut state, &frontier, &[], &mut scratch, &mut out)
                .expect("routable"),
            RoundMode::Speculative => engine
                .step_speculative(
                    &mut state,
                    &frontier,
                    &[],
                    &eligible,
                    1,
                    &mut scratch,
                    &mut out,
                )
                .expect("routable"),
        }
    });
    secs * 1e6 / frontier.len() as f64
}

/// Mean mapping time (ms) of `circuit` on `params` under `config`, plus
/// the routing-layer cache counters of the last run. Each run maps
/// through a fresh [`MapScratch`], so the counters are exactly one cold
/// compile's worth — the same numbers a
/// `na_pipeline::Compiler::compile` call reports in its
/// `route_cache` stats.
fn map_ms_with_cache(
    params: &HardwareParams,
    circuit: &Circuit,
    config: MapperConfig,
    runs: u32,
) -> (f64, CacheStats) {
    let mapper = HybridMapper::new(params.clone(), config).expect("valid");
    let mut stats = CacheStats::default();
    let ms = mean_secs(runs, || {
        let mut scratch = MapScratch::new();
        let mut ops: Vec<MappedOp> = Vec::new();
        mapper
            .map_into(circuit, &mut ops, &mut scratch, None)
            .expect("mappable");
        stats = scratch.route().distance_cache().snapshot();
    }) * 1e3;
    (ms, stats)
}

/// Writes the machine-readable baseline consumed by future PRs and the
/// CI bench-regression job.
fn write_baseline() {
    let params = small_mixed();
    let mut state = MappingState::identity(&params, 24).expect("fits");
    let hood = Neighborhood::new(params.r_int);
    let table = NeighborTable::build(state.lattice(), &hood);

    let cold = mean_secs(20, || query_cold(&mut state, &hood, &table, params.r_int));
    let mut warm = RouteScratch::new();
    query_pass(&mut state, &hood, &table, params.r_int, &mut warm);
    let cached = mean_secs(20, || {
        query_pass(&mut state, &hood, &table, params.r_int, &mut warm)
    });

    // Cache hit rates over one query pass: a cold arena misses every
    // query, the warm arena should serve (nearly) everything.
    let cold_rate = {
        let mut fresh = RouteScratch::new();
        query_pass(&mut state, &hood, &table, params.r_int, &mut fresh);
        let (hits, misses) = fresh.distance_cache().stats();
        hits as f64 / (hits + misses).max(1) as f64
    };
    let warm_rate = {
        let mut arena = RouteScratch::new();
        query_pass(&mut state, &hood, &table, params.r_int, &mut arena);
        let (h0, m0) = arena.distance_cache().stats();
        query_pass(&mut state, &hood, &table, params.r_int, &mut arena);
        let (h1, m1) = arena.distance_cache().stats();
        // Only the second (warm) pass counts — the fill pass would
        // otherwise cap the reported rate at ~0.5.
        (h1 - h0) as f64 / ((h1 - h0) + (m1 - m0)).max(1) as f64
    };

    // Shuttle candidate-evaluation throughput: 8 two-qubit gates, one
    // chain build + cost replay per center => 16 candidate evaluations
    // per pass.
    let eval_us = |params: &HardwareParams, qubits: u32, runs: u32| {
        let mut state = MappingState::identity(params, qubits).expect("fits");
        let hood = Neighborhood::new(params.r_int);
        let table = NeighborTable::build(state.lattice(), &hood);
        let router = ShuttleRouter::new(params, &MapperConfig::shuttle_only());
        let front = shuttle_frontier(qubits);
        let refs: Vec<&FrontierGate> = front.iter().collect();
        let mut scratch = RouteScratch::new();
        let eval_pass = mean_secs(runs, || {
            let mut ctx =
                RoutingContext::new(&mut state, &hood, &table, params.r_int, &mut scratch);
            router.best_chains(&mut ctx, &refs, &[])
        });
        eval_pass * 1e6 / 16.0
    };
    let candidate_eval_us = eval_us(&params, 24, 50);

    let map_qft = map_ms(&params, &qft24(), 10);

    // ---- round-mode tier: speculative multi-commit vs. single -------
    // The default `map_*` fields above/below run the speculative
    // default; the `_single_ms` twins and the round counters make the
    // multi-commit payoff visible inside one baseline file.
    let (map_qaoa, qaoa_spec) = map_ms_with_stats(&params, &qaoa24(), RoundMode::Speculative, 10);
    let (map_qaoa_single, qaoa_single) =
        map_ms_with_stats(&params, &qaoa24(), RoundMode::Single, 10);
    let commits_per_round_single =
        qaoa_single.commits_total as f64 / qaoa_single.rounds_total.max(1) as f64;
    let commits_per_round_spec =
        qaoa_spec.commits_total as f64 / qaoa_spec.rounds_total.max(1) as f64;
    let candidate_eval_us_single = round_eval_us(&params, RoundMode::Single, 50);
    let candidate_eval_us_spec = round_eval_us(&params, RoundMode::Speculative, 50);

    // ---- paper-scale tier -------------------------------------------
    let p15 = paper_mixed();
    let p30 = huge_mixed();
    let map_qft64_15 = map_ms(&p15, &qft64(), 5);
    let map_qft64_15_single = map_ms_with_stats(&p15, &qft64(), RoundMode::Single, 5).0;
    let map_qaoa80_15 = map_ms(&p15, &qaoa80(), 5);
    let map_qft64_30 = map_ms(&p30, &qft64(), 3);
    let candidate_eval_us_15 = eval_us(&p15, 200, 20);

    // ---- mega tier (region ring walks, LRU-capped distance cache) ---
    let p100 = mega_mixed();
    let hybrid = || MapperConfig::try_hybrid(1.0).expect("valid alpha");
    let (map_qft128_100, _) = map_ms_with_cache(&p100, &qft128(), hybrid(), 2);
    let (map_qft128_100_single, _) = map_ms_with_cache(
        &p100,
        &qft128(),
        hybrid().with_round_mode(RoundMode::Single),
        2,
    );
    let (map_qaoa256_100, _) = map_ms_with_cache(&p100, &qaoa256(), hybrid(), 2);
    // Gate-only on purpose: at mega-scale distances the hybrid decider
    // (correctly, Eq. 4–5) sends long-range gates to the shuttle
    // router, which routes on closed-form distances — only the gate
    // router's anchor search consumes the BFS distance cache, so this
    // run is the one whose cache counters measure the real mapping
    // path.
    let (map_megarand_100, cache_megarand) =
        map_ms_with_cache(&p100, &mega_random(), MapperConfig::gate_only(), 2);

    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"routing\",\n  \"lattice\": \"6x6\",\n  \
         \"scale_lattices\": \"15x15,30x30,100x100\",\n  \
         \"host_parallelism\": {host_parallelism},\n  \
         \"distance_query_cold_us\": {:.3},\n  \
         \"distance_query_cached_us\": {:.3},\n  \
         \"cache_speedup\": {:.2},\n  \
         \"cache_hit_rate_cold\": {:.4},\n  \
         \"cache_hit_rate_warm\": {:.4},\n  \
         \"candidate_eval_us\": {:.3},\n  \
         \"candidate_eval_us_single\": {:.3},\n  \
         \"candidate_eval_us_speculative\": {:.3},\n  \
         \"map_hybrid_qft24_ms\": {:.3},\n  \
         \"map_hybrid_qaoa24_ms\": {:.3},\n  \
         \"map_hybrid_qaoa24_single_ms\": {:.3},\n  \
         \"rounds_total_single\": {},\n  \
         \"rounds_total_speculative\": {},\n  \
         \"commits_per_round_single\": {:.3},\n  \
         \"commits_per_round_speculative\": {:.3},\n  \
         \"map_hybrid_qft64_15x15_ms\": {:.3},\n  \
         \"map_hybrid_qft64_15x15_single_ms\": {:.3},\n  \
         \"map_hybrid_qaoa80_15x15_ms\": {:.3},\n  \
         \"map_hybrid_qft64_30x30_ms\": {:.3},\n  \
         \"candidate_eval_us_15x15\": {:.3},\n  \
         \"map_hybrid_qft128_100x100_ms\": {:.3},\n  \
         \"map_hybrid_qft128_100x100_single_ms\": {:.3},\n  \
         \"map_hybrid_qaoa256_100x100_ms\": {:.3},\n  \
         \"map_gate_megarand_100x100_ms\": {:.3},\n  \
         \"route_cache_megarand_100x100\": {}\n}}\n",
        cold * 1e6,
        cached * 1e6,
        cold / cached,
        cold_rate,
        warm_rate,
        candidate_eval_us,
        candidate_eval_us_single,
        candidate_eval_us_spec,
        map_qft,
        map_qaoa,
        map_qaoa_single,
        qaoa_single.rounds_total,
        qaoa_spec.rounds_total,
        commits_per_round_single,
        commits_per_round_spec,
        map_qft64_15,
        map_qft64_15_single,
        map_qaoa80_15,
        map_qft64_30,
        candidate_eval_us_15,
        map_qft128_100,
        map_qft128_100_single,
        map_qaoa256_100,
        map_megarand_100,
        cache_stats_to_json(&cache_megarand),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_routing.json");
    std::fs::write(path, &json).expect("write BENCH_routing.json");
    println!("wrote {path}:\n{json}");
    assert!(
        cold > cached,
        "cached distance queries must beat per-call BFS (cold {cold:.2e}s vs cached {cached:.2e}s)"
    );
    assert!(
        warm_rate > cold_rate,
        "warm arena must out-hit a cold one ({warm_rate:.3} vs {cold_rate:.3})"
    );
    // The mega tier's whole point: cache memory stays bounded by the
    // LRU cap no matter how many distinct sources the real CCZ mapping
    // run on the 100×100 lattice queries.
    let cap = DistanceCache::MAX_RESIDENT_FIELDS as u64;
    assert!(
        cache_megarand.misses > 0 && cache_megarand.peak_entries > 0,
        "mega CCZ mapping must route through the distance cache"
    );
    assert!(
        cache_megarand.peak_entries <= cap,
        "mega-tier peak resident fields must stay within the LRU cap \
         ({} vs cap {cap})",
        cache_megarand.peak_entries,
    );
    assert!(
        cache_megarand.evictions > 0,
        "the mega CCZ mapping run must overflow the {cap}-entry cap"
    );
    // Round-mode invariants: single mode commits exactly one candidate
    // per round; the speculative default must actually multi-commit on
    // a frontier-rich QAOA workload and therefore finish in fewer
    // rounds.
    assert_eq!(
        qaoa_single.commits_total, qaoa_single.rounds_total,
        "single mode must commit exactly once per round"
    );
    assert!(
        commits_per_round_spec > 1.0,
        "speculative rounds must multi-commit on QAOA-24 \
         ({:.3} commits/round over {} rounds)",
        commits_per_round_spec,
        qaoa_spec.rounds_total,
    );
    assert!(
        qaoa_spec.rounds_total < qaoa_single.rounds_total,
        "multi-commit rounds must reduce the round count \
         (speculative {} vs single {})",
        qaoa_spec.rounds_total,
        qaoa_single.rounds_total,
    );
}

fn bench_baseline(_c: &mut Criterion) {
    write_baseline();
}

criterion_group!(
    benches,
    bench_distance_cache,
    bench_candidate_eval,
    bench_end_to_end,
    bench_paper_scale,
    bench_baseline
);
criterion_main!(benches);
