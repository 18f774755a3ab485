//! Mega-scale compilation: QFT-128 on a 100×100 lattice hosting 4500
//! atoms — an order of magnitude past the paper's evaluation machine,
//! the scale the hierarchical routing layer (region grid ring walks,
//! LRU-capped distance cache) targets.
//! Prints the mapping statistics, Eq. (1) schedule metrics and the
//! routing-cache counters of the compile.
//!
//! ```text
//! cargo run --release --example mega_scale
//! ```

use std::time::Instant;

use hybrid_na::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target = HardwareParams::mixed()
        .to_builder()
        .lattice(100, 3.0)
        .num_atoms(4500)
        .build()?;
    println!(
        "target {}: {}x{} lattice ({} sites), {} atoms, r_int = {} d",
        Target::id(&target),
        target.lattice_side,
        target.lattice_side,
        target.lattice().num_sites(),
        target.num_atoms,
        target.r_int,
    );

    let compiler = Compiler::for_target(&target)
        .mapping(MappingOptions::hybrid(1.0))
        .baseline(false)
        .build()?;

    let circuit = Qft::new(128).build();
    println!(
        "circuit: QFT-128 ({} ops, {} entangling)",
        circuit.len(),
        circuit.entangling_count()
    );

    let start = Instant::now();
    let program = compiler.compile(&circuit)?;
    let elapsed = start.elapsed();

    println!(
        "compiled in {elapsed:?}: {} swaps, {} shuttle moves, {} AOD batches",
        program.mapped.swap_count(),
        program.mapped.shuttle_count(),
        program.stats.aod_batches,
    );
    println!(
        "schedule: {} items, makespan {:.1} us, log10 success {:.4}",
        program.schedule.len(),
        program.metrics.makespan_us,
        program.metrics.log10_success,
    );
    let cache = &program.stats.route_cache;
    println!(
        "route cache: {} hits / {} misses, peak {} resident fields \
         (cap {}), {} evictions",
        cache.hits,
        cache.misses,
        cache.peak_entries,
        na_mapper::DistanceCache::MAX_RESIDENT_FIELDS,
        cache.evictions,
    );
    Ok(())
}
