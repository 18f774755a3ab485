//! Tier-1-cheap paper-scale smoke test: one QFT-64 compiled end-to-end
//! on the paper's 15×15/200-atom machine through the `Compiler`
//! session, with the mapping replayed through the independent verifier.
//!
//! Every other regression guard runs on 6×6 scale models; this is the
//! one tier-1 test that exercises the hot path at the lattice size the
//! paper actually evaluates (near-full 15×15, §4), so asymptotic
//! regressions (accidental O(sites) scans per round, quadratic
//! frontier work) surface as a timeout here rather than only in the
//! bench tier. The mega case (QFT-128 on 100×100/4500 atoms) does the
//! same one order of magnitude up, where only the region-bucketed ring
//! walks and the LRU-capped distance cache keep the compile tractable.

use hybrid_na::prelude::*;
use na_mapper::verify::verify_mapping_on;

#[test]
fn qft64_compiles_clean_on_paper_machine() {
    // The mixed Table-1c preset IS the paper machine: 15×15, 200 atoms.
    let target = HardwareParams::mixed();
    assert_eq!(target.lattice().num_sites(), 225);
    assert_eq!(target.num_atoms, 200);

    let compiler = Compiler::for_target(&target)
        .mapping(MappingOptions::hybrid(1.0))
        .baseline(false)
        .build()
        .expect("valid session");
    let circuit = Qft::new(64).build();
    let program = compiler.compile(&circuit).expect("compiles at paper scale");

    // Every gate executed, physically valid placement throughout.
    verify_mapping_on(&circuit, &program.mapped, &target, target.lattice())
        .expect("verify-clean mapping");

    // The schedule and AOD lowering cover the whole stream.
    assert!(program.schedule.len() >= circuit.len());
    assert!(program.metrics.makespan_us > 0.0);
    assert!(
        program.mapped.shuttle_count() > 0 || program.mapped.swap_count() > 0,
        "QFT-64 on a near-full lattice must require routing"
    );
}

#[test]
fn qft128_compiles_clean_on_mega_machine() {
    // An order of magnitude past the paper machine: 100×100 lattice,
    // 4500 atoms — the scale the hierarchical region router targets.
    let target = HardwareParams::mixed()
        .to_builder()
        .lattice(100, 3.0)
        .num_atoms(4500)
        .build()
        .expect("valid");
    assert_eq!(target.lattice().num_sites(), 10_000);

    let compiler = Compiler::for_target(&target)
        .mapping(MappingOptions::hybrid(1.0))
        .baseline(false)
        .build()
        .expect("valid session");
    let circuit = Qft::new(128).build();
    let program = compiler.compile(&circuit).expect("compiles at mega scale");

    // Every gate executed, physically valid placement throughout.
    verify_mapping_on(&circuit, &program.mapped, &target, target.lattice())
        .expect("verify-clean mapping");

    // Replay every AOD transaction against the evolving occupancy and
    // validate it independently of the compiler's own check.
    let mut site_of_atom = compiler
        .config()
        .initial_layout
        .place(&target.lattice(), program.mapped.num_atoms);
    let mut batches = 0;
    for item in &program.schedule.items {
        if let na_schedule::ScheduledItem::AodBatch { moves, .. } = item {
            let lowered = na_schedule::lower_batch(moves);
            na_schedule::validate_program(&lowered, &target.lattice(), &site_of_atom)
                .unwrap_or_else(|e| panic!("batch {batches} fails validation: {e}"));
            for m in moves {
                site_of_atom[m.atom.index()] = m.to;
            }
            batches += 1;
        }
    }
    assert_eq!(batches, program.aod_programs.len());

    // The distance-cache memory bound holds at mega scale (and is
    // reported through the compile stats).
    assert!(
        program.stats.route_cache.peak_entries
            <= na_mapper::DistanceCache::MAX_RESIDENT_FIELDS as u64,
        "cache residency {} exceeds the LRU cap",
        program.stats.route_cache.peak_entries,
    );
}

#[test]
fn qaoa80_maps_clean_on_paper_machine() {
    let target = HardwareParams::mixed();
    let mapper = HybridMapper::new(
        target.clone(),
        MapperConfig::try_hybrid(1.0).expect("valid alpha"),
    )
    .expect("valid");
    let circuit = Qaoa::new(80).edges(120).layers(2).seed(7).build();
    let outcome = mapper.map(&circuit).expect("mappable");
    verify_mapping_on(&circuit, &outcome.mapped, &target, target.lattice())
        .expect("verify-clean mapping");
}
