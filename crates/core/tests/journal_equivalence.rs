//! Journal/clone-path equivalence: the data-oriented routing core must
//! behave *exactly* like the historical clone-based candidate
//! evaluation.
//!
//! Three layers of evidence:
//!
//! 1. **Apply → undo exactness** (proptest): arbitrary journaled
//!    swap/move interleavings roll back to the identical state —
//!    positions, qubit map, occupancy stamp, invariants — on both the
//!    square and the zoned topology.
//! 2. **Clone-path decision parity**: every `Router::propose` call of a
//!    realistic routing run is re-evaluated on a pristine
//!    `MappingState` clone with a cold scratch arena; the proposals
//!    must match candidate-for-candidate (op-for-op), and the live
//!    state must come back untouched. Runs over the Table-1 hardware
//!    presets on both topologies.
//! 3. **Source guard**: no `MappingState` clone remains in the
//!    candidate-evaluation path of the shuttle router.

use na_arch::{HardwareParams, Lattice, NeighborTable, Site};
use na_circuit::generators::{GraphState, Qft};
use na_circuit::{decompose_to_native, Circuit, Qubit};
use na_mapper::decision::Decider;
use na_mapper::route::{Proposal, Router, RoutingContext};
use na_mapper::{
    AtomId, FrontierGate, InitialLayout, MappedCircuit, MapperConfig, MappingState, RouteScratch,
    RoutingEngine, StateJournal,
};
use proptest::prelude::*;

fn scaled(preset: HardwareParams, side: u32, atoms: u32) -> HardwareParams {
    preset
        .to_builder()
        .lattice(side, 3.0)
        .num_atoms(atoms)
        .build()
        .expect("valid")
}

// ---------------------------------------------------------------------
// 1. apply → undo exactness on the zoned topology (the square lattice
//    case lives in `state.rs`'s unit proptests).
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn journal_roundtrip_on_zoned_lattice(ops in proptest::collection::vec(
        (0u32..12, 0u32..12, 0usize..64, proptest::bool::ANY), 0..50)
    ) {
        let p = scaled(HardwareParams::mixed(), 8, 12);
        let lattice = Lattice::zoned(8, 2, 1).expect("valid banding");
        let sites: Vec<Site> = lattice.iter().collect();
        let mut s = MappingState::on_lattice(&p, lattice, 8, InitialLayout::Identity)
            .expect("fits");
        let reference = s.clone();
        let stamp0 = s.occupancy_stamp();
        let mut j = StateJournal::new();
        let mark = j.mark();
        for (a, b, site_idx, is_swap) in ops {
            if is_swap {
                if a != b {
                    s.apply_swap_journaled(AtomId(a), AtomId(b), &mut j);
                }
            } else {
                let target = sites[site_idx % sites.len()];
                if s.is_free(target) {
                    s.apply_move_journaled(AtomId(a), target, &mut j);
                }
            }
        }
        s.undo_to(&mut j, mark);
        prop_assert!(j.is_empty());
        prop_assert_eq!(&s, &reference);
        prop_assert_eq!(s.occupancy_stamp(), stamp0);
        prop_assert!(s.check_invariants().is_ok());
    }

    /// A speculative multi-commit round is exactly a sequential replay
    /// of its emitted op stream: applying the stream to a clone of the
    /// pre-round state reproduces the post-round state (positions,
    /// qubit map, occupancy, invariants), and swap-only rounds leave
    /// the live state's occupancy stamp untouched.
    #[test]
    fn speculative_round_equals_sequential_replay(seed in 0u64..500, pairs in 1usize..6) {
        let p = scaled(HardwareParams::mixed(), 8, 40);
        let mut state = MappingState::identity(&p, 40).expect("fits");
        // Random qubit-disjoint frontier pairs (Fisher-Yates on an LCG),
        // keeping only pairs that actually need routing.
        let mut qubits: Vec<u32> = (0..40).collect();
        let mut rng = seed | 1;
        for i in (1..qubits.len()).rev() {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (rng >> 33) as usize % (i + 1);
            qubits.swap(i, j);
        }
        let frontier: Vec<FrontierGate> = (0..pairs)
            .map(|g| FrontierGate {
                op_index: g,
                qubits: vec![Qubit(qubits[2 * g]), Qubit(qubits[2 * g + 1])],
                capability: na_mapper::Capability::GateBased,
            })
            .filter(|g| !state.qubits_mutually_connected(&g.qubits, p.r_int))
            .collect();
        // An empty frontier (every sampled pair already executable) is a
        // vacuous round; skip the engine call.
        if !frontier.is_empty() {
            let eligible: Vec<usize> = frontier.iter().map(|g| g.op_index).collect();

            let pre = state.clone();
            let stamp0 = state.occupancy_stamp();
            let mut engine = RoutingEngine::from_config(
                &p,
                &MapperConfig::try_hybrid(1.0).expect("valid alpha"),
                NeighborTable::for_radius(state.lattice(), p.r_int),
            );
            let mut scratch = RouteScratch::new();
            let mut out = MappedCircuit::new(40, 40);
            let report = engine
                .step_speculative(&mut state, &frontier, &[], &eligible, &mut scratch, &mut out)
                .expect("identity layout is never stuck");
            prop_assert!(report.commits >= 1);

            let mut replay = pre;
            for op in out.iter() {
                match op {
                    na_mapper::MappedOp::Swap { a, b, .. } => replay.apply_swap(*a, *b),
                    na_mapper::MappedOp::Shuttle { atom, to, .. } => replay.apply_move(*atom, *to),
                    _ => {}
                }
            }
            prop_assert_eq!(&replay, &state, "replay diverged from the multi-commit round");
            prop_assert!(replay.check_invariants().is_ok());
            prop_assert!(state.check_invariants().is_ok());
            if report.moves == 0 {
                prop_assert_eq!(state.occupancy_stamp(), stamp0, "swap-only round bumped the stamp");
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. clone-path decision parity over full routing runs.
// ---------------------------------------------------------------------

/// Wraps a router; every `propose` is replayed on a pristine clone of
/// the state with a cold scratch arena (the historical clone-based
/// evaluation path) and the two proposals must agree exactly.
#[derive(Debug)]
struct CloneCheck<R> {
    inner: R,
    checked: std::rc::Rc<std::cell::Cell<usize>>,
}

impl<R> CloneCheck<R> {
    fn new(inner: R, checked: std::rc::Rc<std::cell::Cell<usize>>) -> Self {
        CloneCheck { inner, checked }
    }
}

impl<R: Router> Router for CloneCheck<R> {
    fn capability(&self) -> na_mapper::Capability {
        self.inner.capability()
    }

    fn propose(
        &self,
        ctx: &mut RoutingContext<'_>,
        frontier: &[&FrontierGate],
        lookahead: &[&FrontierGate],
        fallback: bool,
    ) -> Proposal {
        let before = ctx.state().clone();
        let stamp = ctx.state().occupancy_stamp();
        let live = self.inner.propose(ctx, frontier, lookahead, fallback);

        // In-place speculation must leave zero residue.
        assert_eq!(ctx.state(), &before, "propose mutated the live state");
        assert_eq!(
            ctx.state().occupancy_stamp(),
            stamp,
            "propose changed the occupancy stamp"
        );

        // The clone-based path: pristine state copy, cold arena.
        let mut clone = before;
        let mut cold = RouteScratch::new();
        let table = NeighborTable::for_radius(clone.lattice(), ctx.r_int());
        let mut ctx2 = RoutingContext::new(&mut clone, &table, &mut cold);
        let reference = self.inner.propose(&mut ctx2, frontier, lookahead, fallback);

        assert_eq!(
            live.candidates, reference.candidates,
            "journaled candidates diverged from the clone-based path"
        );
        assert_eq!(live.handoff, reference.handoff, "handoff diverged");
        self.checked.set(self.checked.get() + 1);
        live
    }

    fn note_applied(&mut self, state: &MappingState, candidate: &na_mapper::Candidate) {
        self.inner.note_applied(state, candidate);
    }
}

/// Routes every entangling gate of `circuit` on `state` through a
/// clone-checked hybrid engine, gate by gate in stream order. Returns
/// the number of clone-checked propose calls.
fn route_clone_checked(
    params: &HardwareParams,
    mut state: MappingState,
    circuit: &Circuit,
) -> usize {
    let config = MapperConfig::try_hybrid(1.0).expect("valid alpha");
    let decider = Decider::new(params, &config);
    let checked = std::rc::Rc::new(std::cell::Cell::new(0));
    let gate_check = CloneCheck::new(
        na_mapper::GateRouter::new(params, &config),
        std::rc::Rc::clone(&checked),
    );
    let shuttle_check = CloneCheck::new(
        na_mapper::ShuttleRouter::new(params, &config),
        std::rc::Rc::clone(&checked),
    );
    let mut engine =
        RoutingEngine::with_routers(params, vec![Box::new(gate_check), Box::new(shuttle_check)]);
    let mut scratch = RouteScratch::new();
    let mut out = MappedCircuit::new(circuit.num_qubits(), params.num_atoms);

    let native = decompose_to_native(circuit);
    let pending: Vec<&na_circuit::Operation> = native.iter().filter(|op| op.arity() >= 2).collect();
    let mut budget = 0usize;
    for (i, op) in pending.iter().enumerate().take(40) {
        while !state.qubits_mutually_connected(op.qubits(), params.r_int) {
            let qubits: Vec<Qubit> = op.qubits().to_vec();
            let capability = decider.decide(&state, &qubits);
            let frontier = [FrontierGate {
                op_index: i,
                qubits,
                capability,
            }];
            engine
                .step(&mut state, &frontier, &[], &mut scratch, &mut out)
                .expect("routable");
            budget += 1;
            assert!(budget < 4000, "routing must converge");
        }
    }
    state.check_invariants().expect("state stays consistent");
    checked.get()
}

#[test]
fn journaled_decisions_match_clone_path_on_table1_presets_square() {
    for preset in [
        HardwareParams::mixed(),
        HardwareParams::gate_based(),
        HardwareParams::shuttling(),
    ] {
        let p = scaled(preset, 6, 25);
        for circuit in [
            Qft::new(12).build(),
            GraphState::new(16).edges(22).seed(5).build(),
        ] {
            let state = MappingState::identity(&p, circuit.num_qubits()).expect("fits");
            let checks = route_clone_checked(&p, state, &circuit);
            assert!(checks > 0, "{}: no propose calls checked", p.name);
        }
    }
}

#[test]
fn journaled_decisions_match_clone_path_on_zoned_topology() {
    let p = scaled(HardwareParams::mixed(), 8, 25);
    let lattice = Lattice::zoned(8, 2, 1).expect("valid banding");
    let circuit = Qft::new(12).build();
    let state =
        MappingState::on_lattice(&p, lattice, circuit.num_qubits(), InitialLayout::Identity)
            .expect("fits");
    let checks = route_clone_checked(&p, state, &circuit);
    assert!(checks > 0, "no propose calls checked");
}

// ---------------------------------------------------------------------
// 3. source guard: the candidate-evaluation path is clone-free.
// ---------------------------------------------------------------------

#[test]
fn no_mapping_state_clone_in_candidate_evaluation() {
    let shuttle_src = include_str!("../src/route/shuttle.rs");
    let gate_src = include_str!("../src/route/gate.rs");
    for (name, src) in [("shuttle.rs", shuttle_src), ("gate.rs", gate_src)] {
        // Only the production half counts — unit tests may clone states
        // to build fixtures.
        let production = src.split("#[cfg(test)]").next().expect("non-empty");
        assert!(
            !production.contains("state.clone()") && !production.contains("sim = "),
            "{name} still clones the mapping state in the hot path"
        );
    }
}
