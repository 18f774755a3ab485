//! The hybrid mapping process (paper Fig. 4).
//!
//! [`HybridMapper::map`] consumes a circuit and produces a stream of
//! hardware operations by iterating the five building blocks:
//!
//! 1. **Layer creation** — commutation-aware frontier and lookahead from
//!    [`na_circuit::dag`].
//! 2. **Capability decision** — each frontier gate is assigned to a
//!    routing capability by comparing weighted success-probability
//!    estimates ([`crate::decision`]); the assignment is sticky until the
//!    gate executes.
//! 3. **Routing (with 4.)** — the unified
//!    [`crate::route::RoutingEngine`] lets every registered router
//!    propose candidates for its gates and applies the best one per
//!    round through a single comparator. Gate-based mapping (Eq. 2–3)
//!    and shuttling-based mapping (Eq. 4–5) are the two built-in
//!    routers; their priority ordering (SWAPs before shuttles, paper
//!    §3.2 (4)) is a property of the engine, not of this loop.
//! 5. **Processing to hardware operations** — the emitted
//!    [`MappedOp`] stream (SWAP decomposition and AOD batching happen in
//!    `na-schedule`).
//!
//! The mapper itself is strategy-agnostic: it never names a concrete
//! router, it only partitions gates by [`Capability`] and persists the
//! engine's reassignment reports.

use std::time::{Duration, Instant};

use na_arch::{HardwareParams, Lattice, NativeGateSet, NeighborTable, Target};
use na_circuit::{decompose_to_native, Circuit, CircuitDag, LayerTracker, Operation};

use serde::{Deserialize, Serialize};

use crate::cancel::CancelToken;
use crate::config::{MapperConfig, RoundMode};
use crate::decision::{Capability, Decider};
use crate::error::MapError;
use crate::ops::{MappedCircuit, MappedOp};
use crate::route::{FrontierGate, RouteScratch, RoutingEngine};
use crate::sink::OpSink;
use crate::state::MappingState;

/// Reusable working memory of one mapping thread: the routing arena plus
/// the per-round frontier/lookahead buffers.
///
/// One `MapScratch` serves one thread. Created implicitly by
/// [`HybridMapper::map`]; callers that map many circuits on the same
/// thread (e.g. batch compilation workers) should create one and pass
/// it to every [`HybridMapper::map_into`] call so the distance-cache
/// pools and router tables stay warm across circuits. No semantic state
/// crosses circuits — only buffer capacity.
#[derive(Debug, Default)]
pub struct MapScratch {
    pub(crate) route: RouteScratch,
    frontier: Vec<FrontierGate>,
    lookahead: Vec<FrontierGate>,
}

impl MapScratch {
    /// An empty scratch; buffers grow on first use and stay warm.
    pub fn new() -> Self {
        MapScratch::default()
    }

    /// The routing arena (exposed for benchmarks/diagnostics).
    pub fn route(&self) -> &RouteScratch {
        &self.route
    }
}

/// Statistics of one mapping run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MapStats {
    /// Routing SWAPs inserted (each decomposes to 3 CZ downstream).
    pub swaps_inserted: usize,
    /// Shuttle moves inserted.
    pub shuttle_moves: usize,
    /// Entangling gates first assigned to gate-based routing.
    pub gates_gate_routed: usize,
    /// Entangling gates first assigned to shuttling-based routing.
    pub gates_shuttle_routed: usize,
    /// Routing rounds executed (engine steps that applied operations).
    pub rounds_total: usize,
    /// Candidates committed across all rounds; exceeds `rounds_total`
    /// exactly when speculative rounds multi-commit
    /// ([`RoundMode::Speculative`]), equals it in
    /// [`RoundMode::Single`].
    pub commits_total: usize,
}

/// Result of a mapping run: the hardware op stream plus statistics and
/// wall-clock runtime.
#[derive(Debug, Clone)]
pub struct MappingOutcome {
    /// The mapped circuit.
    pub mapped: MappedCircuit,
    /// Routing statistics.
    pub stats: MapStats,
    /// Wall-clock mapping time (the paper's RT column).
    pub runtime: Duration,
}

/// Result of a streaming mapping run ([`HybridMapper::map_into`]): the
/// op stream went to the caller's [`OpSink`], so only statistics and
/// runtime remain to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Routing statistics.
    pub stats: MapStats,
    /// Wall-clock mapping time (the paper's RT column).
    pub runtime: Duration,
}

/// The hybrid gate/shuttling mapper.
///
/// # Example
///
/// ```
/// use na_arch::HardwareParams;
/// use na_circuit::generators::GraphState;
/// use na_mapper::{HybridMapper, MapperConfig};
///
/// let params = HardwareParams::mixed()
///     .to_builder()
///     .lattice(5, 3.0)
///     .num_atoms(12)
///     .build()?;
/// let mapper = HybridMapper::new(params, MapperConfig::default())?;
/// let outcome = mapper.map(&GraphState::new(10).edges(14).seed(1).build())?;
/// assert_eq!(outcome.mapped.gate_count(), 10 + 14); // all gates executed
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct HybridMapper {
    params: HardwareParams,
    config: MapperConfig,
    lattice: Lattice,
    gates: NativeGateSet,
    /// CSR interaction adjacency of `(lattice, params.r_int)` — taken
    /// from the resolved [`TargetSpec`](na_arch::TargetSpec) in
    /// [`HybridMapper::for_target`] and handed to the routing engine on
    /// every map call, so the hot path never rebuilds it.
    table_int: NeighborTable,
}

impl HybridMapper {
    /// Creates a mapper for the full square lattice of `params` after
    /// validating the hardware description and the configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`na_arch::ArchError`] from parameter validation as
    /// [`MapError::Arch`] and [`crate::ConfigError`] from configuration
    /// validation as [`MapError::Config`] — the same contract as
    /// [`HybridMapper::for_target`], so a hand-built config with e.g.
    /// NaN weights cannot silently feed the cost model.
    pub fn new(params: HardwareParams, config: MapperConfig) -> Result<Self, MapError> {
        params.validate()?;
        config.validate()?;
        let lattice = Lattice::new(params.lattice_side);
        let table_int = NeighborTable::for_radius(&lattice, params.r_int);
        Ok(HybridMapper {
            params,
            config,
            lattice,
            gates: NativeGateSet::default(),
            table_int,
        })
    }

    /// Creates a mapper for an arbitrary backend [`Target`]: the trap
    /// topology, native gate set and parameter set all come from the
    /// target description instead of assuming the full square lattice.
    ///
    /// # Errors
    ///
    /// * [`MapError::Arch`] — the target description is invalid
    ///   (including an atom count exceeding the topology's trap count).
    /// * [`MapError::Config`] — the configuration is invalid, or
    ///   requests shuttling on a target whose native gate set has none.
    pub fn for_target(target: &dyn Target, config: MapperConfig) -> Result<Self, MapError> {
        target.validate()?;
        config.validate()?;
        let gates = target.native_gates();
        if !gates.supports_shuttling && !config.is_gate_only() {
            return Err(MapError::Config(
                crate::error::ConfigError::ShuttlingUnsupported {
                    target: target.id(),
                },
            ));
        }
        // Resolve the target once: the spec snapshot carries the CSR
        // interaction adjacency the routing hot path consumes.
        let spec = target.spec();
        Ok(HybridMapper {
            params: spec.params,
            config,
            lattice: spec.lattice,
            gates,
            table_int: spec.interaction_table,
        })
    }

    /// The hardware parameters.
    pub fn params(&self) -> &HardwareParams {
        &self.params
    }

    /// The mapper configuration.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// The trap topology this mapper routes on.
    pub fn lattice(&self) -> Lattice {
        self.lattice
    }

    /// Maps `circuit` to the hardware, inserting SWAPs and shuttle moves.
    ///
    /// Non-native gates (`CᵐX`, `SWAP`) are decomposed first; `op_index`
    /// values in the output refer to the decomposed circuit, available via
    /// [`decompose_to_native`].
    ///
    /// # Errors
    ///
    /// * [`MapError::CircuitTooWide`] — more circuit qubits than atoms.
    /// * [`MapError::GateTooLarge`] — a gate's operands cannot fit any
    ///   mutual-interaction arrangement.
    /// * [`MapError::RoutingStuck`] — no routing progress within the
    ///   safety budget.
    pub fn map(&self, circuit: &Circuit) -> Result<MappingOutcome, MapError> {
        let mut out = MappedCircuit::with_layout(
            circuit.num_qubits(),
            self.params.num_atoms,
            self.config.initial_layout,
        );
        let run = self.map_into(circuit, &mut out, &mut MapScratch::new(), None)?;
        Ok(MappingOutcome {
            mapped: out,
            stats: run.stats,
            runtime: run.runtime,
        })
    }

    /// Maps `circuit`, streaming every emitted [`MappedOp`] into `sink`
    /// instead of materializing a [`MappedCircuit`].
    ///
    /// This is the single-pass entry point of the fused compile
    /// pipeline: a downstream consumer (e.g. an incremental scheduler)
    /// processes operations as they are routed. [`HybridMapper::map`] is
    /// the trivial instance with a collecting sink and a fresh scratch.
    ///
    /// The routing arena (distance-cache pools, journal, dense router
    /// tables) and frontier buffers come from `scratch`; a caller that
    /// maps many circuits on one thread (a batch or service worker)
    /// keeps one alive so they stay warm. Scratch carries capacity,
    /// never decisions: results are identical with a fresh one. The
    /// distance-cache counters are reset on entry, so
    /// [`DistanceCache::snapshot`](crate::DistanceCache::snapshot)
    /// afterwards covers exactly this run.
    ///
    /// With `cancel` set, the token is polled once per routing round.
    /// The poll is a pure read, so routing decisions — and artifacts —
    /// are identical whenever the token never trips.
    ///
    /// The stream starts from the configured
    /// [initial layout](crate::InitialLayout) exactly like
    /// [`MappedCircuit::layout`] records it.
    ///
    /// # Errors
    ///
    /// Same contract as [`HybridMapper::map`], plus
    /// [`MapError::Cancelled`] when the token trips at a checkpoint. On
    /// error the sink may have received a prefix of the stream.
    pub fn map_into(
        &self,
        circuit: &Circuit,
        sink: &mut dyn OpSink,
        scratch: &mut MapScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<StreamOutcome, MapError> {
        let start = Instant::now();
        scratch.route.cache.reset_counters();
        let native = if circuit.is_native() {
            circuit.clone()
        } else {
            decompose_to_native(circuit)
        };

        // Feasibility: a CᵐZ needs m sites pairwise within r_int on the
        // target topology, and within the native gate set's arity cap.
        let max_arity = native.iter().map(Operation::arity).max().unwrap_or(0);
        let capacity = self
            .lattice
            .cluster_capacity(self.params.r_int, max_arity.max(1))
            .min(self.gates.max_rydberg_arity);
        for (i, op) in native.iter().enumerate() {
            if op.arity() > capacity {
                return Err(MapError::GateTooLarge {
                    op_index: i,
                    arity: op.arity(),
                    capacity,
                });
            }
        }

        let mut state = MappingState::on_lattice(
            &self.params,
            self.lattice,
            native.num_qubits(),
            self.config.initial_layout,
        )?;
        let dag = CircuitDag::new(&native);
        let mut layers = LayerTracker::new(&dag);
        let decider = Decider::new(&self.params, &self.config);
        let mut engine =
            RoutingEngine::from_config(&self.params, &self.config, self.table_int.clone());

        let mut stats = MapStats::default();
        // Sticky capability assignment: a gate keeps its first decision
        // until executed (re-deciding every iteration lets borderline
        // gates oscillate between capabilities and livelock the routers;
        // only the engine's handoff reports may override it).
        let mut assigned: Vec<Option<Capability>> = vec![None; native.len()];

        let budget = self
            .config
            .max_ops_per_gate
            .saturating_mul(native.len())
            .saturating_add(1000);
        let mut routing_ops = 0usize;
        // Stall breaker: routing ops applied since the last gate executed.
        let mut ops_since_progress = 0usize;

        while !layers.is_done() {
            // Cancellation checkpoint: one relaxed load (plus a clock
            // read when a deadline is set) per routing round.
            if let Some(token) = cancel {
                if let Err(reason) = token.check() {
                    return Err(MapError::Cancelled { reason });
                }
            }

            // (1) Execute everything currently executable.
            if self.execute_ready(&native, &dag, &mut layers, &mut state, sink) {
                ops_since_progress = 0;
                continue;
            }
            if layers.is_done() {
                break;
            }

            // (2) Assign frontier gates to capabilities (sticky). The
            // gate lists live in reusable scratch buffers; `live` counts
            // the slots valid this round.
            let mut front_live = self.frontier_gates(
                &native,
                layers.front(),
                &state,
                &decider,
                &mut assigned,
                &mut stats,
                &mut scratch.frontier,
            );

            // Stall breaker: if routing churns without executing anything,
            // force the first non-fallback frontier gate through the
            // fallback router alone (its chains guarantee executability
            // by construction).
            let stall_limit = 64 + 8 * front_live;
            if ops_since_progress > stall_limit {
                if let Some(fallback) = engine.fallback_capability() {
                    let idx = scratch.frontier[..front_live]
                        .iter()
                        .position(|g| g.capability != fallback)
                        .unwrap_or(0);
                    scratch.frontier.swap(0, idx);
                    scratch.frontier[0].capability = fallback;
                    front_live = 1;
                }
            }
            let la = layers.lookahead(
                &dag,
                self.config.lookahead_depth,
                self.config.lookahead_max_gates,
            );
            let la_live =
                self.lookahead_gates(&native, &la, &state, &decider, &mut scratch.lookahead);

            // (3)/(4) One engine round: propose, rank, apply — one
            // commit per round in Single mode, a conflict-checked batch
            // of commits in Speculative mode (restricted beyond the
            // best candidate to the first qubit-disjoint front group).
            let round = match self.config.round_mode {
                RoundMode::Single => engine.step(
                    &mut state,
                    &scratch.frontier[..front_live],
                    &scratch.lookahead[..la_live],
                    &mut scratch.route,
                    sink,
                ),
                RoundMode::Speculative => {
                    let groups = layers.front_disjoint_groups(&native);
                    let eligible = groups.first().map(Vec::as_slice).unwrap_or(&[]);
                    engine.step_speculative(
                        &mut state,
                        &scratch.frontier[..front_live],
                        &scratch.lookahead[..la_live],
                        eligible,
                        &mut scratch.route,
                        sink,
                    )
                }
            };
            match round {
                Ok(report) => {
                    for (op_index, capability) in report.reassigned {
                        assigned[op_index] = Some(capability);
                    }
                    stats.swaps_inserted += report.swaps;
                    stats.shuttle_moves += report.moves;
                    stats.rounds_total += 1;
                    stats.commits_total += report.commits;
                    let applied = report.swaps + report.moves;
                    routing_ops += applied;
                    ops_since_progress += applied;
                }
                Err(op_index) => {
                    return Err(MapError::RoutingStuck {
                        op_index,
                        ops_spent: routing_ops,
                    })
                }
            }

            if routing_ops > budget {
                let blocked = layers.front().first().copied().unwrap_or(0);
                return Err(MapError::RoutingStuck {
                    op_index: blocked,
                    ops_spent: routing_ops,
                });
            }
        }

        Ok(StreamOutcome {
            stats,
            runtime: start.elapsed(),
        })
    }

    /// Executes every frontier gate that is currently executable
    /// (single-qubit gates always; entangling gates when their atoms are
    /// mutually within `r_int`). Returns `true` if anything executed.
    fn execute_ready(
        &self,
        native: &Circuit,
        dag: &CircuitDag,
        layers: &mut LayerTracker,
        state: &mut MappingState,
        out: &mut dyn OpSink,
    ) -> bool {
        let mut any = false;
        loop {
            let ready: Vec<usize> = layers
                .front()
                .iter()
                .copied()
                .filter(|&i| {
                    let op = &native.ops()[i];
                    op.arity() == 1
                        || state.qubits_mutually_connected(op.qubits(), self.params.r_int)
                })
                .collect();
            if ready.is_empty() {
                return any;
            }
            for i in ready {
                let op = &native.ops()[i];
                let atoms: Vec<_> = op
                    .qubits()
                    .iter()
                    .map(|&q| state.atom_of_qubit(q))
                    .collect();
                let sites: Vec<_> = atoms.iter().map(|&a| state.site_of_atom(a)).collect();
                out.accept(MappedOp::Gate {
                    op_index: i,
                    op: op.clone(),
                    atoms,
                    sites,
                });
                layers.mark_executed(dag, i);
                any = true;
            }
        }
    }

    /// Annotates the frontier's entangling gates with their (sticky)
    /// capability assignment, recording first-time decisions in `stats`.
    /// Writes into the reusable `buf` (inner qubit vectors recycled) and
    /// returns the number of live slots.
    #[allow(clippy::too_many_arguments)]
    fn frontier_gates(
        &self,
        native: &Circuit,
        front: &[usize],
        state: &MappingState,
        decider: &Decider,
        assigned: &mut [Option<Capability>],
        stats: &mut MapStats,
        buf: &mut Vec<FrontierGate>,
    ) -> usize {
        let mut live = 0usize;
        for &i in front {
            let op: &Operation = &native.ops()[i];
            if op.arity() < 2 {
                continue; // executes directly
            }
            let capability = match assigned[i] {
                Some(capability) => capability,
                None => {
                    let capability = decider.decide(state, op.qubits());
                    match capability {
                        Capability::GateBased => stats.gates_gate_routed += 1,
                        Capability::Shuttling => stats.gates_shuttle_routed += 1,
                    }
                    assigned[i] = Some(capability);
                    capability
                }
            };
            fill_gate_slot(buf, live, i, op.qubits(), capability);
            live += 1;
        }
        live
    }

    /// Annotates lookahead gates with a (non-sticky) capability — only
    /// their pull direction matters, so decisions are re-made per round
    /// and not recorded. Same buffer contract as
    /// [`HybridMapper::frontier_gates`].
    fn lookahead_gates(
        &self,
        native: &Circuit,
        lookahead: &[usize],
        state: &MappingState,
        decider: &Decider,
        buf: &mut Vec<FrontierGate>,
    ) -> usize {
        let mut live = 0usize;
        for &i in lookahead {
            let op = &native.ops()[i];
            if op.arity() < 2 {
                continue;
            }
            let capability = decider.decide(state, op.qubits());
            fill_gate_slot(buf, live, i, op.qubits(), capability);
            live += 1;
        }
        live
    }
}

/// Writes a frontier gate into slot `live` of the reusable buffer,
/// recycling the slot's qubit vector instead of allocating.
fn fill_gate_slot(
    buf: &mut Vec<FrontierGate>,
    live: usize,
    op_index: usize,
    qubits: &[na_circuit::Qubit],
    capability: Capability,
) {
    if live < buf.len() {
        let slot = &mut buf[live];
        slot.op_index = op_index;
        slot.qubits.clear();
        slot.qubits.extend_from_slice(qubits);
        slot.capability = capability;
    } else {
        buf.push(FrontierGate {
            op_index,
            qubits: qubits.to_vec(),
            capability,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_mapping;
    use na_circuit::generators::{GraphState, Qft, RandomCircuit, Reversible};

    fn small(preset: HardwareParams, side: u32, atoms: u32) -> HardwareParams {
        preset
            .to_builder()
            .lattice(side, 3.0)
            .num_atoms(atoms)
            .build()
            .expect("valid")
    }

    #[test]
    fn maps_trivial_circuit_without_routing() {
        let p = small(HardwareParams::mixed(), 4, 8);
        let mapper = HybridMapper::new(p, MapperConfig::default()).unwrap();
        let mut c = Circuit::new(4);
        c.h(0).cz(0, 1).cz(2, 3);
        let outcome = mapper.map(&c).unwrap();
        assert_eq!(outcome.mapped.gate_count(), 3);
        assert_eq!(outcome.stats.swaps_inserted, 0);
        assert_eq!(outcome.stats.shuttle_moves, 0);
    }

    #[test]
    fn shuttle_only_inserts_no_swaps() {
        let p = small(HardwareParams::shuttling(), 6, 20);
        let mapper = HybridMapper::new(p, MapperConfig::shuttle_only()).unwrap();
        let c = Qft::new(12).build();
        let outcome = mapper.map(&c).unwrap();
        assert_eq!(outcome.mapped.swap_count(), 0, "mode (A): ΔCZ = 0");
        assert!(outcome.mapped.shuttle_count() > 0);
        assert_eq!(outcome.mapped.gate_count(), c.len());
    }

    #[test]
    fn gate_only_inserts_no_shuttles() {
        let p = small(HardwareParams::gate_based(), 6, 20);
        let mapper = HybridMapper::new(p, MapperConfig::gate_only()).unwrap();
        let c = Qft::new(12).build();
        let outcome = mapper.map(&c).unwrap();
        assert_eq!(outcome.mapped.shuttle_count(), 0, "mode (B): no moves");
        assert!(outcome.mapped.swap_count() > 0);
        assert_eq!(outcome.mapped.gate_count(), c.len());
    }

    #[test]
    fn hybrid_mapping_verifies_on_random_circuits() {
        let p = small(HardwareParams::mixed(), 6, 25);
        let mapper = HybridMapper::new(
            p.clone(),
            MapperConfig::try_hybrid(1.0).expect("valid alpha"),
        )
        .unwrap();
        for seed in 0..5 {
            let c = RandomCircuit::new(20)
                .layers(6)
                .multi_qubit_fraction(0.2)
                .seed(seed)
                .build();
            let outcome = mapper.map(&c).unwrap();
            verify_mapping(&c, &outcome.mapped, &p).unwrap();
        }
    }

    #[test]
    fn multiqubit_reversible_circuit_maps() {
        let p = small(HardwareParams::mixed(), 6, 20);
        let mapper = HybridMapper::new(
            p.clone(),
            MapperConfig::try_hybrid(1.0).expect("valid alpha"),
        )
        .unwrap();
        let c = Reversible::new(16)
            .counts(&[(3, 20), (4, 6)])
            .seed(3)
            .build();
        let outcome = mapper.map(&c).unwrap();
        let native = decompose_to_native(&c);
        assert_eq!(outcome.mapped.gate_count(), native.len());
        verify_mapping(&c, &outcome.mapped, &p).unwrap();
    }

    #[test]
    fn graph_state_maps_on_all_presets() {
        for preset in [
            HardwareParams::shuttling(),
            HardwareParams::gate_based(),
            HardwareParams::mixed(),
        ] {
            let p = small(preset, 6, 25);
            let mapper = HybridMapper::new(
                p.clone(),
                MapperConfig::try_hybrid(1.0).expect("valid alpha"),
            )
            .unwrap();
            let c = GraphState::new(20).edges(26).seed(9).build();
            let outcome = mapper.map(&c).unwrap();
            verify_mapping(&c, &outcome.mapped, &p).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn rejects_circuit_wider_than_atom_count() {
        let p = small(HardwareParams::mixed(), 4, 8);
        let mapper = HybridMapper::new(p, MapperConfig::default()).unwrap();
        let c = Circuit::new(9);
        assert!(matches!(
            mapper.map(&c),
            Err(MapError::CircuitTooWide { .. })
        ));
    }

    #[test]
    fn rejects_gate_exceeding_interaction_capacity() {
        // r_int = 1: at most 5 sites mutually... the disc has 4 + center,
        // but a CᵐZ on 6 qubits cannot fit.
        let p = small(HardwareParams::mixed(), 6, 20)
            .to_builder()
            .radius(1.0)
            .build()
            .unwrap();
        let mapper = HybridMapper::new(p, MapperConfig::default()).unwrap();
        let mut c = Circuit::new(8);
        c.mcz(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(matches!(mapper.map(&c), Err(MapError::GateTooLarge { .. })));
    }

    #[test]
    fn decisions_recorded_in_stats() {
        let p = small(HardwareParams::mixed(), 6, 25);
        let mapper =
            HybridMapper::new(p, MapperConfig::try_hybrid(1.0).expect("valid alpha")).unwrap();
        let c = Qft::new(16).build();
        let outcome = mapper.map(&c).unwrap();
        let routed = outcome.stats.gates_gate_routed + outcome.stats.gates_shuttle_routed;
        assert!(routed > 0);
        assert!(routed <= c.entangling_count());
    }

    #[test]
    fn op_indices_cover_native_circuit() {
        let p = small(HardwareParams::mixed(), 6, 20);
        let mapper = HybridMapper::new(p, MapperConfig::default()).unwrap();
        let mut c = Circuit::new(10);
        c.cx(0, 9).mcx(&[1, 2, 3]).h(5);
        let native = decompose_to_native(&c);
        let outcome = mapper.map(&c).unwrap();
        let mut seen = vec![false; native.len()];
        for op in outcome.mapped.iter() {
            if let MappedOp::Gate { op_index, .. } = op {
                assert!(!seen[*op_index], "op {op_index} executed twice");
                seen[*op_index] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every native op executed");
    }

    #[test]
    fn speculative_rounds_multi_commit_on_disjoint_workloads() {
        // A wide graph-state layer offers many qubit-disjoint frontier
        // gates per round — speculative rounds must commit more than one
        // candidate per round somewhere in the run.
        let p = small(HardwareParams::mixed(), 10, 64);
        let mapper = HybridMapper::new(
            p.clone(),
            MapperConfig::try_hybrid(1.0).expect("valid alpha"),
        )
        .unwrap();
        let c = GraphState::new(48).edges(80).seed(5).build();
        let outcome = mapper.map(&c).unwrap();
        verify_mapping(&c, &outcome.mapped, &p).unwrap();
        assert!(outcome.stats.rounds_total > 0);
        assert!(
            outcome.stats.commits_total > outcome.stats.rounds_total,
            "expected multi-commit rounds: {} commits over {} rounds",
            outcome.stats.commits_total,
            outcome.stats.rounds_total
        );
    }

    #[test]
    fn round_modes_agree_on_executed_gates() {
        let p = small(HardwareParams::mixed(), 6, 25);
        let c = GraphState::new(20).edges(30).seed(2).build();
        let run = |mode: RoundMode| {
            let cfg = MapperConfig::try_hybrid(1.0)
                .expect("valid alpha")
                .with_round_mode(mode);
            let mapper = HybridMapper::new(p.clone(), cfg).unwrap();
            let outcome = mapper.map(&c).unwrap();
            verify_mapping(&c, &outcome.mapped, &p).unwrap();
            outcome
        };
        let single = run(RoundMode::Single);
        let speculative = run(RoundMode::Speculative);
        assert_eq!(single.stats.commits_total, single.stats.rounds_total);
        assert_eq!(single.mapped.gate_count(), speculative.mapped.gate_count());
        assert!(speculative.stats.rounds_total <= single.stats.rounds_total);
    }

    #[test]
    fn pre_cancelled_token_stops_mapping_at_first_round() {
        let p = small(HardwareParams::mixed(), 6, 25);
        let mapper =
            HybridMapper::new(p, MapperConfig::try_hybrid(1.0).expect("valid alpha")).unwrap();
        let c = Qft::new(14).build();
        let token = crate::CancelToken::never();
        token.cancel();
        let mut sink =
            MappedCircuit::with_layout(c.num_qubits(), 25, mapper.config().initial_layout);
        let err = mapper
            .map_into(&c, &mut sink, &mut MapScratch::new(), Some(&token))
            .unwrap_err();
        assert!(matches!(
            err,
            MapError::Cancelled {
                reason: crate::CancelReason::Explicit
            }
        ));
    }

    #[test]
    fn untripped_token_yields_identical_artifacts() {
        let p = small(HardwareParams::mixed(), 6, 25);
        let mapper =
            HybridMapper::new(p, MapperConfig::try_hybrid(1.0).expect("valid alpha")).unwrap();
        let c = Qft::new(14).build();
        let plain = mapper.map(&c).unwrap();
        let token = crate::CancelToken::with_deadline(Duration::from_secs(3600));
        let mut sink =
            MappedCircuit::with_layout(c.num_qubits(), 25, mapper.config().initial_layout);
        let run = mapper
            .map_into(&c, &mut sink, &mut MapScratch::new(), Some(&token))
            .unwrap();
        assert_eq!(plain.mapped, sink, "checkpoint polls perturbed routing");
        assert_eq!(plain.stats, run.stats);
    }

    #[test]
    fn stats_match_stream_counts() {
        let p = small(HardwareParams::mixed(), 6, 25);
        let mapper =
            HybridMapper::new(p, MapperConfig::try_hybrid(1.0).expect("valid alpha")).unwrap();
        let c = Qft::new(14).build();
        let outcome = mapper.map(&c).unwrap();
        assert_eq!(outcome.stats.swaps_inserted, outcome.mapped.swap_count());
        assert_eq!(outcome.stats.shuttle_moves, outcome.mapped.shuttle_count());
    }
}
