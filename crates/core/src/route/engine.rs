//! The routing engine: registered routers, the shared comparator, and
//! candidate application.
//!
//! One routing round ([`RoutingEngine::step`]) is: build a
//! [`RoutingContext`] over the caller's [`RouteScratch`] arena, let each
//! registered [`Router`] propose candidates for its frontier slice, rank
//! everything through the [`Candidate::improves_on`] comparator, apply
//! the winner's operations, and notify the proposing router.
//!
//! Router priority (registration order) maps to the candidate `tier`.
//! Because the comparator is tier-dominant, lower tiers cannot win while
//! a higher tier produced any candidate — so the engine skips evaluating
//! them entirely (the paper's §3.2 (4): shuttling only acts once the
//! gate-based frontier is exhausted). A tier that *has* gates but yields
//! no candidate passes its gates down to the next tier for this round
//! (starvation fallback), and gates a router permanently refuses
//! ([`super::Proposal::handoff`]) are reported back so the mapper can
//! persist the reassignment.

use na_arch::{HardwareParams, Lattice, NeighborTable};

use crate::config::MapperConfig;
use crate::decision::Capability;
use crate::ops::MappedOp;
use crate::route::{
    Candidate, FrontierGate, GateRouter, RouteScratch, Router, RoutingContext, RoutingOp,
    ShuttleRouter,
};
use crate::sink::OpSink;
use crate::state::MappingState;

/// What one routing round did: operation counts plus capability
/// reassignments to persist.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    /// SWAPs applied this round.
    pub swaps: usize,
    /// Shuttle moves applied this round.
    pub moves: usize,
    /// `(op_index, new_capability)` pairs for gates permanently handed
    /// to another router (e.g. multi-qubit gates without a geometric
    /// position, paper §3.2 (3)).
    pub reassigned: Vec<(usize, Capability)>,
    /// Candidates committed this round: always `1` for
    /// [`RoutingEngine::step`], `>= 1` for a successful
    /// [`RoutingEngine::step_speculative`] round.
    pub commits: usize,
}

/// The unified routing engine owning the registered routers.
///
/// The distance cache and every reusable buffer live in the
/// [`RouteScratch`] arena the *caller* owns and threads through
/// [`RoutingEngine::step`] — so a caller that keeps one arena alive
/// across circuits (per-worker scratch in batch compilation) reuses
/// warm buffers, while the engine itself stays cheap to construct per
/// circuit (routers carry per-run recency state).
#[derive(Debug)]
pub struct RoutingEngine {
    routers: Vec<Box<dyn Router>>,
    /// CSR adjacency of the lattice the engine routes on at `r_int`,
    /// rebuilt lazily when a step arrives for a different lattice.
    table_int: NeighborTable,
}

impl RoutingEngine {
    /// Registers the paper's two routers according to the configured
    /// capability weights: gate-based (tier 0) when `α_g > 0`, shuttling
    /// (tier 1) when `α_s > 0`. A config with both weights zero (only
    /// constructible by hand — the named constructors forbid it) gets
    /// the gate-based router, matching the decider's `GateBased`
    /// short-circuit for that degenerate case.
    ///
    /// `table` is the CSR interaction adjacency at `params.r_int` of the
    /// topology the engine routes on (e.g. the one a
    /// [`na_arch::TargetSpec`] carries), so routing rounds never pay
    /// geometry math per neighbor visit.
    pub fn from_config(
        params: &HardwareParams,
        config: &MapperConfig,
        table: NeighborTable,
    ) -> Self {
        let mut routers: Vec<Box<dyn Router>> = Vec::new();
        if config.alpha_gate > 0.0 || config.alpha_shuttle <= 0.0 {
            routers.push(Box::new(GateRouter::new(params, config)));
        }
        if config.alpha_shuttle > 0.0 {
            routers.push(Box::new(ShuttleRouter::new(params, config)));
        }
        debug_assert!(
            table.radius() == params.r_int,
            "CSR table radius differs from r_int"
        );
        RoutingEngine {
            routers,
            table_int: table,
        }
    }

    /// Builds an engine over an explicit router list (priority order =
    /// tier order). This is the extension point for additional
    /// strategies: implement [`Router`] and register it here. Resolves
    /// the full square lattice of `params`; a step on another topology
    /// rebuilds the adjacency for it.
    pub fn with_routers(params: &HardwareParams, routers: Vec<Box<dyn Router>>) -> Self {
        RoutingEngine {
            routers,
            table_int: NeighborTable::for_radius(&Lattice::new(params.lattice_side), params.r_int),
        }
    }

    /// The registered routers, in tier order.
    pub fn routers(&self) -> &[Box<dyn Router>] {
        &self.routers
    }

    /// Rebuilds the CSR table when `state` routes on a different
    /// lattice than the engine was constructed for.
    fn ensure_table(&mut self, state: &MappingState) {
        if self.table_int.lattice() != state.lattice() {
            self.table_int = NeighborTable::for_radius(state.lattice(), self.table_int.radius());
        }
    }

    /// The capability gates fall back to when their assigned router
    /// cannot serve them: the lowest-priority router's capability, if
    /// the engine has more than one router.
    pub fn fallback_capability(&self) -> Option<Capability> {
        if self.routers.len() > 1 {
            self.routers.last().map(|r| r.capability())
        } else {
            None
        }
    }

    /// Runs one routing round: propose, rank, apply the winning
    /// candidate's operations to `state` and stream them into `out`.
    ///
    /// `out` is any [`OpSink`] — a collecting [`MappedCircuit`] for the
    /// classic two-pass flow, or a fused consumer such as an incremental
    /// scheduler. `scratch` is the caller-owned arena the routers borrow
    /// for journaled candidate simulation and their dense per-round
    /// tables.
    ///
    /// Returns `Err(op_index)` of the first unroutable gate when no
    /// router produced a candidate.
    ///
    /// [`MappedCircuit`]: crate::ops::MappedCircuit
    pub fn step(
        &mut self,
        state: &mut MappingState,
        frontier: &[FrontierGate],
        lookahead: &[FrontierGate],
        scratch: &mut RouteScratch,
        out: &mut dyn OpSink,
    ) -> Result<StepReport, usize> {
        let mut report = StepReport::default();
        self.ensure_table(state);
        let mut cands = std::mem::take(&mut scratch.spec.candidates);
        cands.clear();
        let gates: Vec<&FrontierGate> = frontier.iter().collect();
        let walked = Self::collect_tier_candidates(
            &self.routers,
            &mut RoutingContext::new(state, &self.table_int, scratch),
            &gates,
            lookahead,
            false,
            &mut report,
            &mut cands,
        );
        if let Ok(tier) = walked {
            // Rank the winning tier through the shared comparator
            // (earlier-proposed candidates win ties).
            let winner = cands
                .iter()
                .reduce(|best, cand| if cand.improves_on(best) { cand } else { best })
                .expect("a winning tier proposed a candidate");
            self.apply(winner, tier, state, out, &mut report);
            report.commits = 1;
        }
        scratch.spec.candidates = cands;
        walked.map(|_| report)
    }

    /// Runs one speculative multi-commit round: batch-evaluate one best
    /// candidate per serviceable *commit-eligible* gate of the winning
    /// tier, mint each candidate's conflict set by journaled
    /// apply/undo, then greedily commit a maximal non-conflicting
    /// subset in deterministic `(cost, proposal order)` order.
    ///
    /// `eligible` is the sorted `op_index` list of commit-eligible gates
    /// (the first qubit-disjoint group of the frontier,
    /// [`na_circuit::dag::LayerTracker::front_disjoint_groups`]). The
    /// evaluation sweep is restricted to those gates — the rest of a
    /// wide front could never commit this round, so scoring it is
    /// wasted work — and falls back to the full frontier whenever the
    /// restricted sweep starves, so a speculative round is never weaker
    /// than [`RoutingEngine::step`] at making progress or reporting a
    /// stuck gate. The best evaluated candidate always commits
    /// regardless of eligibility (progress guarantee).
    ///
    /// Committed candidates have pairwise-disjoint conflict sets
    /// (touched atoms + claimed/freed sites), so an earlier commit can
    /// neither move a later winner's atoms nor occupy its target sites:
    /// every committed candidate is exactly as valid as when it was
    /// simulated against the pre-round state.
    ///
    /// Returns `Err(op_index)` of the first unroutable gate when no
    /// router produced a candidate.
    pub fn step_speculative(
        &mut self,
        state: &mut MappingState,
        frontier: &[FrontierGate],
        lookahead: &[FrontierGate],
        eligible: &[usize],
        scratch: &mut RouteScratch,
        out: &mut dyn OpSink,
    ) -> Result<StepReport, usize> {
        let mut report = StepReport::default();
        self.ensure_table(state);

        // Phase 1 — batched proposal over the commit-eligible frontier:
        // one best candidate per serviceable gate of the winning tier.
        // Gates outside `eligible` could never commit this round, and on
        // wide circuits the front dwarfs its first qubit-disjoint group
        // — evaluating them would be almost entirely wasted work — so
        // the sweep sees only eligible gates. If that restricted sweep
        // starves (or `eligible` names no frontier gate), re-sweep the
        // full frontier: a speculative round is never weaker than
        // [`RoutingEngine::step`] at making progress or detecting a
        // stuck gate.
        let mut cands = std::mem::take(&mut scratch.spec.candidates);
        cands.clear();
        let mut sweep: Vec<&FrontierGate> = frontier
            .iter()
            .filter(|g| eligible.binary_search(&g.op_index).is_ok())
            .collect();
        let tier = loop {
            let walked = Self::collect_tier_candidates(
                &self.routers,
                &mut RoutingContext::new(state, &self.table_int, scratch),
                &sweep,
                lookahead,
                true,
                &mut report,
                &mut cands,
            );
            match walked {
                Ok(tier) => break tier,
                Err(stuck) if sweep.len() == frontier.len() => {
                    scratch.spec.candidates = cands;
                    return Err(stuck);
                }
                Err(_) => sweep = frontier.iter().collect(),
            }
        };

        // Phase 2 — conflict-set minting: journal-apply each candidate
        // against the pre-round state (validating it) and record the
        // atoms and dense site indices it touches, then roll back.
        let mut atoms = std::mem::take(&mut scratch.spec.conflict_atoms);
        let mut sites = std::mem::take(&mut scratch.spec.conflict_sites);
        let mut ranges = std::mem::take(&mut scratch.spec.ranges);
        atoms.clear();
        sites.clear();
        ranges.clear();
        for cand in &cands {
            let (a0, s0) = (atoms.len() as u32, sites.len() as u32);
            mint_conflict_set(state, &mut scratch.journal, cand, &mut atoms, &mut sites);
            ranges.push([a0, atoms.len() as u32, s0, sites.len() as u32]);
        }
        debug_assert!(
            scratch.journal.is_empty(),
            "conflict minting must roll back"
        );

        // Phase 3 — deterministic greedy commit: rank by (cost, proposal
        // order), commit every candidate whose conflict set is disjoint
        // from all earlier commits. The best candidate commits
        // unconditionally; later ones must also be commit-eligible
        // (qubit-disjoint front group) so one round never services two
        // gates that share a qubit.
        let mut order = std::mem::take(&mut scratch.spec.order);
        order.clear();
        order.extend(0..cands.len() as u32);
        order.sort_unstable_by(|&i, &j| {
            let (a, b) = (&cands[i as usize], &cands[j as usize]);
            a.cost
                .partial_cmp(&b.cost)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(i.cmp(&j))
        });
        scratch
            .spec
            .ensure(state.num_atoms(), state.lattice().num_sites());
        scratch.spec.round_gen += 1;
        let round_gen = scratch.spec.round_gen;
        for &i in &order {
            let cand = &cands[i as usize];
            if report.commits > 0 && eligible.binary_search(&cand.op_index).is_err() {
                continue;
            }
            let [a0, a1, s0, s1] = ranges[i as usize];
            let cand_atoms = &atoms[a0 as usize..a1 as usize];
            let cand_sites = &sites[s0 as usize..s1 as usize];
            let disjoint = report.commits == 0
                || (cand_atoms
                    .iter()
                    .all(|&a| scratch.spec.atom_mark[a as usize] != round_gen)
                    && cand_sites
                        .iter()
                        .all(|&s| scratch.spec.site_mark[s as usize] != round_gen));
            if !disjoint {
                continue;
            }
            for &a in cand_atoms {
                scratch.spec.atom_mark[a as usize] = round_gen;
            }
            for &s in cand_sites {
                scratch.spec.site_mark[s as usize] = round_gen;
            }
            self.apply(&cands[i as usize], tier, state, out, &mut report);
            report.commits += 1;
        }

        scratch.spec.candidates = cands;
        scratch.spec.order = order;
        scratch.spec.conflict_atoms = atoms;
        scratch.spec.conflict_sites = sites;
        scratch.spec.ranges = ranges;
        Ok(report)
    }

    /// Walks the router tiers in priority order and collects the
    /// *entire* candidate list of the first tier that yields any — via
    /// [`Router::propose_batch`] (one best candidate per gate) when
    /// `batched`, else [`Router::propose`]. Both round modes rank from
    /// this one list. A tier that starves passes its gates down to the
    /// next tier, and gates a router hands off are recorded in
    /// `report.reassigned`. Returns the winning tier; `Err(op_index)`
    /// when every tier starves.
    fn collect_tier_candidates(
        routers: &[Box<dyn Router>],
        ctx: &mut RoutingContext<'_>,
        frontier: &[&FrontierGate],
        lookahead: &[FrontierGate],
        batched: bool,
        report: &mut StepReport,
        out_cands: &mut Vec<Candidate>,
    ) -> Result<usize, usize> {
        // Gates flowing down from starved or refusing higher tiers
        // (borrows only — the hot loop copies no gate data; a carried
        // gate's stale `capability` field is irrelevant because routers
        // serve whatever the engine hands them).
        let mut carried: Vec<&FrontierGate> = Vec::new();
        let mut first_pending: Option<usize> = None;

        for (tier, router) in routers.iter().enumerate() {
            let cap = router.capability();
            let mut gates: Vec<&FrontierGate> = frontier
                .iter()
                .copied()
                .filter(|g| g.capability == cap)
                .collect();
            gates.append(&mut carried);
            if gates.is_empty() {
                continue;
            }
            first_pending.get_or_insert(gates[0].op_index);

            let la: Vec<&FrontierGate> = lookahead.iter().filter(|g| g.capability == cap).collect();
            let has_next = tier + 1 < routers.len();
            let proposal = if batched {
                router.propose_batch(ctx, &gates, &la, has_next)
            } else {
                router.propose(ctx, &gates, &la, has_next)
            };
            debug_assert!(
                !ctx.speculation_in_flight(),
                "router returned with un-rolled-back speculation"
            );

            if has_next && !proposal.handoff.is_empty() {
                let next_cap = routers[tier + 1].capability();
                for &op_index in &proposal.handoff {
                    report.reassigned.push((op_index, next_cap));
                    if let Some(pos) = gates.iter().position(|g| g.op_index == op_index) {
                        carried.push(gates.remove(pos));
                    }
                }
            }

            // Tier dominance makes evaluating lower tiers unnecessary
            // once any candidate exists here.
            if !proposal.candidates.is_empty() {
                out_cands.extend(proposal.candidates.into_iter().map(|mut cand| {
                    cand.tier = tier as u8;
                    cand
                }));
                return Ok(tier);
            }
            // Starved: every remaining gate of this tier flows down.
            carried.append(&mut gates);
        }

        Err(carried
            .first()
            .map(|g| g.op_index)
            .or(first_pending)
            .unwrap_or(0))
    }

    /// Applies a winning candidate: emits [`MappedOp`]s, mutates the
    /// state, and notifies the proposing router.
    fn apply(
        &mut self,
        candidate: &Candidate,
        tier: usize,
        state: &mut MappingState,
        out: &mut dyn OpSink,
        report: &mut StepReport,
    ) {
        for op in &candidate.ops {
            match *op {
                RoutingOp::Swap {
                    a,
                    b,
                    site_a,
                    site_b,
                } => {
                    out.accept(MappedOp::Swap {
                        a,
                        b,
                        site_a,
                        site_b,
                    });
                    state.apply_swap(a, b);
                    report.swaps += 1;
                }
                RoutingOp::Move { atom, from, to } => {
                    out.accept(MappedOp::Shuttle { atom, from, to });
                    state.apply_move(atom, to);
                    report.moves += 1;
                }
            }
        }
        self.routers[tier].note_applied(state, candidate);
    }
}

/// Journal-applies `cand`'s operations on `state` — validating the
/// candidate's sequential consistency against that state — while
/// recording its conflict set (every touched atom id and every dense
/// site index it frees or claims), then rolls everything back.
fn mint_conflict_set(
    state: &mut MappingState,
    journal: &mut crate::state::StateJournal,
    cand: &Candidate,
    atoms: &mut Vec<u32>,
    sites: &mut Vec<u32>,
) {
    let lattice = *state.lattice();
    let mark = journal.mark();
    for op in &cand.ops {
        match *op {
            RoutingOp::Swap {
                a,
                b,
                site_a,
                site_b,
            } => {
                debug_assert_eq!(state.site_of_atom(a), site_a);
                debug_assert_eq!(state.site_of_atom(b), site_b);
                state.apply_swap_journaled(a, b, journal);
                atoms.push(a.0);
                atoms.push(b.0);
                sites.push(lattice.index(site_a) as u32);
                sites.push(lattice.index(site_b) as u32);
            }
            RoutingOp::Move { atom, from, to } => {
                debug_assert_eq!(state.site_of_atom(atom), from);
                state.apply_move_journaled(atom, to, journal);
                atoms.push(atom.0);
                sites.push(lattice.index(from) as u32);
                sites.push(lattice.index(to) as u32);
            }
        }
    }
    state.undo_to(journal, mark);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::MappedCircuit;
    use na_circuit::Qubit;

    fn params(side: u32, atoms: u32, r: f64) -> HardwareParams {
        HardwareParams::mixed()
            .to_builder()
            .lattice(side, 3.0)
            .num_atoms(atoms)
            .radius(r)
            .build()
            .expect("valid")
    }

    /// [`RoutingEngine::from_config`] over the full square lattice of `p`.
    fn engine(p: &HardwareParams, config: &MapperConfig) -> RoutingEngine {
        let table = NeighborTable::for_radius(&Lattice::new(p.lattice_side), p.r_int);
        RoutingEngine::from_config(p, config, table)
    }

    fn gate(op_index: usize, qubits: &[u32], capability: Capability) -> FrontierGate {
        FrontierGate {
            op_index,
            qubits: qubits.iter().map(|&q| Qubit(q)).collect(),
            capability,
        }
    }

    #[test]
    fn from_config_registers_by_alphas() {
        let p = params(5, 20, 1.0);
        assert_eq!(
            engine(&p, &MapperConfig::try_hybrid(1.0).expect("valid alpha"))
                .routers()
                .len(),
            2
        );
        let gate_only = engine(&p, &MapperConfig::gate_only());
        assert_eq!(gate_only.routers().len(), 1);
        assert_eq!(gate_only.fallback_capability(), None);
        let hybrid = engine(&p, &MapperConfig::try_hybrid(1.0).expect("valid alpha"));
        assert_eq!(hybrid.fallback_capability(), Some(Capability::Shuttling));
    }

    #[test]
    fn degenerate_zero_alpha_config_still_routes() {
        // Both weights zero is only constructible by hand; the decider
        // short-circuits to GateBased, so the engine must register the
        // gate router rather than end up empty.
        let p = params(5, 24, 1.0);
        let config = MapperConfig {
            alpha_gate: 0.0,
            alpha_shuttle: 0.0,
            ..MapperConfig::default()
        };
        let mut engine = engine(&p, &config);
        assert_eq!(engine.routers().len(), 1);
        let mut state = MappingState::identity(&p, 24).expect("fits");
        let frontier = [gate(0, &[0, 12], Capability::GateBased)];
        let mut scratch = RouteScratch::new();
        let mut out = MappedCircuit::new(24, 24);
        let report = engine
            .step(&mut state, &frontier, &[], &mut scratch, &mut out)
            .unwrap();
        assert_eq!(report.swaps, 1);
    }

    #[test]
    fn gate_tier_wins_while_it_has_candidates() {
        let p = params(5, 24, 1.0);
        let mut state = MappingState::identity(&p, 24).expect("fits");
        let mut engine = engine(&p, &MapperConfig::try_hybrid(1.0).expect("valid alpha"));
        let frontier = [
            gate(0, &[0, 12], Capability::GateBased),
            gate(1, &[3, 20], Capability::Shuttling),
        ];
        let mut scratch = RouteScratch::new();
        let mut out = MappedCircuit::new(24, 24);
        let report = engine
            .step(&mut state, &frontier, &[], &mut scratch, &mut out)
            .unwrap();
        assert_eq!(report.swaps, 1, "tier 0 must act first");
        assert_eq!(report.moves, 0);
    }

    #[test]
    fn shuttle_tier_acts_when_gate_frontier_empty() {
        let p = params(5, 20, 1.0);
        let mut state = MappingState::identity(&p, 20).expect("fits");
        let mut engine = engine(&p, &MapperConfig::try_hybrid(1.0).expect("valid alpha"));
        let frontier = [gate(0, &[0, 19], Capability::Shuttling)];
        let mut scratch = RouteScratch::new();
        let mut out = MappedCircuit::new(20, 20);
        let report = engine
            .step(&mut state, &frontier, &[], &mut scratch, &mut out)
            .unwrap();
        assert_eq!(report.swaps, 0);
        assert!(report.moves >= 1);
        assert_eq!(out.shuttle_count(), report.moves);
    }

    /// Isolates the first two atoms (no occupied interaction neighbour),
    /// so the gate-based router has no SWAP candidate at all.
    fn isolated_pair_state(p: &HardwareParams) -> MappingState {
        let mut state = MappingState::identity(p, p.num_atoms).expect("fits");
        state.apply_move(crate::ops::AtomId(0), na_arch::Site::new(6, 6));
        state.apply_move(crate::ops::AtomId(1), na_arch::Site::new(4, 3));
        state
    }

    #[test]
    fn starved_gate_tier_falls_through_to_shuttling() {
        // Both gate atoms are isolated: no SWAP partner exists, so the
        // gate-based tier starves and shuttling takes over — in both
        // round modes, which share one tier walker.
        let p = params(7, 4, 1.0);
        let frontier = [gate(0, &[0, 1], Capability::GateBased)];
        for speculative in [false, true] {
            let mut state = isolated_pair_state(&p);
            let mut engine = engine(&p, &MapperConfig::try_hybrid(1.0).expect("valid alpha"));
            let mut scratch = RouteScratch::new();
            let mut out = MappedCircuit::new(4, 4);
            let report = if speculative {
                engine.step_speculative(&mut state, &frontier, &[], &[0], &mut scratch, &mut out)
            } else {
                engine.step(&mut state, &frontier, &[], &mut scratch, &mut out)
            }
            .unwrap();
            assert_eq!(report.swaps, 0, "speculative = {speculative}");
            assert!(
                report.moves >= 1,
                "shuttle fallback must route the gate (speculative = {speculative})"
            );
        }
    }

    #[test]
    fn single_router_engine_reports_stuck_gate() {
        let p = params(7, 4, 1.0);
        let mut state = isolated_pair_state(&p);
        let mut engine = engine(&p, &MapperConfig::gate_only());
        let frontier = [gate(9, &[0, 1], Capability::GateBased)];
        let mut scratch = RouteScratch::new();
        let mut out = MappedCircuit::new(4, 4);
        let err = engine
            .step(&mut state, &frontier, &[], &mut scratch, &mut out)
            .unwrap_err();
        assert_eq!(err, 9);
    }

    #[test]
    fn speculative_round_multi_commits_disjoint_gates() {
        // Two far-apart gates touching disjoint atoms: one speculative
        // round must service both (conflict sets cannot overlap).
        let p = params(8, 40, 1.0);
        let mut state = MappingState::identity(&p, 40).expect("fits");
        let mut engine = engine(&p, &MapperConfig::gate_only());
        let frontier = [
            gate(0, &[0, 18], Capability::GateBased),
            gate(1, &[5, 30], Capability::GateBased),
        ];
        let mut scratch = RouteScratch::new();
        let mut out = MappedCircuit::new(40, 40);
        let report = engine
            .step_speculative(&mut state, &frontier, &[], &[0, 1], &mut scratch, &mut out)
            .unwrap();
        assert_eq!(report.commits, 2, "both disjoint gates must commit");
        assert_eq!(report.swaps, out.swap_count());
    }

    #[test]
    fn speculative_round_commits_best_even_without_eligible_set() {
        // Progress guarantee: the globally best candidate commits even
        // when the eligible set is empty, so a speculative round is
        // never weaker than a single round.
        let p = params(5, 24, 1.0);
        let mut state = MappingState::identity(&p, 24).expect("fits");
        let mut engine = engine(&p, &MapperConfig::gate_only());
        let frontier = [gate(0, &[0, 12], Capability::GateBased)];
        let mut scratch = RouteScratch::new();
        let mut out = MappedCircuit::new(24, 24);
        let report = engine
            .step_speculative(&mut state, &frontier, &[], &[], &mut scratch, &mut out)
            .unwrap();
        assert_eq!(report.commits, 1);
        assert_eq!(report.swaps, 1);
    }

    #[test]
    fn speculative_round_resweeps_full_frontier_when_eligible_starves() {
        // The only eligible gate is isolated (no SWAP partner), so the
        // restricted sweep starves; the full-frontier re-sweep must
        // still route the other gate this round.
        let p = params(7, 6, 1.0);
        let mut state = isolated_pair_state(&p);
        let mut engine = engine(&p, &MapperConfig::gate_only());
        let frontier = [
            gate(9, &[0, 1], Capability::GateBased),
            gate(4, &[2, 5], Capability::GateBased),
        ];
        let mut scratch = RouteScratch::new();
        let mut out = MappedCircuit::new(6, 6);
        let report = engine
            .step_speculative(&mut state, &frontier, &[], &[9], &mut scratch, &mut out)
            .unwrap();
        assert_eq!((report.commits, report.swaps), (1, 1));
    }

    #[test]
    fn speculative_round_reports_stuck_gate() {
        let p = params(7, 4, 1.0);
        let mut state = isolated_pair_state(&p);
        let mut engine = engine(&p, &MapperConfig::gate_only());
        let frontier = [gate(9, &[0, 1], Capability::GateBased)];
        let mut scratch = RouteScratch::new();
        let mut out = MappedCircuit::new(4, 4);
        let err = engine
            .step_speculative(&mut state, &frontier, &[], &[9], &mut scratch, &mut out)
            .unwrap_err();
        assert_eq!(err, 9);
    }

    #[test]
    fn step_notifies_router_and_survives_repeats() {
        let p = params(5, 24, 1.0);
        let mut state = MappingState::identity(&p, 24).expect("fits");
        let mut engine = engine(&p, &MapperConfig::try_hybrid(1.0).expect("valid alpha"));
        let frontier = [gate(0, &[0, 23], Capability::GateBased)];
        let mut scratch = RouteScratch::new();
        let mut out = MappedCircuit::new(24, 24);
        let mut swaps = 0;
        while !state.qubits_mutually_connected(&[Qubit(0), Qubit(23)], p.r_int) {
            let report = engine
                .step(&mut state, &frontier, &[], &mut scratch, &mut out)
                .unwrap();
            swaps += report.swaps + report.moves;
            assert!(swaps < 60, "engine must converge");
        }
        assert!(swaps >= 1);
    }
}
