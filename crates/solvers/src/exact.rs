//! Exact optimal pebbling via Dijkstra / A* over configurations.
//!
//! A configuration is `(red, blue[, computed])` packed into `u64` words;
//! moves are edges weighted by their scaled cost in the instance's own
//! objective ([`Instance::cost_scales`]: `transfers·den(ε) +
//! computes·num(ε)` on classic instances, exact integers). Dijkstra over this graph yields the
//! optimal pebbling cost and, via parent pointers, an optimal trace.
//!
//! ## State keys per model
//! - **base / compcost / nodel**: `(red, blue)`. The computed set does not
//!   constrain future legality (recomputation is allowed), so it is
//!   omitted — this also merges states that differ only in history.
//! - **oneshot**: `(red, blue, computed)`, because each node admits one
//!   compute.
//!
//! The search loop itself — arena interning, the goal-directed frontier,
//! incumbent-bound pruning, the proved-optimal floor exit, budgets and
//! trace reconstruction — is the shared kernel in [`crate::search`]; the
//! move rules below live in the classic expander ([`crate::expand`]).
//! [`crate::api::ExactSolver`] runs the kernel over that expander, seeded
//! with a greedy portfolio incumbent; [`crate::api::ExactSolver::reference`]
//! is the unpruned brute-force mode.
//!
//! ## Bitset adjacency
//! The "all inputs red" gate of a compute and the "has an uncomputed
//! successor" prune are word-wise `ANDN` loops over packed mask rows
//! ([`Dag::pred_mask`]/[`Dag::succ_mask`]), not per-edge iteration.
//!
//! ## Incremental-delta invariants
//! The kernel caches three state functions per state and the classic
//! expander updates them by ±deltas instead of rescanning:
//!
//! - `red`: `+1` on Load/Compute, `−1` on Store/Delete-of-red.
//! - `unsat`: the number of sinks violating the finishing
//!   convention; a state is a goal iff it is 0. Only the moved node's
//!   pebbles change, so only a sink move can shift it by ±1.
//! - `heur`: the A* heuristic value (below). A move on `v` changes only
//!   `v`'s own contribution, via its blue membership. A Compute changes
//!   nothing: the computed node was not blue (pebbled ⊆ computed in
//!   oneshot), and the only nodes whose "has an uncomputed successor"
//!   status flips are its predecessors, which the compute guard requires
//!   to be red — red and blue being disjoint, none of them is counted
//!   before or after.
//!
//! ## Optimality-preserving pruning (`prune = true`)
//! All prunes below keep at least one optimal pebbling intact; the
//! unpruned mode (`prune = false`) is the brute-force reference that the
//! test-suite compares against on small instances.
//!
//! 1. *Never delete a blue pebble* (all models with deletion): a state
//!    with a superset of blue pebbles and identical red/computed sets can
//!    replay any continuation of the smaller state at equal cost, so the
//!    delete only moves to a dominated state.
//! 2. *(oneshot)* Skip `Load(v)`/`Store(v)` when `v` has no uncomputed
//!    successor and is not a sink: the pebble can never enable anything
//!    again, so the optimal continuation never pays to move it.
//! 3. *(oneshot)* Skip `Delete(v)` when `v` still has an uncomputed
//!    successor, or when `v` is a sink: recomputation is forbidden, so
//!    both cases make the goal unreachable (dead state).
//! 4. *(oneshot)* Dead-state check at expansion: if some sink is already
//!    unreachable (computed but unpebbled, or uncomputed with an
//!    unreachable input), the subtree is abandoned.
//!
//! ## A*
//! For oneshot an admissible, consistent heuristic is available: every
//! node that is blue and still has an uncomputed successor must be loaded
//! at least once more (recomputation being forbidden), contributing 1
//! transfer each.

use crate::error::SolveError;

#[cfg(doc)]
use {rbp_core::Instance, rbp_graph::Dag};

/// Search knobs of the exact solvers ([`crate::api::ExactSolver`],
/// [`crate::mpp::ExactMppSolver`]).
#[derive(Clone, Copy, Debug)]
pub struct ExactConfig {
    /// Abort with [`SolveError::StateLimitExceeded`] after interning this
    /// many states (memory guard).
    pub max_states: usize,
    /// Enable the optimality-preserving prunes documented on this module.
    pub prune: bool,
    /// Use the admissible oneshot heuristic (ignored for other models).
    pub astar: bool,
    /// Optional incumbent seed: a known upper bound on the optimal
    /// *scaled* cost (e.g. a greedy portfolio result). Successors with
    /// `g + h` strictly above it are never interned; the optimum is
    /// unchanged because the bound is realized by a concrete pebbling.
    pub upper_bound: Option<u64>,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            max_states: 8_000_000,
            prune: true,
            astar: true,
            upper_bound: None,
        }
    }
}

impl ExactConfig {
    /// Rejects degenerate values ([`SolveError::BadConfig`]). Run by
    /// every [`crate::api::Solver`] entry point before solving.
    pub fn validate(&self) -> Result<(), SolveError> {
        if self.max_states == 0 {
            return Err(SolveError::BadConfig {
                reason: "ExactConfig::max_states must be >= 1 (the root state is always interned)"
                    .into(),
            });
        }
        Ok(())
    }

    /// The prune cutoff seeded by [`ExactConfig::upper_bound`]:
    /// successors with `g + h ≥` this are dropped. It is `bound + 1` —
    /// states with `f == bound` must survive because the bound may be
    /// exactly optimal — and `u64::MAX` (no cutoff) when no bound is set
    /// or pruning is off (the brute-force reference mode must stay
    /// exhaustive). The search kernel ([`crate::search`]) starts from it
    /// for both expanders.
    #[inline]
    pub fn seed_cutoff(&self) -> u64 {
        match self.upper_bound {
            Some(b) if self.prune => b.saturating_add(1),
            _ => u64::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ExactSolver, Solution, Solver};
    use rbp_core::{engine, CostModel, Instance, ModelKind, SourceConvention};
    use rbp_graph::{generate, DagBuilder};

    /// The unseeded search under `cfg`: the kernel's own effort, with no
    /// greedy incumbent folded into the cutoff.
    fn solve_with(instance: &Instance, cfg: ExactConfig) -> Result<Solution, SolveError> {
        ExactSolver::with_config(cfg)
            .unseeded()
            .solve_default(instance)
    }

    fn solve(instance: &Instance) -> Solution {
        solve_with(instance, ExactConfig::default()).unwrap()
    }

    fn reference(instance: &Instance) -> Solution {
        ExactSolver::reference().solve_default(instance).unwrap()
    }

    fn check_optimal(instance: &Instance, expect_scaled: u64) {
        let rep = solve(instance);
        assert!(rep.is_optimal());
        // reported trace must be valid and match the reported cost
        let sim = engine::simulate(instance, &rep.trace).unwrap();
        assert_eq!(sim.cost, rep.cost, "trace cost mismatch");
        assert!(sim.peak_red <= instance.red_limit());
        assert_eq!(
            rep.cost.scaled(instance.model().epsilon()),
            expect_scaled as u128
        );
    }

    #[test]
    fn chain_is_free_with_two_pebbles_oneshot() {
        let inst = Instance::new(generate::chain(6), 2, CostModel::oneshot());
        check_optimal(&inst, 0);
    }

    #[test]
    fn chain_infeasible_with_one_pebble() {
        let inst = Instance::new(generate::chain(3), 1, CostModel::oneshot());
        assert!(matches!(
            ExactSolver::new().solve_default(&inst),
            Err(SolveError::Pebbling(_))
        ));
    }

    #[test]
    fn join_is_free_with_three_pebbles() {
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::oneshot());
        check_optimal(&inst, 0);
    }

    #[test]
    fn two_joins_sharing_inputs_tight_memory() {
        // 0,1 -> 3 ; 1,2 -> 4, oneshot, R = 3: whichever sink is computed
        // second fills all three slots with itself and its two inputs, so
        // the first sink must already be blue — exactly one transfer.
        let mut b = DagBuilder::new(5);
        b.add_edge(0, 3);
        b.add_edge(1, 3);
        b.add_edge(1, 4);
        b.add_edge(2, 4);
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::oneshot());
        check_optimal(&inst, 1);
    }

    #[test]
    fn nodel_chain_must_store_everything_but_last_two() {
        // nodel, chain of 5, R = 2: pebbles cannot be deleted, so nodes
        // 0, 1, 2 are each stored once when their slot is needed; the last
        // two nodes end red. Cost = n − R = 3 (the Section-4 lower bound,
        // tight here).
        let inst = Instance::new(generate::chain(5), 2, CostModel::nodel());
        check_optimal(&inst, 3);
    }

    #[test]
    fn base_chain_is_free_via_deletion() {
        let inst = Instance::new(generate::chain(5), 2, CostModel::base());
        check_optimal(&inst, 0);
    }

    #[test]
    fn compcost_chain_costs_epsilon_per_node() {
        // R=2 suffices; each node computed exactly once: scaled cost = n·num
        let inst = Instance::new(generate::chain(5), 2, CostModel::compcost());
        check_optimal(&inst, 5);
    }

    #[test]
    fn pruned_matches_reference_on_small_dags() {
        // each draw under both source conventions: blue-start sources
        // change the initial key, the source guard and the heuristic
        let mut rng = rand::thread_rng();
        for kind in ModelKind::ALL {
            for _ in 0..6 {
                let dag = generate::gnp_dag(6, 0.4, 2, &mut rng);
                let r = dag.max_indegree() + 1;
                for sources in [
                    SourceConvention::FreeCompute,
                    SourceConvention::InitiallyBlue,
                ] {
                    let inst = Instance::new(dag.clone(), r, CostModel::of_kind(kind))
                        .with_source_convention(sources);
                    let fast = solve(&inst);
                    let slow = reference(&inst);
                    assert_eq!(
                        fast.cost.scaled(inst.model().epsilon()),
                        slow.cost.scaled(inst.model().epsilon()),
                        "prune changed optimum for {kind} on {:?}",
                        inst
                    );
                }
            }
        }
    }

    #[test]
    fn astar_matches_dijkstra() {
        let mut rng = rand::thread_rng();
        for _ in 0..5 {
            let dag = generate::layered(3, 3, 2, &mut rng);
            let inst = Instance::new(dag, 3, CostModel::oneshot());
            let astar = solve_with(
                &inst,
                ExactConfig {
                    astar: true,
                    ..ExactConfig::default()
                },
            )
            .unwrap();
            let dij = solve_with(
                &inst,
                ExactConfig {
                    astar: false,
                    ..ExactConfig::default()
                },
            )
            .unwrap();
            assert_eq!(astar.cost, dij.cost);
            assert!(astar.states_expanded().unwrap() <= dij.states_expanded().unwrap() + 5);
        }
    }

    #[test]
    fn state_limit_respected() {
        let mut rng = rand::thread_rng();
        let dag = generate::layered(4, 4, 3, &mut rng);
        let inst = Instance::new(dag, 5, CostModel::oneshot());
        let res = solve_with(
            &inst,
            ExactConfig {
                max_states: 10,
                ..ExactConfig::default()
            },
        );
        assert_eq!(
            res.unwrap_err(),
            SolveError::StateLimitExceeded { limit: 10 }
        );
    }

    #[test]
    fn optimum_monotone_in_r() {
        let mut b = DagBuilder::new(6);
        b.add_edge(0, 3);
        b.add_edge(1, 3);
        b.add_edge(1, 4);
        b.add_edge(2, 4);
        b.add_edge(3, 5);
        b.add_edge(4, 5);
        let dag = b.build().unwrap();
        let mut prev = u128::MAX;
        for r in 3..=6 {
            let inst = Instance::new(dag.clone(), r, CostModel::oneshot());
            let rep = solve(&inst);
            let c = rep.cost.scaled(inst.model().epsilon());
            assert!(c <= prev, "opt must not increase with more red pebbles");
            prev = c;
        }
    }

    #[test]
    fn initially_blue_sources_cost_loads() {
        // chain of 2 with blue-start sources: must load the source (1),
        // then compute the sink: optimum 1.
        let inst = Instance::new(generate::chain(2), 2, CostModel::oneshot())
            .with_source_convention(SourceConvention::InitiallyBlue);
        check_optimal(&inst, 1);
    }

    #[test]
    fn require_blue_sinks_adds_final_store() {
        let inst = Instance::new(generate::chain(2), 2, CostModel::oneshot())
            .with_sink_convention(rbp_core::SinkConvention::RequireBlue);
        check_optimal(&inst, 1);
    }

    #[test]
    fn require_blue_matches_reference_across_models() {
        // the RequireBlue unsat-delta table is exercised against the
        // unpruned reference, like the main matrix does for AnyPebble
        let mut rng = rand::thread_rng();
        for kind in ModelKind::ALL {
            for _ in 0..3 {
                let dag = generate::gnp_dag(5, 0.4, 2, &mut rng);
                let r = dag.max_indegree() + 1;
                let inst = Instance::new(dag, r, CostModel::of_kind(kind))
                    .with_sink_convention(rbp_core::SinkConvention::RequireBlue);
                let fast = solve(&inst);
                let slow = reference(&inst);
                assert_eq!(
                    fast.cost.scaled(inst.model().epsilon()),
                    slow.cost.scaled(inst.model().epsilon()),
                    "prune changed RequireBlue optimum for {kind} on {:?}",
                    inst
                );
            }
        }
    }

    #[test]
    fn report_cost_always_derives_from_trace() {
        // the kernel reconstructs the trace once and derives the cost
        // from it; that cost must equal the engine's replay in every model
        let mut rng = rand::thread_rng();
        for kind in ModelKind::ALL {
            let dag = generate::gnp_dag(6, 0.35, 2, &mut rng);
            let r = dag.max_indegree() + 1;
            let inst = Instance::new(dag, r, CostModel::of_kind(kind));
            let out = crate::search::Search::new(
                &inst,
                crate::expand::Expander::new,
                ExactConfig::default(),
            )
            .run(&crate::api::SolveCtx::default())
            .unwrap();
            let sim = engine::simulate(&inst, &out.trace).unwrap();
            assert_eq!(sim.cost, out.cost, "cost must derive from the trace");
        }
    }

    #[test]
    fn incumbent_bound_preserves_optimum() {
        // seed with the loosest and the exactly-tight bound; the optimum
        // and a valid trace must survive both
        let mut rng = rand::thread_rng();
        for kind in ModelKind::ALL {
            for _ in 0..4 {
                let dag = generate::gnp_dag(6, 0.4, 2, &mut rng);
                let r = dag.max_indegree() + 1;
                let inst = Instance::new(dag, r, CostModel::of_kind(kind));
                let plain = solve(&inst);
                let opt = plain.cost.scaled(inst.model().epsilon()) as u64;
                for bound in [opt, opt + 1, opt + 100] {
                    let seeded = solve_with(
                        &inst,
                        ExactConfig {
                            upper_bound: Some(bound),
                            ..ExactConfig::default()
                        },
                    )
                    .unwrap();
                    assert_eq!(
                        seeded.cost.scaled(inst.model().epsilon()),
                        opt as u128,
                        "incumbent bound {bound} changed the optimum ({kind})"
                    );
                    assert!(seeded.states_seen() <= plain.states_seen());
                    let sim = engine::simulate(&inst, &seeded.trace).unwrap();
                    assert_eq!(sim.cost, seeded.cost);
                }
            }
        }
    }

    #[test]
    fn tight_incumbent_shrinks_the_search() {
        // on a positive-cost instance, seeding with the exact optimum
        // must intern strictly fewer states than the unseeded run; a
        // height-3 binary in-tree at R=3 forces spills under base (its
        // black-pebbling number is 4)
        let mut b = DagBuilder::new(15);
        for parent in 0..7 {
            b.add_edge(2 * parent + 1, parent);
            b.add_edge(2 * parent + 2, parent);
        }
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::base());
        let plain = solve(&inst);
        let opt = plain.cost.scaled(inst.model().epsilon()) as u64;
        let seeded = solve_with(
            &inst,
            ExactConfig {
                upper_bound: Some(opt),
                ..ExactConfig::default()
            },
        )
        .unwrap();
        assert_eq!(seeded.cost, plain.cost);
        assert!(
            seeded.states_seen() < plain.states_seen(),
            "tight bound should prune interns ({:?} vs {:?})",
            seeded.states_seen(),
            plain.states_seen()
        );
    }
}
