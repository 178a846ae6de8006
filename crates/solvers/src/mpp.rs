//! Multiprocessor pebbling solvers: exact Dijkstra over the product
//! state space and a greedy list scheduler.
//!
//! The multiprocessor game (`rbp_core::mpp`) runs `p` private fast
//! memories over one shared blue memory; a configuration is the tuple
//! of `p` per-processor red sets, the shared blue set, and (oneshot)
//! the global computed set. This module searches that product space:
//!
//! - [`solve_exact_mpp`]: plain Dijkstra — the A* heuristic and most
//!   oneshot prunes of the classic solver do not transfer soundly to
//!   per-processor ownership, so only the dominance prune "never delete
//!   a blue pebble" is kept (deleting shared blue frees no private
//!   capacity, so the smaller-blue state is dominated at equal cost).
//!   Edge weights are the instance's exact weight scales
//!   ([`Instance::cost_scales`]), so the optimum is the additive
//!   objective `transfers·comm + computes·comp` — the makespan is a
//!   reported statistic, never the search objective. The open list is
//!   the goal-directed `(g, unsatisfied sinks)` frontier shared with
//!   the classic solver (see "Hot-path layout" in [`crate::exact`]).
//! - [`solve_greedy_mpp`]: a topological list scheduler. Each
//!   non-source node is assigned to the processor holding most of its
//!   inputs red (ties: least accumulated weighted work, then lowest
//!   index); inputs travel through shared memory (store + load) when
//!   they live on another processor; eviction stores the victim with
//!   the fewest uncomputed successors (sinks preferred stored, dead
//!   values deleted where the model allows).
//!
//! Both are exposed through the registry as `exact@mpp[:P]` and
//! `greedy@mpp[:P]`, where the optional `P` overrides the instance's
//! own processor count ([`Instance::with_procs`]). At `p = 1` the exact
//! solver provably agrees with the classic single-processor optimum —
//! the state spaces are isomorphic — which the verify harness and the
//! perf snapshot pin continuously.

use crate::api::{upper_bound_quality, Quality, Solution, SolveCtx, Solver, Stats};
use crate::arena::{Frontier, StateArena, NO_STATE};
use crate::error::SolveError;
use crate::exact::ExactConfig;
use rbp_core::{bounds, engine, mpp, Cost, Instance, ModelKind, Move, Pebbling, SourceConvention};
use rbp_graph::bitset::{bit_clear, bit_get, bit_set};
use rbp_graph::NodeId;
use std::cmp::Reverse;

/// Budget polls happen every this many expansions (mirrors
/// `crate::exact`).
const BUDGET_POLL_INTERVAL: usize = 256;

/// Result of an exact multiprocessor solve.
#[derive(Clone, Debug)]
pub struct MppExactReport {
    /// Exact optimal cost (additive objective).
    pub cost: Cost,
    /// A processor-tagged optimal pebbling realizing that cost.
    pub trace: Pebbling,
    /// Number of states popped from the queue.
    pub states_expanded: usize,
    /// Number of distinct states interned.
    pub states_seen: usize,
}

/// Solves the multiprocessor instance exactly (default configuration).
pub fn solve_exact_mpp(instance: &Instance) -> Result<MppExactReport, SolveError> {
    solve_exact_mpp_budgeted(instance, ExactConfig::default(), &SolveCtx::default())
        .map(|(rep, _)| rep)
}

/// Budget-aware exact multiprocessor solve. Returns the report plus
/// whether it is proved optimal (`false` when the budget expired and
/// the report holds the best goal discovered so far).
pub(crate) fn solve_exact_mpp_budgeted(
    instance: &Instance,
    cfg: ExactConfig,
    ctx: &SolveCtx,
) -> Result<(MppExactReport, bool), SolveError> {
    cfg.validate()?;
    bounds::check_feasible(instance)?;

    let dag = instance.dag();
    let n = dag.n();
    let p = instance.procs().max(1);
    let wpn = rbp_graph::words_for(n);
    let oneshot = instance.model().kind() == ModelKind::Oneshot;
    // key layout: p red planes, then blue, then (oneshot) computed
    let key_words = (p + 1 + usize::from(oneshot)) * wpn;
    let blue_off = p * wpn;
    let comp_off = blue_off + wpn;
    let (comm, comp) = instance.cost_scales();
    let r_limit = instance.red_limit();
    let model = instance.model();
    let initially_blue = instance.source_convention() == SourceConvention::InitiallyBlue;
    let need_blue = instance.sink_convention() == rbp_core::SinkConvention::RequireBlue;
    let sinks: Vec<usize> = dag
        .nodes()
        .filter(|&v| dag.is_sink(v))
        .map(|v| v.index())
        .collect();

    let is_red_on = |key: &[u64], i: usize, v: usize| bit_get(&key[i * wpn..(i + 1) * wpn], v);
    let is_red_any =
        |key: &[u64], v: usize| (0..p).any(|i| bit_get(&key[i * wpn..(i + 1) * wpn], v));
    let is_blue = |key: &[u64], v: usize| bit_get(&key[blue_off..blue_off + wpn], v);
    let is_computed = |key: &[u64], v: usize| {
        if oneshot {
            bit_get(&key[comp_off..comp_off + wpn], v)
        } else {
            is_red_any(key, v) || is_blue(key, v)
        }
    };
    // sinks violating the finishing convention: the goal test (0) and
    // the frontier's tie-break
    let unsat = |key: &[u64]| {
        sinks
            .iter()
            .filter(|&&s| !is_blue(key, s) && (need_blue || !is_red_any(key, s)))
            .count() as u32
    };

    // initial configuration
    let mut init = vec![0u64; key_words];
    if initially_blue {
        for v in dag.sources() {
            bit_set(&mut init[blue_off..blue_off + wpn], v.index());
            if oneshot {
                bit_set(&mut init[comp_off..comp_off + wpn], v.index());
            }
        }
    }

    let mut arena = StateArena::new(key_words);
    let mut dist: Vec<u64> = Vec::new();
    let mut parent: Vec<(u32, Move, u16)> = Vec::new();
    let mut settled: Vec<bool> = Vec::new();
    let mut frontier = Frontier::new();
    let mut cutoff = cfg.seed_cutoff();
    let mut best_goal: (u64, u32) = (u64::MAX, NO_STATE);

    let (root, _) = arena.intern(&init);
    dist.push(0);
    parent.push((NO_STATE, Move::Delete(NodeId::new(0)), 0));
    settled.push(false);
    frontier.push(0, unsat(&init), root);

    let budget_live = !ctx.budget.is_unlimited();
    let mut expanded = 0usize;
    let mut key_buf: Vec<u64> = Vec::with_capacity(key_words);
    let mut scratch = vec![0u64; key_words];
    let mut red_counts = vec![0u32; p];

    let recover = |goal: u32, parent: &[(u32, Move, u16)]| {
        let mut rev: Vec<(Move, u16)> = Vec::new();
        let mut cur = goal;
        while parent[cur as usize].0 != NO_STATE {
            let (prev, mv, proc) = parent[cur as usize];
            rev.push((mv, proc));
            cur = prev;
        }
        let mut trace = Pebbling::with_capacity(rev.len());
        for (mv, proc) in rev.into_iter().rev() {
            trace.push_on(mv, proc);
        }
        trace
    };
    let report = |goal: u32,
                  expanded: usize,
                  arena: &StateArena,
                  parent: &[(u32, Move, u16)]|
     -> MppExactReport {
        let trace = recover(goal, parent);
        let stats = trace.stats();
        MppExactReport {
            cost: Cost {
                transfers: stats.transfers(),
                computes: stats.computes,
            },
            trace,
            states_expanded: expanded,
            states_seen: arena.len(),
        }
    };

    if budget_live && ctx.budget.exhausted(0) {
        return Err(SolveError::Interrupted);
    }

    while let Some((_, id)) = frontier.pop() {
        let idx = id as usize;
        if settled[idx] {
            continue;
        }
        settled[idx] = true;
        key_buf.clear();
        key_buf.extend_from_slice(arena.key(id));
        let d = dist[idx];
        expanded += 1;
        if budget_live
            && expanded.is_multiple_of(BUDGET_POLL_INTERVAL)
            && ctx.budget.exhausted(expanded as u64)
        {
            let (_, gid) = best_goal;
            if gid == NO_STATE {
                return Err(SolveError::Interrupted);
            }
            return Ok((report(gid, expanded, &arena, &parent), false));
        }
        if unsat(&key_buf) == 0 {
            return Ok((report(id, expanded, &arena, &parent), true));
        }

        for (i, count) in red_counts.iter_mut().enumerate() {
            *count = key_buf[i * wpn..(i + 1) * wpn]
                .iter()
                .map(|w| w.count_ones())
                .sum();
        }

        // every (move, processor) successor; relax-or-intern each child
        let mut relax = |succ: &[u64],
                         mv: Move,
                         proc: u16,
                         edge: u64,
                         arena: &mut StateArena|
         -> Result<(), SolveError> {
            let nd = d + edge;
            if nd >= cutoff {
                return Ok(());
            }
            let (cid, fresh) = arena.intern(succ);
            if fresh {
                dist.push(u64::MAX);
                parent.push((NO_STATE, Move::Delete(NodeId::new(0)), 0));
                settled.push(false);
                if arena.len() > cfg.max_states {
                    return Err(SolveError::StateLimitExceeded {
                        limit: cfg.max_states,
                    });
                }
            }
            let cidx = cid as usize;
            if !settled[cidx] && nd < dist[cidx] {
                dist[cidx] = nd;
                parent[cidx] = (id, mv, proc);
                let left = unsat(succ);
                frontier.push(nd, left, cid);
                if left == 0 && nd < best_goal.0 {
                    best_goal = (nd, cid);
                    if cfg.prune && nd < cutoff {
                        cutoff = nd;
                    }
                }
            }
            Ok(())
        };

        for v in 0..n {
            let node = NodeId::new(v);
            let blue = is_blue(&key_buf, v);
            let red_any = is_red_any(&key_buf, v);
            for (i, &red_count) in red_counts.iter().enumerate() {
                let plane = i * wpn;
                if is_red_on(&key_buf, i, v) {
                    // Store(i, v): own red -> shared blue
                    scratch.copy_from_slice(&key_buf);
                    bit_clear(&mut scratch[plane..plane + wpn], v);
                    bit_set(&mut scratch[blue_off..blue_off + wpn], v);
                    relax(&scratch, Move::Store(node), i as u16, comm, &mut arena)?;
                    // Delete(i, v) of the own red pebble
                    if model.allows_delete() {
                        scratch.copy_from_slice(&key_buf);
                        bit_clear(&mut scratch[plane..plane + wpn], v);
                        relax(&scratch, Move::Delete(node), i as u16, 0, &mut arena)?;
                    }
                    continue;
                }
                if blue && (red_count as usize) < r_limit {
                    // Load(i, v): shared blue -> own red
                    scratch.copy_from_slice(&key_buf);
                    bit_clear(&mut scratch[blue_off..blue_off + wpn], v);
                    bit_set(&mut scratch[plane..plane + wpn], v);
                    relax(&scratch, Move::Load(node), i as u16, comm, &mut arena)?;
                }
                // Compute(i, v): all inputs red on processor i
                let recompute_ok = model.allows_recompute() || !is_computed(&key_buf, v);
                let source_ok = !initially_blue || !dag.is_source(node);
                let computable = !red_any
                    && recompute_ok
                    && source_ok
                    && (red_count as usize) < r_limit
                    && dag
                        .pred_mask(node)
                        .iter()
                        .zip(&key_buf[plane..plane + wpn])
                        .all(|(m, r)| m & !r == 0);
                if computable {
                    scratch.copy_from_slice(&key_buf);
                    bit_clear(&mut scratch[blue_off..blue_off + wpn], v);
                    bit_set(&mut scratch[plane..plane + wpn], v);
                    if oneshot {
                        bit_set(&mut scratch[comp_off..comp_off + wpn], v);
                    }
                    relax(&scratch, Move::Compute(node), i as u16, comp, &mut arena)?;
                }
            }
            // Delete of the shared blue pebble: processor-independent,
            // emitted once (from processor 0) and only in unpruned mode —
            // dropping shared data frees no private capacity, so the
            // smaller-blue state is dominated at equal cost.
            if blue && model.allows_delete() && !cfg.prune {
                scratch.copy_from_slice(&key_buf);
                bit_clear(&mut scratch[blue_off..blue_off + wpn], v);
                relax(&scratch, Move::Delete(node), 0, 0, &mut arena)?;
            }
        }
    }
    Err(SolveError::NoPebblingFound)
}

/// The move-application callback the greedy helpers thread through:
/// `(state, trace, per-processor work, move, processor)`.
type ApplyMove<'a> = dyn FnMut(&mut mpp::MppState, &mut Pebbling, &mut [u128], Move, usize) -> Result<(), SolveError>
    + 'a;

/// Result of a greedy multiprocessor run.
#[derive(Clone, Debug)]
pub struct MppGreedyReport {
    /// The produced processor-tagged pebbling (engine-validated).
    pub trace: Pebbling,
    /// Its exact global cost.
    pub cost: Cost,
}

/// Greedy multiprocessor list scheduling: nodes in topological order,
/// each assigned to the processor already holding most of its inputs.
pub fn solve_greedy_mpp(instance: &Instance) -> Result<MppGreedyReport, SolveError> {
    bounds::check_feasible(instance)?;
    let dag = instance.dag();
    let n = dag.n();
    let p = instance.procs().max(1);
    let initially_blue = instance.source_convention() == SourceConvention::InitiallyBlue;
    let (comm, comp) = instance.cost_scales();
    let allows_delete = instance.model().allows_delete();

    let mut state = mpp::MppState::initial(instance);
    let mut trace = Pebbling::with_capacity(3 * n);
    // uses[v]: uncomputed successors (remaining demand for v's value)
    let mut uses: Vec<u32> = (0..n)
        .map(|v| dag.outdegree(NodeId::new(v)) as u32)
        .collect();
    let mut computed = vec![false; n];
    if initially_blue {
        for v in dag.sources() {
            computed[v.index()] = true;
        }
    }
    // weighted accumulated work per processor (load-balancing tiebreak)
    let mut work: Vec<u128> = vec![0; p];

    let mut apply = |state: &mut mpp::MppState,
                     trace: &mut Pebbling,
                     work: &mut [u128],
                     mv: Move,
                     proc: usize|
     -> Result<(), SolveError> {
        state
            .apply(mv, proc as u16, instance)
            .map_err(SolveError::Pebbling)?;
        trace.push_on(mv, proc as u16);
        work[proc] += match mv {
            Move::Load(_) | Move::Store(_) => comm as u128,
            Move::Compute(_) => comp as u128,
            Move::Delete(_) => 0,
        };
        Ok(())
    };

    // Frees one slot on processor `i` if its memory is full. Victims:
    // dead non-sinks first (deleted where legal, else stored), then the
    // live value with the fewest uncomputed successors (sinks last —
    // they are stored, never deleted). `pinned` values never move.
    let ensure_slot = |state: &mut mpp::MppState,
                       trace: &mut Pebbling,
                       work: &mut [u128],
                       apply: &mut ApplyMove<'_>,
                       uses: &[u32],
                       i: usize,
                       pinned: &[NodeId]|
     -> Result<(), SolveError> {
        while state.red_count_of(i) >= instance.red_limit() {
            let is_pinned = |v: usize| pinned.iter().any(|u| u.index() == v);
            let mut dead: Option<usize> = None;
            let mut sink: Option<usize> = None;
            let mut live: Option<(u32, usize)> = None;
            for (v, &demand) in uses.iter().enumerate() {
                if !state.is_red_on(i, NodeId::new(v)) || is_pinned(v) {
                    continue;
                }
                if dag.is_sink(NodeId::new(v)) {
                    sink.get_or_insert(v);
                } else if demand == 0 {
                    dead.get_or_insert(v);
                } else if live.is_none_or(|(u, w)| (demand, v) < (u, w)) {
                    live = Some((demand, v));
                }
            }
            let (victim, dispose) = if let Some(v) = dead {
                (v, allows_delete)
            } else if let Some((_, v)) = live {
                (v, false)
            } else if let Some(v) = sink {
                (v, false)
            } else {
                unreachable!("eviction with all pebbles pinned despite feasibility check");
            };
            let node = NodeId::new(victim);
            let mv = if dispose {
                Move::Delete(node)
            } else {
                Move::Store(node)
            };
            apply(state, trace, work, mv, i)?;
        }
        Ok(())
    };

    for v in rbp_graph::topological_order(dag) {
        if dag.is_source(v) {
            continue; // sources are computed on demand, on the consumer
        }
        let preds = dag.preds(v);
        // processor choice: most inputs already red there, then least
        // accumulated weighted work, then lowest index
        let i = (0..p)
            .min_by_key(|&i| {
                let red_here = preds.iter().filter(|&&u| state.is_red_on(i, u)).count();
                (Reverse(red_here), work[i], i)
            })
            .expect("p >= 1");
        // acquire inputs on processor i
        for &u in preds {
            if state.is_red_on(i, u) {
                continue;
            }
            if let Some(j) = (0..p).find(|&j| state.is_red_on(j, u)) {
                // ship through shared memory: store on the holder...
                apply(&mut state, &mut trace, &mut work, Move::Store(u), j)?;
            }
            ensure_slot(
                &mut state, &mut trace, &mut work, &mut apply, &uses, i, preds,
            )?;
            if state.is_blue(u) {
                apply(&mut state, &mut trace, &mut work, Move::Load(u), i)?;
            } else {
                // an unpebbled input is an uncomputed source
                debug_assert!(
                    dag.is_source(u) && !computed[u.index()],
                    "input v{} lost its pebble",
                    u.index()
                );
                apply(&mut state, &mut trace, &mut work, Move::Compute(u), i)?;
                computed[u.index()] = true;
            }
        }
        ensure_slot(
            &mut state, &mut trace, &mut work, &mut apply, &uses, i, preds,
        )?;
        apply(&mut state, &mut trace, &mut work, Move::Compute(v), i)?;
        computed[v.index()] = true;
        for &u in preds {
            uses[u.index()] -= 1;
        }
    }

    // isolated source-sinks are never demanded but still need a pebble
    if !initially_blue {
        for v in dag.nodes() {
            if dag.is_source(v) && dag.is_sink(v) && !computed[v.index()] {
                let i = (0..p).min_by_key(|&i| (work[i], i)).expect("p >= 1");
                ensure_slot(&mut state, &mut trace, &mut work, &mut apply, &uses, i, &[])?;
                apply(&mut state, &mut trace, &mut work, Move::Compute(v), i)?;
                computed[v.index()] = true;
            }
        }
    }

    // under RequireBlue, sinks that finished red must be written out by
    // whichever processor holds them
    if instance.sink_convention() == rbp_core::SinkConvention::RequireBlue {
        for v in dag.nodes() {
            if dag.is_sink(v) && !state.is_blue(v) {
                if let Some(j) = (0..p).find(|&j| state.is_red_on(j, v)) {
                    apply(&mut state, &mut trace, &mut work, Move::Store(v), j)?;
                }
            }
        }
    }

    let rep = engine::simulate(instance, &trace).map_err(|e| SolveError::Pebbling(e.error))?;
    Ok(MppGreedyReport {
        trace,
        cost: rep.cost,
    })
}

// ---------------------------------------------------------------------
// Solver-trait adapters
// ---------------------------------------------------------------------

/// The exact multiprocessor solver behind the [`Solver`] trait:
/// registry family `exact@mpp[:P]`. The optional `P` overrides the
/// instance's processor count; without it the instance's own `p` (1 for
/// classic instances) is searched.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactMppSolver {
    /// Processor-count override (`None`: the instance's own `p`).
    pub procs: Option<u32>,
    /// The search knobs shared with the classic exact solver
    /// (`astar` is ignored — no admissible product-space heuristic).
    pub cfg: ExactConfig,
}

impl ExactMppSolver {
    /// Default configuration, no processor override.
    pub fn new() -> Self {
        ExactMppSolver::default()
    }

    /// Overrides the processor count (`exact@mpp:P`).
    pub fn with_procs(p: u32) -> Self {
        ExactMppSolver {
            procs: Some(p),
            cfg: ExactConfig::default(),
        }
    }

    fn derived(&self, instance: &Instance) -> Instance {
        match self.procs {
            Some(p) => instance.with_procs(p),
            None => instance.clone(),
        }
    }
}

impl Solver for ExactMppSolver {
    fn name(&self) -> &str {
        "exact@mpp"
    }

    fn spec(&self) -> String {
        match self.procs {
            Some(p) => format!("exact@mpp:{p}"),
            None => "exact@mpp".to_string(),
        }
    }

    fn solve(&self, instance: &Instance, ctx: &SolveCtx) -> Result<Solution, SolveError> {
        let inst = self.derived(instance);
        let mut cfg = self.cfg;
        cfg.validate()?;
        bounds::check_feasible(&inst)?;
        // seed the incumbent (and the degradation fallback) greedily
        let seed = match solve_greedy_mpp(&inst) {
            Ok(rep) => {
                let ub = inst.scaled_cost(&rep.cost);
                if cfg.prune && u64::try_from(ub).is_ok() {
                    cfg.upper_bound = Some(cfg.upper_bound.map_or(ub as u64, |b| b.min(ub as u64)));
                }
                Some(rep)
            }
            Err(_) => None,
        };
        match solve_exact_mpp_budgeted(&inst, cfg, ctx) {
            Ok((rep, optimal)) => {
                let mut stats = mpp_stats(&inst, &rep.trace);
                stats.set("states_expanded", rep.states_expanded as u64);
                stats.set("states_seen", rep.states_seen as u64);
                let quality = if optimal {
                    Quality::Optimal
                } else {
                    stats.set("degraded", 1);
                    upper_bound_quality(&inst, rep.cost)
                };
                Solution::validated(&inst, rep.trace, quality, stats)
            }
            Err(SolveError::Interrupted) | Err(SolveError::StateLimitExceeded { .. })
                if seed.is_some() =>
            {
                let rep = seed.expect("guarded");
                let mut stats = mpp_stats(&inst, &rep.trace);
                stats.set("degraded", 1);
                let quality = upper_bound_quality(&inst, rep.cost);
                Solution::validated(&inst, rep.trace, quality, stats)
            }
            Err(e) => Err(e),
        }
    }
}

/// The greedy multiprocessor list scheduler behind the [`Solver`]
/// trait: registry family `greedy@mpp[:P]`.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyMppSolver {
    /// Processor-count override (`None`: the instance's own `p`).
    pub procs: Option<u32>,
}

impl GreedyMppSolver {
    /// No processor override.
    pub fn new() -> Self {
        GreedyMppSolver::default()
    }

    /// Overrides the processor count (`greedy@mpp:P`).
    pub fn with_procs(p: u32) -> Self {
        GreedyMppSolver { procs: Some(p) }
    }
}

impl Solver for GreedyMppSolver {
    fn name(&self) -> &str {
        "greedy@mpp"
    }

    fn spec(&self) -> String {
        match self.procs {
            Some(p) => format!("greedy@mpp:{p}"),
            None => "greedy@mpp".to_string(),
        }
    }

    fn solve(&self, instance: &Instance, _ctx: &SolveCtx) -> Result<Solution, SolveError> {
        let inst = match self.procs {
            Some(p) => instance.with_procs(p),
            None => instance.clone(),
        };
        let rep = solve_greedy_mpp(&inst)?;
        let stats = mpp_stats(&inst, &rep.trace);
        let quality = upper_bound_quality(&inst, rep.cost);
        Solution::validated(&inst, rep.trace, quality, stats)
    }
}

/// The stats every MPP solver reports: the effective processor count
/// and the makespan statistic (max over processors of own weighted
/// work — reported, never optimized).
fn mpp_stats(instance: &Instance, trace: &Pebbling) -> Stats {
    let mut stats = Stats::new();
    stats.set("procs", instance.procs() as u64);
    if let Ok(rep) = mpp::simulate_mpp(instance, trace) {
        stats.set(
            "mpp_time_scaled",
            u64::try_from(rep.time_scaled(instance)).unwrap_or(u64::MAX),
        );
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::solve_exact;
    use rbp_core::{CostModel, MppDim, Ratio, SinkConvention};
    use rbp_graph::{generate, DagBuilder};

    #[test]
    fn p1_exact_matches_the_classic_optimum() {
        let mut rng = rand::thread_rng();
        for kind in ModelKind::ALL {
            for _ in 0..3 {
                let dag = generate::gnp_dag(5, 0.4, 2, &mut rng);
                let r = dag.max_indegree() + 1;
                let inst = Instance::new(dag, r, CostModel::of_kind(kind));
                let classic = solve_exact(&inst).unwrap();
                let mpp1 = solve_exact_mpp(&inst.with_procs(1)).unwrap();
                assert_eq!(
                    inst.scaled_cost(&mpp1.cost),
                    inst.scaled_cost(&classic.cost),
                    "exact@mpp:1 must equal the classic optimum ({kind})"
                );
            }
        }
    }

    #[test]
    fn optimum_is_monotone_non_increasing_in_p() {
        let mut rng = rand::thread_rng();
        for _ in 0..2 {
            let dag = generate::gnp_dag(5, 0.4, 2, &mut rng);
            let r = dag.max_indegree() + 1;
            let inst = Instance::new(dag, r, CostModel::base());
            let mut prev = u128::MAX;
            for p in [1u32, 2, 4] {
                let lifted = inst.with_procs(p);
                let rep = solve_exact_mpp(&lifted).unwrap();
                let c = lifted.scaled_cost(&rep.cost);
                assert!(c <= prev, "optimum rose from p to {p}: {prev} -> {c}");
                prev = c;
            }
        }
    }

    #[test]
    fn more_processors_can_strictly_help() {
        // Two independent 3-chains in nodel with R = 2. One processor
        // must store n - R = 4 values; two processors run one chain
        // each and store only one value per chain.
        let mut b = DagBuilder::new(6);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 4);
        b.add_edge(4, 5);
        let inst = Instance::new(b.build().unwrap(), 2, CostModel::nodel());
        let p1 = solve_exact_mpp(&inst.with_procs(1)).unwrap();
        let p2 = solve_exact_mpp(&inst.with_procs(2)).unwrap();
        let c1 = inst.with_procs(1).scaled_cost(&p1.cost);
        let c2 = inst.with_procs(2).scaled_cost(&p2.cost);
        assert_eq!(c1, 4, "classic nodel optimum stores n - R values");
        assert_eq!(c2, 2, "p = 2 stores one value per chain");
    }

    #[test]
    fn exact_trace_certifies_and_respects_budgets() {
        let mut b = DagBuilder::new(5);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        b.add_edge(1, 4);
        b.add_edge(3, 4);
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::base()).with_procs(2);
        let rep = solve_exact_mpp(&inst).unwrap();
        let sim = engine::simulate(&inst, &rep.trace).unwrap();
        assert_eq!(sim.cost, rep.cost);
        let cert = rbp_core::certify(&inst, &rep.trace).unwrap();
        assert_eq!(cert.scaled_cost, inst.scaled_cost(&rep.cost));
    }

    #[test]
    fn weights_steer_the_exact_optimum() {
        // compcost chain with compute weight far above communication:
        // the solver must still compute each node once (no recompute
        // tricks exist on a chain), but the scaled objective reflects
        // the weights exactly
        let inst = Instance::new(generate::chain(3), 2, CostModel::base()).with_mpp(MppDim {
            p: 2,
            comm: Ratio::new(5, 1),
            comp: Ratio::new(1, 1),
        });
        let rep = solve_exact_mpp(&inst).unwrap();
        // chain fits in one processor's 2 slots with deletion: no
        // transfers, 3 computes at weight 1
        assert_eq!(inst.scaled_cost(&rep.cost), 3);
        assert_eq!(rep.cost.transfers, 0);
    }

    #[test]
    fn greedy_dominated_by_exact_and_valid_everywhere() {
        let mut rng = rand::thread_rng();
        for kind in ModelKind::ALL {
            let dag = generate::gnp_dag(5, 0.4, 2, &mut rng);
            let r = dag.max_indegree() + 1;
            let inst = Instance::new(dag, r, CostModel::of_kind(kind)).with_procs(2);
            let greedy = solve_greedy_mpp(&inst).unwrap();
            let exact = solve_exact_mpp(&inst).unwrap();
            assert!(
                inst.scaled_cost(&exact.cost) <= inst.scaled_cost(&greedy.cost),
                "greedy beat exact under {kind}"
            );
            // the greedy trace is valid under conventions too
            let conv = Instance::new(generate::chain(4), 2, CostModel::of_kind(kind))
                .with_source_convention(SourceConvention::InitiallyBlue)
                .with_sink_convention(SinkConvention::RequireBlue)
                .with_procs(2);
            let rep = solve_greedy_mpp(&conv).unwrap();
            assert!(engine::simulate(&conv, &rep.trace).is_ok(), "{kind}");
        }
    }

    #[test]
    fn greedy_spreads_work_across_processors() {
        // two independent 2-chains: the load-balancing tiebreak must
        // put one on each processor — under unit compute weight, or the
        // accumulated work stays zero and everything ties to processor 0
        let mut b = DagBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::base()).with_mpp(MppDim {
            p: 2,
            comm: Ratio::new(1, 1),
            comp: Ratio::new(1, 1),
        });
        let rep = solve_greedy_mpp(&inst).unwrap();
        let sim = mpp::simulate_mpp(&inst, &rep.trace).unwrap();
        assert!(
            sim.per_proc.iter().all(|c| c.computes == 2),
            "work not spread: {:?}",
            sim.per_proc
        );
        assert_eq!(sim.cost.transfers, 0, "independent chains need no traffic");
    }

    #[test]
    fn solver_adapters_report_procs_and_makespan() {
        let inst = Instance::new(generate::chain(4), 2, CostModel::base());
        let sol = ExactMppSolver::with_procs(2).solve_default(&inst).unwrap();
        assert!(sol.is_optimal());
        assert_eq!(sol.stats.get("procs"), Some(2));
        assert!(sol.stats.get("mpp_time_scaled").is_some());
        let sol = GreedyMppSolver::with_procs(2).solve_default(&inst).unwrap();
        assert_eq!(sol.stats.get("procs"), Some(2));
    }

    #[test]
    fn mpp1_solution_on_classic_instance_is_untagged() {
        // exact@mpp:1 produces a classic single-processor schedule —
        // its trace must not claim processor tags
        let inst = Instance::new(generate::chain(4), 2, CostModel::oneshot());
        let sol = ExactMppSolver::with_procs(1).solve_default(&inst).unwrap();
        assert!(!sol.trace.has_proc_tags());
        assert!(sol.is_optimal());
    }

    #[test]
    fn makespan_statistic_reflects_the_tradeoff() {
        // the two-2-chain join from the core trade-off test: greedy on
        // p = 2 with unit weights must beat the serial makespan
        let mut b = DagBuilder::new(5);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        b.add_edge(1, 4);
        b.add_edge(3, 4);
        let dag = b.build().unwrap();
        let weights = |p| MppDim {
            p,
            comm: Ratio::new(1, 1),
            comp: Ratio::new(1, 1),
        };
        let base = Instance::new(dag, 3, CostModel::base());
        let serial = GreedyMppSolver::new()
            .solve_default(&base.with_mpp(weights(1)))
            .unwrap();
        let par = GreedyMppSolver::new()
            .solve_default(&base.with_mpp(weights(2)))
            .unwrap();
        let t1 = serial.stats.get("mpp_time_scaled").unwrap();
        let t2 = par.stats.get("mpp_time_scaled").unwrap();
        assert!(t2 < t1, "parallel makespan {t2} must beat serial {t1}");
        assert!(
            par.cost.transfers > serial.cost.transfers,
            "communication must rise with p"
        );
    }
}
