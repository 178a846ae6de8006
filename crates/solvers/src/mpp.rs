//! Multiprocessor pebbling solvers: exact Dijkstra over the product
//! state space and a greedy list scheduler.
//!
//! The multiprocessor game (`rbp_core::mpp`) runs `p` private fast
//! memories over one shared blue memory; a configuration is the tuple
//! of `p` per-processor red sets, the shared blue set, and (oneshot)
//! the global computed set. This module searches that product space:
//!
//! - [`ExactMppSolver`]: the shared search kernel ([`crate::search`])
//!   over the multiprocessor expander (`MppExpander`) — plain Dijkstra:
//!   the A* heuristic and most oneshot prunes of the classic solver do
//!   not transfer soundly to per-processor ownership, so only the
//!   dominance prune "never delete a blue pebble" is kept (deleting
//!   shared blue frees no private capacity, so the smaller-blue state is
//!   dominated at equal cost). Edge weights are the instance's exact
//!   weight scales ([`Instance::cost_scales`]), so the optimum is the
//!   additive objective `transfers·comm + computes·comp` — the makespan
//!   is a reported statistic, never the search objective. Everything
//!   else is the kernel's, shared with the classic solver: the
//!   goal-directed `(g, unsatisfied sinks)` frontier, the greedy-seeded
//!   incumbent cutoff, the proved-optimal exit at the structural floor
//!   ([`bounds::best_lower_bound`]), budget degradation, and
//!   [`crate::api::Progress`] reports.
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

use crate::api::{upper_bound_quality, Solution, SolveCtx, Solver, Stats};
use crate::error::SolveError;
use crate::exact::ExactConfig;
use crate::search::{solve_seeded, Expand, Meta};
use rbp_core::{bounds, engine, mpp, Cost, Instance, ModelKind, Move, Pebbling, SourceConvention};
use rbp_graph::bitset::{bit_clear, bit_get, bit_set};
use rbp_graph::NodeId;
use std::cmp::Reverse;

/// The multiprocessor move generator: the [`Expand`] implementation the
/// search kernel runs for `exact@mpp`.
///
/// Key layout: `p` red planes, then the shared blue set, then (oneshot)
/// the global computed set, `wpn` words each. Every move is emitted once
/// per processor that can make it, tagged with that processor; edge
/// weights are the instance's exact weight scales. There is no
/// heuristic (`heur` is always 0), and the only prune is "never delete a
/// blue pebble".
#[derive(Clone)]
pub(crate) struct MppExpander<'a> {
    instance: &'a Instance,
    n: usize,
    p: usize,
    wpn: usize,
    /// Start of the blue plane: the red planes come first, the computed
    /// plane (oneshot) last.
    blue_off: usize,
    oneshot: bool,
    prune: bool,
    initially_blue: bool,
    /// Whether sinks must end blue ([`rbp_core::SinkConvention`]).
    need_blue: bool,
    comm: u64,
    comp: u64,
    sinks: Vec<bool>,
    // reusable scratch (no per-expansion allocation)
    scratch: Vec<u64>,
    red_counts: Vec<u32>,
}

impl<'a> MppExpander<'a> {
    /// Builds the move generator for `instance` (at its own `p`);
    /// `cfg.prune` drops the deletion of blue pebbles.
    pub(crate) fn new(instance: &'a Instance, cfg: &ExactConfig) -> Self {
        let dag = instance.dag();
        let n = dag.n();
        let p = instance.procs().max(1);
        let wpn = rbp_graph::words_for(n);
        let oneshot = instance.model().kind() == ModelKind::Oneshot;
        let key_words = (p + 1 + usize::from(oneshot)) * wpn;
        let (comm, comp) = instance.cost_scales();
        MppExpander {
            instance,
            n,
            p,
            wpn,
            blue_off: p * wpn,
            oneshot,
            prune: cfg.prune,
            initially_blue: instance.source_convention() == SourceConvention::InitiallyBlue,
            need_blue: instance.sink_convention() == rbp_core::SinkConvention::RequireBlue,
            comm,
            comp,
            sinks: dag.nodes().map(|v| dag.is_sink(v)).collect(),
            scratch: vec![0; key_words],
            red_counts: vec![0; p],
        }
    }

    #[inline]
    fn plane<'k>(&self, key: &'k [u64], i: usize) -> &'k [u64] {
        &key[i * self.wpn..(i + 1) * self.wpn]
    }

    #[inline]
    fn is_red_any(&self, key: &[u64], v: usize) -> bool {
        (0..self.p).any(|i| bit_get(self.plane(key, i), v))
    }

    #[inline]
    fn is_blue(&self, key: &[u64], v: usize) -> bool {
        bit_get(&key[self.blue_off..self.blue_off + self.wpn], v)
    }

    #[inline]
    fn is_computed(&self, key: &[u64], v: usize) -> bool {
        if self.oneshot {
            bit_get(&key[self.blue_off + self.wpn..], v)
        } else {
            self.is_red_any(key, v) || self.is_blue(key, v)
        }
    }

    /// Whether `v` is a sink violating the finishing convention in `key`.
    #[inline]
    fn unsat_sink(&self, key: &[u64], v: usize) -> bool {
        self.sinks[v] && !self.is_blue(key, v) && (self.need_blue || !self.is_red_any(key, v))
    }

    /// The metadata of the successor in `self.scratch`, reached from
    /// `(key, meta)` by a move on `v` that changes the red count by
    /// `d_red`: only `v`'s own pebbles moved, so only `v` can flip its
    /// sink's status.
    #[inline]
    fn child(&self, key: &[u64], meta: Meta, v: usize, d_red: i32) -> Meta {
        let before = i32::from(self.unsat_sink(key, v));
        let after = i32::from(self.unsat_sink(&self.scratch, v));
        Meta {
            red: (meta.red as i32 + d_red) as u32,
            unsat: meta.bump_unsat(after - before),
            heur: 0,
        }
    }
}

impl Expand for MppExpander<'_> {
    fn key_words(&self) -> usize {
        self.scratch.len()
    }

    fn initial_key(&self) -> Vec<u64> {
        let mut init = vec![0u64; self.scratch.len()];
        if self.initially_blue {
            let (blue, computed) = init[self.blue_off..].split_at_mut(self.wpn);
            for v in self.instance.dag().sources() {
                bit_set(blue, v.index());
                if self.oneshot {
                    bit_set(computed, v.index());
                }
            }
        }
        init
    }

    fn meta_scan(&self, key: &[u64]) -> Meta {
        Meta {
            red: key[..self.blue_off].iter().map(|w| w.count_ones()).sum(),
            unsat: (0..self.n).filter(|&v| self.unsat_sink(key, v)).count() as u32,
            heur: 0,
        }
    }

    fn expand<F>(&mut self, key: &[u64], meta: Meta, mut emit: F) -> Result<(), SolveError>
    where
        F: FnMut(&[u64], Move, u16, u64, Meta) -> Result<(), SolveError>,
    {
        let dag = self.instance.dag();
        let model = self.instance.model();
        let r_limit = self.instance.red_limit();
        let (wpn, blue_off) = (self.wpn, self.blue_off);
        let comp_off = blue_off + wpn;
        for i in 0..self.p {
            self.red_counts[i] = self.plane(key, i).iter().map(|w| w.count_ones()).sum();
        }
        for v in 0..self.n {
            let node = NodeId::new(v);
            let blue = self.is_blue(key, v);
            let red_any = self.is_red_any(key, v);
            for i in 0..self.p {
                let plane = i * wpn;
                let proc = i as u16;
                let red_count = self.red_counts[i] as usize;
                if bit_get(self.plane(key, i), v) {
                    // Store(i, v): own red -> shared blue
                    self.scratch.copy_from_slice(key);
                    bit_clear(&mut self.scratch[plane..plane + wpn], v);
                    bit_set(&mut self.scratch[blue_off..blue_off + wpn], v);
                    let child = self.child(key, meta, v, -1);
                    emit(&self.scratch, Move::Store(node), proc, self.comm, child)?;
                    // Delete(i, v) of the own red pebble
                    if model.allows_delete() {
                        self.scratch.copy_from_slice(key);
                        bit_clear(&mut self.scratch[plane..plane + wpn], v);
                        let child = self.child(key, meta, v, -1);
                        emit(&self.scratch, Move::Delete(node), proc, 0, child)?;
                    }
                    continue;
                }
                if blue && red_count < r_limit {
                    // Load(i, v): shared blue -> own red
                    self.scratch.copy_from_slice(key);
                    bit_clear(&mut self.scratch[blue_off..blue_off + wpn], v);
                    bit_set(&mut self.scratch[plane..plane + wpn], v);
                    let child = self.child(key, meta, v, 1);
                    emit(&self.scratch, Move::Load(node), proc, self.comm, child)?;
                }
                // Compute(i, v): all inputs red on processor i
                let recompute_ok = model.allows_recompute() || !self.is_computed(key, v);
                let source_ok = !self.initially_blue || !dag.is_source(node);
                let computable = !red_any
                    && recompute_ok
                    && source_ok
                    && red_count < r_limit
                    && dag
                        .pred_mask(node)
                        .iter()
                        .zip(self.plane(key, i))
                        .all(|(m, r)| m & !r == 0);
                if computable {
                    self.scratch.copy_from_slice(key);
                    bit_clear(&mut self.scratch[blue_off..blue_off + wpn], v);
                    bit_set(&mut self.scratch[plane..plane + wpn], v);
                    if self.oneshot {
                        bit_set(&mut self.scratch[comp_off..comp_off + wpn], v);
                    }
                    let child = self.child(key, meta, v, 1);
                    emit(&self.scratch, Move::Compute(node), proc, self.comp, child)?;
                }
            }
            // Delete of the shared blue pebble: processor-independent,
            // emitted once (from processor 0) and only in unpruned mode —
            // dropping shared data frees no private capacity, so the
            // smaller-blue state is dominated at equal cost.
            if blue && model.allows_delete() && !self.prune {
                self.scratch.copy_from_slice(key);
                bit_clear(&mut self.scratch[blue_off..blue_off + wpn], v);
                let child = self.child(key, meta, v, 0);
                emit(&self.scratch, Move::Delete(node), 0, 0, child)?;
            }
        }
        Ok(())
    }
}

/// Greedy multiprocessor list scheduling: nodes in topological order,
/// each assigned to the processor already holding most of its inputs.
/// Returns the processor-tagged pebbling (engine-validated) and its
/// exact global cost.
pub fn solve_greedy_mpp(instance: &Instance) -> Result<(Pebbling, Cost), SolveError> {
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

    let apply = |state: &mut mpp::MppState,
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
            ensure_slot(&mut state, &mut trace, &mut work, &uses, i, preds)?;
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
        ensure_slot(&mut state, &mut trace, &mut work, &uses, i, preds)?;
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
                ensure_slot(&mut state, &mut trace, &mut work, &uses, i, &[])?;
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
    Ok((trace, rep.cost))
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
}

/// `instance` at the processor count a `[:P]` override asks for.
fn with_procs_override(instance: &Instance, procs: Option<u32>) -> Instance {
    procs.map_or_else(|| instance.clone(), |p| instance.with_procs(p))
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
        let inst = with_procs_override(instance, self.procs);
        // the greedy schedule seeds the incumbent and the degradation
        // fallback
        let seed = || solve_greedy_mpp(&inst).ok();
        solve_seeded(&inst, MppExpander::new, self.cfg, ctx, seed, |trace| {
            mpp_stats(&inst, trace)
        })
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
        let inst = with_procs_override(instance, self.procs);
        let (trace, cost) = solve_greedy_mpp(&inst)?;
        let stats = mpp_stats(&inst, &trace);
        let quality = upper_bound_quality(&inst, cost);
        Solution::validated(&inst, trace, quality, stats)
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
    use crate::api::ExactSolver;
    use rbp_core::{CostModel, MppDim, Ratio, SinkConvention};
    use rbp_graph::{generate, DagBuilder};

    fn exact_mpp(instance: &Instance) -> Solution {
        ExactMppSolver::new().solve_default(instance).unwrap()
    }

    #[test]
    fn p1_exact_matches_the_classic_optimum() {
        // at p = 1 the two expanders span isomorphic state spaces, so
        // the kernel must reach the same optimum through either — under
        // every source and sink convention, and under the instance's own
        // weights (expensive computes make recomputation, free at ε = 0,
        // a real cost)
        let own_weights = MppDim {
            p: 1,
            comm: Ratio::new(1, 1),
            comp: Ratio::new(5, 1),
        };
        let mut rng = rand::thread_rng();
        for kind in ModelKind::ALL {
            for _ in 0..3 {
                let dag = generate::gnp_dag(5, 0.4, 2, &mut rng);
                let r = dag.max_indegree() + 1;
                let plain = Instance::new(dag, r, CostModel::of_kind(kind));
                for inst in [
                    plain.clone(),
                    plain.with_source_convention(SourceConvention::InitiallyBlue),
                    plain.with_sink_convention(SinkConvention::RequireBlue),
                    plain.with_mpp(own_weights),
                ] {
                    let classic = ExactSolver::new().solve_default(&inst).unwrap();
                    let mpp1 = exact_mpp(&inst.with_procs(1));
                    assert!(classic.is_optimal() && mpp1.is_optimal());
                    assert_eq!(
                        inst.scaled_cost(&mpp1.cost),
                        inst.scaled_cost(&classic.cost),
                        "exact@mpp:1 must equal the classic optimum ({kind}, {:?}/{:?}, {:?})",
                        inst.source_convention(),
                        inst.sink_convention(),
                        inst.mpp()
                    );
                }
            }
        }
    }

    #[test]
    fn classic_exact_optimizes_custom_weights_at_one_processor() {
        // a one-processor base instance with its own weights (comm 1,
        // comp 5): 1, 2 → 4; 0, 4 → 5; node 3 isolated. With R = 3 every
        // node can be computed once with no I/O, so the optimum is the
        // every-node-computed-once floor, 6 × 5 = 30. Edges weighted by
        // ε instead treat recomputation as free and return 40, tagged
        // optimal.
        let mut b = DagBuilder::new(6);
        for (u, v) in [(1, 4), (2, 4), (0, 5), (4, 5)] {
            b.add_edge(u, v);
        }
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::base()).with_mpp(MppDim {
            p: 1,
            comm: Ratio::new(1, 1),
            comp: Ratio::new(5, 1),
        });
        let classic = ExactSolver::new().solve_default(&inst).unwrap();
        let reference = ExactSolver::reference().solve_default(&inst).unwrap();
        let mpp1 = exact_mpp(&inst);
        for sol in [&classic, &reference, &mpp1] {
            assert!(sol.is_optimal());
            assert_eq!(inst.scaled_cost(&sol.cost), 30);
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
                let rep = exact_mpp(&lifted);
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
        let p1 = exact_mpp(&inst.with_procs(1));
        let p2 = exact_mpp(&inst.with_procs(2));
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
        let rep = exact_mpp(&inst);
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
        let rep = exact_mpp(&inst);
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
            let (_, greedy) = solve_greedy_mpp(&inst).unwrap();
            let exact = exact_mpp(&inst);
            assert!(
                inst.scaled_cost(&exact.cost) <= inst.scaled_cost(&greedy),
                "greedy beat exact under {kind}"
            );
            // the greedy trace is valid under conventions too
            let conv = Instance::new(generate::chain(4), 2, CostModel::of_kind(kind))
                .with_source_convention(SourceConvention::InitiallyBlue)
                .with_sink_convention(SinkConvention::RequireBlue)
                .with_procs(2);
            let (trace, _) = solve_greedy_mpp(&conv).unwrap();
            assert!(engine::simulate(&conv, &trace).is_ok(), "{kind}");
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
        let (trace, _) = solve_greedy_mpp(&inst).unwrap();
        let sim = mpp::simulate_mpp(&inst, &trace).unwrap();
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
