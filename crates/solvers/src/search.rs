//! The best-first search kernel behind both exact solvers.
//!
//! Every exact answer in this crate comes from one Dijkstra/A* loop over
//! packed configuration keys. What differs between the classic game
//! ([`crate::expand`]) and the multiprocessor game ([`crate::mpp`]) is
//! only the move generator, so that is the one thing abstracted: an
//! `Expand` implementation supplies the key width, the initial key,
//! a metadata rescan, the successors of a key, and optionally a
//! dead-state test. This module owns everything else: state storage,
//! the open list, the incumbent cutoff, the proved-optimal exit, budget
//! and progress polling, the debug invariants and trace reconstruction.
//! `solve_seeded` wraps the kernel in the seed → search → degrade
//! protocol both [`crate::api::Solver`] adapters share.
//!
//! ## Hot-path layout
//! The expand loop allocates nothing. Keys are interned in one flat
//! [`StateArena`]; per-state bookkeeping (`dist`, `parent`, `settled`
//! and the metadata) lives in parallel arrays indexed by state id; the
//! open list is the goal-directed `Frontier` of [`crate::arena`], keyed
//! `(f, unsatisfied sinks)` and FIFO within a key (which keeps returned
//! traces short: newest-first follows chains of zero-cost moves — on
//! matmul/base to a goal hundreds of moves long, where FIFO returns 41
//! at the same cost). The popped-key buffer here and the successor
//! buffers of the expanders are reused across every expansion.
//!
//! ## Incumbent-bound pruning
//! The search carries an *incumbent*: the cheapest known upper bound on
//! the optimum. It starts from [`ExactConfig::upper_bound`] (the
//! adapters seed it with a greedy cost through `solve_seeded`) and
//! tightens to the best goal distance discovered during the search. Any
//! successor with `g + h` strictly above the seeded bound, or
//! at-or-above the best discovered goal, is dropped *before* it is
//! interned: since the bound is realized by a concrete pebbling, at
//! least one optimal path survives (`f ≤ opt ≤ bound` along it), so the
//! optimum is unchanged while the arena, frontier, and probe table stay
//! smaller. On positive-cost frontiers (e.g. the base model's grid
//! cell) this skips the large shell of states strictly beyond the
//! optimum that plain Dijkstra would intern but never expand.
//!
//! Under pruning, a discovered goal whose distance meets the structural
//! floor ([`bounds::best_lower_bound`], scaled) is already provably
//! optimal, so the search returns it without draining the frontier to
//! settle it. The unpruned reference runs to settlement.
//!
//! ## Budgets and progress
//! The budget is polled every `BUDGET_POLL_INTERVAL` real expansions
//! (stale pops do not count), progress snapshots fire every
//! `PROGRESS_INTERVAL`. On expiry the search returns the cheapest
//! goal *discovered* so far as a non-optimal outcome, or
//! [`SolveError::Interrupted`] when none exists yet; `solve_seeded`
//! then falls back to its greedy seed.
//!
//! ## Incremental metadata
//! `Meta` carries three state functions from a popped state to each
//! successor as ±deltas instead of rescanning them: the red count, the
//! unsatisfied-sink count (a state is a goal iff it is 0) and the A*
//! heuristic. Each is a pure function of the key, so it is stored once
//! at intern time regardless of which path reaches the state first, and
//! debug builds assert every delta against `Expand::meta_scan`. Debug
//! builds also assert that popped `f` never decreases under pruning
//! (non-negative edges and a consistent heuristic).

use crate::api::{upper_bound_quality, Progress, Quality, Solution, SolveCtx, Stats};
use crate::arena::{Frontier, StateArena, NO_STATE};
use crate::error::SolveError;
use crate::exact::ExactConfig;
use rbp_core::{bounds, Cost, Instance, Move, Pebbling};
use rbp_graph::NodeId;
use std::time::Instant;

/// Budget polls happen every this many expansions (amortizes the
/// `Instant::now()` call off the per-state hot path).
const BUDGET_POLL_INTERVAL: usize = 256;

/// Progress reports fire every this many expansions.
const PROGRESS_INTERVAL: usize = 8192;

/// The incrementally maintained metadata of one state: carried from a
/// popped state to each successor as ±deltas instead of being rescanned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Meta {
    /// Number of red pebbles in the state (over all processors).
    pub(crate) red: u32,
    /// Number of sinks violating the finishing convention; the state is a
    /// goal iff this is 0.
    pub(crate) unsat: u32,
    /// The admissible A* heuristic value in scaled units (0 when the
    /// expander has none).
    pub(crate) heur: u64,
}

impl Meta {
    /// Whether the state satisfies the finishing convention.
    #[inline]
    pub(crate) fn is_goal(self) -> bool {
        self.unsat == 0
    }

    /// Applies a signed delta to the unsatisfied-sink count.
    #[inline]
    pub(crate) fn bump_unsat(self, delta: i32) -> u32 {
        (self.unsat as i32 + delta) as u32
    }
}

/// A move generator the kernel can drive: everything about one game's
/// configuration graph that is a pure function of the instance.
///
/// Expanders are storage-agnostic: they never see arenas, frontiers, or
/// distances. `Clone` lets debug builds keep a second copy for the
/// metadata rescan while the first is mutably borrowed by an expansion.
pub(crate) trait Expand: Clone {
    /// Width of every state key, in `u64` words.
    fn key_words(&self) -> usize;

    /// The initial configuration key.
    fn initial_key(&self) -> Vec<u64>;

    /// Full rescan of the metadata of `key`; root initialization and
    /// debug asserts only — expansions maintain it by deltas.
    fn meta_scan(&self, key: &[u64]) -> Meta;

    /// Hands every (pruned-)legal successor of `(key, meta)` to `emit` as
    /// `(key, move, processor, scaled edge cost, meta)`; the key may
    /// borrow a scratch buffer. Errors from `emit` (a state-cap trip)
    /// abort the expansion and propagate.
    fn expand<F>(&mut self, key: &[u64], meta: Meta, emit: F) -> Result<(), SolveError>
    where
        F: FnMut(&[u64], Move, u16, u64, Meta) -> Result<(), SolveError>;

    /// Whether the popped state can provably never reach a goal (its
    /// subtree is abandoned). Defaults to never.
    fn is_dead(&mut self, _key: &[u64]) -> bool {
        false
    }

    /// Whether this state space holds every schedule of the instance, so
    /// that a settled goal is the instance's optimum. Defaults to yes.
    fn covers_instance(&self) -> bool {
        true
    }
}

/// What one kernel run found: the processor-tagged pebbling reaching
/// the returned goal, its cost (derived from that trace), the search
/// effort, and whether the goal is proved optimal in the searched space
/// (`false`: the budget expired and this is the best goal discovered).
pub(crate) struct Outcome {
    pub(crate) trace: Pebbling,
    pub(crate) cost: Cost,
    pub(crate) states_expanded: usize,
    pub(crate) states_seen: usize,
    pub(crate) optimal: bool,
}

/// Seed, search, degrade: the protocol both exact adapters share.
/// Validates `cfg` and feasibility, runs `seed` (a greedy trace and its
/// cost, whose scaled value tightens the cutoff under pruning), searches, and returns a [`Solution`] whose
/// stats are `extra(trace)` plus `states_expanded`/`states_seen`. An
/// expired budget or a tripped state cap falls back to the seed's trace
/// with `degraded = 1` when a seed exists.
pub(crate) fn solve_seeded<'a, E: Expand>(
    instance: &'a Instance,
    make: impl FnOnce(&'a Instance, &ExactConfig) -> E,
    mut cfg: ExactConfig,
    ctx: &SolveCtx,
    seed: impl FnOnce() -> Option<(Pebbling, Cost)>,
    extra: impl Fn(&Pebbling) -> Stats,
) -> Result<Solution, SolveError> {
    cfg.validate()?;
    bounds::check_feasible(instance)?;
    let seed = seed();
    if let Some((_, cost)) = seed.as_ref().filter(|_| cfg.prune) {
        // the instance's scaled objective is the search's edge unit
        let bound = u64::try_from(instance.scaled_cost(cost)).unwrap_or(u64::MAX);
        cfg.upper_bound = Some(cfg.upper_bound.map_or(bound, |b| b.min(bound)));
    }
    let search = Search::new(instance, make, cfg);
    let covers = search.exp.covers_instance();
    match search.run(ctx) {
        Ok(out) => {
            let mut stats = extra(&out.trace);
            stats.set("states_expanded", out.states_expanded as u64);
            stats.set("states_seen", out.states_seen as u64);
            let quality = if out.optimal && covers {
                Quality::Optimal
            } else {
                if !out.optimal {
                    stats.set("degraded", 1);
                }
                // a goal of a narrower state space bounds the optimum
                // from above only
                upper_bound_quality(instance, out.cost)
            };
            Solution::validated(instance, out.trace, quality, stats)
        }
        // budget expired (or the memory guard tripped) before any goal
        // was reached: fall back to the seed's trace
        Err(SolveError::Interrupted) | Err(SolveError::StateLimitExceeded { .. })
            if seed.is_some() =>
        {
            let (trace, cost) = seed.expect("guarded");
            let mut stats = extra(&trace);
            stats.set("degraded", 1);
            // a seed that meets the lower bound genuinely is optimal
            let quality = upper_bound_quality(instance, cost);
            Solution::validated(instance, trace, quality, stats)
        }
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------

/// Struct-of-arrays per-state bookkeeping, indexed by [`StateArena`] id:
/// relaxation touches `dist`/`settled`, trace recovery walks `parent`,
/// and each expansion reads the metadata once. One vector per field
/// rather than one `Vec<Meta>` keeps each growth step small, which
/// lowers the peak resident size of the largest solves.
///
/// Invariant: every interned state pushes exactly one entry.
#[derive(Default)]
struct NodeTable {
    /// Tentative scaled distance from the root (`u64::MAX` = unreached).
    dist: Vec<u64>,
    parent: Vec<Parent>,
    /// Popped with its final distance.
    settled: Vec<bool>,
    red: Vec<u32>,
    unsat: Vec<u32>,
    heur: Vec<u64>,
}

impl NodeTable {
    /// Appends bookkeeping for a freshly interned state; distance starts
    /// unreached.
    #[inline]
    fn push(&mut self, meta: Meta) {
        self.dist.push(u64::MAX);
        self.parent
            .push(Parent::new(NO_STATE, Move::Delete(NodeId::new(0)), 0));
        self.settled.push(false);
        self.red.push(meta.red);
        self.unsat.push(meta.unsat);
        self.heur.push(meta.heur);
    }

    #[inline]
    fn meta(&self, idx: usize) -> Meta {
        Meta {
            red: self.red[idx],
            unsat: self.unsat[idx],
            heur: self.heur[idx],
        }
    }
}

/// The step that reached a state: predecessor id, move, and processor.
/// The move is stored as node plus opcode, so the step packs into 12
/// bytes; a `(u32, Move, u16)` tuple takes 16 and, one per interned
/// state, raises the peak resident size of the largest classic solves
/// by 5–7%.
#[derive(Clone, Copy)]
struct Parent {
    /// Predecessor id; [`NO_STATE`] for the root.
    prev: u32,
    node: NodeId,
    /// 0 load, 1 store, 2 compute, 3 delete.
    op: u8,
    proc: u16,
}

impl Parent {
    #[inline]
    fn new(prev: u32, mv: Move, proc: u16) -> Self {
        let op = match mv {
            Move::Load(_) => 0,
            Move::Store(_) => 1,
            Move::Compute(_) => 2,
            Move::Delete(_) => 3,
        };
        Parent {
            prev,
            node: mv.node(),
            op,
            proc,
        }
    }

    fn step(self) -> (Move, u16) {
        let mv = match self.op {
            0 => Move::Load(self.node),
            1 => Move::Store(self.node),
            2 => Move::Compute(self.node),
            _ => Move::Delete(self.node),
        };
        (mv, self.proc)
    }
}

/// One kernel run over an expander's configuration graph. `cfg` must be
/// valid and the instance feasible (checked by [`solve_seeded`]).
pub(crate) struct Search<E> {
    cfg: ExactConfig,
    exp: E,
    /// Debug-only second expander: rescans successor metadata to check
    /// the ±deltas while `exp` is mutably borrowed by the expansion.
    #[cfg(debug_assertions)]
    check: E,
    arena: StateArena,
    nodes: NodeTable,
    frontier: Frontier,
    /// Prune cutoff: successors with `g + h ≥ cutoff` are dropped. This
    /// is `min(seeded upper bound + 1, best goal distance seen)` — both
    /// components are upper bounds realized by concrete pebblings (the
    /// seed externally, the goal by its own parent chain), so at least
    /// one optimal path always stays strictly below it.
    cutoff: u64,
    /// The structural floor ([`bounds::best_lower_bound`], scaled): a
    /// *discovered* goal at this distance is already provably optimal.
    /// Only consulted under `prune`.
    floor: u128,
    /// `(dist, id)` of the cheapest goal *discovered* (relaxed, not yet
    /// necessarily settled). This is what a budget-expired solve returns
    /// as its incumbent.
    best_goal: (u64, u32),
}

impl<E: Expand> Search<E> {
    /// Builds the expander with `make` from this run's own `cfg`, so the
    /// expander's move prunes and the kernel's cutoff, floor exit and
    /// asserts always follow the same `prune` flag.
    pub(crate) fn new<'a>(
        instance: &'a Instance,
        make: impl FnOnce(&'a Instance, &ExactConfig) -> E,
        cfg: ExactConfig,
    ) -> Self {
        let exp = make(instance, &cfg);
        Search {
            cfg,
            #[cfg(debug_assertions)]
            check: exp.clone(),
            arena: StateArena::new(exp.key_words()),
            exp,
            nodes: NodeTable::default(),
            frontier: Frontier::new(),
            cutoff: cfg.seed_cutoff(),
            floor: instance.scaled_cost(&bounds::best_lower_bound(instance)),
            best_goal: (u64::MAX, NO_STATE),
        }
    }

    pub(crate) fn run(mut self, ctx: &SolveCtx) -> Result<Outcome, SolveError> {
        let t0 = Instant::now();
        let budget_live = !ctx.budget.is_unlimited();
        // an already-exhausted budget (pre-set cancel flag, elapsed
        // deadline) stops before any work; in-loop polls then only fire
        // every BUDGET_POLL_INTERVAL real expansions
        if budget_live && ctx.budget.exhausted(0) {
            return self.interrupted(0);
        }
        let init = self.exp.initial_key();
        let (root, fresh) = self.arena.intern(&init);
        debug_assert!(fresh);
        let root_meta = self.exp.meta_scan(&init);
        self.nodes.push(root_meta);
        self.nodes.dist[root as usize] = 0;
        self.frontier.push(root_meta.heur, root_meta.unsat, root);

        let mut expanded = 0usize;
        let mut key_buf: Vec<u64> = Vec::with_capacity(self.exp.key_words());
        let mut last_f = 0u64;
        while let Some((f, id)) = self.frontier.pop() {
            let idx = id as usize;
            if self.nodes.settled[idx] {
                continue;
            }
            // under `prune` every edge is non-negative and the heuristic
            // is consistent (the classic one's only `f`-lowering move,
            // deleting a blue pebble, is pruned), so settled `f` never
            // decreases
            debug_assert!(
                !self.cfg.prune || f >= last_f,
                "popped f fell from {last_f} to {f}: inconsistent heuristic"
            );
            last_f = f;
            self.nodes.settled[idx] = true;
            key_buf.clear();
            key_buf.extend_from_slice(self.arena.key(id));
            let d = self.nodes.dist[idx];
            let meta = self.nodes.meta(idx);
            expanded += 1;
            // cooperative budget poll, amortized over a quantum of *real*
            // expansions (stale pops skip it above, so a streak of
            // settled duplicates cannot re-fire the deadline check or
            // deliver duplicate progress snapshots)
            if budget_live
                && expanded.is_multiple_of(BUDGET_POLL_INTERVAL)
                && ctx.budget.exhausted(expanded as u64)
            {
                return self.interrupted(expanded);
            }
            if expanded.is_multiple_of(PROGRESS_INTERVAL) {
                if let Some(observer) = ctx.progress {
                    observer(&self.progress(t0, expanded));
                }
            }

            if meta.is_goal() {
                return Ok(self.outcome(id, expanded, true));
            }
            if self.exp.is_dead(&key_buf) {
                continue;
            }

            // destructure so the expander and the storage borrow disjointly
            let Search {
                exp,
                #[cfg(debug_assertions)]
                check,
                arena,
                nodes,
                frontier,
                cutoff,
                cfg,
                best_goal,
                ..
            } = &mut self;
            exp.expand(&key_buf, meta, |succ, mv, proc, cost, child| {
                let nd = d + cost;
                let f = nd.saturating_add(child.heur);
                if f >= *cutoff {
                    return Ok(());
                }
                let (cid, fresh) = arena.intern(succ);
                if fresh {
                    // the deltas must agree with a full rescan of the key
                    #[cfg(debug_assertions)]
                    debug_assert_eq!(child, check.meta_scan(succ));
                    nodes.push(child);
                    if arena.len() > cfg.max_states {
                        return Err(SolveError::StateLimitExceeded {
                            limit: cfg.max_states,
                        });
                    }
                }
                let cidx = cid as usize;
                if !nodes.settled[cidx] && nd < nodes.dist[cidx] {
                    nodes.dist[cidx] = nd;
                    nodes.parent[cidx] = Parent::new(id, mv, proc);
                    frontier.push(f, child.unsat, cid);
                    if child.is_goal() && nd < best_goal.0 {
                        // remember the cheapest goal discovered: it is
                        // the incumbent a budget-expired solve returns
                        *best_goal = (nd, cid);
                        // and it tightens the prune cutoff immediately:
                        // nothing at-or-beyond it can improve the answer
                        if cfg.prune && nd < *cutoff {
                            *cutoff = nd;
                        }
                    }
                }
                Ok(())
            })?;
            // a discovered goal that meets the structural floor is
            // already provably optimal: floor ≤ optimum ≤ any realized
            // goal distance, so equality pins it — return without
            // draining the frontier to settle it
            if self.cfg.prune
                && self.best_goal.1 != NO_STATE
                && u128::from(self.best_goal.0) <= self.floor
            {
                let (_, goal) = self.best_goal;
                return Ok(self.outcome(goal, expanded, true));
            }
        }
        Err(SolveError::NoPebblingFound)
    }

    /// The outcome for a settled-or-discovered goal state: walks parent
    /// pointers back to the root once, and derives the cost from that
    /// same trace.
    fn outcome(&self, goal: u32, expanded: usize, optimal: bool) -> Outcome {
        let mut steps = Vec::new();
        let mut cur = self.nodes.parent[goal as usize];
        while cur.prev != NO_STATE {
            steps.push(cur.step());
            cur = self.nodes.parent[cur.prev as usize];
        }
        let mut trace = Pebbling::with_capacity(steps.len());
        for (mv, proc) in steps.into_iter().rev() {
            trace.push_on(mv, proc);
        }
        let stats = trace.stats();
        Outcome {
            cost: Cost {
                transfers: stats.transfers(),
                computes: stats.computes,
            },
            trace,
            states_expanded: expanded,
            states_seen: self.arena.len(),
            optimal,
        }
    }

    /// Budget expiry: the best goal discovered so far as a (non-optimal)
    /// incumbent, or [`SolveError::Interrupted`] when none exists yet.
    fn interrupted(self, expanded: usize) -> Result<Outcome, SolveError> {
        let (g, id) = self.best_goal;
        if id == NO_STATE {
            return Err(SolveError::Interrupted);
        }
        debug_assert!(g < u64::MAX);
        Ok(self.outcome(id, expanded, false))
    }

    fn progress(&self, t0: Instant, expanded: usize) -> Progress {
        let elapsed = t0.elapsed();
        let secs = elapsed.as_secs_f64();
        Progress {
            elapsed,
            states_expanded: expanded as u64,
            states_per_sec: if secs > 0.0 {
                (expanded as f64 / secs) as u64
            } else {
                0
            },
            frontier: self.frontier.len(),
            incumbent: match (self.best_goal.0, self.cfg.upper_bound) {
                (u64::MAX, ub) => ub,
                (g, Some(ub)) => Some(g.min(ub)),
                (g, None) => Some(g),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_table_tracks_arena() {
        let mut t = NodeTable::default();
        let meta = Meta {
            red: 3,
            unsat: 1,
            heur: 10,
        };
        t.push(meta);
        assert_eq!(t.dist.len(), 1);
        assert_eq!(t.dist[0], u64::MAX);
        assert_eq!(t.parent[0].prev, NO_STATE);
        assert!(!t.settled[0]);
        assert_eq!(t.meta(0), meta);
    }

    #[test]
    fn parent_steps_round_trip_in_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Parent>(), 12);
        let v = NodeId::new(7);
        for mv in [
            Move::Load(v),
            Move::Store(v),
            Move::Compute(v),
            Move::Delete(v),
        ] {
            for proc in [0, 3] {
                let p = Parent::new(5, mv, proc);
                assert_eq!((p.prev, p.step()), (5, (mv, proc)));
            }
        }
    }
}
