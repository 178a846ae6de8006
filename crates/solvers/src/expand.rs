//! The classic game's move generator: the `Expand` implementation the
//! search kernel ([`crate::search`]) runs for `exact` and `reference`.
//! The multiprocessor game has its own expander in [`crate::mpp`].
//!
//! An `Expander` packages everything about the classic configuration
//! graph that is a pure function of the instance — key layout, move
//! guards, the optimality-preserving prunes, the A* heuristic, and the
//! incremental ±delta bookkeeping (`Meta`) — so the subtle per-model
//! rules are written (and tested) once, apart from the search loop.
//! Every move it emits runs on processor 0.
//!
//! See the [`crate::exact`] module docs for the semantics of the state
//! encoding, the prune rules, and the A* heuristic; the documentation
//! there is normative for the code here.

use crate::error::SolveError;
use crate::exact::ExactConfig;
use crate::search::{Expand, Meta};
use rbp_core::{Instance, ModelKind, Move, SourceConvention};
use rbp_graph::bitset::{bit_clear, bit_get, bit_set};
use rbp_graph::NodeId;

/// The classic per-instance move generator.
///
/// Construction precomputes the key layout and per-node static tables;
/// the struct also owns the scratch buffers of the expansion hot path, so
/// each search needs its own `Expander` (they are cheap: a few `Vec`s
/// sized by the instance, not by the search).
#[derive(Clone)]
pub(crate) struct Expander<'a> {
    instance: &'a Instance,
    n: usize,
    wpn: usize,       // words per node-set
    key_words: usize, // words per state key (2·wpn or 3·wpn)
    oneshot: bool,
    track_computed: bool,
    /// Whether the A* heuristic is live (`astar` requested and the model
    /// is oneshot); when false every computed `heur` is 0.
    astar: bool,
    /// Whether the optimality-preserving prunes are on.
    prune: bool,
    /// Whether sinks must end blue ([`rbp_core::SinkConvention`]).
    need_blue: bool,
    /// Scaled edge weight of a transfer (also the heuristic's unit: one
    /// load) and of a compute: the instance's own objective
    /// ([`Instance::cost_scales`]), ε-scaled on classic instances.
    comm: u64,
    comp: u64,
    // reusable scratch (no per-expansion allocation)
    scratch: Vec<u64>,
    /// Dead-state reachability words (`avail` bit per node), reused.
    avail: Vec<u64>,
    // per-node static info
    sinks: Vec<bool>,
    sink_ids: Vec<u32>,
    topo: Vec<NodeId>,
}

impl<'a> Expander<'a> {
    /// Builds the move generator for `instance`. `cfg.prune` enables the
    /// optimality-preserving prunes; `cfg.astar` requests the admissible
    /// oneshot heuristic (ignored for other models).
    pub(crate) fn new(instance: &'a Instance, cfg: &ExactConfig) -> Self {
        let n = instance.dag().n();
        let wpn = rbp_graph::words_for(n);
        debug_assert_eq!(wpn, instance.dag().mask_words());
        let oneshot = instance.model().kind() == ModelKind::Oneshot;
        let track_computed = oneshot;
        let key_words = if track_computed { 3 * wpn } else { 2 * wpn };
        let (comm, comp) = instance.cost_scales();
        let sinks: Vec<bool> = instance
            .dag()
            .nodes()
            .map(|v| instance.dag().is_sink(v))
            .collect();
        let sink_ids = sinks
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| i as u32)
            .collect();
        Expander {
            instance,
            n,
            wpn,
            key_words,
            oneshot,
            track_computed,
            astar: cfg.astar && oneshot,
            prune: cfg.prune,
            need_blue: instance.sink_convention() == rbp_core::SinkConvention::RequireBlue,
            comm,
            comp,
            scratch: vec![0; key_words],
            avail: vec![0; wpn],
            sinks,
            sink_ids,
            topo: rbp_graph::topological_order(instance.dag()),
        }
    }

    #[inline]
    fn is_red(&self, key: &[u64], v: usize) -> bool {
        bit_get(&key[..self.wpn], v)
    }

    #[inline]
    fn is_blue(&self, key: &[u64], v: usize) -> bool {
        bit_get(&key[self.wpn..2 * self.wpn], v)
    }

    #[inline]
    fn is_computed(&self, key: &[u64], v: usize) -> bool {
        if self.track_computed {
            bit_get(&key[2 * self.wpn..], v)
        } else {
            // models without the computed set allow recomputation, so
            // "has it been computed" never gates legality; pebbled is the
            // only meaningful proxy where needed
            self.is_red(key, v) || self.is_blue(key, v)
        }
    }

    /// Whether `v` still has a successor that is uncomputed, as one
    /// `ANDN` loop over the packed successor mask (oneshot only; callers
    /// guard on `self.oneshot`, which implies the computed set is
    /// tracked).
    #[inline]
    fn has_uncomputed_successor(&self, key: &[u64], v: usize) -> bool {
        debug_assert!(self.track_computed);
        let mask = self.instance.dag().succ_mask(NodeId::new(v));
        let computed = &key[2 * self.wpn..];
        mask.iter().zip(computed).any(|(m, c)| m & !c != 0)
    }

    fn try_compute<F>(
        &mut self,
        key: &[u64],
        v: usize,
        meta: Meta,
        emit: &mut F,
    ) -> Result<(), SolveError>
    where
        F: FnMut(&[u64], Move, u16, u64, Meta) -> Result<(), SolveError>,
    {
        let node = NodeId::new(v);
        let model = self.instance.model();
        if !model.allows_recompute() && self.is_computed(key, v) {
            return Ok(());
        }
        if self.instance.source_convention() == SourceConvention::InitiallyBlue
            && self.instance.dag().is_source(node)
        {
            return Ok(());
        }
        if meta.red as usize >= self.instance.red_limit() {
            return Ok(());
        }
        // all inputs red: pred_mask ANDN red-words must be empty
        if self
            .instance
            .dag()
            .pred_mask(node)
            .iter()
            .zip(&key[..self.wpn])
            .any(|(p, r)| p & !r != 0)
        {
            return Ok(());
        }
        let was_blue = self.is_blue(key, v);
        self.scratch.copy_from_slice(key);
        bit_clear(&mut self.scratch[self.wpn..2 * self.wpn], v); // replace blue if any
        bit_set(&mut self.scratch[..self.wpn], v);
        if self.track_computed {
            let w = self.wpn;
            bit_set(&mut self.scratch[2 * w..], v);
        }
        let is_sink = self.sinks[v];
        let d_unsat = match (is_sink, self.need_blue, was_blue) {
            (false, _, _) => 0,
            (true, true, true) => 1,    // satisfied blue sink turns red
            (true, true, false) => 0,   // still not blue
            (true, false, true) => 0,   // pebbled before and after
            (true, false, false) => -1, // newly pebbled
        };
        // The heuristic is unchanged by a compute: `v` itself was not
        // blue (in oneshot every pebbled node is computed and computed
        // nodes are not recomputable), and the only other nodes whose
        // "has an uncomputed successor" status could flip are `v`'s
        // predecessors — which the guard above requires to be red, hence
        // not blue, hence outside the blue-node count either way.
        let child = Meta {
            red: meta.red + 1,
            unsat: meta.bump_unsat(d_unsat),
            heur: meta.heur,
        };
        emit(&self.scratch, Move::Compute(node), 0, self.comp, child)
    }
}

impl Expand for Expander<'_> {
    #[inline]
    fn key_words(&self) -> usize {
        self.key_words
    }

    /// The initial configuration key under the instance's source
    /// convention.
    fn initial_key(&self) -> Vec<u64> {
        let mut key = vec![0u64; self.key_words];
        if self.instance.source_convention() == SourceConvention::InitiallyBlue {
            for v in self.instance.dag().sources() {
                bit_set(&mut key[self.wpn..2 * self.wpn], v.index());
                if self.track_computed {
                    let w = self.wpn;
                    bit_set(&mut key[2 * w..], v.index());
                }
            }
        }
        key
    }

    fn meta_scan(&self, key: &[u64]) -> Meta {
        let red = key[..self.wpn].iter().map(|w| w.count_ones()).sum::<u32>();
        let unsat = self
            .sink_ids
            .iter()
            .filter(|&&s| {
                let v = s as usize;
                if self.need_blue {
                    !self.is_blue(key, v)
                } else {
                    !self.is_red(key, v) && !self.is_blue(key, v)
                }
            })
            .count() as u32;
        let mut heur = 0u64;
        if self.astar {
            for v in 0..self.n {
                if self.is_blue(key, v) && self.has_uncomputed_successor(key, v) {
                    heur += self.comm;
                }
            }
        }
        Meta { red, unsat, heur }
    }

    /// Oneshot dead-state check (prune rule 4): is any sink permanently
    /// unreachable? Reuses `self.avail` (one reachability bit per node)
    /// instead of allocating, and gates each node on its packed pred
    /// mask.
    fn is_dead(&mut self, key: &[u64]) -> bool {
        if !(self.prune && self.oneshot) {
            return false;
        }
        let dag = self.instance.dag();
        self.avail.iter_mut().for_each(|w| *w = 0);
        // avail[v]: v's value can (still) be made red at some point
        for &v in &self.topo {
            let i = v.index();
            let ok = if self.is_computed(key, i) {
                self.is_red(key, i) || self.is_blue(key, i)
            } else {
                dag.pred_mask(v)
                    .iter()
                    .zip(self.avail.iter())
                    .all(|(p, a)| p & !a == 0)
            };
            if ok {
                bit_set(&mut self.avail, i);
            }
        }
        self.sink_ids.iter().any(|&s| {
            let v = s as usize;
            if self.is_computed(key, v) {
                !self.is_red(key, v) && !self.is_blue(key, v)
            } else {
                !bit_get(&self.avail, v)
            }
        })
    }

    fn expand<F>(&mut self, key: &[u64], meta: Meta, mut emit: F) -> Result<(), SolveError>
    where
        F: FnMut(&[u64], Move, u16, u64, Meta) -> Result<(), SolveError>,
    {
        let model = self.instance.model();
        let r_limit = self.instance.red_limit();
        let prune = self.prune;

        for v in 0..self.n {
            let node = NodeId::new(v);
            let red = self.is_red(key, v);
            let blue = self.is_blue(key, v);
            let is_sink = self.sinks[v];
            if red {
                let unc = self.oneshot && self.has_uncomputed_successor(key, v);
                // Store(v): red -> blue
                let useful = !prune || !self.oneshot || is_sink || unc;
                if useful {
                    self.scratch.copy_from_slice(key);
                    bit_clear(&mut self.scratch[..self.wpn], v);
                    bit_set(&mut self.scratch[self.wpn..2 * self.wpn], v);
                    let child = Meta {
                        red: meta.red - 1,
                        // a red sink only counts as satisfied under
                        // AnyPebble; turning it blue satisfies RequireBlue
                        unsat: meta.bump_unsat(if is_sink && self.need_blue { -1 } else { 0 }),
                        // v is now blue; if it still has an uncomputed
                        // successor it joins the heuristic count
                        heur: meta.heur + if self.astar && unc { self.comm } else { 0 },
                    };
                    emit(&self.scratch, Move::Store(node), 0, self.comm, child)?;
                }
                // Delete(v) of a red pebble
                if model.allows_delete() {
                    let dead = self.oneshot && (is_sink || unc);
                    if !(prune && dead) {
                        self.scratch.copy_from_slice(key);
                        bit_clear(&mut self.scratch[..self.wpn], v);
                        let child = Meta {
                            red: meta.red - 1,
                            unsat: meta.bump_unsat(if is_sink && !self.need_blue { 1 } else { 0 }),
                            heur: meta.heur, // blue set unchanged
                        };
                        emit(&self.scratch, Move::Delete(node), 0, 0, child)?;
                    }
                }
            } else if blue {
                let unc = self.oneshot && self.has_uncomputed_successor(key, v);
                // Load(v): blue -> red
                if (meta.red as usize) < r_limit {
                    let useful = !prune || !self.oneshot || unc;
                    if useful {
                        self.scratch.copy_from_slice(key);
                        bit_clear(&mut self.scratch[self.wpn..2 * self.wpn], v);
                        bit_set(&mut self.scratch[..self.wpn], v);
                        let child = Meta {
                            red: meta.red + 1,
                            // a blue sink was satisfied either way; as red
                            // it fails RequireBlue
                            unsat: meta.bump_unsat(if is_sink && self.need_blue { 1 } else { 0 }),
                            heur: meta.heur - if self.astar && unc { self.comm } else { 0 },
                        };
                        emit(&self.scratch, Move::Load(node), 0, self.comm, child)?;
                    }
                }
                // Delete of a blue pebble: dominated (prune rule 1)
                if model.allows_delete() && !prune {
                    self.scratch.copy_from_slice(key);
                    bit_clear(&mut self.scratch[self.wpn..2 * self.wpn], v);
                    let child = Meta {
                        red: meta.red,
                        unsat: meta.bump_unsat(if is_sink { 1 } else { 0 }),
                        heur: meta.heur - if self.astar && unc { self.comm } else { 0 },
                    };
                    emit(&self.scratch, Move::Delete(node), 0, 0, child)?;
                }
                // Compute onto blue (nodel recomputation; legal in base too)
                self.try_compute(key, v, meta, &mut emit)?;
            } else {
                // Compute onto an empty node
                self.try_compute(key, v, meta, &mut emit)?;
            }
        }
        Ok(())
    }

    /// A multiprocessor instance also has schedules that use more than
    /// one processor; the classic space holds only single-processor ones.
    fn covers_instance(&self) -> bool {
        self.instance.procs() <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::CostModel;
    use rbp_graph::generate;

    #[test]
    fn meta_scan_matches_every_emitted_delta() {
        // walk two expansion levels from the root on every model and
        // check the ±delta metadata against the rescan
        for kind in ModelKind::ALL {
            let inst = Instance::new(generate::chain(6), 2, CostModel::of_kind(kind));
            let mut exp = Expander::new(&inst, &ExactConfig::default());
            let root = exp.initial_key();
            let root_meta = exp.meta_scan(&root);
            let mut frontier: Vec<(Vec<u64>, Meta)> = vec![(root, root_meta)];
            for _ in 0..2 {
                let mut next = Vec::new();
                for (key, meta) in frontier {
                    exp.expand(&key, meta, |succ, _mv, _proc, _cost, child| {
                        next.push((succ.to_vec(), child));
                        Ok(())
                    })
                    .unwrap();
                }
                for (key, meta) in &next {
                    let scan = {
                        let e = Expander::new(&inst, &ExactConfig::default());
                        e.meta_scan(key)
                    };
                    assert_eq!(*meta, scan, "delta metadata drifted from rescan ({kind})");
                }
                frontier = next;
            }
        }
    }

    #[test]
    fn goal_states_have_zero_heuristic() {
        // at a goal every node is computed, so the A* count is empty —
        // the search's f = g at goals relies on this
        let inst = Instance::new(generate::chain(3), 2, CostModel::oneshot());
        let exp = Expander::new(&inst, &ExactConfig::default());
        let mut key = vec![0u64; exp.key_words()];
        // all computed, sink red: a satisfied final configuration
        key[0] = 0b100; // red = {2}
        key[2] = 0b111; // computed = all
        let meta = exp.meta_scan(&key);
        assert!(meta.is_goal());
        assert_eq!(meta.heur, 0);
    }
}
