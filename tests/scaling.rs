//! End-to-end scaling suite: the hierarchical `coarse[:K]` solver and
//! the fractional lower-bound engine on workloads far beyond the exact
//! frontier (matmul(16) = 8448 nodes, fft(64) = 448 nodes), plus the
//! brackets that tie them back to certified optima on the small
//! perf-snapshot matrix.

use rbp_bench::perf_snapshot;
use red_blue_pebbling::core::{
    bounds, certify, CostModel, Instance, ModelKind, SinkConvention, SourceConvention,
};
use red_blue_pebbling::solvers::{pool, registry, wire, Quality};
use red_blue_pebbling::workloads::ensemble::{self, LargeConfig};
use red_blue_pebbling::workloads::{fft, matmul, stencil};

/// The Hong–Kung regime every scaling cell runs under: inputs start in
/// slow memory, outputs must end there.
fn hong_kung(dag: red_blue_pebbling::graph::Dag, r: usize, kind: ModelKind) -> Instance {
    Instance::new(dag, r, CostModel::of_kind(kind))
        .with_source_convention(SourceConvention::InitiallyBlue)
        .with_sink_convention(SinkConvention::RequireBlue)
}

/// `coarse` solves matmul(16) and fft(64) end-to-end: the stitched
/// trace is accepted by the independent certifier at exactly the
/// claimed cost, and the reported `UpperBound` carries a lower bound no
/// worse than the trivial one.
#[test]
fn coarse_solves_the_large_workloads_end_to_end() {
    let large: [(&str, red_blue_pebbling::graph::Dag); 2] = [
        ("matmul16", matmul::build(16).dag),
        ("fft64", fft::build(6).dag),
    ];
    for (name, dag) in large {
        for kind in [ModelKind::Oneshot, ModelKind::NoDel] {
            let inst = hong_kung(dag.clone(), 4, kind);
            assert!(inst.is_feasible());
            let sol = registry::solve("coarse", &inst)
                .unwrap_or_else(|e| panic!("coarse failed on {name}/{kind:?}: {e}"));
            let cert = certify::certify(&inst, &sol.trace)
                .unwrap_or_else(|e| panic!("certifier rejected {name}/{kind:?}: {e}"));
            assert!(
                cert.matches(&sol.cost),
                "{name}/{kind:?}: certified (t={}, c={}) != claimed (t={}, c={})",
                cert.transfers,
                cert.computes,
                sol.cost.transfers,
                sol.cost.computes
            );
            let trivial = inst.scaled_cost(&bounds::trivial_lower_bound(&inst));
            match sol.quality {
                Quality::UpperBound { lower_bound } => {
                    assert!(lower_bound >= trivial, "{name}/{kind:?}: bound regressed");
                    assert!(lower_bound <= sol.scaled_cost(&inst));
                }
                Quality::Optimal => {} // cost met the bound exactly — even better
                Quality::Infeasible => panic!("{name}/{kind:?}: reported Infeasible"),
            }
        }
    }
}

/// The fractional relaxation strictly beats the trivial bound on at
/// least half of the large scaling cells (on base/oneshot it proves
/// positive transfers where trivial proves zero).
#[test]
fn fractional_bound_beats_trivial_on_the_large_cells() {
    let cells = perf_snapshot::coarse_cells();
    assert!(!cells.is_empty());
    let mut strictly_better = 0usize;
    for c in &cells {
        let trivial = c
            .instance
            .scaled_cost(&bounds::trivial_lower_bound(&c.instance));
        let best = c
            .instance
            .scaled_cost(&bounds::best_lower_bound(&c.instance));
        assert!(
            best >= trivial,
            "{}/{}: best_lower_bound regressed below trivial",
            c.workload,
            c.model
        );
        if best > trivial {
            strictly_better += 1;
        }
    }
    assert!(
        2 * strictly_better >= cells.len(),
        "fractional bound strictly better on only {strictly_better}/{} large cells",
        cells.len()
    );
}

/// On the exact-tractable perf matrix (≤ 20 nodes), every coarse
/// partitioning brackets the certified optimum from above, and `K = 1`
/// with an exact inner solver pins it exactly.
#[test]
fn coarse_brackets_exact_on_the_perf_matrix() {
    let mut checked = 0usize;
    for c in perf_snapshot::cells() {
        if c.instance.dag().n() > 20 {
            continue;
        }
        let exact = registry::solve("exact", &c.instance).expect("perf cells are feasible");
        if !exact.is_optimal() {
            continue;
        }
        let opt = exact.scaled_cost(&c.instance);
        for spec in ["coarse:2", "coarse:3", "coarse:4/greedy"] {
            let sol = registry::solve(spec, &c.instance)
                .unwrap_or_else(|e| panic!("{spec} failed on {}/{}: {e}", c.workload, c.model));
            let cost = sol.scaled_cost(&c.instance);
            assert!(
                cost >= opt,
                "{spec} undercut the optimum on {}/{}: {cost} < {opt}",
                c.workload,
                c.model
            );
            let cert = certify::certify(&c.instance, &sol.trace).expect("stitched trace certifies");
            assert!(cert.matches(&sol.cost));
        }
        let pinned =
            registry::solve("coarse:1/exact", &c.instance).expect("K=1 delegates to exact");
        assert!(pinned.is_optimal(), "coarse:1/exact must stay exact");
        assert_eq!(
            pinned.scaled_cost(&c.instance),
            opt,
            "coarse:1/exact != exact on {}/{}",
            c.workload,
            c.model
        );
        checked += 1;
    }
    assert!(
        checked >= 9,
        "perf matrix shrank: only {checked} cells checked"
    );
}

/// `best_lower_bound` dominates `trivial_lower_bound` component-wise on
/// the full recorded perf matrix — routing every call site through the
/// fractional engine never weakens a bound anyone relied on.
#[test]
fn bounds_never_decrease_vs_trivial_on_the_full_matrix() {
    let mut cells = perf_snapshot::all_cells();
    cells.extend(perf_snapshot::coarse_cells());
    for c in &cells {
        let trivial = bounds::trivial_lower_bound(&c.instance);
        let best = bounds::best_lower_bound(&c.instance);
        assert!(
            best.transfers >= trivial.transfers && best.computes >= trivial.computes,
            "{}/{}: best {best:?} below trivial {trivial:?}",
            c.workload,
            c.model
        );
    }
}

/// Solving the coarse groups concurrently is invisible in the result:
/// a top-level solve (groups fan out over the pool) and the same solve
/// nested in a one-task `pool::run_indexed` (groups run inline on the
/// caller) serialize to byte-identical documents — trace, cost,
/// quality and stats. Covers the coarse-scale cells, large layered
/// draws across all four models, and an exact inner solver.
#[test]
fn coarse_fan_out_matches_an_inline_solve() {
    let mut cases: Vec<(String, &str, Instance)> = Vec::new();
    for (name, dag) in [
        ("matmul12", matmul::build(12).dag),
        ("matmul16", matmul::build(16).dag),
        ("fft128", fft::build(7).dag),
        ("stencil64x16", stencil::build(64, 16, 1).dag),
    ] {
        for kind in [ModelKind::Base, ModelKind::Oneshot, ModelKind::NoDel] {
            let inst = hong_kung(dag.clone(), 4, kind);
            cases.push((format!("{name}/{kind:?}"), "coarse", inst));
        }
    }
    for g in ensemble::large_layered(11, LargeConfig::default()).take(12) {
        cases.push((g.name, "coarse", g.instance));
    }
    let small = LargeConfig {
        min_nodes: 16,
        max_nodes: 30,
        ..LargeConfig::default()
    };
    for g in ensemble::large_layered(5, small).take(4) {
        cases.push((g.name, "coarse:3/exact", g.instance));
    }
    for (label, spec, inst) in &cases {
        let fanned = registry::solve(spec, inst).unwrap();
        let inline = pool::run_indexed(1, |_| registry::solve(spec, inst).unwrap());
        assert_eq!(
            wire::write_solution(spec, &fanned),
            wire::write_solution(spec, &inline[0]),
            "{label} under {spec}"
        );
    }
}

/// `coarse` folds its groups' search effort into its own stats: summed
/// over the groups under an exact inner solver, and absent — never a
/// fabricated zero — when no inner solver reports it.
#[test]
fn coarse_stats_fold_inner_search_effort() {
    let small = LargeConfig {
        min_nodes: 16,
        max_nodes: 30,
        ..LargeConfig::default()
    };
    for g in ensemble::large_layered(5, small).take(4) {
        let exact = registry::solve("coarse:3/exact", &g.instance).unwrap();
        let expanded = exact
            .stats
            .get("states_expanded")
            .expect("exact reports effort");
        let seen = exact
            .stats
            .get("states_seen")
            .expect("exact reports effort");
        assert!(expanded > 0 && seen > 0, "{}", g.name);
        let greedy = registry::solve("coarse:3/greedy", &g.instance).unwrap();
        assert_eq!(greedy.stats.get("states_expanded"), None, "{}", g.name);
        assert_eq!(greedy.stats.get("states_seen"), None, "{}", g.name);
    }
}
