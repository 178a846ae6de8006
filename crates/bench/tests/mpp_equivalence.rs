//! `exact@mpp:1`-vs-classic equivalence over the full perf-snapshot
//! workload × model matrix: at one processor the multiprocessor state
//! space is isomorphic to the classic one, so wherever the mpp solver
//! proves optimality its scaled cost must equal the classic `exact`
//! optimum — on every recorded cell, including the larger
//! incumbent-tractable ones.
//!
//! The mpp search is plain Dijkstra (no A* heuristic), so one dense
//! cell (matmul/oneshot) honestly exceeds the default state cap and
//! degrades to its greedy seed as an `UpperBound`; the test therefore
//! asserts equality on proved-optimal cells and pins that at least 21
//! of the 22 cells do prove out, so a pruning regression that silently
//! degrades more of the matrix still fails here.
//!
//! Release-only: without `--release` the per-intern debug rescans put
//! the dense cells at minutes each (same policy as the extra cells of
//! `exact_matrix.rs`).

#![cfg(not(debug_assertions))]

use rbp_bench::perf_snapshot;
use rbp_core::engine;
use rbp_solvers::registry;

#[test]
fn full_matrix_mpp_one_proc_equals_classic_exact() {
    let cells = perf_snapshot::all_cells();
    let mut proved = 0usize;
    for case in &cells {
        let inst = &case.instance;
        let mpp = registry::solve("exact@mpp:1", inst).unwrap();
        let sim = engine::simulate(inst, &mpp.trace).unwrap();
        assert_eq!(sim.cost, mpp.cost, "{}/{}", case.workload, case.model);
        if !mpp.is_optimal() {
            continue; // degraded on a state cap — counted below
        }
        proved += 1;
        let classic = registry::solve("exact", inst).unwrap();
        assert!(classic.is_optimal());
        assert_eq!(
            mpp.scaled_cost(inst),
            classic.scaled_cost(inst),
            "{}/{}: exact@mpp:1 optimum drifted from the classic game",
            case.workload,
            case.model
        );
    }
    assert!(
        proved >= cells.len() - 1,
        "exact@mpp:1 proved only {proved}/{} cells optimal — the search degraded",
        cells.len()
    );
}
