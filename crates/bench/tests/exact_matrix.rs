//! Sequential `exact` over the full perf-snapshot workload × model
//! matrix: every recorded cell must come back proved optimal, and its
//! trace must replay through the validating engine at the reported
//! cost within the red budget.
//!
//! This pins the exact instances whose throughput the committed
//! `BENCH_exact.json` tracks.
//!
//! Each trace is also held to the length of
//! [`bounds::canonical_pebbling`] (load every input, compute, store
//! everything back). The search's order among equal-`f` states decides
//! which of the many optimal traces comes back; zero-cost moves
//! (computes and deletes in base, deletes in oneshot) leave `f`
//! unchanged, so an order that follows them depth-first returns an
//! optimal trace padded with hundreds of pointless moves. The cost
//! checks cannot see that; this bound does.

use rbp_bench::perf_snapshot::{self, PerfCase};
use rbp_core::{bounds, engine};
use rbp_solvers::registry;

/// Solves one cell with `exact` and checks optimality, engine replay
/// and the canonical-length bound.
fn check_cell(case: &PerfCase) {
    let inst = &case.instance;
    let cell = format!("{}/{}", case.workload, case.model);
    let sol = registry::solve("exact", inst).unwrap();
    assert!(
        sol.is_optimal(),
        "{cell}: unbudgeted exact must prove optimality"
    );
    let sim = engine::simulate(inst, &sol.trace).unwrap();
    assert_eq!(sim.cost, sol.cost, "{cell}: trace must replay exactly");
    assert!(sim.peak_red <= inst.red_limit());
    let canonical = bounds::canonical_pebbling(inst).unwrap();
    assert!(
        sol.trace.len() <= canonical.len(),
        "{cell}: exact trace has {} moves, the canonical pebbling {}",
        sol.trace.len(),
        canonical.len()
    );
}

#[test]
fn full_matrix_exact_is_optimal_and_short() {
    // matmul/base is the cell where a newest-first order pads the trace
    for case in perf_snapshot::cells() {
        check_cell(&case);
    }
}

#[test]
fn extra_cells_exact_is_optimal_and_short() {
    // the larger incumbent-tractable cells; their base-model variants
    // take seconds in debug, so this heavier pass is release-only
    if cfg!(debug_assertions) {
        return;
    }
    for case in perf_snapshot::extra_cells() {
        check_cell(&case);
    }
}
