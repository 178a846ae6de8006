//! Parallel-vs-sequential equivalence over the full perf-snapshot
//! workload × model matrix: the hash-sharded solver must find the same
//! optimal scaled cost as the sequential solver on every recorded cell,
//! and both traces must replay through the validating engine.
//!
//! This is the integration-level counterpart to the randomized
//! equivalence proptests in `rbp-solvers`: it pins the exact instances
//! whose throughput the committed `BENCH_exact.json` tracks.
//!
//! Each sequential trace is also held to the length of
//! [`bounds::canonical_pebbling`] (load every input, compute, store
//! everything back). The search's order among equal-`f` states decides
//! which of the many optimal traces comes back; zero-cost moves
//! (computes and deletes in base, deletes in oneshot) leave `f`
//! unchanged, so an order that follows them depth-first returns an
//! optimal trace padded with hundreds of pointless moves. The cost
//! checks cannot see that; this bound does.

use rbp_bench::perf_snapshot;
use rbp_core::{bounds, engine, Instance, Pebbling};
use rbp_solvers::api::{ParallelExactSolver, Solver};
use rbp_solvers::registry;

/// Asserts the sequential `exact` trace is no longer than the canonical
/// pebbling of the same instance.
fn assert_no_longer_than_canonical(inst: &Instance, trace: &Pebbling, cell: &str) {
    let canonical = bounds::canonical_pebbling(inst).unwrap();
    assert!(
        trace.len() <= canonical.len(),
        "{cell}: exact trace has {} moves, the canonical pebbling {}",
        trace.len(),
        canonical.len()
    );
}

/// Debug builds run the matrix at one parallel thread count to keep the
/// suite fast; release (CI perf job, local `--release` runs) covers two.
fn thread_counts() -> &'static [usize] {
    if cfg!(debug_assertions) {
        &[4]
    } else {
        &[2, 4]
    }
}

#[test]
fn full_matrix_parallel_equals_sequential() {
    for case in perf_snapshot::cells() {
        let inst = &case.instance;
        let eps = inst.model().epsilon();
        let seq = registry::solve("exact", inst).unwrap();
        let seq_sim = engine::simulate(inst, &seq.trace).unwrap();
        assert_eq!(seq_sim.cost, seq.cost);
        assert!(seq.is_optimal(), "unbudgeted exact must prove optimality");
        let cell = format!("{}/{}", case.workload, case.model);
        assert_no_longer_than_canonical(inst, &seq.trace, &cell);
        // the parallel matmul solves intern up to ~10⁶ states per run;
        // with debug asserts (full metadata rescan per intern) they take
        // minutes, so they are covered by the release pass only. The
        // sequential checks above still run: matmul/base is the cell
        // where a newest-first order pads the trace.
        if cfg!(debug_assertions) && case.workload == "matmul" {
            continue;
        }
        for &threads in thread_counts() {
            let par = ParallelExactSolver::with_threads(threads)
                .solve_default(inst)
                .unwrap();
            assert_eq!(
                par.cost.scaled(eps),
                seq.cost.scaled(eps),
                "{}/{} diverged at {threads} threads",
                case.workload,
                case.model
            );
            let sim = engine::simulate(inst, &par.trace).unwrap();
            assert_eq!(
                sim.cost, par.cost,
                "{}/{} parallel trace must replay exactly",
                case.workload, case.model
            );
            assert!(sim.peak_red <= inst.red_limit());
        }
    }
}

#[test]
fn extra_cells_parallel_equals_sequential() {
    // the larger incumbent-tractable cells; their base-model variants
    // take seconds in debug, so this heavier pass is release-only
    if cfg!(debug_assertions) {
        return;
    }
    for case in perf_snapshot::extra_cells() {
        let inst = &case.instance;
        let eps = inst.model().epsilon();
        let seq = registry::solve("exact", inst).unwrap();
        let cell = format!("{}/{}", case.workload, case.model);
        assert_no_longer_than_canonical(inst, &seq.trace, &cell);
        let par = ParallelExactSolver::with_threads(4)
            .solve_default(inst)
            .unwrap();
        assert_eq!(
            par.cost.scaled(eps),
            seq.cost.scaled(eps),
            "{}/{} diverged",
            case.workload,
            case.model
        );
        let sim = engine::simulate(inst, &par.trace).unwrap();
        assert_eq!(sim.cost, par.cost);
    }
}
