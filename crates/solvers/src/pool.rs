//! A minimal work-stealing-free work queue for embarrassingly parallel
//! fan-out: `tasks` independent jobs, claimed one at a time from an
//! atomic next-index counter by at most `available_parallelism` threads.
//!
//! This replaces static contiguous chunking (where one expensive
//! mid-range task serializes its whole chunk behind it) for the R-sweeps,
//! the greedy portfolio and the `coarse` group solves: a thread that
//! finishes a cheap task immediately claims the next unclaimed one, so
//! the makespan is bounded by the longest *single* task, not the longest
//! chunk.
//!
//! The calling thread participates as a worker, so `run_indexed` spawns
//! `min(available_parallelism, tasks) − 1` threads, each costing more
//! than a microsecond-scale task. **Nesting rule:** a `run_indexed`
//! called inside a task (on any worker, the caller included) runs its
//! tasks inline, in index order, on the current thread. The outer
//! fan-out already occupies every core, so `coarse` fans out once over
//! its groups and each group's greedy portfolio stays on its worker.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

thread_local! {
    /// Set while this thread claims tasks in some [`run_indexed`].
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f(0..tasks)` across at most `available_parallelism` threads
/// (caller included) and returns the results in index order. Nested in
/// a task of another `run_indexed`, it runs inline (module docs).
///
/// `f` is called exactly once per index, in an unspecified order and
/// possibly concurrently. A panic in `f` is contained per task: the
/// remaining tasks still run to completion (no half-claimed work), and
/// the lowest-index panic payload is re-raised on the calling thread
/// afterwards — so callers still observe `f`'s panics, but a poisoned
/// task can never wedge its siblings. Tasks are independent by
/// contract, so an unwound task leaves no state a later task could
/// observe broken (the `AssertUnwindSafe` below).
pub fn run_indexed<T, F>(tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // read once: the call parses cgroup files, costing about a spawn
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |p| p.get()));
    let threads = if IN_POOL.get() { 1 } else { cores.min(tasks) };
    let next = AtomicUsize::new(0);
    // claims tasks until none are left; returns the ones this thread ran
    let worker = || {
        let outer = IN_POOL.replace(true);
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            done.push((i, catch_unwind(AssertUnwindSafe(|| f(i)))));
        }
        IN_POOL.set(outer);
        done
    };

    let mut done = if threads <= 1 {
        worker()
    } else {
        thread::scope(|scope| {
            let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
            let mut done = worker();
            for h in spawned {
                done.extend(h.join().expect("workers catch every task panic"));
            }
            done
        })
    };
    done.sort_unstable_by_key(|&(i, _)| i);
    // every task has run: re-raise the lowest-index panic, if any
    done.into_iter()
        .map(|(_, v)| v.unwrap_or_else(|p| resume_unwind(p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_index_order() {
        let out = run_indexed(17, |i| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_single_task_edge_cases() {
        assert_eq!(run_indexed(0, |_| 0u8), Vec::<u8>::new());
        assert_eq!(run_indexed(1, |i| i + 100), vec![100]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = run_indexed(64, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 64);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn a_panicking_task_propagates_but_does_not_wedge_siblings() {
        let calls = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_indexed(16, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                if i == 3 {
                    panic!("task 3 bomb");
                }
                i
            })
        }));
        // the panic reaches the caller with its payload intact...
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task 3 bomb");
        // ...but only after every task ran (no half-claimed work left)
        assert_eq!(calls.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn nested_calls_run_inline_on_the_calling_worker() {
        let out = run_indexed(4, |i| {
            let me = std::thread::current().id();
            run_indexed(5, |j| {
                assert_eq!(
                    std::thread::current().id(),
                    me,
                    "nested task left its worker"
                );
                10 * i + j
            })
        });
        let want: Vec<usize> = (0..4).flat_map(|i| 10 * i..10 * i + 5).collect();
        assert_eq!(out.concat(), want);
        // a nested task's panic still reaches the outermost caller
        let caught = std::panic::catch_unwind(|| {
            run_indexed(2, |_| run_indexed(3, |j| assert_ne!(j, 1, "nested bomb")))
        });
        let payload = caught.expect_err("nested panic must propagate");
        assert!(format!("{:?}", payload.downcast_ref::<String>()).contains("nested bomb"));
    }

    #[test]
    fn uneven_task_costs_do_not_serialize() {
        // one slow task early in the range must not block later ones
        // from completing (this is a liveness smoke test: with static
        // chunking the sleep would add to every task behind it in-chunk)
        let t0 = std::time::Instant::now();
        let out = run_indexed(8, |i| {
            if i == 1 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        // total ≈ one sleep plus epsilon, never 8 sleeps
        assert!(t0.elapsed() < std::time::Duration::from_millis(240));
    }
}
