//! The closed loop of the library workloads (exact-optimal,
//! mpp-exact, coarse-scale): one caller solves the round's jobs back to
//! back until the time is up, then every answer is checked.

use crate::check;
use crate::cpu::Speed;
use crate::jobs::Job;
use crate::spans::Recorder;
use rbp_core::{bounds, engine, io, Instance};
use rbp_solvers::{registry, wire, Budget, Solution, SolveCtx, Solver};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one timed phase produced.
pub struct Outcome {
    /// Latency of every completed job call, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Process CPU time of every completed job call, milliseconds.
    pub cpu_ms: Vec<f64>,
    /// Process CPU time of the timed phase (traced runs: inside job
    /// spans only).
    pub cpu: Duration,
    /// Rounds completed.
    pub rounds: usize,
    /// Wall time of the timed phase (traced runs: time inside job
    /// spans only, so shadow calls do not count against throughput).
    pub elapsed: Duration,
    /// Job calls attempted.
    pub attempted: usize,
    /// Job calls that errored, drifted, or failed a check.
    pub failed: usize,
    /// Job calls whose solution is a proved optimum.
    pub optimal: usize,
    /// `max(cost,1)/max(lower_bound,1)` of every completed call.
    pub gap_ratios: Vec<f64>,
    /// The first failures, for the report.
    pub errors: Vec<String>,
    /// Solutions by job index, first call only (certified after the
    /// timed phase; every later call must return the same trace).
    pub first: Vec<Option<Solution>>,
}

/// The registry family span name of a spec.
pub fn solve_span(spec: &str) -> &'static str {
    match spec.split(':').next().unwrap_or(spec) {
        "exact" => "solvers.exact.solve",
        "exact@mpp" => "solvers.mpp.solve",
        "greedy@mpp" => "solvers.mpp_greedy.solve",
        "coarse" => "solvers.coarse.solve",
        "portfolio" => "solvers.portfolio.solve",
        "greedy" => "solvers.greedy.solve",
        _ => "solvers.other.solve",
    }
}

/// Parsed solvers for every distinct spec of `jobs`.
pub fn solvers_for(jobs: &[Job]) -> HashMap<&'static str, Box<dyn Solver>> {
    let mut out = HashMap::new();
    for j in jobs {
        out.entry(j.spec)
            .or_insert_with(|| registry::solver(j.spec).expect("benchmark specs parse"));
    }
    out
}

/// The job's solve context: its expansion budget, no deadline.
pub fn ctx_for(job: &Job) -> SolveCtx<'static> {
    let budget = match job.max_expansions {
        Some(m) => Budget::none().with_max_expansions(m),
        None => Budget::none(),
    };
    SolveCtx::new(budget)
}

/// Runs whole rounds of `jobs`, in order, until `seconds` have elapsed
/// (the round in flight always completes, so every round has the same
/// mix; the order is fixed, so each job follows the same predecessor
/// whatever the seed). The reference kernel runs between jobs, outside
/// the timed phase's totals.
pub fn run(
    jobs: &[Job],
    solvers: &HashMap<&'static str, Box<dyn Solver>>,
    seconds: f64,
    rec: &mut Recorder,
    speed: &mut Speed,
) -> Outcome {
    let mut out = Outcome {
        latencies_ms: Vec::new(),
        cpu_ms: Vec::new(),
        cpu: Duration::ZERO,
        rounds: 0,
        elapsed: Duration::ZERO,
        attempted: 0,
        failed: 0,
        optimal: 0,
        gap_ratios: Vec::new(),
        errors: Vec::new(),
        first: vec![None; jobs.len()],
    };
    let portfolio = registry::solver("portfolio").expect("portfolio parses");
    let limit = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut call = 0u64;
    let cpu_start = crate::cpu::process();
    let (kernel_wall, kernel_cpu) = speed.spent();
    let mut busy = Duration::ZERO;
    let mut busy_cpu = Duration::ZERO;
    while start.elapsed() < limit {
        for (j, job) in jobs.iter().enumerate() {
            speed.tick();
            let solver = &solvers[job.spec];
            let ctx = ctx_for(job);
            out.attempted += 1;
            call += 1;
            rec.set_job(call);
            rec.enter("job");
            let c0 = crate::cpu::process();
            let t0 = Instant::now();
            let result = rec.time(solve_span(job.spec), || solver.solve(&job.instance, &ctx));
            let elapsed = t0.elapsed();
            let cpu = crate::cpu::process() - c0;
            rec.exit();
            busy += elapsed;
            busy_cpu += cpu;
            let sol = match result {
                Ok(sol) => sol,
                Err(e) => {
                    fail(&mut out, format!("{} [{}]: {e}", job.label, job.spec));
                    continue;
                }
            };
            if let Some(first) = &out.first[j] {
                // repeats must reproduce the first answer (certified
                // after the timed phase) move for move
                if first.trace != sol.trace
                    || first.cost != sol.cost
                    || first.quality != sol.quality
                {
                    fail(
                        &mut out,
                        format!("{} [{}]: answer drifted between calls", job.label, job.spec),
                    );
                    continue;
                }
            }
            out.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
            out.cpu_ms.push(cpu.as_secs_f64() * 1e3);
            out.optimal += sol.is_optimal() as usize;
            out.gap_ratios.push(check::gap_ratio(&job.instance, &sol));
            if rec.is_on() {
                shadow_layers(
                    rec,
                    job.spec,
                    &job.instance,
                    &sol,
                    elapsed.as_secs_f64(),
                    portfolio.as_ref(),
                );
            }
            if out.first[j].is_none() {
                out.first[j] = Some(sol);
            }
        }
        out.rounds += 1;
    }
    (out.elapsed, out.cpu) = if rec.is_on() {
        (busy, busy_cpu)
    } else {
        let (wall, cpu) = speed.spent();
        (
            start.elapsed() - (wall - kernel_wall),
            crate::cpu::process() - cpu_start - (cpu - kernel_cpu),
        )
    };
    out
}

fn fail(out: &mut Outcome, msg: String) {
    out.failed += 1;
    if out.errors.len() < 10 {
        out.errors.push(msg);
    }
}

/// The shadow calls of the traced run: each layer's public function on
/// the job's own inputs and answer, timed outside the job's span.
pub fn shadow_layers(
    rec: &mut Recorder,
    spec: &str,
    inst: &Instance,
    sol: &Solution,
    solve_secs: f64,
    portfolio: &dyn Solver,
) {
    let dag = inst.dag();
    rec.time("core.canonical_key", || inst.canonical_key());
    let doc = rec.time("core.io.write_instance", || io::write_instance(inst));
    let _ = black_box(rec.time("core.io.parse_instance", || io::parse_instance(&doc)));
    let k = dag
        .n()
        .div_ceil(rbp_solvers::coarse::DEFAULT_GROUP_SIZE)
        .max(1);
    let part = rec.time("graph.partition", || rbp_graph::partition(dag, k));
    let mut shadowed_ns = rec.last_ns().unwrap_or(0.0);
    rec.count("graph.groups", part.k() as f64);
    rec.count("graph.cut_edges", part.cut_size(dag) as f64);
    rec.time("core.bounds.lower_bound", || bounds::best_lower_bound(inst));
    shadowed_ns += rec.last_ns().unwrap_or(0.0);
    let _ = black_box(rec.time("core.engine.simulate", || {
        engine::simulate(inst, &sol.trace)
    }));
    shadowed_ns += rec.last_ns().unwrap_or(0.0);
    if solve_span(spec) == "solvers.coarse.solve" {
        // coarse minus the partition, bound and replay it performs:
        // roughly the inner solves plus stitching
        rec.count(
            "solvers.coarse.residual_ms",
            (solve_secs * 1e9 - shadowed_ns) / 1e6,
        );
    }
    rec.count("core.trace_moves", sol.trace.len() as f64);
    let _ = black_box(rec.time("core.certify", || rbp_core::certify(inst, &sol.trace)));
    let wdoc = rec.time("solvers.wire.write_solution", || {
        wire::write_solution(spec, sol)
    });
    let _ = black_box(rec.time("solvers.wire.parse_solution", || {
        wire::parse_solution(&wdoc)
    }));
    // the incumbent seed of the classic problem on the same DAG
    let classic = inst.without_mpp();
    rec.time("solvers.portfolio.seed", || {
        portfolio.solve_default(&classic)
    })
    .ok();
    // the solver counters the report prints; a counter the solver does
    // not report is simply not recorded (absent, not 0)
    let expanded = sol.states_expanded().map(|e| e as f64);
    let seen = sol.states_seen().map(|s| s as f64);
    let rate = expanded.map(|e| e / solve_secs.max(1e-9));
    let frac = expanded.zip(seen).map(|(e, s)| e / s.max(1.0));
    let counters = match solve_span(spec) {
        "solvers.exact.solve" => vec![
            ("solvers.exact.states_expanded", expanded),
            ("solvers.exact.states_seen", seen),
            ("solvers.exact.expanded_per_s", rate),
            ("solvers.exact.expanded_frac", frac),
        ],
        "solvers.mpp.solve" => vec![
            ("solvers.mpp.states_expanded", expanded),
            ("solvers.mpp.states_seen", seen),
            ("solvers.mpp.expanded_per_s", rate),
        ],
        "solvers.coarse.solve" => vec![("solvers.coarse.states_seen", seen)],
        _ => Vec::new(),
    };
    for (name, value) in counters {
        if let Some(v) = value {
            rec.count(name, v);
        }
    }
}

/// Checks every distinct job's first answer after the timed phase (the
/// timed loop already held every later answer to the same trace):
/// certification, pinned optima, and the cross-checks named per
/// workload. Returns the failure messages.
pub fn verify(jobs: &[Job], first: &[Option<Solution>], workload: &str, seed: u64) -> Vec<String> {
    let expected = check::expected_costs();
    let mut errors = Vec::new();
    let mut cross: HashMap<&'static str, Box<dyn Solver>> = HashMap::new();
    for (index, (job, sol)) in jobs.iter().zip(first).enumerate() {
        let Some(sol) = sol else { continue };
        let tag = format!("{} [{}]", job.label, job.spec);
        let scaled = match check::certified_cost(&job.instance, sol) {
            Ok(s) => s,
            Err(e) => {
                errors.push(format!("{tag}: {e}"));
                continue;
            }
        };
        if !job.seeded {
            if let Some(&want) = expected.get(&(job.label.clone(), job.spec.to_string())) {
                if !sol.is_optimal() || scaled != want {
                    errors.push(format!(
                        "{tag}: optimum {scaled} ({:?}) != expected {want}",
                        sol.quality
                    ));
                }
            } else if job.spec.starts_with("exact") {
                errors.push(format!("{tag}: no expected optimum pinned"));
            }
        }
        // cross-checks against a second search kernel (on the seeded
        // draws, a quarter per run, rotating with the seed)
        let sampled = !job.seeded || (index as u64).wrapping_add(seed).is_multiple_of(4);
        let other = match (workload, job.spec, job.seeded) {
            // classic draws: the p = 1 product-state search must agree
            ("exact-optimal", "exact", true) if sampled => Some("exact@mpp:1"),
            // MPP cells: p = 1 must equal the classic optimum
            ("mpp-exact", "exact@mpp:2", false) => Some("exact@mpp:1"),
            _ => None,
        };
        if let Some(spec) = other {
            let solver = cross
                .entry(spec)
                .or_insert_with(|| registry::solver(spec).expect("cross-check spec parses"));
            let base = job.instance.without_mpp();
            match solver.solve(&base, &ctx_for(job)) {
                Ok(alt) => {
                    let alt_cost = alt.scaled_cost(&base);
                    let pinned = expected.get(&(job.label.clone(), "exact".to_string()));
                    let bad = match (job.seeded, sol.is_optimal(), alt.is_optimal()) {
                        (false, _, alt_opt) => !alt_opt || Some(&alt_cost) != pinned,
                        (true, true, true) => alt_cost != scaled,
                        // one side stopped at its budget: the proved
                        // side must sit inside the other's bracket
                        (true, false, true) => alt_cost > scaled,
                        (true, true, false) => alt_cost < scaled,
                        (true, false, false) => false,
                    };
                    if bad {
                        errors.push(format!(
                            "{tag}: {spec} gives {alt_cost} ({:?}) against {scaled} ({:?})",
                            alt.quality, sol.quality
                        ));
                    }
                }
                Err(e) => errors.push(format!("{tag}: {spec} cross-check failed: {e}")),
            }
        }
    }
    errors
}

/// Solves the fixed cells with `exact` (and `reference` where it
/// finishes within its state cap) and prints the expected-costs file,
/// flagging any disagreement.
pub fn write_expected() -> bool {
    let exact = registry::solver("exact").expect("exact parses");
    let reference = registry::solver("reference").expect("reference parses");
    let mut ok = true;
    let mut emit = |label: &str, spec: &str, inst: &Instance, solver: &dyn Solver| {
        let sol = solver.solve_default(inst).expect("fixed cells solve");
        let cost = sol.scaled_cost(inst);
        let reference_note = if spec == "exact" {
            match reference.solve(
                inst,
                &SolveCtx::new(Budget::none().with_max_expansions(3_000_000)),
            ) {
                Ok(r) if r.is_optimal() => {
                    let rc = r.scaled_cost(inst);
                    if rc != cost {
                        ok = false;
                    }
                    format!("reference {rc}")
                }
                _ => "reference did not finish".to_string(),
            }
        } else {
            String::new()
        };
        println!("{label} {spec} {cost}    # {reference_note}");
        assert!(sol.is_optimal(), "{label} {spec} not proved optimal");
    };
    for (label, inst) in crate::jobs::perf_cells() {
        emit(&label, "exact", &inst, exact.as_ref());
    }
    let mpp2 = registry::solver("exact@mpp:2").expect("exact@mpp:2 parses");
    for (label, inst) in crate::jobs::mpp_cells() {
        emit(&label, "exact", &inst, exact.as_ref());
        let lifted = inst.with_procs(crate::jobs::MPP_PROCS);
        emit(&label, "exact@mpp:2", &lifted, mpp2.as_ref());
    }
    ok
}
