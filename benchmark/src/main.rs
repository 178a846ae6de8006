//! `rbp-benchmark`: the repository's benchmark of record.
//!
//! ```text
//! rbp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rbp-benchmark --write-expected
//! ```
//!
//! Runs one seeded workload (`exact-optimal`, `mpp-exact`,
//! `coarse-scale`, `service-batch`) as a closed loop for the given
//! time, checks every answer, and prints a human-readable report
//! followed by one JSON line: the end-to-end metrics untraced
//! (`--trace 0`), the per-layer metrics traced (`--trace 1`). CPU
//! figures are reported at a reference speed measured in the same run
//! (see `cpu::Speed`). Exits non-zero on any wrong answer. See
//! `benchmark/README.md`.

mod check;
mod cpu;
mod jobs;
mod library;
mod report;
mod service;
mod spans;
mod stats;

use cpu::Speed;
use report::{Report, Timing};
use spans::Recorder;
use std::time::Instant;

/// The workloads, in the order the document lists them.
const WORKLOADS: [&str; 4] = [
    "exact-optimal",
    "mpp-exact",
    "coarse-scale",
    "service-batch",
];

/// Times set-up is repeated per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--write-expected") {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds '{value}'"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Some(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            let agree = library::write_expected();
            std::process::exit(if agree { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("rbp-benchmark: {e}");
            eprintln!(
                "usage: rbp-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "service-batch" => run_service(&args),
        name => run_library(name, &args),
    };
    report.print(&args.workload, args.seed, args.trace);
    std::process::exit(if report.correct() { 0 } else { 1 });
}

/// The inputs of a library workload.
fn library_jobs(workload: &str, seed: u64) -> Vec<jobs::Job> {
    match workload {
        "exact-optimal" => jobs::exact_optimal(seed),
        "mpp-exact" => jobs::mpp_exact(seed),
        "coarse-scale" => jobs::coarse_scale(seed),
        other => unreachable!("not a library workload: {other}"),
    }
}

fn run_library(workload: &str, args: &Args) -> Report {
    let epoch = Instant::now();
    let mut rec = Recorder::new(args.trace, epoch);
    let mut speed = Speed::default();
    let (mut setup_wall_s, mut setup_cpu_s) = (Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        speed.sample();
        let (t0, c0) = (Instant::now(), cpu::process());
        let js = rec.time("workloads.generate", || library_jobs(workload, args.seed));
        let solvers = library::solvers_for(&js);
        // warm-up: one round without its heaviest jobs (the heavy exact
        // cells and the 3,600+-node coarse cells)
        for j in js.iter().filter(|j| {
            j.instance.dag().n() <= 1_100 && !jobs::HEAVY_EXACT_CELLS.contains(&j.label.as_str())
        }) {
            let _ = solvers[j.spec].solve(&j.instance, &library::ctx_for(j));
        }
        setup_wall_s.push(t0.elapsed().as_secs_f64());
        setup_cpu_s.push((cpu::process() - c0).as_secs_f64());
        prepared = Some((js, solvers));
    }
    let (js, solvers) = prepared.expect("at least one set-up");
    let outcome = library::run(&js, &solvers, args.seconds, &mut rec, &mut speed);
    let mut errors = outcome.errors.clone();
    errors.extend(library::verify(&js, &outcome.first, workload, args.seed));
    let failed = outcome.failed + errors.len().saturating_sub(outcome.errors.len());
    let completed = outcome.latencies_ms.len();
    let mut report = Report::new(outcome.attempted, failed, errors);
    report.note(format!(
        "inputs: {} jobs per round ({} seeded), {} rounds",
        js.len(),
        js.iter().filter(|j| j.seeded).count(),
        outcome.rounds
    ));
    let optimal_frac = outcome.optimal as f64 / completed.max(1) as f64;
    report.note(speed_note(&speed));
    let timing = Timing::new(
        setup_wall_s,
        setup_cpu_s,
        outcome.elapsed,
        outcome.cpu,
        outcome.latencies_ms,
        &outcome.cpu_ms,
        &speed,
    );
    report.end_to_end(&timing, optimal_frac, &outcome.gap_ratios);
    if args.trace {
        report.note(format!("{} spans recorded", rec.len()));
        report.per_layer(&rec, &timing.cpu_ms);
        write_spans(&rec, workload, args.seed);
    }
    report
}

fn run_service(args: &Args) -> Report {
    let epoch = Instant::now();
    let mut rec = Recorder::new(args.trace, epoch);
    let mut speed = Speed::default();
    let (mut setup_wall_s, mut setup_cpu_s) = (Vec::new(), Vec::new());
    let mut prepared: Option<(service::ClientStream, rbp_service::Server)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, server)) = prepared.take() {
            server.shutdown();
        }
        speed.sample();
        let (t0, c0) = (Instant::now(), cpu::process());
        let stream = rec.time("workloads.generate", || service::client_stream(args.seed));
        let server = service::start_server();
        setup_wall_s.push(t0.elapsed().as_secs_f64());
        setup_cpu_s.push((cpu::process() - c0).as_secs_f64());
        prepared = Some((stream, server));
    }
    let (stream, server) = prepared.expect("at least one set-up");
    let outcome = service::run(&stream, &server, args.seconds, &mut speed);
    server.shutdown();
    let (check_errors, answered_wrong) = service::verify(&stream, &outcome);
    let mut errors = outcome.errors.clone();
    errors.extend(check_errors);
    let optimal_frac = service::optimal_frac(&stream, &outcome);
    let gaps = service::gap_ratios(&stream, &outcome);
    let mut report = Report::new(outcome.attempted, outcome.failed + answered_wrong, errors);
    let relabeled = stream
        .requests
        .iter()
        .filter(|r| r.kind == service::Kind::Relabeled)
        .count();
    report.note(format!(
        "inputs: 1 client, {} requests per round ({relabeled} relabeled repeats); server: {} workers",
        stream.requests.len(),
        service::WORKERS
    ));
    let s = &outcome.stats;
    report.note(format!(
        "server stats: submitted={} solves={} cache hits={} misses={} insertions={} upgrades={} shed={}",
        s.submitted, s.solves, s.cache.hits, s.cache.misses, s.cache.insertions, s.cache.upgrades, s.shed
    ));
    report.note(speed_note(&speed));
    let timing = Timing::new(
        setup_wall_s,
        setup_cpu_s,
        outcome.elapsed,
        outcome.cpu,
        outcome.latencies_ms.clone(),
        &outcome.cpu_ms,
        &speed,
    );
    report.end_to_end(&timing, optimal_frac, &gaps);
    if args.trace {
        service::trace_layers(&stream, &outcome, &mut rec);
        report.note(format!("{} spans recorded", rec.len()));
        report.per_layer(&rec, &timing.cpu_ms);
        report.service_layers(&rec, &outcome);
        write_spans(&rec, "service-batch", args.seed);
    }
    report
}

fn speed_note(speed: &Speed) -> String {
    format!(
        "host speed: reference kernel median {:.4} ms over {} samples (reference {} ms), CPU figures x {:.4}",
        speed.kernel_ms(),
        speed.samples(),
        cpu::REFERENCE_KERNEL_MS,
        speed.factor()
    )
}

fn write_spans(rec: &Recorder, workload: &str, seed: u64) {
    let path = std::path::Path::new("benchmark")
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.tsv"));
    if let Err(e) = rec.write_tsv(&path) {
        eprintln!("rbp-benchmark: could not write {}: {e}", path.display());
    }
}
