//! Metric assembly and output: a human-readable report (every metric
//! by name, unit and better-direction, absent ones with the reason),
//! then the one-line JSON result.

use crate::cpu::Speed;
use crate::spans::Recorder;
use crate::stats;
use std::time::Duration;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value; `None` prints as absent, never as 0.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher` (empty for layer counts with no direction).
    pub better: &'static str,
    /// Sample count, reason for absence, or other context.
    pub note: String,
    /// Whether the metric is part of the JSON result.
    pub json: bool,
}

/// The timings of one run. CPU times are at the reference speed (see
/// [`crate::cpu::Speed`]); wall times are as measured.
pub struct Timing {
    /// Wall time of each set-up, seconds.
    pub setup_wall_s: Vec<f64>,
    /// Process CPU time of each set-up, seconds.
    pub setup_cpu_s: Vec<f64>,
    /// Wall time of the timed phase, seconds.
    pub wall_s: f64,
    /// Process CPU time of the timed phase, seconds.
    pub cpu_s: f64,
    /// Wall-clock latency of every completed job, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Process CPU time of every completed job, milliseconds.
    pub cpu_ms: Vec<f64>,
    /// The factor that took the measured CPU times to the reference
    /// speed.
    pub speed_factor: f64,
}

impl Timing {
    /// Timings from measured figures, with every CPU time taken to the
    /// reference speed by `speed`'s factor.
    pub fn new(
        setup_wall_s: Vec<f64>,
        setup_cpu_s: Vec<f64>,
        wall: Duration,
        cpu: Duration,
        latencies_ms: Vec<f64>,
        cpu_ms: &[f64],
        speed: &Speed,
    ) -> Self {
        let f = speed.factor();
        Timing {
            setup_wall_s,
            setup_cpu_s: setup_cpu_s.iter().map(|s| s * f).collect(),
            wall_s: wall.as_secs_f64(),
            cpu_s: cpu.as_secs_f64() * f,
            latencies_ms,
            cpu_ms: cpu_ms.iter().map(|c| c * f).collect(),
            speed_factor: f,
        }
    }
}

/// Everything a run prints.
pub struct Report {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    notes: Vec<String>,
    end_to_end: Vec<Metric>,
    layers: Vec<Metric>,
}

fn metric(
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    better: &'static str,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        better,
        note: String::new(),
        json: true,
    }
}

fn human(mut m: Metric, note: impl Into<String>) -> Metric {
    m.json = false;
    m.note = note.into();
    m
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

impl Report {
    /// A report over `attempted` jobs of which `failed` failed.
    pub fn new(attempted: usize, failed: usize, errors: Vec<String>) -> Self {
        Report {
            attempted,
            failed,
            errors,
            notes: Vec::new(),
            end_to_end: Vec::new(),
            layers: Vec::new(),
        }
    }

    /// Adds a context line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every answer was right and every JSON metric measured.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.errors.is_empty()
            && self.attempted > 0
            && self
                .json_metrics()
                .all(|m| m.value.is_some_and(f64::is_finite))
    }

    fn json_metrics(&self) -> impl Iterator<Item = &Metric> {
        self.end_to_end
            .iter()
            .chain(&self.layers)
            .filter(|m| m.json)
    }

    /// The end-to-end metrics of the untraced run: the CPU-time figures
    /// and quality metrics that `BENCHMARK.json` bounds, and the
    /// wall-clock figures, printed in the report only.
    pub fn end_to_end(&mut self, t: &Timing, optimal_frac: f64, gap_ratios: &[f64]) {
        let n = t.latencies_ms.len();
        let tail = |xs: &[f64]| -> String {
            let mut note = format!("n={n}, {} beyond p90", stats::samples_beyond(n, 90.0));
            if let Some(p) = stats::highest_tail_percentile(n) {
                if let Some(v) = stats::percentile(xs, p) {
                    note.push_str(&format!("; highest supported tail p{p} = {v:.4} ms"));
                }
            }
            note
        };
        let with_note = |mut m: Metric, note: String| {
            m.note = note;
            m
        };
        let wall = "wall clock: printed only, the host's hypervisor steal makes it unsteady";
        let at_ref = format!(
            "process CPU time at the reference speed (measured x {:.4})",
            t.speed_factor
        );
        self.end_to_end = vec![
            with_note(
                metric("setup_s", stats::median(&t.setup_cpu_s), "s", "lower"),
                format!(
                    "{at_ref}, median of {} set-ups (wall: {:.4} s)",
                    t.setup_cpu_s.len(),
                    stats::median(&t.setup_wall_s).unwrap_or(f64::NAN)
                ),
            ),
            with_note(
                metric(
                    "jobs_per_cpu_s",
                    Some(n as f64 / t.cpu_s),
                    "jobs/s",
                    "higher",
                ),
                format!("completed jobs / {at_ref} of the timed phase"),
            ),
            with_note(
                metric(
                    "cpu_p50_ms",
                    stats::percentile(&t.cpu_ms, 50.0),
                    "ms",
                    "lower",
                ),
                format!("{at_ref} per job, n={n}"),
            ),
            with_note(
                metric(
                    "cpu_p90_ms",
                    stats::percentile(&t.cpu_ms, 90.0),
                    "ms",
                    "lower",
                ),
                format!("{at_ref}; {}", tail(&t.cpu_ms)),
            ),
            human(
                metric("jobs_per_s", Some(n as f64 / t.wall_s), "jobs/s", "higher"),
                format!("{wall}; completed jobs / wall time of the timed phase"),
            ),
            human(
                metric(
                    "latency_p50_ms",
                    stats::percentile(&t.latencies_ms, 50.0),
                    "ms",
                    "lower",
                ),
                format!("{wall}; n={n}"),
            ),
            human(
                metric(
                    "latency_p90_ms",
                    stats::percentile(&t.latencies_ms, 90.0),
                    "ms",
                    "lower",
                ),
                format!("{wall}; {}", tail(&t.latencies_ms)),
            ),
            human(
                metric("optimal_frac", Some(optimal_frac), "ratio", "higher"),
                "printed only: 0 on coarse-scale by design, so not a bounded metric",
            ),
            with_note(
                metric(
                    "gap_ratio_geomean",
                    stats::geomean(gap_ratios),
                    "ratio",
                    "lower",
                ),
                format!("n={}", gap_ratios.len()),
            ),
            human(
                metric(
                    "failed_frac",
                    Some(self.failed as f64 / self.attempted.max(1) as f64),
                    "ratio",
                    "lower",
                ),
                format!(
                    "printed only: {} of {} attempted; any failure already fails the run",
                    self.failed, self.attempted
                ),
            ),
            metric("peak_rss_mb", peak_rss_mb(), "MiB", "lower"),
        ];
    }

    /// The per-layer metrics of the traced run, from the recorder.
    pub fn per_layer(&mut self, rec: &Recorder, job_cpu_ms: &[f64]) {
        let span = |name: &str, scale: f64| -> Option<f64> {
            stats::median(&rec.durations_ns(name)).map(|ns| ns / scale)
        };
        let mean = |name: &str| stats::mean(&rec.counts(name));
        let median = |name: &str| stats::median(&rec.counts(name));
        let ms = 1e6;
        let us = 1e3;
        let solve_spans: Vec<f64> = [
            "solvers.exact.solve",
            "solvers.mpp.solve",
            "solvers.mpp_greedy.solve",
            "solvers.coarse.solve",
            "solvers.portfolio.solve",
            "solvers.greedy.solve",
        ]
        .iter()
        .flat_map(|n| rec.durations_ns(n))
        .collect();
        self.layers = vec![
            metric(
                "workloads.generate_ms",
                span("workloads.generate", ms),
                "ms",
                "lower",
            ),
            metric(
                "graph.partition_ms",
                span("graph.partition", ms),
                "ms",
                "lower",
            ),
            metric("graph.groups", mean("graph.groups"), "count", "lower"),
            metric("graph.cut_edges", mean("graph.cut_edges"), "count", "lower"),
            metric(
                "core.canonical_key_us",
                span("core.canonical_key", us),
                "us",
                "lower",
            ),
            metric(
                "core.io.parse_instance_us",
                span("core.io.parse_instance", us),
                "us",
                "lower",
            ),
            metric(
                "core.io.write_instance_us",
                span("core.io.write_instance", us),
                "us",
                "lower",
            ),
            metric(
                "core.engine.simulate_ms",
                span("core.engine.simulate", ms),
                "ms",
                "lower",
            ),
            metric(
                "core.trace_moves",
                mean("core.trace_moves"),
                "count",
                "lower",
            ),
            metric(
                "core.bounds.lower_bound_us",
                span("core.bounds.lower_bound", us),
                "us",
                "lower",
            ),
            metric("core.certify_ms", span("core.certify", ms), "ms", "lower"),
            metric(
                "solvers.solve_ms",
                stats::median(&solve_spans).map(|ns| ns / ms),
                "ms",
                "lower",
            ),
            metric(
                "solvers.portfolio.seed_ms",
                span("solvers.portfolio.seed", ms),
                "ms",
                "lower",
            ),
            metric(
                "solvers.wire.write_solution_us",
                span("solvers.wire.write_solution", us),
                "us",
                "lower",
            ),
            metric(
                "solvers.wire.parse_solution_us",
                span("solvers.wire.parse_solution", us),
                "us",
                "lower",
            ),
            metric(
                "trace.job_cpu_p50_ms",
                stats::median(job_cpu_ms),
                "ms",
                "lower",
            ),
        ];
        for m in &mut self.layers {
            if m.value.is_none() {
                m.note = "no calls recorded".into();
            }
        }
        // solver-family metrics: printed where this workload calls the
        // family, absent (with the reason) elsewhere
        let family = |prefix: &'static str| -> String {
            format!("absent: no {prefix} calls on this workload")
        };
        let exact_calls = !rec.durations_ns("solvers.exact.solve").is_empty();
        let mpp_calls = !rec.durations_ns("solvers.mpp.solve").is_empty();
        let coarse_calls = !rec.durations_ns("solvers.coarse.solve").is_empty();
        let with_reason = |m: Metric, calls: bool, fam: &'static str, what: &str| -> Metric {
            let note = match (m.value.is_some(), calls) {
                (true, _) => String::new(),
                (false, true) => format!("absent: {fam} does not report {what}"),
                (false, false) => family(fam),
            };
            human(m, note)
        };
        let extras = vec![
            with_reason(
                metric(
                    "solvers.exact.solve_ms",
                    span("solvers.exact.solve", ms),
                    "ms",
                    "lower",
                ),
                exact_calls,
                "exact",
                "its time",
            ),
            with_reason(
                metric(
                    "solvers.exact.states_expanded",
                    mean("solvers.exact.states_expanded"),
                    "count",
                    "",
                ),
                exact_calls,
                "exact",
                "states_expanded",
            ),
            with_reason(
                metric(
                    "solvers.exact.states_seen",
                    mean("solvers.exact.states_seen"),
                    "count",
                    "",
                ),
                exact_calls,
                "exact",
                "states_seen",
            ),
            with_reason(
                metric(
                    "solvers.exact.expanded_per_s",
                    median("solvers.exact.expanded_per_s"),
                    "states/s",
                    "higher",
                ),
                exact_calls,
                "exact",
                "states_expanded",
            ),
            with_reason(
                metric(
                    "solvers.exact.expanded_frac",
                    mean("solvers.exact.expanded_frac"),
                    "ratio",
                    "higher",
                ),
                exact_calls,
                "exact",
                "states_seen",
            ),
            with_reason(
                metric(
                    "solvers.mpp.solve_ms",
                    span("solvers.mpp.solve", ms),
                    "ms",
                    "lower",
                ),
                mpp_calls,
                "exact@mpp",
                "its time",
            ),
            with_reason(
                metric(
                    "solvers.mpp.states_expanded",
                    mean("solvers.mpp.states_expanded"),
                    "count",
                    "",
                ),
                mpp_calls,
                "exact@mpp",
                "states_expanded",
            ),
            with_reason(
                metric(
                    "solvers.mpp.states_seen",
                    mean("solvers.mpp.states_seen"),
                    "count",
                    "",
                ),
                mpp_calls,
                "exact@mpp",
                "states_seen",
            ),
            with_reason(
                metric(
                    "solvers.mpp.expanded_per_s",
                    median("solvers.mpp.expanded_per_s"),
                    "states/s",
                    "higher",
                ),
                mpp_calls,
                "exact@mpp",
                "states_expanded",
            ),
            with_reason(
                metric(
                    "solvers.coarse.solve_ms",
                    span("solvers.coarse.solve", ms),
                    "ms",
                    "lower",
                ),
                coarse_calls,
                "coarse",
                "its time",
            ),
            with_reason(
                metric(
                    "solvers.coarse.residual_ms",
                    median("solvers.coarse.residual_ms"),
                    "ms",
                    "lower",
                ),
                coarse_calls,
                "coarse",
                "its time",
            ),
            with_reason(
                metric(
                    "solvers.coarse.states_seen",
                    mean("solvers.coarse.states_seen"),
                    "count",
                    "",
                ),
                coarse_calls,
                "coarse",
                "states_seen",
            ),
        ];
        self.layers.extend(extras);
    }

    /// The service-layer metrics of the traced service-batch run.
    pub fn service_layers(&mut self, rec: &Recorder, outcome: &crate::service::Outcome) {
        let s = &outcome.stats;
        let lookups = (s.cache.hits + s.cache.misses).max(1) as f64;
        let shed = outcome.shed;
        let sent = outcome.attempted + shed;
        let med = |name: &str| stats::median(&rec.counts(name));
        let rows = vec![
            metric(
                "service.hit_round_trip_ms",
                med("service.hit_round_trip_ms"),
                "ms",
                "lower",
            ),
            metric(
                "service.miss_round_trip_ms",
                med("service.miss_round_trip_ms"),
                "ms",
                "lower",
            ),
            metric(
                "service.overhead_ms",
                med("service.overhead_ms"),
                "ms",
                "lower",
            ),
            metric(
                "service.cache_hit_frac",
                Some(s.cache.hits as f64 / lookups),
                "ratio",
                "higher",
            ),
            metric(
                "service.cache_insertions",
                Some(s.cache.insertions as f64),
                "count",
                "",
            ),
            metric(
                "service.cache_upgrades",
                Some(s.cache.upgrades as f64),
                "count",
                "",
            ),
            metric("service.solves", Some(s.solves as f64), "count", ""),
            metric(
                "service.shed_frac",
                Some(shed as f64 / sent.max(1) as f64),
                "ratio",
                "lower",
            ),
        ];
        self.layers.extend(rows.into_iter().map(|m| human(m, "")));
        self.layers.push(human(
            metric("service.queue_wait_ms", None, "ms", "lower"),
            "absent: queue wait is not observable from outside the server",
        ));
    }

    /// Prints the report and the final JSON line.
    pub fn print(&self, workload: &str, seed: u64, traced: bool) {
        println!(
            "# rbp-benchmark workload={workload} seed={seed} trace={} nproc={} rustc=\"{}\" profile={}",
            traced as u8,
            std::thread::available_parallelism().map_or(0, |p| p.get()),
            env!("BENCH_RUSTC_VERSION"),
            env!("BENCH_PROFILE"),
        );
        for n in &self.notes {
            println!("# {n}");
        }
        for e in &self.errors {
            println!("# WRONG: {e}");
        }
        println!(
            "# correct={} attempted={} failed={}",
            self.correct(),
            self.attempted,
            self.failed
        );
        let section = |title: &str, rows: &[Metric]| {
            if rows.is_empty() {
                return;
            }
            println!("# {title}");
            for m in rows {
                let value = m.value.map_or("absent".to_string(), |v| format!("{v:.6}"));
                let better = if m.better.is_empty() {
                    String::new()
                } else {
                    format!(" ({} is better)", m.better)
                };
                let note = if m.note.is_empty() {
                    String::new()
                } else {
                    format!("  [{}]", m.note)
                };
                println!("#   {:<32} {value} {}{better}{note}", m.name, m.unit);
            }
        };
        section("end-to-end", &self.end_to_end);
        section("per-layer", &self.layers);
        let shown: Vec<&Metric> = if traced {
            self.layers.iter().filter(|m| m.json).collect()
        } else {
            self.end_to_end.iter().filter(|m| m.json).collect()
        };
        let metrics: Vec<String> = shown
            .iter()
            .filter_map(|m| {
                m.value.map(|v| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name,
                        json_number(v),
                        m.unit
                    )
                })
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with all its digits (never `NaN`/`inf`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
