//! The service-batch workload: one closed-loop client speaking the line
//! protocol through its own `serve_session` over in-process pipes into
//! a `Server`.

use crate::check;
use crate::cpu::Speed;
use crate::jobs::{self, SplitMix, ENSEMBLE_SEED};
use crate::spans::Recorder;
use rbp_core::{io, Instance};
use rbp_service::{serve_session, JobOptions, JobRequest, Server, ServerConfig, ServerStats};
use rbp_solvers::{registry, wire, Budget, SolveCtx};
use rbp_workloads::ensemble::{self, EnsembleConfig, LargeConfig};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads of the server.
pub const WORKERS: usize = 2;

/// The expansion budget every request carries (budgets are expansion
/// counts, never deadlines, so answers stay deterministic).
pub const MAX_EXPANSIONS: u64 = 100_000;

/// Fresh 100–600-node instances per round.
pub const FRESH: usize = 16;

/// `portfolio` → `exact accept=optimal` upgrade pairs per round.
pub const UPGRADES: usize = 3;

/// What a request exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A first submission of a large instance (cache write).
    Fresh,
    /// A byte-identical resubmission with `accept=bound` (cache read).
    Repeat,
    /// An isomorphic relabeling of a fresh instance with `accept=bound`
    /// (cache read where the canonical key is relabeling-invariant).
    Relabeled,
    /// The `portfolio` half of an upgrade pair.
    UpgradeSeed,
    /// The `exact accept=optimal` half of an upgrade pair.
    UpgradeExact,
    /// The 8448-node matmul(16) document under `coarse`.
    Big,
}

/// One request of the client's stream.
#[derive(Clone, Debug)]
pub struct Request {
    /// Index of the submitted instance in the stream's instance table.
    pub instance: usize,
    /// Index of the instance this one repeats: itself, or for a
    /// relabeled repeat the fresh instance it relabels.
    pub source: usize,
    /// Registry spec.
    pub spec: &'static str,
    /// Extra `key=value` options of the submit line.
    pub options: &'static str,
    /// What the request exercises.
    pub kind: Kind,
}

/// The client's inputs: its instances, their encoded documents, and
/// its request stream (one round; the loop cycles it).
#[derive(Clone)]
pub struct ClientStream {
    /// The instances, in table order.
    pub instances: Vec<Arc<Instance>>,
    /// `io::write_instance` of each instance.
    pub docs: Vec<String>,
    /// The round's requests.
    pub requests: Vec<Request>,
}

impl ClientStream {
    /// The submit line plus document of request `i` under job id `id`.
    pub fn render(&self, i: usize, id: &str) -> String {
        let r = &self.requests[i];
        format!(
            "submit {id} {} max-expansions={MAX_EXPANSIONS}{}\n{}",
            r.spec, r.options, self.docs[r.instance]
        )
    }
}

/// The seeded request stream.
pub fn client_stream(seed: u64) -> ClientStream {
    let mut rng = SplitMix::new(seed ^ 0xC11E_0000);
    let mut instances: Vec<Instance> = Vec::new();
    let large = LargeConfig {
        min_nodes: 100,
        max_nodes: 600,
        ..LargeConfig::default()
    };
    for g in ensemble::large_layered(ENSEMBLE_SEED, large).take(FRESH) {
        instances.push(jobs::relabel_instance(&g.instance, &mut rng));
    }
    let small = EnsembleConfig {
        max_nodes: 10,
        ..EnsembleConfig::default()
    };
    for g in ensemble::stream(ENSEMBLE_SEED ^ 0x5a11, small).take(UPGRADES) {
        instances.push(jobs::relabel_instance(&g.instance, &mut rng));
    }
    let big = rbp_workloads::matmul::build(16).dag;
    instances.push(jobs::hong_kung(big, 4, rbp_core::ModelKind::Base));
    let big_idx = instances.len() - 1;
    // an isomorphic relabeling of every fresh instance, at
    // `relabeled_base + i`
    let relabeled_base = instances.len();
    for i in 0..FRESH {
        let copy = jobs::relabel_instance(&instances[i], &mut rng);
        instances.push(copy);
    }

    // fresh submissions in seeded order; each is repeated byte for byte
    // and then relabeled (both accept=bound) right after the next fresh
    // one, so every round has the same mix whatever the seed
    let mut fresh: Vec<usize> = (0..FRESH).collect();
    for i in (1..fresh.len()).rev() {
        fresh.swap(i, rng.below(i + 1));
    }
    let spec_of = |i: usize| {
        if i.is_multiple_of(2) {
            "greedy"
        } else {
            "portfolio"
        }
    };
    let request = |instance: usize, source: usize, spec, options, kind| Request {
        instance,
        source,
        spec,
        options,
        kind,
    };
    let repeats = |i: usize| {
        [
            request(i, i, spec_of(i), " accept=bound", Kind::Repeat),
            request(
                relabeled_base + i,
                i,
                spec_of(i),
                " accept=bound",
                Kind::Relabeled,
            ),
        ]
    };
    let mut requests = vec![request(big_idx, big_idx, "coarse", "", Kind::Big)];
    for (pos, &i) in fresh.iter().enumerate() {
        requests.push(request(i, i, spec_of(i), "", Kind::Fresh));
        if pos > 0 {
            requests.extend(repeats(fresh[pos - 1]));
        }
        if pos == FRESH / 2 {
            requests.push(request(
                big_idx,
                big_idx,
                "coarse",
                " accept=bound",
                Kind::Repeat,
            ));
        }
        if pos % (FRESH / UPGRADES) == 1 && pos / (FRESH / UPGRADES) < UPGRADES {
            let u = FRESH + pos / (FRESH / UPGRADES);
            requests.push(request(u, u, "portfolio", "", Kind::UpgradeSeed));
            requests.push(request(
                u,
                u,
                "exact",
                " accept=optimal",
                Kind::UpgradeExact,
            ));
        }
    }
    requests.extend(repeats(fresh[FRESH - 1]));
    let docs = instances.iter().map(io::write_instance).collect();
    ClientStream {
        instances: instances.into_iter().map(Arc::new).collect(),
        docs,
        requests,
    }
}

/// The server every run starts: cold cache, two workers, a queue deep
/// enough that a single-outstanding client is never shed.
pub fn start_server() -> Server {
    let server = Server::start(ServerConfig {
        workers: WORKERS,
        queue_capacity: 8,
        ..ServerConfig::default()
    });
    // warm the worker threads without touching the cache
    let inst = Instance::new(
        rbp_graph::generate::chain(6),
        2,
        rbp_core::CostModel::oneshot(),
    );
    for w in 0..WORKERS {
        let events = server
            .submit_collect(JobRequest {
                id: format!("warm-{w}"),
                spec: "portfolio".into(),
                instance: inst.clone(),
                options: JobOptions {
                    use_cache: false,
                    ..JobOptions::default()
                },
            })
            .expect("warm-up is accepted");
        assert!(events.iter().any(|e| e.is_terminal()));
    }
    server
}

// ---------------------------------------------------------------------
// in-process pipes
// ---------------------------------------------------------------------

/// The read end of an in-process byte pipe.
struct PipeReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        while self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The write end of an in-process byte pipe.
struct PipeWriter(Sender<Vec<u8>>);

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .send(buf.to_vec())
            .map_err(|_| std::io::Error::from(std::io::ErrorKind::BrokenPipe))?;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn pipe() -> (PipeWriter, PipeReader) {
    let (tx, rx) = channel();
    (
        PipeWriter(tx),
        PipeReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        },
    )
}

// ---------------------------------------------------------------------
// the closed loop
// ---------------------------------------------------------------------

/// A distinct answer: `(request index, cached, producing spec)`.
type AnswerKey = (usize, bool, String);

/// One answered request.
struct Answer {
    key: AnswerKey,
    latency: Duration,
}

/// What the timed phase produced.
pub struct Outcome {
    /// Round-trip latency of every answered request, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Process CPU time (client, session and server threads) spent while
    /// each answered request was in flight, milliseconds.
    pub cpu_ms: Vec<f64>,
    /// Requests sent (each shed retry included once per request).
    pub attempted: usize,
    /// Requests that ended `failed`/`cancelled`/protocol errors, drifted
    /// between rounds, or were shed and never answered.
    pub failed: usize,
    /// Shed responses seen.
    pub shed: usize,
    /// Failure messages (first few).
    pub errors: Vec<String>,
    /// Wall time of the timed phase.
    pub elapsed: Duration,
    /// Process CPU time of the timed phase.
    pub cpu: Duration,
    /// Server counters at the end of the timed phase.
    pub stats: ServerStats,
    /// Every distinct answer and its `solution v1` document.
    answers: HashMap<AnswerKey, String>,
    /// Every answered request, in order.
    log: Vec<Answer>,
}

impl Outcome {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(msg);
        }
    }
}

fn read_line(r: &mut impl BufRead, line: &mut String) -> bool {
    line.clear();
    matches!(r.read_line(line), Ok(n) if n > 0)
}

/// Drives the client's session in whole rounds of its stream until
/// `seconds` have passed, on the calling thread (the session runs on a
/// thread of its own).
pub fn run(stream: &ClientStream, server: &Server, seconds: f64, speed: &mut Speed) -> Outcome {
    let (to_session, session_in) = pipe();
    let (session_out, from_session) = pipe();
    let mut out = Outcome {
        latencies_ms: Vec::new(),
        cpu_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        shed: 0,
        errors: Vec::new(),
        elapsed: Duration::ZERO,
        cpu: Duration::ZERO,
        stats: ServerStats::default(),
        answers: HashMap::new(),
        log: Vec::new(),
    };
    let start = Instant::now();
    let cpu_start = crate::cpu::process();
    let (kernel_wall, kernel_cpu) = speed.spent();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let session =
            scope.spawn(move || serve_session(BufReader::new(session_in), session_out, server));
        let mut to_session = to_session;
        let mut responses = BufReader::new(from_session);
        let mut line = String::new();
        let mut seq = 0u64;
        while Instant::now() < deadline {
            'requests: for i in 0..stream.requests.len() {
                // the reference kernel runs between requests, with
                // none in flight, outside the timed phase's totals
                speed.tick();
                out.attempted += 1;
                let mut retries = 0;
                loop {
                    seq += 1;
                    let id = format!("j{seq}");
                    let submit = stream.render(i, &id);
                    let c0 = crate::cpu::process();
                    let t0 = Instant::now();
                    to_session
                        .write_all(submit.as_bytes())
                        .expect("the session reads until EOF");
                    // read until this job's terminal line
                    let verdict = loop {
                        if !read_line(&mut responses, &mut line) {
                            break Err("session ended early".to_string());
                        }
                        let mut words = line.split_whitespace();
                        let (verb, rid) = (words.next().unwrap_or(""), words.next().unwrap_or(""));
                        if rid != id {
                            continue;
                        }
                        match verb {
                            "queued" | "cache-hit" | "progress" => continue,
                            "result" => {
                                let spec = words
                                    .next()
                                    .and_then(|w| w.strip_prefix("spec="))
                                    .unwrap_or("")
                                    .to_string();
                                let cached = words.next() == Some("cached=true");
                                let mut doc = String::new();
                                while read_line(&mut responses, &mut line) {
                                    doc.push_str(&line);
                                    if line.trim_end() == "end" {
                                        break;
                                    }
                                }
                                break Ok(Some((spec, cached, doc)));
                            }
                            "shed" => break Ok(None),
                            _ => break Err(line.trim_end().to_string()),
                        }
                    };
                    let latency = t0.elapsed();
                    let cpu = crate::cpu::process() - c0;
                    match verdict {
                        Ok(Some((spec, cached, doc))) => {
                            out.latencies_ms.push(latency.as_secs_f64() * 1e3);
                            out.cpu_ms.push(cpu.as_secs_f64() * 1e3);
                            let key = (i, cached, spec);
                            match out.answers.get(&key) {
                                Some(prev) if *prev != doc => {
                                    out.fail(format!("request {i}: answer drifted between rounds"));
                                }
                                Some(_) => {}
                                None => {
                                    out.answers.insert(key.clone(), doc);
                                }
                            }
                            out.log.push(Answer { key, latency });
                            continue 'requests;
                        }
                        Ok(None) => {
                            out.shed += 1;
                            retries += 1;
                            if retries > 5 {
                                out.fail(format!("request {i}: shed 6 times"));
                                continue 'requests;
                            }
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(msg) => {
                            out.fail(format!("request {i}: {msg}"));
                            continue 'requests;
                        }
                    }
                }
            }
        }
        let (wall, cpu) = speed.spent();
        out.elapsed = start.elapsed() - (wall - kernel_wall);
        out.cpu = crate::cpu::process() - cpu_start - (cpu - kernel_cpu);
        out.stats = server.stats();
        drop(to_session);
        while read_line(&mut responses, &mut line) {}
        session
            .join()
            .expect("the session thread does not panic")
            .expect("the session ends cleanly");
    });
    out
}

/// The context of a direct library solve: the requests' budget.
fn direct_ctx() -> SolveCtx<'static> {
    SolveCtx::new(Budget::none().with_max_expansions(MAX_EXPANSIONS))
}

/// Checks every distinct answer: the `solution v1` document parses,
/// its trace certifies on the submitted instance at the claimed cost,
/// and that cost equals a direct library solve with the producing spec
/// (of the repeated instance when a repeat is answered from its cache
/// entry). Returns the failure messages and the number of answered
/// requests that received a failing answer.
pub fn verify(stream: &ClientStream, outcome: &Outcome) -> (Vec<String>, usize) {
    let mut errors = Vec::new();
    let mut wrong = HashSet::new();
    let mut direct: HashMap<(usize, String), u128> = HashMap::new();
    for (key, doc) in &outcome.answers {
        let (i, cached, spec) = key;
        let req = &stream.requests[*i];
        let inst = &stream.instances[req.instance];
        let tag = format!("request {i} ({:?}, cached={cached})", req.kind);
        let verdict = wire::parse_solution(doc)
            .map_err(|e| format!("{tag}: unparsable result: {e}"))
            .and_then(|p| {
                check::certified_cost(inst, &p.solution).map_err(|e| format!("{tag}: {e}"))
            })
            .and_then(|scaled| {
                // a cache hit returns the entry of whichever instance
                // shares the submitted one's canonical key
                let src = &stream.instances[req.source];
                let solved = if *cached && src.canonical_key() == inst.canonical_key() {
                    req.source
                } else {
                    req.instance
                };
                let want = *direct.entry((solved, spec.clone())).or_insert_with(|| {
                    let target = &stream.instances[solved];
                    registry::solve_with(spec, target, &direct_ctx())
                        .map(|s| s.scaled_cost(target))
                        .unwrap_or(u128::MAX)
                });
                if scaled == want {
                    Ok(())
                } else {
                    Err(format!(
                        "{tag}: service cost {scaled} != direct {spec} solve {want}"
                    ))
                }
            });
        if let Err(e) = verdict {
            errors.push(e);
            wrong.insert(key);
        }
    }
    errors.sort();
    let answered_wrong = outcome
        .log
        .iter()
        .filter(|a| wrong.contains(&a.key))
        .count();
    (errors, answered_wrong)
}

/// `(optimal, gap ratio)` of every answered request.
fn per_answer(stream: &ClientStream, outcome: &Outcome) -> Vec<(bool, f64)> {
    let mut quality = HashMap::new();
    for (key, doc) in &outcome.answers {
        if let Ok(p) = wire::parse_solution(doc) {
            let inst = &stream.instances[stream.requests[key.0].instance];
            let q = (p.solution.is_optimal(), check::gap_ratio(inst, &p.solution));
            quality.insert(key, q);
        }
    }
    outcome
        .log
        .iter()
        .filter_map(|a| quality.get(&a.key).copied())
        .collect()
}

/// Share of answered requests whose answer is a proved optimum.
pub fn optimal_frac(stream: &ClientStream, outcome: &Outcome) -> f64 {
    let answers = per_answer(stream, outcome);
    answers.iter().filter(|(opt, _)| *opt).count() as f64 / answers.len().max(1) as f64
}

/// The bracket ratio of every answered request.
pub fn gap_ratios(stream: &ClientStream, outcome: &Outcome) -> Vec<f64> {
    per_answer(stream, outcome)
        .into_iter()
        .map(|(_, gap)| gap)
        .collect()
}

/// The traced run's service layer spans: per answered request, a
/// round-trip span tagged hit or miss, and (for misses) the direct
/// library solve of the same job as a shadow, plus the client-side
/// shadows of the layers a request passes through.
pub fn trace_layers(stream: &ClientStream, outcome: &Outcome, rec: &mut Recorder) {
    let portfolio = registry::solver("portfolio").expect("portfolio parses");
    let mut direct_ms: HashMap<(usize, &str), f64> = HashMap::new();
    for (job, a) in outcome.log.iter().enumerate() {
        rec.set_job(job as u64 + 1);
        let (i, cached, spec) = &a.key;
        let ms = a.latency.as_secs_f64() * 1e3;
        rec.count(
            if *cached {
                "service.hit_round_trip_ms"
            } else {
                "service.miss_round_trip_ms"
            },
            ms,
        );
        if *cached {
            continue;
        }
        let req = &stream.requests[*i];
        let direct = match direct_ms.entry((req.instance, spec.as_str())) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let inst = &stream.instances[req.instance];
                let t0 = Instant::now();
                let sol = rec
                    .time(crate::library::solve_span(spec), || {
                        registry::solve_with(spec, inst, &direct_ctx())
                    })
                    .expect("direct solves succeed");
                let secs = t0.elapsed().as_secs_f64();
                crate::library::shadow_layers(rec, spec, inst, &sol, secs, portfolio.as_ref());
                *e.insert(secs * 1e3)
            }
        };
        rec.count("service.overhead_ms", ms - direct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_byte_identical_request_streams() {
        let a = client_stream(11);
        let b = client_stream(11);
        assert_eq!(a.docs, b.docs);
        let render = |s: &ClientStream| -> Vec<String> {
            (0..s.requests.len()).map(|i| s.render(i, "x")).collect()
        };
        assert_eq!(render(&a), render(&b));
        let c = client_stream(12);
        assert_ne!(a.docs, c.docs, "another seed relabels the fresh instances");
    }

    #[test]
    fn every_repeat_follows_its_first_submission() {
        let s = client_stream(3);
        let mut seen = HashSet::new();
        for r in &s.requests {
            match r.kind {
                Kind::Repeat | Kind::Relabeled => assert!(seen.contains(&(r.source, r.spec))),
                Kind::UpgradeExact => assert!(seen.contains(&(r.instance, "portfolio"))),
                _ => assert_eq!(r.source, r.instance),
            }
            seen.insert((r.instance, r.spec));
        }
        let count = |kind| s.requests.iter().filter(|r| r.kind == kind).count();
        assert_eq!(count(Kind::UpgradeExact), UPGRADES);
        assert_eq!(count(Kind::Relabeled), FRESH);
    }

    #[test]
    fn a_relabeled_repeat_poses_the_same_problem_in_other_bytes() {
        let s = client_stream(5);
        for r in s.requests.iter().filter(|r| r.kind == Kind::Relabeled) {
            let (inst, src) = (&s.instances[r.instance], &s.instances[r.source]);
            assert_ne!(s.docs[r.instance], s.docs[r.source]);
            assert_eq!(inst.dag().n(), src.dag().n());
            assert_eq!(inst.dag().num_edges(), src.dag().num_edges());
        }
    }
}
