//! The `serve-repeat` workload: a closed loop of two client threads
//! against an in-process `gcln_serve::start` (2 workers, queue cap 16,
//! journal on). 26 fixed linear-suite sources are each submitted 4 times
//! with `fast: true`; every client polls `GET /jobs/{id}` at a fixed
//! interval until `done`.
//!
//! The seed orders the 104 submissions. The clients pull from that one
//! sequence, but a client holds back a submission while a copy of the
//! same source is still running on the other client: every copy after
//! the first is sent after an earlier copy finished, so the first copy
//! misses the spec and trace caches and the other three hit, on every
//! run, whatever the timing.

use crate::stats::{histogram_quantile, percentile, Span, Verdict};
use crate::trace::Tracer;
use crate::{Counters, JobResult, Pass};
use gcln_serve::client::{request, ClientResponse};
use gcln_serve::{Json, ServeConfig, ServerHandle};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Distinct sources drawn from the linear suite.
pub const SOURCES: usize = 26;
/// Submissions of each source.
pub const COPIES: usize = 4;
/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// Interval between a client's status polls.
pub const POLL: Duration = Duration::from_millis(10);
/// A job not `done` this long after admission counts as lost.
const LOST_AFTER: Duration = Duration::from_secs(120);

/// One run's submission plan.
pub struct Plan {
    /// `(name, source)` of each distinct program.
    sources: Vec<(String, String)>,
    /// Source index of every submission, in sending order.
    sequence: Vec<usize>,
}

impl Plan {
    /// The fixed source set (evenly spaced through the 124-problem
    /// suite, so every template family is represented), each source
    /// [`COPIES`] times, ordered by `seed`.
    pub fn new(seed: u64) -> Plan {
        let suite = gcln_problems::linear::linear_suite();
        let sources: Vec<(String, String)> = (0..SOURCES)
            .map(|i| &suite[i * suite.len() / SOURCES])
            .map(|p| (p.name.clone(), p.source.clone()))
            .collect();
        let mut sequence: Vec<usize> =
            (0..SOURCES).flat_map(|s| std::iter::repeat_n(s, COPIES)).collect();
        crate::shuffle(&mut sequence, seed);
        Plan { sources, sequence }
    }
}

/// The clients' shared position in the plan and the sources in flight.
struct Dispatch {
    next: usize,
    in_flight: Vec<bool>,
}

/// Starts a server with a fresh journal under `dir`.
fn start_server(dir: &Path) -> std::io::Result<ServerHandle> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    gcln_serve::start(ServeConfig {
        workers: 2,
        queue_cap: 16,
        journal: Some(dir.join("journal.jsonl")),
        ..ServeConfig::default()
    })
}

fn journal_dir(tag: &str) -> PathBuf {
    PathBuf::from(".bench_out").join("serve").join(format!("{}-{tag}", std::process::id()))
}

/// One set-up as a user of the service pays it: the submission plan
/// (suite build and draw) plus server start (bind, journal open, cache
/// and scheduler creation). Returns seconds; the server is shut down
/// again (untimed).
pub fn time_setup(seed: u64, rep: usize) -> std::io::Result<f64> {
    let dir = journal_dir(&format!("setup{rep}"));
    let t0 = Instant::now();
    let plan = Plan::new(seed);
    let server = start_server(&dir)?;
    let took = t0.elapsed().as_secs_f64();
    drop(plan);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(took)
}

/// What one submission came back with.
struct Submission {
    source: usize,
    verdict: Verdict,
    latency: f64,
    /// Server-reported job seconds (first dispatch to completion).
    seconds: f64,
    /// The `invariants` array, rendered.
    invariants: String,
    cegis_rounds: u64,
    attempts: u64,
    counterexamples: u64,
    polls: u64,
}

fn call(
    tracer: Option<&Tracer>,
    parent: u64,
    name: &str,
    job: u64,
    f: impl FnOnce() -> std::io::Result<ClientResponse>,
) -> std::io::Result<ClientResponse> {
    match tracer {
        Some(t) => t.span(Some(parent), name, job, f),
        None => f(),
    }
}

/// Submits one source and polls it to `done`.
fn submit(
    addr: std::net::SocketAddr,
    plan: &Plan,
    source: usize,
    job: u64,
    tracer: Option<&Tracer>,
) -> Submission {
    let span = tracer.map_or(0, Tracer::reserve);
    let span_start = tracer.map_or(0.0, Tracer::now);
    let t0 = Instant::now();
    let (name, text) = &plan.sources[source];
    let body = format!(
        r#"{{"source":{},"name":{},"fast":true}}"#,
        crate::json_str(text),
        crate::json_str(name)
    );
    let mut out = Submission {
        source,
        verdict: Verdict::Refused,
        latency: 0.0,
        seconds: 0.0,
        invariants: String::new(),
        cegis_rounds: 0,
        attempts: 0,
        counterexamples: 0,
        polls: 0,
    };
    let posted = call(tracer, span, "post", job, || request(addr, "POST", "/jobs", Some(&body)));
    let id = match posted {
        Ok(r) if r.status == 202 => {
            r.json().ok().and_then(|j| j.get("id")?.as_str().map(String::from))
        }
        _ => None,
    };
    if let Some(id) = id {
        out.verdict = Verdict::Lost;
        let path = format!("/jobs/{id}");
        while t0.elapsed() < LOST_AFTER {
            std::thread::sleep(POLL);
            out.polls += 1;
            let Ok(resp) = call(tracer, span, "get", job, || request(addr, "GET", &path, None))
            else {
                continue;
            };
            let Ok(body) = resp.json() else { continue };
            if body.get("status").and_then(Json::as_str) != Some("done") {
                continue;
            }
            read_done(&body, &mut out);
            break;
        }
    }
    out.latency = t0.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.record(span, None, "submission", job, span_start, t.now());
    }
    out
}

fn read_done(body: &Json, out: &mut Submission) {
    let valid = body.get("valid").and_then(Json::as_bool) == Some(true);
    let stopped = body.get("stopped").is_some_and(|s| !s.is_null());
    out.verdict = match (valid, stopped) {
        (true, false) => Verdict::Solved,
        (_, true) => Verdict::Lost,
        (false, false) => Verdict::Invalid,
    };
    out.seconds = body.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
    out.cegis_rounds = body.get("cegis_rounds").and_then(Json::as_u64).unwrap_or(0);
    let invariants = body.get("invariants").and_then(Json::as_array).unwrap_or(&[]);
    out.invariants = invariants.iter().map(Json::render).collect::<Vec<_>>().join(",");
    out.attempts = invariants.iter().filter_map(|i| i.get("attempts").and_then(Json::as_u64)).sum();
    out.counterexamples = body.get("events").and_then(Json::as_array).map_or(0, |events| {
        events
            .iter()
            .filter(|e| e.get("event").and_then(Json::as_str) == Some("counterexample"))
            .count() as u64
    });
}

/// One pass of the workload against a fresh server. With a tracer,
/// every client call is a span under its submission's span, and the
/// pass's layer figures are filled in.
pub fn run_pass(plan: &Plan, tag: &str, tracer: Option<&Tracer>) -> std::io::Result<Pass> {
    let dir = journal_dir(tag);
    let server = start_server(&dir)?;
    let addr = server.local_addr();
    let cpu0 = crate::host::cpu_seconds();
    let t0 = Instant::now();
    let dispatch = Mutex::new(Dispatch { next: 0, in_flight: vec![false; plan.sources.len()] });
    let freed = Condvar::new();
    let client = || {
        let mut mine = Vec::new();
        loop {
            let (k, source) = {
                let mut d = dispatch.lock().expect("dispatch poisoned");
                let Some(&source) = plan.sequence.get(d.next) else { break };
                let k = d.next;
                d.next += 1;
                while d.in_flight[source] {
                    d = freed.wait(d).expect("dispatch poisoned");
                }
                d.in_flight[source] = true;
                (k, source)
            };
            mine.push(submit(addr, plan, source, k as u64, tracer));
            dispatch.lock().expect("dispatch poisoned").in_flight[source] = false;
            freed.notify_all();
        }
        mine
    };
    let per_client: Vec<Vec<Submission>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS).map(|_| scope.spawn(client)).collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let cpu = crate::host::cpu_seconds() - cpu0;
    let stats = request(addr, "GET", "/stats", None).and_then(|r| {
        r.json().map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))
    });
    let metrics = request(addr, "GET", "/metrics", None).map(|r| r.body);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let (stats, metrics) = (stats?, parse_metrics(&metrics?));

    let subs: Vec<Submission> = per_client.into_iter().flatten().collect();
    let mut pass = Pass { wall_s: wall, cpu_s: cpu, ..Pass::default() };
    // Determinism contract: every copy of a source returns the same
    // invariants, byte for byte.
    let mut by_source: BTreeMap<usize, &str> = BTreeMap::new();
    for s in subs.iter().filter(|s| s.verdict != Verdict::Refused && s.verdict != Verdict::Lost) {
        let first = *by_source.entry(s.source).or_insert(s.invariants.as_str());
        if first != s.invariants {
            pass.violations.push(format!(
                "{}: copies returned different invariants: {first} vs {}",
                plan.sources[s.source].0, s.invariants
            ));
        }
    }
    for s in subs.iter().filter(|s| s.verdict == Verdict::Lost) {
        pass.violations
            .push(format!("{}: admitted but never reached done", plan.sources[s.source].0));
    }
    let mut learned = Vec::new();
    for (source, invariants) in &by_source {
        learned.extend_from_slice(plan.sources[*source].0.as_bytes());
        learned.extend_from_slice(invariants.as_bytes());
    }

    let mut counters = Counters::new();
    counters.insert("invariants.fnv".into(), gcln_engine::cache::fnv1a64(&learned));
    counters.insert("cegis_rounds".into(), subs.iter().map(|s| s.cegis_rounds).sum());
    counters.insert("attempts".into(), subs.iter().map(|s| s.attempts).sum());
    counters.insert("checker.counterexamples".into(), subs.iter().map(|s| s.counterexamples).sum());
    counters.insert(
        "jobs.solved".into(),
        subs.iter().filter(|s| s.verdict == Verdict::Solved).count() as u64,
    );
    for cache in ["spec_cache", "trace_cache"] {
        for field in ["hits", "misses"] {
            let v = stats.get(cache).and_then(|c| c.get(field)).and_then(Json::as_u64).unwrap_or(0);
            counters.insert(format!("{cache}.{field}"), v);
        }
    }
    for (kind, (_, count)) in &metrics.task_kinds {
        counters.insert(format!("tasks.{kind}"), *count as u64);
    }
    pass.counters = counters;
    pass.jobs = subs
        .iter()
        .map(|s| JobResult {
            name: plan.sources[s.source].0.clone(),
            verdict: s.verdict,
            busy_s: s.seconds,
            latency_s: s.latency,
        })
        .collect();
    if tracer.is_some() {
        pass.layers = layer_figures(&subs, &stats, &metrics);
    }
    Ok(pass)
}

/// The figures `/metrics` exposes that the benchmark reads.
#[derive(Default)]
struct Exposition {
    /// Per task kind: (seconds sum, count).
    task_kinds: BTreeMap<String, (f64, f64)>,
    /// Queue-wait histogram, cumulative per `le` bound in order.
    queue_wait_cumulative: Vec<(f64, f64)>,
    utilization: f64,
    tasks_executed: f64,
}

fn parse_metrics(text: &str) -> Exposition {
    let mut out = Exposition::default();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((series, value)) = line.rsplit_once(' ') else { continue };
        let Ok(value) = value.parse::<f64>() else { continue };
        let (name, labels) = series.split_once('{').unwrap_or((series, ""));
        let label = |key: &str| {
            labels.split(',').find_map(|kv| {
                let (k, v) = kv.split_once('=')?;
                (k == key).then(|| v.trim_end_matches('}').trim_matches('"').to_string())
            })
        };
        match name {
            "gcln_sched_task_duration_seconds_sum" => {
                if let Some(kind) = label("kind") {
                    out.task_kinds.entry(kind).or_default().0 = value;
                }
            }
            "gcln_sched_task_duration_seconds_count" => {
                if let Some(kind) = label("kind") {
                    out.task_kinds.entry(kind).or_default().1 = value;
                }
            }
            "gcln_sched_queue_wait_seconds_bucket" => {
                let le = label("le").map_or(f64::INFINITY, |b| b.parse().unwrap_or(f64::INFINITY));
                out.queue_wait_cumulative.push((le, value));
            }
            "gcln_sched_worker_utilization" => out.utilization = value,
            "gcln_sched_tasks_executed_total" => out.tasks_executed = value,
            _ => {}
        }
    }
    out
}

fn layer_figures(subs: &[Submission], stats: &Json, metrics: &Exposition) -> Vec<(String, f64)> {
    let mut layers = Vec::new();
    let engine_total: f64 = metrics.task_kinds.values().map(|(s, _)| s).sum();
    for kind in gcln_engine::TaskKind::ALL {
        let (sum, count) = metrics.task_kinds.get(kind.as_str()).copied().unwrap_or((0.0, 0.0));
        layers.push((format!("engine.{kind}.self_s"), sum));
        layers.push((format!("engine.{kind}.tasks"), count));
    }
    for kind in ["train", "bounds"] {
        let sum = metrics.task_kinds.get(kind).map_or(0.0, |(s, _)| *s);
        let share = if engine_total > 0.0 { sum / engine_total } else { 0.0 };
        layers.push((format!("engine.{kind}.share"), share));
    }
    layers.push(("sched.utilization".into(), metrics.utilization));
    let bounds: Vec<f64> =
        metrics.queue_wait_cumulative.iter().map(|(le, _)| *le).filter(|b| b.is_finite()).collect();
    let mut prev = 0.0;
    let counts: Vec<u64> = metrics
        .queue_wait_cumulative
        .iter()
        .map(|(_, cum)| {
            let c = (cum - prev).max(0.0) as u64;
            prev = *cum;
            c
        })
        .collect();
    layers
        .push(("sched.queue_wait_p50_ms".into(), histogram_quantile(&bounds, &counts, 0.5) * 1e3));
    layers.push(("sched.tasks_executed".into(), metrics.tasks_executed));
    let answered = subs.iter().filter(|s| s.verdict != Verdict::Refused).count().max(1);
    layers.push((
        "serve.polls_per_job".into(),
        subs.iter().map(|s| s.polls).sum::<u64>() as f64 / answered as f64,
    ));
    layers.push((
        "serve.refused".into(),
        subs.iter().filter(|s| s.verdict == Verdict::Refused).count() as f64,
    ));
    for cache in ["spec_cache", "trace_cache"] {
        let field =
            |f: &str| stats.get(cache).and_then(|c| c.get(f)).and_then(Json::as_f64).unwrap_or(0.0);
        let (hits, misses) = (field("hits"), field("misses"));
        let ratio = if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 };
        layers.push((format!("serve.{cache}.hit_ratio"), ratio));
    }
    let journal_bytes = stats
        .get("journal")
        .and_then(|j| j.get("size_bytes"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    layers.push(("serve.journal.bytes".into(), journal_bytes));
    layers
}

/// Client-call latencies from a traced pass's spans: `serve.post_p50_ms`
/// and `serve.get_p50_ms`.
pub fn call_figures(spans: &[Span]) -> Vec<(String, f64)> {
    let ms_of = |name: &str| -> Vec<f64> {
        spans.iter().filter(|s| s.name == name).map(|s| (s.end - s.start) * 1e3).collect()
    };
    vec![
        ("serve.post_p50_ms".into(), percentile(&ms_of("post"), 50.0)),
        ("serve.get_p50_ms".into(), percentile(&ms_of("get"), 50.0)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sends_every_source_four_times_in_seed_order() {
        let plan = Plan::new(3);
        assert_eq!(plan.sources.len(), SOURCES);
        assert_eq!(plan.sequence.len(), SOURCES * COPIES);
        for s in 0..SOURCES {
            assert_eq!(plan.sequence.iter().filter(|&&x| x == s).count(), COPIES);
        }
        assert_eq!(plan.sequence, Plan::new(3).sequence);
        assert_ne!(plan.sequence, Plan::new(4).sequence);
    }

    #[test]
    fn exposition_figures_are_read() {
        let text = "# TYPE gcln_sched_task_duration_seconds histogram\n\
            gcln_sched_task_duration_seconds_bucket{kind=\"train\",le=\"0.5\"} 3\n\
            gcln_sched_task_duration_seconds_sum{kind=\"train\"} 1.25\n\
            gcln_sched_task_duration_seconds_count{kind=\"train\"} 4\n\
            gcln_sched_queue_wait_seconds_bucket{le=\"0.001\"} 6\n\
            gcln_sched_queue_wait_seconds_bucket{le=\"+Inf\"} 8\n\
            gcln_sched_worker_utilization 0.875\n\
            gcln_sched_tasks_executed_total 12\n";
        let m = parse_metrics(text);
        assert_eq!(m.task_kinds.get("train"), Some(&(1.25, 4.0)));
        assert_eq!(m.queue_wait_cumulative, vec![(0.001, 6.0), (f64::INFINITY, 8.0)]);
        assert_eq!(m.utilization, 0.875);
        assert_eq!(m.tasks_executed, 12.0);
    }
}
