//! `e2ebench` — one end-to-end benchmark for the G-CLN system.
//!
//! ```text
//! e2ebench --workload <nla-table2|linear-suite|serve-repeat> --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it runs whole passes of the workload for about `S`
//! seconds (at least one) and reports the end-to-end metrics; with
//! `--trace 1` it runs one untraced and one traced pass and reports the
//! per-layer metrics plus the tracing overhead. Either way it checks
//! every verdict, compares the deterministic work counters between the
//! passes and against any earlier run of the same sources and seed,
//! writes a result record (and, traced, a span file) under
//! `.bench_out/`, and prints one JSON object as its last stdout line.
//! See `e2ebench/README.md` for the workloads and metrics.

mod batch;
mod host;
mod serve;
mod stats;
mod trace;

use stats::{median, percentile, FailureShare, Verdict};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Deterministic work counters of one pass, by name.
pub type Counters = BTreeMap<String, u64>;

/// One attempted job of a pass.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Problem or source name.
    pub name: String,
    /// How it ended.
    pub verdict: Verdict,
    /// Compute time the system reports for the job, seconds.
    pub busy_s: f64,
    /// Submission to verdict, seconds.
    pub latency_s: f64,
}

/// One pass over a workload.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// First submission to last verdict, seconds.
    pub wall_s: f64,
    /// Process CPU seconds spent during the pass.
    pub cpu_s: f64,
    /// Every attempted job.
    pub jobs: Vec<JobResult>,
    /// Deterministic work counters.
    pub counters: Counters,
    /// Per-layer figures (filled where the pass measured them).
    pub layers: Vec<(String, f64)>,
    /// Correctness violations found while judging the pass.
    pub violations: Vec<String>,
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Time by which a traced run must be done with its passes (every run
/// must exit within 180 s).
const RUN_LIMIT: Duration = Duration::from_secs(160);

const WORKLOADS: [&str; 3] = ["nla-table2", "linear-suite", "serve-repeat"];

/// End-to-end metrics: name, unit, direction.
const END_TO_END: [(&str, &str, &str); 9] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("solved_ratio", "ratio", "higher"),
    ("job_p50_s", "s", "lower"),
    ("tail_s", "s", "lower"),
    ("latency_p50_s", "s", "lower"),
    ("latency_p90_s", "s", "lower"),
];

/// Per-layer metrics: name, unit, direction. Layers a workload does not
/// reach (serve on the batch workloads; `advance` and the checker's
/// internal counts through HTTP) report 0.
const PER_LAYER: [(&str, &str, &str); 41] = [
    ("engine.trace.self_s", "s", "lower"),
    ("engine.setup.self_s", "s", "lower"),
    ("engine.train.self_s", "s", "lower"),
    ("engine.extract.self_s", "s", "lower"),
    ("engine.kernel.self_s", "s", "lower"),
    ("engine.bounds.self_s", "s", "lower"),
    ("engine.fractional.self_s", "s", "lower"),
    ("engine.check.self_s", "s", "lower"),
    ("engine.advance.self_s", "s", "lower"),
    ("engine.trace.tasks", "count", "lower"),
    ("engine.setup.tasks", "count", "lower"),
    ("engine.train.tasks", "count", "lower"),
    ("engine.extract.tasks", "count", "lower"),
    ("engine.kernel.tasks", "count", "lower"),
    ("engine.bounds.tasks", "count", "lower"),
    ("engine.fractional.tasks", "count", "lower"),
    ("engine.check.tasks", "count", "lower"),
    ("engine.advance.calls", "count", "lower"),
    ("engine.train.share", "ratio", "lower"),
    ("engine.bounds.share", "ratio", "lower"),
    ("engine.cegis_rounds", "count", "lower"),
    ("engine.attempts", "count", "lower"),
    ("checker.bounded_checks", "count", "lower"),
    ("checker.symbolically_proved", "count", "higher"),
    ("checker.counterexamples", "count", "lower"),
    ("sched.utilization", "ratio", "higher"),
    ("sched.queue_wait_p50_ms", "ms", "lower"),
    ("sched.tasks_executed", "count", "lower"),
    ("sched.job_wait_s", "s", "lower"),
    ("serve.post_p50_ms", "ms", "lower"),
    ("serve.get_p50_ms", "ms", "lower"),
    ("serve.polls_per_job", "count", "lower"),
    ("serve.refused", "count", "lower"),
    ("serve.spec_cache.hit_ratio", "ratio", "higher"),
    ("serve.trace_cache.hit_ratio", "ratio", "higher"),
    ("serve.journal.bytes", "bytes", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.recording_s", "s", "lower"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: e2ebench --workload <nla-table2|linear-suite|serve-repeat> --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value:?}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Escapes and quotes a string for JSON output.
pub fn json_str(s: &str) -> String {
    gcln_engine::events::json_string(s)
}

/// A JSON number; non-finite values (never expected) render as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Seeded Fisher–Yates shuffle (SplitMix64 stream).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Everything a run measured, before rendering.
struct Run {
    setups: Vec<f64>,
    passes: Vec<Pass>,
    /// The traced pass (trace mode only), with its spans.
    traced: Option<(Pass, Vec<stats::Span>)>,
}

fn run_workload(args: &Args) -> Result<Run, String> {
    let run_started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let suite: Option<fn() -> Vec<gcln_problems::Problem>> = match args.workload.as_str() {
        "nla-table2" => Some(gcln_problems::nla::nla_suite),
        "linear-suite" => Some(gcln_problems::linear::linear_suite),
        _ => None,
    };
    // Set-up is timed in two bursts, before and after the passes, so
    // its median does not rest on the host's state at one instant.
    let time_setups = |reps: std::ops::Range<usize>| -> Result<Vec<f64>, String> {
        reps.map(|rep| match suite {
            Some(suite) => Ok(batch::time_setup(suite, args.seed)),
            None => serve::time_setup(args.seed, rep).map_err(|e| format!("server start: {e}")),
        })
        .collect()
    };
    let mut setups = time_setups(0..SETUP_REPS / 2 + 1)?;
    let untraced = |tag: &str| -> Result<Pass, String> {
        match suite {
            Some(suite) => Ok(batch::run_scheduled(&batch::Batch::new(suite, args.seed))),
            None => serve::run_pass(&serve::Plan::new(args.seed), tag, None)
                .map_err(|e| format!("serve pass: {e}")),
        }
    };
    if !args.trace {
        let started = Instant::now();
        let mut passes = Vec::new();
        loop {
            passes.push(untraced(&format!("pass{}", passes.len()))?);
            let elapsed = started.elapsed();
            // Run whole passes only: stop once another would overrun.
            if elapsed + elapsed / passes.len() as u32 > budget {
                break;
            }
        }
        setups.extend(time_setups(setups.len()..SETUP_REPS)?);
        return Ok(Run { setups, passes, traced: None });
    }
    let traced = || -> Result<(Pass, Vec<stats::Span>), String> {
        let tracer = trace::Tracer::new();
        let mut pass = match suite {
            Some(suite) => batch::run_traced(&batch::Batch::new(suite, args.seed), &tracer),
            None => serve::run_pass(&serve::Plan::new(args.seed), "traced", Some(&tracer))
                .map_err(|e| format!("serve pass: {e}"))?,
        };
        let spans = tracer.into_spans();
        match suite {
            Some(_) => batch::layer_figures(&mut pass, &spans),
            None => pass.layers.extend(serve::call_figures(&spans)),
        }
        Ok((pass, spans))
    };
    let traced = traced()?;
    // The untraced pass runs only if it can still end inside the run
    // limit at the traced pass's pace (a slow host can double it).
    let mut passes = Vec::new();
    let pace = Duration::from_secs_f64(traced.0.wall_s * 1.25);
    if run_started.elapsed() + pace < RUN_LIMIT {
        passes.push(untraced("untraced")?);
    } else {
        eprintln!("e2ebench: untraced pass skipped: it would not end within {RUN_LIMIT:?}");
    }
    setups.extend(time_setups(setups.len()..SETUP_REPS)?);
    Ok(Run { setups, passes, traced: Some(traced) })
}

/// Counter names where the two sides of a comparison differ (a missing
/// counter reads as 0).
fn counter_mismatches(a: &Counters, b: &Counters) -> Vec<String> {
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    keys.into_iter()
        .filter_map(|k| {
            let (x, y) = (a.get(k).copied().unwrap_or(0), b.get(k).copied().unwrap_or(0));
            (x != y).then(|| format!("{k}: {x} vs {y}"))
        })
        .collect()
}

fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// Compares `counters` with the record of an earlier run of the same
/// workload, seed and sources (writing it if there is none). Returns
/// the mismatches.
fn check_stored_counters(args: &Args, host: &host::Host, counters: &Counters) -> Vec<String> {
    let path = out_dir()
        .join("counters")
        .join(format!("{}-seed{}-{:016x}.txt", args.workload, args.seed, host.fingerprint));
    let render = |c: &Counters| c.iter().map(|(k, v)| format!("{k} {v}\n")).collect::<String>();
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            let stored: Counters = text
                .lines()
                .filter_map(|l| l.split_once(' '))
                .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
                .collect();
            counter_mismatches(&stored, counters)
        }
        Err(_) => {
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&path, render(counters)));
            if let Err(e) = written {
                eprintln!("e2ebench: could not store counters at {}: {e}", path.display());
            }
            Vec::new()
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::gather();
    let run = match run_workload(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut all_passes: Vec<&Pass> = run.passes.iter().collect();
    if let Some((traced, _)) = &run.traced {
        all_passes.push(traced);
    }
    let mut violations: Vec<String> =
        all_passes.iter().flat_map(|p| p.violations.iter().cloned()).collect();
    // Work counters must repeat exactly: between passes of this run…
    let reference = &all_passes[0].counters;
    for (i, pass) in all_passes.iter().enumerate().skip(1) {
        for m in counter_mismatches(reference, &pass.counters) {
            violations.push(format!("nondeterminism: pass {i} counter {m}"));
        }
    }
    // …and against an earlier run of the same code and seed.
    for m in check_stored_counters(&args, &host, reference) {
        violations.push(format!("nondeterminism: stored counter {m}"));
    }

    let verdicts: Vec<Verdict> =
        all_passes.iter().flat_map(|p| p.jobs.iter().map(|j| j.verdict)).collect();
    let share = FailureShare::of(&verdicts);
    let batch = args.workload != "serve-repeat";
    let metrics =
        if args.trace { per_layer(&run, reference) } else { end_to_end(&run, share, batch) };

    // Human-readable report, then the record and the JSON line.
    println!(
        "e2ebench workload={} seed={} seconds={} trace={} passes={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        all_passes.len()
    );
    println!(
        "host: nproc={} cpu={:?} rustc={:?} git={} sources={:016x}",
        host.nproc, host.cpu_model, host.rustc, host.git_rev, host.fingerprint
    );
    let table: &[(&str, &str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit, better) in table {
        let value = metrics.get(*name).copied().unwrap_or(0.0);
        println!("{name:<30} {value:>14.6} {unit:<6} ({better} is better)");
    }
    if args.trace {
        print_layer_table(&run, &metrics);
    } else {
        print_latency_note(&run);
    }
    println!(
        "verdicts: attempted={} failed={} solved_ratio={:.4}",
        share.attempted,
        share.failed,
        share.solved_ratio()
    );
    for v in &violations {
        println!("VIOLATION {v}");
    }
    let correct = violations.is_empty();
    if let Err(e) = write_record(&args, &host, &run, &metrics, reference, correct) {
        eprintln!("e2ebench: could not write the result record: {e}");
    }
    let rendered: Vec<String> = table
        .iter()
        .map(|(name, unit, _)| {
            let value = metrics.get(*name).copied().unwrap_or(0.0);
            format!(
                r#"{}:{{"value":{},"unit":{}}}"#,
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        share.attempted.max(1),
        share.failed,
        rendered.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics of an untraced run. On the batch workloads,
/// where every job is submitted at once and completion times mostly
/// reflect the seed's submission order, the latency percentiles are
/// taken over each job's exclusive compute (the verdict latency on an
/// idle pool); on `serve-repeat` they are client-observed.
fn end_to_end(run: &Run, share: FailureShare, batch: bool) -> BTreeMap<String, f64> {
    let passes = &run.passes;
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let busy: Vec<f64> = passes.iter().flat_map(|p| p.jobs.iter().map(|j| j.busy_s)).collect();
    let latencies: Vec<f64> = if batch {
        busy.clone()
    } else {
        passes.iter().flat_map(|p| p.jobs.iter().map(|j| j.latency_s)).collect()
    };
    let mut m = BTreeMap::new();
    m.insert("setup_s".into(), median(&run.setups));
    m.insert("wall_s".into(), per_pass(&|p| p.wall_s));
    m.insert("cpu_s".into(), per_pass(&|p| p.cpu_s));
    m.insert("peak_rss_mb".into(), host::peak_rss_mb());
    m.insert("solved_ratio".into(), share.solved_ratio());
    m.insert("job_p50_s".into(), median(&busy));
    m.insert("tail_s".into(), per_pass(&slowest_program));
    m.insert("latency_p50_s".into(), percentile(&latencies, 50.0));
    m.insert("latency_p90_s".into(), percentile(&latencies, 90.0));
    m
}

/// The slowest program's compute in a pass: the largest, over distinct
/// job names, of the median busy time of that name's jobs. Each batch
/// job is its own program; a serve source's copies share one.
fn slowest_program(pass: &Pass) -> f64 {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for j in &pass.jobs {
        by_name.entry(&j.name).or_default().push(j.busy_s);
    }
    by_name.values().map(|v| median(v)).fold(0.0, f64::max)
}

fn per_layer(run: &Run, counters: &Counters) -> BTreeMap<String, f64> {
    let (traced, spans) = run.traced.as_ref().expect("trace mode has a traced pass");
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    // The traced pass supplies everything measured by spans; a batch
    // workload's untraced pass adds the scheduler's own view.
    m.extend(traced.layers.iter().chain(run.passes.iter().flat_map(|p| &p.layers)).cloned());
    let count = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
    m.insert("engine.cegis_rounds".into(), count("cegis_rounds"));
    m.insert("engine.attempts".into(), count("attempts"));
    for k in ["checker.bounded_checks", "checker.symbolically_proved", "checker.counterexamples"] {
        m.insert(k.into(), count(k));
    }
    m.insert("trace.traced_wall_s".into(), traced.wall_s);
    if let Some(plain) = run.passes.first() {
        m.insert("trace.untraced_wall_s".into(), plain.wall_s);
        m.insert("trace.overhead_s".into(), traced.wall_s - plain.wall_s);
    }
    m.insert("trace.spans".into(), spans.len() as f64);
    m.insert("trace.recording_s".into(), spans.len() as f64 * trace::span_cost());
    m
}

/// The per-layer self-time table of a traced run, with the tracing
/// overhead line.
fn print_layer_table(run: &Run, metrics: &BTreeMap<String, f64>) {
    let (traced, spans) = run.traced.as_ref().expect("trace mode has a traced pass");
    let layer = |name: &str| traced.layers.iter().find(|(k, _)| k == name).map_or(0.0, |(_, v)| *v);
    let rows: Vec<(&str, f64, f64)> = gcln_engine::TaskKind::ALL
        .iter()
        .map(|k| k.as_str())
        .chain(["advance"])
        .map(|k| {
            let calls_key = if k == "advance" {
                "engine.advance.calls".to_string()
            } else {
                format!("engine.{k}.tasks")
            };
            (k, layer(&format!("engine.{k}.self_s")), layer(&calls_key))
        })
        .collect();
    let total: f64 = rows.iter().map(|r| r.1).sum();
    println!("per-layer self time (traced pass, {} spans):", spans.len());
    println!("  {:<12} {:>10} {:>8} {:>8}", "layer", "self_s", "share", "calls");
    for (name, own, calls) in rows {
        let share = if total > 0.0 { 100.0 * own / total } else { 0.0 };
        println!("  {name:<12} {own:>10.3} {share:>7.1}% {calls:>8}");
    }
    let recording = metrics.get("trace.recording_s").copied().unwrap_or(0.0);
    match run.passes.first() {
        Some(plain) => println!(
            "tracing overhead: traced wall {:.3}s - untraced wall {:.3}s = {:+.3}s ({:+.2}%); \
             recording {} spans costs {recording:.6}s",
            traced.wall_s,
            plain.wall_s,
            traced.wall_s - plain.wall_s,
            100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s.max(f64::MIN_POSITIVE),
            spans.len(),
        ),
        None => println!(
            "tracing overhead: untraced pass skipped; recording {} spans costs {recording:.6}s",
            spans.len()
        ),
    }
}

/// States how many latency samples back the reported percentiles.
fn print_latency_note(run: &Run) {
    let n: usize = run.passes.iter().map(|p| p.jobs.len()).sum();
    match stats::highest_supported_percentile(n, 10) {
        Some(p) if p >= 90 => println!("latency: {n} samples; p90 has >= 10 samples beyond it"),
        Some(p) => println!(
            "latency: {n} samples; the highest percentile with >= 10 samples beyond is p{p}, \
             so latency_p90_s rests on {} samples beyond it",
            stats::samples_beyond(n, 90.0)
        ),
        None => println!("latency: {n} samples; too few for ten beyond even the median"),
    }
}

fn write_record(
    args: &Args,
    host: &host::Host,
    run: &Run,
    metrics: &BTreeMap<String, f64>,
    counters: &Counters,
    correct: bool,
) -> std::io::Result<()> {
    let dir = out_dir().join("results");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let obj = |pairs: Vec<String>| format!("{{{}}}", pairs.join(","));
    let metrics_json =
        obj(metrics.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v))).collect());
    let counters_json = obj(counters.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect());
    let walls: Vec<String> = run.passes.iter().map(|p| json_num(p.wall_s)).collect();
    let jobs: Vec<String> = run
        .passes
        .iter()
        .chain(run.traced.as_ref().map(|(p, _)| p))
        .flat_map(|p| &p.jobs)
        .map(|j| {
            format!(
                r#"{{"name":{},"verdict":"{:?}","busy_s":{},"latency_s":{}}}"#,
                json_str(&j.name),
                j.verdict,
                json_num(j.busy_s),
                json_num(j.latency_s)
            )
        })
        .collect();
    let record = format!(
        r#"{{"workload":{},"seed":{},"seconds":{},"trace":{},"correct":{correct},"host":{},"setups_s":[{}],"pass_walls_s":[{}],"metrics":{metrics_json},"counters":{counters_json},"jobs":[{}]}}"#,
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        host.to_json(),
        run.setups.iter().map(|s| json_num(*s)).collect::<Vec<_>>().join(","),
        walls.join(","),
        jobs.join(",")
    );
    std::fs::write(dir.join(format!("{stem}.json")), record + "\n")?;
    if let Some((_, spans)) = &run.traced {
        trace::write_spans(&out_dir().join("spans").join(format!("{stem}.jsonl")), spans)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let base: Vec<u32> = (0..50).collect();
        let (mut a, mut b, mut c) = (base.clone(), base.clone(), base.clone());
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        shuffle(&mut c, 8);
        assert_eq!(a, b, "same seed, same order");
        assert_ne!(a, c, "another seed, another order");
        a.sort_unstable();
        assert_eq!(a, base, "a permutation");
    }

    #[test]
    fn missing_counters_read_as_zero() {
        let a: Counters = [("tasks.train".to_string(), 4), ("attempts".to_string(), 2)].into();
        let mut b = a.clone();
        assert!(counter_mismatches(&a, &b).is_empty());
        b.insert("tasks.train".into(), 5);
        b.insert("tasks.fractional".into(), 0);
        assert_eq!(counter_mismatches(&a, &b), vec!["tasks.train: 4 vs 5".to_string()]);
        b.insert("tasks.check".into(), 1);
        assert_eq!(counter_mismatches(&a, &b).len(), 2);
    }

    #[test]
    fn slowest_program_takes_the_median_of_its_copies() {
        let job = |name: &str, busy_s: f64| JobResult {
            name: name.into(),
            verdict: Verdict::Solved,
            busy_s,
            latency_s: 0.0,
        };
        let pass = Pass {
            jobs: vec![job("a", 1.0), job("a", 9.0), job("a", 2.0), job("b", 3.0)],
            ..Pass::default()
        };
        assert_eq!(slowest_program(&pass), 3.0);
    }
}
