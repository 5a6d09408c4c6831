//! The batch workloads: a whole problem suite submitted at once, under
//! the `table2 --fast` profile, at two workers.
//!
//! The timed pass goes through the stage-graph scheduler exactly like
//! `gcln table2` / `gcln suite`: `Scheduler::submit_with` per problem,
//! per-job [`JobStats`] from the done hook, `Scheduler::metrics()` at the
//! end. The traced pass drives every job's [`StagedJob`] from this file
//! on the same number of threads, recording one span per `advance()`
//! and per `Task::execute()` under a span per job.

use crate::stats::{histogram_quantile, Span, Verdict};
use crate::trace::Tracer;
use crate::{Counters, JobResult, Pass};
use gcln_bench::{solve_status, SolveFailure};
use gcln_engine::{
    Engine, GclnConfig, InferenceOutcome, Job, PipelineConfig, ProblemSpec, StagedJob, Step, Task,
    TaskKind,
};
use gcln_problems::Problem;
use gcln_sched::{JobStats, SchedConfig, Scheduler, SubmitOptions};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Scheduler workers (and traced-driver threads) for every batch pass.
pub const WORKERS: usize = 2;

/// The suite-level `--fast` profile of `gcln table2` / `gcln suite`:
/// 1200 epochs, 2 attempts, the default 2 CEGIS rounds.
pub fn fast_suite_config() -> PipelineConfig {
    PipelineConfig {
        gcln: GclnConfig { max_epochs: 1200, ..GclnConfig::default() },
        max_attempts: 2,
        ..PipelineConfig::default()
    }
}

/// A batch workload made ready to run: the problems in seed order.
pub struct Batch {
    problems: Vec<Problem>,
    config: PipelineConfig,
}

impl Batch {
    /// Builds the suite and orders it by `seed`.
    pub fn new(suite: fn() -> Vec<Problem>, seed: u64) -> Batch {
        let mut problems = suite();
        crate::shuffle(&mut problems, seed);
        Batch { problems, config: fast_suite_config() }
    }

    fn jobs(&self) -> Vec<Job> {
        self.problems
            .iter()
            .map(|p| Job::new(ProblemSpec::from(p.clone())).with_config(self.config.clone()))
            .collect()
    }
}

/// One set-up as a user of the batch path pays it: suite registry build,
/// job construction, scheduler start. Returns seconds; the scheduler is
/// shut down again (untimed).
pub fn time_setup(suite: fn() -> Vec<Problem>, seed: u64) -> f64 {
    let t0 = Instant::now();
    let batch = Batch::new(suite, seed);
    let jobs = batch.jobs();
    let sched = Scheduler::new(SchedConfig::with_workers(WORKERS));
    let took = t0.elapsed().as_secs_f64();
    drop(jobs);
    sched.shutdown();
    took
}

/// The timed pass: every job through the stage-graph scheduler.
pub fn run_scheduled(batch: &Batch) -> Pass {
    let sched = Scheduler::new(SchedConfig::with_workers(WORKERS));
    let jobs = batch.jobs();
    // Per job: its stats and when its verdict arrived.
    type Slots = Arc<Mutex<Vec<Option<(JobStats, f64)>>>>;
    let done: Slots = Arc::new(Mutex::new(vec![None; jobs.len()]));
    let cpu0 = crate::host::cpu_seconds();
    let t0 = Instant::now();
    let tickets: Vec<_> = jobs
        .into_iter()
        .enumerate()
        .map(|(i, job)| {
            let done = done.clone();
            sched.submit_with(
                job,
                SubmitOptions::default(),
                None,
                Some(Box::new(move |_: &InferenceOutcome, stats: &JobStats| {
                    let at = t0.elapsed().as_secs_f64();
                    done.lock().expect("done slots poisoned")[i] = Some((*stats, at));
                })),
            )
        })
        .collect();
    let outcomes: Vec<Arc<InferenceOutcome>> = tickets.iter().map(|t| t.wait()).collect();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = crate::host::cpu_seconds() - cpu0;
    let metrics = sched.metrics();
    sched.shutdown();

    let done = done.lock().expect("done slots poisoned");
    let timings: Vec<(f64, f64)> = done
        .iter()
        .map(|d| d.map_or((0.0, wall), |(stats, at)| (stats.busy.as_secs_f64(), at)))
        .collect();
    let mut pass = judge(batch, &outcomes, &timings, wall, cpu);
    for (kind, histogram) in &metrics.tasks {
        pass.counters.insert(format!("tasks.{kind}"), histogram.count);
    }
    let ms = |s: f64| s * 1e3;
    pass.layers.push(("sched.utilization".into(), metrics.utilization()));
    pass.layers.push((
        "sched.queue_wait_p50_ms".into(),
        ms(histogram_quantile(
            &gcln_sched::metrics::BUCKET_BOUNDS,
            &metrics.queue_wait.counts,
            0.5,
        )),
    ));
    pass.layers.push(("sched.tasks_executed".into(), metrics.tasks_executed as f64));
    pass
}

/// Applies the Table 2 solved criterion and gathers the deterministic
/// work counters of one pass.
fn judge(
    batch: &Batch,
    outcomes: &[Arc<InferenceOutcome>],
    timings: &[(f64, f64)],
    wall: f64,
    cpu: f64,
) -> Pass {
    let mut pass = Pass { wall_s: wall, cpu_s: cpu, ..Pass::default() };
    let mut counters = Counters::new();
    let mut learned = Vec::new();
    for ((problem, outcome), &(busy, at)) in batch.problems.iter().zip(outcomes).zip(timings) {
        let verdict = if outcome.stopped.is_some() {
            pass.violations.push(format!(
                "{}: stopped early ({:?}) without any stop condition set",
                problem.name, outcome.stopped
            ));
            Verdict::Lost
        } else {
            match solve_status(problem, outcome) {
                Ok(()) => Verdict::Solved,
                Err(SolveFailure::InvalidInvariant) => Verdict::Invalid,
                Err(_) => Verdict::Unsolved,
            }
        };
        let names = problem.extended_names();
        let formulas: Vec<String> =
            outcome.loops.iter().map(|l| l.formula.display(&names).to_string()).collect();
        learned.extend_from_slice(problem.name.as_bytes());
        for f in &formulas {
            learned.extend_from_slice(f.as_bytes());
        }
        *counters.entry("cegis_rounds".into()).or_default() += outcome.cegis_rounds_used as u64;
        *counters.entry("attempts".into()).or_default() +=
            outcome.loops.iter().map(|l| l.attempts as u64).sum::<u64>();
        *counters.entry("checker.bounded_checks".into()).or_default() +=
            outcome.report.bounded_checks as u64;
        *counters.entry("checker.symbolically_proved".into()).or_default() +=
            outcome.report.symbolically_proved as u64;
        *counters.entry("checker.counterexamples".into()).or_default() += outcome
            .events
            .iter()
            .filter(|e| matches!(e, gcln_engine::Event::Counterexample { .. }))
            .count()
            as u64;
        *counters.entry("jobs.solved".into()).or_default() += u64::from(verdict == Verdict::Solved);
        pass.jobs.push(JobResult {
            name: problem.name.clone(),
            verdict,
            busy_s: busy,
            latency_s: at,
        });
    }
    // Problems are hashed in seed order; the order is part of the
    // counter key (same seed ⇒ same order), so this stays comparable.
    counters.insert("invariants.fnv".into(), gcln_engine::cache::fnv1a64(&learned));
    pass.counters = counters;
    pass
}

/// A job being driven by [`run_traced`].
struct Driven {
    staged: StagedJob,
    outstanding: usize,
    busy: f64,
    started: f64,
}

enum Work {
    Start,
    Exec(Task),
}

/// The ready work of every job, served like the scheduler's ring at
/// one priority: one item per turn, round-robin across jobs.
struct Board {
    ring: VecDeque<usize>,
    queues: Vec<VecDeque<Work>>,
    remaining: usize,
}

impl Board {
    fn push(&mut self, job: usize, items: impl IntoIterator<Item = Work>) {
        let was_idle = self.queues[job].is_empty();
        self.queues[job].extend(items);
        if was_idle && !self.queues[job].is_empty() {
            self.ring.push_back(job);
        }
    }

    fn pop(&mut self) -> Option<(usize, Work)> {
        let job = self.ring.pop_front()?;
        let work = self.queues[job].pop_front().expect("a job in the ring has work");
        if !self.queues[job].is_empty() {
            self.ring.push_back(job);
        }
        Some((job, work))
    }
}

/// The traced pass: this file drives every job's `StagedJob` on
/// [`WORKERS`] threads with the scheduler's policy (tasks of all jobs
/// interleave round-robin), recording spans per job, per `advance()`
/// and per `Task::execute()`.
pub fn run_traced(batch: &Batch, tracer: &Tracer) -> Pass {
    let engine = Engine::new();
    let jobs = batch.jobs();
    let n = jobs.len();
    let slots: Vec<Mutex<Option<Driven>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let job_spans: Vec<u64> = (0..n).map(|_| tracer.reserve()).collect();
    // Per job: its outcome, busy seconds, and when it finished.
    type Finished = Option<(Arc<InferenceOutcome>, f64, f64)>;
    let results: Mutex<Vec<Finished>> = Mutex::new(vec![None; n]);
    let board = Mutex::new(Board {
        ring: (0..n).collect(),
        queues: (0..n).map(|_| VecDeque::from([Work::Start])).collect(),
        remaining: n,
    });
    let wake = Condvar::new();
    let cpu0 = crate::host::cpu_seconds();
    let t0 = Instant::now();

    // Runs `advance` until the job yields tasks (queued) or finishes.
    let advance = |i: usize, driven: &mut Driven| loop {
        let step = tracer.span(Some(job_spans[i]), "advance", i as u64, || driven.staged.advance());
        match step {
            Step::Run(tasks) if tasks.is_empty() => continue,
            Step::Run(tasks) => {
                driven.outstanding = tasks.len();
                board.lock().expect("board poisoned").push(i, tasks.into_iter().map(Work::Exec));
                wake.notify_all();
                return;
            }
            Step::Done(outcome) => {
                let end = tracer.now();
                tracer.record(job_spans[i], None, "job", i as u64, driven.started, end);
                results.lock().expect("results poisoned")[i] =
                    Some((Arc::new(*outcome), driven.busy, t0.elapsed().as_secs_f64()));
                let mut b = board.lock().expect("board poisoned");
                b.remaining -= 1;
                wake.notify_all();
                return;
            }
        }
    };

    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let work = {
                    let mut b = board.lock().expect("board poisoned");
                    loop {
                        if let Some(w) = b.pop() {
                            break Some(w);
                        }
                        if b.remaining == 0 {
                            break None;
                        }
                        b = wake.wait(b).expect("board poisoned");
                    }
                };
                match work {
                    None => return,
                    Some((i, Work::Start)) => {
                        let started = tracer.now();
                        let staged = StagedJob::new(&engine, &jobs[i]);
                        let mut slot = slots[i].lock().expect("job slot poisoned");
                        let driven =
                            slot.insert(Driven { staged, outstanding: 0, busy: 0.0, started });
                        advance(i, driven);
                    }
                    Some((i, Work::Exec(task))) => {
                        let kind = task.kind();
                        // Hold a slot of the rayon budget while executing,
                        // as the scheduler's workers do, so task-internal
                        // fan-outs do not stack a second pool on top.
                        let reserved = rayon::reserve_external_worker();
                        let start = tracer.now();
                        let done = task.execute();
                        let end = tracer.now();
                        drop(reserved);
                        let id = tracer.reserve();
                        tracer.record(id, Some(job_spans[i]), kind.as_str(), i as u64, start, end);
                        let mut slot = slots[i].lock().expect("job slot poisoned");
                        let driven = slot.as_mut().expect("job started before its tasks");
                        driven.busy += end - start;
                        driven.staged.complete(done);
                        driven.outstanding -= 1;
                        if driven.outstanding == 0 {
                            advance(i, driven);
                        }
                    }
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let cpu = crate::host::cpu_seconds() - cpu0;

    let results = results.into_inner().expect("results poisoned");
    let (outcomes, timings): (Vec<_>, Vec<_>) = results
        .into_iter()
        .map(|r| {
            let (outcome, busy, at) = r.expect("every driven job finishes");
            (outcome, (busy, at))
        })
        .unzip();
    judge(batch, &outcomes, &timings, wall, cpu)
}

/// Per-layer figures of a traced pass from its spans: self time per
/// layer, task counts per kind (also added to the pass's counters), and
/// the self-time shares of train and bounds.
pub fn layer_figures(pass: &mut Pass, spans: &[Span]) {
    let by_name = crate::stats::self_time_by_name(spans);
    let self_of = |name: &str| by_name.iter().find(|(n, _)| n == name).map_or(0.0, |(_, s)| *s);
    let engine_total: f64 =
        TaskKind::ALL.iter().map(|k| self_of(k.as_str())).sum::<f64>() + self_of("advance");
    for kind in TaskKind::ALL {
        let tasks = spans.iter().filter(|s| s.name == kind.as_str()).count() as u64;
        pass.counters.insert(format!("tasks.{kind}"), tasks);
        pass.layers.push((format!("engine.{kind}.self_s"), self_of(kind.as_str())));
        pass.layers.push((format!("engine.{kind}.tasks"), tasks as f64));
    }
    pass.layers.push(("engine.advance.self_s".into(), self_of("advance")));
    pass.layers.push((
        "engine.advance.calls".into(),
        spans.iter().filter(|s| s.name == "advance").count() as f64,
    ));
    for kind in ["train", "bounds"] {
        let share = if engine_total > 0.0 { self_of(kind) / engine_total } else { 0.0 };
        pass.layers.push((format!("engine.{kind}.share"), share));
    }
    // A job span's own time is time the job had nothing executing:
    // its ready tasks were waiting for a thread.
    pass.layers.push(("sched.job_wait_s".into(), self_of("job")));
}
