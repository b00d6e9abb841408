//! The `serve-zipf` workload: an open-loop request stream through the
//! serving layer's admission and cache calls.
//!
//! Every step gets its own stream from `serve::workload::generate` and
//! starts with emptied query caches. A request is handled the way a live
//! server handles it: the first sighting of a query is classified by
//! `serve::classify` (which executes it through the cache), repeats of an
//! admitted query are served from the cache, and repeats of a query
//! learned to be a runaway are shed.

use crate::layers::{ratio, EngineTally, Metrics};
use crate::openloop::{self, Answer, Timing};
use crate::util::{median, quantile, secs, sorted, thread_cpu_ns};
use footballdb::DataModel;
use nlq::gold::{build_benchmark, PipelineConfig};
use serve::admission::class_key;
use serve::workload::{self, Request, RequestKind, WorkloadSpec};
use serve::{AdmissionPolicy, ServeState, Verdict};
use sqlengine::{execute_sql_with_budget, trace_execute_sql_with_budget, EngineError, ResultSet};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The rate the end-to-end figures are reported at (requests per second
/// before bursts), and the first rung of the ladder.
pub const REFERENCE_RATE: u32 = 400;
/// Cold-cache episodes at the reference rate. Each episode's first
/// misses are a chance event; pooling several makes the tail a property
/// of the system rather than of one stream.
const REFERENCE_EPISODES: usize = 7;
/// Rates above the reference.
pub const LADDER_ABOVE: [u32; 3] = [800, 1600, 3200];
/// The p99 latency a rate must meet to count toward `max_ok_qps`.
pub const LIMIT_MS: f64 = 50.0;
/// Set-ups built per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// The ladder's rates: the reference rate, then the rates above it.
pub fn ladder() -> impl Iterator<Item = u32> {
    std::iter::once(REFERENCE_RATE).chain(LADDER_ABOVE)
}

/// What a step is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The first step: caches and admission both cold, so the first
    /// sighting of each runaway executes until its budget trips.
    ColdStart,
    /// Cold caches, runaways already learned.
    Reference,
    /// A ladder rate above the reference.
    Rung,
}

/// One rate step's stream, with each request's query resolved to an id.
struct Step {
    rate: u32,
    phase: Phase,
    kinds: Vec<RequestKind>,
    due_s: Vec<f64>,
    /// Per request: index into `Prepared::keys` (unused for no-SQL).
    key_of: Vec<usize>,
    duration_s: f64,
}

/// Everything set-up produces.
struct Prepared {
    steps: Vec<Step>,
    /// Distinct `(model, sql)` pairs over all steps.
    keys: Vec<(DataModel, String)>,
}

/// Every step of a run as (rate, stream seed, phase), each step with a
/// stream of its own.
fn schedule(seed: u64) -> Vec<(u32, u64, Phase)> {
    let derived = |e: u64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(e);
    let mut steps = vec![(REFERENCE_RATE, seed, Phase::ColdStart)];
    steps.extend(
        (1..=REFERENCE_EPISODES as u64).map(|e| (REFERENCE_RATE, derived(e), Phase::Reference)),
    );
    steps.extend(LADDER_ABOVE.iter().map(|&r| (r, seed, Phase::Rung)));
    steps
}

fn stream(
    state: &ServeState,
    benchmark: &nlq::Benchmark,
    rate: u32,
    seed: u64,
    step_s: f64,
) -> Vec<Request> {
    let spec = WorkloadSpec {
        rate_qps: rate as f64,
        duration_s: step_s,
        ..WorkloadSpec::default()
    };
    workload::generate(&state.domain, benchmark, seed, &spec)
}

/// Builds the serving state, the gold benchmark and every step's stream,
/// with hazard requests resolved to their model's runaway SQL.
fn prepare(seed: u64, step_s: f64) -> Prepared {
    let state = ServeState::build();
    let benchmark = build_benchmark(&state.domain, seed, &PipelineConfig::default());
    let hazards: HashMap<DataModel, String> = DataModel::ALL
        .iter()
        .map(|&m| (m, state.hazard_sql(m)))
        .collect();
    let mut ids: HashMap<(DataModel, String), usize> = HashMap::new();
    let mut keys = Vec::new();
    let steps = schedule(seed)
        .into_iter()
        .map(|(rate, stream_seed, phase)| {
            let requests = stream(&state, &benchmark, rate, stream_seed, step_s);
            let mut key_of = Vec::with_capacity(requests.len());
            for r in &requests {
                let sql = match r.kind {
                    RequestKind::NoSql => {
                        key_of.push(usize::MAX);
                        continue;
                    }
                    RequestKind::Hazard => &hazards[&r.model],
                    RequestKind::Gold(_) => &r.sql,
                };
                let key = class_key(r.model, sql);
                let next = keys.len();
                let id = *ids.entry(key.clone()).or_insert(next);
                if id == next {
                    keys.push(key);
                }
                key_of.push(id);
            }
            Step {
                rate,
                phase,
                due_s: requests.iter().map(|r| r.arrival_s).collect(),
                kinds: requests.into_iter().map(|r| r.kind).collect(),
                key_of,
                duration_s: step_s,
            }
        })
        .collect();
    Prepared { steps, keys }
}

const UNSEEN: u8 = 0;
const IN_FLIGHT: u8 = 1;
const ADMITTED: u8 = 2;
const RUNAWAY: u8 = 3;
const BROKEN: u8 = 4;

/// Layer counters shared by the workers of one step.
#[derive(Default)]
struct Counters {
    classify_calls: AtomicU64,
    classify_ns: AtomicU64,
    runaways: AtomicU64,
    shed: AtomicU64,
    execute_calls: AtomicU64,
    execute_ns: AtomicU64,
    handler_ns: AtomicU64,
    /// Wall time workers spent in the handler.
    busy_ns: AtomicU64,
}

/// What one step produced.
struct StepRun {
    phase: Phase,
    rate: u32,
    timings: Vec<Timing>,
    duration_s: f64,
    /// Per key: the first result served in this step.
    served: Vec<OnceLock<Arc<ResultSet>>>,
    /// Per key: the verdict admission learned in this step.
    verdicts: Vec<u8>,
    counters: Counters,
    cache: sqlengine::CacheStats,
    index: sqlengine::IndexStats,
}

/// Latencies in ms over a set of steps, ascending.
fn latencies_ms(runs: &[&StepRun]) -> Vec<f64> {
    sorted(
        runs.iter()
            .flat_map(|r| &r.timings)
            .map(|t| t.latency_s() * 1e3)
            .collect(),
    )
}

impl StepRun {
    /// Requests due in the step and still unanswered when it ended.
    fn backlog_end(&self) -> usize {
        openloop::backlog_at(&self.timings, self.duration_s)
    }

    /// Seconds after the step's end until its last request was answered.
    fn drain_s(&self) -> f64 {
        let last = self.timings.iter().map(|t| t.finish_s).fold(0.0, f64::max);
        (last - self.duration_s).max(0.0)
    }
}

/// A rate is sustained when its steps meet the latency limit and the
/// queue left at each step's end drains within the limit: a backlog that
/// kept growing would not.
fn sustained(runs: &[&StepRun]) -> bool {
    quantile(&latencies_ms(runs), 0.99) <= LIMIT_MS
        && runs.iter().all(|r| r.drain_s() * 1e3 <= LIMIT_MS)
}

/// Runs one step with emptied query caches. Queries in `blocklist` are
/// runaways admission learned in an earlier step: like a server that
/// restarts with an empty result cache but keeps its admission blocklist,
/// the step sheds them from the first sighting.
fn run_step(
    state: &ServeState,
    step: &Step,
    keys: &[(DataModel, String)],
    blocklist: &[bool],
    workers: usize,
    traced: bool,
) -> StepRun {
    // Index activity of all three databases, so a step reports its own.
    let index_stats = || {
        let mut total = sqlengine::IndexStats::default();
        for m in DataModel::ALL {
            let s = state.db(m).index_stats();
            total.builds += s.builds;
            total.probes += s.probes;
            total.hits += s.hits;
        }
        total
    };
    let index0 = index_stats();
    for m in DataModel::ALL {
        state.cache(m).clear();
    }
    let policy = AdmissionPolicy::default();
    let verdicts: Vec<AtomicU8> = blocklist
        .iter()
        .map(|&b| AtomicU8::new(if b { RUNAWAY } else { UNSEEN }))
        .collect();
    let served: Vec<OnceLock<Arc<ResultSet>>> = keys.iter().map(|_| OnceLock::new()).collect();
    let waiters: Vec<Mutex<Vec<usize>>> = keys.iter().map(|_| Mutex::new(Vec::new())).collect();
    let c = Counters::default();
    let cpu = || if traced { thread_cpu_ns() } else { 0 };

    // Serves request `i` once its query's verdict is known. `first` marks
    // the request whose sighting taught admission the verdict.
    let answer = |i: usize, code: u8, first: bool| -> Answer {
        let k = step.key_of[i];
        let hazard = step.kinds[i] == RequestKind::Hazard;
        match code {
            ADMITTED => {
                let (model, sql) = &keys[k];
                let t = cpu();
                let res =
                    state
                        .cache(*model)
                        .execute_budgeted(state.db(*model), sql, &policy.budget);
                c.execute_ns.fetch_add(cpu() - t, Ordering::Relaxed);
                c.execute_calls.fetch_add(1, Ordering::Relaxed);
                match res {
                    Ok(rs) if !hazard => {
                        served[k].get_or_init(|| rs);
                        Answer::Ok
                    }
                    _ => Answer::Failed,
                }
            }
            RUNAWAY => {
                let counter = if first { &c.runaways } else { &c.shed };
                counter.fetch_add(1, Ordering::Relaxed);
                if hazard {
                    Answer::Refused
                } else {
                    Answer::Failed
                }
            }
            _ => Answer::Failed,
        }
    };
    // A live server executes a query once however many requests for it
    // arrive meanwhile: requests for a query under classification wait for
    // its verdict without holding a worker.
    let handle = |i: usize, done: &openloop::Completions| -> Option<Answer> {
        if step.kinds[i] == RequestKind::NoSql {
            return Some(Answer::Ok);
        }
        let k = step.key_of[i];
        loop {
            match verdicts[k].load(Ordering::Acquire) {
                UNSEEN => {
                    if verdicts[k]
                        .compare_exchange(UNSEEN, IN_FLIGHT, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        continue;
                    }
                    let t = cpu();
                    let classes = serve::classify(state, std::slice::from_ref(&keys[k]), &policy);
                    c.classify_ns.fetch_add(cpu() - t, Ordering::Relaxed);
                    c.classify_calls.fetch_add(1, Ordering::Relaxed);
                    let code = match classes
                        .values()
                        .next()
                        .expect("one class per classified query")
                        .verdict
                    {
                        Verdict::Ok => ADMITTED,
                        Verdict::Runaway => RUNAWAY,
                        Verdict::Error => BROKEN,
                    };
                    let parked = {
                        let mut w = waiters[k]
                            .lock()
                            .expect("a worker panicked while parking a request");
                        verdicts[k].store(code, Ordering::Release);
                        std::mem::take(&mut *w)
                    };
                    for j in parked {
                        done.complete(j, answer(j, code, false));
                    }
                    return Some(answer(i, code, true));
                }
                IN_FLIGHT => {
                    let mut w = waiters[k]
                        .lock()
                        .expect("a worker panicked while parking a request");
                    if verdicts[k].load(Ordering::Acquire) == IN_FLIGHT {
                        w.push(i);
                        return None;
                    }
                }
                code => return Some(answer(i, code, false)),
            }
        }
    };
    let timings = openloop::run(&step.due_s, workers, |i, done| {
        let (t, wall) = (cpu(), Instant::now());
        let answer = handle(i, done);
        c.handler_ns.fetch_add(cpu() - t, Ordering::Relaxed);
        c.busy_ns
            .fetch_add(wall.elapsed().as_nanos() as u64, Ordering::Relaxed);
        answer
    });

    let index1 = index_stats();
    let index = sqlengine::IndexStats {
        builds: index1.builds - index0.builds,
        probes: index1.probes - index0.probes,
        hits: index1.hits - index0.hits,
    };
    StepRun {
        phase: step.phase,
        rate: step.rate,
        timings,
        duration_s: step.duration_s,
        served,
        verdicts: verdicts.iter().map(|v| v.load(Ordering::Relaxed)).collect(),
        counters: c,
        cache: state.cache_stats(),
        index,
    }
}

/// Checks served results against uncached executions under the admission
/// budget, executing each distinct query once per run.
struct Verifier {
    truth: HashMap<usize, Result<ResultSet, EngineError>>,
    traced: bool,
    /// Engine work of the uncached executions (traced runs only).
    engine: EngineTally,
}

impl Verifier {
    fn new(traced: bool) -> Verifier {
        Verifier {
            truth: HashMap::new(),
            traced,
            engine: EngineTally::default(),
        }
    }

    /// Returns the answers of `run` that were wrong: a served result that
    /// differs from the uncached one, or a runaway verdict for a query
    /// whose uncached run does not trip the budget.
    fn check(
        &mut self,
        state: &ServeState,
        keys: &[(DataModel, String)],
        step: &Step,
        run: &StepRun,
        notes: &mut Vec<String>,
    ) -> u64 {
        let budget = AdmissionPolicy::default().budget;
        let mut bad = 0;
        for (k, (model, sql)) in keys.iter().enumerate() {
            let served = run.served[k].get();
            if served.is_none() && run.verdicts[k] != RUNAWAY {
                continue;
            }
            let (engine, traced) = (&mut self.engine, self.traced);
            let truth = self.truth.entry(k).or_insert_with(|| {
                let db = state.db(*model);
                if traced {
                    let (res, span) = trace_execute_sql_with_budget(db, sql, &budget);
                    engine.add_root(&span);
                    res
                } else {
                    execute_sql_with_budget(db, sql, &budget)
                }
            });
            let wrong = match (served, &*truth) {
                (Some(rs), Ok(t)) => **rs != *t,
                (Some(_), Err(_)) => true,
                (None, res) => !matches!(res, Err(EngineError::BudgetExceeded { .. })),
            };
            if wrong {
                let n = step
                    .key_of
                    .iter()
                    .zip(&run.timings)
                    .filter(|(&id, t)| id == k && t.answer != Answer::Failed)
                    .count() as u64;
                notes.push(format!(
                    "rate {}: {n} answers for {model} `{sql}` differ from an uncached run",
                    run.rate
                ));
                bad += n;
            }
        }
        bad
    }
}

/// The outcome of one serve workload run.
pub struct ServeRun {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

/// Runs `serve-zipf`: set-up, the cold start, the reference episodes, the
/// ladder above the reference, and verification after every step.
pub fn run(seed: u64, seconds: f64, workers: usize, traced: bool) -> ServeRun {
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let step_s = seconds / (1 + REFERENCE_EPISODES + LADDER_ABOVE.len()) as f64;

    let mut setup_times = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(prepare(seed, step_s));
        setup_times.push(secs(t));
    }
    let prepared = prepared.expect("at least one set-up");
    m.set("setup_s", median(&setup_times));
    if traced {
        crate::setup_layers(seed, false, &mut m);
        let state = ServeState::build();
        let benchmark = build_benchmark(&state.domain, seed, &PipelineConfig::default());
        let t = Instant::now();
        for (rate, stream_seed, _) in schedule(seed) {
            std::hint::black_box(stream(&state, &benchmark, rate, stream_seed, step_s));
        }
        m.set("serve.workload_gen_s", secs(t));
    }

    // The cold start, the reference episodes, then the ladder above the
    // reference; every step runs, so a run's length and memory do not
    // depend on where the ladder tops out. Each step is verified and its
    // results dropped before the next.
    let mut runs: Vec<StepRun> = Vec::new();
    let mut blocklist = vec![false; prepared.keys.len()];
    // One server for the whole run: each step empties its query caches,
    // while the loaded databases (and the indexes the engine builds on
    // them) persist, as they do across a cache flush in a live server.
    let state = ServeState::build();
    let mut verifier = Verifier::new(traced);
    let (mut attempted, mut failed) = (0, 0);
    for step in &prepared.steps {
        let mut run = run_step(&state, step, &prepared.keys, &blocklist, workers, traced);
        for (b, &v) in blocklist.iter_mut().zip(&run.verdicts) {
            *b |= v == RUNAWAY;
        }
        attempted += run.timings.len() as u64;
        failed += run
            .timings
            .iter()
            .filter(|t| t.answer == Answer::Failed)
            .count() as u64;
        failed += verifier.check(&state, &prepared.keys, step, &run, &mut notes);
        run.served = Vec::new();
        notes.push(format!(
            "{:?} {:>5}/s: {:>6} requests, p50 {:8.3} ms, p99 {:8.3} ms, backlog at end {:>5}, \
             drained {:7.3} s after",
            step.phase,
            run.rate,
            run.timings.len(),
            quantile(&latencies_ms(&[&run]), 0.5),
            quantile(&latencies_ms(&[&run]), 0.99),
            run.backlog_end(),
            run.drain_s(),
        ));
        runs.push(run);
    }
    verifier.engine.emit(&mut m);

    // Per ladder rate: pooled p99, the largest end-of-step backlog, and
    // whether the rate was sustained; `max_ok_qps` is the highest rate
    // sustained with every rate below it sustained too.
    let mut max_ok = 0;
    let mut climbing = true;
    for rate in ladder() {
        let steps: Vec<&StepRun> = runs
            .iter()
            .filter(|r| r.rate == rate && r.phase != Phase::ColdStart)
            .collect();
        m.set(
            &format!("serve.ladder.{rate}.p99_ms"),
            quantile(&latencies_ms(&steps), 0.99),
        );
        let backlog = steps.iter().map(|r| r.backlog_end()).max().unwrap_or(0);
        m.set(&format!("serve.ladder.{rate}.backlog_end"), backlog as f64);
        climbing &= sustained(&steps);
        if climbing {
            max_ok = rate;
        }
    }
    m.set("max_ok_qps", max_ok as f64);
    let cold: Vec<&StepRun> = runs
        .iter()
        .filter(|r| r.phase == Phase::ColdStart)
        .collect();
    m.set(
        "serve.cold_start.p99_ms",
        quantile(&latencies_ms(&cold), 0.99),
    );

    // Reference-rate figures: the median over the reference episodes of
    // each episode's figure, so one episode with an unlucky first wave of
    // misses (or a host hiccup) does not set the result.
    let reference: Vec<&StepRun> = runs
        .iter()
        .filter(|r| r.phase == Phase::Reference)
        .collect();
    let per_episode =
        |f: &dyn Fn(&StepRun) -> f64| median(&reference.iter().map(|r| f(r)).collect::<Vec<_>>());
    m.set(
        "p50_ms",
        per_episode(&|r| quantile(&latencies_ms(&[r]), 0.50)),
    );
    m.set(
        "p99_ms",
        per_episode(&|r| quantile(&latencies_ms(&[r]), 0.99)),
    );
    let fewest = reference.iter().map(|r| r.timings.len()).min().unwrap_or(0);
    m.set("latency.samples", fewest as f64);
    // Throughput when busy: answered requests per second of the workers'
    // summed handler time, times the worker count.
    m.set(
        "items_per_s",
        per_episode(&|r| {
            let answered = r
                .timings
                .iter()
                .filter(|t| t.answer != Answer::Failed)
                .count();
            let busy_s = r.counters.busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
            answered as f64 * workers as f64 / busy_s
        }),
    );
    let timings: Vec<&Timing> = reference.iter().flat_map(|r| &r.timings).collect();
    let ms = |f: &dyn Fn(&Timing) -> Option<f64>| -> Vec<f64> {
        sorted(
            timings
                .iter()
                .filter_map(|t| f(t))
                .map(|s| s * 1e3)
                .collect(),
        )
    };
    let wait = ms(&|t| Some(t.queue_wait_s));
    let service = ms(&|t| Some(t.service_s));
    let lag = ms(&|t| t.lag_s);
    m.set("serve.queue_wait_ms.p50", quantile(&wait, 0.50));
    m.set("serve.queue_wait_ms.p99", quantile(&wait, 0.99));
    m.set("serve.service_ms.p50", quantile(&service, 0.50));
    m.set("serve.service_ms.p99", quantile(&service, 0.99));
    m.set("serve.generator.lag_p99_ms", quantile(&lag, 0.99));

    let sum = |f: &dyn Fn(&StepRun) -> u64| runs.iter().map(f).sum::<u64>();
    let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
    m.set(
        "serve.admission.classify.calls",
        sum(&|r| get(&r.counters.classify_calls)) as f64,
    );
    m.set(
        "serve.admission.runaways",
        sum(&|r| get(&r.counters.runaways)) as f64,
    );
    m.set(
        "serve.admission.shed",
        sum(&|r| get(&r.counters.shed)) as f64,
    );
    m.set(
        "serve.execute.calls",
        sum(&|r| get(&r.counters.execute_calls)) as f64,
    );
    let hits = sum(&|r| r.cache.hits);
    let misses = sum(&|r| r.cache.misses);
    m.set("sqlengine.cache.hits", hits as f64);
    m.set("sqlengine.cache.misses", misses as f64);
    m.set("sqlengine.cache.hit_ratio", ratio(hits, hits + misses));
    m.set(
        "sqlengine.cache.oversize",
        sum(&|r| r.cache.oversize) as f64,
    );
    let probes = sum(&|r| r.index.probes);
    m.set("sqlengine.index.builds", sum(&|r| r.index.builds) as f64);
    m.set("sqlengine.index.probes", probes as f64);
    m.set(
        "sqlengine.index.hit_ratio",
        ratio(sum(&|r| r.index.hits), probes),
    );
    let secs_of = |ns: u64| ns as f64 / 1e9;
    m.partition(
        secs_of(sum(&|r| get(&r.counters.handler_ns))),
        &[
            (
                "serve.admission.classify_s",
                secs_of(sum(&|r| get(&r.counters.classify_ns))),
            ),
            (
                "serve.execute_s",
                secs_of(sum(&|r| get(&r.counters.execute_ns))),
            ),
        ],
    );

    ServeRun {
        attempted,
        failed,
        metrics: m,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_run_answers_everything_and_partitions_its_handler_time() {
        evalkit::set_thread_override(Some(2));
        let r = run(7, 1.1, 2, true);
        assert!(r.attempted > 0);
        assert_eq!(r.failed, 0, "{:?}", r.notes);
        let m = &r.metrics;
        let parts = m.get("serve.admission.classify_s") + m.get("serve.execute_s");
        let total = m.get("trace.total_s");
        assert!((parts + m.get("other_s") - total).abs() <= 1e-9 * total.max(1.0));
        assert!(m.get("serve.admission.classify.calls") > 0.0);
        assert!(m.get("latency.samples") > 0.0);
    }

    #[test]
    fn a_wrong_served_result_is_caught_by_verification() {
        let prepared = prepare(7, 0.2);
        let state = ServeState::build();
        let step = &prepared.steps[1];
        let blocklist = vec![false; prepared.keys.len()];
        let mut run = run_step(&state, step, &prepared.keys, &blocklist, 2, false);
        let k = (0..prepared.keys.len())
            .find(|&k| run.served[k].get().is_some())
            .expect("some query was served");
        let mut wrong = ResultSet::new(vec!["x".to_string()]);
        wrong.rows.push(vec![sqlengine::Value::Int(-1)]);
        run.served[k] = OnceLock::from(Arc::new(wrong));
        let mut notes = Vec::new();
        let bad = Verifier::new(false).check(&state, &prepared.keys, step, &run, &mut notes);
        assert!(bad >= 1, "{notes:?}");
    }
}
