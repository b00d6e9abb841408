//! Integration: the concurrent serving layer.
//!
//! Three contracts, each the load-bearing invariant of one serving
//! subsystem:
//!
//! 1. **Shard accounting under contention** — 8 threads released off a
//!    barrier hammer one sharded `QueryCache` with overlapping query
//!    sets; afterwards every shard's `builds` must equal its stored
//!    entry count (the racing-miss single-build invariant, per shard).
//! 2. **Serve determinism** — two full serve runs with the same seed
//!    (fresh snapshots each) must render byte-identical deterministic
//!    sections, the property `BENCH_serve.json` asserts on every
//!    generation.
//! 3. **Watermark reporting** — the serve worker pool must raise the
//!    shared `observed_threads()` watermark the benchmark records,
//!    exactly like the `par_map` pools do.
//! 4. **Per-state dialect** — states built for different dialects serve
//!    side by side in one process, each with its own semantics.

use footballdb::DataModel;
use serve::{AdmissionPolicy, BurstSpec, ServeConfig, ServeState};
use sqlengine::{
    Catalog, DataType, Database, Dialect, EngineConfig, QueryCache, TableSchema, Value,
};
use std::sync::{Barrier, Mutex, OnceLock};

/// The watermark and thread-override are process-global; tests that
/// read or reset them serialize here.
static WATERMARK_LOCK: Mutex<()> = Mutex::new(());

fn tiny_db() -> Database {
    let catalog = Catalog::new(vec![TableSchema::new("t")
        .column("id", DataType::Int)
        .column("v", DataType::Int)
        .pk(&["id"])]);
    let mut db = Database::new(catalog);
    for i in 0..64 {
        db.insert("t", vec![Value::Int(i), Value::Int(i * 7 % 13)])
            .unwrap();
    }
    db
}

#[test]
fn barrier_stress_keeps_per_shard_builds_equal_to_entries() {
    let db = tiny_db();
    let cache = QueryCache::new();
    let threads = 8;
    let barrier = Barrier::new(threads);
    // Overlapping slices of one query population: every query is
    // raced by several threads, across many shards.
    let queries: Vec<String> = (0..48)
        .map(|i| format!("SELECT v FROM t WHERE id = {i}"))
        .collect();
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let (cache, db, barrier, queries) = (&cache, &db, &barrier, &queries);
            scope.spawn(move || {
                barrier.wait();
                for round in 0..3 {
                    for j in 0..queries.len() {
                        // Each worker walks the population from its own
                        // offset so shard lock order varies per thread.
                        let sql = &queries[(j + worker * 7 + round) % queries.len()];
                        cache.execute_cached(db, sql).unwrap();
                    }
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.entries, 48, "every distinct query stored once");
    assert_eq!(
        stats.builds, 48,
        "racing misses must elect exactly one builder per key"
    );
    assert_eq!(cache.shard_drift(), 0, "per-shard builds == entries");
    let populated: usize = cache.shard_stats().iter().filter(|s| s.entries > 0).count();
    assert!(
        populated > 1,
        "48 distinct keys should spread over multiple shards"
    );
    // Totals must equal the per-shard sums the drift check walked.
    let (sum_builds, sum_entries) = cache
        .shard_stats()
        .iter()
        .fold((0u64, 0usize), |(b, e), s| (b + s.builds, e + s.entries));
    assert_eq!((sum_builds, sum_entries), (stats.builds, stats.entries));
}

fn small_serve_config() -> (ServeConfig, nlq::gold::PipelineConfig) {
    let cfg = ServeConfig {
        seed: 11,
        threads: 4,
        rates_qps: vec![40.0, 120.0],
        duration_s: 1.5,
        zipf_s: 1.0,
        hazard_fraction: 0.05,
        burst: BurstSpec::default(),
        policy: AdmissionPolicy::default(),
        engine: EngineConfig::default(),
    };
    let pipeline = nlq::gold::PipelineConfig {
        raw_questions: 700,
        pool_size: 260,
        selected_size: 120,
        test_size: 40,
        clusters: 13,
        ..nlq::gold::PipelineConfig::default()
    };
    (cfg, pipeline)
}

#[test]
fn serve_runs_are_byte_identical_and_invariants_hold() {
    static REPORTS: OnceLock<(String, String)> = OnceLock::new();
    let (a, b) = REPORTS.get_or_init(|| {
        let (cfg, pipeline) = small_serve_config();
        let a = serve::run(&cfg, &pipeline);
        let b = serve::run(&cfg, &pipeline);
        (a.deterministic_json("  "), b.deterministic_json("  "))
    });
    assert_eq!(
        a, b,
        "two serve runs with one seed must render identical deterministic sections"
    );
    // The section carries the serving invariants; pin them here too so
    // a regression fails with a named assertion, not a string diff.
    assert!(a.contains("\"escaped_panics\": 0"), "{a}");
    assert!(a.contains("\"shard_drift\": 0"), "{a}");
    // The injected hazards must actually exercise admission control.
    let shed: u64 = a
        .lines()
        .filter_map(|l| l.trim().strip_prefix("\"shed_runaway\": "))
        .map(|v| v.trim_end_matches(',').parse::<u64>().unwrap())
        .sum();
    assert!(shed > 0, "workload hazards should trip the governor:\n{a}");
}

#[test]
fn serve_pool_reports_into_observed_threads_watermark() {
    let _guard = WATERMARK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let state = serve::ServeState::build();
    // An empty stream: workers spawn, find no work, and exit — but the
    // pool must still report its width. 24 exceeds anything par_map
    // could have recorded concurrently (tests cap at 8 workers), so
    // the watermark reading below is attributable to this pool.
    let width = 24;
    let report = serve::pool::replay(
        &state,
        &[],
        &[],
        &std::collections::HashMap::new(),
        width,
        &AdmissionPolicy::default(),
    );
    assert_eq!(report.threads, width);
    assert_eq!((report.executed, report.escaped_panics), (0, 0));
    assert!(
        evalkit::observed_threads() >= width,
        "serve pools must raise the same observed-threads watermark \
         the benchmark harness records for par_map pools"
    );
}

/// Regression: a SQLite state used to answer `SELECT 7 / 2` with
/// PostgreSQL's `3`, because execution read a process-wide dialect.
/// Queried from two threads at once, a SQLite and a PostgreSQL state
/// each answer in their own dialect, and a serve run under each reports
/// the dialect it served.
#[test]
fn sqlite_and_postgres_states_serve_side_by_side() {
    let (base, pipeline) = small_serve_config();
    let barrier = Barrier::new(Dialect::ALL.len());
    let run = |dialect| {
        let engine = EngineConfig {
            dialect,
            ..EngineConfig::default()
        };
        let state = ServeState::build_with_config(engine);
        barrier.wait();
        let db = state.db(DataModel::V1);
        let rs = state
            .cache(DataModel::V1)
            .execute_cached(db, "SELECT 7 / 2");
        let cfg = ServeConfig {
            rates_qps: vec![40.0],
            duration_s: 0.5,
            engine,
            ..base.clone()
        };
        (
            state.dialect(),
            rs.unwrap().rows[0][0].clone(),
            serve::run(&cfg, &pipeline).dialect,
        )
    };
    let answers = std::thread::scope(|scope| {
        let run = &run;
        Dialect::ALL
            .map(|dialect| scope.spawn(move || run(dialect)))
            .map(|h| h.join().unwrap())
    });
    use Dialect::{Postgres, Sqlite};
    assert_eq!(
        answers,
        [
            (Postgres, Value::Int(3), Postgres),
            (Sqlite, Value::Float(3.5), Sqlite)
        ]
    );
}
