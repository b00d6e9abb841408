//! Integration: the differential conformance harness.
//!
//! Drives `sqlengine::conformance` end to end at test scale — the
//! semantics oracles, a seeded generated corpus under all four engine
//! configurations plus the reference interpreter, and minimized-repro
//! regression pins for the bugs the harness originally flushed out.
//!
//! The full-scale sweep (5 seeds x 1200 queries, plus the thread-count
//! and gold-pair axes that need `evalkit`/`nlq`) lives in
//! `cargo run --release -p bench --bin conformance`.

use sqlengine::conformance::{
    check_case, check_dialect_oracles, check_oracles, corpus_db, gen_corpus, gen_dialect_corpus,
    minimize_sql, run_corpus, run_dialect_corpus, CorpusConfig, CONFIGS,
};
use sqlengine::{
    execute_sql, trace_execute_sql, Access, Catalog, DataType, Database, Dialect, EngineConfig,
    Executor, QueryCache, TableSchema, Value,
};

/// `db`'s data under the default config with `dialect`.
fn in_dialect(db: &Database, dialect: Dialect) -> Database {
    db.clone().with_config(EngineConfig {
        dialect,
        ..EngineConfig::default()
    })
}

/// `db`'s data under the default config with `access`.
fn with_access(db: &Database, access: Access) -> Database {
    db.clone().with_config(EngineConfig {
        access,
        ..EngineConfig::default()
    })
}

fn null_db() -> Database {
    let mut db = Database::new(Catalog::new(vec![TableSchema::new("t")
        .column("id", DataType::Int)
        .column("v", DataType::Int)
        .pk(&["id"])]));
    for (id, v) in [
        (1, Some(3)),
        (2, None),
        (3, Some(1)),
        (4, None),
        (5, Some(2)),
        (6, Some(1)),
    ] {
        let v = v.map_or(Value::Null, Value::Int);
        db.insert("t", vec![Value::Int(id), v]).unwrap();
    }
    db
}

#[test]
fn oracle_semantics_hold_on_both_executors() {
    let failures = check_oracles();
    assert!(
        failures.is_empty(),
        "{} oracle failure(s):\n{}",
        failures.len(),
        failures
            .iter()
            .map(|f| format!("[{} on {}] {}: {}", f.check, f.executor, f.sql, f.detail))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn generated_corpus_is_conformant_on_every_seed() {
    for seed in 40..44 {
        let db = corpus_db(seed);
        let corpus = gen_corpus(&CorpusConfig { seed, queries: 150 });
        let report = run_corpus(&db, &corpus);
        assert!(
            report.is_clean(),
            "seed {seed}: {} divergence(s), first:\n{}",
            report.divergences.len(),
            report.divergences[0]
        );
        assert_eq!(report.queries, 150);
    }
}

#[test]
fn check_case_reports_nothing_for_conformant_queries() {
    let db = corpus_db(1);
    let cache = QueryCache::new();
    for sql in [
        "SELECT squad, count(*) AS n FROM player GROUP BY squad ORDER BY 2 DESC, 1",
        "SELECT p.pid FROM player AS p LEFT JOIN appearance AS a ON p.pid = a.pid \
         ORDER BY p.pid, a.aid LIMIT 10",
        "SELECT score FROM player INTERSECT ALL SELECT minutes FROM appearance",
    ] {
        assert!(check_case(&db, &cache, sql).is_none(), "diverged: {sql}");
    }
}

/// The vectorized executor materializes only the columns the output
/// stage reads and leaves the rest NULL. Results, errors and the
/// deterministic counter tree must stay bit-identical to the row engine,
/// which copies every column.
#[test]
fn pruned_materialization_matches_the_row_engine() {
    let db = corpus_db(2);
    let row_db = db.clone().with_config(EngineConfig {
        executor: Executor::Row,
        ..EngineConfig::default()
    });
    let cache = QueryCache::new();
    for sql in [
        "SELECT count(*) FROM player AS p JOIN appearance AS a ON a.pid = p.pid \
         GROUP BY p.squad HAVING max(a.minutes) > 10 ORDER BY p.squad",
        "SELECT pid FROM player ORDER BY score DESC, nick",
        "SELECT DISTINCT nick FROM player ORDER BY ratio LIMIT 3",
        "SELECT *, count(*) FROM appearance GROUP BY aid, pid, minutes, card",
        "SELECT avg(minutes) FROM player AS p JOIN appearance AS a ON a.pid = p.pid",
        "SELECT count(pid) FROM player AS p JOIN appearance AS a ON a.pid = p.pid",
        "SELECT (SELECT max(minutes) FROM appearance AS x WHERE x.pid = p.pid) \
         FROM player AS p ORDER BY 1",
    ] {
        assert!(check_case(&db, &cache, sql).is_none(), "diverged: {sql}");
        let vectorized = trace_execute_sql(&db, sql).1.counter_tree();
        let row = trace_execute_sql(&row_db, sql).1.counter_tree();
        assert_eq!(vectorized, row, "counter trees differ: {sql}");
    }
}

/// Regression (cache staleness): the result cache used to key on query
/// text alone, so one cache shared by databases under two configs could
/// serve a result (or error) computed under the other. The key now
/// includes the engine-config fingerprint; the second config must miss,
/// not hit stale.
#[test]
fn query_cache_does_not_serve_results_across_planner_configs() {
    let db = null_db();
    let seq_db = with_access(&db, Access::SeqScan);
    let cache = QueryCache::new();
    let sql = "SELECT v FROM t WHERE id = 3";

    let indexed = cache.execute_cached(&db, sql).unwrap();
    let seqscan = cache.execute_cached(&seq_db, sql).unwrap();

    assert_ne!(
        db.config().fingerprint(),
        seq_db.config().fingerprint(),
        "config fingerprint must separate the configs"
    );
    let stats = cache.stats();
    assert_eq!(
        stats.hits, 0,
        "second config must not hit the first's entry"
    );
    assert_eq!(stats.misses, 2);
    // Both entries coexist, and (the engine invariant) agree bit-wise.
    assert_eq!(indexed.rows, seqscan.rows);
}

/// Regression (ORDER BY NULL placement): PostgreSQL sorts NULLs last on
/// ASC and first on DESC; the engine once ranked them smallest, which
/// inverted both. Minimized from a corpus divergence on
/// `SELECT v FROM t ORDER BY v [DESC] LIMIT k`.
#[test]
fn order_by_places_nulls_postgres_style() {
    let db = null_db();
    let asc = execute_sql(&db, "SELECT v FROM t ORDER BY v").unwrap();
    let vals: Vec<Value> = asc.rows.iter().map(|r| r[0].clone()).collect();
    assert_eq!(
        vals,
        vec![
            Value::Int(1),
            Value::Int(1),
            Value::Int(2),
            Value::Int(3),
            Value::Null,
            Value::Null
        ]
    );
    let desc = execute_sql(&db, "SELECT v FROM t ORDER BY v DESC").unwrap();
    assert!(desc.rows[0][0].is_null() && desc.rows[1][0].is_null());
    assert_eq!(desc.rows[2][0], Value::Int(3));
}

/// Regression (top-k heap vs full sort): LIMIT k must be bit-identical
/// to the full sort truncated, including NULL placement and stable tie
/// order.
#[test]
fn top_k_is_bit_identical_to_truncated_full_sort() {
    let db = corpus_db(2);
    for sql in [
        "SELECT ratio FROM player ORDER BY ratio",
        "SELECT ratio FROM player ORDER BY ratio DESC",
        "SELECT squad, score FROM player ORDER BY squad DESC, score",
    ] {
        let full = execute_sql(&db, sql).unwrap();
        for k in [1usize, 3, 7, 40, 60] {
            let lim = execute_sql(&db, &format!("{sql} LIMIT {k}")).unwrap();
            let want = &full.rows[..k.min(full.rows.len())];
            assert_eq!(lim.rows, want, "{sql} LIMIT {k}");
        }
    }
}

/// Regression (three-valued NOT IN): a NULL in the IN-list or subquery
/// result makes non-matching probes UNKNOWN, which WHERE filters out —
/// NOT IN over a set containing NULL can never return rows for
/// non-members.
#[test]
fn not_in_with_null_member_returns_no_nonmembers() {
    let db = null_db();
    let rs = execute_sql(&db, "SELECT id FROM t WHERE v NOT IN (9, NULL)").unwrap();
    assert!(rs.rows.is_empty(), "got {:?}", rs.rows);
    // Members of the list are excluded even with a NULL present.
    let rs = execute_sql(&db, "SELECT id FROM t WHERE v IN (1, NULL) ORDER BY id").unwrap();
    let ids: Vec<Value> = rs.rows.iter().map(|r| r[0].clone()).collect();
    assert_eq!(ids, vec![Value::Int(3), Value::Int(6)]);
    // Same through a subquery producing NULLs.
    let rs = execute_sql(&db, "SELECT id FROM t WHERE id NOT IN (SELECT v FROM t)").unwrap();
    assert!(rs.rows.is_empty(), "got {:?}", rs.rows);
}

/// A minimized counterexample must itself be a counterexample: it
/// parses and still satisfies the divergence predicate. The minimizer
/// shrinks by clause-atom count with the clause differ as distance
/// oracle, so the result is also deterministic.
#[test]
fn minimized_counterexamples_parse_and_rediverge() {
    let sql = "SELECT DISTINCT squad, count(*) AS n FROM player \
               WHERE score > 0 AND minutes > 1 AND squad <> 'x' \
               GROUP BY squad, score HAVING count(*) > 0 ORDER BY n DESC, squad LIMIT 7";
    // Divergence predicate: the query still groups by squad.
    let mut diverges = |s: &str| {
        sqlkit::parse_query(s).is_ok_and(|q| {
            let mut grouped = false;
            if let sqlkit::ast::QueryBody::Select(sel) = &q.body {
                grouped = sel
                    .group_by
                    .iter()
                    .any(|e| sqlkit::expr_to_sql(e).contains("squad"));
            }
            grouped
        })
    };
    let min = minimize_sql(sql, &mut diverges);
    let parsed = sqlkit::parse_query(&min).expect("minimized output must parse");
    assert!(diverges(&min), "minimized output must re-diverge: {min}");
    // And it really shrank: every deletable clause that the predicate
    // does not pin is gone.
    assert!(sqlkit::clause_atoms(&parsed) < 10, "did not shrink: {min}");
    assert!(!min.contains("LIMIT"), "kept LIMIT: {min}");
    assert!(!min.contains("WHERE"), "kept WHERE: {min}");
    assert!(!min.contains("ORDER BY"), "kept ORDER BY: {min}");
    // Determinism: minimizing twice yields byte-identical output.
    assert_eq!(min, minimize_sql(sql, &mut diverges));
}

/// A stateful (flaky) predicate that stops reproducing must not yield a
/// non-diverging "minimum": the final re-check falls back to the
/// known-diverging entry form.
#[test]
fn minimizer_never_returns_a_non_reproducing_counterexample() {
    let sql = "SELECT a FROM t WHERE a > 0 LIMIT 3";
    // Diverges a fixed number of times, then never again — the shape of
    // a heisenbug that stops reproducing mid-shrink.
    let mut budget = 3u32;
    let mut flaky = |_: &str| {
        if budget > 0 {
            budget -= 1;
            true
        } else {
            false
        }
    };
    let min = minimize_sql(sql, &mut flaky);
    assert!(
        sqlkit::parse_query(&min).is_ok(),
        "fallback must parse: {min}"
    );
    // The fallback is the canonical entry form, which was verified to
    // diverge before any shrinking happened.
    assert_eq!(min, sqlkit::to_sql(&sqlkit::parse_query(sql).unwrap()));
}

/// Regression (bag-semantics set operations): INTERSECT ALL and EXCEPT
/// ALL respect multiplicities instead of deduplicating.
#[test]
fn bag_set_operations_respect_multiplicities() {
    let db = null_db();
    // v multiset: {3, NULL, 1, NULL, 2, 1}; ids 1..=6.
    let rs = execute_sql(
        &db,
        "SELECT v FROM t WHERE v IS NOT NULL INTERSECT ALL SELECT v FROM t WHERE id >= 3",
    )
    .unwrap();
    // Left bag {3,1,2,1} ∩all right bag {1,NULL,2,1} = {1,2,1}.
    assert_eq!(rs.rows.len(), 3);
    let rs = execute_sql(
        &db,
        "SELECT v FROM t EXCEPT ALL SELECT v FROM t WHERE id > 2",
    )
    .unwrap();
    // {3,N,1,N,2,1} minus {1,N,2,1} leaves {3, N}.
    assert_eq!(rs.rows.len(), 2);
    let rs = execute_sql(&db, "SELECT v FROM t EXCEPT SELECT v FROM t WHERE id > 2").unwrap();
    // Set EXCEPT: distinct left values {3,N,1,2} minus {1,N,2} = {3}.
    assert_eq!(rs.rows, vec![vec![Value::Int(3)]]);
}

// ---- cross-dialect axis ---------------------------------------------------

/// Every known-difference scenario holds under both dialects on both
/// engine scan paths and on the reference interpreter, and the
/// divergence classifier attributes each to its declared class.
#[test]
fn dialect_oracles_hold_and_classify() {
    let failures = check_dialect_oracles();
    assert!(
        failures.is_empty(),
        "{} dialect-oracle failure(s):\n{}",
        failures.len(),
        failures
            .iter()
            .map(|f| format!("[{} on {}] {}: {}", f.check, f.executor, f.sql, f.detail))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The SQLite dialect must be just as self-consistent as the PostgreSQL
/// one: six planner configurations plus the reference interpreter agree
/// bit-for-bit on the generated corpus (including the dialect-stress
/// templates, which are engineered to sit on the semantic boundary).
#[test]
fn sqlite_dialect_is_self_consistent() {
    for seed in 40..42 {
        let db = in_dialect(&corpus_db(seed), Dialect::Sqlite);
        let mut corpus = gen_corpus(&CorpusConfig { seed, queries: 120 });
        corpus.extend(gen_dialect_corpus(&CorpusConfig { seed, queries: 80 }));
        let report = run_corpus(&db, &corpus);
        assert!(
            report.is_clean(),
            "seed {seed}: {} divergence(s) under sqlite, first:\n{}",
            report.divergences.len(),
            report.divergences[0]
        );
    }
}

/// The PostgreSQL dialect stays self-consistent on the dialect-stress
/// templates too (the plain corpus is covered by
/// `generated_corpus_is_conformant_on_every_seed`). This is where the
/// error-producing comparisons (division by zero, unparseable text,
/// invalid boolean forms) must fail identically across all six
/// configurations and the reference interpreter.
#[test]
fn postgres_dialect_is_self_consistent_on_stress_templates() {
    for seed in 40..42 {
        let db = corpus_db(seed);
        let corpus = gen_dialect_corpus(&CorpusConfig { seed, queries: 100 });
        let report = run_corpus(&db, &corpus);
        assert!(
            report.is_clean(),
            "seed {seed}: {} divergence(s) under postgres, first:\n{}",
            report.divergences.len(),
            report.divergences[0]
        );
    }
}

/// The tentpole invariant at test scale: sweeping the corpus across
/// both dialects yields zero unclassified divergences and zero escaped
/// panics, while the stress templates guarantee a healthy population of
/// legitimate, classified differences.
#[test]
fn cross_dialect_sweep_classifies_every_divergence() {
    for seed in 40..43 {
        let db = corpus_db(seed);
        let mut corpus = gen_corpus(&CorpusConfig { seed, queries: 150 });
        corpus.extend(gen_dialect_corpus(&CorpusConfig { seed, queries: 100 }));
        let report = run_dialect_corpus(&db, &corpus);
        assert!(
            report.is_clean(),
            "seed {seed}: {} cross-dialect bug(s), {} panic(s); first:\n{}",
            report.bugs.len(),
            report.panics,
            report.bugs[0]
        );
        assert_eq!(report.queries, 250);
        assert_eq!(report.executions, 500);
        assert!(
            report.legitimate_total() > 0,
            "seed {seed}: stress templates must produce classified divergences"
        );
        assert!(
            report.agreeing > 0,
            "seed {seed}: dialect-neutral queries must agree"
        );
    }
}

/// Regression (latent engine bug, found by the cross-dialect axis): the
/// engine always computed `int / int` as float division and returned
/// NULL on division by zero — SQLite semantics — while everything else
/// claimed PostgreSQL. Under the PostgreSQL dialect, integer division
/// truncates toward zero and division by zero is an evaluation error.
#[test]
fn postgres_integer_division_truncates_and_zero_errors() {
    let db = in_dialect(&null_db(), Dialect::Postgres);
    let rs = execute_sql(&db, "SELECT 7 / 2").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(3)]]);
    let rs = execute_sql(&db, "SELECT (0 - 7) / 2").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(-3)]]);
    let err = execute_sql(&db, "SELECT 1 / 0").unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    let err = execute_sql(&db, "SELECT 1.5 / 0").unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    let db = in_dialect(&db, Dialect::Sqlite);
    let rs = execute_sql(&db, "SELECT 7 / 2").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Float(3.5)]]);
    let rs = execute_sql(&db, "SELECT 1 / 0").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Null]]);
}

/// Regression (latent engine bug, found while building the dialect
/// axis): equality and index keys collapsed `Int` through `f64`, so
/// integers beyond 2^53 aliased — `9007199254740993 = 9007199254740992`
/// came back true and an index probe could return the wrong row. Exact
/// integer comparison must hold on both scan paths, bit-identically.
#[test]
fn huge_integers_do_not_alias_on_either_scan_path() {
    let mut db = Database::new(Catalog::new(vec![TableSchema::new("big")
        .column("id", DataType::Int)
        .column("v", DataType::Int)
        .pk(&["id"])]));
    let two53 = 9_007_199_254_740_992_i64; // 2^53
    for (id, v) in [(1, two53), (2, two53 + 1), (3, 7)] {
        db.insert("big", vec![Value::Int(id), Value::Int(v)])
            .unwrap();
    }
    let sql = "SELECT id FROM big WHERE v = 9007199254740993";
    let outcomes: Vec<_> = [Access::Indexed, Access::SeqScan]
        .into_iter()
        .map(|access| execute_sql(&with_access(&db, access), sql).unwrap())
        .collect();
    // Only the 2^53 + 1 row matches, and indexed vs forced-seqscan are
    // bit-identical.
    assert_eq!(outcomes[0].rows, vec![vec![Value::Int(2)]]);
    assert_eq!(outcomes[0].rows, outcomes[1].rows);
    assert_eq!(outcomes[0].columns, outcomes[1].columns);
}

/// Regression (latent engine bug, found by the dialect axis): comparing
/// a boolean column to a text literal silently returned false through a
/// `_ => Some(false)` catch-all, regardless of the literal. Under the
/// PostgreSQL dialect boolean input forms parse ('yes' matches true)
/// and garbage errors; under SQLite the pair is simply unequal.
#[test]
fn bool_text_comparison_is_dialect_governed() {
    let mut db = Database::new(Catalog::new(vec![TableSchema::new("f")
        .column("id", DataType::Int)
        .column("flag", DataType::Bool)
        .pk(&["id"])]));
    for (id, b) in [(1, Value::Bool(true)), (2, Value::Bool(false))] {
        db.insert("f", vec![Value::Int(id), b]).unwrap();
    }
    let db = in_dialect(&db, Dialect::Postgres);
    let rs = execute_sql(&db, "SELECT id FROM f WHERE flag = 'yes'").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(1)]]);
    let err = execute_sql(&db, "SELECT id FROM f WHERE flag = 'maybe'").unwrap_err();
    assert!(
        err.to_string()
            .contains("invalid input syntax for type boolean"),
        "{err}"
    );
    let db = in_dialect(&db, Dialect::Sqlite);
    let rs = execute_sql(&db, "SELECT id FROM f WHERE flag = 'true'").unwrap();
    assert!(rs.rows.is_empty(), "sqlite never equates bool and text");
}

/// The config fingerprint separates dialects, so one query cache shared
/// by a PostgreSQL and a SQLite database never serves one dialect's
/// result to the other.
#[test]
fn query_cache_does_not_serve_results_across_dialects() {
    let pg_db = in_dialect(&null_db(), Dialect::Postgres);
    let lite_db = in_dialect(&null_db(), Dialect::Sqlite);
    let cache = QueryCache::new();
    let sql = "SELECT 7 / 2";

    let pg = cache.execute_cached(&pg_db, sql).unwrap();
    let lite = cache.execute_cached(&lite_db, sql).unwrap();

    assert_ne!(
        pg_db.config().fingerprint(),
        lite_db.config().fingerprint(),
        "fingerprint must separate dialects"
    );
    assert_eq!(cache.stats().hits, 0, "no cross-dialect cache hit");
    assert_eq!(pg.rows, vec![vec![Value::Int(3)]]);
    assert_eq!(lite.rows, vec![vec![Value::Float(3.5)]]);
}

/// Engine configs are values on the database, not process state: the six
/// conformance configs under both dialects run on twelve threads at once
/// over one seeded corpus, the cached ones through one shared cache. Each
/// must reproduce its dialect's serial run bit for bit (Debug renders
/// the exact value variants and float bits), so the six agree, and
/// `run_corpus` per dialect, run concurrently too, must report what the
/// serial run reported.
#[test]
fn engine_configs_and_dialects_run_concurrently() {
    let db = corpus_db(40);
    let mut corpus = gen_corpus(&CorpusConfig {
        seed: 40,
        queries: 120,
    });
    corpus.extend(gen_dialect_corpus(&CorpusConfig {
        seed: 40,
        queries: 60,
    }));
    let cache = QueryCache::new();
    let run = |db: &Database, cached: bool| -> Vec<String> {
        let exec = |sql: &String| match cached {
            true => cache.execute_cached(db, sql).map(|rs| (*rs).clone()),
            false => execute_sql(db, sql),
        };
        corpus
            .iter()
            .map(|sql| format!("{:?}", exec(sql)))
            .collect()
    };
    let dialect_dbs = Dialect::ALL.map(|dialect| in_dialect(&db, dialect));
    let serial = dialect_dbs
        .each_ref()
        .map(|db| (run(db, false), run_corpus(db, &corpus)));
    assert_ne!(
        serial[0].0, serial[1].0,
        "the dialects must disagree somewhere"
    );
    // The six configs per dialect, dialect by dialect.
    let configs: Vec<(Database, bool)> = Dialect::ALL
        .into_iter()
        .flat_map(|dialect| {
            CONFIGS.map(|(_, config, cached)| {
                (
                    db.clone().with_config(EngineConfig { dialect, ..config }),
                    cached,
                )
            })
        })
        .collect();
    std::thread::scope(|scope| {
        let runs: Vec<_> = configs
            .iter()
            .map(|(db, cached)| scope.spawn(|| run(db, *cached)))
            .collect();
        let reports = dialect_dbs
            .each_ref()
            .map(|db| scope.spawn(|| run_corpus(db, &corpus)));
        for (i, h) in runs.into_iter().enumerate() {
            let (db, cached) = &configs[i];
            let diverged = h.join().unwrap() != serial[i / 6].0;
            assert!(!diverged, "{:?} (cached: {cached}) diverged", db.config());
        }
        for (h, (_, want)) in reports.into_iter().zip(&serial) {
            let got = h.join().unwrap();
            assert!(got.is_clean() && want.is_clean());
            assert_eq!(
                (got.queries, got.executions, got.errored),
                (want.queries, want.executions, want.errored)
            );
        }
    });
}
