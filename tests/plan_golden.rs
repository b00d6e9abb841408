//! Golden-plan snapshots.
//!
//! Pins the *entire* rendered plan — not substrings — for one
//! representative query per planner decision: predicate pushdown,
//! access-path choice, index nested-loop joins, hash joins with their
//! cost-chosen build side, cost-based join reordering, left-join
//! residuals, derived tables, the aggregation/ordering tail, and the
//! executor-routing line. EXPLAIN renders the one `sqlengine::plan`
//! tree both executors obey, so any drift in these snapshots is a
//! planner behavior change and must be reviewed as one.

use sqlengine::{
    explain_sql, Access, Catalog, DataType, Database, EngineConfig, Executor, TableSchema, Value,
};

fn fixture() -> Database {
    let mut db = Database::new(Catalog::new(vec![
        TableSchema::new("t")
            .column("id", DataType::Int)
            .column("x", DataType::Int)
            .pk(&["id"]),
        TableSchema::new("u")
            .column("id", DataType::Int)
            .column("y", DataType::Int)
            .pk(&["id"]),
    ]));
    for i in 0..5 {
        db.insert("t", vec![Value::Int(i), Value::Int(i * 10)])
            .unwrap();
        db.insert("u", vec![Value::Int(i), Value::Int(i + 100)])
            .unwrap();
    }
    db
}

#[track_caller]
fn assert_plan(db: &Database, sql: &str, golden: &str) {
    let plan = explain_sql(db, sql).unwrap();
    assert_eq!(plan, golden, "plan drifted for: {sql}\n--- got ---\n{plan}");
}

#[test]
fn golden_pushdown_and_index_nested_loop() {
    let db = fixture();
    assert_plan(
        &db,
        "SELECT a.x FROM t AS a JOIN u AS b ON a.id = b.id WHERE a.x > 1 AND b.y = 103",
        "select (1 output column(s))\n\
         \u{20} executor: vectorized (columnar batches)\n\
         \u{20} scan t AS a [5 row(s)] filter: a.x > 1 via seq scan\n\
         \u{20} index nested-loop join u AS b [5 row(s)] filter: b.y = 103 \
         via index lookup(b.id) on a.id = b.id\n",
    );
}

#[test]
fn golden_index_scan_access_path() {
    let db = fixture();
    assert_plan(
        &db,
        "SELECT x FROM t WHERE id = 3",
        "select (1 output column(s))\n\
         \u{20} executor: vectorized (columnar batches)\n\
         \u{20} scan t [5 row(s)] filter: id = 3 via index lookup(t.id)\n",
    );
    // The seq-scan config flows through the plan, and with it the
    // rendered access path.
    let seq = db.with_config(EngineConfig {
        access: Access::SeqScan,
        ..EngineConfig::default()
    });
    let plan = explain_sql(&seq, "SELECT x FROM t WHERE id = 3").unwrap();
    assert_eq!(
        plan,
        "select (1 output column(s))\n\
         \u{20} executor: vectorized (columnar batches)\n\
         \u{20} scan t [5 row(s)] filter: id = 3 via seq scan\n",
    );
}

#[test]
fn golden_left_join_residual() {
    let db = fixture();
    assert_plan(
        &db,
        "SELECT a.x FROM t AS a LEFT JOIN u AS b ON a.id = b.id WHERE b.y = 103",
        "select (1 output column(s))\n\
         \u{20} executor: vectorized (columnar batches)\n\
         \u{20} scan t AS a [5 row(s)] via seq scan\n\
         \u{20} hash join (build right) (left outer) u AS b [5 row(s)] \
         via seq scan on a.id = b.id\n\
         \u{20} residual filter: b.y = 103\n",
    );
}

#[test]
fn golden_cost_based_join_reorder() {
    let mut db = Database::new(Catalog::new(vec![
        TableSchema::new("t")
            .column("id", DataType::Int)
            .pk(&["id"]),
        TableSchema::new("big")
            .column("tid", DataType::Int)
            .column("v", DataType::Int),
        TableSchema::new("small")
            .column("tid", DataType::Int)
            .column("w", DataType::Int),
    ]));
    for i in 0..4 {
        db.insert("t", vec![Value::Int(i)]).unwrap();
        db.insert("small", vec![Value::Int(i), Value::Int(i)])
            .unwrap();
    }
    for i in 0..40 {
        db.insert("big", vec![Value::Int(i % 4), Value::Int(i)])
            .unwrap();
    }
    assert_plan(
        &db,
        "SELECT t.id FROM t JOIN big ON big.tid = t.id JOIN small ON small.tid = t.id",
        "select (1 output column(s))\n\
         \u{20} executor: vectorized (columnar batches)\n\
         \u{20} scan t [4 row(s)] via seq scan\n\
         \u{20} join order (cost-based): small, big\n\
         \u{20} index nested-loop join small [4 row(s)] \
         via index lookup(small.tid) on small.tid = t.id\n\
         \u{20} index nested-loop join big [40 row(s)] \
         via index lookup(big.tid) on big.tid = t.id\n",
    );
}

#[test]
fn golden_derived_table_hash_join() {
    let db = fixture();
    assert_plan(
        &db,
        "SELECT a.x FROM t AS a JOIN (SELECT id FROM u) AS b ON a.id = b.id",
        "select (1 output column(s))\n\
         \u{20} scan t AS a [5 row(s)] via seq scan\n\
         \u{20} hash join (build left) (subquery) AS b [0 row(s)] on a.id = b.id\n\
         \u{20}   select (1 output column(s))\n\
         \u{20}     executor: vectorized (columnar batches)\n\
         \u{20}     scan u [5 row(s)] via seq scan\n",
    );
}

#[test]
fn golden_aggregation_and_tail() {
    let db = fixture();
    assert_plan(
        &db,
        "SELECT x, count(*) FROM t GROUP BY x HAVING count(*) > 0 ORDER BY x DESC LIMIT 2",
        "select (2 output column(s))\n\
         \u{20} executor: vectorized (columnar batches)\n\
         \u{20} scan t [5 row(s)] via seq scan\n\
         \u{20} aggregate: group by x\n\
         \u{20} having: count(*) > 0\n\
         sort by x DESC NULLS FIRST\n\
         limit 2\n",
    );
}

#[test]
fn golden_row_executor_routing() {
    let db = fixture().with_config(EngineConfig {
        executor: Executor::Row,
        ..EngineConfig::default()
    });
    // The row engine's config removes only the routing line; every
    // planner decision stays identical.
    let plan = explain_sql(&db, "SELECT x FROM t WHERE id = 3").unwrap();
    assert_eq!(
        plan,
        "select (1 output column(s))\n\
         \u{20} scan t [5 row(s)] filter: id = 3 via index lookup(t.id)\n",
    );
}
