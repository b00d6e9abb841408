//! Query plan explanation.
//!
//! Describes, without executing, how the executor will evaluate a query:
//! which scans receive pushed-down predicates and whether they resolve
//! through an index (`index lookup(binding.col)`) or a sequential scan,
//! the join algorithm per join — index nested-loop, hash (with the
//! cost-chosen build side), or nested loop — the cost-based join order,
//! what remains as a residual filter, and the aggregation/ordering
//! tail. Every decision is read off the one [`crate::plan::SelectPlan`]
//! both executors obey — EXPLAIN renders the plan tree, it does not
//! re-derive it — so the displayed plan is the executed plan. Used by
//! the SQL shell's `\explain` and by tests pinning the planner's
//! decisions.

use crate::config::Executor;
use crate::db::Database;
use crate::exec::fold_uncorrelated;
use crate::plan::{plan_select, Access, JoinAlgo};
use sqlkit::ast::*;
use sqlkit::printer::expr_to_sql;
use std::fmt::Write;

/// Renders the execution plan of a query.
pub fn explain(db: &Database, query: &Query) -> String {
    let mut out = String::with_capacity(256);
    explain_query(db, query, 0, &mut out);
    out
}

/// Parses and explains SQL text.
pub fn explain_sql(db: &Database, sql: &str) -> Result<String, crate::EngineError> {
    let q = sqlkit::parse_query(sql).map_err(crate::EngineError::Parse)?;
    Ok(explain(db, &q))
}

/// `EXPLAIN ANALYZE`: executes the query under a [`crate::trace`]
/// collector and renders the static plan followed by the observed span
/// tree — per-operator rows, fuel, index probes, and wall-clock (the
/// latter explicitly marked non-deterministic). Execution errors are
/// reported inline; the spans recorded up to the failure still render.
pub fn explain_analyze(db: &Database, query: &Query) -> String {
    let guard = crate::trace::TraceGuard::install();
    let result = crate::exec::execute(db, query);
    let trace = guard.finish();
    render_analyze(explain(db, query), result, trace)
}

/// Parses and `EXPLAIN ANALYZE`s SQL text.
pub fn explain_analyze_sql(db: &Database, sql: &str) -> Result<String, crate::EngineError> {
    let q = sqlkit::parse_query(sql).map_err(crate::EngineError::Parse)?;
    Ok(explain_analyze(db, &q))
}

fn render_analyze(
    plan: String,
    result: Result<crate::ResultSet, crate::EngineError>,
    trace: crate::trace::TraceSpan,
) -> String {
    let mut out = String::with_capacity(plan.len() + 512);
    out.push_str("plan:\n");
    for line in plan.lines() {
        let _ = writeln!(out, "  {line}");
    }
    out.push_str("execution (wall times are not deterministic):\n");
    for line in trace.render().lines() {
        let _ = writeln!(out, "  {line}");
    }
    match result {
        Ok(rs) => {
            let _ = writeln!(
                out,
                "result: {} row(s), {} column(s)",
                rs.rows.len(),
                rs.columns.len()
            );
        }
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
        }
    }
    out
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn explain_query(db: &Database, q: &Query, indent: usize, out: &mut String) {
    explain_body(db, &q.body, indent, out);
    if !q.order_by.is_empty() {
        pad(out, indent);
        let keys: Vec<String> = q
            .order_by
            .iter()
            .map(|o| {
                // NULL placement is PostgreSQL's default and is pinned by
                // the conformance oracles; spell it out in the plan.
                format!(
                    "{}{}",
                    expr_to_sql(&o.expr),
                    if o.desc {
                        " DESC NULLS FIRST"
                    } else {
                        " NULLS LAST"
                    }
                )
            })
            .collect();
        let _ = writeln!(out, "sort by {}", keys.join(", "));
    }
    if let Some(n) = q.limit {
        pad(out, indent);
        let _ = writeln!(out, "limit {n}");
    }
}

fn explain_body(db: &Database, body: &QueryBody, indent: usize, out: &mut String) {
    match body {
        QueryBody::Select(s) => explain_select(db, s, indent, out),
        QueryBody::SetOp {
            op,
            all,
            left,
            right,
        } => {
            pad(out, indent);
            // Only UNION ALL concatenates; INTERSECT/EXCEPT ALL match
            // by multiplicity (bag semantics), as the executor does.
            let how = match (op, *all) {
                (SetOp::Union, true) => " ALL (concatenate)",
                (SetOp::Union, false) => " (deduplicate)",
                (_, true) => " ALL (bag semantics: match multiplicities)",
                (_, false) => " (set semantics: deduplicate)",
            };
            let _ = writeln!(out, "{op}{how}");
            explain_body(db, left, indent + 1, out);
            explain_body(db, right, indent + 1, out);
        }
    }
}

fn table_label(t: &TableRef) -> String {
    match t {
        TableRef::Named { name, alias } => match alias {
            Some(a) => format!("{name} AS {a}"),
            None => name.clone(),
        },
        TableRef::Derived { alias, .. } => format!("(subquery) AS {alias}"),
    }
}

fn explain_select(db: &Database, s: &Select, indent: usize, out: &mut String) {
    // Fold uncorrelated subqueries exactly as the executor does, then
    // build the one physical plan both executors obey. EXPLAIN renders
    // that plan tree; it never re-derives a decision.
    let folded = s.where_clause.as_ref().map(|w| fold_uncorrelated(db, w));
    let plan = plan_select(db, s, folded.as_ref());
    let pushed_for = |binding: &str| -> Vec<String> {
        plan.pushed
            .iter()
            .filter(|(b, _)| b.eq_ignore_ascii_case(binding))
            .map(|(_, e)| expr_to_sql(e))
            .collect()
    };
    let access_str = |t: &TableRef, access: &Access| -> Option<String> {
        match access {
            Access::Index { column, .. } => {
                Some(format!("index lookup({}.{})", t.binding(), column))
            }
            Access::Seq | Access::Filtered => Some("seq scan".to_string()),
            Access::Derived => None,
        }
    };

    pad(out, indent);
    let _ = writeln!(out, "select ({} output column(s))", s.projections.len());
    if plan.vectorized && db.config().executor == Executor::Vectorized {
        pad(out, indent + 1);
        out.push_str("executor: vectorized (columnar batches)\n");
    }

    for (t, sp) in s.from.iter().zip(&plan.scans) {
        pad(out, indent + 1);
        let rows = t.base_table().map(|b| db.row_count(b)).unwrap_or_default();
        let filters = pushed_for(t.binding());
        let _ = write!(out, "scan {} [{rows} row(s)]", table_label(t));
        if !filters.is_empty() {
            let _ = write!(out, " filter: {}", filters.join(" AND "));
        }
        if let Some(access) = access_str(t, &sp.access) {
            let _ = write!(out, " via {access}");
        }
        out.push('\n');
        if let TableRef::Derived { query, .. } = t {
            explain_query(db, query, indent + 2, out);
        }
    }
    // Joins print in the plan's cost-chosen order.
    if plan.join_order.iter().enumerate().any(|(i, st)| i != st.ji) {
        pad(out, indent + 1);
        let names: Vec<&str> = plan
            .join_order
            .iter()
            .map(|st| s.joins[st.ji].table.binding())
            .collect();
        let _ = writeln!(out, "join order (cost-based): {}", names.join(", "));
    }
    for step in &plan.join_order {
        let j = &s.joins[step.ji];
        pad(out, indent + 1);
        let algo = match &step.algo {
            JoinAlgo::IndexNestedLoop { .. } => "index nested-loop join".to_string(),
            JoinAlgo::Hash { build_left } => format!(
                "hash join (build {})",
                if *build_left { "left" } else { "right" }
            ),
            JoinAlgo::NestedLoop => "nested-loop join".to_string(),
        };
        let kind = match j.kind {
            JoinKind::Inner => "",
            JoinKind::Left => " (left outer)",
        };
        let rows = j
            .table
            .base_table()
            .map(|b| db.row_count(b))
            .unwrap_or_default();
        let _ = write!(
            out,
            "{algo}{kind} {} [{rows} row(s)]",
            table_label(&j.table)
        );
        let filters = pushed_for(j.table.binding());
        if !filters.is_empty() && j.kind == JoinKind::Inner {
            let _ = write!(out, " filter: {}", filters.join(" AND "));
        }
        if let JoinAlgo::IndexNestedLoop { right_col, .. } = &step.algo {
            let _ = write!(
                out,
                " via index lookup({}.{})",
                j.table.binding(),
                right_col
            );
        } else if let Some(access) = access_str(&j.table, &step.scan.access) {
            let _ = write!(out, " via {access}");
        }
        if let Some(on) = &j.on {
            let _ = write!(out, " on {}", expr_to_sql(on));
        }
        out.push('\n');
        if let TableRef::Derived { query, .. } = &j.table {
            explain_query(db, query, indent + 2, out);
        }
    }
    if let Some(r) = &plan.residual {
        pad(out, indent + 1);
        let _ = writeln!(out, "residual filter: {}", expr_to_sql(r));
    }
    let aggregated = !s.group_by.is_empty()
        || s.projections
            .iter()
            .any(|p| matches!(p, SelectItem::Expr { expr, .. } if expr.contains_aggregate()));
    if aggregated {
        pad(out, indent + 1);
        if s.group_by.is_empty() {
            let _ = writeln!(out, "aggregate: single group");
        } else {
            let keys: Vec<String> = s.group_by.iter().map(expr_to_sql).collect();
            let _ = writeln!(out, "aggregate: group by {}", keys.join(", "));
        }
    }
    if let Some(h) = &s.having {
        pad(out, indent + 1);
        let _ = writeln!(out, "having: {}", expr_to_sql(h));
    }
    if s.distinct {
        pad(out, indent + 1);
        out.push_str("distinct\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, DataType, TableSchema};
    use crate::value::Value;

    fn db() -> Database {
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

    #[test]
    fn explains_pushdown_and_index_nested_loop_join() {
        let db = db();
        let plan = explain_sql(
            &db,
            "SELECT a.x FROM t AS a JOIN u AS b ON a.id = b.id WHERE a.x > 1 AND b.y = 103",
        )
        .unwrap();
        // Non-equality filter: no index driver for the scan.
        assert!(
            plan.contains("scan t AS a [5 row(s)] filter: a.x > 1 via seq scan"),
            "{plan}"
        );
        // Equi-join against a named base table probes its lazy index.
        assert!(plan.contains("index nested-loop join"), "{plan}");
        assert!(plan.contains("via index lookup(b.id)"), "{plan}");
        assert!(plan.contains("filter: b.y = 103"), "{plan}");
        assert!(!plan.contains("residual"), "{plan}");
    }

    #[test]
    fn equality_filter_scans_via_index_lookup() {
        let db = db();
        let plan = explain_sql(&db, "SELECT x FROM t WHERE id = 3").unwrap();
        assert!(
            plan.contains("filter: id = 3 via index lookup(t.id)"),
            "{plan}"
        );
        let plan = explain_sql(&db, "SELECT x FROM t WHERE id IN (1, 2)").unwrap();
        assert!(plan.contains("via index lookup(t.id)"), "{plan}");
        // Range predicates have no hash-index driver.
        let plan = explain_sql(&db, "SELECT x FROM t WHERE id > 3").unwrap();
        assert!(plan.contains("via seq scan"), "{plan}");
    }

    #[test]
    fn derived_join_falls_back_to_hash_join_with_build_side() {
        let db = db();
        let plan = explain_sql(
            &db,
            "SELECT a.x FROM t AS a JOIN (SELECT id FROM u) AS b ON a.id = b.id",
        )
        .unwrap();
        // No base table on the right: hash join, building on the
        // (estimated) smaller left input versus the unknown derived side.
        assert!(plan.contains("hash join (build left)"), "{plan}");
    }

    #[test]
    fn join_order_is_cost_based() {
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
        let plan = explain_sql(
            &db,
            "SELECT t.id FROM t \
             JOIN big ON big.tid = t.id \
             JOIN small ON small.tid = t.id",
        )
        .unwrap();
        // The small join commutes ahead of the big one.
        assert!(
            plan.contains("join order (cost-based): small, big"),
            "{plan}"
        );
    }

    #[test]
    fn cross_binding_predicates_stay_residual() {
        let db = db();
        let plan = explain_sql(
            &db,
            "SELECT a.x FROM t AS a JOIN u AS b ON a.id = b.id WHERE a.x > b.y",
        )
        .unwrap();
        assert!(plan.contains("residual filter: a.x > b.y"), "{plan}");
    }

    #[test]
    fn non_equi_join_uses_nested_loop() {
        let db = db();
        let plan = explain_sql(&db, "SELECT a.x FROM t AS a JOIN u AS b ON a.id < b.id").unwrap();
        assert!(plan.contains("nested-loop join"), "{plan}");
    }

    #[test]
    fn left_join_does_not_receive_pushed_filters() {
        let db = db();
        let plan = explain_sql(
            &db,
            "SELECT a.x FROM t AS a LEFT JOIN u AS b ON a.id = b.id WHERE b.y = 103",
        )
        .unwrap();
        assert!(plan.contains("(left outer)"), "{plan}");
        assert!(plan.contains("residual filter: b.y = 103"), "{plan}");
    }

    #[test]
    fn aggregation_and_tail_described() {
        let db = db();
        let plan = explain_sql(
            &db,
            "SELECT x, count(*) FROM t GROUP BY x HAVING count(*) > 0 ORDER BY x DESC LIMIT 2",
        )
        .unwrap();
        assert!(plan.contains("aggregate: group by x"), "{plan}");
        assert!(plan.contains("having: count(*) > 0"), "{plan}");
        assert!(plan.contains("sort by x DESC"), "{plan}");
        assert!(plan.contains("limit 2"), "{plan}");
    }

    #[test]
    fn set_ops_render_as_tree() {
        let db = db();
        let plan = explain_sql(&db, "SELECT id FROM t UNION SELECT id FROM u").unwrap();
        assert!(plan.contains("UNION (deduplicate)"), "{plan}");
        assert_eq!(plan.matches("select (").count(), 2, "{plan}");
    }

    #[test]
    fn bag_set_ops_described_by_multiplicity_not_concatenation() {
        let db = db();
        let plan = explain_sql(&db, "SELECT id FROM t INTERSECT ALL SELECT id FROM u").unwrap();
        assert!(
            plan.contains("INTERSECT ALL (bag semantics: match multiplicities)"),
            "{plan}"
        );
        let plan = explain_sql(&db, "SELECT id FROM t UNION ALL SELECT id FROM u").unwrap();
        assert!(plan.contains("UNION ALL (concatenate)"), "{plan}");
    }

    #[test]
    fn sort_line_spells_out_null_placement() {
        let db = db();
        let plan = explain_sql(&db, "SELECT x FROM t ORDER BY x DESC, id").unwrap();
        assert!(
            plan.contains("sort by x DESC NULLS FIRST, id NULLS LAST"),
            "{plan}"
        );
    }

    #[test]
    fn parse_errors_propagate() {
        let db = db();
        assert!(explain_sql(&db, "nope").is_err());
    }

    #[test]
    fn explain_analyze_reports_plan_spans_and_result() {
        let db = db();
        let report = explain_analyze_sql(
            &db,
            "SELECT a.x FROM t AS a JOIN u AS b ON a.id = b.id WHERE b.y = 103",
        )
        .unwrap();
        assert!(report.contains("plan:"), "{report}");
        assert!(report.contains("index nested-loop join"), "{report}");
        assert!(
            report.contains("execution (wall times are not deterministic):"),
            "{report}"
        );
        assert!(report.contains("join b [index nested-loop]"), "{report}");
        assert!(report.contains("probes="), "{report}");
        assert!(report.contains("result: 1 row(s), 1 column(s)"), "{report}");
    }

    #[test]
    fn explain_renders_the_executed_physical_plan() {
        let db = db();
        // Vectorized-eligible query: the rendered plan advertises the
        // columnar executor that will actually run it.
        let sql = "SELECT a.x FROM t AS a JOIN u AS b ON a.id = b.id WHERE b.y = 103";
        let plan = explain_sql(&db, sql).unwrap();
        assert!(
            plan.contains("executor: vectorized (columnar batches)"),
            "{plan}"
        );
        // The row engine's config removes the routing line — EXPLAIN
        // reflects the executor that will run, not a fixed banner.
        let row_db = db.clone().with_config(crate::EngineConfig {
            executor: Executor::Row,
            ..Default::default()
        });
        let plan_row = explain_sql(&row_db, sql).unwrap();
        assert!(!plan_row.contains("executor:"), "{plan_row}");
        // Derived tables are not vectorizable: the outer select carries
        // no executor line (the derived subquery, a plain scan of u,
        // still vectorizes on its own at its deeper indent).
        let plan = explain_sql(
            &db,
            "SELECT a.x FROM t AS a JOIN (SELECT id FROM u) AS b ON a.id = b.id",
        )
        .unwrap();
        assert!(!plan.contains("\n  executor:"), "{plan}");
    }

    #[test]
    fn explain_analyze_reports_execution_errors_inline() {
        let db = db();
        let report = explain_analyze_sql(&db, "SELECT nope FROM t").unwrap();
        assert!(report.contains("error: "), "{report}");
        // The scan completed before projection failed, so its span is
        // still in the report.
        assert!(report.contains("scan t"), "{report}");
    }
}
