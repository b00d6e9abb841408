//! Columnar batch executor with late materialization.
//!
//! The row engine ([`crate::exec`]) pays one `Vec<Value>` clone per
//! emitted join row and one per scanned row — on the paper-scale grid
//! that is tens of millions of deep `String` clones dominating the join
//! wall. This executor runs the *same* physical plan
//! ([`crate::plan::SelectPlan`]) over gather vectors instead: a scan is
//! a `Vec<u32>` of surviving row ids borrowing the base table, a join
//! pushes `(left id, right id)` pairs, and values materialize exactly
//! once — either in the native projection kernel or in one final
//! [`Relation`] handed to the row engine's shared output stage.
//!
//! # Equivalence contract
//!
//! Everything observable is bit-identical to the row engine:
//!
//! * **Results** — operators visit rows in the identical order and
//!   evaluate the identical expressions ([`veval`] mirrors
//!   `exec::eval` arm for arm, sharing `apply_unary`/`apply_binary`/
//!   `apply_function`/`truth` and the column-resolution errors).
//! * **Fuel** — every `budget::charge`/`charge_rows` call site is
//!   replicated at the same per-row position in the same order, so a
//!   budget trips with the identical `(stage, spent)` on both engines.
//! * **Deterministic trace counters** — spans open in the same nesting
//!   with the same stage/label, `rows_out` at the same points;
//!   `counter_tree()` is byte-identical. Only the advisory fields
//!   differ: `detail` strings and the `batches_out` column-vector
//!   counter (both excluded from the digests).
//!
//! Eligibility is decided by the planner (`SelectPlan::vectorized`:
//! non-empty FROM of named base tables, subquery-free residual and ON
//! clauses) plus two run-time conditions checked by `exec_select`: no
//! outer (correlated) scope and `Executor::Vectorized` in the
//! database's [`EngineConfig`](crate::EngineConfig).

use crate::budget::{charge, charge_rows};
use crate::db::Database;
use crate::error::EngineError;
use crate::exec::{
    apply_binary, apply_function, apply_unary, dedup_by_key, eval, expand_projections, find_col,
    key_of, lit_value, output_stage, resolve_column, truth, ColumnPlan, Env, Key, Relation, Slot,
};
use crate::plan::{contains_subquery, Access, JoinAlgo, JoinStep, SelectPlan};
use crate::result::ResultSet;
use crate::trace;
use crate::value::Value;
use sqlkit::ast::*;
use sqlkit::Dialect;
use std::collections::HashMap;

/// Advisory batch granularity: `batches_out` counts how many vectors of
/// this many rows each operator emitted.
const BATCH: u64 = 1024;

/// Gather sentinel for a NULL-extended (unmatched LEFT JOIN) row.
const NONE_ROW: u32 = u32::MAX;

static NULL_VALUE: Value = Value::Null;

fn batches_of(len: usize) -> u64 {
    (len as u64).div_ceil(BATCH)
}

/// One column block of a [`VRel`]: a borrowed base table plus a gather
/// vector mapping output row → base row ([`NONE_ROW`] = NULL-extended).
/// The block covers columns `[start, start + width)` of the relation.
struct VSlot<'a> {
    base: &'a [Vec<Value>],
    start: usize,
    width: usize,
    gather: Vec<u32>,
}

/// A late-materialized relation: the same `(binding, column)` layout as
/// `exec::Relation`, but rows exist only as per-slot gather vectors
/// over borrowed base tables. Slots are kept in column order (slot
/// `i+1.start == slot i.start + slot i.width`).
pub(crate) struct VRel<'a> {
    cols: Vec<(String, String)>,
    slots: Vec<VSlot<'a>>,
    len: usize,
    /// Column position → owning slot index.
    col_slot: Vec<usize>,
}

impl<'a> VRel<'a> {
    fn single(cols: Vec<(String, String)>, base: &'a [Vec<Value>], gather: Vec<u32>) -> VRel<'a> {
        let width = cols.len();
        let len = gather.len();
        VRel {
            col_slot: vec![0; width],
            cols,
            slots: vec![VSlot {
                base,
                start: 0,
                width,
                gather,
            }],
            len,
        }
    }

    fn from_parts(cols: Vec<(String, String)>, slots: Vec<VSlot<'a>>, len: usize) -> VRel<'a> {
        let mut col_slot = vec![0; cols.len()];
        for (i, s) in slots.iter().enumerate() {
            col_slot[s.start..s.start + s.width].fill(i);
        }
        VRel {
            cols,
            slots,
            len,
            col_slot,
        }
    }

    #[inline]
    fn value(&self, row: usize, col: usize) -> &Value {
        let slot = &self.slots[self.col_slot[col]];
        match slot.gather[row] {
            NONE_ROW => &NULL_VALUE,
            g => &slot.base[g as usize][col - slot.start],
        }
    }

    /// The one materialization point: clones the surviving values of the
    /// columns flagged in `read` into a row-engine [`Relation`], and
    /// fills every other cell with NULL. The layout (`cols`, row count,
    /// row width) is unchanged, so column resolution, fuel and trace
    /// counters are the same as for a full copy. Deliberately uncharged
    /// and span-free, exactly like the row engine's own scan/join
    /// materialization.
    fn materialize(&self, read: &[bool]) -> Relation {
        let mut rows: Vec<Vec<Value>> = (0..self.len)
            .map(|_| Vec::with_capacity(self.cols.len()))
            .collect();
        for slot in &self.slots {
            let read = &read[slot.start..slot.start + slot.width];
            let all = read.iter().all(|&r| r);
            for (r, row) in rows.iter_mut().enumerate() {
                match slot.gather[r] {
                    NONE_ROW => row.extend((0..slot.width).map(|_| Value::Null)),
                    g if all => row.extend_from_slice(&slot.base[g as usize][..slot.width]),
                    g => row.extend(
                        slot.base[g as usize][..slot.width]
                            .iter()
                            .zip(read)
                            .map(|(v, &keep)| if keep { v.clone() } else { Value::Null }),
                    ),
                }
            }
        }
        Relation {
            cols: self.cols.clone(),
            rows,
        }
    }
}

/// Flags the columns of `cols` that the shared output stage can read:
/// every column whose name appears in the expanded projection, GROUP
/// BY, HAVING or ORDER BY, whatever its qualifier. A subquery in any of
/// those may read anything, so then every column is flagged.
fn output_reads(
    cols: &[(String, String)],
    s: &Select,
    order_by: &[OrderItem],
    items: &[(String, Expr)],
) -> Vec<bool> {
    let exprs = || {
        items
            .iter()
            .map(|(_, e)| e)
            .chain(&s.group_by)
            .chain(&s.having)
            .chain(order_by.iter().map(|o| &o.expr))
    };
    if exprs().any(contains_subquery) {
        return vec![true; cols.len()];
    }
    let mut names: Vec<&str> = Vec::new();
    for e in exprs() {
        e.visit(&mut |e| {
            if let Expr::Column(c) = e {
                names.push(&c.column);
            }
        });
    }
    cols.iter()
        .map(|(_, n)| names.iter().any(|m| m.eq_ignore_ascii_case(n)))
        .collect()
}

/// `new[i] = old[picks[i]]`, with [`NONE_ROW`] picks (and entries)
/// propagated.
fn compose(gather: &[u32], picks: &[u32]) -> Vec<u32> {
    picks
        .iter()
        .map(|&p| {
            if p == NONE_ROW {
                NONE_ROW
            } else {
                gather[p as usize]
            }
        })
        .collect()
}

/// Applies a selection vector to every slot.
fn vfilter<'a>(rel: VRel<'a>, keeps: &[u32]) -> VRel<'a> {
    let slots = rel
        .slots
        .into_iter()
        .map(|s| VSlot {
            base: s.base,
            start: s.start,
            width: s.width,
            gather: compose(&s.gather, keeps),
        })
        .collect();
    VRel {
        cols: rel.cols,
        slots,
        len: keeps.len(),
        col_slot: rel.col_slot,
    }
}

/// Combines two relations' slots under one pick-pair list (the join
/// output shape): left slots gather through `lpicks`, right slots shift
/// by the left width and gather through `rpicks`.
fn join_output<'a>(
    left: VRel<'a>,
    right: VRel<'a>,
    cols: Vec<(String, String)>,
    lpicks: &[u32],
    rpicks: &[u32],
) -> VRel<'a> {
    let left_width = left.cols.len();
    let mut slots: Vec<VSlot<'a>> = Vec::with_capacity(left.slots.len() + right.slots.len());
    for s in left.slots {
        slots.push(VSlot {
            base: s.base,
            start: s.start,
            width: s.width,
            gather: compose(&s.gather, lpicks),
        });
    }
    for s in right.slots {
        slots.push(VSlot {
            base: s.base,
            start: s.start + left_width,
            width: s.width,
            gather: compose(&s.gather, rpicks),
        });
    }
    VRel::from_parts(cols, slots, lpicks.len())
}

// ---- vectorized expression evaluation ------------------------------------

/// Row source for one [`VEnv`]: a single relation, or a candidate join
/// pair that exists only during the probe (the join output is not built
/// yet when residual ON conjuncts run).
enum VSrc<'a, 'r> {
    One {
        rel: &'r VRel<'a>,
        row: usize,
    },
    /// `rrow: None` is the NULL-extended right side of a LEFT JOIN.
    Pair {
        left: &'r VRel<'a>,
        lrow: usize,
        right: &'r VRel<'a>,
        rrow: Option<usize>,
    },
    /// Index-nested-loop candidate: the right side is the base table
    /// itself (never materialized).
    PairBase {
        left: &'r VRel<'a>,
        lrow: usize,
        right: &'a [Vec<Value>],
        rrow: usize,
    },
}

/// The vectorized analog of `exec::Env`: same column layout, same
/// compiled [`ColumnPlan`], same resolution errors. No parent chain —
/// the planner gate guarantees no correlated scope.
struct VEnv<'a, 'r> {
    src: VSrc<'a, 'r>,
    cols: &'r [(String, String)],
    plan: Option<&'r ColumnPlan>,
    dialect: Dialect,
}

impl VEnv<'_, '_> {
    #[inline]
    fn at(&self, i: usize) -> &Value {
        match &self.src {
            VSrc::One { rel, row } => rel.value(*row, i),
            VSrc::Pair {
                left,
                lrow,
                right,
                rrow,
            } => {
                let lw = left.cols.len();
                if i < lw {
                    left.value(*lrow, i)
                } else {
                    match rrow {
                        Some(r) => right.value(*r, i - lw),
                        None => &NULL_VALUE,
                    }
                }
            }
            VSrc::PairBase {
                left,
                lrow,
                right,
                rrow,
            } => {
                let lw = left.cols.len();
                if i < lw {
                    left.value(*lrow, i)
                } else {
                    &right[*rrow][i - lw]
                }
            }
        }
    }

    /// Mirrors `Env::lookup` with `parent: None`: compiled slot first,
    /// name-scan fallback, identical error values.
    fn lookup(&self, c: &ColumnRef) -> Result<&Value, EngineError> {
        if let Some(plan) = self.plan {
            if let Some(slot) = plan.get(c) {
                return match slot {
                    Slot::Local(i) => Ok(self.at(i)),
                    Slot::Deferred => Err(EngineError::UnknownColumn(c.to_string())),
                    Slot::Ambiguous => Err(EngineError::AmbiguousColumn(c.column.clone())),
                };
            }
        }
        match resolve_column(self.cols, c)? {
            Some(i) => Ok(self.at(i)),
            None => Err(EngineError::UnknownColumn(c.to_string())),
        }
    }
}

/// `exec::eval` arm for arm over a [`VEnv`], minus the subquery arms
/// (unreachable: the planner gate rejects any query whose vectorized
/// expressions could contain one). Evaluation order, short-circuiting,
/// and the first error raised are identical to the row engine.
fn veval(expr: &Expr, env: &VEnv<'_, '_>) -> Result<Value, EngineError> {
    match expr {
        Expr::Column(c) => env.lookup(c).cloned(),
        Expr::Literal(l) => Ok(lit_value(l)),
        Expr::Unary { op, expr } => {
            let v = veval(expr, env)?;
            apply_unary(*op, &v)
        }
        Expr::Binary { left, op, right } => match op {
            BinOp::And => {
                let l = veval(left, env)?;
                if matches!(l, Value::Bool(false)) {
                    return Ok(Value::Bool(false));
                }
                let r = veval(right, env)?;
                Ok(match (truth(&l), truth(&r)) {
                    (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                    (Some(true), Some(true)) => Value::Bool(true),
                    _ => Value::Null,
                })
            }
            BinOp::Or => {
                let l = veval(left, env)?;
                if matches!(l, Value::Bool(true)) {
                    return Ok(Value::Bool(true));
                }
                let r = veval(right, env)?;
                Ok(match (truth(&l), truth(&r)) {
                    (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                    (Some(false), Some(false)) => Value::Bool(false),
                    _ => Value::Null,
                })
            }
            _ => {
                let l = veval(left, env)?;
                let r = veval(right, env)?;
                apply_binary(&l, *op, &r, env.dialect)
            }
        },
        Expr::Agg { .. } => Err(EngineError::Eval(
            "aggregate outside aggregation context".into(),
        )),
        Expr::Func { name, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(veval(a, env)?);
            }
            apply_function(name, &vals)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = veval(expr, env)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = veval(item, env)?;
                match v.sql_eq(&w, env.dialect)? {
                    Some(true) => return Ok(Value::Bool(!negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = veval(expr, env)?;
            let lo = veval(low, env)?;
            let hi = veval(high, env)?;
            let ge = v
                .sql_cmp(&lo, env.dialect)?
                .map(|o| o != std::cmp::Ordering::Less);
            let le = v
                .sql_cmp(&hi, env.dialect)?
                .map(|o| o != std::cmp::Ordering::Greater);
            Ok(match (ge, le) {
                (Some(a), Some(b)) => Value::Bool((a && b) != *negated),
                _ => Value::Null,
            })
        }
        Expr::IsNull { expr, negated } => {
            let v = veval(expr, env)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => Err(
            EngineError::Unsupported("subquery in vectorized executor".into()),
        ),
    }
}

fn vkeys_of(rel: &VRel<'_>, row: usize, idx: &[usize]) -> Vec<Key> {
    idx.iter().map(|&i| key_of(rel.value(row, i))).collect()
}

// ---- operators -----------------------------------------------------------

/// Vectorized SELECT execution over a planned query. The caller
/// (`exec::exec_select`) has already opened the `plan` span and checked
/// eligibility.
pub(crate) fn exec_select_vec(
    db: &Database,
    s: &Select,
    order_by: &[OrderItem],
    limit: Option<u64>,
    plan: &SelectPlan,
) -> Result<ResultSet, EngineError> {
    let dialect = db.config().dialect;
    // 1. FROM + joins: identical span/charge structure to the row
    // engine, but every operator emits gather vectors.
    let mut rel: Option<VRel<'_>> = None;
    for (item, sp) in s.from.iter().zip(&plan.scans) {
        let r = vscan(db, item, &plan.pushed, &sp.access)?;
        rel = Some(match rel {
            None => r,
            Some(l) => vcross_join(l, r)?,
        });
    }
    let mut rel = rel.expect("vectorized gate requires a non-empty FROM");
    let from_width = rel.cols.len();
    let mut blocks: Vec<(usize, usize)> = Vec::with_capacity(plan.join_order.len());
    for step in &plan.join_order {
        let before = rel.cols.len();
        rel = vexec_join(db, rel, &s.joins[step.ji], step, &plan.pushed)?;
        blocks.push((step.ji, rel.cols.len() - before));
    }
    restore_column_order(&mut rel, from_width, &blocks);

    // 2. Residual WHERE filter: a selection vector, no value movement.
    if let Some(w) = &plan.residual {
        let _span = trace::span("filter");
        let cplan = ColumnPlan::compile([w], &rel.cols);
        let mut keeps: Vec<u32> = Vec::with_capacity(rel.len);
        for row in 0..rel.len {
            let env = VEnv {
                src: VSrc::One { rel: &rel, row },
                cols: &rel.cols,
                plan: Some(&cplan),
                dialect,
            };
            if veval(w, &env)?.is_true() {
                keeps.push(row as u32);
            }
        }
        rel = vfilter(rel, &keeps);
        trace::rows_out(rel.len as u64);
        trace::batches(batches_of(rel.len));
    }

    // 3./4. Output. The plain unordered projection runs natively over
    // the gather vectors; everything else (aggregation, sorts, top-k,
    // subquery projections) materializes the columns it reads from the
    // surviving rows once and reuses the row engine's output stage
    // verbatim.
    let items = expand_projections(&rel.cols, &s.projections)?;
    let uses_aggregates = !s.group_by.is_empty()
        || items.iter().any(|(_, e)| e.contains_aggregate())
        || s.having.as_ref().is_some_and(|h| h.contains_aggregate())
        || order_by.iter().any(|o| o.expr.contains_aggregate());
    let native =
        !uses_aggregates && order_by.is_empty() && items.iter().all(|(_, e)| !contains_subquery(e));
    if !native {
        let rel = rel.materialize(&output_reads(&rel.cols, s, order_by, &items));
        return output_stage(db, s, order_by, limit, None, &rel);
    }

    let columns: Vec<String> = items.iter().map(|(n, _)| n.clone()).collect();
    let mut out = ResultSet::new(columns);
    {
        let _span = trace::span("project");
        let cplan = ColumnPlan::compile(items.iter().map(|(_, e)| e), &rel.cols);
        let width = items.len() as u64;
        let mut rows = Vec::with_capacity(rel.len);
        for row in 0..rel.len {
            charge("project", 1, width)?;
            charge_rows("output", 1)?;
            let env = VEnv {
                src: VSrc::One { rel: &rel, row },
                cols: &rel.cols,
                plan: Some(&cplan),
                dialect,
            };
            let mut out_row = Vec::with_capacity(items.len());
            for (_, e) in &items {
                out_row.push(veval(e, &env)?);
            }
            rows.push(out_row);
        }
        if s.distinct {
            dedup_by_key(&mut rows, |r| r.as_slice());
        }
        if let Some(n) = limit {
            rows.truncate(n as usize);
        }
        out.rows = rows;
        trace::rows_out(out.rows.len() as u64);
        trace::batches(batches_of(out.rows.len()));
    }
    Ok(out)
}

/// `exec::load_scan` over gather vectors: same span, same detail
/// strings, same index probes, same per-row predicate evaluation (via
/// `exec::eval` directly on the base rows) — but survivors are row ids,
/// not clones.
fn vscan<'a>(
    db: &'a Database,
    t: &TableRef,
    pushed: &[(String, Expr)],
    access: &Access,
) -> Result<VRel<'a>, EngineError> {
    let _span = trace::span_labeled("scan", || t.binding().to_string());
    let TableRef::Named { name, alias } = t else {
        // Unreachable: the planner gate rejects derived tables.
        return Err(EngineError::Unsupported(
            "derived table in vectorized executor".into(),
        ));
    };
    let schema = db
        .schema(name)
        .ok_or_else(|| EngineError::UnknownTable(name.clone()))?;
    let binding = alias.clone().unwrap_or_else(|| name.clone());
    let cols: Vec<(String, String)> = schema
        .columns
        .iter()
        .map(|c| (binding.clone(), c.name.clone()))
        .collect();
    let all = db.rows(name).unwrap();
    let mine: Vec<&Expr> = pushed
        .iter()
        .filter(|(b, _)| b.eq_ignore_ascii_case(t.binding()))
        .map(|(_, e)| e)
        .collect();
    let gather: Vec<u32> = if mine.is_empty() {
        trace::detail(|| "seq scan".to_string());
        (0..all.len() as u32).collect()
    } else {
        let cplan = ColumnPlan::compile(mine.iter().copied(), &cols);
        let keep = |row: &[Value]| -> Result<bool, EngineError> {
            for e in &mine {
                let env = Env {
                    cols: &cols,
                    row,
                    parent: None,
                    plan: Some(&cplan),
                };
                if !eval(db, e, &env)?.is_true() {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        let driver = match access {
            Access::Index { column, keys } => {
                db.index(name, column).map(|ix| (ix, keys.as_slice()))
            }
            _ => None,
        };
        let mut g = Vec::new();
        match driver {
            Some((ix, keys)) => {
                trace::detail(|| format!("index lookup ({} key(s))", keys.len()));
                let mut ids: Vec<u32> = Vec::new();
                let (mut hits, mut misses) = (0u64, 0u64);
                for k in keys {
                    match ix.lookup(k) {
                        Some(found) => {
                            hits += 1;
                            ids.extend_from_slice(found);
                        }
                        None => misses += 1,
                    }
                }
                db.note_index_probes(hits + misses, hits);
                ids.sort_unstable();
                ids.dedup();
                for id in ids {
                    if keep(&all[id as usize])? {
                        g.push(id);
                    }
                }
            }
            None => {
                trace::detail(|| "filtered seq scan".to_string());
                for (i, row) in all.iter().enumerate() {
                    if keep(row)? {
                        g.push(i as u32);
                    }
                }
            }
        }
        g
    };
    let rel = VRel::single(cols, all, gather);
    trace::rows_out(rel.len as u64);
    trace::batches(batches_of(rel.len));
    Ok(rel)
}

/// `exec::cross_join` over pick pairs: per-pair fuel, zero clones.
fn vcross_join<'a>(left: VRel<'a>, right: VRel<'a>) -> Result<VRel<'a>, EngineError> {
    let _span = trace::span_labeled("join", || "cross".to_string());
    trace::detail(|| "cross product".to_string());
    let mut cols = left.cols.clone();
    cols.extend(right.cols.iter().cloned());
    let width = cols.len() as u64;
    let mut lpicks: Vec<u32> = Vec::new();
    let mut rpicks: Vec<u32> = Vec::new();
    for l in 0..left.len as u32 {
        for r in 0..right.len as u32 {
            charge("cross-join", 1, width)?;
            lpicks.push(l);
            rpicks.push(r);
        }
    }
    let rel = join_output(left, right, cols, &lpicks, &rpicks);
    trace::rows_out(rel.len as u64);
    trace::batches(batches_of(rel.len));
    Ok(rel)
}

/// `exec::exec_join` over gather vectors, following the same plan step.
fn vexec_join<'a>(
    db: &'a Database,
    left: VRel<'a>,
    join: &Join,
    step: &JoinStep,
    pushed: &[(String, Expr)],
) -> Result<VRel<'a>, EngineError> {
    if let JoinAlgo::IndexNestedLoop { right_col, lpos } = &step.algo {
        if let TableRef::Named { name, .. } = &join.table {
            if let Some(ix) = db.index(name, right_col) {
                return vinl_join(db, left, join, *lpos, &ix, pushed);
            }
        }
    }
    let right_pushed: &[(String, Expr)] = if join.kind == JoinKind::Inner {
        pushed
    } else {
        &[]
    };
    let right = vscan(db, &join.table, right_pushed, &step.scan.access)?;
    let _span = trace::span_labeled("join", || join.table.binding().to_string());
    let out = vjoin_relations(left, right, join, &step.algo, db.config().dialect);
    if let Ok(rel) = &out {
        trace::rows_out(rel.len as u64);
        trace::batches(batches_of(rel.len));
    }
    out
}

/// `exec::index_nested_loop_join` over gather vectors: identical probe
/// sequence, check order, and per-emitted-row fuel; the matching right
/// rows stay in the base table.
fn vinl_join<'a>(
    db: &'a Database,
    left: VRel<'a>,
    join: &Join,
    lpos: usize,
    ix: &crate::db::ColumnIndex,
    pushed: &[(String, Expr)],
) -> Result<VRel<'a>, EngineError> {
    let _span = trace::span_labeled("join", || join.table.binding().to_string());
    trace::detail(|| "index nested-loop".to_string());
    let TableRef::Named { name, .. } = &join.table else {
        unreachable!("INL join requires a named table");
    };
    let binding = join.table.binding();
    let schema = db.schema(name).expect("checked by the planner");
    let right_rows = db.rows(name).unwrap();
    let dialect = db.config().dialect;
    let mut cols = left.cols.clone();
    cols.extend(
        schema
            .columns
            .iter()
            .map(|c| (binding.to_string(), c.name.clone())),
    );

    let mine: Vec<&Expr> = pushed
        .iter()
        .filter(|(b, _)| b.eq_ignore_ascii_case(binding))
        .map(|(_, e)| e)
        .collect();
    let on = join.on.as_ref().expect("checked by the planner");
    let checks: Vec<&Expr> = mine.iter().copied().chain([on]).collect();
    let cplan = ColumnPlan::compile(checks.iter().copied(), &cols);

    let width = cols.len() as u64;
    let mut lpicks: Vec<u32> = Vec::new();
    let mut rpicks: Vec<u32> = Vec::new();
    // One probe per left row: tallied locally and flushed in a single
    // batch — even on a budget abort — so the hot loop pays no
    // per-probe atomics or thread-local reads.
    let (mut probes, mut hits) = (0u64, 0u64);
    let scanned: Result<(), EngineError> = (|| {
        for lrow in 0..left.len {
            probes += 1;
            let candidates = match ix.lookup(left.value(lrow, lpos)) {
                Some(c) => {
                    hits += 1;
                    c
                }
                None => continue,
            };
            'cand: for &ri in candidates {
                let env = VEnv {
                    src: VSrc::PairBase {
                        left: &left,
                        lrow,
                        right: right_rows,
                        rrow: ri as usize,
                    },
                    cols: &cols,
                    plan: Some(&cplan),
                    dialect,
                };
                for e in &checks {
                    if !veval(e, &env)?.is_true() {
                        continue 'cand;
                    }
                }
                charge("join", 1, width)?;
                lpicks.push(lrow as u32);
                rpicks.push(ri);
            }
        }
        Ok(())
    })();
    db.note_index_probes(probes, hits);
    scanned?;

    let left_width = left.cols.len();
    let mut slots: Vec<VSlot<'a>> = Vec::with_capacity(left.slots.len() + 1);
    for s in left.slots {
        slots.push(VSlot {
            base: s.base,
            start: s.start,
            width: s.width,
            gather: compose(&s.gather, &lpicks),
        });
    }
    slots.push(VSlot {
        base: right_rows,
        start: left_width,
        width: cols.len() - left_width,
        gather: rpicks,
    });
    let len = slots[0].gather.len();
    let rel = VRel::from_parts(cols, slots, len);
    trace::rows_out(rel.len as u64);
    trace::batches(batches_of(rel.len));
    Ok(rel)
}

/// `exec::join_relations` over pick pairs: equi-pairs re-derived
/// against the same layouts, plan-chosen build side, identical emit
/// order (left-major, right candidates ascending) and fuel.
fn vjoin_relations<'a>(
    left: VRel<'a>,
    right: VRel<'a>,
    join: &Join,
    algo: &JoinAlgo,
    dialect: Dialect,
) -> Result<VRel<'a>, EngineError> {
    let mut cols = left.cols.clone();
    cols.extend(right.cols.iter().cloned());

    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut residual: Vec<&Expr> = Vec::new();
    if let Some(on) = &join.on {
        for conj in on.conjuncts() {
            if let Expr::Binary {
                left: a,
                op: BinOp::Eq,
                right: b,
            } = conj
            {
                if let (Expr::Column(ca), Expr::Column(cb)) = (a.as_ref(), b.as_ref()) {
                    let la = find_col(&left.cols, ca);
                    let rb = find_col(&right.cols, cb);
                    if let (Some(i), Some(j)) = (la, rb) {
                        left_keys.push(i);
                        right_keys.push(j);
                        continue;
                    }
                    let lb = find_col(&left.cols, cb);
                    let ra = find_col(&right.cols, ca);
                    if let (Some(i), Some(j)) = (lb, ra) {
                        left_keys.push(i);
                        right_keys.push(j);
                        continue;
                    }
                }
            }
            residual.push(conj);
        }
    }

    let mut lpicks: Vec<u32> = Vec::new();
    let mut rpicks: Vec<u32> = Vec::new();

    if !left_keys.is_empty() {
        let cplan = ColumnPlan::compile(residual.iter().copied(), &cols);
        let width = cols.len() as u64;
        let residual_ok = |lrow: usize, rrow: usize| -> Result<bool, EngineError> {
            for e in &residual {
                let env = VEnv {
                    src: VSrc::Pair {
                        left: &left,
                        lrow,
                        right: &right,
                        rrow: Some(rrow),
                    },
                    cols: &cols,
                    plan: Some(&cplan),
                    dialect,
                };
                if !veval(e, &env)?.is_true() {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        if matches!(algo, JoinAlgo::Hash { build_left: true }) {
            // Build on the left: collect per-left-row match lists during
            // the right-side probe, then emit in left order.
            trace::detail(|| "hash (build left)".to_string());
            let mut table: HashMap<Vec<Key>, Vec<usize>> = HashMap::with_capacity(left.len);
            for l in 0..left.len {
                if left_keys.iter().any(|&k| left.value(l, k).is_null()) {
                    continue; // NULL keys never match.
                }
                table
                    .entry(vkeys_of(&left, l, &left_keys))
                    .or_default()
                    .push(l);
            }
            let mut matches: Vec<Vec<u32>> = vec![Vec::new(); left.len];
            for r in 0..right.len {
                if right_keys.iter().any(|&k| right.value(r, k).is_null()) {
                    continue;
                }
                if let Some(lids) = table.get(&vkeys_of(&right, r, &right_keys)) {
                    for &li in lids {
                        matches[li].push(r as u32);
                    }
                }
            }
            for (l, m) in matches.iter().enumerate() {
                let mut matched = false;
                for &ri in m {
                    if residual_ok(l, ri as usize)? {
                        charge("join", 1, width)?;
                        lpicks.push(l as u32);
                        rpicks.push(ri);
                        matched = true;
                    }
                }
                if !matched && join.kind == JoinKind::Left {
                    charge("join", 1, width)?;
                    lpicks.push(l as u32);
                    rpicks.push(NONE_ROW);
                }
            }
        } else {
            // Build on the right, probe with left rows.
            trace::detail(|| "hash (build right)".to_string());
            let mut table: HashMap<Vec<Key>, Vec<usize>> = HashMap::with_capacity(right.len);
            for r in 0..right.len {
                if right_keys.iter().any(|&k| right.value(r, k).is_null()) {
                    continue; // NULL keys never match.
                }
                table
                    .entry(vkeys_of(&right, r, &right_keys))
                    .or_default()
                    .push(r);
            }
            for l in 0..left.len {
                let mut matched = false;
                if !left_keys.iter().any(|&k| left.value(l, k).is_null()) {
                    if let Some(candidates) = table.get(&vkeys_of(&left, l, &left_keys)) {
                        for &ri in candidates {
                            if residual_ok(l, ri)? {
                                charge("join", 1, width)?;
                                lpicks.push(l as u32);
                                rpicks.push(ri as u32);
                                matched = true;
                            }
                        }
                    }
                }
                if !matched && join.kind == JoinKind::Left {
                    charge("join", 1, width)?;
                    lpicks.push(l as u32);
                    rpicks.push(NONE_ROW);
                }
            }
        }
    } else {
        // Nested loop: every candidate pair is charged, identically to
        // the row engine.
        trace::detail(|| "nested loop".to_string());
        let width = cols.len() as u64;
        let cplan = join.on.as_ref().map(|on| ColumnPlan::compile([on], &cols));
        for l in 0..left.len {
            let mut matched = false;
            for r in 0..right.len {
                charge("join", 1, width)?;
                let ok = match &join.on {
                    Some(on) => {
                        let env = VEnv {
                            src: VSrc::Pair {
                                left: &left,
                                lrow: l,
                                right: &right,
                                rrow: Some(r),
                            },
                            cols: &cols,
                            plan: cplan.as_ref(),
                            dialect,
                        };
                        veval(on, &env)?.is_true()
                    }
                    None => true,
                };
                if ok {
                    lpicks.push(l as u32);
                    rpicks.push(r as u32);
                    matched = true;
                }
            }
            if !matched && join.kind == JoinKind::Left {
                charge("join", 1, width)?;
                lpicks.push(l as u32);
                rpicks.push(NONE_ROW);
            }
        }
    }

    Ok(join_output(left, right, cols, &lpicks, &rpicks))
}

/// `exec::restore_join_column_order` at slot granularity: every join
/// step contributed exactly one slot, so permuting the join slots back
/// to written order (and recomputing the column offsets) is pure
/// metadata work — no row movement at all.
fn restore_column_order(rel: &mut VRel<'_>, from_width: usize, blocks: &[(usize, usize)]) {
    let nfrom = rel.slots.iter().filter(|s| s.start < from_width).count();
    debug_assert_eq!(rel.slots.len(), nfrom + blocks.len());
    let mut order: Vec<(usize, usize)> = blocks
        .iter()
        .enumerate()
        .map(|(k, &(ji, _))| (ji, nfrom + k))
        .collect();
    order.sort_by_key(|&(ji, _)| ji);
    if order
        .iter()
        .enumerate()
        .all(|(k, &(_, si))| si == nfrom + k)
    {
        return;
    }
    let perm: Vec<usize> = (0..nfrom).chain(order.iter().map(|&(_, si)| si)).collect();
    let segments: Vec<&[(String, String)]> = rel
        .slots
        .iter()
        .map(|s| &rel.cols[s.start..s.start + s.width])
        .collect();
    let new_cols: Vec<(String, String)> = perm
        .iter()
        .flat_map(|&oi| segments[oi].iter().cloned())
        .collect();
    let mut old: Vec<Option<VSlot<'_>>> = std::mem::take(&mut rel.slots)
        .into_iter()
        .map(Some)
        .collect();
    let mut new_slots = Vec::with_capacity(old.len());
    let mut start = 0;
    for &oi in &perm {
        let mut s = old[oi].take().expect("permutation visits each slot once");
        s.start = start;
        start += s.width;
        new_slots.push(s);
    }
    rel.cols = new_cols;
    let mut col_slot = vec![0; rel.cols.len()];
    for (i, s) in new_slots.iter().enumerate() {
        col_slot[s.start..s.start + s.width].fill(i);
    }
    rel.slots = new_slots;
    rel.col_slot = col_slot;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{corpus_db, reference::ref_execute_sql};
    use crate::exec::execute_sql;

    /// The flags [`output_reads`] sets for `sql`'s single SELECT over its
    /// FROM/JOIN layout, rendered as the flagged columns in layout order.
    fn reads(db: &Database, sql: &str) -> Vec<String> {
        let q = sqlkit::parse_query(sql).unwrap();
        let QueryBody::Select(s) = &q.body else {
            panic!("not a plain SELECT: {sql}")
        };
        let mut cols: Vec<(String, String)> = Vec::new();
        for t in s.table_refs() {
            let TableRef::Named { name, alias } = t else {
                panic!("not a named table: {sql}")
            };
            let binding = alias.clone().unwrap_or_else(|| name.clone());
            for c in &db.schema(name).unwrap().columns {
                cols.push((binding.clone(), c.name.clone()));
            }
        }
        let items = expand_projections(&cols, &s.projections).unwrap();
        let flags = output_reads(&cols, s, &q.order_by, &items);
        cols.iter()
            .zip(flags)
            .filter(|(_, f)| *f)
            .map(|((b, n), _)| format!("{b}.{n}"))
            .collect()
    }

    #[test]
    fn materialization_keeps_only_the_columns_the_output_stage_reads() {
        let db = corpus_db(3);
        let cases: [(&str, &[&str]); 7] = [
            // GROUP BY, HAVING and ORDER BY on columns nobody projects.
            (
                "SELECT count(*) FROM player AS p JOIN appearance AS a ON a.pid = p.pid \
                 GROUP BY p.squad HAVING max(a.minutes) > 10 ORDER BY p.squad",
                &["p.squad", "a.minutes"],
            ),
            // Full sort and top-k on a non-projected column.
            (
                "SELECT pid FROM player ORDER BY score DESC",
                &["player.pid", "player.score"],
            ),
            (
                "SELECT nick FROM player ORDER BY ratio LIMIT 3",
                &["player.ratio", "player.nick"],
            ),
            // An unqualified name flags every column of that name, so
            // an ambiguous reference still fails as ambiguous.
            (
                "SELECT count(pid) FROM player AS p JOIN appearance AS a ON a.pid = p.pid",
                &["p.pid", "a.pid"],
            ),
            (
                "SELECT min(nick) FROM player AS p JOIN appearance AS a ON a.pid = p.pid \
                 WHERE a.card = 'red'",
                &["p.nick"],
            ),
            // An aggregate over SELECT * reads every column.
            (
                "SELECT *, count(*) FROM appearance GROUP BY aid, pid, minutes, card",
                &[
                    "appearance.aid",
                    "appearance.pid",
                    "appearance.minutes",
                    "appearance.card",
                ],
            ),
            // A subquery may read any column of the outer row.
            (
                "SELECT (SELECT max(minutes) FROM appearance AS x WHERE x.pid = p.pid) \
                 FROM player AS p ORDER BY 1",
                &["p.pid", "p.squad", "p.score", "p.ratio", "p.nick"],
            ),
        ];
        for (sql, want) in cases {
            assert_eq!(reads(&db, sql), want, "{sql}");
            // The pruned relation answers exactly as the reference
            // interpreter, which materializes nothing lazily.
            match (execute_sql(&db, sql), ref_execute_sql(&db, sql)) {
                (Ok(got), Ok(reference)) => {
                    assert!(got.matches(&reference), "{sql}\n{got}\nvs\n{reference}");
                    assert_eq!(got.ordered, reference.ordered, "{sql}");
                }
                (Err(got), Err(reference)) => assert_eq!(got, reference, "{sql}"),
                (got, reference) => panic!("{sql}: {got:?} vs {reference:?}"),
            }
        }
        assert!(reads(&db, "SELECT count(*) FROM player").is_empty());
    }
}
