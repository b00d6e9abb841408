//! The five Text-to-SQL systems.
//!
//! Each system composes the real pipeline pieces per Table 4:
//!
//! * **ValueNet** — schema linking + value finder + SemQL IR; the
//!   prediction is reconstructed from the IR through the shortest-join-
//!   path algorithm (post-processing), so multi-FK data-model shapes
//!   fail mechanically.
//! * **T5-Picard** — seq2seq decoding without key information, with
//!   Picard grammar/schema-constrained decoding.
//! * **T5-Picard_Keys** — same with PK/FK-augmented schema encoding.
//! * **GPT-3.5 / LLaMA2-70B** — few-shot prompting with embedding-based
//!   example retrieval; LLaMA2's 4,096-token context caps the shots.
//!
//! On an unsuccessful capability draw the system emits a *characteristic
//! wrong prediction* — a realistic corruption of the query (wrong value,
//! missing filter, flipped operator, wrong column, hallucinated
//! identifier) rather than a coin-flip blank, so error analyses see
//! realistic failure artifacts.

use crate::capability::{Budget, SystemKind};
use crate::cost;
use crate::decode::{constrain, DecodeOutcome};
use crate::fault::{corrupt_sql, FaultKind, FaultPlan, RetryPolicy, SimClock};
use crate::ir::SemQl;
use crate::joinpath::JoinGraph;
use crate::prompt::build_prompt;
use crate::retrieval::RetrievalIndex;
use crate::schema_encode::{approx_tokens, encode_schema, EncodeOptions};
use footballdb::DataModel;
use nlq::GoldExample;
use sqlengine::{
    execute_sql_with_budget, Catalog, Database, EngineError, ExecBudget, QueryCache, ResultSet,
    Value,
};
use sqlkit::ast::{BinOp, Expr, Lit, Query, Select, SelectItem};
use std::sync::Arc;
use xrng::Rng;

/// Shared evaluation context for one (data model, training budget).
pub struct SystemContext<'a> {
    pub model: DataModel,
    pub db: &'a Database,
    pub graph: &'a JoinGraph,
    /// Retrieval index over the training/few-shot pool.
    pub index: Option<&'a RetrievalIndex<'a>>,
    pub budget: Budget,
}

impl SystemContext<'_> {
    pub fn catalog(&self) -> &Catalog {
        self.db.catalog()
    }
}

/// How a prediction executes the SQL it verifies: a failed draw checks
/// that its corruption really answers differently from gold (see
/// [`predict_governed_with`]).
///
/// Gold runs unbudgeted, exactly as execution match runs it. Each
/// candidate runs under `budget`, the fuel budget execution match will
/// apply to the emitted SQL; a candidate that trips it counts as wrong,
/// like an unexecutable one. With a `cache`, gold executes once per
/// (model, item), repeated candidates execute once, and the emitted
/// candidate is already memoized when execution match scores it.
#[derive(Debug, Clone, Copy)]
pub struct ExecContext<'a> {
    /// The data model's query cache; `None` executes every query afresh.
    pub cache: Option<&'a QueryCache>,
    /// Fuel budget for candidate executions.
    pub budget: ExecBudget,
}

impl ExecContext<'_> {
    /// No cache and the default budget.
    fn uncached() -> ExecContext<'static> {
        ExecContext {
            cache: None,
            budget: ExecBudget::default(),
        }
    }

    fn gold(&self, db: &Database, sql: &str) -> Result<Arc<ResultSet>, EngineError> {
        match self.cache {
            Some(cache) => cache.execute_cached(db, sql),
            None => execute_sql_with_budget(db, sql, &ExecBudget::UNLIMITED).map(Arc::new),
        }
    }

    fn candidate(&self, db: &Database, sql: &str) -> Result<Arc<ResultSet>, EngineError> {
        match self.cache {
            Some(cache) => cache.execute_budgeted(db, sql, &self.budget),
            None => execute_sql_with_budget(db, sql, &self.budget).map(Arc::new),
        }
    }
}

/// LLaMA2-70B's context limit (paper footnote 2).
pub const LLAMA_TOKEN_BUDGET: usize = 4096;
/// GPT-3.5's effective context for the paper's prompts.
pub const GPT_TOKEN_BUDGET: usize = 16384;

/// One prediction.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// The produced SQL, or `None` when the system generated nothing
    /// (the paper's ~11% no-SQL cases).
    pub sql: Option<String>,
    /// Simulated wall-clock seconds.
    pub latency: f64,
    /// Few-shot examples that actually fit the prompt (LLMs).
    pub shots_used: usize,
    /// Picard prefix checks performed (decode cost diagnostics).
    pub prefix_checks: usize,
    /// Size of the constructed prompt in tokens (LLM systems; 0 for
    /// fine-tuned systems, whose encoder input is accounted separately).
    pub prompt_tokens: usize,
    /// Executions a failed draw requested to verify its corruption: the
    /// gold query plus every candidate checked. Counts requests, not
    /// engine runs, so it does not depend on what the cache holds.
    pub verify_executions: usize,
    /// Verified candidates that tripped the [`ExecContext`] budget
    /// (each counted as wrong).
    pub verify_budget_trips: usize,
}

/// The decoder's output for one draw and the work it took.
#[derive(Debug, Default)]
struct Produced {
    sql: Option<String>,
    prefix_checks: usize,
    verify_executions: usize,
    verify_budget_trips: usize,
}

/// Runs one system on one question, without fault injection.
///
/// `p_success` is the calibrated success probability from
/// [`crate::capability::success_probabilities`]; the draw is taken from
/// `rng`, which the harness forks per (system, item) for determinism.
fn predict(
    kind: SystemKind,
    item: &GoldExample,
    ctx: &SystemContext<'_>,
    exec: &ExecContext<'_>,
    p_success: f64,
    rng: &mut Rng,
) -> Prediction {
    // Few-shot retrieval under the context budget. The budget is scaled
    // by the prompt format's verbosity: LLaMA2's chat template and
    // instruction blocks inflate every token of payload, which is why
    // the paper could fit at most 8 shots into its 4,096-token window.
    // The schema encoding feeds only this prompt: latency is simulated
    // from output tokens, not from input size.
    let mut shots_used = 0;
    let mut prompt_tokens = 0;
    if let (Budget::FewShot(want), Some(index)) = (ctx.budget, ctx.index) {
        let enc_opts = match kind {
            SystemKind::ValueNet => EncodeOptions::FULL,
            SystemKind::T5Picard => EncodeOptions::SCHEMA_ONLY,
            _ => EncodeOptions::WITH_KEYS,
        };
        let schema_text = encode_schema(ctx.catalog(), Some(ctx.db), enc_opts);
        let schema_tokens = approx_tokens(&schema_text);
        let (budget, verbosity) = match kind {
            SystemKind::Llama2 => (LLAMA_TOKEN_BUDGET, 2.5),
            _ => (GPT_TOKEN_BUDGET, 1.0),
        };
        let effective = (budget as f64 / verbosity) as usize;
        let (shots, _tokens) =
            index.shots_within_budget(&item.question, ctx.model, want, schema_tokens, effective);
        shots_used = shots.len();
        // Materialize the actual prompt the model would receive.
        let shot_refs: Vec<&GoldExample> = shots.iter().map(|&i| index.example(i)).collect();
        let prompt = build_prompt(kind, &schema_text, &shot_refs, ctx.model, &item.question);
        prompt_tokens = approx_tokens(&prompt);
    }

    let success = rng.chance(p_success);
    let gold = item.sql(ctx.model);

    let produced = if success {
        let (sql, prefix_checks) = produce_success(kind, gold, ctx);
        Produced {
            sql,
            prefix_checks,
            ..Produced::default()
        }
    } else {
        produce_failure(kind, gold, ctx, exec, rng)
    };

    // When no SQL is emitted the decoder still ran to the failure point;
    // charge roughly a full decode.
    let out_tokens = produced
        .sql
        .as_deref()
        .map(sqlkit::token_count)
        .unwrap_or_else(|| sqlkit::token_count(gold));
    let latency = cost::latency(kind, out_tokens, rng);

    Prediction {
        sql: produced.sql,
        latency,
        shots_used,
        prefix_checks: produced.prefix_checks,
        prompt_tokens,
        verify_executions: produced.verify_executions,
        verify_budget_trips: produced.verify_budget_trips,
    }
}

/// A prediction that passed through a [`FaultPlan`]: the base prediction
/// (possibly corrupted), plus what the governor observed.
#[derive(Debug, Clone)]
pub struct GovernedPrediction {
    pub prediction: Prediction,
    /// The injected fault, if this (system, question) drew one.
    pub fault: Option<FaultKind>,
    /// Retry attempts consumed by a transient fault.
    pub retries: u32,
    /// Simulated seconds spent backing off (already added to latency).
    pub backoff_s: f64,
    /// True when a transient fault exhausted every retry: the provider
    /// never answered and the prediction carries no SQL.
    pub gave_up: bool,
}

/// [`predict_governed_with`] with no query cache and the default budget.
pub fn predict_governed(
    kind: SystemKind,
    item: &GoldExample,
    ctx: &SystemContext<'_>,
    p_success: f64,
    rng: &mut Rng,
    plan: Option<&FaultPlan>,
    retry: &RetryPolicy,
) -> GovernedPrediction {
    predict_governed_with(
        kind,
        item,
        ctx,
        &ExecContext::uncached(),
        p_success,
        rng,
        plan,
        retry,
    )
}

/// Runs one system on one question, wrapped in fault injection and
/// retry governance. Verification executions go through `exec`.
///
/// `p_success` is the calibrated success probability from
/// [`crate::capability::success_probabilities`]; the draw is taken from
/// `rng`, which the harness forks per (system, item) for determinism.
///
/// With `plan = None` no fault is injected. With a plan, the question's
/// seeded fault draw decides what happens at the provider boundary:
/// non-transient faults corrupt the emitted SQL ([`corrupt_sql`]); a
/// transient fault enters a retry loop whose exponential, seeded-jitter
/// backoff accrues on a simulated clock into the prediction's latency —
/// recovery leaves the SQL untouched, exhaustion drops it. A panic draw
/// (independent stream, see [`FaultPlan::draws_panic`]) panics *before*
/// any work, exercising the harness's per-query isolation.
#[allow(clippy::too_many_arguments)]
pub fn predict_governed_with(
    kind: SystemKind,
    item: &GoldExample,
    ctx: &SystemContext<'_>,
    exec: &ExecContext<'_>,
    p_success: f64,
    rng: &mut Rng,
    plan: Option<&FaultPlan>,
    retry: &RetryPolicy,
) -> GovernedPrediction {
    if let Some(plan) = plan {
        if plan.draws_panic(kind, item.id) {
            panic!("injected worker fault: {kind} question {}", item.id);
        }
    }
    let mut prediction = predict(kind, item, ctx, exec, p_success, rng);
    let fault = plan.and_then(|p| p.draw(kind, item.id));
    let Some(kind_drawn) = fault else {
        return GovernedPrediction {
            prediction,
            fault: None,
            retries: 0,
            backoff_s: 0.0,
            gave_up: false,
        };
    };
    let plan = plan.expect("fault implies plan");
    let mut inject = plan.injection_rng(kind, item.id);
    if kind_drawn != FaultKind::Transient {
        prediction.sql = corrupt_sql(kind_drawn, prediction.sql.take(), &mut inject);
        return GovernedPrediction {
            prediction,
            fault,
            retries: 0,
            backoff_s: 0.0,
            gave_up: false,
        };
    }
    // Transient provider error: deterministic retry with exponential
    // backoff. Each attempt recovers iff its uniform draw is >= the
    // fault rate, so recovery is monotone across rates with the same
    // seed (recovered at a high rate => recovered at any lower one).
    let mut clock = SimClock::new();
    let mut retries = 0;
    let mut recovered = false;
    for attempt in 0..retry.max_retries {
        clock.advance(retry.delay_s(attempt, &mut inject));
        retries += 1;
        if inject.f64() >= plan.rate {
            recovered = true;
            break;
        }
    }
    prediction.latency += clock.now_s();
    if !recovered {
        prediction.sql = None;
    }
    GovernedPrediction {
        prediction,
        fault,
        retries,
        backoff_s: clock.now_s(),
        gave_up: !recovered,
    }
}

/// Successful prediction: the pipeline reproduces the gold query through
/// its own machinery.
fn produce_success(
    kind: SystemKind,
    gold: &str,
    ctx: &SystemContext<'_>,
) -> (Option<String>, usize) {
    match kind {
        SystemKind::ValueNet => {
            // Gold → IR → SQL through the join-path algorithm. The
            // capability layer only grants success on non-vetoed items,
            // so this normally succeeds; any residual failure is an
            // honest pipeline failure.
            let Ok(q) = sqlkit::parse_query(gold) else {
                return (None, 0);
            };
            match SemQl::from_query(&q) {
                Ok(ir) => match ir.to_sql(ctx.graph) {
                    Ok(sql) => (Some(sql), 0),
                    Err(_) => (None, 0),
                },
                Err(_) => (None, 0),
            }
        }
        SystemKind::T5Picard | SystemKind::T5PicardKeys => {
            let outcome = constrain(gold, ctx.catalog());
            match outcome {
                DecodeOutcome::Accepted { prefix_checks } => {
                    (Some(gold.to_string()), prefix_checks)
                }
                DecodeOutcome::Rejected { prefix_checks, .. } => (None, prefix_checks),
            }
        }
        SystemKind::Gpt35 | SystemKind::Llama2 => (Some(gold.to_string()), 0),
    }
}

/// Failed prediction: a characteristic corruption of the query.
fn produce_failure(
    kind: SystemKind,
    gold: &str,
    ctx: &SystemContext<'_>,
    exec: &ExecContext<'_>,
    rng: &mut Rng,
) -> Produced {
    // Some failures produce nothing at all.
    let p_none = match kind {
        SystemKind::ValueNet => 0.25,
        SystemKind::T5Picard | SystemKind::T5PicardKeys => 0.10,
        _ => 0.05,
    };
    if rng.chance(p_none) {
        return Produced::default();
    }
    let Ok(query) = sqlkit::parse_query(gold) else {
        return Produced::default();
    };
    // A failed prediction must actually *be* a failure: corruptions that
    // happen to produce the gold results are retried (the capability
    // model already decided this draw is wrong).
    let mut out = Produced {
        verify_executions: 1,
        ..Produced::default()
    };
    let gold_result = exec.gold(ctx.db, gold).ok();
    let is_really_wrong = |sql: &str, out: &mut Produced| -> bool {
        out.verify_executions += 1;
        match exec.candidate(ctx.db, sql) {
            Ok(rs) => gold_result.as_ref().is_none_or(|g| !rs.matches(g)),
            // Execution match will abort this candidate the same way.
            Err(EngineError::BudgetExceeded { .. }) => {
                out.verify_budget_trips += 1;
                true
            }
            // Unexecutable output is wrong by definition.
            Err(_) => true,
        }
    };

    for _attempt in 0..8 {
        let mut q = query.clone();
        let mutated = apply_mutation(&mut q, ctx, rng);
        if !mutated {
            break;
        }
        let sql = sqlkit::to_sql(&q);
        let emit = match kind {
            SystemKind::T5Picard | SystemKind::T5PicardKeys => {
                // Picard rejects schema-invalid corruptions; the decoder
                // backtracks and tries another beam.
                let outcome = constrain(&sql, ctx.catalog());
                out.prefix_checks += outcome.prefix_checks();
                (outcome.accepted() && is_really_wrong(&sql, &mut out)).then_some(sql)
            }
            // The IR layer keeps output schema-valid by construction;
            // emit only when an IR form exists.
            SystemKind::ValueNet => SemQl::from_query(&q)
                .ok()
                .and_then(|ir| ir.to_sql(ctx.graph).ok())
                .filter(|sql| is_really_wrong(sql, &mut out)),
            _ => is_really_wrong(&sql, &mut out).then_some(sql),
        };
        if emit.is_some() {
            out.sql = emit;
            break;
        }
    }
    out
}

/// Applies one random corruption in place. Returns false when the query
/// offers no mutation point.
fn apply_mutation(query: &mut Query, ctx: &SystemContext<'_>, rng: &mut Rng) -> bool {
    for _ in 0..6 {
        let choice = rng.index(6);
        let done = match choice {
            0 => mutate_literal(query, ctx, rng),
            1 => drop_where(query),
            2 => flip_operator(query),
            3 => swap_projection_column(query, ctx, rng),
            4 => tweak_limit(query, rng),
            _ => hallucinate_column(query, rng),
        };
        if done {
            return true;
        }
    }
    false
}

fn first_select_mut(query: &mut Query) -> Option<&mut Select> {
    match &mut query.body {
        sqlkit::ast::QueryBody::Select(s) => Some(s),
        sqlkit::ast::QueryBody::SetOp { left, .. } => {
            let mut node = left;
            loop {
                match node.as_mut() {
                    sqlkit::ast::QueryBody::Select(s) => return Some(s),
                    sqlkit::ast::QueryBody::SetOp { left, .. } => node = left,
                }
            }
        }
    }
}

/// Mutates the n-th literal in the WHERE clause.
fn mutate_literal(query: &mut Query, ctx: &SystemContext<'_>, rng: &mut Rng) -> bool {
    let teams: Vec<String> = ctx
        .db
        .rows("national_team")
        .map(|rows| {
            rows.iter()
                .filter_map(|r| match &r[1] {
                    Value::Text(s) => Some(s.clone()),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();
    let Some(select) = first_select_mut(query) else {
        return false;
    };
    let Some(w) = &mut select.where_clause else {
        return false;
    };
    let mut count = 0usize;
    count_literals(w, &mut count);
    if count == 0 {
        return false;
    }
    let target = rng.index(count);
    let mut seen = 0usize;
    mutate_nth_literal(w, target, &mut seen, &teams, rng)
}

fn count_literals(e: &Expr, count: &mut usize) {
    e.visit(&mut |x| {
        if matches!(x, Expr::Literal(_)) {
            *count += 1;
        }
    });
}

fn mutate_nth_literal(
    e: &mut Expr,
    target: usize,
    seen: &mut usize,
    teams: &[String],
    rng: &mut Rng,
) -> bool {
    match e {
        Expr::Literal(l) => {
            let hit = *seen == target;
            *seen += 1;
            if hit {
                *l = mutated_lit(l, teams, rng);
                return true;
            }
            false
        }
        Expr::Unary { expr, .. } => mutate_nth_literal(expr, target, seen, teams, rng),
        Expr::Binary { left, right, .. } => {
            mutate_nth_literal(left, target, seen, teams, rng)
                || mutate_nth_literal(right, target, seen, teams, rng)
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            mutate_nth_literal(expr, target, seen, teams, rng)
                || mutate_nth_literal(low, target, seen, teams, rng)
                || mutate_nth_literal(high, target, seen, teams, rng)
        }
        Expr::InList { expr, list, .. } => {
            if mutate_nth_literal(expr, target, seen, teams, rng) {
                return true;
            }
            for item in list {
                if mutate_nth_literal(item, target, seen, teams, rng) {
                    return true;
                }
            }
            false
        }
        Expr::IsNull { expr, .. } => mutate_nth_literal(expr, target, seen, teams, rng),
        Expr::Agg { arg: Some(a), .. } => mutate_nth_literal(a, target, seen, teams, rng),
        Expr::Func { args, .. } => {
            for a in args {
                if mutate_nth_literal(a, target, seen, teams, rng) {
                    return true;
                }
            }
            false
        }
        _ => false,
    }
}

fn mutated_lit(l: &Lit, teams: &[String], rng: &mut Rng) -> Lit {
    match l {
        Lit::Int(v) => {
            let mut delta = rng.range_i64(1, 6);
            if rng.chance(0.5) {
                delta = -delta;
            }
            Lit::Int(v + delta)
        }
        Lit::Float(v) => Lit::Float(v + 1.0),
        Lit::Str(s) if s == "True" => Lit::Str("False".into()),
        Lit::Str(s) if s == "False" => Lit::Str("True".into()),
        Lit::Str(s) => {
            // Substitute a different entity when the value looks like a
            // team name; otherwise garble the string.
            if teams.iter().any(|t| t == s) && teams.len() > 1 {
                loop {
                    let cand = &teams[rng.index(teams.len())];
                    if cand != s {
                        return Lit::Str(cand.clone());
                    }
                }
            }
            Lit::Str(format!("{s}x"))
        }
        Lit::Bool(b) => Lit::Bool(!b),
        Lit::Null => Lit::Int(0),
    }
}

fn drop_where(query: &mut Query) -> bool {
    let Some(select) = first_select_mut(query) else {
        return false;
    };
    if select.where_clause.is_some() {
        select.where_clause = None;
        true
    } else {
        false
    }
}

fn flip_operator(query: &mut Query) -> bool {
    let Some(select) = first_select_mut(query) else {
        return false;
    };
    let Some(w) = &mut select.where_clause else {
        return false;
    };
    flip_first_cmp(w)
}

fn flip_first_cmp(e: &mut Expr) -> bool {
    match e {
        Expr::Binary { op, left, right } => {
            if op.is_comparison() && !matches!(op, BinOp::Like | BinOp::NotLike) {
                let cur = *op;
                *op = match cur {
                    BinOp::Eq => BinOp::Neq,
                    BinOp::Neq => BinOp::Eq,
                    BinOp::Lt => BinOp::Gt,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::Lte => BinOp::Gte,
                    BinOp::Gte => BinOp::Lte,
                    other => other,
                };
                true
            } else {
                flip_first_cmp(left) || flip_first_cmp(right)
            }
        }
        Expr::Unary { expr, .. } => flip_first_cmp(expr),
        _ => false,
    }
}

fn swap_projection_column(query: &mut Query, ctx: &SystemContext<'_>, rng: &mut Rng) -> bool {
    let catalog = ctx.catalog();
    let Some(select) = first_select_mut(query) else {
        return false;
    };
    // Alias → base table map.
    let bindings: Vec<(String, String)> = select
        .table_refs()
        .filter_map(|t| {
            t.base_table()
                .map(|b| (t.binding().to_string(), b.to_string()))
        })
        .collect();
    for item in &mut select.projections {
        if let SelectItem::Expr {
            expr: Expr::Column(c),
            ..
        } = item
        {
            let base = match &c.table {
                Some(a) => bindings
                    .iter()
                    .find(|(bind, _)| bind.eq_ignore_ascii_case(a))
                    .map(|(_, b)| b.clone()),
                None => bindings.first().map(|(_, b)| b.clone()),
            };
            let Some(base) = base else { continue };
            let Some(schema) = catalog.table(&base) else {
                continue;
            };
            let others: Vec<&str> = schema
                .column_names()
                .filter(|n| !n.eq_ignore_ascii_case(&c.column))
                .collect();
            if others.is_empty() {
                continue;
            }
            c.column = others[rng.index(others.len())].to_string();
            return true;
        }
    }
    false
}

fn tweak_limit(query: &mut Query, rng: &mut Rng) -> bool {
    match query.limit {
        Some(n) => {
            query.limit = Some(n + 1 + rng.below(3));
            true
        }
        None => false,
    }
}

fn hallucinate_column(query: &mut Query, _rng: &mut Rng) -> bool {
    let Some(select) = first_select_mut(query) else {
        return false;
    };
    for item in &mut select.projections {
        if let SelectItem::Expr {
            expr: Expr::Column(c),
            ..
        } = item
        {
            // A plausible-but-wrong identifier, the classic LLM slip.
            c.column = format!("{}_name", c.column.trim_end_matches("name"));
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::{profile_items, success_probabilities};
    use footballdb::{generate, load};
    use nlq::gold::{build_benchmark, PipelineConfig};
    use sqlengine::execute_sql;

    struct Fixture {
        db: Database,
        graph: JoinGraph,
        bench: nlq::Benchmark,
    }

    fn fixture(model: DataModel) -> Fixture {
        let d = generate(7);
        let db = load(&d, model);
        let graph = JoinGraph::from_catalog(&model.catalog());
        let cfg = PipelineConfig {
            raw_questions: 500,
            pool_size: 200,
            selected_size: 80,
            test_size: 20,
            clusters: 12,
            ..PipelineConfig::default()
        };
        let bench = build_benchmark(&d, 5, &cfg);
        Fixture { db, graph, bench }
    }

    /// One ungoverned prediction: no fault plan, no cache, default budget.
    fn predict_plain(
        kind: SystemKind,
        item: &GoldExample,
        ctx: &SystemContext<'_>,
        p_success: f64,
        rng: &mut Rng,
    ) -> Prediction {
        let retry = RetryPolicy::default();
        let exec = ExecContext::uncached();
        predict_governed_with(kind, item, ctx, &exec, p_success, rng, None, &retry).prediction
    }

    fn ctx<'a>(f: &'a Fixture, model: DataModel, budget: Budget) -> SystemContext<'a> {
        SystemContext {
            model,
            db: &f.db,
            graph: &f.graph,
            index: None,
            budget,
        }
    }

    #[test]
    fn success_draw_reproduces_gold_results_for_llm() {
        let model = DataModel::V3;
        let f = fixture(model);
        let c = ctx(&f, model, Budget::FewShot(0));
        let mut rng = Rng::new(1);
        let item = &f.bench.test[0];
        let p = predict_plain(SystemKind::Gpt35, item, &c, 1.0, &mut rng);
        assert_eq!(p.sql.as_deref(), Some(item.sql(model)));
    }

    #[test]
    fn failure_draw_changes_results() {
        let model = DataModel::V3;
        let f = fixture(model);
        let c = ctx(&f, model, Budget::FewShot(0));
        let mut wrong = 0;
        let mut total = 0;
        for (i, item) in f.bench.test.iter().enumerate() {
            let mut rng = Rng::new(100 + i as u64);
            let p = predict_plain(SystemKind::Gpt35, item, &c, 0.0, &mut rng);
            total += 1;
            let gold_rs = execute_sql(&f.db, item.sql(model)).unwrap();
            let matches = match p.sql.as_deref() {
                None => false,
                Some(sql) => execute_sql(&f.db, sql)
                    .map(|rs| rs.matches(&gold_rs))
                    .unwrap_or(false),
            };
            if !matches {
                wrong += 1;
            }
        }
        // Corruptions occasionally coincide with gold results, but the
        // vast majority must be wrong.
        assert!(
            wrong * 10 >= total * 8,
            "only {wrong}/{total} corrupted predictions were wrong"
        );
    }

    #[test]
    fn valuenet_success_path_goes_through_ir() {
        let model = DataModel::V3;
        let f = fixture(model);
        let c = ctx(&f, model, Budget::FineTuned(300));
        // Find a non-vetoed item.
        let profiles = profile_items(&f.bench.test, model, &f.graph);
        let (i, _) = profiles
            .iter()
            .enumerate()
            .find(|(_, p)| !p.semql_veto)
            .expect("some v3 item is SemQL-compatible");
        let item = &f.bench.test[i];
        let mut rng = Rng::new(3);
        let p = predict_plain(SystemKind::ValueNet, item, &c, 1.0, &mut rng);
        let sql = p.sql.expect("ValueNet emits SQL on success");
        // The reconstruction is alias-normalized, not byte-identical.
        let gold_rs = execute_sql(&f.db, item.sql(model)).unwrap();
        let pred_rs = execute_sql(&f.db, &sql).unwrap_or_else(|e| panic!("{e}\n{sql}"));
        assert!(
            pred_rs.matches(&gold_rs),
            "gold {} vs {}",
            item.sql(model),
            sql
        );
    }

    #[test]
    fn picard_systems_emit_schema_valid_sql_only() {
        let model = DataModel::V1;
        let f = fixture(model);
        let c = ctx(&f, model, Budget::FineTuned(300));
        for (i, item) in f.bench.test.iter().enumerate() {
            let mut rng = Rng::new(i as u64);
            let p = predict_plain(SystemKind::T5PicardKeys, item, &c, 0.3, &mut rng);
            if let Some(sql) = &p.sql {
                assert!(
                    constrain(sql, c.catalog()).accepted(),
                    "Picard emitted invalid SQL: {sql}"
                );
            }
        }
    }

    #[test]
    fn llama_budget_limits_shots() {
        let model = DataModel::V2;
        let f = fixture(model);
        let index = RetrievalIndex::build(&f.bench.train);
        let c = SystemContext {
            model,
            db: &f.db,
            graph: &f.graph,
            index: Some(&index),
            budget: Budget::FewShot(30),
        };
        let mut rng = Rng::new(5);
        let item = &f.bench.test[0];
        let llama = predict_plain(SystemKind::Llama2, item, &c, 0.5, &mut rng);
        let gpt = predict_plain(SystemKind::Gpt35, item, &c, 0.5, &mut rng);
        assert!(
            llama.shots_used < gpt.shots_used,
            "LLaMA {} vs GPT {}",
            llama.shots_used,
            gpt.shots_used
        );
        assert!(gpt.shots_used >= 20);
    }

    #[test]
    fn llama_prompts_respect_token_window() {
        let model = DataModel::V2;
        let f = fixture(model);
        let index = RetrievalIndex::build(&f.bench.train);
        let c = SystemContext {
            model,
            db: &f.db,
            graph: &f.graph,
            index: Some(&index),
            budget: Budget::FewShot(30),
        };
        let mut rng = Rng::new(7);
        for item in f.bench.test.iter().take(5) {
            let p = predict_plain(SystemKind::Llama2, item, &c, 0.5, &mut rng);
            assert!(
                p.prompt_tokens <= LLAMA_TOKEN_BUDGET,
                "prompt of {} tokens exceeds the 4096 window",
                p.prompt_tokens
            );
            assert!(p.prompt_tokens > 0);
        }
    }

    #[test]
    fn latency_ordering_matches_table7() {
        let model = DataModel::V1;
        let f = fixture(model);
        let c = ctx(&f, model, Budget::FineTuned(300));
        let item = &f.bench.test[0];
        let mut lat = std::collections::HashMap::new();
        for kind in SystemKind::ALL {
            let mut xs = Vec::new();
            for s in 0..30u64 {
                let mut rng = Rng::new(s);
                xs.push(predict_plain(kind, item, &c, 0.9, &mut rng).latency);
            }
            lat.insert(kind, xs.iter().sum::<f64>() / xs.len() as f64);
        }
        assert!(lat[&SystemKind::ValueNet] < lat[&SystemKind::Gpt35]);
        assert!(lat[&SystemKind::Gpt35] < lat[&SystemKind::Llama2]);
        assert!(lat[&SystemKind::Llama2] < lat[&SystemKind::T5PicardKeys]);
        assert!(lat[&SystemKind::T5PicardKeys] < lat[&SystemKind::T5Picard]);
    }

    #[test]
    fn capability_probabilities_feed_realistic_accuracy() {
        // End-to-end smoke: the measured accuracy under the plan should
        // be near the target for a mid-size configuration.
        let model = DataModel::V3;
        let f = fixture(model);
        let c = ctx(&f, model, Budget::FineTuned(300));
        let profiles = profile_items(&f.bench.test, model, &f.graph);
        let probs = success_probabilities(
            SystemKind::T5PicardKeys,
            model,
            Budget::FineTuned(300),
            &profiles,
        );
        let mut correct = 0;
        let runs = 10;
        for run in 0..runs {
            for (i, item) in f.bench.test.iter().enumerate() {
                let mut rng = Rng::new((run * 1000 + i) as u64);
                let p = predict_plain(SystemKind::T5PicardKeys, item, &c, probs[i], &mut rng);
                let gold_rs = execute_sql(&f.db, item.sql(model)).unwrap();
                if let Some(sql) = p.sql.as_deref() {
                    if let Ok(rs) = execute_sql(&f.db, sql) {
                        if rs.matches(&gold_rs) {
                            correct += 1;
                        }
                    }
                }
            }
        }
        let acc = correct as f64 / (runs * f.bench.test.len()) as f64;
        assert!(
            (0.28..0.58).contains(&acc),
            "accuracy {acc} far from the 0.41 target"
        );
    }

    #[test]
    fn runaway_candidate_under_tiny_budget_counts_as_wrong_and_ends_the_loop() {
        let model = DataModel::V1;
        let f = fixture(model);
        let c = ctx(&f, model, Budget::FewShot(0));
        // Every corruption point of this query (dropping or flipping the
        // join predicate) leaves a world_cup x national_team cross join
        // that the tiny budget cannot afford. Gold runs unbudgeted.
        let sql =
            "SELECT COUNT(*) FROM world_cup AS w, national_team AS t WHERE w.winner = t.team_id";
        let item = GoldExample {
            id: 0,
            question: "How many World Cups have a winner?".into(),
            sql: [sql.into(), sql.into(), sql.into()],
            topic: "winners",
        };
        let tiny = ExecBudget::UNLIMITED.with_max_steps(100);
        let cache = QueryCache::new();
        let exec = ExecContext {
            cache: Some(&cache),
            budget: tiny,
        };
        let retry = RetryPolicy::default();
        let mut emitted = 0;
        for seed in 0..20 {
            let mut rng = Rng::new(seed);
            let g = predict_governed_with(
                SystemKind::Gpt35,
                &item,
                &c,
                &exec,
                0.0,
                &mut rng,
                None,
                &retry,
            );
            let p = g.prediction;
            let Some(out) = p.sql else {
                // A no-SQL draw, or no mutation point drawn: no candidate
                // was checked.
                assert!(p.verify_executions <= 1);
                assert_eq!(p.verify_budget_trips, 0);
                continue;
            };
            emitted += 1;
            // Gold plus the first candidate: its trip rejected it as a
            // correct answer, so the loop ended there.
            assert_eq!((p.verify_executions, p.verify_budget_trips), (2, 1));
            assert!(matches!(
                execute_sql_with_budget(&f.db, &out, &tiny),
                Err(EngineError::BudgetExceeded { .. })
            ));
        }
        assert!(emitted > 0);
        // Only gold was stored: an aborted candidate never fills the cache.
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn cached_verification_predicts_what_uncached_verification_predicts() {
        let model = DataModel::V2;
        let f = fixture(model);
        let c = ctx(&f, model, Budget::FineTuned(300));
        let cache = QueryCache::new();
        let cached = ExecContext {
            cache: Some(&cache),
            budget: ExecBudget::default(),
        };
        let retry = RetryPolicy::default();
        for kind in SystemKind::ALL {
            // Two passes, so the second is served from a warm cache.
            for _ in 0..2 {
                for (i, item) in f.bench.test.iter().enumerate() {
                    let mut rng = Rng::new(i as u64);
                    let want = predict_plain(kind, item, &c, 0.0, &mut rng);
                    let mut rng = Rng::new(i as u64);
                    let got =
                        predict_governed_with(kind, item, &c, &cached, 0.0, &mut rng, None, &retry)
                            .prediction;
                    assert_eq!(got.sql, want.sql, "{kind} item {i}");
                    assert_eq!(got.latency, want.latency);
                    assert_eq!(got.verify_executions, want.verify_executions);
                    assert_eq!(got.verify_budget_trips, want.verify_budget_trips);
                }
            }
        }
        assert!(cache.stats().hits > 0);
    }
}
