//! Quickstart: build FootballDB, ask a question, get SQL and results.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use footballdb::{generate, load, DataModel};
use nlq::gold::{build_benchmark, PipelineConfig};
use sqlengine::execute_sql;
use textosql::{
    predict_governed, profile_items, success_probabilities, Budget, JoinGraph, RetrievalIndex,
    RetryPolicy, SystemContext, SystemKind,
};
use xrng::Rng;

fn main() {
    // 1. Synthesize the dataset and materialize the v3 data model.
    let domain = generate(footballdb::DEFAULT_SEED);
    let model = DataModel::V3;
    let db = load(&domain, model);
    println!(
        "FootballDB {model}: {} tables, {} rows",
        db.catalog().table_count(),
        db.total_rows()
    );

    // 2. Build a small gold benchmark (training pool for few-shot).
    let cfg = PipelineConfig {
        raw_questions: 800,
        pool_size: 300,
        selected_size: 120,
        test_size: 20,
        clusters: 14,
        ..PipelineConfig::default()
    };
    let bench = build_benchmark(&domain, 7, &cfg);
    println!(
        "benchmark: {} train / {} test questions",
        bench.train.len(),
        bench.test.len()
    );

    // 3. Run GPT-3.5-style few-shot prediction on a test question.
    let graph = JoinGraph::from_catalog(&model.catalog());
    let index = RetrievalIndex::build(&bench.train);
    let ctx = SystemContext {
        model,
        db: &db,
        graph: &graph,
        index: Some(&index),
        budget: Budget::FewShot(10),
    };
    let profiles = profile_items(&bench.test, model, &graph);
    let probs = success_probabilities(SystemKind::Gpt35, model, Budget::FewShot(10), &profiles);

    let item = &bench.test[0];
    let mut rng = Rng::new(42);
    // No fault plan: the provider answers every question.
    let pred = predict_governed(
        SystemKind::Gpt35,
        item,
        &ctx,
        probs[0],
        &mut rng,
        None,
        &RetryPolicy::default(),
    )
    .prediction;

    println!("\nQ: {}", item.question);
    match &pred.sql {
        Some(sql) => {
            println!("predicted SQL: {sql}");
            println!(
                "latency: {:.2}s (simulated), {} shots",
                pred.latency, pred.shots_used
            );
            match execute_sql(&db, sql) {
                Ok(rs) => print!("\nresults:\n{rs}"),
                Err(e) => println!("execution failed: {e}"),
            }
        }
        None => println!("the system produced no SQL"),
    }

    // 4. Score it with execution matching against the gold label.
    let outcome = evalkit::execution_match(&db, item.sql(model), pred.sql.as_deref());
    println!("\nEX outcome: {outcome:?}");
}
