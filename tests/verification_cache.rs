//! Transparency of the query cache on prediction's verification path.
//!
//! A failed prediction executes the gold query and its corruption
//! candidates to check that it really is wrong. Those executions go
//! through the data model's query cache, so the match step often hits
//! entries that prediction filled. Scoring must not notice: per-item
//! outcomes, failures, predicted SQL and latencies, and the
//! deterministic trace counters of the match step, must equal a run with
//! every cache disabled, at any thread count. That includes the entries
//! that hold no rows: oversize results (answered by shape) and
//! deterministic errors, and hits under a budget tighter than the one
//! that filled the entry.

use evalkit::{
    run_fewshot_grid, run_finetuned_grid, run_prepared, set_thread_override, EvalSetup, ExOutcome,
    FailureKind, Governor, ItemTrace, PreparedConfig, RunResult, STAGES,
};
use footballdb::DataModel;
use nlq::GoldExample;
use sqlengine::ExecBudget;
use std::sync::{Mutex, OnceLock};
use textosql::{Budget, SystemKind};
use xrng::Rng;

/// Serializes the tests: they toggle the process-global thread override
/// and the shared setup's cache switch.
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn setup() -> &'static EvalSetup {
    static SETUP: OnceLock<EvalSetup> = OnceLock::new();
    SETUP.get_or_init(|| EvalSetup::small(7))
}

/// Per-stage span counts, rows and fuel: the deterministic part of an
/// item's match-step trace.
fn det(t: &ItemTrace) -> Vec<(u64, u64, u64, u64)> {
    STAGES
        .iter()
        .map(|&s| {
            let a = t.stage(s);
            (a.calls, a.rows_out, a.fuel_steps, a.fuel_cells)
        })
        .collect()
}

type ItemKey = (
    usize,
    ExOutcome,
    Option<FailureKind>,
    Option<String>,
    u64,
    Vec<(u64, u64, u64, u64)>,
);

fn fingerprint(runs: &[&RunResult]) -> Vec<ItemKey> {
    runs.iter()
        .flat_map(|r| &r.items)
        .map(|i| {
            (
                i.item_id,
                i.outcome,
                i.failure,
                i.predicted_sql.clone(),
                i.latency.to_bits(),
                det(&i.trace),
            )
        })
        .collect()
}

/// Scores `grid` with caches disabled and with cold caches enabled, at 1
/// and 8 workers, and asserts all four fingerprints are identical.
fn assert_cache_transparent(grid: impl Fn(&EvalSetup) -> Vec<ItemKey>) {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let s = setup();
    let mut reference: Option<Vec<ItemKey>> = None;
    for threads in [1, 8] {
        set_thread_override(Some(threads));
        for enabled in [false, true] {
            s.set_query_caches_enabled(enabled);
            s.clear_query_caches();
            let got = grid(s);
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    assert_eq!(want.len(), got.len());
                    for (w, g) in want.iter().zip(&got) {
                        assert_eq!(w, g, "threads {threads}, caches enabled {enabled}");
                    }
                }
            }
        }
    }
    // The last run had caches enabled: it must have hit every kind of
    // entry, so the comparison above covers all three.
    let stats = s.cache_stats();
    assert!(stats.hits > 0, "the enabled runs exercised the cache");
    assert!(stats.shape_hits > 0, "no oversize entry was hit: {stats:?}");
    assert!(stats.error_hits > 0, "no error entry was hit: {stats:?}");
    s.set_query_caches_enabled(true);
    set_thread_override(None);
}

#[test]
fn finetuned_grid_scores_identically_with_and_without_caches() {
    assert_cache_transparent(|s| {
        let runs = run_finetuned_grid(s, &[0, 100, 300]);
        fingerprint(&runs.iter().collect::<Vec<_>>())
    });
}

#[test]
fn fewshot_grid_scores_identically_with_and_without_caches() {
    assert_cache_transparent(|s| {
        let folded = run_fewshot_grid(s);
        fingerprint(&folded.iter().map(|f| &f.last_run).collect::<Vec<_>>())
    });
}

/// The first fold of every few-shot grid cell, built as
/// `run_fewshot_grid` builds it, under `budget`.
fn fewshot_cells(s: &EvalSetup, budget: ExecBudget) -> Vec<PreparedConfig> {
    let specs: [(SystemKind, &[usize]); 2] = [
        (SystemKind::Gpt35, &[0, 10, 20, 30]),
        (SystemKind::Llama2, &[0, 2, 4, 8]),
    ];
    let mut cells = Vec::new();
    for model in DataModel::ALL {
        for (system, shot_list) in specs {
            for &shots in shot_list {
                let mut rng = Rng::new(s.seed).fork(&format!("fold/{system}/{model}/{shots}/0"));
                let idx = rng.sample_indices(s.benchmark.train.len(), shots.max(1));
                let pool: Vec<GoldExample> = if shots == 0 {
                    Vec::new()
                } else {
                    idx.iter().map(|&i| s.benchmark.train[i].clone()).collect()
                };
                cells.push(PreparedConfig {
                    system,
                    model,
                    budget: Budget::FewShot(shots),
                    pool,
                    run_label: "table6/f0".to_string(),
                    governor: Governor {
                        budget,
                        ..Governor::default()
                    },
                });
            }
        }
    }
    cells
}

/// One shared cache serves the default governor and then a far tighter
/// budget (the chaos sweep's): entries filled unbudgeted or under the
/// default budget must not answer a caller whose budget an uncached run
/// would trip.
#[test]
fn fewshot_grid_under_a_tight_budget_after_the_default_one_scores_as_uncached() {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let s = setup();
    let tight = ExecBudget {
        max_steps: 30_000,
        max_cells: 300_000,
        max_rows: 10_000,
    };
    let mut reference: Option<(Vec<ItemKey>, Vec<ItemKey>)> = None;
    for enabled in [false, true] {
        s.set_query_caches_enabled(enabled);
        s.clear_query_caches();
        let default = run_prepared(s, &fewshot_cells(s, ExecBudget::default()));
        let tightened = run_prepared(s, &fewshot_cells(s, tight));
        let got = (
            fingerprint(&default.iter().collect::<Vec<_>>()),
            fingerprint(&tightened.iter().collect::<Vec<_>>()),
        );
        match &reference {
            None => {
                assert!(
                    got.1
                        .iter()
                        .any(|k| k.2 == Some(FailureKind::BudgetExceeded)),
                    "the tight budget must trip some predictions"
                );
                reference = Some(got);
            }
            Some(want) => {
                assert_eq!(want.0, got.0, "default budget, caches enabled");
                for (w, g) in want.1.iter().zip(&got.1) {
                    assert_eq!(w, g, "tight budget, caches enabled");
                }
            }
        }
    }
    assert!(
        s.cache_stats().hits > 0,
        "the enabled run exercised the cache"
    );
    s.set_query_caches_enabled(true);
}
