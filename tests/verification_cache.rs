//! Transparency of the query cache on prediction's verification path.
//!
//! A failed prediction executes the gold query and its corruption
//! candidates to check that it really is wrong. Those executions go
//! through the data model's query cache, so the match step often hits
//! entries that prediction filled. Scoring must not notice: per-item
//! outcomes, failures, predicted SQL and latencies, and the
//! deterministic trace counters of the match step, must equal a run with
//! every cache disabled, at any thread count.

use evalkit::{
    run_fewshot_grid, run_finetuned_grid, set_thread_override, EvalSetup, ExOutcome, FailureKind,
    ItemTrace, RunResult, STAGES,
};
use std::sync::{Mutex, OnceLock};

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
    assert!(
        s.cache_stats().hits > 0,
        "the enabled runs exercised the cache"
    );
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
