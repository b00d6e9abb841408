//! Concurrency-safe memoization of query executions.
//!
//! The evaluation harness executes the *same* gold SQL for every
//! (system × budget) configuration that shares a data model, and many
//! predicted queries repeat verbatim across configurations: a correct
//! prediction is often the gold text itself, and a wrong one is often
//! the same corruption drawn again. A [`QueryCache`] remembers how each
//! distinct query ended, keyed by its text per database instance, so
//! repeats skip the engine. An entry is one of three outcomes:
//!
//! * **rows** — a result of at most `max_cells` cells, shared behind an
//!   `Arc`;
//! * **oversize** — a larger result, remembered by its shape (column and
//!   row counts) only. Such results come from wrong predictions
//!   (unconstrained joins, missing filters), and they repeat like any
//!   other prediction, but pinning their rows would cost far more memory
//!   than the rest of the cache. A shape is enough to settle most
//!   comparisons: [`ResultSet::matches`] checks column and row counts
//!   before any value, so [`QueryCache::matches_budgeted`] answers
//!   "different" without executing whenever the shapes differ. Callers
//!   that need the rows re-execute;
//! * **failed** — a deterministic error (parse, resolution, type,
//!   cardinality). [`EngineError::BudgetExceeded`] is never stored: it
//!   describes the caller's budget, not the query.
//!
//! **Budgets.** Every fill runs under a fuel guard (unbudgeted callers
//! use [`ExecBudget::UNLIMITED`], which gives identical results) and
//! stores the fuel it spent. A hit is served only when the caller's
//! budget covers that spend; otherwise the query executes under the
//! caller's budget and trips at the same `(stage, spent)` as an uncached
//! run would. A cached outcome is therefore the outcome the caller's own
//! uncached run would produce, whatever budget filled the entry.
//!
//! The cache is safe to share across threads and is semantically
//! transparent: [`execute_sql`](crate::execute_sql) is a pure function
//! of `(db, sql)`, so a cached outcome is bit-identical to a fresh
//! execution. Entries are additionally keyed by the database's
//! [`EngineConfig::fingerprint`](crate::EngineConfig::fingerprint)
//! mixed with its [`Database::catalog_fingerprint`]. Synthesized morph
//! models may accept byte-identical SQL text, so the data model is part
//! of the key. The dialect changes results (`7 / 2`), so the config is
//! too; indexed and seq-scan execution are bit-identical by
//! construction, but the cache does not rely on that invariant — an
//! outcome computed under one config is never served to a database
//! under another, even when one cache serves both. Each entry keeps the
//! span tree recorded while it was filled, and a hit replays it, so a
//! memoized run reports the same deterministic counters as a cold one.
//! Hit/miss counters make the saved work observable in the benchmark
//! harness.
//!
//! **Sharding.** The memo table is lock-striped into [`SHARDS`]
//! independent `RwLock` shards selected by a deterministic FNV hash of
//! the trimmed query text, so concurrent lookups of *different* queries
//! take *different* locks and a long miss-side fill in one shard never
//! blocks hits in the others. Shard choice is a pure function of the
//! key (never of `RandomState` or thread identity), which keeps
//! per-shard counters reproducible across runs. The racing-miss
//! invariant is per shard: two misses on one key both count a miss,
//! but only the thread winning that shard's `Entry::Vacant` insert
//! counts a build — so `builds == entries` holds shard by shard, which
//! the serving benchmark audits as "zero shard-counter drift".

use crate::budget::{ExecBudget, FuelSpent};
use crate::db::Database;
use crate::error::EngineError;
use crate::exec::{execute_sql_metered, execute_sql_with_budget};
use crate::result::ResultSet;
use crate::trace::{self, TraceSpan};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from an entry, of any kind.
    pub hits: u64,
    /// Lookups that executed the query.
    pub misses: u64,
    pub entries: usize,
    /// Executions whose result exceeded the size cap (stored by shape).
    pub oversize: u64,
    /// Entries actually inserted into the memo table. Two misses racing
    /// on the same key both count a miss (each really executed), but
    /// only the thread that wins the insert counts a build — so
    /// `builds == entries` as long as the cache is never cleared.
    pub builds: u64,
    /// Hits that an oversize entry's shape answered.
    pub shape_hits: u64,
    /// Hits that returned a stored error.
    pub error_hits: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        iter.fold(CacheStats::default(), |a, b| CacheStats {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            entries: a.entries + b.entries,
            oversize: a.oversize + b.oversize,
            builds: a.builds + b.builds,
            shape_hits: a.shape_hits + b.shape_hits,
            error_hits: a.error_hits + b.error_hits,
        })
    }
}

/// How a memoized execution ended.
#[derive(Debug, Clone)]
enum Outcome {
    Rows(Arc<ResultSet>),
    /// A result above the size cap: its column and row counts.
    Oversize {
        columns: usize,
        rows: usize,
    },
    /// Any error except [`EngineError::BudgetExceeded`].
    Failed(EngineError),
}

/// One memoized execution: its outcome, the fuel it spent, and the trace
/// spans recorded while computing it (when the fill happened under an
/// active [`trace::TraceGuard`]). A later hit replays the spans, so a
/// memoized run produces the same deterministic counter tree as a cold
/// one.
#[derive(Debug)]
struct CacheEntry {
    outcome: Outcome,
    spent: FuelSpent,
    trace: Option<Arc<Vec<TraceSpan>>>,
}

/// One engine config's memo entries, keyed by trimmed SQL text.
type MemoTable = HashMap<String, CacheEntry>;

/// Number of lock stripes. Wide enough that 8–16 workers rarely collide
/// on a shard lock, small enough that `stats()` stays a cheap sweep.
pub const SHARDS: usize = 16;

/// One lock stripe: the memo maps (nested per engine-config
/// fingerprint) plus this shard's build counter. `builds == map entry
/// count` is the per-shard no-lost/no-double-build invariant.
#[derive(Debug, Default)]
struct CacheShard {
    /// Memo tables, one per engine-config fingerprint: entries computed
    /// under one configuration are invisible to lookups under another.
    map: RwLock<HashMap<u64, MemoTable>>,
    builds: AtomicU64,
}

/// Per-shard counter snapshot (see [`QueryCache::shard_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    pub builds: u64,
    pub entries: usize,
}

/// Deterministic FNV-1a shard selector over the trimmed query text.
/// Never keyed by `RandomState`, so shard populations are identical
/// across runs and processes.
fn shard_of(key: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
    }
    (h % SHARDS as u64) as usize
}

/// A concurrency-safe, lock-striped memo table of query outcomes against
/// one database instance. See the module docs for what an entry holds
/// and when a hit is served.
#[derive(Debug)]
pub struct QueryCache {
    shards: [CacheShard; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    oversize: AtomicU64,
    shape_hits: AtomicU64,
    error_hits: AtomicU64,
    disabled: AtomicBool,
    /// Maximum result size (rows × columns) whose rows are stored.
    ///
    /// The results that callers read back — gold SQL and correct
    /// predictions — are small and selective. Wrong predictions can
    /// materialize enormous unconstrained joins; they repeat across
    /// configurations as often as any prediction does, but retaining
    /// their rows would pin hundreds of megabytes. Above the cap an
    /// entry keeps only the result's shape, which settles a comparison
    /// against any result of another shape without executing.
    max_cells: usize,
}

impl Default for QueryCache {
    fn default() -> QueryCache {
        QueryCache::with_max_cells(4096)
    }
}

impl QueryCache {
    pub fn new() -> QueryCache {
        QueryCache::default()
    }

    /// A cache that stores the rows of results with at most `max_cells`
    /// (rows × columns) cells and the shape of larger ones.
    pub fn with_max_cells(max_cells: usize) -> QueryCache {
        QueryCache {
            shards: std::array::from_fn(|_| CacheShard::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            oversize: AtomicU64::new(0),
            shape_hits: AtomicU64::new(0),
            error_hits: AtomicU64::new(0),
            disabled: AtomicBool::new(false),
            max_cells,
        }
    }

    /// Number of lock stripes (fixed; exposed for invariant checks).
    pub fn shard_count(&self) -> usize {
        SHARDS
    }

    /// Executes `sql` against `db`, serving repeats from the memo table.
    ///
    /// The key is the trimmed query text under the database's engine-config
    /// fingerprint: conservative (two spellings of one query occupy two
    /// slots) but guaranteed never to conflate distinct queries or
    /// distinct configurations. A stored error is returned as is; an
    /// oversize entry re-executes, since only its shape is stored.
    pub fn execute_cached(&self, db: &Database, sql: &str) -> Result<Arc<ResultSet>, EngineError> {
        self.execute_budgeted(db, sql, &ExecBudget::UNLIMITED)
    }

    /// Like [`QueryCache::execute_cached`] but under a fuel budget. An
    /// entry is served only when `budget` covers the fuel its fill
    /// spent; otherwise the query executes under `budget`, which then
    /// trips exactly as an uncached run does. A `BudgetExceeded` outcome
    /// is never stored.
    pub fn execute_budgeted(
        &self,
        db: &Database,
        sql: &str,
        budget: &ExecBudget,
    ) -> Result<Arc<ResultSet>, EngineError> {
        Ok(self
            .run(db, sql, budget, None)?
            .expect("only a comparison is settled by shape"))
    }

    /// Executes `sql` under `budget` and compares its result with
    /// `expected` by [`ResultSet::matches`], the execution-match test.
    ///
    /// Equivalent to `execute_budgeted(db, sql, budget)?.matches(expected)`,
    /// but an oversize entry whose shape differs from `expected`'s
    /// answers `false` without executing. When `expected` fits under the
    /// size cap the shapes always differ, since equal shapes mean equal
    /// cell counts; equal shapes re-execute and compare the rows.
    pub fn matches_budgeted(
        &self,
        db: &Database,
        sql: &str,
        budget: &ExecBudget,
        expected: &ResultSet,
    ) -> Result<bool, EngineError> {
        Ok(self
            .run(db, sql, budget, Some(expected))?
            .is_some_and(|rs| rs.matches(expected)))
    }

    /// The shared lookup-or-fill path. Returns `Ok(None)` only when
    /// `expected` is given and an oversize entry's shape differs from it.
    fn run(
        &self,
        db: &Database,
        sql: &str,
        budget: &ExecBudget,
        expected: Option<&ResultSet>,
    ) -> Result<Option<Arc<ResultSet>>, EngineError> {
        if self.disabled.load(Ordering::Relaxed) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            trace::cache_event(false);
            return execute_sql_with_budget(db, sql, budget).map(|rs| Some(Arc::new(rs)));
        }
        // Key memo entries by engine config *and* data model: two
        // morphed models can accept byte-identical SQL with different
        // answers, so the catalog fingerprint must split their entries.
        // The config includes the dialect, whose results legitimately
        // differ (`7 / 2`!) — the integration suite pins that one cache
        // never serves one backend's rows to the other.
        let fp = db.config().fingerprint()
            ^ db.catalog_fingerprint().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let key = sql.trim();
        let shard = &self.shards[shard_of(key)];
        let found = shard
            .map
            .read()
            .unwrap()
            .get(&fp)
            .and_then(|entries| entries.get(key))
            .filter(|entry| entry.spent.fits(budget))
            .map(|entry| (entry.outcome.clone(), entry.trace.clone()));
        if let Some((outcome, spans)) = found {
            let served = match outcome {
                Outcome::Rows(rs) => Some(Ok(Some(rs))),
                Outcome::Failed(e) => {
                    self.error_hits.fetch_add(1, Ordering::Relaxed);
                    Some(Err(e))
                }
                Outcome::Oversize { columns, rows } => expected
                    .filter(|x| (x.columns.len(), x.rows.len()) != (columns, rows))
                    .map(|_| {
                        self.shape_hits.fetch_add(1, Ordering::Relaxed);
                        Ok(None)
                    }),
            };
            if let Some(served) = served {
                self.hits.fetch_add(1, Ordering::Relaxed);
                trace::cache_event(true);
                if let Some(spans) = &spans {
                    trace::replay(spans);
                }
                return served;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        trace::cache_event(false);
        let ((out, spent), spans) = trace::capture(|| execute_sql_metered(db, sql, budget));
        let (outcome, out) = match out {
            Ok(rs) if rs.rows.len().saturating_mul(rs.columns.len().max(1)) > self.max_cells => {
                self.oversize.fetch_add(1, Ordering::Relaxed);
                let shape = Outcome::Oversize {
                    columns: rs.columns.len(),
                    rows: rs.rows.len(),
                };
                (shape, Ok(Some(Arc::new(rs))))
            }
            Ok(rs) => {
                let rs = Arc::new(rs);
                (Outcome::Rows(Arc::clone(&rs)), Ok(Some(rs)))
            }
            Err(e @ EngineError::BudgetExceeded { .. }) => return Err(e),
            Err(e) => (Outcome::Failed(e.clone()), Err(e)),
        };
        // Two threads may race to fill the same key; both computed the
        // same pure outcome, so first-write-wins keeps determinism — and
        // only the thread winning this shard's insert counts a build,
        // which is what keeps each shard's `builds` equal to its stored
        // entry count under races. A re-execution of an oversize entry,
        // or of one whose spend the caller's budget did not cover, finds
        // its slot occupied.
        match shard
            .map
            .write()
            .unwrap()
            .entry(fp)
            .or_default()
            .entry(key.to_string())
        {
            Entry::Occupied(_) => {}
            Entry::Vacant(slot) => {
                shard.builds.fetch_add(1, Ordering::Relaxed);
                slot.insert(CacheEntry {
                    outcome,
                    spent,
                    trace: spans.map(Arc::new),
                });
            }
        }
        out
    }

    /// Turns memoization off (every call executes) or back on. The memo
    /// table itself is left intact; use [`QueryCache::clear`] to drop it.
    pub fn set_enabled(&self, enabled: bool) {
        self.disabled.store(!enabled, Ordering::Relaxed);
    }

    /// Drops all entries and zeroes the counters (global and per-shard).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.map.write().unwrap().clear();
            shard.builds.store(0, Ordering::Relaxed);
        }
        for counter in [
            &self.hits,
            &self.misses,
            &self.oversize,
            &self.shape_hits,
            &self.error_hits,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }

    pub fn stats(&self) -> CacheStats {
        let shards = self.shard_stats();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: shards.iter().map(|s| s.entries).sum(),
            oversize: self.oversize.load(Ordering::Relaxed),
            builds: shards.iter().map(|s| s.builds).sum(),
            shape_hits: self.shape_hits.load(Ordering::Relaxed),
            error_hits: self.error_hits.load(Ordering::Relaxed),
        }
    }

    /// Per-shard `(builds, entries)` snapshot, in shard order. The
    /// no-lost/no-double-build invariant is `builds == entries` in every
    /// shard (as long as the cache has not been cleared mid-count);
    /// [`QueryCache::shard_drift`] folds it into one number.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|shard| ShardStats {
                builds: shard.builds.load(Ordering::Relaxed),
                entries: shard.map.read().unwrap().values().map(HashMap::len).sum(),
            })
            .collect()
    }

    /// Total absolute disagreement between each shard's build counter
    /// and its stored entry count — 0 unless a build was lost or double
    /// counted under racing misses.
    pub fn shard_drift(&self) -> u64 {
        self.shard_stats()
            .iter()
            .map(|s| s.builds.abs_diff(s.entries as u64))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, DataType, TableSchema};
    use crate::exec::execute_sql;
    use crate::value::Value;

    fn db() -> Database {
        let mut db = Database::new(Catalog::new(vec![TableSchema::new("t")
            .column("a", DataType::Int)
            .pk(&["a"])]));
        for i in 0..5 {
            db.insert("t", vec![Value::Int(i)]).unwrap();
        }
        db
    }

    #[test]
    fn cached_result_equals_direct_execution() {
        let db = db();
        let cache = QueryCache::new();
        let sql = "SELECT a FROM t WHERE a > 2";
        let direct = execute_sql(&db, sql).unwrap();
        let cached = cache.execute_cached(&db, sql).unwrap();
        assert_eq!(*cached, direct);
        let again = cache.execute_cached(&db, sql).unwrap();
        assert_eq!(*again, direct);
    }

    #[test]
    fn distinct_data_models_get_distinct_entries() {
        // Two catalogs that both accept `SELECT a FROM t` but are not the
        // same data model: a shared cache must never serve one model's
        // result for the other, even though the SQL text is identical.
        let db1 = db();
        let mut db2 = Database::new(Catalog::new(vec![TableSchema::new("t")
            .column("a", DataType::Int)
            .column("b", DataType::Int)
            .pk(&["a"])]));
        for i in 0..3 {
            db2.insert("t", vec![Value::Int(10 + i), Value::Int(i)])
                .unwrap();
        }
        assert_ne!(db1.catalog_fingerprint(), db2.catalog_fingerprint());

        let cache = QueryCache::new();
        let sql = "SELECT a FROM t";
        let r1 = cache.execute_cached(&db1, sql).unwrap();
        let r2 = cache.execute_cached(&db2, sql).unwrap();
        assert_ne!(*r1, *r2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));

        // Each model now hits its own entry and gets its own answer back.
        assert_eq!(*cache.execute_cached(&db1, sql).unwrap(), *r1);
        assert_eq!(*cache.execute_cached(&db2, sql).unwrap(), *r2);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let db = db();
        let cache = QueryCache::new();
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        cache
            .execute_cached(&db, "SELECT a FROM t WHERE a = 1")
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 2));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn whitespace_trimmed_key_shares_entry() {
        let db = db();
        let cache = QueryCache::new();
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        cache.execute_cached(&db, "  SELECT a FROM t  ").unwrap();
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().hits, 1);
    }

    /// Runs `f` under a fresh trace collector and returns its root span.
    fn traced<T>(f: impl FnOnce() -> T) -> (T, TraceSpan) {
        let guard = trace::TraceGuard::install();
        let out = f();
        (out, guard.finish())
    }

    #[test]
    fn deterministic_error_is_stored_once_and_replayed() {
        let db = db();
        let cache = QueryCache::new();
        // A scalar subquery returning five rows: the error comes after
        // the subquery has spent fuel, so the stored spend is non-zero.
        let sql = "SELECT (SELECT a FROM t) FROM t";
        let (cold, cold_tree) = traced(|| cache.execute_cached(&db, sql));
        let (warm, warm_tree) = traced(|| cache.execute_cached(&db, sql));
        let direct = execute_sql(&db, sql).unwrap_err();
        assert!(matches!(direct, EngineError::ScalarSubqueryCardinality(_)));
        assert_eq!(cold.unwrap_err(), direct);
        assert_eq!(warm.unwrap_err(), direct);
        assert_eq!(cold_tree.counter_tree(), warm_tree.counter_tree());
        assert!(warm_tree.render().contains("cache replay"));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.builds), (1, 1, 1, 1));
        assert_eq!(s.error_hits, 1);
        // Parse errors are stored too.
        let bad = "SELECT FROM WHERE";
        let e1 = cache.execute_cached(&db, bad).unwrap_err();
        let e2 = cache.execute_cached(&db, bad).unwrap_err();
        assert_eq!((e1.clone(), e2), (execute_sql(&db, bad).unwrap_err(), e1));
        assert_eq!(cache.stats().error_hits, 2);
    }

    #[test]
    fn budget_trip_is_never_stored() {
        let db = db();
        let cache = QueryCache::new();
        let sql = "SELECT a FROM t";
        let starved = ExecBudget::UNLIMITED.with_max_steps(1);
        let direct = execute_sql_with_budget(&db, sql, &starved).unwrap_err();
        assert!(matches!(direct, EngineError::BudgetExceeded { .. }));
        for _ in 0..2 {
            assert_eq!(
                cache.execute_budgeted(&db, sql, &starved).unwrap_err(),
                direct
            );
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.builds), (0, 2, 0, 0));
    }

    #[test]
    fn hit_is_served_only_within_the_callers_budget() {
        let db = db();
        let cache = QueryCache::new();
        let starved = ExecBudget::UNLIMITED.with_max_steps(1);
        // An unbudgeted fill must not answer a caller whose budget an
        // uncached run would trip.
        let sql = "SELECT a FROM t";
        cache.execute_cached(&db, sql).unwrap();
        assert_eq!(
            cache.execute_budgeted(&db, sql, &starved).unwrap_err(),
            execute_sql_with_budget(&db, sql, &starved).unwrap_err()
        );
        // Nor may a stored error: it trips where the uncached run does.
        let failing = "SELECT (SELECT a FROM t) FROM t";
        cache.execute_cached(&db, failing).unwrap_err();
        let trip = execute_sql_with_budget(&db, failing, &starved).unwrap_err();
        assert!(matches!(trip, EngineError::BudgetExceeded { .. }));
        assert_eq!(
            cache.execute_budgeted(&db, failing, &starved).unwrap_err(),
            trip
        );
        // Budgets that cover the spend are served from the entries.
        let roomy = ExecBudget::default();
        cache.execute_budgeted(&db, sql, &roomy).unwrap();
        cache.execute_budgeted(&db, failing, &roomy).unwrap_err();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 4, 2));
    }

    #[test]
    fn budget_abort_does_not_poison_later_uncapped_run() {
        let db = db();
        let cache = QueryCache::new();
        let sql = "SELECT a FROM t";
        // A one-step budget aborts the projection immediately.
        let starved = ExecBudget::UNLIMITED.with_max_steps(1);
        let err = cache.execute_budgeted(&db, sql, &starved).unwrap_err();
        assert!(matches!(err, EngineError::BudgetExceeded { .. }));
        assert_eq!(
            cache.stats().entries,
            0,
            "aborted result must not be stored"
        );
        // The later uncapped run executes fresh and sees the real result.
        let rs = cache.execute_cached(&db, sql).unwrap();
        assert_eq!(*rs, execute_sql(&db, sql).unwrap());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 1));
        // And a roomy budgeted call is now served from the cache.
        let again = cache
            .execute_budgeted(&db, sql, &ExecBudget::default())
            .unwrap();
        assert_eq!(*again, *rs);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn disabled_cache_always_executes() {
        let db = db();
        let cache = QueryCache::new();
        cache.set_enabled(false);
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 0));
        cache.set_enabled(true);
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn oversize_entry_returns_full_rows_by_re_executing() {
        let db = db();
        let cache = QueryCache::with_max_cells(3);
        let sql = "SELECT a FROM t"; // 5 rows x 1 col > 3 cells
        let direct = execute_sql(&db, sql).unwrap();
        assert_eq!(*cache.execute_cached(&db, sql).unwrap(), direct);
        assert_eq!(*cache.execute_cached(&db, sql).unwrap(), direct);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.oversize), (0, 2, 1, 2));
        // Small results are stored with their rows and hit as usual.
        let small = "SELECT a FROM t WHERE a = 1";
        cache.execute_cached(&db, small).unwrap();
        cache.execute_cached(&db, small).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.entries, s.shape_hits), (1, 2, 0));
    }

    #[test]
    fn oversize_entry_settles_a_different_shape_without_executing() {
        let db = db();
        let cache = QueryCache::with_max_cells(3);
        let sql = "SELECT a FROM t";
        let expected = execute_sql(&db, "SELECT a FROM t WHERE a = 1").unwrap();
        let (cold, cold_tree) =
            traced(|| cache.matches_budgeted(&db, sql, &ExecBudget::default(), &expected));
        assert_eq!(cold, Ok(false));
        let misses = cache.stats().misses;
        let (warm, warm_tree) =
            traced(|| cache.matches_budgeted(&db, sql, &ExecBudget::default(), &expected));
        assert_eq!(warm, Ok(false));
        let s = cache.stats();
        assert_eq!(s.misses, misses, "a shape hit must not execute");
        assert_eq!((s.hits, s.shape_hits, s.oversize), (1, 1, 1));
        assert_eq!(cold_tree.counter_tree(), warm_tree.counter_tree());
        // Same shape, other columns: the shapes differ, still no run.
        let wide = execute_sql(&db, "SELECT a, a FROM t").unwrap();
        assert_eq!(
            cache.matches_budgeted(&db, sql, &ExecBudget::UNLIMITED, &wide),
            Ok(false)
        );
        assert_eq!(cache.stats().misses, misses);
    }

    #[test]
    fn oversize_entry_with_an_equal_shape_re_executes() {
        let db = db();
        let cache = QueryCache::with_max_cells(3);
        let sql = "SELECT a FROM t";
        cache.execute_cached(&db, sql).unwrap();
        let budget = ExecBudget::default();
        // An equal pair (another order of the same bag) and an unequal
        // pair of the same 5 x 1 shape: both need the rows.
        for (other, want) in [
            ("SELECT a FROM t ORDER BY a DESC", true),
            ("SELECT a + 10 FROM t", false),
        ] {
            let expected = execute_sql(&db, other).unwrap();
            let uncached = execute_sql(&db, sql).unwrap().matches(&expected);
            assert_eq!(uncached, want);
            let before = cache.stats();
            assert_eq!(
                cache.matches_budgeted(&db, sql, &budget, &expected),
                Ok(want)
            );
            let after = cache.stats();
            assert_eq!(after.misses, before.misses + 1, "{other}");
            assert_eq!(after.oversize, before.oversize + 1, "{other}");
            assert_eq!(after.entries, 1);
        }
        assert_eq!(cache.stats().shape_hits, 0);
    }

    #[test]
    fn matches_budgeted_agrees_with_uncached_comparison() {
        let db = db();
        let cache = QueryCache::with_max_cells(3);
        let expected = execute_sql(&db, "SELECT a FROM t WHERE a < 2").unwrap();
        let starved = ExecBudget::UNLIMITED.with_max_steps(1);
        let queries = [
            "SELECT a FROM t WHERE a <= 1",
            "SELECT a FROM t WHERE a = 3",
            "SELECT a FROM t",
            "SELECT nope FROM t",
            "SELECT (SELECT a FROM t) FROM t",
        ];
        for budget in [ExecBudget::UNLIMITED, starved, ExecBudget::default()] {
            for _ in 0..2 {
                for sql in queries {
                    let want =
                        execute_sql_with_budget(&db, sql, &budget).map(|rs| rs.matches(&expected));
                    assert_eq!(
                        cache.matches_budgeted(&db, sql, &budget, &expected),
                        want,
                        "{sql} under {budget:?}"
                    );
                }
            }
        }
        assert_eq!(cache.shard_drift(), 0);
    }

    #[test]
    fn clear_resets_state() {
        let db = db();
        let cache = QueryCache::new();
        cache.execute_cached(&db, "SELECT a FROM t").unwrap();
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn racing_misses_on_one_key_count_a_single_build() {
        let db = db();
        let cache = QueryCache::new();
        let sql = "SELECT a FROM t WHERE a = 2";
        let threads = 8;
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    // All threads pass the read-lock lookup before any of
                    // them stores, so every one of them misses and
                    // executes — the double-count hazard under audit.
                    barrier.wait();
                    cache.execute_cached(&db, sql).unwrap();
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(
            s.builds, 1,
            "racing misses must not double-count builds: {s:?}"
        );
        assert_eq!(s.hits + s.misses, threads as u64, "every lookup counted");
        assert!(s.misses >= 1);
        assert_eq!(cache.shard_drift(), 0);
    }

    #[test]
    fn shard_stats_sum_to_globals_and_spread_over_shards() {
        let db = db();
        let cache = QueryCache::new();
        for i in 0..40 {
            // Distinct texts land on distinct keys (and, FNV willing,
            // many distinct shards).
            cache
                .execute_cached(&db, &format!("SELECT a FROM t WHERE a > {}", i - 20))
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!((s.entries, s.builds), (40, 40));
        let shards = cache.shard_stats();
        assert_eq!(shards.len(), cache.shard_count());
        assert_eq!(shards.iter().map(|x| x.entries).sum::<usize>(), 40);
        assert_eq!(shards.iter().map(|x| x.builds).sum::<u64>(), 40);
        for sh in &shards {
            assert_eq!(sh.builds, sh.entries as u64, "per-shard drift");
        }
        let populated = shards.iter().filter(|x| x.entries > 0).count();
        assert!(populated > 1, "40 keys all hashed into one shard");
        cache.clear();
        assert_eq!(cache.shard_drift(), 0);
        assert!(cache.shard_stats().iter().all(|x| x.entries == 0));
    }

    #[test]
    fn builds_equal_entries_per_shard_for_every_entry_kind() {
        let db = db();
        let cache = QueryCache::with_max_cells(3);
        let queries = [
            "SELECT a FROM t WHERE a = 1", // rows
            "SELECT a FROM t",             // oversize
            "SELECT nope FROM t",          // failed
        ];
        for _ in 0..3 {
            for sql in queries {
                let _ = cache.execute_cached(&db, sql);
            }
        }
        // A budget trip adds nothing.
        let starved = ExecBudget::UNLIMITED.with_max_steps(1);
        let _ = cache.execute_budgeted(&db, "SELECT a FROM t WHERE a > 0", &starved);
        let s = cache.stats();
        assert_eq!((s.builds, s.entries), (3, 3));
        // Rows and error hit twice each; the oversize entry re-executes.
        assert_eq!((s.hits, s.error_hits, s.oversize), (4, 2, 3));
        for sh in cache.shard_stats() {
            assert_eq!(sh.builds, sh.entries as u64, "per-shard drift");
        }
        // Racing fills of an error and an oversize key build once each.
        let racing = QueryCache::with_max_cells(3);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for i in 0..8 {
                let (racing, barrier, db) = (&racing, &barrier, &db);
                s.spawn(move || {
                    barrier.wait();
                    let _ = racing.execute_cached(db, queries[1 + i % 2]);
                });
            }
        });
        let s = racing.stats();
        assert_eq!((s.builds, s.entries), (2, 2));
        assert_eq!(racing.shard_drift(), 0);
    }

    #[test]
    fn cache_hit_replays_the_fill_time_counter_tree() {
        let db = db();
        let cache = QueryCache::new();
        let sql = "SELECT a FROM t WHERE a > 1";
        let cold = {
            let guard = trace::TraceGuard::install();
            cache.execute_cached(&db, sql).unwrap();
            guard.finish()
        };
        let warm = {
            let guard = trace::TraceGuard::install();
            cache.execute_cached(&db, sql).unwrap();
            guard.finish()
        };
        assert_eq!(
            cold.counter_tree(),
            warm.counter_tree(),
            "a memoized run must report the same deterministic counters"
        );
        assert_eq!(cold.counters.cache_misses, 1);
        assert_eq!(warm.counters.cache_hits, 1);
        assert!(warm.render().contains("cache replay"), "{}", warm.render());
    }

    #[test]
    fn concurrent_fill_is_consistent() {
        let db = db();
        let cache = QueryCache::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..20 {
                        let sql = format!("SELECT a FROM t WHERE a > {}", i % 5);
                        let rs = cache.execute_cached(&db, &sql).unwrap();
                        let direct = execute_sql(&db, &sql).unwrap();
                        assert_eq!(*rs, direct);
                    }
                });
            }
        });
        assert_eq!(cache.stats().entries, 5);
    }
}
