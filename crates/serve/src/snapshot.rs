//! Immutable shared state for the serving layer.
//!
//! A server holds one snapshot per data model: the loaded [`Database`]
//! behind an `Arc` (workers share it read-only; its lazy index cache is
//! internally lock-striped) and one sharded [`QueryCache`] per model.
//! Nothing here is copied per worker and nothing is guarded by a single
//! global lock — the caches stripe internally, so the only shared
//! mutable state contends at shard granularity.

use evalkit::par_map;
use footballdb::{generate, load, DataModel, Domain};
use sqlengine::{CacheStats, Database, Dialect, EngineConfig, QueryCache};
use std::sync::Arc;

/// The three data-model snapshots plus their per-model query caches,
/// and any number of registered morphed-model snapshots. Every snapshot
/// is addressable by its catalog fingerprint, so two models that accept
/// byte-identical SQL text still resolve to distinct databases and
/// distinct cache spaces.
///
/// Every snapshot runs under the state's one [`EngineConfig`], carried
/// by its databases. The data itself is dialect-independent, but
/// results are not (`7 / 2` is `3` under PostgreSQL semantics and `3.5`
/// under SQLite), so the dialect is part of the deployment's identity
/// next to the catalog fingerprints. Two states with different dialects
/// serve side by side in one process, and cache entries key on the
/// config fingerprint, so a cache never serves one dialect's rows to
/// the other's queries.
pub struct ServeState {
    pub domain: Domain,
    models: Vec<(DataModel, Arc<Database>, QueryCache)>,
    /// Morphed snapshots: (catalog fingerprint, name, db, cache).
    morphed: Vec<(u64, String, Arc<Database>, QueryCache)>,
}

impl ServeState {
    /// Loads all three data-model instances (fanned out) with fresh,
    /// empty caches, under the default [`EngineConfig`] (PostgreSQL).
    /// Content depends only on the deterministic domain generator, so
    /// two states are interchangeable.
    pub fn build() -> ServeState {
        Self::build_with_config(EngineConfig::default())
    }

    /// Like [`ServeState::build`], but every snapshot runs under
    /// `config`.
    pub fn build_with_config(config: EngineConfig) -> ServeState {
        let domain = generate(footballdb::DEFAULT_SEED);
        let models = par_map(&DataModel::ALL, |&m| {
            let db = load(&domain, m).with_config(config);
            (m, Arc::new(db), QueryCache::new())
        });
        ServeState {
            domain,
            models,
            morphed: Vec::new(),
        }
    }

    /// The dialect this state serves.
    pub fn dialect(&self) -> Dialect {
        self.models[0].1.config().dialect
    }

    pub fn db(&self, model: DataModel) -> &Arc<Database> {
        &self.models.iter().find(|(m, _, _)| *m == model).unwrap().1
    }

    pub fn cache(&self, model: DataModel) -> &QueryCache {
        &self.models.iter().find(|(m, _, _)| *m == model).unwrap().2
    }

    /// Registers a morphed data model and returns its catalog
    /// fingerprint — the snapshot's address from then on. The fingerprint
    /// also keys the cache internally, so a second registration whose
    /// schema differs can never share entries with this one even when
    /// both accept the same SQL text. Re-registering an identical
    /// catalog is rejected: the existing snapshot already serves it. The
    /// snapshot runs under the state's config.
    pub fn register_morphed(&mut self, name: &str, db: Database) -> u64 {
        let fp = db.catalog_fingerprint();
        assert!(
            self.snapshot_by_fingerprint(fp).is_none(),
            "a snapshot with catalog fingerprint {fp:#x} is already registered"
        );
        let db = Arc::new(db.with_config(self.models[0].1.config()));
        self.morphed
            .push((fp, name.to_string(), db, QueryCache::new()));
        fp
    }

    /// Resolves any snapshot — built-in or morphed — by catalog
    /// fingerprint.
    pub fn snapshot_by_fingerprint(&self, fp: u64) -> Option<(&Arc<Database>, &QueryCache)> {
        self.models
            .iter()
            .find(|(_, db, _)| db.catalog_fingerprint() == fp)
            .map(|(_, db, cache)| (db, cache))
            .or_else(|| {
                self.morphed
                    .iter()
                    .find(|(f, _, _, _)| *f == fp)
                    .map(|(_, _, db, cache)| (db, cache))
            })
    }

    /// Names and fingerprints of all registered morphed snapshots.
    pub fn morphed_models(&self) -> impl Iterator<Item = (&str, u64)> {
        self.morphed
            .iter()
            .map(|(fp, name, _, _)| (name.as_str(), *fp))
    }

    /// Aggregated cache counters over all three model caches.
    pub fn cache_stats(&self) -> CacheStats {
        self.models
            .iter()
            .map(|(_, _, c)| c)
            .chain(self.morphed.iter().map(|(_, _, _, c)| c))
            .map(QueryCache::stats)
            .sum()
    }

    /// Σ per-shard |builds − entries| over all caches: 0 whenever the
    /// racing-miss single-build invariant held on every shard.
    pub fn shard_drift(&self) -> u64 {
        self.models
            .iter()
            .map(|(_, _, c)| c.shard_drift())
            .chain(self.morphed.iter().map(|(_, _, _, c)| c.shard_drift()))
            .sum()
    }

    /// A deliberately pathological query against this model: a
    /// non-equi self-join of the model's largest table, whose nested
    /// loop exhausts any sane [`sqlengine::ExecBudget`]. The workload
    /// injects a small seeded fraction of these so admission control
    /// has something real to shed — gold SQL alone never trips the
    /// budget.
    pub fn hazard_sql(&self, model: DataModel) -> String {
        let db = self.db(model);
        let table = db
            .catalog()
            .tables
            .iter()
            .max_by_key(|t| db.row_count(&t.name))
            .expect("catalog has tables");
        let col = &table.columns[0].name;
        format!(
            "SELECT count(*) FROM {t} AS a JOIN {t} AS b ON a.{col} <> b.{col}",
            t = table.name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::migrate_database;
    use sqlkit::MorphOp;

    #[test]
    fn morphed_snapshots_are_keyed_by_fingerprint() {
        let mut state = ServeState::build();
        let v1 = load(&state.domain, DataModel::V1);
        // Two morphed models whose difference (the renamed match table)
        // is invisible to a query touching only `player`: identical SQL
        // text, different data models.
        let a = migrate_database(
            &v1,
            &[MorphOp::RenameTable {
                from: "match".to_string(),
                to: "game".to_string(),
            }],
        )
        .unwrap();
        let b = migrate_database(
            &v1,
            &[MorphOp::RenameTable {
                from: "match".to_string(),
                to: "fixture".to_string(),
            }],
        )
        .unwrap();
        let fa = state.register_morphed("rename-game", a);
        let fb = state.register_morphed("rename-fixture", b);
        assert_ne!(fa, fb);
        assert_eq!(
            state.morphed_models().collect::<Vec<_>>(),
            vec![("rename-game", fa), ("rename-fixture", fb)]
        );

        let sql = "SELECT count(*) FROM player";
        for fp in [fa, fb] {
            let (db, cache) = state.snapshot_by_fingerprint(fp).unwrap();
            cache.execute_cached(db, sql).unwrap();
        }
        // Identical SQL text, but each snapshot cached it in its own
        // space: two misses, two entries, no cross-model hit.
        let s = state.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
        for fp in [fa, fb] {
            let (db, cache) = state.snapshot_by_fingerprint(fp).unwrap();
            cache.execute_cached(db, sql).unwrap();
        }
        assert_eq!(state.cache_stats().hits, 2);

        // Built-in snapshots resolve through the same address space.
        let v1_fp = state.db(DataModel::V1).catalog_fingerprint();
        assert!(state.snapshot_by_fingerprint(v1_fp).is_some());
        assert_ne!(v1_fp, fa);
    }
}
