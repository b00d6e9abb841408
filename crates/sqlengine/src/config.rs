//! Engine configuration: the dialect, access path and executor a
//! [`Database`](crate::Database) answers queries under. Each database
//! carries one; the planner, both executors, EXPLAIN, the reference
//! interpreter and the query cache read it from the database they run
//! against, so databases under different configs run side by side in
//! one process. Only binaries and examples read the environment, once,
//! through [`EngineConfig::from_env`].

use sqlkit::Dialect;

/// Whether the planner may use index access paths (`SeqScan` is the
/// differential reference mode). Results are identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    Indexed,
    SeqScan,
}

/// Which executor runs plan-eligible query shapes: the columnar batch
/// executor, or row at a time (the differential reference mode).
/// Results, fuel and deterministic trace counters are identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Executor {
    Vectorized,
    Row,
}

/// The three engine modes as one value. The default is PostgreSQL,
/// indexed, vectorized. Access path and executor are observationally
/// neutral; the dialect is not (`7 / 2` is `3` under PostgreSQL and
/// `3.5` under SQLite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineConfig {
    pub dialect: Dialect,
    pub access: Access,
    pub executor: Executor,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            dialect: Dialect::Postgres,
            access: Access::Indexed,
            executor: Executor::Vectorized,
        }
    }
}

impl EngineConfig {
    /// The config named by `REPRO_DIALECT` (`postgres` or `sqlite`),
    /// `REPRO_FORCE_SEQSCAN` and `REPRO_FORCE_ROWEXEC` (set and not
    /// `0`); unset or unparseable variables keep the default.
    pub fn from_env() -> EngineConfig {
        let flag = |name| std::env::var(name).is_ok_and(|v| !v.trim().is_empty() && v != "0");
        EngineConfig {
            dialect: std::env::var("REPRO_DIALECT")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(Dialect::Postgres),
            access: if flag("REPRO_FORCE_SEQSCAN") {
                Access::SeqScan
            } else {
                Access::Indexed
            },
            executor: if flag("REPRO_FORCE_ROWEXEC") {
                Executor::Row
            } else {
                Executor::Vectorized
            },
        }
    }

    /// A distinct small integer per config. [`crate::QueryCache`] keys
    /// entries by it, so an outcome computed under one config is never
    /// served under another.
    pub fn fingerprint(&self) -> u64 {
        (self.access == Access::SeqScan) as u64
            | ((self.executor == Executor::Vectorized) as u64) << 1
            | ((self.dialect == Dialect::Sqlite) as u64) << 2
    }
}
