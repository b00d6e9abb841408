//! Per-layer accounting: engine span tallies and the named metric set.

use evalkit::STAGES;
use sqlengine::TraceSpan;
use std::collections::BTreeMap;

/// Counters for one engine stage, summed over spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTally {
    pub calls: u64,
    pub rows_out: u64,
    pub fuel_steps: u64,
    /// Span CPU time minus the CPU time of its child spans.
    pub self_ns: u64,
}

/// Engine work read from one or more trace trees.
///
/// Spans a query cache replays on a hit carry the counters and times of
/// the execution that filled the entry, not work done now, so they are
/// skipped: this tally counts only executions that really ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineTally {
    pub stages: [StageTally; STAGES.len()],
    /// Statements executed (each parses once at the top of its tree).
    pub queries: u64,
    /// Rows returned by those statements.
    pub rows: u64,
    /// CPU time of those statements, parse included.
    pub cpu_ns: u64,
}

fn replayed(span: &TraceSpan) -> bool {
    span.detail.contains("cache replay")
}

impl EngineTally {
    /// Adds the executions recorded under a `TraceGuard` root.
    pub fn add_root(&mut self, root: &TraceSpan) {
        for top in root.children.iter().filter(|s| !replayed(s)) {
            self.cpu_ns += top.cpu_ns;
            match top.stage {
                "parse" => self.queries += 1,
                "query" => self.rows += top.counters.rows_out,
                _ => {}
            }
            self.add_span(top);
        }
    }

    fn add_span(&mut self, span: &TraceSpan) {
        let live = || span.children.iter().filter(|c| !replayed(c));
        if let Some(slot) = STAGES.iter().position(|&s| s == span.stage) {
            let children_ns: u64 = live().map(|c| c.cpu_ns).sum();
            let t = &mut self.stages[slot];
            t.calls += 1;
            t.rows_out += span.counters.rows_out;
            t.fuel_steps += span.counters.fuel_steps;
            t.self_ns += span.cpu_ns.saturating_sub(children_ns);
        }
        for child in live() {
            self.add_span(child);
        }
    }

    pub fn merge(&mut self, other: &EngineTally) {
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            a.calls += b.calls;
            a.rows_out += b.rows_out;
            a.fuel_steps += b.fuel_steps;
            a.self_ns += b.self_ns;
        }
        self.queries += other.queries;
        self.rows += other.rows;
        self.cpu_ns += other.cpu_ns;
    }

    /// Writes `sqlengine.<stage>.calls|.rows_out|.fuel_steps` and
    /// `sqlengine.<stage>_s` for every stage.
    pub fn emit(&self, m: &mut Metrics) {
        for (stage, t) in STAGES.iter().zip(&self.stages) {
            m.set(&format!("sqlengine.{stage}.calls"), t.calls as f64);
            m.set(&format!("sqlengine.{stage}.rows_out"), t.rows_out as f64);
            m.set(
                &format!("sqlengine.{stage}.fuel_steps"),
                t.fuel_steps as f64,
            );
            m.set(&format!("sqlengine.{stage}_s"), t.self_ns as f64 / 1e9);
        }
    }
}

/// Named metric values of one run.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Records a self-time partition of `total_s`: each part under its
    /// name, and the unattributed rest as `other_s` and `other_frac`.
    pub fn partition(&mut self, total_s: f64, parts: &[(&str, f64)]) {
        let attributed: f64 = parts.iter().map(|(_, s)| s).sum();
        for (name, s) in parts {
            self.set(name, *s);
        }
        self.set("trace.total_s", total_s);
        self.set("other_s", total_s - attributed);
        self.set(
            "other_frac",
            if total_s > 0.0 {
                (total_s - attributed) / total_s
            } else {
                0.0
            },
        );
    }
}

/// A ratio that reads 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::{Database, QueryCache, TraceGuard};

    fn db() -> Database {
        footballdb::load(
            &footballdb::generate(footballdb::DEFAULT_SEED),
            footballdb::DataModel::V1,
        )
    }

    #[test]
    fn cache_replays_are_not_counted_as_work() {
        let db = db();
        let cache = QueryCache::new();
        let sql = "SELECT count(*) FROM player";
        let guard = TraceGuard::install();
        cache.execute_cached(&db, sql).unwrap();
        cache.execute_cached(&db, sql).unwrap();
        let root = guard.finish();
        let mut t = EngineTally::default();
        t.add_root(&root);
        assert_eq!(t.queries, 1, "the hit replays spans but runs nothing");
        assert_eq!(t.rows, 1);
        let parse = STAGES.iter().position(|&s| s == "parse").unwrap();
        assert_eq!(t.stages[parse].calls, 1);
        // Stage self times partition the statements' CPU time.
        assert_eq!(
            t.stages.iter().map(|s| s.self_ns).sum::<u64>(),
            t.cpu_ns,
            "self times must sum to the executed trees' time"
        );
    }
}
