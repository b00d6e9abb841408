//! Schema join graph and the SemQL shortest-join-path algorithm.
//!
//! IRNet/ValueNet reconstruct FROM clauses by finding the shortest path
//! between the tables mentioned in the intermediate representation. The
//! crucial limitation the paper builds its v1→v2 redesign on (Section
//! 5.1): the subgraph used for join-path search *only supports a single
//! primary-key/foreign-key reference between any two tables*. When two
//! tables are connected by multiple FK references (v1's `match` →
//! `national_team` twice, `world_cup` → `national_team` four times), the
//! edge is ambiguous and the join-path algorithm fails.

use sqlengine::Catalog;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// An edge in the join graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEdge {
    pub from_table: String,
    pub from_column: String,
    pub to_table: String,
    pub to_column: String,
}

/// Why join-path construction failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinPathError {
    /// A table pair is connected by more than one PK/FK reference; the
    /// SemQL subgraph cannot represent it.
    AmbiguousEdge {
        from: String,
        to: String,
        references: usize,
    },
    /// No path connects the two tables in the (single-reference) graph.
    Disconnected { from: String, to: String },
    /// A mentioned table is not in the schema.
    UnknownTable(String),
}

impl std::fmt::Display for JoinPathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinPathError::AmbiguousEdge {
                from,
                to,
                references,
            } => write!(
                f,
                "tables {from:?} and {to:?} are linked by {references} FK references; \
                 the join-path subgraph supports only one"
            ),
            JoinPathError::Disconnected { from, to } => {
                write!(f, "no join path between {from:?} and {to:?}")
            }
            JoinPathError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
        }
    }
}

/// The join graph built from a catalog.
///
/// Edge maps are ordered, so BFS visits neighbors in name order and
/// breaks ties between equal-length paths the same way in every graph
/// instance and every process.
#[derive(Debug, Clone)]
pub struct JoinGraph {
    /// Usable single-reference edges, keyed by unordered table pair.
    edges: BTreeMap<(String, String), JoinEdge>,
    /// Table pairs excluded because of multiple references.
    ambiguous: BTreeMap<(String, String), usize>,
    tables: Vec<String>,
}

fn pair(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

impl JoinGraph {
    /// Builds the graph. Table pairs with multiple FK references become
    /// *ambiguous* (unusable), exactly as in the SemQL pipeline.
    pub fn from_catalog(catalog: &Catalog) -> JoinGraph {
        let mut count: HashMap<(String, String), Vec<JoinEdge>> = HashMap::new();
        for t in &catalog.tables {
            for fk in &t.foreign_keys {
                let e = JoinEdge {
                    from_table: t.name.clone(),
                    from_column: fk.columns[0].clone(),
                    to_table: fk.ref_table.clone(),
                    to_column: fk.ref_columns[0].clone(),
                };
                count
                    .entry(pair(&t.name, &fk.ref_table))
                    .or_default()
                    .push(e);
            }
        }
        let mut edges = BTreeMap::new();
        let mut ambiguous = BTreeMap::new();
        for (k, v) in count {
            if v.len() == 1 {
                edges.insert(k, v.into_iter().next().unwrap());
            } else {
                ambiguous.insert(k, v.len());
            }
        }
        JoinGraph {
            edges,
            ambiguous,
            tables: catalog.tables.iter().map(|t| t.name.clone()).collect(),
        }
    }

    pub fn has_table(&self, t: &str) -> bool {
        self.tables.iter().any(|x| x.eq_ignore_ascii_case(t))
    }

    /// Neighbors reachable over usable edges.
    fn neighbors<'a>(&'a self, t: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.edges.keys().filter_map(move |(a, b)| {
            if a == t {
                Some(b.as_str())
            } else if b == t {
                Some(a.as_str())
            } else {
                None
            }
        })
    }

    /// The edge between two adjacent tables, if usable.
    pub fn edge(&self, a: &str, b: &str) -> Option<&JoinEdge> {
        self.edges.get(&pair(a, b))
    }

    /// Shortest join path (sequence of tables) between two tables.
    ///
    /// Fails with [`JoinPathError::AmbiguousEdge`] when the *direct* pair
    /// is multiply-referenced (the failure the paper describes), and with
    /// `Disconnected` when no single-reference path exists at all.
    pub fn shortest_path(&self, from: &str, to: &str) -> Result<Vec<String>, JoinPathError> {
        if !self.has_table(from) {
            return Err(JoinPathError::UnknownTable(from.to_string()));
        }
        if !self.has_table(to) {
            return Err(JoinPathError::UnknownTable(to.to_string()));
        }
        if from.eq_ignore_ascii_case(to) {
            return Ok(vec![from.to_string()]);
        }
        // The SemQL pipeline gives up when the pair itself is ambiguous,
        // even if a detour exists — the graph construction has already
        // dropped the information which reference was meant.
        if let Some(n) = self.ambiguous.get(&pair(from, to)) {
            return Err(JoinPathError::AmbiguousEdge {
                from: from.to_string(),
                to: to.to_string(),
                references: *n,
            });
        }
        // BFS.
        let mut prev: HashMap<String, String> = HashMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(from.to_string());
        prev.insert(from.to_string(), String::new());
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                let mut path = vec![cur.clone()];
                let mut node = cur;
                while let Some(p) = prev.get(&node) {
                    if p.is_empty() {
                        break;
                    }
                    path.push(p.clone());
                    node = p.clone();
                }
                path.reverse();
                return Ok(path);
            }
            let neighbors: Vec<String> = self.neighbors(&cur).map(|s| s.to_string()).collect();
            for n in neighbors {
                if !prev.contains_key(&n) {
                    prev.insert(n.clone(), cur.clone());
                    queue.push_back(n);
                }
            }
        }
        Err(JoinPathError::Disconnected {
            from: from.to_string(),
            to: to.to_string(),
        })
    }

    /// Connects a set of tables into one join tree (greedy: path-merge in
    /// the given order). Returns the ordered list of edges to emit.
    pub fn join_tree(&self, tables: &[String]) -> Result<Vec<JoinEdge>, JoinPathError> {
        let mut connected: Vec<String> = Vec::new();
        let mut out = Vec::new();
        for t in tables {
            if connected.iter().any(|c| c.eq_ignore_ascii_case(t)) {
                continue;
            }
            if connected.is_empty() {
                connected.push(t.clone());
                continue;
            }
            // Shortest path from any connected table.
            let mut best: Option<Vec<String>> = None;
            let mut first_err = None;
            for c in &connected {
                match self.shortest_path(c, t) {
                    Ok(p) => {
                        if best.as_ref().is_none_or(|b| p.len() < b.len()) {
                            best = Some(p);
                        }
                    }
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
            let path = match best {
                Some(p) => p,
                None => return Err(first_err.unwrap()),
            };
            for w in path.windows(2) {
                let e = self.edge(&w[0], &w[1]).expect("path edges exist").clone();
                out.push(e);
                if !connected.contains(&w[1]) {
                    connected.push(w[1].clone());
                }
            }
        }
        Ok(out)
    }

    /// The ambiguous pairs (diagnostics / ablation reporting).
    pub fn ambiguous_pairs(&self) -> Vec<(String, String, usize)> {
        self.ambiguous
            .iter()
            .map(|((a, b), n)| (a.clone(), b.clone(), *n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footballdb::DataModel;

    #[test]
    fn v1_match_to_national_team_is_ambiguous() {
        let g = JoinGraph::from_catalog(&DataModel::V1.catalog());
        let err = g.shortest_path("match", "national_team").unwrap_err();
        assert!(matches!(
            err,
            JoinPathError::AmbiguousEdge { references: 2, .. }
        ));
        let err = g.shortest_path("world_cup", "national_team").unwrap_err();
        assert!(matches!(
            err,
            JoinPathError::AmbiguousEdge { references: 4, .. }
        ));
    }

    #[test]
    fn v2_match_to_national_team_has_a_path() {
        let g = JoinGraph::from_catalog(&DataModel::V2.catalog());
        let p = g.shortest_path("match", "national_team").unwrap();
        // Path goes through one of the bridge tables.
        assert_eq!(p.len(), 3);
        assert!(p[1] == "plays_as_home" || p[1] == "plays_as_away");
    }

    #[test]
    fn v3_plays_match_to_national_team_is_ambiguous_but_named() {
        // plays_match carries two FK references to national_team (team
        // and opponent) — the pair is ambiguous for path *search*, but v3
        // queries don't need path search: they filter on the denormalized
        // teamname columns.
        let g = JoinGraph::from_catalog(&DataModel::V3.catalog());
        assert!(g.shortest_path("plays_match", "national_team").is_err());
        assert!(g.shortest_path("plays_match", "match").is_ok());
    }

    #[test]
    fn direct_single_edges_work() {
        let g = JoinGraph::from_catalog(&DataModel::V1.catalog());
        let p = g.shortest_path("goal", "player").unwrap();
        assert_eq!(p, vec!["goal".to_string(), "player".to_string()]);
    }

    #[test]
    fn multi_hop_paths_work() {
        let g = JoinGraph::from_catalog(&DataModel::V1.catalog());
        // goal → match → world_cup.
        let p = g.shortest_path("goal", "world_cup").unwrap();
        assert_eq!(
            p,
            vec![
                "goal".to_string(),
                "match".to_string(),
                "world_cup".to_string()
            ]
        );
    }

    #[test]
    fn same_table_path_is_trivial() {
        let g = JoinGraph::from_catalog(&DataModel::V1.catalog());
        assert_eq!(g.shortest_path("player", "player").unwrap().len(), 1);
    }

    #[test]
    fn unknown_table_errors() {
        let g = JoinGraph::from_catalog(&DataModel::V1.catalog());
        assert!(matches!(
            g.shortest_path("nope", "player"),
            Err(JoinPathError::UnknownTable(_))
        ));
    }

    #[test]
    fn disconnected_tables_error() {
        // stadium connects via match only; league has no declared FK
        // edges at all in v1, so league ↔ stadium is disconnected.
        let g = JoinGraph::from_catalog(&DataModel::V1.catalog());
        assert!(matches!(
            g.shortest_path("league", "stadium"),
            Err(JoinPathError::Disconnected { .. })
        ));
    }

    #[test]
    fn join_tree_spans_multiple_tables() {
        let g = JoinGraph::from_catalog(&DataModel::V1.catalog());
        let edges = g
            .join_tree(&["goal".into(), "player".into(), "world_cup".into()])
            .unwrap();
        // goal-player, goal-match, match-world_cup.
        assert_eq!(edges.len(), 3);
    }

    #[test]
    fn join_tree_propagates_ambiguity() {
        let g = JoinGraph::from_catalog(&DataModel::V1.catalog());
        let err = g
            .join_tree(&["match".into(), "national_team".into()])
            .unwrap_err();
        assert!(matches!(err, JoinPathError::AmbiguousEdge { .. }));
    }

    #[test]
    fn ambiguous_pairs_reported() {
        let g = JoinGraph::from_catalog(&DataModel::V1.catalog());
        let pairs = g.ambiguous_pairs();
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn separately_built_graphs_break_path_ties_identically() {
        for model in DataModel::ALL {
            let catalog = model.catalog();
            let tables: Vec<String> = catalog.tables.iter().map(|t| t.name.clone()).collect();
            let reference = JoinGraph::from_catalog(&catalog);
            for _ in 0..32 {
                let g = JoinGraph::from_catalog(&catalog);
                for a in &tables {
                    for b in &tables {
                        assert_eq!(
                            g.shortest_path(a, b),
                            reference.shortest_path(a, b),
                            "{model}: {a} -> {b}"
                        );
                        let pair = [a.clone(), b.clone()];
                        assert_eq!(g.join_tree(&pair), reference.join_tree(&pair));
                    }
                }
            }
        }
    }
}
