//! The LMFAO engine façade: ties all layers together.
//!
//! The primary flow is *prepare once, execute many*: [`Engine::prepare`] runs
//! every optimizer layer and returns a [`PreparedBatch`] that can be executed
//! repeatedly with changing [`DynamicRegistry`] closures. [`Engine::execute`]
//! remains as a thin `prepare + execute` convenience for one-shot batches.
//!
//! ```no_run
//! # use lmfao_core::{Engine, EngineConfig};
//! # use lmfao_expr::{Aggregate, DynamicRegistry, QueryBatch};
//! # fn demo(db: lmfao_data::Database, tree: lmfao_jointree::JoinTree) {
//! let engine = Engine::new(db, tree, EngineConfig::default());
//! let mut batch = QueryBatch::new();
//! batch.push("count", vec![], vec![Aggregate::count()]);
//! let prepared = engine.prepare(&batch).unwrap();
//! let result = prepared.execute(&DynamicRegistry::new()).unwrap();
//! println!("count = {}", result.query("count").scalar()[0]);
//! # }
//! ```

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::prepared::PreparedBatch;
use crate::shared::SharedDatabase;
use lmfao_data::{AttrId, Database, FxHashMap, Value};
use lmfao_expr::{DynamicRegistry, QueryBatch};
use lmfao_jointree::JoinTree;

/// Statistics about an optimized batch: the quantities reported in the
/// paper's Table 2 (aggregates, views, groups) plus output sizes.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Aggregates requested by the application (column "A" of Table 2).
    pub application_aggregates: usize,
    /// Additional intermediate aggregates synthesized by the engine across
    /// all directional views (column "I").
    pub intermediate_aggregates: usize,
    /// Number of consolidated views (column "V").
    pub num_views: usize,
    /// Number of view groups (column "G").
    pub num_groups: usize,
    /// Number of distinct join-tree roots used by the batch.
    pub num_roots: usize,
    /// Size of the query outputs in bytes.
    pub output_size_bytes: usize,
}

/// The result of one query of a batch.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Query name (copied from the batch).
    pub name: String,
    /// Group-by attributes in the order of the key tuples below (this is the
    /// query's requested order).
    pub group_by: Vec<AttrId>,
    /// Number of aggregates per key.
    pub num_aggregates: usize,
    /// Key tuple → aggregate values. Keys absent from the map have all-zero
    /// aggregates (the corresponding group has no joining tuples).
    pub data: FxHashMap<Vec<Value>, Vec<f64>>,
}

impl QueryResult {
    /// The aggregate values for a group, if present.
    pub fn get(&self, key: &[Value]) -> Option<&[f64]> {
        self.data.get(key).map(Vec::as_slice)
    }

    /// The aggregates of a scalar query (no group-by). Returns zeros if the
    /// join is empty.
    pub fn scalar(&self) -> Vec<f64> {
        self.data
            .get(&Vec::new() as &Vec<Value>)
            .cloned()
            .unwrap_or_else(|| vec![0.0; self.num_aggregates])
    }

    /// Number of groups in the result.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the result has no groups.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Iterates over `(key, aggregates)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<Value>, &Vec<f64>)> {
        self.data.iter()
    }

    /// Approximate size in bytes.
    pub fn size_bytes(&self) -> usize {
        let width = self.group_by.len() * std::mem::size_of::<Value>()
            + self.num_aggregates * std::mem::size_of::<f64>();
        self.data.len() * width
    }
}

/// The result of executing a whole batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// One result per query, in batch order.
    pub queries: Vec<QueryResult>,
    /// Optimizer/execution statistics.
    pub stats: EngineStats,
}

impl BatchResult {
    /// The result of the query with the given name, if present.
    pub fn get_query(&self, name: &str) -> Option<&QueryResult> {
        self.queries.iter().find(|q| q.name == name)
    }

    /// The result of the query with the given name.
    ///
    /// # Panics
    /// Panics if no query of the batch has that name; use
    /// [`BatchResult::get_query`] for a fallible lookup.
    pub fn query(&self, name: &str) -> &QueryResult {
        self.get_query(name)
            .unwrap_or_else(|| panic!("no query named `{name}` in the batch result"))
    }

    /// The result of the query with the given name, or a typed
    /// [`EngineError::UnknownQuery`] if the batch has no query of that name.
    /// This is the lookup the serving paths use for user-supplied names,
    /// where neither a panic nor a silent `None` is acceptable.
    pub fn try_query(&self, name: &str) -> Result<&QueryResult, crate::error::EngineError> {
        self.get_query(name)
            .ok_or_else(|| crate::error::EngineError::UnknownQuery(name.to_string()))
    }
}

/// The LMFAO engine: a shared handle to the (sorted) database plus the join
/// tree and configuration under which batches are prepared and evaluated.
///
/// Cloning an engine is cheap — the database is behind a [`SharedDatabase`]
/// handle — so engines of different configurations can coexist over one
/// prepared database.
#[derive(Debug, Clone)]
pub struct Engine {
    db: SharedDatabase,
    tree: JoinTree,
    config: EngineConfig,
}

impl Engine {
    /// Creates an engine, preparing the database: relations are sorted by the
    /// attribute orders of their join-tree nodes (required by the trie scans)
    /// and statistics are refreshed.
    ///
    /// To share one prepared database across several engines (e.g. the
    /// ablation ladder), prepare it once with [`SharedDatabase::prepare`] and
    /// use [`Engine::with_shared`].
    pub fn new(db: Database, tree: JoinTree, config: EngineConfig) -> Self {
        let shared = SharedDatabase::prepare(db, &tree);
        Engine::with_shared(shared, tree, config)
    }

    /// Creates an engine over an already prepared [`SharedDatabase`]. The
    /// handle must have been prepared against the same join tree (its
    /// relations are sorted by that tree's attribute orders).
    pub fn with_shared(db: SharedDatabase, tree: JoinTree, config: EngineConfig) -> Self {
        Engine { db, tree, config }
    }

    /// The engine's database (sorted by join attributes).
    pub fn database(&self) -> &Database {
        self.db.database()
    }

    /// The join tree.
    pub fn tree(&self) -> &JoinTree {
        &self.tree
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs every optimizer layer (roots, pushdown, merging, grouping,
    /// multi-output plans) over the batch once and returns the cached
    /// [`PreparedBatch`]. Planning statistics are available immediately via
    /// [`PreparedBatch::stats`]; execution via [`PreparedBatch::execute`].
    ///
    /// Planning failures (a join-tree node whose relation the database does
    /// not have, a join attribute missing from its relation) surface as typed
    /// [`EngineError`]s instead of panics.
    pub fn prepare(&self, batch: &QueryBatch) -> Result<PreparedBatch, EngineError> {
        PreparedBatch::build(self.db.clone(), self.tree.clone(), self.config, batch)
    }

    /// Evaluates a batch once with an empty dynamic-function registry: a thin
    /// `prepare + execute` convenience. Prefer [`Engine::prepare`] when the
    /// same batch is evaluated more than once.
    pub fn execute(&self, batch: &QueryBatch) -> Result<BatchResult, EngineError> {
        self.prepare(batch)?.execute(&DynamicRegistry::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmfao_data::{AttrType, DatabaseSchema, Relation, RelationSchema};
    use lmfao_expr::Aggregate;
    use lmfao_jointree::{build_join_tree, natural_join, Hypergraph};

    /// A three-relation chain with a few dozen tuples, large enough that the
    /// different configurations genuinely exercise different code paths.
    fn chain_db() -> (Database, JoinTree) {
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs(
            "S1",
            &[
                ("x1", AttrType::Int),
                ("x2", AttrType::Int),
                ("u", AttrType::Double),
            ],
        );
        schema.add_relation_with_attrs("S2", &[("x2", AttrType::Int), ("x3", AttrType::Int)]);
        schema.add_relation_with_attrs("S3", &[("x3", AttrType::Int), ("v", AttrType::Double)]);
        let ids: Vec<AttrId> = ["x1", "x2", "u", "x3", "v"]
            .iter()
            .map(|n| schema.attr_id(n).unwrap())
            .collect();
        let (x1, x2, u, x3, v) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        let mut s1_rows = Vec::new();
        for i in 0..30i64 {
            s1_rows.push(vec![
                Value::Int(i % 7),
                Value::Int(i % 5),
                Value::Double((i % 4) as f64),
            ]);
        }
        let s1 = Relation::from_rows(RelationSchema::new("S1", vec![x1, x2, u]), s1_rows).unwrap();
        let s2 = Relation::from_rows(
            RelationSchema::new("S2", vec![x2, x3]),
            (0..5)
                .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
                .collect(),
        )
        .unwrap();
        let s3 = Relation::from_rows(
            RelationSchema::new("S3", vec![x3, v]),
            (0..3)
                .map(|i| vec![Value::Int(i), Value::Double((10 * (i + 1)) as f64)])
                .collect(),
        )
        .unwrap();
        let db = Database::new(schema.clone(), vec![s1, s2, s3]).unwrap();
        let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
        (db, tree)
    }

    fn covar_batch(db: &Database) -> QueryBatch {
        let u = db.schema().attr_id("u").unwrap();
        let v = db.schema().attr_id("v").unwrap();
        let x1 = db.schema().attr_id("x1").unwrap();
        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push("uu", vec![], vec![Aggregate::sum_square(u)]);
        batch.push("uv", vec![], vec![Aggregate::sum_product(u, v)]);
        batch.push("vv", vec![], vec![Aggregate::sum_square(v)]);
        batch.push(
            "per_x1",
            vec![x1],
            vec![Aggregate::sum(v), Aggregate::count()],
        );
        batch
    }

    /// Brute-force reference for [`covar_batch`]: the five query results
    /// summed row by row over the materialized join, independent of `exec`.
    fn reference_covar(db: &Database) -> Vec<FxHashMap<Vec<Value>, Vec<f64>>> {
        let rels: Vec<&Relation> = db.relations().iter().collect();
        let join = natural_join(&rels, "J");
        let col = |name: &str| join.position(db.schema().attr_id(name).unwrap()).unwrap();
        let (x1, u, v) = (col("x1"), col("u"), col("v"));
        let mut scalars = [0.0f64; 4];
        let mut per_x1: FxHashMap<Vec<Value>, Vec<f64>> = FxHashMap::default();
        for i in 0..join.len() {
            let (uf, vf) = (join.value(i, u).as_f64(), join.value(i, v).as_f64());
            for (acc, term) in scalars.iter_mut().zip([1.0, uf * uf, uf * vf, vf * vf]) {
                *acc += term;
            }
            let entry = per_x1
                .entry(vec![join.value(i, x1)])
                .or_insert_with(|| vec![0.0; 2]);
            entry[0] += vf;
            entry[1] += 1.0;
        }
        let mut expected: Vec<FxHashMap<Vec<Value>, Vec<f64>>> = scalars
            .iter()
            .map(|&s| std::iter::once((Vec::new(), vec![s])).collect())
            .collect();
        expected.push(per_x1);
        expected
    }

    /// Asserts that `result` holds exactly the keys of `expected`, with
    /// values within float-reassociation noise.
    fn assert_matches_reference(
        name: &str,
        result: &QueryResult,
        expected: &FxHashMap<Vec<Value>, Vec<f64>>,
    ) {
        assert_eq!(result.len(), expected.len(), "{name}: {}", result.name);
        for (key, vals) in expected {
            let got = result
                .get(key)
                .unwrap_or_else(|| panic!("{name}: missing {key:?}"));
            for (g, w) in got.iter().zip(vals) {
                assert!((g - w).abs() < 1e-9, "{name}: {key:?} {got:?} vs {vals:?}");
            }
        }
    }

    #[test]
    fn all_configurations_agree_with_the_materialized_join() {
        let (db, tree) = chain_db();
        let expected = reference_covar(&db);
        let scalar = |q: usize| expected[q][&Vec::new()][0];
        let batch = covar_batch(&db);
        for (name, cfg) in EngineConfig::ablation_ladder(2) {
            let engine = Engine::new(db.clone(), tree.clone(), cfg);
            let result = engine.execute(&batch).unwrap();
            assert_eq!(result.queries[1].scalar()[0], scalar(1), "{name}");
            assert_eq!(result.queries[2].scalar()[0], scalar(2), "{name}");
            assert!(result.queries[0].scalar()[0] > 0.0, "{name}");
        }
    }

    #[test]
    fn group_by_results_are_identical_across_configurations() {
        let (db, tree) = chain_db();
        let batch = covar_batch(&db);
        let expected = reference_covar(&db);
        for (name, cfg) in EngineConfig::ablation_ladder(2) {
            let result = Engine::new(db.clone(), tree.clone(), cfg)
                .execute(&batch)
                .unwrap();
            assert_matches_reference(name, &result.queries[4], &expected[4]);
        }
    }

    #[test]
    fn stats_reflect_sharing() {
        let (db, tree) = chain_db();
        let batch = covar_batch(&db);
        let engine = Engine::new(db, tree, EngineConfig::default());
        let result = engine.execute(&batch).unwrap();
        let stats = &result.stats;
        assert_eq!(stats.application_aggregates, 6);
        // Far fewer views than aggregates × edges.
        assert!(stats.num_views < 6 * 2 + 5);
        assert!(stats.num_groups <= stats.num_views);
        assert!(stats.num_roots >= 1);
        assert!(stats.output_size_bytes > 0);
        // The prepared batch reports the same optimizer counters without
        // executing anything.
        let planned = engine.prepare(&batch).unwrap().stats().clone();
        assert_eq!(planned.num_views, stats.num_views);
        assert_eq!(planned.num_groups, stats.num_groups);
        assert_eq!(planned.num_roots, stats.num_roots);
        assert_eq!(planned.application_aggregates, stats.application_aggregates);
        assert_eq!(planned.output_size_bytes, 0);
    }

    #[test]
    fn results_are_addressable_by_query_name() {
        let (db, tree) = chain_db();
        let batch = covar_batch(&db);
        let engine = Engine::new(db, tree, EngineConfig::default());
        let result = engine.execute(&batch).unwrap();
        assert_eq!(
            result.query("uv").scalar()[0],
            result.queries[2].scalar()[0]
        );
        assert_eq!(result.query("per_x1").len(), result.queries[4].len());
        assert!(result.get_query("no_such_query").is_none());
    }

    #[test]
    #[should_panic(expected = "no query named")]
    fn unknown_query_name_panics() {
        let (db, tree) = chain_db();
        let batch = covar_batch(&db);
        let engine = Engine::new(db, tree, EngineConfig::default());
        engine.execute(&batch).unwrap().query("missing");
    }

    #[test]
    fn scalar_of_empty_join_is_zero() {
        let (mut db, tree) = chain_db();
        // Empty one relation: the join is empty and every aggregate is 0.
        let schema = db.relation("S3").unwrap().schema().clone();
        *db.relation_mut("S3").unwrap() = Relation::new(schema);
        db.recompute_statistics();
        let batch = covar_batch(&db);
        let engine = Engine::new(db, tree, EngineConfig::default());
        let result = engine.execute(&batch).unwrap();
        assert_eq!(result.queries[0].scalar()[0], 0.0);
        assert!(result.queries[4].is_empty());
    }

    #[test]
    fn dynamic_functions_change_results_between_iterations() {
        let (db, tree) = chain_db();
        let u = db.schema().attr_id("u").unwrap();
        let mut dynamics = DynamicRegistry::new();
        let cond = dynamics.register(|args| if args[0].as_f64() <= 1.0 { 1.0 } else { 0.0 });
        let mut batch = QueryBatch::new();
        batch.push(
            "dyn_count",
            vec![],
            vec![Aggregate::product(lmfao_expr::ProductTerm::single(
                lmfao_expr::ScalarFunction::Dynamic {
                    id: cond,
                    attrs: vec![u],
                },
            ))],
        );
        let engine = Engine::new(db, tree, EngineConfig::default());
        // Plan once; only the dynamic closure changes between executions.
        let prepared = engine.prepare(&batch).unwrap();
        let first = prepared
            .execute(&dynamics)
            .unwrap()
            .query("dyn_count")
            .scalar()[0];
        dynamics.replace(cond, |_| 1.0);
        let second = prepared
            .execute(&dynamics)
            .unwrap()
            .query("dyn_count")
            .scalar()[0];
        assert!(
            first < second,
            "loosening the predicate must grow the count"
        );
        // Preparing again plans the same batch: a fresh prepare + execute
        // agrees with the cached plan.
        let replanned = engine.prepare(&batch).unwrap().execute(&dynamics).unwrap();
        assert_eq!(replanned.query("dyn_count").scalar()[0], second);
    }

    #[test]
    fn engines_share_a_prepared_database() {
        let (db, tree) = chain_db();
        let batch = covar_batch(&db);
        let expected = reference_covar(&db);
        let shared = crate::shared::SharedDatabase::prepare(db, &tree);
        for (name, cfg) in EngineConfig::ablation_ladder(2) {
            let engine = Engine::with_shared(shared.clone(), tree.clone(), cfg);
            for rel in ["S1", "S2", "S3"] {
                assert!(shared.shares_relation_with(engine.database(), rel));
            }
            let result = engine.execute(&batch).unwrap();
            for (r, e) in result.queries.iter().zip(&expected) {
                assert_matches_reference(name, r, e);
            }
        }
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        let (db, tree) = chain_db();
        let batch = covar_batch(&db);
        let seq = Engine::new(db.clone(), tree.clone(), EngineConfig::full(1))
            .execute(&batch)
            .unwrap();
        let par = Engine::new(db, tree, EngineConfig::full(4))
            .execute(&batch)
            .unwrap();
        for (s, p) in seq.queries.iter().zip(&par.queries) {
            assert_eq!(s.len(), p.len());
            for (key, vals) in s.iter() {
                let got = p.get(key).unwrap();
                for (a, b) in vals.iter().zip(got) {
                    assert!((a - b).abs() < 1e-9);
                }
            }
        }
    }
}
