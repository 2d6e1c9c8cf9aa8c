//! The materialized-join baseline engine.
//!
//! This reproduces the evaluation strategy of the systems the paper compares
//! against (PostgreSQL, MonetDB, the commercial DBX): materialize the natural
//! join of the database once, then compute **each query of the batch
//! separately** over the join, with no sharing of computation across queries.
//! The contrast with LMFAO's shared, factorized evaluation is what Table 3
//! measures.

use lmfao_data::{AttrId, Column, Database, FxHashMap, Relation, Value};
use lmfao_expr::{DynamicRegistry, Query, QueryBatch};
use lmfao_jointree::{natural_join, JoinTree};

/// The result of one query computed by the baseline.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Group-by attributes, in the query's order (the key tuple order below).
    pub group_by: Vec<AttrId>,
    /// Key tuple → aggregate values.
    pub data: FxHashMap<Vec<Value>, Vec<f64>>,
}

impl BaselineResult {
    /// The aggregates of a group.
    pub fn get(&self, key: &[Value]) -> Option<&[f64]> {
        self.data.get(key).map(Vec::as_slice)
    }

    /// The aggregates of a scalar query (zeros when the join is empty).
    pub fn scalar(&self, num_aggregates: usize) -> Vec<f64> {
        self.data
            .get(&Vec::new() as &Vec<Value>)
            .cloned()
            .unwrap_or_else(|| vec![0.0; num_aggregates])
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if no group was produced.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A baseline engine holding the materialized join.
#[derive(Debug, Clone)]
pub struct MaterializedEngine {
    join: Relation,
}

impl MaterializedEngine {
    /// Materializes the natural join of all relations, joining along the join
    /// tree in breadth-first order so that every pairwise join has shared
    /// attributes (no accidental cartesian products).
    pub fn materialize(db: &Database, tree: &JoinTree) -> Self {
        let order = tree.bfs_order(0);
        let relations: Vec<&Relation> = order
            .iter()
            .map(|&(node, _)| {
                db.relation(&tree.node(node).relation)
                    .expect("tree node relation must exist")
            })
            .collect();
        let join = natural_join(&relations, "Join");
        MaterializedEngine { join }
    }

    /// The materialized join.
    pub fn join(&self) -> &Relation {
        &self.join
    }

    /// Size of the materialized join in bytes — the cost LMFAO avoids
    /// (Table 1's "Size of Join Result").
    pub fn join_size_bytes(&self) -> usize {
        self.join.size_bytes()
    }

    /// Resolves every column position a query touches (group-by keys and all
    /// aggregate attributes) against the join once, mirroring the LMFAO
    /// engine's prepare/execute split: re-executing a
    /// [`PreparedBaselineBatch`] with a changing [`DynamicRegistry`] performs
    /// no per-row schema lookups.
    pub fn prepare(&self, batch: &QueryBatch) -> PreparedBaselineBatch {
        PreparedBaselineBatch {
            queries: batch
                .queries
                .iter()
                .map(|q| self.resolve_query(q))
                .collect(),
        }
    }

    fn resolve_query(&self, query: &Query) -> PreparedBaselineQuery {
        PreparedBaselineQuery {
            query: query.clone(),
            key_positions: query
                .group_by
                .iter()
                .map(|a| self.join.position(*a))
                .collect(),
            attr_positions: query
                .attrs()
                .into_iter()
                .map(|a| (a, self.join.position(a)))
                .collect(),
        }
    }

    /// Computes every query of a batch, one at a time (no sharing).
    pub fn execute_batch(
        &self,
        batch: &QueryBatch,
        dynamics: &DynamicRegistry,
    ) -> Vec<BaselineResult> {
        self.execute_prepared(&self.prepare(batch), dynamics)
    }

    /// Executes a prepared batch, one full-join scan per query.
    pub fn execute_prepared(
        &self,
        prepared: &PreparedBaselineBatch,
        dynamics: &DynamicRegistry,
    ) -> Vec<BaselineResult> {
        prepared
            .queries
            .iter()
            .map(|q| self.scan_query(&q.query, &q.key_positions, &q.attr_positions, dynamics))
            .collect()
    }

    fn scan_query(
        &self,
        query: &Query,
        key_positions: &[Option<usize>],
        attr_positions: &FxHashMap<AttrId, Option<usize>>,
        dynamics: &DynamicRegistry,
    ) -> BaselineResult {
        // Resolve every touched attribute to its typed column handle once, so
        // the scan performs no per-row hash probes or schema lookups.
        let key_cols: Vec<Option<&Column>> = key_positions
            .iter()
            .map(|p| p.map(|col| self.join.column(col)))
            .collect();
        let attr_cols: FxHashMap<AttrId, Option<&Column>> = attr_positions
            .iter()
            .map(|(&a, p)| (a, p.map(|col| self.join.column(col))))
            .collect();
        let mut data: FxHashMap<Vec<Value>, Vec<f64>> = FxHashMap::default();
        for row in 0..self.join.len() {
            // Attributes outside the resolved set (none for well-formed
            // queries) fall back to a live schema lookup.
            let lookup = |a: AttrId| {
                let col = match attr_cols.get(&a) {
                    Some(resolved) => *resolved,
                    None => self.join.position(a).map(|c| self.join.column(c)),
                };
                match col {
                    Some(col) => col.value(row),
                    None => Value::Null,
                }
            };
            let key: Vec<Value> = key_cols
                .iter()
                .map(|c| match c {
                    Some(col) => col.value(row),
                    None => Value::Null,
                })
                .collect();
            let entry = data
                .entry(key)
                .or_insert_with(|| vec![0.0; query.aggregates.len()]);
            for (i, agg) in query.aggregates.iter().enumerate() {
                entry[i] += agg.evaluate(&lookup, dynamics);
            }
        }
        BaselineResult {
            group_by: query.group_by.clone(),
            data,
        }
    }
}

/// One query with every column it touches pre-resolved against the join.
#[derive(Debug, Clone)]
struct PreparedBaselineQuery {
    query: Query,
    /// Position of every group-by attribute in the join (None for attributes
    /// absent from the join — their key component is Null).
    key_positions: Vec<Option<usize>>,
    /// Position of every attribute any aggregate reads.
    attr_positions: FxHashMap<AttrId, Option<usize>>,
}

/// A batch with all per-query schema lookups resolved, ready for repeated
/// execution against the same materialized join.
#[derive(Debug, Clone)]
pub struct PreparedBaselineBatch {
    queries: Vec<PreparedBaselineQuery>,
}

impl PreparedBaselineBatch {
    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the batch holds no query.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmfao_data::{AttrType, DatabaseSchema, RelationSchema};
    use lmfao_expr::Aggregate;
    use lmfao_jointree::{build_join_tree, Hypergraph};

    fn db_and_tree() -> (Database, JoinTree) {
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs(
            "R",
            &[
                ("a", AttrType::Int),
                ("b", AttrType::Int),
                ("x", AttrType::Double),
            ],
        );
        schema.add_relation_with_attrs("S", &[("b", AttrType::Int), ("y", AttrType::Double)]);
        let a = schema.attr_id("a").unwrap();
        let b = schema.attr_id("b").unwrap();
        let x = schema.attr_id("x").unwrap();
        let y = schema.attr_id("y").unwrap();
        let r = Relation::from_rows(
            RelationSchema::new("R", vec![a, b, x]),
            vec![
                vec![Value::Int(1), Value::Int(1), Value::Double(2.0)],
                vec![Value::Int(2), Value::Int(1), Value::Double(3.0)],
                vec![Value::Int(3), Value::Int(2), Value::Double(4.0)],
                vec![Value::Int(4), Value::Int(9), Value::Double(5.0)],
            ],
        )
        .unwrap();
        let s = Relation::from_rows(
            RelationSchema::new("S", vec![b, y]),
            vec![
                vec![Value::Int(1), Value::Double(10.0)],
                vec![Value::Int(2), Value::Double(20.0)],
            ],
        )
        .unwrap();
        let db = Database::new(schema.clone(), vec![r, s]).unwrap();
        let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
        (db, tree)
    }

    #[test]
    fn join_materialization_drops_dangling_tuples() {
        let (db, tree) = db_and_tree();
        let engine = MaterializedEngine::materialize(&db, &tree);
        // (4, 9, 5.0) has no matching S tuple.
        assert_eq!(engine.join().len(), 3);
        assert!(engine.join_size_bytes() > 0);
    }

    #[test]
    fn scalar_aggregates_over_the_join() {
        let (db, tree) = db_and_tree();
        let x = db.schema().attr_id("x").unwrap();
        let y = db.schema().attr_id("y").unwrap();
        let engine = MaterializedEngine::materialize(&db, &tree);
        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push("sxy", vec![], vec![Aggregate::sum_product(x, y)]);
        let res = engine.execute_batch(&batch, &DynamicRegistry::new());
        assert_eq!(res[0].scalar(1)[0], 3.0);
        assert_eq!(res[1].scalar(1)[0], 2.0 * 10.0 + 3.0 * 10.0 + 4.0 * 20.0);
    }

    #[test]
    fn group_by_aggregates_over_the_join() {
        let (db, tree) = db_and_tree();
        let b = db.schema().attr_id("b").unwrap();
        let x = db.schema().attr_id("x").unwrap();
        let engine = MaterializedEngine::materialize(&db, &tree);
        let mut batch = QueryBatch::new();
        batch.push(
            "per_b",
            vec![b],
            vec![Aggregate::sum(x), Aggregate::count()],
        );
        let res = engine.execute_batch(&batch, &DynamicRegistry::new());
        assert_eq!(res[0].len(), 2);
        assert_eq!(res[0].get(&[Value::Int(1)]).unwrap(), &[5.0, 2.0]);
        assert_eq!(res[0].get(&[Value::Int(2)]).unwrap(), &[4.0, 1.0]);
        assert!(!res[0].is_empty());
    }

    #[test]
    fn prepared_baseline_batch_matches_direct_execution() {
        let (db, tree) = db_and_tree();
        let b = db.schema().attr_id("b").unwrap();
        let x = db.schema().attr_id("x").unwrap();
        let engine = MaterializedEngine::materialize(&db, &tree);
        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push("per_b", vec![b], vec![Aggregate::sum(x)]);
        let prepared = engine.prepare(&batch);
        assert_eq!(prepared.len(), 2);
        assert!(!prepared.is_empty());
        let dynamics = DynamicRegistry::new();
        let via_prepared = engine.execute_prepared(&prepared, &dynamics);
        let direct = engine.execute_batch(&batch, &dynamics);
        for (p, d) in via_prepared.iter().zip(&direct) {
            assert_eq!(p.data, d.data);
        }
    }

    #[test]
    fn empty_join_gives_zero_scalars() {
        let (mut db, tree) = db_and_tree();
        let schema = db.relation("S").unwrap().schema().clone();
        *db.relation_mut("S").unwrap() = Relation::new(schema);
        let engine = MaterializedEngine::materialize(&db, &tree);
        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        let res = engine.execute_batch(&batch, &DynamicRegistry::new());
        assert_eq!(res[0].scalar(1)[0], 0.0);
    }
}
