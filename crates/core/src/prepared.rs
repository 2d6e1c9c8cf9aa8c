//! Prepared batches: plan once, execute many.
//!
//! LMFAO's optimizer layers (find roots → aggregate pushdown → view merging →
//! view grouping → multi-output plans) depend only on the query batch, the
//! join tree and the engine configuration — never on the data values read at
//! execution time or on the closures in a [`DynamicRegistry`]. A
//! [`PreparedBatch`] is the cached product of running all those layers once:
//! the root assignment, the consolidated view catalog and output projections,
//! the view grouping, and the per-group physical plans. Executing it again
//! with a different registry (a new decision-tree split predicate, the next
//! gradient step's weight function) re-runs only the scans.
//!
//! This is the reproduction of the paper's compile-once design: the generated
//! C++ is compiled one time and only the *dynamic functions* are recompiled
//! and re-linked between iterations (Section 4). Here the "compiled" artifact
//! is the `PreparedBatch` and the re-linked part is the registry passed to
//! [`PreparedBatch::execute`].

use crate::config::EngineConfig;
use crate::engine::{BatchResult, EngineStats, QueryResult};
use crate::error::EngineError;
use crate::group::{group_views, Grouping};
use crate::parallel::execute_all;
use crate::plan::{build_group_plan, GroupPlan};
use crate::pushdown::{push_down_batch, PushdownResult};
use crate::roots::assign_roots;
use crate::shared::SharedDatabase;
use crate::view::{ComputedView, ViewId};
use lmfao_certify::Certificate;
use lmfao_data::{AttrId, FxHashMap, Value};
use lmfao_expr::{DynamicRegistry, QueryBatch};
use lmfao_jointree::JoinTree;
use std::sync::Arc;

/// Everything needed to project one query's result out of its output view,
/// resolved at prepare time.
#[derive(Debug, Clone)]
pub(crate) struct PreparedQuery {
    /// Query name (copied from the batch).
    pub(crate) name: String,
    /// Group-by attributes in the query's requested order.
    pub(crate) group_by: Vec<AttrId>,
    /// Number of aggregates of the query.
    pub(crate) num_aggregates: usize,
    /// The output view carrying the query's aggregates.
    pub(crate) view: ViewId,
    /// For each aggregate of the query, its index within the output view.
    pub(crate) aggregate_indices: Vec<usize>,
    /// Permutation from the view's canonical key order to the query's
    /// group-by order.
    pub(crate) key_perm: Vec<usize>,
}

/// A fully optimized query batch, ready to be executed any number of times.
///
/// Built by [`crate::engine::Engine::prepare`]. Holds a [`SharedDatabase`],
/// so it stays valid independently of the engine that created it, and all
/// planned state lives behind an `Arc`: cloning bumps reference counts (the
/// plans' and each relation's), never copies the plans or the data.
#[derive(Debug, Clone)]
pub struct PreparedBatch {
    pub(crate) db: SharedDatabase,
    pub(crate) inner: Arc<PreparedPlans>,
}

/// The immutable product of the optimizer layers, shared by every clone of a
/// [`PreparedBatch`] (and retained by a [`crate::snapshot::Maintainer`]).
#[derive(Debug)]
pub(crate) struct PreparedPlans {
    pub(crate) tree: JoinTree,
    pub(crate) config: EngineConfig,
    pub(crate) pushdown: PushdownResult,
    pub(crate) grouping: Grouping,
    /// Physical plans, one per group, each carrying
    /// `config.specialization` as [`GroupPlan::specialized`].
    pub(crate) plans: Vec<GroupPlan>,
    pub(crate) queries: Vec<PreparedQuery>,
    pub(crate) stats: EngineStats,
}

impl PreparedBatch {
    /// Runs every optimizer layer over `batch` and caches the results.
    pub(crate) fn build(
        db: SharedDatabase,
        tree: JoinTree,
        config: EngineConfig,
        batch: &QueryBatch,
    ) -> Result<Self, EngineError> {
        let roots = assign_roots(batch, &tree, &db, &config);
        let pushdown = push_down_batch(batch, &tree, &roots);
        let grouping = group_views(&pushdown.catalog, config.multi_output);
        let plans: Vec<GroupPlan> = grouping
            .groups
            .iter()
            .map(|g| {
                let mut plan = build_group_plan(&db, &tree, &pushdown.catalog, g)?;
                plan.specialized = config.specialization;
                Ok(plan)
            })
            .collect::<Result<_, EngineError>>()?;

        let queries: Vec<PreparedQuery> = batch
            .queries
            .iter()
            .zip(&pushdown.outputs)
            .map(|(query, output)| {
                let view = pushdown.catalog.view(output.view);
                // Keys of the computed view are in the view's canonical
                // (sorted) order; precompute the reordering to the query's
                // requested order.
                let key_perm: Vec<usize> = query
                    .group_by
                    .iter()
                    .map(|a| {
                        view.group_by
                            .iter()
                            .position(|b| b == a)
                            .expect("query group-by attr must be a view key attr")
                    })
                    .collect();
                PreparedQuery {
                    name: query.name.clone(),
                    group_by: query.group_by.clone(),
                    num_aggregates: query.aggregates.len(),
                    view: output.view,
                    aggregate_indices: output.aggregate_indices.clone(),
                    key_perm,
                }
            })
            .collect();

        let stats = EngineStats {
            application_aggregates: batch.num_aggregates(),
            intermediate_aggregates: pushdown
                .catalog
                .total_aggregates()
                .saturating_sub(batch.num_aggregates()),
            num_views: pushdown.catalog.len(),
            num_groups: grouping.len(),
            num_roots: roots.num_distinct_roots(),
            output_size_bytes: 0,
        };

        Ok(PreparedBatch {
            db,
            inner: Arc::new(PreparedPlans {
                tree,
                config,
                pushdown,
                grouping,
                plans,
                queries,
                stats,
            }),
        })
    }

    /// The Table-2 style planning statistics: application and intermediate
    /// aggregate counts, consolidated views, groups and distinct roots.
    /// `output_size_bytes` is 0 here — output sizes are only known after an
    /// execution (see [`BatchResult::stats`]).
    pub fn stats(&self) -> &EngineStats {
        &self.inner.stats
    }

    /// The configuration the batch was prepared under.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// The shared database the batch executes over.
    pub fn database(&self) -> &SharedDatabase {
        &self.db
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.inner.queries.len()
    }

    /// True if the batch holds no query.
    pub fn is_empty(&self) -> bool {
        self.inner.queries.is_empty()
    }

    /// The query names, in batch order.
    pub fn query_names(&self) -> impl Iterator<Item = &str> {
        self.inner.queries.iter().map(|q| q.name.as_str())
    }

    /// Executes the cached plans, resolving dynamic UDAFs through `dynamics`,
    /// and projects the per-query results. No optimizer layer runs here; call
    /// this as many times as needed with changing registries.
    pub fn execute(&self, dynamics: &DynamicRegistry) -> Result<BatchResult, EngineError> {
        let computed = self.compute_views(dynamics)?;
        project_results(&self.inner, &computed)
    }

    /// Like [`PreparedBatch::execute`], but additionally emits the execution
    /// certificate: per-view-group provenance (scanned relation and
    /// cardinality, incoming views, produced views with fixed-point aggregate
    /// totals) plus per-query totals derived from the published results. Feed
    /// the certificate to `lmfao_certify::check_certificate` — the
    /// independent checker — to audit the run.
    pub fn execute_certified(
        &self,
        dynamics: &DynamicRegistry,
    ) -> Result<(BatchResult, Certificate), EngineError> {
        let computed = self.compute_views(dynamics)?;
        let results = project_results(&self.inner, &computed)?;
        let db = self.db.database();
        let certificate = crate::certificate::emit_execute(
            &self.inner,
            |name| db.relation(name).map(|r| r.len() as u64).unwrap_or(0),
            &computed,
            0,
            &results,
        )?;
        Ok((results, certificate))
    }

    /// Runs every group scan and returns the computed result of every view —
    /// the shared first half of [`PreparedBatch::execute`] and
    /// [`PreparedBatch::execute_certified`].
    fn compute_views(
        &self,
        dynamics: &DynamicRegistry,
    ) -> Result<FxHashMap<ViewId, ComputedView>, EngineError> {
        let inner = &*self.inner;
        execute_all(
            self.db.database(),
            &inner.plans,
            &inner.grouping,
            dynamics,
            &inner.config,
        )
    }
}

/// Projects per-query results out of the computed (or maintained) output
/// views — shared by [`PreparedBatch::execute`] and the snapshot publication
/// in [`crate::snapshot`] (which keeps its views behind `Arc`s, hence the
/// [`ViewSource`](crate::view::ViewSource) bound instead of a concrete map).
pub(crate) fn project_results<V: crate::view::ViewSource>(
    inner: &PreparedPlans,
    computed: &V,
) -> Result<BatchResult, EngineError> {
    let mut queries = Vec::with_capacity(inner.queries.len());
    let mut output_bytes = 0usize;
    for pq in &inner.queries {
        let cv = computed
            .view_result(pq.view)
            .ok_or(EngineError::ViewNotComputed(pq.view))?;
        let mut data: FxHashMap<Vec<Value>, Vec<f64>> = FxHashMap::default();
        for (key, values) in cv.iter() {
            let reordered: Vec<Value> = pq.key_perm.iter().map(|&p| key[p]).collect();
            let selected: Vec<f64> = pq.aggregate_indices.iter().map(|&i| values[i]).collect();
            let entry = data
                .entry(reordered)
                .or_insert_with(|| vec![0.0; pq.aggregate_indices.len()]);
            for (e, v) in entry.iter_mut().zip(&selected) {
                *e += v;
            }
        }
        let result = QueryResult {
            name: pq.name.clone(),
            group_by: pq.group_by.clone(),
            num_aggregates: pq.num_aggregates,
            data,
        };
        output_bytes += result.size_bytes();
        queries.push(result);
    }

    let mut stats = inner.stats.clone();
    stats.output_size_bytes = output_bytes;
    Ok(BatchResult { queries, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use lmfao_data::{AttrType, Database, DatabaseSchema, Relation, RelationSchema};
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
        let ids: Vec<AttrId> = ["a", "b", "x", "y"]
            .iter()
            .map(|n| schema.attr_id(n).unwrap())
            .collect();
        let r = Relation::from_rows(
            RelationSchema::new("R", vec![ids[0], ids[1], ids[2]]),
            (0..20)
                .map(|i| {
                    vec![
                        Value::Int(i % 4),
                        Value::Int(i % 3),
                        Value::Double((i % 5) as f64),
                    ]
                })
                .collect(),
        )
        .unwrap();
        let s = Relation::from_rows(
            RelationSchema::new("S", vec![ids[1], ids[3]]),
            (0..3)
                .map(|i| vec![Value::Int(i), Value::Double((i + 1) as f64)])
                .collect(),
        )
        .unwrap();
        let db = Database::new(schema.clone(), vec![r, s]).unwrap();
        let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
        (db, tree)
    }

    fn batch(db: &Database) -> QueryBatch {
        let a = db.schema().attr_id("a").unwrap();
        let x = db.schema().attr_id("x").unwrap();
        let y = db.schema().attr_id("y").unwrap();
        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push("xy", vec![], vec![Aggregate::sum_product(x, y)]);
        batch.push("per_a", vec![a], vec![Aggregate::sum(y)]);
        batch
    }

    #[test]
    fn repeated_execution_is_deterministic() {
        let (db, tree) = db_and_tree();
        let batch = batch(&db);
        let engine = Engine::new(db, tree, EngineConfig::default());
        let prepared = engine.prepare(&batch).unwrap();
        let dynamics = DynamicRegistry::new();
        let first = prepared.execute(&dynamics).unwrap();
        let second = prepared.execute(&dynamics).unwrap();
        assert_eq!(first.queries.len(), second.queries.len());
        for (f, s) in first.queries.iter().zip(&second.queries) {
            assert_eq!(f.data, s.data);
        }
    }

    #[test]
    fn prepared_execution_matches_one_shot_execute() {
        let (db, tree) = db_and_tree();
        let batch = batch(&db);
        for (name, cfg) in EngineConfig::ablation_ladder(2) {
            let engine = Engine::new(db.clone(), tree.clone(), cfg);
            let via_prepared = engine
                .prepare(&batch)
                .unwrap()
                .execute(&DynamicRegistry::new())
                .unwrap();
            let one_shot = engine.execute(&batch).unwrap();
            for (p, o) in via_prepared.queries.iter().zip(&one_shot.queries) {
                assert_eq!(p.data, o.data, "{name}");
            }
        }
    }

    #[test]
    fn execute_certified_passes_the_independent_checker() {
        let (db, tree) = db_and_tree();
        let batch = batch(&db);
        for (name, cfg) in EngineConfig::ablation_ladder(2) {
            let engine = Engine::new(db.clone(), tree.clone(), cfg);
            let prepared = engine.prepare(&batch).unwrap();
            let (results, cert) = prepared.execute_certified(&DynamicRegistry::new()).unwrap();
            lmfao_certify::check_certificate(&cert).unwrap_or_else(|e| panic!("{name}: {e}"));
            // The certified path publishes the same results as the plain one.
            let plain = prepared.execute(&DynamicRegistry::new()).unwrap();
            for (a, b) in results.queries.iter().zip(&plain.queries) {
                assert_eq!(a.data, b.data, "{name}");
            }
        }
    }

    #[test]
    fn planning_stats_match_executed_stats() {
        let (db, tree) = db_and_tree();
        let batch = batch(&db);
        let engine = Engine::new(db, tree, EngineConfig::default());
        let prepared = engine.prepare(&batch).unwrap();
        assert_eq!(prepared.len(), 3);
        assert!(!prepared.is_empty());
        assert_eq!(
            prepared.query_names().collect::<Vec<_>>(),
            vec!["count", "xy", "per_a"]
        );
        let planned = prepared.stats().clone();
        assert_eq!(planned.output_size_bytes, 0);
        let executed = prepared.execute(&DynamicRegistry::new()).unwrap().stats;
        assert_eq!(planned.num_views, executed.num_views);
        assert_eq!(planned.num_groups, executed.num_groups);
        assert_eq!(planned.num_roots, executed.num_roots);
        assert_eq!(
            planned.application_aggregates,
            executed.application_aggregates
        );
        assert!(executed.output_size_bytes > 0);
    }

    #[test]
    fn prepared_batch_outlives_its_engine() {
        let (db, tree) = db_and_tree();
        let batch = batch(&db);
        let prepared = {
            let engine = Engine::new(db, tree, EngineConfig::default());
            engine.prepare(&batch).unwrap()
        };
        // The engine is gone; the prepared batch still executes because it
        // holds its own SharedDatabase handle.
        let result = prepared.execute(&DynamicRegistry::new()).unwrap();
        assert!(result.query("count").scalar()[0] > 0.0);
    }

    #[test]
    fn a_panicking_worker_is_a_typed_error_and_the_batch_stays_usable() {
        use lmfao_expr::{ProductTerm, ScalarFunction};

        let (db, tree) = db_and_tree();
        let x = db.schema().attr_id("x").unwrap();
        let mut batch = batch(&db);
        batch.push(
            "dyn_x",
            vec![],
            vec![Aggregate::product(ProductTerm::single(
                ScalarFunction::Dynamic {
                    id: 0,
                    attrs: vec![x],
                },
            ))],
        );
        let prepared = Engine::new(db, tree, EngineConfig::full(2))
            .prepare(&batch)
            .unwrap();
        let mut panicking = DynamicRegistry::new();
        panicking.register(|_| panic!("dynamic boom"));
        let err = prepared.execute(&panicking).unwrap_err();
        assert!(
            matches!(err, EngineError::WorkerPanicked(ref msg) if msg.contains("dynamic boom")),
            "{err:?}"
        );
        // Nothing of the failed run lingers: the same batch executes cleanly.
        let mut benign = DynamicRegistry::new();
        benign.register(|args| args[0].as_f64());
        let result = prepared.execute(&benign).unwrap();
        assert_eq!(result.query("count").scalar()[0], 20.0);
    }
}
