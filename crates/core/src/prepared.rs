//! Prepared batches: plan once, execute many.
//!
//! LMFAO's optimizer layers (find roots → aggregate pushdown → view merging →
//! view grouping → multi-output plans) depend only on the query batch, the
//! join tree and the engine configuration — never on the data values read at
//! execution time or on the closures in a [`DynamicRegistry`]. A
//! [`PreparedBatch`] is the cached product of running all those layers once:
//! the root assignment, the consolidated view catalog and output projections,
//! the view grouping, and the per-group physical plans. Executing it again
//! with a different registry (the next gradient step's weight function) or
//! over a restricted database ([`PreparedBatch::restrict`]: a decision-tree
//! node's rows) re-runs only the scans.
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
use lmfao_data::{AttrId, FxHashMap, Relation, Value};
use lmfao_expr::{DynamicRegistry, QueryBatch, ScalarFunction};
use lmfao_jointree::JoinTree;
use std::borrow::Cow;
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

    /// This batch over the part of its database that satisfies every one of
    /// `conditions`: the same plans (shared, never re-planned) over a row
    /// selection of the same database.
    ///
    /// Each condition must be an [`ScalarFunction::Indicator`] or
    /// [`ScalarFunction::InSet`] on an attribute some relation holds; anything
    /// else is [`EngineError::InvalidPlan`]. Every relation holding a
    /// condition's attribute keeps the rows that satisfy it. A semi-join
    /// reduction along the join tree follows — leaves to root, then root to
    /// leaves (Yannakakis) — so every row left joins with rows of all the
    /// other relations. Each step is one [`Relation::semi_join`], the
    /// primitive a commit's propagation scan selects its rows with too. A
    /// relation the selection leaves whole stays shared with this batch's
    /// database; the others become row subsets in their trie order. Restricting a restricted batch composes:
    /// `b.restrict(c1)?.restrict(c2)` holds the rows of `b.restrict(c1 ∧ c2)`.
    ///
    /// A removed row contributes exactly 0 wherever the conditions'
    /// indicators multiply every term: a failed indicator zeroes its product,
    /// a dangling row meets no view entry, and the scans never add a zero
    /// contribution. The rows that remain are scanned in the same order, so
    /// the restricted batch computes the conditioned aggregates with the same
    /// float additions — at one thread, or as long as no scanned relation
    /// spans more than one morsel (65 536 rows), whose partial sums would
    /// then merge at other boundaries.
    pub fn restrict(&self, conditions: &[ScalarFunction]) -> Result<PreparedBatch, EngineError> {
        let db = self.db.database();
        let tree = &self.inner.tree;
        // One relation per join-tree node: borrowed while whole, owned once
        // the restriction removed rows from it.
        let mut rels: Vec<Cow<'_, Relation>> = tree
            .nodes()
            .iter()
            .map(|node| db.relation(&node.relation).map(Cow::Borrowed))
            .collect::<Result<_, _>>()?;
        for cond in conditions {
            let attr = match cond {
                ScalarFunction::Indicator { attr, .. } | ScalarFunction::InSet { attr, .. } => {
                    *attr
                }
                other => {
                    return Err(EngineError::InvalidPlan(format!(
                        "restrict takes indicator or set conditions, not {other:?}"
                    )))
                }
            };
            let mut held = false;
            for rel in &mut rels {
                let Some(col) = rel.position(attr) else {
                    continue;
                };
                held = true;
                let keep: Vec<u32> = (0..rel.len() as u32)
                    .filter(|&row| cond.evaluate(&|_| rel.value(row as usize, col)) != 0.0)
                    .collect();
                if keep.len() < rel.len() {
                    *rel = Cow::Owned(rel.subset(&keep));
                }
            }
            if !held {
                return Err(EngineError::InvalidPlan(format!(
                    "no relation holds the attribute of {cond:?}"
                )));
            }
        }

        let order = tree.bfs_order(0);
        let edges = order.iter().filter(|&&(_, parent)| parent != usize::MAX);
        // Leaves to root: a parent keeps the rows that join its child.
        for &(node, parent) in edges.clone().rev() {
            reduce(&mut rels, parent, node, &tree.edge_join_attrs(node, parent));
        }
        // Root to leaves: a child keeps the rows that join its parent.
        for &(node, parent) in edges {
            reduce(&mut rels, node, parent, &tree.edge_join_attrs(node, parent));
        }

        // The clone shares every relation; the shrunk ones are swapped in.
        let mut restricted = db.clone();
        for rel in rels {
            if let Cow::Owned(rel) = rel {
                restricted.replace_relation(rel)?;
            }
        }
        Ok(PreparedBatch {
            db: SharedDatabase::from_sorted(restricted),
            inner: Arc::clone(&self.inner),
        })
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

/// Keeps the rows of `rels[target]` whose values on `attrs` occur in some
/// row of `rels[source]`: one [`Relation::semi_join`] along a join-tree edge.
fn reduce(rels: &mut [Cow<'_, Relation>], target: usize, source: usize, attrs: &[AttrId]) {
    let cols = |rel: &Relation| -> Vec<usize> {
        attrs
            .iter()
            .map(|&a| {
                rel.position(a)
                    .expect("both ends hold an edge's attributes")
            })
            .collect()
    };
    let keys = rels[source].keys(&cols(&rels[source]));
    if let Some(kept) = rels[target].semi_join(&[(cols(&rels[target]), keys)]) {
        rels[target] = Cow::Owned(kept);
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
    use lmfao_expr::{Aggregate, CmpOp};
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

    /// A batch over a Retailer-shaped snowflake: Inventory(locn, ksn, units) joins
    /// Location(locn, zip, area) and Item(ksn, price); Location joins
    /// Census(zip, pop). Every item is stocked at every location, and
    /// inventory rows with `locn = 9` match no location.
    fn snowflake() -> PreparedBatch {
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs(
            "Inventory",
            &[
                ("locn", AttrType::Int),
                ("ksn", AttrType::Int),
                ("units", AttrType::Double),
            ],
        );
        schema.add_relation_with_attrs(
            "Location",
            &[
                ("locn", AttrType::Int),
                ("zip", AttrType::Int),
                ("area", AttrType::Double),
            ],
        );
        schema.add_relation_with_attrs(
            "Census",
            &[("zip", AttrType::Int), ("pop", AttrType::Double)],
        );
        schema.add_relation_with_attrs(
            "Item",
            &[("ksn", AttrType::Int), ("price", AttrType::Double)],
        );
        let rel = |name: &str, rows: Vec<Vec<Value>>| {
            Relation::from_rows(schema.relation(name).unwrap().clone(), rows).unwrap()
        };
        let mut inventory = Vec::new();
        for locn in [0, 1, 2, 3, 9] {
            for ksn in 0..3 {
                inventory.push(vec![
                    Value::Int(locn),
                    Value::Int(ksn),
                    Value::Double((locn * 3 + ksn) as f64 + 0.5),
                ]);
            }
        }
        let location = (0..4)
            .map(|l| {
                vec![
                    Value::Int(l),
                    Value::Int(l % 2),
                    Value::Double(10.0 * l as f64),
                ]
            })
            .collect();
        let census = (0..2)
            .map(|z| vec![Value::Int(z), Value::Double(100.0 + z as f64)])
            .collect();
        let item = (0..3)
            .map(|k| vec![Value::Int(k), Value::Double(k as f64 + 1.25)])
            .collect();
        let relations = vec![
            rel("Inventory", inventory),
            rel("Location", location),
            rel("Census", census),
            rel("Item", item),
        ];
        let db = Database::new(schema.clone(), relations).unwrap();
        let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
        let attr = |n: &str| schema.attr_id(n).unwrap();
        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push(
            "units_price",
            vec![attr("zip")],
            vec![Aggregate::sum_product(attr("units"), attr("price"))],
        );
        Engine::new(db, tree, EngineConfig::default())
            .prepare(&batch)
            .unwrap()
    }

    fn attr(batch: &PreparedBatch, name: &str) -> AttrId {
        batch.database().schema().attr_id(name).unwrap()
    }

    fn indicator(batch: &PreparedBatch, name: &str, op: CmpOp, threshold: Value) -> ScalarFunction {
        ScalarFunction::Indicator {
            attr: attr(batch, name),
            op,
            threshold,
        }
    }

    /// The rows of one relation of a batch's database, in order.
    fn rows(batch: &PreparedBatch, name: &str) -> Vec<Vec<Value>> {
        let rel = batch.database().relation(name).unwrap();
        rel.rows().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn restrict_shares_the_relations_it_leaves_whole() {
        let full = snowflake();
        // Census keeps zip 1 only; its locations (1, 3) and their stock
        // remain, and every item is still stocked there.
        let pop = indicator(&full, "pop", CmpOp::Gt, Value::Double(100.5));
        let part = full.restrict(&[pop]).unwrap();
        assert!(Arc::ptr_eq(&part.inner, &full.inner), "plans are shared");
        assert!(part
            .database()
            .shares_relation_with(full.database(), "Item"));
        for name in ["Census", "Location", "Inventory"] {
            assert!(!part.database().shares_relation_with(full.database(), name));
        }
        // Restricting a restricted batch by a condition every row meets
        // copies nothing.
        let all = indicator(&full, "price", CmpOp::Ge, Value::Double(0.0));
        let again = part.restrict(&[all]).unwrap();
        for name in ["Inventory", "Location", "Census", "Item"] {
            assert!(again.database().shares_relation_with(part.database(), name));
        }
    }

    #[test]
    fn a_census_condition_reaches_inventory_through_location() {
        let full = snowflake();
        let pop = indicator(&full, "pop", CmpOp::Le, Value::Double(100.5));
        let part = full.restrict(&[pop]).unwrap();
        // Two hops: Census keeps zip 0, Location its locations 0 and 2, and
        // Inventory only their stock.
        assert_eq!(rows(&part, "Census").len(), 1);
        let locations: Vec<Value> = rows(&part, "Location").iter().map(|r| r[0]).collect();
        assert_eq!(locations, vec![Value::Int(0), Value::Int(2)]);
        let inventory = rows(&part, "Inventory");
        assert_eq!(inventory.len(), 6);
        assert!(inventory.iter().all(|r| locations.contains(&r[0])));
        // The restricted relations keep the trie order of the scans.
        for name in ["Inventory", "Location", "Census"] {
            let (p, f) = (&part.database(), &full.database());
            assert_eq!(
                p.relation(name).unwrap().sorted_by(),
                f.relation(name).unwrap().sorted_by()
            );
        }
        let result = part.execute(&DynamicRegistry::new()).unwrap();
        assert_eq!(result.query("count").scalar()[0], 6.0);
    }

    #[test]
    fn a_condition_and_its_negation_partition_the_fact_rows() {
        let full = snowflake();
        let area = indicator(&full, "area", CmpOp::Le, Value::Double(15.0));
        let ScalarFunction::Indicator {
            attr,
            op,
            threshold,
        } = area.clone()
        else {
            unreachable!()
        };
        let negated = ScalarFunction::Indicator {
            attr,
            op: op.negate(),
            threshold,
        };
        let left = rows(&full.restrict(&[area]).unwrap(), "Inventory");
        let right = rows(&full.restrict(&[negated]).unwrap(), "Inventory");
        assert!(left.iter().all(|r| !right.contains(r)), "disjoint");
        // Together they hold every inventory row that joins a location: all
        // but the three of the unknown location 9.
        let mut both: Vec<Vec<Value>> = left.into_iter().chain(right).collect();
        both.sort();
        let mut joined: Vec<Vec<Value>> = rows(&full, "Inventory")
            .into_iter()
            .filter(|r| r[0] != Value::Int(9))
            .collect();
        joined.sort();
        assert_eq!(both, joined);
    }

    #[test]
    fn chained_restriction_equals_one_shot_restriction() {
        let full = snowflake();
        let area = indicator(&full, "area", CmpOp::Ge, Value::Double(10.0));
        let price = ScalarFunction::InSet {
            attr: attr(&full, "price"),
            set: vec![Value::Double(1.25), Value::Double(3.25)],
        };
        let chained = full
            .restrict(std::slice::from_ref(&area))
            .unwrap()
            .restrict(std::slice::from_ref(&price))
            .unwrap();
        let one_shot = full.restrict(&[area, price]).unwrap();
        for name in ["Inventory", "Location", "Census", "Item"] {
            assert_eq!(rows(&chained, name), rows(&one_shot, name), "{name}");
        }
        assert_eq!(rows(&one_shot, "Item").len(), 2);
        // No condition still drops the dangling rows of an unreduced batch.
        assert_eq!(rows(&full.restrict(&[]).unwrap(), "Inventory").len(), 12);
        let dynamics = DynamicRegistry::new();
        let (a, b) = (
            chained.execute(&dynamics).unwrap(),
            one_shot.execute(&dynamics).unwrap(),
        );
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.data, y.data);
        }
    }

    #[test]
    fn restrict_rejects_what_it_cannot_select_by() {
        let full = snowflake();
        let units = attr(&full, "units");
        for bad in [
            ScalarFunction::Identity(units),
            ScalarFunction::Dynamic {
                id: 0,
                attrs: vec![units],
            },
            ScalarFunction::Indicator {
                attr: AttrId(999),
                op: CmpOp::Eq,
                threshold: Value::Int(0),
            },
        ] {
            let err = full.restrict(std::slice::from_ref(&bad)).unwrap_err();
            assert!(
                matches!(err, EngineError::InvalidPlan(_)),
                "{bad:?}: {err:?}"
            );
        }
    }
}
