//! The Multi-Output Optimization layer: physical plans for view groups.
//!
//! A view group is LMFAO's computational unit: all views going out of the
//! same join-tree node at the same dependency stage are computed in one scan
//! over that node's relation (Section 3.5). The scan sees the relation as a
//! trie over an *attribute order* on its join attributes (ascending domain
//! size); incoming views are registered at the depth where all their join
//! keys are bound; and every factor of every aggregate is registered at the
//! lowest depth at which it can be evaluated:
//!
//! * factors over join attributes and lookups into incoming views without
//!   extra key attributes fold into per-depth *partial products* (the
//!   `α`-registers of Figure 4),
//! * factors over the relation's non-join attributes become *local
//!   expressions*, deduplicated across all aggregates of the group and summed
//!   once per innermost binding (the `α9`/`α10` local variables of Figure 4),
//! * references to incoming views that carry extra group-by attributes are
//!   resolved in the innermost loop over that view's matching entries,
//! * an output view whose key parts are all join attributes gets a
//!   *register depth* (one more than the depth of its deepest key part; 0
//!   for a scalar output): the scan accumulates it in an output register
//!   row, the view-side `α`-registers of Figure 4. The row is loaded with
//!   the view's existing entry for the key on the first nonzero contribution
//!   under a binding of that depth and stored back when the binding ends, so
//!   each entry sees the same additions in the same order as if every
//!   contribution were added to it directly — bit-identical, with one key
//!   built and two hash lookups per binding (plus an insert for a new key)
//!   instead of a key and a lookup per term and range. Keys with a non-join
//!   column or an extra attribute change inside the innermost loop, so they
//!   have no register depth and the scan adds each contribution to its
//!   entry.
//!
//! This module only *builds* the plans; execution lives in [`crate::exec`].

use crate::error::EngineError;
use crate::group::ViewGroup;
use crate::view::{ViewCatalog, ViewDef, ViewId};
use lmfao_data::{AttrId, Database, Relation};
use lmfao_expr::ScalarFunction;
use lmfao_jointree::JoinTree;

/// Where a component of an output key comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum KeySource {
    /// A join attribute of the scanned relation, bound at the given depth of
    /// the attribute order.
    BoundDepth(usize),
    /// A non-join column of the scanned relation: requires the per-row path.
    RowColumn(usize),
    /// An attribute carried by an incoming view's extra key, resolved from
    /// the current entry combination.
    Extra(AttrId),
}

/// Plan for one incoming view consumed by the group.
#[derive(Debug, Clone)]
pub struct IncomingPlan {
    /// The incoming view.
    pub view: ViewId,
    /// Key attributes of the view that are columns of the scanned relation,
    /// as `(attr, column position in the relation)`, in the view's canonical
    /// key order.
    pub bound: Vec<(AttrId, usize)>,
    /// Key attributes of the view that are *not* columns of the scanned
    /// relation (extra attributes carried from deeper in the tree), as
    /// `(attr, position within the view's key tuple)`.
    pub extras: Vec<(AttrId, usize)>,
    /// Positions of the bound attributes within the view's key tuple.
    pub bound_positions: Vec<usize>,
    /// Depth of the attribute order at which all bound attributes are fixed
    /// (0 = before the outermost loop).
    pub probe_depth: usize,
}

impl IncomingPlan {
    /// True if the view carries extra key attributes.
    pub fn has_extras(&self) -> bool {
        !self.extras.is_empty()
    }
}

/// One product term of an output aggregate, lowered for execution.
#[derive(Debug, Clone)]
pub struct TermPlan {
    /// Slot of this term in the per-depth partial-product registers.
    pub slot: usize,
    /// Index of the term's local expression in [`GroupPlan::local_exprs`].
    pub local_expr: usize,
    /// References to aggregates of incoming views *with* extra keys,
    /// multiplied in the innermost combination loop.
    pub extra_refs: Vec<(usize, usize)>,
    /// Distinct incoming-plan indices appearing in `extra_refs` (the views
    /// whose entry lists the innermost loop iterates over).
    pub extra_views: Vec<usize>,
    /// Factors over attributes that are not columns of the scanned relation,
    /// evaluated against the current entry combination (plus bound values).
    pub extra_factors: Vec<ScalarFunction>,
}

/// An output aggregate: the terms contributing to one aggregate of a view.
#[derive(Debug, Clone)]
pub struct AggregatePlan {
    /// Index of the aggregate within the output view.
    pub index: usize,
    /// The lowered terms.
    pub terms: Vec<TermPlan>,
}

/// Plan for one output view of the group.
#[derive(Debug, Clone)]
pub struct OutputPlan {
    /// The view being produced.
    pub view: ViewId,
    /// Group-by attributes in the view's canonical order.
    pub key_attrs: Vec<AttrId>,
    /// Where each key component comes from.
    pub key_sources: Vec<KeySource>,
    /// True if any key component is a non-join relation column (per-row path).
    pub needs_row_loop: bool,
    /// The depth whose binding fixes the output's key when every key part is
    /// a [`KeySource::BoundDepth`]: `1 +` the deepest such part, `0` for a
    /// scalar output. The scan then accumulates the output in a register row
    /// that is loaded once per binding of this depth and stored back when
    /// the binding ends. `None` when a key part is a
    /// [`KeySource::RowColumn`] or [`KeySource::Extra`]: such keys change
    /// inside the innermost loop, so each contribution is added to its entry
    /// directly.
    pub register_depth: Option<usize>,
    /// The aggregates to compute.
    pub aggregates: Vec<AggregatePlan>,
}

/// A register update applied at a given depth of the attribute order.
#[derive(Debug, Clone)]
pub enum DepthUpdate {
    /// Multiply `slot` by a factor evaluated on the bound join-attribute
    /// values.
    Factor {
        /// Register slot to update.
        slot: usize,
        /// The factor; its attributes are all bound at this depth.
        factor: ScalarFunction,
    },
    /// Multiply `slot` by aggregate `agg` of incoming view `incoming`
    /// (which has no extra keys and was probed at this depth).
    ScalarView {
        /// Register slot to update.
        slot: usize,
        /// Index into [`GroupPlan::incoming`].
        incoming: usize,
        /// Aggregate index within the incoming view.
        agg: usize,
    },
    /// Multiply `slot` by a constant (applied at depth 0).
    Constant {
        /// Register slot to update.
        slot: usize,
        /// The constant.
        value: f64,
    },
}

/// A local expression: a product of factors over non-join columns of the
/// scanned relation, summed over the rows of the innermost range. The empty
/// product is the tuple count.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalExpr {
    /// The factors of the product (possibly empty = COUNT).
    pub factors: Vec<ScalarFunction>,
}

/// The physical plan of one view group.
#[derive(Debug, Clone)]
pub struct GroupPlan {
    /// The join-tree node whose relation the group scans.
    pub node: usize,
    /// Name of the scanned relation.
    pub relation: String,
    /// Column positions of the attribute order within the scanned relation.
    pub attr_order_cols: Vec<usize>,
    /// The attribute order (join attributes, ascending domain size).
    pub attr_order: Vec<AttrId>,
    /// Incoming views consumed by the group.
    pub incoming: Vec<IncomingPlan>,
    /// Output views produced by the group.
    pub outputs: Vec<OutputPlan>,
    /// Deduplicated local expressions.
    pub local_exprs: Vec<LocalExpr>,
    /// Register updates per depth (`programs[d]` applies when the `d`-th
    /// attribute gets bound; `programs[0]` applies once before the scan).
    pub programs: Vec<Vec<DepthUpdate>>,
    /// Total number of term slots.
    pub num_slots: usize,
    /// Whether the scan lowers the local factors against the relation's typed
    /// columns ([`EngineConfig::specialization`](crate::config::EngineConfig)).
    /// [`build_group_plan`] leaves it on; preparing a batch copies the
    /// configuration's flag here, so every scan of the plan — fresh,
    /// serving, commit — evaluates its factors the same way.
    pub(crate) specialized: bool,
}

impl GroupPlan {
    /// Number of trie levels of the scan.
    pub fn depth(&self) -> usize {
        self.attr_order.len()
    }
}

/// Computes the attribute order of a node: its join attributes (attributes
/// shared with any neighbor), ordered by ascending domain size in the node's
/// relation (Section 3.5 "join attribute order").
pub fn attribute_order(db: &Database, tree: &JoinTree, node: usize) -> Vec<AttrId> {
    let name = &tree.node(node).relation;
    let mut attrs = tree.node_join_attrs(node);
    attrs.sort_by_key(|a| db.domain_size(name, *a));
    attrs
}

/// Sorts every relation of the database by its node's attribute order so
/// trie scans are valid. Must be called once before execution.
pub fn prepare_database(db: &mut Database, tree: &JoinTree) {
    for node in 0..tree.num_nodes() {
        let order = attribute_order(db, tree, node);
        // A missing relation surfaces when the batch is planned.
        let _ = db.sort_relation(&tree.node(node).relation, &order);
    }
}

/// Builds the physical plan of a view group.
pub fn build_group_plan(
    db: &Database,
    tree: &JoinTree,
    catalog: &ViewCatalog,
    group: &ViewGroup,
) -> Result<GroupPlan, EngineError> {
    let node = group.node;
    let relation_name = tree.node(node).relation.clone();
    let relation = db
        .relation(&relation_name)
        .map_err(|_| EngineError::UnknownRelation(relation_name.clone()))?;

    let attr_order = attribute_order(db, tree, node);
    let attr_order_cols: Vec<usize> = attr_order
        .iter()
        .map(|a| {
            relation.position(*a).ok_or_else(|| {
                EngineError::InvalidPlan(format!(
                    "join attribute {a:?} is not a column of relation `{relation_name}`"
                ))
            })
        })
        .collect::<Result<_, _>>()?;

    let mut plan = GroupPlan {
        node,
        relation: relation_name,
        attr_order_cols,
        attr_order: attr_order.clone(),
        incoming: Vec::new(),
        outputs: Vec::new(),
        local_exprs: Vec::new(),
        programs: vec![Vec::new(); attr_order.len() + 1],
        num_slots: 0,
        specialized: true,
    };

    // Collect the distinct incoming views across all views of the group.
    let mut incoming_ids: Vec<ViewId> = Vec::new();
    for &v in &group.views {
        for dep in catalog.view(v).dependencies() {
            if !incoming_ids.contains(&dep) {
                incoming_ids.push(dep);
            }
        }
    }
    for &vid in &incoming_ids {
        plan.incoming.push(build_incoming_plan(
            catalog.view(vid),
            relation,
            &attr_order,
        ));
    }

    // Lower every output view.
    for &vid in &group.views {
        let def = catalog.view(vid);
        let output = lower_output(
            def,
            relation,
            &attr_order,
            &incoming_ids,
            catalog,
            &mut plan,
        );
        plan.outputs.push(output);
    }

    Ok(plan)
}

fn build_incoming_plan(def: &ViewDef, relation: &Relation, attr_order: &[AttrId]) -> IncomingPlan {
    let mut bound = Vec::new();
    let mut bound_positions = Vec::new();
    let mut extras = Vec::new();
    for (pos, &attr) in def.group_by.iter().enumerate() {
        match relation.position(attr) {
            Some(col) => {
                bound.push((attr, col));
                bound_positions.push(pos);
            }
            None => extras.push((attr, pos)),
        }
    }
    let probe_depth = bound
        .iter()
        .map(|(a, _)| {
            attr_order
                .iter()
                .position(|x| x == a)
                .map(|p| p + 1)
                // A bound attribute that is not a join attribute of the node
                // can only be resolved per row; treat it as the deepest depth
                // (its value is constant within the innermost range only if it
                // is functionally determined by the join attributes, which
                // holds for the keys produced by the pushdown layer).
                .unwrap_or(attr_order.len())
        })
        .max()
        .unwrap_or(0);
    IncomingPlan {
        view: def.id,
        bound,
        extras,
        bound_positions,
        probe_depth,
    }
}

fn lower_output(
    def: &ViewDef,
    relation: &Relation,
    attr_order: &[AttrId],
    incoming_ids: &[ViewId],
    catalog: &ViewCatalog,
    plan: &mut GroupPlan,
) -> OutputPlan {
    // Key sources.
    let mut key_sources = Vec::with_capacity(def.group_by.len());
    let mut needs_row_loop = false;
    for &attr in &def.group_by {
        if let Some(depth) = attr_order.iter().position(|a| *a == attr) {
            key_sources.push(KeySource::BoundDepth(depth));
        } else if let Some(col) = relation.position(attr) {
            key_sources.push(KeySource::RowColumn(col));
            needs_row_loop = true;
        } else {
            key_sources.push(KeySource::Extra(attr));
        }
    }

    let mut aggregates = Vec::with_capacity(def.aggregates.len());
    for (agg_idx, agg) in def.aggregates.iter().enumerate() {
        let mut terms = Vec::with_capacity(agg.terms.len());
        for term in &agg.terms {
            terms.push(lower_term(
                term,
                relation,
                attr_order,
                incoming_ids,
                catalog,
                plan,
            ));
        }
        aggregates.push(AggregatePlan {
            index: agg_idx,
            terms,
        });
    }

    let register_depth = key_sources.iter().try_fold(0, |deepest, src| match src {
        KeySource::BoundDepth(d) => Some(deepest.max(d + 1)),
        KeySource::RowColumn(_) | KeySource::Extra(_) => None,
    });

    OutputPlan {
        view: def.id,
        key_attrs: def.group_by.clone(),
        key_sources,
        needs_row_loop,
        register_depth,
        aggregates,
    }
}

fn lower_term(
    term: &crate::view::ViewTerm,
    relation: &Relation,
    attr_order: &[AttrId],
    incoming_ids: &[ViewId],
    catalog: &ViewCatalog,
    plan: &mut GroupPlan,
) -> TermPlan {
    let slot = plan.num_slots;
    plan.num_slots += 1;

    if term.constant != 1.0 {
        plan.programs[0].push(DepthUpdate::Constant {
            slot,
            value: term.constant,
        });
    }

    // Classify local factors.
    let mut local_factors: Vec<ScalarFunction> = Vec::new();
    let mut extra_factors: Vec<ScalarFunction> = Vec::new();
    for f in &term.local {
        let attrs = f.attrs();
        let all_in_relation = attrs.iter().all(|a| relation.position(*a).is_some());
        if all_in_relation {
            let depths: Option<Vec<usize>> = attrs
                .iter()
                .map(|a| attr_order.iter().position(|x| x == a))
                .collect();
            match depths {
                Some(ds) if !attrs.is_empty() => {
                    // Factor over join attributes only: registered at the
                    // deepest of the attributes' depths.
                    let depth = ds.into_iter().max().unwrap() + 1;
                    plan.programs[depth].push(DepthUpdate::Factor {
                        slot,
                        factor: f.clone(),
                    });
                }
                _ => local_factors.push(f.clone()),
            }
        } else {
            extra_factors.push(f.clone());
        }
    }

    // Local expression (deduplicated across the whole group).
    let local_expr = intern_local_expr(
        plan,
        LocalExpr {
            factors: local_factors,
        },
    );

    // Child references.
    let mut extra_refs = Vec::new();
    let mut extra_views = Vec::new();
    for &(child, agg_idx) in &term.child_refs {
        let incoming_idx = incoming_ids
            .iter()
            .position(|v| *v == child)
            .expect("child view must be an incoming view of the group");
        let child_def = catalog.view(child);
        let has_extras = child_def
            .group_by
            .iter()
            .any(|a| relation.position(*a).is_none());
        if has_extras {
            extra_refs.push((incoming_idx, agg_idx));
            if !extra_views.contains(&incoming_idx) {
                extra_views.push(incoming_idx);
            }
        } else {
            let depth = plan.incoming[incoming_idx].probe_depth;
            plan.programs[depth].push(DepthUpdate::ScalarView {
                slot,
                incoming: incoming_idx,
                agg: agg_idx,
            });
        }
    }

    TermPlan {
        slot,
        local_expr,
        extra_refs,
        extra_views,
        extra_factors,
    }
}

fn intern_local_expr(plan: &mut GroupPlan, expr: LocalExpr) -> usize {
    if let Some(idx) = plan.local_exprs.iter().position(|e| *e == expr) {
        return idx;
    }
    plan.local_exprs.push(expr);
    plan.local_exprs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::group::group_views;
    use crate::pushdown::push_down_batch;
    use crate::roots::assign_roots;
    use lmfao_data::{AttrType, DatabaseSchema, RelationSchema, Value};
    use lmfao_expr::{Aggregate, QueryBatch};
    use lmfao_jointree::{build_join_tree, Hypergraph};

    fn db_and_tree() -> (Database, JoinTree) {
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs(
            "Sales",
            &[
                ("store", AttrType::Int),
                ("item", AttrType::Int),
                ("units", AttrType::Double),
            ],
        );
        schema.add_relation_with_attrs(
            "Items",
            &[("item", AttrType::Int), ("price", AttrType::Double)],
        );
        let store = schema.attr_id("store").unwrap();
        let item = schema.attr_id("item").unwrap();
        let units = schema.attr_id("units").unwrap();
        let price = schema.attr_id("price").unwrap();
        let sales = lmfao_data::Relation::from_rows(
            RelationSchema::new("Sales", vec![store, item, units]),
            vec![
                vec![Value::Int(1), Value::Int(1), Value::Double(3.0)],
                vec![Value::Int(1), Value::Int(2), Value::Double(4.0)],
                vec![Value::Int(2), Value::Int(1), Value::Double(5.0)],
            ],
        )
        .unwrap();
        let items = lmfao_data::Relation::from_rows(
            RelationSchema::new("Items", vec![item, price]),
            vec![
                vec![Value::Int(1), Value::Double(10.0)],
                vec![Value::Int(2), Value::Double(20.0)],
            ],
        )
        .unwrap();
        let db = Database::new(schema.clone(), vec![sales, items]).unwrap();
        let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
        (db, tree)
    }

    fn plans_for(batch: &QueryBatch, db: &mut Database, tree: &JoinTree) -> Vec<GroupPlan> {
        let cfg = EngineConfig::default();
        let roots = assign_roots(batch, tree, db, &cfg);
        let pd = push_down_batch(batch, tree, &roots);
        let grouping = group_views(&pd.catalog, true);
        prepare_database(db, tree);
        grouping
            .groups
            .iter()
            .map(|g| build_group_plan(db, tree, &pd.catalog, g).unwrap())
            .collect()
    }

    #[test]
    fn attribute_order_is_ascending_domain_size() {
        let (mut db, tree) = db_and_tree();
        prepare_database(&mut db, &tree);
        let sales = tree.node_of_relation("Sales").unwrap();
        let order = attribute_order(&db, &tree, sales);
        // Only `item` is a join attribute of Sales in this two-relation schema.
        assert_eq!(order.len(), 1);
        assert_eq!(db.schema().attr_name(order[0]), "item");
        // Relation is sorted accordingly.
        let rel = db.relation("Sales").unwrap();
        let item_col = rel.position(order[0]).unwrap();
        assert!(rel.is_sorted_by(&[item_col]));
    }

    #[test]
    fn covar_style_plan_has_shared_local_exprs() {
        let (mut db, tree) = db_and_tree();
        let units = db.schema().attr_id("units").unwrap();
        let price = db.schema().attr_id("price").unwrap();
        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push("sum_units", vec![], vec![Aggregate::sum(units)]);
        batch.push("sum_units_sq", vec![], vec![Aggregate::sum_square(units)]);
        batch.push(
            "sum_units_price",
            vec![],
            vec![Aggregate::sum_product(units, price)],
        );
        let plans = plans_for(&batch, &mut db, &tree);
        // The Sales-rooted group computes all four queries in one scan.
        let sales_plan = plans
            .iter()
            .find(|p| {
                p.relation == "Sales"
                    && !p.outputs.is_empty()
                    && p.outputs.iter().any(|o| o.key_attrs.is_empty())
            })
            .expect("sales output group");
        // Local expressions: count (empty), units, units^2 — deduplicated.
        assert!(sales_plan.local_exprs.len() <= 4);
        assert!(sales_plan.local_exprs.iter().any(|e| e.factors.is_empty()));
        // Slots: one per term across outputs.
        assert!(sales_plan.num_slots >= 4);
    }

    #[test]
    fn incoming_view_without_extras_registers_at_probe_depth() {
        let (mut db, tree) = db_and_tree();
        let units = db.schema().attr_id("units").unwrap();
        let price = db.schema().attr_id("price").unwrap();
        let mut batch = QueryBatch::new();
        batch.push("q", vec![], vec![Aggregate::sum_product(units, price)]);
        let plans = plans_for(&batch, &mut db, &tree);
        let root_plan = plans
            .iter()
            .find(|p| p.outputs.iter().any(|o| o.key_attrs.is_empty()))
            .unwrap();
        assert_eq!(root_plan.incoming.len(), 1);
        let inc = &root_plan.incoming[0];
        assert!(!inc.has_extras());
        // Items view is keyed by `item`, the single join attribute → depth 1.
        assert_eq!(inc.probe_depth, 1);
        // The program at depth 1 multiplies the slot by the probed aggregate.
        assert!(root_plan.programs[1]
            .iter()
            .any(|u| matches!(u, DepthUpdate::ScalarView { .. })));
    }

    #[test]
    fn group_by_on_dimension_attr_yields_extra_key_source() {
        let (mut db, tree) = db_and_tree();
        let price = db.schema().attr_id("price").unwrap();
        let mut batch = QueryBatch::new();
        // Group by price (an Items attribute); force root to Sales by keeping
        // multi_root on: price only lives in Items so the root will be Items
        // and no extra key arises. Use single-root=Sales instead.
        batch.push("by_price", vec![price], vec![Aggregate::count()]);
        batch.push("count", vec![], vec![Aggregate::count()]);
        let cfg = EngineConfig {
            multi_root: false,
            ..EngineConfig::default()
        };
        let roots = assign_roots(&batch, &tree, &db, &cfg);
        let pd = push_down_batch(&batch, &tree, &roots);
        let grouping = group_views(&pd.catalog, true);
        prepare_database(&mut db, &tree);
        let plans: Vec<GroupPlan> = grouping
            .groups
            .iter()
            .map(|g| build_group_plan(&db, &tree, &pd.catalog, g).unwrap())
            .collect();
        // If the shared root is Sales, the by_price output at Sales must read
        // its key from the incoming Items view (Extra source).
        let sales = tree.node_of_relation("Sales").unwrap();
        if roots.root_of(0) == sales {
            let extra_keyed: Vec<&OutputPlan> = plans
                .iter()
                .flat_map(|p| &p.outputs)
                .filter(|o| {
                    o.key_sources
                        .iter()
                        .any(|k| matches!(k, KeySource::Extra(a) if *a == price))
                })
                .collect();
            assert!(!extra_keyed.is_empty());
            // An extra key part changes inside the innermost loop: no
            // output register.
            assert!(extra_keyed.iter().all(|o| o.register_depth.is_none()));
        }
    }

    #[test]
    fn register_depth_is_one_past_the_deepest_bound_key_part() {
        let (mut db, tree) = db_and_tree();
        let item = db.schema().attr_id("item").unwrap();
        let units = db.schema().attr_id("units").unwrap();
        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push("per_item", vec![item], vec![Aggregate::sum(units)]);
        batch.push("by_units", vec![units], vec![Aggregate::count()]);
        let plans = plans_for(&batch, &mut db, &tree);
        let outputs: Vec<&OutputPlan> = plans.iter().flat_map(|p| &p.outputs).collect();
        let registers_of = |key: &[AttrId]| -> Vec<Option<usize>> {
            outputs
                .iter()
                .filter(|o| o.key_attrs == key)
                .map(|o| o.register_depth)
                .collect()
        };
        // Scalar outputs: registers for the whole scan.
        assert!(!registers_of(&[]).is_empty());
        assert!(registers_of(&[]).iter().all(|d| *d == Some(0)));
        // `item` is depth 0 of both relations' attribute order.
        assert!(!registers_of(&[item]).is_empty());
        assert!(registers_of(&[item]).iter().all(|d| *d == Some(1)));
        // A non-join column of Sales is a row-column key: no register.
        assert_eq!(registers_of(&[units]), [None]);
    }

    #[test]
    fn row_column_keys_are_detected() {
        let (mut db, tree) = db_and_tree();
        let units = db.schema().attr_id("units").unwrap();
        let mut batch = QueryBatch::new();
        // Group by a non-join attribute of Sales.
        batch.push("by_units", vec![units], vec![Aggregate::count()]);
        let plans = plans_for(&batch, &mut db, &tree);
        let found = plans.iter().any(|p| {
            p.outputs.iter().any(|o| {
                o.needs_row_loop
                    && o.key_sources
                        .iter()
                        .any(|k| matches!(k, KeySource::RowColumn(_)))
            })
        });
        assert!(found);
    }

    #[test]
    fn prepare_database_sorts_all_nodes() {
        let (mut db, tree) = db_and_tree();
        prepare_database(&mut db, &tree);
        for node in 0..tree.num_nodes() {
            let name = &tree.node(node).relation;
            let order = attribute_order(&db, &tree, node);
            let rel = db.relation(name).unwrap();
            let cols: Vec<usize> = order.iter().map(|a| rel.position(*a).unwrap()).collect();
            assert!(rel.is_sorted_by(&cols));
        }
    }
}
