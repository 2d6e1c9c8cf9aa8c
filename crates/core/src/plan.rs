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
//! **The plan resolves every attribute a scan reads.** Like the generated
//! code of Figure 4, which reads each value from a fixed variable, the scan
//! never looks an attribute up: [`build_group_plan`] decides once where each
//! one comes from ([`KeySource`]) — a depth of the attribute order, a column
//! of the scanned relation, or a key position of an incoming-view entry in
//! the term's combination — for every view probe, factor and output key.
//! Every factor evaluated outside the typed local loops is stored as a
//! [`ResolvedFactor`], whose arguments are indices into that decision. A
//! factor spanning relations ([`TermPlan::extra_factors`]) that reads a
//! column of the scanned relation is evaluated per row of the innermost
//! range ([`TermPlan::row_factors`]). A plan that would read an attribute
//! from nowhere — an incoming view bound on a column outside the attribute
//! order, or a key part or factor argument no view of the term carries — is
//! [`EngineError::InvalidPlan`].
//!
//! This module only *builds* the plans; execution lives in [`crate::exec`].

use crate::error::EngineError;
use crate::group::ViewGroup;
use crate::view::{ViewCatalog, ViewDef, ViewId, ViewTerm};
use lmfao_data::{AttrId, Database, Relation};
use lmfao_expr::ScalarFunction;
use lmfao_jointree::JoinTree;

/// Where a scan reads the value of an attribute: a part of an output key, or
/// an argument of a factor of a term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeySource {
    /// A join attribute of the scanned relation, bound at the given depth of
    /// the attribute order.
    BoundDepth(usize),
    /// A non-join column of the scanned relation, read from the current row:
    /// a term that reads one is emitted per row ([`TermPlan::per_row`]).
    RowColumn(usize),
    /// An attribute carried by an incoming view's extra key: position `pos`
    /// of the key of the entry that the term's `view`-th extra view
    /// ([`TermPlan::extra_views`]) contributes to the current combination —
    /// the first of them that carries the attribute.
    Extra {
        /// Index into the term's [`TermPlan::extra_views`].
        view: usize,
        /// Position within that view's key tuple.
        pos: usize,
    },
}

/// A factor whose attributes the planner resolved: `factor` reads its `i`-th
/// attribute occurrence as `AttrId(i)`, whose value comes from `args[i]` —
/// a depth, a column position or a [`KeySource`], by where it is evaluated.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedFactor<S> {
    /// The factor, over argument indices.
    pub factor: ScalarFunction,
    /// Where each argument is read.
    pub args: Vec<S>,
}

/// Resolves `factor`'s attributes through `source`; `None` when one of them
/// has no source.
pub(crate) fn resolve<S>(
    factor: &ScalarFunction,
    source: impl FnMut(AttrId) -> Option<S>,
) -> Option<ResolvedFactor<S>> {
    use ScalarFunction as F;
    let args = factor
        .attrs()
        .into_iter()
        .map(source)
        .collect::<Option<_>>()?;
    let mut factor = factor.clone();
    let attrs: Vec<&mut AttrId> = match &mut factor {
        F::Constant(_) => vec![],
        F::Identity(a)
        | F::Log(a)
        | F::Power { attr: a, .. }
        | F::Indicator { attr: a, .. }
        | F::InSet { attr: a, .. } => vec![a],
        F::ExpLinear { coefficients } => coefficients.iter_mut().map(|(a, _)| a).collect(),
        F::Dynamic { attrs, .. } => attrs.iter_mut().collect(),
    };
    for (i, a) in attrs.into_iter().enumerate() {
        *a = AttrId(i as u32);
    }
    Some(ResolvedFactor { factor, args })
}

/// Plan for one incoming view consumed by the group.
#[derive(Debug, Clone)]
pub struct IncomingPlan {
    /// The incoming view.
    pub view: ViewId,
    /// The depths of the attribute order that bind the view's key attributes
    /// that are columns of the scanned relation, in the view's canonical key
    /// order: the probe key. Each is a join attribute of the node.
    pub bound: Vec<usize>,
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
    /// multiplied in the innermost combination loop, as `(view, aggregate)`:
    /// `view` indexes [`TermPlan::extra_views`].
    pub extra_refs: Vec<(usize, usize)>,
    /// Distinct incoming-plan indices appearing in `extra_refs` (the views
    /// whose entry lists the innermost loop iterates over); an entry
    /// combination holds one entry of each, in this order.
    pub extra_views: Vec<usize>,
    /// Where each part of the output's key is read for this term.
    pub key: Vec<KeySource>,
    /// Factors over attributes that are not all columns of the scanned
    /// relation and that read no [`KeySource::RowColumn`]: evaluated once per
    /// entry combination.
    pub extra_factors: Vec<ResolvedFactor<KeySource>>,
    /// The term's other factors over such attributes, which read a
    /// [`KeySource::RowColumn`]: evaluated per row of the innermost range,
    /// after the local factors.
    pub row_factors: Vec<ResolvedFactor<KeySource>>,
    /// True if the term is emitted per row of the innermost range: a key
    /// part is a [`KeySource::RowColumn`], or a row factor reads one.
    pub per_row: bool,
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
    /// The depth whose binding fixes the output's key when every key part is
    /// a join attribute: `1 +` the deepest such part's depth, `0` for a
    /// scalar output. The scan then accumulates the output in a register row
    /// that is loaded once per binding of this depth and stored back when
    /// the binding ends. `None` when a key part is a non-join column or an
    /// extra attribute: such keys change inside the innermost loop, so each
    /// contribution is added to its entry directly.
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
        /// The factor; its arguments are depths of the attribute order, all
        /// bound at this depth.
        factor: ResolvedFactor<usize>,
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
    /// The factors of the product (possibly empty = COUNT), indicators first
    /// and each class in source order, so a product is abandoned at a
    /// rejected row before its measures are read. Their arguments are column
    /// positions of the scanned relation.
    pub factors: Vec<ResolvedFactor<usize>>,
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
    /// `registers_at[d]`: the outputs whose register depth is `d`, whose
    /// register rows are stored back when a binding of depth `d` ends.
    pub registers_at: Vec<Vec<usize>>,
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
        registers_at: vec![Vec::new(); attr_order.len() + 1],
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
        let incoming = build_incoming_plan(catalog.view(vid), relation, &attr_order)?;
        plan.incoming.push(incoming);
    }

    // Lower every output view.
    for &vid in &group.views {
        let output = lower_output(catalog.view(vid), relation, &incoming_ids, &mut plan)?;
        if let Some(depth) = output.register_depth {
            plan.registers_at[depth].push(plan.outputs.len());
        }
        plan.outputs.push(output);
    }

    Ok(plan)
}

fn build_incoming_plan(
    def: &ViewDef,
    relation: &Relation,
    attr_order: &[AttrId],
) -> Result<IncomingPlan, EngineError> {
    let mut bound = Vec::new();
    let mut bound_positions = Vec::new();
    let mut extras = Vec::new();
    for (pos, &attr) in def.group_by.iter().enumerate() {
        if relation.position(attr).is_none() {
            extras.push((attr, pos));
            continue;
        }
        // A probe key is read from the bindings of the attribute order; the
        // pushdown layer keys a view only by join attributes of its target
        // (running intersection), so another column is a malformed catalog.
        let depth = attr_order.iter().position(|a| *a == attr).ok_or_else(|| {
            EngineError::InvalidPlan(format!(
                "incoming view {:?} is keyed by {attr:?}, a column of `{}` outside its attribute order",
                def.id,
                relation.name()
            ))
        })?;
        bound.push(depth);
        bound_positions.push(pos);
    }
    Ok(IncomingPlan {
        view: def.id,
        probe_depth: bound.iter().max().map_or(0, |d| d + 1),
        bound,
        extras,
        bound_positions,
    })
}

fn lower_output(
    def: &ViewDef,
    relation: &Relation,
    incoming_ids: &[ViewId],
    plan: &mut GroupPlan,
) -> Result<OutputPlan, EngineError> {
    let mut aggregates = Vec::with_capacity(def.aggregates.len());
    for (agg_idx, agg) in def.aggregates.iter().enumerate() {
        let mut terms = Vec::with_capacity(agg.terms.len());
        for term in &agg.terms {
            terms.push(lower_term(def, term, relation, incoming_ids, plan)?);
        }
        aggregates.push(AggregatePlan {
            index: agg_idx,
            terms,
        });
    }

    let register_depth = def.group_by.iter().try_fold(0, |deepest, attr| {
        let depth = plan.attr_order.iter().position(|a| a == attr)?;
        Some(deepest.max(depth + 1))
    });

    Ok(OutputPlan {
        view: def.id,
        key_attrs: def.group_by.clone(),
        register_depth,
        aggregates,
    })
}

fn lower_term(
    def: &ViewDef,
    term: &ViewTerm,
    relation: &Relation,
    incoming_ids: &[ViewId],
    plan: &mut GroupPlan,
) -> Result<TermPlan, EngineError> {
    let slot = plan.num_slots;
    plan.num_slots += 1;

    if term.constant != 1.0 {
        plan.programs[0].push(DepthUpdate::Constant {
            slot,
            value: term.constant,
        });
    }

    // Child references: views with extra keys join the combination loop,
    // the others are probed at their depth — after the term's factors, the
    // order in which the depth programs multiply them.
    let mut extra_refs = Vec::new();
    let mut extra_views = Vec::new();
    let mut probed = Vec::new();
    for &(child, agg) in &term.child_refs {
        let incoming = incoming_ids
            .iter()
            .position(|v| *v == child)
            .expect("child view must be an incoming view of the group");
        let inc = &plan.incoming[incoming];
        if !inc.has_extras() {
            let update = DepthUpdate::ScalarView {
                slot,
                incoming,
                agg,
            };
            probed.push((inc.probe_depth, update));
            continue;
        }
        let view = extra_views
            .iter()
            .position(|&v| v == incoming)
            .unwrap_or_else(|| {
                extra_views.push(incoming);
                extra_views.len() - 1
            });
        extra_refs.push((view, agg));
    }
    // Where the term reads `attr`: the scan's binding or row, else the first
    // of its extra views that carries it.
    let source = |attr: AttrId| {
        if let Some(depth) = plan.attr_order.iter().position(|a| *a == attr) {
            return Some(KeySource::BoundDepth(depth));
        }
        if let Some(col) = relation.position(attr) {
            return Some(KeySource::RowColumn(col));
        }
        extra_views.iter().enumerate().find_map(|(view, &inc)| {
            let extras = &plan.incoming[inc].extras;
            let &(_, pos) = extras.iter().find(|(a, _)| *a == attr)?;
            Some(KeySource::Extra { view, pos })
        })
    };
    let unresolved = |what: String| {
        EngineError::InvalidPlan(format!(
            "{what} of view {:?} reads an attribute that is neither a column of `{}` \
             nor carried by an incoming view of its term",
            def.id,
            relation.name()
        ))
    };
    let reads_row = |args: &[KeySource]| args.iter().any(|s| matches!(s, KeySource::RowColumn(_)));

    // Classify the factors: over join attributes only (registered at the
    // deepest of their depths), over columns of the relation (the local
    // expression), or spanning relations (the combination loop).
    let mut local = Vec::new();
    let mut extra_factors = Vec::new();
    let mut row_factors = Vec::new();
    for f in &term.local {
        let on_depths = resolve(f, |a| plan.attr_order.iter().position(|x| *x == a));
        if let Some(factor) = on_depths.filter(|r| !r.args.is_empty()) {
            let depth = factor.args.iter().max().map_or(0, |d| d + 1);
            plan.programs[depth].push(DepthUpdate::Factor { slot, factor });
        } else if let Some(factor) = resolve(f, |a| relation.position(a)) {
            local.push(factor);
        } else {
            let factor = resolve(f, source).ok_or_else(|| unresolved(format!("factor {f:?}")))?;
            if reads_row(&factor.args) {
                row_factors.push(factor);
            } else {
                extra_factors.push(factor);
            }
        }
    }
    for (depth, update) in probed {
        plan.programs[depth].push(update);
    }
    let key: Option<Vec<_>> = def.group_by.iter().map(|&a| source(a)).collect();
    let key = key.ok_or_else(|| unresolved("the key".to_string()))?;
    let per_row = !row_factors.is_empty() || reads_row(&key);

    // Indicators first (see `LocalExpr::factors`); the sort is stable.
    local.sort_by_key(|f| !matches!(f.factor, ScalarFunction::Indicator { .. }));
    let local_expr = intern_local_expr(plan, LocalExpr { factors: local });

    Ok(TermPlan {
        slot,
        local_expr,
        extra_refs,
        extra_views,
        key,
        extra_factors,
        row_factors,
        per_row,
    })
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
            let mut extra_keyed = Vec::new();
            for plan in &plans {
                for output in plan.outputs.iter().filter(|o| o.key_attrs == [price]) {
                    for term in output.aggregates.iter().flat_map(|g| &g.terms) {
                        let [KeySource::Extra { view, pos }] = term.key[..] else {
                            panic!("{:?} is not one extra part", term.key);
                        };
                        let inc = &plan.incoming[term.extra_views[view]];
                        assert!(inc.extras.contains(&(price, pos)));
                    }
                    extra_keyed.push(output);
                }
            }
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
        let terms: Vec<&TermPlan> = plans
            .iter()
            .flat_map(|p| &p.outputs)
            .filter(|o| o.key_attrs == [units])
            .flat_map(|o| o.aggregates.iter().flat_map(|g| &g.terms))
            .collect();
        assert!(!terms.is_empty());
        for term in terms {
            assert!(term.per_row);
            assert!(matches!(term.key[..], [KeySource::RowColumn(_)]));
        }
    }

    /// A one-group catalog at Sales: the output `root` (keyed by `key`, one
    /// term with the `local` factors times the count of `child`) over one
    /// incoming view from Items keyed by `child`. Planned at Sales, whose
    /// attribute order is `[item]`.
    fn hand_built_plan(
        key: Vec<AttrId>,
        local: Vec<ScalarFunction>,
        child: Vec<AttrId>,
    ) -> Result<GroupPlan, EngineError> {
        let (mut db, tree) = db_and_tree();
        prepare_database(&mut db, &tree);
        let sales = tree.node_of_relation("Sales").unwrap();
        let items = tree.node_of_relation("Items").unwrap();
        let mut catalog = ViewCatalog::new();
        let incoming = catalog.get_or_create(items, Some(sales), child);
        catalog.add_aggregate(incoming, crate::view::ViewAggregate::count());
        let root = catalog.get_or_create(sales, None, key);
        let term = ViewTerm {
            constant: 1.0,
            local,
            child_refs: vec![(incoming, 0)],
        };
        catalog.add_aggregate(root, crate::view::ViewAggregate::single(term));
        let group = ViewGroup {
            id: 0,
            node: sales,
            stage: 1,
            views: vec![root],
        };
        build_group_plan(&db, &tree, &catalog, &group)
    }

    fn assert_invalid_plan(plan: Result<GroupPlan, EngineError>, what: &str) {
        match plan {
            Err(EngineError::InvalidPlan(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected an invalid plan naming {what:?}, got {other:?}"),
        }
    }

    #[test]
    fn an_incoming_view_bound_on_a_non_join_column_is_an_invalid_plan() {
        let (db, _) = db_and_tree();
        let attr = |n: &str| db.schema().attr_id(n).unwrap();
        // The well-formed shape plans: Items' view keyed by the join
        // attribute `item` is probed at depth 1.
        let plan = hand_built_plan(vec![], vec![], vec![attr("item")]).unwrap();
        assert_eq!(plan.incoming[0].bound, [0]);
        assert_eq!(plan.incoming[0].probe_depth, 1);
        // Keyed by `units`, a column of Sales outside its attribute order,
        // the view could only be probed with a value no binding holds.
        assert_invalid_plan(
            hand_built_plan(vec![], vec![], vec![attr("item"), attr("units")]),
            "outside its attribute order",
        );
    }

    #[test]
    fn an_extra_attribute_no_view_of_the_term_carries_is_an_invalid_plan() {
        let (db, _) = db_and_tree();
        let attr = |n: &str| db.schema().attr_id(n).unwrap();
        let (item, units, price) = (attr("item"), attr("units"), attr("price"));
        let exp = ScalarFunction::ExpLinear {
            coefficients: vec![(price, 1.0), (units, 1.0)],
        };
        // Carried by the incoming view, `price` resolves to its entry: the
        // key part, and the factor's first argument beside a row column.
        let plan = hand_built_plan(vec![price], vec![exp.clone()], vec![item, price]).unwrap();
        let term = &plan.outputs[0].aggregates[0].terms[0];
        let carried = KeySource::Extra { view: 0, pos: 1 };
        assert_eq!(term.key, [carried]);
        assert!(term.extra_factors.is_empty());
        assert_eq!(term.row_factors.len(), 1);
        assert_eq!(term.row_factors[0].args, [carried, KeySource::RowColumn(2)]);
        assert!(term.per_row);
        // Not carried, it is read from nowhere: as a key part, and as an
        // argument of a factor.
        assert_invalid_plan(
            hand_built_plan(vec![price], vec![], vec![item]),
            "the key of view",
        );
        assert_invalid_plan(
            hand_built_plan(vec![], vec![exp], vec![item]),
            "factor ExpLinear",
        );
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
