//! Directional views and their computed results.
//!
//! The Aggregate Pushdown layer decomposes every query of a batch into one
//! *directional view* per edge of the join tree (Section 3.2): a view flows
//! along an edge from a source node to a neighboring target node and is
//! defined over the relation at the source joined with the views incoming at
//! the source. Query outputs are modelled as views with no target, computed
//! at the query's root node.
//!
//! A view's aggregates are sums of [`ViewTerm`]s: products of scalar
//! functions over attributes available at the source node times references to
//! aggregates of incoming (child) views — the "partial products" the paper
//! pushes past joins. The [`ViewCatalog`] registry implements the Merge Views
//! layer: views with the same source, target and group-by attributes are
//! consolidated, and identical aggregates within a view are deduplicated.

use lmfao_data::{AttrId, FxHashMap, Value};
use lmfao_expr::{QueryId, ScalarFunction};
use std::sync::Arc;

/// Identifier of a view within a [`ViewCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewId(pub usize);

/// One product term of a view aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewTerm {
    /// Constant factor of the product.
    pub constant: f64,
    /// Factors over attributes available at the source node (its relation's
    /// attributes, or attributes carried up as extra keys of incoming views).
    pub local: Vec<ScalarFunction>,
    /// References to aggregates of incoming views: `(view, aggregate index)`.
    /// The referenced values multiply into the product. Every child of the
    /// source node (with respect to the view's orientation) contributes
    /// exactly one reference — at minimum its count aggregate — so that join
    /// (semijoin) semantics are preserved.
    pub child_refs: Vec<(ViewId, usize)>,
}

impl ViewTerm {
    /// A term that only counts matching tuples (no factors, no children).
    pub fn count() -> Self {
        ViewTerm {
            constant: 1.0,
            local: vec![],
            child_refs: vec![],
        }
    }
}

/// A view aggregate: a sum of [`ViewTerm`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewAggregate {
    /// The summed terms.
    pub terms: Vec<ViewTerm>,
}

impl ViewAggregate {
    /// The plain count aggregate.
    pub fn count() -> Self {
        ViewAggregate {
            terms: vec![ViewTerm::count()],
        }
    }

    /// An aggregate with a single term.
    pub fn single(term: ViewTerm) -> Self {
        ViewAggregate { terms: vec![term] }
    }
}

/// The definition of a directional view (or of a query output when `target`
/// is `None`).
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// Identifier within the catalog.
    pub id: ViewId,
    /// Join-tree node whose relation the view scans.
    pub source: usize,
    /// Join-tree node the view flows to; `None` for query outputs.
    pub target: Option<usize>,
    /// Group-by attributes of the view, in canonical (sorted) order.
    pub group_by: Vec<AttrId>,
    /// The view's aggregates.
    pub aggregates: Vec<ViewAggregate>,
    /// For query-output views, the queries whose results this view carries.
    pub queries: Vec<QueryId>,
}

impl ViewDef {
    /// All views this view directly depends on.
    pub fn dependencies(&self) -> Vec<ViewId> {
        let mut out = Vec::new();
        for agg in &self.aggregates {
            for term in &agg.terms {
                for &(v, _) in &term.child_refs {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
        }
        out
    }

    /// Number of aggregates of the view.
    pub fn num_aggregates(&self) -> usize {
        self.aggregates.len()
    }

    /// Whether this is a query-output view.
    pub fn is_output(&self) -> bool {
        self.target.is_none()
    }
}

/// The view registry built by the pushdown + merge layers.
///
/// Views are keyed by `(source, target, group_by)`: requesting a view with a
/// key that already exists returns the existing view, implementing the
/// paper's view merging (identical views are kept once; views with the same
/// group-by and body but different aggregates are merged by appending, with
/// per-view deduplication of identical aggregates).
#[derive(Debug, Clone, Default)]
pub struct ViewCatalog {
    views: Vec<ViewDef>,
    index: FxHashMap<(usize, Option<usize>, Vec<AttrId>), ViewId>,
}

impl ViewCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id of the view with the given source, target and group-by,
    /// creating it if necessary. The group-by is canonicalized (sorted).
    pub fn get_or_create(
        &mut self,
        source: usize,
        target: Option<usize>,
        mut group_by: Vec<AttrId>,
    ) -> ViewId {
        group_by.sort();
        group_by.dedup();
        let key = (source, target, group_by.clone());
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let id = ViewId(self.views.len());
        self.views.push(ViewDef {
            id,
            source,
            target,
            group_by,
            aggregates: vec![],
            queries: vec![],
        });
        self.index.insert(key, id);
        id
    }

    /// Adds an aggregate to a view, deduplicating identical aggregates.
    /// Returns the aggregate's index within the view.
    pub fn add_aggregate(&mut self, view: ViewId, aggregate: ViewAggregate) -> usize {
        let v = &mut self.views[view.0];
        if let Some(idx) = v.aggregates.iter().position(|a| *a == aggregate) {
            return idx;
        }
        v.aggregates.push(aggregate);
        v.aggregates.len() - 1
    }

    /// Records that a view carries the output of a query.
    pub fn tag_query(&mut self, view: ViewId, query: QueryId) {
        let v = &mut self.views[view.0];
        if !v.queries.contains(&query) {
            v.queries.push(query);
        }
    }

    /// A view definition by id.
    pub fn view(&self, id: ViewId) -> &ViewDef {
        &self.views[id.0]
    }

    /// All view definitions.
    pub fn views(&self) -> &[ViewDef] {
        &self.views
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True if the catalog holds no view.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Total number of aggregates across all views (the paper's "application
    /// plus intermediate aggregates" after consolidation).
    pub fn total_aggregates(&self) -> usize {
        self.views.iter().map(ViewDef::num_aggregates).sum()
    }

    /// A topological order of the views (dependencies first).
    pub fn topological_order(&self) -> Vec<ViewId> {
        let n = self.views.len();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for v in &self.views {
            for dep in v.dependencies() {
                indegree[v.id.0] += 1;
                dependents[dep.0].push(v.id.0);
            }
        }
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(ViewId(u));
            for &d in &dependents[u] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    queue.push_back(d);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "view dependency graph has a cycle");
        order
    }
}

/// The materialized result of a view: a map from group-by key to the vector
/// of aggregate values.
#[derive(Debug, Clone)]
pub struct ComputedView {
    /// Group-by attributes of the key, in the view's canonical order.
    pub key_attrs: Vec<AttrId>,
    /// Number of aggregates per entry.
    pub num_aggregates: usize,
    /// The data: key tuple → aggregate values.
    pub data: FxHashMap<Vec<Value>, Vec<f64>>,
}

impl ComputedView {
    /// Creates an empty computed view.
    pub fn new(key_attrs: Vec<AttrId>, num_aggregates: usize) -> Self {
        ComputedView {
            key_attrs,
            num_aggregates,
            data: FxHashMap::default(),
        }
    }

    /// Adds `values` into the entry for `key` (element-wise sum).
    pub fn add(&mut self, key: Vec<Value>, values: &[f64]) {
        debug_assert_eq!(values.len(), self.num_aggregates);
        let entry = self
            .data
            .entry(key)
            .or_insert_with(|| vec![0.0; self.num_aggregates]);
        for (e, v) in entry.iter_mut().zip(values) {
            *e += v;
        }
    }

    /// Adds a single aggregate value into the entry for `key`. The key is
    /// copied only when it is new: the map sees the same inserts, in the same
    /// order, as an `entry(key)` update would make.
    pub fn add_single(&mut self, key: &[Value], agg_idx: usize, value: f64) {
        match self.data.get_mut(key) {
            Some(entry) => entry[agg_idx] += value,
            None => {
                let mut entry = vec![0.0; self.num_aggregates];
                entry[agg_idx] += value;
                self.data.insert(key.to_vec(), entry);
            }
        }
    }

    /// The aggregate values for a key, if present.
    pub fn get(&self, key: &[Value]) -> Option<&[f64]> {
        self.data.get(key).map(Vec::as_slice)
    }

    /// For scalar views (no group-by), the aggregate values.
    pub fn scalar(&self) -> Option<&[f64]> {
        self.data.get(&Vec::new() as &Vec<Value>).map(Vec::as_slice)
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if no tuple was produced.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Approximate size of the view in bytes (keys plus aggregate payload).
    pub fn size_bytes(&self) -> usize {
        let key_width = self.key_attrs.len() * std::mem::size_of::<Value>();
        let agg_width = self.num_aggregates * std::mem::size_of::<f64>();
        self.data.len() * (key_width + agg_width)
    }

    /// Iterates over `(key, aggregate values)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<Value>, &Vec<f64>)> {
        self.data.iter()
    }

    /// Drains all `(key, aggregate values)` entries, leaving the view empty.
    /// The consuming counterpart of [`ComputedView::iter`]: folding
    /// domain-parallel partials through this moves the key tuples instead of
    /// cloning them.
    pub fn drain(&mut self) -> impl Iterator<Item = (Vec<Value>, Vec<f64>)> + '_ {
        self.data.drain()
    }

    /// Merges `other` into this view by element-wise addition, consuming it.
    /// Keys absent from `self` are moved, not cloned.
    pub fn merge_from(&mut self, mut other: ComputedView) {
        debug_assert_eq!(other.num_aggregates, self.num_aggregates);
        if self.data.is_empty() {
            self.data = std::mem::take(&mut other.data);
            return;
        }
        for (key, values) in other.drain() {
            match self.data.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (a, b) in e.get_mut().iter_mut().zip(&values) {
                        *a += b;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(values);
                }
            }
        }
    }

    /// Merges `delta` scaled by `sign` into this view (element-wise
    /// `self += sign · delta`). With `sign = 1.0` this is the additive merge
    /// of domain-parallel partials; with `sign = -1.0` it retracts a delta —
    /// the signed propagation the maintenance layer runs on.
    pub fn merge_signed(&mut self, delta: &ComputedView, sign: f64) {
        debug_assert_eq!(delta.num_aggregates, self.num_aggregates);
        for (key, values) in delta.iter() {
            let entry = self
                .data
                .entry(key.clone())
                .or_insert_with(|| vec![0.0; self.num_aggregates]);
            for (e, v) in entry.iter_mut().zip(values) {
                *e += sign * v;
            }
        }
    }

    /// Like [`ComputedView::merge_signed`], but snaps results that are zero
    /// up to float rounding back to exact zero: after `e += sign · v`, if
    /// `|e| ≤ rel_eps · |v|` (and `e ≠ 0`), `e` is set to `0.0`.
    ///
    /// This is the float-drift guard of long-lived maintained state. Exact
    /// cancellation (`(a + b) − b`) need not return a bit-exact zero in
    /// floats, so a long insert/delete stream that nets to zero can leave a
    /// residue of order `n · ulp` behind — and [`prune_zero_entries`], which
    /// is deliberately exact, would then never drop the dead key. A residue
    /// is distinguishable from a real value because it is tiny *relative to
    /// the delta that produced it*; a genuine surviving aggregate of that
    /// magnitude is below any sane float tolerance anyway. Integer-valued
    /// sums are **never** snapped: exact integer cancellation already yields
    /// a bit-exact zero (`e == 0.0` short-circuits), and a surviving
    /// integer-valued result (`e.fract() == 0.0`) is a genuine count or
    /// integer sum regardless of how large the delta that produced it was —
    /// snapping it would corrupt exact state to dodge a float artifact it
    /// cannot have.
    ///
    /// [`prune_zero_entries`]: ComputedView::prune_zero_entries
    pub fn merge_signed_snapped(&mut self, delta: &ComputedView, sign: f64, rel_eps: f64) {
        debug_assert_eq!(delta.num_aggregates, self.num_aggregates);
        for (key, values) in delta.iter() {
            let entry = self
                .data
                .entry(key.clone())
                .or_insert_with(|| vec![0.0; self.num_aggregates]);
            for (e, v) in entry.iter_mut().zip(values) {
                *e += sign * v;
                if *e != 0.0 && e.fract() != 0.0 && e.abs() <= rel_eps * v.abs() {
                    *e = 0.0;
                }
            }
        }
    }

    /// Folds a signed delta into this maintained state: the snapped merge
    /// (residues below [`CANCELLATION_REL_EPS`] of the delta become exact
    /// zero) followed by pruning of all-zero entries. The one fold of the
    /// write path — a commit publishes views folded this way, and telescoped
    /// propagation stages the NEW state of a changed view the same way, so
    /// later steps read exactly the state that is published.
    ///
    /// [`CANCELLATION_REL_EPS`]: crate::snapshot::CANCELLATION_REL_EPS
    pub(crate) fn fold_delta(&mut self, delta: &ComputedView) {
        self.merge_signed_snapped(delta, 1.0, crate::snapshot::CANCELLATION_REL_EPS);
        self.prune_zero_entries();
    }

    /// Drops entries whose aggregates are all exactly zero. After a signed
    /// merge this restores the invariant that keys without joining tuples are
    /// absent (absent keys already mean all-zero aggregates to every reader).
    pub fn prune_zero_entries(&mut self) {
        self.data.retain(|_, v| v.iter().any(|&x| x != 0.0));
    }
}

/// Read access to computed view results during a group scan.
///
/// The executor resolves incoming views through this trait instead of a
/// concrete map, so the maintenance layer can overlay *deltas* over the
/// retained full views: a scan probing a changed view sees its signed delta,
/// while unchanged views resolve to their retained results.
pub trait ViewSource {
    /// The computed result of `id`, if available.
    fn view_result(&self, id: ViewId) -> Option<&ComputedView>;
}

impl ViewSource for FxHashMap<ViewId, ComputedView> {
    fn view_result(&self, id: ViewId) -> Option<&ComputedView> {
        self.get(&id)
    }
}

/// The serving layer keeps views behind [`Arc`]s (copy-on-write between
/// generations); scans read straight through the shared handles.
impl ViewSource for FxHashMap<ViewId, Arc<ComputedView>> {
    fn view_result(&self, id: ViewId) -> Option<&ComputedView> {
        self.get(&id).map(|cv| &**cv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_merges_views_with_same_key() {
        let mut cat = ViewCatalog::new();
        let a = cat.get_or_create(0, Some(1), vec![AttrId(2), AttrId(1)]);
        let b = cat.get_or_create(0, Some(1), vec![AttrId(1), AttrId(2)]);
        assert_eq!(a, b, "group-by order must not matter");
        let c = cat.get_or_create(0, Some(2), vec![AttrId(1), AttrId(2)]);
        assert_ne!(a, c);
        assert_eq!(cat.len(), 2);
        assert!(!cat.is_empty());
    }

    #[test]
    fn aggregate_dedup_within_a_view() {
        let mut cat = ViewCatalog::new();
        let v = cat.get_or_create(0, None, vec![]);
        let i0 = cat.add_aggregate(v, ViewAggregate::count());
        let i1 = cat.add_aggregate(v, ViewAggregate::count());
        assert_eq!(i0, i1);
        let other = ViewAggregate::single(ViewTerm {
            constant: 1.0,
            local: vec![ScalarFunction::Identity(AttrId(3))],
            child_refs: vec![],
        });
        let i2 = cat.add_aggregate(v, other);
        assert_eq!(i2, 1);
        assert_eq!(cat.view(v).num_aggregates(), 2);
        assert_eq!(cat.total_aggregates(), 2);
    }

    #[test]
    fn dependencies_and_topological_order() {
        let mut cat = ViewCatalog::new();
        let leaf = cat.get_or_create(1, Some(0), vec![AttrId(0)]);
        cat.add_aggregate(leaf, ViewAggregate::count());
        let root = cat.get_or_create(0, None, vec![]);
        cat.add_aggregate(
            root,
            ViewAggregate::single(ViewTerm {
                constant: 1.0,
                local: vec![],
                child_refs: vec![(leaf, 0)],
            }),
        );
        assert_eq!(cat.view(root).dependencies(), vec![leaf]);
        let order = cat.topological_order();
        let pos_leaf = order.iter().position(|&v| v == leaf).unwrap();
        let pos_root = order.iter().position(|&v| v == root).unwrap();
        assert!(pos_leaf < pos_root);
    }

    #[test]
    fn query_tagging() {
        let mut cat = ViewCatalog::new();
        let v = cat.get_or_create(0, None, vec![AttrId(0)]);
        cat.tag_query(v, QueryId(3));
        cat.tag_query(v, QueryId(3));
        cat.tag_query(v, QueryId(5));
        assert_eq!(cat.view(v).queries, vec![QueryId(3), QueryId(5)]);
        assert!(cat.view(v).is_output());
    }

    #[test]
    fn computed_view_accumulates() {
        let mut cv = ComputedView::new(vec![AttrId(0)], 2);
        cv.add(vec![Value::Int(1)], &[1.0, 2.0]);
        cv.add(vec![Value::Int(1)], &[3.0, 4.0]);
        cv.add(vec![Value::Int(2)], &[1.0, 1.0]);
        cv.add_single(&[Value::Int(2)], 1, 5.0);
        assert_eq!(cv.len(), 2);
        assert_eq!(cv.get(&[Value::Int(1)]), Some(&[4.0, 6.0][..]));
        assert_eq!(cv.get(&[Value::Int(2)]), Some(&[1.0, 6.0][..]));
        assert_eq!(cv.get(&[Value::Int(9)]), None);
        assert!(cv.size_bytes() > 0);
        assert_eq!(cv.iter().count(), 2);
    }

    #[test]
    fn consuming_merge_moves_entries() {
        let mut a = ComputedView::new(vec![AttrId(0)], 2);
        a.add(vec![Value::Int(1)], &[1.0, 2.0]);
        let mut b = ComputedView::new(vec![AttrId(0)], 2);
        b.add(vec![Value::Int(1)], &[10.0, 20.0]);
        b.add(vec![Value::Int(2)], &[5.0, 5.0]);
        a.merge_from(b);
        assert_eq!(a.get(&[Value::Int(1)]), Some(&[11.0, 22.0][..]));
        assert_eq!(a.get(&[Value::Int(2)]), Some(&[5.0, 5.0][..]));
        // Merging into an empty accumulator adopts the map wholesale.
        let mut empty = ComputedView::new(vec![AttrId(0)], 2);
        let mut c = ComputedView::new(vec![AttrId(0)], 2);
        c.add(vec![Value::Int(7)], &[1.0, 1.0]);
        empty.merge_from(c);
        assert_eq!(empty.len(), 1);
        // Drain empties the view.
        let drained: Vec<_> = empty.drain().collect();
        assert_eq!(drained.len(), 1);
        assert!(empty.is_empty());
    }

    #[test]
    fn signed_merge_and_retract() {
        let mut cv = ComputedView::new(vec![AttrId(0)], 2);
        cv.add(vec![Value::Int(1)], &[4.0, 6.0]);
        let mut delta = ComputedView::new(vec![AttrId(0)], 2);
        delta.add(vec![Value::Int(1)], &[1.0, 2.0]);
        delta.add(vec![Value::Int(2)], &[5.0, 0.0]);
        cv.merge_signed(&delta, 1.0);
        assert_eq!(cv.get(&[Value::Int(1)]), Some(&[5.0, 8.0][..]));
        assert_eq!(cv.get(&[Value::Int(2)]), Some(&[5.0, 0.0][..]));
        cv.merge_signed(&delta, -1.0);
        assert_eq!(cv.get(&[Value::Int(1)]), Some(&[4.0, 6.0][..]));
        assert_eq!(cv.get(&[Value::Int(2)]), Some(&[0.0, 0.0][..]));
        cv.prune_zero_entries();
        assert_eq!(cv.get(&[Value::Int(2)]), None, "all-zero entry pruned");
        assert_eq!(cv.len(), 1);
    }

    #[test]
    fn snapped_merge_kills_float_residue_but_keeps_real_values() {
        let mut cv = ComputedView::new(vec![AttrId(0)], 1);
        // 0.1 + 0.2 - 0.3 != 0.0 in floats: the classic residue.
        assert_ne!(0.1_f64 + 0.2 - 0.3, 0.0);
        let add = |v: f64| {
            let mut d = ComputedView::new(vec![AttrId(0)], 1);
            d.add(vec![Value::Int(1)], &[v]);
            d
        };
        let eps = 1e-11;
        let (a, b, c) = (add(0.1), add(0.2), add(0.3));
        cv.merge_signed_snapped(&a, 1.0, eps);
        cv.merge_signed_snapped(&b, 1.0, eps);
        cv.merge_signed_snapped(&c, -1.0, eps);
        assert_eq!(
            cv.get(&[Value::Int(1)]),
            Some(&[0.0][..]),
            "residue snapped"
        );
        cv.prune_zero_entries();
        assert!(cv.is_empty(), "snapped zero must prune");
        // A genuine small value far above rel_eps·|v| survives.
        let small = add(1e-6);
        cv.merge_signed_snapped(&small, 1.0, eps);
        assert_eq!(cv.get(&[Value::Int(1)]), Some(&[1e-6][..]));
    }

    #[test]
    fn exact_integer_sums_are_never_snapped() {
        use crate::snapshot::CANCELLATION_REL_EPS;
        // A count-like value of exactly 1.0 surviving a huge cancelling
        // delta: |1.0| ≤ CANCELLATION_REL_EPS · 1e12 = 10, so a guard based
        // on relative magnitude alone would snap it to zero. Integer-valued
        // sums carry no float residue, so they must always survive.
        let mut cv = ComputedView::new(vec![AttrId(0)], 1);
        cv.add(vec![Value::Int(1)], &[1e12 + 1.0]);
        let mut d = ComputedView::new(vec![AttrId(0)], 1);
        d.add(vec![Value::Int(1)], &[1e12]);
        cv.merge_signed_snapped(&d, -1.0, CANCELLATION_REL_EPS);
        assert_eq!(
            cv.get(&[Value::Int(1)]),
            Some(&[1.0][..]),
            "integer-valued result must never be snapped"
        );
        // And exact integer cancellation still reaches bit-exact zero.
        let mut one = ComputedView::new(vec![AttrId(0)], 1);
        one.add(vec![Value::Int(1)], &[1.0]);
        cv.merge_signed_snapped(&one, -1.0, CANCELLATION_REL_EPS);
        cv.prune_zero_entries();
        assert!(cv.is_empty(), "exact cancellation prunes");
    }

    #[test]
    fn fold_delta_drops_an_entry_cancelled_up_to_rounding() {
        let entry = |v: f64| {
            let mut cv = ComputedView::new(vec![AttrId(0)], 1);
            cv.add(vec![Value::Int(1)], &[v]);
            cv
        };
        // 0.1 + 0.2 - 0.3 leaves a residue of about 5.5e-17, not zero.
        let mut cv = entry(0.1);
        cv.merge_signed(&entry(0.2), 1.0);
        cv.fold_delta(&entry(-0.3));
        assert!(cv.is_empty(), "residue left a key: {:?}", cv.data);
        // A plain signed merge keeps the residue, and with it the key.
        let mut unsnapped = entry(0.1);
        unsnapped.merge_signed(&entry(0.2), 1.0);
        unsnapped.merge_signed(&entry(-0.3), 1.0);
        unsnapped.prune_zero_entries();
        assert_eq!(unsnapped.len(), 1);
    }

    #[test]
    fn arc_map_is_a_view_source() {
        let mut map: FxHashMap<ViewId, Arc<ComputedView>> = FxHashMap::default();
        map.insert(ViewId(3), Arc::new(ComputedView::new(vec![], 1)));
        assert!(map.view_result(ViewId(3)).is_some());
        assert!(map.view_result(ViewId(4)).is_none());
    }

    #[test]
    fn hash_map_is_a_view_source() {
        let mut map: FxHashMap<ViewId, ComputedView> = FxHashMap::default();
        map.insert(ViewId(3), ComputedView::new(vec![], 1));
        assert!(map.view_result(ViewId(3)).is_some());
        assert!(map.view_result(ViewId(4)).is_none());
    }

    #[test]
    fn scalar_view_access() {
        let mut cv = ComputedView::new(vec![], 1);
        assert!(cv.is_empty());
        cv.add(vec![], &[10.0]);
        cv.add(vec![], &[5.0]);
        assert_eq!(cv.scalar(), Some(&[15.0][..]));
    }

    #[test]
    fn view_term_helpers() {
        assert_eq!(ViewTerm::count().constant, 1.0);
        assert!(ViewAggregate::count().terms[0].local.is_empty());
    }
}
