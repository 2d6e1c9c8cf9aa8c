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

/// Marks a free slot of a [`KeyTable`].
const EMPTY: u32 = u32::MAX;

/// Fewest slots of a [`KeyTable`] that holds a key.
const MIN_SLOTS: usize = 8;

/// The hash of a key tuple: one Fx step (rotate, xor, multiply) per value,
/// then a fold of the high half into the low half and a second multiply.
/// An Fx step's low bits depend only on the low bits of its input, and its
/// high bits on all of them; the final fold and multiply carry every input
/// bit into the high bits the table indexes by ([`KeyTable`]). The tag
/// constants keep equal payloads of different variants apart (`Int(3)`,
/// `Cat(3)`); a `Double` hashes by its bit pattern, like its equality.
#[inline]
fn hash_key(key: &[Value]) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = 0u64;
    for v in key {
        let word = match *v {
            Value::Int(i) => i as u64,
            Value::Double(d) => d.to_bits() ^ 0x2545_f491_4f6c_dd1d,
            Value::Cat(c) => u64::from(c) ^ 0x6a09_e667_f3bc_c908,
            Value::Null => 0xbb67_ae85_84ca_a73b,
        };
        h = (h.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
    (h ^ (h >> 32)).wrapping_mul(FOLD)
}

/// Distinct key tuples of one arity, numbered `0..len` in first-insertion
/// order: the tuples back to back in one `Value` arena (tuple `i` at
/// `keys[i · arity ..]`), and an open-addressing table of their ids.
///
/// The table is a power of two long and at most half full, and is probed
/// linearly from the slot named by the high bits of [`hash_key`]. A key costs
/// no heap block of its own: a table of `n` keys holds two allocations.
pub(crate) struct KeyTable {
    arity: usize,
    len: usize,
    keys: Vec<Value>,
    /// Key ids, [`EMPTY`] where free.
    slots: Vec<u32>,
    /// `64 − log₂(slots.len())`: a hash's slot is `hash >> shift`.
    shift: u32,
}

/// `clone_from` copies into the target's own buffers, reusing their
/// allocations when they are large enough.
impl Clone for KeyTable {
    fn clone(&self) -> Self {
        KeyTable {
            arity: self.arity,
            len: self.len,
            keys: self.keys.clone(),
            slots: self.slots.clone(),
            shift: self.shift,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.arity = source.arity;
        self.len = source.len;
        self.keys.clone_from(&source.keys);
        self.slots.clone_from(&source.slots);
        self.shift = source.shift;
    }
}

impl KeyTable {
    /// An empty table of `arity`-value keys.
    pub(crate) fn new(arity: usize) -> Self {
        KeyTable {
            arity,
            len: 0,
            keys: Vec::new(),
            slots: Vec::new(),
            shift: 64,
        }
    }

    /// Number of keys.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Values per key.
    #[inline]
    pub(crate) fn arity(&self) -> usize {
        self.arity
    }

    /// The key with id `id`.
    #[inline]
    pub(crate) fn key(&self, id: usize) -> &[Value] {
        &self.keys[id * self.arity..(id + 1) * self.arity]
    }

    /// The id of `key`, if present.
    #[inline]
    pub(crate) fn find(&self, key: &[Value]) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = (hash_key(key) >> self.shift) as usize;
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                return None;
            }
            if self.key(id as usize) == key {
                return Some(id as usize);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The id of `key`, inserting it (with the next id) when absent; the flag
    /// says whether it was inserted.
    #[inline]
    pub(crate) fn find_or_insert(&mut self, key: &[Value]) -> (usize, bool) {
        debug_assert_eq!(key.len(), self.arity, "key of the wrong arity");
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut slot = (hash_key(key) >> self.shift) as usize;
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                break;
            }
            if self.key(id as usize) == key {
                return (id as usize, false);
            }
            slot = (slot + 1) & mask;
        }
        let id = self.len;
        self.slots[slot] = u32::try_from(id)
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("a key table holds fewer than 2³² − 1 keys");
        self.keys.extend_from_slice(key);
        self.len += 1;
        (id, true)
    }

    /// Doubles the slot table (or allocates its first one) and re-slots
    /// every key.
    #[cold]
    fn grow(&mut self) {
        let slots = (2 * self.slots.len()).max(MIN_SLOTS);
        self.reslot(slots);
    }

    /// Rebuilds the slot table at `slots` slots from the key arena.
    fn reslot(&mut self, slots: usize) {
        debug_assert!(slots.is_power_of_two() && slots >= 2 * self.len);
        self.shift = 64 - slots.trailing_zeros();
        self.slots.clear();
        self.slots.resize(slots, EMPTY);
        let mask = slots - 1;
        for id in 0..self.len {
            let mut slot = (hash_key(self.key(id)) >> self.shift) as usize;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32;
        }
    }

    /// Keeps the keys for which `keep(id)` holds, called once per id in id
    /// order; the kept keys are renumbered densely in the same order, and the
    /// slot table is rebuilt when a key went.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let arity = self.arity;
        let mut kept = 0;
        for id in 0..self.len {
            if keep(id) {
                if kept != id {
                    self.keys
                        .copy_within(id * arity..(id + 1) * arity, kept * arity);
                }
                kept += 1;
            }
        }
        if kept != self.len {
            self.len = kept;
            self.keys.truncate(kept * arity);
            let slots = self.slots.len();
            self.reslot(slots);
        }
    }

    /// The longest run of slots a lookup of a present key walks: 1 when
    /// every key sits in its home slot.
    #[cfg(test)]
    fn longest_probe(&self) -> usize {
        let mask = self.slots.len().wrapping_sub(1);
        (0..self.slots.len())
            .filter(|&slot| self.slots[slot] != EMPTY)
            .map(|slot| {
                let home = (hash_key(self.key(self.slots[slot] as usize)) >> self.shift) as usize;
                (slot.wrapping_sub(home) & mask) + 1
            })
            .max()
            .unwrap_or(0)
    }
}

/// The materialized result of a view: a map from group-by key to the vector
/// of aggregate values.
///
/// **Layout.** One flat store per view: the keys in one `Value` arena,
/// stride = key arity, with an open-addressing table of `u32` entry ids (a
/// crate-private `KeyTable`), and the payloads in one `Vec<f64>`, stride =
/// [`num_aggregates`](ComputedView::num_aggregates), entry `i`'s aggregates
/// at `vals[i · num_aggregates ..]`. An entry costs no heap block of its
/// own, so building or dropping a view allocates or frees a handful of
/// blocks whatever its size.
///
/// **Iteration order** is first-insertion order, and is kept by
/// [`prune_zero_entries`](ComputedView::prune_zero_entries), which compacts
/// the survivors in place. Every mutation is deterministic, so two views built
/// by the same sequence of calls iterate alike.
pub struct ComputedView {
    /// Group-by attributes of the key, in the view's canonical order.
    pub key_attrs: Vec<AttrId>,
    /// Number of aggregates per entry.
    pub num_aggregates: usize,
    keys: KeyTable,
    vals: Vec<f64>,
}

impl ComputedView {
    /// Creates an empty computed view.
    pub fn new(key_attrs: Vec<AttrId>, num_aggregates: usize) -> Self {
        ComputedView {
            keys: KeyTable::new(key_attrs.len()),
            key_attrs,
            num_aggregates,
            vals: Vec::new(),
        }
    }

    /// The aggregates of entry `id`.
    #[inline]
    fn row(&self, id: usize) -> &[f64] {
        &self.vals[id * self.num_aggregates..(id + 1) * self.num_aggregates]
    }

    /// The aggregates of entry `id`, mutably.
    #[inline]
    pub(crate) fn row_mut(&mut self, id: usize) -> &mut [f64] {
        let n = self.num_aggregates;
        &mut self.vals[id * n..(id + 1) * n]
    }

    /// The key and aggregates of entry `id`, `0 ≤ id < len`, in iteration
    /// order.
    #[inline]
    pub(crate) fn entry(&self, id: usize) -> (&[Value], &[f64]) {
        (self.keys.key(id), self.row(id))
    }

    /// The id of the entry for `key`, if present.
    #[inline]
    pub(crate) fn find(&self, key: &[Value]) -> Option<usize> {
        self.keys.find(key)
    }

    /// The id of the entry for `key`, appending a zero entry when absent.
    #[inline]
    fn find_or_insert(&mut self, key: &[Value]) -> usize {
        let (id, inserted) = self.keys.find_or_insert(key);
        if inserted {
            self.vals.resize(self.vals.len() + self.num_aggregates, 0.0);
        }
        id
    }

    /// Appends an entry for `key`, which must be absent, holding `values`.
    #[inline]
    pub(crate) fn insert_new(&mut self, key: &[Value], values: &[f64]) {
        debug_assert_eq!(values.len(), self.num_aggregates);
        let (_, inserted) = self.keys.find_or_insert(key);
        debug_assert!(inserted, "insert_new of a present key");
        self.vals.extend_from_slice(values);
    }

    /// Adds `values` into the entry for `key` (element-wise sum).
    pub fn add(&mut self, key: &[Value], values: &[f64]) {
        debug_assert_eq!(values.len(), self.num_aggregates);
        let id = self.find_or_insert(key);
        for (e, v) in self.row_mut(id).iter_mut().zip(values) {
            *e += v;
        }
    }

    /// Adds a single aggregate value into the entry for `key`; the key is
    /// copied into the arena only when it is new.
    #[inline]
    pub fn add_single(&mut self, key: &[Value], agg_idx: usize, value: f64) {
        let id = self.find_or_insert(key);
        self.row_mut(id)[agg_idx] += value;
    }

    /// The aggregate values for a key, if present.
    pub fn get(&self, key: &[Value]) -> Option<&[f64]> {
        self.find(key).map(|id| self.row(id))
    }

    /// For scalar views (no group-by), the aggregate values.
    pub fn scalar(&self) -> Option<&[f64]> {
        self.get(&[])
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no tuple was produced.
    pub fn is_empty(&self) -> bool {
        self.keys.len() == 0
    }

    /// Approximate size of the view in bytes (keys plus aggregate payload).
    pub fn size_bytes(&self) -> usize {
        let key_width = self.keys.arity() * std::mem::size_of::<Value>();
        let agg_width = self.num_aggregates * std::mem::size_of::<f64>();
        self.len() * (key_width + agg_width)
    }

    /// Iterates over `(key, aggregate values)` entries in first-insertion
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], &[f64])> + '_ {
        (0..self.len()).map(|id| self.entry(id))
    }

    /// Merges `other` into this view by element-wise addition, consuming it.
    /// An empty `self` adopts `other`'s store whole.
    pub fn merge_from(&mut self, other: ComputedView) {
        debug_assert_eq!(other.num_aggregates, self.num_aggregates);
        if self.is_empty() {
            self.keys = other.keys;
            self.vals = other.vals;
            return;
        }
        self.merge_signed(&other, 1.0);
    }

    /// Merges `delta` scaled by `sign` into this view (element-wise
    /// `self += sign · delta`). With `sign = 1.0` this is the additive merge
    /// of domain-parallel partials; with `sign = -1.0` it retracts a delta —
    /// the signed propagation the maintenance layer runs on.
    pub fn merge_signed(&mut self, delta: &ComputedView, sign: f64) {
        debug_assert_eq!(delta.num_aggregates, self.num_aggregates);
        for (key, values) in delta.iter() {
            let id = self.find_or_insert(key);
            for (e, v) in self.row_mut(id).iter_mut().zip(values) {
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
            let id = self.find_or_insert(key);
            for (e, v) in self.row_mut(id).iter_mut().zip(values) {
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
    /// The survivors are compacted in place and keep their order.
    pub fn prune_zero_entries(&mut self) {
        let n = self.num_aggregates;
        let vals = &mut self.vals;
        let mut kept = 0;
        self.keys.retain(|id| {
            let live = vals[id * n..(id + 1) * n].iter().any(|&x| x != 0.0);
            if live {
                vals.copy_within(id * n..(id + 1) * n, kept * n);
                kept += 1;
            }
            live
        });
        vals.truncate(kept * n);
    }
}

/// `clone_from` copies into the target's own buffers, reusing their
/// allocations when they are large enough: the commit path copies a pinned
/// view into the spare it replaced a commit earlier.
impl Clone for ComputedView {
    fn clone(&self) -> Self {
        ComputedView {
            key_attrs: self.key_attrs.clone(),
            num_aggregates: self.num_aggregates,
            keys: self.keys.clone(),
            vals: self.vals.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.key_attrs.clone_from(&source.key_attrs);
        self.num_aggregates = source.num_aggregates;
        self.keys.clone_from(&source.keys);
        self.vals.clone_from(&source.vals);
    }
}

/// Prints the entries in iteration order, not the store's slot table.
impl std::fmt::Debug for ComputedView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputedView")
            .field("key_attrs", &self.key_attrs)
            .field("num_aggregates", &self.num_aggregates)
            .field("entries", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

/// Two views are equal when they hold the same keys with equal aggregates
/// (compared as `f64`s), whatever their iteration order — the equality of
/// the map they stand for.
impl PartialEq for ComputedView {
    fn eq(&self, other: &Self) -> bool {
        self.key_attrs == other.key_attrs
            && self.num_aggregates == other.num_aggregates
            && self.len() == other.len()
            && self
                .iter()
                .all(|(key, values)| other.get(key) == Some(values))
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
        cv.add(&[Value::Int(1)], &[1.0, 2.0]);
        cv.add(&[Value::Int(1)], &[3.0, 4.0]);
        cv.add(&[Value::Int(2)], &[1.0, 1.0]);
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
        a.add(&[Value::Int(1)], &[1.0, 2.0]);
        let mut b = ComputedView::new(vec![AttrId(0)], 2);
        b.add(&[Value::Int(1)], &[10.0, 20.0]);
        b.add(&[Value::Int(2)], &[5.0, 5.0]);
        a.merge_from(b);
        assert_eq!(a.get(&[Value::Int(1)]), Some(&[11.0, 22.0][..]));
        assert_eq!(a.get(&[Value::Int(2)]), Some(&[5.0, 5.0][..]));
        // New keys follow the existing ones, in `b`'s order.
        let keys: Vec<&[Value]> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, [&[Value::Int(1)][..], &[Value::Int(2)][..]]);
        // Merging into an empty accumulator adopts the store wholesale.
        let mut empty = ComputedView::new(vec![AttrId(0)], 2);
        let mut c = ComputedView::new(vec![AttrId(0)], 2);
        c.add(&[Value::Int(7)], &[1.0, 1.0]);
        empty.merge_from(c);
        assert_eq!(empty.len(), 1);
        assert_eq!(empty.get(&[Value::Int(7)]), Some(&[1.0, 1.0][..]));
    }

    #[test]
    fn signed_merge_and_retract() {
        let mut cv = ComputedView::new(vec![AttrId(0)], 2);
        cv.add(&[Value::Int(1)], &[4.0, 6.0]);
        let mut delta = ComputedView::new(vec![AttrId(0)], 2);
        delta.add(&[Value::Int(1)], &[1.0, 2.0]);
        delta.add(&[Value::Int(2)], &[5.0, 0.0]);
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
            d.add(&[Value::Int(1)], &[v]);
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
        cv.add(&[Value::Int(1)], &[1e12 + 1.0]);
        let mut d = ComputedView::new(vec![AttrId(0)], 1);
        d.add(&[Value::Int(1)], &[1e12]);
        cv.merge_signed_snapped(&d, -1.0, CANCELLATION_REL_EPS);
        assert_eq!(
            cv.get(&[Value::Int(1)]),
            Some(&[1.0][..]),
            "integer-valued result must never be snapped"
        );
        // And exact integer cancellation still reaches bit-exact zero.
        let mut one = ComputedView::new(vec![AttrId(0)], 1);
        one.add(&[Value::Int(1)], &[1.0]);
        cv.merge_signed_snapped(&one, -1.0, CANCELLATION_REL_EPS);
        cv.prune_zero_entries();
        assert!(cv.is_empty(), "exact cancellation prunes");
    }

    #[test]
    fn fold_delta_drops_an_entry_cancelled_up_to_rounding() {
        let entry = |v: f64| {
            let mut cv = ComputedView::new(vec![AttrId(0)], 1);
            cv.add(&[Value::Int(1)], &[v]);
            cv
        };
        // 0.1 + 0.2 - 0.3 leaves a residue of about 5.5e-17, not zero.
        let mut cv = entry(0.1);
        cv.merge_signed(&entry(0.2), 1.0);
        cv.fold_delta(&entry(-0.3));
        assert!(cv.is_empty(), "residue left a key: {cv:?}");
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
        cv.add(&[], &[10.0]);
        cv.add(&[], &[5.0]);
        assert_eq!(cv.scalar(), Some(&[15.0][..]));
    }

    /// Keys that differ only in high bits, which the last multiply of an Fx
    /// step carries into the high bits alone, still spread over the slot
    /// table: the longest probe stays short. (Indexing by the hash's low
    /// bits would put all 65 536 `Int` keys in one run.)
    #[test]
    fn keys_differing_in_high_bits_spread_over_the_table() {
        const LONGEST_PROBE: usize = 16;
        let mut ints = KeyTable::new(1);
        for i in 0..65_536i64 {
            ints.find_or_insert(&[Value::Int(i << 32)]);
        }
        assert_eq!(ints.len(), 65_536);
        let probe = ints.longest_probe();
        assert!(
            probe <= LONGEST_PROBE,
            "Int(i << 32): longest probe {probe}"
        );
        // Every finite exponent of a double with an empty mantissa, either
        // sign: the keys differ only in bits 52–63.
        let mut doubles = KeyTable::new(1);
        for bits in (0..2_047u64).flat_map(|e| [e << 52, (1 << 63) | (e << 52)]) {
            doubles.find_or_insert(&[Value::Double(f64::from_bits(bits))]);
        }
        assert_eq!(doubles.len(), 4_094);
        let probe = doubles.longest_probe();
        assert!(
            probe <= LONGEST_PROBE,
            "Double exponents: longest probe {probe}"
        );
    }

    #[test]
    fn key_table_numbers_keys_in_insertion_order_and_keeps_it_on_retain() {
        let mut table = KeyTable::new(2);
        let key = |i: i64| [Value::Int(i % 7), Value::Double(i as f64)];
        for i in 0..100 {
            assert_eq!(table.find_or_insert(&key(i)), (i as usize, true));
        }
        assert_eq!(table.find_or_insert(&key(42)), (42, false));
        table.retain(|id| id % 3 == 0);
        assert_eq!(table.len(), 34);
        for i in 0..100 {
            let want = (i % 3 == 0).then_some(i as usize / 3);
            assert_eq!(table.find(&key(i)), want, "{i}");
        }
        assert_eq!(table.key(5), key(15));
        // Scalar keys: one key of arity 0.
        let mut scalar = KeyTable::new(0);
        assert_eq!(scalar.find(&[]), None);
        assert_eq!(scalar.find_or_insert(&[]), (0, true));
        assert_eq!(scalar.find_or_insert(&[]), (0, false));
        assert_eq!(scalar.key(0), &[] as &[Value]);
    }

    #[test]
    fn prune_compacts_in_insertion_order() {
        let mut cv = ComputedView::new(vec![AttrId(0)], 2);
        for i in 0..10 {
            cv.add(&[Value::Int(9 - i)], &[(i % 3) as f64, 0.0]);
        }
        cv.prune_zero_entries();
        let kept: Vec<(Vec<Value>, Vec<f64>)> =
            cv.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        let want: Vec<(Vec<Value>, Vec<f64>)> = [1, 2, 4, 5, 7, 8]
            .iter()
            .map(|&i| (vec![Value::Int(9 - i)], vec![(i % 3) as f64, 0.0]))
            .collect();
        assert_eq!(kept, want);
        assert_eq!(cv.get(&[Value::Int(6)]), None);
        assert_eq!(cv.get(&[Value::Int(1)]), Some(&[2.0, 0.0][..]));
        // Equality ignores order.
        let mut reversed = ComputedView::new(vec![AttrId(0)], 2);
        for (k, v) in want.iter().rev() {
            reversed.add(k, v);
        }
        assert_eq!(cv, reversed);
        reversed.add(&[Value::Int(1)], &[1.0, 0.0]);
        assert_ne!(cv, reversed);
    }

    #[test]
    fn clone_from_keeps_the_targets_buffers_and_the_sources_order() {
        let mut source = ComputedView::new(vec![AttrId(0)], 2);
        for i in 0..5 {
            source.add(&[Value::Int(4 - i)], &[i as f64, 1.0]);
        }
        let mut target = ComputedView::new(vec![AttrId(0)], 2);
        for i in 0..100 {
            target.add(&[Value::Int(-i)], &[1.0, 1.0]);
        }
        let vals = target.vals.as_ptr();
        target.clone_from(&source);
        assert_eq!(target.vals.as_ptr(), vals, "payload buffer reused");
        assert!(target.iter().eq(source.iter()));
        assert_eq!(target.get(&[Value::Int(-3)]), None);
        assert_eq!(target.get(&[Value::Int(3)]), Some(&[1.0, 1.0][..]));
        target.add(&[Value::Int(7)], &[2.0, 2.0]);
        assert_eq!(target.len(), 6);
    }

    #[test]
    fn view_term_helpers() {
        assert_eq!(ViewTerm::count().constant, 1.0);
        assert!(ViewAggregate::count().terms[0].local.is_empty());
    }
}
