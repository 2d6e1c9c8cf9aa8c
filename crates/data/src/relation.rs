//! In-memory relations over columnar storage.
//!
//! A [`Relation`] is a set of typed [`Column`]s plus its [`RelationSchema`]:
//! every attribute is stored contiguously in its native representation
//! (`i64`, `f64`, or `u32` dictionary codes for categoricals, see
//! [`crate::column`]). LMFAO keeps relations sorted by their join attributes
//! so that a single scan can view them as a trie: grouped by the first join
//! attribute, then by the next within each group, and so on (see
//! [`crate::trie`]). This mirrors the factorized-database style scans the
//! paper relies on for the multi-output plans.
//!
//! The columnar layout exists for the hot loops: trie grouping compares one
//! attribute across consecutive rows ([`Column::eq_rows`], a native compare
//! with no enum tag), local-expression sums read typed slices directly, and
//! sorting permutes each column once ([`Column::permute`]) instead of moving
//! whole rows. Row-oriented consumers (tests, CSV import/export, datagen)
//! keep working through the [`RowView`] adapter returned by
//! [`Relation::row`] / [`Relation::rows`], which materializes [`Value`]s on
//! demand; round-tripping `from_rows -> rows()` is exact, bit patterns of
//! doubles included.

use crate::column::Column;
use crate::delta::TableDelta;
use crate::error::{DataError, Result};
use crate::hash::{fx_hash_set, FxHashMap, FxHashSet};
use crate::schema::{AttrId, RelationSchema};
use crate::value::Value;

/// The distinct keys of some columns of a relation ([`Relation::keys`]).
pub type KeySet = FxHashSet<Vec<Value>>;

/// An in-memory relation: schema plus one typed column per attribute.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: RelationSchema,
    columns: Vec<Column>,
    num_rows: usize,
    arity: usize,
    /// Attribute positions this relation is currently sorted by (lexicographic
    /// prefix order); empty if unsorted.
    sorted_by: Vec<usize>,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn new(schema: RelationSchema) -> Self {
        let arity = schema.arity();
        Relation {
            schema,
            columns: (0..arity).map(|_| Column::new()).collect(),
            num_rows: 0,
            arity,
            sorted_by: Vec::new(),
        }
    }

    /// Creates a relation from rows, validating arity.
    pub fn from_rows(schema: RelationSchema, rows: Vec<Vec<Value>>) -> Result<Self> {
        let mut rel = Relation::new(schema);
        rel.reserve(rows.len());
        for row in rows {
            rel.push_row(&row)?;
        }
        Ok(rel)
    }

    /// Creates a relation directly from columns (all columns must have the
    /// same length, one per schema attribute).
    pub fn from_columns(schema: RelationSchema, columns: Vec<Column>) -> Result<Self> {
        let arity = schema.arity();
        if columns.len() != arity {
            return Err(DataError::ArityMismatch {
                relation: schema.name.clone(),
                expected: arity,
                got: columns.len(),
            });
        }
        let num_rows = columns.first().map_or(0, Column::len);
        if columns.iter().any(|c| c.len() != num_rows) {
            return Err(DataError::ArityMismatch {
                relation: schema.name.clone(),
                expected: num_rows,
                got: columns.iter().map(Column::len).max().unwrap_or(0),
            });
        }
        Ok(Relation {
            schema,
            columns,
            num_rows,
            arity,
            sorted_by: Vec::new(),
        })
    }

    /// The schema of the relation.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.num_rows
    }

    /// True if the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// Arity (number of attributes).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The typed columns, in schema attribute order.
    #[inline]
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The typed column at position `col`.
    #[inline]
    pub fn column(&self, col: usize) -> &Column {
        &self.columns[col]
    }

    /// Mutable access to the column at position `col` (used by the catalog to
    /// attach dictionaries; values must not be added or removed through this).
    pub(crate) fn column_mut(&mut self, col: usize) -> &mut Column {
        &mut self.columns[col]
    }

    /// Appends a tuple, validating its arity.
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.arity {
            return Err(DataError::ArityMismatch {
                relation: self.schema.name.clone(),
                expected: self.arity,
                got: row.len(),
            });
        }
        self.push_row_unchecked(row);
        Ok(())
    }

    /// Appends a tuple without arity validation (panics in debug builds on
    /// mismatch). Used by bulk loaders on the hot path.
    pub fn push_row_unchecked(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.arity);
        for (col, &v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        self.num_rows += 1;
        self.sorted_by.clear();
    }

    /// Reserves capacity for `additional` further tuples.
    pub fn reserve(&mut self, additional: usize) {
        for col in &mut self.columns {
            col.reserve(additional);
        }
    }

    /// A lazily materializing view of the `i`-th tuple.
    #[inline]
    pub fn row(&self, i: usize) -> RowView<'_> {
        debug_assert!(i < self.num_rows);
        RowView { rel: self, row: i }
    }

    /// The tuples at `rows` (strictly ascending) as a relation of the same
    /// schema. Gathering in ascending order keeps the rows' relative order,
    /// so the subset stays sorted by whatever this relation is sorted by.
    pub fn subset(&self, rows: &[u32]) -> Relation {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
        Relation {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.gather(rows)).collect(),
            num_rows: rows.len(),
            arity: self.arity,
            sorted_by: self.sorted_by.clone(),
        }
    }

    /// The distinct values of the columns `cols`: the build side of a
    /// [`Relation::semi_join`] with this relation.
    pub fn keys(&self, cols: &[usize]) -> KeySet {
        let cols = self.columns_at(cols);
        (0..self.num_rows)
            .map(|row| cols.iter().map(|c| c.value(row)).collect())
            .collect()
    }

    /// The semi-join of this relation with key sets, the engine's only one
    /// (`restrict`'s Yannakakis reduction and a commit's propagation scan).
    /// A row is kept if its values on some probe's `cols` are a key of that
    /// probe's set, compared as [`Value`]s (doubles by bit pattern). The kept
    /// rows stay in order ([`Relation::subset`]); `None` means all are kept.
    pub fn semi_join(&self, probes: &[(Vec<usize>, KeySet)]) -> Option<Relation> {
        let probes: Vec<_> = probes
            .iter()
            .map(|(cols, keys)| (self.columns_at(cols), keys))
            .collect();
        let mut key = Vec::new();
        let rows: Vec<u32> = (0..self.num_rows)
            .filter(|&row| {
                probes.iter().any(|(cols, keys)| {
                    key.clear();
                    key.extend(cols.iter().map(|c| c.value(row)));
                    keys.contains(&key)
                })
            })
            .map(|row| row as u32)
            .collect();
        (rows.len() < self.num_rows).then(|| self.subset(&rows))
    }

    /// The columns at positions `cols`, resolved once for a row loop.
    fn columns_at(&self, cols: &[usize]) -> Vec<&Column> {
        cols.iter().map(|&c| &self.columns[c]).collect()
    }

    /// A single value, materialized from its typed column.
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// The numeric interpretation of a single value, read straight from the
    /// typed column (no [`Value`] constructed; matches [`Value::as_f64`]).
    #[inline]
    pub fn f64(&self, row: usize, col: usize) -> f64 {
        self.columns[col].f64_at(row)
    }

    /// Iterates over all tuples as [`RowView`]s.
    pub fn rows(&self) -> impl Iterator<Item = RowView<'_>> + '_ {
        (0..self.num_rows).map(move |i| RowView { rel: self, row: i })
    }

    /// Position of an attribute within this relation.
    pub fn position(&self, attr: AttrId) -> Option<usize> {
        self.schema.position(attr)
    }

    /// Sorts the relation lexicographically by the given column positions
    /// (remaining columns keep their relative order only within equal keys,
    /// which is all the trie scan needs). The sort computes a row permutation
    /// by comparing the typed key columns, then rebuilds every column with one
    /// contiguous gather ([`Column::permute`]) — no row-at-a-time moves.
    pub fn sort_by_positions(&mut self, positions: &[usize]) {
        let perm = self.sort_permutation(positions);
        self.reorder(perm.as_deref(), positions);
    }

    /// The row permutation that sorts the relation lexicographically by
    /// `positions`, or `None` when the rows already are in that order.
    /// Decided from the data, never from [`Relation::sorted_by`].
    pub(crate) fn sort_permutation(&self, positions: &[usize]) -> Option<Vec<u32>> {
        if self.is_empty() || positions.is_empty() {
            return None;
        }
        let keys: Vec<&Column> = positions.iter().map(|&p| &self.columns[p]).collect();
        let mut perm: Vec<u32> = (0..self.num_rows as u32).collect();
        perm.sort_unstable_by(|&a, &b| {
            for key in &keys {
                match key.cmp_rows(a as usize, b as usize) {
                    std::cmp::Ordering::Equal => continue,
                    ord => return ord,
                }
            }
            std::cmp::Ordering::Equal
        });
        let already_sorted = perm.windows(2).all(|w| w[0] < w[1]);
        (!already_sorted).then_some(perm)
    }

    /// Gathers every column through `perm`, if given, and records the
    /// relation as sorted by `positions`.
    pub(crate) fn reorder(&mut self, perm: Option<&[u32]>, positions: &[usize]) {
        if let Some(perm) = perm {
            self.columns = self.columns.iter().map(|c| c.permute(perm)).collect();
        }
        self.sorted_by = positions.to_vec();
    }

    /// Sorts the relation by the given attributes (those present in the
    /// relation are used, in the given order).
    pub fn sort_by_attrs(&mut self, attrs: &[AttrId]) {
        let positions: Vec<usize> = attrs.iter().filter_map(|&a| self.position(a)).collect();
        self.sort_by_positions(&positions);
    }

    /// Column positions the relation is currently sorted by.
    pub fn sorted_by(&self) -> &[usize] {
        &self.sorted_by
    }

    /// Whether the relation is sorted by a prefix starting with `positions`.
    pub fn is_sorted_by(&self, positions: &[usize]) -> bool {
        self.sorted_by.len() >= positions.len() && self.sorted_by[..positions.len()] == *positions
    }

    /// Number of distinct values in a column, counted on the native
    /// representation (no [`Value`] hashing for typed columns).
    pub fn distinct_count(&self, col: usize) -> usize {
        match &self.columns[col] {
            Column::Int(v) => {
                let mut set = fx_hash_set();
                v.iter().for_each(|&x| {
                    set.insert(x);
                });
                set.len()
            }
            Column::Float(v) => {
                let mut set = fx_hash_set();
                v.iter().for_each(|&x| {
                    set.insert(x.to_bits());
                });
                set.len()
            }
            Column::Dict { codes, .. } => {
                let mut set = fx_hash_set();
                codes.iter().for_each(|&x| {
                    set.insert(x);
                });
                set.len()
            }
            Column::Mixed(v) => {
                let mut set = fx_hash_set();
                v.iter().for_each(|&x| {
                    set.insert(x);
                });
                set.len()
            }
        }
    }

    /// Distinct values of a column, in first-appearance order.
    pub fn distinct_values(&self, col: usize) -> Vec<Value> {
        let mut seen = fx_hash_set();
        let mut out = Vec::new();
        let column = &self.columns[col];
        for i in 0..self.num_rows {
            let v = column.value(i);
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }

    /// Approximate size of the relation payload in bytes (native column
    /// representations, i.e. what the scan actually touches).
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().map(Column::size_bytes).sum()
    }

    /// Minimum and maximum value of a column, if the relation is non-empty.
    pub fn min_max(&self, col: usize) -> Option<(Value, Value)> {
        if self.is_empty() {
            return None;
        }
        match &self.columns[col] {
            Column::Int(v) => {
                let (mn, mx) = min_max_by(v, |a, b| a.cmp(b));
                Some((Value::Int(mn), Value::Int(mx)))
            }
            Column::Float(v) => {
                let (mn, mx) = min_max_by(v, |a, b| a.total_cmp(b));
                Some((Value::Double(mn), Value::Double(mx)))
            }
            Column::Dict { codes, .. } => {
                let (mn, mx) = min_max_by(codes, |a, b| a.cmp(b));
                Some((Value::Cat(mn), Value::Cat(mx)))
            }
            Column::Mixed(v) => {
                let (mn, mx) = min_max_by(v, |a, b| a.cmp(b));
                Some((mn, mx))
            }
        }
    }

    /// Consumes the relation, returning its schema and columns.
    pub fn into_parts(self) -> (RelationSchema, Vec<Column>) {
        (self.schema, self.columns)
    }

    /// Applies a signed [`TableDelta`]: deletes remove one occurrence of each
    /// tombstoned tuple (exact full-row match), inserts append their tuples.
    /// The relation's sort order is preserved without a full re-sort: deletes
    /// compact the columns in place (keeping row order), and inserts are
    /// sorted among themselves and *merged* into the sorted body — the
    /// sorted-merge that keeps trie scans valid after every update.
    ///
    /// Deletes use **strict multiset semantics**: each tombstone consumes
    /// exactly one occurrence of its tuple, and a tombstone left over after
    /// consuming the delta's own inserts and the relation's rows — a delete
    /// of a tuple that is not present — is an error, never a saturating
    /// no-op. Silently dropping such a tombstone would desynchronize the
    /// relation from any incrementally maintained view state built on it
    /// (the view would subtract a contribution the base data never held).
    ///
    /// The call is atomic: an unmatched delete (or a delta targeting another
    /// relation) returns [`DataError::DeltaMismatch`] before any mutation.
    pub fn apply(&mut self, delta: &TableDelta) -> Result<()> {
        let resolved = self.resolve(delta)?;
        self.apply_resolved(resolved);
        Ok(())
    }

    /// The read-only half of [`Relation::apply`]: checks the delta, cancels
    /// its insert/delete pairs and matches its deletes against the rows.
    pub(crate) fn resolve(&self, delta: &TableDelta) -> Result<Resolved> {
        if delta.relation() != self.name() {
            return Err(DataError::DeltaMismatch {
                relation: self.name().to_string(),
                detail: format!("delta targets relation `{}`", delta.relation()),
            });
        }
        if delta.rows().arity() != self.arity {
            return Err(DataError::DeltaMismatch {
                relation: self.name().to_string(),
                detail: format!(
                    "delta arity {} does not match relation arity {}",
                    delta.rows().arity(),
                    self.arity
                ),
            });
        }
        let (inserts, deletes) = delta.partition();

        // Cancel insert/delete pairs of the exact same tuple within the
        // delta: a delete may target a tuple the same delta inserts (update
        // streams produce these), and the net effect of such a pair is zero.
        // `pending` holds the deletes still to resolve against the relation.
        let mut pending: Vec<(Vec<Value>, usize)> = Vec::new();
        for row in deletes.rows() {
            let row = row.to_vec();
            match pending.iter_mut().find(|(p, _)| *p == row) {
                Some((_, c)) => *c += 1,
                None => pending.push((row, 1)),
            }
        }
        let insert_rows: Vec<Vec<Value>> = inserts
            .rows()
            .map(|r| r.to_vec())
            .filter(|row| {
                if let Some((_, c)) = pending.iter_mut().find(|(p, c)| *c > 0 && p == row) {
                    *c -= 1;
                    return false; // annihilated by a delete of the same tuple
                }
                true
            })
            .collect();
        pending.retain(|(_, c)| *c > 0);

        // Resolve the remaining deletes (multiset semantics: each tombstone
        // consumes one matching row), without mutating until all matched.
        // The pending set is tiny for maintenance deltas, so rows are
        // compared in place (RowView equality short-circuits on the first
        // differing column) — no per-row materialization or hashing.
        let keep: Option<Vec<u32>> = if pending.is_empty() {
            None
        } else {
            let mut remaining: usize = pending.iter().map(|(_, c)| c).sum();
            // Wide delete batches fall back to a hash probe per row.
            let mut hashed: Option<FxHashMap<Vec<Value>, usize>> = if pending.len() > 16 {
                Some(pending.iter().cloned().collect())
            } else {
                None
            };
            let mut keep = Vec::with_capacity(self.num_rows.saturating_sub(remaining));
            for i in 0..self.num_rows {
                if remaining > 0 {
                    let row = self.row(i);
                    let hit =
                        match &mut hashed {
                            Some(map) => map.get_mut(&row.to_vec()).filter(|c| **c > 0).map(|c| {
                                *c -= 1;
                            }),
                            None => pending.iter_mut().find(|(p, c)| *c > 0 && row == *p).map(
                                |(_, c)| {
                                    *c -= 1;
                                },
                            ),
                        };
                    if hit.is_some() {
                        remaining -= 1;
                        continue;
                    }
                }
                keep.push(i as u32);
            }
            if remaining > 0 {
                return Err(DataError::DeltaMismatch {
                    relation: self.name().to_string(),
                    detail: format!("{remaining} deleted tuple(s) not present in the relation"),
                });
            }
            Some(keep)
        };
        Ok(Resolved { keep, insert_rows })
    }

    /// The mutating half of [`Relation::apply`], for a delta
    /// [`Relation::resolve`] accepted against these same rows.
    pub(crate) fn apply_resolved(&mut self, resolved: Resolved) {
        let Resolved { keep, insert_rows } = resolved;
        if let Some(keep) = keep {
            // `keep` is ascending, so compaction preserves the sort order.
            self.columns = self.columns.iter().map(|c| c.permute(&keep)).collect();
            self.num_rows = keep.len();
        }

        if !insert_rows.is_empty() {
            let sorted = std::mem::take(&mut self.sorted_by);
            let body_len = self.num_rows;
            for row in &insert_rows {
                self.push_row_unchecked(row);
            }
            if sorted.is_empty() {
                // Unsorted relation: a plain append is enough.
            } else {
                self.merge_sorted_suffix(&sorted, body_len);
                self.sorted_by = sorted;
            }
        }
    }

    /// Restores the lexicographic sort by `positions` after rows
    /// `[split, len)` were appended to a body sorted by `positions`: sorts the
    /// suffix among itself, then merges the two sorted runs with one gather
    /// per column (`O(n + k·log k)` for `k` appended rows, not a full
    /// re-sort). Within equal keys, body rows precede appended rows and each
    /// run keeps its internal order.
    fn merge_sorted_suffix(&mut self, positions: &[usize], split: usize) {
        let keys: Vec<&Column> = positions.iter().map(|&p| &self.columns[p]).collect();
        let cmp = |a: usize, b: usize| {
            for key in &keys {
                match key.cmp_rows(a, b) {
                    std::cmp::Ordering::Equal => continue,
                    ord => return ord,
                }
            }
            std::cmp::Ordering::Equal
        };
        let mut suffix: Vec<u32> = (split as u32..self.num_rows as u32).collect();
        suffix.sort_by(|&a, &b| cmp(a as usize, b as usize));
        let mut perm: Vec<u32> = Vec::with_capacity(self.num_rows);
        let (mut i, mut j) = (0u32, 0usize);
        while (i as usize) < split && j < suffix.len() {
            // `<=` keeps body rows first within equal keys (stable merge).
            if cmp(i as usize, suffix[j] as usize) != std::cmp::Ordering::Greater {
                perm.push(i);
                i += 1;
            } else {
                perm.push(suffix[j]);
                j += 1;
            }
        }
        perm.extend(i..split as u32);
        perm.extend_from_slice(&suffix[j..]);
        let identity = perm.windows(2).all(|w| w[0] < w[1]);
        if !identity {
            self.columns = self.columns.iter().map(|c| c.permute(&perm)).collect();
        }
    }
}

/// A [`TableDelta`] resolved against a relation by [`Relation::resolve`].
pub(crate) struct Resolved {
    /// The rows that survive the deletes, ascending; `None` if none delete.
    keep: Option<Vec<u32>>,
    /// The inserted tuples no delete of the same delta cancelled.
    insert_rows: Vec<Vec<Value>>,
}

fn min_max_by<T: Copy>(values: &[T], cmp: impl Fn(&T, &T) -> std::cmp::Ordering) -> (T, T) {
    let mut mn = values[0];
    let mut mx = values[0];
    for v in &values[1..] {
        if cmp(v, &mn) == std::cmp::Ordering::Less {
            mn = *v;
        }
        if cmp(v, &mx) == std::cmp::Ordering::Greater {
            mx = *v;
        }
    }
    (mn, mx)
}

/// A view of one tuple of a columnar [`Relation`]: values are materialized
/// from their typed columns on access.
#[derive(Clone, Copy)]
pub struct RowView<'a> {
    rel: &'a Relation,
    row: usize,
}

impl RowView<'_> {
    /// The value at column position `col`.
    #[inline]
    pub fn value(&self, col: usize) -> Value {
        self.rel.value(self.row, col)
    }

    /// Alias for [`RowView::value`], mirroring slice indexing.
    #[inline]
    pub fn get(&self, col: usize) -> Value {
        self.value(col)
    }

    /// Number of values in the row (the relation arity).
    pub fn len(&self) -> usize {
        self.rel.arity()
    }

    /// True if the relation has arity zero.
    pub fn is_empty(&self) -> bool {
        self.rel.arity() == 0
    }

    /// Iterates over the row's values in column order.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |c| self.value(c))
    }

    /// Materializes the row as a vector of values.
    pub fn to_vec(&self) -> Vec<Value> {
        self.iter().collect()
    }
}

impl PartialEq for RowView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for RowView<'_> {}

impl PartialEq<[Value]> for RowView<'_> {
    fn eq(&self, other: &[Value]) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == *b)
    }
}

impl PartialEq<Vec<Value>> for RowView<'_> {
    fn eq(&self, other: &Vec<Value>) -> bool {
        self == other.as_slice()
    }
}

impl std::fmt::Debug for RowView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrId, RelationSchema};

    fn schema3(name: &str) -> RelationSchema {
        RelationSchema::new(name, vec![AttrId(0), AttrId(1), AttrId(2)])
    }

    fn sample() -> Relation {
        let rows = vec![
            vec![Value::Int(2), Value::Int(10), Value::Double(1.0)],
            vec![Value::Int(1), Value::Int(20), Value::Double(2.0)],
            vec![Value::Int(2), Value::Int(5), Value::Double(3.0)],
            vec![Value::Int(1), Value::Int(20), Value::Double(4.0)],
        ];
        Relation::from_rows(schema3("R"), rows).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let r = sample();
        assert_eq!(r.len(), 4);
        assert_eq!(r.arity(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.value(1, 1), Value::Int(20));
        assert_eq!(r.row(2).value(2), Value::Double(3.0));
        assert_eq!(r.name(), "R");
    }

    #[test]
    fn columns_are_typed() {
        let r = sample();
        assert_eq!(r.column(0).as_int().unwrap().len(), 4);
        assert_eq!(r.column(2).as_float().unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.f64(2, 2), 3.0);
        assert_eq!(r.f64(0, 0), 2.0);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut r = Relation::new(schema3("R"));
        let err = r.push_row(&[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, DataError::ArityMismatch { .. }));
    }

    #[test]
    fn from_columns_validates_lengths() {
        let schema = RelationSchema::new("C", vec![AttrId(0), AttrId(1)]);
        let ok = Relation::from_columns(
            schema.clone(),
            vec![Column::Int(vec![1, 2]), Column::Float(vec![0.5, 1.5])],
        )
        .unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok.value(1, 1), Value::Double(1.5));
        let bad = Relation::from_columns(
            schema.clone(),
            vec![Column::Int(vec![1]), Column::Float(vec![0.5, 1.5])],
        );
        assert!(bad.is_err());
        let wrong_arity = Relation::from_columns(schema, vec![Column::Int(vec![1])]);
        assert!(wrong_arity.is_err());
    }

    #[test]
    fn sorting_by_positions() {
        let mut r = sample();
        r.sort_by_positions(&[0, 1]);
        let col0: Vec<i64> = r.column(0).as_int().unwrap().to_vec();
        assert_eq!(col0, vec![1, 1, 2, 2]);
        // Within X0 = 2 the rows are ordered by X1 (5 then 10).
        assert_eq!(r.value(2, 1), Value::Int(5));
        assert_eq!(r.value(3, 1), Value::Int(10));
        assert!(r.is_sorted_by(&[0]));
        assert!(r.is_sorted_by(&[0, 1]));
        assert!(!r.is_sorted_by(&[1]));
    }

    #[test]
    fn subset_keeps_row_order_and_sort_order() {
        let mut r = sample();
        r.sort_by_positions(&[0, 1]);
        let s = r.subset(&[1, 3]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0).to_vec(), r.row(1).to_vec());
        assert_eq!(s.row(1).to_vec(), r.row(3).to_vec());
        assert!(s.is_sorted_by(&[0, 1]));
    }

    #[test]
    fn sorting_permutes_every_column_consistently() {
        let mut r = sample();
        let before: Vec<Vec<Value>> = r.rows().map(|row| row.to_vec()).collect();
        r.sort_by_positions(&[2]);
        let after: Vec<Vec<Value>> = r.rows().map(|row| row.to_vec()).collect();
        let mut b = before.clone();
        let mut a = after.clone();
        b.sort();
        a.sort();
        assert_eq!(a, b, "sorting is a permutation of whole rows");
        assert_eq!(after[0], before[0], "column 2 was already sorted");
    }

    #[test]
    fn sorting_by_attrs_filters_missing() {
        let mut r = sample();
        // AttrId(7) is not in the relation and must simply be ignored.
        r.sort_by_attrs(&[AttrId(7), AttrId(1)]);
        let col1: Vec<i64> = (0..r.len()).map(|i| r.value(i, 1).as_i64()).collect();
        assert_eq!(col1, vec![5, 10, 20, 20]);
    }

    #[test]
    fn distinct_counts_and_values() {
        let r = sample();
        assert_eq!(r.distinct_count(0), 2);
        assert_eq!(r.distinct_count(1), 3);
        assert_eq!(r.distinct_count(2), 4);
        assert_eq!(
            r.distinct_values(0),
            vec![Value::Int(2), Value::Int(1)],
            "first-appearance order"
        );
    }

    #[test]
    fn min_max() {
        let r = sample();
        assert_eq!(r.min_max(1), Some((Value::Int(5), Value::Int(20))));
        assert_eq!(r.min_max(2), Some((Value::Double(1.0), Value::Double(4.0))));
        let empty = Relation::new(schema3("E"));
        assert_eq!(empty.min_max(0), None);
    }

    #[test]
    fn rows_iteration_matches_len() {
        let r = sample();
        assert_eq!(r.rows().count(), r.len());
        assert_eq!(r.rows().next().unwrap().value(0), Value::Int(2));
    }

    #[test]
    fn row_views_compare_and_materialize() {
        let r = sample();
        assert_eq!(r.row(1), r.row(1));
        assert_ne!(r.row(1), r.row(3));
        assert_eq!(
            r.row(1).to_vec(),
            vec![Value::Int(1), Value::Int(20), Value::Double(2.0)]
        );
        assert_eq!(
            r.row(1),
            vec![Value::Int(1), Value::Int(20), Value::Double(2.0)]
        );
        assert_eq!(r.row(0).len(), 3);
        assert!(!r.row(0).is_empty());
        assert!(format!("{:?}", r.row(2)).contains("Int(5)"));
    }

    #[test]
    fn size_bytes_uses_native_column_widths() {
        let r = sample();
        // Two i64 columns + one f64 column, 4 rows each.
        assert_eq!(r.size_bytes(), 4 * (8 + 8 + 8));
    }

    #[test]
    fn mutation_invalidates_sortedness() {
        let mut r = sample();
        r.sort_by_positions(&[0]);
        assert!(r.is_sorted_by(&[0]));
        r.push_row(&[Value::Int(0), Value::Int(0), Value::Double(0.0)])
            .unwrap();
        assert!(!r.is_sorted_by(&[0]));
    }

    #[test]
    fn apply_inserts_keep_the_sort_order_by_merging() {
        let mut r = sample();
        r.sort_by_positions(&[0, 1]);
        let mut d = TableDelta::for_relation(&r);
        d.insert(&[Value::Int(1), Value::Int(7), Value::Double(9.0)])
            .unwrap();
        d.insert(&[Value::Int(3), Value::Int(1), Value::Double(8.0)])
            .unwrap();
        d.insert(&[Value::Int(0), Value::Int(0), Value::Double(7.0)])
            .unwrap();
        r.apply(&d).unwrap();
        assert_eq!(r.len(), 7);
        assert!(r.is_sorted_by(&[0, 1]), "sorted-merge must keep trie order");
        let col0: Vec<i64> = r.column(0).as_int().unwrap().to_vec();
        assert_eq!(col0, vec![0, 1, 1, 1, 2, 2, 3]);
        // Within X0 = 1, the new (1, 7) row lands between (1, ...) keys.
        let col1: Vec<i64> = r.column(1).as_int().unwrap().to_vec();
        assert_eq!(&col1[1..4], &[7, 20, 20]);
    }

    #[test]
    fn apply_deletes_remove_one_occurrence_per_tombstone() {
        let mut r = sample();
        r.sort_by_positions(&[0, 1]);
        // Two rows share the key (1, 20) with different payloads; delete one
        // exact tuple and both duplicates of nothing else.
        let mut d = TableDelta::for_relation(&r);
        d.delete(&[Value::Int(1), Value::Int(20), Value::Double(2.0)])
            .unwrap();
        r.apply(&d).unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.is_sorted_by(&[0, 1]));
        assert!(r
            .rows()
            .all(|row| row.to_vec() != vec![Value::Int(1), Value::Int(20), Value::Double(2.0)]));
        // The other (1, 20) row survives.
        assert!(r
            .rows()
            .any(|row| row.to_vec() == vec![Value::Int(1), Value::Int(20), Value::Double(4.0)]));
    }

    #[test]
    fn apply_rejects_unmatched_deletes_atomically() {
        let mut r = sample();
        r.sort_by_positions(&[0]);
        let before: Vec<Vec<Value>> = r.rows().map(|row| row.to_vec()).collect();
        let mut d = TableDelta::for_relation(&r);
        d.insert(&[Value::Int(9), Value::Int(9), Value::Double(9.0)])
            .unwrap();
        d.delete(&[Value::Int(77), Value::Int(0), Value::Double(0.0)])
            .unwrap();
        let err = r.apply(&d).unwrap_err();
        assert!(matches!(err, DataError::DeltaMismatch { .. }));
        let after: Vec<Vec<Value>> = r.rows().map(|row| row.to_vec()).collect();
        assert_eq!(before, after, "failed apply must not mutate");
    }

    #[test]
    fn insert_delete_pairs_within_one_delta_cancel() {
        // A batched delta may insert a brand-new tuple and delete that same
        // tuple: the pair must annihilate instead of failing the delete
        // (deletes otherwise resolve against the pre-insert relation).
        let mut r = sample();
        r.sort_by_positions(&[0]);
        let before: Vec<Vec<Value>> = r.rows().map(|row| row.to_vec()).collect();
        let new_row = vec![Value::Int(9), Value::Int(9), Value::Double(9.0)];
        let mut d = TableDelta::for_relation(&r);
        d.insert(&new_row).unwrap();
        d.delete(&new_row).unwrap();
        d.insert(&[Value::Int(8), Value::Int(8), Value::Double(8.0)])
            .unwrap();
        r.apply(&d).unwrap();
        assert_eq!(r.len(), before.len() + 1, "only the unpaired insert lands");
        assert!(r.rows().all(|row| row.to_vec() != new_row));
        assert!(r.is_sorted_by(&[0]));
    }

    #[test]
    fn delete_of_missing_tuple_is_a_typed_error_not_a_no_op() {
        // Defined behavior: strict multiset semantics. A delete-only delta
        // whose tuple has no occurrence must fail with the typed error (and
        // mutate nothing), not saturate to a no-op.
        let mut r = sample();
        r.sort_by_positions(&[0]);
        let before: Vec<Vec<Value>> = r.rows().map(|row| row.to_vec()).collect();
        let mut d = TableDelta::for_relation(&r);
        d.delete(&[Value::Int(42), Value::Int(42), Value::Double(42.0)])
            .unwrap();
        let err = r.apply(&d).unwrap_err();
        assert!(matches!(err, DataError::DeltaMismatch { .. }));
        assert!(err.to_string().contains("not present"), "{err}");
        let after: Vec<Vec<Value>> = r.rows().map(|row| row.to_vec()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn insert_then_delete_twice_resolves_the_second_against_the_relation() {
        // One delta inserts a tuple and deletes it twice (net −1). The first
        // tombstone annihilates the insert; the second must consume an
        // occurrence already in the relation.
        let mut r = sample();
        r.sort_by_positions(&[0, 1]);
        let row = r.row(0).to_vec();
        let before_len = r.len();
        let mut d = TableDelta::for_relation(&r);
        d.insert(&row).unwrap();
        d.delete(&row).unwrap();
        d.delete(&row).unwrap();
        r.apply(&d).unwrap();
        assert_eq!(r.len(), before_len - 1);
        assert!(r.is_sorted_by(&[0, 1]));
    }

    #[test]
    fn insert_then_delete_twice_of_an_absent_tuple_fails_atomically() {
        // Same net −1 shape, but the relation holds no occurrence of the
        // tuple: the leftover tombstone is unmatched, so the whole delta —
        // including its insert — must be rejected.
        let mut r = sample();
        r.sort_by_positions(&[0]);
        let before: Vec<Vec<Value>> = r.rows().map(|row| row.to_vec()).collect();
        let ghost = vec![Value::Int(64), Value::Int(64), Value::Double(64.0)];
        let mut d = TableDelta::for_relation(&r);
        d.insert(&ghost).unwrap();
        d.delete(&ghost).unwrap();
        d.delete(&ghost).unwrap();
        let err = r.apply(&d).unwrap_err();
        assert!(matches!(err, DataError::DeltaMismatch { .. }));
        let after: Vec<Vec<Value>> = r.rows().map(|row| row.to_vec()).collect();
        assert_eq!(before, after, "failed apply must not mutate");
    }

    #[test]
    fn wide_delete_batches_use_the_hashed_path() {
        let schema = schema3("W");
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::Int(i), Value::Int(i % 7), Value::Double(i as f64)])
            .collect();
        let mut r = Relation::from_rows(schema, rows.clone()).unwrap();
        r.sort_by_positions(&[1]);
        let mut d = TableDelta::for_relation(&r);
        // > 16 distinct deletes exercises the hash fallback.
        for row in rows.iter().take(30) {
            d.delete(row).unwrap();
        }
        r.apply(&d).unwrap();
        assert_eq!(r.len(), 70);
        assert!(r.is_sorted_by(&[1]));
        assert!(r.rows().all(|row| row.value(0).as_i64() >= 30));
    }

    #[test]
    fn apply_rejects_wrong_target_relation() {
        let mut r = sample();
        let mut d = TableDelta::new(schema3("Other"));
        d.insert(&[Value::Int(1), Value::Int(1), Value::Double(1.0)])
            .unwrap();
        assert!(matches!(r.apply(&d), Err(DataError::DeltaMismatch { .. })));
    }

    #[test]
    fn delete_then_reinsert_round_trips_bit_identically() {
        // The satellite case: removing a tuple and re-inserting the exact
        // same tuple must reproduce the relation bit-for-bit through rows(),
        // NaN payloads of doubles included.
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        let rows = vec![
            vec![Value::Int(1), Value::Int(5), Value::Double(nan)],
            vec![Value::Int(1), Value::Int(5), Value::Double(2.0)],
            vec![Value::Int(2), Value::Int(1), Value::Double(-0.0)],
        ];
        let mut r = Relation::from_rows(schema3("R"), rows).unwrap();
        r.sort_by_positions(&[0, 1]);
        let before: Vec<Vec<Value>> = r.rows().map(|row| row.to_vec()).collect();

        let victim = vec![Value::Int(1), Value::Int(5), Value::Double(nan)];
        let mut del = TableDelta::for_relation(&r);
        del.delete(&victim).unwrap();
        r.apply(&del).unwrap();
        assert_eq!(r.len(), 2);

        let mut ins = TableDelta::for_relation(&r);
        ins.insert(&victim).unwrap();
        r.apply(&ins).unwrap();

        let mut after: Vec<Vec<Value>> = r.rows().map(|row| row.to_vec()).collect();
        let mut expected = before.clone();
        // Same multiset, same sort keys; compare as sorted sequences to be
        // independent of tie order among equal keys.
        after.sort();
        expected.sort();
        assert_eq!(after, expected);
        assert!(r.is_sorted_by(&[0, 1]));
        // The NaN payload survived bit-for-bit.
        assert!(r
            .rows()
            .any(|row| matches!(row.value(2), Value::Double(d) if d.to_bits() == nan.to_bits())));
    }

    #[test]
    fn heterogeneous_delta_appends_demote_columns_to_mixed() {
        // The satellite case: an insert whose variant mismatches the typed
        // column must demote to Mixed without losing any existing value.
        let mut r = sample();
        r.sort_by_positions(&[0]);
        let before: Vec<Value> = (0..r.len()).map(|i| r.value(i, 2)).collect();
        let mut d = TableDelta::for_relation(&r);
        d.insert(&[Value::Int(0), Value::Int(0), Value::Null])
            .unwrap();
        r.apply(&d).unwrap();
        assert!(matches!(r.column(2), Column::Mixed(_)));
        assert_eq!(r.value(0, 2), Value::Null, "null row sorts first by key");
        let after: Vec<Value> = (1..r.len()).map(|i| r.value(i, 2)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn null_and_mixed_rows_round_trip() {
        let rows = vec![
            vec![Value::Int(1), Value::Null, Value::Cat(2)],
            vec![Value::Double(0.5), Value::Int(3), Value::Cat(0)],
        ];
        let r = Relation::from_rows(schema3("M"), rows.clone()).unwrap();
        let back: Vec<Vec<Value>> = r.rows().map(|row| row.to_vec()).collect();
        assert_eq!(back, rows);
    }
}
