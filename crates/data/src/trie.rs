//! Trie-style grouped scans over sorted relations.
//!
//! The multi-output plans of LMFAO scan a relation "logically organized as a
//! trie": first grouped by one attribute, then by the next within the context
//! of the first, and so on (Section 3.5 of the paper, in the spirit of
//! factorized databases and LeapFrog TrieJoin). Over a relation sorted by the
//! attribute order this is a matter of finding, inside a row range, the
//! sub-ranges of equal values for the next attribute — which is what
//! [`TrieScan::children`] does. Because the relation is sorted, each level is
//! discovered with a linear sweep (or galloping search) over the parent range,
//! and the scan as a whole visits each tuple a constant number of times.

use crate::column::Column;
use crate::relation::Relation;
use crate::value::Value;
use std::ops::Range;

/// A trie view over a sorted relation: a sequence of column positions
/// (the attribute order) along which the relation is grouped.
#[derive(Debug, Clone)]
pub struct TrieScan<'a> {
    relation: &'a Relation,
    order: Vec<usize>,
}

impl<'a> TrieScan<'a> {
    /// Creates a trie scan for `relation` grouped by `order` (column
    /// positions). The relation must be sorted by (a prefix extension of)
    /// `order`; this is asserted in debug builds.
    pub fn new(relation: &'a Relation, order: Vec<usize>) -> Self {
        debug_assert!(
            relation.is_sorted_by(&order) || relation.len() <= 1 || order.is_empty(),
            "relation {} is not sorted by the requested attribute order",
            relation.name()
        );
        TrieScan { relation, order }
    }

    /// The underlying relation.
    pub fn relation(&self) -> &'a Relation {
        self.relation
    }

    /// The attribute order (column positions) of the trie.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Number of levels of the trie.
    pub fn depth(&self) -> usize {
        self.order.len()
    }

    /// The range covering the whole relation (the trie root).
    pub fn root(&self) -> Range<usize> {
        0..self.relation.len()
    }

    /// Groups `range` by the attribute at `level`, returning for each distinct
    /// value the sub-range of rows carrying that value. The iterator works
    /// directly on the typed column, so run detection is a native compare per
    /// probed row — no [`Value`] is materialized until a group is emitted.
    pub fn children(&self, level: usize, range: Range<usize>) -> GroupIter<'a> {
        let col = self.order[level];
        GroupIter {
            column: self.relation.column(col),
            pos: range.start,
            end: range.end,
        }
    }
}

/// Iterator over the `(value, row range)` groups of one trie level.
#[derive(Debug)]
pub struct GroupIter<'a> {
    column: &'a Column,
    pos: usize,
    end: usize,
}

impl<'a> Iterator for GroupIter<'a> {
    type Item = (Value, Range<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.end {
            return None;
        }
        let start = self.pos;
        let col = self.column;
        // Gallop: exponential probe followed by binary search keeps the cost
        // logarithmic in the group size for long runs of equal values. All
        // probes are typed in-column comparisons against the group's first row.
        let mut step = 1usize;
        let mut hi = start + 1;
        while hi < self.end && col.eq_rows(hi, start) {
            let next = (hi + step).min(self.end);
            if next == hi {
                break;
            }
            if col.eq_rows(next - 1, start) {
                hi = next;
                step *= 2;
            } else {
                // binary search the boundary in (hi, next)
                let mut lo = hi;
                let mut up = next;
                while lo < up {
                    let mid = (lo + up) / 2;
                    if col.eq_rows(mid, start) {
                        lo = mid + 1;
                    } else {
                        up = mid;
                    }
                }
                hi = lo;
                break;
            }
        }
        self.pos = hi;
        Some((col.value(start), start..hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrId, RelationSchema};

    fn sorted_relation() -> Relation {
        let schema = RelationSchema::new("S", vec![AttrId(0), AttrId(1), AttrId(2)]);
        let rows = vec![
            vec![Value::Int(1), Value::Int(10), Value::Double(0.5)],
            vec![Value::Int(1), Value::Int(10), Value::Double(1.5)],
            vec![Value::Int(1), Value::Int(20), Value::Double(2.5)],
            vec![Value::Int(2), Value::Int(10), Value::Double(3.5)],
            vec![Value::Int(2), Value::Int(30), Value::Double(4.5)],
            vec![Value::Int(2), Value::Int(30), Value::Double(5.5)],
        ];
        let mut r = Relation::from_rows(schema, rows).unwrap();
        r.sort_by_positions(&[0, 1]);
        r
    }

    #[test]
    fn level_zero_groups() {
        let r = sorted_relation();
        let t = TrieScan::new(&r, vec![0, 1]);
        let groups: Vec<(Value, Range<usize>)> = t.children(0, t.root()).collect();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], (Value::Int(1), 0..3));
        assert_eq!(groups[1], (Value::Int(2), 3..6));
    }

    #[test]
    fn nested_groups() {
        let r = sorted_relation();
        let t = TrieScan::new(&r, vec![0, 1]);
        let (_, first) = t.children(0, t.root()).next().unwrap();
        let inner: Vec<(Value, Range<usize>)> = t.children(1, first).collect();
        assert_eq!(inner.len(), 2);
        assert_eq!(inner[0], (Value::Int(10), 0..2));
        assert_eq!(inner[1], (Value::Int(20), 2..3));
    }

    #[test]
    fn empty_relation_has_no_groups() {
        let schema = RelationSchema::new("E", vec![AttrId(0)]);
        let mut r = Relation::new(schema);
        r.sort_by_positions(&[0]);
        let t = TrieScan::new(&r, vec![0]);
        assert_eq!(t.children(0, t.root()).count(), 0);
    }

    #[test]
    fn single_group_long_run_galloping() {
        let schema = RelationSchema::new("L", vec![AttrId(0), AttrId(1)]);
        let mut rows = Vec::new();
        for i in 0..1000 {
            rows.push(vec![Value::Int(7), Value::Int(i)]);
        }
        let mut r = Relation::from_rows(schema, rows).unwrap();
        r.sort_by_positions(&[0]);
        let t = TrieScan::new(&r, vec![0]);
        let groups: Vec<(Value, Range<usize>)> = t.children(0, t.root()).collect();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].1, 0..1000);
    }

    #[test]
    fn depth_and_order_accessors() {
        let r = sorted_relation();
        let t = TrieScan::new(&r, vec![0, 1]);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.order(), &[0, 1]);
        assert_eq!(t.relation().len(), 6);
    }
}
