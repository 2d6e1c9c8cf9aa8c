//! Group-by aggregate queries and query batches.
//!
//! A query follows the paper's compact formulation (Eq. 1):
//!
//! ```text
//! Q(F1, …, Ff ; α1, …, αl) += R1(ω_R1), …, Rm(ω_Rm)
//! ```
//!
//! i.e. a set of group-by attributes `F`, a tuple of aggregates `α`, and the
//! natural join of the database relations as the body. Applications produce
//! [`QueryBatch`]es of tens to tens of thousands of such queries sharing the
//! same join; the LMFAO engine evaluates the whole batch at once.

use crate::aggregate::Aggregate;
use lmfao_data::{AttrId, FxHashSet};

/// Identifier of a query within a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub usize);

/// A single group-by aggregate query over the natural join of the database.
#[derive(Debug, Clone)]
pub struct Query {
    /// Identifier within the batch.
    pub id: QueryId,
    /// Human-readable name, e.g. `"Covar_3_7"` or `"Cube_{store,city}"`.
    pub name: String,
    /// Group-by attributes `F1, …, Ff`.
    pub group_by: Vec<AttrId>,
    /// The aggregates `α1, …, αl` computed for each group.
    pub aggregates: Vec<Aggregate>,
}

impl Query {
    /// Creates a query.
    pub fn new(
        id: usize,
        name: impl Into<String>,
        group_by: Vec<AttrId>,
        aggregates: Vec<Aggregate>,
    ) -> Self {
        Query {
            id: QueryId(id),
            name: name.into(),
            group_by,
            aggregates,
        }
    }

    /// All attributes the query touches: group-by attributes plus every
    /// attribute read by an aggregate.
    pub fn attrs(&self) -> Vec<AttrId> {
        let mut seen: FxHashSet<AttrId> = self.group_by.iter().copied().collect();
        let mut out = self.group_by.clone();
        for agg in &self.aggregates {
            for a in agg.attrs() {
                if seen.insert(a) {
                    out.push(a);
                }
            }
        }
        out
    }

    /// Number of aggregates in the query.
    pub fn num_aggregates(&self) -> usize {
        self.aggregates.len()
    }

    /// True if any aggregate uses a dynamic function.
    pub fn has_dynamic(&self) -> bool {
        self.aggregates.iter().any(Aggregate::has_dynamic)
    }
}

/// A batch of queries over the same natural join, the unit of work the LMFAO
/// engine optimizes as a whole.
#[derive(Debug, Clone, Default)]
pub struct QueryBatch {
    /// The queries of the batch.
    pub queries: Vec<Query>,
}

impl QueryBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a query built from its parts, assigning the next id. Returns the
    /// assigned [`QueryId`].
    pub fn push(
        &mut self,
        name: impl Into<String>,
        group_by: Vec<AttrId>,
        aggregates: Vec<Aggregate>,
    ) -> QueryId {
        let id = self.queries.len();
        self.queries
            .push(Query::new(id, name, group_by, aggregates));
        QueryId(id)
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the batch holds no query.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Total number of aggregates across all queries (the paper's
    /// "application aggregates" count, column A of Table 2).
    pub fn num_aggregates(&self) -> usize {
        self.queries.iter().map(Query::num_aggregates).sum()
    }

    /// All distinct attributes used by the batch.
    pub fn attrs(&self) -> Vec<AttrId> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for q in &self.queries {
            for a in q.attrs() {
                if seen.insert(a) {
                    out.push(a);
                }
            }
        }
        out
    }

    /// Iterates over the queries.
    pub fn iter(&self) -> impl Iterator<Item = &Query> {
        self.queries.iter()
    }

    /// The query with the given id.
    pub fn query(&self, id: QueryId) -> &Query {
        &self.queries[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregate;

    #[test]
    fn query_attrs_include_group_by_and_aggregate_attrs() {
        let q = Query::new(
            0,
            "Q",
            vec![AttrId(5)],
            vec![
                Aggregate::sum_product(AttrId(1), AttrId(2)),
                Aggregate::count(),
            ],
        );
        assert_eq!(q.attrs(), vec![AttrId(5), AttrId(1), AttrId(2)]);
        assert_eq!(q.num_aggregates(), 2);
        assert!(!q.has_dynamic());
    }

    #[test]
    fn batch_push_assigns_sequential_ids() {
        let mut b = QueryBatch::new();
        assert!(b.is_empty());
        let q0 = b.push("a", vec![], vec![Aggregate::count()]);
        let q1 = b.push("b", vec![AttrId(0)], vec![Aggregate::sum(AttrId(1))]);
        assert_eq!(q0, QueryId(0));
        assert_eq!(q1, QueryId(1));
        assert_eq!(b.len(), 2);
        assert_eq!(b.query(q1).name, "b");
    }

    #[test]
    fn batch_aggregate_count_and_attrs() {
        let mut b = QueryBatch::new();
        b.push(
            "a",
            vec![AttrId(0)],
            vec![Aggregate::count(), Aggregate::sum(AttrId(1))],
        );
        b.push("b", vec![AttrId(0)], vec![Aggregate::sum(AttrId(2))]);
        assert_eq!(b.num_aggregates(), 3);
        assert_eq!(b.attrs(), vec![AttrId(0), AttrId(1), AttrId(2)]);
        assert_eq!(b.iter().count(), 2);
    }
}
