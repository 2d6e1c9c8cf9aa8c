//! A database prepared for trie scans.
//!
//! The engine needs its relations sorted by the attribute orders of their
//! join-tree nodes before any trie scan can run. [`SharedDatabase::prepare`]
//! does that once; afterwards everything the engine does is read-only. The
//! relations themselves are shared by [`Database`]'s own `Arc`s, so cloning a
//! handle is a reference-count bump per relation, not a copy — which is what
//! lets the ablation ladder build five engines (and a serving process keep
//! thousands of prepared batches) over one database.

use crate::plan::prepare_database;
use lmfao_data::Database;
use lmfao_jointree::JoinTree;
use std::ops::Deref;

/// A [`Database`] whose relations are sorted for its join tree's trie scans.
///
/// Obtained from [`SharedDatabase::prepare`]; cheap to clone and safe to share
/// across threads. Dereferences to [`Database`] for read access.
#[derive(Debug, Clone)]
pub struct SharedDatabase(Database);

impl SharedDatabase {
    /// Recomputes statistics and sorts every relation by its join-tree
    /// node's attribute order (the precondition of the trie scans). Whether
    /// a relation already is in that order is checked against its rows; an
    /// already sorted relation stays shared with the database it came from.
    ///
    /// The attribute orders depend only on the join tree and the data — not on
    /// any [`crate::config::EngineConfig`] — so one prepared database serves
    /// engines of every configuration.
    pub fn prepare(mut db: Database, tree: &JoinTree) -> Self {
        db.recompute_statistics();
        prepare_database(&mut db, tree);
        SharedDatabase(db)
    }

    /// Wraps a database whose relations are already in the scans' trie
    /// order: row subsets of a prepared database, which keep its order.
    pub(crate) fn from_sorted(db: Database) -> Self {
        SharedDatabase(db)
    }

    /// The underlying database (sorted by join attributes).
    pub fn database(&self) -> &Database {
        &self.0
    }
}

impl Deref for SharedDatabase {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::attribute_order;
    use lmfao_data::{AttrType, DatabaseSchema, Relation, RelationSchema, Value};
    use lmfao_jointree::{build_join_tree, Hypergraph};

    fn db_and_tree() -> (Database, JoinTree) {
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs("R", &[("a", AttrType::Int), ("b", AttrType::Int)]);
        schema.add_relation_with_attrs("S", &[("b", AttrType::Int), ("c", AttrType::Int)]);
        let a = schema.attr_id("a").unwrap();
        let b = schema.attr_id("b").unwrap();
        let c = schema.attr_id("c").unwrap();
        let r = Relation::from_rows(
            RelationSchema::new("R", vec![a, b]),
            (0..10)
                .rev()
                .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
                .collect(),
        )
        .unwrap();
        let s = Relation::from_rows(
            RelationSchema::new("S", vec![b, c]),
            (0..3)
                .rev()
                .map(|i| vec![Value::Int(i), Value::Int(10 * i)])
                .collect(),
        )
        .unwrap();
        let db = Database::new(schema.clone(), vec![r, s]).unwrap();
        let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
        (db, tree)
    }

    #[test]
    fn prepare_sorts_every_relation_by_its_attribute_order() {
        let (db, tree) = db_and_tree();
        let shared = SharedDatabase::prepare(db, &tree);
        for node in 0..tree.num_nodes() {
            let name = &tree.node(node).relation;
            let order = attribute_order(&shared, &tree, node);
            let rel = shared.relation(name).unwrap();
            let cols: Vec<usize> = order.iter().map(|x| rel.position(*x).unwrap()).collect();
            assert!(rel.is_sorted_by(&cols), "{name} not sorted");
        }
        // Preparing again finds every relation in order and copies none.
        let again = SharedDatabase::prepare(shared.database().clone(), &tree);
        assert!(again.shares_relation_with(&shared, "R"));
        assert!(again.shares_relation_with(&shared, "S"));
    }

    #[test]
    fn clones_share_storage() {
        let (db, tree) = db_and_tree();
        let shared = SharedDatabase::prepare(db, &tree);
        let other = shared.clone();
        assert!(shared.shares_relation_with(&other, "R"));
        assert!(shared.shares_relation_with(&other, "S"));
        assert_eq!(shared.relation("R").unwrap().len(), 10);
    }
}
