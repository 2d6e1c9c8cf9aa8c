//! # lmfao-data
//!
//! Storage substrate of the LMFAO reproduction: typed values, schemas,
//! dictionary-encoded categorical attributes, sorted in-memory *columnar*
//! relations (typed [`Column`]s per attribute) with trie-style grouped scans,
//! the database catalog with cardinality statistics, and CSV import/export.
//!
//! The LMFAO engine (in `lmfao-core`) consumes a [`Database`] — relations
//! sorted by their join attributes plus statistics — and computes batches of
//! group-by aggregates over their natural join without ever materializing the
//! join itself.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod column;
pub mod csv;
pub mod delta;
pub mod dictionary;
pub mod error;
pub mod fixed;
pub mod hash;
pub mod relation;
pub mod schema;
pub mod transaction;
pub mod trie;
pub mod value;

pub use catalog::{Database, RelationIter, Relations, Statistics};
pub use column::Column;
pub use delta::TableDelta;
pub use dictionary::{Dictionary, DictionarySet};
pub use error::{DataError, Result};
pub use fixed::{decode_fixed, encode_fixed, FIXED_POINT_BITS, FIXED_POINT_SCALE};
pub use hash::{FxHashMap, FxHashSet};
pub use relation::{KeySet, Relation, RowView};
pub use schema::{AttrId, Attribute, DatabaseSchema, RelationSchema};
pub use transaction::Transaction;
pub use trie::TrieScan;
pub use value::{AttrType, Value};

#[cfg(test)]
mod smoke {
    use super::*;

    /// Exercises the crate-level re-export surface the `lmfao` façade (and
    /// every downstream crate) builds on: schema → relations → database.
    #[test]
    fn schema_relation_database_round_trip() {
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
        let sales = Relation::from_rows(
            schema.relation("Sales").unwrap().clone(),
            vec![
                vec![Value::Int(1), Value::Int(1), Value::Double(3.0)],
                vec![Value::Int(2), Value::Int(1), Value::Double(5.0)],
            ],
        )
        .unwrap();
        let items = Relation::from_rows(
            schema.relation("Items").unwrap().clone(),
            vec![vec![Value::Int(1), Value::Double(10.0)]],
        )
        .unwrap();
        let db = Database::new(schema.clone(), vec![sales, items]).unwrap();
        assert_eq!(db.total_tuples(), 3);
        let item = schema.attr_id("item").unwrap();
        assert!(db.statistics().domain_size("Items", item).is_some());
        assert_eq!(db.attributes_of_type(AttrType::Double).len(), 2);
    }
}
