//! # lmfao-jointree
//!
//! Join-tree construction for LMFAO: the schema hypergraph, the GYO ear
//! reduction that builds join trees for acyclic natural joins, a greedy
//! hypertree decomposition with bag materialization for cyclic joins, and the
//! natural-join materialization routine shared with the baseline engines.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod gyo;
pub mod hypergraph;
pub mod materialize;
pub mod tree;

pub use error::{JoinTreeError, Result};
pub use gyo::{
    build_join_tree, build_join_tree_plan, is_acyclic, join_tree_from_named_edges, JoinTreePlan,
};
pub use hypergraph::{Hyperedge, Hypergraph};
pub use materialize::{natural_join, natural_join_pair};
pub use tree::{JoinTree, JoinTreeNode};

#[cfg(test)]
mod smoke {
    use super::*;
    use lmfao_data::{AttrType, DatabaseSchema};

    /// Exercises the crate-level surface the engine builds on: hypergraph
    /// from a schema, acyclicity check, GYO join-tree construction.
    #[test]
    fn acyclic_schema_yields_a_join_tree() {
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs(
            "Sales",
            &[("store", AttrType::Int), ("item", AttrType::Int)],
        );
        schema.add_relation_with_attrs(
            "Items",
            &[("item", AttrType::Int), ("price", AttrType::Double)],
        );
        let hg = Hypergraph::from_schema(&schema);
        assert!(is_acyclic(&hg));
        let tree = build_join_tree(&hg).unwrap();
        assert_eq!(tree.num_nodes(), 2);
        let sales = tree.node_of_relation("Sales").unwrap();
        let items = tree.node_of_relation("Items").unwrap();
        let item = schema.attr_id("item").unwrap();
        assert_eq!(tree.edge_join_attrs(sales, items), vec![item]);
    }
}
