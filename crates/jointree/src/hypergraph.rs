//! The query hypergraph: one hyperedge per relation, vertices are attributes.

use lmfao_data::{AttrId, DatabaseSchema, FxHashSet};

/// A hyperedge: a named set of attributes (a relation schema, or a bag of a
/// hypertree decomposition).
#[derive(Debug, Clone, PartialEq)]
pub struct Hyperedge {
    /// Name of the relation (or bag) the edge represents.
    pub name: String,
    /// Attributes covered by the edge.
    pub attrs: Vec<AttrId>,
}

impl Hyperedge {
    /// Creates a hyperedge.
    pub fn new(name: impl Into<String>, attrs: Vec<AttrId>) -> Self {
        Hyperedge {
            name: name.into(),
            attrs,
        }
    }

    /// Whether the edge contains the attribute.
    pub fn contains(&self, attr: AttrId) -> bool {
        self.attrs.contains(&attr)
    }
}

/// The hypergraph of a natural join query.
#[derive(Debug, Clone, Default)]
pub struct Hypergraph {
    /// The hyperedges, one per relation.
    pub edges: Vec<Hyperedge>,
}

impl Hypergraph {
    /// Builds the hypergraph of the natural join of all relations of a schema.
    pub fn from_schema(schema: &DatabaseSchema) -> Self {
        let edges = schema
            .relations()
            .iter()
            .map(|r| Hyperedge::new(r.name.clone(), r.attrs.clone()))
            .collect();
        Hypergraph { edges }
    }

    /// Builds a hypergraph from explicit `(name, attrs)` pairs.
    pub fn from_edges(edges: Vec<(String, Vec<AttrId>)>) -> Self {
        Hypergraph {
            edges: edges
                .into_iter()
                .map(|(n, a)| Hyperedge::new(n, a))
                .collect(),
        }
    }

    /// Number of hyperedges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if there are no hyperedges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Attributes shared between two edges.
    pub fn shared_attrs(&self, i: usize, j: usize) -> Vec<AttrId> {
        let set: FxHashSet<AttrId> = self.edges[j].attrs.iter().copied().collect();
        self.edges[i]
            .attrs
            .iter()
            .copied()
            .filter(|a| set.contains(a))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmfao_data::AttrType;

    fn chain_schema(n: usize) -> DatabaseSchema {
        // S_k(X_k, X_{k+1}) for k in 1..n, the schema of Example 3.3.
        let mut s = DatabaseSchema::new();
        for k in 1..n {
            s.add_relation_with_attrs(
                format!("S{k}"),
                &[
                    (&format!("X{k}"), AttrType::Int),
                    (&format!("X{}", k + 1), AttrType::Int),
                ],
            );
        }
        s
    }

    #[test]
    fn from_schema_builds_one_edge_per_relation() {
        let schema = chain_schema(4);
        let h = Hypergraph::from_schema(&schema);
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
    }

    #[test]
    fn shared_attrs_of_adjacent_chain_edges() {
        let schema = chain_schema(4);
        let h = Hypergraph::from_schema(&schema);
        let shared = h.shared_attrs(0, 1);
        assert_eq!(shared.len(), 1);
        assert_eq!(schema.attr_name(shared[0]), "X2");
        assert!(h.shared_attrs(0, 2).is_empty());
    }

    #[test]
    fn hyperedge_helpers() {
        let e = Hyperedge::new("R", vec![AttrId(0), AttrId(1)]);
        assert!(e.contains(AttrId(0)));
        assert!(!e.contains(AttrId(2)));
    }
}
