//! Join trees.
//!
//! A join tree of the natural join of relations `R1, …, Rm` is an undirected
//! tree whose nodes are the relations such that for every pair of nodes, their
//! common attributes appear in every node on the path between them (the
//! *running intersection* property, Section 3.1 of the paper). LMFAO computes
//! every aggregate of a batch over one join tree, possibly rooted at different
//! nodes for different aggregates.

use crate::error::{JoinTreeError, Result};
use lmfao_data::{AttrId, FxHashSet};

/// A node of a join tree: a relation (or a materialized bag) and its schema.
#[derive(Debug, Clone)]
pub struct JoinTreeNode {
    /// Node index within the tree.
    pub id: usize,
    /// Name of the relation stored at this node.
    pub relation: String,
    /// Attributes of the relation.
    pub attrs: Vec<AttrId>,
}

impl JoinTreeNode {
    /// Whether the node's relation contains the attribute.
    pub fn contains(&self, attr: AttrId) -> bool {
        self.attrs.contains(&attr)
    }
}

/// An undirected join tree.
#[derive(Debug, Clone)]
pub struct JoinTree {
    nodes: Vec<JoinTreeNode>,
    adjacency: Vec<Vec<usize>>,
}

impl JoinTree {
    /// Builds a join tree from nodes and undirected edges, and validates that
    /// the edges form a tree satisfying the running-intersection property.
    pub fn new(nodes: Vec<JoinTreeNode>, edges: &[(usize, usize)]) -> Result<Self> {
        let n = nodes.len();
        if n == 0 {
            return Err(JoinTreeError::Empty);
        }
        if edges.len() != n - 1 {
            return Err(JoinTreeError::NotATree(format!(
                "{} nodes require {} edges, got {}",
                n,
                n - 1,
                edges.len()
            )));
        }
        let mut adjacency = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a >= n || b >= n || a == b {
                return Err(JoinTreeError::NotATree(format!("invalid edge ({a},{b})")));
            }
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        let tree = JoinTree { nodes, adjacency };
        tree.check_connected()?;
        tree.check_running_intersection()?;
        Ok(tree)
    }

    fn check_connected(&self) -> Result<()> {
        let n = self.nodes.len();
        let mut visited = vec![false; n];
        let mut stack = vec![0usize];
        visited[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &self.adjacency[u] {
                if !visited[v] {
                    visited[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        if count != n {
            return Err(JoinTreeError::NotATree("tree is not connected".into()));
        }
        Ok(())
    }

    fn check_running_intersection(&self) -> Result<()> {
        let n = self.nodes.len();
        for i in 0..n {
            for j in (i + 1)..n {
                let shared: FxHashSet<AttrId> = self.nodes[i]
                    .attrs
                    .iter()
                    .copied()
                    .filter(|a| self.nodes[j].contains(*a))
                    .collect();
                if shared.is_empty() {
                    continue;
                }
                for &k in &self.path(i, j) {
                    for &a in &shared {
                        if !self.nodes[k].contains(a) {
                            return Err(JoinTreeError::RunningIntersectionViolated {
                                a: self.nodes[i].relation.clone(),
                                b: self.nodes[j].relation.clone(),
                                missing_at: self.nodes[k].relation.clone(),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[JoinTreeNode] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: usize) -> &JoinTreeNode {
        &self.nodes[id]
    }

    /// The node holding the given relation.
    pub fn node_of_relation(&self, relation: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.relation == relation)
    }

    /// Neighbors of a node.
    pub fn neighbors(&self, id: usize) -> &[usize] {
        &self.adjacency[id]
    }

    /// All undirected edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (a, neighbors) in self.adjacency.iter().enumerate() {
            for &b in neighbors {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// The join attributes of an edge: attributes shared by its two nodes.
    pub fn edge_join_attrs(&self, a: usize, b: usize) -> Vec<AttrId> {
        self.nodes[a]
            .attrs
            .iter()
            .copied()
            .filter(|x| self.nodes[b].contains(*x))
            .collect()
    }

    /// The unique path between two nodes (inclusive of both endpoints).
    pub fn path(&self, from: usize, to: usize) -> Vec<usize> {
        if from == to {
            return vec![from];
        }
        let n = self.nodes.len();
        let mut parent = vec![usize::MAX; n];
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[from] = true;
        queue.push_back(from);
        while let Some(u) = queue.pop_front() {
            if u == to {
                break;
            }
            for &v in &self.adjacency[u] {
                if !visited[v] {
                    visited[v] = true;
                    parent[v] = u;
                    queue.push_back(v);
                }
            }
        }
        let mut path = vec![to];
        let mut cur = to;
        while parent[cur] != usize::MAX {
            cur = parent[cur];
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Nodes of the subtree rooted at `child` when the tree is oriented away
    /// from `parent` (i.e. the component containing `child` after removing the
    /// edge `parent—child`).
    pub fn subtree_nodes(&self, child: usize, parent: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![(child, parent)];
        while let Some((u, from)) = stack.pop() {
            out.push(u);
            for &v in &self.adjacency[u] {
                if v != from {
                    stack.push((v, u));
                }
            }
        }
        out
    }

    /// All attributes appearing in the subtree rooted at `child` away from
    /// `parent` (the `ω_{T_i}` of Section 3.2).
    pub fn subtree_attrs(&self, child: usize, parent: usize) -> FxHashSet<AttrId> {
        let mut set = FxHashSet::default();
        for n in self.subtree_nodes(child, parent) {
            set.extend(self.nodes[n].attrs.iter().copied());
        }
        set
    }

    /// The join attributes of a node: its attributes shared with at least one
    /// neighbor.
    pub fn node_join_attrs(&self, id: usize) -> Vec<AttrId> {
        let mut out = Vec::new();
        for &a in &self.nodes[id].attrs {
            if self.adjacency[id]
                .iter()
                .any(|&nb| self.nodes[nb].contains(a))
            {
                out.push(a);
            }
        }
        out
    }

    /// A breadth-first order of the nodes starting from `root`, together with
    /// each node's parent (the root's parent is `usize::MAX`).
    pub fn bfs_order(&self, root: usize) -> Vec<(usize, usize)> {
        let n = self.nodes.len();
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut queue = std::collections::VecDeque::new();
        visited[root] = true;
        queue.push_back((root, usize::MAX));
        while let Some((u, p)) = queue.pop_front() {
            order.push((u, p));
            for &v in &self.adjacency[u] {
                if !visited[v] {
                    visited[v] = true;
                    queue.push_back((v, u));
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Favorita join tree of Figure 3: Sales at the center-ish.
    ///   Sales(date, store, item, units, promo)
    ///   Holidays(date, ...) - Sales
    ///   Items(item, ...) - Sales
    ///   Transactions(date, store, txns) - Sales
    ///   StoRes(store, ...) - Transactions
    ///   Oil(date, price) - Transactions
    fn favorita_like() -> JoinTree {
        let date = AttrId(0);
        let store = AttrId(1);
        let item = AttrId(2);
        let units = AttrId(3);
        let city = AttrId(4);
        let family = AttrId(5);
        let txns = AttrId(6);
        let price = AttrId(7);
        let htype = AttrId(8);
        let nodes = vec![
            JoinTreeNode {
                id: 0,
                relation: "Sales".into(),
                attrs: vec![date, store, item, units],
            },
            JoinTreeNode {
                id: 1,
                relation: "Holidays".into(),
                attrs: vec![date, htype],
            },
            JoinTreeNode {
                id: 2,
                relation: "Items".into(),
                attrs: vec![item, family],
            },
            JoinTreeNode {
                id: 3,
                relation: "Transactions".into(),
                attrs: vec![date, store, txns],
            },
            JoinTreeNode {
                id: 4,
                relation: "StoRes".into(),
                attrs: vec![store, city],
            },
            JoinTreeNode {
                id: 5,
                relation: "Oil".into(),
                attrs: vec![date, price],
            },
        ];
        JoinTree::new(nodes, &[(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]).unwrap()
    }

    #[test]
    fn valid_tree_is_accepted() {
        let t = favorita_like();
        assert_eq!(t.num_nodes(), 6);
        assert_eq!(t.edges().len(), 5);
        assert_eq!(t.node_of_relation("Oil"), Some(5));
        assert_eq!(t.node_of_relation("Missing"), None);
    }

    #[test]
    fn running_intersection_violation_is_rejected() {
        // R(a,b) - S(b,c) - T(a,c): shared attribute `a` of R and T is not in S.
        let nodes = vec![
            JoinTreeNode {
                id: 0,
                relation: "R".into(),
                attrs: vec![AttrId(0), AttrId(1)],
            },
            JoinTreeNode {
                id: 1,
                relation: "S".into(),
                attrs: vec![AttrId(1), AttrId(2)],
            },
            JoinTreeNode {
                id: 2,
                relation: "T".into(),
                attrs: vec![AttrId(0), AttrId(2)],
            },
        ];
        let err = JoinTree::new(nodes, &[(0, 1), (1, 2)]).unwrap_err();
        assert!(matches!(
            err,
            JoinTreeError::RunningIntersectionViolated { .. }
        ));
    }

    #[test]
    fn wrong_edge_count_rejected() {
        let nodes = vec![
            JoinTreeNode {
                id: 0,
                relation: "R".into(),
                attrs: vec![AttrId(0)],
            },
            JoinTreeNode {
                id: 1,
                relation: "S".into(),
                attrs: vec![AttrId(0)],
            },
        ];
        assert!(matches!(
            JoinTree::new(nodes.clone(), &[]).unwrap_err(),
            JoinTreeError::NotATree(_)
        ));
        assert!(matches!(
            JoinTree::new(nodes, &[(0, 1), (0, 1)]).unwrap_err(),
            JoinTreeError::NotATree(_)
        ));
    }

    #[test]
    fn disconnected_tree_rejected() {
        let nodes = vec![
            JoinTreeNode {
                id: 0,
                relation: "A".into(),
                attrs: vec![AttrId(0)],
            },
            JoinTreeNode {
                id: 1,
                relation: "B".into(),
                attrs: vec![AttrId(0)],
            },
            JoinTreeNode {
                id: 2,
                relation: "C".into(),
                attrs: vec![AttrId(0)],
            },
            JoinTreeNode {
                id: 3,
                relation: "D".into(),
                attrs: vec![AttrId(0)],
            },
        ];
        // 3 edges but one node is in a cycle and one disconnected.
        let err = JoinTree::new(nodes, &[(0, 1), (1, 2), (2, 0)]).unwrap_err();
        assert!(matches!(err, JoinTreeError::NotATree(_)));
    }

    #[test]
    fn paths_and_subtrees() {
        let t = favorita_like();
        // Path Oil -> Sales goes through Transactions.
        assert_eq!(t.path(5, 0), vec![5, 3, 0]);
        assert_eq!(t.path(2, 2), vec![2]);
        // Subtree of Transactions away from Sales = {Transactions, StoRes, Oil}.
        let mut sub = t.subtree_nodes(3, 0);
        sub.sort();
        assert_eq!(sub, vec![3, 4, 5]);
        let attrs = t.subtree_attrs(3, 0);
        assert!(attrs.contains(&AttrId(7))); // price
        assert!(attrs.contains(&AttrId(4))); // city
        assert!(!attrs.contains(&AttrId(5))); // family is under Items
    }

    #[test]
    fn edge_and_node_join_attrs() {
        let t = favorita_like();
        // Sales—Transactions share date and store.
        let shared = t.edge_join_attrs(0, 3);
        assert_eq!(shared.len(), 2);
        // Sales join attributes: date (Holidays/Transactions), store, item.
        let keys = t.node_join_attrs(0);
        assert_eq!(keys.len(), 3);
        // Oil only joins on date.
        assert_eq!(t.node_join_attrs(5), vec![AttrId(0)]);
    }

    #[test]
    fn bfs_order_from_root() {
        let t = favorita_like();
        let order = t.bfs_order(0);
        assert_eq!(order.len(), 6);
        assert_eq!(order[0], (0, usize::MAX));
        // every non-root node's parent appears before it
        for (i, &(node, parent)) in order.iter().enumerate().skip(1) {
            assert!(order[..i].iter().any(|&(n, _)| n == parent), "node {node}");
        }
    }
}
