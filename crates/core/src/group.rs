//! The Group Views layer: cluster views into multi-output computational units.
//!
//! Views going out of the same join-tree node that do not depend on each
//! other (directly or transitively) are evaluated together in one scan over
//! that node's relation (Section 3.4). We assign each view a dependency
//! *stage* — 0 for views with no incoming views, otherwise one more than the
//! deepest stage among its dependencies — and group views by
//! `(source node, stage)`. Views in a group then provably have no
//! dependencies among themselves, and the group-level dependency graph is
//! acyclic, which is what the Parallelization layer schedules.

use crate::view::{ViewCatalog, ViewId};
use lmfao_data::FxHashMap;

/// A group of views computed together over the same relation.
#[derive(Debug, Clone)]
pub struct ViewGroup {
    /// Group index.
    pub id: usize,
    /// Join-tree node whose relation the group scans.
    pub node: usize,
    /// Dependency stage of the group (0 = leaf views).
    pub stage: usize,
    /// The views of the group.
    pub views: Vec<ViewId>,
}

/// The grouping of a view catalog plus the group-level dependency graph.
#[derive(Debug, Clone)]
pub struct Grouping {
    /// The groups, indexed by group id.
    pub groups: Vec<ViewGroup>,
    /// For each group, the groups it depends on.
    pub dependencies: Vec<Vec<usize>>,
    /// For each view, the group containing it.
    pub group_of_view: FxHashMap<ViewId, usize>,
}

impl Grouping {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True if there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// A topological order of the groups (dependencies first).
    pub fn topological_order(&self) -> Vec<usize> {
        let n = self.groups.len();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (g, deps) in self.dependencies.iter().enumerate() {
            indegree[g] = deps.len();
            for &d in deps {
                dependents[d].push(g);
            }
        }
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &d in &dependents[u] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    queue.push_back(d);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "group dependency graph has a cycle");
        order
    }

    /// The groups reachable *downstream* of `seeds` through the dependency
    /// graph — every group whose result (transitively) depends on a seed —
    /// including the seeds themselves, in topological order. This is the
    /// refresh frontier of incremental maintenance: when a base relation
    /// changes, only the groups scanning it (the seeds) and their transitive
    /// dependents need to run; every other group is provably unaffected.
    pub fn transitive_dependents(&self, seeds: &[usize]) -> Vec<usize> {
        let n = self.groups.len();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (g, deps) in self.dependencies.iter().enumerate() {
            for &d in deps {
                dependents[d].push(g);
            }
        }
        let mut reached = vec![false; n];
        let mut stack: Vec<usize> = seeds.to_vec();
        while let Some(g) = stack.pop() {
            if std::mem::replace(&mut reached[g], true) {
                continue;
            }
            stack.extend(dependents[g].iter().copied());
        }
        self.topological_order()
            .into_iter()
            .filter(|&g| reached[g])
            .collect()
    }
}

/// Groups the views of a catalog. When `multi_output` is false, every view
/// becomes its own group (the ablation baseline where each view gets its own
/// scan); the group dependency graph is built either way.
pub fn group_views(catalog: &ViewCatalog, multi_output: bool) -> Grouping {
    let order = catalog.topological_order();

    // Dependency stage per view.
    let mut stage: FxHashMap<ViewId, usize> = FxHashMap::default();
    for &v in &order {
        let deps = catalog.view(v).dependencies();
        let s = deps.iter().map(|d| stage[d] + 1).max().unwrap_or(0);
        stage.insert(v, s);
    }

    // Group by (node, stage) — or one group per view when multi-output is off.
    let mut groups: Vec<ViewGroup> = Vec::new();
    let mut group_of_view: FxHashMap<ViewId, usize> = FxHashMap::default();
    if multi_output {
        let mut key_to_group: FxHashMap<(usize, usize), usize> = FxHashMap::default();
        for &v in &order {
            let def = catalog.view(v);
            let key = (def.source, stage[&v]);
            let gid = *key_to_group.entry(key).or_insert_with(|| {
                groups.push(ViewGroup {
                    id: groups.len(),
                    node: def.source,
                    stage: stage[&v],
                    views: Vec::new(),
                });
                groups.len() - 1
            });
            groups[gid].views.push(v);
            group_of_view.insert(v, gid);
        }
    } else {
        for &v in &order {
            let def = catalog.view(v);
            let gid = groups.len();
            groups.push(ViewGroup {
                id: gid,
                node: def.source,
                stage: stage[&v],
                views: vec![v],
            });
            group_of_view.insert(v, gid);
        }
    }

    // Group-level dependency edges.
    let mut dependencies: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
    for group in &groups {
        for &v in &group.views {
            for dep in catalog.view(v).dependencies() {
                let dg = group_of_view[&dep];
                if dg != group.id && !dependencies[group.id].contains(&dg) {
                    dependencies[group.id].push(dg);
                }
            }
        }
    }

    Grouping {
        groups,
        dependencies,
        group_of_view,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{ViewAggregate, ViewTerm};
    use lmfao_data::AttrId;

    /// Builds a catalog shaped like Figure 3: a path A(0) — B(1) — C(2) with
    /// views flowing towards A for query 1 and towards C for query 2.
    fn figure_like_catalog() -> (ViewCatalog, Vec<ViewId>) {
        let mut cat = ViewCatalog::new();
        // Query 1 rooted at node 0: C→B, B→A, output at A.
        let c_to_b = cat.get_or_create(2, Some(1), vec![AttrId(2)]);
        cat.add_aggregate(c_to_b, ViewAggregate::count());
        let b_to_a = cat.get_or_create(1, Some(0), vec![AttrId(1)]);
        cat.add_aggregate(
            b_to_a,
            ViewAggregate::single(ViewTerm {
                constant: 1.0,
                local: vec![],
                child_refs: vec![(c_to_b, 0)],
            }),
        );
        let out_a = cat.get_or_create(0, None, vec![AttrId(0)]);
        cat.add_aggregate(
            out_a,
            ViewAggregate::single(ViewTerm {
                constant: 1.0,
                local: vec![],
                child_refs: vec![(b_to_a, 0)],
            }),
        );
        // Query 2 rooted at node 2: A→B, B→C, output at C.
        let a_to_b = cat.get_or_create(0, Some(1), vec![AttrId(1)]);
        cat.add_aggregate(a_to_b, ViewAggregate::count());
        let b_to_c = cat.get_or_create(1, Some(2), vec![AttrId(2)]);
        cat.add_aggregate(
            b_to_c,
            ViewAggregate::single(ViewTerm {
                constant: 1.0,
                local: vec![],
                child_refs: vec![(a_to_b, 0)],
            }),
        );
        let out_c = cat.get_or_create(2, None, vec![AttrId(2)]);
        cat.add_aggregate(
            out_c,
            ViewAggregate::single(ViewTerm {
                constant: 1.0,
                local: vec![],
                child_refs: vec![(b_to_c, 0)],
            }),
        );
        (cat, vec![c_to_b, b_to_a, out_a, a_to_b, b_to_c, out_c])
    }

    #[test]
    fn stages_separate_dependent_views_at_the_same_node() {
        let (cat, ids) = figure_like_catalog();
        let grouping = group_views(&cat, true);
        let [c_to_b, b_to_a, out_a, a_to_b, b_to_c, out_c] = ids[..] else {
            unreachable!()
        };
        // Views at node 2: c_to_b (stage 0) and out_c (stage 2) must be in
        // different groups; similarly for node 1 and node 0.
        assert_ne!(
            grouping.group_of_view[&c_to_b],
            grouping.group_of_view[&out_c]
        );
        assert_ne!(
            grouping.group_of_view[&a_to_b],
            grouping.group_of_view[&out_a]
        );
        // b_to_a and b_to_c are both at node 1 with stage 1: they share a group.
        assert_eq!(
            grouping.group_of_view[&b_to_a],
            grouping.group_of_view[&b_to_c]
        );
    }

    #[test]
    fn dependency_graph_is_acyclic_and_ordered() {
        let (cat, _) = figure_like_catalog();
        let grouping = group_views(&cat, true);
        let order = grouping.topological_order();
        assert_eq!(order.len(), grouping.len());
        // Each group appears after all its dependencies.
        let pos: FxHashMap<usize, usize> = order.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        for (g, deps) in grouping.dependencies.iter().enumerate() {
            for &d in deps {
                assert!(pos[&d] < pos[&g]);
            }
        }
    }

    #[test]
    fn single_view_groups_when_multi_output_disabled() {
        let (cat, _) = figure_like_catalog();
        let grouping = group_views(&cat, false);
        assert_eq!(grouping.len(), cat.len());
        assert!(grouping.groups.iter().all(|g| g.views.len() == 1));
        // Still topologically orderable.
        assert_eq!(grouping.topological_order().len(), cat.len());
    }

    #[test]
    fn groups_share_the_node_scan() {
        let (cat, _) = figure_like_catalog();
        let grouping = group_views(&cat, true);
        assert!(!grouping.is_empty());
        for g in &grouping.groups {
            for &v in &g.views {
                assert_eq!(cat.view(v).source, g.node);
            }
        }
        // 6 views collapse into 5 groups (the two node-1 stage-1 views merge).
        assert_eq!(grouping.len(), 5);
    }

    #[test]
    fn transitive_dependents_cover_the_refresh_frontier() {
        let (cat, ids) = figure_like_catalog();
        let grouping = group_views(&cat, true);
        let [c_to_b, b_to_a, out_a, a_to_b, _b_to_c, out_c] = ids[..] else {
            unreachable!()
        };
        // A change at node 2 (relation C) seeds the groups scanning node 2.
        let seeds: Vec<usize> = grouping
            .groups
            .iter()
            .filter(|g| g.node == 2)
            .map(|g| g.id)
            .collect();
        assert!(seeds.contains(&grouping.group_of_view[&c_to_b]));
        let frontier = grouping.transitive_dependents(&seeds);
        // Everything downstream of C→B must be in the frontier...
        for v in [c_to_b, b_to_a, out_a, out_c] {
            assert!(
                frontier.contains(&grouping.group_of_view[&v]),
                "view {v:?} must be refreshed"
            );
        }
        // ...but A→B does not depend on node 2 at all. (Its group also hosts
        // out_c's input b_to_c only if they share (node, stage); b_to_c is at
        // node 1 stage 1, a_to_b at node 0 stage 0 — distinct groups.)
        assert!(!frontier.contains(&grouping.group_of_view[&a_to_b]));
        // The frontier is in topological order.
        let pos: FxHashMap<usize, usize> =
            frontier.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        for &g in &frontier {
            for &d in &grouping.dependencies[g] {
                if let Some(&dp) = pos.get(&d) {
                    assert!(dp < pos[&g]);
                }
            }
        }
    }

    #[test]
    fn empty_catalog_groups_to_nothing() {
        let cat = ViewCatalog::new();
        let grouping = group_views(&cat, true);
        assert!(grouping.is_empty());
        assert!(grouping.topological_order().is_empty());
    }
}
