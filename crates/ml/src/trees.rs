//! Classification and regression trees (CART) over LMFAO aggregate batches.
//!
//! The CART algorithm grows the tree one node at a time. At every node it
//! evaluates candidate split conditions `X op t` by their cost over the
//! fragment of the training dataset that satisfies the conditions on the
//! node's root-to-leaf path (Section 2, Eq. 8–10):
//!
//! * regression trees minimize the variance, which needs `COUNT`, `SUM(y)`
//!   and `SUM(y²)` restricted by the path and candidate conditions;
//! * classification trees minimize the Gini index (or entropy), which needs
//!   the per-class counts.
//!
//! All those restrictions are expressed as products of Kronecker-delta
//! indicator functions, so the cost of every candidate split of a node is
//! *one LMFAO batch* — the "RT" workload of Table 2. Nothing is ever
//! materialized.
//!
//! ## Plan once, split many
//!
//! The candidate set (thresholds per continuous feature, categories per
//! categorical feature) is fixed for the whole tree; only the root-to-node
//! path conditions differ between nodes, and they only select rows.
//! [`train_decision_tree`] therefore prepares **one** batch up front with no
//! path condition in it — the node statistics and one indicator per
//! candidate — and runs it at every node over that node's fragment of the
//! database: a child's batch is its parent's restricted by the split's
//! condition ([`PreparedBatch::restrict`]), which keeps the rows satisfying
//! it and semi-join reduces the rest of the join tree (Yannakakis). A node at
//! depth `d` thus scans about `1/2^d` of the fact rows, never the whole
//! database, and the optimizer layers never run again.
//!
//! [`train_decision_tree_replanned`] keeps the naïve strategy (embed the
//! path as static indicators and re-run the whole optimizer per node over
//! the whole database) as the reference the prepared path is validated
//! against. Both produce bit-identical trees at one thread, or while no
//! scanned relation spans more than one morsel (65 536 rows): a row the
//! restriction removes would have contributed an exact zero, and the
//! remaining rows are scanned in the same order. Past one morsel at more
//! threads, a restricted relation splits at other row boundaries than the
//! whole one, so its float partial sums may differ in the last bits.
//! [`DecisionTree::rows_scanned`] records what each read.

use lmfao_core::{BatchResult, Engine, EngineError, PreparedBatch};
use lmfao_data::{AttrId, Value};
use lmfao_expr::{Aggregate, CmpOp, DynamicRegistry, ProductTerm, QueryBatch, ScalarFunction};

/// Whether the tree predicts a continuous value or a category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeTask {
    /// Regression tree: minimize variance, predict the mean label.
    Regression,
    /// Classification tree: minimize the Gini index, predict the majority
    /// class. The label must be a categorical attribute.
    Classification,
}

/// Configuration of the CART learner (defaults follow the paper's setup:
/// depth 4 ⇒ at most 31 nodes, 20 buckets per continuous attribute, at least
/// 1000 tuples to split a node).
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Learning task.
    pub task: TreeTask,
    /// Maximum tree depth (number of split levels).
    pub max_depth: usize,
    /// Minimum number of (joined) tuples required to split a node.
    pub min_samples: usize,
    /// Number of candidate thresholds per continuous attribute.
    pub buckets: usize,
}

impl TreeConfig {
    /// The paper's regression-tree setup.
    pub fn regression() -> Self {
        TreeConfig {
            task: TreeTask::Regression,
            max_depth: 4,
            min_samples: 1_000,
            buckets: 20,
        }
    }

    /// The paper's classification-tree setup.
    pub fn classification() -> Self {
        TreeConfig {
            task: TreeTask::Classification,
            max_depth: 4,
            min_samples: 1_000,
            buckets: 20,
        }
    }
}

/// A split condition on a continuous or categorical attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitCondition {
    /// The attribute the condition tests.
    pub attr: AttrId,
    /// The comparison operator.
    pub op: CmpOp,
    /// The threshold (continuous) or category (categorical).
    pub value: Value,
}

impl SplitCondition {
    fn to_indicator(&self) -> ScalarFunction {
        ScalarFunction::Indicator {
            attr: self.attr,
            op: self.op,
            threshold: self.value,
        }
    }

    /// The negated condition (the other branch of the split).
    pub fn negate(&self) -> SplitCondition {
        SplitCondition {
            attr: self.attr,
            op: self.op.negate(),
            value: self.value,
        }
    }
}

/// A node of a learned decision tree.
#[derive(Debug, Clone)]
pub enum TreeNode {
    /// A leaf carrying a prediction (mean label or majority class code).
    Leaf {
        /// The prediction.
        prediction: f64,
        /// Number of training tuples that reached the leaf.
        support: f64,
    },
    /// An inner node splitting on a condition.
    Split {
        /// The split condition; tuples satisfying it go left.
        condition: SplitCondition,
        /// Subtree for tuples satisfying the condition.
        left: Box<TreeNode>,
        /// Subtree for the remaining tuples.
        right: Box<TreeNode>,
    },
}

impl TreeNode {
    /// Predicts the label of a tuple given an attribute-value lookup.
    pub fn predict<F>(&self, lookup: &F) -> f64
    where
        F: Fn(AttrId) -> Value,
    {
        match self {
            TreeNode::Leaf { prediction, .. } => *prediction,
            TreeNode::Split {
                condition,
                left,
                right,
            } => {
                if condition.op.apply(lookup(condition.attr), condition.value) {
                    left.predict(lookup)
                } else {
                    right.predict(lookup)
                }
            }
        }
    }

    /// Number of nodes in the (sub)tree.
    pub fn size(&self) -> usize {
        match self {
            TreeNode::Leaf { .. } => 1,
            TreeNode::Split { left, right, .. } => 1 + left.size() + right.size(),
        }
    }

    /// Depth of the (sub)tree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            TreeNode::Leaf { .. } => 1,
            TreeNode::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }
}

/// A learned decision tree together with bookkeeping about the batches that
/// built it.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    /// The root node.
    pub root: TreeNode,
    /// The learning task.
    pub task: TreeTask,
    /// The label attribute.
    pub label: AttrId,
    /// Total number of aggregate queries issued while learning.
    pub queries_issued: usize,
    /// Rows scanned while learning: the sum over nodes of the tuples in the
    /// database the node's batch executed over.
    pub rows_scanned: usize,
}

impl DecisionTree {
    /// Predicts the label of a tuple given an attribute-value lookup.
    pub fn predict<F>(&self, lookup: &F) -> f64
    where
        F: Fn(AttrId) -> Value,
    {
        self.root.predict(lookup)
    }

    /// Number of nodes.
    pub fn size(&self) -> usize {
        self.root.size()
    }
}

/// Per-node statistics extracted from a batch result.
#[derive(Debug, Clone, Copy)]
struct NodeStats {
    count: f64,
    sum: f64,
    sum_sq: f64,
}

impl NodeStats {
    fn variance(&self) -> f64 {
        if self.count <= 0.0 {
            0.0
        } else {
            self.sum_sq - self.sum * self.sum / self.count
        }
    }
}

fn conditions_term(conditions: &[SplitCondition]) -> ProductTerm {
    ProductTerm::of(
        conditions
            .iter()
            .map(SplitCondition::to_indicator)
            .collect(),
    )
}

/// Builds the per-node measure aggregates restricted by the product `alpha`:
/// `[COUNT·α, SUM(y)·α, SUM(y²)·α]` for regression (Eq. 8), the per-class
/// count `Q(label; α)` for classification (Eq. 9).
fn measure_aggregates(task: TreeTask, label: AttrId, alpha: ProductTerm) -> Vec<Aggregate> {
    match task {
        TreeTask::Regression => vec![
            Aggregate::product(alpha.clone()),
            Aggregate::product(alpha.clone().times(ScalarFunction::Identity(label))),
            Aggregate::product(alpha.times(ScalarFunction::Power {
                attr: label,
                exponent: 2,
            })),
        ],
        TreeTask::Classification => vec![Aggregate::product(alpha)],
    }
}

/// Pushes one node query (parent or candidate) onto the batch and returns its
/// position. Classification queries group by the label to obtain per-class
/// counts.
fn push_node_query(
    batch: &mut QueryBatch,
    name: String,
    task: TreeTask,
    label: AttrId,
    alpha: ProductTerm,
) -> usize {
    let group_by = match task {
        TreeTask::Regression => vec![],
        TreeTask::Classification => vec![label],
    };
    batch
        .push(name, group_by, measure_aggregates(task, label, alpha))
        .0
}

/// Gini impurity mass (impurity × count) from per-class counts.
fn gini_mass(class_counts: &[f64]) -> f64 {
    let n: f64 = class_counts.iter().sum();
    if n <= 0.0 {
        return 0.0;
    }
    let gini = 1.0
        - class_counts
            .iter()
            .map(|&c| {
                let p = c / n;
                p * p
            })
            .sum::<f64>();
    gini * n
}

/// Learns a decision tree over the engine's database. `features` are the
/// attributes that may be split on; `label` is the response (continuous for
/// regression, categorical for classification).
///
/// The candidate-split batch is planned **once** ([`Engine::prepare`]), with
/// no path condition in it. Each node executes that plan over its own rows:
/// a child restricts its parent's batch by the split's condition
/// ([`PreparedBatch::restrict`]), so a node scans only the rows that reach
/// it and the optimizer layers never run again during learning. The result
/// is bit-identical to [`train_decision_tree_replanned`] at one thread, or
/// while no scanned relation spans more than one morsel (65 536 rows); see
/// the module doc.
pub fn train_decision_tree(
    engine: &Engine,
    features: &[AttrId],
    label: AttrId,
    config: &TreeConfig,
) -> Result<DecisionTree, EngineError> {
    let schema = engine.database().schema().clone();
    let splits = candidate_splits(engine, &schema, features, config);

    // The single batch shared by every node: the node statistics plus one
    // query per candidate split, each over whatever rows the node holds.
    let mut batch = QueryBatch::new();
    let parent_query = push_node_query(
        &mut batch,
        "parent".to_string(),
        config.task,
        label,
        ProductTerm::one(),
    );
    let mut left_queries = Vec::with_capacity(splits.len());
    for split in &splits {
        let alpha = ProductTerm::single(split.to_indicator());
        let name = format!("split_{}", batch.len());
        left_queries.push(push_node_query(&mut batch, name, config.task, label, alpha));
    }

    let prepared = engine.prepare(&batch)?;
    let dynamics = DynamicRegistry::new();
    let is_classification = config.task == TreeTask::Classification;
    let (mut queries_issued, mut rows_scanned) = (0, 0);
    let root = grow(
        prepared,
        0,
        &splits,
        config,
        &mut |node: &PreparedBatch| {
            queries_issued += batch.len();
            rows_scanned += node.database().total_tuples();
            let result = node.execute(&dynamics)?;
            Ok(evaluate_node(
                is_classification,
                parent_query,
                &left_queries,
                &result,
            ))
        },
        &mut |parent: &PreparedBatch, condition: &SplitCondition| {
            parent.restrict(&[condition.to_indicator()])
        },
    )?;
    Ok(DecisionTree {
        root,
        task: config.task,
        label,
        queries_issued,
        rows_scanned,
    })
}

/// Learns a decision tree by re-running the whole optimizer for every node:
/// the path conditions are embedded as static indicator factors and a fresh
/// batch is planned and executed per node over the whole database. This is
/// the plan-per-node strategy, kept as the reference implementation the
/// prepared path is validated against (the two produce bit-identical trees
/// under the condition of [`train_decision_tree`]) and as the baseline of
/// perfbench's `ml.prepared_speedup`.
pub fn train_decision_tree_replanned(
    engine: &Engine,
    features: &[AttrId],
    label: AttrId,
    config: &TreeConfig,
) -> Result<DecisionTree, EngineError> {
    let schema = engine.database().schema().clone();
    let splits = candidate_splits(engine, &schema, features, config);
    let is_classification = config.task == TreeTask::Classification;
    let (mut queries_issued, mut rows_scanned) = (0, 0);
    let root = grow(
        Vec::new(),
        0,
        &splits,
        config,
        &mut |conditions: &Vec<SplitCondition>| {
            let mut batch = QueryBatch::new();
            let parent_query = push_node_query(
                &mut batch,
                "parent".to_string(),
                config.task,
                label,
                conditions_term(conditions),
            );
            let mut left_queries = Vec::with_capacity(splits.len());
            for split in &splits {
                let mut conds = conditions.clone();
                conds.push(split.clone());
                let name = format!("split_{}", batch.len());
                left_queries.push(push_node_query(
                    &mut batch,
                    name,
                    config.task,
                    label,
                    conditions_term(&conds),
                ));
            }
            queries_issued += batch.len();
            rows_scanned += engine.database().total_tuples();
            let result = engine.execute(&batch)?;
            Ok(evaluate_node(
                is_classification,
                parent_query,
                &left_queries,
                &result,
            ))
        },
        &mut |path: &Vec<SplitCondition>, condition: &SplitCondition| {
            let mut path = path.clone();
            path.push(condition.clone());
            Ok(path)
        },
    )?;
    Ok(DecisionTree {
        root,
        task: config.task,
        label,
        queries_issued,
        rows_scanned,
    })
}

/// Candidate thresholds of a continuous attribute: equi-width buckets between
/// the attribute's min and max in its base relation, rounded down and
/// deduplicated for an integer attribute.
fn thresholds(engine: &Engine, attr: AttrId, buckets: usize) -> Vec<Value> {
    for rel in engine.database().relations() {
        if let Some(col) = rel.position(attr) {
            if let Some((lo, hi)) = rel.min_max(col) {
                let ints = matches!((lo, hi), (Value::Int(_), Value::Int(_)));
                let (lo, hi) = (lo.as_f64(), hi.as_f64());
                if hi <= lo {
                    return vec![];
                }
                let cuts = (1..=buckets).map(|b| lo + (hi - lo) * b as f64 / (buckets + 1) as f64);
                // A threshold has the column's type: `Value`'s order ranks an
                // `Int` below every `Double`, so `Int(x) <= Double(t)` would
                // hold for every row.
                return if ints {
                    let mut cuts: Vec<Value> = cuts.map(|t| Value::Int(t.floor() as i64)).collect();
                    cuts.dedup();
                    cuts
                } else {
                    cuts.map(Value::Double).collect()
                };
            }
        }
    }
    vec![]
}

/// Categories of a categorical attribute (from its base relation).
fn categories(engine: &Engine, attr: AttrId) -> Vec<Value> {
    for rel in engine.database().relations() {
        if let Some(col) = rel.position(attr) {
            let mut cats = rel.distinct_values(col);
            cats.sort();
            return cats;
        }
    }
    vec![]
}

/// The fixed candidate set of the whole tree: equi-width thresholds per
/// continuous feature, one equality condition per category of a categorical
/// feature, in feature order. Candidates depend only on the base relations,
/// never on the node, which is what makes the one-prepared-batch design
/// possible.
fn candidate_splits(
    engine: &Engine,
    schema: &lmfao_data::DatabaseSchema,
    features: &[AttrId],
    config: &TreeConfig,
) -> Vec<SplitCondition> {
    let mut out = Vec::new();
    for &attr in features {
        if schema.attr_type(attr).is_categorical() {
            for value in categories(engine, attr) {
                out.push(SplitCondition {
                    attr,
                    op: CmpOp::Eq,
                    value,
                });
            }
        } else {
            for value in thresholds(engine, attr, config.buckets) {
                out.push(SplitCondition {
                    attr,
                    op: CmpOp::Le,
                    value,
                });
            }
        }
    }
    out
}

/// Node statistics extracted from one executed batch: the parent's cost,
/// support and prediction plus the best candidate (cost, index into the
/// candidate list), shared by the prepared and the re-planned paths.
struct NodeEval {
    parent_cost: f64,
    parent_count: f64,
    parent_prediction: f64,
    best: Option<(f64, usize)>,
}

fn evaluate_node(
    is_classification: bool,
    parent_query: usize,
    left_queries: &[usize],
    result: &BatchResult,
) -> NodeEval {
    // Parent statistics. Classes are read in value order, so the sums and a
    // tie for the majority do not depend on the result map's layout.
    let parent_result = &result.queries[parent_query];
    let mut parent_by_class: Vec<(&[Value], f64)> = if is_classification {
        parent_result
            .iter()
            .map(|(k, v)| (k.as_slice(), v[0]))
            .collect()
    } else {
        Vec::new()
    };
    parent_by_class.sort_by(|a, b| a.0.cmp(b.0));
    let parent = if is_classification {
        Vec::new()
    } else {
        parent_result.scalar()
    };
    let (parent_cost, parent_count, parent_prediction) = if is_classification {
        let counts: Vec<f64> = parent_by_class.iter().map(|(_, c)| *c).collect();
        let total: f64 = counts.iter().sum();
        // `max_by` keeps the last of equal maxima; reversed, that is the
        // smallest class.
        let majority = parent_by_class
            .iter()
            .rev()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(k, _)| k[0].as_f64())
            .unwrap_or(0.0);
        (gini_mass(&counts), total, majority)
    } else {
        let stats = NodeStats {
            count: parent[0],
            sum: parent[1],
            sum_sq: parent[2],
        };
        (
            stats.variance(),
            stats.count,
            if stats.count > 0.0 {
                stats.sum / stats.count
            } else {
                0.0
            },
        )
    };

    // Pick the candidate with the smallest total cost (left + right), where
    // the right side is obtained by subtracting the left from the parent.
    let mut best: Option<(f64, usize)> = None;
    for (idx, &left_query) in left_queries.iter().enumerate() {
        let cost = if is_classification {
            let left_counts: Vec<f64> = parent_by_class
                .iter()
                .map(|(k, _)| {
                    result.queries[left_query]
                        .get(k)
                        .map(|v| v[0])
                        .unwrap_or(0.0)
                })
                .collect();
            let right_counts: Vec<f64> = parent_by_class
                .iter()
                .zip(&left_counts)
                .map(|((_, p), l)| (p - l).max(0.0))
                .collect();
            let left_total: f64 = left_counts.iter().sum();
            let right_total: f64 = right_counts.iter().sum();
            if left_total < 1.0 || right_total < 1.0 {
                continue;
            }
            gini_mass(&left_counts) + gini_mass(&right_counts)
        } else {
            let s = result.queries[left_query].scalar();
            let left = NodeStats {
                count: s[0],
                sum: s[1],
                sum_sq: s[2],
            };
            let right = NodeStats {
                count: parent[0] - left.count,
                sum: parent[1] - left.sum,
                sum_sq: parent[2] - left.sum_sq,
            };
            if left.count < 1.0 || right.count < 1.0 {
                continue;
            }
            left.variance() + right.variance()
        };
        if best.is_none_or(|(c, _)| cost < c) {
            best = Some((cost, idx));
        }
    }

    NodeEval {
        parent_cost,
        parent_count,
        parent_prediction,
        best,
    }
}

/// Grows one node at `depth` (and recursively its subtrees). A node is
/// whatever state `S` a trainer keeps per node: `evaluate` computes its
/// statistics, `child` derives the state of the child a split condition
/// selects. The prepared and the re-planned trainers differ only in these.
/// A child is derived only once its left sibling's subtree is grown, so only
/// the states along the current path are alive.
fn grow<S>(
    node: S,
    depth: usize,
    splits: &[SplitCondition],
    config: &TreeConfig,
    evaluate: &mut impl FnMut(&S) -> Result<NodeEval, EngineError>,
    child: &mut impl FnMut(&S, &SplitCondition) -> Result<S, EngineError>,
) -> Result<TreeNode, EngineError> {
    let eval = evaluate(&node)?;
    let leaf = TreeNode::Leaf {
        prediction: eval.parent_prediction,
        support: eval.parent_count,
    };
    if depth >= config.max_depth || eval.parent_count < config.min_samples as f64 {
        return Ok(leaf);
    }
    match eval.best {
        Some((cost, idx)) if cost < eval.parent_cost - 1e-9 => {
            let condition = splits[idx].clone();
            let left = child(&node, &condition)?;
            let left = grow(left, depth + 1, splits, config, evaluate, child)?;
            let right = child(&node, &condition.negate())?;
            drop(node);
            let right = grow(right, depth + 1, splits, config, evaluate, child)?;
            Ok(TreeNode::Split {
                condition,
                left: Box::new(left),
                right: Box::new(right),
            })
        }
        _ => Ok(leaf),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_condition_negation_round_trips() {
        let c = SplitCondition {
            attr: AttrId(1),
            op: CmpOp::Le,
            value: Value::Double(5.0),
        };
        let n = c.negate();
        assert_eq!(n.op, CmpOp::Gt);
        assert_eq!(n.negate(), c);
    }

    #[test]
    fn gini_mass_is_zero_for_pure_nodes() {
        assert_eq!(gini_mass(&[10.0, 0.0]), 0.0);
        assert!(gini_mass(&[5.0, 5.0]) > 0.0);
        assert_eq!(gini_mass(&[]), 0.0);
    }

    #[test]
    fn node_stats_variance() {
        let s = NodeStats {
            count: 4.0,
            sum: 10.0,
            sum_sq: 30.0,
        };
        assert!((s.variance() - 5.0).abs() < 1e-12);
        assert_eq!(
            NodeStats {
                count: 0.0,
                sum: 0.0,
                sum_sq: 0.0
            }
            .variance(),
            0.0
        );
    }

    #[test]
    fn tree_node_predict_and_size() {
        let tree = TreeNode::Split {
            condition: SplitCondition {
                attr: AttrId(0),
                op: CmpOp::Le,
                value: Value::Double(1.0),
            },
            left: Box::new(TreeNode::Leaf {
                prediction: 10.0,
                support: 5.0,
            }),
            right: Box::new(TreeNode::Leaf {
                prediction: 20.0,
                support: 5.0,
            }),
        };
        assert_eq!(tree.size(), 3);
        assert_eq!(tree.depth(), 2);
        assert_eq!(tree.predict(&|_| Value::Double(0.5)), 10.0);
        assert_eq!(tree.predict(&|_| Value::Double(3.0)), 20.0);
    }

    /// A parent result of one classification node: `counts[i]` rows of
    /// class `Cat(classes[i])`.
    fn class_counts(classes: &[u32], counts: &[f64]) -> BatchResult {
        let data = classes
            .iter()
            .zip(counts)
            .map(|(&c, &n)| (vec![Value::Cat(c)], vec![n]))
            .collect();
        BatchResult {
            queries: vec![lmfao_core::QueryResult {
                name: "parent".to_string(),
                group_by: vec![AttrId(0)],
                num_aggregates: 1,
                data,
            }],
            stats: lmfao_core::EngineStats::default(),
        }
    }

    #[test]
    fn a_tied_majority_goes_to_the_smallest_class() {
        for a in 0..8 {
            for b in a + 1..8 {
                let eval = evaluate_node(true, 0, &[], &class_counts(&[b, a], &[3.0, 3.0]));
                assert_eq!(eval.parent_prediction, a as f64, "classes {a} and {b}");
                let eval = evaluate_node(true, 0, &[], &class_counts(&[a, b], &[3.0, 4.0]));
                assert_eq!(eval.parent_prediction, b as f64, "classes {a} and {b}");
            }
        }
        let eval = evaluate_node(true, 0, &[], &class_counts(&[7, 2, 5], &[2.0, 1.0, 2.0]));
        assert_eq!(eval.parent_prediction, 5.0);
        assert_eq!(eval.parent_count, 5.0);
    }

    #[test]
    fn regression_aggregates_have_three_entries() {
        let aggs = measure_aggregates(TreeTask::Regression, AttrId(9), conditions_term(&[]));
        assert_eq!(aggs.len(), 3);
        let with_cond = measure_aggregates(
            TreeTask::Regression,
            AttrId(9),
            conditions_term(&[SplitCondition {
                attr: AttrId(1),
                op: CmpOp::Le,
                value: Value::Double(3.0),
            }]),
        );
        // Each aggregate gains the indicator factor.
        assert_eq!(with_cond[0].terms[0].factors.len(), 1);
        assert_eq!(with_cond[1].terms[0].factors.len(), 2);
        // Classification nodes only need the per-class count.
        let class = measure_aggregates(TreeTask::Classification, AttrId(9), conditions_term(&[]));
        assert_eq!(class.len(), 1);
    }
}
