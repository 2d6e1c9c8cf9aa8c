//! Classification and regression trees (CART) over LMFAO aggregate batches.
//!
//! The CART algorithm grows the tree one node at a time. At every node it
//! evaluates candidate split conditions `X op t` by their cost over the
//! fragment of the training dataset that satisfies the conditions on the
//! node's root-to-leaf path (Section 2, Eq. 8–10):
//!
//! * regression trees minimize the variance, which needs `COUNT`, `SUM(y)`
//!   and `SUM(y²)` over the candidate's side of the split;
//! * classification trees minimize the Gini index, which needs the
//!   per-class counts, `COUNT·1[label = c]` for every class `c`.
//!
//! These are the node's *measures*. The costs of every candidate split of a
//! node are *one LMFAO batch* of group-by aggregates — the "RT" workload of
//! Table 2. Nothing is ever materialized.
//!
//! ## One grouped query per feature
//!
//! The candidate set is fixed for the whole tree: equi-width thresholds
//! `X ≤ t` per continuous feature, one `X = c` per category of a categorical
//! one. A node's batch holds the node's measures (the parent query) and, per
//! feature, one query `GROUP BY X` carrying the same measures. Walking its
//! groups in value order with running sums gives every threshold's left side
//! (a prefix) and every category's (its own group). The right side is the
//! parent minus the left. The roots layer evaluates each grouped query at
//! the relation that holds `X` (Section 3.3), so only the measures cross the
//! fact scan. A feature without candidates (a constant column) asks nothing.
//!
//! A feature that is a column of the largest relation keeps one scalar query
//! `measures · 1[X op t]` per candidate instead. There an indicator is a
//! cheap local factor of the scan, while a group-by would hash and emit once
//! per fact row (with almost as many groups as rows on a continuous fact
//! column). On Retailer, whose features all live in dimensions, a node's
//! batch is 12 queries for 110 candidates.
//!
//! ## Plan once, split many
//!
//! Only the root-to-node path conditions differ between nodes, and they
//! only select rows. [`train_decision_tree`] therefore prepares **one** batch
//! up front with no path condition in it and runs it over a node's fragment
//! of the database whenever a node has to execute: a node's batch is its
//! nearest executed ancestor's restricted by the split conditions between
//! the two ([`PreparedBatch::restrict`]), which keeps the rows satisfying
//! them and semi-join reduces the rest of the join tree (Yannakakis). A
//! restriction composes, so this holds the rows a chain of one restriction
//! per split would, in the same order. A node at depth `d` thus scans about
//! `1/2^d` of the fact rows, never the whole database, and the optimizer
//! layers never run again. A batch exists only for a node that executes.
//!
//! [`PreparedBatch::restrict`]: lmfao_core::PreparedBatch::restrict
//!
//! ## Settled without a scan
//!
//! A split partitions its node's tuples, and every measure is a sum over
//! them, so a child's statistics are mostly known before it runs:
//!
//! * a child that is bound to be a leaf (it sits at `max_depth`, or holds
//!   fewer than `min_samples` tuples) takes its support and prediction from
//!   the chosen candidate: the left side for the left child, the parent
//!   minus the left side for the right one. It is never restricted or
//!   executed;
//! * of two children that may split, only the one with fewer tuples (the
//!   left one on a tie) executes. The other one's measures and every
//!   candidate's left side are the parent's minus its sibling's.
//!
//! So at most one node per split executes besides the root, and never a
//! node at `max_depth`: depth-4 Retailer trees of 15–27 nodes (20 000 fact
//! rows) execute 5 to 8 of them ([`DecisionTree::nodes_executed`]). The differences are exact for an
//! integer label and for class counts; for a float label they may differ
//! from a direct sum in the last bits.
//!
//! [`train_decision_tree_replanned`] keeps the naïve strategy (embed the
//! path as static indicators and re-run the whole optimizer per executed
//! node over the whole database) as the reference the prepared path is
//! validated against. Both run one learner and differ only in what they keep
//! per executed node and how they execute one (a restricted batch, or a
//! path re-planned over the whole database). They produce bit-identical trees
//! at one thread, or while no scanned relation spans more than one morsel
//! (65 536 rows): a row the restriction removes would have contributed an
//! exact zero to its group, and the remaining rows are scanned in the same
//! order. Past one morsel at more threads, a restricted relation splits at
//! other row boundaries than the whole one, so its float partial sums may
//! differ in the last bits. [`DecisionTree::rows_scanned`] records what each
//! read.

use std::ops::Range;

use lmfao_core::{BatchResult, Engine, EngineError, PreparedBatch, QueryResult};
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
    /// Nodes whose batch executed while learning: the root, and of the
    /// children of a split those its statistics did not settle (see the
    /// module doc). At most one per split plus the root, and never a node at
    /// `max_depth`.
    pub nodes_executed: usize,
    /// Total number of aggregate queries issued while learning:
    /// [`nodes_executed`](Self::nodes_executed) times the batch length, which
    /// is one query for the node's measures, one per feature grouped by it,
    /// and one per candidate of a feature that is a column of the largest
    /// relation.
    pub queries_issued: usize,
    /// Rows scanned while learning: the sum over the executed nodes of the
    /// tuples in the database the node's batch executed over.
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

/// Regression statistics of one side of a split (or of a node).
#[derive(Debug, Clone, Copy)]
struct NodeStats {
    count: f64,
    sum: f64,
    sum_sq: f64,
}

impl NodeStats {
    /// Reads `[COUNT, SUM(y), SUM(y²)]`.
    fn of(measures: &[f64]) -> Self {
        NodeStats {
            count: measures[0],
            sum: measures[1],
            sum_sq: measures[2],
        }
    }

    fn variance(&self) -> f64 {
        if self.count <= 0.0 {
            0.0
        } else {
            self.sum_sq - self.sum * self.sum / self.count
        }
    }
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

/// One feature's candidates, a range of the tree's candidate list, and how
/// the batch asks for them.
#[derive(Debug)]
struct FeatureCandidates {
    attr: AttrId,
    splits: Range<usize>,
    /// One `GROUP BY attr` query read by running sums, or (for a column of
    /// the largest relation) one indicator query per candidate.
    grouped: bool,
}

/// What a tree asks at every node: its candidate splits by feature and the
/// measures every query carries. It depends only on the base relations,
/// never on the node, which is what makes the one-prepared-batch design
/// possible.
#[derive(Debug)]
struct CandidatePlan {
    task: TreeTask,
    label: AttrId,
    /// The label's classes in value order (classification only).
    classes: Vec<Value>,
    /// Every candidate split, feature by feature; a feature's thresholds
    /// ascend.
    splits: Vec<SplitCondition>,
    /// The features with at least one candidate, in the caller's order.
    features: Vec<FeatureCandidates>,
}

impl CandidatePlan {
    /// Equi-width thresholds per continuous feature and one equality per
    /// category of a categorical feature. A feature is grouped unless the
    /// database's largest relation holds it.
    fn new(engine: &Engine, features: &[AttrId], label: AttrId, config: &TreeConfig) -> Self {
        let db = engine.database();
        let schema = db.schema();
        let largest = db.relations().iter().max_by_key(|rel| rel.len());
        let classes = match config.task {
            TreeTask::Regression => Vec::new(),
            TreeTask::Classification => categories(engine, label),
        };
        let mut plan = CandidatePlan {
            task: config.task,
            label,
            classes,
            splits: Vec::new(),
            features: Vec::new(),
        };
        for &attr in features {
            let (op, values) = if schema.attr_type(attr).is_categorical() {
                (CmpOp::Eq, categories(engine, attr))
            } else {
                (CmpOp::Le, thresholds(engine, attr, config.buckets))
            };
            if values.is_empty() {
                continue;
            }
            let start = plan.splits.len();
            plan.splits.extend(
                values
                    .into_iter()
                    .map(|value| SplitCondition { attr, op, value }),
            );
            plan.features.push(FeatureCandidates {
                attr,
                splits: start..plan.splits.len(),
                grouped: largest.is_none_or(|rel| rel.position(attr).is_none()),
            });
        }
        plan
    }

    /// The node's measures over the tuples `alpha` selects: `[COUNT·α,
    /// SUM(y)·α, SUM(y²)·α]` for regression (Eq. 8), `COUNT·α·1[label = c]`
    /// per class for classification (Eq. 9).
    fn measures(&self, alpha: &ProductTerm) -> Vec<Aggregate> {
        let label = self.label;
        match self.task {
            TreeTask::Regression => vec![
                Aggregate::product(alpha.clone()),
                Aggregate::product(alpha.clone().times(ScalarFunction::Identity(label))),
                Aggregate::product(alpha.clone().times(ScalarFunction::Power {
                    attr: label,
                    exponent: 2,
                })),
            ],
            TreeTask::Classification => self
                .classes
                .iter()
                .map(|&class| {
                    Aggregate::product(alpha.clone().times(ScalarFunction::Indicator {
                        attr: label,
                        op: CmpOp::Eq,
                        threshold: class,
                    }))
                })
                .collect(),
        }
    }

    /// The batch of a node whose tuples `alpha` selects: the parent query,
    /// then per feature its grouped query or its indicator queries.
    fn batch(&self, alpha: &ProductTerm) -> QueryBatch {
        let mut batch = QueryBatch::new();
        batch.push("parent", vec![], self.measures(alpha));
        for feature in &self.features {
            if feature.grouped {
                let name = format!("group_{}", batch.len());
                batch.push(name, vec![feature.attr], self.measures(alpha));
                continue;
            }
            for split in &self.splits[feature.splits.clone()] {
                let alpha = alpha.clone().times(split.to_indicator());
                let name = format!("split_{}", batch.len());
                batch.push(name, vec![], self.measures(&alpha));
            }
        }
        batch
    }

    /// Reads the node's measures and every candidate's left side from the
    /// executed [`CandidatePlan::batch`].
    fn statistics(&self, result: &BatchResult) -> NodeStatistics {
        let mut queries = result.queries.iter();
        let parent = queries.next().expect("the parent query").scalar();
        let mut left = Vec::with_capacity(self.splits.len());
        for feature in &self.features {
            let splits = &self.splits[feature.splits.clone()];
            if !feature.grouped {
                left.extend(queries.by_ref().take(splits.len()).map(QueryResult::scalar));
                continue;
            }
            let groups = queries.next().expect("one query per grouped feature");
            let mut sorted: Vec<(Value, &[f64])> = groups
                .iter()
                .map(|(key, measures)| (key[0], measures.as_slice()))
                .collect();
            sorted.sort_unstable_by_key(|group| group.0);
            let mut sorted = sorted.into_iter().peekable();
            let mut prefix = vec![0.0; parent.len()];
            for split in splits {
                if split.op == CmpOp::Eq {
                    let group = groups.get(&[split.value]);
                    left.push(group.map_or_else(|| vec![0.0; parent.len()], <[f64]>::to_vec));
                    continue;
                }
                // `Le` thresholds ascend: each one's prefix extends the last.
                while let Some((_, measures)) = sorted.next_if(|(x, _)| *x <= split.value) {
                    for (p, m) in prefix.iter_mut().zip(measures) {
                        *p += m;
                    }
                }
                left.push(prefix.clone());
            }
        }
        NodeStatistics { parent, left }
    }
}

/// A node's measures and the left side's measures of every candidate, in
/// candidate order. The right side is the parent minus the left.
#[derive(Debug)]
struct NodeStatistics {
    parent: Vec<f64>,
    left: Vec<Vec<f64>>,
}

impl NodeStatistics {
    /// `self − child`, element-wise over the measures and every candidate's
    /// left side: the statistics of `child`'s sibling when `self` are its
    /// parent's. Exact as far as the sums are, for every measure is a sum
    /// over the node's tuples, which a split partitions.
    fn minus(&self, child: &NodeStatistics) -> NodeStatistics {
        NodeStatistics {
            parent: minus(&self.parent, &child.parent),
            left: self
                .left
                .iter()
                .zip(&child.left)
                .map(|(parent, child)| minus(parent, child))
                .collect(),
        }
    }
}

/// Learns a decision tree over the engine's database. `features` are the
/// attributes that may be split on; `label` is the response (continuous for
/// regression, categorical for classification).
///
/// The candidate batch — the node's measures plus one `GROUP BY X` query per
/// feature, or one indicator query per candidate for a column of the largest
/// relation (see the module doc) — is planned **once** ([`Engine::prepare`]),
/// with no path condition in it. A node that executes runs that plan over its
/// own rows: its nearest executed ancestor's batch restricted by the split
/// conditions between the two ([`PreparedBatch::restrict`]), in one step, so
/// a node scans only the rows that reach it and the optimizer layers never
/// run again during learning. Children are settled from their parent's
/// statistics where they can be: a child bound to be a leaf never executes,
/// and of two children that may split only the smaller one does; a node that
/// does not execute is never restricted. The result is bit-identical to
/// [`train_decision_tree_replanned`] at one thread, or while no scanned
/// relation spans more than one morsel (65 536 rows); see the module doc.
///
/// [`PreparedBatch::restrict`]: lmfao_core::PreparedBatch::restrict
pub fn train_decision_tree(
    engine: &Engine,
    features: &[AttrId],
    label: AttrId,
    config: &TreeConfig,
) -> Result<DecisionTree, EngineError> {
    let plan = CandidatePlan::new(engine, features, label, config);
    let prepared = engine.prepare(&plan.batch(&ProductTerm::one()))?;
    let dynamics = DynamicRegistry::new();
    learn(&plan, config, prepared, |anchor, conditions| {
        execute_restricted(&plan, &dynamics, anchor, conditions)
    })
}

/// The step [`train_decision_tree`] hands to `learn`: a node's batch is its
/// nearest executed ancestor's batch `anchor` restricted by the split
/// `conditions` between the two (the root's is the prepared batch itself,
/// never restricted), executed once. Returns the batch, the node's statistics
/// and the tuples of the database it read.
fn execute_restricted(
    plan: &CandidatePlan,
    dynamics: &DynamicRegistry,
    anchor: &PreparedBatch,
    conditions: &[SplitCondition],
) -> Result<(PreparedBatch, NodeStatistics, usize), EngineError> {
    let node = match conditions {
        [] => anchor.clone(),
        _ => anchor.restrict(&indicators(conditions))?,
    };
    let rows = node.database().total_tuples();
    let stats = plan.statistics(&node.execute(dynamics)?);
    Ok((node, stats, rows))
}

/// Learns a decision tree by re-running the whole optimizer for every node
/// that executes: the path conditions are embedded as static indicator
/// factors and a fresh batch is planned and executed per node over the whole
/// database. Children are settled as in [`train_decision_tree`]. This is
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
    let plan = CandidatePlan::new(engine, features, label, config);
    learn(&plan, config, ProductTerm::one(), |anchor, conditions| {
        let path = indicators(conditions)
            .into_iter()
            .fold(anchor.clone(), ProductTerm::times);
        let stats = plan.statistics(&engine.execute(&plan.batch(&path))?);
        Ok((path, stats, engine.database().total_tuples()))
    })
}

/// The learner both trainers share. They differ only in the state `S` they
/// keep per executed node and in `execute`: it builds a node's state from its
/// nearest executed ancestor's and the split conditions between the two (the
/// root's from `root` and no condition), executes the node's batch over it,
/// and returns the state, the node's statistics and the tuples of the
/// database the batch read.
fn learn<S>(
    plan: &CandidatePlan,
    config: &TreeConfig,
    root: S,
    mut execute: impl FnMut(&S, &[SplitCondition]) -> Result<(S, NodeStatistics, usize), EngineError>,
) -> Result<DecisionTree, EngineError> {
    let (mut nodes_executed, mut rows_scanned) = (0, 0);
    let mut execute = |anchor: &S, conditions: &[SplitCondition]| {
        let (node, stats, rows) = execute(anchor, conditions)?;
        nodes_executed += 1;
        rows_scanned += rows;
        Ok((node, stats))
    };
    let (root, stats) = execute(&root, &[])?;
    let tree = grow(&root, &[], stats, 0, plan, config, &mut execute)?;
    Ok(DecisionTree {
        root: tree,
        task: config.task,
        label: plan.label,
        nodes_executed,
        queries_issued: nodes_executed * plan.batch(&ProductTerm::one()).len(),
        rows_scanned,
    })
}

/// The indicators of `conditions`, in order.
fn indicators(conditions: &[SplitCondition]) -> Vec<ScalarFunction> {
    conditions
        .iter()
        .map(SplitCondition::to_indicator)
        .collect()
}

/// Candidate thresholds of a continuous attribute, in ascending order:
/// equi-width buckets between the attribute's min and max in its base
/// relation, rounded down and deduplicated for an integer attribute. A
/// constant attribute has none.
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

/// Categories of a categorical attribute (from its base relation), in value
/// order.
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

/// What a node's measures say about it: its cost (the variance mass or the
/// Gini mass), its support, and its prediction (the mean label or the
/// majority class).
struct Summary {
    cost: f64,
    count: f64,
    prediction: f64,
}

impl Summary {
    /// The leaf such a node becomes.
    fn leaf(&self) -> TreeNode {
        TreeNode::Leaf {
            prediction: self.prediction,
            support: self.count,
        }
    }
}

impl CandidatePlan {
    fn summary(&self, measures: &[f64]) -> Summary {
        if self.task == TreeTask::Classification {
            // Classes are in value order. `max_by` keeps the last of equal
            // maxima; reversed, that is the smallest class.
            let majority = self
                .classes
                .iter()
                .zip(measures)
                .rev()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(class, _)| class.as_f64())
                .unwrap_or(0.0);
            return Summary {
                cost: gini_mass(measures),
                count: measures.iter().sum(),
                prediction: majority,
            };
        }
        let stats = NodeStats::of(measures);
        let mean = if stats.count > 0.0 {
            stats.sum / stats.count
        } else {
            0.0
        };
        Summary {
            cost: stats.variance(),
            count: stats.count,
            prediction: mean,
        }
    }

    /// The candidate with the smallest total cost (left + right, where the
    /// right side is the parent minus the left) among those leaving a tuple
    /// on each side, as `(cost, index into the candidate list)`.
    fn best_split(&self, stats: &NodeStatistics) -> Option<(f64, usize)> {
        let parent = &stats.parent;
        let mut best: Option<(f64, usize)> = None;
        for (idx, left) in stats.left.iter().enumerate() {
            let cost = if self.task == TreeTask::Classification {
                let right: Vec<f64> = parent
                    .iter()
                    .zip(left)
                    .map(|(p, l)| (p - l).max(0.0))
                    .collect();
                let left_total: f64 = left.iter().sum();
                let right_total: f64 = right.iter().sum();
                if left_total < 1.0 || right_total < 1.0 {
                    continue;
                }
                gini_mass(left) + gini_mass(&right)
            } else {
                let (parent, left) = (NodeStats::of(parent), NodeStats::of(left));
                let right = NodeStats {
                    count: parent.count - left.count,
                    sum: parent.sum - left.sum,
                    sum_sq: parent.sum_sq - left.sum_sq,
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
        best
    }
}

impl TreeConfig {
    /// Whether a node at `depth` holding `count` tuples is a leaf whatever
    /// its candidates say.
    fn is_leaf(&self, depth: usize, count: f64) -> bool {
        depth >= self.max_depth || count < self.min_samples as f64
    }
}

/// Grows the node at `depth`, whose statistics are `stats`, and recursively
/// its subtrees. The node is reached from `anchor`, the state of its nearest
/// executed ancestor (or its own, if it executed), by the split conditions
/// `pending`. `execute` builds and executes the state of a node from such an
/// anchor and conditions, and returns it with the node's statistics; the
/// prepared and the re-planned trainers differ only in it.
///
/// A split settles its children from `stats` (see the module doc): a child
/// that is bound to be a leaf takes its measures from the chosen candidate,
/// and of two children that may split only the one with fewer tuples (the
/// left one on a tie) executes, the other one's statistics being the
/// parent's minus its sibling's. A node that does not execute gets no
/// state: its children that execute start from its own `anchor`. Only the
/// statistics and the executed states along the current path are alive.
fn grow<S>(
    anchor: &S,
    pending: &[SplitCondition],
    stats: NodeStatistics,
    depth: usize,
    plan: &CandidatePlan,
    config: &TreeConfig,
    execute: &mut impl FnMut(&S, &[SplitCondition]) -> Result<(S, NodeStatistics), EngineError>,
) -> Result<TreeNode, EngineError> {
    let summary = plan.summary(&stats.parent);
    if config.is_leaf(depth, summary.count) {
        return Ok(summary.leaf());
    }
    let idx = match plan.best_split(&stats) {
        Some((cost, idx)) if cost < summary.cost - 1e-9 => idx,
        _ => return Ok(summary.leaf()),
    };
    let condition = plan.splits[idx].clone();
    let left = plan.summary(&stats.left[idx]);
    let right = plan.summary(&minus(&stats.parent, &stats.left[idx]));
    let (left_leaf, right_leaf) = (
        config.is_leaf(depth + 1, left.count),
        config.is_leaf(depth + 1, right.count),
    );
    if left_leaf && right_leaf {
        return Ok(TreeNode::Split {
            condition,
            left: Box::new(left.leaf()),
            right: Box::new(right.leaf()),
        });
    }
    // The child that executes: the only one that may split, or else the one
    // with fewer tuples.
    let run_left = right_leaf || (!left_leaf && left.count <= right.count);
    let (run, other, other_leaf, other_summary) = if run_left {
        (condition.clone(), condition.negate(), right_leaf, right)
    } else {
        (condition.negate(), condition.clone(), left_leaf, left)
    };
    let (run_state, run_stats) = execute(anchor, &[pending, &[run]].concat())?;
    let other_stats = (!other_leaf).then(|| stats.minus(&run_stats));
    drop(stats);
    let run = grow(&run_state, &[], run_stats, depth + 1, plan, config, execute)?;
    drop(run_state);
    let other = match other_stats {
        Some(other_stats) => grow(
            anchor,
            &[pending, &[other]].concat(),
            other_stats,
            depth + 1,
            plan,
            config,
            execute,
        )?,
        None => other_summary.leaf(),
    };
    let (left, right) = if run_left { (run, other) } else { (other, run) };
    Ok(TreeNode::Split {
        condition,
        left: Box::new(left),
        right: Box::new(right),
    })
}

/// `a − b`, element-wise.
fn minus(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(a, b)| a - b).collect()
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

    /// A classification plan over the given classes, with no candidate.
    fn class_plan(classes: &[u32]) -> CandidatePlan {
        CandidatePlan {
            task: TreeTask::Classification,
            label: AttrId(0),
            classes: classes.iter().map(|&c| Value::Cat(c)).collect(),
            splits: Vec::new(),
            features: Vec::new(),
        }
    }

    /// Summarizes a classification node holding `counts[i]` rows of the
    /// `i`-th of `classes` (which ascend).
    fn class_node(classes: &[u32], counts: &[f64]) -> Summary {
        class_plan(classes).summary(counts)
    }

    #[test]
    fn a_tied_majority_goes_to_the_smallest_class() {
        for a in 0..8 {
            for b in a + 1..8 {
                let node = class_node(&[a, b], &[3.0, 3.0]);
                assert_eq!(node.prediction, a as f64, "classes {a} and {b}");
                let node = class_node(&[a, b], &[3.0, 4.0]);
                assert_eq!(node.prediction, b as f64, "classes {a} and {b}");
            }
        }
        let node = class_node(&[2, 5, 7], &[1.0, 2.0, 2.0]);
        assert_eq!(node.prediction, 5.0);
        assert_eq!(node.count, 5.0);
    }

    #[test]
    fn regression_aggregates_have_three_entries() {
        let mut plan = class_plan(&[]);
        plan.task = TreeTask::Regression;
        plan.label = AttrId(9);
        let aggs = plan.measures(&ProductTerm::one());
        assert_eq!(aggs.len(), 3);
        let condition = SplitCondition {
            attr: AttrId(1),
            op: CmpOp::Le,
            value: Value::Double(3.0),
        };
        let with_cond = plan.measures(&ProductTerm::single(condition.to_indicator()));
        // Each aggregate gains the indicator factor.
        assert_eq!(with_cond[0].terms[0].factors.len(), 1);
        assert_eq!(with_cond[1].terms[0].factors.len(), 2);
        // Classification nodes need one count per class.
        let class = class_plan(&[0, 1, 2]).measures(&ProductTerm::one());
        assert_eq!(class.len(), 3);
        assert_eq!(class[2].terms[0].factors.len(), 1);
    }

    /// `Fact(key, y)` of 400 rows and `Dim(key, x, constant)` of 40, where
    /// `constant` holds one value.
    fn constant_column_engine() -> (Engine, AttrId, AttrId, AttrId) {
        use lmfao_data::{AttrType, Database, DatabaseSchema, Relation};
        use lmfao_jointree::{build_join_tree, Hypergraph};
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs("Fact", &[("key", AttrType::Int), ("y", AttrType::Double)]);
        schema.add_relation_with_attrs(
            "Dim",
            &[
                ("key", AttrType::Int),
                ("x", AttrType::Double),
                ("constant", AttrType::Double),
            ],
        );
        let attr = |name| schema.attr_id(name).unwrap();
        let (x, constant, y) = (attr("x"), attr("constant"), attr("y"));
        let dim_rows = (0..40)
            .map(|k| {
                vec![
                    Value::Int(k),
                    Value::Double((k % 7) as f64),
                    Value::Double(1.0),
                ]
            })
            .collect();
        let fact_rows = (0..400)
            .map(|i| vec![Value::Int(i % 40), Value::Double((i % 40 % 7 * 3) as f64)])
            .collect();
        let fact = Relation::from_rows(schema.relation("Fact").unwrap().clone(), fact_rows);
        let dim = Relation::from_rows(schema.relation("Dim").unwrap().clone(), dim_rows);
        let db = Database::new(schema.clone(), vec![fact.unwrap(), dim.unwrap()]).unwrap();
        let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
        let engine = Engine::new(db, tree, lmfao_core::EngineConfig::default());
        (engine, x, constant, y)
    }

    #[test]
    fn a_constant_feature_asks_nothing() {
        let (engine, x, constant, y) = constant_column_engine();
        let config = TreeConfig {
            task: TreeTask::Regression,
            max_depth: 2,
            min_samples: 10,
            buckets: 4,
        };
        assert!(thresholds(&engine, constant, config.buckets).is_empty());
        let plan = CandidatePlan::new(&engine, &[constant, x], y, &config);
        assert_eq!(plan.features.len(), 1);
        assert_eq!(plan.features[0].attr, x);
        assert!(plan.features[0].grouped, "Dim is not the largest relation");
        assert_eq!(plan.batch(&ProductTerm::one()).len(), 2);

        let alone = train_decision_tree(&engine, &[constant], y, &config).unwrap();
        let shape = |tree: &DecisionTree| (tree.size(), tree.nodes_executed, tree.queries_issued);
        assert_eq!(shape(&alone), (1, 1, 1));
        let tree = train_decision_tree(&engine, &[constant, x], y, &config).unwrap();
        assert!(tree.size() > 1, "x separates the labels");
        assert_eq!(tree.queries_issued, tree.nodes_executed * 2);
        assert!(tree.nodes_executed <= 1 + (tree.size() - 1) / 2);
        // The root's children sit at `max_depth`: their statistics are the
        // root's, so only the root executes.
        let stump = TreeConfig {
            max_depth: 1,
            ..config
        };
        let stump = train_decision_tree(&engine, &[constant, x], y, &stump).unwrap();
        assert_eq!(shape(&stump), (3, 1, 2));
    }

    /// The batch the learner asked before it grouped by feature, kept as the
    /// oracle of [`CandidatePlan::statistics`]: the node's measures, then one
    /// query per candidate carrying its indicator; a classification query
    /// groups by the label.
    fn per_candidate_batch(plan: &CandidatePlan) -> QueryBatch {
        let label = plan.label;
        let mut batch = QueryBatch::new();
        for alpha in std::iter::once(ProductTerm::one()).chain(
            plan.splits
                .iter()
                .map(|split| ProductTerm::single(split.to_indicator())),
        ) {
            let (group_by, aggregates) = match plan.task {
                TreeTask::Regression => (
                    vec![],
                    vec![
                        Aggregate::product(alpha.clone()),
                        Aggregate::product(alpha.clone().times(ScalarFunction::Identity(label))),
                        Aggregate::product(alpha.times(ScalarFunction::Power {
                            attr: label,
                            exponent: 2,
                        })),
                    ],
                ),
                TreeTask::Classification => (vec![label], vec![Aggregate::product(alpha)]),
            };
            batch.push(format!("q{}", batch.len()), group_by, aggregates);
        }
        batch
    }

    /// Asserts that the grouped batch and the per-candidate oracle, both
    /// restricted to `path`, give every candidate bit-equal left measures.
    fn assert_grouped_matches_oracle(
        engine: &Engine,
        plan: &CandidatePlan,
        path: &[SplitCondition],
    ) {
        let conditions: Vec<ScalarFunction> =
            path.iter().map(SplitCondition::to_indicator).collect();
        let run = |batch: &QueryBatch| {
            let node = engine
                .prepare(batch)
                .unwrap()
                .restrict(&conditions)
                .unwrap();
            node.execute(&DynamicRegistry::new()).unwrap()
        };
        let stats = plan.statistics(&run(&plan.batch(&ProductTerm::one())));
        let oracle = run(&per_candidate_batch(plan));
        let measures = |query: &QueryResult| match plan.task {
            TreeTask::Regression => query.scalar(),
            TreeTask::Classification => plan
                .classes
                .iter()
                .map(|&class| query.get(&[class]).map_or(0.0, |v| v[0]))
                .collect(),
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&stats.parent), bits(&measures(&oracle.queries[0])));
        assert!(stats.parent[0] > 0.0, "the node {path:?} holds rows");
        assert_eq!(stats.left.len(), plan.splits.len());
        for ((left, query), split) in stats
            .left
            .iter()
            .zip(&oracle.queries[1..])
            .zip(&plan.splits)
        {
            assert_eq!(
                bits(left),
                bits(&measures(query)),
                "{split:?} under {path:?}"
            );
        }
    }

    #[test]
    fn grouped_statistics_equal_the_per_candidate_queries() {
        use lmfao_datagen::{retailer, tpcds, Scale};
        // Retailer's label is integer-valued, so every sum is exact and the
        // running sums over groups equal the indicator queries bit for bit.
        let ds = retailer::generate(Scale::new(3_000, 5));
        let features: Vec<AttrId> = [
            "avghhi",
            "tot_area_sq_ft",
            "sell_area_sq_ft",
            "distance_comp",
            "population",
            "medianage",
            "households",
            "maxtemp",
            "mintemp",
            "meanwind",
            "prices",
        ]
        .iter()
        .map(|n| ds.attr(n))
        .collect();
        let label = ds.attr("inventoryunits");
        let engine = Engine::new(
            ds.db.clone(),
            ds.tree.clone(),
            lmfao_core::EngineConfig::default(),
        );
        let config = TreeConfig {
            buckets: 10,
            ..TreeConfig::regression()
        };
        let plan = CandidatePlan::new(&engine, &features, label, &config);
        assert!(plan.features.iter().all(|f| f.grouped));
        assert_eq!(plan.batch(&ProductTerm::one()).len(), 12);
        // The root and the depth-2 node down the learned tree's left spine.
        let tree = train_decision_tree(&engine, &features, label, &config).unwrap();
        let TreeNode::Split {
            condition, left, ..
        } = &tree.root
        else {
            panic!("Retailer must split")
        };
        let TreeNode::Split {
            condition: below, ..
        } = left.as_ref()
        else {
            panic!("Retailer must split twice")
        };
        assert_grouped_matches_oracle(&engine, &plan, &[]);
        assert_grouped_matches_oracle(&engine, &plan, &[condition.clone(), below.clone()]);

        // TPC-DS: grouped dimension features, categorical ones among them,
        // beside `quantity` of the fact relation, asked per candidate.
        let ds = tpcds::generate(Scale::new(3_000, 9));
        let features: Vec<AttrId> = [
            "birth_year",
            "purchase_estimate",
            "gender",
            "marital",
            "quantity",
        ]
        .iter()
        .map(|n| ds.attr(n))
        .collect();
        let engine = Engine::new(
            ds.db.clone(),
            ds.tree.clone(),
            lmfao_core::EngineConfig::default(),
        );
        let config = TreeConfig {
            buckets: 6,
            ..TreeConfig::classification()
        };
        let plan = CandidatePlan::new(&engine, &features, ds.attr("preferred"), &config);
        let grouped: Vec<bool> = plan.features.iter().map(|f| f.grouped).collect();
        assert_eq!(grouped, [true, true, true, true, false]);
        let path = [
            plan.splits[plan.features[2].splits.start].clone(),
            plan.splits[plan.features[0].splits.start + 2].negate(),
        ];
        assert_grouped_matches_oracle(&engine, &plan, &[]);
        assert_grouped_matches_oracle(&engine, &plan, &path);
    }

    /// A tree learned by `learn` with [`train_decision_tree`]'s own step,
    /// wrapped to record the path of every node that executed and of every
    /// node whose batch the step restricted — read off the batch it returned,
    /// whose database holds fewer tuples than its anchor's — in the order
    /// the learner asked for them.
    struct Recorded {
        tree: DecisionTree,
        executed: Vec<Vec<SplitCondition>>,
        restricted: Vec<Vec<SplitCondition>>,
    }

    fn learn_recording(engine: &Engine, plan: &CandidatePlan, config: &TreeConfig) -> Recorded {
        let prepared = engine.prepare(&plan.batch(&ProductTerm::one())).unwrap();
        let dynamics = DynamicRegistry::new();
        let (mut executed, mut restricted) = (Vec::new(), Vec::new());
        // Each state carries its node's full path beside its batch.
        let root = (prepared, Vec::new());
        let tree = learn(plan, config, root, |(anchor, path), conditions| {
            let path = [path.as_slice(), conditions].concat();
            let (node, stats, rows) = execute_restricted(plan, &dynamics, anchor, conditions)?;
            executed.push(path.clone());
            if rows < anchor.database().total_tuples() {
                restricted.push(path.clone());
            }
            Ok(((node, path), stats, rows))
        })
        .unwrap();
        Recorded {
            tree,
            executed,
            restricted,
        }
    }

    /// What walking a learned tree with the learner's rule found: the paths
    /// the rule executes, the sure leaves, and how many larger siblings were
    /// compared.
    #[derive(Default)]
    struct Walk {
        executed: Vec<Vec<SplitCondition>>,
        leaves: Vec<Vec<SplitCondition>>,
        siblings: usize,
    }

    /// Walks the split `node` at `depth`, reached by `path`, whose statistics
    /// the learner held as `stats`, and compares every child the learner
    /// settled with a direct execution of the child's path: a sure leaf's
    /// measures, and a larger sibling's measures and candidates' left sides.
    #[allow(clippy::too_many_arguments)]
    fn walk_settled(
        plan: &CandidatePlan,
        config: &TreeConfig,
        direct: &impl Fn(&[SplitCondition]) -> NodeStatistics,
        same: &impl Fn(&[f64], &[f64]) -> bool,
        node: &TreeNode,
        path: &[SplitCondition],
        stats: &NodeStatistics,
        depth: usize,
        walk: &mut Walk,
    ) {
        let TreeNode::Split {
            condition,
            left,
            right,
        } = node
        else {
            return;
        };
        let idx = plan.splits.iter().position(|s| s == condition).unwrap();
        let measures = [
            stats.left[idx].clone(),
            minus(&stats.parent, &stats.left[idx]),
        ];
        let children = [left.as_ref(), right.as_ref()];
        let paths = [condition.clone(), condition.negate()].map(|c| [path, &[c]].concat());
        let count = |side: usize| plan.summary(&measures[side]).count;
        let leaf = [0, 1].map(|side| config.is_leaf(depth + 1, count(side)));
        for side in [0, 1].into_iter().filter(|&side| leaf[side]) {
            assert!(matches!(children[side], TreeNode::Leaf { .. }));
            let direct = direct(&paths[side]).parent;
            assert!(
                same(&measures[side], &direct),
                "leaf {:?}: {:?} derived, {direct:?} executed",
                paths[side],
                measures[side]
            );
            walk.leaves.push(paths[side].clone());
        }
        if leaf == [true, true] {
            return;
        }
        let run = if leaf[1] || (!leaf[0] && count(0) <= count(1)) {
            0
        } else {
            1
        };
        let run_stats = direct(&paths[run]);
        walk.executed.push(paths[run].clone());
        let (other, derived) = (1 - run, stats.minus(&run_stats));
        walk_settled(
            plan,
            config,
            direct,
            same,
            children[run],
            &paths[run],
            &run_stats,
            depth + 1,
            walk,
        );
        if leaf[other] {
            return;
        }
        let executed = direct(&paths[other]);
        assert!(
            same(&derived.parent, &executed.parent),
            "{:?}",
            paths[other]
        );
        for ((derived, executed), split) in
            derived.left.iter().zip(&executed.left).zip(&plan.splits)
        {
            assert!(
                same(derived, executed),
                "{split:?} under {:?}: {derived:?} derived, {executed:?} executed",
                paths[other]
            );
        }
        walk.siblings += 1;
        walk_settled(
            plan,
            config,
            direct,
            same,
            children[other],
            &paths[other],
            &derived,
            depth + 1,
            walk,
        );
    }

    /// Learns a tree and checks every node the learner settled without
    /// executing it against a direct execution of its path (`same` compares
    /// two measure vectors), and that exactly the nodes the rule executes
    /// executed, while no sure leaf was restricted.
    fn assert_settled_nodes_match_execution(
        engine: &Engine,
        features: &[AttrId],
        label: AttrId,
        config: &TreeConfig,
        same: impl Fn(&[f64], &[f64]) -> bool,
    ) {
        let plan = CandidatePlan::new(engine, features, label, config);
        let recorded = learn_recording(engine, &plan, config);
        let tree = train_decision_tree(engine, features, label, config).unwrap();
        // The same tree and the same bookkeeping: nodes executed, queries
        // issued and rows scanned.
        assert_eq!(format!("{:?}", recorded.tree), format!("{tree:?}"));

        let prepared = engine.prepare(&plan.batch(&ProductTerm::one())).unwrap();
        let direct = |path: &[SplitCondition]| {
            let conditions: Vec<ScalarFunction> =
                path.iter().map(SplitCondition::to_indicator).collect();
            let node = match path {
                [] => prepared.clone(),
                _ => prepared.restrict(&conditions).unwrap(),
            };
            plan.statistics(&node.execute(&DynamicRegistry::new()).unwrap())
        };
        let mut walk = Walk {
            executed: vec![Vec::new()],
            ..Walk::default()
        };
        let root = direct(&[]);
        walk_settled(
            &plan,
            config,
            &direct,
            &same,
            &tree.root,
            &[],
            &root,
            0,
            &mut walk,
        );
        assert!(
            !walk.leaves.is_empty() && walk.siblings > 0,
            "{} sure leaves and {} larger siblings settled: nothing to compare",
            walk.leaves.len(),
            walk.siblings
        );

        assert_eq!(recorded.executed, walk.executed);
        assert_eq!(tree.nodes_executed, walk.executed.len());
        assert!(tree.nodes_executed <= 1 + (tree.size() - 1) / 2);
        assert!(walk
            .executed
            .iter()
            .all(|path| path.len() < config.max_depth));
        for leaf in &walk.leaves {
            assert!(!recorded.restricted.contains(leaf), "{leaf:?} restricted");
        }
        // A node's batch is restricted exactly when it executes, and only
        // once: every executed node but the root reads fewer tuples than
        // its anchor.
        assert_eq!(recorded.restricted, recorded.executed[1..]);
        for (i, path) in recorded.restricted.iter().enumerate() {
            assert!(
                !recorded.restricted[..i].contains(path),
                "{path:?} restricted twice"
            );
        }
        assert_eq!(recorded.restricted.len(), tree.nodes_executed - 1);
    }

    #[test]
    fn settled_statistics_equal_a_direct_execution() {
        use lmfao_datagen::{retailer, tpcds, Scale};
        let bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits())
        };
        // Retailer's label `inventoryunits` is integer-valued: every sum, and
        // so every difference of sums, is exact.
        let ds = retailer::generate(Scale::new(3_000, 5));
        let features: Vec<AttrId> = ["population", "medianage", "avghhi", "maxtemp", "prices"]
            .iter()
            .map(|n| ds.attr(n))
            .collect();
        let engine = Engine::new(
            ds.db.clone(),
            ds.tree.clone(),
            lmfao_core::EngineConfig::default(),
        );
        let config = TreeConfig {
            max_depth: 4,
            min_samples: 200,
            buckets: 8,
            ..TreeConfig::regression()
        };
        assert_settled_nodes_match_execution(
            &engine,
            &features,
            ds.attr("inventoryunits"),
            &config,
            bits,
        );

        // TPC-DS: class counts are exact too; `netpaid` is a float label, so
        // a difference of sums agrees with a direct sum within the
        // maintenance referee's tolerance.
        let ds = tpcds::generate(Scale::new(3_000, 9));
        let features: Vec<AttrId> = [
            "birth_year",
            "purchase_estimate",
            "gender",
            "marital",
            "dep_count",
            "quantity",
        ]
        .iter()
        .map(|n| ds.attr(n))
        .collect();
        let engine = Engine::new(
            ds.db.clone(),
            ds.tree.clone(),
            lmfao_core::EngineConfig::default(),
        );
        let config = TreeConfig {
            max_depth: 4,
            min_samples: 100,
            buckets: 6,
            ..TreeConfig::classification()
        };
        assert_settled_nodes_match_execution(
            &engine,
            &features,
            ds.attr("preferred"),
            &config,
            bits,
        );
        let close = |a: &[f64], b: &[f64]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(a, b)| (a - b).abs() <= 1e-9 * b.abs().max(1.0))
        };
        let config = TreeConfig {
            task: TreeTask::Regression,
            ..config
        };
        assert_settled_nodes_match_execution(
            &engine,
            &features,
            ds.attr("netpaid"),
            &config,
            close,
        );
    }
}
