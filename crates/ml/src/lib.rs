//! # lmfao-ml
//!
//! The analytics applications of the LMFAO paper, built on top of the batch
//! aggregate engine (`lmfao-core`):
//!
//! * [`covar`] / [`linreg`] — the covariance-matrix workload and ridge linear
//!   regression trained by batch gradient descent over it,
//! * [`trees`] — CART classification and regression trees whose per-node
//!   split costs are aggregate batches,
//! * [`mutual_info`] / [`chowliu`] — pairwise mutual information and Chow–Liu
//!   structure learning for tree-shaped Bayesian networks,
//! * [`datacube`] — k-dimensional data cubes,
//! * [`evaluate`] — RMSE / accuracy over held-out test data.
//!
//! Every application only issues group-by aggregate batches over the input
//! database; the training dataset (the join) is never materialized.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chowliu;
pub mod covar;
pub mod datacube;
pub mod evaluate;
pub mod linreg;
pub mod mutual_info;
pub mod stream;
pub mod trees;

pub use chowliu::{chow_liu_tree, learn_chow_liu, ChowLiuTree};
pub use covar::{
    assemble_covar_matrix, covar_batch, covar_matrix, CovarBatch, CovarMatrix, CovarSpec,
};
pub use datacube::{assemble_cube, compute_datacube, datacube_batch, DataCube, DataCubeBatch};
pub use linreg::{
    train_linear_regression, train_linear_regression_over, LinRegConfig, LinearRegressionModel,
};
pub use mutual_info::{
    compute_mutual_info, mutual_info_batch, mutual_info_matrix, MutualInfoBatch, MutualInfoMatrix,
};
pub use stream::StreamingCovar;
pub use trees::{
    train_decision_tree, train_decision_tree_replanned, DecisionTree, SplitCondition, TreeConfig,
    TreeNode, TreeTask,
};

#[cfg(test)]
mod smoke {
    use super::*;
    use lmfao_data::AttrId;

    /// Exercises the crate-level batch builders every application and the
    /// bench harness call: sizes must match their closed-form counts.
    #[test]
    fn batch_builders_produce_expected_query_counts() {
        let attrs = vec![AttrId(0), AttrId(1), AttrId(2)];
        let spec = CovarSpec::continuous_only(attrs.clone());
        let cb = covar_batch(&spec);
        assert_eq!(cb.batch.len(), spec.expected_queries());
        assert!(!cb.batch.is_empty());

        // A k-dimensional cube has 2^k cuboids.
        let cube = datacube_batch(&attrs[..2], &attrs[2..]);
        assert_eq!(cube.batch.len(), 4);

        let mi = mutual_info_batch(&attrs);
        assert!(!mi.batch.is_empty());
    }
}
