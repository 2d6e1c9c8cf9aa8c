//! # lmfao-baseline
//!
//! Baselines reproducing the evaluation strategy of the systems the LMFAO
//! paper compares against:
//!
//! * [`naive::MaterializedEngine`] — materialize the natural join, then
//!   compute every aggregate query separately over it (the PostgreSQL /
//!   MonetDB / DBX proxy for Table 3);
//! * [`ml`] — materialize-then-learn pipelines: export the join to a dense
//!   one-hot matrix and train linear regression or CART trees over it (the
//!   TensorFlow / MADlib / scikit proxy for Tables 4 and 5);
//! * [`refresh::RecomputeReference`] — the recompute-from-scratch referee of
//!   incremental maintenance: applies the same update stream as a
//!   `Maintainer` but answers by re-planning and re-scanning everything.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ml;
pub mod naive;
pub mod refresh;

pub use ml::{
    export_dense, predict_linear, rmse_linear, train_linear_regression_dense, train_tree_dense,
    DenseDataset, DenseTask, DenseTreeNode,
};
pub use naive::{BaselineResult, MaterializedEngine, PreparedBaselineBatch};
pub use refresh::RecomputeReference;
