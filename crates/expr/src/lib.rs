//! # lmfao-expr
//!
//! The aggregate language of LMFAO: scalar functions (identity, powers,
//! Kronecker-delta indicators, exponentials, dynamic functions), aggregates
//! as sums of products of functions, group-by aggregate queries of the form
//! `Q(F; α) += R1, …, Rm`, and batches of such queries over the same natural
//! join.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod dynamic;
pub mod function;
pub mod query;

pub use aggregate::{Aggregate, ProductTerm};
pub use dynamic::{DynamicFn, DynamicRegistry};
pub use function::{CmpOp, ScalarFunction};
pub use query::{Query, QueryBatch, QueryId};

#[cfg(test)]
mod smoke {
    use super::*;
    use lmfao_data::{AttrId, Value};

    /// Exercises the crate-level surface consumed by the engine and the ML
    /// layer: aggregate constructors, product terms and query batches.
    #[test]
    fn batch_of_aggregates_over_products() {
        let (x, y) = (AttrId(0), AttrId(1));
        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push(
            "stats",
            vec![x],
            vec![Aggregate::sum(y), Aggregate::sum_square(y)],
        );
        batch.push(
            "guarded",
            vec![],
            vec![Aggregate::product(
                ProductTerm::single(ScalarFunction::Indicator {
                    attr: x,
                    op: CmpOp::Le,
                    threshold: Value::Double(1.5),
                })
                .times(ScalarFunction::Identity(y)),
            )],
        );
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert_eq!(Aggregate::sum_product(x, y), Aggregate::sum_product(x, y));
    }
}
