//! # lmfao-datagen
//!
//! Scale-parameterized synthetic generators for the four datasets of the
//! LMFAO paper (Retailer, Favorita, Yelp, TPC-DS) plus the chain schema of
//! Example 3.3. The real datasets are proprietary or too large to ship; the
//! generators reproduce their schemas, join trees (Figure 6), key/foreign-key
//! structure, attribute types and skew so that every experiment can be
//! re-run end to end. See DESIGN.md for the substitution rationale.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chain;
pub mod common;
pub mod favorita;
pub mod retailer;
pub mod tpcds;
pub mod updates;
pub mod yelp;

pub use common::{Dataset, Scale};
pub use updates::{fact_relation, transaction_stream, txn_relations, update_stream, UpdateMix};

/// All four paper datasets at the given scale, in the order of Table 1.
pub fn all_datasets(scale: Scale) -> Vec<Dataset> {
    vec![
        retailer::generate(scale),
        favorita::generate(scale),
        yelp::generate(scale),
        tpcds::generate(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_generates_the_four_paper_datasets() {
        let ds = all_datasets(Scale::small());
        let names: Vec<&str> = ds.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["Retailer", "Favorita", "Yelp", "TPC-DS"]);
        for d in &ds {
            assert!(d.total_tuples() > 0);
            assert!(d.tree.num_nodes() >= 5);
        }
    }
}
