//! Shared helpers for the synthetic dataset generators.
//!
//! The paper evaluates on four datasets (Retailer, Favorita, Yelp, TPC-DS)
//! that are either proprietary or too large to ship with a library. The
//! generators in this crate produce scale-parameterized synthetic databases
//! with the same schemas, join trees, key/foreign-key structure and attribute
//! types, so that every experiment of the paper can be re-run end to end.

use lmfao_data::{Database, DatabaseSchema, Relation, Value};
use lmfao_jointree::{join_tree_from_named_edges, Hypergraph, JoinTree, JoinTreeError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated dataset: its name, database and join tree (matching Figure 6
/// of the paper).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name, e.g. `"Retailer"`.
    pub name: String,
    /// The synthetic database.
    pub db: Database,
    /// The join tree used for all experiments over this dataset.
    pub tree: JoinTree,
}

impl Dataset {
    /// Looks up an attribute id by name.
    pub fn attr(&self, name: &str) -> lmfao_data::AttrId {
        self.db
            .schema()
            .attr_id(name)
            .unwrap_or_else(|_| panic!("dataset {} has no attribute `{name}`", self.name))
    }

    /// Total number of tuples across all relations (Table 1's "Tuples in
    /// Database" row).
    pub fn total_tuples(&self) -> usize {
        self.db.total_tuples()
    }
}

/// Scale factor of a generated dataset. `Scale::small()` is suitable for unit
/// tests; `Scale::benchmark()` for the benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Approximate number of tuples in the fact relation.
    pub fact_rows: usize,
    /// RNG seed, so datasets are reproducible.
    pub seed: u64,
}

impl Scale {
    /// A tiny dataset for unit tests (hundreds of fact tuples).
    pub fn small() -> Self {
        Scale {
            fact_rows: 500,
            seed: 42,
        }
    }

    /// A medium dataset for integration tests (thousands of fact tuples).
    pub fn medium() -> Self {
        Scale {
            fact_rows: 5_000,
            seed: 42,
        }
    }

    /// The default benchmark scale (tens of thousands of fact tuples — small
    /// enough for CI, large enough that the optimization layers matter).
    pub fn benchmark() -> Self {
        Scale {
            fact_rows: 50_000,
            seed: 42,
        }
    }

    /// A custom scale.
    pub fn new(fact_rows: usize, seed: u64) -> Self {
        Scale { fact_rows, seed }
    }

    /// This scale with `factor`× the fact rows (same seed). The scaling sweep
    /// uses it to grow the benchmark databases 10–100×; generation streams,
    /// so memory stays proportional to the output relations themselves.
    pub fn scaled(self, factor: usize) -> Self {
        Scale {
            fact_rows: self.fact_rows.saturating_mul(factor.max(1)),
            ..self
        }
    }

    /// The RNG for this scale.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }
}

/// Builds a relation by calling `make_row(i)` for `rows` rows.
pub fn build_relation<F>(
    schema: &DatabaseSchema,
    name: &str,
    rows: usize,
    mut make_row: F,
) -> Relation
where
    F: FnMut(usize) -> Vec<Value>,
{
    let rel_schema = schema
        .relation(name)
        .unwrap_or_else(|_| panic!("relation {name} not registered"))
        .clone();
    let mut rel = Relation::new(rel_schema);
    rel.reserve(rows);
    for i in 0..rows {
        rel.push_row_unchecked(&make_row(i));
    }
    rel
}

/// Builds the join tree of a schema from explicit parent—child edges.
pub fn tree_from_edges(
    schema: &DatabaseSchema,
    edges: &[(&str, &str)],
) -> Result<JoinTree, JoinTreeError> {
    join_tree_from_named_edges(&Hypergraph::from_schema(schema), edges)
}

/// A skewed integer in `[0, n)`: low values are more frequent, mimicking the
/// Zipf-like skew of real fact tables (popular items / stores / dates).
pub fn skewed_index<R: Rng>(rng: &mut R, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let u: f64 = rng.gen::<f64>();
    // Quadratic skew: density 2(1-x); cheap and monotone.
    let x = 1.0 - (1.0 - u).sqrt();
    ((x * n as f64) as usize).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmfao_data::AttrType;

    #[test]
    fn scale_constructors() {
        assert!(Scale::small().fact_rows < Scale::medium().fact_rows);
        assert!(Scale::medium().fact_rows < Scale::benchmark().fact_rows);
        assert_eq!(Scale::new(123, 7).fact_rows, 123);
        assert_eq!(Scale::new(123, 7).scaled(10).fact_rows, 1_230);
        assert_eq!(Scale::new(123, 7).scaled(0).fact_rows, 123);
        assert_eq!(Scale::new(123, 7).scaled(10).seed, 7);
    }

    #[test]
    fn skewed_index_is_in_range_and_skewed() {
        let mut rng = Scale::small().rng();
        let n = 100;
        let mut counts = vec![0usize; n];
        for _ in 0..10_000 {
            counts[skewed_index(&mut rng, n)] += 1;
        }
        assert!(counts.iter().all(|&c| c <= 10_000));
        // The first decile must be visited more often than the last.
        let low: usize = counts[..10].iter().sum();
        let high: usize = counts[90..].iter().sum();
        assert!(low > high);
        assert_eq!(skewed_index(&mut rng, 0), 0);
        assert_eq!(skewed_index(&mut rng, 1), 0);
    }

    #[test]
    fn build_relation_produces_requested_rows() {
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs("R", &[("a", AttrType::Int), ("b", AttrType::Double)]);
        let rel = build_relation(&schema, "R", 10, |i| {
            vec![Value::Int(i as i64), Value::Double(i as f64 * 0.5)]
        });
        assert_eq!(rel.len(), 10);
        assert_eq!(rel.value(3, 0), Value::Int(3));
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = Scale::new(10, 9).rng();
        let mut b = Scale::new(10, 9).rng();
        let xa: f64 = a.gen();
        let xb: f64 = b.gen();
        assert_eq!(xa, xb);
    }
}
