//! Aggregates: sums of products of scalar functions.

use crate::dynamic::DynamicRegistry;
use crate::function::{CmpOp, ScalarFunction};
use lmfao_data::{AttrId, FxHashSet, Value};

/// A product of scalar functions `Π_k f_k`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProductTerm {
    /// The factors of the product. An empty product evaluates to 1
    /// (the COUNT aggregate).
    pub factors: Vec<ScalarFunction>,
}

impl ProductTerm {
    /// The empty product (evaluates to 1, i.e. COUNT).
    pub fn one() -> Self {
        ProductTerm { factors: vec![] }
    }

    /// A product with a single factor.
    pub fn single(f: ScalarFunction) -> Self {
        ProductTerm { factors: vec![f] }
    }

    /// A product of the given factors.
    pub fn of(factors: Vec<ScalarFunction>) -> Self {
        ProductTerm { factors }
    }

    /// Multiplies this product by another factor (builder style).
    pub fn times(mut self, f: ScalarFunction) -> Self {
        self.factors.push(f);
        self
    }

    /// All attributes read by the product.
    pub fn attrs(&self) -> Vec<AttrId> {
        let mut set = FxHashSet::default();
        let mut out = Vec::new();
        for f in &self.factors {
            for a in f.attrs() {
                if set.insert(a) {
                    out.push(a);
                }
            }
        }
        out
    }

    /// True if any factor is a dynamic function.
    pub fn has_dynamic(&self) -> bool {
        self.factors.iter().any(ScalarFunction::is_dynamic)
    }

    /// Evaluates the product under a binding of attributes to values.
    pub fn evaluate<F>(&self, lookup: &F, dynamics: &DynamicRegistry) -> f64
    where
        F: Fn(AttrId) -> Value,
    {
        let mut prod = 1.0;
        for f in &self.factors {
            let v = match f {
                ScalarFunction::Dynamic { id, attrs } => {
                    dynamics.evaluate_attrs(*id, attrs, lookup)
                }
                other => other.evaluate(lookup),
            };
            prod *= v;
            if prod == 0.0 {
                return 0.0;
            }
        }
        prod
    }
}

/// An aggregate: a sum of products of scalar functions, `Σ_j Π_k f_jk`.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// The summands.
    pub terms: Vec<ProductTerm>,
}

impl Aggregate {
    /// `SUM(1)`, i.e. COUNT(*).
    pub fn count() -> Self {
        Aggregate {
            terms: vec![ProductTerm::one()],
        }
    }

    /// `SUM(X)`.
    pub fn sum(attr: AttrId) -> Self {
        Aggregate {
            terms: vec![ProductTerm::single(ScalarFunction::Identity(attr))],
        }
    }

    /// `SUM(X * Y)`, the covariance-matrix entry building block.
    pub fn sum_product(a: AttrId, b: AttrId) -> Self {
        Aggregate {
            terms: vec![ProductTerm::of(vec![
                ScalarFunction::Identity(a),
                ScalarFunction::Identity(b),
            ])],
        }
    }

    /// `SUM(X^2)`.
    pub fn sum_square(attr: AttrId) -> Self {
        Aggregate {
            terms: vec![ProductTerm::single(ScalarFunction::Power {
                attr,
                exponent: 2,
            })],
        }
    }

    /// An aggregate from a single product term.
    pub fn product(term: ProductTerm) -> Self {
        Aggregate { terms: vec![term] }
    }

    /// An aggregate from several product terms (a true sum of products).
    pub fn sum_of(terms: Vec<ProductTerm>) -> Self {
        Aggregate { terms }
    }

    /// Multiplies every term by an extra factor (used to push a selection
    /// condition such as a decision-tree predicate into an aggregate).
    pub fn times(mut self, f: ScalarFunction) -> Self {
        for t in &mut self.terms {
            t.factors.push(f.clone());
        }
        self
    }

    /// All attributes read by the aggregate, in first-appearance order.
    pub fn attrs(&self) -> Vec<AttrId> {
        let mut set = FxHashSet::default();
        let mut out = Vec::new();
        for t in &self.terms {
            for a in t.attrs() {
                if set.insert(a) {
                    out.push(a);
                }
            }
        }
        out
    }

    /// True if the aggregate contains a dynamic function.
    pub fn has_dynamic(&self) -> bool {
        self.terms.iter().any(ProductTerm::has_dynamic)
    }

    /// Evaluates the aggregate under a binding of attributes to values: this
    /// is the per-tuple contribution, which the engine sums over tuples.
    pub fn evaluate<F>(&self, lookup: &F, dynamics: &DynamicRegistry) -> f64
    where
        F: Fn(AttrId) -> Value,
    {
        self.terms
            .iter()
            .map(|t| t.evaluate(lookup, dynamics))
            .sum()
    }

    /// Convenience constructor for the decision-tree condition product
    /// `1_{X1 op1 t1} · 1_{X2 op2 t2} · …` (the `α` of Eq. (8)).
    pub fn conditions(conds: &[(AttrId, CmpOp, Value)]) -> ProductTerm {
        ProductTerm::of(
            conds
                .iter()
                .map(|&(attr, op, threshold)| ScalarFunction::Indicator {
                    attr,
                    op,
                    threshold,
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup(bindings: Vec<(AttrId, f64)>) -> impl Fn(AttrId) -> Value {
        move |a| {
            bindings
                .iter()
                .find(|(b, _)| *b == a)
                .map(|(_, v)| Value::Double(*v))
                .unwrap_or(Value::Null)
        }
    }

    #[test]
    fn count_evaluates_to_one_per_tuple() {
        let agg = Aggregate::count();
        let reg = DynamicRegistry::new();
        assert_eq!(agg.evaluate(&lookup(vec![]), &reg), 1.0);
        assert!(agg.attrs().is_empty());
    }

    #[test]
    fn sum_and_sum_product() {
        let reg = DynamicRegistry::new();
        let l = lookup(vec![(AttrId(0), 3.0), (AttrId(1), 4.0)]);
        assert_eq!(Aggregate::sum(AttrId(0)).evaluate(&l, &reg), 3.0);
        assert_eq!(
            Aggregate::sum_product(AttrId(0), AttrId(1)).evaluate(&l, &reg),
            12.0
        );
        assert_eq!(Aggregate::sum_square(AttrId(1)).evaluate(&l, &reg), 16.0);
    }

    #[test]
    fn sum_of_products_adds_terms() {
        let reg = DynamicRegistry::new();
        let l = lookup(vec![(AttrId(0), 2.0), (AttrId(1), 3.0)]);
        // θ0·X0 + θ1·X1 with θ0 = 10, θ1 = 100 → 20 + 300
        let agg = Aggregate::sum_of(vec![
            ProductTerm::of(vec![
                ScalarFunction::Constant(10.0),
                ScalarFunction::Identity(AttrId(0)),
            ]),
            ProductTerm::of(vec![
                ScalarFunction::Constant(100.0),
                ScalarFunction::Identity(AttrId(1)),
            ]),
        ]);
        assert_eq!(agg.evaluate(&l, &reg), 320.0);
    }

    #[test]
    fn times_pushes_condition_into_every_term() {
        let reg = DynamicRegistry::new();
        let cond = ScalarFunction::Indicator {
            attr: AttrId(2),
            op: CmpOp::Le,
            threshold: Value::Double(5.0),
        };
        let agg = Aggregate::sum_of(vec![
            ProductTerm::single(ScalarFunction::Identity(AttrId(0))),
            ProductTerm::single(ScalarFunction::Identity(AttrId(1))),
        ])
        .times(cond);
        let l_pass = lookup(vec![(AttrId(0), 2.0), (AttrId(1), 3.0), (AttrId(2), 4.0)]);
        let l_fail = lookup(vec![(AttrId(0), 2.0), (AttrId(1), 3.0), (AttrId(2), 6.0)]);
        assert_eq!(agg.evaluate(&l_pass, &reg), 5.0);
        assert_eq!(agg.evaluate(&l_fail, &reg), 0.0);
    }

    #[test]
    fn conditions_product_matches_decision_tree_alpha() {
        let reg = DynamicRegistry::new();
        let alpha = Aggregate::conditions(&[
            (AttrId(0), CmpOp::Ge, Value::Double(1.0)),
            (AttrId(1), CmpOp::Le, Value::Double(3.0)),
        ]);
        let agg = Aggregate::product(alpha);
        let l_in = lookup(vec![(AttrId(0), 2.0), (AttrId(1), 2.0)]);
        let l_out = lookup(vec![(AttrId(0), 0.5), (AttrId(1), 2.0)]);
        assert_eq!(agg.evaluate(&l_in, &reg), 1.0);
        assert_eq!(agg.evaluate(&l_out, &reg), 0.0);
    }

    #[test]
    fn attrs_are_deduplicated() {
        let agg = Aggregate::sum_of(vec![
            ProductTerm::of(vec![
                ScalarFunction::Identity(AttrId(0)),
                ScalarFunction::Identity(AttrId(1)),
            ]),
            ProductTerm::of(vec![
                ScalarFunction::Identity(AttrId(1)),
                ScalarFunction::Identity(AttrId(2)),
            ]),
        ]);
        assert_eq!(agg.attrs(), vec![AttrId(0), AttrId(1), AttrId(2)]);
    }

    #[test]
    fn dynamic_functions_use_registry() {
        let mut reg = DynamicRegistry::new();
        let id = reg.register(|args: &[Value]| args[0].as_f64() * 2.0);
        let agg = Aggregate::product(ProductTerm::single(ScalarFunction::Dynamic {
            id,
            attrs: vec![AttrId(0)],
        }));
        assert!(agg.has_dynamic());
        let l = lookup(vec![(AttrId(0), 4.0)]);
        assert_eq!(agg.evaluate(&l, &reg), 8.0);
    }

    #[test]
    fn zero_short_circuit() {
        let reg = DynamicRegistry::new();
        // indicator fails => the identity factor must not matter even if NaN
        let term = ProductTerm::of(vec![
            ScalarFunction::Indicator {
                attr: AttrId(0),
                op: CmpOp::Gt,
                threshold: Value::Double(10.0),
            },
            ScalarFunction::Log(AttrId(1)), // ln(0) = -inf, must be skipped
        ]);
        let l = lookup(vec![(AttrId(0), 1.0), (AttrId(1), 0.0)]);
        assert_eq!(term.evaluate(&l, &reg), 0.0);
    }
}
