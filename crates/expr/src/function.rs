//! User-defined aggregate function (UDAF) building blocks.
//!
//! LMFAO aggregates are *sums of products of functions* over attributes
//! (Section 1.1 of the paper):
//!
//! ```text
//! α_i = Σ_{j ∈ [s_i]} Π_{k ∈ [p_ij]} f_ijk
//! ```
//!
//! The factors `f_ijk` are scalar functions of individual attributes (or of a
//! small set of attributes): constants, identities `X`, powers `X^a`,
//! Kronecker-delta indicators `1_{X op t}` used for decision-tree split
//! conditions, exponentials of linear forms used for logistic regression, and
//! *dynamic* functions whose implementation is swapped between iterations
//! (the paper compiles and dynamically links these; we keep them in a
//! registry, see [`crate::dynamic`]).

use lmfao_data::{AttrId, Value};
use std::fmt;

/// Comparison operators for indicator (Kronecker delta) functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Applies the comparison to two values.
    #[inline]
    pub fn apply(self, left: Value, right: Value) -> bool {
        match self {
            CmpOp::Lt => left < right,
            CmpOp::Le => left <= right,
            CmpOp::Gt => left > right,
            CmpOp::Ge => left >= right,
            CmpOp::Eq => left == right,
            CmpOp::Ne => left != right,
        }
    }

    /// The negated operator, used when splitting a decision-tree node into
    /// its left/right children.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        };
        write!(f, "{s}")
    }
}

/// A scalar function appearing as a factor of an aggregate product.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarFunction {
    /// A constant `c`. `Constant(1.0)` is the COUNT building block.
    Constant(f64),
    /// The identity `f(X) = X`, used for SUM(X).
    Identity(AttrId),
    /// A power `f(X) = X^a`, used for polynomial regression aggregates.
    Power {
        /// Attribute the power is taken of.
        attr: AttrId,
        /// Non-negative exponent.
        exponent: u32,
    },
    /// Kronecker delta `1_{X op t}`: evaluates to 1 when the condition holds,
    /// 0 otherwise. Encodes decision-tree split conditions on continuous
    /// attributes and equality selections on categorical attributes.
    Indicator {
        /// Attribute the condition is on.
        attr: AttrId,
        /// Comparison operator.
        op: CmpOp,
        /// Threshold or category to compare against.
        threshold: Value,
    },
    /// Set inclusion `1_{X ∈ S}` for categorical split conditions.
    InSet {
        /// Attribute the condition is on.
        attr: AttrId,
        /// Categories included in the split.
        set: Vec<Value>,
    },
    /// Exponential of a linear form `e^{Σ θ_j · X_j}` (logistic regression).
    ExpLinear {
        /// `(attribute, coefficient)` pairs of the linear form.
        coefficients: Vec<(AttrId, f64)>,
    },
    /// Natural logarithm `ln(X)`.
    Log(AttrId),
    /// A dynamic function resolved through the
    /// [`crate::dynamic::DynamicRegistry`] at evaluation time. The paper tags
    /// such functions so that their code is compiled between iterations and
    /// linked dynamically; here they are swappable closures.
    Dynamic {
        /// Identifier within the dynamic registry.
        id: usize,
        /// Attributes passed to the dynamic function, in order.
        attrs: Vec<AttrId>,
    },
}

impl ScalarFunction {
    /// The attributes this function reads.
    pub fn attrs(&self) -> Vec<AttrId> {
        match self {
            ScalarFunction::Constant(_) => vec![],
            ScalarFunction::Identity(a) | ScalarFunction::Log(a) => vec![*a],
            ScalarFunction::Power { attr, .. } => vec![*attr],
            ScalarFunction::Indicator { attr, .. } => vec![*attr],
            ScalarFunction::InSet { attr, .. } => vec![*attr],
            ScalarFunction::ExpLinear { coefficients } => {
                coefficients.iter().map(|(a, _)| *a).collect()
            }
            ScalarFunction::Dynamic { attrs, .. } => attrs.clone(),
        }
    }

    /// True if this is a dynamic function (must not be inlined/specialized,
    /// it may change between iterations).
    pub fn is_dynamic(&self) -> bool {
        matches!(self, ScalarFunction::Dynamic { .. })
    }

    /// Evaluates the function given a lookup from attribute to current value.
    /// Dynamic functions need the registry and are evaluated through
    /// [`crate::dynamic::DynamicRegistry::evaluate`]; calling this directly on
    /// a dynamic function returns 1.0 (the neutral element).
    #[inline]
    pub fn evaluate<F>(&self, lookup: &F) -> f64
    where
        F: Fn(AttrId) -> Value,
    {
        match self {
            ScalarFunction::Constant(c) => *c,
            ScalarFunction::Identity(a) => lookup(*a).as_f64(),
            ScalarFunction::Power { attr, exponent } => {
                lookup(*attr).as_f64().powi(*exponent as i32)
            }
            ScalarFunction::Indicator {
                attr,
                op,
                threshold,
            } => {
                if op.apply(lookup(*attr), *threshold) {
                    1.0
                } else {
                    0.0
                }
            }
            ScalarFunction::InSet { attr, set } => {
                if set.contains(&lookup(*attr)) {
                    1.0
                } else {
                    0.0
                }
            }
            ScalarFunction::ExpLinear { coefficients } => {
                let s: f64 = coefficients
                    .iter()
                    .map(|(a, c)| c * lookup(*a).as_f64())
                    .sum();
                s.exp()
            }
            ScalarFunction::Log(a) => lookup(*a).as_f64().ln(),
            ScalarFunction::Dynamic { .. } => 1.0,
        }
    }

    /// Human-readable rendering with attribute names resolved by `name_of`.
    pub fn render<F>(&self, name_of: &F) -> String
    where
        F: Fn(AttrId) -> String,
    {
        match self {
            ScalarFunction::Constant(c) => format!("{c}"),
            ScalarFunction::Identity(a) => name_of(*a),
            ScalarFunction::Power { attr, exponent } => format!("{}^{}", name_of(*attr), exponent),
            ScalarFunction::Indicator {
                attr,
                op,
                threshold,
            } => {
                format!("1[{} {} {}]", name_of(*attr), op, threshold)
            }
            ScalarFunction::InSet { attr, set } => {
                format!("1[{} in {:?}]", name_of(*attr), set.len())
            }
            ScalarFunction::ExpLinear { coefficients } => {
                format!("exp(linear/{})", coefficients.len())
            }
            ScalarFunction::Log(a) => format!("ln({})", name_of(*a)),
            ScalarFunction::Dynamic { id, .. } => format!("dyn#{id}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup(bindings: Vec<(AttrId, Value)>) -> impl Fn(AttrId) -> Value {
        move |a| {
            bindings
                .iter()
                .find(|(b, _)| *b == a)
                .map(|(_, v)| *v)
                .unwrap_or(Value::Null)
        }
    }

    #[test]
    fn cmp_op_apply_and_negate() {
        assert!(CmpOp::Lt.apply(Value::Int(1), Value::Int(2)));
        assert!(!CmpOp::Lt.apply(Value::Int(2), Value::Int(2)));
        assert!(CmpOp::Le.apply(Value::Int(2), Value::Int(2)));
        assert!(CmpOp::Eq.apply(Value::Cat(3), Value::Cat(3)));
        assert!(CmpOp::Ne.apply(Value::Cat(3), Value::Cat(4)));
        assert_eq!(CmpOp::Lt.negate(), CmpOp::Ge);
        assert_eq!(CmpOp::Ge.negate(), CmpOp::Lt);
        assert_eq!(CmpOp::Eq.negate(), CmpOp::Ne);
        // double negation is the identity
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn constant_and_identity() {
        let l = lookup(vec![(AttrId(0), Value::Double(2.5))]);
        assert_eq!(ScalarFunction::Constant(3.0).evaluate(&l), 3.0);
        assert_eq!(ScalarFunction::Identity(AttrId(0)).evaluate(&l), 2.5);
    }

    #[test]
    fn power_function() {
        let l = lookup(vec![(AttrId(1), Value::Double(3.0))]);
        let f = ScalarFunction::Power {
            attr: AttrId(1),
            exponent: 2,
        };
        assert_eq!(f.evaluate(&l), 9.0);
        let f0 = ScalarFunction::Power {
            attr: AttrId(1),
            exponent: 0,
        };
        assert_eq!(f0.evaluate(&l), 1.0);
    }

    #[test]
    fn indicator_matches_paper_semantics() {
        // 1_{X <= t} used for regression-tree nodes
        let l = lookup(vec![(AttrId(0), Value::Double(52000.0))]);
        let f = ScalarFunction::Indicator {
            attr: AttrId(0),
            op: CmpOp::Le,
            threshold: Value::Double(52775.0),
        };
        assert_eq!(f.evaluate(&l), 1.0);
        let g = ScalarFunction::Indicator {
            attr: AttrId(0),
            op: CmpOp::Gt,
            threshold: Value::Double(52775.0),
        };
        assert_eq!(g.evaluate(&l), 0.0);
    }

    #[test]
    fn in_set_for_categorical_splits() {
        let l = lookup(vec![(AttrId(2), Value::Cat(5))]);
        let f = ScalarFunction::InSet {
            attr: AttrId(2),
            set: vec![Value::Cat(1), Value::Cat(5)],
        };
        assert_eq!(f.evaluate(&l), 1.0);
        let g = ScalarFunction::InSet {
            attr: AttrId(2),
            set: vec![Value::Cat(1)],
        };
        assert_eq!(g.evaluate(&l), 0.0);
    }

    #[test]
    fn exp_linear_and_log() {
        let l = lookup(vec![
            (AttrId(0), Value::Double(1.0)),
            (AttrId(1), Value::Double(2.0)),
        ]);
        let f = ScalarFunction::ExpLinear {
            coefficients: vec![(AttrId(0), 0.5), (AttrId(1), 0.25)],
        };
        assert!((f.evaluate(&l) - (0.5 + 0.5_f64).exp()).abs() < 1e-12);
        let g = ScalarFunction::Log(AttrId(1));
        assert!((g.evaluate(&l) - 2.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn attrs_extraction() {
        assert!(ScalarFunction::Constant(1.0).attrs().is_empty());
        assert_eq!(ScalarFunction::Identity(AttrId(3)).attrs(), vec![AttrId(3)]);
        let e = ScalarFunction::ExpLinear {
            coefficients: vec![(AttrId(0), 1.0), (AttrId(2), 1.0)],
        };
        assert_eq!(e.attrs(), vec![AttrId(0), AttrId(2)]);
        let d = ScalarFunction::Dynamic {
            id: 0,
            attrs: vec![AttrId(1), AttrId(4)],
        };
        assert_eq!(d.attrs(), vec![AttrId(1), AttrId(4)]);
        assert!(d.is_dynamic());
    }

    #[test]
    fn render_uses_attribute_names() {
        let name_of = |a: AttrId| format!("x{}", a.0);
        let f = ScalarFunction::Indicator {
            attr: AttrId(0),
            op: CmpOp::Le,
            threshold: Value::Int(10),
        };
        assert_eq!(f.render(&name_of), "1[x0 <= 10]");
        assert_eq!(ScalarFunction::Identity(AttrId(2)).render(&name_of), "x2");
    }
}
