//! Dynamic user-defined aggregate functions.
//!
//! Some applications repeatedly evaluate the same aggregate batch with
//! slightly different functions: the paper's decision-tree learner adds one
//! more split predicate per CART node, a gradient step changes a weight
//! function. The paper tags these functions as *dynamic*; the
//! generated code calls them through a separate compilation unit that is
//! recompiled and dynamically linked between iterations, so the bulk of the
//! specialized code does not need to be regenerated.
//!
//! In this reproduction a dynamic function is a closure registered in a
//! [`DynamicRegistry`]. Plans reference dynamic functions by id
//! ([`crate::function::ScalarFunction::Dynamic`]); swapping the closure
//! between iterations changes the computed aggregates without re-planning —
//! the same role dynamic linking plays in the paper.

use lmfao_data::{AttrId, Value};
use std::sync::Arc;

/// A dynamic scalar function: takes the values of its registered attributes
/// (in registration order) and returns a factor.
pub type DynamicFn = Arc<dyn Fn(&[Value]) -> f64 + Send + Sync>;

/// A registry of dynamic functions, indexed by id.
#[derive(Clone, Default)]
pub struct DynamicRegistry {
    functions: Vec<DynamicFn>,
}

impl DynamicRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a function and returns its id.
    pub fn register<F>(&mut self, f: F) -> usize
    where
        F: Fn(&[Value]) -> f64 + Send + Sync + 'static,
    {
        let id = self.functions.len();
        self.functions.push(Arc::new(f));
        id
    }

    /// Replaces the function registered under `id` (e.g. between decision
    /// tree iterations). Panics if `id` was never registered.
    pub fn replace<F>(&mut self, id: usize, f: F)
    where
        F: Fn(&[Value]) -> f64 + Send + Sync + 'static,
    {
        self.functions[id] = Arc::new(f);
    }

    /// Evaluates the function `id` on the given argument values. Unknown ids
    /// evaluate to the multiplicative identity 1.0 so that an unset dynamic
    /// function behaves as "no extra condition".
    #[inline]
    pub fn evaluate(&self, id: usize, args: &[Value]) -> f64 {
        match self.functions.get(id) {
            Some(f) => f(args),
            None => 1.0,
        }
    }

    /// Evaluates the function `id` on the values `lookup` gives `attrs`, in
    /// order. Up to four arguments are gathered on the stack, so the per-row
    /// call of the scan loops allocates nothing in the common case.
    #[inline]
    pub fn evaluate_attrs<F>(&self, id: usize, attrs: &[AttrId], lookup: &F) -> f64
    where
        F: Fn(AttrId) -> Value,
    {
        const INLINE: usize = 4;
        if attrs.len() <= INLINE {
            let mut args = [Value::Null; INLINE];
            for (arg, &attr) in args.iter_mut().zip(attrs) {
                *arg = lookup(attr);
            }
            self.evaluate(id, &args[..attrs.len()])
        } else {
            let args: Vec<Value> = attrs.iter().map(|&a| lookup(a)).collect();
            self.evaluate(id, &args)
        }
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// True if no function is registered.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }
}

impl std::fmt::Debug for DynamicRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicRegistry")
            .field("functions", &self.functions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_evaluate() {
        let mut reg = DynamicRegistry::new();
        let id = reg.register(|args: &[Value]| if args[0].as_f64() > 3.0 { 1.0 } else { 0.0 });
        assert_eq!(reg.evaluate(id, &[Value::Double(5.0)]), 1.0);
        assert_eq!(reg.evaluate(id, &[Value::Double(1.0)]), 0.0);
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
    }

    #[test]
    fn unknown_id_is_neutral() {
        let reg = DynamicRegistry::new();
        assert_eq!(reg.evaluate(17, &[Value::Int(0)]), 1.0);
        assert!(reg.is_empty());
    }

    #[test]
    fn replace_swaps_behaviour_without_reregistration() {
        let mut reg = DynamicRegistry::new();
        let id = reg.register(|_| 0.0);
        assert_eq!(reg.evaluate(id, &[]), 0.0);
        reg.replace(id, |_| 42.0);
        assert_eq!(reg.evaluate(id, &[]), 42.0);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn evaluate_attrs_passes_the_looked_up_values_in_order() {
        let mut reg = DynamicRegistry::new();
        let id = reg.register(|args: &[Value]| {
            args.iter()
                .enumerate()
                .map(|(i, v)| (i + 1) as f64 * v.as_f64())
                .sum()
        });
        let lookup = |a: AttrId| Value::Int(a.index() as i64 * 10);
        // 1·10 + 2·20 + 3·30 on the stack; six arguments spill to the heap.
        let three = [AttrId(1), AttrId(2), AttrId(3)];
        assert_eq!(reg.evaluate_attrs(id, &three, &lookup), 140.0);
        let six: Vec<AttrId> = (1..=6).map(AttrId).collect();
        assert_eq!(reg.evaluate_attrs(id, &six, &lookup), 910.0);
        assert_eq!(reg.evaluate_attrs(9, &three, &lookup), 1.0);
    }

    #[test]
    fn clone_shares_closures() {
        let mut reg = DynamicRegistry::new();
        let id = reg.register(|args: &[Value]| args.iter().map(|v| v.as_f64()).sum());
        let cloned = reg.clone();
        assert_eq!(cloned.evaluate(id, &[Value::Int(1), Value::Int(2)]), 3.0);
    }

    #[test]
    fn debug_does_not_leak_closures() {
        let mut reg = DynamicRegistry::new();
        reg.register(|_| 1.0);
        let s = format!("{reg:?}");
        assert!(s.contains("DynamicRegistry"));
        assert!(s.contains('1'));
    }
}
