//! Typed values stored in relations.
//!
//! LMFAO relations are sorted in-memory arrays of tuples. Attribute values are
//! either continuous (integers / doubles) or categorical (dictionary-encoded
//! identifiers, see [`crate::dictionary::Dictionary`]). The engine frequently
//! needs to (a) order values to keep relations sorted by their join attributes,
//! (b) hash values to key computed views, and (c) interpret values numerically
//! when evaluating user-defined aggregate functions, so [`Value`] implements
//! total ordering, hashing and a lossless-as-possible `as_f64` conversion.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The type of an attribute in a relation schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrType {
    /// 64-bit signed integer, e.g. counts, identifiers used as join keys.
    Int,
    /// 64-bit floating point, e.g. prices, temperatures.
    Double,
    /// Dictionary-encoded categorical value, e.g. city, item family.
    Categorical,
}

impl AttrType {
    /// Whether this attribute type is treated as a categorical feature by the
    /// ML applications (one-hot encoded, i.e. turned into a group-by attribute).
    pub fn is_categorical(self) -> bool {
        matches!(self, AttrType::Categorical)
    }
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrType::Int => write!(f, "int"),
            AttrType::Double => write!(f, "double"),
            AttrType::Categorical => write!(f, "categorical"),
        }
    }
}

/// A single attribute value.
///
/// `Value` implements `Eq`, `Ord` and `Hash` with a *total* order (doubles are
/// compared via [`f64::total_cmp`]) so that tuples can be sorted and used as
/// keys of computed views.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// Signed integer value.
    Int(i64),
    /// Floating point value.
    Double(f64),
    /// Dictionary code of a categorical value.
    Cat(u32),
    /// Missing value. Sorts before every other value of the same variant class.
    Null,
}

impl Value {
    /// Numeric interpretation used by aggregate functions.
    ///
    /// Categorical codes are interpreted as their dictionary code, which is
    /// only meaningful for indicator functions; regression aggregates never
    /// use raw categorical codes directly (they become group-by attributes).
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Int(i) => i as f64,
            Value::Double(d) => d,
            Value::Cat(c) => c as f64,
            Value::Null => 0.0,
        }
    }

    /// Integer interpretation, truncating doubles.
    #[inline]
    pub fn as_i64(self) -> i64 {
        match self {
            Value::Int(i) => i,
            Value::Double(d) => d as i64,
            Value::Cat(c) => c as i64,
            Value::Null => 0,
        }
    }

    /// Returns the categorical code, if this value is categorical.
    #[inline]
    pub fn as_cat(self) -> Option<u32> {
        match self {
            Value::Cat(c) => Some(c),
            _ => None,
        }
    }

    /// The [`AttrType`] this value naturally belongs to, if any.
    pub fn attr_type(self) -> Option<AttrType> {
        match self {
            Value::Int(_) => Some(AttrType::Int),
            Value::Double(_) => Some(AttrType::Double),
            Value::Cat(_) => Some(AttrType::Categorical),
            Value::Null => None,
        }
    }

    /// Rank used to order values of different variants deterministically.
    #[inline]
    fn variant_rank(self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Double(_) => 2,
            Value::Cat(_) => 3,
        }
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Cat(a), Value::Cat(b)) => a == b,
            (Value::Null, Value::Null) => true,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            (Value::Cat(a), Value::Cat(b)) => a.cmp(b),
            (Value::Null, Value::Null) => Ordering::Equal,
            _ => self.variant_rank().cmp(&other.variant_rank()),
        }
    }
}

impl Hash for Value {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(i) => {
                state.write_u8(1);
                state.write_i64(*i);
            }
            Value::Double(d) => {
                state.write_u8(2);
                state.write_u64(d.to_bits());
            }
            Value::Cat(c) => {
                state.write_u8(3);
                state.write_u32(*c);
            }
            Value::Null => state.write_u8(0),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Cat(c) => write!(f, "#{c}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Cat(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_ordering_and_equality() {
        assert!(Value::Int(1) < Value::Int(2));
        assert_eq!(Value::Int(5), Value::Int(5));
        assert_ne!(Value::Int(5), Value::Int(6));
    }

    #[test]
    fn double_total_order_handles_nan() {
        let nan = Value::Double(f64::NAN);
        let one = Value::Double(1.0);
        // total_cmp puts NaN after all normal numbers
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(one.cmp(&nan), Ordering::Less);
    }

    #[test]
    fn cross_variant_order_is_deterministic() {
        let mut vals = vec![
            Value::Cat(0),
            Value::Int(10),
            Value::Null,
            Value::Double(0.5),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Int(10),
                Value::Double(0.5),
                Value::Cat(0)
            ]
        );
    }

    #[test]
    fn as_f64_conversions() {
        assert_eq!(Value::Int(7).as_f64(), 7.0);
        assert_eq!(Value::Double(2.5).as_f64(), 2.5);
        assert_eq!(Value::Cat(3).as_f64(), 3.0);
        assert_eq!(Value::Null.as_f64(), 0.0);
    }

    #[test]
    fn as_i64_conversions() {
        assert_eq!(Value::Int(7).as_i64(), 7);
        assert_eq!(Value::Double(2.9).as_i64(), 2);
        assert_eq!(Value::Cat(3).as_i64(), 3);
        assert_eq!(Value::Null.as_i64(), 0);
    }

    #[test]
    fn hash_consistent_with_eq() {
        assert_eq!(hash_of(Value::Int(42)), hash_of(Value::Int(42)));
        assert_eq!(hash_of(Value::Double(1.5)), hash_of(Value::Double(1.5)));
        assert_ne!(hash_of(Value::Int(1)), hash_of(Value::Cat(1)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Cat(3).to_string(), "#3");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3.5f64), Value::Double(3.5));
        assert_eq!(Value::from(3u32), Value::Cat(3));
    }

    #[test]
    fn attr_type_of_values() {
        assert_eq!(Value::Int(1).attr_type(), Some(AttrType::Int));
        assert_eq!(Value::Double(1.0).attr_type(), Some(AttrType::Double));
        assert_eq!(Value::Cat(1).attr_type(), Some(AttrType::Categorical));
        assert_eq!(Value::Null.attr_type(), None);
    }

    #[test]
    fn attr_type_categorical_flag() {
        assert!(AttrType::Categorical.is_categorical());
        assert!(!AttrType::Int.is_categorical());
        assert!(!AttrType::Double.is_categorical());
    }
}
