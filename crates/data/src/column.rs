//! Typed columns: the storage cells of a columnar [`crate::relation::Relation`].
//!
//! The LMFAO hot loops are tight scans over sorted base relations: trie
//! grouping compares one attribute across consecutive rows, local-expression
//! sums read one or two attributes per tuple, and key extraction gathers a
//! handful of attributes. Row-major `Vec<Value>` storage makes every such
//! access pay a row-stride indirection plus an enum-tag branch. A [`Column`]
//! instead stores one attribute contiguously in its native representation —
//! `i64`, `f64`, or dictionary codes (`u32`) for categoricals — so scans read
//! dense typed slices and only materialize a [`Value`] at group boundaries or
//! output keys.
//!
//! Columns are self-typing: the first value pushed decides the
//! representation, and a value of another variant (or a [`Value::Null`])
//! demotes the column to the [`Column::Mixed`] fallback, which preserves the
//! exact row-oriented semantics (including cross-variant ordering) for
//! heterogeneous data. All typed fast paths are bit-for-bit equivalent to the
//! corresponding [`Value`] operations: `f64` comparisons use
//! [`f64::total_cmp`] and equality compares bit patterns, exactly like
//! `Value::Double`.

use crate::dictionary::Dictionary;
use crate::value::Value;
use std::cmp::Ordering;
use std::sync::Arc;

/// A typed column of a relation.
#[derive(Debug, Clone)]
pub enum Column {
    /// All values are [`Value::Int`], stored as native `i64`.
    Int(Vec<i64>),
    /// All values are [`Value::Double`], stored as native `f64` (bit-exact,
    /// NaN payloads included).
    Float(Vec<f64>),
    /// All values are [`Value::Cat`]: dense dictionary codes, optionally
    /// carrying a shared handle to the dictionary that produced them (attached
    /// by [`crate::catalog::Database`] so the column can decode itself).
    Dict {
        /// The dictionary codes, one per row.
        codes: Vec<u32>,
        /// The dictionary the codes index into, when known.
        dictionary: Option<Arc<Dictionary>>,
    },
    /// Fallback for heterogeneous or null-bearing columns: plain enum storage
    /// with the row-oriented semantics.
    Mixed(Vec<Value>),
}

impl Column {
    /// An empty, not-yet-typed column (it adopts the variant of the first
    /// pushed value).
    pub fn new() -> Self {
        Column::Mixed(Vec::new())
    }

    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Dict { codes, .. } => codes.len(),
            Column::Mixed(v) => v.len(),
        }
    }

    /// True if the column holds no value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reserves capacity for `additional` further values.
    pub fn reserve(&mut self, additional: usize) {
        match self {
            Column::Int(v) => v.reserve(additional),
            Column::Float(v) => v.reserve(additional),
            Column::Dict { codes, .. } => codes.reserve(additional),
            Column::Mixed(v) => v.reserve(additional),
        }
    }

    /// Appends a value, retyping or demoting the column as needed: an empty
    /// untyped column adopts the variant of the first value; a mismatching
    /// variant (or a null) demotes typed storage to [`Column::Mixed`].
    ///
    /// Demoting a [`Column::Dict`] preserves every code (as [`Value::Cat`])
    /// but drops the attached dictionary handle — `Mixed` storage has
    /// nowhere to carry it, so [`Column::decode`] returns `None` afterwards.
    /// Decode through [`crate::dictionary::DictionarySet`] directly when a
    /// column may hold heterogeneous values.
    pub fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (Column::Int(col), Value::Int(i)) => col.push(i),
            (Column::Float(col), Value::Double(d)) => col.push(d),
            (Column::Dict { codes, .. }, Value::Cat(c)) => codes.push(c),
            (Column::Mixed(col), v) if col.is_empty() => match v {
                Value::Int(i) => *self = Column::Int(vec![i]),
                Value::Double(d) => *self = Column::Float(vec![d]),
                Value::Cat(c) => {
                    *self = Column::Dict {
                        codes: vec![c],
                        dictionary: None,
                    }
                }
                Value::Null => col.push(Value::Null),
            },
            (Column::Mixed(col), v) => col.push(v),
            (typed, v) => {
                // Variant mismatch: demote to Mixed, preserving all values.
                let mut values: Vec<Value> = (0..typed.len()).map(|i| typed.value(i)).collect();
                values.push(v);
                *self = Column::Mixed(values);
            }
        }
    }

    /// The value at `row`, materialized as a [`Value`].
    #[inline]
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[row]),
            Column::Float(v) => Value::Double(v[row]),
            Column::Dict { codes, .. } => Value::Cat(codes[row]),
            Column::Mixed(v) => v[row],
        }
    }

    /// The numeric interpretation of the value at `row`, without constructing
    /// a [`Value`] (matches [`Value::as_f64`] exactly).
    #[inline]
    pub fn f64_at(&self, row: usize) -> f64 {
        match self {
            Column::Int(v) => v[row] as f64,
            Column::Float(v) => v[row],
            Column::Dict { codes, .. } => codes[row] as f64,
            Column::Mixed(v) => v[row].as_f64(),
        }
    }

    /// Compares the values at two rows of this column with the total order of
    /// [`Value`] (typed columns never cross variants, so the comparison is a
    /// single native compare).
    #[inline]
    pub fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        match self {
            Column::Int(v) => v[a].cmp(&v[b]),
            Column::Float(v) => v[a].total_cmp(&v[b]),
            Column::Dict { codes, .. } => codes[a].cmp(&codes[b]),
            Column::Mixed(v) => v[a].cmp(&v[b]),
        }
    }

    /// True if the values at two rows are equal (bit equality for floats,
    /// like `Value::Double`).
    #[inline]
    pub fn eq_rows(&self, a: usize, b: usize) -> bool {
        match self {
            Column::Int(v) => v[a] == v[b],
            Column::Float(v) => v[a].to_bits() == v[b].to_bits(),
            Column::Dict { codes, .. } => codes[a] == codes[b],
            Column::Mixed(v) => v[a] == v[b],
        }
    }

    /// The typed `i64` slice, when this is an [`Column::Int`] column.
    #[inline]
    pub fn as_int(&self) -> Option<&[i64]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The typed `f64` slice, when this is a [`Column::Float`] column.
    #[inline]
    pub fn as_float(&self) -> Option<&[f64]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The dictionary attached to a [`Column::Dict`] column, if any.
    pub fn dictionary(&self) -> Option<&Arc<Dictionary>> {
        match self {
            Column::Dict { dictionary, .. } => dictionary.as_ref(),
            _ => None,
        }
    }

    /// Attaches a shared dictionary to a [`Column::Dict`] column (no-op for
    /// other variants).
    pub fn attach_dictionary(&mut self, dict: Arc<Dictionary>) {
        if let Column::Dict { dictionary, .. } = self {
            *dictionary = Some(dict);
        }
    }

    /// Decodes the value at `row` through the attached dictionary, when this
    /// is a dict column with a dictionary and the code is in vocabulary.
    pub fn decode(&self, row: usize) -> Option<&str> {
        match self {
            Column::Dict {
                codes,
                dictionary: Some(d),
            } => d.decode(codes[row]),
            _ => None,
        }
    }

    /// Rebuilds the column under a row permutation: output row `i` takes the
    /// value of input row `perm[i]`. This is how sorting moves a columnar
    /// relation — one contiguous gather per column instead of row swaps.
    pub fn permute(&self, perm: &[u32]) -> Column {
        match self {
            Column::Int(v) => Column::Int(perm.iter().map(|&i| v[i as usize]).collect()),
            Column::Float(v) => Column::Float(perm.iter().map(|&i| v[i as usize]).collect()),
            Column::Dict { codes, dictionary } => Column::Dict {
                codes: perm.iter().map(|&i| codes[i as usize]).collect(),
                dictionary: dictionary.clone(),
            },
            Column::Mixed(v) => Column::Mixed(perm.iter().map(|&i| v[i as usize]).collect()),
        }
    }

    /// Gathers the rows selected by `rows` into a new column (used by the
    /// columnar join materialization).
    pub fn gather(&self, rows: &[u32]) -> Column {
        self.permute(rows)
    }

    /// Payload size of the column in bytes (native representation).
    pub fn size_bytes(&self) -> usize {
        match self {
            Column::Int(v) => v.len() * std::mem::size_of::<i64>(),
            Column::Float(v) => v.len() * std::mem::size_of::<f64>(),
            Column::Dict { codes, .. } => codes.len() * std::mem::size_of::<u32>(),
            Column::Mixed(v) => v.len() * std::mem::size_of::<Value>(),
        }
    }
}

impl Default for Column {
    fn default() -> Self {
        Column::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_value_decides_the_representation() {
        let mut c = Column::new();
        c.push(Value::Int(3));
        c.push(Value::Int(-1));
        assert!(matches!(c, Column::Int(_)));
        assert_eq!(c.as_int(), Some(&[3i64, -1][..]));

        let mut f = Column::new();
        f.push(Value::Double(0.5));
        assert!(matches!(f, Column::Float(_)));

        let mut d = Column::new();
        d.push(Value::Cat(7));
        assert!(matches!(&d, Column::Dict { codes, .. } if codes[..] == [7]));
    }

    #[test]
    fn variant_mismatch_demotes_to_mixed_losslessly() {
        let mut c = Column::new();
        c.push(Value::Int(1));
        c.push(Value::Double(2.5));
        assert!(matches!(c, Column::Mixed(_)));
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::Double(2.5));
    }

    #[test]
    fn nulls_force_mixed_storage() {
        let mut c = Column::new();
        c.push(Value::Null);
        c.push(Value::Int(4));
        assert!(matches!(c, Column::Mixed(_)));
        assert_eq!(c.value(0), Value::Null);
        assert_eq!(c.value(1), Value::Int(4));

        let mut t = Column::new();
        t.push(Value::Int(4));
        t.push(Value::Null);
        assert!(matches!(t, Column::Mixed(_)));
        assert_eq!(t.value(1), Value::Null);
    }

    #[test]
    fn float_comparisons_match_value_total_order() {
        let mut c = Column::new();
        c.push(Value::Double(f64::NAN));
        c.push(Value::Double(1.0));
        assert_eq!(c.cmp_rows(1, 0), Ordering::Less); // total_cmp: 1.0 < NaN
        assert!(c.eq_rows(0, 0)); // NaN bit-equals itself
        assert!(!c.eq_rows(0, 1));
    }

    #[test]
    fn permutation_gathers_values() {
        let mut c = Column::new();
        for i in 0..4 {
            c.push(Value::Int(i));
        }
        let p = c.permute(&[3, 1, 0, 2]);
        assert_eq!(p.as_int(), Some(&[3i64, 1, 0, 2][..]));
    }

    #[test]
    fn dictionary_attachment_and_decode() {
        let mut dict = Dictionary::new();
        let quito = dict.encode("Quito");
        let lima = dict.encode("Lima");
        let mut c = Column::new();
        c.push(Value::Cat(lima));
        c.push(Value::Cat(quito));
        assert!(c.decode(0).is_none(), "no dictionary attached yet");
        c.attach_dictionary(Arc::new(dict));
        assert_eq!(c.decode(0), Some("Lima"));
        assert_eq!(c.decode(1), Some("Quito"));
        assert!(c.dictionary().is_some());
    }

    #[test]
    fn out_of_vocabulary_codes_round_trip_and_decode_to_none() {
        // The satellite case: inserting a Cat code beyond the attached
        // dictionary's vocabulary is legal — the code is stored and compared
        // natively, decodes to None, and starts decoding once the dictionary
        // learns enough categories.
        let mut dict = Dictionary::new();
        dict.encode("known");
        let mut c = Column::new();
        c.push(Value::Cat(0));
        c.attach_dictionary(Arc::new(dict));
        c.push(Value::Cat(41)); // OOV insert
        assert!(matches!(c, Column::Dict { .. }), "stays dictionary-typed");
        assert_eq!(c.value(1), Value::Cat(41));
        assert_eq!(c.decode(0), Some("known"));
        assert_eq!(c.decode(1), None, "OOV code has no decoding yet");
        assert_eq!(c.cmp_rows(0, 1), Ordering::Less);
        // Growing the dictionary to cover the code makes it decodable.
        let mut grown = Dictionary::new();
        for i in 0..42 {
            grown.encode(&format!("cat{i}"));
        }
        c.attach_dictionary(Arc::new(grown));
        assert_eq!(c.decode(1), Some("cat41"));
    }

    #[test]
    fn f64_at_matches_value_as_f64() {
        for v in [
            Value::Int(-3),
            Value::Double(2.25),
            Value::Cat(9),
            Value::Null,
        ] {
            let mut c = Column::new();
            c.push(v);
            assert_eq!(c.f64_at(0), v.as_f64());
        }
    }

    #[test]
    fn size_bytes_uses_native_widths() {
        let mut c = Column::new();
        c.push(Value::Cat(1));
        c.push(Value::Cat(2));
        assert_eq!(c.size_bytes(), 2 * std::mem::size_of::<u32>());
    }
}
