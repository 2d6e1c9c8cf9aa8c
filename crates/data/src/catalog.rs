//! The database catalog: schema, relations, dictionaries, and statistics.
//!
//! The catalog is what the LMFAO layers consume: the join-tree layer needs
//! the schema and cardinality constraints (relation sizes and attribute
//! domain sizes), the multi-output-optimization layer needs per-relation
//! attribute domain sizes to pick attribute orders, and the execution layer
//! needs the (sorted) relations themselves.

use std::sync::Arc;

use crate::delta::TableDelta;
use crate::dictionary::DictionarySet;
use crate::error::{DataError, Result};
use crate::hash::FxHashMap;
use crate::relation::Relation;
use crate::schema::{AttrId, DatabaseSchema};
use crate::value::AttrType;

/// Cardinality statistics used by the optimizer layers.
#[derive(Debug, Clone, Default)]
pub struct Statistics {
    /// Number of tuples per relation (by relation name).
    pub relation_sizes: FxHashMap<String, usize>,
    /// Number of distinct values per (relation, attribute).
    pub domain_sizes: FxHashMap<(String, AttrId), usize>,
}

impl Statistics {
    /// Distinct-value count of `attr` in `relation`, if known.
    pub fn domain_size(&self, relation: &str, attr: AttrId) -> Option<usize> {
        self.domain_sizes
            .get(&(relation.to_string(), attr))
            .copied()
    }

    /// Size of `relation`, if known.
    pub fn relation_size(&self, relation: &str) -> Option<usize> {
        self.relation_sizes.get(relation).copied()
    }
}

/// An in-memory database: schema, one [`Relation`] per schema relation,
/// categorical dictionaries and cardinality statistics.
///
/// Relations and statistics live behind [`Arc`]s, so `Clone` costs one
/// reference-count bump per relation: every serving generation, prepared
/// batch and recompute referee shares one copy of the data. Mutation copies
/// on write at relation granularity: [`Database::apply`],
/// [`Database::relation_mut`] and [`Database::sort_relation`] duplicate the
/// targeted relation only while another clone still shares it
/// ([`Arc::make_mut`]). Columns keep sharing their dictionary handles, so
/// even a copied relation shares its categorical vocabulary.
///
/// Statistics never describe data they were not computed from: `apply`,
/// `relation_mut` and `replace_relation` drop the touched relation's entries,
/// and [`Database::domain_size`] falls back to a scan where an entry is
/// missing.
#[derive(Debug, Clone)]
pub struct Database {
    schema: DatabaseSchema,
    relations: Vec<Arc<Relation>>,
    dictionaries: DictionarySet,
    statistics: Arc<Statistics>,
}

/// The relations of a [`Database`], in schema order. Iterates as
/// `&Relation`; the `Arc`s that share them stay inside the database.
#[derive(Debug, Clone, Copy)]
pub struct Relations<'a>(&'a [Arc<Relation>]);

/// Iterator over [`Relations`].
pub type RelationIter<'a> =
    std::iter::Map<std::slice::Iter<'a, Arc<Relation>>, fn(&Arc<Relation>) -> &Relation>;

impl<'a> Relations<'a> {
    /// Iterates over the relations.
    pub fn iter(&self) -> RelationIter<'a> {
        self.into_iter()
    }
}

impl<'a> IntoIterator for Relations<'a> {
    type Item = &'a Relation;
    type IntoIter = RelationIter<'a>;

    fn into_iter(self) -> RelationIter<'a> {
        self.0.iter().map(Arc::as_ref)
    }
}

impl Database {
    /// Creates a database from a schema and relations. The relations must be
    /// given in the same order as the schema's relation list.
    pub fn new(schema: DatabaseSchema, relations: Vec<Relation>) -> Result<Self> {
        if schema.num_relations() != relations.len() {
            return Err(DataError::UnknownRelation(format!(
                "expected {} relations, got {}",
                schema.num_relations(),
                relations.len()
            )));
        }
        let mut db = Database {
            schema,
            relations: relations.into_iter().map(Arc::new).collect(),
            dictionaries: DictionarySet::new(),
            statistics: Arc::default(),
        };
        db.recompute_statistics();
        Ok(db)
    }

    /// Creates a database with dictionaries (for databases with categorical
    /// attributes loaded from strings). The dictionaries are linked into the
    /// relations' dictionary-encoded columns so that each column can decode
    /// its own codes (see [`crate::column::Column::decode`]).
    pub fn with_dictionaries(
        schema: DatabaseSchema,
        relations: Vec<Relation>,
        dictionaries: DictionarySet,
    ) -> Result<Self> {
        let mut db = Database::new(schema, relations)?;
        for rel in &mut db.relations {
            let rel = Arc::make_mut(rel);
            let attrs = rel.schema().attrs.clone();
            for (pos, attr) in attrs.into_iter().enumerate() {
                if let Some(dict) = dictionaries.shared(attr) {
                    rel.column_mut(pos).attach_dictionary(dict);
                }
            }
        }
        db.dictionaries = dictionaries;
        Ok(db)
    }

    /// The database schema.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// All relations, in schema order.
    pub fn relations(&self) -> Relations<'_> {
        Relations(&self.relations)
    }

    /// Relation by name.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        let idx = self.schema.relation_index(name)?;
        Ok(&self.relations[idx])
    }

    /// Mutable relation by name, copied first if another clone shares it.
    /// Drops the relation's statistics, which the caller may invalidate.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        let idx = self.schema.relation_index(name)?;
        self.forget_statistics(idx);
        Ok(Arc::make_mut(&mut self.relations[idx]))
    }

    /// Replaces the relation of the same name by `relation`, which must hold
    /// the same attributes in the same order (a [`Relation::subset`] of it,
    /// say). Copies nothing: other clones keep sharing the old relation.
    /// Drops the relation's statistics.
    pub fn replace_relation(&mut self, relation: Relation) -> Result<()> {
        let idx = self.schema.relation_index(relation.name())?;
        debug_assert_eq!(relation.schema().attrs, self.relations[idx].schema().attrs);
        self.forget_statistics(idx);
        self.relations[idx] = Arc::new(relation);
        Ok(())
    }

    /// Applies a signed delta to its target relation, with the semantics of
    /// [`Relation::apply`]. The delta is resolved against the shared
    /// relation first, so a failing delta (an unmatched delete, a wrong
    /// arity) changes and copies nothing; a successful one copies the
    /// relation only if another clone still shares it, and drops its
    /// statistics.
    pub fn apply(&mut self, delta: &TableDelta) -> Result<()> {
        let idx = self.schema.relation_index(delta.relation())?;
        let resolved = self.relations[idx].resolve(delta)?;
        self.forget_statistics(idx);
        Arc::make_mut(&mut self.relations[idx]).apply_resolved(resolved);
        Ok(())
    }

    /// Sorts relation `name` by the attributes of `attrs` it has, in that
    /// order (the trie scans need every relation sorted by its join
    /// attributes). Whether the rows are already in order is decided from
    /// the data, never from [`Relation::sorted_by`]; a relation whose rows
    /// and recorded order already agree stays shared. Sorting keeps the
    /// statistics.
    pub fn sort_relation(&mut self, name: &str, attrs: &[AttrId]) -> Result<()> {
        let idx = self.schema.relation_index(name)?;
        let rel = &self.relations[idx];
        let positions: Vec<usize> = attrs.iter().filter_map(|&a| rel.position(a)).collect();
        let perm = rel.sort_permutation(&positions);
        if perm.is_some() || rel.sorted_by() != positions {
            Arc::make_mut(&mut self.relations[idx]).reorder(perm.as_deref(), &positions);
        }
        Ok(())
    }

    /// True if `self` and `other` share the storage of relation `name`:
    /// neither side copied it since they diverged.
    pub fn shares_relation_with(&self, other: &Database, name: &str) -> bool {
        match (
            self.schema.relation_index(name),
            other.schema.relation_index(name),
        ) {
            (Ok(a), Ok(b)) => Arc::ptr_eq(&self.relations[a], &other.relations[b]),
            _ => false,
        }
    }

    /// The categorical dictionaries.
    pub fn dictionaries(&self) -> &DictionarySet {
        &self.dictionaries
    }

    /// Cardinality statistics.
    pub fn statistics(&self) -> &Statistics {
        &self.statistics
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations().iter().map(Relation::len).sum()
    }

    /// Total payload size in bytes across all relations.
    pub fn total_size_bytes(&self) -> usize {
        self.relations().iter().map(Relation::size_bytes).sum()
    }

    /// Attributes of the whole database, grouped by type.
    pub fn attributes_of_type(&self, ty: AttrType) -> Vec<AttrId> {
        self.schema
            .attributes()
            .iter()
            .filter(|a| a.attr_type == ty)
            .map(|a| a.id)
            .collect()
    }

    /// Recomputes relation sizes and per-relation attribute domain sizes.
    pub fn recompute_statistics(&mut self) {
        let mut stats = Statistics::default();
        for rel in self.relations() {
            stats
                .relation_sizes
                .insert(rel.name().to_string(), rel.len());
            for (pos, &attr) in rel.schema().attrs.iter().enumerate() {
                stats
                    .domain_sizes
                    .insert((rel.name().to_string(), attr), rel.distinct_count(pos));
            }
        }
        self.statistics = Arc::new(stats);
    }

    /// Removes the statistics of relation `idx`.
    fn forget_statistics(&mut self, idx: usize) {
        let name = self.relations[idx].name();
        let stats = Arc::make_mut(&mut self.statistics);
        stats.relation_sizes.remove(name);
        stats.domain_sizes.retain(|(r, _), _| r != name);
    }

    /// Domain size of an attribute in a relation (falls back to a fresh scan
    /// when statistics have not been computed for it).
    pub fn domain_size(&self, relation: &str, attr: AttrId) -> usize {
        if let Some(d) = self.statistics.domain_size(relation, attr) {
            return d;
        }
        if let Ok(rel) = self.relation(relation) {
            if let Some(pos) = rel.position(attr) {
                return rel.distinct_count(pos);
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::value::Value;

    fn tiny_db() -> Database {
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs("R", &[("a", AttrType::Int), ("b", AttrType::Int)]);
        schema.add_relation_with_attrs("S", &[("b", AttrType::Int), ("c", AttrType::Categorical)]);
        let a = schema.attr_id("a").unwrap();
        let b = schema.attr_id("b").unwrap();
        let c = schema.attr_id("c").unwrap();
        let r = Relation::from_rows(
            RelationSchema::new("R", vec![a, b]),
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(10)],
                vec![Value::Int(3), Value::Int(20)],
            ],
        )
        .unwrap();
        let s = Relation::from_rows(
            RelationSchema::new("S", vec![b, c]),
            vec![
                vec![Value::Int(10), Value::Cat(0)],
                vec![Value::Int(20), Value::Cat(1)],
            ],
        )
        .unwrap();
        Database::new(schema, vec![r, s]).unwrap()
    }

    #[test]
    fn construction_validates_relation_count() {
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs("R", &[("a", AttrType::Int)]);
        assert!(Database::new(schema, vec![]).is_err());
    }

    #[test]
    fn statistics_are_computed() {
        let db = tiny_db();
        assert_eq!(db.statistics().relation_size("R"), Some(3));
        assert_eq!(db.statistics().relation_size("S"), Some(2));
        let b = db.schema().attr_id("b").unwrap();
        assert_eq!(db.statistics().domain_size("R", b), Some(2));
        assert_eq!(db.domain_size("R", b), 2);
        assert_eq!(db.domain_size("S", b), 2);
    }

    #[test]
    fn totals() {
        let db = tiny_db();
        assert_eq!(db.total_tuples(), 5);
        assert!(db.total_size_bytes() > 0);
    }

    #[test]
    fn relation_lookup() {
        let db = tiny_db();
        assert_eq!(db.relation("R").unwrap().len(), 3);
        assert!(db.relation("T").is_err());
        let names: Vec<&str> = db.relations().iter().map(Relation::name).collect();
        assert_eq!(names, ["R", "S"]);
    }

    #[test]
    fn attributes_of_type() {
        let db = tiny_db();
        let cats = db.attributes_of_type(AttrType::Categorical);
        assert_eq!(cats.len(), 1);
        assert_eq!(db.schema().attr_name(cats[0]), "c");
        assert_eq!(db.attributes_of_type(AttrType::Int).len(), 2);
    }

    #[test]
    fn sort_relation_checks_the_rows_and_shares_sorted_relations() {
        let mut db = tiny_db();
        let b = db.schema().attr_id("b").unwrap();
        let a = db.schema().attr_id("a").unwrap();
        db.sort_relation("R", &[b, a]).unwrap();
        assert!(db.relation("R").unwrap().is_sorted_by(&[1, 0]));
        assert!(db.sort_relation("T", &[a]).is_err());
        // Already in order by its rows and its recorded order: stays shared.
        let mut again = db.clone();
        again.sort_relation("R", &[b, a]).unwrap();
        assert!(again.shares_relation_with(&db, "R"));
        // In order by its rows but not recorded so: recorded on a copy.
        again.sort_relation("S", &[b]).unwrap();
        assert!(again.relation("S").unwrap().is_sorted_by(&[0]));
        assert!(!db.relation("S").unwrap().is_sorted_by(&[0]));
        assert_eq!(again.statistics().relation_size("S"), Some(2));
    }

    fn r_insert(db: &Database, a: i64, b: i64) -> TableDelta {
        let mut delta = TableDelta::for_relation(db.relation("R").unwrap());
        delta.insert(&[Value::Int(a), Value::Int(b)]).unwrap();
        delta
    }

    #[test]
    fn clone_shares_every_relation() {
        let db = tiny_db();
        let other = db.clone();
        assert!(db.shares_relation_with(&other, "R"));
        assert!(db.shares_relation_with(&other, "S"));
        assert!(!db.shares_relation_with(&other, "T"));
    }

    #[test]
    fn apply_copies_only_the_changed_relation() {
        let db = tiny_db();
        let mut next = db.clone();
        next.apply(&r_insert(&db, 7, 30)).unwrap();
        assert!(!next.shares_relation_with(&db, "R"), "R was copied");
        assert!(next.shares_relation_with(&db, "S"), "S stays shared");
        assert_eq!(db.relation("R").unwrap().len(), 3, "old clone unchanged");
        assert_eq!(next.relation("R").unwrap().len(), 4);
    }

    #[test]
    fn apply_without_other_pins_mutates_in_place() {
        let mut db = tiny_db();
        let before: *const Relation = db.relation("R").unwrap();
        db.apply(&r_insert(&db, 7, 30)).unwrap();
        let after: *const Relation = db.relation("R").unwrap();
        assert_eq!(before, after, "sole owner: no copy");
        assert_eq!(db.relation("R").unwrap().len(), 4);
    }

    #[test]
    fn failed_apply_copies_nothing() {
        let db = tiny_db();
        let mut next = db.clone();
        let mut delta = TableDelta::for_relation(db.relation("R").unwrap());
        delta.delete(&[Value::Int(99), Value::Int(99)]).unwrap();
        assert!(next.apply(&delta).is_err());
        assert!(next.shares_relation_with(&db, "R"), "nothing was copied");
        assert_eq!(next.relation("R").unwrap().len(), 3);
        assert_eq!(next.statistics().relation_size("R"), Some(3));
    }

    #[test]
    fn replace_relation_swaps_in_one_relation() {
        let db = tiny_db();
        let mut next = db.clone();
        next.replace_relation(db.relation("R").unwrap().subset(&[0, 2]))
            .unwrap();
        assert!(!next.shares_relation_with(&db, "R"));
        assert!(next.shares_relation_with(&db, "S"), "S stays shared");
        let rows: Vec<Vec<Value>> = next
            .relation("R")
            .unwrap()
            .rows()
            .map(|r| r.to_vec())
            .collect();
        assert_eq!(
            rows,
            [
                [Value::Int(1), Value::Int(10)],
                [Value::Int(3), Value::Int(20)]
            ]
        );
        assert_eq!(db.relation("R").unwrap().len(), 3, "old clone unchanged");
        assert_eq!(next.statistics().relation_size("R"), None);
        assert_eq!(next.statistics().relation_size("S"), Some(2));
        let unknown = Relation::from_rows(RelationSchema::new("T", vec![]), vec![]).unwrap();
        assert!(next.replace_relation(unknown).is_err());
    }

    #[test]
    fn changed_relations_drop_their_statistics() {
        let mut db = tiny_db();
        let b = db.schema().attr_id("b").unwrap();
        assert_eq!(db.domain_size("R", b), 2);
        db.apply(&r_insert(&db, 7, 30)).unwrap();
        assert_eq!(db.statistics().relation_size("R"), None);
        assert_eq!(db.statistics().domain_size("R", b), None);
        assert_eq!(db.domain_size("R", b), 3, "falls back to a scan");
        assert_eq!(db.statistics().relation_size("S"), Some(2), "S kept");
        db.relation_mut("S").unwrap();
        assert_eq!(db.statistics().relation_size("S"), None);
        db.recompute_statistics();
        assert_eq!(db.statistics().relation_size("R"), Some(4));
    }

    #[test]
    fn with_dictionaries_links_dict_columns() {
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs("S", &[("b", AttrType::Int), ("c", AttrType::Categorical)]);
        let b = schema.attr_id("b").unwrap();
        let c = schema.attr_id("c").unwrap();
        let mut dicts = crate::dictionary::DictionarySet::new();
        let lima = dicts.encode(c, "Lima");
        let quito = dicts.encode(c, "Quito");
        let s = Relation::from_rows(
            RelationSchema::new("S", vec![b, c]),
            vec![
                vec![Value::Int(1), Value::Cat(quito)],
                vec![Value::Int(2), Value::Cat(lima)],
            ],
        )
        .unwrap();
        let db = Database::with_dictionaries(schema, vec![s], dicts).unwrap();
        let col = db.relation("S").unwrap().column(1);
        assert_eq!(col.decode(0), Some("Quito"));
        assert_eq!(col.decode(1), Some("Lima"));
        assert!(db.relation("S").unwrap().column(0).dictionary().is_none());
    }

    #[test]
    fn unknown_domain_is_zero() {
        let db = tiny_db();
        let c = db.schema().attr_id("c").unwrap();
        assert_eq!(db.domain_size("R", c), 0);
    }
}
