//! Database and relation schemas.
//!
//! LMFAO computes natural joins: attributes with the same name in different
//! relations are join attributes. Attributes are therefore registered once
//! per database in a [`DatabaseSchema`] and referenced everywhere else by a
//! compact [`AttrId`], which keeps query plans and computed views small and
//! cheap to hash.

use crate::error::{DataError, Result};
use crate::hash::FxHashMap;
use crate::value::AttrType;
use std::fmt;

/// A compact identifier of an attribute registered in a [`DatabaseSchema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u32);

impl AttrId {
    /// The index of this attribute in the database-wide attribute list.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}

/// An attribute: a name, a type, and an id assigned by the database schema.
#[derive(Debug, Clone)]
pub struct Attribute {
    /// Identifier within the owning [`DatabaseSchema`].
    pub id: AttrId,
    /// Attribute name, shared across relations (natural join semantics).
    pub name: String,
    /// Value type of the attribute.
    pub attr_type: AttrType,
}

/// The schema of a single relation: an ordered list of attribute ids.
#[derive(Debug, Clone)]
pub struct RelationSchema {
    /// Relation name, e.g. `"Sales"`.
    pub name: String,
    /// Ordered list of attributes of the relation.
    pub attrs: Vec<AttrId>,
}

impl RelationSchema {
    /// Creates a new relation schema from a name and attribute list.
    pub fn new(name: impl Into<String>, attrs: Vec<AttrId>) -> Self {
        RelationSchema {
            name: name.into(),
            attrs,
        }
    }

    /// Number of attributes (arity) of the relation.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Position of `attr` within this relation, if present.
    pub fn position(&self, attr: AttrId) -> Option<usize> {
        self.attrs.iter().position(|&a| a == attr)
    }

    /// Whether the relation contains `attr`.
    pub fn contains(&self, attr: AttrId) -> bool {
        self.attrs.contains(&attr)
    }

    /// Attributes shared with another relation schema (the natural-join keys).
    pub fn shared_attrs(&self, other: &RelationSchema) -> Vec<AttrId> {
        self.attrs
            .iter()
            .copied()
            .filter(|a| other.contains(*a))
            .collect()
    }
}

/// The schema of the whole database: the global attribute registry plus one
/// [`RelationSchema`] per relation.
#[derive(Debug, Clone, Default)]
pub struct DatabaseSchema {
    attributes: Vec<Attribute>,
    by_name: FxHashMap<String, AttrId>,
    relations: Vec<RelationSchema>,
    relation_by_name: FxHashMap<String, usize>,
}

impl DatabaseSchema {
    /// Creates an empty database schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an attribute (or returns the existing id if the name is
    /// already registered with the same type).
    pub fn add_attribute(&mut self, name: impl Into<String>, attr_type: AttrType) -> AttrId {
        let name = name.into();
        if let Some(&id) = self.by_name.get(&name) {
            return id;
        }
        let id = AttrId(self.attributes.len() as u32);
        self.attributes.push(Attribute {
            id,
            name: name.clone(),
            attr_type,
        });
        self.by_name.insert(name, id);
        id
    }

    /// Registers a relation schema. Returns its index in the schema.
    pub fn add_relation(&mut self, rel: RelationSchema) -> usize {
        let idx = self.relations.len();
        self.relation_by_name.insert(rel.name.clone(), idx);
        self.relations.push(rel);
        idx
    }

    /// Convenience: registers a relation given `(attribute name, type)` pairs.
    pub fn add_relation_with_attrs(
        &mut self,
        name: impl Into<String>,
        attrs: &[(&str, AttrType)],
    ) -> usize {
        let ids: Vec<AttrId> = attrs
            .iter()
            .map(|(n, t)| self.add_attribute(*n, *t))
            .collect();
        self.add_relation(RelationSchema::new(name, ids))
    }

    /// Looks up an attribute id by name.
    pub fn attr_id(&self, name: &str) -> Result<AttrId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| DataError::UnknownAttribute(name.to_string()))
    }

    /// Looks up an attribute by id.
    pub fn attribute(&self, id: AttrId) -> &Attribute {
        &self.attributes[id.index()]
    }

    /// The name of an attribute.
    pub fn attr_name(&self, id: AttrId) -> &str {
        &self.attributes[id.index()].name
    }

    /// The type of an attribute.
    pub fn attr_type(&self, id: AttrId) -> AttrType {
        self.attributes[id.index()].attr_type
    }

    /// All registered attributes.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Number of registered attributes.
    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// All registered relation schemas.
    pub fn relations(&self) -> &[RelationSchema] {
        &self.relations
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Looks up a relation schema by name.
    pub fn relation(&self, name: &str) -> Result<&RelationSchema> {
        self.relation_by_name
            .get(name)
            .map(|&i| &self.relations[i])
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))
    }

    /// Index of a relation by name.
    pub fn relation_index(&self, name: &str) -> Result<usize> {
        self.relation_by_name
            .get(name)
            .copied()
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> DatabaseSchema {
        let mut s = DatabaseSchema::new();
        s.add_relation_with_attrs(
            "Sales",
            &[
                ("date", AttrType::Int),
                ("store", AttrType::Int),
                ("item", AttrType::Int),
                ("units", AttrType::Double),
            ],
        );
        s.add_relation_with_attrs(
            "Items",
            &[
                ("item", AttrType::Int),
                ("family", AttrType::Categorical),
                ("price", AttrType::Double),
            ],
        );
        s.add_relation_with_attrs(
            "Stores",
            &[("store", AttrType::Int), ("city", AttrType::Categorical)],
        );
        s
    }

    #[test]
    fn attribute_registration_dedupes_by_name() {
        let s = sample_schema();
        // date, store, item, units, family, price, city = 7 distinct attributes
        assert_eq!(s.num_attributes(), 7);
        assert_eq!(s.num_relations(), 3);
        let item_in_sales = s.relation("Sales").unwrap().attrs[2];
        let item_in_items = s.relation("Items").unwrap().attrs[0];
        assert_eq!(item_in_sales, item_in_items);
    }

    #[test]
    fn attr_lookup_by_name() {
        let s = sample_schema();
        let id = s.attr_id("family").unwrap();
        assert_eq!(s.attr_name(id), "family");
        assert_eq!(s.attr_type(id), AttrType::Categorical);
        assert!(s.attr_id("missing").is_err());
    }

    #[test]
    fn relation_lookup() {
        let s = sample_schema();
        assert_eq!(s.relation("Items").unwrap().arity(), 3);
        assert!(s.relation("Nope").is_err());
        assert_eq!(s.relation_index("Stores").unwrap(), 2);
    }

    #[test]
    fn shared_attrs_are_join_keys() {
        let s = sample_schema();
        let sales = s.relation("Sales").unwrap();
        let items = s.relation("Items").unwrap();
        let shared = sales.shared_attrs(items);
        assert_eq!(shared.len(), 1);
        assert_eq!(s.attr_name(shared[0]), "item");
    }

    #[test]
    fn relation_schema_positions() {
        let s = sample_schema();
        let sales = s.relation("Sales").unwrap();
        let units = s.attr_id("units").unwrap();
        assert_eq!(sales.position(units), Some(3));
        assert!(sales.contains(units));
        let city = s.attr_id("city").unwrap();
        assert_eq!(sales.position(city), None);
        assert!(!sales.contains(city));
    }

    #[test]
    fn attr_id_display_and_index() {
        let id = AttrId(4);
        assert_eq!(id.index(), 4);
        assert_eq!(id.to_string(), "X4");
    }
}
