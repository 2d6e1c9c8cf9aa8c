//! Recompute-from-scratch reference for incremental maintenance.
//!
//! The maintenance layer (`lmfao_core::maintain`) claims that committing a
//! [`TableDelta`] to a [`lmfao_core::Maintainer`] leaves it in the same
//! state as recomputing the whole batch over the updated database. This
//! module is the referee: a [`RecomputeReference`] tracks the same update
//! stream but answers every query by building a **fresh engine** over its
//! copy of the database and re-running the full batch — no retained state, no
//! deltas, no shortcuts. Tests drive both sides with identical streams and
//! compare results (exactly for integer-valued aggregates, within float
//! tolerance otherwise, since float addition is not associative).

use lmfao_core::{BatchResult, Engine, EngineConfig, EngineError, ViewSnapshot};
use lmfao_data::{Database, TableDelta};
use lmfao_expr::QueryBatch;
use lmfao_jointree::JoinTree;

/// The from-scratch referee of incremental maintenance: applies the same
/// deltas, recomputes everything on demand.
#[derive(Debug, Clone)]
pub struct RecomputeReference {
    db: Database,
    tree: JoinTree,
    config: EngineConfig,
    batch: QueryBatch,
}

impl RecomputeReference {
    /// Creates a reference over its own copy of the database.
    pub fn new(db: Database, tree: JoinTree, config: EngineConfig, batch: QueryBatch) -> Self {
        RecomputeReference {
            db,
            tree,
            config,
            batch,
        }
    }

    /// Creates a reference pinned to a published serving generation: the
    /// database is a clone of the snapshot's (sharing its relations until
    /// the reference applies a delta), and the join tree and configuration
    /// are taken from the plans the snapshot was computed under. Recomputing
    /// re-derives statistics and sort order from the data, then audits
    /// exactly what readers of that generation were answered from — however
    /// many generations the writer has published since.
    pub fn for_snapshot(snapshot: &ViewSnapshot, batch: QueryBatch) -> Self {
        RecomputeReference::new(
            snapshot.database().clone(),
            snapshot.join_tree().clone(),
            *snapshot.config(),
            batch,
        )
    }

    /// Applies a delta to the reference's database (same sorted-merge
    /// semantics as the maintained side — the updated relations are
    /// identical multisets).
    pub fn apply(&mut self, delta: &TableDelta) -> Result<(), EngineError> {
        self.db.apply(delta)?;
        Ok(())
    }

    /// The current database state.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Recomputes the full batch from scratch: fresh statistics, fresh sort,
    /// fresh plans, fresh scans. Deliberately pays the full price every call.
    pub fn recompute(&self) -> Result<BatchResult, EngineError> {
        Engine::new(self.db.clone(), self.tree.clone(), self.config).execute(&self.batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmfao_data::{AttrId, AttrType, DatabaseSchema, Relation, RelationSchema, Value};
    use lmfao_expr::Aggregate;
    use lmfao_jointree::{build_join_tree, Hypergraph};

    fn setup() -> (Database, JoinTree, QueryBatch) {
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs("R", &[("a", AttrType::Int), ("x", AttrType::Double)]);
        schema.add_relation_with_attrs("S", &[("a", AttrType::Int), ("y", AttrType::Double)]);
        let ids: Vec<AttrId> = ["a", "x", "y"]
            .iter()
            .map(|n| schema.attr_id(n).unwrap())
            .collect();
        let r = Relation::from_rows(
            RelationSchema::new("R", vec![ids[0], ids[1]]),
            (0..10)
                .map(|i| vec![Value::Int(i % 3), Value::Double(i as f64)])
                .collect(),
        )
        .unwrap();
        let s = Relation::from_rows(
            RelationSchema::new("S", vec![ids[0], ids[2]]),
            (0..3)
                .map(|i| vec![Value::Int(i), Value::Double((10 * i) as f64)])
                .collect(),
        )
        .unwrap();
        let db = Database::new(schema.clone(), vec![r, s]).unwrap();
        let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push("xy", vec![], vec![Aggregate::sum_product(ids[1], ids[2])]);
        (db, tree, batch)
    }

    #[test]
    fn recompute_tracks_applied_deltas() {
        let (db, tree, batch) = setup();
        let mut reference =
            RecomputeReference::new(db.clone(), tree, EngineConfig::default(), batch);
        let before = reference.recompute().unwrap().query("count").scalar()[0];
        let mut delta = TableDelta::for_relation(db.relation("R").unwrap());
        delta.insert(&[Value::Int(0), Value::Double(99.0)]).unwrap();
        reference.apply(&delta).unwrap();
        let after = reference.recompute().unwrap().query("count").scalar()[0];
        assert_eq!(after, before + 1.0);
        assert_eq!(reference.database().relation("R").unwrap().len(), 11);
    }

    #[test]
    fn snapshot_pinned_reference_audits_its_own_generation() {
        use lmfao_expr::DynamicRegistry;
        let (db, tree, batch) = setup();
        let mut writer = lmfao_core::Engine::new(db.clone(), tree, EngineConfig::default())
            .prepare(&batch)
            .unwrap()
            .into_serving(&DynamicRegistry::new())
            .unwrap();
        let pinned = writer.snapshot();
        // The writer moves on; the pinned generation must still audit clean.
        let mut delta = TableDelta::for_relation(db.relation("R").unwrap());
        delta.insert(&[Value::Int(1), Value::Double(50.0)]).unwrap();
        writer.commit(&delta, &DynamicRegistry::new()).unwrap();

        let reference = RecomputeReference::for_snapshot(&pinned, batch.clone());
        let audited = reference.recompute().unwrap();
        for (got, want) in pinned.results().queries.iter().zip(&audited.queries) {
            assert_eq!(got.data, want.data, "query {}", got.name);
        }
        // And a reference for the *new* generation sees the delta.
        let now = RecomputeReference::for_snapshot(&writer.snapshot(), batch);
        assert_eq!(
            now.recompute().unwrap().query("count").scalar()[0],
            audited.query("count").scalar()[0] + 1.0
        );
    }

    #[test]
    fn bad_delta_is_rejected() {
        let (db, tree, batch) = setup();
        let mut reference = RecomputeReference::new(db, tree, EngineConfig::default(), batch);
        let mut delta = TableDelta::new(RelationSchema::new("Nope", vec![AttrId(0)]));
        delta.insert(&[Value::Int(1)]).unwrap();
        assert!(reference.apply(&delta).is_err());
    }
}
