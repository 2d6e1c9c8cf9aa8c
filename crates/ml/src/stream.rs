//! Streaming model refresh over maintained aggregate batches.
//!
//! The covar-matrix workload is the flagship consumer of incremental
//! maintenance: the sufficient statistics of ridge linear regression are one
//! aggregate batch, so keeping that batch maintained keeps the *model*
//! trainable at any moment without touching the data again. A
//! [`StreamingCovar`] owns a [`Maintainer`] over the covar batch:
//! [`StreamingCovar::apply`] absorbs a [`TableDelta`] with delta-sized work,
//! [`StreamingCovar::matrix`] projects the current sufficient statistics,
//! and [`StreamingCovar::train`] runs BGD over them (seconds of arithmetic
//! on a tiny matrix — the dataset is never rescanned).

use crate::covar::{assemble_covar_matrix, covar_batch, CovarBatch, CovarMatrix, CovarSpec};
use crate::linreg::{train_linear_regression, LinRegConfig, LinearRegressionModel};
use lmfao_core::{Engine, EngineError, Maintainer, RefreshStats};
use lmfao_data::TableDelta;
use lmfao_expr::DynamicRegistry;

/// A covariance matrix kept fresh under base-relation updates.
#[derive(Debug)]
pub struct StreamingCovar {
    maintained: Maintainer,
    cb: CovarBatch,
}

impl StreamingCovar {
    /// Prepares the covar batch for `spec`, computes it once, and retains it
    /// as maintained state.
    pub fn new(engine: &Engine, spec: &CovarSpec) -> Result<Self, EngineError> {
        let cb = covar_batch(spec);
        let maintained = engine
            .prepare(&cb.batch)?
            .into_serving(&DynamicRegistry::new())?;
        Ok(StreamingCovar { maintained, cb })
    }

    /// Absorbs a delta against one base relation, refreshing only the
    /// affected views.
    pub fn apply(&mut self, delta: &TableDelta) -> Result<RefreshStats, EngineError> {
        self.maintained.commit(delta, &DynamicRegistry::new())
    }

    /// The current covariance matrix (continuous features + intercept),
    /// projected from the maintained views — no scan runs.
    pub fn matrix(&self) -> Result<CovarMatrix, EngineError> {
        Ok(assemble_covar_matrix(
            &self.cb,
            self.maintained.snapshot().results(),
        ))
    }

    /// Trains ridge linear regression over the current sufficient statistics.
    pub fn train(&self, config: &LinRegConfig) -> Result<LinearRegressionModel, EngineError> {
        Ok(train_linear_regression(&self.matrix()?, config))
    }

    /// The underlying maintainer (database access, published snapshots…).
    pub fn maintained(&self) -> &Maintainer {
        &self.maintained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmfao_core::EngineConfig;
    use lmfao_data::{AttrId, AttrType, Database, DatabaseSchema, Relation, RelationSchema, Value};
    use lmfao_jointree::{build_join_tree, Hypergraph, JoinTree};

    fn setup() -> (Database, JoinTree, Vec<AttrId>) {
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs(
            "R",
            &[
                ("k", AttrType::Int),
                ("x", AttrType::Double),
                ("y", AttrType::Double),
            ],
        );
        schema.add_relation_with_attrs("S", &[("k", AttrType::Int), ("w", AttrType::Double)]);
        let ids: Vec<AttrId> = ["k", "x", "y", "w"]
            .iter()
            .map(|n| schema.attr_id(n).unwrap())
            .collect();
        let r = Relation::from_rows(
            RelationSchema::new("R", vec![ids[0], ids[1], ids[2]]),
            (0..60)
                .map(|i| {
                    let x = (i % 13) as f64;
                    // y = 3x + 2 + deterministic integer noise.
                    vec![
                        Value::Int(i % 4),
                        Value::Double(x),
                        Value::Double(3.0 * x + 2.0 + (i % 3) as f64),
                    ]
                })
                .collect(),
        )
        .unwrap();
        let s = Relation::from_rows(
            RelationSchema::new("S", vec![ids[0], ids[3]]),
            (0..4)
                .map(|i| vec![Value::Int(i), Value::Double((i + 1) as f64)])
                .collect(),
        )
        .unwrap();
        let db = Database::new(schema.clone(), vec![r, s]).unwrap();
        let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
        (db, tree, ids)
    }

    #[test]
    fn streaming_matrix_matches_one_shot_recompute_under_updates() {
        let (db, tree, ids) = setup();
        let spec = CovarSpec::continuous_only(vec![ids[1], ids[2]]);
        let engine = Engine::new(db.clone(), tree.clone(), EngineConfig::default());
        let mut stream = StreamingCovar::new(&engine, &spec).unwrap();

        // Mutate: append rows, retract one.
        let mut delta = TableDelta::for_relation(db.relation("R").unwrap());
        delta
            .insert(&[Value::Int(1), Value::Double(20.0), Value::Double(62.0)])
            .unwrap();
        delta
            .delete(&[Value::Int(0), Value::Double(0.0), Value::Double(2.0)])
            .unwrap();
        let stats = stream.apply(&delta).unwrap();
        assert!(stats.views_changed > 0);

        // One-shot recompute over the updated database.
        let fresh = Engine::new(
            stream.maintained().database().clone(),
            tree,
            EngineConfig::default(),
        );
        let expected = crate::covar::covar_matrix(&fresh, &spec).unwrap();
        let got = stream.matrix().unwrap();
        assert_eq!(got.count, expected.count);
        for (gr, er) in got.matrix.iter().zip(&expected.matrix) {
            for (g, e) in gr.iter().zip(er) {
                assert!(
                    (g - e).abs() <= 1e-9 * e.abs().max(1.0),
                    "streamed {g} vs recomputed {e}"
                );
            }
        }
    }

    #[test]
    fn models_refresh_without_rescanning() {
        let (db, tree, ids) = setup();
        let spec = CovarSpec::continuous_only(vec![ids[1], ids[2]]);
        let engine = Engine::new(db.clone(), tree, EngineConfig::default());
        let mut stream = StreamingCovar::new(&engine, &spec).unwrap();
        let before = stream.train(&LinRegConfig::default()).unwrap();
        // The fit tracks y ≈ 3x + c already.
        assert!((before.theta[1] - 3.0).abs() < 0.2, "{:?}", before.theta);

        // Shift the relationship with heavy new points on a steeper line.
        let mut delta = TableDelta::for_relation(db.relation("R").unwrap());
        for i in 0..30i64 {
            let x = 20.0 + i as f64;
            delta
                .insert(&[Value::Int(i % 4), Value::Double(x), Value::Double(10.0 * x)])
                .unwrap();
        }
        stream.apply(&delta).unwrap();
        let after = stream.train(&LinRegConfig::default()).unwrap();
        assert!(
            after.theta[1] > before.theta[1] + 1.0,
            "slope must chase the new data: {} -> {}",
            before.theta[1],
            after.theta[1]
        );
    }
}
