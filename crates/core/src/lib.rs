//! # lmfao-core
//!
//! The LMFAO engine: layered optimization and execution of large batches of
//! group-by aggregates over the natural join of a database, following
//! "A Layered Aggregate Engine for Analytics Workloads" (SIGMOD 2019).
//!
//! The layers, in order:
//! 1. join tree (from `lmfao-jointree`),
//! 2. [`roots`] — a root per query,
//! 3. [`pushdown`] — decomposition into directional views + view merging,
//! 4. [`group`] — view groups and their dependency graph,
//! 5. [`plan`] — multi-output physical plans (attribute orders, registers),
//! 6. [`exec`] — the one executor: a multi-way-join loop nest per view
//!    group, its local factors lowered to typed column code or left generic
//!    ([`EngineConfig::specialization`]),
//! 7. [`parallel`] — task and domain parallelism of fresh execution (one DAG
//!    scheduler; commits refresh on the writer's thread),
//! 8. [`engine`] — the façade tying everything together.
//!
//! The public workflow is *prepare once, execute many*: [`Engine::prepare`]
//! runs layers 2–5 once and caches the result as a [`PreparedBatch`] over a
//! [`SharedDatabase`] (the database sorted for the trie scans, its relations
//! shared, not copied); [`PreparedBatch::execute`] runs only the scans,
//! so batches with changing dynamic functions (iteration weights) never pay
//! for planning twice, and [`PreparedBatch::restrict`] re-targets the same
//! plans at a semi-join-reduced row selection of the database (a
//! decision-tree node's rows). When base relations
//! receive updates, [`PreparedBatch::into_serving`] promotes the batch to
//! live materialized state: a [`Maintainer`] retains every computed view and
//! commits [`lmfao_data::Transaction`]s — atomic sets of signed
//! [`lmfao_data::TableDelta`]s over one or more relations — in a single DAG
//! walk each ([`maintain`]), with work proportional to the deltas instead of
//! recomputing. Both row selections, `restrict`'s reduction and the rows a
//! commit's propagation scan reads, are one primitive:
//! [`lmfao_data::Relation::semi_join`]. A [`DeltaBuffer`] ([`buffer`])
//! coalesces churny update streams into such transactions. Every commit publishes one immutable,
//! epoch-published [`ViewSnapshot`] ([`snapshot`]), which becomes the
//! maintainer's state: the writer reads it through [`Maintainer::snapshot`],
//! and concurrent readers pin whatever generation they load through a
//! [`SnapshotHandle`] and never block on a refresh — a contract the
//! black-box snapshot-isolation checker ([`isocheck`]) validates from
//! recorded read/commit histories. A superseded generation lives only while
//! a reader pins it. Planning and execution failures surface as typed
//! [`EngineError`]s.
//!
//! Trust: [`PreparedBatch::execute_certified`] and every published
//! [`ViewSnapshot`] emit versioned, integer/fixed-point *execution
//! certificates* ([`lmfao_certify::Certificate`]) — provenance and signed
//! delta accounting that the independent `lmfao-certify` crate re-checks
//! without sharing any execution code with this one.

#![warn(missing_docs)]
// The library code's one `unsafe` block is in `SnapshotHandle::load`, which
// opts in with `#[allow(unsafe_code)]`; every other library crate forbids it.
#![deny(unsafe_code)]

mod certificate;
mod overlay;
mod sched;

pub mod buffer;
pub mod config;
pub mod engine;
pub mod error;
pub mod exec;
pub mod group;
pub mod isocheck;
pub mod maintain;
pub mod parallel;
pub mod plan;
pub mod prepared;
pub mod pushdown;
pub mod roots;
pub mod shared;
pub mod snapshot;
pub mod view;

pub use buffer::DeltaBuffer;
pub use config::EngineConfig;
pub use engine::{BatchResult, Engine, EngineStats, QueryResult};
pub use error::EngineError;
pub use isocheck::{check_history, snapshot_digest, CommitEvent, History, IsoViolation, ReadEvent};
pub use maintain::RefreshStats;
pub use prepared::PreparedBatch;
pub use shared::SharedDatabase;
pub use snapshot::{Maintainer, SnapshotHandle, ViewSnapshot, CANCELLATION_REL_EPS};
pub use view::{ComputedView, ViewCatalog, ViewDef, ViewId, ViewSource};

#[cfg(test)]
mod smoke {
    use super::*;
    use lmfao_data::{AttrType, Database, DatabaseSchema, Relation, Value};
    use lmfao_expr::{Aggregate, QueryBatch};
    use lmfao_jointree::{build_join_tree, Hypergraph};

    /// Exercises the crate-level surface end to end: the engine computes a
    /// scalar and a group-by aggregate over a two-relation join.
    #[test]
    fn engine_runs_a_tiny_batch() {
        let mut schema = DatabaseSchema::new();
        schema.add_relation_with_attrs(
            "Sales",
            &[
                ("store", AttrType::Int),
                ("item", AttrType::Int),
                ("units", AttrType::Double),
            ],
        );
        schema.add_relation_with_attrs(
            "Items",
            &[("item", AttrType::Int), ("price", AttrType::Double)],
        );
        let store = schema.attr_id("store").unwrap();
        let units = schema.attr_id("units").unwrap();
        let price = schema.attr_id("price").unwrap();
        let sales = Relation::from_rows(
            schema.relation("Sales").unwrap().clone(),
            vec![
                vec![Value::Int(1), Value::Int(1), Value::Double(3.0)],
                vec![Value::Int(2), Value::Int(1), Value::Double(5.0)],
            ],
        )
        .unwrap();
        let items = Relation::from_rows(
            schema.relation("Items").unwrap().clone(),
            vec![vec![Value::Int(1), Value::Double(10.0)]],
        )
        .unwrap();
        let db = Database::new(schema.clone(), vec![sales, items]).unwrap();
        let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();

        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push(
            "revenue",
            vec![],
            vec![Aggregate::sum_product(units, price)],
        );
        batch.push("per_store", vec![store], vec![Aggregate::sum(units)]);

        let engine = Engine::new(db, tree, EngineConfig::default());
        let result = engine.execute(&batch).unwrap();
        assert_eq!(result.queries[0].scalar()[0], 2.0);
        assert_eq!(result.queries[1].scalar()[0], 80.0);
        assert_eq!(result.queries[2].get(&[Value::Int(1)]).unwrap()[0], 3.0);
        assert_eq!(result.queries[2].get(&[Value::Int(2)]).unwrap()[0], 5.0);
    }
}
