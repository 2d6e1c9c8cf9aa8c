//! # LMFAO — a layered aggregate engine for analytics workloads
//!
//! A Rust reproduction of *"A Layered Aggregate Engine for Analytics
//! Workloads"* (Schleich, Olteanu, Abo Khamis, Ngo, Nguyen — SIGMOD 2019).
//!
//! LMFAO evaluates **batches** of group-by aggregates over the natural join
//! of a database without materializing the join. A handful of analytics
//! applications are built on top of the batch engine: ridge linear regression
//! (via the covariance matrix), classification and regression trees, mutual
//! information / Chow–Liu structure learning, and data cubes.
//!
//! This crate is a façade re-exporting the workspace members:
//!
//! * [`data`] — storage substrate (values, schemas, sorted relations, tries),
//! * [`expr`] — the aggregate language (`Q(F; α) += R1, …, Rm`),
//! * [`jointree`] — join-tree construction and hypertree decompositions,
//! * [`engine`] — the layered engine (roots, pushdown, merging, grouping,
//!   multi-output plans, one executor whose factor code is specialized or
//!   generic per [`engine::EngineConfig::specialization`], parallelism),
//! * [`certify`] — the independent execution-certificate checker (shares no
//!   execution code with the engine),
//! * [`baseline`] — materialized-join baselines (the paper's competitors),
//! * [`datagen`] — synthetic Retailer / Favorita / Yelp / TPC-DS generators,
//! * [`ml`] — the analytics applications.
//!
//! ## Quickstart: plan once, execute many
//!
//! The engine's primary workflow is the prepared-batch flow:
//! [`engine::Engine::prepare`] runs every optimizer layer (roots → pushdown →
//! view merging → grouping → multi-output plans) exactly once, and the
//! resulting [`engine::PreparedBatch`] is executed any number of times —
//! with changing dynamic functions between executions, or over a row
//! selection of the database ([`engine::PreparedBatch::restrict`]), which is
//! how the decision-tree learner evaluates every node it executes from one
//! plan (the others it settles from their parent's statistics).
//! [`engine::Engine::execute`] remains as a one-shot `prepare + execute`
//! convenience.
//!
//! ```
//! use lmfao::prelude::*;
//!
//! // A tiny two-relation database: Sales(store, item, units) ⋈ Items(item, price).
//! let mut schema = DatabaseSchema::new();
//! schema.add_relation_with_attrs(
//!     "Sales",
//!     &[("store", AttrType::Int), ("item", AttrType::Int), ("units", AttrType::Double)],
//! );
//! schema.add_relation_with_attrs(
//!     "Items",
//!     &[("item", AttrType::Int), ("price", AttrType::Double)],
//! );
//! let store = schema.attr_id("store").unwrap();
//! let units = schema.attr_id("units").unwrap();
//! let price = schema.attr_id("price").unwrap();
//! let sales = Relation::from_rows(
//!     schema.relation("Sales").unwrap().clone(),
//!     vec![
//!         vec![Value::Int(1), Value::Int(1), Value::Double(3.0)],
//!         vec![Value::Int(2), Value::Int(1), Value::Double(5.0)],
//!     ],
//! )
//! .unwrap();
//! let items = Relation::from_rows(
//!     schema.relation("Items").unwrap().clone(),
//!     vec![vec![Value::Int(1), Value::Double(10.0)]],
//! )
//! .unwrap();
//! let db = Database::new(schema.clone(), vec![sales, items]).unwrap();
//! let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
//!
//! // One batch: COUNT(*), SUM(units·price), and SUM(units) per store.
//! let mut batch = QueryBatch::new();
//! batch.push("count", vec![], vec![Aggregate::count()]);
//! batch.push("revenue", vec![], vec![Aggregate::sum_product(units, price)]);
//! batch.push("per_store", vec![store], vec![Aggregate::sum(units)]);
//!
//! // Plan once. Statistics (views, groups, roots) are known before any scan.
//! let engine = Engine::new(db, tree, EngineConfig::default());
//! let prepared = engine.prepare(&batch).unwrap();
//! assert!(prepared.stats().num_views >= 3);
//!
//! // Execute (as often as needed) and look results up by query name.
//! let result = prepared.execute(&DynamicRegistry::new()).unwrap();
//! assert_eq!(result.query("count").scalar()[0], 2.0);
//! assert_eq!(result.query("revenue").scalar()[0], 80.0);
//! assert_eq!(result.query("per_store").get(&[Value::Int(1)]).unwrap()[0], 3.0);
//! assert_eq!(result.query("per_store").get(&[Value::Int(2)]).unwrap()[0], 5.0);
//! ```
//!
//! To share one prepared (sorted) database across several engines — e.g. the
//! ablation ladder of Figure 5 — prepare it once with
//! [`engine::SharedDatabase::prepare`] and build engines via
//! [`engine::Engine::with_shared`]; cloning the handle is a reference-count
//! bump, not a copy of the relations.
//!
//! ## Incremental maintenance: refresh instead of recompute
//!
//! When base relations receive updates, a prepared batch can be promoted to
//! *live materialized state* with
//! [`engine::PreparedBatch::into_serving`]: the [`engine::Maintainer`]
//! retains every computed view and absorbs signed [`data::TableDelta`]s
//! (inserts + deletes) with work proportional to the delta — only the groups
//! that (transitively) depend on the changed relation are touched, and they
//! re-scan the delta partition, not the data. Results are read through
//! [`engine::Maintainer::snapshot`], the latest published generation.
//!
//! ```
//! use lmfao::prelude::*;
//!
//! # let mut schema = DatabaseSchema::new();
//! # schema.add_relation_with_attrs(
//! #     "Sales",
//! #     &[("store", AttrType::Int), ("item", AttrType::Int), ("units", AttrType::Double)],
//! # );
//! # schema.add_relation_with_attrs(
//! #     "Items",
//! #     &[("item", AttrType::Int), ("price", AttrType::Double)],
//! # );
//! # let store = schema.attr_id("store").unwrap();
//! # let units = schema.attr_id("units").unwrap();
//! # let price = schema.attr_id("price").unwrap();
//! # let sales = Relation::from_rows(
//! #     schema.relation("Sales").unwrap().clone(),
//! #     vec![
//! #         vec![Value::Int(1), Value::Int(1), Value::Double(3.0)],
//! #         vec![Value::Int(2), Value::Int(1), Value::Double(5.0)],
//! #     ],
//! # )
//! # .unwrap();
//! # let items = Relation::from_rows(
//! #     schema.relation("Items").unwrap().clone(),
//! #     vec![vec![Value::Int(1), Value::Double(10.0)]],
//! # )
//! # .unwrap();
//! # let db = Database::new(schema.clone(), vec![sales, items]).unwrap();
//! # let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
//! # let mut batch = QueryBatch::new();
//! # batch.push("count", vec![], vec![Aggregate::count()]);
//! # batch.push("revenue", vec![], vec![Aggregate::sum_product(units, price)]);
//! // Same Sales ⋈ Items setup as above. Prepare once, go live:
//! let engine = Engine::new(db, tree, EngineConfig::default());
//! let dynamics = DynamicRegistry::new();
//! let mut live = engine.prepare(&batch).unwrap().into_serving(&dynamics).unwrap();
//! assert_eq!(live.snapshot().results().query("revenue").scalar()[0], 80.0);
//!
//! // A signed delta: one sale appended, one retracted.
//! let mut delta = TableDelta::for_relation(live.database().relation("Sales").unwrap());
//! delta.insert(&[Value::Int(1), Value::Int(1), Value::Double(4.0)]).unwrap();
//! delta.delete(&[Value::Int(2), Value::Int(1), Value::Double(5.0)]).unwrap();
//! let stats = live.commit(&delta, &dynamics).unwrap();
//! assert!(stats.views_changed > 0);
//!
//! // Results refreshed without re-scanning the base data.
//! assert_eq!(live.snapshot().results().query("count").scalar()[0], 2.0);
//! assert_eq!(live.snapshot().results().query("revenue").scalar()[0], 70.0);
//! ```
//!
//! `lmfao_ml::StreamingCovar` keeps a model's sufficient statistics
//! maintained the same way, `lmfao_baseline::RecomputeReference` is the
//! recompute-from-scratch referee used by the tests, and
//! `lmfao_datagen::update_stream` generates reproducible insert/delete mixes
//! for every paper dataset.
//!
//! ## Concurrent serving: writers never block readers
//!
//! A maintainer can serve concurrent readers while it refreshes. Every
//! refresh **publishes** an immutable [`engine::ViewSnapshot`] — generation
//! number, the database state, every computed view, the projected results —
//! and readers pin whatever generation they [`engine::SnapshotHandle::load`]:
//! the pin stays answerable, unchanged, for as long as the reader holds it,
//! no matter how many generations the writer publishes meanwhile. The read
//! path takes no `&mut` anywhere; the writer prepares the next generation on
//! private copy-on-write state (only the refresh frontier is cloned) and
//! publication is one atomic pointer swap.
//!
//! ```
//! use lmfao::prelude::*;
//!
//! # let mut schema = DatabaseSchema::new();
//! # schema.add_relation_with_attrs(
//! #     "Sales",
//! #     &[("store", AttrType::Int), ("item", AttrType::Int), ("units", AttrType::Double)],
//! # );
//! # schema.add_relation_with_attrs(
//! #     "Items",
//! #     &[("item", AttrType::Int), ("price", AttrType::Double)],
//! # );
//! # let units = schema.attr_id("units").unwrap();
//! # let price = schema.attr_id("price").unwrap();
//! # let sales = Relation::from_rows(
//! #     schema.relation("Sales").unwrap().clone(),
//! #     vec![
//! #         vec![Value::Int(1), Value::Int(1), Value::Double(3.0)],
//! #         vec![Value::Int(2), Value::Int(1), Value::Double(5.0)],
//! #     ],
//! # )
//! # .unwrap();
//! # let items = Relation::from_rows(
//! #     schema.relation("Items").unwrap().clone(),
//! #     vec![vec![Value::Int(1), Value::Double(10.0)]],
//! # )
//! # .unwrap();
//! # let db = Database::new(schema.clone(), vec![sales, items]).unwrap();
//! # let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
//! # let mut batch = QueryBatch::new();
//! # batch.push("revenue", vec![], vec![Aggregate::sum_product(units, price)]);
//! // Same Sales ⋈ Items setup as above.
//! let engine = Engine::new(db, tree, EngineConfig::default());
//! let dynamics = DynamicRegistry::new();
//! let mut live = engine.prepare(&batch).unwrap().into_serving(&dynamics).unwrap();
//!
//! // A reader pins generation 0. (Readers on other threads would clone
//! // `live.handle()` and `load()` their own pins — no lock is held while
//! // reading.)
//! let pinned = live.snapshot();
//! assert_eq!(pinned.generation(), 0);
//! assert_eq!(pinned.query("revenue").unwrap().scalar()[0], 80.0);
//!
//! // The writer publishes generation 1: one more sale.
//! let mut delta = TableDelta::for_relation(live.database().relation("Sales").unwrap());
//! delta.insert(&[Value::Int(1), Value::Int(1), Value::Double(4.0)]).unwrap();
//! live.commit(&delta, &dynamics).unwrap();
//!
//! // The old pin still answers exactly what it answered before…
//! assert_eq!(pinned.generation(), 0);
//! assert_eq!(pinned.query("revenue").unwrap().scalar()[0], 80.0);
//! // …while fresh loads see the new generation.
//! let fresh = live.snapshot();
//! assert_eq!(fresh.generation(), 1);
//! assert_eq!(fresh.query("revenue").unwrap().scalar()[0], 120.0);
//! ```
//!
//! For an always-on serving loop (reader threads + one paced writer +
//! latency quantiles + a recompute and certificate-chain audit of sampled
//! reads, which set the exit code), see the `serve` binary and `serve` module
//! of `lmfao-bench`.
//!
//! ## Transactions & isolation
//!
//! Updates that belong together commit together. A [`data::Transaction`] is
//! a set of [`data::TableDelta`]s over *multiple* relations, and
//! [`engine::Maintainer::commit`] applies the whole set in **one** DAG walk: the
//! refresh frontiers of every changed relation are unioned, each affected
//! group is scanned once with the changed slots masked, and exactly one
//! generation is published — readers never observe a state where one
//! relation's delta landed and another's has not. A bare `TableDelta` still
//! commits directly (it converts via `Into<Transaction>`). The
//! [`engine::DeltaBuffer`] in front coalesces cancelling insert/delete
//! pairs and flushes on size or latency thresholds — a fully-cancelling
//! stream publishes *zero* generations. And because isolation claims
//! deserve the same scepticism as query results (see the certificates
//! below), [`engine::check_history`] is a black-box checker: record what
//! the writer committed ([`engine::CommitEvent`]) and what each reader
//! actually saw ([`engine::ReadEvent`]), and it verifies the
//! snapshot-isolation axioms — no torn transactions, reads see a committed
//! prefix, generations never move backwards on one handle.
//!
//! ```
//! use lmfao::prelude::*;
//! use std::time::Duration;
//!
//! # let mut schema = DatabaseSchema::new();
//! # schema.add_relation_with_attrs(
//! #     "Sales",
//! #     &[("store", AttrType::Int), ("item", AttrType::Int), ("units", AttrType::Double)],
//! # );
//! # schema.add_relation_with_attrs(
//! #     "Items",
//! #     &[("item", AttrType::Int), ("price", AttrType::Double)],
//! # );
//! # let units = schema.attr_id("units").unwrap();
//! # let price = schema.attr_id("price").unwrap();
//! # let sales = Relation::from_rows(
//! #     schema.relation("Sales").unwrap().clone(),
//! #     vec![
//! #         vec![Value::Int(1), Value::Int(1), Value::Double(3.0)],
//! #         vec![Value::Int(2), Value::Int(1), Value::Double(5.0)],
//! #     ],
//! # )
//! # .unwrap();
//! # let items = Relation::from_rows(
//! #     schema.relation("Items").unwrap().clone(),
//! #     vec![vec![Value::Int(1), Value::Double(10.0)]],
//! # )
//! # .unwrap();
//! # let db = Database::new(schema.clone(), vec![sales, items]).unwrap();
//! # let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
//! # let mut batch = QueryBatch::new();
//! # batch.push("revenue", vec![], vec![Aggregate::sum_product(units, price)]);
//! // Same Sales ⋈ Items setup as above. Prepare once, go live:
//! let engine = Engine::new(db, tree, EngineConfig::default());
//! let dynamics = DynamicRegistry::new();
//! let mut live = engine.prepare(&batch).unwrap().into_serving(&dynamics).unwrap();
//! let pinned = live.snapshot();
//!
//! // Buffer one business event: a sale lands AND its item reprices.
//! let mut buffer = DeltaBuffer::new(3, Duration::from_millis(50));
//! let mut sale = TableDelta::for_relation(live.database().relation("Sales").unwrap());
//! sale.insert(&[Value::Int(1), Value::Int(1), Value::Double(4.0)]).unwrap();
//! buffer.push(sale);
//! let mut reprice = TableDelta::for_relation(live.database().relation("Items").unwrap());
//! reprice.delete(&[Value::Int(1), Value::Double(10.0)]).unwrap();
//! reprice.insert(&[Value::Int(1), Value::Double(20.0)]).unwrap();
//! buffer.push(reprice);
//! assert!(buffer.should_flush()); // size threshold reached
//!
//! // One transaction over two relations — one walk, one generation.
//! let txn = buffer.flush().unwrap();
//! assert_eq!(txn.num_relations(), 2);
//! let stats = live.commit(txn, &dynamics).unwrap();
//! assert_eq!(stats.relations_changed, 2);
//!
//! // The pinned generation-0 snapshot is unaffected…
//! assert_eq!(pinned.generation(), 0);
//! assert_eq!(pinned.query("revenue").unwrap().scalar()[0], 80.0);
//! // …and fresh loads see the *whole* transaction at once: (3+5+4) · 20.
//! let fresh = live.snapshot();
//! assert_eq!(fresh.generation(), 1);
//! assert_eq!(fresh.query("revenue").unwrap().scalar()[0], 240.0);
//!
//! // Record the history both sides experienced; the checker signs off.
//! let mut history = History::new();
//! for (seq, snap) in [&pinned, &fresh].into_iter().enumerate() {
//!     history.add_commit(CommitEvent::of(snap));
//!     history.add_read(ReadEvent::of(0, seq as u64, snap));
//! }
//! assert!(check_history(&history).is_empty());
//! ```
//!
//! The `iso` module of `lmfao-bench` stress-runs exactly this contract:
//! concurrent reader threads and one transactional writer record a history
//! while racing, and `tests/isolation.rs` fails on any violation.
//!
//! ## Execution certificates: untrusted engine, trusted checker
//!
//! The engine is a large, optimized codebase — treat its output as a *claim*,
//! not a fact. Every execution can emit a versioned
//! [`certify::Certificate`]: integer-only provenance and accounting (floats
//! enter as fixed-point encodings, so every identity is an exact integer
//! equation) that the small, independent [`certify`] crate re-checks without
//! sharing any execution code with the engine. Maintenance certificates are
//! chained — each names its parent generation and a fingerprint of the parent
//! certificate — so a whole update history can be audited with
//! [`certify::check_chain`].
//!
//! ```
//! use lmfao::prelude::*;
//!
//! # let mut schema = DatabaseSchema::new();
//! # schema.add_relation_with_attrs(
//! #     "Sales",
//! #     &[("store", AttrType::Int), ("item", AttrType::Int), ("units", AttrType::Double)],
//! # );
//! # schema.add_relation_with_attrs(
//! #     "Items",
//! #     &[("item", AttrType::Int), ("price", AttrType::Double)],
//! # );
//! # let units = schema.attr_id("units").unwrap();
//! # let price = schema.attr_id("price").unwrap();
//! # let sales = Relation::from_rows(
//! #     schema.relation("Sales").unwrap().clone(),
//! #     vec![
//! #         vec![Value::Int(1), Value::Int(1), Value::Double(3.0)],
//! #         vec![Value::Int(2), Value::Int(1), Value::Double(5.0)],
//! #     ],
//! # )
//! # .unwrap();
//! # let items = Relation::from_rows(
//! #     schema.relation("Items").unwrap().clone(),
//! #     vec![vec![Value::Int(1), Value::Double(10.0)]],
//! # )
//! # .unwrap();
//! # let db = Database::new(schema.clone(), vec![sales, items]).unwrap();
//! # let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
//! # let mut batch = QueryBatch::new();
//! # batch.push("count", vec![], vec![Aggregate::count()]);
//! # batch.push("revenue", vec![], vec![Aggregate::sum_product(units, price)]);
//! // Same Sales ⋈ Items setup as above. Execute with a certificate:
//! let engine = Engine::new(db, tree, EngineConfig::default());
//! let prepared = engine.prepare(&batch).unwrap();
//! let (result, certificate) = prepared.execute_certified(&DynamicRegistry::new()).unwrap();
//! assert_eq!(result.query("revenue").scalar()[0], 80.0);
//!
//! // Serialize to canonical JSON, hand it across the trust boundary,
//! // re-parse and re-check with the independent checker.
//! let json = lmfao::certify::to_json(&certificate);
//! let parsed = lmfao::certify::parse_certificate(&json).unwrap();
//! assert_eq!(parsed, certificate);
//! check_certificate(&parsed).unwrap();
//!
//! // Tampering with a published query total is caught: the revenue 80.0
//! // lives in the certificate as the exact integer 80 · 2³², and the
//! // checker re-derives it from the view provenance.
//! let mut forged = parsed.clone();
//! if let Certificate::Execute(c) = &mut forged {
//!     c.queries[1].totals[0] += 1;
//! }
//! assert!(matches!(
//!     check_certificate(&forged),
//!     Err(CertError::QueryTotalMismatch { .. })
//! ));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use lmfao_baseline as baseline;
pub use lmfao_certify as certify;
pub use lmfao_core as engine;
pub use lmfao_data as data;
pub use lmfao_datagen as datagen;
pub use lmfao_expr as expr;
pub use lmfao_jointree as jointree;
pub use lmfao_ml as ml;

/// Convenient re-exports of the most common types.
pub mod prelude {
    pub use lmfao_baseline::{MaterializedEngine, RecomputeReference};
    pub use lmfao_certify::{check_certificate, check_chain, CertError, Certificate, ChainSummary};
    pub use lmfao_core::{
        check_history, snapshot_digest, BatchResult, CommitEvent, DeltaBuffer, Engine,
        EngineConfig, EngineError, EngineStats, History, IsoViolation, Maintainer, PreparedBatch,
        QueryResult, ReadEvent, RefreshStats, SharedDatabase, SnapshotHandle, ViewSnapshot,
    };
    pub use lmfao_data::{
        AttrId, AttrType, Database, DatabaseSchema, Relation, RelationSchema, TableDelta,
        Transaction, Value,
    };
    pub use lmfao_datagen::{Dataset, Scale};
    pub use lmfao_expr::{
        Aggregate, CmpOp, DynamicRegistry, ProductTerm, Query, QueryBatch, ScalarFunction,
    };
    pub use lmfao_jointree::{build_join_tree, Hypergraph, JoinTree};
    pub use lmfao_ml::{
        assemble_covar_matrix, chow_liu_tree, compute_mutual_info, covar_batch, covar_matrix,
        datacube_batch, learn_chow_liu, mutual_info_batch, mutual_info_matrix, train_decision_tree,
        train_decision_tree_replanned, train_linear_regression, train_linear_regression_over,
        CovarSpec, LinRegConfig, StreamingCovar, TreeConfig, TreeTask,
    };
}
