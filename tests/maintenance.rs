//! Incremental maintenance versus recompute-from-scratch.
//!
//! The referee is `lmfao_baseline::RecomputeReference`: both sides consume
//! the same reproducible update streams (`lmfao_datagen::update_stream`) on
//! all four paper datasets, the maintained side refreshing its retained
//! views, the reference re-planning and re-scanning everything. Results must
//! agree across the whole ablation ladder:
//!
//! * **bit-identically** for counts and for databases whose measures are
//!   integer-valued (float addition over integers within 2⁵³ is exact, so
//!   refresh and recompute produce the same bits);
//! * within a tight relative tolerance for arbitrary doubles (float addition
//!   is not associative, so `(Σ + x) − x` may differ from `Σ` in the last
//!   ulp — the documented caveat of `lmfao_core::maintain`).
//!
//! Ladder thread counts resolve through `EngineConfig::env_threads`, so CI's
//! thread-matrix job (`LMFAO_THREADS={1,4}`) runs these properties against
//! the one-worker (inline) and the multi-worker run of the one scheduler,
//! which builds generation 0; commits run on the writer's thread either way.

use lmfao::baseline::RecomputeReference;
use lmfao::datagen::{self, fact_relation, update_stream, Scale, UpdateMix};
use lmfao::engine::{BatchResult, EngineConfig};
use lmfao::prelude::*;

/// Builds a small but representative batch for a dataset: COUNT, a sum, a
/// sum of squares, an indicator-guarded sum (the RT shape) and a group-by.
fn workload(ds: &Dataset) -> QueryBatch {
    let spec = lmfao_bench_spec(ds);
    let mut batch = QueryBatch::new();
    batch.push("count", vec![], vec![Aggregate::count()]);
    batch.push("sum", vec![], vec![Aggregate::sum(spec.0)]);
    batch.push("sum_sq", vec![], vec![Aggregate::sum_square(spec.0)]);
    let cond = ScalarFunction::Indicator {
        attr: spec.0,
        op: CmpOp::Ge,
        threshold: lmfao::data::Value::Double(1.0),
    };
    batch.push(
        "rt_like",
        vec![],
        vec![Aggregate::product(
            ProductTerm::single(cond).times(ScalarFunction::Identity(spec.0)),
        )],
    );
    batch.push("per_cat", vec![spec.1], vec![Aggregate::sum(spec.0)]);
    batch
}

/// (continuous measure, group-by attribute) per dataset.
fn lmfao_bench_spec(ds: &Dataset) -> (AttrId, AttrId) {
    match ds.name.as_str() {
        "Retailer" => (ds.attr("inventoryunits"), ds.attr("category")),
        "Favorita" => (ds.attr("units"), ds.attr("family")),
        "Yelp" => (ds.attr("stars"), ds.attr("bcity")),
        "TPC-DS" => (ds.attr("quantity"), ds.attr("icategory")),
        other => panic!("unknown dataset {other}"),
    }
}

/// Compares two batch results value-wise (absent keys = all-zero aggregates).
/// `exact` demands bit equality; otherwise a 1e-9 relative tolerance.
/// Count queries are always compared exactly.
fn assert_agree(got: &BatchResult, want: &BatchResult, exact: bool, context: &str) {
    for (g, w) in got.queries.iter().zip(&want.queries) {
        assert_eq!(g.name, w.name, "{context}");
        let keys: std::collections::BTreeSet<_> = g.data.keys().chain(w.data.keys()).collect();
        let zeros = vec![0.0; g.num_aggregates];
        let force_exact = exact || g.name == "count";
        for key in keys {
            let gv = g.get(key).unwrap_or(&zeros);
            let wv = w.get(key).unwrap_or(&zeros);
            for (a, b) in gv.iter().zip(wv) {
                if force_exact {
                    assert_eq!(a, b, "{context}: query {} key {key:?}", g.name);
                } else {
                    assert!(
                        (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                        "{context}: query {} key {key:?}: {a} vs {b}",
                        g.name
                    );
                }
            }
        }
    }
}

/// The acceptance property: for random insert/delete streams on all four
/// datasets, maintained results equal full recompute across the ablation
/// ladder, at every step of the stream.
#[test]
fn maintained_batches_match_recompute_on_all_datasets_across_the_ladder() {
    let dynamics = DynamicRegistry::new();
    for ds in datagen::all_datasets(Scale::small()) {
        let batch = workload(&ds);
        let fact = fact_relation(&ds.name);
        // The generators round every continuous measure, so fact-table sums
        // are integer-valued and the comparison can be bit-strict.
        let stream = update_stream(&ds, fact, &UpdateMix::balanced(8).seed(11));
        for (name, cfg) in EngineConfig::ablation_ladder(EngineConfig::env_threads(2)) {
            let engine = Engine::new(ds.db.clone(), ds.tree.clone(), cfg);
            let mut maintained = engine
                .prepare(&batch)
                .unwrap()
                .into_serving(&dynamics)
                .unwrap();
            let mut reference =
                RecomputeReference::new(ds.db.clone(), ds.tree.clone(), cfg, batch.clone());
            for (step, delta) in stream.iter().enumerate() {
                maintained.commit(delta, &dynamics).unwrap();
                reference.apply(delta).unwrap();
                let got = maintained.snapshot();
                let want = reference.recompute().unwrap();
                assert_agree(
                    got.results(),
                    &want,
                    false,
                    &format!("{}/{name} step {step}", ds.name),
                );
            }
            // Stream totals must also be reflected in the relation itself.
            assert_eq!(
                maintained.database().relation(fact).unwrap().len(),
                reference.database().relation(fact).unwrap().len(),
                "{}/{name}",
                ds.name
            );
        }
    }
}

/// Dimension-table streams exercise the propagation path (the changed
/// relation is *not* the one most groups scan).
#[test]
fn dimension_streams_propagate_correctly() {
    let dynamics = DynamicRegistry::new();
    let ds = datagen::retailer::generate(Scale::small());
    let batch = workload(&ds);
    let stream = update_stream(&ds, "Item", &UpdateMix::corrections(6).seed(5));
    let cfg = EngineConfig::default();
    let engine = Engine::new(ds.db.clone(), ds.tree.clone(), cfg);
    let mut maintained = engine
        .prepare(&batch)
        .unwrap()
        .into_serving(&dynamics)
        .unwrap();
    let mut reference = RecomputeReference::new(ds.db.clone(), ds.tree.clone(), cfg, batch);
    for (step, delta) in stream.iter().enumerate() {
        maintained.commit(delta, &dynamics).unwrap();
        reference.apply(delta).unwrap();
        assert_agree(
            maintained.snapshot().results(),
            &reference.recompute().unwrap(),
            false,
            &format!("Item step {step}"),
        );
    }
}

/// On an integer-valued database, maintained state is bit-identical to
/// recompute: integer sums within 2⁵³ are exact under float addition, so no
/// reassociation slack is needed.
#[test]
fn integer_valued_streams_are_bit_identical_to_recompute() {
    use lmfao::data::{AttrType, DatabaseSchema, RelationSchema, TableDelta, Value};
    use lmfao::jointree::{build_join_tree, Hypergraph};

    let mut schema = DatabaseSchema::new();
    schema.add_relation_with_attrs(
        "F",
        &[
            ("k", AttrType::Int),
            ("m", AttrType::Double),
            ("c", AttrType::Int),
        ],
    );
    schema.add_relation_with_attrs("D", &[("k", AttrType::Int), ("w", AttrType::Double)]);
    let ids: Vec<AttrId> = ["k", "m", "c", "w"]
        .iter()
        .map(|n| schema.attr_id(n).unwrap())
        .collect();
    let f = Relation::from_rows(
        RelationSchema::new("F", vec![ids[0], ids[1], ids[2]]),
        (0..200)
            .map(|i| {
                vec![
                    Value::Int(i % 8),
                    Value::Double((i % 23) as f64),
                    Value::Int(i % 3),
                ]
            })
            .collect(),
    )
    .unwrap();
    let d = Relation::from_rows(
        RelationSchema::new("D", vec![ids[0], ids[3]]),
        (0..8)
            .map(|i| vec![Value::Int(i), Value::Double((7 * (i + 1)) as f64)])
            .collect(),
    )
    .unwrap();
    let db = Database::new(schema.clone(), vec![f, d]).unwrap();
    let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();

    let mut batch = QueryBatch::new();
    batch.push("count", vec![], vec![Aggregate::count()]);
    batch.push("mw", vec![], vec![Aggregate::sum_product(ids[1], ids[3])]);
    batch.push("per_c", vec![ids[2]], vec![Aggregate::sum(ids[1])]);

    let dynamics = DynamicRegistry::new();
    for (name, cfg) in EngineConfig::ablation_ladder(EngineConfig::env_threads(2)) {
        let engine = Engine::new(db.clone(), tree.clone(), cfg);
        let mut maintained = engine
            .prepare(&batch)
            .unwrap()
            .into_serving(&dynamics)
            .unwrap();
        let mut reference = RecomputeReference::new(db.clone(), tree.clone(), cfg, batch.clone());
        // A deterministic mixed stream, deletes always hitting live rows.
        for step in 0..10i64 {
            let mut delta = TableDelta::for_relation(db.relation("F").unwrap());
            if step % 3 == 2 {
                delta
                    .delete(&[
                        Value::Int(step % 8),
                        Value::Double((step % 23) as f64),
                        Value::Int(step % 3),
                    ])
                    .unwrap();
            } else {
                delta
                    .insert(&[
                        Value::Int(step % 8),
                        Value::Double((100 + step) as f64),
                        Value::Int(step % 3),
                    ])
                    .unwrap();
            }
            maintained.commit(&delta, &dynamics).unwrap();
            reference.apply(&delta).unwrap();
            assert_agree(
                maintained.snapshot().results(),
                &reference.recompute().unwrap(),
                true,
                &format!("{name} step {step}"),
            );
        }
    }
}

/// The transactional acceptance property: a multi-relation transaction
/// committed in one DAG walk produces **bit-identical** results to the same
/// deltas committed one relation at a time, and both agree with a full
/// recompute — on all four datasets, across the ablation ladder. The
/// one-walk side publishes exactly one generation per transaction; the
/// sequential side publishes one per delta. And the write path is one code
/// path: thread counts 1, 2 and 4 produce equal stats, results and
/// certificate fingerprints for the same stream.
#[test]
fn multi_relation_transactions_match_sequential_and_recompute() {
    use lmfao::datagen::{transaction_stream, txn_relations};

    let dynamics = DynamicRegistry::new();
    for ds in datagen::all_datasets(Scale::small()) {
        let batch = workload(&ds);
        let relations = txn_relations(&ds.name);
        let txns = transaction_stream(&ds, &relations, &UpdateMix::balanced(6).seed(3));
        assert!(
            txns.iter().any(|t| t.num_relations() >= 2),
            "{}: the stream must produce multi-relation transactions",
            ds.name
        );
        for (name, cfg) in EngineConfig::ablation_ladder(EngineConfig::env_threads(2)) {
            let engine = Engine::new(ds.db.clone(), ds.tree.clone(), cfg);
            let mut txn_side = engine
                .prepare(&batch)
                .unwrap()
                .into_serving(&dynamics)
                .unwrap();
            let mut seq_side = engine
                .prepare(&batch)
                .unwrap()
                .into_serving(&dynamics)
                .unwrap();
            let mut reference =
                RecomputeReference::new(ds.db.clone(), ds.tree.clone(), cfg, batch.clone());
            let mut committed = 0u64;
            let mut deltas_applied = 0u64;
            for (step, txn) in txns.iter().enumerate() {
                txn_side.commit(txn.clone(), &dynamics).unwrap();
                committed += 1;
                for delta in txn.deltas() {
                    seq_side.commit(delta, &dynamics).unwrap();
                    reference.apply(delta).unwrap();
                    deltas_applied += 1;
                }
                let context = format!("{}/{name} txn {step}", ds.name);
                // One walk vs several: counts agree to the bit, continuous
                // sums within the documented reassociation slack (the
                // bit-strict variant lives in `lmfao_core::maintain`'s unit
                // tests over integer-valued data).
                let published = txn_side.snapshot();
                assert_agree(
                    published.results(),
                    seq_side.snapshot().results(),
                    false,
                    &context,
                );
                assert_agree(
                    published.results(),
                    &reference.recompute().unwrap(),
                    false,
                    &context,
                );
            }
            // One generation per transaction vs one per delta.
            assert_eq!(
                txn_side.snapshot().generation(),
                committed,
                "{}/{name}",
                ds.name
            );
            assert_eq!(
                seq_side.snapshot().generation(),
                deltas_applied,
                "{}/{name}",
                ds.name
            );
            assert!(deltas_applied > committed, "{}/{name}", ds.name);
        }

        // One write path at every thread count: the same transaction stream
        // yields the same `RefreshStats` (all eight counters), bit-identical
        // published results and the same certificate fingerprint, generation
        // by generation, at 1, 2 and 4 threads. The thread count only picks
        // how generation 0 is executed; every commit refreshes on the
        // writer's thread.
        let run = |threads: usize| {
            let mut side = Engine::new(ds.db.clone(), ds.tree.clone(), EngineConfig::full(threads))
                .prepare(&batch)
                .unwrap()
                .into_serving(&dynamics)
                .unwrap();
            txns.iter()
                .map(|txn| {
                    let stats = side.commit(txn.clone(), &dynamics).unwrap();
                    let snap = side.snapshot();
                    let print = lmfao::certify::fingerprint(snap.certificate());
                    (stats, snap, print)
                })
                .collect::<Vec<_>>()
        };
        let inline = run(1);
        assert!(
            inline
                .iter()
                .any(|(stats, ..)| stats.seed_groups + stats.propagated_groups > 1),
            "{}: the stream must produce multi-group frontiers",
            ds.name
        );
        for threads in [2, 4] {
            for (step, (pooled, inline)) in run(threads).iter().zip(&inline).enumerate() {
                let context = format!("{} threads {threads} txn {step}", ds.name);
                assert_eq!(pooled.0, inline.0, "{context}: RefreshStats");
                assert_agree(pooled.1.results(), inline.1.results(), true, &context);
                assert_eq!(pooled.2, inline.2, "{context}: certificate fingerprint");
            }
        }
    }
}

/// The morsel-scheduler determinism property: across all four datasets and
/// the whole ablation ladder, executing with 2, 4 or 8 worker threads is
/// **bit-identical** to executing with one. The scheduler merges per-morsel
/// partials in morsel-index order and each small-scale scan fits one morsel,
/// so no thread count may perturb a single bit — group-completion order is
/// the only thing that varies.
#[test]
fn morsel_parallel_execution_is_bit_identical_to_sequential() {
    for ds in datagen::all_datasets(Scale::small()) {
        let batch = workload(&ds);
        for (name, cfg) in EngineConfig::ablation_ladder(1) {
            let sequential = Engine::new(ds.db.clone(), ds.tree.clone(), cfg.threads(1))
                .execute(&batch)
                .unwrap();
            for threads in [2, 4, 8] {
                let parallel = Engine::new(ds.db.clone(), ds.tree.clone(), cfg.threads(threads))
                    .execute(&batch)
                    .unwrap();
                assert_agree(
                    &parallel,
                    &sequential,
                    true,
                    &format!("{}/{name} threads {threads}", ds.name),
                );
            }
        }
    }
}

/// The same property where scans genuinely split: a fact table larger than
/// one morsel (65,536 rows) forces the scheduler to claim several morsels
/// per scan and fold their partials in index order. Measures are
/// integer-valued, so every sum is exact and parallel results must equal
/// `threads = 1` bitwise — for fresh execution, and after a dimension-side
/// commit whose propagation rescans the big relation in one scan on the
/// writer's thread, starting from a generation 0 built on split scans.
#[test]
fn multi_morsel_scans_are_bit_identical_including_under_commit() {
    use lmfao::data::{AttrType, DatabaseSchema, RelationSchema, TableDelta, Value};
    use lmfao::jointree::{build_join_tree, Hypergraph};

    const ROWS: i64 = 150_000; // ≈ 2.3 morsels per scan of F

    let mut schema = DatabaseSchema::new();
    schema.add_relation_with_attrs(
        "F",
        &[
            ("k", AttrType::Int),
            ("m", AttrType::Double),
            ("c", AttrType::Int),
        ],
    );
    schema.add_relation_with_attrs("D", &[("k", AttrType::Int), ("w", AttrType::Double)]);
    let ids: Vec<AttrId> = ["k", "m", "c", "w"]
        .iter()
        .map(|n| schema.attr_id(n).unwrap())
        .collect();
    let f = Relation::from_rows(
        RelationSchema::new("F", vec![ids[0], ids[1], ids[2]]),
        (0..ROWS)
            .map(|i| {
                vec![
                    Value::Int(i % 8),
                    Value::Double((i % 23) as f64),
                    Value::Int(i % 3),
                ]
            })
            .collect(),
    )
    .unwrap();
    let d = Relation::from_rows(
        RelationSchema::new("D", vec![ids[0], ids[3]]),
        (0..8)
            .map(|i| vec![Value::Int(i), Value::Double((7 * (i + 1)) as f64)])
            .collect(),
    )
    .unwrap();
    let db = Database::new(schema.clone(), vec![f, d]).unwrap();
    let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();

    let mut batch = QueryBatch::new();
    batch.push("count", vec![], vec![Aggregate::count()]);
    batch.push("mw", vec![], vec![Aggregate::sum_product(ids[1], ids[3])]);
    batch.push("per_c", vec![ids[2]], vec![Aggregate::sum(ids[1])]);

    // A dimension correction: its propagation rescans all of F (with the
    // delta overlay and slot masks) in one unsplit scan.
    let mut delta = TableDelta::for_relation(db.relation("D").unwrap());
    delta.delete(&[Value::Int(3), Value::Double(28.0)]).unwrap();
    delta.insert(&[Value::Int(3), Value::Double(35.0)]).unwrap();

    let dynamics = DynamicRegistry::new();
    let run = |threads: usize| {
        let engine = Engine::new(db.clone(), tree.clone(), EngineConfig::full(threads));
        let fresh = engine.execute(&batch).unwrap();
        let mut maintained = engine
            .prepare(&batch)
            .unwrap()
            .into_serving(&dynamics)
            .unwrap();
        maintained.commit(&delta, &dynamics).unwrap();
        (fresh, maintained.snapshot().results().clone())
    };

    let (fresh_1, after_1) = run(1);
    for threads in [2, 4, 8] {
        let (fresh, after) = run(threads);
        assert_agree(&fresh, &fresh_1, true, &format!("fresh, threads {threads}"));
        assert_agree(
            &after,
            &after_1,
            true,
            &format!("after commit, threads {threads}"),
        );
    }
}

/// A fully-cancelling buffered stream flushes to nothing: no transaction is
/// produced, no commit happens, and no generation is ever published.
#[test]
fn fully_cancelling_buffer_publishes_zero_generations() {
    use std::time::Duration;

    let dynamics = DynamicRegistry::new();
    let ds = datagen::favorita::generate(Scale::small());
    let batch = workload(&ds);
    let engine = Engine::new(ds.db.clone(), ds.tree.clone(), EngineConfig::default());
    let mut live = engine
        .prepare(&batch)
        .unwrap()
        .into_serving(&dynamics)
        .unwrap();
    let before = live.snapshot();

    // Every insert is followed by a delete of the same row, across two
    // relations; coalescing cancels the whole changeset.
    let mut buffer = DeltaBuffer::new(1024, Duration::from_secs(3600));
    for relation in ["Sales", "Transactions"] {
        let rel = live.database().relation(relation).unwrap();
        let rows: Vec<Vec<Value>> = rel.rows().take(4).map(|r| r.to_vec()).collect();
        let mut ins = TableDelta::for_relation(rel);
        let mut del = TableDelta::for_relation(rel);
        for row in &rows {
            ins.insert(row).unwrap();
            del.delete(row).unwrap();
        }
        buffer.push(ins);
        buffer.push(del);
    }
    assert!(!buffer.is_empty());
    let flushed = buffer.flush();
    assert!(flushed.is_none(), "cancelling stream must flush to nothing");
    if let Some(txn) = flushed {
        live.commit(txn, &dynamics).unwrap();
    }
    assert_eq!(live.snapshot().generation(), 0, "no generation published");
    assert_agree(
        live.snapshot().results(),
        before.results(),
        true,
        "unchanged state",
    );
}

/// Commit cost tracks the delta, not the relation: on a chain
/// `S1(X1, X2) ⋈ S2(X2, X3)` with expected degree 10 per join key, a
/// single-tuple insert into `S1` changes the `S1 → S2` view at one key, and
/// the propagated group on `S2` reads only the rows carrying that key. The
/// rows scanned are bounded by the delta (read once per seed group) plus the
/// changed key's degree in `S2`, counted from the data, and stay flat while
/// the relations grow 10×.
#[test]
fn propagation_reads_the_changed_keys_rows_not_the_relation() {
    use lmfao::data::TableDelta;

    let dynamics = DynamicRegistry::new();
    let scanned = [2_000, 20_000].map(|tuples| {
        let ds = datagen::chain::generate(3, tuples, tuples / 10, Scale::small());
        let mut batch = QueryBatch::new();
        for x in ["X1", "X2", "X3"] {
            batch.push(x, vec![ds.attr(x)], vec![Aggregate::count()]);
        }
        let mut live = Engine::new(ds.db.clone(), ds.tree.clone(), EngineConfig::default())
            .prepare(&batch)
            .unwrap()
            .into_serving(&dynamics)
            .unwrap();
        let s1 = ds.db.relation("S1").unwrap();
        let row = s1.row(0).to_vec();
        let mut delta = TableDelta::for_relation(s1);
        delta.insert(&row).unwrap();
        let stats = live.commit(&delta, &dynamics).unwrap();
        let s2 = ds.db.relation("S2").unwrap();
        let x2 = s2.position(ds.attr("X2")).unwrap();
        let degree = s2.rows().filter(|r| r.value(x2) == row[1]).count();
        assert!(stats.propagated_groups > 0, "{tuples}: {stats:?}");
        assert!(
            stats.rows_scanned <= stats.seed_groups * stats.delta_rows + degree,
            "{tuples} tuples: {stats:?}, degree of the changed key {degree}"
        );
        stats.rows_scanned
    });
    assert!(
        scanned[1] < 3 * scanned[0],
        "rows scanned grew {scanned:?} over a 10x larger relation"
    );
}
