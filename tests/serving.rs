//! Concurrent serving: readers pinning a published generation must never
//! block on — or observe any partial state of — a writer refresh.
//!
//! Two attacks on the epoch-publication protocol of `lmfao_core::snapshot`:
//!
//! * a **barrier-driven** test that pins generation G on several reader
//!   threads, lets the writer publish G+1 *while the pins are held*, and
//!   asserts the pinned snapshots still answer bit-identically to their
//!   pre-refresh answers (and that fresh loads see G+1);
//! * a **seeded stress** test (4 readers × 1 writer × 500 single-tuple
//!   updates) where readers continuously load snapshots and retain one pin
//!   per generation observed; afterwards every sampled generation is audited
//!   against `RecomputeReference::for_snapshot` — a fresh engine over that
//!   snapshot's own database copy — exactly for counts, within 1e-9 relative
//!   tolerance for float sums.

use lmfao::baseline::RecomputeReference;
use lmfao::datagen::{self, update_stream, Scale, UpdateMix};
use lmfao::prelude::*;
use lmfao_bench::readers_vs_writer;
use lmfao_bench::serve::spread;
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

/// Sales ⋈ Items toy database: 8 sales rows over 3 items.
fn toy() -> (Database, JoinTree, QueryBatch) {
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
        (0..8)
            .map(|i| {
                vec![
                    Value::Int(i % 4),
                    Value::Int(i % 3),
                    Value::Double((i + 1) as f64),
                ]
            })
            .collect(),
    )
    .unwrap();
    let items = Relation::from_rows(
        schema.relation("Items").unwrap().clone(),
        (0..3)
            .map(|i| vec![Value::Int(i), Value::Double((10 * (i + 1)) as f64)])
            .collect(),
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
    (db, tree, batch)
}

/// Bit-exact equality of two batch results, query by query.
fn assert_identical(got: &BatchResult, want: &BatchResult, context: &str) {
    assert_eq!(got.queries.len(), want.queries.len(), "{context}");
    for (g, w) in got.queries.iter().zip(&want.queries) {
        assert_eq!(g.name, w.name, "{context}");
        assert_eq!(g.data, w.data, "{context}: query {}", g.name);
    }
}

/// Readers pin generation G across a refresh: the pinned snapshots must keep
/// answering exactly what they answered before the writer published G+1,
/// while fresh loads through the same handle observe the new generation.
#[test]
fn pinned_readers_are_unaffected_by_a_concurrent_publication() {
    const READERS: usize = 4;
    let (db, tree, batch) = toy();
    let dynamics = DynamicRegistry::new();
    let mut writer = Engine::new(db.clone(), tree, EngineConfig::default())
        .prepare(&batch)
        .unwrap()
        .into_serving(&dynamics)
        .unwrap();
    let handle = writer.handle();

    // One sync point before the refresh (everyone has pinned G and recorded
    // its answers) and one after it (G+1 is published).
    let pinned_barrier = Arc::new(Barrier::new(READERS + 1));
    let published_barrier = Arc::new(Barrier::new(READERS + 1));

    std::thread::scope(|s| {
        for _ in 0..READERS {
            let handle = handle.clone();
            let pinned_barrier = Arc::clone(&pinned_barrier);
            let published_barrier = Arc::clone(&published_barrier);
            s.spawn(move || {
                let pinned = handle.load();
                assert_eq!(pinned.generation(), 0);
                let before = pinned.results().clone();
                pinned_barrier.wait();
                // ... the writer applies a delta and publishes G+1 here ...
                published_barrier.wait();
                // The pin is immutable: same bits as before the refresh.
                assert_identical(pinned.results(), &before, "pinned generation drifted");
                assert_eq!(pinned.generation(), 0);
                // A fresh load sees the new world.
                let fresh = handle.load();
                assert_eq!(fresh.generation(), 1);
                assert!(
                    fresh.results().query("count").scalar()[0]
                        > pinned.results().query("count").scalar()[0],
                    "the new generation must reflect the insert"
                );
            });
        }

        pinned_barrier.wait();
        let mut delta = TableDelta::for_relation(db.relation("Sales").unwrap());
        delta
            .insert(&[Value::Int(1), Value::Int(1), Value::Double(9.0)])
            .unwrap();
        writer.commit(&delta, &dynamics).unwrap();
        assert_eq!(writer.generation(), 1);
        published_barrier.wait();
    });
}

/// Generation lifetime: a published generation lives while it is current or
/// a reader pins it. Every unpinned generation is freed (its `Weak` dies) by
/// the next commit — except a generation a reader deliberately keeps pinned,
/// which stays alive, still answers its original results, and keeps exactly
/// one strong reference (the reader's own).
#[test]
fn gc_drops_unpinned_generations_but_never_a_pinned_reader() {
    const COMMITS: usize = 10;
    const PIN_AT: u64 = 2;
    let (db, tree, batch) = toy();
    let dynamics = DynamicRegistry::new();
    let mut writer = Engine::new(db.clone(), tree, EngineConfig::default())
        .prepare(&batch)
        .unwrap()
        .into_serving(&dynamics)
        .unwrap();
    let handle = writer.handle();

    let mut weaks = vec![(0, Arc::downgrade(&handle.load()))];
    let mut pinned: Option<(Arc<ViewSnapshot>, BatchResult)> = None;
    for i in 0..COMMITS {
        let mut delta = TableDelta::for_relation(db.relation("Sales").unwrap());
        delta
            .insert(&[
                Value::Int(i as i64 % 4),
                Value::Int(i as i64 % 3),
                Value::Double((i + 1) as f64),
            ])
            .unwrap();
        writer.commit(&delta, &dynamics).unwrap();
        for (generation, weak) in &weaks {
            assert_eq!(
                weak.upgrade().is_some(),
                *generation == PIN_AT,
                "generation {generation} after commit {}: only the pin may keep a \
                 superseded generation alive",
                i + 1
            );
        }
        let snap = handle.load();
        assert_eq!(snap.generation(), (i + 1) as u64);
        if snap.generation() == PIN_AT {
            pinned = Some((Arc::clone(&snap), snap.results().clone()));
        }
        weaks.push((snap.generation(), Arc::downgrade(&snap)));
    }

    // No slot announces anything: the cell owns the current generation only.
    assert_eq!(writer.retained_generations(), 1);
    assert!(writer.retained_bytes() > 0);
    let (_, newest) = weaks.last().unwrap();
    assert!(
        newest.upgrade().is_some(),
        "the current generation is alive"
    );

    // The pin holds the only strong reference left to its generation, and
    // the snapshot still answers exactly what it answered at publish time.
    let (pinned_snap, pinned_results) = pinned.expect("generation PIN_AT was published");
    assert_eq!(Arc::strong_count(&pinned_snap), 1);
    assert_identical(
        pinned_snap.results(),
        &pinned_results,
        "pinned generation drifted after GC",
    );
}

/// 8 reader threads hammer `load()` during rapid publication; every observed
/// (generation, digest) pair goes into an isolation history which the
/// black-box snapshot-isolation checker must accept with zero violations —
/// the lock-free publication cell cannot tear, reorder, or resurrect
/// generations.
#[test]
fn stress_eight_readers_produce_a_clean_isolation_history() {
    const READERS: usize = 8;
    const UPDATES: usize = 300;
    let (db, tree, batch) = toy();
    let dynamics = DynamicRegistry::new();
    let mut writer = Engine::new(db.clone(), tree, EngineConfig::default())
        .prepare(&batch)
        .unwrap()
        .into_serving(&dynamics)
        .unwrap();
    let handle = writer.handle();
    // Handles alive while the writer publishes: the writer's own, `handle`
    // and one clone per reader. The cell may keep at most one superseded
    // generation per live handle, announced in its slot. The most it owned
    // after any commit is asserted once the readers have stopped.
    let live_handles = 2 + READERS;

    let (histories, (writer_history, most_retained)) = readers_vs_writer(
        &handle,
        READERS,
        |reader| (reader, History::new(), 0u64),
        |(reader, history, last_generation), snap, _| {
            assert!(
                snap.generation() >= *last_generation,
                "reader {reader} went back in time"
            );
            if snap.generation() != *last_generation || history.reads.is_empty() {
                *last_generation = snap.generation();
                let seq = history.reads.len() as u64;
                history.add_read(ReadEvent::of(*reader, seq, &snap));
            }
        },
        || {
            let mut history = History::new();
            history.add_commit(CommitEvent::of(&writer.snapshot()));
            let mut most_retained = 0;
            for i in 0..UPDATES {
                let mut delta = TableDelta::for_relation(db.relation("Sales").unwrap());
                delta
                    .insert(&[
                        Value::Int(i as i64 % 4),
                        Value::Int(i as i64 % 3),
                        Value::Double((i % 7 + 1) as f64),
                    ])
                    .unwrap();
                writer.commit(&delta, &dynamics).unwrap();
                most_retained = most_retained.max(writer.retained_generations());
                history.add_commit(CommitEvent::of(&writer.snapshot()));
            }
            (history, most_retained)
        },
    );
    assert_eq!(writer.generation(), UPDATES as u64);
    assert!(
        most_retained <= 1 + live_handles,
        "the cell owned {most_retained} generations with {live_handles} live handles"
    );

    let mut merged = writer_history;
    for (_, h, _) in histories {
        merged.merge(h);
    }
    let violations = check_history(&merged);
    assert!(
        violations.is_empty(),
        "snapshot-isolation violations under 8-reader load: {violations:?}"
    );
}

/// 4 readers × 1 writer × 500 updates: readers pin every generation they
/// observe; afterwards each sampled generation is recomputed from scratch at
/// its own database state and must agree (counts exactly, floats to 1e-9).
#[test]
fn stress_readers_always_match_a_recompute_at_their_pinned_generation() {
    const READERS: usize = 4;
    const UPDATES: usize = 500;
    let ds = datagen::favorita::generate(Scale::small());
    let units = ds.attr("units");
    let family = ds.attr("family");
    let mut batch = QueryBatch::new();
    batch.push("count", vec![], vec![Aggregate::count()]);
    batch.push("units", vec![], vec![Aggregate::sum(units)]);
    batch.push("per_family", vec![family], vec![Aggregate::sum(units)]);

    let dynamics = DynamicRegistry::new();
    let mut writer = Engine::new(ds.db.clone(), ds.tree.clone(), EngineConfig::default())
        .prepare(&batch)
        .unwrap()
        .into_serving(&dynamics)
        .unwrap();
    let handle = writer.handle();
    let stream = update_stream(&ds, "Sales", &UpdateMix::balanced(UPDATES).seed(11));
    assert_eq!(stream.len(), UPDATES);

    let (reader_pins, ()) = readers_vs_writer(
        &handle,
        READERS,
        |_| (BTreeMap::<u64, Arc<ViewSnapshot>>::new(), 0),
        |(pins, last_generation), snap, _| {
            // Generations are published in order: a reader can never travel
            // back in time.
            assert!(
                snap.generation() >= *last_generation,
                "generation went backwards: {} after {}",
                snap.generation(),
                last_generation
            );
            *last_generation = snap.generation();
            pins.entry(snap.generation()).or_insert(snap);
        },
        || {
            for delta in &stream {
                writer.commit(delta, &dynamics).unwrap();
            }
        },
    );
    assert_eq!(writer.generation(), UPDATES as u64);
    let mut pins: BTreeMap<u64, Arc<ViewSnapshot>> = BTreeMap::new();
    for (generation, snap) in reader_pins.into_iter().flat_map(|(pins, _)| pins) {
        // The same generation pinned by two readers is the same published
        // snapshot, not a lookalike.
        if let Some(other) = pins.get(&generation) {
            assert!(
                Arc::ptr_eq(other, &snap),
                "two distinct snapshots claim generation {generation}"
            );
        }
        pins.insert(generation, snap);
    }

    assert!(
        pins.len() > 2,
        "readers must observe several generations, saw {}",
        pins.len()
    );
    // Audit a bounded, evenly spread subset of the observed generations
    // (always the first and the last), recomputing each from the snapshot's
    // own pinned database state.
    for generation in spread(pins.keys().copied().collect(), 25) {
        let snap = &pins[&generation];
        let reference = RecomputeReference::for_snapshot(snap, batch.clone());
        let tuples = snap.database().total_tuples();
        let truth = reference.recompute().unwrap();
        // Recomputing sorts the engine's own clone: the referee still shares
        // every pinned relation, and the pinned snapshot is unchanged.
        for rel in snap.database().relations() {
            assert!(reference
                .database()
                .shares_relation_with(snap.database(), rel.name()));
        }
        assert_eq!(snap.database().total_tuples(), tuples);
        for (got, want) in snap.results().queries.iter().zip(&truth.queries) {
            assert_eq!(got.name, want.name);
            let exact = got.name == "count";
            assert_eq!(
                got.data.len(),
                want.data.len(),
                "generation {generation}, query {}: group counts differ",
                got.name
            );
            for (key, wv) in &want.data {
                let gv = got
                    .data
                    .get(key)
                    .unwrap_or_else(|| panic!("generation {generation}: missing group {key:?}"));
                for (g, w) in gv.iter().zip(wv) {
                    if exact {
                        assert_eq!(g, w, "generation {generation}, query {}", got.name);
                    } else {
                        assert!(
                            (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                            "generation {generation}, query {}: {g} vs recomputed {w}",
                            got.name
                        );
                    }
                }
            }
        }
    }
}
