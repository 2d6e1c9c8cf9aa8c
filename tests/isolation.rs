//! Snapshot isolation, checked from the outside.
//!
//! The positive half runs the `lmfao-bench` isolation harness for real —
//! concurrent reader threads against one transactional writer draining a
//! multi-relation transaction stream — and requires the black-box checker
//! to find **zero** violations in the merged history. The negative half
//! proves the checker has teeth: it simulates a *torn publication* (one
//! logical transaction published as two generations, readers observing the
//! half-applied middle) and requires the checker to flag both the torn read
//! and the broken generation bookkeeping.

use lmfao::datagen::{self, transaction_stream, txn_relations, Scale, UpdateMix};
use lmfao::engine::EngineConfig;
use lmfao::prelude::*;
use lmfao_bench::iso::{run_iso, IsoConfig};

/// The stress acceptance: readers × writer × multi-relation transactions,
/// zero violations over every recorded read of every reader.
#[test]
fn concurrent_stress_run_has_zero_violations() {
    let ds = datagen::favorita::generate(Scale::small());
    let units = ds.attr("units");
    let family = ds.attr("family");
    let mut batch = QueryBatch::new();
    batch.push("count", vec![], vec![Aggregate::count()]);
    batch.push("units", vec![], vec![Aggregate::sum(units)]);
    batch.push("per_family", vec![family], vec![Aggregate::sum(units)]);

    let config = IsoConfig {
        readers: 4,
        duration_secs: 1.5,
        commits_per_sec: 400.0,
        operations: 2048,
        seed: 21,
    };
    let report = run_iso(&ds, &batch, EngineConfig::default(), &config).unwrap();
    assert!(
        report.ok(),
        "violations: {:?}, writer error: {:?}",
        report.violations,
        report.writer_error
    );
    assert!(report.commits > 1, "the writer must commit past genesis");
    assert!(
        report.multi_relation_commits > 0,
        "the writer must commit multi-relation transactions"
    );
    assert!(report.recorded_reads > 0, "readers must record history");
}

/// The negative control: publish one logical two-relation transaction as
/// TWO generations (exactly the per-relation write path this PR replaces),
/// record it as ONE commit, and let a reader observe the half-applied
/// middle state. A checker that stays silent here checks nothing.
#[test]
fn torn_publication_is_detected() {
    let ds = datagen::favorita::generate(Scale::small());
    let units = ds.attr("units");
    let mut batch = QueryBatch::new();
    batch.push("count", vec![], vec![Aggregate::count()]);
    batch.push("units", vec![], vec![Aggregate::sum(units)]);

    let dynamics = DynamicRegistry::new();
    let mut writer = Engine::new(ds.db.clone(), ds.tree.clone(), EngineConfig::default())
        .prepare(&batch)
        .unwrap()
        .into_serving(&dynamics)
        .unwrap();
    let handle = writer.handle();

    let mut history = History::new();
    let genesis = handle.load();
    history.add_commit(CommitEvent::of(&genesis));
    history.add_read(ReadEvent::of(0, 0, &genesis));

    // One logical transaction over two relations…
    let relations = txn_relations(&ds.name);
    let txn = transaction_stream(&ds, &relations, &UpdateMix::balanced(4).seed(17))
        .into_iter()
        .find(|t| t.num_relations() >= 2)
        .expect("the stream must produce a multi-relation transaction");

    // …published the BROKEN way: one generation per relation. Commit a
    // dimension delta first and keep the fact-table delta (which always
    // moves COUNT) for later, so the half-applied state the reader pins is
    // guaranteed to differ from the final one.
    let mut deltas: Vec<_> = txn.deltas().to_vec();
    deltas.sort_by_key(|d| d.relation() == "Sales");
    let mut deltas = deltas.into_iter();
    writer.commit(deltas.next().unwrap(), &dynamics).unwrap();
    let torn = handle.load();
    history.add_read(ReadEvent::of(0, 1, &torn));
    for delta in deltas {
        writer.commit(delta, &dynamics).unwrap();
    }

    // The writer (dishonestly) records the whole thing as one atomic commit
    // at the generation the reader pinned.
    let last = writer.snapshot();
    history.add_commit(CommitEvent {
        txn_id: torn.txn_id(),
        generation: torn.generation(),
        digest: snapshot_digest(&last),
    });
    history.add_read(ReadEvent::of(0, 2, &last));

    let violations = check_history(&history);
    // The middle state the reader pinned matches no committed digest.
    assert!(
        violations.iter().any(|v| matches!(
            v,
            IsoViolation::TornRead {
                reader: 0,
                seq: 1,
                ..
            }
        )),
        "torn publication must be flagged: {violations:?}"
    );
    // And the extra generations the split published have no commit events:
    // the bookkeeping axiom catches the same bug from the other side.
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, IsoViolation::FutureGeneration { .. })
                || matches!(v, IsoViolation::GenerationGap { .. })),
        "generation bookkeeping must flag the unrecorded publishes: {violations:?}"
    );
}
