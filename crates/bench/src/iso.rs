//! Isolation stress harness: concurrent readers and a transactional writer
//! recording a black-box history for the snapshot-isolation checker.
//!
//! Where [`crate::serve`] measures *throughput* and audits sampled values
//! against a recompute referee, [`run_iso`] audits the *isolation contract*
//! itself: it runs reader threads against a [`lmfao_core::SnapshotHandle`]
//! while one writer drains a multi-relation
//! [`lmfao_datagen::transaction_stream`] (through
//! [`crate::readers_vs_writer`], the loop [`crate::serve`] runs too), and
//! every thread records what it
//! actually saw — the writer a [`CommitEvent`] per committed transaction
//! (generation, transaction id, and a digest of the full published
//! results), each reader a [`ReadEvent`] whenever the generation under its
//! handle moves (plus a periodic re-read, so repeated observation of one
//! generation is also checked). The merged [`History`] then goes through
//! [`lmfao_core::check_history`], which knows nothing about the engine and
//! simply enforces the snapshot-isolation axioms: reads see exactly some
//! committed prefix (no torn transactions), digests match commits
//! bit-for-bit, and generations never travel backwards on one handle. Any
//! [`IsoViolation`] in [`IsoReport::violations`] fails the run.

use lmfao_core::{check_history, CommitEvent, EngineConfig, History, IsoViolation, ReadEvent};
use lmfao_datagen::{transaction_stream, txn_relations, Dataset, UpdateMix};
use lmfao_expr::{DynamicRegistry, QueryBatch};
use std::time::{Duration, Instant};

/// Configuration of one isolation stress run.
#[derive(Debug, Clone)]
pub struct IsoConfig {
    /// Number of reader threads.
    pub readers: usize,
    /// Wall-clock duration of the run in seconds.
    pub duration_secs: f64,
    /// Target writer rate (transactions committed per second).
    pub commits_per_sec: f64,
    /// Operations per relation in the generated transaction stream.
    pub operations: usize,
    /// Seed of the transaction stream.
    pub seed: u64,
}

/// The outcome of an isolation stress run.
#[derive(Debug, Clone)]
pub struct IsoReport {
    /// Snapshot loads across all readers (recorded or not).
    pub total_reads: u64,
    /// Read events that entered the checked history.
    pub recorded_reads: usize,
    /// Commit events in the history (including the genesis generation).
    pub commits: usize,
    /// Committed transactions that spanned more than one relation.
    pub multi_relation_commits: usize,
    /// Every snapshot-isolation violation the checker found. Must be empty.
    pub violations: Vec<IsoViolation>,
    /// A writer-side failure (a `commit` that errored), if any.
    pub writer_error: Option<String>,
}

impl IsoReport {
    /// True when the run completed with no violation and no writer error.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.writer_error.is_none()
    }
}

/// Runs the isolation stress harness for `batch` over `ds`: `config.readers`
/// reader threads record generation movements under their own handles while
/// one writer commits multi-relation transactions against the dataset's
/// [`txn_relations`]. Returns the checker's verdict over the merged history.
pub fn run_iso(
    ds: &Dataset,
    batch: &QueryBatch,
    engine_config: EngineConfig,
    config: &IsoConfig,
) -> Result<IsoReport, lmfao_core::EngineError> {
    let dynamics = DynamicRegistry::new();
    let engine = crate::engine_for(ds, engine_config);
    let mut maintainer = engine.prepare(batch)?.into_serving(&dynamics)?;
    let handle = maintainer.handle();

    let relations = txn_relations(&ds.name);
    let mix = UpdateMix::balanced(config.operations).seed(config.seed);
    let stream = transaction_stream(ds, &relations, &mix);

    let duration = Duration::from_secs_f64(config.duration_secs.max(0.1));
    let interval = Duration::from_secs_f64(1.0 / config.commits_per_sec.max(1e-6));

    let (readers, writer) = crate::readers_vs_writer(
        &handle,
        config.readers.max(1),
        |id| (id, History::new(), 0u64, u64::MAX, 0u32),
        |(id, history, loads, last_generation, since_recorded), snap, _| {
            *loads += 1;
            // Re-read (and re-record) an unchanged generation about every 64
            // loads so steady states are validated too.
            *since_recorded += 1;
            if snap.generation() != *last_generation || *since_recorded >= 64 {
                *last_generation = snap.generation();
                *since_recorded = 0;
                let seq = history.reads.len() as u64;
                history.add_read(ReadEvent::of(*id, seq, &snap));
            }
        },
        || {
            // The genesis generation is a commit too (transaction 0): reads
            // of the initial snapshot need a commit event to validate against.
            let mut history = History::new();
            history.add_commit(CommitEvent::of(&maintainer.snapshot()));
            let start = Instant::now();
            let mut next = start;
            let mut error = None;
            let mut multi_relation_commits = 0;
            for txn in &stream {
                if start.elapsed() >= duration {
                    break;
                }
                if let Err(e) = maintainer.commit(txn.clone(), &dynamics) {
                    error = Some(e.to_string());
                    break;
                }
                if txn.num_relations() > 1 {
                    multi_relation_commits += 1;
                }
                history.add_commit(CommitEvent::of(&maintainer.snapshot()));
                // Fixed cadence: never reset `next` to "now", so a slow
                // commit borrows from the next slot instead of silently
                // stretching the whole schedule (same fix as the serve
                // bench's pacer).
                next += interval;
                let now = Instant::now();
                if next > now {
                    std::thread::sleep(next - now);
                }
            }
            // The readers run the whole window, past the writer's last commit.
            std::thread::sleep(duration.saturating_sub(start.elapsed()));
            (history, multi_relation_commits, error)
        },
    );
    let (mut history, multi_relation_commits, writer_error) = writer;
    let mut total_reads = 0;
    for (_, reader_history, loads, _, _) in readers {
        total_reads += loads;
        history.merge(reader_history);
    }
    let recorded_reads = history.reads.len();
    let commits = history.commits.len();
    let violations = check_history(&history);

    Ok(IsoReport {
        total_reads,
        recorded_reads,
        commits,
        multi_relation_commits,
        violations,
        writer_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmfao_datagen::Scale;

    /// End-to-end smoke: a short concurrent run over the small Favorita
    /// dataset must commit multi-relation transactions, record reads, and
    /// pass the snapshot-isolation checker with zero violations.
    #[test]
    fn short_iso_run_has_no_violations() {
        let ds = lmfao_datagen::favorita::generate(Scale::small());
        let spec = crate::WorkloadSpec::for_dataset(&ds.name);
        let batch = spec.count_batch(&ds);
        let config = IsoConfig {
            readers: 2,
            duration_secs: 0.5,
            commits_per_sec: 200.0,
            operations: 256,
            seed: 9,
        };
        let report = run_iso(&ds, &batch, EngineConfig::default(), &config).unwrap();
        assert!(
            report.ok(),
            "violations: {:?}, writer error: {:?}",
            report.violations,
            report.writer_error
        );
        assert!(report.total_reads > 0, "readers must make progress");
        assert!(report.commits > 1, "writer must commit past genesis");
        assert!(report.recorded_reads > 0, "history must record reads");

        // The writer commits a prefix of the stream (the genesis generation
        // is no transaction), and only that prefix is counted.
        let stream = transaction_stream(
            &ds,
            &txn_relations(&ds.name),
            &UpdateMix::balanced(config.operations).seed(config.seed),
        );
        let committed = &stream[..report.commits - 1];
        assert_eq!(
            report.multi_relation_commits,
            committed.iter().filter(|t| t.num_relations() > 1).count()
        );
    }
}
