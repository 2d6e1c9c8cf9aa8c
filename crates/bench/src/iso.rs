//! Isolation stress harness: concurrent readers and a transactional writer
//! recording a black-box history for the snapshot-isolation checker.
//!
//! Where [`crate::serve`] measures *throughput* and audits sampled values
//! against a recompute referee, [`run_iso`] audits the *isolation contract*
//! itself: it runs reader threads against a [`lmfao_core::SnapshotHandle`]
//! while one writer drains a multi-relation
//! [`lmfao_datagen::transaction_stream`], and every thread records what it
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

use lmfao_core::isocheck::snapshot_digest;
use lmfao_core::{check_history, CommitEvent, EngineConfig, History, IsoViolation, ReadEvent};
use lmfao_datagen::{transaction_stream, txn_relations, Dataset, UpdateMix};
use lmfao_expr::{DynamicRegistry, QueryBatch};
use std::sync::atomic::{AtomicBool, Ordering};
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
    /// Transactions that spanned more than one relation.
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
    let multi_relation_commits = stream.iter().filter(|t| t.num_relations() > 1).count();

    let stop = AtomicBool::new(false);
    let duration = Duration::from_secs_f64(config.duration_secs.max(0.1));
    let interval = Duration::from_secs_f64(1.0 / config.commits_per_sec.max(1e-6));

    // The genesis generation is a commit too (transaction 0): reads of the
    // initial snapshot need a commit event to validate against.
    let genesis = handle.load();
    let mut writer_history = History::new();
    writer_history.add_commit(CommitEvent {
        txn_id: genesis.txn_id(),
        generation: genesis.generation(),
        digest: snapshot_digest(&genesis),
    });
    drop(genesis);

    let started = Instant::now();
    let (histories, total_reads, writer_history, writer_error) = std::thread::scope(|s| {
        let reader_handles: Vec<_> = (0..config.readers.max(1))
            .map(|reader_id| {
                let stop = &stop;
                let handle = handle.clone();
                s.spawn(move || {
                    let mut history = History::new();
                    let mut reads = 0u64;
                    let mut seq = 0u64;
                    let mut last_generation = u64::MAX;
                    // Re-read (and re-record) an unchanged generation about
                    // every 64 loads so steady states are validated too.
                    let mut since_recorded = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = handle.load();
                        reads += 1;
                        since_recorded += 1;
                        if snap.generation() != last_generation || since_recorded >= 64 {
                            last_generation = snap.generation();
                            since_recorded = 0;
                            history.add_read(ReadEvent {
                                reader: reader_id,
                                seq,
                                generation: snap.generation(),
                                txn_id: snap.txn_id(),
                                digest: snapshot_digest(&snap),
                            });
                            seq += 1;
                        }
                    }
                    (history, reads)
                })
            })
            .collect();

        let writer_handle = {
            let stop = &stop;
            let dynamics = &dynamics;
            let mut history = writer_history;
            s.spawn(move || {
                let start = Instant::now();
                let mut next = start;
                let mut error = None;
                for txn in &stream {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Err(e) = maintainer.commit(txn.clone(), dynamics) {
                        error = Some(e.to_string());
                        break;
                    }
                    let snap = maintainer.snapshot();
                    history.add_commit(CommitEvent {
                        txn_id: snap.txn_id(),
                        generation: snap.generation(),
                        digest: snapshot_digest(&snap),
                    });
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
                (history, error)
            })
        };

        while started.elapsed() < duration {
            std::thread::sleep(Duration::from_millis(25).min(duration));
        }
        stop.store(true, Ordering::Relaxed);

        let mut histories = Vec::new();
        let mut total_reads = 0u64;
        for h in reader_handles {
            let (history, reads) = h.join().expect("reader thread panicked");
            histories.push(history);
            total_reads += reads;
        }
        let (writer_history, writer_error) = writer_handle.join().expect("writer thread panicked");
        (histories, total_reads, writer_history, writer_error)
    });

    let mut history = writer_history;
    for h in histories {
        history.merge(h);
    }
    let recorded_reads = history.reads.len();
    let commits = history.commits.len();
    let violations = check_history(&history);

    Ok(IsoReport {
        total_reads,
        recorded_reads,
        commits,
        multi_relation_commits: multi_relation_commits.min(commits.saturating_sub(1)),
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
    }
}
