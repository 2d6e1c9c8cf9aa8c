//! A black-box snapshot-isolation checker for the serving layer.
//!
//! The serving layer promises snapshot isolation: every commit publishes
//! exactly one immutable generation, a reader pins whatever generation it
//! loads, and what it sees is exactly the state some prefix of committed
//! transactions produced — never a mix of two transactions, never a
//! generation that travels backwards on one handle. The engine *asserts*
//! this; this module **checks** it from the outside, trusting nothing but
//! the events the threads themselves record:
//!
//! - the writer records a [`CommitEvent`] per committed transaction (and
//!   one for the genesis generation 0), carrying the generation it
//!   published and a [digest](snapshot_digest) of the full query results of
//!   that generation;
//! - each reader records a [`ReadEvent`] per observed snapshot, carrying
//!   its own sequence number, the pinned generation, and the digest of the
//!   results *as the reader saw them*.
//!
//! After the run, [`check_history`] replays the merged [`History`] against
//! the snapshot-isolation axioms and returns every [`IsoViolation`] found:
//!
//! 1. **Commits are a clean sequence** — one commit per generation
//!    ([`IsoViolation::DuplicateGeneration`]), no holes
//!    ([`IsoViolation::GenerationGap`]), distinct transaction ids
//!    ([`IsoViolation::DuplicateTxn`]).
//! 2. **Reads see a committed prefix** — a read's generation must exist in
//!    the commit sequence ([`IsoViolation::FutureGeneration`]), and its
//!    digest must equal the committed digest of that generation, byte for
//!    byte; a mismatch means the reader observed state no transaction ever
//!    published — a torn publication ([`IsoViolation::TornRead`]). The
//!    transaction id stamped on the snapshot must match the commit's too
//!    ([`IsoViolation::TxnIdMismatch`]).
//! 3. **Generations are monotonic per reader** — successive reads on one
//!    handle never go backwards ([`IsoViolation::NonMonotonicRead`]).
//!
//! The checker is deliberately dumb: no locks, no knowledge of the DAG, no
//! shared code with the refresh path. It cannot be fooled by a bug in the
//! machinery it checks, which is the point — the negative test in the
//! isolation suite deliberately publishes a two-delta change as two
//! generations while recording it as one commit, and the checker flags
//! both the torn read and the generation bookkeeping.

use crate::engine::QueryResult;
use crate::snapshot::ViewSnapshot;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// One observation by one reader: snapshot `seq` (reader-local, assigned in
/// program order) pinned `generation` and saw results hashing to `digest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadEvent {
    /// Which reader thread recorded this (checker-opaque label).
    pub reader: usize,
    /// Reader-local sequence number, increasing in the reader's own program
    /// order — the order the monotonicity axiom is checked in.
    pub seq: u64,
    /// The generation the snapshot reported ([`ViewSnapshot::generation`]).
    pub generation: u64,
    /// The transaction id the snapshot reported ([`ViewSnapshot::txn_id`]).
    pub txn_id: u64,
    /// [`snapshot_digest`] of the results as this reader saw them.
    pub digest: u64,
}

/// One commit by the writer: transaction `txn_id` published `generation`
/// whose full results hash to `digest`. The genesis generation (0, no
/// transaction) is recorded as a commit with `txn_id` 0 so reads of the
/// initial snapshot have a commit to validate against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitEvent {
    /// The transaction id the published snapshot reports.
    pub txn_id: u64,
    /// The generation this commit published.
    pub generation: u64,
    /// [`snapshot_digest`] of the published snapshot's results.
    pub digest: u64,
}

impl ReadEvent {
    /// The `seq`-th recorded read of `reader`, which saw `snapshot`.
    pub fn of(reader: usize, seq: u64, snapshot: &ViewSnapshot) -> ReadEvent {
        ReadEvent {
            reader,
            seq,
            generation: snapshot.generation(),
            txn_id: snapshot.txn_id(),
            digest: snapshot_digest(snapshot),
        }
    }
}

impl CommitEvent {
    /// The commit that published `snapshot` (the genesis one for generation 0).
    pub fn of(snapshot: &ViewSnapshot) -> CommitEvent {
        CommitEvent {
            txn_id: snapshot.txn_id(),
            generation: snapshot.generation(),
            digest: snapshot_digest(snapshot),
        }
    }
}

/// The merged record of a concurrent run: every commit the writer made and
/// every read any reader made, in no particular order (the events carry
/// their own ordering keys).
#[derive(Debug, Clone, Default)]
pub struct History {
    /// All commit events, any order.
    pub commits: Vec<CommitEvent>,
    /// All read events from all readers, any order.
    pub reads: Vec<ReadEvent>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Records a commit.
    pub fn add_commit(&mut self, event: CommitEvent) {
        self.commits.push(event);
    }

    /// Records a read.
    pub fn add_read(&mut self, event: ReadEvent) {
        self.reads.push(event);
    }

    /// Appends another history (e.g. one reader thread's local log).
    pub fn merge(&mut self, other: History) {
        self.commits.extend(other.commits);
        self.reads.extend(other.reads);
    }
}

/// A snapshot-isolation axiom broken by a [`History`]. See the
/// [module docs](self) for the axiom each variant belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsoViolation {
    /// Two commits claim the same generation.
    DuplicateGeneration {
        /// The doubly-published generation.
        generation: u64,
    },
    /// The commit sequence skips a generation: some state was published
    /// without a recorded transaction producing it.
    GenerationGap {
        /// The first missing generation.
        missing: u64,
    },
    /// Two commits claim the same transaction id.
    DuplicateTxn {
        /// The doubly-used transaction id.
        txn_id: u64,
    },
    /// A read pinned a generation no commit ever published.
    FutureGeneration {
        /// The reader that saw it.
        reader: usize,
        /// The reader-local sequence number of the read.
        seq: u64,
        /// The uncommitted generation observed.
        generation: u64,
    },
    /// A read of a committed generation saw results that generation never
    /// had: the reader observed a state between transactions.
    TornRead {
        /// The reader that saw it.
        reader: usize,
        /// The reader-local sequence number of the read.
        seq: u64,
        /// The generation the snapshot claimed to be.
        generation: u64,
        /// The digest the writer committed for that generation.
        expected: u64,
        /// The digest the reader actually observed.
        observed: u64,
    },
    /// A read's snapshot reported a transaction id different from the one
    /// that committed its generation.
    TxnIdMismatch {
        /// The reader that saw it.
        reader: usize,
        /// The reader-local sequence number of the read.
        seq: u64,
        /// The generation read.
        generation: u64,
        /// The transaction id the commit recorded.
        expected: u64,
        /// The transaction id the snapshot reported.
        observed: u64,
    },
    /// One reader's pinned generation went backwards between successive
    /// reads on the same handle.
    NonMonotonicRead {
        /// The reader that went backwards.
        reader: usize,
        /// The sequence number of the offending (later) read.
        seq: u64,
        /// The generation that earlier read pinned.
        previous: u64,
        /// The smaller generation the later read pinned.
        generation: u64,
    },
}

/// Checks a merged [`History`] against the snapshot-isolation axioms and
/// returns every violation found (empty means the run was clean). Purely
/// combinatorial — safe to run on histories of any interleaving.
pub fn check_history(history: &History) -> Vec<IsoViolation> {
    let mut violations = Vec::new();

    // Axiom 1: commits form a clean sequence.
    let mut by_generation: std::collections::BTreeMap<u64, &CommitEvent> =
        std::collections::BTreeMap::new();
    let mut txns_seen: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for commit in &history.commits {
        if by_generation.insert(commit.generation, commit).is_some() {
            violations.push(IsoViolation::DuplicateGeneration {
                generation: commit.generation,
            });
        }
        match txns_seen.get(&commit.txn_id) {
            Some(&generation) if generation != commit.generation => {
                violations.push(IsoViolation::DuplicateTxn {
                    txn_id: commit.txn_id,
                });
            }
            _ => {
                txns_seen.insert(commit.txn_id, commit.generation);
            }
        }
    }
    if let Some(&last) = by_generation.keys().next_back() {
        for generation in 0..=last {
            if !by_generation.contains_key(&generation) {
                violations.push(IsoViolation::GenerationGap {
                    missing: generation,
                });
            }
        }
    }

    // Axioms 2 and 3: validate each read against its commit, and each
    // reader's sequence against itself.
    let mut reads: Vec<&ReadEvent> = history.reads.iter().collect();
    reads.sort_by_key(|r| (r.reader, r.seq));
    let mut previous: Option<(usize, u64)> = None;
    for read in reads {
        match by_generation.get(&read.generation) {
            None => violations.push(IsoViolation::FutureGeneration {
                reader: read.reader,
                seq: read.seq,
                generation: read.generation,
            }),
            Some(commit) => {
                if commit.digest != read.digest {
                    violations.push(IsoViolation::TornRead {
                        reader: read.reader,
                        seq: read.seq,
                        generation: read.generation,
                        expected: commit.digest,
                        observed: read.digest,
                    });
                }
                if commit.txn_id != read.txn_id {
                    violations.push(IsoViolation::TxnIdMismatch {
                        reader: read.reader,
                        seq: read.seq,
                        generation: read.generation,
                        expected: commit.txn_id,
                        observed: read.txn_id,
                    });
                }
            }
        }
        if let Some((reader, prev_gen)) = previous {
            if reader == read.reader && read.generation < prev_gen {
                violations.push(IsoViolation::NonMonotonicRead {
                    reader: read.reader,
                    seq: read.seq,
                    previous: prev_gen,
                    generation: read.generation,
                });
            }
        }
        previous = Some((read.reader, read.generation));
    }

    violations
}

/// An order-independent digest of a snapshot's full query results.
///
/// Each `(query, key, aggregates)` entry hashes independently (aggregate
/// floats by their exact bit patterns) and the entry hashes combine by
/// wrapping addition, so the digest does not depend on map iteration
/// order — two readers of the same generation always compute the same
/// value, and any differing entry changes it.
pub fn snapshot_digest(snapshot: &ViewSnapshot) -> u64 {
    results_digest(snapshot.results().queries.iter())
}

/// [`snapshot_digest`] over an explicit set of query results — the hook for
/// harnesses that read through a narrower surface than a full snapshot.
pub fn results_digest<'a>(queries: impl Iterator<Item = &'a QueryResult>) -> u64 {
    let mut digest = 0u64;
    for query in queries {
        for (key, values) in &query.data {
            let mut hasher = DefaultHasher::new();
            query.name.hash(&mut hasher);
            key.hash(&mut hasher);
            for v in values {
                v.to_bits().hash(&mut hasher);
            }
            digest = digest.wrapping_add(hasher.finish());
        }
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit(txn_id: u64, generation: u64, digest: u64) -> CommitEvent {
        CommitEvent {
            txn_id,
            generation,
            digest,
        }
    }

    fn read(reader: usize, seq: u64, generation: u64, digest: u64) -> ReadEvent {
        ReadEvent {
            reader,
            seq,
            generation,
            txn_id: generation,
            digest,
        }
    }

    fn clean_history() -> History {
        let mut h = History::new();
        h.add_commit(commit(0, 0, 100));
        h.add_commit(commit(1, 1, 101));
        h.add_commit(commit(2, 2, 102));
        h.add_read(read(0, 0, 0, 100));
        h.add_read(read(0, 1, 2, 102));
        h.add_read(read(1, 0, 1, 101));
        h.add_read(read(1, 1, 1, 101));
        h
    }

    #[test]
    fn clean_run_has_no_violations() {
        assert_eq!(check_history(&clean_history()), vec![]);
    }

    #[test]
    fn torn_read_is_flagged() {
        let mut h = clean_history();
        h.add_read(read(2, 0, 1, 999));
        assert_eq!(
            check_history(&h),
            vec![IsoViolation::TornRead {
                reader: 2,
                seq: 0,
                generation: 1,
                expected: 101,
                observed: 999,
            }]
        );
    }

    #[test]
    fn non_monotonic_reader_is_flagged() {
        let mut h = clean_history();
        h.add_read(read(1, 2, 0, 100)); // reader 1 was at generation 1
        assert_eq!(
            check_history(&h),
            vec![IsoViolation::NonMonotonicRead {
                reader: 1,
                seq: 2,
                previous: 1,
                generation: 0,
            }]
        );
    }

    #[test]
    fn future_generation_is_flagged() {
        let mut h = clean_history();
        h.add_read(read(0, 2, 7, 107));
        assert_eq!(
            check_history(&h),
            vec![IsoViolation::FutureGeneration {
                reader: 0,
                seq: 2,
                generation: 7,
            }]
        );
    }

    #[test]
    fn generation_bookkeeping_is_checked() {
        let mut h = History::new();
        h.add_commit(commit(0, 0, 100));
        h.add_commit(commit(1, 2, 102)); // skipped generation 1
        h.add_commit(commit(1, 3, 103)); // reused txn id 1
        h.add_commit(commit(4, 3, 104)); // republished generation 3
        let violations = check_history(&h);
        assert!(violations.contains(&IsoViolation::GenerationGap { missing: 1 }));
        assert!(violations.contains(&IsoViolation::DuplicateTxn { txn_id: 1 }));
        assert!(violations.contains(&IsoViolation::DuplicateGeneration { generation: 3 }));
    }

    #[test]
    fn txn_id_mismatch_is_flagged() {
        let mut h = clean_history();
        h.add_read(ReadEvent {
            reader: 3,
            seq: 0,
            generation: 2,
            txn_id: 9,
            digest: 102,
        });
        assert_eq!(
            check_history(&h),
            vec![IsoViolation::TxnIdMismatch {
                reader: 3,
                seq: 0,
                generation: 2,
                expected: 2,
                observed: 9,
            }]
        );
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        use lmfao_data::{FxHashMap, Value};
        let q = |names: &[(&str, i64, f64)]| -> Vec<QueryResult> {
            names
                .iter()
                .map(|&(name, k, v)| {
                    let mut data = FxHashMap::default();
                    data.insert(vec![Value::Int(k)], vec![v]);
                    QueryResult {
                        name: name.into(),
                        group_by: vec![],
                        num_aggregates: 1,
                        data,
                    }
                })
                .collect()
        };
        let a = q(&[("x", 1, 2.0), ("y", 3, 4.0)]);
        let b = q(&[("y", 3, 4.0), ("x", 1, 2.0)]);
        let c = q(&[("x", 1, 2.0), ("y", 3, 4.5)]);
        assert_eq!(results_digest(a.iter()), results_digest(b.iter()));
        assert_ne!(results_digest(a.iter()), results_digest(c.iter()));
    }
}
