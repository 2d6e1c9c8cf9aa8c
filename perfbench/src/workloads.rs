//! The six workloads: set-up, the measured loop, and the correctness gate.
//!
//! This file is the *frozen surface*: with tracing off the benchmark reaches
//! the engine only through `Engine::{with_shared, prepare}`,
//! `SharedDatabase::prepare`, `PreparedBatch::{execute, into_serving}`,
//! `Maintainer::{commit, handle, snapshot}`, `SnapshotHandle::load`,
//! `ViewSnapshot::{query, certificate, results, generation}`,
//! `ml::train_decision_tree` and the datagen entry points; the gates add the
//! references they check against (`MaterializedEngine`, `RecomputeReference`,
//! `train_decision_tree_replanned`, `check_chain`). Calls into single layers
//! live in `layers.rs` and run only in traced runs.

use crate::fixture::{
    baseline_mismatches, dataset_digest, db_bytes, features_and_label, generate, query_digest,
    result_digest, same_query, same_results, timed, Batch, Data, Fixture, Fnv, SetupTimes, THREADS,
};
use crate::registry::WorkloadDef;
use crate::speed::{Speed, Timed};
use crate::stats::{median, quantile, sliced_rate, sliced_tail, sorted, Histogram};
use crate::trace::Tracer;
use lmfao_baseline::RecomputeReference;
use lmfao_certify::{check_chain, Certificate};
use lmfao_core::{
    BatchResult, Engine, EngineConfig, Maintainer, QueryResult, SharedDatabase, SnapshotHandle,
    ViewSnapshot,
};
use lmfao_data::{AttrId, TableDelta, Transaction};
use lmfao_datagen::{
    fact_relation, transaction_stream, txn_relations, update_stream, Dataset, UpdateMix,
};
use lmfao_expr::DynamicRegistry;
use lmfao_ml::{
    train_decision_tree, train_decision_tree_replanned, DecisionTree, TreeConfig, TreeNode,
    TreeTask,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untimed operations before a closed loop starts recording, so caches are
/// warm and lazy allocation is done.
const WARMUP_OPS: usize = 3;
/// A closed loop records at least this many operations even past its time.
const MIN_OPS: usize = 5;
/// Slices of a closed loop's tail: a tenth of the operations each, but no
/// fewer than this many, so a slice's percentile has values beyond it.
const MIN_SLICE: usize = 20;
/// Transactions in one round of `commit_txn`, and commits the write-path
/// probe replays: a fixed prefix of the stream, so neither the measured mix
/// nor the probe's counts depend on how fast the run was.
pub const COUNTED_COMMITS: usize = 50;

/// Rate of the open-loop writer of `serve_mixed`.
const COMMITS_PER_S: f64 = 50.0;
/// A commit finishing later than this after it was due counts as failed.
const COMMIT_DEADLINE: Duration = Duration::from_millis(100);
/// One read in this many is traced: every read would be tens of millions of
/// spans per run.
pub const READ_TRACE_SAMPLING: u64 = 256;
/// The reader samples the host speed once in this many reads: some five
/// samples a second, half a percent of its time.
const READS_PER_SPEED_SAMPLE: u64 = 1 << 20;
/// Reads pinned during a window and audited against a recompute afterwards.
const PINNED_READS: usize = 6;

/// What one measurement window saw. The three times are at the host's
/// nominal speed (see `speed.rs`).
pub struct Window {
    pub op_ms: f64,
    pub tail_ms: f64,
    pub ops_per_s: f64,
    /// Operations behind `op_ms` and `tail_ms`.
    pub samples: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Host-speed samples taken between the operations.
    pub speed: Speed,
    pub serve: Option<ServeSide>,
}

/// Both sides of a `serve_mixed` window: the reads the window reports and the
/// commits that go to the per-layer metrics.
pub struct ServeSide {
    pub wall_s: f64,
    pub commit_ms: Vec<f64>,
    pub late_us: Vec<f64>,
    pub offered: u64,
    pub applied: u64,
    pub backlog_max: u64,
    pub reads: Histogram,
}

impl Window {
    /// `slice` is how many consecutive operations one slice of the tail
    /// holds (see [`sliced_tail`]).
    fn from_timed(
        def: &WorkloadDef,
        timed: Timed,
        slice: usize,
        attempted: u64,
        failed: u64,
    ) -> Window {
        let lat_ms = timed.at_nominal();
        let ok_share =
            (lat_ms.len() as u64).saturating_sub(failed) as f64 / lat_ms.len().max(1) as f64;
        // The rate of each tenth of the run, median over the tenths: a stall
        // of the host slows one tenth, not the figure.
        let tenth = (lat_ms.len() / 10).max(1);
        Window {
            op_ms: quantile(&sorted(&lat_ms), 0.5),
            tail_ms: sliced_tail(&lat_ms, slice, def.tail_q),
            ops_per_s: sliced_rate(&lat_ms, tenth) * ok_share,
            samples: lat_ms.len() as u64,
            attempted,
            failed,
            speed: timed.speed,
            serve: None,
        }
    }
}

pub trait Workload {
    /// Generates the inputs from `seed` and builds everything an operation
    /// needs; its wall time is one `setup_s` sample. `seconds` sizes the
    /// update streams.
    fn setup(def: &'static WorkloadDef, seed: u64, seconds: f64) -> Self
    where
        Self: Sized;
    fn setup_times(&self) -> SetupTimes;
    /// Digest of the generated inputs: relations and streams.
    fn input_digest(&self) -> u64;
    /// Runs operations for `seconds`, each call into the engine in a span.
    fn measure(&mut self, seconds: f64, tr: &mut Tracer) -> Window;
    /// End-of-run correctness gates: checks made and checks failed.
    fn verify(&mut self) -> (u64, u64);
}

/// Runs `op` back to back: warm-up first, then until `seconds` have passed.
/// `op` returns its latency in ms and whether it succeeded. Returns the
/// latencies with the host speed sampled between the operations, attempts
/// and failures.
fn closed_loop(
    seconds: f64,
    tr: &mut Tracer,
    mut op: impl FnMut(&mut Tracer) -> (f64, bool),
) -> (Timed, u64, u64) {
    let (mut lat, mut attempted, mut failed) = (Timed::default(), 0u64, 0u64);
    // Warm-up operations are not timed, but they are traced: they are part
    // of the window the ledger has to account for.
    for _ in 0..WARMUP_OPS {
        op(tr);
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline || lat.len() < MIN_OPS {
        tr.set_op(attempted);
        let (ms, ok) = op(tr);
        attempted += 1;
        failed += u64::from(!ok);
        lat.push(ms);
    }
    (lat, attempted, failed)
}

/// `agg_scalar`, `agg_groupby` and `plan_adhoc`: executes of one batch, from
/// cached plans or (plan_adhoc) planned afresh for every operation.
pub struct Agg {
    pub def: &'static WorkloadDef,
    pub fx: Fixture,
    replan: bool,
    digest: Option<u64>,
    last: Option<BatchResult>,
}

impl Workload for Agg {
    fn setup(def: &'static WorkloadDef, seed: u64, _seconds: f64) -> Self {
        let (data, rows, kind) = match def.name {
            "agg_groupby" => (Data::Favorita, 20_000, Batch::MutualInfo),
            "plan_adhoc" => (Data::Retailer, 1_000, Batch::TreeNode),
            _ => (Data::Retailer, 20_000, Batch::TreeNode),
        };
        Agg {
            def,
            fx: Fixture::build(data, rows, kind, seed),
            replan: def.name == "plan_adhoc",
            digest: None,
            last: None,
        }
    }

    fn setup_times(&self) -> SetupTimes {
        self.fx.times
    }

    fn input_digest(&self) -> u64 {
        dataset_digest(&self.fx.ds).0
    }

    fn measure(&mut self, seconds: f64, tr: &mut Tracer) -> Window {
        let dynamics = DynamicRegistry::new();
        let (lat, attempted, failed) = closed_loop(seconds, tr, |tr| {
            let (result, ms) = timed(|| {
                let fresh;
                let prepared = if self.replan {
                    fresh = tr.span("prepared", "Engine::prepare", |_| {
                        self.fx.engine.prepare(&self.fx.batch)
                    })?;
                    &fresh
                } else {
                    &self.fx.prepared
                };
                tr.span("exec", "PreparedBatch::execute", |_| {
                    prepared.execute(&dynamics)
                })
            });
            // Every execute of one batch over one database gives the same bits.
            let ok = result.is_ok_and(|r| {
                let d = result_digest(&r);
                self.last = Some(r);
                *self.digest.get_or_insert(d) == d
            });
            (ms, ok)
        });
        let slice = (lat.len() / 10).max(MIN_SLICE);
        Window::from_timed(self.def, lat, slice, attempted, failed)
    }

    fn verify(&mut self) -> (u64, u64) {
        match &self.last {
            Some(result) => (
                result.queries.len() as u64,
                baseline_mismatches(&self.fx, result),
            ),
            None => (1, 1),
        }
    }
}

pub const TREE_CONFIG: TreeConfig = TreeConfig {
    task: TreeTask::Regression,
    max_depth: 4,
    min_samples: 1_000,
    buckets: 10,
};

/// Digest of a learned tree: structure, conditions and every bit of the leaf
/// predictions.
fn tree_digest(tree: &DecisionTree) -> u64 {
    fn walk(node: &TreeNode, h: &mut Fnv) {
        match node {
            TreeNode::Leaf {
                prediction,
                support,
            } => {
                h.u64(0);
                h.u64(prediction.to_bits());
                h.u64(support.to_bits());
            }
            TreeNode::Split {
                condition,
                left,
                right,
            } => {
                h.u64(1);
                h.u64(condition.attr.index() as u64);
                h.bytes(format!("{:?}", condition.op).as_bytes());
                h.value(condition.value);
                walk(left, h);
                walk(right, h);
            }
        }
    }
    let mut h = Fnv::default();
    walk(&tree.root, &mut h);
    h.0
}

/// Datasets `tree_train` rotates over. How long a node takes depends on the
/// data (the kernels skip what the path conditions reject, so a tree with
/// more deep nodes has cheaper ones): between datasets the median time per
/// node lies anywhere from 21 to 31 ms, while one dataset repeats within 2 %.
/// A run's median is as steady as the number of datasets behind it: with
/// three the quartiles of ten seeds lay 7 and 11 % of the median apart in two
/// sets, too close to the bound for one dataset per run.
const TREE_DATASETS: u64 = 8;

/// One generated dataset, its engine, and the tree last learned over it.
pub struct TreeData {
    pub ds: Dataset,
    pub engine: Engine,
    pub features: Vec<AttrId>,
    pub label: AttrId,
    digest: Option<u64>,
    pub last: Option<DecisionTree>,
}

/// `tree_train`: learning regression trees, over each dataset in turn.
pub struct TreeTrain {
    def: &'static WorkloadDef,
    pub sets: Vec<TreeData>,
    times: SetupTimes,
    trained: usize,
    /// Whole trainings in ms, one per training.
    pub train_ms: Vec<f64>,
}

impl Workload for TreeTrain {
    fn setup(def: &'static WorkloadDef, seed: u64, _seconds: f64) -> Self {
        let data = Data::Retailer;
        let mut times = SetupTimes::default();
        let sets = (0..TREE_DATASETS)
            .map(|i| {
                let sub_seed = seed.wrapping_mul(TREE_DATASETS).wrapping_add(i);
                let (ds, generate_ms) = timed(|| generate(data, 20_000, sub_seed));
                let (shared, sort_ms) = timed(|| SharedDatabase::prepare(ds.db.clone(), &ds.tree));
                times.generate_ms += generate_ms;
                times.sort_ms += sort_ms;
                times.db_bytes += db_bytes(&shared);
                let (features, label) = features_and_label(data, &ds);
                TreeData {
                    engine: Engine::with_shared(
                        shared,
                        ds.tree.clone(),
                        EngineConfig::full(THREADS),
                    ),
                    ds,
                    features,
                    label,
                    digest: None,
                    last: None,
                }
            })
            .collect();
        TreeTrain {
            def,
            sets,
            times,
            trained: 0,
            train_ms: Vec::new(),
        }
    }

    fn setup_times(&self) -> SetupTimes {
        self.times
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for set in &self.sets {
            h.u64(dataset_digest(&set.ds).0);
        }
        h.0
    }

    fn measure(&mut self, seconds: f64, tr: &mut Tracer) -> Window {
        let (lat, attempted, failed) = closed_loop(seconds, tr, |tr| {
            let turn = self.trained % self.sets.len();
            let set = &mut self.sets[turn];
            self.trained += 1;
            let (tree, ms) = timed(|| {
                tr.span("ml", "train_decision_tree", |_| {
                    train_decision_tree(&set.engine, &set.features, set.label, &TREE_CONFIG)
                })
            });
            self.train_ms.push(ms);
            // The operation is one node learned: trees have from 15 to 31
            // nodes, each costing one execute of the candidate batch, so time
            // per tree would mostly measure the seed.
            match tree {
                Ok(tree) => {
                    let (d, nodes) = (tree_digest(&tree), tree.size().max(1));
                    set.last = Some(tree);
                    (ms / nodes as f64, *set.digest.get_or_insert(d) == d)
                }
                Err(_) => (ms, false),
            }
        });
        let slice = (lat.len() / 10).max(MIN_SLICE);
        Window::from_timed(self.def, lat, slice, attempted, failed)
    }

    fn verify(&mut self) -> (u64, u64) {
        // The plan-per-node learner is the reference the prepared one must
        // reproduce bit for bit, on every dataset.
        let wrong = self.sets.iter().filter(|set| {
            let reference =
                train_decision_tree_replanned(&set.engine, &set.features, set.label, &TREE_CONFIG);
            match (&set.last, reference) {
                (Some(tree), Ok(reference)) => tree_digest(tree) != tree_digest(&reference),
                _ => true,
            }
        });
        (self.sets.len() as u64, wrong.count() as u64)
    }
}

/// Serving state shared by `commit_txn` and `serve_mixed`.
pub struct Serving {
    pub fx: Fixture,
    pub maintainer: Maintainer,
    /// Generation 0's certificate, then one per commit, in order.
    pub certs: Vec<Arc<Certificate>>,
}

impl Serving {
    fn build(data: Data, rows: usize, kind: Batch, seed: u64) -> Serving {
        let mut fx = Fixture::build(data, rows, kind, seed);
        let (maintainer, into_serving_ms) =
            timed(|| fx.prepared.clone().into_serving(&DynamicRegistry::new()));
        fx.times.into_serving_ms = into_serving_ms;
        let mut serving = Serving {
            fx,
            maintainer: maintainer.expect("a planned batch executes over its own database"),
            certs: Vec::new(),
        };
        serving.open_chain();
        serving
    }

    /// Starts the certificate chain over at the maintainer's current one.
    fn open_chain(&mut self) {
        self.certs = vec![Arc::clone(self.maintainer.snapshot().certificate())];
    }

    /// Replaces the maintainer by one promoted afresh from the prepared
    /// batch, back at generation 0. False if the promotion failed.
    fn restart(&mut self) -> bool {
        let fresh = self
            .fx
            .prepared
            .clone()
            .into_serving(&DynamicRegistry::new());
        let ok = fresh.is_ok();
        if let Ok(maintainer) = fresh {
            self.maintainer = maintainer;
            self.open_chain();
        }
        ok
    }

    /// Commits `txn` inside a span and files the published certificate.
    fn commit(&mut self, txn: Transaction, tr: &mut Tracer) -> bool {
        let stats = tr.span("maintain", "Maintainer::commit", |_| {
            self.maintainer.commit(txn, &DynamicRegistry::new())
        });
        if stats.is_ok() {
            self.certs
                .push(Arc::clone(self.maintainer.snapshot().certificate()));
        }
        stats.is_ok()
    }

    /// The published state must equal a recompute from scratch over the
    /// snapshot's own database, and the checker must accept the whole chain.
    fn verify(&self) -> (u64, u64) {
        let snapshot = self.maintainer.snapshot();
        let recomputed =
            RecomputeReference::for_snapshot(&snapshot, self.fx.batch.clone()).recompute();
        let state_ok = recomputed.is_ok_and(|want| same_results(snapshot.results(), &want));
        let chain_ok = check_chain(self.certs.iter().map(Arc::as_ref))
            .is_ok_and(|s| s.final_generation == snapshot.generation());
        (2, u64::from(!state_ok) + u64::from(!chain_ok))
    }
}

fn digest_deltas<'a>(h: &mut Fnv, deltas: impl Iterator<Item = &'a TableDelta>) {
    for delta in deltas {
        h.relation(delta.rows());
        h.bytes(&delta.signs().iter().map(|&s| s as u8).collect::<Vec<_>>());
    }
}

/// `commit_txn`: five-relation transactions committed back to back.
///
/// The cost of a commit falls along the stream (from some 60 ms to 20 ms over
/// 400 transactions: deleted dimension rows thin the join out), so a window
/// that commits "for ten seconds" measures a different mix whenever the
/// speed changes. Instead a window replays the same first transactions of
/// the stream ([`COUNTED_COMMITS`], less the few that cancel out) in rounds, each round on a maintainer promoted afresh from
/// the prepared batch; the promotion is not timed.
pub struct CommitTxn {
    def: &'static WorkloadDef,
    pub serving: Serving,
    pub stream: Vec<Transaction>,
}

impl Workload for CommitTxn {
    fn setup(def: &'static WorkloadDef, seed: u64, _seconds: f64) -> Self {
        let mut serving = Serving::build(Data::TpcDs, 5_000, Batch::TreeNode, seed);
        let (stream, stream_ms) = timed(|| {
            let mut stream = transaction_stream(
                &serving.fx.ds,
                &txn_relations(&serving.fx.ds.name),
                &UpdateMix::balanced(COUNTED_COMMITS).seed(seed),
            );
            stream.truncate(COUNTED_COMMITS);
            stream
        });
        serving.fx.times.stream_ms = stream_ms;
        CommitTxn {
            def,
            serving,
            stream,
        }
    }

    fn setup_times(&self) -> SetupTimes {
        self.serving.fx.times
    }

    fn input_digest(&self) -> u64 {
        let mut h = dataset_digest(&self.serving.fx.ds);
        digest_deltas(&mut h, self.stream.iter().flat_map(|t| t.deltas()));
        h.0
    }

    fn measure(&mut self, seconds: f64, tr: &mut Tracer) -> Window {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let (mut lat, mut failed) = (Timed::default(), 0u64);
        // Whole rounds only, so every window holds each transaction equally
        // often; the last round may run past the deadline.
        while lat.is_empty() || Instant::now() < deadline {
            if !self.serving.restart() {
                failed += 1;
                break;
            }
            for txn in &self.stream {
                tr.set_op(lat.len() as u64);
                let txn = txn.clone();
                let (ok, ms) = timed(|| self.serving.commit(txn, tr));
                failed += u64::from(!ok);
                lat.push(ms);
            }
        }
        let attempted = lat.len() as u64 + u64::from(lat.is_empty());
        // One slice per round: every slice holds the same transactions.
        let round = self.stream.len();
        Window::from_timed(self.def, lat, round, attempted, failed)
    }

    fn verify(&mut self) -> (u64, u64) {
        self.serving.verify()
    }
}

/// A read the reader pinned for the post-run audit.
struct PinnedRead {
    snapshot: Arc<ViewSnapshot>,
    query: String,
    observed: QueryResult,
}

/// The reads of one full second of a `serve_mixed` window.
struct Second {
    from: Instant,
    to: Instant,
    reads: Histogram,
    errors: u64,
}

struct ReaderOutcome {
    /// All reads of the window.
    hist: Histogram,
    /// The full seconds of the window: the slices the reported figures are
    /// medians over.
    seconds: Vec<Second>,
    speed: Speed,
    errors: u64,
    pinned: Vec<PinnedRead>,
    tracer: Tracer,
}

/// xorshift64*: picks query names without an RNG dependency in the hot loop.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

fn reader_loop(
    handle: SnapshotHandle,
    names: &[String],
    stop: &AtomicBool,
    seed: u64,
    seconds: f64,
    mut tracer: Tracer,
) -> ReaderOutcome {
    let mut rng = Xorshift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let (mut seconds_done, mut this_second) = (Vec::new(), Histogram::default());
    let mut second_began = Instant::now();
    let mut speed = Speed::default();
    let (mut errors, mut errors_before, mut reads) = (0u64, 0u64, 0u64);
    let mut pinned: Vec<PinnedRead> = Vec::new();
    // Pins are spread over the window so they land on different generations.
    let pin_every = Duration::from_secs_f64(seconds / (PINNED_READS + 1) as f64);
    let mut next_pin = Instant::now() + pin_every;
    let traced = tracer.enabled();
    while !stop.load(Ordering::Relaxed) {
        let name = &names[(rng.next() % names.len() as u64) as usize];
        tracer.set_enabled(traced && reads % READ_TRACE_SAMPLING == 0);
        tracer.set_op(reads);
        let started = Instant::now();
        // One span for the whole read: at some 100 ns a read, a span each
        // for the load and the lookup would mostly time their own clocks.
        let (snapshot, found) = tracer.span("snapshot", "load+query", |_| {
            let snapshot = handle.load();
            // Touch the answer so the lookup cannot be optimized away.
            let found = snapshot.query(name).map(|r| {
                std::hint::black_box(r.data.values().next().and_then(|v| v.first().copied()));
            });
            (snapshot, found.is_ok())
        });
        this_second.record(started.elapsed().as_nanos() as u64);
        reads += 1;
        errors += u64::from(!found);
        if started >= second_began + Duration::from_secs(1) {
            let now = Instant::now();
            seconds_done.push(Second {
                from: second_began,
                to: now,
                reads: std::mem::take(&mut this_second),
                errors: errors - errors_before,
            });
            (second_began, errors_before) = (now, errors);
        }
        if reads % READS_PER_SPEED_SAMPLE == 0 {
            speed.sample();
        }
        if found && pinned.len() < PINNED_READS && started >= next_pin {
            next_pin = started + pin_every;
            if let Ok(result) = snapshot.query(name) {
                pinned.push(PinnedRead {
                    observed: result.clone(),
                    query: name.clone(),
                    snapshot: Arc::clone(&snapshot),
                });
            }
        }
    }
    tracer.set_enabled(traced);
    // The whole window is its full seconds plus the stub after the last.
    let mut hist = this_second;
    seconds_done.iter().for_each(|s| hist.merge(&s.reads));
    ReaderOutcome {
        hist,
        seconds: seconds_done,
        speed,
        errors,
        pinned,
        tracer,
    }
}

/// `serve_mixed`: one reader beside an open-loop writer.
pub struct Serve {
    def: &'static WorkloadDef,
    seed: u64,
    pub serving: Serving,
    pub stream: Vec<TableDelta>,
    pub cursor: usize,
    names: Vec<String>,
    pinned: Vec<PinnedRead>,
}

impl Workload for Serve {
    fn setup(def: &'static WorkloadDef, seed: u64, seconds: f64) -> Self {
        let mut serving = Serving::build(Data::Retailer, 20_000, Batch::Covar, seed);
        let operations = (COMMITS_PER_S * seconds * 1.1).ceil() as usize + 64;
        let (stream, stream_ms) = timed(|| {
            update_stream(
                &serving.fx.ds,
                fact_relation(&serving.fx.ds.name),
                // Appends with the occasional delete, the natural traffic of a
                // fact table. A balanced mix makes the median meaningless: a
                // delete costs more than twice an insert, so it flips between
                // the two costs with the seed's share of inserts.
                &UpdateMix::insert_heavy(operations).seed(seed),
            )
        });
        serving.fx.times.stream_ms = stream_ms;
        let names = serving.fx.batch.iter().map(|q| q.name.clone()).collect();
        Serve {
            def,
            seed,
            serving,
            stream,
            cursor: 0,
            names,
            pinned: Vec::new(),
        }
    }

    fn setup_times(&self) -> SetupTimes {
        self.serving.fx.times
    }

    fn input_digest(&self) -> u64 {
        let mut h = dataset_digest(&self.serving.fx.ds);
        digest_deltas(&mut h, self.stream.iter());
        h.0
    }

    fn measure(&mut self, seconds: f64, tr: &mut Tracer) -> Window {
        let stop = AtomicBool::new(false);
        let handle = self.serving.maintainer.handle();
        let reader_tracer = Tracer::with_origin(tr.enabled(), tr.origin());
        let (names, seed) = (&self.names, self.seed);
        let interval = Duration::from_secs_f64(1.0 / COMMITS_PER_S);
        let window = Duration::from_secs_f64(seconds);
        let (mut commit_ms, mut late_us) = (Vec::new(), Vec::new());
        let (mut offered, mut applied, mut late_commits, mut backlog_max) =
            (0u64, 0u64, 0u64, 0u64);

        let started = Instant::now();
        let reader = std::thread::scope(|s| {
            let stop = &stop;
            let reader =
                s.spawn(move || reader_loop(handle, names, stop, seed, seconds, reader_tracer));
            // The writer: commit i is due at i·interval whatever happened to
            // the commits before it, and is timed from that moment.
            while let Some(delta) = self.stream.get(self.cursor) {
                let due = started + interval * offered as u32;
                if due >= started + window {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let fired = Instant::now();
                late_us.push((fired - due).as_secs_f64() * 1e6);
                let due_by_now = ((fired - started).as_secs_f64() * COMMITS_PER_S) as u64 + 1;
                backlog_max = backlog_max.max(due_by_now.saturating_sub(offered));
                offered += 1;
                self.cursor += 1;
                tr.set_op(offered);
                let ok = self.serving.commit(delta.clone().into(), tr);
                let latency = due.elapsed();
                commit_ms.push(latency.as_secs_f64() * 1e3);
                applied += u64::from(ok);
                late_commits += u64::from(!ok || latency > COMMIT_DEADLINE);
            }
            if let Some(rest) = (started + window).checked_duration_since(Instant::now()) {
                std::thread::sleep(rest);
            }
            stop.store(true, Ordering::Relaxed);
            reader.join().expect("reader thread panicked")
        });
        let wall_s = started.elapsed().as_secs_f64();
        tr.adopt(reader.tracer);
        self.pinned.extend(reader.pinned);

        // The reader's side is what is reported end to end. The commits are
        // per-layer numbers: their latency doubles whenever the host runs
        // both threads on one core, which no bound can hold.
        let reads = reader.hist;
        // Median, tail and rate of each full second at the speed the host had
        // in that second, then the median over the seconds; a window under a
        // second is one slice.
        let figures = |reads: &Histogram, errors: u64, wall_s: f64, slow: f64| {
            [
                reads.quantile_ns(0.5) / slow,
                reads.quantile_ns(self.def.tail_q) / slow,
                (reads.count() - errors) as f64 / wall_s * slow,
            ]
        };
        let whole = reader.speed.ratio();
        let mut slices: Vec<[f64; 3]> = reader
            .seconds
            .iter()
            .map(|s| {
                let slow = reader.speed.ratio_between(s.from, s.to).unwrap_or(whole);
                figures(&s.reads, s.errors, (s.to - s.from).as_secs_f64(), slow)
            })
            .collect();
        if slices.is_empty() {
            slices.push(figures(&reads, reader.errors, wall_s, whole));
        }
        let over_slices = |i: usize| median(&slices.iter().map(|f| f[i]).collect::<Vec<_>>());
        Window {
            op_ms: over_slices(0) / 1e6,
            tail_ms: over_slices(1) / 1e6,
            ops_per_s: over_slices(2),
            samples: reads.count(),
            attempted: reads.count() + offered,
            failed: reader.errors + late_commits,
            speed: reader.speed,
            serve: Some(ServeSide {
                wall_s,
                commit_ms,
                late_us,
                offered,
                applied,
                backlog_max,
                reads,
            }),
        }
    }

    fn verify(&mut self) -> (u64, u64) {
        // Each pinned read must still be what its snapshot answers, and what
        // a recompute over that generation's database answers.
        let mut failed = 0;
        for pin in &self.pinned {
            let still = pin.snapshot.query(&pin.query);
            let truth =
                RecomputeReference::for_snapshot(&pin.snapshot, self.serving.fx.batch.clone())
                    .recompute();
            let ok = match (still, &truth) {
                (Ok(still), Ok(truth)) => {
                    query_digest(still) == query_digest(&pin.observed)
                        && truth
                            .get_query(&pin.query)
                            .is_some_and(|want| same_query(&pin.observed, want))
                }
                _ => false,
            };
            failed += u64::from(!ok);
        }
        let (checks, bad) = self.serving.verify();
        // A window too short to pin anything is itself a failed gate.
        let pins = self.pinned.len().max(1) as u64;
        (
            pins + checks,
            failed + bad + u64::from(self.pinned.is_empty()),
        )
    }
}
