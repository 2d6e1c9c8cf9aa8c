//! Concurrent-serving harness: readers answering named-query lookups from
//! epoch-published snapshots while one writer drains an update stream.
//!
//! [`run_serve`] builds a [`lmfao_core::Maintainer`] over a workload batch,
//! then runs `readers` threads against its [`lmfao_core::SnapshotHandle`] for
//! a fixed wall-clock window while a pipelined two-thread writer drains an
//! update stream: a **pacer** offers [`lmfao_data::TableDelta`]s from
//! [`lmfao_datagen::update_stream`] into a [`lmfao_core::DeltaBuffer`] at a
//! fixed target cadence (a slow commit never resets the schedule — the
//! shortfall is recorded, not silently absorbed), and a **committer** flushes
//! the buffer into coalesced transactions and commits them, so the scan of
//! generation G+1 overlaps the enqueueing of its successors; both sit behind
//! the writer closure of [`crate::readers_vs_writer`], the loop [`crate::iso`]
//! runs too. Readers never block on a refresh: each read is `handle.load()`
//! (pin the current generation, a lock-free hazard-pointer acquire) followed
//! by a query lookup on the pinned, immutable snapshot. A superseded
//! generation lives only while a reader pins it; the report records how many generations the
//! publication cell still owns and their approximate bytes, and
//! [`ServeReport::ok`] fails the run if the cell owns more than one
//! superseded generation per live handle.
//!
//! Every reader records per-read latency into a log-bucketed
//! [`LatencyHistogram`] and retains a capped set of *pinned samples*
//! (generation + query name + the observed result). After the run the
//! harness audits a bounded number of distinct sampled generations against
//! [`lmfao_baseline::RecomputeReference::for_snapshot`] — a fresh engine over
//! the snapshot's own database state — and counts mismatches. A non-zero
//! [`ServeReport::mismatches`] means a reader observed a value that full
//! recomputation at its pinned generation cannot reproduce, which is the one
//! thing this harness exists to rule out.
//!
//! Independently of the recompute audit, the writer retains every published
//! [`lmfao_certify::Certificate`] (the generation-0 execute certificate plus
//! one maintenance certificate per published generation) and, for the same
//! time-spread sample of pinned generations, the untrusted-engine /
//! trusted-checker split is exercised end to end:
//! [`lmfao_certify::check_chain`] must accept the chain from generation 0 up
//! to each sampled generation. Any rejection counts as a
//! [`ServeReport::certificate_failures`] and fails the run.

use lmfao_baseline::RecomputeReference;
use lmfao_certify::{check_chain, Certificate};
use lmfao_core::{DeltaBuffer, EngineConfig, QueryResult, ViewSnapshot};
use lmfao_datagen::{fact_relation, update_stream, Dataset, UpdateMix};
use lmfao_expr::{DynamicRegistry, QueryBatch};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Relative tolerance when comparing a sampled read against the recompute
/// referee: float aggregate addition is not associative, so maintained state
/// and a fresh scan may differ in the last bits.
pub const VERIFY_REL_EPS: f64 = 1e-9;

/// How many pinned samples each reader retains for post-run verification.
const SAMPLES_PER_READER: usize = 8;

/// Snapshot handles [`run_serve`] holds besides the readers' own: its
/// progress handle and the maintainer's.
const HARNESS_HANDLES: usize = 2;

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of reader threads.
    pub readers: usize,
    /// Wall-clock duration of the run in seconds.
    pub duration_secs: f64,
    /// Target update rate for the writer thread (deltas applied per second).
    pub updates_per_sec: f64,
    /// Seed of the update stream (reader query choice derives from it too).
    pub seed: u64,
    /// Cap on distinct sampled generations recomputed during verification
    /// (each one pays a full from-scratch batch execution).
    pub verify_generations: usize,
    /// Print a progress line roughly once per second while running.
    pub progress: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            readers: 4,
            duration_secs: 5.0,
            updates_per_sec: 200.0,
            seed: 42,
            verify_generations: 6,
            progress: false,
        }
    }
}

/// The outcome of a serving run: reader throughput and latency quantiles,
/// writer throughput, and the post-run verification verdict.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Reader threads that ran.
    pub readers: usize,
    /// Total completed reads across all readers.
    pub total_reads: u64,
    /// Reads per second across all readers.
    pub queries_per_sec: f64,
    /// Median read latency in microseconds.
    pub p50_us: f64,
    /// 95th-percentile read latency in microseconds.
    pub p95_us: f64,
    /// 99th-percentile read latency in microseconds.
    pub p99_us: f64,
    /// Worst observed read latency in microseconds.
    pub max_us: f64,
    /// Deltas the writer applied (committed) within the window.
    pub updates_applied: u64,
    /// Achieved writer rate (deltas per second).
    pub updates_per_sec: f64,
    /// Deltas the pacer offered within the window. The pacer holds the
    /// target cadence regardless of commit speed, so `updates_offered -
    /// updates_applied` is the backlog a too-slow committer left behind.
    pub updates_offered: u64,
    /// True when the committer applied less than 90% of what the pacer
    /// offered: the writer could not sustain the requested rate.
    pub rate_shortfall: bool,
    /// The configured target writer rate.
    pub target_updates_per_sec: f64,
    /// Generations published by the writer. At most `updates_applied`: the
    /// committer coalesces queued deltas into one commit when it falls
    /// behind the pacer.
    pub generations: u64,
    /// Generations the publication cell owns at the end of the run: the
    /// current one plus the superseded ones a reader slot announced at the
    /// last publication.
    pub retained_generations: usize,
    /// Approximate bytes of relation + view storage reachable from those
    /// generations, deduplicated across generations.
    pub retained_bytes: usize,
    /// Pinned samples retained by readers.
    pub sampled_reads: usize,
    /// Distinct generations audited against the recompute referee.
    pub verified_generations: usize,
    /// Sampled reads the referee could not reproduce. Must be zero.
    pub mismatches: usize,
    /// Certificate chains (generation 0 up to a sampled pinned generation)
    /// accepted by the independent checker.
    pub certified_chains: usize,
    /// Certificate chains the checker rejected (or whose certificates were
    /// missing). Must be zero.
    pub certificate_failures: usize,
    /// Wall-clock seconds the checker spent auditing certificate chains.
    pub certify_secs: f64,
    /// A writer-side failure (a `commit` that errored), if any.
    pub writer_error: Option<String>,
}

impl ServeReport {
    /// True when the run completed with no writer error, no mismatch, no
    /// certificate rejection, and the publication cell owned at most one
    /// superseded generation per handle alive at the last publication (the
    /// readers' plus the harness's own).
    pub fn ok(&self) -> bool {
        self.mismatches == 0
            && self.certificate_failures == 0
            && self.writer_error.is_none()
            && self.retained_generations <= 1 + self.readers + HARNESS_HANDLES
    }

    /// Prints the report as aligned human-readable lines.
    pub fn print(&self) {
        println!(
            "readers {:>2}  reads {:>10}  {:>10.0} q/s  p50 {:>7.1}us  p95 {:>7.1}us  p99 {:>7.1}us  max {:>8.1}us",
            self.readers, self.total_reads, self.queries_per_sec,
            self.p50_us, self.p95_us, self.p99_us, self.max_us
        );
        println!(
            "writer     applied {:>7} of {:>7} offered  {:>8.1}/s (target {:.0}/s)  generations {}{}",
            self.updates_applied,
            self.updates_offered,
            self.updates_per_sec,
            self.target_updates_per_sec,
            self.generations,
            if self.rate_shortfall {
                "  RATE SHORTFALL >10%"
            } else {
                ""
            }
        );
        println!(
            "gc         retained {:>2} generations  ~{:.1} MiB",
            self.retained_generations,
            self.retained_bytes as f64 / (1024.0 * 1024.0)
        );
        println!(
            "verify     {} sampled reads over {} generations, {} mismatches{}",
            self.sampled_reads,
            self.verified_generations,
            self.mismatches,
            match &self.writer_error {
                Some(e) => format!("  WRITER ERROR: {e}"),
                None => String::new(),
            }
        );
        println!(
            "certify    {} chains accepted, {} rejected  ({:.3}s checker time)",
            self.certified_chains, self.certificate_failures, self.certify_secs
        );
    }
}

/// A log-bucketed latency histogram: 8 sub-buckets per power of two of
/// nanoseconds, so any recorded value lands in a bucket within 12.5% of its
/// true magnitude. Fixed 512-slot footprint, O(1) record, merges by addition
/// — each reader keeps its own and the harness folds them at join time.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    max_ns: u64,
}

/// log2(sub-buckets per octave).
const SUB_BITS: u32 = 3;

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; 512],
            count: 0,
            max_ns: 0,
        }
    }

    fn index(ns: u64) -> usize {
        let sub_count: u64 = 1 << SUB_BITS;
        if ns < sub_count {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        let sub = (ns >> (msb - SUB_BITS)) & (sub_count - 1);
        (((msb - SUB_BITS + 1) as u64 * sub_count) + sub) as usize
    }

    /// Lower bound (in ns) of the values a bucket holds.
    fn bucket_floor(idx: usize) -> u64 {
        let sub_count: usize = 1 << SUB_BITS;
        if idx < sub_count {
            return idx as u64;
        }
        let octave = (idx / sub_count) as u32;
        let sub = (idx % sub_count) as u64;
        (sub_count as u64 + sub) << (octave - 1)
    }

    /// Records one duration.
    pub fn record(&mut self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The worst recorded value in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The `q`-quantile (`0.0..=1.0`) in nanoseconds: the floor of the bucket
    /// holding the ceil(q·count)-th smallest value. Returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(idx);
            }
        }
        self.max_ns
    }
}

/// One pinned read retained for post-run verification: the snapshot the
/// reader loaded, which query it asked, and the answer it observed.
struct ReadSample {
    snapshot: Arc<ViewSnapshot>,
    query: String,
    observed: QueryResult,
}

/// One reader's state: its query picker, its latencies (one per read), the
/// reads not yet added to the progress counter, and its samples.
struct Reader {
    rng: Xorshift,
    hist: LatencyHistogram,
    unflushed: u64,
    samples: Vec<ReadSample>,
    next_sample: Instant,
}

/// Minimal xorshift64* generator so readers pick query names without pulling
/// an RNG dependency into the hot loop.
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Self {
        Xorshift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// True when both results have the same group keys and every aggregate value
/// agrees within `rel_eps` relative tolerance.
fn results_match(got: &QueryResult, want: &QueryResult, rel_eps: f64) -> bool {
    if got.data.len() != want.data.len() {
        return false;
    }
    got.data.iter().all(|(key, gv)| match want.data.get(key) {
        Some(wv) => {
            gv.len() == wv.len()
                && gv
                    .iter()
                    .zip(wv)
                    .all(|(g, w)| (g - w).abs() <= rel_eps * w.abs().max(1.0))
        }
        None => false,
    })
}

/// Runs the serving loop for `batch` over `ds`.
///
/// Builds the maintainer on the calling thread, then runs `config.readers`
/// reader threads against the pacer/committer writer pair
/// ([`crate::readers_vs_writer`]) for `config.duration_secs`. The pacer offers a
/// deterministic balanced update stream against the dataset's fact relation
/// at the target cadence; the committer flushes it into coalesced
/// transactions; readers hammer [`lmfao_core::SnapshotHandle::load`] + query
/// lookups. Afterwards, sampled pinned reads are audited against a
/// from-scratch recompute at their own generation.
pub fn run_serve(
    ds: &Dataset,
    batch: &QueryBatch,
    engine_config: EngineConfig,
    config: &ServeConfig,
) -> Result<ServeReport, lmfao_core::EngineError> {
    let dynamics = DynamicRegistry::new();
    let engine = crate::engine_for(ds, engine_config);
    let mut maintainer = engine.prepare(batch)?.into_serving(&dynamics)?;
    let handle = maintainer.handle();

    let names: Vec<String> = batch.queries.iter().map(|q| q.name.clone()).collect();
    assert!(!names.is_empty(), "serving needs a non-empty batch");

    // Generate twice the operations the target rate could consume, so the
    // stream never runs dry inside the window.
    let ops = ((config.updates_per_sec * config.duration_secs).ceil() as usize)
        .saturating_mul(2)
        .max(64);
    let fact = fact_relation(&ds.name);
    let stream = update_stream(ds, fact, &UpdateMix::balanced(ops).seed(config.seed));

    let stop = AtomicBool::new(false);
    let reads_ctr = AtomicU64::new(0);
    let updates_ctr = AtomicU64::new(0);
    let duration = Duration::from_secs_f64(config.duration_secs.max(0.1));
    let interval = Duration::from_secs_f64(1.0 / config.updates_per_sec.max(1e-6));

    // The pacer/committer hand-off: deltas queue in a DeltaBuffer (which
    // merges per relation) guarded by one mutex, with a condvar waking the
    // committer. Any pending delta is flushable immediately (`max_ops = 1`);
    // the age threshold is the no-new-push backstop the committer polls
    // while the queue idles.
    let queue = Mutex::new(DeltaBuffer::new(1, interval));
    let wake = Condvar::new();

    // The certificate chain: index g holds generation g's certificate. The
    // committer is the only thread that extends it (one entry per published
    // generation), so by join time every generation has its certificate on
    // file and `certs[..=g]` is exactly the chain up to generation g.
    let genesis = Arc::clone(handle.load().certificate());

    let started = Instant::now();
    // Pin samples spread across the window (not the first reads, which would
    // all land on generation 0).
    let sample_every = duration / (SAMPLES_PER_READER as u32 + 1);
    let (readers, (offered, writer)) = crate::readers_vs_writer(
        &handle,
        config.readers.max(1),
        |reader| Reader {
            rng: Xorshift::new(config.seed ^ (reader as u64 + 1)),
            hist: LatencyHistogram::new(),
            unflushed: 0,
            samples: Vec::new(),
            next_sample: Instant::now(),
        },
        |reader, snap, began| {
            let name = &names[(reader.rng.next() % names.len() as u64) as usize];
            let result = snap
                .query(name)
                .expect("batch names always resolve in their own snapshot");
            // Touch the answer so the read is not optimized away.
            std::hint::black_box(result.data.values().next().and_then(|v| v.first()));
            reader.hist.record(began.elapsed());
            reader.unflushed += 1;
            if reader.unflushed >= 1024 {
                reads_ctr.fetch_add(reader.unflushed, Ordering::Relaxed);
                reader.unflushed = 0;
            }
            if reader.samples.len() < SAMPLES_PER_READER && began >= reader.next_sample {
                reader.next_sample = began + sample_every;
                let observed = result.clone();
                reader.samples.push(ReadSample {
                    snapshot: snap,
                    query: name.clone(),
                    observed,
                });
            }
        },
        || {
            std::thread::scope(|s| {
                // Pacer: offers deltas at the target cadence. `next` advances
                // by a fixed interval and is never reset to "now" — a slow
                // committer cannot stretch the pacer's clock, so
                // under-delivery shows up as an applied-vs-offered gap instead
                // of being silently absorbed.
                let pacer = s.spawn(|| {
                    let mut next = Instant::now();
                    let mut offered = 0u64;
                    for delta in &stream {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        lock_queue(&queue).push(delta.clone());
                        wake.notify_one();
                        offered += 1;
                        next += interval;
                        let now = Instant::now();
                        if next > now {
                            std::thread::sleep(next - now);
                        }
                    }
                    offered
                });

                // Committer: owns the maintainer. Flushes the queue into one
                // coalesced transaction per commit and publishes it,
                // overlapping the refresh of one generation with the
                // enqueueing of the next. Exits at stop; whatever is still
                // queued is the recorded backlog.
                let committer = s.spawn(|| {
                    let mut applied = 0u64;
                    let mut error = None;
                    let mut certs: Vec<Arc<Certificate>> = vec![genesis];
                    while error.is_none() {
                        let flushed = {
                            let mut q = lock_queue(&queue);
                            loop {
                                if stop.load(Ordering::Relaxed) {
                                    break None;
                                }
                                if q.should_flush() {
                                    break Some((q.pushes_since_flush(), q.flush()));
                                }
                                // Timed wait: the age-threshold flush must
                                // fire even if no new push ever notifies.
                                let (guard, _) = wake
                                    .wait_timeout(q, Duration::from_millis(1))
                                    .unwrap_or_else(PoisonError::into_inner);
                                q = guard;
                            }
                        };
                        match flushed {
                            None => break,
                            // The whole batch cancelled to nothing: the deltas
                            // are applied by definition, no generation needed.
                            Some((deltas, None)) => {
                                applied += deltas;
                                updates_ctr.fetch_add(deltas, Ordering::Relaxed);
                            }
                            Some((deltas, Some(txn))) => match maintainer.commit(txn, &dynamics) {
                                Ok(_) => {
                                    certs.push(Arc::clone(maintainer.snapshot().certificate()));
                                    applied += deltas;
                                    updates_ctr.fetch_add(deltas, Ordering::Relaxed);
                                }
                                Err(e) => error = Some(e.to_string()),
                            },
                        }
                    }
                    (applied, error, certs, maintainer)
                });

                // Timekeeper: this thread ends the run (and optionally
                // narrates).
                let mut last_reads = 0u64;
                let mut last_updates = 0u64;
                let mut last_tick = started;
                while started.elapsed() < duration {
                    std::thread::sleep(Duration::from_millis(50).min(duration));
                    if config.progress && last_tick.elapsed() >= Duration::from_secs(1) {
                        let r = reads_ctr.load(Ordering::Relaxed);
                        let u = updates_ctr.load(Ordering::Relaxed);
                        let dt = last_tick.elapsed().as_secs_f64();
                        println!(
                            "t={:>4.0}s  {:>10.0} q/s  {:>7.1} updates/s  generation {}",
                            started.elapsed().as_secs_f64(),
                            (r - last_reads) as f64 / dt,
                            (u - last_updates) as f64 / dt,
                            handle.generation()
                        );
                        last_reads = r;
                        last_updates = u;
                        last_tick = Instant::now();
                    }
                }
                stop.store(true, Ordering::Relaxed);
                wake.notify_one();
                let offered = pacer.join().expect("pacer thread panicked");
                let writer = committer.join().expect("committer thread panicked");
                (offered, writer)
            })
        },
    );
    let (writer_applied, writer_error, certs, maintainer) = writer;
    let elapsed = started.elapsed().as_secs_f64();

    // Fold reader-side measurements.
    let mut hist = LatencyHistogram::new();
    let mut samples: Vec<ReadSample> = Vec::new();
    for reader in readers {
        hist.merge(&reader.hist);
        samples.extend(reader.samples);
    }
    let total_reads = hist.count();

    // Audit: group pinned samples by generation, recompute a bounded number
    // of distinct generations from scratch, compare every sample against the
    // recompute of *its own* generation.
    let mut by_gen: BTreeMap<u64, Vec<ReadSample>> = BTreeMap::new();
    for sample in samples {
        by_gen
            .entry(sample.snapshot.generation())
            .or_default()
            .push(sample);
    }
    let keep: Vec<u64> = spread(by_gen.keys().copied().collect(), config.verify_generations);
    let mut mismatches = 0usize;
    let mut sampled_reads = 0usize;
    for generation in &keep {
        let group = &by_gen[generation];
        let truth =
            RecomputeReference::for_snapshot(&group[0].snapshot, batch.clone()).recompute()?;
        for sample in group {
            sampled_reads += 1;
            let want = truth
                .get_query(&sample.query)
                .expect("batch names always resolve in the recompute");
            // The pinned snapshot must still answer exactly what the reader
            // saw (immutability), and that answer must match the referee.
            let still = sample.snapshot.query(&sample.query)?;
            if !results_match(&sample.observed, still, 0.0)
                || !results_match(&sample.observed, want, VERIFY_REL_EPS)
            {
                mismatches += 1;
            }
        }
    }

    // Certificate audit over the same time-spread sample: the independent
    // checker must accept the chain from generation 0 up to each sampled
    // pinned generation, and the chain must actually end there.
    let certify_started = Instant::now();
    let mut certified_chains = 0usize;
    let mut certificate_failures = 0usize;
    for &generation in &keep {
        let end = generation as usize;
        if end >= certs.len() {
            certificate_failures += 1;
            continue;
        }
        match check_chain(certs[..=end].iter().map(Arc::as_ref)) {
            Ok(summary) if summary.final_generation == generation => certified_chains += 1,
            Ok(_) | Err(_) => certificate_failures += 1,
        }
    }
    let certify_secs = certify_started.elapsed().as_secs_f64();

    Ok(ServeReport {
        readers: config.readers.max(1),
        total_reads,
        queries_per_sec: total_reads as f64 / elapsed.max(1e-9),
        p50_us: hist.quantile_ns(0.50) as f64 / 1e3,
        p95_us: hist.quantile_ns(0.95) as f64 / 1e3,
        p99_us: hist.quantile_ns(0.99) as f64 / 1e3,
        max_us: hist.max_ns() as f64 / 1e3,
        updates_applied: writer_applied,
        updates_per_sec: writer_applied as f64 / elapsed.max(1e-9),
        updates_offered: offered,
        rate_shortfall: offered > 0 && (writer_applied as f64) < 0.9 * offered as f64,
        target_updates_per_sec: config.updates_per_sec,
        generations: handle.generation(),
        retained_generations: maintainer.retained_generations(),
        retained_bytes: maintainer.retained_bytes(),
        sampled_reads,
        verified_generations: keep.len(),
        mismatches,
        certified_chains,
        certificate_failures,
        certify_secs,
        writer_error,
    })
}

fn lock_queue(m: &Mutex<DeltaBuffer>) -> std::sync::MutexGuard<'_, DeltaBuffer> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Keeps at most `cap` elements of a sorted list, spread evenly across it
/// (always keeping the first and last when possible): the generations an
/// audit recomputes.
pub fn spread(keys: Vec<u64>, cap: usize) -> Vec<u64> {
    if keys.len() <= cap || cap == 0 {
        return keys;
    }
    (0..cap)
        .map(|i| keys[i * (keys.len() - 1) / (cap - 1).max(1)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmfao_datagen::Scale;

    #[test]
    fn histogram_quantiles_bracket_recorded_values() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile_ns(0.5);
        // Log buckets: the answer is within 12.5% below the true quantile.
        assert!((437_500..=500_000).contains(&p50), "p50 = {p50}ns");
        let p99 = h.quantile_ns(0.99);
        assert!((866_250..=990_000).contains(&p99), "p99 = {p99}ns");
        assert_eq!(h.max_ns(), 1_000_000);
        assert_eq!(h.quantile_ns(0.0), h.quantile_ns(1e-9));
    }

    #[test]
    fn histogram_merge_is_addition() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for i in 0..100u64 {
            a.record(Duration::from_nanos(i * 17 + 1));
            b.record(Duration::from_nanos(i * 31 + 5));
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 200);
        assert_eq!(merged.max_ns(), a.max_ns().max(b.max_ns()));
    }

    #[test]
    fn spread_keeps_ends_and_bounds_cardinality() {
        let keys: Vec<u64> = (0..100).collect();
        let kept = spread(keys.clone(), 5);
        assert_eq!(kept.len(), 5);
        assert_eq!(kept[0], 0);
        assert_eq!(*kept.last().unwrap(), 99);
        assert_eq!(spread(keys[..3].to_vec(), 5).len(), 3);
    }

    /// End-to-end smoke: a short run over the small Favorita dataset with a
    /// real writer must serve reads, publish generations, and audit clean.
    #[test]
    fn short_serving_run_audits_clean() {
        let ds = lmfao_datagen::favorita::generate(Scale::small());
        let spec = crate::WorkloadSpec::for_dataset(&ds.name);
        let batch = spec.count_batch(&ds);
        let config = ServeConfig {
            readers: 2,
            duration_secs: 0.5,
            updates_per_sec: 100.0,
            seed: 7,
            verify_generations: 3,
            progress: false,
        };
        let report = run_serve(&ds, &batch, EngineConfig::default(), &config).unwrap();
        assert!(report.ok(), "{report:?}");
        assert!(report.total_reads > 0, "readers must make progress");
        assert!(report.updates_applied > 0, "writer must make progress");
        assert!(report.updates_offered >= report.updates_applied);
        // Coalescing: the committer may fold several offered deltas into one
        // published generation, never the other way around.
        assert!(report.generations > 0);
        assert!(report.generations <= report.updates_applied);
        assert!(report.retained_generations >= 1);
        assert!(report.retained_bytes > 0);
        assert_eq!(report.mismatches, 0);
        assert!(report.sampled_reads > 0, "verification must sample reads");
        assert!(
            report.certified_chains > 0,
            "the certificate audit must cover sampled generations"
        );
        assert_eq!(report.certificate_failures, 0);
        assert!(report.p50_us <= report.p99_us);
    }
}
