//! Epoch-published snapshots: writers refresh, readers never block.
//!
//! Committing a [`Transaction`](lmfao_data::Transaction) mutates retained
//! view state, so a single mutable object would stall every query on every
//! refresh. This module is the reader/writer separation a serving system
//! needs — publication and generation lifetime; the write path itself
//! ([`Maintainer::commit`]) lives in [`crate::maintain`]:
//!
//! * [`ViewSnapshot`] — one **immutable** generation of the world: the
//!   database snapshot, every retained [`ComputedView`] and the projected
//!   per-query results, all behind `Arc`s. Readers answer named-query
//!   lookups straight from the projected results with zero scans and zero
//!   locks held.
//! * [`Maintainer`] — the single writer. Its state is its current
//!   generation. It commits transactions — atomic sets of
//!   [`TableDelta`](lmfao_data::TableDelta)s over one or more base relations
//!   — by staging the next generation copy-on-write against the current one,
//!   one DAG walk and one published generation per transaction, each new
//!   generation an `Arc<ViewSnapshot>` swapped through the shared
//!   [`SnapshotHandle`].
//! * [`SnapshotHandle`] — the publication cell readers clone into their
//!   threads. [`SnapshotHandle::load`] returns the latest published
//!   generation; whatever a reader loaded stays valid (and immutable)
//!   forever, however many generations the writer publishes afterwards —
//!   readers *pin* generations, they never see partial state.
//!
//! # Copy-on-write, at two granularities
//!
//! Publishing a full copy of every view per generation would make refresh
//! cost proportional to the database, not the delta. Instead the maintainer
//! keeps its state in `Arc`s and clones lazily:
//!
//! * **Views**: the retained state is a map of `Arc<ComputedView>`. Folding
//!   a view delta goes through [`Arc::make_mut`] — only views on the refresh
//!   frontier (those whose state actually changed) are copied, and only when
//!   a published snapshot still pins the old version. Views untouched by the
//!   delta are shared by every generation that ever existed.
//! * **Relations**: the base data is a [`Database`], whose relations sit
//!   behind `Arc`s and take deltas copy-on-write at relation granularity — a
//!   delta against the fact table copies the fact table once and shares
//!   every dimension table with all previous generations and with the
//!   [`PreparedBatch`] the maintainer was promoted from.
//!
//! # The publication cell
//!
//! Publication is an atomic pointer swap, for real: [`SnapshotHandle`] is
//! itself a hazard-pointer cell. `load` announces the published pointer in
//! the handle's private slot, validates the cell still holds it and bumps the
//! `Arc` count — no reader takes a lock, at any reader count. `publish`
//! stores the new pointer, retires the old `Arc` and drops every retired
//! `Arc` no slot announces, so reclaiming a generation is a safe drop. Each
//! slot is aligned to 128 bytes: a reader writes it twice per read, and an
//! unaligned slot can share a cache line with data the writer touches on
//! every commit. The slots are also why the handle is `Send` but **not**
//! `Sync`: each reader thread clones its own. A plain
//! `RwLock<Arc<ViewSnapshot>>` cell served about a quarter fewer reads per
//! second at two and eight readers on two vCPUs.
//!
//! # Generation lifetime
//!
//! A published generation lives while it is current or some reader pins it
//! — through an `Arc` it loaded, or through a slot announcing it mid-load.
//! Nothing else keeps it alive: the maintainer's state *is* its current
//! generation (the same `Arc` the cell publishes), and each publication
//! drops the cell's reference to every superseded generation no slot
//! announces. An unpinned generation is therefore freed by the next
//! publication, and a long-pinned reader keeps exactly its own generation
//! alive — never the whole chain, because copy-on-write shares unchanged
//! relations and views *forward* across generations. The cell holds at most
//! one superseded generation per live handle.
//! [`Maintainer::retained_generations`] and [`Maintainer::retained_bytes`]
//! report what the cell owns (pointer-deduplicated, so shared storage counts
//! once).
//!
//! # One scheduler
//!
//! Generation 0 is computed by [`crate::parallel::execute_all`] and every
//! commit's frontier walk by [`Maintainer::commit`] — both clients of the
//! crate's one DAG scheduler, deterministic at every thread count, so what
//! is published here never depends on thread timing.
//!
//! Float caveat: refreshed sums may differ from a fresh build in the last
//! ulp (float addition is not associative). The maintainer folds deltas with
//! [`ComputedView::merge_signed_snapped`], which snaps residues that are
//! zero-up-to-rounding back to exact zero so long cancelling streams prune
//! their dead keys — see [`CANCELLATION_REL_EPS`].

use crate::certificate::{emit_execute, encoded_totals};
use crate::engine::{BatchResult, QueryResult};
use crate::error::EngineError;
use crate::parallel::execute_all;
use crate::prepared::{project_results, PreparedBatch, PreparedPlans};
use crate::view::{ComputedView, ViewId};
use lmfao_certify::{fingerprint, Certificate};
use lmfao_data::{Database, FxHashMap, FxHashSet, Relation};
use lmfao_expr::DynamicRegistry;
use lmfao_jointree::JoinTree;
use std::fmt;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Relative epsilon of the maintainer's residue snapping: after folding a
/// view delta value `v` into an entry `e`, `e` is snapped to exact zero when
/// `|e| ≤ CANCELLATION_REL_EPS · |v|`. A cancelling stream of `n` updates
/// leaves a residue of order `n · ulp ≈ n · 2⁻⁵²` relative to the delta
/// magnitude, so `1e-11` absorbs streams of hundreds of thousands of updates
/// while sitting far below the `1e-9` relative tolerance the maintenance
/// layer guarantees for float aggregates.
pub const CANCELLATION_REL_EPS: f64 = 1e-11;

/// One immutable, published generation of maintained state.
///
/// Everything a reader needs lives here: the projected per-query results
/// (answered by [`ViewSnapshot::query`] with a hash lookup), the retained
/// view state, and the [`Database`] the generation was computed over — which
/// is what lets a recompute referee audit *this* generation long after the
/// writer has moved on.
#[derive(Debug)]
pub struct ViewSnapshot {
    pub(crate) generation: u64,
    pub(crate) txn: u64,
    pub(crate) db: Database,
    pub(crate) computed: FxHashMap<ViewId, Arc<ComputedView>>,
    pub(crate) results: BatchResult,
    pub(crate) inner: Arc<PreparedPlans>,
    pub(crate) certificate: Arc<Certificate>,
}

impl ViewSnapshot {
    /// The generation number: 0 for the initial full computation, +1 per
    /// published refresh.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Identifier of the transaction that published this generation: 0 for
    /// the initial full computation, then the 1-based commit counter. The
    /// engine publishes exactly one generation per committed transaction, so
    /// `txn_id == generation` — an invariant the black-box isolation checker
    /// (`crate::isocheck`) verifies from recorded histories rather than
    /// trusting this comment.
    pub fn txn_id(&self) -> u64 {
        self.txn
    }

    /// The projected results of every query of the batch, as of this
    /// generation.
    pub fn results(&self) -> &BatchResult {
        &self.results
    }

    /// The result of the named query, or [`EngineError::UnknownQuery`]. This
    /// is the read path of the serving loop: no scan, no lock, no `&mut`.
    pub fn query(&self, name: &str) -> Result<&QueryResult, EngineError> {
        self.results.try_query(name)
    }

    /// The database state this generation was computed over.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The retained result of a view, if it exists in the catalog.
    pub fn view_state(&self, id: ViewId) -> Option<&ComputedView> {
        self.computed.get(&id).map(|cv| &**cv)
    }

    /// The join tree the state was planned under (what a recompute referee
    /// replans from).
    pub fn join_tree(&self) -> &JoinTree {
        &self.inner.tree
    }

    /// The engine configuration the state was planned under.
    pub fn config(&self) -> &crate::config::EngineConfig {
        &self.inner.config
    }

    /// The execution certificate of this generation: an `Execute`
    /// certificate for generation 0, a `Maintenance` certificate (chained to
    /// the parent generation by fingerprint) for every refresh. Collect the
    /// certificates of consecutive generations and feed them to
    /// `lmfao_certify::check_chain` to audit the full history.
    pub fn certificate(&self) -> &Arc<Certificate> {
        &self.certificate
    }

    /// True if `self` and `other` share the storage of view `id` — the
    /// observable face of the copy-on-write discipline: a view off the
    /// refresh frontier is never copied between generations.
    pub fn shares_view_with(&self, other: &ViewSnapshot, id: ViewId) -> bool {
        match (self.computed.get(&id), other.computed.get(&id)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// The publication cell: readers clone the handle into their threads and
/// [`load`](SnapshotHandle::load) the latest generation per request, without
/// taking a lock.
///
/// The handle *is* the cell: it holds the state all handles share and its
/// own hazard slot, aligned to 128 bytes so the reader's two stores per read
/// never land on a cache line the writer touches. It is `Send` but
/// deliberately **not** `Sync`, so sharing one slot between two threads is a
/// compile error rather than a data race (clone a handle per thread):
///
/// ```compile_fail
/// fn shared_across_threads<T: Sync>() {}
/// shared_across_threads::<lmfao_core::SnapshotHandle>();
/// ```
///
/// Invariant: the published pointer is `Arc::as_ptr` of the cell's owned
/// current value, and a superseded value stays on the cell's retired list,
/// holding a strong count, while some slot announces its pointer. That is
/// what makes `load`'s one `unsafe` block sound; the unit test
/// `an_announced_generation_outlives_publications_until_its_slot_clears`
/// fails if `publish` ignores the slots.
pub struct SnapshotHandle {
    cell: Arc<PublicationCell>,
    slot: Arc<Slot>,
    /// `!Sync` marker: one hazard slot serves one thread at a time.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

/// State shared by every handle of one cell.
struct PublicationCell {
    /// `Arc::as_ptr` of `owned.current`; never null.
    current: AtomicPtr<ViewSnapshot>,
    /// The cell's strong counts: the published value and the superseded
    /// values some slot still announced at the last publication.
    owned: Mutex<Owned>,
    /// Every handle's slot, claimed or free; reused as handles come and go,
    /// so the registry is bounded by the peak number of live handles.
    slots: Mutex<Vec<Arc<Slot>>>,
}

struct Owned {
    current: Arc<ViewSnapshot>,
    retired: Vec<Arc<ViewSnapshot>>,
}

/// One handle's hazard slot: the pointer its owner is in the middle of
/// acquiring, or null when idle. 128 bytes is two cache lines, the pair the
/// adjacent-line prefetcher moves together (see [`SnapshotHandle`]).
#[repr(align(128))]
struct Slot {
    protected: AtomicPtr<ViewSnapshot>,
    claimed: AtomicBool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SnapshotHandle {
    fn new(initial: Arc<ViewSnapshot>) -> Self {
        let cell = Arc::new(PublicationCell {
            current: AtomicPtr::new(Arc::as_ptr(&initial).cast_mut()),
            owned: Mutex::new(Owned {
                current: initial,
                retired: Vec::new(),
            }),
            slots: Mutex::new(Vec::new()),
        });
        Self::with_slot(cell)
    }

    /// A handle over `cell` owning a released slot, or a new one.
    fn with_slot(cell: Arc<PublicationCell>) -> Self {
        let mut slots = lock(&cell.slots);
        let free = slots
            .iter()
            .find(|s| !s.claimed.swap(true, Ordering::SeqCst));
        let slot = free.cloned().unwrap_or_else(|| {
            let slot = Arc::new(Slot {
                protected: AtomicPtr::new(ptr::null_mut()),
                claimed: AtomicBool::new(true),
            });
            slots.push(Arc::clone(&slot));
            slot
        });
        drop(slots);
        SnapshotHandle {
            cell,
            slot,
            _not_sync: PhantomData,
        }
    }

    /// The latest published generation. The returned `Arc` pins that
    /// generation: it stays valid and immutable regardless of how many
    /// generations are published afterwards.
    ///
    /// Lock-free (the hazard-pointer handshake): read the pointer, announce
    /// it in this handle's slot, then re-read the cell. The only retry is a
    /// publication swapping the pointer between the two reads, so a retry
    /// implies system-wide progress.
    #[allow(unsafe_code)]
    pub fn load(&self) -> Arc<ViewSnapshot> {
        loop {
            let p = self.cell.current.load(Ordering::Acquire);
            self.slot.protected.store(p, Ordering::SeqCst);
            if self.cell.current.load(Ordering::SeqCst) == p {
                // SAFETY: `p` came from `Arc::as_ptr` of a value the cell
                // owned, and the cell still holds a strong count on it. The
                // announcement above precedes the validating read in the
                // SeqCst order, and the validating read saw `p` still
                // published, so it precedes the store of any `publish` that
                // retires `p`; that `publish` then scans the slots after the
                // announcement, sees `p` and keeps it on `owned.retired`.
                // The count is ours before the slot clears below. (A later
                // value reusing `p`'s address is published, hence owned.)
                let snapshot = unsafe {
                    Arc::increment_strong_count(p);
                    Arc::from_raw(p)
                };
                self.slot
                    .protected
                    .store(ptr::null_mut(), Ordering::Release);
                return snapshot;
            }
        }
    }

    /// Generation number of the latest published snapshot.
    pub fn generation(&self) -> u64 {
        self.load().generation
    }

    /// Publishes `next`, retires the superseded value, and releases every
    /// retired value no slot announces. Only the writer takes these locks.
    fn publish(&self, next: Arc<ViewSnapshot>) {
        let mut owned = lock(&self.cell.owned);
        self.cell
            .current
            .store(Arc::as_ptr(&next).cast_mut(), Ordering::SeqCst);
        let old = std::mem::replace(&mut owned.current, next);
        owned.retired.push(old);
        let slots = lock(&self.cell.slots);
        owned.retired.retain(|r| {
            let p = Arc::as_ptr(r).cast_mut();
            slots
                .iter()
                .any(|s| s.protected.load(Ordering::SeqCst) == p)
        });
    }
}

impl Clone for SnapshotHandle {
    /// A new handle over the same cell with its own hazard slot (reusing a
    /// released one when available).
    fn clone(&self) -> Self {
        Self::with_slot(Arc::clone(&self.cell))
    }
}

impl Drop for SnapshotHandle {
    fn drop(&mut self) {
        self.slot.protected.store(ptr::null_mut(), Ordering::SeqCst);
        self.slot.claimed.store(false, Ordering::SeqCst);
    }
}

impl fmt::Debug for SnapshotHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotHandle")
            .field("generation", &self.generation())
            .finish_non_exhaustive()
    }
}

/// The single writer of a served batch: stages each commit against its
/// current generation and publishes the refreshed generation through its
/// [`SnapshotHandle`].
///
/// Built with [`PreparedBatch::into_serving`]. One owner that both commits
/// and reads can answer from [`Maintainer::snapshot`]; readers on other
/// threads hold clones of the [`Maintainer::handle`], never the maintainer —
/// it is deliberately not `Sync`, there is exactly one writer.
#[derive(Debug)]
pub struct Maintainer {
    /// The plans the batch was prepared with.
    pub(crate) inner: Arc<PreparedPlans>,
    /// The latest published generation — the same `Arc` the cell publishes.
    /// Its database and view map are what the next commit stages against
    /// copy-on-write; it changes only at publication.
    pub(crate) current: Arc<ViewSnapshot>,
    /// The shadow ledger: per-view fixed-point aggregate totals carried
    /// exactly from generation to generation (`after = before + net`, in
    /// `i128`). Emitting certificate totals from this ledger — instead of
    /// re-encoding the merged `f64` state — is what makes the checker's
    /// accounting identities exact.
    pub(crate) shadow: FxHashMap<ViewId, Vec<i128>>,
    /// Fingerprint of the last emitted certificate; the next maintenance
    /// certificate records it as `parent_hash`.
    pub(crate) last_fingerprint: u64,
    /// The publication cell shared with every reader.
    handle: SnapshotHandle,
}

impl PreparedBatch {
    /// Executes the batch once, retains every computed view, publishes the
    /// result as generation 0 and returns the [`Maintainer`] whose
    /// [`SnapshotHandle`] serves it.
    ///
    /// Generation 0 shares every relation with the batch's database; a
    /// commit copies only the relations it changes.
    pub fn into_serving(self, dynamics: &DynamicRegistry) -> Result<Maintainer, EngineError> {
        let db = self.db.database().clone();
        let inner = Arc::clone(&self.inner);
        // Initial full computation. Its morsel-order merge is deterministic
        // for any thread count, so the published generation 0 does not depend
        // on thread timing.
        let flat = execute_all(&db, &inner.plans, &inner.grouping, dynamics, &inner.config)?;
        let computed: FxHashMap<ViewId, Arc<ComputedView>> =
            flat.into_iter().map(|(k, v)| (k, Arc::new(v))).collect();
        let results = project_results(&inner, &computed)?;

        // Seed the shadow ledger and emit the chain root: an `Execute`
        // certificate whose view totals the ledger starts from.
        let shadow: FxHashMap<ViewId, Vec<i128>> = computed
            .iter()
            .map(|(vid, cv)| (*vid, encoded_totals(cv)))
            .collect();
        let certificate = emit_execute(
            &inner,
            |name| db.relation(name).map(|r| r.len() as u64).unwrap_or(0),
            &computed,
            0,
            &results,
        )?;
        let last_fingerprint = fingerprint(&certificate);

        let current = Arc::new(ViewSnapshot {
            generation: 0,
            txn: 0,
            db,
            computed,
            results,
            inner: Arc::clone(&inner),
            certificate: Arc::new(certificate),
        });
        Ok(Maintainer {
            inner,
            handle: SnapshotHandle::new(Arc::clone(&current)),
            current,
            shadow,
            last_fingerprint,
        })
    }
}

impl Maintainer {
    /// The publication cell. Clone it into every reader thread.
    pub fn handle(&self) -> SnapshotHandle {
        self.handle.clone()
    }

    /// The latest published snapshot (the generation
    /// `self.handle().load()` returns).
    pub fn snapshot(&self) -> Arc<ViewSnapshot> {
        Arc::clone(&self.current)
    }

    /// Generation of the latest published snapshot.
    pub fn generation(&self) -> u64 {
        self.current.generation
    }

    /// The database state of the latest published generation (reflects
    /// every committed delta).
    pub fn database(&self) -> &Database {
        &self.current.db
    }

    /// The retained result of a view, if it exists in the catalog.
    pub fn view_state(&self, id: ViewId) -> Option<&ComputedView> {
        self.current.view_state(id)
    }

    /// The groups a delta against `relation` would touch (seed groups plus
    /// transitive dependents), in refresh order.
    pub fn affected_groups(&self, relation: &str) -> Vec<usize> {
        let seeds: Vec<usize> = self
            .inner
            .plans
            .iter()
            .enumerate()
            .filter(|(_, p)| p.relation == relation)
            .map(|(g, _)| g)
            .collect();
        self.inner.grouping.transitive_dependents(&seeds)
    }

    /// Number of generations the publication cell owns: the current one
    /// plus the superseded ones some slot still announced at the last
    /// publication (at most one per live handle).
    pub fn retained_generations(&self) -> usize {
        1 + lock(&self.handle.cell.owned).retired.len()
    }

    /// Approximate bytes of relation and view storage reachable from the
    /// generations the publication cell owns, deduplicated by storage
    /// pointer — copy-on-write shares unchanged relations and views across
    /// generations, and shared storage counts once.
    pub fn retained_bytes(&self) -> usize {
        let owned = lock(&self.handle.cell.owned);
        let mut seen: FxHashSet<usize> = FxHashSet::default();
        let mut bytes = 0usize;
        for snap in std::iter::once(&owned.current).chain(&owned.retired) {
            for rel in snap.db.relations() {
                if seen.insert(rel as *const Relation as usize) {
                    bytes += rel.size_bytes();
                }
            }
            for cv in snap.computed.values() {
                if seen.insert(Arc::as_ptr(cv) as usize) {
                    bytes += cv.size_bytes();
                }
            }
        }
        bytes
    }

    /// Publishes `next` and its shadow ledger, both staged by
    /// [`Maintainer::commit`], as the current generation. The only place the
    /// maintainer's state changes, so a commit that fails earlier leaves it
    /// untouched.
    pub(crate) fn publish(&mut self, next: ViewSnapshot, shadow: FxHashMap<ViewId, Vec<i128>>) {
        self.last_fingerprint = fingerprint(&next.certificate);
        self.shadow = shadow;
        self.current = Arc::new(next);
        self.handle.publish(Arc::clone(&self.current));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::Engine;
    use lmfao_data::{AttrId, AttrType, DatabaseSchema, RelationSchema, TableDelta, Value};
    use lmfao_expr::{Aggregate, QueryBatch};
    use lmfao_jointree::{build_join_tree, Hypergraph};

    fn db_and_tree() -> (Database, JoinTree) {
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
        let ids: Vec<AttrId> = ["store", "item", "units", "price"]
            .iter()
            .map(|n| schema.attr_id(n).unwrap())
            .collect();
        let sales = lmfao_data::Relation::from_rows(
            RelationSchema::new("Sales", vec![ids[0], ids[1], ids[2]]),
            (0..40)
                .map(|i| {
                    vec![
                        Value::Int(i % 5),
                        Value::Int(i % 7),
                        Value::Double((i % 11) as f64),
                    ]
                })
                .collect(),
        )
        .unwrap();
        let items = lmfao_data::Relation::from_rows(
            RelationSchema::new("Items", vec![ids[1], ids[3]]),
            (0..7)
                .map(|i| vec![Value::Int(i), Value::Double((3 * (i + 1)) as f64)])
                .collect(),
        )
        .unwrap();
        let db = Database::new(schema.clone(), vec![sales, items]).unwrap();
        let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
        (db, tree)
    }

    fn batch(db: &Database) -> QueryBatch {
        let store = db.schema().attr_id("store").unwrap();
        let units = db.schema().attr_id("units").unwrap();
        let price = db.schema().attr_id("price").unwrap();
        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push("rev", vec![], vec![Aggregate::sum_product(units, price)]);
        batch.push(
            "per_store",
            vec![store],
            vec![Aggregate::sum(units), Aggregate::count()],
        );
        batch
    }

    fn serving(db: &Database, tree: &JoinTree) -> Maintainer {
        Engine::new(db.clone(), tree.clone(), EngineConfig::default())
            .prepare(&batch(db))
            .unwrap()
            .into_serving(&DynamicRegistry::new())
            .unwrap()
    }

    fn sales_insert(db: &Database, store: i64, item: i64, units: f64) -> TableDelta {
        let mut d = TableDelta::for_relation(db.relation("Sales").unwrap());
        d.insert(&[Value::Int(store), Value::Int(item), Value::Double(units)])
            .unwrap();
        d
    }

    #[test]
    fn generation_zero_is_published_on_build() {
        let (db, tree) = db_and_tree();
        let prepared = Engine::new(db.clone(), tree, EngineConfig::default())
            .prepare(&batch(&db))
            .unwrap();
        let maintainer = prepared
            .clone()
            .into_serving(&DynamicRegistry::new())
            .unwrap();
        for rel in ["Sales", "Items"] {
            assert!(maintainer
                .database()
                .shares_relation_with(prepared.database(), rel));
        }
        let snap = maintainer.snapshot();
        assert_eq!(snap.generation(), 0);
        assert_eq!(maintainer.generation(), 0);
        assert_eq!(snap.query("count").unwrap().scalar()[0], 40.0);
        assert!(matches!(
            snap.query("nope"),
            Err(EngineError::UnknownQuery(_))
        ));
    }

    #[test]
    fn materialize_round_trips() {
        // Taking a generation's database out as an owned `Database` (what
        // the recompute referees do) keeps its rows and statistics and
        // copies no relation.
        let (db, tree) = db_and_tree();
        let mut maintainer = serving(&db, &tree);
        let gen0 = maintainer.snapshot();
        let back = gen0.database().clone();
        assert_eq!(back.total_tuples(), db.total_tuples());
        assert_eq!(
            back.statistics().relation_size("Sales"),
            db.statistics().relation_size("Sales")
        );
        assert!(back.relation("T").is_err());
        assert_eq!(back.relations().iter().count(), 2);
        for rel in ["Sales", "Items"] {
            assert!(back.shares_relation_with(gen0.database(), rel));
        }
        maintainer
            .commit(sales_insert(&db, 1, 1, 2.0), &DynamicRegistry::new())
            .unwrap();
        let later = maintainer.snapshot().database().clone();
        assert_eq!(later.total_tuples(), db.total_tuples() + 1);
        assert_eq!(back.total_tuples(), db.total_tuples());
        assert!(later.shares_relation_with(&back, "Items"));
    }

    #[test]
    fn generation_accessors_label_handle_and_pinned_snapshots() {
        let (db, tree) = db_and_tree();
        let mut maintainer = serving(&db, &tree);
        let dynamics = DynamicRegistry::new();
        let handle = maintainer.handle();
        assert_eq!(handle.generation(), 0);
        assert_eq!(handle.load().generation(), 0);
        maintainer
            .commit(sales_insert(&db, 1, 1, 2.0), &dynamics)
            .unwrap();
        let pinned = handle.load();
        assert_eq!(handle.generation(), 1);
        assert_eq!(pinned.generation(), 1);
        maintainer
            .commit(sales_insert(&db, 2, 2, 4.0), &dynamics)
            .unwrap();
        // The handle tracks the latest publication; a pinned snapshot keeps
        // its own label.
        assert_eq!(handle.generation(), 2);
        assert_eq!(pinned.generation(), 1);
        assert_eq!(maintainer.generation(), 2);
    }

    #[test]
    fn an_announced_generation_outlives_publications_until_its_slot_clears() {
        let (db, tree) = db_and_tree();
        let mut maintainer = serving(&db, &tree);
        let dynamics = DynamicRegistry::new();
        let reader = maintainer.handle();
        let gen0 = maintainer.snapshot();
        let mut weaks = vec![Arc::downgrade(&gen0)];
        // The reader stopped mid-acquire: generation 0 is announced in its
        // slot, validated, but its strong count not yet bumped.
        reader
            .slot
            .protected
            .store(Arc::as_ptr(&gen0).cast_mut(), Ordering::SeqCst);
        drop(gen0);
        for i in 0..3 {
            maintainer
                .commit(sales_insert(&db, i, i, 1.0), &dynamics)
                .unwrap();
            weaks.push(Arc::downgrade(&maintainer.snapshot()));
        }
        // Neither the maintainer nor any reader holds generation 0: only the
        // cell's retired list keeps it for the announcing slot.
        assert!(weaks[0].upgrade().is_some(), "announced generation freed");
        assert!(weaks[1].upgrade().is_none(), "unannounced generation kept");
        reader
            .slot
            .protected
            .store(ptr::null_mut(), Ordering::SeqCst);
        maintainer
            .commit(sales_insert(&db, 3, 3, 1.0), &dynamics)
            .unwrap();
        assert!(weaks[0].upgrade().is_none(), "released once unannounced");
        weaks.push(Arc::downgrade(&maintainer.snapshot()));
        drop(reader);
        drop(maintainer);
        assert!(
            weaks.iter().all(|w| w.upgrade().is_none()),
            "nothing outlives the maintainer and its handles"
        );
    }

    #[test]
    fn certificates_chain_across_generations_and_survive_json() {
        let (db, tree) = db_and_tree();
        let mut maintainer = serving(&db, &tree);
        let dynamics = DynamicRegistry::new();
        let mut chain = vec![Arc::clone(maintainer.snapshot().certificate())];
        // Inserts, a dimension update and a deletion: seed accounting with
        // both partitions plus DAG propagation all land in the chain.
        for i in 0..3 {
            maintainer
                .commit(sales_insert(&db, i, i, (i * 2) as f64), &dynamics)
                .unwrap();
            chain.push(Arc::clone(maintainer.snapshot().certificate()));
        }
        let mut reprice = TableDelta::for_relation(db.relation("Items").unwrap());
        reprice
            .delete(&[Value::Int(2), Value::Double(9.0)])
            .unwrap();
        reprice
            .insert(&[Value::Int(2), Value::Double(21.0)])
            .unwrap();
        maintainer.commit(&reprice, &dynamics).unwrap();
        chain.push(Arc::clone(maintainer.snapshot().certificate()));

        let summary = lmfao_certify::check_chain(chain.iter().map(|c| &**c)).unwrap();
        assert_eq!(summary.certificates, 5);
        assert_eq!(summary.final_generation, 4);
        assert!(summary.views_tracked > 0);

        // The chain must also survive serialization: parse back every
        // certificate and re-check (fingerprints hash the canonical JSON, so
        // a round-trip that altered anything would break the linkage).
        let parsed: Vec<lmfao_certify::Certificate> = chain
            .iter()
            .map(|c| lmfao_certify::parse_certificate(&lmfao_certify::to_json(c)).unwrap())
            .collect();
        let re_summary = lmfao_certify::check_chain(parsed.iter()).unwrap();
        assert_eq!(re_summary, summary);
    }

    #[test]
    fn pinned_generations_survive_later_publications() {
        let (db, tree) = db_and_tree();
        let mut maintainer = serving(&db, &tree);
        let dynamics = DynamicRegistry::new();
        let gen0 = maintainer.handle().load();
        let count0 = gen0.query("count").unwrap().scalar()[0];
        for i in 0..3 {
            maintainer
                .commit(sales_insert(&db, i, i, 10.0), &dynamics)
                .unwrap();
        }
        let gen3 = maintainer.handle().load();
        assert_eq!(gen3.generation(), 3);
        assert_eq!(gen3.query("count").unwrap().scalar()[0], count0 + 3.0);
        // The pinned generation still answers with its own state.
        assert_eq!(gen0.generation(), 0);
        assert_eq!(gen0.query("count").unwrap().scalar()[0], count0);
        assert_eq!(gen0.database().relation("Sales").unwrap().len(), 40);
        assert_eq!(gen3.database().relation("Sales").unwrap().len(), 43);
    }

    #[test]
    fn refresh_copies_only_the_frontier() {
        let (db, tree) = db_and_tree();
        let mut maintainer = serving(&db, &tree);
        let before = maintainer.snapshot();
        // A Sales delta leaves the Items→Sales view (computed at the Items
        // node) off the frontier: its state must stay shared between the
        // generations, while frontier views are copied.
        let stats = maintainer
            .commit(sales_insert(&db, 1, 3, 9.0), &DynamicRegistry::new())
            .unwrap();
        let after = maintainer.snapshot();
        assert!(stats.views_changed > 0);
        let items_plan_views: Vec<ViewId> = maintainer
            .inner
            .plans
            .iter()
            .filter(|p| p.relation == "Items")
            .flat_map(|p| p.outputs.iter().map(|o| o.view))
            .collect();
        assert!(!items_plan_views.is_empty());
        for vid in items_plan_views {
            assert!(
                before.shares_view_with(&after, vid),
                "off-frontier view {vid:?} must stay shared"
            );
        }
        // Base data: Items is shared, Sales was copied.
        assert!(before
            .database()
            .shares_relation_with(after.database(), "Items"));
        assert!(!before
            .database()
            .shares_relation_with(after.database(), "Sales"));
    }

    #[test]
    fn published_results_match_a_recompute_at_each_generation() {
        let (db, tree) = db_and_tree();
        let b = batch(&db);
        let mut maintainer = serving(&db, &tree);
        let dynamics = DynamicRegistry::new();
        let mut pinned = vec![maintainer.snapshot()];
        for i in 0..4 {
            maintainer
                .commit(sales_insert(&db, i % 5, i % 7, (i * 3) as f64), &dynamics)
                .unwrap();
            pinned.push(maintainer.snapshot());
        }
        for (g, snap) in pinned.iter().enumerate() {
            assert_eq!(snap.generation(), g as u64);
            let fresh = Engine::new(
                snap.database().clone(),
                snap.join_tree().clone(),
                *snap.config(),
            )
            .execute(&b)
            .unwrap();
            for (got, want) in snap.results().queries.iter().zip(&fresh.queries) {
                assert_eq!(got.data, want.data, "generation {g}, query {}", got.name);
            }
        }
    }

    #[test]
    fn failed_apply_publishes_nothing() {
        let (db, tree) = db_and_tree();
        let mut maintainer = serving(&db, &tree);
        let gen0 = maintainer.snapshot();
        let mut bad = TableDelta::for_relation(db.relation("Sales").unwrap());
        bad.delete(&[Value::Int(99), Value::Int(99), Value::Double(99.0)])
            .unwrap();
        assert!(maintainer.commit(&bad, &DynamicRegistry::new()).is_err());
        let still = maintainer.snapshot();
        assert_eq!(still.generation(), 0);
        assert!(Arc::ptr_eq(&gen0, &still), "same snapshot object");
        assert_eq!(maintainer.database().relation("Sales").unwrap().len(), 40);
    }

    #[test]
    fn long_cancelling_stream_leaves_state_identical_to_a_fresh_build() {
        // The float-drift regression: 10k updates that net to zero. Without
        // residue snapping, float reassociation can leave ~n·ulp ghosts that
        // exact-zero pruning never drops; with it, the retained state must
        // match a fresh build key-for-key (counts exactly, floats within the
        // documented 1e-9 relative tolerance).
        let (db, tree) = db_and_tree();
        let mut maintainer = serving(&db, &tree);
        let dynamics = DynamicRegistry::new();
        let fresh_maintainer = serving(&db, &tree);
        let fresh = fresh_maintainer.snapshot();

        // 10k alternating inserts/deletes of a tuple with a non-dyadic
        // measure (0.3 is not exactly representable: maximal rounding
        // mischief), one publication per update.
        let row = [Value::Int(2), Value::Int(3), Value::Double(0.3)];
        for i in 0..10_000 {
            let mut d = TableDelta::for_relation(db.relation("Sales").unwrap());
            if i % 2 == 0 {
                d.insert(&row).unwrap();
            } else {
                d.delete(&row).unwrap();
            }
            maintainer.commit(&d, &dynamics).unwrap();
        }
        assert_eq!(maintainer.generation(), 10_000);

        let snap = maintainer.snapshot();
        assert_eq!(
            snap.database().relation("Sales").unwrap().len(),
            40,
            "stream nets to zero tuples"
        );
        for (got, want) in snap.results().queries.iter().zip(&fresh.results().queries) {
            assert_eq!(
                got.data.len(),
                want.data.len(),
                "query {}: ghost keys survived the cancelling stream",
                got.name
            );
            for (key, wv) in &want.data {
                let gv = got.data.get(key).unwrap_or_else(|| {
                    panic!("query {}: key {key:?} missing after stream", got.name)
                });
                for (g, w) in gv.iter().zip(wv) {
                    assert!(
                        (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                        "query {}: {g} vs {w}",
                        got.name
                    );
                }
            }
        }
    }
}
