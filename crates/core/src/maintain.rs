//! Incremental view maintenance: committing transactions against retained
//! view state.
//!
//! A [`crate::prepared::PreparedBatch`] replays its plans against frozen
//! data. [`PreparedBatch::into_serving`](crate::prepared::PreparedBatch::into_serving)
//! goes one step further and turns the batch into *live materialized state*:
//! the [`Maintainer`] retains every [`ComputedView`] of every group, and
//! when the base relations receive a [`Transaction`] — an atomic set of
//! signed [`TableDelta`](lmfao_data::TableDelta)s (inserts + deletes), one
//! per touched relation — [`Maintainer::commit`] refreshes the state with
//! work proportional to the deltas — the dynamic-evaluation setting of
//! Berkholz et al. ("Answering FO+MOD queries under updates") brought to
//! LMFAO's view trees. This module is the write path; publication of the
//! refreshed state as immutable generations lives in [`crate::snapshot`].
//!
//! The refresh exploits two structural properties of the engine:
//!
//! 1. **Additive merges.** Every view aggregate is a sum over the scanned
//!    tuples, which is why [`crate::exec::execute_group`] can already run
//!    over arbitrary row partitions and merge partials by addition. A delta
//!    partition (the inserted or deleted rows, sorted into trie order) is
//!    just another partition: scanning it yields exactly the view delta, with
//!    deletions contributing through a signed merge
//!    ([`ComputedView::merge_signed`]).
//! 2. **Multilinearity in incoming views.** Each product term of a view
//!    references each child view at most once, so replacing a changed
//!    incoming view's payload by its *delta* payload — while unchanged views
//!    keep their retained results — computes exactly that term's output
//!    delta. Terms that reference no changed view contribute nothing and are
//!    masked out (their partial-product register is zeroed before the scan),
//!    and a row whose key misses every changed view's delta contributes
//!    nothing either — so a downstream scan reads only the rows whose keys
//!    hit a delta (the crate-internal `overlay` module has the argument).
//!
//! Propagation therefore walks the group-dependency DAG once per committed
//! transaction: groups scanning a changed relation re-scan only that
//! relation's delta partitions; groups downstream scan, with delta-overlaid
//! probes and masked terms, only the rows of their relation that join the
//! changed keys (work Σ degree of the changed keys, reported as
//! [`RefreshStats::rows_scanned`]); every other group is untouched
//! ([`crate::group::Grouping::transitive_dependents`]). A transaction
//! touching several relations unions the refresh frontiers and still visits
//! each group **once**: a group's change splits exactly into a seed
//! contribution (its relation's delta against the old incoming views) plus a
//! propagation contribution (the incoming-view deltas against the updated
//! relation), and the rare term that multiplies two changed views together
//! is handled by an exact telescoped substitution (the crate-internal
//! `overlay` module holds that algebra).
//!
//! # The frontier walk
//!
//! The walk is a plain loop on the writer's thread over the affected groups
//! in topological order ([`crate::group::Grouping::transitive_dependents`]):
//! a group reads the view deltas its upstream groups left behind, and a
//! group nothing reached is skipped without a scan. The per-group outputs
//! fold in group order once the walk is over. The work of a commit is
//! bounded by the delta and the degree of its keys, not by parallel width,
//! so the walk does not use the scheduler of fresh execution
//! ([`crate::parallel`]): [`EngineConfig::threads`](crate::EngineConfig::threads)
//! governs execution only. The published state, the certificate and the
//! [`RefreshStats`] are therefore identical at every thread count, and a
//! panic inside a refresh scan surfaces as [`EngineError::WorkerPanicked`]
//! with nothing published.
//!
//! Floating-point caveat: refreshed sums are mathematically identical to a
//! full recompute but may differ in the last ulp, because float addition is
//! not associative (`(a + b) − b` need not bit-equal `a`). Integer-valued
//! aggregates (counts, sums of integers within 2⁵³) are exact, and residues
//! that are zero up to rounding are snapped to exact zero
//! ([`ComputedView::merge_signed_snapped`]) so cancelling streams prune
//! their dead keys.

use crate::certificate::encoded_totals;
use crate::error::EngineError;
use crate::group::Grouping;
use crate::overlay::{propagate, scan_partition};
use crate::plan::GroupPlan;
use crate::prepared::project_results;
use crate::sched::panic_message;
use crate::snapshot::{Maintainer, ViewSnapshot};
use crate::view::{ComputedView, ViewId, ViewSource};
use lmfao_certify::{
    Certificate, MaintenanceCertificate, QueryTotals, RelationDeltaAccount, ViewDeltaAccount,
    CERTIFICATE_VERSION,
};
use lmfao_data::{Database, FxHashMap, Relation, Transaction};
use lmfao_expr::DynamicRegistry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// What one [`Maintainer::commit`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Rows across the transaction's deltas (inserts + deletes).
    pub delta_rows: usize,
    /// Distinct base relations the transaction changed.
    pub relations_changed: usize,
    /// Groups re-scanned over delta partitions (they scan a changed relation
    /// itself; a group both seeded and propagated counts here only).
    pub seed_groups: usize,
    /// Downstream groups re-scanned with delta-overlaid incoming views only.
    pub propagated_groups: usize,
    /// Groups left untouched because nothing they depend on changed.
    pub skipped_groups: usize,
    /// Views whose retained state actually changed.
    pub views_changed: usize,
    /// Physical group scans executed (delta-partition scans plus overlay
    /// scans). The probe that makes "one DAG walk per transaction"
    /// measurable: committing a multi-relation transaction runs strictly
    /// fewer scans than applying its deltas one at a time.
    pub group_scans: usize,
    /// Rows fed to those scans: the delta partitions' rows plus, per
    /// propagation scan, the rows whose keys hit a changed view's delta (the
    /// whole relation only when a changed view has no key the relation
    /// binds). The work a commit does, as a function of the delta and the
    /// degree of its keys rather than of relation sizes.
    pub rows_scanned: usize,
}

/// One output view's share of a group refresh.
struct ViewRefresh {
    view: ViewId,
    /// The view's merged signed delta (possibly empty: the view did not
    /// change).
    delta: ComputedView,
    /// Encoded (inserted, deleted) totals of the seed scans — the two signed
    /// halves the maintenance certificate accounts separately. Captured per
    /// scan, before any merge ("sums of encodings, never encodings of
    /// sums").
    seed: Option<(Vec<i128>, Vec<i128>)>,
    /// Summed encoded totals of the propagation scans.
    propagated: Option<Vec<i128>>,
}

/// The private output of one group's refresh: everything the commit folds
/// into the maintainer once the walk is over.
struct GroupRefresh {
    /// True when the group's own relation changed (a seed refresh), false
    /// for a purely propagated one.
    seeded: bool,
    /// Delta scans the group executed.
    scans: usize,
    /// Rows those scans read.
    rows_scanned: usize,
    /// One entry per output view, in plan output order.
    views: Vec<ViewRefresh>,
}

/// Resolves a view to the non-empty signed delta its producing group left
/// during this walk. An empty delta means the view did not change: reading
/// it as absent lets downstream groups skip entirely.
struct UpstreamDeltas<'a> {
    grouping: &'a Grouping,
    /// The walk's outcomes so far, indexed by group.
    outcomes: &'a [Option<GroupRefresh>],
}

impl ViewSource for UpstreamDeltas<'_> {
    fn view_result(&self, id: ViewId) -> Option<&ComputedView> {
        let producer = *self.grouping.group_of_view.get(&id)?;
        let refreshed = self.outcomes.get(producer)?.as_ref()?;
        let delta = &refreshed.views.iter().find(|v| v.view == id)?.delta;
        (!delta.is_empty()).then_some(delta)
    }
}

impl Maintainer {
    /// Commits a transaction: applies every per-relation delta atomically,
    /// refreshes the **union** of the affected refresh frontiers in one
    /// dependency-ordered DAG walk, and publishes exactly one generation.
    /// A bare [`TableDelta`](lmfao_data::TableDelta) commits as a single-relation transaction via
    /// `Into<Transaction>`.
    ///
    /// Published results match a full recompute over the updated database
    /// (exactly for integer-valued aggregates; within float-addition
    /// reassociation plus residue snapping otherwise — see the module docs).
    /// Readers keep answering from previously published generations
    /// throughout; they observe all of the transaction's effects or none.
    ///
    /// Typed failures, all before any state changes: an empty transaction is
    /// [`EngineError::EmptyTransaction`] (a commit always publishes — an
    /// empty one would publish a phantom generation), a transaction that
    /// both inserts and deletes one row is
    /// [`EngineError::ConflictingDelta`] (resolve ordered streams with
    /// [`Transaction::coalesce`] or a [`crate::buffer::DeltaBuffer`] first),
    /// an unmatched delete in *any* delta fails the whole transaction, and a
    /// panic inside a refresh scan is [`EngineError::WorkerPanicked`]. The
    /// refresh runs on the calling thread at every thread count.
    pub fn commit(
        &mut self,
        txn: impl Into<Transaction>,
        dynamics: &DynamicRegistry,
    ) -> Result<RefreshStats, EngineError> {
        let txn = txn.into();
        if txn.is_empty() {
            return Err(EngineError::EmptyTransaction);
        }
        if let Some((relation, row)) = txn.conflict() {
            return Err(EngineError::ConflictingDelta { relation, row });
        }
        let mut stats = RefreshStats {
            delta_rows: txn.len(),
            relations_changed: txn.num_relations(),
            ..RefreshStats::default()
        };

        // Stage the database: every delta lands on a private copy-on-write
        // clone of the current generation's, so an unmatched delete in any of
        // them fails before the maintainer's own state changes — the
        // transaction is atomic against the writer, not just against readers.
        let current = &self.current;
        let mut staged_db = current.db.clone();
        let mut relation_accounts = Vec::with_capacity(txn.num_relations());
        for delta in txn.deltas() {
            let rows_before = staged_db
                .relation(delta.relation())
                .map_err(|_| EngineError::UnknownRelation(delta.relation().to_string()))?
                .len() as u64;
            staged_db.apply(delta)?;
            let rows_after = staged_db
                .relation(delta.relation())
                .map_err(|_| EngineError::UnknownRelation(delta.relation().to_string()))?
                .len() as u64;
            relation_accounts.push(RelationDeltaAccount {
                relation: delta.relation().to_string(),
                rows_inserted: delta.num_inserts() as u64,
                rows_deleted: delta.num_deletes() as u64,
                rows_before,
                rows_after,
            });
        }

        // Sort each relation's delta partitions into the trie order of the
        // node that scans it, so the seed scans see valid tries (every group
        // of one relation scans at the same node, hence one order suffices).
        let plans = &self.inner.plans;
        let mut partitions: FxHashMap<&str, (Relation, Relation)> = FxHashMap::default();
        for delta in txn.deltas() {
            let (mut inserts, mut deletes) = delta.partition();
            if let Some(plan) = plans.iter().find(|p| p.relation == delta.relation()) {
                inserts.sort_by_positions(&plan.attr_order_cols);
                deletes.sort_by_positions(&plan.attr_order_cols);
            }
            partitions.insert(delta.relation(), (inserts, deletes));
        }

        // The walk: the affected groups in topological order, on the calling
        // thread. A group reads only the staged database, the retained (old)
        // views and the deltas its producers left in `outcomes`; a group
        // nothing reached stays `None` and is skipped without a scan. A
        // panicking scan becomes a typed error before anything is published.
        let grouping = &self.inner.grouping;
        let seeds: Vec<usize> = (0..plans.len())
            .filter(|&g| partitions.contains_key(plans[g].relation.as_str()))
            .collect();
        let mut outcomes: Vec<Option<GroupRefresh>> = (0..plans.len()).map(|_| None).collect();
        catch_unwind(AssertUnwindSafe(|| {
            for gid in grouping.transitive_dependents(&seeds) {
                let plan = &plans[gid];
                outcomes[gid] = refresh_group(
                    plan,
                    partitions.get(plan.relation.as_str()),
                    &staged_db,
                    &current.computed,
                    &UpstreamDeltas {
                        grouping,
                        outcomes: &outcomes,
                    },
                    dynamics,
                )?;
            }
            Ok(())
        }))
        .unwrap_or_else(|payload| {
            Err(EngineError::WorkerPanicked(panic_message(payload.as_ref())))
        })?;

        // Fold the signed deltas into a staged copy of the current view map,
        // in group order. `Arc::make_mut` is the copy-on-write step: only
        // views on the refresh frontier are copied, and only when a published
        // generation still pins them; the copy goes into the view's spare
        // when no reader holds it, and the pinned view becomes the next
        // commit's spare. Residues that are zero up to rounding
        // snap to exact zero so the pruning below drops keys whose aggregates
        // cancelled. Each fold also settles the view's certificate account:
        // the exact encoded net moves a staged copy of the shadow ledger,
        // never the re-encoded float state.
        let mut computed = current.computed.clone();
        let mut shadow = self.shadow.clone();
        let mut accounts = Vec::new();
        let mut spare = std::mem::take(&mut self.spare);
        for outcome in outcomes {
            let Some(group) = outcome else {
                stats.skipped_groups += 1;
                continue;
            };
            if group.seeded {
                stats.seed_groups += 1;
            } else {
                stats.propagated_groups += 1;
            }
            stats.group_scans += group.scans;
            stats.rows_scanned += group.rows_scanned;
            for ViewRefresh {
                view,
                delta,
                seed,
                propagated,
            } in group.views
            {
                if delta.is_empty() {
                    continue;
                }
                stats.views_changed += 1;
                let rows_before = computed.get(&view).map_or(0, |cv| cv.len() as u64);
                let entry = computed.entry(view).or_insert_with(|| {
                    Arc::new(ComputedView::new(
                        delta.key_attrs.clone(),
                        delta.num_aggregates,
                    ))
                });
                if Arc::get_mut(entry).is_none() {
                    let mut buf = spare.remove(&view);
                    let pinned = match buf.as_mut().and_then(Arc::get_mut) {
                        Some(free) => {
                            free.clone_from(entry);
                            std::mem::replace(entry, buf.expect("a free spare"))
                        }
                        None => Arc::clone(entry),
                    };
                    spare.insert(view, pinned);
                }
                let cv = Arc::make_mut(entry);
                cv.fold_delta(&delta);

                let (inserted, deleted, propagated, net) = match seed {
                    // Seeded views: net is defined as inserted - deleted (+
                    // the propagated component when the same transaction also
                    // changed an incoming view), so the checker's signed
                    // identity holds exactly.
                    Some((ins, del)) => {
                        let net: Vec<i128> = ins
                            .iter()
                            .zip(&del)
                            .enumerate()
                            .map(|(i, (a, b))| a - b + propagated.as_ref().map_or(0, |p| p[i]))
                            .collect();
                        (Some(ins), Some(del), propagated, net)
                    }
                    // Purely propagated views: the net is the sum of the
                    // encoded per-scan totals; the certificate carries no
                    // split.
                    None => {
                        let net = propagated.unwrap_or_else(|| encoded_totals(&delta));
                        (None, None, None, net)
                    }
                };
                let totals_before = shadow
                    .get(&view)
                    .cloned()
                    .unwrap_or_else(|| vec![0; net.len()]);
                let totals_after: Vec<i128> =
                    totals_before.iter().zip(&net).map(|(a, b)| a + b).collect();
                shadow.insert(view, totals_after.clone());
                accounts.push(ViewDeltaAccount {
                    view: view.0 as u32,
                    rows_before,
                    rows_after: cv.len() as u64,
                    inserted,
                    deleted,
                    propagated,
                    net,
                    totals_before,
                    totals_after,
                });
            }
        }
        accounts.sort_by_key(|a| a.view);

        // Project the new results (the last fallible step), emit the chained
        // maintenance certificate and publish the staged state as the next
        // generation. Everything up to here ran on private state; readers
        // observe the new generation — one per transaction — atomically or
        // not at all.
        let results = project_results(&self.inner, &computed)?;
        let (generation, txn) = (current.generation + 1, current.txn + 1);
        let certificate = Certificate::Maintenance(MaintenanceCertificate {
            version: CERTIFICATE_VERSION,
            generation,
            txn,
            parent_generation: current.generation,
            parent_hash: self.last_fingerprint,
            relations: relation_accounts,
            views: accounts,
            queries: self.ledger_query_totals(&computed, &shadow),
        });
        let next = ViewSnapshot {
            generation,
            txn,
            db: staged_db,
            computed,
            results,
            inner: Arc::clone(&self.inner),
            certificate: Arc::new(certificate),
        };
        self.spare = spare;
        self.publish(next, shadow);
        Ok(stats)
    }

    /// Per-query totals of a staged view map, read from its staged shadow
    /// ledger (the chain checker verifies them against the state it tracks
    /// independently from the execute root forward).
    fn ledger_query_totals(
        &self,
        computed: &FxHashMap<ViewId, Arc<ComputedView>>,
        shadow: &FxHashMap<ViewId, Vec<i128>>,
    ) -> Vec<QueryTotals> {
        self.inner
            .queries
            .iter()
            .map(|pq| QueryTotals {
                name: pq.name.clone(),
                view: pq.view.0 as u32,
                rows: computed.get(&pq.view).map_or(0, |cv| cv.len() as u64),
                aggregate_indices: pq.aggregate_indices.iter().map(|&i| i as u32).collect(),
                totals: pq
                    .aggregate_indices
                    .iter()
                    .map(|&i| shadow.get(&pq.view).map_or(0, |t| t[i]))
                    .collect(),
            })
            .collect()
    }
}

/// Refreshes one group: the seed contribution of its relation's delta
/// partitions plus the propagation of upstream view deltas, or `None` when
/// neither reaches it (the group is skipped without a scan). Pure with
/// respect to the maintainer — reads the staged database, the retained (old)
/// views, and the deltas of upstream views; returns everything it produced.
fn refresh_group<D: ViewSource>(
    plan: &GroupPlan,
    seed: Option<&(Relation, Relation)>,
    staged_db: &Database,
    retained: &FxHashMap<ViewId, Arc<ComputedView>>,
    upstream: &D,
    dynamics: &DynamicRegistry,
) -> Result<Option<GroupRefresh>, EngineError> {
    let changed_incoming: Vec<bool> = plan
        .incoming
        .iter()
        .map(|inc| upstream.view_result(inc.view).is_some())
        .collect();
    let propagated = changed_incoming.contains(&true);
    if seed.is_none() && !propagated {
        return Ok(None);
    }
    let mut out = GroupRefresh {
        seeded: seed.is_some(),
        scans: 0,
        rows_scanned: 0,
        views: Vec::new(),
    };

    // Seed contribution: the delta partitions scanned against the retained
    // (old) incoming views.
    if let Some((inserts, deletes)) = seed {
        out.scans += [inserts, deletes]
            .into_iter()
            .filter(|p| !p.is_empty())
            .count();
        out.rows_scanned += inserts.len() + deletes.len();
        let pos = scan_partition(inserts, plan, retained, dynamics)?;
        let neg = scan_partition(deletes, plan, retained, dynamics)?;
        out.views = pos
            .into_iter()
            .zip(neg)
            .map(|((view, mut delta), (nview, d))| {
                debug_assert_eq!(view, nview);
                let seed = Some((encoded_totals(&delta), encoded_totals(&d)));
                delta.merge_signed(&d, -1.0);
                ViewRefresh {
                    view,
                    delta,
                    seed,
                    propagated: None,
                }
            })
            .collect();
    }

    // Propagation contribution: charge the incoming-view deltas against the
    // *updated* relation.
    if propagated {
        let relation = staged_db
            .relation(&plan.relation)
            .map_err(|_| EngineError::UnknownRelation(plan.relation.clone()))?;
        let propagation = propagate(
            plan,
            &changed_incoming,
            relation,
            retained,
            upstream,
            dynamics,
        )?;
        out.scans += propagation.scans.len();
        out.rows_scanned += propagation.rows_scanned;
        for scan in propagation.scans {
            if out.views.is_empty() {
                out.views = scan
                    .into_iter()
                    .map(|(view, delta)| ViewRefresh {
                        view,
                        propagated: Some(encoded_totals(&delta)),
                        delta,
                        seed: None,
                    })
                    .collect();
                continue;
            }
            for (v, (view, d)) in out.views.iter_mut().zip(&scan) {
                debug_assert_eq!(v.view, *view);
                let enc = encoded_totals(d);
                match &mut v.propagated {
                    Some(totals) => totals.iter_mut().zip(&enc).for_each(|(t, e)| *t += e),
                    None => v.propagated = Some(enc),
                }
                v.delta.merge_signed(d, 1.0);
            }
        }
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::{BatchResult, Engine};
    use crate::snapshot::ViewSnapshot;
    use lmfao_data::{
        AttrId, AttrType, Database, DatabaseSchema, Relation, RelationSchema, TableDelta, Value,
    };
    use lmfao_expr::{Aggregate, QueryBatch};
    use lmfao_jointree::{build_join_tree, Hypergraph, JoinTree};

    /// Sales(store, item, units) ⋈ Items(item, price), integer-valued
    /// doubles so every sum is exact and comparisons can be bit-strict.
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
        let sales = Relation::from_rows(
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
        let items = Relation::from_rows(
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
        batch.push("per_price", vec![price], vec![Aggregate::sum(units)]);
        batch
    }

    fn assert_same_results(a: &BatchResult, b: &BatchResult) {
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.name, y.name);
            // Absent keys mean all-zero aggregates; compare value-wise.
            let keys: std::collections::BTreeSet<_> =
                x.data.keys().chain(y.data.keys()).cloned().collect();
            for key in keys {
                let zero = vec![0.0; x.num_aggregates];
                let xv = x.get(&key).unwrap_or(&zero);
                let yv = y.get(&key).unwrap_or(&zero);
                assert_eq!(xv, yv, "query {} key {key:?}", x.name);
            }
        }
    }

    fn recompute(db: &Database, tree: &JoinTree, cfg: EngineConfig, b: &QueryBatch) -> BatchResult {
        Engine::new(db.clone(), tree.clone(), cfg)
            .execute(b)
            .unwrap()
    }

    #[test]
    fn fact_inserts_refresh_to_the_recomputed_result() {
        let (db, tree) = db_and_tree();
        let b = batch(&db);
        for (name, cfg) in EngineConfig::ablation_ladder(2) {
            let engine = Engine::new(db.clone(), tree.clone(), cfg);
            let mut maintained = engine
                .prepare(&b)
                .unwrap()
                .into_serving(&DynamicRegistry::new())
                .unwrap();
            let mut delta = TableDelta::for_relation(db.relation("Sales").unwrap());
            delta
                .insert(&[Value::Int(1), Value::Int(3), Value::Double(100.0)])
                .unwrap();
            delta
                .insert(&[Value::Int(9), Value::Int(2), Value::Double(50.0)])
                .unwrap();
            let stats = maintained.commit(&delta, &DynamicRegistry::new()).unwrap();
            assert!(stats.seed_groups > 0, "{name}");
            let expected = recompute(maintained.database(), &tree, cfg, &b);
            assert_same_results(maintained.snapshot().results(), &expected);
        }
    }

    /// With no reader pinning old generations, a commit copies each view it
    /// changes into the spare the previous commit left behind, and the
    /// results stay those of a recompute.
    #[test]
    fn commits_copy_changed_views_into_the_previous_commits_spares() {
        let (db, tree) = db_and_tree();
        let b = batch(&db);
        let engine = Engine::new(db.clone(), tree.clone(), EngineConfig::default());
        let mut maintained = engine
            .prepare(&b)
            .unwrap()
            .into_serving(&DynamicRegistry::new())
            .unwrap();
        let sale = |i: i64| {
            let mut delta = TableDelta::for_relation(db.relation("Sales").unwrap());
            delta
                .insert(&[
                    Value::Int(i % 5),
                    Value::Int(i % 7),
                    Value::Double(i as f64),
                ])
                .unwrap();
            delta
        };
        maintained.commit(sale(1), &DynamicRegistry::new()).unwrap();
        assert!(!maintained.spare.is_empty());
        let spares: Vec<(ViewId, *const ComputedView)> = maintained
            .spare
            .iter()
            .map(|(&v, cv)| (v, Arc::as_ptr(cv)))
            .collect();
        maintained.commit(sale(2), &DynamicRegistry::new()).unwrap();
        let snapshot = maintained.snapshot();
        for (view, spare) in spares {
            assert_eq!(Arc::as_ptr(&snapshot.computed[&view]), spare, "{view:?}");
        }
        let expected = recompute(maintained.database(), &tree, EngineConfig::default(), &b);
        assert_same_results(snapshot.results(), &expected);
    }

    #[test]
    fn dimension_updates_propagate_through_the_dag() {
        let (db, tree) = db_and_tree();
        let b = batch(&db);
        let engine = Engine::new(db.clone(), tree.clone(), EngineConfig::default());
        let mut maintained = engine
            .prepare(&b)
            .unwrap()
            .into_serving(&DynamicRegistry::new())
            .unwrap();
        // Repricing item 3: delete the old tuple, insert the new one.
        let mut delta = TableDelta::for_relation(db.relation("Items").unwrap());
        delta.delete(&[Value::Int(3), Value::Double(12.0)]).unwrap();
        delta.insert(&[Value::Int(3), Value::Double(40.0)]).unwrap();
        let stats = maintained.commit(&delta, &DynamicRegistry::new()).unwrap();
        assert!(stats.seed_groups > 0);
        let expected = recompute(maintained.database(), &tree, EngineConfig::default(), &b);
        assert_same_results(maintained.snapshot().results(), &expected);
    }

    #[test]
    fn delete_then_reinsert_is_a_no_op() {
        let (db, tree) = db_and_tree();
        let b = batch(&db);
        let engine = Engine::new(db.clone(), tree.clone(), EngineConfig::default());
        let prepared = engine.prepare(&b).unwrap();
        let before = prepared.execute(&DynamicRegistry::new()).unwrap();
        let mut maintained = prepared.into_serving(&DynamicRegistry::new()).unwrap();
        let row = vec![Value::Int(0), Value::Int(0), Value::Double(0.0)];
        let mut del = TableDelta::for_relation(db.relation("Sales").unwrap());
        del.delete(&row).unwrap();
        maintained.commit(&del, &DynamicRegistry::new()).unwrap();
        let mut ins = TableDelta::for_relation(db.relation("Sales").unwrap());
        ins.insert(&row).unwrap();
        maintained.commit(&ins, &DynamicRegistry::new()).unwrap();
        assert_same_results(maintained.snapshot().results(), &before);
    }

    #[test]
    fn unaffected_groups_are_skipped() {
        let (db, tree) = db_and_tree();
        // A batch whose queries root at Sales: the Items→Sales view changes
        // only under Items deltas; a Sales delta must leave the Items group
        // untouched.
        let units = db.schema().attr_id("units").unwrap();
        let price = db.schema().attr_id("price").unwrap();
        let mut b = QueryBatch::new();
        b.push("rev", vec![], vec![Aggregate::sum_product(units, price)]);
        let engine = Engine::new(db.clone(), tree.clone(), EngineConfig::default());
        let mut maintained = engine
            .prepare(&b)
            .unwrap()
            .into_serving(&DynamicRegistry::new())
            .unwrap();
        let affected = maintained.affected_groups("Sales");
        assert!(!affected.is_empty());
        let mut delta = TableDelta::for_relation(db.relation("Sales").unwrap());
        delta
            .insert(&[Value::Int(1), Value::Int(1), Value::Double(2.0)])
            .unwrap();
        let stats = maintained.commit(&delta, &DynamicRegistry::new()).unwrap();
        assert!(stats.skipped_groups > 0, "the Items group must be skipped");
        assert_eq!(
            stats.seed_groups + stats.propagated_groups,
            affected.len(),
            "refreshed groups must equal the exposed frontier"
        );
        let expected = recompute(maintained.database(), &tree, EngineConfig::default(), &b);
        assert_same_results(maintained.snapshot().results(), &expected);
    }

    #[test]
    fn unmatched_delete_fails_atomically() {
        let (db, tree) = db_and_tree();
        let b = batch(&db);
        let engine = Engine::new(db.clone(), tree.clone(), EngineConfig::default());
        let mut maintained = engine
            .prepare(&b)
            .unwrap()
            .into_serving(&DynamicRegistry::new())
            .unwrap();
        let before = maintained.snapshot();
        let mut delta = TableDelta::for_relation(db.relation("Sales").unwrap());
        delta
            .delete(&[Value::Int(77), Value::Int(77), Value::Double(77.0)])
            .unwrap();
        let err = maintained
            .commit(&delta, &DynamicRegistry::new())
            .unwrap_err();
        assert!(matches!(err, EngineError::Data(_)));
        assert_same_results(maintained.snapshot().results(), before.results());
        assert_eq!(maintained.database().relation("Sales").unwrap().len(), 40);
    }

    #[test]
    fn empty_delta_is_a_typed_error() {
        // With the legacy `apply` shim gone, `commit` is the only write
        // entry point and an empty delta is strict: typed error, no phantom
        // generation, state untouched.
        let (db, tree) = db_and_tree();
        let b = batch(&db);
        let engine = Engine::new(db.clone(), tree.clone(), EngineConfig::default());
        let mut maintained = engine
            .prepare(&b)
            .unwrap()
            .into_serving(&DynamicRegistry::new())
            .unwrap();
        let generation_before = maintained.handle().generation();
        let delta = TableDelta::for_relation(db.relation("Sales").unwrap());
        let err = maintained
            .commit(&delta, &DynamicRegistry::new())
            .unwrap_err();
        assert!(matches!(err, EngineError::EmptyTransaction));
        assert_eq!(maintained.handle().generation(), generation_before);
    }

    #[test]
    fn empty_transaction_is_a_typed_error() {
        let (db, tree) = db_and_tree();
        let b = batch(&db);
        let engine = Engine::new(db.clone(), tree, EngineConfig::default());
        let mut maintained = engine
            .prepare(&b)
            .unwrap()
            .into_serving(&DynamicRegistry::new())
            .unwrap();
        let before = maintained.snapshot();
        let err = maintained
            .commit(Transaction::new(), &DynamicRegistry::new())
            .unwrap_err();
        assert!(matches!(err, EngineError::EmptyTransaction));
        assert_same_results(maintained.snapshot().results(), before.results());
        assert_eq!(maintained.snapshot().generation(), 0, "nothing published");
    }

    #[test]
    fn conflicting_delta_is_a_typed_error() {
        let (db, tree) = db_and_tree();
        let b = batch(&db);
        let engine = Engine::new(db.clone(), tree, EngineConfig::default());
        let mut maintained = engine
            .prepare(&b)
            .unwrap()
            .into_serving(&DynamicRegistry::new())
            .unwrap();
        let before = maintained.snapshot();
        let row = vec![Value::Int(0), Value::Int(0), Value::Double(0.0)];
        let mut delta = TableDelta::for_relation(db.relation("Sales").unwrap());
        delta.insert(&row).unwrap();
        delta.delete(&row).unwrap();
        let err = maintained
            .commit(&delta, &DynamicRegistry::new())
            .unwrap_err();
        assert!(
            matches!(err, EngineError::ConflictingDelta { ref relation, .. } if relation == "Sales")
        );
        assert_same_results(maintained.snapshot().results(), before.results());
        assert_eq!(maintained.snapshot().generation(), 0, "nothing published");
    }

    #[test]
    fn multi_relation_transaction_commits_in_one_walk() {
        let (db, tree) = db_and_tree();
        let b = batch(&db);
        let engine = Engine::new(db.clone(), tree.clone(), EngineConfig::default());
        let mut maintained = engine
            .prepare(&b)
            .unwrap()
            .into_serving(&DynamicRegistry::new())
            .unwrap();
        let mut sequential = engine
            .prepare(&b)
            .unwrap()
            .into_serving(&DynamicRegistry::new())
            .unwrap();

        let mut sales = TableDelta::for_relation(db.relation("Sales").unwrap());
        sales
            .insert(&[Value::Int(1), Value::Int(3), Value::Double(100.0)])
            .unwrap();
        sales
            .delete(&[Value::Int(0), Value::Int(0), Value::Double(0.0)])
            .unwrap();
        let mut items = TableDelta::for_relation(db.relation("Items").unwrap());
        items.delete(&[Value::Int(3), Value::Double(12.0)]).unwrap();
        items.insert(&[Value::Int(3), Value::Double(40.0)]).unwrap();

        let txn: Transaction = [sales.clone(), items.clone()].into_iter().collect();
        let stats = maintained.commit(txn, &DynamicRegistry::new()).unwrap();
        assert_eq!(stats.relations_changed, 2);
        assert_eq!(
            maintained.snapshot().generation(),
            1,
            "one generation for the whole transaction"
        );

        // Sequential application of the same deltas publishes two
        // generations and walks the DAG twice; results must match
        // bit-for-bit (integer-valued doubles throughout the fixture).
        let s1 = sequential.commit(&sales, &DynamicRegistry::new()).unwrap();
        let s2 = sequential.commit(&items, &DynamicRegistry::new()).unwrap();
        assert_eq!(sequential.snapshot().generation(), 2);
        // The scan-count probe for "one DAG walk": the transaction visits
        // every group at most once (seed and propagation fused), so it
        // refreshes strictly fewer groups than the two walks combined, and
        // never runs more physical scans.
        let txn_visits = stats.seed_groups + stats.propagated_groups;
        let seq_visits =
            s1.seed_groups + s1.propagated_groups + s2.seed_groups + s2.propagated_groups;
        assert!(
            txn_visits < seq_visits,
            "one DAG walk ({txn_visits} group visits) must beat two ({seq_visits})"
        );
        assert!(
            txn_visits + stats.skipped_groups
                == s1.seed_groups + s1.propagated_groups + s1.skipped_groups,
            "each group is visited or skipped exactly once"
        );
        assert!(
            stats.group_scans <= s1.group_scans + s2.group_scans,
            "one DAG walk ({}) must not out-scan two ({} + {})",
            stats.group_scans,
            s1.group_scans,
            s2.group_scans
        );
        assert_same_results(
            maintained.snapshot().results(),
            sequential.snapshot().results(),
        );
        let expected = recompute(maintained.database(), &tree, EngineConfig::default(), &b);
        assert_same_results(maintained.snapshot().results(), &expected);
    }

    #[test]
    fn results_reflect_the_last_apply() {
        // The stale-read footgun, pinned down: snapshot() is a point-in-time
        // pin — one taken before a commit keeps its old values, one taken
        // after reflects the delta. No other sequence is possible.
        let (db, tree) = db_and_tree();
        let b = batch(&db);
        let engine = Engine::new(db.clone(), tree.clone(), EngineConfig::default());
        let mut maintained = engine
            .prepare(&b)
            .unwrap()
            .into_serving(&DynamicRegistry::new())
            .unwrap();
        let before = maintained.snapshot();
        let mut delta = TableDelta::for_relation(db.relation("Sales").unwrap());
        delta
            .insert(&[Value::Int(1), Value::Int(1), Value::Double(5.0)])
            .unwrap();
        maintained.commit(&delta, &DynamicRegistry::new()).unwrap();
        let after = maintained.snapshot();
        let count = |snap: &ViewSnapshot| snap.query("count").unwrap().scalar()[0];
        assert_eq!(count(&before), 40.0, "old snapshot is old");
        assert_eq!(count(&after), 41.0, "new snapshot is new");
        assert_eq!(
            maintained.snapshot().query("count").unwrap().scalar()[0],
            41.0,
            "by-name lookup reflects the last apply"
        );
    }

    #[test]
    fn query_by_unknown_name_is_a_typed_error() {
        let (db, tree) = db_and_tree();
        let b = batch(&db);
        let engine = Engine::new(db.clone(), tree, EngineConfig::default());
        let maintained = engine
            .prepare(&b)
            .unwrap()
            .into_serving(&DynamicRegistry::new())
            .unwrap();
        assert!(maintained.snapshot().query("count").is_ok());
        let err = maintained.snapshot().query("no_such_query").unwrap_err();
        assert!(matches!(err, EngineError::UnknownQuery(ref n) if n == "no_such_query"));
        assert!(err.to_string().contains("no_such_query"));
    }

    #[test]
    fn old_snapshot_still_answers_after_apply() {
        let (db, tree) = db_and_tree();
        let b = batch(&db);
        let engine = Engine::new(db.clone(), tree, EngineConfig::default());
        let mut maintained = engine
            .prepare(&b)
            .unwrap()
            .into_serving(&DynamicRegistry::new())
            .unwrap();
        let pinned = maintained.snapshot();
        let handle = maintained.handle();
        let mut delta = TableDelta::for_relation(db.relation("Sales").unwrap());
        delta
            .insert(&[Value::Int(2), Value::Int(2), Value::Double(7.0)])
            .unwrap();
        maintained.commit(&delta, &DynamicRegistry::new()).unwrap();
        assert_eq!(pinned.generation(), 0);
        assert_eq!(pinned.query("count").unwrap().scalar()[0], 40.0);
        assert_eq!(handle.generation(), 1);
        assert_eq!(handle.load().query("count").unwrap().scalar()[0], 41.0);
    }

    #[test]
    fn maintained_results_track_a_stream_of_mixed_updates() {
        let (db, tree) = db_and_tree();
        let b = batch(&db);
        let engine = Engine::new(db.clone(), tree.clone(), EngineConfig::default());
        let mut maintained = engine
            .prepare(&b)
            .unwrap()
            .into_serving(&DynamicRegistry::new())
            .unwrap();
        // Alternate fact and dimension updates, checking after every step.
        for step in 0..6i64 {
            let mut delta = if step % 2 == 0 {
                let mut d = TableDelta::for_relation(db.relation("Sales").unwrap());
                d.insert(&[
                    Value::Int(step % 5),
                    Value::Int(step % 7),
                    Value::Double((step * 2) as f64),
                ])
                .unwrap();
                d
            } else {
                let mut d = TableDelta::for_relation(db.relation("Items").unwrap());
                d.insert(&[Value::Int(step % 7), Value::Double((step * 5) as f64)])
                    .unwrap();
                d
            };
            if step == 4 {
                // Also retract the tuple inserted at step 0.
                delta
                    .delete(&[Value::Int(0), Value::Int(0), Value::Double(0.0)])
                    .unwrap();
            }
            maintained.commit(&delta, &DynamicRegistry::new()).unwrap();
            let expected = recompute(maintained.database(), &tree, EngineConfig::default(), &b);
            assert_same_results(maintained.snapshot().results(), &expected);
        }
    }

    #[test]
    fn a_panicking_frontier_worker_is_a_typed_error_and_publishes_nothing() {
        use lmfao_expr::{ProductTerm, ScalarFunction};

        let (db, tree) = db_and_tree();
        let units = db.schema().attr_id("units").unwrap();
        let mut b = batch(&db);
        b.push(
            "dyn_units",
            vec![],
            vec![Aggregate::product(ProductTerm::single(
                ScalarFunction::Dynamic {
                    id: 0,
                    attrs: vec![units],
                },
            ))],
        );
        let mut benign = DynamicRegistry::new();
        benign.register(|args| args[0].as_f64());
        let mut panicking = DynamicRegistry::new();
        panicking.register(|_| panic!("dynamic boom"));

        // A two-relation transaction: a multi-group frontier, refreshed on
        // the writer's thread whatever the engine's thread count.
        let mut sales = TableDelta::for_relation(db.relation("Sales").unwrap());
        sales
            .insert(&[Value::Int(1), Value::Int(3), Value::Double(100.0)])
            .unwrap();
        let mut items = TableDelta::for_relation(db.relation("Items").unwrap());
        items.delete(&[Value::Int(3), Value::Double(12.0)]).unwrap();
        items.insert(&[Value::Int(3), Value::Double(40.0)]).unwrap();
        let txn: Transaction = [sales, items].into_iter().collect();
        for threads in [1, 2] {
            let engine = Engine::new(db.clone(), tree.clone(), EngineConfig::full(threads));
            let mut maintained = engine.prepare(&b).unwrap().into_serving(&benign).unwrap();
            assert!(maintained.affected_groups("Items").len() > 1);

            let gen0 = maintained.snapshot();
            let ledger = maintained.shadow.clone();
            let err = maintained.commit(txn.clone(), &panicking).unwrap_err();
            assert!(
                matches!(err, EngineError::WorkerPanicked(ref msg) if msg.contains("dynamic boom")),
                "threads {threads}: {err:?}"
            );
            assert_eq!(maintained.generation(), 0);
            assert!(
                Arc::ptr_eq(&gen0, &maintained.snapshot()),
                "nothing published"
            );
            assert_eq!(maintained.shadow, ledger, "shadow ledger untouched");
            assert_eq!(maintained.database().relation("Sales").unwrap().len(), 40);

            // The next commit succeeds and chains straight onto generation 0.
            maintained.commit(txn.clone(), &benign).unwrap();
            let gen1 = maintained.snapshot();
            assert_eq!(gen1.generation(), 1);
            let summary =
                lmfao_certify::check_chain([&**gen0.certificate(), &**gen1.certificate()]).unwrap();
            assert_eq!(summary.certificates, 2);
            assert_eq!(summary.final_generation, 1);
        }
    }
}
