//! Probes of single layers, run only in traced runs.
//!
//! Every call into a layer's own public functions — `assign_roots`,
//! `push_down_batch`, `group_views`, `build_group_plan`, `execute_group`,
//! `execute_all`, `DatabaseSnapshot::apply`, `execute_certified`, the
//! `lmfao_certify` functions, `DeltaBuffer` — is in this file, each inside a
//! span, so the layers are timed from outside without touching `crates/core`.
//! When the in-engine ledger of the ROADMAP lands, this is the one file whose
//! numbers it must reproduce.

use crate::fixture::{timed, Fixture, PARALLEL_THREADS, THREADS};
use crate::registry::Metrics;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    Agg, CommitTxn, Serve, Serving, TreeData, TreeTrain, Window, COUNTED_COMMITS, TREE_CONFIG,
};
use lmfao_baseline::{export_dense, train_tree_dense, DenseTask, MaterializedEngine};
use lmfao_certify::{check_certificate, check_chain, parse_certificate, to_json};
use lmfao_core::exec::execute_group;
use lmfao_core::group::{group_views, Grouping};
use lmfao_core::parallel::execute_all;
use lmfao_core::plan::{build_group_plan, GroupPlan};
use lmfao_core::pushdown::push_down_batch;
use lmfao_core::roots::assign_roots;
use lmfao_core::{
    ComputedView, DeltaBuffer, Engine, EngineConfig, Maintainer, RefreshStats, ViewId,
};
use lmfao_data::{FxHashMap, TableDelta, Transaction};
use lmfao_expr::DynamicRegistry;
use lmfao_ml::{train_decision_tree_replanned, train_linear_regression_over, LinRegConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the four planner layers produce for a batch.
pub struct Planned {
    pub grouping: Grouping,
    pub plans: Vec<GroupPlan>,
}

/// Runs `f` in a span and returns its result with the elapsed milliseconds.
fn spanned<T>(
    tr: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    timed(|| tr.span(layer, name, |_| f()))
}

/// `roots`, `pushdown`, `group`, `plan`: the planner layers one by one, then
/// `Engine::prepare` whole, `reps` times each; medians are reported.
pub fn planner(fx: &Fixture, reps: usize, tr: &mut Tracer, m: &mut Metrics) -> Planned {
    let config = EngineConfig::full(THREADS);
    let (db, tree) = (&fx.shared, &fx.ds.tree);
    let mut t: [Vec<f64>; 6] = Default::default();
    let mut planned = None;
    for rep in 0..reps.max(1) {
        tr.set_op(rep as u64);
        let (roots, roots_ms) = spanned(tr, "roots", "assign_roots", || {
            assign_roots(&fx.batch, tree, db, &config)
        });
        let (pushdown, pushdown_ms) = spanned(tr, "pushdown", "push_down_batch", || {
            push_down_batch(&fx.batch, tree, &roots)
        });
        let (grouping, group_ms) = spanned(tr, "group", "group_views", || {
            group_views(&pushdown.catalog, config.multi_output)
        });
        let mut per_group = Vec::with_capacity(grouping.len());
        let plans: Vec<GroupPlan> = grouping
            .groups
            .iter()
            .map(|g| {
                let (plan, ms) = spanned(tr, "plan", "build_group_plan", || {
                    build_group_plan(db, tree, &pushdown.catalog, g)
                });
                per_group.push(ms);
                plan.expect("generated batches plan over their own dataset")
            })
            .collect();
        let (prepared, prepare_ms) = spanned(tr, "prepared", "Engine::prepare", || {
            fx.engine.prepare(&fx.batch)
        });
        black_box(prepared.is_ok());
        for (slot, ms) in t.iter_mut().zip([
            roots_ms,
            pushdown_ms,
            group_ms,
            per_group.iter().sum(),
            per_group.iter().copied().fold(0.0, f64::max),
            prepare_ms,
        ]) {
            slot.push(ms);
        }
        if rep == 0 {
            m.set("roots.distinct", roots.num_distinct_roots() as f64, 1);
            m.set("pushdown.views", pushdown.catalog.len() as f64, 1);
            let intermediate = pushdown
                .catalog
                .total_aggregates()
                .saturating_sub(fx.batch.num_aggregates());
            m.set("pushdown.intermediate_aggs", intermediate as f64, 1);
            m.set("group.groups", grouping.len() as f64, 1);
            planned = Some(Planned { grouping, plans });
        }
    }
    let n = t[0].len() as u64;
    let [roots, pushdown, group, plan, max_group, prepare] = t.map(|v| median(&v));
    m.set("roots.ms", roots, n);
    m.set("pushdown.ms", pushdown, n);
    m.set("group.ms", group, n);
    m.set("plan.ms", plan, n);
    m.set("plan.max_group_ms", max_group, n);
    m.set("prepare.ms", prepare, n);
    m.set(
        "prepare.residue_ms",
        prepare - (roots + pushdown + group + plan),
        n,
    );
    planned.expect("at least one repetition ran")
}

/// `exec`, `parallel`, `prepared`: group scans one by one on one thread, then
/// `execute_all` at 1 and 2 threads, then `PreparedBatch::execute` whole (on
/// the workload's one thread).
/// Returns the median of the whole execute in ms.
pub fn executor(
    fx: &Fixture,
    planned: &Planned,
    reps: usize,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> f64 {
    let db = fx.shared.database();
    let dynamics = DynamicRegistry::new();
    let reps = reps.max(1);
    let (mut groups_ms, mut max_ms, mut merge_ms) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        tr.set_op(rep as u64);
        let mut computed: FxHashMap<ViewId, ComputedView> = FxHashMap::default();
        let (mut scan_total, mut scan_max, mut merge_total) = (0.0, 0.0f64, 0.0);
        for gid in planned.grouping.topological_order() {
            let (out, ms) = spanned(tr, "exec", "execute_group", || {
                execute_group(db, &planned.plans[gid], &computed, &dynamics, None)
            });
            scan_total += ms;
            scan_max = scan_max.max(ms);
            let out = out.expect("planned groups execute over their own database");
            let ((), ms) = spanned(tr, "exec", "ComputedView::merge_from", || {
                for (vid, view) in out {
                    match computed.entry(vid) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            e.get_mut().merge_from(view)
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(view);
                        }
                    }
                }
            });
            merge_total += ms;
        }
        groups_ms.push(scan_total);
        max_ms.push(scan_max);
        merge_ms.push(merge_total);
    }
    let rows: usize = planned
        .plans
        .iter()
        .map(|p| db.relation(&p.relation).map_or(0, |r| r.len()))
        .sum();
    let n = reps as u64;
    let groups = median(&groups_ms);
    m.set("exec.groups_ms", groups, n);
    m.set("exec.max_group_ms", median(&max_ms), n);
    m.set("exec.merge_ms", median(&merge_ms), n);
    m.set("exec.rows_scanned", rows as f64, 1);
    m.set("exec.rows_per_ms", rows as f64 / groups.max(1e-9), n);

    let all = |threads: usize, tr: &mut Tracer| {
        let config = EngineConfig::full(threads);
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let (out, ms) = spanned(tr, "parallel", "execute_all", || {
                    execute_all(db, &planned.plans, &planned.grouping, &dynamics, &config)
                });
                black_box(out.is_ok());
                ms
            })
            .collect();
        median(&samples)
    };
    let (t1, t2) = (all(1, tr), all(PARALLEL_THREADS, tr));
    m.set("parallel.t1_ms", t1, n);
    m.set("parallel.t2_ms", t2, n);
    m.set("parallel.speedup", t1 / t2.max(1e-9), n);
    m.set(
        "parallel.efficiency",
        t1 / t2.max(1e-9) / PARALLEL_THREADS as f64,
        n,
    );

    let mut whole = Vec::new();
    for _ in 0..reps {
        let (result, ms) = spanned(tr, "prepared", "PreparedBatch::execute", || {
            fx.prepared.execute(&dynamics)
        });
        whole.push(ms);
        if let Ok(result) = result {
            let rows: usize = result.queries.iter().map(|q| q.len()).sum();
            m.set("exec.output_rows", rows as f64, 1);
            m.set(
                "exec.output_bytes",
                result.stats.output_size_bytes as f64,
                1,
            );
        }
    }
    let whole = median(&whole);
    m.set("prepared.project_ms", whole - t1, n);
    whole
}

/// The ablation ladder of the paper's Figure 5: the batch under each rung's
/// configuration, `reps` executes per rung.
pub fn ladder(fx: &Fixture, reps: usize, tr: &mut Tracer, m: &mut Metrics) {
    let names = [
        "ladder.unoptimized_ms",
        "ladder.specialization_ms",
        "ladder.multi_output_ms",
        "ladder.multi_root_ms",
        "ladder.full_ms",
    ];
    let dynamics = DynamicRegistry::new();
    for (name, (_, config)) in names
        .iter()
        .zip(EngineConfig::ablation_ladder(PARALLEL_THREADS))
    {
        let engine = Engine::with_shared(fx.shared.clone(), fx.ds.tree.clone(), config);
        let Ok(prepared) = engine.prepare(&fx.batch) else {
            continue;
        };
        let samples: Vec<f64> = (0..reps.max(1))
            .map(|_| {
                let (out, ms) = spanned(tr, "ladder", "PreparedBatch::execute", || {
                    prepared.execute(&dynamics)
                });
                black_box(out.is_ok());
                ms
            })
            .collect();
        m.set(name, median(&samples), samples.len() as u64);
    }
}

/// The materialized-join baseline on the same batch; `execute_ms` is the
/// engine's median for the ratio.
pub fn baseline(fx: &Fixture, execute_ms: f64, tr: &mut Tracer, m: &mut Metrics) {
    let (engine, materialize_ms) = spanned(tr, "baseline", "materialize", || {
        MaterializedEngine::materialize(&fx.ds.db, &fx.ds.tree)
    });
    let prepared = engine.prepare(&fx.batch);
    let (out, exec_ms) = spanned(tr, "baseline", "execute_prepared", || {
        engine.execute_prepared(&prepared, &DynamicRegistry::new())
    });
    black_box(out.len());
    m.set("baseline.materialize_ms", materialize_ms, 1);
    m.set("baseline.join_rows", engine.join().len() as f64, 1);
    m.set("baseline.exec_ms", exec_ms, 1);
    m.set("baseline.ratio", execute_ms / exec_ms.max(1e-9), 1);
}

/// Certificate emission and the independent checker on the batch's execute
/// certificate; `execute_ms` is the uncertified median.
pub fn certificate(fx: &Fixture, execute_ms: f64, reps: usize, tr: &mut Tracer, m: &mut Metrics) {
    let dynamics = DynamicRegistry::new();
    let mut certified = Vec::new();
    let mut cert = None;
    for _ in 0..reps.max(1) {
        let (out, ms) = spanned(tr, "certificate", "execute_certified", || {
            fx.prepared.execute_certified(&dynamics)
        });
        certified.push(ms);
        cert = out.ok().map(|(_, c)| c);
    }
    m.set(
        "certificate.emit_ms",
        median(&certified) - execute_ms,
        certified.len() as u64,
    );
    let Some(cert) = cert else { return };
    let (json, to_json_ms) = spanned(tr, "certify", "to_json", || to_json(&cert));
    let (parsed, parse_ms) = spanned(tr, "certify", "parse_certificate", || {
        parse_certificate(&json)
    });
    let (checked, check_ms) = spanned(tr, "certify", "check_certificate", || {
        parsed.as_ref().map(check_certificate)
    });
    black_box(checked.is_ok());
    m.set("certify.to_json_ms", to_json_ms, 1);
    m.set("certify.json_bytes", json.len() as f64, 1);
    m.set("certify.parse_ms", parse_ms, 1);
    m.set("certify.check_ms", check_ms, 1);
}

fn twin(fx: &Fixture, threads: usize) -> Option<Maintainer> {
    Engine::with_shared(
        fx.shared.clone(),
        fx.ds.tree.clone(),
        EngineConfig::full(threads),
    )
    .prepare(&fx.batch)
    .and_then(|p| p.into_serving(&DynamicRegistry::new()))
    .ok()
}

/// The write path: the first transactions of the run replayed on twin
/// maintainers that start from generation 0 — one walk per transaction with
/// the database part repeated on a scratch clone, one relation at a time,
/// and on two threads.
pub fn write_path(serving: &Serving, txns: &[Transaction], tr: &mut Tracer, m: &mut Metrics) {
    let fx = &serving.fx;
    let txns = &txns[..txns.len().min(COUNTED_COMMITS)];
    let dynamics = DynamicRegistry::new();
    let (Some(mut walk), Some(mut sequential), Some(mut parallel)) = (
        twin(fx, THREADS),
        twin(fx, THREADS),
        twin(fx, PARALLEL_THREADS),
    ) else {
        return;
    };

    let (mut clone_us, mut apply_ms, mut commit_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sequential_ms, mut parallel_ms) = (Vec::new(), Vec::new());
    let mut total = RefreshStats::default();
    for (i, txn) in txns.iter().enumerate() {
        tr.set_op(i as u64);
        // What the commit will do to the database, on a clone that shares
        // storage with the maintainer's, so copy-on-write costs the same.
        let (mut scratch, ms) = spanned(tr, "data", "DatabaseSnapshot::clone", || {
            walk.database().clone()
        });
        clone_us.push(ms * 1e3);
        let (applied, ms) = spanned(tr, "data", "DatabaseSnapshot::apply", || {
            txn.deltas().iter().try_for_each(|d| scratch.apply(d))
        });
        apply_ms.push(ms);
        drop(scratch);
        let (stats, ms) = spanned(tr, "maintain", "Maintainer::commit", || {
            walk.commit(txn.clone(), &dynamics)
        });
        let (Ok(stats), Ok(())) = (stats, applied) else {
            return;
        };
        commit_ms.push(ms);
        total.delta_rows += stats.delta_rows;
        total.relations_changed += stats.relations_changed;
        total.seed_groups += stats.seed_groups;
        total.propagated_groups += stats.propagated_groups;
        total.skipped_groups += stats.skipped_groups;
        total.group_scans += stats.group_scans;
        total.views_changed += stats.views_changed;

        let (ok, ms) = timed(|| {
            txn.deltas()
                .iter()
                .all(|d| sequential.commit(d.clone(), &dynamics).is_ok())
        });
        sequential_ms.push(ms);
        let (one, ms) = timed(|| parallel.commit(txn.clone(), &dynamics));
        parallel_ms.push(ms);
        if !ok || one.is_err() {
            return;
        }
    }
    if commit_ms.is_empty() {
        return;
    }
    let n = commit_ms.len() as u64;
    for (name, count) in [
        ("commit.delta_rows", total.delta_rows),
        ("commit.relations_changed", total.relations_changed),
        ("commit.seed_groups", total.seed_groups),
        ("commit.propagated_groups", total.propagated_groups),
        ("commit.skipped_groups", total.skipped_groups),
        ("commit.group_scans", total.group_scans),
        ("commit.views_changed", total.views_changed),
    ] {
        m.set(name, count as f64, n);
    }
    let commit = median(&commit_ms);
    let (apply, clone) = (median(&apply_ms), median(&clone_us));
    m.set("data.apply_ms", apply, n);
    m.set("data.clone_us", clone, n);
    m.set(
        "commit.us_per_delta_row",
        commit_ms.iter().sum::<f64>() * 1e3 / (total.delta_rows.max(1)) as f64,
        n,
    );
    let recompute: Vec<f64> = (0..3)
        .map(|_| timed(|| black_box(fx.prepared.execute(&dynamics).is_ok())).1)
        .collect();
    m.set(
        "commit.vs_recompute",
        commit / median(&recompute).max(1e-9),
        n,
    );
    m.set(
        "commit.vs_sequential",
        median(&sequential_ms) / commit.max(1e-9),
        n,
    );
    m.set("commit.t2_ms", median(&parallel_ms), n);
    m.set(
        "commit.frontier_speedup",
        commit / median(&parallel_ms).max(1e-9),
        n,
    );
    let apply_share = apply / commit.max(1e-9);
    m.set("commit.apply_share", apply_share, n);
    m.set(
        "commit.residue_share",
        1.0 - apply_share - clone / 1e3 / commit.max(1e-9),
        n,
    );

    let certs = &serving.certs;
    let (chain, ms) = spanned(tr, "certify", "check_chain", || {
        check_chain(certs.iter().map(Arc::as_ref))
    });
    black_box(chain.is_ok());
    m.set(
        "certify.chain_check_ms",
        ms / certs.len().max(1) as f64,
        certs.len() as u64,
    );
}

/// The read side with no writer running: `SnapshotHandle::load`, a named
/// lookup with a key get, and the retained-history accounting.
pub fn read_path(serving: &Serving, m: &mut Metrics) {
    const CALLS: u32 = 1_000_000;
    let handle = serving.maintainer.handle();
    let t = Instant::now();
    for _ in 0..CALLS {
        black_box(handle.load());
    }
    m.set(
        "snapshot.load_ns",
        t.elapsed().as_nanos() as f64 / CALLS as f64,
        CALLS as u64,
    );

    let snapshot = handle.load();
    let keyed = snapshot
        .results()
        .queries
        .iter()
        .find_map(|q| q.data.keys().next().map(|k| (q.name.clone(), k.clone())));
    if let Some((name, key)) = keyed {
        let t = Instant::now();
        for _ in 0..CALLS {
            black_box(
                snapshot
                    .query(black_box(&name))
                    .ok()
                    .and_then(|q| q.get(&key)),
            );
        }
        m.set(
            "snapshot.lookup_ns",
            t.elapsed().as_nanos() as f64 / CALLS as f64,
            CALLS as u64,
        );
    }

    let maintainer = &serving.maintainer;
    m.set(
        "snapshot.retained_generations",
        maintainer.retained_generations() as f64,
        1,
    );
    let (bytes, ms) = timed(|| maintainer.retained_bytes());
    m.set("snapshot.retained_bytes", bytes as f64, 1);
    m.set("snapshot.retained_bytes_call_us", ms * 1e3, 1);
}

/// The coalescing buffer: the stream pushed through a `DeltaBuffer` that is
/// flushed every 10 deltas.
pub fn buffer(stream: &[TableDelta], m: &mut Metrics) {
    let mut buf = DeltaBuffer::new(usize::MAX, Duration::MAX);
    let (mut push_ns, mut flush_us) = (Vec::new(), Vec::new());
    for (i, delta) in stream.iter().enumerate() {
        let delta = delta.clone();
        let t = Instant::now();
        buf.push(delta);
        push_ns.push(t.elapsed().as_nanos() as f64);
        if i % 10 == 9 {
            let (txn, ms) = timed(|| buf.flush());
            black_box(txn);
            flush_us.push(ms * 1e3);
        }
    }
    if !flush_us.is_empty() {
        m.set("buffer.push_ns", median(&push_ns), push_ns.len() as u64);
        m.set("buffer.flush_us", median(&flush_us), flush_us.len() as u64);
    }
}

/// The learners around `tree_train`, on its first dataset: the plan-per-node
/// learner, linear regression over the covar batch, and the
/// materialize-then-learn baseline. `train_ms` is the median of the
/// `trainings` the prepared learner made.
pub fn learners(w: &TreeData, train_ms: f64, trainings: u64, tr: &mut Tracer, m: &mut Metrics) {
    if let Some(tree) = &w.last {
        m.set("ml.tree_nodes", tree.size() as f64, 1);
        m.set("ml.queries_issued", tree.queries_issued as f64, 1);
    }
    m.set("ml.train_s", train_ms / 1e3, trainings);
    let (tree, replanned_ms) = spanned(tr, "ml", "train_decision_tree_replanned", || {
        train_decision_tree_replanned(&w.engine, &w.features, w.label, &TREE_CONFIG)
    });
    black_box(tree.is_ok());
    m.set("ml.replanned_s", replanned_ms / 1e3, 1);
    m.set("ml.prepared_speedup", replanned_ms / train_ms.max(1e-9), 1);
    let (model, linreg_ms) = spanned(tr, "ml", "train_linear_regression_over", || {
        train_linear_regression_over(&w.engine, &w.features, w.label, &LinRegConfig::default())
    });
    black_box(model.is_ok());
    m.set("ml.linreg_s", linreg_ms / 1e3, 1);

    let (root, tree_ms) = spanned(
        tr,
        "baseline",
        "materialize+export+train_tree_dense",
        || {
            let join = MaterializedEngine::materialize(&w.ds.db, &w.ds.tree);
            let dense = export_dense(join.join(), w.ds.db.schema(), &w.features, w.label);
            train_tree_dense(
                &dense,
                DenseTask::Regression,
                TREE_CONFIG.max_depth,
                TREE_CONFIG.min_samples,
                TREE_CONFIG.buckets,
            )
        },
    );
    black_box(root.size());
    m.set("baseline.tree_s", tree_ms / 1e3, 1);
    m.set("baseline.tree_ratio", train_ms / tree_ms.max(1e-9), 1);
}

/// Cost of one `Instant` pair: the floor under every sub-microsecond number.
pub fn clock(m: &mut Metrics) {
    const CALLS: u32 = 1_000_000;
    let t = Instant::now();
    for _ in 0..CALLS {
        black_box(Instant::now().elapsed());
    }
    m.set(
        "harness.clock_ns",
        t.elapsed().as_nanos() as f64 / CALLS as f64,
        CALLS as u64,
    );
}

/// The layer probes a workload's traced run makes on its own inputs.
/// `window` is the traced measurement window.
pub trait Probe {
    fn probe(&mut self, window: &Window, tr: &mut Tracer, m: &mut Metrics);
}

/// Probes that fit every planned batch: planner, executor, ablation ladder,
/// baseline and certificate. `planner_reps` is high where planning is what
/// the workload measures.
fn batch_probes(fx: &Fixture, planner_reps: usize, tr: &mut Tracer, m: &mut Metrics) {
    let planned = planner(fx, planner_reps, tr, m);
    let execute_ms = executor(fx, &planned, 5, tr, m);
    ladder(fx, 3, tr, m);
    baseline(fx, execute_ms, tr, m);
    certificate(fx, execute_ms, 3, tr, m);
}

impl Probe for Agg {
    fn probe(&mut self, _window: &Window, tr: &mut Tracer, m: &mut Metrics) {
        let reps = if self.def.name == "plan_adhoc" { 50 } else { 5 };
        batch_probes(&self.fx, reps, tr, m);
    }
}

impl Probe for TreeTrain {
    fn probe(&mut self, _window: &Window, tr: &mut Tracer, m: &mut Metrics) {
        let (train_ms, trainings) = (median(&self.train_ms), self.train_ms.len() as u64);
        learners(&self.sets[0], train_ms, trainings, tr, m);
    }
}

impl Probe for CommitTxn {
    fn probe(&mut self, _window: &Window, tr: &mut Tracer, m: &mut Metrics) {
        batch_probes(&self.serving.fx, 5, tr, m);
        write_path(&self.serving, &self.stream, tr, m);
        read_path(&self.serving, m);
    }
}

impl Probe for Serve {
    fn probe(&mut self, _window: &Window, tr: &mut Tracer, m: &mut Metrics) {
        batch_probes(&self.serving.fx, 5, tr, m);
        let txns: Vec<Transaction> = self
            .stream
            .iter()
            .take(COUNTED_COMMITS)
            .map(|d| d.clone().into())
            .collect();
        write_path(&self.serving, &txns, tr, m);
        read_path(&self.serving, m);
        buffer(&self.stream, m);
    }
}
