//! The benchmark's fixed vocabulary: every workload and every metric by name.
//!
//! `BENCHMARK.json` at the repository root repeats these names for the
//! driver; a unit test keeps the two in step. A run can only report a value
//! under a name listed here (`Metrics::set` refuses anything else), so the
//! names printed, listed and gated are one set.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    /// What is loaded and what one operation is.
    pub load: &'static str,
    /// Closed or open loop, with client count or rate.
    pub loop_kind: &'static str,
    /// The percentile `harness.op_tail_ms` reports on this workload.
    pub tail_q: f64,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "agg_scalar",
        load: "Retailer, 20000 fact rows; op = PreparedBatch::execute of the regression-tree-node batch (scalar aggregates with indicator thresholds)",
        loop_kind: "closed, 1 caller",
        tail_q: 0.75,
        why: "Executor-bound scalar path: exec kernels and register accumulation do the work; planner and write path do none (paper Table 3, RT).",
    },
    WorkloadDef {
        name: "agg_groupby",
        load: "Favorita, 20000 fact rows; op = PreparedBatch::execute of the pairwise mutual-information batch (group-by outputs of hundreds of rows)",
        loop_kind: "closed, 1 caller",
        tail_q: 0.75,
        why: "The same exec layer through hash-keyed group-by accumulation, so a kernel change that helps agg_scalar and costs the keyed path shows here.",
    },
    WorkloadDef {
        name: "plan_adhoc",
        load: "Retailer, 1000 fact rows; op = a fresh Engine::prepare plus one execute of the regression-tree-node batch",
        loop_kind: "closed, 1 caller",
        tail_q: 0.95,
        why: "Planner-bound: the only workload where roots, pushdown, grouping and planning are a visible share of an operation; bypasses the write path and barely touches kernels.",
    },
    WorkloadDef {
        name: "tree_train",
        load: "Retailer, 20000 fact rows, eight datasets per seed trained in turn; ml::train_decision_tree of a regression tree (depth 4, min 1000 samples, 10 buckets); op = one node learned (a training's time over its nodes)",
        loop_kind: "closed, 1 caller",
        tail_q: 0.75,
        why: "The model-learning number of paper Table 4: one prepare, then one execute per node with changing dynamic functions, through the generic evaluator and ml that agg_* bypass.",
    },
    WorkloadDef {
        name: "commit_txn",
        load: "TPC-DS, 5000 fact rows; regression-tree-node batch promoted with into_serving; op = Maintainer::commit of one five-relation transaction; the same 50 transactions in rounds, each on a fresh maintainer, no readers",
        loop_kind: "closed, 1 writer",
        tail_q: 0.90,
        why: "Write-path-bound (maintain, snapshot, data apply, certificate emission): the ROADMAP anomaly where a commit costs as much as a recompute; kernels see only delta partitions.",
    },
    WorkloadDef {
        name: "serve_mixed",
        load: "Retailer, 20000 fact rows; covar batch via into_serving; the main thread commits single-tuple Inventory deltas on a fixed schedule; op = one read of the reader thread: SnapshotHandle::load plus a named-query lookup",
        loop_kind: "reader closed, 1 client; writer open at 50 commits/s (a commit later than 100 ms after it was due counts as failed)",
        // p99.9 does not repeat: in three runs of ten a stall of some 3 us
        // reaches it, against 0.5 us in the rest. It stays a per-layer
        // number, `serve.read_p999_us`.
        tail_q: 0.99,
        why: "Reads beside writes: the publication cell, generation GC and small commits under a concurrent reader; the only workload where reader cost is visible. A costlier publish shows in its tail first.",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// The module (or harness part) the number belongs to.
    pub layer: &'static str,
    /// True for counts that repeat exactly for a given seed.
    pub exact: bool,
    /// What it measures and which end-to-end metric it should move.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        layer: "end_to_end",
        exact: false,
        note,
    }
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        layer,
        exact,
        note,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: &[MetricDef] = &[
    e2e("op_ms", "ms", Lower, 0.25, "median latency of the workload's operation (execute, prepare+execute, one tree node, commit, read)"),
    e2e("ops_per_s", "1/s", Higher, 0.25, "correct operations completed per second of measured time: the rate of each tenth of the run (each second of serve_mixed), median over them"),
    e2e("peak_rss_mb", "MiB", Lower, 0.20, "VmHWM of the benchmark process: data, plans, retained generations"),
    e2e("setup_s", "s", Lower, 0.25, "median of the set-ups of one run: datagen, sort, batch build, prepare, and into_serving plus stream generation where used"),
];

pub const PER_LAYER: &[MetricDef] = &[
    layer("datagen", "datagen.generate_ms", "ms", Lower, false, "dataset generation; moves setup_s everywhere"),
    layer("datagen", "datagen.stream_ms", "ms", Lower, false, "update or transaction stream generation; moves setup_s on commit_txn and serve_mixed"),
    layer("datagen", "datagen.input_digest", "count", Higher, true, "48-bit digest of the generated relations and stream; equal digests mean equal load"),
    layer("data", "data.sort_ms", "ms", Lower, false, "SharedDatabase::prepare; moves setup_s"),
    layer("data", "data.db_bytes", "count", Lower, true, "bytes of the prepared relations; moves peak_rss_mb"),
    layer("data", "data.apply_ms", "ms", Lower, false, "one commit's deltas applied with DatabaseSnapshot::apply to a scratch clone; bounds the op_ms gain on commit_txn"),
    layer("data", "data.clone_us", "us", Lower, false, "DatabaseSnapshot::clone, paid once per commit"),
    layer("expr", "expr.batch_build_ms", "ms", Lower, false, "building the query batch; moves setup_s"),
    layer("expr", "expr.queries", "count", Lower, true, "queries in the batch; base of every per-query ratio"),
    layer("expr", "expr.aggregates", "count", Lower, true, "application aggregates in the batch"),
    layer("roots", "roots.ms", "ms", Lower, false, "assign_roots; moves op_ms on plan_adhoc only"),
    layer("roots", "roots.distinct", "count", Higher, true, "distinct join-tree roots chosen"),
    layer("pushdown", "pushdown.ms", "ms", Lower, false, "push_down_batch incl. view merging; moves op_ms on plan_adhoc only"),
    layer("pushdown", "pushdown.views", "count", Lower, true, "consolidated views"),
    layer("pushdown", "pushdown.intermediate_aggs", "count", Lower, true, "intermediate aggregates synthesized"),
    layer("group", "group.ms", "ms", Lower, false, "group_views; moves op_ms on plan_adhoc only"),
    layer("group", "group.groups", "count", Lower, true, "view groups"),
    layer("plan", "plan.ms", "ms", Lower, false, "sum of build_group_plan over the groups; moves op_ms on plan_adhoc only"),
    layer("plan", "plan.max_group_ms", "ms", Lower, false, "costliest single group plan"),
    layer("prepared", "prepare.ms", "ms", Lower, false, "Engine::prepare; about a third of op_ms on plan_adhoc, part of setup_s elsewhere"),
    layer("prepared", "prepare.residue_ms", "ms", Lower, false, "prepare.ms minus the four planner layers: projections and bookkeeping"),
    layer("exec", "exec.groups_ms", "ms", Lower, false, "sum of execute_group in topological order on one thread; moves op_ms on agg_*, most of op_ms on plan_adhoc"),
    layer("exec", "exec.max_group_ms", "ms", Lower, false, "costliest group: the critical path under task parallelism"),
    layer("exec", "exec.merge_ms", "ms", Lower, false, "folding group outputs into the view map"),
    layer("exec", "exec.rows_scanned", "count", Lower, true, "relation rows scanned by one execution"),
    layer("exec", "exec.rows_per_ms", "1/ms", Higher, false, "rows_scanned over groups_ms"),
    layer("exec", "exec.output_rows", "count", Lower, true, "result rows over all queries"),
    layer("exec", "exec.output_bytes", "count", Lower, true, "result bytes over all queries"),
    layer("parallel", "parallel.t1_ms", "ms", Lower, false, "execute_all on 1 thread: what op_ms pays on agg_*"),
    layer("parallel", "parallel.t2_ms", "ms", Lower, false, "execute_all on 2 threads; not on any gated path, the workloads run 1 thread"),
    layer("parallel", "parallel.speedup", "ratio", Higher, false, "t1 over t2; at most min(2, groups_ms / max_group_ms)"),
    layer("parallel", "parallel.efficiency", "ratio", Higher, false, "speedup over 2 threads"),
    layer("prepared", "prepared.project_ms", "ms", Lower, false, "PreparedBatch::execute minus execute_all at 1 thread: result projection"),
    layer("ladder", "ladder.unoptimized_ms", "ms", Lower, false, "paper Figure 5, bottom rung: interpreted, single root, one scan per view"),
    layer("ladder", "ladder.specialization_ms", "ms", Lower, false, "plus specialization"),
    layer("ladder", "ladder.multi_output_ms", "ms", Lower, false, "plus multi-output plans"),
    layer("ladder", "ladder.multi_root_ms", "ms", Lower, false, "plus multiple roots"),
    layer("ladder", "ladder.full_ms", "ms", Lower, false, "plus 2 threads: full LMFAO"),
    layer("baseline", "baseline.materialize_ms", "ms", Lower, false, "materializing the join for the baseline"),
    layer("baseline", "baseline.join_rows", "count", Lower, true, "rows of the materialized join"),
    layer("baseline", "baseline.exec_ms", "ms", Lower, false, "the batch over the materialized join, one scan per query"),
    layer("baseline", "baseline.ratio", "ratio", Lower, false, "execute median over baseline.exec_ms: the noise-robust reading of op_ms on agg_*"),
    layer("baseline", "baseline.tree_s", "s", Lower, false, "materialize, export dense, train the same tree"),
    layer("baseline", "baseline.tree_ratio", "ratio", Lower, false, "training median over baseline.tree_s"),
    layer("maintain", "commit.delta_rows", "count", Lower, true, "delta rows over the first commits of the run (RefreshStats)"),
    layer("maintain", "commit.relations_changed", "count", Lower, true, "relations changed over the same commits"),
    layer("maintain", "commit.seed_groups", "count", Lower, true, "groups re-scanned over delta partitions"),
    layer("maintain", "commit.propagated_groups", "count", Lower, true, "downstream groups re-scanned through overlays"),
    layer("maintain", "commit.skipped_groups", "count", Higher, true, "groups left untouched"),
    layer("maintain", "commit.group_scans", "count", Lower, true, "physical group scans"),
    layer("maintain", "commit.views_changed", "count", Lower, true, "views whose retained state changed"),
    layer("maintain", "commit.us_per_delta_row", "us", Lower, false, "commit time per delta row: should track the delta, not the relation"),
    layer("maintain", "commit.vs_recompute", "ratio", Lower, false, "commit median over one execute of the same batch on the same data; ROADMAP target 0.25"),
    layer("maintain", "commit.vs_sequential", "ratio", Higher, false, "the same deltas one relation at a time on a twin maintainer, over the one-walk commit"),
    layer("maintain", "commit.t2_ms", "ms", Lower, false, "commit median on a 2-thread twin"),
    layer("maintain", "commit.frontier_speedup", "ratio", Higher, false, "the 1-thread commit median over t2"),
    layer("maintain", "commit.apply_share", "ratio", Lower, false, "data.apply_ms over the commit median: the most a faster apply can give"),
    layer("maintain", "commit.residue_share", "ratio", Lower, false, "share of a commit not attributable from outside (scans, fold, certificate, publish)"),
    layer("snapshot", "snapshot.into_serving_ms", "ms", Lower, false, "PreparedBatch::into_serving; moves setup_s"),
    layer("snapshot", "snapshot.load_ns", "ns", Lower, false, "uncontended SnapshotHandle::load, no writer; moves ops_per_s on serve_mixed"),
    layer("snapshot", "snapshot.lookup_ns", "ns", Lower, false, "ViewSnapshot::query plus a key get"),
    layer("snapshot", "snapshot.retained_generations", "count", Lower, false, "generations the writer retains at the end"),
    layer("snapshot", "snapshot.retained_bytes", "count", Lower, false, "bytes reachable from the retained history; moves peak_rss_mb"),
    layer("snapshot", "snapshot.retained_bytes_call_us", "us", Lower, false, "cost of the retained_bytes accounting walk itself"),
    layer("serve", "serve.commit_ms", "ms", Lower, false, "median commit from due time under the serving traffic; ungated, it doubles whenever the host runs both threads on one core"),
    layer("serve", "serve.commit_p95_ms", "ms", Lower, false, "p95 of the same"),
    layer("serve", "serve.reads_per_s", "1/s", Higher, false, "reads completed per second, as measured (ops_per_s of serve_mixed is this at nominal speed)"),
    layer("serve", "serve.read_p50_us", "us", Lower, false, "median read latency"),
    layer("serve", "serve.read_p99_us", "us", Lower, false, "p99 read latency, as measured (harness.op_tail_ms of serve_mixed is this per second at nominal speed)"),
    layer("serve", "serve.read_p999_us", "us", Lower, false, "p99.9 read latency: too unsteady to gate (0.5 us in most runs, 3 us in some)"),
    layer("serve", "serve.read_max_us", "us", Lower, false, "worst read"),
    layer("buffer", "buffer.push_ns", "ns", Lower, false, "DeltaBuffer::push per delta; on no gated path today, recorded as a base"),
    layer("buffer", "buffer.flush_us", "us", Lower, false, "DeltaBuffer::flush of 10 deltas"),
    layer("certificate", "certificate.emit_ms", "ms", Lower, false, "execute_certified minus execute: a lower bound on the certificate share inside a commit"),
    layer("certify", "certify.to_json_ms", "ms", Lower, false, "canonical JSON of the execute certificate"),
    layer("certify", "certify.json_bytes", "count", Lower, true, "its size"),
    layer("certify", "certify.parse_ms", "ms", Lower, false, "parsing it back"),
    layer("certify", "certify.check_ms", "ms", Lower, false, "check_certificate"),
    layer("certify", "certify.chain_check_ms", "ms", Lower, false, "check_chain over the run's certificates, per certificate"),
    layer("ml", "ml.tree_nodes", "count", Lower, true, "nodes of the trained tree"),
    layer("ml", "ml.queries_issued", "count", Lower, true, "aggregate queries issued by one training"),
    layer("ml", "ml.train_s", "s", Lower, false, "median whole training: the Table 4 number; op_ms on tree_train is this per node"),
    layer("ml", "ml.replanned_s", "s", Lower, false, "train_decision_tree_replanned: plan per node"),
    layer("ml", "ml.prepared_speedup", "ratio", Higher, false, "replanned over prepared training"),
    layer("ml", "ml.linreg_s", "s", Lower, false, "covar execute plus batch gradient descent"),
    layer("harness", "loadgen.late_us_p99", "us", Lower, false, "how late the open-loop writer fired, p99"),
    layer("harness", "loadgen.offered_per_s", "1/s", Higher, false, "commits the schedule offered"),
    layer("harness", "loadgen.applied_per_s", "1/s", Higher, false, "commits applied"),
    layer("harness", "loadgen.backlog_max", "count", Lower, false, "most commits ever due and not yet applied"),
    layer("harness", "harness.clock_ns", "ns", Lower, false, "one Instant pair: the floor under sub-microsecond latencies"),
    layer("harness", "harness.speed_ratio", "ratio", Lower, false, "the speed kernel's median time over its nominal 0.76 ms across the window; each end-to-end time was divided by this ratio around its own moment, per-layer times are as measured"),
    layer("harness", "harness.ops", "count", Higher, false, "operations timed in the traced window"),
    layer("harness", "harness.op_tail_ms", "ms", Lower, false, "tail latency of the workload's operation at nominal speed: its fixed percentile of each slice of the window, median over the slices (p75 agg_* and tree_train, p95 plan_adhoc, p90 commit_txn, p99 serve_mixed); ungated, between runs of the same code it spread by a quarter of its median"),
    layer("harness", "harness.failed_share", "ratio", Lower, false, "failed over attempted operations, correctness gates included"),
    layer("harness", "trace.overhead_share", "ratio", Lower, false, "traced over untraced median operation, minus 1"),
    layer("harness", "trace.residue_share", "ratio", Lower, false, "share of the traced window inside no layer span"),
    layer("harness", "trace.share_planner", "ratio", Lower, false, "self-time share of prepare spans in the traced window"),
    layer("harness", "trace.share_exec", "ratio", Lower, false, "self-time share of execute spans"),
    layer("harness", "trace.share_ml", "ratio", Lower, false, "self-time share of training spans"),
    layer("harness", "trace.share_write", "ratio", Lower, false, "self-time share of commit spans"),
    layer("harness", "trace.share_read", "ratio", Lower, false, "self-time share of load and lookup spans (sampled reads scaled up)"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Values measured by one run, keyed by registered metric name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Metrics {
    /// Records `value` from `samples` measurements.
    ///
    /// # Panics
    /// If `name` is not in the registry: an unlisted metric is a bug here.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let def = find(name).unwrap_or_else(|| panic!("metric `{name}` is not registered"));
        self.values.insert(def.name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    pub fn samples(&self, name: &str) -> u64 {
        self.values.get(name).map_or(0, |v| v.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_are_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.bytes().all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "bad unit on {}",
                m.name
            );
        }
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let of = |defs: &[MetricDef]| defs.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        assert_eq!(
            names("workloads"),
            WORKLOADS
                .iter()
                .map(|w| w.name.to_string())
                .collect::<Vec<_>>()
        );
        assert_eq!(names("end_to_end"), of(END_TO_END));
        assert_eq!(names("per_layer"), of(PER_LAYER));
        for (entry, def) in doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(def.better.as_str())
            );
            assert_eq!(entry.get("bound").and_then(Json::as_f64), def.bound);
        }
        for (entry, def) in doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(def.why));
        }
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn a_run_cannot_report_an_unlisted_metric() {
        Metrics::default().set("exec.bogus_ms", 1.0, 1);
    }
}
