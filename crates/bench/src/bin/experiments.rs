//! Regenerates every table and figure of the LMFAO paper's evaluation over
//! the synthetic datasets.
//!
//! ```text
//! cargo run --release -p lmfao-bench --bin experiments -- all
//! cargo run --release -p lmfao-bench --bin experiments -- table3
//! LMFAO_SCALE=100000 cargo run --release -p lmfao-bench --bin experiments -- figure5
//! cargo run --release -p lmfao-bench --bin experiments -- --quick --json BENCH_ci.json
//! ```
//!
//! Available experiments: `table1`, `table2`, `table3`, `table4`, `table5`,
//! `figure5`, `example33`, `all`. The fact-table size is controlled with the
//! `LMFAO_SCALE` environment variable (default 20000).
//!
//! `--quick` runs the CI benchmark smoke suite instead: every Table-3
//! workload (Count, CM, RT, MI, DC) on every dataset at a reduced scale
//! (`LMFAO_SCALE`, default 5000), executing each prepared batch several times
//! and reporting per-workload **median** wall-clock plus output row counts.
//! With `--json [path]` the results are additionally written as a
//! machine-readable JSON benchmark artifact (default path `BENCH_ci.json`).
//! The process exits non-zero if any workload errors, so CI fails loudly.
//!
//! `--serve` runs the concurrent-serving benchmark (combinable with
//! `--quick` so one JSON artifact carries both): reader threads answer
//! named-query lookups from epoch-published snapshots while one writer
//! applies updates at a target rate; the report carries queries/sec,
//! p50/p95/p99 read latency, achieved updates/sec, and the post-run audit of
//! sampled reads against a from-scratch recompute at their pinned
//! generations. `--readers` takes a comma grid (e.g. `--readers 1,2,4,8`,
//! default 4): the whole serving run repeats per reader count and the
//! `"serving"` JSON section records one cell per count — reads/s, p50/p99
//! latency, achieved versus offered update rate, and the generation-GC
//! telemetry (`retained_generations`, `retained_bytes`, bounded by the
//! history window). Other tunables: `--serve-secs S` (default 5),
//! `--updates-per-sec U` (default 200), `--dataset NAME` (default
//! Retailer). Any sampled-read mismatch fails the process. Every cell also
//! carries the certificate-chain audit (accepted / rejected chains and
//! checker wall-time); a rejected chain fails the process too.
//!
//! `--certify` (with `--quick`) additionally runs every workload through
//! [`lmfao_core::PreparedBatch::execute_certified`], serializes the emitted
//! execution certificate to canonical JSON, and re-checks it with the
//! independent `lmfao-certify` crate — parse plus
//! [`lmfao_certify::check_certificate`], median of three timed passes. The
//! per-workload checker overhead lands in the JSON artifact as
//! `check_secs`; any rejected certificate fails the process.
//!
//! `--maintain` runs the maintenance suite (combinable with `--quick` /
//! `--serve` into one JSON artifact): per dataset, the RT-workload batch is
//! measured as (a) full re-execution, (b) single-delta refresh, and (c) the
//! transactional write path — multi-relation transactions over
//! [`lmfao_datagen::txn_relations`] committed in one DAG walk versus the
//! same deltas applied one relation at a time, plus the same transactions
//! walked sequentially on a single-threaded engine so the parallel-frontier
//! payoff (`frontier_speedup`) is measured directly. Medians land in the
//! `"maintenance"` JSON section together with the one-walk speedup.
//!
//! `--iso` runs the isolation stress harness: reader threads record every
//! generation movement under their own snapshot handles while one writer
//! commits multi-relation transactions, and the black-box
//! snapshot-isolation checker validates the merged history. Any violation
//! fails the process. Tunables: `--readers` (the maximum of the serving
//! grid), `--iso-secs S` (default 3), `--dataset NAME`.
//!
//! `--scaling` runs the threads × scale sweep (combinable into the same JSON
//! artifact): the CM and RT workloads of every dataset are executed at every
//! point of a thread grid (default `1,2,4,8`, override with
//! `--thread-grid 1,2,4`) crossed with a scale-factor grid multiplying the
//! base `LMFAO_SCALE` (default `1,10`, override with `--scale-factors 1,10`).
//! Each (dataset, workload, factor) sweep shares one prepared database so
//! cells differ only in the worker count; the `"scaling"` JSON section
//! records per-cell medians plus the speedup over the single-threaded cell,
//! turning `BENCH_ci.json` into scaling curves instead of single points.

use lmfao_baseline::{self as baseline, DenseTask, MaterializedEngine};
use lmfao_bench::iso::{run_iso, IsoConfig, IsoReport};
use lmfao_bench::serve::{run_serve, ServeConfig, ServeReport};
use lmfao_bench::{engine_for, WorkloadSpec};
use lmfao_core::EngineConfig;
use lmfao_datagen::{all_datasets, Dataset, Scale};
use lmfao_expr::{Aggregate, DynamicRegistry, QueryBatch};
use lmfao_ml as ml;
use std::time::Instant;

fn scale() -> Scale {
    let rows = std::env::var("LMFAO_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    Scale::new(rows, 42)
}

/// Worker-thread count: the `--threads N` flag wins, otherwise the available
/// parallelism capped at 8.
static THREAD_OVERRIDE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();

fn threads() -> usize {
    if let Some(&n) = THREAD_OVERRIDE.get() {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

/// The git revision the binary runs from: `LMFAO_GIT_REVISION` /
/// `GITHUB_SHA` when set (CI), else `git rev-parse HEAD`, else "unknown".
/// Recorded in the benchmark JSON so regression diffs can name the commits.
fn git_revision() -> String {
    for var in ["LMFAO_GIT_REVISION", "GITHUB_SHA"] {
        if let Ok(rev) = std::env::var(var) {
            if !rev.is_empty() {
                return rev;
            }
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Parses the value following a flag, exiting with a usage error if absent
/// or malformed.
fn parse_flag_value<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    args.get(i + 1)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        })
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Table 1: dataset characteristics.
fn table1(datasets: &[Dataset]) {
    println!("\n=== Table 1: dataset characteristics (synthetic, scaled) ===");
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "", "Retailer", "Favorita", "Yelp", "TPC-DS"
    );
    let mut tuples = vec![];
    let mut sizes = vec![];
    let mut join_tuples = vec![];
    let mut join_sizes = vec![];
    let mut rels = vec![];
    let mut attrs = vec![];
    let mut cats = vec![];
    for ds in datasets {
        tuples.push(ds.total_tuples());
        sizes.push(ds.db.total_size_bytes() / (1024 * 1024));
        let join = MaterializedEngine::materialize(&ds.db, &ds.tree);
        join_tuples.push(join.join().len());
        join_sizes.push(join.join_size_bytes() / (1024 * 1024));
        rels.push(ds.db.schema().num_relations());
        attrs.push(ds.db.schema().num_attributes());
        cats.push(
            ds.db
                .attributes_of_type(lmfao_data::AttrType::Categorical)
                .len(),
        );
    }
    let row = |name: &str, vals: &[usize]| {
        println!(
            "{:<22} {:>10} {:>10} {:>10} {:>10}",
            name, vals[0], vals[1], vals[2], vals[3]
        );
    };
    row("Tuples in Database", &tuples);
    row("Size of Database MB", &sizes);
    row("Tuples in Join", &join_tuples);
    row("Size of Join MB", &join_sizes);
    row("Relations", &rels);
    row("Attributes", &attrs);
    row("Categorical Attrs", &cats);
}

/// Table 2: number of aggregates, views and groups per workload and dataset.
fn table2(datasets: &[Dataset]) {
    println!("\n=== Table 2: aggregates (A+I), views (V), groups (G), output size ===");
    println!(
        "{:<4} {:<10} {:>8} {:>8} {:>6} {:>6} {:>12}",
        "WL", "Dataset", "A", "I", "V", "G", "Output(KB)"
    );
    for ds in datasets {
        let spec = WorkloadSpec::for_dataset(&ds.name);
        let engine = engine_for(ds, EngineConfig::full(threads()));
        for (wl, batch) in spec.workloads(ds) {
            // Planning statistics come from the prepared batch; executing it
            // fills in the output sizes.
            let prepared = engine.prepare(&batch).unwrap();
            let result = prepared.execute(&DynamicRegistry::new()).unwrap();
            let s = &result.stats;
            println!(
                "{:<4} {:<10} {:>8} {:>8} {:>6} {:>6} {:>12.1}",
                wl,
                ds.name,
                s.application_aggregates,
                s.intermediate_aggregates,
                s.num_views,
                s.num_groups,
                s.output_size_bytes as f64 / 1024.0
            );
        }
    }
}

/// Table 3: aggregate batch timings, LMFAO vs the materialized baseline.
fn table3(datasets: &[Dataset]) {
    println!("\n=== Table 3: aggregate batches — LMFAO vs materialized baseline (seconds) ===");
    println!(
        "{:<14} {:<10} {:>10} {:>12} {:>10}",
        "Batch", "Dataset", "LMFAO", "Baseline", "Speedup"
    );
    let dynamics = DynamicRegistry::new();
    for ds in datasets {
        let spec = WorkloadSpec::for_dataset(&ds.name);
        let engine = engine_for(ds, EngineConfig::full(threads()));
        let (baseline_engine, materialize_time) =
            time(|| MaterializedEngine::materialize(&ds.db, &ds.tree));
        let mut workloads = vec![("Count", spec.count_batch(ds))];
        workloads.extend(spec.workloads(ds));
        for (wl, batch) in workloads {
            let (_, lmfao_time) = time(|| engine.execute(&batch).unwrap());
            let (_, scan_time) = time(|| baseline_engine.execute_batch(&batch, &dynamics));
            let baseline_time = materialize_time + scan_time;
            println!(
                "{:<14} {:<10} {:>10.3} {:>12.3} {:>9.1}x",
                wl,
                ds.name,
                lmfao_time,
                baseline_time,
                baseline_time / lmfao_time.max(1e-9)
            );
        }
    }
}

/// Figure 5: the optimization ablation over the covar-matrix workload.
fn figure5(datasets: &[Dataset]) {
    println!("\n=== Figure 5: covar matrix, optimization ablation (seconds) ===");
    print!("{:<20}", "Configuration");
    for ds in datasets {
        print!(" {:>10}", ds.name);
    }
    println!();
    let ladder = EngineConfig::ablation_ladder(threads());
    let mut previous: Vec<f64> = vec![];
    for (name, config) in ladder {
        print!("{name:<20}");
        let mut current = vec![];
        for (i, ds) in datasets.iter().enumerate() {
            let spec = WorkloadSpec::for_dataset(&ds.name);
            let batch = spec.covar_batch(ds);
            let engine = engine_for(ds, config);
            let (_, secs) = time(|| engine.execute(&batch).unwrap());
            if let Some(prev) = previous.get(i) {
                print!(" {:>6.2}s({:>3.1}x)", secs, prev / secs.max(1e-9));
            } else {
                print!(" {secs:>10.2}s");
            }
            current.push(secs);
        }
        println!();
        previous = current;
    }
    println!("(each row annotated with its speedup over the previous row)");
}

/// Tables 4 and 5: end-to-end model training, LMFAO vs materialize-then-learn.
fn tables45(datasets: &[Dataset]) {
    println!("\n=== Table 4: linear regression & regression trees (seconds) ===");
    println!("{:<26} {:>10} {:>10}", "", "Retailer", "Favorita");
    let mut join_times = vec![];
    let mut lr_lmfao = vec![];
    let mut lr_baseline = vec![];
    let mut rt_lmfao = vec![];
    let mut rt_baseline = vec![];
    for name in ["Retailer", "Favorita"] {
        let ds = datasets.iter().find(|d| d.name == name).unwrap();
        let spec = WorkloadSpec::for_dataset(&ds.name);
        let label = ds.attr(&spec.label);
        let features: Vec<lmfao_data::AttrId> = spec
            .continuous
            .iter()
            .filter(|n| **n != spec.label)
            .map(|n| ds.attr(n))
            .collect();

        // Baseline: materialize + export + learn.
        let (join, t_join) = time(|| MaterializedEngine::materialize(&ds.db, &ds.tree));
        join_times.push(t_join);
        let (dense, t_export) =
            time(|| baseline::export_dense(join.join(), ds.db.schema(), &features, label));
        let (_, t_lr_base) =
            time(|| baseline::train_linear_regression_dense(&dense, 1e-3, 1e-9, 20));
        lr_baseline.push(t_join + t_export + t_lr_base);
        let (_, t_rt_base) =
            time(|| baseline::train_tree_dense(&dense, DenseTask::Regression, 4, 1000, 10));
        rt_baseline.push(t_join + t_export + t_rt_base);

        // LMFAO: covar batch + BGD; decision tree over batches.
        let engine = engine_for(ds, EngineConfig::full(threads()));
        let (_, t_lr) = time(|| {
            let mut all = features.clone();
            all.push(label);
            let cb = ml::covar_batch(&ml::CovarSpec::continuous_only(all));
            let result = engine.execute(&cb.batch).unwrap();
            let covar = ml::assemble_covar_matrix(&cb, &result);
            ml::train_linear_regression(&covar, &ml::LinRegConfig::default())
        });
        lr_lmfao.push(t_lr);
        let (_, t_rt) = time(|| {
            ml::train_decision_tree(
                &engine,
                &features,
                label,
                &ml::TreeConfig {
                    task: ml::TreeTask::Regression,
                    max_depth: 4,
                    min_samples: 1000,
                    buckets: 10,
                },
            )
        });
        rt_lmfao.push(t_rt);
    }
    let row = |name: &str, vals: &[f64]| {
        println!("{:<26} {:>10.3} {:>10.3}", name, vals[0], vals[1]);
    };
    row("Join materialization", &join_times);
    row("Linear regression LMFAO", &lr_lmfao);
    row("Linear regression baseline", &lr_baseline);
    row("Regression tree LMFAO", &rt_lmfao);
    row("Regression tree baseline", &rt_baseline);

    println!("\n=== Table 5: classification tree over TPC-DS (seconds) ===");
    let ds = datasets.iter().find(|d| d.name == "TPC-DS").unwrap();
    let label = ds.attr("preferred");
    let features: Vec<lmfao_data::AttrId> = [
        "birth_year",
        "purchase_estimate",
        "gender",
        "marital",
        "education",
        "dep_count",
        "quantity",
        "salesprice",
    ]
    .iter()
    .map(|n| ds.attr(n))
    .collect();
    let (join, t_join) = time(|| MaterializedEngine::materialize(&ds.db, &ds.tree));
    let (dense, t_export) =
        time(|| baseline::export_dense(join.join(), ds.db.schema(), &features, label));
    let (_, t_ct_base) =
        time(|| baseline::train_tree_dense(&dense, DenseTask::Classification, 4, 1000, 10));
    let engine = engine_for(ds, EngineConfig::full(threads()));
    let (tree, t_ct) = time(|| {
        ml::train_decision_tree(
            &engine,
            &features,
            label,
            &ml::TreeConfig {
                task: ml::TreeTask::Classification,
                max_depth: 4,
                min_samples: 1000,
                buckets: 10,
            },
        )
        .unwrap()
    });
    println!("{:<30} {:>10.3}", "Join materialization", t_join);
    println!("{:<30} {:>10.3}", "Classification tree LMFAO", t_ct);
    println!(
        "{:<30} {:>10.3}",
        "Classification tree baseline",
        t_join + t_export + t_ct_base
    );
    println!(
        "(LMFAO tree: {} nodes, {} aggregate queries issued)",
        tree.size(),
        tree.queries_issued
    );
}

/// Example 3.3: multi-root vs single-root evaluation over a chain schema.
fn example33() {
    println!("\n=== Example 3.3: chain schema, multi-root vs single-root ===");
    let n = 8;
    let ds = lmfao_datagen::chain::generate(n, 20_000, 300, Scale::new(0, 7));
    let mut batch = QueryBatch::new();
    for i in 1..=n {
        let attr = ds.attr(&format!("X{i}"));
        batch.push(format!("Q{i}"), vec![attr], vec![Aggregate::count()]);
    }
    let shared = lmfao_bench::shared_for(&ds);
    for (name, config) in [
        (
            "single root",
            EngineConfig {
                multi_root: false,
                ..EngineConfig::default()
            },
        ),
        ("multi root", EngineConfig::default()),
    ] {
        let engine = lmfao_bench::engine_for_shared(&shared, &ds, config);
        let (result, secs) = time(|| engine.execute(&batch).unwrap());
        println!(
            "{name:<12}: {:.3}s  ({} views, {} groups, {} roots)",
            secs, result.stats.num_views, result.stats.num_groups, result.stats.num_roots
        );
    }
}

/// One benchmarked workload of the quick suite.
struct BenchRecord {
    dataset: String,
    workload: &'static str,
    /// Median wall-clock seconds over `runs` executions of the prepared batch.
    median_secs: f64,
    /// Fastest execution.
    min_secs: f64,
    /// One-off planning (prepare) seconds.
    prepare_secs: f64,
    runs: usize,
    /// Total output rows (groups) across all queries of the batch.
    output_rows: usize,
    /// Number of queries in the batch.
    queries: usize,
    /// Median wall-clock seconds of the independent certificate checker
    /// (canonical-JSON parse + check), when `--certify` ran.
    check_secs: Option<f64>,
    error: Option<String>,
}

/// Minimal JSON string escaping (the emitted names are ASCII, but be correct).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes a finite float for JSON (NaN/inf are not valid JSON numbers).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

/// Renders the serving reader-count grid as the `"serving"` JSON object:
/// shared run parameters at the top level, one `cells` entry per reader
/// count with that run's throughput, latency percentiles, writer pipeline
/// accounting, generation-GC telemetry, and audits.
fn render_serve_json(dataset: &str, cells: &[(usize, ServeReport)]) -> String {
    let ok = !cells.is_empty() && cells.iter().all(|(_, r)| r.ok());
    let first = cells.first().map(|(_, r)| r);
    let grid = cells
        .iter()
        .map(|(n, _)| n.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let mut s = format!(
        "  \"serving\": {{\n    \"dataset\": \"{}\", \"ok\": {}, \
         \"target_updates_per_sec\": {}, \"history_window\": {},\n    \
         \"reader_grid\": [{}],\n    \"cells\": [\n",
        json_escape(dataset),
        ok,
        json_f64(first.map_or(f64::NAN, |r| r.target_updates_per_sec)),
        first.map_or(0, |r| r.history_window),
        grid
    );
    for (i, (readers, r)) in cells.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"readers\": {}, \"ok\": {}, \"duration_secs\": {},\n       \
             \"total_reads\": {}, \"queries_per_sec\": {}, \
             \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {},\n       \
             \"updates_offered\": {}, \"updates_applied\": {}, \
             \"updates_per_sec\": {}, \"offered_updates_per_sec\": {}, \
             \"rate_shortfall\": {},\n       \
             \"generations\": {}, \"retained_generations\": {}, \"retained_bytes\": {},\n       \
             \"sampled_reads\": {}, \"verified_generations\": {}, \"mismatches\": {},\n       \
             \"certified_chains\": {}, \"certificate_failures\": {}, \"certify_secs\": {}}}",
            readers,
            r.ok(),
            json_f64(r.duration_secs),
            r.total_reads,
            json_f64(r.queries_per_sec),
            json_f64(r.p50_us),
            json_f64(r.p95_us),
            json_f64(r.p99_us),
            json_f64(r.max_us),
            r.updates_offered,
            r.updates_applied,
            json_f64(r.updates_per_sec),
            json_f64(r.offered_updates_per_sec),
            r.rate_shortfall,
            r.generations,
            r.retained_generations,
            r.retained_bytes,
            r.sampled_reads,
            r.verified_generations,
            r.mismatches,
            r.certified_chains,
            r.certificate_failures,
            json_f64(r.certify_secs)
        ));
        if i + 1 < cells.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("    ]\n  }");
    s
}

/// Renders the maintenance records as the `"maintenance"` JSON array.
fn render_maintain_json(records: &[MaintainRecord]) -> String {
    let mut s = String::from("  \"maintenance\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str("    {");
        s.push_str(&format!("\"dataset\": \"{}\", ", json_escape(&r.dataset)));
        match &r.error {
            Some(e) => s.push_str(&format!("\"ok\": false, \"error\": \"{}\"", json_escape(e))),
            None => s.push_str(&format!(
                "\"ok\": true, \"full_exec_secs\": {}, \"refresh_secs\": {}, \
                 \"txn_commit_secs\": {}, \"sequential_secs\": {}, \
                 \"txn_speedup\": {}, \"seq_walk_secs\": {}, \
                 \"frontier_speedup\": {}, \"txn_relations\": {}",
                json_f64(r.full_exec_secs),
                json_f64(r.refresh_secs),
                json_f64(r.txn_commit_secs),
                json_f64(r.sequential_secs),
                json_f64(r.txn_speedup),
                json_f64(r.seq_walk_secs),
                json_f64(r.frontier_speedup),
                r.txn_relations
            )),
        }
        s.push('}');
        if i + 1 < records.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]");
    s
}

/// Renders the scaling sweep as the `"scaling"` JSON object. Every cell with
/// a single-threaded sibling (same dataset, workload and factor) also carries
/// `speedup_vs_1`, so the artifact encodes the scaling curves directly.
fn render_scaling_json(cells: &[ScalingCell], thread_grid: &[usize], factors: &[usize]) -> String {
    let list = |xs: &[usize]| {
        xs.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut s = format!(
        "  \"scaling\": {{\n    \"thread_grid\": [{}],\n    \"scale_factors\": [{}],\n    \"cells\": [\n",
        list(thread_grid),
        list(factors)
    );
    for (i, c) in cells.iter().enumerate() {
        let baseline = cells.iter().find(|b| {
            b.threads == 1
                && b.error.is_none()
                && b.dataset == c.dataset
                && b.workload == c.workload
                && b.scale_factor == c.scale_factor
        });
        s.push_str("      {");
        s.push_str(&format!(
            "\"dataset\": \"{}\", \"workload\": \"{}\", \"scale_factor\": {}, \
             \"fact_rows\": {}, \"threads\": {}, ",
            json_escape(&c.dataset),
            json_escape(c.workload),
            c.scale_factor,
            c.fact_rows,
            c.threads
        ));
        match &c.error {
            Some(e) => s.push_str(&format!("\"ok\": false, \"error\": \"{}\"", json_escape(e))),
            None => {
                s.push_str(&format!(
                    "\"ok\": true, \"median_secs\": {}, \"min_secs\": {}",
                    json_f64(c.median_secs),
                    json_f64(c.min_secs)
                ));
                if let Some(b) = baseline {
                    s.push_str(&format!(
                        ", \"speedup_vs_1\": {}",
                        json_f64(b.median_secs / c.median_secs.max(1e-9))
                    ));
                }
            }
        }
        s.push('}');
        if i + 1 < cells.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("    ]\n  }");
    s
}

/// Renders the isolation-run report as the `"isolation"` JSON object.
fn render_iso_json(dataset: &str, r: &IsoReport) -> String {
    format!(
        "  \"isolation\": {{\n    \"dataset\": \"{}\", \"ok\": {}, \"readers\": {}, \
         \"duration_secs\": {},\n    \"total_reads\": {}, \"recorded_reads\": {}, \
         \"commits\": {}, \"multi_relation_commits\": {},\n    \"violations\": {}{}\n  }}",
        json_escape(dataset),
        r.ok(),
        r.readers,
        json_f64(r.duration_secs),
        r.total_reads,
        r.recorded_reads,
        r.commits,
        r.multi_relation_commits,
        r.violations.len(),
        match &r.writer_error {
            Some(e) => format!(", \"writer_error\": \"{}\"", json_escape(e)),
            None => String::new(),
        }
    )
}

/// Renders the quick-suite records (plus the optional serving, maintenance,
/// and isolation reports) as the `BENCH_ci.json` document.
fn render_bench_json(
    records: &[BenchRecord],
    serving: Option<(&str, &[(usize, ServeReport)])>,
    maintenance: Option<&[MaintainRecord]>,
    isolation: Option<(&str, &IsoReport)>,
    scaling: Option<(&[ScalingCell], &[usize], &[usize])>,
    sc: Scale,
    threads: usize,
) -> String {
    let mut parts = Vec::new();
    if !records.is_empty() {
        parts.push("quick");
    }
    if serving.is_some() {
        parts.push("serve");
    }
    if maintenance.is_some() {
        parts.push("maintain");
    }
    if isolation.is_some() {
        parts.push("iso");
    }
    if scaling.is_some() {
        parts.push("scaling");
    }
    let suite = if parts.is_empty() {
        "quick".to_string()
    } else {
        parts.join("+")
    };
    let certified = !records.is_empty() && records.iter().all(|r| r.check_secs.is_some());
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 1,\n");
    s.push_str(&format!("  \"suite\": \"{suite}\",\n"));
    s.push_str(&format!("  \"scale\": {},\n", sc.fact_rows));
    s.push_str(&format!("  \"seed\": {},\n", sc.seed));
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str(&format!(
        "  \"git_revision\": \"{}\",\n",
        json_escape(&git_revision())
    ));
    let errors = records.iter().filter(|r| r.error.is_some()).count();
    s.push_str(&format!("  \"errors\": {errors},\n"));
    s.push_str(&format!("  \"certify\": {certified},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str("    {");
        s.push_str(&format!(
            "\"name\": \"{}/{}\", \"dataset\": \"{}\", \"workload\": \"{}\", ",
            json_escape(&r.dataset),
            json_escape(r.workload),
            json_escape(&r.dataset),
            json_escape(r.workload)
        ));
        match &r.error {
            Some(e) => s.push_str(&format!("\"ok\": false, \"error\": \"{}\"", json_escape(e))),
            None => {
                s.push_str(&format!(
                    "\"ok\": true, \"median_secs\": {}, \"min_secs\": {}, \"prepare_secs\": {}, \
                     \"runs\": {}, \"queries\": {}, \"output_rows\": {}",
                    json_f64(r.median_secs),
                    json_f64(r.min_secs),
                    json_f64(r.prepare_secs),
                    r.runs,
                    r.queries,
                    r.output_rows
                ));
                if let Some(check) = r.check_secs {
                    s.push_str(&format!(
                        ", \"certified\": true, \"check_secs\": {}",
                        json_f64(check)
                    ));
                }
            }
        }
        s.push('}');
        if i + 1 < records.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]");
    if let Some((dataset, cells)) = serving {
        s.push_str(",\n");
        s.push_str(&render_serve_json(dataset, cells));
    }
    if let Some(maintain_records) = maintenance {
        s.push_str(",\n");
        s.push_str(&render_maintain_json(maintain_records));
    }
    if let Some((dataset, report)) = isolation {
        s.push_str(",\n");
        s.push_str(&render_iso_json(dataset, report));
    }
    if let Some((cells, thread_grid, factors)) = scaling {
        s.push_str(",\n");
        s.push_str(&render_scaling_json(cells, thread_grid, factors));
    }
    s.push_str("\n}\n");
    s
}

/// One cell of the `--scaling` sweep: a (dataset, workload, scale factor,
/// thread count) point, median of several prepared executions.
struct ScalingCell {
    dataset: String,
    workload: &'static str,
    /// Multiplier applied to the base `LMFAO_SCALE`.
    scale_factor: usize,
    /// Fact-table rows actually generated for this cell.
    fact_rows: usize,
    threads: usize,
    median_secs: f64,
    min_secs: f64,
    error: Option<String>,
}

/// The `--scaling` sweep: the CM and RT workloads of every dataset, executed
/// at every point of `thread_grid` × `scale_factors`. For each scale factor
/// the four databases are regenerated once (streaming, so the 10–100× grids
/// stay memory-flat) and shared across all thread counts, so a sweep's cells
/// differ only in the worker count handed to the morsel scheduler.
fn scaling_bench(base: Scale, thread_grid: &[usize], scale_factors: &[usize]) -> Vec<ScalingCell> {
    const RUNS: usize = 3;
    println!(
        "\nLMFAO scaling — threads {thread_grid:?} × scale {scale_factors:?} \
         (base {} fact tuples), {RUNS} runs/cell",
        base.fact_rows
    );
    println!(
        "{:<10} {:<4} {:>7} {:>10} {:>8} {:>12} {:>9}",
        "Dataset", "WL", "factor", "rows", "threads", "median", "speedup"
    );
    let dynamics = DynamicRegistry::new();
    let mut cells = Vec::new();
    for &factor in scale_factors {
        let sc = base.scaled(factor);
        let (datasets, gen_secs) = time(|| all_datasets(sc));
        println!(
            "  ({factor}x: 4 datasets at {} fact tuples in {gen_secs:.2}s)",
            sc.fact_rows
        );
        for ds in &datasets {
            let spec = WorkloadSpec::for_dataset(&ds.name);
            let shared = lmfao_bench::shared_for(ds);
            for (wl, batch) in [("CM", spec.covar_batch(ds)), ("RT", spec.rt_node_batch(ds))] {
                let mut single_threaded = f64::NAN;
                for &t in thread_grid {
                    let engine = lmfao_bench::engine_for_shared(&shared, ds, EngineConfig::full(t));
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let prepared = engine.prepare(&batch).unwrap();
                        let mut times = Vec::with_capacity(RUNS);
                        for _ in 0..RUNS {
                            let (_, secs) = time(|| prepared.execute(&dynamics).unwrap());
                            times.push(secs);
                        }
                        times.sort_by(f64::total_cmp);
                        (times[times.len() / 2], times[0])
                    }));
                    let cell = match outcome {
                        Ok((median_secs, min_secs)) => {
                            if t == 1 {
                                single_threaded = median_secs;
                            }
                            println!(
                                "{:<10} {:<4} {:>7} {:>10} {:>8} {:>11.4}s {:>8.2}x",
                                ds.name,
                                wl,
                                factor,
                                sc.fact_rows,
                                t,
                                median_secs,
                                single_threaded / median_secs.max(1e-9)
                            );
                            ScalingCell {
                                dataset: ds.name.clone(),
                                workload: wl,
                                scale_factor: factor,
                                fact_rows: sc.fact_rows,
                                threads: t,
                                median_secs,
                                min_secs,
                                error: None,
                            }
                        }
                        Err(panic) => {
                            let msg = panic
                                .downcast_ref::<String>()
                                .cloned()
                                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                                .unwrap_or_else(|| "unknown panic".to_string());
                            println!(
                                "{:<10} {:<4} {:>7} threads {t} ERROR: {msg}",
                                ds.name, wl, factor
                            );
                            ScalingCell {
                                dataset: ds.name.clone(),
                                workload: wl,
                                scale_factor: factor,
                                fact_rows: sc.fact_rows,
                                threads: t,
                                median_secs: f64::NAN,
                                min_secs: f64::NAN,
                                error: Some(msg),
                            }
                        }
                    };
                    cells.push(cell);
                }
            }
        }
    }
    cells
}

/// The CI benchmark smoke suite: every Table-3 workload on every dataset,
/// median-of-N prepared executions. Returns the per-workload records; any
/// record with an error set means the run must exit non-zero.
fn quick(datasets: &[Dataset], sc: Scale, threads: usize, certify: bool) -> Vec<BenchRecord> {
    const RUNS: usize = 3;
    println!(
        "LMFAO bench smoke — scale {} fact tuples, {threads} threads, {RUNS} runs/workload{}",
        sc.fact_rows,
        if certify { ", certified" } else { "" }
    );

    let mut records: Vec<BenchRecord> = Vec::new();
    for ds in datasets {
        let spec = WorkloadSpec::for_dataset(&ds.name);
        let engine = engine_for(ds, EngineConfig::full(threads));
        let mut workloads = vec![("Count", spec.count_batch(ds))];
        workloads.extend(spec.workloads(ds));
        for (wl, batch) in workloads {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let dynamics = DynamicRegistry::new();
                let (prepared, prepare_secs) = time(|| engine.prepare(&batch).unwrap());
                let mut times = Vec::with_capacity(RUNS);
                let mut output_rows = 0usize;
                for _ in 0..RUNS {
                    let (result, secs) = time(|| prepared.execute(&dynamics).unwrap());
                    output_rows = result.queries.iter().map(|q| q.len()).sum();
                    times.push(secs);
                }
                times.sort_by(f64::total_cmp);
                // The certified pass exercises the untrusted-engine /
                // trusted-checker split end to end: emit the certificate,
                // serialize it to canonical JSON, and time the independent
                // checker (parse + check) over three passes.
                let check_secs = certify.then(|| {
                    let (_, cert) = prepared.execute_certified(&dynamics).unwrap();
                    let json = lmfao_certify::to_json(&cert);
                    let mut checks = Vec::with_capacity(RUNS);
                    for _ in 0..RUNS {
                        let (verdict, secs) = time(|| {
                            lmfao_certify::parse_certificate(&json)
                                .and_then(|c| lmfao_certify::check_certificate(&c))
                        });
                        if let Err(e) = verdict {
                            panic!("certificate rejected: {e}");
                        }
                        checks.push(secs);
                    }
                    checks.sort_by(f64::total_cmp);
                    checks[checks.len() / 2]
                });
                (
                    times[times.len() / 2],
                    times[0],
                    prepare_secs,
                    output_rows,
                    check_secs,
                )
            }));
            let record = match outcome {
                Ok((median_secs, min_secs, prepare_secs, output_rows, check_secs)) => BenchRecord {
                    dataset: ds.name.clone(),
                    workload: wl,
                    median_secs,
                    min_secs,
                    prepare_secs,
                    runs: RUNS,
                    output_rows,
                    queries: batch.len(),
                    check_secs,
                    error: None,
                },
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "unknown panic".to_string());
                    BenchRecord {
                        dataset: ds.name.clone(),
                        workload: wl,
                        median_secs: f64::NAN,
                        min_secs: f64::NAN,
                        prepare_secs: f64::NAN,
                        runs: 0,
                        output_rows: 0,
                        queries: batch.len(),
                        check_secs: None,
                        error: Some(msg),
                    }
                }
            };
            match &record.error {
                Some(e) => println!("{:<10} {:<6} ERROR: {e}", record.dataset, record.workload),
                None => println!(
                    "{:<10} {:<6} median {:>9.4}s  min {:>9.4}s  plan {:>9.4}s  {:>8} rows / {} queries{}",
                    record.dataset,
                    record.workload,
                    record.median_secs,
                    record.min_secs,
                    record.prepare_secs,
                    record.output_rows,
                    record.queries,
                    match record.check_secs {
                        Some(c) => format!("  check {c:>8.5}s"),
                        None => String::new(),
                    }
                ),
            }
            records.push(record);
        }
    }
    records
}

/// Runs the serving benchmark for the CI artifact: covar batch over one
/// dataset, reader threads against epoch-published snapshots, one paced
/// writer. Prints the report; the caller folds `report.ok()` into the exit
/// code.
fn serve_bench(
    datasets: &[Dataset],
    dataset: &str,
    threads: usize,
    config: &ServeConfig,
) -> Option<ServeReport> {
    let ds = datasets.iter().find(|d| d.name == dataset)?;
    let spec = WorkloadSpec::for_dataset(&ds.name);
    let batch = spec.covar_batch(ds);
    println!(
        "\nLMFAO serving — {} covar batch ({} queries), {} readers, target {:.0} updates/s, {:.0}s",
        ds.name,
        batch.len(),
        config.readers,
        config.updates_per_sec,
        config.duration_secs
    );
    match run_serve(ds, &batch, EngineConfig::full(threads), config) {
        Ok(report) => {
            report.print();
            Some(report)
        }
        Err(e) => {
            eprintln!("serving run failed: {e}");
            None
        }
    }
}

/// Runs the isolation stress harness for the CI artifact: multi-relation
/// transaction stream against the covar batch of one dataset, concurrent
/// readers recording a black-box history, checker verdict over the merge.
fn iso_bench(
    datasets: &[Dataset],
    dataset: &str,
    threads: usize,
    config: &IsoConfig,
) -> Option<IsoReport> {
    let ds = datasets.iter().find(|d| d.name == dataset)?;
    let spec = WorkloadSpec::for_dataset(&ds.name);
    let batch = spec.covar_batch(ds);
    println!(
        "\nLMFAO isolation — {} covar batch ({} queries), {} readers, target {:.0} commits/s, {:.0}s",
        ds.name,
        batch.len(),
        config.readers,
        config.commits_per_sec,
        config.duration_secs
    );
    match run_iso(ds, &batch, EngineConfig::full(threads), config) {
        Ok(report) => {
            report.print();
            Some(report)
        }
        Err(e) => {
            eprintln!("isolation run failed: {e}");
            None
        }
    }
}

/// The CI entry point behind `--quick` / `--serve` / `--maintain` / `--iso`:
/// runs the selected suites over one shared set of generated datasets,
/// writes the combined JSON artifact, and returns the process exit code.
fn ci_mode(
    is_quick: bool,
    certify: bool,
    is_maintain: bool,
    serve_config: Option<(&str, &ServeConfig, &[usize])>,
    iso_config: Option<(&str, &IsoConfig)>,
    scaling_config: Option<(&[usize], &[usize])>,
    json_path: Option<&str>,
) -> i32 {
    let sc = Scale::new(
        std::env::var("LMFAO_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(5_000),
        42,
    );
    let threads = threads();
    let (datasets, gen_time) = time(|| all_datasets(sc));
    println!("generated 4 datasets in {gen_time:.2}s");

    let records = if is_quick {
        quick(&datasets, sc, threads, certify)
    } else {
        Vec::new()
    };
    let mut code = 0;
    let errors = records.iter().filter(|r| r.error.is_some()).count();
    if errors > 0 {
        eprintln!("{errors} workload(s) errored");
        code = 1;
    }

    let serving = serve_config.map(|(dataset, config, reader_grid)| {
        let mut cells: Vec<(usize, ServeReport)> = Vec::new();
        for &readers in reader_grid {
            let mut cell_config = config.clone();
            cell_config.readers = readers;
            match serve_bench(&datasets, dataset, threads, &cell_config) {
                Some(r) => {
                    if !r.ok() {
                        eprintln!(
                            "serving audit failed at {readers} reader(s): {} mismatch(es), \
                             {} certificate rejection(s){}",
                            r.mismatches,
                            r.certificate_failures,
                            r.writer_error
                                .as_deref()
                                .map(|e| format!(", writer error: {e}"))
                                .unwrap_or_default()
                        );
                        code = 1;
                    }
                    cells.push((readers, r));
                }
                None => code = 1,
            }
        }
        (dataset, cells)
    });

    let maintenance = is_maintain.then(|| {
        let maintain_records = maintain_bench(&datasets, threads);
        let maintain_errors = maintain_records
            .iter()
            .filter(|r| r.error.is_some())
            .count();
        if maintain_errors > 0 {
            eprintln!("{maintain_errors} maintenance dataset(s) errored");
            code = 1;
        }
        maintain_records
    });

    let scaling_cells = scaling_config.map(|(thread_grid, factors)| {
        let cells = scaling_bench(sc, thread_grid, factors);
        let cell_errors = cells.iter().filter(|c| c.error.is_some()).count();
        if cell_errors > 0 {
            eprintln!("{cell_errors} scaling cell(s) errored");
            code = 1;
        }
        cells
    });

    let isolation = iso_config.map(|(dataset, config)| {
        let report = iso_bench(&datasets, dataset, threads, config);
        match &report {
            Some(r) if r.ok() => {}
            Some(r) => {
                eprintln!(
                    "isolation check failed: {} violation(s){}",
                    r.violations.len(),
                    r.writer_error
                        .as_deref()
                        .map(|e| format!(", writer error: {e}"))
                        .unwrap_or_default()
                );
                code = 1;
            }
            None => code = 1,
        }
        (dataset, report)
    });

    if let Some(path) = json_path {
        let serving_section = serving
            .as_ref()
            .filter(|(_, cells)| !cells.is_empty())
            .map(|(ds, cells)| (*ds, cells.as_slice()));
        let iso_section = isolation
            .as_ref()
            .and_then(|(ds, r)| r.as_ref().map(|r| (*ds, r)));
        let scaling_section = scaling_cells
            .as_ref()
            .zip(scaling_config)
            .map(|(cells, (grid, factors))| (cells.as_slice(), grid, factors));
        let doc = render_bench_json(
            &records,
            serving_section,
            maintenance.as_deref(),
            iso_section,
            scaling_section,
            sc,
            threads,
        );
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("failed to write {path}: {e}");
            return 1;
        }
        let mut extras = String::new();
        if serving_section.is_some() {
            extras.push_str(" + serving");
        }
        if maintenance.is_some() {
            extras.push_str(" + maintenance");
        }
        if iso_section.is_some() {
            extras.push_str(" + isolation");
        }
        if scaling_section.is_some() {
            extras.push_str(" + scaling");
        }
        println!("wrote {path} ({} workloads{extras})", records.len());
    }
    code
}

/// One dataset's maintenance measurements: full re-execution versus
/// single-delta refresh, and the transactional write path versus applying
/// the same deltas one relation at a time.
struct MaintainRecord {
    dataset: String,
    /// Median full-execution wall-clock of the prepared RT batch.
    full_exec_secs: f64,
    /// Median single-delta refresh (fact-table stream, one-op deltas).
    refresh_secs: f64,
    /// Median one-walk commit of a multi-relation transaction.
    txn_commit_secs: f64,
    /// Median of committing the same transaction's deltas sequentially,
    /// one relation at a time (sum of the per-delta commits).
    sequential_secs: f64,
    /// `sequential_secs / txn_commit_secs` — the one-DAG-walk payoff.
    txn_speedup: f64,
    /// Median one-walk commit of the same transactions on a single-threaded
    /// engine — the sequential DAG walk the parallel frontier replaces.
    seq_walk_secs: f64,
    /// `seq_walk_secs / txn_commit_secs` — the parallel-frontier payoff.
    /// Near 1.0 on single-core containers, where the frontier pool degrades
    /// to one worker.
    frontier_speedup: f64,
    /// Relations each measured transaction spans.
    txn_relations: usize,
    error: Option<String>,
}

/// The `--maintain` suite: refresh latency of maintained batches versus
/// full re-execution, plus the transactional write path versus sequential
/// per-relation application, on the RT workload of every dataset. Medians
/// over several reproducible updates.
fn maintain_bench(datasets: &[Dataset], threads: usize) -> Vec<MaintainRecord> {
    use lmfao_datagen::{
        fact_relation, transaction_stream, txn_relations, update_stream, UpdateMix,
    };
    const REFRESHES: usize = 9;
    const TXNS: usize = 9;
    println!(
        "\nLMFAO maintenance — RT batch, {REFRESHES} refreshes + {TXNS} transactions per dataset"
    );
    println!(
        "{:<10} {:>12} {:>12} {:>9} {:>12} {:>12} {:>9} {:>12} {:>9}",
        "Dataset",
        "full exec",
        "refresh",
        "speedup",
        "txn commit",
        "sequential",
        "txn spdup",
        "seq walk",
        "frontier"
    );
    let dynamics = DynamicRegistry::new();
    let mut records = Vec::new();
    for ds in datasets {
        let spec = WorkloadSpec::for_dataset(&ds.name);
        let batch = spec.rt_node_batch(ds);
        let engine = engine_for(ds, EngineConfig::full(threads));
        let fail = |msg: String| MaintainRecord {
            dataset: ds.name.clone(),
            full_exec_secs: f64::NAN,
            refresh_secs: f64::NAN,
            txn_commit_secs: f64::NAN,
            sequential_secs: f64::NAN,
            txn_speedup: f64::NAN,
            seq_walk_secs: f64::NAN,
            frontier_speedup: f64::NAN,
            txn_relations: 0,
            error: Some(msg),
        };
        let prepared = match engine.prepare(&batch) {
            Ok(p) => p,
            Err(e) => {
                println!("{:<10} ERROR: {e}", ds.name);
                records.push(fail(e.to_string()));
                continue;
            }
        };
        // Full-execute median.
        let mut exec_times = Vec::new();
        for _ in 0..3 {
            let (_, secs) = time(|| prepared.execute(&dynamics).unwrap());
            exec_times.push(secs);
        }
        exec_times.sort_by(f64::total_cmp);
        let full = exec_times[exec_times.len() / 2];

        // Three identical maintained states: one commits whole transactions
        // (parallel frontier when `threads > 1`), one applies the same
        // deltas one relation at a time (several DAG walks), and one commits
        // whole transactions on a single-threaded engine (one *sequential*
        // DAG walk) — so both the one-walk payoff and the parallel-frontier
        // payoff are measured over identical data.
        let mut txn_side = match prepared.into_serving(&dynamics) {
            Ok(m) => m,
            Err(e) => {
                println!("{:<10} ERROR: {e}", ds.name);
                records.push(fail(e.to_string()));
                continue;
            }
        };
        let mut seq_side = match engine
            .prepare(&batch)
            .and_then(|p| p.into_serving(&dynamics))
        {
            Ok(m) => m,
            Err(e) => {
                println!("{:<10} ERROR: {e}", ds.name);
                records.push(fail(e.to_string()));
                continue;
            }
        };
        let mut walk_side = match engine_for(ds, EngineConfig::full(1))
            .prepare(&batch)
            .and_then(|p| p.into_serving(&dynamics))
        {
            Ok(m) => m,
            Err(e) => {
                println!("{:<10} ERROR: {e}", ds.name);
                records.push(fail(e.to_string()));
                continue;
            }
        };

        // Single-delta refresh median over a reproducible fact-table stream.
        let fact = fact_relation(&ds.name);
        let stream = update_stream(ds, fact, &UpdateMix::balanced(REFRESHES));
        let mut refresh_times = Vec::new();
        for delta in &stream {
            let (_, secs) = time(|| txn_side.commit(delta, &dynamics).unwrap());
            seq_side.commit(delta, &dynamics).unwrap();
            walk_side.commit(delta, &dynamics).unwrap();
            refresh_times.push(secs);
        }
        refresh_times.sort_by(f64::total_cmp);
        let refresh = refresh_times[refresh_times.len() / 2];

        // Transactional write path: multi-relation transactions committed in
        // one walk versus their deltas applied relation by relation.
        let relations = txn_relations(&ds.name);
        let txns: Vec<_> = transaction_stream(ds, &relations, &UpdateMix::balanced(TXNS).seed(7))
            .into_iter()
            .filter(|t| t.num_relations() == relations.len())
            .take(TXNS)
            .collect();
        let mut txn_times = Vec::new();
        let mut seq_times = Vec::new();
        let mut walk_times = Vec::new();
        for txn in &txns {
            let (_, txn_secs) = time(|| txn_side.commit(txn.clone(), &dynamics).unwrap());
            let (_, seq_secs) = time(|| {
                for delta in txn.deltas() {
                    seq_side.commit(delta, &dynamics).unwrap();
                }
            });
            let (_, walk_secs) = time(|| walk_side.commit(txn.clone(), &dynamics).unwrap());
            txn_times.push(txn_secs);
            seq_times.push(seq_secs);
            walk_times.push(walk_secs);
        }
        txn_times.sort_by(f64::total_cmp);
        seq_times.sort_by(f64::total_cmp);
        walk_times.sort_by(f64::total_cmp);
        let (txn_commit, sequential, seq_walk) = match txns.is_empty() {
            true => (f64::NAN, f64::NAN, f64::NAN),
            false => (
                txn_times[txn_times.len() / 2],
                seq_times[seq_times.len() / 2],
                walk_times[walk_times.len() / 2],
            ),
        };
        let txn_speedup = sequential / txn_commit.max(1e-9);
        let frontier_speedup = seq_walk / txn_commit.max(1e-9);
        println!(
            "{:<10} {:>10.4}s {:>10.6}s {:>8.1}x {:>10.6}s {:>10.6}s {:>8.2}x {:>10.6}s {:>8.2}x",
            ds.name,
            full,
            refresh,
            full / refresh.max(1e-9),
            txn_commit,
            sequential,
            txn_speedup,
            seq_walk,
            frontier_speedup
        );
        records.push(MaintainRecord {
            dataset: ds.name.clone(),
            full_exec_secs: full,
            refresh_secs: refresh,
            txn_commit_secs: txn_commit,
            sequential_secs: sequential,
            txn_speedup,
            seq_walk_secs: seq_walk,
            frontier_speedup,
            txn_relations: relations.len(),
            error: None,
        });
    }
    records
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Flag parsing: `--quick` selects the CI smoke suite; `--serve` the
    // concurrent-serving benchmark; `--maintain` the maintenance suite
    // (refresh latency plus the transactional write path); `--iso` the
    // isolation stress harness — all four combine into one artifact.
    // `--certify` adds the independent certificate check to every `--quick`
    // workload; `--json [path]` writes the machine-readable artifact
    // (default BENCH_ci.json); `--threads N` overrides the worker count
    // (recorded in the JSON).
    let mut positional: Vec<&str> = Vec::new();
    let mut is_quick = false;
    let mut is_certify = false;
    let mut is_maintain = false;
    let mut is_serve = false;
    let mut is_iso = false;
    let mut is_scaling = false;
    let mut thread_grid: Vec<usize> = vec![1, 2, 4, 8];
    let mut scale_factors: Vec<usize> = vec![1, 10];
    let mut serve_config = ServeConfig::default();
    let mut iso_config = IsoConfig::default();
    let mut reader_grid: Vec<usize> = vec![serve_config.readers];
    let mut serve_dataset = "Retailer".to_string();
    let mut json_path: Option<String> = None;
    let parse_list = |args: &[String], i: usize, flag: &str| -> Vec<usize> {
        let raw: String = parse_flag_value(args, i, flag);
        raw.split(',')
            .map(|p| {
                p.trim().parse::<usize>().unwrap_or_else(|_| {
                    eprintln!("{flag}: `{p}` is not a positive integer");
                    std::process::exit(2);
                })
            })
            .map(|n| n.max(1))
            .collect()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => is_quick = true,
            "--certify" => is_certify = true,
            "--maintain" => is_maintain = true,
            "--serve" => is_serve = true,
            "--iso" => is_iso = true,
            "--scaling" => is_scaling = true,
            "--thread-grid" => {
                thread_grid = parse_list(&args, i, "--thread-grid");
                i += 1;
            }
            "--scale-factors" => {
                scale_factors = parse_list(&args, i, "--scale-factors");
                i += 1;
            }
            "--readers" => {
                reader_grid = parse_list(&args, i, "--readers");
                // The isolation harness is one stress run, not a sweep: it
                // takes the most contended point of the grid.
                iso_config.readers = reader_grid.iter().copied().max().unwrap_or(1);
                i += 1;
            }
            "--serve-secs" => {
                serve_config.duration_secs = parse_flag_value(&args, i, "--serve-secs");
                i += 1;
            }
            "--iso-secs" => {
                iso_config.duration_secs = parse_flag_value(&args, i, "--iso-secs");
                i += 1;
            }
            "--updates-per-sec" => {
                serve_config.updates_per_sec = parse_flag_value(&args, i, "--updates-per-sec");
                i += 1;
            }
            "--dataset" => {
                serve_dataset = parse_flag_value(&args, i, "--dataset");
                i += 1;
            }
            "--threads" => {
                let n: usize = args
                    .get(i + 1)
                    .and_then(|a| a.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--threads requires a positive integer");
                        std::process::exit(2);
                    });
                THREAD_OVERRIDE.set(n.max(1)).ok();
                i += 1;
            }
            "--json" => {
                let next = args.get(i + 1).filter(|a| !a.starts_with("--"));
                json_path = Some(match next {
                    Some(p) => {
                        i += 1;
                        p.clone()
                    }
                    None => "BENCH_ci.json".to_string(),
                });
            }
            other => positional.push(other),
        }
        i += 1;
    }
    if is_quick || is_serve || is_maintain || is_iso || is_scaling {
        let serving = is_serve.then_some((
            serve_dataset.as_str(),
            &serve_config,
            reader_grid.as_slice(),
        ));
        let iso = is_iso.then_some((serve_dataset.as_str(), &iso_config));
        let scaling = is_scaling.then_some((thread_grid.as_slice(), scale_factors.as_slice()));
        std::process::exit(ci_mode(
            is_quick,
            is_certify,
            is_maintain,
            serving,
            iso,
            scaling,
            json_path.as_deref(),
        ));
    }

    let what = positional.first().copied().unwrap_or("all");
    let sc = scale();
    println!(
        "LMFAO experiments — synthetic scale: {} fact tuples, {} threads",
        sc.fact_rows,
        threads()
    );
    let (datasets, gen_time) = time(|| all_datasets(sc));
    println!("generated 4 datasets in {gen_time:.2}s");

    match what {
        "table1" => table1(&datasets),
        "table2" => table2(&datasets),
        "table3" => table3(&datasets),
        "table4" | "table5" => tables45(&datasets),
        "figure5" => figure5(&datasets),
        "example33" => example33(),
        "all" => {
            table1(&datasets);
            table2(&datasets);
            table3(&datasets);
            figure5(&datasets);
            tables45(&datasets);
            example33();
        }
        other => {
            eprintln!("unknown experiment `{other}`; use table1..table5, figure5, example33, all");
            std::process::exit(1);
        }
    }
}
