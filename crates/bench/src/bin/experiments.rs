//! Regenerates every table and figure of the LMFAO paper's evaluation over
//! the synthetic datasets.
//!
//! ```text
//! cargo run --release -p lmfao-bench --bin experiments -- all
//! cargo run --release -p lmfao-bench --bin experiments -- table3 --threads 2
//! LMFAO_SCALE=100000 cargo run --release -p lmfao-bench --bin experiments -- figure5
//! ```
//!
//! Available experiments: `table1`, `table2`, `table3`, `table4`, `table5`,
//! `figure5`, `example33`, `all` (the default). The fact-table size is
//! controlled with the `LMFAO_SCALE` environment variable (default 20000; a
//! value that is not a row count exits 2, as an unknown flag does);
//! `--threads N` sets the engine's worker count (default: the available
//! parallelism, capped at 8).
//!
//! Every number printed is one wall-clock measurement of one run — enough to
//! reproduce the shape of the paper's tables, not to judge a performance
//! change. Performance is measured by `perfbench/` (see its README).

use lmfao_baseline::{self as baseline, DenseTask, MaterializedEngine};
use lmfao_bench::{engine_for, scale_from_env, WorkloadSpec};
use lmfao_core::EngineConfig;
use lmfao_datagen::{all_datasets, Dataset, Scale};
use lmfao_expr::{Aggregate, DynamicRegistry, QueryBatch};
use lmfao_ml as ml;
use std::time::Instant;

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
    let mut rt_shapes = vec![];
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
        let (tree, t_rt) = time(|| {
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
        rt_shapes.push((name, tree_shape(&tree.unwrap(), t_rt)));
    }
    let row = |name: &str, vals: &[f64]| {
        println!("{:<26} {:>10.3} {:>10.3}", name, vals[0], vals[1]);
    };
    row("Join materialization", &join_times);
    row("Linear regression LMFAO", &lr_lmfao);
    row("Linear regression baseline", &lr_baseline);
    row("Regression tree LMFAO", &rt_lmfao);
    row("Regression tree baseline", &rt_baseline);
    for (name, shape) in rt_shapes {
        println!("(LMFAO regression tree, {name}: {shape})");
    }

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
    println!("(LMFAO classification tree: {})", tree_shape(&tree, t_ct));
}

/// A learned tree's batch shape: its nodes, the nodes whose batch executed
/// (the others are settled from their parent's statistics), the aggregate
/// queries those issued, and the training's milliseconds per tree node.
fn tree_shape(tree: &ml::DecisionTree, secs: f64) -> String {
    format!(
        "{} nodes, {} executed, {} aggregate queries issued, {:.2} ms per node",
        tree.size(),
        tree.nodes_executed,
        tree.queries_issued,
        secs * 1e3 / tree.size() as f64
    )
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

const USAGE: &str = "\
usage: experiments [table1|table2|table3|table4|table5|figure5|example33|all] [--threads N]
performance is measured by the benchmark, not here: \
cargo run --release --manifest-path perfbench/Cargo.toml -- all";

fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut what: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                let n: usize = args
                    .get(i + 1)
                    .and_then(|a| a.parse().ok())
                    .unwrap_or_else(|| usage_error("--threads requires a positive integer"));
                THREAD_OVERRIDE.set(n.max(1)).ok();
                i += 1;
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag `{flag}`")),
            name if what.is_none() => what = Some(name),
            extra => usage_error(&format!("unexpected argument `{extra}`")),
        }
        i += 1;
    }
    // Resolved before the datasets are generated, so a mistyped name costs
    // nothing.
    let run: &[fn(&[Dataset])] = match what.unwrap_or("all") {
        "table1" => &[table1],
        "table2" => &[table2],
        "table3" => &[table3],
        "table4" | "table5" => &[tables45],
        "figure5" => &[figure5],
        "example33" => &[|_| example33()],
        "all" => &[table1, table2, table3, figure5, tables45, |_| example33()],
        other => usage_error(&format!("unknown experiment `{other}`")),
    };

    let sc = scale_from_env(20_000).unwrap_or_else(|e| usage_error(&e));
    println!(
        "LMFAO experiments — synthetic scale: {} fact tuples, {} threads",
        sc.fact_rows,
        threads()
    );
    let (datasets, gen_time) = time(|| all_datasets(sc));
    println!("generated 4 datasets in {gen_time:.2}s");
    for experiment in run {
        experiment(&datasets);
    }
}
