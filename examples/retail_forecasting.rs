//! Retail demand forecasting: train a ridge linear regression model and a
//! regression tree over the Retailer database — the paper's Table 4 use case —
//! and compare against the materialize-then-learn baseline.
//!
//! Run with: `cargo run --release --example retail_forecasting`

use lmfao::baseline::{self, DenseTask, MaterializedEngine};
use lmfao::prelude::*;
use std::time::Instant;

fn main() {
    let dataset = lmfao::datagen::retailer::generate(Scale::new(20_000, 7));
    println!(
        "Retailer: {} tuples across {} relations",
        dataset.total_tuples(),
        dataset.db.schema().num_relations()
    );

    // Continuous features + the label (inventory units, the paper's target).
    let label = dataset.attr("inventoryunits");
    let features = vec![
        dataset.attr("avghhi"),
        dataset.attr("sell_area_sq_ft"),
        dataset.attr("distance_comp"),
        dataset.attr("population"),
        dataset.attr("medianage"),
        dataset.attr("maxtemp"),
        dataset.attr("mintemp"),
        dataset.attr("prices"),
    ];

    // ---- LMFAO: covar matrix + BGD over the sufficient statistics ----------
    let start = Instant::now();
    let mut spec_features = features.clone();
    spec_features.push(label);
    let spec = CovarSpec::continuous_only(spec_features);
    let cb = covar_batch(&spec);
    let engine = Engine::new(
        dataset.db.clone(),
        dataset.tree.clone(),
        EngineConfig::full(2),
    );
    // Plan once, execute; the covar matrix does not depend on the model
    // parameters, so one execution feeds every BGD iteration.
    let prepared = engine.prepare(&cb.batch).unwrap();
    let result = prepared.execute(&DynamicRegistry::new()).unwrap();
    let covar = assemble_covar_matrix(&cb, &result);
    let model = train_linear_regression(&covar, &LinRegConfig::default());
    let lmfao_time = start.elapsed();
    println!(
        "\n[LMFAO] covar batch: {} queries -> {} views in {} groups",
        prepared.len(),
        prepared.stats().num_views,
        prepared.stats().num_groups
    );
    println!(
        "[LMFAO] linear regression trained in {:.3}s ({} BGD iterations)",
        lmfao_time.as_secs_f64(),
        model.iterations
    );

    // ---- Baseline: materialize the join, then gradient descent -------------
    let start = Instant::now();
    let baseline_engine = MaterializedEngine::materialize(&dataset.db, &dataset.tree);
    let dense = baseline::export_dense(
        baseline_engine.join(),
        dataset.db.schema(),
        &features,
        label,
    );
    let theta = baseline::train_linear_regression_dense(&dense, 1e-3, 1e-9, 50);
    let baseline_time = start.elapsed();
    println!(
        "\n[baseline] materialized join: {} tuples ({} MB), trained in {:.3}s",
        baseline_engine.join().len(),
        baseline_engine.join_size_bytes() / (1024 * 1024),
        baseline_time.as_secs_f64()
    );
    println!(
        "speedup of LMFAO over materialize-then-learn: {:.1}x",
        baseline_time.as_secs_f64() / lmfao_time.as_secs_f64().max(1e-9)
    );
    let _ = theta;

    // ---- Regression tree over the same database ----------------------------
    let start = Instant::now();
    let tree_config = TreeConfig {
        task: TreeTask::Regression,
        max_depth: 3,
        min_samples: 100,
        buckets: 8,
    };
    let tree = train_decision_tree(&engine, &features, label, &tree_config).unwrap();
    println!(
        "\n[LMFAO] regression tree: {} nodes, {} executed, {} aggregate queries issued, {:.3}s",
        tree.size(),
        tree.nodes_executed,
        tree.queries_issued,
        start.elapsed().as_secs_f64()
    );

    // Evaluate both models on the materialized join (as the test set proxy).
    // The linear model's RMSE is also computable purely from aggregates
    // (θ'ᵀCθ' over a covar batch) — no join needed:
    let aggregate_rmse =
        lmfao::ml::evaluate::linreg_rmse_via_aggregates(&engine, &model, label).unwrap();
    let test = baseline_engine.join();
    let lr_rmse = model.rmse(test, label);
    assert!(
        (aggregate_rmse - lr_rmse).abs() < 1e-6 * (1.0 + lr_rmse),
        "aggregate-only RMSE {aggregate_rmse} must match the materialized RMSE {lr_rmse}"
    );
    let tree_rmse = lmfao::ml::evaluate::tree_rmse(&tree, test, label);
    let mean: f64 = (0..test.len())
        .map(|i| test.value(i, test.position(label).unwrap()).as_f64())
        .sum::<f64>()
        / test.len().max(1) as f64;
    let baseline_rmse = lmfao::ml::evaluate::rmse(test, label, |_| mean);
    println!("\nmodel quality (RMSE over the joined data):");
    println!("  predict-the-mean baseline: {baseline_rmse:.3}");
    println!("  ridge linear regression:   {lr_rmse:.3}");
    println!("  regression tree:           {tree_rmse:.3}");

    let dense_tree = baseline::train_tree_dense(&dense, DenseTask::Regression, 3, 100, 8);
    println!(
        "  (baseline dense CART has {} nodes for comparison)",
        dense_tree.size()
    );
}
