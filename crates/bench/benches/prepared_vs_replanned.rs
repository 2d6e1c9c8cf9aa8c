//! Criterion benchmark for the prepared-batch API: plan once / execute many
//! versus re-planning on every call.
//!
//! The workload is a dynamically *weighted* covariance batch — the full
//! continuous × categorical covar-matrix shape of the CM workload, with every
//! aggregate carrying a dynamic per-tuple weight function as in iterative
//! reweighted model fitting — executed 50 times with the weight closure
//! swapped between iterations. The `prepared` path calls `Engine::prepare`
//! once and then only `PreparedBatch::execute`; the `replanned` path pays the
//! full optimizer stack (roots → pushdown → merging → grouping → plans) on
//! every iteration by calling `Engine::prepare` again. The `prepare_only`
//! entry shows the per-call planning cost the prepared API amortizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lmfao_bench::engine_for;
use lmfao_core::EngineConfig;
use lmfao_data::AttrId;
use lmfao_datagen::{favorita, Scale};
use lmfao_expr::{Aggregate, DynamicRegistry, ProductTerm, QueryBatch, ScalarFunction};

/// Number of weight-mutating executions per measured sample.
const ITERATIONS: usize = 50;

/// The dynamic weight function is registered first, so its id is fixed.
const WEIGHT_ID: usize = 0;

/// A covariance batch where every aggregate is multiplied by the dynamic
/// weight `w(weight_attr)`: `Σw`, the degree-1 entries `Σw·Xj` (continuous)
/// and `Q(Xj; Σw)` (categorical, one-hot), and the degree-2 entries over all
/// pairs — `Σw·Xj·Xk`, `Q(Xj; Σw·Xk)` and `Q(Xj, Xk; Σw)` respectively.
fn weighted_covar_batch(
    continuous: &[AttrId],
    categorical: &[AttrId],
    weight_attr: AttrId,
) -> QueryBatch {
    let weight = ScalarFunction::Dynamic {
        id: WEIGHT_ID,
        attrs: vec![weight_attr],
    };
    let w = || ProductTerm::single(weight.clone());
    let nc = continuous.len();
    let attrs: Vec<AttrId> = continuous.iter().chain(categorical).copied().collect();

    let mut batch = QueryBatch::new();
    batch.push("w_count", vec![], vec![Aggregate::product(w())]);
    for (j, &a) in attrs.iter().enumerate() {
        if j < nc {
            batch.push(
                format!("w_1_{j}"),
                vec![],
                vec![Aggregate::product(w().times(ScalarFunction::Identity(a)))],
            );
        } else {
            batch.push(format!("w_1_{j}"), vec![a], vec![Aggregate::product(w())]);
        }
        for (k, &b) in attrs.iter().enumerate().skip(j) {
            let name = format!("w_2_{j}_{k}");
            match (j < nc, k < nc) {
                (true, true) => batch.push(
                    name,
                    vec![],
                    vec![Aggregate::product(
                        w().times(ScalarFunction::Identity(a))
                            .times(ScalarFunction::Identity(b)),
                    )],
                ),
                (true, false) => batch.push(
                    name,
                    vec![b],
                    vec![Aggregate::product(w().times(ScalarFunction::Identity(a)))],
                ),
                (false, true) => batch.push(
                    name,
                    vec![a],
                    vec![Aggregate::product(w().times(ScalarFunction::Identity(b)))],
                ),
                (false, false) => {
                    if j == k {
                        batch.push(name, vec![a], vec![Aggregate::product(w())])
                    } else {
                        batch.push(name, vec![a, b], vec![Aggregate::product(w())])
                    }
                }
            };
        }
    }
    batch
}

/// A fresh registry with the weight function registered under `WEIGHT_ID`.
fn weight_registry() -> DynamicRegistry {
    let mut dynamics = DynamicRegistry::new();
    let id = dynamics.register(|_| 1.0);
    assert_eq!(id, WEIGHT_ID);
    dynamics
}

/// Swaps the weight closure for iteration `i` (a different, cheap function
/// every time, so no result can be cached across iterations).
fn set_iteration_weight(dynamics: &mut DynamicRegistry, i: usize) {
    let step = 1.0 + i as f64 / ITERATIONS as f64;
    dynamics.replace(WEIGHT_ID, move |args| 1.0 + step * args[0].as_f64().abs());
}

fn bench_prepared_vs_replanned(c: &mut Criterion) {
    let ds = favorita::generate(Scale::new(1_000, 42));
    let continuous = vec![
        ds.attr("units"),
        ds.attr("txns"),
        ds.attr("price"),
        ds.attr("cluster"),
    ];
    let categorical = vec![
        ds.attr("family"),
        ds.attr("city"),
        ds.attr("state"),
        ds.attr("stype"),
    ];
    let batch = weighted_covar_batch(&continuous, &categorical, ds.attr("units"));
    let engine = engine_for(&ds, EngineConfig::default());

    let mut group = c.benchmark_group("prepared_vs_replanned/Favorita");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));

    group.bench_with_input(
        BenchmarkId::from_parameter(format!("prepared_{ITERATIONS}x")),
        &batch,
        |b, batch| {
            b.iter(|| {
                // Plan once, execute ITERATIONS times with mutating weights.
                let prepared = engine.prepare(batch).unwrap();
                let mut dynamics = weight_registry();
                let mut acc = 0.0;
                for i in 0..ITERATIONS {
                    set_iteration_weight(&mut dynamics, i);
                    acc += prepared
                        .execute(&dynamics)
                        .unwrap()
                        .query("w_count")
                        .scalar()[0];
                }
                acc
            })
        },
    );

    group.bench_with_input(
        BenchmarkId::from_parameter(format!("replanned_{ITERATIONS}x")),
        &batch,
        |b, batch| {
            b.iter(|| {
                // Re-run the whole optimizer stack on every iteration.
                let mut dynamics = weight_registry();
                let mut acc = 0.0;
                for i in 0..ITERATIONS {
                    set_iteration_weight(&mut dynamics, i);
                    acc += engine
                        .prepare(batch)
                        .and_then(|prepared| prepared.execute(&dynamics))
                        .unwrap()
                        .query("w_count")
                        .scalar()[0];
                }
                acc
            })
        },
    );

    group.bench_with_input(
        BenchmarkId::from_parameter("prepare_only"),
        &batch,
        |b, batch| b.iter(|| engine.prepare(batch).unwrap().stats().num_views),
    );

    group.finish();
}

criterion_group!(benches, bench_prepared_vs_replanned);
criterion_main!(benches);
