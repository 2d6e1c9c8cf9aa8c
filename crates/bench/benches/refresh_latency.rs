//! Criterion benchmark for incremental maintenance: single-tuple refresh of
//! a maintained batch versus re-executing the full prepared batch.
//!
//! The workload is the Retailer regression-tree node batch (RT) — the
//! acceptance workload of the maintenance milestone. `full_execute` re-runs
//! every scan of the prepared batch; `single_tuple_refresh` applies a
//! one-insert delta to the fact table of a `Maintainer` (delta-partition
//! scan plus signed propagation through the view DAG); `delete_insert_pair`
//! measures a correction (retract + append in one delta). The maintained
//! paths must come out ≥10× faster than `full_execute` — the refresh touches
//! one tuple's join paths, not the fact table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lmfao_bench::{engine_for, WorkloadSpec};
use lmfao_core::EngineConfig;
use lmfao_data::TableDelta;
use lmfao_datagen::{fact_relation, retailer, Scale};
use lmfao_expr::DynamicRegistry;

fn bench_refresh_latency(c: &mut Criterion) {
    let ds = retailer::generate(Scale::new(10_000, 42));
    let spec = WorkloadSpec::for_dataset(&ds.name);
    let batch = spec.rt_node_batch(&ds);
    let engine = engine_for(&ds, EngineConfig::default());
    let dynamics = DynamicRegistry::new();
    let fact = fact_relation(&ds.name);

    let prepared = engine.prepare(&batch).unwrap();
    let mut maintained = engine
        .prepare(&batch)
        .unwrap()
        .into_serving(&dynamics)
        .unwrap();
    let template = ds.db.relation(fact).unwrap().row(0).to_vec();

    let mut group = c.benchmark_group("refresh_latency/Retailer-RT");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));

    group.bench_with_input(
        BenchmarkId::from_parameter("full_execute"),
        &prepared,
        |b, prepared| {
            b.iter(|| {
                prepared
                    .execute(&dynamics)
                    .unwrap()
                    .query("rt_parent")
                    .scalar()[0]
            })
        },
    );

    group.bench_function(BenchmarkId::from_parameter("single_tuple_refresh"), |b| {
        b.iter(|| {
            let mut delta = TableDelta::for_relation(maintained.database().relation(fact).unwrap());
            delta.insert(&template).unwrap();
            maintained.commit(&delta, &dynamics).unwrap().views_changed
        })
    });

    group.bench_function(BenchmarkId::from_parameter("delete_insert_pair"), |b| {
        b.iter(|| {
            let mut delta = TableDelta::for_relation(maintained.database().relation(fact).unwrap());
            delta.delete(&template).unwrap();
            delta.insert(&template).unwrap();
            maintained.commit(&delta, &dynamics).unwrap().views_changed
        })
    });

    group.finish();
}

criterion_group!(benches, bench_refresh_latency);
criterion_main!(benches);
