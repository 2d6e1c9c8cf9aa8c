//! Cross-engine integration tests: LMFAO (in every configuration) must agree
//! with the materialized-join baseline on every workload of the paper, over
//! all four synthetic datasets.

use lmfao::baseline::MaterializedEngine;
use lmfao::prelude::*;
use lmfao_expr::DynamicRegistry;

const EPS: f64 = 1e-6;

fn relative_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS * (1.0 + a.abs().max(b.abs()))
}

/// Asserts that an LMFAO result and a baseline result agree on every group.
fn assert_agrees(
    name: &str,
    lmfao: &lmfao::engine::QueryResult,
    baseline: &lmfao::baseline::BaselineResult,
) {
    // Every baseline group with non-zero aggregates must exist in LMFAO with
    // the same values; LMFAO may omit all-zero groups.
    for (key, values) in baseline.data.iter() {
        let got = lmfao.get(key);
        let all_zero = values.iter().all(|v| v.abs() < EPS);
        match got {
            Some(found) => {
                for (g, w) in found.iter().zip(values) {
                    assert!(
                        relative_eq(*g, *w),
                        "{name}: key {key:?} expected {values:?} got {found:?}"
                    );
                }
            }
            None => assert!(
                all_zero,
                "{name}: missing group {key:?} with non-zero aggregates {values:?}"
            ),
        }
    }
    // And LMFAO must not invent groups.
    for (key, values) in lmfao.iter() {
        if values.iter().any(|v| v.abs() > EPS) {
            assert!(
                baseline.data.contains_key(key),
                "{name}: spurious group {key:?}"
            );
        }
    }
}

fn check_batch(dataset: &Dataset, batch: &QueryBatch, config: EngineConfig) {
    let engine = Engine::new(dataset.db.clone(), dataset.tree.clone(), config);
    // Exercise the primary API: plan once, then execute.
    let prepared = engine.prepare(batch).unwrap();
    let result = prepared.execute(&DynamicRegistry::new()).unwrap();
    let baseline = MaterializedEngine::materialize(&dataset.db, &dataset.tree);
    let expected = baseline.execute_batch(batch, &DynamicRegistry::new());
    for ((q, lm), bl) in batch.queries.iter().zip(&result.queries).zip(&expected) {
        assert_agrees(&format!("{}::{}", dataset.name, q.name), lm, bl);
    }
}

fn covar_style_batch(dataset: &Dataset, continuous: &[&str], categorical: &[&str]) -> QueryBatch {
    let spec = lmfao::ml::CovarSpec {
        continuous: continuous.iter().map(|n| dataset.attr(n)).collect(),
        categorical: categorical.iter().map(|n| dataset.attr(n)).collect(),
    };
    lmfao::ml::covar_batch(&spec).batch
}

#[test]
fn favorita_covar_matrix_matches_baseline() {
    let dataset = lmfao::datagen::favorita::generate(Scale::new(800, 1));
    let batch = covar_style_batch(&dataset, &["units", "txns", "price"], &["family", "city"]);
    for config in [EngineConfig::default(), EngineConfig::unoptimized()] {
        check_batch(&dataset, &batch, config);
    }
}

#[test]
fn retailer_covar_matrix_matches_baseline() {
    let dataset = lmfao::datagen::retailer::generate(Scale::new(800, 2));
    let batch = covar_style_batch(
        &dataset,
        &["inventoryunits", "avghhi", "maxtemp", "prices"],
        &["category"],
    );
    check_batch(&dataset, &batch, EngineConfig::full(2));
}

#[test]
fn yelp_many_to_many_aggregates_match_baseline() {
    let dataset = lmfao::datagen::yelp::generate(Scale::new(600, 3));
    let stars = dataset.attr("stars");
    let category = dataset.attr("category");
    let fans = dataset.attr("fans");
    let mut batch = QueryBatch::new();
    batch.push("count", vec![], vec![Aggregate::count()]);
    batch.push(
        "stars_by_cat",
        vec![category],
        vec![Aggregate::sum(stars), Aggregate::count()],
    );
    batch.push(
        "fans_stars",
        vec![],
        vec![Aggregate::sum_product(fans, stars)],
    );
    check_batch(&dataset, &batch, EngineConfig::default());
}

#[test]
fn tpcds_mutual_information_counts_match_baseline() {
    let dataset = lmfao::datagen::tpcds::generate(Scale::new(700, 4));
    let attrs: Vec<AttrId> = ["icategory", "sstate", "gender", "preferred"]
        .iter()
        .map(|n| dataset.attr(n))
        .collect();
    let mi = mutual_info_batch(&attrs);
    check_batch(&dataset, &mi.batch, EngineConfig::default());
}

#[test]
fn favorita_data_cube_matches_baseline() {
    let dataset = lmfao::datagen::favorita::generate(Scale::new(600, 5));
    let dims = vec![
        dataset.attr("family"),
        dataset.attr("city"),
        dataset.attr("stype"),
    ];
    let measures = vec![dataset.attr("units"), dataset.attr("txns")];
    let cube = datacube_batch(&dims, &measures);
    check_batch(&dataset, &cube.batch, EngineConfig::default());
}

#[test]
fn regression_tree_node_batch_matches_baseline() {
    let dataset = lmfao::datagen::retailer::generate(Scale::new(600, 6));
    let label = dataset.attr("inventoryunits");
    let avghhi = dataset.attr("avghhi");
    let maxtemp = dataset.attr("maxtemp");
    // A regression-tree node: COUNT, SUM(y), SUM(y²) under two conditions.
    let alpha = Aggregate::conditions(&[
        (avghhi, CmpOp::Le, Value::Double(80_000.0)),
        (maxtemp, CmpOp::Gt, Value::Double(50.0)),
    ]);
    let mut batch = QueryBatch::new();
    batch.push(
        "rt_node",
        vec![],
        vec![
            Aggregate::product(alpha.clone()),
            Aggregate::product(alpha.clone().times(ScalarFunction::Identity(label))),
            Aggregate::product(alpha.times(ScalarFunction::Power {
                attr: label,
                exponent: 2,
            })),
        ],
    );
    check_batch(&dataset, &batch, EngineConfig::default());
}

#[test]
fn all_ablation_configurations_agree_on_favorita() {
    let dataset = lmfao::datagen::favorita::generate(Scale::new(500, 8));
    let units = dataset.attr("units");
    let family = dataset.attr("family");
    let price = dataset.attr("price");
    let mut batch = QueryBatch::new();
    batch.push("count", vec![], vec![Aggregate::count()]);
    batch.push("per_family", vec![family], vec![Aggregate::sum(units)]);
    batch.push("up", vec![], vec![Aggregate::sum_product(units, price)]);

    // One sorted database backs every configuration of the ladder: engines
    // share it through the Arc-backed handle instead of cloning wholesale.
    let shared = SharedDatabase::prepare(dataset.db.clone(), &dataset.tree);
    let baseline = MaterializedEngine::materialize(&dataset.db, &dataset.tree);
    let expected = baseline.execute_batch(&batch, &DynamicRegistry::new());
    assert!(expected[0].scalar(1)[0] > 0.0);
    for (name, config) in EngineConfig::ablation_ladder(4) {
        let result = Engine::with_shared(shared.clone(), dataset.tree.clone(), config)
            .execute(&batch)
            .unwrap();
        for ((q, lm), bl) in batch.queries.iter().zip(&result.queries).zip(&expected) {
            assert_agrees(&format!("{name}::{}", q.name), lm, bl);
        }
    }
}

/// The input shape with the longest innermost ranges: a single flat relation
/// has no join attribute, so its attribute order is empty and the scan sees
/// the whole relation as one range. Indicator × power × identity factors,
/// summed and grouped by a non-join column, on every rung of the ladder.
#[test]
fn flat_relation_long_range_matches_baseline() {
    let mut schema = DatabaseSchema::new();
    schema.add_relation_with_attrs(
        "T",
        &[
            ("g", AttrType::Int),
            ("x", AttrType::Double),
            ("y", AttrType::Int),
            ("t", AttrType::Double),
        ],
    );
    let [g, x, y, t] = ["g", "x", "y", "t"].map(|n| schema.attr_id(n).unwrap());
    let rows = (0..5_000i64)
        .map(|r| {
            vec![
                Value::Int(r % 7),
                Value::Double((r % 13) as f64 * 0.25 - 1.0),
                Value::Int(r % 5 - 2),
                Value::Double((r * 37 % 101) as f64),
            ]
        })
        .collect();
    let relation = Relation::from_rows(schema.relation("T").unwrap().clone(), rows).unwrap();
    let db = Database::new(schema.clone(), vec![relation]).unwrap();
    let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();

    let product = ProductTerm::single(ScalarFunction::Identity(x))
        .times(ScalarFunction::Power {
            attr: y,
            exponent: 2,
        })
        .times(ScalarFunction::Indicator {
            attr: t,
            op: CmpOp::Le,
            threshold: Value::Double(40.0),
        });
    let mut batch = QueryBatch::new();
    batch.push(
        "total",
        vec![],
        vec![Aggregate::product(product.clone()), Aggregate::sum(x)],
    );
    batch.push(
        "per_g",
        vec![g],
        vec![Aggregate::product(product), Aggregate::count()],
    );

    let baseline = MaterializedEngine::materialize(&db, &tree);
    let expected = baseline.execute_batch(&batch, &DynamicRegistry::new());
    assert_eq!(expected[1].data.len(), 7);
    for (name, config) in EngineConfig::ablation_ladder(2) {
        let result = Engine::new(db.clone(), tree.clone(), config)
            .execute(&batch)
            .unwrap();
        for ((q, lm), bl) in batch.queries.iter().zip(&result.queries).zip(&expected) {
            assert_agrees(&format!("flat/{name}::{}", q.name), lm, bl);
        }
    }
}

/// A factor spanning two relations, `exp(price + units)` over
/// Sales(store, item, units) ⋈ Items(item, price): a scan at either relation
/// reads one attribute from a non-join column of its own rows and the other
/// from an extra key of the incoming view, so the factor is evaluated per
/// row. Scalar, grouped by another column of Sales and grouped by the
/// factor's own column, on every rung of the ladder.
#[test]
fn cross_relation_factor_reads_the_scanned_rows() {
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
    let [store, units, price] = ["store", "units", "price"].map(|n| schema.attr_id(n).unwrap());
    let relation = |name: &str, rows: Vec<Vec<Value>>| {
        Relation::from_rows(schema.relation(name).unwrap().clone(), rows).unwrap()
    };
    let sales = relation(
        "Sales",
        [(1, 1, 1.0), (2, 1, 2.0), (1, 2, 3.0)]
            .map(|(s, i, u)| vec![Value::Int(s), Value::Int(i), Value::Double(u)])
            .to_vec(),
    );
    let items = relation(
        "Items",
        [(1, 0.5), (2, 0.25)]
            .map(|(i, p)| vec![Value::Int(i), Value::Double(p)])
            .to_vec(),
    );
    let db = Database::new(schema.clone(), vec![sales, items]).unwrap();
    let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();

    let exp = Aggregate::product(ProductTerm::single(ScalarFunction::ExpLinear {
        coefficients: vec![(price, 1.0), (units, 1.0)],
    }));
    let mut batch = QueryBatch::new();
    batch.push("total", vec![], vec![exp.clone()]);
    batch.push("per_store", vec![store], vec![exp.clone()]);
    batch.push("per_units", vec![units], vec![exp]);

    let baseline = MaterializedEngine::materialize(&db, &tree);
    let expected = baseline.execute_batch(&batch, &DynamicRegistry::new());
    let by_hand = 1.5f64.exp() + 2.5f64.exp() + 3.25f64.exp();
    assert!(relative_eq(expected[0].scalar(1)[0], by_hand));
    assert!(relative_eq(by_hand, 42.454_522_9));
    assert_eq!(expected[1].data.len(), 2);
    assert_eq!(expected[2].data.len(), 3);
    for (name, config) in EngineConfig::ablation_ladder(2) {
        let result = Engine::new(db.clone(), tree.clone(), config)
            .execute(&batch)
            .unwrap();
        for ((q, lm), bl) in batch.queries.iter().zip(&result.queries).zip(&expected) {
            assert_agrees(&format!("{name}::{}", q.name), lm, bl);
        }
    }
}
