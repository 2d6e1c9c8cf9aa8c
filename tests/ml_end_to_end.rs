//! End-to-end tests of the analytics applications (Section 2 / Tables 4–5):
//! training happens over aggregate batches only, and the learned models are
//! validated against the materialized join.

use lmfao::baseline::{self, MaterializedEngine};
use lmfao::ml::{self, assemble_cube};
use lmfao::prelude::*;

/// A small star-schema database where the label is an exact linear function
/// of features living in different relations:
///   y = 5 + 2·x_fact + 3·x_dim
fn linear_database() -> (Dataset, AttrId, Vec<AttrId>) {
    use lmfao_data::{AttrType, Database, DatabaseSchema, Relation};
    let mut schema = DatabaseSchema::new();
    schema.add_relation_with_attrs(
        "Fact",
        &[
            ("key", AttrType::Int),
            ("x_fact", AttrType::Double),
            ("y", AttrType::Double),
        ],
    );
    schema.add_relation_with_attrs(
        "Dim",
        &[("key", AttrType::Int), ("x_dim", AttrType::Double)],
    );
    let _key = schema.attr_id("key").unwrap();
    let x_fact = schema.attr_id("x_fact").unwrap();
    let y = schema.attr_id("y").unwrap();
    let x_dim = schema.attr_id("x_dim").unwrap();

    let n_keys = 40i64;
    let dim_rows: Vec<Vec<Value>> = (0..n_keys)
        .map(|k| vec![Value::Int(k), Value::Double((k % 7) as f64)])
        .collect();
    let mut fact_rows = Vec::new();
    for i in 0..400i64 {
        let k = i % n_keys;
        let xf = (i % 13) as f64;
        let xd = (k % 7) as f64;
        fact_rows.push(vec![
            Value::Int(k),
            Value::Double(xf),
            Value::Double(5.0 + 2.0 * xf + 3.0 * xd),
        ]);
    }
    let fact = Relation::from_rows(schema.relation("Fact").unwrap().clone(), fact_rows).unwrap();
    let dim = Relation::from_rows(schema.relation("Dim").unwrap().clone(), dim_rows).unwrap();
    let db = Database::new(schema.clone(), vec![fact, dim]).unwrap();
    let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
    (
        Dataset {
            name: "Linear".into(),
            db,
            tree,
        },
        y,
        vec![x_fact, x_dim],
    )
}

#[test]
fn linear_regression_recovers_cross_relation_coefficients() {
    let (dataset, label, features) = linear_database();
    let mut spec_features = features.clone();
    spec_features.push(label);
    let spec = CovarSpec::continuous_only(spec_features);
    let cb = covar_batch(&spec);
    let engine = Engine::new(
        dataset.db.clone(),
        dataset.tree.clone(),
        EngineConfig::default(),
    );
    let result = engine.execute(&cb.batch).unwrap();
    let covar = ml::assemble_covar_matrix(&cb, &result);
    assert_eq!(covar.dim(), 4); // intercept + 2 features + label

    let model = train_linear_regression(
        &covar,
        &LinRegConfig {
            l2: 0.0,
            max_iterations: 50_000,
            tolerance: 1e-12,
        },
    );
    assert!(
        (model.theta[0] - 5.0).abs() < 0.1,
        "intercept {:?}",
        model.theta
    );
    assert!(
        (model.theta[1] - 2.0).abs() < 0.05,
        "x_fact {:?}",
        model.theta
    );
    assert!(
        (model.theta[2] - 3.0).abs() < 0.05,
        "x_dim {:?}",
        model.theta
    );

    // RMSE over the materialized join is essentially zero, and the
    // aggregate-only RMSE (θ'ᵀCθ' over a covar batch, no materialization)
    // agrees with it.
    let join = MaterializedEngine::materialize(&dataset.db, &dataset.tree);
    let materialized_rmse = model.rmse(join.join(), label);
    assert!(materialized_rmse < 0.2);
    let aggregate_rmse = ml::evaluate::linreg_rmse_via_aggregates(&engine, &model, label).unwrap();
    assert!(
        (aggregate_rmse - materialized_rmse).abs() < 1e-6 + 1e-6 * materialized_rmse,
        "aggregate RMSE {aggregate_rmse} vs materialized {materialized_rmse}"
    );
}

#[test]
fn lmfao_covar_matrix_equals_baseline_statistics() {
    let (dataset, label, features) = linear_database();
    let mut spec_features = features.clone();
    spec_features.push(label);
    let spec = CovarSpec::continuous_only(spec_features.clone());
    let cb = covar_batch(&spec);
    let engine = Engine::new(
        dataset.db.clone(),
        dataset.tree.clone(),
        EngineConfig::default(),
    );
    let covar = ml::assemble_covar_matrix(&cb, &engine.execute(&cb.batch).unwrap());

    // Recompute the same statistics from the materialized join.
    let join = MaterializedEngine::materialize(&dataset.db, &dataset.tree);
    let join_rel = join.join();
    let cols: Vec<usize> = spec_features
        .iter()
        .map(|a| join_rel.position(*a).unwrap())
        .collect();
    let n = join_rel.len();
    assert_eq!(covar.count, n as f64);
    for (j, &cj) in cols.iter().enumerate() {
        for (k, &ck) in cols.iter().enumerate() {
            let expected: f64 = (0..n)
                .map(|i| join_rel.value(i, cj).as_f64() * join_rel.value(i, ck).as_f64())
                .sum();
            let got = covar.matrix[j + 1][k + 1];
            assert!(
                (expected - got).abs() < 1e-6 * expected.abs().max(1.0),
                "C[{j}][{k}]: {got} vs {expected}"
            );
        }
    }
}

#[test]
fn regression_tree_beats_the_mean_predictor() {
    let (dataset, label, features) = linear_database();
    let engine = Engine::new(
        dataset.db.clone(),
        dataset.tree.clone(),
        EngineConfig::default(),
    );
    let config = TreeConfig {
        task: TreeTask::Regression,
        max_depth: 3,
        min_samples: 10,
        buckets: 10,
    };
    let tree = train_decision_tree(&engine, &features, label, &config).unwrap();
    assert!(tree.size() > 1, "the tree must find at least one split");

    let join = MaterializedEngine::materialize(&dataset.db, &dataset.tree);
    let join_rel = join.join();
    let label_col = join_rel.position(label).unwrap();
    let mean: f64 = (0..join_rel.len())
        .map(|i| join_rel.value(i, label_col).as_f64())
        .sum::<f64>()
        / join_rel.len() as f64;
    let mean_rmse = ml::evaluate::rmse(join_rel, label, |_| mean);
    let tree_rmse = ml::evaluate::tree_rmse(&tree, join_rel, label);
    assert!(
        tree_rmse < 0.8 * mean_rmse,
        "tree {tree_rmse} must beat mean {mean_rmse}"
    );
}

/// Recursively asserts that two learned trees are bit-identical: same shape,
/// same split conditions, and leaf predictions/supports equal down to the
/// last bit of their f64 representation.
fn assert_trees_bit_identical(a: &ml::TreeNode, b: &ml::TreeNode) {
    match (a, b) {
        (
            ml::TreeNode::Leaf {
                prediction: pa,
                support: sa,
            },
            ml::TreeNode::Leaf {
                prediction: pb,
                support: sb,
            },
        ) => {
            assert_eq!(pa.to_bits(), pb.to_bits(), "leaf prediction {pa} vs {pb}");
            assert_eq!(sa.to_bits(), sb.to_bits(), "leaf support {sa} vs {sb}");
        }
        (
            ml::TreeNode::Split {
                condition: ca,
                left: la,
                right: ra,
            },
            ml::TreeNode::Split {
                condition: cb,
                left: lb,
                right: rb,
            },
        ) => {
            assert_eq!(ca, cb, "split conditions differ");
            assert_trees_bit_identical(la, lb);
            assert_trees_bit_identical(ra, rb);
        }
        _ => panic!("tree shapes differ: leaf vs split"),
    }
}

#[test]
fn prepared_regression_tree_is_bit_identical_to_replanning() {
    let (dataset, label, features) = linear_database();
    let engine = Engine::new(
        dataset.db.clone(),
        dataset.tree.clone(),
        EngineConfig::default(),
    );
    let config = TreeConfig {
        task: TreeTask::Regression,
        max_depth: 3,
        min_samples: 10,
        buckets: 10,
    };
    let prepared = train_decision_tree(&engine, &features, label, &config).unwrap();
    let replanned = ml::train_decision_tree_replanned(&engine, &features, label, &config).unwrap();
    assert_eq!(prepared.queries_issued, replanned.queries_issued);
    assert_trees_bit_identical(&prepared.root, &replanned.root);
    assert!(prepared.size() > 1, "the data has structure to split on");
}

#[test]
fn prepared_classification_tree_is_bit_identical_to_replanning() {
    let dataset = lmfao::datagen::tpcds::generate(Scale::new(1_500, 9));
    let label = dataset.attr("preferred");
    let features = vec![
        dataset.attr("birth_year"),
        dataset.attr("purchase_estimate"),
        dataset.attr("gender"),
        dataset.attr("marital"),
    ];
    let engine = Engine::new(
        dataset.db.clone(),
        dataset.tree.clone(),
        EngineConfig::default(),
    );
    let config = TreeConfig {
        task: TreeTask::Classification,
        max_depth: 2,
        min_samples: 50,
        buckets: 6,
    };
    let prepared = train_decision_tree(&engine, &features, label, &config).unwrap();
    let replanned = ml::train_decision_tree_replanned(&engine, &features, label, &config).unwrap();
    assert_eq!(prepared.queries_issued, replanned.queries_issued);
    assert_trees_bit_identical(&prepared.root, &replanned.root);
}

#[test]
fn classification_tree_on_tpcds_beats_majority_class() {
    let dataset = lmfao::datagen::tpcds::generate(Scale::new(3_000, 9));
    let label = dataset.attr("preferred");
    let features = vec![
        dataset.attr("birth_year"),
        dataset.attr("purchase_estimate"),
        dataset.attr("gender"),
        dataset.attr("marital"),
        dataset.attr("dep_count"),
    ];
    let engine = Engine::new(
        dataset.db.clone(),
        dataset.tree.clone(),
        EngineConfig::full(2),
    );
    let config = TreeConfig {
        task: TreeTask::Classification,
        max_depth: 3,
        min_samples: 50,
        buckets: 8,
    };
    let tree = train_decision_tree(&engine, &features, label, &config).unwrap();
    assert!(tree.queries_issued > 0);

    let join = MaterializedEngine::materialize(&dataset.db, &dataset.tree);
    let join_rel = join.join();
    let label_col = join_rel.position(label).unwrap();
    // Majority-class accuracy.
    let ones = (0..join_rel.len())
        .filter(|&i| join_rel.value(i, label_col).as_f64() > 0.5)
        .count() as f64;
    let majority = (ones / join_rel.len() as f64).max(1.0 - ones / join_rel.len() as f64);
    let acc = ml::evaluate::tree_accuracy(&tree, join_rel, label);
    assert!(
        acc >= majority - 1e-9,
        "tree accuracy {acc} must be at least the majority baseline {majority}"
    );
}

#[test]
fn chow_liu_tree_connects_functionally_dependent_attributes() {
    let dataset = lmfao::datagen::favorita::generate(Scale::new(2_000, 10));
    let names = ["store", "city", "state", "family", "htype"];
    let attrs: Vec<AttrId> = names.iter().map(|n| dataset.attr(n)).collect();
    let engine = Engine::new(
        dataset.db.clone(),
        dataset.tree.clone(),
        EngineConfig::default(),
    );
    let mi = mutual_info_matrix(&engine, &attrs).unwrap();
    let tree = chow_liu_tree(&mi);
    assert_eq!(tree.edges.len(), attrs.len() - 1);
    // The one-call learner wraps the same pipeline.
    let direct = learn_chow_liu(&engine, &attrs).unwrap();
    assert_eq!(direct.edges, tree.edges);
    // store→city and city→state are functional dependencies in the generator,
    // so their MI is maximal among pairs involving them; the spanning tree
    // must include the city—state edge or reach state through city/store.
    let city = 1usize;
    let state = 2usize;
    assert!(
        mi.get(city, state) > mi.get(3, 4),
        "functionally dependent pair must have higher MI than unrelated pair"
    );
    assert!(!tree.neighbors(state).is_empty());
}

#[test]
fn data_cube_cells_are_consistent_across_cuboids() {
    let dataset = lmfao::datagen::favorita::generate(Scale::new(1_000, 11));
    let dims = vec![dataset.attr("family"), dataset.attr("city")];
    let measures = vec![dataset.attr("units")];
    let cube_batch = datacube_batch(&dims, &measures);
    let engine = Engine::new(
        dataset.db.clone(),
        dataset.tree.clone(),
        EngineConfig::default(),
    );
    let result = engine.execute(&cube_batch.batch).unwrap();
    let cube = assemble_cube(&cube_batch, &result);

    // Roll-up consistency: summing the (family, ALL) cells over family gives
    // the apex, both for the count and for the measure.
    let apex = cube.cell(&[None, None]).expect("apex exists").to_vec();
    let mut rolled = vec![0.0; apex.len()];
    for (key, values) in cube.cells.iter() {
        if key[0].is_some() && key[1].is_none() {
            for (r, v) in rolled.iter_mut().zip(values) {
                *r += v;
            }
        }
    }
    for (r, a) in rolled.iter().zip(&apex) {
        assert!(
            (r - a).abs() < 1e-6 * a.abs().max(1.0),
            "{rolled:?} vs {apex:?}"
        );
    }
}

#[test]
fn lmfao_and_dense_baseline_learn_comparable_linear_models() {
    let (dataset, label, features) = linear_database();
    // LMFAO path, via the one-call engine-driven trainer.
    let engine = Engine::new(
        dataset.db.clone(),
        dataset.tree.clone(),
        EngineConfig::default(),
    );
    let lmfao_model =
        train_linear_regression_over(&engine, &features, label, &LinRegConfig::default()).unwrap();

    // Dense baseline path (materialize + one-hot + GD).
    let join = MaterializedEngine::materialize(&dataset.db, &dataset.tree);
    let dense = baseline::export_dense(join.join(), dataset.db.schema(), &features, label);
    let theta = baseline::train_linear_regression_dense(&dense, 1e-3, 1e-3, 2_000);

    let lmfao_rmse = lmfao_model.rmse(join.join(), label);
    let baseline_rmse = baseline::rmse_linear(&theta, &dense);
    // Both should fit this noiseless linear data well; LMFAO must not be
    // dramatically worse than the dense pipeline.
    assert!(lmfao_rmse < 1.0, "lmfao rmse {lmfao_rmse}");
    assert!(baseline_rmse < 2.0, "baseline rmse {baseline_rmse}");
}

/// Trains the prepared and the plan-per-node learner on one engine and
/// asserts they learn the same tree, bit for bit, with the same queries.
fn assert_learners_agree(
    engine: &Engine,
    features: &[AttrId],
    label: AttrId,
    config: &TreeConfig,
) -> (ml::DecisionTree, ml::DecisionTree) {
    let prepared = train_decision_tree(engine, features, label, config).unwrap();
    let replanned = ml::train_decision_tree_replanned(engine, features, label, config).unwrap();
    assert_eq!(prepared.nodes_executed, replanned.nodes_executed);
    assert_eq!(prepared.queries_issued, replanned.queries_issued);
    assert_trees_bit_identical(&prepared.root, &replanned.root);
    // The root executes, and a split at most one of its children.
    let splits = (prepared.size() - 1) / 2;
    assert!(
        prepared.nodes_executed <= 1 + splits,
        "{} nodes executed for {splits} splits",
        prepared.nodes_executed
    );
    (prepared, replanned)
}

const SMALL_REGRESSION_TREE: TreeConfig = TreeConfig {
    task: TreeTask::Regression,
    max_depth: 3,
    min_samples: 50,
    buckets: 6,
};

#[test]
fn prepared_tree_is_bit_identical_to_replanning_on_retailer_and_favorita() {
    // Retailer: Census features reach the Inventory fact through Location
    // (two hops), Weather and Item features through one.
    let retailer = lmfao::datagen::retailer::generate(Scale::new(3_000, 5));
    let features: Vec<AttrId> = ["population", "medianage", "avghhi", "maxtemp", "prices"]
        .iter()
        .map(|n| retailer.attr(n))
        .collect();
    let label = retailer.attr("inventoryunits");
    for config in [EngineConfig::default(), EngineConfig::full(2)] {
        let engine = Engine::new(retailer.db.clone(), retailer.tree.clone(), config);
        let (prepared, _) =
            assert_learners_agree(&engine, &features, label, &SMALL_REGRESSION_TREE);
        assert!(prepared.size() > 1, "Retailer must split");
        // Every feature lives in a dimension: one grouped query each.
        assert_eq!(
            prepared.queries_issued,
            prepared.nodes_executed * (1 + features.len())
        );
    }

    // Favorita: one feature per dimension, an integer one among them.
    let favorita = lmfao::datagen::favorita::generate(Scale::new(3_000, 5));
    let features: Vec<AttrId> = ["txns", "price", "cluster", "promo"]
        .iter()
        .map(|n| favorita.attr(n))
        .collect();
    for config in [EngineConfig::default(), EngineConfig::full(2)] {
        let engine = Engine::new(favorita.db.clone(), favorita.tree.clone(), config);
        let (prepared, _) = assert_learners_agree(
            &engine,
            &features,
            favorita.attr("units"),
            &SMALL_REGRESSION_TREE,
        );
        assert!(prepared.size() > 1, "Favorita must split");
    }
}

#[test]
fn a_classification_tree_mixing_grouped_and_per_candidate_features_matches_replanning() {
    // Table 5's features: six in dimensions (grouped, three of them
    // categorical) and `quantity`, `salesprice` of the StoreSales fact
    // relation, asked one indicator query per threshold.
    let dataset = lmfao::datagen::tpcds::generate(Scale::new(3_000, 9));
    let features: Vec<AttrId> = [
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
    .map(|n| dataset.attr(n))
    .collect();
    let config = TreeConfig {
        task: TreeTask::Classification,
        max_depth: 3,
        min_samples: 50,
        buckets: 8,
    };
    for engine_config in [EngineConfig::default(), EngineConfig::full(2)] {
        let engine = Engine::new(dataset.db.clone(), dataset.tree.clone(), engine_config);
        let (prepared, _) =
            assert_learners_agree(&engine, &features, dataset.attr("preferred"), &config);
        assert!(prepared.size() > 1, "TPC-DS must split");
        // The node's measures, six grouped features, and one query per
        // threshold of the two fact columns.
        assert_eq!(
            prepared.queries_issued,
            prepared.nodes_executed * (1 + 6 + 2 * config.buckets)
        );
    }
}

#[test]
fn an_integer_feature_splits() {
    // `birth_year` is an `Int` column: its thresholds must be `Int`s too, or
    // every row compares below a `Double` threshold and no split separates.
    let dataset = lmfao::datagen::tpcds::generate(Scale::new(3_000, 9));
    let features = vec![dataset.attr("birth_year")];
    let engine = Engine::new(
        dataset.db.clone(),
        dataset.tree.clone(),
        EngineConfig::default(),
    );
    let config = TreeConfig {
        task: TreeTask::Regression,
        max_depth: 2,
        min_samples: 10,
        buckets: 8,
    };
    let (prepared, _) = assert_learners_agree(&engine, &features, dataset.attr("netpaid"), &config);
    assert!(prepared.size() > 1, "birth_year never split");
    let ml::TreeNode::Split { condition, .. } = &prepared.root else {
        unreachable!()
    };
    assert!(matches!(condition.value, Value::Int(_)), "{condition:?}");
}

/// Every node of a learned tree with its depth and root-to-node conditions,
/// and whether the learner executes it: the root does, and of a split's
/// children the one that is not bound to be a leaf (at `max_depth` or under
/// `min_samples` tuples) or, if neither is, the one with fewer tuples (the
/// left one on a tie). `support` counts the tuples on a path.
fn node_paths(
    node: &ml::TreeNode,
    path: Vec<ScalarFunction>,
    depth: usize,
    executed: bool,
    config: &TreeConfig,
    support: &impl Fn(&[ScalarFunction]) -> f64,
    out: &mut Vec<(usize, Vec<ScalarFunction>, bool)>,
) {
    if let ml::TreeNode::Split {
        condition,
        left,
        right,
    } = node
    {
        let paths = [condition.clone(), condition.negate()].map(|cond| {
            let mut path = path.clone();
            path.push(ScalarFunction::Indicator {
                attr: cond.attr,
                op: cond.op,
                threshold: cond.value,
            });
            path
        });
        let counts = paths.each_ref().map(|path| support(path));
        let leaf = counts.map(|n| depth + 1 >= config.max_depth || n < config.min_samples as f64);
        let run_left = !leaf[0] && (leaf[1] || counts[0] <= counts[1]);
        let runs = [run_left, !leaf[1] && !run_left];
        for ((branch, path), runs) in [left, right].into_iter().zip(paths).zip(runs) {
            node_paths(branch, path, depth + 1, runs, config, support, out);
        }
    }
    out.push((depth, path, executed));
}

#[test]
fn tree_nodes_scan_only_their_own_rows() {
    let dataset = lmfao::datagen::retailer::generate(Scale::new(3_000, 5));
    let features: Vec<AttrId> = ["population", "maxtemp", "prices", "avghhi"]
        .iter()
        .map(|n| dataset.attr(n))
        .collect();
    let label = dataset.attr("inventoryunits");
    let engine = Engine::new(
        dataset.db.clone(),
        dataset.tree.clone(),
        EngineConfig::default(),
    );
    let (prepared, replanned) =
        assert_learners_agree(&engine, &features, label, &SMALL_REGRESSION_TREE);
    let total = engine.database().total_tuples();
    assert_eq!(replanned.rows_scanned, prepared.nodes_executed * total);
    assert!(
        prepared.rows_scanned < replanned.rows_scanned,
        "{} rows scanned, {} replanned",
        prepared.rows_scanned,
        replanned.rows_scanned
    );

    // The counter is the sum of the executed nodes' databases: the root
    // scans the whole database, every other executed node its path's
    // restriction.
    let mut count = QueryBatch::new();
    count.push("count", vec![], vec![Aggregate::count()]);
    let batch = engine.prepare(&count).unwrap();
    let restrict = |path: &[ScalarFunction]| {
        if path.is_empty() {
            batch.clone()
        } else {
            batch.restrict(path).unwrap()
        }
    };
    let support = |path: &[ScalarFunction]| {
        let result = restrict(path).execute(&DynamicRegistry::new()).unwrap();
        result.queries[0].scalar()[0]
    };
    let mut nodes = Vec::new();
    let (root, config) = (&prepared.root, &SMALL_REGRESSION_TREE);
    node_paths(root, Vec::new(), 0, true, config, &support, &mut nodes);
    let (mut scanned, mut executed) = (0, 0);
    let mut fact_rows_per_level = [0; SMALL_REGRESSION_TREE.max_depth + 1];
    for (depth, path, runs) in &nodes {
        let node = restrict(path);
        if *runs {
            assert!(
                *depth < SMALL_REGRESSION_TREE.max_depth,
                "{path:?} executed"
            );
            scanned += node.database().total_tuples();
            executed += 1;
        }
        fact_rows_per_level[*depth] += node.database().relation("Inventory").unwrap().len();
    }
    assert_eq!(executed, prepared.nodes_executed);
    assert!(executed < nodes.len(), "some node is settled");
    assert_eq!(scanned, prepared.rows_scanned);
    // The nodes of one level split the fact rows between them.
    let fact = engine.database().relation("Inventory").unwrap().len();
    for (depth, rows) in fact_rows_per_level.iter().enumerate() {
        assert!(
            *rows <= fact,
            "level {depth} scans {rows} of {fact} fact rows"
        );
    }
    assert!(fact_rows_per_level[1] > 0, "the tree must split");
}
