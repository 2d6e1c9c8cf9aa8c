//! Property-based tests: on randomly generated databases and query batches,
//! the LMFAO engine must agree with the materialized-join baseline, in every
//! configuration, and core data-structure invariants must hold.

use lmfao::baseline::MaterializedEngine;
use lmfao::datagen::{
    self, fact_relation, transaction_stream, txn_relations, update_stream, Scale, UpdateMix,
};
use lmfao::engine::{BatchResult, ComputedView};
use lmfao::prelude::*;
use lmfao_bench::WorkloadSpec;
use lmfao_expr::{CmpOp, DynamicRegistry, ScalarFunction};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Builds a three-relation chain database R(a,b,x) — S(b,c) — T(c,y) from
/// generated tuples.
fn chain_db(
    r_rows: &[(i64, i64, f64)],
    s_rows: &[(i64, i64)],
    t_rows: &[(i64, f64)],
) -> (Database, JoinTree) {
    use lmfao_data::{AttrType, DatabaseSchema};
    let mut schema = DatabaseSchema::new();
    schema.add_relation_with_attrs(
        "R",
        &[
            ("a", AttrType::Int),
            ("b", AttrType::Int),
            ("x", AttrType::Double),
        ],
    );
    schema.add_relation_with_attrs("S", &[("b", AttrType::Int), ("c", AttrType::Int)]);
    schema.add_relation_with_attrs("T", &[("c", AttrType::Int), ("y", AttrType::Double)]);
    let ids: Vec<AttrId> = ["a", "b", "x", "c", "y"]
        .iter()
        .map(|n| schema.attr_id(n).unwrap())
        .collect();
    let r = Relation::from_rows(
        RelationSchema::new("R", vec![ids[0], ids[1], ids[2]]),
        r_rows
            .iter()
            .map(|&(a, b, x)| vec![Value::Int(a), Value::Int(b), Value::Double(x)])
            .collect(),
    )
    .unwrap();
    let s = Relation::from_rows(
        RelationSchema::new("S", vec![ids[1], ids[3]]),
        s_rows
            .iter()
            .map(|&(b, c)| vec![Value::Int(b), Value::Int(c)])
            .collect(),
    )
    .unwrap();
    let t = Relation::from_rows(
        RelationSchema::new("T", vec![ids[3], ids[4]]),
        t_rows
            .iter()
            .map(|&(c, y)| vec![Value::Int(c), Value::Double(y)])
            .collect(),
    )
    .unwrap();
    let db = Database::new(schema.clone(), vec![r, s, t]).unwrap();
    let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
    (db, tree)
}

/// Generated tuples for the three chain relations R, S, T.
type ChainRows = (Vec<(i64, i64, f64)>, Vec<(i64, i64)>, Vec<(i64, f64)>);

fn tuple_strategy() -> impl Strategy<Value = ChainRows> {
    let r = prop::collection::vec((0..5i64, 0..4i64, -3.0..3.0f64), 0..25);
    let s = prop::collection::vec((0..4i64, 0..4i64), 0..15);
    let t = prop::collection::vec((0..4i64, -2.0..2.0f64), 0..10);
    (r, s, t)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

/// Decodes one generated cell into a [`Value`]; the selector picks the
/// variant so columns receive arbitrary mixes (typed or demoted to `Mixed`).
fn cell_value((sel, i, d, c): (u8, i64, f64, u32)) -> Value {
    match sel % 4 {
        0 => Value::Int(i),
        1 => Value::Double(d),
        2 => Value::Cat(c),
        _ => Value::Null,
    }
}

/// One generated condition over the chain's attributes `a, b, x, c, y`
/// (`attr` picks one): a set test on an integer attribute when `sel` is 6
/// or 7, else the indicator `attr op t` with `sel` picking the operator and
/// `t` of the attribute's type.
fn chain_condition(
    db: &Database,
    (attr, sel, int, double, set): (usize, u8, i64, f64, Vec<i64>),
) -> ScalarFunction {
    let name = ["a", "b", "x", "c", "y"][attr];
    let attr = db.schema().attr_id(name).unwrap();
    let float = matches!(name, "x" | "y");
    if sel >= 6 && !float {
        return ScalarFunction::InSet {
            attr,
            set: set.into_iter().map(Value::Int).collect(),
        };
    }
    let ops = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];
    ScalarFunction::Indicator {
        attr,
        op: ops[usize::from(sel) % ops.len()],
        threshold: if float {
            Value::Double(double)
        } else {
            Value::Int(int)
        },
    }
}

/// Every aggregate of every group of every query, as raw bits.
fn result_bits(result: &BatchResult) -> BTreeMap<(String, Vec<Value>), Vec<u64>> {
    result
        .queries
        .iter()
        .flat_map(|q| {
            q.iter().map(move |(key, vals)| {
                let bits = vals.iter().map(|v| v.to_bits()).collect();
                ((q.name.clone(), key.clone()), bits)
            })
        })
        .collect()
}

/// Folds `result_bits` into a running FNV-1a digest: query names, keys (by
/// their `Debug` text) and every aggregate's bits, in `BTreeMap` order, so the
/// digest pins the entry set and every bit of every value.
fn fold_bits(digest: &mut u64, result: &BatchResult) {
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for ((name, key), bits) in result_bits(result) {
        eat(name.as_bytes());
        eat(format!("{key:?}").as_bytes());
        for b in bits {
            eat(&b.to_le_bytes());
        }
    }
}

/// The values a key column of one kind draws from, few enough that keys
/// collide: kind 0 stays an `Int` column, 1 a `Float` column (a NaN, `0.0`
/// and `-0.0`), 2 a `Dict` column, and 3 mixes variants and `Null` into a
/// `Mixed` column where `Int(1)`, `Double(1.0)` and `Cat(1)` are three keys.
fn key_value(kind: u8, pick: u8) -> Value {
    let pool = match kind % 4 {
        0 => [Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(-1)],
        1 => [
            Value::Double(f64::NAN),
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Double(1.5),
        ],
        2 => [Value::Cat(0), Value::Cat(1), Value::Cat(2), Value::Cat(7)],
        _ => [
            Value::Null,
            Value::Int(1),
            Value::Double(1.0),
            Value::Cat(1),
        ],
    };
    pool[pick as usize % 4]
}

/// A three-column relation whose column `j` holds values of `kinds[j]`, one
/// row per three picks. With `reversed`, the columns are stored in reverse
/// order, so a probe reads them at other positions than the target.
fn key_relation(name: &str, kinds: &[u8], picks: &[u8], reversed: bool) -> Relation {
    let attrs = if reversed { [2, 1, 0] } else { [0, 1, 2] };
    Relation::from_rows(
        RelationSchema::new(name, attrs.iter().map(|&a| AttrId(a)).collect()),
        picks
            .chunks_exact(3)
            .map(|row| {
                attrs
                    .iter()
                    .map(|&a| key_value(kinds[a as usize], row[a as usize]))
                    .collect()
            })
            .collect(),
    )
    .unwrap()
}

/// The rows of `target` whose values on `cols` equal those of some row of
/// some probe `(source, source_cols)`: a nested loop over every pair.
fn naive_semi_join(
    target: &Relation,
    probes: &[(&Relation, Vec<usize>, Vec<usize>)],
) -> Vec<Vec<Value>> {
    (0..target.len())
        .filter(|&t| {
            probes.iter().any(|(source, cols, source_cols)| {
                (0..source.len()).any(|s| {
                    cols.iter()
                        .zip(source_cols)
                        .all(|(&c, &sc)| target.value(t, c) == source.value(s, sc))
                })
            })
        })
        .map(|t| target.row(t).to_vec())
        .collect()
}

/// The key parts a computed view's keys draw from: `Int`s, `Double`s that
/// compare by bit pattern (a NaN, `0.0` and `-0.0` are three keys), a `Cat`
/// and `Null`, so `Int(1)`, `Double(1.0)` and `Cat(1)` are distinct keys too.
const VIEW_KEY_PARTS: [Value; 8] = [
    Value::Int(0),
    Value::Int(1),
    Value::Double(f64::NAN),
    Value::Double(0.0),
    Value::Double(-0.0),
    Value::Double(1.0),
    Value::Cat(1),
    Value::Null,
];

/// The aggregate values the operations add: some cancel exactly, and
/// `0.1 + 0.2 − 0.3` leaves a residue that only the snapped merge zeroes.
const VIEW_VALUES: [f64; 8] = [1.0, -1.0, 0.5, 0.1, 0.2, -0.3, 0.0, 3.0];

/// A map-backed model of a computed view: the entries, and the keys in
/// first-insertion order.
#[derive(Clone, Default)]
struct ModelView {
    data: lmfao_data::FxHashMap<Vec<Value>, Vec<f64>>,
    order: Vec<Vec<Value>>,
}

impl ModelView {
    fn entry(&mut self, key: &[Value], width: usize) -> &mut Vec<f64> {
        if !self.data.contains_key(key) {
            self.order.push(key.to_vec());
        }
        self.data
            .entry(key.to_vec())
            .or_insert_with(|| vec![0.0; width])
    }

    fn merge(&mut self, other: &ModelView, width: usize, mut add: impl FnMut(&mut f64, f64)) {
        for key in &other.order {
            let entry = self.entry(key, width);
            for (e, &v) in entry.iter_mut().zip(&other.data[key]) {
                add(e, v);
            }
        }
    }

    fn prune(&mut self) {
        self.data.retain(|_, v| v.iter().any(|&x| x != 0.0));
        let data = &self.data;
        self.order.retain(|k| data.contains_key(k));
    }
}

/// `view` holds exactly `model`'s entries, payloads bit for bit, and
/// iterates them in `model`'s first-insertion order.
fn same_as_model(view: &ComputedView, model: &ModelView) -> Result<(), String> {
    let keys: Vec<Vec<Value>> = view.iter().map(|(k, _)| k.to_vec()).collect();
    if keys != model.order || view.len() != model.data.len() {
        return Err(format!("keys {keys:?}, model {:?}", model.order));
    }
    for (key, values) in view.iter() {
        let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = model.data[key].iter().map(|v| v.to_bits()).collect();
        if bits != want || view.get(key) != Some(values) {
            return Err(format!("{key:?}: {values:?}, model {:?}", model.data[key]));
        }
    }
    Ok(())
}

/// A two-relation database whose fact table spans three morsels, with
/// non-integer measures so a change in float-addition order shows in the
/// bits: F(k, c, m) ⋈ D(k, w), plus a batch with a scalar output, a
/// join-key group-by, a fact-column group-by and a dimension group-by.
fn multi_morsel_db_and_batch() -> (Database, JoinTree, QueryBatch) {
    use lmfao_data::{AttrType, DatabaseSchema};
    const ROWS: i64 = 140_000;
    let mut schema = DatabaseSchema::new();
    schema.add_relation_with_attrs(
        "F",
        &[
            ("k", AttrType::Int),
            ("c", AttrType::Int),
            ("m", AttrType::Double),
        ],
    );
    schema.add_relation_with_attrs("D", &[("k", AttrType::Int), ("w", AttrType::Double)]);
    let id = |n: &str| schema.attr_id(n).unwrap();
    let (k, c, m, w) = (id("k"), id("c"), id("m"), id("w"));
    let f = Relation::from_rows(
        RelationSchema::new("F", vec![k, c, m]),
        (0..ROWS)
            .map(|i| {
                vec![
                    Value::Int(i % 97),
                    Value::Int(i % 5),
                    Value::Double((i * 7919 % 1000) as f64 / 7.0),
                ]
            })
            .collect(),
    )
    .unwrap();
    let d = Relation::from_rows(
        RelationSchema::new("D", vec![k, w]),
        (0..97)
            .map(|i| vec![Value::Int(i), Value::Double(i as f64 / 3.0)])
            .collect(),
    )
    .unwrap();
    let db = Database::new(schema.clone(), vec![f, d]).unwrap();
    let tree = build_join_tree(&Hypergraph::from_schema(&schema)).unwrap();
    let mut batch = QueryBatch::new();
    batch.push("mw", vec![], vec![Aggregate::sum_product(m, w)]);
    batch.push(
        "per_k",
        vec![k],
        vec![Aggregate::sum(m), Aggregate::count()],
    );
    batch.push("per_c", vec![c], vec![Aggregate::sum_product(m, w)]);
    batch.push("per_w", vec![w], vec![Aggregate::sum_square(m)]);
    (db, tree, batch)
}

/// Result bits pinned as digests: the tree-node (RT), covar and MI batches on
/// all four datasets at `Scale::small()`. Any change to the executor that is
/// not bit-identical — a reassociated sum, a gained or lost zero entry —
/// changes one of them. `fresh` is execution at 1 and 2 threads plus a scan
/// that splits into morsels; `maintained` the published state after each of
/// a few commits; `unoptimized` the bottom rung of the ladder;
/// `transactions` the published state after each commit of a
/// multi-relation transaction stream, which propagates several changed
/// views through one group and so exercises the telescoped scans that
/// single-relation fact streams never reach.
#[test]
fn golden_result_bits_are_pinned() {
    const FRESH: u64 = 0xe359_c12a_ab36_8163;
    const MAINTAINED: u64 = 0x27fe_0780_6735_1bb6;
    const UNOPTIMIZED: u64 = 0x5ce1_29ec_85d8_33f6;
    const TRANSACTIONS: u64 = 0xb875_a61d_30e0_7d79;
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    let dynamics = DynamicRegistry::new();
    let [mut fresh, mut maintained, mut unoptimized, mut transactions] = [FNV_OFFSET; 4];
    let mut telescoped = 0;
    for ds in datagen::all_datasets(Scale::small()) {
        let spec = WorkloadSpec::for_dataset(&ds.name);
        let stream = update_stream(
            &ds,
            fact_relation(&ds.name),
            &UpdateMix::balanced(4).seed(7),
        );
        let txns = transaction_stream(
            &ds,
            &txn_relations(&ds.name),
            &UpdateMix::balanced(4).seed(7),
        );
        for batch in [
            spec.rt_node_batch(&ds),
            spec.covar_batch(&ds),
            spec.mutual_info_batch(&ds),
        ] {
            let engine = |cfg| Engine::new(ds.db.clone(), ds.tree.clone(), cfg);
            for threads in [1, 2] {
                let result = engine(EngineConfig::full(threads)).execute(&batch);
                fold_bits(&mut fresh, &result.unwrap());
            }
            let result = engine(EngineConfig::unoptimized()).execute(&batch);
            fold_bits(&mut unoptimized, &result.unwrap());
            let mut live = engine(EngineConfig::default())
                .prepare(&batch)
                .unwrap()
                .into_serving(&dynamics)
                .unwrap();
            for delta in &stream {
                live.commit(delta, &dynamics).unwrap();
                fold_bits(&mut maintained, live.snapshot().results());
            }
            let mut live = engine(EngineConfig::full(1))
                .prepare(&batch)
                .unwrap()
                .into_serving(&dynamics)
                .unwrap();
            for txn in &txns {
                let stats = live.commit(txn.clone(), &dynamics).unwrap();
                fold_bits(&mut transactions, live.snapshot().results());
                // Without telescoping a group runs at most one scan per
                // non-empty delta partition plus one propagation scan.
                let partitions = txn
                    .deltas()
                    .iter()
                    .map(|d| usize::from(d.num_inserts() > 0) + usize::from(d.num_deletes() > 0))
                    .max()
                    .unwrap_or(0);
                let untelescoped = stats.seed_groups * (partitions + 1) + stats.propagated_groups;
                telescoped += usize::from(stats.group_scans > untelescoped);
            }
        }
    }
    let (db, tree, batch) = multi_morsel_db_and_batch();
    for threads in [1, 2] {
        let result = Engine::new(db.clone(), tree.clone(), EngineConfig::full(threads))
            .execute(&batch)
            .unwrap();
        fold_bits(&mut fresh, &result);
    }
    assert!(
        telescoped > 0,
        "no transaction ran a telescoped propagation"
    );
    let got = [fresh, maintained, unoptimized, transactions].map(|d| format!("{d:#018x}"));
    assert_eq!(
        [FRESH, MAINTAINED, UNOPTIMIZED, TRANSACTIONS],
        [fresh, maintained, unoptimized, transactions],
        "digests (fresh, maintained, unoptimized, transactions): {got:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// `specialization` only changes how a local factor is evaluated, never
    /// its value: with the flag on and off the CM, RT and MI batches produce
    /// the same bits on all four datasets — from a fresh execution, and from
    /// the maintained state after commits.
    #[test]
    fn specialization_on_and_off_are_bit_identical(seed in 0u64..1_000) {
        let dynamics = DynamicRegistry::new();
        for ds in datagen::all_datasets(Scale::new(300, seed)) {
            let spec = WorkloadSpec::for_dataset(&ds.name);
            let stream = update_stream(
                &ds,
                fact_relation(&ds.name),
                &UpdateMix::balanced(6).seed(seed),
            );
            let batches = [
                ("CM", spec.covar_batch(&ds)),
                ("RT", spec.rt_node_batch(&ds)),
                ("MI", spec.mutual_info_batch(&ds)),
            ];
            for (workload, batch) in &batches {
                for on in [EngineConfig::with_specialization(), EngineConfig::default()] {
                    let off = EngineConfig { specialization: false, ..on };
                    let [lowered, generic] = [on, off].map(|cfg| {
                        Engine::new(ds.db.clone(), ds.tree.clone(), cfg)
                            .prepare(batch)
                            .unwrap()
                    });
                    let context = format!("{}/{workload} multi_output={}", ds.name, on.multi_output);
                    prop_assert_eq!(
                        result_bits(&lowered.execute(&dynamics).unwrap()),
                        result_bits(&generic.execute(&dynamics).unwrap()),
                        "{} fresh", context
                    );
                    let mut lowered = lowered.into_serving(&dynamics).unwrap();
                    let mut generic = generic.into_serving(&dynamics).unwrap();
                    for (step, delta) in stream.iter().enumerate() {
                        lowered.commit(delta, &dynamics).unwrap();
                        generic.commit(delta, &dynamics).unwrap();
                        prop_assert_eq!(
                            result_bits(lowered.snapshot().results()),
                            result_bits(generic.snapshot().results()),
                            "{} after commit {}", context, step
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine agrees with the materialized baseline on scalar and
    /// group-by aggregates for arbitrary databases, in every configuration.
    #[test]
    fn engine_matches_baseline_on_random_databases(
        (r_rows, s_rows, t_rows) in tuple_strategy()
    ) {
        let (db, tree) = chain_db(&r_rows, &s_rows, &t_rows);
        let a = db.schema().attr_id("a").unwrap();
        let x = db.schema().attr_id("x").unwrap();
        let y = db.schema().attr_id("y").unwrap();
        let c = db.schema().attr_id("c").unwrap();

        // A factor spanning R and T, kept finite by small coefficients: a
        // scan reads one of its attributes from its own rows and the other
        // from an incoming view's extra key.
        let exp_xy = Aggregate::product(ProductTerm::single(ScalarFunction::ExpLinear {
            coefficients: vec![(x, 0.3), (y, -0.2)],
        }));

        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push("sum_xy", vec![], vec![Aggregate::sum_product(x, y)]);
        batch.push("exp_xy", vec![], vec![exp_xy.clone()]);
        batch.push("per_a", vec![a], vec![Aggregate::sum(y), Aggregate::count()]);
        batch.push("per_c", vec![c], vec![Aggregate::sum_square(x)]);
        batch.push("exp_xy_per_c", vec![c], vec![exp_xy]);

        let baseline = MaterializedEngine::materialize(&db, &tree);
        let expected = baseline.execute_batch(&batch, &DynamicRegistry::new());

        for config in [EngineConfig::default(), EngineConfig::unoptimized(), EngineConfig::full(2)] {
            let engine = Engine::new(db.clone(), tree.clone(), config);
            let result = engine.execute(&batch).unwrap();
            // Scalars.
            for (q, (got, want)) in batch.queries.iter().zip(result.queries.iter().zip(&expected)).take(3) {
                let (got, want) = (got.scalar()[0], want.scalar(1)[0]);
                prop_assert!(close(got, want), "{}: {} vs {}", q.name, got, want);
            }
            // Group-bys: every non-zero baseline group must match.
            for (qi, exp) in expected.iter().enumerate().skip(3) {
                for (key, vals) in exp.data.iter() {
                    let got = result.queries[qi].get(key);
                    if vals.iter().any(|v| v.abs() > 1e-9) {
                        let got = got.unwrap_or(&[]);
                        prop_assert_eq!(got.len(), vals.len());
                        for (g, w) in got.iter().zip(vals) {
                            prop_assert!(close(*g, *w), "{:?} vs {:?}", got, vals);
                        }
                    }
                }
            }
        }
    }

    /// `prepare().execute()` over a shared database equals a fresh
    /// `Engine::execute` for every configuration of the ablation ladder, on
    /// random chain databases, and repeated executions of one prepared batch
    /// are identical.
    #[test]
    fn prepared_execution_matches_fresh_engines_across_the_ladder(
        (r_rows, s_rows, t_rows) in tuple_strategy()
    ) {
        let (db, tree) = chain_db(&r_rows, &s_rows, &t_rows);
        let a = db.schema().attr_id("a").unwrap();
        let x = db.schema().attr_id("x").unwrap();
        let y = db.schema().attr_id("y").unwrap();
        let c = db.schema().attr_id("c").unwrap();

        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push("sum_xy", vec![], vec![Aggregate::sum_product(x, y)]);
        batch.push("per_a", vec![a], vec![Aggregate::sum(y), Aggregate::count()]);
        batch.push("per_c", vec![c], vec![Aggregate::sum_square(x)]);

        let shared = SharedDatabase::prepare(db.clone(), &tree);
        let dynamics = DynamicRegistry::new();
        for (name, config) in EngineConfig::ablation_ladder(2) {
            let prepared = Engine::with_shared(shared.clone(), tree.clone(), config)
                .prepare(&batch).unwrap();
            let via_prepared = prepared.execute(&dynamics).unwrap();
            let fresh = Engine::new(db.clone(), tree.clone(), config).execute(&batch).unwrap();
            for (p, f) in via_prepared.queries.iter().zip(&fresh.queries) {
                prop_assert_eq!(p.len(), f.len(), "{}: group counts differ", name);
                for (key, vals) in f.iter() {
                    let got = p.get(key);
                    prop_assert!(got.is_some(), "{}: missing group {:?}", name, key);
                    prop_assert_eq!(got.unwrap(), vals.as_slice(), "{}: {:?}", name, key);
                }
            }
            // Re-executing the same prepared batch is deterministic.
            let again = prepared.execute(&dynamics).unwrap();
            for (p, q) in via_prepared.queries.iter().zip(&again.queries) {
                prop_assert_eq!(&p.data, &q.data);
            }
        }
    }

    /// Restricting a prepared batch by random conditions — on payload and
    /// on join attributes — gives the bits of the same batch with the
    /// conditions' indicators multiplied into every term, and restricting in
    /// two steps gives the bits of one step.
    #[test]
    fn restrict_is_the_batch_times_its_indicators(
        (r_rows, s_rows, t_rows) in tuple_strategy(),
        specs in prop::collection::vec(
            (0..5usize, 0..8u8, 0..5i64, -3.0..3.0f64, prop::collection::vec(0..5i64, 0..3)),
            1..4,
        )
    ) {
        let (db, tree) = chain_db(&r_rows, &s_rows, &t_rows);
        let conditions: Vec<ScalarFunction> =
            specs.into_iter().map(|spec| chain_condition(&db, spec)).collect();
        let a = db.schema().attr_id("a").unwrap();
        let x = db.schema().attr_id("x").unwrap();
        let y = db.schema().attr_id("y").unwrap();
        let c = db.schema().attr_id("c").unwrap();
        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push("sum_xy", vec![], vec![Aggregate::sum_product(x, y)]);
        batch.push("per_a", vec![a], vec![Aggregate::sum(y), Aggregate::count()]);
        batch.push("per_c", vec![c], vec![Aggregate::sum_square(x)]);
        let mut conditioned = QueryBatch::new();
        for q in &batch.queries {
            let aggregates = q.aggregates.iter().map(|agg| {
                Aggregate::sum_of(agg.terms.iter().map(|term| {
                    conditions.iter().fold(term.clone(), |t, cond| t.times(cond.clone()))
                }).collect())
            }).collect();
            conditioned.push(q.name.clone(), q.group_by.clone(), aggregates);
        }

        let dynamics = DynamicRegistry::new();
        for config in [EngineConfig::default(), EngineConfig::full(2)] {
            let engine = Engine::new(db.clone(), tree.clone(), config);
            let prepared = engine.prepare(&batch).unwrap();
            let restricted = prepared.restrict(&conditions).unwrap();
            let expected = result_bits(&engine.prepare(&conditioned).unwrap().execute(&dynamics).unwrap());
            prop_assert_eq!(
                &result_bits(&restricted.execute(&dynamics).unwrap()),
                &expected,
                "{:?}", conditions
            );
            let (first, rest) = conditions.split_at(1);
            let chained = prepared.restrict(first).unwrap().restrict(rest).unwrap();
            prop_assert_eq!(
                &result_bits(&chained.execute(&dynamics).unwrap()),
                &expected,
                "chained {:?}", conditions
            );
        }
    }

    /// The count query equals the size of the materialized join, and the
    /// engine never reports more groups than distinct keys in the join.
    #[test]
    fn count_equals_join_size(
        (r_rows, s_rows, t_rows) in tuple_strategy()
    ) {
        let (db, tree) = chain_db(&r_rows, &s_rows, &t_rows);
        let a = db.schema().attr_id("a").unwrap();
        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push("per_a", vec![a], vec![Aggregate::count()]);
        let engine = Engine::new(db.clone(), tree.clone(), EngineConfig::default());
        let result = engine.execute(&batch).unwrap();
        let join = MaterializedEngine::materialize(&db, &tree);
        prop_assert_eq!(result.queries[0].scalar()[0], join.join().len() as f64);
        let a_col = join.join().position(a);
        let distinct = a_col.map(|col| join.join().distinct_count(col)).unwrap_or(0);
        prop_assert_eq!(result.queries[1].len(), distinct);
    }

    /// `Relation::semi_join` keeps exactly the rows a nested-loop filter
    /// keeps, in order, on `Int`, `Float` (NaN, `0.0`, `-0.0`), `Dict` and
    /// `Mixed` key columns, with keys of one to three columns, empty sides,
    /// and one or two probes at once; it returns `None` exactly when every
    /// row is kept, and a probe by the target's own keys keeps every row.
    #[test]
    fn semi_join_matches_a_nested_loop_filter(
        (kinds, widths, two_probes) in (
            prop::collection::vec(0u8..4, 3..4),
            (1usize..4, 1usize..4),
            0u8..2,
        ),
        (target, first, second) in (
            prop::collection::vec(0u8..4, 0..30),
            prop::collection::vec(0u8..4, 0..30),
            prop::collection::vec(0u8..4, 0..30),
        )
    ) {
        let mut target = key_relation("T", &kinds, &target, false);
        target.sort_by_positions(&[0, 1, 2]);
        let sources = [
            key_relation("S1", &kinds, &first, true),
            key_relation("S2", &kinds, &second, false),
        ];
        // The first probe keys on the first `w1` target columns, which the
        // reversed source holds at positions `2 - c`; the second on the last
        // `w2` columns.
        let (w1, w2) = widths;
        let first_cols: Vec<usize> = (0..w1).collect();
        let reversed: Vec<usize> = first_cols.iter().map(|c| 2 - c).collect();
        let mut probes = vec![(&sources[0], first_cols.clone(), reversed)];
        if two_probes == 1 {
            probes.push((&sources[1], (3 - w2..3).collect(), (3 - w2..3).collect()));
        }
        let keyed: Vec<(Vec<usize>, lmfao_data::KeySet)> = probes
            .iter()
            .map(|(source, cols, source_cols)| (cols.clone(), source.keys(source_cols)))
            .collect();
        let want = naive_semi_join(&target, &probes);
        match target.semi_join(&keyed) {
            None => prop_assert_eq!(want.len(), target.len()),
            Some(kept) => {
                prop_assert!(want.len() < target.len());
                prop_assert_eq!(kept.sorted_by(), target.sorted_by());
                let got: Vec<Vec<Value>> = kept.rows().map(|r| r.to_vec()).collect();
                prop_assert_eq!(got, want);
            }
        }
        let own = target.keys(&first_cols);
        prop_assert!(target.semi_join(&[(first_cols, own)]).is_none());
        prop_assert_eq!(target.semi_join(&[]).map(|r| r.len()), (!target.is_empty()).then_some(0));
    }

    /// Relation sorting is a permutation: length, multiset of rows and
    /// min/max per column are preserved.
    #[test]
    fn sorting_preserves_rows(rows in prop::collection::vec((0..10i64, 0..10i64), 0..50)) {
        let schema = RelationSchema::new("R", vec![AttrId(0), AttrId(1)]);
        let mut rel = Relation::from_rows(
            schema,
            rows.iter().map(|&(a, b)| vec![Value::Int(a), Value::Int(b)]).collect(),
        )
        .unwrap();
        let before_len = rel.len();
        let mut before: Vec<Vec<Value>> = rel.rows().map(|r| r.to_vec()).collect();
        rel.sort_by_positions(&[0, 1]);
        prop_assert_eq!(rel.len(), before_len);
        let mut after: Vec<Vec<Value>> = rel.rows().map(|r| r.to_vec()).collect();
        before.sort();
        after.sort();
        prop_assert_eq!(before, after);
        // And the relation is indeed sorted by column 0.
        for i in 1..rel.len() {
            prop_assert!(rel.value(i - 1, 0) <= rel.value(i, 0));
        }
    }

    /// A computed view's flat store behaves as a map with first-insertion
    /// order: random sequences of `add`, `add_single`, `merge_from`,
    /// `merge_signed_snapped`, `prune_zero_entries` and `clone` / `clone_from` over two
    /// views, with keys of arity 0–3, leave each with the key set, the
    /// payload bits and the iteration order of a `FxHashMap` model that
    /// records the order in which keys first arrived (and drops pruned ones
    /// from it).
    #[test]
    fn computed_views_match_a_map_model(
        (arity, width) in (0usize..4, 1usize..4),
        ops in prop::collection::vec((0u8..8, 0u8..8, 0u8..8, 0u8..8, 0u8..8, 0u8..8), 0..120)
    ) {
        let attrs: Vec<AttrId> = (0..arity as u32).map(AttrId).collect();
        let mut views = [
            ComputedView::new(attrs.clone(), width),
            ComputedView::new(attrs.clone(), width),
        ];
        let mut models = [ModelView::default(), ModelView::default()];
        for (step, &(op, k0, k1, k2, v, agg)) in ops.iter().enumerate() {
            let key: Vec<Value> = [k0, k1, k2][..arity]
                .iter()
                .map(|&k| VIEW_KEY_PARTS[k as usize])
                .collect();
            let values: Vec<f64> = (0..width)
                .map(|i| VIEW_VALUES[(v as usize + i) % VIEW_VALUES.len()])
                .collect();
            // `add`, `add_single` and `prune_zero_entries` act on the second
            // view when `agg` is odd.
            let t = usize::from(agg % 2 == 1);
            match op {
                0 | 2 => {
                    let t = if op == 2 { 1 } else { t };
                    views[t].add(&key, &values);
                    let entry = models[t].entry(&key, width);
                    entry.iter_mut().zip(&values).for_each(|(e, x)| *e += x);
                }
                1 => {
                    let (agg, x) = (agg as usize / 2 % width, values[0]);
                    views[t].add_single(&key, agg, x);
                    models[t].entry(&key, width)[agg] += x;
                }
                3 => {
                    views[0].merge_from(views[1].clone());
                    let other = models[1].clone();
                    models[0].merge(&other, width, |e, x| *e += x);
                }
                4 => {
                    let (sign, eps) = (if v % 2 == 0 { 1.0 } else { -1.0 }, 1e-11);
                    let [a, b] = &mut views;
                    a.merge_signed_snapped(b, sign, eps);
                    let other = models[1].clone();
                    models[0].merge(&other, width, |e, x| {
                        *e += sign * x;
                        if *e != 0.0 && e.fract() != 0.0 && e.abs() <= eps * x.abs() {
                            *e = 0.0;
                        }
                    });
                }
                5 => {
                    views[t].prune_zero_entries();
                    models[t].prune();
                }
                6 => {
                    // `clone_from` reuses the second view's buffers.
                    if v % 2 == 0 {
                        views[1] = views[0].clone();
                    } else {
                        let [a, b] = &mut views;
                        b.clone_from(a);
                    }
                    models[1] = models[0].clone();
                }
                _ => {
                    views[1] = ComputedView::new(attrs.clone(), width);
                    models[1] = ModelView::default();
                }
            }
            for (view, model) in views.iter().zip(&models) {
                if let Err(e) = same_as_model(view, model) {
                    prop_assert!(false, "step {} (op {}): {}", step, op, e);
                }
            }
        }
    }

    /// The columnar storage round-trips `from_rows -> rows()` exactly: every
    /// cell — including nulls, categorical codes and doubles compared by bit
    /// pattern — comes back identical, whatever mix of variants a column
    /// receives (typed columns for homogeneous data, the `Mixed` fallback
    /// otherwise).
    #[test]
    fn columnar_round_trip_is_exact(
        cells in prop::collection::vec((0u8..4, -100i64..100, -5.0..5.0f64, 0u32..50), 0..120)
    ) {
        let rows: Vec<Vec<Value>> = cells
            .chunks(3)
            .filter(|ch| ch.len() == 3)
            .map(|ch| ch.iter().map(|&c| cell_value(c)).collect())
            .collect();
        let rel = Relation::from_rows(
            RelationSchema::new("R", vec![AttrId(0), AttrId(1), AttrId(2)]),
            rows.clone(),
        )
        .unwrap();
        prop_assert_eq!(rel.len(), rows.len());
        let back: Vec<Vec<Value>> = rel.rows().map(|r| r.to_vec()).collect();
        // `Value` equality is bit-exact for doubles (to_bits), so this pins
        // the round trip down to the bit pattern.
        prop_assert_eq!(back, rows);
    }

    /// Rebuilding every relation through the row adapter (the row-oriented
    /// construction path) and re-running the engine yields **bit-identical**
    /// results across the full ablation ladder: columnar storage, permutation
    /// sorting and the typed fast paths change no result bit relative to
    /// row-by-row construction semantics.
    #[test]
    fn ladder_results_are_bit_identical_after_storage_round_trip(
        (r_rows, s_rows, t_rows) in tuple_strategy()
    ) {
        let (db, tree) = chain_db(&r_rows, &s_rows, &t_rows);
        let a = db.schema().attr_id("a").unwrap();
        let x = db.schema().attr_id("x").unwrap();
        let y = db.schema().attr_id("y").unwrap();
        let c = db.schema().attr_id("c").unwrap();
        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch.push("sum_xy", vec![], vec![Aggregate::sum_product(x, y)]);
        batch.push("per_a", vec![a], vec![Aggregate::sum(y), Aggregate::count()]);
        batch.push("per_c", vec![c], vec![Aggregate::sum_square(x)]);

        let rebuilt: Vec<Relation> = db
            .relations()
            .iter()
            .map(|r| {
                Relation::from_rows(
                    r.schema().clone(),
                    r.rows().map(|row| row.to_vec()).collect(),
                )
                .unwrap()
            })
            .collect();
        let db2 = lmfao_data::Database::new(db.schema().clone(), rebuilt).unwrap();

        for (name, config) in EngineConfig::ablation_ladder(2) {
            let res1 = Engine::new(db.clone(), tree.clone(), config).execute(&batch).unwrap();
            let res2 = Engine::new(db2.clone(), tree.clone(), config).execute(&batch).unwrap();
            for (q1, q2) in res1.queries.iter().zip(&res2.queries) {
                prop_assert_eq!(q1.len(), q2.len(), "{}: group counts differ", name);
                for (key, vals) in q1.iter() {
                    let other = q2.get(key);
                    prop_assert!(other.is_some(), "{}: missing group {:?}", name, key);
                    let bits1: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
                    let bits2: Vec<u64> =
                        other.unwrap().iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(bits1, bits2, "{}: {:?} differs bitwise", name, key);
                }
            }
        }
    }

    /// Dictionary encoding round-trips arbitrary strings.
    #[test]
    fn dictionary_round_trips(words in prop::collection::vec("[a-z]{1,8}", 1..40)) {
        let mut dict = lmfao_data::Dictionary::new();
        let codes: Vec<u32> = words.iter().map(|w| dict.encode(w)).collect();
        for (w, c) in words.iter().zip(&codes) {
            prop_assert_eq!(dict.decode(*c), Some(w.as_str()));
            prop_assert_eq!(dict.encode(w), *c);
        }
        let distinct: std::collections::BTreeSet<&String> = words.iter().collect();
        prop_assert_eq!(dict.len(), distinct.len());
    }
}
