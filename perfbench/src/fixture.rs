//! Generated inputs and the harness's own result checks.
//!
//! Everything a workload is built from — dataset, sorted database, query
//! batch, prepared plans — comes from `--seed`; the engine only ever sees
//! these generated inputs. The digests are computed by the harness itself so
//! the correctness gates do not lean on the code they check.

use lmfao_baseline::{BaselineResult, MaterializedEngine};
use lmfao_core::{BatchResult, Engine, EngineConfig, PreparedBatch, QueryResult, SharedDatabase};
use lmfao_data::{AttrId, Relation, Value};
use lmfao_datagen::{Dataset, Scale};
use lmfao_expr::{Aggregate, CmpOp, DynamicRegistry, ProductTerm, QueryBatch, ScalarFunction};
use lmfao_ml::{covar_batch, mutual_info_batch, CovarSpec};
use std::time::Instant;

/// Worker threads of the engines the workloads measure: one, which is also
/// `EngineConfig::default()`. The container's two virtual cores do not
/// reliably run at once — two spinning processes take 0.5 s each in one
/// minute and 1.06 s each in the next — so with two engine threads
/// `agg_groupby` reads 114 ms and 69 MiB for a quarter of an hour and then
/// 150 ms and 46 MiB. The two-thread engine is measured where nothing is
/// gated on it: `parallel.*`, `ladder.full_ms`, `commit.t2_ms`.
pub const THREADS: usize = 1;
/// Threads of the parallel configurations the traced run probes.
pub const PARALLEL_THREADS: usize = 2;

/// Relative tolerance against a from-scratch reference: float addition is
/// not associative, so maintained or differently ordered sums may differ in
/// the last bits.
const REL_EPS: f64 = 1e-9;

/// Runs `f` and returns its result with the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Data {
    Retailer,
    Favorita,
    TpcDs,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Batch {
    /// One regression-tree node: COUNT, SUM(y), SUM(y²) under 20 thresholds
    /// per continuous attribute, plus per-category statistics.
    TreeNode,
    /// Pairwise mutual information: group-by counts over attribute pairs.
    MutualInfo,
    /// The covariance matrix over continuous and categorical attributes.
    Covar,
}

/// Continuous attributes (label last) and categorical attributes per dataset,
/// as the paper's experiments use them.
fn model_attrs(data: Data) -> (&'static [&'static str], &'static [&'static str]) {
    match data {
        Data::Retailer => (
            &[
                "avghhi",
                "tot_area_sq_ft",
                "sell_area_sq_ft",
                "distance_comp",
                "population",
                "medianage",
                "households",
                "maxtemp",
                "mintemp",
                "meanwind",
                "prices",
                "inventoryunits",
            ],
            &["rgn_cd", "clim_zn_nbr", "category", "categorycluster"],
        ),
        Data::TpcDs => (
            &[
                "quantity",
                "salesprice",
                "discount",
                "birth_year",
                "purchase_estimate",
                "iprice",
                "floor_space",
                "lower_bound",
                "netpaid",
            ],
            &[
                "preferred",
                "gender",
                "marital",
                "education",
                "icategory",
                "sstate",
            ],
        ),
        Data::Favorita => (
            &["txns", "price", "cluster", "units"],
            &["family", "city", "state", "stype", "htype"],
        ),
    }
}

const FAVORITA_MUTUAL_INFO: &[&str] = &[
    "family",
    "city",
    "state",
    "stype",
    "htype",
    "locale",
    "perishable",
    "promo",
];

pub fn generate(data: Data, rows: usize, seed: u64) -> Dataset {
    let scale = Scale::new(rows, seed);
    match data {
        Data::Retailer => lmfao_datagen::retailer::generate(scale),
        Data::Favorita => lmfao_datagen::favorita::generate(scale),
        Data::TpcDs => lmfao_datagen::tpcds::generate(scale),
    }
}

/// Features (continuous attributes without the label) and the label.
pub fn features_and_label(data: Data, ds: &Dataset) -> (Vec<AttrId>, AttrId) {
    let (continuous, _) = model_attrs(data);
    let (label, features) = continuous.split_last().expect("label is listed last");
    (
        features.iter().map(|n| ds.attr(n)).collect(),
        ds.attr(label),
    )
}

fn build_batch(data: Data, kind: Batch, ds: &Dataset) -> QueryBatch {
    let (continuous, categorical) = model_attrs(data);
    let attrs = |names: &[&str]| names.iter().map(|n| ds.attr(n)).collect::<Vec<_>>();
    match kind {
        Batch::Covar => {
            covar_batch(&CovarSpec {
                continuous: attrs(continuous),
                categorical: attrs(categorical),
            })
            .batch
        }
        Batch::MutualInfo => mutual_info_batch(&attrs(FAVORITA_MUTUAL_INFO)).batch,
        Batch::TreeNode => tree_node_batch(ds, continuous, categorical),
    }
}

fn tree_node_batch(ds: &Dataset, continuous: &[&str], categorical: &[&str]) -> QueryBatch {
    let (label_name, features) = continuous.split_last().expect("label is listed last");
    let label = ds.attr(label_name);
    let stats = || {
        vec![
            Aggregate::count(),
            Aggregate::sum(label),
            Aggregate::sum_square(label),
        ]
    };
    let mut batch = QueryBatch::new();
    batch.push("rt_parent", vec![], stats());
    for name in features {
        let attr = ds.attr(name);
        let (lo, hi) = ds
            .db
            .relations()
            .iter()
            .find_map(|r| r.position(attr).and_then(|c| r.min_max(c)))
            .map_or((0.0, 1.0), |(lo, hi)| (lo.as_f64(), hi.as_f64()));
        for b in 1..=20 {
            let cond = ScalarFunction::Indicator {
                attr,
                op: CmpOp::Le,
                threshold: Value::Double(lo + (hi - lo) * b as f64 / 21.0),
            };
            let term = |f: Option<ScalarFunction>| {
                let t = ProductTerm::single(cond.clone());
                Aggregate::product(match f {
                    Some(f) => t.times(f),
                    None => t,
                })
            };
            batch.push(
                format!("rt_{name}_{b}"),
                vec![],
                vec![
                    term(None),
                    term(Some(ScalarFunction::Identity(label))),
                    term(Some(ScalarFunction::Power {
                        attr: label,
                        exponent: 2,
                    })),
                ],
            );
        }
    }
    for name in categorical {
        batch.push(format!("rt_cat_{name}"), vec![ds.attr(name)], stats());
    }
    batch
}

/// Milliseconds each part of a set-up took (together they are one `setup_s`
/// sample) and the size of what it built; reported in the traced run.
#[derive(Default, Clone, Copy, Debug)]
pub struct SetupTimes {
    pub generate_ms: f64,
    pub sort_ms: f64,
    pub batch_ms: f64,
    pub into_serving_ms: f64,
    pub stream_ms: f64,
    pub db_bytes: usize,
    pub queries: usize,
    pub aggregates: usize,
}

pub fn db_bytes(db: &SharedDatabase) -> usize {
    db.relations().iter().map(Relation::size_bytes).sum()
}

/// A generated dataset with its batch planned over it.
pub struct Fixture {
    pub ds: Dataset,
    pub shared: SharedDatabase,
    pub batch: QueryBatch,
    pub engine: Engine,
    pub prepared: PreparedBatch,
    pub times: SetupTimes,
}

impl Fixture {
    pub fn build(data: Data, rows: usize, kind: Batch, seed: u64) -> Fixture {
        let (ds, generate_ms) = timed(|| generate(data, rows, seed));
        let (shared, sort_ms) = timed(|| SharedDatabase::prepare(ds.db.clone(), &ds.tree));
        let (batch, batch_ms) = timed(|| build_batch(data, kind, &ds));
        let engine =
            Engine::with_shared(shared.clone(), ds.tree.clone(), EngineConfig::full(THREADS));
        let prepared = engine.prepare(&batch);
        Fixture {
            ds,
            engine,
            prepared: prepared.expect("generated batches plan over their own dataset"),
            times: SetupTimes {
                generate_ms,
                sort_ms,
                batch_ms,
                db_bytes: db_bytes(&shared),
                queries: batch.len(),
                aggregates: batch.num_aggregates(),
                ..SetupTimes::default()
            },
            shared,
            batch,
        }
    }
}

/// FNV-1a over a byte stream: stable across runs, toolchains and machines,
/// which `DefaultHasher` does not promise.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn value(&mut self, v: Value) {
        match v {
            Value::Null => self.u64(0),
            Value::Int(i) => {
                self.u64(1);
                self.u64(i as u64);
            }
            Value::Double(d) => {
                self.u64(2);
                self.u64(d.to_bits());
            }
            Value::Cat(c) => {
                self.u64(3);
                self.u64(c as u64);
            }
        }
    }

    pub fn relation(&mut self, rel: &Relation) {
        self.bytes(rel.name().as_bytes());
        self.u64(rel.len() as u64);
        for row in rel.rows() {
            for v in row.iter() {
                self.value(v);
            }
        }
    }
}

/// Digest of every generated relation, in schema order.
pub fn dataset_digest(ds: &Dataset) -> Fnv {
    let mut h = Fnv::default();
    for rel in ds.db.relations() {
        h.relation(rel);
    }
    h
}

/// Order-independent digest of a query result: entry hashes are summed, so
/// hash-map iteration order does not matter while every key and every bit of
/// every aggregate does.
pub fn query_digest(q: &QueryResult) -> u64 {
    let mut h = Fnv::default();
    h.bytes(q.name.as_bytes());
    let mut sum = 0u64;
    for (key, values) in q.iter() {
        let mut e = Fnv::default();
        key.iter().for_each(|&v| e.value(v));
        values.iter().for_each(|v| e.u64(v.to_bits()));
        sum = sum.wrapping_add(e.0);
    }
    h.u64(q.len() as u64);
    h.u64(sum);
    h.0
}

pub fn result_digest(result: &BatchResult) -> u64 {
    let mut h = Fnv::default();
    for q in &result.queries {
        h.u64(query_digest(q));
    }
    h.0
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= REL_EPS * want.abs().max(1.0)
}

/// True when both results hold the same groups with aggregates within
/// [`REL_EPS`]; groups whose aggregates are all zero may be absent on either
/// side (an empty group and a missing group mean the same).
pub fn same_query(got: &QueryResult, want: &QueryResult) -> bool {
    let covered = |a: &QueryResult, b: &QueryResult| {
        a.iter().all(|(key, av)| match b.get(key) {
            Some(bv) => av.len() == bv.len() && av.iter().zip(bv).all(|(x, y)| close(*x, *y)),
            None => av.iter().all(|x| close(*x, 0.0)),
        })
    };
    covered(got, want) && covered(want, got)
}

pub fn same_results(got: &BatchResult, want: &BatchResult) -> bool {
    got.queries.len() == want.queries.len()
        && got
            .queries
            .iter()
            .zip(&want.queries)
            .all(|(g, w)| g.name == w.name && same_query(g, w))
}

fn matches_baseline(got: &QueryResult, want: &BaselineResult) -> bool {
    want.data.iter().all(|(key, wv)| match got.get(key) {
        Some(gv) => gv.iter().zip(wv).all(|(g, w)| close(*g, *w)),
        None => wv.iter().all(|w| close(*w, 0.0)),
    }) && got
        .iter()
        .all(|(key, gv)| want.data.contains_key(key) || gv.iter().all(|g| close(*g, 0.0)))
}

/// Checks an engine result against the materialized-join baseline on the
/// same batch; returns how many queries disagree.
pub fn baseline_mismatches(fx: &Fixture, result: &BatchResult) -> u64 {
    let baseline = MaterializedEngine::materialize(&fx.ds.db, &fx.ds.tree);
    let expected = baseline.execute_batch(&fx.batch, &DynamicRegistry::new());
    result
        .queries
        .iter()
        .zip(&expected)
        .filter(|(got, want)| !matches_baseline(got, want))
        .count() as u64
        + result.queries.len().abs_diff(expected.len()) as u64
}
