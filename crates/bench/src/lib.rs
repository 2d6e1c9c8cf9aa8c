//! # lmfao-bench
//!
//! The reproducer of the LMFAO paper's evaluation, plus the two concurrent
//! audit harnesses the tier-1 tests and CI run:
//!
//! * the `experiments` binary regenerates every table and figure
//!   (`cargo run --release -p lmfao-bench --bin experiments -- all`);
//! * the `serve` binary and the [`serve`] module run the concurrent-serving
//!   loop: reader threads answering query lookups from epoch-published
//!   snapshots while a writer applies updates, audited afterwards against a
//!   from-scratch recompute and the certificate checker
//!   (`cargo run --release -p lmfao-bench --bin serve`);
//! * the [`iso`] module runs the isolation stress harness: the same
//!   reader/writer loop ([`readers_vs_writer`]), but recording a black-box
//!   read/commit history that the snapshot-isolation checker validates.
//!
//! The workload builders in this crate are shared between all of them.
//! Performance is not measured here: that is `perfbench/`, a package outside
//! the workspace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod iso;
pub mod serve;

use lmfao_core::{Engine, EngineConfig, SharedDatabase, SnapshotHandle, ViewSnapshot};
use lmfao_data::AttrId;
use lmfao_datagen::{Dataset, Scale};
use lmfao_expr::{Aggregate, QueryBatch};
use lmfao_ml::{covar_batch, datacube_batch, mutual_info_batch, CovarSpec};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The per-dataset workload configuration used throughout the paper's
/// experiments: which attributes participate in the covar matrix, the
/// regression-tree node, the mutual-information batch and the data cube.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Continuous attributes (the last one is the regression label).
    pub continuous: Vec<String>,
    /// Categorical attributes (one-hot encoded / group-by attributes).
    pub categorical: Vec<String>,
    /// Attributes used for the pairwise mutual-information batch.
    pub mutual_info: Vec<String>,
    /// The three cube dimensions.
    pub cube_dims: Vec<String>,
    /// The five cube measures.
    pub cube_measures: Vec<String>,
    /// The label attribute for model training.
    pub label: String,
}

impl WorkloadSpec {
    /// The workload attributes for a dataset by name, mirroring the paper's
    /// setup (all attributes except join keys, a handful of MI attributes,
    /// three dimensions and five measures for the cube).
    pub fn for_dataset(name: &str) -> WorkloadSpec {
        match name {
            "Retailer" => WorkloadSpec {
                continuous: vec![
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
                ]
                .into_iter()
                .map(String::from)
                .collect(),
                categorical: vec!["rgn_cd", "clim_zn_nbr", "category", "categorycluster"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
                mutual_info: vec![
                    "rgn_cd",
                    "clim_zn_nbr",
                    "category",
                    "categorycluster",
                    "subcategory",
                    "rain",
                    "snow",
                    "thunder",
                ]
                .into_iter()
                .map(String::from)
                .collect(),
                cube_dims: vec!["category", "rgn_cd", "clim_zn_nbr"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
                cube_measures: vec![
                    "inventoryunits",
                    "prices",
                    "avghhi",
                    "maxtemp",
                    "population",
                ]
                .into_iter()
                .map(String::from)
                .collect(),
                label: "inventoryunits".into(),
            },
            "Favorita" => WorkloadSpec {
                continuous: vec!["txns", "price", "cluster", "units"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
                categorical: vec!["family", "city", "state", "stype", "htype"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
                mutual_info: vec![
                    "family",
                    "city",
                    "state",
                    "stype",
                    "htype",
                    "locale",
                    "perishable",
                    "promo",
                ]
                .into_iter()
                .map(String::from)
                .collect(),
                cube_dims: vec!["family", "city", "stype"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
                cube_measures: vec!["units", "txns", "price", "cluster", "perishable"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
                label: "units".into(),
            },
            "Yelp" => WorkloadSpec {
                continuous: vec![
                    "useful",
                    "user_review_count",
                    "user_avg_stars",
                    "fans",
                    "bstars",
                    "breview_count",
                    "stars",
                ]
                .into_iter()
                .map(String::from)
                .collect(),
                categorical: vec!["bcity", "bstate", "category", "battribute"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
                mutual_info: vec![
                    "bcity",
                    "bstate",
                    "category",
                    "battribute",
                    "is_open",
                    "review_year",
                ]
                .into_iter()
                .map(String::from)
                .collect(),
                cube_dims: vec!["bcity", "category", "review_year"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
                cube_measures: vec![
                    "stars",
                    "useful",
                    "fans",
                    "breview_count",
                    "user_review_count",
                ]
                .into_iter()
                .map(String::from)
                .collect(),
                label: "stars".into(),
            },
            "TPC-DS" => WorkloadSpec {
                continuous: vec![
                    "quantity",
                    "salesprice",
                    "discount",
                    "birth_year",
                    "purchase_estimate",
                    "iprice",
                    "floor_space",
                    "lower_bound",
                    "netpaid",
                ]
                .into_iter()
                .map(String::from)
                .collect(),
                categorical: vec![
                    "preferred",
                    "gender",
                    "marital",
                    "education",
                    "icategory",
                    "sstate",
                ]
                .into_iter()
                .map(String::from)
                .collect(),
                mutual_info: vec![
                    "preferred",
                    "gender",
                    "marital",
                    "education",
                    "icategory",
                    "sstate",
                    "scity",
                    "weekday",
                    "shift",
                    "buy_potential",
                ]
                .into_iter()
                .map(String::from)
                .collect(),
                cube_dims: vec!["icategory", "sstate", "year"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
                cube_measures: vec![
                    "quantity",
                    "salesprice",
                    "discount",
                    "netpaid",
                    "purchase_estimate",
                ]
                .into_iter()
                .map(String::from)
                .collect(),
                label: "netpaid".into(),
            },
            other => panic!("no workload specification for dataset `{other}`"),
        }
    }

    fn attrs(ds: &Dataset, names: &[String]) -> Vec<AttrId> {
        names.iter().map(|n| ds.attr(n)).collect()
    }

    /// The count query (the sharing yardstick of Table 3).
    pub fn count_batch(&self, _ds: &Dataset) -> QueryBatch {
        let mut batch = QueryBatch::new();
        batch.push("count", vec![], vec![Aggregate::count()]);
        batch
    }

    /// The covar-matrix batch (CM workload).
    pub fn covar_batch(&self, ds: &Dataset) -> QueryBatch {
        let spec = CovarSpec {
            continuous: Self::attrs(ds, &self.continuous),
            categorical: Self::attrs(ds, &self.categorical),
        };
        covar_batch(&spec).batch
    }

    /// A regression-tree node batch (RT workload): COUNT / SUM(y) / SUM(y²)
    /// for ~20 candidate thresholds over every continuous attribute plus
    /// per-category counts for every categorical attribute.
    pub fn rt_node_batch(&self, ds: &Dataset) -> QueryBatch {
        use lmfao_expr::{CmpOp, ProductTerm, ScalarFunction};
        let label = ds.attr(&self.label);
        let mut batch = QueryBatch::new();
        batch.push(
            "rt_parent",
            vec![],
            vec![
                Aggregate::count(),
                Aggregate::sum(label),
                Aggregate::sum_square(label),
            ],
        );
        for name in self.continuous.iter().filter(|n| **n != self.label) {
            let attr = ds.attr(name);
            // 20 candidate thresholds, as in the paper's setup.
            let (lo, hi) = ds
                .db
                .relations()
                .iter()
                .find_map(|r| r.position(attr).and_then(|c| r.min_max(c)))
                .map(|(lo, hi)| (lo.as_f64(), hi.as_f64()))
                .unwrap_or((0.0, 1.0));
            for b in 1..=20 {
                let t = lo + (hi - lo) * b as f64 / 21.0;
                let cond = ScalarFunction::Indicator {
                    attr,
                    op: CmpOp::Le,
                    threshold: lmfao_data::Value::Double(t),
                };
                batch.push(
                    format!("rt_{name}_{b}"),
                    vec![],
                    vec![
                        Aggregate::product(ProductTerm::single(cond.clone())),
                        Aggregate::product(
                            ProductTerm::single(cond.clone())
                                .times(ScalarFunction::Identity(label)),
                        ),
                        Aggregate::product(ProductTerm::single(cond).times(
                            ScalarFunction::Power {
                                attr: label,
                                exponent: 2,
                            },
                        )),
                    ],
                );
            }
        }
        for name in &self.categorical {
            let attr = ds.attr(name);
            batch.push(
                format!("rt_cat_{name}"),
                vec![attr],
                vec![
                    Aggregate::count(),
                    Aggregate::sum(label),
                    Aggregate::sum_square(label),
                ],
            );
        }
        batch
    }

    /// The pairwise mutual-information batch (MI workload).
    pub fn mutual_info_batch(&self, ds: &Dataset) -> QueryBatch {
        mutual_info_batch(&Self::attrs(ds, &self.mutual_info)).batch
    }

    /// The data-cube batch (DC workload): three dimensions, five measures.
    pub fn datacube_batch(&self, ds: &Dataset) -> QueryBatch {
        datacube_batch(
            &Self::attrs(ds, &self.cube_dims),
            &Self::attrs(ds, &self.cube_measures),
        )
        .batch
    }

    /// All four named workloads of Tables 2 and 3.
    pub fn workloads(&self, ds: &Dataset) -> Vec<(&'static str, QueryBatch)> {
        vec![
            ("CM", self.covar_batch(ds)),
            ("RT", self.rt_node_batch(ds)),
            ("MI", self.mutual_info_batch(ds)),
            ("DC", self.datacube_batch(ds)),
        ]
    }
}

/// The dataset scale of a run: `LMFAO_SCALE` fact rows when the variable is
/// set, `default_rows` when it is not (seed 42 either way). A value that is
/// set but is not a row count is an error; the binaries exit 2 on it, as on
/// an unknown flag.
pub fn scale_from_env(default_rows: usize) -> Result<Scale, String> {
    let rows = match std::env::var_os("LMFAO_SCALE") {
        None => default_rows,
        Some(value) => value
            .to_str()
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("LMFAO_SCALE must be a number of fact rows, not {value:?}"))?,
    };
    Ok(Scale::new(rows, 42))
}

/// Readers against one writer, the loop of every concurrent audit. Each of
/// `readers` threads clones `handle`, makes its state with `init(reader)` and
/// hands every snapshot it loads to `read`, with the instant the load began,
/// until `writer` (run on this thread) returns or panics; then it loads and
/// reads once more, so it sees the writer's last publication. Returns the
/// readers' states in order and the writer's result.
pub fn readers_vs_writer<S: Send, W>(
    handle: &SnapshotHandle,
    readers: usize,
    init: impl Fn(usize) -> S + Sync,
    read: impl Fn(&mut S, Arc<ViewSnapshot>, Instant) + Sync,
    writer: impl FnOnce() -> W,
) -> (Vec<S>, W) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..readers)
            .map(|reader| {
                let (handle, stop, init, read) = (handle.clone(), &stop, &init, &read);
                s.spawn(move || {
                    let mut state = init(reader);
                    loop {
                        let done = stop.load(Ordering::Relaxed);
                        let began = Instant::now();
                        read(&mut state, handle.load(), began);
                        if done {
                            return state;
                        }
                    }
                })
            })
            .collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(writer));
        stop.store(true, Ordering::Relaxed);
        let states = threads
            .into_iter()
            .map(|t| t.join().expect("reader thread panicked"))
            .collect();
        (
            states,
            result.unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
        )
    })
}

/// Builds an LMFAO engine for a dataset with the given configuration. When
/// several engines over the same dataset are needed (the ablation ladder),
/// prepare the database once with [`shared_for`] and use
/// [`engine_for_shared`] instead of paying one full database clone + sort per
/// configuration.
pub fn engine_for(ds: &Dataset, config: EngineConfig) -> Engine {
    Engine::new(ds.db.clone(), ds.tree.clone(), config)
}

/// Sorts and freezes a dataset's database once for sharing across engine
/// configurations.
pub fn shared_for(ds: &Dataset) -> SharedDatabase {
    SharedDatabase::prepare(ds.db.clone(), &ds.tree)
}

/// Builds an engine over an already prepared shared database (cheap: no
/// clone, no re-sort).
pub fn engine_for_shared(db: &SharedDatabase, ds: &Dataset, config: EngineConfig) -> Engine {
    Engine::with_shared(db.clone(), ds.tree.clone(), config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_specs_resolve_for_all_datasets() {
        for ds in lmfao_datagen::all_datasets(Scale::small()) {
            let spec = WorkloadSpec::for_dataset(&ds.name);
            let workloads = spec.workloads(&ds);
            assert_eq!(workloads.len(), 4);
            for (name, batch) in &workloads {
                assert!(!batch.is_empty(), "{}/{name} batch is empty", ds.name);
            }
            // The DC workload always has 2^3 = 8 queries.
            assert_eq!(workloads[3].1.len(), 8);
        }
    }

    /// The plan `agg_scalar` spends its time in: on Retailer's RT batch the
    /// Inventory group (attribute order locn, dateid, ksn) produces one view
    /// keyed by `ksn` alone, bound at the deepest level and recurring under
    /// every (locn, dateid). It must be accumulated in an output register
    /// loaded once per ksn binding (depth 3), not per aggregate and range.
    #[test]
    fn rt_inventory_output_keyed_by_ksn_registers_at_depth_three() {
        use lmfao_core::group::group_views;
        use lmfao_core::plan::{build_group_plan, prepare_database, KeySource};
        use lmfao_core::pushdown::push_down_batch;
        use lmfao_core::roots::assign_roots;

        let ds = lmfao_datagen::retailer::generate(Scale::small());
        let batch = WorkloadSpec::for_dataset(&ds.name).rt_node_batch(&ds);
        let mut db = ds.db.clone();
        let roots = assign_roots(&batch, &ds.tree, &db, &EngineConfig::default());
        let pushdown = push_down_batch(&batch, &ds.tree, &roots);
        let grouping = group_views(&pushdown.catalog, true);
        prepare_database(&mut db, &ds.tree);
        let ksn = ds.attr("ksn");
        let mut found = 0;
        for group in &grouping.groups {
            let plan = build_group_plan(&db, &ds.tree, &pushdown.catalog, group).unwrap();
            for output in &plan.outputs {
                if plan.relation == "Inventory" && output.key_attrs == [ksn] {
                    assert_eq!(plan.attr_order.iter().position(|a| *a == ksn), Some(2));
                    for term in output.aggregates.iter().flat_map(|g| &g.terms) {
                        assert_eq!(term.key, [KeySource::BoundDepth(2)]);
                    }
                    assert_eq!(output.register_depth, Some(3));
                    found += 1;
                }
            }
        }
        assert_eq!(found, 1);
    }

    #[test]
    #[should_panic(expected = "no workload specification")]
    fn unknown_dataset_panics() {
        WorkloadSpec::for_dataset("Unknown");
    }

    #[test]
    fn engines_execute_the_count_workload() {
        let ds = lmfao_datagen::favorita::generate(Scale::small());
        let spec = WorkloadSpec::for_dataset(&ds.name);
        let engine = engine_for(&ds, EngineConfig::default());
        let result = engine.execute(&spec.count_batch(&ds)).unwrap();
        assert!(result.query("count").scalar()[0] > 0.0);
    }

    #[test]
    fn shared_databases_back_several_engine_configurations() {
        let ds = lmfao_datagen::favorita::generate(Scale::small());
        let spec = WorkloadSpec::for_dataset(&ds.name);
        let shared = shared_for(&ds);
        let batch = spec.count_batch(&ds);
        let mut counts = Vec::new();
        for (_, config) in EngineConfig::ablation_ladder(2) {
            let engine = engine_for_shared(&shared, &ds, config);
            let prepared = engine.prepare(&batch).unwrap();
            counts.push(
                prepared
                    .execute(&lmfao_expr::DynamicRegistry::new())
                    .unwrap()
                    .query("count")
                    .scalar()[0],
            );
        }
        assert!(counts.iter().all(|&c| c == counts[0] && c > 0.0));
    }
}
