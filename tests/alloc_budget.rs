//! The executor's allocation budget: an execute allocates per view, per
//! index and per result entry (an entry of the projected query results),
//! not per view entry. Every computed view is one flat store, and every
//! index over an incoming view one compressed sparse row table; both grow by
//! doubling, so nothing is allocated per view entry, per bound key, per
//! probe, per row, per entry combination or per dynamic-function call. Two
//! bounds hold it: the per-entry budget of three allocations per view entry
//! and index key, and a bound that does not grow with the view entries,
//! under which ten times the fact rows may at most double the count (the
//! extra doubling steps of larger stores, and the projected query results,
//! which stay a map with a key and a payload per entry).
//!
//! A test binary of its own, holding one test, because it installs a
//! counting global allocator: nothing else runs while it counts.

use lmfao::engine::exec::execute_group;
use lmfao::engine::group::group_views;
use lmfao::engine::plan::build_group_plan;
use lmfao::engine::pushdown::push_down_batch;
use lmfao::engine::roots::assign_roots;
use lmfao::engine::{ComputedView, ViewId};
use lmfao::prelude::*;
use lmfao_data::FxHashMap;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations made so far (`alloc`, `alloc_zeroed` and `realloc`).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; the only
// addition is a relaxed atomic increment, which neither allocates nor
// touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The attributes of perfbench's `agg_groupby` batch.
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

/// What an execute may not avoid allocating, counted through the layers one
/// by one: the entries of every view it computes, and the distinct bound
/// keys of every incoming view that carries extra key attributes (the keys
/// of the index a scan builds over it).
fn entries_and_index_keys(
    shared: &SharedDatabase,
    tree: &JoinTree,
    batch: &QueryBatch,
    dynamics: &DynamicRegistry,
) -> usize {
    let config = EngineConfig::full(1);
    let roots = assign_roots(batch, tree, shared, &config);
    let pushdown = push_down_batch(batch, tree, &roots);
    let grouping = group_views(&pushdown.catalog, config.multi_output);
    let mut computed: FxHashMap<ViewId, ComputedView> = FxHashMap::default();
    let (mut entries, mut index_keys) = (0, 0);
    for gid in grouping.topological_order() {
        let plan = build_group_plan(shared, tree, &pushdown.catalog, &grouping.groups[gid])
            .expect("the batch plans over its own dataset");
        for inc in plan.incoming.iter().filter(|inc| inc.has_extras()) {
            let bound_keys: HashSet<Vec<Value>> = computed[&inc.view]
                .iter()
                .map(|(key, _)| inc.bound_positions.iter().map(|&p| key[p]).collect())
                .collect();
            index_keys += bound_keys.len();
        }
        for (vid, view) in execute_group(shared, &plan, &computed, dynamics, None).unwrap() {
            entries += view.len();
            computed.insert(vid, view);
        }
    }
    entries + index_keys
}

/// A batch whose one query multiplies a dynamic function of two fact
/// attributes into its product, grouped by an item attribute: the scan calls
/// the function once per fact row.
fn dynamic_batch(ds: &Dataset) -> QueryBatch {
    let mut batch = QueryBatch::new();
    batch.push(
        "dynamic",
        vec![ds.attr("family")],
        vec![Aggregate::product(ProductTerm::single(
            ScalarFunction::Dynamic {
                id: 0,
                attrs: vec![ds.attr("units"), ds.attr("promo")],
            },
        ))],
    );
    batch
}

#[test]
fn keyed_execute_allocates_per_result_entry() {
    let mut dynamics = DynamicRegistry::new();
    dynamics.register(|args| 1.0 + args[0].as_f64() * args[1].as_f64());
    // Each batch's count at the smaller scale.
    let mut small: Vec<u64> = Vec::new();
    for rows in [2_000, 20_000] {
        let ds = lmfao::datagen::favorita::generate(Scale::new(rows, 1));
        let attrs: Vec<AttrId> = FAVORITA_MUTUAL_INFO.iter().map(|n| ds.attr(n)).collect();
        let shared = SharedDatabase::prepare(ds.db.clone(), &ds.tree);
        let engine = Engine::with_shared(shared.clone(), ds.tree.clone(), EngineConfig::full(1));
        let batches = [
            ("mutual information", mutual_info_batch(&attrs).batch),
            ("dynamic", dynamic_batch(&ds)),
        ];
        for (b, (name, batch)) in batches.into_iter().enumerate() {
            let budget = 3 * entries_and_index_keys(&shared, &ds.tree, &batch, &dynamics) + 1_000;
            let prepared = engine.prepare(&batch).unwrap();
            drop(prepared.execute(&dynamics).unwrap());
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let result = prepared.execute(&dynamics).unwrap();
            let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
            drop(result);
            eprintln!("{name}, {rows} fact rows: {allocations} allocations, budget {budget}");
            assert!(
                allocations <= budget as u64,
                "{name}, {rows} fact rows: one execute made {allocations} allocations, budget {budget}"
            );
            match small.get(b) {
                None => small.push(allocations),
                Some(&at_small) => {
                    let flat = 2 * at_small + 1_000;
                    assert!(
                        allocations <= flat,
                        "{name}, {rows} fact rows: {allocations} allocations, more than \
                         2 × {at_small} (the count at 2 000 rows) + 1 000"
                    );
                }
            }
        }
    }
}
