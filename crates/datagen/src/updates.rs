//! Update-stream generation: reproducible insert/delete mixes per dataset.
//!
//! Incremental maintenance needs workloads of *changes*, not just static
//! databases. [`update_stream`] turns any generated [`Dataset`] relation into
//! a deterministic sequence of [`TableDelta`]s: inserts clone existing tuples
//! (keeping every foreign key valid against the dimension tables) and
//! optionally perturb their non-key measure columns; deletes always remove a
//! tuple that currently exists, tracking the relation state across the whole
//! stream so every delta applies cleanly. [`UpdateMix`] captures the paper
//! datasets' natural mixes — fact tables are append-heavy, dimension tables
//! see occasional corrections. [`transaction_stream`] lifts per-relation
//! streams into multi-relation [`Transaction`]s ([`txn_relations`] names
//! each dataset's natural fact + dimension bundle) for the transactional
//! commit path.

use lmfao_data::{Column, TableDelta, Transaction, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::Dataset;

/// Shape of an update stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateMix {
    /// Total tuple operations across the stream.
    pub operations: usize,
    /// Operations bundled into one [`TableDelta`] (1 = single-tuple deltas).
    pub batch_size: usize,
    /// Fraction of operations that are inserts (the rest are deletes).
    pub insert_ratio: f64,
    /// Probability that an inserted tuple's float measures are re-drawn
    /// instead of cloned verbatim (exercises new value ranges).
    pub perturb_ratio: f64,
    /// RNG seed; streams are reproducible per (relation, mix).
    pub seed: u64,
}

impl UpdateMix {
    /// Fact-table traffic: mostly appends, single-tuple deltas.
    pub fn insert_heavy(operations: usize) -> Self {
        UpdateMix {
            operations,
            batch_size: 1,
            insert_ratio: 0.85,
            perturb_ratio: 0.5,
            seed: 42,
        }
    }

    /// Balanced churn: half inserts, half deletes.
    pub fn balanced(operations: usize) -> Self {
        UpdateMix {
            operations,
            batch_size: 1,
            insert_ratio: 0.5,
            perturb_ratio: 0.5,
            seed: 42,
        }
    }

    /// Dimension corrections: delete + re-insert pairs (batch size 2 with a
    /// 50/50 mix tends to produce them back to back).
    pub fn corrections(operations: usize) -> Self {
        UpdateMix {
            operations,
            batch_size: 2,
            insert_ratio: 0.5,
            perturb_ratio: 1.0,
            seed: 42,
        }
    }

    /// Builder: replaces the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: replaces the batch size (clamped to at least 1).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }
}

/// The paper datasets' fact relations — the default update target of each.
pub fn fact_relation(dataset: &str) -> &'static str {
    match dataset {
        "Retailer" => "Inventory",
        "Favorita" => "Sales",
        "Yelp" => "Review",
        "TPC-DS" => "StoreSales",
        other => panic!("no fact relation known for dataset `{other}`"),
    }
}

/// The relations a multi-relation transaction workload updates together:
/// the fact relation plus its joining dimension tables — the natural shape
/// of a business event that lands new facts *and* corrects the entities
/// they reference in one atomic change. The wider a transaction, the more
/// per-generation work (projection, certificate, snapshot publication) the
/// one-DAG-walk commit amortizes over a single publish.
pub fn txn_relations(dataset: &str) -> Vec<&'static str> {
    match dataset {
        "Retailer" => vec!["Inventory", "Location", "Census", "Item", "Weather"],
        "Favorita" => vec![
            "Sales",
            "Holidays",
            "StoRes",
            "Items",
            "Transactions",
            "Oil",
        ],
        "Yelp" => vec!["Review", "Business", "User", "Category", "Attribute"],
        "TPC-DS" => vec!["StoreSales", "ItemDim", "StoreDim", "DateDim", "Customer"],
        other => panic!("no transaction relations known for dataset `{other}`"),
    }
}

/// Generates a reproducible stream of multi-relation [`Transaction`]s
/// against `relations` of `ds`.
///
/// Each relation gets its own [`update_stream`] of `mix.operations`
/// operations (independently seeded from `mix.seed`, so relation streams
/// are uncorrelated but the whole ensemble is reproducible); transaction
/// `t` bundles the `t`-th delta of every stream that still has one. The
/// per-transaction changesets are [coalesced](Transaction::coalesce), so a
/// batched delta's same-row churn nets out instead of tripping the commit
/// path's conflict check, and transactions that fully cancel are dropped.
/// Applied in order, every transaction's deltas hit live tuples, exactly as
/// the single-relation streams guarantee.
pub fn transaction_stream(ds: &Dataset, relations: &[&str], mix: &UpdateMix) -> Vec<Transaction> {
    let streams: Vec<Vec<TableDelta>> = relations
        .iter()
        .enumerate()
        .map(|(i, relation)| {
            let per_relation = mix.seed(mix.seed.wrapping_add(0x9e37_79b9 * i as u64));
            update_stream(ds, relation, &per_relation)
        })
        .collect();
    let rounds = streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut transactions = Vec::new();
    for round in 0..rounds {
        let mut txn = Transaction::new();
        for stream in &streams {
            if let Some(delta) = stream.get(round) {
                txn.push(delta.clone())
                    .expect("stream deltas agree on their relation's schema");
            }
        }
        let txn = txn.coalesce();
        if !txn.is_empty() {
            transactions.push(txn);
        }
    }
    transactions
}

/// Generates a reproducible stream of deltas against `relation` of `ds`.
///
/// Every delta in the stream applies cleanly when the deltas are applied in
/// order: deletes target tuples that exist at that point of the stream
/// (including tuples inserted earlier by the stream itself — a batched delta
/// may insert a tuple and delete that same tuple, which `Relation::apply`
/// cancels to a net no-op), and inserts derive from existing tuples so join
/// keys stay resolvable. Perturbed inserts re-draw only `Column::Float`
/// measures; key columns (ints, dictionary codes) are always cloned.
pub fn update_stream(ds: &Dataset, relation: &str, mix: &UpdateMix) -> Vec<TableDelta> {
    let rel = ds
        .db
        .relation(relation)
        .unwrap_or_else(|_| panic!("dataset {} has no relation `{relation}`", ds.name));
    let mut rng = StdRng::seed_from_u64(mix.seed ^ 0x5eed_cafe);
    // Live tuple multiset, tracked so deletes always hit. Base tuples are
    // referenced by index into the relation (not cloned), so the tracker
    // costs 8 bytes per base row at any scale; only rows the stream itself
    // inserts are materialized.
    #[derive(Clone, Copy)]
    enum LiveRef {
        Base(u32),
        Inserted(u32),
    }
    let mut inserted_rows: Vec<Vec<Value>> = Vec::new();
    let mut live: Vec<LiveRef> = (0..rel.len()).map(|i| LiveRef::Base(i as u32)).collect();
    let fetch = |r: LiveRef, inserted: &[Vec<Value>]| -> Vec<Value> {
        match r {
            LiveRef::Base(i) => rel.row(i as usize).to_vec(),
            LiveRef::Inserted(i) => inserted[i as usize].clone(),
        }
    };
    let float_cols: Vec<(usize, f64, f64)> = rel
        .columns()
        .iter()
        .enumerate()
        .filter_map(|(c, col)| match col {
            Column::Float(_) => rel.min_max(c).map(|(lo, hi)| (c, lo.as_f64(), hi.as_f64())),
            _ => None,
        })
        .collect();

    // Template for forced inserts when deletes drain the relation empty.
    let fallback_template: Option<Vec<Value>> = rel.rows().next().map(|r| r.to_vec());

    let mut deltas = Vec::new();
    let mut current = TableDelta::for_relation(rel);
    for _ in 0..mix.operations {
        let do_insert = live.is_empty() || rng.gen::<f64>() < mix.insert_ratio;
        if do_insert {
            let template = match live.is_empty() {
                // Drained relation: fall back to a pristine row (or end the
                // stream if the relation started empty).
                true => match &fallback_template {
                    Some(t) => t.clone(),
                    None => break,
                },
                false => fetch(live[rng.gen_range(0..live.len())], &inserted_rows),
            };
            let mut row = template;
            if !float_cols.is_empty() && rng.gen::<f64>() < mix.perturb_ratio {
                let &(c, lo, hi) = &float_cols[rng.gen_range(0..float_cols.len())];
                let span = (hi - lo).max(1.0);
                row[c] = Value::Double((lo + rng.gen::<f64>() * span).round());
            }
            current
                .insert(&row)
                .expect("template row matches the schema");
            live.push(LiveRef::Inserted(inserted_rows.len() as u32));
            inserted_rows.push(row);
        } else {
            let victim = rng.gen_range(0..live.len());
            let row = fetch(live.swap_remove(victim), &inserted_rows);
            current.delete(&row).expect("live row matches the schema");
        }
        if current.len() >= mix.batch_size {
            deltas.push(std::mem::replace(
                &mut current,
                TableDelta::for_relation(rel),
            ));
        }
    }
    if !current.is_empty() {
        deltas.push(current);
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scale;

    #[test]
    fn streams_apply_cleanly_to_every_dataset_fact_table() {
        for mut ds in crate::all_datasets(Scale::small()) {
            let relation = fact_relation(&ds.name);
            let before = ds.db.relation(relation).unwrap().len();
            let mix = UpdateMix::balanced(20).seed(7);
            let stream = update_stream(&ds, relation, &mix);
            assert_eq!(stream.iter().map(TableDelta::len).sum::<usize>(), 20);
            let mut inserted = 0isize;
            for delta in &stream {
                inserted += delta.num_inserts() as isize - delta.num_deletes() as isize;
                ds.db
                    .apply(delta)
                    .expect("stream deltas must apply in order");
            }
            let after = ds.db.relation(relation).unwrap().len();
            assert_eq!(after as isize, before as isize + inserted, "{}", ds.name);
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let ds = crate::retailer::generate(Scale::small());
        let mix = UpdateMix::insert_heavy(10).seed(3);
        let a = update_stream(&ds, "Inventory", &mix);
        let b = update_stream(&ds, "Inventory", &mix);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.signs(), y.signs());
            let (xr, yr) = (x.rows(), y.rows());
            for i in 0..xr.len() {
                assert_eq!(xr.row(i).to_vec(), yr.row(i).to_vec());
            }
        }
        let c = update_stream(&ds, "Inventory", &UpdateMix::insert_heavy(10).seed(4));
        assert!(a.iter().zip(&c).any(|(x, y)| {
            x.signs() != y.signs()
                || (0..x.rows().len()).any(|i| x.rows().row(i).to_vec() != y.rows().row(i).to_vec())
        }));
    }

    #[test]
    fn batching_groups_operations() {
        let ds = crate::retailer::generate(Scale::small());
        let mix = UpdateMix::corrections(10);
        let stream = update_stream(&ds, "Inventory", &mix);
        assert!(stream.iter().all(|d| d.len() <= 2));
        assert_eq!(stream.iter().map(TableDelta::len).sum::<usize>(), 10);
    }

    #[test]
    fn insert_heavy_streams_grow_the_relation() {
        let ds = crate::favorita::generate(Scale::small());
        let stream = update_stream(&ds, fact_relation("Favorita"), &UpdateMix::insert_heavy(40));
        let ins: usize = stream.iter().map(TableDelta::num_inserts).sum();
        let del: usize = stream.iter().map(TableDelta::num_deletes).sum();
        assert!(ins > del * 2);
    }

    #[test]
    fn delete_heavy_streams_survive_draining_the_relation() {
        // More delete-biased operations than live tuples: the generator must
        // fall back to a pristine template instead of panicking on an empty
        // live set, and every delta must still apply in order.
        let mut ds = crate::retailer::generate(Scale::new(10, 1));
        // Shrink the fact table to 3 rows so deletes drain it quickly.
        let rel = ds.db.relation("Inventory").unwrap();
        let small = lmfao_data::Relation::from_rows(
            rel.schema().clone(),
            rel.rows().take(3).map(|r| r.to_vec()).collect(),
        )
        .unwrap();
        *ds.db.relation_mut("Inventory").unwrap() = small;
        let mix = UpdateMix {
            operations: 40,
            batch_size: 1,
            insert_ratio: 0.1,
            perturb_ratio: 0.0,
            seed: 2,
        };
        let stream = update_stream(&ds, "Inventory", &mix);
        assert_eq!(stream.iter().map(TableDelta::len).sum::<usize>(), 40);
        for delta in &stream {
            ds.db.apply(delta).unwrap();
        }
    }

    #[test]
    fn batched_streams_with_same_tuple_churn_apply_cleanly() {
        // corrections() produces delete+insert batches; with a tiny relation
        // a batch can insert a fresh tuple and delete it again — the apply
        // side cancels the pair. Try several seeds to exercise the case.
        let ds = crate::retailer::generate(Scale::new(10, 1));
        for seed in 0..6 {
            let mut db = ds.db.clone();
            let stream = update_stream(&ds, "Item", &UpdateMix::corrections(12).seed(seed));
            for delta in &stream {
                db.apply(delta)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "no fact relation")]
    fn unknown_dataset_has_no_fact_relation() {
        fact_relation("Unknown");
    }

    #[test]
    #[should_panic(expected = "no transaction relations")]
    fn unknown_dataset_has_no_txn_relations() {
        txn_relations("Unknown");
    }

    #[test]
    fn transaction_streams_apply_cleanly_to_every_dataset() {
        for mut ds in crate::all_datasets(Scale::small()) {
            let relations = txn_relations(&ds.name);
            for relation in &relations {
                assert!(ds.db.relation(relation).is_ok(), "{}: {relation}", ds.name);
            }
            let stream = transaction_stream(&ds, &relations, &UpdateMix::balanced(12).seed(5));
            assert!(!stream.is_empty(), "{}", ds.name);
            assert!(
                stream.iter().any(|t| t.num_relations() == relations.len()),
                "{}: some transaction must span all {} relations",
                ds.name,
                relations.len()
            );
            for txn in &stream {
                assert!(
                    txn.conflict().is_none(),
                    "{}: coalesced streams commit",
                    ds.name
                );
                for delta in txn.deltas() {
                    ds.db
                        .apply(delta)
                        .expect("transaction deltas must apply in order");
                }
            }
        }
    }

    #[test]
    fn transaction_streams_are_deterministic_per_seed() {
        let ds = crate::retailer::generate(Scale::small());
        let relations = txn_relations("Retailer");
        let mix = UpdateMix::corrections(8).seed(11);
        let a = transaction_stream(&ds, &relations, &mix);
        let b = transaction_stream(&ds, &relations, &mix);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), y.len());
            assert_eq!(
                x.relations().collect::<Vec<_>>(),
                y.relations().collect::<Vec<_>>()
            );
        }
    }
}
