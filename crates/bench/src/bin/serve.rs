//! Long-running concurrent-serving loop: reader threads answer named-query
//! lookups from epoch-published snapshots while one writer drains an update
//! stream against the dataset's fact relation.
//!
//! ```text
//! cargo run --release -p lmfao-bench --bin serve -- \
//!     --dataset Retailer --readers 4 --secs 30 --updates-per-sec 200
//! ```
//!
//! Flags: `--dataset NAME` (Retailer | Favorita | Yelp | TPC-DS, default
//! Retailer), `--readers N` (default 4), `--secs S` (default 30),
//! `--updates-per-sec U` (default 200), `--threads N` (engine worker
//! threads), `--seed S`; any other flag exits 2. Scale comes from
//! `LMFAO_SCALE` (default 5000). Progress is printed once per second; the
//! process exits 1 if any sampled read disagrees with a from-scratch
//! recompute at its pinned generation, if the certificate checker rejects
//! the chain up to a sampled generation, if the writer errors, or if the
//! publication cell owns more than one superseded generation per live
//! handle.

use lmfao_bench::serve::{run_serve, ServeConfig};
use lmfao_bench::WorkloadSpec;
use lmfao_core::EngineConfig;
use lmfao_datagen::{all_datasets, Scale};

fn arg_value<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    args.get(i + 1)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dataset = "Retailer".to_string();
    let mut config = ServeConfig {
        duration_secs: 30.0,
        progress: true,
        ..ServeConfig::default()
    };
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dataset" => {
                dataset = arg_value(&args, i, "--dataset");
                i += 1;
            }
            "--readers" => {
                config.readers = arg_value(&args, i, "--readers");
                i += 1;
            }
            "--secs" => {
                config.duration_secs = arg_value(&args, i, "--secs");
                i += 1;
            }
            "--updates-per-sec" => {
                config.updates_per_sec = arg_value(&args, i, "--updates-per-sec");
                i += 1;
            }
            "--threads" => {
                threads = arg_value::<usize>(&args, i, "--threads").max(1);
                i += 1;
            }
            "--seed" => {
                config.seed = arg_value(&args, i, "--seed");
                i += 1;
            }
            other => {
                eprintln!(
                    "unknown flag `{other}`; use --dataset, --readers, --secs, \
                     --updates-per-sec, --threads, --seed"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let sc = Scale::new(
        std::env::var("LMFAO_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(5_000),
        42,
    );
    let datasets = all_datasets(sc);
    let ds = datasets
        .iter()
        .find(|d| d.name == dataset)
        .unwrap_or_else(|| {
            eprintln!("unknown dataset `{dataset}`; use Retailer, Favorita, Yelp or TPC-DS");
            std::process::exit(2);
        });
    let spec = WorkloadSpec::for_dataset(&ds.name);
    let batch = spec.covar_batch(ds);
    println!(
        "serving {} — covar batch ({} queries), scale {} fact tuples, {} readers, \
         target {:.0} updates/s, {:.0}s",
        ds.name,
        batch.len(),
        sc.fact_rows,
        config.readers,
        config.updates_per_sec,
        config.duration_secs
    );

    match run_serve(ds, &batch, EngineConfig::full(threads), &config) {
        Ok(report) => {
            report.print();
            std::process::exit(if report.ok() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("serving run failed: {e}");
            std::process::exit(1);
        }
    }
}
