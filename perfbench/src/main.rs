//! The repository's benchmark: six named workloads, four end-to-end
//! metrics, and a traced run that splits the time by layer from outside.
//! See `README.md` in this directory.

mod fixture;
mod json;
mod layers;
mod registry;
mod report;
mod speed;
mod stats;
mod trace;
mod workloads;

use layers::Probe;
use registry::{Metrics, WorkloadDef};
use report::{Options, RunReport};
use speed::Timed;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Agg, CommitTxn, Serve, TreeTrain, Window, Workload, READ_TRACE_SAMPLING};

/// A run sets up at least `MIN_SETUPS` times and keeps going until
/// `SETUP_BUDGET_S` is spent or `MAX_SETUPS` are done: most set-ups take
/// milliseconds, and a median of five such times is mostly timer noise.
/// `setup_s` is the median; the last set-up is the one measured.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 40;
const SETUP_BUDGET_S: f64 = 1.0;

const USAGE: &str = "usage:
  perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run; last line is the result
  perfbench all [--trace <0|1>] [--runs <n>] [--seed <n>] [--vary-seed] [--seconds <s>] [--out <file>]
  perfbench compare <A.json> <B.json>     sets written by `all --out`
  perfbench list                          workloads and metrics
  perfbench manifest                      the contents of BENCHMARK.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("list") => {
            report::list();
            Ok(true)
        }
        Some("manifest") => {
            print!("{}", report::manifest());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => report::compare(a, b),
            _ => Err(USAGE.to_string()),
        },
        Some("all") => Options::parse(&args[1..]).and_then(|o| report::all(&o)),
        _ => Options::parse(&args).and_then(|o| run(&o)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(64)
        }
    }
}

/// One run of one workload; prints the result line last. `Ok(false)` when
/// the run was incorrect.
fn run(o: &Options) -> Result<bool, String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    let def = registry::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let run = runner(def.name).ok_or_else(|| format!("workload `{name}` has no runner"))?;
    let report = run(def, o);
    report.print_summary();
    report.save();
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// The code that sets up and measures a registered workload.
fn runner(name: &str) -> Option<fn(&'static WorkloadDef, &Options) -> RunReport> {
    Some(match name {
        "agg_scalar" | "agg_groupby" | "plan_adhoc" => run_workload::<Agg>,
        "tree_train" => run_workload::<TreeTrain>,
        "commit_txn" => run_workload::<CommitTxn>,
        "serve_mixed" => run_workload::<Serve>,
        _ => return None,
    })
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_workload<W: Workload + Probe>(def: &'static WorkloadDef, o: &Options) -> RunReport {
    let mut setups = Timed::default();
    let mut workload = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.total_ms() < SETUP_BUDGET_S * 1e3)
    {
        // Drop the previous set-up first so the peak holds one, not two.
        drop(workload.take());
        let t = Instant::now();
        let built = W::setup(def, o.seed, o.seconds);
        // The speed is sampled after every set-up, spaced or not: forty
        // set-ups of 3 ms are over before a second spaced sample is due.
        setups.push_sampled(t.elapsed().as_secs_f64() * 1e3);
        workload = Some(built);
    }
    let mut w = workload.expect("at least MIN_SETUPS set-ups ran");
    let mut m = Metrics::default();
    let mut tr = Tracer::new(false);

    let window = if o.trace {
        let plain = w.measure(o.seconds / 2.0, &mut tr);
        tr.set_enabled(true);
        let traced = tr.span("harness", "window", |tr| w.measure(o.seconds / 2.0, tr));
        window_ledger(&tr, &plain, &traced, &mut m);
        traced
    } else {
        w.measure(o.seconds, &mut tr)
    };
    // Read before the gates run: the references they build (materialized
    // joins, recomputes) are the harness's memory, not the workload's.
    let rss = peak_rss_mb();
    let (checks, bad) = w.verify();
    let (attempted, failed) = (window.attempted + checks, window.failed + bad);

    // Times are reported at the host's nominal speed: see `speed.rs`.
    m.set("op_ms", window.op_ms, window.samples);
    m.set("ops_per_s", window.ops_per_s, window.samples);
    m.set("peak_rss_mb", rss, 1);
    m.set(
        "setup_s",
        stats::median(&setups.at_nominal()) / 1e3,
        setups.len() as u64,
    );
    let digest = w.input_digest();

    if o.trace {
        let times = w.setup_times();
        for (name, ms) in [
            ("datagen.generate_ms", times.generate_ms),
            ("datagen.stream_ms", times.stream_ms),
            ("data.sort_ms", times.sort_ms),
            ("expr.batch_build_ms", times.batch_ms),
            ("snapshot.into_serving_ms", times.into_serving_ms),
        ] {
            m.set(name, ms, 1);
        }
        m.set("data.db_bytes", times.db_bytes as f64, 1);
        m.set("expr.queries", times.queries as f64, 1);
        m.set("expr.aggregates", times.aggregates as f64, 1);
        // 48 bits survive the trip through a JSON number unchanged.
        m.set(
            "datagen.input_digest",
            (digest & 0xffff_ffff_ffff) as f64,
            1,
        );
        m.set("harness.ops", window.samples as f64, 1);
        m.set("harness.op_tail_ms", window.tail_ms, window.samples);
        m.set(
            "harness.speed_ratio",
            window.speed.ratio(),
            window.speed.len() as u64,
        );
        m.set(
            "harness.failed_share",
            failed as f64 / attempted.max(1) as f64,
            attempted,
        );
        serve_side(&window, &mut m);
        tr.span("harness", "probes", |tr| {
            w.probe(&window, tr, &mut m);
            layers::clock(&mut m);
        });
    }
    RunReport {
        def,
        options: o.clone(),
        attempted,
        failed,
        digest,
        metrics: m,
        spans: tr.spans().to_vec(),
    }
}

/// Splits the traced window by layer: self-time shares, the residue inside
/// no layer span, and what tracing itself cost against the untraced window.
fn window_ledger(tr: &Tracer, plain: &Window, traced: &Window, m: &mut Metrics) {
    let spans = tr.spans();
    let Some(root) = spans.first() else { return };
    let window_ns = (root.end_ns - root.start_ns).max(1) as f64;
    let layers = trace::by_layer(spans);
    let share = |layer: &str, scale: u64| {
        layers
            .get(layer)
            .map_or(0.0, |t| (t.self_ns * scale) as f64 / window_ns)
    };
    let n = spans.len() as u64;
    m.set("trace.share_planner", share("prepared", 1), n);
    m.set("trace.share_exec", share("exec", 1), n);
    m.set("trace.share_ml", share("ml", 1), n);
    m.set("trace.share_write", share("maintain", 1), n);
    m.set(
        "trace.share_read",
        share("snapshot", READ_TRACE_SAMPLING),
        n,
    );
    m.set("trace.residue_share", share("harness", 1), n);
    m.set(
        "trace.overhead_share",
        traced.op_ms / plain.op_ms.max(1e-12) - 1.0,
        traced.samples,
    );
}

/// Both sides of a `serve_mixed` window as per-layer numbers, as measured.
fn serve_side(window: &Window, m: &mut Metrics) {
    let Some(s) = &window.serve else { return };
    let commits = stats::sorted(&s.commit_ms);
    let n = commits.len() as u64;
    m.set("serve.commit_ms", stats::quantile(&commits, 0.5), n);
    m.set("serve.commit_p95_ms", stats::quantile(&commits, 0.95), n);
    let reads = s.reads.count();
    m.set("serve.reads_per_s", reads as f64 / s.wall_s, reads);
    m.set("serve.read_p50_us", s.reads.quantile_ns(0.5) / 1e3, reads);
    m.set("serve.read_p99_us", s.reads.quantile_ns(0.99) / 1e3, reads);
    m.set(
        "serve.read_p999_us",
        s.reads.quantile_ns(0.999) / 1e3,
        reads,
    );
    m.set("serve.read_max_us", s.reads.max_ns() as f64 / 1e3, reads);
    m.set(
        "loadgen.late_us_p99",
        stats::quantile(&stats::sorted(&s.late_us), 0.99),
        s.late_us.len() as u64,
    );
    m.set(
        "loadgen.offered_per_s",
        s.offered as f64 / s.wall_s,
        s.offered,
    );
    m.set(
        "loadgen.applied_per_s",
        s.applied as f64 / s.wall_s,
        s.applied,
    );
    m.set("loadgen.backlog_max", s.backlog_max as f64, s.offered);
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry::{END_TO_END, PER_LAYER, WORKLOADS};

    /// The names a run prints are the registry's, no more and no fewer: a
    /// short real run of the cheapest workload, traced and untraced.
    #[test]
    fn a_run_prints_exactly_the_registered_names() {
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let o = Options {
                workload: Some("plan_adhoc".into()),
                seed: 7,
                seconds: 0.2,
                trace,
                ..Options::default()
            };
            let report = run_workload::<Agg>(registry::workload("plan_adhoc").unwrap(), &o);
            assert!(
                report.correct(),
                "failed {} of {}",
                report.failed,
                report.attempted
            );
            let line = json::Json::parse(&report.result_line()).unwrap();
            let printed: Vec<&String> = line
                .get("metrics")
                .and_then(json::Json::as_object)
                .unwrap()
                .keys()
                .collect();
            let mut want: Vec<&str> = defs.iter().map(|d| d.name).collect();
            want.sort_unstable();
            assert_eq!(printed, want);
            let keys: Vec<&String> = line.as_object().unwrap().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        }
    }

    #[test]
    fn every_registered_workload_has_a_runner() {
        for w in WORKLOADS {
            assert!(runner(w.name).is_some(), "{} has no runner", w.name);
        }
        assert!(runner("serve_reads").is_none());
        assert!(peak_rss_mb() > 0.0);
    }
}
