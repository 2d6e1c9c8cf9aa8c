//! Command-line options, result lines and files, and the `list`, `manifest`,
//! `all` and `compare` commands.

use crate::fixture::{PARALLEL_THREADS, THREADS};
use crate::json::{number, quote, Json};
use crate::registry::{Better, MetricDef, Metrics, WorkloadDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread_share};
use crate::trace::{self, Span};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `all`: runs per workload.
    pub runs: usize,
    /// `all`: run `i` uses `seed + i`, as the driver's repeatability check does.
    pub vary_seed: bool,
    /// `all`: where to write the set for `compare`.
    pub out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workload: None,
            seed: 42,
            seconds: 10.0,
            trace: false,
            runs: 1,
            vary_seed: false,
            out: None,
        }
    }
}

impl Options {
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--vary-seed" {
                o.vary_seed = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => o.workload = Some(value.clone()),
                "--seed" => o.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    o.seconds = value.parse().map_err(|_| bad())?;
                    if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    o.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--runs" => {
                    o.runs = value.parse().map_err(|_| bad())?;
                    if !(1..=100).contains(&o.runs) {
                        return Err(bad());
                    }
                }
                "--out" => o.out = Some(value.clone()),
                _ => return Err(format!("unknown option `{flag}`")),
            }
        }
        Ok(o)
    }
}

/// Everything one run of one workload produced.
pub struct RunReport {
    pub def: &'static WorkloadDef,
    pub options: Options,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub metrics: Metrics,
    pub spans: Vec<Span>,
}

impl RunReport {
    fn defs(&self) -> &'static [MetricDef] {
        if self.options.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// A per-layer metric the workload's traced run does not exercise reads 0.
    fn value(&self, def: &MetricDef) -> f64 {
        self.metrics.get(def.name).unwrap_or(0.0)
    }

    /// No operation and no gate failed, and every end-to-end metric is a
    /// positive finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && END_TO_END.iter().all(|d| {
                self.metrics
                    .get(d.name)
                    .is_some_and(|v| v.is_finite() && v > 0.0)
            })
    }

    fn metrics_json(&self) -> String {
        let entries: Vec<String> = self
            .defs()
            .iter()
            .map(|d| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(d.name),
                    number(self.value(d)),
                    quote(d.unit)
                )
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }

    /// The one line the driver reads.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    pub fn print_summary(&self) {
        let o = &self.options;
        println!(
            "workload {}  seed {}  seconds {}  trace {}  ({})",
            self.def.name, o.seed, o.seconds, o.trace as u8, self.def.loop_kind
        );
        println!("input_digest {:016x}", self.digest);
        println!(
            "ops_attempted {}  ops_failed {}  failed_share {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        println!(
            "{:<34} {:>18} {:<6} {:>9}",
            "metric", "value", "unit", "samples"
        );
        for d in self.defs() {
            println!(
                "{:<34} {:>18.6} {:<6} {:>9}",
                d.name,
                self.value(d),
                d.unit,
                self.metrics.samples(d.name)
            );
        }
        if !o.trace {
            return;
        }
        // The traced run still measured the workload: show it, unbounded.
        for d in END_TO_END {
            println!("({:<32} {:>18.6} {:<6})", d.name, self.value(d), d.unit);
        }
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        println!(
            "{:<14} {:>9} {:>12} {:>12} {:>7}",
            "layer", "spans", "total_ms", "self_ms", "share"
        );
        for (layer, t) in trace::by_layer(&self.spans) {
            println!(
                "{:<14} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
                layer,
                t.spans,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / total.max(1) as f64
            );
        }
        println!(
            "(harness self time is the unattributed residue; reads are traced 1 in {})",
            crate::workloads::READ_TRACE_SAMPLING
        );
    }

    /// Writes the stamped result file, and the trace of a traced run.
    pub fn save(&self) {
        let dir = out_dir();
        let o = &self.options;
        let samples: Vec<String> = self
            .defs()
            .iter()
            .map(|d| format!("{}: {}", quote(d.name), self.metrics.samples(d.name)))
            .collect();
        let body = format!(
            "{{\"workload\": {}, \"stamp\": {}, \"input_digest\": \"{:016x}\", \"correct\": {}, \"ops_attempted\": {}, \"ops_failed\": {}, \"metrics\": {}, \"samples\": {{{}}}}}\n",
            quote(self.def.name),
            stamp(o),
            self.digest,
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(),
            samples.join(", ")
        );
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            let stem = format!("{}-trace{}", self.def.name, o.trace as u8);
            std::fs::write(dir.join(format!("result-{stem}.json")), body)?;
            if o.trace {
                std::fs::write(
                    dir.join(format!("trace-{stem}.json")),
                    trace::to_json(&self.spans),
                )?;
            }
            Ok(())
        });
        if let Err(e) = written {
            eprintln!("perfbench: cannot write under {}: {e}", dir.display());
        }
    }
}

/// Result and trace files go beside the build, which `.gitignore` covers.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-out")
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Who measured: cores, threads, seed, compiler and the real revision.
fn stamp(o: &Options) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let revision = git(&["rev-parse", "HEAD"]);
    let dirty = git(&["status", "--porcelain"]).map(|s| !s.is_empty());
    format!(
        "{{\"nproc\": {nproc}, \"engine_threads\": {THREADS}, \"busy_threads\": {PARALLEL_THREADS}, \"oversubscribed\": {}, \"seed\": {}, \"seconds\": {}, \"rustc\": {}, \"git_revision\": {}, \"git_dirty\": {}}}",
        nproc < PARALLEL_THREADS,
        o.seed,
        number(o.seconds),
        quote(env!("PERFBENCH_RUSTC")),
        quote(revision.as_deref().unwrap_or("unknown")),
        dirty.map_or("null".to_string(), |d| d.to_string()),
    )
}

pub fn list() {
    println!("workloads");
    for w in WORKLOADS {
        println!(
            "  {}\n    load: {}\n    loop: {}\n    tail: p{}\n    why:  {}",
            w.name,
            w.load,
            w.loop_kind,
            w.tail_q * 100.0,
            w.why
        );
    }
    println!("\nend-to-end metrics (every workload; gated)");
    for d in END_TO_END {
        println!(
            "  {:<14} {:<5} better={:<6} bound={:<5} {}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound.unwrap_or(0.0),
            d.note
        );
    }
    println!("\nper-layer metrics (traced run; # repeats exactly for a seed; 0 where a workload does not exercise the layer)");
    for d in PER_LAYER {
        println!(
            "  {:<12} {:<34}{} {:<6} better={:<6} {}",
            d.layer,
            d.name,
            if d.exact { "#" } else { " " },
            d.unit,
            d.better.as_str(),
            d.note
        );
    }
}

/// `BENCHMARK.json`, generated so it cannot drift from the registry.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(d.name),
                quote(d.unit),
                quote(d.better.as_str()),
                number(d.bound.unwrap_or(0.0))
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(d.name),
                quote(d.unit),
                quote(d.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": 15,\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Per workload: digests, failure counts and every value of every metric.
#[derive(Default)]
struct SetEntry {
    digests: Vec<String>,
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, Vec<f64>>,
}

/// Runs every workload `runs` times, each run in a process of its own so
/// set-up time and peak memory are per workload; prints medians and spreads,
/// and writes the set for `compare` when `--out` is given.
pub fn all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let defs = if o.trace { PER_LAYER } else { END_TO_END };
    let mut set: BTreeMap<&str, SetEntry> = BTreeMap::new();
    let mut correct = true;
    for w in WORKLOADS {
        let entry = set.entry(w.name).or_default();
        for i in 0..o.runs {
            let seed = o.seed + if o.vary_seed { i as u64 } else { 0 };
            let out = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if o.trace { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            if o.runs == 1 {
                print!("{stdout}");
            }
            let line = stdout.lines().last().unwrap_or_default();
            let doc = Json::parse(line)
                .map_err(|e| format!("{} run {i}: no result line ({e})", w.name))?;
            correct &= doc.get("correct") == Some(&Json::Bool(true));
            entry.attempted += doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            entry.failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            if let Some(d) = stdout.lines().find_map(|l| l.strip_prefix("input_digest ")) {
                entry.digests.push(d.to_string());
            }
            for d in defs {
                let v = doc
                    .get("metrics")
                    .and_then(|m| m.get(d.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{} run {i}: `{}` missing", w.name, d.name))?;
                entry.values.entry(d.name.to_string()).or_default().push(v);
            }
            eprintln!("{} run {}/{} done", w.name, i + 1, o.runs);
        }
    }

    println!(
        "\n{:<12} {:<34} {:>16} {:<6} {:>8} {:>6} {:>3}",
        "workload", "metric", "median", "unit", "spread", "bound", "n"
    );
    for (name, entry) in &set {
        for d in defs {
            let v = &entry.values[d.name];
            println!(
                "{:<12} {:<34} {:>16.6} {:<6} {:>7.2}% {:>6} {:>3}",
                name,
                d.name,
                median(v),
                d.unit,
                100.0 * spread_share(v),
                d.bound
                    .map_or("-".to_string(), |b| format!("{}%", b * 100.0)),
                v.len()
            );
        }
        println!(
            "{:<12} ops_attempted {}  ops_failed {}  failed_share {}",
            name,
            entry.attempted,
            entry.failed,
            entry.failed as f64 / entry.attempted.max(1) as f64
        );
    }
    if let Some(path) = &o.out {
        std::fs::write(path, set_json(o, &set)).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(correct)
}

fn set_json(o: &Options, set: &BTreeMap<&str, SetEntry>) -> String {
    let workloads: Vec<String> = set
        .iter()
        .map(|(name, e)| {
            let metrics: Vec<String> = e
                .values
                .iter()
                .map(|(metric, v)| {
                    let values: Vec<String> = v.iter().map(|x| number(*x)).collect();
                    format!("{}: [{}]", quote(metric), values.join(", "))
                })
                .collect();
            let digests: Vec<String> = e.digests.iter().map(|d| quote(d)).collect();
            format!(
                "    {}: {{\"input_digest\": [{}], \"ops_attempted\": {}, \"ops_failed\": {}, \"metrics\": {{{}}}}}",
                quote(name),
                digests.join(", "),
                e.attempted,
                e.failed,
                metrics.join(", ")
            )
        })
        .collect();
    // This change defines the benchmark and claims no gain.
    format!(
        "{{\n  \"stamp\": {},\n  \"trace\": {},\n  \"runs\": {},\n  \"vary_seed\": {},\n  \"workloads\": {{\n{}\n  }},\n  \"claim\": null\n}}\n",
        stamp(o),
        o.trace as u8,
        o.runs,
        o.vary_seed,
        workloads.join(",\n")
    )
}

/// Set-up differences below this many seconds are timer noise on a set-up of
/// a few hundred milliseconds, whatever share of it they are.
const SETUP_NOISE_S: f64 = 0.020;

/// How a metric moved from set A to set B.
#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side spread wider than the bound: no verdict.
    Unresolved,
}

fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = match def.better {
        Better::Lower => (mb - ma) / ma.abs().max(1e-300),
        Better::Higher => (ma - mb) / ma.abs().max(1e-300),
    };
    let spread = spread_share(a).max(spread_share(b));
    let bound = def.bound.unwrap_or(0.0);
    let verdict = if def.name == "setup_s" && (mb - ma).abs() < SETUP_NOISE_S {
        Verdict::Ok
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, spread, verdict)
}

fn load_set(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(entry: &Json, metric: &str) -> Option<Vec<f64>> {
    entry
        .get("metrics")?
        .get(metric)?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Compares two sets written by `all --out`: per workload and metric both
/// medians, how much worse B is, the spread, the bound and a verdict.
/// `Ok(false)` on a regression or a count that differs.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load_set(path_a)?, load_set(path_b)?);
    if a.get("trace") != b.get("trace") {
        return Err("one set is traced and the other is not".into());
    }
    let traced = a.get("trace").and_then(Json::as_f64) == Some(1.0);
    let defs = if traced { PER_LAYER } else { END_TO_END };
    let (wa, wb) = (
        a.get("workloads").ok_or("A has no workloads")?,
        b.get("workloads").ok_or("B has no workloads")?,
    );
    let mut good = true;
    println!(
        "{:<12} {:<34} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse", "spread", "bound"
    );
    for w in WORKLOADS {
        let (Some(ea), Some(eb)) = (wa.get(w.name), wb.get(w.name)) else {
            println!("{:<12} missing from one set", w.name);
            continue;
        };
        if ea.get("input_digest") != eb.get("input_digest") {
            return Err(format!(
                "{}: input digests differ: different load, nothing to compare",
                w.name
            ));
        }
        for d in defs {
            let (Some(va), Some(vb)) = (values(ea, d.name), values(eb, d.name)) else {
                continue;
            };
            if traced {
                // Per-layer numbers have no bound; only exact counts are judged.
                if d.exact {
                    let same = va == vb && va.windows(2).all(|p| p[0] == p[1]);
                    good &= same;
                    println!(
                        "{:<12} {:<34} {:>14} {:>14} {}",
                        w.name,
                        d.name,
                        median(&va),
                        median(&vb),
                        if same { "identical" } else { "COUNT DIFFERS" }
                    );
                }
                continue;
            }
            let (worse, spread, verdict) = judge(d, &va, &vb);
            good &= verdict != Verdict::Regressed;
            println!(
                "{:<12} {:<34} {:>14.6} {:>14.6} {:>7.2}% {:>7.2}% {:>5}%  {}",
                w.name,
                d.name,
                median(&va),
                median(&vb),
                100.0 * worse,
                100.0 * spread,
                100.0 * d.bound.unwrap_or(0.0),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(good)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        // `slower` is 1.4 times `steady`, beyond every bound (at most 25 %);
        // the quartiles of `noisy` are 70 % of its median apart.
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = steady.map(|v| v * 1.4);
        let noisy = [10.0, 16.0, 5.0, 13.0, 8.0];
        assert_eq!(judge(def("op_ms"), &steady, &steady).2, Verdict::Ok);
        assert_eq!(judge(def("op_ms"), &steady, &slower).2, Verdict::Regressed);
        assert_eq!(judge(def("op_ms"), &slower, &steady).2, Verdict::Ok);
        assert_eq!(judge(def("op_ms"), &steady, &noisy).2, Verdict::Unresolved);
        // Higher is better: fewer operations per second is the regression.
        assert_eq!(
            judge(def("ops_per_s"), &slower, &steady).2,
            Verdict::Regressed
        );
        assert_eq!(judge(def("ops_per_s"), &steady, &slower).2, Verdict::Ok);
        // A 15 ms move on a 30 ms set-up is below what the timer resolves.
        assert_eq!(
            judge(def("setup_s"), &[0.030; 5], &[0.045; 5]).2,
            Verdict::Ok
        );
        assert_eq!(
            judge(def("setup_s"), &[0.30; 5], &[0.45; 5]).2,
            Verdict::Regressed
        );
    }

    #[test]
    fn options_parse_the_driver_flags_and_refuse_the_rest() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = Options::parse(&args("--workload hit --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("hit"), 9, 3.0, true)
        );
        for bad in [
            "--trace 2",
            "--seconds 0",
            "--seconds 61",
            "--seed",
            "--runs 0",
            "--frob 1",
        ] {
            assert!(Options::parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn manifest_is_valid_json_within_the_size_limit() {
        let text = manifest();
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            text,
            include_str!("../../BENCHMARK.json"),
            "run `perfbench manifest > BENCHMARK.json`"
        );
    }
}
