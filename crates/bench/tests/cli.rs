//! Process-level checks of the `experiments` and `serve` command lines: CI's
//! `reproducer` job trusts their exit codes.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .env("LMFAO_SCALE", "500")
        .output()
        .expect("the binary must start")
}

fn experiments(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_experiments"), args)
}

/// An unknown flag or experiment name is a usage error, raised before any
/// dataset is generated; its message points whoever reached for a
/// measurement flag at the benchmark.
#[test]
fn unknown_flags_and_experiments_are_usage_errors() {
    for args in [
        &["--quick"][..],
        &["table2", "--json", "out.json"],
        &["table9"],
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: rejected before any work");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(stderr.contains("perfbench"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_paper_table_runs_to_completion() {
    let out = experiments(&["table2", "--threads", "2"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("=== Table 2"), "{stdout}");
    // Four workloads on each of the four datasets.
    assert_eq!(stdout.lines().filter(|l| l.starts_with("DC ")).count(), 4);
}

/// `serve` exits 0 only after its sampled-read and certificate-chain audits
/// ran clean, and 2 on a flag it does not know.
#[test]
fn serve_exit_code_is_the_audit_verdict() {
    let serve = env!("CARGO_BIN_EXE_serve");
    let out = run(
        serve,
        &["--readers", "2", "--secs", "0.5", "--threads", "2"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains(" 0 mismatches"), "{stdout}");
    assert!(stdout.contains(" 0 rejected"), "{stdout}");

    for args in [&["--quick"][..], &["--history-window", "4"]] {
        assert_eq!(run(serve, args).status.code(), Some(2), "{args:?}");
    }
}
