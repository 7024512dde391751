//! `experiments` and `reproduce_all` reject a bad command line with a
//! usage line and exit 2 before any job or child runs: a typo, an old
//! binary's name or flag, a repeated name or flag, or a flag without its
//! path is never silently ignored.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str], usage: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(usage),
        "{args:?}: no usage line in {stderr:?}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?}: ran before the usage error"
    );
}

#[test]
fn experiments_rejects_bad_arguments() {
    for args in [
        &["fig7_scaling"][..],
        &["fig5"],
        &["--metrics-out", "x.json"],
        &["--doc"],
        &["fig5_scaling", "fig5_scaling"],
        &["--check", "--write"],
        &["--check", "--check"],
        &["fig5_scaling", "--check"],
    ] {
        assert_usage_error(
            env!("CARGO_BIN_EXE_experiments"),
            args,
            "usage: experiments [NAME...] [--check | --write]",
        );
    }
}

#[test]
fn reproduce_all_rejects_bad_arguments() {
    for args in [
        &["--ledger"][..],
        &["--telemetry", "t.jsonl", "--trace-out"],
        &["--ledger", "a.jsonl", "--ledger", "b.jsonl"],
        &["--check"],
        &["fig5_scaling"],
    ] {
        assert_usage_error(
            env!("CARGO_BIN_EXE_reproduce_all"),
            args,
            "usage: reproduce_all [--trace-out <path>]",
        );
    }
}
