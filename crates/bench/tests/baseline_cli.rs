//! `bench_baseline` takes one flag, `--out <path>`. Any other argument —
//! a typo, or a flag an old script still passes — is a usage error that
//! exits 2 before the matrix runs, never a silently ignored word.

use std::process::Command;

#[test]
fn unknown_arguments_print_usage_and_exit_2() {
    for args in [
        &["--check", "x"][..],
        &["--chek", "x"],
        &["--smoke"],
        &["--out"],
        &["--out", "a", "--out", "b"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_baseline"))
            .args(args)
            .output()
            .expect("spawn bench_baseline");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: bench_baseline [--out <path>]"),
            "{args:?}: no usage line in {stderr:?}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?}: the matrix ran before the usage error"
        );
    }
}
