//! Command-line smoke tests: the benchmark binaries answer bad
//! arguments with a usage error and exit code 2 — never a panic with a
//! backtrace — and do so before starting any benchmark work.

use std::process::Command;

/// Runs `bin` with `args`; returns (exit code, stderr).
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("binary spawns");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(bin: &str, args: &[&str], needle: &str) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, Some(2), "{bin} {args:?}: stderr was {stderr}");
    assert!(stderr.contains("USAGE"), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(needle), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

const MISSING: &str = "no/such/dir/BENCH_missing.json";

#[test]
fn serve_bench_rejects_bad_arguments_with_exit_code_2() {
    let bin = env!("CARGO_BIN_EXE_serve_bench");
    assert_usage_error(bin, &["--check", MISSING], MISSING);
    assert_usage_error(bin, &["--graph", "--check", MISSING], MISSING);
    assert_usage_error(bin, &["--warm", MISSING], MISSING);
    assert_usage_error(bin, &["--check"], "--check needs a path");
    assert_usage_error(bin, &["--bogus"], "--bogus");
}

#[test]
fn fleet_bench_rejects_bad_arguments_with_exit_code_2() {
    let bin = env!("CARGO_BIN_EXE_fleet_bench");
    assert_usage_error(bin, &["--check", MISSING], MISSING);
    assert_usage_error(bin, &["--bogus"], "--bogus");
    assert_usage_error(bin, &["--seed", "seven"], "seven");
    assert_usage_error(bin, &["--devices"], "--devices needs a number");
}
