//! Bad command-line input ends a bench binary with a one-line error and
//! exit status 2, never with a panic.

#![forbid(unsafe_code)]

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs")
}

fn assert_usage_error(out: &Output, expected: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");
    assert!(stderr.contains(expected), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no table printed on bad input");
}

#[test]
fn unparsable_value_exits_with_status_2() {
    let out = figures(&["--topology", "sixteen"]);
    assert_usage_error(
        &out,
        "--topology \"sixteen\": invalid digit found in string",
    );
}

#[test]
fn positional_argument_exits_with_status_2() {
    let out = figures(&["--seed", "3", "extra"]);
    assert_usage_error(&out, "unexpected positional argument \"extra\"");
}
