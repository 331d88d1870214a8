//! The `reproduce` binary refuses a value flag whose value is missing or
//! does not parse, before it runs anything.

use std::path::PathBuf;
use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("the reproduce binary starts")
}

/// Exit code 2, nothing on stdout, and a stderr line naming `flag`.
fn assert_usage_error(output: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(output.stdout.is_empty(), "stdout: {:?}", output.stdout);
    assert!(
        stderr.contains(flag),
        "stderr does not name {flag}: {stderr}"
    );
}

#[test]
fn an_unparsable_worker_count_starts_no_run() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("hc_cli_unparsable_of_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let checkpoint = dir.to_str().expect("temp paths are UTF-8");
    let output = reproduce(&[
        "suite",
        "--of",
        "x",
        "--checkpoint",
        checkpoint,
        "--apps-per-category",
        "1",
        "--trace-len",
        "300",
    ]);
    assert_usage_error(&output, "--of");
    assert!(
        !dir.join("campaign.json").exists(),
        "a refused worker must not write a manifest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unparsable_or_missing_trace_length_is_refused() {
    assert_usage_error(&reproduce(&["ed2", "--trace-len", "3k"]), "--trace-len");
    assert_usage_error(&reproduce(&["ed2", "--trace-len"]), "--trace-len");
}
