//! The `reproduce` binary refuses a value flag whose value is missing or
//! does not parse, and a `REPRODUCE_THREADS` that does not parse, before
//! it runs anything; and it runs each study once per invocation.

use std::path::PathBuf;
use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    reproduce_with(args, &[])
}

/// Run `reproduce` with `env` set on top of the inherited environment.
fn reproduce_with(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .envs(env.iter().copied())
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

#[test]
fn an_unparsable_thread_count_in_the_environment_is_refused() {
    for threads in ["abc", "-1", ""] {
        let output = reproduce_with(
            &["fig1", "--trace-len", "100"],
            &[("REPRODUCE_THREADS", threads)],
        );
        assert_usage_error(&output, "REPRODUCE_THREADS");
    }
    let output = reproduce_with(&["table1"], &[("REPRODUCE_THREADS", "1")]);
    assert_eq!(output.status.code(), Some(0), "a valid count still runs");
}

#[test]
fn each_study_runs_once_per_invocation() {
    // The paper grid is 84 cells: one `[k/84]` progress line each, however
    // many modes and figures read it.
    for study in [&["headline"][..], &["campaign", "headline"]] {
        let mut args = study.to_vec();
        args.extend(["--trace-len", "300", "--no-cache"]);
        let output = reproduce(&args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
        let cells = stderr
            .lines()
            .filter(|line| {
                line.split_once(']')
                    .is_some_and(|(k, _)| k.ends_with("/84"))
            })
            .count();
        assert_eq!(cells, 84, "{args:?} stderr: {stderr}");
    }
}
