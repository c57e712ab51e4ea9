//! End-to-end exit-code and stream contracts for the `rcast` binary.
//!
//! Scripts and CI wrap this binary, so the contract is part of the
//! public surface: success exits 0, every failure exits non-zero with a
//! single-line diagnostic on **stderr** that starts with `error` (usage
//! errors exit 2), and machine-readable output (JSON, CSV) goes to
//! stdout only.

use std::process::{Command, Output};

fn rcast(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rcast"))
        .args(args)
        .output()
        .expect("spawn rcast")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_exits_zero_and_prints_the_usage_golden() {
    let out = rcast(&["help"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("golden/help.txt"),
        "help output drifted from tests/golden/help.txt"
    );
    assert!(out.stderr.is_empty());
}

#[test]
fn unknown_subcommands_and_flags_fail_with_a_diagnostic() {
    for args in [
        &["frobnicate"][..],
        &["run", "--bogus"][..],
        &["sweep"][..],                      // missing required --spec
        &["sweep", "--spec"][..],            // dangling value
        &["sweep", "--spec", "fig7", "--threads", "0"][..],
        &["run", "--nodes", "not-a-number"][..],
    ] {
        let out = rcast(args);
        assert!(!out.status.success(), "{args:?} unexpectedly succeeded");
        assert!(
            stderr(&out).starts_with("error"),
            "{args:?}: stderr was {:?}",
            stderr(&out)
        );
    }
}

/// Each run steps its beacon intervals on one thread; parallelism lives
/// across runs (`compare`/`sweep --threads`), so `run` has no width flag.
#[test]
fn run_rejects_a_thread_width_as_a_usage_error() {
    let out = rcast(&["run", "--threads", "2"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).starts_with("error: unknown option '--threads'"),
        "stderr: {}",
        stderr(&out)
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn sweep_rejects_a_spec_that_is_neither_preset_nor_file() {
    let out = rcast(&["sweep", "--spec", "no-such-spec-anywhere"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    // The diagnostic must list the presets so the misspelling is fixable.
    assert!(err.contains("fig5") && err.contains("fig8"), "stderr: {err}");
}

#[test]
fn sweep_reports_spec_file_errors_with_line_numbers() {
    let dir = std::env::temp_dir().join("rcast-cli-exit-codes");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("bad.sweep");
    std::fs::write(&path, "schemes rcast\nrate 0.4\n").expect("write spec");
    let out = rcast(&["sweep", "--spec", path.to_str().expect("utf-8 path")]);
    assert!(!out.status.success());
    let err = stderr(&out);
    // `rate` is the banned singular form; the parser points at line 2.
    assert!(err.contains("line 2") && err.contains("rates"), "stderr: {err}");
}

/// Writes a one-file throwaway workspace under the temp dir and returns
/// its root. `name` keeps concurrent tests out of each other's trees.
fn scratch_workspace(name: &str, source: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join("rcast-cli-exit-codes").join(name);
    let src = root.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("tmp workspace dirs");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("manifest");
    std::fs::write(src.join("sim.rs"), source).expect("source");
    root
}

#[test]
fn lint_exits_zero_on_a_clean_tree() {
    let root = scratch_workspace("clean", "fn quiet() {}\n");
    let out = rcast(&["lint", "--root", root.to_str().expect("utf-8")]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("clean"));
}

#[test]
fn lint_exits_one_on_findings() {
    let root = scratch_workspace(
        "dirty",
        "fn t() { let _ = std::time::Instant::now(); }\n",
    );
    let out = rcast(&["lint", "--root", root.to_str().expect("utf-8")]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("D001"), "stdout: {text}");
}

#[test]
fn lint_reserves_exit_two_for_usage_and_io_errors() {
    // Usage error: the two machine formats are exclusive.
    let out = rcast(&["lint", "--json", "--sarif"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).starts_with("error"));
    // I/O error: baseline file that does not exist.
    let root = scratch_workspace("io", "fn quiet() {}\n");
    let out = rcast(&[
        "lint",
        "--root",
        root.to_str().expect("utf-8"),
        "--baseline",
        "no-such-baseline-anywhere",
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
}

#[test]
fn lint_rejects_a_malformed_baseline_with_exit_two() {
    let root = scratch_workspace("badbase", "fn quiet() {}\n");
    let baseline = root.join("lint.baseline");
    std::fs::write(&baseline, "NOT-A-RULE crates/core/src/sim.rs\n").expect("baseline");
    let out = rcast(&[
        "lint",
        "--root",
        root.to_str().expect("utf-8"),
        "--baseline",
        baseline.to_str().expect("utf-8"),
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).starts_with("error"));
}

#[test]
fn lint_baseline_suppresses_findings_and_reports_stale_entries() {
    let root = scratch_workspace(
        "baseline",
        "fn t() { let _ = std::time::Instant::now(); }\n",
    );
    let baseline = root.join("lint.baseline");
    std::fs::write(
        &baseline,
        "# grandfathered until the port lands\n\
         D001 crates/core/src/sim.rs\n\
         D002 crates/core/src/gone.rs\n",
    )
    .expect("baseline");
    let out = rcast(&[
        "lint",
        "--root",
        root.to_str().expect("utf-8"),
        "--baseline",
        baseline.to_str().expect("utf-8"),
    ]);
    // The real finding is suppressed (exit 0); the entry with no match
    // is called out as stale so baselines cannot rot silently.
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("stale"), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("gone.rs"));
}

#[test]
fn lint_sarif_goes_to_stdout_and_validates_shape() {
    let root = scratch_workspace(
        "sarif",
        "fn t() { let _ = std::time::Instant::now(); }\n",
    );
    let out = rcast(&["lint", "--sarif", "--root", root.to_str().expect("utf-8")]);
    assert_eq!(out.status.code(), Some(1));
    let sarif = String::from_utf8_lossy(&out.stdout);
    assert!(sarif.contains("\"$schema\""), "stdout: {sarif}");
    assert!(sarif.contains("\"rcast-lint\""));
    assert!(sarif.contains("\"ruleId\": \"D001\""));
}

#[test]
fn sweep_smoke_succeeds_and_keeps_json_on_stdout() {
    let out = rcast(&["sweep", "--spec", "fig7", "--smoke", "--threads", "2"]);
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.starts_with("{\n  \"schema\": \"rcast-sweep/v1\","),
        "stdout must carry the artifact"
    );
    // The human summary stays on stderr, out of the artifact stream.
    assert!(stderr(&out).contains("fig7-smoke"));
}
