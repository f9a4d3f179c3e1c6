//! CLI argument handling of `parbs-sim`: malformed option values must be
//! hard errors naming the offending flag, never silent fallbacks to the
//! default (the bug: `--jobs abc` used to run with the default job count).

use std::process::Command;

fn parbs_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_parbs-sim"))
}

fn run_expecting_usage_error(args: &[&str], needle: &str) {
    let out = parbs_sim().args(args).output().expect("parbs-sim runs");
    assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "stderr for {args:?} must name the problem ({needle:?}), got: {stderr}"
    );
}

#[test]
fn malformed_jobs_value_is_a_hard_error() {
    run_expecting_usage_error(&["list", "--jobs", "abc"], "--jobs");
}

#[test]
fn negative_ranks_value_is_a_hard_error() {
    run_expecting_usage_error(&["list", "--ranks", "-1"], "--ranks");
}

#[test]
fn malformed_target_value_is_a_hard_error() {
    run_expecting_usage_error(&["list", "--target", "30k"], "--target");
}

#[test]
fn flag_without_a_value_is_a_hard_error() {
    run_expecting_usage_error(&["list", "--seed"], "--seed");
}

#[test]
fn malformed_sweep_count_is_a_hard_error() {
    run_expecting_usage_error(&["sweep", "lots"], "invalid count");
    run_expecting_usage_error(&["mapping-sweep", "many", "--target", "100"], "invalid count");
    run_expecting_usage_error(&["zoo-sweep", "x"], "invalid count");
}

#[test]
fn zero_checkpoint_interval_is_a_hard_error() {
    // `--checkpoint-every 0` would checkpoint never (or spin forever,
    // depending on the reading) — it must be rejected by name, not
    // silently clamped. The interval check sits behind the
    // requires-`--checkpoint-out` check, so both flags are supplied.
    run_expecting_usage_error(
        &[
            "run",
            "lbm",
            "--checkpoint-out",
            "/tmp/parbs-cli-args-test.ckpt",
            "--checkpoint-every",
            "0",
        ],
        "--checkpoint-every",
    );
}

#[test]
fn checkpoint_interval_without_a_sink_is_a_hard_error() {
    run_expecting_usage_error(&["run", "lbm", "--checkpoint-every", "1000"], "--checkpoint-out");
}

#[test]
fn unknown_flag_is_a_hard_error() {
    // A typo or a retired flag must be rejected by name, never silently
    // ignored while the run goes ahead with defaults.
    run_expecting_usage_error(&["sweep", "3", "--lanes", "4"], "--lanes");
    run_expecting_usage_error(&["run", "lbm", "--jbos", "2"], "--jbos");
    run_expecting_usage_error(&["list", "--lanes", "1"], "--lanes");
    run_expecting_usage_error(
        &["mix", "lbm,mcf", "--check-invariants", "--trace-sched", "ATLAS"],
        "--trace-sched",
    );
}

#[test]
fn sched_picks_the_observed_runs_scheduler() {
    let out = parbs_sim()
        .args(["mix", "libquantum,mcf,GemsFDTD,xalancbmk", "--target", "2000"])
        .args(["--check-invariants", "--sched", "ATLAS"])
        .output()
        .expect("parbs-sim runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("observed run: ATLAS on 'custom'"), "{stdout}");
    assert!(stdout.contains("invariants: OK (1 channel(s) checked)"), "{stdout}");
}

#[test]
fn valid_flags_still_parse() {
    let out = parbs_sim()
        .args(["bench", "lbm", "--target", "500", "--seed", "7"])
        .output()
        .expect("parbs-sim runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("lbm alone"));
}

#[test]
fn sweep_count_may_be_omitted_before_flags() {
    // `sweep --target N` has no positional count; the flag must not be
    // mistaken for (and rejected as) a count.
    let out = parbs_sim()
        .args(["zoo-sweep", "0", "--target", "400", "--jobs", "2"])
        .output()
        .expect("parbs-sim runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("BLISS") && stdout.contains("ATLAS"), "zoo table lists the zoo");
}

#[test]
fn check_invariants_runs_the_invariant_prelude_beside_a_user_spec() {
    let mix = ["mix", "libquantum,mcf,GemsFDTD,xalancbmk", "--target", "2000"];
    let run = |extra: &[&str]| {
        let out = parbs_sim().args(mix).args(extra).output().expect("parbs-sim runs");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let alone = run(&["--check-invariants"]);
    assert!(alone.contains("invariants: OK (1 channel(s) checked)"), "{alone}");
    assert!(!alone.contains("monitor: OK"), "{alone}");
    let both = run(&["--check-invariants", "--spec", "prelude:qos"]);
    assert!(both.contains("invariants: OK (1 channel(s) checked)"), "{both}");
    assert!(both.contains("monitor: OK (1 channel(s) monitored)"), "{both}");
}
