//! Command-line contract of `tsim` and `terasim-serve`: a flag value
//! outside its legal set exits 2 with one error line naming the flag —
//! never a panic or a backtrace — and a valid small run exits 0.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn assert_rejected(bin: &str, args: &[&str], flag: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2; stderr: {stderr}");
    assert!(stderr.contains(flag), "{args:?}: stderr must name {flag}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
}

#[test]
fn tsim_rejects_out_of_range_flags_with_exit_2() {
    let tsim = env!("CARGO_BIN_EXE_tsim");
    for (args, flag) in [
        (&["run", "--mimo", "5"][..], "--mimo"),
        (&["run", "--cores", "3"], "--cores"),
        (&["run", "--cores", "2048"], "--cores"),
        (&["symbol", "--nsc", "0"], "--nsc"),
        (&["run", "--threads", "0"], "--threads"),
        (&["ber", "--mimo", "0"], "--mimo"),
        (&["ber", "--errors", "0"], "--errors"),
    ] {
        assert_rejected(tsim, args, flag);
    }
}

#[test]
fn serve_rejects_zero_sizes_with_exit_2() {
    let serve = env!("CARGO_BIN_EXE_terasim-serve");
    for flag in ["--workers", "--depth", "--cache"] {
        assert_rejected(serve, &[flag, "0"], flag);
    }
}

#[test]
fn tsim_small_run_succeeds() {
    let out = run(env!("CARGO_BIN_EXE_tsim"), &["run", "--mimo", "4", "--cores", "8", "--threads", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("verified=true"), "{stdout}");
}
