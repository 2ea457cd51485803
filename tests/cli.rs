//! The `httpsrr-cli` binary's argument handling: a flag whose value does
//! not parse, and a command that does not exist, are usage errors that
//! exit non-zero rather than runs on default settings.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_httpsrr-cli")).args(args).output().expect("spawn httpsrr-cli")
}

#[test]
fn malformed_flags_and_unknown_commands_exit_non_zero() {
    let ok = cli(&["run", "--population", "60", "--list", "40", "--days", "1"]);
    assert!(ok.status.success(), "well-formed run failed: {ok:?}");

    for (args, named) in [
        (&["run", "--population", "60", "--list", "40", "--days", "abc"][..], "--days"),
        (&["run", "--population", "60", "--list", "40", "--days"][..], "--days"),
        (&["serve", "--population", "60", "--list", "40", "--rates", "2,x,8"][..], "--rates"),
        (&["bench"][..], "\"bench\""),
    ] {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited successfully");
        assert!(out.stdout.is_empty(), "{args:?} ran and printed a report");
        assert!(stderr.contains(named), "{args:?}: error does not name {named}: {stderr}");
    }
}
