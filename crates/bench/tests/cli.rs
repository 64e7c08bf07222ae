//! Command-line misuse of the `experiments` binary exits 2 before any
//! figure runs.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary starts")
}

/// A flag the binary does not know is an error even after `all`, which
/// would otherwise run every figure with the flag silently ignored.
#[test]
fn an_unknown_flag_after_all_exits_2_and_names_the_flag() {
    let out = experiments(&["all", "--shards", "2"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag \"--shards\""), "{stderr}");
    assert!(out.stdout.is_empty(), "no figure ran: {:?}", out.stdout);
}

/// So is a figure id the registry does not hold.
#[test]
fn an_unknown_figure_beside_all_exits_2_and_names_it() {
    let out = experiments(&["all", "fig6x"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown figure \"fig6x\""), "{stderr}");
    assert!(out.stdout.is_empty(), "no figure ran: {:?}", out.stdout);
}
