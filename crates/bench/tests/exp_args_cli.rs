//! The experiment binaries' `--daemons` contract: the binaries that run
//! everything in-process reject the flag, and every binary rejects a
//! daemon list without an address — each with a usage error (exit 2)
//! that names `--daemons`, before any work starts, so nothing is written.

#[path = "../../../tests/support/cli.rs"]
mod support;

use support::{command, run, Scratch};

/// The binaries that dispatch engine batches (and so honour `--daemons`).
const BATCH_BINARIES: [&str; 4] = [
    env!("CARGO_BIN_EXE_exp_table1"),
    env!("CARGO_BIN_EXE_exp_table2"),
    env!("CARGO_BIN_EXE_exp_fig4"),
    env!("CARGO_BIN_EXE_exp_fig5"),
];

/// The binaries that never dispatch a batch.
const LOCAL_BINARIES: [&str; 4] = [
    env!("CARGO_BIN_EXE_exp_fig6"),
    env!("CARGO_BIN_EXE_exp_fig7"),
    env!("CARGO_BIN_EXE_exp_ablation"),
    env!("CARGO_BIN_EXE_run_all"),
];

/// Runs `bin args...` in a fresh scratch dir named by `tag` and asserts
/// a usage error naming `--daemons` with no output written.
fn assert_rejected(tag: &str, bin: &str, args: &[&str]) {
    let scratch = Scratch::new(tag);
    let out = run(&mut command(bin, &scratch, args));
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}\nstderr:\n{}", out.stderr);
    assert!(out.stderr.contains("--daemons"), "{bin} {args:?}: {}", out.stderr);
    assert!(out.stdout.is_empty(), "{bin} {args:?} started work: {}", out.stdout);
    assert!(!scratch.path("target").exists(), "{bin} {args:?} wrote output");
}

#[test]
fn local_only_experiments_reject_daemons() {
    for bin in LOCAL_BINARIES {
        assert_rejected("local-only", bin, &["--daemons", "127.0.0.1:1"]);
    }
}

#[test]
fn every_experiment_rejects_an_empty_daemon_list() {
    for bin in BATCH_BINARIES.into_iter().chain(LOCAL_BINARIES) {
        for list in [",", "", " , "] {
            assert_rejected("empty-list", bin, &["--daemons", list]);
        }
    }
}
