//! The `exp_bench` binary's `--compare` / `--history` contract, run in a
//! temp dir: comparing against `BENCH_psd.json` writes the fresh run to
//! `BENCH_fresh.json` (never over the baseline) and appends the same line
//! to the ledger; a baseline doctored 100x faster trips the gate with a
//! nonzero exit; a truncated ledger tail is skipped with a line-numbered
//! warning and the compare still passes. The report schema itself is
//! asserted on the library run in `perf::tests`.

#[path = "../../../tests/support/cli.rs"]
mod support;

use psdacc_bench::BenchReport;
use support::{command, run, Scratch};

const EXP_BENCH: &str = env!("CARGO_BIN_EXE_exp_bench");

fn probe_names(report: &BenchReport) -> Vec<&str> {
    report.results.iter().map(|r| r.name.as_str()).collect()
}

/// `report`'s line with every probe's throughput multiplied by `factor`.
fn scaled(report: &BenchReport, factor: f64) -> String {
    let mut doctored = report.clone();
    for r in &mut doctored.results {
        r.throughput_units_per_s *= factor;
    }
    doctored.to_json_line()
}

#[test]
fn compare_keeps_the_baseline_feeds_the_ledger_and_trips_on_regression() {
    let scratch = Scratch::new("exp-bench");
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_psd.json"))
            .unwrap();
    scratch.write("BENCH_psd.json", &committed);

    // The committed baseline may come from other hardware, so this run
    // only has to reach a verdict (0 within threshold, 1 regressed).
    let fresh_run = run(&mut command(
        EXP_BENCH,
        &scratch,
        &[
            "--compare",
            "BENCH_psd.json",
            "--threshold",
            "50",
            "--iters",
            "2",
            "--history",
            "BENCH_history.jsonl",
        ],
    ));
    assert!(matches!(fresh_run.status.code(), Some(0 | 1)), "{}", fresh_run.stderr);
    assert_eq!(scratch.read("BENCH_psd.json"), committed, "the baseline was overwritten");
    let fresh = scratch.read("BENCH_fresh.json");
    let (version, report) = psdacc_bench::parse_report(&fresh).unwrap();
    let (committed_version, baseline) = psdacc_bench::parse_report(&committed).unwrap();
    assert_eq!(version, 3);
    assert_eq!(committed_version, version);
    assert_eq!(probe_names(&baseline), probe_names(&report));
    // The ledger holds exactly this run's report line.
    let ledger = scratch.read("BENCH_history.jsonl");
    let entries: Vec<&str> = ledger.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(entries, [fresh.trim_end()]);

    // Negative control: every probe looks 100x slower than a doctored
    // baseline, so the gate must exit nonzero.
    scratch.write("doctored.json", &scaled(&report, 100.0));
    let regressed = run(&mut command(
        EXP_BENCH,
        &scratch,
        &[
            "--compare",
            "doctored.json",
            "--threshold",
            "50",
            "--iters",
            "2",
            "--out",
            "regression-run.json",
        ],
    ));
    assert_eq!(regressed.status.code(), Some(1), "{}", regressed.stderr);
    assert!(regressed.stderr.contains("REGRESSION"), "{}", regressed.stderr);

    // A run killed mid-append leaves a truncated tail: it is named and
    // skipped, and the compare runs against the intact entry before it.
    // That entry is the fresh report slowed 100x (the mirror of the
    // negative control above), so two-iteration timing noise on a busy
    // host cannot decide the verdict.
    let truncated = "{\"kind\":\"bench\",\"version\":3,\"meta\":{\"iters\"";
    scratch.write("tail.jsonl", &format!("{}\n{truncated}", scaled(&report, 0.01)));
    let guarded = run(&mut command(
        EXP_BENCH,
        &scratch,
        &[
            "--compare",
            "tail.jsonl",
            "--threshold",
            "90",
            "--iters",
            "2",
            "--out",
            "guard-run.json",
        ],
    ));
    assert!(guarded.status.success(), "{}", guarded.stderr);
    assert!(
        guarded
            .stderr
            .lines()
            .any(|l| l.contains("line 2: ") && l.contains("skipping corrupt ledger entry")),
        "{}",
        guarded.stderr
    );
    assert!(guarded.stderr.contains("within 90% of baseline"), "{}", guarded.stderr);
}
