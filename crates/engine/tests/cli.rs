//! The `psdacc-engine` binary end to end: `run --graph` prints the
//! library engine's lines for a runtime-defined scenario, and a budget
//! batch's ledgers fold exactly onto their powers and render through
//! `budget-report` as ranked text or `budget_report` JSON lines.

#[path = "../../../tests/support/cli.rs"]
mod support;

use psdacc_engine::json::{self, Json};
use psdacc_engine::{BatchSpec, ScenarioRegistry};
use support::{assert_stable_eq, command, engine_lines, run, Scratch, CODEC_GRAPH, CODEC_SPEC};

const ENGINE: &str = env!("CARGO_BIN_EXE_psdacc-engine");

/// Two scenarios x (two budget ledgers + one greedy refinement): 6 rows.
const BUDGET_SPEC: &str = "scenario freq-filter\n\
                           scenario fir-cascade stages=2 taps=9 cutoff=0.3\n\
                           budget npsd=128 bits=8,12\n\
                           refine npsd=128 budget=1e-5 start=12 min=3\n";

fn f64_field(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
}

#[test]
fn run_with_graph_matches_the_library_engine() {
    let scratch = Scratch::new("engine-graph");
    let graph_path = scratch.write("codec.json", CODEC_GRAPH);
    let spec_path = scratch.write("dyn.spec", CODEC_SPEC);
    let registry = ScenarioRegistry::new();
    registry.define_graph_json("my-codec", CODEC_GRAPH).unwrap();
    let expected = engine_lines(&BatchSpec::parse_with(CODEC_SPEC, &registry).unwrap());

    let graph_arg = format!("my-codec={graph_path}");
    let out = run(&mut command(
        ENGINE,
        &scratch,
        &["run", "--spec", &spec_path, "--graph", &graph_arg, "--threads", "2"],
    ));
    let lines: Vec<&str> = out.ok().lines().collect();
    assert_stable_eq(&lines, &expected);
    assert_eq!(lines.len(), 14);
    let graph_rows = lines.iter().filter(|l| l.contains("\"scenario\":\"graph[")).count();
    assert_eq!(graph_rows, 7);

    // Without the definition the spec does not parse: a named failure.
    let undefined = run(&mut command(ENGINE, &scratch, &["run", "--spec", &spec_path]));
    assert!(!undefined.status.success());
    assert!(undefined.stderr.contains("my-codec"), "{}", undefined.stderr);
}

#[test]
fn budget_ledgers_fold_exactly_and_render_through_budget_report() {
    let scratch = Scratch::new("engine-budget");
    let spec_path = scratch.write("budget.spec", BUDGET_SPEC);
    let out = run(&mut command(ENGINE, &scratch, &["run", "--spec", &spec_path, "--threads", "2"]));
    let rows: Vec<Json> = out.ok().lines().map(|l| json::parse(l).unwrap()).collect();
    assert_eq!(rows.len(), 6, "{}", out.stdout);
    let kind = |v: &Json| v.get("kind").and_then(Json::as_str).unwrap().to_string();
    assert_eq!(rows.iter().filter(|v| kind(v) == "greedy-refine").count(), 2);
    let budgets: Vec<&Json> = rows.iter().filter(|v| kind(v) == "budget").collect();
    assert_eq!(budgets.len(), 4);
    for b in &budgets {
        let ledger = b.get("budget").and_then(Json::as_array).unwrap();
        // Plain left-to-right f64 addition over the printed contributions
        // lands exactly on the printed power.
        let total = ledger.iter().fold(0.0f64, |acc, r| acc + f64_field(r, "contribution"));
        assert_eq!(total.to_bits(), f64_field(b, "power").to_bits(), "{b:?}");
        // The largest contribution carries the largest share, and on these
        // systems it is an `auto` quantizer holding over a quarter.
        let top = ledger
            .iter()
            .max_by(|x, y| {
                f64_field(x, "contribution").abs().total_cmp(&f64_field(y, "contribution").abs())
            })
            .unwrap();
        let max_share = ledger.iter().map(|r| f64_field(r, "share").abs()).fold(0.0, f64::max);
        assert_eq!(f64_field(top, "share").abs(), max_share, "{top:?}");
        assert_eq!(top.get("role").and_then(Json::as_str), Some("auto"), "{top:?}");
        assert!(f64_field(top, "share").abs() > 0.25, "{top:?}");
    }

    scratch.write("budget.jsonl", &out.stdout);
    let reports = run(&mut command(
        ENGINE,
        &scratch,
        &["budget-report", "--input", "budget.jsonl", "--json"],
    ));
    let reports: Vec<Json> = reports.ok().lines().map(|l| json::parse(l).unwrap()).collect();
    assert_eq!(reports.len(), 4);
    assert!(reports.iter().all(|r| r.get("kind").and_then(Json::as_str) == Some("budget_report")));
    let text = run(&mut command(
        ENGINE,
        &scratch,
        &["budget-report", "--input", "budget.jsonl", "--top", "8"],
    ));
    assert_eq!(text.ok().matches("noise budget — ").count(), 4, "{}", text.stdout);
}
