//! The `psdacc-sched` binary end to end, against in-process daemons on
//! port 0: `submit` prints the library engine's result lines (stable
//! fields, submission order) over unskewed and skewed fleets and writes
//! its `--stats-json` line; `--graph` defines a scenario on every daemon;
//! `--trace`/`--batch`, the `trace` verb and `analyze --json` read back
//! one merged trace. The library-level fleet facts (load tilt, trace
//! parenting per unit, analyzer internals) live in `fleet_loopback.rs`.

#[path = "../../../tests/support/cli.rs"]
mod support;

use std::collections::BTreeSet;
use std::time::Duration;

use psdacc_engine::json::{self, Json};
use psdacc_engine::{BatchSpec, Engine, ScenarioRegistry};
use psdacc_obs::{EventKind, TraceEvent};
use psdacc_serve::latency::VERBS;
use psdacc_serve::{client, Server, ServerConfig, ServerHandle};
use support::{
    assert_stable_eq, command, engine_lines, run, Output, Scratch, CODEC_GRAPH, CODEC_SPEC,
    SMOKE_SPEC,
};

const SCHED: &str = env!("CARGO_BIN_EXE_psdacc-sched");

fn daemon(threads: usize, delay_ms: u64) -> ServerHandle {
    let config =
        ServerConfig { chaos_unit_delay: Duration::from_millis(delay_ms), ..Default::default() };
    Server::bind_with("127.0.0.1:0", Engine::new(threads), config).unwrap().spawn().unwrap()
}

/// One 25 ms-per-unit single-worker straggler and one fast daemon.
fn skewed_fleet() -> (ServerHandle, ServerHandle) {
    (daemon(1, 25), daemon(2, 0))
}

fn addrs(daemons: &[&ServerHandle]) -> String {
    daemons.iter().map(|d| d.addr().to_string()).collect::<Vec<_>>().join(",")
}

/// `submit` stdout must be the engine's lines, in order, on every stable
/// field.
fn assert_matches_engine(out: &Output, expected: &[String]) {
    assert_stable_eq(&out.ok().lines().collect::<Vec<_>>(), expected);
}

fn count_scenarios(out: &Output, prefix: &str) -> usize {
    out.lines()
        .iter()
        .filter(|l| {
            let v = json::parse(l).unwrap();
            v.get("scenario").and_then(Json::as_str).unwrap().starts_with(prefix)
        })
        .count()
}

fn u64_field(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
}

#[test]
fn submit_matches_the_engine_over_unskewed_and_skewed_fleets() {
    let scratch = Scratch::new("sched-submit");
    let spec_path = scratch.write("smoke.spec", SMOKE_SPEC);
    let expected = engine_lines(&BatchSpec::parse(SMOKE_SPEC).unwrap());
    assert_eq!(expected.len(), 28);

    // Unskewed: two fast daemons.
    let (a, b) = (daemon(2, 0), daemon(2, 0));
    let unskewed =
        run(&mut command(SCHED, &scratch, &["submit", "--daemons", &addrs(&[&a, &b]), &spec_path]));
    assert_matches_engine(&unskewed, &expected);
    assert_eq!(count_scenarios(&unskewed, "dwt-decimated"), 8);
    assert_eq!(count_scenarios(&unskewed, "dwt-packet"), 4);

    // Skewed: the fast daemon must steal the straggler's queued units,
    // and `--stats-json` records it.
    let (slow, fast) = skewed_fleet();
    let skewed = run(&mut command(
        SCHED,
        &scratch,
        &["submit", "--daemons", &addrs(&[&slow, &fast]), "--stats-json", "stats.json", &spec_path],
    ));
    assert_matches_engine(&skewed, &expected);
    let text = scratch.read("stats.json");
    let stats = json::parse(text.trim_end()).unwrap();
    assert_eq!(stats.get("kind").and_then(Json::as_str), Some("fleet"), "{text}");
    assert_eq!(u64_field(&stats, "units"), 28, "{text}");
    assert_eq!(u64_field(&stats, "failed"), 0, "{text}");
    assert!(u64_field(&stats, "steals") > 0, "no steals despite a 25 ms straggler: {text}");
    assert_eq!(u64_field(&stats, "redispatched"), 0, "{text}");
    let daemons = stats.get("daemons").and_then(Json::as_array).unwrap();
    assert_eq!(daemons.len(), 2, "{text}");
    for d in daemons {
        assert_eq!(d.get("dead").and_then(Json::as_bool), Some(false), "{text}");
        assert!(u64_field(d, "served") > 0, "{text}");
    }
    let latency = stats.get("latency").and_then(Json::as_array).unwrap();
    let verbs: Vec<&str> =
        latency.iter().map(|e| e.get("verb").and_then(Json::as_str).unwrap()).collect();
    assert_eq!(verbs, VERBS, "{text}");
    let evaluate = &latency[0];
    let p = |k: &str| evaluate.get(k).and_then(Json::as_f64).unwrap();
    assert!(u64_field(evaluate, "count") > 0, "{text}");
    assert!(
        0.0 < p("p50_ns") && p("p50_ns") <= p("p95_ns") && p("p95_ns") <= p("p99_ns"),
        "{text}"
    );
    assert_eq!(stats.get("events").and_then(Json::as_array).map(<[Json]>::len), Some(0), "{text}");
    // The same line also goes to stderr.
    assert!(skewed.stderr.contains(text.trim_end()), "{}", skewed.stderr);
}

#[test]
fn traced_submit_is_read_back_by_the_trace_verb_and_analyze() {
    let scratch = Scratch::new("sched-trace");
    let spec_path = scratch.write("smoke.spec", SMOKE_SPEC);
    let expected = engine_lines(&BatchSpec::parse(SMOKE_SPEC).unwrap());
    let (slow, fast) = skewed_fleet();
    let fleet = addrs(&[&slow, &fast]);

    let traced = run(&mut command(
        SCHED,
        &scratch,
        &[
            "submit",
            "--daemons",
            &fleet,
            "--trace",
            "trace.jsonl",
            "--batch",
            "cli-smoke",
            &spec_path,
        ],
    ));
    assert_matches_engine(&traced, &expected);

    // The written trace: one root, 28 daemon unit spans parented under it
    // and stamped with their daemon, each with its stage breakdown.
    let trace: Vec<TraceEvent> =
        scratch.read("trace.jsonl").lines().map(|l| TraceEvent::parse(l).unwrap()).collect();
    let roots: Vec<&TraceEvent> = trace.iter().filter(|e| e.name == "fleet.batch").collect();
    assert_eq!(roots.len(), 1);
    assert!(matches!(roots[0].kind, EventKind::Span { dur_ns } if dur_ns > 0));
    let units: Vec<&TraceEvent> = trace.iter().filter(|e| e.name == "serve.unit").collect();
    assert_eq!(units.len(), 28);
    assert!(units.iter().all(|u| u.parent == Some(roots[0].span) && u.daemon.is_some()));
    let unit_spans: Vec<_> = units.iter().map(|u| u.span).collect();
    let stages: BTreeSet<&str> = trace
        .iter()
        .filter(|e| e.parent.is_some_and(|p| unit_spans.contains(&p)))
        .map(|e| e.name.as_str())
        .collect();
    for stage in ["unit.parse", "unit.cache_lookup", "unit.tau_eval", "unit.serialize"] {
        assert!(stages.contains(stage), "missing {stage}: {stages:?}");
    }

    // `trace` fetches the daemons' retained spans for the same batch.
    let fetched =
        run(&mut command(SCHED, &scratch, &["trace", "--daemons", &fleet, "--batch", "cli-smoke"]));
    let fetched_units =
        fetched.ok().lines().filter(|l| TraceEvent::parse(l).unwrap().name == "serve.unit").count();
    assert_eq!(fetched_units, 28);

    // `analyze --json` attributes the batch in one machine line.
    let analyzed =
        run(&mut command(SCHED, &scratch, &["analyze", "--trace", "trace.jsonl", "--json"]));
    let lines = analyzed.lines();
    assert_eq!(lines.len(), 1, "{}", analyzed.stdout);
    let a = json::parse(lines[0]).unwrap();
    assert_eq!(a.get("kind").and_then(Json::as_str), Some("trace_analysis"));
    assert_eq!(a.get("batch").and_then(Json::as_str), Some("cli-smoke"));
    assert_eq!(u64_field(&a, "units"), 28);
    assert!(u64_field(&a, "wall_ns") > 0);
    let path: Vec<&str> = a
        .get("critical_path")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|h| h.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(path[..3], ["fleet.batch", "fleet.unit", "serve.unit"], "{path:?}");
    let analyzed_daemons: BTreeSet<&str> = a
        .get("daemons")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|d| d.get("addr").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(analyzed_daemons, fleet.split(',').collect::<BTreeSet<_>>());
    // Text is the default rendering.
    let text = run(&mut command(SCHED, &scratch, &["analyze", "--trace", "trace.jsonl"]));
    assert!(text.ok().contains("critical path"), "{}", text.stdout);
}

#[test]
fn submit_graph_defines_the_scenario_on_every_daemon() {
    let scratch = Scratch::new("sched-graph");
    let graph_path = scratch.write("codec.json", CODEC_GRAPH);
    let spec_path = scratch.write("dyn.spec", CODEC_SPEC);
    let registry = ScenarioRegistry::new();
    registry.define_graph_json("my-codec", CODEC_GRAPH).unwrap();
    let expected = engine_lines(&BatchSpec::parse_with(CODEC_SPEC, &registry).unwrap());
    assert_eq!(expected.len(), 14);

    let (slow, fast) = skewed_fleet();
    let fleet = addrs(&[&slow, &fast]);
    let graph_arg = format!("my-codec={graph_path}");
    let out = run(&mut command(
        SCHED,
        &scratch,
        &["submit", "--daemons", &fleet, "--graph", &graph_arg, &spec_path],
    ));
    assert_matches_engine(&out, &expected);
    assert_eq!(count_scenarios(&out, "graph["), 7);
    for d in [&slow, &fast] {
        let stats = client::request_control(&d.addr().to_string(), "stats").unwrap();
        assert_eq!(u64_field(&json::parse(&stats).unwrap(), "dynamic_scenarios"), 1, "{stats}");
    }

    // Without the definition the spec does not parse: a named failure.
    let undefined =
        run(&mut command(SCHED, &scratch, &["submit", "--daemons", &fleet, &spec_path]));
    assert!(!undefined.status.success());
    assert!(undefined.stderr.contains("my-codec"), "{}", undefined.stderr);
}
