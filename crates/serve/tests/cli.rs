//! The `psdacc-serve` binary end to end: `daemon --addr 127.0.0.1:0`
//! child processes (the bound address read from the `listening on`
//! stderr line) serve job streams bit-identically to the library engine,
//! two processes share one `--store`, a fresh process over that store
//! warm-starts with zero preprocessing builds, and the `stats`,
//! `metrics` (text and JSON) and `scenarios` verbs print what scripts
//! parse.

#[path = "../../../tests/support/cli.rs"]
mod support;

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use psdacc_engine::json::{self, Json};
use psdacc_engine::{BatchSpec, JobSpec};
use psdacc_serve::job_request_line;
use psdacc_serve::latency::VERBS;
use support::{assert_stable_eq, command, engine_lines, run, Guard, Scratch, SMOKE_SPEC};

const SERVE: &str = env!("CARGO_BIN_EXE_psdacc-serve");

/// Distinct `(scenario, npsd)` preprocessing keys in [`SMOKE_SPEC`].
const SMOKE_KEYS: u64 = 7;

/// A daemon child process and the address it bound.
struct Daemon {
    addr: String,
    _child: Guard,
}

impl Daemon {
    /// Starts `psdacc-serve daemon` on an OS-assigned port over `store`,
    /// its stderr going to `<name>.log` in the scratch directory.
    fn spawn(scratch: &Scratch, name: &str, store: &str) -> Daemon {
        let log = format!("{name}.log");
        let child = Guard(
            Command::new(SERVE)
                .args(["daemon", "--addr", "127.0.0.1:0", "--store", store, "--threads", "2"])
                .current_dir(scratch.dir())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(File::create(scratch.path(&log)).unwrap())
                .spawn()
                .unwrap(),
        );
        let t0 = Instant::now();
        let addr = loop {
            let text = scratch.read(&log);
            if let Some(rest) = text.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap().to_string();
            }
            assert!(t0.elapsed() < Duration::from_secs(30), "{name} never bound: {text}");
            std::thread::sleep(Duration::from_millis(10));
        };
        Daemon { addr, _child: child }
    }

    /// Streams `(id, job)` units over one connection and returns the
    /// result lines by id, after checking the closing summary.
    fn stream(&self, units: &[(usize, &JobSpec)]) -> Vec<(usize, String)> {
        let stream = TcpStream::connect(&self.addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        for (id, job) in units {
            writeln!(&stream, "{}", job_request_line(*id, job).unwrap()).unwrap();
        }
        stream.shutdown(Shutdown::Write).unwrap();
        let mut lines: Vec<String> = reader.lines().map(Result::unwrap).collect();
        let summary = json::parse(&lines.pop().expect("summary line")).unwrap();
        assert_eq!(summary.get("kind").and_then(Json::as_str), Some("summary"));
        assert_eq!(summary.get("failed").and_then(Json::as_u64), Some(0));
        lines
            .into_iter()
            .map(|l| {
                (json::parse(&l).unwrap().get("job").and_then(Json::as_u64).unwrap() as usize, l)
            })
            .collect()
    }
}

/// One `psdacc-serve VERB --workers ...` run's stdout.
fn verb(scratch: &Scratch, args: &[&str]) -> String {
    run(&mut command(SERVE, scratch, args)).ok().to_string()
}

fn u64_field(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
}

/// Result lines collected from daemons, put back in id order, must be
/// the engine's lines.
fn assert_matches(mut got: Vec<(usize, String)>, expected: &[String]) {
    got.sort_by_key(|(id, _)| *id);
    assert!(got.iter().enumerate().all(|(i, (id, _))| i == *id), "{got:?}");
    assert_stable_eq(&got.iter().map(|(_, l)| l.as_str()).collect::<Vec<_>>(), expected);
}

#[test]
fn daemons_share_a_store_and_a_fresh_daemon_warm_starts() {
    let scratch = Scratch::new("serve-store");
    let store = scratch.path("store");
    let store = store.to_str().unwrap();
    let spec = BatchSpec::parse(SMOKE_SPEC).unwrap();
    let jobs = spec.jobs();
    let expected = engine_lines(&spec);
    let units: Vec<(usize, &JobSpec)> = jobs.iter().enumerate().collect();

    // Two cold processes over one store split the batch between them.
    let (a, b) = (Daemon::spawn(&scratch, "a", store), Daemon::spawn(&scratch, "b", store));
    let (even, odd): (Vec<_>, Vec<_>) = units.iter().copied().partition(|(id, _)| id % 2 == 0);
    let (got_a, got_b) = std::thread::scope(|s| {
        let a = s.spawn(|| a.stream(&even));
        let b = s.spawn(|| b.stream(&odd));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_matches(got_a.into_iter().chain(got_b).collect(), &expected);

    // Both advertise the estim families next to the builtins.
    let listings = verb(&scratch, &["scenarios", "--workers", &format!("{},{}", a.addr, b.addr)]);
    let listings: Vec<&str> = listings.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(listings.len(), 2, "{listings:?}");
    for listing in listings {
        let v = json::parse(listing).unwrap();
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("scenarios"), "{listing}");
        let entries = v.get("entries").and_then(Json::as_array).unwrap();
        for family in ["measured-welch", "cross-spectrum", "sigma-delta"] {
            let provider = entries
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(family))
                .and_then(|e| e.get("provider").and_then(Json::as_str));
            assert_eq!(provider, Some("estim"), "{family}: {listing}");
        }
    }
    drop((a, b));

    // A fresh process over the warmed store builds nothing.
    let warm = Daemon::spawn(&scratch, "warm", store);
    assert_matches(warm.stream(&units), &expected);
    let text = verb(&scratch, &["stats", "--workers", &warm.addr]);
    let stats = json::parse(text.trim_end()).unwrap();
    assert_eq!(u64_field(&stats, "protocol"), 5, "{text}");
    assert_eq!(u64_field(&stats, "cache_builds"), 0, "{text}");
    assert_eq!(u64_field(&stats, "disk_hits"), SMOKE_KEYS, "{text}");
    let per_scenario = stats.get("scenario_cache").and_then(Json::as_array).unwrap();
    assert!(
        per_scenario
            .iter()
            .any(|e| e.get("scenario").and_then(Json::as_str) == Some("dwt-decimated[levels=2]")),
        "{text}"
    );
    assert!(per_scenario.iter().all(|e| u64_field(e, "misses") >= 1), "{text}");
    // Per-verb latency: every verb present, ordered percentiles for the
    // verbs the batch used.
    let latency = stats.get("latency").and_then(Json::as_array).unwrap();
    let verbs: Vec<&str> =
        latency.iter().map(|h| h.get("verb").and_then(Json::as_str).unwrap()).collect();
    assert_eq!(verbs, VERBS, "{text}");
    for h in latency {
        let count = u64_field(h, "count");
        let buckets: u64 = h
            .get("buckets")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|b| b.as_u64().unwrap())
            .sum();
        assert_eq!(buckets, count, "{text}");
        if count > 0 {
            let p = |k: &str| h.get(k).and_then(Json::as_f64).unwrap();
            assert!(
                0.0 < p("p50_ns") && p("p50_ns") <= p("p95_ns") && p("p95_ns") <= p("p99_ns"),
                "{h:?}"
            );
        }
    }
    // In VERBS order, the spec's two verbs are evaluate and min-uniform.
    assert!(u64_field(&latency[0], "count") > 0 && u64_field(&latency[2], "count") > 0, "{text}");

    // The Prometheus text scrape: every verb series exists, the two the
    // spec exercises are nonzero, and units were counted.
    let prom = verb(&scratch, &["metrics", "--workers", &warm.addr]);
    let samples: Vec<(&str, f64)> = prom
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, value) = l.rsplit_once(' ').unwrap_or_else(|| panic!("bad sample `{l}`"));
            (name, value.parse().unwrap_or_else(|_| panic!("bad value in `{l}`")))
        })
        .collect();
    assert!(!samples.is_empty(), "empty exposition");
    let sample = |name: &str| samples.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    for v in VERBS {
        assert!(
            sample(&format!("serve_latency_ns_count{{verb=\"{v}\"}}")).is_some(),
            "{v}: {prom}"
        );
    }
    for v in ["evaluate", "min-uniform"] {
        assert!(
            sample(&format!("serve_latency_ns_count{{verb=\"{v}\"}}")).unwrap() > 0.0,
            "{prom}"
        );
    }
    assert!(sample("serve_units_total").unwrap_or(0.0) > 0.0, "{prom}");
    // ...and the JSON registry carries the same histograms.
    let registry = verb(&scratch, &["metrics", "--workers", &warm.addr, "--format", "json"]);
    let Json::Obj(fields) = json::parse(registry.trim_end()).unwrap() else {
        panic!("metrics JSON is not an object: {registry}");
    };
    assert!(fields.iter().any(|(k, _)| k.starts_with("serve_latency_ns{")), "{registry}");
}
