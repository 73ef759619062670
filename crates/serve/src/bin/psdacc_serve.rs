//! `psdacc-serve` — the networked evaluation service CLI.
//!
//! ```text
//! psdacc-serve daemon --addr 127.0.0.1:7341 --store DIR [--threads N]
//! psdacc-serve stats  --workers HOST:PORT[,HOST:PORT...]
//! psdacc-serve metrics --workers HOST:PORT[,HOST:PORT...] [--format text|json]
//! psdacc-serve scenarios --workers HOST:PORT[,HOST:PORT...]
//! psdacc-serve describe --workers HOST:PORT[,HOST:PORT...]
//! ```
//!
//! `daemon` serves forever; results stream to each client as JSON lines.
//! Batches are submitted with `psdacc-sched submit`, which dispatches
//! them across daemons. `stats` / `scenarios` / `describe` print each
//! daemon's one-line answer; `metrics` prints each daemon's Prometheus
//! text exposition (or its JSON registry with `--format json`).

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use psdacc_engine::Engine;
use psdacc_serve::{client, Server};
use psdacc_store::PersistentCache;

const USAGE: &str = "usage:
  psdacc-serve daemon --addr HOST:PORT [--store DIR] [--store-max-entries N] [--threads N]
                      [--max-connections N] [--trace-limit N]
                      [--chaos-unit-delay-ms MS] [--chaos-die-after-units N]
  psdacc-serve stats --workers HOST:PORT[,HOST:PORT...]
  psdacc-serve metrics --workers HOST:PORT[,HOST:PORT...] [--format text|json]
  psdacc-serve scenarios --workers HOST:PORT[,HOST:PORT...]
  psdacc-serve describe --workers HOST:PORT[,HOST:PORT...]

The daemon speaks newline-delimited JSON (kinds: evaluate, greedy,
min-uniform, budget, simulate, define_scenario, describe, evaluate_units, hello,
metrics, scenarios, stats, trace). `metrics` prints each daemon's
Prometheus text exposition (or the canonical JSON registry with
--format json). With
--store, preprocessing persists to disk and restarts warm-start with
zero builds; --store-max-entries caps the on-disk record count (LRU
eviction, loads keep entries hot). --max-connections refuses connections
beyond the cap with one error line (backpressure). --trace-limit sets
how many batches' daemon-side traces stay fetchable before FIFO
eviction (default 8; `stats` reports retained/dropped counts). The
--chaos-* flags
inject faults (per-unit delay; abrupt mid-stream death after N units)
for scheduler testing and CI. Submit batches with `psdacc-sched submit`,
which dispatches them across the daemons with work stealing and merges
the results back into submission order.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("daemon") => cmd_daemon(&args[1..]),
        Some("stats") => cmd_control(&args[1..], "stats"),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("scenarios") => cmd_control(&args[1..], "scenarios"),
        Some("describe") => cmd_control(&args[1..], "describe"),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--flag value` pairs.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let token = args[i].as_str();
        if !token.starts_with("--") {
            return Err(format!("unexpected argument `{token}`"));
        }
        if !allowed.contains(&token) {
            return Err(format!("unknown argument `{token}` (allowed: {})", allowed.join(", ")));
        }
        let value = args.get(i + 1).ok_or_else(|| format!("missing value for {token}"))?;
        flags.insert(token.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn parse_workers(flags: &BTreeMap<String, String>) -> Result<Vec<String>, String> {
    let raw = flags
        .get("--workers")
        .ok_or_else(|| "missing --workers HOST:PORT[,HOST:PORT...]".to_string())?;
    let workers: Vec<String> =
        raw.split(',').map(str::trim).filter(|w| !w.is_empty()).map(String::from).collect();
    if workers.is_empty() {
        return Err("empty --workers list".to_string());
    }
    Ok(workers)
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

fn cmd_daemon(args: &[String]) -> ExitCode {
    let allowed = [
        "--addr",
        "--store",
        "--store-max-entries",
        "--threads",
        "--max-connections",
        "--trace-limit",
        "--chaos-unit-delay-ms",
        "--chaos-die-after-units",
    ];
    let flags = match parse_flags(args, &allowed) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let Some(addr) = flags.get("--addr") else {
        eprintln!("daemon needs --addr HOST:PORT\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let threads = match flags.get("--threads").map(|v| v.parse::<usize>()) {
        None => default_threads(),
        Some(Ok(n)) if n >= 1 => n,
        _ => {
            eprintln!("--threads must be a positive integer");
            return ExitCode::FAILURE;
        }
    };
    let max_entries = match flags.get("--store-max-entries").map(|v| v.parse::<usize>()) {
        None => None,
        Some(Ok(n)) if n >= 1 => Some(n),
        _ => {
            eprintln!("--store-max-entries must be a positive integer");
            return ExitCode::FAILURE;
        }
    };
    if max_entries.is_some() && !flags.contains_key("--store") {
        eprintln!("--store-max-entries needs --store DIR");
        return ExitCode::FAILURE;
    }
    let mut config = psdacc_serve::ServerConfig::default();
    match flags.get("--max-connections").map(|v| v.parse::<usize>()) {
        None => {}
        Some(Ok(n)) if n >= 1 => config.max_connections = Some(n),
        _ => {
            eprintln!("--max-connections must be a positive integer");
            return ExitCode::FAILURE;
        }
    }
    match flags.get("--trace-limit").map(|v| v.parse::<usize>()) {
        None => {}
        Some(Ok(n)) if n >= 1 => config.trace_limit = Some(n),
        _ => {
            eprintln!("--trace-limit must be a positive integer");
            return ExitCode::FAILURE;
        }
    }
    match flags.get("--chaos-unit-delay-ms").map(|v| v.parse::<u64>()) {
        None => {}
        Some(Ok(ms)) => config.chaos_unit_delay = Duration::from_millis(ms),
        _ => {
            eprintln!("--chaos-unit-delay-ms must be a non-negative integer");
            return ExitCode::FAILURE;
        }
    }
    match flags.get("--chaos-die-after-units").map(|v| v.parse::<usize>()) {
        None => {}
        Some(Ok(n)) if n >= 1 => config.chaos_die_after_units = Some(n),
        _ => {
            eprintln!("--chaos-die-after-units must be a positive integer");
            return ExitCode::FAILURE;
        }
    }
    let engine = match flags.get("--store") {
        Some(dir) => match PersistentCache::open_with_limit(dir, max_entries) {
            Ok(cache) => Engine::with_shared_cache(threads, Arc::new(cache)),
            Err(e) => {
                eprintln!("cannot open store {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Engine::new(threads),
    };
    let server = match Server::bind_with(addr, engine, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(bound) => eprintln!(
            "psdacc-serve: listening on {bound} with {threads} threads{}",
            match flags.get("--store") {
                Some(dir) => format!(", store {dir}"),
                None => ", in-memory cache".to_string(),
            }
        ),
        Err(e) => eprintln!("psdacc-serve: {e}"),
    }
    server.run();
    ExitCode::SUCCESS
}

/// `metrics`: fetch each daemon's metrics exposition. Text (Prometheus)
/// by default; `--format json` prints the canonical registry object.
fn cmd_metrics(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, &["--workers", "--format"]) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let workers = match parse_workers(&flags) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let as_json = match flags.get("--format").map(String::as_str) {
        None | Some("text") => false,
        Some("json") => true,
        Some(other) => {
            eprintln!("--format must be `text` or `json`, not `{other}`");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for worker in &workers {
        match client::request_control(worker, "metrics") {
            Ok(line) => {
                let field = if as_json { "metrics" } else { "text" };
                let rendered = psdacc_engine::json::parse(&line).ok().and_then(|v| {
                    let f = v.get(field)?;
                    Some(if as_json { f.to_json_line() } else { f.as_str()?.to_string() })
                });
                match rendered {
                    Some(text) => {
                        if workers.len() > 1 {
                            println!("# daemon {worker}");
                        }
                        print!("{text}");
                        if as_json {
                            println!();
                        }
                    }
                    None => {
                        eprintln!("{worker}: unexpected metrics reply: {line}");
                        ok = false;
                    }
                }
            }
            Err(e) => {
                eprintln!("{worker}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_control(args: &[String], kind: &str) -> ExitCode {
    let flags = match parse_flags(args, &["--workers"]) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let workers = match parse_workers(&flags) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for worker in &workers {
        match client::request_control(worker, kind) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("{worker}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
