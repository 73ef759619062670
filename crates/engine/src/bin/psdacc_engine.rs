//! `psdacc-engine` — the batch-evaluation CLI.
//!
//! ```text
//! psdacc-engine run --spec batch.txt [--graph NAME=FILE]... [--threads N]
//! psdacc-engine demo [--jobs N] [--threads N]        # built-in demo batch
//! psdacc-engine scenarios                            # list the registry
//! psdacc-engine budget-report [--input FILE] [--top K] [--json]
//! ```
//!
//! Results stream to stdout as JSON lines (one object per job, in job
//! order); the run summary goes to stderr so pipelines stay clean.
//! `--graph NAME=FILE` (repeatable) registers a declarative `GraphSpec`
//! JSON file as a named scenario before the spec is parsed, so spec lines
//! may reference it as `scenario NAME`; inline `scenario graph={...}`
//! lines need no registration.

use std::io::Write as _;
use std::process::ExitCode;

use psdacc_engine::{demo_spec, json, BatchSpec, Engine, ScenarioRegistry};
use psdacc_obs::BudgetReport;

const USAGE: &str = "usage:
  psdacc-engine run --spec FILE [--graph NAME=FILE]... [--trace-dir DIR] [--threads N]
  psdacc-engine demo [--jobs N] [--threads N]
  psdacc-engine scenarios
  psdacc-engine budget-report [--input FILE] [--top K] [--json]
                                      render `kind:budget` result lines
                                      (stdin by default) as ranked
                                      noise-budget reports
  psdacc-engine profile --spec FILE [--graph NAME=FILE]... [--trace-dir DIR]
                        [--threads N] [--json] [--folded PATH]
                                      run the batch twice (unprofiled,
                                      then under the hierarchical
                                      profiler), assert the results are
                                      bit-identical, and print the ranked
                                      hotspot table (or the profile JSON
                                      line with --json); --folded writes
                                      flamegraph folded stacks to PATH

--trace-dir DIR resolves `\"trace\": \"<hash>\"` references in measured
nodes of --graph files to inline samples from a content-addressed trace
store (client-side: daemons only ever see inline samples).

Batch spec format (line-oriented; `#` comments):
  scenario <name> [key=value ...]     declare a system (repeatable; integer
                                      params sweep with `0..146` / `0,3,7`,
                                      multi-valued params cross-product)
  scenario graph={...}                declare an inline GraphSpec (JSON:
                                      nodes/outputs; see README)
  batch [npsd=256] [bits=12|8..14|8,10] [methods=psd,agnostic,flat] [rounding=truncate|nearest]
  refine budget=<power> [npsd=..] [start=16] [min=2] [rounding=..]
  min-uniform budget=<power> [npsd=..] [min=2] [max=32] [rounding=..]
  budget [npsd=..] [bits=12|8,10] [rounding=..]
  simulate [npsd=..] [bits=..] [samples=20000] [nfft=256] [seed=..] [trials=1] [rounding=..]
  threads <N>                         default worker count for the spec
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("demo") => cmd_demo(&args[1..]),
        Some("budget-report") => cmd_budget_report(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("scenarios") => {
            println!("{:<14} {:<8} {:<34} description", "name", "provider", "parameters");
            for family in ScenarioRegistry::new().families() {
                println!(
                    "{:<14} {:<8} {:<34} {}",
                    family.name,
                    family.provider,
                    family.params_summary(),
                    family.description
                );
            }
            println!(
                "{:<14} {:<8} {:<34} inline declarative GraphSpec (JSON nodes/outputs)",
                "graph={...}", "dynamic", "(self-describing)"
            );
            ExitCode::SUCCESS
        }
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

/// Parses `--flag value` pairs, rejecting anything not in `allowed` so a
/// misspelled flag errors instead of silently running with defaults.
/// `--graph` is repeatable; its values are collected separately.
fn parse_flags(
    args: &[String],
    allowed: &[&str],
) -> Result<(std::collections::BTreeMap<String, String>, Vec<String>), String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut graphs = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if !allowed.contains(&flag) {
            return Err(format!("unknown argument `{flag}` (allowed: {})", allowed.join(", ")));
        }
        let value = args.get(i + 1).ok_or_else(|| format!("missing value for {flag}"))?;
        if flag == "--graph" {
            graphs.push(value.clone());
        } else {
            flags.insert(flag.to_string(), value.clone());
        }
        i += 2;
    }
    Ok((flags, graphs))
}

fn parse_positive(
    flags: &std::collections::BTreeMap<String, String>,
    flag: &str,
) -> Result<Option<usize>, String> {
    match flags.get(flag) {
        None => Ok(None),
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .map(Some)
            .ok_or_else(|| format!("{flag} must be a positive integer, got `{v}`")),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Opens the `--trace-dir` store when the flag is present.
fn open_trace_store(
    flags: &std::collections::BTreeMap<String, String>,
) -> Result<Option<psdacc_estim::TraceStore>, String> {
    match flags.get("--trace-dir") {
        None => Ok(None),
        Some(dir) => psdacc_estim::TraceStore::open(dir)
            .map(Some)
            .map_err(|e| format!("--trace-dir {dir}: {e}")),
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let (flags, graphs) =
        match parse_flags(args, &["--spec", "--threads", "--graph", "--trace-dir"]) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
    let Some(spec_path) = flags.get("--spec") else {
        eprintln!("run needs --spec FILE\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let traces = match open_trace_store(&flags) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let registry = ScenarioRegistry::new();
    if let Err(e) = registry.define_graph_files_resolved(&graphs, traces.as_ref()) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let spec = match BatchSpec::parse_with(&text, &registry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let threads = match parse_positive(&flags, "--threads") {
        Ok(t) => t.or(spec.threads).unwrap_or_else(default_threads),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    execute(spec, threads)
}

/// Renders `kind:"budget"` result lines (from `--input FILE` or stdin)
/// as noise-budget reports: the ranked human table (`--top K` rows,
/// default 10) or the canonical `budget_report` JSON line (`--json`).
/// Non-budget result lines pass through silently, so the whole output
/// of a mixed batch can be piped in unfiltered.
fn cmd_budget_report(args: &[String]) -> ExitCode {
    let mut input: Option<&str> = None;
    let mut top = 10usize;
    let mut json_out = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json_out = true,
            flag @ ("--input" | "--top") => {
                i += 1;
                let Some(value) = args.get(i) else {
                    eprintln!("missing value for {flag}\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                if flag == "--input" {
                    input = Some(value);
                } else {
                    match value.parse::<usize>() {
                        Ok(n) if n >= 1 => top = n,
                        _ => {
                            eprintln!("--top must be a positive integer, got `{value}`");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
            other => {
                eprintln!("unknown argument `{other}` (allowed: --input, --top, --json)\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let text = match input {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            use std::io::Read as _;
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("cannot read stdin: {e}");
                return ExitCode::FAILURE;
            }
            buf
        }
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut rendered = 0usize;
    for (index, line) in text.lines().enumerate() {
        let line = line.trim();
        let is_budget = json::parse(line)
            .ok()
            .and_then(|v| v.get("kind").and_then(json::Json::as_str).map(str::to_string));
        if is_budget.as_deref() != Some("budget") {
            continue;
        }
        match BudgetReport::from_result_line(line) {
            Ok(report) => {
                let written = if json_out {
                    writeln!(out, "{}", report.to_json_line())
                } else {
                    let sep = if rendered > 0 { "\n" } else { "" };
                    write!(out, "{sep}{}", report.to_text(top))
                };
                if written.is_err() {
                    // Broken pipe (e.g. `| head`): everything shown so far
                    // is valid; stop quietly.
                    return ExitCode::SUCCESS;
                }
                rendered += 1;
            }
            Err(e) => {
                eprintln!("line {}: {e}", index + 1);
                return ExitCode::FAILURE;
            }
        }
    }
    if rendered == 0 {
        eprintln!(
            "no budget result lines in the input (run a spec with a `budget` directive first)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Runs the batch twice — once unprofiled, once under a freshly installed
/// hierarchical profiler (each on its own engine, so preprocessing is not
/// hidden by a warm cache) — asserts the stable result fields are
/// bit-identical, and renders the profile. Results stream nowhere: the
/// profile itself is the stdout payload.
fn cmd_profile(args: &[String]) -> ExitCode {
    let mut spec_path: Option<&str> = None;
    let mut graphs: Vec<String> = Vec::new();
    let mut trace_dir: Option<&str> = None;
    let mut threads_flag: Option<usize> = None;
    let mut json_out = false;
    let mut folded: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json_out = true,
            flag @ ("--spec" | "--graph" | "--trace-dir" | "--threads" | "--folded") => {
                i += 1;
                let Some(value) = args.get(i) else {
                    eprintln!("missing value for {flag}\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                match flag {
                    "--spec" => spec_path = Some(value),
                    "--graph" => graphs.push(value.clone()),
                    "--trace-dir" => trace_dir = Some(value),
                    "--folded" => folded = Some(value),
                    _ => match value.parse::<usize>() {
                        Ok(n) if n >= 1 => threads_flag = Some(n),
                        _ => {
                            eprintln!("--threads must be a positive integer, got `{value}`");
                            return ExitCode::FAILURE;
                        }
                    },
                }
            }
            other => {
                eprintln!(
                    "unknown argument `{other}` (allowed: --spec, --graph, --trace-dir, --threads, --json, --folded)\n{USAGE}"
                );
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let Some(spec_path) = spec_path else {
        eprintln!("profile needs --spec FILE\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let traces = match trace_dir.map(psdacc_estim::TraceStore::open).transpose() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("--trace-dir: {e}");
            return ExitCode::FAILURE;
        }
    };
    let registry = ScenarioRegistry::new();
    if let Err(e) = registry.define_graph_files_resolved(&graphs, traces.as_ref()) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let spec = match BatchSpec::parse_with(&text, &registry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let threads = threads_flag.or(spec.threads).unwrap_or_else(default_threads);

    // Pass 1: unprofiled reference (the profiler global is still empty,
    // so every frame call is one relaxed load).
    let reference = collect_lines(&spec, threads);
    // Pass 2: same batch on a fresh engine under the profiler. Install is
    // first-wins and process-global; `take()` clears anything a prior
    // installer already recorded.
    psdacc_obs::profile::install(std::sync::Arc::new(psdacc_obs::Profiler::new()));
    let profiler = psdacc_obs::profile::profiler().expect("profiler installed above");
    let _ = profiler.take();
    let profiled = collect_lines(&spec, threads);

    // The standing observability invariant: profiling is behavior-neutral,
    // so everything except the run-dependent timing fields is identical.
    if reference.len() != profiled.len() {
        eprintln!(
            "profiled run produced {} results, unprofiled produced {} — profiling changed behavior",
            profiled.len(),
            reference.len()
        );
        return ExitCode::FAILURE;
    }
    for (want, got) in reference.iter().zip(&profiled) {
        if stable_fields(want) != stable_fields(got) {
            eprintln!(
                "profiled result differs from unprofiled — profiling changed behavior\n\
                 unprofiled: {want}\n  profiled: {got}"
            );
            return ExitCode::FAILURE;
        }
    }
    eprintln!("profiled and unprofiled runs bit-identical across {} result lines", reference.len());

    let snapshot = profiler.take();
    if snapshot.is_empty() {
        eprintln!("no frames recorded — was the spec empty?");
        return ExitCode::FAILURE;
    }
    if let Some(path) = folded {
        if let Err(e) = std::fs::write(path, snapshot.to_folded()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("folded stacks written to {path}");
    }
    if json_out {
        println!("{}", snapshot.to_json_line());
    } else {
        print!("{}", snapshot.to_text());
    }
    ExitCode::SUCCESS
}

/// Runs the batch on a fresh engine and returns the result lines in job
/// order (no streaming — the profile subcommand owns stdout).
fn collect_lines(spec: &BatchSpec, threads: usize) -> Vec<String> {
    let engine = Engine::new(threads);
    let report = engine.run(spec.jobs());
    report.results.iter().map(|r| r.to_json_line()).collect()
}

/// A result line's stable fields (`psdacc_engine::stable_fields`); an
/// unparseable line compares by its raw text.
fn stable_fields(line: &str) -> Vec<(String, json::Json)> {
    psdacc_engine::stable_fields(line)
        .unwrap_or_else(|_| vec![("unparseable".to_string(), json::Json::Str(line.to_string()))])
}

fn cmd_demo(args: &[String]) -> ExitCode {
    let (flags, _) = match parse_flags(args, &["--jobs", "--threads"]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (jobs, threads) =
        match (parse_positive(&flags, "--jobs"), parse_positive(&flags, "--threads")) {
            (Ok(j), Ok(t)) => (j.unwrap_or(120), t.unwrap_or_else(|| default_threads().max(4))),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
    execute(demo_spec(jobs), threads)
}

fn execute(spec: BatchSpec, threads: usize) -> ExitCode {
    let engine = Engine::new(threads);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    // Jobs complete out of order; a reorder buffer keeps stdout in job
    // order while still streaming each line as soon as its turn is ready.
    let mut pending: std::collections::BTreeMap<usize, String> = std::collections::BTreeMap::new();
    let mut next_to_print = 0usize;
    let mut pipe_closed = false;
    let report = engine.run_streaming(spec.jobs(), |result| {
        if pipe_closed {
            return;
        }
        pending.insert(result.job, result.to_json_line());
        while let Some(line) = pending.remove(&next_to_print) {
            if writeln!(out, "{line}").is_err() {
                // Broken pipe (e.g. `| head`): stop printing, let the
                // in-flight batch finish.
                pipe_closed = true;
                pending.clear();
                return;
            }
            next_to_print += 1;
        }
    });
    eprintln!("{}", report.summary());
    if report.failures().count() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
