//! `psdbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path psdbench/Cargo.toml -- \
//!     --workload explore|scan|fleet --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path psdbench/Cargo.toml -- control --seed N --seconds S
//! cargo run --release --manifest-path psdbench/Cargo.toml -- golden > psdbench/golden/scan_powers.tsv
//! cargo run --release --manifest-path psdbench/Cargo.toml -- spec --workload W --seed N --seconds 1
//! ```
//!
//! A plain run (`--trace 0`) drives closed-loop batches for `S` seconds
//! with tracing off, split across several fresh measuring processes that
//! each set the workload up once, and prints the end-to-end metrics. A traced run (`--trace 1`) measures the same
//! workload untraced and traced, probes every layer through its public
//! API, and prints the per-layer metrics, the cost ladder and the tracing
//! overhead. Both check every output; the last stdout line is one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`), and any failed
//! check makes the exit code non-zero.
//!
//! `control` is the negative control of the fleet signals: a chaos delay
//! on one daemon must lower `fleet` throughput and raise steals while
//! `explore` stays put. `golden` re-captures the `scan` golden powers;
//! `spec` prints a workload's generated batch spec (`psdacc-engine run
//! --spec` accepts it).

mod check;
mod gen;
mod layers;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gen::Workload;
use stats::median;
use trace::Recorder;
use workload::{expand, measure, BatchRecord, Fleet, Reference, State, WORKERS};

/// Measuring processes of a plain run; each sets the workload up once,
/// so `setup_s` is the median of this many set-ups.
const CHILDREN: usize = 5;
/// Fewest timed batches per measuring process, so the pooled tail
/// percentile always has ten batches beyond it.
const MIN_BATCHES_PER_CHILD: usize = 4;
/// Fewest timed batches per measurement of a traced run or control leg.
const MIN_BATCHES: usize = 20;
/// Per-unit delay the negative control injects on one fleet daemon.
const CONTROL_CHAOS: Duration = Duration::from_millis(5);
/// Smallest relative `fleet` throughput drop the control counts as
/// firing (above the workload's run-to-run spread), and the largest
/// relative `explore` movement it accepts as "unmoved".
const CONTROL_MARGIN: f64 = 0.10;

/// End-to-end metrics of a plain run, in `BENCHMARK.json` order.
const END_TO_END: [&str; 5] =
    ["units_per_s", "batch_ms_p50", "batch_ms_tail", "setup_s", "peak_rss_mb"];
/// Per-layer metrics of a traced run, in `BENCHMARK.json` order.
const PER_LAYER: [&str; 34] = [
    "engine.spec_parse_us",
    "engine.scenario_build_us.bank",
    "engine.scenario_build_us.random_sfg",
    "engine.scenario_build_us.multirate",
    "engine.scenario_build_us.measured",
    "engine.job_us_p50",
    "engine.pool_busy_frac",
    "engine.pool_steals",
    "engine.cache_builds",
    "engine.cache_hits",
    "sfg.preprocess_us.bank",
    "sfg.preprocess_us.random_sfg_n16",
    "sfg.preprocess_us.random_sfg_n32",
    "sfg.preprocess_us.random_sfg_n64",
    "sfg.preprocess_us.multirate",
    "core.evaluator_new_us",
    "core.estimate_us.psd",
    "core.estimate_us.agnostic",
    "core.estimate_us.flat",
    "core.budget_us",
    "core.refine_ms",
    "core.min_uniform_ms",
    "estim.welch_us",
    "estim.modulate_us",
    "serve.unit_rtt_us_p50",
    "serve.unit_rtt_us_p99",
    "serve.overhead_us_p50",
    "serve.wire_bytes_per_unit",
    "sched.handshake_ms",
    "sched.steals",
    "sched.failed",
    "sched.daemon_share_max",
    "trace.overhead_frac",
    "error_rate",
];

/// Command-line arguments of a benchmark run.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.unwrap_or(Workload::Explore),
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("golden") => check::capture_golden().map(|text| {
            print!("{text}");
            true
        }),
        Some("control") => parse_args(&argv[1..]).and_then(|a| control(&a)),
        Some("child") => parse_args(&argv[1..]).and_then(|a| child(&a)),
        Some("spec") => parse_args(&argv[1..]).map(|a| {
            print!("{}", gen::spec_text(a.workload, a.seed));
            true
        }),
        _ => parse_args(&argv).and_then(|a| run(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("psdbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One named metric value.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// The commit the checkout was taken from, when it is a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run context printed with every result: scaling is claimed only
/// where the host has the cores.
fn context_line(args: &Args, mode: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (daemons, workers, connections) = match args.workload {
        Workload::Fleet => (WORKERS, 1, WORKERS),
        Workload::Explore | Workload::Scan => (0, WORKERS, 0),
    };
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        r#"{{"kind":"context","mode":"{mode}","workload":"{}","seed":{},"seconds":{},"nproc":{nproc},"daemons":{daemons},"workers_per_engine":{workers},"client_threads":1,"connections":{connections},"profile":"{profile}","commit":"{}"}}"#,
        args.workload.name(),
        args.seed,
        args.seconds,
        commit()
    )
}

/// Units per second of a measurement: units per batch over the median
/// batch turnaround — the closed loop's typical rate, which a burst of
/// contention from outside the benchmark cannot drag the way it drags a
/// mean.
fn units_per_s(batches: &[BatchRecord]) -> f64 {
    let units: usize = batches.iter().map(|b| b.units).sum();
    let per_batch = units as f64 / batches.len() as f64;
    per_batch / median(&batches.iter().map(|b| b.seconds).collect::<Vec<_>>())
}

fn turnarounds_ms(batches: &[BatchRecord]) -> Vec<f64> {
    batches.iter().map(|b| b.seconds * 1e3).collect()
}

/// Prints the metrics and the result line; `Ok(correct)`. The metric
/// names must be exactly `expected`, the run mode's `BENCHMARK.json` list.
fn report(
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
    expected: &[&str],
) -> Result<bool, String> {
    if !metrics.iter().map(|m| m.name.as_str()).eq(expected.iter().copied()) {
        return Err("metric list differs from BENCHMARK.json".to_string());
    }
    let mut body = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
        body.push(format!(r#""{}":{{"value":{},"unit":"{}"}}"#, m.name, m.value, m.unit));
    }
    let correct = failed == 0 && attempted > 0;
    println!("{failed} of {attempted} units failed a check");
    println!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        body.join(",")
    );
    Ok(correct)
}

fn run(args: &Args) -> Result<bool, String> {
    println!("{}", context_line(args, if args.trace { "traced" } else { "plain" }));
    if args.trace {
        let spec = gen::spec_text(args.workload, args.seed);
        traced(args, &spec, &Reference::for_workload(args.workload, &spec)?)
    } else {
        plain(args)
    }
}

/// The untraced run: end-to-end metrics only, measured in [`CHILDREN`]
/// fresh processes one after another, each for an equal share of the
/// run, with their batches pooled. On a 2-vCPU 2.1 GHz x86-64 virtual
/// machine a process's address-space layout moved `scan` batch times by
/// up to a fifth from one process to the next (runs with layout
/// randomization switched off sat consistently at the slow end), so one
/// process per run would measure its layout more than the code.
fn plain(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let (mut setup_s, mut seconds, mut calm, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0usize, 0usize);
    for _ in 0..CHILDREN {
        let out = std::process::Command::new(&exe)
            .args(["child", "--workload", args.workload.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / CHILDREN as f64).to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("measuring process: {e}"))?;
        if !out.status.success() {
            return Err(format!("measuring process failed: {}", out.status));
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let f: Vec<f64> = line.split(' ').skip(1).filter_map(|v| v.parse().ok()).collect();
            match (line.split(' ').next(), &f[..]) {
                (Some("setup"), &[s, mb]) => {
                    setup_s.push(s);
                    rss.push(mb);
                }
                (Some("batch"), &[s, units, bad, stolen]) => {
                    seconds.push(s);
                    if stolen == 0.0 {
                        calm.push(s);
                    }
                    attempted += units as usize;
                    failed += bad as usize;
                }
                _ => return Err(format!("measuring process printed `{line}`")),
            }
        }
    }
    // Batches the hypervisor stole CPU time from measure the neighbours,
    // not the code: timings use the others while they are the majority.
    let timed = if 2 * calm.len() >= seconds.len() { &calm } else { &seconds };
    println!(
        "{} of {} batches overlapped host CPU steal; timings use {} batches",
        seconds.len() - calm.len(),
        seconds.len(),
        timed.len()
    );
    let ms: Vec<f64> = timed.iter().map(|s| s * 1e3).collect();
    let tail = stats::tail(&ms).ok_or("too few batches for a tail percentile")?;
    println!(
        "batch_ms_tail is p{:.1} of {} batches ({} beyond); setup_s is the median of {} set-ups; \
         peak_rss_mb is the median over measuring processes of their peak resident set at the \
         end of set-up (warm-up batch included)",
        tail.percentile,
        tail.samples,
        stats::TAIL_BEYOND,
        setup_s.len()
    );
    let metrics = [
        metric(
            "units_per_s",
            attempted as f64 / seconds.len() as f64 / (median(&ms) / 1e3),
            "units/s",
        ),
        metric("batch_ms_p50", median(&ms), "ms"),
        metric("batch_ms_tail", tail.value, "ms"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mb", median(&rss), "MiB"),
    ];
    println!("error_rate {} ratio", failed as f64 / attempted.max(1) as f64);
    report(attempted, failed, &metrics, &END_TO_END)
}

/// One measuring process of a plain run: sets the workload up, drives
/// batches for `--seconds`, and prints one `setup` line (seconds, peak
/// RSS MiB so far) and one `batch` line per batch (seconds, units,
/// failed units, stolen flag) for the parent to pool. Peak RSS is read
/// after the warm-up batch: later batches of `scan` creep it upward with
/// allocator fragmentation at a rate that differed by a third between
/// otherwise identical runs.
fn child(args: &Args) -> Result<bool, String> {
    let spec = gen::spec_text(args.workload, args.seed);
    let reference = Reference::for_workload(args.workload, &spec)?;
    let t0 = Instant::now();
    let state = State::setup(args.workload, &spec, Duration::ZERO)?;
    println!("setup {} {}", t0.elapsed().as_secs_f64(), workload::peak_rss_mb()?);
    let batches = measure(&state, &spec, &reference, args.seconds, MIN_BATCHES_PER_CHILD, None)?;
    state.teardown();
    for b in &batches {
        println!("batch {} {} {} {}", b.seconds, b.units, b.failed, u8::from(b.stolen));
    }
    Ok(true)
}

/// Median of `f` over the batches that report it; 0 when none do.
fn median_of(batches: &[BatchRecord], f: impl Fn(&BatchRecord) -> Option<f64>) -> f64 {
    let v: Vec<f64> = batches.iter().filter_map(f).collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// Median over pool spans of busy time (their `run_job` children) over
/// pool wall time x workers.
fn pool_busy_frac(rec: &Recorder) -> f64 {
    let spans = rec.spans();
    let fracs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "engine.pool::execute_observed")
        .map(|pool| {
            let busy: u64 = spans
                .iter()
                .filter(|s| s.parent == Some(pool.id) && s.name == "engine.run_job")
                .map(trace::Span::dur_ns)
                .sum();
            busy as f64 / (pool.dur_ns() as f64 * WORKERS as f64)
        })
        .collect();
    if fracs.is_empty() {
        0.0
    } else {
        median(&fracs)
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The traced run: per-layer metrics, the ladder, tracing overhead.
fn traced(args: &Args, spec: &str, reference: &Reference) -> Result<bool, String> {
    let (rec_work, rec_warm, rec_probe) =
        (Recorder::default(), Recorder::default(), Recorder::default());
    let segment = (args.seconds * 0.3).max(1.0);
    let state = State::setup(args.workload, spec, Duration::ZERO)?;
    let plain_batches = measure(&state, spec, reference, segment, MIN_BATCHES, None)?;
    let traced_batches = measure(&state, spec, reference, segment, MIN_BATCHES, Some(&rec_work))?;
    let mut attempted: usize = plain_batches.iter().chain(&traced_batches).map(|b| b.units).sum();
    let mut failed: usize = plain_batches.iter().chain(&traced_batches).map(|b| b.failed).sum();
    let (ups_plain, ups_traced) = (units_per_s(&plain_batches), units_per_s(&traced_batches));

    // Warm-engine numbers always describe explore units; the explore
    // workload's own traced batches are those units.
    let explore_spec = gen::explore_spec(args.seed);
    let explore_jobs = expand(&explore_spec, None, None)?;
    let explore_ref = Reference::for_workload(Workload::Explore, &explore_spec)?;
    let Reference::Lines(explore_lines) = &explore_ref else {
        unreachable!("explore checks lines")
    };
    let warm_batches = if args.workload == Workload::Explore {
        Vec::new()
    } else {
        let warm = State::setup(Workload::Explore, &explore_spec, Duration::ZERO)?;
        let b = measure(&warm, &explore_spec, &explore_ref, 0.0, 5, Some(&rec_warm))?;
        warm.teardown();
        b
    };
    attempted += warm_batches.iter().map(|b| b.units).sum::<usize>();
    failed += warm_batches.iter().map(|b| b.failed).sum::<usize>();
    let (engine_rec, engine_batches) = match args.workload {
        Workload::Explore | Workload::Scan => (&rec_work, &traced_batches),
        Workload::Fleet => (&rec_warm, &warm_batches),
    };
    let job_rec = if args.workload == Workload::Explore { &rec_work } else { &rec_warm };
    let job_us = job_rec.durations_us("engine.run_job", None);

    // Spec expansion, scenario build / preprocess / evaluator set-up,
    // core calls, estimators.
    for _ in 0..20 {
        rec_probe.span("engine.spec_expand", "", None, None, |id| {
            expand(spec, Some(&rec_probe), Some(id))
        })?;
    }
    let evaluator_self_us = layers::probe_scan_build(&rec_probe, &gen::scan_spec(args.seed), 2)?;
    let (core_passes, explore_pre_us) = layers::probe_core(&rec_probe, &explore_jobs, 3)?;
    let (welch_us, modulate_us) = layers::probe_estim(&rec_probe, 50)?;

    // Transport and coordinator: the workload's own daemons for fleet,
    // a fresh warm pair running the explore batch otherwise.
    let probe_state = match state {
        State::Fleet(_) => None,
        _ => Some(State::setup(Workload::Fleet, &explore_spec, Duration::ZERO)?),
    };
    let fleet_state = probe_state.as_ref().unwrap_or(&state);
    let State::Fleet(fleet) = fleet_state else { unreachable!("a fleet state on every path") };
    let addrs = fleet.addrs();
    let serve =
        layers::probe_serve(&rec_probe, &addrs[addrs.len() - 1], &explore_jobs, explore_lines)?;
    attempted += explore_jobs.len();
    failed += serve.failed;
    let mut handshake_ms = Vec::new();
    for _ in 0..10 {
        let (out, us) =
            layers::timed(&rec_probe, "sched.run_fleet", "one_unit", None, None, || {
                fleet.run(&explore_jobs[..1])
            });
        let out = out?;
        attempted += 1;
        failed += out.stats.failed;
        handshake_ms.push(us / 1e3);
    }
    let probe_fleet_batches = match &probe_state {
        Some(p) => measure(p, &explore_spec, &explore_ref, 0.0, 5, Some(&rec_probe))?,
        None => Vec::new(),
    };
    attempted += probe_fleet_batches.iter().map(|r| r.units).sum::<usize>();
    failed += probe_fleet_batches.iter().map(|r| r.failed).sum::<usize>();
    let fleet_batches =
        if args.workload == Workload::Fleet { &traced_batches } else { &probe_fleet_batches };
    if let Some(p) = probe_state {
        p.teardown();
    }
    state.teardown();

    let fleet_stats: Vec<&psdacc_sched::FleetStats> =
        fleet_batches.iter().filter_map(|b| b.fleet.as_ref()).collect();
    let share_max: Vec<f64> = fleet_stats
        .iter()
        .map(|s| {
            let most = s.daemons.iter().map(|d| d.served).max().unwrap_or(0);
            most as f64 / s.units.max(1) as f64
        })
        .collect();
    let med = |name: &str, tag: Option<&str>| median(&rec_probe.durations_us(name, tag));
    let job_p50 = median(&job_us);
    let rtt_p50 = median(&serve.rtt_us);
    let core_pass =
        |f: fn(&layers::CorePass) -> f64| median(&core_passes.iter().map(f).collect::<Vec<_>>());
    let metrics = vec![
        metric("engine.spec_parse_us", med("engine.spec_expand", None), "us"),
        metric("engine.scenario_build_us.bank", med("engine.Scenario::build", Some("bank")), "us"),
        metric(
            "engine.scenario_build_us.random_sfg",
            med("engine.Scenario::build", Some("random_sfg")),
            "us",
        ),
        metric(
            "engine.scenario_build_us.multirate",
            med("engine.Scenario::build", Some("multirate")),
            "us",
        ),
        metric(
            "engine.scenario_build_us.measured",
            med("engine.Scenario::build", Some("measured")),
            "us",
        ),
        metric("engine.job_us_p50", job_p50, "us"),
        metric("engine.pool_busy_frac", pool_busy_frac(engine_rec), "ratio"),
        metric(
            "engine.pool_steals",
            median_of(engine_batches, |b| b.pool_steals.map(|s| s as f64)),
            "count",
        ),
        metric(
            "engine.cache_builds",
            median_of(engine_batches, |b| b.cache.map(|c| c.0 as f64)),
            "count",
        ),
        metric(
            "engine.cache_hits",
            median_of(engine_batches, |b| b.cache.map(|c| c.1 as f64)),
            "count",
        ),
        metric("sfg.preprocess_us.bank", med("sfg.freq::preprocess", Some("bank")), "us"),
        metric(
            "sfg.preprocess_us.random_sfg_n16",
            med("sfg.freq::preprocess", Some("random_sfg_n16")),
            "us",
        ),
        metric(
            "sfg.preprocess_us.random_sfg_n32",
            med("sfg.freq::preprocess", Some("random_sfg_n32")),
            "us",
        ),
        metric(
            "sfg.preprocess_us.random_sfg_n64",
            med("sfg.freq::preprocess", Some("random_sfg_n64")),
            "us",
        ),
        metric("sfg.preprocess_us.multirate", med("sfg.freq::preprocess", Some("multirate")), "us"),
        metric("core.evaluator_new_us", mean(&evaluator_self_us), "us"),
        metric("core.estimate_us.psd", med("core.estimate_psd", None), "us"),
        metric("core.estimate_us.agnostic", med("core.estimate_agnostic", None), "us"),
        metric("core.estimate_us.flat", med("core.estimate_flat", None), "us"),
        metric("core.budget_us", med("core.evaluate_budget", None), "us"),
        metric("core.refine_ms", core_pass(|p| p.refine_us) / 1e3, "ms"),
        metric("core.min_uniform_ms", core_pass(|p| p.min_uniform_us) / 1e3, "ms"),
        metric("estim.welch_us", welch_us, "us"),
        metric("estim.modulate_us", modulate_us, "us"),
        metric("serve.unit_rtt_us_p50", rtt_p50, "us"),
        metric(
            "serve.unit_rtt_us_p99",
            stats::nearest_rank(&stats::sorted(&serve.rtt_us), 99.0),
            "us",
        ),
        metric("serve.overhead_us_p50", rtt_p50 - job_p50, "us"),
        metric("serve.wire_bytes_per_unit", serve.bytes_per_unit, "bytes"),
        metric("sched.handshake_ms", median(&handshake_ms), "ms"),
        metric(
            "sched.steals",
            median(&fleet_stats.iter().map(|s| s.steals as f64).collect::<Vec<_>>()),
            "count",
        ),
        metric("sched.failed", fleet_stats.iter().map(|s| s.failed as f64).sum(), "count"),
        metric("sched.daemon_share_max", median(&share_max), "ratio"),
        metric("trace.overhead_frac", (ups_plain - ups_traced) / ups_plain, "ratio"),
        metric("error_rate", failed as f64 / attempted.max(1) as f64, "ratio"),
    ];

    // The ladder: what one explore unit costs at each layer, and what
    // each layer adds over the one below.
    let units = explore_jobs.len() as f64;
    let occupancy = |b: &[BatchRecord]| median(&turnarounds_ms(b)) * 1e3 * WORKERS as f64;
    let work_units = plain_batches.first().map_or(1, |b| b.units) as f64;
    let rungs = [
        (
            "sfg",
            explore_pre_us / units,
            "explore preprocessing / batch units (paid once, in set-up)",
        ),
        ("core", core_pass(|p| p.total_us) / units, "direct core calls, mean per unit"),
        ("engine", mean(&job_us), "run_job on a warm cache, mean"),
        ("serve", mean(&serve.rtt_us), "evaluate_units roundtrip, one unit in flight, mean"),
        ("sched", occupancy(fleet_batches) / units, "fleet batch p50 x 2 daemons / units"),
    ];
    println!("ladder (us per explore unit; each rung over the rung below):");
    let mut below: Option<f64> = None;
    for (rung, us, basis) in rungs {
        let over = below.map_or("-".to_string(), |b| format!("{:+.2}", us - b));
        println!("  {rung:<11} {us:>12.2} {over:>12}  {basis}");
        below = Some(us);
    }
    // End to end sits on the engine rung locally and on the sched rung
    // through the fleet; a scan unit also pays its scenario's build.
    let (e2e, over) = (
        occupancy(&plain_batches) / work_units,
        rungs[if args.workload == Workload::Fleet { 4 } else { 2 }],
    );
    println!(
        "  {:<11} {e2e:>12.2} {:>12}  {} batch p50 x 2 workers / units, over {}",
        "end-to-end",
        format!("{:+.2}", e2e - over.1),
        args.workload.name(),
        over.0
    );
    println!("self time of the workload's traced batches (top 10):");
    for (name, calls, total, own) in trace::self_time_table(&rec_work.spans()).into_iter().take(10)
    {
        println!(
            "  {name:<34} {calls:>8} calls {:>12.1} ms total {:>12.1} ms self",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let path = trace_path(args);
    let mut all = Vec::new();
    for (phase, rec) in
        [("workload", &rec_work), ("engine_warm", &rec_warm), ("probes", &rec_probe)]
    {
        all.push((phase, rec.spans()));
    }
    trace::write_jsonl(&path, &context_line(args, "traced"), &all)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    report(attempted, failed, &metrics, &PER_LAYER)
}

/// Where a traced run writes its spans: beside the benchmark binary,
/// inside the build directory.
fn trace_path(args: &Args) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("psdbench-traces")))
        .unwrap_or_else(|| PathBuf::from("psdbench-traces"));
    dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed))
}

/// Throughput and median steals of one control leg.
fn control_leg(
    workload: Workload,
    seed: u64,
    seconds: f64,
    chaos: Duration,
) -> Result<(f64, f64, usize), String> {
    let spec = gen::spec_text(workload, seed);
    let reference = Reference::for_workload(workload, &spec)?;
    let state = State::setup(workload, &spec, chaos)?;
    let batches = measure(&state, &spec, &reference, seconds, MIN_BATCHES, None)?;
    state.teardown();
    let steals = median_of(&batches, |b| b.fleet.as_ref().map(|s| s.steals as f64));
    Ok((units_per_s(&batches), steals, batches.iter().map(|b| b.failed).sum()))
}

/// The negative control: a chaos delay on one fleet daemon must lower
/// `fleet` throughput and raise steals, and must not move `explore`.
fn control(args: &Args) -> Result<bool, String> {
    println!("{}", context_line(args, "control"));
    let (s, t) = (args.seed, args.seconds);
    let (explore_a, _, fa) = control_leg(Workload::Explore, s, t, Duration::ZERO)?;
    let (fleet_clean, steals_clean, fb) = control_leg(Workload::Fleet, s, t, Duration::ZERO)?;
    let (fleet_chaos, steals_chaos, fc) = control_leg(Workload::Fleet, s, t, CONTROL_CHAOS)?;
    // Explore again while a chaotic fleet is up: the knob must not leak.
    let idle = Fleet::start(&expand(&gen::explore_spec(s), None, None)?, CONTROL_CHAOS)?;
    let (explore_b, _, fd) = control_leg(Workload::Explore, s, t, Duration::ZERO)?;
    idle.shutdown();
    let fires =
        fleet_chaos < (1.0 - CONTROL_MARGIN) * fleet_clean && steals_chaos > 2.0 * steals_clean;
    let drift = explore_b / explore_a - 1.0;
    let neutral = drift.abs() <= CONTROL_MARGIN;
    println!("fleet units_per_s   clean {fleet_clean:.1}  chaos {fleet_chaos:.1}");
    println!("fleet steals/batch  clean {steals_clean}  chaos {steals_chaos}");
    println!(
        "explore units_per_s before {explore_a:.1}  with chaos daemon up {explore_b:.1} ({:+.1}%)",
        drift * 100.0
    );
    let failed = fa + fb + fc + fd;
    println!(
        r#"{{"kind":"control","chaos_unit_delay_ms":{},"fires":{fires},"explore_unmoved":{neutral},"failed":{failed}}}"#,
        CONTROL_CHAOS.as_millis()
    );
    Ok(fires && neutral && failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdacc_engine::json::{self, Json};

    fn names(doc: &Json, key: &str) -> Vec<String> {
        let list = doc.get(key).and_then(Json::as_array).expect("metric list");
        list.iter().map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string()).collect()
    }

    #[test]
    fn metric_lists_match_the_benchmark_definition() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(names(&doc, "end_to_end"), END_TO_END);
        assert_eq!(names(&doc, "per_layer"), PER_LAYER);
        let workloads = names(&doc, "workloads");
        for w in &workloads {
            assert_eq!(Workload::parse(w).unwrap().name(), w);
        }
        assert_eq!(workloads, ["explore", "scan", "fleet"]);
    }
}
