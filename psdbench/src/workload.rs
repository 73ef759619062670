//! Workload set-up, the closed-loop batch loop, and per-batch checks.
//!
//! Load is a closed loop: one client thread submits a batch, waits for
//! every result, checks it, then submits the next. A batch's turnaround
//! runs from spec text in to last result out.

use std::time::{Duration, Instant};

use psdacc_engine::pool::execute_observed;
use psdacc_engine::{run_job, BatchReport, BatchSpec, CacheStats, Engine, JobSpec};
use psdacc_sched::{run_fleet, FleetConfig, FleetOutcome, FleetStats};
use psdacc_serve::{Server, ServerConfig, ServerHandle};

use crate::check::{self, Golden, Stable};
use crate::gen::Workload;
use crate::trace::Recorder;

/// Engine workers of the local workloads; also the daemon count of the
/// fleet (one worker each). Sized for a 2-core host.
pub const WORKERS: usize = 2;

/// Runs `f` inside a span when tracing, directly otherwise.
pub fn span<R>(
    rec: Option<&Recorder>,
    name: &'static str,
    tag: &'static str,
    parent: Option<u64>,
    unit: Option<u64>,
    f: impl FnOnce(Option<u64>) -> R,
) -> R {
    match rec {
        Some(r) => r.span(name, tag, parent, unit, |id| f(Some(id))),
        None => f(None),
    }
}

/// Parses spec text and expands it into units, as every batch does.
pub fn expand(
    text: &str,
    rec: Option<&Recorder>,
    parent: Option<u64>,
) -> Result<Vec<JobSpec>, String> {
    let spec = span(rec, "engine.BatchSpec::parse", "", parent, None, |_| BatchSpec::parse(text))
        .map_err(|e| format!("spec: {e}"))?;
    Ok(span(rec, "engine.BatchSpec::jobs", "", parent, None, |_| spec.jobs()))
}

/// Two loopback daemons with one engine worker each; `chaos` delays every
/// unit on the first one.
#[derive(Debug)]
pub struct Fleet {
    handles: Vec<ServerHandle>,
}

impl Fleet {
    /// Starts the daemons and warms each cache with `jobs` through the
    /// daemon's own engine (in process, so a chaos delay does not slow
    /// the warm-up).
    ///
    /// # Errors
    ///
    /// Bind failures and failed warm-up units.
    pub fn start(jobs: &[JobSpec], chaos: Duration) -> Result<Self, String> {
        let mut handles = Vec::new();
        for i in 0..WORKERS {
            let config = ServerConfig {
                chaos_unit_delay: if i == 0 { chaos } else { Duration::ZERO },
                ..ServerConfig::default()
            };
            let server = Server::bind_with("127.0.0.1:0", Engine::new(1), config)
                .and_then(Server::spawn)
                .map_err(|e| format!("daemon: {e}"))?;
            handles.push(server);
        }
        let fleet = Fleet { handles };
        for h in &fleet.handles {
            let warm = h.state().engine().run(jobs.to_vec());
            if warm.failures().count() > 0 {
                return Err(format!("daemon warm-up failed: {}", warm.summary()));
            }
        }
        Ok(fleet)
    }

    /// Daemon addresses, in start order.
    pub fn addrs(&self) -> Vec<String> {
        self.handles.iter().map(|h| h.addr().to_string()).collect()
    }

    /// One coordinator run (connect and `hello` included).
    ///
    /// # Errors
    ///
    /// Coordinator errors.
    pub fn run(&self, jobs: &[JobSpec]) -> Result<FleetOutcome, String> {
        run_fleet(&self.addrs(), jobs, &FleetConfig::default(), |_| {})
            .map_err(|e| format!("fleet: {e}"))
    }

    /// Stops both accept loops.
    pub fn shutdown(self) {
        for h in self.handles {
            h.shutdown();
        }
    }
}

/// A workload ready for timed batches.
#[derive(Debug)]
pub enum State {
    /// `explore`: one warm engine.
    Explore(Engine),
    /// `scan`: every batch brings its own fresh engine.
    Scan,
    /// `fleet`: two warm daemons.
    Fleet(Fleet),
}

impl State {
    /// Brings `workload` up to its first timed batch: engine or daemon
    /// start and one warm-up batch, which for `fleet` includes the
    /// handshake. Preprocessing for `explore` and `fleet` is paid here;
    /// `scan` keeps nothing between batches, so its warm-up only faults
    /// code and allocator in.
    ///
    /// # Errors
    ///
    /// Set-up failures, including a failed warm-up batch.
    pub fn setup(workload: Workload, spec: &str, chaos: Duration) -> Result<Self, String> {
        let state = match workload {
            Workload::Explore => State::Explore(Engine::new(WORKERS)),
            Workload::Scan => State::Scan,
            Workload::Fleet => State::Fleet(Fleet::start(&expand(spec, None, None)?, chaos)?),
        };
        let warm = state.batch(spec, None)?;
        if warm.errors() > 0 {
            return Err(format!("{} warm-up batch had failed units", workload.name()));
        }
        Ok(state)
    }

    /// Releases daemons, if any.
    pub fn teardown(self) {
        if let State::Fleet(f) = self {
            f.shutdown();
        }
    }

    /// One batch, spec text in to last result out. With a recorder, every
    /// call into the stack gets a span, and local batches run the
    /// engine's pool over `run_job` directly (the two public calls
    /// `Engine::run` is made of) so each unit gets its own span.
    ///
    /// # Errors
    ///
    /// Spec and coordinator errors (unit failures are in the output).
    pub fn batch(&self, spec: &str, rec: Option<&Recorder>) -> Result<Output, String> {
        span(rec, "batch", "", None, None, |root| match self {
            State::Explore(engine) => local_batch(engine, spec, rec, root),
            State::Scan => {
                let engine =
                    span(rec, "engine.Engine::new", "", root, None, |_| Engine::new(WORKERS));
                local_batch(&engine, spec, rec, root)
            }
            State::Fleet(fleet) => {
                let jobs = expand(spec, rec, root)?;
                let outcome =
                    span(rec, "sched.run_fleet", "batch", root, None, |_| fleet.run(&jobs))?;
                Ok(Output::Fleet(outcome))
            }
        })
    }
}

fn local_batch(
    engine: &Engine,
    spec: &str,
    rec: Option<&Recorder>,
    root: Option<u64>,
) -> Result<Output, String> {
    let before = engine.cache().stats();
    let jobs = expand(spec, rec, root)?;
    let report = match rec {
        None => engine.run(jobs),
        Some(r) => {
            let t0 = Instant::now();
            let cache = engine.cache().as_ref();
            let indexed: Vec<(usize, JobSpec)> = jobs.into_iter().enumerate().collect();
            let (results, pool) = r.span("engine.pool::execute_observed", "", root, None, |pool| {
                execute_observed(
                    indexed,
                    engine.threads(),
                    |(i, job)| {
                        r.span(
                            "engine.run_job",
                            job.kind.label(),
                            Some(pool),
                            Some(i as u64),
                            |_| run_job(cache, i, &job),
                        )
                    },
                    |_, _| {},
                )
            });
            BatchReport {
                results,
                cache: cache.stats(),
                pool,
                wall_seconds: t0.elapsed().as_secs_f64(),
            }
        }
    };
    Ok(Output::Local { report, before })
}

/// What one batch produced.
#[derive(Debug)]
pub enum Output {
    /// A local engine batch, with the cache counters from before it.
    Local {
        /// The engine's report.
        report: BatchReport,
        /// Cache counters before the batch.
        before: CacheStats,
    },
    /// A coordinator run.
    Fleet(FleetOutcome),
}

impl Output {
    /// Units in the batch.
    pub fn units(&self) -> usize {
        match self {
            Output::Local { report, .. } => report.results.len(),
            Output::Fleet(o) => o.lines.len(),
        }
    }

    /// Units that reported an error.
    pub fn errors(&self) -> usize {
        match self {
            Output::Local { report, .. } => report.failures().count(),
            Output::Fleet(o) => o.stats.failed,
        }
    }

    /// `(builds, hits)` this batch added to the engine cache (local only).
    pub fn cache_delta(&self) -> Option<(usize, usize)> {
        match self {
            Output::Local { report, before } => {
                Some((report.cache.builds - before.builds, report.cache.hits - before.hits))
            }
            Output::Fleet(_) => None,
        }
    }

    /// Engine pool steals (local only).
    pub fn pool_steals(&self) -> Option<usize> {
        match self {
            Output::Local { report, .. } => Some(report.pool.steals),
            Output::Fleet(_) => None,
        }
    }

    /// Coordinator stats (fleet only).
    pub fn fleet_stats(&self) -> Option<&FleetStats> {
        match self {
            Output::Fleet(o) => Some(&o.stats),
            Output::Local { .. } => None,
        }
    }
}

/// What a batch is checked against.
#[derive(Debug)]
pub enum Reference {
    /// Stable fields of every unit, from a separate local engine run of
    /// the same spec (`explore`, and `fleet` against `explore`).
    Lines(Vec<Stable>),
    /// Golden powers, and the number of distinct scenario keys that must
    /// equal the batch's cache builds (`scan`).
    Golden {
        /// Captured powers.
        golden: Golden,
        /// Distinct scenario keys of the spec.
        distinct: usize,
    },
}

impl Reference {
    /// The reference for `workload`'s spec, computed outside any timing.
    ///
    /// # Errors
    ///
    /// Spec errors, an unreadable golden file, and reference runs that
    /// fail (no workload may contain a job that is expected to fail).
    pub fn for_workload(workload: Workload, spec: &str) -> Result<Self, String> {
        let jobs = expand(spec, None, None)?;
        match workload {
            Workload::Explore | Workload::Fleet => {
                let report = Engine::new(1).run(jobs);
                if report.failures().count() > 0 {
                    return Err(format!("reference run failed: {}", report.summary()));
                }
                let lines = report.results.iter().map(|r| check::stable_fields(&r.to_json_line()));
                Ok(Reference::Lines(lines.collect::<Result<_, _>>()?))
            }
            Workload::Scan => {
                let distinct: std::collections::BTreeSet<(String, usize)> =
                    jobs.iter().map(|j| (j.scenario.key(), j.npsd)).collect();
                let golden = check::parse_golden(check::GOLDEN_TEXT)?;
                Ok(Reference::Golden { golden, distinct: distinct.len() })
            }
        }
    }

    /// Units of `out` that fail their check. A `scan` batch whose cache
    /// builds differ from its distinct scenario count fails as a whole.
    pub fn failures(&self, out: &Output) -> usize {
        match (self, out) {
            (Reference::Lines(reference), Output::Local { report, .. }) => {
                let lines: Vec<String> = report.results.iter().map(|r| r.to_json_line()).collect();
                check::count_mismatches(lines.iter().map(String::as_str), reference)
            }
            (Reference::Lines(reference), Output::Fleet(o)) => {
                let bad = check::count_mismatches(o.lines.iter().map(String::as_str), reference);
                bad.max(o.stats.failed)
            }
            (Reference::Golden { golden, distinct }, Output::Local { report, before }) => {
                if report.cache.builds - before.builds != *distinct {
                    return report.results.len();
                }
                report.results.iter().filter(|r| !check::matches_golden(r, golden)).count()
            }
            (Reference::Golden { .. }, Output::Fleet(o)) => o.lines.len(),
        }
    }
}

/// One timed batch: its turnaround and the counters the per-layer
/// metrics need (results themselves are dropped once checked).
#[derive(Debug)]
pub struct BatchRecord {
    /// Turnaround, seconds.
    pub seconds: f64,
    /// Units attempted.
    pub units: usize,
    /// Units that failed their check.
    pub failed: usize,
    /// `(builds, hits)` the batch added to its engine cache (local only).
    pub cache: Option<(usize, usize)>,
    /// Engine pool steals (local only).
    pub pool_steals: Option<usize>,
    /// Coordinator stats (fleet only).
    pub fleet: Option<FleetStats>,
    /// Whether the hypervisor stole CPU time from this machine while the
    /// batch ran (always false on bare metal).
    pub stolen: bool,
}

/// CPU time the hypervisor has stolen from this machine so far, in
/// clock ticks (the `steal` column of `/proc/stat`); 0 where the kernel
/// does not report it.
fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().find(|l| l.starts_with("cpu ")).unwrap_or_default();
    cpu.split_whitespace().nth(8).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// The process's peak resident set (`VmHWM`), MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Closed-loop measurement: batches back to back until `seconds` have
/// elapsed and at least `min_batches` ran.
///
/// # Errors
///
/// Spec and coordinator errors.
pub fn measure(
    state: &State,
    spec: &str,
    reference: &Reference,
    seconds: f64,
    min_batches: usize,
    rec: Option<&Recorder>,
) -> Result<Vec<BatchRecord>, String> {
    let start = Instant::now();
    let mut batches = Vec::new();
    while batches.len() < min_batches || start.elapsed().as_secs_f64() < seconds {
        let steal_before = steal_ticks();
        let t0 = Instant::now();
        let output = state.batch(spec, rec)?;
        let seconds = t0.elapsed().as_secs_f64();
        let stolen = steal_ticks() > steal_before;
        batches.push(BatchRecord {
            seconds,
            units: output.units(),
            failed: reference.failures(&output),
            cache: output.cache_delta(),
            pool_steals: output.pool_steals(),
            fleet: output.fleet_stats().cloned(),
            stolen,
        });
    }
    Ok(batches)
}
