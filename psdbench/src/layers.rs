//! Per-layer probes of the traced run.
//!
//! Each probe times calls into one crate's public functions from here,
//! recording a span per call. Inputs come from the workload generators,
//! so every layer number describes the units the end-to-end workloads
//! actually run.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::time::Instant;

use psdacc_core::{
    greedy_refinement_from, minimum_uniform_wordlength_from, AccuracyEvaluator, Method,
};
use psdacc_engine::{BatchSpec, JobKind, JobSpec, Scenario};
use psdacc_estim::{modulate, welch_psd, WelchConfig};
use psdacc_serve::protocol::{evaluate_units_line, job_request_line};

use crate::check::{count_mismatches, Stable};
use crate::gen::NPSD;
use crate::stats::median;
use crate::trace::Recorder;

/// Runs `f` in a span and also returns its duration in microseconds.
pub fn timed<R>(
    rec: &Recorder,
    name: &'static str,
    tag: &'static str,
    parent: Option<u64>,
    unit: Option<u64>,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    rec.span(name, tag, parent, unit, |_| {
        let t0 = Instant::now();
        let out = f();
        (out, t0.elapsed().as_secs_f64() * 1e6)
    })
}

/// `(scenario_build class, preprocess class)` of a `scan` scenario.
fn classes(s: &Scenario) -> (&'static str, &'static str) {
    match s {
        Scenario::FirBank { .. } | Scenario::IirBank { .. } => ("bank", "bank"),
        Scenario::RandomSfg { nodes: 16, .. } => ("random_sfg", "random_sfg_n16"),
        Scenario::RandomSfg { nodes: 32, .. } => ("random_sfg", "random_sfg_n32"),
        Scenario::RandomSfg { nodes: 64, .. } => ("random_sfg", "random_sfg_n64"),
        Scenario::RandomSfg { .. } => ("random_sfg", "random_sfg"),
        Scenario::DwtDecimated { .. } | Scenario::DwtPacket { .. } => ("multirate", "multirate"),
        _ => ("measured", "measured"),
    }
}

/// `engine::Scenario::build`, `sfg::freq::preprocess` and
/// `core::AccuracyEvaluator::new` over every `scan` scenario, `passes`
/// times. Returns the self time of each `AccuracyEvaluator::new` call in
/// microseconds: its duration minus the preprocessing it performs, as
/// timed by the separate `preprocess` call on the same graph. Single
/// differences are noisy (the self part is small), so callers average.
///
/// # Errors
///
/// Spec, build and preprocessing errors.
pub fn probe_scan_build(
    rec: &Recorder,
    scan_spec: &str,
    passes: usize,
) -> Result<Vec<f64>, String> {
    let spec = BatchSpec::parse(scan_spec).map_err(|e| e.to_string())?;
    let mut evaluator_self_us = Vec::new();
    for _ in 0..passes {
        rec.span("probe.scan_build", "", None, None, |root| -> Result<(), String> {
            for s in &spec.scenarios {
                let (build_class, pre_class) = classes(s);
                let g = rec
                    .span("engine.Scenario::build", build_class, Some(root), None, |_| s.build())
                    .map_err(|e| format!("{}: {e}", s.key()))?;
                let out = *g.outputs().first().ok_or("scenario without output")?;
                let (pre, pre_us) =
                    timed(rec, "sfg.freq::preprocess", pre_class, Some(root), None, || {
                        psdacc_sfg::freq::preprocess(&g, out, NPSD)
                    });
                black_box(pre.map_err(|e| format!("{}: {e}", s.key()))?);
                let (ev, new_us) = timed(
                    rec,
                    "core.AccuracyEvaluator::new",
                    build_class,
                    Some(root),
                    None,
                    || AccuracyEvaluator::new(&g, NPSD),
                );
                black_box(ev.map_err(|e| format!("{}: {e}", s.key()))?);
                evaluator_self_us.push(new_us - pre_us);
            }
            Ok(())
        })?;
    }
    Ok(evaluator_self_us)
}

/// Per-pass totals of the core probe, in microseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct CorePass {
    /// All core calls of the pass.
    pub total_us: f64,
    /// `greedy_refinement_from` calls.
    pub refine_us: f64,
    /// `minimum_uniform_wordlength_from` calls.
    pub min_uniform_us: f64,
}

/// Core-layer probe: every `explore` unit's computation called directly
/// on `core` (`estimate_*`, `evaluate_budget`, refinement, uniform
/// search), `passes` times over evaluators built once. Returns the
/// per-pass totals and the preprocessing time of the unit set's
/// scenarios in microseconds.
///
/// # Errors
///
/// Build and preprocessing errors, and job kinds the workloads never use.
pub fn probe_core(
    rec: &Recorder,
    jobs: &[JobSpec],
    passes: usize,
) -> Result<(Vec<CorePass>, f64), String> {
    let mut evaluators: HashMap<String, AccuracyEvaluator> = HashMap::new();
    let mut preprocess_us = 0.0;
    for job in jobs {
        let key = job.scenario.key();
        if evaluators.contains_key(&key) {
            continue;
        }
        let g = job.scenario.build().map_err(|e| e.to_string())?;
        let out = *g.outputs().first().ok_or("scenario without output")?;
        let (pre, us) = timed(rec, "sfg.freq::preprocess", "explore", None, None, || {
            psdacc_sfg::freq::preprocess(&g, out, job.npsd)
        });
        black_box(pre.map_err(|e| e.to_string())?);
        preprocess_us += us;
        evaluators.insert(key, AccuracyEvaluator::new(&g, job.npsd).map_err(|e| e.to_string())?);
    }
    let mut out = Vec::new();
    for _ in 0..passes {
        let mut pass = CorePass::default();
        rec.span("probe.core", "", None, None, |root| -> Result<(), String> {
            for (i, job) in jobs.iter().enumerate() {
                let ev = &evaluators[&job.scenario.key()];
                let unit = Some(i as u64);
                let p = Some(root);
                let us = match job.kind {
                    JobKind::Estimate { method, frac_bits } => {
                        let plan = job.plan(frac_bits);
                        let (name, tag) = match method {
                            Method::PsdMethod => ("core.estimate_psd", "psd"),
                            Method::PsdAgnostic => ("core.estimate_agnostic", "agnostic"),
                            _ => ("core.estimate_flat", "flat"),
                        };
                        let (est, us) = timed(rec, name, tag, p, unit, || match method {
                            Method::PsdMethod => Ok(ev.estimate_psd(&plan)),
                            Method::PsdAgnostic => ev.estimate_agnostic(&plan),
                            _ => ev.estimate_flat(&plan),
                        });
                        black_box(est.map_err(|e| format!("{}: {e}", job.scenario.key()))?);
                        us
                    }
                    JobKind::Budget { frac_bits } => {
                        let plan = job.plan(frac_bits);
                        let (b, us) = timed(rec, "core.evaluate_budget", "", p, unit, || {
                            ev.evaluate_budget(&plan)
                        });
                        black_box(b);
                        us
                    }
                    JobKind::GreedyRefine { budget, start_bits, min_bits } => {
                        let plan = job.plan(start_bits);
                        let (r, us) =
                            timed(rec, "core.greedy_refinement_from", "", p, unit, || {
                                greedy_refinement_from(ev, budget, &plan, start_bits, min_bits)
                            });
                        black_box(r);
                        pass.refine_us += us;
                        us
                    }
                    JobKind::MinUniform { budget, min_bits, max_bits } => {
                        let plan = job.plan(min_bits);
                        let (r, us) =
                            timed(rec, "core.minimum_uniform_wordlength_from", "", p, unit, || {
                                minimum_uniform_wordlength_from(
                                    ev, budget, &plan, min_bits, max_bits,
                                )
                            });
                        black_box(r);
                        pass.min_uniform_us += us;
                        us
                    }
                    JobKind::Simulate { .. } => {
                        return Err("simulate units are not benchmarked".into())
                    }
                };
                pass.total_us += us;
            }
            Ok(())
        })?;
        out.push(pass);
    }
    Ok((out, preprocess_us))
}

/// `estim` probe on inputs the size of the measured families' defaults:
/// Welch over a 4096-sample AR(1) trace (`measured-welch`) and a
/// second-order modulator over a 16384-sample tone (`sigma-delta`).
/// Returns median `(welch_psd, modulate)` microseconds.
///
/// # Errors
///
/// Estimator errors.
pub fn probe_estim(rec: &Recorder, reps: usize) -> Result<(f64, f64), String> {
    let mut gen = psdacc_dsp::SignalGenerator::new(0x5EED);
    let trace = gen.ar1(4096, 0.9, 0.05);
    let tone = gen.sine(16384, 1.0 / 128.0, 0.5, 0.0);
    let cfg = WelchConfig::default();
    let (mut welch, mut modul) = (Vec::new(), Vec::new());
    rec.span("probe.estim", "", None, None, |root| -> Result<(), String> {
        for _ in 0..reps {
            let (w, us) =
                timed(rec, "estim.welch_psd", "", Some(root), None, || welch_psd(&trace, &cfg));
            black_box(w.map_err(|e| e.to_string())?);
            welch.push(us);
            let (m, us) = timed(rec, "estim.modulate", "", Some(root), None, || modulate(2, &tone));
            black_box(m.map_err(|e| e.to_string())?);
            modul.push(us);
        }
        Ok(())
    })?;
    Ok((median(&welch), median(&modul)))
}

/// What the serve probe measured.
#[derive(Debug)]
pub struct ServeProbe {
    /// Per-unit roundtrips, microseconds.
    pub rtt_us: Vec<f64>,
    /// Request plus response bytes per unit.
    pub bytes_per_unit: f64,
    /// Units whose result failed the stable-field check.
    pub failed: usize,
}

/// One unit at a time over one persistent `evaluate_units` connection
/// (no `hello`), each result checked against `reference`.
///
/// # Errors
///
/// Connection and protocol errors.
pub fn probe_serve(
    rec: &Recorder,
    addr: &str,
    jobs: &[JobSpec],
    reference: &[Stable],
) -> Result<ServeProbe, String> {
    let io = |e: std::io::Error| format!("serve probe: {e}");
    let stream = psdacc_serve::connect(addr).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
    let mut writer = &stream;
    writer.write_all(format!("{}\n", evaluate_units_line(None)).as_bytes()).map_err(io)?;
    let (mut rtt_us, mut lines, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    rec.span("probe.serve", "", None, None, |root| -> Result<(), String> {
        for (i, job) in jobs.iter().enumerate() {
            let request = job_request_line(i, job).map_err(|e| e.to_string())? + "\n";
            let mut line = String::new();
            let (read, us) = timed(
                rec,
                "serve.unit_roundtrip",
                job.kind.label(),
                Some(root),
                Some(i as u64),
                || writer.write_all(request.as_bytes()).and_then(|()| reader.read_line(&mut line)),
            );
            if read.map_err(io)? == 0 {
                return Err("serve probe: daemon closed the connection".into());
            }
            rtt_us.push(us);
            bytes += request.len() + line.len();
            lines.push(line);
        }
        Ok(())
    })?;
    stream.shutdown(Shutdown::Write).map_err(io)?;
    let mut rest = String::new();
    while reader.read_line(&mut rest).map_err(io)? > 0 {}
    let failed = count_mismatches(lines.iter().map(|l| l.trim_end()), reference);
    Ok(ServeProbe { bytes_per_unit: bytes as f64 / jobs.len() as f64, rtt_us, failed })
}
