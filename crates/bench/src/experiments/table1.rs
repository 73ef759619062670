//! **Table I**: relative error-power estimation statistics `Ed` over the
//! 147-FIR + 147-IIR population.
//!
//! For every filter: simulate the fixed-point error power (white input,
//! `--samples` samples), estimate it with the proposed PSD method
//! (`N_PSD = 1024`), and report `min(Ed)`, `max(Ed)`, `mean(|Ed|)` per
//! family. The flat method (paper Section IV-B: "classical flat estimation
//! gives exactly the same results") is cross-checked as well.
//!
//! Both sides run as one engine batch through [`batch_powers`]: the
//! population is declared through the scenario registry (`fir-bank` /
//! `iir-bank`), and each filter contributes its `psd` and `flat` estimates
//! plus a single-trial `simulate` job on the same `(scenario, npsd)` key,
//! so preprocessing is paid once per filter for both sides and the
//! Monte-Carlo references spread across the pool with the estimates.
//! With `--daemons` the batch dispatches through the `psdacc-sched`
//! coordinator across a daemon fleet — same numbers, any fleet.

use psdacc_core::{metrics, Method};
use psdacc_engine::{JobKind, JobSpec, Scenario};
use psdacc_fixed::RoundingMode;

use crate::fleet::{backend_label, batch_powers};
use crate::harness::{pct, Args, Table};

/// Summary statistics of one filter family.
#[derive(Debug, Clone, Copy)]
pub struct FamilyStats {
    /// Smallest signed deviation.
    pub min_ed: f64,
    /// Largest signed deviation.
    pub max_ed: f64,
    /// Mean absolute deviation.
    pub mean_abs_ed: f64,
    /// Largest relative gap between the flat and PSD estimates.
    pub max_flat_gap: f64,
    /// Population size actually evaluated.
    pub count: usize,
}

fn stats(eds: &[f64], flat_gaps: &[f64]) -> FamilyStats {
    FamilyStats {
        min_ed: eds.iter().cloned().fold(f64::MAX, f64::min),
        max_ed: eds.iter().cloned().fold(f64::MIN, f64::max),
        mean_abs_ed: eds.iter().map(|e| e.abs()).sum::<f64>() / eds.len() as f64,
        max_flat_gap: flat_gaps.iter().cloned().fold(0.0, f64::max),
        count: eds.len(),
    }
}

fn family_scenario(is_fir: bool, index: usize) -> Scenario {
    if is_fir {
        Scenario::FirBank { index }
    } else {
        Scenario::IirBank { index }
    }
}

/// Runs the experiment; `stride` subsamples the population (1 = all 147).
pub fn run_with_stride(args: &Args, stride: usize) -> (FamilyStats, FamilyStats) {
    let d = 12;
    let indices: Vec<usize> = (0..147).step_by(stride.max(1)).collect();

    // One batch over both families: for each filter, its `psd` and `flat`
    // estimates and its single-trial Monte-Carlo reference, in that order.
    let mut jobs = Vec::with_capacity(indices.len() * 6);
    for is_fir in [true, false] {
        for &i in &indices {
            let job = |kind| JobSpec {
                scenario: family_scenario(is_fir, i),
                npsd: args.npsd,
                rounding: RoundingMode::Truncate,
                kind,
            };
            jobs.push(job(JobKind::Estimate { method: Method::PsdMethod, frac_bits: d }));
            jobs.push(job(JobKind::Estimate { method: Method::Flat, frac_bits: d }));
            jobs.push(job(JobKind::Simulate {
                frac_bits: d,
                samples: args.samples,
                nfft: 256,
                seed: args.seed,
                trials: 1,
            }));
        }
    }
    let powers = batch_powers(args, jobs);
    let family = |powers: &[f64]| {
        let (eds, gaps): (Vec<f64>, Vec<f64>) = powers
            .chunks_exact(3)
            .map(|chunk| {
                let [psd, flat, simulated] = chunk else { unreachable!("chunks of 3") };
                (metrics::ed(*simulated, *psd), ((psd - flat) / flat).abs())
            })
            .unzip();
        stats(&eds, &gaps)
    };
    let (fir, iir) = powers.split_at(3 * indices.len());
    (family(fir), family(iir))
}

/// Full experiment with table output.
pub fn run(args: &Args) {
    println!("== Table I: Ed statistics over the filter population ==");
    println!(
        "(d = 12 fractional bits, truncation, N_PSD = {}, {} sim samples; {})\n",
        args.npsd,
        args.samples,
        backend_label(args)
    );
    let stride = if args.full { 1 } else { 3 };
    if stride != 1 {
        println!("[default mode evaluates every {stride}rd filter; use --full for all 147]\n");
    }
    let (fir, iir) = run_with_stride(args, stride);
    let mut t = Table::new(&["", "FIR filters", "IIR filters"]);
    t.row(&["min(Ed)".into(), pct(fir.min_ed), pct(iir.min_ed)]);
    t.row(&["max(Ed)".into(), pct(fir.max_ed), pct(iir.max_ed)]);
    t.row(&["mean(|Ed|)".into(), pct(fir.mean_abs_ed), pct(iir.mean_abs_ed)]);
    t.row(&["filters".into(), fir.count.to_string(), iir.count.to_string()]);
    t.row(&[
        "max |psd-flat|/flat".into(),
        format!("{:.2e}", fir.max_flat_gap),
        format!("{:.2e}", iir.max_flat_gap),
    ]);
    println!("{}", t.render());
    let _ = t.write_csv(&args.out_path("table1.csv"));
    println!("paper reference: FIR within +-0.37% (mean 0.11%); IIR -19.4%..31.2% (mean 9.44%)");
    let all_sub_one_bit = [fir.min_ed, fir.max_ed, iir.min_ed, iir.max_ed]
        .iter()
        .all(|&e| metrics::is_sub_one_bit(e));
    println!("all deviations sub-one-bit: {all_sub_one_bit}");
}
