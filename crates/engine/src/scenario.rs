//! Scenario values: named, parameterized generators for every system
//! family in the workspace, plus runtime-defined graph scenarios.
//!
//! A [`Scenario`] is a *value* describing a system — workloads are declared
//! as data (CLI spec lines, test tables) instead of hand-built graphs. Every
//! scenario lowers to a plain [`Sfg`] via [`Scenario::build`], so all of
//! them run through the one shared [`psdacc_core::AccuracyEvaluator`]
//! front-end and its cached preprocessing.
//!
//! The scenario space is **open**: besides the static families (the
//! builtin ones below and the measured-signal ones, each written once in
//! the family table of [`crate::provider`]), any system expressible
//! as a [`psdacc_sfg::GraphSpec`] is a scenario — inline in a batch spec
//! (`scenario graph={...}`), or registered under a name at runtime (the
//! `define_scenario` wire verb; [`crate::provider::ScenarioRegistry`]).
//! Graph scenarios are identified by the content hash of their canonical
//! JSON, so caches, persisted preprocessing, and result streams agree on
//! their identity across processes and machines.
//!
//! Builtin families:
//!
//! | name            | source crate                    | parameters |
//! |-----------------|---------------------------------|------------|
//! | `fir-bank`      | `psdacc_systems::filter_bank`   | `index` (0..147) |
//! | `iir-bank`      | `psdacc_systems::filter_bank`   | `index` (0..147) |
//! | `fir-cascade`   | `psdacc_filters`                | `stages`, `taps`, `cutoff` |
//! | `iir-cascade`   | `psdacc_filters`                | `stages`, `order`, `cutoff` |
//! | `freq-filter`   | `psdacc_systems::freq_filter`   | — (Fig. 2 chain) |
//! | `dwt-pipeline`  | `psdacc_wavelet` (CDF 9/7 bank) | `levels` (1..=4) |
//! | `dwt-decimated` | `psdacc_systems::dwt_decimated` | `levels` (1..=4) |
//! | `dwt-packet`    | `psdacc_systems::dwt_decimated` | `depth` (1..=3) |
//! | `random-sfg`    | seeded generator over `psdacc_sfg` | `nodes`, `seed` |
//!
//! The `dwt-decimated` / `dwt-packet` families are *true multirate* graphs
//! (`Downsample` / `Upsample` blocks): evaluation takes the fold/image PSD
//! path in `psdacc_sfg::multirate`, and `npsd` must be divisible by
//! `2^levels` (respectively `2^depth`) so every rate region gets an
//! integer grid.

use psdacc_filters::{butterworth, design_fir, BandSpec};
use psdacc_sfg::{Block, NodeId, Sfg};
use psdacc_systems::FreqFilterSystem;
use psdacc_wavelet::FilterBank97;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::EngineError;
use crate::graphspec::GraphScenario;
use crate::provider::{
    Param, Row, CROSS_SPECTRUM, DWT_DECIMATED, DWT_PACKET, DWT_PIPELINE, FIR_BANK, FIR_CASCADE,
    FREQ_FILTER, IIR_BANK, IIR_CASCADE, MEASURED_WELCH, RANDOM_SFG, SIGMA_DELTA,
};

/// A named, parameterized system generator.
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// The `index`-th FIR of the Table I population (0..147).
    FirBank {
        /// Population index.
        index: usize,
    },
    /// The `index`-th IIR of the Table I population (0..147).
    IirBank {
        /// Population index.
        index: usize,
    },
    /// A chain of `stages` identical lowpass FIR filters.
    FirCascade {
        /// Number of chained filter blocks.
        stages: usize,
        /// Taps per stage.
        taps: usize,
        /// Normalized cutoff (0, 0.5).
        cutoff: f64,
    },
    /// A chain of `stages` identical Butterworth lowpass IIR filters.
    IirCascade {
        /// Number of chained filter blocks.
        stages: usize,
        /// Butterworth order per stage.
        order: usize,
        /// Normalized cutoff (0, 0.5).
        cutoff: f64,
    },
    /// The Fig. 2 frequency-filter system as its time-domain-equivalent
    /// chain: 16-tap lowpass prefilter into the 9-tap highpass.
    FreqFilter,
    /// Undecimated (à trous) CDF 9/7 wavelet pipeline: `levels` analysis
    /// stages with per-level synthesis branches summed at the output.
    DwtPipeline {
        /// Decomposition depth (1..=4).
        levels: usize,
    },
    /// Decimated CDF 9/7 analysis/synthesis codec (octave decomposition)
    /// as a true multirate graph.
    DwtDecimated {
        /// Decomposition depth (1..=4).
        levels: usize,
    },
    /// Decimated CDF 9/7 wavelet-packet bank (both bands split at every
    /// level: `2^depth` uniform subbands).
    DwtPacket {
        /// Tree depth (1..=3).
        depth: usize,
    },
    /// Seeded random chain-with-forks DAG over gain/delay/FIR/add blocks.
    RandomSfg {
        /// Number of non-input nodes.
        nodes: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Welch-estimated PSD of a seeded synthetic recorded trace (AR(1)
    /// colored noise with a DC offset) injected as a measured source next
    /// to the quantized input, feeding a lowpass FIR. The whole estimation
    /// chain is deterministic per seed, so every daemon rebuilding the
    /// scenario gets bit-identical spectra.
    MeasuredWelch {
        /// Trace length.
        samples: usize,
        /// Trace generator seed.
        seed: u64,
        /// Welch segment length (power of two).
        nfft: usize,
        /// Segment overlap fraction.
        overlap: f64,
        /// Window name in its canonical spelling (`rect`, `hann`,
        /// `hamming`, `blackman`, `kaiser`).
        window: String,
        /// Kaiser shape parameter (required iff `window == "kaiser"`).
        beta: Option<f64>,
        /// Taps of the downstream lowpass FIR.
        taps: usize,
    },
    /// Cross-spectrum denoising scenario: two seeded channels share an
    /// AR(1) signal but carry independent white noise at the given SNR;
    /// the cross-spectrum estimate rejects the uncorrelated part and the
    /// denoised spectrum becomes the measured source.
    CrossSpectrum {
        /// Per-channel trace length.
        samples: usize,
        /// Channel generator seed.
        seed: u64,
        /// Welch segment length (power of two).
        nfft: usize,
        /// Segment overlap fraction.
        overlap: f64,
        /// Common-signal-to-channel-noise ratio in dB.
        snr: f64,
        /// Taps of the downstream lowpass FIR.
        taps: usize,
    },
    /// Bit-true sigma-delta modulator scenario: a 1st- or 2nd-order
    /// modulator runs on a dithered in-band tone, the modulation error
    /// `y - x` is Welch-estimated, and the shaped-noise spectrum feeds the
    /// decimation lowpass as a measured source.
    SigmaDelta {
        /// Modulator order (1 or 2).
        order: usize,
        /// Oversampling ratio (power of two).
        osr: usize,
        /// Input tone amplitude in (0, 1].
        amp: f64,
        /// Simulated sample count.
        samples: usize,
        /// Dither seed.
        seed: u64,
        /// Welch segment length (power of two, `>= 8*osr` so the tone
        /// lands on an exact in-band bin).
        nfft: usize,
        /// Taps of the decimation lowpass FIR.
        taps: usize,
    },
    /// A runtime-defined declarative graph ([`psdacc_sfg::GraphSpec`]),
    /// identified by the content hash of its canonical JSON. Inline in
    /// specs as `graph={...}`, or registered under a name via
    /// [`crate::ScenarioRegistry::define_graph`] / the serve `define_scenario`
    /// verb.
    Graph(GraphScenario),
}

impl Scenario {
    /// Canonical identity string — the cache key and the `scenario` field of
    /// engine results. Two scenarios with equal keys build identical graphs.
    pub fn key(&self) -> String {
        match self {
            Scenario::Graph(g) => g.key(),
            _ => self.row().render('[', ',', "]"),
        }
    }

    /// Nodes a word-length plan must leave unquantized (role `exact` in a
    /// graph scenario's spec; always empty for builtin families). Node ids
    /// refer to the graph [`Scenario::build`] returns.
    pub fn exact_nodes(&self) -> Vec<psdacc_sfg::NodeId> {
        match self {
            Scenario::Graph(g) => g.exact_nodes(),
            _ => Vec::new(),
        }
    }

    /// Checks parameter ranges without paying for filter design or graph
    /// construction — cheap enough to call per spec line at parse time.
    ///
    /// # Errors
    ///
    /// [`EngineError::Scenario`] for out-of-range parameters.
    pub fn validate(&self) -> Result<(), EngineError> {
        match *self {
            Scenario::MeasuredWelch { samples, nfft, overlap, ref window, beta, taps, .. } => {
                validate_trace_params("measured-welch", samples, nfft, overlap, taps)?;
                psdacc_estim::WelchWindow::parse(window, beta)
                    .map(|_| ())
                    .map_err(|e| EngineError::Scenario(format!("measured-welch: {e}")))
            }
            Scenario::CrossSpectrum { samples, nfft, overlap, snr, taps, .. } => {
                validate_trace_params("cross-spectrum", samples, nfft, overlap, taps)?;
                check((-40.0..=80.0).contains(&snr), "cross-spectrum snr must be -40..=80 dB")
            }
            Scenario::SigmaDelta { order, osr, amp, samples, nfft, taps, .. } => {
                check((1..=2).contains(&order), "sigma-delta order must be 1 or 2")?;
                check(
                    osr.is_power_of_two() && (4..=128).contains(&osr),
                    "sigma-delta osr must be a power of two in 4..=128",
                )?;
                check(amp > 0.0 && amp <= 1.0, "sigma-delta amp must be in (0, 1]")?;
                validate_trace_params("sigma-delta", samples, nfft, 0.5, taps)?;
                check(
                    nfft >= 8 * osr,
                    "sigma-delta nfft must be >= 8*osr (tone on an exact in-band bin)",
                )
            }
            Scenario::FirBank { index } => check(index < 147, "fir-bank index must be < 147"),
            Scenario::IirBank { index } => check(index < 147, "iir-bank index must be < 147"),
            Scenario::FirCascade { stages, taps, cutoff } => {
                check((1..=16).contains(&stages), "fir-cascade stages must be 1..=16")?;
                check((3..=255).contains(&taps), "fir-cascade taps must be 3..=255")?;
                check(cutoff > 0.0 && cutoff < 0.5, "fir-cascade cutoff must be in (0, 0.5)")
            }
            Scenario::IirCascade { stages, order, cutoff } => {
                check((1..=16).contains(&stages), "iir-cascade stages must be 1..=16")?;
                check((1..=10).contains(&order), "iir-cascade order must be 1..=10")?;
                check(cutoff > 0.0 && cutoff < 0.5, "iir-cascade cutoff must be in (0, 0.5)")
            }
            Scenario::FreqFilter => Ok(()),
            Scenario::DwtPipeline { levels } => {
                check((1..=4).contains(&levels), "dwt-pipeline levels must be 1..=4")
            }
            Scenario::DwtDecimated { levels } => {
                check((1..=4).contains(&levels), "dwt-decimated levels must be 1..=4")
            }
            Scenario::DwtPacket { depth } => {
                check((1..=3).contains(&depth), "dwt-packet depth must be 1..=3")
            }
            Scenario::RandomSfg { nodes, .. } => {
                check((1..=256).contains(&nodes), "random-sfg nodes must be 1..=256")
            }
            // Graph scenarios are validated (full compile) at construction.
            Scenario::Graph(_) => Ok(()),
        }
    }

    /// Builds the scenario's signal-flow graph (output marked).
    ///
    /// # Errors
    ///
    /// [`EngineError::Scenario`] for out-of-range parameters and any
    /// propagated design/graph error.
    pub fn build(&self) -> Result<Sfg, EngineError> {
        self.validate()?;
        match *self {
            Scenario::FirBank { index } => {
                let (_, fir) = psdacc_systems::filter_bank::fir_entry(index)?;
                Ok(psdacc_systems::filter_bank::fir_system(fir))
            }
            Scenario::IirBank { index } => {
                let (_, iir) = psdacc_systems::filter_bank::iir_entry(index)?;
                Ok(psdacc_systems::filter_bank::iir_system(iir))
            }
            Scenario::FirCascade { stages, taps, cutoff } => {
                let fir =
                    design_fir(BandSpec::Lowpass { cutoff }, taps, psdacc_dsp::Window::Hamming)?;
                let mut g = Sfg::new();
                let mut prev = g.add_input();
                for _ in 0..stages {
                    prev = g.add_block(Block::Fir(fir.clone()), &[prev])?;
                }
                g.mark_output(prev);
                Ok(g)
            }
            Scenario::IirCascade { stages, order, cutoff } => {
                let iir = butterworth(order, BandSpec::Lowpass { cutoff })?;
                let mut g = Sfg::new();
                let mut prev = g.add_input();
                for _ in 0..stages {
                    prev = g.add_block(Block::Iir(iir.clone()), &[prev])?;
                }
                g.mark_output(prev);
                Ok(g)
            }
            Scenario::FreqFilter => {
                let sys = FreqFilterSystem::new();
                let mut g = Sfg::new();
                let x = g.add_input();
                let pre = g.add_block(Block::Fir(sys.prefilter().clone()), &[x])?;
                let hlp = g.add_block(Block::Fir(sys.hlp().clone()), &[pre])?;
                g.mark_output(hlp);
                Ok(g)
            }
            Scenario::DwtPipeline { levels } => build_dwt_pipeline(levels),
            Scenario::DwtDecimated { levels } => {
                Ok(psdacc_systems::dwt_decimated::analysis_synthesis(levels)?)
            }
            Scenario::DwtPacket { depth } => Ok(psdacc_systems::dwt_decimated::packet_bank(depth)?),
            Scenario::RandomSfg { nodes, seed } => build_random_sfg(nodes, seed),
            Scenario::MeasuredWelch { samples, seed, nfft, overlap, ref window, beta, taps } => {
                build_measured_welch(samples, seed, nfft, overlap, window, beta, taps)
            }
            Scenario::CrossSpectrum { samples, seed, nfft, overlap, snr, taps } => {
                build_cross_spectrum(samples, seed, nfft, overlap, snr, taps)
            }
            Scenario::SigmaDelta { order, osr, amp, samples, seed, nfft, taps } => {
                build_sigma_delta(order, osr, amp, samples, seed, nfft, taps)
            }
            Scenario::Graph(ref g) => g.spec().compile().map_err(EngineError::from),
        }
    }

    /// Renders the scenario in batch-spec syntax (`name key=value ...`) —
    /// the wire form the `psdacc-sched` coordinator ships to daemons.
    /// Round-trips through [`crate::ScenarioRegistry::parse_spec_line`] to an
    /// identical scenario (`f64` `Display` is shortest-round-trip, so float
    /// parameters survive bit-exactly).
    ///
    /// Graph scenarios render as their registration name when they have
    /// one (the receiving daemon resolves it against its registry — which
    /// is why `psdacc-sched` forwards definitions to every daemon before
    /// streaming units), and as self-contained inline `graph={...}` JSON
    /// otherwise.
    pub fn to_spec_line(&self) -> String {
        match self {
            Scenario::Graph(g) => match g.name() {
                Some(name) => name.to_string(),
                None => format!("graph={}", g.canonical_json()),
            },
            _ => self.row().render(' ', ' ', ""),
        }
    }

    /// The family-table row with this scenario's parameter values in
    /// schema order — the one place a variant's fields are listed for
    /// rendering. Graph scenarios render themselves.
    fn row(&self) -> Row<'_> {
        match *self {
            Scenario::FirBank { index } => FIR_BANK.row(&[index.into()]),
            Scenario::IirBank { index } => IIR_BANK.row(&[index.into()]),
            Scenario::FirCascade { stages, taps, cutoff } => {
                FIR_CASCADE.row(&[stages.into(), taps.into(), cutoff.into()])
            }
            Scenario::IirCascade { stages, order, cutoff } => {
                IIR_CASCADE.row(&[stages.into(), order.into(), cutoff.into()])
            }
            Scenario::FreqFilter => FREQ_FILTER.row(&[]),
            Scenario::DwtPipeline { levels } => DWT_PIPELINE.row(&[levels.into()]),
            Scenario::DwtDecimated { levels } => DWT_DECIMATED.row(&[levels.into()]),
            Scenario::DwtPacket { depth } => DWT_PACKET.row(&[depth.into()]),
            Scenario::RandomSfg { nodes, seed } => RANDOM_SFG.row(&[nodes.into(), seed.into()]),
            Scenario::MeasuredWelch { samples, seed, nfft, overlap, ref window, beta, taps } => {
                let (window, beta) =
                    (Param::Str(window), beta.map_or(Param::Omitted, Param::Float));
                let (samples, seed, nfft, overlap) =
                    (samples.into(), seed.into(), nfft.into(), overlap.into());
                MEASURED_WELCH.row(&[samples, seed, nfft, overlap, window, beta, taps.into()])
            }
            Scenario::CrossSpectrum { samples, seed, nfft, overlap, snr, taps } => {
                let (samples, seed, nfft) = (samples.into(), seed.into(), nfft.into());
                CROSS_SPECTRUM.row(&[samples, seed, nfft, overlap.into(), snr.into(), taps.into()])
            }
            Scenario::SigmaDelta { order, osr, amp, samples, seed, nfft, taps } => {
                let (order, osr, amp, samples) =
                    (order.into(), osr.into(), amp.into(), samples.into());
                SIGMA_DELTA.row(&[order, osr, amp, samples, seed.into(), nfft.into(), taps.into()])
            }
            Scenario::Graph(_) => unreachable!("graph scenarios render themselves"),
        }
    }
}

fn check(cond: bool, msg: &str) -> Result<(), EngineError> {
    if cond {
        Ok(())
    } else {
        Err(EngineError::Scenario(msg.to_string()))
    }
}

/// Zero-stuffs `taps` by `factor` (à trous filter upsampling).
fn upsample_taps(taps: &[f64], factor: usize) -> Vec<f64> {
    if factor <= 1 {
        return taps.to_vec();
    }
    let mut out = vec![0.0; (taps.len() - 1) * factor + 1];
    for (i, &t) in taps.iter().enumerate() {
        out[i * factor] = t;
    }
    out
}

/// Undecimated CDF 9/7 pipeline: level-`l` analysis filters are the 9/7
/// pair zero-stuffed by `2^(l-1)`; each detail band (and the final
/// approximation) passes through its synthesis filter and all branches sum
/// into one output. A single-rate LTI realization of the wavelet codec's
/// filter structure, suitable for SFG-based evaluation.
fn build_dwt_pipeline(levels: usize) -> Result<Sfg, EngineError> {
    let bank = FilterBank97::derive();
    let h0: Vec<f64> = bank.h0.taps.clone();
    let h1: Vec<f64> = bank.h1.taps.clone();
    let g0: Vec<f64> = bank.g0.taps.clone();
    let g1: Vec<f64> = bank.g1.taps.clone();
    let mut g = Sfg::new();
    let x = g.add_input();
    let mut approx = x;
    let mut branches: Vec<NodeId> = Vec::new();
    for level in 1..=levels {
        let stuff = 1usize << (level - 1);
        let lo = g.add_block(
            Block::Fir(psdacc_filters::Fir::new(upsample_taps(&h0, stuff))),
            &[approx],
        )?;
        let hi = g.add_block(
            Block::Fir(psdacc_filters::Fir::new(upsample_taps(&h1, stuff))),
            &[approx],
        )?;
        let detail_synth =
            g.add_block(Block::Fir(psdacc_filters::Fir::new(upsample_taps(&g1, stuff))), &[hi])?;
        branches.push(detail_synth);
        approx = lo;
    }
    let approx_synth = g.add_block(
        Block::Fir(psdacc_filters::Fir::new(upsample_taps(&g0, 1 << (levels - 1)))),
        &[approx],
    )?;
    branches.push(approx_synth);
    let mut sum = branches[0];
    for &b in &branches[1..] {
        sum = g.add_block(Block::Add, &[sum, b])?;
    }
    g.mark_output(sum);
    Ok(g)
}

/// Seeded random chain-with-forks DAG (always acyclic and realizable).
fn build_random_sfg(nodes: usize, seed: u64) -> Result<Sfg, EngineError> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5FDA_CC00);
    let mut g = Sfg::new();
    let x = g.add_input();
    let mut frontier = vec![x];
    for _ in 0..nodes {
        let src = frontier[rng.gen_range(0usize..frontier.len())];
        let id = match rng.gen_range(0u8..4) {
            0 => g.add_block(Block::Gain(rng.gen_range(-1.5..1.5)), &[src])?,
            1 => g.add_block(Block::Delay(rng.gen_range(1usize..4)), &[src])?,
            2 => {
                let ntaps = rng.gen_range(2usize..6);
                let taps: Vec<f64> = (0..ntaps).map(|_| rng.gen_range(-0.8..0.8)).collect();
                g.add_block(Block::Fir(psdacc_filters::Fir::new(taps)), &[src])?
            }
            _ => {
                let other = frontier[rng.gen_range(0usize..frontier.len())];
                g.add_block(Block::Add, &[src, other])?
            }
        };
        frontier.push(id);
    }
    // Guarantee at least one multiplicative (noise-carrying) block feeds the
    // output, so every plan yields a non-trivial noise budget.
    let last = *frontier.last().expect("non-empty frontier");
    let shaped = g.add_block(Block::Fir(psdacc_filters::Fir::new(vec![0.6, 0.3, 0.1])), &[last])?;
    g.mark_output(shaped);
    Ok(g)
}

/// Shared range checks of the measured-signal families (trace length,
/// Welch segment geometry, downstream FIR size).
fn validate_trace_params(
    family: &str,
    samples: usize,
    nfft: usize,
    overlap: f64,
    taps: usize,
) -> Result<(), EngineError> {
    let max = psdacc_estim::welch::MAX_TRACE_SAMPLES;
    check((256..=max).contains(&samples), &format!("{family} samples must be 256..={max}"))?;
    check(
        nfft.is_power_of_two() && (8..=16384).contains(&nfft),
        &format!("{family} nfft must be a power of two in 8..=16384"),
    )?;
    check(nfft <= samples, &format!("{family} nfft must not exceed samples"))?;
    check((0.0..=0.95).contains(&overlap), &format!("{family} overlap must be in [0, 0.95]"))?;
    check((3..=255).contains(&taps), &format!("{family} taps must be 3..=255"))
}

/// The `measured-welch` graph: input and Welch-estimated measured source
/// summed into a lowpass FIR. The trace is seeded AR(1) noise with a DC
/// offset (exercising both the colored bins and the mean path).
fn build_measured_welch(
    samples: usize,
    seed: u64,
    nfft: usize,
    overlap: f64,
    window: &str,
    beta: Option<f64>,
    taps: usize,
) -> Result<Sfg, EngineError> {
    let win = psdacc_estim::WelchWindow::parse(window, beta)
        .map_err(|e| EngineError::Scenario(format!("measured-welch: {e}")))?;
    let cfg = psdacc_estim::WelchConfig { nfft, overlap, window: win };
    let mut gen = psdacc_dsp::SignalGenerator::new(seed ^ 0x5FDA_CC10);
    let mut x = gen.ar1(samples, 0.9, 0.05);
    for v in &mut x {
        *v += 0.02;
    }
    let est = psdacc_estim::welch_psd(&x, &cfg)
        .map_err(|e| EngineError::Scenario(format!("measured-welch: {e}")))?;
    measured_graph(est.bins, est.mean, taps)
}

/// The `cross-spectrum` graph: two channels share a seeded AR(1) signal
/// plus independent white noise at `snr` dB; the cross-spectrum estimate
/// (which rejects the uncorrelated part) becomes the measured source.
fn build_cross_spectrum(
    samples: usize,
    seed: u64,
    nfft: usize,
    overlap: f64,
    snr: f64,
    taps: usize,
) -> Result<Sfg, EngineError> {
    let cfg = psdacc_estim::WelchConfig { nfft, overlap, window: psdacc_estim::WelchWindow::Hann };
    let mut gen = psdacc_dsp::SignalGenerator::new(seed ^ 0x5FDA_CC20);
    let common = gen.ar1(samples, 0.95, 0.05);
    let noise_sigma = 0.05 * 10f64.powf(-snr / 20.0);
    let na = gen.gaussian_white(samples, noise_sigma);
    let nb = gen.gaussian_white(samples, noise_sigma);
    let a: Vec<f64> = common.iter().zip(&na).map(|(c, n)| c + n).collect();
    let b: Vec<f64> = common.iter().zip(&nb).map(|(c, n)| c + n).collect();
    let est = psdacc_estim::cross_psd(&a, &b, &cfg)
        .map_err(|e| EngineError::Scenario(format!("cross-spectrum: {e}")))?;
    measured_graph(est.bins, est.mean, taps)
}

/// The `sigma-delta` graph: a bit-true 1st/2nd-order modulator runs on a
/// dithered in-band tone; the Welch estimate of the modulation error
/// `y - x` (the shaped quantization noise plus tone leakage) feeds the
/// decimation lowpass as a measured source. Single-rate on purpose —
/// measured sources reject multirate graphs, so the decimator is modeled
/// by its anti-alias filter.
fn build_sigma_delta(
    order: usize,
    osr: usize,
    amp: f64,
    samples: usize,
    seed: u64,
    nfft: usize,
    taps: usize,
) -> Result<Sfg, EngineError> {
    // Tone on an exact Welch bin inside the signal band: bin nfft/(8*osr)
    // (integer because both are powers of two and nfft >= 8*osr).
    let k0 = (nfft / (8 * osr)).max(1);
    let f0 = k0 as f64 / nfft as f64;
    let mut gen = psdacc_dsp::SignalGenerator::new(seed ^ 0x5FDA_CC30);
    let dither = gen.uniform_white(samples, 1e-3);
    let x: Vec<f64> = (0..samples)
        .map(|n| amp * (2.0 * std::f64::consts::PI * f0 * n as f64).sin() + dither[n])
        .collect();
    let y = psdacc_estim::modulate(order, &x)
        .map_err(|e| EngineError::Scenario(format!("sigma-delta: {e}")))?;
    // The loop's signal transfer function is z^-order (each delaying
    // integrator adds one sample); align before differencing, otherwise
    // the tone leaks into the error as (z^-order - 1)*x and buries the
    // shaped noise in band.
    let err: Vec<f64> = y[order..].iter().zip(&x).map(|(y, x)| y - x).collect();
    let cfg =
        psdacc_estim::WelchConfig { nfft, overlap: 0.5, window: psdacc_estim::WelchWindow::Hann };
    let est = psdacc_estim::welch_psd(&err, &cfg)
        .map_err(|e| EngineError::Scenario(format!("sigma-delta: {e}")))?;
    let cutoff = (0.5 / osr as f64).min(0.45);
    let fir = design_fir(BandSpec::Lowpass { cutoff }, taps, psdacc_dsp::Window::Hamming)?;
    let mut g = Sfg::new();
    let xin = g.add_input();
    let m =
        g.add_block(Block::Measured(psdacc_sfg::MeasuredSource::new(est.bins, est.mean)), &[])?;
    let sum = g.add_block(Block::Add, &[xin, m])?;
    let f = g.add_block(Block::Fir(fir), &[sum])?;
    g.mark_output(f);
    Ok(g)
}

/// Shared graph shape of the measured-signal families: quantized input and
/// the estimated source summed into a lowpass FIR.
fn measured_graph(bins: Vec<f64>, mean: f64, taps: usize) -> Result<Sfg, EngineError> {
    let fir = design_fir(BandSpec::Lowpass { cutoff: 0.2 }, taps, psdacc_dsp::Window::Hamming)?;
    let mut g = Sfg::new();
    let x = g.add_input();
    let m = g.add_block(Block::Measured(psdacc_sfg::MeasuredSource::new(bins, mean)), &[])?;
    let sum = g.add_block(Block::Add, &[x, m])?;
    let f = g.add_block(Block::Fir(fir), &[sum])?;
    g.mark_output(f);
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::ScenarioRegistry;

    fn params(pairs: &[(&str, &str)]) -> std::collections::BTreeMap<String, String> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn every_builtin_family_parses_with_defaults() {
        for family in ScenarioRegistry::new().families() {
            let p = if family.name.ends_with("-bank") {
                params(&[("index", "3")])
            } else {
                params(&[])
            };
            let s = ScenarioRegistry::new()
                .parse(&family.name, &p)
                .unwrap_or_else(|e| panic!("{}: {e}", family.name));
            let g = s.build().expect("default scenario builds");
            assert!(!g.outputs().is_empty(), "{}: output marked", family.name);
        }
    }

    /// Store records and cache entries are addressed by `key()`, and fleet
    /// units carry `to_spec_line()`: both strings are pinned exactly, for
    /// every family's defaults and one non-default line.
    #[test]
    fn keys_and_spec_lines_are_pinned_for_every_family() {
        let rows: &[(&str, &str, &str)] = &[
            ("fir-bank index=0", "fir-bank[index=0]", "fir-bank index=0"),
            ("fir-bank index=146", "fir-bank[index=146]", "fir-bank index=146"),
            ("iir-bank index=3", "iir-bank[index=3]", "iir-bank index=3"),
            ("iir-bank index=146", "iir-bank[index=146]", "iir-bank index=146"),
            (
                "fir-cascade",
                "fir-cascade[stages=2,taps=31,cutoff=0.2]",
                "fir-cascade stages=2 taps=31 cutoff=0.2",
            ),
            (
                "fir-cascade stages=3 taps=15 cutoff=0.125",
                "fir-cascade[stages=3,taps=15,cutoff=0.125]",
                "fir-cascade stages=3 taps=15 cutoff=0.125",
            ),
            (
                "iir-cascade",
                "iir-cascade[stages=2,order=4,cutoff=0.2]",
                "iir-cascade stages=2 order=4 cutoff=0.2",
            ),
            (
                "iir-cascade cutoff=0.350 order=6 stages=1",
                "iir-cascade[stages=1,order=6,cutoff=0.35]",
                "iir-cascade stages=1 order=6 cutoff=0.35",
            ),
            ("freq-filter", "freq-filter", "freq-filter"),
            ("dwt-pipeline", "dwt-pipeline[levels=2]", "dwt-pipeline levels=2"),
            ("dwt-pipeline levels=4", "dwt-pipeline[levels=4]", "dwt-pipeline levels=4"),
            ("dwt-decimated", "dwt-decimated[levels=2]", "dwt-decimated levels=2"),
            ("dwt-decimated levels=1", "dwt-decimated[levels=1]", "dwt-decimated levels=1"),
            ("dwt-packet", "dwt-packet[depth=2]", "dwt-packet depth=2"),
            ("dwt-packet depth=3", "dwt-packet[depth=3]", "dwt-packet depth=3"),
            ("random-sfg", "random-sfg[nodes=12,seed=1]", "random-sfg nodes=12 seed=1"),
            (
                "random-sfg nodes=64 seed=18446744073709551615",
                "random-sfg[nodes=64,seed=18446744073709551615]",
                "random-sfg nodes=64 seed=18446744073709551615",
            ),
            (
                "measured-welch",
                "measured-welch[samples=4096,seed=1,nfft=256,overlap=0.5,window=hann,taps=31]",
                "measured-welch samples=4096 seed=1 nfft=256 overlap=0.5 window=hann taps=31",
            ),
            (
                "measured-welch window=hamming overlap=0",
                "measured-welch[samples=4096,seed=1,nfft=256,overlap=0,window=hamming,taps=31]",
                "measured-welch samples=4096 seed=1 nfft=256 overlap=0 window=hamming taps=31",
            ),
            (
                "measured-welch samples=1024 seed=7 nfft=128 overlap=0.25 window=kaiser beta=8.6 \
                 taps=15",
                "measured-welch[samples=1024,seed=7,nfft=128,overlap=0.25,window=kaiser,beta=8.6,\
                 taps=15]",
                "measured-welch samples=1024 seed=7 nfft=128 overlap=0.25 window=kaiser beta=8.6 \
                 taps=15",
            ),
            (
                "cross-spectrum",
                "cross-spectrum[samples=8192,seed=1,nfft=128,overlap=0.5,snr=0,taps=31]",
                "cross-spectrum samples=8192 seed=1 nfft=128 overlap=0.5 snr=0 taps=31",
            ),
            (
                "cross-spectrum samples=2048 seed=5 nfft=64 overlap=0.75 snr=-6.5 taps=15",
                "cross-spectrum[samples=2048,seed=5,nfft=64,overlap=0.75,snr=-6.5,taps=15]",
                "cross-spectrum samples=2048 seed=5 nfft=64 overlap=0.75 snr=-6.5 taps=15",
            ),
            (
                "sigma-delta",
                "sigma-delta[order=2,osr=16,amp=0.5,samples=16384,seed=1,nfft=1024,taps=63]",
                "sigma-delta order=2 osr=16 amp=0.5 samples=16384 seed=1 nfft=1024 taps=63",
            ),
            (
                "sigma-delta order=1 osr=8 amp=1 samples=4096 seed=3 nfft=256 taps=31",
                "sigma-delta[order=1,osr=8,amp=1,samples=4096,seed=3,nfft=256,taps=31]",
                "sigma-delta order=1 osr=8 amp=1 samples=4096 seed=3 nfft=256 taps=31",
            ),
        ];
        let registry = ScenarioRegistry::new();
        let mut keys = std::collections::BTreeSet::new();
        for &(line, key, spec_line) in rows {
            let s = registry.parse_spec_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(s.key(), key, "{line}");
            assert_eq!(s.to_spec_line(), spec_line, "{line}");
            assert_eq!(registry.parse_spec_line(spec_line).unwrap(), s, "{spec_line}");
            assert!(keys.insert(key), "{key} is not distinct");
        }
        let families: std::collections::BTreeSet<String> =
            registry.families().into_iter().map(|f| f.name).collect();
        let pinned: std::collections::BTreeSet<String> =
            rows.iter().map(|(line, ..)| line.split(' ').next().unwrap().to_string()).collect();
        assert_eq!(pinned, families, "every family is pinned");
        // Direct construction addresses the same record as the parsed line.
        let direct = Scenario::FirCascade { stages: 2, taps: 31, cutoff: 0.2 };
        assert_eq!(direct.key(), "fir-cascade[stages=2,taps=31,cutoff=0.2]");
    }

    #[test]
    fn welch_window_spellings_share_one_key() {
        let registry = ScenarioRegistry::new();
        let short = registry.parse_spec_line("measured-welch window=rect").unwrap();
        let long = registry.parse_spec_line("measured-welch window=rectangular").unwrap();
        assert_eq!(short, long, "one window, one scenario");
        assert_eq!(short.key(), long.key(), "one window, one cache and store record");
        assert!(long.key().contains(",window=rect,"), "{}", long.key());
    }

    #[test]
    fn random_sfg_is_deterministic_per_seed() {
        let a = Scenario::RandomSfg { nodes: 20, seed: 7 }.build().unwrap();
        let b = Scenario::RandomSfg { nodes: 20, seed: 7 }.build().unwrap();
        let c = Scenario::RandomSfg { nodes: 20, seed: 8 }.build().unwrap();
        assert_eq!(a.len(), b.len());
        let dot_a = psdacc_sfg::to_dot(&a, "g");
        assert_eq!(dot_a, psdacc_sfg::to_dot(&b, "g"));
        assert_ne!(dot_a, psdacc_sfg::to_dot(&c, "g"));
    }

    #[test]
    fn random_sfgs_are_realizable() {
        for seed in 0..25 {
            let g = Scenario::RandomSfg { nodes: 30, seed }.build().unwrap();
            assert!(psdacc_sfg::is_acyclic(&g), "seed {seed}");
            assert!(psdacc_sfg::check_realizable(&g).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn dwt_pipeline_depth_scales_graph() {
        let g1 = Scenario::DwtPipeline { levels: 1 }.build().unwrap();
        let g3 = Scenario::DwtPipeline { levels: 3 }.build().unwrap();
        assert!(g3.len() > g1.len());
        assert!(psdacc_sfg::check_realizable(&g3).is_ok());
    }

    #[test]
    fn decimated_families_build_multirate_graphs() {
        let octave = Scenario::DwtDecimated { levels: 2 }.build().unwrap();
        assert!(psdacc_sfg::is_multirate(&octave));
        assert!(psdacc_sfg::check_realizable(&octave).is_ok());
        let packet = Scenario::DwtPacket { depth: 2 }.build().unwrap();
        assert!(psdacc_sfg::is_multirate(&packet));
        assert!(packet.len() > octave.len(), "packet splits both bands");
        assert!(Scenario::DwtDecimated { levels: 5 }.validate().is_err());
        assert!(Scenario::DwtPacket { depth: 4 }.validate().is_err());
        assert_eq!(Scenario::DwtDecimated { levels: 2 }.key(), "dwt-decimated[levels=2]");
    }

    #[test]
    fn spec_lines_round_trip() {
        let all = vec![
            Scenario::FirBank { index: 3 },
            Scenario::IirBank { index: 146 },
            Scenario::FirCascade { stages: 2, taps: 31, cutoff: 0.2 },
            Scenario::IirCascade { stages: 3, order: 4, cutoff: 0.15 },
            Scenario::FreqFilter,
            Scenario::DwtPipeline { levels: 2 },
            Scenario::DwtDecimated { levels: 3 },
            Scenario::DwtPacket { depth: 2 },
            Scenario::RandomSfg { nodes: 12, seed: 99 },
            Scenario::MeasuredWelch {
                samples: 1024,
                seed: 7,
                nfft: 128,
                overlap: 0.5,
                window: "hann".to_string(),
                beta: None,
                taps: 15,
            },
            Scenario::MeasuredWelch {
                samples: 2048,
                seed: 2,
                nfft: 64,
                overlap: 0.25,
                window: "kaiser".to_string(),
                beta: Some(8.6),
                taps: 15,
            },
            Scenario::CrossSpectrum {
                samples: 2048,
                seed: 5,
                nfft: 64,
                overlap: 0.5,
                snr: 6.0,
                taps: 15,
            },
            Scenario::SigmaDelta {
                order: 1,
                osr: 8,
                amp: 0.5,
                samples: 4096,
                seed: 3,
                nfft: 256,
                taps: 31,
            },
            Scenario::Graph(
                crate::graphspec::GraphScenario::from_json(
                    r#"{"nodes":[{"name":"x","block":"input"},
                                 {"name":"g","block":"gain","gain":0.7,"inputs":["x"]}],
                        "outputs":["g"]}"#,
                    None,
                )
                .unwrap(),
            ),
        ];
        let registry = ScenarioRegistry::new();
        for s in all {
            let line = s.to_spec_line();
            let back = registry.parse_spec_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, s, "{line}");
        }
        assert!(registry.parse_spec_line("").is_err());
        assert!(registry.parse_spec_line("fir-bank index").is_err());
        assert!(registry.parse_spec_line("fir-bank index=1 index=2").is_err());
    }

    #[test]
    fn bad_parameters_are_rejected() {
        assert!(Scenario::FirBank { index: 147 }.build().is_err());
        let registry = ScenarioRegistry::new();
        assert!(registry.parse("no-such", &params(&[])).is_err());
        assert!(registry.parse("fir-bank", &params(&[])).is_err(), "index required");
        assert!(registry.parse("fir-cascade", &params(&[("bogus", "1")])).is_err());
        assert!(
            registry.parse("fir-cascade", &params(&[("cutoff", "0.9")])).is_err(),
            "parse validates eagerly"
        );
    }
}
