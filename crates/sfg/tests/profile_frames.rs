//! The single-rate frequency solve is profiled without being perturbed:
//! `preprocess` on a small FIR graph returns bit-identical responses with
//! and without a profiler installed, and the profiled run records the
//! per-node `block_response` frames and the per-bin-chunk `solve` frames.
//!
//! The profiler global is process-wide and first-install-wins, so the
//! unprofiled run, the install, and the profiled run are ordered inside a
//! single test body in their own integration binary.

use std::sync::Arc;

use psdacc_filters::Fir;
use psdacc_obs::profile::{self, Profiler};
use psdacc_sfg::{preprocess, Block, NodeId, NodeResponses, Preprocessed, Sfg};

const NPSD: usize = 64;

/// `x → FIR → gain → FIR`, with a feed-forward tap summed into the output.
fn fir_graph() -> (Sfg, NodeId) {
    let mut g = Sfg::new();
    let x = g.add_input();
    let f1 = g.add_block(Block::Fir(Fir::new(vec![0.25, 0.5, 0.25])), &[x]).expect("valid");
    let k = g.add_block(Block::Gain(0.8), &[f1]).expect("valid");
    let f2 = g.add_block(Block::Fir(Fir::new(vec![0.5, -0.2, 0.1, 0.05])), &[k]).expect("valid");
    let out = g.add_block(Block::Add, &[f2, f1]).expect("valid");
    g.mark_output(out);
    (g, out)
}

fn single_rate(sfg: &Sfg, output: NodeId) -> NodeResponses {
    match preprocess(sfg, output, NPSD).expect("single-rate FIR graph preprocesses") {
        Preprocessed::SingleRate(responses) => responses,
        Preprocessed::Multirate(_) => panic!("a graph without rate changers solved as multirate"),
    }
}

/// Every response value as raw bits, so the comparison is exact.
fn bits(responses: &NodeResponses) -> Vec<Vec<(u64, u64)>> {
    responses
        .rows()
        .iter()
        .map(|row| row.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect())
        .collect()
}

#[test]
fn single_rate_frames_are_recorded_and_change_nothing() {
    let (g, out) = fir_graph();
    assert!(profile::profiler().is_none(), "nothing installs a profiler before this test");
    let unprofiled = single_rate(&g, out);

    assert!(profile::install(Arc::new(Profiler::new())));
    let profiled = single_rate(&g, out);
    let snapshot = profile::profiler().expect("installed above").take();

    assert_eq!(bits(&profiled), bits(&unprofiled), "profiling changed the responses");
    assert_eq!(profiled.npsd(), unprofiled.npsd());

    let paths: Vec<&str> = snapshot.frames.iter().map(|f| f.path.as_str()).collect();
    for i in 0..g.len() {
        let node = format!("preprocess;single_rate;block_response;node[{i}]");
        assert!(paths.contains(&node.as_str()), "missing {node} in {paths:?}");
    }
    let prefix = "preprocess;single_rate;solve;bins[";
    assert!(
        paths.iter().any(|p| p.strip_prefix(prefix).is_some_and(|r| r.starts_with("0.."))),
        "missing the first bin chunk in {paths:?}"
    );
    // The chunk frames tile the whole grid, each bin exactly once.
    let mut chunks: Vec<(usize, usize)> = paths
        .iter()
        .filter_map(|p| p.strip_prefix(prefix)?.strip_suffix(']'))
        .map(|range| {
            let (k0, k1) = range.split_once("..").expect("bins[k0..k1]");
            (k0.parse().expect("k0"), k1.parse().expect("k1"))
        })
        .collect();
    chunks.sort_unstable();
    assert_eq!(chunks.first().map(|c| c.0), Some(0));
    assert_eq!(chunks.last().map(|c| c.1), Some(NPSD));
    assert!(chunks.windows(2).all(|w| w[0].1 == w[1].0), "bin chunks overlap or leave gaps");
}
