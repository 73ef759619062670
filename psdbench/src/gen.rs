//! Seeded workload generation.
//!
//! The benchmark derives every input choice — `random-sfg` graph seeds,
//! measured-trace seeds, the order of the Table I bank sweep, and the
//! word-length / budget points — from the workload seed, and hands the
//! program only the resulting batch-spec text. One seed always yields the
//! same text; different seeds yield different texts of the same size.

use std::fmt::Write as _;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm word-length exploration on the local engine.
    Explore,
    /// Cold scenario campaign: every unit is a cache miss.
    Scan,
    /// The `explore` batch through the work-stealing fleet coordinator.
    Fleet,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "explore" => Ok(Workload::Explore),
            "scan" => Ok(Workload::Scan),
            "fleet" => Ok(Workload::Fleet),
            other => Err(format!("unknown workload `{other}` (explore, scan, fleet)")),
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Scan => "scan",
            Workload::Fleet => "fleet",
        }
    }
}

/// PSD grid of every job the benchmark submits.
pub const NPSD: usize = 1024;

/// SplitMix64: a tiny, fully specified generator, so the spec text for a
/// seed never depends on another crate's RNG stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed` within the stream named `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct values of `pool`, in ascending order.
    pub fn pick<T: Copy + Ord>(&mut self, pool: &[T], k: usize) -> Vec<T> {
        let mut v = pool.to_vec();
        self.shuffle(&mut v);
        v.truncate(k);
        v.sort();
        v
    }
}

/// Seed pools of the `scan` families whose instances the seed chooses.
/// They are finite so that the golden file can hold every instance.
pub const SCAN_RANDOM_NODES: [usize; 3] = [16, 32, 64];
/// `random-sfg` seeds per node count; the seed picks 2.
pub const SCAN_RANDOM_SEEDS: [u64; 4] = [1, 2, 3, 4];
/// `measured-welch` trace seeds; the seed picks 4.
pub const SCAN_WELCH_SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];
/// `cross-spectrum` and `sigma-delta` seeds; the seed picks 2 of each.
pub const SCAN_PAIR_SEEDS: [u64; 3] = [1, 2, 3];
/// Word-lengths of the `scan` psd jobs; the seed picks one.
pub const SCAN_PSD_BITS: [i32; 2] = [12, 16];
/// Word-lengths of the `scan` budget jobs; the seed picks one.
pub const SCAN_BUDGET_BITS: [i32; 2] = [10, 14];
/// Size of the Table I populations (`fir-bank` / `iir-bank` indices).
pub const BANK_SIZE: usize = 147;

/// The batch-spec text of `workload` under `seed`. `fleet` submits the
/// `explore` batch, so both workloads evaluate identical units.
pub fn spec_text(workload: Workload, seed: u64) -> String {
    match workload {
        Workload::Explore | Workload::Fleet => explore_spec(seed),
        Workload::Scan => scan_spec(seed),
    }
}

/// `explore`: warm systems swept across word-lengths and rounding modes
/// — FIR cascades at three cutoffs, an IIR cascade, the multirate codec
/// at three depths, and one seed-chosen random graph.
///
/// Directives expand over the scenarios declared before them, which is
/// how the declaration order below shapes the batch. The seed picks the
/// random graph and the budget-attribution word-lengths; everything else
/// is fixed so that a batch costs about the same under every seed (the
/// timings below are release builds on a 2-vCPU 2.1 GHz x86-64 virtual
/// machine):
///
/// * `flat` covers only the filter cascades. It refuses the multirate
///   codec (no job in a workload may be expected to fail), and on a
///   random graph its cost is a property of the graph: over 60
///   `random-sfg nodes=24` seeds one flat estimate took 0.5 ms at the
///   fastest, 23 ms at the upper quartile and 157 ms at the slowest.
///   The cutoffs avoid the filters on which flat probing runs long (a
///   flat estimate took about 20 ms on a FIR cascade at cutoff 0.15 and
///   about 1 s on the IIR cascade at cutoff 0.3, against 0.05 ms here).
/// * `refine` and `min-uniform` skip the random graph for the same
///   reason (one greedy descent took 0.3 ms to 28 ms across seeds) and
///   use one fixed budget: a seed-chosen budget moved the descent cost of
///   the fixed systems by half.
/// * The round-to-nearest sweep runs on the fixed systems only, so the
///   random graph's seed-dependent share of the batch stays small.
///
/// The batch is large enough (about 70 ms of single-worker work) that a
/// few milliseconds of host preemption do not decide its tail.
pub fn explore_spec(seed: u64) -> String {
    let mut rng = Rng::new(seed, 1);
    let graph_seed = 1 + rng.below(1000);
    let budget_bits = rng.pick(&(6..=24).collect::<Vec<i32>>(), 4);
    let bits = budget_bits.iter().map(i32::to_string).collect::<Vec<_>>().join(",");
    format!(
        "# explore workload, seed {seed}\n\
         scenario fir-cascade stages=2 taps=31 cutoff=0.2,0.25,0.3\n\
         scenario iir-cascade stages=2 order=4 cutoff=0.2\n\
         batch npsd={NPSD} bits=4..40 methods=flat\n\
         batch npsd={NPSD} bits=4..40 methods=flat rounding=nearest\n\
         scenario dwt-decimated levels=1..3\n\
         batch npsd={NPSD} bits=4..40 methods=psd,agnostic rounding=nearest\n\
         refine npsd={NPSD} budget=1e-8 start=16 min=4\n\
         min-uniform npsd={NPSD} budget=1e-8 min=2 max=32\n\
         scenario random-sfg nodes=24 seed={graph_seed}\n\
         batch npsd={NPSD} bits=4..40 methods=psd,agnostic\n\
         budget npsd={NPSD} bits={bits}\n"
    )
}

/// Every `scan` scenario line the seed can choose from, fixed instances
/// first: both Table I banks, the multirate codecs, then each pooled
/// family instance.
pub fn scan_universe() -> Vec<String> {
    let mut lines = fixed_scan_lines();
    for nodes in SCAN_RANDOM_NODES {
        for s in SCAN_RANDOM_SEEDS {
            lines.push(format!("random-sfg nodes={nodes} seed={s}"));
        }
    }
    lines.extend(SCAN_WELCH_SEEDS.iter().map(|s| format!("measured-welch seed={s}")));
    lines.extend(SCAN_PAIR_SEEDS.iter().map(|s| format!("cross-spectrum seed={s}")));
    lines.extend(SCAN_PAIR_SEEDS.iter().map(|s| format!("sigma-delta seed={s}")));
    lines
}

fn fixed_scan_lines() -> Vec<String> {
    let mut lines: Vec<String> = (0..BANK_SIZE)
        .flat_map(|i| [format!("fir-bank index={i}"), format!("iir-bank index={i}")])
        .collect();
    lines.extend((1..=3).map(|l| format!("dwt-decimated levels={l}")));
    lines.extend((1..=2).map(|d| format!("dwt-packet depth={d}")));
    lines
}

/// `scan`: 313 distinct scenarios, each with one psd and one budget job.
///
/// The random graphs lead, largest first, and the seed shuffles the rest.
/// A 64-node graph costs about 300 bank filters of preprocessing (33 ms
/// against 0.1 ms per filter on a 2-vCPU 2.1 GHz x86-64 virtual machine),
/// so where the shuffle dropped the two of them decided how long the
/// second worker idled at the end of the batch: with them shuffled in,
/// batch turnaround moved by a fifth from one seed to the next.
pub fn scan_spec(seed: u64) -> String {
    let mut rng = Rng::new(seed, 2);
    let mut graphs = Vec::new();
    for nodes in SCAN_RANDOM_NODES.iter().rev() {
        for s in rng.pick(&SCAN_RANDOM_SEEDS, 2) {
            graphs.push(format!("random-sfg nodes={nodes} seed={s}"));
        }
    }
    let mut rest = fixed_scan_lines();
    for s in rng.pick(&SCAN_WELCH_SEEDS, 4) {
        rest.push(format!("measured-welch seed={s}"));
    }
    for s in rng.pick(&SCAN_PAIR_SEEDS, 2) {
        rest.push(format!("cross-spectrum seed={s}"));
    }
    for s in rng.pick(&SCAN_PAIR_SEEDS, 2) {
        rest.push(format!("sigma-delta seed={s}"));
    }
    rng.shuffle(&mut rest);
    let psd_bits = SCAN_PSD_BITS[rng.below(SCAN_PSD_BITS.len())];
    let budget_bits = SCAN_BUDGET_BITS[rng.below(SCAN_BUDGET_BITS.len())];
    let mut text = format!("# scan workload, seed {seed}\n");
    for line in graphs.iter().chain(&rest) {
        let _ = writeln!(text, "scenario {line}");
    }
    let _ = writeln!(text, "batch npsd={NPSD} bits={psd_bits} methods=psd");
    let _ = writeln!(text, "budget npsd={NPSD} bits={budget_bits}");
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdacc_engine::BatchSpec;

    #[test]
    fn one_seed_one_text_and_seeds_differ_at_equal_size() {
        for w in [Workload::Explore, Workload::Scan, Workload::Fleet] {
            assert_eq!(spec_text(w, 7), spec_text(w, 7), "{w:?} is not reproducible");
            let a = BatchSpec::parse(&spec_text(w, 7)).unwrap();
            let b = BatchSpec::parse(&spec_text(w, 8)).unwrap();
            assert_ne!(spec_text(w, 7), spec_text(w, 8), "{w:?} ignores its seed");
            assert_ne!(a.jobs(), b.jobs(), "{w:?}: seeds 7 and 8 give the same units");
            assert_eq!(a.num_units(), b.num_units(), "{w:?}: unit count depends on the seed");
            assert_eq!(a.scenarios.len(), b.scenarios.len());
        }
    }

    #[test]
    fn workload_sizes_match_their_definitions() {
        let explore = BatchSpec::parse(&explore_spec(1)).unwrap();
        // 4 cascades x 37 x 2 roundings flat + 7 x 37 x 2 nearest + 7
        // refine + 7 min-uniform + 8 x 37 x 2 truncate + 8 x 4 budget.
        assert_eq!(explore.num_units(), 296 + 518 + 14 + 592 + 32);
        let scan = BatchSpec::parse(&scan_spec(1)).unwrap();
        assert_eq!(scan.scenarios.len(), 313);
        assert_eq!(scan.num_units(), 2 * 313);
        let keys: std::collections::BTreeSet<String> =
            scan.scenarios.iter().map(|s| s.key()).collect();
        assert_eq!(keys.len(), 313, "scan scenarios are distinct");
    }

    #[test]
    fn scan_draws_only_from_its_universe() {
        let universe = scan_universe();
        for seed in 0..20 {
            for line in scan_spec(seed).lines().filter_map(|l| l.strip_prefix("scenario ")) {
                assert!(universe.iter().any(|u| u == line), "{line} outside the universe");
            }
        }
    }
}
