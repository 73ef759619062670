//! Table I and Table II at small scale, pinned bit-for-bit: the local
//! run must reproduce the figures captured before both tables moved onto
//! `fleet::batch_powers`, and a run through two loopback daemons must
//! reproduce the local run exactly.

use psdacc_bench::experiments::table1::{self, FamilyStats};
use psdacc_bench::experiments::table2::{self, SystemComparison};
use psdacc_bench::Args;
use psdacc_engine::Engine;
use psdacc_fixed::RoundingMode;
use psdacc_serve::{Server, ServerHandle};

/// Table I subsampled every 21st filter (7 per family).
const TABLE1_STRIDE: usize = 21;

fn small_args() -> Args {
    Args { samples: 8192, npsd: 256, ..Args::default() }
}

/// `min_ed`, `max_ed`, `mean_abs_ed`, `max_flat_gap` as bit patterns,
/// then the count.
fn family_bits(s: &FamilyStats) -> ([u64; 4], usize) {
    ([s.min_ed, s.max_ed, s.mean_abs_ed, s.max_flat_gap].map(f64::to_bits), s.count)
}

/// `ed_psd_coarse`, `ed_psd_fine`, `ed_agnostic` as bit patterns.
fn system_bits(s: &SystemComparison) -> [u64; 3] {
    [s.ed_psd_coarse, s.ed_psd_fine, s.ed_agnostic].map(f64::to_bits)
}

type Figures = (([u64; 4], usize), ([u64; 4], usize), [u64; 3], [u64; 3]);

fn figures(args: &Args) -> Figures {
    let (fir, iir) = table1::run_with_stride(args, TABLE1_STRIDE);
    let (freq, dwt) = table2::compare(args, 12, RoundingMode::RoundNearest);
    (family_bits(&fir), family_bits(&iir), system_bits(&freq), system_bits(&dwt))
}

fn spawn_daemon() -> ServerHandle {
    Server::bind("127.0.0.1:0", Engine::new(2)).unwrap().spawn().unwrap()
}

#[test]
fn local_tables_match_the_captured_figures() {
    let (fir, iir, freq, dwt) = figures(&small_args());
    assert_eq!(
        fir,
        ([0xbf7b5bdb8d7ccf61, 0x3f78d3fc5344987c, 0x3f71a50076aeb873, 0x3cbd8443d8fc6b11], 7),
        "Table I FIR"
    );
    assert_eq!(
        iir,
        ([0xbf8fac3d82f0417a, 0x3f99e719795d46c7, 0x3f896a3252b81457, 0x3eb5d3a76b62cd64], 7),
        "Table I IIR"
    );
    assert_eq!(freq, [0xbf54fdf686f00370, 0xbf550845baf2e101, 0x3fbd68c388d7d9f2], "Table II freq");
    assert_eq!(dwt, [0x3fa6f5beb03602e9, 0x3fa77b210df81db3, 0x3ff4c9b857c533c2], "Table II dwt");
}

#[test]
fn fleet_tables_are_bit_identical_to_local() {
    let local = figures(&small_args());
    let daemons = [spawn_daemon(), spawn_daemon()];
    let args =
        Args { daemons: daemons.iter().map(|d| d.addr().to_string()).collect(), ..small_args() };
    let fleet = figures(&args);
    for daemon in daemons {
        daemon.shutdown();
    }
    assert_eq!(fleet, local);
}
