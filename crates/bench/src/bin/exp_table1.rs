//! Binary entry point for the table1 experiment (see `psdacc_bench::experiments::table1`).

fn main() {
    let args = psdacc_bench::Args::parse(psdacc_bench::Dispatch::Batches);
    psdacc_bench::experiments::table1::run(&args);
}
