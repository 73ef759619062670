//! Binary entry point for the table2 experiment (see `psdacc_bench::experiments::table2`).

fn main() {
    let args = psdacc_bench::Args::parse(psdacc_bench::Dispatch::Batches);
    psdacc_bench::experiments::table2::run(&args);
}
