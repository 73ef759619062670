//! Binary entry point for the fig5 experiment (see `psdacc_bench::experiments::fig5`).

fn main() {
    let args = psdacc_bench::Args::parse(psdacc_bench::Dispatch::Batches);
    psdacc_bench::experiments::fig5::run(&args);
}
