//! Binary entry point for the fig4 experiment (see `psdacc_bench::experiments::fig4`).

fn main() {
    let args = psdacc_bench::Args::parse(psdacc_bench::Dispatch::Batches);
    psdacc_bench::experiments::fig4::run(&args);
}
