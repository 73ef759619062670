//! Binary entry point for the fig6 experiment (see `psdacc_bench::experiments::fig6`).

fn main() {
    let args = psdacc_bench::Args::parse(psdacc_bench::Dispatch::LocalOnly);
    psdacc_bench::experiments::fig6::run(&args);
}
