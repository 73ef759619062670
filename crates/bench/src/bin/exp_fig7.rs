//! Binary entry point for the fig7 experiment (see `psdacc_bench::experiments::fig7`).

fn main() {
    let args = psdacc_bench::Args::parse(psdacc_bench::Dispatch::LocalOnly);
    psdacc_bench::experiments::fig7::run(&args);
}
