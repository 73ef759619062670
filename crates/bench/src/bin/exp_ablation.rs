//! Binary entry point for the ablation experiment (see
//! `psdacc_bench::experiments::ablation`).

fn main() {
    let args = psdacc_bench::Args::parse(psdacc_bench::Dispatch::LocalOnly);
    psdacc_bench::experiments::ablation::run(&args);
}
