//! Runs every experiment in sequence (Tables I-II, Figs. 4-7), locally:
//! Figs. 6 and 7 run in-process, so `--daemons` is a usage error here.

fn main() {
    let args = psdacc_bench::Args::parse(psdacc_bench::Dispatch::LocalOnly);
    psdacc_bench::experiments::table1::run(&args);
    println!();
    psdacc_bench::experiments::fig4::run(&args);
    println!();
    psdacc_bench::experiments::fig5::run(&args);
    println!();
    psdacc_bench::experiments::table2::run(&args);
    println!();
    psdacc_bench::experiments::fig6::run(&args);
    println!();
    psdacc_bench::experiments::fig7::run(&args);
}
