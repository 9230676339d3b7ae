//! `dsd-benchmark` command line; see the crate README.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(dsd_benchmark::cli(&args));
}
