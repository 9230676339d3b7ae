//! Reduced-scale run of the §4.5 sensitivity study (Figures 5–7): how the
//! design tool's solution cost reacts to each failure likelihood.
//!
//! ```text
//! cargo run --release --example failure_sensitivity
//! ```
//! Use `dsd experiment figure5` (likewise `figure6`, `figure7`) for the
//! full paper-scale sweeps.

use dsd::core::Budget;
use dsd::scenarios::experiments::sensitivity::{run, SweepKind};

fn main() {
    let budget = Budget::iterations(40);
    for kind in [SweepKind::DataObject, SweepKind::DiskArray, SweepKind::SiteDisaster] {
        // Sweep the two extremes plus the middle of the paper's range to
        // keep the example snappy.
        let all = kind.paper_rates();
        let picks = [all[0], all[all.len() / 2], *all.last().expect("non-empty range")];
        let fig = run(kind, &picks, budget, 2006);
        print!("{fig}");
        println!();
    }
    println!(
        "expected shape (paper §4.5): cost is relatively insensitive to disk and site\n\
         failure likelihood, but grows sharply once data-object failures become\n\
         frequent enough that added resources can no longer compensate."
    );
}
