#![warn(missing_docs)]

//! Library backing the `dsd` command-line tool.
//!
//! * [`spec`] — the TOML environment specification format and its
//!   conversion to a solver [`dsd_core::Environment`];
//! * [`saved`] — JSON (de)serialization of solved designs, so a design
//!   can be stored, re-loaded and re-evaluated under different failure
//!   assumptions;
//! * [`report`] — markdown design reports (`dsd design --report`);
//! * [`commands`] — the subcommand implementations shared by the binary
//!   and the integration tests;
//! * [`live`] — the `--progress` live status line;
//! * [`convergence`] — the one fold over the progress events of a live
//!   run, a progress log or a trace: the live line and `dsd obs curve`'s
//!   convergence reports.
//!
//! # Example spec
//!
//! ```toml
//! [[applications]]
//! profile = "central-banking"
//! count = 2
//!
//! [[applications]]
//! name = "custom oltp"
//! code = "X"
//! outage_per_hour = 1_000_000.0
//! loss_per_hour = 100_000.0
//! capacity_gb = 2000.0
//! avg_update_mbps = 3.0
//! peak_update_mbps = 30.0
//! avg_access_mbps = 30.0
//!
//! [[sites]]
//! name = "P1"
//! arrays = ["xp1200", "msa1500"]
//! tape_libraries = ["high"]
//! compute = 8
//!
//! [[sites]]
//! name = "P2"
//! arrays = ["xp1200", "msa1500"]
//! tape_libraries = ["high"]
//! compute = 8
//!
//! [network]
//! class = "high"
//!
//! [failures]
//! data_object_per_year = 0.333
//! disk_array_per_year = 0.333
//! site_disaster_per_year = 0.2
//! ```

pub mod commands;
pub mod convergence;
pub mod live;
pub mod report;
pub mod saved;
pub mod spec;

pub use spec::{EnvironmentSpec, SpecError};

/// Writes `text` to stderr, the one path every stderr line of `dsd`
/// takes. A write error is ignored: with stderr closed (its reader
/// gone) there is nowhere left to report it, and the exit code still
/// tells the outcome.
pub fn write_stderr(text: &str) {
    use std::io::Write as _;
    let mut stderr = std::io::stderr().lock();
    let _ = stderr.write_all(text.as_bytes()).and_then(|()| stderr.flush());
}
