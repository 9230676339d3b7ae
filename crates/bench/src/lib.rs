#![warn(missing_docs)]

//! Shared plumbing for the experiment binaries and benches.
//!
//! Each binary regenerates one table/figure of the paper's evaluation
//! (§4); the Criterion benches in `benches/` time the same drivers at
//! reduced budgets. Run a binary with, e.g.:
//!
//! ```text
//! cargo run -p dsd-bench --release --bin table4
//! DSD_BUDGET=500 DSD_SEED=7 cargo run -p dsd-bench --release --bin figure3
//! ```

use dsd_core::Budget;

/// Default solver iteration budget for the experiment binaries
/// (overridable via `DSD_BUDGET`).
pub const DEFAULT_BUDGET_ITERATIONS: u64 = 300;

/// Default RNG seed for the experiment binaries (overridable via
/// `DSD_SEED`).
pub const DEFAULT_SEED: u64 = 2006;

/// Reads an integer environment variable with a default.
#[must_use]
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The iteration budget for a binary run: `DSD_BUDGET` or the default.
#[must_use]
pub fn budget_from_env() -> Budget {
    Budget::iterations(env_u64("DSD_BUDGET", DEFAULT_BUDGET_ITERATIONS))
}

/// The seed for a binary run: `DSD_SEED` or the default.
#[must_use]
pub fn seed_from_env() -> u64 {
    env_u64("DSD_SEED", DEFAULT_SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_u64_parses_and_defaults() {
        std::env::remove_var("DSD_TEST_MISSING");
        assert_eq!(env_u64("DSD_TEST_MISSING", 42), 42);
        std::env::set_var("DSD_TEST_SET", "17");
        assert_eq!(env_u64("DSD_TEST_SET", 42), 17);
        std::env::set_var("DSD_TEST_BAD", "xyz");
        assert_eq!(env_u64("DSD_TEST_BAD", 42), 42);
    }
}
