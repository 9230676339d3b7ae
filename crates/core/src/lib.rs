#![warn(missing_docs)]

//! The automated design tool for dependable storage solutions.
//!
//! This crate is the paper's primary contribution (§3): given an
//! [`Environment`] (application workloads, site topology, device catalog,
//! failure model), it searches for the storage solution minimizing
//! overall annual cost = amortized outlays + expected penalties.
//!
//! The search is decomposed into two levels:
//!
//! * the **design solver** ([`DesignSolver`], Algorithm 1) chooses data
//!   protection techniques and resource placements per application — a
//!   greedy best-fit stage builds a feasible initial design, then a refit
//!   stage explores the design graph (breadth `b`, depth `d`) via
//!   randomized [`Reconfigurator`] moves until a local optimum;
//! * the **configuration solver** ([`ConfigurationSolver`], §3.2)
//!   completes a candidate: it exhaustively searches each technique's
//!   discretized parameter space and keeps adding resources (links,
//!   drives, disks) while that lowers overall cost.
//!
//! Baselines from the paper's evaluation (§4.1, §4.3.1) are provided in
//! [`heuristics`]: an emulated human architect, a feasibility-checked
//! random design picker, and a pure random sampler for mapping the
//! solution-space distribution.
//!
//! # Examples
//!
//! ```no_run
//! use dsd_core::{DesignSolver, Budget, Environment};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! # fn env() -> Environment { unimplemented!() }
//! let environment = env();
//! let mut rng = ChaCha8Rng::seed_from_u64(1);
//! let solver = DesignSolver::new(&environment);
//! let outcome = solver.solve(Budget::iterations(50), &mut rng);
//! if let Some(best) = outcome.best {
//!     println!("total annual cost: {}", best.cost().total());
//! }
//! ```

pub mod bounds;
mod budget;
mod candidate;
mod config_solver;
mod delta;
mod design_solver;
mod env;
pub mod eval_cache;
mod exhaustive;
mod explain;
pub mod heuristics;
mod objective;
mod portfolio;
mod reconfigure;
mod search;
mod tournament;

pub use bounds::{lower_bound, AppBound, Certificate, LowerBound};
pub use budget::Budget;
pub use candidate::{AppAssignment, Candidate, CostBreakdown, PlacementOptions};
pub use config_solver::{ConfigurationSolver, Thoroughness};
pub use delta::{scenario_digests, Move, MoveUndo};
pub use design_solver::{DesignSolver, RefitParams, SolveOutcome, SolveStats};
pub use dsd_recovery::{ScenarioDigest, ScenarioOutcomeCache};
pub use env::Environment;
pub use eval_cache::{CacheStats, CandidateKey, EvalCache, DEFAULT_CACHE_CAPACITY};
pub use exhaustive::{
    combination_count, exhaustive_optimal, exhaustive_optimal_with, ExhaustiveError,
    ExhaustiveOptions, ExhaustiveResult, MAX_COMBINATIONS,
};
pub use explain::{technique_marginals, CostAttribution, RunnerUp, TechniqueMarginal};
pub use objective::Objective;
pub use portfolio::{Portfolio, PortfolioOutcome};
pub use reconfigure::Reconfigurator;
pub use tournament::{
    run_tournament, HeuristicEntry, HeuristicSummary, InstanceResult, TournamentConfig,
    TournamentReport,
};
