#![warn(missing_docs)]

//! Recovery evaluation engine for multi-application storage designs.
//!
//! This crate extends the single-application dependability evaluation of
//! Keeton & Merchant (DSN 2004) to shared environments, as the paper's §3.2
//! requires:
//!
//! * **recent data loss time** (§3.2.1) — for each failed application,
//!   the staleness of the surviving copy chosen for recovery (the
//!   accessible copy with minimum staleness);
//! * **recovery time** (§3.2.2) — a deterministic simulation of the
//!   recovery process in which unaffected applications keep running with
//!   their assigned resources, and competing recovery operations on a
//!   shared device are *serialized in priority order* (priority = sum of
//!   the application's penalty rates);
//! * **penalties** — expected annual outage and recent-loss penalties,
//!   likelihood-weighted over all failure scenarios (§2.5).
//!
//! The main entry point is [`Evaluator`]. Inputs are the per-application
//! [`AppProtection`] records (technique + configuration + [`Placement`]),
//! the provisioned infrastructure, and a failure scenario list. One
//! penalty fold prices every scenario, with three ways in: the totals
//! ([`Evaluator::annual_penalties`]), the totals with scope-keyed
//! memoization and an early exit once a caller's bound is reached
//! ([`Evaluator::annual_penalties_cached`]), and the totals
//! with one [`PenaltyItem`] per (scenario × affected application)
//! ([`Evaluator::annual_penalties_attributed`]). The items are the one
//! per-scenario record the reports read: [`Availability::from_items`]
//! and [`Evaluator::vulnerability_windows`] fold them without
//! scheduling a recovery again.
//!
//! # Examples
//!
//! See the integration tests; building a full input requires
//! workloads, a topology and a provision.

mod evaluate;
mod policy;
mod protection;
mod scenario_cache;
mod scheduler;
mod survival;
mod vulnerability;

pub use evaluate::{
    AppOutcome, Availability, Evaluator, PenaltyItem, PenaltySummary, RecoveryPath, ScenarioOutcome,
};
pub use policy::RecoveryPolicy;
pub use protection::{AppProtection, Placement};
pub use scenario_cache::{ScenarioDigest, ScenarioOutcomeCache, SCENARIO_CACHE_WAYS};
pub use scheduler::{schedule_jobs_with, JobDevices, RecoveryJob, Schedule, SchedulingPolicy};
pub use survival::surviving_copies;
pub use vulnerability::VulnerabilityWindow;
