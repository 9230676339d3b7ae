//! Solver tournament: heuristics vs. the exhaustive optimum vs. the bound.
//!
//! Races the greedy design solver, simulated annealing, and tabu search
//! against [`crate::exhaustive_optimal_with`] across a seeded grid of
//! small environments (2–6 applications × catalog subsets), recording
//! each heuristic's gap to the exhaustive optimum (where the space is
//! small enough to enumerate) and to the relaxation lower bound
//! (everywhere). Every instance also checks the certified ordering
//! `lower_bound ≤ exhaustive ≤ heuristic`; violations indicate a bug in
//! the bound or the evaluator and are surfaced as counters so `dsd
//! tournament` (and with it CI) can fail on them.
//!
//! To make the exhaustive reference a true floor, heuristics run with
//! resource additions disabled (`with_addition_limits(0, 0)`): every
//! reconfiguration move lands on a grid configuration and the `Full`
//! polish only explores the discrete configuration grid — exactly the
//! space the exhaustive reference enumerates with
//! [`crate::ExhaustiveOptions::config_grid`].

use std::fmt;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::sync::Arc;

use dsd_failure::{FailureModel, FailureRates};
use dsd_protection::{Technique, TechniqueCatalog};
use dsd_resources::{DeviceSpec, NetworkSpec, Site, Topology};
use dsd_units::Dollars;
use dsd_workload::WorkloadSet;

use crate::bounds::{lower_bound, CERTIFICATE_TOLERANCE};
use crate::budget::Budget;
use crate::design_solver::DesignSolver;
use crate::env::Environment;
use crate::exhaustive::{combination_count, exhaustive_optimal_with, ExhaustiveOptions};
use crate::heuristics::{SimulatedAnnealing, TabuSearch};

/// Tournament grid parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentConfig {
    /// Base RNG seed; each (instance, heuristic) pair derives its own
    /// sub-seed, so runs are reproducible.
    pub seed: u64,
    /// Iteration budget per heuristic per instance.
    pub budget: u64,
    /// Application counts raced (the paper mix is drawn cyclically).
    pub app_counts: Vec<usize>,
    /// Skip the exhaustive reference when the (config-grid) space
    /// exceeds this many combinations; gap-to-bound is still recorded.
    pub max_exhaustive: u128,
}

impl Default for TournamentConfig {
    fn default() -> Self {
        TournamentConfig {
            seed: 2006,
            budget: 40,
            app_counts: vec![2, 3, 4, 5, 6],
            max_exhaustive: 200_000,
        }
    }
}

/// One heuristic's result on one instance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HeuristicEntry {
    /// Heuristic name (`greedy`, `annealing`, `tabu`).
    pub heuristic: String,
    /// Total annual cost of the best design found, absent when the
    /// heuristic found no feasible design within the budget.
    pub cost: Option<f64>,
    /// Gap to the relaxation lower bound, percent (≥ 0).
    pub gap_to_bound_pct: Option<f64>,
    /// Gap to the exhaustive optimum, percent (≥ 0); absent when the
    /// space was too large to enumerate.
    pub gap_to_exhaustive_pct: Option<f64>,
}

/// One tournament instance: an environment plus every racer's result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InstanceResult {
    /// Human-readable label, e.g. `"4 apps × table2"`.
    pub label: String,
    /// Number of applications.
    pub apps: usize,
    /// Catalog subset name.
    pub catalog: String,
    /// Size of the config-grid exhaustive space (saturating at
    /// `u64::MAX`).
    pub combinations: u64,
    /// The relaxation lower bound for the instance.
    pub lower_bound: f64,
    /// Exhaustive optimum cost, when the space was enumerable and a
    /// feasible design exists.
    pub exhaustive: Option<f64>,
    /// Per-heuristic results.
    pub entries: Vec<HeuristicEntry>,
}

/// Aggregated gap distribution of one heuristic across the grid.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HeuristicSummary {
    /// Heuristic name.
    pub heuristic: String,
    /// Instances where the heuristic produced a design.
    pub instances: u64,
    /// Worst gap to the bound across those instances, percent.
    pub worst_gap_to_bound_pct: f64,
    /// Mean gap to the bound, percent.
    pub mean_gap_to_bound_pct: f64,
    /// Instances where the exhaustive reference completed.
    pub exhaustive_instances: u64,
    /// Worst gap to the exhaustive optimum, percent.
    pub worst_gap_to_exhaustive_pct: f64,
    /// Mean gap to the exhaustive optimum, percent.
    pub mean_gap_to_exhaustive_pct: f64,
}

/// Full tournament output: per-instance table plus per-heuristic
/// summaries and soundness counters.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TournamentReport {
    /// Base seed the grid ran under.
    pub seed: u64,
    /// Iteration budget per heuristic per instance.
    pub budget: u64,
    /// Every raced instance.
    pub instances: Vec<InstanceResult>,
    /// Gap distributions per heuristic.
    pub summary: Vec<HeuristicSummary>,
    /// Times any achieved cost fell below the lower bound (must be 0).
    pub bound_violations: u64,
    /// Times a heuristic beat the exhaustive optimum on its own search
    /// space, or the exhaustive optimum fell below the bound (must be 0).
    pub ordering_violations: u64,
}

impl TournamentReport {
    /// Total soundness violations; nonzero means the bound or the
    /// evaluator is buggy.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.bound_violations + self.ordering_violations
    }
}

/// The catalog subsets raced: the full Table 2 catalog and its
/// mirror-bearing rows only.
fn catalog_subsets() -> Vec<(&'static str, TechniqueCatalog)> {
    let full = TechniqueCatalog::table2();
    let mirrors: Vec<Technique> = full.iter().filter(|t| t.has_mirror()).cloned().collect();
    vec![("table2", full), ("mirrors", TechniqueCatalog::new(mirrors))]
}

/// The paper-style two-site environment every instance runs on.
fn instance_env(apps: usize, catalog: TechniqueCatalog) -> Environment {
    let mk = |i: usize| {
        Site::new(i, format!("T{i}"))
            .with_array_slot(DeviceSpec::xp1200())
            .with_tape_library(DeviceSpec::tape_library_high())
            .with_compute(8)
    };
    Environment::new(
        WorkloadSet::scaled_paper_mix(apps),
        Arc::new(Topology::fully_connected(vec![mk(0), mk(1)], NetworkSpec::high())),
        catalog,
        FailureModel::new(FailureRates::case_study()),
    )
}

/// Derives a per-(instance, heuristic) sub-seed from the base seed.
fn sub_seed(seed: u64, instance: usize, heuristic: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((instance as u64) << 8)
        .wrapping_add(heuristic as u64)
}

fn gap_pct(cost: f64, reference: f64) -> f64 {
    if reference > 0.0 && cost.is_finite() {
        ((cost - reference) / reference * 100.0).max(0.0)
    } else {
        0.0
    }
}

const HEURISTICS: [&str; 3] = ["greedy", "annealing", "tabu"];

/// Runs the tournament grid and aggregates the report.
#[must_use]
pub fn run_tournament(config: &TournamentConfig) -> TournamentReport {
    let mut instances = Vec::new();
    let mut bound_violations = 0u64;
    let mut ordering_violations = 0u64;
    let budget = Budget::iterations(config.budget);
    let mut instance_idx = 0usize;

    for &apps in &config.app_counts {
        for (catalog_name, catalog) in catalog_subsets() {
            let env = instance_env(apps, catalog);
            let lb = lower_bound(&env).total.as_f64();
            let floor = lb * (1.0 - CERTIFICATE_TOLERANCE);

            let options = ExhaustiveOptions { limit: config.max_exhaustive, config_grid: true };
            let combinations = combination_count(&env, &options);
            let exhaustive = exhaustive_optimal_with(&env, options)
                .ok()
                .and_then(|r| r.best.map(|b| b.cost().total().as_f64()));
            if let Some(exact) = exhaustive {
                if exact < floor {
                    ordering_violations += 1;
                }
            }

            let mut entries = Vec::new();
            for (h_idx, name) in HEURISTICS.iter().enumerate() {
                let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(config.seed, instance_idx, h_idx));
                let outcome = match h_idx {
                    0 => DesignSolver::new(&env).with_addition_limits(0, 0).solve(budget, &mut rng),
                    1 => SimulatedAnnealing::new(&env)
                        .with_addition_limits(0, 0)
                        .solve(budget, &mut rng),
                    _ => TabuSearch::new(&env).with_addition_limits(0, 0).solve(budget, &mut rng),
                };
                let cost = outcome.best.as_ref().map(|b| b.cost().total().as_f64());
                if let Some(c) = cost {
                    if c < floor {
                        bound_violations += 1;
                    }
                    if let Some(exact) = exhaustive {
                        if c < exact * (1.0 - CERTIFICATE_TOLERANCE) {
                            ordering_violations += 1;
                        }
                    }
                }
                entries.push(HeuristicEntry {
                    heuristic: (*name).to_string(),
                    cost,
                    gap_to_bound_pct: cost.map(|c| gap_pct(c, lb)),
                    gap_to_exhaustive_pct: match (cost, exhaustive) {
                        (Some(c), Some(e)) => Some(gap_pct(c, e)),
                        _ => None,
                    },
                });
            }

            instances.push(InstanceResult {
                label: format!("{apps} apps × {catalog_name}"),
                apps,
                catalog: catalog_name.to_string(),
                combinations: u64::try_from(combinations).unwrap_or(u64::MAX),
                lower_bound: lb,
                exhaustive,
                entries,
            });
            instance_idx += 1;
        }
    }

    let summary = summarize(&instances);
    TournamentReport {
        seed: config.seed,
        budget: config.budget,
        instances,
        summary,
        bound_violations,
        ordering_violations,
    }
}

fn summarize(instances: &[InstanceResult]) -> Vec<HeuristicSummary> {
    HEURISTICS
        .iter()
        .map(|name| {
            let mut bound_gaps = Vec::new();
            let mut exh_gaps = Vec::new();
            for inst in instances {
                for e in inst.entries.iter().filter(|e| e.heuristic == *name) {
                    if let Some(g) = e.gap_to_bound_pct {
                        bound_gaps.push(g);
                    }
                    if let Some(g) = e.gap_to_exhaustive_pct {
                        exh_gaps.push(g);
                    }
                }
            }
            let stats = |gaps: &[f64]| {
                let worst = gaps.iter().copied().fold(0.0f64, f64::max);
                let mean = if gaps.is_empty() {
                    0.0
                } else {
                    gaps.iter().sum::<f64>() / gaps.len() as f64
                };
                (worst, mean)
            };
            let (worst_bound, mean_bound) = stats(&bound_gaps);
            let (worst_exh, mean_exh) = stats(&exh_gaps);
            HeuristicSummary {
                heuristic: (*name).to_string(),
                instances: bound_gaps.len() as u64,
                worst_gap_to_bound_pct: worst_bound,
                mean_gap_to_bound_pct: mean_bound,
                exhaustive_instances: exh_gaps.len() as u64,
                worst_gap_to_exhaustive_pct: worst_exh,
                mean_gap_to_exhaustive_pct: mean_exh,
            }
        })
        .collect()
}

fn money(v: f64) -> String {
    Dollars::new(v.max(0.0)).to_string()
}

impl fmt::Display for TournamentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Tournament: {} instances, seed {}, budget {} iterations",
            self.instances.len(),
            self.seed,
            self.budget
        )?;
        writeln!(
            f,
            "{:<18} {:>10} {:>10} {:>10}  heuristic gaps (vs exhaustive | vs bound)",
            "instance", "combos", "bound", "exhaustive"
        )?;
        for inst in &self.instances {
            let exh = match inst.exhaustive {
                Some(e) => money(e),
                None => "—".to_string(),
            };
            let cells: Vec<String> = inst
                .entries
                .iter()
                .map(|e| {
                    let gap = match (e.gap_to_exhaustive_pct, e.gap_to_bound_pct) {
                        (Some(g), Some(b)) => format!("+{g:.1}%|+{b:.1}%"),
                        (None, Some(b)) => format!("—|+{b:.1}%"),
                        _ => "infeasible".to_string(),
                    };
                    format!("{} {}", e.heuristic, gap)
                })
                .collect();
            writeln!(
                f,
                "{:<18} {:>10} {:>10} {:>10}  {}",
                inst.label,
                inst.combinations,
                money(inst.lower_bound),
                exh,
                cells.join("  ")
            )?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "{:<10} {:>6} {:>12} {:>12} {:>6} {:>12} {:>12}",
            "heuristic", "n", "worst vs LB", "mean vs LB", "n_exh", "worst vs EXH", "mean vs EXH"
        )?;
        for s in &self.summary {
            writeln!(
                f,
                "{:<10} {:>6} {:>11.2}% {:>11.2}% {:>6} {:>11.2}% {:>11.2}%",
                s.heuristic,
                s.instances,
                s.worst_gap_to_bound_pct,
                s.mean_gap_to_bound_pct,
                s.exhaustive_instances,
                s.worst_gap_to_exhaustive_pct,
                s.mean_gap_to_exhaustive_pct,
            )?;
        }
        write!(
            f,
            "violations: bound={} ordering={}",
            self.bound_violations, self.ordering_violations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> TournamentConfig {
        TournamentConfig { seed: 11, budget: 8, app_counts: vec![2], max_exhaustive: 50_000 }
    }

    #[test]
    fn tournament_grid_is_sound_and_complete() {
        let report = run_tournament(&smoke_config());
        assert_eq!(report.instances.len(), 2, "one app count × two catalog subsets");
        assert_eq!(report.violations(), 0, "{report}");
        for inst in &report.instances {
            assert!(inst.lower_bound > 0.0);
            assert_eq!(inst.entries.len(), 3);
            // The certified sandwich on every enumerated instance.
            if let Some(exact) = inst.exhaustive {
                assert!(inst.lower_bound <= exact * (1.0 + CERTIFICATE_TOLERANCE));
                for e in &inst.entries {
                    if let Some(cost) = e.cost {
                        assert!(
                            exact <= cost * (1.0 + CERTIFICATE_TOLERANCE),
                            "{}: heuristic {cost} beat exhaustive {exact}",
                            e.heuristic
                        );
                    }
                }
            }
        }
        assert_eq!(report.summary.len(), 3);
        let rendered = report.to_string();
        assert!(rendered.contains("violations: bound=0 ordering=0"), "{rendered}");
    }

    #[test]
    fn tournament_is_deterministic_under_seed() {
        let a = run_tournament(&smoke_config());
        let b = run_tournament(&smoke_config());
        assert_eq!(a, b);
    }

    #[test]
    fn report_serializes_to_a_named_map() {
        let report = run_tournament(&TournamentConfig {
            app_counts: vec![2],
            budget: 4,
            ..TournamentConfig::default()
        });
        let value = report.serialize();
        assert!(value.get("instances").is_some());
        assert!(value.get("bound_violations").is_some());
        let text = serde_json::to_string_pretty(&value);
        assert!(text.is_ok());
    }
}
