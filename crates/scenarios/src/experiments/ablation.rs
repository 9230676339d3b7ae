//! Ablation study over the design tool's own design choices.
//!
//! Not a paper figure — this quantifies the ingredients the paper's §3
//! argues for (and the extensions this reproduction adds), on the
//! peer-sites case study:
//!
//! * the refit stage vs. greedy-only (value of the local search);
//! * the refit shape `b × d` (breadth/depth trade-off);
//! * the configuration solver's resource-addition loop;
//! * the resource-selection bias α_util (load balance vs. diversity);
//! * the recovery scheduling policy (priority-exclusive vs. fair-share
//!   vs. shortest-first);
//! * the extended technique catalog with incremental backups.

use std::fmt;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use dsd_core::heuristics::{SimulatedAnnealing, TabuSearch};
use dsd_core::{Budget, DesignSolver, Environment, RefitParams, SolveOutcome};
use dsd_protection::TechniqueCatalog;
use dsd_recovery::SchedulingPolicy;

use crate::environments::four_sites;

/// One ablation variant's results over the seed set.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Best total cost per seed (feasible runs only), dollars.
    pub costs: Vec<f64>,
    /// Seeds that found no feasible design.
    pub infeasible: usize,
}

impl AblationRow {
    /// Mean of the per-seed best costs.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.costs.is_empty() {
            None
        } else {
            Some(self.costs.iter().sum::<f64>() / self.costs.len() as f64)
        }
    }

    /// Best cost over all seeds.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.costs.iter().copied().reduce(f64::min)
    }
}

/// The full ablation table.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// One row per variant, baseline first.
    pub rows: Vec<AblationRow>,
}

impl Ablation {
    /// The baseline (full design tool) row.
    #[must_use]
    pub fn baseline(&self) -> &AblationRow {
        &self.rows[0]
    }

    /// mean(variant) / mean(baseline) for a named variant.
    #[must_use]
    pub fn relative_mean(&self, variant: &str) -> Option<f64> {
        let base = self.baseline().mean()?;
        let row = self.rows.iter().find(|r| r.variant == variant)?;
        Some(row.mean()? / base)
    }
}

impl fmt::Display for Ablation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: design-tool ingredients on the ablation environment ($M/yr, lower is better)")?;
        writeln!(
            f,
            "{:<44} {:>10} {:>10} {:>9} {:>6}",
            "variant", "mean", "min", "vs base", "inf"
        )?;
        let base_mean = self.baseline().mean();
        for r in &self.rows {
            let rel = match (r.mean(), base_mean) {
                (Some(m), Some(b)) if b > 0.0 => format!("{:.3}x", m / b),
                _ => "-".to_string(),
            };
            writeln!(
                f,
                "{:<44} {:>10} {:>10} {:>9} {:>6}",
                r.variant,
                r.mean().map_or("-".into(), |v| format!("{:.2}", v / 1e6)),
                r.min().map_or("-".into(), |v| format!("{:.2}", v / 1e6)),
                rel,
                r.infeasible
            )?;
        }
        Ok(())
    }
}

/// One row: `solve` runs once per seed on `env`, from a fresh RNG.
fn run_variant(
    label: &str,
    env: &Environment,
    seeds: &[u64],
    solve: impl Fn(&Environment, &mut ChaCha8Rng) -> SolveOutcome,
) -> AblationRow {
    let mut costs = Vec::new();
    let mut infeasible = 0;
    for &seed in seeds {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        match solve(env, &mut rng).best {
            Some(best) => costs.push(best.cost().total().as_f64()),
            None => infeasible += 1,
        }
    }
    AblationRow { variant: label.to_string(), costs, infeasible }
}

/// Runs every ablation variant with the given per-run budget and seeds on
/// the default ablation environment: twelve applications on four fully
/// connected sites (tight enough that the search ingredients matter; the
/// peer-sites case study is near-solved by the greedy stage alone).
#[must_use]
pub fn run(budget: Budget, seeds: &[u64]) -> Ablation {
    run_in(&four_sites(12), budget, seeds)
}

/// Runs every ablation variant against a caller-provided environment.
#[must_use]
pub fn run_in(base_env: &Environment, budget: Budget, seeds: &[u64]) -> Ablation {
    let mut rows = Vec::new();
    let design_tool =
        |e: &Environment, rng: &mut ChaCha8Rng| DesignSolver::new(e).solve(budget, rng);

    rows.push(run_variant("full design tool (baseline)", base_env, seeds, design_tool));
    rows.push(run_variant("greedy only (refit disabled)", base_env, seeds, |e, rng| {
        DesignSolver::new(e)
            .with_refit(RefitParams { breadth: 3, depth: 5, max_rounds: 0 })
            .solve(budget, rng)
    }));
    rows.push(run_variant("refit b=1, d=1", base_env, seeds, |e, rng| {
        DesignSolver::new(e)
            .with_refit(RefitParams { breadth: 1, depth: 1, max_rounds: 25 })
            .solve(budget, rng)
    }));
    rows.push(run_variant("refit b=5, d=3", base_env, seeds, |e, rng| {
        DesignSolver::new(e)
            .with_refit(RefitParams { breadth: 5, depth: 3, max_rounds: 25 })
            .solve(budget, rng)
    }));
    rows.push(run_variant("no resource-addition loop", base_env, seeds, |e, rng| {
        DesignSolver::new(e).with_addition_limits(0, 0).solve(budget, rng)
    }));
    rows.push(run_variant("alpha_util = 0 (history-only bias)", base_env, seeds, |e, rng| {
        DesignSolver::new(e).with_alpha_util(0.0).solve(budget, rng)
    }));

    let mut fair = base_env.clone();
    fair.recovery.scheduling = SchedulingPolicy::FairShare;
    rows.push(run_variant("fair-share recovery scheduling", &fair, seeds, design_tool));
    let mut shortest = base_env.clone();
    shortest.recovery.scheduling = SchedulingPolicy::ShortestFirst;
    rows.push(run_variant("shortest-first recovery scheduling", &shortest, seeds, design_tool));

    // Related-work baselines over the same moves.
    rows.push(run_variant("simulated annealing (related work)", base_env, seeds, |e, rng| {
        SimulatedAnnealing::new(e).solve(budget, rng)
    }));
    rows.push(run_variant("tabu search (related work)", base_env, seeds, |e, rng| {
        TabuSearch::new(e).solve(budget, rng)
    }));

    let mut shared_spares = base_env.clone();
    shared_spares.sizing.failover_spare_ratio = 0.5;
    rows.push(run_variant(
        "shared failover spares (ratio 0.5)",
        &shared_spares,
        seeds,
        design_tool,
    ));

    let mut extended = base_env.clone();
    extended.catalog = TechniqueCatalog::extended();
    rows.push(run_variant("extended catalog (incremental backups)", &extended, seeds, design_tool));

    Ablation { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_runs_all_variants() {
        let a = run(Budget::iterations(10), &[1, 2]);
        assert_eq!(a.rows.len(), 12);
        assert_eq!(a.baseline().variant, "full design tool (baseline)");
        for r in &a.rows {
            assert_eq!(r.costs.len() + r.infeasible, 2, "{}: every seed accounted", r.variant);
        }
        let text = a.to_string();
        assert!(text.contains("greedy only"));
        assert!(text.contains("incremental"));
    }

    #[test]
    fn baseline_is_competitive_with_every_variant() {
        // Not a per-run dominance claim (different variants consume the
        // RNG differently); over a few seeds the full tool's mean must
        // stay within a small factor of the best ablated variant.
        let a = run(Budget::iterations(25), &[3, 4, 5]);
        let base = a.baseline().mean().expect("baseline feasible");
        let best = a.rows.iter().filter_map(AblationRow::mean).fold(f64::INFINITY, f64::min);
        assert!(base <= best * 1.10, "baseline {base} vs best variant {best}");
    }

    #[test]
    fn relative_mean_of_baseline_is_one() {
        let a = run(Budget::iterations(5), &[4]);
        let rel = a.relative_mean("full design tool (baseline)").unwrap();
        assert!((rel - 1.0).abs() < 1e-12);
        assert!(a.relative_mean("nonexistent variant").is_none());
    }
}
