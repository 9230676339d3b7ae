//! The emulated human storage architect (paper §4.1).

use dsd_obs as obs;
use dsd_obs::progress;
use rand::Rng;

use dsd_protection::TechniqueId;
use dsd_workload::{AppClass, AppId};

use crate::budget::Budget;
use crate::candidate::{Candidate, PlacementOptions};
use crate::config_solver::{ConfigurationSolver, Thoroughness};
use crate::design_solver::SolveOutcome;
use crate::env::Environment;
use crate::reconfigure::weighted_index;
use crate::search::SearchRun;

/// Emulates a human architect's gold/silver/bronze design process:
///
/// 1. classify applications, techniques and resources into classes;
/// 2. assign applications in randomized priority order (weighted by
///    penalty-rate sum);
/// 3. give each application a uniformly random technique from its own
///    class (falling back to better classes when its class has none
///    feasible);
/// 4. spread applications uniformly over the sites, preferring arrays of
///    the matching resource class;
/// 5. let the configuration solver optimize the remaining parameters;
/// 6. restart on infeasibility; return the cheapest design found within
///    the budget.
#[derive(Debug, Clone, Copy)]
pub struct HumanHeuristic<'e> {
    env: &'e Environment,
    max_restarts_per_attempt: usize,
}

impl<'e> HumanHeuristic<'e> {
    /// Creates the heuristic for an environment.
    #[must_use]
    pub fn new(env: &'e Environment) -> Self {
        HumanHeuristic { env, max_restarts_per_attempt: 5 }
    }

    /// Runs design attempts until the budget expires and returns the
    /// cheapest.
    pub fn solve<R: Rng + ?Sized>(&self, budget: Budget, rng: &mut R) -> SolveOutcome {
        let _solve_span = obs::span("human.solve", "heuristic");
        let mut run = SearchRun::start(self.env, budget);
        progress::phase_entered("human");
        let config = ConfigurationSolver::new(self.env);

        while !run.tracker.expired() {
            run.tracker.tick();
            match self.attempt(rng) {
                Some(mut candidate) => {
                    run.stats.greedy_builds += 1;
                    config.complete(&mut candidate, Thoroughness::Full);
                    run.stats.nodes_evaluated += 1;
                    run.offer(candidate);
                }
                None => run.failed(),
            }
            run.heartbeat();
        }
        run.finish(None)
    }

    /// One complete design attempt (with bounded internal restarts).
    fn attempt<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Candidate> {
        'restart: for _ in 0..self.max_restarts_per_attempt {
            let mut candidate = Candidate::empty(self.env);
            let order = self.randomized_priority_order(rng);
            for (spread, app) in order.into_iter().enumerate() {
                if !self.place_app(&mut candidate, app, spread, rng) {
                    continue 'restart;
                }
            }
            return Some(candidate);
        }
        None
    }

    /// Randomized priority order: repeatedly sample without replacement,
    /// weighted by penalty-rate sums.
    fn randomized_priority_order<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<AppId> {
        let mut remaining: Vec<AppId> = self.env.workloads.ids().collect();
        let mut order = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let weights: Vec<f64> =
                remaining.iter().map(|&a| self.env.workloads[a].priority().as_f64()).collect();
            let i = weighted_index(&weights, rng).expect("non-empty");
            order.push(remaining.swap_remove(i));
        }
        order
    }

    /// Techniques of exactly the application's class, falling back to all
    /// eligible (better) ones when the class itself is empty.
    fn class_techniques(&self, class: AppClass) -> Vec<TechniqueId> {
        let same: Vec<TechniqueId> = self
            .env
            .catalog
            .eligible_for(class)
            .filter(|(_, t)| t.category == class)
            .map(|(id, _)| id)
            .collect();
        if !same.is_empty() {
            return same;
        }
        self.env.catalog.eligible_for(class).map(|(id, _)| id).collect()
    }

    /// Assigns one application: uniform-random technique from its class,
    /// placements ordered by the spread rule (primary site = round-robin
    /// by assignment index, arrays of the matching class first).
    fn place_app<R: Rng + ?Sized>(
        &self,
        candidate: &mut Candidate,
        app: AppId,
        spread: usize,
        rng: &mut R,
    ) -> bool {
        let class = self.env.workloads[app].class_with(&self.env.thresholds);
        let mut techniques = self.class_techniques(class);
        if techniques.is_empty() {
            return false;
        }
        // Uniform random technique; on failure try the others.
        let first = rng.gen_range(0..techniques.len());
        techniques.rotate_left(first);

        let site_count = self.env.topology.site_count();
        let desired_site = spread % site_count;
        for tid in techniques {
            let technique = &self.env.catalog[tid];
            // The architect pins the primary to the round-robin spread
            // site — no cross-site fallback (the paper's human heuristic
            // "spreads the applications uniformly over the resource
            // topology" and restarts when that layout is infeasible,
            // which is why it stops finding feasible solutions as the
            // environment saturates, §4.4).
            let mut placements: Vec<_> = PlacementOptions::enumerate(self.env, tid)
                .into_iter()
                .filter(|p| p.primary.site.0 == desired_site)
                .collect();
            placements.sort_by_key(|p| {
                let spec = &self.env.topology.site(p.primary.site).array_slots[p.primary.slot];
                let class_mismatch = usize::from(spec.class.matching_app_class() != class);
                (class_mismatch, p.primary.slot)
            });
            for placement in placements {
                if candidate
                    .try_assign(self.env, app, tid, technique.default_config(), placement)
                    .is_ok()
                {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsd_failure::{FailureModel, FailureRates};
    use dsd_protection::TechniqueCatalog;
    use dsd_resources::{DeviceSpec, NetworkSpec, Site, SiteId, Topology};
    use dsd_workload::WorkloadSet;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    fn env(apps: usize) -> Environment {
        let mk = |i: usize| {
            Site::new(i, format!("P{i}"))
                .with_array_slot(DeviceSpec::xp1200())
                .with_array_slot(DeviceSpec::msa1500())
                .with_tape_library(DeviceSpec::tape_library_high())
                .with_compute(8)
        };
        Environment::new(
            WorkloadSet::scaled_paper_mix(apps),
            Arc::new(Topology::fully_connected(vec![mk(0), mk(1)], NetworkSpec::high())),
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::case_study()),
        )
    }

    #[test]
    fn human_finds_complete_design() {
        let e = env(4);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let out = HumanHeuristic::new(&e).solve(Budget::iterations(5), &mut rng);
        let best = out.best.expect("feasible");
        assert!(best.is_complete(&e));
        assert!(best.cost().total().is_finite());
    }

    #[test]
    fn human_uses_class_matched_techniques() {
        let e = env(8);
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let out = HumanHeuristic::new(&e).solve(Budget::iterations(3), &mut rng);
        let best = out.best.unwrap();
        for (app, a) in best.assignments() {
            let class = e.workloads[*app].class_with(&e.thresholds);
            let cat = e.catalog[a.technique].category;
            assert!(cat.satisfies(class), "{app}: {cat} technique for {class} app");
        }
    }

    #[test]
    fn human_spreads_primaries_over_sites() {
        let e = env(8);
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let out = HumanHeuristic::new(&e).solve(Budget::iterations(1), &mut rng);
        let best = out.best.unwrap();
        let at_site0 =
            best.assignments().values().filter(|a| a.placement.primary.site == SiteId(0)).count();
        // A perfect spread puts 4 of 8 at each site; allow slack for
        // feasibility-driven displacement but reject a one-sided pile-up.
        assert!((2..=6).contains(&at_site0), "primaries at site0: {at_site0}");
    }

    #[test]
    fn human_is_deterministic_under_seed() {
        let e = env(4);
        let run = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            HumanHeuristic::new(&e)
                .solve(Budget::iterations(2), &mut rng)
                .best
                .map(|b| b.cost().total().as_f64())
        };
        assert_eq!(run(3), run(3));
    }
}
