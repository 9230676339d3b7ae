//! Random design selection (paper §4.3): quick feasibility-checked random
//! designs, keeping the cheapest.

use dsd_obs as obs;
use dsd_obs::progress;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::budget::Budget;
use crate::candidate::{Candidate, PlacementOptions};
use crate::design_solver::SolveOutcome;
use crate::env::Environment;
use crate::search::SearchRun;

/// Generates one uniformly random complete design: for each application
/// (in random order) a uniformly random technique from the whole catalog
/// and a uniformly random placement, with up to `tries_per_app` retries
/// before giving up. Returns `None` when some application could not be
/// placed.
pub fn random_design<R: Rng + ?Sized>(
    env: &Environment,
    tries_per_app: usize,
    rng: &mut R,
) -> Option<Candidate> {
    let mut candidate = Candidate::empty(env);
    let mut order: Vec<_> = env.workloads.ids().collect();
    order.shuffle(rng);
    for app in order {
        let mut placed = false;
        for _ in 0..tries_per_app {
            let tid = env
                .catalog
                .ids()
                .nth(rng.gen_range(0..env.catalog.len()))
                .expect("catalog non-empty");
            let placements = PlacementOptions::enumerate(env, tid);
            if placements.is_empty() {
                continue;
            }
            let placement = placements[rng.gen_range(0..placements.len())];
            let config = env.catalog[tid].default_config();
            if candidate.try_assign(env, app, tid, config, placement).is_ok() {
                placed = true;
                break;
            }
        }
        if !placed {
            return None;
        }
    }
    Some(candidate)
}

/// The random heuristic: sample random feasible designs for the whole
/// budget and return the cheapest. The paper notes this scales to large
/// environments "because it randomly generates data protection designs,
/// which can be tested for feasibility fairly quickly" (§4.4).
#[derive(Debug, Clone, Copy)]
pub struct RandomHeuristic<'e> {
    env: &'e Environment,
    tries_per_app: usize,
}

impl<'e> RandomHeuristic<'e> {
    /// Creates the heuristic for an environment.
    #[must_use]
    pub fn new(env: &'e Environment) -> Self {
        RandomHeuristic { env, tries_per_app: 10 }
    }

    /// Samples designs until the budget expires; returns the cheapest.
    pub fn solve<R: Rng + ?Sized>(&self, budget: Budget, rng: &mut R) -> SolveOutcome {
        let _solve_span = obs::span("random.solve", "heuristic");
        let mut run = SearchRun::start(self.env, budget);
        progress::phase_entered("random");
        while !run.tracker.expired() {
            run.tracker.tick();
            match random_design(self.env, self.tries_per_app, rng) {
                Some(mut candidate) => {
                    candidate.evaluate(self.env);
                    run.stats.greedy_builds += 1;
                    run.stats.nodes_evaluated += 1;
                    obs::add("random.feasible_samples", 1);
                    run.offer(candidate);
                }
                None => {
                    obs::add("random.infeasible_samples", 1);
                    run.failed();
                }
            }
            if run.stats.nodes_evaluated.is_multiple_of(32) {
                run.heartbeat();
            }
        }
        run.finish(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsd_failure::{FailureModel, FailureRates};
    use dsd_protection::TechniqueCatalog;
    use dsd_resources::{DeviceSpec, NetworkSpec, Site, Topology};
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
    fn random_design_is_complete_when_some() {
        let e = env(4);
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut produced = 0;
        for _ in 0..20 {
            if let Some(c) = random_design(&e, 10, &mut rng) {
                assert!(c.is_complete(&e));
                produced += 1;
            }
        }
        assert!(produced > 0, "the peer environment admits random designs");
    }

    #[test]
    fn best_of_many_is_no_worse_than_best_of_few() {
        let e = env(4);
        let cost = |iters| {
            let mut rng = ChaCha8Rng::seed_from_u64(32);
            RandomHeuristic::new(&e)
                .solve(Budget::iterations(iters), &mut rng)
                .best
                .map(|b| b.cost().total().as_f64())
                .unwrap()
        };
        assert!(cost(30) <= cost(3));
    }

    #[test]
    fn random_heuristic_counts_samples() {
        let e = env(4);
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let out = RandomHeuristic::new(&e).solve(Budget::iterations(10), &mut rng);
        assert_eq!(out.stats.greedy_builds + out.stats.greedy_failures, 10);
    }
}
