//! The configuration solver (paper §3.2): completes a partial candidate
//! by optimizing technique configuration parameters and resource counts.

use dsd_obs as obs;
use dsd_recovery::ScenarioOutcomeCache;
use dsd_units::Dollars;
use dsd_workload::AppId;

use crate::candidate::{Candidate, CostBreakdown};
use crate::delta::Move;
use crate::env::Environment;
use crate::eval_cache::{CandidateKey, EvalCache};

/// How much work the configuration solver does. During the design
/// solver's inner search, `Quick` keeps node evaluation cheap; the final
/// polish (and the human heuristic) uses `Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Thoroughness {
    /// Keep current configuration parameters; run a short
    /// resource-addition loop.
    Quick,
    /// Exhaustive discretized search over every application's
    /// configuration space plus a longer resource-addition loop.
    Full,
}

/// Completes candidate designs: chooses configuration parameter values by
/// exhaustive search over their discretized ranges, then keeps adding
/// resources (network links, tape drives, disks) while doing so lowers
/// the overall cost (paper §3.2.2: "the algorithm continues to add
/// resources until it no longer produces any cost savings").
#[derive(Debug, Clone, Copy)]
pub struct ConfigurationSolver<'e> {
    env: &'e Environment,
    max_additions_quick: usize,
    max_additions_full: usize,
}

impl<'e> ConfigurationSolver<'e> {
    /// Creates a configuration solver for an environment.
    #[must_use]
    pub fn new(env: &'e Environment) -> Self {
        ConfigurationSolver { env, max_additions_quick: 4, max_additions_full: 32 }
    }

    /// Overrides the resource-addition step limits (builder style).
    /// `(0, 0)` disables the addition loop entirely — used by the
    /// ablation study to measure its value.
    #[must_use]
    pub fn with_addition_limits(mut self, quick: usize, full: usize) -> Self {
        self.max_additions_quick = quick;
        self.max_additions_full = full;
        self
    }

    /// The `(quick, full)` resource-addition limits in force.
    #[must_use]
    pub fn addition_limits(&self) -> (usize, usize) {
        (self.max_additions_quick, self.max_additions_full)
    }

    /// Memoized [`ConfigurationSolver::complete_with`]: looks the
    /// candidate up in `cache` first and replays the stored completion on
    /// a hit, otherwise completes normally (reusing the caller-held
    /// scenario-outcome cache) and stores the result.
    ///
    /// Completion is deterministic in the candidate state, thoroughness,
    /// and addition limits — all captured by the [`CandidateKey`] — and
    /// consumes no randomness, so cached and uncached searches are
    /// bit-identical. Returns the final cost and whether the lookup hit.
    pub fn complete_cached_with(
        &self,
        candidate: &mut Candidate,
        thoroughness: Thoroughness,
        cache: &EvalCache,
        scache: &mut ScenarioOutcomeCache,
    ) -> (CostBreakdown, bool) {
        let key = CandidateKey::of(candidate, thoroughness, self.addition_limits());
        if let Some((cached, cost)) = cache.lookup(&key) {
            *candidate = cached;
            return (cost, true);
        }
        let cost = self.complete_with(candidate, thoroughness, scache);
        cache.insert(key, candidate.clone(), cost.clone());
        (cost, false)
    }

    /// Optimizes `candidate` in place and returns its final cost.
    pub fn complete(&self, candidate: &mut Candidate, thoroughness: Thoroughness) -> CostBreakdown {
        let mut scache = ScenarioOutcomeCache::new();
        self.complete_with(candidate, thoroughness, &mut scache)
    }

    /// [`ConfigurationSolver::complete`] reusing a caller-held
    /// scenario-outcome cache across completions. Results are
    /// bit-identical to [`ConfigurationSolver::complete`]: every inner
    /// trial is a [`Move`] applied and undone in place, evaluated through
    /// the memoized scenario path whose totals match the full oracle.
    pub fn complete_with(
        &self,
        candidate: &mut Candidate,
        thoroughness: Thoroughness,
        scache: &mut ScenarioOutcomeCache,
    ) -> CostBreakdown {
        if thoroughness == Thoroughness::Full {
            // Full completions are rare (final polish, human heuristic),
            // so they get a span and a progress phase; Quick completions
            // are the hot path and are visible through `refit.move` /
            // `solver.eval_latency`.
            dsd_obs::progress::phase_entered("config.full");
            let _span = obs::span("config.optimize", "config");
            self.optimize_configs(candidate, scache);
        }
        let max_additions = match thoroughness {
            Thoroughness::Quick => self.max_additions_quick,
            Thoroughness::Full => self.max_additions_full,
        };
        let steps = self.add_resources(candidate, max_additions, scache);
        obs::add("config.addition_steps", steps as u64);
        candidate.evaluate_with(self.env, scache).clone()
    }

    /// Coordinate-descent exhaustive search over each application's
    /// discretized configuration space, in descending priority order.
    /// Trials are config-only [`Move::Reassign`]s applied and undone in
    /// place; the incumbent cost is evaluated lazily once and carried
    /// across applications (an accepted trial's cost becomes the next
    /// incumbent) instead of being re-evaluated per app. Each trial is
    /// priced against the incumbent, so a losing one stops folding
    /// penalties early ([`Candidate::score_below`]).
    fn optimize_configs(&self, candidate: &mut Candidate, scache: &mut ScenarioOutcomeCache) {
        let mut apps: Vec<AppId> = candidate.assignments().keys().copied().collect();
        apps.sort_by(|&a, &b| {
            self.env.workloads[b]
                .priority()
                .as_f64()
                .partial_cmp(&self.env.workloads[a].priority().as_f64())
                .expect("penalty rates are finite")
        });
        let mut incumbent: Option<Dollars> = None;
        for app in apps {
            let assignment = *candidate.assignment(app).expect("assigned app");
            let space = self.env.catalog[assignment.technique].config_space();
            if space.len() <= 1 {
                continue;
            }
            let mut best_cost = match incumbent {
                Some(cost) => cost,
                None => self.env.score(candidate.evaluate_with(self.env, scache)),
            };
            let mut best_config = assignment.config;
            for config in space {
                if config == assignment.config {
                    continue;
                }
                let mv = Move::Reassign {
                    app,
                    technique: assignment.technique,
                    config,
                    placement: assignment.placement,
                };
                let Ok(undo) = candidate.apply_move(self.env, &mv) else {
                    continue;
                };
                obs::add(mv.trial_counter(), 1);
                if let Some(cost) = candidate.score_below(self.env, scache, Some(best_cost)) {
                    best_cost = cost;
                    best_config = config;
                    obs::add(mv.accept_counter(), 1);
                } else {
                    candidate.undo_move(undo);
                }
            }
            incumbent = Some(best_cost);
            debug_assert!(candidate.assignment(app).map(|a| a.config) == Some(best_config));
        }
    }

    /// Greedy resource addition: at each step, evaluate adding one link /
    /// one tape drive / one disk to each provisioned device — as in-place
    /// applied-and-undone [`Move`]s, not candidate clones — apply the
    /// single best cost-reducing addition, and stop when nothing improves
    /// (or after `max_additions` steps). Each trial is priced against the
    /// best addition so far, or the current cost before there is one.
    /// Returns the steps applied.
    fn add_resources(
        &self,
        candidate: &mut Candidate,
        max_additions: usize,
        scache: &mut ScenarioOutcomeCache,
    ) -> usize {
        for step in 0..max_additions {
            let base = self.env.score(candidate.evaluate_with(self.env, scache));
            let mut best: Option<(Dollars, Move)> = None;

            let mut moves: Vec<Move> = Vec::new();
            for route in candidate.provision().active_routes() {
                moves.push(Move::AddLinks { route, extra: 1 });
            }
            for tape in candidate.provision().provisioned_tapes() {
                moves.push(Move::AddTapeDrives { tape, extra: 1 });
            }
            for array in candidate.provision().provisioned_arrays() {
                moves.push(Move::AddArrayUnits { array, extra: 1 });
            }

            for mv in moves {
                let Ok(undo) = candidate.apply_move(self.env, &mv) else {
                    continue;
                };
                obs::add(mv.trial_counter(), 1);
                // An accepted addition already beats `base`, so the best
                // so far is the stricter bound; a NaN `base` bounds every
                // trial out, as `cost < base` does.
                let bound = best.as_ref().map_or(base, |&(c, _)| c);
                let cost = candidate.score_below(self.env, scache, Some(bound));
                candidate.undo_move(undo);
                if let Some(cost) = cost {
                    best = Some((cost, mv));
                }
            }

            match best {
                Some((_, mv)) => {
                    obs::add(mv.accept_counter(), 1);
                    candidate
                        .apply_move(self.env, &mv)
                        .expect("re-applying an accepted addition from the same state");
                }
                None => return step,
            }
        }
        max_additions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::PlacementOptions;
    use dsd_failure::{FailureModel, FailureRates};
    use dsd_protection::TechniqueCatalog;
    use dsd_resources::{DeviceSpec, NetworkSpec, Site, Topology};
    use dsd_workload::WorkloadSet;
    use std::sync::Arc;

    fn env(apps: usize) -> Environment {
        let mk_site = |i: usize, name: &str| {
            Site::new(i, name)
                .with_array_slot(DeviceSpec::xp1200())
                .with_array_slot(DeviceSpec::msa1500())
                .with_tape_library(DeviceSpec::tape_library_high())
                .with_compute(8)
        };
        Environment::new(
            WorkloadSet::scaled_paper_mix(apps),
            Arc::new(Topology::fully_connected(
                vec![mk_site(0, "P1"), mk_site(1, "P2")],
                NetworkSpec::high(),
            )),
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::case_study()),
        )
    }

    fn assigned_candidate(env: &Environment) -> Candidate {
        let mut c = Candidate::empty(env);
        for app in env.workloads.iter() {
            let class = app.class_with(&env.thresholds);
            let (tid, technique) =
                env.catalog.eligible_for(class).next().expect("eligible technique exists");
            let config = technique.default_config();
            let placements = PlacementOptions::enumerate(env, tid);
            let placed =
                placements.iter().any(|&p| c.try_assign(env, app.id, tid, config, p).is_ok());
            assert!(placed, "fixture must be assignable");
        }
        c
    }

    #[test]
    fn completion_never_increases_cost() {
        let e = env(4);
        let mut c = assigned_candidate(&e);
        let before = c.evaluate(&e).total();
        let solver = ConfigurationSolver::new(&e);
        let after = solver.complete(&mut c, Thoroughness::Full);
        assert!(after.total() <= before, "{} > {}", after.total(), before);
    }

    #[test]
    fn quick_is_cheaper_than_full_but_still_monotone() {
        let e = env(4);
        let mut c = assigned_candidate(&e);
        let before = c.evaluate(&e).total();
        let after = ConfigurationSolver::new(&e).complete(&mut c, Thoroughness::Quick);
        assert!(after.total() <= before);
    }

    #[test]
    fn full_beats_or_matches_quick() {
        let e = env(4);
        let base = assigned_candidate(&e);
        let solver = ConfigurationSolver::new(&e);
        let mut quick = base.clone();
        let quick_cost = solver.complete(&mut quick, Thoroughness::Quick);
        let mut full = base;
        let full_cost = solver.complete(&mut full, Thoroughness::Full);
        assert!(full_cost.total() <= quick_cost.total());
    }

    #[test]
    fn zero_addition_limits_disable_the_addition_loop() {
        let e = env(4);
        let base = assigned_candidate(&e);
        let solver = ConfigurationSolver::new(&e).with_addition_limits(0, 0);
        assert_eq!(solver.addition_limits(), (0, 0));
        let mut c = base.clone();
        let cost = solver.complete(&mut c, Thoroughness::Quick);
        // Quick with no additions is a pure evaluation: nothing changes.
        assert_eq!(c.assignments(), base.assignments());
        let mut plain = base.clone();
        assert_eq!(cost.total(), plain.evaluate(&e).total());
    }

    #[test]
    fn asymmetric_limits_let_full_add_what_quick_cannot() {
        let e = env(4);
        let base = assigned_candidate(&e);
        let solver = ConfigurationSolver::new(&e).with_addition_limits(0, 32);
        let mut quick = base.clone();
        let quick_cost = solver.complete(&mut quick, Thoroughness::Quick);
        let mut full = base;
        let full_cost = solver.complete(&mut full, Thoroughness::Full);
        // Full keeps its 32 addition steps (plus config search), so it can
        // only do better than a Quick pass stripped of the loop.
        assert!(full_cost.total() <= quick_cost.total());
    }

    #[test]
    fn huge_limits_terminate_via_convergence() {
        // The addition loop must stop when nothing improves, not run to
        // the step limit.
        let e = env(2);
        let mut c = assigned_candidate(&e);
        let cost = ConfigurationSolver::new(&e)
            .with_addition_limits(10_000, 10_000)
            .complete(&mut c, Thoroughness::Quick);
        assert!(cost.total().is_finite());
    }

    #[test]
    fn zero_limits_on_infeasible_environment_yield_none_without_panic() {
        // One site, one compute slot: the gold-class app cannot be
        // protected, and the crippled configuration solver must not mask
        // or aggravate that.
        let sites =
            vec![Site::new(0, "tiny").with_array_slot(DeviceSpec::msa1500()).with_compute(1)];
        let e = Environment::new(
            WorkloadSet::scaled_paper_mix(2),
            Arc::new(Topology::fully_connected(sites, NetworkSpec::med())),
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::case_study()),
        );
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let outcome = crate::design_solver::DesignSolver::new(&e)
            .with_addition_limits(0, 0)
            .solve(crate::budget::Budget::iterations(4), &mut rng);
        assert!(outcome.best.is_none());
    }

    #[test]
    fn configs_stay_within_their_space() {
        let e = env(4);
        let mut c = assigned_candidate(&e);
        ConfigurationSolver::new(&e).complete(&mut c, Thoroughness::Full);
        for a in c.assignments().values() {
            let space = e.catalog[a.technique].config_space();
            assert!(space.contains(&a.config), "chosen config must be a legal grid point");
        }
    }
}
