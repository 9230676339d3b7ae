//! Failure-injection integration tests: drive solved designs through
//! every failure scope and check the recovery engine's cross-crate
//! behavior.

use dsd::core::{Budget, Candidate, DesignSolver, Environment};
use dsd::failure::{FailureScenario, FailureScope};
use dsd::recovery::{Evaluator, RecoveryPath};
use dsd::scenarios::environments::peer_sites;
use dsd::units::PerYear;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn solved(env: &Environment) -> Candidate {
    let mut rng = ChaCha8Rng::seed_from_u64(55);
    DesignSolver::new(env).solve(Budget::iterations(30), &mut rng).best.expect("feasible")
}

#[test]
fn every_scenario_recovers_every_affected_app() {
    let env = peer_sites();
    let best = solved(&env);
    let protections = best.protections(&env);
    let evaluator = Evaluator::new(&env.workloads, best.provision(), env.recovery);
    for scenario in env.failures.enumerate(best.primaries()) {
        let outcome = evaluator.evaluate_scenario(&protections, &scenario.scope);
        for o in &outcome.outcomes {
            assert!(o.recovery_time.is_finite(), "{}: {} never recovers", scenario.scope, o.app);
            assert!(o.loss_time.is_finite());
            assert_ne!(
                o.path,
                RecoveryPath::Unprotected,
                "a cost-optimized design never leaves an app unprotected"
            );
        }
        // Affected set matches the scope.
        match scenario.scope {
            FailureScope::DataObject { app } => {
                assert_eq!(outcome.outcomes.len(), 1);
                assert_eq!(outcome.outcomes[0].app, app);
            }
            FailureScope::DiskArray { array } => {
                for p in &protections {
                    let affected = outcome.outcomes.iter().any(|o| o.app == p.app);
                    assert_eq!(affected, p.placement.primary == array);
                }
            }
            FailureScope::SiteDisaster { site } => {
                for p in &protections {
                    let affected = outcome.outcomes.iter().any(|o| o.app == p.app);
                    assert_eq!(affected, p.placement.primary.site == site);
                }
            }
        }
    }
}

#[test]
fn failover_outage_is_shorter_than_any_restore() {
    let env = peer_sites();
    let best = solved(&env);
    let protections = best.protections(&env);
    let evaluator = Evaluator::new(&env.workloads, best.provision(), env.recovery);
    for scenario in env.failures.enumerate(best.primaries()) {
        let outcome = evaluator.evaluate_scenario(&protections, &scenario.scope);
        let fastest_restore = outcome
            .outcomes
            .iter()
            .filter(|o| matches!(o.path, RecoveryPath::Restore(_)))
            .map(|o| o.recovery_time)
            .min_by(|a, b| a.partial_cmp(b).unwrap());
        let slowest_failover = outcome
            .outcomes
            .iter()
            .filter(|o| o.path == RecoveryPath::Failover)
            .map(|o| o.recovery_time)
            .max_by(|a, b| a.partial_cmp(b).unwrap());
        if let (Some(f), Some(r)) = (slowest_failover, fastest_restore) {
            assert!(f < r, "failover {f} must beat restore {r} in {}", scenario.scope);
        }
    }
}

#[test]
fn penalties_scale_linearly_with_scenario_likelihood() {
    let env = peer_sites();
    let best = solved(&env);
    let protections = best.protections(&env);
    let evaluator = Evaluator::new(&env.workloads, best.provision(), env.recovery);
    let scenarios: Vec<FailureScenario> = env.failures.enumerate(best.primaries());
    let base = evaluator.annual_penalties(&protections, &scenarios);
    let tripled: Vec<FailureScenario> = scenarios
        .iter()
        .map(|s| FailureScenario {
            scope: s.scope,
            likelihood: PerYear::new(s.likelihood.as_f64() * 3.0),
        })
        .collect();
    let scaled = evaluator.annual_penalties(&protections, &tripled);
    let expected = base.total().as_f64() * 3.0;
    assert!(
        (scaled.total().as_f64() - expected).abs() <= 1e-6 * expected.max(1.0),
        "{} vs 3x{}",
        scaled.total(),
        base.total()
    );
}

#[test]
fn site_disaster_is_the_most_expensive_scope_per_event() {
    let env = peer_sites();
    let best = solved(&env);
    let protections = best.protections(&env);
    let evaluator = Evaluator::new(&env.workloads, best.provision(), env.recovery);

    // For one app with a mirror, compare its outage across scopes.
    let mirrored = protections.iter().find(|p| p.placement.mirror.is_some()).unwrap();
    let object =
        evaluator.evaluate_scenario(&protections, &FailureScope::DataObject { app: mirrored.app });
    let disaster = evaluator.evaluate_scenario(
        &protections,
        &FailureScope::SiteDisaster { site: mirrored.placement.primary.site },
    );
    let outage_of = |outcome: &dsd::recovery::ScenarioOutcome| {
        outcome.outcomes.iter().find(|o| o.app == mirrored.app).map(|o| o.loss_time).unwrap()
    };
    // Data-object failure forces point-in-time recovery, losing more
    // recent updates than failing over to the mirror after a disaster.
    assert!(outage_of(&object) >= outage_of(&disaster));
}

#[test]
fn disabling_a_failure_mode_removes_its_penalties() {
    let mut env = peer_sites();
    let best = solved(&env);
    let baseline = best.cost().penalties.total();

    env.failures = dsd::failure::FailureModel::new(
        env.failures
            .rates()
            .with_data_object(PerYear::NEVER)
            .with_disk_array(PerYear::NEVER)
            .with_site_disaster(PerYear::NEVER),
    );
    let mut clone = best.clone();
    clone.provision_mut(); // invalidate cached cost
    let no_failures = clone.evaluate(&env).penalties.total();
    assert_eq!(no_failures.as_f64(), 0.0);
    assert!(baseline.as_f64() > 0.0);
}
