//! The design environment: every input of the problem statement (§2.6).

use std::sync::{Arc, OnceLock};

use dsd_failure::FailureModel;
use dsd_protection::{SizingPolicy, TechniqueCatalog};
use dsd_recovery::RecoveryPolicy;
use dsd_resources::Topology;
use dsd_units::Dollars;
use dsd_workload::{ClassThresholds, WorkloadSet};

use crate::bounds::{lower_bound, LowerBound};
use crate::candidate::CostBreakdown;
use crate::objective::Objective;

/// Everything the solvers need to evaluate and compare candidate designs:
/// application penalty rates and access characteristics, the site
/// topology and device catalog, failure scenarios, and the modeling
/// policies (paper §2.6).
#[derive(Debug)]
pub struct Environment {
    /// The applications to protect.
    pub workloads: WorkloadSet,
    /// Sites, device slots and link routes.
    pub topology: Arc<Topology>,
    /// Candidate data protection techniques (Table 2).
    pub catalog: TechniqueCatalog,
    /// Failure scopes and annual likelihoods.
    pub failures: FailureModel,
    /// Demand-sizing assumptions.
    pub sizing: SizingPolicy,
    /// Recovery timing constants.
    pub recovery: RecoveryPolicy,
    /// Business-class thresholds.
    pub thresholds: ClassThresholds,
    /// How candidate costs are ranked by the solvers.
    pub objective: Objective,
    /// Memoized relaxation lower bound — see
    /// [`Environment::certified_lower_bound`].
    bound_memo: OnceLock<LowerBound>,
}

impl Clone for Environment {
    fn clone(&self) -> Self {
        // The bound memo deliberately does NOT survive a clone: clones
        // are routinely mutated before solving (sensitivity sweeps vary
        // `failures`, ablations swap `catalog`), and a carried-over memo
        // would silently certify against the pre-mutation inputs.
        Environment {
            workloads: self.workloads.clone(),
            topology: Arc::clone(&self.topology),
            catalog: self.catalog.clone(),
            failures: self.failures,
            sizing: self.sizing,
            recovery: self.recovery,
            thresholds: self.thresholds,
            objective: self.objective,
            bound_memo: OnceLock::new(),
        }
    }
}

impl Environment {
    /// Creates an environment with default sizing/recovery policies and
    /// class thresholds.
    #[must_use]
    pub fn new(
        workloads: WorkloadSet,
        topology: Arc<Topology>,
        catalog: TechniqueCatalog,
        failures: FailureModel,
    ) -> Self {
        Environment {
            workloads,
            topology,
            catalog,
            failures,
            sizing: SizingPolicy::default(),
            recovery: RecoveryPolicy::default(),
            thresholds: ClassThresholds::default(),
            objective: Objective::default(),
            bound_memo: OnceLock::new(),
        }
    }

    /// The relaxation lower bound for this environment, computed on
    /// first use and memoized ([`crate::bounds::lower_bound`] is pure
    /// arithmetic over the inputs, so the memo is sound as long as the
    /// environment is not mutated afterwards — mutate fields *before*
    /// solving, or clone first: a clone always starts with an empty
    /// memo). Progress recording leans on this, so a recorder that
    /// records progress pays for the bound once per environment, not
    /// once per solve.
    pub fn certified_lower_bound(&self) -> &LowerBound {
        self.bound_memo.get_or_init(|| lower_bound(self))
    }

    /// The solvers' scalar score for a cost breakdown (lower is better).
    #[must_use]
    pub fn score(&self, cost: &CostBreakdown) -> Dollars {
        self.objective.score(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsd_failure::FailureRates;
    use dsd_resources::{DeviceSpec, NetworkSpec, Site};

    #[test]
    fn bound_memo_is_stable_and_does_not_survive_a_clone() {
        let mk = |i: usize| {
            Site::new(i, format!("P{i}"))
                .with_array_slot(DeviceSpec::xp1200())
                .with_tape_library(DeviceSpec::tape_library_high())
                .with_compute(4)
        };
        let sites = vec![mk(0), mk(1)];
        let env = Environment::new(
            WorkloadSet::scaled_paper_mix(2),
            Arc::new(Topology::fully_connected(sites, NetworkSpec::high())),
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::case_study()),
        );
        let first = env.certified_lower_bound().total;
        assert_eq!(first.as_f64().to_bits(), env.certified_lower_bound().total.as_f64().to_bits());

        // A clone starts with an empty memo, so mutating the clone and
        // re-querying certifies against the mutated inputs (dropping an
        // application drops its positive outlay floor from the bound).
        let mut cheaper = env.clone();
        cheaper.workloads = WorkloadSet::scaled_paper_mix(1);
        assert!(cheaper.certified_lower_bound().total < first, "mutated clone re-certifies");
        assert_eq!(env.certified_lower_bound().total, first, "original memo untouched");
    }

    #[test]
    fn environment_builds_with_defaults() {
        let sites = vec![Site::new(0, "A").with_array_slot(DeviceSpec::xp1200())];
        let env = Environment::new(
            WorkloadSet::scaled_paper_mix(4),
            Arc::new(Topology::fully_connected(sites, NetworkSpec::high())),
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::case_study()),
        );
        assert_eq!(env.workloads.len(), 4);
        assert_eq!(env.catalog.len(), 9);
        assert_eq!(env.sizing.snapshot_space_fraction, 0.2);
    }
}
