//! Design objectives: how candidate costs are ranked.
//!
//! The paper minimizes overall cost = outlays + expected penalties. A
//! common real-world variant is *budget-capped* design: "minimize my
//! exposure, but capital expenditure may not exceed B". The cap is
//! enforced with an exact-penalty formulation so the same randomized
//! search machinery applies unchanged.

use serde::{Deserialize, Serialize};

use dsd_units::Dollars;

use crate::candidate::CostBreakdown;

/// How a [`CostBreakdown`] is collapsed into the scalar the solvers
/// minimize.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Objective {
    /// The paper's objective: amortized outlays plus expected penalties.
    #[default]
    MinimizeTotal,
    /// Minimize expected penalties subject to an annual outlay cap.
    /// Designs over the cap are charged the overrun at
    /// [`Objective::OVERRUN_WEIGHT`] dollars per dollar, which dominates
    /// any achievable penalty reduction, so the search is driven back
    /// under the cap whenever a compliant design exists.
    PenaltiesWithOutlayCap {
        /// Maximum annual (amortized) outlay.
        cap: Dollars,
    },
}

impl Objective {
    /// Exact-penalty weight for outlay overruns.
    pub const OVERRUN_WEIGHT: f64 = 1e6;

    /// The scalar score the solvers minimize (lower is better).
    #[must_use]
    pub fn score(&self, cost: &CostBreakdown) -> Dollars {
        self.score_parts(cost.outlay, cost.penalties.total())
    }

    /// [`Objective::score`] of a design with annual `outlay` and total
    /// expected `penalties`. Both objectives are monotone in
    /// `penalties`: a larger penalty total never scores lower, which is
    /// what lets bounded pricing stop a penalty fold early (DESIGN.md
    /// §6f).
    pub(crate) fn score_parts(&self, outlay: Dollars, penalties: Dollars) -> Dollars {
        match self {
            Objective::MinimizeTotal => outlay + penalties,
            Objective::PenaltiesWithOutlayCap { cap } => {
                let overrun = outlay - *cap; // saturating at zero
                penalties + overrun * Self::OVERRUN_WEIGHT
            }
        }
    }

    /// True if the breakdown satisfies the objective's hard constraints.
    #[must_use]
    pub fn is_compliant(&self, cost: &CostBreakdown) -> bool {
        match self {
            Objective::MinimizeTotal => true,
            Objective::PenaltiesWithOutlayCap { cap } => cost.outlay <= *cap,
        }
    }

    /// Human-readable decomposition of how this objective collapses a
    /// breakdown into the solver's scalar, for `dsd explain`.
    #[must_use]
    pub fn explain(&self, cost: &CostBreakdown) -> String {
        match self {
            Objective::MinimizeTotal => format!(
                "minimize total = outlay ${:.0} + penalties ${:.0} = ${:.0}/yr",
                cost.outlay.as_f64(),
                cost.penalties.total().as_f64(),
                self.score(cost).as_f64()
            ),
            Objective::PenaltiesWithOutlayCap { cap } => {
                let overrun = cost.outlay - *cap;
                format!(
                    "minimize penalties ${:.0} subject to outlay ${:.0} <= cap ${:.0} \
                     (overrun ${:.0} charged at {:.0e}x) = ${:.0}",
                    cost.penalties.total().as_f64(),
                    cost.outlay.as_f64(),
                    cap.as_f64(),
                    overrun.as_f64(),
                    Self::OVERRUN_WEIGHT,
                    self.score(cost).as_f64()
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsd_recovery::PenaltySummary;

    fn breakdown(outlay: f64, outage: f64, loss: f64) -> CostBreakdown {
        CostBreakdown {
            outlay: Dollars::new(outlay),
            penalties: PenaltySummary {
                outage: Dollars::new(outage),
                loss: Dollars::new(loss),
                per_app: Default::default(),
            },
        }
    }

    #[test]
    fn default_objective_is_the_papers() {
        let cost = breakdown(10.0, 20.0, 30.0);
        assert_eq!(Objective::default().score(&cost).as_f64(), 60.0);
        assert!(Objective::default().is_compliant(&cost));
    }

    #[test]
    fn cap_ignores_outlay_below_the_cap() {
        let objective = Objective::PenaltiesWithOutlayCap { cap: Dollars::new(100.0) };
        let cheap = breakdown(80.0, 50.0, 0.0);
        assert_eq!(objective.score(&cheap).as_f64(), 50.0, "outlay under cap is free");
        assert!(objective.is_compliant(&cheap));
    }

    #[test]
    fn cap_overrun_dominates_penalty_savings() {
        let objective = Objective::PenaltiesWithOutlayCap { cap: Dollars::new(100.0) };
        let compliant = breakdown(100.0, 100_000.0, 0.0);
        let overrun = breakdown(101.0, 0.0, 0.0); // saves all penalties
        assert!(
            objective.score(&overrun) > objective.score(&compliant),
            "a $1 overrun must outweigh a $100K penalty saving"
        );
        assert!(!objective.is_compliant(&overrun));
    }
}
