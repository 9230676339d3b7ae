//! Cost attribution and explainability (paper §3, Tables 4–6).
//!
//! The paper's contribution is an *explanation* of a dollar figure:
//! overall annual cost decomposed into amortized outlays plus
//! likelihood-weighted outage and recent-loss penalties per application
//! and failure scenario. [`CostAttribution`] materializes exactly that
//! decomposition for an evaluated [`Candidate`], with a hard guarantee:
//! folding the line items back together reproduces the solver's reported
//! cost **bit-for-bit**, on both the full and the incremental (delta)
//! evaluation paths.
//!
//! The guarantee holds by construction, not by tolerance:
//!
//! * outlay items come from `Provision::outlay_items`, which labels the
//!   lines of the one outlay walk whose in-order sum is
//!   `purchase_outlay`;
//! * penalty items are recorded by the same accumulation code that
//!   produces [`PenaltySummary`], in the same scenario × app order, and
//!   store the very weighted values added to the summary;
//! * the delta path is bit-identical to the full oracle (the PR 3
//!   invariant), so a fresh attribution matches a delta-evaluated cost.
//!
//! [`CostAttribution::verify`] checks all of this and is exercised by
//! the oracle-equivalence property suite.

use serde::{Deserialize, Serialize};

use dsd_recovery::{Evaluator, PenaltyItem, ScenarioOutcomeCache};
use dsd_resources::{OutlayItem, OutlayKind};
use dsd_units::Dollars;
use dsd_workload::AppId;

use crate::candidate::{Candidate, CostBreakdown, PlacementOptions};
use crate::delta::Move;
use crate::env::Environment;

/// Full cost attribution of one evaluated candidate design: every dollar
/// of the objective traced back to a resource purchase or a
/// (application × failure scenario) penalty cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostAttribution {
    /// Itemized purchase outlays, in provision visit order.
    pub outlay_items: Vec<OutlayItem>,
    /// Annual vault media cost (not amortized; charged yearly).
    pub vault_media_annual: Dollars,
    /// Likelihood-weighted penalty items, in accumulation order.
    pub penalty_items: Vec<PenaltyItem>,
    /// The evaluated totals the items must reproduce.
    pub cost: CostBreakdown,
}

impl CostAttribution {
    /// In-order fold of the unamortized purchase items.
    #[must_use]
    pub fn purchase_total(&self) -> Dollars {
        let mut total = Dollars::ZERO;
        for item in &self.outlay_items {
            total += item.purchase;
        }
        total
    }

    /// Annual outlay rebuilt from the items: amortized purchase fold plus
    /// vault media. Bit-identical to `cost.outlay` (same operations in
    /// the same order as `Provision::annual_outlay`).
    #[must_use]
    pub fn outlay_annual(&self) -> Dollars {
        self.purchase_total().amortized_annual() + self.vault_media_annual
    }

    /// `(outage, loss)` totals rebuilt by folding the penalty items in
    /// recorded order. Bit-identical to `cost.penalties`.
    #[must_use]
    pub fn penalty_totals(&self) -> (Dollars, Dollars) {
        PenaltyItem::fold_totals(&self.penalty_items)
    }

    /// Overall annual cost rebuilt from the line items alone.
    /// Bit-identical to `cost.total()`.
    #[must_use]
    pub fn total(&self) -> Dollars {
        let (outage, loss) = self.penalty_totals();
        self.outlay_annual() + (outage + loss)
    }

    /// Per-application `(outage, loss)` folds, in item order — matches
    /// `cost.penalties.per_app` bit-for-bit.
    #[must_use]
    pub fn per_app_totals(&self) -> std::collections::BTreeMap<AppId, (Dollars, Dollars)> {
        let mut map = std::collections::BTreeMap::new();
        for item in &self.penalty_items {
            let entry = map.entry(item.app).or_insert((Dollars::ZERO, Dollars::ZERO));
            entry.0 += item.outage;
            entry.1 += item.loss;
        }
        map
    }

    /// Outlay totals grouped by resource kind (display aggregation; the
    /// bit-exact path is the ungrouped fold).
    #[must_use]
    pub fn outlay_by_kind(&self) -> Vec<(OutlayKind, Dollars, usize)> {
        let mut out: Vec<(OutlayKind, Dollars, usize)> = Vec::new();
        for item in &self.outlay_items {
            match out.iter_mut().find(|(k, _, _)| *k == item.kind) {
                Some((_, total, n)) => {
                    *total += item.purchase;
                    *n += 1;
                }
                None => out.push((item.kind, item.purchase, 1)),
            }
        }
        out
    }

    /// The `k` penalty items with the largest weighted contribution,
    /// ties broken by recording order.
    #[must_use]
    pub fn top_items(&self, k: usize) -> Vec<&PenaltyItem> {
        let mut items: Vec<&PenaltyItem> = self.penalty_items.iter().collect();
        items.sort_by(|a, b| {
            b.weighted_total()
                .as_f64()
                .partial_cmp(&a.weighted_total().as_f64())
                .expect("penalties are not NaN")
        });
        items.truncate(k);
        items
    }

    /// The `k` dominant scenarios for one application.
    #[must_use]
    pub fn top_items_for(&self, app: AppId, k: usize) -> Vec<&PenaltyItem> {
        let mut items: Vec<&PenaltyItem> =
            self.penalty_items.iter().filter(|i| i.app == app).collect();
        items.sort_by(|a, b| {
            b.weighted_total()
                .as_f64()
                .partial_cmp(&a.weighted_total().as_f64())
                .expect("penalties are not NaN")
        });
        items.truncate(k);
        items
    }

    /// Checks the bit-for-bit reproduction guarantee: every rebuilt
    /// total must equal the evaluated [`CostBreakdown`] exactly.
    ///
    /// # Errors
    ///
    /// A description of the first component whose fold does not match.
    pub fn verify(&self) -> Result<(), String> {
        let bits = |d: Dollars| d.as_f64().to_bits();
        if bits(self.outlay_annual()) != bits(self.cost.outlay) {
            return Err(format!(
                "outlay items fold to {} but the evaluated outlay is {}",
                self.outlay_annual().as_f64(),
                self.cost.outlay.as_f64()
            ));
        }
        let (outage, loss) = self.penalty_totals();
        if bits(outage) != bits(self.cost.penalties.outage) {
            return Err(format!(
                "penalty items fold to outage {} but the evaluated outage is {}",
                outage.as_f64(),
                self.cost.penalties.outage.as_f64()
            ));
        }
        if bits(loss) != bits(self.cost.penalties.loss) {
            return Err(format!(
                "penalty items fold to loss {} but the evaluated loss is {}",
                loss.as_f64(),
                self.cost.penalties.loss.as_f64()
            ));
        }
        let per_app = self.per_app_totals();
        if per_app.len() != self.cost.penalties.per_app.len() {
            return Err("per-app fold covers a different application set".to_string());
        }
        for (app, (o, l)) in &per_app {
            let (eo, el) = self.cost.penalties.per_app[app];
            if bits(*o) != bits(eo) || bits(*l) != bits(el) {
                return Err(format!("per-app fold for {app} does not match the evaluation"));
            }
        }
        if bits(self.total()) != bits(self.cost.total()) {
            return Err(format!(
                "line items fold to {} but the evaluated total is {}",
                self.total().as_f64(),
                self.cost.total().as_f64()
            ));
        }
        Ok(())
    }
}

impl Candidate {
    /// Builds the full cost attribution of this candidate. Evaluates the
    /// candidate first if needed; when a cost is already cached (from
    /// either the full or the delta path) that cost is attributed as-is,
    /// and the freshly recorded items reproduce it bit-for-bit.
    #[must_use]
    pub fn attribution(&mut self, env: &Environment) -> CostAttribution {
        self.evaluate(env);
        let cost = self.cost().clone();
        let protections = self.protections(env);
        let scenarios = env.failures.enumerate(self.primaries());
        let evaluator = Evaluator::new(&env.workloads, self.provision(), env.recovery);
        let (_, penalty_items) = evaluator.annual_penalties_attributed(&protections, &scenarios);
        CostAttribution {
            outlay_items: self.provision().outlay_items(),
            vault_media_annual: self.vault_media_annual(env),
            penalty_items,
            cost,
        }
    }
}

/// Marginal cost of one application's chosen protection technique
/// against its best alternative ("runner-up"), measured on the full
/// design objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TechniqueMarginal {
    /// The application.
    pub app: AppId,
    /// Name of the chosen technique.
    pub chosen: String,
    /// Objective score of the design as chosen.
    pub chosen_total: Dollars,
    /// Cheapest alternative technique, if any placement of one fits.
    pub runner_up: Option<RunnerUp>,
}

/// The best alternative technique found for an application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunnerUp {
    /// Technique name.
    pub technique: String,
    /// Objective score of the design with the app switched to this
    /// technique (default configuration, best placement).
    pub total: Dollars,
    /// Signed `total - chosen_total` in dollars per year: what switching
    /// would cost (positive) or save (negative).
    pub marginal: f64,
}

/// Computes, for every assigned application, the marginal cost of its
/// chosen technique against the cheapest eligible alternative. Trials
/// are clone-free applied-and-undone [`Move`]s; the candidate is
/// restored bit-exactly afterwards.
#[must_use]
pub fn technique_marginals(
    env: &Environment,
    candidate: &mut Candidate,
    cache: &mut ScenarioOutcomeCache,
) -> Vec<TechniqueMarginal> {
    candidate.evaluate_with(env, cache);
    let chosen_total = env.score(candidate.cost());
    let assignments: Vec<(AppId, crate::candidate::AppAssignment)> =
        candidate.assignments().iter().map(|(&app, a)| (app, *a)).collect();
    let mut out = Vec::with_capacity(assignments.len());
    for (app, assignment) in assignments {
        let class = env.workloads[app].class_with(&env.thresholds);
        let alternatives: Vec<_> = env
            .catalog
            .eligible_for(class)
            .filter(|(tid, _)| *tid != assignment.technique)
            .map(|(tid, t)| (tid, t.name.clone(), t.default_config()))
            .collect();
        let mut runner: Option<RunnerUp> = None;
        for (tid, name, config) in alternatives {
            for placement in PlacementOptions::enumerate(env, tid) {
                let mv = Move::Reassign { app, technique: tid, config, placement };
                let Ok((cost, undo)) = candidate.evaluate_delta(env, &mv, cache) else {
                    continue;
                };
                let total = env.score(&cost);
                candidate.undo_move(undo);
                if runner.as_ref().is_none_or(|r| total.as_f64() < r.total.as_f64()) {
                    runner = Some(RunnerUp {
                        technique: name.clone(),
                        total,
                        marginal: total.as_f64() - chosen_total.as_f64(),
                    });
                }
            }
        }
        out.push(TechniqueMarginal {
            app,
            chosen: env.catalog[assignment.technique].name.clone(),
            chosen_total,
            runner_up: runner,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config_solver::{ConfigurationSolver, Thoroughness};
    use dsd_failure::{FailureModel, FailureRates};
    use dsd_protection::TechniqueCatalog;
    use dsd_resources::{DeviceSpec, NetworkSpec, Site, Topology};
    use dsd_workload::WorkloadSet;
    use std::sync::Arc;

    fn env() -> Environment {
        let sites = vec![
            Site::new(0, "P1")
                .with_array_slot(DeviceSpec::xp1200())
                .with_array_slot(DeviceSpec::msa1500())
                .with_tape_library(DeviceSpec::tape_library_high())
                .with_compute(8),
            Site::new(1, "S1")
                .with_array_slot(DeviceSpec::xp1200())
                .with_array_slot(DeviceSpec::msa1500())
                .with_tape_library(DeviceSpec::tape_library_high())
                .with_compute(8),
        ];
        let topology = Arc::new(Topology::fully_connected(sites, NetworkSpec::high()));
        Environment::new(
            WorkloadSet::scaled_paper_mix(2),
            topology,
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::case_study()),
        )
    }

    fn solved(env: &Environment) -> Candidate {
        let mut candidate = Candidate::empty(env);
        for app in env.workloads.iter() {
            let class = app.class_with(&env.thresholds);
            let (tid, technique) =
                env.catalog.eligible_for(class).next().expect("eligible technique exists");
            let config = technique.default_config();
            let placed = PlacementOptions::enumerate(env, tid)
                .iter()
                .any(|&p| candidate.try_assign(env, app.id, tid, config, p).is_ok());
            assert!(placed, "fixture must be assignable");
        }
        let solver = ConfigurationSolver::new(env);
        solver.complete(&mut candidate, Thoroughness::Quick);
        candidate
    }

    #[test]
    fn attribution_reproduces_the_evaluation_bit_for_bit() {
        let env = env();
        let mut candidate = solved(&env);
        candidate.evaluate(&env);
        let attribution = candidate.attribution(&env);
        attribution.verify().expect("attribution must fold back exactly");
        assert!(!attribution.outlay_items.is_empty());
        assert!(!attribution.penalty_items.is_empty());
        assert_eq!(
            attribution.total().as_f64().to_bits(),
            candidate.cost().total().as_f64().to_bits()
        );
    }

    #[test]
    fn top_items_rank_by_weighted_contribution() {
        let env = env();
        let mut candidate = solved(&env);
        let attribution = candidate.attribution(&env);
        let top = attribution.top_items(3);
        assert!(top.len() <= 3);
        for pair in top.windows(2) {
            assert!(pair[0].weighted_total().as_f64() >= pair[1].weighted_total().as_f64());
        }
        let app = attribution.penalty_items[0].app;
        for item in attribution.top_items_for(app, 2) {
            assert_eq!(item.app, app);
        }
    }

    #[test]
    fn technique_marginals_restore_the_candidate_bitwise() {
        let env = env();
        let mut candidate = solved(&env);
        let mut cache = ScenarioOutcomeCache::new();
        let before = candidate.evaluate_with(&env, &mut cache).clone();
        let marginals = technique_marginals(&env, &mut candidate, &mut cache);
        assert_eq!(marginals.len(), candidate.assignments().len());
        let after = candidate.evaluate_with(&env, &mut cache).clone();
        assert_eq!(
            before.total().as_f64().to_bits(),
            after.total().as_f64().to_bits(),
            "trials must leave the candidate bit-exactly restored"
        );
        for m in &marginals {
            if let Some(r) = &m.runner_up {
                assert!(
                    r.marginal >= 0.0 || r.total.as_f64() < m.chosen_total.as_f64(),
                    "marginal sign must match the totals"
                );
            }
        }
        candidate.attribution(&env).verify().expect("still attributable after trials");
    }
}
