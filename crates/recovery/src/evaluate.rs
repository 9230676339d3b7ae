//! Scenario evaluation: loss times, recovery times, expected penalties.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use dsd_failure::{FailureScenario, FailureScope};
use dsd_protection::{CopyKind, PropagationDelays};
use dsd_resources::{DeviceRef, Provision};
use dsd_units::{Dollars, MegabytesPerSec, PerYear, TimeSpan};
use dsd_workload::{AppId, WorkloadSet};

use crate::policy::RecoveryPolicy;
use crate::protection::AppProtection;
use crate::scenario_cache::{ScenarioDigest, ScenarioOutcomeCache};
use crate::scheduler::{schedule_into, DeviceTable, JobDevices, RecoveryJob};
use crate::survival::Survivors;

/// How a failed application was brought back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryPath {
    /// Failed over to the mirror site (pre-provisioned spare compute).
    Failover,
    /// Restored the given copy onto (repaired) primary resources.
    Restore(CopyKind),
    /// Promoted the surviving mirror at the secondary site after
    /// procuring replacement compute there (reconstruct-category
    /// techniques when restoring in place would take longer, e.g. after
    /// a site disaster).
    PromoteMirror,
    /// No surviving copy: data recreated by hand at the unprotected
    /// penalty times.
    Unprotected,
}

impl fmt::Display for RecoveryPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryPath::Failover => f.write_str("failover"),
            RecoveryPath::Restore(c) => write!(f, "restore from {c}"),
            RecoveryPath::PromoteMirror => f.write_str("promote mirror"),
            RecoveryPath::Unprotected => f.write_str("unprotected"),
        }
    }
}

/// Evaluation result for one application in one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppOutcome {
    /// The affected application.
    pub app: AppId,
    /// The recovery path taken.
    pub path: RecoveryPath,
    /// Data outage time (failure to application-online).
    pub recovery_time: TimeSpan,
    /// Recent data loss time (staleness of the recovered copy).
    pub loss_time: TimeSpan,
    /// For failover / mirror-promotion recoveries: when the application
    /// is back *home* — hardware repaired and the dataset copied back in
    /// the background (paper §2.1: "failover requires a later fail back
    /// operation (performed in the background)"). Does not extend the
    /// outage. `None` for in-place restores.
    pub failback_time: Option<TimeSpan>,
}

/// Evaluation result of one failure scenario: outcomes for every affected
/// application (unaffected applications continue running and incur no
/// penalty).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// The evaluated scenario's scope.
    pub scope: FailureScope,
    /// Per-affected-application outcomes, in app order.
    pub outcomes: Vec<AppOutcome>,
}

/// One likelihood-weighted penalty line item: a single
/// (application × failure scenario) cell of the paper's penalty tables
/// (§3, Tables 4–6), with the weighting shown explicitly. It holds
/// everything the cell's [`AppOutcome`] holds, so every per-scenario
/// report (recovery tables, availability, double-failure windows) reads
/// the items instead of re-running the scheduler.
///
/// Items are recorded in the exact order the accumulation visits them
/// (scenario order, then app order within a scenario), so folding
/// `outage` / `loss` left-to-right reproduces the matching
/// [`PenaltySummary`] totals bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PenaltyItem {
    /// The failure scenario's scope.
    pub scope: FailureScope,
    /// Annual likelihood of the scenario.
    pub likelihood: PerYear,
    /// The affected application.
    pub app: AppId,
    /// The recovery path taken.
    pub path: RecoveryPath,
    /// Data outage time in this scenario.
    pub recovery_time: TimeSpan,
    /// Recent data loss time in this scenario.
    pub loss_time: TimeSpan,
    /// When the application is back home after a failover or mirror
    /// promotion (see [`AppOutcome::failback_time`]); `None` for
    /// in-place restores.
    pub failback_time: Option<TimeSpan>,
    /// Unweighted outage penalty (per occurrence of the scenario).
    pub outage_raw: Dollars,
    /// Unweighted recent-loss penalty (per occurrence of the scenario).
    pub loss_raw: Dollars,
    /// Likelihood-weighted expected annual outage penalty.
    pub outage: Dollars,
    /// Likelihood-weighted expected annual recent-loss penalty.
    pub loss: Dollars,
}

impl PenaltyItem {
    /// Weighted outage + loss contribution of this item.
    #[must_use]
    pub fn weighted_total(&self) -> Dollars {
        self.outage + self.loss
    }

    /// Folds a slice of items back into `(outage, loss)` totals, in item
    /// order — bit-identical to the [`PenaltySummary`] the items were
    /// recorded alongside.
    #[must_use]
    pub fn fold_totals(items: &[PenaltyItem]) -> (Dollars, Dollars) {
        let mut outage = Dollars::ZERO;
        let mut loss = Dollars::ZERO;
        for item in items {
            outage += item.outage;
            loss += item.loss;
        }
        (outage, loss)
    }
}

/// Expected annual penalties, likelihood-weighted over all scenarios
/// (paper §2.5).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PenaltySummary {
    /// Expected annual data outage penalty.
    pub outage: Dollars,
    /// Expected annual recent data loss penalty.
    pub loss: Dollars,
    /// Per-application (outage, loss) expected annual penalties.
    pub per_app: BTreeMap<AppId, (Dollars, Dollars)>,
}

impl PenaltySummary {
    /// Total expected annual penalty.
    #[must_use]
    pub fn total(&self) -> Dollars {
        self.outage + self.loss
    }

    /// True if every component is finite (i.e. every failure scenario has
    /// a completing recovery path for every affected application).
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.total().is_finite()
    }
}

impl fmt::Display for PenaltySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "outage {} + loss {} = {}", self.outage, self.loss, self.total())
    }
}

/// Classic availability summary for one application, derived from the
/// likelihood-weighted recovery times.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Availability {
    /// The application.
    pub app: AppId,
    /// Expected downtime per year over all scenarios.
    pub expected_annual_downtime: TimeSpan,
    /// Steady-state availability in `[0, 1]`.
    pub availability: f64,
}

impl Availability {
    /// Expected annual downtime and availability of each of `apps`: the
    /// likelihood-weighted sum of its recovery times over `items`,
    /// against the 8760-hour year. An app no item names was never
    /// affected and is fully available. The sums run in item order, so
    /// they are the same bits whichever way the items were recorded.
    #[must_use]
    pub fn from_items(
        apps: impl IntoIterator<Item = AppId>,
        items: &[PenaltyItem],
    ) -> Vec<Availability> {
        let mut downtime: BTreeMap<AppId, f64> = apps.into_iter().map(|app| (app, 0.0)).collect();
        for item in items {
            *downtime.entry(item.app).or_insert(0.0) +=
                item.likelihood.as_f64() * item.recovery_time.as_hours();
        }
        downtime
            .into_iter()
            .map(|(app, hours)| Availability {
                app,
                expected_annual_downtime: TimeSpan::from_hours(hours.min(f64::MAX / 2.0)),
                availability: (1.0 - hours / dsd_units::HOURS_PER_YEAR).clamp(0.0, 1.0),
            })
            .collect()
    }

    /// The "number of nines" of the availability (e.g. 0.9995 → 3.3).
    #[must_use]
    pub fn nines(&self) -> f64 {
        if self.availability >= 1.0 {
            f64::INFINITY
        } else {
            -(1.0 - self.availability).log10()
        }
    }
}

/// Evaluates designs against failure scenarios (paper §3.2).
#[derive(Debug, Clone, Copy)]
pub struct Evaluator<'a> {
    pub(crate) workloads: &'a WorkloadSet,
    provision: &'a Provision,
    pub(crate) policy: RecoveryPolicy,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over the given workloads and provisioned
    /// infrastructure.
    #[must_use]
    pub fn new(
        workloads: &'a WorkloadSet,
        provision: &'a Provision,
        policy: RecoveryPolicy,
    ) -> Self {
        Evaluator { workloads, provision, policy }
    }

    /// Propagation delays of `protection`'s copy hierarchy given the
    /// provisioned bandwidths (the "n/w" and "tape" entries of Table 2).
    /// A recovery stream may use the application's own allocated share
    /// plus the device's spare bandwidth.
    #[must_use]
    pub fn propagation_delays(&self, protection: &AppProtection) -> PropagationDelays {
        let app = &self.workloads[protection.app];
        let network = match (protection.technique.mirror, protection.placement.route) {
            (Some(m), Some(route)) if !m.sync => {
                let batch = app.avg_update() * m.acc_win;
                let rate = self.stream_rate(protection.app, DeviceRef::Route(route));
                batch / rate
            }
            _ => TimeSpan::ZERO,
        };
        let tape = match protection.placement.tape {
            Some(t) if protection.technique.has_backup() => {
                let rate = self.stream_rate(protection.app, DeviceRef::Tape(t));
                app.capacity() / rate
            }
            _ => TimeSpan::ZERO,
        };
        PropagationDelays { network, tape }
    }

    /// Bandwidth available to a stream of `app` on device `d`: the app's
    /// own allocation plus the device's spare.
    pub(crate) fn stream_rate(&self, app: AppId, d: DeviceRef) -> MegabytesPerSec {
        self.provision.app_alloc_bandwidth_on(app, d) + self.provision.spare_bandwidth(d)
    }

    /// Time from the failure instant until the application is back on
    /// its (repaired) home hardware after a failover or promotion: the
    /// hardware repair lead time, then a background copy of the dataset
    /// from the mirror site over the route and arrays' spare bandwidth,
    /// then a reconfiguration. Background work — it does not contribute
    /// to the outage penalty.
    #[must_use]
    pub fn failback_time(&self, protection: &AppProtection, scope: &FailureScope) -> TimeSpan {
        let app = &self.workloads[protection.app];
        let repair = match scope {
            FailureScope::DataObject { .. } => TimeSpan::ZERO,
            FailureScope::DiskArray { .. } => self.policy.array_repair,
            FailureScope::SiteDisaster { .. } => self.policy.site_rebuild,
        };
        let placement = &protection.placement;
        let devices = [
            Some(DeviceRef::Array(placement.primary)),
            placement.mirror.map(DeviceRef::Array),
            placement.route.map(DeviceRef::Route),
        ];
        let rate = devices
            .into_iter()
            .flatten()
            .map(|d| self.stream_rate(protection.app, d))
            .fold(MegabytesPerSec::new(f64::MAX / 2.0), MegabytesPerSec::min);
        repair + app.capacity() / rate + self.policy.reconfig_time
    }

    /// Worst-case staleness of `copy` for `protection` under the
    /// provisioned propagation delays.
    #[must_use]
    pub fn staleness(&self, protection: &AppProtection, copy: CopyKind) -> TimeSpan {
        let delays = self.propagation_delays(protection);
        protection.technique.staleness(copy, &protection.config, &delays)
    }

    /// Evaluates one failure scenario: decides each affected
    /// application's recovery path, schedules contending restore streams
    /// with priority serialization, and returns per-application outage
    /// and loss times. Allocates the returned outcomes and, for a
    /// scenario that schedules restores, one job buffer and one device
    /// table; a penalty fold shares those two across its scenarios.
    #[must_use]
    pub fn evaluate_scenario(
        &self,
        protections: &[AppProtection],
        scope: &FailureScope,
    ) -> ScenarioOutcome {
        let affected =
            protections.iter().filter(|p| scope.affects_app(p.app, p.placement.primary)).count();
        let mut scratch = Scratch { outcomes: Vec::with_capacity(affected), ..Scratch::default() };
        self.recover(protections, scope, &mut scratch);
        ScenarioOutcome { scope: *scope, outcomes: scratch.outcomes }
    }

    /// The scenario evaluation behind [`Self::evaluate_scenario`] and
    /// every penalty fold: writes the outcomes of the applications
    /// `scope` affects into `scratch.outcomes`, in app order. Restores
    /// go through `scratch`'s job buffer and device table, so a caller
    /// that keeps the scratch allocates nothing once its buffers have
    /// grown.
    fn recover(&self, protections: &[AppProtection], scope: &FailureScope, scratch: &mut Scratch) {
        let Scratch { jobs, device_free, outcomes } = scratch;
        jobs.clear();
        outcomes.clear();
        let repair = match scope {
            FailureScope::DataObject { .. } => TimeSpan::ZERO,
            FailureScope::DiskArray { .. } => self.policy.array_repair,
            FailureScope::SiteDisaster { .. } => self.policy.site_rebuild,
        };

        for protection in protections {
            if !scope.affects_app(protection.app, protection.placement.primary) {
                continue;
            }
            let app = &self.workloads[protection.app];
            let surviving = Survivors::of(protection, scope);
            if surviving.is_empty() {
                outcomes.push(AppOutcome {
                    app: protection.app,
                    path: RecoveryPath::Unprotected,
                    recovery_time: self.policy.unprotected_recovery,
                    loss_time: self.policy.unprotected_loss,
                    failback_time: None,
                });
                continue;
            }
            // The propagation delays, and so each copy's staleness, are
            // the same whichever copy is chosen.
            let delays = self.propagation_delays(protection);
            let staleness =
                |copy| protection.technique.staleness(copy, &protection.config, &delays);

            // Failover short-circuits restore when the mirror survived and
            // the failover site itself is intact.
            let can_failover = protection.technique.is_failover()
                && surviving.contains(CopyKind::Mirror)
                && protection.placement.failover_site.is_some_and(|s| !scope.fails_site(s));
            if can_failover {
                outcomes.push(AppOutcome {
                    app: protection.app,
                    path: RecoveryPath::Failover,
                    recovery_time: self.policy.failover_time,
                    loss_time: staleness(CopyKind::Mirror),
                    failback_time: Some(self.failback_time(protection, scope)),
                });
                continue;
            }

            // Otherwise restore the accessible copy with minimum staleness
            // (paper §3.2.1).
            let (copy, loss_time) = surviving
                .iter()
                .map(|copy| (copy, staleness(copy)))
                .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("staleness values are comparable"))
                .expect("some copy survived");

            let lead_time = if copy == CopyKind::Vault {
                repair.max(self.policy.vault_retrieval)
            } else {
                repair
            };

            let primary = DeviceRef::Array(protection.placement.primary);
            let devices = match copy {
                CopyKind::Snapshot => JobDevices::new(&[primary]),
                CopyKind::Backup | CopyKind::Vault => {
                    let tape = protection.placement.tape.expect("backup copies have a tape");
                    JobDevices::new(&[DeviceRef::Tape(tape), primary])
                }
                CopyKind::Mirror => {
                    let mirror = protection.placement.mirror.expect("mirror copies have an array");
                    let mut d = JobDevices::new(&[DeviceRef::Array(mirror), primary]);
                    if let Some(route) = protection.placement.route {
                        d.push(DeviceRef::Route(route));
                    }
                    d
                }
            };
            let rate = devices
                .iter()
                .map(|&d| self.stream_rate(protection.app, d))
                .fold(MegabytesPerSec::new(f64::MAX / 2.0), MegabytesPerSec::min);
            let transfer =
                (app.capacity() * protection.technique.restore_amplification(copy)) / rate;

            // Mirror promotion: instead of restoring in place, procure
            // compute at the surviving mirror site and run from the
            // mirror copy (no bulk transfer, no shared-device seizure).
            // Chosen when it beats the in-place estimate — after a site
            // disaster the 7-day rebuild always loses to procurement.
            let promote = copy == CopyKind::Mirror
                && protection.placement.mirror.is_some_and(|m| !scope.fails_site(m.site))
                && self.policy.compute_procurement < lead_time + transfer;
            let (path, failback_time, job) = if promote {
                let job = RecoveryJob {
                    app: protection.app,
                    priority: app.priority(),
                    lead_time: self.policy.compute_procurement,
                    devices: JobDevices::NONE,
                    transfer: TimeSpan::ZERO,
                    tail: self.policy.reconfig_time,
                };
                (RecoveryPath::PromoteMirror, Some(self.failback_time(protection, scope)), job)
            } else {
                let job = RecoveryJob {
                    app: protection.app,
                    priority: app.priority(),
                    lead_time,
                    devices,
                    transfer,
                    tail: self.policy.reconfig_time,
                };
                (RecoveryPath::Restore(copy), None, job)
            };
            jobs.push(SlottedJob { outcome: outcomes.len(), job });
            // The schedule below fills in the recovery time.
            outcomes.push(AppOutcome {
                app: protection.app,
                path,
                recovery_time: TimeSpan::ZERO,
                loss_time,
                failback_time,
            });
        }

        schedule_into(jobs, self.policy.scheduling, device_free, |slotted, done| {
            outcomes[slotted.outcome].recovery_time = done;
        });
        // Protections come in app order from every caller in this
        // workspace; sort only what arrives otherwise.
        if !outcomes.is_sorted_by_key(|o| o.app) {
            outcomes.sort_by_key(|o| o.app);
        }
        dsd_obs::add("recovery.scenarios_evaluated", 1);
        if dsd_obs::enabled() {
            let scope_kind = match scope {
                FailureScope::DataObject { .. } => "data-object",
                FailureScope::DiskArray { .. } => "disk-array",
                FailureScope::SiteDisaster { .. } => "site-disaster",
            };
            let worst_hours =
                outcomes.iter().map(|o| o.recovery_time.as_hours()).fold(0.0f64, f64::max);
            dsd_obs::instant_with(
                "recovery.scenario",
                "recovery",
                vec![
                    ("scope", scope_kind.into()),
                    ("affected", outcomes.len().into()),
                    ("worst_recovery_hours", worst_hours.into()),
                ],
            );
        }
    }

    /// Expected annual penalties over all `scenarios` (paper §2.5: each
    /// scenario's outage and loss penalties weighted by its annual
    /// likelihood and summed).
    #[must_use]
    pub fn annual_penalties(
        &self,
        protections: &[AppProtection],
        scenarios: &[FailureScenario],
    ) -> PenaltySummary {
        self.fold_penalties(protections, scenarios, Outcomes::Computed, (), |_, _| false)
            .expect("an unbounded fold runs to the end")
            .0
    }

    /// [`Self::annual_penalties`] with full cost attribution: alongside
    /// the totals, records one [`PenaltyItem`] per
    /// (scenario × affected application), in accumulation order. The
    /// items' weighted fields are the exact values folded into the
    /// summary, so [`PenaltyItem::fold_totals`] over the returned items
    /// is bit-identical to the summary's `outage` / `loss` — and, by the
    /// delta-evaluation oracle invariant, to any cached or incremental
    /// evaluation of the same design.
    #[must_use]
    pub fn annual_penalties_attributed(
        &self,
        protections: &[AppProtection],
        scenarios: &[FailureScenario],
    ) -> (PenaltySummary, Vec<PenaltyItem>) {
        self.fold_penalties(protections, scenarios, Outcomes::Computed, Vec::new(), |_, _| false)
            .expect("an unbounded fold runs to the end")
    }

    /// [`Self::annual_penalties`] with scope-keyed scenario memoization
    /// and an early exit: a scenario whose dependency-slice digest
    /// matches a cached entry replays the stored outcome, without a
    /// clone, instead of re-scheduling it; and after each scenario's
    /// items, `stop` sees the running `(outage, loss)` totals. The fold
    /// returns `None` as soon as `stop` holds, skipping the scenarios
    /// left, and the full summary otherwise. The likelihood-weighted
    /// accumulation runs through the same code as the uncached path, so
    /// a fold that runs to the end is bit-identical to it whenever every
    /// replayed outcome is (the digest's contract).
    ///
    /// Every weighted item is non-negative (or NaN), so the running
    /// totals only grow: a `stop` that is monotone in them may end the
    /// fold once the final totals could no longer matter (DESIGN.md
    /// §6f). Pass `|_, _| false` to fold every scenario.
    ///
    /// `digests[i]` must be the dependency-slice digest of
    /// `scenarios[i]` for the provision this evaluator was built over —
    /// the caller computes them (it knows the candidate's assignment
    /// shape; see `dsd-core`'s `scenario_digests`). The cache must only
    /// ever be used with one environment (workloads, failure model,
    /// recovery policy): digests do not cover those inputs.
    ///
    /// # Panics
    ///
    /// If `digests.len() != scenarios.len()`.
    #[must_use]
    pub fn annual_penalties_cached(
        &self,
        protections: &[AppProtection],
        scenarios: &[FailureScenario],
        digests: &[ScenarioDigest],
        cache: &mut ScenarioOutcomeCache,
        stop: impl FnMut(Dollars, Dollars) -> bool,
    ) -> Option<PenaltySummary> {
        let source = Outcomes::Cached { digests, cache };
        self.fold_penalties(protections, scenarios, source, (), stop).map(|(summary, ())| summary)
    }

    /// The one penalty fold behind every `annual_penalties*` entry point:
    /// takes each scenario's outcome from `source`, adds its
    /// likelihood-weighted outage and loss penalties to the summary in
    /// scenario order (then app order), and hands the per-app line items
    /// to `collect`. Every entry point thus performs literally the same
    /// floating-point operations in the same order, so cached, attributed
    /// and plain totals are bit-identical. After each scenario, `stop`
    /// sees the running totals; when it holds the fold ends with `None`.
    /// One scratch serves every scenario the fold evaluates.
    fn fold_penalties<C: Collect>(
        &self,
        protections: &[AppProtection],
        scenarios: &[FailureScenario],
        mut source: Outcomes<'_>,
        mut collect: C,
        mut stop: impl FnMut(Dollars, Dollars) -> bool,
    ) -> Option<(PenaltySummary, C)> {
        if let Outcomes::Cached { digests, .. } = &source {
            assert_eq!(scenarios.len(), digests.len(), "one dependency-slice digest per scenario");
        }
        let mut penalties_span = dsd_obs::span("recovery.annual_penalties", "recovery");
        penalties_span.arg("scenarios", scenarios.len());
        let mut scratch = Scratch::default();
        let mut summary = PenaltySummary::default();
        for (i, scenario) in scenarios.iter().enumerate() {
            let outcomes: &[AppOutcome] = match &mut source {
                Outcomes::Computed => {
                    self.recover(protections, &scenario.scope, &mut scratch);
                    &scratch.outcomes
                }
                Outcomes::Cached { digests, cache } => {
                    let cached = cache.get_or_insert_with(&scenario.scope, digests[i], || {
                        self.recover(protections, &scenario.scope, &mut scratch);
                        ScenarioOutcome {
                            scope: scenario.scope,
                            outcomes: scratch.outcomes.clone(),
                        }
                    });
                    &cached.outcomes
                }
            };
            for o in outcomes {
                let model = self.workloads[o.app].penalty_model();
                let outage_raw = model.outage_penalty(o.recovery_time);
                let loss_raw = model.loss_penalty(o.loss_time);
                let outage = scenario.likelihood * outage_raw;
                let loss = scenario.likelihood * loss_raw;
                summary.outage += outage;
                summary.loss += loss;
                let entry = summary.per_app.entry(o.app).or_insert((Dollars::ZERO, Dollars::ZERO));
                entry.0 += outage;
                entry.1 += loss;
                collect.item(PenaltyItem {
                    scope: scenario.scope,
                    likelihood: scenario.likelihood,
                    app: o.app,
                    path: o.path,
                    recovery_time: o.recovery_time,
                    loss_time: o.loss_time,
                    failback_time: o.failback_time,
                    outage_raw,
                    loss_raw,
                    outage,
                    loss,
                });
            }
            if stop(summary.outage, summary.loss) {
                dsd_obs::add("recovery.folds_stopped", 1);
                dsd_obs::add("recovery.scenarios_skipped", (scenarios.len() - (i + 1)) as u64);
                return None;
            }
        }
        Some((summary, collect))
    }
}

/// Buffers a penalty fold shares across its scenarios: the restore
/// jobs, the scheduler's device table, and the outcomes of the scenario
/// being priced.
#[derive(Debug, Default)]
struct Scratch {
    jobs: Vec<SlottedJob>,
    device_free: DeviceTable,
    outcomes: Vec<AppOutcome>,
}

/// A restore job and the index of its application's outcome, which the
/// schedule fills in.
#[derive(Debug)]
struct SlottedJob {
    outcome: usize,
    job: RecoveryJob,
}

impl AsRef<RecoveryJob> for SlottedJob {
    fn as_ref(&self) -> &RecoveryJob {
        &self.job
    }
}

/// Where [`Evaluator::fold_penalties`] gets each scenario's outcome.
enum Outcomes<'c> {
    /// Evaluate every scenario afresh.
    Computed,
    /// Replay from a scope-keyed cache; `digests[i]` keys `scenarios[i]`.
    Cached { digests: &'c [ScenarioDigest], cache: &'c mut ScenarioOutcomeCache },
}

/// What [`Evaluator::fold_penalties`] keeps besides the totals: nothing
/// (`()`), or the per-app [`PenaltyItem`]s. The weighted `outage` /
/// `loss` in each item are the very values added to the summary, so an
/// in-order fold of the items reproduces it bit-for-bit.
trait Collect {
    /// One (scenario × affected application) line item, in fold order.
    fn item(&mut self, _item: PenaltyItem) {}
}

impl Collect for () {}

impl Collect for Vec<PenaltyItem> {
    fn item(&mut self, item: PenaltyItem) {
        self.push(item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protection::Placement;
    use dsd_failure::{FailureModel, FailureRates};
    use dsd_protection::{Demands, SizingPolicy, TechniqueCatalog};
    use dsd_resources::{ArrayRef, DeviceSpec, NetworkSpec, Site, SiteId, TapeRef, Topology};
    use dsd_units::PerYear;
    use std::sync::Arc;

    fn topology() -> Arc<Topology> {
        let sites = vec![
            Site::new(0, "P1")
                .with_array_slot(DeviceSpec::xp1200())
                .with_array_slot(DeviceSpec::msa1500())
                .with_tape_library(DeviceSpec::tape_library_high())
                .with_compute(8),
            Site::new(1, "P2")
                .with_array_slot(DeviceSpec::xp1200())
                .with_array_slot(DeviceSpec::msa1500())
                .with_tape_library(DeviceSpec::tape_library_high())
                .with_compute(8),
        ];
        Arc::new(Topology::fully_connected(sites, NetworkSpec::high()))
    }

    /// Builds a one-app environment protected by `technique_name`, with
    /// allocations actually made on the provision.
    fn setup(technique_name: &str) -> (WorkloadSet, Provision, AppProtection) {
        let workloads = WorkloadSet::scaled_paper_mix(1); // central banking
        let app = AppId(0);
        let catalog = TechniqueCatalog::table2();
        let technique = catalog[catalog.find(technique_name).unwrap()].clone();
        let config = technique.default_config();
        let primary = ArrayRef { site: SiteId(0), slot: 0 };
        let placement = Placement {
            primary,
            mirror: technique.has_mirror().then_some(ArrayRef { site: SiteId(1), slot: 0 }),
            tape: technique.has_backup().then_some(TapeRef::first(SiteId(0))),
            route: None,
            failover_site: technique.is_failover().then_some(SiteId(1)),
        };

        let mut provision = Provision::new(topology());
        let demands =
            Demands::compute(&workloads[app], &technique, &config, &SizingPolicy::default());
        provision
            .alloc_array(app, primary, demands.primary_capacity, demands.primary_bandwidth)
            .unwrap();
        provision.alloc_compute(app, SiteId(0), 1).unwrap();
        let mut placement = placement;
        if let Some(mirror) = placement.mirror {
            provision
                .alloc_array(app, mirror, demands.mirror_capacity, demands.mirror_bandwidth)
                .unwrap();
            let route = provision
                .alloc_network(app, SiteId(0), SiteId(1), demands.network_bandwidth)
                .unwrap();
            placement.route = Some(route);
        }
        if let Some(tape) = placement.tape {
            provision.alloc_tape(app, tape, demands.tape_capacity, demands.tape_bandwidth).unwrap();
        }
        if placement.failover_site.is_some() {
            provision.alloc_compute(app, SiteId(1), 1).unwrap();
        }
        let protection = AppProtection { app, technique, config, placement };
        (workloads, provision, protection)
    }

    #[test]
    fn failover_recovery_is_fast() {
        let (w, p, prot) = setup("sync mirror (F) with backup");
        let ev = Evaluator::new(&w, &p, RecoveryPolicy::default());
        let scope = FailureScope::DiskArray { array: prot.placement.primary };
        let out = ev.evaluate_scenario(std::slice::from_ref(&prot), &scope);
        assert_eq!(out.outcomes.len(), 1);
        let o = out.outcomes[0];
        assert_eq!(o.path, RecoveryPath::Failover);
        assert_eq!(o.recovery_time.as_mins(), 15.0);
        assert_eq!(o.loss_time.as_mins(), 0.5, "sync mirror staleness");
    }

    #[test]
    fn failover_reports_background_failback() {
        let (w, p, prot) = setup("sync mirror (F) with backup");
        let ev = Evaluator::new(&w, &p, RecoveryPolicy::default());
        let scope = FailureScope::DiskArray { array: prot.placement.primary };
        let out = ev.evaluate_scenario(std::slice::from_ref(&prot), &scope);
        let o = out.outcomes[0];
        let failback = o.failback_time.expect("failover has a failback");
        assert!(failback > o.recovery_time, "failback happens after the app is back up");
        assert!(
            failback >= RecoveryPolicy::default().array_repair,
            "failback waits for hardware repair"
        );
        assert!(failback.is_finite());
    }

    #[test]
    fn in_place_restores_have_no_failback() {
        let (w, p, prot) = setup("tape backup");
        let ev = Evaluator::new(&w, &p, RecoveryPolicy::default());
        let scope = FailureScope::DataObject { app: AppId(0) };
        let out = ev.evaluate_scenario(std::slice::from_ref(&prot), &scope);
        assert_eq!(out.outcomes[0].failback_time, None);
    }

    #[test]
    fn site_disaster_failback_waits_for_site_rebuild() {
        let (w, p, prot) = setup("async mirror (F) with backup");
        let ev = Evaluator::new(&w, &p, RecoveryPolicy::default());
        let scope = FailureScope::SiteDisaster { site: SiteId(0) };
        let out = ev.evaluate_scenario(std::slice::from_ref(&prot), &scope);
        let o = out.outcomes[0];
        assert_eq!(o.path, RecoveryPath::Failover);
        assert!(o.failback_time.unwrap() >= RecoveryPolicy::default().site_rebuild);
        assert!(o.recovery_time < TimeSpan::from_hours(1.0), "outage stays short");
    }

    #[test]
    fn object_failure_restores_snapshot_even_with_mirror() {
        let (w, p, prot) = setup("sync mirror (F) with backup");
        let ev = Evaluator::new(&w, &p, RecoveryPolicy::default());
        let scope = FailureScope::DataObject { app: AppId(0) };
        let out = ev.evaluate_scenario(std::slice::from_ref(&prot), &scope);
        let o = out.outcomes[0];
        assert_eq!(o.path, RecoveryPath::Restore(CopyKind::Snapshot));
        assert_eq!(o.loss_time.as_hours(), 12.0);
        assert!(o.recovery_time.is_finite());
        assert!(
            o.recovery_time > TimeSpan::from_mins(30.0),
            "restore includes data copy-back plus reconfiguration"
        );
    }

    #[test]
    fn site_disaster_with_mirror_promotes_instead_of_waiting_for_rebuild() {
        let (w, p, prot) = setup("sync mirror (R)");
        let ev = Evaluator::new(&w, &p, RecoveryPolicy::default());
        let scope = FailureScope::SiteDisaster { site: SiteId(0) };
        let out = ev.evaluate_scenario(std::slice::from_ref(&prot), &scope);
        let o = out.outcomes[0];
        assert_eq!(o.path, RecoveryPath::PromoteMirror);
        let expected =
            RecoveryPolicy::default().compute_procurement + RecoveryPolicy::default().reconfig_time;
        assert!((o.recovery_time.as_hours() - expected.as_hours()).abs() < 1e-9);
        assert!(o.recovery_time < TimeSpan::from_days(2.0));
    }

    #[test]
    fn reconstruct_mirror_restores_over_network() {
        let (w, p, prot) = setup("sync mirror (R)");
        let ev = Evaluator::new(&w, &p, RecoveryPolicy::default());
        let scope = FailureScope::DiskArray { array: prot.placement.primary };
        let out = ev.evaluate_scenario(std::slice::from_ref(&prot), &scope);
        let o = out.outcomes[0];
        assert_eq!(o.path, RecoveryPath::Restore(CopyKind::Mirror));
        // Repair 12h + transfer over min(bw) + reconfig 30min, with the
        // network as bottleneck: route sized for 50 MB/s peak x2 headroom
        // = 5 links = 100 MB/s total bandwidth.
        let transfer_h = 1300.0 * 1024.0 / 100.0 / 3600.0;
        assert!((o.recovery_time.as_hours() - (12.0 + transfer_h + 0.5)).abs() < 0.2);
    }

    #[test]
    fn site_disaster_on_backup_only_goes_to_vault() {
        let (w, p, prot) = setup("tape backup");
        let ev = Evaluator::new(&w, &p, RecoveryPolicy::default());
        let scope = FailureScope::SiteDisaster { site: SiteId(0) };
        let out = ev.evaluate_scenario(std::slice::from_ref(&prot), &scope);
        let o = out.outcomes[0];
        assert_eq!(o.path, RecoveryPath::Restore(CopyKind::Vault));
        assert!(o.recovery_time > TimeSpan::from_days(7.0), "site rebuild dominates the lead time");
        assert!(o.loss_time > TimeSpan::from_days(28.0), "vault staleness is weeks");
    }

    #[test]
    fn mirror_only_object_failure_is_unprotected() {
        let (w, p, prot) = setup("sync mirror (F)");
        let ev = Evaluator::new(&w, &p, RecoveryPolicy::default());
        let scope = FailureScope::DataObject { app: AppId(0) };
        let out = ev.evaluate_scenario(std::slice::from_ref(&prot), &scope);
        let o = out.outcomes[0];
        assert_eq!(o.path, RecoveryPath::Unprotected);
        assert_eq!(o.recovery_time.as_days(), 28.0);
    }

    #[test]
    fn unaffected_apps_incur_nothing() {
        let (w, p, prot) = setup("tape backup");
        let ev = Evaluator::new(&w, &p, RecoveryPolicy::default());
        let scope = FailureScope::DataObject { app: AppId(42) };
        let out = ev.evaluate_scenario(std::slice::from_ref(&prot), &scope);
        assert!(out.outcomes.is_empty());
    }

    #[test]
    fn annual_penalties_weight_by_likelihood() {
        let (w, p, prot) = setup("sync mirror (F) with backup");
        let ev = Evaluator::new(&w, &p, RecoveryPolicy::default());
        let model = FailureModel::new(FailureRates::case_study());
        let scenarios = model.enumerate([(AppId(0), prot.placement.primary)]);
        let summary = ev.annual_penalties(std::slice::from_ref(&prot), &scenarios);
        assert!(summary.is_finite());
        assert!(summary.total().as_f64() > 0.0);
        assert_eq!(scenarios.len(), 3);
        let (o, l) = summary.per_app[&AppId(0)];
        assert!((summary.outage.as_f64() - o.as_f64()).abs() < 1e-6);
        assert!((summary.loss.as_f64() - l.as_f64()).abs() < 1e-6);

        // Doubling every likelihood doubles the penalties.
        let doubled: Vec<FailureScenario> = scenarios
            .iter()
            .map(|s| FailureScenario {
                scope: s.scope,
                likelihood: PerYear::new(s.likelihood.as_f64() * 2.0),
            })
            .collect();
        let summary2 = ev.annual_penalties(std::slice::from_ref(&prot), &doubled);
        assert!((summary2.total().as_f64() - 2.0 * summary.total().as_f64()).abs() < 1e-3);
    }

    #[test]
    fn attributed_penalties_match_the_totals_bit_for_bit() {
        let (w, p, prot) = setup("sync mirror (F) with backup");
        let ev = Evaluator::new(&w, &p, RecoveryPolicy::default());
        let model = FailureModel::new(FailureRates::case_study());
        let scenarios = model.enumerate([(AppId(0), prot.placement.primary)]);

        let plain = ev.annual_penalties(std::slice::from_ref(&prot), &scenarios);
        let (attributed, items) =
            ev.annual_penalties_attributed(std::slice::from_ref(&prot), &scenarios);
        assert_eq!(plain, attributed, "attribution must not perturb the totals");

        // One item per (scenario x affected app), holding the outcome.
        let outcomes: Vec<(FailureScope, AppOutcome)> = scenarios
            .iter()
            .flat_map(|s| {
                let outcome = ev.evaluate_scenario(std::slice::from_ref(&prot), &s.scope);
                outcome.outcomes.into_iter().map(move |o| (outcome.scope, o))
            })
            .collect();
        assert_eq!(items.len(), outcomes.len(), "one item per (scenario x affected app)");
        for (item, (scope, o)) in items.iter().zip(&outcomes) {
            let recorded = AppOutcome {
                app: item.app,
                path: item.path,
                recovery_time: item.recovery_time,
                loss_time: item.loss_time,
                failback_time: item.failback_time,
            };
            assert_eq!((item.scope, recorded), (*scope, *o));
        }

        let (outage, loss) = PenaltyItem::fold_totals(&items);
        assert_eq!(outage.as_f64().to_bits(), plain.outage.as_f64().to_bits());
        assert_eq!(loss.as_f64().to_bits(), plain.loss.as_f64().to_bits());
        for item in &items {
            let weighted = item.likelihood * item.outage_raw;
            assert_eq!(weighted.as_f64().to_bits(), item.outage.as_f64().to_bits());
            assert!(item.weighted_total().as_f64() >= 0.0);
        }
    }

    #[test]
    fn cached_annual_penalties_replay_bit_identically() {
        let (w, p, prot) = setup("sync mirror (F) with backup");
        let ev = Evaluator::new(&w, &p, RecoveryPolicy::default());
        let model = FailureModel::new(FailureRates::case_study());
        let scenarios = model.enumerate([(AppId(0), prot.placement.primary)]);
        let digests: Vec<ScenarioDigest> =
            (0..scenarios.len()).map(|i| ScenarioDigest(i as u64, !(i as u64))).collect();
        let protections = std::slice::from_ref(&prot);

        let full = ev.annual_penalties(protections, &scenarios);
        let mut cache = ScenarioOutcomeCache::new();
        let cached = |cache: &mut ScenarioOutcomeCache| {
            ev.annual_penalties_cached(protections, &scenarios, &digests, cache, |_, _| false)
                .expect("a fold that never stops runs to the end")
        };
        let cold = cached(&mut cache);
        assert_eq!(cache.recomputed(), scenarios.len() as u64);
        assert_eq!(cache.hits(), 0);
        let warm = cached(&mut cache);
        assert_eq!(cache.hits(), scenarios.len() as u64, "second pass is all hits");

        for (a, b) in [(&full, &cold), (&full, &warm)] {
            assert_eq!(a.outage.as_f64().to_bits(), b.outage.as_f64().to_bits());
            assert_eq!(a.loss.as_f64().to_bits(), b.loss.as_f64().to_bits());
            assert_eq!(a.per_app.len(), b.per_app.len());
            for ((ka, va), (kb, vb)) in a.per_app.iter().zip(b.per_app.iter()) {
                assert_eq!(ka, kb);
                assert_eq!(va.0.as_f64().to_bits(), vb.0.as_f64().to_bits());
                assert_eq!(va.1.as_f64().to_bits(), vb.1.as_f64().to_bits());
            }
        }
        // Every cached outcome is the fresh one, in scenario order.
        for (scenario, &digest) in scenarios.iter().zip(&digests) {
            let fresh = ev.evaluate_scenario(protections, &scenario.scope);
            let cached = cache.get_or_insert_with(&scenario.scope, digest, || {
                panic!("{} was not cached", scenario.scope)
            });
            assert_eq!(cached, &fresh);
        }
    }

    #[test]
    fn a_bounded_fold_stops_once_its_running_total_reaches_the_bound() {
        let (w, p, prot) = setup("sync mirror (F) with backup");
        let ev = Evaluator::new(&w, &p, RecoveryPolicy::default());
        let model = FailureModel::new(FailureRates::case_study());
        let scenarios = model.enumerate([(AppId(0), prot.placement.primary)]);
        let digests: Vec<ScenarioDigest> =
            (0..scenarios.len()).map(|i| ScenarioDigest(i as u64, 1)).collect();
        let protections = std::slice::from_ref(&prot);
        let full = ev.annual_penalties(protections, &scenarios);
        let (_, items) = ev.annual_penalties_attributed(protections, &scenarios);
        let first = items.iter().take_while(|i| i.scope == scenarios[0].scope);
        let first_total: Dollars = first.map(PenaltyItem::weighted_total).sum();
        assert!(first_total < full.total(), "the later scenarios add penalty");

        // A bound the first scenario reaches ends the fold there: the
        // rest are neither evaluated nor cached.
        let mut cache = ScenarioOutcomeCache::new();
        let mut seen = Vec::new();
        let stopped =
            ev.annual_penalties_cached(protections, &scenarios, &digests, &mut cache, |o, l| {
                seen.push(o + l);
                o + l >= first_total
            });
        assert_eq!(stopped, None);
        assert_eq!(seen.len(), 1, "the predicate runs after each scenario");
        assert_eq!(cache.recomputed(), 1);

        // A bound above the total lets it run to the end, bit for bit,
        // and the predicate sees the running totals grow to the total.
        let mut seen = Vec::new();
        let summary = ev
            .annual_penalties_cached(protections, &scenarios, &digests, &mut cache, |o, l| {
                seen.push(o + l);
                false
            })
            .expect("never stopped");
        assert_eq!(summary, full);
        assert_eq!(seen.len(), scenarios.len());
        assert!(seen.windows(2).all(|w| w[0] <= w[1]), "running totals only grow");
        assert_eq!(
            seen.last().map(|t| t.as_f64().to_bits()),
            Some(full.total().as_f64().to_bits())
        );
        assert_eq!((cache.hits(), cache.recomputed()), (1, scenarios.len() as u64));
    }

    #[test]
    fn every_penalty_entry_point_opens_one_span() {
        let (w, p, prot) = setup("sync mirror (F) with backup");
        let ev = Evaluator::new(&w, &p, RecoveryPolicy::default());
        let model = FailureModel::new(FailureRates::case_study());
        let scenarios = model.enumerate([(AppId(0), prot.placement.primary)]);
        let digests: Vec<ScenarioDigest> =
            (0..scenarios.len()).map(|i| ScenarioDigest(i as u64, 0)).collect();
        let protections = std::slice::from_ref(&prot);
        let mut cache = ScenarioOutcomeCache::new();
        let recorder = dsd_obs::Recorder::new();
        {
            let _g = recorder.install();
            let _ = ev.annual_penalties(protections, &scenarios);
            let _ = ev.annual_penalties_attributed(protections, &scenarios);
            let _ = ev.annual_penalties_cached(
                protections,
                &scenarios,
                &digests,
                &mut cache,
                |_, _| false,
            );
        }
        let spans = recorder
            .drain_events()
            .iter()
            .filter(|e| e.name == "recovery.annual_penalties")
            .count();
        assert_eq!(spans, 3, "one fold span per call, whatever the entry point");
    }

    #[test]
    fn availability_reflects_recovery_speed() {
        let model = FailureModel::new(FailureRates::case_study());
        let availability = |technique: &str| {
            let (w, p, prot) = setup(technique);
            let ev = Evaluator::new(&w, &p, RecoveryPolicy::default());
            let scenarios = model.enumerate([(AppId(0), prot.placement.primary)]);
            let (_, items) =
                ev.annual_penalties_attributed(std::slice::from_ref(&prot), &scenarios);
            Availability::from_items([prot.app], &items)[0]
        };
        // Failover design: minutes of downtime per event.
        let fast = availability("sync mirror (F) with backup");
        // Backup-only design: days of downtime per event.
        let slow = availability("tape backup");

        assert!(fast.availability > slow.availability);
        assert!(fast.nines() > 3.0, "failover gives several nines: {}", fast.nines());
        assert!(slow.nines() < 3.0, "tape-only recovery is slow: {}", slow.nines());
        assert!(
            fast.expected_annual_downtime < slow.expected_annual_downtime,
            "{} vs {}",
            fast.expected_annual_downtime,
            slow.expected_annual_downtime
        );
        assert!((0.0..=1.0).contains(&slow.availability));

        // An app no scenario affects is fully available.
        let idle = Availability::from_items([AppId(3)], &[])[0];
        assert_eq!((idle.app, idle.availability), (AppId(3), 1.0));
        assert!(idle.expected_annual_downtime.is_zero());
        assert_eq!(idle.nines(), f64::INFINITY);
    }

    #[test]
    fn propagation_delays_reflect_bandwidth() {
        let (w, p, prot) = setup("async mirror (R) with backup");
        let ev = Evaluator::new(&w, &p, RecoveryPolicy::default());
        let delays = ev.propagation_delays(&prot);
        assert!(delays.network.is_finite());
        assert!(delays.network < TimeSpan::from_mins(10.0), "batch drains within a window");
        assert!(delays.tape.is_finite());
        assert!(delays.tape < TimeSpan::from_hours(12.0));
    }

    #[test]
    fn contention_serializes_two_restores_on_shared_tape() {
        // Two backup-only apps sharing the tape library and the MSA array.
        let workloads = WorkloadSet::scaled_paper_mix(2); // B and W
        let catalog = TechniqueCatalog::table2();
        let technique = catalog[catalog.find("tape backup").unwrap()].clone();
        let config = technique.default_config();
        let mut provision = Provision::new(topology());
        let primary = ArrayRef { site: SiteId(0), slot: 0 };
        let tape = TapeRef::first(SiteId(0));
        let mut prots = Vec::new();
        for app in workloads.iter() {
            let demands = Demands::compute(app, &technique, &config, &SizingPolicy::default());
            provision
                .alloc_array(app.id, primary, demands.primary_capacity, demands.primary_bandwidth)
                .unwrap();
            provision
                .alloc_tape(app.id, tape, demands.tape_capacity, demands.tape_bandwidth)
                .unwrap();
            let placement = Placement {
                primary,
                mirror: None,
                tape: Some(tape),
                route: None,
                failover_site: None,
            };
            prots.push(AppProtection {
                app: app.id,
                technique: technique.clone(),
                config,
                placement,
            });
        }
        let ev = Evaluator::new(&workloads, &provision, RecoveryPolicy::default());
        let scope = FailureScope::DiskArray { array: primary };
        let out = ev.evaluate_scenario(&prots, &scope);
        assert_eq!(out.outcomes.len(), 2);
        let b = out.outcomes.iter().find(|o| o.app == AppId(0)).unwrap();
        let w = out.outcomes.iter().find(|o| o.app == AppId(1)).unwrap();
        // B (higher priority: $10M/hr vs $5.005M/hr) restores first; W
        // waits for the shared devices.
        assert!(b.recovery_time < w.recovery_time);
        assert!(
            w.recovery_time > b.recovery_time + TimeSpan::from_hours(1.0),
            "the second restore is serialized behind the first"
        );
    }
}
