//! Candidate designs: assignments + provisioned resources + cached cost.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use dsd_protection::{Demands, TechniqueConfig, TechniqueId};
use dsd_recovery::{AppProtection, Evaluator, PenaltySummary, Placement, ScenarioOutcomeCache};
use dsd_resources::{ArrayRef, Provision, ResourceError, TapeRef};
use dsd_units::{Dollars, HOURS_PER_YEAR};
use dsd_workload::AppId;

use std::collections::BTreeSet;

use dsd_failure::FailureScenario;

use crate::delta::{AppSliceFingerprint, DigestBuilder, Move, MoveUndo, TouchedDevices};
use crate::env::Environment;

/// One application's protection decisions within a candidate design.
#[derive(Debug, Clone, Copy, PartialEq, Hash, Serialize, Deserialize)]
pub struct AppAssignment {
    /// Chosen data protection technique.
    pub technique: TechniqueId,
    /// Chosen configuration parameters.
    pub config: TechniqueConfig,
    /// Chosen resource placement.
    pub placement: Placement,
}

impl AppAssignment {
    /// The evaluator input for `app` under this assignment.
    fn protection(&self, app: AppId, env: &Environment) -> AppProtection {
        AppProtection {
            app,
            technique: env.catalog[self.technique].clone(),
            config: self.config,
            placement: self.placement,
        }
    }
}

/// The two cost components of a solution (paper §2.5).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Amortized annual outlay: devices, links, compute, facilities, and
    /// vault media consumables.
    pub outlay: Dollars,
    /// Expected annual penalties.
    pub penalties: PenaltySummary,
}

impl CostBreakdown {
    /// Overall annual cost: outlays plus expected penalties.
    #[must_use]
    pub fn total(&self) -> Dollars {
        self.outlay + self.penalties.total()
    }
}

impl fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "outlay {} + outage {} + loss {} = {}",
            self.outlay,
            self.penalties.outage,
            self.penalties.loss,
            self.total()
        )
    }
}

/// Enumerates the placement skeletons available to a technique in an
/// environment: every primary array slot, crossed with every mirror array
/// at a *different* site reachable by a route (when the technique
/// mirrors), with backups going to the primary site's first tape library.
#[derive(Debug, Clone)]
pub struct PlacementOptions;

impl PlacementOptions {
    /// All structurally feasible placements for `technique` in `env`.
    /// Placements are feasible in shape only; capacity/bandwidth fit is
    /// checked by [`Candidate::try_assign`].
    #[must_use]
    pub fn enumerate(env: &Environment, technique: TechniqueId) -> Vec<Placement> {
        let t = &env.catalog[technique];
        let mut out = Vec::new();
        for site in env.topology.sites() {
            for slot in 0..site.array_slots.len() {
                let primary = ArrayRef { site: site.id, slot };
                let tape = if t.has_backup() {
                    if site.tape_slots.is_empty() {
                        continue; // backups need a library at the primary site
                    }
                    Some(TapeRef::first(site.id))
                } else {
                    None
                };
                if t.has_mirror() {
                    for msite in env.topology.sites() {
                        if msite.id == site.id
                            || env.topology.route_between(site.id, msite.id).is_none()
                        {
                            continue;
                        }
                        for mslot in 0..msite.array_slots.len() {
                            let mirror = ArrayRef { site: msite.id, slot: mslot };
                            out.push(Placement {
                                primary,
                                mirror: Some(mirror),
                                tape,
                                route: env.topology.route_between(site.id, msite.id),
                                failover_site: t.is_failover().then_some(msite.id),
                            });
                        }
                    }
                } else {
                    out.push(Placement {
                        primary,
                        mirror: None,
                        tape,
                        route: None,
                        failover_site: None,
                    });
                }
            }
        }
        out
    }
}

/// Incrementally maintained evaluation context. Rebuilding protections,
/// the scenario list, and every dependency-slice fingerprint from
/// scratch costs more than re-scheduling the few scenarios a move
/// actually dirties, so the mutators mark precisely what they touched
/// and [`Candidate::evaluate_with`] refreshes only that. The memo is
/// advisory: the uncached oracle ([`Candidate::evaluate`]) never reads
/// it, and a cleared memo (fresh or cloned candidates) just means a full
/// rebuild on the next cached evaluation.
#[derive(Debug, Default)]
struct EvalMemo {
    /// One entry per assignment, in app order. Empty until the first
    /// cached evaluation.
    protections: Vec<AppProtection>,
    /// One fingerprint per assignment, parallel to `protections`.
    fingerprints: Vec<AppSliceFingerprint>,
    /// Failure scenarios for the current primary placements.
    scenarios: Vec<FailureScenario>,
    /// Derives every scenario's digest from the fingerprints on each
    /// cached evaluation, in one pass, reusing its buffers.
    digests: DigestBuilder,
    /// Apps whose assignment changed: protection AND fingerprint entries
    /// must be recomputed.
    stale_assignments: BTreeSet<AppId>,
    /// Apps whose fingerprint must be recomputed because a device their
    /// placement touches changed state, or because their slot was just
    /// inserted (their protection entry is a function of the assignment
    /// alone and stays valid).
    stale_fingerprints: BTreeSet<AppId>,
    /// A primary placement or the set of assigned apps changed —
    /// re-enumerate scenarios.
    scenarios_stale: bool,
    /// The entries are out of step with the assignments (a fresh or
    /// cloned candidate, `remove_app`, or `provision_mut`'s unknown
    /// mutations): rebuild everything.
    shape_stale: bool,
}

impl EvalMemo {
    fn stale() -> Self {
        EvalMemo { shape_stale: true, ..EvalMemo::default() }
    }

    /// Follows the insertion of `app`'s assignment: its protection goes
    /// in at its place in app order, and its fingerprint is computed on
    /// the next refresh, once the provision has settled.
    fn follow_insertion(&mut self, env: &Environment, app: AppId, assignment: &AppAssignment) {
        self.scenarios_stale = true;
        if self.shape_stale {
            return;
        }
        let i = self.protections.partition_point(|p| p.app < app);
        self.protections.insert(i, assignment.protection(app, env));
        self.fingerprints
            .insert(i, AppSliceFingerprint::pending(app, assignment.placement.primary));
        self.stale_fingerprints.insert(app);
    }

    /// Follows the removal of `app`'s assignment by a move's undo.
    fn follow_removal(&mut self, app: AppId) {
        self.scenarios_stale = true;
        if self.shape_stale {
            return;
        }
        let i = self
            .protections
            .binary_search_by_key(&app, |p| p.app)
            .expect("a memo in step holds a slot for every assigned app");
        self.protections.remove(i);
        self.fingerprints.remove(i);
    }
}

/// A (possibly partial) candidate design: per-application assignments plus
/// the provisioned infrastructure backing them. The design and
/// configuration solvers explore the design graph by applying and undoing
/// [`Move`]s in place (paper §3.1); cloning remains available for
/// keeping independent copies (refit siblings, the eval cache).
#[derive(Debug)]
pub struct Candidate {
    provision: Provision,
    assignments: BTreeMap<AppId, AppAssignment>,
    cost: Option<CostBreakdown>,
    memo: EvalMemo,
}

impl Clone for Candidate {
    /// Deep copy. Counted under the `eval.candidate_clones` obs series so
    /// tests can assert the solver's trial loops stay clone-free. The
    /// evaluation memo is not copied — the clone rebuilds it on its
    /// first cached evaluation.
    fn clone(&self) -> Self {
        dsd_obs::add("eval.candidate_clones", 1);
        Candidate {
            provision: self.provision.clone(),
            assignments: self.assignments.clone(),
            cost: self.cost.clone(),
            memo: EvalMemo::stale(),
        }
    }
}

impl Candidate {
    /// An empty candidate over the environment's topology.
    #[must_use]
    pub fn empty(env: &Environment) -> Self {
        Candidate {
            provision: Provision::new(env.topology.clone()),
            assignments: BTreeMap::new(),
            cost: None,
            memo: EvalMemo::stale(),
        }
    }

    /// The provisioned infrastructure.
    #[must_use]
    pub fn provision(&self) -> &Provision {
        &self.provision
    }

    /// Mutable access to the provision for deliberate over-provisioning
    /// (the configuration solver's resource-addition loop). Invalidates
    /// the cached cost.
    pub fn provision_mut(&mut self) -> &mut Provision {
        self.cost = None;
        self.memo.shape_stale = true;
        &mut self.provision
    }

    /// The per-application assignments.
    #[must_use]
    pub fn assignments(&self) -> &BTreeMap<AppId, AppAssignment> {
        &self.assignments
    }

    /// The assignment of one application, if made.
    #[must_use]
    pub fn assignment(&self, app: AppId) -> Option<&AppAssignment> {
        self.assignments.get(&app)
    }

    /// Number of assigned applications.
    #[must_use]
    pub fn assigned_count(&self) -> usize {
        self.assignments.len()
    }

    /// True if every application in the environment is assigned.
    #[must_use]
    pub fn is_complete(&self, env: &Environment) -> bool {
        self.assignments.len() == env.workloads.len()
    }

    /// Applications not yet assigned, in id order.
    #[must_use]
    pub fn unassigned(&self, env: &Environment) -> Vec<AppId> {
        env.workloads.ids().filter(|id| !self.assignments.contains_key(id)).collect()
    }

    /// Tries to assign `app` the given technique/config/placement,
    /// allocating all demanded resources: [`Candidate::apply_move`] of a
    /// [`Move::Reassign`] whose undo token is dropped.
    ///
    /// # Errors
    ///
    /// Any [`ResourceError`] if a demanded allocation does not fit; the
    /// candidate is unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics if `app` is already assigned (remove it first) or the
    /// placement shape doesn't match the technique.
    pub fn try_assign(
        &mut self,
        env: &Environment,
        app: AppId,
        technique: TechniqueId,
        config: TechniqueConfig,
        placement: Placement,
    ) -> Result<(), ResourceError> {
        assert!(
            !self.assignments.contains_key(&app),
            "application {app} is already assigned; remove it before reassigning"
        );
        self.apply_move(env, &Move::Reassign { app, technique, config, placement }).map(drop)
    }

    /// Performs the allocation sequence of one assignment directly on the
    /// provision, in the fixed order primary array → primary compute →
    /// mirror array → network → tape → failover spares. On error the
    /// provision is left partially mutated — the caller restores its
    /// checkpoint. Returns the placement with its route resolved.
    fn alloc_assignment(
        &mut self,
        env: &Environment,
        app: AppId,
        technique: TechniqueId,
        config: TechniqueConfig,
        mut placement: Placement,
    ) -> Result<Placement, ResourceError> {
        let t = &env.catalog[technique];
        let workload = &env.workloads[app];
        let demands = Demands::compute(workload, t, &config, &env.sizing);

        self.provision.alloc_array(
            app,
            placement.primary,
            demands.primary_capacity,
            demands.primary_bandwidth,
        )?;
        self.provision.alloc_compute(app, placement.primary.site, 1)?;
        if let Some(mirror) = placement.mirror {
            self.provision.alloc_array(
                app,
                mirror,
                demands.mirror_capacity,
                demands.mirror_bandwidth,
            )?;
            let route = self.provision.alloc_network(
                app,
                placement.primary.site,
                mirror.site,
                demands.network_bandwidth,
            )?;
            placement.route = Some(route);
        }
        if let Some(tape) = placement.tape {
            self.provision.alloc_tape(app, tape, demands.tape_capacity, demands.tape_bandwidth)?;
        }
        if let Some(failover_site) = placement.failover_site {
            self.provision.alloc_failover_spare(
                app,
                failover_site,
                env.sizing.failover_spare_ratio,
            )?;
        }
        Ok(placement)
    }

    /// Applies one solver [`Move`] in place, returning an undo token
    /// snapshotting the exact prior state of everything the move
    /// touched. [`Candidate::undo_move`] restores those bits verbatim,
    /// so a trial/undo pair leaves the candidate bit-identical to before
    /// (no floating-point drift from reversing arithmetic).
    ///
    /// # Errors
    ///
    /// Any [`ResourceError`] when an allocation does not fit; the
    /// candidate is unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics if a [`Move::Reassign`] placement shape doesn't match its
    /// technique.
    pub fn apply_move(&mut self, env: &Environment, mv: &Move) -> Result<MoveUndo, ResourceError> {
        let undo = self.apply_move_inner(env, mv);
        if undo.is_ok() {
            // Per-move-kind profiler frame; one thread-local counter
            // bump, nothing when no recorder is installed.
            dsd_obs::add(mv.apply_counter(), 1);
        }
        undo
    }

    fn apply_move_inner(
        &mut self,
        env: &Environment,
        mv: &Move,
    ) -> Result<MoveUndo, ResourceError> {
        match *mv {
            Move::Reassign { app, technique, config, placement } => {
                let t = &env.catalog[technique];
                assert!(
                    placement.consistent_with(t),
                    "placement shape does not match technique {}",
                    t.name
                );
                let prev = self.assignments.get(&app).copied();
                // Checkpoint the union of the current footprint (from the
                // ledger — robust to any allocation history) and the new
                // placement's devices.
                let fp = self.provision.app_footprint(app);
                let mut arrays = fp.arrays;
                arrays.push(placement.primary);
                if let Some(m) = placement.mirror {
                    arrays.push(m);
                }
                let mut tapes = fp.tapes;
                if let Some(tp) = placement.tape {
                    tapes.push(tp);
                }
                let mut routes = fp.routes;
                if let Some(r) = placement.route {
                    routes.push(r);
                } else if let Some(m) = placement.mirror {
                    if let Some(r) = env.topology.route_between(placement.primary.site, m.site) {
                        routes.push(r);
                    }
                }
                let mut sites = fp.sites;
                sites.push(placement.primary.site);
                if let Some(s) = placement.failover_site {
                    sites.push(s);
                }
                let checkpoint =
                    self.provision.checkpoint(Some(app), &arrays, &tapes, &routes, &sites);
                if prev.is_some() {
                    self.assignments.remove(&app);
                    self.provision.remove_app(app);
                }
                match self.alloc_assignment(env, app, technique, config, placement) {
                    Ok(placement) => {
                        let touched = TouchedDevices { arrays, tapes, routes };
                        mark_apps_touching(&self.assignments, &mut self.memo, &touched);
                        let assignment = AppAssignment { technique, config, placement };
                        match prev {
                            None => self.memo.follow_insertion(env, app, &assignment),
                            Some(p) => {
                                self.memo.stale_assignments.insert(app);
                                if p.placement.primary != placement.primary {
                                    self.memo.scenarios_stale = true;
                                }
                            }
                        }
                        self.assignments.insert(app, assignment);
                        Ok(MoveUndo {
                            checkpoint,
                            assignment: Some((app, prev)),
                            cost: self.cost.take(),
                            touched,
                        })
                    }
                    Err(e) => {
                        self.provision.restore(checkpoint);
                        if let Some(prev) = prev {
                            self.assignments.insert(app, prev);
                        }
                        Err(e)
                    }
                }
            }
            Move::AddLinks { route, extra } => {
                let checkpoint = self.provision.checkpoint(None, &[], &[], &[route], &[]);
                self.provision.add_extra_links(route, extra)?;
                let touched = TouchedDevices { routes: vec![route], ..TouchedDevices::default() };
                mark_apps_touching(&self.assignments, &mut self.memo, &touched);
                Ok(MoveUndo { checkpoint, assignment: None, cost: self.cost.take(), touched })
            }
            Move::AddTapeDrives { tape, extra } => {
                let checkpoint = self.provision.checkpoint(None, &[], &[tape], &[], &[]);
                self.provision.add_extra_tape_drives(tape, extra)?;
                let touched = TouchedDevices { tapes: vec![tape], ..TouchedDevices::default() };
                mark_apps_touching(&self.assignments, &mut self.memo, &touched);
                Ok(MoveUndo { checkpoint, assignment: None, cost: self.cost.take(), touched })
            }
            Move::AddArrayUnits { array, extra } => {
                let checkpoint = self.provision.checkpoint(None, &[array], &[], &[], &[]);
                self.provision.add_extra_array_units(array, extra)?;
                let touched = TouchedDevices { arrays: vec![array], ..TouchedDevices::default() };
                mark_apps_touching(&self.assignments, &mut self.memo, &touched);
                Ok(MoveUndo { checkpoint, assignment: None, cost: self.cost.take(), touched })
            }
        }
    }

    /// Reverts a move applied by [`Candidate::apply_move`], restoring
    /// the snapshotted provision state, assignment, and cached cost
    /// bit-for-bit.
    pub fn undo_move(&mut self, undo: MoveUndo) {
        // The restore flips the touched devices' state right back, so the
        // same apps that went stale on apply go stale again on undo
        // (only the moved app's own assignment differs between the two
        // states, and it is marked explicitly).
        mark_apps_touching(&self.assignments, &mut self.memo, &undo.touched);
        self.provision.restore(undo.checkpoint);
        if let Some((app, prev)) = undo.assignment {
            let current = match prev {
                Some(a) => self.assignments.insert(app, a),
                None => self.assignments.remove(&app),
            };
            match (current, prev) {
                (Some(c), Some(p)) => {
                    self.memo.stale_assignments.insert(app);
                    if c.placement.primary != p.placement.primary {
                        self.memo.scenarios_stale = true;
                    }
                }
                (Some(_), None) => self.memo.follow_removal(app),
                (None, Some(_)) => self.memo.shape_stale = true,
                (None, None) => {}
            }
        }
        self.cost = undo.cost;
    }

    /// Removes `app`'s assignment and releases its resources
    /// (reconfiguration step 1, paper §3.1.3). No-op if unassigned.
    pub fn remove_app(&mut self, app: AppId) {
        if self.assignments.remove(&app).is_some() {
            self.provision.remove_app(app);
            self.cost = None;
            self.memo.shape_stale = true;
        }
    }

    /// The evaluator inputs for the current assignments.
    #[must_use]
    pub fn protections(&self, env: &Environment) -> Vec<AppProtection> {
        self.assignments.iter().map(|(&app, a)| a.protection(app, env)).collect()
    }

    /// Each assigned application's primary placement, for failure
    /// scenario enumeration.
    pub fn primaries(&self) -> impl Iterator<Item = (AppId, ArrayRef)> + '_ {
        self.assignments.iter().map(|(&app, a)| (app, a.placement.primary))
    }

    /// Annual cost of vault media consumables: cartridges shipped offsite
    /// every vault cycle (priced at the tape library's per-cartridge
    /// cost).
    #[must_use]
    pub fn vault_media_annual(&self, env: &Environment) -> Dollars {
        let mut total = Dollars::ZERO;
        for (&app, a) in &self.assignments {
            let t = &env.catalog[a.technique];
            let (Some(chain), Some(tape)) = (t.backup, a.placement.tape) else {
                continue;
            };
            if !chain.vault {
                continue;
            }
            let spec = &env.topology.site(tape.site).tape_slots[tape.slot];
            let cartridges = env.workloads[app].capacity().units_of(spec.capacity_per_unit);
            let shipments_per_year = HOURS_PER_YEAR / chain.vault_cycle.as_hours();
            total += spec.cost_per_capacity_unit * (f64::from(cartridges) * shipments_per_year);
        }
        total
    }

    /// Exhaustive structural self-check, for tests and debugging: every
    /// assignment's placement must match its technique's shape, every
    /// referenced device must be instantiated, and the provision's
    /// allocation ledger must list exactly the assigned applications.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self, env: &Environment) -> Result<(), String> {
        for (app, a) in &self.assignments {
            let technique = &env.catalog[a.technique];
            if !a.placement.consistent_with(technique) {
                return Err(format!("{app}: placement does not match {}", technique.name));
            }
            if self.provision.array(a.placement.primary).is_none() {
                return Err(format!("{app}: primary {} not instantiated", a.placement.primary));
            }
            if let Some(m) = a.placement.mirror {
                if self.provision.array(m).is_none() {
                    return Err(format!("{app}: mirror {m} not instantiated"));
                }
            }
            if let Some(t) = a.placement.tape {
                if self.provision.tape(t).is_none() {
                    return Err(format!("{app}: tape {t} not instantiated"));
                }
            }
            if let Some(route) = a.placement.route {
                let link = self.provision.link(route);
                if link.links + link.extra_links == 0 {
                    return Err(format!("{app}: route {route} carries no links"));
                }
            }
        }
        let ledgered: Vec<AppId> = self.provision.allocated_apps().collect();
        let assigned: Vec<AppId> = self.assignments.keys().copied().collect();
        if ledgered != assigned {
            return Err(format!("ledger {ledgered:?} does not match assignments {assigned:?}"));
        }
        Ok(())
    }

    /// Evaluates (and caches) the candidate's cost: amortized outlay plus
    /// likelihood-weighted expected penalties over all failure scenarios.
    pub fn evaluate(&mut self, env: &Environment) -> &CostBreakdown {
        if self.cost.is_none() {
            let protections = self.protections(env);
            let scenarios = env.failures.enumerate(self.primaries());
            let evaluator = Evaluator::new(&env.workloads, &self.provision, env.recovery);
            let penalties = evaluator.annual_penalties(&protections, &scenarios);
            let outlay = self.provision.annual_outlay() + self.vault_media_annual(env);
            self.cost = Some(CostBreakdown { outlay, penalties });
        }
        self.cost.as_ref().expect("just computed")
    }

    /// [`Candidate::evaluate`] with scope-keyed scenario memoization:
    /// scenarios whose dependency-slice digest is unchanged since a
    /// previous evaluation replay their cached outcome instead of being
    /// re-scheduled. Bit-identical to the uncached oracle (the cached
    /// path accumulates penalties through the same code), provided
    /// `cache` has only ever been used with this environment.
    pub fn evaluate_with(
        &mut self,
        env: &Environment,
        cache: &mut ScenarioOutcomeCache,
    ) -> &CostBreakdown {
        if self.cost.is_none() {
            self.refresh_memo(env);
            let EvalMemo { protections, fingerprints, scenarios, digests, .. } = &mut self.memo;
            let digests = digests.build(scenarios, fingerprints);
            let evaluator = Evaluator::new(&env.workloads, &self.provision, env.recovery);
            let penalties =
                evaluator.annual_penalties_cached(protections, scenarios, digests, cache);
            let outlay = self.provision.annual_outlay() + self.vault_media_annual(env);
            self.cost = Some(CostBreakdown { outlay, penalties });
        }
        self.cost.as_ref().expect("just computed")
    }

    /// Brings the evaluation memo up to date with the candidate's state,
    /// rebuilding only the entries the mutators marked stale. The
    /// refreshed memo is bit-equivalent to a from-scratch build: each
    /// entry is a pure function of the current assignment and provision
    /// state, recomputed by the same code either way.
    fn refresh_memo(&mut self, env: &Environment) {
        let memo = &mut self.memo;
        if memo.shape_stale || memo.protections.len() != self.assignments.len() {
            memo.protections.clear();
            memo.fingerprints.clear();
            for (&app, a) in &self.assignments {
                memo.protections.push(a.protection(app, env));
                memo.fingerprints.push(crate::delta::fingerprint_app(&self.provision, app, a));
            }
            memo.stale_assignments.clear();
            memo.stale_fingerprints.clear();
            memo.scenarios_stale = true;
            memo.shape_stale = false;
        }
        if !(memo.stale_assignments.is_empty() && memo.stale_fingerprints.is_empty()) {
            for (i, (&app, a)) in self.assignments.iter().enumerate() {
                let assignment_stale = memo.stale_assignments.contains(&app);
                if assignment_stale {
                    memo.protections[i] = a.protection(app, env);
                }
                if assignment_stale || memo.stale_fingerprints.contains(&app) {
                    memo.fingerprints[i] = crate::delta::fingerprint_app(&self.provision, app, a);
                }
            }
            memo.stale_assignments.clear();
            memo.stale_fingerprints.clear();
        }
        if memo.scenarios_stale {
            memo.scenarios = env
                .failures
                .enumerate(self.assignments.iter().map(|(&app, a)| (app, a.placement.primary)));
            memo.scenarios_stale = false;
        }
    }

    /// Applies `mv` and evaluates the result incrementally: only
    /// scenarios whose dependency slice the move changed are recomputed;
    /// the rest replay from `cache`. Returns the post-move cost and the
    /// undo token. The candidate is left with the move applied — call
    /// [`Candidate::undo_move`] to reject the trial.
    ///
    /// # Errors
    ///
    /// Any [`ResourceError`] when the move does not fit; the candidate
    /// is unchanged on error.
    pub fn evaluate_delta(
        &mut self,
        env: &Environment,
        mv: &Move,
        cache: &mut ScenarioOutcomeCache,
    ) -> Result<(CostBreakdown, MoveUndo), ResourceError> {
        let undo = self.apply_move(env, mv)?;
        let cost = self.evaluate_with(env, cache).clone();
        Ok((cost, undo))
    }

    /// The cached cost breakdown.
    ///
    /// # Panics
    ///
    /// Panics if the candidate has not been evaluated since its last
    /// mutation; call [`Candidate::evaluate`] first.
    #[must_use]
    pub fn cost(&self) -> &CostBreakdown {
        self.cost.as_ref().expect("candidate not evaluated; call evaluate() first")
    }

    /// The cached cost, if any.
    #[must_use]
    pub fn cost_if_evaluated(&self) -> Option<&CostBreakdown> {
        self.cost.as_ref()
    }
}

/// Marks every application whose placement touches one of `touched`'s
/// devices as stale in the memo: a state change on a shared device
/// changes those applications' dependency-slice fingerprints.
fn mark_apps_touching(
    assignments: &BTreeMap<AppId, AppAssignment>,
    memo: &mut EvalMemo,
    touched: &TouchedDevices,
) {
    for (&app, a) in assignments {
        let p = &a.placement;
        let hit = touched.arrays.iter().any(|&r| r == p.primary || Some(r) == p.mirror)
            || touched.tapes.iter().any(|&t| Some(t) == p.tape)
            || touched.routes.iter().any(|&r| Some(r) == p.route);
        if hit {
            memo.stale_fingerprints.insert(app);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Environment;
    use dsd_failure::{FailureModel, FailureRates};
    use dsd_protection::TechniqueCatalog;
    use dsd_resources::{DeviceSpec, NetworkSpec, Site, Topology};
    use dsd_workload::WorkloadSet;
    use std::sync::Arc;

    fn env(apps: usize) -> Environment {
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
        Environment::new(
            WorkloadSet::scaled_paper_mix(apps),
            Arc::new(Topology::fully_connected(sites, NetworkSpec::high())),
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::case_study()),
        )
    }

    fn tid(env: &Environment, name: &str) -> TechniqueId {
        env.catalog.find(name).expect("technique exists")
    }

    #[test]
    fn placement_enumeration_counts() {
        let e = env(1);
        // Backup-only: 2 sites x 2 slots, tape at same site = 4.
        let backup = PlacementOptions::enumerate(&e, tid(&e, "tape backup"));
        assert_eq!(backup.len(), 4);
        assert!(backup.iter().all(|p| p.mirror.is_none() && p.tape.is_some()));
        // Mirrored with backup: 4 primaries x 2 remote slots = 8.
        let mirrored = PlacementOptions::enumerate(&e, tid(&e, "sync mirror (F) with backup"));
        assert_eq!(mirrored.len(), 8);
        for p in &mirrored {
            assert_ne!(p.mirror.unwrap().site, p.primary.site);
            assert_eq!(p.failover_site, Some(p.mirror.unwrap().site));
            assert!(p.route.is_some());
        }
        // Mirror-only reconstruct: no failover site.
        let silver = PlacementOptions::enumerate(&e, tid(&e, "sync mirror (R)"));
        assert!(silver.iter().all(|p| p.failover_site.is_none() && p.tape.is_none()));
    }

    #[test]
    fn assign_evaluate_remove_roundtrip() {
        let e = env(1);
        let mut c = Candidate::empty(&e);
        assert!(!c.is_complete(&e));
        let t = tid(&e, "async mirror (F) with backup");
        let placement = PlacementOptions::enumerate(&e, t)[0];
        c.try_assign(&e, AppId(0), t, e.catalog[t].default_config(), placement).unwrap();
        assert!(c.is_complete(&e));
        assert_eq!(c.assignment(AppId(0)).unwrap().technique, t);
        assert!(
            c.assignment(AppId(0)).unwrap().placement.route.is_some(),
            "route resolved during assignment"
        );

        let cost = c.evaluate(&e).clone();
        assert!(cost.total().is_finite());
        assert!(cost.outlay.as_f64() > 0.0);
        assert!(cost.penalties.total().as_f64() > 0.0);

        c.remove_app(AppId(0));
        assert_eq!(c.assigned_count(), 0);
        assert!(c.cost_if_evaluated().is_none(), "mutation invalidates cache");
        let empty_cost = c.evaluate(&e).clone();
        assert_eq!(empty_cost.outlay, Dollars::ZERO);
        assert_eq!(empty_cost.penalties.total(), Dollars::ZERO);
    }

    #[test]
    fn failed_assignment_leaves_candidate_unchanged() {
        let e = env(2);
        let mut c = Candidate::empty(&e);
        let t = tid(&e, "sync mirror (R)");
        // MSA1500 primary cannot sustain central banking's 50 MB/s peak
        // mirror + 50 MB/s access within its 128 MB/s enclosure if we
        // blow the capacity: force failure via a tiny slot. Use the MSA
        // as both primary and mirror for the big web-service app (4300GB
        // fits 128*143=18304 GB, bandwidth 20+?); instead force failure
        // by assigning two huge apps to one MSA.
        let placements = PlacementOptions::enumerate(&e, t);
        let msa_primary = placements
            .iter()
            .find(|p| p.primary.slot == 1 && p.mirror.unwrap().slot == 1)
            .copied()
            .unwrap();
        // central banking: access 50 + peak mirror 50 on a 128 MB/s MSA — fits.
        c.try_assign(&e, AppId(0), t, e.catalog[t].default_config(), msa_primary).unwrap();
        let before = c.provision().clone();
        // Web service with backup on the same MSA primary: 20 MB/s access
        // plus a ~102 MB/s backup stream exceeds the 128 MB/s enclosure
        // already carrying 50 MB/s.
        let t2 = tid(&e, "sync mirror (F) with backup");
        let heavy = PlacementOptions::enumerate(&e, t2)
            .into_iter()
            .find(|p| p.primary == msa_primary.primary && p.mirror.unwrap().slot == 0)
            .unwrap();
        let err =
            c.try_assign(&e, AppId(1), t2, e.catalog[t2].default_config(), heavy).unwrap_err();
        assert!(matches!(err, ResourceError::DeviceExhausted { .. }));
        assert_eq!(c.provision(), &before, "failed assignment must roll back");
        assert_eq!(c.assigned_count(), 1);
    }

    #[test]
    #[should_panic(expected = "already assigned")]
    fn double_assignment_panics() {
        let e = env(1);
        let mut c = Candidate::empty(&e);
        let t = tid(&e, "tape backup");
        let p = PlacementOptions::enumerate(&e, t)[0];
        c.try_assign(&e, AppId(0), t, e.catalog[t].default_config(), p).unwrap();
        let _ = c.try_assign(&e, AppId(0), t, e.catalog[t].default_config(), p);
    }

    #[test]
    fn vault_media_cost_scales_with_capacity() {
        let e = env(2); // B (1300 GB) and W (4300 GB)
        let t = tid(&e, "tape backup");
        let mut c = Candidate::empty(&e);
        let p0 = PlacementOptions::enumerate(&e, t)[0];
        c.try_assign(&e, AppId(0), t, e.catalog[t].default_config(), p0).unwrap();
        let one = c.vault_media_annual(&e);
        c.try_assign(&e, AppId(1), t, e.catalog[t].default_config(), p0).unwrap();
        let two = c.vault_media_annual(&e);
        assert!(two > one);
        // B: ceil(1300/60)=22 cartridges, ~13.04 shipments/yr, $100 each.
        let expected = 22.0 * 100.0 * (8760.0 / (28.0 * 24.0));
        assert!((one.as_f64() - expected).abs() < 1.0);
    }

    #[test]
    fn unassigned_lists_remaining_apps() {
        let e = env(3);
        let mut c = Candidate::empty(&e);
        assert_eq!(c.unassigned(&e).len(), 3);
        let t = tid(&e, "tape backup");
        let p = PlacementOptions::enumerate(&e, t)[0];
        c.try_assign(&e, AppId(1), t, e.catalog[t].default_config(), p).unwrap();
        assert_eq!(c.unassigned(&e), vec![AppId(0), AppId(2)]);
    }

    #[test]
    fn mirror_only_design_has_higher_penalty_than_mirror_with_backup() {
        let e = env(1);
        let with_backup = tid(&e, "sync mirror (F) with backup");
        let mirror_only = tid(&e, "sync mirror (F)");
        let mut a = Candidate::empty(&e);
        let pa = PlacementOptions::enumerate(&e, with_backup)[0];
        a.try_assign(&e, AppId(0), with_backup, e.catalog[with_backup].default_config(), pa)
            .unwrap();
        let mut b = Candidate::empty(&e);
        let pb = PlacementOptions::enumerate(&e, mirror_only)[0];
        b.try_assign(&e, AppId(0), mirror_only, e.catalog[mirror_only].default_config(), pb)
            .unwrap();
        let ca = a.evaluate(&e).penalties.total();
        let cb = b.evaluate(&e).penalties.total();
        assert!(cb > ca, "unprotected data-object exposure must dominate: {cb} vs {ca}");
    }
}
