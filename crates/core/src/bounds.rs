//! Relaxation lower bounds and optimality certificates.
//!
//! The solvers report a design cost but, by themselves, give no evidence
//! of how far from optimal it is. This module computes a cheap *lower
//! bound* on the total annual cost of **any** complete design over the
//! solvers' discretized configuration space (paper §3.2), by relaxing
//! exactly the couplings that make the real problem hard:
//!
//! * **Per-app relaxation** — each application independently picks its
//!   cheapest eligible technique, ignoring contention with other
//!   applications. Summing per-app minima is valid because both cost
//!   components decompose per application: the outlay floor below charges
//!   each app only for allocation-proportional resources, and
//!   [`dsd_recovery::PenaltySummary`] is an exact sum of per-app
//!   penalties.
//! * **Fractional outlay** — integer disk/cartridge/drive/link/server
//!   counts are relaxed to fractional demand-derived minima priced at the
//!   *cheapest* per-unit rate in the topology. Every priced dimension
//!   (array capacity, tape capacity, tape bandwidth, link bandwidth,
//!   servers) is one whose allocations *sum* across the applications
//!   sharing a device, so per-app fractions never over-count. Array
//!   *bandwidth* is deliberately not priced: on a disk array one unit
//!   serves both dimensions, and `max(cap, bw)` demands do not sum
//!   across apps.
//! * **Relaxed penalties** — each app's penalty floor is its penalty in a
//!   *singleton* design (the app alone in the environment) with every
//!   provisioned device topped up to its spec maximum. A real design
//!   shares spare bandwidth with other applications and enumerates a
//!   superset of failure scenarios, so its per-app penalty can only be
//!   higher. It is priced once per *placement shape* (below).
//! * **Capacity floor on shared enclosures** — the datasets must live on
//!   *some* arrays: at least `ceil(Σ capacity / largest array)` enclosures
//!   (at least two when some application is only protectable by
//!   mirroring), each costing at least the cheapest enclosure fixed
//!   price, plus at least one facility (two when mirror-forced).
//!
//! Each term is a valid bound in isolation and they charge disjoint cost
//! components, so their sum is a valid bound on the total.
//!
//! **Placement shapes.** A maxed singleton's penalty never reads a site
//! id or name. The singleton provisions only the devices its placement
//! names; [`dsd_failure::FailureModel::enumerate`] gives it three
//! scenarios (data object, primary array, primary site) in kind order,
//! not id order; and the evaluator compares ids only for equality.
//! Placements that agree on everything else therefore price bit for
//! bit alike. That is the primary and mirror sites' fields other than
//! id and name, the primary, mirror and tape slot specs, the route's
//! network spec, and whether the technique fails over (always to the
//! mirror site). [`lower_bound`] prices only the first placement of each
//! shape. The penalty minimum, the chosen technique and the
//! mirror/backup-forced flags read only values equal within a shape, so
//! the bound is unchanged, while repeated slot sets and identical sites
//! collapse: fleet(64) prices 9,408 singletons instead of 1,755,648.
//! The unit tests price every member of every shape against its
//! representative.
//!
//! The [`Certificate`] pairs the bound with an achieved cost and is
//! surfaced by `dsd explain`, [`crate::SolveOutcome::certify`], and the
//! tournament harness; `tests/bound_soundness.rs` re-verifies soundness
//! empirically against exhaustive enumeration, every heuristic, and
//! delta-evaluated move sequences.

use serde::Serialize;

use dsd_protection::{Technique, TechniqueConfig, TechniqueId};
use dsd_recovery::Placement;
use dsd_resources::{ArrayRef, ComputeSpec, DeviceSpec, NetworkSpec, ResourceError, Site};
use dsd_units::{Dollars, HOURS_PER_YEAR};
use dsd_workload::{AppId, ApplicationWorkload};

use crate::candidate::{Candidate, PlacementOptions};
use crate::env::Environment;

/// Cheapest per-unit purchase rates available anywhere in the topology.
/// A resource class that exists nowhere is priced at zero (the relaxation
/// simply charges nothing for it, which keeps the bound valid).
#[derive(Debug, Clone, Copy, Default)]
struct Rates {
    /// $ per GB of disk array capacity.
    array_per_gb: f64,
    /// $ per GB of tape cartridge capacity.
    tape_per_gb: f64,
    /// $ per MB/s of tape drive bandwidth.
    tape_per_mbps: f64,
    /// $ per MB/s of inter-site link bandwidth.
    link_per_mbps: f64,
    /// $ per compute server.
    server: f64,
}

fn min_rate(iter: impl Iterator<Item = f64>) -> f64 {
    iter.filter(|r| r.is_finite() && *r >= 0.0).fold(f64::INFINITY, f64::min)
}

fn finite_or_zero(r: f64) -> f64 {
    if r.is_finite() {
        r
    } else {
        0.0
    }
}

impl Rates {
    fn of(env: &Environment) -> Rates {
        let sites = env.topology.sites();
        let array_per_gb = min_rate(sites.iter().flat_map(|s| s.array_slots.iter()).map(|spec| {
            let unit = spec.capacity_per_unit.as_f64();
            if unit > 0.0 {
                spec.cost_per_capacity_unit.as_f64() / unit
            } else {
                f64::INFINITY
            }
        }));
        let tape_specs = || sites.iter().flat_map(|s| s.tape_slots.iter());
        let tape_per_gb = min_rate(tape_specs().map(|spec| {
            let unit = spec.capacity_per_unit.as_f64();
            if unit > 0.0 {
                spec.cost_per_capacity_unit.as_f64() / unit
            } else {
                f64::INFINITY
            }
        }));
        let tape_per_mbps = min_rate(tape_specs().map(|spec| {
            let unit = spec.bandwidth_per_unit.as_f64();
            if unit > 0.0 {
                spec.cost_per_bandwidth_unit.as_f64() / unit
            } else {
                f64::INFINITY
            }
        }));
        let link_per_mbps = min_rate(env.topology.routes().iter().map(|r| {
            let unit = r.network.link_bandwidth.as_f64();
            if unit > 0.0 {
                r.network.cost_per_link.as_f64() / unit
            } else {
                f64::INFINITY
            }
        }));
        let server = min_rate(sites.iter().map(|s| s.compute.cost_per_server.as_f64()));
        Rates {
            array_per_gb: finite_or_zero(array_per_gb),
            tape_per_gb: finite_or_zero(tape_per_gb),
            tape_per_mbps: finite_or_zero(tape_per_mbps),
            link_per_mbps: finite_or_zero(link_per_mbps),
            server: finite_or_zero(server),
        }
    }
}

/// Fractional annual outlay floor for protecting `app` with `technique`,
/// minimized analytically over *every* valid configuration (not just the
/// discrete grid): array gigabytes, tape cartridges/drives, link
/// bandwidth, and servers at the topology's cheapest per-unit rates,
/// amortized like real purchases, plus the (unamortized) annual vault
/// media consumables.
fn technique_outlay_floor(
    env: &Environment,
    app: &ApplicationWorkload,
    t: &Technique,
    rates: &Rates,
) -> Dollars {
    let data_gb = app.capacity().as_f64();
    let mut purchase = 0.0;

    // Primary array capacity (dataset + snapshot space) plus the mirror
    // copy. Both are config-independent; array bandwidth is not priced
    // (see the module docs).
    let mut array_gb = data_gb;
    if t.has_backup() {
        array_gb += data_gb * env.sizing.snapshot_space_fraction;
    }
    if t.has_mirror() {
        array_gb += data_gb;
    }
    purchase += array_gb * rates.array_per_gb;

    if let Some(chain) = t.backup {
        // Retained full copies; the incremental-delta term is omitted
        // because it shrinks with the backup cycle (it is ≥ 0 for every
        // configuration).
        purchase += data_gb * env.sizing.retained_tape_copies * rates.tape_per_gb;
        // The stream rate is data / min(window, cycle) ≥ data / window
        // for every cycle, so the window rate is the config-free floor.
        let window = env.sizing.backup_window.as_secs();
        let mut tape_mbps = if window > 0.0 { app.capacity().as_megabytes() / window } else { 0.0 };
        if chain.is_incremental() {
            tape_mbps += app.unique_update_rate().as_f64();
        }
        purchase += tape_mbps * rates.tape_per_mbps;
    }

    if let Some(m) = t.mirror {
        let net_mbps = if m.sync {
            app.peak_update().as_f64() * env.sizing.sync_peak_headroom
        } else {
            app.avg_update().as_f64()
        };
        purchase += net_mbps * rates.link_per_mbps;
    }

    // One primary server, plus the fractional failover spare share
    // (spare pools hold ceil(ratio × demand) ≥ ratio × demand servers).
    let mut servers = 1.0;
    if t.is_failover() {
        servers += env.sizing.failover_spare_ratio;
    }
    purchase += servers * rates.server;

    let mut annual = Dollars::new(purchase.max(0.0)).amortized_annual();

    // Vault media is an annual consumable, not an amortized purchase.
    if let Some(chain) = t.backup {
        if chain.vault && chain.vault_cycle.as_hours() > 0.0 {
            let shipments = HOURS_PER_YEAR / chain.vault_cycle.as_hours();
            annual += Dollars::new(data_gb * rates.tape_per_gb * shipments);
        }
    }
    annual
}

/// Tops up every device the candidate provisioned to its spec maximum
/// (extra disks, tape drives, links) — the most spare recovery bandwidth
/// any real design could ever give this allocation.
fn max_out(env: &Environment, candidate: &mut Candidate) {
    for r in candidate.provision().provisioned_arrays() {
        let spec = &env.topology.site(r.site).array_slots[r.slot];
        let Some(state) = candidate.provision().array(r) else { continue };
        let headroom =
            spec.max_capacity_units.saturating_sub(state.capacity_units + state.extra_units);
        if headroom > 0 {
            let _ = candidate.provision_mut().add_extra_array_units(r, headroom);
        }
    }
    for r in candidate.provision().provisioned_tapes() {
        let spec = &env.topology.site(r.site).tape_slots[r.slot];
        let Some(state) = candidate.provision().tape(r) else { continue };
        let headroom = spec.max_bandwidth_units.saturating_sub(state.drives + state.extra_drives);
        if headroom > 0 {
            let _ = candidate.provision_mut().add_extra_tape_drives(r, headroom);
        }
    }
    for rid in candidate.provision().active_routes() {
        let spec = &env.topology.route(rid).network;
        let state = candidate.provision().link(rid);
        let headroom = spec.max_links.saturating_sub(state.links + state.extra_links);
        if headroom > 0 {
            let _ = candidate.provision_mut().add_extra_links(rid, headroom);
        }
    }
}

/// Penalty of `app` alone in the environment under one technique,
/// configuration and placement, with every provisioned device maxed
/// out; the allocation error when the singleton does not fit.
fn maxed_singleton_penalty(
    env: &Environment,
    app: AppId,
    technique: TechniqueId,
    config: TechniqueConfig,
    placement: Placement,
) -> Result<Dollars, ResourceError> {
    let mut singleton = Candidate::empty(env);
    singleton.try_assign(env, app, technique, config, placement)?;
    max_out(env, &mut singleton);
    Ok(singleton.evaluate(env).penalties.total())
}

/// A site as a maxed singleton sees it: every [`Site`] field except the
/// id and the name.
#[derive(PartialEq)]
struct SiteShape<'a> {
    facility_cost: Dollars,
    array_slots: &'a [DeviceSpec],
    tape_slots: &'a [DeviceSpec],
    max_compute: u32,
    compute: ComputeSpec,
}

impl<'a> SiteShape<'a> {
    fn of(site: &'a Site) -> Self {
        // No `..`: a new `Site` field does not compile here until the
        // shape accounts for it.
        let Site { id: _, name: _, facility_cost, array_slots, tape_slots, max_compute, compute } =
            site;
        SiteShape {
            facility_cost: *facility_cost,
            array_slots,
            tape_slots,
            max_compute: *max_compute,
            compute: *compute,
        }
    }
}

/// For each site (by id), the id of the first site with the same
/// [`SiteShape`].
fn site_classes(env: &Environment) -> Vec<usize> {
    let shapes: Vec<SiteShape> = env.topology.sites().iter().map(SiteShape::of).collect();
    (0..shapes.len())
        .map(|i| (0..=i).find(|&j| shapes[j] == shapes[i]).expect("a site matches itself"))
        .collect()
}

/// Every input a maxed singleton's penalty can read about its placement,
/// with site ids and names left out (see the module docs). Sites enter
/// through their [`site_classes`] entry.
#[derive(PartialEq)]
struct PlacementShape<'a> {
    primary: (usize, &'a DeviceSpec),
    tape: Option<&'a DeviceSpec>,
    mirror: Option<(usize, &'a DeviceSpec)>,
    network: Option<&'a NetworkSpec>,
    /// The failover site is the mirror site, so a flag suffices.
    failover: bool,
}

impl<'a> PlacementShape<'a> {
    fn of(env: &'a Environment, site_classes: &[usize], placement: &Placement) -> Self {
        let topology = &*env.topology;
        let end =
            |r: ArrayRef| (site_classes[r.site.0], &topology.site(r.site).array_slots[r.slot]);
        PlacementShape {
            primary: end(placement.primary),
            tape: placement.tape.map(|t| &topology.site(t.site).tape_slots[t.slot]),
            mirror: placement.mirror.map(end),
            network: placement.route.map(|r| &topology.route(r).network),
            failover: placement.failover_site.is_some(),
        }
    }
}

/// `technique`'s placements grouped by [`PlacementShape`]: groups in
/// order of their first placement, members in enumeration order. Each
/// group's first placement is its representative.
fn placement_shapes(
    env: &Environment,
    technique: TechniqueId,
    site_classes: &[usize],
) -> Vec<Vec<Placement>> {
    let mut shapes: Vec<PlacementShape> = Vec::new();
    let mut groups: Vec<Vec<Placement>> = Vec::new();
    for placement in PlacementOptions::enumerate(env, technique) {
        let shape = PlacementShape::of(env, site_classes, &placement);
        match shapes.iter().position(|s| *s == shape) {
            Some(i) => groups[i].push(placement),
            None => {
                shapes.push(shape);
                groups.push(vec![placement]);
            }
        }
    }
    groups
}

/// Lower bound contribution of a single application: the minimum, over
/// its eligible techniques, of the fractional outlay floor plus the
/// maxed-singleton penalty floor.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AppBound {
    /// The application.
    pub app: AppId,
    /// Name of the technique achieving the minimum, or `"unplaceable"`
    /// when no eligible technique admits a feasible singleton assignment
    /// (the app then contributes zero — vacuously sound, since no
    /// complete design exists either).
    pub technique: String,
    /// Fractional annual outlay floor of the minimizing technique.
    pub outlay_floor: Dollars,
    /// Relaxed annual penalty floor of the minimizing technique.
    pub penalty_floor: Dollars,
}

impl AppBound {
    /// The app's combined contribution to the bound.
    #[must_use]
    pub fn total(&self) -> Dollars {
        self.outlay_floor + self.penalty_floor
    }
}

/// A relaxation lower bound on the total annual cost of any complete
/// design over the discretized configuration space. See the module docs
/// for why each term is valid.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LowerBound {
    /// Per-application floors (one entry per workload, in id order).
    pub per_app: Vec<AppBound>,
    /// Capacity-derived floor on array/tape enclosure fixed costs
    /// (amortized annual).
    pub enclosure_floor: Dollars,
    /// Floor on facility costs (amortized annual): one site, or two when
    /// some application is only protectable by mirroring.
    pub facility_floor: Dollars,
    /// Total outlay-side floor: per-app fractional outlays plus the
    /// enclosure and facility floors.
    pub outlay_floor: Dollars,
    /// Total penalty-side floor: sum of per-app penalty floors.
    pub penalty_floor: Dollars,
    /// The bound itself: `outlay_floor + penalty_floor`.
    pub total: Dollars,
}

impl LowerBound {
    /// Which relaxation term dominates the bound, for display.
    #[must_use]
    pub fn dominant_term(&self) -> &'static str {
        let app_outlay = self.outlay_floor - self.enclosure_floor - self.facility_floor;
        let structural = self.enclosure_floor + self.facility_floor;
        if self.penalty_floor >= app_outlay && self.penalty_floor >= structural {
            "penalty floor"
        } else if app_outlay >= structural {
            "fractional outlay"
        } else {
            "capacity floor"
        }
    }
}

/// Computes the relaxation lower bound for an environment.
///
/// Cost: one maxed-singleton evaluation per (app × eligible technique ×
/// placement shape × grid configuration); see the module docs for why
/// one placement per shape is exact. Repeated slot sets and identical
/// sites add no shapes: four_sites(16) takes 2,312 evaluations and
/// fleet(64) 9,408, about 16 ms and 0.09 s in a release build on a
/// 2-vCPU x86-64 host.
#[must_use]
pub fn lower_bound(env: &Environment) -> LowerBound {
    let _span = dsd_obs::span("bounds.lower_bound", "bounds");
    let site_classes = site_classes(env);
    let representatives: Vec<Vec<Placement>> = env
        .catalog
        .ids()
        .map(|tid| {
            placement_shapes(env, tid, &site_classes).into_iter().map(|group| group[0]).collect()
        })
        .collect();
    bound_over(env, &representatives)
}

/// The bound with each technique's maxed singletons priced over
/// `placements[technique]` only.
fn bound_over(env: &Environment, placements: &[Vec<Placement>]) -> LowerBound {
    let rates = Rates::of(env);
    let mut per_app = Vec::with_capacity(env.workloads.len());
    let mut mirror_forced = false;
    let mut backup_forced = false;
    let mut singletons = 0u64;

    for app in env.workloads.iter() {
        let class = app.class_with(&env.thresholds);
        // (combined, outlay, penalty, name) of the best technique so far.
        let mut best: Option<(Dollars, Dollars, Dollars, String)> = None;
        let mut placeable_all_mirror = true;
        let mut placeable_all_backup = true;
        let mut placeable_any = false;

        for (tid, t) in env.catalog.eligible_for(class) {
            let outlay = technique_outlay_floor(env, app, t, &rates);
            let configs = t.config_space();
            let mut penalty: Option<Dollars> = None;
            for &placement in &placements[tid.0] {
                for &config in &configs {
                    singletons += 1;
                    let Ok(p) = maxed_singleton_penalty(env, app.id, tid, config, placement) else {
                        continue;
                    };
                    if penalty.is_none_or(|b| p < b) {
                        penalty = Some(p);
                    }
                }
            }
            let Some(penalty) = penalty else { continue };
            placeable_any = true;
            placeable_all_mirror &= t.has_mirror();
            placeable_all_backup &= t.has_backup();
            let combined = outlay + penalty;
            if best.as_ref().is_none_or(|(b, ..)| combined < *b) {
                best = Some((combined, outlay, penalty, t.name.clone()));
            }
        }

        if placeable_any {
            mirror_forced |= placeable_all_mirror;
            backup_forced |= placeable_all_backup;
        }
        per_app.push(match best {
            Some((_, outlay, penalty, name)) => AppBound {
                app: app.id,
                technique: name,
                outlay_floor: outlay,
                penalty_floor: penalty,
            },
            None => AppBound {
                app: app.id,
                technique: "unplaceable".into(),
                outlay_floor: Dollars::ZERO,
                penalty_floor: Dollars::ZERO,
            },
        });
    }
    dsd_obs::add("bound.singletons", singletons);

    let (enclosure_floor, facility_floor) = if env.workloads.is_empty() {
        (Dollars::ZERO, Dollars::ZERO)
    } else {
        structural_floors(env, mirror_forced, backup_forced)
    };

    let app_outlay: Dollars = per_app.iter().map(|a| a.outlay_floor).sum();
    let penalty_floor: Dollars = per_app.iter().map(|a| a.penalty_floor).sum();
    let outlay_floor = app_outlay + enclosure_floor + facility_floor;
    LowerBound {
        per_app,
        enclosure_floor,
        facility_floor,
        outlay_floor,
        penalty_floor,
        total: outlay_floor + penalty_floor,
    }
}

/// Enclosure and facility floors (both amortized annual): any complete
/// design stores every dataset on some array and uses at least one site.
fn structural_floors(
    env: &Environment,
    mirror_forced: bool,
    backup_forced: bool,
) -> (Dollars, Dollars) {
    let sites = env.topology.sites();
    let array_specs: Vec<_> = sites.iter().flat_map(|s| s.array_slots.iter()).collect();

    let mut enclosure = Dollars::ZERO;
    if !array_specs.is_empty() {
        let largest = array_specs
            .iter()
            .map(|spec| spec.total_capacity(spec.max_capacity_units).as_f64())
            .fold(0.0f64, f64::max);
        let total_gb: f64 = env.workloads.iter().map(|a| a.capacity().as_f64()).sum();
        let mut count = if largest > 0.0 { (total_gb / largest).ceil().max(1.0) as u32 } else { 1 };
        if mirror_forced {
            count = count.max(2);
        }
        let min_fixed =
            array_specs.iter().map(|s| s.fixed_cost).fold(Dollars::INFINITE, Dollars::min);
        if min_fixed.is_finite() {
            enclosure = (min_fixed * f64::from(count)).amortized_annual();
        }
    }
    if backup_forced {
        let min_tape_fixed = sites
            .iter()
            .flat_map(|s| s.tape_slots.iter())
            .map(|s| s.fixed_cost)
            .fold(Dollars::INFINITE, Dollars::min);
        if min_tape_fixed.is_finite() {
            enclosure += min_tape_fixed.amortized_annual();
        }
    }

    let mut facilities: Vec<Dollars> = sites.iter().map(|s| s.facility_cost).collect();
    facilities.sort_by(|a, b| a.partial_cmp(b).expect("facility costs are finite"));
    let facility = match (facilities.as_slice(), mirror_forced) {
        ([], _) => Dollars::ZERO,
        ([first, second, ..], true) => (*first + *second).amortized_annual(),
        ([first, ..], _) => first.amortized_annual(),
    };
    (enclosure, facility)
}

/// Relative slack used when comparing an achieved cost against the
/// bound: float summation order differs between the bound and the
/// evaluator, so equality holds only to rounding.
pub const CERTIFICATE_TOLERANCE: f64 = 1e-9;

/// An optimality certificate: a lower bound paired with an achieved cost
/// and the resulting gap. Attached to solver outcomes
/// ([`crate::SolveOutcome::certify`]) and printed by `dsd explain`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Certificate {
    /// The certified lower bound on any complete design's total cost.
    pub lower_bound: Dollars,
    /// The evaluated total cost of the design being certified.
    pub achieved: Dollars,
    /// Optimality gap `(achieved - lower_bound) / lower_bound`, percent.
    /// Zero when the bound is zero or the achieved cost is not finite.
    pub gap_pct: f64,
    /// Which relaxation term dominates the bound.
    pub dominant_term: String,
    /// Outlay-side share of the bound (per-app fractional outlays plus
    /// the enclosure/facility floors).
    pub outlay_floor: Dollars,
    /// Penalty-side share of the bound.
    pub penalty_floor: Dollars,
}

impl Certificate {
    /// Builds the certificate for an achieved total cost.
    #[must_use]
    pub fn new(bound: &LowerBound, achieved: Dollars) -> Self {
        let lb = bound.total.as_f64();
        let gap_pct = if lb > 0.0 && achieved.is_finite() {
            ((achieved.as_f64() - lb) / lb * 100.0).max(0.0)
        } else {
            0.0
        };
        Certificate {
            lower_bound: bound.total,
            achieved,
            gap_pct,
            dominant_term: bound.dominant_term().to_string(),
            outlay_floor: bound.outlay_floor,
            penalty_floor: bound.penalty_floor,
        }
    }

    /// Checks the certificate's defining inequality.
    ///
    /// # Errors
    ///
    /// Returns a description when the achieved cost falls below the
    /// lower bound (beyond [`CERTIFICATE_TOLERANCE`]) — either the bound
    /// or the evaluation is buggy, and the result must not be trusted.
    pub fn verify(&self) -> Result<(), String> {
        if self.achieved.as_f64() < self.lower_bound.as_f64() * (1.0 - CERTIFICATE_TOLERANCE) {
            return Err(format!(
                "achieved cost {} falls below the certified lower bound {} — \
                 bound or evaluation is unsound",
                self.achieved, self.lower_bound
            ));
        }
        Ok(())
    }

    /// Publishes the certificate as `bound.lower` / `bound.gap_pct`
    /// gauges into the installed metrics registry (no-op when none is).
    pub fn publish(&self) {
        dsd_obs::gauge("bound.lower", self.lower_bound.as_f64());
        dsd_obs::gauge("bound.gap_pct", self.gap_pct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::design_solver::DesignSolver;
    use crate::exhaustive::{exhaustive_optimal_with, ExhaustiveOptions};
    use dsd_failure::{FailureModel, FailureRates};
    use dsd_protection::TechniqueCatalog;
    use dsd_resources::{Route, SiteId, Topology};
    use dsd_workload::{GeneratorConfig, WorkloadGenerator, WorkloadSet};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    fn tiny_env(apps: usize) -> Environment {
        let mk = |i: usize| {
            Site::new(i, format!("P{i}"))
                .with_array_slot(DeviceSpec::xp1200())
                .with_tape_library(DeviceSpec::tape_library_high())
                .with_compute(4)
        };
        Environment::new(
            WorkloadSet::scaled_paper_mix(apps),
            Arc::new(Topology::fully_connected(vec![mk(0), mk(1)], NetworkSpec::high())),
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::case_study()),
        )
    }

    #[test]
    fn bound_is_positive_and_decomposes() {
        let env = tiny_env(2);
        let lb = lower_bound(&env);
        assert!(lb.total > Dollars::ZERO);
        assert_eq!(lb.per_app.len(), 2);
        let app_outlay: Dollars = lb.per_app.iter().map(|a| a.outlay_floor).sum();
        let penalties: Dollars = lb.per_app.iter().map(|a| a.penalty_floor).sum();
        let outlay = app_outlay + lb.enclosure_floor + lb.facility_floor;
        assert!((lb.outlay_floor.as_f64() - outlay.as_f64()).abs() < 1e-6);
        assert!((lb.penalty_floor.as_f64() - penalties.as_f64()).abs() < 1e-6);
        assert!((lb.total.as_f64() - (outlay + penalties).as_f64()).abs() < 1e-6);
        // Two sites carry a mirror-forced gold app: both facility and
        // enclosure floors must reflect two structures.
        assert!(lb.facility_floor >= (Dollars::new(2_000_000.0)).amortized_annual());
        assert!(lb.enclosure_floor >= (Dollars::new(2.0 * 375_000.0)).amortized_annual());
    }

    #[test]
    fn bound_never_exceeds_the_exhaustive_optimum() {
        for apps in [1usize, 2] {
            let env = tiny_env(apps);
            let lb = lower_bound(&env).total;
            let options = ExhaustiveOptions { config_grid: true, ..ExhaustiveOptions::default() };
            let exact = exhaustive_optimal_with(&env, options)
                .expect("tiny space")
                .best
                .expect("feasible")
                .cost()
                .total();
            assert!(
                lb.as_f64() <= exact.as_f64() * (1.0 + CERTIFICATE_TOLERANCE),
                "apps={apps}: bound {lb} exceeds exhaustive optimum {exact}"
            );
        }
    }

    #[test]
    fn bound_never_exceeds_a_heuristic_design() {
        let env = tiny_env(3);
        let lb = lower_bound(&env).total;
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let best =
            DesignSolver::new(&env).solve(Budget::iterations(20), &mut rng).best.expect("feasible");
        assert!(lb <= best.cost().total());
    }

    #[test]
    fn unplaceable_apps_contribute_zero() {
        // One site, no tape, low-end array: the gold app has no eligible
        // placement at all.
        let sites =
            vec![Site::new(0, "solo").with_array_slot(DeviceSpec::msa1500()).with_compute(1)];
        let env = Environment::new(
            WorkloadSet::scaled_paper_mix(1),
            Arc::new(Topology::fully_connected(sites, NetworkSpec::med())),
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::case_study()),
        );
        let lb = lower_bound(&env);
        assert_eq!(lb.per_app[0].technique, "unplaceable");
        assert_eq!(lb.per_app[0].total(), Dollars::ZERO);
        assert!(lb.total.is_finite());
    }

    #[test]
    fn certificate_math_and_verification() {
        let env = tiny_env(1);
        let lb = lower_bound(&env);
        let good = Certificate::new(&lb, lb.total * 1.25);
        assert!((good.gap_pct - 25.0).abs() < 1e-6);
        assert!(good.verify().is_ok());
        assert!(!good.dominant_term.is_empty());

        let exact = Certificate::new(&lb, lb.total);
        assert_eq!(exact.gap_pct, 0.0);
        assert!(exact.verify().is_ok());

        let bad = Certificate::new(&lb, lb.total * 0.5);
        let err = bad.verify().expect_err("below the bound must be refused");
        assert!(err.contains("below the certified lower bound"), "{err}");
    }

    /// The every-placement loop the shape grouping replaced: the
    /// reference [`lower_bound`] must reproduce bit for bit.
    fn reference_lower_bound(env: &Environment) -> LowerBound {
        let every: Vec<Vec<Placement>> =
            env.catalog.ids().map(|tid| PlacementOptions::enumerate(env, tid)).collect();
        bound_over(env, &every)
    }

    fn paper_site(id: usize, slots: [DeviceSpec; 2], compute: u32) -> Site {
        let [first, second] = slots;
        Site::new(id, format!("S{id}"))
            .with_array_slot(first)
            .with_array_slot(second)
            .with_tape_library(DeviceSpec::tape_library_high())
            .with_compute(compute)
    }

    fn xp_msa() -> [DeviceSpec; 2] {
        [DeviceSpec::xp1200(), DeviceSpec::msa1500()]
    }

    fn env_over(sites: Vec<Site>, workloads: WorkloadSet, rates: FailureRates) -> Environment {
        Environment::new(
            workloads,
            Arc::new(Topology::fully_connected(sites, NetworkSpec::high())),
            TechniqueCatalog::table2(),
            FailureModel::new(rates),
        )
    }

    /// The heterogeneous three-site environment: two identical sites and
    /// a third with its array slots in the other order and half the
    /// compute, reached from the first over a mid-range route, under the
    /// §4.5 failure rates.
    fn mixed_sites_env() -> Environment {
        let mut rng = ChaCha8Rng::seed_from_u64(45);
        let workloads = WorkloadGenerator::new(GeneratorConfig {
            scale_min: 0.5,
            scale_max: 1.5,
            penalty_scale_min: 0.5,
            penalty_scale_max: 2.0,
        })
        .generate(4, &mut rng);
        let [xp, msa] = xp_msa();
        let sites = vec![
            paper_site(0, xp_msa(), 8),
            paper_site(1, xp_msa(), 8),
            paper_site(2, [msa, xp], 4),
        ];
        let route = |a, b, network| Route { a: SiteId(a), b: SiteId(b), network };
        let routes = vec![
            route(0, 1, NetworkSpec::high()),
            route(0, 2, NetworkSpec::med()),
            route(1, 2, NetworkSpec::high()),
        ];
        Environment::new(
            workloads,
            Arc::new(Topology::new(sites, routes)),
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::sensitivity_baseline()),
        )
    }

    /// Environments whose placements merge into shapes in different
    /// ways: repeated slot sets, identical sites, a single site, and
    /// sites that differ.
    fn shape_envs() -> Vec<(&'static str, Environment)> {
        // The fleet generator's site: the paper slot set twice over.
        let fleet_site = |id: usize| {
            let mut site = Site::new(id, format!("F{id}")).with_compute(8);
            for _ in 0..2 {
                site = site
                    .with_array_slot(DeviceSpec::xp1200())
                    .with_array_slot(DeviceSpec::msa1500())
                    .with_tape_library(DeviceSpec::tape_library_high());
            }
            site
        };
        let paper = FailureRates::case_study();
        vec![
            (
                "two fleet sites",
                env_over((0..2).map(fleet_site).collect(), WorkloadSet::scaled_paper_mix(4), paper),
            ),
            (
                "four paper sites",
                env_over(
                    (0..4).map(|i| paper_site(i, xp_msa(), 8)).collect(),
                    WorkloadSet::scaled_paper_mix(4),
                    paper,
                ),
            ),
            ("one site", env_over(vec![fleet_site(0)], WorkloadSet::scaled_paper_mix(4), paper)),
            ("mixed sites", mixed_sites_env()),
        ]
    }

    #[test]
    fn every_placement_prices_like_its_shape_representative() {
        let mut failures = 0;
        for (name, env) in shape_envs() {
            let classes = site_classes(&env);
            let mut members = 0;
            for app in env.workloads.iter() {
                let class = app.class_with(&env.thresholds);
                for (tid, t) in env.catalog.eligible_for(class) {
                    let groups = placement_shapes(&env, tid, &classes);
                    let placements: usize = groups.iter().map(Vec::len).sum();
                    assert_eq!(placements, PlacementOptions::enumerate(&env, tid).len(), "{name}");
                    for group in &groups {
                        for config in t.config_space() {
                            let price = |p| {
                                maxed_singleton_penalty(&env, app.id, tid, config, p)
                                    .map(|d| d.as_f64().to_bits())
                                    .map_err(|e| std::mem::discriminant(&e))
                            };
                            let representative = price(group[0]);
                            failures += usize::from(representative.is_err());
                            for &member in &group[1..] {
                                members += 1;
                                assert_eq!(
                                    price(member),
                                    representative,
                                    "{name}: {} {} {config:?} {member:?}",
                                    app.id,
                                    t.name
                                );
                            }
                        }
                    }
                }
            }
            assert!(members > 0, "{name}: no shape has a second member");
        }
        assert!(failures > 0, "no singleton fails, so failing alike goes unchecked");
    }

    /// Raw bits of every float in a bound, and each app's technique.
    fn bits(bound: &LowerBound) -> (Vec<u64>, Vec<String>) {
        let mut floats = vec![
            bound.total,
            bound.outlay_floor,
            bound.penalty_floor,
            bound.enclosure_floor,
            bound.facility_floor,
        ];
        let mut techniques = Vec::new();
        for a in &bound.per_app {
            floats.extend([a.outlay_floor, a.penalty_floor]);
            techniques.push(format!("{} {}", a.app, a.technique));
        }
        (floats.iter().map(|d| d.as_f64().to_bits()).collect(), techniques)
    }

    #[test]
    fn shape_bound_bit_equals_the_every_placement_reference() {
        for (name, env) in shape_envs() {
            let bound = lower_bound(&env);
            assert_eq!(bits(&bound), bits(&reference_lower_bound(&env)), "{name}");

            // Recording changes neither the bound nor the work counted:
            // one span per call, and fewer singletons than the reference.
            let recorder = dsd_obs::Recorder::new();
            let recorded = {
                let _g = recorder.install();
                lower_bound(&env)
            };
            assert_eq!(bits(&recorded), bits(&bound), "{name}: recorder installed");
            let spans =
                recorder.drain_events().iter().filter(|e| e.name == "bounds.lower_bound").count();
            assert_eq!(spans, 1, "{name}");
            let shaped = recorder.metrics_snapshot().counter("bound.singletons").unwrap_or(0);
            let every = dsd_obs::Recorder::new();
            {
                let _g = every.install();
                let _ = reference_lower_bound(&env);
            }
            let all = every.metrics_snapshot().counter("bound.singletons").unwrap_or(0);
            assert!(0 < shaped && shaped < all, "{name}: {shaped} of {all} singletons");
        }
    }

    #[test]
    fn every_site_field_but_id_and_name_separates_shapes() {
        let env = mixed_sites_env();
        let classes = site_classes(&env);
        assert_eq!(classes, [0, 0, 2]);
        // Two site classes with two slot kinds each: four primary ends.
        // Each of the five (primary class, mirror class, network)
        // combinations pairs two slot kinds with two: twenty mirrored
        // shapes.
        for tid in env.catalog.ids() {
            let t = &env.catalog[tid];
            let expected = if t.has_mirror() { 20 } else { 4 };
            assert_eq!(placement_shapes(&env, tid, &classes).len(), expected, "{}", t.name);
        }

        // A copy of a site under another id and name shares its class
        // until any one other field changes.
        let base = paper_site(0, xp_msa(), 8);
        let classes_with = |change: fn(&mut Site)| {
            let mut other = Site { id: SiteId(1), name: "renamed".into(), ..base.clone() };
            change(&mut other);
            let sites = vec![base.clone(), other];
            site_classes(&env_over(
                sites,
                WorkloadSet::scaled_paper_mix(1),
                FailureRates::case_study(),
            ))
        };
        assert_eq!(classes_with(|_| {}), [0, 0], "id and name are left out");
        type Change = fn(&mut Site);
        let changes: [(&str, Change); 5] = [
            ("facility_cost", |s| s.facility_cost = s.facility_cost * 2.0),
            ("array_slots", |s| s.array_slots.reverse()),
            ("tape_slots", |s| s.tape_slots.push(DeviceSpec::tape_library_high())),
            ("max_compute", |s| s.max_compute /= 2),
            ("compute", |s| s.compute.cost_per_server = s.compute.cost_per_server * 2.0),
        ];
        for (field, change) in changes {
            assert_eq!(classes_with(change), [0, 1], "{field}");
        }
    }

    #[test]
    fn maxed_singleton_has_no_less_spare_than_any_shared_design() {
        // Structural spot-check of the penalty relaxation: topping up a
        // singleton leaves every provisioned device at its spec maximum.
        let env = tiny_env(1);
        let app = env.workloads.iter().next().unwrap();
        let class = app.class_with(&env.thresholds);
        let (tid, t) = env.catalog.eligible_for(class).next().expect("gold technique");
        let placement = PlacementOptions::enumerate(&env, tid)[0];
        let mut c = Candidate::empty(&env);
        c.try_assign(&env, app.id, tid, t.default_config(), placement).expect("fits");
        max_out(&env, &mut c);
        for r in c.provision().provisioned_arrays() {
            let spec = &env.topology.site(r.site).array_slots[r.slot];
            let state = c.provision().array(r).unwrap();
            assert_eq!(state.capacity_units + state.extra_units, spec.max_capacity_units);
        }
    }
}
