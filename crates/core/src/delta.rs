//! The move taxonomy and dependency-slice digests backing incremental
//! (delta) candidate evaluation.
//!
//! A [`crate::Candidate`] evaluation prices every failure scenario, but a
//! scenario's outcome depends only on a narrow *dependency slice*: the
//! assignments of the applications its [`FailureScope`] affects, and the
//! bandwidth state of the devices those applications' placements touch
//! (recovery streams draw the failed application's own allocation plus
//! each device's spare, which is total minus everyone's allocations).
//! [`scenario_digests`] hashes exactly that slice for every scenario;
//! the solver keys a [`dsd_recovery::ScenarioOutcomeCache`] on it so a
//! trial move only pays to re-schedule the scenarios it intersects.
//!
//! [`Move`] enumerates the solver's elementary trials. Applying one via
//! `Candidate::apply_move` yields a [`MoveUndo`] token that snapshots
//! the exact prior state of everything the move may touch;
//! `Candidate::undo_move` restores those bits verbatim rather than
//! reversing the arithmetic, so trial/undo sequences never drift from a
//! freshly built candidate (the oracle-equivalence guarantee, DESIGN.md
//! §6f).

use std::hash::{Hash, Hasher};

use dsd_failure::{FailureScenario, FailureScope};
use dsd_protection::{TechniqueConfig, TechniqueId};
use dsd_recovery::{Placement, ScenarioDigest};
use dsd_resources::{ArrayRef, DeviceRef, ProvisionCheckpoint, RouteId, TapeRef};
use dsd_workload::AppId;

use crate::candidate::{AppAssignment, Candidate, CostBreakdown};

/// One elementary solver trial: reprotect an application (covering both
/// technique/placement changes and pure configuration changes) or add a
/// unit of capacity to one provisioned device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Move {
    /// Give `app` the given technique/config/placement, releasing its
    /// current assignment (if any) first.
    Reassign {
        /// The application to (re)protect.
        app: AppId,
        /// The protection technique to apply.
        technique: TechniqueId,
        /// The technique configuration parameters.
        config: TechniqueConfig,
        /// The resource placement (route resolved during application).
        placement: Placement,
    },
    /// Add `extra` links to an active route.
    AddLinks {
        /// The route to widen.
        route: RouteId,
        /// Number of links to add.
        extra: u32,
    },
    /// Add `extra` drives to a provisioned tape library.
    AddTapeDrives {
        /// The library to extend.
        tape: TapeRef,
        /// Number of drives to add.
        extra: u32,
    },
    /// Add `extra` capacity/bandwidth units (disks) to a provisioned
    /// array.
    AddArrayUnits {
        /// The array to extend.
        array: ArrayRef,
        /// Number of units to add.
        extra: u32,
    },
}

impl Move {
    /// Short taxonomy label of the move's kind, used for per-move-type
    /// convergence diagnostics.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Move::Reassign { .. } => "reassign",
            Move::AddLinks { .. } => "add_links",
            Move::AddTapeDrives { .. } => "add_tape_drives",
            Move::AddArrayUnits { .. } => "add_array_units",
        }
    }

    /// Metric counter name for trials of this move kind. The solvers bump
    /// it once per applied-and-evaluated trial; paired with
    /// [`Move::accept_counter`] it yields per-move-type acceptance rates.
    #[must_use]
    pub fn trial_counter(&self) -> &'static str {
        match self {
            Move::Reassign { .. } => "solver.trials.reassign",
            Move::AddLinks { .. } => "solver.trials.add_links",
            Move::AddTapeDrives { .. } => "solver.trials.add_tape_drives",
            Move::AddArrayUnits { .. } => "solver.trials.add_array_units",
        }
    }

    /// Metric counter name for accepted (committed) moves of this kind.
    #[must_use]
    pub fn accept_counter(&self) -> &'static str {
        match self {
            Move::Reassign { .. } => "solver.accepted.reassign",
            Move::AddLinks { .. } => "solver.accepted.add_links",
            Move::AddTapeDrives { .. } => "solver.accepted.add_tape_drives",
            Move::AddArrayUnits { .. } => "solver.accepted.add_array_units",
        }
    }

    /// Profiler counter name for applications of this move kind
    /// (`Candidate::apply_move`).
    #[must_use]
    pub fn apply_counter(&self) -> &'static str {
        match self {
            Move::Reassign { .. } => "eval.apply.reassign",
            Move::AddLinks { .. } => "eval.apply.add_links",
            Move::AddTapeDrives { .. } => "eval.apply.add_tape_drives",
            Move::AddArrayUnits { .. } => "eval.apply.add_array_units",
        }
    }
}

/// The devices a move mutated — consulted by undo to re-mark the
/// evaluation memo's stale sets (the restore changes those devices'
/// state right back).
#[derive(Debug, Default)]
pub(crate) struct TouchedDevices {
    pub(crate) arrays: Vec<ArrayRef>,
    pub(crate) tapes: Vec<TapeRef>,
    pub(crate) routes: Vec<RouteId>,
}

/// Undo token returned by `Candidate::apply_move`: a bit-exact snapshot
/// of every piece of state the move could touch, taken before it ran.
/// Consumed by `Candidate::undo_move`.
#[derive(Debug)]
pub struct MoveUndo {
    pub(crate) checkpoint: ProvisionCheckpoint,
    pub(crate) assignment: Option<(AppId, Option<AppAssignment>)>,
    pub(crate) cost: Option<CostBreakdown>,
    pub(crate) touched: TouchedDevices,
}

// Digest construction is on the solver's hottest path: every trial
// evaluation digests every scenario. Two choices keep it cheap enough to
// beat full re-evaluation: (1) each application's slice is hashed ONCE
// per evaluation into a two-lane fingerprint, and a scenario's digest is
// an order-dependent combine of the fingerprints of the apps its scope
// affects — O(apps) hashing amortized over all scenarios instead of
// O(scenarios x apps); (2) the lanes use a multiply-xor-rotate mixer
// (FxHash-style) rather than SipHash — digests never cross a trust
// boundary, so DoS-resistant hashing buys nothing here. The lanes use
// distinct seeds, odd multipliers, and rotations, so a silent double
// collision within a scope's 4-way cache set stays negligible. Mixing is
// sequential and non-commutative, so app order matters (it is fixed:
// assignment order).
const LANE_A_SEED: u64 = 0xD1B5_4A32_D192_ED03;
const LANE_B_SEED: u64 = 0x2D35_8DCC_AA6C_78A5;
const LANE_A_MUL: u64 = 0x517C_C1B7_2722_0A95;
const LANE_B_MUL: u64 = 0x2545_F491_4F6C_DD1D;

#[inline]
fn mix_a(acc: u64, v: u64) -> u64 {
    (acc.rotate_left(5) ^ v).wrapping_mul(LANE_A_MUL)
}

#[inline]
fn mix_b(acc: u64, v: u64) -> u64 {
    (acc.rotate_left(7) ^ v).wrapping_mul(LANE_B_MUL)
}

/// A two-lane [`Hasher`] over the multiply-xor mixers. `finish` returns
/// lane A; lane B is read directly by the fingerprint builder.
struct TwoLane {
    a: u64,
    b: u64,
}

impl TwoLane {
    fn new() -> Self {
        TwoLane { a: LANE_A_SEED, b: LANE_B_SEED }
    }

    #[inline]
    fn mix(&mut self, v: u64) {
        self.a = mix_a(self.a, v);
        self.b = mix_b(self.b, v);
    }
}

impl Hasher for TwoLane {
    fn finish(&self) -> u64 {
        self.a
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
        self.mix(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// One application's precomputed dependency-slice fingerprint: its full
/// assignment plus the exact bandwidth state (total, allocated, own
/// share) of every device its placement touches — everything a
/// scenario's outcome can depend on, independent of which scope selects
/// the app.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AppSliceFingerprint {
    pub(crate) app: AppId,
    pub(crate) primary: ArrayRef,
    lanes: (u64, u64),
}

impl AppSliceFingerprint {
    /// The slot of a just-inserted application whose slice is hashed on
    /// the next memo refresh; its lanes are never read before that.
    pub(crate) fn pending(app: AppId, primary: ArrayRef) -> Self {
        AppSliceFingerprint { app, primary, lanes: (0, 0) }
    }
}

/// Hashes one application's dependency slice against the current
/// provision state.
pub(crate) fn fingerprint_app(
    provision: &dsd_resources::Provision,
    app: AppId,
    assignment: &AppAssignment,
) -> AppSliceFingerprint {
    let mut h = TwoLane::new();
    app.hash(&mut h);
    assignment.hash(&mut h);
    let p = &assignment.placement;
    let mut devices = [Some(DeviceRef::Array(p.primary)), None, None, None];
    devices[1] = p.mirror.map(DeviceRef::Array);
    devices[2] = p.route.map(DeviceRef::Route);
    devices[3] = p.tape.map(DeviceRef::Tape);
    for d in devices.into_iter().flatten() {
        // Total and allocated bandwidth determine the device's spare
        // (other applications' shares included via the allocated total);
        // the app's own share completes the recovery stream rate. Exact
        // f64 bits, so equal digest => equal outcome bits.
        h.mix(provision.device_bandwidth(d).as_f64().to_bits());
        h.mix(provision.device_alloc_bandwidth(d).as_f64().to_bits());
        h.mix(provision.app_alloc_bandwidth_on(app, d).as_f64().to_bits());
    }
    AppSliceFingerprint { app, primary: p.primary, lanes: (h.a, h.b) }
}

/// Hashes every assigned application's dependency slice once, in app
/// order.
fn app_fingerprints(candidate: &Candidate) -> Vec<AppSliceFingerprint> {
    let provision = candidate.provision();
    candidate
        .assignments()
        .iter()
        .map(|(&app, assignment)| fingerprint_app(provision, app, assignment))
        .collect()
}

/// Builds every scenario's slice digest in one pass over the
/// application fingerprints, and keeps its buffers between builds.
///
/// A scope affects an application when it corrupts the application's
/// data or fails its primary array (`FailureScope::affects_app`), so each
/// application belongs to exactly three scopes: its data object, its
/// primary array and that array's site. Each fingerprint is mixed, in app
/// order, into those three scopes' accumulators; a scenario's digest is
/// then its scope's accumulator, or the bare seed when no application
/// falls in the scope. That is the same sequence of mixes as folding, per
/// scenario, every affected application in app order, at O(apps +
/// scenarios) instead of O(apps × scenarios).
#[derive(Debug, Default)]
pub(crate) struct DigestBuilder {
    /// One accumulator per application id, then one per (site, slot)
    /// array, then one per site, up to the largest ids the fingerprints
    /// name.
    lanes: Vec<(u64, u64)>,
    apps: usize,
    sites: usize,
    slots: usize,
    digests: Vec<ScenarioDigest>,
}

impl DigestBuilder {
    /// The digest of every scenario, in order, from the fingerprints of
    /// the assigned applications in app order.
    pub(crate) fn build(
        &mut self,
        scenarios: &[FailureScenario],
        fingerprints: &[AppSliceFingerprint],
    ) -> &[ScenarioDigest] {
        (self.apps, self.sites, self.slots) = (0, 0, 0);
        for f in fingerprints {
            self.apps = self.apps.max(f.app.0 + 1);
            self.sites = self.sites.max(f.primary.site.0 + 1);
            self.slots = self.slots.max(f.primary.slot + 1);
        }
        self.lanes.clear();
        self.lanes.resize(self.apps + (self.slots + 1) * self.sites, (LANE_A_SEED, LANE_B_SEED));
        for f in fingerprints {
            let scopes = [
                FailureScope::DataObject { app: f.app },
                FailureScope::DiskArray { array: f.primary },
                FailureScope::SiteDisaster { site: f.primary.site },
            ];
            for scope in &scopes {
                let i = self.accumulator(scope).expect("the lanes cover every fingerprint");
                let (a, b) = &mut self.lanes[i];
                *a = mix_a(*a, f.lanes.0);
                *b = mix_b(*b, f.lanes.1);
            }
        }
        self.digests.clear();
        self.digests.reserve(scenarios.len());
        for s in scenarios {
            let (a, b) =
                self.accumulator(&s.scope).map_or((LANE_A_SEED, LANE_B_SEED), |i| self.lanes[i]);
            self.digests.push(ScenarioDigest(a, b));
        }
        &self.digests
    }

    /// Where `scope`'s accumulator sits in `lanes`; `None` when no
    /// fingerprint falls in the scope.
    fn accumulator(&self, scope: &FailureScope) -> Option<usize> {
        let arrays = self.apps;
        let sites = arrays + self.sites * self.slots;
        match *scope {
            FailureScope::DataObject { app } => (app.0 < self.apps).then_some(app.0),
            FailureScope::DiskArray { array } => (array.site.0 < self.sites
                && array.slot < self.slots)
                .then(|| arrays + array.site.0 * self.slots + array.slot),
            FailureScope::SiteDisaster { site } => (site.0 < self.sites).then(|| sites + site.0),
        }
    }
}

/// The dependency-slice digest of every scenario in order — the digest
/// vector `Evaluator::annual_penalties_cached` consumes. A scenario's
/// digest covers, for each application its scope affects (in app order),
/// the full assignment plus the exact bandwidth state (total, allocated,
/// own share) of every device its placement touches. Two candidates with
/// equal digests for a scope produce bit-identical
/// [`dsd_recovery::ScenarioOutcome`]s for it under the same environment.
#[must_use]
pub fn scenario_digests(
    candidate: &Candidate,
    scenarios: &[FailureScenario],
) -> Vec<ScenarioDigest> {
    let mut builder = DigestBuilder::default();
    builder.build(scenarios, &app_fingerprints(candidate));
    builder.digests
}
