//! Provisioned resource state of a candidate design.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dsd_units::{Dollars, Gigabytes, MegabytesPerSec};
use dsd_workload::AppId;

use crate::error::ResourceError;
use crate::spec::DeviceSpec;
use crate::topology::{RouteId, SiteId, Topology};

/// Reference to a disk array slot (and hence at most one array instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ArrayRef {
    /// Hosting site.
    pub site: SiteId,
    /// Array slot index within the site.
    pub slot: usize,
}

impl fmt::Display for ArrayRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "array@{}/{}", self.site, self.slot)
    }
}

/// Reference to a tape library slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TapeRef {
    /// Hosting site.
    pub site: SiteId,
    /// Tape slot index within the site.
    pub slot: usize,
}

impl TapeRef {
    /// The first (usually only) tape library of a site.
    #[must_use]
    pub fn first(site: SiteId) -> Self {
        TapeRef { site, slot: 0 }
    }
}

impl fmt::Display for TapeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tape@{}/{}", self.site, self.slot)
    }
}

/// Resource category of one purchase-outlay line item (paper §2.5 cost
/// model: device outlays plus facility costs of used sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OutlayKind {
    /// A provisioned disk array.
    DiskArray,
    /// A provisioned tape library (drives + cartridges).
    TapeLibrary,
    /// Spare compute servers at a site.
    SpareCompute,
    /// Facility cost of a site that hosts at least one device.
    Facility,
    /// Provisioned links on an inter-site route.
    NetworkLink,
}

impl OutlayKind {
    /// Human-readable category name for report tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            OutlayKind::DiskArray => "disk arrays",
            OutlayKind::TapeLibrary => "tape libraries",
            OutlayKind::SpareCompute => "spare compute",
            OutlayKind::Facility => "facilities",
            OutlayKind::NetworkLink => "network links",
        }
    }
}

impl fmt::Display for OutlayKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One line of the itemized purchase outlay: a single device, compute
/// pool, facility or route, with its unamortized purchase price.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutlayItem {
    /// Resource category the item belongs to.
    pub kind: OutlayKind,
    /// Human-readable identity, e.g. `array@site0/0 (Midrange array)`.
    pub label: String,
    /// Unamortized purchase price of this item.
    pub purchase: Dollars,
}

/// Identity of any bandwidth-bearing device, used by the recovery
/// scheduler to detect contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DeviceRef {
    /// A disk array.
    Array(ArrayRef),
    /// A tape library.
    Tape(TapeRef),
    /// An inter-site link bundle.
    Route(RouteId),
}

impl fmt::Display for DeviceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceRef::Array(a) => a.fmt(f),
            DeviceRef::Tape(t) => t.fmt(f),
            DeviceRef::Route(r) => r.fmt(f),
        }
    }
}

/// State of one instantiated disk array.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ArrayState {
    /// Disks required by current allocations (recomputed on each change).
    pub capacity_units: u32,
    /// Additional disks deliberately provisioned beyond the minimum (the
    /// configuration solver's resource-addition loop, paper §3.2.2).
    pub extra_units: u32,
    /// Capacity allocated by applications.
    pub alloc_capacity: Gigabytes,
    /// Bandwidth allocated by applications (normal operation).
    pub alloc_bandwidth: MegabytesPerSec,
}

/// State of one instantiated tape library.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TapeState {
    /// Cartridges required by current allocations.
    pub cartridges: u32,
    /// Drives required by current allocations.
    pub drives: u32,
    /// Extra drives beyond the minimum.
    pub extra_drives: u32,
    /// Capacity allocated.
    pub alloc_capacity: Gigabytes,
    /// Drive bandwidth allocated.
    pub alloc_bandwidth: MegabytesPerSec,
}

/// State of one route's provisioned link bundle.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LinkState {
    /// Links required by current allocations.
    pub links: u32,
    /// Extra links beyond the minimum.
    pub extra_links: u32,
    /// Bandwidth allocated.
    pub alloc_bandwidth: MegabytesPerSec,
}

/// Compute state of one site.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ComputeState {
    /// Servers running applications (one per primary allocation).
    pub used: u32,
    /// Failover-spare demand: number of applications that fail over to
    /// this site.
    pub spare_demand: u32,
    /// Spare servers actually provisioned: `ceil(ratio × spare_demand)`
    /// under the sparing ratio in force (1.0 = a dedicated spare per
    /// application, the paper's implicit model; lower ratios share
    /// spares N+M style).
    pub spare_allocated: u32,
}

impl ComputeState {
    /// Total servers charged for at this site.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.used + self.spare_allocated
    }
}

/// Per-application allocation ledger, kept so an application can be
/// removed wholesale during reconfiguration (paper §3.1.3).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct AppLedger {
    arrays: Vec<(ArrayRef, Gigabytes, MegabytesPerSec)>,
    tapes: Vec<(TapeRef, Gigabytes, MegabytesPerSec)>,
    routes: Vec<(RouteId, MegabytesPerSec)>,
    compute: Vec<(SiteId, u32)>,
    /// Failover-spare memberships: (site, sparing ratio in force when
    /// the spare was demanded).
    spares: Vec<(SiteId, f64)>,
}

/// An exact-state snapshot of the provision slice one trial move may
/// touch, taken by [`Provision::checkpoint`] and written back verbatim by
/// [`Provision::restore`].
///
/// Floating-point allocation arithmetic is not reversible (`(a + b) - b`
/// need not equal `a`), so undoing a trial move by subtracting what it
/// added would drift the provision away from the state a fresh
/// construction produces. Snapshotting the touched device states and the
/// application's ledger instead makes apply → undo restore the prior
/// state *bit for bit* — the foundation of the incremental solver loop's
/// oracle-equivalence guarantee.
#[derive(Debug, Clone)]
pub struct ProvisionCheckpoint {
    arrays: Vec<(usize, Option<ArrayState>)>,
    tapes: Vec<(usize, Option<TapeState>)>,
    links: Vec<(usize, LinkState)>,
    compute: Vec<(usize, ComputeState)>,
    ledger: Option<(AppId, Option<AppLedger>)>,
}

/// The devices and sites an application's allocations currently touch,
/// derived from its ledger — the exact set a removal will mutate.
#[derive(Debug, Clone, Default)]
pub struct AppFootprint {
    /// Arrays carrying allocations of the application.
    pub arrays: Vec<ArrayRef>,
    /// Tape libraries carrying allocations of the application.
    pub tapes: Vec<TapeRef>,
    /// Routes carrying allocations of the application.
    pub routes: Vec<RouteId>,
    /// Sites where the application holds compute servers or
    /// failover-spare memberships.
    pub sites: Vec<SiteId>,
}

/// The provisioned infrastructure of one candidate design: device
/// instances, link bundles, compute servers, and per-application
/// allocations, with validate-then-commit mutation and amortized annual
/// outlay accounting (paper §2.3, §2.5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Provision {
    #[serde(skip, default = "empty_topology")]
    topology: Arc<Topology>,
    arrays: Vec<Option<ArrayState>>,
    tapes: Vec<Option<TapeState>>,
    links: Vec<LinkState>,
    compute: Vec<ComputeState>,
    ledgers: BTreeMap<AppId, AppLedger>,
    tape_slot_base: Vec<usize>,
}

/// Spare servers needed for `demand` failover members at sparing
/// `ratio`: `ceil(ratio × demand)`, zero only when demand is zero.
fn spare_pool_size(demand: u32, ratio: f64) -> u32 {
    if demand == 0 {
        return 0;
    }
    (f64::from(demand) * ratio).ceil().max(1.0) as u32
}

fn empty_topology() -> Arc<Topology> {
    Arc::new(Topology::new(Vec::new(), Vec::new()))
}

// The spec lookups borrow the topology alone, so a mutator can hold a
// spec while it updates the device states beside it.
fn array_spec(topology: &Topology, r: ArrayRef) -> Result<&DeviceSpec, ResourceError> {
    topology
        .site(r.site)
        .array_slots
        .get(r.slot)
        .ok_or(ResourceError::NoSuchArraySlot { site: r.site, slot: r.slot })
}

fn tape_spec(topology: &Topology, r: TapeRef) -> Result<&DeviceSpec, ResourceError> {
    topology
        .site(r.site)
        .tape_slots
        .get(r.slot)
        .ok_or(ResourceError::NoSuchTapeSlot { site: r.site, slot: r.slot })
}

impl PartialEq for Provision {
    fn eq(&self, other: &Self) -> bool {
        self.arrays == other.arrays
            && self.tapes == other.tapes
            && self.links == other.links
            && self.compute == other.compute
            && self.ledgers == other.ledgers
    }
}

impl Provision {
    /// Creates an empty provision over `topology`.
    #[must_use]
    pub fn new(topology: Arc<Topology>) -> Self {
        let mut tape_slot_base = Vec::with_capacity(topology.site_count());
        let mut acc = 0;
        for s in topology.sites() {
            tape_slot_base.push(acc);
            acc += s.tape_slots.len();
        }
        Provision {
            arrays: vec![None; topology.total_array_slots()],
            tapes: vec![None; acc],
            links: vec![LinkState::default(); topology.route_count()],
            compute: vec![ComputeState::default(); topology.site_count()],
            ledgers: BTreeMap::new(),
            tape_slot_base,
            topology,
        }
    }

    /// The topology this provision is defined over.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Shared handle to the topology.
    #[must_use]
    pub fn topology_arc(&self) -> Arc<Topology> {
        Arc::clone(&self.topology)
    }

    fn array_index(&self, r: ArrayRef) -> usize {
        self.topology.array_slot_index(r.site, r.slot)
    }

    fn tape_index(&self, r: TapeRef) -> usize {
        self.tape_slot_base[r.site.0] + r.slot
    }

    /// The state of an array instance, if provisioned.
    #[must_use]
    pub fn array(&self, r: ArrayRef) -> Option<&ArrayState> {
        self.arrays.get(self.array_index(r)).and_then(Option::as_ref)
    }

    /// The state of a tape library instance, if provisioned.
    #[must_use]
    pub fn tape(&self, r: TapeRef) -> Option<&TapeState> {
        self.tapes.get(self.tape_index(r)).and_then(Option::as_ref)
    }

    /// The link state of a route.
    #[must_use]
    pub fn link(&self, r: RouteId) -> &LinkState {
        &self.links[r.0]
    }

    /// The compute state of a site.
    #[must_use]
    pub fn compute(&self, s: SiteId) -> &ComputeState {
        &self.compute[s.0]
    }

    /// Allocates `capacity`/`bandwidth` on the array in slot `r` for
    /// `app`, instantiating the array and growing its disk count as
    /// needed.
    ///
    /// # Errors
    ///
    /// [`ResourceError::NoSuchArraySlot`] if the slot does not exist;
    /// [`ResourceError::DeviceExhausted`] if the combined allocations
    /// would exceed the device's capacity or enclosure bandwidth. The
    /// provision is unchanged on error.
    pub fn alloc_array(
        &mut self,
        app: AppId,
        r: ArrayRef,
        capacity: Gigabytes,
        bandwidth: MegabytesPerSec,
    ) -> Result<(), ResourceError> {
        let spec = array_spec(&self.topology, r)?;
        let idx = self.array_index(r);
        let state = self.arrays[idx].clone().unwrap_or_default();
        let new_cap = state.alloc_capacity + capacity;
        let new_bw = state.alloc_bandwidth + bandwidth;
        let (units, _) = spec
            .units_for(new_cap, new_bw)
            .ok_or(ResourceError::DeviceExhausted { device: DeviceRef::Array(r) })?;
        self.arrays[idx] = Some(ArrayState {
            capacity_units: units,
            extra_units: state.extra_units,
            alloc_capacity: new_cap,
            alloc_bandwidth: new_bw,
        });
        self.ledgers.entry(app).or_default().arrays.push((r, capacity, bandwidth));
        Ok(())
    }

    /// Allocates cartridge capacity and drive bandwidth on the tape
    /// library in slot `r` for `app`.
    ///
    /// # Errors
    ///
    /// [`ResourceError::NoSuchTapeSlot`] or
    /// [`ResourceError::DeviceExhausted`]; unchanged on error.
    pub fn alloc_tape(
        &mut self,
        app: AppId,
        r: TapeRef,
        capacity: Gigabytes,
        bandwidth: MegabytesPerSec,
    ) -> Result<(), ResourceError> {
        let spec = tape_spec(&self.topology, r)?;
        let idx = self.tape_index(r);
        let state = self.tapes[idx].clone().unwrap_or_default();
        let new_cap = state.alloc_capacity + capacity;
        let new_bw = state.alloc_bandwidth + bandwidth;
        let (cartridges, drives) = spec
            .units_for(new_cap, new_bw)
            .ok_or(ResourceError::DeviceExhausted { device: DeviceRef::Tape(r) })?;
        self.tapes[idx] = Some(TapeState {
            cartridges,
            drives,
            extra_drives: state.extra_drives,
            alloc_capacity: new_cap,
            alloc_bandwidth: new_bw,
        });
        self.ledgers.entry(app).or_default().tapes.push((r, capacity, bandwidth));
        Ok(())
    }

    /// Allocates `bandwidth` on the route between `a` and `b` for `app`,
    /// growing the link bundle as needed.
    ///
    /// # Errors
    ///
    /// [`ResourceError::NoRoute`] if the sites are not connected;
    /// [`ResourceError::RouteExhausted`] if the route cannot carry the
    /// combined bandwidth. Unchanged on error.
    pub fn alloc_network(
        &mut self,
        app: AppId,
        a: SiteId,
        b: SiteId,
        bandwidth: MegabytesPerSec,
    ) -> Result<RouteId, ResourceError> {
        let route = self.topology.route_between(a, b).ok_or(ResourceError::NoRoute { a, b })?;
        let spec = &self.topology.route(route).network;
        let state = &self.links[route.0];
        let new_bw = state.alloc_bandwidth + bandwidth;
        let links = spec.links_for(new_bw).ok_or(ResourceError::RouteExhausted { route })?;
        let state = &mut self.links[route.0];
        state.links = links;
        state.alloc_bandwidth = new_bw;
        self.ledgers.entry(app).or_default().routes.push((route, bandwidth));
        Ok(route)
    }

    /// Reserves `servers` compute servers at `site` for `app`.
    ///
    /// # Errors
    ///
    /// [`ResourceError::ComputeExhausted`] if the site limit would be
    /// exceeded. Unchanged on error.
    pub fn alloc_compute(
        &mut self,
        app: AppId,
        site: SiteId,
        servers: u32,
    ) -> Result<(), ResourceError> {
        let max = self.topology.site(site).max_compute;
        let state = &self.compute[site.0];
        if state.total() + servers > max {
            return Err(ResourceError::ComputeExhausted { site });
        }
        self.compute[site.0].used += servers;
        self.ledgers.entry(app).or_default().compute.push((site, servers));
        Ok(())
    }

    /// Joins `app` to the failover-spare pool at `site`. The pool holds
    /// `ceil(ratio × demand)` servers (at least one while any demand
    /// exists); with `ratio = 1.0` every application gets a dedicated
    /// spare, lower ratios share spares N+M style.
    ///
    /// # Errors
    ///
    /// [`ResourceError::ComputeExhausted`] if growing the pool would
    /// exceed the site limit. Unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is outside `(0, 1]`.
    pub fn alloc_failover_spare(
        &mut self,
        app: AppId,
        site: SiteId,
        ratio: f64,
    ) -> Result<(), ResourceError> {
        assert!(ratio > 0.0 && ratio <= 1.0, "sparing ratio must be in (0,1]: {ratio}");
        let max = self.topology.site(site).max_compute;
        let state = &self.compute[site.0];
        let new_demand = state.spare_demand + 1;
        let new_alloc = spare_pool_size(new_demand, ratio);
        if state.used + new_alloc > max {
            // used + the *new* pool size; the old pool is being replaced.
            return Err(ResourceError::ComputeExhausted { site });
        }
        let state = &mut self.compute[site.0];
        state.spare_demand = new_demand;
        state.spare_allocated = new_alloc;
        self.ledgers.entry(app).or_default().spares.push((site, ratio));
        Ok(())
    }

    /// Removes every allocation made by `app` (reconfiguration, paper
    /// §3.1.3), shrinking device unit counts to the minimum required by
    /// the remaining allocations. Extra (deliberately over-provisioned)
    /// units are preserved on devices that remain instantiated; devices
    /// with no remaining allocation are de-instantiated entirely.
    pub fn remove_app(&mut self, app: AppId) {
        let Some(ledger) = self.ledgers.remove(&app) else {
            return;
        };
        for (r, cap, bw) in ledger.arrays {
            let spec = array_spec(&self.topology, r).expect("ledger refers to valid slot");
            let idx = self.array_index(r);
            let state = self.arrays[idx].as_mut().expect("allocated array exists");
            state.alloc_capacity -= cap;
            state.alloc_bandwidth -= bw;
            if state.alloc_capacity.is_zero() && state.alloc_bandwidth.is_zero() {
                self.arrays[idx] = None;
            } else {
                let (units, _) = spec
                    .units_for(state.alloc_capacity, state.alloc_bandwidth)
                    .expect("shrinking allocation always fits");
                state.capacity_units = units;
            }
        }
        for (r, cap, bw) in ledger.tapes {
            let spec = tape_spec(&self.topology, r).expect("ledger refers to valid slot");
            let idx = self.tape_index(r);
            let state = self.tapes[idx].as_mut().expect("allocated tape exists");
            state.alloc_capacity -= cap;
            state.alloc_bandwidth -= bw;
            if state.alloc_capacity.is_zero() && state.alloc_bandwidth.is_zero() {
                self.tapes[idx] = None;
            } else {
                let (cartridges, drives) = spec
                    .units_for(state.alloc_capacity, state.alloc_bandwidth)
                    .expect("shrinking allocation always fits");
                state.cartridges = cartridges;
                state.drives = drives;
            }
        }
        for (route, bw) in ledger.routes {
            let spec = &self.topology.route(route).network;
            let state = &mut self.links[route.0];
            state.alloc_bandwidth -= bw;
            state.links =
                spec.links_for(state.alloc_bandwidth).expect("shrinking allocation always fits");
            if state.links == 0 {
                state.extra_links = 0;
            }
        }
        for (site, servers) in ledger.compute {
            self.compute[site.0].used = self.compute[site.0].used.saturating_sub(servers);
        }
        for (site, ratio) in ledger.spares {
            let state = &mut self.compute[site.0];
            state.spare_demand = state.spare_demand.saturating_sub(1);
            state.spare_allocated = spare_pool_size(state.spare_demand, ratio);
        }
    }

    /// Applications with at least one allocation.
    pub fn allocated_apps(&self) -> impl Iterator<Item = AppId> + '_ {
        self.ledgers.keys().copied()
    }

    /// Adds `extra` disks to an instantiated array (the configuration
    /// solver's resource-addition loop).
    ///
    /// # Errors
    ///
    /// [`ResourceError::ExtraUnitsExceedMaximum`] if the array is not
    /// instantiated or the total would exceed the spec maximum.
    pub fn add_extra_array_units(&mut self, r: ArrayRef, extra: u32) -> Result<(), ResourceError> {
        let spec = array_spec(&self.topology, r)?;
        let idx = self.array_index(r);
        let device = DeviceRef::Array(r);
        let Some(state) = self.arrays[idx].as_mut() else {
            return Err(ResourceError::ExtraUnitsExceedMaximum { device, instantiated: false });
        };
        if state.capacity_units + state.extra_units + extra > spec.max_capacity_units {
            return Err(ResourceError::ExtraUnitsExceedMaximum { device, instantiated: true });
        }
        state.extra_units += extra;
        Ok(())
    }

    /// Adds `extra` drives to an instantiated tape library.
    ///
    /// # Errors
    ///
    /// [`ResourceError::ExtraUnitsExceedMaximum`] as for arrays.
    pub fn add_extra_tape_drives(&mut self, r: TapeRef, extra: u32) -> Result<(), ResourceError> {
        let spec = tape_spec(&self.topology, r)?;
        let idx = self.tape_index(r);
        let device = DeviceRef::Tape(r);
        let Some(state) = self.tapes[idx].as_mut() else {
            return Err(ResourceError::ExtraUnitsExceedMaximum { device, instantiated: false });
        };
        if state.drives + state.extra_drives + extra > spec.max_bandwidth_units {
            return Err(ResourceError::ExtraUnitsExceedMaximum { device, instantiated: true });
        }
        state.extra_drives += extra;
        Ok(())
    }

    /// Adds `extra` links to a route that already carries traffic.
    ///
    /// # Errors
    ///
    /// [`ResourceError::ExtraUnitsExceedMaximum`] if the total would
    /// exceed the route's link maximum.
    pub fn add_extra_links(&mut self, r: RouteId, extra: u32) -> Result<(), ResourceError> {
        let max_links = self.topology.route(r).network.max_links;
        let state = &mut self.links[r.0];
        if state.links + state.extra_links + extra > max_links {
            return Err(ResourceError::ExtraUnitsExceedMaximum {
                device: DeviceRef::Route(r),
                instantiated: true,
            });
        }
        state.extra_links += extra;
        Ok(())
    }

    /// Total effective bandwidth of a device (including extra units),
    /// zero if not instantiated.
    #[must_use]
    pub fn device_bandwidth(&self, d: DeviceRef) -> MegabytesPerSec {
        match d {
            DeviceRef::Array(r) => match (self.array(r), array_spec(&self.topology, r)) {
                (Some(s), Ok(spec)) => {
                    spec.effective_bandwidth(s.capacity_units + s.extra_units, 0)
                }
                _ => MegabytesPerSec::ZERO,
            },
            DeviceRef::Tape(r) => match (self.tape(r), tape_spec(&self.topology, r)) {
                (Some(s), Ok(spec)) => {
                    spec.effective_bandwidth(s.cartridges, s.drives + s.extra_drives)
                }
                _ => MegabytesPerSec::ZERO,
            },
            DeviceRef::Route(r) => {
                let state = &self.links[r.0];
                self.topology.route(r).network.bandwidth(state.links + state.extra_links)
            }
        }
    }

    /// Bandwidth currently allocated on a device by normal operation.
    #[must_use]
    pub fn device_alloc_bandwidth(&self, d: DeviceRef) -> MegabytesPerSec {
        match d {
            DeviceRef::Array(r) => {
                self.array(r).map_or(MegabytesPerSec::ZERO, |s| s.alloc_bandwidth)
            }
            DeviceRef::Tape(r) => self.tape(r).map_or(MegabytesPerSec::ZERO, |s| s.alloc_bandwidth),
            DeviceRef::Route(r) => self.links[r.0].alloc_bandwidth,
        }
    }

    /// Bandwidth allocated on device `d` by application `app`
    /// specifically. During recovery a failed application stops running,
    /// so its own share is available to the restore stream in addition to
    /// the device's spare bandwidth.
    #[must_use]
    pub fn app_alloc_bandwidth_on(&self, app: AppId, d: DeviceRef) -> MegabytesPerSec {
        let Some(ledger) = self.ledgers.get(&app) else {
            return MegabytesPerSec::ZERO;
        };
        match d {
            DeviceRef::Array(r) => {
                ledger.arrays.iter().filter(|(a, _, _)| *a == r).map(|&(_, _, bw)| bw).sum()
            }
            DeviceRef::Tape(r) => {
                ledger.tapes.iter().filter(|(t, _, _)| *t == r).map(|&(_, _, bw)| bw).sum()
            }
            DeviceRef::Route(r) => {
                ledger.routes.iter().filter(|(route, _)| *route == r).map(|&(_, bw)| bw).sum()
            }
        }
    }

    /// Spare (unallocated) bandwidth on a device — what recovery
    /// operations can use while unaffected workloads keep running (paper
    /// §3.2.2: "the remaining bandwidth and capacity are made available
    /// for recovery operations").
    #[must_use]
    pub fn spare_bandwidth(&self, d: DeviceRef) -> MegabytesPerSec {
        self.device_bandwidth(d) - self.device_alloc_bandwidth(d)
    }

    /// Bandwidth utilization of a device in `[0, 1]`; 1.0 when the device
    /// is not instantiated (so selection biases avoid it only as much as a
    /// full device).
    #[must_use]
    pub fn utilization(&self, d: DeviceRef) -> f64 {
        let total = self.device_bandwidth(d);
        if total.is_zero() {
            return 1.0;
        }
        (self.device_alloc_bandwidth(d) / total).min(1.0)
    }

    /// True if the site hosts any instantiated device, link endpoint or
    /// compute server.
    #[must_use]
    pub fn site_in_use(&self, site: SiteId) -> bool {
        let s = self.topology.site(site);
        let arrays_used =
            (0..s.array_slots.len()).any(|slot| self.array(ArrayRef { site, slot }).is_some());
        let tapes_used =
            (0..s.tape_slots.len()).any(|slot| self.tape(TapeRef { site, slot }).is_some());
        let links_used = self.topology.route_ids().any(|rid| {
            let st = &self.links[rid.0];
            (st.links + st.extra_links) > 0 && self.topology.route(rid).touches(site)
        });
        arrays_used || tapes_used || links_used || self.compute[site.0].total() > 0
    }

    /// All currently instantiated arrays.
    #[must_use]
    pub fn provisioned_arrays(&self) -> Vec<ArrayRef> {
        let mut out = Vec::new();
        for site in self.topology.sites() {
            for slot in 0..site.array_slots.len() {
                let r = ArrayRef { site: site.id, slot };
                if self.array(r).is_some() {
                    out.push(r);
                }
            }
        }
        out
    }

    /// All currently instantiated tape libraries.
    #[must_use]
    pub fn provisioned_tapes(&self) -> Vec<TapeRef> {
        let mut out = Vec::new();
        for site in self.topology.sites() {
            for slot in 0..site.tape_slots.len() {
                let r = TapeRef { site: site.id, slot };
                if self.tape(r).is_some() {
                    out.push(r);
                }
            }
        }
        out
    }

    /// All routes carrying at least one provisioned link.
    #[must_use]
    pub fn active_routes(&self) -> Vec<RouteId> {
        self.topology
            .route_ids()
            .filter(|r| {
                let s = &self.links[r.0];
                s.links + s.extra_links > 0
            })
            .collect()
    }

    /// Visits every purchase-outlay line in the one fixed order (per
    /// site: arrays, tape libraries, compute, facility; then routes),
    /// handing over its kind, its purchase price and a way to build its
    /// label. Both [`Provision::purchase_outlay`] and
    /// [`Provision::outlay_items`] are folds of this walk, so the price
    /// of a line has one formula and the aggregate never builds a label.
    fn walk_outlay(&self, mut visit: impl FnMut(OutlayKind, Dollars, &dyn Fn() -> String)) {
        for site in self.topology.sites() {
            for (slot, spec) in site.array_slots.iter().enumerate() {
                let r = ArrayRef { site: site.id, slot };
                if let Some(s) = self.array(r) {
                    let purchase = spec.purchase_cost(s.capacity_units + s.extra_units, 0);
                    visit(OutlayKind::DiskArray, purchase, &|| format!("{r} ({})", spec.name));
                }
            }
            for (slot, spec) in site.tape_slots.iter().enumerate() {
                let r = TapeRef { site: site.id, slot };
                if let Some(s) = self.tape(r) {
                    let purchase = spec.purchase_cost(s.cartridges, s.drives + s.extra_drives);
                    visit(OutlayKind::TapeLibrary, purchase, &|| format!("{r} ({})", spec.name));
                }
            }
            let servers = self.compute[site.id.0].total();
            visit(
                OutlayKind::SpareCompute,
                site.compute.cost_per_server * f64::from(servers),
                &|| format!("compute@{} ({servers} servers)", site.id),
            );
            if self.site_in_use(site.id) {
                visit(OutlayKind::Facility, site.facility_cost, &|| {
                    format!("facility@{} ({})", site.id, site.name)
                });
            }
        }
        for rid in self.topology.route_ids() {
            let st = &self.links[rid.0];
            let links = st.links + st.extra_links;
            visit(
                OutlayKind::NetworkLink,
                self.topology.route(rid).network.cost_per_link * f64::from(links),
                &|| format!("{rid} ({links} links)"),
            );
        }
    }

    /// Itemized purchase outlay, one line per device, compute pool,
    /// facility and route, in the exact order [`Provision::purchase_outlay`]
    /// adds them up. Folding the items' `purchase` fields left-to-right
    /// reproduces the aggregate outlay bit-for-bit: both are folds of the
    /// same walk.
    #[must_use]
    pub fn outlay_items(&self) -> Vec<OutlayItem> {
        let mut items = Vec::new();
        self.walk_outlay(|kind, purchase, label| {
            items.push(OutlayItem { kind, label: label(), purchase });
        });
        items
    }

    /// Unamortized purchase price of the whole provisioned infrastructure,
    /// including facility costs of used sites: the in-order sum of the
    /// [`Provision::outlay_items`] purchases, without building their
    /// labels.
    #[must_use]
    pub fn purchase_outlay(&self) -> Dollars {
        let mut total = Dollars::ZERO;
        self.walk_outlay(|_, purchase, _| total += purchase);
        total
    }

    /// Annualized outlay: purchase price amortized over the three-year
    /// device lifetime (paper §2.5).
    #[must_use]
    pub fn annual_outlay(&self) -> Dollars {
        self.purchase_outlay().amortized_annual()
    }

    fn site_exists(&self, s: SiteId) -> bool {
        s.0 < self.compute.len()
    }

    fn valid_array(&self, r: ArrayRef) -> bool {
        self.site_exists(r.site) && r.slot < self.topology.site(r.site).array_slots.len()
    }

    fn valid_tape(&self, r: TapeRef) -> bool {
        self.site_exists(r.site) && r.slot < self.topology.site(r.site).tape_slots.len()
    }

    /// The ledger-derived footprint of `app`: every device and site its
    /// allocations touch. Empty when the application holds nothing.
    #[must_use]
    pub fn app_footprint(&self, app: AppId) -> AppFootprint {
        let mut fp = AppFootprint::default();
        if let Some(l) = self.ledgers.get(&app) {
            fp.arrays.extend(l.arrays.iter().map(|&(r, _, _)| r));
            fp.tapes.extend(l.tapes.iter().map(|&(r, _, _)| r));
            fp.routes.extend(l.routes.iter().map(|&(r, _)| r));
            fp.sites.extend(l.compute.iter().map(|&(s, _)| s));
            fp.sites.extend(l.spares.iter().map(|&(s, _)| s));
        }
        fp
    }

    /// Snapshots the exact state of the given devices and sites, plus
    /// `app`'s allocation ledger when one is named. References that do
    /// not exist in the topology are skipped — an allocation against
    /// them fails before mutating anything, so there is no state to
    /// protect. Duplicate references are harmless: every snapshot is
    /// taken at the same instant, so re-restoring one is idempotent.
    #[must_use]
    pub fn checkpoint(
        &self,
        app: Option<AppId>,
        arrays: &[ArrayRef],
        tapes: &[TapeRef],
        routes: &[RouteId],
        sites: &[SiteId],
    ) -> ProvisionCheckpoint {
        ProvisionCheckpoint {
            arrays: arrays
                .iter()
                .filter(|&&r| self.valid_array(r))
                .map(|&r| {
                    let i = self.array_index(r);
                    (i, self.arrays[i].clone())
                })
                .collect(),
            tapes: tapes
                .iter()
                .filter(|&&r| self.valid_tape(r))
                .map(|&r| {
                    let i = self.tape_index(r);
                    (i, self.tapes[i].clone())
                })
                .collect(),
            links: routes
                .iter()
                .filter(|r| r.0 < self.links.len())
                .map(|&r| (r.0, self.links[r.0].clone()))
                .collect(),
            compute: sites
                .iter()
                .filter(|&&s| self.site_exists(s))
                .map(|&s| (s.0, self.compute[s.0].clone()))
                .collect(),
            ledger: app.map(|a| (a, self.ledgers.get(&a).cloned())),
        }
    }

    /// Writes a checkpoint back, restoring every covered device state,
    /// compute state, and ledger entry to its snapshotted bits. State
    /// outside the checkpoint is untouched — the caller must checkpoint
    /// everything the undone mutation could have reached.
    pub fn restore(&mut self, checkpoint: ProvisionCheckpoint) {
        for (i, s) in checkpoint.arrays {
            self.arrays[i] = s;
        }
        for (i, s) in checkpoint.tapes {
            self.tapes[i] = s;
        }
        for (i, s) in checkpoint.links {
            self.links[i] = s;
        }
        for (i, s) in checkpoint.compute {
            self.compute[i] = s;
        }
        if let Some((app, ledger)) = checkpoint.ledger {
            match ledger {
                Some(l) => {
                    self.ledgers.insert(app, l);
                }
                None => {
                    self.ledgers.remove(&app);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DeviceSpec, NetworkSpec};
    use crate::topology::Site;

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

    const A0: ArrayRef = ArrayRef { site: SiteId(0), slot: 0 };
    const APP: AppId = AppId(0);

    #[test]
    fn alloc_array_instantiates_and_sizes() {
        let mut p = Provision::new(topology());
        assert!(p.array(A0).is_none());
        p.alloc_array(APP, A0, Gigabytes::new(1300.0), MegabytesPerSec::new(50.0)).unwrap();
        let s = p.array(A0).unwrap();
        assert_eq!(s.capacity_units, 10, "1300 GB / 143 GB per disk");
        assert_eq!(s.alloc_bandwidth.as_f64(), 50.0);
        assert_eq!(p.device_bandwidth(DeviceRef::Array(A0)).as_f64(), 250.0);
        assert_eq!(p.spare_bandwidth(DeviceRef::Array(A0)).as_f64(), 200.0);
    }

    #[test]
    fn alloc_array_accumulates_and_errors_leave_state() {
        let mut p = Provision::new(topology());
        let msa = ArrayRef { site: SiteId(0), slot: 1 };
        p.alloc_array(APP, msa, Gigabytes::new(500.0), MegabytesPerSec::new(50.0)).unwrap();
        // MSA enclosure is 128 MB/s; asking 100 more must fail.
        let err = p
            .alloc_array(AppId(1), msa, Gigabytes::new(1.0), MegabytesPerSec::new(100.0))
            .unwrap_err();
        assert_eq!(err, ResourceError::DeviceExhausted { device: DeviceRef::Array(msa) });
        let s = p.array(msa).unwrap();
        assert_eq!(s.alloc_capacity.as_f64(), 500.0, "failed alloc must not mutate");
        assert!(!p.ledgers.contains_key(&AppId(1)));
    }

    #[test]
    fn remove_app_releases_everything() {
        let mut p = Provision::new(topology());
        p.alloc_array(APP, A0, Gigabytes::new(1300.0), MegabytesPerSec::new(50.0)).unwrap();
        p.alloc_tape(
            APP,
            TapeRef::first(SiteId(0)),
            Gigabytes::new(2600.0),
            MegabytesPerSec::new(31.0),
        )
        .unwrap();
        p.alloc_network(APP, SiteId(0), SiteId(1), MegabytesPerSec::new(5.0)).unwrap();
        p.alloc_compute(APP, SiteId(0), 1).unwrap();
        assert!(p.site_in_use(SiteId(0)));

        p.remove_app(APP);
        assert!(p.array(A0).is_none());
        assert!(p.tape(TapeRef::first(SiteId(0))).is_none());
        assert_eq!(p.link(RouteId(0)).links, 0);
        assert_eq!(p.compute(SiteId(0)).used, 0);
        assert!(!p.site_in_use(SiteId(0)));
        assert_eq!(p.purchase_outlay(), Dollars::ZERO);
    }

    #[test]
    fn remove_app_shrinks_shared_devices() {
        let mut p = Provision::new(topology());
        p.alloc_array(AppId(0), A0, Gigabytes::new(1300.0), MegabytesPerSec::new(50.0)).unwrap();
        p.alloc_array(AppId(1), A0, Gigabytes::new(4300.0), MegabytesPerSec::new(20.0)).unwrap();
        assert_eq!(p.array(A0).unwrap().capacity_units, 40, "ceil(5600/143)");
        p.remove_app(AppId(1));
        let s = p.array(A0).unwrap();
        assert_eq!(s.capacity_units, 10);
        assert_eq!(s.alloc_bandwidth.as_f64(), 50.0);
    }

    #[test]
    fn remove_unknown_app_is_noop() {
        let mut p = Provision::new(topology());
        p.remove_app(AppId(99));
        assert_eq!(p.purchase_outlay(), Dollars::ZERO);
    }

    #[test]
    fn network_allocation_sizes_links() {
        let mut p = Provision::new(topology());
        let route = p.alloc_network(APP, SiteId(0), SiteId(1), MegabytesPerSec::new(50.0)).unwrap();
        assert_eq!(p.link(route).links, 3, "ceil(50/20)");
        assert_eq!(p.device_bandwidth(DeviceRef::Route(route)).as_f64(), 60.0);
        assert_eq!(p.spare_bandwidth(DeviceRef::Route(route)).as_f64(), 10.0);
    }

    #[test]
    fn compute_limit_enforced() {
        let mut p = Provision::new(topology());
        p.alloc_compute(APP, SiteId(0), 8).unwrap();
        let err = p.alloc_compute(AppId(1), SiteId(0), 1).unwrap_err();
        assert!(matches!(err, ResourceError::ComputeExhausted { .. }));
        assert_eq!(p.compute(SiteId(0)).used, 8);
    }

    #[test]
    fn extras_grow_bandwidth_and_cost() {
        let mut p = Provision::new(topology());
        p.alloc_array(APP, A0, Gigabytes::new(143.0), MegabytesPerSec::new(25.0)).unwrap();
        let before = p.purchase_outlay();
        p.add_extra_array_units(A0, 4).unwrap();
        assert_eq!(p.device_bandwidth(DeviceRef::Array(A0)).as_f64(), 125.0);
        let after = p.purchase_outlay();
        assert_eq!((after - before).as_f64(), 4.0 * 8723.0);
    }

    #[test]
    fn extras_rejected_without_instance_or_beyond_max() {
        let mut p = Provision::new(topology());
        let array = DeviceRef::Array(A0);
        assert_eq!(
            p.add_extra_array_units(A0, 1),
            Err(ResourceError::ExtraUnitsExceedMaximum { device: array, instantiated: false })
        );
        p.alloc_array(APP, A0, Gigabytes::new(143.0), MegabytesPerSec::ZERO).unwrap();
        assert_eq!(
            p.add_extra_array_units(A0, 2000),
            Err(ResourceError::ExtraUnitsExceedMaximum { device: array, instantiated: true }),
            "beyond max disks"
        );
        p.alloc_tape(
            APP,
            TapeRef::first(SiteId(0)),
            Gigabytes::new(60.0),
            MegabytesPerSec::new(120.0),
        )
        .unwrap();
        assert!(p.add_extra_tape_drives(TapeRef::first(SiteId(0)), 24).is_err());
        p.alloc_network(APP, SiteId(0), SiteId(1), MegabytesPerSec::new(20.0)).unwrap();
        assert!(p.add_extra_links(RouteId(0), 32).is_err());
        assert!(p.add_extra_links(RouteId(0), 2).is_ok());
        assert_eq!(p.device_bandwidth(DeviceRef::Route(RouteId(0))).as_f64(), 60.0);
    }

    #[test]
    fn outlay_matches_hand_computation() {
        let mut p = Provision::new(topology());
        p.alloc_array(APP, A0, Gigabytes::new(1300.0), MegabytesPerSec::new(50.0)).unwrap();
        p.alloc_compute(APP, SiteId(0), 1).unwrap();
        let expected = 375_000.0 + 10.0 * 8_723.0 + 125_000.0 + 1_000_000.0;
        assert_eq!(p.purchase_outlay().as_f64(), expected);
        assert!((p.annual_outlay().as_f64() - expected / 3.0).abs() < 1e-9);
    }

    #[test]
    fn outlay_items_fold_to_the_aggregate_bit_for_bit() {
        let mut p = Provision::new(topology());
        p.alloc_array(APP, A0, Gigabytes::new(1300.0), MegabytesPerSec::new(50.0)).unwrap();
        p.alloc_tape(
            APP,
            TapeRef::first(SiteId(1)),
            Gigabytes::new(500.0),
            MegabytesPerSec::new(10.0),
        )
        .unwrap();
        p.alloc_compute(APP, SiteId(0), 1).unwrap();
        p.alloc_network(APP, SiteId(0), SiteId(1), MegabytesPerSec::new(20.0)).unwrap();
        let items = p.outlay_items();
        let mut folded = Dollars::ZERO;
        for item in &items {
            folded += item.purchase;
        }
        assert_eq!(folded.as_f64().to_bits(), p.purchase_outlay().as_f64().to_bits());
        let kinds: Vec<OutlayKind> = items.iter().map(|i| i.kind).collect();
        assert!(kinds.contains(&OutlayKind::DiskArray));
        assert!(kinds.contains(&OutlayKind::TapeLibrary));
        assert!(kinds.contains(&OutlayKind::SpareCompute));
        assert!(kinds.contains(&OutlayKind::Facility));
        assert!(kinds.contains(&OutlayKind::NetworkLink));
    }

    #[test]
    fn facility_charged_once_per_used_site() {
        let mut p = Provision::new(topology());
        p.alloc_network(APP, SiteId(0), SiteId(1), MegabytesPerSec::new(20.0)).unwrap();
        // One link touches both sites: both facilities charged.
        let expected = 500_000.0 + 2.0 * 1_000_000.0;
        assert_eq!(p.purchase_outlay().as_f64(), expected);
    }

    #[test]
    fn utilization_bounds() {
        let mut p = Provision::new(topology());
        assert_eq!(p.utilization(DeviceRef::Array(A0)), 1.0, "uninstantiated counts as full");
        p.alloc_array(APP, A0, Gigabytes::new(143.0), MegabytesPerSec::new(12.5)).unwrap();
        assert!((p.utilization(DeviceRef::Array(A0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn missing_slots_error() {
        let mut p = Provision::new(topology());
        let bad = ArrayRef { site: SiteId(0), slot: 9 };
        assert!(matches!(
            p.alloc_array(APP, bad, Gigabytes::new(1.0), MegabytesPerSec::ZERO),
            Err(ResourceError::NoSuchArraySlot { .. })
        ));
        let bad_tape = TapeRef { site: SiteId(1), slot: 3 };
        assert!(matches!(
            p.alloc_tape(APP, bad_tape, Gigabytes::new(1.0), MegabytesPerSec::ZERO),
            Err(ResourceError::NoSuchTapeSlot { .. })
        ));
    }

    #[test]
    fn spare_pool_shares_servers_at_fractional_ratios() {
        let mut p = Provision::new(topology());
        // Four failover members at ratio 0.5 -> 1,1,2,2 spares.
        for (i, expected) in [(0u32, 1u32), (1, 1), (2, 2), (3, 2)] {
            p.alloc_failover_spare(AppId(i as usize), SiteId(1), 0.5).unwrap();
            assert_eq!(p.compute(SiteId(1)).spare_allocated, expected);
        }
        assert_eq!(p.compute(SiteId(1)).spare_demand, 4);
        assert_eq!(p.compute(SiteId(1)).total(), 2);
        // Removing members shrinks the pool back down.
        p.remove_app(AppId(3));
        p.remove_app(AppId(2));
        assert_eq!(p.compute(SiteId(1)).spare_allocated, 1);
        p.remove_app(AppId(1));
        p.remove_app(AppId(0));
        assert_eq!(p.compute(SiteId(1)).spare_allocated, 0);
        assert_eq!(p.purchase_outlay(), Dollars::ZERO);
    }

    #[test]
    fn dedicated_ratio_matches_one_spare_per_app() {
        let mut p = Provision::new(topology());
        for i in 0..3 {
            p.alloc_failover_spare(AppId(i), SiteId(0), 1.0).unwrap();
        }
        assert_eq!(p.compute(SiteId(0)).spare_allocated, 3);
        // Spares count against the site limit together with primaries.
        p.alloc_compute(AppId(9), SiteId(0), 5).unwrap();
        let err = p.alloc_failover_spare(AppId(10), SiteId(0), 1.0).unwrap_err();
        assert!(matches!(err, ResourceError::ComputeExhausted { .. }));
        assert_eq!(p.compute(SiteId(0)).spare_demand, 3, "failed alloc must not mutate");
    }

    #[test]
    fn spares_are_charged_in_outlay() {
        let mut p = Provision::new(topology());
        p.alloc_failover_spare(AppId(0), SiteId(0), 1.0).unwrap();
        // 1 spare server + the site facility.
        assert_eq!(p.purchase_outlay().as_f64(), 125_000.0 + 1_000_000.0);
    }

    #[test]
    fn per_app_bandwidth_on_device() {
        let mut p = Provision::new(topology());
        p.alloc_array(AppId(0), A0, Gigabytes::new(143.0), MegabytesPerSec::new(10.0)).unwrap();
        p.alloc_array(AppId(1), A0, Gigabytes::new(143.0), MegabytesPerSec::new(30.0)).unwrap();
        let d = DeviceRef::Array(A0);
        assert_eq!(p.app_alloc_bandwidth_on(AppId(0), d).as_f64(), 10.0);
        assert_eq!(p.app_alloc_bandwidth_on(AppId(1), d).as_f64(), 30.0);
        assert_eq!(p.app_alloc_bandwidth_on(AppId(2), d).as_f64(), 0.0);
        let other = DeviceRef::Tape(TapeRef::first(SiteId(0)));
        assert_eq!(p.app_alloc_bandwidth_on(AppId(0), other).as_f64(), 0.0);
    }

    #[test]
    fn allocated_apps_lists_ledger() {
        let mut p = Provision::new(topology());
        p.alloc_compute(AppId(3), SiteId(0), 1).unwrap();
        p.alloc_compute(AppId(1), SiteId(0), 1).unwrap();
        let apps: Vec<AppId> = p.allocated_apps().collect();
        assert_eq!(apps, vec![AppId(1), AppId(3)], "sorted by id");
    }

    fn populated() -> Provision {
        let mut p = Provision::new(topology());
        p.alloc_array(APP, A0, Gigabytes::new(1300.0), MegabytesPerSec::new(50.0)).unwrap();
        p.alloc_tape(
            APP,
            TapeRef::first(SiteId(0)),
            Gigabytes::new(2600.0),
            MegabytesPerSec::new(31.0),
        )
        .unwrap();
        p.alloc_network(APP, SiteId(0), SiteId(1), MegabytesPerSec::new(5.0)).unwrap();
        p.alloc_compute(APP, SiteId(0), 1).unwrap();
        p.alloc_failover_spare(APP, SiteId(1), 1.0).unwrap();
        p
    }

    #[test]
    fn app_footprint_lists_every_touched_resource() {
        let p = populated();
        let fp = p.app_footprint(APP);
        assert_eq!(fp.arrays, vec![A0]);
        assert_eq!(fp.tapes, vec![TapeRef::first(SiteId(0))]);
        assert_eq!(fp.routes.len(), 1);
        assert_eq!(fp.sites, vec![SiteId(0), SiteId(1)]);
        assert!(p.app_footprint(AppId(7)).arrays.is_empty());
    }

    #[test]
    fn checkpoint_restore_roundtrips_exact_state() {
        let mut p = populated();
        let before = p.clone();
        let fp = p.app_footprint(APP);
        let cp = p.checkpoint(Some(APP), &fp.arrays, &fp.tapes, &fp.routes, &fp.sites);
        p.remove_app(APP);
        assert_ne!(p, before);
        p.restore(cp);
        assert_eq!(p, before, "restore must reproduce the snapshotted bits");
        // Ledger restored too: removing again releases everything.
        p.remove_app(APP);
        assert_eq!(p.purchase_outlay(), Dollars::ZERO);
    }

    #[test]
    fn checkpoint_restores_extras_and_absent_ledger() {
        let mut p = populated();
        p.add_extra_array_units(A0, 2).unwrap();
        let before = p.clone();
        // Checkpoint under an app with no ledger: restore must remove a
        // ledger created in between.
        let cp = p.checkpoint(Some(AppId(5)), &[A0], &[], &[], &[SiteId(0)]);
        p.alloc_array(AppId(5), A0, Gigabytes::new(143.0), MegabytesPerSec::new(1.0)).unwrap();
        p.alloc_compute(AppId(5), SiteId(0), 1).unwrap();
        p.restore(cp);
        assert_eq!(p, before);
        assert!(!p.ledgers.contains_key(&AppId(5)));
        assert_eq!(p.array(A0).unwrap().extra_units, 2, "extras survive the roundtrip");
    }

    #[test]
    fn checkpoint_skips_out_of_topology_references() {
        let p = populated();
        let cp = p.checkpoint(
            None,
            &[ArrayRef { site: SiteId(9), slot: 0 }, ArrayRef { site: SiteId(0), slot: 9 }],
            &[TapeRef { site: SiteId(9), slot: 0 }],
            &[RouteId(99)],
            &[SiteId(9)],
        );
        let mut q = p.clone();
        q.restore(cp); // must not panic or mutate
        assert_eq!(q, p);
    }
}
