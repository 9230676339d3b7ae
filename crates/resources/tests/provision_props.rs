//! Stateful property tests: random allocate/remove sequences must keep
//! every `Provision` invariant, and the aggregate outlay must stay the
//! in-order sum of its itemization.

use std::sync::Arc;

use proptest::prelude::*;

use dsd_resources::{
    ArrayRef, DeviceRef, DeviceSpec, NetworkSpec, Provision, RouteId, Site, SiteId, TapeRef,
    Topology,
};
use dsd_units::{Dollars, Gigabytes, MegabytesPerSec};
use dsd_workload::AppId;

fn topology() -> Arc<Topology> {
    let mk = |i: usize| {
        Site::new(i, format!("S{i}"))
            .with_array_slot(DeviceSpec::xp1200())
            .with_array_slot(DeviceSpec::msa1500())
            .with_tape_library(DeviceSpec::tape_library_med())
            .with_compute(8)
    };
    Arc::new(Topology::fully_connected(vec![mk(0), mk(1), mk(2)], NetworkSpec::med()))
}

/// One randomized operation against the provision.
#[derive(Debug, Clone)]
enum Op {
    AllocArray { app: u8, site: u8, slot: u8, cap: f64, bw: f64 },
    AllocTape { app: u8, site: u8, cap: f64, bw: f64 },
    AllocNetwork { app: u8, a: u8, b: u8, bw: f64 },
    AllocCompute { app: u8, site: u8 },
    RemoveApp { app: u8 },
    AddArrayUnits { site: u8, slot: u8, extra: u32 },
    AddTapeDrives { site: u8, extra: u32 },
    AddLinks { route: u8, extra: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, 0u8..3, 0u8..2, 0.0..2000.0f64, 0.0..60.0f64)
            .prop_map(|(app, site, slot, cap, bw)| Op::AllocArray { app, site, slot, cap, bw }),
        (0u8..6, 0u8..3, 0.0..3000.0f64, 0.0..200.0f64)
            .prop_map(|(app, site, cap, bw)| Op::AllocTape { app, site, cap, bw }),
        (0u8..6, 0u8..3, 0u8..3, 0.0..80.0f64).prop_map(|(app, a, b, bw)| Op::AllocNetwork {
            app,
            a,
            b,
            bw
        }),
        (0u8..6, 0u8..3).prop_map(|(app, site)| Op::AllocCompute { app, site }),
        (0u8..6).prop_map(|app| Op::RemoveApp { app }),
    ]
}

/// [`op_strategy`] plus extra units on arrays, tape libraries and routes.
/// Extra links may land on a route no allocation uses and outlive every
/// application, so these sequences do not drain to an empty provision.
fn op_with_extras_strategy() -> impl Strategy<Value = Op> {
    let extras = prop_oneof![
        (0u8..3, 0u8..2, 1u32..40).prop_map(|(site, slot, extra)| Op::AddArrayUnits {
            site,
            slot,
            extra
        }),
        (0u8..3, 1u32..8).prop_map(|(site, extra)| Op::AddTapeDrives { site, extra }),
        (0u8..3, 1u32..8).prop_map(|(route, extra)| Op::AddLinks { route, extra }),
    ];
    // Two parts allocations and removals to one part extras.
    prop_oneof![op_strategy(), op_strategy(), extras]
}

/// Applies one operation; a refused operation leaves the provision as it
/// was, which the invariants check.
fn apply(p: &mut Provision, op: Op) {
    let array = |site: u8, slot: u8| ArrayRef { site: SiteId(site as usize), slot: slot as usize };
    let tape = |site: u8| TapeRef::first(SiteId(site as usize));
    match op {
        Op::AllocArray { app, site, slot, cap, bw } => {
            let _ = p.alloc_array(
                AppId(app as usize),
                array(site, slot),
                Gigabytes::new(cap),
                MegabytesPerSec::new(bw),
            );
        }
        Op::AllocTape { app, site, cap, bw } => {
            let _ = p.alloc_tape(
                AppId(app as usize),
                tape(site),
                Gigabytes::new(cap),
                MegabytesPerSec::new(bw),
            );
        }
        Op::AllocNetwork { app, a, b, bw } => {
            if a != b {
                let _ = p.alloc_network(
                    AppId(app as usize),
                    SiteId(a as usize),
                    SiteId(b as usize),
                    MegabytesPerSec::new(bw),
                );
            }
        }
        Op::AllocCompute { app, site } => {
            let _ = p.alloc_compute(AppId(app as usize), SiteId(site as usize), 1);
        }
        Op::RemoveApp { app } => p.remove_app(AppId(app as usize)),
        Op::AddArrayUnits { site, slot, extra } => {
            let _ = p.add_extra_array_units(array(site, slot), extra);
        }
        Op::AddTapeDrives { site, extra } => {
            let _ = p.add_extra_tape_drives(tape(site), extra);
        }
        Op::AddLinks { route, extra } => {
            let _ = p.add_extra_links(RouteId(route as usize), extra);
        }
    }
}

/// Every invariant that must hold after *any* operation sequence.
fn check_invariants(p: &Provision, topo: &Topology) {
    for site in topo.sites() {
        for slot in 0..site.array_slots.len() {
            let r = ArrayRef { site: site.id, slot };
            if let Some(state) = p.array(r) {
                let spec = &site.array_slots[slot];
                // Units are the minimum covering the allocations.
                let (min_units, _) = spec
                    .units_for(state.alloc_capacity, state.alloc_bandwidth)
                    .expect("existing allocations always fit");
                assert_eq!(state.capacity_units, min_units, "units minimal at {r}");
                assert!(state.capacity_units + state.extra_units <= spec.max_capacity_units);
                // An instantiated array carries a real allocation.
                assert!(
                    !(state.alloc_capacity.is_zero() && state.alloc_bandwidth.is_zero()),
                    "zombie instance at {r}"
                );
                // Spare bandwidth is total minus allocated, never negative.
                let d = DeviceRef::Array(r);
                let spare = p.spare_bandwidth(d).as_f64();
                assert!(spare >= -1e-9);
                assert!(
                    (p.device_bandwidth(d).as_f64() - p.device_alloc_bandwidth(d).as_f64() - spare)
                        .abs()
                        < 1e-9
                );
            }
        }
        for slot in 0..site.tape_slots.len() {
            let r = TapeRef { site: site.id, slot };
            if let Some(state) = p.tape(r) {
                let spec = &site.tape_slots[slot];
                let (carts, drives) = spec
                    .units_for(state.alloc_capacity, state.alloc_bandwidth)
                    .expect("existing allocations always fit");
                assert_eq!((state.cartridges, state.drives), (carts, drives));
            }
        }
        assert!(p.compute(site.id).used <= site.max_compute);
    }
    for rid in topo.route_ids() {
        let state = p.link(rid);
        let spec = &topo.route(rid).network;
        assert!(state.links + state.extra_links <= spec.max_links);
        assert!(spec.bandwidth(state.links) >= state.alloc_bandwidth);
    }
    assert!(p.purchase_outlay() >= Dollars::ZERO);
    assert!(p.annual_outlay() <= p.purchase_outlay());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_sequences_preserve_invariants(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let topo = topology();
        let mut p = Provision::new(topo.clone());
        for op in ops {
            apply(&mut p, op);
            check_invariants(&p, &topo);
        }

        // Draining every application returns the provision to empty.
        for app in 0..6u8 {
            p.remove_app(AppId(app as usize));
        }
        check_invariants(&p, &topo);
        prop_assert_eq!(p.purchase_outlay(), Dollars::ZERO);
        prop_assert_eq!(p.allocated_apps().count(), 0);
    }

    #[test]
    fn purchase_outlay_is_the_in_order_sum_of_the_items(
        ops in prop::collection::vec(op_with_extras_strategy(), 1..60)
    ) {
        let mut p = Provision::new(topology());
        for op in ops {
            apply(&mut p, op);
            let mut folded = Dollars::ZERO;
            for item in p.outlay_items() {
                folded += item.purchase;
            }
            prop_assert_eq!(
                p.purchase_outlay().as_f64().to_bits(),
                folded.as_f64().to_bits(),
                "{:?}",
                p.outlay_items()
            );
        }
    }

    #[test]
    fn outlay_is_monotone_in_allocations(
        caps in prop::collection::vec((0.0..1000.0f64, 0.0..30.0f64), 1..10)
    ) {
        let topo = topology();
        let mut p = Provision::new(topo);
        let mut last = Dollars::ZERO;
        for (i, (cap, bw)) in caps.into_iter().enumerate() {
            let r = ArrayRef { site: SiteId(0), slot: 0 };
            if p.alloc_array(AppId(i), r, Gigabytes::new(cap), MegabytesPerSec::new(bw)).is_ok() {
                let now = p.purchase_outlay();
                prop_assert!(now >= last, "outlay must not shrink on allocation");
                last = now;
            }
        }
    }
}
