//! Fleet-scale environment generation.
//!
//! The paper's case study tops out at sixteen applications on four
//! sites; the ROADMAP north-star is fleets of thousands. This module
//! generates large seeded instances — parameterized app count,
//! site-graph shape, catalog subset, and workload spread — that serve
//! as the benchmark substrate for the portfolio solver alongside
//! [`crate::environments::four_sites`].
//!
//! Determinism contract: [`fleet`] is a pure function of its
//! [`FleetParams`]. The same params (including `seed`) produce a
//! byte-identical [`Environment`] — all randomness flows through one
//! `ChaCha8Rng` seeded from `params.seed`, and nothing reads ambient
//! state. This is what makes fleet benchmarks reproducible across
//! machines and lets the portfolio invariant tests pin exact instances.
//!
//! ```
//! use dsd_scenarios::fleet::{fleet, FleetParams, SiteGraph};
//!
//! let params = FleetParams::new(32).with_sites(6, SiteGraph::Ring);
//! let env = fleet(&params);
//! assert_eq!(env.workloads.len(), 32);
//! assert_eq!(env.topology.site_count(), 6);
//! assert_eq!(env.topology.route_count(), 6); // a 6-cycle
//! ```

use std::sync::Arc;

use dsd_core::Environment;
use dsd_failure::{FailureModel, FailureRates};
use dsd_protection::TechniqueCatalog;
use dsd_resources::{DeviceSpec, NetworkSpec, Route, Site, SiteId, Topology};
use dsd_workload::{GeneratorConfig, WorkloadGenerator, WorkloadSet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// How the sites of a fleet are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteGraph {
    /// Each site links to its two neighbors in a cycle (`n` routes for
    /// `n ≥ 3` sites; degenerate cases fall back to a single link or
    /// none).
    Ring,
    /// Every pair of sites is linked (`n·(n-1)/2` routes) — the shape of
    /// the paper's four-site setting.
    Mesh,
    /// Site 0 is the hub; every other site links only to it (`n-1`
    /// routes). Models a primary datacenter with satellite sites.
    HubSpoke,
}

impl SiteGraph {
    /// Parses the CLI spelling (`ring` / `mesh` / `hub-spoke`).
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "ring" => Some(SiteGraph::Ring),
            "mesh" => Some(SiteGraph::Mesh),
            "hub-spoke" | "hub" => Some(SiteGraph::HubSpoke),
            _ => None,
        }
    }

    /// The CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SiteGraph::Ring => "ring",
            SiteGraph::Mesh => "mesh",
            SiteGraph::HubSpoke => "hub-spoke",
        }
    }
}

/// Which protection catalog a fleet instance searches over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CatalogChoice {
    /// The paper's Table 2 (nine techniques).
    Table2,
    /// Table 2 plus incremental-backup variants.
    Extended,
    /// The first `n` techniques of Table 2 (clamped to `[1, 9]`). Any
    /// prefix is feasible for every application class because Table 2
    /// leads with a gold technique, which satisfies every class.
    Prefix(usize),
}

impl CatalogChoice {
    fn build(self) -> TechniqueCatalog {
        match self {
            CatalogChoice::Table2 => TechniqueCatalog::table2(),
            CatalogChoice::Extended => TechniqueCatalog::extended(),
            CatalogChoice::Prefix(n) => {
                let full = TechniqueCatalog::table2();
                let keep = n.clamp(1, full.len());
                TechniqueCatalog::new(full.iter().take(keep).cloned().collect())
            }
        }
    }
}

/// Parameters of a fleet-scale instance. Construct with
/// [`FleetParams::new`] and refine builder-style; every field also stays
/// public so benchmarks can sweep them directly.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetParams {
    /// Number of applications (cycled through the Table 1 mix, then
    /// perturbed when `spread > 0`).
    pub apps: usize,
    /// Number of sites.
    pub sites: usize,
    /// Site interconnect shape.
    pub graph: SiteGraph,
    /// Protection catalog to search over.
    pub catalog: CatalogChoice,
    /// Multiplicative workload perturbation half-width: each app's sizes,
    /// rates, and penalties are scaled by independent factors drawn from
    /// `[1/(1+spread), 1+spread]`. `0.0` reproduces the exact scaled
    /// paper mix.
    pub spread: f64,
    /// RNG seed; the sole source of randomness.
    pub seed: u64,
}

impl FleetParams {
    /// A fleet of `apps` applications with the default shape: four-sites
    /// mesh (the paper's scalability setting), full Table 2 catalog, 50%
    /// workload spread, seed 2006.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is zero.
    #[must_use]
    pub fn new(apps: usize) -> Self {
        assert!(apps > 0, "a fleet needs at least one application");
        FleetParams {
            apps,
            sites: 4,
            graph: SiteGraph::Mesh,
            catalog: CatalogChoice::Table2,
            spread: 0.5,
            seed: 2006,
        }
    }

    /// Overrides the site count and interconnect shape.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is zero.
    #[must_use]
    pub fn with_sites(mut self, sites: usize, graph: SiteGraph) -> Self {
        assert!(sites > 0, "a fleet needs at least one site");
        self.sites = sites;
        self.graph = graph;
        self
    }

    /// Overrides the protection catalog.
    #[must_use]
    pub fn with_catalog(mut self, catalog: CatalogChoice) -> Self {
        self.catalog = catalog;
        self
    }

    /// Overrides the workload perturbation half-width (≥ 0).
    ///
    /// # Panics
    ///
    /// Panics if `spread` is negative or not finite.
    #[must_use]
    pub fn with_spread(mut self, spread: f64) -> Self {
        assert!(spread.is_finite() && spread >= 0.0, "spread must be finite and non-negative");
        self.spread = spread;
        self
    }

    /// Overrides the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Route list for `sites` sites wired as `graph`.
fn routes_for(sites: usize, graph: SiteGraph, network: &NetworkSpec) -> Vec<Route> {
    let link = |a: usize, b: usize| Route { a: SiteId(a), b: SiteId(b), network: network.clone() };
    match graph {
        SiteGraph::Mesh => {
            let mut routes = Vec::new();
            for i in 0..sites {
                for j in i + 1..sites {
                    routes.push(link(i, j));
                }
            }
            routes
        }
        SiteGraph::Ring => match sites {
            0 | 1 => Vec::new(),
            // A 2-cycle would duplicate the single possible route.
            2 => vec![link(0, 1)],
            n => (0..n).map(|i| link(i, (i + 1) % n)).collect(),
        },
        SiteGraph::HubSpoke => (1..sites).map(|i| link(0, i)).collect(),
    }
}

/// One paper slot set (and one 32-link route budget) per four apps
/// expected at a site — the density of the §4.3 case study, which the
/// fleet keeps as it grows instead of pinning every site to the
/// case-study's fixed hardware.
fn slot_sets(per_site: usize) -> usize {
    per_site.div_ceil(4).max(1)
}

/// Builds one fleet site: the paper's slot set (one XP1200, one
/// MSA1500, one tape library) repeated once per [`slot_sets`], so
/// device capacity keeps the §4.3 density as the fleet grows.
fn fleet_site(id: usize, per_site: usize, compute: u32) -> Site {
    let slot_sets = slot_sets(per_site);
    let mut site = Site::new(id, format!("F{}", id + 1)).with_compute(compute);
    for _ in 0..slot_sets {
        site = site
            .with_array_slot(DeviceSpec::xp1200())
            .with_array_slot(DeviceSpec::msa1500())
            .with_tape_library(DeviceSpec::tape_library_high());
    }
    site
}

/// Generates a fleet-scale environment from `params`. Byte-deterministic:
/// equal params yield an identical [`Environment`].
///
/// Sites repeat the paper's per-site slot set (one XP1200 slot, one
/// MSA1500 slot, one tape library per four apps hosted) with compute
/// sized to twice the mean apps per site, matching the 2× headroom of
/// the §4.3 case study; routes likewise get one 32-link budget per
/// four apps per site, so inter-site mirroring stays provisionable at
/// fleet scale. Failure rates are the case-study rates, as in
/// [`crate::environments::four_sites`].
#[must_use]
pub fn fleet(params: &FleetParams) -> Environment {
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
    let workloads = if params.spread > 0.0 {
        let scale = 1.0 + params.spread;
        let config = GeneratorConfig {
            scale_min: 1.0 / scale,
            scale_max: scale,
            penalty_scale_min: 1.0 / scale,
            penalty_scale_max: scale,
        };
        WorkloadGenerator::new(config).generate(params.apps, &mut rng)
    } else {
        WorkloadSet::scaled_paper_mix(params.apps)
    };

    // 2× headroom over the mean apps-per-site, so failover placements
    // have somewhere to go even on unbalanced fleets.
    let per_site = params.apps.div_ceil(params.sites);
    let compute = u32::try_from((2 * per_site).max(2)).unwrap_or(u32::MAX);
    let sites = (0..params.sites).map(|i| fleet_site(i, per_site, compute)).collect();
    let mut network = NetworkSpec::high();
    network.max_links =
        network.max_links.saturating_mul(u32::try_from(slot_sets(per_site)).unwrap_or(u32::MAX));
    let routes = routes_for(params.sites, params.graph, &network);

    Environment::new(
        workloads,
        Arc::new(Topology::new(sites, routes)),
        params.catalog.build(),
        FailureModel::new(FailureRates::case_study()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_shape_matches_four_sites_mesh() {
        let env = fleet(&FleetParams::new(16));
        assert_eq!(env.workloads.len(), 16);
        assert_eq!(env.topology.site_count(), 4);
        assert_eq!(env.topology.route_count(), 6);
    }

    #[test]
    fn graph_shapes_have_the_expected_route_counts() {
        let n = 8;
        let count = |graph| {
            let params = FleetParams::new(4).with_sites(n, graph);
            fleet(&params).topology.route_count()
        };
        assert_eq!(count(SiteGraph::Mesh), n * (n - 1) / 2);
        assert_eq!(count(SiteGraph::Ring), n);
        assert_eq!(count(SiteGraph::HubSpoke), n - 1);
    }

    #[test]
    fn tiny_rings_do_not_duplicate_routes() {
        for sites in 1..=3 {
            let params = FleetParams::new(2).with_sites(sites, SiteGraph::Ring);
            let env = fleet(&params);
            let expected = match sites {
                1 => 0,
                2 => 1,
                _ => sites,
            };
            assert_eq!(env.topology.route_count(), expected, "{sites} sites");
        }
    }

    #[test]
    fn hub_spoke_routes_all_touch_the_hub() {
        let params = FleetParams::new(4).with_sites(5, SiteGraph::HubSpoke);
        let env = fleet(&params);
        assert!(env.topology.routes().iter().all(|r| r.touches(SiteId(0))));
    }

    #[test]
    fn zero_spread_reproduces_the_paper_mix() {
        let params = FleetParams::new(12).with_spread(0.0);
        let env = fleet(&params);
        let expected = WorkloadSet::scaled_paper_mix(12);
        assert_eq!(env.workloads, expected);
    }

    #[test]
    fn catalog_prefix_is_clamped_and_feasible() {
        let full = TechniqueCatalog::table2().len();
        let count = |choice| {
            let params = FleetParams::new(2).with_catalog(choice);
            fleet(&params).catalog.len()
        };
        assert_eq!(count(CatalogChoice::Prefix(3)), 3);
        assert_eq!(count(CatalogChoice::Prefix(0)), 1, "clamped up to one technique");
        assert_eq!(count(CatalogChoice::Prefix(99)), full, "clamped down to the full table");
        assert!(count(CatalogChoice::Extended) > full);
    }

    #[test]
    fn sites_get_twice_the_mean_apps_of_compute() {
        let params = FleetParams::new(64).with_sites(4, SiteGraph::Mesh);
        let env = fleet(&params);
        assert!(env.topology.sites().iter().all(|s| s.max_compute == 32));
    }

    #[test]
    fn device_slots_scale_with_fleet_density() {
        // 16 apps on 4 sites = the paper density: one slot set per site.
        let small = fleet(&FleetParams::new(16));
        assert!(small.topology.sites().iter().all(|s| s.array_slots.len() == 2));
        assert!(small.topology.routes().iter().all(|r| r.network.max_links == 32));
        // 256 apps on 4 sites = 64 per site → 16 slot sets, so large
        // fleets stay provisionable instead of going infeasible.
        let large = fleet(&FleetParams::new(256));
        for site in large.topology.sites() {
            assert_eq!(site.array_slots.len(), 32);
            assert_eq!(site.tape_slots.len(), 16);
        }
        assert!(large.topology.routes().iter().all(|r| r.network.max_links == 512));
    }

    #[test]
    #[ignore = "multi-minute at fleet scale; tests/solver_properties.rs solves small fleets in tier-1"]
    fn large_fleets_are_solvable() {
        use dsd_core::{Budget, DesignSolver};
        use rand::SeedableRng;

        let env = fleet(&FleetParams::new(256));
        let mut rng = ChaCha8Rng::seed_from_u64(2006);
        let outcome = DesignSolver::new(&env).solve(Budget::iterations(1), &mut rng);
        assert!(outcome.best.is_some(), "fleet(256) must admit a feasible design");
    }

    #[test]
    fn seeds_change_the_workloads() {
        let a = fleet(&FleetParams::new(8).with_seed(1));
        let b = fleet(&FleetParams::new(8).with_seed(2));
        assert_ne!(a.workloads, b.workloads);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The determinism contract: equal params → byte-identical
        /// environments, across every graph shape and catalog choice.
        #[test]
        fn fleet_is_byte_deterministic(
            apps in 1usize..40,
            sites in 1usize..8,
            graph_pick in 0u8..3,
            prefix in 0usize..12,
            spread in 0u32..200,
            seed in any::<u64>(),
        ) {
            let graph = match graph_pick {
                0 => SiteGraph::Ring,
                1 => SiteGraph::Mesh,
                _ => SiteGraph::HubSpoke,
            };
            let catalog = if prefix == 0 { CatalogChoice::Table2 } else { CatalogChoice::Prefix(prefix) };
            let params = FleetParams::new(apps)
                .with_sites(sites, graph)
                .with_catalog(catalog)
                .with_spread(f64::from(spread) / 100.0)
                .with_seed(seed);
            let a = fleet(&params);
            let b = fleet(&params);
            prop_assert_eq!(a.workloads, b.workloads);
            prop_assert_eq!(a.topology.as_ref(), b.topology.as_ref());
            prop_assert_eq!(a.catalog.len(), b.catalog.len());
        }
    }
}
