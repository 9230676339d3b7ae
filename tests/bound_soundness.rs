//! Soundness of the relaxation lower bound over randomized environments:
//! `lower_bound(env)` must stay at or below the cost of the exhaustive
//! optimum, of every heuristic's output, and of every delta-evaluated
//! incumbent along a random move sequence. A violation anywhere means
//! the bound (or the evaluator) is wrong, so these are the certifying
//! tests behind the `dsd explain` Certificate section.

use dsd::core::bounds::CERTIFICATE_TOLERANCE;
use dsd::core::heuristics::{SimulatedAnnealing, TabuSearch};
use dsd::core::{
    exhaustive_optimal_with, lower_bound, Budget, DesignSolver, Environment, ExhaustiveOptions,
    Move, PlacementOptions, ScenarioOutcomeCache,
};
use dsd::failure::{FailureModel, FailureRates};
use dsd::protection::TechniqueCatalog;
use dsd::resources::{DeviceSpec, NetworkSpec, Site, Topology};
use dsd::scenarios::environments::{four_sites, peer_sites};
use dsd::scenarios::fleet::{fleet, CatalogChoice, FleetParams, SiteGraph};
use dsd::workload::{GeneratorConfig, WorkloadGenerator};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A randomized but structurally sane environment: paper-style sites,
/// perturbed paper workloads (same shape as `solver_properties.rs`).
fn random_env(seed: u64, sites: usize, apps: usize) -> Environment {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sites: Vec<Site> = (0..sites)
        .map(|i| {
            Site::new(i, format!("S{i}"))
                .with_array_slot(DeviceSpec::xp1200())
                .with_array_slot(DeviceSpec::msa1500())
                .with_tape_library(DeviceSpec::tape_library_high())
                .with_compute(8)
        })
        .collect();
    let generator = WorkloadGenerator::new(GeneratorConfig {
        scale_min: 0.5,
        scale_max: 1.5,
        penalty_scale_min: 0.5,
        penalty_scale_max: 2.0,
    });
    Environment::new(
        generator.generate(apps, &mut rng),
        Arc::new(Topology::fully_connected(sites, NetworkSpec::high())),
        TechniqueCatalog::table2(),
        FailureModel::new(FailureRates::case_study()),
    )
}

/// `cost` may not undercut the bound beyond float tolerance.
fn respects(bound: f64, cost: f64) -> bool {
    cost >= bound * (1.0 - CERTIFICATE_TOLERANCE)
}

/// A small seeded fleet: up to sixteen apps on one to four sites, any
/// site graph, and the Table 2, extended or a prefix catalog. Repeated
/// slot sets and identical sites make placement shapes merge.
fn small_fleet() -> impl Strategy<Value = FleetParams> {
    let graph =
        prop_oneof![Just(SiteGraph::Ring), Just(SiteGraph::Mesh), Just(SiteGraph::HubSpoke)];
    let catalog = prop_oneof![
        Just(CatalogChoice::Table2),
        Just(CatalogChoice::Extended),
        (1usize..=9).prop_map(CatalogChoice::Prefix),
    ];
    (1usize..=16, 1usize..=4, graph, catalog, 0u64..1000).prop_map(
        |(apps, sites, graph, catalog, seed)| {
            FleetParams::new(apps).with_sites(sites, graph).with_catalog(catalog).with_seed(seed)
        },
    )
}

/// The bound prices one placement per shape; at fleet scale it must
/// still equal, bit for bit, the bound that priced every placement.
#[test]
fn fleet_scale_bounds_keep_their_every_placement_bits() {
    let pinned = [
        ("peer_sites", peer_sites(), 0x4197_e261_41fd_7107_u64), // $100.178M
        ("four_sites(16)", four_sites(16), 0x41a7_cb88_4ca8_1bb3), // $199.607M
        ("fleet(64)", fleet(&FleetParams::new(64)), 0x41c8_893c_a843_3b92), // $823.294M
    ];
    for (name, env, bits) in pinned {
        let total = lower_bound(&env).total.as_f64();
        assert_eq!(total.to_bits(), bits, "{name}: bound {total}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The bound floors the default-config exhaustive optimum (when the
    /// space is enumerable) and every heuristic at its default settings
    /// — including with resource additions enabled, which the bound's
    /// relaxations must already account for.
    #[test]
    fn bound_floors_exhaustive_and_every_heuristic(seed in 0u64..500) {
        let env = random_env(seed, 2, 3);
        let bound = lower_bound(&env).total.as_f64();
        prop_assert!(bound >= 0.0);

        let options = ExhaustiveOptions { limit: 200_000, config_grid: false };
        if let Ok(result) = exhaustive_optimal_with(&env, options) {
            if let Some(best) = result.best {
                let exact = best.cost().total().as_f64();
                prop_assert!(respects(bound, exact), "bound {bound} > exhaustive {exact}");
            }
        }

        let budget = Budget::iterations(6);
        let solvers: [&str; 3] = ["greedy", "annealing", "tabu"];
        for (i, name) in solvers.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (0xC0DE + i as u64));
            let outcome = match i {
                0 => DesignSolver::new(&env).solve(budget, &mut rng),
                1 => SimulatedAnnealing::new(&env).solve(budget, &mut rng),
                _ => TabuSearch::new(&env).solve(budget, &mut rng),
            };
            if let Some(best) = outcome.best {
                let cost = best.cost().total().as_f64();
                prop_assert!(respects(bound, cost), "bound {bound} > {name} {cost}");
            }
        }
    }

    /// Every delta-evaluated incumbent along a random reassignment walk
    /// respects the bound — the incremental evaluator may never report a
    /// cost the full evaluator (and hence the bound) would not stand by.
    #[test]
    fn bound_holds_for_every_delta_evaluated_incumbent(seed in 0u64..500) {
        let env = random_env(seed, 2, 3);
        let bound = lower_bound(&env).total.as_f64();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB0DD);
        let Some(mut incumbent) =
            DesignSolver::new(&env).solve(Budget::iterations(4), &mut rng).best
        else {
            return Ok(());
        };
        let mut cache = ScenarioOutcomeCache::new();
        let mut best = incumbent.evaluate_with(&env, &mut cache).total();
        prop_assert!(respects(bound, best.as_f64()));

        let apps: Vec<_> = env.workloads.iter().map(|a| a.id).collect();
        for _ in 0..12 {
            let app = apps[rng.gen_range(0..apps.len())];
            let class = env.workloads[app].class_with(&env.thresholds);
            let eligible: Vec<_> = env.catalog.eligible_for(class).collect();
            let (technique, t) = eligible[rng.gen_range(0..eligible.len())];
            let placements = PlacementOptions::enumerate(&env, technique);
            if placements.is_empty() {
                continue;
            }
            let placement = placements[rng.gen_range(0..placements.len())];
            let configs = t.config_space();
            let config = configs[rng.gen_range(0..configs.len())];
            let mv = Move::Reassign { app, technique, config, placement };
            let Ok((cost, undo)) = incumbent.evaluate_delta(&env, &mv, &mut cache) else {
                continue;
            };
            prop_assert!(
                respects(bound, cost.total().as_f64()),
                "bound {bound} > delta incumbent {}",
                cost.total()
            );
            if cost.total() <= best {
                best = cost.total();
            } else {
                incumbent.undo_move(undo);
            }
        }
        // The walk's final accepted incumbent re-evaluates from scratch to
        // the same certified-above-bound cost.
        let fresh = incumbent.evaluate(&env).total();
        prop_assert!(respects(bound, fresh.as_f64()));
    }

    /// The bound floors a short design solve on small fleets, or no
    /// design exists.
    #[test]
    fn bound_floors_a_design_on_small_fleets(params in small_fleet()) {
        let env = fleet(&params);
        let bound = lower_bound(&env).total.as_f64();
        let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
        if let Some(best) = DesignSolver::new(&env).solve(Budget::iterations(2), &mut rng).best {
            let cost = best.cost().total().as_f64();
            prop_assert!(respects(bound, cost), "{params:?}: bound {bound} > design {cost}");
        }
    }
}
