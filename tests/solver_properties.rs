//! Property-based integration tests over randomized environments.

use dsd::core::{
    Budget, CandidateKey, ConfigurationSolver, DesignSolver, Environment, EvalCache, Portfolio,
    Reconfigurator, Thoroughness, DEFAULT_CACHE_CAPACITY,
};
use dsd::failure::{FailureModel, FailureRates};
use dsd::protection::TechniqueCatalog;
use dsd::resources::{DeviceSpec, NetworkSpec, Site, Topology};
use dsd::workload::{GeneratorConfig, WorkloadGenerator};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A randomized but structurally sane environment: 2–3 paper-style sites,
/// 2–6 perturbed workloads.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn solver_output_is_always_complete_and_class_respecting(
        seed in 0u64..1000,
        sites in 2usize..4,
        apps in 2usize..6,
    ) {
        let env = random_env(seed, sites, apps);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
        let outcome = DesignSolver::new(&env).solve(Budget::iterations(8), &mut rng);
        if let Some(best) = outcome.best {
            prop_assert!(best.is_complete(&env));
            prop_assert!(best.cost().total().is_finite());
            prop_assert!(best.validate(&env).is_ok(), "{:?}", best.validate(&env));
            for (app, a) in best.assignments() {
                let class = env.workloads[*app].class_with(&env.thresholds);
                prop_assert!(env.catalog[a.technique].category.satisfies(class));
                if let Some(m) = a.placement.mirror {
                    prop_assert_ne!(m.site, a.placement.primary.site);
                }
            }
        }
    }

    #[test]
    fn cost_decomposition_is_consistent(
        seed in 0u64..1000,
    ) {
        let env = random_env(seed, 2, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        if let Some(best) = DesignSolver::new(&env).solve(Budget::iterations(6), &mut rng).best {
            let cost = best.cost();
            let sum = cost.outlay + cost.penalties.outage + cost.penalties.loss;
            prop_assert!((cost.total().as_f64() - sum.as_f64()).abs() < 1e-6);
            // Per-app penalties sum to the global penalty figures.
            let per_app_outage: f64 =
                cost.penalties.per_app.values().map(|(o, _)| o.as_f64()).sum();
            let per_app_loss: f64 =
                cost.penalties.per_app.values().map(|(_, l)| l.as_f64()).sum();
            prop_assert!((per_app_outage - cost.penalties.outage.as_f64()).abs()
                <= 1e-6 * (1.0 + per_app_outage));
            prop_assert!((per_app_loss - cost.penalties.loss.as_f64()).abs()
                <= 1e-6 * (1.0 + per_app_loss));
        }
    }

    #[test]
    fn outlay_reflects_provisioned_hardware(
        seed in 0u64..1000,
    ) {
        let env = random_env(seed, 2, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 7);
        if let Some(best) = DesignSolver::new(&env).solve(Budget::iterations(5), &mut rng).best {
            let outlay = best.cost().outlay;
            let hardware = best.provision().annual_outlay();
            let media = best.vault_media_annual(&env);
            prop_assert!(
                (outlay.as_f64() - (hardware + media).as_f64()).abs() < 1e-6
            );
            prop_assert!(!best.provision().provisioned_arrays().is_empty());
        }
    }
}

#[test]
fn solver_never_panics_on_hostile_tiny_environment() {
    // One site, no tape, one compute: almost everything is infeasible.
    let sites = vec![Site::new(0, "tiny").with_array_slot(DeviceSpec::msa1500()).with_compute(1)];
    let env = Environment::new(
        dsd::workload::WorkloadSet::scaled_paper_mix(2),
        Arc::new(Topology::fully_connected(sites, NetworkSpec::med())),
        TechniqueCatalog::table2(),
        FailureModel::new(FailureRates::case_study()),
    );
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let outcome = DesignSolver::new(&env).solve(Budget::iterations(5), &mut rng);
    assert!(outcome.best.is_none(), "gold app cannot be protected without a second site");
}

// ---------------------------------------------------------------------
// Solver-equivalence suite: the evaluation cache must be a pure
// memoization — attaching it may never change what the search finds.
// ---------------------------------------------------------------------

/// Runs the same seeded search with and without a cache and demands
/// bit-identical outcomes: same best design, same full cost breakdown,
/// same node count (the cache replays completions, it must not skip or
/// reorder them).
fn assert_cache_transparent(env: &Environment, seed: u64, budget: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let plain = DesignSolver::new(env).solve(Budget::iterations(budget), &mut rng);

    let cache = EvalCache::new(DEFAULT_CACHE_CAPACITY);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let memo =
        DesignSolver::new(env).with_cache(&cache).solve(Budget::iterations(budget), &mut rng);

    assert_eq!(plain.stats.nodes_evaluated, memo.stats.nodes_evaluated, "seed {seed}");
    match (&plain.best, &memo.best) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.assignments(), b.assignments(), "seed {seed}: designs diverge");
            assert_eq!(a.cost(), b.cost(), "seed {seed}: costs diverge");
        }
        (a, b) => {
            panic!("seed {seed}: feasibility diverges ({:?} vs {:?})", a.is_some(), b.is_some())
        }
    }
}

#[test]
fn cached_search_is_bit_identical_across_seeds_and_environments() {
    for seed in [1u64, 7, 42, 2006] {
        let env = random_env(seed.wrapping_mul(31), 2, 3);
        assert_cache_transparent(&env, seed, 10);
    }
    // A bigger fixed environment, matching the paper's peer-sites study.
    let env = dsd::scenarios::environments::peer_sites_with(4);
    for seed in [3u64, 11] {
        assert_cache_transparent(&env, seed, 12);
    }
}

#[test]
fn tiny_cache_still_gives_identical_results() {
    // Constant eviction pressure must only cost hits, never correctness.
    let env = dsd::scenarios::environments::peer_sites_with(3);
    let cache = EvalCache::new(4);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let memo = DesignSolver::new(&env).with_cache(&cache).solve(Budget::iterations(8), &mut rng);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let plain = DesignSolver::new(&env).solve(Budget::iterations(8), &mut rng);
    assert_eq!(
        plain.best.as_ref().map(|c| c.cost().clone()),
        memo.best.as_ref().map(|c| c.cost().clone())
    );
    assert!(cache.stats().evictions > 0, "capacity 4 must churn");
    assert!(cache.len() <= 4, "LRU may never exceed capacity");
}

#[test]
fn parallel_shared_cache_beats_or_matches_every_single_seed() {
    let env = dsd::scenarios::environments::peer_sites_with(4);
    let budget = Budget::iterations(8);
    let seeds = [1u64, 2, 3];
    let cache = EvalCache::new(DEFAULT_CACHE_CAPACITY);
    let par = Portfolio::new(&env)
        .with_workers(seeds.len())
        .with_cooperation(false)
        .solve_with_cache(budget, &seeds, &cache)
        .outcome;
    let par_cost = par.best.as_ref().expect("peer sites are solvable").cost().total();
    for seed in seeds {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        if let Some(best) = DesignSolver::new(&env).solve(budget, &mut rng).best {
            assert!(
                par_cost <= best.cost().total(),
                "shared-cache fan-out lost to seed {seed}: {par_cost} > {}",
                best.cost().total()
            );
        }
    }
    let stats = par.cache.expect("fan-out reports its cache");
    // Every completion goes through the cache (greedy best-fit probes are
    // raw evaluations, so lookups are a subset of all nodes evaluated).
    assert!(stats.hits + stats.misses <= par.stats.nodes_evaluated);
    assert_eq!(stats.hits + stats.misses, par.stats.cache_hits + par.stats.cache_misses);
    assert!(stats.hits > 0, "three seeds on one environment must share completions");
}

// ---------------------------------------------------------------------
// Cache-key properties: the key must separate exactly the states the
// completion function distinguishes.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Recomputing the key from an untouched candidate is stable, and a
    /// successful `Reconfigurator` move that lands on a different
    /// assignment always changes the key.
    #[test]
    fn reconfigurator_moves_change_the_cache_key(seed in 0u64..500) {
        let env = random_env(seed, 2, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x51DE);
        let Some(best) = DesignSolver::new(&env).solve(Budget::iterations(4), &mut rng).best
        else {
            return Ok(());
        };
        let limits = ConfigurationSolver::new(&env).addition_limits();
        let before_key = CandidateKey::of(&best, Thoroughness::Quick, limits);
        prop_assert_eq!(
            before_key,
            CandidateKey::of(&best, Thoroughness::Quick, limits),
            "key must be a pure function of candidate state"
        );

        let mut moved = best.clone();
        let mut reconfigurator = Reconfigurator::default();
        for _ in 0..4 {
            if !reconfigurator.reconfigure(&env, &mut moved, &mut rng) {
                continue;
            }
            let after_key = CandidateKey::of(&moved, Thoroughness::Quick, limits);
            if moved.assignments() == best.assignments() {
                // The move may legitimately re-pick the original layout;
                // then the key must not spuriously differ on assignments.
                // (Provision extras are part of the key, and removal
                // resets them, so only compare when those match too.)
                continue;
            }
            prop_assert_ne!(
                before_key, after_key,
                "distinct assignments must produce distinct keys"
            );
        }
    }
}
