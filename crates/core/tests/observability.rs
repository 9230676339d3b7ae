//! Integration tests for the solver's `dsd-obs` instrumentation: the
//! trace and metrics must describe the search faithfully, and recording
//! must never change what the search computes.

use dsd_core::{Budget, DesignSolver, Environment, EvalCache, Portfolio, SolveStats};
use dsd_failure::{FailureModel, FailureRates};
use dsd_obs as obs;
use dsd_protection::TechniqueCatalog;
use dsd_resources::{DeviceSpec, NetworkSpec, Site, Topology};
use dsd_workload::WorkloadSet;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn env(apps: usize) -> Environment {
    let mk = |i: usize| {
        Site::new(i, format!("P{i}"))
            .with_array_slot(DeviceSpec::xp1200())
            .with_array_slot(DeviceSpec::msa1500())
            .with_tape_library(DeviceSpec::tape_library_high())
            .with_compute(8)
    };
    Environment::new(
        WorkloadSet::scaled_paper_mix(apps),
        Arc::new(Topology::fully_connected(vec![mk(0), mk(1)], NetworkSpec::high())),
        TechniqueCatalog::table2(),
        FailureModel::new(FailureRates::case_study()),
    )
}

/// One small site without tape: central banking's gold class needs a
/// mirror to another site, so no strategy finds a feasible design.
fn one_site() -> Environment {
    let site = vec![Site::new(0, "solo").with_array_slot(DeviceSpec::msa1500()).with_compute(1)];
    Environment::new(
        WorkloadSet::scaled_paper_mix(1),
        Arc::new(Topology::fully_connected(site, NetworkSpec::med())),
        TechniqueCatalog::table2(),
        FailureModel::new(FailureRates::case_study()),
    )
}

/// Recording must not perturb the search: same seed, same best design,
/// with no recorder, a disabled (no-op) recorder, and an active one
/// (instrumentation consumes no randomness and mutates no solver state).
#[test]
fn instrumented_run_is_bit_identical_to_uninstrumented() {
    let e = env(4);
    let solve = || {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        DesignSolver::new(&e).solve(Budget::iterations(15), &mut rng)
    };
    let bare = solve();
    for recorder in [obs::Recorder::disabled(), obs::Recorder::new()] {
        let traced = {
            let _g = recorder.install();
            solve()
        };
        assert_eq!(
            bare.best.as_ref().map(|b| b.cost().total().as_f64().to_bits()),
            traced.best.as_ref().map(|b| b.cost().total().as_f64().to_bits()),
        );
        assert_eq!(bare.stats.nodes_evaluated, traced.stats.nodes_evaluated);
        assert_eq!(bare.stats.greedy_builds, traced.stats.greedy_builds);
        assert_eq!(bare.stats.refit_rounds, traced.stats.refit_rounds);
    }
}

mod profiling {
    use super::*;
    use dsd_core::{ConfigurationSolver, Portfolio, Thoroughness};
    use dsd_obs::ProfileTree;

    /// The profiler's frames (polish span, per-Move apply/undo/delta
    /// counters, cache probe timing, portfolio telemetry) must not
    /// perturb the configuration solver: completing the same candidate
    /// with and without a recorder yields bit-identical costs.
    #[test]
    fn profiled_config_solve_is_bit_identical() {
        let e = env(4);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let out = DesignSolver::new(&e).solve(Budget::iterations(10), &mut rng);
        let best = out.best.expect("feasible design");

        let bare_cost = {
            let mut candidate = best.clone();
            ConfigurationSolver::new(&e).complete(&mut candidate, Thoroughness::Full)
        };
        let recorder = obs::Recorder::new();
        let traced_cost = {
            let _g = recorder.install();
            let mut candidate = best;
            ConfigurationSolver::new(&e).complete(&mut candidate, Thoroughness::Full)
        };
        assert_eq!(
            bare_cost.total().as_f64().to_bits(),
            traced_cost.total().as_f64().to_bits(),
            "recording must not change the completed configuration"
        );
    }

    /// Same discipline for the portfolio (cooperation off, so the task
    /// set is fixed and the winner is deterministic): profiled and
    /// unprofiled runs find the bit-identical design.
    #[test]
    fn profiled_portfolio_solve_is_bit_identical() {
        let e = env(4);
        let budget = Budget::iterations(10);
        let solve = || {
            Portfolio::new(&e)
                .with_workers(2)
                .with_cooperation(false)
                .solve(budget, &[1, 2, 3])
                .outcome
                .best
                .map(|b| b.cost().total().as_f64())
        };
        let bare = solve();
        let recorder = obs::Recorder::new();
        let traced = {
            let _g = recorder.install();
            solve()
        };
        assert_eq!(bare.map(f64::to_bits), traced.map(f64::to_bits));
    }

    /// Folding a recorded solve yields a verifiable tree whose hot paths
    /// carry the explicit frames, attributing the bulk of the wall time
    /// below the root.
    #[test]
    fn profile_tree_attributes_the_solve() {
        let e = env(6);
        let cache = EvalCache::new(512);
        let recorder = obs::Recorder::new();
        {
            let _g = recorder.install();
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let out =
                DesignSolver::new(&e).with_cache(&cache).solve(Budget::iterations(40), &mut rng);
            assert!(out.best.is_some());
        }
        let events = recorder.drain_events();
        let tree = ProfileTree::from_events(&events);
        tree.verify().expect("containment invariant");
        assert!(
            tree.attributed_fraction() > 0.90,
            "only {:.1}% of wall time attributed below the roots",
            tree.attributed_fraction() * 100.0
        );
        let paths: Vec<String> = tree.rows().into_iter().map(|r| r.path).collect();
        for expected in ["solver.solve", "solver.solve;solver.greedy", "solver.solve;solver.refit"]
        {
            assert!(paths.iter().any(|p| p == expected), "missing path {expected}: {paths:?}");
        }

        // The per-Move-kind counters and shard occupancy gauges rode the
        // same run.
        let snap = recorder.metrics_snapshot();
        let moves: u64 = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("eval.apply."))
            .map(|(_, v)| *v)
            .sum();
        assert!(moves > 0, "refit applies per-kind move counters: {:?}", snap.counters);
        assert!(
            snap.gauges.keys().any(|name| name.starts_with("eval_cache.shard_occupancy.")),
            "cached solve publishes per-shard occupancy: {:?}",
            snap.gauges.keys().collect::<Vec<_>>()
        );
        assert!(
            snap.histogram("eval_cache.probe_latency").is_some_and(|h| h.count > 0),
            "cache probes are timed"
        );
    }

    /// A profiled portfolio run records per-worker spans and contention
    /// telemetry, and the per-thread trees merge into one verifiable
    /// aggregate.
    #[test]
    fn portfolio_contention_telemetry_and_merged_tree() {
        let e = env(4);
        let recorder = obs::Recorder::new();
        {
            let _g = recorder.install();
            let _ = Portfolio::new(&e).with_workers(2).solve(Budget::iterations(12), &[1, 2, 3]);
        }
        let events = recorder.drain_events();
        let workers = events.iter().filter(|ev| ev.name == "portfolio.worker").count();
        assert_eq!(workers, 2, "one worker span per worker thread");
        assert!(
            events.iter().any(|ev| ev.name.starts_with("portfolio.greedy")),
            "per-task spans recorded"
        );

        // Per-worker trees (split by thread) merge losslessly into the
        // whole-run fold.
        let whole = ProfileTree::from_events(&events);
        whole.verify().expect("whole-run fold verifies");
        let threads: std::collections::BTreeSet<u64> = events.iter().map(|ev| ev.thread).collect();
        let mut merged = ProfileTree::default();
        for t in threads {
            let per: Vec<_> = events.iter().filter(|ev| ev.thread == t).cloned().collect();
            merged.merge(&ProfileTree::from_events(&per));
        }
        merged.verify().expect("merged per-worker trees verify");
        assert_eq!(merged.roots, whole.roots, "per-worker trees merge losslessly");

        let snap = recorder.metrics_snapshot();
        assert!(
            snap.histogram("portfolio.worker_eval_secs").is_some_and(|h| h.count == 2),
            "per-worker eval time observed"
        );
        assert!(
            snap.histogram("portfolio.worker_idle_secs").is_some_and(|h| h.count == 2),
            "per-worker idle time observed"
        );
        let publishes = snap.counter("portfolio.publish_accepts").unwrap_or(0)
            + snap.counter("portfolio.publish_rejects").unwrap_or(0);
        assert!(publishes > 0, "seqlock publish outcomes counted");
    }
}

mod recording {
    use super::*;

    /// A cached solve must emit the full event taxonomy: greedy
    /// placements, refit moves, cache hits/misses, scenario evaluations,
    /// and improvement points.
    #[test]
    fn solve_emits_the_event_taxonomy() {
        let e = env(4);
        let cache = EvalCache::new(512);
        let recorder = obs::Recorder::new();
        {
            let _g = recorder.install();
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            let out =
                DesignSolver::new(&e).with_cache(&cache).solve(Budget::iterations(20), &mut rng);
            assert!(out.best.is_some());
        }
        let events = recorder.drain_events();
        let count = |name: &str| events.iter().filter(|ev| ev.name == name).count();
        assert!(count("greedy.place") > 0, "greedy placements traced");
        assert!(count("refit.move") > 0, "refit moves traced");
        assert!(count("recovery.scenario") > 0, "scenario evaluations traced");
        assert!(count("progress.incumbent") > 0, "improvement curve points traced");
        assert!(count("solver.solve") == 1, "one top-level solve span");
        assert!(
            count("cache.hit") + count("cache.miss") > 0,
            "cache lookups traced when a cache is attached"
        );
        // Improvement points carry the objective-vs-evaluations curve.
        let improved = events.iter().find(|ev| ev.name == "progress.incumbent").unwrap();
        assert!(improved.arg("evals").is_some());
        assert!(improved.arg("cost").is_some());
    }

    /// The metrics registry must expose the headline series and agree
    /// with the run's `SolveStats`.
    #[test]
    fn metrics_registry_agrees_with_solve_stats() {
        let e = env(4);
        let cache = EvalCache::new(512);
        let recorder = obs::Recorder::new();
        let out = {
            let _g = recorder.install();
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            DesignSolver::new(&e).with_cache(&cache).solve(Budget::iterations(15), &mut rng)
        };
        let snap = recorder.metrics_snapshot();
        assert!(snap.series_count() >= 5, "got {} series", snap.series_count());

        // SolveStats is reconstructible from the registry (its counters
        // are a view over the published series).
        let view = SolveStats::from_snapshot(&snap);
        assert_eq!(view.greedy_builds, out.stats.greedy_builds);
        assert_eq!(view.greedy_failures, out.stats.greedy_failures);
        assert_eq!(view.refit_rounds, out.stats.refit_rounds);
        assert_eq!(view.nodes_evaluated, out.stats.nodes_evaluated);
        assert_eq!(view.cache_hits, out.stats.cache_hits);
        assert_eq!(view.cache_misses, out.stats.cache_misses);

        // Histograms observed on the hot paths. The latency histogram
        // covers configuration-solver completions — exactly the lookups
        // when a cache is attached ('nodes_evaluated' additionally counts
        // the greedy stage's trial evaluations).
        let lat = snap.histogram("solver.eval_latency").expect("eval latency observed");
        assert_eq!(lat.count, out.stats.cache_hits + out.stats.cache_misses);
        assert!(lat.count <= out.stats.nodes_evaluated);
        assert!(snap.histogram("recovery.schedule_len").is_some());

        // Cache-eye counters come from the cache itself.
        let cs = out.cache.expect("cache attached");
        assert_eq!(snap.counter("cache.hits"), Some(cs.hits));
        assert_eq!(snap.counter("cache.misses"), Some(cs.misses));
        assert_eq!(snap.gauges.get("cache.hit_ratio"), Some(&cs.hit_rate()));
    }

    /// The independent-restart portfolio must propagate the caller's
    /// recorder into its workers: every seed's events and metrics land in
    /// the one sink, and per-run stats published by each task sum
    /// losslessly. (Which worker runs which task is not asserted: a
    /// worker that finishes early may legally steal.)
    #[test]
    fn portfolio_propagates_recorder_to_workers() {
        let e = env(4);
        let seeds = [1u64, 2, 3];
        let recorder = obs::Recorder::new();
        let run = {
            let _g = recorder.install();
            Portfolio::new(&e)
                .with_workers(seeds.len())
                .with_cooperation(false)
                .solve(Budget::iterations(8), &seeds)
        };
        assert_eq!(run.tasks, seeds.len() as u64);
        let events = recorder.drain_events();
        let count = |name: &str| events.iter().filter(|ev| ev.name == name).count();
        assert_eq!(count("solver.solve"), seeds.len(), "one solve span per task");
        assert_eq!(count("portfolio.greedy"), seeds.len(), "one task span per task");
        assert_eq!(count("portfolio.worker"), seeds.len(), "one frame per worker");
        let snap = recorder.metrics_snapshot();
        // Summed stats across workers equal the registry view.
        let view = SolveStats::from_snapshot(&snap);
        assert_eq!(view.nodes_evaluated, run.outcome.stats.nodes_evaluated);
        assert_eq!(view.greedy_builds, run.outcome.stats.greedy_builds);
    }

    /// Every strategy publishes its run's counters on every exit path,
    /// including a budget spent without a feasible design: the registry
    /// view equals the returned stats.
    #[test]
    fn every_strategy_publishes_its_counters_without_a_design() {
        use dsd_core::heuristics::{
            HumanHeuristic, RandomHeuristic, SimulatedAnnealing, TabuSearch,
        };
        use dsd_core::SolveOutcome;

        let e = one_site();
        let budget = Budget::iterations(10);
        type Solve<'e> = Box<dyn Fn(&mut ChaCha8Rng) -> SolveOutcome + 'e>;
        let runners: Vec<(&str, Solve<'_>)> = vec![
            ("design solver", Box::new(|rng| DesignSolver::new(&e).solve(budget, rng))),
            ("annealing", Box::new(|rng| SimulatedAnnealing::new(&e).solve(budget, rng))),
            ("tabu", Box::new(|rng| TabuSearch::new(&e).solve(budget, rng))),
            ("random", Box::new(|rng| RandomHeuristic::new(&e).solve(budget, rng))),
            ("human", Box::new(|rng| HumanHeuristic::new(&e).solve(Budget::iterations(3), rng))),
            (
                "portfolio",
                Box::new(|_| Portfolio::new(&e).with_workers(1).solve(budget, &[1, 2]).outcome),
            ),
        ];
        let counts = |s: &SolveStats| {
            (
                s.greedy_builds,
                s.greedy_failures,
                s.refit_rounds,
                s.nodes_evaluated,
                s.cache_hits,
                s.cache_misses,
            )
        };
        for (name, solve) in runners {
            let recorder = obs::Recorder::new();
            let out = {
                let _g = recorder.install();
                solve(&mut ChaCha8Rng::seed_from_u64(1))
            };
            assert!(out.best.is_none(), "{name}: the one-site environment is infeasible");
            assert!(out.stats.greedy_failures > 0, "{name}: failed starts counted");
            let view = SolveStats::from_snapshot(&recorder.metrics_snapshot());
            assert_eq!(counts(&view), counts(&out.stats), "{name}: published vs returned");
        }
    }

    /// The baseline heuristics publish their runs under the same series.
    #[test]
    fn heuristics_publish_into_the_registry() {
        let e = env(4);
        let recorder = obs::Recorder::new();
        {
            let _g = recorder.install();
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let _ = dsd_core::heuristics::RandomHeuristic::new(&e)
                .solve(Budget::iterations(6), &mut rng);
            let _ = dsd_core::heuristics::SimulatedAnnealing::new(&e)
                .solve(Budget::iterations(6), &mut rng);
            let _ =
                dsd_core::heuristics::TabuSearch::new(&e).solve(Budget::iterations(6), &mut rng);
        }
        let events = recorder.drain_events();
        for span in ["random.solve", "anneal.solve", "tabu.solve"] {
            assert_eq!(events.iter().filter(|ev| ev.name == span).count(), 1, "{span}");
        }
        let snap = recorder.metrics_snapshot();
        assert!(snap.counter("random.feasible_samples").unwrap_or(0) > 0);
        assert!(
            snap.counter("anneal.accepted").unwrap_or(0)
                + snap.counter("anneal.rejected").unwrap_or(0)
                > 0
        );
    }
}
