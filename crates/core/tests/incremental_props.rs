//! Oracle-equivalence property suite for incremental (delta) evaluation:
//! random move sequences (insertions, reassignments and resource
//! additions, some undone) on random environments must produce totals
//! bit-identical to a fresh full evaluation, with every scenario's
//! cached outcome equal to a fresh one, and apply→undo must restore the
//! exact candidate state.

use dsd_core::{
    scenario_digests, Candidate, CandidateKey, ConfigurationSolver, Environment, Move,
    PlacementOptions, ScenarioOutcomeCache, Thoroughness,
};
use dsd_failure::{FailureModel, FailureRates};
use dsd_obs as obs;
use dsd_protection::TechniqueCatalog;
use dsd_recovery::Evaluator;
use dsd_resources::{DeviceSpec, NetworkSpec, Site, Topology};
use dsd_workload::{AppId, GeneratorConfig, WorkloadGenerator};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A randomized but structurally sane environment: 2–3 paper-style
/// sites, perturbed workloads (same shape as the root solver-property
/// suite).
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

/// First-fit complete candidate over every application.
fn complete_candidate(env: &Environment) -> Option<Candidate> {
    let mut c = Candidate::empty(env);
    for app in env.workloads.iter() {
        let class = app.class_with(&env.thresholds);
        let mut done = false;
        'tech: for (tid, t) in env.catalog.eligible_for(class) {
            for p in PlacementOptions::enumerate(env, tid) {
                if c.try_assign(env, app.id, tid, t.default_config(), p).is_ok() {
                    done = true;
                    break 'tech;
                }
            }
        }
        if !done {
            return None;
        }
    }
    Some(c)
}

/// [`complete_candidate`] with one or two applications taken out again,
/// so that [`random_move`] can insert them.
fn candidate_with_gaps(env: &Environment, rng: &mut ChaCha8Rng) -> Option<Candidate> {
    let mut c = complete_candidate(env)?;
    let mut apps: Vec<AppId> = env.workloads.ids().collect();
    apps.shuffle(rng);
    for &app in &apps[..rng.gen_range(1..3usize)] {
        c.remove_app(app);
    }
    Some(c)
}

/// Draws a random move of a random kind against the candidate's current
/// state. A reassignment may pick an application that is not assigned:
/// that move is an insertion.
fn random_move(env: &Environment, candidate: &Candidate, rng: &mut ChaCha8Rng) -> Option<Move> {
    match rng.gen_range(0..4u8) {
        0 => {
            let apps: Vec<AppId> = env.workloads.ids().collect();
            let app = *apps.choose(rng)?;
            let class = env.workloads[app].class_with(&env.thresholds);
            let eligible: Vec<_> = env.catalog.eligible_for(class).collect();
            let &(tid, technique) = eligible.choose(rng)?;
            let config = *technique.config_space().choose(rng)?;
            let placement = *PlacementOptions::enumerate(env, tid).choose(rng)?;
            Some(Move::Reassign { app, technique: tid, config, placement })
        }
        1 => {
            let routes = candidate.provision().active_routes();
            Some(Move::AddLinks { route: *routes.choose(rng)?, extra: 1 })
        }
        2 => {
            let tapes = candidate.provision().provisioned_tapes();
            Some(Move::AddTapeDrives { tape: *tapes.choose(rng)?, extra: 1 })
        }
        _ => {
            let arrays = candidate.provision().provisioned_arrays();
            Some(Move::AddArrayUnits { array: *arrays.choose(rng)?, extra: 1 })
        }
    }
}

/// Full-evaluation oracle, computed fresh from the candidate state with
/// no caches involved.
fn oracle(env: &Environment, candidate: &Candidate) -> dsd_core::CostBreakdown {
    let protections = candidate.protections(env);
    let scenarios = env.failures.enumerate(candidate.primaries());
    let evaluator = Evaluator::new(&env.workloads, candidate.provision(), env.recovery);
    let penalties = evaluator.annual_penalties(&protections, &scenarios);
    let outlay = candidate.provision().annual_outlay() + candidate.vault_media_annual(env);
    dsd_core::CostBreakdown { outlay, penalties }
}

/// Bit-level equality of two cost breakdowns, including every per-app
/// penalty entry.
fn assert_cost_bits_equal(a: &dsd_core::CostBreakdown, b: &dsd_core::CostBreakdown) {
    assert_eq!(a.outlay.as_f64().to_bits(), b.outlay.as_f64().to_bits(), "outlay");
    assert_eq!(
        a.penalties.outage.as_f64().to_bits(),
        b.penalties.outage.as_f64().to_bits(),
        "outage"
    );
    assert_eq!(a.penalties.loss.as_f64().to_bits(), b.penalties.loss.as_f64().to_bits(), "loss");
    assert_eq!(a.penalties.per_app.len(), b.penalties.per_app.len(), "per-app cardinality");
    for ((ka, va), (kb, vb)) in a.penalties.per_app.iter().zip(b.penalties.per_app.iter()) {
        assert_eq!(ka, kb);
        assert_eq!(va.0.as_f64().to_bits(), vb.0.as_f64().to_bits(), "{ka} outage");
        assert_eq!(va.1.as_f64().to_bits(), vb.1.as_f64().to_bits(), "{ka} loss");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random move sequences: after every applied move (some kept, some
    /// undone), the delta-evaluated cost must be bit-identical to the
    /// fresh full oracle, and every scenario of the current design must
    /// hit the cache with an outcome equal to a fresh evaluation.
    #[test]
    fn delta_evaluation_matches_the_full_oracle(
        seed in 0u64..1000,
        sites in 2usize..4,
        apps in 2usize..5,
        steps in 4usize..12,
    ) {
        let env = random_env(seed, sites, apps);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xDE17A);
        let Some(mut c) = candidate_with_gaps(&env, &mut rng) else { return Ok(()); };
        let mut scache = ScenarioOutcomeCache::new();

        for step in 0..steps {
            let Some(mv) = random_move(&env, &c, &mut rng) else { continue; };
            let keep = rng.gen_bool(0.6);
            let Ok((delta_cost, undo)) = c.evaluate_delta(&env, &mv, &mut scache) else {
                continue;
            };
            assert_cost_bits_equal(&delta_cost, &oracle(&env, &c));

            // The delta evaluation just replayed or stored every scenario
            // of the current design: each must hit the cache (a miss
            // panics) with the outcome a fresh evaluation gives.
            let protections = c.protections(&env);
            let scenarios = env.failures.enumerate(c.primaries());
            let digests = scenario_digests(&c, &scenarios);
            let evaluator = Evaluator::new(&env.workloads, c.provision(), env.recovery);
            for (scenario, &digest) in scenarios.iter().zip(&digests) {
                let fresh = evaluator.evaluate_scenario(&protections, &scenario.scope);
                let cached = scache.get_or_insert_with(&scenario.scope, digest, || {
                    panic!("step {step}: {} missed the cache", scenario.scope)
                });
                prop_assert_eq!(cached, &fresh, "step {} outcomes diverge", step);
            }

            if !keep {
                c.undo_move(undo);
                let undone = c.evaluate_with(&env, &mut scache).clone();
                assert_cost_bits_equal(&undone, &oracle(&env, &c));
            }
            prop_assert!(c.validate(&env).is_ok(), "{:?}", c.validate(&env));
        }
        prop_assert!(scache.hits() > 0, "move sequences must reuse unchanged scenarios");
    }

    /// apply_move → undo_move restores the exact prior state: provision,
    /// assignments, and the completion cache key.
    #[test]
    fn apply_then_undo_is_a_bitwise_roundtrip(
        seed in 0u64..1000,
        steps in 1usize..8,
    ) {
        let env = random_env(seed, 2, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0D0);
        let Some(mut c) = candidate_with_gaps(&env, &mut rng) else { return Ok(()); };
        let limits = ConfigurationSolver::new(&env).addition_limits();
        for _ in 0..steps {
            let Some(mv) = random_move(&env, &c, &mut rng) else { continue; };
            let provision_before = c.provision().clone();
            let assignments_before = c.assignments().clone();
            let key_before = CandidateKey::of(&c, Thoroughness::Quick, limits);
            let Ok(undo) = c.apply_move(&env, &mv) else {
                // Failed moves must leave the candidate untouched too.
                prop_assert_eq!(c.provision(), &provision_before);
                prop_assert_eq!(c.assignments(), &assignments_before);
                continue;
            };
            c.undo_move(undo);
            prop_assert_eq!(c.provision(), &provision_before, "provision state drifted");
            prop_assert_eq!(c.assignments(), &assignments_before, "assignments drifted");
            prop_assert_eq!(
                CandidateKey::of(&c, Thoroughness::Quick, limits),
                key_before,
                "cache key drifted"
            );
        }
    }

    /// The clone-free, scenario-memoized completion is bit-identical to
    /// itself under a shared cache: completing the same start state with
    /// a fresh cache and with a warm shared cache yields the same design
    /// and the same cost bits.
    #[test]
    fn completion_is_bit_identical_under_a_shared_scenario_cache(
        seed in 0u64..1000,
    ) {
        let env = random_env(seed, 2, 3);
        let Some(base) = complete_candidate(&env) else { return Ok(()); };
        let solver = ConfigurationSolver::new(&env);

        let mut cold = base.clone();
        let cold_cost = solver.complete(&mut cold, Thoroughness::Full);

        let mut shared = ScenarioOutcomeCache::new();
        let mut warm1 = base.clone();
        let warm1_cost = solver.complete_with(&mut warm1, Thoroughness::Full, &mut shared);
        let mut warm2 = base.clone();
        let warm2_cost = solver.complete_with(&mut warm2, Thoroughness::Full, &mut shared);

        assert_cost_bits_equal(&cold_cost, &warm1_cost);
        assert_cost_bits_equal(&cold_cost, &warm2_cost);
        prop_assert_eq!(cold.assignments(), warm1.assignments());
        prop_assert_eq!(cold.assignments(), warm2.assignments());
        prop_assert_eq!(cold.provision(), warm2.provision());
        assert_cost_bits_equal(&cold_cost, &oracle(&env, &cold));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Attribution (ISSUE 5): penalty line items and outlay line items
    /// must fold bit-identically to the evaluated totals — on the fresh
    /// full path and after every delta-evaluated move. `verify()` checks
    /// every component (outlay, outage, loss, per-app map, grand total)
    /// at the bit level.
    #[test]
    fn attribution_is_bit_identical_on_full_and_delta_paths(
        seed in 0u64..1000,
        sites in 2usize..4,
        apps in 2usize..5,
        steps in 3usize..10,
    ) {
        let env = random_env(seed, sites, apps);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA77B);
        let Some(mut c) = candidate_with_gaps(&env, &mut rng) else { return Ok(()); };
        let mut scache = ScenarioOutcomeCache::new();

        // Full path: evaluate fresh, then attribute.
        c.evaluate_with(&env, &mut scache);
        let baseline = c.attribution(&env);
        prop_assert!(baseline.verify().is_ok(), "{:?}", baseline.verify());

        // Delta path: after each kept move the candidate's cached cost
        // came from evaluate_delta; a freshly computed attribution must
        // reproduce it exactly (stale line items would fail verify()).
        for step in 0..steps {
            let Some(mv) = random_move(&env, &c, &mut rng) else { continue; };
            if c.evaluate_delta(&env, &mv, &mut scache).is_err() { continue; }
            let attribution = c.attribution(&env);
            prop_assert!(
                attribution.verify().is_ok(),
                "step {}: {:?}", step, attribution.verify()
            );
            let (outage, loss) = attribution.penalty_totals();
            let full = oracle(&env, &c);
            prop_assert_eq!(outage.as_f64().to_bits(), full.penalties.outage.as_f64().to_bits());
            prop_assert_eq!(loss.as_f64().to_bits(), full.penalties.loss.as_f64().to_bits());
        }
    }
}

/// Regression (ISSUE 5 satellite): a move that changes only a device
/// fingerprint — extra links or extra array units, with no assignment
/// change — must invalidate the memoized evaluation, so an attribution
/// built against the delta-path cached cost reflects the new outlay
/// rather than replaying stale line items.
#[test]
fn fingerprint_only_moves_invalidate_the_memoized_attribution() {
    let env = random_env(7, 2, 3);
    let mut c = complete_candidate(&env).expect("paper-style environment is assignable");
    let mut scache = ScenarioOutcomeCache::new();
    let before = c.evaluate_with(&env, &mut scache).clone();
    let before_attr = c.attribution(&env);
    before_attr.verify().expect("baseline attribution is exact");

    // Extra array units: always available (every candidate provisions a
    // primary array), and purely a fingerprint change.
    let array = c.provision().provisioned_arrays()[0];
    let (after, _undo) = c
        .evaluate_delta(&env, &Move::AddArrayUnits { array, extra: 1 }, &mut scache)
        .expect("adding an array unit applies");
    assert_ne!(
        before.outlay.as_f64().to_bits(),
        after.outlay.as_f64().to_bits(),
        "an extra array unit must change the outlay"
    );
    assert_cost_bits_equal(&after, &oracle(&env, &c));
    let attr = c.attribution(&env);
    attr.verify().expect("post-move attribution is exact");
    assert_ne!(
        attr.outlay_annual().as_f64().to_bits(),
        before_attr.outlay_annual().as_f64().to_bits(),
        "attribution must track the fingerprint-only change, not replay the memo"
    );

    // Extra links, when the design uses any inter-site route.
    let routes = c.provision().active_routes();
    if let Some(&route) = routes.first() {
        let (after2, _undo) = c
            .evaluate_delta(&env, &Move::AddLinks { route, extra: 1 }, &mut scache)
            .expect("adding a link applies");
        assert_cost_bits_equal(&after2, &oracle(&env, &c));
        c.attribution(&env).verify().expect("attribution tracks the second fingerprint move");
    }
}

/// Regression (ISSUE 4 satellite): the configuration solver's trial
/// loops — config coordinate descent and the resource-addition loop —
/// must be clone-free: every trial is an apply/undo move on the one
/// candidate. Counted via the `eval.candidate_clones` obs series
/// (recorders are thread-local, so parallel tests cannot pollute it).
#[test]
fn completion_trial_paths_do_not_clone_the_candidate() {
    let env = random_env(42, 2, 4);
    let mut c = complete_candidate(&env).expect("paper-style environment is assignable");
    let recorder = obs::Recorder::new();
    {
        let _g = recorder.install();
        let cost = ConfigurationSolver::new(&env).complete(&mut c, Thoroughness::Full);
        assert!(cost.total().is_finite());
    }
    let snap = recorder.metrics_snapshot();
    assert_eq!(
        snap.counter("eval.candidate_clones").unwrap_or(0),
        0,
        "a full completion must not clone the candidate on any trial path"
    );
    assert!(
        snap.counter("eval.scenarios_recomputed").unwrap_or(0) > 0,
        "fresh scenario outcomes are recorded under eval.scenarios_recomputed"
    );
    assert!(
        snap.counter("eval.delta_hits").unwrap_or(0) > 0,
        "unchanged scenarios replay from the cache during completion"
    );
}
