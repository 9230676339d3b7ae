//! Incremental (delta) evaluation over the trial moves a refit or
//! resource-addition pass explores from a solved four_sites(16) design:
//! every delta cost must bit-equal the full oracle (clone, apply the
//! move, evaluate), and one shared scenario cache must replay more
//! scenario outcomes than it recomputes. A greedy sweep does the same
//! for the insertions that build a design from an empty candidate.

use dsd::core::{
    Budget, Candidate, DesignSolver, Environment, Move, PlacementOptions, ScenarioOutcomeCache,
};
use dsd::obs::Recorder;
use dsd::scenarios::fleet::{fleet, FleetParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Each app's full config space at its current placement, plus a
/// one-unit addition for every active route, tape library and array.
fn trial_moves(env: &Environment, base: &Candidate) -> Vec<Move> {
    let mut moves = Vec::new();
    for (&app, assignment) in base.assignments() {
        let technique = env.catalog.get(assignment.technique).expect("assigned technique");
        for config in technique.config_space() {
            moves.push(Move::Reassign {
                app,
                technique: assignment.technique,
                config,
                placement: assignment.placement,
            });
        }
    }
    for route in base.provision().active_routes() {
        moves.push(Move::AddLinks { route, extra: 1 });
    }
    for tape in base.provision().provisioned_tapes() {
        moves.push(Move::AddTapeDrives { tape, extra: 1 });
    }
    for array in base.provision().provisioned_arrays() {
        moves.push(Move::AddArrayUnits { array, extra: 1 });
    }
    moves
}

#[test]
fn delta_sweep_matches_the_full_oracle_and_mostly_replays_scenarios() {
    let env = dsd::scenarios::environments::four_sites(16);
    let mut rng = ChaCha8Rng::seed_from_u64(2006);
    let base = DesignSolver::new(&env)
        .solve(Budget::iterations(20), &mut rng)
        .best
        .expect("four_sites(16) is feasible");
    let moves = trial_moves(&env, &base);

    // The oracle: `None` where the move cannot be applied.
    let full: Vec<Option<u64>> = moves
        .iter()
        .map(|mv| {
            let mut trial = base.clone();
            trial.apply_move(&env, mv).ok()?;
            let total = trial.evaluate(&env).total().as_f64();
            assert!(total.is_finite(), "{mv:?}: full cost {total}");
            Some(total.to_bits())
        })
        .collect();

    // One cold sweep: apply, price and undo on one candidate, scenario
    // outcomes memoized per failure scope across the whole sweep.
    let recorder = Recorder::new();
    {
        let _g = recorder.install();
        let mut delta = base.clone();
        let mut cache = ScenarioOutcomeCache::new();
        for (mv, expected) in moves.iter().zip(&full) {
            let got = delta.evaluate_delta(&env, mv, &mut cache).ok().map(|(cost, undo)| {
                delta.undo_move(undo);
                cost.total().as_f64().to_bits()
            });
            assert_eq!(got, *expected, "{mv:?}: delta and full evaluation disagree");
        }
    }
    let snapshot = recorder.metrics_snapshot();
    let hits = snapshot.counter("eval.delta_hits").unwrap_or(0);
    let recomputed = snapshot.counter("eval.scenarios_recomputed").unwrap_or(0);
    assert!(
        hits > recomputed,
        "{} moves: {hits} scenario outcomes replayed, {recomputed} recomputed",
        moves.len()
    );
}

/// Greedy best-fit from an empty candidate, the applications in id
/// order: every eligible technique × placement of the next application
/// is tried as an insertion on the one candidate. In place, with one
/// shared scenario cache, each trial's cost must bit-equal the full
/// oracle (clone, apply the move, evaluate), and after the undo the
/// candidate must price exactly as before the trial. The cheapest trial
/// is committed before the next application. Returns the number of
/// trials priced.
fn insertion_sweep(env: &Environment) -> usize {
    let mut candidate = Candidate::empty(env);
    let mut cache = ScenarioOutcomeCache::new();
    let mut trials = 0;
    for app in env.workloads.ids() {
        let before = candidate.clone().evaluate(env).total().as_f64().to_bits();
        let class = env.workloads[app].class_with(&env.thresholds);
        let mut best: Option<(f64, Move)> = None;
        for (technique, t) in env.catalog.eligible_for(class) {
            for placement in PlacementOptions::enumerate(env, technique) {
                let mv = Move::Reassign { app, technique, config: t.default_config(), placement };
                let mut oracle = candidate.clone();
                let expected =
                    oracle.apply_move(env, &mv).ok().map(|_| oracle.evaluate(env).total());
                let Ok(undo) = candidate.apply_move(env, &mv) else {
                    assert_eq!(expected, None, "{mv:?}: only the oracle applies");
                    continue;
                };
                let cost = candidate.evaluate_with(env, &mut cache).total();
                assert_eq!(
                    Some(cost.as_f64().to_bits()),
                    expected.map(|c| c.as_f64().to_bits()),
                    "{mv:?}: in-place and full evaluation disagree"
                );
                candidate.undo_move(undo);
                let undone = candidate.evaluate_with(env, &mut cache).total();
                assert_eq!(
                    undone.as_f64().to_bits(),
                    before,
                    "{mv:?}: the undo prices differently"
                );
                trials += 1;
                if best.as_ref().is_none_or(|&(c, _)| cost.as_f64() < c) {
                    best = Some((cost.as_f64(), mv));
                }
            }
        }
        if let Some((_, mv)) = best {
            candidate.apply_move(env, &mv).expect("the cheapest trial applies again");
        }
    }
    let expected = candidate.clone().evaluate(env).total().as_f64().to_bits();
    assert_eq!(candidate.evaluate_with(env, &mut cache).total().as_f64().to_bits(), expected);
    assert!(candidate.assigned_count() > 0, "the sweep placed applications");
    trials
}

#[test]
fn insertion_sweep_matches_the_full_oracle() {
    let env = dsd::scenarios::environments::four_sites(16);
    assert!(insertion_sweep(&env) > 0);
}

/// Fleet sites have several array slots and shared routes, so one
/// insertion stales many applications' fingerprints. About a second in
/// release: `cargo test --release --test delta_sweep -- --ignored`.
#[test]
#[ignore = "fleet scale; run in release"]
fn fleet32_insertion_sweep_matches_the_full_oracle() {
    let env = fleet(&FleetParams::new(32));
    assert!(insertion_sweep(&env) > 0);
}
