//! Incremental (delta) evaluation over the trial moves a refit or
//! resource-addition pass explores from a solved four_sites(16) design:
//! every delta cost must bit-equal the full oracle (clone, apply the
//! move, evaluate), and one shared scenario cache must replay more
//! scenario outcomes than it recomputes.

use dsd::core::{Budget, Candidate, DesignSolver, Environment, Move, ScenarioOutcomeCache};
use dsd::obs::Recorder;
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
