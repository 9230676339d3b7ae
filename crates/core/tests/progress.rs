//! Integration tests for progress events: they must describe the search
//! faithfully (ordered, monotone incumbents, per-worker lanes) and
//! emission must never change what the search computes.

use dsd_core::{
    heuristics::{random_design, HumanHeuristic, RandomHeuristic, SimulatedAnnealing, TabuSearch},
    lower_bound, Budget, Candidate, Certificate, DesignSolver, Environment, Portfolio,
    ScenarioOutcomeCache,
};
use dsd_failure::{FailureModel, FailureRates};
use dsd_obs::progress::{self, ProgressKind};
use dsd_obs::{ProgressEvent, Recorder};
use dsd_protection::TechniqueCatalog;
use dsd_resources::{DeviceSpec, NetworkSpec, Site, Topology};
use dsd_units::Dollars;
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

fn incumbent_costs(events: &[ProgressEvent]) -> Vec<f64> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            ProgressKind::IncumbentImproved { cost, .. } => Some(cost),
            _ => None,
        })
        .collect()
}

/// Emission must not perturb the search: same seed, same best design,
/// with and without a recorder recording progress.
#[test]
fn instrumented_solve_is_bit_identical() {
    let e = env(4);
    let solve = |seed| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        DesignSolver::new(&e).solve(Budget::iterations(15), &mut rng)
    };
    let bare = solve(77);
    let recorder = Recorder::progress_only();
    let instrumented = {
        let _g = recorder.install();
        solve(77)
    };
    assert_eq!(
        bare.best.as_ref().map(|b| b.cost().total().as_f64().to_bits()),
        instrumented.best.as_ref().map(|b| b.cost().total().as_f64().to_bits()),
    );
    assert_eq!(bare.stats.nodes_evaluated, instrumented.stats.nodes_evaluated);
    assert!(!recorder.progress_since(&mut 0).is_empty(), "instrumented run emitted events");
}

/// The design solver's event stream: phases are entered, incumbents
/// strictly improve, the final incumbent bit-matches the returned
/// objective and its gap bit-matches a certificate over the same
/// environment, and the stream ends with `done`.
#[test]
fn design_solver_stream_is_ordered_and_certified() {
    let e = env(4);
    let recorder = Recorder::progress_only();
    let outcome = {
        let _g = recorder.install();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        DesignSolver::new(&e).solve(Budget::iterations(25), &mut rng)
    };
    let events = recorder.progress_since(&mut 0);
    assert!(events.windows(2).all(|w| w[0].elapsed_ns <= w[1].elapsed_ns), "time-ordered");

    let phases: Vec<&str> = events
        .iter()
        .filter_map(|e| match &e.kind {
            ProgressKind::PhaseEntered { phase } => Some(phase.as_str()),
            _ => None,
        })
        .collect();
    assert!(phases.contains(&"greedy"));
    assert!(phases.contains(&"refit"));
    assert!(phases.contains(&"polish"));

    let costs = incumbent_costs(&events);
    assert!(!costs.is_empty());
    assert!(costs.windows(2).all(|w| w[1] < w[0]), "incumbents strictly improve: {costs:?}");

    let best_total = outcome.best.as_ref().expect("feasible").cost().total();
    assert_eq!(costs.last().copied().map(f64::to_bits), Some(best_total.as_f64().to_bits()));

    let expected_gap = Certificate::new(&lower_bound(&e), best_total).gap_pct;
    let last_incumbent_gap = events
        .iter()
        .rev()
        .find_map(|e| match e.kind {
            ProgressKind::IncumbentImproved { gap_pct, .. } => Some(gap_pct),
            _ => None,
        })
        .expect("incumbent present");
    assert_eq!(last_incumbent_gap.map(f64::to_bits), Some(expected_gap.to_bits()));

    match &events.last().expect("non-empty").kind {
        ProgressKind::Done { cost, evals, .. } => {
            assert_eq!(cost.map(f64::to_bits), Some(best_total.as_f64().to_bits()));
            assert_eq!(*evals, outcome.stats.nodes_evaluated);
        }
        other => panic!("stream must end with done, got {other:?}"),
    }
}

/// The independent-restart portfolio propagates the recorder: events
/// from every task interleave in one store under worker lanes, and emission
/// keeps the result bit-identical. (Counts are per task, not per worker:
/// a worker that finishes early may legally steal a task.)
#[test]
fn portfolio_workers_interleave_in_one_queue() {
    let e = env(4);
    let seeds = [1u64, 2, 3, 4];
    let budget = Budget::iterations(12);
    let solve = || {
        Portfolio::new(&e).with_workers(seeds.len()).with_cooperation(false).solve(budget, &seeds)
    };
    let bare = solve();

    let recorder = Recorder::progress_only();
    let instrumented = {
        let _g = recorder.install();
        solve()
    };
    assert_eq!(
        bare.outcome.best.as_ref().map(|b| b.cost().total().as_f64().to_bits()),
        instrumented.outcome.best.as_ref().map(|b| b.cost().total().as_f64().to_bits()),
        "progress emission must not perturb the portfolio search"
    );
    assert_eq!(instrumented.tasks, seeds.len() as u64);

    let events = recorder.progress_since(&mut 0);
    // The fan-out parent (lane of the installing thread) emits the
    // portfolio phase marker; workers emit the solver phases.
    assert!(events
        .iter()
        .any(|e| e.kind == ProgressKind::PhaseEntered { phase: "portfolio".into() }));
    let greedy_phases = events
        .iter()
        .filter(|e| e.kind == ProgressKind::PhaseEntered { phase: "greedy".into() })
        .count();
    assert!(greedy_phases >= seeds.len(), "every task enters the greedy phase");
    let dones = events.iter().filter(|e| matches!(e.kind, ProgressKind::Done { .. })).count();
    assert_eq!(dones, seeds.len(), "every task reports done");

    // Per-task incumbents stay monotone even though lanes interleave: a
    // lane's events split into tasks at each `done`.
    let lanes: std::collections::BTreeSet<u64> = events.iter().map(|e| e.worker).collect();
    for worker in lanes {
        let lane: Vec<ProgressEvent> =
            events.iter().filter(|e| e.worker == worker).cloned().collect();
        for task in lane.split_inclusive(|e| matches!(e.kind, ProgressKind::Done { .. })) {
            let costs = incumbent_costs(task);
            assert!(costs.windows(2).all(|w| w[1] <= w[0]), "lane {worker} monotone: {costs:?}");
        }
    }
}

/// A disabled recorder (and no recorder at all) records nothing, and
/// the solver result is still bit-identical.
#[test]
fn disabled_channel_emits_nothing() {
    let e = env(4);
    let solve = || {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        DesignSolver::new(&e).solve(Budget::iterations(10), &mut rng)
    };
    let bare = solve();
    let recorder = Recorder::disabled();
    let gated = {
        let _g = recorder.install();
        assert!(!progress::enabled());
        solve()
    };
    assert!(recorder.progress_since(&mut 0).is_empty());
    assert!(recorder.drain_events().is_empty(), "nothing recorded at all");
    assert_eq!(
        bare.best.as_ref().map(|b| b.cost().total().as_f64().to_bits()),
        gated.best.as_ref().map(|b| b.cost().total().as_f64().to_bits()),
    );
}

/// All four heuristics emit progress with the same contract:
/// a phase marker, strictly improving incumbents ending at the returned objective,
/// and a final done event — without perturbing their results. Annealing
/// and tabu keep it from an adopted start too (the portfolio's path).
#[test]
fn heuristics_emit_monotone_incumbents() {
    let e = env(4);
    let budget = Budget::iterations(30);
    let start = |rng: &mut ChaCha8Rng| -> Option<Candidate> {
        let mut start = random_design(&e, 10, rng).expect("feasible start");
        start.evaluate(&e);
        Some(start)
    };
    type Runner<'e> = Box<dyn Fn(&mut ChaCha8Rng) -> Option<Dollars> + 'e>;
    let runners: Vec<(&str, Runner<'_>)> = vec![
        (
            "anneal",
            Box::new(|rng: &mut ChaCha8Rng| {
                SimulatedAnnealing::new(&e).solve(budget, rng).best.map(|b| b.cost().total())
            }),
        ),
        (
            "tabu",
            Box::new(|rng: &mut ChaCha8Rng| {
                TabuSearch::new(&e).solve(budget, rng).best.map(|b| b.cost().total())
            }),
        ),
        (
            "anneal",
            Box::new(|rng: &mut ChaCha8Rng| {
                let mut scache = ScenarioOutcomeCache::new();
                SimulatedAnnealing::new(&e)
                    .solve_from(start(rng), budget, &mut scache, rng)
                    .best
                    .map(|b| b.cost().total())
            }),
        ),
        (
            "tabu",
            Box::new(|rng: &mut ChaCha8Rng| {
                let mut scache = ScenarioOutcomeCache::new();
                TabuSearch::new(&e)
                    .solve_from(start(rng), budget, &mut scache, rng)
                    .best
                    .map(|b| b.cost().total())
            }),
        ),
        (
            "human",
            Box::new(|rng: &mut ChaCha8Rng| {
                HumanHeuristic::new(&e)
                    .solve(Budget::iterations(4), rng)
                    .best
                    .map(|b| b.cost().total())
            }),
        ),
        (
            "random",
            Box::new(|rng: &mut ChaCha8Rng| {
                RandomHeuristic::new(&e).solve(budget, rng).best.map(|b| b.cost().total())
            }),
        ),
    ];
    for (phase, run) in runners {
        let bare = run(&mut ChaCha8Rng::seed_from_u64(42));
        let recorder = Recorder::progress_only();
        let instrumented = {
            let _g = recorder.install();
            run(&mut ChaCha8Rng::seed_from_u64(42))
        };
        assert_eq!(
            bare.map(|c| c.as_f64().to_bits()),
            instrumented.map(|c| c.as_f64().to_bits()),
            "{phase}: emission must not perturb the search"
        );
        let events = recorder.progress_since(&mut 0);
        assert!(
            events.iter().any(|e| e.kind == ProgressKind::PhaseEntered { phase: phase.into() }),
            "{phase}: phase marker present"
        );
        let costs = incumbent_costs(&events);
        assert!(!costs.is_empty(), "{phase}: incumbents emitted");
        assert!(costs.windows(2).all(|w| w[1] < w[0]), "{phase}: strictly improving {costs:?}");
        assert_eq!(
            costs.last().copied().map(f64::to_bits),
            instrumented.map(|c| c.as_f64().to_bits()),
            "{phase}: final incumbent is the returned objective"
        );
        match &events.last().expect("{phase}: non-empty").kind {
            ProgressKind::Done { cost, .. } => {
                assert_eq!(cost.map(f64::to_bits), instrumented.map(|c| c.as_f64().to_bits()));
            }
            other => panic!("{phase}: stream must end with done, got {other:?}"),
        }
    }
}
