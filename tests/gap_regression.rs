//! Gap regression gates: a fixed-seed tournament must keep every
//! heuristic's optimality gap under pinned ceilings. The ceilings carry
//! deliberate headroom over the measured values (worst observed:
//! ~1.0% vs the exhaustive optimum, ~3.8% vs the relaxation bound at
//! this seed/budget), so they only trip when a solver change genuinely
//! degrades solution quality — at which point either fix the regression
//! or consciously re-pin these numbers. An ignored fleet(32) portfolio
//! solve ratchets the fleet-scale certificate gap the same way.

use dsd::core::{run_tournament, Budget, Certificate, Portfolio, TournamentConfig};
use dsd::scenarios::fleet::{fleet, FleetParams};

/// No heuristic may stray more than this far from the exhaustive
/// optimum on enumerable instances.
const MAX_GAP_TO_EXHAUSTIVE_PCT: f64 = 5.0;
/// ... nor more than this far from the relaxation lower bound anywhere
/// (the bound itself is loose, so this ceiling is wider).
const MAX_GAP_TO_BOUND_PCT: f64 = 10.0;
/// Ratchet on the fleet(32) certificate gap: measured 469.49%
/// ($2,486.53M/yr achieved). Lower it as the fleet-scale search
/// improves; never raise it.
const MAX_FLEET32_GAP_PCT: f64 = 470.0;

fn pinned_config() -> TournamentConfig {
    TournamentConfig { seed: 2006, budget: 12, app_counts: vec![2, 3], max_exhaustive: 200_000 }
}

#[test]
fn fixed_seed_tournament_gaps_stay_under_the_pinned_ceilings() {
    let report = run_tournament(&pinned_config());
    assert_eq!(report.violations(), 0, "certified ordering broken:\n{report}");

    // The grid must actually exercise the exhaustive sandwich somewhere,
    // otherwise the gap-to-exhaustive gate gates nothing.
    let enumerated = report.instances.iter().filter(|i| i.exhaustive.is_some()).count();
    assert!(enumerated >= 2, "expected ≥2 enumerable instances, got {enumerated}:\n{report}");

    for s in &report.summary {
        assert!(s.instances > 0, "{} never produced a design:\n{report}", s.heuristic);
        assert!(
            s.worst_gap_to_bound_pct <= MAX_GAP_TO_BOUND_PCT,
            "{} worst gap to bound {:.2}% exceeds the pinned {:.1}% ceiling:\n{report}",
            s.heuristic,
            s.worst_gap_to_bound_pct,
            MAX_GAP_TO_BOUND_PCT
        );
        assert!(
            s.worst_gap_to_exhaustive_pct <= MAX_GAP_TO_EXHAUSTIVE_PCT,
            "{} worst gap to exhaustive {:.2}% exceeds the pinned {:.1}% ceiling:\n{report}",
            s.heuristic,
            s.worst_gap_to_exhaustive_pct,
            MAX_GAP_TO_EXHAUSTIVE_PCT
        );
    }
}

#[test]
fn every_enumerated_instance_is_sandwiched() {
    let report = run_tournament(&pinned_config());
    for inst in &report.instances {
        assert!(inst.lower_bound > 0.0, "{}: vacuous bound", inst.label);
        let Some(exact) = inst.exhaustive else { continue };
        assert!(
            inst.lower_bound <= exact,
            "{}: bound {} above exhaustive {exact}",
            inst.label,
            inst.lower_bound
        );
        for e in &inst.entries {
            if let Some(cost) = e.cost {
                assert!(
                    exact <= cost * (1.0 + 1e-9),
                    "{}: {} found {cost} below the exhaustive optimum {exact}",
                    inst.label,
                    e.heuristic
                );
            }
        }
    }
}

#[test]
#[ignore = "about 11 s in a debug build; CI runs it in release with --ignored"]
fn fleet32_certificate_gap_stays_under_the_ratchet() {
    let env = fleet(&FleetParams::new(32));
    let outcome =
        Portfolio::new(&env).with_workers(1).solve(Budget::iterations(16), &[2006, 2007]).outcome;
    let best = outcome.best.expect("fleet(32) has a feasible design");
    let certificate = Certificate::new(env.certified_lower_bound(), best.cost().total());
    certificate.verify().expect("the achieved cost respects the bound");
    assert!(
        certificate.gap_pct <= MAX_FLEET32_GAP_PCT,
        "fleet(32) gap {:.2}% (achieved {}) exceeds the {:.1}% ratchet",
        certificate.gap_pct,
        certificate.achieved,
        MAX_FLEET32_GAP_PCT
    );
}
