//! The span-tree profiler must explain a real solve: folded from an
//! active recorder's stream, the tree satisfies its containment
//! invariant and attributes at least 95% of the recorded wall time to
//! nodes below the roots.

use dsd::core::{Budget, DesignSolver, Environment};
use dsd::obs::{ProfileTree, Recorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Solves `env` under an active recorder and returns the share of the
/// folded tree's wall time attributed below the roots.
fn attributed_fraction(env: &Environment) -> f64 {
    let recorder = Recorder::new();
    {
        let _g = recorder.install();
        let mut rng = ChaCha8Rng::seed_from_u64(2006);
        let _ = DesignSolver::new(env).solve(Budget::iterations(60), &mut rng);
    }
    let tree = ProfileTree::from_events(&recorder.drain_events());
    tree.verify().expect("profile tree satisfies its sum invariant");
    tree.attributed_fraction()
}

#[test]
fn four_sites_profile_attributes_at_least_95_percent() {
    let attributed = attributed_fraction(&dsd::scenarios::environments::four_sites(16));
    assert!(attributed >= 0.95, "four_sites(16): {attributed:.3} attributed, below 0.95");
}

#[test]
#[ignore = "about 30 s in a debug build; CI runs it in release with --ignored"]
fn fleet64_profile_attributes_at_least_95_percent() {
    use dsd::scenarios::fleet::{fleet, FleetParams};

    let attributed = attributed_fraction(&fleet(&FleetParams::new(64)));
    assert!(attributed >= 0.95, "fleet(64): {attributed:.3} attributed, below 0.95");
}
