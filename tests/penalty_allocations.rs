//! Allocation budget of the penalty fold: on solved peer_sites and
//! four_sites(16) designs and the trial designs one move away from
//! them, `Evaluator::annual_penalties` allocates at most once per
//! failure scenario, `Evaluator::evaluate_scenario` at most three times
//! per call, and scenario enumeration at most three times per call.
//!
//! The counter is process-wide, so the checks run sequentially in a
//! process of their own (`harness = false`): nothing else allocates
//! while they count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dsd::core::{Budget, Candidate, DesignSolver, Environment, Move};
use dsd::recovery::Evaluator;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Set while allocations are counted.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Allocations (reallocations included) counted so far.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a counter.
struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a relaxed counter update, which
// neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `f` with counting on; returns its result and the allocations
/// made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The solved design and every one-unit resource addition on it: the
/// designs a resource-addition pass prices.
fn designs(env: &Environment, seed: u64) -> Vec<Candidate> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let base = DesignSolver::new(env)
        .solve(Budget::iterations(20), &mut rng)
        .best
        .expect("the reference environment is feasible");
    let provision = base.provision();
    let moves = provision
        .active_routes()
        .into_iter()
        .map(|route| Move::AddLinks { route, extra: 1 })
        .chain(
            provision
                .provisioned_tapes()
                .into_iter()
                .map(|tape| Move::AddTapeDrives { tape, extra: 1 }),
        )
        .chain(
            provision
                .provisioned_arrays()
                .into_iter()
                .map(|array| Move::AddArrayUnits { array, extra: 1 }),
        );
    let mut out = vec![base.clone()];
    for mv in moves.collect::<Vec<_>>() {
        let mut trial = base.clone();
        if trial.apply_move(env, &mv).is_ok() {
            out.push(trial);
        }
    }
    out
}

/// Checks every budget on every design of `env`; returns how many
/// designs were checked.
fn check(name: &str, env: &Environment, seed: u64) -> usize {
    let designs = designs(env, seed);
    for design in &designs {
        let protections = design.protections(env);
        let (scenarios, enumerated) = counted(|| env.failures.enumerate(design.primaries()));
        assert!(enumerated <= 3, "{name}: enumeration made {enumerated} allocations");
        let evaluator = Evaluator::new(&env.workloads, design.provision(), env.recovery);
        let (summary, folded) = counted(|| evaluator.annual_penalties(&protections, &scenarios));
        black_box(summary);
        assert!(
            folded <= scenarios.len() as u64,
            "{name}: the fold made {folded} allocations over {} scenarios",
            scenarios.len()
        );
        for scenario in &scenarios {
            let (outcome, made) =
                counted(|| evaluator.evaluate_scenario(&protections, &scenario.scope));
            black_box(outcome);
            assert!(made <= 3, "{name}: {} made {made} allocations", scenario.scope);
        }
    }
    designs.len()
}

fn main() {
    let peer = check("peer_sites", &dsd::scenarios::environments::peer_sites(), 2006);
    let four = check("four_sites(16)", &dsd::scenarios::environments::four_sites(16), 2006);
    println!(
        "penalty_allocations: {peer} peer_sites and {four} four_sites(16) designs within budget"
    );
}
