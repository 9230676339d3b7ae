//! Fleet-scale portfolio scaling bench.
//!
//! Runs the work-stealing [`Portfolio`] solver over seeded fleet
//! environments (`dsd_scenarios::fleet`) across a thread sweep
//! (1/2/4/8/16 by default) and an app-count sweep, measuring aggregate
//! candidate evaluations per second. For each instance it also runs the
//! independent-restart baseline (the portfolio with cooperation off) at
//! the same per-seed budget and checks the portfolio's invariants: its
//! best design costs no more than the baseline's and never less than the
//! certified lower bound. Writes `BENCH_fleet.json` to `DSD_BENCH_DIR`.
//!
//! Knobs: `DSD_APPS` (largest fleet in the sweep, default 256),
//! `DSD_SEEDS` (restart seeds per run, default 8), `DSD_BUDGET`
//! (per-task iterations, default 40), `DSD_SEED`, and
//! `DSD_MAX_THREADS` (caps the thread sweep, default 16).

use dsd_bench::{env_u64, seed_from_env, write_bench_json};
use dsd_core::{Budget, Portfolio};
use dsd_scenarios::fleet::{fleet, FleetParams};
use serde::Value;

fn int(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn main() {
    let max_apps = usize::try_from(env_u64("DSD_APPS", 256)).expect("DSD_APPS fits in usize");
    let seed = seed_from_env();
    let budget = Budget::iterations(env_u64("DSD_BUDGET", 40));
    let seed_count = env_u64("DSD_SEEDS", 8).max(1);
    let max_threads = env_u64("DSD_MAX_THREADS", 16).max(1) as usize;
    let seeds: Vec<u64> = (0..seed_count).map(|i| seed.wrapping_add(i)).collect();
    let threads: Vec<usize> =
        [1usize, 2, 4, 8, 16].into_iter().filter(|&t| t <= max_threads).collect();

    // Geometric app sweep up to DSD_APPS, so the curve shows how
    // aggregate throughput holds as the instance grows.
    let mut app_counts: Vec<usize> = vec![(max_apps / 4).max(1), (max_apps / 2).max(1), max_apps];
    app_counts.dedup();

    let mut sweeps = Vec::new();
    for &apps in &app_counts {
        let params = FleetParams::new(apps).with_seed(seed);
        let env = fleet(&params);
        println!(
            "fleet({apps} apps, {} sites, {}): {} seeds x {} strategies, budget {:?}",
            env.topology.sites().len(),
            params.graph.name(),
            seeds.len(),
            3,
            budget,
        );

        let mut rows = Vec::new();
        let mut single_thread_rate = None;
        let mut best_portfolio_cost = f64::INFINITY;
        for &t in &threads {
            let run = Portfolio::new(&env).with_workers(t).solve(budget, &seeds);
            let rate = run.outcome.evals_per_sec();
            let single = *single_thread_rate.get_or_insert(rate);
            let cost =
                run.outcome.best.as_ref().map_or(f64::INFINITY, |b| env.score(b.cost()).as_f64());
            best_portfolio_cost = best_portfolio_cost.min(cost);
            println!(
                "  {t:>2} threads: {:>8.0} evals/s ({:.2}x), {} tasks, {} steals, {} adoptions, best ${cost:.0}",
                rate,
                rate / single,
                run.tasks,
                run.steals,
                run.adoptions,
            );
            rows.push(Value::Map(vec![
                ("threads".to_string(), int(t as u64)),
                ("evals".to_string(), int(run.outcome.stats.nodes_evaluated)),
                ("elapsed_secs".to_string(), Value::Float(run.outcome.elapsed.as_secs_f64())),
                ("evals_per_sec".to_string(), Value::Float(rate)),
                ("speedup_vs_single_thread".to_string(), Value::Float(rate / single)),
                ("tasks".to_string(), int(run.tasks)),
                ("steals".to_string(), int(run.steals)),
                ("adoptions".to_string(), int(run.adoptions)),
                ("incumbent_generations".to_string(), int(run.incumbent_generations)),
                ("best_total_cost".to_string(), Value::Float(cost)),
            ]));
        }

        // Invariant checks against the independent-restart baseline at
        // the same per-seed budget, and the certified lower bound.
        let baseline = Portfolio::new(&env)
            .with_workers(seeds.len())
            .with_cooperation(false)
            .solve(budget, &seeds)
            .outcome;
        let baseline_cost =
            baseline.best.as_ref().map_or(f64::INFINITY, |b| env.score(b.cost()).as_f64());
        let bound = env.certified_lower_bound().total.as_f64();
        assert!(
            best_portfolio_cost.is_finite(),
            "fleet({apps}) must be solvable — an infeasible instance means the \
             generator under-provisioned sites or routes"
        );
        assert!(
            best_portfolio_cost <= baseline_cost + 1e-6,
            "portfolio ${best_portfolio_cost:.2} must not lose to \
             independent restarts ${baseline_cost:.2} on fleet({apps})"
        );
        assert!(
            best_portfolio_cost >= bound - 1e-6,
            "portfolio ${best_portfolio_cost:.2} below certified lower bound ${bound:.2}"
        );
        println!(
            "  baseline ${baseline_cost:.0}, portfolio ${best_portfolio_cost:.0}, \
             lower bound ${bound:.0} — invariants hold"
        );

        sweeps.push(Value::Map(vec![
            ("apps".to_string(), int(apps as u64)),
            ("sites".to_string(), int(env.topology.sites().len() as u64)),
            ("graph".to_string(), Value::Str(params.graph.name().to_string())),
            ("threads".to_string(), Value::Seq(rows)),
            ("baseline_total_cost".to_string(), Value::Float(baseline_cost)),
            ("portfolio_total_cost".to_string(), Value::Float(best_portfolio_cost)),
            ("lower_bound".to_string(), Value::Float(bound)),
        ]));
    }

    let report = Value::Map(vec![
        ("seed".to_string(), int(seed)),
        ("seeds".to_string(), int(seed_count)),
        ("budget".to_string(), int(env_u64("DSD_BUDGET", 40))),
        ("max_threads".to_string(), int(max_threads as u64)),
        ("sweeps".to_string(), Value::Seq(sweeps)),
    ]);
    match write_bench_json("fleet", &report) {
        Ok(path) => println!("report written to {}", path.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
}
