//! Measures the candidate-evaluation cache: solves the peer-sites
//! environment (four applications) with and without a cache, checks the
//! two runs are bit-identical, times a shared-cache parallel fan-out, and
//! writes the numbers to `BENCH_cache.json` (`DSD_BENCH_DIR` overrides
//! the output directory; `DSD_BUDGET` / `DSD_SEED` as usual).

use dsd_bench::{budget_from_env, env_u64, outcome_value, seed_from_env, write_bench_json};
use dsd_core::{DesignSolver, EvalCache, Portfolio, DEFAULT_CACHE_CAPACITY};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Serialize, Value};

fn main() {
    let env = dsd_scenarios::environments::peer_sites_with(4);
    let budget = budget_from_env();
    let seed = seed_from_env();

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let uncached = DesignSolver::new(&env).solve(budget, &mut rng);

    // The cached run records into a metrics registry, so the report can
    // embed the hit ratio and eval-latency percentiles the registry saw
    // (recording never perturbs the search — asserted below).
    let recorder = dsd_obs::Recorder::new();
    let cache = EvalCache::new(DEFAULT_CACHE_CAPACITY);
    let cached = {
        let _guard = recorder.install();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        DesignSolver::new(&env).with_cache(&cache).solve(budget, &mut rng)
    };

    let (a, b) = (uncached.best.as_ref(), cached.best.as_ref());
    assert_eq!(
        a.map(|c| c.assignments().clone()),
        b.map(|c| c.assignments().clone()),
        "cached search must pick the identical design"
    );
    assert_eq!(
        a.map(|c| c.cost().total()),
        b.map(|c| c.cost().total()),
        "cached search must report the identical cost"
    );
    assert_eq!(uncached.stats.nodes_evaluated, cached.stats.nodes_evaluated);

    let stats = cache.stats();
    println!("seed {seed}: identical best design with and without cache");
    println!(
        "  uncached: {:.3}s ({:.0} evals/s)",
        uncached.elapsed.as_secs_f64(),
        uncached.evals_per_sec()
    );
    println!(
        "  cached:   {:.3}s ({:.0} evals/s), {} hits / {} misses ({:.1}% hit rate)",
        cached.elapsed.as_secs_f64(),
        cached.evals_per_sec(),
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );

    let seeds: Vec<u64> = (1..=env_u64("DSD_SEEDS", 4)).collect();
    let parallel = Portfolio::new(&env)
        .with_workers(seeds.len())
        .with_cooperation(false)
        .solve(budget, &seeds)
        .outcome;
    let shared = parallel.cache.expect("the portfolio attaches a cache");
    println!(
        "  parallel x{}: {:.3}s, shared cache {:.1}% hit rate ({} hits)",
        seeds.len(),
        parallel.elapsed.as_secs_f64(),
        shared.hit_rate() * 100.0,
        shared.hits
    );

    let snapshot = recorder.metrics_snapshot();
    let latency = snapshot.histogram("solver.eval_latency");
    let metrics = Value::Map(vec![
        (
            "cache_hit_ratio".to_string(),
            Value::Float(snapshot.gauges.get("cache.hit_ratio").copied().unwrap_or(0.0)),
        ),
        (
            "eval_latency_secs".to_string(),
            match latency {
                Some(h) => Value::Map(vec![
                    ("count".to_string(), Value::Int(i64::try_from(h.count).unwrap_or(i64::MAX))),
                    ("mean".to_string(), Value::Float(h.mean)),
                    ("p50".to_string(), Value::Float(h.p50)),
                    ("p90".to_string(), Value::Float(h.p90)),
                    ("p99".to_string(), Value::Float(h.p99)),
                    ("max".to_string(), Value::Float(h.max)),
                ]),
                None => Value::Null,
            },
        ),
        ("snapshot".to_string(), snapshot.serialize()),
    ]);
    if let Some(h) = latency {
        println!(
            "  eval latency: n={} p50={:.6}s p90={:.6}s p99={:.6}s max={:.6}s",
            h.count, h.p50, h.p90, h.p99, h.max
        );
    }

    let report = Value::Map(vec![
        ("environment".to_string(), Value::Str("peer_sites_with(4)".to_string())),
        ("seed".to_string(), Value::Int(i64::try_from(seed).unwrap_or(i64::MAX))),
        ("uncached".to_string(), outcome_value(&uncached)),
        ("cached".to_string(), outcome_value(&cached)),
        ("parallel_shared_cache".to_string(), outcome_value(&parallel)),
        ("metrics".to_string(), metrics),
        (
            "identical_results".to_string(),
            Value::Bool(true), // asserted above; reaching here means it held
        ),
    ]);
    let path = write_bench_json("cache", &report).expect("write BENCH_cache.json");
    println!("json written to {}", path.display());
}
