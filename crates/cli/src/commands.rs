//! Subcommand implementations. Each returns the text to print so the
//! binary stays a thin dispatcher and integration tests can assert on
//! output.

use std::error::Error;
use std::fmt::Write as _;
use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use serde::Serialize;

use dsd_core::{
    lower_bound, run_tournament, technique_marginals, Budget, Certificate, CostAttribution,
    DesignSolver, Environment, EvalCache, Portfolio, ScenarioOutcomeCache, TechniqueMarginal,
    TournamentConfig, DEFAULT_CACHE_CAPACITY,
};
use dsd_recovery::Evaluator;
use dsd_scenarios::experiments::{
    ablation, csv, figure2, figure3, figure4, scheduling, sensitivity, table4,
};

use crate::saved::SavedDesign;
use crate::spec::EnvironmentSpec;

/// Options shared by solver-running commands.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Solver iteration budget. `dsd experiment figure3-wallclock` reads
    /// it as seconds of wall time per heuristic instead.
    pub budget: u64,
    /// RNG seed.
    pub seed: u64,
    /// Run `dsd design` through the work-stealing portfolio solver
    /// instead of the single-seeded sequential solver.
    pub portfolio: bool,
    /// Portfolio worker threads; `None` sizes to the machine.
    pub threads: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { budget: 300, seed: 2006, portfolio: false, threads: None }
    }
}

/// `dsd init` — emit a ready-to-edit example spec.
#[must_use]
pub fn cmd_init() -> String {
    EnvironmentSpec::example().to_toml()
}

/// `dsd tables` — print the paper's input catalogs (Tables 1–3).
#[must_use]
pub fn cmd_tables() -> String {
    let env = dsd_scenarios::environments::peer_sites();
    let mut out = String::new();
    let _ = writeln!(out, "Table 1: application classes");
    for p in dsd_workload::WorkloadProfile::paper_mix() {
        let _ = writeln!(out, "  {p}");
    }
    let _ = writeln!(out, "\nTable 2: data protection techniques");
    for t in env.catalog.iter() {
        let _ = writeln!(out, "  {t} — recovery: {}", t.recovery);
    }
    let _ = writeln!(out, "\nTable 3: device types");
    for spec in [
        dsd_resources::DeviceSpec::xp1200(),
        dsd_resources::DeviceSpec::eva800(),
        dsd_resources::DeviceSpec::msa1500(),
        dsd_resources::DeviceSpec::tape_library_high(),
        dsd_resources::DeviceSpec::tape_library_med(),
    ] {
        let _ = writeln!(
            out,
            "  {spec}: fixed {}, {} max, {} units of {} / {}",
            spec.fixed_cost,
            spec.enclosure_bandwidth,
            spec.max_capacity_units,
            spec.capacity_per_unit,
            spec.bandwidth_per_unit
        );
    }
    out
}

/// `dsd design <spec.toml>` — solve and render the design, its JSON for
/// `--save`, and, when `with_report` is set (`--report`), the markdown
/// report.
///
/// # Errors
///
/// Spec errors, or a message when no feasible design exists.
pub fn cmd_design(
    spec_text: &str,
    options: RunOptions,
    with_report: bool,
) -> Result<(String, String, Option<String>), Box<dyn Error>> {
    let spec = EnvironmentSpec::from_toml(spec_text)?;
    let env = spec.to_environment()?;
    let cache = EvalCache::new(DEFAULT_CACHE_CAPACITY);
    let budget = Budget::iterations(options.budget);
    // `--portfolio` races greedy/annealing/tabu workers on a shared
    // incumbent; each worker-seed gets the same per-task budget the
    // sequential solver would have received.
    let mut portfolio_info = None;
    let mut outcome = if options.portfolio {
        let portfolio = match options.threads {
            Some(threads) => Portfolio::new(&env).with_workers(threads),
            None => Portfolio::new(&env),
        };
        let seeds: Vec<u64> =
            (0..portfolio.workers() as u64).map(|i| options.seed.wrapping_add(i)).collect();
        let run = portfolio.solve_with_cache(budget, &seeds, &cache);
        portfolio_info = Some((run.workers, run.tasks, run.steals, run.adoptions));
        run.outcome
    } else {
        let mut rng = ChaCha8Rng::seed_from_u64(options.seed);
        DesignSolver::new(&env).with_cache(&cache).solve(budget, &mut rng)
    };
    // Attach the optimality certificate (also publishes the bound.lower /
    // bound.gap_pct gauges into any installed recorder).
    outcome.certify(&env);
    let Some(mut best) = outcome.best.clone() else {
        return Err("no feasible design found within the budget".into());
    };

    // Thread the cost attribution through the observability exporters:
    // gauges land in the metrics snapshot (diffable via `dsd obs diff`),
    // the instant lands in the JSONL / Chrome trace streams.
    if dsd_obs::enabled() {
        let cost = best.cost();
        dsd_obs::gauge("cost.outlay", cost.outlay.as_f64());
        dsd_obs::gauge("cost.penalty.outage", cost.penalties.outage.as_f64());
        dsd_obs::gauge("cost.penalty.loss", cost.penalties.loss.as_f64());
        dsd_obs::gauge("cost.total", cost.total().as_f64());
        dsd_obs::instant_with(
            "cost.attribution",
            "explain",
            vec![
                ("outlay", cost.outlay.as_f64().into()),
                ("outage", cost.penalties.outage.as_f64().into()),
                ("loss", cost.penalties.loss.as_f64().into()),
                ("total", cost.total().as_f64().into()),
            ],
        );
    }

    let mut text = String::new();
    let _ = writeln!(text, "design ({} nodes evaluated):", outcome.stats.nodes_evaluated);
    for (app, a) in best.assignments() {
        let _ = writeln!(
            text,
            "  {:<28} {:<34} primary @ {}",
            env.workloads[*app].name, env.catalog[a.technique].name, a.placement.primary
        );
    }
    let cost = best.cost();
    let _ = writeln!(text, "annual outlay:   {}", cost.outlay);
    let _ = writeln!(text, "outage penalty:  {}", cost.penalties.outage);
    let _ = writeln!(text, "loss penalty:    {}", cost.penalties.loss);
    let _ = writeln!(text, "total:           {}", cost.total());
    if let Some(cert) = &outcome.bound {
        let _ = writeln!(
            text,
            "certificate:     lower bound {}, gap {:.1}% (dominant term: {})",
            cert.lower_bound, cert.gap_pct, cert.dominant_term
        );
    }
    let stats = outcome.stats;
    let _ = writeln!(text, "search statistics:");
    let _ = writeln!(
        text,
        "  evaluations:   {} ({:.0} evals/s)",
        stats.nodes_evaluated,
        outcome.evals_per_sec()
    );
    let _ = writeln!(
        text,
        "  stage times:   greedy {:.3}s, refit {:.3}s, completion {:.3}s",
        stats.greedy_time.as_secs_f64(),
        stats.refit_time.as_secs_f64(),
        stats.completion_time.as_secs_f64()
    );
    if let Some(cache_stats) = outcome.cache {
        let _ = writeln!(
            text,
            "  eval cache:    {} hits / {} misses ({:.1}% hit rate), {} evictions, {} entries",
            cache_stats.hits,
            cache_stats.misses,
            cache_stats.hit_rate() * 100.0,
            cache_stats.evictions,
            cache_stats.entries
        );
    }
    if let Some((workers, tasks, steals, adoptions)) = portfolio_info {
        let _ = writeln!(
            text,
            "  portfolio:     {workers} workers, {tasks} tasks, {steals} steals, {adoptions} adoptions"
        );
    }

    let json = SavedDesign::from_candidate(&env, &best).to_json();
    let report = with_report.then(|| crate::report::markdown(&env, &mut best));
    Ok((text, json, report))
}

/// `dsd evaluate <spec.toml> <design.json>` — re-evaluate a saved design
/// (possibly under edited failure rates) with a per-scenario report.
///
/// # Errors
///
/// Spec/design errors, or a mismatch between the two.
pub fn cmd_evaluate(spec_text: &str, design_text: &str) -> Result<String, Box<dyn Error>> {
    let spec = EnvironmentSpec::from_toml(spec_text)?;
    let env = spec.to_environment()?;
    let design = SavedDesign::from_json(design_text)?;
    let mut candidate = design.to_candidate(&env)?;
    let attribution = candidate.attribution(&env);

    let mut out = String::new();
    let _ = writeln!(out, "cost: {}", attribution.cost);
    let _ = writeln!(out, "scenarios:");
    // One group per scenario that affects an application, in fold order.
    for group in attribution.penalty_items.chunk_by(|a, b| a.scope == b.scope) {
        let _ = writeln!(out, "  {} ({}):", group[0].scope, group[0].likelihood);
        for item in group {
            let _ = writeln!(
                out,
                "    {:<28} {:<22} outage {:<12} loss {}",
                env.workloads[item.app].name,
                item.path.to_string(),
                item.recovery_time.to_string(),
                item.loss_time
            );
        }
    }
    let evaluator = Evaluator::new(&env.workloads, candidate.provision(), env.recovery);
    let windows = evaluator.vulnerability_windows(
        &candidate.protections(&env),
        &attribution.penalty_items,
        env.failures.rates().data_object,
    );
    if !windows.is_empty() {
        let _ = writeln!(out, "double-failure vulnerability windows:");
        for v in &windows {
            let _ = writeln!(out, "  {v}");
        }
        let total: f64 = windows.iter().map(|v| v.expected_annual.as_f64()).sum();
        let _ =
            writeln!(out, "  total expected annual exposure: {}", dsd_units::Dollars::new(total));
    }
    Ok(out)
}

/// `dsd experiment <name>` — run one of the paper's experiments.
///
/// Returns the rendered table and its [`csv`] rendering. Every name but
/// `scheduling` has a CSV form; a `table4` run that finds no feasible
/// design has none. `figure3-wallclock` gives each heuristic
/// `options.budget` seconds of wall time; every other name counts solver
/// iterations.
///
/// # Errors
///
/// Unknown experiment names, and a `figure2` budget whose sample count
/// (10 × budget) overflows.
pub fn cmd_experiment(
    name: &str,
    options: RunOptions,
) -> Result<(String, Option<String>), Box<dyn Error>> {
    let budget = Budget::iterations(options.budget);
    let seed = options.seed;
    let compare = |budget| {
        let fig = figure3::run(budget, 1000, seed);
        (fig.to_string(), Some(csv::figure3_csv(&fig)))
    };
    let sweep = |kind: sensitivity::SweepKind| {
        let fig = sensitivity::run(kind, &kind.paper_rates(), budget, seed);
        (fig.to_string(), Some(csv::sensitivity_csv(&fig)))
    };
    let out = match name {
        "table4" => match table4::run(budget, seed) {
            Some(t) => (t.to_string(), Some(csv::table4_csv(&t))),
            None => ("no feasible design found\n".into(), None),
        },
        "figure2" => {
            let b = options.budget;
            let overflow = || format!("figure2 draws 10 × budget samples; budget {b} overflows");
            let samples =
                b.checked_mul(10).and_then(|n| usize::try_from(n).ok()).ok_or_else(overflow)?;
            let fig = figure2::run(samples, 30, seed);
            (fig.to_string(), Some(csv::figure2_csv(&fig)))
        }
        "figure3" => compare(budget),
        "figure3-wallclock" => compare(Budget::wall_clock(Duration::from_secs(options.budget))),
        "figure4" => {
            let fig = figure4::run(&figure4::paper_app_counts(), budget, seed);
            (fig.to_string(), Some(csv::figure4_csv(&fig)))
        }
        "figure5" => sweep(sensitivity::SweepKind::DataObject),
        "figure6" => sweep(sensitivity::SweepKind::DiskArray),
        "figure7" => sweep(sensitivity::SweepKind::SiteDisaster),
        "ablation" => {
            let study = ablation::run(budget, &[seed, seed.wrapping_add(1), seed.wrapping_add(2)]);
            (study.to_string(), Some(csv::ablation_csv(&study)))
        }
        "scheduling" => {
            let study = scheduling::run(budget, seed);
            (study.map_or_else(|| "no feasible design found\n".into(), |s| s.to_string()), None)
        }
        other => return Err(format!("unknown experiment: {other}").into()),
    };
    Ok(out)
}

/// `dsd analyze-trace <trace.csv>` — measure Table 1 workload
/// characteristics from a block-I/O trace (see `dsd_trace::from_csv` for
/// the format).
///
/// # Errors
///
/// Trace parse errors.
pub fn cmd_analyze_trace(trace_text: &str) -> Result<String, Box<dyn Error>> {
    let trace = dsd_trace::from_csv(trace_text)?;
    let stats = dsd_trace::TraceStats::analyze(&trace);
    let mut out = String::new();
    let _ = writeln!(out, "events:        {}", trace.len());
    let _ = writeln!(out, "duration:      {}", trace.duration);
    let _ = writeln!(out, "capacity:      {}", stats.capacity);
    let _ = writeln!(out, "avg update:    {}", stats.avg_update);
    let _ = writeln!(out, "peak update:   {}", stats.peak_update);
    let _ = writeln!(out, "avg access:    {}", stats.avg_access);
    let _ = writeln!(out, "unique update: {}", stats.unique_update);
    let _ = writeln!(out, "unique frac:   {:.3}", stats.unique_fraction());
    let _ = writeln!(
        out,
        "spec snippet:\n  capacity_gb = {}\n  avg_update_mbps = {:.3}\n  \
         peak_update_mbps = {:.3}\n  avg_access_mbps = {:.3}\n  unique_fraction = {:.3}",
        stats.capacity.as_f64(),
        stats.avg_update.as_f64(),
        stats.peak_update.as_f64(),
        stats.avg_access.as_f64(),
        stats.unique_fraction()
    );
    Ok(out)
}

/// Parses a JSONL trace (or progress log) leniently, rejecting non-blank
/// input from which nothing parses — the one reader behind `dsd obs
/// profile`, `flame` and `curve`.
///
/// # Errors
///
/// A message carrying the first parse error.
pub(crate) fn parse_trace(text: &str) -> Result<dsd_obs::export::ParsedTrace, String> {
    let parsed = dsd_obs::export::parse_jsonl(text);
    if parsed.records.is_empty() && !text.trim().is_empty() {
        let detail = parsed.first_error.unwrap_or_else(|| "no parseable lines".to_string());
        return Err(format!("not a JSONL trace ({detail})"));
    }
    Ok(parsed)
}

/// Machine-readable `dsd explain` export: the full attribution plus the
/// marginal-technique analysis, serialized as one JSON document.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExplainReport {
    /// Line-item cost attribution (bit-exact against the evaluation).
    pub attribution: CostAttribution,
    /// Per-application marginal cost of the chosen technique.
    pub marginals: Vec<TechniqueMarginal>,
    /// Optimality certificate: relaxation lower bound vs. achieved cost.
    pub certificate: Certificate,
}

/// `dsd explain <spec.toml> <design.json> [--top N]` — render the
/// paper-style cost-attribution tables for a saved design and verify
/// that the line items reproduce the evaluated objective bit-for-bit.
/// Returns `(text, json)`; the JSON is the [`ExplainReport`].
///
/// # Errors
///
/// Spec/design errors, or an attribution that fails bit-exact
/// verification (which would be a solver bug, not a user error).
pub fn cmd_explain(
    spec_text: &str,
    design_text: &str,
    top: usize,
) -> Result<(String, String), Box<dyn Error>> {
    let spec = EnvironmentSpec::from_toml(spec_text)?;
    let env = spec.to_environment()?;
    let design = SavedDesign::from_json(design_text)?;
    let mut candidate = design.to_candidate(&env)?;
    candidate.evaluate(&env);
    let attribution = candidate.attribution(&env);
    attribution.verify().map_err(|e| format!("attribution failed bit-exact verification: {e}"))?;
    let bound = lower_bound(&env);
    let certificate = Certificate::new(&bound, candidate.cost().total());
    certificate.verify().map_err(|e| format!("optimality certificate violated: {e}"))?;
    let mut scache = ScenarioOutcomeCache::new();
    let marginals = technique_marginals(&env, &mut candidate, &mut scache);
    let text = crate::report::explain_text(&env, &attribution, &marginals, &certificate, top);
    let report = ExplainReport { attribution, marginals, certificate };
    let json = serde_json::to_string_pretty(&report)?;
    Ok((text, json))
}

/// `dsd tournament [--budget N] [--seed N] [--apps N]` — race the
/// heuristics against the config-grid exhaustive optimum and the
/// relaxation lower bound across a seeded grid of small environments.
/// Returns `(text, json, violations)` where `violations` counts
/// instances breaking the certified `bound <= exhaustive <= heuristic`
/// ordering (the caller turns a nonzero count into a nonzero exit).
///
/// # Errors
///
/// Serialization failures only; an infeasible instance simply records
/// no cost for the affected heuristic.
pub fn cmd_tournament(
    options: RunOptions,
    max_apps: usize,
) -> Result<(String, String, u64), Box<dyn Error>> {
    let config = TournamentConfig {
        seed: options.seed,
        budget: options.budget,
        app_counts: (2..=max_apps.max(2)).collect(),
        ..TournamentConfig::default()
    };
    let report = run_tournament(&config);
    let json = serde_json::to_string_pretty(&report)?;
    Ok((format!("{report}\n"), json, report.violations()))
}

/// `dsd obs diff <run-a> <run-b>` — compare two exported runs (metrics
/// snapshots or explain JSON) leaf-by-leaf and flag regressions with
/// percentage deltas. Returns the rendered diff and the regression
/// count (zero when a run is diffed against itself).
///
/// # Errors
///
/// JSON parse errors in either input.
pub fn cmd_obs_diff(a_text: &str, b_text: &str) -> Result<(String, usize), Box<dyn Error>> {
    use dsd_obs::export::{diff_numeric, DiffClass};
    let a = serde_json::parse(a_text).map_err(|e| format!("run A: {e}"))?;
    let b = serde_json::parse(b_text).map_err(|e| format!("run B: {e}"))?;
    let entries = diff_numeric(&a, &b);

    let mut out = String::new();
    let _ = writeln!(out, "compared {} numeric series", entries.len());
    let mut counts = [0usize; 5]; // regressed, improved, changed, added, removed
    for e in &entries {
        let class = e.classify();
        let (label, idx) = match class {
            DiffClass::Unchanged => continue,
            DiffClass::Regressed => ("REGRESSED", 0),
            DiffClass::Improved => ("improved ", 1),
            DiffClass::Changed => ("changed  ", 2),
            DiffClass::Added => ("added    ", 3),
            DiffClass::Removed => ("removed  ", 4),
        };
        counts[idx] += 1;
        let delta = match e.pct_delta() {
            Some(pct) => format!("{pct:+.2}%"),
            None => "n/a".to_string(),
        };
        let show = |v: Option<f64>| v.map_or("—".to_string(), |v| format!("{v}"));
        let _ = writeln!(
            out,
            "  {label} {:<40} {:>16} -> {:<16} ({delta})",
            e.name,
            show(e.a),
            show(e.b)
        );
    }
    let changed: usize = counts.iter().sum();
    if changed == 0 {
        let _ = writeln!(out, "runs are numerically identical: zero deltas");
    }
    let _ = writeln!(
        out,
        "summary: {} regressions, {} improvements, {} neutral changes, {} added, {} removed",
        counts[0], counts[1], counts[2], counts[3], counts[4]
    );
    Ok((out, counts[0]))
}

/// The metrics digest of `dsd obs profile`: every counter, gauge and
/// histogram of the snapshot, the per-move-type acceptance rates, and
/// the delta cache's scenario reuse.
fn write_metrics(out: &mut String, snapshot: &dsd_obs::MetricsSnapshot) {
    let _ = writeln!(out, "metrics: {} series", snapshot.series_count());
    for (name, value) in &snapshot.counters {
        let _ = writeln!(out, "  counter {name:<28} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let _ = writeln!(out, "  gauge   {name:<28} {value:.4}");
    }
    for (name, h) in &snapshot.histograms {
        let _ = writeln!(
            out,
            "  hist    {name:<28} n={} mean={:.6} p50={:.6} p90={:.6} p95={:.6} p99={:.6} \
             max={:.6}",
            h.count, h.mean, h.p50, h.p90, h.p95, h.p99, h.max
        );
    }
    let rates = snapshot.move_rates();
    if !rates.is_empty() {
        let _ = writeln!(out, "move acceptance rates:");
        for r in &rates {
            let _ = writeln!(
                out,
                "  {:<18} {:>7} trials  {:>7} accepted  ({:.1}%)",
                r.kind,
                r.trials,
                r.accepted,
                r.acceptance_rate().unwrap_or(0.0) * 100.0
            );
        }
    }
    if let (Some(hits), Some(recomputed)) =
        (snapshot.counter("eval.delta_hits"), snapshot.counter("eval.scenarios_recomputed"))
    {
        let total = hits + recomputed;
        if total > 0 {
            #[allow(clippy::cast_precision_loss)]
            let reuse = hits as f64 / total as f64 * 100.0;
            let _ = writeln!(
                out,
                "delta cache: {hits} scenarios replayed / {recomputed} recomputed \
                 ({reuse:.1}% reuse)"
            );
        }
    }
}

/// `dsd obs profile <trace.jsonl> [<metrics.json>] [--top N]` — fold the
/// span stream into the deterministic profile tree and render the top-N
/// self-time table, followed by the metrics digest when a metrics
/// snapshot is supplied. Returns `(text, json)`; the JSON is the
/// schema-versioned profile export.
///
/// # Errors
///
/// An unparseable trace, an unparseable metrics snapshot, or a tree
/// that fails its containment invariant (which would be a recorder bug,
/// not a user error — surfaced as a nonzero exit so CI catches it).
pub fn cmd_obs_profile(
    trace_text: &str,
    metrics_text: Option<&str>,
    top: usize,
) -> Result<(String, String), Box<dyn Error>> {
    let parsed = parse_trace(trace_text)?;
    let mut tree = dsd_obs::ProfileTree::from_records(&parsed.records);
    tree.verify().map_err(|e| format!("profile tree failed its sum invariant: {e}"))?;
    let snapshot: Option<dsd_obs::MetricsSnapshot> =
        metrics_text.map(serde_json::from_str).transpose()?;
    if let Some(snapshot) = &snapshot {
        tree.attach_counters(&snapshot.counters);
    }

    let mut out = String::new();
    let rows = tree.rows();
    let _ = writeln!(
        out,
        "profile: {} nodes over {} threads (quantum {} ns)",
        rows.len(),
        tree.threads,
        tree.quantum_ns
    );
    let total_ms = ns_to_ms(tree.total_ns());
    let _ = writeln!(
        out,
        "attributed: {:.1}% of {total_ms:.3} ms root wall time in non-root nodes",
        tree.attributed_fraction() * 100.0
    );
    if parsed.skipped > 0 {
        let _ = writeln!(out, "parse.skipped: {} malformed lines ignored", parsed.skipped);
    }
    let _ = writeln!(out, "top self-time nodes:");
    let _ = writeln!(
        out,
        "  {:>12} {:>7} {:>12} {:>9}  path",
        "self ms", "self %", "total ms", "count"
    );
    let mut by_self = rows;
    by_self.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
    for row in by_self.iter().take(top) {
        #[allow(clippy::cast_precision_loss)]
        let pct = if tree.total_ns() == 0 {
            0.0
        } else {
            row.self_ns as f64 / tree.total_ns() as f64 * 100.0
        };
        let _ = writeln!(
            out,
            "  {:>12.3} {:>6.1}% {:>12.3} {:>9}  {}",
            ns_to_ms(row.self_ns),
            pct,
            ns_to_ms(row.total_ns),
            row.count,
            row.path
        );
    }

    if let Some(snapshot) = &snapshot {
        write_metrics(&mut out, snapshot);
    }

    let json = serde_json::to_string_pretty(&tree.to_value())?;
    Ok((out, json))
}

/// `dsd obs flame <trace.jsonl>` — render the profile tree in the
/// collapsed-stack format standard flamegraph tooling consumes
/// (`flamegraph.pl`, speedscope, inferno). Returns
/// `(collapsed, enriched_chrome_trace)`; the Chrome trace carries each
/// span's reconstructed call path and self time as arguments.
///
/// # Errors
///
/// An unparseable trace, or a tree failing its containment invariant.
pub fn cmd_obs_flame(trace_text: &str) -> Result<(String, String), Box<dyn Error>> {
    let parsed = parse_trace(trace_text)?;
    let tree = dsd_obs::ProfileTree::from_records(&parsed.records);
    tree.verify().map_err(|e| format!("profile tree failed its sum invariant: {e}"))?;
    Ok((tree.collapsed(), dsd_obs::profile::chrome_trace_enriched(&parsed.records)))
}

fn ns_to_ms(ns: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        ns as f64 / 1_000_000.0
    }
}

/// `dsd obs curve <trace-or-progress.jsonl>...` — turn the progress
/// events of one or more progress logs (`dsd design --progress-log`) or
/// traces (`--trace`) into a convergence-curve report:
/// cost and certificate gap vs time, time-to-X%-gap milestones,
/// per-worker lanes (including steal/adoption cooperation counts), and
/// an A/B table when several runs are given. `lane` narrows every run to
/// one worker lane's events — runs without that lane are dropped.
/// Returns `(text, json, csv)`; the caller writes the exports on
/// `--json` / `--csv`.
///
/// # Errors
///
/// Non-blank input from which nothing parses, or a `lane` present in
/// none of the runs.
pub fn cmd_obs_curve(
    runs: &[(String, String)],
    lane: Option<u64>,
) -> Result<(String, String, String), Box<dyn Error>> {
    let mut curves: Vec<crate::convergence::RunCurve> = runs
        .iter()
        .map(|(name, text)| crate::convergence::RunCurve::parse(name, text))
        .collect::<Result<_, _>>()?;
    if let Some(worker) = lane {
        curves.retain_mut(|c| c.filter_lane(worker));
        if curves.is_empty() {
            return Err(format!("lane {worker} not present in any run").into());
        }
    }
    let text = crate::convergence::render(&curves);
    let json = serde_json::to_string_pretty(&crate::convergence::json_report(&curves))?;
    let csv = crate::convergence::csv(&curves);
    Ok((text, json, csv))
}

/// Builds an environment directly from spec text (helper for tests and
/// the binary's validation path).
///
/// # Errors
///
/// Spec parse/validation errors.
pub fn parse_environment(spec_text: &str) -> Result<Environment, Box<dyn Error>> {
    Ok(EnvironmentSpec::from_toml(spec_text)?.to_environment()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_emits_parseable_spec() {
        let toml_text = cmd_init();
        let env = parse_environment(&toml_text).expect("example is valid");
        assert_eq!(env.workloads.len(), 8);
    }

    #[test]
    fn tables_render_all_catalogs() {
        let text = cmd_tables();
        assert!(text.contains("central banking"));
        assert!(text.contains("async mirror"));
        assert!(text.contains("XP1200"));
        assert!(text.contains("tape library"));
    }

    #[test]
    fn design_and_evaluate_roundtrip() {
        let spec = cmd_init();
        let (text, json, report) =
            cmd_design(&spec, RunOptions { budget: 15, seed: 3, ..RunOptions::default() }, true)
                .expect("solvable");
        assert!(text.contains("total:"));
        assert!(text.contains("search statistics:"));
        assert!(text.contains("eval cache:"));
        assert!(report.expect("asked for").contains("# Dependable storage design report"));
        let eval = cmd_evaluate(&spec, &json).expect("evaluates");
        assert!(eval.contains("cost:"));
        assert!(eval.contains("site disaster"));
    }

    #[test]
    fn analyze_trace_reports_stats() {
        let csv = "secs,block,blocks,kind\n0.0,0,4,W\n60.0,4,4,W\n";
        let out = cmd_analyze_trace(csv).expect("parses");
        assert!(out.contains("avg update"));
        assert!(out.contains("capacity_gb"));
        assert!(cmd_analyze_trace("garbage").is_err());
    }

    #[test]
    fn obs_profile_digests_trace_and_metrics() {
        let recorder = dsd_obs::Recorder::new();
        {
            let _g = recorder.install();
            let mut span = dsd_obs::span("solver.solve", "solver");
            span.arg("budget", 10u64);
            dsd_obs::add("solver.nodes_evaluated", 5);
            dsd_obs::add("solver.trials.reassign", 8);
            dsd_obs::add("solver.accepted.reassign", 2);
            dsd_obs::add("eval.delta_hits", 30);
            dsd_obs::add("eval.scenarios_recomputed", 10);
            dsd_obs::gauge("eval_cache.shard_occupancy.0", 3.0);
            dsd_obs::observe("solver.eval_latency", 0.002);
            drop(span);
        }
        let mut trace = dsd_obs::export::trace_jsonl(&recorder.drain_events());
        let metrics = serde_json::to_string(&recorder.metrics_snapshot()).unwrap();

        let (out, _) = cmd_obs_profile(&trace, Some(&metrics), 10).expect("profiles");
        assert!(out.contains("top self-time nodes:"), "{out}");
        assert!(out.contains("solver.solve"), "{out}");
        assert!(out.contains("counter solver.nodes_evaluated"), "{out}");
        assert!(out.contains("gauge   eval_cache.shard_occupancy.0"), "{out}");
        assert!(out.contains("hist    solver.eval_latency"), "{out}");
        assert!(out.contains("move acceptance rates:"), "{out}");
        assert!(out.contains("reassign"), "{out}");
        assert!(out.contains("(25.0%)"), "{out}");
        assert!(out.contains("delta cache: 30 scenarios replayed / 10 recomputed (75.0% reuse)"));

        // Without a snapshot there is no digest; a torn tail is counted.
        trace.push_str("{\"ts_us\":9.0,\"dur_us\":0.0,\"kind\":\"insta");
        let (out, _) = cmd_obs_profile(&trace, None, 10).expect("profiles despite torn tail");
        assert!(!out.contains("metrics:"), "{out}");
        assert!(out.contains("parse.skipped: 1 malformed lines ignored"), "{out}");

        assert!(cmd_obs_profile("not json", None, 10).is_err());
        assert!(cmd_obs_profile(&trace, Some("not json"), 10).is_err());
    }

    #[test]
    fn obs_curve_digests_a_real_design_progress_log() {
        let spec = cmd_init();
        let recorder = dsd_obs::Recorder::progress_only();
        let _ = {
            let _g = recorder.install();
            cmd_design(&spec, RunOptions { budget: 15, seed: 3, ..RunOptions::default() }, false)
                .expect("solvable")
        };
        let log = dsd_obs::export::trace_jsonl(&recorder.drain_events());
        let (text, json, csv) = cmd_obs_curve(&[("run".to_string(), log)], None).expect("curves");
        assert!(text.contains("time to gap:"), "{text}");
        assert!(text.contains("worker lanes:"), "{text}");
        assert!(json.contains("time_to_5pct_gap_secs"), "{json}");
        assert!(csv.starts_with("run,elapsed_secs,cost,gap_pct"), "{csv}");
        assert!(cmd_obs_curve(&[("bad".to_string(), "not a log".to_string())], None).is_err());
    }

    #[test]
    fn explain_reproduces_the_design_cost_bit_for_bit() {
        let spec = cmd_init();
        let (_, json, _) =
            cmd_design(&spec, RunOptions { budget: 15, seed: 3, ..RunOptions::default() }, false)
                .expect("solvable");
        let (text, report_json) = cmd_explain(&spec, &json, 3).expect("explains");
        assert!(text.contains("objective:"));
        assert!(text.contains("line items reproduce the evaluated total bit-for-bit"));
        assert!(text.contains("outlay by resource kind:"));
        assert!(text.contains("disk arrays"));
        assert!(text.contains("penalties (likelihood-weighted):"));
        assert!(text.contains("top 3 dominant scenarios overall:"));
        assert!(text.contains("marginal cost of chosen techniques vs runner-up:"));
        assert!(report_json.contains("\"attribution\""));
        assert!(report_json.contains("\"marginals\""));
        assert!(report_json.contains("\"penalty_items\""));
        // Round-trips as JSON our vendored parser can read.
        let value = serde_json::parse(&report_json).expect("valid json");
        assert!(value.get("attribution").is_some());

        assert!(cmd_explain("not toml", &json, 3).is_err());
        assert!(cmd_explain(&spec, "not json", 3).is_err());
    }

    /// Golden snapshot of the explain certificate: the JSON fields
    /// rebuild a bit-identical [`Certificate`] that still verifies, and
    /// a tampered achieved cost (below the bound) is rejected.
    #[test]
    fn explain_certificate_round_trips_json_and_rejects_tampering() {
        use dsd_units::Dollars;

        let spec = cmd_init();
        let (_, json, _) =
            cmd_design(&spec, RunOptions { budget: 15, seed: 3, ..RunOptions::default() }, false)
                .expect("solvable");
        let (text, report_json) = cmd_explain(&spec, &json, 3).expect("explains");
        assert!(text.contains("certificate:"));
        assert!(text.contains("relaxation lower bound:"));
        assert!(text.contains("optimality gap:"));
        assert!(text.contains("dominant relaxation term:"));

        let value = serde_json::parse(&report_json).expect("valid json");
        let cert = value.get("certificate").expect("certificate section present");
        let num = |key: &str| match cert.get(key) {
            Some(serde::Value::Float(f)) => *f,
            Some(serde::Value::Int(i)) => *i as f64,
            other => panic!("field `{key}` missing or not numeric: {other:?}"),
        };
        let term = match cert.get("dominant_term") {
            Some(serde::Value::Str(s)) => s.clone(),
            other => panic!("dominant_term missing: {other:?}"),
        };

        let rebuilt = Certificate {
            lower_bound: Dollars::new(num("lower_bound")),
            achieved: Dollars::new(num("achieved")),
            gap_pct: num("gap_pct"),
            dominant_term: term,
            outlay_floor: Dollars::new(num("outlay_floor")),
            penalty_floor: Dollars::new(num("penalty_floor")),
        };
        // Round-trip is bit-exact: re-serializing the rebuilt certificate
        // reproduces the snapshot, and the certificate still verifies.
        assert_eq!(&rebuilt.serialize(), cert, "certificate does not round-trip JSON");
        rebuilt.verify().expect("round-tripped certificate verifies");
        assert!(rebuilt.gap_pct >= 0.0);
        // The gap is consistent with its own fields.
        let expect_gap = (rebuilt.achieved.as_f64() - rebuilt.lower_bound.as_f64())
            / rebuilt.lower_bound.as_f64()
            * 100.0;
        assert!((rebuilt.gap_pct - expect_gap).abs() < 1e-9);

        // Tampering the achieved cost below the bound must be rejected —
        // this is the condition that makes `dsd explain` exit nonzero.
        let mut tampered = rebuilt;
        tampered.achieved = Dollars::new(tampered.lower_bound.as_f64() * 0.5);
        assert!(tampered.verify().is_err(), "achieved below bound must fail verification");
    }

    #[test]
    fn tournament_races_and_certifies_the_grid() {
        let (text, json, violations) =
            cmd_tournament(RunOptions { budget: 6, seed: 11, ..RunOptions::default() }, 2)
                .expect("runs");
        assert_eq!(violations, 0, "{text}");
        assert!(text.contains("Tournament: 2 instances"));
        assert!(text.contains("violations: bound=0 ordering=0"));
        let value = serde_json::parse(&json).expect("valid json");
        assert!(value.get("instances").is_some());
        assert!(value.get("summary").is_some());
    }

    #[test]
    fn obs_diff_of_a_run_against_itself_reports_zero_deltas() {
        let spec = cmd_init();
        let (_, json, _) =
            cmd_design(&spec, RunOptions { budget: 15, seed: 3, ..RunOptions::default() }, false)
                .expect("solvable");
        let (_, report_json) = cmd_explain(&spec, &json, 3).expect("explains");
        let (out, regressions) = cmd_obs_diff(&report_json, &report_json).expect("diffs");
        assert_eq!(regressions, 0);
        assert!(out.contains("runs are numerically identical: zero deltas"));
        assert!(out.contains("summary: 0 regressions"));
    }

    #[test]
    fn obs_diff_flags_cost_regressions_with_pct_deltas() {
        let a = r#"{"counters": {"cache.hit": 10}, "gauges": {"cost.total": 100.0}}"#;
        let b = r#"{"counters": {"cache.hit": 10}, "gauges": {"cost.total": 125.0}}"#;
        let (out, regressions) = cmd_obs_diff(a, b).expect("diffs");
        assert_eq!(regressions, 1);
        assert!(out.contains("REGRESSED"));
        assert!(out.contains("cost.total"));
        assert!(out.contains("+25.00%"));
        assert!(out.contains("summary: 1 regressions"));

        assert!(cmd_obs_diff("not json", b).is_err());
        assert!(cmd_obs_diff(a, "not json").is_err());
    }

    /// Every experiment name runs, and its CSV is the `experiments::csv`
    /// rendering of the same experiment call. Budget 0 keeps each name to
    /// milliseconds: iteration budgets expire at once, and so does
    /// `figure3-wallclock`'s zero seconds, which keeps it deterministic.
    #[test]
    fn experiments_dispatch() {
        let (budget, seed) = (Budget::iterations(0), 7);
        let sweep = |kind: sensitivity::SweepKind| {
            Some(csv::sensitivity_csv(&sensitivity::run(kind, &kind.paper_rates(), budget, seed)))
        };
        let expected = [
            // No feasible design at budget 0, so no CSV.
            ("table4", None),
            ("figure2", Some(csv::figure2_csv(&figure2::run(0, 30, seed)))),
            ("figure3", Some(csv::figure3_csv(&figure3::run(budget, 1000, seed)))),
            (
                "figure3-wallclock",
                Some(csv::figure3_csv(&figure3::run(
                    Budget::wall_clock(Duration::ZERO),
                    1000,
                    seed,
                ))),
            ),
            (
                "figure4",
                Some(csv::figure4_csv(&figure4::run(&figure4::paper_app_counts(), budget, seed))),
            ),
            ("figure5", sweep(sensitivity::SweepKind::DataObject)),
            ("figure6", sweep(sensitivity::SweepKind::DiskArray)),
            ("figure7", sweep(sensitivity::SweepKind::SiteDisaster)),
            ("ablation", Some(csv::ablation_csv(&ablation::run(budget, &[7, 8, 9])))),
            ("scheduling", None),
        ];
        for (name, want) in expected {
            let (text, got) =
                cmd_experiment(name, RunOptions { budget: 0, seed, ..RunOptions::default() })
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!text.is_empty(), "{name}");
            assert_eq!(got, want, "{name}");
        }
        assert!(cmd_experiment("figure9", RunOptions::default()).is_err());

        // Extreme flag values never panic: the ablation seeds wrap, and a
        // figure2 sample count that overflows is an error.
        let seeds_wrap = RunOptions { budget: 0, seed: u64::MAX, ..RunOptions::default() };
        assert!(cmd_experiment("ablation", seeds_wrap).is_ok());
        let samples_overflow =
            RunOptions { budget: 1_844_674_407_370_955_162, ..RunOptions::default() };
        assert!(cmd_experiment("figure2", samples_overflow).is_err());
    }
}
