//! End-to-end tests of the `dsd` binary itself.

use std::process::Command;

fn dsd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dsd"))
}

#[test]
fn full_workflow_through_the_binary() {
    let dir = std::env::temp_dir().join(format!("dsd-bin-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("env.toml");
    let design_path = dir.join("design.json");
    let report_path = dir.join("report.md");

    // init -> spec file
    let init = dsd().arg("init").output().expect("runs");
    assert!(init.status.success());
    std::fs::write(&spec_path, &init.stdout).unwrap();

    // design -> stdout + saved json + report
    let design = dsd()
        .args([
            "design",
            spec_path.to_str().unwrap(),
            "--budget",
            "15",
            "--seed",
            "3",
            "--save",
            design_path.to_str().unwrap(),
            "--report",
            report_path.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(design.status.success(), "{}", String::from_utf8_lossy(&design.stderr));
    let stdout = String::from_utf8_lossy(&design.stdout);
    assert!(stdout.contains("total:"));
    assert!(design_path.exists());
    let report = std::fs::read_to_string(&report_path).unwrap();
    assert!(report.contains("# Dependable storage design report"));

    // evaluate the saved design
    let eval = dsd()
        .args(["evaluate", spec_path.to_str().unwrap(), design_path.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(eval.status.success());
    assert!(String::from_utf8_lossy(&eval.stdout).contains("scenarios:"));

    // analyze a hand-written trace
    let trace_path = dir.join("trace.csv");
    std::fs::write(&trace_path, "secs,block,blocks,kind\n0.0,0,4,W\n60.0,4,4,W\n").unwrap();
    let analyze =
        dsd().args(["analyze-trace", trace_path.to_str().unwrap()]).output().expect("runs");
    assert!(analyze.status.success());
    assert!(String::from_utf8_lossy(&analyze.stdout).contains("avg update"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_nonzero_with_usage_text() {
    let out = dsd().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let missing = dsd().args(["design", "/nonexistent/spec.toml"]).output().expect("runs");
    assert!(!missing.status.success());

    let summary = dsd().args(["obs", "summary", "trace.jsonl"]).output().expect("runs");
    assert_eq!(summary.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&summary.stderr).contains("usage:"));
}

/// A command rejects, before doing any work, every flag its usage line
/// does not list, instead of ignoring it.
#[test]
fn flags_a_command_does_not_read_are_rejected() {
    let dir = std::env::temp_dir().join(format!("dsd-flags-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, log) = (dir.join("t.jsonl"), dir.join("p.jsonl"));
    let probes = [
        (
            dsd()
                .args(["evaluate", "env.toml", "design.json", "--trace"])
                .arg(&trace)
                .arg("--progress-log")
                .arg(&log)
                .output(),
            "dsd evaluate does not take --trace",
        ),
        (
            dsd()
                .args(["experiment", "scheduling", "--budget", "5", "--progress-log"])
                .arg(&log)
                .output(),
            "dsd experiment scheduling does not take --progress-log",
        ),
        (dsd().args(["tables", "--seed", "3"]).output(), "dsd tables does not take --seed"),
    ];
    for (out, message) in probes {
        let out = out.expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{message}: {stderr}");
        assert!(stderr.contains(r#"{"event":"error""#), "{message}: {stderr}");
        assert!(stderr.contains(message), "{stderr}");
        assert!(out.stdout.is_empty(), "{message}: no work was done");
    }
    assert!(!trace.exists() && !log.exists(), "no file was written");
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that closes `dsd`'s stdout early ends the output: exit 0,
/// no panic on stderr.
#[test]
fn a_closed_stdout_ends_dsd_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = dsd().arg("tables").stdout(writer).output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "nothing on stderr, no panic: {stderr}");
}

/// A closed stderr (its reader gone) must not turn an error into a
/// panic: `dsd` still ends with the error's exit code 1.
#[test]
fn a_closed_stderr_still_exits_1_on_an_error() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = dsd().args(["tables", "--seed", "3"]).stderr(writer).output().expect("runs");
    assert_eq!(out.status.code(), Some(1), "an error, not a panic (101)");
}

/// A spec whose application counts sum past the loader's cap is
/// rejected before any workload is built, with the typed error and
/// exit code 1.
#[test]
fn a_huge_application_count_is_rejected() {
    let dir = std::env::temp_dir().join(format!("dsd-count-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("env.toml");
    let init = dsd().arg("init").output().expect("runs");
    assert!(init.status.success());
    let spec = String::from_utf8_lossy(&init.stdout).replacen("count = 2", "count = 4000000000", 1);
    assert!(spec.contains("count = 4000000000"), "{spec}");
    std::fs::write(&spec_path, spec).unwrap();
    let out = dsd().args(["design", spec_path.to_str().unwrap()]).output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("invalid spec:") && stderr.contains("4096"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every failure must exit nonzero AND emit a machine-readable error
/// event on stderr alongside the human-readable line.
#[test]
fn failures_emit_a_structured_error_event() {
    let out = dsd().args(["design", "/nonexistent/spec.toml"]).output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "human-readable line present");
    let event_line = stderr
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("structured event line present on stderr");
    let value = serde_json::parse(event_line).expect("event line is valid JSON");
    let str_field = |key: &str| match value.get(key) {
        Some(serde::Value::Str(s)) => s.clone(),
        other => panic!("field `{key}` missing or not a string: {other:?}"),
    };
    assert_eq!(str_field("event"), "error");
    assert!(!str_field("message").is_empty());
}

/// `--trace`/`--metrics`/`--chrome-trace` write parseable observability
/// artifacts, and `dsd obs profile` and `dsd obs flame` digest them.
#[test]
fn design_records_trace_and_metrics() {
    let dir = std::env::temp_dir().join(format!("dsd-obs-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("env.toml");
    let trace_path = dir.join("trace.jsonl");
    let metrics_path = dir.join("metrics.json");
    let chrome_path = dir.join("chrome.json");

    let init = dsd().arg("init").output().expect("runs");
    assert!(init.status.success());
    std::fs::write(&spec_path, &init.stdout).unwrap();

    let design = dsd()
        .args([
            "design",
            spec_path.to_str().unwrap(),
            "--budget",
            "15",
            "--seed",
            "3",
            "--trace",
            trace_path.to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
            "--chrome-trace",
            chrome_path.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(design.status.success(), "{}", String::from_utf8_lossy(&design.stderr));

    // The JSONL trace parses and contains the advertised event taxonomy.
    let trace_text = std::fs::read_to_string(&trace_path).unwrap();
    let parsed = dsd_obs::export::parse_jsonl(&trace_text);
    assert_eq!(parsed.skipped, 0, "clean trace: {:?}", parsed.first_error);
    let records = parsed.records;
    let has = |name: &str| records.iter().any(|r| r.name == name);
    assert!(has("greedy.place"), "greedy placements");
    assert!(has("refit.move"), "refit moves");
    assert!(has("cache.hit") || has("cache.miss"), "cache lookups");
    assert!(has("recovery.scenario"), "scenario evaluations");

    // The metrics snapshot parses and has the headline series.
    let metrics_text = std::fs::read_to_string(&metrics_path).unwrap();
    let snapshot: dsd_obs::MetricsSnapshot =
        serde_json::from_str(&metrics_text).expect("metrics parse");
    assert!(snapshot.series_count() >= 5, "got {} series", snapshot.series_count());
    assert!(snapshot.counter("solver.nodes_evaluated").unwrap_or(0) > 0);
    assert!(snapshot.histogram("solver.eval_latency").is_some());

    // The Chrome trace is the enriched one: a non-empty `traceEvents`
    // array whose spans carry their call path.
    let chrome_text = std::fs::read_to_string(&chrome_path).unwrap();
    let chrome = serde_json::parse(&chrome_text).expect("chrome trace parses");
    let Some(serde::Value::Seq(trace_events)) = chrome.get("traceEvents") else {
        panic!("no traceEvents array: {chrome_text}");
    };
    assert!(!trace_events.is_empty());
    let spans: Vec<_> = trace_events
        .iter()
        .filter(|e| e.get("ph") == Some(&serde::Value::Str("X".into())))
        .collect();
    assert!(!spans.is_empty(), "spans exported");
    assert!(
        spans.iter().all(|e| e.get("args").and_then(|a| a.get("path")).is_some()),
        "every span carries its call path"
    );

    // The solver publishes per-move-type convergence counters and the
    // final cost gauges for downstream diffing.
    assert!(snapshot.counter("solver.trials.reassign").unwrap_or(0) > 0);
    assert!(snapshot.gauge("cost.total").is_some());

    // obs profile folds the same trace into a verified span tree, digests
    // the metrics, and writes the schema-versioned JSON export.
    let profile_json_path = dir.join("profile.json");
    let profile = dsd()
        .args([
            "obs",
            "profile",
            trace_path.to_str().unwrap(),
            metrics_path.to_str().unwrap(),
            "--top",
            "5",
            "--json",
            profile_json_path.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(profile.status.success(), "{}", String::from_utf8_lossy(&profile.stderr));
    let text = String::from_utf8_lossy(&profile.stdout);
    assert!(text.contains("attributed:"), "{text}");
    assert!(text.contains("solver.solve"), "{text}");
    assert!(text.contains("metrics:"), "{text}");
    assert!(text.contains("counter solver.nodes_evaluated"), "{text}");
    assert!(text.contains("move acceptance rates:"), "{text}");
    assert!(text.contains("delta cache:"), "{text}");
    let profile_value = serde_json::parse(&std::fs::read_to_string(&profile_json_path).unwrap())
        .expect("profile json parses");
    assert_eq!(profile_value.get("schema_version"), Some(&serde::Value::Int(1)));

    // obs flame renders collapsed stacks (path, space, integer µs) and
    // the path-enriched Chrome trace.
    let enriched_path = dir.join("enriched.json");
    let flame = dsd()
        .args([
            "obs",
            "flame",
            trace_path.to_str().unwrap(),
            "--chrome-trace",
            enriched_path.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(flame.status.success(), "{}", String::from_utf8_lossy(&flame.stderr));
    let collapsed = String::from_utf8_lossy(&flame.stdout);
    assert!(
        collapsed.lines().any(|l| {
            l.starts_with("solver.solve;")
                && l.rsplit(' ').next().is_some_and(|n| n.parse::<u64>().is_ok())
        }),
        "collapsed stacks malformed: {collapsed}"
    );
    assert!(std::fs::read_to_string(&enriched_path).unwrap().contains("\"path\""));

    std::fs::remove_dir_all(&dir).ok();
}

/// `dsd explain` reproduces the saved design's objective bit-for-bit
/// (it exits nonzero otherwise), and `dsd obs diff` of a run against
/// itself reports zero deltas while a doctored run trips
/// `--fail-on-regression`.
#[test]
fn explain_and_obs_diff_through_the_binary() {
    let dir = std::env::temp_dir().join(format!("dsd-explain-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("env.toml");
    let design_path = dir.join("design.json");
    let explain_path = dir.join("explain.json");

    let init = dsd().arg("init").output().expect("runs");
    assert!(init.status.success());
    std::fs::write(&spec_path, &init.stdout).unwrap();

    let design = dsd()
        .args([
            "design",
            spec_path.to_str().unwrap(),
            "--budget",
            "15",
            "--seed",
            "3",
            "--save",
            design_path.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(design.status.success(), "{}", String::from_utf8_lossy(&design.stderr));

    // explain: paper-style breakdown + machine-readable report.
    let explain = dsd()
        .args([
            "explain",
            spec_path.to_str().unwrap(),
            design_path.to_str().unwrap(),
            "--top",
            "3",
            "--json",
            explain_path.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(explain.status.success(), "{}", String::from_utf8_lossy(&explain.stderr));
    let text = String::from_utf8_lossy(&explain.stdout);
    assert!(text.contains("line items reproduce the evaluated total bit-for-bit"));
    assert!(text.contains("outlay by resource kind:"));
    assert!(text.contains("marginal cost of chosen techniques vs runner-up:"));
    // The optimality certificate is part of the human-readable output...
    assert!(text.contains("certificate:"));
    assert!(text.contains("relaxation lower bound:"));
    assert!(text.contains("optimality gap:"));
    let explain_json = std::fs::read_to_string(&explain_path).unwrap();
    let report = serde_json::parse(&explain_json).expect("explain JSON parses");
    assert!(report.get("attribution").is_some());
    assert!(report.get("marginals").is_some());
    // ...and of the machine-readable export.
    let cert = report.get("certificate").expect("certificate in explain JSON");
    assert!(cert.get("lower_bound").is_some());
    assert!(cert.get("gap_pct").is_some());
    assert!(cert.get("dominant_term").is_some());

    // Self-diff: numerically identical, zero regressions, exit 0 even
    // with --fail-on-regression.
    let diff = dsd()
        .args([
            "obs",
            "diff",
            explain_path.to_str().unwrap(),
            explain_path.to_str().unwrap(),
            "--fail-on-regression",
        ])
        .output()
        .expect("runs");
    assert!(diff.status.success(), "{}", String::from_utf8_lossy(&diff.stderr));
    let diff_text = String::from_utf8_lossy(&diff.stdout);
    assert!(diff_text.contains("runs are numerically identical: zero deltas"));
    assert!(diff_text.contains("summary: 0 regressions"));

    // A doctored run with a higher cost trips --fail-on-regression.
    let worse_path = dir.join("worse.json");
    std::fs::write(&worse_path, r#"{"gauges": {"cost.total": 200.0}}"#).unwrap();
    let base_path = dir.join("base.json");
    std::fs::write(&base_path, r#"{"gauges": {"cost.total": 100.0}}"#).unwrap();
    let regressed = dsd()
        .args([
            "obs",
            "diff",
            base_path.to_str().unwrap(),
            worse_path.to_str().unwrap(),
            "--fail-on-regression",
        ])
        .output()
        .expect("runs");
    assert!(!regressed.status.success(), "a cost regression must exit nonzero");
    assert!(String::from_utf8_lossy(&regressed.stdout).contains("REGRESSED"));

    std::fs::remove_dir_all(&dir).ok();
}

/// `dsd tournament` races the heuristics on a tiny grid, certifies the
/// `bound <= exhaustive <= heuristic` ordering (exit 0 means zero
/// violations), and writes the machine-readable report.
#[test]
fn tournament_subcommand_certifies_and_writes_json() {
    let dir = std::env::temp_dir().join(format!("dsd-tournament-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("tournament.json");

    let out = dsd()
        .args([
            "tournament",
            "--apps",
            "2",
            "--budget",
            "6",
            "--seed",
            "11",
            "--json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Tournament: 2 instances"));
    assert!(text.contains("violations: bound=0 ordering=0"));
    assert!(text.contains("heuristic gaps (vs exhaustive | vs bound)"));

    let json = std::fs::read_to_string(&json_path).unwrap();
    let report = serde_json::parse(&json).expect("tournament JSON parses");
    assert!(report.get("instances").is_some());
    assert!(report.get("summary").is_some());
    assert!(matches!(report.get("bound_violations"), Some(serde::Value::Int(0))));

    std::fs::remove_dir_all(&dir).ok();
}

/// Progress events end to end: a seeded `dsd design --progress-log`
/// writes a JSONL event stream whose final incumbent bit-matches the
/// published cost/gap gauges, and `dsd obs curve` digests the log into a
/// convergence report with time-to-gap milestones.
#[test]
fn progress_log_bit_matches_the_metrics_and_curves_render() {
    let dir = std::env::temp_dir().join(format!("dsd-progress-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("env.toml");
    let progress_path = dir.join("progress.jsonl");
    let metrics_path = dir.join("metrics.json");
    let report_path = dir.join("curve.json");
    let csv_path = dir.join("curve.csv");

    let init = dsd().arg("init").output().expect("runs");
    assert!(init.status.success());
    std::fs::write(&spec_path, &init.stdout).unwrap();

    let design = dsd()
        .args([
            "design",
            spec_path.to_str().unwrap(),
            "--budget",
            "15",
            "--seed",
            "3",
            "--progress",
            "--progress-log",
            progress_path.to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(design.status.success(), "{}", String::from_utf8_lossy(&design.stderr));
    // `--progress` paints the live status line on stderr.
    let live = String::from_utf8_lossy(&design.stderr);
    assert!(live.contains("cost $"), "live status line painted: {live}");

    // The log parses cleanly, holds only progress events, and ends with
    // a done marker.
    let log_text = std::fs::read_to_string(&progress_path).unwrap();
    let parsed = dsd_obs::export::parse_jsonl(&log_text);
    assert_eq!(parsed.skipped, 0, "clean log: {:?}", parsed.first_error);
    let events: Vec<dsd_obs::ProgressEvent> =
        parsed.records.iter().filter_map(dsd_obs::ProgressEvent::decode).collect();
    assert_eq!(events.len(), parsed.records.len(), "every line is a progress event");
    assert!(
        matches!(events.last().map(|e| &e.kind), Some(dsd_obs::ProgressKind::Done { .. })),
        "log ends with a done event"
    );

    // The final incumbent event bit-matches the published gauges: the
    // recorder observes the same floats the solver reports.
    let (final_cost, final_gap) = events
        .iter()
        .rev()
        .find_map(|e| match e.kind {
            dsd_obs::ProgressKind::IncumbentImproved { cost, gap_pct, .. } => Some((cost, gap_pct)),
            _ => None,
        })
        .expect("at least one incumbent event");
    let metrics_text = std::fs::read_to_string(&metrics_path).unwrap();
    let snapshot: dsd_obs::MetricsSnapshot =
        serde_json::from_str(&metrics_text).expect("metrics parse");
    let gauge_cost = snapshot.gauge("cost.total").expect("cost.total gauge");
    assert_eq!(final_cost.to_bits(), gauge_cost.to_bits(), "incumbent cost bit-matches");
    let gauge_gap = snapshot.gauge("bound.gap_pct").expect("bound.gap_pct gauge");
    assert_eq!(
        final_gap.map(f64::to_bits),
        Some(gauge_gap.to_bits()),
        "incumbent gap bit-matches the certificate"
    );

    // `dsd obs curve` renders milestones and writes the exports.
    let curve = dsd()
        .args([
            "obs",
            "curve",
            progress_path.to_str().unwrap(),
            "--json",
            report_path.to_str().unwrap(),
            "--csv",
            csv_path.to_str().unwrap(),
        ])
        .output()
        .expect("runs");
    assert!(curve.status.success(), "{}", String::from_utf8_lossy(&curve.stderr));
    let text = String::from_utf8_lossy(&curve.stdout);
    assert!(text.contains("time to gap:"), "{text}");
    assert!(text.contains("worker lanes:"), "{text}");

    let report = serde_json::parse(&std::fs::read_to_string(&report_path).unwrap())
        .expect("curve report parses");
    assert!(report.get("runs").is_some());
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    assert!(csv.starts_with("run,elapsed_secs,cost,gap_pct"), "{csv}");

    std::fs::remove_dir_all(&dir).ok();
}

/// One pipeline: a full trace carries the progress events a progress log
/// holds, so `dsd obs curve` prints the same report for either file of
/// one run, apart from the run name.
#[test]
fn obs_curve_reads_a_trace_like_its_progress_log() {
    let dir = std::env::temp_dir().join(format!("dsd-curve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("env.toml");
    let trace_path = dir.join("t.jsonl");
    let progress_path = dir.join("p.jsonl");

    let init = dsd().arg("init").output().expect("runs");
    assert!(init.status.success());
    std::fs::write(&spec_path, &init.stdout).unwrap();
    let design = dsd()
        .args(["design", spec_path.to_str().unwrap(), "--budget", "15", "--seed", "3"])
        .arg("--trace")
        .arg(&trace_path)
        .arg("--progress-log")
        .arg(&progress_path)
        .output()
        .expect("runs");
    assert!(design.status.success(), "{}", String::from_utf8_lossy(&design.stderr));

    let curve = |path: &std::path::Path| {
        let out = dsd().args(["obs", "curve"]).arg(path).output().expect("runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let from_trace = curve(&trace_path);
    assert!(from_trace.starts_with("run t: "), "{from_trace}");
    assert!(from_trace.contains("final: cost $"), "{from_trace}");
    assert_eq!(from_trace.replacen("run t: ", "run p: ", 1), curve(&progress_path));

    std::fs::remove_dir_all(&dir).ok();
}

/// One fold: on a two-worker portfolio run, `dsd design`'s node count,
/// the last live `--progress` line and `dsd obs curve` of the progress
/// log report the same number of evaluations.
#[test]
fn design_live_line_and_curve_count_the_same_evaluations() {
    let dir = std::env::temp_dir().join(format!("dsd-evals-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("env.toml");
    let progress_path = dir.join("p.jsonl");
    let init = dsd().arg("init").output().expect("runs");
    assert!(init.status.success());
    std::fs::write(&spec_path, &init.stdout).unwrap();
    let design = dsd()
        .args(["design", spec_path.to_str().unwrap(), "--portfolio", "--threads", "2"])
        .args(["--budget", "20", "--seed", "7", "--progress", "--progress-log"])
        .arg(&progress_path)
        .output()
        .expect("runs");
    assert!(design.status.success(), "{}", String::from_utf8_lossy(&design.stderr));

    // The number after `key` in `text`.
    let number_after = |text: &str, key: &str| -> u64 {
        let rest =
            &text[text.find(key).unwrap_or_else(|| panic!("`{key}` in {text}")) + key.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().unwrap_or_else(|_| panic!("a number after `{key}` in {text}"))
    };
    let stdout = String::from_utf8_lossy(&design.stdout);
    let designed = number_after(&stdout, "design (");
    let stderr = String::from_utf8_lossy(&design.stderr);
    let last_line = stderr.rsplit('\r').next().unwrap_or_default();
    let live = number_after(last_line, " evals ");
    assert!(last_line.trim_end().ends_with(" done"), "the final paint says done: {last_line}");

    let curve = dsd().args(["obs", "curve"]).arg(&progress_path).output().expect("runs");
    assert!(curve.status.success(), "{}", String::from_utf8_lossy(&curve.stderr));
    let text = String::from_utf8_lossy(&curve.stdout);
    let final_line = text.lines().find(|l| l.contains("final:")).expect("final line");
    let curved = number_after(final_line, "%, ");

    assert!(designed > 0);
    assert_eq!((live, curved), (designed, designed), "{last_line}\n{final_line}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `dsd design` renders its markdown report, an attributed penalty fold
/// over every scenario, only when `--report` asks for it: without the
/// flag, no penalty fold or scenario evaluation starts after the solve
/// ends.
#[test]
fn design_renders_its_report_only_when_asked() {
    let dir = std::env::temp_dir().join(format!("dsd-report-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("env.toml");
    let trace_path = dir.join("t.jsonl");
    let report_path = dir.join("report.md");
    let init = dsd().arg("init").output().expect("runs");
    assert!(init.status.success());
    std::fs::write(&spec_path, &init.stdout).unwrap();

    // Penalty-fold spans and scenario instants that start after the
    // last `solver.solve` span ends.
    let evaluations_after_the_solve = |report: bool| -> usize {
        let mut design = dsd();
        design.args(["design", spec_path.to_str().unwrap(), "--budget", "40", "--seed", "7"]);
        design.arg("--trace").arg(&trace_path);
        if report {
            design.arg("--report").arg(&report_path);
        }
        let out = design.output().expect("runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let records = dsd_obs::export::parse_jsonl(&trace).records;
        let solved = records
            .iter()
            .filter(|r| r.name == "solver.solve")
            .map(|r| r.ts_us + r.dur_us)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(solved.is_finite(), "the trace holds the solve");
        records
            .iter()
            .filter(|r| r.name == "recovery.annual_penalties" || r.name == "recovery.scenario")
            .filter(|r| r.ts_us >= solved)
            .count()
    };

    assert_eq!(evaluations_after_the_solve(false), 0);
    assert!(!report_path.exists(), "no report without --report");
    assert!(evaluations_after_the_solve(true) > 0, "the report prices every scenario");
    let report = std::fs::read_to_string(&report_path).unwrap();
    assert!(report.contains("# Dependable storage design report"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Hand-edited saved designs that used to panic (or pass silently) make
/// `dsd evaluate` exit 1 with the structured error event.
#[test]
fn evaluate_rejects_inconsistent_saved_designs() {
    let dir = std::env::temp_dir().join(format!("dsd-saved-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("env.toml");
    let design_path = dir.join("design.json");
    let init = dsd().arg("init").output().expect("runs");
    assert!(init.status.success());
    std::fs::write(&spec_path, &init.stdout).unwrap();
    let design = dsd()
        .args(["design", spec_path.to_str().unwrap(), "--budget", "15", "--seed", "3", "--save"])
        .arg(&design_path)
        .output()
        .expect("runs");
    assert!(design.status.success(), "{}", String::from_utf8_lossy(&design.stderr));
    let saved = serde_json::parse(&std::fs::read_to_string(&design_path).unwrap()).unwrap();
    let serde::Value::Map(top) = &saved else { panic!("design is an object") };
    let Some(serde::Value::Seq(assignments)) = saved.get("assignments") else {
        panic!("no assignments")
    };
    let placement_of = |a: &serde::Value| a.get("placement").cloned().unwrap();
    let mirrored = assignments
        .iter()
        .position(|a| !matches!(placement_of(a).get("mirror"), Some(serde::Value::Null) | None))
        .expect("the example design mirrors some app");

    // Rebuilds the design with `edit` applied to the assignment list.
    let edited = |edit: &dyn Fn(&mut Vec<serde::Value>)| {
        let mut list = assignments.clone();
        edit(&mut list);
        let fields = top
            .iter()
            .map(|(k, v)| {
                let v =
                    if k == "assignments" { serde::Value::Seq(list.clone()) } else { v.clone() };
                (k.clone(), v)
            })
            .collect();
        serde_json::to_string(&serde::Value::Map(fields)).unwrap()
    };
    // Replaces `key` inside `path` (an object nested in an assignment).
    let set = |item: &mut serde::Value, path: &str, key: &str, value: serde::Value| {
        let serde::Value::Map(fields) = item else { panic!("assignment is an object") };
        let (_, inner) = fields.iter_mut().find(|(k, _)| k == path).expect("nested object");
        let serde::Value::Map(inner) = inner else { panic!("{path} is an object") };
        inner.iter_mut().find(|(k, _)| k == key).expect("field present").1 = value;
    };
    let probes: Vec<(&str, String)> = vec![
        ("duplicate app", edited(&|list| list.push(list[0].clone()))),
        (
            "negative snapshot interval",
            edited(&|list| {
                set(&mut list[0], "config", "snapshot_interval", serde::Value::Float(-1.0));
            }),
        ),
        (
            "mirror removed",
            edited(&|list| set(&mut list[mirrored], "placement", "mirror", serde::Value::Null)),
        ),
        (
            "unknown route",
            edited(&|list| set(&mut list[mirrored], "placement", "route", serde::Value::Int(999))),
        ),
    ];
    for (probe, text) in probes {
        std::fs::write(&design_path, text).unwrap();
        let out = dsd()
            .args(["evaluate", spec_path.to_str().unwrap(), design_path.to_str().unwrap()])
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{probe}: {stderr}");
        assert!(stderr.contains(r#"{"event":"error""#), "{probe}: {stderr}");
        assert!(stderr.contains("design does not fit environment"), "{probe}: {stderr}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tables_subcommand_prints_catalogs() {
    let out = dsd().arg("tables").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Table 1"));
    assert!(text.contains("XP1200"));
}

/// `dsd experiment --csv` writes the run's `experiments::csv` rendering;
/// a run with no CSV form exits 1 with the error event and writes no file.
#[test]
fn experiment_writes_its_csv_or_refuses() {
    use dsd_core::Budget;
    use dsd_scenarios::experiments::{csv, table4};

    let dir = std::env::temp_dir().join(format!("dsd-experiment-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let table_path = dir.join("table4.csv");
    let out = dsd()
        .args(["experiment", "table4", "--budget", "10", "--seed", "7", "--csv"])
        .arg(&table_path)
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let table = table4::run(Budget::iterations(10), 7).expect("feasible at budget 10");
    assert_eq!(std::fs::read_to_string(&table_path).unwrap(), csv::table4_csv(&table));

    let schedule_path = dir.join("scheduling.csv");
    let out = dsd()
        .args(["experiment", "scheduling", "--budget", "10", "--seed", "7", "--csv"])
        .arg(&schedule_path)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains(r#"{"event":"error""#));
    assert!(!schedule_path.exists());

    std::fs::remove_dir_all(&dir).ok();
}
