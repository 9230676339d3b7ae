//! `dsd` — the dependable storage designer CLI.
//!
//! ```text
//! dsd init                               # print an example spec (redirect to env.toml)
//! dsd tables                             # print the paper's input catalogs
//! dsd design env.toml [--budget N] [--seed N] [--portfolio] [--threads N]
//!     [--save design.json] [--report report.md]
//!     [--trace trace.jsonl] [--metrics metrics.json] [--chrome-trace trace.json]
//!     [--progress] [--progress-log progress.jsonl]
//! dsd evaluate env.toml design.json      # re-evaluate a saved design
//! dsd explain env.toml design.json [--top N] [--json report.json]
//! dsd experiment table4|figure2..figure7|ablation [--budget N] [--seed N] [--csv out.csv]
//! dsd experiment figure3-wallclock [--budget SECONDS] [--seed N] [--csv out.csv]
//! dsd experiment scheduling [--budget N] [--seed N]    # no CSV form
//!     (every experiment also takes --trace, --metrics and --chrome-trace)
//! dsd analyze-trace trace.csv
//! dsd obs profile trace.jsonl [metrics.json] [--top N] [--json profile.json]
//! dsd obs flame trace.jsonl [--chrome-trace enriched.json]
//! dsd obs curve trace-or-progress.jsonl... [--lane N] [--json report.json] [--csv curve.csv]
//! dsd obs diff run-a.json run-b.json [--fail-on-regression]
//! dsd tournament [--budget N] [--seed N] [--apps N] [--json report.json]
//! ```
//!
//! A command rejects every flag its usage line does not list.

use std::error::Error;
use std::fs;
use std::io::Write as _;
use std::process::ExitCode;

use dsd_cli::commands::{
    cmd_analyze_trace, cmd_design, cmd_evaluate, cmd_experiment, cmd_explain, cmd_init,
    cmd_obs_curve, cmd_obs_diff, cmd_obs_flame, cmd_obs_profile, cmd_tables, cmd_tournament,
    RunOptions,
};
use dsd_cli::live::ProgressMonitor;

fn usage() -> &'static str {
    "usage:\n  dsd init\n  dsd tables\n  dsd design <spec.toml> [--budget N] [--seed N] [--portfolio] [--threads N] [--save <design.json>] [--report <report.md>] [--trace <trace.jsonl>] [--metrics <metrics.json>] [--chrome-trace <trace.json>] [--progress] [--progress-log <progress.jsonl>]\n  dsd evaluate <spec.toml> <design.json>\n  dsd explain <spec.toml> <design.json> [--top N] [--json <report.json>]\n  dsd experiment <table4|figure2|figure3|figure4|figure5|figure6|figure7|ablation> [--budget N] [--seed N] [--csv <out.csv>] [--trace <trace.jsonl>] [--metrics <metrics.json>] [--chrome-trace <trace.json>]\n  dsd experiment figure3-wallclock [--budget SECONDS] [--seed N] [--csv <out.csv>] [--trace <trace.jsonl>] [--metrics <metrics.json>] [--chrome-trace <trace.json>]\n  dsd experiment scheduling [--budget N] [--seed N] [--trace <trace.jsonl>] [--metrics <metrics.json>] [--chrome-trace <trace.json>]\n  dsd analyze-trace <trace.csv>\n  dsd obs profile <trace.jsonl> [<metrics.json>] [--top N] [--json <profile.json>]\n  dsd obs flame <trace.jsonl> [--chrome-trace <enriched.json>]\n  dsd obs curve <trace-or-progress.jsonl>... [--lane N] [--json <report.json>] [--csv <curve.csv>]\n  dsd obs diff <run-a.json> <run-b.json> [--fail-on-regression]\n  dsd tournament [--budget N] [--seed N] [--apps N] [--json <report.json>]"
}

/// The flags a command reads, as its usage line lists them; `None` for
/// a command that does not exist, which the dispatcher answers with the
/// usage text.
fn accepted_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "init" | "tables" | "evaluate" | "analyze-trace" => &[],
        "design" => &[
            "--budget",
            "--seed",
            "--portfolio",
            "--threads",
            "--save",
            "--report",
            "--trace",
            "--metrics",
            "--chrome-trace",
            "--progress",
            "--progress-log",
        ],
        "explain" | "obs profile" => &["--top", "--json"],
        "experiment" => &["--budget", "--seed", "--csv", "--trace", "--metrics", "--chrome-trace"],
        "experiment scheduling" => {
            &["--budget", "--seed", "--trace", "--metrics", "--chrome-trace"]
        }
        "obs flame" => &["--chrome-trace"],
        "obs curve" => &["--lane", "--json", "--csv"],
        "obs diff" => &["--fail-on-regression"],
        "tournament" => &["--budget", "--seed", "--apps", "--json"],
        _ => return None,
    })
}

/// Output-file options pulled from the flags.
#[derive(Default)]
struct OutputPaths {
    save: Option<String>,
    report: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    chrome_trace: Option<String>,
    json: Option<String>,
    csv: Option<String>,
    progress_log: Option<String>,
    top: Option<usize>,
    apps: Option<usize>,
    lane: Option<u64>,
    fail_on_regression: bool,
    progress: bool,
}

impl OutputPaths {
    /// Whether any flag asked for observability output (and therefore a
    /// recorder must be installed around the solver run).
    fn wants_recording(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some() || self.chrome_trace.is_some()
    }
}

/// Pulls `--budget`/`--seed`/`--save`/`--report` style flags out of the
/// argument list, returning the remaining positionals. A flag the
/// command does not read is an error.
fn parse_flags(args: &[String]) -> Result<(Vec<&str>, RunOptions, OutputPaths), Box<dyn Error>> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut options = RunOptions::default();
    let mut out = OutputPaths::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if arg.starts_with("--") {
            flags.push(arg);
        }
        match arg {
            "--budget" => {
                i += 1;
                let v = args.get(i).ok_or("--budget needs a value")?;
                options.budget = v.parse().map_err(|_| format!("bad budget: {v}"))?;
            }
            "--seed" => {
                i += 1;
                let v = args.get(i).ok_or("--seed needs a value")?;
                options.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--portfolio" => options.portfolio = true,
            "--threads" => {
                i += 1;
                let v = args.get(i).ok_or("--threads needs a value")?;
                let threads: usize = v.parse().map_err(|_| format!("bad threads: {v}"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
                options.threads = Some(threads);
            }
            "--lane" => {
                i += 1;
                let v = args.get(i).ok_or("--lane needs a value")?;
                out.lane = Some(v.parse().map_err(|_| format!("bad lane: {v}"))?);
            }
            "--save" => {
                i += 1;
                out.save = Some(args.get(i).ok_or("--save needs a path")?.clone());
            }
            "--report" => {
                i += 1;
                out.report = Some(args.get(i).ok_or("--report needs a path")?.clone());
            }
            "--trace" => {
                i += 1;
                out.trace = Some(args.get(i).ok_or("--trace needs a path")?.clone());
            }
            "--metrics" => {
                i += 1;
                out.metrics = Some(args.get(i).ok_or("--metrics needs a path")?.clone());
            }
            "--chrome-trace" => {
                i += 1;
                out.chrome_trace = Some(args.get(i).ok_or("--chrome-trace needs a path")?.clone());
            }
            "--json" => {
                i += 1;
                out.json = Some(args.get(i).ok_or("--json needs a path")?.clone());
            }
            "--csv" => {
                i += 1;
                out.csv = Some(args.get(i).ok_or("--csv needs a path")?.clone());
            }
            "--progress-log" => {
                i += 1;
                out.progress_log = Some(args.get(i).ok_or("--progress-log needs a path")?.clone());
            }
            "--top" => {
                i += 1;
                let v = args.get(i).ok_or("--top needs a value")?;
                out.top = Some(v.parse().map_err(|_| format!("bad top: {v}"))?);
            }
            "--apps" => {
                i += 1;
                let v = args.get(i).ok_or("--apps needs a value")?;
                out.apps = Some(v.parse().map_err(|_| format!("bad apps: {v}"))?);
            }
            "--fail-on-regression" => out.fail_on_regression = true,
            "--progress" => out.progress = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag: {flag}").into());
            }
            other => positional.push(other),
        }
        i += 1;
    }
    let command = match positional.as_slice() {
        ["obs", sub, ..] => format!("obs {sub}"),
        ["experiment", "scheduling"] => "experiment scheduling".to_string(),
        [command, ..] => (*command).to_string(),
        [] => String::new(),
    };
    if let Some(accepted) = accepted_flags(&command) {
        if let Some(flag) = flags.iter().find(|flag| !accepted.contains(flag)) {
            return Err(format!("dsd {command} does not take {flag}").into());
        }
    }
    Ok((positional, options, out))
}

/// Writes `text` to stdout. A closed stdout (a reader that stopped
/// early, as in `dsd tables | head -1`) ends the output quietly; any
/// other write error is returned.
fn emit(text: &str) -> std::io::Result<()> {
    let mut stdout = std::io::stdout().lock();
    match stdout.write_all(text.as_bytes()).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        result => result,
    }
}

/// Writes the recorder's progress log/trace/metrics to every requested
/// path. Called after the install guard has dropped, so all buffers have
/// flushed.
fn export_observability(
    recorder: &dsd_obs::Recorder,
    outputs: &OutputPaths,
) -> Result<(), Box<dyn Error>> {
    let events = recorder.drain_events();
    if let Some(path) = &outputs.progress_log {
        let progress: Vec<dsd_obs::Event> =
            events.iter().filter(|e| e.cat == dsd_obs::progress::CATEGORY).cloned().collect();
        fs::write(path, dsd_obs::export::trace_jsonl(&progress))?;
        emit(&format!("progress log written to {path}\n"))?;
    }
    if let Some(path) = &outputs.trace {
        fs::write(path, dsd_obs::export::trace_jsonl(&events))?;
        emit(&format!("trace written to {path}\n"))?;
    }
    if let Some(path) = &outputs.chrome_trace {
        let records: Vec<_> = events.iter().map(dsd_obs::export::TraceRecord::from).collect();
        fs::write(path, dsd_obs::profile::chrome_trace_enriched(&records))?;
        emit(&format!("chrome trace written to {path}\n"))?;
    }
    if let Some(path) = &outputs.metrics {
        let snapshot = recorder.metrics_snapshot();
        fs::write(path, serde_json::to_string(&snapshot)?)?;
        emit(&format!("metrics written to {path}\n"))?;
    }
    Ok(())
}

fn run() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (positional, options, outputs) = parse_flags(&args)?;
    // Solver-running commands record when any observability output was
    // requested; the guard must drop before exporting so per-thread
    // buffers flush.
    let recorder = outputs.wants_recording().then(dsd_obs::Recorder::new);
    match positional.as_slice() {
        ["init"] => emit(&cmd_init())?,
        ["tables"] => emit(&cmd_tables())?,
        ["design", spec_path] => {
            let spec = fs::read_to_string(spec_path)?;
            // Progress events ride the recorder: `--progress` paints them
            // live on stderr, `--progress-log` writes them as JSONL
            // afterwards. Without a trace or metrics output only the
            // progress stream is recorded.
            let recorder = recorder.or_else(|| {
                (outputs.progress || outputs.progress_log.is_some())
                    .then(dsd_obs::Recorder::progress_only)
            });
            let monitor =
                recorder.as_ref().filter(|_| outputs.progress).map(ProgressMonitor::start);
            let result = {
                let _guard = recorder.as_ref().map(dsd_obs::Recorder::install);
                cmd_design(&spec, options, outputs.report.is_some())
            };
            if let Some(monitor) = monitor {
                let _ = monitor.finish();
            }
            if let Some(recorder) = &recorder {
                export_observability(recorder, &outputs)?;
            }
            let (text, json, md) = result?;
            emit(&text)?;
            if let Some(path) = outputs.save {
                fs::write(&path, json)?;
                emit(&format!("design saved to {path}\n"))?;
            }
            if let (Some(path), Some(md)) = (outputs.report, md) {
                fs::write(&path, md)?;
                emit(&format!("report written to {path}\n"))?;
            }
        }
        ["evaluate", spec_path, design_path] => {
            let spec = fs::read_to_string(spec_path)?;
            let design = fs::read_to_string(design_path)?;
            emit(&cmd_evaluate(&spec, &design)?)?;
        }
        ["experiment", name] => {
            let result = {
                let _guard = recorder.as_ref().map(dsd_obs::Recorder::install);
                cmd_experiment(name, options)
            };
            if let Some(recorder) = &recorder {
                export_observability(recorder, &outputs)?;
            }
            let (text, csv) = result?;
            emit(&text)?;
            if let Some(path) = outputs.csv {
                let csv = csv.ok_or_else(|| format!("experiment {name} has no CSV to write"))?;
                fs::write(&path, csv)?;
                emit(&format!("csv written to {path}\n"))?;
            }
        }
        ["analyze-trace", trace_path] => {
            let trace = fs::read_to_string(trace_path)?;
            emit(&cmd_analyze_trace(&trace)?)?;
        }
        ["explain", spec_path, design_path] => {
            let spec = fs::read_to_string(spec_path)?;
            let design = fs::read_to_string(design_path)?;
            let (text, json) = cmd_explain(&spec, &design, outputs.top.unwrap_or(5))?;
            emit(&text)?;
            if let Some(path) = outputs.json {
                fs::write(&path, json)?;
                emit(&format!("explain report written to {path}\n"))?;
            }
        }
        ["obs", "profile", rest @ ..] if matches!(rest.len(), 1 | 2) => {
            let trace = fs::read_to_string(rest[0])?;
            let metrics = rest.get(1).map(fs::read_to_string).transpose()?;
            let (text, json) =
                cmd_obs_profile(&trace, metrics.as_deref(), outputs.top.unwrap_or(10))?;
            emit(&text)?;
            if let Some(path) = outputs.json {
                fs::write(&path, json)?;
                emit(&format!("profile written to {path}\n"))?;
            }
        }
        ["obs", "flame", trace_path] => {
            let trace = fs::read_to_string(trace_path)?;
            let (collapsed, enriched) = cmd_obs_flame(&trace)?;
            emit(&collapsed)?;
            if let Some(path) = outputs.chrome_trace {
                fs::write(&path, enriched)?;
                emit(&format!("enriched chrome trace written to {path}\n"))?;
            }
        }
        ["tournament"] => {
            let (text, json, violations) = cmd_tournament(options, outputs.apps.unwrap_or(4))?;
            emit(&text)?;
            if let Some(path) = outputs.json {
                fs::write(&path, json)?;
                emit(&format!("tournament report written to {path}\n"))?;
            }
            if violations > 0 {
                return Err(format!("{violations} certificate violations detected").into());
            }
        }
        ["obs", "curve", paths @ ..] if !paths.is_empty() => {
            let mut runs = Vec::new();
            for path in paths {
                let text = fs::read_to_string(path)?;
                let name = std::path::Path::new(path)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or(path)
                    .to_string();
                runs.push((name, text));
            }
            let (text, json, csv) = cmd_obs_curve(&runs, outputs.lane)?;
            emit(&text)?;
            if let Some(path) = outputs.json {
                fs::write(&path, json)?;
                emit(&format!("curve report written to {path}\n"))?;
            }
            if let Some(path) = outputs.csv {
                fs::write(&path, csv)?;
                emit(&format!("curve csv written to {path}\n"))?;
            }
        }
        ["obs", "diff", a_path, b_path] => {
            let a = fs::read_to_string(a_path)?;
            let b = fs::read_to_string(b_path)?;
            let (text, regressions) = cmd_obs_diff(&a, &b)?;
            emit(&text)?;
            if outputs.fail_on_regression && regressions > 0 {
                return Err(format!("{regressions} metric regressions detected").into());
            }
        }
        _ => return Err(usage().into()),
    }
    Ok(())
}

/// Renders an error as a one-line structured JSON event (machine-
/// readable counterpart of the human `error:` line on stderr).
fn error_event(e: &dyn Error) -> String {
    use serde::Value;
    dsd_obs::export::to_compact_json(&Value::Map(vec![
        ("event".to_string(), Value::Str("error".to_string())),
        ("message".to_string(), Value::Str(e.to_string())),
    ]))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            dsd_cli::write_stderr(&format!("error: {e}\n{}\n", error_event(e.as_ref())));
            ExitCode::FAILURE
        }
    }
}
