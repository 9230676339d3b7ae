//! `dsd-benchmark`: one repeatable benchmark of the designer, end to end
//! and layer by layer, over four fixed reference workloads.
//!
//! The library drives the public APIs of the designer crates from
//! outside, following the call sequences of `dsd design` and
//! `dsd explain`. A run prints one JSON line as its last line of
//! standard output; see the crate README for the metrics, the workloads
//! and why each was chosen.

pub mod alloc;
mod layers;
mod report;
mod stats;
mod workload;

use std::process::Command;

use dsd_obs::Stopwatch;

pub use report::Report;
pub use workload::{Scale, Workload};

/// Counts heap allocations for the per-layer metrics. Declared here so
/// the binary and every test target link the same allocator.
#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 2006;
/// Measuring time of one run, in seconds, when none is given.
pub const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "\
usage: dsd-benchmark run <workload|all> [--seed N] [--seconds S]
       dsd-benchmark trace <workload> [--seed N]
       dsd-benchmark --workload <workload> [--seed N] [--seconds S] [--trace 0|1]
workloads: peer_sites four_sites16 fleet64_portfolio explain_four_sites16";

/// One benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
struct Request {
    /// `None` runs every workload, each in its own process.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Runs one workload in this process and returns its report: the
/// end-to-end metrics measured for `seconds`, or with `trace` the
/// per-layer metrics (whose length the layer plan sets).
#[must_use]
pub fn run(workload: Workload, scale: Scale, seed: u64, seconds: f64, trace: bool) -> Report {
    if trace {
        layers::traced(workload, scale, seed)
    } else {
        workload::end_to_end(workload, scale, seed, seconds)
    }
}

/// Command-line entry point; returns the process exit code.
#[must_use]
pub fn cli(args: &[String]) -> i32 {
    let request = match parse(args) {
        Ok(request) => request,
        Err(e) => {
            eprintln!("dsd-benchmark: {e}\n{USAGE}");
            return 2;
        }
    };
    match request.workload {
        Some(workload) => {
            let report = run(workload, Scale::Full, request.seed, request.seconds, request.trace);
            println!("{}", report.to_json());
            i32::from(!report.correct())
        }
        None => run_all(&request),
    }
}

/// `run all`: re-executes this binary once per workload, so each
/// workload's peak RSS is its own, and prints one line per workload.
fn run_all(request: &Request) -> i32 {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("dsd-benchmark: cannot locate own executable");
        return 1;
    };
    let clock = Stopwatch::start();
    let mut code = 0;
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &request.seed.to_string()])
            .args(["--seconds", &request.seconds.to_string()])
            .args(["--trace", if request.trace { "1" } else { "0" }])
            .output();
        let (ok, line) = match &output {
            Ok(out) => (
                out.status.success(),
                String::from_utf8_lossy(&out.stdout).lines().last().unwrap_or("").to_string(),
            ),
            Err(_) => (false, String::new()),
        };
        if let Some(rest) = line.strip_prefix('{') {
            println!("{{\"workload\":\"{}\",{rest}", workload.name());
        }
        if !ok {
            eprintln!("dsd-benchmark: workload {} failed", workload.name());
            code = 1;
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "{{\"seed\":{},\"seconds\":{},\"nproc\":{nproc},\"wall_s\":{}}}",
        request.seed,
        request.seconds,
        clock.elapsed_secs()
    );
    code
}

fn parse(args: &[String]) -> Result<Request, String> {
    let mut request =
        Request { workload: None, seed: DEFAULT_SEED, seconds: DEFAULT_SECONDS, trace: false };
    let mut rest = args;
    let mut named = None;
    match args.first().map(String::as_str) {
        Some(command @ ("run" | "trace")) => {
            named = Some(args.get(1).ok_or(format!("`{command}` needs a workload"))?.as_str());
            request.trace = command == "trace";
            rest = &args[2..];
        }
        Some(_) => {}
        None => return Err("no command".into()),
    }
    for pair in rest.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("`{}` needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" if named.is_none() => named = Some(value.as_str()),
            "--seed" => request.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                request.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds `{value}`"))?;
            }
            "--trace" if args[0].starts_with("--") => {
                request.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                };
            }
            _ => return Err(format!("unexpected `{flag}`")),
        }
    }
    match named {
        Some("all") if !request.trace && args[0] == "run" => {}
        Some(name) => {
            request.workload =
                Some(Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?);
        }
        None => return Err("no workload".into()),
    }
    Ok(request)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_every_command_form() {
        let flags = parse(&args("--workload peer_sites --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            flags,
            Request { workload: Some(Workload::PeerSites), seed: 7, seconds: 3.0, trace: true }
        );
        let run = parse(&args("run four_sites16")).unwrap();
        assert_eq!(run.workload, Some(Workload::FourSites16));
        assert_eq!((run.seed, run.seconds, run.trace), (DEFAULT_SEED, DEFAULT_SECONDS, false));
        assert_eq!(parse(&args("run all --seed 9")).unwrap().workload, None);
        let trace = parse(&args("trace fleet64_portfolio")).unwrap();
        assert!(trace.trace && trace.workload == Some(Workload::Fleet64Portfolio));
    }

    /// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
    fn declared(manifest: &serde::Value, list: &str) -> Vec<(String, String)> {
        let Some(serde::Value::Seq(entries)) = manifest.get(list) else {
            panic!("BENCHMARK.json has no `{list}` list");
        };
        let field = |entry: &serde::Value, key: &str| match entry.get(key) {
            Some(serde::Value::Str(s)) => s.clone(),
            other => panic!("`{list}` entry field `{key}` is {other:?}"),
        };
        let mut pairs: Vec<_> =
            entries.iter().map(|e| (field(e, "name"), field(e, "unit"))).collect();
        pairs.sort();
        pairs
    }

    /// A tiny run of every workload, end to end and traced, passes its
    /// checks and emits exactly the workloads and metrics (names and
    /// units) `BENCHMARK.json` declares, as one parseable JSON line.
    #[test]
    fn output_matches_the_declared_benchmark() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let manifest = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let Some(serde::Value::Seq(workloads)) = manifest.get("workloads") else {
            panic!("BENCHMARK.json has no workload list");
        };
        let names: Vec<_> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let ours: Vec<_> =
            Workload::ALL.iter().map(|w| serde::Value::Str(w.name().to_string())).collect();
        assert_eq!(names, ours.iter().collect::<Vec<_>>());

        for (list, trace) in [("end_to_end", false), ("per_layer", true)] {
            let expected = declared(&manifest, list);
            for workload in Workload::ALL {
                let report = run(workload, Scale::Tiny, 7, 0.0, trace);
                assert!(report.correct(), "{} trace={trace}: {report:?}", workload.name());
                let line = report.to_json();
                let parsed = serde_json::parse(&line).expect("the result line is JSON");
                let serde::Value::Map(keys) = &parsed else { panic!("not an object: {line}") };
                let keys: Vec<_> = keys.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let Some(serde::Value::Map(metrics)) = parsed.get("metrics") else {
                    panic!("no metrics in {line}");
                };
                let mut emitted: Vec<_> = metrics
                    .iter()
                    .map(|(name, m)| match m.get("unit") {
                        Some(serde::Value::Str(unit)) => (name.clone(), unit.clone()),
                        other => panic!("{name} has unit {other:?}"),
                    })
                    .collect();
                emitted.sort();
                assert_eq!(emitted, expected, "{} trace={trace}", workload.name());
                assert!(report.names().all(report::valid_name), "{line}");
            }
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "run",
            "run nosuch",
            "trace all",
            "run peer_sites --trace 1",
            "--workload peer_sites --trace 2",
            "--workload peer_sites --seed -1",
            "--workload peer_sites --seconds nan",
            "--workload peer_sites --seed",
            "--seed 3",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} should be rejected");
        }
    }
}
