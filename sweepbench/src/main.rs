//! `sweepbench` — the end-to-end and per-layer benchmark of LOCAL-model sweeps.
//!
//! ```text
//! cargo run --release --offline --manifest-path sweepbench/Cargo.toml -- \
//!     --workload baseline-heavy --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` runs the untraced closed loop and reports the end-to-end metrics;
//! `--trace 1` runs the traced pass and reports the per-layer metrics. Either way the last
//! line of standard output is one JSON object
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`,
//! and the process exits non-zero when any cell or cross-check is wrong. The workloads,
//! metrics and the layer map are documented in this directory's README.md.

mod measure;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a run measured and found wrong.
pub struct Outcome {
    /// Correctness-gate violations; any entry makes the run fail.
    pub problems: Vec<String>,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that failed (invalid, unsolved, rescued in-process, or not reproduced).
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The benchmark process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    local_obs::sample_peak_rss_kb() as f64 / 1024.0
}

struct Args {
    workload: &'static workloads::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        let number = || {
            value.parse::<u64>().map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(workloads::find(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()? as f64),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// The commit of the checkout in the working directory, read from `.git` without running
/// git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |path: &Path| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let git = Path::new(".git");
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&git.join(reference)).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// The run context every output carries, as one JSON object.
fn context(args: &Args, cells: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cells\": {}, \
         \"replicates\": {}, \"workers\": {}, \"nproc\": {nproc}, \"simd\": \"{}\", \
         \"profile\": \"{profile}\", \"commit\": \"{}\"}}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cells,
        args.workload.replicates,
        workloads::WORKERS,
        local_simd::level_name(),
        git_commit()
    )
}

/// Scratch space inside the build directory (next to the benchmark executable), so a run
/// writes nothing outside its checkout's build output.
fn build_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn result_line(correct: bool, outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--worker") {
        return workloads::worker_main(&raw);
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("sweepbench: {message}");
            return ExitCode::from(2);
        }
    };
    let context = context(&args, args.workload.grid(args.seed).cell_count());
    println!("context {context}");

    let work = build_dir().join("sweepbench-work").join(format!(
        "{}-{}",
        args.workload.name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("sweepbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let outcome = if args.trace {
        let trace_file =
            build_dir().join("sweepbench-traces").join(format!("{}.tsv", args.workload.name));
        traced::run(args.workload, args.seed, &work, &trace_file, &context)
    } else {
        measure::run(args.workload, args.seed, args.seconds, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("sweepbench: {message}");
            return ExitCode::FAILURE;
        }
    };

    for m in &outcome.metrics {
        println!("metric {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let correct = outcome.problems.is_empty() && finite;
    for problem in &outcome.problems {
        eprintln!("sweepbench: correctness gate: {problem}");
    }
    if !finite {
        eprintln!("sweepbench: a metric is not a finite number");
    }
    println!("{}", result_line(correct, &outcome));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
