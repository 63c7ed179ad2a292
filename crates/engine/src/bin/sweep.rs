//! The sweep CLI: run a scenario grid over a pluggable execution backend and write a
//! structured report.
//!
//! ```text
//! sweep --problems mis,matching --families sparse-gnp,tree --sizes 100..10000 \
//!       --seeds 32 --backend process --workers 8 --out results.json [--csv results.csv]
//! ```
//!
//! * `--problems`  comma list of registered workloads (`mis`, `matching`,
//!   `ruling-set[-bB]`, `lambdaL-coloring`, …), or `all`. `sweep --list` prints the full
//!   registry.
//! * `--families`  comma list of graph families — canonical names, aliases like
//!   `sparse-gnp`/`tree`, or *parameterized* generators (`gnp-d16`, `regular-8`,
//!   `forest-5`, `pa-2`, `unit-disk-r75`) — or `all` (the builtin catalog).
//! * `--list`      print every registered workload and family (name, parameters, one-line
//!   description) straight from the registry, then exit.
//! * `--sizes`     comma list (`200,400`) or doubling ladder (`100..10000`).
//! * `--seeds`     replicates per cell (default 2).
//! * `--backend`   execution backend: `in-process` (default; the work-stealing thread pool),
//!   `process` (spawn `sweep --worker` subprocesses over the serialized shard protocol), or
//!   `network` (stripe over persistent `sweep --serve` TCP daemons named by `--connect`).
//! * `--threads`   worker threads (0 = available parallelism). Under `--backend process`
//!   this is each worker process's thread count (default 1).
//! * `--workers`   worker processes for `--backend process` (0 = available parallelism).
//! * `--connect`   comma list of daemon addresses for `--backend network`.
//! * `--io-deadline-ms`  liveness deadline for worker I/O; heartbeats shrink the window.
//! * `--faults`    deterministic fault-injection script (also read from `LOCAL_FAULTS`).
//! * `--out`       write the JSON report here; `--csv` additionally writes per-cell CSV.
//! * `--dry-run`   print the cost model's predicted per-cell micros and the LPT execution
//!   order (calibrated from the result store when one is attached) without running anything.
//! * `--deterministic`  zero every wall-clock field in the outputs, so reports produced by
//!   different backends or parallelism levels compare byte-for-byte.
//! * `--profile`   emit per-phase timings (attempt / pruning / instance generation) as extra
//!   CSV columns and a printed summary; the JSON report always carries them per cell.
//! * `--folded F`  write the sweep's phase times as folded stacks (flamegraph format) to `F`.
//! * `--store D`   the incremental result store's directory (default `target/sweep-store`):
//!   CRC-checked append-only segment files; a re-sweep executes only cells whose inputs
//!   changed. `--no-cache` disables it; of the two flags, the last one given wins. `sweep
//!   store import CACHE_DIR --store D` migrates a legacy JSON cache; `sweep store bench`
//!   measures the store on a synthetic grid.
//! * `--stream`    stream cells to the result store instead of holding them in memory
//!   (large grids); per-cell CSV is then produced by reading the store back. Requires the
//!   store.
//! * `--trace F`   enable the observability layer and write a Chrome trace-event JSON of
//!   the sweep (phase spans, counters, one track per thread/worker) to `F` — loadable in
//!   Perfetto or `chrome://tracing`.
//! * `--trace-events F`  append the same events as an NDJSON log to `F`.
//! * `--progress`  live stderr status line: cells done/total, cache hits, per-worker
//!   throughput, and an ETA from the cost model's predictions for the outstanding cells.
//!
//! There is also a hidden `--worker` mode — the receiving end of the process backend's
//! shard protocol (shard JSON on stdin, newline-delimited results + sentinel on stdout) —
//! a `--serve ADDR` mode, the same protocol as a persistent TCP daemon for `--backend
//! network`, and a `--coordinate ADDR` mode that schedules many clients' submissions
//! (`--submit`) fairly over a `--connect` daemon fleet; see `local_engine::backend` for
//! the framing and `local_engine::backend::coordinator` for the job protocol.

use local_engine::backend::{
    coordinate_forever, serve_forever, worker_serve, CoordinatorConfig, FaultInjector, FaultPlan,
    InProcessBackend, NetworkBackend, ProcessBackend,
};
use local_engine::{
    default_workloads, parse_sizes, parse_workload, render_listing, BinaryStore, CellResult,
    CostModel, ProgressMeter, ResultStore, Scenario, ScenarioGrid, Sweep, WorkloadSpec,
    CODE_VERSION,
};
use local_graphs::{builtin_families, parse_family, FamilySpec};
use serde::{Deserialize, Value};
use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Clone, PartialEq)]
enum BackendKind {
    InProcess,
    Process,
    Network,
    Coordinator,
}

struct Args {
    problems: Vec<WorkloadSpec>,
    families: Vec<FamilySpec>,
    sizes: Vec<usize>,
    seeds: u64,
    backend: BackendKind,
    threads: Option<usize>,
    workers: usize,
    connect: Vec<String>,
    submit: Option<String>,
    client: Option<String>,
    io_deadline_ms: Option<u64>,
    faults: Option<FaultPlan>,
    base_seed: u64,
    out: Option<String>,
    csv: Option<String>,
    dry_run: bool,
    deterministic: bool,
    profile: bool,
    folded: Option<String>,
    /// The result store's directory; `None` under `--no-cache`.
    store_dir: Option<String>,
    stream: bool,
    trace: Option<String>,
    trace_events: Option<String>,
    progress: bool,
}

/// Parses a worker/thread count. The semantics live in
/// [`local_engine::pool::resolve_worker_count`] — `0` means "use the machine's available
/// parallelism" — so the flags, `SweepConfig`, and both backends cannot drift apart; here
/// we only reject text that is not a count at all.
fn parse_count(flag: &str, text: &str) -> Result<usize, String> {
    text.parse().map_err(|e| format!("bad {flag}: {e} (0 means available parallelism)"))
}

/// The parsed value after `flag` in the arguments of a mode dispatched before
/// [`parse_args`] (worker, daemon, coordinator): `None` if the flag or its value is absent,
/// a `bad FLAG` error if the value does not parse.
fn raw_flag<T: std::str::FromStr>(raw: &[String], flag: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    match raw.iter().position(|a| a == flag).and_then(|i| raw.get(i + 1)) {
        Some(text) => text.parse().map(Some).map_err(|e| format!("bad {flag}: {e}")),
        None => Ok(None),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        problems: vec![local_engine::workload("mis")],
        families: vec![local_graphs::Family::SparseGnp.into()],
        sizes: vec![64, 128],
        seeds: 2,
        backend: BackendKind::InProcess,
        threads: None,
        workers: 0,
        connect: Vec::new(),
        submit: None,
        client: None,
        io_deadline_ms: None,
        faults: None,
        base_seed: 0,
        out: None,
        csv: None,
        dry_run: false,
        deterministic: false,
        profile: false,
        folded: None,
        store_dir: Some("target/sweep-store".to_string()),
        stream: false,
        trace: None,
        trace_events: None,
        progress: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--problems" => {
                let v = value("--problems")?;
                args.problems = if v == "all" {
                    default_workloads()
                } else {
                    v.split(',')
                        .map(|p| {
                            parse_workload(p.trim())
                                .ok_or_else(|| format!("unknown problem: {p:?} (see sweep --list)"))
                        })
                        .collect::<Result<_, _>>()?
                };
            }
            "--families" => {
                let v = value("--families")?;
                args.families = if v == "all" {
                    builtin_families()
                } else {
                    v.split(',')
                        .map(|f| {
                            parse_family(f.trim())
                                .ok_or_else(|| format!("unknown family: {f:?} (see sweep --list)"))
                        })
                        .collect::<Result<_, _>>()?
                };
            }
            "--sizes" => args.sizes = parse_sizes(&value("--sizes")?)?,
            "--seeds" => {
                args.seeds = value("--seeds")?.parse().map_err(|e| format!("bad --seeds: {e}"))?
            }
            "--backend" => {
                args.backend = match value("--backend")?.as_str() {
                    "in-process" => BackendKind::InProcess,
                    "process" => BackendKind::Process,
                    "network" => BackendKind::Network,
                    "coordinator" => BackendKind::Coordinator,
                    other => {
                        return Err(format!(
                            "unknown backend: {other:?} (expected in-process, process, \
                             network, or coordinator — sweep --list enumerates them)"
                        ))
                    }
                };
            }
            "--threads" => args.threads = Some(parse_count("--threads", &value("--threads")?)?),
            "--workers" => args.workers = parse_count("--workers", &value("--workers")?)?,
            "--connect" => {
                args.connect =
                    value("--connect")?.split(',').map(|a| a.trim().to_string()).collect();
            }
            "--submit" => {
                args.submit = Some(value("--submit")?);
                args.backend = BackendKind::Coordinator;
            }
            "--client" => args.client = Some(value("--client")?),
            "--io-deadline-ms" => {
                args.io_deadline_ms = Some(
                    value("--io-deadline-ms")?
                        .parse()
                        .map_err(|e| format!("bad --io-deadline-ms: {e}"))?,
                );
            }
            "--faults" => {
                args.faults = Some(
                    FaultPlan::parse(&value("--faults")?)
                        .map_err(|e| format!("bad --faults: {e}"))?,
                );
            }
            "--base-seed" => {
                args.base_seed =
                    value("--base-seed")?.parse().map_err(|e| format!("bad --base-seed: {e}"))?
            }
            "--out" => args.out = Some(value("--out")?),
            "--csv" => args.csv = Some(value("--csv")?),
            "--list" => {
                print!("{}", render_listing());
                std::process::exit(0);
            }
            "--dry-run" => args.dry_run = true,
            "--deterministic" => args.deterministic = true,
            "--profile" => args.profile = true,
            "--folded" => args.folded = Some(value("--folded")?),
            "--no-cache" => args.store_dir = None,
            "--store" => args.store_dir = Some(value("--store")?),
            "--stream" => args.stream = true,
            "--trace" => args.trace = Some(value("--trace")?),
            "--trace-events" => args.trace_events = Some(value("--trace-events")?),
            "--progress" => args.progress = true,
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other} (try --help)")),
        }
    }
    if args.stream && args.store_dir.is_none() {
        return Err("--stream needs the result store (drop --no-cache or add --store DIR): \
                    streamed cells live on disk, not in memory"
            .to_string());
    }
    if args.backend == BackendKind::Network && args.connect.is_empty() {
        return Err("--backend network needs --connect host:port[,host:port…] (start daemons \
                    with sweep --serve ADDR)"
            .to_string());
    }
    if args.backend == BackendKind::Coordinator && args.submit.is_none() {
        return Err("--backend coordinator needs --submit host:port (start one with sweep \
                    --coordinate ADDR --connect …)"
            .to_string());
    }
    Ok(args)
}

const HELP: &str = "\
sweep — parallel batched experiment engine for uniform LOCAL algorithms

USAGE:
  sweep [--problems LIST|all] [--families LIST|all] [--sizes 200,400 | 100..10000]
        [--seeds N] [--backend in-process|process|network|coordinator] [--threads N]
        [--workers N] [--connect HOST:PORT,…] [--submit HOST:PORT] [--client NAME]
        [--io-deadline-ms MS] [--faults SCRIPT]
        [--base-seed S] [--out report.json] [--csv cells.csv] [--list] [--dry-run]
        [--deterministic] [--profile] [--folded stacks.folded]
        [--store DIR | --no-cache] [--stream]
        [--trace trace.json] [--trace-events events.ndjson] [--progress]
  sweep --serve ADDR [--threads N] [--max-concurrent-shards N]
                                            run a persistent worker daemon
  sweep --coordinate ADDR --connect HOST:PORT,… [--threads N] [--io-deadline-ms MS]
        [--stripes-per-peer N] [--faults SCRIPT] [--store DIR]
                                            run a multi-client coordinator over a fleet
  sweep store import CACHE_DIR --store DIR [--base-seed S]
                                            migrate a JSON cache into the binary store
  sweep store bench [--cells N] [--dir DIR] [--json PATH]
                                            benchmark the store on a synthetic grid

  --list       print every registered workload, family, and execution backend (with the
               flags that configure it) straight from the registries, then exit.

  --backend    in-process (default): the work-stealing thread pool. process: fan the sweep
               out to worker subprocesses over the serialized shard protocol. network:
               stripe the sweep over persistent `sweep --serve ADDR` daemons (--connect)
               with reconnect backoff. Both remote kinds share heartbeat liveness,
               re-dispatch of a failed worker's cells to a healthy one, and in-process
               rescue of last resort — byte-identical reports either way.
  --threads    worker threads; 0 = available parallelism. Under --backend process, each
               worker process's thread count (default 1); under --backend network, the
               in-process rescue path's thread count (default 0).
  --workers    worker processes for --backend process; 0 = available parallelism.
  --connect    comma list of daemon addresses for --backend network (one stripe per peer).
  --submit     submit the sweep to a `sweep --coordinate` service at HOST:PORT (implies
               --backend coordinator); verified results stream back cell by cell and the
               report is byte-identical (--deterministic) to an in-process run.
  --client     name this client in coordinator submissions, for the coordinator's
               per-client fairness and accounting (default: anonymous, by source address).
  --serve      bind ADDR (host:port; port 0 picks one), print `listening on <addr>`, and
               serve shard requests forever; --threads caps each shard's parallelism.
  --max-concurrent-shards
               how many plain shard requests a daemon serves concurrently (default 0 =
               thread budget / per-shard threads). Fault-scripted and telemetry requests
               still run exclusively, keeping their ordering deterministic.
  --coordinate bind ADDR, print `listening on <addr>`, and schedule job submissions from
               any number of clients over the --connect fleet: deficit-round-robin fair by
               predicted cost between clients, LPT within a job, dead peers' stripes
               re-queued to survivors and rescued in-process as the last resort.
  --stripes-per-peer
               stripes each job is decomposed into per fleet peer (default 4): finer
               stripes interleave clients more fairly, coarser amortize dispatch overhead.
  --io-deadline-ms
               liveness deadline for worker I/O (default 600000): a stream silent this
               long is declared dead and its cells rescued. When heartbeats flow the
               effective window shrinks to a few heartbeat intervals.
  --faults     deterministic fault-injection script (also read from LOCAL_FAULTS), e.g.
               \"w0:kill@5 w1:refuse*2\"; clauses scoped w<i>: apply to worker/peer i.
               kill@K / truncate@K / garble@K / dup@K / delay@K=MS act on a worker's K-th
               result line; refuse*N fails its first N connects. Injected faults surface
               on the `resilience:` line.
  --dry-run    print the cost model's predicted per-cell micros and the LPT execution order
               (calibrated from cached observations when available) without running cells.
  --deterministic
               zero every wall-clock field in reports/CSV, so outputs from different
               backends and parallelism levels compare byte-for-byte.
  --profile    emit per-phase wall-time columns (attempt / pruning / instance generation)
               in the CSV output and print a phase-time summary.
  --folded F   write phase times as folded stacks (flamegraph.pl / inferno format) to F.
  --store      incremental result store in DIR (default target/sweep-store): a re-sweep
               executes only changed cells and serves the rest from disk, byte-identically.
               Append-only CRC-checked segment files with an index rebuilt by one
               sequential scan on open, torn tails truncated on recovery. One sweep holds
               a store at a time; a concurrent sweep needs its own DIR or --no-cache. On a
               coordinator, a shared store serves repeat submissions and accumulates every
               client's fresh results.
  --no-cache   run without a result store. Of --store and --no-cache, the last one wins.
  --stream     fold cells into summaries as they complete and keep them only in the
               result store (flat memory for very large grids). With --store the re-sweep
               summary path is fully columnar: no CellResult rows are materialized for
               stored cells (the summary line prints `rows materialized 0`).
  --trace F    enable observability and write a Chrome trace-event JSON (phase spans,
               counters, one track per thread/worker) to F; open it in Perfetto or
               chrome://tracing. Under --backend process, workers stream their spans home.
  --trace-events F
               append the recorded events to F as an NDJSON log (one JSON object per line).
  --progress   live stderr status line: cells done/total, cache hits, per-worker
               throughput, and an ETA from cost-model predictions of outstanding cells.

EXAMPLE:
  sweep --problems mis,matching --families sparse-gnp,tree --sizes 100..1600 \\
        --seeds 32 --backend process --workers 8 --out results.json";

/// The exit status of a mode dispatched before [`parse_args`]: a failure prints one
/// `sweep MODE: message` line and exits nonzero.
fn mode_exit(mode: &str, result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("sweep {mode}: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The hidden `--worker` mode: serve one shard over the stdin/stdout protocol and exit.
/// Any error lands on stderr with a nonzero exit, which the parent treats as a shard
/// failure and absorbs in-process. Stream faults scripted into this process's
/// `LOCAL_FAULTS` (the parent forwards per-worker clauses) are executed here.
fn worker_main(raw: &[String]) -> Result<(), String> {
    let threads = raw_flag(raw, "--threads")?.unwrap_or(1);
    let telemetry_ms = raw_flag(raw, "--telemetry")?;
    let mut input = String::new();
    std::io::stdin()
        .read_to_string(&mut input)
        .map_err(|e| format!("cannot read shard from stdin: {e}"))?;
    let faults = FaultInjector::from_env_lossy();
    worker_serve(&input, threads, telemetry_ms, &faults, &mut std::io::stdout())
}

/// The `--serve` mode: a persistent worker daemon on a TCP address, the receiving end of
/// `--backend network`. Runs until killed.
fn serve_main(raw: &[String], addr: &str) -> Result<(), String> {
    let threads = raw_flag(raw, "--threads")?.unwrap_or(0);
    let max_concurrent = raw_flag(raw, "--max-concurrent-shards")?.unwrap_or(0);
    serve_forever(addr, threads, max_concurrent)
}

/// The `--coordinate` mode: a multi-client scheduling service over a `--connect` daemon
/// fleet. Runs until killed.
fn coordinate_main(raw: &[String], addr: &str) -> Result<(), String> {
    let get = |flag: &str| raw.iter().position(|a| a == flag).and_then(|i| raw.get(i + 1));
    let mut config = CoordinatorConfig {
        fleet: get("--connect")
            .map(|v| v.split(',').map(|a| a.trim().to_string()).collect())
            .unwrap_or_default(),
        ..CoordinatorConfig::default()
    };
    if let Some(n) = raw_flag(raw, "--threads")? {
        config.rescue_threads = n;
    }
    if let Some(ms) = raw_flag(raw, "--io-deadline-ms")? {
        config.io_deadline_ms = ms;
    }
    if let Some(n) = raw_flag::<usize>(raw, "--stripes-per-peer")? {
        config.stripes_per_peer = n.max(1);
    }
    config.faults = match get("--faults") {
        Some(script) => FaultPlan::parse(script).map_err(|e| format!("bad --faults: {e}"))?,
        None => FaultPlan::from_env_lossy(),
    };
    if let Some(dir) = get("--store") {
        let store =
            BinaryStore::open(dir).map_err(|e| format!("cannot open --store {dir}: {e}"))?;
        config.store = Some(Arc::new(store));
    }
    // The coordinator always arms observability: per-client accounting gauges are part of
    // its contract, not an opt-in.
    local_obs::enable();
    local_obs::set_track_name("coordinator");
    if config.fleet.is_empty() {
        eprintln!(
            "sweep --coordinate: empty fleet (no --connect); every job will be rescued \
             in-process"
        );
    }
    coordinate_forever(addr, config)
}

/// Why one JSON cache entry was not imported into the binary store.
enum ImportSkip {
    /// The entry's code version is not this binary's [`CODE_VERSION`]; its result is not
    /// reproducible by this code and must not be served.
    Version,
    /// The entry's recorded execution seed disagrees with the seed its cell derives under
    /// the requested base seed — it belongs to a different `--base-seed`.
    Seed,
    /// Not a parseable cache entry at all (torn file, foreign JSON, unknown label).
    Unreadable,
    /// The store already holds this cell (an earlier import or sweep wrote it).
    Present,
}

/// Imports one JSON cache entry into the store. `Err` is fatal (the store write failed);
/// `Ok(Err(skip))` records why the entry was passed over.
fn import_entry(
    store: &BinaryStore,
    path: &std::path::Path,
    base_seed: u64,
) -> Result<Result<(), ImportSkip>, String> {
    let unreadable = |_| ImportSkip::Unreadable;
    let parse = || -> Result<(Scenario, CellResult), ImportSkip> {
        let text = std::fs::read_to_string(path).map_err(|_| ImportSkip::Unreadable)?;
        let value = serde_json::from_str(&text).map_err(unreadable)?;
        if value.get("code_version").and_then(Value::as_str) != Some(CODE_VERSION) {
            return Err(ImportSkip::Version);
        }
        let label = value.get("label").and_then(Value::as_str).ok_or(ImportSkip::Unreadable)?;
        // A label spells the full cell identity: `problem/family/nSIZE/rREPLICATE`.
        let parts: Vec<&str> = label.split('/').collect();
        let [problem, family, n, replicate] = parts[..] else {
            return Err(ImportSkip::Unreadable);
        };
        let cell = Scenario {
            problem: parse_workload(problem).ok_or(ImportSkip::Unreadable)?,
            family: parse_family(family).ok_or(ImportSkip::Unreadable)?,
            n: n.strip_prefix('n').and_then(|v| v.parse().ok()).ok_or(ImportSkip::Unreadable)?,
            replicate: replicate
                .strip_prefix('r')
                .and_then(|v| v.parse().ok())
                .ok_or(ImportSkip::Unreadable)?,
        };
        let result = value
            .get("cell")
            .and_then(|cell| CellResult::from_value(cell).ok())
            .ok_or(ImportSkip::Unreadable)?;
        Ok((cell, result))
    };
    let (cell, result) = match parse() {
        Ok(parsed) => parsed,
        Err(skip) => return Ok(Err(skip)),
    };
    if cell.cell_seed(base_seed) != result.seed {
        return Ok(Err(ImportSkip::Seed));
    }
    if store.load_columns(&cell, base_seed).is_some() {
        return Ok(Err(ImportSkip::Present));
    }
    ResultStore::store(store, &cell, base_seed, &result)
        .map_err(|e| format!("cannot store {}: {e}", cell.label()))?;
    Ok(Ok(()))
}

/// `sweep store import CACHE_DIR --store DIR [--base-seed S]`: converts a legacy JSON
/// cache into the segmented binary store, entry by entry, verifying each entry's code
/// version and derived seed so a foreign or stale entry can never be served later.
fn store_import(cache_dir: &str, store_dir: &str, base_seed: u64) -> Result<(), String> {
    let store =
        BinaryStore::open(store_dir).map_err(|e| format!("cannot open store {store_dir}: {e}"))?;
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(cache_dir)
        .map_err(|e| format!("cannot read cache {cache_dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let (mut imported, mut version, mut seed, mut unreadable, mut present) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for path in &paths {
        match import_entry(&store, path, base_seed)? {
            Ok(()) => imported += 1,
            Err(ImportSkip::Version) => version += 1,
            Err(ImportSkip::Seed) => seed += 1,
            Err(ImportSkip::Unreadable) => unreadable += 1,
            Err(ImportSkip::Present) => present += 1,
        }
    }
    let stats = store.stats();
    println!(
        "store import: {imported} cells imported into {} ({} segments, {} bytes appended); \
         skipped {version} foreign-version, {seed} seed-mismatched (base seed {base_seed}), \
         {unreadable} unreadable, {present} already present",
        store.dir().display(),
        stats.segments,
        stats.bytes_appended
    );
    Ok(())
}

/// A deterministic synthetic result for `sweep store bench` — realistic field shapes
/// without running any algorithm.
fn synthetic_result(cell: &Scenario, seed: u64) -> CellResult {
    let r = cell.replicate;
    let uniform_rounds = 40 + r % 17;
    let nonuniform_rounds = 20 + r % 7;
    CellResult {
        problem: cell.problem.name().to_string(),
        family: cell.family.name().to_string(),
        requested_n: cell.n,
        n: cell.n,
        edges: cell.n * 3,
        replicate: r,
        seed,
        uniform_rounds,
        uniform_messages: uniform_rounds * cell.n as u64,
        nonuniform_rounds,
        nonuniform_messages: nonuniform_rounds * cell.n as u64,
        overhead_ratio: uniform_rounds as f64 / nonuniform_rounds.max(1) as f64,
        subiterations: 3,
        solved: true,
        valid: true,
        wall_micros: 100 + r % 900,
        attempt_micros: 80 + r % 700,
        prune_micros: 10 + r % 90,
        instance_micros: 5,
    }
}

/// `sweep store bench [--cells N] [--dir DIR] [--json PATH]`: measures binary-store
/// append / reopen / columnar-scan / row-scan throughput on a synthetic grid, and
/// optionally writes the numbers as a JSON benchmark artifact.
fn store_bench(cells: usize, dir: &str, json: Option<&str>) -> Result<(), String> {
    use std::time::Instant;
    let store_dir = std::path::Path::new(dir).join("bench-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    // One synthetic grid: replicate is the only varying axis, so cell identities (and
    // store keys) are unique while staying cheap to generate at 10^5+ scale.
    let scenarios: Vec<Scenario> = (0..cells)
        .map(|r| Scenario {
            problem: parse_workload("mis").expect("mis is registered"),
            family: parse_family("sparse-gnp").expect("sparse-gnp is registered"),
            n: 64,
            replicate: r as u64,
        })
        .collect();
    let results: Vec<CellResult> =
        scenarios.iter().map(|cell| synthetic_result(cell, cell.cell_seed(0))).collect();

    let timed = |label: &str, f: &mut dyn FnMut() -> Result<(), String>| -> Result<f64, String> {
        let started = Instant::now();
        f()?;
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        println!(
            "store bench: {label:<22} {:>10.3} s  ({:>12.0} cells/s)",
            secs,
            cells as f64 / secs
        );
        Ok(secs)
    };

    let store =
        BinaryStore::open(&store_dir).map_err(|e| format!("cannot open bench store: {e}"))?;
    let bin_append = timed("store append", &mut || {
        for (cell, result) in scenarios.iter().zip(&results) {
            ResultStore::store(&store, cell, 0, result)
                .map_err(|e| format!("store append failed: {e}"))?;
        }
        Ok(())
    })?;
    let segments = store.stats().segments;
    drop(store);
    let mut reopened = None;
    let bin_open = timed("store reopen (index)", &mut || {
        reopened = Some(
            BinaryStore::open(&store_dir).map_err(|e| format!("cannot reopen bench store: {e}"))?,
        );
        Ok(())
    })?;
    let store = reopened.expect("reopen populated the store");
    let bin_columns = timed("store columnar scan", &mut || {
        for cell in &scenarios {
            store.load_columns(cell, 0).ok_or("columnar scan missed a written cell")?;
        }
        Ok(())
    })?;
    let bin_rows = timed("store row scan", &mut || {
        for cell in &scenarios {
            ResultStore::load(&store, cell, 0).ok_or("row scan missed a written cell")?;
        }
        Ok(())
    })?;

    println!(
        "store bench: {cells} cells in {segments} segments; index rebuild {} us",
        store.stats().index_rebuild_micros
    );
    if let Some(path) = json {
        let artifact = format!(
            "{{\n  \"cells\": {cells},\n  \"segments\": {segments},\n  \
             \"store_append_cells_per_s\": {:.0},\n  \"store_reopen_s\": {bin_open:.6},\n  \
             \"store_columnar_scan_cells_per_s\": {:.0},\n  \
             \"store_row_scan_cells_per_s\": {:.0}\n}}\n",
            cells as f64 / bin_append,
            cells as f64 / bin_columns,
            cells as f64 / bin_rows,
        );
        std::fs::write(path, artifact).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote benchmark JSON to {path}");
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(())
}

/// The `sweep store …` subcommand family: `import` migrates a legacy JSON cache into the
/// binary store, `bench` measures the store on a synthetic grid.
fn store_main(raw: &[String]) -> ExitCode {
    let get = |flag: &str| raw.iter().position(|a| a == flag).and_then(|i| raw.get(i + 1));
    let outcome = match raw.first().map(String::as_str) {
        Some("import") => {
            let Some(cache_dir) = raw.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!(
                    "sweep store import: missing cache directory (usage: sweep store import \
                     CACHE_DIR --store DIR [--base-seed S])"
                );
                return ExitCode::FAILURE;
            };
            let Some(store_dir) = get("--store") else {
                eprintln!("sweep store import: missing --store DIR");
                return ExitCode::FAILURE;
            };
            let base_seed = match get("--base-seed").map(|v| v.parse::<u64>()) {
                Some(Ok(seed)) => seed,
                Some(Err(e)) => {
                    eprintln!("sweep store import: bad --base-seed: {e}");
                    return ExitCode::FAILURE;
                }
                None => 0,
            };
            store_import(cache_dir, store_dir, base_seed)
        }
        Some("bench") => {
            let cells = match get("--cells").map(|v| v.parse::<usize>()) {
                Some(Ok(cells)) => cells.max(1),
                Some(Err(e)) => {
                    eprintln!("sweep store bench: bad --cells: {e}");
                    return ExitCode::FAILURE;
                }
                None => 10_000,
            };
            let dir = get("--dir").map(String::as_str).unwrap_or("target/store-bench");
            store_bench(cells, dir, get("--json").map(String::as_str))
        }
        _ => {
            eprintln!(
                "sweep store: expected a subcommand — import CACHE_DIR --store DIR \
                 [--base-seed S], or bench [--cells N] [--dir DIR] [--json PATH]"
            );
            return ExitCode::FAILURE;
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("sweep store: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `--dry-run`: predict, order, print — execute nothing. The printed plan mirrors a real
/// sweep exactly: stored cells are served from disk (and calibrate the model), so only the
/// *missed* cells appear in the LPT execution order.
fn dry_run(grid: &ScenarioGrid, store: Option<&BinaryStore>) -> ExitCode {
    let cells = grid.cells();
    let mut model = CostModel::new();
    let mut missed = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        match store.and_then(|store| store.load(cell, grid.base_seed)) {
            Some(hit) => model.observe(&hit),
            None => missed.push(i),
        }
    }
    let cached = cells.len() - missed.len();
    let order = model.order_slowest_first(&cells, missed);
    println!(
        "dry-run: {} cells, {} served from cache (they calibrate the cost model), {} to \
         execute in LPT (slowest-first) order:",
        cells.len(),
        cached,
        order.len()
    );
    println!("{:>5} {:>16}  cell", "rank", "predicted-us");
    let mut total = 0.0;
    for (rank, &i) in order.iter().enumerate() {
        let predicted = model.predict(&cells[i]);
        total += predicted;
        if local_obs::is_enabled() {
            // The predictions flow through the same metric registry as the observed
            // timings, so a dry-run trace joins against a real sweep's trace on
            // (metric, cell label) for predicted-vs-observed analysis.
            local_obs::record(
                local_obs::metrics::PREDICTED_MICROS,
                local_obs::label(&cells[i].label()),
                predicted as u64,
            );
        }
        println!("{:>5} {:>16.0}  {}", rank + 1, predicted, cells[i].label());
    }
    println!("total predicted work: {total:.0} us-equivalents (nothing was executed)");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // The worker, serve, and coordinate modes are not regular flags: they must not drag
    // the full sweep arg surface into the protocol, so they are dispatched before normal
    // parsing. A worker honours only `--threads N` and `--telemetry MS` (the parent's
    // heartbeat request); a daemon honours `--serve ADDR`, `--threads N`, and
    // `--max-concurrent-shards N` (telemetry is per-request); a coordinator honours
    // `--coordinate ADDR`, `--connect`, `--threads`, `--io-deadline-ms`,
    // `--stripes-per-peer`, and `--faults`.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("store") {
        return store_main(&raw[1..]);
    }
    if raw.iter().any(|a| a == "--worker") {
        return mode_exit("--worker", worker_main(&raw));
    }
    if let Some(i) = raw.iter().position(|a| a == "--serve") {
        let Some(addr) = raw.get(i + 1).filter(|a| !a.starts_with("--")) else {
            eprintln!("sweep --serve: missing bind address (try --serve 127.0.0.1:0)");
            return ExitCode::FAILURE;
        };
        return mode_exit("--serve", serve_main(&raw, addr));
    }
    if let Some(i) = raw.iter().position(|a| a == "--coordinate") {
        let Some(addr) = raw.get(i + 1).filter(|a| !a.starts_with("--")) else {
            eprintln!("sweep --coordinate: missing bind address (try --coordinate 127.0.0.1:0)");
            return ExitCode::FAILURE;
        };
        return mode_exit("--coordinate", coordinate_main(&raw, addr));
    }

    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("sweep: {message}");
            return ExitCode::FAILURE;
        }
    };

    // Tracing flags arm the global recorder before anything runs; it stays a no-op
    // otherwise, so the deterministic outputs of an untraced sweep are untouched. The
    // resilience machinery (network backend, fault injection) also arms it: every retry,
    // re-dispatch, rescue, and injected fault must land on an observable counter.
    let fault_plan = match &args.faults {
        Some(plan) => plan.clone(),
        None => FaultPlan::from_env_lossy(),
    };
    if args.trace.is_some()
        || args.trace_events.is_some()
        || args.backend == BackendKind::Network
        || args.backend == BackendKind::Coordinator
        || !fault_plan.is_empty()
    {
        local_obs::enable();
        local_obs::set_track_name("coordinator");
    }

    let grid = ScenarioGrid::new()
        .problems(args.problems)
        .families(args.families)
        .sizes(args.sizes)
        .replicates(args.seeds)
        .base_seed(args.base_seed);
    let store: Option<Arc<BinaryStore>> = match &args.store_dir {
        Some(dir) => match BinaryStore::open(dir) {
            Ok(store) => Some(Arc::new(store)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                eprintln!(
                    "sweep: {e}; give this sweep its own --store DIR, or run it with --no-cache"
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("sweep: cannot open --store {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    if args.dry_run {
        let code = dry_run(&grid, store.as_deref());
        if let Err(message) = write_trace_outputs(&args.trace, &args.trace_events) {
            eprintln!("sweep: {message}");
            return ExitCode::FAILURE;
        }
        return code;
    }

    let backend_label = match args.backend {
        BackendKind::InProcess => format!(
            "{} threads in-process",
            local_engine::pool::resolve_worker_count(args.threads.unwrap_or(0))
        ),
        BackendKind::Process => format!(
            "{} worker processes × {} threads",
            local_engine::pool::resolve_worker_count(args.workers),
            local_engine::pool::resolve_worker_count(args.threads.unwrap_or(1))
        ),
        BackendKind::Network => {
            format!("{} network peers ({})", args.connect.len(), args.connect.join(", "))
        }
        BackendKind::Coordinator => format!(
            "coordinator at {} (client {})",
            args.submit.as_deref().unwrap_or("?"),
            args.client.as_deref().unwrap_or("anonymous")
        ),
    };
    eprintln!(
        "sweep: {} cells ({} problems × {} families × {} sizes × {} seeds), {}",
        grid.cell_count(),
        grid.problems.len(),
        grid.families.len(),
        grid.sizes.len(),
        grid.replicates,
        backend_label
    );

    let meter = args.progress.then(ProgressMeter::new);
    if let (Some(meter), Some(store)) = (&meter, &store) {
        let handle = Arc::clone(store);
        meter.set_store_status(Arc::new(move || {
            let stats = handle.stats();
            format!(
                "store: {} seg, {} rec, {} hit",
                stats.segments,
                stats.records_indexed + stats.records_appended,
                handle.hits()
            )
        }));
    }
    let mut sweep = Sweep::over(&grid);
    sweep = match args.backend {
        BackendKind::InProcess => sweep.backend(InProcessBackend::new(args.threads.unwrap_or(0))),
        BackendKind::Process => {
            let mut backend = ProcessBackend::new(args.workers)
                .worker_threads(args.threads.unwrap_or(1))
                .faults(fault_plan.clone());
            if let Some(ms) = args.io_deadline_ms {
                backend = backend.io_deadline_ms(ms);
            }
            if let Some(meter) = &meter {
                backend = backend.progress(meter.clone());
            }
            sweep.backend(backend)
        }
        BackendKind::Network | BackendKind::Coordinator => {
            // A coordinator speaks the daemon protocol: submitting is the network backend
            // pointed at that one peer, naming its client.
            let (peers, client) = match args.backend {
                BackendKind::Coordinator => (
                    vec![args.submit.clone().expect("--submit checked at parse")],
                    args.client.clone(),
                ),
                _ => (args.connect.clone(), None),
            };
            let mut backend = NetworkBackend::new(peers)
                .rescue_threads(args.threads.unwrap_or(0))
                .faults(fault_plan.clone());
            if let Some(name) = client {
                backend = backend.client(name);
            }
            if let Some(ms) = args.io_deadline_ms {
                backend = backend.io_deadline_ms(ms);
            }
            if let Some(meter) = &meter {
                backend = backend.progress(meter.clone());
            }
            sweep.backend(backend)
        }
    };
    if let Some(meter) = &meter {
        sweep = sweep.progress(meter.clone());
    }
    if let Some(store) = store.clone() {
        sweep = sweep.store(store);
    }
    if args.stream {
        sweep = sweep.streaming();
    }
    let report = sweep.run();
    let report = if args.deterministic { report.deterministic_view() } else { report };

    println!("{}", report.render_summaries());
    if args.profile {
        // In streaming mode the report holds no cells; read them back from the store one at
        // a time (they were just written) so the phase summary is printed either way.
        let mut attempt = 0u64;
        let mut prune = 0u64;
        // Instance generation is shared across the cells of one instance (identified within a
        // sweep by family × size × replicate); count each distinct instance exactly once.
        let mut instances = std::collections::BTreeMap::new();
        let mut fold = |c: &local_engine::CellResult| {
            attempt += c.attempt_micros;
            prune += c.prune_micros;
            instances.insert((c.family.clone(), c.requested_n, c.replicate), c.instance_micros);
        };
        if args.stream {
            for cell in grid.cells() {
                if let Some(c) = store.as_ref().and_then(|store| store.load(&cell, grid.base_seed))
                {
                    fold(&c);
                }
            }
        } else {
            report.cells.iter().for_each(&mut fold);
        }
        let instance_gen: u64 = instances.values().sum();
        println!(
            "phases: attempt {:.1} ms, pruning {:.1} ms, instance-gen {:.1} ms",
            attempt as f64 / 1000.0,
            prune as f64 / 1000.0,
            instance_gen as f64 / 1000.0
        );
    }
    let invalid = report.cells.iter().filter(|c| !c.valid).count();
    println!(
        "{} cells ({} from cache), {} distinct instances, {:.1} ms wall, {} invalid",
        report.cell_count,
        report.cache_hits,
        report.distinct_instances,
        report.total_wall_micros as f64 / 1000.0,
        invalid
    );
    if let Some(store) = &store {
        // The store's on-disk shape and this run's traffic. A fully-columnar streamed
        // re-sweep prints `rows materialized 0` — soak scripts assert on it.
        let stats = store.stats();
        println!(
            "store: {} segments, {} records ({} appended, {} bytes written), index rebuild \
             {} us, {} hits, {} misses, rows materialized {}",
            stats.segments,
            stats.records_indexed + stats.records_appended,
            stats.records_appended,
            stats.bytes_appended,
            stats.index_rebuild_micros,
            store.hits(),
            store.misses(),
            store.rows_materialized()
        );
    }
    if args.backend == BackendKind::Network
        || args.backend == BackendKind::Coordinator
        || !fault_plan.is_empty()
    {
        // The resilience counters: how the sweep degraded and recovered. Printed whenever
        // the machinery that can increment them was in play, so soak scripts can assert on
        // the line's presence and values.
        println!(
            "resilience: connects {}, retries {}, redispatched {}, rescued {}, \
             faults-injected {}",
            local_obs::counter_value(local_obs::metrics::NET_CONNECTS),
            local_obs::counter_value(local_obs::metrics::NET_RETRIES),
            local_obs::counter_value(local_obs::metrics::REDISPATCHED_CELLS),
            local_obs::counter_value(local_obs::metrics::RESCUED_CELLS),
            local_obs::counter_value(local_obs::metrics::FAULTS_INJECTED),
        );
    }
    let peak_kb = local_obs::sample_peak_rss_kb();
    if peak_kb > 0 {
        let arena = local_obs::counter_value(local_obs::metrics::ARENA_ARCS);
        if arena > 0 {
            println!(
                "peak RSS {:.1} MiB, arena high-water {arena} live message arcs",
                peak_kb as f64 / 1024.0
            );
        } else {
            println!("peak RSS {:.1} MiB", peak_kb as f64 / 1024.0);
        }
    }

    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("sweep: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote JSON report to {path}");
    }
    if let Some(path) = &args.csv {
        let csv = if args.stream {
            // Streamed cells live in the result store only: rebuild the rows in canonical
            // order.
            match streamed_csv(
                &grid,
                store.as_deref().expect("--stream implies a store"),
                args.profile,
                args.deterministic,
            ) {
                Ok(csv) => csv,
                Err(message) => {
                    eprintln!("sweep: {message}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            report.to_csv_with(args.profile)
        };
        if let Err(e) = std::fs::write(path, csv) {
            eprintln!("sweep: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote per-cell CSV to {path}");
    }
    if let Some(path) = &args.folded {
        // With the recorder armed, folded stacks come from the actual recorded spans
        // (per-phase, per-label, including worker-imported tracks) rather than being
        // reconstructed from per-cell timing fields.
        let folded = if local_obs::is_enabled() {
            local_obs::snapshot().to_folded()
        } else if args.stream {
            match streamed_folded(&grid, store.as_deref().expect("--stream implies a store")) {
                Ok(folded) => folded,
                Err(message) => {
                    eprintln!("sweep: {message}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            report.to_folded()
        };
        if let Err(e) = std::fs::write(path, folded) {
            eprintln!("sweep: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote folded phase stacks to {path}");
    }
    if let Err(message) = write_trace_outputs(&args.trace, &args.trace_events) {
        eprintln!("sweep: {message}");
        return ExitCode::FAILURE;
    }
    if invalid > 0 {
        eprintln!("sweep: {invalid} cells failed validation");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Writes the `--trace` / `--trace-events` outputs from one snapshot of the global
/// recorder. A no-op when the recorder was never armed.
fn write_trace_outputs(
    trace: &Option<String>,
    trace_events: &Option<String>,
) -> Result<(), String> {
    if !local_obs::is_enabled() {
        return Ok(());
    }
    let snapshot = local_obs::snapshot();
    if let Some(path) = trace {
        std::fs::write(path, snapshot.to_chrome_trace())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote Chrome trace (Perfetto-loadable) to {path}");
    }
    if let Some(path) = trace_events {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        file.write_all(snapshot.to_ndjson().as_bytes())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("appended {} trace events as NDJSON to {path}", snapshot.event_count());
    }
    Ok(())
}

/// Reads every cell of `grid` back from the result store (a streamed sweep just wrote
/// them) and renders CSV rows in canonical order, never holding more than one cell.
fn streamed_csv(
    grid: &ScenarioGrid,
    store: &BinaryStore,
    profile: bool,
    deterministic: bool,
) -> Result<String, String> {
    let mut out = local_engine::CellResult::csv_header(profile);
    out.push('\n');
    for cell in grid.cells() {
        let mut result = store.load(&cell, grid.base_seed).ok_or_else(|| {
            format!("{} is missing streamed cell {}", store.describe(), cell.label())
        })?;
        if deterministic {
            result = result.deterministic_view();
        }
        out.push_str(&result.csv_row(profile));
        out.push('\n');
    }
    Ok(out)
}

/// Folded stacks for a streamed sweep, reading cells back from the store one at a time.
fn streamed_folded(grid: &ScenarioGrid, store: &BinaryStore) -> Result<String, String> {
    let mut missing = None;
    let folded = local_engine::report::folded_stacks(grid.cells().into_iter().filter_map(|cell| {
        let loaded = store.load(&cell, grid.base_seed);
        if loaded.is_none() && missing.is_none() {
            missing = Some(cell.label());
        }
        loaded
    }));
    match missing {
        Some(label) => Err(format!("{} is missing streamed cell {label}", store.describe())),
        None => Ok(folded),
    }
}
