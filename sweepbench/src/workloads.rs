//! The three benchmark workloads, the backends they run on, and the shared checks:
//! the per-cell count digest and the worker-side tally of cleanly served cells.

use local_engine::backend::FaultPlan;
use local_engine::{
    workload, BinaryStore, CellResult, CellShard, CostModel, ExecBackend, InProcessBackend,
    ProcessBackend, ScenarioGrid,
};
use local_graphs::{family, Family, FamilySpec};
use std::io::{Read, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Worker threads (in-process) or worker processes (process backend) of every sweep: the
/// 2-core machine the benchmark was sized on.
pub const WORKERS: usize = 2;

/// How a workload's cold sweep executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The in-process work-stealing pool with [`WORKERS`] threads.
    InProcess,
    /// [`WORKERS`] `--worker` subprocesses with one thread each.
    Process,
}

/// One named workload: a fixed grid shape whose instances come from the run's seed.
///
/// The two heavy workloads use random regular graphs. The baseline's round count and the
/// Theorem 5 driver's work follow the maximum degree, which G(n, p) redraws with every
/// seed (a 12-cell sparse-gnp matching grid varied by ±15% across seeds); a fixed degree
/// keeps the work per seed constant, so the spread between runs is the program's.
pub struct Workload {
    pub name: &'static str,
    problems: &'static [&'static str],
    families: fn() -> Vec<FamilySpec>,
    sizes: &'static [usize],
    /// Seeds (replicates) per `(problem, family, n)` point.
    pub replicates: u64,
    pub backend: BackendKind,
    /// Whether the cold sweep streams into a fresh result store (otherwise it collects
    /// rows and runs without a store).
    pub stream: bool,
    /// The layers predicted to dominate: the traced run checks that their summed time is
    /// at least that of every other layer.
    pub dominant: &'static [&'static str],
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "baseline-heavy",
        problems: &["matching"],
        families: || vec![family("regular-12")],
        sizes: &[200, 400, 800],
        replicates: 2,
        backend: BackendKind::InProcess,
        stream: false,
        dominant: &["local-runtime"],
    },
    Workload {
        name: "uniform-heavy",
        problems: &["coloring", "edge-coloring"],
        families: || vec![family("regular-6"), family("regular-8")],
        sizes: &[1000],
        replicates: 2,
        backend: BackendKind::InProcess,
        stream: false,
        dominant: &["local-core"],
    },
    Workload {
        name: "many-cells",
        problems: &["ps-mis", "luby-mis", "log4-matching"],
        families: || Family::ALL.iter().map(|&f| f.into()).collect(),
        sizes: &[16],
        replicates: 1024,
        backend: BackendKind::Process,
        stream: true,
        dominant: &["local-graphs", "wire", "store"],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload's grid; `seed` is the sweep's base seed.
    pub fn grid(&self, seed: u64) -> ScenarioGrid {
        ScenarioGrid::new()
            .problems(self.problems.iter().map(|p| workload(p)))
            .families((self.families)())
            .sizes(self.sizes.to_vec())
            .replicates(self.replicates)
            .base_seed(seed)
    }

    /// A fresh backend of the workload's kind, stamping its first dispatch into
    /// `dispatched`; process workers append their clean cell counts to `tally`.
    pub fn backend(&self, tally: &Path, dispatched: Arc<OnceLock<Instant>>) -> Stamped {
        Stamped::new(backend(self.backend, tally), dispatched)
    }
}

fn backend(kind: BackendKind, tally: &Path) -> Box<dyn ExecBackend> {
    match kind {
        BackendKind::InProcess => Box::new(InProcessBackend::new(WORKERS)),
        BackendKind::Process => {
            let exe = std::env::current_exe().expect("the benchmark knows its own executable");
            let command =
                vec![exe.display().to_string(), "--tally".into(), tally.display().to_string()];
            Box::new(
                ProcessBackend::with_command(WORKERS, command)
                    .worker_threads(1)
                    .faults(FaultPlan::default()),
            )
        }
    }
}

/// A backend wrapper that stamps the moment the first cell is dispatched: entry into the
/// pool for the in-process backend, and the first result line back from a spawned worker
/// for the process backend (spawn, stripe shipping and the worker's shard parse happen
/// inside `run_shard`, so the first result is the earliest point the parent can observe).
pub struct Stamped {
    inner: Box<dyn ExecBackend>,
    dispatched: Arc<OnceLock<Instant>>,
}

impl Stamped {
    pub fn new(inner: Box<dyn ExecBackend>, dispatched: Arc<OnceLock<Instant>>) -> Self {
        Stamped { inner, dispatched }
    }

    /// A backend of `kind` whose dispatch stamp nobody reads.
    pub fn plain(kind: BackendKind, tally: &Path) -> Self {
        Stamped::new(backend(kind, tally), Arc::default())
    }
}

impl ExecBackend for Stamped {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn parallelism(&self) -> usize {
        self.inner.parallelism()
    }

    fn run_shard(&self, shard: &CellShard, emit: &local_engine::backend::EmitFn) {
        let on_first_result = self.inner.name() == "process";
        if !on_first_result {
            self.dispatched.get_or_init(Instant::now);
        }
        self.inner.run_shard(shard, &|k, result| {
            if on_first_result {
                self.dispatched.get_or_init(Instant::now);
            }
            emit(k, result)
        });
    }

    fn calibration(&self) -> CostModel {
        self.inner.calibration()
    }
}

/// FNV-1a over every cell's identity and deterministic counts (rounds, messages,
/// subiterations, valid, solved), in canonical grid order. Wall-clock fields are left out,
/// so the digest is the same for any backend, thread count, store state or run.
pub fn digest(cells: &[CellResult]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for c in cells {
        let line = format!(
            "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}\n",
            c.problem,
            c.family,
            c.requested_n,
            c.n,
            c.edges,
            c.replicate,
            c.seed,
            c.uniform_rounds,
            c.uniform_messages,
            c.nonuniform_rounds,
            c.nonuniform_messages,
            c.subiterations,
            c.valid,
            c.solved
        );
        for byte in line.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Cells that are not both valid and solved.
pub fn invalid_cells(cells: &[CellResult]) -> u64 {
    cells.iter().filter(|c| !(c.valid && c.solved)).count() as u64
}

/// Cells of a sweep of `executed` cells on `kind` that were re-run in-process: those the
/// process workers' `tally` does not cover. The tally is removed so the next sweep starts
/// from zero.
pub fn rescued(kind: BackendKind, executed: usize, tally: &Path) -> u64 {
    let served: u64 = std::fs::read_to_string(tally)
        .map(|text| text.lines().filter_map(|line| line.trim().parse::<u64>().ok()).sum())
        .unwrap_or(0);
    let _ = std::fs::remove_file(tally);
    match kind {
        BackendKind::Process => (executed as u64).saturating_sub(served),
        BackendKind::InProcess => 0,
    }
}

/// Opens (creating if needed) the binary result store at `dir`.
pub fn open_store(dir: &Path) -> Result<BinaryStore, String> {
    BinaryStore::open(dir).map_err(|e| format!("cannot open store {}: {e}", dir.display()))
}

/// Counts the newline-terminated lines a worker writes.
struct LineCounter<W> {
    inner: W,
    lines: u64,
}

impl<W: Write> Write for LineCounter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let written = self.inner.write(buf)?;
        self.lines += buf[..written].iter().filter(|&&b| b == b'\n').count() as u64;
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The `--worker` mode the process backend spawns: serve one shard over stdin/stdout
/// exactly like `sweep --worker`, then append the number of result lines written to the
/// `--tally` file. Without telemetry (the benchmark never arms the obs layer) the stream
/// is one line per cell plus the sentinel, so a worker that finished cleanly adds its
/// whole stripe, and the parent counts everything else as rescued in-process.
pub fn worker_main(args: &[String]) -> ExitCode {
    let value = |flag: &str| {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let threads = value("--threads").and_then(|t| t.parse().ok()).unwrap_or(1);
    let mut input = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut input) {
        eprintln!("sweepbench --worker: cannot read shard from stdin: {e}");
        return ExitCode::FAILURE;
    }
    let faults = local_engine::FaultInjector::from_env_lossy();
    let mut out = LineCounter { inner: std::io::stdout(), lines: 0 };
    if let Err(message) =
        local_engine::backend::worker_serve(&input, threads, None, &faults, &mut out)
    {
        eprintln!("sweepbench --worker: {message}");
        return ExitCode::FAILURE;
    }
    if let Some(tally) = value("--tally") {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(tally)
            .and_then(|mut file| writeln!(file, "{}", out.lines.saturating_sub(1)));
        if let Err(e) = appended {
            eprintln!("sweepbench --worker: cannot append to tally {tally}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
