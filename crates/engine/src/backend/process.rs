//! The process transport — `sweep --worker` children over stdio — and the worker side of
//! the shard protocol (`sweep --worker` itself, and the serving core the `sweep --serve`
//! daemon shares). The wire protocol and the failure semantics are documented once, on
//! the runner both remote transports share ([`super::remote`]).

use super::faults::{FaultInjector, LineFault};
use super::remote::{Dispatch, Remote, Transport};
use super::telemetry::SpanDump;
use super::{read_bounded_line, CellShard, ExecBackend, InProcessBackend, Raw, MAX_LINE_BYTES};
use crate::pool;
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How many trailing worker-stderr lines ride along in a failure reason.
const STDERR_TAIL: usize = 8;

/// A worker child that is *always* killed and reaped: explicitly via [`ReapGuard::wait`]
/// on the normal path, or by `Drop` when the dispatching thread unwinds (a panicking emit,
/// an early error return). Without this, an abandoned child outlives the backend as a
/// zombie once it exits.
struct ReapGuard {
    child: Option<Child>,
}

impl ReapGuard {
    /// Best-effort kill; the process is reaped by [`ReapGuard::wait`] or `Drop`.
    fn kill(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
        }
    }

    /// Waits for (and thereby reaps) the child; afterwards `Drop` is a no-op.
    fn wait(&mut self) -> std::io::Result<ExitStatus> {
        match self.child.take() {
            Some(mut child) => child.wait(),
            None => Err(std::io::Error::other("child already reaped")),
        }
    }
}

impl Drop for ReapGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Executes shards by fanning stripes out to `sweep --worker` subprocesses.
pub type ProcessBackend = Remote<Spawn>;

/// The process transport: every dispatch spawns a fresh `sweep --worker` child, ships the
/// stripe over its stdin and reads the result stream from its stdout.
#[derive(Debug)]
pub struct Spawn {
    workers: usize,
    worker_threads: usize,
    command: Vec<String>,
}

impl Remote<Spawn> {
    /// A backend that spawns `workers` subprocesses (`0` = available parallelism), each
    /// re-invoking the current executable in `--worker` mode with one thread. The current
    /// executable is the right command when the caller *is* the `sweep` binary; library
    /// embedders and tests point elsewhere with [`ProcessBackend::with_command`].
    pub fn new(workers: usize) -> Self {
        let command =
            std::env::current_exe().map(|exe| vec![exe.display().to_string()]).unwrap_or_default();
        ProcessBackend::with_command(workers, command)
    }

    /// Like [`ProcessBackend::new`] with an explicit worker command line (program + leading
    /// arguments; `--worker --threads T` is appended at spawn time).
    pub fn with_command(workers: usize, command: impl Into<Vec<String>>) -> Self {
        let spawn = Spawn {
            workers: pool::resolve_worker_count(workers),
            worker_threads: 1,
            command: command.into(),
        };
        Remote::over(spawn, 1)
    }

    /// Sets how many threads each worker process runs its stripe with, and the in-process
    /// rescue path with it (`0` = available parallelism; default 1 — process-level
    /// parallelism usually wants single-threaded workers).
    pub fn worker_threads(mut self, threads: usize) -> Self {
        self.transport.worker_threads = threads;
        self.rescue_threads = threads;
        self
    }
}

/// One spawned worker mid-dispatch: the child, its line channel, and the pipe threads.
pub struct SpawnLink {
    child: ReapGuard,
    lines: mpsc::Receiver<std::io::Result<String>>,
    window: Duration,
    reader: JoinHandle<()>,
    writer: JoinHandle<Result<(), String>>,
    stderr: Option<JoinHandle<()>>,
    stderr_tail: Arc<Mutex<VecDeque<String>>>,
}

impl Transport for Spawn {
    type Link = SpawnLink;
    const NAME: &'static str = "process";

    fn slots(&self) -> usize {
        self.workers
    }

    fn label(&self, slot: usize) -> String {
        format!("worker {slot}")
    }

    fn open(
        &self,
        slot: usize,
        stripe: &CellShard,
        dispatch: &Dispatch,
    ) -> Result<(SpawnLink, u64), String> {
        if self.command.is_empty() {
            return Err("no worker command (current_exe unavailable)".into());
        }
        if (dispatch.refuse)() {
            return Err("fault-injected spawn refusal".into());
        }
        let mut command = Command::new(&self.command[0]);
        command
            .args(&self.command[1..])
            .arg("--worker")
            .args(["--threads", &self.worker_threads.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(ms) = dispatch.telemetry {
            command.args(["--telemetry", &ms.to_string()]);
        }
        // Fault clauses scoped to this worker travel in its environment; everyone else
        // gets the variable scrubbed so a scripted parent cannot leak faults downstream.
        let worker_faults = dispatch.faults.for_worker(slot);
        if worker_faults.is_empty() {
            command.env_remove("LOCAL_FAULTS");
        } else {
            command.env("LOCAL_FAULTS", worker_faults.render());
        }
        // Worker span timestamps are relative to the worker's own start; record the spawn
        // time so the final span dump can be rebased onto the coordinator's timeline.
        let spawn_offset = local_obs::now_micros();
        let mut child = command.spawn().map_err(|e| format!("cannot spawn worker: {e}"))?;

        // Take the pipes before the child moves behind the reap guard.
        let child_stdin = child.stdin.take();
        let child_stdout = child.stdout.take().expect("stdout was piped");
        let child_stderr = child.stderr.take();
        let child = ReapGuard { child: Some(child) };

        // Drain stderr on a dedicated thread: re-emit each line prefixed with the worker
        // id, and keep a short tail for the failure reason. The thread ends at pipe EOF.
        let stderr_tail = Arc::new(Mutex::new(VecDeque::<String>::new()));
        let stderr = child_stderr.map(|stderr| {
            let tail = Arc::clone(&stderr_tail);
            std::thread::spawn(move || {
                for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                    eprintln!("[worker {slot}] {line}");
                    let mut tail = tail.lock().expect("stderr tail poisoned");
                    if tail.len() == STDERR_TAIL {
                        tail.pop_front();
                    }
                    tail.push_back(line);
                }
            })
        });

        // Ship the stripe from a dedicated writer thread: a worker that never reads its
        // stdin cannot wedge the dispatcher on `write_all` — the liveness deadline fires
        // instead, the child is killed, and the broken pipe unblocks this thread.
        let shipped = serde_json::to_string(stripe).expect("shard serializes");
        let writer = std::thread::spawn(move || -> Result<(), String> {
            match child_stdin {
                Some(mut stdin) => stdin.write_all(shipped.as_bytes()).map_err(|e| e.to_string()),
                None => Err("stdin was not piped".into()),
            }
        });

        // Read the stream on a dedicated thread too, so `next_line` can enforce the
        // liveness deadline with `recv_timeout` (pipes have no native read timeout).
        let (line_tx, lines) = mpsc::channel::<std::io::Result<String>>();
        let reader = std::thread::spawn(move || {
            let mut stdout = BufReader::new(child_stdout);
            while let Some(line) =
                read_bounded_line(&mut stdout, MAX_LINE_BYTES, "response").transpose()
            {
                let failed = line.is_err();
                if line_tx.send(line).is_err() || failed {
                    break;
                }
            }
        });
        let link = SpawnLink {
            child,
            lines,
            window: dispatch.window,
            reader,
            writer,
            stderr,
            stderr_tail,
        };
        Ok((link, spawn_offset))
    }

    fn next_line(&self, link: &mut SpawnLink) -> Result<Option<String>, String> {
        match link.lines.recv_timeout(link.window) {
            Ok(Ok(line)) => Ok(Some(line)),
            Ok(Err(e)) => Err(format!("stream read error: {e}")),
            Err(RecvTimeoutError::Disconnected) => Ok(None),
            Err(RecvTimeoutError::Timeout) => Err(format!(
                "liveness deadline exceeded ({}ms without a line — wedged worker?)",
                link.window.as_millis()
            )),
        }
    }

    fn close(&self, _: usize, link: SpawnLink, mut failure: Option<String>) -> Option<String> {
        let SpawnLink { mut child, lines, reader, writer, stderr, stderr_tail, .. } = link;
        if failure.is_some() {
            // Stop trusting the worker entirely: kill it so a blocked writer cannot stall
            // the wait below.
            child.kill();
        }
        let status = child.wait();
        drop(lines);
        if failure.is_none() {
            // The worker finished cleanly, so its pipes have hit EOF; join the threads.
            let _ = reader.join();
            let written = writer.join().unwrap_or(Err("writer thread panicked".into()));
            if let Some(thread) = stderr {
                let _ = thread.join();
            }
            failure = match (written, status) {
                (Err(e), _) => Some(format!("cannot ship the stripe over stdin: {e}")),
                (Ok(()), Ok(status)) if status.success() => None,
                (Ok(()), Ok(status)) => Some(format!("worker exited with {status}")),
                (Ok(()), Err(e)) => Some(format!("cannot wait for worker: {e}")),
            };
        }
        // A killed worker may have forked grandchildren (e.g. `sh -c` wrappers) that
        // inherited the pipe write ends and outlive the kill; joining would wait them out.
        // The failure path therefore never joins the pipe threads: dropping their handles
        // detaches them — they end at true EOF, and every byte that matters was refused.
        let mut reason = failure?;
        let tail = stderr_tail.lock().expect("stderr tail poisoned");
        if !tail.is_empty() {
            reason.push_str("; last stderr: ");
            reason.push_str(&tail.iter().cloned().collect::<Vec<_>>().join(" | "));
        }
        Some(reason)
    }
}

/// Serves one worker invocation: parse the shard on `input`, execute it with an
/// [`InProcessBackend`], and stream result lines plus the observation-carrying sentinel to
/// `out`. This *is* `sweep --worker` (the `--serve` TCP daemon reuses the same serving core
/// through [`super::serve_forever`]). Errors (bad shard, version skew) are returned for the binary to
/// print and turn into a nonzero exit, which the parent detects as a shard failure.
///
/// `telemetry_ms` is the parent's `--telemetry` request: `Some(interval)` turns the obs
/// layer on for the stripe and adds heartbeat records every `interval` milliseconds plus a
/// final span dump before the sentinel; `None` (old parents, plain invocations) produces
/// exactly the pre-telemetry stream.
///
/// `faults` executes the process's scripted stream faults; note that `kill` and `truncate`
/// clauses terminate the *calling process* when they fire.
pub fn worker_serve(
    input: &str,
    threads: usize,
    telemetry_ms: Option<u64>,
    faults: &FaultInjector,
    out: &mut (impl Write + Send),
) -> Result<(), String> {
    let shard = CellShard::from_value(
        &serde_json::from_str(input).map_err(|e| format!("unreadable shard: {e}"))?,
    )
    .map_err(|e| format!("malformed shard: {e}"))?;
    serve_shard(&shard, threads, telemetry_ms, faults, out)
}

/// The serving core shared by `sweep --worker` (stdin/stdout) and the `sweep --serve` TCP
/// daemon: version-checks `shard`, executes it, streams results/telemetry/sentinel to
/// `out`, and applies the process's fault injector to every result line.
pub(super) fn serve_shard(
    shard: &CellShard,
    threads: usize,
    telemetry_ms: Option<u64>,
    faults: &FaultInjector,
    out: &mut (impl Write + Send),
) -> Result<(), String> {
    if shard.code_version != crate::CODE_VERSION {
        return Err(format!(
            "code-version skew: shard was built by {:?}, this worker is {:?}",
            shard.code_version,
            crate::CODE_VERSION
        ));
    }
    if telemetry_ms.is_some() {
        local_obs::enable();
    }
    let started = std::time::Instant::now();
    let backend = InProcessBackend::new(threads);
    let sink = Mutex::new(&mut *out);
    let cells_done = std::sync::atomic::AtomicU64::new(0);
    let heartbeat = || {
        let record = super::WorkerTelemetry {
            cells_done: cells_done.load(std::sync::atomic::Ordering::Relaxed),
            wall_micros: started.elapsed().as_micros() as u64,
            counters: local_obs::counter_totals(),
        };
        let line = Raw(Value::Map(vec![("telemetry".into(), record.to_value())]));
        let text = serde_json::to_string(&line).expect("telemetry line serializes");
        // Best-effort: a heartbeat the parent never reads must not fail the stripe.
        let mut sink = sink.lock().expect("worker stdout poisoned");
        let _ = writeln!(sink, "{text}");
        let _ = sink.flush();
    };
    let mut write_error = None;
    {
        let write_error = Mutex::new(&mut write_error);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            if let Some(interval_ms) = telemetry_ms {
                let stop = &stop;
                let heartbeat = &heartbeat;
                scope.spawn(move || {
                    // Sleep in short slices so the beater notices `stop` promptly even
                    // under long heartbeat intervals.
                    let slice = std::time::Duration::from_millis(interval_ms.clamp(1, 50));
                    let mut elapsed_ms = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        std::thread::sleep(slice);
                        elapsed_ms += slice.as_millis() as u64;
                        if elapsed_ms >= interval_ms {
                            elapsed_ms = 0;
                            heartbeat();
                        }
                    }
                });
            }
            backend.run_shard(shard, &|index, result| {
                let line = Raw(Value::Map(vec![
                    ("index".into(), Value::U64(index as u64)),
                    ("cell".into(), result.to_value()),
                ]));
                let text = serde_json::to_string(&line).expect("result line serializes");
                cells_done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let mut sink = sink.lock().expect("worker stdout poisoned");
                // The scripted faults fire under the sink lock, so "result line k" follows
                // emission order deterministically.
                match faults.on_result_line() {
                    LineFault::Kill => {
                        let _ = sink.flush();
                        std::process::exit(1);
                    }
                    LineFault::Truncate => {
                        // A clean stream that simply ends: flush what was verified so far
                        // and exit zero without a sentinel.
                        let _ = sink.flush();
                        std::process::exit(0);
                    }
                    LineFault::Garble => {
                        let _ = writeln!(sink, "{}", FaultInjector::garbage_line(index as u64));
                    }
                    LineFault::Duplicate => {
                        let _ = writeln!(sink, "{text}");
                    }
                    LineFault::Delay(ms) => {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                    LineFault::None => {}
                }
                if let Err(e) = writeln!(sink, "{text}") {
                    write_error.lock().expect("error slot poisoned").get_or_insert(e.to_string());
                }
            });
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    }
    if let Some(e) = write_error {
        return Err(format!("cannot write results: {e}"));
    }
    if telemetry_ms.is_some() {
        // One guaranteed final heartbeat (fast stripes may outrun the interval), then the
        // span dump — both before the sentinel, which stays the stream terminator.
        heartbeat();
        let dump = SpanDump::from_snapshot(&local_obs::snapshot());
        let line = Raw(Value::Map(vec![("spans".into(), dump.to_value())]));
        let text = serde_json::to_string(&line).expect("span dump serializes");
        let mut sink = sink.lock().expect("worker stdout poisoned");
        writeln!(sink, "{text}").map_err(|e| format!("cannot write span dump: {e}"))?;
    }
    let sentinel = Raw(Value::Map(vec![
        ("done".into(), Value::U64(shard.cells.len() as u64)),
        ("observations".into(), observations_to_value(&backend.calibration().observations())),
    ]));
    let text = serde_json::to_string(&sentinel).expect("sentinel serializes");
    let mut sink = sink.lock().expect("worker stdout poisoned");
    writeln!(sink, "{text}").map_err(|e| format!("cannot write sentinel: {e}"))?;
    sink.flush().map_err(|e| format!("cannot flush results: {e}"))
}

/// Renders calibration observation sums for the sentinel line.
pub(super) fn observations_to_value(observations: &[(String, String, f64, f64)]) -> Value {
    Value::Seq(
        observations
            .iter()
            .map(|(problem, family, observed, predicted)| {
                Value::Seq(vec![
                    Value::Str(problem.clone()),
                    Value::Str(family.clone()),
                    Value::F64(*observed),
                    Value::F64(*predicted),
                ])
            })
            .collect(),
    )
}

/// Parses the sentinel's observation sums; shape errors discard the calibration only (the
/// results themselves were verified line by line).
pub(super) fn observations_from_value(
    value: &Value,
) -> Result<Vec<(String, String, f64, f64)>, String> {
    value
        .as_seq()
        .ok_or_else(|| "observations are not a sequence".to_string())?
        .iter()
        .map(|entry| match entry.as_seq() {
            Some([problem, family, observed, predicted]) => Ok((
                String::from_value(problem)?,
                String::from_value(family)?,
                f64::from_value(observed)?,
                f64::from_value(predicted)?,
            )),
            _ => Err("observation entry is not a 4-tuple".to_string()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::stream::accept_result;
    use super::super::FaultPlan;
    use super::*;
    use crate::registry::workload;
    use crate::scenario::Scenario;
    use local_graphs::Family;

    fn no_faults() -> FaultInjector {
        FaultInjector::default()
    }

    fn small_shard() -> CellShard {
        CellShard::new(
            3,
            vec![
                Scenario {
                    problem: workload("luby-mis"),
                    family: Family::SparseGnp.into(),
                    n: 32,
                    replicate: 0,
                },
                Scenario {
                    problem: workload("luby-mis"),
                    family: Family::SparseGnp.into(),
                    n: 32,
                    replicate: 1,
                },
            ],
        )
    }

    #[test]
    fn worker_serve_round_trips_through_the_stream_format() {
        let shard = small_shard();
        let mut out = Vec::new();
        worker_serve(&serde_json::to_string(&shard).unwrap(), 1, None, &no_faults(), &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), shard.cells.len() + 1, "cells + sentinel");

        let mut emitted = vec![false; shard.cells.len()];
        for line in &lines[..shard.cells.len()] {
            let value = serde_json::from_str(line).unwrap();
            let (index, result) = accept_result(&shard, &value, &emitted).unwrap();
            emitted[index] = true;
            assert_eq!(result.seed, shard.cells[index].cell_seed(shard.base_seed));
        }
        let sentinel = serde_json::from_str(lines.last().unwrap()).unwrap();
        assert_eq!(sentinel.get("done").and_then(Value::as_u64), Some(2));
        let observations = observations_from_value(sentinel.get("observations").unwrap()).unwrap();
        assert!(observations
            .iter()
            .any(|(p, f, _, _)| p == "luby-mis" && f == Family::SparseGnp.name()));
    }

    #[test]
    fn worker_serve_rejects_code_version_skew() {
        let mut shard = small_shard();
        shard.code_version = "some-stale-build".into();
        let mut out = Vec::new();
        let err =
            worker_serve(&serde_json::to_string(&shard).unwrap(), 1, None, &no_faults(), &mut out)
                .unwrap_err();
        assert!(err.contains("code-version skew"), "{err}");
        assert!(out.is_empty(), "a refused shard must produce no results");
    }

    #[test]
    fn accept_result_rejects_foreign_and_duplicate_cells() {
        let shard = small_shard();
        let mut out = Vec::new();
        worker_serve(&serde_json::to_string(&shard).unwrap(), 1, None, &no_faults(), &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        let first = serde_json::from_str(text.lines().next().unwrap()).unwrap();

        let fresh = vec![false; shard.cells.len()];
        let (index, _) = accept_result(&shard, &first, &fresh).unwrap();
        let mut seen = fresh.clone();
        seen[index] = true;
        assert!(accept_result(&shard, &first, &seen).unwrap_err().contains("twice"));

        // The same line against a shard with a different base seed: the derived execution
        // seed no longer matches, so the result is refused.
        let mut reseeded = shard.clone();
        reseeded.base_seed = 4;
        assert!(accept_result(&reseeded, &first, &fresh).unwrap_err().contains("does not match"));
    }

    #[test]
    fn garble_faults_insert_garbage_midstream_but_keep_valid_lines() {
        let shard = small_shard();
        let injector = FaultInjector::new(&FaultPlan::parse("garble@1").unwrap());
        let mut out = Vec::new();
        worker_serve(&serde_json::to_string(&shard).unwrap(), 1, None, &injector, &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), shard.cells.len() + 2, "cells + one garbage line + sentinel");
        assert!(serde_json::from_str(lines[0]).is_ok(), "first result is clean");
        assert!(serde_json::from_str(lines[1]).is_err(), "garbage where scripted");
        assert!(serde_json::from_str(lines[2]).is_ok(), "valid lines continue after");
    }

    #[test]
    fn duplicate_faults_repeat_the_scripted_line() {
        let shard = small_shard();
        let injector = FaultInjector::new(&FaultPlan::parse("dup@0").unwrap());
        let mut out = Vec::new();
        worker_serve(&serde_json::to_string(&shard).unwrap(), 1, None, &injector, &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), shard.cells.len() + 2, "cells + one duplicate + sentinel");
        assert_eq!(lines[0], lines[1], "the scripted line is emitted twice");
    }

    #[test]
    fn observation_wire_format_round_trips() {
        let observations = vec![
            ("mis".to_string(), "grid".to_string(), 1234.5, 678.0),
            ("coloring".to_string(), "path".to_string(), 9.0, 4.5),
        ];
        let value = observations_to_value(&observations);
        assert_eq!(observations_from_value(&value).unwrap(), observations);
    }
}
