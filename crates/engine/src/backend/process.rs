//! The multi-process backend and its serialized cell-shard protocol.
//!
//! # Wire protocol
//!
//! The parent splits the scheduler's shard into instance-grouped stripes (one per worker;
//! graph instances round-robined in LPT order, so cells sharing an instance co-locate and
//! no instance is generated twice across the fleet) and, per worker, spawns
//! `sweep --worker --threads T`:
//!
//! * **stdin** — one JSON document: the worker's [`CellShard`] (base seed, code-version
//!   tag, and `Scenario` coordinates). The worker reads it whole before executing
//!   anything, then refuses it unless the code version matches its own build. The parent
//!   writes it from a dedicated thread, behind the same liveness deadline as reads — a
//!   wedged worker that never reads its stdin is detected and rescued, not waited on
//!   forever.
//! * **stdout** — newline-delimited JSON, one `{"index": i, "cell": {…}}` line per finished
//!   cell (in completion order — the index maps back to the stripe), terminated by a
//!   sentinel `{"done": n, "observations": […]}` line carrying the worker's cost-model
//!   observation sums. When the parent requested telemetry (`--telemetry <ms>`), the
//!   stream additionally carries `{"telemetry": …}` heartbeat records (progress + counter
//!   totals, see [`super::telemetry::WorkerTelemetry`]) and one final `{"spans": …}` dump
//!   of the worker's span buffers ([`super::telemetry::SpanDump`]) right before the
//!   sentinel — both strictly additive, so mixed-version fleets exchange exactly the
//!   pre-existing record bytes. Heartbeats double as liveness: a stream that stays silent
//!   past the [`super::liveness_window`] is declared dead.
//! * **stderr** — captured line by line, re-emitted on the parent's stderr prefixed with
//!   the worker id (`[worker 3] …`); the last few lines ride along in the failure reason
//!   when a worker dies, so the rescue-path log says *why*.
//!
//! # Failure semantics
//!
//! Every result line is verified against the cell it claims to be (problem, family, size,
//! replicate, *and* the derived execution seed) before it is accepted (see
//! [`super::stream`]). A worker that exits nonzero, truncates its stream, repeats an
//! index, stalls past the liveness deadline, or emits anything unparseable is abandoned on
//! the spot: its already-verified cells stand, and the parent re-executes the rest through
//! the shared [`super::rescue_missing`] path — so a killed, wedged, or garbage-spewing
//! worker degrades wall clock, never the report. Worker children are killed and reaped on
//! drop, so no failure path (including a panicking emit) leaks a zombie.
//!
//! # Fault injection
//!
//! The backend honours a [`FaultPlan`] (builder knob, defaulting to the `LOCAL_FAULTS`
//! environment script): clauses scoped `w<i>:` are forwarded — unscoped — into worker
//! `i`'s environment, where [`worker_serve`] executes them against its own result stream;
//! `refuse` clauses fail the spawn parent-side. Children of an unfaulted worker get
//! `LOCAL_FAULTS` scrubbed from their environment, so a scripted coordinator can never
//! leak its own script into the fleet.

use super::faults::{FaultInjector, FaultPlan, LineFault};
use super::stream::{LineOutcome, StripeStream};
use super::telemetry::SpanDump;
use super::{liveness_window, CellShard, EmitFn, ExecBackend, InProcessBackend};
use crate::cost::CostModel;
use crate::pool;
use crate::progress::ProgressMeter;
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How many trailing worker-stderr lines ride along in a failure reason.
const STDERR_TAIL: usize = 8;

/// Default read/write liveness deadline: generous enough for the largest single cells when
/// no heartbeats flow (telemetry shrinks the effective window via
/// [`super::liveness_window`]).
const DEFAULT_IO_DEADLINE_MS: u64 = 600_000;

/// A worker child that is *always* killed and reaped: explicitly via [`ReapGuard::wait`]
/// on the normal path, or by `Drop` when the dispatching thread unwinds (a panicking emit,
/// an early error return). Without this, an abandoned child outlives the backend as a
/// zombie once it exits.
struct ReapGuard {
    child: Option<Child>,
}

impl ReapGuard {
    fn new(child: Child) -> Self {
        ReapGuard { child: Some(child) }
    }

    /// Best-effort kill; the process is reaped by [`ReapGuard::wait`] or `Drop`.
    fn kill(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
        }
    }

    /// Waits for (and thereby reaps) the child; afterwards `Drop` is a no-op.
    fn wait(&mut self) -> std::io::Result<ExitStatus> {
        match &mut self.child {
            Some(child) => {
                let status = child.wait();
                self.child = None;
                status
            }
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
#[derive(Debug)]
pub struct ProcessBackend {
    workers: usize,
    worker_threads: usize,
    command: Vec<String>,
    observed: Mutex<CostModel>,
    progress: Option<ProgressMeter>,
    heartbeat_ms: u64,
    io_deadline_ms: u64,
    faults: FaultPlan,
}

impl ProcessBackend {
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
        ProcessBackend {
            workers: pool::resolve_worker_count(workers),
            worker_threads: 1,
            command: command.into(),
            observed: Mutex::new(CostModel::new()),
            progress: None,
            heartbeat_ms: 500,
            io_deadline_ms: DEFAULT_IO_DEADLINE_MS,
            faults: FaultPlan::from_env_lossy(),
        }
    }

    /// Sets how many threads each worker process runs its stripe with (`0` = the worker
    /// machine's available parallelism; default 1 — process-level parallelism usually wants
    /// single-threaded workers).
    pub fn worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = threads;
        self
    }

    /// Attaches a live progress meter: workers are asked for heartbeats, and both result
    /// lines and heartbeat records update the per-worker throughput display.
    pub fn progress(mut self, meter: ProgressMeter) -> Self {
        self.progress = Some(meter);
        self
    }

    /// Sets the worker heartbeat interval (default 500ms; only used when telemetry is on).
    pub fn heartbeat_ms(mut self, ms: u64) -> Self {
        self.heartbeat_ms = ms.max(1);
        self
    }

    /// Sets the I/O liveness deadline in milliseconds (default 600000): a worker whose
    /// stream stays silent this long — including one that never reads its stdin — is
    /// declared dead and its missing cells are rescued. When heartbeats flow, the
    /// effective window shrinks to a few heartbeat intervals ([`super::liveness_window`]).
    pub fn io_deadline_ms(mut self, ms: u64) -> Self {
        self.io_deadline_ms = ms.max(1);
        self
    }

    /// Sets the deterministic fault-injection plan (default: the `LOCAL_FAULTS`
    /// environment script). Clauses scoped to worker `i` are forwarded into that worker's
    /// environment; `refuse` clauses fail the spawn parent-side.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Whether to ask workers for telemetry, and at what interval: yes when a progress
    /// meter is attached or the coordinator's own obs layer is recording.
    fn telemetry_interval(&self) -> Option<u64> {
        (self.progress.is_some() || local_obs::is_enabled()).then_some(self.heartbeat_ms)
    }

    /// Dispatches one stripe to one worker subprocess. Returns the indices (into the
    /// stripe) of the cells that still need a result, plus a description of what went wrong
    /// when the stream could not be fully trusted.
    fn run_stripe(
        &self,
        worker: usize,
        stripe: &CellShard,
        parent_indices: &[usize],
        emit: &EmitFn,
    ) -> Result<(), (Vec<usize>, String)> {
        let all = || (0..stripe.cells.len()).collect::<Vec<usize>>();
        if self.command.is_empty() {
            return Err((all(), "no worker command (current_exe unavailable)".into()));
        }
        let refusals = self.faults.refuse_connects(worker);
        if refusals > 0 {
            // The process backend has no reconnect loop, so any scripted refusal fails the
            // whole stripe (the network backend retries through its backoff instead).
            local_obs::counter_add(local_obs::metrics::FAULTS_INJECTED, 1);
            return Err((all(), format!("fault-injected spawn refusal (refuse*{refusals})")));
        }
        let mut command = Command::new(&self.command[0]);
        command
            .args(&self.command[1..])
            .arg("--worker")
            .args(["--threads", &self.worker_threads.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let telemetry = self.telemetry_interval();
        if let Some(ms) = telemetry {
            command.args(["--telemetry", &ms.to_string()]);
        }
        // Fault clauses scoped to this worker travel in its environment; everyone else
        // gets the variable scrubbed so a scripted parent cannot leak faults downstream.
        let worker_faults = self.faults.for_worker(worker);
        if worker_faults.is_empty() {
            command.env_remove("LOCAL_FAULTS");
        } else {
            command.env("LOCAL_FAULTS", worker_faults.render());
        }
        // Worker span timestamps are relative to the worker's own start; record the spawn
        // time so the final span dump can be rebased onto the coordinator's timeline.
        let spawn_offset = local_obs::now_micros();
        let mut child = match command.spawn() {
            Ok(child) => child,
            Err(e) => return Err((all(), format!("cannot spawn worker: {e}"))),
        };

        // Take the pipes before the child moves behind the reap guard.
        let child_stdin = child.stdin.take();
        let child_stdout = child.stdout.take().expect("stdout was piped");
        let child_stderr = child.stderr.take();
        let mut child = ReapGuard::new(child);

        // Drain stderr on a dedicated thread: re-emit each line prefixed with the worker
        // id, and keep a short tail for the failure reason. The thread ends at pipe EOF.
        let stderr_tail = Arc::new(Mutex::new(VecDeque::<String>::new()));
        let stderr_thread = child_stderr.map(|stderr| {
            let tail = Arc::clone(&stderr_tail);
            std::thread::spawn(move || {
                for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                    eprintln!("[worker {worker}] {line}");
                    let mut tail = tail.lock().expect("stderr tail poisoned");
                    if tail.len() == STDERR_TAIL {
                        tail.pop_front();
                    }
                    tail.push_back(line);
                }
            })
        });
        let worker_label = format!("worker {worker}");

        // Ship the stripe from a dedicated writer thread: a worker that never reads its
        // stdin can no longer wedge the dispatcher on `write_all` — the read loop's
        // liveness deadline fires instead, the child is killed, and the broken pipe
        // unblocks this thread for the join below.
        let shipped = serde_json::to_string(stripe).expect("shard serializes");
        let writer_thread = std::thread::spawn(move || -> Result<(), String> {
            match child_stdin {
                Some(mut stdin) => stdin.write_all(shipped.as_bytes()).map_err(|e| e.to_string()),
                None => Err("stdin was not piped".into()),
            }
        });

        // Read the stream on a dedicated thread too, so the verification loop can enforce
        // the liveness deadline with `recv_timeout` (pipes have no native read timeout).
        let (line_tx, line_rx) = mpsc::channel::<std::io::Result<String>>();
        let reader_thread = std::thread::spawn(move || {
            for line in BufReader::new(child_stdout).lines() {
                if line_tx.send(line).is_err() {
                    break;
                }
            }
        });

        let deadline = liveness_window(Duration::from_millis(self.io_deadline_ms), telemetry);
        let mut stream = StripeStream::new(stripe, worker_label, spawn_offset);
        let mut failure = None;
        loop {
            match line_rx.recv_timeout(deadline) {
                Ok(Ok(line)) => {
                    let mut accept = |index: usize, result| emit(parent_indices[index], result);
                    match stream.consume(&line, self.progress.as_ref(), &mut accept) {
                        Ok(LineOutcome::Progress) => {}
                        Ok(LineOutcome::Finished) => break,
                        Err(reason) => {
                            failure = Some(reason);
                            break;
                        }
                    }
                }
                Ok(Err(e)) => {
                    failure = Some(format!("stream read error: {e}"));
                    break;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    failure = Some("stream truncated before the sentinel".into());
                    break;
                }
                Err(RecvTimeoutError::Timeout) => {
                    failure = Some(format!(
                        "liveness deadline exceeded ({}ms without a line — wedged worker?)",
                        deadline.as_millis()
                    ));
                    break;
                }
            }
        }
        if failure.is_none() {
            failure = stream.verify_completion().err();
        }

        if failure.is_some() {
            // Stop trusting the worker entirely: kill it so a blocked writer cannot stall
            // the wait below, then re-run whatever is missing.
            child.kill();
        }
        let status = child.wait();
        drop(line_rx);
        if failure.is_none() {
            // The worker finished cleanly, so its pipes have hit EOF; join the tails.
            let _ = reader_thread.join();
            let write_result = writer_thread.join().unwrap_or(Err("writer thread panicked".into()));
            if let Some(thread) = stderr_thread {
                let _ = thread.join();
            }
            if let Err(e) = write_result {
                failure = Some(format!("cannot ship the stripe over stdin: {e}"));
            }
        } else {
            // A killed worker may have forked grandchildren (e.g. `sh -c` wrappers) that
            // inherited the pipe write ends and outlive the kill; joining would wait them
            // out. Detach instead — the threads end at true EOF, and every byte that
            // matters was already refused above.
            drop(reader_thread);
            drop(writer_thread);
            drop(stderr_thread);
        }
        if failure.is_none() {
            match status {
                Ok(status) if status.success() => {}
                Ok(status) => failure = Some(format!("worker exited with {status}")),
                Err(e) => failure = Some(format!("cannot wait for worker: {e}")),
            }
        }

        match failure {
            None => {
                // Fully trusted stream: merge the worker's observation sums home.
                if let Some(observations) =
                    stream.sentinel_observations().map(observations_from_value)
                {
                    let mut observed = self.observed.lock().expect("cost observations poisoned");
                    for (problem, family, obs, pred) in observations.unwrap_or_default() {
                        observed.observe_group(&problem, &family, obs, pred);
                    }
                }
                Ok(())
            }
            Some(mut reason) => {
                // The sentinel's sums are gone with the worker, but the verified cells
                // stand in the report — so their line-observed calibration stands too (the
                // fallback separately observes whatever it re-runs).
                self.observed
                    .lock()
                    .expect("cost observations poisoned")
                    .merge(&stream.line_observed);
                let tail = stderr_tail.lock().expect("stderr tail poisoned");
                if !tail.is_empty() {
                    reason.push_str("; last stderr: ");
                    reason.push_str(&tail.iter().cloned().collect::<Vec<_>>().join(" | "));
                }
                Err((stream.missing(), reason))
            }
        }
    }
}

impl ExecBackend for ProcessBackend {
    fn name(&self) -> &'static str {
        "process"
    }

    fn parallelism(&self) -> usize {
        self.workers
    }

    fn run_shard(&self, shard: &CellShard, emit: &EmitFn) {
        if shard.cells.is_empty() {
            return;
        }
        let stripes = shard.stripe(self.workers);
        std::thread::scope(|scope| {
            for (worker, (stripe, parent_indices)) in stripes.iter().enumerate() {
                scope.spawn(move || {
                    if let Err((missing, reason)) =
                        self.run_stripe(worker, stripe, parent_indices, emit)
                    {
                        eprintln!(
                            "sweep process backend: worker failed ({reason}); re-running {} \
                             cells in-process",
                            missing.len()
                        );
                        super::rescue_missing(
                            stripe,
                            &missing,
                            self.worker_threads,
                            &self.observed,
                            &|k, result| emit(parent_indices[missing[k]], result),
                        );
                    }
                });
            }
        });
    }

    fn calibration(&self) -> CostModel {
        let mut out = CostModel::new();
        out.merge(&self.observed.lock().expect("cost observations poisoned"));
        out
    }
}

/// Serves one worker invocation: parse the shard on `input`, execute it with an
/// [`InProcessBackend`], and stream result lines plus the observation-carrying sentinel to
/// `out`. This *is* `sweep --worker`; it lives here so both sides of the protocol share one
/// module (the `--serve` TCP daemon reuses the same serving core through
/// [`super::network`]). Errors (bad shard, version skew) are returned for the binary to
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

/// Adapter rendering a raw [`Value`] through the serde stub (which serializes `Serialize`
/// types, not `Value`s directly).
struct Raw(Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::super::stream::accept_result;
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
