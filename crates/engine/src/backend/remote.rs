//! The remote-stripe runner: one dispatch / verify / re-dispatch / rescue loop for every
//! backend whose cells execute outside this process.
//!
//! [`ProcessBackend`](super::ProcessBackend) (`Remote<Spawn>`: `sweep --worker` children
//! over stdio) and [`NetworkBackend`](super::NetworkBackend) (`Remote<Tcp>`: persistent
//! `sweep --serve` daemons) differ only in how a link to worker slot `i` is opened, read
//! and closed — the private [`Transport`] trait. Striping, the liveness window, stream
//! verification, calibration merging and degradation live here, once.
//!
//! # Wire protocol
//!
//! The parent splits the scheduler's shard into instance-grouped stripes, one per slot
//! ([`CellShard::stripe`]: graph instances round-robined in LPT order, so cells sharing an
//! instance co-locate and no instance is generated twice across the fleet), and ships each
//! stripe as JSON: a spawned worker reads its [`CellShard`] whole from stdin (written from
//! a dedicated thread, behind the same liveness deadline as reads); a daemon reads one
//! request line `{"shard": <CellShard>, "telemetry": <ms>?, "client": <name>?}` per shard
//! over a persistent connection. Workers refuse shards whose code version differs from
//! their own build. Both answer with the same newline-delimited stream:
//!
//! * one `{"index": i, "cell": {…}}` line per finished cell, in completion order (the
//!   index maps back to the stripe);
//! * when telemetry was requested, `{"telemetry": …}` heartbeats (progress + counter
//!   totals, [`super::telemetry::WorkerTelemetry`]) and one final `{"spans": …}` dump
//!   ([`super::telemetry::SpanDump`]) — strictly additive, so mixed-version fleets exchange
//!   exactly the pre-existing record bytes;
//! * a `{"done": n, "observations": […]}` sentinel carrying the worker's cost-model
//!   observation sums.
//!
//! A daemon that cannot serve a request answers a single `{"error": …}` line and hangs up.
//! A spawned worker's stderr is re-emitted prefixed `[worker i]`, and its last lines ride
//! along in the failure reason.
//!
//! # Failure semantics
//!
//! Every result line is verified against the cell it claims to be (problem, family, size,
//! replicate *and* the derived execution seed) before it is accepted ([`super::stream`]).
//! A link that stays silent past the [`super::liveness_window`] (heartbeats shrink it from
//! the I/O deadline to a few heartbeat intervals), ends before its sentinel, repeats an
//! index, emits anything unparseable or a line past the 64 MiB line cap, under-emits
//! behind a confident sentinel, or whose worker exits nonzero is abandoned on the spot. Its verified cells stand — together
//! with the calibration observed from their lines — and the unverified remainder goes,
//! after the concurrent pass, to a slot whose own stripe succeeded
//! ([`local_obs::metrics::REDISPATCHED_CELLS`]; for processes that is a fresh child).
//! Whatever no healthy slot can serve is rescued in-process through the shared
//! [`super::rescue_missing`] ([`local_obs::metrics::RESCUED_CELLS`]). A dead, wedged or
//! garbage-spewing worker degrades wall clock, never the report. Worker children are
//! killed and reaped on every exit path, including a panicking emit.
//!
//! # Fault injection
//!
//! The runner honours a [`FaultPlan`] (builder knob, defaulting to the `LOCAL_FAULTS`
//! environment script). `refuse*N` clauses scoped `w<i>:` refuse slot `i`'s first N open
//! attempts, counted once per slot for the life of the process: a spawn tries once per
//! dispatch, a connect retries through capped backoff ([`super::backoff_ms`]). Other
//! clauses in a `w<i>:` scope travel into spawned worker `i`'s environment (children of an
//! unfaulted slot get `LOCAL_FAULTS` scrubbed); daemons are scripted through their own
//! environment when launched.

use super::process::observations_from_value;
use super::stream::{LineOutcome, StripeStream};
use super::{liveness_window, rescue_missing, CellShard, EmitFn, ExecBackend, FaultPlan};
use crate::cost::CostModel;
use crate::progress::ProgressMeter;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Default read/write liveness deadline: generous enough for the largest single cells when
/// no heartbeats flow.
const DEFAULT_IO_DEADLINE_MS: u64 = 600_000;

/// The worker heartbeat interval requested whenever telemetry is on.
const HEARTBEAT_MS: u64 = 500;

/// What a transport needs to open one dispatch.
pub struct Dispatch<'a> {
    /// The heartbeat interval to request from the worker, when telemetry is on.
    pub telemetry: Option<u64>,
    /// How long the link may stay silent before it is declared dead.
    pub window: Duration,
    /// The runner's fault plan (spawned workers get their slot's clauses).
    pub faults: &'a FaultPlan,
    /// Consumes one of the slot's scripted refusals: `true` means this attempt must fail.
    pub refuse: &'a dyn Fn() -> bool,
}

/// How a [`Remote`] runner reaches worker slot `i`: open a link and ship the stripe, yield
/// its lines until a deadline, EOF or error, and close it with a verdict.
///
/// Private to `backend`: the trait is `pub` only so it may bound `Remote`'s public impls,
/// and this module is not exported, so nothing outside can name or implement it.
pub trait Transport: Sync {
    /// One open link to a worker.
    type Link;

    /// The backend name ([`ExecBackend::name`]).
    const NAME: &'static str;

    /// How many slots stripes are spread over.
    fn slots(&self) -> usize;

    /// The slot's name in logs, progress and imported trace tracks.
    fn label(&self, slot: usize) -> String;

    /// Opens a link to `slot` and ships `stripe` over it. Also returns the local time (µs)
    /// the worker's clock starts from, so its span dump can be rebased.
    fn open(
        &self,
        slot: usize,
        stripe: &CellShard,
        dispatch: &Dispatch,
    ) -> Result<(Self::Link, u64), String>;

    /// The next line of the stream: `Ok(None)` at EOF, `Err` on a deadline or read error.
    fn next_line(&self, link: &mut Self::Link) -> Result<Option<String>, String>;

    /// Closes the link with the runner's verdict (`None` = trusted so far) and returns the
    /// final one: closing may itself reveal a failure (exit status, a failed write) or add
    /// context to one.
    fn close(&self, slot: usize, link: Self::Link, failure: Option<String>) -> Option<String>;
}

/// Executes shards by striping them over remote workers reached through transport `T`:
/// every streamed result is verified, a failed stripe's unverified remainder is
/// re-dispatched to a worker whose own stripe succeeded, and whatever no healthy worker
/// can serve is rescued in-process.
#[derive(Debug)]
pub struct Remote<T> {
    pub(super) transport: T,
    /// Threads for the in-process rescue path (`0` = available parallelism).
    pub(super) rescue_threads: usize,
    observed: Mutex<CostModel>,
    progress: Option<ProgressMeter>,
    io_deadline_ms: u64,
    faults: FaultPlan,
    /// Scripted refusals already consumed, per slot (`refuse*2` refuses two attempts in
    /// total across every stripe and re-dispatch, then lets them through).
    refused: Vec<AtomicU64>,
}

impl<T: Transport> Remote<T> {
    /// A runner over `transport` with default settings.
    pub(super) fn over(transport: T, rescue_threads: usize) -> Self {
        Remote {
            refused: (0..transport.slots()).map(|_| AtomicU64::new(0)).collect(),
            transport,
            rescue_threads,
            observed: Mutex::new(CostModel::new()),
            progress: None,
            io_deadline_ms: DEFAULT_IO_DEADLINE_MS,
            faults: FaultPlan::from_env_lossy(),
        }
    }

    /// Attaches a live progress meter: workers are asked for heartbeats, and both result
    /// lines and heartbeat records update the per-worker throughput display.
    pub fn progress(mut self, meter: ProgressMeter) -> Self {
        self.progress = Some(meter);
        self
    }

    /// Sets the I/O liveness deadline in milliseconds (default 600000): a worker whose
    /// stream stays silent this long — including one that never reads its stripe — is
    /// declared dead. When heartbeats flow, the window shrinks to a few heartbeat
    /// intervals ([`super::liveness_window`]).
    pub fn io_deadline_ms(mut self, ms: u64) -> Self {
        self.io_deadline_ms = ms.max(1);
        self
    }

    /// Sets the deterministic fault-injection plan (default: the `LOCAL_FAULTS`
    /// environment script). `refuse*N` scoped to worker `i` fails its first N spawns or
    /// connects over the runner's lifetime; a spawned worker also gets its other scoped
    /// clauses in its environment (daemons take theirs when launched).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Whether to ask workers for telemetry, and at what interval: yes when a progress
    /// meter is attached or this process's own obs layer is recording.
    fn telemetry_interval(&self) -> Option<u64> {
        (self.progress.is_some() || local_obs::is_enabled()).then_some(HEARTBEAT_MS)
    }

    /// Consumes one scripted refusal of `slot`, if any are left.
    fn refuse(&self, slot: usize) -> bool {
        let scripted = self.faults.refuse_connects(slot);
        let refused = self.refused[slot]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < scripted).then_some(n + 1))
            .is_ok();
        if refused {
            local_obs::counter_add(local_obs::metrics::FAULTS_INJECTED, 1);
        }
        refused
    }

    /// Dispatches one stripe to one slot. Returns the stripe indices still missing plus the
    /// failure reason when the stream cannot be trusted to completion. (`pub(super)` so the
    /// coordinator can drive single-stripe dispatches with its own scheduling policy.)
    pub(super) fn run_stripe(
        &self,
        slot: usize,
        stripe: &CellShard,
        parent_indices: &[usize],
        emit: &EmitFn,
    ) -> Result<(), (Vec<usize>, String)> {
        let telemetry = self.telemetry_interval();
        let dispatch = Dispatch {
            telemetry,
            window: liveness_window(Duration::from_millis(self.io_deadline_ms), telemetry),
            faults: &self.faults,
            refuse: &|| self.refuse(slot),
        };
        let (mut link, epoch) = match self.transport.open(slot, stripe, &dispatch) {
            Ok(opened) => opened,
            Err(reason) => return Err(((0..stripe.cells.len()).collect(), reason)),
        };
        let mut stream = StripeStream::new(stripe, self.transport.label(slot), epoch);
        let failure = loop {
            let line = match self.transport.next_line(&mut link) {
                Ok(Some(line)) => line,
                Ok(None) => break Some("stream ended before the sentinel".to_string()),
                Err(reason) => break Some(reason),
            };
            let mut accept = |index: usize, result| emit(parent_indices[index], result);
            match stream.consume(&line, self.progress.as_ref(), &mut accept) {
                Ok(LineOutcome::Progress) => {}
                Ok(LineOutcome::Finished) => break stream.verify_completion().err(),
                Err(reason) => break Some(reason),
            }
        };
        let failure = self.transport.close(slot, link, failure);

        let mut observed = self.observed.lock().expect("cost observations poisoned");
        match failure {
            None => {
                // Fully trusted stream: merge the worker's observation sums home (a
                // malformed sum discards the calibration only; the cells were verified).
                if let Some(Ok(sums)) = stream.sentinel_observations().map(observations_from_value)
                {
                    for (problem, family, obs, pred) in sums {
                        observed.observe_group(&problem, &family, obs, pred);
                    }
                }
                Ok(())
            }
            Some(reason) => {
                // The sentinel's sums are gone with the worker, but the verified cells stand
                // in the report — so their line-observed calibration stands too (whatever
                // re-runs the rest observes it separately).
                observed.merge(&stream.line_observed);
                Err((stream.missing(), reason))
            }
        }
    }
}

impl<T: Transport> ExecBackend for Remote<T> {
    fn name(&self) -> &'static str {
        T::NAME
    }

    fn parallelism(&self) -> usize {
        self.transport.slots()
    }

    fn run_shard(&self, shard: &CellShard, emit: &EmitFn) {
        if shard.cells.is_empty() {
            return;
        }
        let slots = self.transport.slots();
        if slots == 0 {
            // No slots at all: everything is irreducible remainder.
            let all: Vec<usize> = (0..shard.cells.len()).collect();
            rescue_missing(shard, &all, self.rescue_threads, &self.observed, emit);
            return;
        }
        let stripes = shard.stripe(slots);
        let healthy: Vec<AtomicBool> = (0..slots).map(|_| AtomicBool::new(true)).collect();
        let failures: Mutex<Vec<(usize, Vec<usize>)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for (slot, (stripe, parent_indices)) in stripes.iter().enumerate() {
                let (healthy, failures) = (&healthy, &failures);
                scope.spawn(move || {
                    if let Err((missing, reason)) =
                        self.run_stripe(slot, stripe, parent_indices, emit)
                    {
                        healthy[slot].store(false, Ordering::Relaxed);
                        eprintln!(
                            "sweep {} backend: {} failed ({reason}); re-dispatching {} cells",
                            T::NAME,
                            self.transport.label(slot),
                            missing.len()
                        );
                        failures.lock().expect("failure list poisoned").push((slot, missing));
                    }
                });
            }
        });

        // Degraded phase: walk each failed stripe's remainder through the healthy slots;
        // whatever none of them can serve is rescued in-process. Sequential on purpose —
        // this is the slow path, and determinism of the *report* never depended on it.
        for (stripe_index, mut remaining) in failures.into_inner().expect("failure list poisoned") {
            let (stripe, parent_indices) = &stripes[stripe_index];
            while !remaining.is_empty() {
                let Some(slot) = (0..slots).find(|&s| healthy[s].load(Ordering::Relaxed)) else {
                    break;
                };
                let sub = CellShard {
                    base_seed: stripe.base_seed,
                    code_version: stripe.code_version.clone(),
                    cells: remaining.iter().map(|&i| stripe.cells[i].clone()).collect(),
                };
                let sub_parents: Vec<usize> =
                    remaining.iter().map(|&i| parent_indices[i]).collect();
                // Count a cell as re-dispatched only once it actually lands on the retry
                // slot: counting up front would book the same cell once per failed attempt
                // and double-book cells that end up rescued in-process instead.
                let attempted = remaining.len() as u64;
                match self.run_stripe(slot, &sub, &sub_parents, emit) {
                    Ok(()) => {
                        local_obs::counter_add(local_obs::metrics::REDISPATCHED_CELLS, attempted);
                        remaining.clear();
                    }
                    Err((still_missing, reason)) => {
                        local_obs::counter_add(
                            local_obs::metrics::REDISPATCHED_CELLS,
                            attempted - still_missing.len() as u64,
                        );
                        healthy[slot].store(false, Ordering::Relaxed);
                        eprintln!(
                            "sweep {} backend: re-dispatch to {} failed ({reason})",
                            T::NAME,
                            self.transport.label(slot)
                        );
                        remaining = still_missing.iter().map(|&k| remaining[k]).collect();
                    }
                }
            }
            if !remaining.is_empty() {
                eprintln!(
                    "sweep {} backend: no healthy workers left; re-running {} cells in-process",
                    T::NAME,
                    remaining.len()
                );
                rescue_missing(
                    stripe,
                    &remaining,
                    self.rescue_threads,
                    &self.observed,
                    &|k, result| emit(parent_indices[remaining[k]], result),
                );
            }
        }
    }

    fn calibration(&self) -> CostModel {
        let mut out = CostModel::new();
        out.merge(&self.observed.lock().expect("cost observations poisoned"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::process::serve_shard;
    use super::super::{FaultInjector, InProcessBackend};
    use super::*;
    use crate::registry::workload;
    use crate::report::CellResult;
    use crate::scenario::Scenario;
    use local_graphs::Family;
    use std::collections::VecDeque;

    /// How one scripted dispatch misbehaves, relative to the worker's true stream.
    #[derive(Debug, Clone, Copy)]
    enum Script {
        Clean,
        /// A garbage line after the first `k` lines.
        Garbage(usize),
        /// Silence past the deadline after the first `k` lines.
        Timeout(usize),
        /// EOF after the first `k` lines (no sentinel).
        Eof(usize),
        /// Result line `k` is dropped; the sentinel still claims every cell.
        Drop(usize),
    }

    /// A scripted fake link: each open of slot `i` runs the stripe for real in-process,
    /// then replays its stream through the slot's next [`Script`] (default clean).
    struct Fake {
        scripts: Vec<Mutex<VecDeque<Script>>>,
        /// Slots in the order their links actually opened.
        opened: Mutex<Vec<usize>>,
    }

    type FakeLink = VecDeque<Result<String, String>>;

    impl Transport for Fake {
        type Link = FakeLink;
        const NAME: &'static str = "fake";

        fn slots(&self) -> usize {
            self.scripts.len()
        }

        fn label(&self, slot: usize) -> String {
            format!("fake {slot}")
        }

        fn open(
            &self,
            slot: usize,
            stripe: &CellShard,
            dispatch: &Dispatch,
        ) -> Result<(FakeLink, u64), String> {
            if (dispatch.refuse)() {
                return Err("scripted refusal".into());
            }
            self.opened.lock().unwrap().push(slot);
            let script = self.scripts[slot].lock().unwrap().pop_front().unwrap_or(Script::Clean);
            let mut out = Vec::new();
            serve_shard(stripe, 1, None, &FaultInjector::default(), &mut out).unwrap();
            let mut lines: FakeLink =
                String::from_utf8(out).unwrap().lines().map(|l| Ok(l.to_string())).collect();
            match script {
                Script::Clean => {}
                Script::Garbage(k) => lines.insert(k, Ok("{ not json".into())),
                Script::Timeout(k) => {
                    lines.truncate(k);
                    lines.push_back(Err("liveness deadline exceeded".into()));
                }
                Script::Eof(k) => lines.truncate(k),
                Script::Drop(k) => drop(lines.remove(k)),
            }
            Ok((lines, 0))
        }

        fn next_line(&self, link: &mut FakeLink) -> Result<Option<String>, String> {
            link.pop_front().transpose()
        }

        fn close(&self, _: usize, _: FakeLink, failure: Option<String>) -> Option<String> {
            failure
        }
    }

    fn runner(scripts: Vec<Vec<Script>>) -> Remote<Fake> {
        let scripts = scripts.into_iter().map(|s| Mutex::new(s.into())).collect();
        Remote::over(Fake { scripts, opened: Mutex::new(Vec::new()) }, 1)
            .faults(FaultPlan::default())
    }

    /// Six cells on six distinct instances, so two slots get three cells each.
    fn shard() -> CellShard {
        let cells = (0..6)
            .map(|replicate| Scenario {
                problem: workload("luby-mis"),
                family: Family::SparseGnp.into(),
                n: 32,
                replicate,
            })
            .collect();
        CellShard::new(5, cells)
    }

    /// Runs `shard` on `backend`, asserting every cell is emitted exactly once and matches
    /// the in-process reference; returns the slots in the order they were opened.
    fn run_and_check(backend: &Remote<Fake>, shard: &CellShard) -> Vec<usize> {
        let reference: Mutex<Vec<Option<CellResult>>> = Mutex::new(vec![None; shard.cells.len()]);
        InProcessBackend::new(1).run_shard(shard, &|i, r| reference.lock().unwrap()[i] = Some(r));
        let reference = reference.into_inner().unwrap();
        let emitted: Mutex<Vec<Option<CellResult>>> = Mutex::new(vec![None; shard.cells.len()]);
        backend.run_shard(shard, &|i, result| {
            let previous = emitted.lock().unwrap()[i].replace(result);
            assert!(previous.is_none(), "cell {i} emitted twice");
        });
        for (i, (got, want)) in emitted.into_inner().unwrap().iter().zip(&reference).enumerate() {
            let (got, want) = (got.as_ref().expect("cell missing"), want.as_ref().unwrap());
            assert_eq!(got.deterministic_view(), want.deterministic_view(), "cell {i} diverged");
        }
        std::mem::take(&mut *backend.transport.opened.lock().unwrap())
    }

    fn sorted(mut slots: Vec<usize>) -> Vec<usize> {
        slots.sort_unstable();
        slots
    }

    #[test]
    fn garbage_abandons_the_link_and_redispatches_to_a_healthy_slot() {
        let backend = runner(vec![vec![Script::Garbage(1)], vec![]]);
        // Slot 0's pass fails after one verified cell; slot 1 serves its own stripe, then
        // the two-cell remainder on a second link.
        assert_eq!(sorted(run_and_check(&backend, &shard())), vec![0, 1, 1]);
    }

    #[test]
    fn a_timeout_with_no_healthy_slot_is_rescued_in_process() {
        let backend = runner(vec![vec![Script::Timeout(2)]]);
        assert_eq!(run_and_check(&backend, &shard()), vec![0]);
    }

    #[test]
    fn eof_before_the_sentinel_redispatches_the_remainder() {
        let backend = runner(vec![vec![], vec![Script::Eof(1)]]);
        assert_eq!(sorted(run_and_check(&backend, &shard())), vec![0, 0, 1]);
    }

    #[test]
    fn an_under_emitting_sentinel_still_redispatches_the_missing_cell() {
        let backend = runner(vec![vec![Script::Drop(0)], vec![]]);
        assert_eq!(sorted(run_and_check(&backend, &shard())), vec![0, 1, 1]);
    }

    #[test]
    fn a_failed_redispatch_falls_through_to_rescue() {
        // Slot 1 succeeds on its own stripe, then dies mid-remainder: what it verified
        // stands and the rest is rescued in-process.
        let backend = runner(vec![vec![Script::Eof(0)], vec![Script::Clean, Script::Eof(1)]]);
        assert_eq!(sorted(run_and_check(&backend, &shard())), vec![0, 1, 1]);
    }

    #[test]
    fn refusals_are_counted_once_per_slot_for_the_runner_lifetime() {
        let backend = runner(vec![vec![]]).faults(FaultPlan::parse("w0:refuse*1").unwrap());
        let shard = shard();
        assert_eq!(run_and_check(&backend, &shard), vec![], "refused, then rescued");
        assert_eq!(run_and_check(&backend, &shard), vec![0], "the refusal is spent");
    }
}
