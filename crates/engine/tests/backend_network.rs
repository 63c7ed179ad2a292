//! The network backend's headline guarantees, exercised against real `sweep --serve`
//! daemons on localhost (Cargo builds the binary for integration tests and exposes the
//! path as `CARGO_BIN_EXE_sweep`):
//!
//! * a 2-daemon network sweep is byte-identical to a single-threaded in-process sweep;
//! * a daemon killed mid-sweep (scripted via `LOCAL_FAULTS`) loses nothing: verified cells
//!   stand, the remainder is re-dispatched to the healthy peer;
//! * refused connections retry through the capped backoff and recover;
//! * an unreachable fleet degrades all the way to in-process rescue;
//! * every degradation increments the observable resilience counters;
//! * a request line past the daemon's cap is refused with one error line, and the daemon
//!   keeps serving everyone else;
//! * a daemon, coordinator or worker given a numeric flag it cannot parse exits non-zero
//!   with a `bad --flag` message instead of silently running on the default.
//!
//! Counter assertions use before/after deltas under one test-local lock, because the obs
//! counters are process-global and the test harness runs tests concurrently.

use local_engine::backend::{FaultPlan, NetworkBackend};
use local_engine::{run_grid, workload, Report, ScenarioGrid, Sweep, SweepConfig};
use local_graphs::{family, Family};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn demo_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .problems([workload("mis"), workload("luby-mis"), workload("ruling-set-b2")])
        .families([Family::SparseGnp.into(), Family::Grid.into(), family("gnp-d16")])
        .sizes([36usize, 48])
        .replicates(2)
        .base_seed(9)
}

fn assert_reports_identical(reference: &Report, candidate: &Report, label: &str) {
    assert_eq!(reference.cell_count, candidate.cell_count, "{label}: cell counts differ");
    for (a, b) in reference.cells.iter().zip(&candidate.cells) {
        assert_eq!(a.deterministic_view(), b.deterministic_view(), "{label}: cell diverged");
    }
    assert_eq!(
        reference.deterministic_view().to_csv(),
        candidate.deterministic_view().to_csv(),
        "{label}: CSV bytes diverged"
    );
    assert_eq!(
        reference.deterministic_view().to_json(),
        candidate.deterministic_view().to_json(),
        "{label}: JSON bytes diverged"
    );
}

/// A `sweep --serve` daemon on an OS-assigned localhost port, killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(faults: Option<&str>) -> Daemon {
        let mut command = Command::new(env!("CARGO_BIN_EXE_sweep"));
        command
            .args(["--serve", "127.0.0.1:0", "--threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        match faults {
            Some(script) => command.env("LOCAL_FAULTS", script),
            None => command.env_remove("LOCAL_FAULTS"),
        };
        let mut child = command.spawn().expect("daemon spawns");
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("daemon announces its address");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
            .to_string();
        Daemon { child, addr }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn counters() -> (u64, u64, u64, u64) {
    (
        local_obs::counter_value(local_obs::metrics::NET_RETRIES),
        local_obs::counter_value(local_obs::metrics::REDISPATCHED_CELLS),
        local_obs::counter_value(local_obs::metrics::RESCUED_CELLS),
        local_obs::counter_value(local_obs::metrics::FAULTS_INJECTED),
    )
}

#[test]
fn two_network_daemons_match_one_in_process_thread_byte_for_byte() {
    let _guard = SERIAL.lock().unwrap();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let a = Daemon::spawn(None);
    let b = Daemon::spawn(None);
    let candidate =
        Sweep::over(&grid).backend(NetworkBackend::new(vec![a.addr.clone(), b.addr.clone()])).run();
    assert_eq!(candidate.threads, 2, "the report records the peer count");
    assert_reports_identical(&reference, &candidate, "network backend");
}

#[test]
fn one_connection_serves_many_shards_and_stays_deterministic() {
    let _guard = SERIAL.lock().unwrap();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let daemon = Daemon::spawn(None);
    // Two sweeps against the same persistent daemon: the second request must be served as
    // cleanly as the first (fresh connections, same daemon process).
    for round in 0..2 {
        let candidate =
            Sweep::over(&grid).backend(NetworkBackend::new(vec![daemon.addr.clone()])).run();
        assert_reports_identical(
            &reference,
            &candidate,
            &format!("persistent daemon round {round}"),
        );
    }
}

#[test]
fn a_daemon_killed_mid_sweep_loses_nothing() {
    let _guard = SERIAL.lock().unwrap();
    local_obs::enable();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let healthy = Daemon::spawn(None);
    // This daemon exits(1) right before serving its 6th result line — a mid-sweep crash.
    let doomed = Daemon::spawn(Some("kill@5"));
    let (retries0, redispatched0, rescued0, _) = counters();
    let candidate = Sweep::over(&grid)
        .backend(
            NetworkBackend::new(vec![healthy.addr.clone(), doomed.addr.clone()]).retry(5, 50, 2),
        )
        .run();
    assert_reports_identical(&reference, &candidate, "killed daemon");
    let (_, redispatched1, rescued1, _) = counters();
    assert!(
        redispatched1 - redispatched0 > 0,
        "the dead daemon's unverified cells must be re-dispatched"
    );
    // The healthy peer absorbs everything; nothing should need the in-process fallback.
    assert_eq!(rescued1, rescued0, "no irreducible remainder with a healthy peer up");
    let _ = retries0;
}

#[test]
fn overlapping_peer_deaths_count_each_redispatch_and_rescue_exactly_once() {
    let _guard = SERIAL.lock().unwrap();
    local_obs::enable();
    // 12 equal-cost cells (one instance each) stripe 6/6 across two peers. Peer 0 dies
    // before its 3rd result line, leaving 4 cells. Peer 1 serves its own 6, then dies two
    // lines into the re-dispatched remainder (its process-cumulative counter hits 8). The
    // accounting must book exactly the 2 cells that *landed* on the retry peer as
    // re-dispatched — not the 4 attempted — and exactly the 2 irreducible cells as
    // rescued. Mid-stream deaths are not connect failures, so no retry is booked at all.
    let grid = ScenarioGrid::new()
        .problems([workload("mis")])
        .families([family("sparse-gnp")])
        .sizes([48usize])
        .replicates(12)
        .base_seed(9);
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let first_to_die = Daemon::spawn(Some("kill@2"));
    let second_to_die = Daemon::spawn(Some("kill@8"));
    let (retries0, redispatched0, rescued0, _) = counters();
    let candidate = Sweep::over(&grid)
        .backend(
            NetworkBackend::new(vec![first_to_die.addr.clone(), second_to_die.addr.clone()])
                .retry(5, 50, 2),
        )
        .run();
    assert_reports_identical(&reference, &candidate, "double kill");
    let (retries1, redispatched1, rescued1, _) = counters();
    assert_eq!(retries1 - retries0, 0, "mid-stream deaths must not book connect retries");
    assert_eq!(
        redispatched1 - redispatched0,
        2,
        "only the cells that landed on the retry peer count as re-dispatched"
    );
    assert_eq!(rescued1 - rescued0, 2, "exactly the irreducible remainder is rescued");
}

#[test]
fn truncated_daemon_streams_keep_verified_cells() {
    let _guard = SERIAL.lock().unwrap();
    local_obs::enable();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let healthy = Daemon::spawn(None);
    // This daemon flushes four verified lines, then exits(0): a clean stream that simply
    // ends without a sentinel.
    let truncating = Daemon::spawn(Some("truncate@4"));
    let candidate = Sweep::over(&grid)
        .backend(
            NetworkBackend::new(vec![truncating.addr.clone(), healthy.addr.clone()])
                .retry(5, 50, 2),
        )
        .run();
    assert_reports_identical(&reference, &candidate, "truncated daemon");
}

#[test]
fn garbled_daemon_streams_abandon_trust_at_the_corruption() {
    let _guard = SERIAL.lock().unwrap();
    local_obs::enable();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    // A single peer that garbles its stream after two verified lines: the two cells stand,
    // the peer is marked unhealthy, and with no other peers the remainder is rescued
    // in-process — still byte-identical.
    let garbler = Daemon::spawn(Some("garble@2"));
    let (_, _, rescued0, _) = counters();
    let candidate = Sweep::over(&grid)
        .backend(NetworkBackend::new(vec![garbler.addr.clone()]).retry(5, 50, 2))
        .run();
    assert_reports_identical(&reference, &candidate, "garbled daemon");
    let (_, _, rescued1, _) = counters();
    assert!(rescued1 - rescued0 > 0, "the unverified remainder must be rescued");
}

#[test]
fn refused_connections_back_off_and_recover() {
    let _guard = SERIAL.lock().unwrap();
    local_obs::enable();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let daemon = Daemon::spawn(None);
    let (retries0, _, _, injected0) = counters();
    // The coordinator's own fault plan refuses this peer's first two connect attempts;
    // the third goes through and the sweep completes over the daemon.
    let candidate = Sweep::over(&grid)
        .backend(
            NetworkBackend::new(vec![daemon.addr.clone()])
                .faults(FaultPlan::parse("w0:refuse*2").unwrap())
                .retry(1, 5, 5),
        )
        .run();
    assert_reports_identical(&reference, &candidate, "refused connects");
    let (retries1, _, _, injected1) = counters();
    assert!(retries1 - retries0 >= 2, "each refusal must count as a retry");
    assert_eq!(injected1 - injected0, 2, "each scripted refusal must count as a fault");
}

#[test]
fn an_unreachable_fleet_degrades_to_in_process_rescue() {
    let _guard = SERIAL.lock().unwrap();
    local_obs::enable();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let (retries0, _, rescued0, _) = counters();
    // Nothing listens on port 1; every connect is refused by the kernel.
    let candidate = Sweep::over(&grid)
        .backend(NetworkBackend::new(vec!["127.0.0.1:1".to_string()]).retry(1, 5, 2))
        .run();
    assert_reports_identical(&reference, &candidate, "unreachable fleet");
    let (retries1, _, rescued1, _) = counters();
    assert!(retries1 - retries0 >= 2, "failed connects must count as retries");
    assert_eq!(
        rescued1 - rescued0,
        grid.cell_count() as u64,
        "every cell must be rescued in-process"
    );
}

#[test]
fn a_dead_peer_in_a_fleet_shifts_its_stripe_to_the_living() {
    let _guard = SERIAL.lock().unwrap();
    local_obs::enable();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let live = Daemon::spawn(None);
    let candidate = Sweep::over(&grid)
        .backend(
            NetworkBackend::new(vec![live.addr.clone(), "127.0.0.1:1".to_string()]).retry(1, 5, 2),
        )
        .run();
    assert_reports_identical(&reference, &candidate, "half-dead fleet");
}

#[test]
fn an_overlong_request_line_is_refused_and_the_daemon_keeps_serving() {
    let _guard = SERIAL.lock().unwrap();
    let grid = demo_grid();
    let reference = run_grid(&grid, &SweepConfig::with_threads(1));
    let daemon = Daemon::spawn(None);
    // One byte past the daemon's 64 MiB request-line cap, and no newline.
    const CAP: usize = 64 << 20;
    let mut hostile = TcpStream::connect(&daemon.addr).expect("connects to the daemon");
    hostile.set_read_timeout(Some(std::time::Duration::from_secs(60))).unwrap();
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..CAP / chunk.len() {
        hostile.write_all(&chunk).expect("the daemon reads up to its cap");
    }
    hostile.write_all(b"x").expect("the daemon reads the byte past its cap");
    let mut reader = BufReader::new(hostile);
    let mut line = String::new();
    reader.read_line(&mut line).expect("the daemon answers");
    let reply = serde_json::from_str(line.trim()).expect("the answer is one JSON line");
    assert_eq!(
        reply.get("error").and_then(serde_json::Value::as_str),
        Some(format!("request line exceeds {CAP} bytes").as_str())
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("a clean close"), 0, "the daemon hangs up");

    let candidate =
        Sweep::over(&grid).backend(NetworkBackend::new(vec![daemon.addr.clone()])).run();
    assert_reports_identical(&reference, &candidate, "after a hostile client");
}

#[test]
fn unparseable_numbers_on_daemon_coordinator_and_worker_flags_exit_with_bad_flag() {
    let cases: [(&[&str], &str); 5] = [
        (&["--serve", "127.0.0.1:0", "--threads", "two"], "bad --threads"),
        (
            &["--serve", "127.0.0.1:0", "--max-concurrent-shards", "x"],
            "bad --max-concurrent-shards",
        ),
        (&["--coordinate", "127.0.0.1:0", "--io-deadline-ms", "x"], "bad --io-deadline-ms"),
        (&["--coordinate", "127.0.0.1:0", "--stripes-per-peer", "x"], "bad --stripes-per-peer"),
        (&["--worker", "--threads", "two"], "bad --threads"),
    ];
    for (args, expected) in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("sweep spawns");
        // A flag that is silently dropped leaves a daemon serving forever: give it a
        // deadline instead of waiting on it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll the child") {
                break status;
            }
            if std::time::Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("sweep {args:?} kept running instead of rejecting its flag");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
        assert!(!status.success(), "sweep {args:?} must exit non-zero");
        assert!(stderr.contains(expected), "sweep {args:?}: stderr {stderr:?} lacks {expected:?}");
    }
}
