//! The TCP transport — persistent `sweep --serve` daemons — and the daemon itself.
//!
//! The wire protocol and the failure semantics are shared with the process transport and
//! documented once, on the runner ([`super::remote`]). What TCP adds: every connect
//! carries a deadline, failed connects retry with capped exponential backoff and
//! deterministic jitter ([`super::backoff_ms`]), and the socket's read/write timeouts
//! enforce the liveness window. Connection state is observable:
//! [`local_obs::metrics::NET_CONNECTS`]/[`local_obs::metrics::NET_RETRIES`] count attempts,
//! [`local_obs::metrics::WORKER_STATE`] gauges the peak number of simultaneously connected
//! peers, and every transition lands as a timestamped `worker-state` record labelled with
//! the peer.

use super::faults::FaultInjector;
use super::process::serve_shard;
use super::remote::{Dispatch, Remote, Transport};
use super::telemetry::WorkerTelemetry;
use super::{backoff_ms, read_bounded_line, CellShard, Raw, MAX_LINE_BYTES};
use local_coord::ConcurrencyGate;
use serde::{Deserialize, Serialize, Value};
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-attempt connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(5_000);

/// Executes shards by striping them over persistent `sweep --serve` TCP daemons.
pub type NetworkBackend = Remote<Tcp>;

/// The TCP transport: one fresh connection to a daemon per dispatch.
#[derive(Debug)]
pub struct Tcp {
    peers: Vec<String>,
    retry_base_ms: u64,
    retry_cap_ms: u64,
    max_connect_attempts: u32,
    /// Currently connected peers, for the connection-state gauge.
    connected: AtomicU64,
    /// Per-peer connection state, so the shared gauge only moves on real transitions (a
    /// refused connect to one peer must not decrement another peer's connection).
    peer_up: Vec<AtomicBool>,
    /// Client name forwarded with every request (coordinators use it for per-client
    /// accounting; plain daemons ignore the key).
    client_label: Option<String>,
}

impl Remote<Tcp> {
    /// A backend over the given daemon addresses (`host:port`, one stripe per peer). A
    /// single address may also be a `sweep --coordinate` service, which speaks the daemon
    /// protocol and schedules the whole sweep over its own fleet.
    pub fn new(peers: Vec<String>) -> Self {
        let tcp = Tcp {
            peer_up: peers.iter().map(|_| AtomicBool::new(false)).collect(),
            peers,
            retry_base_ms: 100,
            retry_cap_ms: 5_000,
            max_connect_attempts: 5,
            connected: AtomicU64::new(0),
            client_label: None,
        };
        Remote::over(tcp, 0)
    }

    /// Names this backend's owner in every request it ships. A coordinator peer books the
    /// request's cells under this client; plain daemons ignore the key.
    pub fn client(mut self, name: impl Into<String>) -> Self {
        self.transport.client_label = Some(name.into());
        self
    }

    /// Sets how many threads the in-process rescue path uses when no peer can serve a cell
    /// (`0` = available parallelism, the default — rescue is the degraded mode, so it takes
    /// the whole machine).
    pub fn rescue_threads(mut self, threads: usize) -> Self {
        self.rescue_threads = threads;
        self
    }

    /// Sets the reconnect policy: capped exponential backoff starting at `base_ms`, capped
    /// at `cap_ms`, giving up on a peer after `attempts` failed connects (defaults
    /// 100/5000/5). Jitter is deterministic per (peer, attempt).
    pub fn retry(mut self, base_ms: u64, cap_ms: u64, attempts: u32) -> Self {
        self.transport.retry_base_ms = base_ms.max(1);
        self.transport.retry_cap_ms = cap_ms.max(base_ms.max(1));
        self.transport.max_connect_attempts = attempts.max(1);
        self
    }
}

impl Tcp {
    /// Records a connection-state transition for `peer` (1 = connected, 0 = down) and keeps
    /// the peak-concurrent-connections gauge current. The shared count moves only on this
    /// peer's *own* transitions: a failed connect to a peer that was never up (a scripted
    /// refusal, say) must not eat another peer's live connection from the gauge.
    fn record_state(&self, peer: usize, connected: bool) {
        let was = self.peer_up[peer].swap(connected, Ordering::Relaxed);
        if connected {
            local_obs::counter_add(local_obs::metrics::NET_CONNECTS, 1);
        }
        let now = match (was, connected) {
            (false, true) => self.connected.fetch_add(1, Ordering::Relaxed) + 1,
            (true, false) => self.connected.fetch_sub(1, Ordering::Relaxed).saturating_sub(1),
            _ => self.connected.load(Ordering::Relaxed),
        };
        local_obs::gauge_max(local_obs::metrics::WORKER_STATE, now);
        let label = local_obs::label(&format!("peer {peer} {}", self.peers[peer]));
        local_obs::record(local_obs::metrics::WORKER_STATE, label, connected as u64);
    }

    /// Connects to `peer` with the retry policy; scripted refusals consume attempts like
    /// real connection errors (and count like them — backoff, retry counter, state record).
    fn connect(&self, peer: usize, refuse: &dyn Fn() -> bool) -> Result<TcpStream, String> {
        let addr = &self.peers[peer];
        let mut last_err = String::new();
        for attempt in 1..=self.max_connect_attempts {
            if refuse() {
                eprintln!("[fault] refusing connect attempt {attempt} to peer {peer} ({addr})");
                last_err = "fault-injected connect refusal".to_string();
            } else {
                match try_connect(addr) {
                    Ok(stream) => {
                        self.record_state(peer, true);
                        return Ok(stream);
                    }
                    Err(e) => last_err = e,
                }
            }
            local_obs::counter_add(local_obs::metrics::NET_RETRIES, 1);
            self.record_state(peer, false);
            if attempt < self.max_connect_attempts {
                std::thread::sleep(Duration::from_millis(backoff_ms(
                    peer,
                    attempt,
                    self.retry_base_ms,
                    self.retry_cap_ms,
                )));
            }
        }
        Err(format!(
            "cannot connect to {addr} after {} attempts: {last_err}",
            self.max_connect_attempts
        ))
    }
}

/// One open daemon connection mid-dispatch.
pub struct TcpLink {
    reader: BufReader<TcpStream>,
    window: Duration,
}

impl Transport for Tcp {
    type Link = TcpLink;
    const NAME: &'static str = "network";

    fn slots(&self) -> usize {
        self.peers.len()
    }

    fn label(&self, slot: usize) -> String {
        format!("peer {slot}")
    }

    fn open(
        &self,
        slot: usize,
        stripe: &CellShard,
        dispatch: &Dispatch,
    ) -> Result<(TcpLink, u64), String> {
        let stream = self.connect(slot, dispatch.refuse)?;
        let configured = stream
            .set_nodelay(true)
            .and_then(|_| stream.set_read_timeout(Some(dispatch.window)))
            .and_then(|_| stream.set_write_timeout(Some(dispatch.window)));
        if let Err(e) = configured {
            self.record_state(slot, false);
            return Err(format!("cannot configure socket: {e}"));
        }

        // Span timestamps in the daemon's dump are relative to the daemon's own request
        // epoch; rebase them onto our timeline at the moment we sent the request.
        let connect_offset = local_obs::now_micros();
        let mut request = vec![("shard".to_string(), stripe.to_value())];
        if let Some(ms) = dispatch.telemetry {
            request.push(("telemetry".to_string(), Value::U64(ms)));
        }
        if let Some(name) = &self.client_label {
            request.push(("client".to_string(), Value::Str(name.clone())));
        }
        let request = serde_json::to_string(&Raw(Value::Map(request))).expect("request serializes");
        let mut writer = &stream;
        if let Err(e) = writeln!(writer, "{request}").and_then(|_| writer.flush()) {
            self.record_state(slot, false);
            return Err(format!("cannot ship the stripe to {}: {e}", self.peers[slot]));
        }
        Ok((TcpLink { reader: BufReader::new(stream), window: dispatch.window }, connect_offset))
    }

    fn next_line(&self, link: &mut TcpLink) -> Result<Option<String>, String> {
        read_bounded_line(&mut link.reader, MAX_LINE_BYTES, "response").map_err(|e| {
            match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => format!(
                    "liveness deadline exceeded ({}ms without a line — dead peer?)",
                    link.window.as_millis()
                ),
                _ => format!("stream read error: {e}"),
            }
        })
    }

    fn close(&self, slot: usize, _: TcpLink, failure: Option<String>) -> Option<String> {
        self.record_state(slot, false);
        failure
    }
}

/// One resolve-and-connect attempt with a deadline, trying every resolved address once.
fn try_connect(addr: &str) -> Result<TcpStream, String> {
    let resolved = addr.to_socket_addrs().map_err(|e| format!("cannot resolve {addr}: {e}"))?;
    let mut last = format!("{addr} resolves to no addresses");
    for candidate in resolved {
        match TcpStream::connect_timeout(&candidate, CONNECT_TIMEOUT) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e.to_string(),
        }
    }
    Err(last)
}

/// Runs the `sweep --serve` daemon loop: binds `addr`, announces `listening on <addr>` on
/// stdout (so scripts binding port 0 can learn the port), and serves shard requests
/// forever — any number of connections, any number of requests per connection. Up to
/// `max_concurrent` plain shard requests execute concurrently (`0` = auto: the machine's
/// thread budget divided by the per-shard thread count); requests that need a
/// deterministic process-wide view — an armed fault script (its result-line counter is
/// process-cumulative) or a telemetry request (which resets the obs epoch) — run
/// exclusively, so fault indices and counter attribution keep one deterministic emission
/// order. Stream faults scripted in the daemon's own `LOCAL_FAULTS` apply to its result
/// stream; `kill`/`truncate` clauses terminate the daemon process, exactly like the real
/// failures they simulate. Only returns on bind failure.
pub fn serve_forever(addr: &str, threads: usize, max_concurrent: usize) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| format!("cannot read bound address: {e}"))?;
    println!("listening on {local}");
    let _ = std::io::stdout().flush();
    let faults = Arc::new(FaultInjector::from_env_lossy());
    if faults.is_armed() {
        eprintln!("sweep serve: fault injection armed");
    }
    let capacity = if max_concurrent > 0 {
        max_concurrent
    } else {
        let budget = crate::pool::resolve_worker_count(0);
        let per_shard = crate::pool::resolve_worker_count(threads);
        (budget / per_shard.max(1)).max(1)
    };
    let gate = Arc::new(ConcurrencyGate::new(capacity));
    for conn in listener.incoming() {
        match conn {
            Ok(stream) => {
                let faults = Arc::clone(&faults);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || serve_connection(stream, threads, &faults, &gate));
            }
            Err(e) => eprintln!("sweep serve: accept failed: {e}"),
        }
    }
    Ok(())
}

/// Serves one client connection: request lines in, result streams out, until the client
/// hangs up or a request cannot be read or served — an over-long line included (one
/// `{"error": …}` line, then hang up — the client treats it like any other failed stream).
fn serve_connection(
    stream: TcpStream,
    threads: usize,
    faults: &FaultInjector,
    gate: &ConcurrencyGate,
) {
    let client =
        stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "unknown peer".to_string());
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(e) => {
            eprintln!("sweep serve [{client}]: cannot clone socket: {e}");
            return;
        }
    };
    let mut writer = stream;
    loop {
        let served = match read_bounded_line(&mut reader, MAX_LINE_BYTES, "request") {
            Ok(None) => return,
            Ok(Some(line)) => serve_request(line.trim(), threads, faults, gate, &mut writer),
            Err(e) => Err(e.to_string()),
        };
        if let Err(e) = served {
            eprintln!("sweep serve [{client}]: {e}");
            let reply = Raw(Value::Map(vec![("error".into(), Value::Str(e))]));
            let text = serde_json::to_string(&reply).expect("error line serializes");
            let _ = writeln!(writer, "{text}");
            let _ = writer.flush();
            return;
        }
    }
}

/// Parses and executes one shard request against this daemon's build, inside the daemon's
/// concurrency gate: plain requests share up to the gate's capacity, while fault-scripted
/// or telemetry requests hold the gate alone (the fault counter and the obs epoch are
/// process-wide). While queued behind the gate, a telemetry request heartbeats its client
/// so the client's shrunken liveness window does not declare this daemon dead.
fn serve_request(
    request: &str,
    threads: usize,
    faults: &FaultInjector,
    gate: &ConcurrencyGate,
    out: &mut (impl Write + Send),
) -> Result<(), String> {
    let value = serde_json::from_str(request).map_err(|e| format!("unreadable request: {e}"))?;
    let shard = CellShard::from_value(
        value.get("shard").ok_or_else(|| "request without a shard".to_string())?,
    )
    .map_err(|e| format!("malformed shard: {e}"))?;
    let telemetry = value.get("telemetry").and_then(Value::as_u64);
    let keepalive = |out: &mut dyn Write| {
        if telemetry.is_none() {
            return;
        }
        let beat = WorkerTelemetry { cells_done: 0, wall_micros: 0, counters: Vec::new() };
        let line = Raw(Value::Map(vec![("telemetry".into(), beat.to_value())]));
        let text = serde_json::to_string(&line).expect("heartbeat serializes");
        let _ = writeln!(out, "{text}");
        let _ = out.flush();
    };
    let _slot = if faults.is_armed() || telemetry.is_some() {
        gate.acquire_exclusive(|| keepalive(out))
    } else {
        gate.acquire(|| keepalive(out))
    };
    if telemetry.is_some() {
        // Per-request span/counter epoch: a long-lived daemon must not replay its whole
        // history into every span dump. (The fault injector's cumulative result-line
        // counter lives outside the obs layer and is unaffected.)
        local_obs::reset();
    }
    serve_shard(&shard, threads, telemetry, faults, out)
}
