//! The TCP front door: accept loop, per-connection protocol handling,
//! graceful shutdown.
//!
//! One connection carries one request. The handler greets with `hello`,
//! reads the request line, and either streams a session (`tune`,
//! `watch`), answers a one-shot query (`status`, `cancel`), or drains
//! the daemon (`shutdown`). The accept loop polls a nonblocking
//! listener so a `shutdown` request can stop it promptly after the
//! drain completes.

use crate::manager::{Progress, Rejection, Session, SessionLimits, SessionManager};
use crate::proto;
use cst_obs::JournalStore;
use cst_telemetry::metrics::CounterHandle;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration (`cstuner serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (max concurrently running sessions).
    pub workers: usize,
    /// Additional sessions allowed to wait in the queue.
    pub queue_depth: usize,
    /// Auto-ingest finished runs into this [`JournalStore`] directory.
    pub archive: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let limits = SessionLimits::default();
        ServeConfig {
            addr: "127.0.0.1:4815".to_string(),
            workers: limits.workers,
            queue_depth: limits.queue_depth,
            archive: None,
        }
    }
}

/// A bound daemon: listener plus session manager. Call
/// [`Server::start_workers`] then [`Server::serve`] (blocking), or use
/// [`Server::spawn`] for a background instance.
pub struct Server {
    listener: TcpListener,
    manager: Arc<SessionManager>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Bind the listener and build the session manager (opening the
    /// archive store, if configured).
    pub fn bind(cfg: &ServeConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let archive = match &cfg.archive {
            Some(dir) => Some(JournalStore::open(dir)?),
            None => None,
        };
        let limits = SessionLimits { workers: cfg.workers.max(1), queue_depth: cfg.queue_depth };
        Ok(Server { listener, manager: SessionManager::new(limits, archive), stop: Arc::default() })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// The shared session manager.
    pub fn manager(&self) -> Arc<SessionManager> {
        Arc::clone(&self.manager)
    }

    /// Spawn the worker pool (`limits.workers` threads over
    /// [`SessionManager::worker_loop`]).
    pub fn start_workers(&self) -> Vec<JoinHandle<()>> {
        (0..self.manager.limits().workers)
            .map(|_| {
                let manager = self.manager();
                std::thread::spawn(move || manager.worker_loop())
            })
            .collect()
    }

    /// Run the accept loop until a `shutdown` request completes its
    /// drain. Each connection is handled on its own thread.
    pub fn serve(&self) {
        self.listener.set_nonblocking(true).expect("set nonblocking");
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let manager = self.manager();
                    let stop = Arc::clone(&self.stop);
                    std::thread::spawn(move || handle_connection(stream, &manager, &stop));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => {
                    // Transient accept failures (EINTR, ECONNABORTED,
                    // EMFILE under fd pressure) must not end the loop:
                    // the daemon would silently stop accepting while
                    // its workers park forever on the queue, and
                    // `serve` would hang joining them. Log, back off
                    // and retry; only the stop flag exits.
                    eprintln!("cst-serve: accept error (retrying): {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    /// Bind, start the workers and run the accept loop on background
    /// threads. The returned handle joins everything after a client
    /// `shutdown`.
    pub fn spawn(cfg: &ServeConfig) -> Result<ServerHandle, String> {
        Self::spawn_inner(cfg, true)
    }

    /// Like [`Server::spawn`] but with the worker pool NOT started, so
    /// admitted sessions stay queued forever: admission-control tests
    /// get a deterministic `busy` rejection regardless of host speed.
    /// Queued sessions must be cancelled before `shutdown` can drain.
    pub fn spawn_paused(cfg: &ServeConfig) -> Result<ServerHandle, String> {
        Self::spawn_inner(cfg, false)
    }

    fn spawn_inner(cfg: &ServeConfig, start_workers: bool) -> Result<ServerHandle, String> {
        let server = Server::bind(cfg)?;
        let addr = server.local_addr();
        let manager = server.manager();
        let workers = if start_workers { server.start_workers() } else { Vec::new() };
        let accept = std::thread::spawn(move || server.serve());
        Ok(ServerHandle { addr, manager, accept, workers })
    }
}

/// Handle onto a daemon spawned with [`Server::spawn`].
pub struct ServerHandle {
    /// The bound address.
    pub addr: SocketAddr,
    manager: Arc<SessionManager>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The shared session manager (for tests poking at sessions
    /// directly).
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    /// Join the accept loop and the worker pool. Only returns after a
    /// client `shutdown` stopped the daemon.
    pub fn join(self) {
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

fn send_line(stream: &mut TcpStream, line: &str, wire_out: &CounterHandle) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    wire_out.add(line.len() as u64 + 1);
    Ok(())
}

/// Replay a session's records from the start and follow until terminal,
/// then send the `session_done` frame. Returns early (leaving the
/// session running) if the client went away.
fn stream_session(stream: &mut TcpStream, session: &Arc<Session>, wire_out: &CounterHandle) {
    let mut cursor = 0usize;
    loop {
        match session.follow(cursor) {
            Progress::Records(lines) => {
                for line in &lines {
                    if send_line(stream, line, wire_out).is_err() {
                        return;
                    }
                }
                cursor += lines.len();
            }
            Progress::Terminal { state, done, error } => {
                let frame = proto::session_done_frame(
                    session.id,
                    state.name(),
                    done.as_ref(),
                    error.as_deref(),
                );
                let _ = send_line(stream, &frame, wire_out);
                return;
            }
        }
    }
}

/// How long a connected client may take to send its request line
/// before the handler gives up (a silent client would otherwise pin
/// this thread, and its sockets, for the daemon's lifetime).
const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(30);

fn handle_connection(mut stream: TcpStream, manager: &Arc<SessionManager>, stop: &AtomicBool) {
    let metrics = manager.metrics();
    let wire_in = metrics.wall_counter("wall_wire_in_bytes");
    let wire_out = metrics.wall_counter("wall_wire_out_bytes");
    if send_line(&mut stream, &proto::hello_frame(), &wire_out).is_err() {
        return;
    }
    // The timeout only guards the request read; streaming replies below
    // never reads, so slow watchers are unaffected.
    if stream.set_read_timeout(Some(REQUEST_READ_TIMEOUT)).is_err() {
        return;
    }
    let Ok(reader_stream) = stream.try_clone() else { return };
    let mut line = String::new();
    if BufReader::new(reader_stream).read_line(&mut line).unwrap_or(0) == 0 {
        return;
    }
    wire_in.add(line.len() as u64);
    let started = Instant::now();
    let parsed = proto::parse_request(line.trim());
    // Per-request accounting: a deterministic count per command plus a
    // wall-class latency digest (handling time, request read to reply
    // fully written). Names are static so handles resolve once.
    let (request_counter, latency_hist) = match &parsed {
        Err(_) => ("requests_invalid", "wall_req_invalid_ms"),
        Ok(proto::Request::Tune(_)) => ("requests_tune", "wall_req_tune_ms"),
        Ok(proto::Request::Status { .. }) => ("requests_status", "wall_req_status_ms"),
        Ok(proto::Request::Metrics) => ("requests_metrics", "wall_req_metrics_ms"),
        Ok(proto::Request::Watch { .. }) => ("requests_watch", "wall_req_watch_ms"),
        Ok(proto::Request::Cancel { .. }) => ("requests_cancel", "wall_req_cancel_ms"),
        Ok(proto::Request::Shutdown) => ("requests_shutdown", "wall_req_shutdown_ms"),
    };
    metrics.counter(request_counter).inc();
    match parsed {
        Err(msg) => {
            let _ = send_line(&mut stream, &proto::error_frame(&msg), &wire_out);
        }
        Ok(proto::Request::Tune(request)) => match manager.submit(request) {
            Ok(session) => {
                if send_line(&mut stream, &proto::accepted_frame(session.id), &wire_out).is_ok() {
                    let watchers = metrics.gauge("watchers");
                    watchers.add(1);
                    stream_session(&mut stream, &session, &wire_out);
                    watchers.add(-1);
                }
            }
            Err(Rejection::Busy { running, queued, limit }) => {
                let _ =
                    send_line(&mut stream, &proto::busy_frame(running, queued, limit), &wire_out);
            }
            Err(Rejection::ShuttingDown) => {
                let _ = send_line(
                    &mut stream,
                    &proto::error_frame("daemon is shutting down"),
                    &wire_out,
                );
            }
        },
        Ok(proto::Request::Status { session: Some(session) }) => {
            let frame = match manager.get(session) {
                Some(s) => proto::session_frame(session, s.state().name(), s.record_count()),
                None => proto::error_frame(&format!("unknown session {session}")),
            };
            let _ = send_line(&mut stream, &frame, &wire_out);
        }
        Ok(proto::Request::Status { session: None }) => {
            let frame = proto::status_frame(&manager.counts_by_state(), &manager.session_rows());
            let _ = send_line(&mut stream, &frame, &wire_out);
        }
        Ok(proto::Request::Metrics) => {
            let ops = manager.ops_snapshot();
            let frame = proto::metrics_frame(&ops.counts, &ops.snapshot, ops.wall_uptime_ms);
            let _ = send_line(&mut stream, &frame, &wire_out);
        }
        Ok(proto::Request::Watch { session }) => match manager.get(session) {
            Some(s) => {
                let watchers = metrics.gauge("watchers");
                watchers.add(1);
                stream_session(&mut stream, &s, &wire_out);
                watchers.add(-1);
            }
            None => {
                let _ = send_line(
                    &mut stream,
                    &proto::error_frame(&format!("unknown session {session}")),
                    &wire_out,
                );
            }
        },
        Ok(proto::Request::Cancel { session }) => {
            let frame = match manager.cancel(session) {
                Some(state) => {
                    let records = manager.get(session).map(|s| s.record_count()).unwrap_or(0);
                    proto::session_frame(session, state.name(), records)
                }
                None => proto::error_frame(&format!("unknown session {session}")),
            };
            let _ = send_line(&mut stream, &frame, &wire_out);
        }
        Ok(proto::Request::Shutdown) => {
            let completed = manager.begin_shutdown();
            let _ = send_line(&mut stream, &proto::bye_frame(completed), &wire_out);
            stop.store(true, Ordering::Relaxed);
        }
    }
    metrics.wall_hist(latency_hist).observe(started.elapsed().as_secs_f64() * 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::session::{FaultSpec, TuneRequest};

    fn quick_req(seed: u64) -> TuneRequest {
        TuneRequest::build(None, None, None, Some(seed), Some(6.0), true, Some(FaultSpec::Off))
            .unwrap()
    }

    fn ephemeral(workers: usize, queue_depth: usize) -> ServeConfig {
        ServeConfig { addr: "127.0.0.1:0".to_string(), workers, queue_depth, archive: None }
    }

    #[test]
    fn serves_a_tune_request_end_to_end_and_drains_on_shutdown() {
        let handle = Server::spawn(&ephemeral(1, 2)).unwrap();
        let addr = handle.addr.to_string();
        let frames = client::roundtrip(&addr, &proto::tune_request_line(&quick_req(1))).unwrap();
        assert!(frames.first().unwrap().contains("\"type\":\"accepted\""));
        let done = frames.last().unwrap();
        assert!(done.contains("\"type\":\"session_done\""), "{done}");
        assert!(done.contains("\"state\":\"done\""), "{done}");
        let journal: Vec<String> =
            frames.iter().filter(|l| !proto::is_protocol_frame(l)).cloned().collect();
        cst_telemetry::schema::validate_journal(&journal).expect("streamed journal is valid");
        // Status of the finished session, then a graceful shutdown.
        let status = client::roundtrip(&addr, &proto::session_request_line("status", 0)).unwrap();
        assert!(status[0].contains("\"state\":\"done\""), "{}", status[0]);
        let bye = client::roundtrip(&addr, &proto::shutdown_request_line()).unwrap();
        assert!(bye[0].contains("\"type\":\"bye\""), "{}", bye[0]);
        assert!(bye[0].contains("\"sessions_completed\":1"), "{}", bye[0]);
        handle.join();
    }

    #[test]
    fn silent_and_vanishing_connections_do_not_stop_the_daemon() {
        let handle = Server::spawn(&ephemeral(1, 1)).unwrap();
        let addr = handle.addr.to_string();
        // A client that connects and vanishes without a request line.
        drop(TcpStream::connect(&addr).unwrap());
        // A client that connects and lingers silently across the next
        // real request (its handler parks on the request read, bounded
        // by REQUEST_READ_TIMEOUT, on a detached thread).
        let idle = TcpStream::connect(&addr).unwrap();
        let frames = client::roundtrip(&addr, &proto::tune_request_line(&quick_req(1))).unwrap();
        assert!(frames.last().unwrap().contains("\"state\":\"done\""), "{frames:?}");
        drop(idle);
        let bye = client::roundtrip(&addr, &proto::shutdown_request_line()).unwrap();
        assert!(bye[0].contains("\"type\":\"bye\""), "{}", bye[0]);
        handle.join();
    }

    #[test]
    fn malformed_and_unknown_requests_get_error_frames() {
        let handle = Server::spawn(&ephemeral(1, 1)).unwrap();
        let addr = handle.addr.to_string();
        let bad = client::roundtrip(&addr, "this is not json").unwrap();
        assert!(bad[0].contains("\"type\":\"error\""), "{}", bad[0]);
        let unknown = client::roundtrip(&addr, &proto::session_request_line("watch", 7)).unwrap();
        assert!(unknown[0].contains("unknown session 7"), "{}", unknown[0]);
        let bye = client::roundtrip(&addr, &proto::shutdown_request_line()).unwrap();
        assert!(bye[0].contains("\"type\":\"bye\""));
        handle.join();
    }
}
