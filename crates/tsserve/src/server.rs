//! The server core: configuration, shared state, the accept loop with
//! admission control, per-connection handling, and graceful drain.
//!
//! One thread blocks in `accept`; accepted connections are handed to
//! the bounded pool together with their accept instant, so the time a
//! connection waits for a worker is recorded as `serve.queue_wait`.
//! When the pool rejects (queue full) the connection is shed
//! immediately with `503 + Retry-After` — the server never queues
//! without bound, so an overload burst degrades into fast, typed
//! refusals instead of collapse.
//!
//! An idle server uses no CPU: nothing polls. [`AppState::begin_drain`]
//! wakes the blocked `accept` by connecting to the listener's own
//! address (loopback when bound to `0.0.0.0` or `[::]`); the accept
//! loop recognises that connection by its peer address and exits
//! without counting it, while a real client that races the drain still
//! gets `503 draining`.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tsexperiments::CheckpointStore;
use tsobs::Recorder;

use crate::gate::Gate;
use crate::http::{self, Limits, Response};
use crate::pool::{lock_unpoisoned, BoundedPool};
use crate::registry::ModelRegistry;
use crate::streams::StreamRegistry;
use crate::telemetry::RingTelemetry;

/// Back-off after an accept error such as `EMFILE`, so a persistent
/// failure cannot spin the accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Bound on the drain's wake connection. Should it fail, the next
/// accepted connection ends the accept loop instead.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Server configuration. [`Default`] is sized for tests and small
/// deployments; `main.rs` exposes every knob as a flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded accept queue depth; beyond it connections are shed.
    pub queue_depth: usize,
    /// Maximum request head size, bytes.
    pub max_head_bytes: usize,
    /// Maximum request body size, bytes.
    pub max_body_bytes: usize,
    /// Wall budget for reading one request (slow-loris eviction).
    pub read_deadline: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Deadline applied to fit/assign when the request names none, ms.
    pub default_deadline_ms: u64,
    /// Ceiling on requested deadlines, ms.
    pub max_deadline_ms: u64,
    /// Model persistence directory; `None` keeps models in memory only.
    pub checkpoint_dir: Option<PathBuf>,
    /// Telemetry ring capacity, lines.
    pub telemetry_capacity: usize,
    /// Enables `POST /admin/panic` (worker panic-isolation probe).
    pub panic_probe: bool,
    /// Streaming checkpoint cadence, accepted arrivals per stream
    /// (0 = only on drain).
    pub stream_checkpoint_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 16,
            max_head_bytes: 8 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
            read_deadline: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            default_deadline_ms: 2_000,
            max_deadline_ms: 30_000,
            checkpoint_dir: None,
            telemetry_capacity: 4096,
            panic_probe: false,
            stream_checkpoint_every: 64,
        }
    }
}

/// State shared by the accept loop, every worker, and the handlers.
pub struct AppState {
    /// Server configuration.
    pub config: ServeConfig,
    /// Admission accounting and pressure signal.
    pub gate: Gate,
    /// Fitted models (kill-safe via the checkpoint store).
    pub registry: ModelRegistry,
    /// Streaming engines (kill-safe via the checkpoint store).
    pub streams: StreamRegistry,
    /// Bounded telemetry ring (the per-request recorder).
    pub telemetry: RingTelemetry,
    draining: AtomicBool,
    /// Where [`AppState::begin_drain`] connects to wake the accept loop.
    wake_addr: SocketAddr,
    /// Local address of the drain's wake connection. `begin_drain`
    /// holds the lock from raising the flag until this is set, so the
    /// accept loop can tell the wake from a client racing the drain.
    wake_from: Mutex<Option<SocketAddr>>,
}

impl AppState {
    /// Whether drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain: stop accepting, finish in-flight,
    /// flush telemetry, exit the accept loop. The first call wakes the
    /// loop out of its blocking `accept` with a connection to the
    /// listener; later calls do nothing.
    pub fn begin_drain(&self) {
        let mut wake_from = lock_unpoisoned(&self.wake_from);
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Ok(wake) = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT) {
            *wake_from = wake.local_addr().ok();
        }
    }

    /// Whether a connection from `peer`, accepted while draining, is
    /// the drain's own wake rather than a client.
    fn is_wake(&self, peer: SocketAddr) -> bool {
        *lock_unpoisoned(&self.wake_from) == Some(peer)
    }
}

/// The address a client on this host reaches `bound` at: the bound
/// address itself, or loopback of the same family for a wildcard bind.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Final counters reported when the server exits.
#[derive(Debug)]
pub struct ServeSummary {
    /// Connections accepted.
    pub accepted: u64,
    /// Requests completed (a response was attempted).
    pub completed: u64,
    /// Connections shed with 503.
    pub shed: u64,
    /// Error responses sent (4xx/5xx).
    pub errors: u64,
    /// Panics contained (handler level + pool backstop).
    pub panics: u64,
    /// Models registered at exit.
    pub models: usize,
}

/// A bound, warm-started server ready to run.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    addr: SocketAddr,
}

impl Server {
    /// Binds the listener, opens the checkpoint store, and warm-starts
    /// the model registry from persisted artifacts.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let store = match &config.checkpoint_dir {
            Some(dir) => CheckpointStore::new(dir),
            None => CheckpointStore::disabled(),
        };
        let registry = ModelRegistry::new(store.clone());
        let warm = registry.warm_start();
        let streams = StreamRegistry::new(store, config.stream_checkpoint_every);
        let stream_warm = streams.warm_start();
        let telemetry = RingTelemetry::new(config.telemetry_capacity);
        if !warm.loaded.is_empty() {
            telemetry.counter("serve.warm_start.models", warm.loaded.len() as u64);
        }
        if !stream_warm.loaded.is_empty() {
            telemetry.counter("serve.warm_start.streams", stream_warm.loaded.len() as u64);
        }
        if warm.rejected + stream_warm.rejected > 0 {
            telemetry.counter(
                "serve.warm_start.rejected",
                (warm.rejected + stream_warm.rejected) as u64,
            );
        }
        let capacity = config.workers + config.queue_depth;
        let state = Arc::new(AppState {
            gate: Gate::new(capacity),
            registry,
            streams,
            telemetry,
            config,
            draining: AtomicBool::new(false),
            wake_addr: wake_addr(addr),
            wake_from: Mutex::new(None),
        });
        Ok(Server {
            listener,
            state,
            addr,
        })
    }

    /// The bound address (with the OS-chosen port when `addr` had 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state handle (tests drive drain and read counters here).
    pub fn state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Runs the accept loop until drain, then shuts the pool down
    /// (finishing every queued request), flushes telemetry next to the
    /// checkpoints, and returns the final counters.
    pub fn run(self) -> std::io::Result<ServeSummary> {
        let state = Arc::clone(&self.state);
        let pool_state = Arc::clone(&self.state);
        let pool = BoundedPool::new(
            state.config.workers,
            state.config.queue_depth,
            move |(stream, accepted_at): (TcpStream, Instant)| {
                handle_connection(stream, accepted_at, &pool_state);
            },
        );

        loop {
            if state.is_draining() {
                break;
            }
            match self.listener.accept() {
                Ok((mut stream, peer)) => {
                    let accepted_at = Instant::now();
                    if state.is_draining() {
                        if !state.is_wake(peer) {
                            state.gate.admit();
                            state.gate.record_shed();
                            let _ = stream.set_write_timeout(Some(state.config.write_timeout));
                            let resp = Response::error(503, "draining", "server is draining")
                                .with_retry_after(1);
                            let _ = resp.write_to(&mut stream);
                        }
                        break;
                    }
                    state.gate.admit();
                    let _ = stream.set_write_timeout(Some(state.config.write_timeout));
                    match pool.try_submit((stream, accepted_at)) {
                        Ok(_depth) => {}
                        Err((mut stream, _)) => {
                            state.gate.record_shed();
                            state.telemetry.counter("serve.shed", 1);
                            let resp = Response::error(
                                503,
                                "overloaded",
                                "request queue is full; retry later",
                            )
                            .with_retry_after(state.gate.retry_after_secs());
                            let _ = resp.write_to(&mut stream);
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
            }
        }

        // Drain: stop accepting (listener closes with self), finish
        // every in-flight and queued request, checkpoint every stream,
        // then flush telemetry.
        let pool_panics = pool.shutdown();
        state
            .streams
            .persist_all(tsobs::Obs::from_option(Some(&state.telemetry)));
        if let Some(dir) = &state.config.checkpoint_dir {
            let _ = std::fs::create_dir_all(dir);
            let _ = state.telemetry.flush_to(&dir.join("telemetry.jsonl"));
        }
        Ok(ServeSummary {
            accepted: state.gate.accepted_total(),
            completed: state.gate.completed_total(),
            shed: state.gate.shed_total(),
            errors: state.gate.errors_total(),
            panics: state.gate.panics_total() + pool_panics,
            models: state.registry.len(),
        })
    }

    /// Runs the server on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let state = Arc::clone(&self.state);
        let join = std::thread::Builder::new()
            .name("tsserve-accept".to_string())
            .spawn(move || self.run())
            .expect("spawn accept loop");
        ServerHandle { addr, state, join }
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    join: std::thread::JoinHandle<std::io::Result<ServeSummary>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state (counters, drain flag, registry).
    pub fn state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Requests drain and waits for the accept loop to finish.
    pub fn drain_and_join(self) -> std::io::Result<ServeSummary> {
        self.state.begin_drain();
        self.join
            .join()
            .unwrap_or_else(|_| panic!("accept loop panicked"))
    }
}

/// Reads and discards input already in flight, stopping at the first
/// empty poll (the peer is waiting on us, not sending) or after a small
/// bound. Best-effort: purely to make error-path closes graceful.
fn drain_available(stream: &mut TcpStream) {
    use std::io::Read;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut chunk = [0u8; 4096];
    let give_up = Instant::now() + Duration::from_millis(60);
    while Instant::now() < give_up {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Serves one connection: read, route (panic-isolated), respond.
/// `accepted_at` is when the accept loop took the connection, so the
/// gap to now is the time it waited in the pool queue.
fn handle_connection(mut stream: TcpStream, accepted_at: Instant, state: &AppState) {
    let start = Instant::now();
    let limits = Limits {
        max_head_bytes: state.config.max_head_bytes,
        max_body_bytes: state.config.max_body_bytes,
        read_deadline: state.config.read_deadline,
    };
    let response = match http::read_request(&mut stream, &limits) {
        Ok(req) => match catch_unwind(AssertUnwindSafe(|| crate::handlers::handle(&req, state))) {
            Ok(resp) => resp,
            Err(_) => {
                state.gate.record_panic();
                state.telemetry.counter("serve.panic", 1);
                Response::error(500, "internal_panic", "request handler panicked")
            }
        },
        Err(err) => {
            if matches!(err, http::HttpError::SlowClient) {
                state.telemetry.counter("serve.slow_client", 1);
            }
            match err.into_response() {
                Some(resp) => {
                    // Discard whatever the client already buffered so
                    // closing after the error response sends FIN, not
                    // RST — otherwise the peer may lose the response.
                    drain_available(&mut stream);
                    resp
                }
                None => {
                    // Peer vanished before sending anything.
                    state.gate.depart(start.elapsed().as_nanos() as u64, false);
                    return;
                }
            }
        }
    };
    let errored = response.status >= 400;
    let _ = response.write_to(&mut stream);
    let elapsed = start.elapsed().as_nanos() as u64;
    state.gate.depart(elapsed, errored);
    state.telemetry.span(
        "serve.queue_wait",
        start.duration_since(accepted_at).as_nanos() as u64,
    );
    state.telemetry.span("serve.request", elapsed);
    state.telemetry.counter(status_counter(response.status), 1);
}

/// The `serve.status.<class>xx` counter for `status`. The server only
/// emits 2xx, 4xx and 5xx statuses.
fn status_counter(status: u16) -> &'static str {
    match status / 100 {
        2 => "serve.status.2xx",
        4 => "serve.status.4xx",
        5 => "serve.status.5xx",
        _ => "serve.status.other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_addr_maps_wildcards_to_loopback() {
        let cases = [
            ("0.0.0.0:7878", "127.0.0.1:7878"),
            ("[::]:7878", "[::1]:7878"),
            ("10.1.2.3:80", "10.1.2.3:80"),
            ("[::1]:9", "[::1]:9"),
        ];
        for (bound, expected) in cases {
            let bound: SocketAddr = bound.parse().unwrap();
            assert_eq!(wake_addr(bound), expected.parse().unwrap(), "{bound}");
        }
    }

    #[test]
    fn status_counter_names_match_the_status_class() {
        for status in [200, 400, 404, 405, 408, 413, 422, 500, 503, 504] {
            let expected = format!("serve.status.{}xx", status / 100);
            assert_eq!(status_counter(status), expected);
        }
    }
}
