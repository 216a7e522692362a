//! The localhost TCP daemon: accept loop, per-connection NDJSON handlers,
//! graceful shutdown.
//!
//! Each connection gets its own handler thread reading request lines and
//! writing response lines; the heavy lifting stays in the shared
//! [`WorkerPool`], so a slow client never blocks the physics. `shutdown`
//! (over the wire or via [`Server::shutdown`]) flips a flag, wakes the
//! accept loop with a self-connection, drains the pool (every admitted
//! job completes and persists before exit) and joins every thread.
//!
//! # Hostile-input posture
//!
//! A daemon aimed at "millions of users" (ROADMAP item 3) cannot trust
//! its peers: frames are read through a hard byte cap
//! ([`ServerConfig::max_line_bytes`]) so an attacker streaming an
//! endless line exhausts nothing; malformed frames get a typed error
//! reply and the connection *stays up*; an optional per-connection
//! request budget ([`ServerConfig::request_budget`]) bounds what any one
//! socket can ask for before being asked to reconnect.
//!
//! # Chaos seams
//!
//! When a `vab_fault::SvcFaultPlan` is armed ([`ServerConfig::faults`]),
//! the response path consults it per `(request key, delivery attempt)`
//! and may drop the connection before writing, truncate the frame
//! mid-byte, or flip a byte in flight. Keys are content-derived (job
//! digest, id) — never wall-clock or socket identity — so a drill is
//! bit-reproducible at any worker count. `health` and `shutdown` are
//! exempt: probes stay honest and drills can always terminate.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use vab_fault::{SvcFaultPlan, WireFault};
use vab_obs::{SpanScope, TraceContext};
use vab_util::hash::fnv1a64;
use vab_util::json::Json;

use crate::cache::ResultCache;
use crate::exec::Executor;
use crate::pool::{PoolConfig, WorkerPool};
use crate::telemetry::TelemetryRing;
use crate::wire::{self, Request};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Pool sizing and admission policy.
    pub pool: PoolConfig,
    /// Hard cap on one request frame; longer lines get a typed
    /// `frame_too_large` error and the connection closes (the rest of
    /// the oversized line cannot be resynchronized).
    pub max_line_bytes: usize,
    /// Requests served per connection before the daemon replies with a
    /// typed `budget_exhausted` error and closes (`0` = unlimited).
    /// Clients reconnect and continue; no state is lost.
    pub request_budget: u64,
    /// Deterministic wire-fault injection for chaos drills.
    pub faults: Option<SvcFaultPlan>,
    /// Cadence of the background telemetry sampler, milliseconds
    /// (`0` disables it; the `metrics` op still samples on demand).
    pub telemetry_interval_ms: u64,
    /// Telemetry samples retained in the ring (at the default 500 ms
    /// cadence, 240 samples ≈ the last two minutes).
    pub telemetry_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            pool: PoolConfig::default(),
            max_line_bytes: 1 << 20,
            request_budget: 0,
            faults: None,
            telemetry_interval_ms: 500,
            telemetry_capacity: 240,
        }
    }
}

/// Wire faults the server has injected, by class (for drill accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireFaultTotals {
    /// Connections dropped before the response was written.
    pub drops: u64,
    /// Frames cut short mid-byte.
    pub truncates: u64,
    /// Frames delivered with a flipped byte.
    pub corrupts: u64,
}

struct Shared {
    pool: WorkerPool,
    stop: AtomicBool,
    /// Wakes the telemetry sampler the moment a stop is requested, so
    /// shutdown never waits out its cadence.
    stop_lock: Mutex<()>,
    stop_wake: Condvar,
    /// Write halves of live connections, so shutdown can force EOF on
    /// handlers blocked in `read_until` waiting for a client that never
    /// hangs up.
    conns: Mutex<Vec<TcpStream>>,
    max_line_bytes: usize,
    request_budget: u64,
    faults: Option<SvcFaultPlan>,
    /// Delivery-attempt counters per *job-derived* request key, so a
    /// retried request redraws its fate (chaos drills recover instead of
    /// livelocking). Control ops never enter this map — they draw from
    /// their own per-request identity stream (`control_requests`).
    attempts: Mutex<std::collections::HashMap<u64, u32>>,
    /// Monotone identity source for control-plane requests (`stats`,
    /// `metrics`, `watch`): each request gets its own fault draw instead
    /// of all sharing one hashed op-name key, and the stream can never
    /// collide with the job-digest namespace above.
    control_requests: AtomicU64,
    wire_drops: AtomicU64,
    wire_truncates: AtomicU64,
    wire_corrupts: AtomicU64,
    malformed: AtomicU64,
    telemetry: TelemetryRing,
}

/// A running daemon. Dropping the handle does *not* stop it — call
/// [`Server::shutdown`] (or send `{"op":"shutdown"}`).
pub struct Server {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    sampler_handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, starts the pool and the accept loop, and returns
    /// immediately. The bound address (with the real port) is
    /// [`Server::addr`].
    pub fn start(
        cfg: ServerConfig,
        executor: Executor,
        cache: Arc<ResultCache>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let pool = WorkerPool::start(cfg.pool, executor, cache);
        let shared = Arc::new(Shared {
            pool,
            stop: AtomicBool::new(false),
            stop_lock: Mutex::new(()),
            stop_wake: Condvar::new(),
            conns: Mutex::new(Vec::new()),
            max_line_bytes: cfg.max_line_bytes.max(64),
            request_budget: cfg.request_budget,
            faults: cfg.faults.filter(|p| !p.config().is_off()),
            attempts: Mutex::new(std::collections::HashMap::new()),
            control_requests: AtomicU64::new(0),
            wire_drops: AtomicU64::new(0),
            wire_truncates: AtomicU64::new(0),
            wire_corrupts: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            telemetry: TelemetryRing::new(cfg.telemetry_capacity),
        });
        vab_obs::event!("svc.server", "listening", addr = addr.to_string());
        let accept_shared = shared.clone();
        let accept_handle = std::thread::Builder::new()
            .name("vab-svc-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        let sampler_handle = if cfg.telemetry_interval_ms > 0 {
            let sampler_shared = shared.clone();
            let interval = Duration::from_millis(cfg.telemetry_interval_ms);
            Some(
                std::thread::Builder::new()
                    .name("vab-svc-telemetry".into())
                    .spawn(move || sampler_loop(&sampler_shared, interval))?,
            )
        } else {
            None
        };
        Ok(Server { addr, shared, accept_handle: Some(accept_handle), sampler_handle })
    }

    /// The bound address (real port even when configured with `:0`).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The worker pool (tests inspect totals and cache stats through it).
    pub fn pool(&self) -> &WorkerPool {
        &self.shared.pool
    }

    /// True once a shutdown has been requested (locally or by a client).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Wire faults injected so far, by class (drill accounting).
    pub fn wire_fault_totals(&self) -> WireFaultTotals {
        WireFaultTotals {
            drops: self.shared.wire_drops.load(Ordering::Relaxed),
            truncates: self.shared.wire_truncates.load(Ordering::Relaxed),
            corrupts: self.shared.wire_corrupts.load(Ordering::Relaxed),
        }
    }

    /// Malformed frames answered with a typed error so far.
    pub fn malformed_frames(&self) -> u64 {
        self.shared.malformed.load(Ordering::Relaxed)
    }

    /// The live telemetry ring (tests and embedders sample it directly;
    /// wire peers use the `metrics` / `watch` ops).
    pub fn telemetry(&self) -> &TelemetryRing {
        &self.shared.telemetry
    }

    /// Stops accepting connections, drains the pool (admitted jobs run
    /// to completion and persist their results), joins the accept loop.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        let in_flight = self.shared.pool.queue_depth();
        if in_flight > 0 {
            vab_obs::event!("svc.server", "draining", in_flight = in_flight);
        }
        request_stop(&self.shared, self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.sampler_handle.take() {
            let _ = handle.join();
        }
        self.shared.pool.shutdown();
        // One final sample so the ring's last entry reflects the drained
        // pool (useful to post-mortem a run from the `watch` backlog).
        self.shared
            .telemetry
            .record(&self.shared.pool, self.shared.malformed.load(Ordering::Relaxed));
        vab_obs::event!("svc.server", "stopped", addr = self.addr.to_string());
    }
}

/// Flips the stop flag, wakes the sampler, and pokes the accept loop
/// awake with a throwaway self-connection (the portable way to interrupt
/// a blocking `accept`).
fn request_stop(shared: &Shared, addr: std::net::SocketAddr) {
    if shared.stop.swap(true, Ordering::AcqRel) {
        return;
    }
    // Taking the lock orders this notify after any sampler that saw the
    // flag clear has started waiting, so the wake-up cannot be lost.
    drop(shared.stop_lock.lock().unwrap_or_else(|e| e.into_inner()));
    shared.stop_wake.notify_all();
    if let Ok(stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        drop(stream);
    }
}

/// Background telemetry sampler: one ring entry per interval until
/// shutdown. Waits on `stop_wake`, so a stop ends the wait at once.
fn sampler_loop(shared: &Arc<Shared>, interval: Duration) {
    let running = || !shared.stop.load(Ordering::Acquire);
    while running() {
        shared.telemetry.record(&shared.pool, shared.malformed.load(Ordering::Relaxed));
        let guard = shared.stop_lock.lock().unwrap_or_else(|e| e.into_inner());
        let _ = shared.stop_wake.wait_timeout_while(guard, interval, |_| running());
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut conn_handles = Vec::new();
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().unwrap_or_else(|e| e.into_inner()).push(clone);
        }
        let conn_shared = shared.clone();
        let local = listener.local_addr().ok();
        if let Ok(handle) = std::thread::Builder::new()
            .name("vab-svc-conn".into())
            .spawn(move || handle_connection(stream, &conn_shared, local))
        {
            conn_handles.push(handle);
        }
        // Reap finished handlers so a long-lived daemon doesn't
        // accumulate join handles.
        conn_handles.retain(|h| !h.is_finished());
    }
    // Force EOF on every live connection so handlers blocked in
    // `read_until` unblock even when their client never hangs up.
    for conn in shared.conns.lock().unwrap_or_else(|e| e.into_inner()).drain(..) {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    for handle in conn_handles {
        let _ = handle.join();
    }
}

/// Outcome of reading one frame through the byte cap.
enum Frame {
    Line(String),
    /// Client closed (or shutdown forced EOF).
    Eof,
    /// The line exceeded the cap; the connection cannot resync.
    TooLarge,
    /// The bytes were not UTF-8.
    BadEncoding,
}

/// Reads one `\n`-terminated frame, never buffering more than
/// `max + 1` bytes of a single line.
fn read_frame(reader: &mut BufReader<TcpStream>, max: usize) -> Frame {
    let mut buf = Vec::new();
    let mut limited = reader.take(max as u64 + 1);
    match limited.read_until(b'\n', &mut buf) {
        Ok(0) => Frame::Eof,
        Ok(_) => {
            if buf.len() > max {
                return Frame::TooLarge;
            }
            match String::from_utf8(buf) {
                Ok(s) => Frame::Line(s),
                Err(_) => Frame::BadEncoding,
            }
        }
        Err(_) => Frame::Eof,
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, local: Option<std::net::SocketAddr>) {
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    serve_frames(&mut reader, &mut writer, shared, local);
    // The accept loop holds another clone of this stream (its shutdown
    // lever), so dropping our halves does not send FIN — shut the socket
    // down explicitly or a faulted/finished connection would leave the
    // peer blocked until its read timeout.
    let _ = writer.flush();
    let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
}

fn serve_frames(
    reader: &mut BufReader<TcpStream>,
    mut writer: &mut std::io::BufWriter<TcpStream>,
    shared: &Arc<Shared>,
    local: Option<std::net::SocketAddr>,
) {
    let mut served: u64 = 0;
    loop {
        let line = match read_frame(reader, shared.max_line_bytes) {
            Frame::Line(line) => line,
            Frame::Eof => return,
            Frame::TooLarge => {
                shared.note_malformed("frame_too_large");
                let _ = write_line(&mut writer, &wire::error_response("frame_too_large"));
                return; // cannot resync inside the oversized line
            }
            Frame::BadEncoding => {
                shared.note_malformed("bad_encoding");
                if write_line(&mut writer, &wire::error_response("bad encoding: not UTF-8"))
                    .is_err()
                {
                    return;
                }
                continue; // frame boundary intact: connection survives
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        if shared.request_budget > 0 && served >= shared.request_budget {
            let resp = Json::obj([
                ("ok", Json::Bool(false)),
                ("error", Json::Str("budget_exhausted".into())),
                ("served", Json::Num(served as f64)),
            ]);
            let _ = write_line(&mut writer, &resp);
            return;
        }
        served += 1;
        match Request::parse(&line) {
            Ok(req) => {
                let is_shutdown = matches!(req, Request::Shutdown);
                let fault = shared.draw_wire_fault(&req);
                let resp = dispatch(req, shared);
                if is_shutdown {
                    let _ = write_line(&mut writer, &resp);
                    if let Some(addr) = local {
                        request_stop(shared, addr);
                    }
                    return;
                }
                match deliver(&mut writer, &resp, fault, shared) {
                    Ok(true) => {}
                    Ok(false) | Err(_) => return,
                }
            }
            Err(e) => {
                // Malformed frame: typed error, connection stays up.
                shared.note_malformed("bad_request");
                if write_line(&mut writer, &wire::error_response(&e)).is_err() {
                    return;
                }
            }
        }
    }
}

impl Shared {
    fn note_malformed(&self, kind: &'static str) {
        self.malformed.fetch_add(1, Ordering::Relaxed);
        vab_obs::metrics::inc("svc.malformed_frames", 1);
        vab_obs::event!("svc.server", "malformed_frame", kind = kind);
    }

    /// Draws this delivery's wire fault from the plan. Job-addressed
    /// requests key by request *content* (digest / id) so the drill
    /// replays identically whatever the thread interleaving; control ops
    /// (`stats`, `metrics`, `watch`) each get a fresh per-request
    /// identity from a dedicated counter stream — they used to share one
    /// hashed op-name key, which made every control request the same
    /// "delivery" and let retries livelock on an always-faulting draw.
    /// `health`/`shutdown` are exempt.
    fn draw_wire_fault(&self, req: &Request) -> WireFault {
        let Some(plan) = &self.faults else { return WireFault::None };
        let key = match req {
            Request::Submit { job, .. } => job.digest(),
            Request::Status { id } => wire::parse_id(id).unwrap_or_else(|_| fnv1a64(id.as_bytes())),
            Request::Fetch { id, .. } => {
                wire::parse_id(id).unwrap_or_else(|_| fnv1a64(id.as_bytes())) ^ 0x5747_C4ED
            }
            Request::Stats | Request::Metrics | Request::Watch { .. } => {
                // Per-request identity: mix the counter through a 64-bit
                // odd multiplier and fold in a fixed control-plane tag.
                // This stream never touches `attempts` (attempt is 0 by
                // construction — no two control requests share a key), so
                // it cannot collide with the job-digest namespace.
                let n = self.control_requests.fetch_add(1, Ordering::Relaxed);
                let key = fnv1a64(b"ctl") ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                return plan.wire_fault(key, 0);
            }
            Request::Health | Request::Shutdown => return WireFault::None,
        };
        let attempt = {
            let mut attempts = self.attempts.lock().unwrap_or_else(|e| e.into_inner());
            let slot = attempts.entry(key).or_insert(0);
            let attempt = *slot;
            *slot += 1;
            attempt
        };
        plan.wire_fault(key, attempt)
    }
}

/// Writes `resp`, applying `fault`. Returns `Ok(true)` when the
/// connection should stay up, `Ok(false)` when the fault closed it.
fn deliver(
    writer: &mut impl Write,
    resp: &Json,
    fault: WireFault,
    shared: &Shared,
) -> std::io::Result<bool> {
    match fault {
        WireFault::None => {
            write_line(writer, resp)?;
            Ok(true)
        }
        WireFault::DropBeforeWrite => {
            shared.wire_drops.fetch_add(1, Ordering::Relaxed);
            vab_obs::event!("svc.fault", "wire_drop");
            Ok(false)
        }
        WireFault::Truncate { keep_frac } => {
            shared.wire_truncates.fetch_add(1, Ordering::Relaxed);
            vab_obs::event!("svc.fault", "wire_truncate");
            let line = resp.render();
            let keep = ((line.len() as f64 * keep_frac) as usize).min(line.len().saturating_sub(1));
            writer.write_all(&line.as_bytes()[..keep])?;
            writer.flush()?;
            Ok(false) // the frame can never complete: close
        }
        WireFault::CorruptByte { pos_frac } => {
            shared.wire_corrupts.fetch_add(1, Ordering::Relaxed);
            vab_obs::event!("svc.fault", "wire_corrupt");
            let mut bytes = resp.render().into_bytes();
            if !bytes.is_empty() {
                let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
                // Setting the high bit on an ASCII byte yields invalid
                // UTF-8 (never a newline), so the corruption is always
                // *detectable* at the client and framing survives — the
                // deterministic analogue of a checksum-failing frame.
                bytes[pos] |= 0x80;
            }
            bytes.push(b'\n');
            writer.write_all(&bytes)?;
            writer.flush()?;
            Ok(true)
        }
    }
}

fn write_line(writer: &mut impl Write, response: &Json) -> std::io::Result<()> {
    let mut line = response.render();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

fn dispatch(req: Request, shared: &Shared) -> Json {
    match req {
        Request::Submit { job, deadline_ms, trace } => {
            // The handle span covers admission (cache lookup, dedupe,
            // enqueue); execution continues under the same trace on a
            // worker thread. Without a wire context the root is derived
            // from the digest, so a traced daemon facing an untraced
            // client still builds a complete (server-side) tree.
            let parent = if vab_obs::enabled() {
                Some(trace.unwrap_or_else(|| TraceContext::root(job.digest(), "job")))
            } else {
                None
            };
            let handle = parent.map(|p| SpanScope::enter("svc.server", "svc.handle", &p));
            let pool_trace = handle.as_ref().map(|h| h.ctx());
            match shared.pool.submit_traced(*job, deadline_ms, pool_trace) {
                Ok(outcome) => wire::submit_response(&outcome.id, &outcome.status, outcome.deduped),
                Err(e) => wire::submit_error_response(&e),
            }
        }
        Request::Status { id } => match wire::parse_id(&id) {
            Ok(digest) => match shared.pool.status(digest) {
                Some(status) => wire::status_response(&id, &status),
                None => wire::error_response("unknown job"),
            },
            Err(e) => wire::error_response(&e),
        },
        Request::Fetch { id, wait_ms } => match wire::parse_id(&id) {
            Ok(digest) => {
                let fetched = if wait_ms > 0 {
                    shared.pool.wait(digest, Duration::from_millis(wait_ms))
                } else {
                    shared.pool.fetch(digest)
                };
                match fetched {
                    Some((status, payload)) => {
                        wire::fetch_response(&id, &status, payload.as_deref())
                    }
                    None => wire::error_response("unknown job"),
                }
            }
            Err(e) => wire::error_response(&e),
        },
        Request::Stats => {
            let (done, failed) = shared.pool.totals();
            let cache = shared.pool.cache().stats();
            Json::obj([
                ("ok", Json::Bool(true)),
                ("workers", Json::Num(shared.pool.workers() as f64)),
                ("queue_depth", Json::Num(shared.pool.queue_depth() as f64)),
                ("jobs_done", Json::Num(done as f64)),
                ("jobs_failed", Json::Num(failed as f64)),
                ("cache_hits", Json::Num(cache.hits as f64)),
                ("cache_misses", Json::Num(cache.misses as f64)),
                ("cache_hit_rate", Json::Num(cache.hit_rate())),
                ("cache_resident", Json::Num(cache.resident as f64)),
                ("cache_quarantined", Json::Num(cache.quarantined as f64)),
                ("cache_write_failures", Json::Num(cache.disk_write_failures as f64)),
                ("malformed_frames", Json::Num(shared.malformed.load(Ordering::Relaxed) as f64)),
            ])
        }
        Request::Metrics => {
            let sample =
                shared.telemetry.sample_now(&shared.pool, shared.malformed.load(Ordering::Relaxed));
            wire::metrics_response(sample)
        }
        Request::Watch { since } => {
            let (latest, samples) = shared.telemetry.since(since);
            wire::watch_response(since, latest, samples)
        }
        Request::Health => wire::health_response(
            shared.pool.workers(),
            shared.pool.queue_depth(),
            shared.stop.load(Ordering::Acquire),
        ),
        Request::Shutdown => {
            vab_obs::event!("svc.server", "shutdown_requested");
            Json::obj([("ok", Json::Bool(true)), ("stopping", Json::Bool(true))])
        }
    }
}
