//! Integration tests for the service layer (`vab-svc` + the bench glue):
//! the end-to-end cache speedup, worker-panic isolation, backpressure,
//! and canonical-serialization properties the cache's correctness rests
//! on.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use vab::svc::cache::ResultCache;
use vab::svc::client::{Client, ClientConfig, ClientError};
use vab::svc::exec::Executor;
use vab::svc::job::{EngineSpec, EnvSpec, JobSpec, SystemSpec};
use vab::svc::pool::PoolConfig;
use vab::svc::server::{Server, ServerConfig};
use vab::util::json::Json;
use vab_bench::serve::{bench_executor, figure_job};
use vab_bench::ExpConfig;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vab-svc-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(executor: Executor, cache: Arc<ResultCache>, pool: PoolConfig) -> Server {
    let cfg = ServerConfig { addr: "127.0.0.1:0".into(), pool, ..ServerConfig::default() };
    Server::start(cfg, executor, cache).expect("bind localhost")
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.addr().to_string()).expect("connect")
}

/// Submits `jobs` and waits for all results; returns (payload, cached)
/// per job in order. "Cached" is the submit response's verdict when the
/// job was already terminal at submission (cache hit or dedup), else the
/// fetch response's.
fn run_batch(client: &mut Client, jobs: &[JobSpec]) -> Vec<(String, bool)> {
    let ids: Vec<(String, bool)> = jobs
        .iter()
        .map(|job| {
            let resp = client.submit_with_retry(job, None, 500).expect("submit");
            let at_submit =
                resp.str_field("status") == Some("done") && resp.bool_field("cached") == Some(true);
            (resp.str_field("id").expect("id").to_string(), at_submit)
        })
        .collect();
    ids.iter()
        .map(|(id, at_submit)| {
            let resp = loop {
                let r = client.fetch_wait(id, 30_000).expect("fetch");
                match r.str_field("status") {
                    Some("queued") | Some("running") => continue,
                    _ => break r,
                }
            };
            assert_eq!(resp.str_field("status"), Some("done"), "job {id}: {}", resp.render());
            let payload = resp.get("result").expect("result").render();
            (payload, *at_submit || resp.bool_field("cached") == Some(true))
        })
        .collect()
}

#[test]
fn second_identical_figure_batch_is_cached_and_much_faster() {
    let dir = temp_dir("speedup");
    let cache = Arc::new(ResultCache::persistent(64, &dir).expect("cache dir"));
    let mut server =
        start_server(bench_executor(), cache, PoolConfig { workers: 2, ..PoolConfig::default() });
    let mut client = connect(&server);
    let cfg = ExpConfig { trials: 12, bits: 128, seed: 42 };
    let jobs: Vec<JobSpec> = ["t3_link_budget", "f6_snr_vs_range", "f7_ber_vs_range"]
        .iter()
        .map(|name| figure_job(name, &cfg))
        .collect();

    let cold_start = Instant::now();
    let cold = run_batch(&mut client, &jobs);
    let cold_elapsed = cold_start.elapsed();
    assert!(cold.iter().all(|(_, cached)| !cached), "first batch must compute");

    let warm_start = Instant::now();
    let warm = run_batch(&mut client, &jobs);
    let warm_elapsed = warm_start.elapsed();
    assert!(warm.iter().all(|(_, cached)| *cached), "second batch must be all cache hits");
    for ((a, _), (b, _)) in cold.iter().zip(&warm) {
        assert_eq!(a, b, "cached results must be bit-identical to computed ones");
    }
    assert!(
        cold_elapsed >= warm_elapsed * 10,
        "cache must be >=10x faster: cold {cold_elapsed:.2?}, warm {warm_elapsed:.2?}"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faulted_daemon_fails_typed_but_keeps_serving_cached_results() {
    let dir = temp_dir("faulted");
    let cfg = ExpConfig { trials: 8, bits: 64, seed: 7 };
    let job = figure_job("t3_link_budget", &cfg);

    // A healthy daemon computes and populates the shared persistent cache.
    {
        let cache = Arc::new(ResultCache::persistent(16, &dir).expect("cache dir"));
        let mut server = start_server(bench_executor(), cache, PoolConfig::default());
        let mut client = connect(&server);
        let results = run_batch(&mut client, std::slice::from_ref(&job));
        assert!(!results[0].1);
        server.shutdown();
    }

    // A daemon whose every execution panics still serves the cache,
    // reports fresh jobs as typed worker panics, and keeps answering.
    let cache = Arc::new(ResultCache::persistent(16, &dir).expect("reopen cache"));
    let executor = bench_executor().with_faults(vab::fault::WorkerFaultPlan::always(1234));
    let mut server = start_server(executor, cache, PoolConfig::default());
    let mut client = connect(&server);

    let cached = run_batch(&mut client, std::slice::from_ref(&job));
    assert!(cached[0].1, "previously computed figure must come from the cache");

    let fresh = figure_job("f6_snr_vs_range", &cfg);
    let resp = client.submit(&fresh, None).expect("admitted");
    let id = resp.str_field("id").expect("id").to_string();
    let resp = loop {
        let r = client.fetch_wait(&id, 30_000).expect("fetch");
        match r.str_field("status") {
            Some("queued") | Some("running") => continue,
            _ => break r,
        }
    };
    assert_eq!(resp.str_field("status"), Some("failed"));
    assert_eq!(resp.str_field("failure"), Some("worker_panicked"), "{}", resp.render());

    let stats = client.stats().expect("daemon still answers");
    assert_eq!(stats.u64_field("jobs_failed"), Some(1));
    assert!(stats.u64_field("cache_hits").unwrap_or(0) >= 1);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn slow_mc(seed: u64) -> JobSpec {
    JobSpec::McPoint {
        system: SystemSpec::Vab { n_pairs: 4 },
        env: EnvSpec::River,
        range_m: 60.0,
        rotation_deg: 0.0,
        trials: 4000,
        bits: 64,
        seed,
        engine: EngineSpec::LinkBudget,
    }
}

#[test]
fn full_queue_pushes_back_and_retry_eventually_lands() {
    let cache = Arc::new(ResultCache::in_memory(64));
    let pool = PoolConfig { workers: 1, queue_cap: 1, retry_after_ms: 10 };
    let mut server = start_server(Executor::new(), cache, pool);
    let mut client = connect(&server);

    let mut backpressured = None;
    for seed in 0..30u64 {
        match client.submit(&slow_mc(seed), None) {
            Ok(_) => continue,
            Err(ClientError::QueueFull { retry_after_ms }) => {
                backpressured = Some(retry_after_ms);
                break;
            }
            Err(e) => panic!("unexpected client error: {e}"),
        }
    }
    assert_eq!(backpressured, Some(10), "a full queue must reject with the daemon's hint");

    // The retry loop must eventually admit the job as the queue drains.
    let resp = client.submit_with_retry(&slow_mc(999), None, 10_000).expect("retries land");
    assert!(resp.str_field("id").is_some());

    server.shutdown();
}

#[test]
fn deadline_expiry_is_reported_over_the_wire() {
    let cache = Arc::new(ResultCache::in_memory(16));
    let pool = PoolConfig { workers: 1, queue_cap: 8, retry_after_ms: 10 };
    let mut server = start_server(Executor::new(), cache, pool);
    let mut client = connect(&server);

    // Occupy the single worker, then submit with an already-hopeless deadline.
    client.submit(&slow_mc(1), None).expect("slow job admitted");
    let resp = client.submit(&slow_mc(2), Some(0)).expect("deadline job admitted");
    let id = resp.str_field("id").expect("id").to_string();
    let resp = loop {
        let r = client.fetch_wait(&id, 30_000).expect("fetch");
        match r.str_field("status") {
            Some("queued") | Some("running") => continue,
            _ => break r,
        }
    };
    assert_eq!(resp.str_field("status"), Some("failed"));
    assert_eq!(resp.str_field("failure"), Some("deadline_expired"), "{}", resp.render());

    server.shutdown();
}

#[test]
fn cache_determinism_same_spec_hits_changed_seed_or_engine_misses() {
    let cache = ResultCache::in_memory(16);
    let ex = Executor::new();
    let spec = JobSpec::McPoint {
        system: SystemSpec::Vab { n_pairs: 4 },
        env: EnvSpec::Ocean { sea_state: 1 },
        range_m: 45.0,
        rotation_deg: 10.0,
        trials: 6,
        bits: 64,
        seed: 77,
        engine: EngineSpec::LinkBudget,
    };
    let digest = spec.digest();
    let first = ex.execute(&spec, digest, &cache).expect("compute");
    cache.put(digest, &spec.canonical(), &first);
    assert_eq!(cache.get(digest).as_deref(), Some(first.as_str()), "identical spec must hit");
    let recomputed = ex.execute(&spec, digest, &cache).expect("recompute");
    assert_eq!(first, recomputed, "cached and computed payloads must be byte-identical");

    let mut reseeded = spec.clone();
    if let JobSpec::McPoint { seed, .. } = &mut reseeded {
        *seed = 78;
    }
    assert_ne!(reseeded.digest(), digest, "seed change must re-address");
    assert_eq!(cache.get(reseeded.digest()), None, "and therefore miss");
    assert_eq!(
        cache.get(spec.digest_with_version("vab-engine/next")),
        None,
        "engine bump must orphan the old entry"
    );
}

// ---------------------------------------------------------------------------
// Resilience: typed client timeouts and raw-wire abuse of a live daemon.
// ---------------------------------------------------------------------------

#[test]
fn client_reports_typed_timeout_against_a_silent_listener() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind silent listener");
    let addr = listener.local_addr().expect("addr").to_string();
    let hold = std::thread::spawn(move || {
        // Accept, then read without ever replying; exits when the client
        // gives up and drops its half of the connection.
        let (mut stream, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 256];
        while matches!(stream.read(&mut buf), Ok(n) if n > 0) {}
    });
    let cfg = ClientConfig {
        read_timeout: Some(Duration::from_millis(200)),
        write_timeout: Some(Duration::from_millis(200)),
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(&addr, cfg).expect("connect");
    match client.health() {
        Err(ClientError::Timeout) => {}
        Ok(resp) => panic!("expected ClientError::Timeout, got reply {}", resp.render()),
        Err(other) => panic!("expected ClientError::Timeout, got {other}"),
    }
    drop(client);
    hold.join().expect("listener thread");
}

fn raw_wire(server: &Server) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(server.addr()).expect("raw connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

fn send_line(stream: &mut TcpStream, line: &[u8]) {
    stream.write_all(line).expect("write frame");
    stream.write_all(b"\n").expect("write newline");
}

/// Reads one reply line; `None` means the daemon closed the connection.
fn read_reply(reader: &mut BufReader<TcpStream>) -> Option<Json> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(Json::parse(line.trim_end()).expect("daemon replies are JSON")),
        Err(e) => panic!("read reply: {e}"),
    }
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let cache = Arc::new(ResultCache::in_memory(16));
    let mut server = start_server(
        Executor::new(),
        cache,
        PoolConfig { workers: 1, queue_cap: 8, retry_after_ms: 10 },
    );
    let (mut reader, mut stream) = raw_wire(&server);

    // Truncated JSON, non-JSON text, JSON of the wrong shape, invalid
    // UTF-8, and nesting deep enough to overflow a connection thread's
    // stack if the parser recursed without a bound: each answered with a
    // typed error, connection stays up.
    let deep = vec![b'['; 512 * 1024];
    let abuse: [&[u8]; 5] = [
        b"{\"op\":\"submit\",\"job\":{",
        b"GET / HTTP/1.1",
        b"{\"flavor\":\"wrong\"}",
        b"\xff\xfe{\"op\":\"health\"}",
        &deep,
    ];
    for frame in abuse {
        send_line(&mut stream, frame);
        let reply = read_reply(&mut reader).expect("typed error, not a hangup");
        assert_eq!(reply.bool_field("ok"), Some(false), "{}", reply.render());
    }
    // The very same connection still serves a well-formed request.
    send_line(&mut stream, b"{\"op\":\"health\"}");
    let reply = read_reply(&mut reader).expect("healthy reply");
    assert_eq!(reply.bool_field("ok"), Some(true), "{}", reply.render());
    assert_eq!(server.malformed_frames(), abuse.len() as u64);
    server.shutdown();
}

#[test]
fn oversized_frames_are_rejected_then_the_connection_closes_cleanly() {
    let cache = Arc::new(ResultCache::in_memory(16));
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        pool: PoolConfig { workers: 1, queue_cap: 8, retry_after_ms: 10 },
        max_line_bytes: 4096,
        ..ServerConfig::default()
    };
    let mut server = Server::start(cfg, Executor::new(), cache).expect("bind");
    let (mut reader, mut stream) = raw_wire(&server);
    send_line(&mut stream, &vec![b'a'; 8192]);
    let reply = read_reply(&mut reader).expect("typed frame_too_large");
    assert_eq!(reply.bool_field("ok"), Some(false));
    assert!(reply.render().contains("frame_too_large"), "{}", reply.render());
    assert!(
        read_reply(&mut reader).is_none(),
        "connection must close after an oversized frame (no resync inside the line)"
    );
    // A fresh connection is unaffected.
    let (mut r2, mut s2) = raw_wire(&server);
    send_line(&mut s2, b"{\"op\":\"health\"}");
    assert_eq!(read_reply(&mut r2).expect("fresh connection").bool_field("ok"), Some(true));
    server.shutdown();
}

#[test]
fn request_budget_exhaustion_asks_the_client_to_reconnect() {
    let cache = Arc::new(ResultCache::in_memory(16));
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        pool: PoolConfig { workers: 1, queue_cap: 8, retry_after_ms: 10 },
        request_budget: 2,
        ..ServerConfig::default()
    };
    let mut server = Server::start(cfg, Executor::new(), cache).expect("bind");
    let (mut reader, mut stream) = raw_wire(&server);
    for _ in 0..2 {
        send_line(&mut stream, b"{\"op\":\"health\"}");
        assert_eq!(read_reply(&mut reader).expect("within budget").bool_field("ok"), Some(true));
    }
    send_line(&mut stream, b"{\"op\":\"health\"}");
    let reply = read_reply(&mut reader).expect("typed budget refusal");
    assert_eq!(reply.str_field("error"), Some("budget_exhausted"), "{}", reply.render());
    assert!(read_reply(&mut reader).is_none(), "connection must close once the budget is spent");
    // Reconnecting resets the budget.
    let (mut r2, mut s2) = raw_wire(&server);
    send_line(&mut s2, b"{\"op\":\"health\"}");
    assert_eq!(read_reply(&mut r2).expect("fresh budget").bool_field("ok"), Some(true));
    server.shutdown();
}

/// One daemon shared by all proptest cases (starting a daemon per case
/// would dominate the runtime); it lives for the whole test process.
fn abuse_daemon_addr() -> &'static str {
    static ABUSE_DAEMON: OnceLock<String> = OnceLock::new();
    ABUSE_DAEMON.get_or_init(|| {
        let cache = Arc::new(ResultCache::in_memory(16));
        let server = start_server(
            Executor::new(),
            cache,
            PoolConfig { workers: 1, queue_cap: 8, retry_after_ms: 10 },
        );
        let addr = server.addr().to_string();
        std::mem::forget(server);
        addr
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Arbitrary garbage frames (anything but a frame separator) must get
    // a typed error without killing the handler — and the same connection
    // must still serve a well-formed request afterwards.
    #[test]
    fn random_garbage_frames_never_break_the_daemon(
        raw in prop::collection::vec(any::<u8>(), 1..512),
    ) {
        // A newline would split the garbage into frames; keep it one.
        let garbage: Vec<u8> = raw.iter().map(|&b| if b == b'\n' { b'.' } else { b }).collect();
        let mut stream = TcpStream::connect(abuse_daemon_addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        stream.write_all(&garbage).expect("write garbage");
        stream.write_all(b"\n").expect("write newline");
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("reply");
        prop_assert!(n > 0, "daemon hung up on a small malformed frame");
        let reply = Json::parse(line.trim_end()).expect("replies are JSON");
        prop_assert_eq!(reply.bool_field("ok"), Some(false), "{}", reply.render());
        stream.write_all(b"{\"op\":\"health\"}\n").expect("write health");
        line.clear();
        reader.read_line(&mut line).expect("health reply");
        let reply = Json::parse(line.trim_end()).expect("health is JSON");
        prop_assert_eq!(reply.bool_field("ok"), Some(true), "{}", reply.render());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Every generated spec's canonical form must be a fixed point:
    // parse(canonical) == spec, and re-canonicalizing changes nothing.
    // This is the property the content-addressed cache rests on.
    #[test]
    fn canonical_serialization_round_trips(
        kind in 0u8..4,
        n_pairs in 1usize..16,
        sea in 0u64..5,
        range_m in 1.0f64..1000.0,
        rotation in -90.0f64..90.0,
        trials in 1usize..500,
        bits in 1usize..4096,
        seed in any::<u64>(),
        lo in 0usize..100,
        span in 0usize..100,
        ranges in prop::collection::vec(1.0f64..2000.0, 1..8),
    ) {
        let system = if n_pairs % 3 == 0 {
            SystemSpec::Pab
        } else if n_pairs % 3 == 1 {
            SystemSpec::Vab { n_pairs }
        } else {
            SystemSpec::Conventional { n_elements: n_pairs * 2 }
        };
        let env = if sea == 0 { EnvSpec::River } else { EnvSpec::Ocean { sea_state: (sea - 1) as u8 } };
        let spec = match kind {
            0 => JobSpec::McPoint {
                system, env, range_m, rotation_deg: rotation, trials, bits, seed,
                engine: if seed.is_multiple_of(2) { EngineSpec::LinkBudget } else { EngineSpec::SampleLevel },
            },
            1 => JobSpec::CampaignSlice {
                system, n_trials: lo + span + 1, bits, seed, lo, hi: lo + span,
                fault_intensity: if seed.is_multiple_of(2) { None } else { Some(0.5) },
            },
            2 => JobSpec::LinkBudgetSweep { system, env, ranges_m: ranges },
            _ => JobSpec::Figure { name: format!("fig_{}", seed % 30), trials, bits, seed },
        };
        let canon = spec.canonical();
        let back = JobSpec::from_json(&Json::parse(&canon).expect("canonical parses"))
            .expect("canonical deserializes");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.canonical(), canon);
        prop_assert_eq!(back.digest(), spec.digest());
    }
}
