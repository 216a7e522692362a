//! End-to-end distributed tracing and live telemetry for the service
//! layer: one job's life must reconstruct as a single span tree (client
//! submit → server handle → cache lookup → queue wait → execute → cache
//! persist) with **content-derived identity** — the span set produced by
//! a fixed workload is bit-identical at any worker count — and the
//! daemon's `metrics`/`watch` wire ops must serve live telemetry
//! samples. Also pins the control-op fault-identity fix: `stats`
//! requests each draw their own wire fate, so a chaos plan can never
//! livelock the whole control plane on one shared key.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use vab::fault::{SvcFaultConfig, SvcFaultPlan};
use vab::obs::sink::JsonlSink;
use vab::obs::TraceContext;
use vab::svc::cache::ResultCache;
use vab::svc::client::Client;
use vab::svc::exec::Executor;
use vab::svc::job::{EngineSpec, EnvSpec, JobSpec, SystemSpec};
use vab::svc::pool::PoolConfig;
use vab::svc::server::{Server, ServerConfig};
use vab_obsctl::trace::Trace;
use vab_obsctl::waterfall::Waterfall;

/// The obs sink and registry are process-global; tests in this binary
/// run on parallel threads, so every traced test takes this lock and
/// leaves obs disabled on exit.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn mc(seed: u64) -> JobSpec {
    JobSpec::McPoint {
        system: SystemSpec::Vab { n_pairs: 4 },
        env: EnvSpec::River,
        range_m: 40.0,
        rotation_deg: 0.0,
        trials: 4,
        bits: 64,
        seed,
        engine: EngineSpec::LinkBudget,
    }
}

fn start_server(workers: usize, telemetry_ms: u64) -> Server {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        pool: PoolConfig { workers, queue_cap: 64, retry_after_ms: 25 },
        telemetry_interval_ms: telemetry_ms,
        ..ServerConfig::default()
    };
    Server::start(cfg, Executor::new(), Arc::new(ResultCache::in_memory(64)))
        .expect("bind localhost")
}

/// Runs `jobs` through a fresh traced daemon with `workers` workers;
/// returns the JSONL trace path. The caller holds the obs lock.
fn run_traced(tag: &str, workers: usize, jobs: &[JobSpec]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vab-tracing-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("{tag}.jsonl"));
    vab::obs::metrics::reset();
    vab::obs::install(Arc::new(JsonlSink::create(&path).expect("sink")));
    let mut server = start_server(workers, 0);
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    for job in jobs {
        let resp = client.submit(job, None).expect("submit");
        let id = resp.str_field("id").expect("id").to_string();
        loop {
            let r = client.fetch_wait(&id, 30_000).expect("fetch");
            match r.str_field("status") {
                Some("queued") | Some("running") => continue,
                Some("done") => break,
                other => panic!("job {id} ended as {other:?}"),
            }
        }
    }
    server.shutdown();
    vab::obs::flush();
    vab::obs::disable();
    vab::obs::metrics::reset();
    path
}

#[test]
fn span_set_is_bit_identical_across_worker_counts() {
    let _g = obs_lock();
    vab::obs::disable();
    let jobs: Vec<JobSpec> = [11, 22, 33].iter().map(|&s| mc(s)).collect();
    let one = run_traced("workers-1", 1, &jobs);
    let eight = run_traced("workers-8", 8, &jobs);
    let trace_1 = Trace::load(&one).expect("trace 1");
    let trace_8 = Trace::load(&eight).expect("trace 8");
    for job in &jobs {
        let digest = job.digest();
        let set_1 = Waterfall::from_trace(&trace_1, digest).canonical_set();
        let set_8 = Waterfall::from_trace(&trace_8, digest).canonical_set();
        assert!(!set_1.is_empty(), "job {digest:016x} produced no spans");
        assert_eq!(set_1, set_8, "span set for job {digest:016x} must not depend on worker count");
        for name in [
            "svc.submit",
            "svc.handle",
            "svc.cache_lookup",
            "svc.queue_wait",
            "svc.job_execute",
            "svc.cache_persist",
        ] {
            assert!(
                set_1.iter().any(|l| l.starts_with(&format!("{name} "))),
                "job {digest:016x} lacks a {name} span: {set_1:?}"
            );
        }
    }
}

#[test]
fn waterfall_reconstructs_one_job_as_a_single_tree() {
    let _g = obs_lock();
    vab::obs::disable();
    let job = mc(77);
    let digest = job.digest();
    let path = run_traced("waterfall", 2, std::slice::from_ref(&job));

    // Split the capture into a "client file" and a "daemon file" the way
    // two processes would have written them, then merge — the exact
    // `vab-obsctl trace` flow.
    let text = std::fs::read_to_string(&path).expect("read trace");
    let (client_lines, daemon_lines): (Vec<&str>, Vec<&str>) =
        text.lines().partition(|l| l.contains("\"target\":\"svc.client\""));
    let merged = Trace::merge([
        ("client", Trace::parse(&client_lines.join("\n"))),
        ("daemon", Trace::parse(&daemon_lines.join("\n"))),
    ]);
    let w = Waterfall::from_trace(&merged, digest);

    // The tree matches the derived identities exactly: submit roots it
    // (its parent is the never-emitted anchor), handle sits under
    // submit, the three admission/executor spans under handle, persist
    // under execute.
    let submit = TraceContext::root(digest, "job").child("svc.submit", 0);
    let handle = submit.child("svc.handle", 0);
    let execute = handle.child("svc.job_execute", 0);
    assert_eq!(w.roots(), vec![submit.span_id], "submit must root the tree");
    assert_eq!(w.children_of(submit.span_id), vec![handle.span_id]);
    let mut expected = vec![
        handle.child("svc.cache_lookup", 0).span_id,
        execute.span_id,
        handle.child("svc.queue_wait", 0).span_id,
    ];
    expected.sort_unstable_by_key(|id| {
        // children_of sorts by (name, id); rebuild that order here.
        w.spans.get(id).map(|s| (s.name.clone(), *id)).expect("span present")
    });
    assert_eq!(w.children_of(handle.span_id), expected);
    assert_eq!(w.children_of(execute.span_id), vec![execute.child("svc.cache_persist", 0).span_id]);
    assert_eq!(w.spans.len(), 6, "exactly one tree, no strays: {:?}", w.canonical_set());

    // Cross-process bookkeeping: the submit span came from the "client"
    // file, everything else from the "daemon" file.
    assert_eq!(w.spans[&submit.span_id].sources, vec!["client".to_string()]);
    assert_eq!(w.spans[&execute.span_id].sources, vec!["daemon".to_string()]);

    // The critical path (duration-only, skew-immune) descends from submit
    // into the longest child, ties to the lower id. Which of handle's
    // three children is longest is the run's own timing (a 4-trial job can
    // execute faster than its queue wait), so the expected path comes from
    // the recorded durations.
    let dur = |id: u64| w.spans[&id].dur_us.expect("every span of a finished job is closed");
    let longest = |ids: &[u64]| {
        ids.iter().copied().max_by_key(|&id| (dur(id), std::cmp::Reverse(id))).expect("children")
    };
    let mut want = vec![submit.span_id, handle.span_id, longest(&expected)];
    if want[2] == execute.span_id {
        want.push(execute.child("svc.cache_persist", 0).span_id);
    }
    let critical = w.critical_path(submit.span_id);
    assert_eq!(
        critical,
        want,
        "durations: {:?}",
        want.iter().map(|&id| dur(id)).collect::<Vec<_>>()
    );
    let rendered = w.render();
    assert!(rendered.contains("svc.cache_persist"), "render: {rendered}");
}

#[test]
fn metrics_and_watch_ops_serve_live_samples() {
    // No tracing needed: telemetry pool/cache counters work with obs off.
    let mut server = start_server(2, 25);
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let resp = client.submit(&mc(5), None).expect("submit");
    let id = resp.str_field("id").expect("id").to_string();
    loop {
        let r = client.fetch_wait(&id, 30_000).expect("fetch");
        if r.str_field("status") == Some("done") {
            break;
        }
    }
    let sample = client.metrics().expect("metrics op").get("sample").cloned().expect("sample");
    assert_eq!(sample.str_field("schema"), Some("vab-svc-telemetry/1"));
    assert!(sample.u64_field("jobs_done").unwrap_or(0) >= 1, "sample: {}", sample.render());
    assert!(sample.get("cache").is_some());

    // The background sampler populates the ring; watch returns the
    // backlog with monotone ticks and a resumable `latest`.
    std::thread::sleep(Duration::from_millis(120));
    let watch = client.watch(0).expect("watch op");
    let latest = watch.u64_field("latest").expect("latest");
    let samples = watch.get("samples").and_then(|s| s.as_arr().map(|v| v.len())).unwrap_or(0);
    assert!(latest >= 1 && samples >= 1, "watch: {}", watch.render());
    let again = client.watch(latest).expect("watch since latest");
    let newer = again.get("samples").and_then(|s| s.as_arr().map(|v| v.len())).unwrap_or(0);
    assert!(
        newer <= samples,
        "watch since latest must only return fresh ticks ({newer} vs {samples})"
    );
    server.shutdown();
}

#[test]
fn control_ops_draw_per_request_fault_identities() {
    // A chaos plan aggressive enough that shared-identity control ops
    // would fate-share: with per-request identity, a run of stats
    // requests sees *both* clean deliveries and injected faults.
    let plan = SvcFaultPlan::new(5, SvcFaultConfig::with_intensity(0.9));
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        pool: PoolConfig { workers: 1, queue_cap: 8, retry_after_ms: 25 },
        faults: Some(plan),
        telemetry_interval_ms: 0,
        ..ServerConfig::default()
    };
    let mut server = Server::start(cfg, Executor::new(), Arc::new(ResultCache::in_memory(8)))
        .expect("bind localhost");
    let addr = server.addr().to_string();
    let mut ok = 0;
    let mut failed = 0;
    for _ in 0..40 {
        // Fresh connection per request: a faulted delivery (drop or
        // truncation) kills the connection, and that must never bleed
        // into the next request's fate.
        let mut client = Client::connect(&addr).expect("connect");
        match client.stats() {
            Ok(resp) => {
                assert_eq!(resp.bool_field("ok"), Some(true));
                ok += 1;
            }
            Err(_) => failed += 1,
        }
    }
    let totals = server.wire_fault_totals();
    assert!(
        ok > 0,
        "per-request identities must let some stats through (ok={ok}, failed={failed}, {totals:?})"
    );
    assert!(
        totals.drops + totals.truncates + totals.corrupts > 0,
        "the plan at intensity 0.9 must fault at least one control delivery"
    );
    // Health stays exempt no matter what.
    let mut client = Client::connect(&addr).expect("connect");
    for _ in 0..5 {
        assert!(client.health().is_ok(), "health probes must never be faulted");
    }
    server.shutdown();
}
