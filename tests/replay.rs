//! Replay-substrate integration tests: bank digest stability, FR1 figure
//! determinism across worker counts and its quick-CSV golden, cache-served
//! bank builds through the daemon (including across a daemon restart), and
//! the BENCH-gated overlap-save speedup and replay speed targets.

use std::path::PathBuf;
use std::sync::Arc;

use vab::svc::cache::ResultCache;
use vab::svc::client::Client;
use vab::svc::exec::Executor;
use vab::svc::job::{EnvSpec, JobSpec};
use vab::svc::pool::PoolConfig;
use vab::svc::server::{Server, ServerConfig};
use vab_bench::experiments::{self, ExpConfig};
use vab_replay::{BankSpec, BankStore, WaterSpec, ENGINE_VERSION};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vab-replay-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn river_spec() -> BankSpec {
    BankSpec {
        water: WaterSpec::River,
        range_m: 300.0,
        carrier_hz: 18_500.0,
        fs: 1600.0,
        n_snapshots: 4,
        span_s: 2.0,
        seed: 2023,
    }
}

#[test]
fn bank_digest_is_stable_across_runs_and_sensitive_to_the_spec() {
    let store = BankStore::new("unused-dir", ENGINE_VERSION);
    let spec = river_spec();
    // The content address is a pure function of (canonical spec, engine
    // version): any change to the canonical encoding is a breaking format
    // change and must show up here.
    assert_eq!(store.id_for(&spec), "e14989b3380dcd69");
    assert_eq!(store.id_for(&spec), store.id_for(&spec.clone()));
    // Every spec field re-addresses the bank.
    let mut reseeded = spec.clone();
    reseeded.seed = 2024;
    assert_ne!(store.id_for(&reseeded), store.id_for(&spec));
    let mut moved = spec.clone();
    moved.range_m = 301.0;
    assert_ne!(store.id_for(&moved), store.id_for(&spec));
    // An engine bump orphans every old bank.
    let next = BankStore::new("unused-dir", "vab-engine/next");
    assert_ne!(next.id_for(&spec), store.id_for(&spec));
}

#[test]
fn fr1_physics_is_bit_identical_across_worker_counts() {
    let cfg = ExpConfig { trials: 10, bits: 128, seed: 7 };
    vab_util::threads::set_jobs(1);
    let serial = experiments::fr1_replay_validation(&cfg).to_csv();
    vab_util::threads::set_jobs(8);
    let parallel = experiments::fr1_replay_validation(&cfg).to_csv();
    vab_util::threads::set_jobs(0);
    assert_eq!(serial, parallel, "FR1 physics must not depend on the worker count");
}

/// FR1 quick CSV: the synthetic and replayed BER per range, pinned like
/// the FN2/FN3 goldens.
#[test]
fn fr1_quick_csv_matches_the_golden() {
    let csv = experiments::fr1_replay_validation(&ExpConfig::quick()).to_csv();
    let golden = include_str!("fixtures/fr1_quick_golden.csv");
    assert_eq!(csv, golden, "FR1 quick CSV drifted from the golden fixture");
}

fn start_server(executor: Executor, cache: Arc<ResultCache>) -> Server {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        pool: PoolConfig { workers: 2, ..PoolConfig::default() },
        ..ServerConfig::default()
    };
    Server::start(cfg, executor, cache).expect("bind localhost")
}

/// Submits one job and waits for the terminal response; returns
/// (result payload, served-from-cache).
fn run_job(client: &mut Client, job: &JobSpec) -> (String, bool) {
    let resp = client.submit_with_retry(job, None, 500).expect("submit");
    let at_submit =
        resp.str_field("status") == Some("done") && resp.bool_field("cached") == Some(true);
    let id = resp.str_field("id").expect("id").to_string();
    let resp = loop {
        let r = client.fetch_wait(&id, 30_000).expect("fetch");
        match r.str_field("status") {
            Some("queued") | Some("running") => continue,
            _ => break r,
        }
    };
    assert_eq!(resp.str_field("status"), Some("done"), "job {id}: {}", resp.render());
    let payload = resp.get("result").expect("result").render();
    (payload, at_submit || resp.bool_field("cached") == Some(true))
}

#[test]
fn second_bank_build_is_cache_served_and_survives_a_daemon_restart() {
    let dir = temp_dir("bank-daemon");
    let cache_dir = dir.join("cache");
    let bank_dir = dir.join("banks");
    let job = JobSpec::ReplayBank {
        env: EnvSpec::River,
        range_m: 120.0,
        carrier_hz: 18_500.0,
        fs: 1600.0,
        n_snapshots: 2,
        span_s: 1.0,
        seed: 5,
    };

    // First daemon: the bank is built and lands in both tiers (result
    // cache + bank store).
    let first = {
        let cache = Arc::new(ResultCache::persistent(16, &cache_dir).expect("cache dir"));
        let mut server = start_server(Executor::new().with_bank_dir(&bank_dir), cache);
        let mut client = Client::connect(&server.addr().to_string()).expect("connect");
        let (payload, cached) = run_job(&mut client, &job);
        assert!(!cached, "first build must compute");
        let (again, cached_again) = run_job(&mut client, &job);
        assert!(cached_again, "second build through the live daemon must be a cache hit");
        assert_eq!(payload, again, "cached payload must be byte-identical");
        server.shutdown();
        payload
    };

    // Restarted daemon over the same directories: still served without
    // recomputation, byte-identical.
    {
        let cache = Arc::new(ResultCache::persistent(16, &cache_dir).expect("reopen cache"));
        let mut server = start_server(Executor::new().with_bank_dir(&bank_dir), cache);
        let mut client = Client::connect(&server.addr().to_string()).expect("connect");
        let (payload, cached) = run_job(&mut client, &job);
        assert!(cached, "restarted daemon must serve the bank from the persistent cache");
        assert_eq!(payload, first);
        server.shutdown();
    }

    // Even with the result cache wiped, the content-addressed bank store
    // re-serves the same bank: the payload cannot drift.
    {
        let _ = std::fs::remove_dir_all(&cache_dir);
        let cache = Arc::new(ResultCache::persistent(16, &cache_dir).expect("fresh cache"));
        let mut server = start_server(Executor::new().with_bank_dir(&bank_dir), cache);
        let mut client = Client::connect(&server.addr().to_string()).expect("connect");
        let (payload, cached) = run_job(&mut client, &job);
        assert!(!cached, "result cache was wiped, so the job itself recomputes");
        assert_eq!(payload, first, "but the bank comes from the store, so bytes cannot change");
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The BENCH acceptance target: overlap-save beats direct FIR by ≥ 5× at
/// 1,024 and at 4,096 taps on a one-second 48 kHz waveform. Steady-state
/// (plan reuse), best-of-three to shake scheduler noise. Gated behind
/// `VAB_BENCH=1` because wall-clock assertions have no place in the
/// default suite.
#[test]
fn overlap_save_meets_the_bench_speedup_target() {
    if std::env::var("VAB_BENCH").is_err() {
        eprintln!("skipped: set VAB_BENCH=1 to run the speedup gate");
        return;
    }
    use std::time::Instant;
    use vab::util::complex::C64;
    let x: Vec<f64> = (0..48_000).map(|i| (i as f64 * 0.013).sin()).collect();
    let best = |f: &mut dyn FnMut()| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    for taps in [1024usize, 4096] {
        let h: Vec<f64> = (0..taps).map(|i| (i as f64 * 0.37).cos() / taps as f64).collect();
        let hc: Vec<C64> = h.iter().map(|&t| C64::real(t)).collect();
        let mut plan = vab::util::ola::OlaPlan::new(&hc);
        let mut out = Vec::new();
        plan.convolve_real_into(&x, &mut out); // warm: plan cache + buffers
        let direct = best(&mut || {
            assert!(vab::util::filter::convolve(&x, &h).len() > x.len());
        });
        let fft = best(&mut || {
            plan.convolve_real_into(&x, &mut out);
            assert!(out.len() > x.len());
        });
        let speedup = direct / fft.max(1e-12);
        eprintln!(
            "overlap-save speedup at {taps} taps: {speedup:.1}x (direct {direct:.4}s, fft {fft:.4}s)"
        );
        assert!(speedup >= 5.0, "need >=5x at {taps} taps, measured {speedup:.1}x");
    }
}

/// The replay speed gate: a 12 s waveform replayed through a 1 s,
/// 8-snapshot bank costs at most 2× replaying it through that bank's last
/// snapshot as a static bank (best of three each). Past the last snapshot
/// the taps are constant, so the long tail must convolve as one segment,
/// not retune per sample. Replay starts half-way into the bank, the mean
/// of the uniform start offset a Monte Carlo trial draws. A ratio, so it
/// holds on any machine; gated behind `VAB_BENCH=1` like the other
/// wall-clock gates.
#[test]
fn replay_past_the_bank_meets_the_bench_speed_target() {
    if std::env::var("VAB_BENCH").is_err() {
        eprintln!("skipped: set VAB_BENCH=1 to run the replay speed gate");
        return;
    }
    use std::time::Instant;
    use vab::util::complex::C64;
    use vab_replay::ReplayChannel;
    let spec = BankSpec { n_snapshots: 8, span_s: 1.0, ..river_spec() };
    let bank = vab_replay::generate(&spec).expect("valid bank spec");
    let x: Vec<C64> = (0..(12.0 * spec.fs) as usize).map(|i| C64::cis(i as f64 * 0.37)).collect();
    let mut live = bank.one_way_channel(0.5);
    let last = bank.one_way.last().expect("snapshots").clone();
    let mut frozen = ReplayChannel::new(&[last], 0.0, spec.fs, 0.0);
    let best = |ch: &mut ReplayChannel| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                assert!(ch.apply(&x).len() > x.len());
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let (live_s, frozen_s) = (best(&mut live), best(&mut frozen));
    let ratio = live_s / frozen_s.max(1e-12);
    eprintln!(
        "replay through an 8-snapshot bank: {ratio:.2}x the static bank \
         ({:.3} ms vs {:.3} ms, {} taps)",
        live_s * 1e3,
        frozen_s * 1e3,
        bank.one_way[0].len()
    );
    assert!(ratio <= 2.0, "need <= 2x the static bank, measured {ratio:.2}x");
}
