//! `daemon_batch`: the service layer under the traffic its documented
//! callers send, each as a closed-loop client of an in-process `Server`.
//!
//! Two callers run side by side, each doing its workflow once cold and
//! once again, which is how the repository drives a daemon (the CI
//! `svc-smoke` and `replay-smoke` jobs, README's service quickstart):
//!
//! * the **batch caller** is `vab-svc batch --quick` followed by the same
//!   batch again: it submits the three default figure jobs
//!   (`t3_link_budget`, `f6_snr_vs_range`, `f7_ber_vs_range` at
//!   `ExpConfig::quick()`), then fetches each until it is terminal;
//! * the **bank caller** is `vab-svc submit '<replay_bank>' --wait`
//!   followed by `--expect-cached`: one `ReplayBank` job, the spec
//!   EXPERIMENTS.md and CI submit.
//!
//! A cycle is both workflows: 8 jobs, 4 computed and 4 answered from the
//! completed job at submission, so the hit ratio is 0.5 and three jobs in
//! four are figures. Each cycle's figure and bank seed comes from
//! `derive_seed(seed, k)`, so every cold run computes.
//!
//! The daemon runs two pool workers over an in-memory `ResultCache` of 8192
//! entries. A cycle stores 4 entries, so the cache never fills within a run
//! and no cycle pays for evictions. The cache has no disk tier: the
//! benchmark may write only inside its checkout, and with the persistent
//! tier on that disk, throughput swung by almost a factor of two from run
//! to run. Bank files are written, as the daemon always writes them, under
//! `out/daemon-banks/`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vab_bench::serve::{bench_executor, figure_job};
use vab_bench::ExpConfig;
use vab_svc::client::ClientError;
use vab_svc::job::EnvSpec;
use vab_svc::{Client, Executor, JobSpec, PoolConfig, ResultCache, Server, ServerConfig};
use vab_util::hash::fnv1a64;
use vab_util::json::Json;
use vab_util::rng::derive_seed;

use crate::stats::{mean, median, percentile};
use crate::trace::{span, take_spans, SpanRec};
use crate::{Bench, CycleOut, THREADS};

/// The figures `vab-svc batch` submits when given none.
pub const BATCH_FIGURES: [&str; 3] = ["t3_link_budget", "f6_snr_vs_range", "f7_ber_vs_range"];
/// Jobs per cycle: each caller's jobs, cold and again.
pub const JOBS: usize = 2 * (BATCH_FIGURES.len() + 1);
/// Timed cycles whose computed jobs are re-executed directly after the run.
pub const SAMPLE_CYCLES: u64 = 3;
const CACHE_CAPACITY: usize = 8192;
const SUBMIT_ATTEMPTS: usize = 200;
/// Server-side wait per fetch; below the client's 30 s socket timeout.
const FETCH_WAIT_MS: u64 = 10_000;
const MAX_POLLS: u32 = 6;
const FIGURE_STREAM: u64 = 0xF16_0000;
const BANK_STREAM: u64 = 0xBA4C_0000;

/// One caller's work in a cycle: batches run one after the other, each
/// submitted whole and then fetched job by job.
type Workflow = Vec<Vec<JobSpec>>;

/// The two workflows of cycle `k`, batch caller first.
fn cycle_workflows(seed: u64, k: u64) -> [Workflow; 2] {
    let cycle_seed = derive_seed(seed, k);
    let cfg = ExpConfig { seed: derive_seed(cycle_seed, FIGURE_STREAM), ..ExpConfig::quick() };
    let figures: Vec<JobSpec> = BATCH_FIGURES.iter().map(|name| figure_job(name, &cfg)).collect();
    let bank = JobSpec::ReplayBank {
        env: EnvSpec::River,
        range_m: 120.0,
        carrier_hz: 18_500.0,
        fs: 1600.0,
        n_snapshots: 2,
        span_s: 1.0,
        seed: derive_seed(cycle_seed, BANK_STREAM),
    };
    [vec![figures.clone(), figures], vec![vec![bank.clone()], vec![bank]]]
}

/// What a client saw of one job.
#[derive(Debug, Default)]
struct Outcome {
    /// Submit to terminal fetch, ms.
    ms: f64,
    /// Answered `done` at submission (served without computing).
    hit: bool,
    /// Ended `done`.
    done: bool,
    /// The rendered result payload.
    result: Option<String>,
    fetch_polls: u32,
    queue_full: u32,
}

fn is_terminal(v: &Json) -> bool {
    matches!(v.str_field("status"), Some("done") | Some("failed"))
}

/// Submits one job. Traced, the same calls run under spans and the retry
/// loop of `submit_with_retry` is spelled out so queue-full answers can be
/// counted.
fn submit(
    client: &mut Client,
    spec: &JobSpec,
    trace_id: Option<u64>,
    out: &mut Outcome,
) -> Result<Json, ClientError> {
    let Some(id) = trace_id else { return client.submit_with_retry(spec, None, SUBMIT_ATTEMPTS) };
    let mut attempt = 0u32;
    loop {
        let r = span("svc.submit", id, || client.submit_attempt(spec, None, attempt));
        attempt += 1;
        match r {
            Err(ClientError::QueueFull { retry_after_ms })
                if (attempt as usize) < SUBMIT_ATTEMPTS =>
            {
                out.queue_full += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms));
            }
            other => break other,
        }
    }
}

/// Fetches one submitted job until it is terminal.
fn fetch(client: &mut Client, id: &str, trace_id: Option<u64>, out: &mut Outcome, since: Instant) {
    while out.fetch_polls < MAX_POLLS {
        out.fetch_polls += 1;
        let fetched = match trace_id {
            None => client.fetch_wait(id, FETCH_WAIT_MS),
            Some(t) => span("svc.fetch", t, || client.fetch_wait(id, FETCH_WAIT_MS)),
        };
        match fetched {
            Ok(f) if is_terminal(&f) => {
                out.ms = since.elapsed().as_secs_f64() * 1e3;
                out.done = f.str_field("status") == Some("done");
                out.result = f.get("result").map(Json::render);
                return;
            }
            Ok(_) => {}
            Err(_) => return,
        }
    }
}

/// Runs one batch as `vab-svc batch` does: submits every job, then fetches
/// each in order. Job `j` of the batch traces under `trace_base + j`.
fn run_batch(client: &mut Client, jobs: &[JobSpec], trace_base: Option<u64>) -> Vec<Outcome> {
    let trace_id = |j: usize| trace_base.map(|b| b + j as u64);
    let mut submitted = Vec::with_capacity(jobs.len());
    for (j, spec) in jobs.iter().enumerate() {
        let mut out = Outcome::default();
        let started = Instant::now();
        let id = match submit(client, spec, trace_id(j), &mut out) {
            Ok(resp) => {
                out.hit = resp.str_field("status") == Some("done");
                resp.str_field("id").map(str::to_string)
            }
            Err(_) => None,
        };
        submitted.push((out, id, started));
    }
    submitted
        .into_iter()
        .enumerate()
        .map(|(j, (mut out, id, started))| {
            if let Some(id) = id {
                fetch(client, &id, trace_id(j), &mut out, started);
            }
            out
        })
        .collect()
}

/// A running daemon and one connected client per caller.
struct Daemon {
    server: Server,
    clients: Vec<Client>,
}

impl Daemon {
    fn start(bank_dir: PathBuf) -> Result<Daemon, String> {
        let cache = ResultCache::in_memory(CACHE_CAPACITY);
        let cfg = ServerConfig {
            pool: PoolConfig { workers: THREADS, ..PoolConfig::default() },
            ..ServerConfig::default()
        };
        let server = Server::start(cfg, bench_executor().with_bank_dir(bank_dir), Arc::new(cache))
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let addr = server.addr().to_string();
        let mut daemon = Daemon { server, clients: Vec::new() };
        for _ in 0..2 {
            let client = Client::connect(&addr).map_err(|e| format!("cannot connect: {e}"))?;
            daemon.clients.push(client);
        }
        Ok(daemon)
    }

    /// Runs each workflow on its own client, all at once. Returns the
    /// outcomes in workflow order and, when traced, each batch's spans
    /// (job `i` of the cycle under trace id `trace_base + i`) and the
    /// clients' summed busy time, ns.
    fn run(
        &mut self,
        workflows: &[Workflow; 2],
        trace_base: Option<u64>,
    ) -> (Vec<Outcome>, Vec<SpanRec>, u64) {
        type PerClient = (Vec<Outcome>, Vec<SpanRec>, u64);
        let per_client: Vec<PerClient> = std::thread::scope(|scope| {
            let mut first_job = 0;
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(workflows)
                .map(|(client, batches)| {
                    let first = first_job;
                    first_job += batches.iter().map(Vec::len).sum::<usize>();
                    scope.spawn(move || {
                        let born = Instant::now();
                        let mut mine = Vec::new();
                        for batch in batches {
                            let base = trace_base.map(|b| b + (first + mine.len()) as u64);
                            let outcomes = match base {
                                None => run_batch(client, batch, None),
                                Some(id) => {
                                    span("svc.batch", id, || run_batch(client, batch, base))
                                }
                            };
                            if outcomes.iter().any(|o| o.result.is_none()) {
                                // A broken connection would fail every
                                // later job on this client.
                                let _ = client.reconnect();
                            }
                            mine.extend(outcomes);
                        }
                        (mine, take_spans(), born.elapsed().as_nanos() as u64)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let (mut outcomes, mut spans, mut busy_ns) = (Vec::new(), Vec::new(), 0);
        for (mine, s, busy) in per_client {
            outcomes.extend(mine);
            spans.extend(s);
            busy_ns += busy;
        }
        (outcomes, spans, busy_ns)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.clients.clear();
        self.server.shutdown();
    }
}

/// The `daemon_batch` workload, set up.
pub struct DaemonBench {
    seed: u64,
    /// Serves untraced cycles.
    plain: Daemon,
    /// Trace mode only: a second daemon, with its own bank directory,
    /// serves the traced replay of each cycle so that it meets the same
    /// cold jobs.
    traced: Option<Daemon>,
    /// Where the direct `Executor::execute` check writes its banks.
    direct_banks: PathBuf,
    /// Computed specs with the payload the daemon returned, for the direct
    /// `Executor::execute` check.
    sample: Vec<(JobSpec, String)>,
    problems: Vec<String>,
    exec_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    traced_jobs: u64,
    fetch_polls: u64,
    queue_full: u64,
}

impl DaemonBench {
    /// Starts the daemon(s) on empty bank directories.
    pub fn new(seed: u64, traced: bool) -> Result<DaemonBench, String> {
        let banks = crate::out_dir().join("daemon-banks");
        match std::fs::remove_dir_all(&banks) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("cannot clear {}: {e}", banks.display()));
            }
            _ => {}
        }
        let plain = Daemon::start(banks.join("plain"))?;
        let traced = if traced {
            let mut d = Daemon::start(banks.join("traced"))?;
            // Warm the second daemon as cycle 0 warms the first.
            d.run(&cycle_workflows(seed, 0), None);
            Some(d)
        } else {
            None
        };
        Ok(DaemonBench {
            seed,
            plain,
            traced,
            direct_banks: banks.join("direct"),
            sample: Vec::new(),
            problems: Vec::new(),
            exec_ms: Vec::new(),
            hit_ms: Vec::new(),
            miss_ms: Vec::new(),
            traced_jobs: 0,
            fetch_polls: 0,
            queue_full: 0,
        })
    }

    fn problem(&mut self, p: String) {
        if self.problems.len() < 8 {
            self.problems.push(p);
        }
    }
}

impl Bench for DaemonBench {
    fn cycle(&mut self, k: u64, traced: bool) -> CycleOut {
        let workflows = cycle_workflows(self.seed, k);
        let daemon = match (traced, self.traced.as_mut()) {
            (true, Some(d)) => d,
            (true, None) => panic!("a traced cycle needs the trace-mode daemon"),
            (false, _) => &mut self.plain,
        };
        let (outcomes, spans, busy_ns) = daemon.run(&workflows, traced.then_some(k << 32));
        let jobs: Vec<&JobSpec> = workflows.iter().flatten().flatten().collect();
        let mut out = CycleOut { spans, busy_ns, ..Default::default() };
        let mut bytes = Vec::with_capacity(outcomes.len() * 8);
        let mut computed: HashMap<u64, &str> = HashMap::new();
        let mut hits = 0u64;
        for (spec, o) in jobs.iter().zip(&outcomes) {
            out.op_ms.push(o.ms);
            let payload_digest = o.result.as_deref().map_or(u64::MAX, |r| fnv1a64(r.as_bytes()));
            bytes.extend(payload_digest.to_le_bytes());
            if !o.done {
                out.failed += 1;
                continue;
            }
            out.units += 1;
            let result = o.result.as_deref().unwrap_or_default();
            if o.hit {
                hits += 1;
                // Each workflow runs its cold batch first.
                if computed.get(&spec.digest()) != Some(&result) {
                    self.problem(format!(
                        "re-run of {} differs from the payload its cold run stored",
                        spec.label()
                    ));
                }
            } else {
                computed.insert(spec.digest(), result);
                if !traced && (1..=SAMPLE_CYCLES).contains(&k) {
                    self.sample.push(((*spec).clone(), result.to_string()));
                }
            }
            if traced {
                if o.hit { &mut self.hit_ms } else { &mut self.miss_ms }.push(o.ms);
            }
        }
        if traced {
            self.traced_jobs += outcomes.len() as u64;
            self.fetch_polls += outcomes.iter().map(|o| u64::from(o.fetch_polls)).sum::<u64>();
            self.queue_full += outcomes.iter().map(|o| u64::from(o.queue_full)).sum::<u64>();
        }
        out.digest = fnv1a64(&bytes);
        out.summary = Json::obj([
            ("done", Json::Num(out.units as f64)),
            ("hits", Json::Num(hits as f64)),
            ("payloads_fnv1a64", Json::Str(format!("{:016x}", out.digest))),
        ]);
        out
    }

    fn check_warmup(&self, warmup: &CycleOut) -> Vec<String> {
        let done = warmup.summary.u64_field("done");
        let hits = warmup.summary.u64_field("hits");
        if done == Some(JOBS as u64) && hits == Some(JOBS as u64 / 2) {
            Vec::new()
        } else {
            vec![format!("warm-up cycle: {done:?} jobs done, {hits:?} hits")]
        }
    }

    fn finish(&mut self) -> Vec<String> {
        let executor: Executor = bench_executor().with_bank_dir(&self.direct_banks);
        for (spec, served) in std::mem::take(&mut self.sample) {
            let started = Instant::now();
            let direct = executor.execute(&spec, spec.digest(), &ResultCache::in_memory(64));
            self.exec_ms.push(started.elapsed().as_secs_f64() * 1e3);
            // The wire sends a payload as JSON when it parses, else as a
            // string (figures are CSV text).
            let direct = direct.map(|p| Json::parse(&p).unwrap_or(Json::Str(p)).render());
            if !matches!(&direct, Ok(p) if *p == served) {
                self.problem(format!(
                    "{} served a payload a direct execute does not give",
                    spec.label()
                ));
            }
        }
        std::mem::take(&mut self.problems)
    }

    fn layer_metrics(&self, _spans: &[SpanRec]) -> Vec<(&'static str, f64)> {
        let p = |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { percentile(v, q) };
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        let per_job = |n: u64| n as f64 / self.traced_jobs.max(1) as f64;
        vec![
            ("svc.hit.latency_p50_ms", med(&self.hit_ms)),
            ("svc.hit.latency_p99_ms", p(&self.hit_ms, 99.0)),
            ("svc.miss.latency_p50_ms", med(&self.miss_ms)),
            ("svc.miss.latency_p99_ms", p(&self.miss_ms, 99.0)),
            ("svc.miss.wait_ms", mean(&self.miss_ms) - mean(&self.exec_ms)),
            ("svc.execute.ms", mean(&self.exec_ms)),
            ("svc.cache_hit_ratio", per_job(self.hit_ms.len() as u64)),
            ("svc.queue_full_per_job", per_job(self.queue_full)),
            ("svc.fetch_polls_per_job", per_job(self.fetch_polls)),
        ]
    }
}
