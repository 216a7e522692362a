//! # vab-svc — simulation-as-a-service for the VAB evaluation fleet
//!
//! Every consumer of the simulator used to re-run physics from scratch in
//! its own process. This crate gives the workspace a *request path*: a
//! typed job model, a content-addressed result cache, a bounded worker
//! pool with admission control, and a newline-delimited-JSON wire
//! protocol over localhost TCP — the serving shapes (batching, caching,
//! backpressure, worker isolation) that the ROADMAP's
//! "heavy traffic from millions of users" north star needs.
//!
//! ## The layers
//!
//! 1. **Jobs** ([`job`]): Monte Carlo points, campaign slices,
//!    link-budget sweeps, figure runs and spatial network deployments
//!    (`vab-net` topologies), each with a *canonical* JSON serialization
//!    (via `vab_util::json`) so structurally identical requests always
//!    serialize to identical bytes.
//! 2. **Cache** ([`cache`]): FNV-1a digest of `canonical spec + engine
//!    version` → result payload, held in an in-memory LRU backed by a
//!    persistent `results/cache/` tier. Identical jobs are served without
//!    recomputation; near-identical link-budget sweeps share per-point
//!    entries.
//! 3. **Pool** ([`pool`]): std-thread workers over a bounded queue.
//!    Submissions beyond the queue bound are rejected with a
//!    retry-after hint instead of buffered without limit; queued jobs can
//!    carry deadlines; worker panics (including `vab_fault`-injected
//!    ones) are caught per job and surface as typed failures, building on
//!    the `MonteCarloError::WorkerPanicked` contract.
//! 4. **Wire** ([`wire`], [`server`], [`client`]): one JSON request per
//!    line, one JSON response per line, over localhost TCP. The
//!    `vab-svcd` daemon and `vab-svc` client binaries (in `vab-bench`,
//!    where the figure registry lives) speak it; so can `nc`.
//! 5. **Telemetry** ([`telemetry`]): every hop of a job's life — client
//!    submit, server handle, cache lookup, queue wait, execute, cache
//!    persist — runs under a `vab_obs::TraceContext` span whose identity
//!    is content-derived (digest-keyed, worker-count independent), and
//!    the daemon keeps a ring of live metrics samples served over the
//!    `metrics`/`watch` wire ops for `vab-obsctl tail` and the SLO gate.
//!
//! ## Determinism
//!
//! Job seeds derive exactly as the Monte Carlo shards do
//! (`derive_seed(master, index)`), so a cached response and a freshly
//! computed one are byte-identical, and a campaign slice served by the
//! pool matches the same trial ids inside a monolithic run bit for bit.
//! Bumping [`ENGINE_VERSION`] invalidates every cached entry at once.

pub mod cache;
pub mod client;
pub mod exec;
pub mod job;
pub mod pool;
pub mod server;
pub mod telemetry;
pub mod wire;

pub use cache::ResultCache;
pub use client::Client;
pub use exec::{Executor, FigureRunner};
pub use job::JobSpec;
pub use pool::{JobError, JobStatus, PoolConfig, SubmitError, SubmitOutcome, WorkerPool};
pub use server::{Server, ServerConfig};

/// Version tag folded into every cache digest. Bump whenever a physics or
/// payload-format change makes previously cached results stale.
pub const ENGINE_VERSION: &str = "vab-engine/1";

/// Schema tag embedded in native (non-figure) result payloads.
pub const RESULT_SCHEMA: &str = "vab-svc-result/1";
