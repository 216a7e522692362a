//! The live side of `vab-obsctl`: talking to a running `vab-svcd` over
//! its NDJSON wire (`metrics` / `watch` ops) and checking telemetry
//! samples against a declarative SLO spec.
//!
//! The wire client here is deliberately tiny — one request line out, one
//! response line in over `std::net::TcpStream` — so `vab-obsctl` keeps
//! zero service-crate dependencies and works against anything that
//! speaks the protocol (including `nc`-driven fakes in tests).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use vab_util::json::Json;

/// Schema tag a `vab-slo/1` spec must carry.
pub const SLO_SCHEMA: &str = "vab-slo/1";

/// One NDJSON round-trip to `addr`: send `request` (one line), read one
/// response line, parse it. Sockets carry finite timeouts so a hung
/// daemon yields an error, never a wedged CLI.
pub fn query(addr: &str, request: &Json) -> Result<Json, String> {
    use std::net::ToSocketAddrs;
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("unresolvable address {addr:?}"))?;
    let stream = TcpStream::connect_timeout(&sock, Duration::from_secs(5))
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    stream.set_write_timeout(Some(Duration::from_secs(30))).ok();
    let mut line = request.render();
    line.push('\n');
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writer.write_all(line.as_bytes()).map_err(|e| format!("write to {addr}: {e}"))?;
    writer.flush().map_err(|e| e.to_string())?;
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .map_err(|e| format!("read from {addr}: {e}"))?;
    if response.trim().is_empty() {
        return Err(format!("{addr} closed the connection without answering"));
    }
    let v = Json::parse(response.trim_end()).map_err(|e| format!("bad response: {e}"))?;
    if v.bool_field("ok") == Some(false) {
        return Err(format!("daemon rejected: {}", v.str_field("error").unwrap_or("unspecified")));
    }
    Ok(v)
}

/// Fetches one telemetry sample (the `metrics` op).
pub fn fetch_sample(addr: &str) -> Result<Json, String> {
    let resp = query(addr, &Json::obj([("op", Json::Str("metrics".into()))]))?;
    resp.get("sample").cloned().ok_or_else(|| "metrics response carried no sample".into())
}

/// Fetches ring samples newer than `since` (the `watch` op). Returns
/// `(latest_tick, samples)`.
pub fn fetch_watch(addr: &str, since: u64) -> Result<(u64, Vec<Json>), String> {
    let resp = query(
        addr,
        &Json::obj([("op", Json::Str("watch".into())), ("since", Json::Num(since as f64))]),
    )?;
    let latest = resp.u64_field("latest").unwrap_or(0);
    let samples = resp
        .get("samples")
        .and_then(Json::as_arr)
        .map(|v| v.to_vec())
        .ok_or_else(|| "watch response carried no samples array".to_string())?;
    Ok((latest, samples))
}

fn stage_field(sample: &Json, stage: &str, field: &str) -> Option<f64> {
    sample.get("stages")?.get(stage)?.f64_field(field)
}

/// Renders one telemetry sample as a single `tail` line. When `prev` is
/// the preceding sample, cumulative counters become rates over the
/// inter-sample wall time.
pub fn render_sample(prev: Option<&Json>, s: &Json) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let tick = s.u64_field("tick").unwrap_or(0);
    let t_ms = s.f64_field("t_ms").unwrap_or(0.0);
    let done = s.f64_field("jobs_done").unwrap_or(0.0);
    let failed = s.f64_field("jobs_failed").unwrap_or(0.0);
    let _ = write!(
        out,
        "tick {tick:>5}  t {:>8.1}s  queue {:>3}  done {done:>6}  failed {failed:>4}",
        t_ms / 1e3,
        s.u64_field("queue_depth").unwrap_or(0),
    );
    if let Some(p) = prev {
        let dt_s = (t_ms - p.f64_field("t_ms").unwrap_or(t_ms)) / 1e3;
        // A daemon restart resets both the clock and the counters, so a
        // later sample can sit *behind* the previous one. Clamp the
        // delta (and a non-positive dt) to zero: `tail --follow` across
        // a restart shows 0.0/s, never a negative rate.
        if dt_s > 0.0 {
            let rate = (done - p.f64_field("jobs_done").unwrap_or(done)).max(0.0) / dt_s;
            let _ = write!(out, "  ({rate:.1}/s)");
        } else {
            let _ = write!(out, "  (0.0/s)");
        }
    }
    if let Some(cache) = s.get("cache") {
        let _ = write!(
            out,
            "  cache {:>5.1}% ({} hit / {} miss)",
            cache.f64_field("hit_rate").unwrap_or(0.0) * 100.0,
            cache.u64_field("hits").unwrap_or(0),
            cache.u64_field("misses").unwrap_or(0),
        );
    }
    if let Some(p50) = stage_field(s, "svc.job_execute", "p50_ms") {
        let _ = write!(
            out,
            "  exec p50/p95/p99 {:.1}/{:.1}/{:.1} ms",
            p50,
            stage_field(s, "svc.job_execute", "p95_ms").unwrap_or(f64::NAN),
            stage_field(s, "svc.job_execute", "p99_ms").unwrap_or(f64::NAN),
        );
    }
    // Allocation telemetry appears only when the daemon runs under
    // VAB_PROFILE=1. Same restart-clamp as the job rate.
    if let Some(alloc) = s.get("alloc") {
        let live = alloc.u64_field("live_bytes").unwrap_or(0);
        let _ = write!(out, "  live {}", crate::profile::human_bytes(live));
        if let Some(p) = prev {
            let dt_s = (t_ms - p.f64_field("t_ms").unwrap_or(t_ms)) / 1e3;
            let allocs = alloc.f64_field("allocs").unwrap_or(0.0);
            let prev_allocs = p.get("alloc").and_then(|a| a.f64_field("allocs")).unwrap_or(allocs);
            let rate = if dt_s > 0.0 { (allocs - prev_allocs).max(0.0) / dt_s } else { 0.0 };
            let _ = write!(out, "  ({rate:.0} alloc/s)");
        }
    }
    out
}

/// A declarative service-level objective spec (`crates/bench/slo.json`).
#[derive(Debug, Clone, Default)]
pub struct SloSpec {
    /// Per-stage p99 upper bounds, milliseconds.
    pub stage_p99_ms: Vec<(String, f64)>,
    /// Queue-wait p99 budget, milliseconds (checked against the
    /// `svc.queue_wait` stage).
    pub queue_wait_p99_ms: Option<f64>,
    /// Minimum acceptable cache hit rate (0..1).
    pub cache_hit_floor: Option<f64>,
}

impl SloSpec {
    /// Parses a `vab-slo/1` document.
    pub fn parse(text: &str) -> Result<SloSpec, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        if v.str_field("schema") != Some(SLO_SCHEMA) {
            return Err(format!(
                "unsupported SLO schema {:?} (want {SLO_SCHEMA:?})",
                v.str_field("schema").unwrap_or("<missing>")
            ));
        }
        let mut spec = SloSpec::default();
        if let Some(bounds) = v.get("stage_p99_ms").and_then(Json::as_obj) {
            for (stage, bound) in bounds {
                let bound = bound
                    .as_f64()
                    .ok_or_else(|| format!("stage_p99_ms.{stage} must be a number"))?;
                spec.stage_p99_ms.push((stage.clone(), bound));
            }
        }
        spec.queue_wait_p99_ms = v.f64_field("queue_wait_p99_ms");
        spec.cache_hit_floor = v.f64_field("cache_hit_floor");
        Ok(spec)
    }

    /// Loads and parses `path`.
    pub fn load(path: &std::path::Path) -> Result<SloSpec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        SloSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// One SLO evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SloCheck {
    /// What was checked (e.g. `p99(svc.job_execute)`).
    pub objective: String,
    /// Measured value, if the sample carried data for it.
    pub measured: Option<f64>,
    /// The bound from the spec.
    pub bound: f64,
    /// True when the bound holds (or no data existed to breach it).
    pub pass: bool,
}

/// Evaluates `spec` against one telemetry sample. A stage absent from
/// the sample passes with `measured: None` — no traffic is not a breach
/// — but is reported so a silent instrumentation regression stays
/// visible.
pub fn check(spec: &SloSpec, sample: &Json) -> Vec<SloCheck> {
    let mut out = Vec::new();
    let mut p99_bounds: Vec<(String, f64)> = spec.stage_p99_ms.clone();
    if let Some(budget) = spec.queue_wait_p99_ms {
        p99_bounds.push(("svc.queue_wait".into(), budget));
    }
    for (stage, bound) in p99_bounds {
        let measured = stage_field(sample, &stage, "p99_ms");
        out.push(SloCheck {
            objective: format!("p99({stage}) ms"),
            measured,
            bound,
            pass: measured.map(|m| m <= bound).unwrap_or(true),
        });
    }
    if let Some(floor) = spec.cache_hit_floor {
        let measured = sample.get("cache").and_then(|c| c.f64_field("hit_rate"));
        out.push(SloCheck {
            objective: "cache hit rate".into(),
            measured,
            bound: floor,
            pass: measured.map(|m| m >= floor).unwrap_or(true),
        });
    }
    out
}

/// Renders check results; returns `(text, breaches)`.
pub fn render_checks(checks: &[SloCheck]) -> (String, usize) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut breaches = 0;
    for c in checks {
        let verdict = if c.pass { "ok  " } else { "FAIL" };
        if !c.pass {
            breaches += 1;
        }
        let measured = match c.measured {
            Some(m) => format!("{m:.3}"),
            None => "no data".into(),
        };
        let _ = writeln!(
            out,
            "{verdict}  {:<28} measured {measured:>12}  bound {:.3}",
            c.objective, c.bound
        );
    }
    let _ = writeln!(out, "slo: {} objective(s), {breaches} breach(es)", checks.len());
    (out, breaches)
}

/// Renders check results as a JSON document for scripts and CI
/// assertions; returns `(json, breaches)`.
pub fn render_checks_json(checks: &[SloCheck]) -> (String, usize) {
    use std::fmt::Write as _;
    use vab_util::json::{write_json_number, write_json_string};
    let breaches = checks.iter().filter(|c| !c.pass).count();
    let mut out = String::with_capacity(512);
    out.push_str("{\n  \"checks\": [");
    for (i, c) in checks.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        out.push_str("{\"objective\": ");
        write_json_string(&mut out, &c.objective);
        out.push_str(", \"measured\": ");
        match c.measured {
            Some(m) => write_json_number(&mut out, m),
            None => out.push_str("null"),
        }
        out.push_str(", \"bound\": ");
        write_json_number(&mut out, c.bound);
        let _ = write!(out, ", \"pass\": {}}}", c.pass);
    }
    out.push_str(if checks.is_empty() { "],\n" } else { "\n  ],\n" });
    let _ = writeln!(out, "  \"objectives\": {},\n  \"breaches\": {breaches}\n}}", checks.len());
    (out, breaches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(exec_p99: f64, queue_p99: Option<f64>, hit_rate: f64) -> Json {
        let mut stages = vec![(
            "svc.job_execute".to_string(),
            Json::obj([
                ("count", Json::Num(4.0)),
                ("p50_ms", Json::Num(exec_p99 / 2.0)),
                ("p95_ms", Json::Num(exec_p99 * 0.9)),
                ("p99_ms", Json::Num(exec_p99)),
            ]),
        )];
        if let Some(q) = queue_p99 {
            stages.push((
                "svc.queue_wait".to_string(),
                Json::obj([("count", Json::Num(4.0)), ("p99_ms", Json::Num(q))]),
            ));
        }
        Json::obj([
            ("tick", Json::Num(3.0)),
            ("t_ms", Json::Num(1500.0)),
            ("queue_depth", Json::Num(1.0)),
            ("jobs_done", Json::Num(7.0)),
            ("jobs_failed", Json::Num(0.0)),
            (
                "cache",
                Json::obj([
                    ("hits", Json::Num(3.0)),
                    ("misses", Json::Num(1.0)),
                    ("hit_rate", Json::Num(hit_rate)),
                ]),
            ),
            ("stages", Json::Obj(stages)),
        ])
    }

    fn spec() -> SloSpec {
        SloSpec::parse(
            r#"{"schema":"vab-slo/1",
                "stage_p99_ms":{"svc.job_execute":1000.0},
                "queue_wait_p99_ms":50.0,
                "cache_hit_floor":0.25}"#,
        )
        .expect("spec parses")
    }

    #[test]
    fn slo_passes_within_bounds_and_fails_on_breach() {
        let checks = check(&spec(), &sample(900.0, Some(40.0), 0.75));
        let (text, breaches) = render_checks(&checks);
        assert_eq!(breaches, 0, "{text}");
        assert_eq!(checks.len(), 3);

        let checks = check(&spec(), &sample(1500.0, Some(80.0), 0.1));
        let (text, breaches) = render_checks(&checks);
        assert_eq!(breaches, 3, "{text}");
        assert!(text.contains("FAIL"));
    }

    #[test]
    fn missing_stage_data_passes_but_is_reported() {
        // No queue_wait stage at all (e.g. every job was a cache hit).
        let checks = check(&spec(), &sample(900.0, None, 0.9));
        let queue = checks.iter().find(|c| c.objective.contains("queue_wait")).expect("reported");
        assert!(queue.pass && queue.measured.is_none());
        let (text, breaches) = render_checks(&checks);
        assert_eq!(breaches, 0);
        assert!(text.contains("no data"), "{text}");
    }

    #[test]
    fn spec_rejects_unknown_schema_and_bad_bounds() {
        assert!(SloSpec::parse(r#"{"schema":"vab-slo/9"}"#).is_err());
        assert!(SloSpec::parse(r#"{"schema":"vab-slo/1","stage_p99_ms":{"x":"fast"}}"#).is_err());
    }

    #[test]
    fn tail_lines_carry_rates_and_latency_trio() {
        let prev = sample(900.0, Some(40.0), 0.5);
        let mut next = sample(900.0, Some(40.0), 0.5);
        // Advance the clock and the done counter: 4 jobs in 500 ms.
        if let Json::Obj(fields) = &mut next {
            for (k, v) in fields.iter_mut() {
                if k == "t_ms" {
                    *v = Json::Num(2000.0);
                }
                if k == "jobs_done" {
                    *v = Json::Num(11.0);
                }
            }
        }
        let line = render_sample(Some(&prev), &next);
        assert!(line.contains("(8.0/s)"), "line: {line}");
        assert!(line.contains("exec p50/p95/p99"), "line: {line}");
        assert!(line.contains("cache  50.0%"), "line: {line}");
    }

    /// Two-sample synthetic ring where the second generation restarted
    /// from zero: the delta-derived rate must clamp at 0.0, never print
    /// negative.
    #[test]
    fn restarted_daemon_clamps_rates_at_zero() {
        let set = |json: &mut Json, key: &str, val: f64| {
            if let Json::Obj(fields) = json {
                for (k, v) in fields.iter_mut() {
                    if k == key {
                        *v = Json::Num(val);
                    }
                }
            }
        };
        // Generation 1: tick 3, t=1500ms, 7 jobs done.
        let prev = sample(900.0, None, 0.5);
        // Generation 2 (restart): clock AND counter behind the previous
        // sample, but time still advancing.
        let mut next = sample(900.0, None, 0.5);
        set(&mut next, "tick", 1.0);
        set(&mut next, "t_ms", 1600.0);
        set(&mut next, "jobs_done", 2.0);
        let line = render_sample(Some(&prev), &next);
        assert!(line.contains("(0.0/s)"), "counter reset must clamp: {line}");
        assert!(!line.contains('-'), "no negative rate anywhere: {line}");
        // Restart where even the clock went backwards: dt <= 0.
        let mut rewound = sample(900.0, None, 0.5);
        set(&mut rewound, "t_ms", 500.0);
        set(&mut rewound, "jobs_done", 0.0);
        let line = render_sample(Some(&prev), &rewound);
        assert!(line.contains("(0.0/s)"), "clock rewind must clamp: {line}");
    }

    #[test]
    fn alloc_telemetry_renders_live_bytes_and_clamped_rate() {
        let with_alloc = |allocs: f64, t_ms: f64| {
            let mut s = sample(900.0, None, 0.5);
            if let Json::Obj(fields) = &mut s {
                for (k, v) in fields.iter_mut() {
                    if k == "t_ms" {
                        *v = Json::Num(t_ms);
                    }
                }
                fields.push((
                    "alloc".to_string(),
                    Json::obj([
                        ("allocs", Json::Num(allocs)),
                        ("frees", Json::Num(allocs - 10.0)),
                        ("live_bytes", Json::Num(2048.0)),
                        ("peak_live_bytes", Json::Num(4096.0)),
                    ]),
                ));
            }
            s
        };
        let line = render_sample(Some(&with_alloc(100.0, 1000.0)), &with_alloc(300.0, 2000.0));
        assert!(line.contains("live 2.0 KiB"), "line: {line}");
        assert!(line.contains("(200 alloc/s)"), "line: {line}");
        // Counter reset across restart: clamp, don't go negative.
        let line = render_sample(Some(&with_alloc(300.0, 1000.0)), &with_alloc(50.0, 2000.0));
        assert!(line.contains("(0 alloc/s)"), "line: {line}");
        // Unprofiled samples stay alloc-free.
        let plain = render_sample(None, &sample(900.0, None, 0.5));
        assert!(!plain.contains("live "), "line: {plain}");
    }

    #[test]
    fn slo_json_output_parses_and_counts_breaches() {
        let checks = check(&spec(), &sample(1500.0, Some(80.0), 0.1));
        let (json, breaches) = render_checks_json(&checks);
        assert_eq!(breaches, 3);
        let v = Json::parse(&json).expect("valid JSON");
        assert_eq!(v.u64_field("breaches"), Some(3));
        assert_eq!(v.u64_field("objectives"), Some(3));
        let arr = v.get("checks").and_then(Json::as_arr).expect("checks");
        assert_eq!(arr.len(), 3);
        assert!(arr.iter().all(|c| c.get("pass").and_then(Json::as_bool) == Some(false)));
        // A no-data check serializes measured as null.
        let checks = check(&spec(), &sample(900.0, None, 0.9));
        let (json, _) = render_checks_json(&checks);
        assert!(json.contains("\"measured\": null"), "{json}");
    }
}
