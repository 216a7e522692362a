//! The typed job model and its canonical serialization.
//!
//! A [`JobSpec`] is pure data: everything needed to reproduce a result,
//! nothing about *how* it is executed (thread counts, cache state and
//! observability deliberately stay out, so they can never split the cache
//! address of identical physics). The canonical form is JSON with a fixed
//! key order and `vab_util::json`'s canonical number rendering, so
//! structural equality implies byte equality — [`JobSpec::digest`] hashes
//! those bytes together with [`crate::ENGINE_VERSION`] into the content
//! address the cache and the wire protocol both use as the job id.

use vab_util::json::Json;

/// Seeds are full-range `u64`s, which JSON's double-precision numbers
/// cannot hold exactly above 2^53 — so the canonical form carries them as
/// decimal strings. Parsing accepts a plain number too (hand-written
/// specs with small seeds); canonicalization folds both spellings to the
/// same bytes, so they share a cache address.
fn seed_to_json(seed: u64) -> Json {
    Json::Str(seed.to_string())
}

/// The `n_pairs` field of a Van Atta spec. A Van Atta array is built
/// from element pairs, so zero is rejected here rather than panicking a
/// worker at execution.
fn n_pairs_field(v: &Json) -> Result<usize, String> {
    match v.u64_field("n_pairs") {
        Some(0) => Err("n_pairs must be at least 1".into()),
        Some(n) => Ok(n as usize),
        None => Err("missing n_pairs".into()),
    }
}

fn seed_field(v: &Json, key: &str) -> Option<u64> {
    match v.get(key)? {
        Json::Str(s) => s.parse().ok(),
        other => other.as_u64(),
    }
}

/// Which simulated system a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemSpec {
    /// Van Atta backscatter with `n_pairs` element pairs.
    Vab {
        /// Number of Van Atta pairs.
        n_pairs: usize,
    },
    /// Single-element prior art.
    Pab,
    /// Conventional (non-retrodirective) array.
    Conventional {
        /// Total element count (even).
        n_elements: usize,
    },
}

impl SystemSpec {
    pub(crate) fn to_json(self) -> Json {
        match self {
            SystemSpec::Vab { n_pairs } => Json::obj([
                ("kind", Json::Str("vab".into())),
                ("n_pairs", Json::Num(n_pairs as f64)),
            ]),
            SystemSpec::Pab => Json::obj([("kind", Json::Str("pab".into()))]),
            SystemSpec::Conventional { n_elements } => Json::obj([
                ("kind", Json::Str("conventional".into())),
                ("n_elements", Json::Num(n_elements as f64)),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        match v.str_field("kind") {
            Some("vab") => Ok(SystemSpec::Vab { n_pairs: n_pairs_field(v)? }),
            Some("pab") => Ok(SystemSpec::Pab),
            Some("conventional") => Ok(SystemSpec::Conventional {
                n_elements: v
                    .u64_field("n_elements")
                    .ok_or("conventional system needs n_elements")?
                    as usize,
            }),
            other => Err(format!("unknown system kind {other:?}")),
        }
    }

    /// The `vab-sim` equivalent.
    pub fn to_sim(self) -> vab_sim::SystemKind {
        match self {
            SystemSpec::Vab { n_pairs } => vab_sim::SystemKind::Vab { n_pairs },
            SystemSpec::Pab => vab_sim::SystemKind::Pab,
            SystemSpec::Conventional { n_elements } => {
                vab_sim::SystemKind::ConventionalArray { n_elements }
            }
        }
    }
}

/// Deployment environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvSpec {
    /// The canonical river trial.
    River,
    /// Ocean at a sea-state index (0 = calm … 4 = moderate).
    Ocean {
        /// Index into `SeaState::all()`.
        sea_state: u8,
    },
}

impl EnvSpec {
    pub(crate) fn to_json(self) -> Json {
        match self {
            EnvSpec::River => Json::obj([("kind", Json::Str("river".into()))]),
            EnvSpec::Ocean { sea_state } => Json::obj([
                ("kind", Json::Str("ocean".into())),
                ("sea_state", Json::Num(sea_state as f64)),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        match v.str_field("kind") {
            Some("river") => Ok(EnvSpec::River),
            Some("ocean") => {
                let ss = v.u64_field("sea_state").ok_or("ocean env needs sea_state")?;
                if ss > 4 {
                    return Err(format!("sea_state {ss} out of range 0..=4"));
                }
                Ok(EnvSpec::Ocean { sea_state: ss as u8 })
            }
            other => Err(format!("unknown env kind {other:?}")),
        }
    }
}

/// Simulation fidelity for Monte Carlo jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSpec {
    /// Sonar equation + closed-form BER + real codecs.
    LinkBudget,
    /// Full complex-baseband DSP.
    SampleLevel,
}

impl EngineSpec {
    fn as_str(self) -> &'static str {
        match self {
            EngineSpec::LinkBudget => "link_budget",
            EngineSpec::SampleLevel => "sample_level",
        }
    }

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "link_budget" => Ok(EngineSpec::LinkBudget),
            "sample_level" => Ok(EngineSpec::SampleLevel),
            other => Err(format!("unknown engine {other:?}")),
        }
    }

    /// The `vab-sim` equivalent.
    pub fn to_sim(self) -> vab_sim::TrialEngine {
        match self {
            EngineSpec::LinkBudget => vab_sim::TrialEngine::LinkBudget,
            EngineSpec::SampleLevel => vab_sim::TrialEngine::SampleLevel,
        }
    }
}

/// One unit of simulation work, ready to canonicalize, digest, cache and
/// ship over the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// All Monte Carlo trials of one operating point.
    McPoint {
        /// Deployed system.
        system: SystemSpec,
        /// Water environment.
        env: EnvSpec,
        /// Reader–node range, metres.
        range_m: f64,
        /// Node rotation off broadside, degrees.
        rotation_deg: f64,
        /// Channel realizations.
        trials: usize,
        /// Information bits per trial.
        bits: usize,
        /// Master seed.
        seed: u64,
        /// Simulation fidelity.
        engine: EngineSpec,
    },
    /// Deployments `lo..hi` of a randomized field campaign.
    CampaignSlice {
        /// Deployed system.
        system: SystemSpec,
        /// Total campaign size (fixes the deployment distribution).
        n_trials: usize,
        /// Bits per deployment packet.
        bits: usize,
        /// Campaign master seed.
        seed: u64,
        /// First deployment id of the slice (inclusive).
        lo: usize,
        /// One past the last deployment id.
        hi: usize,
        /// Optional fault-injection intensity (0 = nominal, 1 = severe).
        fault_intensity: Option<f64>,
    },
    /// Closed-form link budgets over a set of ranges. Near-identical
    /// sweeps share per-point cache entries (see `exec`).
    LinkBudgetSweep {
        /// Deployed system.
        system: SystemSpec,
        /// Water environment.
        env: EnvSpec,
        /// Ranges to evaluate, metres.
        ranges_m: Vec<f64>,
    },
    /// One figure/table of the evaluation fleet, by registry name.
    Figure {
        /// Registry name (`f7_ber_vs_range`, `t2_power_budget`, …).
        name: String,
        /// Monte Carlo trials per operating point.
        trials: usize,
        /// Information bits per trial.
        bits: usize,
        /// Master seed.
        seed: u64,
    },
    /// One TVIR bank build (`vab-replay`): realize the channel once and
    /// persist its snapshot tap matrices under the bank store. The fields
    /// mirror `vab_replay::BankSpec`, so the daemon shards and caches bank
    /// builds like any other job while the bank file itself is content-
    /// addressed by the *bank* digest (same engine version, same recipe).
    ReplayBank {
        /// Water environment.
        env: EnvSpec,
        /// Reader–node range, metres.
        range_m: f64,
        /// Carrier frequency, Hz.
        carrier_hz: f64,
        /// Baseband sample rate the taps are sampled at, Hz.
        fs: f64,
        /// TVIR snapshots across the recording span.
        n_snapshots: usize,
        /// Recording span, seconds.
        span_s: f64,
        /// Channel-realization seed.
        seed: u64,
    },
    /// One spatial network deployment (`vab-net`): seed-pure topology
    /// generation, capture-aware inventory and steady-state TDMA. The
    /// fields mirror `vab_net::NetworkSpec` so network campaigns cache
    /// per-topology results by content address.
    NetTopology {
        /// Deployed node count (1 ..= 256).
        n_nodes: usize,
        /// Deployment box down-range extent, metres.
        x_m: f64,
        /// Deployment box cross-range extent, metres.
        y_m: f64,
        /// Closest node standoff from the reader, metres.
        standoff_m: f64,
        /// Water environment.
        env: EnvSpec,
        /// Van Atta pairs per node.
        n_pairs: usize,
        /// Master seed.
        seed: u64,
    },
    /// One ocean-scale cellular deployment (`vab-net` scale tier):
    /// multi-reader cells, horizon-culled co-channel interference and
    /// multi-hop relay routing at the canonical ocean density. The spec
    /// maps onto `vab_net::ScaleSpec::ocean` with the routing policy
    /// overridden, so geometry and reader count stay pure functions of
    /// `n_nodes` and the job stays cacheable by content address.
    NetScale {
        /// Deployed node count (1 ..= 1,048,576).
        n_nodes: usize,
        /// Relay routing policy for rim nodes.
        policy: vab_net::RoutePolicy,
        /// Master seed.
        seed: u64,
    },
}

impl JobSpec {
    /// Structured (ordered-key) JSON form.
    pub fn to_json(&self) -> Json {
        match self {
            JobSpec::McPoint { system, env, range_m, rotation_deg, trials, bits, seed, engine } => {
                Json::obj([
                    ("kind", Json::Str("mc_point".into())),
                    ("system", system.to_json()),
                    ("env", env.to_json()),
                    ("range_m", Json::Num(*range_m)),
                    ("rotation_deg", Json::Num(*rotation_deg)),
                    ("trials", Json::Num(*trials as f64)),
                    ("bits", Json::Num(*bits as f64)),
                    ("seed", seed_to_json(*seed)),
                    ("engine", Json::Str(engine.as_str().into())),
                ])
            }
            JobSpec::CampaignSlice { system, n_trials, bits, seed, lo, hi, fault_intensity } => {
                Json::obj([
                    ("kind", Json::Str("campaign_slice".into())),
                    ("system", system.to_json()),
                    ("n_trials", Json::Num(*n_trials as f64)),
                    ("bits", Json::Num(*bits as f64)),
                    ("seed", seed_to_json(*seed)),
                    ("lo", Json::Num(*lo as f64)),
                    ("hi", Json::Num(*hi as f64)),
                    ("fault_intensity", fault_intensity.map(Json::Num).unwrap_or(Json::Null)),
                ])
            }
            JobSpec::LinkBudgetSweep { system, env, ranges_m } => Json::obj([
                ("kind", Json::Str("link_budget_sweep".into())),
                ("system", system.to_json()),
                ("env", env.to_json()),
                ("ranges_m", Json::Arr(ranges_m.iter().map(|&r| Json::Num(r)).collect())),
            ]),
            JobSpec::Figure { name, trials, bits, seed } => Json::obj([
                ("kind", Json::Str("figure".into())),
                ("name", Json::Str(name.clone())),
                ("trials", Json::Num(*trials as f64)),
                ("bits", Json::Num(*bits as f64)),
                ("seed", seed_to_json(*seed)),
            ]),
            JobSpec::ReplayBank { env, range_m, carrier_hz, fs, n_snapshots, span_s, seed } => {
                Json::obj([
                    ("kind", Json::Str("replay_bank".into())),
                    ("env", env.to_json()),
                    ("range_m", Json::Num(*range_m)),
                    ("carrier_hz", Json::Num(*carrier_hz)),
                    ("fs", Json::Num(*fs)),
                    ("n_snapshots", Json::Num(*n_snapshots as f64)),
                    ("span_s", Json::Num(*span_s)),
                    ("seed", seed_to_json(*seed)),
                ])
            }
            JobSpec::NetTopology { n_nodes, x_m, y_m, standoff_m, env, n_pairs, seed } => {
                Json::obj([
                    ("kind", Json::Str("net_topology".into())),
                    ("n_nodes", Json::Num(*n_nodes as f64)),
                    ("x_m", Json::Num(*x_m)),
                    ("y_m", Json::Num(*y_m)),
                    ("standoff_m", Json::Num(*standoff_m)),
                    ("env", env.to_json()),
                    ("n_pairs", Json::Num(*n_pairs as f64)),
                    ("seed", seed_to_json(*seed)),
                ])
            }
            JobSpec::NetScale { n_nodes, policy, seed } => Json::obj([
                ("kind", Json::Str("net_scale".into())),
                ("n_nodes", Json::Num(*n_nodes as f64)),
                ("policy", Json::Str(policy.as_str().into())),
                ("seed", seed_to_json(*seed)),
            ]),
        }
    }

    /// Parses a spec back from its JSON form (wire submissions).
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let need_usize =
            |key: &str| v.u64_field(key).map(|n| n as usize).ok_or(format!("missing {key}"));
        match v.str_field("kind") {
            Some("mc_point") => Ok(JobSpec::McPoint {
                system: SystemSpec::from_json(v.get("system").ok_or("missing system")?)?,
                env: EnvSpec::from_json(v.get("env").ok_or("missing env")?)?,
                range_m: v.f64_field("range_m").ok_or("missing range_m")?,
                rotation_deg: v.f64_field("rotation_deg").unwrap_or(0.0),
                trials: need_usize("trials")?,
                bits: need_usize("bits")?,
                seed: seed_field(v, "seed").ok_or("missing seed")?,
                engine: EngineSpec::from_str(v.str_field("engine").unwrap_or("link_budget"))?,
            }),
            Some("campaign_slice") => {
                let lo = need_usize("lo")?;
                let hi = need_usize("hi")?;
                if lo > hi {
                    return Err(format!("slice lo {lo} > hi {hi}"));
                }
                Ok(JobSpec::CampaignSlice {
                    system: SystemSpec::from_json(v.get("system").ok_or("missing system")?)?,
                    n_trials: need_usize("n_trials")?,
                    bits: need_usize("bits")?,
                    seed: seed_field(v, "seed").ok_or("missing seed")?,
                    lo,
                    hi,
                    fault_intensity: v.f64_field("fault_intensity"),
                })
            }
            Some("link_budget_sweep") => {
                let ranges = v.get("ranges_m").and_then(Json::as_arr).ok_or("missing ranges_m")?;
                let ranges_m = ranges
                    .iter()
                    .map(|r| r.as_f64().ok_or("non-numeric range".to_string()))
                    .collect::<Result<Vec<f64>, String>>()?;
                if ranges_m.iter().any(|r| !r.is_finite() || *r <= 0.0) {
                    return Err("ranges_m must be positive and finite".into());
                }
                Ok(JobSpec::LinkBudgetSweep {
                    system: SystemSpec::from_json(v.get("system").ok_or("missing system")?)?,
                    env: EnvSpec::from_json(v.get("env").ok_or("missing env")?)?,
                    ranges_m,
                })
            }
            Some("figure") => Ok(JobSpec::Figure {
                name: v.str_field("name").ok_or("missing name")?.to_string(),
                trials: need_usize("trials")?,
                bits: need_usize("bits")?,
                seed: seed_field(v, "seed").ok_or("missing seed")?,
            }),
            Some("replay_bank") => {
                let spec = JobSpec::ReplayBank {
                    env: EnvSpec::from_json(v.get("env").ok_or("missing env")?)?,
                    range_m: v.f64_field("range_m").ok_or("missing range_m")?,
                    carrier_hz: v.f64_field("carrier_hz").ok_or("missing carrier_hz")?,
                    fs: v.f64_field("fs").ok_or("missing fs")?,
                    n_snapshots: need_usize("n_snapshots")?,
                    span_s: v.f64_field("span_s").ok_or("missing span_s")?,
                    seed: seed_field(v, "seed").ok_or("missing seed")?,
                };
                // Reuse the bank model's physical validation so the daemon
                // rejects at submission what the generator would refuse.
                spec.to_bank_spec().expect("just built as replay_bank").validate()?;
                Ok(spec)
            }
            Some("net_topology") => {
                let n_nodes = need_usize("n_nodes")?;
                if !(1..=256).contains(&n_nodes) {
                    return Err(format!("n_nodes {n_nodes} outside 1..=256"));
                }
                let dim = |key: &str| -> Result<f64, String> {
                    let d = v.f64_field(key).ok_or(format!("missing {key}"))?;
                    if !d.is_finite() || d <= 0.0 {
                        return Err(format!("{key} must be positive and finite"));
                    }
                    Ok(d)
                };
                Ok(JobSpec::NetTopology {
                    n_nodes,
                    x_m: dim("x_m")?,
                    y_m: dim("y_m")?,
                    standoff_m: dim("standoff_m")?,
                    env: EnvSpec::from_json(v.get("env").ok_or("missing env")?)?,
                    n_pairs: n_pairs_field(v)?,
                    seed: seed_field(v, "seed").ok_or("missing seed")?,
                })
            }
            Some("net_scale") => {
                let n_nodes = need_usize("n_nodes")?;
                if !(1..=1_048_576).contains(&n_nodes) {
                    return Err(format!("n_nodes {n_nodes} outside 1..=1048576"));
                }
                // Policy defaults to VBF, the `ScaleSpec::ocean` default;
                // the canonical form always spells it out, so both
                // spellings fold to the same cache address.
                let policy = vab_net::RoutePolicy::parse(v.str_field("policy").unwrap_or("vbf"))?;
                Ok(JobSpec::NetScale {
                    n_nodes,
                    policy,
                    seed: seed_field(v, "seed").ok_or("missing seed")?,
                })
            }
            other => Err(format!("unknown job kind {other:?}")),
        }
    }

    /// The canonical byte form: compact JSON with fixed key order.
    pub fn canonical(&self) -> String {
        self.to_json().render()
    }

    /// The `vab-replay` bank spec of a [`JobSpec::ReplayBank`] job (`None`
    /// for every other kind).
    pub fn to_bank_spec(&self) -> Option<vab_replay::BankSpec> {
        let JobSpec::ReplayBank { env, range_m, carrier_hz, fs, n_snapshots, span_s, seed } = self
        else {
            return None;
        };
        let water = match env {
            EnvSpec::River => vab_replay::WaterSpec::River,
            EnvSpec::Ocean { sea_state } => vab_replay::WaterSpec::Ocean { sea_state: *sea_state },
        };
        Some(vab_replay::BankSpec {
            water,
            range_m: *range_m,
            carrier_hz: *carrier_hz,
            fs: *fs,
            n_snapshots: *n_snapshots,
            span_s: *span_s,
            seed: *seed,
        })
    }

    /// Content address under an explicit engine version (tests use this to
    /// show a version bump misses the cache).
    pub fn digest_with_version(&self, engine_version: &str) -> u64 {
        vab_util::hash::content_digest(&self.canonical(), engine_version)
    }

    /// Content address under [`crate::ENGINE_VERSION`].
    pub fn digest(&self) -> u64 {
        self.digest_with_version(crate::ENGINE_VERSION)
    }

    /// The wire job id: the digest in fixed-width hex.
    pub fn id(&self) -> String {
        format!("{:016x}", self.digest())
    }

    /// Short human label for logs and progress lines.
    pub fn label(&self) -> String {
        match self {
            JobSpec::McPoint { range_m, trials, .. } => {
                format!("mc_point(range={range_m} m, trials={trials})")
            }
            JobSpec::CampaignSlice { lo, hi, .. } => format!("campaign_slice({lo}..{hi})"),
            JobSpec::LinkBudgetSweep { ranges_m, .. } => {
                format!("link_budget_sweep({} points)", ranges_m.len())
            }
            JobSpec::Figure { name, .. } => format!("figure({name})"),
            JobSpec::ReplayBank { range_m, n_snapshots, .. } => {
                format!("replay_bank(range={range_m} m, snapshots={n_snapshots})")
            }
            JobSpec::NetTopology { n_nodes, .. } => format!("net_topology({n_nodes} nodes)"),
            JobSpec::NetScale { n_nodes, policy, .. } => {
                format!("net_scale({n_nodes} nodes, {})", policy.as_str())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> JobSpec {
        JobSpec::McPoint {
            system: SystemSpec::Vab { n_pairs: 4 },
            env: EnvSpec::River,
            range_m: 280.0,
            rotation_deg: 0.0,
            trials: 16,
            bits: 128,
            seed: 7,
            engine: EngineSpec::LinkBudget,
        }
    }

    #[test]
    fn canonical_round_trips_every_kind() {
        let specs = [
            mc(),
            JobSpec::CampaignSlice {
                system: SystemSpec::Pab,
                n_trials: 1500,
                bits: 256,
                seed: 1500,
                lo: 10,
                hi: 20,
                fault_intensity: Some(0.5),
            },
            JobSpec::LinkBudgetSweep {
                system: SystemSpec::Conventional { n_elements: 8 },
                env: EnvSpec::Ocean { sea_state: 2 },
                ranges_m: vec![10.0, 100.5, 450.0],
            },
            JobSpec::Figure { name: "f7_ber_vs_range".into(), trials: 25, bits: 256, seed: 2023 },
            JobSpec::ReplayBank {
                env: EnvSpec::Ocean { sea_state: 2 },
                range_m: 320.0,
                carrier_hz: 18_500.0,
                fs: 1600.0,
                n_snapshots: 4,
                span_s: 8.0,
                seed: 2023,
            },
            JobSpec::NetTopology {
                n_nodes: 64,
                x_m: 60.0,
                y_m: 40.0,
                standoff_m: 10.0,
                env: EnvSpec::Ocean { sea_state: 1 },
                n_pairs: 4,
                seed: 2023,
            },
            JobSpec::NetScale { n_nodes: 4096, policy: vab_net::RoutePolicy::Vbf, seed: 2023 },
            JobSpec::NetScale { n_nodes: 64, policy: vab_net::RoutePolicy::ClusterHead, seed: 1 },
        ];
        for spec in specs {
            let canon = spec.canonical();
            let back = JobSpec::from_json(&Json::parse(&canon).expect("parse")).expect("from_json");
            assert_eq!(back, spec);
            assert_eq!(back.canonical(), canon, "canonical form must be a fixed point");
        }
    }

    #[test]
    fn digest_separates_seeds_and_versions() {
        let a = mc();
        let mut b = a.clone();
        if let JobSpec::McPoint { seed, .. } = &mut b {
            *seed = 8;
        }
        assert_ne!(a.digest(), b.digest(), "seed change must re-address");
        assert_ne!(
            a.digest_with_version("vab-engine/1"),
            a.digest_with_version("vab-engine/2"),
            "engine bump must re-address"
        );
        assert_eq!(a.digest(), mc().digest(), "equal specs share an address");
        assert_eq!(a.id().len(), 16);
    }

    #[test]
    fn seeds_above_2_pow_53_survive_the_wire_exactly() {
        let mut spec = mc();
        if let JobSpec::McPoint { seed, .. } = &mut spec {
            *seed = u64::MAX - 41; // not representable as f64
        }
        let canon = spec.canonical();
        let back = JobSpec::from_json(&Json::parse(&canon).expect("parse")).expect("from_json");
        assert_eq!(back, spec);
        // A hand-written numeric seed (small enough for f64) folds to the
        // same canonical bytes and therefore the same cache address.
        let numeric = r#"{"kind":"figure","name":"f7","trials":5,"bits":64,"seed":9}"#;
        let stringy = r#"{"kind":"figure","name":"f7","trials":5,"bits":64,"seed":"9"}"#;
        let a = JobSpec::from_json(&Json::parse(numeric).expect("json")).expect("spec");
        let b = JobSpec::from_json(&Json::parse(stringy).expect("json")).expect("spec");
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn net_scale_policy_defaults_to_vbf_at_the_same_address() {
        let explicit = r#"{"kind":"net_scale","n_nodes":64,"policy":"vbf","seed":9}"#;
        let implicit = r#"{"kind":"net_scale","n_nodes":64,"seed":9}"#;
        let a = JobSpec::from_json(&Json::parse(explicit).expect("json")).expect("spec");
        let b = JobSpec::from_json(&Json::parse(implicit).expect("json")).expect("spec");
        assert_eq!(a.digest(), b.digest(), "implicit policy folds to the canonical address");
        assert_eq!(a.label(), "net_scale(64 nodes, vbf)");
    }

    #[test]
    fn from_json_rejects_malformed_specs() {
        for bad in [
            r#"{"kind":"mc_point"}"#,
            r#"{"kind":"warp_drive"}"#,
            r#"{"kind":"campaign_slice","system":{"kind":"pab"},"n_trials":10,"bits":8,"seed":1,"lo":9,"hi":3}"#,
            r#"{"kind":"link_budget_sweep","system":{"kind":"pab"},"env":{"kind":"river"},"ranges_m":[-5]}"#,
            r#"{"kind":"figure","name":"f7"}"#,
            r#"{"kind":"net_topology","n_nodes":0,"x_m":60,"y_m":40,"standoff_m":10,"env":{"kind":"river"},"n_pairs":4,"seed":1}"#,
            r#"{"kind":"net_topology","n_nodes":500,"x_m":60,"y_m":40,"standoff_m":10,"env":{"kind":"river"},"n_pairs":4,"seed":1}"#,
            r#"{"kind":"net_topology","n_nodes":8,"x_m":-60,"y_m":40,"standoff_m":10,"env":{"kind":"river"},"n_pairs":4,"seed":1}"#,
            r#"{"kind":"net_topology","n_nodes":8,"x_m":60,"y_m":40,"standoff_m":10,"env":{"kind":"river"},"n_pairs":0,"seed":1}"#,
            r#"{"kind":"mc_point","system":{"kind":"vab","n_pairs":0},"env":{"kind":"river"},"range_m":50,"trials":10,"bits":8,"seed":1}"#,
            r#"{"kind":"net_scale","n_nodes":0,"policy":"vbf","seed":1}"#,
            r#"{"kind":"net_scale","n_nodes":2000000,"policy":"vbf","seed":1}"#,
            r#"{"kind":"net_scale","n_nodes":64,"policy":"teleport","seed":1}"#,
            r#"{"kind":"net_scale","n_nodes":64,"policy":"vbf"}"#,
            r#"{"kind":"replay_bank","env":{"kind":"river"},"range_m":-50,"carrier_hz":18500,"fs":1600,"n_snapshots":2,"span_s":1,"seed":1}"#,
            r#"{"kind":"replay_bank","env":{"kind":"river"},"range_m":50,"carrier_hz":18500,"fs":1600,"n_snapshots":0,"span_s":1,"seed":1}"#,
            r#"{"kind":"replay_bank","env":{"kind":"river"},"range_m":50,"carrier_hz":18500,"fs":1600,"n_snapshots":3,"span_s":0,"seed":1}"#,
        ] {
            let v = Json::parse(bad).expect("valid JSON");
            assert!(JobSpec::from_json(&v).is_err(), "accepted {bad}");
        }
    }
}
