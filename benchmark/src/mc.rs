//! The three Monte Carlo workloads: `linkbudget_mc`, `waveform_synth` and
//! `waveform_replay`.
//!
//! One cycle runs one operating point per range in [`RANGES_M`] (a VAB
//! 4-pair node in the river), each a `run_point_with_source` call with two
//! worker threads. The traced cycle rebuilds every trial from the public
//! calls that `run_point` composes, sharded the same way, and must
//! reproduce its bit errors exactly.

use std::panic::AssertUnwindSafe;
use std::time::Instant;

use rand::rngs::StdRng;
use vab_link::fec::Fec;
use vab_link::frame::LinkConfig;
use vab_phy::ber::ber_noncoherent_orthogonal;
use vab_phy::demod::count_bit_errors;
use vab_replay::{BankSpec, BankStore, WaterSpec};
use vab_sim::baseline::FrontEnd;
use vab_sim::montecarlo::{fading_delta_db, run_point_with_source, PointResult};
use vab_sim::samplelevel::{decode_uplink, transport_uplink_via};
use vab_sim::{
    BankSource, ChannelSource, LinkBudget, MonteCarloConfig, RealizedChannel, Scenario,
    SyntheticSource, SystemKind, TrialEngine,
};
use vab_util::hash::fnv1a64;
use vab_util::json::Json;
use vab_util::rng::{derive_seed, gaussian, random_bits, seeded};
use vab_util::units::Meters;

use crate::trace::{span, take_spans, SpanRec};
use crate::{out_dir, stats, Bench, CycleOut, THREADS};

/// Reader–node ranges of one cycle, metres: comfortable, the paper's
/// 300 m claim, and past the edge.
pub const RANGES_M: [f64; 3] = [100.0, 300.0, 500.0];
/// Information bits per trial.
pub const BITS: usize = 512;
/// Seed of the replay banks. The recording is the same for every run seed
/// (the seed drives the trials), so runs differ only in the trials: banks
/// drawn per seed differ in tap count, which alone moved throughput by a
/// fifth between seeds.
const BANK_SEED: u64 = 0xBA4C;
/// Span of each bank, s. A trial starts replaying at an offset drawn
/// uniformly over the span, and the waveform (about 10 s) runs on past the
/// last snapshot, where `ReplayChannel::apply` re-tunes for every sample.
/// Over a 1 s span every trial spends nearly the same time there; over
/// FR1's 4 s the per-trial cost varied by about 14 %.
const BANK_SPAN_S: f64 = 1.0;

/// Which of the three Monte Carlo workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McKind {
    /// Link-budget engine: closed-form channel, real codecs.
    LinkBudget,
    /// Sample-level engine on freshly synthesized channels.
    Synth,
    /// Sample-level engine on recorded TVIR banks.
    Replay,
}

impl McKind {
    /// Trials per operating point.
    pub fn trials(self) -> usize {
        match self {
            McKind::LinkBudget => 512,
            McKind::Synth => 64,
            McKind::Replay => 2,
        }
    }

    fn engine(self) -> TrialEngine {
        match self {
            McKind::LinkBudget => TrialEngine::LinkBudget,
            McKind::Synth | McKind::Replay => TrialEngine::SampleLevel,
        }
    }
}

/// One trial's outcome: info-bit errors, packet error, synchronizer lost.
type Trial = (usize, bool, bool);

/// A Monte Carlo workload, set up.
pub struct McBench {
    kind: McKind,
    seed: u64,
    scenarios: Vec<Scenario>,
    sources: Vec<Box<dyn ChannelSource>>,
    bank_load_ms: Vec<f64>,
    traced_trials: u64,
    sync_lost: u64,
}

impl McBench {
    /// Builds the scenarios and, for replay, writes each range's bank
    /// through a `BankStore` and serves trials from the copy read back.
    pub fn new(kind: McKind, seed: u64) -> Result<McBench, String> {
        let scenarios: Vec<Scenario> = RANGES_M
            .iter()
            .map(|&d| Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(d)))
            .collect();
        let mut sources: Vec<Box<dyn ChannelSource>> = Vec::new();
        let mut bank_load_ms = Vec::new();
        if kind == McKind::Replay {
            let dir = out_dir().join(format!("banks-{}", std::process::id()));
            let store = BankStore::new(&dir, vab_replay::ENGINE_VERSION);
            for (i, s) in scenarios.iter().enumerate() {
                let spec = BankSpec {
                    water: WaterSpec::River,
                    range_m: RANGES_M[i],
                    carrier_hz: s.carrier().value(),
                    fs: s.mod_params.baseband_fs(),
                    n_snapshots: 8,
                    span_s: BANK_SPAN_S,
                    seed: derive_seed(BANK_SEED, i as u64),
                };
                let bank = vab_replay::generate(&spec)?;
                store.save(&bank).map_err(|e| format!("cannot write bank: {e}"))?;
                let started = Instant::now();
                let loaded = store.load(&spec).ok_or("a bank just written did not load back")?;
                bank_load_ms.push(started.elapsed().as_secs_f64() * 1e3);
                if loaded != bank {
                    return Err(format!(
                        "bank at {} m changed on its disk round trip",
                        spec.range_m
                    ));
                }
                sources.push(Box::new(BankSource::new(loaded)));
            }
            std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove bank dir: {e}"))?;
        } else {
            sources.extend(scenarios.iter().map(|_| Box::new(SyntheticSource) as _));
        }
        Ok(McBench { kind, seed, scenarios, sources, bank_load_ms, traced_trials: 0, sync_lost: 0 })
    }

    fn config(&self, k: u64, i: usize) -> MonteCarloConfig {
        MonteCarloConfig {
            trials: self.kind.trials(),
            bits_per_trial: BITS,
            seed: derive_seed(derive_seed(self.seed, k), i as u64),
            engine: self.kind.engine(),
            threads: THREADS,
        }
    }

    /// One trial rebuilt from public calls, under spans.
    fn trial(&self, i: usize, fe: &FrontEnd, rng: &mut StdRng, id: u64) -> Trial {
        let s = &self.scenarios[i];
        match self.kind {
            McKind::LinkBudget => link_budget_trial(s, fe, rng, id),
            McKind::Synth | McKind::Replay => sample_trial(s, fe, &*self.sources[i], rng, id),
        }
    }

    /// The traced operating point: trials sharded over [`THREADS`] as
    /// `run_point` shards them. `None` when a shard panicked.
    fn point_traced(
        &self,
        k: u64,
        i: usize,
        cfg: &MonteCarloConfig,
        out: &mut CycleOut,
    ) -> Option<Vec<Trial>> {
        let fe = self.scenarios[i].front_end();
        let per = cfg.trials.div_ceil(THREADS);
        std::thread::scope(|scope| {
            let shards: Vec<_> = (0..THREADS)
                .map(|t| (t * per, ((t + 1) * per).min(cfg.trials)))
                .filter(|(lo, hi)| lo < hi)
                .map(|(lo, hi)| {
                    let fe = &fe;
                    scope.spawn(move || {
                        let born = Instant::now();
                        let trials: Vec<Trial> = (lo..hi)
                            .map(|t| {
                                let mut rng = seeded(derive_seed(cfg.seed, t as u64));
                                let id = (k << 24) | ((i as u64) << 16) | t as u64;
                                span("sim.trial", id, || self.trial(i, fe, &mut rng, id))
                            })
                            .collect();
                        (trials, take_spans(), born.elapsed().as_nanos() as u64)
                    })
                })
                .collect();
            let mut trials = Vec::with_capacity(cfg.trials);
            let mut ok = true;
            for h in shards {
                match h.join() {
                    Ok((t, spans, busy_ns)) => {
                        trials.extend(t);
                        out.spans.extend(spans);
                        out.busy_ns += busy_ns;
                    }
                    Err(_) => ok = false,
                }
            }
            ok.then_some(trials)
        })
    }
}

/// The output `run_point` reports and the benchmark digests.
struct Point {
    errors: u64,
    packet_errors: u64,
    trial_bers: Vec<f64>,
}

impl Point {
    fn from_result(r: PointResult) -> Point {
        Point { errors: r.ber.errors(), packet_errors: r.packet_errors, trial_bers: r.trial_bers }
    }

    /// Aggregates trials exactly as `run_point` does.
    fn from_trials(trials: &[Trial]) -> Point {
        let mut trial_bers: Vec<f64> =
            trials.iter().map(|&(e, _, _)| e.min(BITS) as f64 / BITS as f64).collect();
        trial_bers.sort_by(|a, b| a.partial_cmp(b).expect("finite BER"));
        Point {
            errors: trials.iter().map(|&(e, _, _)| e.min(BITS) as u64).sum(),
            packet_errors: trials.iter().filter(|&&(_, p, _)| p).count() as u64,
            trial_bers,
        }
    }
}

impl Bench for McBench {
    fn cycle(&mut self, k: u64, traced: bool) -> CycleOut {
        let mut out = CycleOut::default();
        let mut bytes = Vec::new();
        let mut bit_errors = Vec::new();
        let mut packet_errors = Vec::new();
        for i in 0..self.scenarios.len() {
            let cfg = self.config(k, i);
            let started = Instant::now();
            let point = if traced {
                self.point_traced(k, i, &cfg, &mut out).map(|trials| {
                    self.traced_trials += trials.len() as u64;
                    self.sync_lost += trials.iter().filter(|t| t.2).count() as u64;
                    Point::from_trials(&trials)
                })
            } else {
                let s = &self.scenarios[i];
                let source = &*self.sources[i];
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    run_point_with_source(s, &cfg, source)
                }))
                .ok()
                .map(Point::from_result)
            };
            out.op_ms.push(started.elapsed().as_secs_f64() * 1e3);
            match point {
                Some(p) => {
                    out.units += cfg.trials as u64;
                    bytes.extend(p.errors.to_le_bytes());
                    bytes.extend(p.packet_errors.to_le_bytes());
                    bytes.extend(p.trial_bers.iter().flat_map(|b| b.to_bits().to_le_bytes()));
                    bit_errors.push(Json::Num(p.errors as f64));
                    packet_errors.push(Json::Num(p.packet_errors as f64));
                }
                None => {
                    out.failed += 1;
                    bytes.extend(u64::MAX.to_le_bytes());
                    bit_errors.push(Json::Null);
                    packet_errors.push(Json::Null);
                }
            }
        }
        out.digest = fnv1a64(&bytes);
        out.summary = Json::obj([
            ("bit_errors", Json::Arr(bit_errors)),
            ("packet_errors", Json::Arr(packet_errors)),
        ]);
        out
    }

    fn check_warmup(&self, warmup: &CycleOut) -> Vec<String> {
        if warmup.failed > 0 {
            return vec!["a warm-up operating point failed".into()];
        }
        if self.kind != McKind::LinkBudget {
            return Vec::new();
        }
        // Link-budget oracles that hold for every seed: a 100 m river link
        // closes without a bit error, and errors never fall as range grows.
        let errors: Vec<f64> = warmup
            .summary
            .get("bit_errors")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        let mut problems = Vec::new();
        if errors.first() != Some(&0.0) {
            problems
                .push(format!("bit errors {errors:?} at {RANGES_M:?} m: want none at the first"));
        }
        if errors.windows(2).any(|w| w[1] < w[0]) {
            problems.push(format!("bit errors fall with range: {errors:?}"));
        }
        problems
    }

    fn layer_metrics(&self, spans: &[SpanRec]) -> Vec<(&'static str, f64)> {
        let by_name = crate::trace::stats_by_name(spans);
        let get = |name: &str| by_name.get(name).copied().unwrap_or_default();
        let mut m = vec![
            ("link.encode.us", get("link.encode").self_us()),
            ("link.decode.us", get("link.decode").self_us()),
            ("link.decode.allocs", get("link.decode").self_allocs()),
            ("sim.trial.us", get("sim.trial").self_us()),
        ];
        if self.kind != McKind::LinkBudget {
            m.extend([
                ("channel.realize.us", get("channel.realize").self_us()),
                ("channel.realize.allocs", get("channel.realize").self_allocs()),
                ("sim.transport.ms", get("sim.transport").self_ms()),
                ("sim.transport.allocs", get("sim.transport").self_allocs()),
                ("sim.sync_lost_frac", self.sync_lost as f64 / self.traced_trials.max(1) as f64),
            ]);
        }
        if self.kind == McKind::Replay {
            m.push(("replay.bank_load.ms", stats::mean(&self.bank_load_ms)));
        }
        m
    }
}

/// Whitening, FEC and interleaving, as the node's link layer applies them.
fn encode(link: &LinkConfig, info: &[bool]) -> Vec<bool> {
    let mut b = info.to_vec();
    if link.whitening {
        b = vab_link::whiten::whiten(&b);
    }
    b = link.fec.encode(&b);
    if let Some(il) = &link.interleaver {
        b = il.interleave(&b);
    }
    b
}

/// The link-budget engine's trial: the budget and multipath fading set a
/// channel-bit error probability, a Gaussian soft channel reproduces it,
/// and the real decoder runs on the result.
fn link_budget_trial(s: &Scenario, fe: &FrontEnd, rng: &mut StdRng, id: u64) -> Trial {
    let base = LinkBudget::compute_with_front_end(s, fe);
    let ebn0_db = base.ebn0_db + fading_delta_db(s, rng);
    let link = s.link_config();
    assert_eq!(link.fec, Fec::Conv, "the VAB stack decodes soft Viterbi");
    let ecn0 = 10f64.powf(ebn0_db / 10.0) * link.fec.rate();
    let p_chan = ber_noncoherent_orthogonal(ecn0);
    let info = random_bits(rng, BITS);
    let coded = span("link.encode", id, || encode(&link, &info));
    let sigma = if p_chan >= 0.5 { 1e6 } else { 1.0 / vab_util::special::q_inv(p_chan.max(1e-12)) };
    let soft: Vec<f64> =
        coded.iter().map(|&b| if b { 1.0 } else { -1.0 } + sigma * gaussian(rng)).collect();
    let decoded = span("link.decode", id, || {
        let mut soft = soft;
        if let Some(il) = &link.interleaver {
            soft.truncate(soft.len() / il.block_len() * il.block_len());
            soft = il.deinterleave_soft(&soft);
        }
        let mut b = vab_link::fec::conv_decode_soft(&soft);
        if link.whitening {
            b = vab_link::whiten::whiten(&b);
        }
        b
    });
    let errors = info
        .iter()
        .zip(decoded.iter().chain(std::iter::repeat(&false)))
        .filter(|(a, b)| a != b)
        .count();
    (errors, errors > 0, false)
}

/// The sample-level trial: encode, waveform transport through the
/// channel source, demodulate and decode.
fn sample_trial(
    s: &Scenario,
    fe: &FrontEnd,
    source: &dyn ChannelSource,
    rng: &mut StdRng,
    id: u64,
) -> Trial {
    let link = s.link_config();
    let info = random_bits(rng, BITS);
    let channel_bits = span("link.encode", id, || encode(&link, &info));
    let timed = TimedSource { inner: source, id };
    let Some(up) =
        span("sim.transport", id, || transport_uplink_via(s, fe, &channel_bits, 1.0, &timed, rng))
    else {
        return (BITS, true, true);
    };
    let mut decoded = span("link.decode", id, || decode_uplink(&link, &up));
    decoded.truncate(BITS);
    let errors = count_bit_errors(&info, &decoded);
    (errors, errors > 0, false)
}

/// Times channel realization inside the transport span.
struct TimedSource<'a> {
    inner: &'a dyn ChannelSource,
    id: u64,
}

impl ChannelSource for TimedSource<'_> {
    fn realize(&self, scenario: &Scenario, fs: f64, rng: &mut StdRng) -> RealizedChannel {
        span("channel.realize", self.id, || self.inner.realize(scenario, fs, rng))
    }
}
