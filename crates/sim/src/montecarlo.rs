//! Seeded, parallel Monte Carlo over channel realizations.
//!
//! Each trial draws a fresh multipath/Doppler realization (the analogue of
//! one field trial among the paper's 1,500), runs payload bits through the
//! selected engine, and accumulates exact error counts. Trials shard into
//! tasks on the compute pool ([`vab_util::threads::par_map`]), and a figure
//! can hand every (point, shard) of its grid over as one batch
//! ([`run_grid`]); every trial derives its RNG stream from the master seed,
//! so results are bit-reproducible regardless of thread count. What a
//! link-budget trial shares with the rest of its point (budget, link stack,
//! arrival set) is built once per point (`TrialPlan`), and a figure that
//! reads only Eb/N0 stops its trials there ([`run_grid_ebn0`]).

use crate::baseline::FrontEnd;
use crate::chansource::{ChannelSource, SyntheticSource};
use crate::linkbudget::LinkBudget;
use crate::samplelevel::run_sample_trial_via;
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rand::{Rng, RngExt};
use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;
use vab_acoustics::channel::{Arrival, ChannelModel};
use vab_fault::{FaultPlan, TrialFaults};
use vab_link::frame::LinkConfig;
use vab_phy::ber::{ber_noncoherent_orthogonal, BerCounter};
use vab_util::complex::C64;
use vab_util::rng::{derive_seed, random_bits, seeded};
use vab_util::stats::RunningStats;

/// Dedicated stream tag for the deterministic "does this packet land in a
/// harvest blackout window" draw (independent of the channel RNG stream).
const BLACKOUT_STREAM: u64 = 0x0B1A_C007;

/// Typed failure of a Monte Carlo run — a shard can die (a panic in an
/// engine), and callers automating large campaigns want an error they can
/// log and skip instead of a process abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonteCarloError {
    /// A shard panicked; carries its index within the point and the panic
    /// message when it was a string.
    WorkerPanicked {
        /// Which shard died.
        shard: usize,
        /// Best-effort panic payload.
        message: String,
    },
}

impl fmt::Display for MonteCarloError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WorkerPanicked { shard, message } => {
                write!(f, "Monte Carlo worker {shard} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for MonteCarloError {}

/// Best-effort rendering of a worker panic payload. `panic!` with a format
/// string yields `String`, a literal yields `&str`; `std::panic::panic_any`
/// can carry anything, in which case the concrete type is unrecoverable
/// from `dyn Any` — report the `TypeId` so the payload is at least
/// distinguishable instead of silently dropping it.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        format!("non-string panic payload ({:?})", payload.type_id())
    }
}

/// Which simulation fidelity runs each trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialEngine {
    /// Sonar equation + closed-form channel-bit error probability + real
    /// link-layer codecs. Fast.
    LinkBudget,
    /// Full complex-baseband DSP through the multipath channel. Slow.
    SampleLevel,
}

/// Monte Carlo configuration.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloConfig {
    /// Independent channel realizations.
    pub trials: usize,
    /// Information bits per trial (one "packet").
    pub bits_per_trial: usize,
    /// Master seed.
    pub seed: u64,
    /// Simulation fidelity.
    pub engine: TrialEngine,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
}

impl MonteCarloConfig {
    /// A sensible default: 100 trials × 256 bits, link-budget engine.
    pub fn fast(seed: u64) -> Self {
        Self { trials: 100, bits_per_trial: 256, seed, engine: TrialEngine::LinkBudget, threads: 0 }
    }

    /// Sample-level validation config (fewer trials — it is ~1000× slower).
    pub fn sample_level(seed: u64) -> Self {
        Self { trials: 10, bits_per_trial: 128, seed, engine: TrialEngine::SampleLevel, threads: 0 }
    }
}

/// Aggregated result of one operating point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Exact bit-error bookkeeping (aggregate over all trials).
    pub ber: BerCounter,
    /// Packets with ≥ 1 residual error.
    pub packet_errors: u64,
    /// Trials run.
    pub trials: u64,
    /// Per-trial effective Eb/N0 statistics (dB, fading included).
    pub ebn0: RunningStats,
    /// Per-trial BER values, one per channel realization ("deployment").
    pub trial_bers: Vec<f64>,
}

impl PointResult {
    /// Median per-deployment BER — the statistic a field campaign actually
    /// reports: each trial is one deployment geometry, and the published
    /// "range at BER 10⁻³" reflects the *typical* deployment, with fade
    /// outliers visible as scatter rather than pulling the mean.
    pub fn median_ber(&self) -> f64 {
        if self.trial_bers.is_empty() {
            0.0
        } else {
            vab_util::stats::median(&self.trial_bers)
        }
    }

    /// Packet error rate.
    pub fn per(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.packet_errors as f64 / self.trials as f64
        }
    }
}

/// Round-trip multipath factor for one channel realization, in dB of
/// received *power* relative to the direct-path-only budget.
///
/// The two architectures interact with multipath in fundamentally different
/// ways — this is one of the paper's quiet advantages:
///
/// * **Retrodirective (VAB)**: a Van Atta array phase-conjugates whatever
///   wavefront hits it, so *each multipath component retraces its own path*
///   and the round-trip contributions add with aligned phase — a **power
///   sum** `Σ|aᵢ|²` (the time-reversal property). Multipath never fades the
///   link; it mildly helps. A small conjugation-efficiency factor accounts
///   for the finite aperture and element pattern at bounce angles.
/// * **Point scatterer (PAB) / conventional array**: down- and uplink each
///   see the coherent sum `Σ aᵢ·e^{jθᵢ}`; reciprocity squares it, so the
///   received power goes as `|H|⁴` — deep, bursty fades.
///
/// Bounce-path phases get a per-trial random component (platform sway of a
/// centimetre re-rolls them at 18.5 kHz).
///
/// Public so `vab-net` can derive per-node multipath fading from the same
/// image-method realization the Monte Carlo engine uses — a spatial
/// deployment is just many scenarios sharing one environment.
pub fn fading_delta_db(scenario: &Scenario, rng: &mut StdRng) -> f64 {
    let _t = vab_obs::time_stage("sim.channel_realization");
    let ch = ChannelModel::new(
        scenario.env.clone(),
        scenario.reader_pos,
        scenario.node_pos,
        scenario.carrier(),
    );
    let arrivals = ch.arrivals(rng);
    if arrivals.is_empty() {
        return 0.0;
    }
    let direct = arrivals
        .iter()
        .find(|a| a.is_direct())
        .map(|a| a.gain.abs())
        .unwrap_or_else(|| arrivals[0].gain.abs());
    if direct <= 0.0 {
        return 0.0;
    }
    match scenario.system {
        crate::baseline::SystemKind::Vab { .. } => {
            // Power sum over retraced paths; bounce paths conjugate with
            // ~60 % amplitude efficiency (finite aperture, element pattern
            // at the bounce elevation angles).
            const CONJ_EFF: f64 = 0.6;
            let total: f64 = arrivals
                .iter()
                .map(|a| {
                    let eff = if a.is_direct() { 1.0 } else { CONJ_EFF };
                    (eff * a.gain.abs()).powi(2)
                })
                .sum();
            10.0 * (total / (direct * direct)).log10()
        }
        _ => {
            let h: vab_util::complex::C64 = arrivals
                .iter()
                .map(|a| {
                    let phase =
                        if a.is_direct() { 0.0 } else { rng.random::<f64>() * vab_util::TAU };
                    a.gain
                        * vab_util::complex::C64::cis(
                            -vab_util::TAU * scenario.carrier().value() * a.delay_s + phase,
                        )
                })
                .sum();
            // The narrowband null cannot be arbitrarily deep across the
            // whole signal band: chips occupy ~4× the bit rate, so paths
            // separated by more than a chip period decorrelate and leave a
            // frequency-diversity floor on the flat-fade depth.
            let ratio = (h.abs() / direct).max(0.35);
            // Amplitude ratio each way → ratio² round-trip amplitude →
            // ratio⁴ in power.
            40.0 * ratio.log10()
        }
    }
}

/// What every link-budget trial of one operating point shares, built once
/// per point instead of once per trial: the static budget on the point's
/// front end, the link stack, and the image-method arrival set behind
/// [`fading_delta_db`] with its per-trial randomness taken out.
///
/// The arrival enumeration's only random draws are the surface-wave
/// phases, and the fade reads only gains, delays and bounce counts, so a
/// trial needs the realization's *draw count*, not its draws: the plan
/// advances the trial's RNG past that many draws and redraws only what the
/// fade reads (the PAB/conventional bounce-path phases). A trial therefore
/// sees exactly the Eb/N0 and leaves its RNG exactly where
/// `LinkBudget::compute_with_front_end(..).ebn0_db + fading_delta_db(..)`
/// would.
struct TrialPlan {
    /// `LinkBudget::compute_with_front_end` on the point's front end, dB.
    budget_ebn0_db: f64,
    /// The scenario's link stack.
    link: LinkConfig,
    /// RNG draws the arrival enumeration makes. Counted as drawn, not as
    /// kept: the delay dedup can drop a surface path that already drew.
    enumeration_draws: usize,
    fade: Fade,
}

/// The multipath term of [`fading_delta_db`] for one fixed geometry.
enum Fade {
    /// No draw after the enumeration: the retrodirective power sum, or a
    /// channel without a usable direct path.
    Fixed(f64),
    /// The coherent round trip: bounce-path phases redrawn per trial.
    Coherent {
        /// The realization's arrivals, sorted by delay.
        arrivals: Vec<Arrival>,
        /// Direct-path amplitude the sum is normalized by.
        direct: f64,
        /// Carrier, Hz.
        carrier_hz: f64,
    },
}

/// An [`Rng`] that only counts the draws made on it (each one yields 0).
struct DrawCounter(usize);

impl Rng for DrawCounter {
    fn next_u64(&mut self) -> u64 {
        self.0 += 1;
        0
    }
}

impl TrialPlan {
    fn new(scenario: &Scenario, fe: &FrontEnd) -> Self {
        let mut draws = DrawCounter(0);
        let fade = {
            let _t = vab_obs::time_stage("sim.channel_realization");
            let ch = ChannelModel::new(
                scenario.env.clone(),
                scenario.reader_pos,
                scenario.node_pos,
                scenario.carrier(),
            );
            Fade::new(scenario, ch.arrivals(&mut draws))
        };
        Self {
            budget_ebn0_db: LinkBudget::compute_with_front_end(scenario, fe).ebn0_db,
            link: scenario.link_config(),
            enumeration_draws: draws.0,
            fade,
        }
    }

    /// One trial's effective Eb/N0 before fault deltas, dB, drawn from
    /// `rng` exactly as the budget plus [`fading_delta_db`] draw it.
    fn ebn0_db(
        &self,
        scenario: &Scenario,
        fe_override: Option<&FrontEnd>,
        rng: &mut StdRng,
    ) -> f64 {
        // Element faults rebuilt this trial's front end: budget it afresh.
        let budget = fe_override.map_or(self.budget_ebn0_db, |fe| {
            LinkBudget::compute_with_front_end(scenario, fe).ebn0_db
        });
        for _ in 0..self.enumeration_draws {
            rng.next_u64();
        }
        budget + self.fade.delta_db(rng)
    }
}

impl Fade {
    /// The fade of `arrivals` as [`fading_delta_db`] computes it, with the
    /// bounce phases of the coherent sum left to [`Fade::delta_db`].
    fn new(scenario: &Scenario, arrivals: Vec<Arrival>) -> Self {
        let Some(first) = arrivals.first() else {
            return Fade::Fixed(0.0);
        };
        let direct = arrivals
            .iter()
            .find(|a| a.is_direct())
            .map_or_else(|| first.gain.abs(), |a| a.gain.abs());
        if direct <= 0.0 {
            return Fade::Fixed(0.0);
        }
        match scenario.system {
            crate::baseline::SystemKind::Vab { .. } => {
                // Retraced paths add in power; bounce paths conjugate at 60 %.
                const CONJ_EFF: f64 = 0.6;
                let total: f64 = arrivals
                    .iter()
                    .map(|a| {
                        let eff = if a.is_direct() { 1.0 } else { CONJ_EFF };
                        (eff * a.gain.abs()).powi(2)
                    })
                    .sum();
                Fade::Fixed(10.0 * (total / (direct * direct)).log10())
            }
            _ => Fade::Coherent { arrivals, direct, carrier_hz: scenario.carrier().value() },
        }
    }

    /// One trial's fade, dB; draws one phase per bounce path from `rng`.
    fn delta_db(&self, rng: &mut StdRng) -> f64 {
        match self {
            Fade::Fixed(db) => *db,
            Fade::Coherent { arrivals, direct, carrier_hz } => {
                let h: C64 = arrivals
                    .iter()
                    .map(|a| {
                        let phase =
                            if a.is_direct() { 0.0 } else { rng.random::<f64>() * vab_util::TAU };
                        a.gain * C64::cis(-vab_util::TAU * carrier_hz * a.delay_s + phase)
                    })
                    .sum();
                40.0 * (h.abs() / direct).max(0.35).log10()
            }
        }
    }
}

/// One link-budget-engine trial: returns (bit errors, packet error, Eb/N0 dB).
/// `delta_db` is an additive fault-injection term on the effective Eb/N0
/// (0.0 for nominal trials); `fe_override` is a front end rebuilt for this
/// trial's element faults.
fn link_budget_trial(
    plan: &TrialPlan,
    scenario: &Scenario,
    fe_override: Option<&FrontEnd>,
    bits_per_trial: usize,
    rng: &mut StdRng,
    delta_db: f64,
) -> (usize, bool, f64) {
    let _t = vab_obs::time_stage("sim.linkbudget_trial");
    let ebn0_db = plan.ebn0_db(scenario, fe_override, rng) + delta_db;
    let link = plan.link;
    let ebn0_lin = 10f64.powf(ebn0_db / 10.0);
    // Energy per *channel* bit is the info-bit energy × code rate.
    let ecn0 = ebn0_lin * link.fec.rate();
    let p_chan = ber_noncoherent_orthogonal(ecn0);
    // Real codecs, synthetic channel: flip channel bits i.i.d.
    let info = random_bits(rng, bits_per_trial);
    let mut coded = link.encode_bits(&info);
    let decoded = if link.fec == vab_link::fec::Fec::Conv {
        // The reader decodes convolutional codes with *soft* Viterbi. Model
        // the per-channel-bit soft metric as a unit signal in Gaussian
        // noise whose sigma reproduces the raw error probability p_chan.
        let sigma =
            if p_chan >= 0.5 { 1e6 } else { 1.0 / vab_util::special::q_inv(p_chan.max(1e-12)) };
        let soft: Vec<f64> = coded
            .iter()
            .map(|&b| {
                let s = if b { 1.0 } else { -1.0 };
                s + sigma * vab_util::rng::gaussian(rng)
            })
            .collect();
        link.decode_soft(&soft)
    } else {
        for bit in coded.iter_mut() {
            if rng.random::<f64>() < p_chan {
                *bit = !*bit;
            }
        }
        link.decode_bits(&coded)
    };
    let errors = info
        .iter()
        .zip(decoded.iter().chain(std::iter::repeat(&false)))
        .filter(|(a, b)| a != b)
        .count();
    (errors, errors > 0, ebn0_db)
}

/// How faults reach the trials of one operating point.
#[derive(Debug, Clone, Copy)]
enum FaultSource<'a> {
    /// No fault injection (nominal physics).
    None,
    /// Per-trial faults drawn from the plan (fault sweeps, determinism
    /// tests): trial `t` gets `plan.trial_faults(t, …)`.
    Plan(&'a FaultPlan),
    /// The same pre-sampled faults for every trial of this point (the
    /// campaign samples faults once per deployment and runs one packet).
    Fixed(&'a TrialFaults),
}

/// Translates one trial's faults into the engine-level impairment:
/// `(front-end override, Eb/N0 delta dB, reply lost, reply truncated)`.
fn trial_impairment(
    scenario: &Scenario,
    fe: &FrontEnd,
    faults: &TrialFaults,
    trial: u64,
) -> (Option<FrontEnd>, f64, bool, bool) {
    let fe_override = fe.with_element_faults(&faults.elements, scenario.carrier());
    // Modulation-depth loss from resonance drift scales received *power*
    // as amplitude²; channel impairments subtract straight dB.
    let delta_db = 20.0 * faults.depth_scale.max(1e-9).log10() - faults.channel.extra_loss_db();
    let mut lost = faults.channel.dropout;
    if faults.energy.blackout_frac > 0.0 {
        // Did this packet's wake-up land inside the blackout window? A
        // dedicated deterministic draw keyed on the trial index keeps the
        // channel RNG stream untouched.
        let u = (derive_seed(BLACKOUT_STREAM, trial) % 4096) as f64 / 4096.0;
        lost |= u < faults.energy.blackout_frac;
    }
    (fe_override, delta_db, lost, faults.energy.brownout_mid_reply)
}

/// One operating point of a [`run_grid`] batch or a [`try_run_point`]
/// call: a scenario, the front end its trials run on, and how faults and
/// the sample-level channel reach those trials.
///
/// The front end is the costly part to build (its load co-design search),
/// so a caller that sweeps range, rate or trials builds one per system and
/// reuses it; ablations pass modified arrays — failed elements, mismatched
/// lines, custom states.
#[derive(Clone)]
pub struct GridPoint<'a> {
    scenario: Cow<'a, Scenario>,
    fe: &'a FrontEnd,
    faults: FaultSource<'a>,
    source: &'a dyn ChannelSource,
}

impl<'a> GridPoint<'a> {
    /// A nominal point on front end `fe`: no faults, synthesized channels.
    pub fn new(scenario: Scenario, fe: &'a FrontEnd) -> Self {
        Self::from_cow(Cow::Owned(scenario), fe)
    }

    /// [`GridPoint::new`] over a borrowed scenario, without cloning it.
    pub fn borrowed(scenario: &'a Scenario, fe: &'a FrontEnd) -> Self {
        Self::from_cow(Cow::Borrowed(scenario), fe)
    }

    fn from_cow(scenario: Cow<'a, Scenario>, fe: &'a FrontEnd) -> Self {
        Self { scenario, fe, faults: FaultSource::None, source: &SyntheticSource }
    }

    /// Trial `t` runs under `plan.trial_faults(t, n_elements)`: element
    /// failures rebuild the front end, resonance drift and channel
    /// impairments shift the effective Eb/N0, blackouts/dropouts lose the
    /// packet, mid-reply brownouts truncate it.
    pub fn faulted(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = FaultSource::Plan(plan);
        self
    }

    /// Every trial runs under the same pre-sampled `faults` (the campaign
    /// path: faults are sampled per deployment, and each deployment is a
    /// single-packet point).
    pub fn with_faults(mut self, faults: &'a TrialFaults) -> Self {
        self.faults = FaultSource::Fixed(faults);
        self
    }

    /// Sample-level trials take their channel from `source` — the replay
    /// seam: pass a [`crate::chansource::BankSource`] and every trial
    /// convolves against the recorded TVIR bank instead of synthesizing a
    /// channel. Only meaningful with [`TrialEngine::SampleLevel`] (the
    /// link-budget engine has no waveform to replay).
    pub fn with_source(mut self, source: &'a dyn ChannelSource) -> Self {
        self.source = source;
        self
    }
}

/// Runs all trials for one operating point on the scenario's own front end.
pub fn run_point(scenario: &Scenario, cfg: &MonteCarloConfig) -> PointResult {
    let fe = scenario.front_end();
    try_run_point(GridPoint::borrowed(scenario, &fe), cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_point`] with the sample-level channel supplied by `source` (see
/// [`GridPoint::with_source`]).
pub fn run_point_with_source(
    scenario: &Scenario,
    cfg: &MonteCarloConfig,
    source: &dyn ChannelSource,
) -> PointResult {
    let fe = scenario.front_end();
    let point = GridPoint::borrowed(scenario, &fe).with_source(source);
    try_run_point(point, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs all trials for one operating point. Worker panics surface as a
/// typed [`MonteCarloError`] instead of aborting the caller.
pub fn try_run_point(
    point: GridPoint<'_>,
    cfg: &MonteCarloConfig,
) -> Result<PointResult, MonteCarloError> {
    let _span = vab_obs::Span::enter("sim.montecarlo", "run_point");
    run_points(std::slice::from_ref(&point), cfg, Depth::Decode)
        .pop()
        .expect("one point in, one result out")
}

/// Runs every point of a figure under one config as a single batch on the
/// compute pool ([`vab_util::threads::par_map`]): each point is split into
/// the shards [`try_run_point`] would give it, and every (point, shard) pair is
/// one task. Results come back in `points` order, each identical to the
/// point run on its own — counts, `trial_bers` and the Eb/N0 statistics to
/// the last bit.
pub fn run_grid(points: &[GridPoint<'_>], cfg: &MonteCarloConfig) -> Vec<PointResult> {
    let _span = vab_obs::Span::enter("sim.montecarlo", "run_grid");
    run_points(points, cfg, Depth::Decode)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

/// The per-trial Eb/N0 statistics of every point, exactly as [`run_grid`]
/// reports them in [`PointResult::ebn0`], without what a trial does after
/// its Eb/N0 is known: no payload bits, noise or decoding. A trial draws
/// its Eb/N0 before anything else from its RNG stream, and the shards
/// split and merge as in [`run_grid`], so the statistics agree to the last
/// bit. Link-budget engine only.
pub fn run_grid_ebn0(points: &[GridPoint<'_>], cfg: &MonteCarloConfig) -> Vec<RunningStats> {
    assert_eq!(cfg.engine, TrialEngine::LinkBudget, "only link-budget trials stop at Eb/N0");
    let _span = vab_obs::Span::enter("sim.montecarlo", "run_grid_ebn0");
    run_points(points, cfg, Depth::Ebn0)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")).ebn0)
        .collect()
}

/// How far each link-budget trial runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Depth {
    /// The whole chain: payload, soft channel, decode, error count.
    Decode,
    /// Stop once the trial's Eb/N0 is drawn ([`run_grid_ebn0`]).
    Ebn0,
}

/// The engine behind every entry point. A point's trials split into
/// `threads` contiguous shards of `trials.div_ceil(threads)` (the last one
/// shorter, empty ones dropped); each trial seeds its own RNG from the
/// master seed and its index, and a point merges its shards in shard
/// order, so nothing depends on which pool thread ran a shard or when.
/// A link-budget point's [`TrialPlan`] is built once, by whichever of its
/// shards needs it first.
fn run_points(
    points: &[GridPoint<'_>],
    cfg: &MonteCarloConfig,
    depth: Depth,
) -> Vec<Result<PointResult, MonteCarloError>> {
    let threads =
        if cfg.threads == 0 { vab_util::threads() } else { cfg.threads }.min(cfg.trials.max(1));
    let trials_per = cfg.trials.div_ceil(threads);
    let shards: Vec<(usize, usize)> = (0..threads)
        .map(|t| (t * trials_per, ((t + 1) * trials_per).min(cfg.trials)))
        .take_while(|(lo, hi)| lo < hi)
        .collect();
    let plans: Vec<OnceLock<TrialPlan>> = points.iter().map(|_| OnceLock::new()).collect();
    let mut outcomes = vab_util::threads::par_map(points.len() * shards.len(), |task| {
        let (lo, hi) = shards[task % shards.len()];
        let p = task / shards.len();
        run_shard(&points[p], &plans[p], cfg, depth, lo, hi)
    })
    .into_iter();
    points
        .iter()
        .map(|_| {
            let mut total = PointResult {
                ber: BerCounter::new(),
                packet_errors: 0,
                trials: 0,
                ebn0: RunningStats::new(),
                trial_bers: Vec::with_capacity(cfg.trials),
            };
            for shard in 0..shards.len() {
                let s = outcomes.next().expect("one outcome per task").map_err(|payload| {
                    MonteCarloError::WorkerPanicked {
                        shard,
                        message: panic_message(payload.as_ref()),
                    }
                })?;
                total.ber.merge(&s.ber);
                total.packet_errors += s.packet_errors;
                total.trials += s.trials;
                total.ebn0.merge(&s.ebn0);
                total.trial_bers.extend_from_slice(&s.trial_bers);
            }
            // Keep trial order deterministic regardless of shard join order.
            total.trial_bers.sort_by(|a, b| a.partial_cmp(b).expect("finite BER"));
            vab_obs::event!(
                "sim.montecarlo",
                "point_done",
                trials = total.trials,
                bit_errors = total.ber.errors(),
                packet_errors = total.packet_errors,
                threads = threads,
            );
            vab_obs::metrics::inc("mc.trials", total.trials);
            vab_obs::metrics::inc("mc.packet_errors", total.packet_errors);
            Ok(total)
        })
        .collect()
}

/// Runs trials `lo..hi` of one point.
fn run_shard(
    point: &GridPoint<'_>,
    plan: &OnceLock<TrialPlan>,
    cfg: &MonteCarloConfig,
    depth: Depth,
    lo: usize,
    hi: usize,
) -> PointResult {
    let (scenario, fe) = (point.scenario.as_ref(), point.fe);
    // Built by the first trial that needs it: a point whose every reply
    // is lost never realizes its channel.
    let plan = || plan.get_or_init(|| TrialPlan::new(scenario, fe));
    let n_elements = scenario.system.n_elements();
    let mut ber = BerCounter::new();
    let mut packet_errors = 0u64;
    let mut ebn0 = RunningStats::new();
    let mut trial_bers = Vec::with_capacity(hi - lo);
    for trial in lo..hi {
        let mut rng = seeded(derive_seed(cfg.seed, trial as u64));
        let trial_faults = match point.faults {
            FaultSource::None => None,
            FaultSource::Plan(p) => Some(p.trial_faults(trial as u64, n_elements)),
            FaultSource::Fixed(f) => Some(f.clone()),
        };
        let (fe_override, delta_db, lost, truncated) = match &trial_faults {
            None => (None, 0.0, false, false),
            Some(f) => trial_impairment(scenario, fe, f, trial as u64),
        };
        let fe_trial = fe_override.as_ref().unwrap_or(fe);
        let (mut errors, mut pkt_err, snr) = if lost {
            // The reply never aired (blackout / dropout): the reader's
            // detector integrates pure noise — half the bits wrong, packet
            // gone.
            let base = LinkBudget::compute_with_front_end(scenario, fe_trial);
            (cfg.bits_per_trial / 2, true, base.ebn0_db + delta_db)
        } else {
            match cfg.engine {
                TrialEngine::LinkBudget if depth == Depth::Ebn0 => {
                    (0, false, plan().ebn0_db(scenario, fe_override.as_ref(), &mut rng) + delta_db)
                }
                TrialEngine::LinkBudget => link_budget_trial(
                    plan(),
                    scenario,
                    fe_override.as_ref(),
                    cfg.bits_per_trial,
                    &mut rng,
                    delta_db,
                ),
                TrialEngine::SampleLevel => run_sample_trial_via(
                    scenario,
                    fe_trial,
                    cfg.bits_per_trial,
                    10f64.powf(delta_db / 20.0),
                    point.source,
                    &mut rng,
                ),
            }
        };
        if lost {
            vab_obs::event!("sim.montecarlo", "reply_lost", trial = trial as u64);
            vab_obs::metrics::inc("mc.lost_replies", 1);
        }
        if truncated {
            // Brown-out mid-reply: the packet tail never airs, so the CRC
            // fails and the lost tail reads as noise.
            errors += cfg.bits_per_trial / 4;
            pkt_err = true;
            vab_obs::event!("sim.montecarlo", "brownout_truncated_reply", trial = trial as u64,);
            vab_obs::metrics::inc("mc.brownout_truncations", 1);
        }
        let errors = errors.min(cfg.bits_per_trial);
        ber.record(errors, cfg.bits_per_trial);
        trial_bers.push(errors as f64 / cfg.bits_per_trial as f64);
        if pkt_err {
            packet_errors += 1;
        }
        ebn0.push(snr);
    }
    PointResult { ber, packet_errors, trials: (hi - lo) as u64, ebn0, trial_bers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::SystemKind;
    use proptest::prelude::*;
    use vab_acoustics::environment::SeaState;
    use vab_util::units::Meters;

    fn cfg(trials: usize, bits: usize) -> MonteCarloConfig {
        MonteCarloConfig {
            trials,
            bits_per_trial: bits,
            seed: 7,
            engine: TrialEngine::LinkBudget,
            threads: 0,
        }
    }

    fn run_faulted(s: &Scenario, c: &MonteCarloConfig, plan: &FaultPlan) -> PointResult {
        let fe = s.front_end();
        try_run_point(GridPoint::borrowed(s, &fe).faulted(plan), c).expect("no worker panic")
    }

    #[test]
    fn close_range_is_error_free() {
        let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(20.0));
        let r = run_point(&s, &cfg(20, 256));
        assert_eq!(r.ber.errors(), 0, "BER at 20 m should be zero");
        assert_eq!(r.per(), 0.0);
    }

    #[test]
    fn absurd_range_is_coin_flip() {
        let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(10_000.0));
        let r = run_point(&s, &cfg(10, 256));
        assert!(r.ber.ber() > 0.3, "BER at 10 km should approach 0.5, got {}", r.ber.ber());
    }

    #[test]
    fn ber_grows_with_range() {
        // PAB fading is bursty, so compare well-separated ranges with
        // plenty of trials.
        let ber_at = |d: f64| {
            let s = Scenario::river(SystemKind::Pab, Meters(d));
            run_point(&s, &cfg(80, 256)).ber.ber()
        };
        let near = ber_at(15.0);
        let far = ber_at(150.0);
        assert!(near + 0.1 < far, "near {near} far {far}");
    }

    #[test]
    fn reproducible_across_thread_counts() {
        let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(280.0));
        let mut c1 = cfg(16, 128);
        c1.threads = 1;
        let mut c4 = cfg(16, 128);
        c4.threads = 4;
        let r1 = run_point(&s, &c1);
        let r4 = run_point(&s, &c4);
        assert_eq!(r1.ber.errors(), r4.ber.errors());
        assert_eq!(r1.ber.bits(), r4.ber.bits());
        assert_eq!(r1.packet_errors, r4.packet_errors);
    }

    #[test]
    fn coding_beats_uncoded_at_marginal_snr() {
        // Identical physics (same system, same channel realizations via the
        // same seed); only the link stack differs.
        let coded = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(340.0));
        let uncoded = coded.clone().with_link(vab_link::frame::LinkConfig::uncoded());
        let rc = run_point(&coded, &cfg(60, 512));
        let ru = run_point(&uncoded, &cfg(60, 512));
        assert!(ru.ber.ber() > 5e-3, "uncoded must show errors at 340 m, got {}", ru.ber.ber());
        assert!(
            rc.ber.ber() < ru.ber.ber() / 3.0,
            "coded {} should clearly beat uncoded {}",
            rc.ber.ber(),
            ru.ber.ber()
        );
    }

    #[test]
    fn off_fault_plan_matches_unfaulted_bit_for_bit() {
        use vab_fault::FaultConfig;
        let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(280.0));
        let c = cfg(24, 128);
        let plain = run_point(&s, &c);
        let plan = FaultPlan::new(c.seed, FaultConfig::off());
        let faulted = run_faulted(&s, &c, &plan);
        assert_eq!(plain.ber.errors(), faulted.ber.errors());
        assert_eq!(plain.packet_errors, faulted.packet_errors);
        assert_eq!(plain.trial_bers, faulted.trial_bers);
    }

    #[test]
    fn severe_faults_degrade_the_point() {
        use vab_fault::FaultConfig;
        let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(200.0));
        let c = cfg(60, 256);
        let nominal = run_point(&s, &c);
        let plan = FaultPlan::new(c.seed, FaultConfig::severe());
        let faulted = run_faulted(&s, &c, &plan);
        assert!(
            faulted.ber.ber() > nominal.ber.ber(),
            "severe faults must raise BER: {} vs {}",
            faulted.ber.ber(),
            nominal.ber.ber()
        );
        assert!(faulted.packet_errors > nominal.packet_errors);
    }

    #[test]
    fn faulted_point_reproducible_across_thread_counts() {
        use vab_fault::FaultConfig;
        let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(280.0));
        let plan = FaultPlan::new(9, FaultConfig::with_intensity(0.5));
        let mut c1 = cfg(16, 128);
        c1.threads = 1;
        let mut c8 = cfg(16, 128);
        c8.threads = 8;
        let r1 = run_faulted(&s, &c1, &plan);
        let r8 = run_faulted(&s, &c8, &plan);
        assert_eq!(r1.ber.errors(), r8.ber.errors());
        assert_eq!(r1.packet_errors, r8.packet_errors);
        assert_eq!(r1.trial_bers, r8.trial_bers);
    }

    #[test]
    fn panic_message_recovers_str_string_and_marks_other_payloads() {
        let p: Box<dyn std::any::Any + Send> = Box::new("literal message");
        assert_eq!(panic_message(p.as_ref()), "literal message");
        let p: Box<dyn std::any::Any + Send> = Box::new(String::from("formatted message"));
        assert_eq!(panic_message(p.as_ref()), "formatted message");
        let p: Box<dyn std::any::Any + Send> = Box::new(42i32);
        let msg = panic_message(p.as_ref());
        assert!(msg.contains("non-string panic payload"), "msg: {msg}");
        assert!(msg.contains("TypeId"), "payload type must be identified: {msg}");
        // Distinct payload types must yield distinct messages.
        let q: Box<dyn std::any::Any + Send> = Box::new(1.5f64);
        assert_ne!(panic_message(q.as_ref()), msg);
    }

    #[test]
    fn a_panicking_shard_is_a_typed_error_and_the_pool_keeps_serving() {
        struct Exploding;
        impl ChannelSource for Exploding {
            fn realize(
                &self,
                _: &Scenario,
                _: f64,
                _: &mut StdRng,
            ) -> crate::chansource::RealizedChannel {
                panic!("bank unreadable")
            }
        }
        let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(100.0));
        let fe = s.front_end();
        let mut c = cfg(4, 32);
        c.engine = TrialEngine::SampleLevel;
        c.threads = 2;
        let points = [GridPoint::new(s.clone(), &fe).with_source(&Exploding)];
        for outcome in run_points(&points, &c, Depth::Decode) {
            assert_eq!(
                outcome.expect_err("every shard panics"),
                MonteCarloError::WorkerPanicked { shard: 0, message: "bank unreadable".into() }
            );
        }
        let r = try_run_point(GridPoint::borrowed(&s, &fe), &cfg(4, 64))
            .expect("the pool still serves");
        assert_eq!(r.trials, 4);
    }

    #[test]
    fn grid_points_match_the_same_points_run_alone() {
        let fe = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(1.0)).front_end();
        let ranges = [120.0, 280.0, 340.0];
        let points: Vec<GridPoint> = ranges
            .iter()
            .map(|&d| GridPoint::new(Scenario::river(fe.kind(), Meters(d)), &fe))
            .collect();
        for threads in [1, 3, 8] {
            let mut c = cfg(10, 128);
            c.threads = threads;
            for (&d, grid) in ranges.iter().zip(run_grid(&points, &c)) {
                let alone =
                    try_run_point(GridPoint::new(Scenario::river(fe.kind(), Meters(d)), &fe), &c)
                        .expect("no worker panic");
                assert_eq!(grid.ber.errors(), alone.ber.errors());
                assert_eq!(grid.packet_errors, alone.packet_errors);
                assert_eq!(grid.trial_bers, alone.trial_bers);
                assert_eq!(grid.ebn0.mean().to_bits(), alone.ebn0.mean().to_bits(), "{threads}");
            }
        }
    }

    #[test]
    fn try_variant_returns_ok_on_clean_runs() {
        let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(50.0));
        let fe = s.front_end();
        let r = try_run_point(GridPoint::borrowed(&s, &fe), &cfg(4, 64)).expect("no worker panic");
        assert_eq!(r.trials, 4);
    }

    /// One plan-oracle geometry: river or ocean at sea state `sea` (calm
    /// through moderate), one of the three systems, and a depth layout.
    /// Layout 0 keeps the scenario's own depths. The river's reader and
    /// node both sit at 2 m, which sum to its 4 m column (a surface-first
    /// and a bottom-first image family share each delay and both stay) and
    /// are equal (the families `2(n+1)D + zr − zs` and `2(n+1)D − zr + zs`
    /// coincide with the same bounce counts, and the dedup keeps one of
    /// two paths that may both have drawn a surface phase). Layout 1 puts
    /// both ends at one depth, which does the same in the ocean; 2 splits
    /// the column 1 : 3; 3 is a generic layout.
    fn oracle_scenario(
        ocean: bool,
        sea: usize,
        system: usize,
        range: f64,
        layout: usize,
    ) -> Scenario {
        let sea = [
            SeaState::Calm,
            SeaState::Rippled,
            SeaState::Smooth,
            SeaState::Slight,
            SeaState::Moderate,
        ][sea];
        let kind = [
            SystemKind::Vab { n_pairs: 4 },
            SystemKind::Pab,
            SystemKind::ConventionalArray { n_elements: 8 },
        ][system];
        let mut s = if ocean {
            Scenario::ocean(kind, Meters(range), sea)
        } else {
            let mut s = Scenario::river(kind, Meters(range));
            s.env.sea_state = sea;
            s
        };
        let column = s.env.depth.value();
        match layout {
            0 => {}
            1 => s.node_pos.z = s.reader_pos.z,
            2 => (s.reader_pos.z, s.node_pos.z) = (0.25 * column, 0.75 * column),
            _ => (s.reader_pos.z, s.node_pos.z) = (0.2 * column, 0.55 * column),
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn trial_plan_draws_the_budget_plus_fading_oracle_bit_for_bit(
            ocean in any::<bool>(),
            sea in 0usize..5,
            system in 0usize..3,
            range in 3.0f64..900.0,
            layout in 0usize..4,
            seed in any::<u64>(),
        ) {
            let s = oracle_scenario(ocean, sea, system, range, layout);
            let fe = s.front_end();
            let plan = TrialPlan::new(&s, &fe);
            for fe_override in [None, Some(&fe)] {
                let (mut oracle, mut planned) = (seeded(seed), seeded(seed));
                let want = LinkBudget::compute_with_front_end(&s, &fe).ebn0_db
                    + fading_delta_db(&s, &mut oracle);
                let got = plan.ebn0_db(&s, fe_override, &mut planned);
                let case = format!(
                    "ocean {ocean}, {:?}, {:?}, {range} m, layout {layout}, seed {seed}",
                    s.env.sea_state, s.system
                );
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{case}: {got} vs {want}");
                prop_assert_eq!(planned.next_u64(), oracle.next_u64(), "{case}: stream position");
            }
        }
    }

    #[test]
    fn the_plan_counts_draws_the_delay_dedup_drops() {
        // The stock river geometry (reader and node both at 2 m, rippled
        // surface): coinciding surface paths each draw a phase during the
        // enumeration, and the dedup keeps one of each pair.
        let s = oracle_scenario(false, 1, 1, 60.0, 0);
        let plan = TrialPlan::new(&s, &s.front_end());
        let Fade::Coherent { arrivals, .. } = &plan.fade else { panic!("PAB fades coherently") };
        let kept = arrivals.iter().filter(|a| a.n_surface > 0).count();
        assert_eq!((plan.enumeration_draws, kept), (7, 5));
    }
}
