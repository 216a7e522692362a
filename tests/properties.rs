//! Property-based tests (proptest) on the core data structures and
//! invariants across the workspace.

use proptest::prelude::*;
use vab::link::bits::{bits_to_bytes, bytes_to_bits};
use vab::link::crc::{crc16_ccitt, crc32};
use vab::link::fec::Fec;
use vab::link::frame::{Frame, LinkConfig, MAX_PAYLOAD};
use vab::link::interleave::Interleaver;
use vab::link::whiten::whiten;
use vab::phy::fm0::{fm0_check_boundaries, fm0_decode_hard, fm0_encode};
use vab::piezo::bvd::Bvd;
use vab::piezo::reflection::{gamma, gamma_to_load, Load};
use vab::util::complex::C64;
use vab::util::db::{db_to_lin_pow, lin_pow_to_db};
use vab::util::fft::Fft;
use vab::util::resample::fractional_delay;
use vab::util::stats::RunningStats;
use vab::util::units::Hertz;

proptest! {
    // ---------------- numerics

    #[test]
    fn fft_roundtrip_any_signal(values in prop::collection::vec(-1e3f64..1e3, 64)) {
        let mut buf: Vec<C64> = values.iter().map(|&v| C64::real(v)).collect();
        let plan = Fft::new(64);
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (b, &v) in buf.iter().zip(&values) {
            prop_assert!((b.re - v).abs() < 1e-6);
            prop_assert!(b.im.abs() < 1e-6);
        }
    }

    #[test]
    fn db_roundtrip(db in -200.0f64..200.0) {
        let back = lin_pow_to_db(db_to_lin_pow(db));
        prop_assert!((back - db).abs() < 1e-9);
    }

    #[test]
    fn complex_multiplication_preserves_magnitude_product(
        a_re in -10.0f64..10.0, a_im in -10.0f64..10.0,
        b_re in -10.0f64..10.0, b_im in -10.0f64..10.0,
    ) {
        let a = C64::new(a_re, a_im);
        let b = C64::new(b_re, b_im);
        let prod = (a * b).abs();
        prop_assert!((prod - a.abs() * b.abs()).abs() < 1e-9 * (1.0 + prod));
    }

    #[test]
    fn running_stats_mean_within_bounds(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = RunningStats::new();
        for &v in &values {
            s.push(v);
        }
        prop_assert!(s.mean() >= s.min() - 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.variance() >= 0.0);
    }

    #[test]
    fn fractional_delay_conserves_peak_order(
        delay in 0.0f64..20.0,
    ) {
        // An impulse stays a localized, unit-ish pulse under any delay.
        let mut x = vec![0.0; 64];
        x[10] = 1.0;
        let y = fractional_delay(&x, delay, 16);
        let total: f64 = y.iter().sum();
        prop_assert!((total - 1.0).abs() < 0.05, "energy leaked: {total}");
    }

    #[test]
    fn fft_convolution_matches_direct_any_signal(
        x in prop::collection::vec(-10.0f64..10.0, 1..400),
        h in prop::collection::vec(-2.0f64..2.0, 64..200),
    ) {
        // Golden equivalence: the overlap-save engine must agree with the
        // direct form to FFT rounding for any signal/tap pair.
        let got = vab::util::ola::convolve_fft(&x, &h);
        let want = vab::util::filter::convolve(&x, &h);
        prop_assert_eq!(got.len(), want.len());
        let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!((g - w).abs() < 1e-9 * scale, "sample {i}: {g} vs {w}");
        }
    }

    #[test]
    fn convolve_auto_matches_direct_any_sizes(
        x in prop::collection::vec(-10.0f64..10.0, 1..300),
        h in prop::collection::vec(-2.0f64..2.0, 1..300),
    ) {
        // The crossover dispatch (direct below FFT_CROSSOVER_TAPS, FFT at
        // or above, roles swapped when the kernel is longer) never changes
        // the answer beyond rounding.
        let got = vab::util::ola::convolve_auto(&x, &h);
        let want = vab::util::filter::convolve(&x, &h);
        prop_assert_eq!(got.len(), want.len());
        let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!((g - w).abs() < 1e-9 * scale, "sample {i}: {g} vs {w}");
        }
    }

    // ---------------- link layer

    #[test]
    fn bits_bytes_roundtrip(data in prop::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn fm0_roundtrip_any_bits(bits in prop::collection::vec(any::<bool>(), 1..256)) {
        let chips = fm0_encode(&bits);
        prop_assert_eq!(fm0_check_boundaries(&chips), None);
        prop_assert_eq!(fm0_decode_hard(&chips).expect("even"), bits);
    }

    #[test]
    fn whitening_is_involution_any_bits(bits in prop::collection::vec(any::<bool>(), 0..600)) {
        prop_assert_eq!(whiten(&whiten(&bits)), bits);
    }

    #[test]
    fn crc_detects_any_single_flip(
        data in prop::collection::vec(any::<u8>(), 1..40),
        byte_idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut corrupted = data.clone();
        let i = byte_idx.index(corrupted.len());
        corrupted[i] ^= 1 << bit;
        prop_assert_ne!(crc16_ccitt(&data), crc16_ccitt(&corrupted));
        prop_assert_ne!(crc32(&data), crc32(&corrupted));
    }

    #[test]
    fn fec_roundtrips_any_bits(
        bits in prop::collection::vec(any::<bool>(), 1..128),
        which in 0usize..4,
    ) {
        let fec = [Fec::None, Fec::Repetition(3), Fec::Hamming74, Fec::Conv][which];
        let decoded = fec.decode(&fec.encode(&bits));
        prop_assert_eq!(&decoded[..bits.len()], &bits[..]);
    }

    #[test]
    fn hamming_corrects_any_single_error(
        bits in prop::collection::vec(any::<bool>(), 4),
        pos in 0usize..7,
    ) {
        let mut coded = Fec::Hamming74.encode(&bits);
        coded[pos] = !coded[pos];
        prop_assert_eq!(Fec::Hamming74.decode(&coded), bits);
    }

    #[test]
    fn interleaver_is_a_permutation(
        bits in prop::collection::vec(any::<bool>(), 1..200),
        rows in 1usize..8,
        cols in 1usize..8,
    ) {
        let il = Interleaver::new(rows, cols);
        let tx = il.interleave(&bits);
        let rx = il.deinterleave(&tx);
        prop_assert_eq!(&rx[..bits.len()], &bits[..]);
        // Population is conserved (it is a permutation + padding).
        let ones_in: usize = bits.iter().filter(|&&b| b).count();
        let ones_out: usize = tx.iter().filter(|&&b| b).count();
        prop_assert_eq!(ones_in, ones_out);
    }

    #[test]
    fn frame_roundtrip_any_payload(
        dest in any::<u8>(),
        src in any::<u8>(),
        seq in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..MAX_PAYLOAD),
    ) {
        let f = Frame::new(dest, src, seq, payload);
        prop_assert_eq!(Frame::from_bytes(&f.to_bytes()).expect("clean"), f);
    }

    #[test]
    fn coded_frame_roundtrip_any_payload(
        payload in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let link = LinkConfig::vab_default();
        let f = Frame::new(1, 2, 3, payload);
        let decoded = link.decode(&link.encode(&f)).expect("clean channel");
        prop_assert_eq!(decoded, f);
    }

    // ---------------- electro-mechanics

    #[test]
    fn passive_loads_never_amplify(
        r in 0.0f64..1e6,
        x in -1e6f64..1e6,
        khz in 5.0f64..60.0,
    ) {
        let bvd = Bvd::vab_default();
        let g = gamma(&bvd, Load::Custom(C64::new(r, x)), Hertz(khz * 1e3)).abs();
        prop_assert!(g <= 1.0 + 1e-6, "|Γ| = {g} for Z = {r}+j{x}");
    }

    #[test]
    fn gamma_load_inverse_consistency(
        mag in 0.0f64..0.95,
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        let bvd = Bvd::vab_default();
        let f = bvd.series_resonance();
        let g = C64::from_polar(mag, phase);
        let z = gamma_to_load(&bvd, g, f);
        // Any |Γ| < 1 must map to a passive load...
        prop_assert!(z.re >= -1e-6, "non-passive load {z}");
        // ...and back to the same Γ.
        let back = gamma(&bvd, Load::Custom(z), f);
        prop_assert!((back - g).abs() < 1e-6);
    }
}

// Van Atta invariants get their own block with fewer cases (heavier math).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn retro_gain_bounded_by_element_count(
        pairs in 1usize..6,
        angle in -80.0f64..80.0,
    ) {
        use vab::node::array::VanAttaArray;
        use vab::util::units::Degrees;
        let arr = VanAttaArray::vab_default(pairs, Hertz(18_500.0));
        let g = arr.retro_gain(Degrees(angle), Hertz(18_500.0));
        prop_assert!(g <= 2.0 * pairs as f64 + 1e-9, "gain {g} exceeds N");
        prop_assert!(g >= 0.0);
    }

    #[test]
    fn retro_gain_is_symmetric_in_angle(
        pairs in 1usize..6,
        angle in 0.0f64..80.0,
    ) {
        use vab::node::array::VanAttaArray;
        use vab::util::units::Degrees;
        let arr = VanAttaArray::vab_default(pairs, Hertz(18_500.0));
        let plus = arr.retro_gain(Degrees(angle), Hertz(18_500.0));
        let minus = arr.retro_gain(Degrees(-angle), Hertz(18_500.0));
        prop_assert!((plus - minus).abs() < 1e-9);
    }

    #[test]
    fn transmission_loss_monotone_any_environment(
        d1 in 1.0f64..1000.0,
        extra in 1.0f64..1000.0,
        salt in any::<bool>(),
    ) {
        use vab::acoustics::environment::{Environment, SeaState};
        let env = if salt { Environment::ocean(SeaState::Smooth) } else { Environment::river() };
        let f = Hertz(18_500.0);
        let tl1 = env.transmission_loss(f, vab::util::units::Meters(d1)).value();
        let tl2 = env.transmission_loss(f, vab::util::units::Meters(d1 + extra)).value();
        prop_assert!(tl2 >= tl1);
    }
}

// ---------------- the perf gate's parsers (bytes read from disk)

/// The committed gate reference.
const GATE_JSON: &str = include_str!("../crates/bench/gate.json");

/// A perf snapshot exactly as `run_all` renders it, both planes populated.
fn rendered_snapshot() -> String {
    use vab_obsctl::perf::{BenchSnapshot, FigurePerf, StagePerf};
    let stage = |name: &str, sum_s: f64, alloc_count: u64| StagePerf {
        name: name.into(),
        count: 40,
        sum_s,
        p50_s: 1e-3,
        p95_s: 2e-3,
        p99_s: 3e-3,
        alloc_count,
        alloc_bytes: 64 * alloc_count,
    };
    let figure =
        |name: &str, wall_s: f64, stages| FigurePerf { name: name.into(), wall_s, rows: 6, stages };
    BenchSnapshot {
        sha: "deadbeef".into(),
        mode: "quick".into(),
        trials: 25,
        bits: 256,
        seed: 2023,
        figures: vec![
            figure(
                "fr1_replay_validation",
                3.7,
                vec![stage("replay.apply", 2.2, 63), stage("sim.demod", 0.03, 320)],
            ),
            figure("t2_power_budget", 0.001, vec![]),
        ],
    }
    .to_json()
}

/// Real inputs of both parsers: `(is_gate, text)`.
fn gate_inputs() -> Vec<(bool, String)> {
    let fixture = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/bench_profiled.json"
    ))
    .expect("fixture");
    vec![(false, rendered_snapshot()), (false, fixture), (true, GATE_JSON.to_string())]
}

#[test]
fn gate_parsers_reject_every_truncated_prefix() {
    use vab_obsctl::gate::Gate;
    use vab_obsctl::perf::BenchSnapshot;
    for (is_gate, text) in gate_inputs() {
        let parse = |t: &str| {
            if is_gate {
                Gate::parse(t).map(drop)
            } else {
                BenchSnapshot::parse(t).map(drop)
            }
        };
        assert!(parse(&text).is_ok(), "the whole file parses");
        let body = text.trim_end();
        for cut in (0..body.len()).filter(|&i| body.is_char_boundary(i)) {
            assert!(parse(&body[..cut]).is_err(), "a {cut}-byte prefix parsed");
        }
    }
    // Each parser refuses the other's file.
    assert!(BenchSnapshot::parse(GATE_JSON).is_err());
    assert!(Gate::parse(&rendered_snapshot()).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gate_parsers_reject_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        use vab_obsctl::gate::Gate;
        use vab_obsctl::perf::BenchSnapshot;
        let text = String::from_utf8_lossy(&bytes);
        prop_assert!(BenchSnapshot::parse(&text).is_err());
        prop_assert!(Gate::parse(&text).is_err());
    }

    #[test]
    fn gate_never_panics_on_corrupted_files(
        which in 0usize..3,
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        use vab_obsctl::gate::{check, Gate};
        use vab_obsctl::perf::BenchSnapshot;
        let (_, text) = gate_inputs().swap_remove(which);
        let mut bytes = text.into_bytes();
        let i = at.index(bytes.len());
        bytes[i] = byte;
        let text = String::from_utf8_lossy(&bytes);
        // Either parser may accept or refuse a one-byte corruption; neither
        // may panic, and neither may the checks over what they accept.
        let reference = Gate::parse(GATE_JSON).expect("committed gate");
        if let Ok(doc) = BenchSnapshot::parse(&text) {
            let _ = check(&doc, &reference);
            let _ = reference.clone().refresh(&doc);
        }
        if let Ok(gate) = Gate::parse(&text) {
            let _ = gate.to_json();
            let _ = BenchSnapshot::parse(&rendered_snapshot()).map(|doc| check(&doc, &gate));
        }
    }
}

/// Characters a snapshot name is drawn from: identifier characters plus
/// every class JSON must escape (quote, backslash, control bytes) and
/// multi-byte UTF-8.
const NAME_CHARS: &[char] = &[
    'a', 'Z', '7', '.', '_', '/', '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1}', '\u{1f}',
    '\u{7f}', 'é', '€', '𝄞',
];

/// Draws snapshot fields from a proptest's raw words and floats, cycling
/// through each.
struct SnapshotDraw {
    words: Vec<u64>,
    floats: Vec<f64>,
    at: usize,
}

impl SnapshotDraw {
    fn word(&mut self) -> u64 {
        self.at += 1;
        self.words[self.at % self.words.len()]
    }

    /// A count: the snapshot's integers are JSON numbers (`f64`), exact
    /// below 2^53 like every document the workspace writes.
    fn int(&mut self) -> u64 {
        self.word() >> 11
    }

    /// A non-integral float, an integral one, or zero.
    fn float(&mut self) -> f64 {
        let w = self.word();
        match w % 3 {
            0 => self.floats[self.at % self.floats.len()],
            1 => (w >> 11) as f64,
            _ => 0.0,
        }
    }

    /// Up to seven characters of [`NAME_CHARS`], possibly none.
    fn name(&mut self) -> String {
        let w = self.word();
        (0..w % 8)
            .map(|i| NAME_CHARS[((w >> (3 + 5 * i)) % NAME_CHARS.len() as u64) as usize])
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bench_snapshot_round_trips_through_its_json(
        words in prop::collection::vec(any::<u64>(), 1..64),
        floats in prop::collection::vec(any::<f64>(), 1..16),
        n_figures in 0usize..4,
    ) {
        use vab_obsctl::perf::{BenchSnapshot, FigurePerf, StagePerf};
        let mut d = SnapshotDraw { words, floats, at: 0 };
        let mut figures = Vec::new();
        for _ in 0..n_figures {
            let (name, wall_s, rows) = (d.name(), d.float(), d.int() as usize);
            let stages = (0..d.word() % 4)
                .map(|_| StagePerf {
                    name: d.name(),
                    count: d.int(),
                    sum_s: d.float(),
                    p50_s: d.float(),
                    p95_s: d.float(),
                    p99_s: d.float(),
                    alloc_count: d.int(),
                    alloc_bytes: d.int(),
                })
                .collect();
            figures.push(FigurePerf { name, wall_s, rows, stages });
        }
        let snap = BenchSnapshot {
            sha: d.name(),
            mode: d.name(),
            trials: d.int() as usize,
            bits: d.int() as usize,
            seed: d.int(),
            figures,
        };
        let json = snap.to_json();
        prop_assert_eq!(BenchSnapshot::parse(&json), Ok(snap), "{}", json);
    }

    #[test]
    fn metrics_snapshot_round_trips_through_its_json(
        words in prop::collection::vec(any::<u64>(), 1..64),
        floats in prop::collection::vec(any::<f64>(), 1..16),
        with_alloc in any::<bool>(),
    ) {
        use vab::obs::alloc::{AllocStageSnapshot, AllocTotals};
        use vab::obs::metrics::{HistogramSnapshot, Snapshot};
        let mut d = SnapshotDraw { words, floats, at: 0 };
        // Counter and gauge names key JSON objects, so each is distinct.
        let (n_counters, n_gauges) = (d.word() % 4, d.word() % 4);
        let counters = (0..n_counters).map(|i| (format!("{}#{i}", d.name()), d.int())).collect();
        let gauges = (0..n_gauges).map(|i| (format!("{}#{i}", d.name()), d.float())).collect();
        let hist = |d: &mut SnapshotDraw| {
            let bounds: Vec<f64> = (0..d.word() % 5).map(|_| d.float()).collect();
            HistogramSnapshot {
                name: d.name(),
                count: d.int(),
                sum: d.float(),
                buckets: (0..=bounds.len()).map(|_| d.int()).collect(),
                bounds,
            }
        };
        let (n_hists, n_stages) = (d.word() % 3, d.word() % 3);
        let histograms = (0..n_hists).map(|_| hist(&mut d)).collect();
        let stages = (0..n_stages).map(|_| hist(&mut d)).collect();
        let alloc_totals = with_alloc.then(|| AllocTotals {
            allocs: d.int(),
            frees: d.int(),
            bytes_allocated: d.int(),
            bytes_freed: d.int(),
            live_bytes: d.int(),
            peak_live_bytes: d.int(),
        });
        let n_alloc_stages = if with_alloc { d.word() % 3 } else { 0 };
        let alloc_stages = (0..n_alloc_stages)
            .map(|_| AllocStageSnapshot {
                name: d.name(),
                    calls: d.int(),
                    self_allocs: d.int(),
                    self_bytes: d.int(),
                    cum_allocs: d.int(),
                    cum_bytes: d.int(),
                })
                .collect();
        let snap = Snapshot {
            counters,
            gauges,
            histograms,
            stages,
            alloc_totals,
            alloc_stages,
        };
        let json = snap.to_json();
        prop_assert_eq!(Snapshot::parse(&json), Ok(snap), "{}", json);
    }
}

// ---------------- the other disk and wire parsers

/// Bytes a fuzzed document is drawn from: JSON's structural characters,
/// digits and the letters of its literals, so random input reaches past
/// the first byte of the parsers.
const JSON_ALPHABET: &[u8] = b"{}[]\":,.-+eE0123456789 \ntrufalsn\\";

/// A real, complete input of each JSON document parser: `(name, text)`.
fn document_inputs() -> Vec<(&'static str, String)> {
    use vab_replay::{bank::generate, BankSpec, WaterSpec};
    let bank = generate(&BankSpec {
        water: WaterSpec::River,
        range_m: 60.0,
        carrier_hz: 18_500.0,
        fs: 1600.0,
        n_snapshots: 2,
        span_s: 1.0,
        seed: 7,
    })
    .expect("bank");
    vec![
        ("slo", include_str!("../crates/bench/slo.json").to_string()),
        ("metrics", include_str!("fixtures/golden_metrics.json").to_string()),
        ("bank", bank.to_json()),
    ]
}

/// Every JSON-reading parser, by name: the generic one and the four
/// document readers built on it.
const PARSERS: [&str; 5] = ["json", "slo", "metrics", "bank", "wire"];

/// Whether the parser called `name` accepts `text`.
fn parses_as(name: &str, text: &str) -> bool {
    match name {
        "json" => vab_util::json::Json::parse(text).is_ok(),
        "slo" => vab_obsctl::live::SloSpec::parse(text).is_ok(),
        "metrics" => vab::obs::metrics::Snapshot::parse(text).is_ok(),
        "bank" => vab_replay::TvirBank::parse(text).is_ok(),
        "wire" => vab::svc::wire::Request::parse(text).is_ok(),
        _ => unreachable!("unknown parser {name}"),
    }
}

#[test]
fn document_parsers_reject_every_truncated_prefix() {
    for (name, text) in document_inputs() {
        assert!(parses_as(name, &text), "the whole {name} document parses");
        let body = text.trim_end();
        for cut in (0..body.len()).filter(|&i| body.is_char_boundary(i)) {
            for parser in ["json", name] {
                assert!(
                    !parses_as(parser, &body[..cut]),
                    "{parser} took a {cut}-byte {name} prefix"
                );
            }
        }
    }
}

#[test]
fn trace_parser_flags_every_truncated_prefix_as_a_torn_tail() {
    use vab_obsctl::Trace;
    let text = include_str!("fixtures/flame_trace.jsonl");
    let full = Trace::parse(text);
    assert!(!full.truncated_tail && full.skipped_lines.is_empty());
    assert_eq!(full.events.len(), text.lines().count());
    for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        let prefix = &text[..cut];
        let trace = Trace::parse(prefix);
        // Only the last line can be cut, and a cut line is a torn tail,
        // never a skipped one.
        let tail = &prefix[prefix.rfind('\n').map_or(0, |i| i + 1)..];
        let torn = !tail.is_empty() && text[cut - tail.len()..].lines().next() != Some(tail);
        assert!(trace.skipped_lines.is_empty(), "{cut}-byte prefix skipped a line");
        assert_eq!(trace.truncated_tail, torn, "{cut}-byte prefix");
        assert_eq!(trace.events.len() + torn as usize, prefix.lines().count(), "{cut}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn document_parsers_never_panic_on_random_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..512),
    ) {
        use vab_obsctl::Trace;
        let json_ish: Vec<u8> =
            picks.iter().map(|i| JSON_ALPHABET[i.index(JSON_ALPHABET.len())]).collect();
        for text in [String::from_utf8_lossy(&bytes), String::from_utf8_lossy(&json_ish)] {
            // Verdicts may go either way; none may panic. The schema-tagged
            // documents cannot come out of noise.
            for parser in PARSERS {
                let accepted = parses_as(parser, &text);
                if matches!(parser, "slo" | "bank") {
                    prop_assert!(!accepted, "{} accepted noise", parser);
                }
            }
            let trace = Trace::parse(&text);
            prop_assert!(trace.events.len() <= text.lines().count());
        }
    }

    #[test]
    fn document_parsers_never_panic_on_corrupted_files(
        which in 0usize..3,
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let (_, text) = document_inputs().swap_remove(which);
        let mut bytes = text.into_bytes();
        let i = at.index(bytes.len());
        bytes[i] = byte;
        let text = String::from_utf8_lossy(&bytes);
        for parser in PARSERS {
            parses_as(parser, &text);
        }
        vab_obsctl::Trace::parse(&text);
    }
}
