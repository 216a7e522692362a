//! Criterion micro-benchmarks for the simulator's hot code paths.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use vab_acoustics::channel::ChannelModel;
use vab_acoustics::environment::Environment;
use vab_acoustics::geometry::Position;
use vab_link::fec::{conv_decode_soft, conv_encode};
use vab_link::golay::{golay24_decode, golay24_encode};
use vab_util::complex::C64;
use vab_util::fft::{goertzel_power, Fft};
use vab_util::resample::fractional_delay;
use vab_util::rng::{gaussian, random_bits, seeded};
use vab_util::units::Hertz;

fn bench_fft(c: &mut Criterion) {
    let plan = Fft::new(1024);
    let data: Vec<C64> = (0..1024).map(|i| C64::new((i as f64).sin(), 0.0)).collect();
    c.bench_function("fft_1024", |b| {
        b.iter_batched(
            || data.clone(),
            |mut buf| {
                plan.forward(&mut buf);
                black_box(buf)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_goertzel(c: &mut Criterion) {
    let x: Vec<f64> = (0..2048).map(|i| (0.3 * i as f64).sin()).collect();
    c.bench_function("goertzel_2048", |b| {
        b.iter(|| black_box(goertzel_power(black_box(&x), 18_500.0, 96_000.0)))
    });
}

fn bench_viterbi(c: &mut Criterion) {
    let mut rng = seeded(1);
    let bits = random_bits(&mut rng, 512);
    let coded = conv_encode(&bits);
    let soft: Vec<f64> = coded.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
    c.bench_function("viterbi_soft_512_info_bits", |b| {
        b.iter(|| black_box(conv_decode_soft(black_box(&soft))))
    });
    // The link-budget trial's input: ±1 plus Gaussian noise, so path
    // metrics spread and the compare-select outcomes vary per step.
    let noisy: Vec<f64> = soft.iter().map(|&s| s + 0.8 * gaussian(&mut rng)).collect();
    c.bench_function("viterbi_soft_512_info_bits_noisy", |b| {
        b.iter(|| black_box(conv_decode_soft(black_box(&noisy))))
    });
}

fn bench_golay(c: &mut Criterion) {
    let mut rng = seeded(2);
    let bits = random_bits(&mut rng, 504); // 42 words
    let mut coded = golay24_encode(&bits);
    // Two errors per word — the decoder's sweet spot.
    for w in 0..coded.len() / 24 {
        coded[w * 24 + 3] = !coded[w * 24 + 3];
        coded[w * 24 + 17] = !coded[w * 24 + 17];
    }
    c.bench_function("golay24_decode_504_info_bits", |b| {
        b.iter(|| black_box(golay24_decode(black_box(&coded))))
    });
}

fn bench_pie_slice(c: &mut Criterion) {
    use vab_phy::downlink::{pie_encode, EnvelopeDetector, PieParams};
    use vab_util::complex::C64;
    let p = PieParams::vab_default();
    let mut rng = seeded(3);
    let bits = random_bits(&mut rng, 56);
    let env = pie_encode(&bits, &p);
    let bb: Vec<C64> = env.iter().map(|&e| C64::real(e * 2.0)).collect();
    let det = EnvelopeDetector::for_params(&p);
    c.bench_function("pie_envelope_slice_56_bits", |b| {
        b.iter(|| black_box(det.slice(black_box(&bb))))
    });
}

fn bench_channel_arrivals(c: &mut Criterion) {
    let ch = ChannelModel::new(
        Environment::river(),
        Position::new(0.0, 0.0, 2.0),
        Position::new(300.0, 0.0, 2.0),
        Hertz(18_500.0),
    );
    c.bench_function("image_method_arrivals_300m", |b| {
        b.iter_batched(
            || seeded(7),
            |mut rng| black_box(ch.arrivals(&mut rng)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_fractional_delay(c: &mut Criterion) {
    let x: Vec<f64> = (0..4096).map(|i| (0.01 * i as f64).sin()).collect();
    c.bench_function("fractional_delay_4096", |b| {
        b.iter(|| black_box(fractional_delay(black_box(&x), 17.37, 32)))
    });
}

criterion_group!(
    hot_paths,
    bench_fft,
    bench_goertzel,
    bench_viterbi,
    bench_golay,
    bench_pie_slice,
    bench_channel_arrivals,
    bench_fractional_delay
);
criterion_main!(hot_paths);
