//! Every workload end to end through the library entry point, untraced and
//! traced, on the pinned seed and a short timed phase.

use std::time::Duration;

use vab_benchmark::{run, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};

const SMOKE: Duration = Duration::from_millis(200);

fn smoke(w: Workload) {
    for traced in [false, true] {
        let r = run(w, DEFAULT_SEED, SMOKE, traced).expect("the workload sets up");
        let mode = if traced { "traced" } else { "untraced" };
        assert!(r.correct, "{} {mode}: {:?}", w.name(), r.problems);
        assert!(r.attempted >= 1 && r.failed == 0, "{} {mode}: {r:?}", w.name());
        let want = if traced { PER_LAYER } else { END_TO_END };
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, want.iter().map(|d| d.name).collect::<Vec<_>>());
        assert!(r.metrics.iter().all(|m| m.1.is_finite()), "{} {mode}: {r:?}", w.name());
        if !traced {
            assert!(r.metrics.iter().all(|m| m.1 > 0.0), "{}: {r:?}", w.name());
        }
    }
}

#[test]
fn linkbudget_mc() {
    smoke(Workload::LinkbudgetMc);
}

#[test]
fn waveform_synth() {
    smoke(Workload::WaveformSynth);
}

#[test]
fn waveform_replay() {
    smoke(Workload::WaveformReplay);
}

#[test]
fn ocean_65k() {
    smoke(Workload::Ocean65k);
}

#[test]
fn daemon_batch() {
    smoke(Workload::DaemonBatch);
}
