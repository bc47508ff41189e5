//! Streaming-session throughput: one frame per capture, decoded through
//! [`RxSession`] at several chunk sizes versus the batch path (whole-buffer
//! `Synchronizer::detect` + a decode on a fresh stream).
//!
//! The quantity of interest is samples/s of ingested stream (the capture length over
//! the measured time — the README "Performance" table derives Msamples/s). The
//! acceptance bar for the session layer is ≤ 5 % overhead versus batch at
//! whole-capture chunks; tiny chunks price the state-machine bookkeeping.

use cprecycle::session::RxSession;
use cprecycle::{CpRecycleConfig, CpRecycleReceiver};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use obs::NoopRecorder;
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::{FrameInput, FrameReceiver, ModelPersistence, StandardReceiver};
use ofdmphy::sync::Synchronizer;
use rand::SeedableRng;
use rfdsp::Complex;

fn capture() -> Vec<Complex> {
    let params = OfdmParams::ieee80211ag();
    let tx = Transmitter::new(params);
    let mcs = Mcs::new(Modulation::Qam16, CodeRate::Half);
    let frame = tx.build_frame(&vec![0x5A; 400], mcs, 0x5D).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut g = rfdsp::noise::GaussianSource::new();
    let power = rfdsp::power::signal_power(&frame.samples).unwrap();
    let noise_var = power / rfdsp::power::db_to_lin(30.0);
    let mut capture = g.complex_vector(&mut rng, 300, noise_var);
    capture.extend(frame.samples);
    capture.extend(g.complex_vector(&mut rng, 300, noise_var));
    capture
}

fn bench_stream(c: &mut Criterion) {
    let params = OfdmParams::ieee80211ag();
    let capture = capture();

    let mut group = c.benchmark_group("stream");
    group.sample_size(10);

    // Batch reference: whole-buffer detect + decode at the detected start.
    let sync = Synchronizer::new(params.clone());
    let batch_rx = CpRecycleReceiver::new(params.clone(), CpRecycleConfig::default());
    group.bench_function("batch/cprecycle", |b| {
        b.iter(|| {
            let s = sync.detect(&capture).unwrap().unwrap();
            let mut stream = batch_rx.new_stream(ModelPersistence::PerFrame);
            let input = FrameInput::new(&capture, s.frame_start, None);
            batch_rx.decode(&mut stream, input, &NoopRecorder).unwrap()
        });
    });
    let batch_std = StandardReceiver::new(params.clone());
    group.bench_function("batch/standard", |b| {
        b.iter(|| {
            let s = sync.detect(&capture).unwrap().unwrap();
            let input = FrameInput::new(&capture, s.frame_start, None);
            batch_std.decode(&mut (), input, &NoopRecorder).unwrap()
        });
    });

    // Session: the same capture pushed as one whole chunk or smaller pieces. The
    // session is reused across iterations (it returns to hunting after each frame),
    // matching a long-running receiver's steady state.
    for chunk in [capture.len(), 4096, 480, 64] {
        let label = if chunk == capture.len() {
            "whole".to_string()
        } else {
            chunk.to_string()
        };
        let rx = CpRecycleReceiver::new(params.clone(), CpRecycleConfig::default());
        let mut session = RxSession::new(rx);
        group.bench_with_input(
            BenchmarkId::new("session/cprecycle", &label),
            &chunk,
            |b, &chunk| {
                b.iter(|| {
                    for piece in capture.chunks(chunk) {
                        session.push(piece).unwrap();
                    }
                    let events = session.drain_events();
                    assert!(!events.is_empty());
                    events
                });
            },
        );
        let rx = StandardReceiver::new(params.clone());
        let mut session = RxSession::new(rx);
        group.bench_with_input(
            BenchmarkId::new("session/standard", &label),
            &chunk,
            |b, &chunk| {
                b.iter(|| {
                    for piece in capture.chunks(chunk) {
                        session.push(piece).unwrap();
                    }
                    let events = session.drain_events();
                    assert!(!events.is_empty());
                    events
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_stream);
criterion_main!(benches);
