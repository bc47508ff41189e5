//! End-to-end frame-decoding throughput: the standard receiver versus CPRecycle at
//! different segment counts — the computational-scalability claim of the paper's §6
//! ("gracefully degrades to a standard OFDM receiver with one FFT segment").

use cprecycle::{CpRecycleConfig, CpRecycleReceiver};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use obs::NoopRecorder;
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::{FrameInfo, FrameInput, FrameReceiver, ModelPersistence, StandardReceiver};

fn bench_receiver(c: &mut Criterion) {
    let params = OfdmParams::ieee80211ag();
    let tx = Transmitter::new(params.clone());
    let mcs = Mcs::new(Modulation::Qam16, CodeRate::Half);
    let payload = vec![0x5A; 400];
    let frame = tx.build_frame(&payload, mcs, 0x5D).unwrap();
    let info = FrameInfo {
        mcs,
        psdu_len: payload.len() + 4,
    };
    let input = FrameInput::new(&frame.samples, 0, Some(info));

    let mut group = c.benchmark_group("frame_decode");
    group.sample_size(10);
    let standard = StandardReceiver::new(params.clone());
    group.bench_function("standard", |b| {
        b.iter(|| standard.decode(&mut (), input, &NoopRecorder).unwrap());
    });
    for p in [1usize, 4, 8, 16] {
        let rx = CpRecycleReceiver::new(params.clone(), CpRecycleConfig::with_segments(p));
        group.bench_with_input(BenchmarkId::new("cprecycle", p), &p, |b, _| {
            b.iter(|| {
                let mut stream = rx.new_stream(ModelPersistence::PerFrame);
                rx.decode(&mut stream, input, &NoopRecorder).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_receiver);
criterion_main!(benches);
