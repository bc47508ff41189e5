//! The real-time throughput budget: decoded **Msps-per-core** for every receiver
//! configuration (standard, CPRecycle P ∈ {4, 8, 16} × {ExactKde, GridKde, Gaussian}).
//!
//! 802.11a/g streams 20 Msamples/s at 20 MHz; a configuration decodes in real time on
//! one core exactly when its Msps-per-core is at or above that line. This bench turns
//! the PR 8 vectorization work into that number and emits it machine-readably so every
//! future PR lands on the same trajectory.
//!
//! Flags (matching the compat Criterion harness so the CI smoke job drives it too):
//! `--test` runs each configuration once, untimed; `--json <path>` appends one
//! JSON-Lines record per configuration with the stable schema
//! `{"config": …, "msps_per_core": …, "ns_per_sample": …}`.
//!
//! Local recipe: `cargo bench -p cprecycle-bench --bench throughput -- --json BENCH_throughput.json`

use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

use cprecycle::estimator::ModelBackend;
use cprecycle::{CpRecycleConfig, CpRecycleReceiver};
use obs::NoopRecorder;
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::{FrameInfo, FrameInput, FrameReceiver, ModelPersistence, StandardReceiver};

/// 802.11a/g sample rate in Msamples/s — the real-time line.
const REAL_TIME_MSPS: f64 = 20.0;

/// Times one decode closure: warm-up, then five samples of enough iterations to fill
/// ~20 ms each, reporting the median per-iteration nanoseconds.
fn measure<F: FnMut()>(mut decode: F) -> f64 {
    decode();
    let probe = Instant::now();
    decode();
    let once_ns = probe.elapsed().as_nanos().max(1) as f64;
    let iters = ((20e6 / once_ns) as usize).clamp(1, 10_000);
    let mut samples = [0.0f64; 5];
    for slot in &mut samples {
        let start = Instant::now();
        for _ in 0..iters {
            decode();
        }
        *slot = start.elapsed().as_nanos() as f64 / iters as f64;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let params = OfdmParams::ieee80211ag();
    let tx = Transmitter::new(params.clone());
    let mcs = Mcs::new(Modulation::Qam16, CodeRate::Half);
    let payload = vec![0x5A; 400];
    let frame = tx.build_frame(&payload, mcs, 0x5D).unwrap();
    let info = FrameInfo {
        mcs,
        psdu_len: payload.len() + 4,
    };
    let frame_samples = frame.samples.len() as f64;

    let mut configs: Vec<(String, Box<dyn FnMut()>)> = Vec::new();
    let standard = StandardReceiver::new(params.clone());
    {
        let samples = frame.samples.clone();
        configs.push((
            "standard".into(),
            Box::new(move || {
                let input = FrameInput::new(&samples, 0, Some(info));
                black_box(standard.decode(&mut (), input, &NoopRecorder).unwrap());
            }),
        ));
    }
    for p in [4usize, 8, 16] {
        for (tag, backend) in [
            ("exact", ModelBackend::ExactKde),
            ("grid", ModelBackend::GridKde),
            ("gauss", ModelBackend::Gaussian),
        ] {
            let config = CpRecycleConfig::builder()
                .num_segments(p)
                .model(backend)
                .build();
            let rx = CpRecycleReceiver::new(params.clone(), config);
            let samples = frame.samples.clone();
            configs.push((
                format!("cprecycle_p{p}_{tag}"),
                // A fresh stream per decode: every frame pays its own scratch set-up.
                Box::new(move || {
                    let mut stream = rx.new_stream(ModelPersistence::PerFrame);
                    let input = FrameInput::new(&samples, 0, Some(info));
                    black_box(rx.decode(&mut stream, input, &NoopRecorder).unwrap());
                }),
            ));
        }
    }

    let mut records = Vec::new();
    for (label, mut decode) in configs {
        if test_mode {
            decode();
            println!("throughput/{label}: test passed (1 iteration, --test)");
            continue;
        }
        let ns_per_frame = measure(&mut decode);
        let ns_per_sample = ns_per_frame / frame_samples;
        let msps_per_core = 1e3 / ns_per_sample;
        let verdict = if msps_per_core >= REAL_TIME_MSPS {
            "real-time"
        } else {
            "below real-time"
        };
        println!(
            "throughput/{label}: {msps_per_core:.3} Msps/core ({ns_per_sample:.2} ns/sample, {verdict} vs {REAL_TIME_MSPS} Msps)"
        );
        records.push((label, msps_per_core, ns_per_sample));
    }

    if let Some(path) = json_path {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("cannot open {path}: {e}"));
        if test_mode {
            // Mirror the compat-Criterion convention: smoke mode records presence only.
            writeln!(file, "{{\"config\":\"throughput\",\"mode\":\"test\"}}").unwrap();
        }
        for (label, msps, ns) in &records {
            writeln!(
                file,
                "{{\"config\":\"{label}\",\"msps_per_core\":{msps},\"ns_per_sample\":{ns}}}"
            )
            .unwrap();
        }
    }
}
