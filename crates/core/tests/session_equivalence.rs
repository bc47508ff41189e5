//! Property tests for streaming sessions — the tentpole invariants of the
//! streaming-receiver redesign:
//!
//! * a capture pushed through an [`RxSession`] in chunks of **any** size decodes
//!   **bit-for-bit** identically to the batch path (whole-buffer
//!   `Synchronizer::detect` + a fresh-stream decode at the detected start): same
//!   [`SyncResult`] bits, same PSDU, same FCS verdict, same subcarrier decisions —
//!   for chunk sizes {1, 7, 64, 480, whole-capture}, random lead-in/trailing gaps,
//!   clean and interfered captures, both receivers;
//! * a multi-frame capture (3 frames, distinct payloads, random gaps) is recovered
//!   in order for every chunking, and every chunking agrees with every other.

use cprecycle::session::{RxEvent, RxSession, SessionConfig};
use cprecycle::{CpRecycleConfig, CpRecycleReceiver};
use obs::NoopRecorder;
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::{FrameInput, FrameReceiver, ModelPersistence, RxFrame, StandardReceiver};
use ofdmphy::sync::{SyncResult, Synchronizer};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rfdsp::Complex;
use wirelesschan::awgn::AwgnChannel;
use wirelesschan::mixer::{combine, InterfererSpec};

const CHUNK_SIZES: [usize; 4] = [1, 7, 64, 480];

fn params() -> OfdmParams {
    OfdmParams::ieee80211ag()
}

fn mcs() -> Mcs {
    Mcs::new(Modulation::Qpsk, CodeRate::Half)
}

/// One frame between noise pads, optionally behind an asynchronous interferer.
fn build_capture(
    pad: usize,
    trailing: usize,
    seed: u64,
    snr_db: f64,
    interfered: bool,
) -> (Vec<Complex>, Vec<u8>) {
    let tx = Transmitter::new(params());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let payload: Vec<u8> = (0..80).map(|_| rng.gen()).collect();
    let frame = tx.build_frame(&payload, mcs(), 0x5D).unwrap();
    let mut body = frame.samples.clone();
    if interfered {
        let intf = tx
            .build_frame(
                &(0..200).map(|_| rng.gen()).collect::<Vec<u8>>(),
                Mcs::new(Modulation::Qam16, CodeRate::Half),
                0x2F,
            )
            .unwrap();
        let spec = InterfererSpec::new(intf.samples, 0.0017, 23.7, 4.0);
        body = combine(&body, &[spec]).unwrap().composite;
    }
    let power = rfdsp::power::signal_power(&frame.samples).unwrap();
    let noise_var = power / rfdsp::power::db_to_lin(snr_db);
    let mut g = rfdsp::noise::GaussianSource::new();
    let mut capture = g.complex_vector(&mut rng, pad, noise_var);
    capture.extend(body);
    capture.extend(g.complex_vector(&mut rng, trailing, noise_var));
    let mut chan = AwgnChannel::new();
    chan.add_noise_variance(&mut rng, &mut capture, noise_var)
        .unwrap();
    (capture, payload)
}

fn assert_frames_bit_identical(a: &RxFrame, b: &RxFrame, context: &str) {
    assert_eq!(a.info, b.info, "{context}: info");
    assert_eq!(a.psdu, b.psdu, "{context}: psdu");
    assert_eq!(a.crc_ok, b.crc_ok, "{context}: crc");
    assert_eq!(a.payload, b.payload, "{context}: payload");
    assert_eq!(
        a.equalized_symbols.len(),
        b.equalized_symbols.len(),
        "{context}: symbol count"
    );
    for (i, (x, y)) in a
        .equalized_symbols
        .iter()
        .zip(&b.equalized_symbols)
        .enumerate()
    {
        for (j, (u, v)) in x.iter().zip(y).enumerate() {
            assert_eq!(
                u.re.to_bits(),
                v.re.to_bits(),
                "{context}: symbol {i} bin {j} re"
            );
            assert_eq!(
                u.im.to_bits(),
                v.im.to_bits(),
                "{context}: symbol {i} bin {j} im"
            );
        }
    }
}

/// Streams `capture` through a session in `chunk`-sized pieces; returns the first
/// detection and decoded frame.
fn stream_once<R: FrameReceiver>(
    receiver: R,
    capture: &[Complex],
    chunk: usize,
) -> (SyncResult, RxFrame) {
    let mut session = RxSession::with_config(receiver, SessionConfig::default());
    for c in capture.chunks(chunk.max(1)) {
        session.push(c).unwrap();
    }
    session.flush().unwrap();
    let mut sync = None;
    let mut frame = None;
    for event in session.drain_events() {
        match event {
            RxEvent::FrameDetected { sync: s } if sync.is_none() => sync = Some(s),
            RxEvent::FrameDecoded { frame: f, .. } if frame.is_none() => frame = Some(*f),
            _ => {}
        }
    }
    (
        sync.expect("session detected the frame"),
        frame.expect("session decoded the frame"),
    )
}

/// The batch reference: whole-buffer detect + decode at the detected start.
fn batch_reference<F>(sync: &Synchronizer, capture: &[Complex], decode: F) -> (SyncResult, RxFrame)
where
    F: FnOnce(&[Complex], usize) -> cprecycle::Result<RxFrame>,
{
    let s = sync
        .detect(capture)
        .unwrap()
        .expect("batch detected the frame");
    let frame = decode(capture, s.frame_start).unwrap();
    (s, frame)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Chunked session decode ≡ batch decode, bit-for-bit, for every chunk size,
    /// random gaps, clean and interfered captures — the CPRecycle receiver.
    #[test]
    fn cprecycle_session_equals_batch_for_every_chunking(
        seed in any::<u64>(),
        pad in 220usize..900,
        trailing in 260usize..600,
        interfered in any::<bool>(),
    ) {
        let (capture, _) = build_capture(pad, trailing, seed, 26.0, interfered);
        let sync = Synchronizer::new(params());
        let rx = CpRecycleReceiver::new(params(), CpRecycleConfig::default());
        let (batch_sync, batch_frame) = batch_reference(
            &sync,
            &capture,
            |samples, start| {
                let mut stream = rx.new_stream(ModelPersistence::PerFrame);
                rx.decode(&mut stream, FrameInput::new(samples, start, None), &NoopRecorder)
            },
        );
        for chunk in CHUNK_SIZES.iter().copied().chain([capture.len()]) {
            let rx = CpRecycleReceiver::new(params(), CpRecycleConfig::default());
            let (s, f) = stream_once(rx, &capture, chunk);
            prop_assert_eq!(s, batch_sync, "chunk {} sync", chunk);
            assert_frames_bit_identical(&f, &batch_frame, &format!("chunk {chunk}"));
        }
    }

    /// The same property for the standard receiver behind the same session type.
    #[test]
    fn standard_session_equals_batch_for_every_chunking(
        seed in any::<u64>(),
        pad in 220usize..900,
        trailing in 260usize..600,
    ) {
        let (capture, _) = build_capture(pad, trailing, seed, 26.0, false);
        let sync = Synchronizer::new(params());
        let rx = StandardReceiver::new(params());
        let (batch_sync, batch_frame) = batch_reference(
            &sync,
            &capture,
            |samples, start| rx.decode(&mut (), FrameInput::new(samples, start, None), &NoopRecorder),
        );
        for chunk in CHUNK_SIZES.iter().copied().chain([capture.len()]) {
            let rx = StandardReceiver::new(params());
            let (s, f) = stream_once(rx, &capture, chunk);
            prop_assert_eq!(s, batch_sync, "chunk {} sync", chunk);
            assert_frames_bit_identical(&f, &batch_frame, &format!("chunk {chunk}"));
        }
    }

    /// Multi-frame captures: three frames with distinct payloads and random gaps are
    /// all recovered, in order, identically for every chunking.
    #[test]
    fn multi_frame_capture_is_chunking_invariant(
        seed in any::<u64>(),
        gap1 in 130usize..500,
        gap2 in 130usize..500,
    ) {
        let tx = Transmitter::new(params());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let payloads: Vec<Vec<u8>> = (0..3)
            .map(|_| (0..60).map(|_| rng.gen()).collect())
            .collect();
        let power;
        let mut capture;
        {
            let first = tx.build_frame(&payloads[0], mcs(), 0x11).unwrap();
            power = rfdsp::power::signal_power(&first.samples).unwrap();
            let noise_var = power / rfdsp::power::db_to_lin(27.0);
            let mut g = rfdsp::noise::GaussianSource::new();
            capture = g.complex_vector(&mut rng, 300, noise_var);
            capture.extend(first.samples);
            for (i, gap) in [gap1, gap2].iter().enumerate() {
                capture.extend(g.complex_vector(&mut rng, *gap, noise_var));
                let frame = tx
                    .build_frame(&payloads[i + 1], mcs(), 0x12 + i as u8)
                    .unwrap();
                capture.extend(frame.samples);
            }
            capture.extend(g.complex_vector(&mut rng, 300, noise_var));
            let mut chan = AwgnChannel::new();
            chan.add_noise_variance(&mut rng, &mut capture, noise_var).unwrap();
        }

        let mut reference: Option<Vec<(SyncResult, Vec<u8>)>> = None;
        for chunk in CHUNK_SIZES.iter().copied().chain([capture.len()]) {
            let rx = CpRecycleReceiver::new(params(), CpRecycleConfig::default());
            let mut session = RxSession::new(rx);
            for c in capture.chunks(chunk) {
                session.push(c).unwrap();
            }
            session.flush().unwrap();
            let mut detections = Vec::new();
            let mut decoded = Vec::new();
            for event in session.drain_events() {
                match event {
                    RxEvent::FrameDetected { sync } => detections.push(sync),
                    RxEvent::FrameDecoded { frame, .. } => {
                        prop_assert!(frame.crc_ok, "chunk {}: FCS failed", chunk);
                        decoded.push(frame.payload.clone().unwrap());
                    }
                    RxEvent::FalseAlarm { .. } | RxEvent::SyncLost { .. } => {}
                }
            }
            prop_assert_eq!(&decoded, &payloads, "chunk {}: payloads in order", chunk);
            let outcome: Vec<(SyncResult, Vec<u8>)> =
                detections.into_iter().zip(decoded).collect();
            match &reference {
                None => reference = Some(outcome),
                Some(r) => prop_assert_eq!(r, &outcome, "chunk {} vs first chunking", chunk),
            }
        }
    }
}
