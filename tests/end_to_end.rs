//! Integration tests spanning the whole workspace: transmitter → channel simulator →
//! interference scenario → receivers → bit pipeline.

use cprecycle_repro::cprecycle::{
    CpRecycleConfig, CpRecycleReceiver, FrameInput, FrameReceiver, ModelPersistence,
};
use cprecycle_repro::obs::NoopRecorder;
use cprecycle_repro::ofdmphy::convcode::CodeRate;
use cprecycle_repro::ofdmphy::frame::{Mcs, Transmitter};
use cprecycle_repro::ofdmphy::modulation::Modulation;
use cprecycle_repro::ofdmphy::params::OfdmParams;
use cprecycle_repro::ofdmphy::rx::{FrameInfo, RxFrame, StandardReceiver};
use cprecycle_repro::ofdmphy::sync::Synchronizer;
use cprecycle_repro::wirelesschan::awgn::AwgnChannel;
use cprecycle_repro::wirelesschan::multipath::{FadingKind, MultipathChannel, PowerDelayProfile};
use rand::{Rng, SeedableRng};

/// Decodes `frame` on a fresh `PerFrame` stream — the batch call.
fn decode_fresh<R: FrameReceiver>(
    rx: &R,
    frame: FrameInput<'_>,
) -> cprecycle_repro::ofdmphy::Result<RxFrame> {
    rx.decode(
        &mut rx.new_stream(ModelPersistence::PerFrame),
        frame,
        &NoopRecorder,
    )
}

fn payload(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

#[test]
fn full_link_through_multipath_awgn_and_sync() {
    // TX frame → indoor multipath → AWGN → synchronisation → standard receiver, with no
    // genie information at all. This is the "downstream user" path end to end.
    let params = OfdmParams::ieee80211ag();
    let tx = Transmitter::new(params.clone());
    let rx = StandardReceiver::new(params.clone());
    let sync = Synchronizer::new(params.clone());
    let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
    let data = payload(150, 1);

    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let mut successes = 0;
    let trials = 5;
    for t in 0..trials {
        let frame = tx.build_frame(&data, mcs, 0x40 + t as u8).unwrap();
        let pdp = PowerDelayProfile::exponential(4, 1.0).unwrap();
        let chan = MultipathChannel::realize(&pdp, FadingKind::Rician { k_factor: 6.0 }, &mut rng);
        let mut capture = vec![rfdsp::Complex::zero(); 400 + 13 * t];
        capture.extend(chan.apply(&frame.samples));
        capture.extend(vec![rfdsp::Complex::zero(); 200]);
        let mut awgn = AwgnChannel::new();
        awgn.add_noise_snr(&mut rng, &mut capture, 28.0).unwrap();

        if let Some(found) = sync.detect(&capture).unwrap() {
            let input = FrameInput::new(&capture, found.frame_start, None);
            if let Ok(decoded) = decode_fresh(&rx, input) {
                if decoded.crc_ok && decoded.payload.as_deref() == Some(&data[..]) {
                    successes += 1;
                }
            }
        }
    }
    assert!(
        successes >= 4,
        "only {successes}/{trials} packets decoded through sync + multipath + AWGN"
    );
}

#[test]
fn cprecycle_matches_standard_receiver_in_benign_conditions() {
    // Without interference the two receivers must agree (CPRecycle may never be worse
    // in the operating region where the standard receiver works).
    let params = OfdmParams::ieee80211ag();
    let tx = Transmitter::new(params.clone());
    let standard = StandardReceiver::new(params.clone());
    let recycler = CpRecycleReceiver::new(params, CpRecycleConfig::default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut awgn = AwgnChannel::new();

    for (i, mcs) in Mcs::paper_set().into_iter().enumerate() {
        let data = payload(200, 10 + i as u64);
        let frame = tx.build_frame(&data, mcs, 0x21).unwrap();
        let mut noisy = frame.samples.clone();
        awgn.add_noise_snr(&mut rng, &mut noisy, 30.0).unwrap();
        let info = FrameInfo {
            mcs,
            psdu_len: data.len() + 4,
        };
        let input = FrameInput::new(&noisy, 0, Some(info));
        let a = decode_fresh(&standard, input).unwrap();
        let b = decode_fresh(&recycler, input).unwrap();
        assert!(a.crc_ok, "standard fails at 30 dB SNR for {}", mcs.label());
        assert!(b.crc_ok, "CPRecycle fails at 30 dB SNR for {}", mcs.label());
        assert_eq!(a.psdu, b.psdu);
    }
}

#[test]
fn isi_free_detection_feeds_the_receiver_configuration() {
    // Detect the ISI-free region on a received burst and configure CPRecycle with it —
    // the deployment flow §6 describes.
    let params = OfdmParams::ieee80211ag();
    let tx = Transmitter::new(params.clone());
    let mcs = Mcs::new(Modulation::Qam16, CodeRate::Half);
    let data = payload(120, 20);
    let frame = tx.build_frame(&data, mcs, 0x5D).unwrap();

    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let pdp = PowerDelayProfile::from_taps(vec![(0, 1.0), (1, 0.4), (3, 0.2)]).unwrap();
    let chan = MultipathChannel::realize(&pdp, FadingKind::Static, &mut rng);
    let mut received = chan.apply(&frame.samples);
    let mut awgn = AwgnChannel::new();
    awgn.add_noise_snr(&mut rng, &mut received, 28.0).unwrap();

    let estimate = cprecycle_repro::cprecycle::isi_free::detect_isi_free_region(
        &params,
        &received,
        frame.data_start,
        frame.num_data_symbols.min(8),
        0.9,
    )
    .unwrap();
    assert!(
        estimate.isi_free_samples >= 10,
        "detected {}",
        estimate.isi_free_samples
    );

    let config = CpRecycleConfig::builder()
        .isi_free_samples(Some(estimate.isi_free_samples))
        .build();
    let rx = CpRecycleReceiver::new(params, config);
    assert!(rx.effective_segments() <= estimate.num_segments());
    let info = FrameInfo {
        mcs,
        psdu_len: data.len() + 4,
    };
    let decoded = decode_fresh(&rx, FrameInput::new(&received, 0, Some(info))).unwrap();
    assert!(decoded.crc_ok);
    assert_eq!(decoded.payload.as_deref(), Some(&data[..]));
}
