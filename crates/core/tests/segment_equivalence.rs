//! Property tests for the sliding-DFT segment-extraction kernel (the tentpole
//! invariant of the receiver hot path): across random symbols, FFT sizes and every
//! valid segment count, the `O(F)`-per-segment sliding kernel must agree with the
//! direct per-segment FFT reference to ≤ 1e-9, and with one segment the CPRecycle
//! receiver must still degrade to the standard receiver bit-for-bit.

use cprecycle::segments::reference::{
    extract_segments_direct, interference_power_per_segment_direct,
};
use cprecycle::segments::{extract_segments, interference_power_per_segment, SegmentScratch};
use cprecycle::{CpRecycleConfig, CpRecycleReceiver, FrameInput, FrameReceiver, ModelPersistence};
use obs::NoopRecorder;
use ofdmphy::chanest::ChannelEstimate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::ofdm::OfdmEngine;
use ofdmphy::params::{OfdmParams, SubcarrierRole};
use ofdmphy::rx::StandardReceiver;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rfdsp::Complex;
use wirelesschan::awgn::AwgnChannel;

/// An 802.11a/g-style numerology at the requested FFT size (64 keeps the real a/g tone
/// map; 128 keeps the ±26 occupancy with a 32-sample CP, the same layout the receiver
/// regression tests use).
fn params_for(fft_size: usize) -> OfdmParams {
    match fft_size {
        64 => OfdmParams::ieee80211ag(),
        128 => {
            let mut roles = vec![SubcarrierRole::Null; 128];
            for k in 1..=26usize {
                roles[k] = SubcarrierRole::Data;
                roles[128 - k] = SubcarrierRole::Data;
            }
            for k in [7usize, 21] {
                roles[k] = SubcarrierRole::Pilot;
                roles[128 - k] = SubcarrierRole::Pilot;
            }
            OfdmParams::new(128, 32, 40e6, roles).expect("valid 128-point numerology")
        }
        other => panic!("no test numerology for FFT size {other}"),
    }
}

/// A random channel estimate: mostly well-conditioned gains, with a sprinkling of
/// degenerate (≈ 0) bins so the `inverse_gain` pass-through path is exercised too.
fn random_estimate(fft_size: usize, seed: u64) -> ChannelEstimate {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let h = (0..fft_size)
        .map(|_| {
            if rng.gen_range(0..16) == 0 {
                Complex::zero()
            } else {
                Complex::from_polar(rng.gen_range(0.2..2.0), rng.gen_range(-3.1..3.1))
            }
        })
        .collect();
    ChannelEstimate { h }
}

fn random_symbol(len: usize, seed: u64) -> Vec<Complex> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| Complex::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: for FFT sizes 64 and 128 and **every** valid segment
    /// count `P ∈ {1..C+1}`, the sliding and direct kernels agree to ≤ 1e-9 on every
    /// (segment, bin) observation — including through random multipath-like channel
    /// estimates with occasional degenerate bins.
    #[test]
    fn sliding_equals_direct_for_all_valid_p(symbol_seed in any::<u64>(), h_seed in any::<u64>()) {
        for fft_size in [64usize, 128] {
            let params = params_for(fft_size);
            let engine = OfdmEngine::new(params.clone());
            let symbol = random_symbol(params.symbol_len(), symbol_seed ^ fft_size as u64);
            let estimate = random_estimate(fft_size, h_seed ^ fft_size as u64);
            let mut scratch = SegmentScratch::new();
            for p in 1..=params.cp_len + 1 {
                let sliding = extract_segments(&engine, &symbol, &estimate, p, &mut scratch).unwrap();
                let direct = extract_segments_direct(&engine, &symbol, &estimate, p).unwrap();
                prop_assert_eq!(sliding.num_segments(), p);
                for bin in 0..fft_size {
                    let a = sliding.bin_observations(bin);
                    let b = direct.bin_observations(bin);
                    for j in 0..p {
                        prop_assert!(
                            (a[j] - b[j]).norm() <= 1e-9,
                            "F {}, P {}, segment {}, bin {}: {} vs {}",
                            fft_size, p, j, bin, a[j], b[j]
                        );
                    }
                }
            }
        }
    }

    /// The raw spectra the two kernels produce stay interchangeable downstream: the
    /// interference-power profiles (which feed the Oracle) agree to relative 1e-9.
    #[test]
    fn interference_power_kernels_agree(seed in any::<u64>()) {
        let params = OfdmParams::ieee80211ag();
        let engine = OfdmEngine::new(params.clone());
        let wave = random_symbol(params.symbol_len(), seed);
        let mut scratch = SegmentScratch::new();
        for p in 1..=params.cp_len + 1 {
            let sliding = interference_power_per_segment(&engine, &wave, p, &mut scratch).unwrap();
            let direct = interference_power_per_segment_direct(&engine, &wave, p).unwrap();
            for bin in 0..params.fft_size {
                for (a, b) in sliding.bin_powers(bin).iter().zip(direct.bin_powers(bin)) {
                    prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.max(*b)));
                }
            }
        }
    }
}

/// Regression: with `P = 1` the CPRecycle receiver still degrades to the standard
/// receiver bit-for-bit: same decoded PSDU, same FCS verdict, same payload, across
/// several noisy captures.
#[test]
fn single_segment_degrades_to_standard_receiver_bit_for_bit() {
    let params = OfdmParams::ieee80211ag();
    let tx = Transmitter::new(params.clone());
    let standard = StandardReceiver::new(params.clone());
    let rx = CpRecycleReceiver::new(params, CpRecycleConfig::with_segments(1));
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE);
    let mut awgn = AwgnChannel::new();
    for (trial, mcs) in Mcs::paper_set().iter().take(3).enumerate() {
        let payload: Vec<u8> = (0..100).map(|_| rng.gen()).collect();
        let frame = tx.build_frame(&payload, *mcs, 0x5D).unwrap();
        let mut noisy = frame.samples.clone();
        awgn.add_noise_snr(&mut rng, &mut noisy, 22.0).unwrap();
        let input = FrameInput::new(&noisy, 0, None);
        let std_out = standard.decode(&mut (), input, &NoopRecorder).unwrap();
        let mut stream = rx.new_stream(ModelPersistence::PerFrame);
        let cp_out = rx.decode(&mut stream, input, &NoopRecorder).unwrap();
        assert_eq!(
            cp_out.psdu, std_out.psdu,
            "trial {trial}: PSDU bits diverged from the standard receiver"
        );
        assert_eq!(cp_out.crc_ok, std_out.crc_ok, "trial {trial}");
        assert_eq!(cp_out.payload, std_out.payload, "trial {trial}");
        assert_eq!(cp_out.info.mcs, *mcs, "trial {trial}");
    }
}
