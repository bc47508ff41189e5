//! Property tests for the decision-stage refactor (the tentpole invariant of the
//! `SubcarrierDecoder` port): across random observation sets, every modulation and
//! every valid segment count `P ∈ {1..C+1}`, the trait-based decoders must agree
//! **bit-for-bit** with the pre-refactor implementations (reproduced here verbatim as
//! reference code), the sphere path must never reallocate its candidate buffers after
//! warm-up, and a `DecisionStage::Standard` receiver must match a `P = 1` sphere
//! receiver frame-for-frame.

use cprecycle::decision::{
    DecoderScratch, NaiveCentroidDecoder, StandardNearestDecoder, SubcarrierDecoder,
};
use cprecycle::segments::SymbolSegments;
use cprecycle::{
    CpRecycleConfig, CpRecycleReceiver, DecisionStage, FixedSphereMlDecoder, FrameInput,
    FrameReceiver, InterferenceModel, ModelPersistence, RxStream,
};
use obs::NoopRecorder;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::ofdm::OfdmEngine;
use ofdmphy::params::OfdmParams;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rfdsp::stats::centroid;
use rfdsp::Complex;
use wirelesschan::awgn::AwgnChannel;

const ALL_MODULATIONS: [Modulation; 5] = [
    Modulation::Bpsk,
    Modulation::Qpsk,
    Modulation::Qam16,
    Modulation::Qam64,
    Modulation::Qam256,
];

/// The pre-refactor sphere decoder (`FixedSphereMlDecoder::decode_subcarrier` before
/// the trait port), reproduced verbatim: per-call candidate `Vec` with cloned
/// `(point, bits)` pairs, nearest-point fallback, max-log-likelihood scan.
fn reference_sphere_decode(
    model: &InterferenceModel,
    modulation: Modulation,
    radius_min_distances: f64,
    bin: usize,
    observations: &[Complex],
) -> (Complex, Vec<u8>) {
    let radius = radius_min_distances.max(0.0) * modulation.min_distance();
    let constellation = modulation.constellation();
    let center = centroid(observations).unwrap_or(Complex::zero());
    let inside: Vec<(Complex, Vec<u8>)> = constellation
        .iter()
        .filter(|(p, _)| (*p - center).norm() <= radius)
        .cloned()
        .collect();
    let candidates = if inside.is_empty() {
        let (p, bits) = modulation.nearest_point(center);
        vec![(p, bits)]
    } else {
        inside
    };
    let mut best = candidates[0].clone();
    let mut best_score = f64::NEG_INFINITY;
    for (point, bits) in candidates {
        let score: f64 = observations
            .iter()
            .map(|obs| model.log_likelihood(bin, *obs, point))
            .sum();
        if score > best_score {
            best_score = score;
            best = (point, bits);
        }
    }
    best
}

/// The pre-refactor naive decoder (`naive::decode_subcarrier`), reproduced verbatim.
fn reference_naive_decode(observations: &[Complex], modulation: Modulation) -> (Complex, Vec<u8>) {
    let mut best_point = Complex::zero();
    let mut best_bits = Vec::new();
    let mut best_metric = f64::INFINITY;
    for (point, bits) in modulation.constellation() {
        let metric: f64 = observations.iter().map(|o| (*o - point).norm()).sum();
        if metric < best_metric {
            best_metric = metric;
            best_point = point;
            best_bits = bits;
        }
    }
    (best_point, best_bits)
}

/// Random observation clusters: a transmitted lattice point plus noise, with a
/// fraction of segments hit by a strong interference vector — the shape the decoders
/// actually see, spanning both the "sphere around the cluster" and the empty-sphere
/// fallback regimes.
fn random_observations<R: Rng>(rng: &mut R, modulation: Modulation, p: usize) -> Vec<Complex> {
    let points = modulation.points();
    let tx = points[rng.gen_range(0..points.len())];
    (0..p)
        .map(|_| {
            let noise = Complex::new(rng.gen_range(-0.1..0.1), rng.gen_range(-0.1..0.1));
            let interference = if rng.gen_range(0..3) == 0 {
                Complex::from_polar(rng.gen_range(0.0..4.0), rng.gen_range(-3.1..3.1))
            } else {
                Complex::zero()
            };
            tx + noise + interference
        })
        .collect()
}

/// A model trained on synthetic per-bin deviation samples so the KDE scoring path
/// (not just the untrained fallback) is exercised.
fn trained_model(engine: &OfdmEngine, seed: u64) -> InterferenceModel {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let reference: Vec<Complex> = (0..64)
        .map(|bin| {
            if engine.params().occupied_bins().contains(&bin) {
                Complex::new(1.0, 0.0)
            } else {
                Complex::zero()
            }
        })
        .collect();
    let rows: Vec<Vec<Complex>> = (0..6)
        .map(|_| {
            reference
                .iter()
                .map(|r| {
                    if r.norm_sqr() == 0.0 {
                        Complex::zero()
                    } else {
                        *r + Complex::from_polar(rng.gen_range(0.0..2.0), rng.gen_range(-3.1..3.1))
                    }
                })
                .collect()
        })
        .collect();
    InterferenceModel::train(
        engine,
        &[SymbolSegments::from_rows(rows)],
        &[reference],
        CpRecycleConfig::default(),
    )
    .expect("synthetic training succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Trait-based sphere decisions are bit-for-bit the pre-refactor decisions for
    /// every modulation and every valid `P ∈ {1..C+1}`, through both the trained-KDE
    /// and the empty-sphere/fallback paths.
    #[test]
    fn sphere_trait_matches_reference_bit_for_bit(seed in any::<u64>(), radius in 0.0f64..4.0) {
        let engine = OfdmEngine::new(OfdmParams::ieee80211ag());
        let model = trained_model(&engine, seed);
        let bin = engine.params().data_bins()[10];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD1CE);
        let mut scratch = DecoderScratch::new();
        for modulation in ALL_MODULATIONS {
            let decoder = FixedSphereMlDecoder::new(&model, modulation, radius);
            for p in 1..=engine.params().cp_len + 1 {
                let obs = random_observations(&mut rng, modulation, p);
                let decided = decoder.decide(bin, &obs, &mut scratch);
                let (ref_point, ref_bits) =
                    reference_sphere_decode(&model, modulation, radius, bin, &obs);
                prop_assert_eq!(
                    decided.value, ref_point,
                    "{:?} P {} radius {}", modulation, p, radius
                );
                prop_assert_eq!(decided.bits(modulation), &ref_bits[..]);
            }
        }
    }

    /// Trait-based naive decisions are bit-for-bit the pre-refactor
    /// `naive::decode_subcarrier` decisions.
    #[test]
    fn naive_trait_matches_reference_bit_for_bit(seed in any::<u64>()) {
        let params = OfdmParams::ieee80211ag();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut scratch = DecoderScratch::new();
        for modulation in ALL_MODULATIONS {
            let decoder = NaiveCentroidDecoder::new(modulation);
            for p in 1..=params.cp_len + 1 {
                let obs = random_observations(&mut rng, modulation, p);
                let decided = decoder.decide(0, &obs, &mut scratch);
                let (ref_point, ref_bits) = reference_naive_decode(&obs, modulation);
                prop_assert_eq!(decided.value, ref_point, "{:?} P {}", modulation, p);
                prop_assert_eq!(decided.bits(modulation), &ref_bits[..]);
            }
        }
    }

    /// Trait-based standard-window decisions are bit-for-bit
    /// `Modulation::nearest_point` on the last segment (the conventional receiver's
    /// decision).
    #[test]
    fn standard_trait_matches_nearest_point_bit_for_bit(seed in any::<u64>()) {
        let params = OfdmParams::ieee80211ag();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut scratch = DecoderScratch::new();
        for modulation in ALL_MODULATIONS {
            let decoder = StandardNearestDecoder::new(modulation);
            for p in 1..=params.cp_len + 1 {
                let obs = random_observations(&mut rng, modulation, p);
                let decided = decoder.decide(0, &obs, &mut scratch);
                let (ref_point, ref_bits) = modulation.nearest_point(*obs.last().unwrap());
                prop_assert_eq!(decided.value, ref_point, "{:?} P {}", modulation, p);
                prop_assert_eq!(decided.bits(modulation), &ref_bits[..]);
            }
        }
    }
}

/// Regression for the old per-candidate allocation bug: across a 1000-symbol sphere
/// decode (including empty-sphere fallbacks), the candidate buffer must warm up once
/// and never reallocate again.
#[test]
fn sphere_candidate_buffer_never_reallocates_across_1000_symbols() {
    let engine = OfdmEngine::new(OfdmParams::ieee80211ag());
    let model = InterferenceModel::new(64, CpRecycleConfig::default());
    let modulation = Modulation::Qam16;
    let decoder = FixedSphereMlDecoder::new(&model, modulation, 1.0);
    let data_bins = engine.params().data_bins();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
    let mut scratch = DecoderScratch::new();

    // Warm-up symbol: sizes the buffers to the full lattice.
    let warmup = symbol_for(&mut rng, modulation, 4);
    decoder.decide_symbol(&warmup, &data_bins, &mut scratch);
    let capacity = scratch.candidate_capacity();
    assert!(
        capacity >= modulation.num_points(),
        "warm-up must reserve the full lattice, got {capacity}"
    );

    for _ in 0..999 {
        let segments = symbol_for(&mut rng, modulation, 4);
        let decided = decoder.decide_symbol(&segments, &data_bins, &mut scratch);
        assert_eq!(decided.len(), data_bins.len());
        assert_eq!(
            scratch.candidate_capacity(),
            capacity,
            "candidate buffer reallocated mid-campaign"
        );
    }
}

fn symbol_for(rng: &mut rand::rngs::StdRng, modulation: Modulation, p: usize) -> SymbolSegments {
    let rows: Vec<Vec<Complex>> = (0..p)
        .map(|_| {
            (0..64)
                .map(|_| {
                    // A mix of tight clusters and far-out observations so both the
                    // populated-sphere and the nearest-point fallback paths run.
                    let points = modulation.points();
                    let tx = points[rng.gen_range(0..points.len())];
                    let offset = if rng.gen_range(0..8) == 0 {
                        Complex::new(10.0, 10.0)
                    } else {
                        Complex::new(rng.gen_range(-0.2..0.2), rng.gen_range(-0.2..0.2))
                    };
                    tx + offset
                })
                .collect()
        })
        .collect();
    SymbolSegments::from_rows(rows)
}

/// `DecisionStage::Standard` is the conventional decision; with one segment the sphere
/// stage sees a single observation whose centroid is the observation itself, so the
/// two receivers must decode identical frames (same PSDU, same FCS verdict) across
/// noisy captures — the decision-stage counterpart of the `P = 1` ≡ standard-receiver
/// regression in `segment_equivalence.rs`.
#[test]
fn standard_stage_matches_single_segment_sphere_decode() {
    let params = OfdmParams::ieee80211ag();
    let tx = Transmitter::new(params.clone());
    let standard_rx = CpRecycleReceiver::new(
        params.clone(),
        CpRecycleConfig::with_decision(DecisionStage::Standard),
    );
    let sphere_p1_rx =
        CpRecycleReceiver::new(params, CpRecycleConfig::builder().num_segments(1).build());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFACE);
    let mut awgn = AwgnChannel::new();
    let mut stream = RxStream::new(ModelPersistence::PerFrame);
    for (trial, mcs) in Mcs::paper_set().iter().take(3).enumerate() {
        let payload: Vec<u8> = (0..100).map(|_| rng.gen()).collect();
        let frame = tx.build_frame(&payload, *mcs, 0x5D).unwrap();
        let mut noisy = frame.samples.clone();
        awgn.add_noise_snr(&mut rng, &mut noisy, 22.0).unwrap();
        let input = FrameInput::new(&noisy, 0, None);
        let a = standard_rx
            .decode(&mut stream, input, &NoopRecorder)
            .unwrap();
        let b = sphere_p1_rx
            .decode(&mut stream, input, &NoopRecorder)
            .unwrap();
        assert_eq!(a.psdu, b.psdu, "trial {trial}: PSDU diverged");
        assert_eq!(a.crc_ok, b.crc_ok, "trial {trial}");
        assert_eq!(a.payload, b.payload, "trial {trial}");
    }
}
