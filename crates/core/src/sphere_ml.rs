//! The fixed-sphere maximum-likelihood decoder (paper §4.2, Eq. 5).
//!
//! For each data subcarrier the decoder receives `P` segment observations. It:
//!
//! 1. computes their **centroid** (average of real and imaginary parts),
//! 2. restricts the search to lattice points within a **fixed sphere** of radius `R`
//!    around the centroid (falling back to the nearest lattice point when the sphere is
//!    empty, so the decoder never fails outright),
//! 3. scores every candidate by the sum over segments of the log-likelihood from the
//!    per-subcarrier interference model (the product of Eq. 5 in log domain) and picks
//!    the maximum.
//!
//! The decoder implements [`SubcarrierDecoder`] over the cached
//! [`Modulation::lattice`] table: candidates are `u16` lattice indices accumulated in
//! the shared [`DecoderScratch`], so the whole search — enumeration, scoring, argmax —
//! performs **zero heap allocations** after the scratch has warmed up (previously
//! every candidate of every bin of every symbol cloned a `(Complex, Vec<u8>)` pair).

use crate::decision::{DecoderScratch, LatticePoint, SubcarrierDecoder};
use crate::interference_model::{deviation, InterferenceModel};
use ofdmphy::modulation::{Lattice, Modulation};
use rfdsp::stats::centroid;
use rfdsp::Complex;

/// The fixed-sphere ML decoder for one modulation order, bound to the interference
/// model trained from the current frame's preamble.
#[derive(Debug, Clone, Copy)]
pub struct FixedSphereMlDecoder<'m> {
    model: &'m InterferenceModel,
    modulation: Modulation,
    /// Sphere radius in absolute constellation units.
    radius: f64,
    lattice: &'static Lattice,
}

impl<'m> FixedSphereMlDecoder<'m> {
    /// Creates a decoder for `modulation` with sphere radius expressed as a multiple of
    /// the constellation's minimum distance (the paper's `R`, made scale-free so one
    /// setting works across modulations). Construction is cheap — the lattice table is
    /// process-wide and the model is borrowed — so the receiver builds one per frame.
    pub fn new(
        model: &'m InterferenceModel,
        modulation: Modulation,
        radius_min_distances: f64,
    ) -> Self {
        let radius = radius_min_distances.max(0.0) * modulation.min_distance();
        FixedSphereMlDecoder {
            model,
            modulation,
            radius,
            lattice: modulation.lattice(),
        }
    }

    /// The absolute sphere radius in constellation units.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Enumerates the candidate lattice indices within the sphere centred at the
    /// centroid of `observations` (paper Fig. 6c) into the scratch buffer and returns
    /// them. Falls back to the single nearest lattice point when the sphere is empty.
    pub fn candidates<'s>(
        &self,
        observations: &[Complex],
        scratch: &'s mut DecoderScratch,
    ) -> &'s [u16] {
        self.enumerate_candidates(observations, scratch);
        &scratch.candidates
    }

    fn enumerate_candidates(&self, observations: &[Complex], scratch: &mut DecoderScratch) {
        scratch.prepare(self.modulation);
        let center = centroid(observations).unwrap_or(Complex::zero());
        for (i, point) in self.lattice.points().iter().enumerate() {
            if (*point - center).norm() <= self.radius {
                scratch.candidates.push(i as u16);
            }
        }
        if scratch.candidates.is_empty() {
            scratch.candidates.push(self.lattice.nearest_index(center));
        }
    }
}

impl SubcarrierDecoder for FixedSphereMlDecoder<'_> {
    fn modulation(&self) -> Modulation {
        self.modulation
    }

    fn decide(
        &self,
        bin: usize,
        observations: &[Complex],
        scratch: &mut DecoderScratch,
    ) -> LatticePoint {
        self.enumerate_candidates(observations, scratch);
        // Batched scoring: hoist every candidate/observation deviation into
        // candidate-major planes, score them all with ONE estimator call (the
        // lane-parallel batch path), then reduce per candidate. The per-candidate sum
        // iterates observations in the same order as the old per-query loop, so
        // scores are unchanged wherever the batch path is bit-for-bit (grid f64,
        // Gaussian, fallback) and within 1e-9 elsewhere.
        let p = observations.len();
        scratch.dev_amp.clear();
        scratch.dev_phase.clear();
        let total = scratch.candidates.len() * p;
        scratch.dev_amp.reserve(total);
        scratch.dev_phase.reserve(total);
        for &index in &scratch.candidates {
            let point = self.lattice.point(index);
            for obs in observations {
                let (amplitude, phase) = deviation(*obs, point);
                scratch.dev_amp.push(amplitude);
                scratch.dev_phase.push(phase);
            }
        }
        scratch.log_likes.clear();
        scratch.log_likes.resize(total, 0.0);
        self.model.log_likelihood_batch(
            bin,
            &scratch.dev_amp,
            &scratch.dev_phase,
            &mut scratch.log_likes,
        );
        for chunk in scratch.log_likes.chunks_exact(p) {
            scratch.scores.push(chunk.iter().sum());
        }
        // First strict maximum wins, so ties keep the earliest (lowest-index)
        // candidate — the pre-trait decoder's behaviour, pinned bit-for-bit by the
        // decision_equivalence property tests.
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (k, &score) in scratch.scores.iter().enumerate() {
            if score > best_score {
                best_score = score;
                best = k;
            }
        }
        let index = scratch.candidates[best];
        LatticePoint {
            index,
            value: self.lattice.point(index),
        }
    }
}

/// The pre-trait sphere decoder, kept as the test oracle the
/// [`FixedSphereMlDecoder`] is checked against bit-for-bit and the `sphere_alloc`
/// arm of the `decision` bench; the receiver never calls it.
pub mod reference {
    use crate::interference_model::InterferenceModel;
    use ofdmphy::modulation::Modulation;
    use rfdsp::stats::centroid;
    use rfdsp::Complex;

    /// One subcarrier decision as the decoder made it before the
    /// [`SubcarrierDecoder`](crate::decision::SubcarrierDecoder) port: a per-call
    /// candidate `Vec` of `(point, bits)` pairs cloned out of `constellation`
    /// (which is `modulation.constellation()`), the nearest point when the sphere
    /// is empty, and a max-log-likelihood scan where the first strict maximum wins.
    pub fn decode_subcarrier(
        model: &InterferenceModel,
        constellation: &[(Complex, Vec<u8>)],
        modulation: Modulation,
        radius_min_distances: f64,
        bin: usize,
        observations: &[Complex],
    ) -> (Complex, Vec<u8>) {
        let radius = radius_min_distances.max(0.0) * modulation.min_distance();
        let center = centroid(observations).unwrap_or(Complex::zero());
        let inside: Vec<(Complex, Vec<u8>)> = constellation
            .iter()
            .filter(|(p, _)| (*p - center).norm() <= radius)
            .cloned()
            .collect();
        let candidates = if inside.is_empty() {
            vec![modulation.nearest_point(center)]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpRecycleConfig;
    use crate::decision::NaiveCentroidDecoder;
    use rand::{Rng, SeedableRng};

    fn scratch() -> DecoderScratch {
        DecoderScratch::new()
    }

    #[test]
    fn sphere_radius_scales_with_modulation() {
        let model = InterferenceModel::new(64, CpRecycleConfig::default());
        let qpsk = FixedSphereMlDecoder::new(&model, Modulation::Qpsk, 1.5);
        let qam64 = FixedSphereMlDecoder::new(&model, Modulation::Qam64, 1.5);
        assert!(qpsk.radius() > qam64.radius());
        assert_eq!(qpsk.modulation(), Modulation::Qpsk);
    }

    #[test]
    fn candidates_within_sphere_only() {
        let model = InterferenceModel::new(64, CpRecycleConfig::default());
        let dec = FixedSphereMlDecoder::new(&model, Modulation::Qam16, 1.0);
        // Observations clustered near one corner point.
        let corner = Modulation::Qam16
            .points()
            .into_iter()
            .max_by(|a, b| a.norm().partial_cmp(&b.norm()).unwrap())
            .unwrap();
        let obs = vec![corner; 4];
        let mut s = scratch();
        let cands = dec.candidates(&obs, &mut s);
        // All candidates lie within R of the corner, so the search space is much smaller
        // than the full 16-point constellation.
        assert!(!cands.is_empty());
        assert!(cands.len() <= 4, "sphere too large: {}", cands.len());
        let lattice = Modulation::Qam16.lattice();
        for &i in cands {
            assert!((lattice.point(i) - corner).norm() <= dec.radius() + 1e-12);
        }
    }

    #[test]
    fn empty_sphere_falls_back_to_nearest_point() {
        let model = InterferenceModel::new(64, CpRecycleConfig::default());
        let dec = FixedSphereMlDecoder::new(&model, Modulation::Qpsk, 0.01);
        // Centroid far away from every lattice point.
        let obs = vec![Complex::new(10.0, 10.0); 3];
        let mut s = scratch();
        let cands = dec.candidates(&obs, &mut s).to_vec();
        assert_eq!(cands.len(), 1);
        let nearest = Modulation::Qpsk.nearest_point(Complex::new(10.0, 10.0)).0;
        assert!((Modulation::Qpsk.lattice().point(cands[0]) - nearest).norm() < 1e-12);
    }

    #[test]
    fn fallback_model_decodes_by_distance() {
        // With no trained model the log-likelihood falls back to a distance penalty, so
        // the decoder behaves like a robust nearest-point decision on the centroid.
        let model = InterferenceModel::new(64, CpRecycleConfig::default());
        let dec = FixedSphereMlDecoder::new(&model, Modulation::Qpsk, 2.0);
        let mut s = scratch();
        for (point, bits) in Modulation::Qpsk.constellation() {
            let obs = vec![point, point, point + Complex::new(0.05, -0.02)];
            let decided = dec.decide(1, &obs, &mut s);
            assert!((decided.value - point).norm() < 1e-12);
            assert_eq!(decided.bits(Modulation::Qpsk), &bits[..]);
        }
    }

    #[test]
    fn corrupted_segments_do_not_fool_the_ml_decoder() {
        // The scenario where the naive decoder fails (§3.3): the transmitted BPSK point
        // is +1; two segments observe it cleanly and three are hit by an interference
        // vector of amplitude ≈ 3.1. The interference model — trained on a preamble that
        // experienced the same per-segment interference statistics — has density mass at
        // deviation amplitudes ≈ 0 and ≈ 3.1 but not at ≈ 2 (the distance to the wrong
        // lattice point), so the ML decoder keeps the correct decision while the naive
        // average-distance decoder flips.
        use crate::segments::SymbolSegments;
        use ofdmphy::ofdm::OfdmEngine;
        use ofdmphy::params::OfdmParams;

        let engine = OfdmEngine::new(OfdmParams::ieee80211ag());
        let bin = engine.params().data_bins()[10];
        let reference_value = Complex::new(1.0, 0.0);
        let mut reference = vec![Complex::zero(); 64];
        reference[bin] = reference_value;
        // Synthetic preamble segments: 5 segments, two clean, three interfered with an
        // amplitude-≈3.1 error vector at assorted phases.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut values = Vec::new();
        for j in 0..5 {
            let mut seg = vec![Complex::zero(); 64];
            let noise = Complex::new(rng.gen::<f64>() * 0.02, rng.gen::<f64>() * 0.02);
            let interference = match j {
                0 | 1 => Complex::zero(),
                2 => Complex::from_polar(3.1, 2.8),
                3 => Complex::from_polar(3.15, -3.0),
                _ => Complex::from_polar(3.05, 3.05),
            };
            seg[bin] = reference_value + interference + noise;
            values.push(seg);
        }
        let segments = SymbolSegments::from_rows(values);
        let model = InterferenceModel::train(
            &engine,
            &[segments],
            &[reference],
            CpRecycleConfig::default(),
        )
        .unwrap();

        // Data-symbol observations with the same structure, transmitted point = +1:
        // three segments pushed to ≈ −2.1 (error amplitude ≈ 3.1), two clean.
        let obs = vec![
            Complex::new(1.02, 0.01),
            Complex::new(0.99, -0.02),
            Complex::new(-2.1, 0.15),
            Complex::new(-2.05, -0.1),
            Complex::new(-2.12, 0.05),
        ];
        let dec = FixedSphereMlDecoder::new(&model, Modulation::Bpsk, 6.0);
        let mut s = scratch();
        let decided = dec.decide(bin, &obs, &mut s);
        assert!(
            (decided.value - Complex::new(1.0, 0.0)).norm() < 1e-9,
            "ML decoder should resist the corrupted majority, got {}",
            decided.value
        );
        // The naive decoder is fooled on the same input (cross-check of the paper's
        // motivating example).
        let naive = NaiveCentroidDecoder::new(Modulation::Bpsk).decide(bin, &obs, &mut s);
        assert!((naive.value - Complex::new(-1.0, 0.0)).norm() < 1e-9);
    }

    #[test]
    fn decode_symbol_and_search_space() {
        use crate::segments::SymbolSegments;
        let model = InterferenceModel::new(64, CpRecycleConfig::default());
        let dec = FixedSphereMlDecoder::new(&model, Modulation::Qam16, 1.0);
        let points = Modulation::Qam16.points();
        // Three segments whose bin `i + 1` all observe constellation point `i`.
        let row: Vec<Complex> = (0..64)
            .map(|bin| {
                if (1..=8).contains(&bin) {
                    points[bin - 1]
                } else {
                    Complex::zero()
                }
            })
            .collect();
        let segments = SymbolSegments::from_rows(vec![row.clone(), row.clone(), row]);
        let bins: Vec<usize> = (1..=8).collect();
        let mut s = scratch();
        let decided = dec.decide_symbol(&segments, &bins, &mut s);
        assert_eq!(decided.len(), 8);
        for (d, p) in decided.iter().zip(points.iter().take(8)) {
            assert!((*d - *p).norm() < 1e-12);
        }
        let total_space: usize = bins
            .iter()
            .map(|&bin| dec.candidates(segments.bin_observations(bin), &mut s).len())
            .sum();
        let mean_space = total_space as f64 / bins.len() as f64;
        assert!((1.0..16.0).contains(&mean_space));
    }
}
