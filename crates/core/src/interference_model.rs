//! The per-subcarrier interference model (paper §4.1, Eq. 4).
//!
//! During the known preamble symbols the receiver observes, for every subcarrier `f`
//! and every ISI-free FFT segment `j`, the deviation of the equalised observation from
//! the known transmitted value:
//!
//! ```text
//! R_A^j[f] = A(X̂_s^j[f] − X_s[f])      (amplitude of the error vector)
//! R_φ^j[f] = Φ(X̂_s^j[f] − X_s[f])      (phase of the error vector)
//! ```
//!
//! Pooling those samples over segments and preamble symbols, a bivariate Gaussian
//! *product* kernel density estimate models the joint (amplitude, phase) deviation per
//! subcarrier. Because the deviations are expressed *relative to* the transmitted
//! lattice point, the model learnt on BPSK preamble symbols transfers to any data
//! modulation (the paper's "facilitate this" paragraph), and because the model is
//! per-subcarrier it adapts to the frequency-selective structure of adjacent-channel
//! interference.

use crate::config::CpRecycleConfig;
use crate::estimator::{BinSamples, EstimatorState, InterferenceEstimator, ModelBackend};
use crate::segments::SymbolSegments;
use crate::Result;
use ofdmphy::ofdm::OfdmEngine;
use ofdmphy::params::SubcarrierRole;
use ofdmphy::PhyError;
use rfdsp::kde::ProductKde2d;
use rfdsp::Complex;

/// Amplitude/phase deviation of an observation from a reference lattice point
/// (the paper's `A(·)` and `Φ(·)` of the error vector).
///
/// The phase of a numerically-zero error vector (amplitude below `1e-9` on the
/// unit-power constellation scale) is pure floating-point noise, so it is pinned to
/// `0` — otherwise a clean-channel model would train on rounding garbage and its
/// decisions would depend on which extraction kernel produced the rounding.
#[inline]
pub fn deviation(observed: Complex, reference: Complex) -> (f64, f64) {
    let err = observed - reference;
    let amplitude = err.norm();
    if amplitude < 1e-9 {
        (amplitude, 0.0)
    } else {
        (amplitude, err.arg())
    }
}

/// A trained per-subcarrier interference model.
///
/// The model owns the deviation-sample bookkeeping (per-bin [`BinSamples`], dirty-bin
/// tracking, the preamble count) and delegates density fitting and scoring to the
/// configured [`InterferenceEstimator`] backend ([`CpRecycleConfig::model`]): the
/// exact Eq. 4 kernel sum, the precomputed log-likelihood grid, or the parametric
/// Gaussian fit — see [`crate::estimator`].
#[derive(Debug, Clone)]
pub struct InterferenceModel {
    /// The fitted per-bin densities, behind the configured backend.
    estimator: EstimatorState,
    /// Raw deviation samples per bin, kept so the model can be updated when further
    /// preambles arrive and so diagnostics (paper Fig. 6b) can compare samples against
    /// the fitted density.
    samples: Vec<BinSamples>,
    /// Which bins received samples since the last refit (flags + the dense list the
    /// incremental `update` hands to the estimator).
    dirty: Vec<bool>,
    dirty_bins: Vec<usize>,
    config: CpRecycleConfig,
    /// Number of preamble symbols absorbed so far (`N_p`).
    num_preambles: usize,
}

impl InterferenceModel {
    /// Creates an empty (untrained) model for an FFT of `fft_size` bins.
    pub fn new(fft_size: usize, config: CpRecycleConfig) -> Self {
        InterferenceModel {
            estimator: EstimatorState::new(config.model, fft_size),
            samples: vec![BinSamples::default(); fft_size],
            dirty: vec![false; fft_size],
            dirty_bins: Vec::new(),
            config,
            num_preambles: 0,
        }
    }

    /// Trains a model from the segments of one or more known preamble symbols.
    ///
    /// * `preamble_segments` — the extracted segments of each preamble symbol.
    /// * `references` — the known transmitted frequency-domain values of each preamble
    ///   symbol (same FFT-bin indexing as the segments).
    pub fn train(
        engine: &OfdmEngine,
        preamble_segments: &[SymbolSegments],
        references: &[Vec<Complex>],
        config: CpRecycleConfig,
    ) -> Result<Self> {
        if preamble_segments.len() != references.len() {
            return Err(PhyError::LengthMismatch {
                expected: preamble_segments.len(),
                actual: references.len(),
            });
        }
        if preamble_segments.is_empty() {
            return Err(PhyError::invalid(
                "preamble_segments",
                "at least one preamble symbol is required",
            ));
        }
        let mut model = InterferenceModel::new(engine.params().fft_size, config);
        for (segments, reference) in preamble_segments.iter().zip(references) {
            model.absorb_preamble(engine, segments, reference)?;
        }
        model.refit_dirty()?;
        Ok(model)
    }

    /// Adds the deviation samples of one more known preamble (or pilot-bearing) symbol
    /// and refits the per-subcarrier densities — the "constantly updated when subsequent
    /// preambles are received" behaviour of §4.3.
    ///
    /// The refit is **incremental**: only the bins that actually received samples from
    /// this preamble (the dirty bins) are refitted; every other bin's density is left
    /// untouched. Because a refit always uses a bin's full sample set, the result is
    /// identical to batch-training on all preambles (property-tested in
    /// `estimator_equivalence`).
    pub fn update(
        &mut self,
        engine: &OfdmEngine,
        segments: &SymbolSegments,
        reference: &[Complex],
    ) -> Result<()> {
        self.absorb_preamble(engine, segments, reference)?;
        self.refit_dirty()
    }

    /// [`update`](Self::update) for several preamble symbols at once (all sharing one
    /// reference): absorbs every segment set, then refits the dirty bins **once**.
    /// The streaming receiver's rolling persistence feeds both LTF symbols of each
    /// frame through this — two separate `update` calls would re-fit the same dirty
    /// bins twice for an identical result (a refit always uses a bin's full sample
    /// set, so batching changes cost, not output).
    pub fn update_preambles(
        &mut self,
        engine: &OfdmEngine,
        preamble_segments: &[SymbolSegments],
        reference: &[Complex],
    ) -> Result<()> {
        for segments in preamble_segments {
            self.absorb_preamble(engine, segments, reference)?;
        }
        self.refit_dirty()
    }

    fn absorb_preamble(
        &mut self,
        engine: &OfdmEngine,
        segments: &SymbolSegments,
        reference: &[Complex],
    ) -> Result<()> {
        let fft_size = engine.params().fft_size;
        if reference.len() != fft_size {
            return Err(PhyError::LengthMismatch {
                expected: fft_size,
                actual: reference.len(),
            });
        }
        // The occupied bins, filtered in place: `OfdmParams::occupied_bins` collects
        // a fresh `Vec` per call, which would be a per-preamble temporary here.
        let roles = &engine.params().roles;
        for bin in (0..fft_size).filter(|&k| roles[k] != SubcarrierRole::Null) {
            if reference[bin].norm_sqr() == 0.0 {
                continue;
            }
            // Bin-major storage makes this the contiguous, allocation-free access
            // pattern: all `P` observations of one bin in a single slice.
            for obs in segments.bin_observations(bin) {
                let (a, p) = deviation(*obs, reference[bin]);
                self.samples[bin].push(a, p);
            }
            if !self.dirty[bin] {
                self.dirty[bin] = true;
                self.dirty_bins.push(bin);
            }
        }
        self.num_preambles += 1;
        Ok(())
    }

    /// Refits exactly the bins that received samples since the last refit, then
    /// clears the dirty set. Bandwidth selection (per-axis, honouring fixed
    /// bandwidths, floored against degenerate preambles) lives in the backends.
    fn refit_dirty(&mut self) -> Result<()> {
        self.estimator
            .update(&self.samples, &self.dirty_bins, &self.config)?;
        for &bin in &self.dirty_bins {
            self.dirty[bin] = false;
        }
        self.dirty_bins.clear();
        Ok(())
    }

    /// Number of preamble symbols absorbed (`N_p`).
    pub fn num_preambles(&self) -> usize {
        self.num_preambles
    }

    /// The estimator backend this model was configured with.
    pub fn backend(&self) -> ModelBackend {
        self.estimator.backend()
    }

    /// The fitted estimator (for diagnostics and direct backend access).
    pub fn estimator(&self) -> &EstimatorState {
        &self.estimator
    }

    /// Whether a model exists for the given bin.
    pub fn has_model(&self, bin: usize) -> bool {
        self.estimator.has_model(bin)
    }

    /// Number of deviation samples collected for a bin.
    pub fn num_samples(&self, bin: usize) -> usize {
        self.samples[bin].len()
    }

    /// The amplitude deviations collected for a bin (used by the Fig. 6b diagnostic).
    pub fn samples_amplitude(&self, bin: usize) -> &[f64] {
        self.samples[bin].amplitudes()
    }

    /// The phase deviations collected for a bin.
    pub fn samples_phase(&self, bin: usize) -> &[f64] {
        self.samples[bin].phases()
    }

    /// The fitted KDE for a bin — `Some` only under the [`ModelBackend::ExactKde`]
    /// backend (the grid and Gaussian backends do not materialise per-sample KDEs).
    pub fn kde(&self, bin: usize) -> Option<&ProductKde2d> {
        match &self.estimator {
            EstimatorState::Exact(e) => e.kde(bin),
            _ => None,
        }
    }

    /// Log-likelihood of observing `observed` on `bin` given that lattice point
    /// `candidate` was transmitted — `ln P(X̂^j | X)` of Eq. 5 for one segment.
    ///
    /// Falls back to a Gaussian-like distance penalty when no model exists for the bin
    /// (e.g. a bin that carried nothing during the preamble), so the ML decoder always
    /// has a usable metric.
    pub fn log_likelihood(&self, bin: usize, observed: Complex, candidate: Complex) -> f64 {
        // The unfitted-bin fallback lives in the backends (shared
        // `estimator::fallback_log_likelihood`), so delegation is unconditional — no
        // extra `has_model` lookup on the hottest query path.
        self.estimator.log_likelihood(bin, observed, candidate)
    }

    /// Scores a whole plane of precomputed (amplitude, phase) deviations against
    /// `bin`'s density in one call — the sphere decoder's batched hot path (see
    /// [`InterferenceEstimator::log_likelihood_batch`] for the contract). Agrees
    /// with per-query [`log_likelihood`](Self::log_likelihood) to ≤ 1e-9 per
    /// element.
    ///
    /// # Panics
    ///
    /// Panics if the query planes or the output have mismatched lengths.
    pub fn log_likelihood_batch(
        &self,
        bin: usize,
        amplitudes: &[f64],
        phases: &[f64],
        log_likes: &mut [f64],
    ) {
        self.estimator
            .log_likelihood_batch(bin, amplitudes, phases, log_likes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MIN_BANDWIDTH_AMPLITUDE;
    use crate::segments::{extract_segments, SegmentScratch};
    use ofdmphy::chanest::ChannelEstimate;
    use ofdmphy::params::OfdmParams;
    use ofdmphy::preamble;
    use rand::SeedableRng;
    use rfdsp::kde::{select_bandwidth, BandwidthSelector};
    use wirelesschan::mixer::{combine, InterfererSpec};

    fn engine() -> OfdmEngine {
        OfdmEngine::new(OfdmParams::ieee80211ag())
    }

    /// Builds the two LTF symbols (with their long guard) as "preamble symbols" in the
    /// per-symbol framing the segment extractor expects: we treat the second half of the
    /// LTF as two consecutive 80-sample symbols whose CP is genuinely cyclic.
    fn ltf_preamble_symbols(_e: &OfdmEngine, samples: &[Complex]) -> Vec<Vec<Complex>> {
        // LTF layout: 32-sample GI2 + 64 (sym1) + 64 (sym2). Treat sym1 with the last 16
        // samples of GI2 as its CP, and sym2 with the last 16 samples of sym1 as its CP.
        let sym1 = samples[16..96].to_vec();
        let sym2 = samples[80..160].to_vec();
        vec![sym1, sym2]
    }

    #[test]
    fn deviation_of_exact_observation_is_zero_amplitude() {
        let x = Complex::new(0.7, -0.7);
        let (a, _) = deviation(x, x);
        assert!(a < 1e-15);
        let (a2, p2) = deviation(x + Complex::new(0.1, 0.0), x);
        assert!((a2 - 0.1).abs() < 1e-12);
        assert!(p2.abs() < 1e-12);
    }

    #[test]
    fn clean_preamble_trains_tight_model() {
        let e = engine();
        let ltf = preamble::generate_ltf(e.params());
        let est = ChannelEstimate::from_ltf(&e, &ltf).unwrap();
        let reference = preamble::ltf_bins(e.params());
        let symbols = ltf_preamble_symbols(&e, &ltf);
        let segs: Vec<_> = symbols
            .iter()
            .map(|s| extract_segments(&e, s, &est, 17, &mut SegmentScratch::new()).unwrap())
            .collect();
        let model = InterferenceModel::train(
            &e,
            &segs,
            &vec![reference.clone(); 2],
            CpRecycleConfig::default(),
        )
        .unwrap();
        assert_eq!(model.num_preambles(), 2);
        // Every occupied non-DC bin has a model with 2 × 17 samples.
        for bin in e.params().occupied_bins() {
            assert!(model.has_model(bin), "bin {bin}");
            assert_eq!(model.num_samples(bin), 34);
        }
        // With no interference the deviations are ~0, so an observation right on the
        // lattice point is far more likely than one a full symbol away.
        let bin = e.params().data_bins()[10];
        let candidate = Complex::new(1.0, 0.0);
        let near = model.log_likelihood(bin, candidate, candidate);
        let far = model.log_likelihood(bin, candidate + Complex::new(1.0, 1.0), candidate);
        assert!(near > far + 1.0, "near {near} far {far}");
    }

    #[test]
    fn interference_widens_the_learned_density() {
        let e = engine();
        let ltf = preamble::generate_ltf(e.params());
        let reference = preamble::ltf_bins(e.params());

        // Clean model.
        let est_clean = ChannelEstimate::from_ltf(&e, &ltf).unwrap();
        let clean_syms = ltf_preamble_symbols(&e, &ltf);
        let clean_segs: Vec<_> = clean_syms
            .iter()
            .map(|s| extract_segments(&e, s, &est_clean, 17, &mut SegmentScratch::new()).unwrap())
            .collect();
        let clean = InterferenceModel::train(
            &e,
            &clean_segs,
            &vec![reference.clone(); 2],
            CpRecycleConfig::default(),
        )
        .unwrap();

        // Interfered model: add a strong asynchronous interferer over the LTF.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut g = rfdsp::noise::GaussianSource::new();
        let intf_wave = g.complex_vector(&mut rng, 640, 1.0);
        let spec = InterfererSpec::new(intf_wave, 0.15, 21.7, -10.0);
        let combined = combine(&ltf, &[spec]).unwrap();
        let est_intf = ChannelEstimate::from_ltf(&e, &combined.composite).unwrap();
        let intf_syms = ltf_preamble_symbols(&e, &combined.composite);
        let intf_segs: Vec<_> = intf_syms
            .iter()
            .map(|s| extract_segments(&e, s, &est_intf, 17, &mut SegmentScratch::new()).unwrap())
            .collect();
        let interfered = InterferenceModel::train(
            &e,
            &intf_segs,
            &vec![reference.clone(); 2],
            CpRecycleConfig::default(),
        )
        .unwrap();

        // The interfered model must have learned larger amplitude deviations.
        let bin = e.params().data_bins()[5];
        let clean_mean: f64 =
            clean.samples_amplitude(bin).iter().sum::<f64>() / clean.num_samples(bin) as f64;
        let intf_mean: f64 = interfered.samples_amplitude(bin).iter().sum::<f64>()
            / interfered.num_samples(bin) as f64;
        assert!(
            intf_mean > 3.0 * clean_mean,
            "clean {clean_mean}, interfered {intf_mean}"
        );
    }

    #[test]
    fn update_adds_preambles() {
        let e = engine();
        let ltf = preamble::generate_ltf(e.params());
        let est = ChannelEstimate::from_ltf(&e, &ltf).unwrap();
        let reference = preamble::ltf_bins(e.params());
        let symbols = ltf_preamble_symbols(&e, &ltf);
        let segs: Vec<_> = symbols
            .iter()
            .map(|s| extract_segments(&e, s, &est, 9, &mut SegmentScratch::new()).unwrap())
            .collect();
        let mut model = InterferenceModel::train(
            &e,
            &segs[..1],
            std::slice::from_ref(&reference),
            CpRecycleConfig::default(),
        )
        .unwrap();
        assert_eq!(model.num_preambles(), 1);
        model.update(&e, &segs[1], &reference).unwrap();
        assert_eq!(model.num_preambles(), 2);
        let bin = e.params().data_bins()[0];
        assert_eq!(model.num_samples(bin), 18);
    }

    #[test]
    fn train_validation() {
        let e = engine();
        assert!(InterferenceModel::train(&e, &[], &[], CpRecycleConfig::default()).is_err());
        let ltf = preamble::generate_ltf(e.params());
        let est = ChannelEstimate::identity(64);
        let segs = extract_segments(&e, &ltf[16..96], &est, 5, &mut SegmentScratch::new()).unwrap();
        // Mismatched reference count.
        assert!(InterferenceModel::train(
            &e,
            std::slice::from_ref(&segs),
            &[],
            CpRecycleConfig::default()
        )
        .is_err());
        // Wrong reference length.
        assert!(InterferenceModel::train(
            &e,
            &[segs],
            &[vec![Complex::one(); 10]],
            CpRecycleConfig::default()
        )
        .is_err());
    }

    #[test]
    fn fallback_metric_for_unmodelled_bins() {
        let model = InterferenceModel::new(64, CpRecycleConfig::default());
        assert!(!model.has_model(5));
        let near = model.log_likelihood(5, Complex::one(), Complex::one());
        let far = model.log_likelihood(5, Complex::new(3.0, 0.0), Complex::one());
        assert!(near > far);
    }

    #[test]
    fn fixed_bandwidths_are_respected() {
        let e = engine();
        let ltf = preamble::generate_ltf(e.params());
        let est = ChannelEstimate::from_ltf(&e, &ltf).unwrap();
        let reference = preamble::ltf_bins(e.params());
        let segs = extract_segments(&e, &ltf[16..96], &est, 9, &mut SegmentScratch::new()).unwrap();
        let config = CpRecycleConfig {
            bandwidth_phase: Some(0.5),
            ..Default::default()
        };
        let model = InterferenceModel::train(&e, &[segs], &[reference], config).unwrap();
        let bin = e.params().data_bins()[3];
        let kde = model.kde(bin).unwrap();
        assert!((kde.bandwidth_phase() - 0.5).abs() < 1e-12);
        // The amplitude axis keeps the leave-one-out choice, floored.
        let loo = select_bandwidth(model.samples_amplitude(bin), BandwidthSelector::LeaveOneOut)
            .unwrap()
            .max(MIN_BANDWIDTH_AMPLITUDE);
        assert_eq!(kde.bandwidth_amplitude().to_bits(), loo.to_bits());
    }
}
