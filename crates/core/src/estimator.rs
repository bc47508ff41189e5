//! The pluggable interference-estimator subsystem.
//!
//! The paper's §4.1 density model — one bivariate product KDE per subcarrier — is
//! what the ML decoder evaluates per candidate × per segment × per bin, and the
//! `decision` bench shows that scoring dominates decode cost at large `P`. This
//! module makes the estimator a first-class, swappable stage: the
//! [`InterferenceEstimator`] trait (train / update / `log_likelihood`) with three
//! backends behind [`ModelBackend`]:
//!
//! * [`ExactKdeEstimator`] — the reference: the paper's per-sample kernel sum
//!   (Eq. 4), `O(P·N_p)` per query;
//! * [`GridKdeEstimator`] — at refit time, precompute a 2-D log-likelihood lookup
//!   table over (amplitude, phase) deviation per bin ([`GridKde2d`]) and answer
//!   queries with an O(1) bilinear interpolation in the log domain;
//! * [`GaussianEstimator`] — a cheap parametric per-bin bivariate Gaussian fit
//!   ([`BivariateGaussian`]), a deliberately coarser accuracy/speed arm to sweep
//!   (related work replaces the density model wholesale; this is the smallest such
//!   replacement).
//!
//! [`crate::InterferenceModel`] owns the per-bin deviation samples
//! ([`BinSamples`]) and the dirty-bin bookkeeping; backends only fit and answer
//! queries. The backend is a field of [`CpRecycleConfig`], so it flows into every
//! campaign point key and sweeps like any other receiver parameter.

use crate::config::{CpRecycleConfig, MIN_BANDWIDTH_AMPLITUDE, MIN_BANDWIDTH_PHASE};
use crate::interference_model::deviation;
use crate::Result;
use rfdsp::kde::{select_bandwidth_scratch, BandwidthSelector, GridKde2d, GridSpec, ProductKde2d};
use rfdsp::stats::BivariateGaussian;
use rfdsp::Complex;

/// Which interference-estimator backend the receiver fits from the preamble — a
/// field of [`CpRecycleConfig`], so campaigns sweep it alongside SNR, `P` and the
/// decision stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelBackend {
    /// The paper's exact per-sample kernel sum (Eq. 4) — the reference backend and
    /// the default.
    #[default]
    ExactKde,
    /// Precomputed per-bin log-likelihood grid with O(1) bilinear lookup.
    GridKde,
    /// Parametric per-bin bivariate Gaussian fit.
    Gaussian,
}

impl ModelBackend {
    /// Short name used in campaign arm labels and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ModelBackend::ExactKde => "ExactKde",
            ModelBackend::GridKde => "GridKde",
            ModelBackend::Gaussian => "Gaussian",
        }
    }
}

/// The (amplitude, phase) deviation samples of one FFT bin, stored as two parallel
/// axis vectors so bandwidth selection and the parametric fit read each axis as a
/// slice without collecting temporaries.
#[derive(Debug, Clone, Default)]
pub struct BinSamples {
    amp: Vec<f64>,
    phase: Vec<f64>,
}

impl BinSamples {
    /// Appends one deviation sample.
    pub fn push(&mut self, amplitude: f64, phase: f64) {
        self.amp.push(amplitude);
        self.phase.push(phase);
    }

    /// Number of samples collected.
    pub fn len(&self) -> usize {
        self.amp.len()
    }

    /// Whether the bin has collected no samples.
    pub fn is_empty(&self) -> bool {
        self.amp.is_empty()
    }

    /// The amplitude coordinates.
    pub fn amplitudes(&self) -> &[f64] {
        &self.amp
    }

    /// The phase coordinates.
    pub fn phases(&self) -> &[f64] {
        &self.phase
    }
}

/// A swappable interference-estimator backend: fits per-bin densities from the
/// deviation samples the model collects and scores observations for the ML decoder.
///
/// Contract shared by all implementations:
///
/// * [`update`](Self::update) (re)fits exactly the listed bins from their **full**
///   sample sets — so an incremental dirty-bin refit after absorbing a preamble
///   produces a model identical to batch training on the same preambles (pinned by
///   the `estimator_equivalence` property tests);
/// * [`log_likelihood`](Self::log_likelihood) answers with the shared
///   [`fallback_log_likelihood`] for bins without a fitted density (the model-level
///   dispatch short-circuits that case, but backends are public API and must be
///   safe to query directly) and must be finite and strictly ordered in the far
///   tail, so distant lattice candidates never tie;
/// * [`log_likelihood_batch`](Self::log_likelihood_batch) agrees with the scalar
///   query to ≤ 1e-9 per element (bit-for-bit for the grid and Gaussian backends,
///   whose batch paths run the identical arithmetic);
/// * queries are allocation-free.
pub trait InterferenceEstimator {
    /// Which backend this is (for labels and diagnostics).
    fn backend(&self) -> ModelBackend;

    /// Whether a fitted density exists for `bin`.
    fn has_model(&self, bin: usize) -> bool;

    /// Log-likelihood of one precomputed (amplitude, phase) deviation on `bin` —
    /// the primitive query both [`log_likelihood`](Self::log_likelihood) and
    /// [`log_likelihood_batch`](Self::log_likelihood_batch) reduce to. The
    /// deviation convention is [`deviation`]'s (phase pinned to `0` for
    /// numerically-zero error vectors).
    fn log_likelihood_deviation(&self, bin: usize, amplitude: f64, phase: f64) -> f64;

    /// Log-likelihood of observing `observed` on `bin` given that lattice point
    /// `candidate` was transmitted — `ln P(X̂^j | X)` of Eq. 5 for one segment.
    fn log_likelihood(&self, bin: usize, observed: Complex, candidate: Complex) -> f64 {
        let (a, p) = deviation(observed, candidate);
        self.log_likelihood_deviation(bin, a, p)
    }

    /// Scores a whole plane of precomputed deviations against `bin`'s density in
    /// one call, writing `log_likes[i]` for query `(amplitudes[i], phases[i])`.
    ///
    /// This is the sphere decoder's hot path: all candidate × segment pairs of a
    /// subcarrier go through a single batch call, so KDE backends can amortise
    /// per-query setup and run their lane-parallel kernels
    /// ([`ProductKde2d::log_eval_batch`], [`GridKde2d::log_eval_batch`]). The
    /// default implementation is the scalar loop — correct for any backend.
    ///
    /// # Panics
    ///
    /// Panics if the query planes or the output have mismatched lengths.
    fn log_likelihood_batch(
        &self,
        bin: usize,
        amplitudes: &[f64],
        phases: &[f64],
        log_likes: &mut [f64],
    ) {
        assert_eq!(
            amplitudes.len(),
            phases.len(),
            "query planes must have equal lengths"
        );
        assert_eq!(
            amplitudes.len(),
            log_likes.len(),
            "output must match the query count"
        );
        for ((a, p), o) in amplitudes.iter().zip(phases).zip(log_likes.iter_mut()) {
            *o = self.log_likelihood_deviation(bin, *a, *p);
        }
    }

    /// Refits the listed bins from their current sample sets (bins with no samples
    /// are skipped). This is the §4.3 incremental path: after a preamble update only
    /// the bins that received samples are passed in.
    fn update(
        &mut self,
        samples: &[BinSamples],
        bins: &[usize],
        config: &CpRecycleConfig,
    ) -> Result<()>;

    /// Fits every non-empty bin from scratch — batch training.
    fn train(&mut self, samples: &[BinSamples], config: &CpRecycleConfig) -> Result<()> {
        let all: Vec<usize> = (0..samples.len()).collect();
        self.update(samples, &all, config)
    }
}

/// Log-likelihood of a bin no estimator has a fitted density for (e.g. a bin that
/// carried nothing during the preamble): a Gaussian-like distance penalty on the
/// deviation amplitude, so the ML decoder always has a usable metric. One shared
/// policy — [`crate::InterferenceModel`] and every backend route through it.
#[inline]
pub fn fallback_log_likelihood(observed: Complex, candidate: Complex) -> f64 {
    let (a, _) = deviation(observed, candidate);
    fallback_log_likelihood_deviation(a)
}

/// [`fallback_log_likelihood`] for a precomputed deviation amplitude — the form the
/// batched query paths use once deviations have been hoisted out of the per-backend
/// dispatch.
#[inline]
pub fn fallback_log_likelihood_deviation(amplitude: f64) -> f64 {
    -0.5 * amplitude * amplitude
}

/// The shared unfitted-bin batch fallback: the Gaussian-like distance penalty over a
/// whole deviation plane.
#[inline]
fn fallback_batch(amplitudes: &[f64], log_likes: &mut [f64]) {
    assert_eq!(
        amplitudes.len(),
        log_likes.len(),
        "output must match the query count"
    );
    for (a, o) in amplitudes.iter().zip(log_likes.iter_mut()) {
        *o = fallback_log_likelihood_deviation(*a);
    }
}

/// Per-axis kernel bandwidths for one bin: leave-one-out (or the configured fixed
/// phase bandwidth), floored at [`MIN_BANDWIDTH_AMPLITUDE`] and
/// [`MIN_BANDWIDTH_PHASE`] (shared by the exact and grid backends).
fn bin_bandwidths(
    samples: &BinSamples,
    config: &CpRecycleConfig,
    scratch: &mut Vec<f64>,
) -> Result<(f64, f64)> {
    let selector_p = config
        .bandwidth_phase
        .map_or(BandwidthSelector::LeaveOneOut, BandwidthSelector::Fixed);
    let ba = select_bandwidth_scratch(
        samples.amplitudes(),
        BandwidthSelector::LeaveOneOut,
        scratch,
    )?
    .max(MIN_BANDWIDTH_AMPLITUDE);
    let bp =
        select_bandwidth_scratch(samples.phases(), selector_p, scratch)?.max(MIN_BANDWIDTH_PHASE);
    Ok((ba, bp))
}

/// The reference backend: one [`ProductKde2d`] per bin, evaluated exactly.
#[derive(Debug, Clone, Default)]
pub struct ExactKdeEstimator {
    kdes: Vec<Option<ProductKde2d>>,
    /// Bandwidth-selection scratch (sort and leave-one-out row sums), reused across
    /// bins and refits.
    scratch: Vec<f64>,
}

impl ExactKdeEstimator {
    /// An untrained estimator for an FFT of `fft_size` bins.
    pub fn new(fft_size: usize) -> Self {
        ExactKdeEstimator {
            kdes: vec![None; fft_size],
            scratch: Vec::new(),
        }
    }

    /// The fitted KDE of a bin, if any (diagnostics; the Fig. 6b driver reads it).
    pub fn kde(&self, bin: usize) -> Option<&ProductKde2d> {
        self.kdes.get(bin).and_then(|k| k.as_ref())
    }
}

impl InterferenceEstimator for ExactKdeEstimator {
    fn backend(&self) -> ModelBackend {
        ModelBackend::ExactKde
    }

    fn has_model(&self, bin: usize) -> bool {
        self.kdes.get(bin).map(|k| k.is_some()).unwrap_or(false)
    }

    fn log_likelihood_deviation(&self, bin: usize, amplitude: f64, phase: f64) -> f64 {
        match self.kde(bin) {
            Some(kde) => kde.log_eval(amplitude, phase),
            None => fallback_log_likelihood_deviation(amplitude),
        }
    }

    fn log_likelihood_batch(
        &self,
        bin: usize,
        amplitudes: &[f64],
        phases: &[f64],
        log_likes: &mut [f64],
    ) {
        match self.kde(bin) {
            // The lane-parallel Eq. 4 kernel: one hoisted normalisation, polynomial
            // exp over LANES-wide chunks (agrees with the scalar sum to ≤ 1e-9).
            Some(kde) => kde.log_eval_batch(amplitudes, phases, log_likes),
            None => fallback_batch(amplitudes, log_likes),
        }
    }

    fn update(
        &mut self,
        samples: &[BinSamples],
        bins: &[usize],
        config: &CpRecycleConfig,
    ) -> Result<()> {
        for &bin in bins {
            let s = &samples[bin];
            if s.is_empty() {
                continue;
            }
            let (ba, bp) = bin_bandwidths(s, config, &mut self.scratch)?;
            match &mut self.kdes[bin] {
                // Refit in place: the KDE's sample buffers are reused, so a refit
                // allocates only when the bin's sample count outgrows them.
                Some(kde) => kde.refit_axes(s.amplitudes(), s.phases(), ba, bp)?,
                slot => *slot = Some(ProductKde2d::from_axes(s.amplitudes(), s.phases(), ba, bp)?),
            }
        }
        Ok(())
    }
}

/// The precomputed-grid backend: at refit time each bin's exact log density is
/// tabulated on a (amplitude, phase) grid; queries are O(1) bilinear lookups.
#[derive(Debug, Clone)]
pub struct GridKdeEstimator {
    grids: Vec<Option<GridKde2d>>,
    spec: GridSpec,
    scratch: Vec<f64>,
}

impl GridKdeEstimator {
    /// An untrained estimator with the default [`GridSpec`].
    pub fn new(fft_size: usize) -> Self {
        Self::with_spec(fft_size, GridSpec::default())
    }

    /// An untrained estimator with an explicit resolution/extent policy.
    pub fn with_spec(fft_size: usize, spec: GridSpec) -> Self {
        GridKdeEstimator {
            grids: vec![None; fft_size],
            spec,
            scratch: Vec::new(),
        }
    }

    /// The fitted grid of a bin, if any.
    pub fn grid(&self, bin: usize) -> Option<&GridKde2d> {
        self.grids.get(bin).and_then(|g| g.as_ref())
    }
}

impl InterferenceEstimator for GridKdeEstimator {
    fn backend(&self) -> ModelBackend {
        ModelBackend::GridKde
    }

    fn has_model(&self, bin: usize) -> bool {
        self.grids.get(bin).map(|g| g.is_some()).unwrap_or(false)
    }

    fn log_likelihood_deviation(&self, bin: usize, amplitude: f64, phase: f64) -> f64 {
        match self.grid(bin) {
            Some(grid) => grid.log_eval(amplitude, phase),
            None => fallback_log_likelihood_deviation(amplitude),
        }
    }

    fn log_likelihood_batch(
        &self,
        bin: usize,
        amplitudes: &[f64],
        phases: &[f64],
        log_likes: &mut [f64],
    ) {
        match self.grid(bin) {
            // Bit-for-bit with the scalar lookup (same ops, same order).
            Some(grid) => grid.log_eval_batch(amplitudes, phases, log_likes),
            None => fallback_batch(amplitudes, log_likes),
        }
    }

    fn update(
        &mut self,
        samples: &[BinSamples],
        bins: &[usize],
        config: &CpRecycleConfig,
    ) -> Result<()> {
        for &bin in bins {
            let s = &samples[bin];
            if s.is_empty() {
                continue;
            }
            let (ba, bp) = bin_bandwidths(s, config, &mut self.scratch)?;
            self.grids[bin] = Some(GridKde2d::from_axes(
                s.amplitudes(),
                s.phases(),
                ba,
                bp,
                &self.spec,
            )?);
        }
        Ok(())
    }
}

/// The parametric backend: one [`BivariateGaussian`] per bin. Far cheaper to fit
/// and query than any KDE, but blind to the multi-modal deviation structure strong
/// bursty interference produces — the accuracy/speed trade-off the `models`
/// campaign sweep measures.
#[derive(Debug, Clone, Default)]
pub struct GaussianEstimator {
    fits: Vec<Option<BivariateGaussian>>,
}

impl GaussianEstimator {
    /// An untrained estimator for an FFT of `fft_size` bins.
    pub fn new(fft_size: usize) -> Self {
        GaussianEstimator {
            fits: vec![None; fft_size],
        }
    }

    /// The fitted Gaussian of a bin, if any.
    pub fn fit(&self, bin: usize) -> Option<&BivariateGaussian> {
        self.fits.get(bin).and_then(|f| f.as_ref())
    }
}

impl InterferenceEstimator for GaussianEstimator {
    fn backend(&self) -> ModelBackend {
        ModelBackend::Gaussian
    }

    fn has_model(&self, bin: usize) -> bool {
        self.fits.get(bin).map(|f| f.is_some()).unwrap_or(false)
    }

    fn log_likelihood_deviation(&self, bin: usize, amplitude: f64, phase: f64) -> f64 {
        match self.fit(bin) {
            Some(g) => g.log_pdf(amplitude, phase),
            None => fallback_log_likelihood_deviation(amplitude),
        }
    }

    fn update(
        &mut self,
        samples: &[BinSamples],
        bins: &[usize],
        _config: &CpRecycleConfig,
    ) -> Result<()> {
        for &bin in bins {
            let s = &samples[bin];
            if s.is_empty() {
                continue;
            }
            self.fits[bin] = Some(BivariateGaussian::fit(
                s.amplitudes(),
                s.phases(),
                MIN_BANDWIDTH_AMPLITUDE,
                MIN_BANDWIDTH_PHASE,
            )?);
        }
        Ok(())
    }
}

/// The concrete backend dispatch [`crate::InterferenceModel`] embeds: an enum (not
/// a boxed trait object) so the model stays `Clone` and the per-query dispatch is a
/// branch instead of a vtable call. Each variant also implements
/// [`InterferenceEstimator`] on its own, so external receivers can use a backend
/// directly.
#[derive(Debug, Clone)]
pub enum EstimatorState {
    /// Exact per-sample kernel sums.
    Exact(ExactKdeEstimator),
    /// Precomputed log-likelihood grids.
    Grid(GridKdeEstimator),
    /// Parametric bivariate Gaussians.
    Gaussian(GaussianEstimator),
}

impl EstimatorState {
    /// An untrained estimator of the given backend for `fft_size` bins.
    pub fn new(backend: ModelBackend, fft_size: usize) -> Self {
        match backend {
            ModelBackend::ExactKde => EstimatorState::Exact(ExactKdeEstimator::new(fft_size)),
            ModelBackend::GridKde => EstimatorState::Grid(GridKdeEstimator::new(fft_size)),
            ModelBackend::Gaussian => EstimatorState::Gaussian(GaussianEstimator::new(fft_size)),
        }
    }
}

impl InterferenceEstimator for EstimatorState {
    fn backend(&self) -> ModelBackend {
        match self {
            EstimatorState::Exact(e) => e.backend(),
            EstimatorState::Grid(e) => e.backend(),
            EstimatorState::Gaussian(e) => e.backend(),
        }
    }

    fn has_model(&self, bin: usize) -> bool {
        match self {
            EstimatorState::Exact(e) => e.has_model(bin),
            EstimatorState::Grid(e) => e.has_model(bin),
            EstimatorState::Gaussian(e) => e.has_model(bin),
        }
    }

    fn log_likelihood_deviation(&self, bin: usize, amplitude: f64, phase: f64) -> f64 {
        match self {
            EstimatorState::Exact(e) => e.log_likelihood_deviation(bin, amplitude, phase),
            EstimatorState::Grid(e) => e.log_likelihood_deviation(bin, amplitude, phase),
            EstimatorState::Gaussian(e) => e.log_likelihood_deviation(bin, amplitude, phase),
        }
    }

    fn log_likelihood(&self, bin: usize, observed: Complex, candidate: Complex) -> f64 {
        match self {
            EstimatorState::Exact(e) => e.log_likelihood(bin, observed, candidate),
            EstimatorState::Grid(e) => e.log_likelihood(bin, observed, candidate),
            EstimatorState::Gaussian(e) => e.log_likelihood(bin, observed, candidate),
        }
    }

    fn log_likelihood_batch(
        &self,
        bin: usize,
        amplitudes: &[f64],
        phases: &[f64],
        log_likes: &mut [f64],
    ) {
        match self {
            EstimatorState::Exact(e) => e.log_likelihood_batch(bin, amplitudes, phases, log_likes),
            EstimatorState::Grid(e) => e.log_likelihood_batch(bin, amplitudes, phases, log_likes),
            EstimatorState::Gaussian(e) => {
                e.log_likelihood_batch(bin, amplitudes, phases, log_likes)
            }
        }
    }

    fn update(
        &mut self,
        samples: &[BinSamples],
        bins: &[usize],
        config: &CpRecycleConfig,
    ) -> Result<()> {
        match self {
            EstimatorState::Exact(e) => e.update(samples, bins, config),
            EstimatorState::Grid(e) => e.update(samples, bins, config),
            EstimatorState::Gaussian(e) => e.update(samples, bins, config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_samples(fft_size: usize, per_bin: usize) -> Vec<BinSamples> {
        let mut samples = vec![BinSamples::default(); fft_size];
        for (bin, s) in samples.iter_mut().enumerate().take(12).skip(2) {
            for j in 0..per_bin {
                let a = 0.1 + 0.05 * ((bin * 7 + j * 3) % 11) as f64;
                let p = -1.0 + 0.2 * ((bin * 5 + j) % 10) as f64;
                s.push(a, p);
            }
        }
        samples
    }

    #[test]
    fn backend_labels() {
        assert_eq!(ModelBackend::ExactKde.label(), "ExactKde");
        assert_eq!(ModelBackend::GridKde.label(), "GridKde");
        assert_eq!(ModelBackend::Gaussian.label(), "Gaussian");
        assert_eq!(ModelBackend::default(), ModelBackend::ExactKde);
    }

    #[test]
    fn bin_samples_push_and_axes() {
        let mut s = BinSamples::default();
        assert!(s.is_empty());
        s.push(0.5, -0.2);
        s.push(0.7, 0.1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.amplitudes(), &[0.5, 0.7]);
        assert_eq!(s.phases(), &[-0.2, 0.1]);
    }

    #[test]
    fn every_backend_trains_and_scores() {
        let samples = synthetic_samples(64, 10);
        let config = CpRecycleConfig::default();
        for backend in [
            ModelBackend::ExactKde,
            ModelBackend::GridKde,
            ModelBackend::Gaussian,
        ] {
            let mut est = EstimatorState::new(backend, 64);
            assert_eq!(est.backend(), backend);
            assert!(!est.has_model(5));
            est.train(&samples, &config).unwrap();
            assert!(est.has_model(5), "{backend:?}");
            assert!(
                !est.has_model(40),
                "{backend:?}: empty bin stays unmodelled"
            );
            // Scoring prefers the transmitted point over a distant one.
            let obs = Complex::new(1.1, 0.1);
            let near = est.log_likelihood(5, obs, Complex::new(1.0, 0.0));
            let far = est.log_likelihood(5, obs, Complex::new(-3.0, 0.0));
            assert!(near.is_finite() && far.is_finite(), "{backend:?}");
            assert!(near > far, "{backend:?}: near {near}, far {far}");
        }
    }

    #[test]
    fn grid_tracks_exact_on_trained_bins() {
        let samples = synthetic_samples(64, 16);
        let config = CpRecycleConfig::default();
        let mut exact = ExactKdeEstimator::new(64);
        exact.train(&samples, &config).unwrap();
        let mut grid = GridKdeEstimator::new(64);
        grid.train(&samples, &config).unwrap();
        for bin in 2..12 {
            for k in 0..8 {
                let obs = Complex::new(1.0 + 0.04 * k as f64, 0.03 * k as f64);
                let cand = Complex::new(1.0, 0.0);
                let e = exact.log_likelihood(bin, obs, cand);
                let g = grid.log_likelihood(bin, obs, cand);
                assert!((e - g).abs() < 0.1, "bin {bin}: exact {e}, grid {g}");
            }
        }
    }

    #[test]
    fn batched_scoring_matches_scalar_for_every_backend() {
        let samples = synthetic_samples(64, 12);
        let config = CpRecycleConfig::default();
        // Deviation queries spanning the fitted support and its tails, with a length
        // that leaves an unaligned lane remainder.
        let amps: Vec<f64> = (0..13).map(|i| 0.05 + 0.11 * i as f64).collect();
        let phases: Vec<f64> = (0..13).map(|i| -1.4 + 0.23 * i as f64).collect();
        let mut batch = vec![0.0; amps.len()];
        for backend in [
            ModelBackend::ExactKde,
            ModelBackend::GridKde,
            ModelBackend::Gaussian,
        ] {
            let mut est = EstimatorState::new(backend, 64);
            est.train(&samples, &config).unwrap();
            // Trained bin: batch must agree with the scalar query path.
            est.log_likelihood_batch(5, &amps, &phases, &mut batch);
            for (i, (&a, &p)) in amps.iter().zip(&phases).enumerate() {
                let scalar = est.log_likelihood_deviation(5, a, p);
                assert!(
                    (batch[i] - scalar).abs() < 1e-9,
                    "{backend:?} query {i}: batch {} vs scalar {scalar}",
                    batch[i]
                );
            }
            // Unfitted bin: bit-for-bit the shared fallback penalty.
            est.log_likelihood_batch(40, &amps, &phases, &mut batch);
            for (i, &a) in amps.iter().enumerate() {
                assert_eq!(
                    batch[i].to_bits(),
                    fallback_log_likelihood_deviation(a).to_bits(),
                    "{backend:?} fallback query {i}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn batch_scoring_rejects_mismatched_output() {
        let est = EstimatorState::new(ModelBackend::Gaussian, 8);
        let mut out = [0.0; 2];
        est.log_likelihood_batch(0, &[0.1], &[0.0], &mut out);
    }

    #[test]
    fn dirty_bin_update_refits_only_the_listed_bins() {
        let mut samples = synthetic_samples(64, 8);
        let config = CpRecycleConfig::default();
        let mut est = ExactKdeEstimator::new(64);
        est.train(&samples, &config).unwrap();
        let before_len = est.kde(3).unwrap().len();
        // New samples land on bin 5 only; bin 3 is not in the dirty list.
        samples[5].push(0.9, 0.4);
        est.update(&samples, &[5], &config).unwrap();
        assert_eq!(est.kde(3).unwrap().len(), before_len);
        assert_eq!(est.kde(5).unwrap().len(), 9);
    }
}
