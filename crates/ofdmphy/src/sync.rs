//! Packet detection, timing synchronisation and carrier-frequency-offset estimation.
//!
//! Detection uses the classic Schmidl–Cox style delay-and-correlate on the periodic
//! short training field (period 16); fine timing comes from cross-correlating with the
//! known long-training symbol; coarse and fine CFO estimates come from the phase of the
//! STF / LTF autocorrelations.
//!
//! The module has two layers:
//!
//! * [`CoarseDetector`] — the **resumable incremental core**: an `O(1)`-per-sample
//!   state machine holding the running STF autocorrelation and energy accumulators
//!   plus a short ring of recent samples. Samples are pushed one at a time, so
//!   detection works across arbitrary chunk boundaries — the streaming sessions
//!   (`cprecycle::session::RxSession`) feed it directly from their carry-over buffer.
//! * [`Synchronizer`] — the whole-buffer view: [`Synchronizer::detect`] and
//!   [`Synchronizer::detect_from`] are thin wrappers that drive a [`CoarseDetector`]
//!   over a capture and then run the fine-timing/CFO stage ([`Synchronizer::refine`]).
//!
//! The controlled experiments use genie timing (the frame start is known exactly), so
//! synchronisation errors never confound the packet-success-rate comparisons — but the
//! module is exercised by its own tests, the streaming sessions and the quickstart
//! example, since a receiver without sync would not be adoptable.

use crate::params::OfdmParams;
use crate::preamble;
use crate::{PhyError, Result};
use rfdsp::Complex;

/// Number of consecutive above-threshold metrics required before a detection fires:
/// the STF makes the delay-and-correlate metric sit near 1 for ~100 consecutive
/// samples, so requiring a short run rejects isolated noise spikes while locking on
/// to the plateau start (which coincides with the frame start to within a few
/// samples).
const SUSTAIN: usize = 8;

/// Output of frame detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncResult {
    /// Estimated index of the first STF sample.
    pub frame_start: usize,
    /// Estimated carrier frequency offset in Hz.
    pub cfo_hz: f64,
    /// Peak normalised STF correlation metric (0..1), useful as a detection confidence.
    pub detection_metric: f64,
}

/// A coarse detection emitted by the incremental [`CoarseDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoarseDetection {
    /// Index (in the detector's sample space — see [`CoarseDetector::new`]) of the
    /// start of the sustained above-threshold plateau.
    pub start: usize,
    /// Maximum metric observed over the qualifying plateau run.
    pub metric: f64,
}

/// The resumable incremental Schmidl–Cox detector: a delay-and-correlate over the STF
/// periodicity, updated in `O(1)` per pushed sample.
///
/// The detector owns the running correlation accumulator `acc`, the running energy,
/// and a ring buffer of the last `window + period` samples — everything needed to
/// continue detection across arbitrary chunk boundaries. It performs the **same
/// floating-point operations in the same order** as a whole-buffer sweep, so a capture
/// pushed sample-by-sample yields bit-identical metrics to [`Synchronizer::detect`]
/// (which is itself implemented on top of this core).
///
/// After a detection fires the caller decides how to resume: construct a fresh
/// detector at the position where scanning should continue (the streaming session
/// resumes after the decoded frame, or a few samples past a false alarm).
#[derive(Debug, Clone)]
pub struct CoarseDetector {
    period: usize,
    window: usize,
    threshold: f64,
    /// Index (caller's sample space) of the first sample this detector consumes.
    origin: usize,
    /// Number of samples pushed so far.
    count: usize,
    /// Ring of the last `window + period + 1` samples (indexed modulo capacity).
    ring: Vec<Complex>,
    acc: Complex,
    /// Energy of the window's leading half (the samples one STF period ahead).
    energy_ahead: f64,
    /// Energy of the window's lagged half.
    energy_lag: f64,
    /// Length of the current run of consecutive above-threshold metrics.
    run: usize,
    /// Maximum metric over the current run.
    run_max: f64,
}

impl CoarseDetector {
    /// Creates a detector whose first pushed sample has index `origin` in the caller's
    /// sample space (stream-absolute for sessions, slice-relative for batch sweeps).
    pub fn new(params: &OfdmParams, threshold: f64, origin: usize) -> Self {
        let period = preamble::stf_period(params);
        let window = 3 * period; // correlation accumulation window
        CoarseDetector {
            period,
            window,
            threshold,
            origin,
            count: 0,
            ring: vec![Complex::zero(); window + period + 1],
            acc: Complex::zero(),
            energy_ahead: 0.0,
            energy_lag: 0.0,
            run: 0,
            run_max: 0.0,
        }
    }

    /// Index (caller's sample space) of the next sample this detector expects.
    pub fn position(&self) -> usize {
        self.origin + self.count
    }

    /// Number of trailing samples a caller must retain so that a detection's plateau
    /// start is always inside its buffer when [`push`](Self::push) fires: the metric
    /// for plateau start `s` is only complete once sample
    /// `s + SUSTAIN + window + period − 2` has been pushed.
    pub fn lookback(&self) -> usize {
        self.window + self.period + SUSTAIN
    }

    /// Pushes one sample; returns the coarse detection the moment a sustained
    /// above-threshold plateau completes.
    ///
    /// After a detection is returned the detector keeps accepting samples but will not
    /// fire again until the metric first drops below the threshold (the plateau must
    /// end before a new one can begin); batch wrappers stop feeding it instead.
    pub fn push(&mut self, sample: Complex) -> Option<CoarseDetection> {
        let cap = self.ring.len();
        let n = self.count;
        self.ring[n % cap] = sample;
        if n >= self.period {
            let lagged = self.ring[(n - self.period) % cap];
            self.acc += sample * lagged.conj();
            self.energy_ahead += sample.norm_sqr();
            self.energy_lag += lagged.norm_sqr();
        }
        let mut fired = None;
        if n + 1 >= self.window + self.period {
            // The metric for plateau-candidate `start` is complete. Normalising by
            // the *larger* of the two half-window energies keeps the metric ≤ 1
            // (Cauchy–Schwarz): a one-sided normaliser explodes on a burst's
            // trailing edge (large lagged energy over near-noise ahead energy) and
            // fakes plateaus there — fatal for a streaming scanner that keeps
            // hunting after each decoded frame.
            let metric = if self.energy_ahead.max(self.energy_lag) > 1e-18 {
                self.acc.norm() / self.energy_ahead.max(self.energy_lag)
            } else {
                0.0
            };
            let start = n + 1 - self.window - self.period;
            if metric > self.threshold {
                self.run += 1;
                self.run_max = self.run_max.max(metric);
                if self.run == SUSTAIN {
                    fired = Some(CoarseDetection {
                        start: self.origin + start + 1 - SUSTAIN,
                        metric: self.run_max,
                    });
                }
            } else {
                self.run = 0;
                self.run_max = 0.0;
            }
            // Retire the oldest pair so the accumulators cover the next window.
            let old_ahead = self.ring[(start + self.period) % cap];
            let old_lag = self.ring[start % cap];
            self.acc -= old_ahead * old_lag.conj();
            self.energy_ahead -= old_ahead.norm_sqr();
            self.energy_lag -= old_lag.norm_sqr();
        }
        self.count += 1;
        fired
    }
}

/// The synchroniser for one numerology.
#[derive(Debug, Clone)]
pub struct Synchronizer {
    params: OfdmParams,
    /// Time-domain reference of one 64-sample long training symbol.
    ltf_reference: Vec<Complex>,
    /// Detection threshold on the normalised STF autocorrelation.
    detection_threshold: f64,
}

impl Synchronizer {
    /// Default detection threshold on the normalised STF autocorrelation: high enough
    /// to reject noise, low enough to fire on a clean or mildly interfered preamble.
    pub const DEFAULT_THRESHOLD: f64 = 0.8;

    /// Creates a synchroniser for the given numerology with the default detection
    /// threshold.
    pub fn new(params: OfdmParams) -> Self {
        Self::with_threshold(params, Self::DEFAULT_THRESHOLD)
    }

    /// Creates a synchroniser with an explicit detection threshold — lower values
    /// trade false-alarm rate for detection under stronger interference (asynchronous
    /// interference inflates the energy normaliser, deflating the plateau metric).
    pub fn with_threshold(params: OfdmParams, detection_threshold: f64) -> Self {
        let ltf = preamble::generate_ltf(&params);
        let f = params.fft_size;
        let gi2 = 2 * params.cp_len;
        let ltf_reference = ltf[gi2..gi2 + f].to_vec();
        Synchronizer {
            params,
            ltf_reference,
            detection_threshold,
        }
    }

    /// The configured detection threshold.
    pub fn detection_threshold(&self) -> f64 {
        self.detection_threshold
    }

    /// The numerology this synchroniser was built for.
    pub fn params(&self) -> &OfdmParams {
        &self.params
    }

    /// A fresh incremental detector whose first sample has index `origin` in the
    /// caller's sample space, using this synchroniser's threshold.
    pub fn coarse_detector(&self, origin: usize) -> CoarseDetector {
        CoarseDetector::new(&self.params, self.detection_threshold, origin)
    }

    /// Detects the first frame in `samples`, returning its estimated start and CFO.
    ///
    /// Returns `Ok(None)` when no region of the capture exceeds the detection
    /// threshold (no packet present).
    pub fn detect(&self, samples: &[Complex]) -> Result<Option<SyncResult>> {
        self.detect_from(samples, 0)
    }

    /// Detects the first frame at or after `offset`, scanning `samples[offset..]`
    /// without slicing (returned indices stay relative to the full buffer) — the entry
    /// point for finding a second frame mid-buffer after a first one was decoded.
    pub fn detect_from(&self, samples: &[Complex], offset: usize) -> Result<Option<SyncResult>> {
        let preamble_len = preamble::preamble_len(&self.params);
        let min_len = preamble_len + self.params.symbol_len();
        if samples.len() < offset + min_len {
            return Err(PhyError::InsufficientSamples {
                needed: offset + min_len,
                available: samples.len(),
            });
        }
        let mut detector = self.coarse_detector(offset);
        let mut coarse = None;
        for &s in &samples[offset..] {
            if let Some(d) = detector.push(s) {
                coarse = Some(d);
                break;
            }
        }
        match coarse {
            Some(d) => self.refine(samples, d).map(Some),
            None => Ok(None),
        }
    }

    /// The fine-synchronisation stage: given a coarse STF detection, estimates the
    /// coarse CFO from the STF autocorrelation, refines the timing by
    /// cross-correlating with the known LTF symbol, and resolves the CFO ambiguity
    /// with the fine LTF estimate. Indices in `coarse` and the returned
    /// [`SyncResult::frame_start`] are relative to `samples`.
    ///
    /// Works on truncated captures (the LTF search window and CFO accumulations clamp
    /// to the available samples); streaming callers should buffer at least
    /// `coarse.start +` [`refine_lookahead`](Self::refine_lookahead) samples first so
    /// a chunked capture refines exactly like a whole one.
    pub fn refine(&self, samples: &[Complex], coarse: CoarseDetection) -> Result<SyncResult> {
        let period = preamble::stf_period(&self.params);
        let coarse_start = coarse.start;

        // Coarse CFO from the STF autocorrelation phase at the detected position.
        let mut acc = Complex::zero();
        for t in coarse_start..coarse_start + 6 * period {
            if t + period >= samples.len() {
                break;
            }
            acc += samples[t + period] * samples[t].conj();
        }
        let coarse_cfo =
            acc.arg() / (2.0 * std::f64::consts::PI * period as f64) * self.params.sample_rate_hz;

        // Fine timing: cross-correlate with the known LTF symbol around the expected
        // position (coarse + STF + GI2). The search is asymmetric: a plateau fires at
        // the first metric that clears the threshold, so a *low* threshold can fire
        // up to roughly a correlation window early (never late) — the upper margin
        // covers that bias so the true LTF stays inside the search for any threshold.
        let gi2 = 2 * self.params.cp_len;
        let f = self.params.fft_size;
        let expected_ltf = coarse_start + preamble::stf_len(&self.params) + gi2;
        let search_lo = expected_ltf.saturating_sub(24);
        let search_hi =
            (expected_ltf + 24 + 3 * period + period).min(samples.len().saturating_sub(2 * f));
        // The two long training symbols are identical, so a search window this wide
        // can contain *two* near-equal correlation peaks 64 samples apart; taking the
        // global max would randomly lock onto the second symbol. Take the earliest
        // position within a whisker of the best correlation instead.
        let mut corrs = Vec::with_capacity(search_hi.saturating_sub(search_lo) + 1);
        let mut best_corr = 0.0f64;
        for pos in search_lo..=search_hi {
            let corr = rfdsp::stats::normalized_cross_correlation(
                &samples[pos..pos + f],
                &self.ltf_reference,
            )?;
            best_corr = best_corr.max(corr);
            corrs.push(corr);
        }
        let mut best_pos = expected_ltf;
        for (i, corr) in corrs.iter().enumerate() {
            if *corr >= 0.9 * best_corr && best_corr > 0.0 {
                // Climb from the threshold crossing to the local peak: under
                // interference the 90 % crossing can sit a sample or two early, and
                // segment extraction is far less forgiving of early timing (early
                // windows reach into the previous symbol) than of late.
                let mut peak = i;
                while peak + 1 < corrs.len() && corrs[peak + 1] > corrs[peak] {
                    peak += 1;
                }
                best_pos = search_lo + peak;
                break;
            }
        }
        let frame_start = best_pos.saturating_sub(preamble::stf_len(&self.params) + gi2);

        // Fine CFO from the two identical LTF symbols (64 samples apart).
        let mut acc = Complex::zero();
        if best_pos + 2 * f <= samples.len() {
            for t in best_pos..best_pos + f {
                acc += samples[t + f] * samples[t].conj();
            }
        }
        let fine_cfo = if acc.norm_sqr() > 0.0 {
            acc.arg() / (2.0 * std::f64::consts::PI * f as f64) * self.params.sample_rate_hz
        } else {
            0.0
        };
        // The fine estimate is unambiguous only within ±(fs/2F); combine: coarse gives
        // the integer part, fine refines it.
        let cfo_hz = if fine_cfo.abs() > 0.0 {
            fine_cfo
                + ((coarse_cfo - fine_cfo) / (self.params.sample_rate_hz / f as f64)).round()
                    * (self.params.sample_rate_hz / f as f64)
        } else {
            coarse_cfo
        };

        Ok(SyncResult {
            frame_start,
            cfo_hz,
            detection_metric: coarse.metric,
        })
    }

    /// Samples needed past a coarse detection before [`refine`](Self::refine) has its
    /// full LTF search window and fine-CFO span available — the chunk-boundary
    /// invariant streaming sessions wait on so that a chunked refine is bit-identical
    /// to a whole-capture one.
    pub fn refine_lookahead(&self) -> usize {
        let gi2 = 2 * self.params.cp_len;
        let f = self.params.fft_size;
        let period = preamble::stf_period(&self.params);
        // expected_ltf offset + asymmetric search margin + the two LTF symbols the
        // fine CFO uses (mirrors the search bounds in `refine`).
        preamble::stf_len(&self.params) + gi2 + 24 + 3 * period + period + 2 * f
    }

    /// Removes a carrier frequency offset estimate from a capture (multiplies by the
    /// conjugate rotation).
    pub fn correct_cfo(&self, samples: &mut [Complex], cfo_hz: f64) {
        let step = -2.0 * std::f64::consts::PI * cfo_hz / self.params.sample_rate_hz;
        for (t, s) in samples.iter_mut().enumerate() {
            *s *= Complex::cis(step * t as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convcode::CodeRate;
    use crate::frame::{Mcs, Transmitter};
    use crate::modulation::Modulation;
    use rand::SeedableRng;
    use wirelesschan::awgn::AwgnChannel;
    use wirelesschan::impairments::apply_cfo;

    fn build_capture(pad: usize, seed: u64, snr_db: f64, cfo_hz: f64) -> (Vec<Complex>, usize) {
        let tx = Transmitter::new(OfdmParams::ieee80211ag());
        let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
        let frame = tx.build_frame(&[0xA5; 100], mcs, 0x5D).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = rfdsp::noise::GaussianSource::new();
        let frame_power = rfdsp::power::signal_power(&frame.samples).unwrap();
        let noise_var = frame_power / rfdsp::power::db_to_lin(snr_db);
        let mut capture = g.complex_vector(&mut rng, pad, noise_var);
        let mut body = frame.samples.clone();
        if cfo_hz != 0.0 {
            apply_cfo(&mut body, cfo_hz, 20e6).unwrap();
        }
        capture.extend(body);
        capture.extend(g.complex_vector(&mut rng, 200, noise_var));
        let mut chan = AwgnChannel::new();
        chan.add_noise_variance(&mut rng, &mut capture, noise_var)
            .unwrap();
        (capture, pad)
    }

    #[test]
    fn detects_frame_start_within_cp_tolerance() {
        let sync = Synchronizer::new(OfdmParams::ieee80211ag());
        for (pad, seed) in [(400usize, 1u64), (1000, 2), (123, 3)] {
            let (capture, true_start) = build_capture(pad, seed, 25.0, 0.0);
            let result = sync.detect(&capture).unwrap().expect("frame detected");
            let err = result.frame_start as isize - true_start as isize;
            assert!(err.abs() <= 8, "timing error {err} at pad {pad}");
            assert!(result.detection_metric > 0.8);
        }
    }

    #[test]
    fn estimates_cfo() {
        let sync = Synchronizer::new(OfdmParams::ieee80211ag());
        for cfo in [-60_000.0, 30_000.0, 100_000.0] {
            let (capture, _) = build_capture(600, 4, 30.0, cfo);
            let result = sync.detect(&capture).unwrap().expect("frame detected");
            assert!(
                (result.cfo_hz - cfo).abs() < 3_000.0,
                "cfo {cfo} estimated {}",
                result.cfo_hz
            );
        }
    }

    #[test]
    fn cfo_correction_enables_decoding() {
        let sync = Synchronizer::new(OfdmParams::ieee80211ag());
        let rx = crate::rx::StandardReceiver::new(OfdmParams::ieee80211ag());
        let (mut capture, _) = build_capture(500, 5, 30.0, 80_000.0);
        let result = sync.detect(&capture).unwrap().expect("frame detected");
        sync.correct_cfo(&mut capture, result.cfo_hz);
        // Allow a small residual timing error by decoding at the estimated start.
        use crate::rx::{FrameInput, FrameReceiver};
        let input = FrameInput::new(&capture, result.frame_start, None);
        let decoded = rx.decode(&mut (), input, &obs::NoopRecorder);
        // With CFO corrected the SIGNAL field should parse; CRC may still fail if the
        // timing estimate is at the edge of the CP, so only require successful parsing.
        assert!(decoded.is_ok());
    }

    #[test]
    fn no_frame_returns_none() {
        let sync = Synchronizer::new(OfdmParams::ieee80211ag());
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut g = rfdsp::noise::GaussianSource::new();
        let noise = g.complex_vector(&mut rng, 2000, 1.0);
        assert!(sync.detect(&noise).unwrap().is_none());
    }

    #[test]
    fn short_capture_is_an_error() {
        let sync = Synchronizer::new(OfdmParams::ieee80211ag());
        let samples = vec![Complex::zero(); 100];
        assert!(sync.detect(&samples).is_err());
        // detect_from applies the same minimum to the scanned tail.
        let longer = vec![Complex::zero(); 600];
        assert!(sync.detect_from(&longer, 300).is_err());
    }

    #[test]
    fn threshold_is_a_constructor_parameter() {
        let params = OfdmParams::ieee80211ag();
        let default = Synchronizer::new(params.clone());
        assert_eq!(
            default.detection_threshold(),
            Synchronizer::DEFAULT_THRESHOLD
        );
        let loose = Synchronizer::with_threshold(params, 0.55);
        assert_eq!(loose.detection_threshold(), 0.55);
        // A tighter threshold must never fire where the default does not: a clean
        // capture is detected by both.
        let (capture, _) = build_capture(300, 9, 30.0, 0.0);
        assert!(loose.detect(&capture).unwrap().is_some());
    }

    #[test]
    fn detect_from_finds_a_second_frame_mid_buffer() {
        // Two frames in one capture, separated by a noise gap: `detect` locks to the
        // first; `detect_from` past the first frame finds the second without slicing
        // (so the returned start indexes the full buffer).
        let tx = Transmitter::new(OfdmParams::ieee80211ag());
        let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
        let frame1 = tx.build_frame(&[0x11; 60], mcs, 0x5D).unwrap();
        let frame2 = tx.build_frame(&[0x22; 60], mcs, 0x2B).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut g = rfdsp::noise::GaussianSource::new();
        let p = rfdsp::power::signal_power(&frame1.samples).unwrap();
        let noise_var = p / rfdsp::power::db_to_lin(30.0);
        let mut capture = g.complex_vector(&mut rng, 400, noise_var);
        capture.extend_from_slice(&frame1.samples);
        let second_start = capture.len() + 350;
        capture.extend(g.complex_vector(&mut rng, 350, noise_var));
        capture.extend_from_slice(&frame2.samples);
        capture.extend(g.complex_vector(&mut rng, 250, noise_var));
        let mut chan = AwgnChannel::new();
        chan.add_noise_variance(&mut rng, &mut capture, noise_var)
            .unwrap();

        let sync = Synchronizer::new(OfdmParams::ieee80211ag());
        let first = sync.detect(&capture).unwrap().expect("first frame");
        assert!((first.frame_start as isize - 400).abs() <= 8);
        let resume = first.frame_start + frame1.samples.len();
        let second = sync
            .detect_from(&capture, resume)
            .unwrap()
            .expect("second frame");
        let err = second.frame_start as isize - second_start as isize;
        assert!(err.abs() <= 8, "second-frame timing error {err}");
        // And detect_from at 0 reproduces detect exactly.
        let again = sync.detect_from(&capture, 0).unwrap().unwrap();
        assert_eq!(again, first);
    }

    #[test]
    fn incremental_detector_matches_batch_across_chunk_boundaries() {
        // The chunk-boundary invariant: pushing the capture one sample at a time must
        // fire at exactly the coarse start the batch sweep finds, with the same metric
        // bits — the property the streaming sessions rely on.
        let params = OfdmParams::ieee80211ag();
        let sync = Synchronizer::new(params.clone());
        let (capture, _) = build_capture(700, 8, 25.0, 0.0);
        let batch = sync.detect(&capture).unwrap().expect("frame detected");

        let mut detector = sync.coarse_detector(0);
        let mut fired = None;
        for &s in &capture {
            if let Some(d) = detector.push(s) {
                fired = Some(d);
                break;
            }
        }
        let d = fired.expect("incremental detection");
        assert_eq!(d.metric.to_bits(), batch.detection_metric.to_bits());
        let refined = sync.refine(&capture, d).unwrap();
        assert_eq!(refined, batch);
    }

    #[test]
    fn detector_position_and_lookback_are_consistent() {
        let params = OfdmParams::ieee80211ag();
        let mut det = CoarseDetector::new(&params, 0.8, 1000);
        assert_eq!(det.position(), 1000);
        det.push(Complex::zero());
        assert_eq!(det.position(), 1001);
        // Lookback covers the full metric window plus the sustain run.
        assert!(
            det.lookback() >= 3 * preamble::stf_period(&params) + preamble::stf_period(&params)
        );
    }
}
