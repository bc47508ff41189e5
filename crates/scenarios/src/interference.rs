//! Scenario builders: adjacent-channel and co-channel interference.
//!
//! Every builder takes a fully-built victim [`ofdmphy::frame::TxFrame`] and renders the
//! waveform the victim receiver actually captures, plus the interference-only waveform
//! (the paper obtains the latter by muting the sender; the Oracle receiver and the
//! Fig. 4 diagnostics need it).

use crate::wideband::{channel_select_and_decimate, shift_by_hz, upsample_interp};
use crate::Result;
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::params::OfdmParams;
use ofdmphy::PhyError;
use rand::Rng;
use rfdsp::noise::GaussianSource;
use rfdsp::power::{db_to_lin, signal_power};
use rfdsp::resample::fractional_delay;
use rfdsp::Complex;
use wirelesschan::frontend::TxFrontend;
use wirelesschan::impairments::apply_cfo;
use wirelesschan::multipath::{FadingKind, MultipathChannel, PowerDelayProfile};

/// Which side(s) of the victim channel the adjacent interferer(s) occupy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AciSide {
    /// One interferer above the victim channel (the paper's single-interferer setup).
    Single,
    /// Interferers on both sides (the paper's Fig. 9 two-interferer setup).
    BothSides,
}

/// Adjacent-channel-interference scenario configuration.
#[derive(Debug, Clone)]
pub struct AciScenario {
    /// Oversampling factor of the composite simulation (4 covers guard bands to
    /// ~20 MHz, 8 covers the Fig. 10 sweep to 30 MHz).
    pub oversample: usize,
    /// Guard band between the victim's highest occupied subcarrier and the interferer's
    /// lowest occupied subcarrier, in Hz. Negative values create partially overlapping
    /// channels (e.g. Wi-Fi channels 8 vs 11).
    pub guard_band_hz: f64,
    /// Signal-to-interference ratio in dB (total received powers, per interferer).
    pub sir_db: f64,
    /// Receiver noise SNR in dB (relative to the victim signal).
    pub snr_db: f64,
    /// One or two interferers.
    pub side: AciSide,
    /// MCS used by the interferer's own frames.
    pub interferer_mcs: Mcs,
    /// Whether the interferer's front end is the leaky consumer-grade model (PA
    /// regrowth + IQ imbalance), the paper's "RF leakage" mechanism.
    pub leaky_interferer: bool,
    /// Carrier-frequency offset of the interferer relative to the victim (different
    /// oscillators), in Hz.
    pub interferer_cfo_hz: f64,
    /// Whether the interferer reaches the victim through its own Rayleigh multipath
    /// channel (frequency-selective interference, as indoors).
    pub interferer_multipath: bool,
    /// Explicit centre-to-centre channel offset in Hz. When set it overrides the
    /// guard-band geometry — used for the 802.11g overlapping-channel experiments
    /// (channels 8 vs 11 are 15 MHz apart, so their occupied bands overlap).
    pub channel_offset_hz: Option<f64>,
}

impl Default for AciScenario {
    fn default() -> Self {
        AciScenario {
            oversample: 4,
            guard_band_hz: 1.25e6, // 4 subcarriers, the paper's §3.2 setup
            sir_db: -10.0,
            snr_db: 30.0,
            side: AciSide::Single,
            interferer_mcs: Mcs::new(Modulation::Qam16, CodeRate::Half),
            leaky_interferer: true,
            interferer_cfo_hz: 35e3,
            interferer_multipath: true,
            channel_offset_hz: None,
        }
    }
}

/// Co-channel-interference scenario configuration.
#[derive(Debug, Clone)]
pub struct CciScenario {
    /// Signal-to-interference ratio in dB (per interferer).
    pub sir_db: f64,
    /// Receiver noise SNR in dB.
    pub snr_db: f64,
    /// Number of co-channel interferers (1 for Fig. 11, 2 for Fig. 12).
    pub num_interferers: usize,
    /// MCS used by the interferer's frames.
    pub interferer_mcs: Mcs,
    /// Carrier-frequency offset of the interferer relative to the victim, in Hz.
    pub interferer_cfo_hz: f64,
    /// Whether interferers arrive through their own Rayleigh multipath channels.
    pub interferer_multipath: bool,
}

impl Default for CciScenario {
    fn default() -> Self {
        CciScenario {
            sir_db: 10.0,
            snr_db: 30.0,
            num_interferers: 1,
            interferer_mcs: Mcs::new(Modulation::Qam16, CodeRate::Half),
            interferer_cfo_hz: 35e3,
            interferer_multipath: true,
        }
    }
}

/// The waveforms a scenario delivers to the receivers under test.
#[derive(Debug, Clone)]
pub struct ScenarioOutput {
    /// What the victim receiver captures: signal + interference + noise, at 20 MS/s,
    /// aligned so the victim frame starts at sample 0.
    pub received: Vec<Complex>,
    /// The interference-plus-leakage contribution alone (no signal, no noise), same
    /// alignment — the "muted sender" measurement the Oracle uses.
    pub interference_only: Vec<Complex>,
    /// The applied noise variance (linear), for receivers that want the ground truth.
    pub noise_variance: f64,
}

/// Builds one interferer waveform: a continuously transmitting 802.11 station sending
/// back-to-back frames of random payloads, long enough to cover `len` samples.
pub fn interferer_waveform<R: Rng + ?Sized>(
    rng: &mut R,
    tx: &Transmitter,
    mcs: Mcs,
    len: usize,
) -> Result<Vec<Complex>> {
    let mut wave = Vec::with_capacity(len + 4096);
    while wave.len() < len {
        let payload: Vec<u8> = (0..400).map(|_| rng.gen()).collect();
        let seed = rng.gen_range(1..=127u8);
        let frame = tx.build_frame(&payload, mcs, seed)?;
        wave.extend(frame.samples);
        // Short idle gap (SIFS-like) between back-to-back transmissions.
        wave.extend(std::iter::repeat_n(Complex::zero(), 16));
    }
    wave.truncate(len);
    Ok(wave)
}

fn maybe_multipath<R: Rng + ?Sized>(rng: &mut R, enabled: bool, wave: &[Complex]) -> Vec<Complex> {
    if !enabled {
        return wave.to_vec();
    }
    let pdp = PowerDelayProfile::exponential(6, 2.0).expect("static parameters are valid");
    let chan = MultipathChannel::realize(&pdp, FadingKind::Rayleigh, rng);
    chan.apply(wave)
}

impl AciScenario {
    /// Renders the scenario around one victim frame.
    pub fn render<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        params: &OfdmParams,
        victim_samples: &[Complex],
    ) -> Result<ScenarioOutput> {
        if self.oversample == 0 {
            return Err(PhyError::invalid("oversample", "must be at least 1"));
        }
        let l = self.oversample;
        let fs_wide = params.sample_rate_hz * l as f64;
        let tx = Transmitter::new(params.clone());
        let victim_wide = upsample_interp(victim_samples, l)?;
        let wide_len = victim_wide.len();
        let victim_power = signal_power(&victim_wide)?;

        // Centre-frequency offset between victim and interferer: half the victim's
        // occupied band + guard + half the interferer's occupied band, unless an
        // explicit channel offset (overlapping Wi-Fi channels) was requested.
        let half_band = 26.0 * params.subcarrier_spacing_hz();
        let offset_hz = self
            .channel_offset_hz
            .unwrap_or(half_band + self.guard_band_hz + half_band);

        let sides: Vec<f64> = match self.side {
            AciSide::Single => vec![offset_hz],
            AciSide::BothSides => vec![offset_hz, -offset_hz],
        };

        let mut interference_wide = vec![Complex::zero(); wide_len];
        for side in sides {
            let narrow = interferer_waveform(rng, &tx, self.interferer_mcs, victim_samples.len())?;
            let narrow = maybe_multipath(rng, self.interferer_multipath, &narrow);
            let mut wide = upsample_interp(&narrow, l)?;
            if self.leaky_interferer {
                wide = TxFrontend::consumer_grade().apply(&wide);
            }
            if self.interferer_cfo_hz != 0.0 {
                apply_cfo(&mut wide, self.interferer_cfo_hz, fs_wide)
                    .map_err(|e| PhyError::invalid("interferer_cfo_hz", e.to_string()))?;
            }
            let mut shifted = shift_by_hz(&wide, side, fs_wide);
            // Temporal offset larger than the CP, fractional, random per packet.
            let cp_wide = (params.cp_len * l) as f64;
            let delay = cp_wide + rng.gen::<f64>() * (params.symbol_len() * l) as f64;
            shifted = fractional_delay(&shifted, delay, 16)?;
            // Scale to the per-interferer SIR (total received powers).
            let p_int = signal_power(&shifted)?;
            if p_int <= 0.0 {
                return Err(PhyError::invalid("interferer", "zero-power interferer"));
            }
            let gain = (victim_power / db_to_lin(self.sir_db) / p_int).sqrt();
            for (acc, s) in interference_wide.iter_mut().zip(&shifted) {
                *acc += s.scale(gain);
            }
        }

        let composite_wide: Vec<Complex> = victim_wide
            .iter()
            .zip(&interference_wide)
            .map(|(a, b)| *a + *b)
            .collect();

        // Victim receiver front end.
        let mut received = channel_select_and_decimate(&composite_wide, l)?;
        let interference_only = channel_select_and_decimate(&interference_wide, l)?;

        // Receiver AWGN relative to the victim signal power at baseband.
        let p_sig = signal_power(victim_samples)?;
        let noise_variance = p_sig / db_to_lin(self.snr_db);
        let mut gauss = GaussianSource::new();
        gauss.add_awgn(rng, &mut received, noise_variance);

        Ok(ScenarioOutput {
            received,
            interference_only,
            noise_variance,
        })
    }
}

impl CciScenario {
    /// Renders the scenario around one victim frame (no oversampling needed: the
    /// interferer occupies the same channel).
    pub fn render<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        params: &OfdmParams,
        victim_samples: &[Complex],
    ) -> Result<ScenarioOutput> {
        if self.num_interferers == 0 {
            return Err(PhyError::invalid("num_interferers", "must be at least 1"));
        }
        let tx = Transmitter::new(params.clone());
        let len = victim_samples.len();
        let victim_power = signal_power(victim_samples)?;
        let mut interference = vec![Complex::zero(); len];
        for _ in 0..self.num_interferers {
            let wave = interferer_waveform(rng, &tx, self.interferer_mcs, len)?;
            let mut wave = maybe_multipath(rng, self.interferer_multipath, &wave);
            if self.interferer_cfo_hz != 0.0 {
                apply_cfo(&mut wave, self.interferer_cfo_hz, params.sample_rate_hz)
                    .map_err(|e| PhyError::invalid("interferer_cfo_hz", e.to_string()))?;
            }
            let delay = params.cp_len as f64 + rng.gen::<f64>() * params.symbol_len() as f64;
            let delayed = fractional_delay(&wave, delay, 16)?;
            let p_int = signal_power(&delayed)?;
            if p_int <= 0.0 {
                return Err(PhyError::invalid("interferer", "zero-power interferer"));
            }
            let gain = (victim_power / db_to_lin(self.sir_db) / p_int).sqrt();
            for (acc, s) in interference.iter_mut().zip(&delayed) {
                *acc += s.scale(gain);
            }
        }
        let mut received: Vec<Complex> = victim_samples
            .iter()
            .zip(&interference)
            .map(|(a, b)| *a + *b)
            .collect();
        let noise_variance = victim_power / db_to_lin(self.snr_db);
        let mut gauss = GaussianSource::new();
        gauss.add_awgn(rng, &mut received, noise_variance);
        Ok(ScenarioOutput {
            received,
            interference_only: interference,
            noise_variance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::NoopRecorder;
    use ofdmphy::rx::{FrameInfo, FrameInput, FrameReceiver, StandardReceiver};
    use rand::SeedableRng;

    fn victim() -> (OfdmParams, ofdmphy::frame::TxFrame, Mcs, Vec<u8>) {
        let params = OfdmParams::ieee80211ag();
        let tx = Transmitter::new(params.clone());
        let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
        let payload = vec![0x42; 100];
        let frame = tx.build_frame(&payload, mcs, 0x5D).unwrap();
        (params, frame, mcs, payload)
    }

    #[test]
    fn interferer_waveform_covers_requested_length() {
        let params = OfdmParams::ieee80211ag();
        let tx = Transmitter::new(params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let wave = interferer_waveform(
            &mut rng,
            &tx,
            Mcs::new(Modulation::Qpsk, CodeRate::Half),
            5000,
        )
        .unwrap();
        assert_eq!(wave.len(), 5000);
        assert!(signal_power(&wave).unwrap() > 0.0);
    }

    #[test]
    fn aci_with_huge_guard_band_does_not_break_the_standard_receiver() {
        // With a 25 MHz guard band and modest SIR the leakage into the victim band is
        // negligible, so the packet must decode — this pins down the wideband plumbing.
        let (params, frame, mcs, payload) = victim();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let scenario = AciScenario {
            oversample: 8,
            guard_band_hz: 25e6,
            sir_db: 0.0,
            snr_db: 30.0,
            leaky_interferer: false,
            interferer_multipath: false,
            ..Default::default()
        };
        let out = scenario.render(&mut rng, &params, &frame.samples).unwrap();
        assert_eq!(out.received.len(), frame.samples.len());
        let rx = StandardReceiver::new(params);
        let info = FrameInfo {
            mcs,
            psdu_len: payload.len() + 4,
        };
        let decoded = rx
            .decode(
                &mut (),
                FrameInput::new(&out.received, 0, Some(info)),
                &NoopRecorder,
            )
            .unwrap();
        assert!(decoded.crc_ok);
    }

    #[test]
    fn aci_with_no_guard_band_and_strong_interferer_breaks_the_standard_receiver() {
        let (params, frame, mcs, payload) = victim();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let scenario = AciScenario {
            oversample: 4,
            // The paper's 802.11g setup: interferer on an overlapping channel 15 MHz away.
            channel_offset_hz: Some(15e6),
            sir_db: -20.0,
            ..Default::default()
        };
        let out = scenario.render(&mut rng, &params, &frame.samples).unwrap();
        let rx = StandardReceiver::new(params);
        let info = FrameInfo {
            mcs,
            psdu_len: payload.len() + 4,
        };
        let decoded = rx
            .decode(
                &mut (),
                FrameInput::new(&out.received, 0, Some(info)),
                &NoopRecorder,
            )
            .unwrap();
        assert!(
            !decoded.crc_ok,
            "a -20 dB adjacent interferer with no guard band should kill the packet"
        );
    }

    #[test]
    fn aci_in_band_interference_power_grows_as_guard_band_shrinks() {
        let (params, frame, _, _) = victim();
        let measure = |guard: f64| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(4);
            let scenario = AciScenario {
                oversample: 4,
                guard_band_hz: guard,
                sir_db: -10.0,
                ..Default::default()
            };
            let out = scenario.render(&mut rng, &params, &frame.samples).unwrap();
            signal_power(&out.interference_only).unwrap()
        };
        let tight = measure(0.0);
        let loose = measure(15e6);
        assert!(
            tight > 4.0 * loose,
            "leakage should grow sharply as the guard band closes: tight {tight}, loose {loose}"
        );
    }

    #[test]
    fn cci_places_interference_at_requested_sir() {
        let (params, frame, _, _) = victim();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let scenario = CciScenario {
            sir_db: 10.0,
            interferer_multipath: false,
            ..Default::default()
        };
        let out = scenario.render(&mut rng, &params, &frame.samples).unwrap();
        let p_sig = signal_power(&frame.samples).unwrap();
        let p_int = signal_power(&out.interference_only).unwrap();
        let measured = 10.0 * (p_sig / p_int).log10();
        assert!((measured - 10.0).abs() < 1.5, "SIR {measured}");
        assert!(out.noise_variance > 0.0);
    }

    #[test]
    fn cci_two_interferers_doubles_interference_power() {
        let (params, frame, _, _) = victim();
        let power_with = |n: usize| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(6);
            let scenario = CciScenario {
                sir_db: 10.0,
                num_interferers: n,
                interferer_multipath: false,
                interferer_cfo_hz: 0.0,
                ..Default::default()
            };
            let out = scenario.render(&mut rng, &params, &frame.samples).unwrap();
            signal_power(&out.interference_only).unwrap()
        };
        let one = power_with(1);
        let two = power_with(2);
        assert!(two > 1.6 * one && two < 2.6 * one, "one {one}, two {two}");
    }

    #[test]
    fn scenario_validation() {
        let (params, frame, _, _) = victim();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let bad_aci = AciScenario {
            oversample: 0,
            ..Default::default()
        };
        assert!(bad_aci.render(&mut rng, &params, &frame.samples).is_err());
        let bad_cci = CciScenario {
            num_interferers: 0,
            ..Default::default()
        };
        assert!(bad_cci.render(&mut rng, &params, &frame.samples).is_err());
    }
}
