//! Oversampled (wideband) signal processing for adjacent-channel scenarios.
//!
//! At the victim's native 20 MS/s complex sampling rate an adjacent 20 MHz channel
//! aliases straight back into the victim band, so adjacent-channel interference cannot
//! be modelled honestly at 1×. These helpers build the composite at `L×` oversampling
//! (the paper's Fig. 1 view of a 45 MHz observation window), then apply the victim
//! receiver's channel-select filter and decimate back to 20 MS/s.

use crate::Result;
use ofdmphy::PhyError;
use rfdsp::filter::FirFilter;
use rfdsp::resample::{downsample, upsample};
use rfdsp::Complex;

/// Interpolates a 20 MS/s waveform to `factor ×` oversampling (zero-stuff + low-pass,
/// amplitude-compensated so the waveform keeps its original scale).
pub fn upsample_interp(x: &[Complex], factor: usize) -> Result<Vec<Complex>> {
    if factor == 0 {
        return Err(PhyError::invalid("factor", "must be at least 1"));
    }
    if factor == 1 {
        return Ok(x.to_vec());
    }
    let stuffed = upsample(x, factor)?;
    let taps = 16 * factor + 1;
    let filter = FirFilter::lowpass_kaiser(taps, 0.5 / factor as f64 * 0.9, 8.0)?;
    let filtered = filter.filter_same(&stuffed);
    Ok(filtered.iter().map(|v| v.scale(factor as f64)).collect())
}

/// Applies the victim receiver's channel-select low-pass filter (passband ≈ ±9 MHz at
/// the oversampled rate) and decimates back to 20 MS/s.
pub fn channel_select_and_decimate(x: &[Complex], factor: usize) -> Result<Vec<Complex>> {
    if factor == 0 {
        return Err(PhyError::invalid("factor", "must be at least 1"));
    }
    if factor == 1 {
        return Ok(x.to_vec());
    }
    // Passband edge 9 MHz of the oversampled rate 20·L MS/s.
    let cutoff = 9.0e6 / (20.0e6 * factor as f64);
    let taps = 16 * factor + 1;
    let filter = FirFilter::lowpass_kaiser(taps, cutoff, 8.0)?;
    let filtered = filter.filter_same(x);
    Ok(downsample(&filtered, factor)?)
}

/// Frequency-shifts an oversampled waveform by `offset_hz` given the oversampled rate.
pub fn shift_by_hz(x: &[Complex], offset_hz: f64, sample_rate_hz: f64) -> Vec<Complex> {
    rfdsp::filter::frequency_shift(x, offset_hz / sample_rate_hz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::NoopRecorder;
    use ofdmphy::convcode::CodeRate;
    use ofdmphy::frame::{Mcs, Transmitter};
    use ofdmphy::modulation::Modulation;
    use ofdmphy::params::OfdmParams;
    use ofdmphy::rx::{FrameInfo, FrameInput, FrameReceiver, StandardReceiver};
    use rfdsp::power::{signal_power, welch_psd};

    #[test]
    fn factor_one_is_identity() {
        let x: Vec<Complex> = (0..64).map(|t| Complex::cis(0.2 * t as f64)).collect();
        assert_eq!(upsample_interp(&x, 1).unwrap(), x);
        assert_eq!(channel_select_and_decimate(&x, 1).unwrap(), x);
        assert!(upsample_interp(&x, 0).is_err());
        assert!(channel_select_and_decimate(&x, 0).is_err());
    }

    #[test]
    fn up_then_down_roundtrip_preserves_frame_decodability() {
        // The whole point: a frame pushed through the wideband path with no interferer
        // must still decode, so any packet loss later is attributable to interference.
        let params = OfdmParams::ieee80211ag();
        let tx = Transmitter::new(params.clone());
        let rx = StandardReceiver::new(params);
        let mcs = Mcs::new(Modulation::Qam16, CodeRate::Half);
        let payload = vec![0x3C; 120];
        let frame = tx.build_frame(&payload, mcs, 0x5D).unwrap();
        for factor in [2usize, 4] {
            let wide = upsample_interp(&frame.samples, factor).unwrap();
            let narrow = channel_select_and_decimate(&wide, factor).unwrap();
            assert_eq!(narrow.len(), frame.samples.len());
            let info = FrameInfo {
                mcs,
                psdu_len: payload.len() + 4,
            };
            let decoded = rx
                .decode(
                    &mut (),
                    FrameInput::new(&narrow, 0, Some(info)),
                    &NoopRecorder,
                )
                .unwrap();
            assert!(decoded.crc_ok, "factor {factor}");
            assert_eq!(decoded.payload.as_deref(), Some(&payload[..]));
        }
    }

    #[test]
    fn upsample_preserves_power_and_band_limits() {
        let params = OfdmParams::ieee80211ag();
        let tx = Transmitter::new(params);
        let frame = tx
            .build_frame(
                &[0xAB; 200],
                Mcs::new(Modulation::Qpsk, CodeRate::Half),
                0x11,
            )
            .unwrap();
        let wide = upsample_interp(&frame.samples, 4).unwrap();
        assert_eq!(wide.len(), frame.samples.len() * 4);
        let p_narrow = signal_power(&frame.samples).unwrap();
        let p_wide = signal_power(&wide).unwrap();
        assert!(
            (p_wide - p_narrow).abs() / p_narrow < 0.1,
            "power {p_wide} vs {p_narrow}"
        );
        // The oversampled spectrum must be confined to the central quarter of the band.
        let psd = welch_psd(&wide, 256).unwrap();
        let in_band: f64 = psd[..32].iter().sum::<f64>() + psd[224..].iter().sum::<f64>();
        let total: f64 = psd.iter().sum();
        assert!(
            in_band / total > 0.98,
            "in-band fraction {}",
            in_band / total
        );
    }

    #[test]
    fn adjacent_channel_is_rejected_by_channel_select_filter() {
        // A tone 20 MHz away from the victim centre must be attenuated by the receive
        // filter by tens of dB after decimation.
        let factor = 4usize;
        let fs = 20e6 * factor as f64;
        let n = 8192;
        let tone: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * std::f64::consts::PI * 20e6 / fs * t as f64))
            .collect();
        let out = channel_select_and_decimate(&tone, factor).unwrap();
        let attenuation_db = 10.0
            * (signal_power(&tone).unwrap() / signal_power(&out[100..]).unwrap().max(1e-30))
                .log10();
        assert!(
            attenuation_db > 30.0,
            "attenuation only {attenuation_db} dB"
        );
    }

    #[test]
    fn shift_by_hz_moves_spectrum() {
        let factor = 4;
        let fs = 20e6 * factor as f64;
        let x = vec![Complex::one(); 4096];
        let shifted = shift_by_hz(&x, 10e6, fs);
        let psd = welch_psd(&shifted, 64).unwrap();
        let peak = psd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        // 10 MHz of an 80 MHz rate = bin 8 of 64.
        assert_eq!(peak, 8);
    }
}
