//! Developer diagnostic: prints the per-subcarrier interference level (standard FFT
//! window vs minimum over all segments) for a few adjacent-channel configurations.
//! Useful when calibrating new scenarios; the user-facing walkthroughs live in the
//! workspace-level `examples/` directory.

use cprecycle::segments::{interference_power_per_segment, SegmentScratch};
use cprecycle_scenarios::interference::AciScenario;
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::ofdm::OfdmEngine;
use ofdmphy::params::OfdmParams;
use ofdmphy::preamble;
use rand::SeedableRng;

fn main() {
    let params = OfdmParams::ieee80211ag();
    let tx = Transmitter::new(params.clone());
    let frame = tx
        .build_frame(
            &[0xA5; 200],
            Mcs::new(Modulation::Qpsk, CodeRate::Half),
            0x5D,
        )
        .unwrap();
    let engine = OfdmEngine::new(params.clone());
    for (guard, sir) in [(0.0f64, -20.0f64), (1.25e6, -20.0), (-1.25e6, -10.0)] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sc = AciScenario {
            sir_db: sir,
            guard_band_hz: guard,
            ..Default::default()
        };
        let out = sc.render(&mut rng, &params, &frame.samples).unwrap();
        let sym_len = params.symbol_len();
        let data_start = preamble::preamble_len(&params) + sym_len;
        let vic_bins = engine
            .demodulate_standard(&frame.samples[data_start..data_start + sym_len])
            .unwrap();
        let powers = interference_power_per_segment(
            &engine,
            &out.interference_only[data_start..data_start + sym_len],
            17,
            &mut SegmentScratch::new(),
        )
        .unwrap();
        let sig_p = vic_bins[10].norm_sqr();
        println!("guard {guard} sir {sir}: victim bin10 pwr {:.3e}", sig_p);
        for bin in [26usize, 20, 10, 2, 38, 50] {
            let std_p = powers.value(16, bin);
            let min_p = powers
                .bin_powers(bin)
                .iter()
                .fold(f64::MAX, |acc, p| acc.min(*p));
            println!(
                "  bin {bin}: I_std {:.1} dB  I_min {:.1} dB (rel to sig)",
                10.0 * (std_p / sig_p).log10(),
                10.0 * (min_p / sig_p).log10()
            );
        }
    }
}
