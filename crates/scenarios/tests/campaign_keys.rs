//! Campaign point keys must not move: every trial seed hashes its point's key, and
//! link keys embed `{:?}` of [`CpRecycleConfig`]. A key change silently re-seeds
//! every existing campaign and orphans every checkpoint, so the exact strings are
//! pinned here.

use cprecycle::CpRecycleConfig;
use cprecycle_engine::CampaignPoint;
use cprecycle_scenarios::figures::{figure_grid, FigureScale, CAMPAIGN_FIGURES};

#[test]
fn default_config_debug_string_is_pinned() {
    assert_eq!(
        format!("{:?}", CpRecycleConfig::default()),
        "CpRecycleConfig { num_segments: 16, bandwidth_amplitude: None, bandwidth_phase: None, \
         data_driven_bandwidth: true, decision: Sphere { radius_min_distances: 2.0 }, \
         isi_free_samples: None, min_bandwidth_amplitude: 0.05, min_bandwidth_phase: 0.2, \
         extraction: Sliding, model: ExactKde }"
    );
}

#[test]
fn first_fig14_point_key_is_pinned() {
    let grid = figure_grid("fig14", &FigureScale::full()).expect("fig14 is a campaign figure");
    assert_eq!(
        grid[0].key(),
        "fft=64;cp=16;rate=20000000;mcs=Mcs { modulation: Qam16, code_rate: Half };\
         scenario=Aci(AciScenario { oversample: 4, guard_band_hz: 1250000.0, sir_db: -10.0, \
         snr_db: 30.0, side: Single, interferer_mcs: Mcs { modulation: Qam16, code_rate: Half }, \
         leaky_interferer: true, interferer_cfo_hz: 35000.0, interferer_multipath: true, \
         channel_offset_hz: None });receivers=[CpRecycle(CpRecycleConfig { num_segments: 1, \
         bandwidth_amplitude: None, bandwidth_phase: None, data_driven_bandwidth: true, \
         decision: Sphere { radius_min_distances: 2.0 }, isi_free_samples: None, \
         min_bandwidth_amplitude: 0.05, min_bandwidth_phase: 0.2, extraction: Sliding, \
         model: ExactKde })];payload=400"
    );
}

/// Every full-scale point key of every campaign figure, folded into one FNV-1a
/// digest (keys joined by newlines), so a change to any key anywhere shows up.
#[test]
fn all_campaign_keys_are_pinned() {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut points = 0;
    for name in CAMPAIGN_FIGURES {
        for point in figure_grid(name, &FigureScale::full()).expect("campaign figure") {
            points += 1;
            for byte in point.key().bytes().chain([b'\n']) {
                digest ^= u64::from(byte);
                digest = digest.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    assert_eq!(points, 182);
    assert_eq!(digest, 0x6820_f926_6f4a_e257);
}
