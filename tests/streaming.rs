//! Integration tests for the streaming-receiver redesign at the Fig. 14 reproduction
//! operating point (QPSK 1/2, overlapping 802.11 channel 15 MHz away, SIR −12 dB —
//! the point `tests/reproduction.rs` pins for the model backends).

use cprecycle_repro::cprecycle::{
    CpRecycleConfig, CpRecycleReceiver, FrameInput, FrameReceiver, ModelPersistence,
};
use cprecycle_repro::engine::{CampaignConfig, RunOptions};
use cprecycle_repro::obs::NoopRecorder;
use cprecycle_repro::ofdmphy::convcode::CodeRate;
use cprecycle_repro::ofdmphy::frame::{Mcs, Transmitter};
use cprecycle_repro::ofdmphy::modulation::Modulation;
use cprecycle_repro::ofdmphy::params::OfdmParams;
use cprecycle_repro::ofdmphy::rx::FrameInfo;
use cprecycle_repro::scenarios::interference::AciScenario;
use cprecycle_repro::scenarios::link::Scenario;
use cprecycle_repro::scenarios::stream::{run_stream_campaign, StreamArm, StreamPoint};
use rand::SeedableRng;

fn op_point_scenario() -> AciScenario {
    AciScenario {
        sir_db: -12.0,
        channel_offset_hz: Some(15e6),
        ..Default::default()
    }
}

/// Rolling-vs-PerFrame persistence regression, genie-timed so only the model policy
/// differs: across a run of frames at the Fig. 14 operating point, keeping the model
/// and feeding each frame's preamble through the incremental update must perform at
/// least as well as retraining from scratch every frame (the pooled density has
/// strictly more preamble evidence), up to a small Monte-Carlo wobble.
#[test]
fn rolling_persistence_matches_per_frame_at_the_fig14_op_point() {
    let params = OfdmParams::ieee80211ag();
    let tx = Transmitter::new(params.clone());
    let mcs = Mcs::new(Modulation::Qpsk, CodeRate::Half);
    let scenario = op_point_scenario();
    let rx = CpRecycleReceiver::new(params.clone(), CpRecycleConfig::default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x14F1);

    let frames = 12;
    let mut rolling = rx.new_stream(ModelPersistence::Rolling);
    let mut per_frame = rx.new_stream(ModelPersistence::PerFrame);
    let mut rolling_ok = 0usize;
    let mut per_frame_ok = 0usize;
    for i in 0..frames {
        let payload = vec![0xA0 + i as u8; 120];
        let frame = tx.build_frame(&payload, mcs, 0x5D - i as u8).unwrap();
        let output = scenario.render(&mut rng, &params, &frame.samples).unwrap();
        let info = FrameInfo {
            mcs,
            psdu_len: payload.len() + 4,
        };
        let input = FrameInput::new(&output.received, 0, Some(info));
        rx.begin_frame(&mut rolling);
        let r = rx.decode(&mut rolling, input, &NoopRecorder).unwrap();
        rx.begin_frame(&mut per_frame);
        let p = rx.decode(&mut per_frame, input, &NoopRecorder).unwrap();
        rolling_ok += r.crc_ok as usize;
        per_frame_ok += p.crc_ok as usize;
    }
    // Regression bound first (the informative failure): rolling must not collapse
    // relative to per-frame retraining.
    assert!(
        rolling_ok + 2 >= per_frame_ok,
        "rolling {rolling_ok}/{frames} fell behind per-frame {per_frame_ok}/{frames}"
    );
    // The operating point itself must be decisive enough to mean something.
    assert!(
        per_frame_ok >= frames / 2,
        "op point too hard: per-frame {per_frame_ok}/{frames}"
    );
    // The rolling model absorbed two LTF symbols per CRC-passing frame (it exists
    // because at least one frame passed, guaranteed by the op-point assert above).
    assert!(rolling_ok > 0, "no rolling frame passed CRC");
    assert_eq!(
        rolling.model().unwrap().num_preambles(),
        2 * rolling_ok,
        "rolling model preamble count"
    );
    assert_eq!(per_frame.model().unwrap().num_preambles(), 2);
}

/// The full bursty-traffic acceptance shape: a stream campaign at the Fig. 14
/// operating point (≥ 3 back-to-back frames per trial, random gaps) runs end-to-end
/// through the engine with per-frame and aggregate PSR reported for every arm —
/// over-the-air detection, SIGNAL decode and all.
#[test]
fn bursty_campaign_at_the_op_point_reports_per_frame_psr() {
    let point = StreamPoint::new(
        "fig14 op point",
        Scenario::Aci(op_point_scenario()),
        vec![
            StreamArm::Standard,
            StreamArm::cprecycle(ModelPersistence::PerFrame),
            StreamArm::cprecycle(ModelPersistence::Rolling),
        ],
    )
    .payload(60)
    .frames(3);
    let result = run_stream_campaign(
        &CampaignConfig::new("streaming-op-point", 0xF14).trials(4),
        std::slice::from_ref(&point),
        &RunOptions::default(),
    )
    .unwrap();
    let arms = &result.points[0].arms;
    assert_eq!(arms.len(), 3);
    for arm in arms {
        // Per-frame PSR is the campaign mean of the in-order recovered fraction.
        assert!(
            (0.0..=1.0).contains(&arm.metric_mean()),
            "{}: per-frame PSR out of range",
            arm.label
        );
        assert!(arm.trials == 4, "{}: trial count", arm.label);
    }
    // At SIR −12 dB with threshold 0.45 the CPRecycle session recovers a clear
    // majority of frames (detection-limited, not decision-limited).
    let cp_per_frame = arms[1].metric_mean();
    assert!(
        cp_per_frame >= 0.5,
        "CPRecycle per-frame PSR {cp_per_frame} too low at the op point"
    );
}
