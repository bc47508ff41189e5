//! Quickstart: build an 802.11g frame, pass it through an interference-free channel,
//! and decode it with an instrumented streaming CPRecycle session plus the standard
//! batch receiver.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Set `CPRECYCLE_METRICS=/path/to/metrics.json` to also dump the session's metrics
//! snapshot (counters plus per-stage decode timing) as cpjson.

use cprecycle_repro::cprecycle::{
    CpRecycleConfig, CpRecycleReceiver, FrameInput, FrameReceiver, RxEvent, RxSession,
};
use cprecycle_repro::obs::{InMemoryRecorder, NoopRecorder};
use cprecycle_repro::ofdmphy::convcode::CodeRate;
use cprecycle_repro::ofdmphy::frame::{Mcs, Transmitter};
use cprecycle_repro::ofdmphy::modulation::Modulation;
use cprecycle_repro::ofdmphy::params::OfdmParams;
use cprecycle_repro::ofdmphy::rx::StandardReceiver;
use cprecycle_repro::scenarios::report::ExampleReport;
use cprecycle_repro::wirelesschan::awgn::AwgnChannel;
use rand::SeedableRng;

fn main() {
    let params = OfdmParams::ieee80211ag();
    let tx = Transmitter::new(params.clone());
    let mcs = Mcs::new(Modulation::Qam16, CodeRate::Half);
    let payload = b"CPRecycle quickstart: the cyclic prefix is worth recycling.".to_vec();

    // Build a frame and add receiver noise.
    let frame = tx.build_frame(&payload, mcs, 0x5D).expect("frame builds");
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut captured = vec![rfdsp::Complex::zero(); 300];
    captured.extend_from_slice(&frame.samples);
    let mut awgn = AwgnChannel::new();
    awgn.add_noise_snr(&mut rng, &mut captured, 25.0)
        .expect("noise");

    let mut report = ExampleReport::new(
        "Quickstart",
        format!(
            "{}: {} PSDU bytes, {} DATA symbols, {} samples",
            mcs.label(),
            frame.psdu.len(),
            frame.num_data_symbols,
            frame.len()
        ),
        "",
        "",
    );

    // Stream the capture through an instrumented CPRecycle session: detection,
    // decoding, per-frame events and stage timing all come out of the session.
    let mut session = RxSession::with_recorder(
        CpRecycleReceiver::new(params.clone(), CpRecycleConfig::default()),
        Default::default(),
        InMemoryRecorder::default(),
    );
    for chunk in captured.chunks(1000) {
        session.push(chunk).expect("session accepts samples");
    }
    session.flush().expect("flush");
    for event in session.drain_events() {
        match event {
            RxEvent::FrameDetected { sync } => report.note(format!(
                "CPRecycle session: frame detected at sample {} (true start 300)",
                sync.frame_start
            )),
            RxEvent::FrameDecoded { frame, .. } => report.note(format!(
                "CPRecycle session: CRC {}, payload: {:?}",
                if frame.crc_ok { "OK" } else { "FAILED" },
                frame
                    .payload
                    .map(|p| String::from_utf8_lossy(&p).into_owned())
            )),
            other => report.note(format!("CPRecycle session: {other:?}")),
        }
    }

    // The batch standard receiver on the same capture, for comparison.
    let standard = StandardReceiver::new(params);
    match standard.decode(
        &mut (),
        FrameInput::new(&captured, 300, None),
        &NoopRecorder,
    ) {
        Ok(decoded) => report.note(format!(
            "Standard receiver:  CRC {}, payload: {:?}",
            if decoded.crc_ok { "OK" } else { "FAILED" },
            decoded
                .payload
                .map(|p| String::from_utf8_lossy(&p).into_owned())
        )),
        Err(e) => report.note(format!("Standard receiver failed: {e}")),
    }

    // The session's metrics snapshot: counters plus per-stage decode timing.
    let metrics = session.metrics_snapshot();
    report.note(format!(
        "session metrics: {} samples pushed, {} frames detected, {} decoded, {} FCS pass",
        metrics.counter("samples_pushed"),
        metrics.counter("frames_detected"),
        metrics.counter("frames_decoded"),
        metrics.counter("fcs_passes"),
    ));
    if let Some(h) = metrics.stage("decide", "Sphere") {
        report.note(format!(
            "sphere decision stage: {} symbols, mean {:.1} us",
            h.count(),
            h.mean().unwrap_or(0.0) / 1000.0
        ));
    }
    report.emit(Some(&metrics));
}
