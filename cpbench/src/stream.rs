//! `stream_rolling`: bursts of 6 back-to-back 400-byte 16-QAM 1/2 frames
//! under ACI at SIR −10 dB, each pushed in 480-sample chunks into a fresh
//! `RxSession<CpRecycleReceiver>` with a Rolling model (N_p grows 2 → 12).
//! Two threads each drive every other burst, one session at a time.
//!
//! A burst's cost depends on how many of its frames pass FCS, since only
//! those feed the model; many short bursts per run, on both cores, average
//! that out (see NOTES.md for the measurements behind 6 frames).

use crate::report::{finish_layers, rx_layers, EndToEnd};
use crate::stats::{median, summarize};
use crate::trace::{append_linked, layer_totals, SpanRec, Tracer};
use crate::{probe, timed_setup, Args, Outcome};
use cprecycle::{
    CpRecycleConfig, CpRecycleReceiver, ModelPersistence, RxEvent, RxSession, SessionConfig,
};
use cprecycle_scenarios::interference::AciScenario;
use cprecycle_scenarios::stream::{build_burst, count_in_order_recoveries};
use obs::{NoopRecorder, Recorder};
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::FrameInfo;
use rfdsp::Complex;
use std::time::Instant;

/// Set-ups timed per run (one takes ~1.5 s).
const SETUP_REPEATS: usize = 5;
const FRAMES: usize = 6;
const PAYLOAD_BYTES: usize = 400;
const GAPS: (usize, usize) = (120, 400);
const CHUNK: usize = 480;
const THRESHOLD: f64 = 0.45;
const SIR_DB: f64 = -10.0;
/// Mean seconds one burst takes to push and flush on one core of a 2-core
/// x86-64 box; a run decodes `THREADS × --seconds / BURST_SECONDS` bursts.
const BURST_SECONDS: f64 = 1.5;
const THREADS: usize = 2;
/// How often each streaming thread runs a probe quantum between calls.
const PROBE_EVERY: std::time::Duration = std::time::Duration::from_millis(50);

fn mcs() -> Mcs {
    Mcs::new(Modulation::Qam16, CodeRate::Half)
}

/// One pre-rendered burst and where its frames sit.
struct Burst {
    payloads: Vec<Vec<u8>>,
    received: Vec<Complex>,
    /// (first, one-past-last) sample of each frame.
    frames: Vec<(usize, usize)>,
}

/// Frame positions in a clean victim capture: gaps are exact zeros, frames
/// are `frame_len` samples starting at the first non-zero sample.
pub fn frame_positions(
    victim: &[Complex],
    frames: usize,
    frame_len: usize,
) -> Result<Vec<(usize, usize)>, String> {
    let zero = Complex::zero();
    let mut out = Vec::with_capacity(frames);
    let mut at = 0;
    for i in 0..frames {
        let start = (at..victim.len())
            .find(|&k| victim[k] != zero)
            .ok_or_else(|| format!("frame {i} not found in the burst"))?;
        out.push((start, start + frame_len));
        at = start + frame_len;
    }
    Ok(out)
}

pub fn frame_len(params: &OfdmParams, mcs: Mcs, payload: usize) -> usize {
    FrameInfo {
        mcs,
        psdu_len: payload + 4,
    }
    .frame_sample_len(params)
}

fn session_config(params: &OfdmParams) -> SessionConfig {
    SessionConfig {
        persistence: ModelPersistence::Rolling,
        detection_threshold: THRESHOLD,
        correct_cfo: false,
        // As the stream and stations scenarios: a little above the longest frame.
        max_frame_samples: Some(frame_len(params, mcs(), PAYLOAD_BYTES) + 512),
    }
}

fn build_one(seed: u64, b: usize) -> Result<Burst, String> {
    let params = OfdmParams::ieee80211ag();
    let tx = Transmitter::new(params.clone());
    let mut rng = cprecycle_engine::trial_rng(seed, "cpbench/stream_rolling", b as u64);
    let (payloads, victim) = build_burst(&tx, mcs(), PAYLOAD_BYTES, FRAMES, GAPS, &mut rng)
        .map_err(|e| e.to_string())?;
    let frames = frame_positions(&victim, FRAMES, frame_len(&params, mcs(), PAYLOAD_BYTES))?;
    let scenario = AciScenario {
        sir_db: SIR_DB,
        ..Default::default()
    };
    let received = scenario
        .render(&mut rng, &params, &victim)
        .map_err(|e| e.to_string())?
        .received;
    Ok(Burst {
        payloads,
        received,
        frames,
    })
}

/// Renders the bursts on `THREADS` threads; burst `b` depends only on
/// `(seed, b)`.
fn build(seed: u64, bursts: usize) -> Result<Vec<Burst>, String> {
    let mut built: Vec<(usize, Result<Burst, String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    (t..bursts)
                        .step_by(THREADS)
                        .map(|b| (b, build_one(seed, b)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("burst render thread panicked"))
            .collect()
    });
    built.sort_by_key(|b| b.0);
    built.into_iter().map(|b| b.1).collect()
}

fn setup(seed: u64, bursts: usize) -> Result<Vec<Burst>, String> {
    let bursts = build(seed, bursts)?;
    // Warm-up: decode the first frame of the first burst in a throwaway session.
    let params = OfdmParams::ieee80211ag();
    let mut session = RxSession::with_config(
        CpRecycleReceiver::new(params.clone(), CpRecycleConfig::default()),
        session_config(&params),
    );
    let first = &bursts[0];
    let end = (first.frames[0].1 + CHUNK).min(first.received.len());
    for chunk in first.received[..end].chunks(CHUNK) {
        session.push(chunk).map_err(|e| e.to_string())?;
    }
    session.flush().map_err(|e| e.to_string())?;
    Ok(bursts)
}

/// What streaming one burst produced.
#[derive(Default)]
struct BurstRun {
    wall_s: f64,
    samples: usize,
    calls: u64,
    errors: u64,
    recovered: usize,
    fcs_passes: usize,
    latencies_ms: Vec<f64>,
    frames_detected: usize,
    false_alarms: usize,
    model_rejects: usize,
    np_final: usize,
    /// Duration of the burst's last model update (traced runs only).
    last_update_ms: Option<f64>,
}

fn stream_burst<O: Recorder>(
    burst: &Burst,
    obs: O,
    tracer: Option<&Tracer>,
    probe: Option<&probe::Sampler>,
) -> BurstRun {
    let params = OfdmParams::ieee80211ag();
    let mut session = RxSession::with_recorder(
        CpRecycleReceiver::new(params.clone(), CpRecycleConfig::default()),
        session_config(&params),
        obs,
    );
    let mut run = BurstRun::default();
    let mut events: Vec<RxEvent> = Vec::new();
    // Push-call start of the chunk holding each frame's last sample.
    let mut frame_due: Vec<Option<Instant>> = vec![None; burst.frames.len()];
    let chunks: Vec<&[Complex]> = burst.received.chunks(CHUNK).collect();
    for step in 0..=chunks.len() {
        let t0 = Instant::now();
        let result = match chunks.get(step) {
            Some(chunk) => {
                let (lo, hi) = (step * CHUNK, step * CHUNK + chunk.len());
                for (f, &(_, end)) in burst.frames.iter().enumerate() {
                    if (lo..hi).contains(&(end - 1)) {
                        frame_due[f] = Some(t0);
                    }
                }
                session.push(chunk)
            }
            None => session.flush(),
        };
        let t1 = Instant::now();
        if let Some(tracer) = tracer {
            tracer.record(if step < chunks.len() { "push" } else { "flush" }, t0, t1);
        }
        run.wall_s += (t1 - t0).as_secs_f64();
        if let Some(probe) = probe {
            probe.tick();
        }
        run.calls += 1;
        run.errors += result.is_err() as u64;
        for event in session.drain_events() {
            if let RxEvent::FrameDecoded { frame, frame_start } = &event {
                let hit = burst
                    .frames
                    .iter()
                    .position(|&(s, _)| s.abs_diff(*frame_start) < 64);
                if let (Some(f), true) = (hit, frame.crc_ok) {
                    if let Some(due) = frame_due[f] {
                        run.latencies_ms.push((t1 - due).as_secs_f64() * 1e3);
                    }
                }
            }
            events.push(event);
        }
    }
    run.samples = burst.received.len();
    let counters = session.counters();
    run.fcs_passes = counters.fcs_passes;
    run.frames_detected = counters.frames_detected;
    run.false_alarms = counters.false_alarms;
    run.model_rejects = counters.model_rejects;
    run.np_final = session.stream().model().map_or(0, |m| m.num_preambles());
    run.recovered = count_in_order_recoveries(events, &burst.payloads);
    run
}

/// Every FCS-passing frame must be one of the transmitted payloads, in order.
fn check_burst(out: &mut Outcome, b: usize, run: &BurstRun) {
    out.check(run.errors == 0, || {
        format!("burst {b}: {} push/flush errors", run.errors)
    });
    out.check(run.recovered == run.fcs_passes, || {
        format!(
            "burst {b}: {} frames passed FCS but only {} match the transmitted payloads in order",
            run.fcs_passes, run.recovered
        )
    });
}

/// Streams every burst, `THREADS` threads each taking every other one. A
/// traced run gives each thread its own tracer and returns all spans; an
/// untraced one may probe the host between calls.
fn stream_all(
    bursts: &[Burst],
    traced: bool,
    probe: Option<&probe::Sampler>,
) -> (Vec<BurstRun>, Vec<SpanRec>) {
    type ThreadResult = (Vec<(usize, BurstRun)>, Vec<SpanRec>);
    let per_thread: Vec<ThreadResult> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let tracer = traced.then(Tracer::new);
                    let mut runs = Vec::new();
                    let mut spans = Vec::new();
                    for (b, burst) in bursts.iter().enumerate().skip(t).step_by(THREADS) {
                        let Some(tracer) = &tracer else {
                            runs.push((b, stream_burst(burst, NoopRecorder, None, probe)));
                            continue;
                        };
                        let mut run = stream_burst(burst, tracer, Some(tracer), None);
                        let burst_spans = tracer.take_spans();
                        run.last_update_ms = burst_spans
                            .iter()
                            .filter(|s| s.name == "model_update")
                            .max_by_key(|s| s.end)
                            .map(|s| s.dur() as f64 / 1e6);
                        append_linked(&mut spans, burst_spans);
                        runs.push((b, run));
                    }
                    (runs, spans)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("stream thread panicked"))
            .collect()
    });
    let mut runs = Vec::new();
    let mut spans = Vec::new();
    for (r, s) in per_thread {
        runs.extend(r);
        append_linked(&mut spans, s);
    }
    runs.sort_by_key(|r| r.0);
    (runs.into_iter().map(|r| r.1).collect(), spans)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bursts_wanted =
        ((args.seconds * THREADS as f64 / BURST_SECONDS).round() as usize).max(THREADS);
    let per_half = if args.trace {
        bursts_wanted.div_ceil(2)
    } else {
        bursts_wanted
    };
    let (bursts, setup_s) =
        timed_setup(SETUP_REPEATS, Some(THREADS), || setup(args.seed, per_half));
    let bursts = bursts?;
    let mut out = Outcome::default();

    if !args.trace {
        let probe = probe::Sampler::new(PROBE_EVERY);
        let cpu = crate::process_cpu_s();
        let (runs, _) = stream_all(&bursts, false, Some(&probe));
        let (quanta, probe_s) = probe.spent();
        let cpu_s = crate::process_cpu_s() - cpu - probe_s;
        let ref_cpu_s = probe::to_reference(cpu_s, probe.quantum_s());
        let mut lat = Vec::new();
        let (mut wall, mut samples, mut recovered) = (0.0, 0usize, 0usize);
        for (b, run) in runs.iter().enumerate() {
            check_burst(&mut out, b, run);
            out.attempted += run.calls;
            out.failed += run.errors;
            wall += run.wall_s;
            samples += run.samples;
            recovered += run.recovered;
            lat.extend_from_slice(&run.latencies_ms);
        }
        let sent = FRAMES * bursts.len();
        let lat = summarize(&lat).ok_or("no frame was recovered")?;
        out.notes.push(format!(
            "{} bursts on {THREADS} threads, {recovered}/{sent} frames recovered in order, push+flush {wall:.3} thread-s ({cpu_s:.3} CPU-s, {ref_cpu_s:.3} reference CPU-s; {quanta} probe quanta); latency p{:.1} of n={}",
            bursts.len(),
            lat.tail_pct,
            lat.n
        ));
        EndToEnd {
            setup_s,
            trials: sent as f64,
            recovered: recovered as f64,
            samples: samples as f64,
            // Summed over both threads: the wall-clock rate per thread.
            wall_s: wall,
            cpu_s,
            ref_cpu_s,
            // Closed loop: the sustained rate is the completed rate.
            sustained_msps: samples as f64 / wall / 1e6,
            frame_latency_p50_ms: lat.median,
            frame_latency_p99_ms: lat.tail,
            psr: recovered as f64 / sent as f64,
        }
        .emit(&mut out);
        return Ok(out);
    }

    // Traced run: the same bursts untraced, then traced.
    let (plain, _) = stream_all(&bursts, false, None);
    let (traced, spans) = stream_all(&bursts, true, None);
    for (b, (p, t)) in plain.iter().zip(&traced).enumerate() {
        check_burst(&mut out, b, t);
        out.check(
            p.recovered == t.recovered && p.fcs_passes == t.fcs_passes,
            || format!("burst {b}: traced decode differs from untraced"),
        );
        out.attempted += p.calls + t.calls;
        out.failed += p.errors + t.errors;
    }
    let totals = layer_totals(&spans, &["push", "flush"]);
    out.check(totals.orphans == 0, || {
        format!(
            "{} receive-chain spans outside any push/flush",
            totals.orphans
        )
    });
    let base = totals.root_ns as f64;
    rx_layers(&mut out, &totals, base);
    out.layer(
        "rx.unattributed.share",
        (totals.self_ns("push") + totals.self_ns("flush")) as f64 / base.max(1.0),
    );
    let last_update: Vec<f64> = traced.iter().filter_map(|r| r.last_update_ms).collect();
    out.layer("rx.model_update.ms_last_frame", median(&last_update));
    let np_final: Vec<f64> = traced.iter().map(|r| r.np_final as f64).collect();
    out.layer("model.np_final", median(&np_final));
    let sum = |f: fn(&BurstRun) -> usize| traced.iter().map(f).sum::<usize>() as f64;
    out.layer(
        "session.decode_yield",
        sum(|r| r.fcs_passes) / sum(|r| r.frames_detected).max(1.0),
    );
    out.layer("session.false_alarms", sum(|r| r.false_alarms));
    out.layer("session.model_rejects", sum(|r| r.model_rejects));
    let plain_wall: f64 = plain.iter().map(|r| r.wall_s).sum();
    let traced_wall: f64 = traced.iter().map(|r| r.wall_s).sum();
    out.layer("trace.overhead_frac", traced_wall / plain_wall - 1.0);
    out.layer("trace.spans", spans.len() as f64);
    out.notes.push(format!(
        "{} bursts: untraced {plain_wall:.3} core-s, traced {traced_wall:.3} core-s of push+flush",
        bursts.len()
    ));
    crate::report::dump_spans(&mut out, "stream_rolling", args.seed, &spans);
    finish_layers(&mut out);
    Ok(out)
}
