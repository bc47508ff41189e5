//! `server_std`: an `RxServer<StandardReceiver>` with one worker and 64
//! sessions, driven open loop by one generator thread up a ladder of offered
//! aggregate rates. Each session loops its own pre-rendered 3-frame burst
//! (QPSK 1/2, 400 B, 28 dB SNR); chunk sizes (64–480 samples) and the order
//! sessions are fed in come from the seed.

use crate::report::{finish_layers, rx_layers, EndToEnd};
use crate::stats::{backlog_grows, summarize, sustained_rate, LogHist, RungVerdict};
use crate::stream::{frame_len, frame_positions};
use crate::trace::{
    covered, layer_totals, session_trace, trace_session, SessionTracer, SpanRec, Tracer,
};
use crate::{probe, timed_setup, Args, Outcome};
use cprecycle::{
    ModelPersistence, RxEvent, RxServer, RxSession, ServerConfig, SessionConfig, SessionHandle,
};
use cprecycle_scenarios::stream::build_burst;
use obs::{NoopRecorder, Recorder};
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::StandardReceiver;
use rand::Rng;
use rfdsp::Complex;
use std::collections::VecDeque;
use std::hash::Hasher;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups timed per run (one takes ~0.45 s, 0.25 s of it a real-time warm-up).
const SETUP_REPEATS: usize = 5;
const SESSIONS: usize = 64;
const WORKERS: usize = 1;
const FRAMES: usize = 3;
const PAYLOAD_BYTES: usize = 400;
const GAPS: (usize, usize) = (120, 400);
const CHUNKS: (usize, usize) = (64, 480);
const SNR_DB: f64 = 28.0;
const THRESHOLD: f64 = 0.45;
/// Offered aggregate rates (Msamples/s) and each rung's share of the ladder's
/// time. The 2 Msps rung, where the gated frame latency is taken, runs
/// longest; the half steps near the ~6.5 Msps capacity of one worker keep the
/// sustained rate from jumping a whole Msps between seeds. The last rung
/// offers far more than one worker decodes, so every run ends with every
/// session's ring full whatever the host's speed, and `peak_rss_mb` measures
/// the server at its ingress bound rather than however far behind a run
/// happened to fall.
const LADDER: [(f64, f64); 10] = [
    (2.0, 6.0),
    (3.0, 1.5),
    (4.0, 3.0),
    (5.0, 1.5),
    (6.0, 1.5),
    (6.5, 1.5),
    (7.0, 1.5),
    (7.5, 1.5),
    (8.0, 1.5),
    (24.0, 0.25),
];
/// Frame latency is reported at a third of capacity: at 4 Msps (60 % busy)
/// queueing amplified host noise into ±25 % run-to-run swings of the median
/// for one seed; at 2 Msps the same runs agreed within ±5 %.
const LATENCY_RATE_MSPS: f64 = 2.0;
/// A rung passes when its tail frame latency is within this limit.
pub const LATENCY_LIMIT_MS: f64 = 20.0;
/// Share of `--seconds` the ladder's nominal time takes; the rest covers
/// draining between rungs and overloaded rungs running long.
const LADDER_SHARE: f64 = 0.8;
const WARMUP: (f64, f64) = (2.0, 0.25);
const BACKLOG_SAMPLE: Duration = Duration::from_millis(5);
/// Name prefix of the server's pool threads.
const WORKER_THREAD: &str = "rx-pool-";
/// Probe quanta per thread before each rung; the generator and the worker
/// are the two busy threads during a rung.
const PROBE_QUANTA: usize = 20;
/// Sessions whose events are compared bit for bit with a standalone replay.
const CHECKED_SESSIONS: usize = 2;

fn mcs() -> Mcs {
    Mcs::new(Modulation::Qpsk, CodeRate::Half)
}

fn session_config(params: &OfdmParams) -> SessionConfig {
    SessionConfig {
        persistence: ModelPersistence::PerFrame,
        detection_threshold: THRESHOLD,
        correct_cfo: false,
        max_frame_samples: Some(frame_len(params, mcs(), PAYLOAD_BYTES) + 512),
    }
}

/// One session's looped capture.
struct Station {
    /// The burst followed by its first `CHUNKS.1` samples again, so any chunk
    /// starting inside the burst is one contiguous slice.
    looped: Vec<Complex>,
    burst_len: usize,
    payloads: Vec<Vec<u8>>,
    frames: Vec<(usize, usize)>,
}

impl Station {
    fn chunk(&self, pos: usize, len: usize) -> &[Complex] {
        let at = pos % self.burst_len;
        &self.looped[at..at + len]
    }

    /// Global frame index of a detection at stream position `start`.
    fn frame_index(&self, start: usize) -> Option<usize> {
        let (lap, at) = (start / self.burst_len, start % self.burst_len);
        let j = self.frames.iter().position(|&(s, _)| s.abs_diff(at) < 64)?;
        Some(lap * FRAMES + j)
    }

    fn frame_end(&self, k: usize) -> usize {
        (k / FRAMES) * self.burst_len + self.frames[k % FRAMES].1
    }

    /// Frames wholly inside the first `pushed` samples.
    fn frames_sent(&self, pushed: usize) -> usize {
        let laps = pushed / self.burst_len;
        let rest = pushed % self.burst_len;
        laps * FRAMES + self.frames.iter().filter(|&&(_, e)| e <= rest).count()
    }
}

fn render_stations(seed: u64) -> Result<Vec<Station>, String> {
    let params = OfdmParams::ieee80211ag();
    let tx = Transmitter::new(params.clone());
    let len = frame_len(&params, mcs(), PAYLOAD_BYTES);
    let mut gauss = rfdsp::noise::GaussianSource::new();
    (0..SESSIONS)
        .map(|s| {
            let mut rng = cprecycle_engine::trial_rng(seed, "cpbench/server_std", s as u64);
            let (payloads, mut burst) =
                build_burst(&tx, mcs(), PAYLOAD_BYTES, FRAMES, GAPS, &mut rng)
                    .map_err(|e| e.to_string())?;
            let frames = frame_positions(&burst, FRAMES, len)?;
            let power = rfdsp::power::signal_power(&burst).map_err(|e| e.to_string())?;
            gauss.add_awgn(
                &mut rng,
                &mut burst,
                power / rfdsp::power::db_to_lin(SNR_DB),
            );
            let burst_len = burst.len();
            let mut looped = burst;
            looped.extend_from_within(..CHUNKS.1);
            Ok(Station {
                looped,
                burst_len,
                payloads,
                frames,
            })
        })
        .collect()
}

/// One rung's chunk schedule: (session, length) in offered order.
fn schedule(seed: u64, rung: usize, rate_msps: f64, secs: f64) -> Vec<(u16, u16)> {
    let mut rng = cprecycle_engine::trial_rng(seed, "cpbench/server_std/schedule", rung as u64);
    let target = (rate_msps * 1e6 * secs) as usize;
    let mut out = Vec::new();
    let mut total = 0;
    while total < target {
        let s = rng.gen_range(0..SESSIONS) as u16;
        let len = rng.gen_range(CHUNKS.0..=CHUNKS.1) as u16;
        total += usize::from(len);
        out.push((s, len));
    }
    out
}

/// FNV-1a over everything an event carries.
#[derive(Clone, Copy)]
struct EventHash(u64);

impl Default for EventHash {
    fn default() -> Self {
        EventHash(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for EventHash {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn hash_event(h: &mut EventHash, event: &RxEvent) {
    match event {
        RxEvent::FrameDetected { sync } => {
            h.write_u8(0);
            h.write_usize(sync.frame_start);
            h.write_u64(sync.cfo_hz.to_bits());
            h.write_u64(sync.detection_metric.to_bits());
        }
        RxEvent::FrameDecoded { frame, frame_start } => {
            h.write_u8(1);
            h.write_usize(*frame_start);
            h.write(format!("{:?}", frame.info).as_bytes());
            h.write(&frame.psdu);
            h.write_u8(frame.crc_ok as u8);
            h.write_u8(frame.payload.is_some() as u8);
            for symbol in &frame.equalized_symbols {
                for v in symbol {
                    h.write_u64(v.re.to_bits());
                    h.write_u64(v.im.to_bits());
                }
            }
        }
        RxEvent::FalseAlarm { at } => {
            h.write_u8(2);
            h.write_usize(*at);
        }
        RxEvent::SyncLost { at } => {
            h.write_u8(3);
            h.write_usize(*at);
        }
    }
}

/// Generator-side state of one session.
struct Feed {
    pushed: usize,
    /// `pushed` when the warm-up ended; frames are counted from there.
    warmup_pushed: usize,
    /// (stream end position, due time) of pushed chunks not yet matched to a
    /// decoded frame.
    dues: VecDeque<(usize, Instant)>,
    next_frame: usize,
    recovered: usize,
    hash: Option<EventHash>,
}

/// Per-rung measurements.
#[derive(Default)]
struct RungLog {
    latencies_ms: Vec<f64>,
    backlog: Vec<(f64, f64)>,
    errors: u64,
}

/// The open-loop generator driving one server.
struct Generator<O: Recorder + Send + 'static> {
    server: RxServer<StandardReceiver, O>,
    handles: Vec<SessionHandle<StandardReceiver, O>>,
    feeds: Vec<Feed>,
    rr: usize,
    log: RungLog,
    push_hist: LogHist,
    /// `poll_event` calls that returned an event: the generator's pickup
    /// work, including any wait for the session lock a decode holds. Calls
    /// on idle sessions are the generator's spin-wait and are not counted.
    pickup_hist: LogHist,
    lag_ms: Vec<f64>,
    tracer: Option<Arc<Tracer>>,
    calls: u64,
    errors: u64,
    queue_depth_max: f64,
    frames_decoded: u64,
    /// Frames that passed FCS with a payload that is not the next expected
    /// one: wrong output, which fails the run.
    wrong_payloads: u64,
}

impl<O: Recorder + Send + 'static> Generator<O> {
    fn new(
        stations: &[Station],
        checked: &[usize],
        make_rec: impl Fn(usize) -> O,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        let params = OfdmParams::ieee80211ag();
        let server = RxServer::new(ServerConfig {
            threads: WORKERS,
            ..Default::default()
        });
        let handles = (0..stations.len())
            .map(|s| {
                server.add_session_with_recorder(
                    StandardReceiver::new(params.clone()),
                    session_config(&params),
                    make_rec(s),
                )
            })
            .collect();
        let feeds = (0..stations.len())
            .map(|s| Feed {
                pushed: 0,
                warmup_pushed: 0,
                dues: VecDeque::new(),
                next_frame: 0,
                recovered: 0,
                hash: checked.contains(&s).then(EventHash::default),
            })
            .collect();
        Generator {
            server,
            handles,
            feeds,
            rr: 0,
            log: RungLog::default(),
            push_hist: LogHist::new(),
            pickup_hist: LogHist::new(),
            lag_ms: Vec::new(),
            tracer,
            calls: 0,
            errors: 0,
            queue_depth_max: 0.0,
            frames_decoded: 0,
            wrong_payloads: 0,
        }
    }

    fn on_event(&mut self, stations: &[Station], s: usize, event: RxEvent, now: Instant) {
        let feed = &mut self.feeds[s];
        if let Some(h) = feed.hash.as_mut() {
            hash_event(h, &event);
        }
        let RxEvent::FrameDecoded { frame, frame_start } = event else {
            return;
        };
        self.frames_decoded += 1;
        let station = &stations[s];
        let k = station.frame_index(frame_start);
        let last = match k {
            Some(k) => station.frame_end(k) - 1,
            None => frame_start + frame.info.frame_sample_len(&OfdmParams::ieee80211ag()) - 1,
        };
        while feed.dues.len() > 1 && feed.dues[0].0 <= last {
            feed.dues.pop_front();
        }
        let due = feed.dues.front().map_or(now, |d| d.1);
        let ok = match (k, frame.payload.as_deref()) {
            (Some(k), Some(p)) => {
                k >= feed.next_frame && p == station.payloads[k % FRAMES].as_slice()
            }
            _ => false,
        };
        if ok {
            feed.recovered += 1;
            feed.next_frame = k.expect("ok implies a frame index") + 1;
            self.log.latencies_ms.push((now - due).as_secs_f64() * 1e3);
        } else {
            // A failed frame misses any latency limit.
            self.log.latencies_ms.push(f64::INFINITY);
            self.wrong_payloads += frame.payload.is_some() as u64;
        }
    }

    fn poll(&mut self, stations: &[Station], s: usize) {
        loop {
            let t0 = Instant::now();
            let event = self.handles[s].poll_event();
            let t1 = Instant::now();
            match event {
                Some(e) => {
                    self.pickup_hist.record((t1 - t0).as_nanos() as u64);
                    if let Some(t) = &self.tracer {
                        t.record_in("poll", t0, t1, session_trace(s, 0));
                    }
                    self.on_event(stations, s, e, t1);
                }
                None => break,
            }
        }
    }

    fn poll_next(&mut self, stations: &[Station]) {
        let s = self.rr;
        self.rr = (self.rr + 1) % self.handles.len();
        self.poll(stations, s);
    }

    fn sweep(&mut self, stations: &[Station]) {
        for s in 0..self.handles.len() {
            self.poll(stations, s);
        }
    }

    fn queued(&self) -> usize {
        self.handles.iter().map(|h| h.queue_depth()).sum()
    }

    /// Offers one rung's chunks on schedule, then waits for the server to
    /// catch up while still collecting events.
    fn rung(&mut self, stations: &[Station], chunks: &[(u16, u16)], rate_msps: f64) -> RungLog {
        self.log = RungLog::default();
        let rate = rate_msps * 1e6;
        let mean_chunk = (CHUNKS.0 + CHUNKS.1) as f64 / 2.0;
        let t0 = Instant::now() + Duration::from_millis(1);
        let mut next_sample = t0;
        let mut next_snapshot = t0;
        let mut offered = 0usize;
        for &(s, len) in chunks {
            let (s, len) = (usize::from(s), usize::from(len));
            offered += len;
            let due = t0 + Duration::from_secs_f64(offered as f64 / rate);
            loop {
                let now = Instant::now();
                if now >= next_sample {
                    let behind =
                        ((now - t0).as_secs_f64() * rate - (offered - len) as f64).max(0.0);
                    let backlog = self.queued() as f64 + behind / mean_chunk;
                    self.log.backlog.push(((now - t0).as_secs_f64(), backlog));
                    next_sample += BACKLOG_SAMPLE;
                }
                if self.tracer.is_some() && now >= next_snapshot {
                    let depth = self
                        .server
                        .metrics_snapshot()
                        .gauge("queue_depth")
                        .unwrap_or(0.0);
                    self.queue_depth_max = self.queue_depth_max.max(depth);
                    next_snapshot = now + Duration::from_millis(250);
                }
                if now >= due {
                    break;
                }
                self.poll_next(stations);
            }
            let start = Instant::now();
            self.lag_ms.push((start - due).as_secs_f64() * 1e3);
            let pos = self.feeds[s].pushed;
            let result = self.handles[s].push(stations[s].chunk(pos, len));
            let end = Instant::now();
            self.push_hist.record((end - start).as_nanos() as u64);
            if let Some(t) = &self.tracer {
                t.record_in("push", start, end, session_trace(s, 0));
            }
            self.calls += 1;
            if result.is_err() {
                self.log.errors += 1;
            }
            let feed = &mut self.feeds[s];
            feed.pushed += len;
            feed.dues.push_back((feed.pushed, due));
            self.poll_next(stations);
        }
        while self.queued() > 0 {
            self.sweep(stations);
        }
        self.server.drain();
        self.sweep(stations);
        self.errors += self.log.errors;
        std::mem::take(&mut self.log)
    }

    /// Ends every stream, stops the server and collects what remains.
    fn finish(&mut self, stations: &[Station]) {
        for h in &self.handles {
            self.calls += 1;
            self.errors += h.flush().is_err() as u64;
        }
        self.server.shutdown();
        self.sweep(stations);
        for h in &self.handles {
            self.errors += h.take_error().is_some() as u64;
        }
    }

    /// Every FCS-passing frame must be the next transmitted payload.
    fn check_payloads(&self, out: &mut Outcome) {
        out.check(self.wrong_payloads == 0, || {
            format!(
                "{} frames passed FCS with a payload that is not the next transmitted one",
                self.wrong_payloads
            )
        });
    }

    /// Starts the counts over once the warm-up has drained, so that frames,
    /// samples and CPU time all cover the ladder alone.
    fn end_warmup(&mut self) {
        for feed in &mut self.feeds {
            feed.warmup_pushed = feed.pushed;
            feed.recovered = 0;
        }
        self.frames_decoded = 0;
        self.push_hist = LogHist::new();
        self.pickup_hist = LogHist::new();
        self.lag_ms.clear();
        if let Some(t) = &self.tracer {
            t.take_spans();
        }
    }

    fn recovered(&self) -> usize {
        self.feeds.iter().map(|f| f.recovered).sum()
    }

    /// Frames recovered in order and frames wholly pushed after the warm-up.
    fn psr(&self, stations: &[Station]) -> (usize, usize) {
        let sent = self
            .feeds
            .iter()
            .zip(stations)
            .map(|(f, st)| st.frames_sent(f.pushed) - st.frames_sent(f.warmup_pushed))
            .sum();
        (self.recovered(), sent)
    }
}

struct Plan {
    stations: Vec<Station>,
    warmup: Vec<(u16, u16)>,
    rungs: Vec<(f64, Vec<(u16, u16)>)>,
    checked: Vec<usize>,
}

fn plan(seed: u64, ladder_secs: f64) -> Result<Plan, String> {
    let stations = render_stations(seed)?;
    let unit = ladder_secs / LADDER.iter().map(|r| r.1).sum::<f64>();
    let warmup = schedule(seed, LADDER.len(), WARMUP.0, WARMUP.1);
    let rungs = LADDER
        .iter()
        .enumerate()
        .map(|(i, &(rate, weight))| (rate, schedule(seed, i, rate, weight * unit)))
        .collect();
    let mut pick = cprecycle_engine::trial_rng(seed, "cpbench/server_std/checked", 0);
    let mut checked = Vec::new();
    while checked.len() < CHECKED_SESSIONS {
        let s = pick.gen_range(0..SESSIONS);
        if !checked.contains(&s) {
            checked.push(s);
        }
    }
    Ok(Plan {
        stations,
        warmup,
        rungs,
        checked,
    })
}

fn start<O: Recorder + Send + 'static>(
    plan: &Plan,
    make_rec: impl Fn(usize) -> O,
    tracer: Option<Arc<Tracer>>,
) -> Generator<O> {
    let mut gen = Generator::new(&plan.stations, &plan.checked, make_rec, tracer);
    gen.rung(&plan.stations, &plan.warmup, WARMUP.0);
    gen.end_warmup();
    gen
}

/// The receive-chain stages a `StandardReceiver` reports.
const STAGES: [&str; 3] = ["sync", "decide", "bits"];

/// Generator time in the spans named `name`, and the part of it that overlaps
/// a decode stage of the same session on the worker: a `poll_event` blocked
/// on the session lock, or a `push` into that session's full ring.
fn generator_time(spans: &[SpanRec], name: &str) -> (f64, f64) {
    let mut stages: Vec<Vec<(u64, u64)>> = vec![Vec::new(); SESSIONS];
    for sp in spans.iter().filter(|sp| STAGES.contains(&sp.name)) {
        if let Some(s) = trace_session(sp.trace) {
            stages[s].push((sp.start, sp.end));
        }
    }
    for v in &mut stages {
        v.sort_unstable();
    }
    let (mut total, mut waited) = (0u64, 0u64);
    for sp in spans.iter().filter(|sp| sp.name == name) {
        total += sp.dur();
        let Some(v) = trace_session(sp.trace).map(|s| &stages[s]) else {
            continue;
        };
        // One worker runs a session's stages one after another, so they are
        // sorted by end as well as by start.
        let from = v.partition_point(|iv| iv.1 <= sp.start);
        let to = from + v[from..].partition_point(|iv| iv.0 < sp.end);
        waited += covered(v[from..to].to_vec(), sp.start, sp.end);
    }
    (total as f64, waited as f64)
}

/// Server ≡ standalone: the checked sessions' events, replayed through a
/// standalone `RxSession` fed the same chunks, must hash identically.
fn check_standalone<O: Recorder + Send + 'static>(
    out: &mut Outcome,
    plan: &Plan,
    gen: &Generator<O>,
) {
    let params = OfdmParams::ieee80211ag();
    for &s in &plan.checked {
        let mut session = RxSession::with_config(
            StandardReceiver::new(params.clone()),
            session_config(&params),
        );
        let mut hash = EventHash::default();
        let mut pos = 0;
        let all = plan
            .warmup
            .iter()
            .chain(plan.rungs.iter().flat_map(|r| r.1.iter()));
        for &(_, len) in all.filter(|c| usize::from(c.0) == s) {
            let len = usize::from(len);
            let pushed = session.push(plan.stations[s].chunk(pos, len));
            out.check(pushed.is_ok(), || {
                format!("standalone session {s}: push failed")
            });
            pos += len;
            for e in session.drain_events() {
                hash_event(&mut hash, &e);
            }
        }
        out.check(session.flush().is_ok(), || {
            format!("standalone session {s}: flush failed")
        });
        for e in session.drain_events() {
            hash_event(&mut hash, &e);
        }
        let served = gen.feeds[s].hash.expect("checked sessions hash").finish();
        out.check(served == hash.finish() && pos == gen.feeds[s].pushed, || {
            format!("session {s}: server events differ from a standalone session fed the same chunks")
        });
    }
    out.notes.push(format!(
        "sessions {:?}: server events bit-identical to standalone replays",
        plan.checked
    ));
}

struct LadderResult {
    verdicts: Vec<RungVerdict>,
    latency: Option<crate::stats::Summary>,
    wall_s: f64,
    /// CPU time of the server's worker thread over the ladder, and the same
    /// in reference CPU seconds.
    worker_cpu_s: f64,
    ref_worker_cpu_s: f64,
    /// Frames recovered in order by the end of the ladder.
    recovered: usize,
}

fn ladder<O: Recorder + Send + 'static>(
    plan: &Plan,
    gen: &mut Generator<O>,
    out: &mut Outcome,
) -> LadderResult {
    let mut wall_s = 0.0;
    let (mut worker_cpu_s, mut ref_worker_cpu_s) = (0.0, 0.0);
    let mut verdicts = Vec::new();
    let mut latency = None;
    for (rate, chunks) in &plan.rungs {
        // The previous rung has drained, so the worker is idle while probing.
        let quantum_s = probe::on_threads(2, PROBE_QUANTA);
        let (t, cpu) = (Instant::now(), crate::threads_cpu_s(WORKER_THREAD));
        let log = gen.rung(&plan.stations, chunks, *rate);
        wall_s += t.elapsed().as_secs_f64();
        let rung_cpu_s = crate::threads_cpu_s(WORKER_THREAD) - cpu;
        worker_cpu_s += rung_cpu_s;
        ref_worker_cpu_s += probe::to_reference(rung_cpu_s, quantum_s);
        let summary = summarize(&log.latencies_ms);
        let grows = backlog_grows(&log.backlog, chunks.len());
        let verdict = RungVerdict {
            rate_msps: *rate,
            latency_tail_ms: summary.map_or(f64::INFINITY, |s| s.tail),
            backlog_grows: grows,
            errors: log.errors,
        };
        if *rate == LATENCY_RATE_MSPS {
            latency = summary;
        }
        out.notes.push(format!(
            "rung {rate} Msps: {} chunks, {} frames, latency p50 {:.3} ms p{:.1} {:.3} ms, backlog grows: {grows}, errors {}",
            chunks.len(),
            summary.map_or(0, |s| s.n),
            summary.map_or(f64::NAN, |s| s.median),
            summary.map_or(0.0, |s| s.tail_pct),
            verdict.latency_tail_ms,
            log.errors
        ));
        verdicts.push(verdict);
    }
    LadderResult {
        verdicts,
        latency,
        wall_s,
        worker_cpu_s,
        ref_worker_cpu_s,
        recovered: gen.recovered(),
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let share = if args.trace { 0.5 } else { 1.0 };
    let ladder_secs = args.seconds * LADDER_SHARE * share;
    if !args.trace {
        let (setup, setup_s) = timed_setup(SETUP_REPEATS, None, || {
            let plan = plan(args.seed, ladder_secs)?;
            let gen = start(&plan, |_| NoopRecorder, None);
            Ok::<_, String>((plan, gen))
        });
        let (plan, mut gen) = setup?;
        let result = ladder(&plan, &mut gen, &mut out);
        gen.finish(&plan.stations);
        gen.check_payloads(&mut out);
        check_standalone(&mut out, &plan, &gen);
        let (recovered, sent) = gen.psr(&plan.stations);
        out.attempted = gen.calls;
        out.failed = gen.errors;
        let lat = result
            .latency
            .ok_or("no frame decoded at the latency rung")?;
        let samples: usize = plan
            .rungs
            .iter()
            .flat_map(|r| r.1.iter())
            .map(|c| usize::from(c.1))
            .sum();
        let sustained = sustained_rate(&result.verdicts, LATENCY_LIMIT_MS);
        out.notes.push(format!(
            "{recovered}/{sent} frames recovered in order; ladder {:.3} s, worker {:.3} CPU-s; sustained {sustained} Msps",
            result.wall_s, result.worker_cpu_s
        ));
        EndToEnd {
            setup_s,
            trials: gen.frames_decoded as f64,
            recovered: result.recovered as f64,
            samples: samples as f64,
            wall_s: result.wall_s,
            cpu_s: result.worker_cpu_s,
            ref_cpu_s: result.ref_worker_cpu_s,
            sustained_msps: sustained,
            frame_latency_p50_ms: lat.median,
            frame_latency_p99_ms: lat.tail,
            psr: recovered as f64 / sent.max(1) as f64,
        }
        .emit(&mut out);
        return Ok(out);
    }

    // Traced run: a half-length ladder untraced, then the same traced on a
    // fresh server whose sessions report into per-session recorders.
    let plan = plan(args.seed, ladder_secs)?;
    let mut plain = start(&plan, |_| NoopRecorder, None);
    let plain_result = ladder(&plan, &mut plain, &mut out);
    plain.finish(&plan.stations);
    let tracer = Arc::new(Tracer::new());
    let mut traced = start(
        &plan,
        |s| Arc::new(SessionTracer::new(Arc::clone(&tracer), s)),
        Some(Arc::clone(&tracer)),
    );
    let traced_result = ladder(&plan, &mut traced, &mut out);
    let worker_cpu = traced_result.worker_cpu_s;
    let snap = traced.server.metrics_snapshot();
    traced.finish(&plan.stations);
    traced.check_payloads(&mut out);
    check_standalone(&mut out, &plan, &traced);
    out.check(
        plain.psr(&plan.stations) == traced.psr(&plan.stations),
        || "traced server recovered different frames".into(),
    );
    out.attempted = plain.calls + traced.calls;
    out.failed = plain.errors + traced.errors;

    // The traced time is the generator's push and event-pickup time plus the
    // worker's CPU time. Generator time spent waiting on the worker while it
    // decodes the same session is the worker's time, counted once there.
    let spans = tracer.take_spans();
    let totals = layer_totals(&spans, &["push", "poll", "sync", "decide", "bits"]);
    let stages_ns = STAGES.iter().map(|n| totals.self_ns(n)).sum::<u64>() as f64;
    let (push_ns, push_wait_ns) = generator_time(&spans, "push");
    let (poll_ns, poll_wait_ns) = generator_time(&spans, "poll");
    let (push_ns, poll_ns) = (push_ns - push_wait_ns, poll_ns - poll_wait_ns);
    let worker_ns = worker_cpu * 1e9;
    let base = push_ns + poll_ns + worker_ns;
    rx_layers(&mut out, &totals, base);
    // Stage spans are wall time and the worker's total is CPU time, so time
    // the host steals during a stage can push this below 0; it is reported
    // as measured.
    out.layer("rx.unattributed.share", (worker_ns - stages_ns) / base);
    out.layer("server.push.share", push_ns / base);
    out.layer("gen.poll.share", poll_ns / base);
    out.layer("server.push.us_p50", traced.push_hist.quantile(0.5) / 1e3);
    out.layer("server.push.us_p99", traced.push_hist.quantile(0.99) / 1e3);
    out.layer(
        "server.ring_full_rejections",
        snap.counter("ring_full_rejections") as f64,
    );
    let (hits, misses) = (
        snap.counter("chunk_pool_hits"),
        snap.counter("chunk_pool_misses"),
    );
    out.layer(
        "server.chunk_pool.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.layer("server.queue_depth_max", traced.queue_depth_max);
    out.layer(
        "server.push_decode_p99_ms",
        snap.gauge("push_decode_p99_ns").unwrap_or(0.0) / 1e6,
    );
    out.layer(
        "server.worker_busy_frac",
        stages_ns / 1e9 / (traced_result.wall_s * WORKERS as f64),
    );
    out.layer(
        "gen.lag_p99_ms",
        summarize(&traced.lag_ms).map_or(0.0, |s| s.tail),
    );
    out.layer(
        "gen.poll_wait_p99_us",
        traced.pickup_hist.quantile(0.99) / 1e3,
    );
    let counters: Vec<_> = traced.handles.iter().map(|h| h.counters()).collect();
    let detected: usize = counters.iter().map(|c| c.frames_detected).sum();
    let passes: usize = counters.iter().map(|c| c.fcs_passes).sum();
    out.layer(
        "session.decode_yield",
        passes as f64 / detected.max(1) as f64,
    );
    out.layer(
        "session.false_alarms",
        counters.iter().map(|c| c.false_alarms).sum::<usize>() as f64,
    );
    out.layer(
        "session.model_rejects",
        counters.iter().map(|c| c.model_rejects).sum::<usize>() as f64,
    );
    let p50 = |r: &LadderResult| r.latency.map_or(f64::NAN, |s| s.median);
    out.layer(
        "trace.overhead_frac",
        p50(&traced_result) / p50(&plain_result) - 1.0,
    );
    out.layer("trace.spans", spans.len() as f64);
    out.notes.push(format!(
        "worker CPU {worker_cpu:.3} s, decode stages {:.3} s; generator waits behind same-session decodes left out: push {:.3} s, poll {:.3} s; overhead is the {LATENCY_RATE_MSPS} Msps p50 latency ratio",
        stages_ns / 1e9,
        push_wait_ns / 1e9,
        poll_wait_ns / 1e9
    ));
    crate::report::dump_spans(&mut out, "server_std", args.seed, &spans);
    finish_layers(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::generator_time;
    use crate::trace::{session_trace, SpanRec, NO_PARENT};

    fn span(name: &'static str, thread: u32, start: u64, end: u64, trace: u64) -> SpanRec {
        SpanRec {
            name,
            thread,
            start,
            end,
            parent: NO_PARENT,
            trace,
        }
    }

    #[test]
    fn generator_waits_count_only_same_session_stages() {
        let spans = [
            // Worker: session 3 decodes over 10..20 and 30..40, session 5 over 50..60.
            span("sync", 1, 10, 20, session_trace(3, 1)),
            span("bits", 1, 30, 40, session_trace(3, 1)),
            span("decide", 1, 50, 60, session_trace(5, 1)),
            // Generator: a pickup on session 3 blocked over 15..35, one on
            // session 4 during session 5's decode, and a push into session 3.
            span("poll", 0, 12, 35, session_trace(3, 0)),
            span("poll", 0, 52, 58, session_trace(4, 0)),
            span("push", 0, 38, 45, session_trace(3, 0)),
        ];
        // Poll: 23 + 6 ns, of which 8 (12..20) + 5 (30..35) overlap session 3.
        assert_eq!(generator_time(&spans, "poll"), (29.0, 13.0));
        assert_eq!(generator_time(&spans, "push"), (7.0, 2.0));
    }
}
