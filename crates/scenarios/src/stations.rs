//! Multi-station server driver: N bursty stations multiplexed through one
//! [`RxServer`].
//!
//! The stream campaigns ([`crate::stream`]) exercise one session per receiver arm.
//! This module drives the PR 7 server core the way an access point would see it:
//! every station is an independent bursty traffic source (its own frames, gaps and
//! interference realisation, derived from its own seed-tree RNG), and one
//! [`RxServer`] decodes all of them concurrently over a fixed worker pool. A
//! *driver* RNG interleaves the stations' captures chunk-by-chunk in a random but
//! seed-determined order, using the handles' blocking
//! [`cprecycle::SessionHandle::push`] so
//! ingress backpressure paces the driver to the receivers.
//!
//! Determinism: station captures depend only on `(master_seed, station)`, the
//! interleaving depends only on the driver RNG, and the server's per-session
//! outputs are bit-identical to standalone sessions for *any* scheduling — so the
//! whole report is a pure function of `(master_seed, config)`, independent of the
//! worker-thread count. The `one_worker_and_many_workers_produce_identical_reports`
//! test pins exactly that.

use crate::link::Scenario;
use crate::stream::{build_burst, count_in_order_recoveries, StreamArm};
use crate::Result;
use cprecycle::{
    CpRecycleReceiver, FrameReceiver, ModelPersistence, RxServer, ServerConfig, SessionConfig,
    SessionCounters,
};
use cprecycle_engine::trial_rng;
use ofdmphy::convcode::CodeRate;
use ofdmphy::frame::{Mcs, Transmitter};
use ofdmphy::modulation::Modulation;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::{FrameInfo, StandardReceiver};
use ofdmphy::PhyError;
use rand::Rng;
use rfdsp::Complex;

/// Configuration of one multi-station server run.
#[derive(Debug, Clone)]
pub struct StationsConfig {
    /// OFDM numerology shared by every station's victim link.
    pub params: OfdmParams,
    /// Victim modulation and code rate (SIGNAL fields are decoded over the air).
    pub mcs: Mcs,
    /// Interference environment; rendered independently per station (each station's
    /// RNG draws its own realisation).
    pub scenario: Scenario,
    /// Receiver arm every station's session runs (the server is homogeneous in the
    /// receiver *type*; per-station state is of course independent).
    pub arm: StreamArm,
    /// Number of stations — one [`RxServer`] session each.
    pub stations: usize,
    /// Frames per station's burst.
    pub frames_per_station: usize,
    /// Victim payload length in bytes.
    pub payload_len: usize,
    /// Inclusive range of the random noise gap (in samples) before each frame.
    pub gap_range: (usize, usize),
    /// Inclusive range of the random chunk length (in samples) the driver pushes.
    pub chunk_range: (usize, usize),
    /// Session detection threshold (see [`SessionConfig::detection_threshold`]).
    pub detection_threshold: f64,
    /// Worker threads of the server pool.
    pub threads: usize,
    /// Per-session ingress queue capacity (chunks) — the backpressure bound.
    pub queue_capacity: usize,
}

impl StationsConfig {
    /// A run at the stream campaigns' defaults: QPSK 1/2, 400-byte payloads, 3
    /// frames per station, gaps of 120–400 samples, chunks of 64–480 samples,
    /// threshold 0.45 (see [`crate::stream::StreamPoint::new`] for the rationale),
    /// 2 worker threads, ingress capacity 8 chunks.
    pub fn new(scenario: Scenario, arm: StreamArm, stations: usize) -> Self {
        StationsConfig {
            params: OfdmParams::ieee80211ag(),
            mcs: Mcs::new(Modulation::Qpsk, CodeRate::Half),
            scenario,
            arm,
            stations,
            frames_per_station: 3,
            payload_len: 400,
            gap_range: (120, 400),
            chunk_range: (64, 480),
            detection_threshold: 0.45,
            threads: 2,
            queue_capacity: 8,
        }
    }

    /// Sets the payload length.
    pub fn payload(mut self, payload_len: usize) -> Self {
        self.payload_len = payload_len;
        self
    }

    /// Sets the number of frames per station.
    pub fn frames(mut self, frames_per_station: usize) -> Self {
        self.frames_per_station = frames_per_station;
        self
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Seed-tree key for one station's RNG: encodes every outcome-relevant
    /// parameter (like [`cprecycle_engine::CampaignPoint::key`]) so reseeding is
    /// stable across display-label changes but sensitive to anything that alters
    /// the waveform.
    fn station_key(&self) -> String {
        format!(
            "stations;fft={};cp={};rate={};mcs={:?};scenario={:?};arm={:?};payload={};frames={};gaps={:?};thr={}",
            self.params.fft_size,
            self.params.cp_len,
            self.params.sample_rate_hz,
            self.mcs,
            self.scenario,
            self.arm,
            self.payload_len,
            self.frames_per_station,
            self.gap_range,
            self.detection_threshold,
        )
    }
}

/// Outcome of one station in a multi-station run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StationReport {
    /// Station index (== the server session id, in `add_session` order).
    pub station: usize,
    /// Frames the station transmitted.
    pub frames_sent: usize,
    /// Frames recovered in order with bit-exact payloads.
    pub frames_recovered: usize,
    /// The session's event-consistent counters after shutdown.
    pub counters: SessionCounters,
    /// Samples the driver pushed into the station's session.
    pub samples_pushed: usize,
}

/// Outcome of a multi-station server run. `PartialEq` on purpose: two runs with the
/// same `(master_seed, config)` must compare equal whatever the thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StationsReport {
    /// One report per station, in station order.
    pub stations: Vec<StationReport>,
}

impl StationsReport {
    /// Total frames transmitted across stations.
    pub fn frames_sent(&self) -> usize {
        self.stations.iter().map(|s| s.frames_sent).sum()
    }

    /// Total frames recovered across stations.
    pub fn frames_recovered(&self) -> usize {
        self.stations.iter().map(|s| s.frames_recovered).sum()
    }

    /// Per-frame packet success rate across all stations (0–1).
    pub fn per_frame_psr(&self) -> f64 {
        let sent = self.frames_sent();
        if sent == 0 {
            return 0.0;
        }
        self.frames_recovered() as f64 / sent as f64
    }

    /// Total samples pushed across stations.
    pub fn samples_total(&self) -> usize {
        self.stations.iter().map(|s| s.samples_pushed).sum()
    }
}

/// Runs one multi-station server campaign: build every station's capture, decode
/// them all through one [`RxServer`], report per-station recovery and counters.
pub fn run_stations(master_seed: u64, cfg: &StationsConfig) -> Result<StationsReport> {
    match &cfg.arm {
        StreamArm::Standard => drive(master_seed, cfg, ModelPersistence::PerFrame, |params| {
            StandardReceiver::new(params)
        }),
        StreamArm::CpRecycle {
            config,
            persistence,
        } => {
            let (config, persistence) = (*config, *persistence);
            drive(master_seed, cfg, persistence, move |params| {
                CpRecycleReceiver::new(params, config)
            })
        }
    }
}

fn push_error(e: cprecycle::PushError) -> PhyError {
    PhyError::DecodeFailure(format!("server push failed: {e}"))
}

fn drive<R>(
    master_seed: u64,
    cfg: &StationsConfig,
    persistence: ModelPersistence,
    make_receiver: impl Fn(OfdmParams) -> R,
) -> Result<StationsReport>
where
    R: FrameReceiver + Send + 'static,
    R::Stream: Send,
{
    let key = cfg.station_key();
    let tx = Transmitter::new(cfg.params.clone());

    // Per-station captures from per-station seed-tree RNGs: station `s` sees the
    // same waveform whatever the other stations (or the worker count) do.
    let mut captures: Vec<Vec<Complex>> = Vec::with_capacity(cfg.stations);
    let mut expected: Vec<Vec<Vec<u8>>> = Vec::with_capacity(cfg.stations);
    for s in 0..cfg.stations {
        let mut rng = trial_rng(master_seed, &key, s as u64);
        let (payloads, victim) = build_burst(
            &tx,
            cfg.mcs,
            cfg.payload_len,
            cfg.frames_per_station,
            cfg.gap_range,
            &mut rng,
        )?;
        let output = cfg.scenario.render(&mut rng, &cfg.params, &victim)?;
        captures.push(output.received);
        expected.push(payloads);
    }

    // Same head-of-line-stall guard as the stream campaigns.
    let longest_frame = FrameInfo {
        mcs: cfg.mcs,
        psdu_len: cfg.payload_len + 4,
    }
    .frame_sample_len(&cfg.params);
    let session_config = SessionConfig {
        persistence,
        detection_threshold: cfg.detection_threshold,
        correct_cfo: false,
        max_frame_samples: Some(longest_frame + 512),
    };

    let server: RxServer<R> = RxServer::new(ServerConfig {
        threads: cfg.threads.max(1),
        queue_capacity: cfg.queue_capacity.max(1),
    });
    let handles: Vec<_> = (0..cfg.stations)
        .map(|_| server.add_session(make_receiver(cfg.params.clone()), session_config))
        .collect();

    // Interleave the captures in a driver-RNG-determined order. The index
    // `cfg.stations` cannot collide with any station RNG (stations use 0..N).
    let mut driver = trial_rng(master_seed, &key, cfg.stations as u64);
    let (chunk_lo, chunk_hi) = cfg.chunk_range;
    let mut offsets = vec![0usize; cfg.stations];
    let mut live: Vec<usize> = (0..cfg.stations).collect();
    while !live.is_empty() {
        let pick = driver.gen_range(0..live.len());
        let s = live[pick];
        let len = driver.gen_range(chunk_lo.max(1)..=chunk_hi.max(1));
        let lo = offsets[s];
        let hi = (lo + len).min(captures[s].len());
        handles[s].push(&captures[s][lo..hi]).map_err(push_error)?;
        offsets[s] = hi;
        if hi == captures[s].len() {
            handles[s].flush().map_err(push_error)?;
            live.swap_remove(pick);
        }
    }
    server.shutdown();

    let mut stations = Vec::with_capacity(cfg.stations);
    for (s, handle) in handles.iter().enumerate() {
        if let Some(err) = handle.take_error() {
            return Err(err);
        }
        let samples_pushed = handle.samples_pushed();
        let counters = handle.counters();
        let recovered = count_in_order_recoveries(handle.drain_events(), &expected[s]);
        stations.push(StationReport {
            station: s,
            frames_sent: cfg.frames_per_station,
            frames_recovered: recovered,
            counters,
            samples_pushed,
        });
    }
    Ok(StationsReport { stations })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_config(arm: StreamArm, stations: usize) -> StationsConfig {
        StationsConfig::new(Scenario::Clean { snr_db: 28.0 }, arm, stations)
            .payload(60)
            .frames(2)
    }

    #[test]
    fn clean_stations_recover_every_frame() {
        let cfg = clean_config(StreamArm::Standard, 3).threads(2);
        let report = run_stations(0xACE5, &cfg).unwrap();
        assert_eq!(report.stations.len(), 3);
        for station in &report.stations {
            assert_eq!(
                station.frames_recovered, station.frames_sent,
                "station {} lost frames: {:?}",
                station.station, station.counters
            );
            assert!(station.samples_pushed > 0);
        }
        assert_eq!(report.per_frame_psr(), 1.0);
        assert_eq!(report.frames_sent(), 6);
    }

    #[test]
    fn one_worker_and_many_workers_produce_identical_reports() {
        // The server's determinism contract surfaced at the campaign layer: the
        // report (recoveries, counters, sample tallies) is a pure function of
        // (master_seed, config) — the pool size must not be observable.
        let seed = 0xBEE5;
        let serial = run_stations(seed, &clean_config(StreamArm::Standard, 4).threads(1)).unwrap();
        let parallel =
            run_stations(seed, &clean_config(StreamArm::Standard, 4).threads(4)).unwrap();
        assert_eq!(serial, parallel);
        // And re-running the same configuration reproduces the same report.
        let again = run_stations(seed, &clean_config(StreamArm::Standard, 4).threads(4)).unwrap();
        assert_eq!(parallel, again);
    }

    #[test]
    fn rolling_cprecycle_stations_are_thread_count_invariant() {
        // Rolling persistence carries model state across a station's frames — the
        // hardest case for scheduling determinism, because any cross-session
        // leakage or reordering would change later frames' decodes.
        let seed = 0xD00D;
        let arm = StreamArm::cprecycle(ModelPersistence::Rolling);
        let serial = run_stations(seed, &clean_config(arm.clone(), 2).threads(1)).unwrap();
        let parallel = run_stations(seed, &clean_config(arm, 2).threads(3)).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.frames_recovered(), serial.frames_sent());
    }

    #[test]
    fn station_key_is_sensitive_to_waveform_parameters_only() {
        let a = clean_config(StreamArm::Standard, 3);
        let b = a.clone().payload(61);
        assert_ne!(a.station_key(), b.station_key());
        // Threads and queue capacity must NOT reseed stations: the same traffic
        // must be replayable at any pool size.
        let c = a.clone().threads(7);
        assert_eq!(a.station_key(), c.station_key());
    }
}
