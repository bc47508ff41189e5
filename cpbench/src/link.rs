//! `link_fig14`: the full Fig. 14 grid (ACI SIR {−10, −20, −30} dB × P ∈
//! {1, 2, 4, …, 16}, 16-QAM 1/2, 60-byte payloads, default `CpRecycleConfig`)
//! run closed loop through `run_link_campaign` with two engine workers.

use crate::report::{finish_layers, rx_layers, EndToEnd};
use crate::stats::summarize;
use crate::trace::{layer_totals, Tracer};
use crate::{probe, timed_setup, Args, Outcome};
use cprecycle_engine::{CampaignConfig, CampaignResult, RunOptions};
use cprecycle_scenarios::figures::{figure_grid, FigureScale};
use cprecycle_scenarios::link::{replay_link_trial, LinkPoint};
use obs::{Recorder, Span};
use ofdmphy::frame::Transmitter;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups timed per run: one takes ~0.16 s on two workers, short enough
/// that host contention moved a median of 3 by a third between runs.
const SETUP_REPEATS: usize = 9;
const WORKERS: usize = 2;
const PAYLOAD_BYTES: usize = 60;
/// Trials per grid point per second of `--seconds`, sized so one run's
/// campaign takes about `--seconds` on a 2-core x86-64 box.
const TRIALS_PER_POINT_PER_SECOND: f64 = 6.0;
/// How often each engine worker runs a probe quantum between trials.
const PROBE_EVERY: Duration = Duration::from_millis(50);

/// Untraced runs still need each trial's duration: the executor reports it
/// through the recorder whether or not the recorder is enabled, while the
/// receive chain, seeing `enabled() == false`, reads no clock. The report
/// comes on the worker thread after the trial's timing ends, so that is
/// where the host is probed.
#[derive(Default)]
struct TrialClock {
    nanos: Mutex<Vec<u64>>,
    failed: Mutex<u64>,
    probe: Option<probe::Sampler>,
}

impl TrialClock {
    fn with_probe() -> Self {
        TrialClock {
            probe: Some(probe::Sampler::new(PROBE_EVERY)),
            ..Default::default()
        }
    }
}

impl Recorder for TrialClock {
    fn counter(&self, name: &'static str, delta: u64) {
        if name == "trials_failed" {
            *self.failed.lock().expect("trial clock poisoned") += delta;
        }
    }
    fn stage_nanos(&self, span: Span, nanos: u64) {
        if span.stage == "trial" {
            self.nanos.lock().expect("trial clock poisoned").push(nanos);
            if let Some(probe) = &self.probe {
                probe.tick();
            }
        }
    }
}

struct Setup {
    grid: Vec<LinkPoint>,
    capture_len: usize,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let scale = FigureScale {
        packets: 1,
        payload_len: PAYLOAD_BYTES,
        seed,
        coarse: false,
    };
    let grid = figure_grid("fig14", &scale).ok_or("fig14 grid missing")?;
    let point = &grid[0];
    let frame = Transmitter::new(point.params.clone())
        .build_frame(&[0u8; PAYLOAD_BYTES], point.mcs, 1)
        .map_err(|e| e.to_string())?;
    // Warm-up: one trial of every point, on a seed tree the measured
    // campaign never uses.
    let config = CampaignConfig::new("cpbench-warmup", seed ^ 0x5eed_0000_0000_0000)
        .trials(1)
        .threads(WORKERS);
    cprecycle_scenarios::link::run_link_campaign(&config, &grid, &RunOptions::default())
        .map_err(|e| e.to_string())?;
    Ok(Setup {
        grid,
        capture_len: frame.samples.len(),
    })
}

struct Measured {
    result: Result<CampaignResult, String>,
    wall_s: f64,
    cpu_s: f64,
}

fn campaign(seed: u64, trials: usize, grid: &[LinkPoint], rec: &(dyn Recorder + Sync)) -> Measured {
    let config = CampaignConfig::new("cpbench-fig14", seed)
        .trials(trials)
        .threads(WORKERS);
    let options = RunOptions {
        recorder: Some(rec),
        ..Default::default()
    };
    let (t, cpu) = (Instant::now(), crate::process_cpu_s());
    let result = cprecycle_scenarios::link::run_link_campaign(&config, grid, &options)
        .map_err(|e| e.to_string());
    Measured {
        result,
        wall_s: t.elapsed().as_secs_f64(),
        cpu_s: crate::process_cpu_s() - cpu,
    }
}

/// Replays every trial of one seed-chosen point and checks the sum against
/// the campaign's tally of that point.
fn check_replay(out: &mut Outcome, seed: u64, grid: &[LinkPoint], result: &CampaignResult) {
    let mut pick = rand::rngs::StdRng::seed_from_u64(seed ^ 0x7e91a7);
    let idx = pick.gen_range(0..grid.len());
    let point = &grid[idx];
    let Some(tally) = result.points.iter().find(|p| p.label == point.label) else {
        out.check(false, || format!("no tally for point {}", point.label));
        return;
    };
    // Replay on the campaign's worker count, then sum in trial order as the
    // engine does, so the SER sum must match bit for bit.
    let trials: Vec<usize> = (0..tally.trials).collect();
    let replayed: Vec<Vec<_>> = std::thread::scope(|scope| {
        let workers: Vec<_> = trials
            .chunks(tally.trials.div_ceil(WORKERS).max(1))
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&t| replay_link_trial(seed, point, t))
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread panicked"))
            .collect()
    });
    let mut successes = 0usize;
    let mut metric_sum = 0.0f64;
    for (t, record) in replayed.into_iter().flatten().enumerate() {
        match record {
            Ok(record) => {
                successes += record.arms[0].success as usize;
                metric_sum += record.arms[0].metric;
            }
            Err(e) => {
                out.check(false, || {
                    format!("replay of {} trial {t} failed: {e}", point.label)
                });
                return;
            }
        }
    }
    let arm = &tally.arms[0];
    out.check(
        arm.successes == successes && arm.metric_sum.to_bits() == metric_sum.to_bits(),
        || {
            format!(
                "replayed {} ({} trials): {successes} successes, SER sum {metric_sum}; tally says {} and {}",
                point.label, tally.trials, arm.successes, arm.metric_sum
            )
        },
    );
    out.notes.push(format!(
        "replayed all {} trials of '{}': tally matches",
        tally.trials, point.label
    ));
}

fn psr_of(result: &CampaignResult) -> (usize, usize) {
    result
        .points
        .iter()
        .flat_map(|p| &p.arms)
        .fold((0, 0), |(s, n), a| (s + a.successes, n + a.trials))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (setup, setup_s) = timed_setup(SETUP_REPEATS, Some(WORKERS), || setup(args.seed));
    let setup = setup?;
    let grid = &setup.grid;
    let mut out = Outcome::default();
    let per_point =
        |share: f64| ((args.seconds * share * TRIALS_PER_POINT_PER_SECOND).round() as usize).max(1);

    if !args.trace {
        let trials = per_point(1.0);
        let clock = TrialClock::with_probe();
        let m = campaign(args.seed, trials, grid, &clock);
        let result = m.result?;
        check_replay(&mut out, args.seed, grid, &result);
        let (successes, total) = psr_of(&result);
        let probe = clock.probe.as_ref().expect("probed clock");
        let (quanta, probe_s) = probe.spent();
        let cpu_s = m.cpu_s - probe_s;
        let ref_cpu_s = probe::to_reference(cpu_s, probe.quantum_s());
        // Both workers ran quanta of about equal total length.
        let wall_s = m.wall_s - probe_s / WORKERS as f64;
        out.check(total == trials * grid.len(), || {
            format!("{total} trials tallied")
        });
        let failed = *clock.failed.lock().expect("trial clock poisoned");
        out.attempted = total as u64;
        out.failed = failed;
        let lat: Vec<f64> = clock
            .nanos
            .lock()
            .expect("trial clock poisoned")
            .iter()
            .map(|&n| n as f64 / 1e6)
            .collect();
        let lat = summarize(&lat).ok_or("no trial timings")?;
        out.notes.push(format!(
            "{} points x {trials} trials on {WORKERS} workers in {wall_s:.3} s ({cpu_s:.3} CPU-s, {ref_cpu_s:.3} reference CPU-s; {quanta} probe quanta); trial latency p{:.1} of n={}",
            grid.len(),
            lat.tail_pct,
            lat.n
        ));
        let samples = (total * setup.capture_len) as f64;
        EndToEnd {
            setup_s,
            trials: total as f64,
            recovered: successes as f64,
            samples,
            wall_s,
            cpu_s,
            ref_cpu_s,
            // A closed loop sustains exactly the rate it completes.
            sustained_msps: samples / wall_s / 1e6,
            frame_latency_p50_ms: lat.median,
            frame_latency_p99_ms: lat.tail,
            psr: successes as f64 / total.max(1) as f64,
        }
        .emit(&mut out);
        return Ok(out);
    }

    // Traced run: the same half-size campaign untraced, then traced; the wall
    // time difference is the tracing overhead.
    let trials = per_point(0.5);
    let plain = campaign(args.seed, trials, grid, &TrialClock::default());
    let tracer = Tracer::new();
    let traced = campaign(args.seed, trials, grid, &tracer);
    let (plain_result, traced_result) = (plain.result?, traced.result?);
    out.check(
        plain_result.deterministic_view() == traced_result.deterministic_view(),
        || "traced campaign tallies differ from the untraced ones".into(),
    );
    let spans = tracer.take_spans();
    let totals = layer_totals(&spans, &["trial"]);
    out.check(totals.orphans == 0, || {
        format!("{} receive-chain spans outside any trial", totals.orphans)
    });
    let base = totals.root_ns as f64;
    let n_trials = totals.count("trial").max(1) as f64;
    rx_layers(&mut out, &totals, base);
    out.layer(
        "synth.ms_per_trial",
        totals.self_ns("trial") as f64 / n_trials / 1e6,
    );
    out.layer(
        "synth.share",
        totals.self_ns("trial") as f64 / base.max(1.0),
    );
    out.layer(
        "engine.worker_busy_frac",
        base / 1e9 / (traced.wall_s * WORKERS as f64),
    );
    out.layer(
        "engine.trials_failed",
        tracer.counter_value("trials_failed") as f64,
    );
    out.layer("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0);
    out.layer("trace.spans", spans.len() as f64);
    let (_, total) = psr_of(&traced_result);
    out.attempted = 2 * total as u64;
    out.failed = tracer.counter_value("trials_failed");
    out.notes.push(format!(
        "untraced {:.3} s, traced {:.3} s for {} trials; receive chain has no decode-call span here, so its unspanned time counts as synth",
        plain.wall_s, traced.wall_s, total
    ));
    crate::report::dump_spans(&mut out, "link_fig14", args.seed, &spans);
    finish_layers(&mut out);
    Ok(out)
}
