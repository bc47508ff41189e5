//! `cpbench`: the repository benchmark (see `BENCHMARK.json` and `NOTES.md`).
//!
//! ```text
//! cargo run --release --manifest-path cpbench/Cargo.toml -- \
//!     --workload <link_fig14|stream_rolling|server_std> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run checks the program's outputs, prints a table of every metric on
//! standard output and ends with one JSON line: the gated end-to-end metrics
//! with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`. A
//! failed output check still prints the line (`"correct": false`) and exits 1.

#![forbid(unsafe_code)]

mod link;
mod probe;
mod report;
mod server;
mod stats;
mod stream;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Output checks that failed; empty means correct.
    pub check_failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Metrics printed in the table but left out of the result line: too
    /// noisy on a shared host to gate on (see NOTES.md).
    pub table_only: Vec<Metric>,
    /// Human-readable detail printed above the metric table.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Sets per-layer metric `name` of a traced run; its unit is filled in
    /// from `BENCHMARK.json` by [`report::finish_layers`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.metric(name, value, "");
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User + system CPU seconds from a `/proc` stat line (ticks of 10 ms).
fn stat_cpu_s(stat: &str) -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |x| x.1)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// CPU seconds this process has run so far, exited threads included. The
/// kernel leaves out time the host stole from the vCPU, which is what makes
/// per-core figures steadier than wall-clock ones on a shared host.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s(&std::fs::read_to_string("/proc/self/stat").unwrap_or_default())
}

/// CPU seconds run so far by this process's live threads whose name starts
/// with `prefix`.
pub fn threads_cpu_s(prefix: &str) -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with(prefix))
        })
        .map(|t| stat_cpu_s(&std::fs::read_to_string(t.path().join("stat")).unwrap_or_default()))
        .sum()
}

/// Runs `setup` `repeats` times and keeps the last result; the reported
/// set-up time is the median of the repeats, so that a burst of host
/// contention during one of them does not show. With `probe_threads`, each
/// repeat's time is converted to reference seconds by a probe on that many
/// threads just before it (see [`probe`]).
pub fn timed_setup<T>(
    repeats: usize,
    probe_threads: Option<usize>,
    mut setup: impl FnMut() -> T,
) -> (T, f64) {
    const PROBE_QUANTA: usize = 20;
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let quantum_s = probe_threads.map(|t| probe::on_threads(t, PROBE_QUANTA));
        let t = Instant::now();
        last = Some(setup());
        let secs = t.elapsed().as_secs_f64();
        times.push(quantum_s.map_or(secs, |q| probe::to_reference(secs, q)));
    }
    (last.expect("at least one setup"), stats::median(&times))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cpbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = stats::self_test().and_then(|()| trace::self_test()) {
        eprintln!("cpbench: self-test of the benchmark's arithmetic failed: {e}");
        return ExitCode::from(1);
    }
    let outcome = match args.workload.as_str() {
        "link_fig14" => link::run(&args),
        "stream_rolling" => stream::run(&args),
        "server_std" => server::run(&args),
        other => {
            eprintln!("cpbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cpbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            outcome
                .check_failures
                .push(format!("metric {} is not finite", m.name));
        }
    }
    let correct = outcome.check_failures.is_empty();

    println!(
        "# cpbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &outcome.notes {
        println!("#   {note}");
    }
    for failure in &outcome.check_failures {
        println!("# OUTPUT CHECK FAILED: {failure}");
    }
    let error_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("{:<32} {:>16} fraction", "error_frac", error_frac);
    for m in &outcome.metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.table_only {
        println!("{:<32} {:>16.6} {} (not gated)", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
