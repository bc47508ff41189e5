//! CI trajectory gate for the `throughput` and `server` benches: compares a fresh
//! JSON-Lines bench file against the committed baseline, both normalised by the
//! named cell of their own run, and exits with code 1 on a regression (see
//! [`cprecycle_bench::gate`] for the record shapes and failure rules).
//!
//! ```text
//! check_bench <current.json> <baseline.json> --norm <cell> --tolerance <t>
//! check_bench BENCH_throughput.json BENCH_throughput.baseline.json --norm standard --tolerance 0.15
//! check_bench BENCH_server.json BENCH_server.baseline.json --norm std/s1xt1/480 --tolerance 0.25
//! ```

use cprecycle_bench::gate::{check, BenchFile};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut files = Vec::new();
    let mut norm = None;
    let mut tolerance = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--norm" => norm = args.next(),
            "--tolerance" => tolerance = args.next().and_then(|t| t.parse::<f64>().ok()),
            _ => files.push(arg),
        }
    }
    let (Some(norm), Some(tolerance), [current, baseline]) = (norm, tolerance, &files[..]) else {
        eprintln!(
            "usage: check_bench <current.json> <baseline.json> --norm <cell> --tolerance <t>"
        );
        return ExitCode::FAILURE;
    };

    let (current, baseline) = match (BenchFile::load(current), BenchFile::load(baseline)) {
        (Ok(c), Ok(b)) => (c, b),
        (c, b) => {
            for err in [c.err(), b.err()].into_iter().flatten() {
                eprintln!("error: {err}");
            }
            return ExitCode::FAILURE;
        }
    };
    let verdict = check(&current, &baseline, &norm, tolerance);
    for line in &verdict.lines {
        println!("{line}");
    }
    if verdict.passed {
        println!("bench gate passed");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench gate failed (tolerance {tolerance}) — investigate, or refresh the baseline deliberately"
        );
        ExitCode::FAILURE
    }
}
