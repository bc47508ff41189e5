//! The CI trajectory gate over the benches' JSON-Lines output (the logic behind the
//! `check_bench` binary): compares a fresh run against a committed baseline and
//! fails when any cell regresses by more than the tolerance.
//!
//! Two record shapes are read, so one gate serves both gated benches:
//!
//! * `throughput` records, `{"config": …, "msps_per_core": …}`, give one cell per
//!   receiver configuration (records without `msps_per_core`, such as the `--test`
//!   smoke marker, are skipped);
//! * `server` records, `{"id": …, "mode": …}`, where a `measured` record's
//!   `median_ns` joined with the same id's `samples` record's `samples_per_iter`
//!   gives the cell's aggregate Msps, and `latency` records carry the push→decode
//!   `p50_ns`/`p95_ns`/`p99_ns`. Other modes (the `test` marker) are skipped.
//!
//! Every cell is **normalised by a named cell of the same run** before comparison
//! (`standard` for throughput, `std/s1xt1/480` for the server): CI runners vary in
//! raw speed run to run, but the shape of a run (CPRecycle's cost against the
//! standard receiver, 64 sessions against one) is hardware-independent enough to
//! gate. The gate fails when
//!
//! * either run lacks a positive normaliser cell,
//! * a baseline cell is missing from the current run, or
//! * a cell's normalised figure is below `baseline · (1 − tolerance)`.
//!
//! A cell only the current run has is reported and passes. When the baseline has
//! latency records, the current run must have at least one, each with
//! `0 < p50 ≤ p95 ≤ p99`; the percentiles themselves are not gated (push→decode
//! latency under a saturating feeder measures queue depth, not server quality).

use std::collections::BTreeMap;

/// One bench run, reduced to what the gate compares.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchFile {
    /// Cell id → Msps (per core for throughput records, aggregate for server ones).
    pub msps: BTreeMap<String, f64>,
    /// Latency record id → `(p50, p95, p99)` in ns.
    pub latency: BTreeMap<String, (f64, f64, f64)>,
}

impl BenchFile {
    /// Parses JSON-Lines bench output; `origin` names the input in error messages.
    pub fn parse(text: &str, origin: &str) -> Result<BenchFile, String> {
        let mut file = BenchFile::default();
        let mut median_ns: BTreeMap<String, f64> = BTreeMap::new();
        let mut samples: BTreeMap<String, f64> = BTreeMap::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let value = cpjson::Value::parse(line)
                .map_err(|e| format!("{origin}: bad JSON line {line:?}: {e}"))?;
            let num = |id: &str, key: &str| -> Result<f64, String> {
                value
                    .field_as(key)
                    .map_err(|e| format!("{origin}: {id}: bad {key}: {e}"))
            };
            if value.get("config").is_some() {
                let config: String = value
                    .field_as("config")
                    .map_err(|e| format!("{origin}: bad config: {e}"))?;
                if value.get("msps_per_core").is_some() {
                    let msps = num(&config, "msps_per_core")?;
                    file.msps.insert(config, msps);
                }
                continue;
            }
            let id: String = value
                .field_as("id")
                .map_err(|e| format!("{origin}: record without config or id: {e}"))?;
            let mode: String = value
                .field_as("mode")
                .map_err(|e| format!("{origin}: record without mode: {e}"))?;
            match mode.as_str() {
                "measured" => {
                    let v = num(&id, "median_ns")?;
                    median_ns.insert(id, v);
                }
                "samples" => {
                    let v = num(&id, "samples_per_iter")?;
                    samples.insert(id, v);
                }
                "latency" => {
                    let v = (
                        num(&id, "p50_ns")?,
                        num(&id, "p95_ns")?,
                        num(&id, "p99_ns")?,
                    );
                    file.latency.insert(id, v);
                }
                _ => {}
            }
        }
        for (id, ns) in median_ns {
            if let Some(n) = samples.get(&id) {
                if ns > 0.0 {
                    file.msps.insert(id, n / ns * 1000.0);
                }
            }
        }
        if file.msps.is_empty() {
            return Err(format!(
                "{origin}: no cells (need msps_per_core records, or matching \
                 measured + samples records)"
            ));
        }
        Ok(file)
    }

    /// Reads and parses a JSON-Lines bench file.
    pub fn load(path: &str) -> Result<BenchFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        BenchFile::parse(&text, path)
    }

    fn normaliser(&self, norm: &str, which: &str) -> Result<f64, String> {
        self.msps
            .get(norm)
            .copied()
            .filter(|m| *m > 0.0)
            .ok_or_else(|| format!("{which} run has no positive {norm:?} cell to normalise by"))
    }
}

/// The gate's verdict and its human-readable report, one line per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Whether the current run passes.
    pub passed: bool,
    /// Report lines, in the order they were checked.
    pub lines: Vec<String>,
}

/// Compares `current` against `baseline`, both normalised by their `norm` cell.
pub fn check(current: &BenchFile, baseline: &BenchFile, norm: &str, tolerance: f64) -> Verdict {
    let mut lines = vec![format!(
        "bench gate (relative to {norm}, tolerance {:.0}%):",
        tolerance * 100.0
    )];
    let (cur_norm, base_norm) = match (
        current.normaliser(norm, "current"),
        baseline.normaliser(norm, "baseline"),
    ) {
        (Ok(c), Ok(b)) => (c, b),
        (c, b) => {
            lines.extend([c.err(), b.err()].into_iter().flatten());
            return Verdict {
                passed: false,
                lines,
            };
        }
    };

    let mut passed = true;
    for (cell, &base_msps) in &baseline.msps {
        let base = base_msps / base_norm;
        let Some(&cur_msps) = current.msps.get(cell) else {
            lines.push(format!(
                "  {cell}: MISSING from current run (baseline {base:.4})"
            ));
            passed = false;
            continue;
        };
        let cur = cur_msps / cur_norm;
        let ok = cur >= base * (1.0 - tolerance);
        passed &= ok;
        lines.push(format!(
            "  {cell}: baseline {base:.4}  current {cur:.4}  ({:+.1}%)  {}",
            (cur / base - 1.0) * 100.0,
            if ok { "ok" } else { "REGRESSED" }
        ));
    }
    for cell in current
        .msps
        .keys()
        .filter(|c| !baseline.msps.contains_key(*c))
    {
        lines.push(format!(
            "  {cell}: new cell (no baseline) — record it on the next baseline refresh"
        ));
    }

    if !baseline.latency.is_empty() {
        if current.latency.is_empty() {
            lines.push("  latency: NO latency records in current run".into());
            passed = false;
        }
        for (id, &(p50, p95, p99)) in &current.latency {
            if p50 > 0.0 && p50 <= p95 && p95 <= p99 {
                lines.push(format!(
                    "  {id}: p50={p50:.0}ns p95={p95:.0}ns p99={p99:.0}ns ok"
                ));
            } else {
                lines.push(format!(
                    "  {id}: malformed percentiles p50={p50} p95={p95} p99={p99}"
                ));
                passed = false;
            }
        }
    }
    Verdict { passed, lines }
}

#[cfg(test)]
mod tests {
    use super::*;

    const THROUGHPUT: &str = r#"{"config":"standard","msps_per_core":10.0,"ns_per_sample":100.0}
{"config":"cprecycle_p4_exact","msps_per_core":1.0,"ns_per_sample":1000.0}
{"config":"cprecycle_p8_exact","msps_per_core":0.5,"ns_per_sample":2000.0}
"#;

    const SERVER: &str = r#"{"group":"server","id":"std/s1xt1/480","mode":"measured","median_ns":1000000.0}
{"group":"server","id":"std/s1xt1/480","mode":"samples","samples_per_iter":10000}
{"group":"server","id":"std/s64xt1/480","mode":"measured","median_ns":2000000.0}
{"group":"server","id":"std/s64xt1/480","mode":"samples","samples_per_iter":40000}
{"group":"server","id":"latency/std/s1xt1","mode":"latency","p50_ns":500,"p95_ns":1000,"p99_ns":1000}
"#;

    fn file(text: &str) -> BenchFile {
        BenchFile::parse(text, "fixture").unwrap()
    }

    fn gate(current: &str, baseline: &str, norm: &str, tolerance: f64) -> bool {
        check(&file(current), &file(baseline), norm, tolerance).passed
    }

    #[test]
    fn both_record_shapes_parse_into_cells() {
        let t = file(THROUGHPUT);
        assert_eq!(t.msps["cprecycle_p4_exact"], 1.0);
        assert!(t.latency.is_empty());
        let s = file(SERVER);
        assert_eq!(s.msps["std/s1xt1/480"], 10.0);
        assert_eq!(s.msps["std/s64xt1/480"], 20.0);
        assert_eq!(s.latency["latency/std/s1xt1"], (500.0, 1000.0, 1000.0));
        // Smoke markers carry no figure; a file of nothing else has no cells.
        let markers = "{\"config\":\"throughput\",\"mode\":\"test\"}\n\
                       {\"group\":\"server\",\"id\":\"std/s1xt1/480\",\"mode\":\"test\"}";
        assert!(BenchFile::parse(markers, "fixture").is_err());
        assert!(BenchFile::parse("{\"mode\":\"measured\"}", "fixture").is_err());
    }

    #[test]
    fn baseline_against_itself_passes() {
        assert!(gate(THROUGHPUT, THROUGHPUT, "standard", 0.15));
        assert!(gate(SERVER, SERVER, "std/s1xt1/480", 0.25));
    }

    #[test]
    fn committed_baselines_pass_against_themselves() {
        let throughput = include_str!("../../../BENCH_throughput.baseline.json");
        let server = include_str!("../../../BENCH_server.baseline.json");
        assert!(gate(throughput, throughput, "standard", 0.15));
        assert!(gate(server, server, "std/s1xt1/480", 0.25));
    }

    #[test]
    fn cell_down_16_percent_fails_at_15_percent() {
        let slower = THROUGHPUT.replace("\"msps_per_core\":1.0,", "\"msps_per_core\":0.84,");
        assert!(!gate(&slower, THROUGHPUT, "standard", 0.15));
        let within = THROUGHPUT.replace("\"msps_per_core\":1.0,", "\"msps_per_core\":0.86,");
        assert!(gate(&within, THROUGHPUT, "standard", 0.15));
    }

    #[test]
    fn cell_down_26_percent_fails_at_25_percent() {
        // 40000 samples in 2 ms / 0.74: the cell's Msps drops 26%.
        let slower = SERVER.replace("\"median_ns\":2000000.0", "\"median_ns\":2702702.7");
        assert!(!gate(&slower, SERVER, "std/s1xt1/480", 0.25));
        let within = SERVER.replace("\"median_ns\":2000000.0", "\"median_ns\":2631578.9");
        assert!(gate(&within, SERVER, "std/s1xt1/480", 0.25));
    }

    #[test]
    fn missing_cell_fails() {
        let missing: String = THROUGHPUT
            .lines()
            .filter(|l| !l.contains("cprecycle_p8_exact"))
            .map(|l| format!("{l}\n"))
            .collect();
        let verdict = check(&file(&missing), &file(THROUGHPUT), "standard", 0.15);
        assert!(!verdict.passed);
        assert!(verdict.lines.iter().any(|l| l.contains("MISSING")));
    }

    #[test]
    fn missing_or_non_positive_normaliser_fails() {
        let renamed = THROUGHPUT.replace("\"standard\"", "\"std\"");
        assert!(!gate(&renamed, THROUGHPUT, "standard", 0.15));
        assert!(!gate(THROUGHPUT, &renamed, "standard", 0.15));
        let zero = THROUGHPUT.replace("\"msps_per_core\":10.0", "\"msps_per_core\":0.0");
        assert!(!gate(&zero, THROUGHPUT, "standard", 0.15));
    }

    #[test]
    fn no_latency_records_fails() {
        let no_latency: String = SERVER
            .lines()
            .filter(|l| !l.contains("\"latency\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(!gate(&no_latency, SERVER, "std/s1xt1/480", 0.25));
        // Latency is only required when the baseline carries it.
        assert!(gate(&no_latency, &no_latency, "std/s1xt1/480", 0.25));
    }

    #[test]
    fn disordered_percentiles_fail() {
        let bad = SERVER.replace("\"p95_ns\":1000,", "\"p95_ns\":2000,");
        assert!(!gate(&bad, SERVER, "std/s1xt1/480", 0.25));
        let zero = SERVER.replace("\"p50_ns\":500,", "\"p50_ns\":0,");
        assert!(!gate(&zero, SERVER, "std/s1xt1/480", 0.25));
    }

    #[test]
    fn new_cell_passes_with_a_note() {
        let extra =
            format!("{THROUGHPUT}{{\"config\":\"cprecycle_p16_exact\",\"msps_per_core\":0.1}}\n");
        let verdict = check(&file(&extra), &file(THROUGHPUT), "standard", 0.15);
        assert!(verdict.passed);
        assert!(verdict.lines.iter().any(|l| l.contains("new cell")));
    }
}
