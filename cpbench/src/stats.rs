//! The benchmark's own arithmetic: the percentile rule, the backlog-growth
//! detector and the choice of the ladder's sustained rate. `self_test` checks
//! each on synthetic inputs at the start of every run.

/// The tail percentile reported next to every median: p99, or — when fewer than
/// 1000 samples exist — the highest percentile that still has at least
/// `MIN_BEYOND` samples beyond it (never below the median).
pub const MIN_BEYOND: usize = 10;

/// A timing distribution reduced to the figures the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// The percentile `tail` is taken at, in percent.
    pub tail_pct: f64,
    pub tail: f64,
}

/// Nearest-rank value at quantile `q` of sorted, non-empty `sorted`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The quantile the tail figure is taken at for `n` samples.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - MIN_BEYOND as f64 / n as f64).clamp(0.5, 0.99)
}

/// Median and tail of `values` (order irrelevant); `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = tail_quantile(sorted.len());
    Some(Summary {
        n: sorted.len(),
        median: quantile_sorted(&sorted, 0.5),
        tail_pct: 100.0 * q,
        tail: quantile_sorted(&sorted, q),
    })
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

/// Whether a backlog series `(seconds, chunks)` grows over a rung: the
/// least-squares slope, extrapolated over the series' span, exceeds
/// `max(floor, frac × rung_chunks)`. A served rung's backlog wanders around a
/// small level; an overloaded one climbs steadily.
pub fn backlog_grows(series: &[(f64, f64)], rung_chunks: usize) -> bool {
    const FLOOR_CHUNKS: f64 = 64.0;
    const FRAC_OF_RUNG: f64 = 0.01;
    if series.len() < 3 {
        return false;
    }
    let n = series.len() as f64;
    let mt = series.iter().map(|p| p.0).sum::<f64>() / n;
    let mb = series.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = series.iter().map(|p| (p.0 - mt).powi(2)).sum();
    if sxx <= 0.0 {
        return false;
    }
    let sxy: f64 = series.iter().map(|p| (p.0 - mt) * (p.1 - mb)).sum();
    let span = series.last().expect("non-empty").0 - series[0].0;
    let growth = sxy / sxx * span;
    growth > FLOOR_CHUNKS.max(FRAC_OF_RUNG * rung_chunks as f64)
}

/// Outcome of one rung of the offered-rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungVerdict {
    pub rate_msps: f64,
    /// Tail frame latency with failed frames counted as misses (ms).
    pub latency_tail_ms: f64,
    pub backlog_grows: bool,
    pub errors: u64,
}

impl RungVerdict {
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.latency_tail_ms <= limit_ms && !self.backlog_grows && self.errors == 0
    }
}

/// The highest ladder rate whose rung, and every lower rung, passes; 0 when
/// the lowest rung already fails. A pass above a failed rung is noise, not
/// capacity.
pub fn sustained_rate(rungs: &[RungVerdict], limit_ms: f64) -> f64 {
    let mut sorted = rungs.to_vec();
    sorted.sort_by(|a, b| a.rate_msps.total_cmp(&b.rate_msps));
    let mut best = 0.0;
    for rung in &sorted {
        if !rung.passes(limit_ms) {
            break;
        }
        best = rung.rate_msps;
    }
    best
}

/// Log-linear histogram of nanosecond durations (64 sub-buckets per power of
/// two, ≤ 1.6% relative error) for events too frequent to keep one by one.
pub struct LogHist {
    buckets: Vec<u64>,
    n: u64,
    sum_ns: u64,
}

impl LogHist {
    const EXACT: u64 = 128;

    pub fn new() -> Self {
        LogHist {
            buckets: vec![0; 128 + 57 * 64],
            n: 0,
            sum_ns: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < Self::EXACT {
            return ns as usize;
        }
        let mag = 63 - ns.leading_zeros() as usize;
        128 + (mag - 7) * 64 + ((ns >> (mag - 6)) & 63) as usize
    }

    /// Midpoint of bucket `idx`.
    fn value(idx: usize) -> f64 {
        if (idx as u64) < Self::EXACT {
            return idx as f64;
        }
        let mag = (idx - 128) / 64 + 7;
        let sub = ((idx - 128) % 64) as u64;
        let lo = (1u64 << mag) | (sub << (mag - 6));
        lo as f64 + (1u64 << (mag - 6)) as f64 / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.n += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Nearest-rank quantile in nanoseconds; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(idx);
            }
        }
        Self::value(self.buckets.len() - 1)
    }
}

/// Checks the arithmetic above on synthetic inputs.
pub fn self_test() -> Result<(), String> {
    let check = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };

    // Log histogram: exact below 128 ns, within 1.6% above.
    let mut h = LogHist::new();
    for ns in 1..=1000u64 {
        h.record(ns * 1000);
    }
    let p99 = h.quantile(0.99);
    check(
        (p99 - 990_000.0).abs() / 990_000.0 < 0.016,
        "log histogram p99",
    )?;
    check(
        h.count() == 1000 && h.sum_ns() == 500_500_000,
        "log histogram totals",
    )?;
    let mut h = LogHist::new();
    h.record(7);
    h.record(u64::MAX);
    check(
        h.quantile(0.5) == 7.0 && h.quantile(1.0) > 1e19,
        "log histogram extremes",
    )?;

    // Percentile rule: p99 needs 1000 samples; fewer fall back to 1 − 10/n.
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    let s = summarize(&thousand).expect("non-empty");
    check(s.tail_pct == 99.0 && s.tail == 990.0, "p99 of 1..=1000")?;
    check(s.median == 500.0 && s.n == 1000, "median of 1..=1000")?;
    let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let s = summarize(&hundred).expect("non-empty");
    check(s.tail_pct == 90.0 && s.tail == 90.0, "p90 of 100 samples")?;
    check(
        100 - s.tail as usize >= MIN_BEYOND,
        "10 samples beyond the tail",
    )?;
    let few: Vec<f64> = (1..=12).map(f64::from).collect();
    let s = summarize(&few).expect("non-empty");
    check(
        s.tail_pct == 50.0 && s.tail == s.median,
        "tail floors at the median",
    )?;
    check(summarize(&[]).is_none(), "empty summary")?;

    // Backlog detector: a flat noisy series is served, a ramp is not.
    let flat: Vec<(f64, f64)> = (0..200)
        .map(|i| (i as f64 * 0.01, 20.0 + ((i * 7) % 13) as f64))
        .collect();
    check(!backlog_grows(&flat, 10_000), "flat backlog is served")?;
    let ramp: Vec<(f64, f64)> = (0..200)
        .map(|i| (i as f64 * 0.01, 5.0 + 50.0 * i as f64))
        .collect();
    check(backlog_grows(&ramp, 10_000), "ramping backlog grows")?;
    let small_ramp: Vec<(f64, f64)> = (0..200)
        .map(|i| (i as f64 * 0.01, i as f64 / 10.0))
        .collect();
    check(
        !backlog_grows(&small_ramp, 10_000),
        "20-chunk drift is below the floor",
    )?;
    let big_rung_ramp: Vec<(f64, f64)> = (0..200).map(|i| (i as f64 * 0.01, i as f64)).collect();
    check(
        !backlog_grows(&big_rung_ramp, 100_000),
        "floor scales with the rung",
    )?;

    // Ladder: highest passing rate below the first failure.
    let rung = |rate: f64, lat: f64, grows: bool, errors: u64| RungVerdict {
        rate_msps: rate,
        latency_tail_ms: lat,
        backlog_grows: grows,
        errors,
    };
    let ladder = [
        rung(4.0, 3.0, false, 0),
        rung(2.0, 1.0, false, 0),
        rung(3.0, 2.0, false, 0),
        rung(5.0, 25.0, false, 0),
        rung(6.0, 4.0, false, 0),
    ];
    check(
        sustained_rate(&ladder, 20.0) == 4.0,
        "latency limit stops the ladder",
    )?;
    let ladder = [rung(2.0, 1.0, false, 0), rung(3.0, 1.0, true, 0)];
    check(
        sustained_rate(&ladder, 20.0) == 2.0,
        "backlog growth stops the ladder",
    )?;
    let ladder = [rung(2.0, 1.0, false, 1), rung(3.0, 1.0, false, 0)];
    check(
        sustained_rate(&ladder, 20.0) == 0.0,
        "an error fails the rung",
    )?;
    let ladder = [rung(2.0, 1.0, false, 0), rung(3.0, 20.0, false, 0)];
    check(
        sustained_rate(&ladder, 20.0) == 3.0,
        "the limit itself passes",
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn arithmetic_self_test_passes() {
        super::self_test().unwrap();
    }
}
