//! The metric sets every run reports. Each workload fills what it measures;
//! a layer a workload never enters reports 0 (e.g. `rx.model_update.*` on
//! link_fig14, whose per-frame models are never updated).

use crate::trace::LayerTotals;
use crate::{Metric, Outcome};

/// End-to-end metrics (untraced run). Definitions per workload are in NOTES.md.
/// Gated: `setup_s`, the per-core rates (goodput: frames recovered per
/// reference CPU-second, see [`crate::probe`]), `psr` and `peak_rss_mb`; the
/// wall-clock rates and latencies are printed but not gated, because host
/// contention moves them more than any allowed bound.
pub struct EndToEnd {
    pub setup_s: f64,
    /// Units of work (trials, or frames) and samples the measured phase
    /// completed, the frames recovered among them, its wall time and the CPU
    /// time of the threads doing it.
    pub trials: f64,
    pub recovered: f64,
    pub samples: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// `cpu_s` in reference CPU seconds.
    pub ref_cpu_s: f64,
    pub sustained_msps: f64,
    pub frame_latency_p50_ms: f64,
    pub frame_latency_p99_ms: f64,
    pub psr: f64,
}

impl EndToEnd {
    pub fn emit(&self, out: &mut Outcome) {
        out.metric("setup_s", self.setup_s, "s");
        out.metric(
            "goodput_per_core_s",
            self.recovered / self.ref_cpu_s,
            "frames/cpu-s",
        );
        out.metric(
            "msps_per_core",
            self.samples / self.ref_cpu_s / 1e6,
            "Msamples/cpu-s",
        );
        out.metric("psr", self.psr, "fraction");
        out.metric("peak_rss_mb", crate::peak_rss_mib(), "MiB");
        let wall_msps = self.samples / self.wall_s / 1e6;
        for (name, value, unit) in [
            ("host.slowdown", self.cpu_s / self.ref_cpu_s, "x"),
            (
                "msps_per_unprobed_core",
                self.samples / self.cpu_s / 1e6,
                "Msamples/cpu-s",
            ),
            ("trials_per_s", self.trials / self.wall_s, "trials/s"),
            ("stream_msps", wall_msps, "Msamples/s"),
            ("sustained_msps", self.sustained_msps, "Msamples/s"),
            ("frame_latency_p50_ms", self.frame_latency_p50_ms, "ms"),
            ("frame_latency_p99_ms", self.frame_latency_p99_ms, "ms"),
        ] {
            out.table_only.push(Metric { name, value, unit });
        }
    }
}

/// `BENCHMARK.json`, whose `per_layer` list names every per-layer metric and
/// its unit.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// (name, unit) of every per-layer metric, in `BENCHMARK.json`'s order.
pub fn per_layer_list() -> Vec<(&'static str, &'static str)> {
    let list = BENCHMARK_JSON
        .split_once("\"per_layer\"")
        .and_then(|x| x.1.split_once(']'))
        .map_or("", |x| x.0);
    // The value of `"key": "value"` inside one `{...}` entry.
    let field = |entry: &'static str, key: &str| -> Option<&'static str> {
        let rest = entry.split_once(&format!("\"{key}\""))?.1;
        Some(rest.split_once('"')?.1.split_once('"')?.0)
    };
    list.split('{')
        .skip(1)
        .filter_map(|e| Some((field(e, "name")?, field(e, "unit")?)))
        .collect()
}

/// Sets the receive-chain stage figures from span totals; shares are of
/// `base_ns`, the traced run's time.
pub fn rx_layers(out: &mut Outcome, t: &LayerTotals, base_ns: f64) {
    let frames = t.count("sync").max(1) as f64;
    let per = |name: &str, count: f64, scale: f64| t.self_ns(name) as f64 / count.max(1.0) / scale;
    let share = |name: &str| t.self_ns(name) as f64 / base_ns.max(1.0);
    out.layer(
        "rx.model_train.ms_per_frame",
        per("model_train", frames, 1e6),
    );
    out.layer("rx.model_train.share", share("model_train"));
    out.layer(
        "rx.model_update.ms_per_frame",
        per("model_update", frames, 1e6),
    );
    out.layer("rx.model_update.share", share("model_update"));
    out.layer(
        "rx.extract.us_per_symbol",
        per("extract", t.count("extract") as f64, 1e3),
    );
    out.layer("rx.extract.share", share("extract"));
    out.layer(
        "rx.decide.us_per_symbol",
        per("decide", t.count("decide") as f64, 1e3),
    );
    out.layer("rx.decide.share", share("decide"));
    out.layer("rx.sync.us_per_frame", per("sync", frames, 1e3));
    out.layer("rx.sync.share", share("sync"));
    out.layer("rx.bits.us_per_frame", per("bits", frames, 1e3));
    out.layer("rx.bits.share", share("bits"));
}

/// Completes a traced run's per-layer metrics: gives each the unit
/// `BENCHMARK.json` lists, reports 0 for layers the workload never enters
/// (e.g. `rx.model_update.*` on link_fig14), adds `trace.share_sum` and
/// checks that the `.share` metrics partition the traced run's time.
pub fn finish_layers(out: &mut Outcome) {
    let list = per_layer_list();
    let set = std::mem::take(&mut out.metrics);
    for m in &set {
        let listed = list.iter().any(|l| l.0 == m.name);
        out.check(listed, || {
            format!(
                "per-layer metric {} is not listed in BENCHMARK.json",
                m.name
            )
        });
    }
    let sum: f64 = set
        .iter()
        .filter(|m| m.name.ends_with(".share"))
        .map(|m| m.value)
        .sum();
    out.check((sum - 1.0).abs() < 1e-3, || {
        format!("per-layer shares sum to {sum}, not to the traced run's time")
    });
    let value = |name: &str| match name {
        "trace.share_sum" => sum,
        _ => set.iter().find(|m| m.name == name).map_or(0.0, |m| m.value),
    };
    out.metrics = list
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: value(name),
            unit,
        })
        .collect();
}

/// Writes the traced run's spans next to the build output, named after the
/// workload and seed, and notes where they went.
pub fn dump_spans(out: &mut Outcome, workload: &str, seed: u64, spans: &[crate::trace::SpanRec]) {
    let path = std::path::PathBuf::from(format!("cpbench/out/{workload}-seed{seed}.spans.jsonl"));
    match crate::trace::write_spans(&path, spans) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let list = super::per_layer_list();
        assert!(list.contains(&("trace.share_sum", "fraction")));
        assert!(list.contains(&("rx.decide.us_per_symbol", "us")));
        let mut names: Vec<_> = list.iter().map(|l| l.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), list.len(), "names repeat");
        let listed = super::BENCHMARK_JSON.split("\"per_layer\"").nth(1).unwrap();
        assert_eq!(list.len(), listed.matches("\"unit\"").count());
    }
}
