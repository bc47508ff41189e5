//! Kernel-density-estimation cost: training (bandwidth selection) and evaluation of the
//! bivariate product kernel, as a function of the number of preamble samples
//! (`P × N_p`) — the `O(P · N_p · f)` term in the paper's complexity discussion (§6).
//!
//! `train_loo` is the production leave-one-out search (one lane-parallel pass over
//! the sample pairs for all nine candidate bandwidths); `train_loo_reference` times
//! the scalar `kde::reference` search it replaced on the same two axes. n = 192 is
//! a Rolling model at P = 16, N_p = 12.
//!
//! `cargo bench -p cprecycle-bench --bench kde -- --json <path>` appends one JSON
//! Lines record per benchmark (CI uploads it as `BENCH_kde.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rfdsp::kde::{reference, BandwidthSelector, ProductKde2d};

fn samples(n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            (0.3 * (x * 12.7).sin().abs(), 3.0 * (x * 5.1).cos())
        })
        .collect()
}

fn bench_kde(c: &mut Criterion) {
    let mut group = c.benchmark_group("kde");
    group.sample_size(30);
    for n in [16usize, 32, 80, 192] {
        let s = samples(n);
        group.bench_with_input(BenchmarkId::new("train_loo", n), &s, |b, s| {
            b.iter(|| ProductKde2d::new(s, BandwidthSelector::LeaveOneOut).unwrap());
        });
        let amps: Vec<f64> = s.iter().map(|x| x.0).collect();
        let phases: Vec<f64> = s.iter().map(|x| x.1).collect();
        group.bench_with_input(
            BenchmarkId::new("train_loo_reference", n),
            &(amps, phases),
            |b, (amps, phases)| {
                b.iter(|| {
                    (
                        reference::select_loo_bandwidth(amps).unwrap(),
                        reference::select_loo_bandwidth(phases).unwrap(),
                    )
                });
            },
        );
        let kde = ProductKde2d::new(&s, BandwidthSelector::Silverman).unwrap();
        group.bench_with_input(BenchmarkId::new("eval", n), &kde, |b, kde| {
            b.iter(|| kde.log_eval(0.21, -0.4));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kde);
criterion_main!(benches);
