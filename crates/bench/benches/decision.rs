//! Decision-stage cost: every `SubcarrierDecoder` (sphere ML, naive, Oracle,
//! standard-window) decoding one full symbol (48 data subcarriers) across
//! Modulation × `P` — the scaling the paper's §6 discusses and the justification for
//! the fixed sphere.
//!
//! `sphere_alloc` is the pre-refactor sphere path (`cprecycle::sphere_ml::reference`:
//! per-call candidate `Vec` cloning `(Complex, Vec<u8>)` pairs out of
//! `Modulation::constellation()`), kept as the before/after baseline for the
//! allocation-free trait port; the measured speedups are recorded in the README
//! "Performance" table.

use cprecycle::decision::{
    DecoderScratch, NaiveCentroidDecoder, OracleSegmentDecoder, StandardNearestDecoder,
    SubcarrierDecoder,
};
use cprecycle::interference_model::InterferenceModel;
use cprecycle::segments::{SegmentPowers, SymbolSegments};
use cprecycle::sphere_ml::reference;
use cprecycle::{CpRecycleConfig, FixedSphereMlDecoder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ofdmphy::modulation::Modulation;
use ofdmphy::ofdm::OfdmEngine;
use ofdmphy::params::OfdmParams;
use rand::{Rng, SeedableRng};
use rfdsp::Complex;

const RADIUS: f64 = 2.0;

/// Trains an interference model on synthetic preamble segments covering every
/// occupied bin (moderate per-segment interference, like a busy ACI capture).
fn trained_model(engine: &OfdmEngine, num_segments: usize) -> InterferenceModel {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let reference: Vec<Complex> = (0..64)
        .map(|bin| {
            if engine.params().occupied_bins().contains(&bin) {
                Complex::new(1.0, 0.0)
            } else {
                Complex::zero()
            }
        })
        .collect();
    let rows: Vec<Vec<Complex>> = (0..num_segments)
        .map(|_| {
            reference
                .iter()
                .map(|r| {
                    if r.norm_sqr() == 0.0 {
                        Complex::zero()
                    } else {
                        *r + Complex::from_polar(rng.gen_range(0.0..0.5), rng.gen_range(-3.1..3.1))
                    }
                })
                .collect()
        })
        .collect();
    InterferenceModel::train(
        engine,
        &[SymbolSegments::from_rows(rows)],
        &[reference],
        CpRecycleConfig::default(),
    )
    .expect("training on synthetic preamble succeeds")
}

/// One symbol's observations: per bin, a random lattice point plus per-segment noise.
fn symbol_segments(modulation: Modulation, p: usize, seed: u64) -> SymbolSegments {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let points = modulation.points();
    let tx: Vec<Complex> = (0..64)
        .map(|_| points[rng.gen_range(0..points.len())])
        .collect();
    let rows: Vec<Vec<Complex>> = (0..p)
        .map(|j| {
            tx.iter()
                .map(|t| *t + Complex::from_polar(0.1, j as f64 * 0.7 + rng.gen_range(0.0..0.3)))
                .collect()
        })
        .collect();
    SymbolSegments::from_rows(rows)
}

fn bench_decision(c: &mut Criterion) {
    let engine = OfdmEngine::new(OfdmParams::ieee80211ag());
    let data_bins = engine.params().data_bins();
    let mut group = c.benchmark_group("decision_stage");
    group.sample_size(30);
    for modulation in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
        for p in [4usize, 16] {
            let model = trained_model(&engine, p);
            let segments = symbol_segments(modulation, p, 5 + p as u64);
            // Genie powers for the Oracle arm: random per-(segment, bin) interference.
            let mut rng = rand::rngs::StdRng::seed_from_u64(31);
            let powers = SegmentPowers::from_rows(
                (0..p)
                    .map(|_| (0..64).map(|_| rng.gen_range(0.0..2.0)).collect())
                    .collect(),
            );
            let mut scratch = DecoderScratch::new();

            let sphere = FixedSphereMlDecoder::new(&model, modulation, RADIUS);
            group.bench_with_input(
                BenchmarkId::new(format!("sphere_{}", modulation.name()), p),
                &segments,
                |b, segs| {
                    b.iter(|| sphere.decide_symbol(segs, &data_bins, &mut scratch));
                },
            );

            let constellation = modulation.constellation();
            group.bench_with_input(
                BenchmarkId::new(format!("sphere_alloc_{}", modulation.name()), p),
                &segments,
                |b, segs| {
                    b.iter(|| {
                        data_bins
                            .iter()
                            .map(|&bin| {
                                reference::decode_subcarrier(
                                    &model,
                                    &constellation,
                                    modulation,
                                    RADIUS,
                                    bin,
                                    segs.bin_observations(bin),
                                )
                                .0
                            })
                            .collect::<Vec<Complex>>()
                    });
                },
            );

            let naive = NaiveCentroidDecoder::new(modulation);
            group.bench_with_input(
                BenchmarkId::new(format!("naive_{}", modulation.name()), p),
                &segments,
                |b, segs| {
                    b.iter(|| naive.decide_symbol(segs, &data_bins, &mut scratch));
                },
            );

            let oracle = OracleSegmentDecoder::new(modulation, &powers);
            group.bench_with_input(
                BenchmarkId::new(format!("oracle_{}", modulation.name()), p),
                &segments,
                |b, segs| {
                    b.iter(|| oracle.decide_symbol(segs, &data_bins, &mut scratch));
                },
            );

            let standard = StandardNearestDecoder::new(modulation);
            group.bench_with_input(
                BenchmarkId::new(format!("standard_{}", modulation.name()), p),
                &segments,
                |b, segs| {
                    b.iter(|| standard.decide_symbol(segs, &data_bins, &mut scratch));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_decision);
criterion_main!(benches);
