//! Property-based equivalence pins for the lane-parallel kernels (PR 8).
//!
//! Every vectorized hot kernel in this crate is pinned against its scalar
//! reference across randomized lane counts, window sizes and unaligned tail
//! lengths:
//!
//! * **bit-for-bit** where the restructure preserves elementwise operation order —
//!   the sliding-DFT update (both the autovectorized chunk path and the
//!   runtime-dispatched AVX2 path, which deliberately avoids FMA), the grid-KDE
//!   batch lookup, the polynomial `exp` batch, and the leave-one-out kernel row
//!   sums (dispatched AVX2 copy against the baseline-compiled copy);
//! * **≤ 1e-9** where the batch path substitutes the polynomial `exp` for libm in
//!   the exact-KDE log-sum (operation order differs, so exact equality is not the
//!   contract).

use proptest::prelude::*;
use rfdsp::kde::{BandwidthSelector, GridKde2d, GridSpec, ProductKde2d};
use rfdsp::lanes::{exp_approx, exp_batch};
use rfdsp::simd::{loo_kernel_rows, loo_kernel_rows_lanes, slide_update, slide_update_lanes};
use rfdsp::sliding::SlidingDft;
use rfdsp::Complex;

fn complexes(
    len: impl Into<proptest::collection::SizeRange>,
) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec(
        (-2.0f64..2.0, -2.0f64..2.0).prop_map(|(re, im)| Complex::new(re, im)),
        len,
    )
}

/// The scalar slide recurrence both SIMD paths must reproduce exactly.
fn slide_reference(spectrum: &mut [Complex], delta: Complex, twiddles: &[Complex]) {
    for (s, w) in spectrum.iter_mut().zip(twiddles) {
        *s = (*s + delta) * *w;
    }
}

fn assert_bits_eq(a: &[Complex], b: &[Complex], what: &str) {
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: bin {k} (re)");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: bin {k} (im)");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The runtime-dispatched slide update (AVX2 where available) is bit-for-bit
    /// identical to the scalar recurrence for every length, including the odd tails
    /// neither the 4-lane chunks nor the 2-wide AVX2 loop cover.
    #[test]
    fn dispatched_slide_update_is_bit_identical(
        spectrum in complexes(0..130usize),
        twiddle_seed in complexes(130..=130usize),
        dre in -2.0f64..2.0,
        dim in -2.0f64..2.0,
    ) {
        let delta = Complex::new(dre, dim);
        let twiddles = &twiddle_seed[..spectrum.len()];
        let mut fast = spectrum.clone();
        let mut slow = spectrum;
        slide_update(&mut fast, delta, twiddles);
        slide_reference(&mut slow, delta, twiddles);
        assert_bits_eq(&fast, &slow, "slide_update dispatch");
    }

    /// The portable chunked path on its own (exercised explicitly so non-AVX2
    /// behaviour is pinned even when the dispatcher would pick AVX2).
    #[test]
    fn lane_slide_update_is_bit_identical(
        spectrum in complexes(0..100usize),
        twiddle_seed in complexes(100..=100usize),
        dre in -2.0f64..2.0,
        dim in -2.0f64..2.0,
    ) {
        let delta = Complex::new(dre, dim);
        let twiddles = &twiddle_seed[..spectrum.len()];
        let mut fast = spectrum.clone();
        let mut slow = spectrum;
        slide_update_lanes(&mut fast, delta, twiddles);
        slide_reference(&mut slow, delta, twiddles);
        assert_bits_eq(&fast, &slow, "slide_update_lanes");
    }

    /// Chained slides through `SlidingDft` stay bit-identical to the scalar
    /// recurrence across window sizes and slide counts.
    #[test]
    fn chained_sliding_dft_is_bit_identical(
        size_idx in 0usize..4,
        samples in complexes(40..200usize),
    ) {
        let n = [4usize, 16, 64, 128][size_idx];
        prop_assume!(samples.len() > n);
        let dft = SlidingDft::new(n);
        let mut fast = vec![Complex::zero(); n];
        let mut slow = fast.clone();
        for t in 0..samples.len() - n {
            dft.slide(&mut fast, samples[t], samples[t + n]).unwrap();
            let delta = samples[t + n] - samples[t];
            slide_reference(&mut slow, delta, dft.advance_twiddles());
        }
        assert_bits_eq(&fast, &slow, "chained slides");
    }

    /// The exact-KDE batch scorer agrees with per-query scalar evaluation to 1e-9
    /// for any query count (chunked body + remainder).
    #[test]
    fn product_kde_batch_matches_scalar(
        samples in prop::collection::vec((0.05f64..3.0, -3.1f64..3.1), 8..48),
        queries in prop::collection::vec((0.0f64..3.5, -3.1f64..3.1), 1..23),
    ) {
        let kde = ProductKde2d::new(&samples, BandwidthSelector::LeaveOneOut).unwrap();
        let amps: Vec<f64> = queries.iter().map(|q| q.0).collect();
        let phases: Vec<f64> = queries.iter().map(|q| q.1).collect();
        let mut batch = vec![0.0; queries.len()];
        kde.log_eval_batch(&amps, &phases, &mut batch);
        for ((a, p), got) in queries.iter().zip(&batch) {
            let want = kde.log_eval(*a, *p);
            let tol = 1e-9 * (1.0 + want.abs());
            prop_assert!((got - want).abs() <= tol, "query ({a}, {p}): {got} vs {want}");
        }
    }

    /// The grid-KDE f64 batch lookup preserves the scalar lookup's arithmetic
    /// exactly — bit-for-bit, any query count.
    #[test]
    fn grid_kde_batch_is_bit_identical(
        samples in prop::collection::vec((0.05f64..3.0, -3.1f64..3.1), 8..48),
        queries in prop::collection::vec((0.0f64..4.0, -3.5f64..3.5), 1..23),
    ) {
        let kde = ProductKde2d::new(&samples, BandwidthSelector::LeaveOneOut).unwrap();
        let grid = GridKde2d::build(&kde, &GridSpec::default()).unwrap();
        let amps: Vec<f64> = queries.iter().map(|q| q.0).collect();
        let phases: Vec<f64> = queries.iter().map(|q| q.1).collect();
        let mut batch = vec![0.0; queries.len()];
        grid.log_eval_batch(&amps, &phases, &mut batch);
        for ((a, p), got) in queries.iter().zip(&batch) {
            let want = grid.log_eval(*a, *p);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "query ({}, {}): {} vs {}", a, p, got, want);
        }
    }

    /// The leave-one-out row sums take the same arithmetic on both dispatch paths:
    /// the AVX2-compiled copy (where the CPU has it) is bit-identical to the
    /// baseline-compiled copy for every sample count, lane tail and bandwidth grid.
    #[test]
    fn dispatched_loo_kernel_rows_are_bit_identical(
        samples in prop::collection::vec(-3.2f64..3.2, 0..80),
        base in 0.002f64..2.0,
    ) {
        let coeffs = rfdsp::kde::LOO_FACTORS.map(|f| -0.5 / ((base * f) * (base * f)));
        let mut fast = vec![0.0; coeffs.len() * samples.len()];
        let mut slow = fast.clone();
        loo_kernel_rows(&samples, &coeffs, &mut fast);
        loo_kernel_rows_lanes(&samples, &coeffs, &mut slow);
        for (r, (x, y)) in fast.iter().zip(&slow).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "row entry {}: {} vs {}", r, x, y);
        }
    }

    /// The chunked polynomial `exp` equals its own scalar form for every element,
    /// independent of how the length splits into chunks.
    #[test]
    fn exp_batch_is_bit_identical_for_any_tail(xs in prop::collection::vec(-700.0f64..80.0, 0..40)) {
        let mut out = vec![0.0; xs.len()];
        exp_batch(&xs, &mut out);
        for (x, got) in xs.iter().zip(&out) {
            prop_assert_eq!(got.to_bits(), exp_approx(*x).to_bits(), "x = {}", x);
        }
    }
}
