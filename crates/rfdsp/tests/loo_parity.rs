//! Selection parity of the one-pass leave-one-out bandwidth search.
//!
//! `BandwidthSelector::LeaveOneOut` scores all nine candidate bandwidths in one
//! symmetric, lane-parallel sweep with the polynomial `exp`. The scalar
//! `kde::reference` search it replaced is the oracle: over corpora shaped like the
//! interference model's per-bin axes (multimodal amplitude deviations, uniform
//! phases) the selected bandwidth must be bit-identical, and every per-factor score
//! must agree to `1e-9` relative.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfdsp::kde::{
    loo_log_likelihoods, reference, select_bandwidth, silverman_bandwidth, BandwidthSelector,
    LOO_FACTORS,
};
use rfdsp::noise::GaussianSource;

/// Amplitude-deviation-like samples: a mixture of two or three clusters, folded to
/// non-negative magnitudes.
fn amplitudes(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = GaussianSource::new();
    let modes = rng.gen_range(2..=3usize);
    let centres: Vec<f64> = (0..modes).map(|_| rng.gen_range(0.0..1.2)).collect();
    let spreads: Vec<f64> = (0..modes).map(|_| rng.gen_range(0.005..0.15)).collect();
    (0..n)
        .map(|_| {
            let m = rng.gen_range(0..modes);
            g.sample(&mut rng, centres[m], spreads[m]).abs()
        })
        .collect()
}

/// Phase-deviation-like samples: uniform over (−π, π].
fn phases(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    (0..n)
        .map(|_| rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI))
        .collect()
}

fn assert_parity(samples: &[f64], what: &str) {
    let got = select_bandwidth(samples, BandwidthSelector::LeaveOneOut).unwrap();
    let want = reference::select_loo_bandwidth(samples).unwrap();
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{what} n={}: selected {got} vs reference {want}",
        samples.len()
    );

    let base = silverman_bandwidth(samples).unwrap();
    let mut scratch = Vec::new();
    let scores = loo_log_likelihoods(samples, base, &mut scratch);
    for (k, (f, got)) in LOO_FACTORS.iter().zip(scores).enumerate() {
        let want = reference::loo_log_likelihood(samples, base * f);
        // Relative to the score's magnitude, floored at 1 so a sum of logs that
        // happens to cancel near zero is held to an absolute 1e-9 instead.
        let tol = 1e-9 * want.abs().max(1.0);
        assert!(
            (got - want).abs() <= tol,
            "{what} n={} factor {k}: score {got} vs reference {want}",
            samples.len()
        );
    }
}

#[test]
fn selection_matches_the_reference_at_the_pinned_sizes() {
    // 17 and 34: odd / lane-misaligned tails; 32: the default model's P·N_p = 16·2;
    // 192: the Rolling model at P = 16, N_p = 12.
    for n in [3usize, 4, 5, 17, 32, 34, 192] {
        for seed in 0..4u64 {
            assert_parity(&amplitudes(n, seed), "amplitudes");
            assert_parity(&phases(n, seed), "phases");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn selection_matches_the_reference_for_any_size(n in 3usize..=192, seed in 0u64..1_000_000) {
        assert_parity(&amplitudes(n, seed), "amplitudes");
        assert_parity(&phases(n, seed), "phases");
    }
}

#[test]
fn non_finite_samples_are_an_error_not_a_panic() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut xs = amplitudes(32, 7);
        xs[11] = bad;
        for selector in [BandwidthSelector::Silverman, BandwidthSelector::LeaveOneOut] {
            assert!(
                select_bandwidth(&xs, selector).is_err(),
                "{bad} accepted by {selector:?}"
            );
        }
    }
}
