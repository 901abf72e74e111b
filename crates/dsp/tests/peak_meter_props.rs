//! Band-confirmed peak metering against the per-sample `hypot` fold.
//!
//! `PeakMeter::observe_block` scans `|z|²` and calls `hypot` only near
//! the running `|z|²` maximum. The contract under test: after every
//! block its peak has the same bits as folding `norm()` over every
//! sample seen so far — for any block split and any sample values,
//! including exact ties, signed zeros, subnormals, overflowing squares,
//! infinities and NaN.

use ivn_dsp::block::PeakMeter;
use ivn_dsp::complex::Complex64;
use ivn_dsp::rotor::PhasorRotor;
use ivn_runtime::prop::{any, vec};
use ivn_runtime::rng::{Rng, StdRng};
use ivn_runtime::{prop_assert, props};

/// The fold the meter must reproduce: `max(0, norm())` over every sample.
fn hypot_fold(peak: f64, block: &[Complex64]) -> f64 {
    block.iter().fold(peak, |p, s| p.max(s.norm()))
}

/// Feeds `samples` to a fresh meter in blocks of the given lengths
/// (cycled), checking the running peak against the fold after each.
fn check_split(samples: &[Complex64], lens: &[usize]) -> Result<(), String> {
    let mut meter = PeakMeter::new();
    let mut want = 0.0f64;
    let mut at = 0;
    for &len in lens.iter().cycle() {
        if at >= samples.len() {
            break;
        }
        let block = &samples[at..(at + len).min(samples.len())];
        meter.observe_block(block);
        want = hypot_fold(want, block);
        if meter.peak().to_bits() != want.to_bits() {
            return Err(format!(
                "after samples ..{}: meter {:e} vs fold {:e}",
                at + block.len(),
                meter.peak(),
                want
            ));
        }
        at += block.len();
    }
    Ok(())
}

/// A stretch of `n` samples of one kind.
fn segment(kind: u32, n: usize, rng: &mut StdRng) -> Vec<Complex64> {
    let scale = 10f64.powi(rng.random_range(-3..4i32));
    match kind {
        // A single-lane emission: constant magnitude, so every sample
        // lies in the confirmation band.
        0 => {
            let mut r = PhasorRotor::new(rng.random_range(-500.0..500.0), 1e5, 0.4);
            let mut out = vec![Complex64::ZERO; n];
            r.fill_scaled(&mut out, scale);
            out
        }
        // A maximum that grows sample by sample.
        1 => (0..n)
            .map(|k| Complex64::cis(k as f64 * 0.01) * (scale * (1.0 + k as f64 * 1e-3)))
            .collect(),
        // Exact ties: components permuted and negated share one hypot.
        2 => {
            let (a, b) = (rng.random_range(0.0..scale), rng.random_range(0.0..scale));
            let ties = [
                Complex64::new(a, b),
                Complex64::new(b, a),
                Complex64::new(-a, b),
                Complex64::new(b, -a),
                Complex64::new(-b, -a),
            ];
            (0..n)
                .map(|_| ties[rng.random_range(0..ties.len())])
                .collect()
        }
        // Signed zeros.
        3 => {
            let z = [0.0, -0.0];
            (0..n)
                .map(|_| {
                    Complex64::new(
                        z[rng.random_range(0..2usize)],
                        z[rng.random_range(0..2usize)],
                    )
                })
                .collect()
        }
        // Subnormal-only samples, below the confirmation floor.
        4 => (0..n)
            .map(|_| {
                Complex64::new(
                    rng.random_range(-1e-310..1e-310),
                    rng.random_range(-1e-310..1e-310),
                )
            })
            .collect(),
        // Magnitudes straddling the floor and overflowing squares.
        5 => (0..n)
            .map(|_| {
                let m = 10f64.powi(rng.random_range(-160..200i32));
                Complex64::cis(rng.random_range(0.0..6.3)) * m
            })
            .collect(),
        // Non-finite samples among ordinary ones.
        6 => {
            let odd = [
                Complex64::new(f64::NAN, 1.0),
                Complex64::new(f64::INFINITY, f64::NAN),
                Complex64::new(-f64::INFINITY, 0.0),
                Complex64::new(0.0, f64::NAN),
            ];
            (0..n)
                .map(|_| {
                    if rng.random_range(0..8u32) == 0 {
                        odd[rng.random_range(0..odd.len())]
                    } else {
                        Complex64::new(
                            rng.random_range(-scale..scale),
                            rng.random_range(-scale..scale),
                        )
                    }
                })
                .collect()
        }
        // Random-angle phasors of one magnitude: near-ties where the
        // `|z|²` order and the `hypot` order can disagree by an ulp.
        7 => (0..n)
            .map(|_| Complex64::cis(rng.random_range(0.0..6.3)) * scale)
            .collect(),
        // Uniform noise.
        _ => (0..n)
            .map(|_| {
                Complex64::new(
                    rng.random_range(-scale..scale),
                    rng.random_range(-scale..scale),
                )
            })
            .collect(),
    }
}

#[test]
fn single_lane_emission_matches_fold_at_stream_blocks() {
    // The calibration pass meters lane 0 of the bank: every sample of a
    // block sits in the band, so every sample is confirmed.
    let mut r = PhasorRotor::new(49.0, 2e6, 1.3);
    let mut lane = vec![Complex64::ZERO; 40_000];
    r.fill_scaled(&mut lane, 3.7);
    check_split(&lane, &[4096]).unwrap();
    check_split(&lane, &[1, 7, 8, 4095]).unwrap();
}

#[test]
fn squares_and_hypot_disagreeing_on_order() {
    // `a` has the larger `|z|²` (1.0 vs 1 − ε) but `b` the larger
    // `hypot` on a correctly rounding libm: the meter must confirm both.
    let a = Complex64::new(
        f64::from_bits(0x3feb1ba69cb406e4),
        f64::from_bits(0xbfe1012c25aa5f6a),
    );
    let b = Complex64::new(
        f64::from_bits(0xbfd45b94097f25e5),
        f64::from_bits(0xbfee56835fcd7952),
    );
    check_split(&[a, b], &[2]).unwrap();
    check_split(&[b, a], &[2]).unwrap();
    check_split(&[a, b], &[1]).unwrap();
}

#[test]
fn empty_and_nan_only_blocks_leave_the_peak() {
    let mut meter = PeakMeter::new();
    meter.observe_block(&[]);
    meter.observe_block(&[Complex64::new(f64::NAN, f64::NAN)]);
    assert_eq!(meter.peak().to_bits(), 0.0f64.to_bits());
    meter.observe_block(&[Complex64::new(3.0, 4.0)]);
    meter.observe_block(&[Complex64::new(f64::NAN, 1.0), Complex64::new(1.0, 1.0)]);
    assert_eq!(meter.peak(), 5.0);
    meter.observe_block(&[Complex64::new(f64::INFINITY, f64::NAN)]);
    assert_eq!(meter.peak(), f64::INFINITY);
}

props! {
    cases = 96;

    fn observe_block_matches_hypot_fold(kinds in vec(0u32..9, 1..6),
                                        lens in vec(1usize..600, 1..8),
                                        seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = Vec::new();
        for &kind in &kinds {
            let n = rng.random_range(1..1500usize);
            samples.extend(segment(kind, n, &mut rng));
        }
        let outcome = check_split(&samples, &lens);
        prop_assert!(outcome.is_ok(), "kinds {kinds:?}: {}", outcome.unwrap_err());
        // The whole stream as one block.
        let outcome = check_split(&samples, &[samples.len()]);
        prop_assert!(outcome.is_ok(), "kinds {kinds:?} whole: {}", outcome.unwrap_err());
    }
}
