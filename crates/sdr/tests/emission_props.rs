//! Run-length lane emission against the per-sample reference.
//!
//! `EmitterLane` splits each block into runs of bit-equal profile
//! amplitude and lets the rotor write `phasor · gain` straight into the
//! output. The contract under test: that output is bit-identical to the
//! per-sample loop it replaced — one profile read, one memo check and
//! one `phasor * gain` per sample — for any profile shape, either sign
//! of trigger shift, any block split and any worker count.

use ivn_dsp::block::BlockStage;
use ivn_dsp::complex::Complex64;
use ivn_dsp::rotor::PhasorRotor;
use ivn_runtime::prop::any;
use ivn_runtime::rng::{Rng, StdRng};
use ivn_runtime::{prop_assert, prop_assert_eq, props};
use ivn_sdr::bank::TxBank;
use ivn_sdr::clock::ClockDistribution;
use ivn_sdr::stream::EmitterLane;

const OFFSETS: [f64; 4] = [0.0, 7.0, 20.0, 49.0];
const DRIVE: f64 = 0.05;
/// Low enough that a free-running clock's ~1 ms trigger slop is tens of
/// samples of shift, either sign.
const SAMPLE_RATE: f64 = 2e4;

/// The per-sample emission loop the lane ran before run-length
/// emission: whole-stream rotor phasors, the profile read through the
/// trigger shift one sample at a time (1.0 outside the command), and
/// the PA gain memoized on the amplitude's bits.
fn per_sample_reference(bank: &TxBank, i: usize, profile: &[f64], drive: f64) -> Vec<Complex64> {
    let dev = bank.device(i);
    let shift = (dev.trigger_offset_s * bank.sample_rate()).round() as i64;
    let mut rotor = PhasorRotor::new(
        bank.offsets_hz()[i],
        bank.sample_rate(),
        dev.pll.initial_phase(),
    );
    let mut phasors = vec![Complex64::ZERO; profile.len()];
    rotor.fill(&mut phasors);
    let mut memo: Option<(u64, f64)> = None;
    let mut out = Vec::with_capacity(profile.len());
    for (k, &phasor) in phasors.iter().enumerate() {
        let idx = k as i64 - shift;
        let amp = if (0..profile.len() as i64).contains(&idx) {
            profile[idx as usize]
        } else {
            1.0
        };
        let gain = match memo {
            Some((bits, g)) if bits == amp.to_bits() => g,
            _ => {
                let a = amp * drive;
                let g = dev.pa.am_am(a.abs());
                let g = if a.is_sign_negative() { -g } else { g };
                memo = Some((amp.to_bits(), g));
                g
            }
        };
        out.push(phasor * gain);
    }
    out
}

fn bank(clock: &ClockDistribution, seed: u64) -> TxBank {
    let mut rng = StdRng::seed_from_u64(seed);
    TxBank::new(&mut rng, OFFSETS.len(), 915e6, SAMPLE_RATE, &OFFSETS, clock)
}

/// Runs one lane over `profile` in blocks of `block` samples.
fn lane_emit(bank: &TxBank, i: usize, profile: &[f64], block: usize) -> Vec<Complex64> {
    let mut lane = EmitterLane::new(bank, i, DRIVE);
    let mut out = Vec::new();
    for chunk in profile.chunks(block) {
        lane.push(chunk, &mut out);
    }
    lane.flush(&mut out);
    out
}

fn first_difference(got: &[Complex64], want: &[Complex64]) -> Option<usize> {
    if got.len() != want.len() {
        return Some(got.len().min(want.len()));
    }
    got.iter()
        .zip(want)
        .position(|(a, b)| a.re.to_bits() != b.re.to_bits() || a.im.to_bits() != b.im.to_bits())
}

/// Levels that stress the gain memo and the sign handling: the 1.0/0.0
/// command levels, both zeros, negative amplitudes and arbitrary values.
fn level(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..8u32) {
        0 | 1 => 1.0,
        2 => 0.0,
        3 => -0.0,
        4 => -1.0,
        5 => 1.0 + f64::EPSILON,
        _ => rng.random_range(-2.0..2.0),
    }
}

/// A profile of `n` samples in one of four shapes: long runs, a PIE
/// command (1.0 with short 0.0 notches), a new level on every sample,
/// or short random runs.
fn profile(shape: u32, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_run: usize = match shape {
        0 => 3000,
        2 => 1,
        _ => 12,
    };
    let mut p = Vec::with_capacity(n);
    while p.len() < n {
        let run = rng.random_range(1..=max_run).min(n - p.len());
        let v = if shape == 1 {
            // PIE: a notch after every high stretch.
            if p.last() == Some(&1.0) {
                0.0
            } else {
                1.0
            }
        } else {
            level(&mut rng)
        };
        let run = if shape == 1 && v == 0.0 {
            run.min(4)
        } else {
            run
        };
        p.extend(std::iter::repeat_n(v, run));
    }
    p
}

#[test]
fn both_trigger_shift_signs_are_covered() {
    // The free-running banks below must exercise lanes that read ahead
    // of the emission point (negative shift) and behind it (positive).
    let shifts: Vec<i64> = (0..8u64)
        .flat_map(|seed| {
            let b = bank(&ClockDistribution::free_running(), seed);
            (0..b.len())
                .map(|i| EmitterLane::new(&b, i, DRIVE).shift())
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(
        shifts.iter().any(|&s| s > 0),
        "no positive shift in {shifts:?}"
    );
    assert!(
        shifts.iter().any(|&s| s < 0),
        "no negative shift in {shifts:?}"
    );
    let b = bank(&ClockDistribution::octoclock(), 0);
    assert!((0..b.len()).all(|i| EmitterLane::new(&b, i, DRIVE).shift() == 0));
}

#[test]
fn whole_buffer_emit_matches_reference_on_edge_profiles() {
    let n = 9000;
    let edge: [(&str, Vec<f64>); 5] = [
        ("constant", vec![1.0; n]),
        ("off", vec![0.0; n]),
        ("negative zero", vec![-0.0; n]),
        (
            "alternating zeros",
            (0..n)
                .map(|k| if k % 2 == 0 { 0.0 } else { -0.0 })
                .collect(),
        ),
        ("ramp", (0..n).map(|k| k as f64 / n as f64 - 0.5).collect()),
    ];
    for clock in [
        ClockDistribution::octoclock(),
        ClockDistribution::free_running(),
    ] {
        let b = bank(&clock, 11);
        for (name, p) in &edge {
            for i in 0..b.len() {
                let want = per_sample_reference(&b, i, p, DRIVE);
                let got = b.emit(i, p, DRIVE);
                assert_eq!(
                    first_difference(got.samples(), &want),
                    None,
                    "{name} profile, device {i}"
                );
            }
        }
    }
}

props! {
    cases = 24;

    fn lane_matches_per_sample_reference(shape in 0u32..4, free in any::<bool>(),
                                         n in 1usize..9000, seed in any::<u64>()) {
        let clock = if free {
            ClockDistribution::free_running()
        } else {
            ClockDistribution::octoclock()
        };
        let b = bank(&clock, seed);
        let p = profile(shape, n, seed ^ 0x5eed);
        for i in 0..b.len() {
            let want = per_sample_reference(&b, i, &p, DRIVE);
            for block in [1usize, 7, 8, 4096, n] {
                let got = lane_emit(&b, i, &p, block);
                prop_assert!(
                    first_difference(&got, &want).is_none(),
                    "device {i} (shift {}) block {block}: first difference at {:?}",
                    EmitterLane::new(&b, i, DRIVE).shift(),
                    first_difference(&got, &want)
                );
            }
        }
    }

    fn bank_streamer_matches_reference_any_threads(shape in 0u32..4, free in any::<bool>(),
                                                   block in 1usize..700, seed in any::<u64>()) {
        let clock = if free {
            ClockDistribution::free_running()
        } else {
            ClockDistribution::octoclock()
        };
        let b = bank(&clock, seed);
        let p = profile(shape, 3000, seed ^ 0xb10c);
        let want: Vec<_> = (0..b.len()).map(|i| per_sample_reference(&b, i, &p, DRIVE)).collect();
        for threads in [1usize, 2, 8] {
            let mut st = b.streamer(DRIVE, threads);
            let mut got: Vec<Vec<Complex64>> = vec![Vec::new(); b.len()];
            for chunk in p.chunks(block) {
                let produced = st.push(chunk);
                for (g, out) in got.iter_mut().zip(st.blocks()) {
                    prop_assert_eq!(out.len(), produced);
                    g.extend_from_slice(out);
                }
            }
            st.flush();
            for (g, out) in got.iter_mut().zip(st.blocks()) {
                g.extend_from_slice(out);
            }
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert!(
                    first_difference(g, w).is_none(),
                    "device {i} at {threads} threads, block {block}: first difference at {:?}",
                    first_difference(g, w)
                );
            }
        }
    }
}
