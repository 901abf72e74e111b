//! Property tests for the envelope kernels (`ivn_core::kernels`): every
//! fast path — batched scratch fill, FFT synthesis, incremental CRN
//! swap — must agree with the reference `CibEnvelope::envelope` sum to
//! 1e-9, and the optimizer built on them must stay deterministic per
//! seed. The lazy session paths — the range sampler, the `|z|²` argmax
//! and the power-up that stops at the wake — must match their
//! whole-period counterparts bit for bit.

use ivn_core::freqsel::{optimize, pessimize, FreqSelConfig};
use ivn_core::kernels::{argmax_norm, CrnKernel, EnvelopeScratch};
use ivn_core::scenario::time_to_power;
use ivn_core::waveform::CibEnvelope;
use ivn_core::PAPER_OFFSETS_HZ;
use ivn_dsp::complex::Complex64;
use ivn_harvester::powerup::TagPowerProfile;
use ivn_runtime::prop::{any, btree_set, vec as pvec, Just, Strategy};
use ivn_runtime::rng::StdRng;
use ivn_runtime::{prop_assert, prop_assert_eq, prop_assume, props};

fn offsets() -> impl Strategy<Value = Vec<f64>> {
    btree_set(1u32..300, 1..9).prop_map(|set| {
        std::iter::once(0.0)
            .chain(set.into_iter().map(|v| v as f64))
            .collect()
    })
}

fn phases(n: usize) -> impl Strategy<Value = Vec<f64>> {
    pvec(0.0f64..std::f64::consts::TAU, n..=n)
}

fn offsets_and_phases() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    offsets().prop_flat_map(|o| {
        let n = o.len();
        (Just(o), phases(n))
    })
}

/// Offsets, phases and per-tone amplitudes of a random envelope.
fn envelope_parts() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>)> {
    offsets().prop_flat_map(|o| {
        let n = o.len();
        (Just(o), phases(n), pvec(0.05f64..2.0, n..=n))
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `peak_over_period` as it was before the `|z|²` argmax: a `hypot` per
/// grid sample, `max_by` (ties to the last), then the ternary
/// refinement.
fn hypot_argmax_peak(env: &CibEnvelope, grid: usize) -> (f64, f64) {
    let samples = env.sample_period(grid);
    let (k, _) = samples
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .unwrap();
    let dt = 1.0 / grid as f64;
    let mut lo = (k as f64 - 1.0) * dt;
    let mut hi = (k as f64 + 1.0) * dt;
    for _ in 0..60 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        if env.envelope(m1) < env.envelope(m2) {
            lo = m1;
        } else {
            hi = m2;
        }
    }
    let t = 0.5 * (lo + hi);
    (t.rem_euclid(1.0), env.envelope(t))
}

fn assert_same_peak(env: &CibEnvelope, grid: usize) {
    let (t, y) = env.peak_over_period(grid);
    let (t0, y0) = hypot_argmax_peak(env, grid);
    assert_eq!(
        (t.to_bits(), y.to_bits()),
        (t0.to_bits(), y0.to_bits()),
        "grid {grid}: ({t}, {y}) vs ({t0}, {y0})"
    );
}

/// The power-up over the whole sampled period, without an early stop.
fn full_period_power_up(env: &CibEnvelope, power: &TagPowerProfile, rate: f64) -> Option<f64> {
    let power_env: Vec<f64> = env
        .sample_period(rate as usize)
        .iter()
        .map(|a| a * a)
        .collect();
    let out = power.power_up(&power_env, rate);
    assert_eq!(out.powered, out.time_to_power_s.is_some());
    out.time_to_power_s
}

/// `env` rescaled so its ceiling's power sits `level_db` above the
/// tag's steady-state wake threshold.
fn scaled(
    offs: &[f64],
    ph: &[f64],
    amps: &[f64],
    power: &TagPowerProfile,
    level_db: f64,
) -> CibEnvelope {
    let ceiling: f64 = amps.iter().sum();
    let target = (power.required_peak_power_watts() * 10f64.powf(level_db / 10.0)).sqrt();
    let amps: Vec<f64> = amps.iter().map(|a| a * target / ceiling).collect();
    CibEnvelope::with_amplitudes(offs, ph, &amps)
}

#[test]
fn peak_over_period_matches_hypot_argmax_on_exact_ties() {
    let third = std::f64::consts::TAU / 3.0;
    let cases = [
        // Aligned phases: the period is symmetric about t = 0.
        CibEnvelope::new(&PAPER_OFFSETS_HZ, &[0.0; 10]),
        CibEnvelope::new(&PAPER_OFFSETS_HZ[..5], &[0.0; 5]),
        // Balanced phasors on one frequency: a flat ~0 envelope.
        CibEnvelope::new(&[50.0; 3], &[0.0, third, 2.0 * third]),
        // One tone: a flat envelope, every sample a near-tie.
        CibEnvelope::new(&[7.0], &[0.4]),
        // Zero amplitudes: exact ties at 0 (the confirm-all path).
        CibEnvelope::with_amplitudes(&[0.0, 9.0], &[0.1, 0.2], &[0.0, 0.0]),
        // |z|² underflows: confirmed by hypot everywhere.
        CibEnvelope::with_amplitudes(&[0.0, 9.0, 20.0], &[0.1, 0.2, 1.3], &[1e-160; 3]),
    ];
    for env in &cases {
        for grid in [256, 1000, 1024, 4096, 8192] {
            assert_same_peak(env, grid);
        }
    }
}

#[test]
fn argmax_norm_matches_hypot_max_by_on_edge_grids() {
    let hypot_argmax = |g: &[Complex64]| {
        g.iter()
            .map(|z| z.norm())
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
            .0
    };
    let c = Complex64::new;
    let grids: [Vec<Complex64>; 7] = [
        vec![c(1.0, 0.0), c(0.0, 1.0), c(-1.0, 0.0), c(0.6, 0.8)],
        vec![c(0.0, 0.0); 5],
        vec![c(3.0, 4.0), c(1e-200, 0.0), c(5.0, 0.0), c(-0.0, -0.0)],
        vec![c(1e-170, 2e-170), c(2e-170, 1e-170), c(0.0, 1e-171)],
        vec![c(1.0, 2.0), c(f64::NAN, 0.0), c(3.0, 0.0)],
        vec![c(1.0, 2.0), c(f64::INFINITY, 1.0), c(1e300, 1e300)],
        vec![c(5e-324, 0.0), c(0.0, 5e-324), c(0.0, 0.0)],
    ];
    for g in &grids {
        assert_eq!(argmax_norm(g), hypot_argmax(g), "grid {g:?}");
    }
}

#[test]
fn early_exit_power_up_covers_powered_and_unpowered_draws() {
    let mut seen = (false, false);
    let amps = [1.0, 0.7, 1.3, 0.9, 1.1];
    let ph = [0.3, 2.1, 4.0, 5.5, 1.2];
    for power in [
        TagPowerProfile::standard_tag(),
        TagPowerProfile::miniature_tag(),
    ] {
        for level in -12..=12 {
            let env = scaled(&PAPER_OFFSETS_HZ[..5], &ph, &amps, &power, level as f64);
            let lazy = time_to_power(&env, &power, 2048.0);
            let full = full_period_power_up(&env, &power, 2048.0);
            assert_eq!(
                lazy.map(f64::to_bits),
                full.map(f64::to_bits),
                "level {level} dB"
            );
            if lazy.is_some() {
                seen.0 = true;
            } else {
                seen.1 = true;
            }
        }
    }
    assert_eq!(
        seen,
        (true, true),
        "sweep must wake some tags and not others"
    );
}

/// Power-of-two grids large enough to resolve the offset range.
fn pow2_grid() -> impl Strategy<Value = usize> {
    (9u32..12).prop_map(|p| 1usize << p)
}

props! {
    cases = 48;

    fn sample_range_matches_sample_period_bits(
        (offs, ph, amps) in envelope_parts(), grid_pick in 0usize..3,
        cuts in pvec(any::<u32>(), 0..6), lens in pvec(any::<u32>(), 1..4)
    ) {
        // Any 256-aligned split of the period, sampled block by block,
        // reproduces the whole-period sampling bit for bit; a block may
        // end anywhere.
        let grid = [1000, 2048, 4097][grid_pick];
        let env = CibEnvelope::with_amplitudes(&offs, &ph, &amps);
        prop_assert!(!env.samples_via_fft(grid));
        let whole = env.sample_period(grid);
        let mut starts: Vec<usize> = cuts.iter().map(|&c| c as usize % grid / 256 * 256).collect();
        starts.push(0);
        starts.sort_unstable();
        starts.dedup();
        let mut scratch = EnvelopeScratch::new();
        let mut joined = Vec::with_capacity(grid);
        for (i, &a) in starts.iter().enumerate() {
            let b = starts.get(i + 1).copied().unwrap_or(grid);
            joined.extend(env.sample_range(grid, a..b, &mut scratch));
        }
        prop_assert_eq!(bits(&joined), bits(&whole));
        for (&a, &l) in starts.iter().zip(lens.iter().cycle()) {
            let end = a + 1 + l as usize % (grid - a);
            let part: Vec<f64> = env.sample_range(grid, a..end, &mut scratch).collect();
            prop_assert!(bits(&part) == bits(&whole[a..end]), "range {a}..{end} diverged");
        }
    }

    fn peak_over_period_matches_hypot_argmax(
        (offs, ph, amps) in envelope_parts(), grid_pick in 0usize..5
    ) {
        // Nine tones on the 256 grid take the FFT synthesis; the rest
        // are direct.
        let grid = [256, 512, 1000, 1024, 4096][grid_pick];
        assert_same_peak(&CibEnvelope::with_amplitudes(&offs, &ph, &amps), grid);
    }

    fn early_exit_power_up_matches_full_period(
        (offs, ph, amps) in envelope_parts(), level_db in -12.0f64..12.0,
        rate_pick in 0usize..4, miniature in any::<bool>()
    ) {
        // Stopping at the wake leaves `powered` and the wake time of a
        // whole-period integration unchanged, woken or not.
        let power = if miniature {
            TagPowerProfile::miniature_tag()
        } else {
            TagPowerProfile::standard_tag()
        };
        let rate = [256.0, 1000.0, 2048.0, 4097.0][rate_pick];
        let env = scaled(&offs, &ph, &amps, &power, level_db);
        let lazy = time_to_power(&env, &power, rate);
        let full = full_period_power_up(&env, &power, rate);
        prop_assert_eq!(lazy.map(f64::to_bits), full.map(f64::to_bits));
    }

    fn scratch_fill_matches_reference_pointwise(
        (offs, ph) in offsets_and_phases(), grid in pow2_grid()
    ) {
        // The batched allocation-free fill (whichever path `fill`
        // auto-selects) reproduces |Σᵢ e^{j(2πfᵢt+βᵢ)}| on every grid
        // sample.
        let env = CibEnvelope::new(&offs, &ph);
        let mut s = EnvelopeScratch::new();
        s.fill(&offs, &ph, None, grid);
        for (k, z) in s.grid().iter().enumerate() {
            let t = k as f64 / grid as f64;
            prop_assert!(
                (z.norm() - env.envelope(t)).abs() < 1e-9,
                "sample {k}/{grid} diverged"
            );
        }
    }

    fn fft_fill_matches_direct_fill(
        (offs, ph) in offsets_and_phases(), grid in pow2_grid()
    ) {
        let mut direct = EnvelopeScratch::new();
        let mut fft = EnvelopeScratch::new();
        direct.fill_direct(&offs, &ph, None, grid);
        fft.fill_fft(&offs, &ph, None, grid);
        for (k, (a, b)) in direct.grid().iter().zip(fft.grid()).enumerate() {
            prop_assert!((*a - *b).norm() < 1e-9, "sample {k}/{grid} diverged");
        }
    }

    fn sample_period_fft_matches_reference(
        (offs, ph) in offsets_and_phases(), grid in pow2_grid()
    ) {
        let env = CibEnvelope::new(&offs, &ph);
        let samples = env.sample_period_fft(grid);
        for (k, y) in samples.iter().enumerate() {
            let t = k as f64 / grid as f64;
            prop_assert!(
                (y - env.envelope(t)).abs() < 1e-9,
                "sample {k}/{grid} diverged"
            );
        }
    }

    fn crn_swap_matches_fresh_evaluation(
        offs in offsets(), seed in any::<u64>(),
        idx_pick in any::<u32>(), new_off in 1u32..300
    ) {
        // Scoring a one-tone perturbation incrementally (copy cached
        // grid, −old +new) must equal a from-scratch evaluation of the
        // perturbed set under the same phase draws.
        let n = offs.len();
        prop_assume!(n >= 2);
        let idx = 1 + (idx_pick as usize) % (n - 1); // never tone 0
        let draws = 4;
        let grid = 512;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut kernel = CrnKernel::new(&offs, draws, grid, &mut rng);
        let incr = kernel.score_swap(idx, new_off as f64);

        let mut swapped = offs.clone();
        swapped[idx] = new_off as f64;
        let mut s = EnvelopeScratch::new();
        let mut acc = 0.0;
        for d in 0..draws {
            let ph = kernel.draw_phases(d).to_vec();
            s.fill(&swapped, &ph, None, grid);
            acc += s.peak(&swapped, &ph, None);
        }
        let fresh = acc / draws as f64;
        prop_assert!(
            (incr - fresh).abs() < 1e-9,
            "incremental {incr} vs fresh {fresh}"
        );
    }

    fn crn_commit_keeps_scores_consistent(
        offs in offsets(), seed in any::<u64>(), new_off in 1u32..300
    ) {
        // After committing a swap, the cached grids must score the new
        // set exactly as a kernel built directly on it would.
        let n = offs.len();
        prop_assume!(n >= 2);
        let draws = 3;
        let grid = 512;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut kernel = CrnKernel::new(&offs, draws, grid, &mut rng);
        kernel.score_swap(n - 1, new_off as f64);
        kernel.commit_swap(n - 1, new_off as f64);
        let committed = kernel.score_current();

        let mut swapped = offs.clone();
        swapped[n - 1] = new_off as f64;
        let mut s = EnvelopeScratch::new();
        let mut acc = 0.0;
        for d in 0..draws {
            let ph = kernel.draw_phases(d).to_vec();
            s.fill(&swapped, &ph, None, grid);
            acc += s.peak(&swapped, &ph, None);
        }
        let fresh = acc / draws as f64;
        prop_assert!(
            (committed - fresh).abs() < 1e-9,
            "committed {committed} vs fresh {fresh}"
        );
    }

    fn optimize_deterministic_per_seed(seed in any::<u64>()) {
        let cfg = FreqSelConfig {
            n_antennas: 3,
            rms_limit_hz: 199.0,
            max_offset_hz: 96,
            mc_draws: 4,
            grid: 128,
            restarts: 2,
            iterations: 10,
        };
        let a = optimize(&cfg, seed);
        let b = optimize(&cfg, seed);
        prop_assert_eq!(a.offsets_hz, b.offsets_hz);
        prop_assert_eq!(a.expected_peak, b.expected_peak);
        let p = pessimize(&cfg, seed);
        let q = pessimize(&cfg, seed);
        prop_assert_eq!(p.offsets_hz, q.offsets_hz);
        prop_assert_eq!(p.expected_peak, q.expected_peak);
    }
}
