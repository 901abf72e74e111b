//! Bit-exactness witness for the out-of-band reader's two-pass front end.
//!
//! `OobReader::receive_and_decode` synthesizes the front-end samples once
//! into a reused buffer and fuses ADC conversion, the saturation count,
//! the DDC residual and coherent averaging into a second pass. The
//! reference below is the straightforward composition it replaced: every
//! intermediate signal materialized, then `Adc::convert`,
//! `Adc::saturation_fraction` and `coherent_average`. Both must agree bit
//! for bit on every output, and must leave the caller's RNG in the same
//! state (the next session of a range bisection draws from it).

use ivn_core::oob::{DecodeResult, JamTone, OobReader, OobReaderConfig};
use ivn_dsp::complex::Complex64;
use ivn_dsp::correlate::{best_match_real, coherent_average};
use ivn_dsp::noise::AwgnSource;
use ivn_rfid::fm0::Fm0;
use ivn_runtime::prop::{any, vec as pvec, Just, Strategy};
use ivn_runtime::rng::{Rng, StdRng};
use ivn_runtime::{prop_assert, prop_assert_eq, prop_oneof, props};
use std::f64::consts::TAU;

/// The reader front end with every intermediate signal materialized.
fn reference_decode<R: Rng + ?Sized>(
    cfg: &OobReaderConfig,
    rng: &mut R,
    uplink_amplitude: f64,
    message_bits: &[bool],
    samples_per_half: usize,
    jam: &[JamTone],
    period_samples: usize,
) -> DecodeResult {
    let fs = cfg.sample_rate;
    let fm0 = Fm0::new(samples_per_half);
    let mut bits = ivn_rfid::PAPER_PREAMBLE_BITS.to_vec();
    bits.extend_from_slice(message_bits);
    let baseband = fm0.encode(&bits);
    assert!(baseband.len() <= period_samples);
    let leak_amp = uplink_amplitude.max(1e-12)
        * ivn_dsp::units::db_to_amplitude(40.0)
        * ivn_dsp::units::db_to_amplitude(-cfg.self_leak_db);
    let mut noise = AwgnSource::new(cfg.noise_watts);
    let total = period_samples * cfg.averaging_periods;
    // (state, rotation, DDC gain) per tone.
    let mut jam_osc: Vec<(Complex64, Complex64, f64)> = jam
        .iter()
        .map(|t| {
            let df = t.freq_hz - cfg.carrier_hz;
            let saw_gain = if cfg.use_saw {
                cfg.saw.gain_at(t.freq_hz)
            } else {
                1.0
            };
            let ddc_gain = if df.abs() > fs / 2.0 {
                ivn_dsp::units::db_to_amplitude(-cfg.ddc_rejection_db)
            } else {
                1.0
            };
            (
                Complex64::from_polar(t.amplitude * saw_gain, t.phase),
                Complex64::cis(TAU * df / fs),
                ddc_gain,
            )
        })
        .collect();
    let self_gain = if cfg.use_saw {
        cfg.saw.gain_at(cfg.carrier_hz)
    } else {
        1.0
    };
    let mut frontend = Vec::with_capacity(total);
    let mut ddc_jam = Vec::with_capacity(total);
    for k in 0..total {
        let in_period = k % period_samples;
        let bb = if in_period < baseband.len() {
            baseband[in_period]
        } else {
            0.0
        };
        let signal = Complex64::from_real(uplink_amplitude * 0.5 * bb) * self_gain;
        let leak = Complex64::from_real(leak_amp) * self_gain;
        let base = signal + leak + noise.sample(rng);
        let mut jam_full = Complex64::ZERO;
        let mut jam_filtered = Complex64::ZERO;
        for (state, rot, ddc_gain) in jam_osc.iter_mut() {
            jam_full += *state;
            jam_filtered += *state * *ddc_gain;
            *state *= *rot;
        }
        frontend.push(base + jam_full);
        ddc_jam.push(jam_filtered - jam_full);
    }
    let rms = (frontend.iter().map(|s| s.norm_sqr()).sum::<f64>() / frontend.len() as f64)
        .sqrt()
        .max(1e-30);
    let agc_gain = 0.25 * cfg.adc.full_scale / rms;
    let converted: Vec<Complex64> = frontend
        .iter()
        .zip(&ddc_jam)
        .map(|(s, dj)| cfg.adc.convert(*s * agc_gain) * (1.0 / agc_gain) + *dj)
        .collect();
    let scaled: Vec<Complex64> = frontend.iter().map(|s| *s * agc_gain).collect();
    let saturation = cfg.adc.saturation_fraction(&scaled);
    let averaged =
        coherent_average(&converted, period_samples, cfg.averaging_periods).expect("sized above");

    let mean: Complex64 = averaged.iter().copied().sum::<Complex64>() / averaged.len() as f64;
    let real_env: Vec<f64> = averaged.iter().map(|s| (*s - mean).re).collect();
    let template = ivn_rfid::fm0::preamble_waveform(samples_per_half);
    let (offset, correlation) = best_match_real(&real_env, &template).unwrap_or((0, 0.0));
    let success = correlation >= cfg.correlation_threshold;
    let payload = if success {
        let start = offset + template.len();
        let end = (start + message_bits.len() * samples_per_half * 2).min(real_env.len());
        if end > start {
            fm0.decode(&real_env[start..end])
        } else {
            Vec::new()
        }
    } else {
        Vec::new()
    };
    DecodeResult {
        correlation,
        success,
        offset,
        payload,
        adc_saturation: saturation,
    }
}

/// Log-uniform amplitude over `[10^lo, 10^hi)`.
fn log_amp(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    (lo..hi).prop_map(|e| 10f64.powf(e))
}

/// A tone at `carrier + df`: in the DDC passband (gain 1), just outside
/// it, or at the beamformer band the paper's reader has to reject.
fn jam_tone() -> impl Strategy<Value = (u8, f64, f64, f64)> {
    (0u8..3, -1.0f64..1.0, -6.0f64..0.5, 0.0f64..TAU)
}

fn place_tone(cfg: &OobReaderConfig, (kind, u, log_amp, phase): (u8, f64, f64, f64)) -> JamTone {
    let half = cfg.sample_rate / 2.0;
    let freq_hz = match kind {
        0 => cfg.carrier_hz + u * half,
        1 => cfg.carrier_hz + u.signum() * (half + u.abs() * 20e6),
        _ => cfg.beamformer_hz + u * 1e3,
    };
    JamTone {
        freq_hz,
        amplitude: 10f64.powf(log_amp),
        phase,
    }
}

fn reader_config() -> impl Strategy<Value = OobReaderConfig> {
    (
        any::<bool>(),
        prop_oneof![Just(1usize), Just(2usize), Just(20usize), Just(64usize)],
        prop_oneof![Just(0.0), log_amp(-12.0, -6.0)],
        0.0f64..100.0,
        4u32..15,
    )
        .prop_map(|(paper, periods, noise_watts, self_leak_db, bits)| {
            let mut cfg = if paper {
                OobReaderConfig::paper_defaults()
            } else {
                OobReaderConfig::in_band_ablation()
            };
            cfg.averaging_periods = periods;
            cfg.noise_watts = noise_watts;
            cfg.self_leak_db = self_leak_db;
            cfg.adc = ivn_sdr::adc::Adc::new(0.5, bits);
            cfg
        })
}

fn bits_of(r: &DecodeResult) -> (u64, bool, usize, Vec<bool>, u64) {
    (
        r.correlation.to_bits(),
        r.success,
        r.offset,
        r.payload.clone(),
        r.adc_saturation.to_bits(),
    )
}

props! {
    cases = 64;

    fn two_pass_decode_matches_materialized_reference(
        cfg in reader_config(),
        period_samples in 200usize..=8_000,
        samples_per_half in 1usize..=8,
        message in pvec(any::<bool>(), 0..=16),
        uplink in prop_oneof![Just(0.0), log_amp(-8.0, 0.0)],
        tones in pvec(jam_tone(), 0..=10),
        seed in any::<u64>(),
    ) {
        // Keep the preamble + payload inside one period.
        let room = period_samples / (2 * samples_per_half) - ivn_rfid::PAPER_PREAMBLE_BITS.len();
        let message = &message[..message.len().min(room)];
        let jam: Vec<JamTone> = tones.into_iter().map(|t| place_tone(&cfg, t)).collect();

        let mut rng_ref = StdRng::seed_from_u64(seed);
        let want = reference_decode(
            &cfg, &mut rng_ref, uplink, message, samples_per_half, &jam, period_samples,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let got = OobReader::new(cfg).receive_and_decode(
            &mut rng, uplink, message, samples_per_half, &jam, period_samples,
        );
        prop_assert_eq!(bits_of(&got), bits_of(&want));
        prop_assert!(rng == rng_ref, "RNG state diverged after the decode");
    }
}

/// The generated cases must reach the regimes the witness is meant to
/// cover: clean decodes, ADC saturation, and DDC-passband tones.
#[test]
fn witness_cases_reach_saturation_and_decodes() {
    let mut cfg = OobReaderConfig::in_band_ablation();
    cfg.noise_watts = 0.0;
    cfg.self_leak_db = 90.0;
    cfg.averaging_periods = 2;
    let jam = [JamTone {
        freq_hz: cfg.carrier_hz + 10e3,
        amplitude: 1e-9,
        phase: 0.3,
    }];
    let msg: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
    let mut rng_ref = StdRng::seed_from_u64(9);
    let want = reference_decode(&cfg, &mut rng_ref, 1e-3, &msg, 1, &jam, 8_000);
    let mut rng = StdRng::seed_from_u64(9);
    let got = OobReader::new(cfg).receive_and_decode(&mut rng, 1e-3, &msg, 1, &jam, 8_000);
    assert!(got.adc_saturation > 0.0, "burst did not saturate the ADC");
    assert_eq!(bits_of(&got), bits_of(&want));
    assert!(rng == rng_ref);

    let cfg = OobReaderConfig::paper_defaults();
    let mut rng_ref = StdRng::seed_from_u64(10);
    let want = reference_decode(&cfg, &mut rng_ref, 1e-3, &msg, 4, &[], 2_000);
    let mut rng = StdRng::seed_from_u64(10);
    let got = OobReader::new(cfg).receive_and_decode(&mut rng, 1e-3, &msg, 4, &[], 2_000);
    assert!(got.success && got.payload == msg);
    assert_eq!(bits_of(&got), bits_of(&want));
    assert!(rng == rng_ref);
}
