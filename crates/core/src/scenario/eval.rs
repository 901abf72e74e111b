//! The uniform per-scenario workload the campaign driver runs.
//!
//! [`evaluate`] takes any [`Scenario`] and produces the three quantities
//! every campaign aggregates — CIB peak gain, power-up time, and decode
//! success — by running the common physics substrate: draw blind
//! channels for the placement, form the CIB envelope, drive the
//! harvester transient through the streaming block API, and key a Gen2
//! Query through the envelope ripple at the peak. Multi-sensor scenarios
//! run the Gen2 arbitration campaign instead and report inventory
//! success as their decode metric.
//!
//! Determinism: trial `i` draws from `seed.fork(i)`; the result depends
//! only on the scenario and the run mode, never on thread count.
//!
//! # Lazy session evaluation
//!
//! A single-sensor trial does only the work its [`ScenarioMetrics`]
//! depend on, with the same bits as sampling and integrating the whole
//! CIB period:
//!
//! - **256-aligned ranges.** [`time_to_power`] samples the period in
//!   blocks of [`RENORM_INTERVAL`] samples via
//!   [`CibEnvelope::sample_range`]. Each block starts on a rotator-chunk
//!   boundary, so the incremental rotation restarts from the same exact
//!   trig as the whole-period pass and every sample matches bit for bit.
//!   Plans the FFT synthesizes ([`CibEnvelope::samples_via_fft`]) keep
//!   whole-period sampling.
//! - **Sticky wake latch.** Only `powered` and `time_to_power_s` of the
//!   transient reach the metrics, and the harvester's wake index is
//!   never cleared once set, so integration stops at the first block
//!   after [`PowerUpState::is_powered`] turns true. Trials that never
//!   wake still integrate the whole period.
//! - **Argmax confirmation.** [`CibEnvelope::peak_over_period`] picks its
//!   grid argmax on `|z|²` and confirms it with `hypot` only near the
//!   maximum ([`crate::kernels::argmax_norm`]): the same index, ties to
//!   the last, as an argmax over the sampled envelope.
//! - **The `p == 0` identity.** Keying the Query through the ripple
//!   ([`CibEnvelope::key_raster`]) passes PIE notch samples through
//!   without evaluating the envelope: `p·Y == p` for `p == ±0` and any
//!   finite `Y ≥ 0`.
//!
//! The harvester's `harvester.charge_steps` obs counter counts the
//! samples actually integrated, so it reads lower than one period per
//! trial by design.
//!
//! [`PowerUpState::is_powered`]: ivn_harvester::powerup::PowerUpState::is_powered

use super::{Scenario, ScenarioKind};
use crate::kernels::{EnvelopeScratch, RENORM_INTERVAL};
use crate::multisensor::{run_campaign, scenario_deployment};
use crate::waveform::CibEnvelope;
use ivn_dsp::stats::Summary;
use ivn_dsp::units::dbm_to_watts;
use ivn_harvester::powerup::TagPowerProfile;
use ivn_rfid::commands::{Command, DivideRatio, Session, TagEncoding};
use ivn_rfid::link::LinkParams;
use ivn_rfid::pie;
use ivn_runtime::json::{Json, ToJson};
use ivn_runtime::rng::StdRng;

/// Block size for the streaming harvester transient: one rotator chunk,
/// so every block starts 256-aligned and the block sampler matches the
/// whole-period synthesis bit for bit.
const POWER_BLOCK: usize = RENORM_INTERVAL;

/// Campaign metrics for one evaluated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMetrics {
    /// Scenario name.
    pub name: String,
    /// Trial units contributing to the fractions.
    pub trials: usize,
    /// Per-trial CIB peak gain over one antenna, dB.
    pub gains_db: Vec<f64>,
    /// Power-up times of the trials that powered, seconds.
    pub times_to_power_s: Vec<f64>,
    /// Trials that reached operating voltage.
    pub powered: usize,
    /// Trials whose downlink decoded (or sensors inventoried).
    pub decoded: usize,
}

impl ScenarioMetrics {
    /// Fraction of trials that powered.
    pub fn powered_frac(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.powered as f64 / self.trials as f64
        }
    }

    /// Fraction of trials that decoded.
    pub fn decode_frac(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.decoded as f64 / self.trials as f64
        }
    }

    /// Gain summary (`None` when the scenario has no gain samples).
    pub fn gain_summary(&self) -> Option<Summary> {
        Summary::of(&self.gains_db)
    }

    /// Power-up-time summary (`None` when nothing powered).
    pub fn time_summary(&self) -> Option<Summary> {
        Summary::of(&self.times_to_power_s)
    }
}

impl ToJson for ScenarioMetrics {
    fn to_json(&self) -> Json {
        let opt = |s: Option<Summary>| s.map(|v| v.to_json()).unwrap_or(Json::Null);
        Json::obj([
            ("name", self.name.clone().into()),
            ("trials", self.trials.into()),
            ("gain_db", opt(self.gain_summary())),
            ("time_to_power_s", opt(self.time_summary())),
            ("powered_frac", self.powered_frac().into()),
            ("decode_frac", self.decode_frac().into()),
        ])
    }
}

/// A power-session sample rate [`evaluate`] cannot run with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateError {
    /// `powerup_rate` is not finite or below 1 S/s: the power-up grid of
    /// `powerup_rate as usize` samples per period would be empty.
    PowerUp(f64),
    /// `command_rate` is not finite and positive.
    Command(f64),
}

impl std::fmt::Display for RateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RateError::PowerUp(r) => {
                write!(f, "powerup_rate must be finite and >= 1 S/s, got {r}")
            }
            RateError::Command(r) => {
                write!(f, "command_rate must be finite and > 0 S/s, got {r}")
            }
        }
    }
}

impl std::error::Error for RateError {}

/// Envelope sample rates for the harvester transient and command keying.
fn rates(kind: &ScenarioKind) -> Result<(f64, f64), RateError> {
    let (powerup_rate, command_rate) = match kind {
        ScenarioKind::PowerSession {
            powerup_rate,
            command_rate,
        } => (*powerup_rate, *command_rate),
        _ => (4096.0, 400e3),
    };
    if !(powerup_rate.is_finite() && powerup_rate >= 1.0) {
        return Err(RateError::PowerUp(powerup_rate));
    }
    if !(command_rate.is_finite() && command_rate > 0.0) {
        return Err(RateError::Command(command_rate));
    }
    Ok((powerup_rate, command_rate))
}

/// When a tag with `power`, driven by one CIB period of `envelope`
/// sampled at `rate` S/s, first reaches its operating voltage (`None`:
/// never within the period).
///
/// Bit-identical to the `time_to_power_s` of
/// [`TagPowerProfile::power_up`] over the squared
/// [`CibEnvelope::sample_period`]`(rate as usize)`, but the period is
/// sampled and integrated block by block and the integration stops at
/// the wake (see the module docs).
pub fn time_to_power(envelope: &CibEnvelope, power: &TagPowerProfile, rate: f64) -> Option<f64> {
    let grid = rate as usize;
    // The block sampler reproduces the direct synthesis only; a plan the
    // FFT synthesizes keeps sampling the whole period up front.
    let whole = envelope
        .samples_via_fft(grid)
        .then(|| envelope.sample_period(grid));
    let mut scratch = EnvelopeScratch::new();
    let mut state = power.begin_power_up(rate);
    let mut power_block = Vec::with_capacity(POWER_BLOCK);
    for start in (0..grid).step_by(POWER_BLOCK) {
        let range = start..(start + POWER_BLOCK).min(grid);
        power_block.clear();
        match &whole {
            Some(amp) => power_block.extend(amp[range].iter().map(|a| a * a)),
            None => power_block.extend(
                envelope
                    .sample_range(grid, range, &mut scratch)
                    .map(|a| a * a),
            ),
        }
        state.step_block(&power_block);
        if state.is_powered() {
            break;
        }
    }
    state.finish().time_to_power_s
}

/// Evaluates one scenario. Runs its trials serially — trial `i` draws
/// from stream `fork(i)` of the scenario seed — so the campaign driver
/// can parallelize across scenarios without nesting dispatches; the
/// result is identical at any thread count regardless.
pub fn evaluate(s: &Scenario, quick: bool) -> Result<ScenarioMetrics, String> {
    let placement = s.placement.resolve().map_err(|e| e.reason)?;
    let cib = s.cib(quick);
    let tag = s.tag.spec();
    let eirp_w = dbm_to_watts(s.eirp_dbm);
    let trials = s.trial_count(quick).max(1);
    let root = StdRng::seed_from_u64(s.seed);

    if let ScenarioKind::MultiSensor {
        population,
        max_rounds,
        ..
    } = &s.kind
    {
        let population = (*population).max(1);
        let sensors = scenario_deployment(s)?;
        ivn_runtime::obs_count!("experiment.trials", trials * population);
        let runs: Vec<_> = (0..trials)
            .map(|i| {
                let rng = &mut root.fork(i as u64);
                run_campaign(rng, &cib, s.eirp_dbm, &sensors, *max_rounds)
            })
            .collect();
        let mut metrics = ScenarioMetrics {
            name: s.name.clone(),
            trials: trials * population,
            gains_db: Vec::new(),
            times_to_power_s: Vec::new(),
            powered: 0,
            decoded: 0,
        };
        for outcome in runs.iter().flatten() {
            metrics.powered += outcome.powered as usize;
            metrics.decoded += outcome.inventoried as usize;
        }
        return Ok(metrics);
    }

    if let ScenarioKind::Inventory { population, .. } = &s.kind {
        let exp = crate::inventory::InventoryExperiment::prepare(s, quick)?;
        ivn_runtime::obs_count!("experiment.trials", trials * population.count);
        let runs: Vec<_> = (0..trials)
            .map(|i| exp.run_trial(&root.fork(i as u64)))
            .collect();
        let mut metrics = ScenarioMetrics {
            name: s.name.clone(),
            trials: trials * population.count,
            gains_db: Vec::new(),
            times_to_power_s: Vec::new(),
            powered: 0,
            decoded: 0,
        };
        for run in &runs {
            metrics.powered += run.powered;
            metrics.decoded += run.inventoried;
        }
        return Ok(metrics);
    }

    // Single-sensor substrate: gain → power-up transient → downlink.
    let (powerup_rate, command_rate) = rates(&s.kind).map_err(|e| e.to_string())?;
    ivn_runtime::obs_count!("experiment.trials", trials);
    let _eval_span = ivn_runtime::span!("experiment.scenario_eval_ns");
    let query = Command::Query {
        dr: DivideRatio::Dr8,
        m: TagEncoding::Fm0,
        trext: false,
        session: Session::S0,
        q: 0,
    };
    let bits = query.encode();
    let link = LinkParams::paper_defaults();
    let pie_runs = pie::encode_frame(&bits, &link.pie, query.needs_trcal());
    let profile = pie::rasterize(&pie_runs, command_rate, 0.0);

    struct TrialOut {
        gain_db: f64,
        powered: bool,
        time_to_power_s: Option<f64>,
        decoded: bool,
    }

    let outs = (0..trials).map(|i| {
        let rng = &mut root.fork(i as u64);
        let trial = placement.draw_trial(rng, cib.n(), &tag, eirp_w, cib.carrier_hz);
        let envelope = cib.envelope_at(&trial.channels);
        let single_w = trial.channels[0].norm_sqr();
        let (t_peak, peak_amp) = envelope.peak_over_period(cib.grid);
        let gain_db = 10.0 * (peak_amp * peak_amp / single_w).log10();

        let time_to_power_s = time_to_power(&envelope, &tag.power, powerup_rate);
        let powered = time_to_power_s.is_some();

        // Downlink Query keyed on the envelope peak, decoded through the
        // CIB ripple (only meaningful once powered).
        let decoded = powered && {
            let t_start = t_peak - profile.len() as f64 / command_rate / 2.0;
            let tag_env = envelope.key_raster(&profile, t_start, command_rate);
            pie::decode_frame(&tag_env, command_rate)
                .map(|d| d == bits)
                .unwrap_or(false)
        };
        TrialOut {
            gain_db,
            powered,
            time_to_power_s,
            decoded,
        }
    });

    let mut metrics = ScenarioMetrics {
        name: s.name.clone(),
        trials,
        gains_db: Vec::with_capacity(trials),
        times_to_power_s: Vec::new(),
        powered: 0,
        decoded: 0,
    };
    for o in outs {
        metrics.gains_db.push(o.gain_db);
        if let Some(t) = o.time_to_power_s {
            metrics.times_to_power_s.push(t);
        }
        metrics.powered += o.powered as usize;
        metrics.decoded += o.decoded as usize;
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::super::builtin;
    use super::*;

    #[test]
    fn session_builtin_powers_and_decodes() {
        let s = builtin("session").unwrap();
        let m = evaluate(&s, true).unwrap();
        assert_eq!(m.trials, 4);
        assert_eq!(m.gains_db.len(), 4);
        assert!(m.powered_frac() > 0.5, "powered {}", m.powered_frac());
        assert!(m.decode_frac() > 0.0, "decoded {}", m.decode_frac());
        assert_eq!(m.times_to_power_s.len(), m.powered);
        let g = m.gain_summary().unwrap();
        assert!(g.median > 5.0 && g.median < 25.0, "gain {g}");
    }

    #[test]
    fn evaluate_is_deterministic() {
        let s = builtin("session").unwrap();
        let a = evaluate(&s, true).unwrap();
        let b = evaluate(&s, true).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json().dump(), b.to_json().dump());
    }

    #[test]
    fn multisensor_builtin_inventories_population() {
        let s = builtin("multisensor").unwrap();
        let m = evaluate(&s, true).unwrap();
        assert_eq!(m.trials, 15); // 3 trials × 5 sensors
        assert!(m.gains_db.is_empty());
        assert!(m.powered_frac() > 0.5, "powered {}", m.powered_frac());
        assert!(m.decode_frac() > 0.0, "inventoried {}", m.decode_frac());
        assert_eq!(m.to_json().get("gain_db"), Some(&Json::Null));
    }

    #[test]
    fn evaluate_counts_experiment_trials() {
        // The campaign path must feed the same `experiment.trials`
        // counter the figure experiments do — it was stuck at zero in
        // the embedded obs_report because only figure entry points
        // incremented it.
        ivn_runtime::obs::set_enabled(true);
        let before = ivn_runtime::obs::report()
            .counter("experiment.trials")
            .unwrap_or(0);
        let s = builtin("session").unwrap();
        let m = evaluate(&s, true).unwrap();
        let multi = builtin("multisensor").unwrap();
        let mm = evaluate(&multi, true).unwrap();
        let after = ivn_runtime::obs::report()
            .counter("experiment.trials")
            .unwrap_or(0);
        assert!(after > before, "experiment.trials did not advance");
        assert!(
            after - before >= (m.trials + mm.trials) as u64,
            "expected >= {} new trials, got {}",
            m.trials + mm.trials,
            after - before
        );
    }

    #[test]
    fn invalid_session_rates_are_typed_errors() {
        let session = |powerup_rate, command_rate| ScenarioKind::PowerSession {
            powerup_rate,
            command_rate,
        };
        // Compared as text: `RateError` holds the rejected value, NaN
        // included.
        for r in [0.5, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                rates(&session(r, 400e3)).map_err(|e| e.to_string()),
                Err(RateError::PowerUp(r).to_string())
            );
        }
        for r in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                rates(&session(2048.0, r)).map_err(|e| e.to_string()),
                Err(RateError::Command(r).to_string())
            );
        }
        assert_eq!(rates(&session(1.0, 1.0)), Ok((1.0, 1.0)));

        let mut s = builtin("session").unwrap();
        s.kind = session(0.5, 400e3);
        let err = evaluate(&s, true).unwrap_err();
        assert!(err.contains("powerup_rate"), "{err}");
        // The smallest valid rates evaluate (one-sample grids) without
        // a panic.
        s.kind = session(1.0, 0.5);
        assert_eq!(evaluate(&s, true).unwrap().trials, 4);
    }

    #[test]
    fn unknown_medium_is_an_error_not_a_panic() {
        let mut s = builtin("session").unwrap();
        s.placement = super::super::PlacementSpec::MediaBox {
            medium: "unobtainium".into(),
            depth_m: 0.05,
        };
        let err = evaluate(&s, true).unwrap_err();
        assert!(err.contains("unobtainium"), "{err}");
    }
}
