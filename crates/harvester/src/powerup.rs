//! End-to-end power-up decision for a battery-free tag.
//!
//! Given the received RF power envelope at the tag's antenna terminals,
//! decides whether the chip powers up — the gate every experiment in the
//! paper ultimately tests. The chain is:
//!
//! ```text
//! P(t) ──(input resistance)──▶ Vs(t) ──(Dickson pump)──▶ V_DC(t) ──▶ chip
//! ```
//!
//! with `Vs = √(2·P·R_in)` the carrier amplitude across the rectifier
//! input, and the chip alive once `V_DC` reaches its operating voltage.
//!
//! ## Calibration (DESIGN.md §5)
//!
//! The standard-tag profile is anchored so that a single 37 dBm-EIRP
//! antenna powers it at ≈ 5.2 m in free space, the paper's measured
//! single-antenna range: with a 4-stage pump, a 250 mV diode, an 0.8 V
//! operating point and `R_in ≈ 1012 Ω`, the *peak* power needed to wake
//! the chip is `(vth + v_op/N)²/(2R_in) = 1.0e−4 W = −10 dBm`. The
//! miniature tag couples far less power (mm-scale antenna, poor
//! matching): `R_in ≈ 101 Ω` puts its wake-up requirement at 0 dBm,
//! reproducing the ~10× shorter range of the paper's Fig. 13b.
//!
//! ## Integration speed (DESIGN.md §8)
//!
//! The pump step is an exact first-order recurrence
//! `v' = target + (v − target)·α` with `α = exp(−dt/RC)` *constant per
//! stream*, so [`PowerUpState::step_block`] hoists the exponential out
//! of the per-sample loop — bit-identical to stepping
//! [`Rectifier::step`] every sample (the preserved
//! [`TagPowerProfile::power_up_oracle`]). On top of that,
//! [`PowerUpState::step_run`] fast-forwards a *run* of `m` equal-power
//! samples in closed form, `v_{k+m} = target + (v_k − target)·α^m`
//! (wake index recovered with one log), so piecewise-constant PIE/CW
//! envelopes integrate in O(runs) instead of O(samples). The
//! fast-forward is bit-identical under any split of a run into sub-runs
//! (segments are anchored at data-determined absolute indices, never at
//! call boundaries) and stays within ≤1e-9 of the oracle; a length-1
//! run degenerates to exactly the scalar ops.

use crate::diode::DiodeModel;
use crate::rectifier::Rectifier;

/// Electrical power-up profile of a battery-free tag.
#[derive(Debug, Clone, PartialEq)]
pub struct TagPowerProfile {
    /// Descriptive name.
    pub name: String,
    /// Rectifier input resistance, ohms (sets power→voltage coupling).
    pub r_in: f64,
    /// The charge pump.
    pub rectifier: Rectifier,
    /// DC supply voltage at which the chip wakes, volts.
    pub v_operate: f64,
    /// On-chip storage capacitance, farads.
    pub c_storage: f64,
    /// Chip current draw once awake, amps.
    pub i_chip: f64,
}

impl TagPowerProfile {
    /// The standard UHF tag (Avery AD-238u8 class).
    pub fn standard_tag() -> Self {
        TagPowerProfile {
            name: "standard tag".into(),
            r_in: 1012.5,
            rectifier: Rectifier::new(4, DiodeModel::typical_rfid(), 2000.0),
            v_operate: 0.8,
            c_storage: 1e-9,
            i_chip: 5e-6,
        }
    }

    /// The miniature implantable tag (Xerafy Dash-On XS class): same chip
    /// family, far poorer antenna coupling.
    pub fn miniature_tag() -> Self {
        TagPowerProfile {
            name: "miniature tag".into(),
            r_in: 101.25,
            rectifier: Rectifier::new(4, DiodeModel::typical_rfid(), 2000.0),
            v_operate: 0.8,
            c_storage: 1e-9,
            i_chip: 5e-6,
        }
    }

    /// Carrier amplitude at the rectifier input for received power `p`
    /// watts: `√(2·P·R_in)`.
    pub fn input_amplitude(&self, p_watts: f64) -> f64 {
        assert!(p_watts >= 0.0, "power must be non-negative");
        (2.0 * p_watts * self.r_in).sqrt()
    }

    /// Static sensitivity: the continuous-wave received power below which
    /// the tag can never power up (input amplitude at the diode threshold),
    /// watts.
    pub fn static_sensitivity_watts(&self) -> f64 {
        let vth = self.rectifier.input_threshold();
        vth * vth / (2.0 * self.r_in)
    }

    /// Static sensitivity in dBm.
    pub fn static_sensitivity_dbm(&self) -> f64 {
        ivn_dsp::units::watts_to_dbm(self.static_sensitivity_watts())
    }

    /// Runs the power-up simulation over a received-power envelope
    /// (watts per sample at `sample_rate`). Returns the outcome.
    ///
    /// Thin wrapper over the resumable streaming core
    /// ([`Self::begin_power_up`]): the whole envelope is one block, so
    /// batch and streaming integration are identical by construction.
    pub fn power_up(&self, power_envelope: &[f64], sample_rate: f64) -> PowerUpOutcome {
        let mut state = self
            .begin_power_up(sample_rate)
            .with_trace_stride((power_envelope.len() / 32).max(1));
        state.step_block(power_envelope);
        state.finish()
    }

    /// Runs the power-up simulation over a run-length encoded envelope:
    /// `(power_watts, samples)` pairs at `sample_rate`. Each run is
    /// integrated in closed form ([`PowerUpState::step_run`]), so the
    /// cost is O(runs) regardless of the sample count — the fast path
    /// for the piecewise-constant PIE/CW envelopes a
    /// [`RunRasterizer`](../../ivn_rfid/stream/struct.RunRasterizer.html)
    /// produces.
    pub fn power_up_runs(&self, runs: &[(f64, usize)], sample_rate: f64) -> PowerUpOutcome {
        let total: usize = runs.iter().map(|&(_, m)| m).sum();
        let mut state = self
            .begin_power_up(sample_rate)
            .with_trace_stride((total / 32).max(1));
        for &(p, m) in runs {
            state.step_run(p, m);
        }
        state.finish()
    }

    /// The pre-fast-forward reference integrator: steps
    /// [`Rectifier::step`] (with its per-sample exponential) for every
    /// sample. [`Self::power_up`] is bit-identical to this; the O(runs)
    /// fast-forward ([`Self::power_up_runs`]) is pinned to ≤1e-9 of it
    /// by the property suite.
    pub fn power_up_oracle(&self, power_envelope: &[f64], sample_rate: f64) -> PowerUpOutcome {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        let dt = 1.0 / sample_rate;
        let mut v = 0.0f64;
        let mut v_peak = 0.0f64;
        let mut awake_at: Option<usize> = None;
        for (n, &p) in power_envelope.iter().enumerate() {
            let amp = self.input_amplitude(p);
            let i_load = if awake_at.is_some() { self.i_chip } else { 0.0 };
            v = self.rectifier.step(v, amp, dt, self.c_storage, i_load);
            v_peak = v_peak.max(v);
            if awake_at.is_none() && v >= self.v_operate {
                awake_at = Some(n);
            }
        }
        PowerUpOutcome {
            powered: awake_at.is_some(),
            time_to_power_s: awake_at.map(|n| n as f64 / sample_rate),
            peak_vdc: v_peak,
            final_vdc: v,
        }
    }

    /// Starts a resumable power-up integration at `sample_rate`: feed
    /// received-power blocks through [`PowerUpState::step_block`] (or
    /// equal-power runs through [`PowerUpState::step_run`]), then read
    /// [`PowerUpState::finish`]. Pump voltage, peak tracking and the
    /// wake timestamp all carry across block boundaries, so any block
    /// split produces the same outcome as [`Self::power_up`].
    pub fn begin_power_up(&self, sample_rate: f64) -> PowerUpState<'_> {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        let dt = 1.0 / sample_rate;
        let alpha = self.rectifier.charge_alpha(dt, self.c_storage);
        PowerUpState {
            profile: self,
            sample_rate,
            alpha,
            drain: self.i_chip * dt / self.c_storage,
            stages_f: self.rectifier.stages as f64,
            vth: self.rectifier.input_threshold(),
            v: 0.0,
            v_peak: 0.0,
            awake_at: None,
            n: 0,
            trace_stride: 1,
            crossing_counted: false,
            run: None,
        }
    }

    /// Fast analytic check used by range sweeps: can a *peak* received
    /// power `p_peak` ever wake the chip, i.e. does the steady-state pump
    /// output at that drive clear `v_operate`?
    pub fn can_power_at_peak(&self, p_peak_watts: f64) -> bool {
        let vs = self.input_amplitude(p_peak_watts);
        self.rectifier.steady_state_vdc(vs) >= self.v_operate
    }

    /// The peak received power (watts) needed to satisfy
    /// [`Self::can_power_at_peak`]: inverts `N(√(2PR) − vth) = v_op`.
    pub fn required_peak_power_watts(&self) -> f64 {
        let vth = self.rectifier.input_threshold();
        let n = self.rectifier.stages as f64;
        let vs_needed = vth + self.v_operate / n;
        vs_needed * vs_needed / (2.0 * self.r_in)
    }
}

/// `base^e` by binary exponentiation — a deterministic function of
/// `(base, e)`, which is what makes the run fast-forward split-invariant
/// (any sub-run split re-evaluates the same `α^k` at the same anchored
/// `k`). `pow_int(α, 1) == α` exactly, so a length-1 run reproduces the
/// scalar step bit for bit.
fn pow_int(base: f64, mut e: u64) -> f64 {
    let mut acc = 1.0f64;
    let mut b = base;
    while e > 0 {
        if e & 1 == 1 {
            acc *= b;
        }
        b *= b;
        e >>= 1;
    }
    acc
}

/// Dynamics of the open run segment. With constant drive the oracle's
/// per-sample branches are constant until a data-determined event (wake,
/// or the drain trajectory falling below the charge target), so a run
/// decomposes into at most a handful of closed-form segments.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Regime {
    /// Diodes block, chip asleep: `v` constant.
    Hold,
    /// Asleep, charging toward `target`: `v(k) = t + (v₀−t)·α^k`.
    Charge,
    /// Awake, charging against the chip draw:
    /// `v(k) = t + (v₀−t)·α^k − drain·(1−α^k)/(1−α)`, clamped at 0.
    AwakeCharge,
    /// Awake, diodes blocked: `v(k) = v₀ − k·drain`, clamped at 0.
    AwakeDrain,
    /// Degenerate parameters (non-positive fixed point): integrate this
    /// run sample by sample with the exact oracle ops.
    Scalar,
}

/// The open constant-power run segment of a [`PowerUpState`]. Anchored
/// at the absolute sample index where its regime began — never at a
/// `step_run` call boundary — so any split of a run into sub-runs
/// evaluates the identical closed forms.
#[derive(Debug, Clone, Copy)]
struct RunSeg {
    /// Bit pattern of the run's power value (runs are exact-equality).
    p_bits: u64,
    /// Steady-state pump target for this drive.
    target: f64,
    /// Pump voltage entering the segment (before its first sample).
    v0: f64,
    /// Absolute index of the segment's first sample.
    start_n: usize,
    /// Samples consumed so far.
    k: u64,
    /// Sample count at which a regime transition fires (`u64::MAX`: none).
    event_k: u64,
    regime: Regime,
}

/// Resumable Dickson-pump charge integration — the streaming core
/// behind [`TagPowerProfile::power_up`].
///
/// The integrator is a first-order recurrence (each step depends only
/// on the previous pump voltage and the current input amplitude), so
/// carrying `v`, the running peak and the wake index across block
/// boundaries reproduces the whole-buffer loop exactly: pushing the
/// same envelope in blocks of 1 or 4096 yields bit-identical outcomes.
/// Equal-power runs can additionally be fast-forwarded in closed form
/// via [`Self::step_run`].
#[derive(Debug, Clone)]
pub struct PowerUpState<'a> {
    profile: &'a TagPowerProfile,
    sample_rate: f64,
    /// `exp(−dt/RC)`, hoisted: the same float [`Rectifier::step`] would
    /// recompute every sample.
    alpha: f64,
    /// Awake load subtraction per step, `i_chip·dt/C`.
    drain: f64,
    stages_f: f64,
    vth: f64,
    v: f64,
    v_peak: f64,
    awake_at: Option<usize>,
    /// Global sample index (drives the trace stride and wake timestamp).
    n: usize,
    trace_stride: usize,
    crossing_counted: bool,
    /// Open equal-power run, if the last call was a `step_run`.
    run: Option<RunSeg>,
}

impl PowerUpState<'_> {
    /// Sets the physics-probe stride: the banked energy (½·C·V²) is
    /// emitted as a `physics.harvested_charge_j` trace counter every
    /// `stride` samples. The whole-buffer wrapper uses ~32 points across
    /// the transient; a streaming driver should derive the stride from
    /// its expected total sample count.
    ///
    /// # Panics
    /// Panics if `stride` is zero.
    pub fn with_trace_stride(mut self, stride: usize) -> Self {
        assert!(stride > 0, "trace stride must be positive");
        self.trace_stride = stride;
        self
    }

    /// Integrates one block of received power (watts per sample).
    ///
    /// Bit-identical to [`TagPowerProfile::power_up_oracle`] over the
    /// same samples: the loop performs the oracle's exact op sequence
    /// with `α` (and the load term) hoisted out of the exponential.
    pub fn step_block(&mut self, power_block: &[f64]) {
        let _span = ivn_runtime::span!("harvester.power_up_ns");
        ivn_runtime::obs_count!("harvester.charge_steps", power_block.len());
        self.close_run();
        self.step_samples(power_block.iter().copied());
    }

    /// Integrates one block of complex rx samples, converting each to
    /// received power as `|v|²·scale` inline.
    ///
    /// Bit-identical to materializing the power vector and calling
    /// [`Self::step_block`] — the per-sample op order is the same, each
    /// sample's power is computed independently — with one less memory
    /// pass, which is what keeps streaming integration above the
    /// 100 MS/s gate.
    pub fn step_rx_block(&mut self, rx: &[ivn_dsp::Complex64], scale: f64) {
        let _span = ivn_runtime::span!("harvester.power_up_ns");
        ivn_runtime::obs_count!("harvester.charge_steps", rx.len());
        self.close_run();
        self.step_samples(rx.iter().map(|&v| v.norm_sqr() * scale));
    }

    /// The shared per-sample integration loop: the oracle's exact op
    /// sequence with `α` (and the load term) hoisted. Monomorphized per
    /// sample source so the fused complex path pays no indirection.
    #[inline]
    fn step_samples(&mut self, samples: impl Iterator<Item = f64>) {
        let r_in = self.profile.r_in;
        let (stages_f, vth) = (self.stages_f, self.vth);
        let (alpha, drain, v_op) = (self.alpha, self.drain, self.profile.v_operate);
        let tracing = ivn_runtime::trace::enabled();
        let (mut v, mut v_peak, mut awake_at, mut n) = (self.v, self.v_peak, self.awake_at, self.n);
        for p in samples {
            assert!(p >= 0.0, "power must be non-negative");
            let amp = (2.0 * p * r_in).sqrt();
            let target = (stages_f * (amp - vth)).max(0.0);
            // Branchless select: in CIB steady state `target > v`
            // flips almost every sample (the beat envelope oscillates
            // around the settled voltage), so a branch here mispredicts
            // constantly. Computing the charged value unconditionally
            // and selecting costs two always-run flops but no pipeline
            // flushes — and picks the identical bits either way.
            let charged = target + (v - target) * alpha;
            v = if target > v { charged } else { v };
            // The load current is decided *before* the step (the oracle
            // passes `i_load` into `Rectifier::step`), so the wake
            // sample itself draws nothing; subtracting a zero load and
            // re-clamping is a bitwise no-op on v ≥ 0, so the asleep
            // branch skips it entirely.
            if awake_at.is_some() {
                v = (v - drain).max(0.0);
            } else if v >= v_op {
                awake_at = Some(n);
            }
            v_peak = v_peak.max(v);
            // The stride check stays behind the enabled() load so the
            // charge loop pays one relaxed load per step when tracing
            // is off.
            if tracing && n % self.trace_stride == 0 {
                ivn_runtime::trace_counter!(
                    "physics.harvested_charge_j",
                    0.5 * self.profile.c_storage * v * v
                );
            }
            n += 1;
        }
        self.v = v;
        self.v_peak = v_peak;
        self.awake_at = awake_at;
        self.n = n;
    }

    /// Fast-forwards `m` samples of constant received power `p` in
    /// closed form: O(regime transitions) per call instead of O(m).
    ///
    /// Consecutive calls with the same `p` continue the same anchored
    /// run, so any split of a run into sub-runs is bit-identical; a
    /// length-1 run performs exactly the scalar ops. Relative to the
    /// per-sample path the closed form drifts only by accumulated
    /// rounding (pinned ≤1e-9 by `tests/powerup_props.rs`).
    pub fn step_run(&mut self, p: f64, m: usize) {
        let _span = ivn_runtime::span!("harvester.power_up_ns");
        ivn_runtime::obs_count!("harvester.charge_steps", m);
        assert!(p >= 0.0, "power must be non-negative");
        if self.alpha >= 1.0 {
            // Degenerate RC (dt ≪ τ underflows the exponent): the charge
            // step is a near-no-op and the geometric-series form divides
            // by 1−α = 0. Integrate sample-wise.
            self.close_run();
            for _ in 0..m {
                self.scalar_sample(p);
            }
            return;
        }
        let tracing = ivn_runtime::trace::enabled();
        let mut m = m as u64;
        while m > 0 {
            let cont = matches!(&self.run, Some(seg) if seg.p_bits == p.to_bits());
            if !cont {
                self.close_run();
                let seg = self.open_seg(p, self.v, self.n);
                self.run = Some(seg);
            }
            let seg = *self.run.as_ref().expect("open run segment");
            if seg.regime == Regime::Scalar {
                // Degenerate fixed point: finish the run sample by
                // sample (still split-invariant — sequential stepping
                // never depends on call boundaries).
                self.run = None;
                for _ in 0..m {
                    self.scalar_sample(p);
                }
                return;
            }
            let take = m.min(seg.event_k - seg.k);
            if tracing {
                self.emit_trace_runs(&seg, take);
            }
            {
                let open = self.run.as_mut().expect("open run segment");
                open.k += take;
            }
            self.n += take as usize;
            m -= take;
            let fire = {
                let open = self.run.as_ref().expect("open run segment");
                open.k == open.event_k
            };
            if fire {
                self.fire_event();
            }
        }
    }

    /// One sample of the exact oracle ops (cold path: degenerate
    /// parameters inside `step_run`).
    fn scalar_sample(&mut self, p: f64) {
        let amp = (2.0 * p * self.profile.r_in).sqrt();
        let target = (self.stages_f * (amp - self.vth)).max(0.0);
        if target > self.v {
            self.v = target + (self.v - target) * self.alpha;
        }
        if self.awake_at.is_some() {
            self.v = (self.v - self.drain).max(0.0);
        }
        self.v_peak = self.v_peak.max(self.v);
        if self.awake_at.is_none() && self.v >= self.profile.v_operate {
            self.awake_at = Some(self.n);
        }
        if ivn_runtime::trace::enabled() && self.n % self.trace_stride == 0 {
            ivn_runtime::trace_counter!(
                "physics.harvested_charge_j",
                0.5 * self.profile.c_storage * self.v * self.v
            );
        }
        self.n += 1;
    }

    /// Opens a regime segment for drive `p` entering at voltage `v0`,
    /// first sample at absolute index `start_n`, and precomputes its
    /// transition event. Decisions depend only on `(p, v0, awake)` —
    /// data-determined, never on call boundaries.
    fn open_seg(&self, p: f64, v0: f64, start_n: usize) -> RunSeg {
        let amp = (2.0 * p * self.profile.r_in).sqrt();
        let target = (self.stages_f * (amp - self.vth)).max(0.0);
        let awake = self.awake_at.is_some();
        let mut seg = RunSeg {
            p_bits: p.to_bits(),
            target,
            v0,
            start_n,
            k: 0,
            event_k: u64::MAX,
            regime: Regime::Hold,
        };
        if !awake {
            if target > v0 {
                seg.regime = Regime::Charge;
                seg.event_k = self.wake_event(&seg);
            }
            // else Hold: v constant, and v < v_operate (otherwise the
            // previous sample's check would have woken the chip).
        } else if target > v0 {
            // Fixed point of v' = t + (v−t)α − drain.
            let v_inf = target - self.drain / (1.0 - self.alpha);
            if v_inf > 0.0 {
                seg.regime = Regime::AwakeCharge;
            } else {
                seg.regime = Regime::Scalar;
            }
        } else {
            seg.regime = Regime::AwakeDrain;
            seg.event_k = self.drain_event(&seg);
        }
        seg
    }

    /// Voltage after `k` samples of the segment (k = 0 → entry voltage).
    fn seg_v(&self, seg: &RunSeg, k: u64) -> f64 {
        if k == 0 {
            return seg.v0;
        }
        match seg.regime {
            Regime::Hold | Regime::Scalar => seg.v0,
            Regime::Charge => seg.target + (seg.v0 - seg.target) * pow_int(self.alpha, k),
            Regime::AwakeCharge => {
                let pk = pow_int(self.alpha, k);
                (seg.target + (seg.v0 - seg.target) * pk
                    - self.drain * ((1.0 - pk) / (1.0 - self.alpha)))
                    .max(0.0)
            }
            Regime::AwakeDrain => (seg.v0 - (k as f64) * self.drain).max(0.0),
        }
    }

    /// First `k ≥ 1` with `v(k) ≥ v_operate` in a [`Regime::Charge`]
    /// segment, or `u64::MAX` if the run can never wake. One logarithm
    /// seeds the index; a short walk absorbs rounding (with a binary
    /// search fallback for the asymptotic `target == v_op` edge).
    fn wake_event(&self, seg: &RunSeg) -> u64 {
        let v_op = self.profile.v_operate;
        if seg.target < v_op {
            return u64::MAX; // v(k) < target < v_op for all k
        }
        // α^k underflows to 0 past k_cap, where v(k) evaluates exactly
        // to target — the search horizon.
        let x = -self.alpha.ln(); // dt/RC
        let k_cap = if x > 0.0 {
            ((745.0 / x).ceil() as u64).saturating_add(2)
        } else {
            return u64::MAX;
        };
        let crossed = |k: u64| self.seg_v(seg, k) >= v_op;
        if !crossed(k_cap) {
            return u64::MAX;
        }
        let ratio = (v_op - seg.target) / (seg.v0 - seg.target);
        let guess = if ratio > 0.0 {
            (ratio.ln() / self.alpha.ln()).ceil()
        } else {
            1.0
        };
        let mut g = if guess.is_finite() && guess >= 1.0 {
            (guess as u64).min(k_cap)
        } else {
            k_cap
        };
        // Local fixup: rounding moves the crossing by at most a step or
        // two in practice. Cap the walk and fall back to bisection so a
        // pathological seed still terminates in O(log k).
        let mut walked = 0;
        if crossed(g) {
            while g > 1 && crossed(g - 1) && walked < 32 {
                g -= 1;
                walked += 1;
            }
            if g > 1 && crossed(g - 1) {
                return first_true(1, g, crossed);
            }
        } else {
            while !crossed(g) && walked < 32 {
                g += 1;
                walked += 1;
            }
            if !crossed(g) {
                return first_true(g, k_cap, crossed);
            }
        }
        g
    }

    /// First `k ≥ 1` where the [`Regime::AwakeDrain`] trajectory falls
    /// below the charge target (flipping the diode branch back on), or
    /// `u64::MAX` if it never does (`target == 0` or no draw).
    fn drain_event(&self, seg: &RunSeg) -> u64 {
        if seg.target <= 0.0 || self.drain <= 0.0 {
            return u64::MAX;
        }
        let below = |k: u64| self.seg_v(seg, k) < seg.target;
        // v0 − k·drain < target  ⇔  k > (v0 − target)/drain.
        let mut g = (((seg.v0 - seg.target) / self.drain).floor() as u64).saturating_add(1);
        let mut walked = 0;
        if below(g) {
            while g > 1 && below(g - 1) && walked < 32 {
                g -= 1;
                walked += 1;
            }
        } else {
            while !below(g) && walked < 32 {
                g += 1;
                walked += 1;
            }
            if !below(g) {
                // Linear trajectory: the crossing is bounded; bisect.
                let hi = g + ((seg.v0 / self.drain).ceil() as u64).saturating_add(2);
                return first_true(g, hi, below);
            }
        }
        g
    }

    /// Closes the segment at its event index and opens the follow-up
    /// regime at the same data-determined anchor.
    fn fire_event(&mut self) {
        let seg = self.run.take().expect("segment with pending event");
        let v_e = self.seg_v(&seg, seg.event_k);
        self.v_peak = self.v_peak.max(v_e);
        let next_start = seg.start_n + seg.event_k as usize;
        match seg.regime {
            Regime::Charge => {
                // The event is the wake crossing at sample event_k − 1.
                self.awake_at = Some(next_start - 1);
            }
            Regime::AwakeDrain => {} // fell below target: charging resumes
            r => unreachable!("regime {r:?} has no events"),
        }
        let p = f64::from_bits(seg.p_bits);
        let next = self.open_seg(p, v_e, next_start);
        self.run = Some(next);
    }

    /// Flushes the open run segment: collapses it to its end voltage so
    /// per-sample integration (or a different run value) can continue.
    fn close_run(&mut self) {
        if let Some(seg) = self.run.take() {
            let v_end = self.seg_v(&seg, seg.k);
            self.v = v_end;
            self.v_peak = self.v_peak.max(v_end);
        }
    }

    /// Emits the stride-aligned `physics.harvested_charge_j` probes a
    /// scalar integration of the next `take` segment samples would have
    /// emitted (tracing-only path; evaluates the closed form at each
    /// stride point without touching integration state).
    fn emit_trace_runs(&self, seg: &RunSeg, take: u64) {
        let stride = self.trace_stride;
        let lo = seg.start_n + seg.k as usize; // absolute index of next sample
        let hi = lo + take as usize;
        let mut idx = lo.div_ceil(stride) * stride;
        while idx < hi {
            let v = self.seg_v(seg, (idx - seg.start_n) as u64 + 1);
            ivn_runtime::trace_counter!(
                "physics.harvested_charge_j",
                0.5 * self.profile.c_storage * v * v
            );
            idx += stride;
        }
    }

    /// Ends the stream (books the threshold-crossing observation once)
    /// and returns the outcome. Idempotent; the state can keep
    /// integrating afterwards if more samples arrive.
    pub fn finish(&mut self) -> PowerUpOutcome {
        if self.awake_at.is_some() && !self.crossing_counted {
            ivn_runtime::obs_count!("harvester.threshold_crossings", 1);
            self.crossing_counted = true;
        }
        self.outcome()
    }

    /// The outcome as of the samples integrated so far.
    pub fn outcome(&self) -> PowerUpOutcome {
        // An open run segment is evaluated in place (every regime is
        // monotone, so the running max over segment endpoints is the
        // true peak).
        let (v_now, peak_now) = match &self.run {
            Some(seg) => {
                let v = self.seg_v(seg, seg.k);
                (v, self.v_peak.max(v))
            }
            None => (self.v, self.v_peak),
        };
        PowerUpOutcome {
            powered: self.awake_at.is_some(),
            time_to_power_s: self.awake_at.map(|n| n as f64 / self.sample_rate),
            peak_vdc: peak_now,
            final_vdc: v_now,
        }
    }

    /// Whether the chip has woken. The wake latch is sticky — once set it
    /// is never cleared — so a consumer that only needs `powered` and
    /// the wake time can stop feeding samples as soon as this is true:
    /// [`PowerUpOutcome::powered`] and [`PowerUpOutcome::time_to_power_s`]
    /// no longer change (the voltages still would).
    pub fn is_powered(&self) -> bool {
        self.awake_at.is_some()
    }

    /// Samples integrated so far.
    pub fn samples_seen(&self) -> usize {
        self.n
    }
}

impl ivn_dsp::block::BlockSink for PowerUpState<'_> {
    type In = f64;

    fn consume(&mut self, input: &[f64]) {
        self.step_block(input);
    }

    fn finish(&mut self) {
        PowerUpState::finish(self);
    }
}

/// First `k` in `[lo, hi]` where `pred(k)` holds, assuming `pred` is
/// monotone (false…false true…true); returns `hi` if only `hi` holds.
fn first_true(lo: u64, hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (lo, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Result of a power-up attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerUpOutcome {
    /// Whether the chip reached its operating voltage.
    pub powered: bool,
    /// When it did, seconds from the start of the window.
    pub time_to_power_s: Option<f64>,
    /// Highest DC voltage reached.
    pub peak_vdc: f64,
    /// DC voltage at the end of the window.
    pub final_vdc: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_dsp::units::dbm_to_watts;

    #[test]
    fn calibrated_sensitivities() {
        let std_tag = TagPowerProfile::standard_tag();
        let mini = TagPowerProfile::miniature_tag();
        // Wake-up anchors: standard −10 dBm peak, miniature 0 dBm peak
        // (DESIGN.md §5). Static (diode-threshold) floors sit ~5 dB lower.
        let std_req = ivn_dsp::units::watts_to_dbm(std_tag.required_peak_power_watts());
        let mini_req = ivn_dsp::units::watts_to_dbm(mini.required_peak_power_watts());
        assert!((std_req + 10.0).abs() < 0.3, "std {std_req}");
        assert!(mini_req.abs() < 0.3, "mini {mini_req}");
        assert!(std_tag.static_sensitivity_dbm() < std_req);
        assert!(mini.static_sensitivity_dbm() < mini_req);
    }

    #[test]
    fn input_amplitude_square_root_law() {
        let tag = TagPowerProfile::standard_tag();
        let v1 = tag.input_amplitude(1e-4);
        let v4 = tag.input_amplitude(4e-4);
        assert!((v4 / v1 - 2.0).abs() < 1e-12);
        assert_eq!(tag.input_amplitude(0.0), 0.0);
    }

    #[test]
    fn strong_signal_powers_quickly() {
        let tag = TagPowerProfile::standard_tag();
        // 10 dBm received — 20 dB above sensitivity.
        let env = vec![dbm_to_watts(10.0); 50_000];
        let out = tag.power_up(&env, 1e6);
        assert!(out.powered);
        assert!(out.time_to_power_s.unwrap() < 0.05);
        assert!(out.peak_vdc >= 1.0);
    }

    #[test]
    fn weak_signal_never_powers() {
        let tag = TagPowerProfile::standard_tag();
        // −20 dBm: below the diode threshold entirely.
        let env = vec![dbm_to_watts(-20.0); 100_000];
        let out = tag.power_up(&env, 1e6);
        assert!(!out.powered);
        assert_eq!(out.peak_vdc, 0.0);
        assert!(out.time_to_power_s.is_none());
    }

    #[test]
    fn above_threshold_but_below_operate_stalls() {
        let tag = TagPowerProfile::standard_tag();
        // Slightly above diode threshold: pump output saturates below the
        // 1 V operating point.
        let p = tag.static_sensitivity_watts() * 1.2;
        let env = vec![p; 200_000];
        let out = tag.power_up(&env, 1e6);
        assert!(!out.powered);
        assert!(out.peak_vdc > 0.0 && out.peak_vdc < 1.0);
    }

    #[test]
    fn peaky_envelope_powers_where_steady_fails() {
        // The CIB effect at the harvester: same average power, delivered
        // as N× amplitude peaks, wakes the chip.
        let tag = TagPowerProfile::standard_tag();
        let p_avg = tag.static_sensitivity_watts() * 0.8; // steady: dead
        let steady = vec![p_avg; 100_000];
        assert!(!tag.power_up(&steady, 1e6).powered);

        // Peaks of 100× power (10 antennas) for 1 % of the time.
        let mut peaky = vec![0.0; 100_000];
        for chunk in peaky.chunks_mut(10_000) {
            for v in chunk.iter_mut().take(100) {
                *v = p_avg * 100.0;
            }
        }
        let out = tag.power_up(&peaky, 1e6);
        assert!(out.powered, "peak_vdc {}", out.peak_vdc);
    }

    #[test]
    fn required_peak_power_consistent() {
        let tag = TagPowerProfile::standard_tag();
        let p_req = tag.required_peak_power_watts();
        assert!(!tag.can_power_at_peak(p_req * 0.99));
        assert!(tag.can_power_at_peak(p_req * 1.01));
        // Requirement sits above the static sensitivity (needs V_op too).
        assert!(p_req > tag.static_sensitivity_watts());
    }

    #[test]
    fn mini_tag_needs_more_power() {
        let std_req = TagPowerProfile::standard_tag().required_peak_power_watts();
        let mini_req = TagPowerProfile::miniature_tag().required_peak_power_watts();
        assert!(
            (mini_req / std_req - 10.0).abs() < 0.5,
            "ratio {}",
            mini_req / std_req
        );
    }

    #[test]
    fn streaming_integration_matches_batch_any_block_size() {
        let tag = TagPowerProfile::standard_tag();
        // A ramp that crosses the wake threshold partway through, then
        // drops — exercises wake timing and post-wake drain across
        // block boundaries.
        let env: Vec<f64> = (0..40_000)
            .map(|k| {
                if k < 30_000 {
                    dbm_to_watts(10.0) * (k as f64 / 30_000.0)
                } else {
                    0.0
                }
            })
            .collect();
        let batch = tag.power_up(&env, 1e6);
        assert!(batch.powered);
        for block in [1usize, 7, 256, 4096] {
            let mut st = tag
                .begin_power_up(1e6)
                .with_trace_stride((env.len() / 32).max(1));
            for chunk in env.chunks(block) {
                st.step_block(chunk);
            }
            let out = st.finish();
            assert_eq!(out.powered, batch.powered, "block {block}");
            assert_eq!(
                out.time_to_power_s.map(f64::to_bits),
                batch.time_to_power_s.map(f64::to_bits),
                "block {block}"
            );
            assert_eq!(out.peak_vdc.to_bits(), batch.peak_vdc.to_bits());
            assert_eq!(out.final_vdc.to_bits(), batch.final_vdc.to_bits());
            assert_eq!(st.samples_seen(), env.len());
        }
    }

    #[test]
    fn step_block_matches_oracle_bitwise() {
        // The α-hoist must not change a single bit: the streaming loop
        // is the oracle's op sequence with the exponential precomputed.
        let tag = TagPowerProfile::standard_tag();
        let env: Vec<f64> = (0..50_000)
            .map(|k| {
                let x = k as f64 / 50_000.0;
                dbm_to_watts(10.0) * x * (0.5 + 0.5 * (40.0 * x).sin().abs())
            })
            .collect();
        let fast = tag.power_up(&env, 1e6);
        let oracle = tag.power_up_oracle(&env, 1e6);
        assert_eq!(fast.powered, oracle.powered);
        assert_eq!(
            fast.time_to_power_s.map(f64::to_bits),
            oracle.time_to_power_s.map(f64::to_bits)
        );
        assert_eq!(fast.peak_vdc.to_bits(), oracle.peak_vdc.to_bits());
        assert_eq!(fast.final_vdc.to_bits(), oracle.final_vdc.to_bits());
    }

    #[test]
    fn run_fast_forward_tracks_oracle() {
        // PIE-like duty-cycled envelope: strong bursts with gaps, then a
        // long dark tail draining the awake chip.
        let tag = TagPowerProfile::standard_tag();
        let runs: &[(f64, usize)] = &[
            (1e-3, 400),
            (0.0, 1_500),
            (2e-3, 2_000),
            (0.0, 5_000),
            (5e-4, 30_000),
            (0.0, 200_000),
        ];
        let mut env = Vec::new();
        for &(p, m) in runs {
            env.extend(std::iter::repeat(p).take(m));
        }
        let oracle = tag.power_up_oracle(&env, 1e6);
        let ff = tag.power_up_runs(runs, 1e6);
        assert!(oracle.powered, "fixture should power");
        assert_eq!(ff.powered, oracle.powered);
        assert_eq!(
            ff.time_to_power_s.map(f64::to_bits),
            oracle.time_to_power_s.map(f64::to_bits),
            "wake index"
        );
        assert!((ff.peak_vdc - oracle.peak_vdc).abs() <= 1e-9, "peak drift");
        assert!(
            (ff.final_vdc - oracle.final_vdc).abs() <= 1e-9,
            "final drift {} vs {}",
            ff.final_vdc,
            oracle.final_vdc
        );
    }

    #[test]
    fn run_split_bit_identity() {
        // Splitting a run into sub-runs must not change a bit: segments
        // anchor at data-determined indices, not call boundaries.
        let tag = TagPowerProfile::standard_tag();
        let runs: &[(f64, usize)] = &[(1.5e-3, 7_000), (0.0, 9_000), (6e-4, 50_000)];
        let whole = tag.power_up_runs(runs, 1e6);
        let mut st = tag.begin_power_up(1e6);
        for &(p, m) in runs {
            // Feed each run as many ragged sub-runs.
            let mut left = m;
            let mut piece = 1usize;
            while left > 0 {
                let take = piece.min(left);
                st.step_run(p, take);
                left -= take;
                piece = piece * 3 + 1;
            }
        }
        let split = st.finish();
        assert_eq!(split.powered, whole.powered);
        assert_eq!(
            split.time_to_power_s.map(f64::to_bits),
            whole.time_to_power_s.map(f64::to_bits)
        );
        assert_eq!(split.peak_vdc.to_bits(), whole.peak_vdc.to_bits());
        assert_eq!(split.final_vdc.to_bits(), whole.final_vdc.to_bits());
    }

    #[test]
    fn length_one_runs_with_distinct_powers_match_step_block_bitwise() {
        // A fresh segment of length 1 performs exactly the scalar ops
        // (`pow_int(α, 1) == α`, the geometric series collapses to
        // `drain`), so an all-distinct stream fed through `step_run`
        // one sample at a time is bit-identical to `step_block`.
        let tag = TagPowerProfile::standard_tag();
        let env: Vec<f64> = (0..20_000)
            .map(|k| dbm_to_watts(8.0) * (k as f64 / 20_000.0))
            .collect();
        let batch = tag.power_up(&env, 1e6);
        assert!(batch.powered);
        let mut st = tag
            .begin_power_up(1e6)
            .with_trace_stride((env.len() / 32).max(1));
        for &p in &env {
            st.step_run(p, 1);
        }
        let out = st.finish();
        assert_eq!(out.powered, batch.powered);
        assert_eq!(
            out.time_to_power_s.map(f64::to_bits),
            batch.time_to_power_s.map(f64::to_bits)
        );
        assert_eq!(out.peak_vdc.to_bits(), batch.peak_vdc.to_bits());
        assert_eq!(out.final_vdc.to_bits(), batch.final_vdc.to_bits());
    }

    #[test]
    fn rx_block_integration_matches_power_block_bitwise() {
        let tag = TagPowerProfile::standard_tag();
        let mut rng = ivn_runtime::rng::StdRng::seed_from_u64(9);
        use ivn_runtime::rng::Rng;
        let rx: Vec<ivn_dsp::Complex64> = (0..50_000)
            .map(|_| ivn_dsp::Complex64 {
                re: rng.random::<f64>() - 0.5,
                im: rng.random::<f64>() - 0.5,
            })
            .collect();
        let scale = 3.7e-3;
        let power: Vec<f64> = rx.iter().map(|&v| v.norm_sqr() * scale).collect();
        let mut a = tag.begin_power_up(1e6);
        let mut b = tag.begin_power_up(1e6);
        for (rxc, pc) in rx.chunks(777).zip(power.chunks(777)) {
            a.step_rx_block(rxc, scale);
            b.step_block(pc);
        }
        let (oa, ob) = (a.finish(), b.finish());
        assert_eq!(oa.final_vdc.to_bits(), ob.final_vdc.to_bits());
        assert_eq!(oa.peak_vdc.to_bits(), ob.peak_vdc.to_bits());
        assert_eq!(
            oa.time_to_power_s.map(f64::to_bits),
            ob.time_to_power_s.map(f64::to_bits)
        );
    }

    #[test]
    fn chip_drain_after_wake() {
        let tag = TagPowerProfile::standard_tag();
        // Power strongly, then cut the signal: voltage must decay due to
        // chip draw.
        let mut env = vec![dbm_to_watts(10.0); 20_000];
        env.extend(vec![0.0; 500_000]);
        let out = tag.power_up(&env, 1e6);
        assert!(out.powered);
        assert!(out.final_vdc < out.peak_vdc);
    }
}
