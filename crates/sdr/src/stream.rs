//! Block-streaming bank emission.
//!
//! [`EmitterLane`] is the streaming core behind [`TxBank::emit`]: one
//! device's oscillator, PA and carrier-phase state, advanced block by
//! block. The whole-buffer `emit` is now a thin wrapper — push the full
//! profile, flush — so the two paths are bit-identical by construction.
//!
//! The only stateful subtlety is the trigger offset: device `i` reads
//! the shared command profile at `k − shiftᵢ`, so a lane keeps a small
//! sliding window of profile history (for positive shifts, i.e. delayed
//! devices) and holds back up to `latency` output samples (for negative
//! shifts, which need *future* profile samples). Both bounds are set by
//! the clock distribution's trigger jitter — nanoseconds for an
//! Octoclock, ≪ one block even free-running — so lane memory stays
//! O(block + |shift|), independent of the stream length.
//!
//! [`BankStreamer`] runs one lane per device with a common latency, so
//! every `push` yields the same number of aligned output samples on all
//! lanes — exactly what the per-block superposition in `ivn-em` needs.
//! Lane advancement is embarrassingly parallel (disjoint state): slots
//! are *moved* through the persistent `ivn_runtime::pool::WorkerPool`
//! and reassembled in device order, so the output is bit-identical at
//! any worker count.
//!
//! ## The run-length hot loop
//!
//! The emission inner loop used to be the slowest stage of the whole
//! sample path (~1.5 MS/s vs em's 130 MS/s): per output sample it paid
//! a `sin_cos` in the oscillator and an `atan2` + `sin_cos` + two
//! `powf` in the PA's polar round-trip. The lane now rides a
//! [`PhasorRotor`] — the carrier phase and the soft offset fold into
//! one lane-batched rotator with periodic exact resync — and the PA
//! collapses to a real gain. Command profiles are long runs of constant
//! amplitude (1.0 with 0.0 notches), so each block is split into runs
//! of bit-equal amplitude (read through the trigger shift; the stretches
//! outside the command read 1.0). Each run looks its PA gain up once in
//! a one-entry memo and hands it to [`PhasorRotor::fill_scaled`], which
//! writes `phasor · gain` straight into the lane's output block inside
//! its 8-wide row loop: no intermediate buffer, no per-sample branch, no
//! libm call. Non-finite profile amplitudes are rejected once per run.
//!
//! The rotator output differs from the old scalar path only by the
//! recurrence's bounded rounding (≤ 1e-12 per resync window);
//! [`emit_oracle`] preserves the original trig formulation so tests can
//! pin that distance (`tests/streaming_equivalence.rs`).

use crate::bank::TxBank;
use crate::pa::PowerAmp;
use ivn_dsp::block::BlockStage;
use ivn_dsp::complex::Complex64;
use ivn_dsp::osc::Oscillator;
use ivn_dsp::rotor::PhasorRotor;
use ivn_runtime::pool::WorkerPool;
use std::sync::Arc;

/// One device's streaming emitter: carries rotator phase, trigger
/// shift and profile history across block boundaries.
#[derive(Debug, Clone)]
pub struct EmitterLane {
    /// Unit phasor source `e^{j(θ_pll + kΔ)}`: PLL phase and soft
    /// offset in one trig-free rotator.
    rotor: PhasorRotor,
    pa: PowerAmp,
    drive: f64,
    /// Device index in the bank (named in profile panics).
    device: usize,
    /// Trigger offset as a whole-sample profile shift (positive = the
    /// device fires late and reads older profile samples).
    shift: i64,
    /// Output samples held back until enough profile has arrived
    /// (covers lanes with negative shift in this bank).
    latency: usize,
    /// Profile history retained behind the emission point (covers
    /// positive shifts).
    lookback: usize,
    hist: Vec<f64>,
    hist_start: usize,
    pushed: usize,
    next: usize,
    /// Bits of the last profile amplitude whose PA gain was computed,
    /// and that gain.
    memo: Option<(u64, f64)>,
}

impl EmitterLane {
    /// A streaming emitter for device `i` of `bank` at PA drive `drive`.
    pub fn new(bank: &TxBank, i: usize, drive: f64) -> Self {
        let dev = bank.device(i);
        let shift = (dev.trigger_offset_s * bank.sample_rate()).round() as i64;
        EmitterLane {
            rotor: PhasorRotor::new(
                bank.offsets_hz()[i],
                bank.sample_rate(),
                dev.pll.initial_phase(),
            ),
            pa: dev.pa,
            drive,
            device: i,
            shift,
            latency: (-shift).max(0) as usize,
            lookback: shift.max(0) as usize,
            hist: Vec::new(),
            hist_start: 0,
            pushed: 0,
            next: 0,
            memo: None,
        }
    }

    /// Forces a common output latency across a bank's lanes (must be at
    /// least this lane's own requirement).
    fn set_latency(&mut self, latency: usize) {
        assert!(latency >= self.latency, "latency below lane requirement");
        self.latency = latency;
    }

    /// The profile shift in samples.
    pub fn shift(&self) -> i64 {
        self.shift
    }

    /// Samples of profile history currently buffered (footprint probe).
    pub fn history_len(&self) -> usize {
        self.hist.len()
    }

    /// Emits output samples `next .. next+count`, reading profile
    /// amplitudes from the history window. `total` is the final profile
    /// length once known (`flush`); indices outside `[0, total)` read
    /// as 1.0 — outside the command the carrier stays on.
    ///
    /// Hot path: the block splits into runs of bit-equal amplitude, the
    /// PA gain is looked up once per run, and the rotor writes
    /// `phasor · gain` straight into `out` — one complex scale per
    /// sample and zero libm calls on a constant run.
    ///
    /// # Panics
    /// Panics if a profile amplitude is not finite.
    fn emit_samples(&mut self, count: usize, total: Option<usize>, out: &mut Vec<Complex64>) {
        if count == 0 {
            return;
        }
        let _span = ivn_runtime::span!("sdr.emit_ns");
        ivn_runtime::obs_count!("sdr.emissions", 1);
        let mut at = out.len();
        out.resize(at + count, Complex64::ZERO);
        let end = self.next + count;
        while self.next < end {
            let left = end - self.next;
            let idx = self.next as i64 - self.shift;
            let (amp, run) = if idx < 0 {
                // Before the command: carrier stays on at full level.
                (1.0, left.min(idx.unsigned_abs() as usize))
            } else if total.is_some_and(|n| idx as usize >= n) {
                // After the command.
                (1.0, left)
            } else {
                let idx = idx as usize;
                debug_assert!(
                    idx >= self.hist_start && idx < self.hist_start + self.hist.len(),
                    "profile index {idx} outside history window"
                );
                let limit = total.map_or(left, |n| left.min(n - idx));
                let from = idx - self.hist_start;
                let window = &self.hist[from..from + limit];
                let amp = window[0];
                assert!(
                    amp.is_finite(),
                    "sdr device {}: non-finite drive profile amplitude {amp} at sample {idx}",
                    self.device
                );
                let bits = amp.to_bits();
                let run = window
                    .iter()
                    .position(|v| v.to_bits() != bits)
                    .unwrap_or(limit);
                (amp, run)
            };
            let gain = self.gain(amp);
            self.rotor.fill_scaled(&mut out[at..at + run], gain);
            at += run;
            self.next += run;
        }
    }

    /// The PA's real gain for profile amplitude `amp`, memoized on the
    /// amplitude's bits (profiles are long runs of a few levels).
    fn gain(&mut self, amp: f64) -> f64 {
        let bits = amp.to_bits();
        if let Some((memo_bits, gain)) = self.memo {
            if memo_bits == bits {
                return gain;
            }
        }
        let a = amp * self.drive;
        let g = self.pa.am_am(a.abs());
        let gain = if a.is_sign_negative() { -g } else { g };
        self.memo = Some((bits, gain));
        gain
    }

    /// Drops history the emission point has moved past.
    fn compact(&mut self) {
        let keep_from = self.next.saturating_sub(self.lookback);
        if keep_from > self.hist_start {
            self.hist.drain(..keep_from - self.hist_start);
            self.hist_start = keep_from;
        }
    }
}

impl BlockStage for EmitterLane {
    type In = f64;
    type Out = Complex64;

    fn push(&mut self, input: &[f64], out: &mut Vec<Complex64>) {
        self.hist.extend_from_slice(input);
        self.pushed += input.len();
        let ready = self.pushed.saturating_sub(self.latency);
        let count = ready.saturating_sub(self.next);
        self.emit_samples(count, None, out);
        self.compact();
    }

    fn flush(&mut self, out: &mut Vec<Complex64>) {
        let total = self.pushed;
        let count = total - self.next;
        self.emit_samples(count, Some(total), out);
        self.compact();
    }
}

/// The pre-rotor scalar emission path, kept as the trig oracle: one
/// `sin_cos` per oscillator sample and the PA's polar round-trip
/// (`atan2` + `sin_cos`), exactly as `TxBank::emit` computed before the
/// lane went trig-free.
///
/// This is deliberately *not* the production path — it exists so the
/// equivalence suite can bound the rotator path's distance from the
/// textbook formulation (≤ 1e-9 of the emitted amplitude per sample;
/// see `tests/streaming_equivalence.rs`) and so new goldens were pinned
/// against something slower but independently derived.
pub fn emit_oracle(bank: &TxBank, i: usize, profile: &[f64], drive: f64) -> Vec<Complex64> {
    let dev = bank.device(i);
    let shift = (dev.trigger_offset_s * bank.sample_rate()).round() as i64;
    let mut osc = Oscillator::new(bank.offsets_hz()[i], bank.sample_rate());
    let carrier = Complex64::cis(dev.pll.initial_phase());
    let total = profile.len() as i64;
    (0..profile.len())
        .map(|k| {
            let idx = k as i64 - shift;
            let amp = if (0..total).contains(&idx) {
                profile[idx as usize]
            } else {
                1.0
            };
            let x = osc.next_sample() * amp * drive;
            let (r, theta) = x.to_polar();
            Complex64::from_polar(dev.pa.am_am(r), theta) * carrier
        })
        .collect()
}

/// One lane plus its reusable output scratch block.
#[derive(Debug, Clone)]
struct LaneSlot {
    lane: EmitterLane,
    buf: Vec<Complex64>,
}

/// The whole bank as an aligned multi-lane streaming emitter: every
/// [`BankStreamer::push`] advances all devices by the same number of
/// output samples, leaving one block per device in reusable scratch.
#[derive(Debug, Clone)]
pub struct BankStreamer {
    slots: Vec<LaneSlot>,
    threads: usize,
}

impl BankStreamer {
    /// Builds a streamer over `bank` at PA drive `drive`, advancing
    /// lanes on `threads` workers (1 = inline).
    pub fn new(bank: &TxBank, drive: f64, threads: usize) -> Self {
        let lanes: Vec<EmitterLane> = (0..bank.len())
            .map(|i| EmitterLane::new(bank, i, drive))
            .collect();
        // A common latency keeps every lane's output aligned.
        let latency = lanes.iter().map(|l| l.latency).max().unwrap_or(0);
        let slots = lanes
            .into_iter()
            .map(|mut lane| {
                lane.set_latency(latency);
                LaneSlot {
                    lane,
                    buf: Vec::new(),
                }
            })
            .collect();
        BankStreamer { slots, threads }
    }

    /// Number of lanes (devices).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the streamer has no lanes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Pushes one shared profile block; every lane appends the same
    /// number of output samples to its scratch block (cleared first).
    /// Returns that per-lane count.
    pub fn push(&mut self, profile: &[f64]) -> usize {
        self.advance(Some(profile))
    }

    /// Ends the stream, draining held-back samples into the per-lane
    /// blocks. Returns the per-lane count.
    pub fn flush(&mut self) -> usize {
        self.advance(None)
    }

    /// Advances every lane by one block (`Some(profile)`) or drains it
    /// (`None`). With more than one thread, slots are moved through the
    /// persistent [`WorkerPool`] — the no-`unsafe` rule forbids lending
    /// `&mut` state to pool threads, so ownership makes the round trip
    /// instead — and come back in device order, keeping output
    /// bit-identical at any worker count.
    fn advance(&mut self, profile: Option<&[f64]>) -> usize {
        if self.threads <= 1 || self.slots.len() <= 1 {
            for slot in &mut self.slots {
                slot.buf.clear();
                match profile {
                    Some(p) => slot.lane.push(p, &mut slot.buf),
                    None => slot.lane.flush(&mut slot.buf),
                }
            }
        } else {
            let shared: Option<Arc<[f64]>> = profile.map(Arc::from);
            let slots = std::mem::take(&mut self.slots);
            self.slots = WorkerPool::global().map_move(slots, self.threads, move |_, mut slot| {
                slot.buf.clear();
                match &shared {
                    Some(p) => slot.lane.push(p, &mut slot.buf),
                    None => slot.lane.flush(&mut slot.buf),
                }
                slot
            });
        }
        self.slots.first().map_or(0, |s| s.buf.len())
    }

    /// Device `i`'s current output block.
    pub fn block(&self, i: usize) -> &[Complex64] {
        &self.slots[i].buf
    }

    /// All current output blocks, in device order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = &[Complex64]> {
        self.slots.iter().map(|s| s.buf.as_slice())
    }

    /// Largest per-lane buffer currently held (output block or profile
    /// history), in samples — the footprint probe for the sdr stage.
    pub fn peak_lane_footprint(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.buf.len().max(s.lane.history_len()))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockDistribution;
    use ivn_runtime::rng::StdRng;

    const OFFSETS: [f64; 4] = [0.0, 7.0, 20.0, 49.0];

    fn bank(clock: &ClockDistribution, seed: u64) -> TxBank {
        let mut rng = StdRng::seed_from_u64(seed);
        TxBank::new(&mut rng, 4, 915e6, 100e3, &OFFSETS, clock)
    }

    fn notched_profile(n: usize) -> Vec<f64> {
        let mut p = vec![1.0; n];
        for v in p[n / 3..n / 3 + n / 10].iter_mut() {
            *v = 0.0;
        }
        p
    }

    #[test]
    fn streaming_matches_batch_emit_any_block_size() {
        // Free-running clock → trigger shifts of many whole samples, so
        // both the history window and the latency path are exercised.
        let b = bank(&ClockDistribution::free_running(), 9);
        let profile = notched_profile(1000);
        for block in [1usize, 7, 64, 1000] {
            for i in 0..b.len() {
                let batch = b.emit(i, &profile, 0.05);
                let mut lane = EmitterLane::new(&b, i, 0.05);
                let mut out = Vec::new();
                for chunk in profile.chunks(block) {
                    lane.push(chunk, &mut out);
                }
                lane.flush(&mut out);
                assert_eq!(out.len(), profile.len(), "device {i} block {block}");
                for (k, (s, t)) in out.iter().zip(batch.samples()).enumerate() {
                    assert!(
                        s.re.to_bits() == t.re.to_bits() && s.im.to_bits() == t.im.to_bits(),
                        "device {i} block {block} sample {k}: {s:?} vs {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn bank_streamer_aligned_and_identical_across_threads() {
        let b = bank(&ClockDistribution::octoclock(), 3);
        let profile = notched_profile(512);
        let reference: Vec<_> = (0..b.len()).map(|i| b.emit(i, &profile, 0.05)).collect();
        for threads in [1usize, 2, 8] {
            let mut st = BankStreamer::new(&b, 0.05, threads);
            let mut collected: Vec<Vec<Complex64>> = vec![Vec::new(); b.len()];
            for chunk in profile.chunks(100) {
                st.push(chunk);
                for (i, c) in collected.iter_mut().enumerate() {
                    c.extend_from_slice(st.block(i));
                }
            }
            st.flush();
            for (i, c) in collected.iter_mut().enumerate() {
                c.extend_from_slice(st.block(i));
            }
            for (i, (got, want)) in collected.iter().zip(&reference).enumerate() {
                assert_eq!(got, want.samples(), "device {i} at {threads} threads");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sdr device 0: non-finite drive profile amplitude NaN at sample 0")]
    fn rejects_all_nan_profile() {
        bank(&ClockDistribution::octoclock(), 3).emit(0, &[f64::NAN; 8], 0.05);
    }

    #[test]
    #[should_panic(expected = "sdr device 2: non-finite drive profile amplitude NaN at sample 1")]
    fn rejects_nan_after_a_level() {
        bank(&ClockDistribution::octoclock(), 3).emit(2, &[1.0, f64::NAN], 0.05);
    }

    #[test]
    fn lane_history_stays_bounded() {
        let b = bank(&ClockDistribution::free_running(), 9);
        let mut lane = EmitterLane::new(&b, 0, 0.05);
        let mut out = Vec::new();
        let block = vec![1.0; 256];
        let mut peak_hist = 0usize;
        for _ in 0..100 {
            out.clear();
            lane.push(&block, &mut out);
            peak_hist = peak_hist.max(lane.history_len());
        }
        // Bounded by block + |shift| slack, not by the 25 600 samples pushed.
        let slack = lane.shift().unsigned_abs() as usize + lane.latency;
        assert!(
            peak_hist <= 256 + slack + 1,
            "history {peak_hist} exceeds block+slack"
        );
    }
}
