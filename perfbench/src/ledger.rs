//! Timing, statistics and output bookkeeping shared by every workload.

use ivn_runtime::obs::Report;
use ivn_runtime::pool::LaneSnapshot;
use std::time::Instant;

/// Exclusive busy time per layer row. Each [`Ledger::time`] call wraps
/// one leaf call into a layer, never another timed call, so the rows are
/// disjoint and their sum never exceeds the wall time around them.
#[derive(Debug, Default)]
pub struct Ledger {
    rows: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// Runs `f`, books its wall time to `row` and returns its result.
    pub fn time<T>(&mut self, row: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let seconds = t0.elapsed().as_secs_f64();
        match self.rows.iter_mut().find(|(r, _)| *r == row) {
            Some((_, s)) => *s += seconds,
            None => self.rows.push((row, seconds)),
        }
        out
    }

    /// Multiplies every row by `k` (to turn totals over repeats into
    /// per-repeat values).
    pub fn scale(&mut self, k: f64) {
        for (_, s) in &mut self.rows {
            *s *= k;
        }
    }

    /// Seconds booked to `row` (0 when it never ran).
    pub fn get(&self, row: &str) -> f64 {
        self.rows
            .iter()
            .find(|(r, _)| *r == row)
            .map_or(0.0, |&(_, s)| s)
    }

    /// Reports every row as a metric (rows are named after their
    /// per-layer metric), then the ledger's health: the traced wall
    /// time, the part of it no row covers, and the traced replay's cost
    /// over the untraced driver.
    pub fn report(&self, out: &mut Outcome, wall: f64, untraced_wall: f64) {
        for &(row, seconds) in &self.rows {
            out.metric(row, seconds, "s");
        }
        let total: f64 = self.rows.iter().map(|&(_, s)| s).sum();
        out.metric("traced_wall_s", wall, "s");
        out.metric("unattributed_s", wall - total, "s");
        out.metric("trace_overhead_frac", wall / untraced_wall - 1.0, "ratio");
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (NaN when
/// empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a over `bytes`: the digest a run prints so that its outputs can
/// be compared with another run's at the same seed.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The [`host_kernel`] time that defines the reference host, seconds
/// (about its time on the 2-vCPU box this benchmark was written on).
const HOST_KERNEL_REF_S: f64 = 4e-3;

/// A fixed compute kernel owned by the benchmark (no program code): a
/// complex rotation over a 256 KiB buffer with trig and data-dependent
/// branches. Its wall time tracks how fast the host runs right now.
fn host_kernel() -> f64 {
    let t0 = Instant::now();
    let n = 16384;
    let mut re: Vec<f64> = (0..n).map(|i| (i as f64 * 1e-3).sin()).collect();
    let mut im: Vec<f64> = (0..n).map(|i| (i as f64 * 1e-3).cos()).collect();
    let mut acc = 0.0f64;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for pass in 0..20 {
        let (gr, gi) = ((pass as f64 * 0.1).cos(), (pass as f64 * 0.1).sin());
        for k in 0..n {
            let (r, i) = (re[k] * gr - im[k] * gi, re[k] * gi + im[k] * gr);
            re[k] = r;
            im[k] = i;
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state & 3 {
                0 => acc += r * r + i * i,
                1 => acc -= (r * 0.5).sin(),
                _ => {}
            }
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// One timed sample: its wall time, and the same scaled to the
/// reference host by the [`host_kernel`] runs just before and after it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Host seconds.
    pub wall: f64,
    /// Reference-host seconds: `wall × HOST_KERNEL_REF_S / kernel time`.
    pub scaled: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (Timing, T) {
    let before = host_kernel();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    let after = host_kernel();
    let scaled = wall * HOST_KERNEL_REF_S * 2.0 / (before + after);
    (Timing { wall, scaled }, out)
}

/// Medians of each field.
fn medians(samples: &[Timing]) -> Timing {
    let field = |f: fn(&Timing) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    Timing {
        wall: field(|t| t.wall),
        scaled: field(|t| t.scaled),
    }
}

/// Set-up repetitions per timed run.
const SETUP_REPS: usize = 15;

/// How `setup_s` is measured: runs `f` [`SETUP_REPS`] times and returns
/// the median timing with the last result.
pub fn setup<T>(mut f: impl FnMut() -> T) -> (Timing, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (t, out) = timed(&mut f);
        times.push(t);
        last = Some(out);
    }
    (medians(&times), last.expect("at least one repetition"))
}

/// What one workload reports to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (scenarios, bodies, figures or periods).
    pub attempted: u64,
    /// Operations that errored or failed their output check.
    pub failed: u64,
    /// Metrics as (name, value, unit).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Digest of the checked outputs; equal seeds must give equal
    /// digests in the timed and the traced run.
    pub digest: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one checked operation; a failed check keeps its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

/// The timed loop: calls `op` until `seconds` have passed (at least
/// `min_calls` times) and returns each call's timing. `check` gets each
/// call's result outside the timed window.
pub fn timed_calls<T>(
    seconds: f64,
    min_calls: usize,
    mut op: impl FnMut() -> T,
    mut check: impl FnMut(T),
) -> Vec<Timing> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_calls || start.elapsed().as_secs_f64() < seconds {
        let (t, result) = timed(&mut op);
        times.push(t);
        check(result);
    }
    times
}

/// The end-to-end metrics every timed run reports, in reference-host
/// units, from the set-up and per-call timings and the work units one
/// call performs. The wall-clock values go to the printed lines.
pub fn end_to_end(out: &mut Outcome, setup: Timing, calls: &[Timing], work_per_call: f64) {
    let call = medians(calls);
    out.metric("throughput", work_per_call / call.scaled, "1/s");
    out.metric("call_s", call.scaled, "s");
    out.metric("setup_s", setup.scaled, "s");
    let walls: Vec<f64> = calls.iter().map(|t| t.wall).collect();
    out.notes.push(format!(
        "wall clock: {} calls, call_s p25={:.4} p50={:.4} p75={:.4}, \
         throughput {:.6e} 1/s, setup_s {:.6} (host speed {:.2}x the reference)",
        calls.len(),
        quantile(&walls, 0.25),
        call.wall,
        quantile(&walls, 0.75),
        work_per_call / call.wall,
        setup.wall,
        call.scaled / call.wall,
    ));
}

/// Work counts from the program's own obs counters over the traced part.
pub fn counter_metrics(out: &mut Outcome, counters: &Report) {
    for name in [
        "experiment.trials",
        "experiment.rounds",
        "freqsel.mc_draws",
        "em.channel_evals",
        "harvester.charge_steps",
        "rfid.pie_symbols_decoded",
        "sdr.emissions",
    ] {
        out.metric(name, counters.counter(name).unwrap_or(0) as f64, "count");
    }
}

/// Worker-pool activity between two `WorkerPool::stats` snapshots.
pub fn pool_metrics(out: &mut Outcome, before: &[LaneSnapshot], after: &[LaneSnapshot]) {
    let delta = |f: fn(&LaneSnapshot) -> u64, workers_only: bool| -> u64 {
        after
            .iter()
            .filter(|l| !workers_only || l.lane != "callers")
            .map(|a| {
                let b = before.iter().find(|b| b.lane == a.lane).map_or(0, f);
                f(a).saturating_sub(b)
            })
            .sum()
    };
    let busy = delta(|l| l.busy_ns, true) as f64;
    let idle = delta(|l| l.idle_ns, true) as f64;
    out.metric("pool.busy_frac", busy / (busy + idle).max(1.0), "ratio");
    out.metric("pool.idle_s", idle / 1e9, "s");
    out.metric("pool.tasks", delta(|l| l.tasks, false) as f64, "count");
    out.metric("pool.steals", delta(|l| l.steals, false) as f64, "count");
}
