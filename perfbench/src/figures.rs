//! `figures`: the quick figure set through `bench::registry::render` at
//! the program's default width. It is the only workload that reaches
//! `IvnSystem::run_session` (fig13), the `core::experiment` sweeps on the
//! scoped executor and figure-scale `freqsel::optimize`; power-up and
//! data transfer run as one session, as in Khaleghi et al.
//!
//! The benchmark seed shifts every figure scenario's seed: a run at seed
//! `s` rotates through the [`SHIFTS`] shifts `s·SHIFTS + j`. Shift 0 (the
//! first at the default seed 0) leaves the scenarios as built in, and
//! only there do the outputs have to equal
//! `tests/golden/figures/*.quick.txt`. The ablations take no scenario, so
//! the seed does not reach them.

use crate::ledger::{
    counter_metrics, end_to_end, fnv1a, pool_metrics, setup, timed_calls, Ledger, Outcome,
};
use ivn_bench::registry::{builtin, render};
use ivn_core::scenario::Scenario;
use ivn_runtime::pool::WorkerPool;
use std::time::Instant;

/// The figure set, each with the ledger row its render books to.
const TARGETS: [(&str, &str); 9] = [
    ("fig6", "figure.fig6_s"),
    ("fig9", "figure.fig9_s"),
    ("fig10", "figure.fig10_s"),
    ("fig11", "figure.fig11_s"),
    ("fig12", "figure.fig12_s"),
    ("fig13", "figure.fig13_s"),
    ("invivo", "figure.invivo_s"),
    ("freqs", "figure.freqs_s"),
    ("ablations", "figure.ablations_s"),
];

/// Seed shifts per run. fig13's range searches run a seed-dependent
/// number of sessions (about ±15 % over seeds), so a run rotates through
/// several shifts and its median spans them rather than one seed's cost.
const SHIFTS: u64 = 4;

/// The seed shifts of a run.
fn shifts(seed: u64) -> impl Iterator<Item = u64> {
    (0..SHIFTS).map(move |j| seed.wrapping_mul(SHIFTS).wrapping_add(j))
}

/// The nine scenarios, seed-shifted and round-tripped through JSON as
/// `reproduce --scenario` would load them.
fn scenarios(shift: u64) -> Vec<Scenario> {
    TARGETS
        .iter()
        .map(|(name, _)| {
            let s = builtin(name).expect("every figure target is a builtin scenario");
            let shifted = s.with_seed(s.seed.wrapping_add(shift));
            Scenario::parse(&shifted.dump()).expect("a dumped scenario parses back")
        })
        .collect()
}

fn render_all(set: &[Scenario]) -> Vec<Result<String, String>> {
    set.iter().map(|s| render(s, true)).collect()
}

/// The golden output of every target, read from the checkout.
fn goldens() -> Vec<Option<String>> {
    TARGETS
        .iter()
        .map(|(name, _)| {
            std::fs::read_to_string(format!("tests/golden/figures/{name}.quick.txt")).ok()
        })
        .collect()
}

/// Checks each figure: rendered without error and equal to `want`.
fn check(out: &mut Outcome, got: &[Result<String, String>], want: &[Option<String>]) {
    for (((name, _), g), w) in TARGETS.iter().zip(got).zip(want) {
        let ok = matches!((g, w), (Ok(g), Some(w)) if g == w);
        out.check(ok, || match g {
            Err(e) => format!("figure {name}: {e}"),
            Ok(_) => format!("figure {name} differs from its reference output"),
        });
    }
}

/// What the first render at `shift` is checked against: the goldens at
/// shift 0, otherwise nothing (later renders must equal the first).
fn reference(shift: u64) -> Option<Vec<Option<String>>> {
    (shift == 0).then(goldens)
}

type Renders = Vec<Result<String, String>>;

fn digest<'a>(sets: impl Iterator<Item = &'a Renders>) -> u64 {
    fnv1a(format!("{:?}", sets.collect::<Vec<_>>()).as_bytes())
}

/// Timed run: set-up is resolving the scenarios of every shift (median
/// of 15); call `c` renders the whole set at shift `c mod SHIFTS`.
pub fn timed(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, sets) = setup(|| shifts(seed).map(scenarios).collect::<Vec<_>>());
    let mut want: Vec<_> = shifts(seed).map(reference).collect();
    let mut first: Vec<Option<Renders>> = vec![None; sets.len()];
    let mut next = 0;
    let calls = timed_calls(
        seconds,
        sets.len(),
        || {
            let j = next % sets.len();
            next += 1;
            (j, render_all(&sets[j]))
        },
        |(j, got)| {
            let w = want[j].get_or_insert_with(|| got.iter().map(|g| g.clone().ok()).collect());
            check(&mut out, &got, w);
            first[j].get_or_insert(got);
        },
    );
    out.digest = digest(first.iter().flatten());
    end_to_end(&mut out, setup_s, &calls, TARGETS.len() as f64);
    out.notes.push(format!(
        "figures figures_s = {:.3} s (reference host)",
        out.metrics[1].1
    ));
    out
}

/// Traced run: per shift, the set once untimed for reference (the first
/// also gives the pool counts), then each figure timed on its own. Rows
/// are per set.
pub fn traced(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let before = ivn_runtime::obs::report();
    let mut ledger = Ledger::default();
    let (mut ref_wall, mut wall) = (0.0, 0.0);
    let mut references = Vec::new();
    for shift in shifts(seed) {
        let set = scenarios(shift);
        let pool_before = WorkerPool::global().stats();
        let t0 = Instant::now();
        let reference_set = render_all(&set);
        ref_wall += t0.elapsed().as_secs_f64();
        if references.is_empty() {
            pool_metrics(&mut out, &pool_before, &WorkerPool::global().stats());
        }
        let want = reference(shift)
            .unwrap_or_else(|| reference_set.iter().map(|g| g.clone().ok()).collect());
        check(&mut out, &reference_set, &want);

        ivn_runtime::obs::set_enabled(true);
        let t0 = Instant::now();
        let got: Renders = set
            .iter()
            .zip(TARGETS)
            .map(|(s, (_, row))| ledger.time(row, || render(s, true)))
            .collect();
        wall += t0.elapsed().as_secs_f64();
        ivn_runtime::obs::set_enabled(false);
        check(&mut out, &got, &want);
        references.push(reference_set);
    }
    let counters = ivn_runtime::obs::report().delta(&before);
    out.digest = digest(references.iter());

    let per = 1.0 / SHIFTS as f64;
    ledger.scale(per);
    ledger.report(&mut out, wall * per, ref_wall * per);
    counter_metrics(&mut out, &counters);
    out
}
